"""The fast demos run end to end against the current API."""

import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(__file__), "..", "demos")


# demo_analytic_vs_sim (about 12 s) and demo_power_comparison (about 22 s)
# are left out to keep the suite's wall time down
@pytest.mark.parametrize("name", ["field_and_channel", "rach_collisions",
                                  "single_trial", "two_packets"])
def test_demo_runs(name, capsys):
    runpy.run_path(os.path.join(DEMOS, f"demo_{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
