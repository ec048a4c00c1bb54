"""The trial trace is pinned: the first reference trials of each power level
reproduce their recorded outputs under configs/golden.cfg.

The references live in perfbench/reference/ and are only read here. Integer
fields must match exactly; floats within 1e-9 relative, as the benchmark
checks them.
"""

import math
import os

import numpy as np
import pytest

from omrsim.config import dbm_to_watts, load_config
from omrsim.engine import run_trial
from omrsim.metrics import trial_e2e

ROOT = os.path.join(os.path.dirname(__file__), "..")
GOLDEN = os.path.join(ROOT, "configs", "golden.cfg")
TRIALS = 8
EXACT_HOP_FIELDS = ("hop", "k_prev", "l", "j_prev", "n_r", "k")
REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


@pytest.mark.parametrize("p_t_dbm", [24, 33])
def test_reference_trials_reproduce(p_t_dbm):
    spec = load_config(GOLDEN)
    phy = spec.phy.with_tx_power(dbm_to_watts(float(p_t_dbm)))
    path = os.path.join(ROOT, "perfbench", "reference",
                        f"trials-{p_t_dbm}dBm.npz")
    with np.load(path) as ref:
        ref = {k: ref[k] for k in ref.files}
    for p in range(TRIALS):
        seed = int(ref["seeds"][p])
        res = run_trial(spec.field, phy, spec.policy, spec.b, seed)
        energy, delay = trial_e2e(res.records, phy)
        lo, hi = ref["offsets"][p], ref["offsets"][p + 1]
        for f in EXACT_HOP_FIELDS:
            assert [getattr(r, f) for r in res.records] \
                == ref[f][lo:hi].tolist(), (seed, f)
        assert res.reached == bool(ref["reached"][p]), seed
        assert res.q == int(ref["q"][p]), seed
        floats = list(zip([r.xh0 for r in res.records], ref["xh0"][lo:hi]))
        floats += [(res.delay_spread_s, ref["delay_spread_s"][p]),
                   (energy, ref["energy_j"][p]), (delay, ref["delay_s"][p])]
        assert all(_close(a, float(b)) for a, b in floats), seed
