"""The trial trace and the hop recursion are pinned: the first reference
trials of each power level reproduce their recorded outputs under
configs/golden.cfg, and so do the rows of both reference recursion inputs.

The references live in perfbench/reference/ and are only read here. Integer
fields must match exactly; trial floats within 1e-9 relative, as the
benchmark checks them, and recursion rows within 1e-12 relative.

The benchmark's span tracer rebinds omrsim names; a traced trial pins them.
"""

import json
import math
import os
import sys

import numpy as np
import pytest

import omrsim
import omrsim.cli  # the tracer wraps names in every module the benchmark loads
import omrsim.experiments
from omrsim.analytic import ProgressModel, run_recursion
from omrsim.channel import detection_constant
from omrsim.config import dbm_to_watts, load_config
from omrsim.engine import run_trial
from omrsim.field import FieldConfig
from omrsim.metrics import trial_e2e

ROOT = os.path.join(os.path.dirname(__file__), "..")
GOLDEN = os.path.join(ROOT, "configs", "golden.cfg")
TRIALS = 8
EXACT_HOP_FIELDS = ("hop", "k_prev", "l", "j_prev", "n_r", "k")
REL_TOL = 1e-9
RECURSION_REL_TOL = 1e-12


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _recursion_input(label: str):
    """(field, model, b) of a reference recursion input."""
    if label == "golden":
        # progress law phi = 8 m, beta = 0.9 at the golden PHY's reach
        spec = load_config(GOLDEN)
        model = ProgressModel(varphi=8.0, beta=0.9,
                              u=detection_constant(spec.phy).u,
                              alpha=spec.phy.alpha)
        return spec.field, model, spec.b
    field = FieldConfig(rho=1.5e-3, epsilon=0.25, length=2000.0, w=200.0)
    model = ProgressModel(varphi=8.0, beta=0.9, u=(1 / 75.0) ** 3, alpha=3.0)
    return field, model, 16


@pytest.mark.parametrize("label,hops", [("golden", 9), ("r75-b16", 11)])
def test_reference_recursion_reproduces(label, hops):
    path = os.path.join(ROOT, "perfbench", "reference", "recursion.json")
    with open(path, encoding="utf-8") as fh:
        want = json.load(fh)[label]
    stats = run_recursion(*_recursion_input(label))
    got = [[r.hop, r.e_k, r.e_l, r.e_nr, r.xh0] for r in stats.rows]
    assert len(want) == hops
    assert [g[0] for g in got] == [w[0] for w in want]
    for g, w in zip(got, want):
        for a, b in zip(g[1:], w[1:]):
            assert math.isclose(a, b, rel_tol=RECURSION_REL_TOL,
                                abs_tol=0.0), (label, g[0], a, b)


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


def test_tracer_installs_and_counts_one_contour_solve_per_trial(monkeypatch):
    # perfbench/tracing.py rebinds omrsim attributes by name; deleting one
    # it pins breaks the traced benchmark run, and this test
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    from tracing import Tracer

    spec = load_config(GOLDEN)
    tracer = Tracer()
    tracer.install(omrsim)
    try:
        res = omrsim.engine.run_trial(spec.field, spec.phy, spec.policy,
                                      spec.b, 7)
    finally:
        tracer.remove()
    calls = tracer.totals()["calls"]
    assert calls["engine.run_trial"] == 1
    assert calls["channel.coverage_contour"] == 1
    # one RACH draw per attempt after the source's hop
    assert calls["engine.rach_round"] \
        == sum(1 + r.n_r for r in res.records if r.hop >= 2) > 0


def test_tracer_counts_one_decode_set_per_attempt(monkeypatch):
    # the hop step's boundary: each transmission attempt, retransmissions
    # included, makes one decode_set call; per-attempt benchmark figures
    # divide by that count
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    from tracing import Tracer

    spec = load_config(GOLDEN)
    phy = spec.phy.with_tx_power(dbm_to_watts(24.0))
    tracer = Tracer()
    tracer.install(omrsim)
    try:
        records = []
        for seed in range(4):
            records += omrsim.engine.run_trial(spec.field, phy, spec.policy,
                                               spec.b, seed).records
    finally:
        tracer.remove()
    attempts = sum(1 + r.n_r for r in records)
    assert attempts > len(records)  # some attempts were retransmissions
    assert tracer.totals()["calls"]["engine.decode_set"] == attempts


def test_tracer_keeps_recursion_rows_and_finds_brentq(monkeypatch):
    # the tracer wraps analytic._poisson and rebinds channel.brentq, which
    # omrsim provides without importing scipy.stats or scipy.optimize itself
    from scipy.optimize import brentq

    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    from tracing import Tracer

    inputs = _recursion_input("golden")
    want = run_recursion(*inputs).rows
    tracer = Tracer()
    tracer.install(omrsim)
    try:
        assert omrsim.channel.brentq.__wrapped__ is brentq
        got = omrsim.analytic.run_recursion(*inputs).rows
    finally:
        tracer.remove()
    assert got == want
    assert tracer.totals()["calls"]["analytic.run_recursion"] == 1
