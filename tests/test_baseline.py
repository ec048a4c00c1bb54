"""Contention baseline: cycle mechanics, energy/delay formulas, Monte Carlo walk."""

import math
import os
from functools import lru_cache

import numpy as np
import pytest

from omrsim import baseline
from omrsim.baseline import (
    BclConfig,
    CycleOutcome,
    bcl_walk,
    contention_cycle,
    hop_delay,
    hop_energy_rx,
    hop_energy_tx,
    run_bcl,
    xi_geometric,
)
from omrsim.channel import PhyConfig, detection_constant
from omrsim.config import load_config, mcs_phy
from omrsim.field import Deployment, FieldConfig

PHY = PhyConfig()
GOLDEN = os.path.join(os.path.dirname(__file__), "..", "configs", "golden.cfg")


def test_cycle_no_candidates():
    rng = np.random.default_rng(0)
    assert contention_cycle(np.array([]), 4, 100.0, rng) is None


def test_cycle_single_candidate():
    rng = np.random.default_rng(0)
    out = contention_cycle(np.array([37.0]), 4, 100.0, rng)
    assert out.m_n == 1
    assert out.winner_index == 0
    # progress 37/100 with 4 slots lands in band floor(0.63*4) = 2
    assert out.m_e == 2


def test_cycle_best_band_wins():
    rng = np.random.default_rng(1)
    out = contention_cycle(np.array([90.0, 40.0, 15.0]), 4, 100.0, rng)
    assert out.m_e == 0            # 90/100 -> band 0
    assert out.m_n == 1            # sole occupant of the first band
    assert out.winner_index == 0


@lru_cache(maxsize=None)
def _expected_resolution_slots(c: int, n_p: int) -> float:
    """Exact E[m_n] for c colliders under uniform re-splitting.

    A re-split can reproduce the full collider set, so the expectation is
    solved algebraically: E[R(c)] (1 - P[c -> c]) = 1 + sum_{c' < c} P[c -> c']
    E[R(c')], with the first-occupied-slot group distribution enumerated over
    all split^c assignments. m_n = 1 + E[R(c)].
    """
    if c == 1:
        return 1.0
    split = max(n_p, 2)
    group_counts = np.zeros(c + 1)
    for assignment in np.ndindex(*([split] * c)):
        arr = np.array(assignment)
        group_counts[int((arr == arr.min()).sum())] += 1
    p_group = group_counts / split ** c
    expect_r = 1.0
    for cp in range(2, c):
        expect_r += p_group[cp] * (_expected_resolution_slots(cp, n_p) - 1.0)
    expect_r /= (1.0 - p_group[c])
    return 1.0 + expect_r


def test_cycle_resolution_matches_enumeration():
    # all candidates in one progress band, so every cycle starts collided
    for c in (2, 3, 4):
        for n_p in (2, 4):
            rng = np.random.default_rng(100 * c + n_p)
            sims = []
            prog = np.full(c, 99.0)
            for _ in range(4000):
                sims.append(contention_cycle(prog, n_p, 100.0, rng).m_n)
            got = np.mean(sims)
            expect = _expected_resolution_slots(c, n_p)
            se = np.std(sims) / math.sqrt(len(sims))
            assert abs(got - expect) < 3.0 * se, (c, n_p, got, expect)


def test_cycle_np1_still_resolves():
    rng = np.random.default_rng(3)
    out = contention_cycle(np.array([50.0, 60.0, 70.0]), 1, 100.0, rng)
    assert out is not None and out.m_n >= 2


def test_cycle_mean_mn_grows_with_candidates():
    rng = np.random.default_rng(4)
    means = []
    for c in (2, 4, 8):
        vals = [contention_cycle(np.full(c, 99.0), 1, 100.0, rng).m_n
                for _ in range(3000)]
        means.append(np.mean(vals))
    assert means[0] < means[1] < means[2]


def test_xi_geometric_limits():
    assert xi_geometric(50.0, 100.0) == 1.0
    assert xi_geometric(1e7, 100.0) == pytest.approx(0.5, abs=1e-3)
    # Monte Carlo hit-count check at a moderate separation
    d, r = 300.0, 100.0
    rng = np.random.default_rng(5)
    pts = rng.uniform(-r, r, size=(200_000, 2))
    inside = (pts ** 2).sum(axis=1) <= r * r
    closer = (pts[:, 0] - d) ** 2 + pts[:, 1] ** 2 < d * d
    frac = (inside & closer).sum() / inside.sum()
    assert xi_geometric(d, r) == pytest.approx(frac, abs=0.01)


def test_hop_energy_tx_collapse():
    # all expectations zero except E[m_n] = 1, xi = 0:
    # P_t T_s (5 N_s + eps rho pi d^2 + 1) / N_s
    cfg = BclConfig(t_s=2e-3, n_p=4)
    eps, rho, d_m = 0.25, 1.5e-3, 100.0
    got = hop_energy_tx(0.0, 0.0, 1.0, cfg, PHY, eps, rho, d_m, xi=0.0)
    pool = eps * rho * math.pi * d_m * d_m
    expect = PHY.p_t * cfg.t_s * (5 * PHY.n_s + pool + 1) / PHY.n_s
    assert got == pytest.approx(expect, rel=1e-12)


def test_hop_energy_tx_dual_evaluation():
    # independent re-derivation: accumulate the terms in a different order
    cfg = BclConfig(t_s=1.5e-3, n_p=6)
    eps, rho, d_m, xi = 0.25, 1.2e-3, 90.0, 0.37
    e_eta, e_me, e_mn = 0.41, 1.7, 2.2
    got = hop_energy_tx(e_eta, e_me, e_mn, cfg, PHY, eps, rho, d_m, xi)
    pool = eps * rho * math.pi * d_m ** 2
    terms = [
        (e_me + 5 + e_eta * cfg.n_p),                       # full-band slots
        (1 + 2 * e_me * xi) * pool / PHY.n_s,
        1 / PHY.n_s,
        e_me / PHY.n_s,
        e_eta * cfg.n_p / PHY.n_s,
        xi * pool / cfg.n_p,
        (2 + 3 * PHY.n_s) * (e_mn - 1) / PHY.n_s,
    ]
    expect = PHY.p_t * cfg.t_s * sum(sorted(terms))
    assert got == pytest.approx(expect, rel=1e-12)


def test_hop_energy_rx_dual_evaluation():
    cfg = BclConfig(t_s=1.5e-3, n_p=6)
    eps, rho, d_m, xi = 0.25, 1.2e-3, 90.0, 0.37
    e_eta, e_me, e_mn = 0.41, 1.7, 2.2
    got = hop_energy_rx(e_eta, e_me, e_mn, cfg, PHY, eps, rho, d_m, xi)
    pool = eps * rho * math.pi * d_m ** 2
    expect = PHY.p_rx * cfg.t_s * sum(
        [pool, 2 * xi * e_me * pool, 2.0, e_me, e_eta * cfg.n_p,
         3 * (e_mn - 1)])
    assert got == pytest.approx(expect, rel=1e-12)


def test_hop_energy_linear_in_power():
    cfg = BclConfig()
    args = (0.3, 1.1, 1.8, cfg)
    double = PHY.with_tx_power(2 * PHY.p_t)
    a = hop_energy_tx(*args, PHY, 0.25, 1e-3, 80.0, 0.5)
    b = hop_energy_tx(*args, double, 0.25, 1e-3, 80.0, 0.5)
    assert b == pytest.approx(2 * a, rel=1e-12)


def test_hop_energy_affine_in_expectations():
    cfg = BclConfig()
    base = (0.4, 1.2, 1.9)
    for idx in range(3):
        vals = []
        for step in (0.0, 1.0, 2.0):
            e = list(base)
            e[idx] += step
            vals.append(hop_energy_tx(*e, cfg, PHY, 0.25, 1e-3, 80.0, 0.5)
                        + hop_energy_rx(*e, cfg, PHY, 0.25, 1e-3, 80.0, 0.5))
        assert vals[2] - vals[1] == pytest.approx(vals[1] - vals[0], rel=1e-9)


def test_hop_delay_arithmetic():
    cfg = BclConfig(t_s=1e-3, n_p=4)
    assert hop_delay(0.0, 0.0, cfg) == 0.0
    assert hop_delay(1.0, 2.0, cfg) == pytest.approx(12e-3, rel=1e-12)
    cfg2 = BclConfig(t_s=2e-3, n_p=4)
    assert hop_delay(1.0, 2.0, cfg2) == pytest.approx(24e-3, rel=1e-12)


def test_run_bcl_dense_no_empty_cycles():
    fc = FieldConfig(rho=3e-3, epsilon=1.0, length=1000.0, w=200.0)
    res = run_bcl(BclConfig(), fc, PHY, trials=30, seed=2)
    assert res.delivered == 30
    assert res.e_eta == pytest.approx(0.0, abs=1e-6)
    d_m = detection_constant(PHY).single_relay_radius
    assert all(p <= d_m + 1e-9 for *_ , p in res.per_hop)


def test_run_bcl_first_hop_eta_matches_geometric_oracle():
    # sparse candidates: hop-1 forward lens is deterministic, wake draws are
    # i.i.d. per cycle, so eta | N follows a geometric law; average the oracle
    # over the Poisson candidate count conditioned on N >= 1
    fc = FieldConfig(rho=3.2e-4, epsilon=0.25, length=150.0, w=200.0)
    # the range comes from the PHY: scale p_t so the reach is 100 m
    d_m = detection_constant(PHY).single_relay_radius
    phy = PHY.with_tx_power(PHY.p_t * (100.0 / d_m) ** PHY.alpha)
    assert detection_constant(phy).single_relay_radius == pytest.approx(
        100.0, rel=1e-12)
    lam = fc.rho * xi_geometric(fc.length, 100.0) * math.pi * 100.0 ** 2
    from scipy.stats import poisson

    ns = np.arange(1, 60)
    pn = poisson.pmf(ns, lam)
    p_empty = (1 - fc.epsilon) ** ns
    oracle = float((pn * p_empty / (1 - p_empty)).sum() / pn.sum())

    res = run_bcl(BclConfig(), fc, phy, trials=1500, seed=3)
    first = [row[2] for row in res.per_hop if row[1] == 1]
    got = np.mean(first)
    se = np.std(first) / math.sqrt(len(first))
    assert abs(got - oracle) < 3.0 * se


def test_run_bcl_deadlock_reported():
    fc = FieldConfig(rho=1e-7, length=2000.0)
    res = run_bcl(BclConfig(), fc, PHY, trials=10, seed=5)
    assert res.delivered < 10


def test_holder_is_never_its_own_candidate():
    # the sparse QPSK-coherent reference of tools/check_identity.py, where
    # a holder whose distance to the destination was taken by a second rule
    # could pass as its own forward candidate and forward to itself
    spec = load_config(GOLDEN)
    field = FieldConfig(rho=900e-6)
    phy = mcs_phy(spec, "QPSK-coherent")
    d_m = detection_constant(phy).single_relay_radius
    max_hops = int(20.0 * field.length / d_m) + 100
    walks = [bcl_walk(BclConfig(), field, phy, tss)
             for tss in np.random.SeedSequence(5).spawn(100)]
    for walk in walks:
        assert len(walk.hops) < max_hops
        forward = walk.hops[:-1] if walk.delivered else walk.hops
        # a hop to itself gains only the rounding of its own distance,
        # about 1e-13 m; a hop to another node gains millimetres at least
        assert all(progress > 1e-6 for *_, progress in forward)


def test_walk_stops_where_no_node_lies_ahead(monkeypatch):
    # one node, in reach of the source, with nothing ahead of it in reach:
    # the walk takes one hop and ends there as a structural deadlock. At
    # (50, 0.4) np.linalg.norm puts the node one ulp farther from the
    # destination than np.hypot does.
    field = FieldConfig(epsilon=1.0)

    def one_node(cfg, seed, t_p, max_strip_width):
        return Deployment(np.array([50.0]), np.array([0.4]), np.zeros(1),
                          cfg, (-100.0, 2100.0, -400.0, 400.0))

    monkeypatch.setattr(baseline, "deploy", one_node)
    walk = bcl_walk(BclConfig(), field, PHY, np.random.SeedSequence(0))
    assert not walk.delivered
    assert [row[4] for row in walk.hops] == [2000.0 - np.hypot(1950.0, 0.4)]


def test_bcl_config_validation():
    with pytest.raises(ValueError):
        BclConfig(n_p=0)
