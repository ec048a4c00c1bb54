"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s`. The heavy Monte Carlo
batches are session fixtures shared across criteria; every tolerance is fixed
here, none are tuned at runtime.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from omrsim.analytic import calibrate_progress, p_j_pmf, run_recursion
from omrsim.baseline import BclConfig, run_bcl
from omrsim.channel import PhyConfig, coverage_contour, detection_constant, power_sum
from omrsim.config import ExperimentSpec, dbm_to_watts
from omrsim.engine import RetransmitPolicy, rach_round, run_two_packet_trial
from omrsim.experiments import _fit_progress, run_omr_batch
from omrsim.field import FieldConfig, Point2D
from omrsim.metrics import edp_and_cost, point_e2e

from rach_oracle import j_distribution

pytestmark = pytest.mark.acceptance

GOLDEN_PHY = PhyConfig()          # 33 dBm, gamma_t 5 dB, tau 0.2, alpha 3
GOLDEN_FIELD = FieldConfig()      # rho 1500 km^-2, eps 0.25, L 2 km, w 200 m
GOLDEN_POLICY = RetransmitPolicy()
GOLDEN_B = 24
RHOS_KM2 = (900.0, 1200.0, 1500.0)


def _verdict(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    return ok


def _spec(trials: int, seed: int) -> ExperimentSpec:
    return ExperimentSpec(trials=trials, seed=seed, workers=0, b=GOLDEN_B)


def _batch(field, phy, trials, seed):
    return run_omr_batch(_spec(trials, seed), field, phy, trials, seed)


def _per_hop(batch, name):
    """One HopRecord field per hop over the delivered trials."""
    out = {}
    for b in batch:
        if not b.reached:
            continue
        for r in b.records:
            out.setdefault(r.hop, []).append(getattr(r, name))
    return out


def _k_formed(batch):
    """Relay-set size formed at each hop (transmitters of the next one)."""
    out = {}
    for b in batch:
        if not b.reached:
            continue
        for r in b.records:
            if r.hop >= 2:
                out.setdefault(r.hop - 1, []).append(r.k_prev)
    return out


@pytest.fixture(scope="session")
def golden_batches():
    """10^4 trials per density at the reference settings, plus wall time."""
    t0 = time.time()
    batches = {}
    for i, rho in enumerate(RHOS_KM2):
        field = replace(GOLDEN_FIELD, rho=rho * 1e-6)
        batches[rho] = _batch(field, GOLDEN_PHY, 10_000, 1000 + i)
    return batches, time.time() - t0


@pytest.fixture(scope="session")
def golden_model(golden_batches):
    """Progress-law fit from the rho = 1500 reference batch."""
    batches, _ = golden_batches
    spec = _spec(1, 0)
    u = detection_constant(GOLDEN_PHY).u
    ks, dxs = [], []
    for b in batches[1500.0]:
        if not b.reached:
            continue
        prev_x = None
        for r in b.records:
            if r.hop >= 2 and prev_x is not None and not math.isnan(r.xh0) \
                    and not math.isnan(prev_x):
                ks.append(r.k_prev)
                dxs.append(r.xh0 - prev_x)
            prev_x = r.xh0
    model, mape = calibrate_progress(np.asarray(ks, float),
                                     np.asarray(dxs, float), u, alpha=3.0)
    return model, mape


def test_criterion_1_rach_oracle_equivalence():
    t0 = time.time()
    n = 100_000
    worst = (0.0, None)
    formula_gaps = []
    for b in (3, 4, 5, 6):
        for k in range(1, 7):
            rng = np.random.default_rng(10 * b + k)
            js = rach_round(k, b, n, rng)[1]
            sim = np.bincount(js, minlength=k + 1) / n
            exact = j_distribution(b, k)
            for jv in range(k + 1):
                p = exact[jv]
                tol = 3.0 * math.sqrt(max(p * (1.0 - p), 1e-12) / n)
                dev = abs(sim[jv] - p)
                if dev - tol > worst[0]:
                    worst = (dev - tol, (b, k, jv, dev, tol))
                assert dev <= tol, (b, k, jv, sim[jv], p, tol)
            formula_gaps.append((b, k, float(np.abs(p_j_pmf(k, b) - exact).max()),
                                 0.5 * float(np.abs(p_j_pmf(k, b) - exact).sum())))
    elapsed = time.time() - t0
    gap_max = max(g[2] for g in formula_gaps)
    gap_at = [g for g in formula_gaps if g[2] == gap_max][0]
    ok = elapsed < 60.0
    detail = (f"sim-vs-enumeration within 3 sigma for all B in 3..6, K in 1..6 "
              f"({elapsed:.1f} s); closed-form pmf deviation reported: max "
              f"|dp| = {gap_max:.3f} at B={gap_at[0]}, K={gap_at[1]} "
              f"(TV = {gap_at[3]:.3f}) - known semantics gap, see ledger "
              f"docs/decisions.md entry C1-PJ")
    assert _verdict("criterion 1 (RACH oracle equivalence)", ok, detail)


def test_criterion_2_first_hop_geometry():
    u = detection_constant(GOLDEN_PHY).u
    alpha = GOLDEN_PHY.alpha
    r1 = coverage_contour([0.0], [0.0], [0], u, alpha)[0]
    err_r1 = abs(r1 - u ** (-1.0 / alpha)) / u ** (-1.0 / alpha)

    rng = np.random.default_rng(2)
    err_h = 0.0
    for _ in range(40):
        k = int(rng.integers(1, 9))
        relays = np.column_stack([rng.uniform(0, 200, k),
                                  rng.uniform(-100, 100, k)])
        y = float(rng.uniform(-90, 90))
        x = coverage_contour(relays[:, 0], relays[:, 1] - y, [0], u, alpha)[0]
        if math.isnan(x):
            continue
        h = power_sum(x, y, relays[:, 0], relays[:, 1], alpha)
        err_h = max(err_h, abs(h - u) / u)

    err_co = 0.0
    for k in (2, 4, 7, 10):
        for y in (0.0, 35.0):
            x = coverage_contour([50.0] * k, [20.0 - y] * k, [0], u, alpha)[0]
            expect = 50.0 + math.sqrt((k / u) ** (2 / alpha) - (y - 20.0) ** 2)
            err_co = max(err_co, abs(x - expect) / expect)

    ok = err_r1 <= 1e-9 and err_h <= 1e-9 and err_co <= 1e-9
    assert _verdict(
        "criterion 2 (first-hop geometry)", ok,
        f"x_H1(0) rel err {err_r1:.1e}, contour H=U rel err {err_h:.1e}, "
        f"co-located closed form rel err {err_co:.1e} (tolerance 1e-9)")


def test_criterion_3_delay_spread(golden_batches):
    batches, elapsed = golden_batches
    stats = {}
    for rho, batch in batches.items():
        spreads = np.asarray([b.delay_spread_s for b in batch if b.reached])
        stats[rho] = (float(spreads.mean()), float(spreads.std()))
    mean15, std15 = stats[1500.0]
    means = [stats[r][0] for r in RHOS_KM2]
    stds = [stats[r][1] for r in RHOS_KM2]
    var_mean = (max(means) - min(means)) / np.mean(means)
    var_std = (max(stds) - min(stds)) / np.mean(stds)

    in_window = 1.5e-6 <= mean15 <= 2.5e-6
    ok_sigma = std15 <= 0.5e-6
    ok_rho = var_mean < 0.20 and var_std < 0.20
    ok_time = elapsed < 600.0
    window_note = "ok" if in_window else (
        "OUTSIDE - see ledger docs/decisions.md entry C3-WINDOW: the "
        "first-arrival recursion is self-compensating at this geometry")
    per_rho = ", ".join(f"{r:.0f}: {stats[r][0] * 1e6:.3f}/{stats[r][1] * 1e6:.3f}"
                        for r in RHOS_KM2)
    rho_note = "" if ok_rho else (
        " - see ledger docs/decisions.md entry C3-SIGMA-RHO")
    detail = (f"mean {mean15 * 1e6:.3f} us (window [1.5, 2.5] us: "
              f"{window_note}), sigma {std15 * 1e6:.3f} us (<= 0.5), density "
              f"variation mean {var_mean * 100:.1f}% / sigma "
              f"{var_std * 100:.1f}% (< 20%){rho_note}; per density km^-2 "
              f"mean/sigma us {per_rho}; {elapsed:.0f} s (< 600)")
    ok = in_window and ok_sigma and ok_rho and ok_time
    assert _verdict("criterion 3 (delay spread)", ok, detail)


def test_criterion_4_linear_progress(golden_model):
    model, mape_mc = golden_model
    u = detection_constant(GOLDEN_PHY).u
    r1 = u ** (-1.0 / 3.0)
    k = np.repeat(np.arange(1, 11), 25)
    dx = r1 * (k ** (1.0 / 3.0) - 1.0)
    _, mape_co = calibrate_progress(k, dx, u, alpha=3.0)
    ok = mape_mc <= 0.10 and mape_co <= 0.055
    assert _verdict(
        "criterion 4 (linear progress)", ok,
        f"Monte Carlo fit MAPE {mape_mc * 100:.2f}% (<= 10%), co-located law "
        f"MAPE {mape_co * 100:.2f}% (<= 5.5%), varphi = {model.varphi:.2f} m, "
        f"beta = {model.beta:.3f}")


def test_criterion_5_retransmissions(golden_batches, golden_model):
    batches, _ = golden_batches

    # agreement at the reference settings, hops 2..q: retransmissions there
    # are rare, so each hop is accepted within 15% of the recursion value or
    # within the exact Poisson resolution of the trial count
    model, _ = golden_model
    stats = run_recursion(GOLDEN_FIELD, model, GOLDEN_B)
    ana = {r.hop: r.e_nr for r in stats.rows}
    mc_events: dict[int, list] = {}
    for b in batches[1500.0]:
        for r in b.records:
            mc_events.setdefault(r.hop, []).append(r.n_r)
    hops = [h for h in sorted(set(ana) & set(mc_events)) if h >= 2]
    agree = []
    for h in hops:
        vals = np.asarray(mc_events[h], float)
        lam = ana[h] * vals.size
        band = max(0.15 * lam, 3.0 * math.sqrt(lam) + 3.0)
        agree.append(abs(vals.sum() - lam) <= band)
    ok_agree = all(agree) and len(hops) >= 5

    # the informative regime: at the sweep's measurable low end the model's
    # axial geometry under-predicts; reported, not asserted (see
    # docs/decisions.md entry C5-AXIAL)
    phy_low = GOLDEN_PHY.with_tx_power(dbm_to_watts(24.0))
    batch_low = run_omr_batch(_spec(4000, 51), GOLDEN_FIELD, phy_low, 4000,
                              51)
    model_low, _ = _fit_progress(batch_low, phy_low)
    ana_low = {r.hop: r.e_nr
               for r in run_recursion(GOLDEN_FIELD, model_low, GOLDEN_B).rows}
    nr_low: dict[int, list] = {}
    for b in batch_low:
        for r in b.records:
            nr_low.setdefault(r.hop, []).append(r.n_r)
    low_ratio = np.mean([ana_low[h] / np.mean(nr_low[h])
                         for h in (3, 4, 5, 6) if h in ana_low and h in nr_low])

    # strict decrease with density, evaluated at a power where every density
    # actually retransmits (at full power the counts are all zero)
    def agg(batch):
        per = _per_hop(batch, "n_r")
        return float(np.mean([np.mean(per[h]) for h in (2, 3, 4, 5)
                              if h in per]))

    phy_27 = GOLDEN_PHY.with_tx_power(dbm_to_watts(27.0))
    mc_rho, ana_rho = [], []
    for i, rho in enumerate(RHOS_KM2):
        field = replace(GOLDEN_FIELD, rho=rho * 1e-6)
        bt = run_omr_batch(_spec(2500, 60 + i), field, phy_27, 2500, 60 + i)
        m, _ = _fit_progress(bt, phy_27)
        mc_rho.append(agg(bt))
        rows = run_recursion(field, m, GOLDEN_B).rows
        ana_rho.append(float(np.mean([r.e_nr for r in rows[1:5]])))
    ok_rho = all(a > b for a, b in zip(mc_rho, mc_rho[1:])) \
        and all(a > b for a, b in zip(ana_rho, ana_rho[1:]))

    # strict decrease over a 6 dB power sweep at rho = 1500
    mc_pow, ana_pow = [], []
    for j, pdbm in enumerate((24.0, 27.0, 30.0)):
        phy = GOLDEN_PHY.with_tx_power(dbm_to_watts(pdbm))
        bt = run_omr_batch(_spec(4000, 70 + j), GOLDEN_FIELD, phy, 4000,
                           70 + j)
        m, _ = _fit_progress(bt, phy)
        per = _per_hop(bt, "n_r")
        mc_pow.append(float(np.mean([np.mean(per[h]) for h in (2, 3, 4, 5)
                                     if h in per])))
        rows = run_recursion(GOLDEN_FIELD, m, GOLDEN_B).rows
        ana_pow.append(float(np.mean([r.e_nr for r in rows[1:5]])))
    ok_pow = all(a > b for a, b in zip(mc_pow, mc_pow[1:])) \
        and all(a > b for a, b in zip(ana_pow, ana_pow[1:]))

    ok = ok_agree and ok_rho and ok_pow
    detail = (f"per-hop agreement at reference settings, hops "
              f"{hops[0]}..{hops[-1]} (15% or Poisson resolution): "
              f"{sum(agree)}/{len(agree)}; density trend at 27 dBm "
              f"mc={['%.4f' % v for v in mc_rho]} ana={['%.4f' % v for v in ana_rho]}; "
              f"power trend (24/27/30 dBm) mc={['%.4f' % v for v in mc_pow]} "
              f"ana={['%.4f' % v for v in ana_pow]}; diagnostic: at 24 dBm "
              f"the recursion gives {low_ratio:.2f}x the simulated per-hop "
              f"count (axial-geometry bias, see ledger docs/decisions.md "
              f"entry C5-AXIAL)")
    assert _verdict("criterion 5 (retransmissions)", ok, detail)


def test_criterion_6_analytic_vs_simulation(golden_batches, golden_model):
    batches, _ = golden_batches
    model, _ = golden_model
    stats = run_recursion(GOLDEN_FIELD, model, GOLDEN_B)
    k_mc = _k_formed(batches[1500.0])
    l_mc = _per_hop(batches[1500.0], "l")
    k_ratios, l_ratios = [], []
    for h in range(1, 6):
        row = stats.rows[h - 1]
        k_ratios.append(row.e_k / np.mean(k_mc[h]))
        l_ratios.append(row.e_l / np.mean(l_mc[h]))
    ok_k = all(abs(r - 1.0) <= 0.15 for r in k_ratios)
    ok_l = all(abs(r - 1.0) <= 0.15 for r in l_ratios)
    l_note = "" if ok_l else (
        " - expected gap, see ledger docs/decisions.md entry C6-EL: the "
        "strip-band decoder model excludes the out-of-strip and re-awakened "
        "populations the simulator detects")
    detail = (f"E[K] recursion/simulation hops 1..5: "
              f"{['%.3f' % r for r in k_ratios]} (within 15%: {ok_k}); "
              f"E[L] ratios: {['%.3f' % r for r in l_ratios]} (within 15%: "
              f"{ok_l}{l_note})")
    assert _verdict("criterion 6 (analytic vs simulation)", ok_k and ok_l,
                    detail)


def test_criterion_7_headline_comparison():
    t0 = time.time()
    powers = (24.0, 25.5, 27.0, 28.5, 30.0, 31.5, 33.0)
    trials = 1000
    minima = {}
    curves = {}
    for i, rho in enumerate(RHOS_KM2):
        field = replace(GOLDEN_FIELD, rho=rho * 1e-6)
        bcl = run_bcl(BclConfig(), field, GOLDEN_PHY, trials=200,
                      seed=800 + i)
        _, cost_b = edp_and_cost(bcl.e2e_energy_j, bcl.e2e_delay_s,
                                 GOLDEN_PHY.r, GOLDEN_PHY.t_p)
        curve = []
        for pdbm in powers:
            phy = GOLDEN_PHY.with_tx_power(dbm_to_watts(pdbm))
            batch = _batch(field, phy, trials, 900 + int(10 * pdbm) + i)
            _, cost_o = edp_and_cost(*point_e2e(batch, phy), phy.r, phy.t_p)
            curve.append(cost_o / cost_b)
        curves[rho] = curve
        minima[rho] = min(curve)

    ok_min = all(minima[r] <= 0.75 for r in RHOS_KM2)
    # U shape: both sweep ends sit above each curve's minimum
    ok_u = all(c[0] > min(c) + 0.01 and c[-1] > min(c) + 0.01
               for c in curves.values())
    vals = [minima[r] for r in RHOS_KM2]
    ok_density = max(vals) - min(vals) < 0.15
    elapsed = time.time() - t0
    ok = ok_min and ok_u and ok_density and elapsed < 1800.0
    detail = (f"minima {['%.3f' % minima[r] for r in RHOS_KM2]} (<= 0.75), "
              f"U-shape at all densities: {ok_u}, pairwise minima span "
              f"{max(vals) - min(vals):.3f} (< 0.15), {elapsed:.0f} s "
              f"(< 1800); curves at 24 dBm "
              f"{['%.2f' % curves[r][0] for r in RHOS_KM2]}")
    assert _verdict("criterion 7 (headline comparison)", ok, detail)


def test_criterion_8_property_suites(tmp_path):
    t0 = time.time()
    # Poisson moments of the deployment
    from omrsim.field import deploy

    cfg = FieldConfig(rho=5e-4, length=500.0, w=200.0, field_margin=0.0)
    counts = np.array([deploy(cfg, s, t_p=0.01).n for s in range(10_000)])
    lam = 50.0
    ok_poisson = (abs(counts.mean() - lam) < 3 * math.sqrt(lam / counts.size)
                  and abs(counts.var(ddof=1) - lam)
                  < 3 * math.sqrt((lam * (1 + 3 * lam)
                                   - lam * lam * (counts.size - 3)
                                   / (counts.size - 1)) / counts.size))

    # distribution normalization and convolution mean additivity
    from omrsim.analytic import ProgressModel, poisson_mixture

    a, b = (poisson_mixture(np.array([m]), np.ones(1)) for m in (3.3, 1.7))
    c = a.convolve(b)
    c.check_normalized()
    # truncation renormalizes, so means match to the tail tolerance scale
    ok_conv = abs(c.mean() - (a.mean() + b.mean())) < 1e-6 * c.mean()
    model = ProgressModel(varphi=8.0, beta=0.9, u=(1 / 113.0) ** 3, alpha=3.0)
    rec = run_recursion(FieldConfig(), model, GOLDEN_B)
    ok_norm = True
    for d in rec.dists_k + rec.dists_l:
        try:
            d.check_normalized()
        except Exception:
            ok_norm = False

    # formula affinity by second differences
    from omrsim.metrics import hop_energy

    vals = [hop_energy(10.0 + s, 4.0, 0.1, GOLDEN_PHY) for s in (0, 1, 2)]
    ok_affine = abs((vals[2] - vals[1]) - (vals[1] - vals[0])) < 1e-12

    # determinism byte-equality of a small pipeline run
    import filecmp

    from omrsim.experiments import run as run_scenario

    sa = ExperimentSpec(scenario="omr-trials", trials=3, seed=5,
                        out_dir=str(tmp_path / "a"), workers=1)
    sb = ExperimentSpec(scenario="omr-trials", trials=3, seed=5,
                        out_dir=str(tmp_path / "b"), workers=1)
    run_scenario(sa)
    run_scenario(sb)
    ok_det = filecmp.cmp(tmp_path / "a" / "omr_trace.csv",
                         tmp_path / "b" / "omr_trace.csv", shallow=False)

    elapsed = time.time() - t0
    ok = (ok_poisson and ok_conv and ok_norm and ok_affine and ok_det
          and elapsed < 300.0)
    assert _verdict(
        "criterion 8 (property suites)", ok,
        f"poisson moments {ok_poisson}, convolution means {ok_conv}, "
        f"normalization {ok_norm}, affinity {ok_affine}, determinism "
        f"{ok_det}, {elapsed:.0f} s (< 300)")


def test_criterion_9_two_packet_demo():
    delivered = 0
    tagged = 0
    runs = 8
    for s in range(runs):
        res = run_two_packet_trial(
            GOLDEN_FIELD, GOLDEN_PHY, GOLDEN_POLICY, GOLDEN_B, 4400 + s,
            src_a=Point2D(0.0, 120.0), src_b=Point2D(0.0, -120.0))
        delivered += int(res.flow_a.reached) + int(res.flow_b.reached)
        tagged += res.interference_tagged
    ok = delivered == 2 * runs and tagged >= 1
    assert _verdict(
        "criterion 9 (two-packet demo)", ok,
        f"{delivered}/{2 * runs} deliveries over {runs} overlapping-strip "
        f"runs, {tagged} interference-tagged retransmissions (>= 1), "
        f"deadlock-free")
