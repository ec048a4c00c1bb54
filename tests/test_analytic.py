"""Statistical engine: pmf formulas vs enumeration, areas vs hit-count, recursion."""

import math
import os
import warnings

import numpy as np
import pytest
from scipy.special import gammaln, xlogy
from scipy.stats import poisson

from omrsim import analytic
from omrsim.analytic import (
    _MIX_CHUNK,
    TAIL_TOL,
    CalibrationError,
    IntDist,
    ProgressModel,
    TruncationError,
    _p_z_prefix,
    areas,
    calibrate_progress,
    first_hop_areas,
    init_recursion,
    p_j,
    p_j_pmf,
    poisson_mixture,
    propagate_hop,
    run_recursion,
    x_c,
    x_h_step,
)
from omrsim.channel import detection_constant
from omrsim.config import load_config
from omrsim.field import FieldConfig

from rach_oracle import j_distribution, prefix_resolvable_probability

U_TEST = 2.3e-5  # gives r1 ~ 35 m; exact value irrelevant to the formulas


# ---------------------------------------------------------------- p_z / p_j

def test_p_z_branches():
    assert _p_z_prefix(1, 8, 1) == [1.0]            # empty exponent
    assert _p_z_prefix(2, 2, 1) == [0.5]            # ((b-1)/b)^(k-1)
    assert _p_z_prefix(4, 8, 7)[-1] == 0.0          # z >= b-1
    # recursion term by term
    b, k = 6, 5
    expect = ((b - 1) / b) ** (k - 1)
    for z in range(2, 4):
        expect *= ((b - z) / (b - z + 1)) ** (k - z)
    assert _p_z_prefix(k, b, 3)[-1] == pytest.approx(expect, rel=1e-12)


def test_p_z_non_increasing_in_z():
    for b, k in [(6, 4), (8, 8), (12, 10)]:
        vals = _p_z_prefix(k, b, b - 1)
        assert all(a >= v - 1e-15 for a, v in zip(vals, vals[1:]))


def test_p_z_prefix_semantics_vs_enumeration():
    # the recursion tracks "the first z relays are each resolvable", not
    # "exactly z resolvable": quantify both against enumeration at b=2, k=2
    exact_prefix = prefix_resolvable_probability(2, 2, 1)
    assert _p_z_prefix(2, 2, 1)[0] == pytest.approx(exact_prefix)  # 0.5


def test_p_j_first_branch():
    for b, k in [(4, 3), (8, 5), (16, 12)]:
        assert p_j(1, k, b) == pytest.approx(((b - 1) / b) ** (k - 1), rel=1e-12)


def test_p_j_single_relay():
    assert p_j(1, 1, 8) == 1.0
    assert p_j(0, 1, 8) == 0.0


def test_p_j_rejects_out_of_range_counts():
    with pytest.raises(ValueError, match="relay count k must be >= 1"):
        p_j_pmf(0, 8)
    with pytest.raises(ValueError, match=r"j must be in \[0, 2\]"):
        p_j(3, 2, 8)


def test_p_j_pmf_normalized_and_monotonicity():
    for b in (3, 4, 8, 16):
        for k in (1, 2, 5, 9):
            pmf = p_j_pmf(k, b)
            assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
            assert (pmf >= 0).all()
    # closed-form j=1 weight is non-decreasing in b, non-increasing in k
    assert p_j(1, 5, 12) > p_j(1, 5, 6)
    assert p_j(1, 8, 12) < p_j(1, 4, 12)


def test_p_j_vs_enumeration_b3_k2():
    # the formula's known semantics gap: it moves the all-collided mass onto
    # j=2 at b=3, k=2 (truth: p = [1/3, 2/3, 0])
    exact = j_distribution(3, 2)
    formula = p_j_pmf(2, 3)
    np.testing.assert_allclose(exact, [1 / 3, 2 / 3, 0.0], atol=1e-12)
    assert formula[1] == pytest.approx(2 / 3, rel=1e-12)
    tv = 0.5 * np.abs(formula - exact).sum()
    assert tv == pytest.approx(1 / 3, abs=1e-9)  # documented model gap


def test_p_j_close_to_enumeration_when_b_large():
    # collisions rare: formula and truth both concentrate on j=1; the
    # residual j=2 overweight is the formula's documented semantics gap
    exact = j_distribution(6, 3)
    formula = p_j_pmf(3, 6)
    assert formula[1] == pytest.approx(exact[1], abs=0.06)
    assert np.abs(formula - exact).max() < 0.10
    # the gap shrinks as slots multiply
    narrow = np.abs(formula - exact).max()
    wide = np.abs(p_j_pmf(3, 16) - j_distribution(16, 3)).max()
    assert wide < narrow


def test_p_zero_decreases_with_b():
    p0 = [p_j_pmf(4, b)[0] for b in (4, 6, 10, 16)]
    assert all(a >= v for a, v in zip(p0, p0[1:]))


def _printed_p_z(z, k, b):
    """p_z transcribed from the printed recursion, term by term."""
    if z == 1:
        return ((b - 1) / b) ** (k - 1)
    if z >= b - 1:
        return 0.0
    val = ((b - 1) / b) ** (k - 1)
    for m in range(2, z + 1):
        val *= ((b - m) / (b - m + 1)) ** (k - m)
    return val


def _printed_p_j_pmf(k, b):
    """[p_j(0), .., p_j(k)] from the printed inclusion-exclusion formula.

    Every z term is added, zero or not; only the p_z values (which do not
    depend on j) are computed once. j = 0 takes the complement.
    """
    pz = [None] + [_printed_p_z(z, k, b - 1) for z in range(1, k)]
    heads = []
    for j in range(1, k + 1):
        acc = 1.0
        for z in range(1, j):
            acc += (-1) ** z * math.comb(j - 1, z) * pz[z]
        heads.append(max(0.0, ((b - 1) / b) ** (k - 1) * acc))
    vals = np.array([max(0.0, 1.0 - sum(heads))] + heads)
    return vals / vals.sum()


@pytest.mark.parametrize("b", [3, 4, 8, 16, 24, 40])
def test_p_j_pmf_bit_identical_to_printed_formula(b):
    for k in range(1, 171):
        got = p_j_pmf(k, b)
        assert np.array_equal(got, _printed_p_j_pmf(k, b)), (k, b)
        scalar = np.array([p_j(j, k, b) for j in range(k + 1)])
        assert np.array_equal(scalar / scalar.sum(), got), (k, b)


def _p_j_pmf_bytes(ks, b):
    """p_j_pmf bytes per k, built in the order of ks from empty caches."""
    analytic._p_j_weights.cache_clear()
    analytic._BINOMIAL.clear()
    return {k: p_j_pmf(k, b).tobytes() for k in ks}


@pytest.mark.parametrize("b", [3, 5, 24, 40, 48])
def test_p_j_pmf_bytes_independent_of_binomial_table_growth(b):
    # the shared binomial table grows with the largest k seen so far; one
    # build down from k = 399 must give the bytes of k-by-k growth upward
    descending = _p_j_pmf_bytes(range(399, 0, -1), b)
    assert descending == _p_j_pmf_bytes(range(1, 400), b)


def test_mixture_poisson_matches_per_component_sum():
    rng = np.random.default_rng(11)
    n = 1300                               # more than two blocks of 512
    means = rng.uniform(0.0, 40.0, n)
    weights = rng.uniform(0.0, 1.0, n)
    means[[0, 700]] = 0.0                  # point masses at zero
    weights[[5, 600, 1299]] = 0.0          # skipped components
    weights /= weights.sum()
    got = poisson_mixture(means, weights)
    ns = np.arange(got.support)
    ref = np.zeros(got.support)
    for m, w in zip(means, weights):
        if w > 0.0:
            ref += w * poisson.pmf(ns, m)
    ref /= ref.sum()
    np.testing.assert_allclose(got.probs, ref, rtol=1e-13, atol=0.0)
    got.check_normalized()


def _xlogy_block_mixture(means, weights):
    """poisson_mixture as first written: one xlogy per (component, n)."""
    top = float(means.max(initial=0.0))
    hi = int(poisson.isf(TAIL_TOL * 0.1, top)) + 2 if top > 0 else 1
    ns = np.arange(hi)
    log_fact = gammaln(ns + 1.0)
    keep = weights > 0.0
    means, weights = means[keep], weights[keep]
    probs = np.zeros(hi)
    for lo in range(0, means.size, _MIX_CHUNK):
        m = means[lo:lo + _MIX_CHUNK, None]
        pmf = np.exp(xlogy(ns, m) - log_fact - m)
        probs += weights[lo:lo + _MIX_CHUNK] @ pmf
    return IntDist(probs).truncated()


def test_poisson_mixture_bit_identical_to_xlogy_blocks():
    # the recursion's pmfs are pinned byte for byte: one log per component
    # must give the bits of one xlogy per (component, n) pair
    rng = np.random.default_rng(5)
    n = 1300                        # two full blocks and a partial third
    means = 10.0 ** rng.uniform(-1.0, 1.8, n)   # 0.1 .. 63
    means[rng.choice(n, 40, replace=False)] = 0.0
    means[[1, 600, 1100]] = 0.0     # a zero mean in every block
    weights = rng.uniform(0.0, 1.0, n)
    weights[rng.choice(n, 30, replace=False)] = 0.0
    cases = [
        (np.array([7.3]), np.ones(1)),                  # one component
        (np.array([0.0]), np.ones(1)),                  # zero mean alone
        (np.array([0.0, 2.5]), np.array([0.3, 0.7])),   # zero mean, weighted
        (np.array([1.0, 4.0, 9.0]), np.array([0.0, 1.0, 0.0])),  # zero weights
        (means, weights / weights.sum()),
    ]
    assert 2 * _MIX_CHUNK < n < 3 * _MIX_CHUNK
    for m, w in cases:
        want = _xlogy_block_mixture(m, w).probs
        assert poisson_mixture(m, w).probs.tobytes() == want.tobytes(), m.size


# ------------------------------------------------------------- progress law

def test_x_h_recursion_matches_closed_form():
    rng = np.random.default_rng(2)
    model = ProgressModel(varphi=4.2, beta=1.1, u=U_TEST, alpha=3.0)
    ks = rng.integers(1, 9, size=12)
    x = model.r1
    for i in range(2, 13):
        x = x_h_step(x, int(ks[i - 2]), model)
        # varphi * (K_1 + ... + K_{i-1}) + (i - 1) beta r1 + r1
        closed = (model.varphi * float(np.sum(ks[: i - 1]))
                  + (i - 1) * model.beta * model.r1 + model.r1)
        assert x == pytest.approx(closed, rel=1e-12)


def test_x_h_constant_when_model_zero():
    model = ProgressModel(varphi=1e-300, beta=0.0, u=U_TEST, alpha=3.0)
    assert x_h_step(100.0, 5, model) == pytest.approx(100.0)


def test_calibrate_exact_linear_law():
    rng = np.random.default_rng(3)
    u = U_TEST
    r1 = u ** (-1 / 3)
    k = rng.integers(1, 11, size=500)
    dx = 3.7 * k + 0.9 * r1
    model, mape = calibrate_progress(k, dx, u, alpha=3.0)
    assert model.varphi == pytest.approx(3.7, abs=1e-9)
    assert model.beta == pytest.approx(0.9, abs=1e-9)
    assert mape < 1e-9


def test_calibrate_colocated_law_mape():
    # contour law for k co-located relays: offset r1 * k^(1/3); the linear fit
    # lands within 5.5% mean absolute percentage error over k = 1..10 and
    # within 3% restricted to k > 3
    u = U_TEST
    r1 = u ** (-1 / 3)
    k = np.repeat(np.arange(1, 11), 20)
    dx = r1 * (k ** (1 / 3) - 1.0)
    model, mape = calibrate_progress(k, dx, u, alpha=3.0)
    assert mape <= 0.055
    k_hi = np.repeat(np.arange(4, 11), 20)
    dx_hi = r1 * (k_hi ** (1 / 3) - 1.0)
    _, mape_hi = calibrate_progress(k_hi, dx_hi, u, alpha=3.0)
    assert mape_hi <= 0.03


def test_calibrate_degenerate_inputs():
    u = U_TEST
    with pytest.raises(CalibrationError):
        calibrate_progress(np.full(200, 3.0), np.full(200, 10.0), u,
                           alpha=3.0)
    with pytest.raises(CalibrationError):
        calibrate_progress(np.arange(50), np.arange(50), u, alpha=3.0)
    # one sample per relay count: no bin reaches MIN_BIN
    with pytest.raises(CalibrationError, match="no relay-count bin"):
        calibrate_progress(np.arange(100), np.arange(100), u, alpha=3.0)


# -------------------------------------------------------------- x_c / areas

def test_x_c_rejects_all_collided():
    with pytest.raises(ValueError, match="j_prev must be >= 1"):
        x_c(500.0, 0, 1.5e-3, 0.25)


def test_x_c_clamped_at_j1():
    assert x_c(500.0, 1, 1.5e-3, 0.25) == 500.0


def test_x_c_smallest_positive_offset_at_j2():
    # j - 1 - pi/4 first goes positive at j = 2
    assert x_c(500.0, 2, 1.5e-3, 0.25) < 500.0
    off = 500.0 - x_c(500.0, 2, 1.5e-3, 0.25)
    expect = math.sqrt((2 / (math.pi * 0.25 * 1.5e-3)) * (1 - math.pi / 4))
    assert off == pytest.approx(expect, rel=1e-12)


def test_x_c_dense_limit():
    assert 500.0 - x_c(500.0, 7, 1e4, 1.0) < 1e-1


def test_areas_degenerate_and_flat():
    # coincident contours (x_c on the previous contour) bound no area
    assert areas(300.0, 300.0, 200.0) == 0.0
    assert areas(300.0, 300.0, 200.0, dst_x=2000.0) == 0.0
    # flat contours: plain rectangles
    assert areas(300.0, 360.0, 200.0) == pytest.approx(200.0 * 60.0, rel=1e-12)
    assert areas(250.0, 300.0, 200.0) == pytest.approx(200.0 * 50.0, rel=1e-12)


def test_areas_ordering_violation():
    with pytest.raises(ValueError):
        areas(290.0, 280.0, 200.0)
    with pytest.raises(ValueError):
        areas([280.0, 295.0], 290.0, 200.0, dst_x=2000.0)


def test_areas_quadrature_vs_hit_count():
    # Monte Carlo hit-count oracle over the same arc-bounded regions, with a
    # tight bounding box per region so 10^6 points resolve 0.1%
    w = 200.0
    dst = 2000.0
    x_cv, x_p, x_h, x_p2 = 280.0, 300.0, 380.0, 220.0
    a_d, a_rm, a_dm = areas([x_p, x_cv, x_p2], [x_h, x_p, x_p], w, dst_x=dst)

    def arc_x(x0, y):
        r = dst - x0
        return dst - np.sqrt(np.maximum(r * r - y * y, 0.0))

    rng = np.random.default_rng(17)
    n = 1_000_000

    def hit_count_area(x_lo_contour, x_hi_contour):
        # region spans x in (arc(x_lo), arc(x_hi)]; box from the inner arc's
        # on-axis point to the outer arc's strip-edge point
        box_lo = x_lo_contour
        box_hi = arc_x(x_hi_contour, np.array([w / 2]))[0]
        xs = rng.uniform(box_lo, box_hi, n)
        ys = rng.uniform(-w / 2, w / 2, n)
        inside = (xs > arc_x(x_lo_contour, ys)) & (xs <= arc_x(x_hi_contour, ys))
        return inside.mean() * (box_hi - box_lo) * w

    for est, exact in [(hit_count_area(x_p, x_h), a_d),
                       (hit_count_area(x_cv, x_p), a_rm),
                       (hit_count_area(x_p2, x_p), a_dm)]:
        assert est == pytest.approx(exact, rel=1e-3)
    # bands add: decision arc to the new contour is the sliver plus the band
    assert areas(x_cv, x_h, w, dst_x=dst) == pytest.approx(a_d + a_rm,
                                                           rel=1e-12)


def test_first_hop_areas():
    r1 = 50.0
    a_decode, a_relay = first_hop_areas(r1, 200.0)
    assert a_decode == pytest.approx(math.pi * r1 * r1)
    assert a_relay == pytest.approx(math.pi * r1 * r1 / 2)  # r1 < w/2
    # narrow strip clips the forward half-disc
    _, a_clip = first_hop_areas(50.0, 60.0)
    y = 30.0
    expect = y * math.sqrt(50.0 ** 2 - y ** 2) + 50.0 ** 2 * math.asin(y / 50.0)
    assert a_clip == pytest.approx(expect, rel=1e-12)


# ------------------------------------------------------------------ poisson

def _poisson(mean: float) -> IntDist:
    return poisson_mixture(np.array([mean]), np.ones(1))


def test_poisson_one_component_truncation_and_mean():
    d = _poisson(4.2)
    d.check_normalized()
    assert d.mean() == pytest.approx(4.2, abs=1e-6)


def test_poisson_one_component_is_scipy_pmf_bit_for_bit():
    # hop 1 of the recursion is a one-component mixture; it must give the
    # truncated scipy pmf exactly, as the recursion's rows are pinned
    means = np.concatenate([[0.0, 1e-9, 0.5, 1.0], np.linspace(2, 3000, 150),
                            np.random.default_rng(3).uniform(0, 60, 150)])
    for mean in means:
        got = _poisson(mean).probs
        if mean == 0.0:
            assert got.tolist() == [1.0]
            continue
        hi = int(poisson.isf(TAIL_TOL * 0.1, mean)) + 2
        want = IntDist(poisson.pmf(np.arange(hi), mean)).truncated().probs
        assert np.array_equal(got, want), mean


def test_poisson_stand_in_matches_scipy_stats():
    # analytic._poisson replaces scipy.stats.poisson, which the package does
    # not import: its tail quantile sizes every mixture, so it must agree
    means = np.concatenate([np.logspace(-6.0, math.log10(5e3), 40000),
                            np.arange(1, 40001) * 0.01])
    q = TAIL_TOL * 0.1
    want = poisson.isf(q, means).astype(int)
    got = np.array([analytic._poisson.isf(q, m) for m in means])
    assert np.array_equal(got, want), means[got != want][:5]
    ks = np.arange(800)[None, :]
    grid = means[::97, None]
    assert np.array_equal(analytic._poisson.pmf(ks, grid), poisson.pmf(ks, grid))


def test_intdist_convolution_mean_additivity():
    a = _poisson(2.0)
    b = _poisson(3.5)
    c = a.convolve(b)
    c.check_normalized()
    assert c.mean() == pytest.approx(a.mean() + b.mean(), rel=1e-9)


def test_intdist_zero_truncation():
    d = _poisson(1.0).zero_truncated()
    assert d.probs[0] == 0.0
    assert d.total() == pytest.approx(1.0, abs=1e-12)
    assert d.mean() == pytest.approx(1.0 / (1.0 - math.exp(-1.0)), abs=1e-6)


def test_intdist_guards():
    with pytest.raises(TruncationError, match="pmf mass 0.5 outside"):
        IntDist(np.array([0.25, 0.25])).check_normalized()
    with pytest.raises(TruncationError, match="no probability mass left"):
        IntDist(np.zeros(3)).truncated()
    with pytest.raises(ValueError, match="point mass at 0"):
        IntDist(np.array([1.0])).zero_truncated()
    with pytest.raises(ValueError, match="all mass at zero"):
        IntDist(np.array([1.0, 0.0])).zero_truncated()


# ---------------------------------------------------------------- recursion

FC = FieldConfig(rho=1.5e-3, epsilon=0.25, length=2000.0, w=200.0)
MODEL = ProgressModel(varphi=8.0, beta=0.9, u=(1 / 75.0) ** 3, alpha=3.0)


def test_recursion_epsilon_one_kills_stagger_terms():
    # every node is awake at epsilon = 1, so no sleep-staggered decoder from
    # the source's disc joins hop 2: E[L] is the fresh band's Poisson mean
    fc = FieldConfig(rho=1.5e-3, epsilon=1.0, length=2000.0, w=200.0)
    state, _, _ = init_recursion(fc, MODEL)
    state2, row, dist_l = propagate_hop(state, fc, MODEL, b=16)
    band = state2.a_decode_prev
    assert band[0] == 0.0 and (band[1:] > 0.0).all()
    fresh = fc.rho * float(state.dist_k_prev.probs @ band)
    # each of the three tail cuts (Poisson range, mixture, convolution) drops
    # under TAIL_TOL of mass past the support, which only lowers the mean
    assert 0.0 <= fresh - row.e_l <= 3 * TAIL_TOL * dist_l.support


def _per_k_relay_mixture(k_prev, ks, a_decode, a_sliver, eps_rho, b):
    """The relay mixture as first written: one pass per previous count K."""
    means_r, weights_r = [], []
    j_marginal = np.zeros(int(ks[-1]) + 1)
    for k in ks:
        wj = k_prev.probs[k] * p_j_pmf(int(k), b)
        j_eff = np.arange(k + 1)
        j_eff[0] = k
        pos = wj > 0.0
        j_eff, wj = j_eff[pos], wj[pos]
        means_r.append(eps_rho * (a_decode[k] + a_sliver[j_eff]))
        weights_r.append(wj)
        np.add.at(j_marginal, j_eff, wj)
    return np.concatenate(means_r), np.concatenate(weights_r), j_marginal


def test_propagate_hop_relay_mixture_matches_per_k_loop(monkeypatch):
    # every hop of both benchmark inputs: the arrays the relay pmf is mixed
    # from must be the per-K loop's, bit for bit
    spec = load_config(os.path.join(os.path.dirname(__file__), "..",
                                    "configs", "golden.cfg"))
    golden = ProgressModel(varphi=8.0, beta=0.9, u=detection_constant(
        spec.phy).u, alpha=spec.phy.alpha)
    calls = []
    seam = analytic._relay_mixture

    def recorded(*args):
        calls.append((args, seam(*args)))
        return calls[-1][1]

    monkeypatch.setattr(analytic, "_relay_mixture", recorded)
    for field, model, b in ((spec.field, golden, spec.b), (FC, MODEL, 16)):
        calls.clear()
        stats = run_recursion(field, model, b)
        assert len(calls) == len(stats.rows) - 1
        for args, got in calls:
            for g, w in zip(got, _per_k_relay_mixture(*args)):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def _assert_matches_components(got, means, weights):
    """got has the support of the component mixture and its entries above
    1e-300 within 1e-12 relative."""
    want = poisson_mixture(means, weights).probs
    assert got.support == want.size
    big = (want > 1e-300) | (got.probs > 1e-300)
    np.testing.assert_allclose(got.probs[big], want[big], rtol=1e-12, atol=0.0)


def test_relay_pmf_matches_component_mixture_on_every_reference_hop(
        monkeypatch):
    # every hop of both benchmark inputs: the product form of the relay pmf
    # against the mixture of the (K, j_eff) components it replaces
    spec = load_config(os.path.join(os.path.dirname(__file__), "..",
                                    "configs", "golden.cfg"))
    golden = ProgressModel(varphi=8.0, beta=0.9, u=detection_constant(
        spec.phy).u, alpha=spec.phy.alpha)
    mixtures, pmfs = [], []
    seams = analytic._relay_mixture, analytic._relay_pmf

    def mixture(*args):
        mixtures.append(seams[0](*args))
        return mixtures[-1]

    def pmf(*args):
        pmfs.append(seams[1](*args))
        return pmfs[-1]

    monkeypatch.setattr(analytic, "_relay_mixture", mixture)
    monkeypatch.setattr(analytic, "_relay_pmf", pmf)
    for field, model, b in ((spec.field, golden, spec.b), (FC, MODEL, 16)):
        mixtures.clear()
        pmfs.clear()
        stats = run_recursion(field, model, b)
        assert len(pmfs) == len(mixtures) == len(stats.rows) - 1
        for (means_r, weights_r, *_), got in zip(mixtures, pmfs):
            _assert_matches_components(got, means_r, weights_r)


@pytest.mark.parametrize("n_k, n_j", [(1, 7), (1, 1), (4, 30), (600, 530)])
def test_relay_pmf_matches_component_mixture_synthetic(n_k, n_j):
    # a single K, a single j, and more than _MIX_CHUNK rows on both sides;
    # sliver means past _DIAG_CHUNK put Q's mass in every block of Q^T @ P
    rng = np.random.default_rng(n_k * 1000 + n_j)
    mean_k = rng.uniform(0.5, 60.0, n_k)
    mean_j = np.concatenate([[0.0], rng.uniform(0.0, 200.0, n_j - 1)])
    w_kj = rng.uniform(0.0, 1.0, (n_k, n_j))
    w_kj[rng.uniform(size=w_kj.shape) < 0.3] = 0.0     # zero weights
    w_kj[0, 0] = 1.0                    # a zero sliver mean with weight
    w_kj /= w_kj.sum()
    k_idx, j_idx = np.nonzero(w_kj)
    means = mean_k[k_idx] + mean_j[j_idx]
    hi = analytic._support_size(means)
    if n_k > _MIX_CHUNK:
        assert n_j > _MIX_CHUNK and hi > analytic._DIAG_CHUNK
    got = analytic._relay_pmf(w_kj, mean_k, mean_j, hi)
    _assert_matches_components(got, means, w_kj[k_idx, j_idx])


def test_recursion_rows_and_termination():
    stats = run_recursion(FC, MODEL, b=16)
    rows = stats.rows
    assert rows[0].xh0 == pytest.approx(MODEL.r1)
    assert rows[-1].xh0 >= FC.length
    xh = [r.xh0 for r in rows]
    assert all(b > a for a, b in zip(xh, xh[1:]))
    for d in stats.dists_k:
        d.check_normalized()
        assert d.probs[0] == 0.0 or d.support == 1


def test_recursion_short_path_single_hop():
    fc = FieldConfig(rho=1.5e-3, epsilon=0.25, length=30.0, w=200.0)
    stats = run_recursion(fc, MODEL, b=16)
    assert len(stats.rows) == 1


def test_recursion_dense_band_exceeds_support_cap():
    # 1800 per km2, every node awake, r1 = 90 m, b = 3: the decoder pmf of
    # hop 4 needs more support than the cap allows
    fc = FieldConfig(rho=1.8e-3, epsilon=1.0, length=2000.0, w=200.0)
    model = ProgressModel(varphi=10.0, beta=0.8, u=(1 / 90.0) ** 3, alpha=3.0)
    with pytest.raises(TruncationError,
                       match=r"^support 4587 exceeds cap 4096$"):
        run_recursion(fc, model, b=3)


def test_recursion_that_never_arrives_is_a_truncation_error():
    # r1 = 75 m against a 0.001 r1 step and 0.01 m per relay: 512 hops
    # cover about 75 m of the 2000 m field
    model = ProgressModel(varphi=0.01, beta=0.001, u=(1 / 75.0) ** 3,
                          alpha=3.0)
    with pytest.raises(TruncationError, match="^recursion did not reach the "
                       "destination in 512 hops$"):
        run_recursion(FieldConfig(), model, 16)


def test_recursion_divergence_error():
    bad = ProgressModel(varphi=1e-12, beta=-1.0, u=(1 / 75.0) ** 3, alpha=3.0)
    with pytest.raises(ValueError):
        run_recursion(FC, bad, b=16)


def test_recursion_rejects_non_positive_varphi():
    # a progress law that cannot advance the contour is refused up front
    flat = ProgressModel(varphi=0.0, beta=0.9, u=(1 / 75.0) ** 3, alpha=3.0)
    with pytest.raises(ValueError, match=r"^varphi must be positive$"):
        run_recursion(FieldConfig(), flat, 16)


def test_recursion_dense_point_is_warning_free():
    # a dense relay band overflows expm1 in the retransmission term, whose
    # value 1 / inf = 0 is right; the recursion warns about nothing
    fc = FieldConfig(rho=0.9e-3, epsilon=1.0, length=2000.0, w=200.0)
    model = ProgressModel(varphi=10.0, beta=0.8, u=(1 / 113.0) ** 3, alpha=3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = run_recursion(fc, model, b=24)
    assert stats.rows[-1].xh0 >= fc.length
    assert all(0.0 <= r.e_nr < math.inf for r in stats.rows)


def test_recursion_k_increases_with_density():
    lo = run_recursion(FieldConfig(rho=0.9e-3, epsilon=0.25, length=2000.0,
                                   w=200.0), MODEL, b=16)
    hi = run_recursion(FieldConfig(rho=1.8e-3, epsilon=0.25, length=2000.0,
                                   w=200.0), MODEL, b=16)
    k_lo = np.mean([r.e_k for r in lo.rows[2:6]])
    k_hi = np.mean([r.e_k for r in hi.rows[2:6]])
    assert k_hi > k_lo
    assert len(hi.rows) <= len(lo.rows)


def test_recursion_retransmissions_decrease_with_hop_density_power():
    stats = run_recursion(FC, MODEL, b=16)
    nr = [r.e_nr for r in stats.rows]
    # transient decay as relay counts build up from the lone source
    assert nr[1] < nr[0]
    assert nr[2] <= nr[1]
    # density: higher rho, fewer retransmissions at matched hops
    lo = run_recursion(FieldConfig(rho=0.9e-3, epsilon=0.25, length=2000.0,
                                   w=200.0), MODEL, b=16)
    assert stats.rows[1].e_nr < lo.rows[1].e_nr
    # power enters through U: larger reach, fewer retransmissions
    strong = ProgressModel(varphi=8.0, beta=0.9, u=(1 / 95.0) ** 3, alpha=3.0)
    st = run_recursion(FC, strong, b=16)
    assert st.rows[1].e_nr < stats.rows[1].e_nr


def test_recursion_normalization_invariant():
    stats = run_recursion(FC, MODEL, b=16)
    for d in stats.dists_k + stats.dists_l:
        d.check_normalized()
