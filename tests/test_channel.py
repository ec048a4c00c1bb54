"""Link model: path power, detection condition, coverage contour roots."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.optimize import brentq

from omrsim.channel import (
    PhyConfig,
    aggregate_power,
    coverage_contour,
    detection_constant,
    power_sum,
)
from omrsim.engine import _detects

PAPER_PHY = PhyConfig()  # gamma_t = 5 dB, tau = 0.2, alpha = 3


def _contour(relays, y, u, alpha):
    """The batched solver on one relay set, for the contour at lateral y."""
    xy = np.asarray(relays, dtype=float).reshape(-1, 2)
    return float(coverage_contour(xy[:, 0], xy[:, 1] - y, [0], u, alpha)[0])


def test_detection_constant_unity():
    # all factors arranged to cancel: U = 1
    tau = 0.2
    gamma = math.log(1.0 / (1.0 - tau))
    phy = PhyConfig(lambda_c=4.0 * math.pi, n_s=2, p_n=1.0, p_t=1.0,
                    gamma_t=gamma, tau=tau)
    assert detection_constant(phy).u == pytest.approx(1.0, rel=1e-12)


def test_detection_constant_power_scaling():
    u1 = detection_constant(PAPER_PHY).u
    u2 = detection_constant(PAPER_PHY.with_tx_power(2 * PAPER_PHY.p_t)).u
    assert u2 == pytest.approx(u1 / 2.0, rel=1e-12)
    # radius scales as c when p_t scales as c^alpha
    r1 = detection_constant(PAPER_PHY).single_relay_radius
    r8 = detection_constant(PAPER_PHY.with_tx_power(8 * PAPER_PHY.p_t)).single_relay_radius
    assert r8 == pytest.approx(2.0 * r1, rel=1e-12)


def test_detection_constant_tau_limit():
    # U -> 0 as tau -> 1 (log divergence of the reliability term)
    us = [detection_constant(PhyConfig(tau=t)).u
          for t in (0.2, 0.9, 0.999, 1.0 - 1e-12)]
    assert all(a > b for a, b in zip(us, us[1:]))
    expect = us[0] * math.log(1.25) / math.log(1e12)
    assert us[-1] == pytest.approx(expect, rel=1e-9)


def test_first_hop_radius_matches_hand_evaluation():
    # gamma_t = 5 dB, tau = 20%, alpha = 3
    phy = PAPER_PHY
    u = (phy.n_s * phy.p_n / (2 * phy.p_t)) * (4 * math.pi / phy.lambda_c) ** 3 \
        * (10 ** 0.5) / math.log(1.25)
    assert detection_constant(phy).u == pytest.approx(u, rel=1e-12)
    r = _contour([(0.0, 0.0)], 0.0, u, 3.0)
    assert r == pytest.approx(u ** (-1.0 / 3.0), rel=1e-9)


def _detected(rx, relays, phy) -> bool:
    """The engine's detection test at one receiver."""
    xy = np.asarray(relays, dtype=float).reshape(-1, 2)
    return bool(_detects(rx[0], rx[1], xy, phy, detection_constant(phy).u)[0])


def test_is_detected_boundary_inclusive():
    phy = PhyConfig(lambda_c=4.0 * math.pi, n_s=2, p_n=1.0, p_t=1.0,
                    gamma_t=math.log(1.25), tau=0.2)
    assert detection_constant(phy).u == pytest.approx(1.0)
    # with U = 1, the single-relay radius is exactly 1
    assert _detected((1.0, 0.0), [(0.0, 0.0)], phy)
    assert not _detected((1.0 + 1e-9, 0.0), [(0.0, 0.0)], phy)


def test_multi_relay_detection_monotone():
    phy = PAPER_PHY
    r = detection_constant(phy).single_relay_radius
    rx = (1.3 * r, 0.0)
    assert not _detected(rx, [(0.0, 0.0)], phy)
    assert _detected(rx, [(0.0, 0.0), (0.5 * r, 0.0)], phy)


def test_outage_identity():
    # P_o < tau iff the detection condition holds; P_o = 1 - exp(-gamma_t /
    # gamma_o) with gamma_o = 2 p_t sigma_S^2 / (n_s p_n) the mean subcarrier
    # SINR and sigma_S^2 = (lambda / 4 pi d)^alpha for a lone relay at d
    phy = PAPER_PHY
    r = detection_constant(phy).single_relay_radius
    for d, expect in [(0.99 * r, True), (1.01 * r, False)]:
        sigma2 = (phy.lambda_c / (4.0 * math.pi * d)) ** phy.alpha
        gamma_o = 2.0 * phy.p_t * sigma2 / (phy.n_s * phy.p_n)
        po = 1.0 - math.exp(-phy.gamma_t / gamma_o)
        assert (po < phy.tau) == expect
        assert _detected((d, 0.0), [(0.0, 0.0)], phy) == expect


def test_contour_single_relay_offsets():
    u = detection_constant(PAPER_PHY).u
    r = u ** (-1.0 / 3.0)
    # lateral offset shrinks the reach by the circle equation
    for y in (0.0, 0.3 * r, 0.9 * r):
        x = _contour([(0.0, 0.0)], y, u, 3.0)
        assert x == pytest.approx(math.sqrt(r * r - y * y), rel=1e-9, abs=1e-9)
    # |y| = radius: tangent to the detection circle. The expected reach is not
    # 0: the float r = u ** (-1/3) sits a few 1e-14 m off the true radius, and
    # at a tangent the root moves by sqrt(2 r delta), a few 1e-6 m. The exact
    # root of the rounded inputs, x^2 = u^(-2/3) - y^2, is computed in decimal
    # so the expectation does not come from the solver under test; if r
    # rounds outside the radius there is no root.
    with localcontext() as ctx:
        ctx.prec = 50
        x2 = Decimal(u) ** (Decimal(-2) / Decimal(3)) - Decimal(r) ** 2
    if x2 <= 0:
        assert math.isnan(_contour([(0.0, 0.0)], r, u, 3.0))
    else:
        x = _contour([(0.0, 0.0)], r, u, 3.0)
        assert x == pytest.approx(float(x2.sqrt()), abs=1e-6)


def test_contour_colocated_closed_form():
    u = detection_constant(PAPER_PHY).u
    xk, yk = 120.0, 30.0
    for k in (2, 5, 9):
        relays = [(xk, yk)] * k
        for y in (0.0, 40.0):
            x = _contour(relays, y, u, 3.0)
            expect = xk + math.sqrt((k / u) ** (2.0 / 3.0) - (y - yk) ** 2)
            assert x == pytest.approx(expect, rel=1e-9)


def test_contour_consistency_random_sets():
    u = detection_constant(PAPER_PHY).u
    rng = np.random.default_rng(11)
    for _ in range(25):
        k = rng.integers(1, 8)
        relays = np.column_stack([
            rng.uniform(0, 150, size=k), rng.uniform(-100, 100, size=k)])
        y = float(rng.uniform(-100, 100))
        x = _contour(relays, y, u, 3.0)
        if math.isnan(x):
            continue
        h = power_sum(x, y, relays[:, 0], relays[:, 1], 3.0)
        assert h == pytest.approx(u, rel=1e-9)
        assert x >= relays[:, 0].max()


def test_aggregate_power_matches_term_loops_bit_for_bit():
    # receiver sets sum their K terms in relay order, as a per-relay loop
    # does; a single point sums them as a 1-D np.sum does
    rng = np.random.default_rng(12)
    for k in range(1, 61):
        rx, ry = rng.uniform(0, 300, k), rng.uniform(-150, 150, k)
        xs, ys = rng.uniform(-100, 400, 7), rng.uniform(-200, 200, 7)
        loop = np.zeros(xs.size)
        for xk, yk in zip(rx, ry):
            loop += ((xs - xk) ** 2 + (ys - yk) ** 2) ** -1.5
        np.testing.assert_array_equal(aggregate_power(xs, ys, rx, ry, 3.0), loop)
        d2 = (xs[0] - rx) ** 2 + (ys[0] - ry) ** 2
        assert power_sum(xs[0], ys[0], rx, ry, 3.0) == float(np.sum(d2 ** -1.5))


def test_grouped_aggregate_power_is_each_groups_own_sum():
    # groups of every shape, lone and empty receiver sets and sets of 8 or
    # more transmitters included, get their own (K, N) sums to the last bit
    rng = np.random.default_rng(13)
    n_rx = np.array([1, 7, 0, 40, 1, 3, 200, 2])
    n_tx = np.array([9, 1, 5, 30, 1, 12, 40, 64])
    xs, ys = rng.uniform(-100, 400, n_rx.sum()), rng.uniform(-200, 200,
                                                              n_rx.sum())
    rx, ry = rng.uniform(0, 300, n_tx.sum()), rng.uniform(-150, 150,
                                                          n_tx.sum())
    got = aggregate_power(xs, ys, rx, ry, 3.0, (n_rx, n_tx))
    r0, t0 = np.cumsum(n_rx) - n_rx, np.cumsum(n_tx) - n_tx
    for a, m, b, k in zip(r0, n_rx, t0, n_tx):
        np.testing.assert_array_equal(
            got[a:a + m], aggregate_power(xs[a:a + m], ys[a:a + m],
                                          rx[b:b + k], ry[b:b + k], 3.0))


def test_contour_undefined_off_axis_lone_relay():
    u = detection_constant(PAPER_PHY).u
    r = u ** (-1.0 / 3.0)
    assert math.isnan(_contour([(0.0, 2.0 * r)], 0.0, u, 3.0))


def _brentq_contour(axial, lateral, u, alpha):
    """Oracle: a doubling bracket and scipy's brentq on one relay set."""
    def f(x):
        return float(np.sum(((x - axial) ** 2 + lateral ** 2) ** (-alpha / 2))) - u

    x_lo = float(axial.max())
    # a relay on the axis at the front puts H = inf at x_lo
    with np.errstate(divide="ignore"):
        f_lo = f(x_lo)
        if f_lo <= 0.0:
            return x_lo if f_lo == 0.0 else math.nan
        step = (axial.size / u) ** (1.0 / alpha)
        while f(x_lo + step) > 0.0:
            step *= 2.0
        return brentq(f, x_lo, x_lo + step, xtol=1e-13,
                      rtol=4 * np.finfo(float).eps)


@pytest.mark.parametrize("alpha", [3.0, 4.0])
def test_contour_batch_matches_brentq_oracle(alpha):
    u = detection_constant(PhyConfig(alpha=alpha)).u
    r = u ** (-1.0 / alpha)
    rng = np.random.default_rng(int(alpha))
    for _ in range(10):
        sets = []
        for _ in range(60):
            k = int(rng.integers(1, 9))
            sets.append(np.column_stack([rng.uniform(0, 1.5 * r, k),
                                         rng.uniform(-1.5 * r, 1.5 * r, k)]))
        sets += [
            # no contour: the set's power is below u at its front
            np.array([[0.0, 2.0 * r]]),
            # laterally offset relays, where H is not convex in x; behind a
            # far-off front relay, a Newton step leaves the bracket
            np.array([[0.0, 0.9 * r]]),
            np.array([[0.0, -0.8 * r], [-0.3 * r, 0.7 * r]]),
            np.array([[0.5 * r, 2.8 * r], [-0.499 * r, 0.003 * r]]),
            np.array([[0.5 * r, 4.0 * r], [-0.495 * r, 0.0]]),
            # an on-axis relay at the front: H = inf there
            np.array([[0.5 * r, 0.0], [0.2 * r, 0.4 * r], [0.0, -0.6 * r]]),
            # a lone on-axis relay: the root is the bracket end
            np.array([[0.7 * r, 0.0]]),
            np.array([[0.2 * r, 0.0]] * 4),
        ]
        order = rng.permutation(len(sets))
        sets = [sets[i] for i in order]
        sizes = [s.shape[0] for s in sets]
        xy = np.concatenate(sets)
        got = coverage_contour(xy[:, 0], xy[:, 1], np.cumsum(sizes) - sizes,
                               u, alpha)
        want = np.array([_brentq_contour(s[:, 0], s[:, 1], u, alpha)
                         for s in sets])
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        ok = ~np.isnan(want)
        assert 20 < ok.sum() < len(sets)
        np.testing.assert_allclose(got[ok], want[ok], rtol=1e-12, atol=0.0)


def test_contour_stops_on_exact_root():
    # alpha = 2 and a far relay: u is H(4) as the solver sums it, so f = 0
    # exactly at x = 4, and a Newton iterate lands there; the root is kept
    far = 1e6
    u = float(np.add.reduce(np.array([16.0, 16.0 + far * far]) ** -1.0))
    x = coverage_contour([0.0, 0.0], [0.0, far], [0], u, 2.0)
    assert x[0] == 4.0
    # f = 0 at the front itself: the front is the contour; a lone on-axis
    # relay has its root at the bracket end
    x = coverage_contour([0.0, 5.0], [4.0, 0.0], [0, 1], 1 / 16, 2.0)
    assert x[0] == 0.0 and x[1] == 9.0


def test_phy_validation():
    PhyConfig()
    with pytest.raises(ValueError):
        PhyConfig(alpha=1.5)
    with pytest.raises(ValueError):
        PhyConfig(tau=0.0)
    with pytest.raises(ValueError):
        PhyConfig(t_id=0.02, t_p=0.01)
