"""Link model: path power, detection condition, coverage contour roots."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from omrsim.channel import (
    ContourUndefinedError,
    PhyConfig,
    aggregate_power,
    coverage_contour,
    detection_constant,
    power_sum,
)
from omrsim.engine import _detects

PAPER_PHY = PhyConfig()  # gamma_t = 5 dB, tau = 0.2, alpha = 3


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
    r = coverage_contour([(0.0, 0.0)], 0.0, u, 3.0)
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
        x = coverage_contour([(0.0, 0.0)], y, u, 3.0)
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
        with pytest.raises(ContourUndefinedError):
            coverage_contour([(0.0, 0.0)], r, u, 3.0)
    else:
        x = coverage_contour([(0.0, 0.0)], r, u, 3.0)
        assert x == pytest.approx(float(x2.sqrt()), abs=1e-6)


def test_contour_colocated_closed_form():
    u = detection_constant(PAPER_PHY).u
    xk, yk = 120.0, 30.0
    for k in (2, 5, 9):
        relays = [(xk, yk)] * k
        for y in (0.0, 40.0):
            x = coverage_contour(relays, y, u, 3.0)
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
        try:
            x = coverage_contour(relays, y, u, 3.0)
        except ContourUndefinedError:
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


def test_contour_undefined_off_axis_lone_relay():
    u = detection_constant(PAPER_PHY).u
    r = u ** (-1.0 / 3.0)
    with pytest.raises(ContourUndefinedError):
        coverage_contour([(0.0, 2.0 * r)], 0.0, u, 3.0)


def test_phy_validation():
    PhyConfig()
    with pytest.raises(ValueError):
        PhyConfig(alpha=1.5)
    with pytest.raises(ValueError):
        PhyConfig(tau=0.0)
    with pytest.raises(ValueError):
        PhyConfig(t_id=0.02, t_p=0.01)
