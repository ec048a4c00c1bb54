"""Deployment geometry: Poisson moments, strip membership, sleep schedule."""

import math

import numpy as np
import pytest

from omrsim import field
from omrsim.engine import eligible
from omrsim.field import (
    FieldConfig,
    Point2D,
    Strip,
    awake_mask,
    deploy,
    sleep_cycle,
)


def test_config_validation():
    FieldConfig()
    with pytest.raises(ValueError):
        FieldConfig(rho=0.0)
    with pytest.raises(ValueError):
        FieldConfig(epsilon=1.5)
    with pytest.raises(ValueError):
        FieldConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        FieldConfig(w=-1.0)


def _inside_strip(p: Point2D, strip: Strip, width: float) -> bool:
    """The relay rule's strip test alone: no decision arc (d_ref = inf)."""
    d_dst = np.hypot(p.x - strip.dst.x, p.y - strip.dst.y)
    _, lateral = strip.frame(p.x, p.y)
    return bool(eligible(np.array([d_dst]), np.array([lateral]), math.inf,
                         width)[0])


def test_in_strip_closed_boundary():
    strip = Strip(src=Point2D(0, 0), dst=Point2D(2000, 0))
    assert _inside_strip(Point2D(100, 0), strip, 200.0)
    # closed at |y| = w/2
    assert _inside_strip(Point2D(100, 100.0), strip, 200.0)
    assert _inside_strip(Point2D(100, -100.0), strip, 200.0)
    assert not _inside_strip(Point2D(100, 100.0001), strip, 200.0)


def test_in_strip_rotated_axis():
    strip = Strip(src=Point2D(0, 0), dst=Point2D(100, 100))
    # on-axis point
    assert _inside_strip(Point2D(50, 50), strip, 20.0)
    # 10/sqrt(2) along the normal is just inside; 11 is outside
    assert _inside_strip(Point2D(50 - 7.0, 50 + 7.0), strip, 20.0)
    assert not _inside_strip(Point2D(50 - 8.0, 50 + 8.0), strip, 20.0)


def test_deploy_mean_count_matches_area():
    # 0.2 km x 2 km strip box at 1500 km^-2 averages 600 nodes before margins
    cfg = FieldConfig(rho=1500e-6, length=2000.0, w=200.0, field_margin=0.0)
    counts = [deploy(cfg, seed, t_p=0.01).n for seed in range(300)]
    mean = np.mean(counts)
    expect = cfg.rho * 2000.0 * 200.0
    assert expect == 600.0
    assert abs(mean - expect) < 3.0 * math.sqrt(expect / len(counts))


def test_deploy_poisson_mean_equals_variance():
    # rho * A = 50; over many seeds the sample mean and variance both hit 50
    cfg = FieldConfig(rho=5e-4, length=500.0, w=200.0, field_margin=0.0)
    n_seeds = 10_000
    counts = np.array([deploy(cfg, seed, t_p=0.01).n
                       for seed in range(n_seeds)])
    lam = 50.0
    se_mean = math.sqrt(lam / n_seeds)
    assert abs(counts.mean() - lam) < 3.0 * se_mean
    # Var[sample variance] ~ (mu4 - sigma^4(n-3)/(n-1))/n; Poisson mu4 = lam(1+3lam)
    mu4 = lam * (1.0 + 3.0 * lam)
    se_var = math.sqrt((mu4 - lam * lam * (n_seeds - 3) / (n_seeds - 1)) / n_seeds)
    assert abs(counts.var(ddof=1) - lam) < 3.0 * se_var


def test_deploy_subrectangle_counts():
    # Poisson thinning: any sub-rectangle keeps mean = rho * area
    cfg = FieldConfig(rho=2e-3, length=1000.0, w=200.0, field_margin=100.0)
    sub = 0
    n_seeds = 400
    for seed in range(n_seeds):
        d = deploy(cfg, seed, t_p=0.01)
        sub += np.count_nonzero(
            (d.xs >= 100.0) & (d.xs <= 400.0) & (d.ys >= -50.0) & (d.ys <= 50.0)
        )
    expect = cfg.rho * 300.0 * 100.0 * n_seeds
    assert abs(sub - expect) < 3.0 * math.sqrt(expect)


def test_deploy_deterministic():
    cfg = FieldConfig()
    a = deploy(cfg, 1234, t_p=0.01)
    b = deploy(cfg, 1234, t_p=0.01)
    assert a.n == b.n
    np.testing.assert_array_equal(a.xs, b.xs)
    np.testing.assert_array_equal(a.ys, b.ys)
    np.testing.assert_array_equal(a.sleep_phases, b.sleep_phases)
    c = deploy(cfg, 1235, t_p=0.01)
    assert c.n != a.n or not np.array_equal(a.xs, c.xs)


def test_deploy_sorted_and_windowed():
    d = deploy(FieldConfig(), 7, t_p=0.01)
    assert np.all(np.diff(d.xs) >= 0)
    i0, i1 = d.window(500.0, 600.0)
    assert np.all((d.xs[i0:i1] >= 500.0) & (d.xs[i0:i1] <= 600.0))
    if i0 > 0:
        assert d.xs[i0 - 1] < 500.0
    if i1 < d.n:
        assert d.xs[i1] > 600.0


class _TiedX:
    """A generator whose first uniform draw, the node x, is floored to
    whole metres, so that many nodes share an x."""

    def __init__(self, rng):
        self._rng = rng
        self.draws = []

    def poisson(self, lam):
        return self._rng.poisson(lam)

    def uniform(self, low, high, size):
        draw = self._rng.uniform(low, high, size)
        self.draws.append(np.floor(draw) if not self.draws else draw)
        return self.draws[-1]


def test_deploy_orders_tied_x_stably(monkeypatch):
    # numpy's default argsort need not keep tied keys in draw order, so
    # deploy falls back to the stable sort when two x are equal
    rngs, default_rng = [], np.random.default_rng
    monkeypatch.setattr(field.np.random, "default_rng",
                        lambda seed: rngs.append(_TiedX(default_rng(seed)))
                        or rngs[-1])
    d = deploy(FieldConfig(), 3, t_p=0.01)
    xs, ys, phases = rngs[0].draws
    order = np.argsort(xs, kind="stable")
    assert (np.diff(xs[order]) == 0.0).sum() > 100  # many ties
    np.testing.assert_array_equal(d.xs, xs[order])
    np.testing.assert_array_equal(d.ys, ys[order])
    np.testing.assert_array_equal(d.sleep_phases, phases[order])


def test_deploy_widened_strip_extent():
    cfg = FieldConfig(w=200.0, field_margin=100.0)
    d = deploy(cfg, 3, t_p=0.01, max_strip_width=450.0)
    assert d.bounds[3] == 450.0 / 2 + 100.0


def _awake_at(phase: float, t: float, t_p: float, epsilon: float) -> bool:
    return bool(awake_mask(np.array([phase]), t, t_p, epsilon)[0])


def test_is_awake_always_when_epsilon_one():
    for t in [0.0, 0.123, 7.0]:
        assert _awake_at(0.0, t, t_p=0.01, epsilon=1.0)


def test_awake_fraction_converges():
    t_p = 0.01
    rng = np.random.default_rng(0)
    for eps in (0.25, 0.5, 0.8):
        cycle = sleep_cycle(eps, t_p)
        phases = rng.uniform(0.0, cycle, size=2000)
        times = rng.uniform(0.0, 5.0, size=200)
        frac = np.mean([awake_mask(phases, t, t_p, eps).mean() for t in times])
        assert abs(frac - eps) < 0.01


def test_sleep_block_duration_is_t_p():
    # any awake-to-asleep transition is followed by exactly t_p of sleep
    t_p = 0.01
    eps = 0.25
    phase = 0.0042
    ts = np.arange(0.0, 0.2, 1e-5)
    states = np.array([_awake_at(phase, t, t_p, eps) for t in ts])
    # run lengths of asleep stretches
    changes = np.flatnonzero(np.diff(states.astype(int)))
    runs = np.diff(changes) * 1e-5
    sleep_runs = runs[0::2] if not states[changes[0] + 1] else runs[1::2]
    assert np.allclose(sleep_runs, t_p, atol=2e-5)


def test_late_waker_classification():
    # asleep at transmission start, awake before it ends
    t_p = 0.01
    eps = 0.25
    phase = 0.0
    t0 = 0.001  # inside the sleep block [0, t_p)
    assert not _awake_at(phase, t0, t_p, eps)
    assert _awake_at(phase, t0 + t_p - 5e-4, t_p, eps)  # woke before t0 + t_p
