"""Node deployment geometry: Poisson field, forwarding strip, sleep schedules."""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np


class Point2D(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True)
class FieldConfig:
    """Deployment parameters, checked on construction. Per m^2 and meters."""

    rho: float = 1.5e-3          # node density (1500 km^-2)
    epsilon: float = 0.25        # sleep duty cycle in (0, 1]
    length: float = 2000.0       # source-destination separation
    w: float = 200.0             # initial forwarding strip width
    field_margin: float = 100.0  # extra field beyond the (widened) strip

    def __post_init__(self) -> None:
        if not (0.0 < self.rho < math.inf):
            raise ValueError(f"rho must be positive, got {self.rho}")
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if not (0.0 < self.length < math.inf):
            raise ValueError(f"length must be positive, got {self.length}")
        if not (0.0 < self.w < math.inf):
            raise ValueError(f"w must be positive, got {self.w}")
        if not (0.0 <= self.field_margin < math.inf):
            raise ValueError(f"field_margin must be >= 0, got {self.field_margin}")


@dataclass(frozen=True)
class Strip:
    """Axis of the forwarding corridor; its width travels with the flow."""

    src: Point2D
    dst: Point2D

    def frame(self, xs, ys):
        """Axial and lateral coordinates of points (scalars or arrays).

        The frame has its origin at src and its axial direction toward dst;
        a positive lateral offset lies to the left of the axis.
        """
        length = math.hypot(self.dst.x - self.src.x, self.dst.y - self.src.y)
        ux = (self.dst.x - self.src.x) / length
        uy = (self.dst.y - self.src.y) / length
        dx = xs - self.src.x
        dy = ys - self.src.y
        return dx * ux + dy * uy, -dx * uy + dy * ux


def sleep_cycle(epsilon: float, t_p: float) -> float:
    """Length of one sleep/wake cycle: sleep block t_p, awake fraction epsilon."""
    if epsilon >= 1.0:
        return math.inf
    return t_p / (1.0 - epsilon)


def awake_mask(sleep_phases: np.ndarray, t: float, t_p: float, epsilon: float) -> np.ndarray:
    """True where t falls in an awake interval of the phase-shifted schedule.

    The schedule alternates a sleep block of length t_p with an awake block of
    length t_p * epsilon / (1 - epsilon), so the long-run awake fraction is
    exactly epsilon. epsilon = 1 means always awake.
    """
    if epsilon >= 1.0:
        return np.ones(sleep_phases.shape, dtype=bool)
    return (t + sleep_phases) % sleep_cycle(epsilon, t_p) >= t_p


@dataclass
class Deployment:
    """A realized Poisson field, sorted by x for fast axial windowing."""

    xs: np.ndarray
    ys: np.ndarray
    sleep_phases: np.ndarray
    cfg: FieldConfig
    bounds: tuple[float, float, float, float]  # (x_lo, x_hi, y_lo, y_hi)
    xy: np.ndarray = dc_field(init=False, repr=False)  # (n, 2) positions

    def __post_init__(self) -> None:
        self.xy = np.column_stack([self.xs, self.ys])

    @property
    def n(self) -> int:
        return self.xs.size

    def window(self, x_lo: float, x_hi: float) -> tuple[int, int]:
        """Index range [i0, i1) of nodes with x in [x_lo, x_hi]."""
        return (int(self.xs.searchsorted(x_lo, side="left")),
                int(self.xs.searchsorted(x_hi, side="right")))


def field_extent(cfg: FieldConfig, max_strip_width: float | None = None
                 ) -> tuple[tuple[float, float, float, float], float]:
    """The rectangle deploy scatters nodes over, (x_lo, x_hi, y_lo, y_hi):
    the widest strip plus margin on every side; and its mean node count."""
    w_max = cfg.w if max_strip_width is None else max(cfg.w, max_strip_width)
    y_hi = w_max / 2.0 + cfg.field_margin
    bounds = (-cfg.field_margin, cfg.length + cfg.field_margin, -y_hi, y_hi)
    return bounds, cfg.rho * ((bounds[1] - bounds[0]) * (2.0 * y_hi))


def deploy(
    cfg: FieldConfig,
    seed: int,
    t_p: float,
    max_strip_width: float | None = None,
) -> Deployment:
    """Scatter a Poisson field over the strip rectangle plus margin.

    max_strip_width is the width the run's strips may ever cover (after
    retransmission widening, about each flow's source); the field is sized
    so widened strips stay populated. Node count ~ Poisson(rho * area),
    positions i.i.d. uniform, sleep phases uniform over one sleep/wake cycle.
    """
    bounds, mean_nodes = field_extent(cfg, max_strip_width)
    x_lo, x_hi, y_lo, y_hi = bounds

    rng = np.random.default_rng(seed)
    n = int(rng.poisson(mean_nodes))
    xs = rng.uniform(x_lo, x_hi, size=n)
    ys = rng.uniform(y_lo, y_hi, size=n)
    cycle = sleep_cycle(cfg.epsilon, t_p)
    if math.isinf(cycle):
        phases = np.zeros(n)
    else:
        phases = rng.uniform(0.0, cycle, size=n)

    order = np.argsort(xs)
    if not (np.diff(xs.take(order)) > 0.0).all():
        order = np.argsort(xs, kind="stable")  # ties keep their draw order
    return Deployment(
        xs=np.ascontiguousarray(xs[order]),
        ys=np.ascontiguousarray(ys[order]),
        sleep_phases=np.ascontiguousarray(phases[order]),
        cfg=cfg,
        bounds=bounds,
    )
