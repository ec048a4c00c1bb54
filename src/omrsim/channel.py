"""Link abstraction: aggregate channel power, detection threshold, coverage contour."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

SPEED_OF_LIGHT = 2.998e8  # m/s


@dataclass(frozen=True)
class PhyConfig:
    """Physical-layer parameters (links, energy), checked on construction."""

    lambda_c: float = 0.125     # carrier wavelength, m (2.4 GHz band)
    alpha: float = 3.0          # path-loss exponent
    n_s: int = 64               # OFDM subcarriers
    p_n: float = 3.0e-15        # noise-plus-interference power per subcarrier, W
    p_t: float = 10.0 ** 0.3    # transmit power over the full band, W (33 dBm)
    gamma_t: float = 10 ** 0.5  # detection SINR threshold, linear (5 dB)
    tau: float = 0.2            # detection reliability bound on outage probability
    t_cp: float = 1.0e-5        # cyclic prefix duration, s
    t_p: float = 0.01           # packet duration, s
    t_id: float = 5.0e-4        # packet-ID listening duration, s
    p_rx: float = 0.1           # receive power draw, W
    r: float = 250e3            # PHY data rate, bit/s
    symbol_rate: float = 125e3  # modulation symbols per second over the band
    t_guard: float = 1.2e-4     # inter-transmission guard, s
    delta_r: float = 0.0        # first-echo excess path length, m

    def __post_init__(self) -> None:
        if not (2.0 <= self.alpha < math.inf):
            raise ValueError(f"alpha must be >= 2, got {self.alpha}")
        if not (0.0 < self.tau < 1.0):
            raise ValueError(f"tau must be in (0, 1), got {self.tau}")
        if not (0.0 < self.gamma_t < math.inf):
            raise ValueError(f"gamma_t must be positive, got {self.gamma_t}")
        for name in ("lambda_c", "n_s", "p_n", "p_t", "t_cp", "t_p", "p_rx",
                     "r", "symbol_rate"):
            value = getattr(self, name)
            if not (0.0 < value < math.inf):
                raise ValueError(f"{name} must be positive, got {value}")
        if not (0.0 < self.t_id < self.t_p):
            raise ValueError(f"t_id must be in (0, t_p), got {self.t_id}")
        for name in ("t_guard", "delta_r"):
            value = getattr(self, name)
            if not (0.0 <= value < math.inf):
                raise ValueError(f"{name} must be >= 0, got {value}")
        try:
            u = detection_constant(self).u
        except (ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"the detection constant u cannot be computed "
                             f"from tau and alpha: {exc}") from None
        if not (0.0 < u < math.inf):
            raise ValueError(f"the detection constant u must be finite and "
                             f"positive, got {u}")

    def with_tx_power(self, p_t: float) -> "PhyConfig":
        return replace(self, p_t=p_t)


@dataclass(frozen=True)
class DetectionConstant:
    """Threshold U (m^-alpha) for the unscaled aggregate power sum."""

    u: float
    alpha: float

    @property
    def single_relay_radius(self) -> float:
        """Reach of a lone transmitter on the axis: U^(-1/alpha)."""
        return self.u ** (-1.0 / self.alpha)


def group_pairs(a_sizes, b_sizes, b_first=None) -> tuple[np.ndarray,
                                                         np.ndarray]:
    """Index pairs (i, j) matching each a-member of a group with each
    b-member of the same group. Members are numbered across the groups,
    group after group, b-members from b_first per group where given; the
    pairs run a-member by a-member, each meeting its group's b-members in
    ascending order."""
    a_sizes, b_sizes = np.asarray(a_sizes), np.asarray(b_sizes)
    if b_first is None:
        b_first = b_sizes.cumsum() - b_sizes
    per_a = b_sizes.repeat(a_sizes)
    first_pair = per_a.cumsum() - per_a
    j = (b_first.repeat(a_sizes) - first_pair).repeat(per_a)
    j += np.arange(j.size)
    return np.arange(per_a.size).repeat(per_a), j


# a group with this many receiver-transmitter pairs or more is summed as its
# own (K, N) array, which stays in cache; smaller ones are paired in one pass
# (the measured crossover: docs/decisions.md, ENG-LOCKSTEP)
_GROUP_PAIRS = 1024


def aggregate_power(xs, ys, relay_xs: np.ndarray, relay_ys: np.ndarray,
                    alpha: float, sizes=None) -> np.ndarray:
    """Unscaled aggregate H = sum_k d_k^-alpha at each receiver.

    xs, ys hold N receivers (or one, as scalars), relay_xs, relay_ys the K
    transmitters; d^2 is built as a (K, N) array and summed over axis 0. A
    receiver on a transmitter gets inf (numpy flags the division by zero).
    With sizes = (receivers, transmitters) per group, both come in groups and
    a receiver hears only its own group's transmitters, with the rounding of
    its group's own (K, N) sum: numpy adds a C-order (K, N) array term by
    term in transmitter order, but the K terms of a lone receiver run along
    the contiguous axis, which it sums pairwise from 8 terms on.
    """
    if sizes is None:
        d2 = (xs - relay_xs[:, None]) ** 2 + (ys - relay_ys[:, None]) ** 2
        return np.add.reduce(d2 ** (-alpha / 2.0), axis=0)
    n_rx, n_tx = (np.asarray(n) for n in sizes)
    own = (n_rx * n_tx >= _GROUP_PAIRS) | (n_rx == 1)
    # the other groups' pairs, transmitter by transmitter: a bincount adds
    # each receiver's terms in pair order
    r_end, t_end = n_rx.cumsum(), n_tx.cumsum()
    tx, rx = group_pairs(n_tx, np.where(own, 0, n_rx), r_end - n_rx)
    d2 = (xs.take(rx) - relay_xs.take(tx)) ** 2 \
        + (ys.take(rx) - relay_ys.take(tx)) ** 2
    # (with no pairs at all, bincount returns integers)
    h = np.bincount(rx, weights=d2 ** (-alpha / 2.0),
                    minlength=xs.size).astype(float, copy=False)
    for i in own.nonzero()[0].tolist():
        r, t = slice(r_end[i] - n_rx[i], r_end[i]), \
            slice(t_end[i] - n_tx[i], t_end[i])
        h[r] = aggregate_power(xs[r], ys[r], relay_xs[t], relay_ys[t], alpha)
    return h


def detection_constant(phy: PhyConfig) -> DetectionConstant:
    """Detection threshold: a receiver detects iff H = sum d_k^-alpha >= U."""
    ln_term = math.log(1.0 / (1.0 - phy.tau))
    u = (
        (phy.n_s * phy.p_n / (2.0 * phy.p_t))
        * (4.0 * math.pi / phy.lambda_c) ** phy.alpha
        * phy.gamma_t
        / ln_term
    )
    return DetectionConstant(u=u, alpha=phy.alpha)


def power_sum(x: float, y: float, relay_xs: np.ndarray, relay_ys: np.ndarray, alpha: float) -> float:
    """Unscaled aggregate H(x, y) = sum_k d_k^-alpha; inf on a relay."""
    return float(aggregate_power(x, y, relay_xs, relay_ys, alpha)[0])


def coverage_contour(axial, lateral, starts, u: float,
                     alpha: float) -> np.ndarray:
    """On-axis coverage contour of each relay set: the largest x with
    H(x, 0) = u ahead of the set's front x_lo = max axial; NaN if H < u there.

    Set i's strip frame starts at index starts[i] of axial and lateral (the
    contour at lateral offset y is the on-axis one of lateral - y). H falls
    to at most u at x_lo + (K/u)^(1/alpha). Newton steps on
    g = H^(-1/alpha) - u^(-1/alpha), linear for a lone on-axis relay, solve
    all sets at once; a step that leaves the bracket bisects it, as H is not
    convex near a laterally offset relay. Near tangency the root is
    ill-conditioned in the inputs (docs/decisions.md, CH-TANGENT).
    """
    axial = np.asarray(axial, dtype=float)
    lat2 = np.asarray(lateral, dtype=float) ** 2
    starts = np.asarray(starts, dtype=np.intp)
    sizes = np.diff(starts, append=axial.size)
    seg = np.repeat(np.arange(starts.size), sizes)

    def h_and_slope(x):  # per set: H and -H'/alpha = sum (x - x_k) d_k^-(alpha+2)
        d = x[seg] - axial
        d2 = d * d + lat2
        p = d2 ** (-alpha / 2.0)
        return np.add.reduceat(p, starts), np.add.reduceat(d * p / d2, starts)

    lo = np.maximum.reduceat(axial, starts)
    reach = (sizes / u) ** (1.0 / alpha)
    # a lone on-axis relay's root is lo + reach: start a few ulps past it
    x = hi = lo + reach + 8.0 * np.spacing(np.abs(lo) + reach)
    tol = 1e-12 * (np.abs(lo) + reach)
    with np.errstate(divide="ignore", invalid="ignore"):  # H(lo) = inf on axis
        h, _ = h_and_slope(lo)
        out, todo = np.where(h >= u, lo, np.nan), h > u
        for _ in range(100):  # bisection alone would need about 50
            if not todo.any():
                break
            h, slope = h_and_slope(x)
            h_root = h ** (-1.0 / alpha)
            g = h_root - u ** (-1.0 / alpha)
            lo, hi = np.where(g < 0.0, x, lo), np.where(g > 0.0, x, hi)
            step = g * h / (h_root * slope)  # g / g'
            # test the raw step, so an iterate on a bracket end stays there
            converged = np.abs(step) <= tol
            x = np.where(converged | ((x - step > lo) & (x - step < hi)),
                         x - step, 0.5 * (lo + hi))
            done = todo & (converged | (hi - lo <= tol))
            out[done] = x[done]
            todo &= ~done
    return out


def __getattr__(name: str):
    # nothing here calls brentq: the benchmark's span tracer rebinds
    # channel.brentq by name, so scipy.optimize loads only when it asks
    if name == "brentq":
        from scipy.optimize import brentq
        return brentq
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
