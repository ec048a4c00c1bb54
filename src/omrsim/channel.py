"""Link abstraction: aggregate channel power, detection threshold, coverage contour."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

SPEED_OF_LIGHT = 2.998e8  # m/s


class ContourUndefinedError(RuntimeError):
    """No coverage contour ahead of the relay set (aggregate power below threshold)."""


@dataclass(frozen=True)
class PhyConfig:
    """Physical-layer parameters (links, energy), checked on construction."""

    lambda_c: float = 0.125     # carrier wavelength, m (2.4 GHz band)
    alpha: float = 3.0          # path-loss exponent
    n_s: int = 64               # OFDM subcarriers
    p_n: float = 3.0e-15        # noise-plus-interference power per subcarrier, W
    p_t: float = 2.0            # transmit power over the full band, W (33 dBm)
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

    def with_tx_power(self, p_t: float) -> "PhyConfig":
        return replace(self, p_t=p_t)


@dataclass(frozen=True)
class DetectionConstant:
    """Threshold U (m^-alpha) for the unscaled aggregate power sum."""

    u: float
    alpha: float = 3.0

    @property
    def single_relay_radius(self) -> float:
        """Reach of a lone transmitter on the axis: U^(-1/alpha)."""
        return self.u ** (-1.0 / self.alpha)


def aggregate_power(xs, ys, relay_xs: np.ndarray, relay_ys: np.ndarray,
                    alpha: float) -> np.ndarray:
    """Unscaled aggregate H = sum_k d_k^-alpha at each receiver.

    xs, ys hold N receivers (or one, as scalars); d^2 is built as a (K, N)
    array over the K transmitters and summed over axis 0. A receiver on a
    transmitter gets inf (numpy flags the division by zero).
    """
    d2 = (xs - relay_xs[:, None]) ** 2 + (ys - relay_ys[:, None]) ** 2
    return np.add.reduce(d2 ** (-alpha / 2.0), axis=0)


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


def coverage_contour(relays, y: float, u: float, alpha: float = 3.0) -> float:
    """Largest x with H(x, y) = u, ahead of every relay.

    H is strictly decreasing in x beyond max relay x, so the root is unique.
    Bracket by doubling, then solve to near machine precision.

    Near tangency (|y - y_k| close to a relay's reach r) the root is
    ill-conditioned in the inputs, not in the solve: moving y or r by delta
    moves the exact root by about sqrt(2 r delta). At r ~ 113 m, rounding of
    the inputs alone (delta ~ 1e-14 m) shifts it by about 1e-6 m, so a lone
    relay at |y| = u ** (-1/alpha) has a small positive reach, or none.
    """
    xy = np.asarray(relays, dtype=float).reshape(-1, 2)
    if xy.shape[0] == 0:
        raise ValueError("coverage_contour needs at least one relay")
    relay_xs, relay_ys = xy.T.copy()  # contiguous rows for the many H calls
    x_lo = float(np.max(relay_xs))

    def h_minus_u(x: float) -> float:
        return power_sum(x, y, relay_xs, relay_ys, alpha) - u

    # a relay on the line y puts H = inf at x_lo, where the solve starts
    with np.errstate(divide="ignore"):
        f_lo = h_minus_u(x_lo)
        if f_lo == 0.0:
            return x_lo
        if f_lo < 0.0:
            raise ContourUndefinedError(
                "aggregate power already below threshold at the relay front"
            )

        step = max(1.0, (relay_xs.size / u) ** (1.0 / alpha))
        x_hi = x_lo + step
        while h_minus_u(x_hi) > 0.0:
            step *= 2.0
            x_hi = x_lo + step
            if step > 1e9:
                raise ContourUndefinedError("no contour crossing found within 1e9 m")

        return float(brentq(h_minus_u, x_lo, x_hi, xtol=1e-12, rtol=8.9e-16))
