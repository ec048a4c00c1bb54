"""Closed-form hop statistics: resolvability pmfs, progress law, Poisson mixtures."""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, pdtr, pdtrik, xlogy

from .field import FieldConfig


class CalibrationError(RuntimeError):
    """Progress fit is degenerate (single relay-count value or too few samples)."""


class TruncationError(RuntimeError):
    """Distribution support exceeded the hard cap before reaching the tail bound."""


S_SUPPORT_CAP = 4096
TAIL_TOL = 1e-9         # pmf mass a truncation may drop
MAX_HOPS = 512          # recursion hops before it counts as diverged
MIN_BIN = 5             # samples a relay-count bin needs to enter the MAPE
_MIX_CHUNK = 512        # mixture components evaluated per block
_DIAG_CHUNK = 16        # relay-pmf product rows per block, see _relay_pmf
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(128)


class _Poisson:
    """scipy.stats.poisson's pmf and isf on scipy.special alone; importing
    scipy.stats for one tail quantile per mixture would take longer than
    most runs spend in the recursion."""

    @staticmethod
    def pmf(k, mu):
        return np.exp(xlogy(k, mu) - gammaln(k + 1) - mu)

    @staticmethod
    def isf(q: float, mu: float) -> int:
        p = 1.0 - q                         # scipy's poisson._ppf(1 - q, mu)
        k = math.ceil(pdtrik(p, mu))
        return k - 1 if pdtr(k - 1, mu) >= p else k


_poisson = _Poisson()


@dataclass
class IntDist:
    """Pmf over non-negative integers with bounded truncation loss."""

    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)

    @property
    def support(self) -> int:
        return self.probs.size

    def total(self) -> float:
        return float(self.probs.sum())

    def mean(self) -> float:
        return float(np.arange(self.probs.size) @ self.probs)

    def check_normalized(self) -> None:
        total = self.total()
        if not (1.0 - TAIL_TOL <= total <= 1.0 + 1e-12):
            raise TruncationError(f"pmf mass {total} outside [1 - TAIL_TOL, 1]")

    def truncated(self) -> "IntDist":
        """Drop the upper tail beyond TAIL_TOL of mass and renormalize.

        Renormalizing keeps repeated convolution/mixture steps from
        accumulating truncation losses past the tolerance.
        """
        c = np.cumsum(self.probs[::-1])[::-1]
        keep = int(np.argmax(c < TAIL_TOL)) if (c < TAIL_TOL).any() \
            else self.probs.size
        keep = max(keep, 1)
        if keep > S_SUPPORT_CAP:
            raise TruncationError(f"support {keep} exceeds cap {S_SUPPORT_CAP}")
        kept = self.probs[:keep]
        total = kept.sum()
        if total <= 0.0:
            raise TruncationError("no probability mass left after truncation")
        return IntDist(kept / total)

    def convolve(self, other: "IntDist") -> "IntDist":
        return IntDist(np.convolve(self.probs, other.probs)).truncated()

    def zero_truncated(self) -> "IntDist":
        """Condition on the value being at least 1."""
        if self.probs.size < 2:
            raise ValueError("cannot zero-truncate a point mass at 0")
        p = self.probs.copy()
        p0 = p[0]
        if p0 >= 1.0:
            raise ValueError("all mass at zero")
        p[0] = 0.0
        return IntDist(p / (1.0 - p0))

    @staticmethod
    def point_mass(value: int) -> "IntDist":
        p = np.zeros(value + 1)
        p[value] = 1.0
        return IntDist(p)


def _p_z_prefix(k: int, b: int, z_max: int) -> list[float]:
    """[p_1, .., p_{z_max}]: weights of z resolvable relays among k over b slots.

    Evaluated by the recursion p_1 = ((b-1)/b)^(k-1),
    p_z = p_{z-1} ((b-z)/(b-z+1))^(k-z) for z = 2..b-2, and 0 for z >= b-1,
    one multiplication per step. The z = 1 form takes precedence at b = 2.
    Exactness is approximate by construction; the enumeration oracle in the
    tests quantifies the gap.
    """
    val = ((b - 1) / b) ** (k - 1)
    out = [val]
    for m in range(2, z_max + 1):
        if m >= b - 1:
            out.extend([0.0] * (z_max - m + 1))
            break
        val *= ((b - m) / (b - m + 1)) ** (k - m)
        out.append(val)
    return out


def check_recursion_slots(b: int) -> None:
    """The recursion's slot rule: p_j conditions on b - 1 slots, so b >= 3."""
    if not (b >= 3):
        raise ValueError(f"RACH slot count b must be >= 3 for the analytic "
                         f"recursion, got {b}")


_BINOMIAL: dict[int, tuple[np.ndarray, list[int]]] = {}


def _binomial_table(z_max: int, n: int) -> np.ndarray:
    """float(C(m, z)) at [z, m] for z = 0..z_max and m = 0..n-1 at least.

    One table per z_max, shared by every relay count and grown on demand
    along m by Pascal's rule on exact ints; only the exact row of the last
    m is kept, so the floats are those of the exact binomials.
    """
    if z_max not in _BINOMIAL:              # C(0, z)
        _BINOMIAL[z_max] = np.eye(z_max + 1, 1), [1] + [0] * z_max
    table, exact = _BINOMIAL[z_max]
    if table.shape[1] < n:
        cols = []
        for _ in range(table.shape[1], n):
            exact = [1] + [a + b for a, b in zip(exact[1:], exact)]
            cols.append([float(c) for c in exact])
        table = np.concatenate([table, np.array(cols).T], axis=1)
        _BINOMIAL[z_max] = table, exact
    return table


@lru_cache(maxsize=4096)
def _p_j_weights(k: int, b: int) -> np.ndarray:
    """[p_j(0), .., p_j(k)] before normalization, built in one pass.

    p_z at b-1 slots is evaluated once for the z that can be nonzero (z = 1,
    and z = 2..b-3); the z at or beyond b-2 add a zero term and are skipped.
    Each j's alternating sum is a running sum over z in order (+-0.0 where
    C(j-1, z) = 0), so every weight has the rounding of the term-by-term sum.
    The j = 0 weight is one minus the j >= 1 weights summed in order of j.
    """
    check_recursion_slots(b)
    if k < 1:
        raise ValueError(f"relay count k must be >= 1, got {k}")
    z_cap = max(1, b - 3)
    z_max = min(k - 1, z_cap)
    pz = _p_z_prefix(k, b - 1, z_max) if z_max >= 1 else []
    coef = np.array([1.0] + pz)
    coef[1::2] *= -1.0                     # [1, -p_1, +p_2, ..]
    comb = _binomial_table(z_cap, k)       # comb[z, j - 1] = C(j - 1, z)
    # accumulate, not reduce: a reduce along a contiguous axis sums pairwise
    acc = np.add.accumulate(comb[:coef.size, :k] * coef[:, None], axis=0)[-1]
    heads = ((b - 1) / b) ** (k - 1) * acc
    heads = np.where(heads > 0.0, heads, 0.0)
    vals = np.empty(k + 1)
    vals[0] = max(0.0, 1.0 - sum(heads.tolist()))
    vals[1:] = heads
    vals.flags.writeable = False
    return vals


def p_j(j: int, k: int, b: int) -> float:
    """First-resolvable-index weight for k relays over b slots.

    For j >= 1 this is the inclusion-exclusion form
    ((b-1)/b)^(k-1) (1 + sum_z (-1)^z C(j-1, z) p_z) with the conditioned p_z
    re-evaluated at b-1 slots. The all-collided weight (j = 0) is assigned by
    complement, as the printed j = 0 branch is not a probability (it can leave
    [0, 1]); the tests report the residual gap against exhaustive enumeration.
    """
    weights = _p_j_weights(k, b)
    if not (0 <= j <= k):
        raise ValueError(f"j must be in [0, {k}], got {j}")
    return float(weights[j])


def p_j_pmf(k: int, b: int) -> np.ndarray:
    """Vector [p_j(0), .., p_j(k)] normalized to sum exactly to one."""
    vals = _p_j_weights(k, b)
    return vals / vals.sum()


@dataclass(frozen=True)
class ProgressModel:
    """Per-hop contour advance: delta_x = varphi * K + beta * U^(-1/alpha)."""

    varphi: float
    beta: float
    u: float
    alpha: float

    @property
    def r1(self) -> float:
        """First-hop contour on the axis."""
        return self.u ** (-1.0 / self.alpha)

    def validate(self) -> None:
        if self.varphi <= 0:
            raise ValueError("varphi must be positive")


def x_h_step(x_prev: float, k_prev: int, model: ProgressModel) -> float:
    """One application of the linear progress recursion."""
    return x_prev + model.varphi * k_prev + model.beta * model.r1


def calibrate_progress(
    k_prev: np.ndarray,
    dx: np.ndarray,
    u: float,
    alpha: float,
) -> tuple[ProgressModel, float]:
    """Least-squares fit of per-hop contour advance against relay count.

    Fits dx = varphi * K + beta * U^(-1/alpha) on raw samples. The reported
    MAPE compares fitted against observed total contour offsets (dx + r1,
    binned per relay count), which keeps the relative error well defined at
    K = 1 where the co-located law gives dx = 0.
    """
    k_prev = np.asarray(k_prev, dtype=float)
    dx = np.asarray(dx, dtype=float)
    ok = np.isfinite(k_prev) & np.isfinite(dx)
    k_prev, dx = k_prev[ok], dx[ok]
    if k_prev.size < 100:
        raise CalibrationError(f"need >= 100 samples, got {k_prev.size}")
    if np.unique(k_prev).size < 2:
        raise CalibrationError("samples span a single relay-count value")

    r1 = u ** (-1.0 / alpha)
    design = np.column_stack([k_prev, np.full(k_prev.size, r1)])
    (varphi, beta), *_ = np.linalg.lstsq(design, dx, rcond=None)
    model = ProgressModel(varphi=float(varphi), beta=float(beta), u=u, alpha=alpha)

    errs = []
    for kv in np.unique(k_prev):
        sel = k_prev == kv
        if sel.sum() < MIN_BIN:
            continue
        observed = dx[sel].mean() + r1
        fitted = varphi * kv + beta * r1 + r1
        errs.append(abs(fitted - observed) / observed)
    if not errs:
        raise CalibrationError("no relay-count bin has enough samples")
    return model, float(np.mean(errs))


def x_c(x_h_prev: float, j_prev: int, rho: float, epsilon: float) -> float:
    """Decision-arc position behind the previous coverage contour.

    Uses the sector nearest-neighbor distance for the j-th relay; the radicand
    is clamped at zero (j = 1 keeps the arc on the contour itself).
    """
    if j_prev < 1:
        raise ValueError("j_prev must be >= 1; the all-collided case is the "
                         "caller's fallback")
    radicand = (2.0 / (math.pi * epsilon * rho)) * (j_prev - 1.0 - math.pi / 4.0)
    return x_h_prev - math.sqrt(max(0.0, radicand))


def _arc_positions(x0: float | np.ndarray, y: np.ndarray,
                   dst_x: float | None) -> np.ndarray:
    """Contours through (x0, 0) as arcs centered on the destination.

    The result has shape x0.shape + y.shape. dst_x = None is the large-radius
    (flat) limit. An arc that would sit past the destination degenerates to
    the flat line through x0.
    """
    x0 = np.asarray(x0, dtype=float)[..., None]
    if dst_x is None:
        return np.broadcast_to(x0, x0.shape[:-1] + y.shape)
    r = dst_x - x0
    arc = dst_x - np.sqrt(np.maximum(r * r - y * y, 0.0))
    return np.where(dst_x <= x0, x0, arc)


def areas(
    x_lo: float | np.ndarray,
    x_hi: float | np.ndarray,
    w: float,
    dst_x: float | None = None,
) -> float | np.ndarray:
    """Area across the strip between the contours through x_lo and x_hi.

    Contours are arcs centered on the destination through their on-axis
    positions (flat lines when dst_x is None), integrated across y. The
    positions may be arrays that broadcast together; the area is then an
    array of that shape, from one quadrature matmul.
    """
    x_lo = np.asarray(x_lo, dtype=float)
    x_hi = np.asarray(x_hi, dtype=float)
    if not np.all(x_lo <= x_hi + 1e-9 * np.maximum(1.0, np.abs(x_hi))):
        raise ValueError("contours must satisfy x_lo <= x_hi")
    y = 0.5 * w * _GL_NODES
    band = np.maximum(_arc_positions(x_hi, y, dst_x)
                      - _arc_positions(x_lo, y, dst_x), 0.0)
    area = band @ (0.5 * w * _GL_WEIGHTS)
    return float(area) if area.ndim == 0 else area


def first_hop_areas(r1: float, w: float) -> tuple[float, float]:
    """Decode and relay areas of the source's own transmission.

    The decode region is the full disc; the relay region is the forward half
    clipped to the strip.
    """
    a_decode = math.pi * r1 * r1
    ylim = min(r1, w / 2.0)
    # integral of sqrt(r1^2 - y^2) over [-ylim, ylim]
    a_relay = ylim * math.sqrt(max(r1 * r1 - ylim * ylim, 0.0)) \
        + r1 * r1 * math.asin(min(1.0, ylim / r1))
    return a_decode, a_relay


@dataclass
class HopRecursionState:
    """Carry-over between hops: relay-count pmfs, anchor, previous decode band."""

    i: int
    dist_k_prev: IntDist        # relays formed at hop i-1
    dist_k_prev2: IntDist       # relays formed at hop i-2
    x_anchor_prev: float        # mean on-axis contour of hop i-1
    a_decode_prev: np.ndarray   # hop i-1's decode band per relay count of i-2


@dataclass
class HopRow:
    hop: int
    e_k: float        # E[relays formed at this hop]
    e_l: float        # E[decoding-set size]
    e_nr: float       # E[retransmissions]
    xh0: float        # mean on-axis coverage contour of this hop's transmission


@dataclass
class HopStatistics:
    rows: list[HopRow]
    dists_k: list[IntDist] = dc_field(default_factory=list)
    dists_l: list[IntDist] = dc_field(default_factory=list)


def _support_size(means: np.ndarray) -> int:
    """Points [0, hi) a Poisson mixture over these means is evaluated on."""
    top = float(means.max(initial=0.0))
    return int(_poisson.isf(TAIL_TOL * 0.1, top)) + 2 if top > 0 else 1


def _poisson_rows(means: np.ndarray, log_fact: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Pmf rows of Poisson(means) on [0, log_fact.size), in out if given.

    n log(m) - gammaln(n + 1) - m with log(m) from xlogy's libm log (numpy's
    SIMD log rounds differently), exponentiated in place; a zero mean gives
    the point mass at 0.
    """
    if out is None:
        out = np.empty((means.size, log_fact.size))
    np.multiply(np.arange(1, log_fact.size), xlogy(1.0, means)[:, None],
                out=out[:, 1:])
    out[:, 0] = 0.0                      # xlogy(0, m) = 0, also at m = 0
    out -= log_fact
    out -= means[:, None]
    return np.exp(out, out=out)


def poisson_mixture(means: np.ndarray, weights: np.ndarray) -> IntDist:
    """Sum_w Poisson(mean_w), truncated to the tail tolerance.

    Components run in blocks of _MIX_CHUNK rows through one reused buffer,
    each block reduced by weights @ pmf.
    """
    hi = _support_size(means)
    log_fact = gammaln(np.arange(hi) + 1.0)
    keep = weights > 0.0
    means, weights = means[keep], weights[keep]
    block = np.empty((min(means.size, _MIX_CHUNK), hi))
    probs = np.zeros(hi)
    for lo in range(0, means.size, _MIX_CHUNK):
        m = means[lo:lo + _MIX_CHUNK]
        probs += weights[lo:lo + _MIX_CHUNK] @ _poisson_rows(
            m, log_fact, block[:m.size])
    return IntDist(probs).truncated()


def _relay_pmf(weights: np.ndarray, mean_k: np.ndarray, mean_j: np.ndarray,
               hi: int) -> IntDist:
    """Sum over (K, j) of weights[K, j] Poisson(mean_k[K] + mean_j[j]) on
    [0, hi), truncated to the tail tolerance.

    Poisson(l + m) is Poisson(l) convolved with Poisson(m), so the mixture
    is sum_K P_K * Q_K with P_K the Poisson(mean_k[K]) row and
    Q = weights @ S over the Poisson(mean_j[j]) rows S: K + J rows of exp in
    place of one per component, and on [0, hi) the product is exact. The
    convolutions are the anti-diagonal sums of Q^T @ P, taken _DIAG_CHUNK
    columns of Q at a time; P is taken _MIX_CHUNK rows at a time, and S has
    one row per sliver index. Blocks this small keep each matrix product of
    the benchmark inputs near 10^5 multiply-adds, which OpenBLAS runs on one
    thread; it splits larger ones across threads, and those stalled for
    milliseconds whenever the other core was busy.
    """
    log_fact = gammaln(np.arange(hi) + 1.0)
    s = _poisson_rows(mean_j, log_fact)
    probs = np.zeros(hi)
    for k0 in range(0, mean_k.size, _MIX_CHUNK):
        w = weights[k0:k0 + _MIX_CHUNK]
        p = _poisson_rows(mean_k[k0:k0 + _MIX_CHUNK], log_fact)
        for a0 in range(0, hi, _DIAG_CHUNK):
            rows, cols = min(_DIAG_CHUNK, hi - a0), hi - a0
            q = w @ s[:, a0:a0 + rows]
            buf = np.zeros((rows, cols + rows))
            np.matmul(q.T, p[:, :cols], out=buf[:, :cols])
            # read with rows one shorter, row r shifts right by r onto the
            # zero padding, so column n sums the products landing on a0 + n
            shifted = buf.reshape(-1)[:rows * (cols + rows - 1)]
            probs[a0:] += shifted.reshape(rows, -1)[:, :cols].sum(axis=0)
    return IntDist(probs).truncated()


def init_recursion(
    field_cfg: FieldConfig, model: ProgressModel
) -> tuple[HopRecursionState, HopRow, IntDist]:
    """Hop-1 statistics: the source transmits alone from a known position."""
    r1 = model.r1
    a_decode, a_relay = first_hop_areas(r1, field_cfg.w)
    lam_k = field_cfg.epsilon * field_cfg.rho * a_relay
    lam_l = field_cfg.epsilon * field_cfg.rho * a_decode
    one = np.ones(1)  # a single component
    dist_k1 = poisson_mixture(np.array([lam_k]), one)
    if dist_k1.support < 2:  # no relay count above 0 within the tolerance
        raise TruncationError(f"the hop-1 relay mean {lam_k!r} is zero to the "
                              f"tail tolerance: no first relay set can form")
    dist_k1 = dist_k1.zero_truncated().truncated()
    dist_l1 = poisson_mixture(np.array([lam_l]), one)
    row = HopRow(
        hop=1,
        e_k=dist_k1.mean(),
        e_l=dist_l1.mean(),
        e_nr=1.0 / math.expm1(lam_k),
        xh0=r1,
    )
    state = HopRecursionState(
        i=2,
        dist_k_prev=dist_k1,
        dist_k_prev2=IntDist.point_mass(1),  # the source itself
        x_anchor_prev=r1,
        a_decode_prev=np.full(2, a_decode),  # the source's full disc
    )
    return state, row, dist_l1


def _relay_mixture(k_prev, ks, a_decode, a_sliver, eps_rho: float, b: int):
    """Relay-band means and positive weights P(K) p_j(j; K, b) over (K, j),
    their j_eff marginal, and the weights as a (K in ks, j_eff) matrix;
    j = 0 falls back to the arc through the farthest relay, j_eff = K."""
    wj = np.concatenate([p_j_pmf(int(k), b) for k in ks])
    k_rep = np.repeat(ks, ks + 1)
    k_row = np.repeat(np.arange(ks.size), ks + 1)
    j_eff = np.arange(k_rep.size) - np.repeat(np.cumsum(ks + 1) - ks - 1, ks + 1)
    j_eff = np.where(j_eff == 0, k_rep, j_eff)
    wj = k_prev.probs[k_rep] * wj
    pos = wj > 0.0
    k_rep, k_row, j_eff, wj = k_rep[pos], k_row[pos], j_eff[pos], wj[pos]
    j_marginal = np.zeros(int(ks[-1]) + 1)
    np.add.at(j_marginal, j_eff, wj)
    w_kj = np.zeros((ks.size, j_marginal.size))
    np.add.at(w_kj, (k_row, j_eff), wj)
    return (eps_rho * (a_decode[k_rep] + a_sliver[j_eff]), wj, j_marginal,
            w_kj)


def propagate_hop(
    state: HopRecursionState,
    field_cfg: FieldConfig,
    model: ProgressModel,
    b: int,
) -> tuple[HopRecursionState, HopRow, IntDist]:
    """Advance the recursion one hop: mixture pmfs for relays and decoders.

    The decode band depends on the previous relay count alone; the eligible
    band adds the decision-arc sliver, whose depth follows the first
    resolvable index. Sleep-staggered members join both with the awake factor
    (1 - epsilon). The relay pmf is conditioned on the hop completing (at
    least one relay), mirroring the retransmission policy; the expected
    retransmission count is taken against the pre-conditioning weights.
    """
    eps = field_cfg.epsilon
    rho = field_cfg.rho
    w = field_cfg.w
    p_wk = 1.0 - eps
    dst_x = field_cfg.length
    anchor = state.x_anchor_prev
    k_prev = state.dist_k_prev
    k_mask = k_prev.probs > 0.0
    ks = np.flatnonzero(k_mask[1:]) + 1
    k_max = int(ks[-1])

    # fresh decode band per relay count k >= 1 with positive mass
    a_decode = np.zeros(k_prev.support)
    a_decode[ks] = areas(anchor, x_h_step(anchor, ks, model), w, dst_x)

    # sliver between the decision arc and the previous contour, by j_eff
    x_cs = [x_c(anchor, j, rho, eps) for j in range(1, k_max + 1)]
    a_sliver = np.zeros(k_max + 1)
    a_sliver[1:] = areas(x_cs, anchor, w, dst_x)

    # decoders: Poisson over the fresh band + sleep-staggered previous band
    p_l = poisson_mixture(eps * rho * a_decode[k_mask], k_prev.probs[k_mask])
    p_l_minus = poisson_mixture(eps * rho * p_wk * state.a_decode_prev,
                                state.dist_k_prev2.probs)
    dist_l = p_l.convolve(p_l_minus)

    means_r, weights_r, j_marginal, w_kj = _relay_mixture(
        k_prev, ks, a_decode, a_sliver, eps * rho, b)
    p_k = _relay_pmf(w_kj, eps * rho * a_decode[ks], eps * rho * a_sliver,
                     _support_size(means_r))
    with np.errstate(over="ignore"):  # a dense band's 1 / inf = 0 is right
        e_nr = float(np.dot(1.0 / np.expm1(means_r), weights_r))

    j_effs = np.flatnonzero(j_marginal > 0.0)
    p_k_minus = poisson_mixture(eps * rho * p_wk * a_sliver[j_effs],
                                j_marginal[j_effs])
    dist_k = p_k.convolve(p_k_minus).zero_truncated().truncated()

    x_anchor = x_h_step(anchor, k_prev.mean(), model)
    row = HopRow(
        hop=state.i,
        e_k=dist_k.mean(),
        e_l=dist_l.mean(),
        e_nr=e_nr,
        xh0=x_anchor,
    )
    new_state = HopRecursionState(
        i=state.i + 1,
        dist_k_prev=dist_k,
        dist_k_prev2=k_prev,
        x_anchor_prev=x_anchor,
        a_decode_prev=a_decode,
    )
    return new_state, row, dist_l


def run_recursion(
    field_cfg: FieldConfig,
    model: ProgressModel,
    b: int,
) -> HopStatistics:
    """Iterate the hop recursion until the mean contour passes the destination."""
    model.validate()
    if x_h_step(0.0, 1, model) <= 0.0:
        raise ValueError("progress model cannot advance the contour")

    state, row1, dist_l1 = init_recursion(field_cfg, model)
    stats = HopStatistics(rows=[row1], dists_k=[state.dist_k_prev],
                          dists_l=[dist_l1])
    if row1.xh0 >= field_cfg.length:
        return stats
    while state.i <= MAX_HOPS:
        state, row, dist_l = propagate_hop(state, field_cfg, model, b)
        stats.rows.append(row)
        stats.dists_k.append(state.dist_k_prev)
        stats.dists_l.append(dist_l)
        if row.xh0 >= field_cfg.length:
            return stats
    raise TruncationError(f"recursion did not reach the destination in "
                          f"{MAX_HOPS} hops")
