"""Beaconless contention baseline: RTS/CTS cycle walk, energy and delay formulas."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import PhyConfig, detection_constant
from .field import FieldConfig, deploy

MAX_CYCLES_PER_HOP = 512   # empty contention cycles before a hop deadlocks
FIELD_REACHES = 6.0        # width of a walk's field, in transmission ranges


@dataclass(frozen=True)
class BclConfig:
    """Contention-cycle baseline parameters, checked on construction.

    The transmission range and the positive-progress fraction are not
    parameters: the walk derives them from the PHY (the single-transmitter
    detection reach) and the forward-lens geometry at half the
    source-destination distance.
    """

    n_p: int = 4                   # slots per contention cycle
    t_s: float = 3.5e-3            # RTS/CTS slot duration, s

    def __post_init__(self) -> None:
        if not (self.n_p >= 1):
            raise ValueError(f"n_p must be >= 1, got {self.n_p}")
        if not (0.0 < self.t_s < math.inf):
            raise ValueError(f"t_s must be positive, got {self.t_s}")


@dataclass
class CycleOutcome:
    m_e: int            # empty slots before the first CTS
    m_n: int            # CTS slots used, including the final clean one
    winner_index: int   # position within the candidate array passed in


@dataclass
class BclResult:
    e_eta: float
    e_m_e: float
    e_m_n: float
    e_hops: float
    e2e_energy_j: float
    e2e_delay_s: float
    delivered: int
    trials: int
    per_hop: list  # (trial, hop, eta, m_e, m_n, progress)


def xi_geometric(d_to_dst: float, d_m: float) -> float:
    """Fraction of the coverage disc offering positive progress.

    Area of the lens between disc(holder, d_m) and disc(destination,
    d_to_dst), over the disc area; approaches 1/2 as the destination recedes.
    """
    if d_to_dst <= d_m:
        return 1.0
    if d_to_dst > 50.0 * d_m:
        # far field: the progress boundary is a shallow arc through the
        # holder curving around the destination
        return 0.5 - d_m / (3.0 * math.pi * d_to_dst)
    r1, r2 = d_m, d_to_dst
    d12 = d_to_dst
    a1 = r1 * r1 * math.acos((d12 * d12 + r1 * r1 - r2 * r2) / (2 * d12 * r1))
    a2 = r2 * r2 * math.acos((d12 * d12 + r2 * r2 - r1 * r1) / (2 * d12 * r2))
    a3 = 0.5 * math.sqrt((-d12 + r1 + r2) * (d12 + r1 - r2)
                         * (d12 - r1 + r2) * (d12 + r1 + r2))
    lens = a1 + a2 - a3
    return lens / (math.pi * r1 * r1)


def contention_cycle(
    progresses: np.ndarray, n_p: int, d_m: float, rng: np.random.Generator
) -> CycleOutcome | None:
    """One non-empty contention cycle; None when no candidate responds.

    Candidates map progress onto slot indices (best progress answers first);
    ties on the earliest occupied slot re-split uniformly until one remains.
    m_n counts every CTS slot used, so a clean winner costs one.
    """
    progresses = np.asarray(progresses, dtype=float)
    if progresses.size == 0:
        return None
    slots = np.floor((1.0 - progresses / d_m) * n_p).astype(int)
    slots = np.clip(slots, 0, n_p - 1)
    first = int(slots.min())
    contenders = np.flatnonzero(slots == first)
    m_n = 1
    split = max(n_p, 2)  # a single slot cannot separate colliders
    while contenders.size > 1:
        m_n += 1
        resplit = rng.integers(0, split, size=contenders.size)
        best = resplit.min()
        contenders = contenders[resplit == best]
    return CycleOutcome(m_e=first, m_n=m_n, winner_index=int(contenders[0]))


def hop_energy_tx(e_eta: float, e_m_e: float, e_m_n: float,
                  cfg: BclConfig, phy: PhyConfig, epsilon: float, rho: float,
                  d_m: float, xi: float) -> float:
    """Mean transmit-side energy of one contention hop."""
    n_s = phy.n_s
    n_p = cfg.n_p
    pool = epsilon * rho * math.pi * d_m * d_m
    total = (
        (e_m_e + 5.0 + e_eta * n_p) * n_s
        + (1.0 + 2.0 * e_m_e * xi) * pool
        + 1.0
        + e_m_e
        + e_eta * n_p
        + xi * n_s * pool / n_p
        + (2.0 + 3.0 * n_s) * (e_m_n - 1.0)
    )
    return phy.p_t * cfg.t_s * total / n_s


def hop_energy_rx(e_eta: float, e_m_e: float, e_m_n: float,
                  cfg: BclConfig, phy: PhyConfig, epsilon: float, rho: float,
                  d_m: float, xi: float) -> float:
    """Mean receive-side energy of one contention hop."""
    pool = epsilon * rho * math.pi * d_m * d_m
    total = (
        (1.0 + 2.0 * xi * e_m_e) * pool
        + 2.0
        + e_m_e
        + e_eta * cfg.n_p
        + 3.0 * (e_m_n - 1.0)
    )
    return phy.p_rx * cfg.t_s * total


def hop_delay(e_eta: float, e_m_e_plus_m_n: float, cfg: BclConfig) -> float:
    """Mean time a packet spends per contention hop."""
    return 2.0 * (e_eta * cfg.n_p + e_m_e_plus_m_n) * cfg.t_s


class BclWalk(NamedTuple):
    """One trial of the baseline."""

    delivered: bool     # the last row is then the destination's own hop
    hops: list          # (hop, eta, m_e, m_n, progress) rows


def bcl_walk(cfg: BclConfig, field_cfg: FieldConfig, phy: PhyConfig,
             tss: np.random.SeedSequence) -> BclWalk:
    """Walk the contention baseline once over a deployment drawn from tss.

    Per cycle the candidate set is the awake (i.i.d. with the duty cycle)
    in-range nodes offering positive progress; the best-progress candidate
    wins after any collision resolution. A hop with an empty forward lens even
    before sleep thinning deadlocks the trial.
    """
    d_m = detection_constant(phy).single_relay_radius
    dep_ss, proto_ss = tss.spawn(2)
    dep = deploy(field_cfg, dep_ss, t_p=phy.t_p,
                 max_strip_width=FIELD_REACHES * d_m)
    rng = np.random.default_rng(proto_ss)
    # the holder (source at the origin, destination on the axis at length)
    # copies its winning entries, so it never passes as its own candidate
    x, y, d_hold = 0.0, 0.0, field_cfg.length
    rows = []
    max_hops = int(20.0 * field_cfg.length / d_m) + 100
    while d_hold > d_m:
        if len(rows) >= max_hops:
            return BclWalk(False, rows)  # micro-progress walk: undelivered
        i0, i1 = dep.window(x - d_m, x + d_m)
        xs, ys = dep.xs[i0:i1], dep.ys[i0:i1]
        in_disc = (xs - x) ** 2 + (ys - y) ** 2 <= d_m * d_m
        d_cand = np.hypot(xs - field_cfg.length, ys)
        forward = in_disc & (d_cand < d_hold)
        if not forward.any():  # structural deadlock: none can ever progress
            return BclWalk(False, rows)
        fx, fy, fd = xs[forward], ys[forward], d_cand[forward]
        fprog = d_hold - fd
        for eta in range(MAX_CYCLES_PER_HOP + 1):  # eta: empty cycles
            awake_idx = np.flatnonzero(rng.random(fx.size) < field_cfg.epsilon)
            if awake_idx.size:
                break
        else:
            return BclWalk(False, rows)
        outcome = contention_cycle(fprog[awake_idx], cfg.n_p, d_m, rng)
        winner = int(awake_idx[outcome.winner_index])
        rows.append((len(rows) + 1, eta, outcome.m_e, outcome.m_n,
                     float(fprog[winner])))
        x, y, d_hold = float(fx[winner]), float(fy[winner]), float(fd[winner])
    # destination in range: it always answers on the first slot
    rows.append((len(rows) + 1, 0, 0, 1, d_hold))
    return BclWalk(True, rows)


def bcl_summary(cfg: BclConfig, field_cfg: FieldConfig, phy: PhyConfig,
                walks: list[BclWalk]) -> BclResult:
    """Means, energy and delay of the walks; per_hop rows carry the index
    of their walk as the trial number."""
    per_hop = [(trial, *row) for trial, walk in enumerate(walks)
               for row in walk.hops]
    hops_per_trial = [len(walk.hops) for walk in walks if walk.delivered]
    if not hops_per_trial:
        return BclResult(*[math.nan] * 6, 0, len(walks), per_hop)
    _, _, etas, mes, mns, _ = zip(*per_hop)
    e_eta, e_m_e, e_m_n = map(lambda v: float(np.mean(v)), (etas, mes, mns))
    e_hops = float(np.mean(hops_per_trial))
    d_m = detection_constant(phy).single_relay_radius
    xi = xi_geometric(field_cfg.length / 2.0, d_m)
    hop_args = (e_eta, e_m_e, e_m_n, cfg, phy, field_cfg.epsilon,
                field_cfg.rho, d_m, xi)
    he = hop_energy_tx(*hop_args) + hop_energy_rx(*hop_args)
    hd = hop_delay(e_eta, e_m_e + e_m_n, cfg)
    return BclResult(e_eta, e_m_e, e_m_n, e_hops, e_hops * he, e_hops * hd,
                     len(hops_per_trial), len(walks), per_hop)


def run_bcl(cfg: BclConfig, field_cfg: FieldConfig, phy: PhyConfig,
            trials: int, seed: int) -> BclResult:
    """Monte Carlo walk of the contention baseline over fresh deployments:
    trial i walks on child i of SeedSequence(seed)."""
    return bcl_summary(cfg, field_cfg, phy, [
        bcl_walk(cfg, field_cfg, phy, tss)
        for tss in np.random.SeedSequence(seed).spawn(trials)])
