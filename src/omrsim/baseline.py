"""Beaconless contention baseline: RTS/CTS cycle walk, energy and delay formulas."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import PhyConfig, detection_constant
from .field import FieldConfig, deploy

MAX_CYCLES_PER_HOP = 512   # empty contention cycles before a hop deadlocks


@dataclass
class BclConfig:
    """Contention-cycle baseline parameters.

    d_m and xi default to None: the transmission range is then derived from
    the detection constant at the baseline's transmit power, and the
    positive-progress fraction from the forward-lens geometry at half the
    source-destination distance.
    """

    d_m: float | None = None       # disc transmission range, m
    n_p: int = 4                   # slots per contention cycle
    t_s: float = 3.5e-3            # RTS/CTS slot duration, s
    xi: float | None = None        # fraction of in-range nodes with progress

    def validate(self) -> None:
        if self.n_p < 1:
            raise ValueError("n_p must be >= 1")
        if self.t_s <= 0:
            raise ValueError("t_s must be positive")
        if self.d_m is not None and self.d_m <= 0:
            raise ValueError("d_m must be positive")
        if self.xi is not None and not (0.0 < self.xi <= 1.0):
            raise ValueError("xi must be in (0, 1]")


@dataclass
class CycleOutcome:
    m_e: int            # empty slots before the first CTS
    m_n: int            # CTS slots used, including the final clean one
    winner_progress: float
    winner_index: int = -1  # position within the candidate array passed in


@dataclass
class BclResult:
    e_eta: float
    e_m_e: float
    e_m_n: float
    e_hops: float
    e_progress: float
    hop_energy_j: float
    hop_delay_s: float
    e2e_energy_j: float
    e2e_delay_s: float
    delivered: int
    trials: int
    per_hop: list  # (trial, hop, eta, m_e, m_n, progress)


def default_range(phy: PhyConfig) -> float:
    """Disc range aligned with the single-transmitter detection reach."""
    return detection_constant(phy).single_relay_radius


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
    winner = int(contenders[0])
    return CycleOutcome(m_e=first, m_n=m_n,
                        winner_progress=float(progresses[winner]),
                        winner_index=winner)


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


def run_bcl(
    cfg: BclConfig,
    field_cfg: FieldConfig,
    phy: PhyConfig,
    trials: int,
    seed: int,
) -> BclResult:
    """Monte Carlo walk of the contention baseline over fresh deployments.

    Per cycle the candidate set is the awake (i.i.d. with the duty cycle)
    in-range nodes offering positive progress; the best-progress candidate
    wins after any collision resolution. A hop with an empty forward lens even
    before sleep thinning deadlocks the trial.
    """
    cfg.validate()
    field_cfg.validate()
    d_m = cfg.d_m if cfg.d_m is not None else default_range(phy)
    dst = np.array([field_cfg.length, 0.0])

    ss = np.random.SeedSequence(seed)
    per_hop = []
    hops_per_trial = []
    delivered = 0

    for trial, tss in enumerate(ss.spawn(trials)):
        dep_ss, proto_ss = tss.spawn(2)
        dep = deploy(field_cfg, dep_ss, t_p=phy.t_p, max_strip_width=6.0 * d_m)
        rng = np.random.default_rng(proto_ss)
        holder = np.array([0.0, 0.0])
        d_hold = float(np.linalg.norm(holder - dst))
        hops = 0
        alive = True
        max_hops = int(20.0 * field_cfg.length / d_m) + 100

        while d_hold > d_m:
            if hops >= max_hops:
                alive = False  # micro-progress walk; report as undelivered
                break
            i0, i1 = dep.window(holder[0] - d_m, holder[0] + d_m)
            xs = dep.xs[i0:i1]
            ys = dep.ys[i0:i1]
            in_disc = (xs - holder[0]) ** 2 + (ys - holder[1]) ** 2 <= d_m * d_m
            d_cand = np.hypot(xs - dst[0], ys - dst[1])
            forward = in_disc & (d_cand < d_hold)
            if not forward.any():
                alive = False  # structural deadlock: nobody can ever progress
                break
            fx = xs[forward]
            fy = ys[forward]
            fprog = d_hold - d_cand[forward]
            eta = 0
            outcome = None
            awake_idx = None
            while eta <= MAX_CYCLES_PER_HOP:
                awake = rng.random(fx.size) < field_cfg.epsilon
                if awake.any():
                    awake_idx = np.flatnonzero(awake)
                    outcome = contention_cycle(fprog[awake_idx], cfg.n_p, d_m, rng)
                    break
                eta += 1
            if outcome is None:
                alive = False
                break
            winner = int(awake_idx[outcome.winner_index])
            holder = np.array([fx[winner], fy[winner]])
            d_hold = float(np.linalg.norm(holder - dst))
            hops += 1
            per_hop.append((trial, hops, eta, outcome.m_e, outcome.m_n,
                            outcome.winner_progress))

        if alive:
            # destination in range: it always answers on the first slot
            hops += 1
            per_hop.append((trial, hops, 0, 0, 1, d_hold))
            delivered += 1
            hops_per_trial.append(hops)

    if not delivered:
        return BclResult(math.nan, math.nan, math.nan, math.nan, math.nan,
                         math.nan, math.nan, math.nan, math.nan,
                         0, trials, per_hop)

    _, _, etas, mes, mns, progs = zip(*per_hop)
    e_eta, e_m_e, e_m_n = map(lambda v: float(np.mean(v)), (etas, mes, mns))

    e_hops = float(np.mean(hops_per_trial))
    xi = cfg.xi if cfg.xi is not None else xi_geometric(field_cfg.length / 2.0, d_m)
    he = hop_energy_tx(e_eta, e_m_e, e_m_n, cfg, phy, field_cfg.epsilon,
                       field_cfg.rho, d_m, xi) \
        + hop_energy_rx(e_eta, e_m_e, e_m_n, cfg, phy, field_cfg.epsilon,
                        field_cfg.rho, d_m, xi)
    hd = hop_delay(e_eta, e_m_e + e_m_n, cfg)
    return BclResult(
        e_eta=e_eta, e_m_e=e_m_e, e_m_n=e_m_n, e_hops=e_hops,
        e_progress=float(np.mean(progs)),
        hop_energy_j=he, hop_delay_s=hd,
        e2e_energy_j=e_hops * he, e2e_delay_s=e_hops * hd,
        delivered=delivered, trials=trials, per_hop=per_hop,
    )
