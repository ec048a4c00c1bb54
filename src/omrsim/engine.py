"""OMR forwarding engine: decode/relay sets, RACH resolvability, retransmission, trials."""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .channel import (
    SPEED_OF_LIGHT,
    ContourUndefinedError,
    PhyConfig,
    aggregate_power,
    coverage_contour,
    detection_constant,
)
from .field import (
    Deployment,
    FieldConfig,
    Point2D,
    Strip,
    awake_mask,
    deploy,
)


@dataclass
class PacketHeader:
    src: Point2D
    dst: Point2D
    strip_width: float
    b: int                      # RACH slot count

    def validate(self) -> None:
        if self.b < 2:
            raise ValueError(f"RACH slot count b must be >= 2, got {self.b}")
        if self.strip_width <= 0:
            raise ValueError("strip_width must be positive")


@dataclass(frozen=True)
class RetransmitPolicy:
    n_r_max: int = 5      # retransmissions allowed per hop
    delta_w: float = 50.0  # strip widening per retransmission, m
    fa_rate: float = 0.0   # false-alarm probability per listening relay

    def validate(self) -> None:
        if self.n_r_max < 0:
            raise ValueError("n_r_max must be >= 0")
        if self.delta_w < 0:
            raise ValueError("delta_w must be >= 0")
        if not (0.0 <= self.fa_rate < 1.0):
            raise ValueError("fa_rate must be in [0, 1)")


@dataclass
class HopRecord:
    """Per-transmission trace row; hop i is the i-th forwarding of the packet."""

    hop: int
    k_prev: int        # transmitting relays (size of the previous relay set)
    j_prev: int        # first resolvable index among them (0 = all collided)
    l: int             # decoding-set size of the successful attempt
    k: int             # relay set formed at this hop (0 on the delivery hop)
    n_r: int           # retransmissions spent at this hop
    xh0: float         # coverage contour on the axis, NaN if undefined there
    n_r_interference: int = 0  # retransmissions attributable to cross-flow interference


@dataclass
class TrialResult:
    records: list[HopRecord]
    reached: bool
    q: int                    # hops traversed (delivery hop when reached)
    delay_spread_s: float     # forwarding delay spread at the destination
    seed: int


def _rach(k: int, b: int, n: int,
          rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """n independent RACH rounds of k relays over b slots.

    Returns the (n, k) singleton-slot flags and the (n,) 1-based indices of
    the first resolvable relay, 0 where all collided. Slots are counted with
    one bincount over row-offset slot ids.
    """
    if b < 2:
        raise ValueError("rach_round requires b >= 2")
    slots = rng.integers(0, b, size=(n, k))
    slots += np.arange(0, n * b, b)[:, None]
    resolvable = np.bincount(slots.ravel(), minlength=n * b)[slots] == 1
    return resolvable, (resolvable.argmax(axis=1) + 1) * resolvable.any(axis=1)


def rach_round(k: int, b: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Assign k relays to b RACH slots uniformly; singleton slots are resolvable.

    Returns the per-relay resolvable flags (in destination-distance order) and
    the 1-based index of the first resolvable relay, 0 if all collided. Draws
    the same slots as one row of rach_round_batch.
    """
    resolvable, j = _rach(k, b, 1, rng)
    return resolvable[0], int(j[0])


def rach_round_batch(k: int, b: int, n: int,
                     rng: np.random.Generator) -> np.ndarray:
    """First-resolvable indices of n independent RACH rounds (vectorized)."""
    return _rach(k, b, n, rng)[1]


def decision_distance(relay_xy: np.ndarray, j: int, dst: Point2D) -> float:
    """Distance to dst of the decision arc set by the transmitting relays.

    relay_xy is sorted by distance to dst; at hop 1 it is the source alone,
    with j = 1. The arc passes through relay j (1-based), the first
    resolvable one; when all collided (j = 0) it falls back to the farthest
    relay.
    """
    d = np.hypot(relay_xy[:, 0] - dst.x, relay_xy[:, 1] - dst.y)
    return float(d[j - 1]) if j >= 1 else float(d.max())


def eligible(xs, ys, d_ref: float, strip: Strip, width: float) -> np.ndarray:
    """Relay rule: strictly closer to dst than the decision arc, and inside
    the strip of the given (possibly widened) width, boundary included."""
    _, lateral = strip.frame(xs, ys)
    d = np.hypot(xs - strip.dst.x, ys - strip.dst.y)
    return (d < d_ref) & (np.abs(lateral) <= width / 2.0)


def _detects(xs, ys, relay_xy: np.ndarray, phy: PhyConfig, u: float,
             pn_extra_fn=None) -> np.ndarray:
    """Detection test at receivers (xs, ys) for a transmission by relay_xy.

    Extra noise-plus-interference from pn_extra_fn(xs, ys) raises the
    threshold to u (p_n + extra) / p_n.
    """
    h = aggregate_power(xs, ys, relay_xy[:, 0], relay_xy[:, 1], phy.alpha)
    if pn_extra_fn is None:
        return h >= u
    return h >= u * (phy.p_n + pn_extra_fn(xs, ys)) / phy.p_n


def decode_set(
    deployment: Deployment,
    relays: np.ndarray,
    t_now: float,
    phy: PhyConfig,
    *,
    u: float | None = None,
    seen: np.ndarray | None = None,
    pn_extra_fn=None,
) -> np.ndarray:
    """Indices of nodes that decode a transmission by `relays` starting at t_now.

    A node decodes iff it is awake at the transmission start, it has not seen
    this packet before (`seen` mask), and the aggregate mean channel power from
    the transmitters meets the detection threshold. `pn_extra_fn(xs, ys)` may
    supply additive per-node noise-plus-interference power (per subcarrier).
    """
    relays = np.asarray(relays, dtype=float).reshape(-1, 2)
    if u is None:
        u = detection_constant(phy).u
    # a node beyond (k / u)^(1/alpha) of every transmitter cannot reach u
    d_cut = (relays.shape[0] / u) ** (1.0 / phy.alpha)
    i0, i1 = deployment.window(relays[:, 0].min() - d_cut,
                               relays[:, 0].max() + d_cut)
    mask = awake_mask(
        deployment.sleep_phases[i0:i1], t_now, phy.t_p, deployment.cfg.epsilon
    )
    if seen is not None:
        mask &= ~seen[i0:i1]
    idx = np.flatnonzero(mask) + i0
    return idx[_detects(deployment.xs[idx], deployment.ys[idx], relays, phy, u,
                        pn_extra_fn)]


def interference_pn_fn(
    interferer_xy: np.ndarray, phy: PhyConfig, radius: float
):
    """Per-subcarrier interference power from a concurrent transmit set.

    Mean received interference per subcarrier is (2 p_t / n_s) * sigma^2 of the
    interfering set, applied only within `radius` of any interferer (beyond it
    the contribution is treated as part of the background p_n).
    """
    ixy = np.asarray(interferer_xy, dtype=float).reshape(-1, 2)
    scale = (phy.lambda_c / (4.0 * math.pi)) ** phy.alpha
    factor = 2.0 * phy.p_t / phy.n_s

    def pn_extra(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        d2 = (xs[:, None] - ixy[None, :, 0]) ** 2 + (ys[:, None] - ixy[None, :, 1]) ** 2
        d2 = np.maximum(d2, 1e-12)
        power = factor * scale * np.sum(d2 ** (-phy.alpha / 2.0), axis=1)
        within = (d2 <= radius * radius).any(axis=1)
        return np.where(within, power, 0.0)

    return pn_extra


@dataclass
class _FlowState:
    """Mutable per-packet forwarding state (one flow)."""

    strip: Strip
    header: PacketHeader
    relay_xy: np.ndarray          # transmitters of the next hop, global coords
    dp: np.ndarray                # accumulated propagation path length, m
    seen: np.ndarray
    parked: np.ndarray            # decoded earlier, never relayed; may re-qualify
    t: float = 0.0
    hop: int = 1
    n_r: int = 0
    n_r_interference: int = 0
    records: list = dc_field(default_factory=list)
    reached: bool = False
    failed: bool = False
    delay_spread_s: float = math.nan
    stragglers: dict = dc_field(default_factory=dict)  # hop -> list of (x, y, dp)
    rng: np.random.Generator | None = None  # RACH draws and false alarms
    next_slot: int = 0            # grid slot of the flow's next transmission

    @property
    def done(self) -> bool:
        return self.reached or self.failed

    def result(self, seed: int) -> TrialResult:
        return TrialResult(
            records=self.records,
            reached=self.reached,
            q=self.records[-1].hop if self.records else 0,
            delay_spread_s=self.delay_spread_s,
            seed=seed,
        )


class _Reception(NamedTuple):
    decoded: np.ndarray    # nodes hearing the packet for the first time
    relays: np.ndarray     # decoders and re-qualifying parked nodes that relay
    dst_detected: bool

    @property
    def progressed(self) -> bool:
        return self.dst_detected or self.relays.size > 0


def _receive(
    state: _FlowState,
    deployment: Deployment,
    phy: PhyConfig,
    u: float,
    d_ref: float,
    pn_extra_fn=None,
) -> _Reception:
    """What one transmission by the current relay set achieves; reads the
    state and changes nothing."""
    hdr = state.header
    relay_xy = state.relay_xy
    decoded = decode_set(deployment, relay_xy, state.t, phy, u=u,
                         seen=state.seen, pn_extra_fn=pn_extra_fn)
    # parked nodes (decoded on an earlier transmission, never relayed) that hear
    # this one re-read the header and re-evaluate the position criteria, which
    # matters when a retransmission widened the strip or moved the decision arc
    parked = np.flatnonzero(state.parked)
    parked = parked[awake_mask(deployment.sleep_phases[parked], state.t,
                               phy.t_p, deployment.cfg.epsilon)]
    parked = parked[_detects(deployment.xs[parked], deployment.ys[parked],
                             relay_xy, phy, u, pn_extra_fn)]
    pool = np.concatenate([decoded, parked])
    relays = pool[eligible(deployment.xs[pool], deployment.ys[pool], d_ref,
                           state.strip, hdr.strip_width)]
    # the destination is an always-awake receiver applying the same test
    dst = _detects(np.array([hdr.dst.x]), np.array([hdr.dst.y]), relay_xy,
                   phy, u, pn_extra_fn)[0]
    return _Reception(decoded, relays, bool(dst))


def _path_step(new_xy: np.ndarray, prev_xy: np.ndarray, prev_dp: np.ndarray,
               delta_r: float) -> np.ndarray:
    """First-arrival path length of each new relay: the minimum over previous
    relays of (link distance + their path), plus the first-echo excess."""
    link = np.hypot(new_xy[:, 0:1] - prev_xy[None, :, 0],
                    new_xy[:, 1:2] - prev_xy[None, :, 1])
    return (link + prev_dp[None, :]).min(axis=1) + delta_r


def _delay_spread(xy: np.ndarray, dp: np.ndarray, dst) -> float:
    """Forwarding delay spread at dst, s: spread of the relays' arrivals."""
    arrivals = np.hypot(xy[:, 0] - dst[0], xy[:, 1] - dst[1]) + dp
    return float(arrivals.max() - arrivals.min()) / SPEED_OF_LIGHT


def _advance_relays(
    state: _FlowState,
    deployment: Deployment,
    r_idx: np.ndarray,
    phy: PhyConfig,
) -> int:
    """Install the new relay set (sorted by distance to dst) and update delays."""
    dst = state.header.dst
    new_xy = np.column_stack([deployment.xs[r_idx], deployment.ys[r_idx]])
    new_dp = _path_step(new_xy, state.relay_xy, state.dp, phy.delta_r)
    extra = state.stragglers.pop(state.hop, None)
    if extra:
        new_xy = np.vstack([new_xy, [e[:2] for e in extra]])
        new_dp = np.concatenate([new_dp, [e[2] for e in extra]])
    order = np.argsort(np.hypot(new_xy[:, 0] - dst.x, new_xy[:, 1] - dst.y),
                       kind="stable")
    state.relay_xy = new_xy[order]
    state.dp = new_dp[order]
    return new_xy.shape[0]


def _register_false_alarms(
    state: _FlowState,
    old_xy: np.ndarray,
    old_dp: np.ndarray,
    policy: RetransmitPolicy,
    rng: np.random.Generator,
) -> None:
    """Relays that miss the forwarded packet ID rejoin later transmit sets.

    A listener of relay set R_i that false-alarms keeps retransmitting, which
    adds it to the relay sets R_{i+2} .. R_{i+n_r_max+1} (one extra member
    each). The listeners of the hop just completed form R_{hop-1}.
    """
    if policy.fa_rate <= 0.0:
        return
    fa = rng.random(old_xy.shape[0]) < policy.fa_rate
    for i in np.flatnonzero(fa):
        for n in range(2, policy.n_r_max + 2):
            target_set = (state.hop - 1) + n
            state.stragglers.setdefault(target_set, []).append(
                (float(old_xy[i, 0]), float(old_xy[i, 1]), float(old_dp[i]))
            )


def run_flow_hop(
    state: _FlowState,
    deployment: Deployment,
    phy: PhyConfig,
    policy: RetransmitPolicy,
    u: float,
    rng: np.random.Generator,
    slot: float,
    pn_extra_fn=None,
) -> bool:
    """Process one transmission attempt of a flow, mutating its state.

    On an empty relay set the attempt counts as a retransmission: the strip is
    widened, time advances two packet slots (listen-then-retransmit), and the
    RACH is redrawn. A retransmission that would have succeeded without
    cross-flow interference is tagged. The hop completes when a relay set forms
    or the destination detects; it fails when the retransmission cap is spent.
    Returns whether the attempt was a retransmission.
    """
    hdr = state.header
    old_xy, old_dp = state.relay_xy, state.dp
    # the source position travels in the header; it is always resolvable
    j_prev = 1 if state.hop == 1 else rach_round(old_xy.shape[0], hdr.b, rng)[1]
    d_ref = decision_distance(old_xy, j_prev, hdr.dst)
    rx = _receive(state, deployment, phy, u, d_ref, pn_extra_fn)
    retransmit = not rx.progressed and state.n_r < policy.n_r_max
    # tag the retransmission when the same attempt on a clean channel, from
    # the same state, would have reached the destination or formed relays
    if retransmit and pn_extra_fn is not None \
            and _receive(state, deployment, phy, u, d_ref).progressed:
        state.n_r_interference += 1
    state.seen[rx.decoded] = True
    state.parked[rx.decoded] = True
    if retransmit:
        state.n_r += 1
        # width cap w0 + n_r_max * delta_w holds because retransmissions stop at the cap
        hdr.strip_width += policy.delta_w
        state.t += 2.0 * phy.t_p
        return True

    k_new = 0
    if rx.dst_detected:
        state.delay_spread_s = _delay_spread(old_xy, old_dp, hdr.dst)
        state.reached = True
    elif rx.relays.size:
        state.parked[rx.relays] = False
        k_new = _advance_relays(state, deployment, rx.relays, phy)
    else:
        state.failed = True
    try:
        axial, lateral = state.strip.frame(old_xy[:, 0], old_xy[:, 1])
        xh0 = coverage_contour(np.column_stack([axial, lateral]), 0.0, u,
                               phy.alpha)
    except ContourUndefinedError:
        xh0 = math.nan
    state.records.append(HopRecord(
        hop=state.hop, k_prev=old_xy.shape[0], j_prev=j_prev,
        l=rx.decoded.size, k=k_new, n_r=state.n_r, xh0=xh0,
        n_r_interference=state.n_r_interference,
    ))
    state.n_r = state.n_r_interference = 0  # the record holds this hop's count
    if k_new:
        _register_false_alarms(state, old_xy, old_dp, policy, rng)
        state.hop += 1
        state.t += slot
    return False


def new_flow_state(
    header: PacketHeader, deployment: Deployment, start_t: float = 0.0
) -> _FlowState:
    strip = Strip(width=header.strip_width, src=header.src, dst=header.dst)
    return _FlowState(
        strip=strip,
        header=header,
        relay_xy=np.asarray([[header.src.x, header.src.y]], dtype=float),
        dp=np.zeros(1),
        seen=np.zeros(deployment.n, dtype=bool),
        parked=np.zeros(deployment.n, dtype=bool),
        t=start_t,
    )


def _run_flows(
    field_cfg: FieldConfig,
    phy: PhyConfig,
    policy: RetransmitPolicy,
    b: int,
    seed: int,
    srcs: list[Point2D],
    dst: Point2D,
    interference_radius: float = 0.0,
    stagger_slots: int = 0,
) -> tuple[list[_FlowState], int]:
    """Forward one packet per source toward dst on one field and slot grid.

    Deterministic for a given seed: the first child stream deploys the field,
    the others drive one flow each (RACH draws, false alarms). Flow i is
    injected i * stagger_slots slots late. When flows transmit in the same
    slot, each one's receivers see the others' transmit sets as added
    noise-plus-interference (within interference_radius). A source defers
    its injection while it detects another flow's relays transmitting (carrier
    sense applies to sources only). A flow stops when it delivers, spends its
    retransmission cap or passes the hop cap. Returns the flow states and the
    number of slots used.
    """
    field_cfg.validate()
    phy.validate()
    policy.validate()
    dep_ss, *flow_ss = np.random.SeedSequence(seed).spawn(1 + len(srcs))
    # one field covering every strip: size the lateral extent by the sources
    w_max = field_cfg.w + policy.n_r_max * policy.delta_w
    lateral_span = 2.0 * max(abs(src.y) for src in srcs) + w_max
    deployment = deploy(field_cfg, dep_ss, t_p=phy.t_p,
                        max_strip_width=lateral_span)
    u = detection_constant(phy).u
    slot = phy.t_p + phy.t_guard
    r1 = u ** (-1.0 / phy.alpha)
    max_hops = max(256, int(8.0 * field_cfg.length / r1))
    max_slots = max(512, int(16.0 * field_cfg.length / r1)) \
        * (policy.n_r_max + 1)

    flows = []
    for i, (src, ss) in enumerate(zip(srcs, flow_ss)):
        header = PacketHeader(src=src, dst=dst, strip_width=field_cfg.w, b=b)
        header.validate()
        state = new_flow_state(header, deployment,
                               start_t=i * stagger_slots * slot)
        state.rng = np.random.default_rng(ss)
        state.next_slot = i * stagger_slots
        flows.append(state)

    slot_idx = 0
    while slot_idx < max_slots:
        live = [f for f in flows if not f.done and f.hop <= max_hops]
        if not live:
            break
        txers = [f for f in live if f.next_slot == slot_idx]
        for f in list(txers):
            # a source that detects another flow's relays defers one slot
            if f.hop + f.n_r == 1 and any(
                    g is not f and g.hop + g.n_r > 1
                    and _detects(f.header.src.x, f.header.src.y, g.relay_xy,
                                 phy, u)[0] for g in txers):
                f.next_slot += 1
                f.t += slot
                txers.remove(f)
        # built before any hop runs, since a hop replaces its relay set
        pn_fns = [interference_pn_fn(
            np.vstack([g.relay_xy for g in txers if g is not f]), phy,
            interference_radius) if len(txers) > 1 else None for f in txers]
        for f, pn_fn in zip(txers, pn_fns):
            retransmitted = run_flow_hop(f, deployment, phy, policy, u, f.rng,
                                         slot, pn_extra_fn=pn_fn)
            f.next_slot += 2 if retransmitted else 1
        slot_idx += 1
    return flows, slot_idx


def run_trial(
    field_cfg: FieldConfig,
    phy: PhyConfig,
    policy: RetransmitPolicy,
    b: int,
    seed: int,
) -> TrialResult:
    """One packet from (0, 0) to (L, 0) on a fresh Poisson field."""
    flows, _ = _run_flows(field_cfg, phy, policy, b, seed, [Point2D(0.0, 0.0)],
                          Point2D(field_cfg.length, 0.0))
    return flows[0].result(seed)


@dataclass
class TwoPacketResult:
    flow_a: TrialResult
    flow_b: TrialResult
    interference_tagged: int   # retransmissions attributed to the other flow
    slots_used: int


def run_two_packet_trial(
    field_cfg: FieldConfig,
    phy: PhyConfig,
    policy: RetransmitPolicy,
    b: int,
    seed: int,
    src_a: Point2D,
    src_b: Point2D,
    dst: Point2D | None = None,
    interference_radius: float = 600.0,
    stagger_slots: int = 0,
) -> TwoPacketResult:
    """Two concurrent packets toward one destination on a shared field.

    Flow b is injected stagger_slots slots after flow a; see _run_flows for
    the shared slot grid, interference and carrier sense. Retransmissions
    that a clean channel would have avoided are tagged per flow.
    """
    if stagger_slots < 0:
        raise ValueError(f"stagger_slots must be >= 0, got {stagger_slots}")
    if dst is None:
        dst = Point2D(field_cfg.length, 0.0)
    flows, slots_used = _run_flows(field_cfg, phy, policy, b, seed,
                                   [src_a, src_b], dst, interference_radius,
                                   stagger_slots)
    # closed hops carry their tags in their records; a hop still open when
    # the slot budget ran out carries them in the state
    tagged = sum(f.n_r_interference
                 + sum(r.n_r_interference for r in f.records) for f in flows)
    return TwoPacketResult(flows[0].result(seed), flows[1].result(seed),
                           tagged, slots_used)


def propagation_delays(
    hop_positions: list[np.ndarray], dst: Point2D, delta_r: float = 0.0
) -> tuple[list[np.ndarray], float]:
    """Evaluate the first-arrival path-length recursion over a hop geometry.

    hop_positions[0] holds the source, hop_positions[i] the relay positions of
    hop i, each as an (n, 2) array. Every relay's accumulated path is the
    minimum over previous-hop relays of (link distance + their path + delta_r).
    Returns the per-hop path-length arrays (meters) and the forwarding delay
    spread at dst in seconds: (max - min) arrival over the last relay set,
    divided by the speed of light.
    """
    sets = [np.asarray(h, dtype=float).reshape(-1, 2) for h in hop_positions]
    dps = [np.zeros(sets[0].shape[0])]
    for prev, cur in zip(sets, sets[1:]):
        dps.append(_path_step(cur, prev, dps[-1], delta_r))
    return dps, _delay_spread(sets[-1], dps[-1], dst)
