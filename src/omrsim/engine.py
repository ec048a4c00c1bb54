"""OMR forwarding engine: decode/relay sets, RACH resolvability, retransmission, trials."""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .channel import (SPEED_OF_LIGHT, PhyConfig, aggregate_power,
                      coverage_contour, detection_constant)
from .field import Deployment, FieldConfig, Point2D, Strip, awake_mask, deploy


@dataclass(frozen=True)
class RetransmitPolicy:
    """Per-hop retransmission rules, checked on construction."""

    n_r_max: int = 5      # retransmissions allowed per hop
    delta_w: float = 50.0  # strip widening per retransmission, m
    fa_rate: float = 0.0   # false-alarm probability per listening relay

    def __post_init__(self) -> None:
        if not (self.n_r_max >= 0):
            raise ValueError(f"n_r_max must be >= 0, got {self.n_r_max}")
        if not (0.0 <= self.delta_w < math.inf):
            raise ValueError(f"delta_w must be >= 0, got {self.delta_w}")
        if not (0.0 <= self.fa_rate < 1.0):
            raise ValueError(f"fa_rate must be in [0, 1), got {self.fa_rate}")


def check_rach_slots(b: int) -> None:
    """The RACH rule: a round needs b >= 2 slots to resolve any relay."""
    if not (b >= 2):
        raise ValueError(f"RACH slot count b must be >= 2, got {b}")


class HopRecord(NamedTuple):
    """Per-transmission trace row; hop i is the i-th forwarding of the packet."""

    hop: int
    k_prev: int        # transmitting relays (size of the previous relay set)
    j_prev: int        # first resolvable index among them (0 = all collided)
    l: int             # decoding-set size of the successful attempt
    k: int             # relay set formed at this hop (0 on the delivery hop)
    n_r: int           # retransmissions spent at this hop
    xh0: float         # on-axis coverage contour (NaN if none), solved at flow end
    n_r_interference: int = 0  # retransmissions attributable to cross-flow interference


@dataclass
class TrialResult:
    records: list[HopRecord]
    reached: bool
    q: int                    # hops traversed (delivery hop when reached)
    delay_spread_s: float     # forwarding delay spread at the destination


def rach_round(k: int, b: int, n: int,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """n independent RACH rounds of k relays over b slots, drawn uniformly;
    singleton slots are resolvable.

    Returns the (n, k) resolvable flags (in destination-distance order) and
    the (n,) 1-based indices of the first resolvable relay, 0 where all
    collided. A relay is resolvable when no other relay of its round drew
    its slot, so its slot equals one of the round's k slots: its own.
    """
    check_rach_slots(b)
    slots = rng.integers(0, b, size=(n, k))
    resolvable = (slots[:, :, None] == slots[:, None, :]).sum(axis=2) == 1
    return resolvable, (resolvable.argmax(axis=1) + 1) * resolvable.any(axis=1)


def decision_distance(relay_d: np.ndarray, j: int) -> float:
    """Distance to dst of the decision arc set by the transmitting relays.

    relay_d holds their distances to dst, ascending; at hop 1 it is the
    source's alone, with j = 1. The arc passes through relay j (1-based),
    the first resolvable one; when all collided (j = 0) the index wraps to
    the last, farthest relay.
    """
    return float(relay_d[j - 1])


def eligible(d_dst, lateral, d_ref: float, width: float) -> np.ndarray:
    """Relay rule on nodes' distances to dst and lateral offsets: strictly
    closer to dst than the decision arc, and inside the strip of the given
    (possibly widened) width, boundary included."""
    return (d_dst < d_ref) & (np.abs(lateral) <= width / 2.0)


def reach(k: int, u: float, alpha: float) -> float:
    """Distance beyond which a receiver cannot hear k transmitters: past
    (k / u)^(1/alpha) each one's term of the aggregate power is below u / k.
    The relative margin of 1e-6 is far above the rounding of a power sum."""
    return (k / u) ** (1.0 / alpha) * (1.0 + 1e-6)


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
    u: float,
    seen: np.ndarray | None = None,
    pn_extra_fn=None,
) -> np.ndarray:
    """Indices, ascending, of nodes that hear a transmission by `relays`
    starting at t_now.

    A node hears it iff it is awake at the transmission start, it is not
    masked by `seen`, and the aggregate mean channel power from the
    transmitters meets the detection threshold. `pn_extra_fn(xs, ys)` may
    supply additive per-node noise-plus-interference power (per subcarrier).
    """
    relays = np.asarray(relays, dtype=float).reshape(-1, 2)
    # a node beyond reach of every transmitter cannot hear them
    d_cut = reach(relays.shape[0], u, phy.alpha)
    relay_xs = relays[:, 0].tolist()
    i0, i1 = deployment.window(min(relay_xs) - d_cut, max(relay_xs) + d_cut)
    mask = awake_mask(
        deployment.sleep_phases[i0:i1], t_now, phy.t_p, deployment.cfg.epsilon
    )
    if seen is not None:
        mask &= ~seen[i0:i1]
    idx = mask.nonzero()[0] + i0
    return idx[_detects(deployment.xs[idx], deployment.ys[idx], relays, phy, u,
                        pn_extra_fn)]


def interference_pn_fn(
    interferer_xy: np.ndarray, phy: PhyConfig, radius: float
):
    """Per-subcarrier interference power from a concurrent transmit set.

    Mean received interference per subcarrier is (2 p_t / n_s) * sigma^2 of the
    interfering set, applied only within `radius` of any interferer (beyond it
    the contribution is treated as part of the background p_n). A receiver on
    an interferer gets inf, so it cannot detect.
    """
    ixy = np.asarray(interferer_xy, dtype=float).reshape(-1, 2)
    gain = 2.0 * phy.p_t / phy.n_s * (phy.lambda_c / (4.0 * math.pi)) ** phy.alpha

    def pn_extra(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            power = gain * aggregate_power(xs, ys, ixy[:, 0], ixy[:, 1],
                                           phy.alpha)
        d2 = (xs[:, None] - ixy[None, :, 0]) ** 2 + (ys[:, None] - ixy[None, :, 1]) ** 2
        return np.where((d2 <= radius * radius).any(axis=1), power, 0.0)

    return pn_extra


class _Run(NamedTuple):
    """What every flow of one run shares."""

    deployment: Deployment
    phy: PhyConfig
    policy: RetransmitPolicy
    u: float                      # detection threshold
    slot: float                   # grid slot, t_p + t_guard


@dataclass
class _FlowState:
    """Mutable per-packet forwarding state (one flow)."""

    run: _Run
    strip: Strip
    strip_width: float            # current width; retransmissions widen it
    b: int                        # RACH slot count
    d_dst: np.ndarray             # every node's distance to dst
    lateral: np.ndarray           # every node's lateral offset from the axis
    relay_xy: np.ndarray          # transmitters of the next hop, global coords
    relay_d: np.ndarray           # their distances to dst, ascending
    dp: np.ndarray                # accumulated propagation path length, m
    seen: np.ndarray              # decoded at least once
    relayed: np.ndarray           # was in a relay set; seen & ~relayed are parked
    rng: np.random.Generator      # RACH draws and false alarms
    next_slot: int                # grid slot of the flow's next transmission
    t: float                      # sleep-schedule clock (see docs/decisions.md)
    hop: int = 1
    n_r: int = 0
    n_r_interference: int = 0
    records: list = dc_field(default_factory=list)
    sent_xy: list = dc_field(default_factory=list)  # each record's transmitters
    reached: bool = False
    failed: bool = False
    delay_spread_s: float = math.nan
    stragglers: list = dc_field(default_factory=list)  # (first hop, x, y, dp)

    @property
    def done(self) -> bool:
        return self.reached or self.failed

    def result(self) -> TrialResult:
        return TrialResult(
            records=self.records,
            reached=self.reached,
            q=self.records[-1].hop if self.records else 0,
            delay_spread_s=self.delay_spread_s,
        )


class _Reception(NamedTuple):
    decoded: np.ndarray    # nodes hearing the packet for the first time
    relays: np.ndarray     # fresh and re-qualifying decoders that relay
    dst_detected: bool

    @property
    def progressed(self) -> bool:
        return self.dst_detected or self.relays.size > 0


def _receive(state: _FlowState, d_ref: float, pn_extra_fn=None) -> _Reception:
    """What one transmission by the current relay set achieves; reads the
    state and changes nothing."""
    run, relay_xy = state.run, state.relay_xy
    # one detection pass over every node that has not relayed: fresh nodes
    # decode, and parked nodes (decoded on an earlier transmission, never
    # relayed) re-read the header and re-evaluate the position criteria,
    # which matters when a retransmission widened the strip or moved the arc
    heard = decode_set(run.deployment, relay_xy, state.t, run.phy, u=run.u,
                       seen=state.relayed, pn_extra_fn=pn_extra_fn)
    decoded = heard[~state.seen[heard]]
    relays = heard[eligible(state.d_dst[heard], state.lateral[heard], d_ref,
                            state.strip_width)]
    # the destination is an always-awake receiver applying the same test,
    # which it can pass only within reach of the nearest transmitter (extra
    # noise only raises the threshold)
    dst = state.strip.dst
    heard = state.relay_d[0] <= reach(relay_xy.shape[0], run.u, run.phy.alpha) \
        and _detects(np.array([dst.x]), np.array([dst.y]), relay_xy, run.phy,
                     run.u, pn_extra_fn)[0]
    return _Reception(decoded, relays, bool(heard))


def _path_step(new_xy: np.ndarray, prev_xy: np.ndarray, prev_dp: np.ndarray,
               delta_r: float) -> np.ndarray:
    """First-arrival path length of each new relay: the minimum over previous
    relays of (link distance + their path), plus the first-echo excess."""
    link = np.hypot(new_xy[:, 0:1] - prev_xy[None, :, 0],
                    new_xy[:, 1:2] - prev_xy[None, :, 1])
    return np.minimum.reduce(link + prev_dp[None, :], axis=1) + delta_r


def _delay_spread(d_dst: np.ndarray, dp: np.ndarray) -> float:
    """Forwarding delay spread at dst, s: spread of the arrivals of relays
    at distances d_dst from dst with path lengths dp."""
    arrivals = d_dst + dp
    return float(arrivals.max() - arrivals.min()) / SPEED_OF_LIGHT


def _advance_relays(state: _FlowState, r_idx: np.ndarray) -> int:
    """Install the new relay set (sorted by distance to dst) and update delays."""
    new_xy = state.run.deployment.xy[r_idx]
    new_dp = _path_step(new_xy, state.relay_xy, state.dp,
                        state.run.phy.delta_r)
    d = state.d_dst[r_idx]
    n_r_max, hop = state.run.policy.n_r_max, state.hop
    extra = [e for e in state.stragglers if e[0] <= hop < e[0] + n_r_max]
    if extra:  # false-alarm stragglers, not deployment nodes
        extra_xy = np.array([e[1:3] for e in extra])
        new_xy = np.vstack([new_xy, extra_xy])
        new_dp = np.concatenate([new_dp, [e[3] for e in extra]])
        d = np.concatenate([d, np.hypot(*(extra_xy - state.strip.dst).T)])
    order = d.argsort(kind="stable")
    state.relay_xy, state.relay_d = new_xy[order], d[order]
    state.dp = new_dp[order]
    return new_xy.shape[0]


def _register_false_alarms(state: _FlowState, old_xy: np.ndarray,
                           old_dp: np.ndarray) -> None:
    """Relays that miss the forwarded packet ID rejoin later transmit sets.

    A listener of relay set R_i that false-alarms keeps retransmitting, which
    adds it to the relay sets R_{i+2} .. R_{i+n_r_max+1} (one extra member
    each). The listeners of the hop just completed form R_{hop-1}, so each
    is stored once with its first set, R_{hop+1}.
    """
    fa_rate = state.run.policy.fa_rate
    if fa_rate <= 0.0:
        return
    fa = state.rng.random(old_xy.shape[0]) < fa_rate
    state.stragglers += [(state.hop + 1, float(old_xy[i, 0]),
                          float(old_xy[i, 1]), float(old_dp[i]))
                         for i in np.flatnonzero(fa)]


def run_flow_hop(state: _FlowState, pn_extra_fn=None) -> None:
    """Process one transmission attempt of a flow, mutating its state.

    On an empty relay set the attempt counts as a retransmission: the strip is
    widened, the flow's next transmission moves two grid slots on
    (listen-then-retransmit), and the RACH is redrawn. A retransmission that
    would have succeeded without cross-flow interference is tagged. Any other
    attempt takes one grid slot. The hop completes when a relay set forms or
    the destination detects; it fails when the retransmission cap is spent.
    """
    policy = state.run.policy
    old_xy, old_dp = state.relay_xy, state.dp
    # the source position travels in the header; it is always resolvable
    j_prev = 1 if state.hop == 1 \
        else int(rach_round(old_xy.shape[0], state.b, 1, state.rng)[1][0])
    d_ref = decision_distance(state.relay_d, j_prev)
    rx = _receive(state, d_ref, pn_extra_fn)
    retransmit = not rx.progressed and state.n_r < policy.n_r_max
    # tag the retransmission when the same attempt on a clean channel, from
    # the same state, would have reached the destination or formed relays
    if retransmit and pn_extra_fn is not None \
            and _receive(state, d_ref).progressed:
        state.n_r_interference += 1
    state.seen[rx.decoded] = True
    if retransmit:
        state.n_r += 1
        # width cap w0 + n_r_max * delta_w holds because retransmissions stop at the cap
        state.strip_width += policy.delta_w
        # FL-CLOCKS (docs/decisions.md): two grid slots, but 2 t_p of sleep clock
        state.next_slot += 2
        state.t += 2.0 * state.run.phy.t_p
        return

    k_new = 0
    if rx.dst_detected:
        state.delay_spread_s = _delay_spread(state.relay_d, old_dp)
        state.reached = True
    elif rx.relays.size:
        state.relayed[rx.relays] = True
        k_new = _advance_relays(state, rx.relays)
    else:
        state.failed = True
    state.records.append(HopRecord(
        hop=state.hop, k_prev=old_xy.shape[0], j_prev=j_prev,
        l=rx.decoded.size, k=k_new, n_r=state.n_r, xh0=math.nan,
        n_r_interference=state.n_r_interference,
    ))
    state.sent_xy.append(old_xy)
    state.n_r = state.n_r_interference = 0  # the record holds this hop's count
    state.next_slot += 1
    state.t += state.run.slot
    if k_new:
        _register_false_alarms(state, old_xy, old_dp)
        state.hop += 1


def slot_budget(field_cfg: FieldConfig, phy: PhyConfig,
                policy: RetransmitPolicy) -> int:
    """Grid slots a run may use: 16 per first-hop reach of the field length
    (at least 512), times the attempts one hop may take."""
    r1 = detection_constant(phy).single_relay_radius
    return max(512, int(16.0 * field_cfg.length / r1)) * (policy.n_r_max + 1)


def check_stagger_slots(stagger_slots: int, field_cfg: FieldConfig,
                        phy: PhyConfig, policy: RetransmitPolicy) -> None:
    """The stagger rule: a later flow is injected inside the slot budget."""
    budget = slot_budget(field_cfg, phy, policy)
    if not (0 <= stagger_slots < budget):
        raise ValueError(f"stagger_slots must be in [0, {budget}), got "
                         f"{stagger_slots}")


def new_flow_state(run: _Run, strip: Strip, strip_width: float, b: int,
                   rng: np.random.Generator, start_slot: int = 0) -> _FlowState:
    """A packet at its source, first transmitting in grid slot start_slot
    and drawing its protocol randomness from rng. Every node's distance to
    dst and lateral offset are fixed for the flow, so they are computed
    here once."""
    xs, ys, dst = run.deployment.xs, run.deployment.ys, strip.dst
    return _FlowState(
        run=run,
        strip=strip,
        strip_width=strip_width,
        b=b,
        d_dst=np.hypot(xs - dst.x, ys - dst.y),
        lateral=strip.frame(xs, ys)[1],
        relay_xy=np.asarray([[strip.src.x, strip.src.y]], dtype=float),
        relay_d=np.hypot([strip.src.x - dst.x], [strip.src.y - dst.y]),
        dp=np.zeros(1),
        seen=np.zeros(run.deployment.n, dtype=bool),
        relayed=np.zeros(run.deployment.n, dtype=bool),
        rng=rng,
        next_slot=start_slot,
        t=start_slot * run.slot,
    )


def _run_flows(
    field_cfg: FieldConfig,
    phy: PhyConfig,
    policy: RetransmitPolicy,
    b: int,
    seed: int,
    srcs: list[Point2D],
    interference_radius: float = 0.0,
    stagger_slots: int = 0,
) -> tuple[list[_FlowState], int]:
    """Forward one packet per source toward (L, 0) on one field and slot grid.

    Deterministic for a given seed: the first child stream deploys the field,
    the others drive one flow each (RACH draws, false alarms). Flow i is
    injected i * stagger_slots slots late. When flows transmit in the same
    slot, each one's receivers see the others' transmit sets as added
    noise-plus-interference (within interference_radius). A source defers
    its injection while it detects another flow's relays transmitting (carrier
    sense applies to sources only). A flow stops when it delivers or spends
    its retransmission cap; the slot budget stops the run, as every attempt
    takes a slot. Returns the flow states and the number of slots used.
    """
    check_rach_slots(b)
    dep_ss, *flow_ss = np.random.SeedSequence(seed).spawn(1 + len(srcs))
    # one field covering every strip: size the lateral extent by the sources
    w_max = field_cfg.w + policy.n_r_max * policy.delta_w
    lateral_span = 2.0 * max(abs(src.y) for src in srcs) + w_max
    deployment = deploy(field_cfg, dep_ss, t_p=phy.t_p,
                        max_strip_width=lateral_span)
    run = _Run(deployment, phy, policy, detection_constant(phy).u,
               phy.t_p + phy.t_guard)
    max_slots = slot_budget(field_cfg, phy, policy)

    dst = Point2D(field_cfg.length, 0.0)
    flows = [new_flow_state(run, Strip(src=src, dst=dst), field_cfg.w, b,
                            np.random.default_rng(ss), i * stagger_slots)
             for i, (src, ss) in enumerate(zip(srcs, flow_ss))]

    slot_idx = 0
    while slot_idx < max_slots:
        live = [f for f in flows if not f.done]
        if not live:
            break
        txers = [f for f in live if f.next_slot == slot_idx]
        for f in list(txers):
            # a source that detects another flow's relays defers one slot
            if f.hop + f.n_r == 1 and any(
                    g is not f and g.hop + g.n_r > 1
                    and _detects(f.strip.src.x, f.strip.src.y, g.relay_xy,
                                 phy, run.u)[0] for g in txers):
                f.next_slot += 1
                f.t += run.slot
                txers.remove(f)
        # built before any hop runs, since a hop replaces its relay set
        pn_fns = [interference_pn_fn(
            np.vstack([g.relay_xy for g in txers if g is not f]), phy,
            interference_radius) if len(txers) > 1 else None for f in txers]
        for f, pn_fn in zip(txers, pn_fns):
            run_flow_hop(f, pn_extra_fn=pn_fn)
        slot_idx += 1
    for f in flows:  # no forwarding decision reads xh0: one solve per flow
        k = [r.k_prev for r in f.records]
        xy = np.concatenate([np.empty((0, 2))] + f.sent_xy)
        xh0 = coverage_contour(*f.strip.frame(xy[:, 0], xy[:, 1]),
                               np.cumsum(k) - k, run.u, phy.alpha)
        f.records = [r._replace(xh0=float(x)) for r, x in zip(f.records, xh0)]
    return flows, slot_idx


def run_trial(
    field_cfg: FieldConfig,
    phy: PhyConfig,
    policy: RetransmitPolicy,
    b: int,
    seed: int,
) -> TrialResult:
    """One packet from (0, 0) to (L, 0) on a fresh Poisson field."""
    flows, _ = _run_flows(field_cfg, phy, policy, b, seed, [Point2D(0.0, 0.0)])
    return flows[0].result()


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
    interference_radius: float = 600.0,
    stagger_slots: int = 0,
) -> TwoPacketResult:
    """Two concurrent packets toward (L, 0) on a shared field.

    Flow b is injected stagger_slots slots after flow a; see _run_flows for
    the shared slot grid, interference and carrier sense. Retransmissions
    that a clean channel would have avoided are tagged per flow.
    """
    check_stagger_slots(stagger_slots, field_cfg, phy, policy)
    flows, slots_used = _run_flows(field_cfg, phy, policy, b, seed,
                                   [src_a, src_b], interference_radius,
                                   stagger_slots)
    # closed hops carry their tags in their records; a hop still open when
    # the slot budget ran out carries them in the state
    tagged = sum(f.n_r_interference
                 + sum(r.n_r_interference for r in f.records) for f in flows)
    return TwoPacketResult(flows[0].result(), flows[1].result(), tagged,
                           slots_used)
