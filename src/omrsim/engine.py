"""OMR forwarding engine: decode/relay sets, RACH resolvability, retransmission, trials."""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .channel import (SPEED_OF_LIGHT, PhyConfig, aggregate_power,
                      coverage_contour, detection_constant, group_pairs)
from .field import FieldConfig, Point2D, Strip, awake_mask, deploy


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


# why a flow stopped: its destination detected, its retransmission cap was
# spent, or its run's slot budget ran out first
DELIVERED = "delivered"
RETRANSMISSION_CAP = "retransmission cap"
SLOT_BUDGET = "slot budget"

TWO_PACKET_SOURCES = (Point2D(0.0, 120.0), Point2D(0.0, -120.0))


@dataclass
class TrialResult:
    records: list[HopRecord]
    reached: bool
    q: int                    # hops traversed (delivery hop when reached)
    delay_spread_s: float     # forwarding delay spread at the destination
    ended: str                # why it stopped: DELIVERED,
                              # RETRANSMISSION_CAP or SLOT_BUDGET


def rach_round(k, b: int, n, rng) -> tuple[np.ndarray, np.ndarray]:
    """n independent RACH rounds of k relays over b slots, drawn uniformly
    from rng in one (n, k) draw; singleton slots are resolvable. k and rng
    may also be lists, one entry per generator, each drawing n rounds, which
    follow one another.

    Returns the resolvable flags of every round (in destination-distance
    order; shaped (n, k) for one generator given as such) and the 1-based
    index of each round's first resolvable relay, 0 where all collided.
    Slot s of round r is cell r b + s, so a relay is resolvable when no
    other relay shares its cell.
    """
    check_rach_slots(b)
    one = not isinstance(k, (list, tuple))
    ks, rngs = ([k], [rng]) if one else (k, rng)
    if len(ks) == 1:  # one generator: its rounds are the rows of (n, k)
        kg, = ks
        cell = rngs[0].integers(0, b, size=n * kg)
        if n > 1:
            cell += np.arange(0, n * b, b).repeat(kg)
        resolvable = np.bincount(cell).take(cell) == 1
        rows = resolvable.reshape(n, kg)
        # argmax is 0 on a row with no resolvable relay
        js = rows.argmax(axis=1) + rows.any(axis=1)
        return (rows if one else resolvable), js
    sizes = np.repeat(ks, n)  # relays per round
    end = sizes.cumsum()
    cell = np.concatenate([g.integers(0, b, size=n * kg)
                           for kg, g in zip(ks, rngs)])
    cell += np.arange(0, sizes.size * b, b).repeat(sizes)
    resolvable = np.bincount(cell).take(cell) == 1
    # a round's first resolvable relay leaves the most relays to its
    # round's end
    left = np.where(resolvable, end.repeat(sizes) - np.arange(cell.size), 0)
    most = np.maximum.reduceat(left, end - sizes)
    return resolvable, np.where(most > 0, sizes - most + 1, 0)


def decision_distance(relay_d: np.ndarray, j: int) -> float:
    """Distance to dst of the decision arc set by the transmitting relays.

    relay_d holds their distances to dst, ascending; at hop 1 it is the
    source's alone, with j = 1. The arc passes through relay j (1-based),
    the first resolvable one; when all collided (j = 0) the index wraps to
    the last, farthest relay.
    """
    return float(relay_d[j - 1])


def eligible(d_dst, lateral, d_ref, width) -> np.ndarray:
    """Relay rule on nodes' distances to dst and lateral offsets: strictly
    closer to dst than the decision arc, and inside the strip of the given
    (possibly widened) width, boundary included. d_ref and width are one
    value, or one per node."""
    return (d_dst < d_ref) & (np.abs(lateral) <= width / 2.0)


def reach(k: int, u: float, alpha: float) -> float:
    """Distance beyond which a receiver cannot hear k transmitters: past
    (k / u)^(1/alpha) each one's term of the aggregate power is below u / k.
    The relative margin of 1e-6 is far above the rounding of a power sum."""
    return (k / u) ** (1.0 / alpha) * (1.0 + 1e-6)


def _threshold(xs, ys, phy: PhyConfig, u: float, pn_extra_fn=None):
    """Detection threshold at receivers (xs, ys): u, raised to
    u (p_n + extra) / p_n by extra noise-plus-interference from
    pn_extra_fn(xs, ys)."""
    if pn_extra_fn is None:
        return u
    return u * (phy.p_n + pn_extra_fn(xs, ys)) / phy.p_n


def _detects(xs, ys, relay_xy: np.ndarray, phy: PhyConfig, u: float,
             pn_extra_fn=None) -> np.ndarray:
    """Detection test at receivers (xs, ys) for a transmission by relay_xy."""
    h = aggregate_power(xs, ys, relay_xy[:, 0], relay_xy[:, 1], phy.alpha)
    return h >= _threshold(xs, ys, phy, u, pn_extra_fn)


class _Nodes(NamedTuple):
    """A run's node table: each flow's copy of its field, flow after flow.

    A flow's decoded and relayed flags and its nodes' distances live here,
    so one index array reaches the nodes of every flow of a step. Each
    flow's segment is sorted by x, and key = x + the flow's shift orders
    every segment after the one before it, so one search over key finds
    every flow's receive window, which is then clipped to its segment.
    """

    xs: np.ndarray
    ys: np.ndarray
    xy: np.ndarray                # (n, 2) positions
    phases: np.ndarray            # sleep phases
    d_dst: np.ndarray             # distance to the segment's flow's dst
    lateral: np.ndarray           # lateral offset from that flow's axis
    seen: np.ndarray              # decoded at least once by that flow
    relayed: np.ndarray           # was in a relay set of that flow; nodes
                                  # seen and not relayed are parked
    key: np.ndarray


class _Run(NamedTuple):
    """What every flow of one kernel run shares."""

    phy: PhyConfig
    policy: RetransmitPolicy
    b: int                        # RACH slot count
    u: float                      # detection threshold
    slot: float                   # grid slot, t_p + t_guard
    epsilon: float                # awake fraction of every field of the run
    nodes: _Nodes


def decode_set(run: _Run, flows: list, reaches: list,
               pn_extra_fn=None) -> np.ndarray:
    """Indices into the run's node table, ascending, of the nodes that hear
    the transmissions of flows, each by its relay set at its time t.

    A node hears its flow's transmission iff it is awake at the
    transmission start, it has not relayed for that flow, and the aggregate
    mean channel power from the flow's transmitters meets the detection
    threshold; none can at or beyond the reach of its flow's transmit set,
    given in reaches, so a flow's window of candidates ends short of it.
    pn_extra_fn(xs, ys), given only for a lone flow, supplies its receivers
    additive per-node noise-plus-interference power (per subcarrier). One
    call serves every flow transmitting in a step.
    """
    nodes, phy = run.nodes, run.phy
    if len(flows) == 1:  # one window, a slice of the table
        f, = flows
        x, d_cut = f.relay_xy[:, 0].tolist(), reaches[0]
        i0, i1 = nodes.key.searchsorted([min(x) - d_cut + f.shift,
                                         max(x) + d_cut + f.shift]).tolist()
        i0, i1 = min(max(i0, f.start), f.stop), min(max(i1, f.start), f.stop)
        mask = awake_mask(nodes.phases[i0:i1], f.t, phy.t_p, run.epsilon)
        mask &= ~nodes.relayed[i0:i1]
        idx = mask.nonzero()[0] + i0
        relays, m = f.relay_xy, None
    else:
        relays = np.concatenate([f.relay_xy for f in flows])
        ks = [f.relay_xy.shape[0] for f in flows]
        first = np.cumsum(ks) - ks
        shift = [f.shift for f in flows]
        i0, i1 = np.minimum(np.maximum(nodes.key.searchsorted(
            [np.minimum.reduceat(relays[:, 0], first) - reaches + shift,
             np.maximum.reduceat(relays[:, 0], first) + reaches + shift]),
            [f.start for f in flows]), [f.stop for f in flows])
        n = i1 - i0
        cand = np.arange(n.sum()) + (i0 - n.cumsum() + n).repeat(n)
        t = np.array([f.t for f in flows]).repeat(n)
        idx = cand[awake_mask(nodes.phases.take(cand), t, phy.t_p,
                              run.epsilon)]
        idx = idx[~nodes.relayed.take(idx)]
        m = idx.searchsorted(i1) - idx.searchsorted(i0)
    xs, ys = nodes.xs.take(idx), nodes.ys.take(idx)
    h = aggregate_power(xs, ys, relays[:, 0], relays[:, 1], phy.alpha,
                        None if m is None else (m, ks))
    return idx[h >= _threshold(xs, ys, phy, run.u, pn_extra_fn)]


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


@dataclass
class _FlowState:
    """Mutable per-packet forwarding state (one flow)."""

    strip: Strip
    start: int                    # its segment of the run's node table,
    stop: int                     # [start, stop),
    shift: float                  # and that segment's shift into key
    strip_width: float            # current width; retransmissions widen it
    relay_xy: np.ndarray          # transmitters of the next hop, global coords
    relay_d: np.ndarray           # their distances to dst, ascending
    dp: np.ndarray                # accumulated propagation path length, m
    rng: np.random.Generator      # RACH draws and false alarms
    next_slot: int                # grid slot of the flow's next transmission
    t: float                      # sleep-schedule clock (see docs/decisions.md)
    hop: int = 1
    j: int = 1                    # first resolvable transmitter of the
                                  # attempt: the source's own at hop 1
    n_r: int = 0
    n_r_interference: int = 0
    records: list = dc_field(default_factory=list)
    sent_xy: list = dc_field(default_factory=list)  # each record's transmitters
    ended: str = ""               # why the flow stopped; "" while it runs
    delay_spread_s: float = math.nan
    stragglers: list = dc_field(default_factory=list)  # (first hop, x, y, dp)

    def result(self) -> TrialResult:
        return TrialResult(
            records=self.records,
            reached=self.ended == DELIVERED,
            q=self.records[-1].hop if self.records else 0,
            delay_spread_s=self.delay_spread_s,
            ended=self.ended,
        )


class _Reception(NamedTuple):
    """What one step's transmissions achieve, flow by flow (flow i is the
    i-th transmitting flow; node arrays are grouped by flow)."""

    heard: np.ndarray      # nodes hearing the packet
    l: list                # per flow: how many for the first time
    relays: np.ndarray     # fresh and re-qualifying decoders that relay
    k: list                # per flow: how many
    dst_detected: list


def _receive(run: _Run, flows: list, pn_extra_fn=None) -> _Reception:
    """What one transmission by each flow's current relay set achieves, its
    decision arc set by its first resolvable transmitter, under the extra
    noise of pn_extra_fn for a lone flow; reads the states and changes
    nothing."""
    nodes, phy, u = run.nodes, run.phy, run.u
    reaches, dst = [], []
    for f in flows:
        d_reach = reach(f.relay_xy.shape[0], u, phy.alpha)
        reaches.append(d_reach)
        # the destination is an always-awake receiver applying the same
        # test, which it can pass only within reach of the nearest
        # transmitter (extra noise only raises the threshold)
        dst.append(bool(f.relay_d[0] <= d_reach and _detects(
            np.array([f.strip.dst.x]), np.array([f.strip.dst.y]),
            f.relay_xy, phy, u, pn_extra_fn)[0]))
    # one detection pass over every node that has not relayed: fresh nodes
    # decode, and parked nodes (decoded on an earlier transmission, never
    # relayed) re-read the header and re-evaluate the position criteria,
    # which matters when a retransmission widened the strip or moved the arc
    heard = decode_set(run, flows, reaches, pn_extra_fn)
    if len(flows) == 1:
        f, = flows
        flow, d_ref = None, decision_distance(f.relay_d, f.j)
        width = f.strip_width
    else:
        flow = np.array([f.start for f in flows]).searchsorted(
            heard, side="right") - 1
        d_ref = np.array([decision_distance(f.relay_d, f.j)
                          for f in flows]).take(flow)
        width = np.array([f.strip_width for f in flows]).take(flow)
    seen = nodes.seen.take(heard)
    rule = eligible(nodes.d_dst.take(heard), nodes.lateral.take(heard), d_ref,
                    width)
    relays = heard[rule]
    if flow is None:
        l, k = [heard.size - int(np.count_nonzero(seen))], [relays.size]
    else:
        l, k = (np.bincount(flow[mask], minlength=len(flows)).tolist()
                for mask in (~seen, rule))
    return _Reception(heard, l, relays, k, dst)


def _path_step(new_xy: np.ndarray, prev_xy: np.ndarray, prev_dp: np.ndarray,
               delta_r: float, sizes=None) -> np.ndarray:
    """First-arrival path length of each new relay: the minimum over previous
    relays of (link distance + their path), plus the first-echo excess. With
    sizes = (new, previous) per group, both come in groups and a new relay's
    minimum runs over its own group's previous relays; a minimum is exact in
    any grouping."""
    if sizes is None:
        link = np.hypot(new_xy[:, 0:1] - prev_xy[None, :, 0],
                        new_xy[:, 1:2] - prev_xy[None, :, 1])
        return np.minimum.reduce(link + prev_dp, axis=1) + delta_r
    n_new, n_prev = sizes
    i, j = group_pairs(n_new, n_prev)
    link = np.hypot(new_xy[:, 0].take(i) - prev_xy[:, 0].take(j),
                    new_xy[:, 1].take(i) - prev_xy[:, 1].take(j))
    per_new = n_prev.repeat(n_new)
    return np.minimum.reduceat(link + prev_dp.take(j),
                               per_new.cumsum() - per_new) + delta_r


def _delay_spread(d_dst: np.ndarray, dp: np.ndarray) -> float:
    """Forwarding delay spread at dst, s: spread of the arrivals of relays
    at distances d_dst from dst with path lengths dp."""
    arrivals = d_dst + dp
    return float(arrivals.max() - arrivals.min()) / SPEED_OF_LIGHT


def _advance_relays(run: _Run, flows: list, r_idx: np.ndarray,
                    n_new: list) -> list[int]:
    """Install every new relay set at once: flow i's set is its n_new[i]
    nodes of r_idx (grouped by flow) plus its due false-alarm stragglers,
    sorted by distance to dst, with their path lengths. A flow with no new
    nodes keeps its set. Returns each flow's new set size (0 where it kept
    it)."""
    nodes, n_r_max = run.nodes, run.policy.n_r_max
    movers = flows if len(flows) == 1 else [f for f, n in zip(flows, n_new)
                                            if n]
    new_xy = nodes.xy.take(r_idx, axis=0)
    if len(movers) == 1:
        f, = movers
        new_dp = _path_step(new_xy, f.relay_xy, f.dp, run.phy.delta_r)
    else:
        new_dp = _path_step(
            new_xy, np.concatenate([f.relay_xy for f in movers]),
            np.concatenate([f.dp for f in movers]), run.phy.delta_r,
            (np.array([n for n in n_new if n]),
             np.array([f.relay_xy.shape[0] for f in movers])))
    d = nodes.d_dst.take(r_idx)
    sizes, owner = list(n_new), None
    if len(movers) > 1:
        owner = np.arange(len(flows)).repeat(n_new)
    extra = run.policy.fa_rate > 0.0 and [
        (i, e) for i, f in enumerate(flows) if n_new[i]
        for e in f.stragglers if e[0] <= f.hop < e[0] + n_r_max]
    if extra:  # false-alarm stragglers, not deployment nodes
        extra_xy = np.array([e[1:3] for _, e in extra])
        dst = np.array([flows[i].strip.dst for i, _ in extra])
        new_xy = np.vstack([new_xy, extra_xy])
        new_dp = np.concatenate([new_dp, [e[3] for _, e in extra]])
        d = np.concatenate([d, np.hypot(*(extra_xy - dst).T)])
        for i, _ in extra:
            sizes[i] += 1
        if owner is not None:
            owner = np.concatenate([owner, [i for i, _ in extra]])
    # stable within each flow: its nodes in index order, then its stragglers
    order = d.argsort(kind="stable") if owner is None \
        else np.lexsort((d, owner))
    new_xy, d, new_dp = new_xy.take(order, axis=0), d.take(order), \
        new_dp.take(order)
    if len(flows) == 1:  # the whole is its set
        f.relay_xy, f.relay_d, f.dp = new_xy, d, new_dp
        return sizes
    end = 0
    for f, size in zip(flows, sizes):
        if size:
            f.relay_xy, f.relay_d = new_xy[end:end + size], d[end:end + size]
            f.dp = new_dp[end:end + size]
        end += size
    return sizes


def _register_false_alarms(run: _Run, state: _FlowState, old_xy: np.ndarray,
                           old_dp: np.ndarray) -> None:
    """Relays that miss the forwarded packet ID rejoin later transmit sets.

    A listener of relay set R_i that false-alarms keeps retransmitting, which
    adds it to the relay sets R_{i+2} .. R_{i+n_r_max+1} (one extra member
    each). The listeners of the hop just completed form R_{hop-1}, so each
    is stored once with its first set, R_{hop+1}.
    """
    fa_rate = run.policy.fa_rate
    if fa_rate <= 0.0:
        return
    fa = state.rng.random(old_xy.shape[0]) < fa_rate
    state.stragglers += [(state.hop + 1, float(old_xy[i, 0]),
                          float(old_xy[i, 1]), float(old_dp[i]))
                         for i in np.flatnonzero(fa)]


def run_hop_step(run: _Run, flows: list, pn_extra_fn=None) -> bool:
    """Process one transmission attempt of each of flows, all in one grid
    slot, mutating their states; each draws from its own generator. Returns
    whether any of them stopped. pn_extra_fn, given only for a lone flow,
    is the cross-flow noise-plus-interference its receivers see.

    On an empty relay set the attempt counts as a retransmission: the strip is
    widened, the flow's next transmission moves two grid slots on
    (listen-then-retransmit), and the RACH is redrawn. A retransmission that
    would have succeeded without cross-flow interference is tagged. Any other
    attempt takes one grid slot. The hop completes when a relay set forms or
    the destination detects; the flow stops when the destination detects or
    the retransmission cap is spent.
    """
    policy, stopped = run.policy, False
    # the source position travels in the header; it is always resolvable
    later = [f for f in flows if f.hop > 1]
    if later:
        js = rach_round([f.relay_xy.shape[0] for f in later], run.b, 1,
                        [f.rng for f in later])[1]
        for f, j in zip(later, js.tolist()):
            f.j = j
    rx = _receive(run, flows, pn_extra_fn)
    # tag a retransmission when the same attempt on a clean channel, from
    # the same state, would have reached the destination or formed relays
    if pn_extra_fn is not None and not (rx.dst_detected[0] or rx.k[0]) \
            and flows[0].n_r < policy.n_r_max:
        clean = _receive(run, flows)
        flows[0].n_r_interference += clean.dst_detected[0] or clean.k[0] > 0
    run.nodes.seen[rx.heard] = True
    # a flow whose destination detected installs no relay set
    relays, n_new = rx.relays, rx.k
    if True in rx.dst_detected:
        relays = relays[~np.array(rx.dst_detected).repeat(n_new)]
        n_new = [0 if d else k for d, k in zip(rx.dst_detected, n_new)]
    old = [(f.relay_xy, f.dp) for f in flows]
    if relays.size:
        run.nodes.relayed[relays] = True
        n_new = _advance_relays(run, flows, relays, n_new)
    for f, l, k, dst, (old_xy, old_dp) in zip(flows, rx.l, n_new,
                                              rx.dst_detected, old):
        # k > 0 where fresh relays formed, stragglers counted
        if not (dst or k) and f.n_r < policy.n_r_max:
            f.n_r += 1
            # FL-WIDTH (docs/decisions.md): no hop resets the width, so
            # it grows with the flow's retransmissions over all its hops
            f.strip_width += policy.delta_w
            # FL-CLOCKS (docs/decisions.md): two grid slots, but 2 t_p of
            # sleep clock
            f.next_slot += 2
            f.t += 2.0 * run.phy.t_p
            continue
        if dst:
            f.delay_spread_s = _delay_spread(f.relay_d, old_dp)
            f.ended, stopped = DELIVERED, True
        elif not k:
            f.ended, stopped = RETRANSMISSION_CAP, True
        f.records.append(HopRecord(f.hop, old_xy.shape[0], f.j, l, k, f.n_r,
                                   math.nan, f.n_r_interference))
        f.sent_xy.append(old_xy)
        f.n_r = f.n_r_interference = 0  # the record holds this hop's count
        f.next_slot += 1
        f.t += run.slot
        if k:
            _register_false_alarms(run, f, old_xy, old_dp)
            f.hop += 1
    return stopped


def slot_budget(field_cfg: FieldConfig, phy: PhyConfig,
                policy: RetransmitPolicy) -> int:
    """Grid slots a run may use: 16 per first-hop reach of the field length
    (at least 512), times the attempts one hop may take."""
    r1 = detection_constant(phy).single_relay_radius
    return max(512, int(16.0 * field_cfg.length / r1)) * (policy.n_r_max + 1)


def field_width(field_cfg: FieldConfig, policy: RetransmitPolicy,
                srcs) -> float:
    """Width of the field drawn for srcs: their offsets and one hop's widest
    strip (a flow's strip can outgrow it, FL-WIDTH in docs/decisions.md)."""
    return 2.0 * max(abs(src.y) for src in srcs) + (
        field_cfg.w + policy.n_r_max * policy.delta_w)


def check_stagger_slots(stagger_slots: int, field_cfg: FieldConfig,
                        phy: PhyConfig, policy: RetransmitPolicy) -> None:
    """The stagger rule: a later flow is injected inside the slot budget."""
    budget = slot_budget(field_cfg, phy, policy)
    if not (0 <= stagger_slots < budget):
        raise ValueError(f"stagger_slots must be in [0, {budget}), got "
                         f"{stagger_slots}")


def _new_run(phy: PhyConfig, policy: RetransmitPolicy, b: int,
             strip_width: float, specs: list) -> tuple[_Run, list[_FlowState]]:
    """A run's shared inputs and node table, and its flows at their sources.

    specs holds one (deployment, strip, rng, start_slot) per flow: a packet
    first transmitting in grid slot start_slot and drawing its protocol
    randomness from rng. Every node's distance to dst and lateral offset are
    fixed for the flow, so they are computed here once. The fields share
    their configuration; either one field carries every flow, or each flow
    has a field of its own.
    """
    deps = [dep for dep, *_ in specs]
    fields = len({id(dep) for dep in deps})
    if 1 < fields < len(deps):
        raise ValueError("a shared field must carry every flow")
    strips = [strip for _, strip, *_ in specs]
    start = np.cumsum([0] + [dep.n for dep in deps]).tolist()
    # each deployment is sorted by x, so its ends bound |x|: segment i's
    # keys lie within extent of its shift, 2 i extent
    extent = 1.0 + max([abs(float(x)) for dep in deps if dep.n
                        for x in (dep.xs[0], dep.xs[-1])], default=0.0)

    def table(arrays):  # one flow's arrays are its table's
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    n = start[-1]
    xs = table([dep.xs for dep in deps])
    ys = table([dep.ys for dep in deps])
    nodes = _Nodes(
        xs=xs, ys=ys, xy=np.column_stack([xs, ys]),
        phases=table([dep.sleep_phases for dep in deps]),
        d_dst=table([np.hypot(dep.xs - s.dst.x, dep.ys - s.dst.y)
                     for dep, s in zip(deps, strips)]),
        lateral=table([s.frame(dep.xs, dep.ys)[1]
                       for dep, s in zip(deps, strips)]),
        seen=np.zeros(n, dtype=bool),
        relayed=np.zeros(n, dtype=bool),
        key=table([dep.xs + 2.0 * extent * i if i else dep.xs
                   for i, dep in enumerate(deps)]),
    )
    run = _Run(phy, policy, b, detection_constant(phy).u,
               phy.t_p + phy.t_guard, deps[0].cfg.epsilon, nodes)
    flows = [_FlowState(
        strip=strip, start=start[i], stop=start[i + 1],
        shift=2.0 * extent * i,
        strip_width=strip_width,
        relay_xy=np.asarray([[strip.src.x, strip.src.y]], dtype=float),
        relay_d=np.hypot([strip.src.x - strip.dst.x],
                         [strip.src.y - strip.dst.y]),
        dp=np.zeros(1), rng=rng, next_slot=start_slot,
        t=start_slot * run.slot,
    ) for i, (dep, strip, rng, start_slot) in enumerate(specs)]
    return run, flows


def _contend(run: _Run, txers: list, radius: float) -> list[tuple]:
    """The flows due in a slot on a shared field that transmit in it,
    each with the noise-plus-interference its receivers see (None for a
    lone transmitter).

    A source that detects another flow's relays transmitting defers one slot
    (carrier sense applies to sources only); each remaining flow's receivers
    see the others' slot-start transmit sets as added noise-plus-interference
    (within radius).
    """
    out = list(txers)
    for f in txers:
        if f.hop + f.n_r == 1 and any(
                g is not f and g.hop + g.n_r > 1
                and _detects(f.strip.src.x, f.strip.src.y, g.relay_xy,
                             run.phy, run.u)[0] for g in out):
            f.next_slot += 1
            f.t += run.slot
            out.remove(f)
    # built before any flow steps, since a step replaces its relay set
    return [(f, interference_pn_fn(
        np.vstack([g.relay_xy for g in out if g is not f]), run.phy,
        radius) if len(out) > 1 else None) for f in out]


def _run_flows(
    field_cfg: FieldConfig,
    phy: PhyConfig,
    policy: RetransmitPolicy,
    b: int,
    fields: list[tuple[int, list[Point2D]]],
    interference_radius: float = 0.0,
    stagger_slots: int = 0,
) -> tuple[list[_FlowState], int]:
    """Forward one packet per source toward (L, 0), each (seed, sources)
    pair on a field of its own, all flows on one slot grid and in lockstep:
    either one field carries every flow, or each field carries one.

    Deterministic for a given seed: the first child stream deploys its
    field, the others drive one flow each (RACH draws, false alarms). Flow
    i of a field is injected i * stagger_slots slots late. Flows on
    different fields never interact, so a slot's transmissions are one hop
    step; flows on one field take turns in it (see _contend). A flow stops
    when it delivers or spends its retransmission cap; the slot budget stops
    the rest, as every attempt takes a slot. Returns the flow states and the
    number of slots used.
    """
    check_rach_slots(b)
    if not fields:  # nothing to deploy or forward
        return [], 0
    dst = Point2D(field_cfg.length, 0.0)
    specs = []
    for seed, srcs in fields:
        dep_ss, *flow_ss = np.random.SeedSequence(seed).spawn(1 + len(srcs))
        deployment = deploy(field_cfg, dep_ss, phy.t_p,
                            field_width(field_cfg, policy, srcs))
        specs += [(deployment, Strip(src=src, dst=dst),
                   np.random.default_rng(ss), i * stagger_slots)
                  for i, (src, ss) in enumerate(zip(srcs, flow_ss))]
    run, flows = _new_run(phy, policy, b, field_cfg.w, specs)
    max_slots = slot_budget(field_cfg, phy, policy)

    live, slot_idx = flows, 0
    while live and slot_idx < max_slots:
        txers = [f for f in live if f.next_slot == slot_idx]
        if len(fields) < len(flows):  # one field's flows take turns
            stopped = [run_hop_step(run, [f], fn) for f, fn in
                       _contend(run, txers, interference_radius)]
        else:
            stopped = [run_hop_step(run, txers)] if txers else []
        if True in stopped:
            live = [f for f in live if not f.ended]
        slot_idx += 1
    for f in live:
        f.ended = SLOT_BUDGET
    # no forwarding decision reads xh0: one solve for every flow's records
    k = [r.k_prev for f in flows for r in f.records]
    sent = [np.concatenate([np.empty((0, 2))] + f.sent_xy) for f in flows]
    frames = [f.strip.frame(xy[:, 0], xy[:, 1]) for f, xy in zip(flows, sent)]
    xh0 = iter(coverage_contour(np.concatenate([a for a, _ in frames]),
                                np.concatenate([lat for _, lat in frames]),
                                np.cumsum(k) - k, run.u, phy.alpha).tolist())
    for f in flows:
        # (fields hop .. n_r, then xh0: built anew, as _replace is slower)
        f.records = [HopRecord(*r[:6], next(xh0), r.n_r_interference)
                     for r in f.records]
    return flows, slot_idx


def run_trials(
    field_cfg: FieldConfig,
    phy: PhyConfig,
    policy: RetransmitPolicy,
    b: int,
    seeds: list[int],
) -> list[TrialResult]:
    """One packet from (0, 0) to (L, 0) per seed, each on a fresh Poisson
    field of its own, all run in lockstep; each result is the seed's
    run_trial result."""
    flows, _ = _run_flows(field_cfg, phy, policy, b,
                          [(seed, [Point2D(0.0, 0.0)]) for seed in seeds])
    return [f.result() for f in flows]


def run_trial(
    field_cfg: FieldConfig,
    phy: PhyConfig,
    policy: RetransmitPolicy,
    b: int,
    seed: int,
) -> TrialResult:
    """One packet from (0, 0) to (L, 0) on a fresh Poisson field."""
    return run_trials(field_cfg, phy, policy, b, [seed])[0]


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
    flows, slots_used = _run_flows(field_cfg, phy, policy, b,
                                   [(seed, [src_a, src_b])],
                                   interference_radius, stagger_slots)
    # closed hops carry their tags in their records; a hop still open when
    # the slot budget ran out carries them in the state
    tagged = sum(f.n_r_interference
                 + sum(r.n_r_interference for r in f.records) for f in flows)
    return TwoPacketResult(flows[0].result(), flows[1].result(), tagged,
                           slots_used)
