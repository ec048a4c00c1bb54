"""OMR forwarding engine: decode/relay sets, RACH resolvability, retransmission, trials."""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .channel import (
    ContourUndefinedError,
    PhyConfig,
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
    in_strip,
)


class NoResolvableRelayError(RuntimeError):
    """All previous-hop positions collided on the RACH; no decision arc exists."""


@dataclass
class PacketHeader:
    src: Point2D
    dst: Point2D
    packet_id: int
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
    n_deployed: int


def rach_round(k: int, b: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Assign k relays to b RACH slots uniformly; singleton slots are resolvable.

    Returns the per-relay resolvable flags (in destination-distance order) and
    the 1-based index of the first resolvable relay, 0 if all collided.
    """
    if b < 2:
        raise ValueError("rach_round requires b >= 2")
    slots = rng.integers(0, b, size=k)
    counts = np.bincount(slots, minlength=b)
    resolvable = counts[slots] == 1
    j = int(np.argmax(resolvable)) + 1 if resolvable.any() else 0
    return resolvable, j


def rach_round_batch(k: int, b: int, n: int,
                     rng: np.random.Generator) -> np.ndarray:
    """First-resolvable indices of n independent RACH rounds (vectorized)."""
    if b < 2:
        raise ValueError("rach_round requires b >= 2")
    slots = rng.integers(0, b, size=(n, k))
    counts = np.zeros((n, b), dtype=np.int32)
    rows = np.repeat(np.arange(n), k)
    np.add.at(counts, (rows, slots.ravel()), 1)
    resolvable = counts[rows, slots.ravel()].reshape(n, k) == 1
    any_res = resolvable.any(axis=1)
    return np.where(any_res, resolvable.argmax(axis=1) + 1, 0)


def decision_contour(r_prev: list[Point2D], j: int, dst: Point2D, strip: Strip):
    """Predicate: strictly closer to dst than the first resolvable relay, inside strip.

    j is 1-based; j = 0 raises, callers apply the all-collided fallback instead
    (progress with respect to the farthest previous relay).
    """
    if j < 1:
        raise NoResolvableRelayError("no resolvable relay; apply the j=0 fallback")
    ref = r_prev[j - 1]
    d_ref = math.hypot(ref[0] - dst[0], ref[1] - dst[1])

    def predicate(p: Point2D) -> bool:
        d = math.hypot(p[0] - dst[0], p[1] - dst[1])
        return d < d_ref and in_strip(p, strip)

    return predicate


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
    rx, ry = relays[:, 0], relays[:, 1]
    k = rx.size
    d_cut = (k / u) ** (1.0 / phy.alpha)
    i0, i1 = deployment.window(rx.min() - d_cut, rx.max() + d_cut)
    if i1 <= i0:
        return np.empty(0, dtype=np.intp)

    idx = np.arange(i0, i1)
    mask = awake_mask(
        deployment.sleep_phases[i0:i1], t_now, phy.t_p, deployment.cfg.epsilon
    )
    if seen is not None:
        mask &= ~seen[i0:i1]
    if not mask.any():
        return np.empty(0, dtype=np.intp)
    idx = idx[mask]

    cx = deployment.xs[idx]
    cy = deployment.ys[idx]
    h = np.zeros(idx.size)
    for xk, yk in zip(rx, ry):
        d2 = (cx - xk) ** 2 + (cy - yk) ** 2
        h += d2 ** (-phy.alpha / 2.0)

    u_eff = u
    if pn_extra_fn is not None:
        extra = pn_extra_fn(cx, cy)
        u_eff = u * (phy.p_n + extra) / phy.p_n
    return idx[h >= u_eff]


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

    @property
    def done(self) -> bool:
        return self.reached or self.failed


def _axial_frame(strip: Strip) -> tuple[float, float]:
    ux, uy, _ = strip.axis_frame()
    return ux, uy


def _to_frame(xy: np.ndarray, strip: Strip) -> np.ndarray:
    """Rotate global coordinates into the (axial, lateral) frame of a strip."""
    ux, uy = _axial_frame(strip)
    dx = xy[:, 0] - strip.src.x
    dy = xy[:, 1] - strip.src.y
    ax = dx * ux + dy * uy
    lat = -dx * uy + dy * ux
    return np.column_stack([ax, lat])


def _attempt(
    state: _FlowState,
    deployment: Deployment,
    phy: PhyConfig,
    u: float,
    rng: np.random.Generator,
    pn_extra_fn=None,
) -> dict:
    """One transmission attempt: RACH draw, decode set, relay formation, dst test."""
    hdr = state.header
    relay_xy = state.relay_xy
    k_prev = relay_xy.shape[0]

    if state.hop == 1:
        # source position travels in the header; it is always resolvable
        j_prev = 1
        d_ref = math.hypot(hdr.src.x - hdr.dst.x, hdr.src.y - hdr.dst.y)
    else:
        d_prev = np.hypot(relay_xy[:, 0] - hdr.dst.x, relay_xy[:, 1] - hdr.dst.y)
        _, j_prev = rach_round(k_prev, hdr.b, rng)
        d_ref = float(d_prev[j_prev - 1]) if j_prev >= 1 else float(d_prev.max())

    d_idx = decode_set(
        deployment,
        relay_xy,
        state.t,
        phy,
        u=u,
        seen=state.seen,
        pn_extra_fn=pn_extra_fn,
    )
    # parked nodes (decoded on an earlier transmission, never relayed) that hear
    # this one re-read the header and re-evaluate the position criteria, which
    # matters when a retransmission widened the strip or moved the decision arc
    park_idx = np.flatnonzero(state.parked)
    state.seen[d_idx] = True
    state.parked[d_idx] = True
    if park_idx.size:
        awake = awake_mask(
            deployment.sleep_phases[park_idx], state.t, phy.t_p,
            deployment.cfg.epsilon,
        )
        park_idx = park_idx[awake]
    if park_idx.size:
        px = deployment.xs[park_idx]
        py = deployment.ys[park_idx]
        hp = np.zeros(park_idx.size)
        for xk, yk in zip(relay_xy[:, 0], relay_xy[:, 1]):
            hp += ((px - xk) ** 2 + (py - yk) ** 2) ** (-phy.alpha / 2.0)
        u_park = u
        if pn_extra_fn is not None:
            extra = pn_extra_fn(px, py)
            u_park = u * (phy.p_n + extra) / phy.p_n
        park_idx = park_idx[hp >= u_park]

    # destination is an always-awake receiver applying the same detection test
    dxs = np.asarray([hdr.dst.x])
    dys = np.asarray([hdr.dst.y])
    h_dst = 0.0
    for xk, yk in zip(relay_xy[:, 0], relay_xy[:, 1]):
        h_dst += float(((dxs[0] - xk) ** 2 + (dys[0] - yk) ** 2) ** (-phy.alpha / 2.0))
    u_dst = u
    if pn_extra_fn is not None:
        extra = float(pn_extra_fn(dxs, dys)[0])
        u_dst = u * (phy.p_n + extra) / phy.p_n
    dst_detected = h_dst >= u_dst

    # position criteria: strictly closer to dst than the decision arc, in strip
    pool = np.concatenate([d_idx, park_idx]) if park_idx.size else d_idx
    cx = deployment.xs[pool]
    cy = deployment.ys[pool]
    d_dst = np.hypot(cx - hdr.dst.x, cy - hdr.dst.y)
    ux, uy = _axial_frame(state.strip)
    lat = -(cx - state.strip.src.x) * uy + (cy - state.strip.src.y) * ux
    eligible = (d_dst < d_ref) & (np.abs(lat) <= hdr.strip_width / 2.0)
    r_idx = pool[eligible]

    return {
        "j_prev": j_prev,
        "d_idx": d_idx,
        "r_idx": r_idx,
        "dst_detected": dst_detected,
    }


def _contour_xh0(relay_xy: np.ndarray, strip: Strip, u: float, alpha: float) -> float:
    frame = _to_frame(relay_xy, strip)
    try:
        return coverage_contour(frame, 0.0, u, alpha)
    except ContourUndefinedError:
        return math.nan


def _finish_delivery(state: _FlowState, phy: PhyConfig) -> None:
    hdr = state.header
    arrivals = (
        np.hypot(state.relay_xy[:, 0] - hdr.dst.x, state.relay_xy[:, 1] - hdr.dst.y)
        + state.dp
    )
    from .channel import SPEED_OF_LIGHT

    state.delay_spread_s = float(arrivals.max() - arrivals.min()) / SPEED_OF_LIGHT
    state.reached = True


def _advance_relays(
    state: _FlowState,
    deployment: Deployment,
    r_idx: np.ndarray,
    phy: PhyConfig,
) -> int:
    """Install the new relay set (sorted by distance to dst) and update delays."""
    hdr = state.header
    nx = deployment.xs[r_idx]
    ny = deployment.ys[r_idx]
    d_dst = np.hypot(nx - hdr.dst.x, ny - hdr.dst.y)
    order = np.argsort(d_dst, kind="stable")
    new_xy = np.column_stack([nx[order], ny[order]])

    hop_d = np.hypot(
        new_xy[:, 0:1] - state.relay_xy[None, :, 0],
        new_xy[:, 1:2] - state.relay_xy[None, :, 1],
    )
    new_dp = (hop_d + state.dp[None, :]).min(axis=1) + phy.delta_r

    extra = state.stragglers.pop(state.hop, None)
    if extra:
        ex = np.asarray([(e[0], e[1]) for e in extra])
        new_xy = np.vstack([new_xy, ex])
        new_dp = np.concatenate([new_dp, np.asarray([e[2] for e in extra])])
        d_all = np.hypot(new_xy[:, 0] - hdr.dst.x, new_xy[:, 1] - hdr.dst.y)
        order = np.argsort(d_all, kind="stable")
        new_xy = new_xy[order]
        new_dp = new_dp[order]

    state.relay_xy = new_xy
    state.dp = new_dp
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
) -> None:
    """Process one transmission attempt of a flow, mutating its state.

    On an empty relay set the attempt counts as a retransmission: the strip is
    widened, time advances two packet slots (listen-then-retransmit), and the
    RACH is redrawn. A retransmission that would have succeeded without
    cross-flow interference is tagged. The hop completes when a relay set forms
    or the destination detects; it fails when the retransmission cap is spent.
    """
    hdr = state.header
    out = _attempt(state, deployment, phy, u, rng, pn_extra_fn=pn_extra_fn)
    k_prev = state.relay_xy.shape[0]

    if out["dst_detected"]:
        xh0 = _contour_xh0(state.relay_xy, state.strip, u, phy.alpha)
        state.records.append(
            HopRecord(
                hop=state.hop,
                k_prev=k_prev,
                j_prev=out["j_prev"],
                l=out["d_idx"].size,
                k=0,
                n_r=state.n_r,
                xh0=xh0,
                n_r_interference=state.n_r_interference,
            )
        )
        _finish_delivery(state, phy)
        return

    if out["r_idx"].size > 0:
        xh0 = _contour_xh0(state.relay_xy, state.strip, u, phy.alpha)
        old_xy, old_dp = state.relay_xy, state.dp
        state.parked[out["r_idx"]] = False
        k_new = _advance_relays(state, deployment, out["r_idx"], phy)
        state.records.append(
            HopRecord(
                hop=state.hop,
                k_prev=k_prev,
                j_prev=out["j_prev"],
                l=out["d_idx"].size,
                k=k_new,
                n_r=state.n_r,
                xh0=xh0,
                n_r_interference=state.n_r_interference,
            )
        )
        _register_false_alarms(state, old_xy, old_dp, policy, rng)
        state.hop += 1
        state.n_r = 0
        state.n_r_interference = 0
        state.t += slot
        return

    # empty relay set: retransmission (or failure at the cap); tag it when the
    # attempt would have succeeded without cross-flow interference
    interference_caused = False
    if pn_extra_fn is not None:
        interference_caused = _attempt_would_succeed(
            state, deployment, phy, u, out, None)
    if state.n_r >= policy.n_r_max:
        xh0 = _contour_xh0(state.relay_xy, state.strip, u, phy.alpha)
        state.records.append(
            HopRecord(
                hop=state.hop,
                k_prev=k_prev,
                j_prev=out["j_prev"],
                l=out["d_idx"].size,
                k=0,
                n_r=state.n_r,
                xh0=xh0,
                n_r_interference=state.n_r_interference,
            )
        )
        state.failed = True
        return
    state.n_r += 1
    if interference_caused:
        state.n_r_interference += 1
    # width cap w0 + n_r_max * delta_w holds because retransmissions stop at the cap
    hdr.strip_width += policy.delta_w
    state.t += 2.0 * phy.t_p


def _attempt_would_succeed(
    state: _FlowState,
    deployment: Deployment,
    phy: PhyConfig,
    u: float,
    failed_out: dict,
    pn_extra_clean,
) -> bool:
    """Counterfactual check: would the failed attempt have formed a relay set
    (or reached the destination) without cross-flow interference?"""
    hdr = state.header
    relay_xy = state.relay_xy
    # nodes already marked seen by the interfered attempt must be re-admitted
    seen_backup = state.seen.copy()
    seen_backup[failed_out["d_idx"]] = False
    d_idx = decode_set(
        deployment, relay_xy, state.t, phy, u=u, seen=seen_backup,
        pn_extra_fn=pn_extra_clean,
    )
    h_dst = 0.0
    for xk, yk in zip(relay_xy[:, 0], relay_xy[:, 1]):
        h_dst += float(
            ((hdr.dst.x - xk) ** 2 + (hdr.dst.y - yk) ** 2) ** (-phy.alpha / 2.0)
        )
    if h_dst >= u:
        return True
    cx = deployment.xs[d_idx]
    cy = deployment.ys[d_idx]
    d_dst = np.hypot(cx - hdr.dst.x, cy - hdr.dst.y)
    d_prev = np.hypot(relay_xy[:, 0] - hdr.dst.x, relay_xy[:, 1] - hdr.dst.y)
    if state.hop == 1:
        d_ref = math.hypot(hdr.src.x - hdr.dst.x, hdr.src.y - hdr.dst.y)
    elif failed_out["j_prev"] >= 1:
        d_ref = float(np.sort(d_prev)[failed_out["j_prev"] - 1])
    else:
        d_ref = float(d_prev.max())
    ux, uy = _axial_frame(state.strip)
    lat = -(cx - state.strip.src.x) * uy + (cy - state.strip.src.y) * ux
    eligible = (d_dst < d_ref) & (np.abs(lat) <= hdr.strip_width / 2.0)
    return bool(eligible.any())


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


def run_trial(
    field_cfg: FieldConfig,
    phy: PhyConfig,
    policy: RetransmitPolicy,
    b: int,
    seed: int,
    deployment: Deployment | None = None,
) -> TrialResult:
    """Full source-to-destination trial on a fresh Poisson field.

    Deterministic for a given seed: one child stream deploys the field, the
    other drives the protocol (RACH draws, false alarms).
    """
    field_cfg.validate()
    phy.validate()
    policy.validate()
    ss = np.random.SeedSequence(seed)
    dep_ss, proto_ss = ss.spawn(2)
    if deployment is None:
        w_max = field_cfg.w + policy.n_r_max * policy.delta_w
        deployment = deploy(field_cfg, dep_ss, t_p=phy.t_p, max_strip_width=w_max)
    rng = np.random.default_rng(proto_ss)

    u = detection_constant(phy).u
    header = PacketHeader(
        src=Point2D(0.0, 0.0),
        dst=Point2D(field_cfg.length, 0.0),
        packet_id=seed,
        strip_width=field_cfg.w,
        b=b,
    )
    header.validate()
    state = new_flow_state(header, deployment)
    slot = phy.t_p + phy.t_guard

    r1 = u ** (-1.0 / phy.alpha)
    max_hops = max(256, int(8.0 * field_cfg.length / r1))
    max_attempts = max_hops * (policy.n_r_max + 1)
    for _ in range(max_attempts):
        run_flow_hop(state, deployment, phy, policy, u, rng, slot)
        if state.done or state.hop > max_hops:
            break

    return TrialResult(
        records=state.records,
        reached=state.reached,
        q=state.records[-1].hop if state.records else 0,
        delay_spread_s=state.delay_spread_s,
        seed=seed,
        n_deployed=deployment.n,
    )


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

    Both flows run on a common transmission-slot grid; when they transmit in
    the same slot, each one's receivers see the other's transmit set as added
    noise-plus-interference (within interference_radius). The second source
    defers its injection while it can detect the other flow's transmission
    (carrier sense applies to sources only). Retransmissions that a clean
    channel would have avoided are tagged per flow.
    """
    field_cfg.validate()
    phy.validate()
    policy.validate()
    if dst is None:
        dst = Point2D(field_cfg.length, 0.0)

    ss = np.random.SeedSequence(seed)
    dep_ss, pa_ss, pb_ss = ss.spawn(3)
    # one field covering both strips: size the lateral extent by the sources
    w_max = field_cfg.w + policy.n_r_max * policy.delta_w
    lateral_span = 2.0 * max(abs(src_a.y), abs(src_b.y)) + w_max
    deployment = deploy(field_cfg, dep_ss, t_p=phy.t_p,
                        max_strip_width=lateral_span)
    u = detection_constant(phy).u
    slot = phy.t_p + phy.t_guard
    r1 = u ** (-1.0 / phy.alpha)
    max_slots = max(512, int(16.0 * field_cfg.length / r1)) \
        * (policy.n_r_max + 1)

    flows = []
    for name, src, proto_ss, start in (("a", src_a, pa_ss, 0),
                                       ("b", src_b, pb_ss, stagger_slots)):
        header = PacketHeader(src=src, dst=dst, packet_id=hash((seed, name)),
                              strip_width=field_cfg.w, b=b)
        header.validate()
        state = new_flow_state(header, deployment, start_t=start * slot)
        flows.append({
            "state": state,
            "rng": np.random.default_rng(proto_ss),
            "next_slot": start,
            "injected": False,
        })

    tagged = 0
    slot_idx = 0
    while slot_idx < max_slots:
        active = [f for f in flows if not f["state"].done
                  and f["next_slot"] == slot_idx]
        if not active:
            if all(f["state"].done for f in flows):
                break
            slot_idx += 1
            continue

        # snapshot the transmit sets before either flow mutates its state
        transmitters = {id(f): f["state"].relay_xy.copy() for f in active}

        # source-side carrier sense at injection
        for f in list(active):
            other = [g for g in flows if g is not f]
            if f["injected"] or not other:
                continue
            g = other[0]
            if not g["state"].done and g["next_slot"] == slot_idx \
                    and g["state"].hop + g["state"].n_r > 1:
                src = f["state"].header.src
                gx = transmitters.get(id(g), g["state"].relay_xy)
                h = sum(((src.x - x) ** 2 + (src.y - y) ** 2) ** (-phy.alpha / 2)
                        for x, y in gx)
                if h >= u:
                    f["next_slot"] += 1
                    f["state"].t += slot
                    active.remove(f)

        slot_txers = list(active)  # flows actually transmitting this slot
        for f in slot_txers:
            f["injected"] = True
            others = [g for g in slot_txers if g is not f]
            pn_fn = None
            if others:
                ixy = np.vstack([transmitters[id(g)] for g in others])
                pn_fn = interference_pn_fn(ixy, phy, interference_radius)
            before = f["state"].n_r_interference \
                + sum(r.n_r_interference for r in f["state"].records)
            hop_before = (f["state"].hop, f["state"].n_r)
            run_flow_hop(f["state"], deployment, phy, policy, u, f["rng"],
                         slot, pn_extra_fn=pn_fn)
            after = f["state"].n_r_interference \
                + sum(r.n_r_interference for r in f["state"].records)
            tagged += max(0, after - before)
            retransmitted = (f["state"].hop, f["state"].n_r) == \
                (hop_before[0], hop_before[1] + 1)
            f["next_slot"] += 2 if retransmitted else 1
        slot_idx += 1

    results = []
    for f in flows:
        st = f["state"]
        results.append(TrialResult(
            records=st.records,
            reached=st.reached,
            q=st.records[-1].hop if st.records else 0,
            delay_spread_s=st.delay_spread_s,
            seed=seed,
            n_deployed=deployment.n,
        ))
    return TwoPacketResult(flow_a=results[0], flow_b=results[1],
                           interference_tagged=tagged, slots_used=slot_idx)


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
    from .channel import SPEED_OF_LIGHT

    sets = [np.asarray(h, dtype=float).reshape(-1, 2) for h in hop_positions]
    dps = [np.zeros(sets[0].shape[0])]
    for prev, cur in zip(sets, sets[1:]):
        link = np.hypot(
            cur[:, 0:1] - prev[None, :, 0], cur[:, 1:2] - prev[None, :, 1]
        )
        dps.append((link + dps[-1][None, :]).min(axis=1) + delta_r)
    arrivals = np.hypot(sets[-1][:, 0] - dst[0], sets[-1][:, 1] - dst[1]) + dps[-1]
    spread_s = float(arrivals.max() - arrivals.min()) / SPEED_OF_LIGHT
    return dps, spread_s
