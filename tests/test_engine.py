"""Forwarding engine: RACH rounds, decode/relay sets, trials, delay recursion."""

import math

import numpy as np
import pytest

from omrsim.channel import PhyConfig, detection_constant
from omrsim.engine import (
    PacketHeader,
    RetransmitPolicy,
    decision_distance,
    decode_set,
    eligible,
    new_flow_state,
    propagation_delays,
    rach_round,
    rach_round_batch,
    run_flow_hop,
    run_trial,
    run_two_packet_trial,
)
from omrsim.field import Deployment, FieldConfig, Point2D, Strip, deploy

from rach_oracle import j_distribution

PHY = PhyConfig(p_n=1e-14)
U = detection_constant(PHY).u
R1 = U ** (-1.0 / 3.0)


def test_rach_single_relay_always_resolvable():
    rng = np.random.default_rng(0)
    for _ in range(50):
        resolvable, j = rach_round(1, 8, rng)
        assert resolvable.all() and j == 1


def test_rach_two_relays_two_slots():
    # both pick the same slot (j=0) or different slots (j=1), equally likely
    rng = np.random.default_rng(1)
    js = [rach_round(2, 2, rng)[1] for _ in range(40_000)]
    counts = np.bincount(js, minlength=3)
    assert counts[2] == 0
    assert abs(counts[1] / 40_000 - 0.5) < 3.0 * math.sqrt(0.25 / 40_000)


@pytest.mark.parametrize("b,k", [(3, 2), (3, 4), (4, 3), (5, 5), (6, 4)])
def test_rach_matches_enumeration(b, k):
    rng = np.random.default_rng(100 * b + k)
    n = 30_000
    js = np.array([rach_round(k, b, rng)[1] for _ in range(n)])
    sim = np.bincount(js, minlength=k + 1) / n
    exact = j_distribution(b, k)
    for jv in range(k + 1):
        p = exact[jv]
        tol = 3.0 * math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(sim[jv] - p) <= max(tol, 2e-3), (jv, sim[jv], p)


@pytest.mark.parametrize("b", [2, 3, 16, 24])
def test_rach_round_is_one_row_of_the_batch(b):
    # same slots, same j, same generator state afterwards
    one, batch = np.random.default_rng(7), np.random.default_rng(7)
    for k in range(1, 50):
        resolvable, j = rach_round(k, b, one)
        assert j == rach_round_batch(k, b, 1, batch)[0]
        assert j == (int(np.argmax(resolvable)) + 1 if resolvable.any() else 0)
    assert one.random() == batch.random()


def test_rach_j_zero_possible_when_k_exceeds_b():
    rng = np.random.default_rng(3)
    js = [rach_round(5, 3, rng)[1] for _ in range(2000)]
    assert 0 in js


def _relays(points, r_prev, j, strip):
    """Relay-rule verdicts for points against the arc of r_prev's relay j."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    d_ref = decision_distance(np.asarray(r_prev, dtype=float), j, strip.dst)
    return eligible(pts[:, 0], pts[:, 1], d_ref, strip, strip.width)


def test_decision_contour_semantics():
    strip = Strip(width=200.0, src=Point2D(0, 0), dst=Point2D(2000, 0))
    r_prev = [Point2D(120.0, 10.0), Point2D(80.0, -40.0), Point2D(60.0, 0.0)]
    # the reference relay itself offers zero progress
    assert not _relays(r_prev[0], r_prev, 1, strip)[0]
    # a point on the segment between the reference and dst, inside the strip
    assert _relays(Point2D(500.0, 5.0), r_prev, 1, strip)[0]
    # closer to dst but out of strip
    assert not _relays(Point2D(500.0, 140.0), r_prev, 1, strip)[0]
    # all collided (j = 0): the arc falls back to the farthest relay
    assert decision_distance(np.asarray(r_prev), 0, strip.dst) == 1940.0
    behind_head = Point2D(100.0, 0.0)
    assert _relays(behind_head, r_prev, 0, strip)[0]
    assert not _relays(behind_head, r_prev, 1, strip)[0]


def test_decision_contour_negative_progress_relaying():
    # a node behind an unresolvable head relay still relays when the first
    # resolvable one is farther back
    strip = Strip(width=200.0, src=Point2D(0, 0), dst=Point2D(2000, 0))
    head = Point2D(150.0, 0.0)     # unresolvable, closest to dst
    ref = Point2D(100.0, 0.0)      # first resolvable (j = 2)
    node = Point2D(120.0, 10.0)    # behind head, ahead of ref
    assert _relays(node, [head, ref], 2, strip)[0]
    d_node = math.hypot(2000 - 120.0, 10.0)
    assert d_node > 2000 - 150.0   # negative progress w.r.t. the head relay


def _tiny_deployment(xs, ys, epsilon=1.0, t_p=0.01):
    cfg = FieldConfig(rho=1e-9, epsilon=epsilon, length=2000.0, w=200.0)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    order = np.argsort(xs)
    return Deployment(
        xs=xs[order], ys=ys[order], sleep_phases=np.zeros(xs.size),
        seed=0, cfg=cfg, bounds=(-100.0, 2100.0, -200.0, 200.0),
        sleep_cycle_s=math.inf,
    )


def test_decode_set_geometric_oracle():
    # all awake, one relay: exactly the nodes inside the detection disc decode
    rng = np.random.default_rng(8)
    xs = rng.uniform(-100, 300, 400)
    ys = rng.uniform(-150, 150, 400)
    dep = _tiny_deployment(xs, ys)
    relays = np.array([[50.0, 10.0]])
    idx = decode_set(dep, relays, 0.0, PHY, u=U)
    d = np.hypot(dep.xs - 50.0, dep.ys - 10.0)
    expect = np.flatnonzero(d <= R1)
    np.testing.assert_array_equal(np.sort(idx), np.sort(expect))


def test_decode_set_excludes_seen():
    dep = _tiny_deployment([10.0, 20.0, 30.0], [0.0, 0.0, 0.0])
    relays = np.array([[0.0, 0.0]])
    seen = np.array([False, True, False])
    idx = decode_set(dep, relays, 0.0, PHY, u=U, seen=seen)
    assert 1 not in set(dep.xs[idx])  # the node at x=20 was dropped
    assert set(dep.xs[idx]) == {10.0, 30.0}


def test_decode_set_empty_when_out_of_range():
    dep = _tiny_deployment([1000.0], [0.0])
    relays = np.array([[0.0, 0.0]])
    assert decode_set(dep, relays, 0.0, PHY, u=U).size == 0


def test_decode_set_respects_sleep():
    # node asleep at transmission start does not decode
    t_p = 0.01
    cfg = FieldConfig(rho=1e-9, epsilon=0.25, length=2000.0, w=200.0)
    dep = Deployment(
        xs=np.array([30.0]), ys=np.array([0.0]),
        sleep_phases=np.array([0.0]),  # sleep block starts at t = 0
        seed=0, cfg=cfg, bounds=(-100, 2100, -200, 200),
        sleep_cycle_s=t_p / 0.75,
    )
    relays = np.array([[0.0, 0.0]])
    assert decode_set(dep, relays, 0.0, PHY, u=U).size == 0
    # awake interval of the cycle
    assert decode_set(dep, relays, 0.0105, PHY, u=U).size == 1


def test_interference_tag_counts_requalifying_parked_node():
    # the only node that could relay is parked (decoded earlier, never
    # relayed): under the interfered attempt nothing hears the source, on a
    # clean channel the parked node re-qualifies, so the retransmission is
    # tagged as caused by interference
    dep = _tiny_deployment([0.5 * R1], [0.0])
    hdr = PacketHeader(src=Point2D(0, 0), dst=Point2D(2000, 0),
                       strip_width=200.0, b=16)
    state = new_flow_state(hdr, dep)
    state.seen[0] = state.parked[0] = True

    def jammed(xs, ys):
        return np.full(np.shape(xs), 1e3)

    pol = RetransmitPolicy()
    slot = PHY.t_p + PHY.t_guard
    rng = np.random.default_rng(0)
    run_flow_hop(state, dep, PHY, pol, U, rng, slot, pn_extra_fn=jammed)
    assert (state.hop, state.n_r, state.n_r_interference) == (1, 1, 1)
    # and on the clean channel the parked node does relay
    run_flow_hop(state, dep, PHY, pol, U, rng, slot)
    assert state.hop == 2 and state.records[-1].k == 1
    assert not state.parked[0]


def test_two_packet_tags_count_each_retransmission_once():
    # on a short path a flow can deliver on a hop whose earlier attempts
    # were tagged; the total counts those tags once
    res = run_two_packet_trial(
        FieldConfig(length=300.0), PhyConfig(), RetransmitPolicy(), 24, 2,
        src_a=Point2D(0.0, 120.0), src_b=Point2D(0.0, -120.0))
    assert res.flow_a.reached and res.flow_b.reached
    in_records = sum(r.n_r_interference
                     for flow in (res.flow_a, res.flow_b) for r in flow.records)
    assert in_records >= 1
    assert res.interference_tagged == in_records


def test_two_packet_outputs_pinned():
    # the criterion-9 runs (golden field, sources 240 m apart), seeds
    # 4400-4407: tags, slots and per-flow hop counts
    got = []
    for s in range(8):
        res = run_two_packet_trial(
            FieldConfig(), PhyConfig(), RetransmitPolicy(), 24, 4400 + s,
            src_a=Point2D(0.0, 120.0), src_b=Point2D(0.0, -120.0))
        got.append((res.interference_tagged, res.slots_used,
                    res.flow_a.q, res.flow_b.q))
    assert [g[0] for g in got] == [2, 1, 1, 0, 0, 1, 1, 1]
    assert [g[1] for g in got] == [21, 20, 19, 19, 19, 19, 17, 19]
    assert [g[2] for g in got] == [17, 15, 14, 19, 14, 14, 15, 14]
    assert [g[3] for g in got] == [16, 18, 17, 13, 19, 17, 12, 17]


def test_propagation_delays_chain_spread_zero():
    # single relay per hop: one arrival path, spread is zero
    hops = [np.array([[0.0, 0.0]]),
            np.array([[60.0, 5.0]]),
            np.array([[130.0, -10.0]])]
    dps, spread = propagation_delays(hops, Point2D(200.0, 0.0))
    assert spread == 0.0
    assert dps[1][0] == pytest.approx(math.hypot(60, 5))
    assert dps[2][0] == pytest.approx(math.hypot(60, 5) + math.hypot(70, 15))


def test_propagation_delays_colocated_final_hop():
    hops = [np.array([[0.0, 0.0]]),
            np.array([[50.0, 0.0], [50.0, 0.0]])]
    _, spread = propagation_delays(hops, Point2D(100.0, 0.0))
    assert spread == 0.0


def test_propagation_delays_min_over_parents():
    # two parents with different accumulated delays: child takes the minimum
    hops = [np.array([[0.0, 0.0]]),
            np.array([[10.0, 0.0], [10.0, 30.0]]),
            np.array([[40.0, 0.0]])]
    dps, _ = propagation_delays(hops, Point2D(100.0, 0.0))
    via_axial = 10.0 + 30.0
    via_lateral = math.hypot(10, 30) + math.hypot(30, 30)
    assert dps[2][0] == pytest.approx(min(via_axial, via_lateral))


def test_delta_r_adds_per_hop():
    hops = [np.array([[0.0, 0.0]]), np.array([[10.0, 0.0]]),
            np.array([[20.0, 0.0]])]
    dps, _ = propagation_delays(hops, Point2D(30.0, 0.0), delta_r=7.0)
    assert dps[2][0] == pytest.approx(20.0 + 2 * 7.0)


def test_run_trial_deterministic():
    fc = FieldConfig()
    pol = RetransmitPolicy()
    a = run_trial(fc, PHY, pol, b=16, seed=77)
    b = run_trial(fc, PHY, pol, b=16, seed=77)
    assert a.reached == b.reached and a.q == b.q
    assert a.delay_spread_s == b.delay_spread_s
    assert [(r.hop, r.k_prev, r.l, r.j_prev, r.n_r, r.xh0) for r in a.records] \
        == [(r.hop, r.k_prev, r.l, r.j_prev, r.n_r, r.xh0) for r in b.records]


def test_run_trial_adjacent_destination():
    # destination within the source's own reach: q = 1, zero spread
    fc = FieldConfig(length=0.5 * R1)
    res = run_trial(fc, PHY, RetransmitPolicy(), b=16, seed=5)
    assert res.reached and res.q == 1
    assert res.delay_spread_s == 0.0


def test_run_trial_sparse_failure_is_reported():
    fc = FieldConfig(rho=2e-6)  # 2 nodes per km^2
    res = run_trial(fc, PHY, RetransmitPolicy(n_r_max=1), b=16, seed=6)
    assert not res.reached


def test_trial_invariants_ordering_duplicates_strip():
    fc = FieldConfig()
    phy = PHY
    pol = RetransmitPolicy()
    ss = np.random.SeedSequence(901)
    d_ss, p_ss = ss.spawn(2)
    dep = deploy(fc, d_ss, t_p=phy.t_p,
                 max_strip_width=fc.w + pol.n_r_max * pol.delta_w)
    rng = np.random.default_rng(p_ss)
    hdr = PacketHeader(src=Point2D(0, 0), dst=Point2D(fc.length, 0),
                       strip_width=fc.w, b=16)
    state = new_flow_state(hdr, dep)
    u = detection_constant(phy).u
    slot = phy.t_p + phy.t_guard

    decoded_once = np.zeros(dep.n, dtype=int)
    widths = [hdr.strip_width]
    seen_before = state.seen.copy()
    for _ in range(600):
        prev_relays = state.relay_xy.copy()
        run_flow_hop(state, dep, phy, pol, u, rng, slot)
        widths.append(hdr.strip_width)
        newly = state.seen & ~seen_before
        decoded_once += newly
        seen_before = state.seen.copy()
        # relay ordering: ascending distance to destination
        d = np.hypot(state.relay_xy[:, 0] - fc.length, state.relay_xy[:, 1])
        assert np.all(np.diff(d) >= 0)
        if state.done:
            break
    assert decoded_once.max() <= 1          # no node decodes twice
    assert all(b >= a for a, b in zip(widths, widths[1:]))  # monotone width
    assert widths[-1] <= fc.w + pol.n_r_max * pol.delta_w + 1e-9


def test_progress_strictly_decreasing_distance_large_b():
    # with b large, collisions vanish and min distance to dst strictly decreases
    fc = FieldConfig()
    pol = RetransmitPolicy()
    res = run_trial(fc, PHY, pol, b=4096, seed=13)
    assert res.reached
    xh = [r.xh0 for r in res.records if not math.isnan(r.xh0)]
    assert all(b > a for a, b in zip(xh, xh[1:]))


@pytest.mark.slow
def test_retransmission_statistics_hop1_geometric():
    # hop-1 relay area is the deterministic forward half-disc within the strip,
    # so E[n_r] follows 1/(e^(eps rho A) - 1). The square-wave schedule makes
    # attempt pools beyond the second phase-correlated (retry spacing 2 t_p is
    # an integer number of sleep cycles at eps = 0.25), so cap retries at 2
    # where the law's remaining tail is negligible.
    fc = FieldConfig(rho=1500e-6)
    phy = PHY
    pol = RetransmitPolicy(n_r_max=2, delta_w=0.0)
    r1 = detection_constant(phy).single_relay_radius
    a_half = 0.5 * math.pi * r1 * r1      # r1 < w/2 so the strip does not clip
    lam = fc.epsilon * fc.rho * a_half
    expect = 1.0 / math.expm1(lam)
    n = 4000
    nr1 = []
    for s in range(n):
        res = run_trial(fc, phy, pol, b=4096, seed=20_000 + s)
        if res.records and res.records[0].hop == 1:
            nr1.append(res.records[0].n_r)
    got = np.mean(nr1)
    se = np.std(nr1) / math.sqrt(len(nr1))
    assert abs(got - expect) < 3.0 * se


def test_false_alarm_straggler_bookkeeping():
    # a false-alarming listener of relay set R_i rejoins exactly the sets
    # R_{i+2} .. R_{i+n_r_max+1}, one extra member each
    from omrsim.engine import _FlowState, _register_false_alarms

    pol = RetransmitPolicy(n_r_max=3, fa_rate=0.999)
    state = _FlowState.__new__(_FlowState)
    state.hop = 5          # the listeners form R_4
    state.stragglers = {}
    xy = np.array([[100.0, 0.0]])
    dp = np.array([123.0])
    _register_false_alarms(state, xy, dp, pol, np.random.default_rng(0))
    assert sorted(state.stragglers) == [6, 7, 8]  # R_{4+2} .. R_{4+4}
    for entries in state.stragglers.values():
        assert entries == [(100.0, 0.0, 123.0)]


def test_false_alarm_trial_runs_and_inflation_bounded():
    fc = FieldConfig()
    base = run_trial(fc, PHY, RetransmitPolicy(fa_rate=0.0), b=16, seed=31)
    noisy = run_trial(fc, PHY, RetransmitPolicy(fa_rate=0.05), b=16, seed=31)
    assert base.reached and noisy.reached
    # identical protocol stream until the first false alarm fires; afterwards
    # relay sets may gain straggler members but the trial still completes
    assert noisy.q >= 1


def test_xh0_advances_past_destination_when_reached():
    fc = FieldConfig()
    res = run_trial(fc, PHY, RetransmitPolicy(), b=16, seed=41)
    assert res.reached
    last = res.records[-1]
    assert last.k == 0  # delivery hop forms no relay set
