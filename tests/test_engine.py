"""Forwarding engine: RACH rounds, decode/relay sets, trials, delay recursion."""

import math
import os
import warnings

import numpy as np
import pytest

from omrsim import engine
from omrsim.channel import PhyConfig, detection_constant
from omrsim.config import dbm_to_watts, load_config
from omrsim.engine import (
    RetransmitPolicy,
    _delay_spread,
    _new_run,
    _path_step,
    decision_distance,
    decode_set,
    eligible,
    rach_round,
    run_hop_step,
    run_trial,
    run_trials,
    run_two_packet_trial,
)
from omrsim.field import Deployment, FieldConfig, Point2D, Strip, deploy

from rach_oracle import j_distribution

PHY = PhyConfig(p_n=1e-14)
U = detection_constant(PHY).u
R1 = U ** (-1.0 / 3.0)
ROOT = os.path.join(os.path.dirname(__file__), "..")


def _golden(p_t_dbm):
    """The golden config and its PHY at p_t_dbm."""
    spec = load_config(os.path.join(ROOT, "configs", "golden.cfg"))
    return spec, spec.phy.with_tx_power(dbm_to_watts(float(p_t_dbm)))


def test_rach_single_relay_always_resolvable():
    rng = np.random.default_rng(0)
    for _ in range(50):
        resolvable, j = rach_round(1, 8, 1, rng)
        assert resolvable.all() and j[0] == 1


def test_rach_two_relays_two_slots():
    # both pick the same slot (j=0) or different slots (j=1), equally likely
    rng = np.random.default_rng(1)
    js = [rach_round(2, 2, 1, rng)[1][0] for _ in range(40_000)]
    counts = np.bincount(js, minlength=3)
    assert counts[2] == 0
    assert abs(counts[1] / 40_000 - 0.5) < 3.0 * math.sqrt(0.25 / 40_000)


@pytest.mark.parametrize("b,k", [(3, 2), (3, 4), (4, 3), (5, 5), (6, 4)])
def test_rach_matches_enumeration(b, k):
    rng = np.random.default_rng(100 * b + k)
    n = 30_000
    js = np.array([rach_round(k, b, 1, rng)[1][0] for _ in range(n)])
    sim = np.bincount(js, minlength=k + 1) / n
    exact = j_distribution(b, k)
    for jv in range(k + 1):
        p = exact[jv]
        tol = 3.0 * math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(sim[jv] - p) <= max(tol, 2e-3), (jv, sim[jv], p)


@pytest.mark.parametrize("b", [2, 3, 16, 24])
def test_rach_round_is_one_row_of_the_batch(b):
    # a one-round draw is the first row of a batch from the same generator
    # state, and each row's j is its first resolvable flag
    for k in range(1, 50):
        one, batch = np.random.default_rng(7), np.random.default_rng(7)
        resolvable, j = rach_round(k, b, 1, one)
        rows, js = rach_round(k, b, 8, batch)
        assert j[0] == js[0] and (resolvable[0] == rows[0]).all()
        for flags, jv in zip(rows, js):
            assert jv == (int(np.argmax(flags)) + 1 if flags.any() else 0)


def _rach_round_bincount(k, b, n, rng):
    """The earlier rach_round: slots counted with one bincount over
    row-offset slot ids."""
    slots = rng.integers(0, b, size=(n, k))
    slots += np.arange(0, n * b, b)[:, None]
    resolvable = np.bincount(slots.ravel(), minlength=n * b)[slots] == 1
    return resolvable, (resolvable.argmax(axis=1) + 1) * resolvable.any(axis=1)


@pytest.mark.parametrize("b", [2, 3, 24])
@pytest.mark.parametrize("n", [1, 8, 2000])
def test_rach_round_matches_offset_bincount_form(n, b):
    for k in range(1, 50):
        resolvable, j = rach_round(k, b, n, np.random.default_rng(k))
        want_flags, want_j = _rach_round_bincount(k, b, n,
                                                  np.random.default_rng(k))
        assert resolvable.shape == want_flags.shape == (n, k)
        assert (resolvable == want_flags).all() and (j == want_j).all(), k


@pytest.mark.parametrize("b", [2, 3, 24])
def test_rach_rounds_of_several_generators_are_each_drawn_alone(b):
    # the engine draws one round per flow, each from the flow's generator,
    # in one call; every round is the one its generator draws alone
    for k in range(1, 30):
        ks = [k, 3, 1, 2 * k]
        alone = [rach_round(kr, b, 1, np.random.default_rng(7 + i))
                 for i, kr in enumerate(ks)]
        flags, js = rach_round(ks, b, 1,
                               [np.random.default_rng(7 + i)
                                for i in range(len(ks))])
        for (want_flags, want_j), got, jv in zip(
                alone, np.split(flags, np.cumsum(ks)[:-1]), js):
            assert jv == want_j[0] and (got == want_flags[0]).all()


def test_rach_j_zero_possible_when_k_exceeds_b():
    rng = np.random.default_rng(3)
    js = rach_round(5, 3, 2000, rng)[1].tolist()
    assert 0 in js


def _d_dst(points, dst):
    """Distances of points to dst, as one array."""
    xy = np.asarray(points, dtype=float).reshape(-1, 2)
    return np.hypot(xy[:, 0] - dst.x, xy[:, 1] - dst.y)


def _relays(points, r_prev, j, strip, width=200.0):
    """Relay-rule verdicts for points against the arc of r_prev's relay j."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    d_ref = decision_distance(_d_dst(r_prev, strip.dst), j)
    return eligible(_d_dst(pts, strip.dst),
                    strip.frame(pts[:, 0], pts[:, 1])[1], d_ref, width)


def test_decision_contour_semantics():
    strip = Strip(src=Point2D(0, 0), dst=Point2D(2000, 0))
    r_prev = [Point2D(120.0, 10.0), Point2D(80.0, -40.0), Point2D(60.0, 0.0)]
    # the reference relay itself offers zero progress
    assert not _relays(r_prev[0], r_prev, 1, strip)[0]
    # a point on the segment between the reference and dst, inside the strip
    assert _relays(Point2D(500.0, 5.0), r_prev, 1, strip)[0]
    # closer to dst but out of strip
    assert not _relays(Point2D(500.0, 140.0), r_prev, 1, strip)[0]
    # all collided (j = 0): the arc falls back to the farthest relay
    assert decision_distance(_d_dst(r_prev, strip.dst), 0) == 1940.0
    behind_head = Point2D(100.0, 0.0)
    assert _relays(behind_head, r_prev, 0, strip)[0]
    assert not _relays(behind_head, r_prev, 1, strip)[0]


def test_decision_contour_negative_progress_relaying():
    # a node behind an unresolvable head relay still relays when the first
    # resolvable one is farther back
    strip = Strip(src=Point2D(0, 0), dst=Point2D(2000, 0))
    head = Point2D(150.0, 0.0)     # unresolvable, closest to dst
    ref = Point2D(100.0, 0.0)      # first resolvable (j = 2)
    node = Point2D(120.0, 10.0)    # behind head, ahead of ref
    assert _relays(node, [head, ref], 2, strip)[0]
    d_node = math.hypot(2000 - 120.0, 10.0)
    assert d_node > 2000 - 150.0   # negative progress w.r.t. the head relay


def _tiny_deployment(xs, ys, epsilon=1.0):
    cfg = FieldConfig(rho=1e-9, epsilon=epsilon, length=2000.0, w=200.0)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    order = np.argsort(xs)
    return Deployment(
        xs=xs[order], ys=ys[order], sleep_phases=np.zeros(xs.size),
        cfg=cfg, bounds=(-100.0, 2100.0, -200.0, 200.0),
    )


def _one_flow(dep, policy=RetransmitPolicy(), phy=PHY, dst=Point2D(2000, 0),
              width=200.0, b=16, seed=0):
    """A run of one flow from (0, 0) on dep, and the flow."""
    run, (state,) = _new_run(phy, policy, b, width, [
        (dep, Strip(src=Point2D(0, 0), dst=dst), np.random.default_rng(seed),
         0)])
    return run, state


def _heard(dep, relays, t, relayed=None, pn_fn=None):
    """decode_set for one flow transmitting from relays at time t; the
    indices are dep's own, as the flow's segment starts the node table."""
    run, state = _one_flow(dep)
    state.relay_xy = np.asarray(relays, dtype=float).reshape(-1, 2)
    state.t = t
    if relayed is not None:
        run.nodes.relayed[:] = relayed
    d_reach = engine.reach(state.relay_xy.shape[0], U, PHY.alpha)
    return decode_set(run, [state], [d_reach], pn_fn)


def test_decode_set_geometric_oracle():
    # all awake, one relay: exactly the nodes inside the detection disc decode
    rng = np.random.default_rng(8)
    xs = rng.uniform(-100, 300, 400)
    ys = rng.uniform(-150, 150, 400)
    dep = _tiny_deployment(xs, ys)
    relays = np.array([[50.0, 10.0]])
    idx = _heard(dep, relays, 0.0)
    d = np.hypot(dep.xs - 50.0, dep.ys - 10.0)
    expect = np.flatnonzero(d <= R1)
    np.testing.assert_array_equal(np.sort(idx), np.sort(expect))


def test_decode_set_windows_hold_each_flows_nodes_at_any_reach():
    # three fields whose transmitters sit past their far end, with a reach
    # of several fields: each flow hears every node of its own field, the
    # nodes behind the field's start included, and none of the others'
    phy = PhyConfig(p_n=1e-19)  # a lone transmitter reaches about 3.5 km
    u = detection_constant(phy).u
    deps = [_tiny_deployment([-50.0, 10.0, 1990.0], [0.0, 5.0, -5.0]),
            _tiny_deployment([-40.0, 1000.0], [20.0, 0.0]),
            _tiny_deployment([-60.0, 500.0, 1500.0, 1995.0], [0.0] * 4)]
    run, flows = _new_run(phy, RetransmitPolicy(), 16, 200.0, [
        (dep, Strip(src=Point2D(0, 0), dst=Point2D(2000, 0)),
         np.random.default_rng(i), 0) for i, dep in enumerate(deps)])
    for f in flows:
        f.relay_xy = np.array([[2010.0, 0.0]])
    reaches = [engine.reach(1, u, phy.alpha)] * 3
    assert reaches[0] > 3000.0
    assert decode_set(run, flows, reaches).tolist() == list(range(9))
    for f in flows:
        assert decode_set(run, [f], reaches[:1]).tolist() \
            == list(range(f.start, f.stop))


def test_decode_set_excludes_seen():
    dep = _tiny_deployment([10.0, 20.0, 30.0], [0.0, 0.0, 0.0])
    relays = np.array([[0.0, 0.0]])
    relayed = np.array([False, True, False])
    idx = _heard(dep, relays, 0.0, relayed=relayed)
    assert 1 not in set(dep.xs[idx])  # the node at x=20 was dropped
    assert set(dep.xs[idx]) == {10.0, 30.0}


def test_decode_set_empty_when_out_of_range():
    dep = _tiny_deployment([1000.0], [0.0])
    relays = np.array([[0.0, 0.0]])
    assert _heard(dep, relays, 0.0).size == 0


def test_decode_set_respects_sleep():
    # node asleep at transmission start does not decode
    cfg = FieldConfig(rho=1e-9, epsilon=0.25, length=2000.0, w=200.0)
    dep = Deployment(
        xs=np.array([30.0]), ys=np.array([0.0]),
        sleep_phases=np.array([0.0]),  # sleep block starts at t = 0
        cfg=cfg, bounds=(-100, 2100, -200, 200),
    )
    relays = np.array([[0.0, 0.0]])
    assert _heard(dep, relays, 0.0).size == 0
    # awake interval of the cycle
    assert _heard(dep, relays, 0.0105).size == 1


@pytest.mark.parametrize("with_noise", [False, True])
def test_destination_skipped_only_beyond_reach(with_noise):
    # the destination test runs only when the nearest transmitter is within
    # reach of k transmitters; relay sets whose nearest member lies at
    # 0.9-1.1x that reach, or whose members all lie on it, must get the
    # full test's answer, and a skipped test must be a miss
    dst = Point2D(2000.0, 0.0)
    run, state = _one_flow(_tiny_deployment([0.0], [0.0]), dst=dst)
    pn_fn = (lambda xs, ys: np.full(np.shape(xs), 0.3 * PHY.p_n)) \
        if with_noise else None
    rng = np.random.default_rng(17)
    outcomes = {(skip, heard): 0 for skip in (False, True)
                for heard in (False, True)}
    for trial in range(600):
        k = int(rng.integers(1, 41))
        edge = (k / U) ** (1.0 / PHY.alpha)
        if trial % 4 == 0:
            d = np.full(k, edge)
        else:
            d = rng.uniform(0.9, 1.1) * edge \
                * np.concatenate([[1.0], 1.0 + rng.uniform(0.0, 0.02, k - 1)])
        theta = rng.uniform(0.0, 2.0 * math.pi, k)
        xy = np.column_stack([dst.x + d * np.cos(theta),
                              dst.y + d * np.sin(theta)])
        d_xy = np.hypot(xy[:, 0] - dst.x, xy[:, 1] - dst.y)
        order = np.argsort(d_xy, kind="stable")
        state.relay_xy, state.relay_d = xy[order], d_xy[order]
        heard = bool(engine._detects(np.array([dst.x]), np.array([dst.y]),
                                     state.relay_xy, PHY, U, pn_fn)[0])
        skip = bool(state.relay_d[0] > engine.reach(k, U, PHY.alpha))
        assert not (skip and heard), (k, state.relay_d[0] / edge)
        assert engine._receive(run, [state], pn_fn).dst_detected == [heard]
        outcomes[skip, heard] += 1
    # the bound is exercised on both sides
    assert outcomes[True, False] and outcomes[False, True] \
        and outcomes[False, False]


def _jammed(xs, ys):
    return np.full(np.shape(xs), 1e3)


def _parked_node_state():
    # the only node that could relay is parked (decoded earlier, never
    # relayed); a jammed attempt reaches nobody, a clean one re-qualifies it
    run, state = _one_flow(_tiny_deployment([0.5 * R1], [0.0]))
    run.nodes.seen[0] = True  # decoded earlier; relayed[0] stays False
    return run, state


def test_interference_tag_counts_requalifying_parked_node():
    # under the interfered attempt nothing hears the source, on a clean
    # channel the parked node re-qualifies, so the retransmission is tagged
    # as caused by interference
    run, state = _parked_node_state()
    run_hop_step(run, [state], _jammed)
    assert (state.hop, state.n_r, state.n_r_interference) == (1, 1, 1)
    # and on the clean channel the parked node does relay
    run_hop_step(run, [state])
    assert state.hop == 2 and state.records[-1].k == 1
    assert run.nodes.relayed[0]


def test_hop_step_advances_both_clocks():
    # the hop step owns a flow's grid slot and sleep clock: a retransmission
    # moves next_slot by 2 and t by 2 t_p, an attempt that forms relays
    # moves them by 1 and by one grid slot
    run, state = _parked_node_state()
    slot = run.slot
    assert run_hop_step(run, [state], _jammed) is False  # nothing stopped
    assert (state.n_r, state.next_slot, state.t) == (1, 2, 2.0 * PHY.t_p)
    assert run_hop_step(run, [state]) is False
    assert (state.hop, state.next_slot) == (2, 3)
    assert state.t == 2.0 * PHY.t_p + slot
    # FL-CLOCKS (docs/decisions.md): t lags the grid by 2 t_guard per
    # retransmission. ROADMAP item 10 (one flow clock) changes exactly this
    # assertion.
    assert state.next_slot * slot - state.t == pytest.approx(2.0 * PHY.t_guard)


def test_strip_widens_across_hops_past_the_field_width():
    # FL-WIDTH (docs/decisions.md): a completed hop keeps its strip's
    # width, so each retransmission of a flow widens the strip for every
    # later hop, past the widest strip the field is drawn for. Reference
    # seed 1 at 24 dBm is delivered after 46 hops, 8 of them with one
    # retransmission each. ROADMAP item 10 changes exactly this assertion.
    spec, phy = _golden(24)
    src = [Point2D(0.0, 0.0)]
    (flow,), _ = engine._run_flows(spec.field, phy, spec.policy, spec.b,
                                   [(861166875, src)])
    n_r = [r.n_r for r in flow.records]
    assert (flow.ended, len(n_r), n_r.count(1), sum(n_r)) == (
        engine.DELIVERED, 46, 8, 8)
    assert flow.strip_width == spec.field.w + spec.policy.delta_w * sum(n_r) \
        == 600.0
    assert engine.field_width(spec.field, spec.policy, src) == 450.0


def test_receiver_on_an_interferer_is_not_detected():
    # a node sitting on another flow's transmitter gets infinite
    # interference, without a division-by-zero warning, and cannot detect
    # the source that it hears on a clean channel
    xs, ys = [0.5 * R1, 0.3 * R1], [0.0, 20.0]
    dep = _tiny_deployment(xs, ys)
    relays = np.array([[0.0, 0.0]])
    pn_fn = engine.interference_pn_fn(np.array([[0.5 * R1, 0.0]]), PHY, 600.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        extra = pn_fn(dep.xs, dep.ys)
        jammed = _heard(dep, relays, 0.0, pn_fn=pn_fn)
    on_interferer = np.flatnonzero(dep.xs == 0.5 * R1)
    assert np.isinf(extra[on_interferer]).all()
    assert np.isfinite(np.delete(extra, on_interferer)).all()
    assert on_interferer[0] in _heard(dep, relays, 0.0)
    assert on_interferer[0] not in jammed


def _shared_run(dep, srcs):
    """A run of one flow per source, all on dep, and its flows."""
    return _new_run(PHY, RetransmitPolicy(), 16, 200.0, [
        (dep, Strip(src=src, dst=Point2D(2000, 0)), np.random.default_rng(i),
         0) for i, src in enumerate(srcs)])


@pytest.mark.parametrize("gap,defers", [(0.5, True), (2.0, False)])
def test_source_defers_to_another_flows_relays_it_hears(gap, defers):
    # carrier sense: a source at its first attempt that detects the other
    # flow's relays (hop >= 2) moves one slot on both clocks and leaves the
    # slot's transmitters; a source out of their reach transmits, its
    # receivers seeing the other flow's set as interference
    run, (a, b) = _shared_run(_tiny_deployment([500.0], [0.0]),
                              [Point2D(0, 0)] * 2)
    b.hop, b.relay_xy = 2, np.array([[gap * R1, 0.0]])
    pairs = engine._contend(run, [a, b], 600.0)
    if defers:
        assert len(pairs) == 1 and pairs[0][0] is b and pairs[0][1] is None
        assert (a.next_slot, a.t) == (1, run.slot)
    else:
        assert [id(f) for f, _ in pairs] == [id(a), id(b)]
        assert None not in [fn for _, fn in pairs]
        assert (a.next_slot, a.t) == (0, 0.0)
    assert (b.next_slot, b.t) == (0, 0.0)


def test_shared_field_flows_hear_slot_start_transmit_sets(monkeypatch):
    # both flows relay through x at hop 1, and both transmit from it at hop
    # 2 in one slot. Flow a steps first and installs y. Flow b's copy of y
    # sits on that new set, which would jam it, but b's receivers are
    # judged against a's slot-start set {x}, so y relays for b as well.
    # Within the 1 m interference radius only a node on a transmitter is
    # jammed, so no other attempt of either flow is
    x, y = 0.5 * R1, 1.1 * R1
    dep = _tiny_deployment([x, y], [0.0, 0.0])
    monkeypatch.setattr(engine, "deploy", lambda *args, **kwargs: dep)
    res = run_two_packet_trial(
        FieldConfig(length=2000.0), PHY, RetransmitPolicy(), 16, 0,
        src_a=Point2D(0.0, 20.0), src_b=Point2D(0.0, -20.0),
        interference_radius=1.0)
    for flow in (res.flow_a, res.flow_b):
        assert [(r.hop, r.k_prev, r.l, r.k, r.n_r)
                for r in flow.records[:2]] == [(1, 1, 1, 1, 0),
                                               (2, 1, 1, 1, 0)]
    on_y = engine.interference_pn_fn(np.array([[y, 0.0]]), PHY, 1.0)
    assert np.isinf(on_y(np.array([y]), np.array([0.0]))).all()


def test_a_shared_field_carries_every_flow_of_its_run():
    dep, other = (_tiny_deployment([x], [0.0]) for x in (500.0, 600.0))
    strip = Strip(src=Point2D(0, 0), dst=Point2D(2000, 0))
    with pytest.raises(ValueError, match="shared field must carry every"):
        _new_run(PHY, RetransmitPolicy(), 16, 200.0,
                 [(d, strip, np.random.default_rng(0), 0)
                  for d in (dep, dep, other)])


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
    src, r1, r2 = (np.array([[0.0, 0.0]]), np.array([[60.0, 5.0]]),
                   np.array([[130.0, -10.0]]))
    dp1 = _path_step(r1, src, np.zeros(1), 0.0)
    dp2 = _path_step(r2, r1, dp1, 0.0)
    assert _delay_spread(_d_dst(r2, Point2D(200.0, 0.0)), dp2) == 0.0
    assert dp1[0] == pytest.approx(math.hypot(60, 5))
    assert dp2[0] == pytest.approx(math.hypot(60, 5) + math.hypot(70, 15))


def test_propagation_delays_colocated_final_hop():
    src, r1 = np.array([[0.0, 0.0]]), np.array([[50.0, 0.0], [50.0, 0.0]])
    dp1 = _path_step(r1, src, np.zeros(1), 0.0)
    assert _delay_spread(_d_dst(r1, Point2D(100.0, 0.0)), dp1) == 0.0


def test_propagation_delays_min_over_parents():
    # two parents with different accumulated delays: child takes the minimum
    src, r1 = np.array([[0.0, 0.0]]), np.array([[10.0, 0.0], [10.0, 30.0]])
    dp1 = _path_step(r1, src, np.zeros(1), 0.0)
    dp2 = _path_step(np.array([[40.0, 0.0]]), r1, dp1, 0.0)
    via_axial = 10.0 + 30.0
    via_lateral = math.hypot(10, 30) + math.hypot(30, 30)
    assert dp2[0] == pytest.approx(min(via_axial, via_lateral))


def test_delta_r_adds_per_hop():
    src, r1 = np.array([[0.0, 0.0]]), np.array([[10.0, 0.0]])
    dp1 = _path_step(r1, src, np.zeros(1), 7.0)
    dp2 = _path_step(np.array([[20.0, 0.0]]), r1, dp1, 7.0)
    assert dp2[0] == pytest.approx(20.0 + 2 * 7.0)


def test_run_trial_deterministic():
    fc = FieldConfig()
    pol = RetransmitPolicy()
    a = run_trial(fc, PHY, pol, b=16, seed=77)
    b = run_trial(fc, PHY, pol, b=16, seed=77)
    assert a.reached == b.reached and a.q == b.q
    assert a.delay_spread_s == b.delay_spread_s
    assert [(r.hop, r.k_prev, r.l, r.j_prev, r.n_r, r.xh0) for r in a.records] \
        == [(r.hop, r.k_prev, r.l, r.j_prev, r.n_r, r.xh0) for r in b.records]


def test_run_trial_rejects_one_slot_before_deploying(monkeypatch):
    def no_deploy(*args, **kwargs):
        raise AssertionError("deployed a field for a trial it cannot run")

    monkeypatch.setattr(engine, "deploy", no_deploy)
    with pytest.raises(ValueError, match="b must be >= 2, got 1"):
        run_trial(FieldConfig(), PHY, RetransmitPolicy(), b=1, seed=1)


def test_run_trials_of_no_seeds_is_empty():
    assert run_trials(FieldConfig(), PHY, RetransmitPolicy(), 16, []) == []


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
    assert res.ended == "retransmission cap"


def test_trial_records_why_it_ended():
    fc = FieldConfig(length=0.5 * R1)
    assert run_trial(fc, PHY, RetransmitPolicy(), b=16, seed=5).ended \
        == "delivered"
    # flow b is injected in the budget's last slot, so it is cut off with
    # neither a delivery nor a spent retransmission cap
    policy = RetransmitPolicy()
    budget = engine.slot_budget(FieldConfig(), PhyConfig(), policy)
    res = run_two_packet_trial(
        FieldConfig(), PhyConfig(), policy, 24, 4400,
        src_a=Point2D(0.0, 120.0), src_b=Point2D(0.0, -120.0),
        stagger_slots=budget - 1)
    assert res.slots_used == budget
    assert res.flow_a.ended in ("delivered", "retransmission cap")
    assert (res.flow_b.ended, res.flow_b.reached) == ("slot budget", False)
    assert len(res.flow_b.records) <= 1


def _repr_fields(res):
    return repr((res.records, res.reached, res.q, res.delay_spread_s,
                 res.ended))


@pytest.mark.parametrize("policy,b", [(RetransmitPolicy(), 24),
                                      (RetransmitPolicy(fa_rate=0.1), 16)],
                         ids=["golden", "false-alarms"])
@pytest.mark.parametrize("p_t_dbm", [24, 33])
def test_batched_trials_equal_trials_run_alone(p_t_dbm, policy, b):
    # the first 64 seeds of a reference pool, shuffled into batches of 1, 5
    # and 16: each trial's result is the one it gets alone, to the last bit
    spec, phy = _golden(p_t_dbm)
    with np.load(os.path.join(ROOT, "perfbench", "reference",
                              f"trials-{p_t_dbm}dBm.npz")) as ref:
        seeds = ref["seeds"][:64].tolist()
    order = np.random.default_rng(p_t_dbm).permutation(64).tolist()
    batches, i = [], 0
    for size in [1, 5, 16] * 8:
        if i < 64:
            batches.append([seeds[p] for p in order[i:i + size]])
            i += size
    got = {}
    for batch in batches:
        for seed, res in zip(batch, run_trials(spec.field, phy, policy, b,
                                               batch)):
            got[seed] = _repr_fields(res)
    assert len(got) == 64
    for seed in seeds:
        assert got[seed] == _repr_fields(
            run_trial(spec.field, phy, policy, b, seed)), seed


def test_trial_invariants_ordering_duplicates_strip():
    fc = FieldConfig()
    phy = PHY
    pol = RetransmitPolicy()
    ss = np.random.SeedSequence(901)
    d_ss, p_ss = ss.spawn(2)
    dep = deploy(fc, d_ss, t_p=phy.t_p,
                 max_strip_width=fc.w + pol.n_r_max * pol.delta_w)
    run, (state,) = _new_run(phy, pol, 16, fc.w, [
        (dep, Strip(src=Point2D(0, 0), dst=Point2D(fc.length, 0)),
         np.random.default_rng(p_ss), 0)])

    decoded_once = np.zeros(dep.n, dtype=int)
    widths = [state.strip_width]
    seen_before = run.nodes.seen.copy()
    for _ in range(600):
        prev_relays = state.relay_xy.copy()
        run_hop_step(run, [state])
        widths.append(state.strip_width)
        newly = run.nodes.seen & ~seen_before
        decoded_once += newly
        seen_before = run.nodes.seen.copy()
        # relay ordering: ascending distance to destination
        d = np.hypot(state.relay_xy[:, 0] - fc.length, state.relay_xy[:, 1])
        assert np.all(np.diff(d) >= 0)
        if state.ended:
            break
    assert decoded_once.max() <= 1          # no node decodes twice
    assert all(b >= a for a, b in zip(widths, widths[1:]))  # monotone width
    # FL-WIDTH: each retransmission of the flow, at any hop, widens the strip
    assert state.strip_width == fc.w + pol.delta_w * (
        sum(r.n_r for r in state.records) + state.n_r)


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
    # R_{i+2} .. R_{i+n_r_max+1}, one extra member each, in registration order
    from omrsim.engine import _advance_relays, _register_false_alarms

    pol = RetransmitPolicy(n_r_max=3, fa_rate=0.999)
    run, state = _one_flow(_tiny_deployment([500.0], [0.0]), policy=pol)
    # a and b lie equally far from dst, so only registration orders them
    a, b = (100.0, 10.0, 123.0), (100.0, -10.0, 456.0)
    listeners = {5: a, 6: b}  # hop 5 closes R_4, hop 6 closes R_5
    joined = {}
    for hop in range(4, 12):
        state.hop = hop
        # R_hop: node 0 plus stragglers
        _advance_relays(run, [state], np.array([0]), [1])
        joined[hop] = [(x, y, dp) for (x, y), dp in
                       zip(state.relay_xy[1:].tolist(), state.dp[1:].tolist())]
        if hop in listeners:
            x, y, dp = listeners[hop]
            _register_false_alarms(run, state, np.array([[x, y]]),
                                   np.array([dp]))
    assert joined == {4: [], 5: [], 6: [a], 7: [a, b], 8: [a, b], 9: [b],
                      10: [], 11: []}


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
