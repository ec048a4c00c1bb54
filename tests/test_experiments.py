"""The sweep runner: per-point results, one worker pool, uncosted trials."""

import csv
import math
import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from omrsim import experiments
from omrsim.analytic import run_recursion
from omrsim.baseline import bcl_summary, run_bcl
from omrsim.config import (
    PLANS,
    ExperimentSpec,
    Point,
    dbm_to_watts,
    load_config,
    plan,
)
from omrsim.engine import TrialResult, run_trial
from omrsim.experiments import run, run_omr_batch, run_sweep
from omrsim.metrics import point_e2e

SHORT_FIELD = replace(ExperimentSpec().field, length=600.0)
GOLDEN = os.path.join(os.path.dirname(__file__), "..", "configs", "golden.cfg")


def _spec(out_dir, scenario="omr-trials", trials=4, workers=1):
    spec = ExperimentSpec(scenario=scenario, trials=trials, seed=3,
                          out_dir=str(out_dir), workers=workers)
    spec.field = SHORT_FIELD
    return spec


def _same(a, b) -> bool:
    # repr is exact for floats and lets the NaN contours compare equal
    return repr(a) == repr(b)


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_matches_per_point_batches(tmp_path, workers):
    spec = _spec(tmp_path, workers=workers)
    phy = spec.phy
    points = [
        Point("omr", SHORT_FIELD, phy, 24, 3, 11),
        Point("bcl", SHORT_FIELD, phy, None, 5, 14),
        Point("omr", replace(SHORT_FIELD, rho=1.2e-3), phy, 8, 4, 12),
        Point("omr", SHORT_FIELD, phy.with_tx_power(dbm_to_watts(30.0)), 24,
              2, 13),
    ]
    batches = run_sweep(spec, points)
    assert [len(b) for b in batches] == [3, 5, 4, 2]
    for point, batch in zip(points, batches):
        if point.protocol == "bcl":
            # the walks aggregate to run_bcl's result on the point's seed
            alone = run_bcl(spec.bcl, point.field, point.phy, point.trials,
                            point.seed)
            assert _same(bcl_summary(spec.bcl, point.field, point.phy, batch),
                         alone)
            continue
        alone = run_omr_batch(replace(spec, b=point.b, workers=1),
                              point.field, point.phy, point.trials, point.seed)
        assert _same(batch, alone)


@pytest.mark.parametrize("scenario", ["compare-power", "compare-B",
                                      "compare-mcs", "delay-spread",
                                      "bcl-trials"])
def test_one_pool_per_scenario(tmp_path, monkeypatch, scenario):
    real = experiments.ProcessPoolExecutor
    created = []

    def counting_pool(*args, **kwargs):
        created.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", counting_pool)
    # eight trials: bcl-trials has no other point to fill the pool
    spec = _spec(tmp_path, scenario, trials=8, workers=2)
    spec.rho_per_km2_list = [1500.0]
    spec.p_t_dbm_list = [30.0, 33.0]
    spec.b_list = [8, 24]
    spec.w_list = [100.0, 200.0]
    run(spec)
    assert len(created) == 1


def test_sweep_items_are_run_trial_results(tmp_path):
    # an OMR batch item is run_trial's own result on the 128-bit seed of its
    # trial's child sequence: the sweep neither costs nor repacks it
    spec = _spec(tmp_path)
    batch = run_omr_batch(spec, SHORT_FIELD, spec.phy, 3, 7)
    children = np.random.SeedSequence(7).spawn(3)
    assert len(batch) == 3
    for res, child in zip(batch, children):
        seed = int.from_bytes(child.generate_state(4).tobytes(), "little")
        assert type(res) is TrialResult
        assert _same(res, run_trial(SHORT_FIELD, spec.phy, spec.policy,
                                    spec.b, seed))


def test_energy_only_keys_leave_trials_unchanged(tmp_path):
    # p_rx, t_id and the rate enter the costs alone, so a batch can be
    # re-costed under other values of them without running it again
    spec = _spec(tmp_path, trials=6)
    phy = spec.phy
    other = replace(phy, p_rx=2.0 * phy.p_rx, t_id=0.5 * phy.t_id,
                    r=2.0 * phy.r)
    (a,), (b,) = (run_sweep(spec, [Point("omr", SHORT_FIELD, p, 24, 6, 11)])
                  for p in (phy, other))
    assert sum(t.reached for t in a) > 0
    assert _same(a, b)
    (e_a, l_a), (e_b, l_b) = point_e2e(a, phy), point_e2e(b, other)
    assert e_a != e_b
    assert l_a == l_b


def test_omr_trace_rows_are_the_trial_records(tmp_path):
    # each trace row is one hop record of trial i of the point, which runs
    # on the 128-bit seed of child i of the point's seed sequence
    spec = _spec(tmp_path, trials=3)
    trace, _ = run(spec)
    with open(trace, encoding="utf-8") as fh:
        got = list(csv.reader(fh))[1:]
    ((point,), _) = plan(spec)
    children = np.random.SeedSequence(point.seed).spawn(spec.trials)
    expect = []
    for i, child in enumerate(children):
        seed = int.from_bytes(child.generate_state(4).tobytes(), "little")
        res = run_trial(spec.field, spec.phy, spec.policy, spec.b, seed)
        expect += [[str(i), str(r.hop), str(r.k_prev), str(r.l),
                    str(r.j_prev), str(r.n_r), repr(r.xh0),
                    repr(res.delay_spread_s)] for r in res.records]
    assert len(expect) > spec.trials
    assert got == expect


@pytest.mark.parametrize("scenario", list(PLANS))
def test_golden_seeds_never_repeat(monkeypatch, scenario):
    # every point seed and every trial seed the scenario draws on the golden
    # config at its default trials; a baseline walk's seed is the 128-bit
    # state of its child sequence, as an OMR trial's is
    drawn = []

    def trials(field, phy, policy, b, seeds):
        drawn.extend(seeds)
        return [SimpleNamespace(reached=False, q=0, delay_spread_s=math.nan,
                                records=[]) for _ in seeds]

    def walk(bcl, field, phy, tss):
        drawn.append(int.from_bytes(tss.generate_state(4).tobytes(), "little"))

    monkeypatch.setattr(experiments, "run_trials", trials)
    monkeypatch.setattr(experiments, "bcl_walk", walk)
    spec = load_config(GOLDEN, scenario=scenario, workers=1)
    points, _ = plan(spec)
    run_sweep(spec, points)
    assert len(drawn) == sum(p.trials for p in points)
    assert len({p.seed for p in points}) == len(points)
    assert len(set(drawn)) == len(drawn)


def test_retransmissions_runs_sparse_point_once(tmp_path, monkeypatch):
    real = experiments.run_trials
    calls = []

    def counting_trials(*args, **kwargs):
        calls.extend(args[-1])
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_trials", counting_trials)
    spec = _spec(tmp_path, "retransmissions", trials=3)
    spec.rho_per_km2_list = [1500.0]
    spec.p_t_dbm_list = [33.0]
    (path,) = run(spec)
    # three short trials give far fewer than the 100 progress samples a
    # calibration needs, so the point keeps only its Monte Carlo counts
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(math.isnan(float(r["E_nr_analytic"])) for r in rows)
    assert len(calls) == spec.trials


def test_retransmissions_fills_the_analytic_column(tmp_path):
    # 80 trials give the progress fit its samples: the recursion's value
    # fills every hop it reaches, and a hop past its last stays NaN
    spec = _spec(tmp_path, "retransmissions", trials=80)
    spec.rho_per_km2_list = [1500.0]
    spec.p_t_dbm_list = [33.0]
    (path,) = run(spec)
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    ((point,), _) = plan(spec)
    model, _ = experiments._fit_progress(run_sweep(spec, [point])[0],
                                         point.phy)
    reached = {r.hop for r in run_recursion(point.field, model, spec.b).rows}
    assert reached and any(int(r["hop"]) not in reached for r in rows)
    for r in rows:
        assert math.isfinite(float(r["E_nr_analytic"])) \
            == (int(r["hop"]) in reached)


def test_compare_mcs_rejects_unknown_name_before_any_work(tmp_path,
                                                          monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the MCS names were checked")

    # every OMR and BCL trial of the sweep runner goes through _run_task
    monkeypatch.setattr(experiments, "_run_task", no_work)
    monkeypatch.setattr(experiments, "run_trials", no_work)
    spec = _spec(tmp_path, "compare-mcs", trials=2)
    spec.mcs_list = ["DQPSK", "NOT-A-SCHEME"]
    with pytest.raises(ValueError, match="unknown MCS 'NOT-A-SCHEME'"):
        run(spec)
    assert (tmp_path / "error_manifest.txt").exists()


def test_compare_power_bytes_across_workers_when_points_span_tasks(tmp_path):
    # 20 trials a point: each OMR point runs as tasks of 16 and 4 trials,
    # and the figure is the same bytes inline and on two workers
    data = []
    for workers in (1, 2):
        spec = _spec(tmp_path / f"w{workers}", "compare-power", trials=20,
                     workers=workers)
        spec.rho_per_km2_list = [1500.0]
        spec.p_t_dbm_list = [27.0, 33.0]
        (path,) = run(spec)
        with open(path, "rb") as fh:
            data.append(fh.read())
    assert 20 > experiments.TASK_TRIALS
    assert data[0] == data[1]
