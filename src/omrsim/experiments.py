"""Scenario runners: seeded sweeps, CSV emission, plot recipes, worker pool."""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from itertools import chain, islice

import numpy as np

from .analytic import CalibrationError, calibrate_progress, run_recursion
# run_bcl is not called here: perfbench/tracing.py rebinds it in this module
# by name until the spans move into omrsim (ROADMAP item 2)
from .baseline import bcl_summary, bcl_walk, run_bcl  # noqa: F401
from .channel import PhyConfig, detection_constant
from .config import ConfigError, ExperimentSpec, Point, plan
from .engine import (TWO_PACKET_SOURCES, TrialResult, run_trials,
                     run_two_packet_trial)
from .field import FieldConfig
from .metrics import edp_and_cost, point_e2e

TRACE_COLUMNS = ["trial_id", "hop", "K", "L", "j", "n_r", "xH0",
                 "delay_spread_s"]
SUMMARY_COLUMNS = ["protocol", "p_t_dbm", "rho_per_km2", "B", "mcs",
                   "E_e2e_J", "l_e2e_s", "EDP", "C_e2e", "cost_ratio",
                   "delivered", "trials"]


def _write_csv(spec: ExperimentSpec, name: str, header: list[str],
               rows) -> str:
    """Write spec.out_dir/<name>; returns its path."""
    path = os.path.join(spec.out_dir, name)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(v) if isinstance(v, float) else v for v in row]
                         for row in rows)
    return path


def _write_figure(spec: ExperimentSpec, stem: str, header: list[str], rows,
                  title: str, x: str, y: str, series: str | None = None,
                  notes: str = "") -> str:
    """Write <stem>.csv and its plot recipe beside it; returns the CSV path."""
    path = _write_csv(spec, f"{stem}.csv", header, rows)
    lines = [f"title = {title}", f"data = {stem}.csv", f"x = {x}", f"y = {y}"]
    if series:
        lines.append(f"series_by = {series}")
    if notes:
        lines.append(f"notes = {notes}")
    with open(path[:-len(".csv")] + ".plot.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


TASK_TRIALS = 16  # consecutive trials of one point per task


def _run_task(args):
    """One task: consecutive trials of one point, as BclWalks for the
    baseline or as run_trials' TrialResults, whose flows the engine runs in
    lockstep; both are costed where their rows are written."""
    spec, point, children = args
    if point.protocol == "bcl":
        return [bcl_walk(spec.bcl, point.field, point.phy, tss)
                for tss in children]
    seeds = [int.from_bytes(tss.generate_state(4).tobytes(), "little")
             for tss in children]
    return run_trials(point.field, point.phy, spec.policy, point.b, seeds)


def run_sweep(spec: ExperimentSpec, points: list[Point]) -> list[list]:
    """Run the trials of every point, OMR and BCL alike, in one worker pool
    (inline when spec.workers == 1 or there are fewer than 8 trials in all),
    as tasks of up to TASK_TRIALS consecutive trials of one point.

    Returns one batch per point, in point order, each in trial order. Trial
    i of a point runs on child i of SeedSequence(point.seed); an OMR trial
    seeds its flow with that child's first four state words as one 128-bit
    integer, and no flow depends on the others of its task. So a batch
    depends neither on the other points nor on the worker count.
    """
    tasks = [(spec, point, children[i:i + TASK_TRIALS]) for point in points
             for children in [np.random.SeedSequence(point.seed).spawn(
                 point.trials)]
             for i in range(0, point.trials, TASK_TRIALS)]
    workers = spec.workers if spec.workers > 0 else (os.cpu_count() or 1)
    if workers == 1 or sum(point.trials for point in points) < 8:
        out = [_run_task(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            out = list(pool.map(_run_task, tasks))
    rest = chain.from_iterable(out)
    return [list(islice(rest, point.trials)) for point in points]


def run_omr_batch(spec: ExperimentSpec, field: FieldConfig, phy: PhyConfig,
                  trials: int, seed: int) -> list[TrialResult]:
    """One OMR point of `trials` trials at spec.b slots."""
    return run_sweep(spec, [Point("omr", field, phy, spec.b, trials, seed)])[0]


def _omr_row(batch, point: Point, cost_b: float | None = None) -> tuple:
    """A point's summary row: delivery-normalized energy, mean delivered
    delay, EDP and cost; the cost ratio is blank without a baseline cost."""
    e, l = point_e2e(batch, point.phy)
    edp, cost = edp_and_cost(e, l, point.phy.r, point.phy.t_p)
    ratio = ""
    if cost_b is not None:
        ratio = cost / cost_b if cost == cost else math.nan
    return ("omr", point.p_t_dbm, point.rho_km2, point.b, point.mcs, e, l,
            edp, cost, ratio, sum(t.reached for t in batch), len(batch))


def _bcl_row(res, point: Point, ratio: float | str = "") -> tuple:
    """A BCL point's summary row: its energy, delay, EDP and cost."""
    edp, cost = edp_and_cost(res.e2e_energy_j, res.e2e_delay_s, point.phy.r,
                             point.phy.t_p)
    return ("bcl", point.p_t_dbm, point.rho_km2, "", point.mcs,
            res.e2e_energy_j, res.e2e_delay_s, edp, cost, ratio,
            res.delivered, res.trials)


def scenario_omr_trials(spec: ExperimentSpec, results: list) -> list[str]:
    ((point, batch),) = results
    return [_write_csv(spec, "omr_trace.csv", TRACE_COLUMNS,
                       [(i, r.hop, r.k_prev, r.l, r.j_prev, r.n_r, r.xh0,
                         t.delay_spread_s) for i, t in enumerate(batch)
                        for r in t.records]),
            _write_csv(spec, "summary.csv", SUMMARY_COLUMNS,
                       [_omr_row(batch, point)])]


def scenario_bcl_trials(spec: ExperimentSpec, results: list) -> list[str]:
    ((point, walks),) = results
    res = bcl_summary(spec.bcl, point.field, point.phy, walks)
    return [_write_csv(spec, "bcl_hops.csv",
                       ["trial_id", "hop", "eta", "m_e", "m_n", "progress_m"],
                       res.per_hop),
            _write_csv(spec, "summary.csv", SUMMARY_COLUMNS,
                       [_bcl_row(res, point)])]


def _fit_progress(batch, phy: PhyConfig):
    """Fit the per-hop progress law to a batch's contour advances, each hop's
    contour over the one before it where both exist. Failed trials still
    advanced the contour for a few hops; their samples are as real as any."""
    samples = [(r.k_prev, r.xh0 - prev.xh0) for t in batch
               for prev, r in zip(t.records, t.records[1:])
               if not (math.isnan(prev.xh0) or math.isnan(r.xh0))]
    ks, dxs = np.asarray(samples, dtype=float).reshape(-1, 2).T
    return calibrate_progress(ks, dxs, detection_constant(phy).u, phy.alpha)


def scenario_calibrate(spec: ExperimentSpec, results: list) -> list[str]:
    ((_, batch),) = results
    model, mape = _fit_progress(batch, spec.phy)
    return [_write_csv(spec, "calibration.csv",
                       ["varphi_m", "beta", "u", "alpha", "r1_m", "mape"],
                       [(model.varphi, model.beta, model.u, model.alpha,
                         model.r1, mape)])]


def scenario_analytic(spec: ExperimentSpec, results: list) -> list[str]:
    ((_, batch),) = results
    model, mape = _fit_progress(batch, spec.phy)
    stats = run_recursion(spec.field, model, spec.b)
    out = [_write_figure(
        spec, "analytic_hops", ["hop", "E_K", "E_L", "E_nr", "xH0"],
        [(r.hop, r.e_k, r.e_l, r.e_nr, r.xh0) for r in stats.rows],
        "Per-hop relay/decoder expectations", "hop", "E_K,E_L,E_nr",
        notes=f"progress fit MAPE = {mape:.4f}")]
    return out + [_write_csv(spec, f"pmf_K_hop{i}.csv", ["k", "prob"],
                             list(enumerate(dist.probs)))
                  for i, dist in enumerate(stats.dists_k, start=1)]


def _cost_ratio_scenario(stem: str, title: str, x: str, series: str = ""):
    """The scenario writing a cost-ratio sweep's figure: each BCL reference
    row, then the OMR rows whose cost ratios divide by its cost; a row with
    no value on the x axis (the baseline's B) is left out."""
    def scenario(spec: ExperimentSpec, results: list) -> list[str]:
        rows = []
        for point, batch in results:
            if point.protocol == "bcl":
                rows.append(_bcl_row(bcl_summary(
                    spec.bcl, point.field, point.phy, batch), point, 1.0))
                cost_b = rows[-1][SUMMARY_COLUMNS.index("C_e2e")]
            else:
                rows.append(_omr_row(batch, point, cost_b))
        return [_write_figure(
            spec, stem, SUMMARY_COLUMNS,
            [r for r in rows if r[SUMMARY_COLUMNS.index(x)] != ""], title, x,
            "cost_ratio", series=series)]
    return scenario


def scenario_delay_spread(spec: ExperimentSpec, results: list) -> list[str]:
    rows = []
    for point, batch in results:
        spreads = np.asarray([b.delay_spread_s for b in batch if b.reached])
        rows.append((point.rho_km2, point.field.w, spreads.size,
                     float(spreads.mean()) if spreads.size else math.nan,
                     float(spreads.std()) if spreads.size else math.nan,
                     float(np.mean(spreads > spec.phy.t_cp))
                     if spreads.size else math.nan))
    return [_write_figure(spec, "delay_spread", [
        "rho_per_km2", "w_m", "delivered", "spread_mean_s", "spread_std_s",
        "frac_above_t_cp"], rows, "Forwarding delay spread vs strip width",
        "w_m", "spread_mean_s,spread_std_s", series="rho_per_km2")]


def scenario_retransmissions(spec: ExperimentSpec, results: list) -> list[str]:
    """Per-hop expected retransmissions: recursion vs Monte Carlo."""
    rows = []
    for point, batch in results:
        ana = {}
        try:
            model, _ = _fit_progress(batch, point.phy)
            ana = {r.hop: r.e_nr
                   for r in run_recursion(point.field, model, spec.b).rows}
        except (CalibrationError, ValueError):
            pass  # sweep point too sparse to calibrate; keep the raw counts
        nr_by_hop: dict[int, list] = {}
        for b in batch:
            for r in b.records:
                nr_by_hop.setdefault(r.hop, []).append(r.n_r)
        for hop, mc in sorted(nr_by_hop.items()):
            rows.append((point.rho_km2, point.p_t_dbm, hop, float(np.mean(mc)),
                         float(np.std(mc) / math.sqrt(len(mc))),
                         ana.get(hop, math.nan), len(mc)))
    return [_write_figure(spec, "retransmissions", [
        "rho_per_km2", "p_t_dbm", "hop", "E_nr_mc", "se_mc", "E_nr_analytic",
        "n"], rows, "Expected retransmissions per hop", "hop",
        "E_nr_mc,E_nr_analytic", series="rho_per_km2,p_t_dbm")]


def scenario_two_packets(spec: ExperimentSpec, results: list) -> list[str]:
    res = run_two_packet_trial(
        spec.field, spec.phy, spec.policy, spec.b, spec.seed,
        *TWO_PACKET_SOURCES,
        interference_radius=spec.interference_radius,
        stagger_slots=spec.two_stagger_slots,
    )
    flows = (("a", res.flow_a), ("b", res.flow_b))
    out = [_write_csv(spec, f"two_packets_flow_{name}.csv",
                      ["hop", "K", "L", "j", "n_r", "n_r_interference", "xH0",
                       "reached"],
                      [(r.hop, r.k_prev, r.l, r.j_prev, r.n_r,
                        r.n_r_interference, r.xh0, flow.reached)
                       for r in flow.records])
           for name, flow in flows]
    out.append(_write_csv(spec, "two_packets_summary.csv",
                          ["flow", "reached", "hops", "interference_tagged",
                           "slots_used"],
                          [(name, flow.reached, flow.q,
                            res.interference_tagged, res.slots_used)
                           for name, flow in flows]))
    return out


_SCENARIO_FUNCS = {
    "omr-trials": scenario_omr_trials,
    "bcl-trials": scenario_bcl_trials,
    "analytic": scenario_analytic,
    "compare-power": _cost_ratio_scenario(
        "compare_power", "End-to-end cost ratio vs transmit power", "p_t_dbm",
        series="rho_per_km2"),
    "compare-B": _cost_ratio_scenario(
        "compare_B", "End-to-end cost ratio vs RACH slot count", "B"),
    "compare-mcs": _cost_ratio_scenario(
        "compare_mcs", "End-to-end cost ratio per modulation scheme", "mcs"),
    "delay-spread": scenario_delay_spread,
    "retransmissions": scenario_retransmissions,
    "two-packets": scenario_two_packets,
    "calibrate": scenario_calibrate,
}


def run(spec: ExperimentSpec) -> list[str]:
    """Execute one scenario; returns the paths written.

    A rejected spec or a failed scenario leaves error_manifest.txt in
    spec.out_dir.
    """
    os.makedirs(spec.out_dir, exist_ok=True)
    try:
        points, diags = plan(spec)
        if diags:
            raise ConfigError(diags)
        return _SCENARIO_FUNCS[spec.scenario](
            spec, list(zip(points, run_sweep(spec, points))))
    except Exception as exc:
        manifest = os.path.join(spec.out_dir, "error_manifest.txt")
        with open(manifest, "w", encoding="utf-8") as fh:
            fh.write(f"scenario = {spec.scenario}\nerror = {exc!r}\n")
        raise
