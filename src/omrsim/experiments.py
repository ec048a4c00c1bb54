"""Scenario runners: seeded sweeps, CSV emission, plot recipes, worker pool."""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from itertools import islice
from typing import NamedTuple

import numpy as np

from .analytic import CalibrationError, calibrate_progress, run_recursion
from .baseline import run_bcl
from .channel import PhyConfig, detection_constant
from .config import (ConfigError, ExperimentSpec, dbm_to_watts, mcs_phy,
                     power_point_seed, watts_to_dbm)
from .engine import run_trial, run_two_packet_trial
from .field import FieldConfig, Point2D
from .metrics import edp_and_cost, mcs_table, trial_e2e

TRACE_COLUMNS = ["trial_id", "hop", "K", "L", "j", "n_r", "xH0",
                 "delay_spread_s"]
SUMMARY_COLUMNS = ["protocol", "p_t_dbm", "rho_per_km2", "B", "mcs",
                   "E_e2e_J", "l_e2e_s", "EDP", "C_e2e", "cost_ratio",
                   "delivered", "trials"]
# the two-packet scenario's sources, either side of the axis
TWO_SRC_A = Point2D(0.0, 120.0)
TWO_SRC_B = Point2D(0.0, -120.0)


def _write_csv(spec: ExperimentSpec, name: str, header: list[str],
               rows) -> str:
    """Write spec.out_dir/<name>; returns its path."""
    path = os.path.join(spec.out_dir, name)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in row])
    return path


def _write_figure(spec: ExperimentSpec, stem: str, header: list[str], rows,
                  title: str, x: str, y: str, series: str | None = None,
                  notes: str = "") -> str:
    """Write <stem>.csv and its plot recipe beside it; returns the CSV path."""
    path = _write_csv(spec, f"{stem}.csv", header, rows)
    lines = [
        f"title = {title}",
        f"data = {stem}.csv",
        f"x = {x}",
        f"y = {y}",
    ]
    if series:
        lines.append(f"series_by = {series}")
    if notes:
        lines.append(f"notes = {notes}")
    with open(path[:-len(".csv")] + ".plot.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


class TrialSummary(NamedTuple):
    """What a sweep keeps of one OMR trial."""

    seed: int
    reached: bool
    q: int                  # hops traversed
    delay_spread_s: float
    records: list           # the trial's HopRecords, one per hop
    energy_j: float
    delay_s: float


def _one_omr_trial(args) -> TrialSummary:
    field, phy, policy, b, seed = args
    res = run_trial(field, phy, policy, b, seed)
    e, l = trial_e2e(res.records, phy)
    return TrialSummary(seed, res.reached, res.q, res.delay_spread_s,
                        res.records, e, l)


def run_sweep(spec: ExperimentSpec,
              points: list[tuple]) -> list[list[TrialSummary]]:
    """Run the trials of every (field, phy, b, trials, seed) point.

    Returns one batch per point, in point order, each in trial-seed order.
    A point's trial seeds are spawned from its own seed, so its batch does
    not depend on the other points or on the worker count. All points share
    one worker pool; the run is inline when spec.workers == 1 or there are
    fewer than 8 trials in all.
    """
    args = [(field, phy, spec.policy, b, int(s.generate_state(1)[0]))
            for field, phy, b, trials, seed in points
            for s in np.random.SeedSequence(seed).spawn(trials)]
    workers = spec.workers if spec.workers > 0 else (os.cpu_count() or 1)
    if workers == 1 or len(args) < 8:
        out = [_one_omr_trial(a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            out = list(pool.map(_one_omr_trial, args, chunksize=16))
    rest = iter(out)
    return [list(islice(rest, trials)) for _, _, _, trials, _ in points]


def run_omr_batch(spec: ExperimentSpec, field: FieldConfig, phy: PhyConfig,
                  trials: int, seed: int) -> list[TrialSummary]:
    """One sweep point of `trials` trials at spec.b slots."""
    return run_sweep(spec, [(field, phy, spec.b, trials, seed)])[0]


def _omr_row(batch, phy: PhyConfig, p_dbm: float, rho_km2: float, b: int,
             mcs: str = "", cost_b: float | None = None) -> tuple:
    """A point's summary row: delivery-normalized energy, mean delivered
    delay, EDP and cost; the cost ratio is blank without a baseline cost."""
    delivered = [t for t in batch if t.reached]
    e = l = edp = cost = math.nan
    if delivered:
        e = sum(t.energy_j for t in batch) / len(delivered)
        l = float(np.mean([t.delay_s for t in delivered]))
        edp, cost = edp_and_cost(e, l, phy.r, phy.t_p)
    ratio = ""
    if cost_b is not None:
        ratio = cost / cost_b if cost == cost else math.nan
    return ("omr", p_dbm, rho_km2, b, mcs, e, l, edp, cost, ratio,
            len(delivered), len(batch))


def _bcl_row(res, phy: PhyConfig, p_dbm: float, rho_km2: float,
             mcs: str = "", ratio: float | str = "") -> tuple:
    """A BCL walk's summary row: its energy, delay, EDP and cost."""
    edp, cost = edp_and_cost(res.e2e_energy_j, res.e2e_delay_s, phy.r, phy.t_p)
    return ("bcl", p_dbm, rho_km2, "", mcs, res.e2e_energy_j, res.e2e_delay_s,
            edp, cost, ratio, res.delivered, res.trials)


def scenario_omr_trials(spec: ExperimentSpec) -> list[str]:
    batch = run_omr_batch(spec, spec.field, spec.phy, spec.trials, spec.seed)
    return [_write_csv(spec, "omr_trace.csv", TRACE_COLUMNS,
                       [(t.seed, r.hop, r.k_prev, r.l, r.j_prev, r.n_r, r.xh0,
                         t.delay_spread_s) for t in batch for r in t.records]),
            _write_csv(spec, "summary.csv", SUMMARY_COLUMNS, [_omr_row(
                batch, spec.phy, round(watts_to_dbm(spec.phy.p_t), 6),
                spec.field.rho * 1e6, spec.b)])]


def scenario_bcl_trials(spec: ExperimentSpec) -> list[str]:
    phy = spec.phy.with_tx_power(dbm_to_watts(spec.bcl_p_t_dbm))
    res = run_bcl(spec.bcl, spec.field, phy, spec.trials, spec.seed)
    return [_write_csv(spec, "bcl_hops.csv",
                       ["trial_id", "hop", "eta", "m_e", "m_n", "progress_m"],
                       res.per_hop),
            _write_csv(spec, "summary.csv", SUMMARY_COLUMNS, [_bcl_row(
                res, phy, spec.bcl_p_t_dbm, spec.field.rho * 1e6)])]


def _fit_progress(batch, phy: PhyConfig):
    """Fit the per-hop progress law to a batch's contour advances."""
    u = detection_constant(phy).u
    ks, dxs = [], []
    for b in batch:
        # failed trials still advanced the contour for a few hops; their
        # samples are as real as any
        prev_x = None
        for r in b.records:
            if r.hop >= 2 and prev_x is not None \
                    and not math.isnan(r.xh0) and not math.isnan(prev_x):
                ks.append(r.k_prev)
                dxs.append(r.xh0 - prev_x)
            prev_x = r.xh0
    return calibrate_progress(np.asarray(ks, dtype=float),
                              np.asarray(dxs, dtype=float), u, phy.alpha)


def scenario_calibrate(spec: ExperimentSpec) -> list[str]:
    batch = run_omr_batch(spec, spec.field, spec.phy, spec.trials, spec.seed)
    model, mape = _fit_progress(batch, spec.phy)
    return [_write_csv(spec, "calibration.csv",
                       ["varphi_m", "beta", "u", "alpha", "r1_m", "mape"],
                       [(model.varphi, model.beta, model.u, model.alpha,
                         model.r1, mape)])]


def scenario_analytic(spec: ExperimentSpec) -> list[str]:
    batch = run_omr_batch(spec, spec.field, spec.phy,
                          max(200, spec.trials // 5), spec.seed + 1)
    model, mape = _fit_progress(batch, spec.phy)
    stats = run_recursion(spec.field, model, spec.b)
    out = [_write_figure(
        spec, "analytic_hops", ["hop", "E_K", "E_L", "E_nr", "xH0"],
        [(r.hop, r.e_k, r.e_l, r.e_nr, r.xh0) for r in stats.rows],
        "Per-hop relay/decoder expectations", "hop", "E_K,E_L,E_nr",
        notes=f"progress fit MAPE = {mape:.4f}")]
    if spec.dump_pmfs:
        out += [_write_csv(spec, f"pmf_K_hop{i}.csv", ["k", "prob"],
                           list(enumerate(dist.probs)))
                for i, dist in enumerate(stats.dists_k, start=1)]
    return out


def _bcl_reference(spec: ExperimentSpec, field: FieldConfig, phy: PhyConfig,
                   rho_km2: float, mcs: str = ""):
    """The BCL summary row a sweep's cost ratios divide by, and its cost."""
    phy_b = phy.with_tx_power(dbm_to_watts(spec.bcl_p_t_dbm))
    res = run_bcl(spec.bcl, field, phy_b, max(100, spec.trials // 5),
                  spec.seed + 17)
    row = _bcl_row(res, phy_b, spec.bcl_p_t_dbm, rho_km2, mcs, 1.0)
    return row, row[SUMMARY_COLUMNS.index("C_e2e")]


def _power_grid(spec: ExperimentSpec) -> list[tuple]:
    """(rho_km2, p_t_dbm, point) of the density-major density x power sweep."""
    return [(rho_km2, pdbm, (replace(spec.field, rho=rho_km2 * 1e-6),
                             spec.phy.with_tx_power(dbm_to_watts(pdbm)),
                             spec.b, spec.trials, power_point_seed(spec, pdbm)))
            for rho_km2 in spec.rho_per_km2_list
            for pdbm in spec.p_t_dbm_list]


def scenario_compare_power(spec: ExperimentSpec) -> list[str]:
    """Cost-ratio curve against transmit power for each density."""
    grid = _power_grid(spec)
    batches = run_sweep(spec, [point for *_, point in grid])
    rows = []
    for i, ((rho_km2, pdbm, (field, phy, *_)), batch) in enumerate(
            zip(grid, batches)):
        if i % len(spec.p_t_dbm_list) == 0:  # a density's rows open with BCL
            bcl_row, cost_b = _bcl_reference(spec, field, spec.phy, rho_km2)
            rows.append(bcl_row)
        rows.append(_omr_row(batch, phy, pdbm, rho_km2, spec.b, cost_b=cost_b))
    return [_write_figure(spec, "compare_power", SUMMARY_COLUMNS, rows,
                          "End-to-end cost ratio vs transmit power", "p_t_dbm",
                          "cost_ratio", series="rho_per_km2")]


def scenario_compare_b(spec: ExperimentSpec) -> list[str]:
    field = spec.field
    _, cost_b = _bcl_reference(spec, field, spec.phy, field.rho * 1e6)
    batches = run_sweep(spec, [(field, spec.phy, b, spec.trials, spec.seed + b)
                               for b in spec.b_list])
    p_dbm = round(watts_to_dbm(spec.phy.p_t), 6)
    rows = [_omr_row(batch, spec.phy, p_dbm, field.rho * 1e6, b, cost_b=cost_b)
            for b, batch in zip(spec.b_list, batches)]
    return [_write_figure(spec, "compare_B", SUMMARY_COLUMNS, rows,
                          "End-to-end cost ratio vs RACH slot count", "B",
                          "cost_ratio")]


def scenario_compare_mcs(spec: ExperimentSpec) -> list[str]:
    """Per-MCS cost against the baseline running coherent QPSK."""
    table = {m.name: m for m in mcs_table(spec.coding_gain_db)}
    names = ["QPSK-coherent", *spec.mcs_list]
    bcl_phy, *phys = [mcs_phy(spec, name) for name in names]
    bcl_row, cost_b = _bcl_reference(spec, spec.field, bcl_phy,
                                     spec.field.rho * 1e6, names[0])
    batches = run_sweep(spec, [
        (spec.field, phy, spec.b, spec.trials,
         spec.seed + table[name].bits_per_symbol)
        for name, phy in zip(spec.mcs_list, phys)])
    rows = [bcl_row] + [
        _omr_row(batch, phy, round(watts_to_dbm(phy.p_t), 6),
                 spec.field.rho * 1e6, spec.b, name, cost_b)
        for name, phy, batch in zip(spec.mcs_list, phys, batches)]
    return [_write_figure(spec, "compare_mcs", SUMMARY_COLUMNS, rows,
                          "End-to-end cost ratio per modulation scheme", "mcs",
                          "cost_ratio")]


def scenario_delay_spread(spec: ExperimentSpec) -> list[str]:
    grid = [(rho_km2, w) for rho_km2 in spec.rho_per_km2_list
            for w in spec.w_list]
    batches = run_sweep(spec, [
        (replace(spec.field, rho=rho_km2 * 1e-6, w=w), spec.phy, spec.b,
         spec.trials, spec.seed + int(w) + int(rho_km2))
        for rho_km2, w in grid])
    rows = []
    for (rho_km2, w), batch in zip(grid, batches):
        spreads = np.asarray([b.delay_spread_s for b in batch if b.reached])
        rows.append((rho_km2, w, spreads.size,
                     float(spreads.mean()) if spreads.size else math.nan,
                     float(spreads.std()) if spreads.size else math.nan,
                     float(np.mean(spreads > spec.phy.t_cp))
                     if spreads.size else math.nan))
    return [_write_figure(spec, "delay_spread", [
        "rho_per_km2", "w_m", "delivered", "spread_mean_s", "spread_std_s",
        "frac_above_t_cp"], rows, "Forwarding delay spread vs strip width",
        "w_m", "spread_mean_s,spread_std_s", series="rho_per_km2")]


def scenario_retransmissions(spec: ExperimentSpec) -> list[str]:
    """Per-hop expected retransmissions: recursion vs Monte Carlo."""
    grid = _power_grid(spec)
    rows = []
    for (rho_km2, pdbm, (field, phy, *_)), batch in zip(
            grid, run_sweep(spec, [point for *_, point in grid])):
        ana = {}
        try:
            model, _ = _fit_progress(batch, phy)
            ana = {r.hop: r.e_nr
                   for r in run_recursion(field, model, spec.b).rows}
        except (CalibrationError, ValueError):
            pass  # sweep point too sparse to calibrate; keep the raw counts
        nr_by_hop: dict[int, list] = {}
        for b in batch:
            for r in b.records:
                nr_by_hop.setdefault(r.hop, []).append(r.n_r)
        for hop in sorted(nr_by_hop):
            mc = nr_by_hop[hop]
            rows.append((rho_km2, pdbm, hop, float(np.mean(mc)),
                         float(np.std(mc) / math.sqrt(len(mc))),
                         ana.get(hop, math.nan), len(mc)))
    return [_write_figure(spec, "retransmissions", [
        "rho_per_km2", "p_t_dbm", "hop", "E_nr_mc", "se_mc", "E_nr_analytic",
        "n"], rows, "Expected retransmissions per hop", "hop",
        "E_nr_mc,E_nr_analytic", series="rho_per_km2,p_t_dbm")]


def scenario_two_packets(spec: ExperimentSpec) -> list[str]:
    res = run_two_packet_trial(
        spec.field, spec.phy, spec.policy, spec.b, spec.seed,
        src_a=TWO_SRC_A, src_b=TWO_SRC_B,
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
    "compare-power": scenario_compare_power,
    "compare-B": scenario_compare_b,
    "compare-mcs": scenario_compare_mcs,
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
        diags = spec.validate()
        if diags:
            raise ConfigError(diags)
        return _SCENARIO_FUNCS[spec.scenario](spec)
    except Exception as exc:
        manifest = os.path.join(spec.out_dir, "error_manifest.txt")
        with open(manifest, "w", encoding="utf-8") as fh:
            fh.write(f"scenario = {spec.scenario}\nerror = {exc!r}\n")
        raise
