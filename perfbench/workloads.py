"""The benchmark's four workloads: inputs from a seed, rounds of work, checks.

A round is each workload's fixed unit of work:

- ``trials-24dBm`` / ``trials-33dBm``: 64 ``engine.run_trial`` +
  ``metrics.trial_e2e`` pairs, one per reference trial seed;
- ``recursion``: four ``analytic.run_recursion`` calls (each input twice, in
  a fixed order) in a fresh child process, so half of the calls start with a
  cold ``p_j_pmf`` cache;
- ``sweep-power``: one ``cli.main`` call running the ``compare-power``
  scenario on two pool workers.

Every operation's output is checked after its round; the checks are not
timed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import Tracer

GOLDEN_CFG = Path("configs") / "golden.cfg"
REFERENCE_DIR = Path("perfbench") / "reference"
OUT_DIR = Path(".perfbench_out")

ROUND_TRIALS = 64          # trials per round; also the number of cost strata
TRIAL_REL_TOL = 1e-9       # xh0, delay spread, energy and delay
RECURSION_REL_TOL = 1e-12  # E_K, E_L, E_nr, xH0
SWEEP_TRIALS = 40          # trials per compare-power OMR point
SWEEP_WORKERS = 2

TRIAL_POWERS_DBM = {"trials-24dBm": 24.0, "trials-33dBm": 33.0}
WORKLOADS = ("trials-24dBm", "trials-33dBm", "recursion", "sweep-power")


class SetupError(RuntimeError):
    """The program or the benchmark's inputs are missing or unusable."""


@dataclass
class Round:
    ops: int
    failed: int
    wall_s: float
    op_s: list            # per-operation latencies, seconds
    attempts: int = 0     # simulated transmission attempts (trial workloads)
    maxrss_kb: int = 0    # peak RSS of the process that did the work
    totals: dict | None = None   # tracer totals when the round was traced
    spans: dict = field(default_factory=dict)


def load_program(root: Path):
    """Import omrsim from the checkout's ``src/`` and nowhere else."""
    src = root / "src"
    if not (src / "omrsim" / "__init__.py").is_file():
        raise SetupError(f"no omrsim package under {src}")
    sys.path.insert(0, str(src))
    try:
        import omrsim
        import omrsim.analytic
        import omrsim.baseline
        import omrsim.channel
        import omrsim.cli
        import omrsim.config
        import omrsim.engine
        import omrsim.experiments
        import omrsim.metrics
    except ImportError as exc:
        raise SetupError(f"cannot import omrsim: {exc}") from exc
    if Path(omrsim.__file__).resolve().parent != (src / "omrsim").resolve():
        raise SetupError(f"omrsim imported from {omrsim.__file__}, not {src}")
    return omrsim


def load_spec(om, root: Path):
    path = root / GOLDEN_CFG
    if not path.is_file():
        raise SetupError(f"missing {path}")
    return om.config.load_config(str(path))


def traced(om, fn):
    """Run fn(tracer) with the tracer installed; returns (result, tracer)."""
    tracer = Tracer()
    tracer.install(om)
    try:
        return fn(tracer), tracer
    finally:
        tracer.remove()


def _report_exception(what: str) -> None:
    print(f"perfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def rel_close(a: float, b: float, tol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=tol, abs_tol=0.0)


# ---------------------------------------------------------------- trials

def trial_outputs(res, e2e) -> dict:
    """The fields of one trial that the reference pins."""
    recs = res.records
    return {
        "hop": [r.hop for r in recs],
        "k_prev": [r.k_prev for r in recs],
        "l": [r.l for r in recs],
        "j_prev": [r.j_prev for r in recs],
        "n_r": [r.n_r for r in recs],
        "k": [r.k for r in recs],
        "xh0": [r.xh0 for r in recs],
        "reached": bool(res.reached),
        "q": int(res.q),
        "delay_spread_s": float(res.delay_spread_s),
        "energy_j": float(e2e[0]),
        "delay_s": float(e2e[1]),
    }


EXACT_HOP_FIELDS = ("hop", "k_prev", "l", "j_prev", "n_r", "k")


def stratified_rounds(cost: np.ndarray, seed: int) -> np.ndarray:
    """Rounds of ROUND_TRIALS pool indices, one from each cost stratum.

    The pool is cut into ROUND_TRIALS strata of similar reference cost; the
    seed shuffles each stratum and the order within a round. Every round then
    carries the same cost mix, so a run's figures do not hinge on which
    trials its seed happened to draw.
    """
    rng = np.random.default_rng(seed)
    strata = np.argsort(cost, kind="stable").reshape(ROUND_TRIALS, -1)
    rounds = rng.permuted(strata, axis=1).T
    return rng.permuted(rounds, axis=1)


class TrialWorkload:
    min_rounds = 1
    op_unit = "trial"

    def __init__(self, root: Path, seed: int, name: str):
        self.om = load_program(root)
        spec = load_spec(self.om, root)
        self.field, self.policy, self.b = spec.field, spec.policy, spec.b
        self.phy = spec.phy.with_tx_power(
            self.om.config.dbm_to_watts(TRIAL_POWERS_DBM[name]))
        path = root / REFERENCE_DIR / f"{name}.npz"
        if not path.is_file():
            raise SetupError(f"missing reference {path}")
        with np.load(path) as ref:
            self.ref = {k: ref[k] for k in ref.files}
        self.rounds = stratified_rounds(self.ref["cost_ms"], seed)

    def reference(self, p: int) -> dict:
        ref = self.ref
        lo, hi = ref["offsets"][p], ref["offsets"][p + 1]
        out = {f: ref[f][lo:hi].tolist() for f in EXACT_HOP_FIELDS + ("xh0",)}
        for f in ("reached", "q", "delay_spread_s", "energy_j", "delay_s"):
            out[f] = ref[f][p].item()
        return out

    def check(self, p: int, got: dict) -> bool:
        want = self.reference(p)
        if any(got[f] != want[f] for f in EXACT_HOP_FIELDS + ("reached", "q")):
            return False
        floats = list(zip(got["xh0"], want["xh0"])) + [
            (got[f], want[f]) for f in ("delay_spread_s", "energy_j", "delay_s")]
        return all(rel_close(a, b, TRIAL_REL_TOL) for a, b in floats)

    def _trials(self, idx, tracer=None):
        engine, metrics = self.om.engine, self.om.metrics
        seeds = self.ref["seeds"]
        outs, op_s = [], []
        t_round = time.perf_counter()
        for p in idx:
            if tracer is not None:
                tracer.current_op = int(p)
            t = time.perf_counter()
            try:
                res = engine.run_trial(self.field, self.phy, self.policy,
                                       self.b, int(seeds[p]))
                e2e = metrics.trial_e2e(res.records, self.phy)
                out = (res, e2e)
            except Exception:
                _report_exception(f"trial seed {int(seeds[p])}")
                out = None
            op_s.append(time.perf_counter() - t)
            outs.append(out)
        return outs, op_s, time.perf_counter() - t_round

    def run_round(self, i: int, trace: bool) -> Round:
        idx = self.rounds[i % len(self.rounds)]
        tracer = None
        if trace:
            (outs, op_s, wall), tracer = traced(
                self.om, lambda tr: self._trials(idx, tr))
        else:
            outs, op_s, wall = self._trials(idx)
        failed = attempts = 0
        c = {"engine.trials": 0, "engine.delivered": 0, "engine.hops": 0,
             "engine.relays_formed": 0, "engine.relay_hops": 0}
        for p, out in zip(idx, outs):
            if out is None or not self.check(int(p), trial_outputs(*out)):
                failed += 1
                continue
            res = out[0]
            attempts += sum(1 + r.n_r for r in res.records)
            c["engine.trials"] += 1
            c["engine.delivered"] += int(res.reached)
            c["engine.hops"] += sum(r.k > 0 for r in res.records) + int(res.reached)
            c["engine.relays_formed"] += sum(r.k for r in res.records)
            c["engine.relay_hops"] += sum(r.k > 0 for r in res.records)
        rnd = Round(ops=len(idx), failed=failed, wall_s=wall, op_s=op_s,
                    attempts=attempts)
        if tracer is not None:
            for key, value in c.items():
                tracer.count(key, value)
            tracer.count("engine.attempts", attempts)
            rnd.totals, rnd.spans = tracer.totals(), tracer.arrays()
        return rnd

    def peak_rss_mb(self, rounds) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------- recursion

def recursion_inputs(om, spec):
    """(label, field, model, b) in call order: each input twice.

    ``golden`` is the reference geometry with the progress law phi = 8 m,
    beta = 0.9 at the 33 dBm single-relay reach (r1 = 113 m), b = 24;
    ``r75-b16`` is the recursion-test model, r1 = 75 m, b = 16.
    """
    analytic = om.analytic
    u_golden = om.channel.detection_constant(spec.phy).u
    golden = ("golden", spec.field,
              analytic.ProgressModel(varphi=8.0, beta=0.9, u=u_golden,
                                     alpha=spec.phy.alpha), spec.b)
    r75 = ("r75-b16",
           om.field.FieldConfig(rho=1.5e-3, epsilon=0.25, length=2000.0,
                                 w=200.0),
           analytic.ProgressModel(varphi=8.0, beta=0.9, u=(1 / 75.0) ** 3,
                                  alpha=3.0), 16)
    return [golden, r75, golden, r75]


def recursion_rows(stats) -> list:
    return [[r.hop, r.e_k, r.e_l, r.e_nr, r.xh0] for r in stats.rows]


class RecursionWorkload:
    """Each round runs in a fresh child process (``--role recursion-round``)."""

    min_rounds = 2
    op_unit = "recursion call"

    def __init__(self, root: Path, seed: int):
        self.root, self.seed = root, seed
        self.om = load_program(root)
        self.inputs = recursion_inputs(self.om, load_spec(self.om, root))
        path = root / REFERENCE_DIR / "recursion.json"
        if not path.is_file():
            raise SetupError(f"missing reference {path}")
        self.ref = json.loads(path.read_text(encoding="utf-8"))

    def check(self, label: str, stats) -> bool:
        want = self.ref[label]
        got = recursion_rows(stats)
        if len(got) != len(want) or any(g[0] != w[0] for g, w in zip(got, want)):
            return False
        if not all(rel_close(a, b, RECURSION_REL_TOL)
                   for g, w in zip(got, want) for a, b in zip(g[1:], w[1:])):
            return False
        try:
            for dist in stats.dists_k + stats.dists_l:
                dist.check_normalized()
        except self.om.analytic.TruncationError:
            return False
        return True

    def _calls(self, tracer=None):
        analytic = self.om.analytic
        outs, op_s = [], []
        t_round = time.perf_counter()
        for n, (label, fc, model, b) in enumerate(self.inputs):
            if tracer is not None:
                tracer.current_op = n
            t = time.perf_counter()
            try:
                out = analytic.run_recursion(fc, model, b)
            except Exception:
                _report_exception(f"recursion {label}")
                out = None
            op_s.append(time.perf_counter() - t)
            outs.append(out)
        return outs, op_s, time.perf_counter() - t_round

    def child_round(self, trace: bool) -> dict:
        """Body of the child process: one round, reported as plain data."""
        tracer = None
        if trace:
            (outs, op_s, wall), tracer = traced(self.om, self._calls)
        else:
            outs, op_s, wall = self._calls()
        failed = sum(out is None or not self.check(label, out)
                     for (label, *_), out in zip(self.inputs, outs))
        report = {"ops": len(outs), "failed": failed, "wall_s": wall,
                  "op_s": op_s,
                  "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        if tracer is not None:
            report["totals"] = tracer.totals()
            spans = self.root / OUT_DIR / f"spans-recursion-seed{self.seed}-pid{os.getpid()}.npz"
            spans.parent.mkdir(parents=True, exist_ok=True)
            np.savez_compressed(spans, **tracer.arrays())
        return report

    def run_round(self, i: int, trace: bool) -> Round:
        cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
               "--workload", "recursion", "--seed", str(self.seed),
               "--role", "recursion-round", "--trace", str(int(trace))]
        proc = subprocess.run(cmd, cwd=self.root, stdout=subprocess.PIPE,
                              text=True, timeout=170)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SetupError(f"recursion round exited with {proc.returncode}")
        rep = json.loads(lines[-1])
        return Round(ops=rep["ops"], failed=rep["failed"], wall_s=rep["wall_s"],
                     op_s=rep["op_s"], maxrss_kb=rep["maxrss_kb"],
                     totals=rep.get("totals"))

    def peak_rss_mb(self, rounds) -> float:
        return max(r.maxrss_kb for r in rounds) / 1024.0


# ----------------------------------------------------------- sweep-power

class SweepWorkload:
    min_rounds = 2     # two runs at one seed must write byte-identical CSVs
    op_unit = "simulated trial"

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.om = load_program(root)
        spec = load_spec(self.om, root)
        self.cfg = str(root / GOLDEN_CFG)
        self.sweep_seed = int(np.random.default_rng(seed).integers(1, 2**31 - 1))
        n_rho, n_pt = len(spec.rho_per_km2_list), len(spec.p_t_dbm_list)
        self.expected_rows = n_rho * (n_pt + 1)
        self.expected_ops = n_rho * (n_pt * SWEEP_TRIALS
                                     + max(100, SWEEP_TRIALS // 5))
        self.out_base = root / OUT_DIR / f"sweep-seed{seed}-pid{os.getpid()}"
        self.first_csv = None

    def check(self, rc: int, printed: str, csv_path: Path) -> bool:
        if rc != 0 or str(csv_path) not in printed.split() \
                or not csv_path.is_file():
            return False
        data = csv_path.read_bytes()
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        if not rows or rows[0] != self.om.experiments.SUMMARY_COLUMNS \
                or len(rows) - 1 != self.expected_rows:
            return False
        cols = {name: i for i, name in enumerate(rows[0])}
        ops = 0
        try:
            for row in rows[1:]:
                delivered = int(row[cols["delivered"]])
                trials = int(row[cols["trials"]])
                ops += trials
                if delivered > trials or (delivered > 0 and not math.isfinite(
                        float(row[cols["cost_ratio"]]))):
                    return False
        except (ValueError, IndexError):
            return False
        if ops != self.expected_ops:
            return False
        if self.first_csv is None:
            self.first_csv = data
        return data == self.first_csv

    def _sweep(self, out: Path):
        argv = ["--config", self.cfg, "--scenario", "compare-power",
                "--trials", str(SWEEP_TRIALS), "--workers", str(SWEEP_WORKERS),
                "--seed", str(self.sweep_seed), "--out", str(out)]
        printed = io.StringIO()
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(printed):
                rc = self.om.cli.main(argv)
        except Exception:
            _report_exception("cli.main compare-power")
            rc = -1
        return rc, printed.getvalue(), time.perf_counter() - t

    def run_round(self, i: int, trace: bool) -> Round:
        out = self.out_base / f"round{i}-trace{int(trace)}"
        tracer = None
        if trace:
            (rc, printed, wall), tracer = traced(
                self.om, lambda _: self._sweep(out))
        else:
            rc, printed, wall = self._sweep(out)
        ok = self.check(rc, printed, out / "compare_power.csv")
        shutil.rmtree(out, ignore_errors=True)
        ops = self.expected_ops
        rnd = Round(ops=ops, failed=0 if ok else ops, wall_s=wall,
                    op_s=[wall / ops])
        if tracer is not None:
            rnd.totals, rnd.spans = tracer.totals(), tracer.arrays()
        return rnd

    def close(self):
        shutil.rmtree(self.out_base, ignore_errors=True)

    def peak_rss_mb(self, rounds) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return (own + children) / 1024.0


def make(name: str, root: Path, seed: int):
    if name in TRIAL_POWERS_DBM:
        return TrialWorkload(root, seed, name)
    if name == "recursion":
        return RecursionWorkload(root, seed)
    if name == "sweep-power":
        return SweepWorkload(root, seed)
    raise SetupError(f"unknown workload {name!r}")
