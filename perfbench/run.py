"""omrsim benchmark: one workload per run, end-to-end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload trials-24dBm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` alternates untraced and traced rounds on the same inputs and
reports the per-layer metrics of the traced rounds plus the tracing overhead.
Workloads, metrics and the layer-to-end-to-end predictions are described in
perfbench/README.md. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A machine-readable copy
of the run, with the environment block, goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from tracing import layer_metrics, merge_totals
from workloads import SetupError

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 3     # fresh processes timed from spawn to first operation ready
# Round statistics use the slow end of the run's rounds. On a shared host the
# same round can run up to twice as fast for some seconds at a time; the
# 90th-percentile round tracks the common state and varied least from run to
# run, while the median moved with the share of fast phases a run happened
# to catch (see perfbench/README.md).
ROUND_PERCENTILE = 90

# units of the figures printed besides the metrics
INFO_UNITS = {"op_ms.p50": "ms", "wall_s.median": "s", "us_per_attempt": "us",
              "failed_frac": "ratio", "setup_in_process_s": "s"}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms.p95", "ms"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a child process doing only set-up, or one recursion round
    p.add_argument("--role", choices=("main", "setup-probe", "recursion-round"),
                   default="main", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ------------------------------------------------------------- environment

def environment(seed: int) -> dict:
    import scipy

    src = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    git_hash = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            git_hash = git.stdout.strip() if git.returncode == 0 else None
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_hash": git_hash,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "seed": seed,
    }


# ------------------------------------------------------------ measurements

def setup_probe_seconds(workload: str, seed: int) -> float:
    """Spawn-to-ready time of a fresh process doing this workload's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--role", "setup-probe"]
    t = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t
        proc.stdout.read()
        rc = proc.wait(timeout=60)
    if rc != 0 or line.strip() != "ready":
        raise SetupError(f"set-up probe exited with {rc}")
    return ready


def p95(samples):
    """95th percentile by linear interpolation, and the samples beyond it."""
    value = statistics.quantiles(samples, n=20, method="inclusive")[18] \
        if len(samples) > 1 else samples[0]
    return value, sum(x > value for x in samples)


def measure(wl, seconds: float, trace: bool):
    """Run rounds until `seconds` have passed and the workload's minimum is met.

    With trace, each step runs an untraced round then a traced round on the
    same inputs.
    """
    plain, traced = [], []
    t0 = time.perf_counter()
    i = 0
    while True:
        plain.append(wl.run_round(i, False))
        if trace:
            traced.append(wl.run_round(i, True))
        i += 1
        if time.perf_counter() - t0 >= seconds \
                and len(plain) + len(traced) >= wl.min_rounds:
            return plain, traced


def end_to_end(wl, plain, seed: int, workload: str):
    ops = sum(r.ops for r in plain)
    op_s = [s for r in plain for s in r.op_s]
    tail, beyond = p95(op_s)
    setups = [setup_probe_seconds(workload, seed) for _ in range(SETUP_PROBES)]
    walls = [r.wall_s for r in plain]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": np.percentile(walls, ROUND_PERCENTILE),
        "ops_per_s": np.percentile([r.ops / r.wall_s for r in plain],
                                   100 - ROUND_PERCENTILE),
        "op_ms.p95": 1e3 * tail,
        "peak_rss_mb": wl.peak_rss_mb(plain),
    }
    info = {
        "rounds": len(plain),
        "ops": ops,
        "op_unit": wl.op_unit,
        "op_samples": len(op_s),
        "op_ms.p50": 1e3 * statistics.median(op_s),
        "op_ms.p95_samples_beyond": beyond,
        "wall_s.median": statistics.median(walls),
        "setup_s_samples": setups,
        "round_wall_s": walls,
    }
    if len(op_s) <= 64:
        info["op_ms"] = [1e3 * s for s in op_s]
    attempts = sum(r.attempts for r in plain)
    if attempts:
        info["us_per_attempt"] = 1e6 * sum(r.wall_s for r in plain) / attempts
    return metrics, info


def per_layer(plain, traced):
    attempts = sum(r.attempts for r in plain)
    attempt_s = sum(r.wall_s for r in plain) / attempts if attempts else 0.0
    return layer_metrics(
        merge_totals([r.totals for r in traced]), len(traced),
        statistics.median(r.wall_s for r in traced),
        statistics.median(r.wall_s for r in plain), attempt_s)


# -------------------------------------------------------------------- main

def run_workload(args) -> int:
    t_start = time.perf_counter()
    try:
        wl = workloads.make(args.workload, ROOT, args.seed)
    except SetupError as exc:
        print(f"perfbench: cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2
    if args.role == "setup-probe":
        print("ready", flush=True)
        return 0
    if args.role == "recursion-round":
        print(json.dumps(wl.child_round(bool(args.trace))))
        return 0
    setup_in_process = time.perf_counter() - t_start

    try:
        plain, traced = measure(wl, args.seconds, bool(args.trace))
        if args.trace:
            metrics = per_layer(plain, traced)
            info = {"rounds": len(plain), "traced_rounds": len(traced)}
        else:
            values, info = end_to_end(wl, plain, args.seed, args.workload)
            metrics = {name: {"value": float(values[name]), "unit": unit}
                       for name, unit in END_TO_END}
    except SetupError as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 2
    finally:
        if hasattr(wl, "close"):
            wl.close()
    rounds = plain + traced
    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    info["failed_frac"] = failed / attempted
    info["setup_in_process_s"] = setup_in_process

    out_dir = ROOT / workloads.OUT_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for n, r in enumerate(r for r in traced if r.spans):
        np.savez_compressed(out_dir / f"spans-{stem}-round{n}.npz", **r.spans)
    env = environment(args.seed)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (out_dir / f"{stem}.json").write_text(
        json.dumps({"workload": args.workload, "env": env, "info": info,
                    **result}, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload} (one operation = one {wl.op_unit}), "
          f"seed {args.seed}, trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    for name, value in info.items():
        if isinstance(value, float):
            print(f"  {name:34s} {value:.6g} {INFO_UNITS.get(name, '')}")
        elif not isinstance(value, list):
            print(f"  {name:34s} {value}")
    if args.trace and args.workload == "sweep-power":
        print("  note: spans of the sweep's pool workers are not collected; "
              "engine, channel and metrics figures count parent-side work only")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, one child process each; prints a table and a JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 2
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
