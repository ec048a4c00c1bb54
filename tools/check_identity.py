"""Byte-identity check of every scenario against another revision's source.

Usage: python tools/check_identity.py REV

REV's ``src/`` is taken with ``git archive`` into a temporary directory (no
worktree is created). Every scenario then runs on this checkout's
``configs/golden.cfg`` with seed 5, ``--trials`` 4, 12 and 40 and
``--workers`` 1 and 2, once on REV's source and once on this checkout's
``src/``. At 40 trials a sweep point runs as several tasks of the sweep
runner (16 trials each), whose trials the engine advances in lockstep. A run is
identical when both sides give the same exit code, the same stdout and stderr
(with each side's output directory replaced by one placeholder) and the same
set of written files, byte for byte. One verdict line is printed per run;
for a CSV file that differs but keeps its shape, the line gives the largest
relative difference over its numeric cells, so a declared numerical change
can be read off one run.

Each side then checks, with ``--validate-only``, each config of
``VALIDATION_CASES``: ``configs/golden.cfg`` plus one or two override lines.
A verdict is identical when both sides give the same exit code, stdout and
stderr, so a changed validation rule shows as one verdict line.

Each side then digests the records of every trial seed in the pools under
``perfbench/reference/`` (6,144 trials at 24 and 33 dBm) and of 280
two-packet runs on the golden PHY and policy: the golden field with seeds
4400-4439 at stagger 0 and 1 (a source defers to the other flow's relays 28
times at stagger 1, never at stagger 0) and ``FieldConfig(length=300.0)``
with seeds 0-199 at stagger 0. A third digest covers
``run_bcl(BclConfig(), ...)`` on the golden field at each density in
``rho_per_km2_list``, 100 trials each, under the golden PHY and under
``mcs_phy(spec, "QPSK-coherent")``.
A fourth digest covers the rows and the bytes of every ``dists_k`` and
``dists_l`` pmf of ``run_recursion`` on both ``perfbench`` reference inputs
and, under the golden progress law, on ``FieldConfig`` at each density in
``rho_per_km2_list`` with b = 3, 16 and 24 and on ``FieldConfig`` at
300 per km2 with b = 48, followed by the bytes of ``p_j_pmf(k, b)`` for
k = 1..399 at b = 3, 5, 24 and 40. A fifth digest covers the records of
``run_trial`` with false alarms on, ``RetransmitPolicy(fa_rate=0.1)`` at
b = 16, on the golden field with seeds 0-149 at 24 and 33 dBm, where
stragglers rejoin later relay sets. The two sides' digests are computed
at once, in two processes. The digests must be equal;
floats are compared by their exact ``repr``, pmfs by their bytes. The exit
code is 1 if any run, verdict or digest differs. The last lines give the
line count of ``src/omrsim/*.py`` on each side, as ``wc -l`` counts it: the
total, then one line per module. The tool itself uses the standard library
only; the digests run under each side's omrsim.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "configs" / "golden.cfg"
SCENARIOS = ("omr-trials", "bcl-trials", "analytic", "compare-power",
             "compare-B", "compare-mcs", "delay-spread", "retransmissions",
             "two-packets", "calibrate")
TRIALS = (4, 12, 40)
WORKERS = (1, 2)
SEED = 5
OUT_PLACEHOLDER = "<out>"
REFERENCE_POWERS_DBM = (24.0, 33.0)
BCL_TRIALS = 100
RECURSION_SLOTS = (3, 16, 24)
P_J_SLOTS = (3, 5, 24, 40)
P_J_MAX_RELAYS = 399
FA_RATE = 0.1
FA_SLOTS = 16
FA_SEEDS = range(150)
TWO_PACKET_STAGGERS = (0, 1)  # golden field; stagger 1 exercises carrier sense
DIGEST_ARG = "--digest"  # private: print this interpreter's digests as JSON
# override lines appended to golden.cfg, each config checked on both sides:
# the two-packet field at a length its sources' offsets push past the
# field-size bound, the one-flow field at that length, a field too large to
# draw, and two spec-level rules
VALIDATION_CASES = (
    ("scenario = two-packets", "length_m = 9e6"),
    ("length_m = 9e6",),
    ("rho_per_km2 = 1e30",),
    ("scenario = nope",),
    ("workers = -1",),
)


def archive_src(rev: str, dest: Path) -> Path:
    """Extract REV's src/ under dest and return the src directory."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                          rev, "src"], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest)
    return dest / "src"


def digests() -> dict[str, str]:
    """SHA-256 of the reference-pool trial records, of the two-packet
    records, of the BCL walks, of the hop recursions and of the false-alarm
    trial records, computed with the omrsim on sys.path."""
    from dataclasses import replace

    import numpy as np
    from omrsim.analytic import ProgressModel, p_j_pmf, run_recursion
    from omrsim.baseline import BclConfig, run_bcl
    from omrsim.channel import detection_constant
    from omrsim.config import dbm_to_watts, load_config, mcs_phy
    from omrsim.engine import RetransmitPolicy, run_trial, run_two_packet_trial
    from omrsim.field import FieldConfig, Point2D

    def line(res) -> str:
        return repr(([tuple(r) for r in res.records], res.reached, res.q,
                     float(res.delay_spread_s)))

    spec = load_config(str(GOLDEN))
    trials = hashlib.sha256()
    for p_t_dbm in REFERENCE_POWERS_DBM:
        phy = spec.phy.with_tx_power(dbm_to_watts(p_t_dbm))
        ref = ROOT / "perfbench" / "reference" / f"trials-{p_t_dbm:g}dBm.npz"
        with np.load(ref) as pool:
            for seed in pool["seeds"].tolist():
                res = run_trial(spec.field, phy, spec.policy, spec.b, seed)
                trials.update(line(res).encode() + b"\n")
    two = hashlib.sha256()
    for field, seeds, staggers in (
            (spec.field, range(4400, 4440), TWO_PACKET_STAGGERS),
            (FieldConfig(length=300.0), range(200), (0,))):
        for seed, stagger in ((s, g) for s in seeds for g in staggers):
            # literal sources: older revisions' omrsim names no constant
            res = run_two_packet_trial(
                field, spec.phy, spec.policy, spec.b, seed,
                src_a=Point2D(0.0, 120.0), src_b=Point2D(0.0, -120.0),
                interference_radius=spec.interference_radius,
                stagger_slots=stagger)
            two.update(repr((line(res.flow_a), line(res.flow_b),
                             res.interference_tagged,
                             res.slots_used)).encode() + b"\n")
    bcl = hashlib.sha256()
    for phy in (spec.phy, mcs_phy(spec, "QPSK-coherent")):
        for rho_km2 in spec.rho_per_km2_list:
            res = run_bcl(BclConfig(), replace(spec.field, rho=rho_km2 * 1e-6),
                          phy, BCL_TRIALS, SEED)
            # only the fields both revisions' BclResult carry
            bcl.update(repr((res.per_hop, res.e2e_energy_j, res.e2e_delay_s,
                             res.delivered, res.trials)).encode() + b"\n")
    recursion = hashlib.sha256()
    # the perfbench reference inputs: the golden law at the golden PHY's
    # reach, and the r1 = 75 m law at b = 16
    golden = ProgressModel(varphi=8.0, beta=0.9,
                           u=detection_constant(spec.phy).u,
                           alpha=spec.phy.alpha)
    inputs = [(spec.field, golden, spec.b),
              (FieldConfig(rho=1.5e-3, epsilon=0.25, length=2000.0, w=200.0),
               ProgressModel(varphi=8.0, beta=0.9, u=(1 / 75.0) ** 3,
                             alpha=3.0), 16)]
    inputs += [(FieldConfig(rho=rho_km2 * 1e-6), golden, b)
               for rho_km2 in spec.rho_per_km2_list for b in RECURSION_SLOTS]
    inputs.append((FieldConfig(rho=300e-6), golden, 48))  # sparse, many slots
    for field, model, b in inputs:
        stats = run_recursion(field, model, b)
        recursion.update(repr([(r.hop, r.e_k, r.e_l, r.e_nr, r.xh0)
                               for r in stats.rows]).encode() + b"\n")
        for dist in stats.dists_k + stats.dists_l:
            recursion.update(dist.probs.tobytes())
    for b in P_J_SLOTS:
        for k in range(1, P_J_MAX_RELAYS + 1):
            recursion.update(p_j_pmf(k, b).tobytes())
    false_alarms = hashlib.sha256()
    for p_t_dbm in REFERENCE_POWERS_DBM:
        phy = spec.phy.with_tx_power(dbm_to_watts(p_t_dbm))
        for seed in FA_SEEDS:
            res = run_trial(spec.field, phy, RetransmitPolicy(fa_rate=FA_RATE),
                            FA_SLOTS, seed)
            false_alarms.update(line(res).encode() + b"\n")
    return {"reference trials": trials.hexdigest(),
            "two-packet runs": two.hexdigest(),
            "BCL walks": bcl.hexdigest(),
            "hop recursions": recursion.hexdigest(),
            "false-alarm trials": false_alarms.hexdigest()}


def module_lines(src: Path) -> dict[str, int]:
    """Lines of each omrsim module under src, by file name, as ``wc -l``
    counts them."""
    return {p.name: p.read_bytes().count(b"\n")
            for p in sorted((src / "omrsim").glob("*.py"))}


def line_count(src: Path) -> int:
    """Lines of the omrsim modules under src, as ``wc -l`` counts them."""
    return sum(module_lines(src).values())


def side_digests(srcs: list[Path]) -> list[dict[str, str]]:
    """digests() under the omrsim in each of srcs, each in a fresh
    interpreter; the interpreters run at once, each with one OpenBLAS thread
    so that their BLAS threads do not contend for the same cores (on a
    2-core host the digests equal those at OpenBLAS's default count)."""
    procs = [subprocess.Popen([sys.executable, __file__, DIGEST_ARG],
                              env=dict(os.environ, PYTHONPATH=str(src),
                                       OPENBLAS_NUM_THREADS="1"),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) for src in srcs]
    results = []
    for proc in procs:
        out, err = proc.communicate()
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, proc.args,
                                                out, err)
        results.append(json.loads(out))
    return results


def run_cli(src: Path, scenario: str, trials: int, workers: int,
            out: Path) -> tuple[int, str, str, dict[str, bytes]]:
    """One CLI run on the omrsim under src: exit code, normalised stdout and
    stderr, and the bytes of every file written under out."""
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "omrsim.cli", "--config", str(GOLDEN),
            "--scenario", scenario, "--seed", str(SEED), "--trials",
            str(trials), "--workers", str(workers), "--out", str(out)]
    proc = subprocess.run(argv, cwd=out.parent, env=env, capture_output=True,
                          text=True)
    files = {str(p.relative_to(out)): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return (proc.returncode,
            proc.stdout.replace(str(out), OUT_PLACEHOLDER),
            proc.stderr.replace(str(out), OUT_PLACEHOLDER), files)


def run_validation(src: Path, cfg: Path) -> tuple[int, str, str, dict]:
    """One ``--validate-only`` check of cfg on the omrsim under src: exit
    code, stdout and stderr, and no files, in run_cli's shape."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "omrsim.cli", "--config",
                           str(cfg), "--validate-only"], cwd=cfg.parent,
                          env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr, {}


def csv_difference(a: bytes, b: bytes) -> str:
    """' (max rel diff X)' for two CSV files of the same shape: the largest
    |x - y| / max(|x|, |y|) over the cells that differ, with a count of
    differing cells that are not finite numbers; '' for different shapes."""
    rows_a, rows_b = (list(csv.reader(io.StringIO(data.decode())))
                      for data in (a, b))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return ""
    worst, text = 0.0, 0
    for row_a, row_b in zip(rows_a, rows_b):
        for cell_a, cell_b in zip(row_a, row_b):
            if cell_a == cell_b:
                continue
            try:
                x, y = float(cell_a), float(cell_b)
            except ValueError:
                text += 1
                continue
            if not (math.isfinite(x) and math.isfinite(y)):
                text += 1
            elif x != y:
                worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return f" (max rel diff {worst:.2g}" + \
        (f", {text} other cells differ)" if text else ")")


def differences(a, b) -> list[str]:
    """What differs between two run_cli results, as short labels."""
    (rc_a, out_a, err_a, files_a), (rc_b, out_b, err_b, files_b) = a, b
    diffs = []
    if rc_a != rc_b:
        diffs.append(f"exit {rc_a} vs {rc_b}")
    if out_a != out_b:
        diffs.append("stdout")
    if err_a != err_b:
        diffs.append("stderr")
    for name in sorted(files_a.keys() | files_b.keys()):
        data_a, data_b = files_a.get(name), files_b.get(name)
        if data_a != data_b:
            both_csv = name.endswith(".csv") and None not in (data_a, data_b)
            diffs.append(name + (csv_difference(data_a, data_b)
                                 if both_csv else ""))
    return diffs


def main(argv: list[str]) -> int:
    if argv == [DIGEST_ARG]:
        print(json.dumps(digests()))
        return 0
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    rev = argv[0]
    failed = 0
    with tempfile.TemporaryDirectory(prefix="check-identity-") as tmp:
        tmp = Path(tmp)
        sides = {"rev": archive_src(rev, tmp / "rev"), "head": ROOT / "src"}
        for scenario in SCENARIOS:
            for trials in TRIALS:
                for workers in WORKERS:
                    results = []
                    for side, src in sides.items():
                        out = tmp / "runs" / side / \
                            f"{scenario}-t{trials}-w{workers}"
                        out.mkdir(parents=True)
                        results.append(run_cli(src, scenario, trials,
                                               workers, out))
                    diffs = differences(*results)
                    failed += bool(diffs)
                    verdict = ("identical" if not diffs
                               else "DIFFERS: " + ", ".join(diffs))
                    print(f"{scenario:<16} trials={trials:<3} "
                          f"workers={workers}  exit={results[1][0]}  "
                          f"{verdict}", flush=True)
        runs = len(SCENARIOS) * len(TRIALS) * len(WORKERS)
        print(f"{runs - failed} of {runs} runs identical to {rev}", flush=True)
        changed = 0
        for i, case in enumerate(VALIDATION_CASES):
            cfg = tmp / f"validate-{i}.cfg"
            cfg.write_text(GOLDEN.read_text(encoding="utf-8")
                           + "".join(line + "\n" for line in case),
                           encoding="utf-8")
            results = [run_validation(src, cfg) for src in sides.values()]
            diffs = differences(*results)
            changed += bool(diffs)
            verdict = ("identical" if not diffs
                       else "DIFFERS: " + ", ".join(diffs))
            print(f"validate {'; '.join(case):<40} exit={results[1][0]}  "
                  f"{verdict}", flush=True)
        failed += changed
        print(f"{len(VALIDATION_CASES) - changed} of {len(VALIDATION_CASES)} "
              f"validation verdicts identical to {rev}", flush=True)
        want, got = side_digests(list(sides.values()))
        lines = {side: line_count(src) for side, src in sides.items()}
        modules = {side: module_lines(src) for side, src in sides.items()}
    for name in want:
        same = want[name] == got[name]
        failed += not same
        print(f"{name:<18} digest {got[name][:16]}  "
              f"{'identical' if same else 'DIFFERS from ' + want[name][:16]}")
    print(f"src/omrsim/*.py lines: {lines['rev']} at {rev}, "
          f"{lines['head']} in this checkout")
    for name in sorted(modules["rev"].keys() | modules["head"].keys()):
        print(f"  {name:<16} {modules['rev'].get(name, '-')} -> "
              f"{modules['head'].get(name, '-')}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
