"""Record the reference outputs the benchmark checks every operation against.

Run from the root of a checkout, at the commit whose outputs are the
reference:

    python3 perfbench/make_reference.py

It writes ``perfbench/reference/trials-24dBm.npz``,
``perfbench/reference/trials-33dBm.npz`` and
``perfbench/reference/recursion.json``. Each trial pool is a fixed list of
trial seeds with every checked output of its trial; the benchmark's seed only
chooses which pool trials a run executes and in what order. ``cost_ms`` is
the trial's time on the recording machine, used only to sort the pool into
cost strata.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

import workloads

# pool size and SeedSequence entropy of each trial workload's seed pool
POOLS = {"trials-24dBm": (2048, 20111108024), "trials-33dBm": (4096, 20111108033)}


def pool_seeds(size: int, entropy: int) -> list[int]:
    return [int(s.generate_state(1)[0])
            for s in np.random.SeedSequence(entropy).spawn(size)]


def record_trials(root: Path, name: str) -> None:
    size, entropy = POOLS[name]
    om = workloads.load_program(root)
    spec = workloads.load_spec(om, root)
    phy = spec.phy.with_tx_power(
        om.config.dbm_to_watts(workloads.TRIAL_POWERS_DBM[name]))
    seeds = pool_seeds(size, entropy)
    cols = {f: [] for f in workloads.EXACT_HOP_FIELDS + ("xh0",)}
    per_trial = {f: [] for f in ("reached", "q", "delay_spread_s", "energy_j",
                                 "delay_s", "cost_ms")}
    offsets = [0]
    for seed in seeds:
        t = time.perf_counter()
        res = om.engine.run_trial(spec.field, phy, spec.policy, spec.b, seed)
        e2e = om.metrics.trial_e2e(res.records, phy)
        per_trial["cost_ms"].append((time.perf_counter() - t) * 1e3)
        out = workloads.trial_outputs(res, e2e)
        for f in cols:
            cols[f].extend(out[f])
        for f in per_trial:
            if f != "cost_ms":
                per_trial[f].append(out[f])
        offsets.append(len(cols["hop"]))
    arrays = {f: np.asarray(v, dtype=np.int32) for f, v in cols.items()
              if f != "xh0"}
    arrays["xh0"] = np.asarray(cols["xh0"], dtype=np.float64)
    arrays.update({f: np.asarray(v) for f, v in per_trial.items()})
    arrays["seeds"] = np.asarray(seeds, dtype=np.int64)
    arrays["offsets"] = np.asarray(offsets, dtype=np.int64)
    path = root / workloads.REFERENCE_DIR / f"{name}.npz"
    np.savez_compressed(path, **arrays)
    print(f"{path}: {size} trials, {offsets[-1]} hop records")


def record_recursion(root: Path) -> None:
    om = workloads.load_program(root)
    inputs = workloads.recursion_inputs(om, workloads.load_spec(om, root))
    ref = {}
    for label, fc, model, b in inputs:
        if label not in ref:
            ref[label] = workloads.recursion_rows(
                om.analytic.run_recursion(fc, model, b))
    path = root / workloads.REFERENCE_DIR / "recursion.json"
    path.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    print(f"{path}: " + ", ".join(f"{k} {len(v)} hops" for k, v in ref.items()))


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    (root / workloads.REFERENCE_DIR).mkdir(parents=True, exist_ok=True)
    record_recursion(root)
    for name in POOLS:
        record_trials(root, name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
