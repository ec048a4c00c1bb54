"""In-process span tracer for the benchmark's traced run.

Wrappers are installed by rebinding the module attributes that omrsim's own
callers look up at call time (for example ``omrsim.engine.decode_set``), so
nothing under ``src/`` changes. Each wrapped call records one span (name,
parent span, start, end, operation id) into flat arrays held in memory; the
arrays are written out once, when the run ends. A layer's self time is its
span's duration minus the time its direct child spans cover.

Wrappers record only in the process that installed them. Pool workers forked
while the wrappers are in place call straight through, so worker-side spans
(the trials of ``sweep-power``) are not collected.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from collections import defaultdict

import numpy as np

# Span names, in report order. Every one is reported on every workload, as 0
# where the workload never enters that layer.
SPANS = (
    "field.deploy",
    "engine.run_trial",
    "engine.decode_set",
    "engine.rach_round",
    "channel.coverage_contour",
    "channel.power_sum",
    "channel.brentq",
    "metrics.trial_e2e",
    "analytic.run_recursion",
    "analytic.propagate_hop",
    "analytic.areas",
    "analytic.p_j_pmf",
    "analytic.p_j",
    "analytic.poisson_pmf",
    "analytic.convolve",
    "baseline.run_bcl",
    "baseline.contention_cycle",
    "experiments.run",
    "experiments.run_omr_batch",
    "config.load_config",
    "cli.main",
)


class _TracedDist:
    """Stands in for a scipy distribution object with a traced ``pmf``."""

    def __init__(self, dist, pmf):
        self._dist = dist
        self.pmf = pmf

    def __getattr__(self, name):
        return getattr(self._dist, name)


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names = list(SPANS)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = defaultdict(float)
        self.current_op = -1
        self._stack = [-1]
        self._pid = os.getpid()
        self._saved = []

    # ------------------------------------------------------------ recording

    def wrap(self, name, fn, on_result=None, on_error=None):
        nid = self._ids[name]
        name_id, parent, op = self.name_id, self.parent, self.op
        start, end, stack = self.start, self.end, self._stack
        pid, clock, getpid = self._pid, time.perf_counter, os.getpid

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if getpid() != pid:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(self.current_op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def count(self, key, value=1.0):
        self.counters[key] += value

    # ------------------------------------------------------ install / remove

    def _rebind(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, omrsim):
        """Rebind the module attributes omrsim's callers use."""
        analytic, baseline, channel = omrsim.analytic, omrsim.baseline, omrsim.channel
        cli, engine, experiments = omrsim.cli, omrsim.engine, omrsim.experiments
        metrics = omrsim.metrics
        count = self.count

        def nodes(dep):
            count("field.nodes_deployed", dep.n)

        def decoders(idx):
            count("engine.decoders", len(idx))

        def contour_error(exc):
            if isinstance(exc, channel.ContourUndefinedError):
                count("channel.contour_undefined")

        def support(dist):
            key = "analytic.max_support"
            self.counters[key] = max(self.counters[key], dist.support)

        def bcl_hops(res):
            count("baseline.hops", len(res.per_hop))

        plain = [
            (engine, "run_trial", "engine.run_trial"),
            (engine, "rach_round", "engine.rach_round"),
            (channel, "power_sum", "channel.power_sum"),
            (channel, "brentq", "channel.brentq"),
            (metrics, "trial_e2e", "metrics.trial_e2e"),
            (analytic, "run_recursion", "analytic.run_recursion"),
            (analytic, "propagate_hop", "analytic.propagate_hop"),
            (analytic, "areas", "analytic.areas"),
            (analytic, "p_j_pmf", "analytic.p_j_pmf"),
            (analytic, "p_j", "analytic.p_j"),
            (baseline, "contention_cycle", "baseline.contention_cycle"),
            (experiments, "run_omr_batch", "experiments.run_omr_batch"),
            (cli, "run", "experiments.run"),
            (cli, "load_config", "config.load_config"),
            (cli, "main", "cli.main"),
        ]
        for owner, attr, name in plain:
            self._rebind(owner, attr, self.wrap(name, getattr(owner, attr)))
        self._rebind(engine, "deploy",
                     self.wrap("field.deploy", engine.deploy, on_result=nodes))
        self._rebind(baseline, "deploy",
                     self.wrap("field.deploy", baseline.deploy, on_result=nodes))
        self._rebind(engine, "decode_set",
                     self.wrap("engine.decode_set", engine.decode_set,
                               on_result=decoders))
        self._rebind(engine, "coverage_contour",
                     self.wrap("channel.coverage_contour",
                               engine.coverage_contour,
                               on_error=contour_error))
        self._rebind(experiments, "run_bcl",
                     self.wrap("baseline.run_bcl", experiments.run_bcl,
                               on_result=bcl_hops))
        dist = analytic._poisson
        self._rebind(analytic, "_poisson",
                     _TracedDist(dist, self.wrap("analytic.poisson_pmf",
                                                 dist.pmf)))
        self._rebind(analytic.IntDist, "convolve",
                     self.wrap("analytic.convolve",
                               analytic.IntDist.convolve, on_result=support))
        pool_cls = experiments.ProcessPoolExecutor

        def pool(*args, **kwargs):
            count("experiments.pools_created")
            return pool_cls(*args, **kwargs)

        self._rebind(experiments, "ProcessPoolExecutor", pool)

    def remove(self):
        """Restore every rebound attribute, last rebinding first."""
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # --------------------------------------------------------------- summary

    def arrays(self):
        return {
            "names": np.asarray(self.names),
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def totals(self):
        """Calls and self seconds per span name, p_j_pmf cache misses, counters.

        The result is plain data, so totals from several traced rounds, or
        from a child process, can be merged with ``merge_totals``.
        """
        a = self.arrays()
        n = len(self.names)
        dur = a["end"] - a["start"]
        parent = a["parent"]
        has_parent = parent >= 0
        child = np.zeros(dur.size)
        np.add.at(child, parent[has_parent], dur[has_parent])
        calls = np.bincount(a["name_id"], minlength=n)
        selfs = np.bincount(a["name_id"], weights=dur - child, minlength=n)
        # a p_j_pmf call that evaluated p_j itself missed the pmf cache
        pj_pmf, pj = self._ids["analytic.p_j_pmf"], self._ids["analytic.p_j"]
        pj_parents = np.unique(parent[(a["name_id"] == pj) & has_parent])
        misses = int(np.count_nonzero(a["name_id"][pj_parents] == pj_pmf))
        return {
            "calls": {name: int(calls[i]) for i, name in enumerate(self.names)},
            "self_s": {name: float(selfs[i]) for i, name in enumerate(self.names)},
            "p_j_pmf_misses": misses,
            "counters": dict(self.counters),
        }


# Per-layer metrics of the traced run, each per traced round of the workload.
PER_LAYER = (
    ("field.deploy.calls", "count"),
    ("field.deploy.self_s", "s"),
    ("field.nodes_deployed", "count"),
    ("engine.run_trial.calls", "count"),
    ("engine.run_trial.self_s", "s"),
    ("engine.decode_set.calls", "count"),
    ("engine.decode_set.self_s", "s"),
    ("engine.decoders", "count"),
    ("engine.rach_round.calls", "count"),
    ("engine.rach_round.self_s", "s"),
    ("engine.attempts", "count"),
    ("engine.hops", "count"),
    ("engine.useful_attempt_ratio", "ratio"),
    ("engine.relays_per_hop", "count"),
    ("engine.delivered_ratio", "ratio"),
    ("engine.us_per_attempt", "us"),
    ("channel.coverage_contour.calls", "count"),
    ("channel.coverage_contour.self_s", "s"),
    ("channel.brentq.self_s", "s"),
    ("channel.power_sum.calls", "count"),
    ("channel.power_sum.self_s", "s"),
    ("channel.evals_per_contour", "count"),
    ("channel.contour_undefined", "count"),
    ("metrics.trial_e2e.calls", "count"),
    ("metrics.trial_e2e.self_s", "s"),
    ("analytic.run_recursion.calls", "count"),
    ("analytic.run_recursion.self_s", "s"),
    ("analytic.propagate_hop.calls", "count"),
    ("analytic.propagate_hop.self_s", "s"),
    ("analytic.areas.calls", "count"),
    ("analytic.areas.self_s", "s"),
    ("analytic.p_j_pmf.calls", "count"),
    ("analytic.p_j_pmf.self_s", "s"),
    ("analytic.p_j.calls", "count"),
    ("analytic.p_j_cache_hit_ratio", "ratio"),
    ("analytic.poisson_pmf.calls", "count"),
    ("analytic.poisson_pmf.self_s", "s"),
    ("analytic.convolve.calls", "count"),
    ("analytic.convolve.self_s", "s"),
    ("analytic.max_support", "count"),
    ("baseline.run_bcl.calls", "count"),
    ("baseline.run_bcl.self_s", "s"),
    ("baseline.contention_cycle.calls", "count"),
    ("baseline.contention_cycle.self_s", "s"),
    ("baseline.hops", "count"),
    ("experiments.run.self_s", "s"),
    ("experiments.run_omr_batch.calls", "count"),
    ("experiments.run_omr_batch.self_s", "s"),
    ("experiments.pools_created", "count"),
    ("config.load_config.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace_overhead_frac", "ratio"),
    ("traced_wall_s", "s"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def merge_totals(parts):
    """Sum a list of ``Tracer.totals`` results; ``analytic.max_support`` is a max."""
    out = {"calls": defaultdict(int), "self_s": defaultdict(float),
           "p_j_pmf_misses": 0, "counters": defaultdict(float)}
    for part in parts:
        for key in ("calls", "self_s", "counters"):
            for name, value in part[key].items():
                if name == "analytic.max_support":
                    out[key][name] = max(out[key][name], value)
                else:
                    out[key][name] += value
        out["p_j_pmf_misses"] += part["p_j_pmf_misses"]
    return out


def layer_metrics(totals, rounds, traced_wall_s, untraced_wall_s,
                  untraced_attempt_s):
    """Per-layer values, averaged per traced round where they are sums.

    ``untraced_attempt_s`` is the host time per simulated transmission
    attempt measured on the untraced rounds of the same run, so that figure
    carries no tracing overhead.
    """
    calls, selfs, c = totals["calls"], totals["self_s"], totals["counters"]
    c = defaultdict(float, c)
    vals = {}
    for name in SPANS:
        vals[f"{name}.calls"] = calls.get(name, 0) / rounds
        vals[f"{name}.self_s"] = selfs.get(name, 0.0) / rounds
    for key in ("field.nodes_deployed", "engine.decoders", "engine.attempts",
                "engine.hops", "channel.contour_undefined", "baseline.hops",
                "experiments.pools_created"):
        vals[key] = c[key] / rounds
    vals["engine.useful_attempt_ratio"] = _ratio(c["engine.hops"],
                                                 c["engine.attempts"])
    vals["engine.relays_per_hop"] = _ratio(c["engine.relays_formed"],
                                           c["engine.relay_hops"])
    vals["engine.delivered_ratio"] = _ratio(c["engine.delivered"],
                                            c["engine.trials"])
    vals["engine.us_per_attempt"] = untraced_attempt_s * 1e6
    vals["channel.evals_per_contour"] = _ratio(
        calls.get("channel.power_sum", 0),
        calls.get("channel.coverage_contour", 0))
    pmf_calls = calls.get("analytic.p_j_pmf", 0)
    vals["analytic.p_j_cache_hit_ratio"] = _ratio(
        pmf_calls - totals["p_j_pmf_misses"], pmf_calls)
    vals["analytic.max_support"] = c["analytic.max_support"]
    vals["trace_overhead_frac"] = _ratio(traced_wall_s, untraced_wall_s) - 1.0
    vals["traced_wall_s"] = traced_wall_s
    return {name: {"value": float(vals[name]), "unit": unit}
            for name, unit in PER_LAYER}
