"""Metric arithmetic: throughput, medians, tails and the per-layer breakdown.

Throughput is always one invocation's own job count over that same
invocation's wall time; a run reports the median of those ratios.
"""

from __future__ import annotations

import math
import statistics

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Per-matrix-class timings reported by the traced run (program policy
#: names, lower-case); classes a workload does not run read 0.
SIM_CLASSES = tuple(
    [(p, b) for p in ("fcfs", "wfp", "f1") for b in ("none", "easy", "conservative", "hybrid")]
    + [("spt", "none"), ("spt", "easy")]
)

#: Layers whose self time is summed; the rest of the wall is orchestration.
LAYERS = (
    ("workloads.swf", "workloads.parse_s"),
    ("eval.windows", "eval.windows.s"),
    ("sim", "sim.self_s"),
    ("core.trials", "trials.s"),
    ("core.distribution", "distribution.s"),
    ("core.regression", "regression.s"),
    ("runtime", "runtime.dispatch_s"),
    ("eval.report", "eval.report.s"),
)


def jobs_per_second(jobs: int, seconds: float) -> float:
    """Jobs one invocation simulated over that invocation's wall time."""
    if seconds <= 0:
        raise ValueError(f"wall time must be positive, got {seconds}")
    return jobs / seconds


def median_rate(jobs: list[int], seconds: list[float]) -> float:
    """Median over invocations of each invocation's own jobs/s."""
    if len(jobs) != len(seconds) or not jobs:
        raise ValueError("need one job count per timed invocation")
    return statistics.median(jobs_per_second(j, s) for j, s in zip(jobs, seconds))


def balanced_trials(trials_per_tuple: int, q_size: int) -> int:
    """Trials ``run_trials`` actually runs: a whole number of |Q| blocks."""
    return max(trials_per_tuple // q_size, 1) * q_size


def train_jobs(n_tuples: int, trials_per_tuple: int, s_size: int, q_size: int) -> int:
    """Jobs ``train`` simulates: every trial schedules all of S and Q."""
    return n_tuples * balanced_trials(trials_per_tuple, q_size) * (s_size + q_size)


def matrix_jobs(doc: dict) -> int:
    """Jobs an ``evaluate`` run simulated: every cell replays its window."""
    return sum(int(cell["n_jobs"]) for cell in doc["cells"])


def tail(samples: list[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest ladder percentile with at least
    ten samples beyond it (nearest rank); ``(0, 0)`` below eleven samples."""
    xs = sorted(samples)
    n = len(xs)
    best = (0.0, 0.0)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            best = (pct, xs[rank - 1])
    return best


def _timer(registry: dict, name: str) -> float:
    return registry.get("timers", {}).get(name, {}).get("seconds", 0.0)


def _counter(registry: dict, name: str) -> float:
    return registry.get("counters", {}).get(name, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[dict], registry: dict, workers: int) -> dict[str, float]:
    """Per-layer figures of one traced invocation.

    *spans* come from the benchmark's wrappers in the parent process, in
    id order (``spans[i]["id"] == i``; the root span is the CLI call);
    *registry* is the program's merged :class:`repro.obs.MetricsRegistry`,
    which also carries what worker processes measured (``eval.cell``,
    ``runtime.chunk``, ``sim.*``).
    """
    root = next(s for s in spans if s["parent"] is None)
    wall = root["total_s"]
    # a span's self time is its total less its children's totals
    self_by: dict[str, float] = {}
    for s in spans:
        if s is root:
            continue
        self_by[s["layer"]] = self_by.get(s["layer"], 0.0) + s["total_s"]
        parent = spans[s["parent"]]
        if parent is not root:
            self_by[parent["layer"]] = self_by.get(parent["layer"], 0.0) - s["total_s"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    out = {metric: self_by.get(layer, 0.0) for layer, metric in LAYERS}
    out["orchestration.s"] = wall - sum(out.values())
    out["trace.wall_s"] = wall

    parsed = sum(s["attrs"].get("items", 0) for s in named("workloads.swf.iter_swf_jobs"))
    out["workloads.parse_jobs_per_s"] = _ratio(parsed, out["workloads.parse_s"])
    out["eval.windows.count"] = _counter(registry, "eval.windows.materialized") + _counter(
        registry, "eval.windows.streamed"
    )

    cell_s = _timer(registry, "eval.cell")
    out["sim.simulate_s"] = cell_s
    out["sim.cells"] = _counter(registry, "eval.cells.simulated")
    out["sim.jobs_per_s"] = _ratio(_counter(registry, "sim.jobs_completed"), cell_s)
    out["sim.events"] = _counter(registry, "sim.events")
    out["sim.backfill_passes"] = _counter(registry, "sim.backfill_passes")
    sims = named("sim.simulate")
    cell_ms = [s["total_s"] * 1e3 for s in sims]
    out["sim.cell_p50_ms"] = statistics.median(cell_ms) if cell_ms else 0.0
    out["sim.cell_tail_pct"], out["sim.cell_tail_ms"] = tail(cell_ms)
    for policy, backfill in SIM_CLASSES:
        out[f"sim.{policy}.{backfill}.s"] = _timer(registry, f"perfbench.sim.{policy}.{backfill}")

    out["trials.count"] = _counter(registry, "listsched.trials")
    out["trials.jobs"] = _counter(registry, "listsched.jobs")
    out["trials.jobs_per_s"] = _ratio(out["trials.jobs"], out["trials.s"])
    out["distribution.points"] = sum(
        s["attrs"].get("points", 0) for s in named("core.distribution.from_trial_results")
    )

    fits = named("core.regression.fit_function")
    fit_ms = [s["total_s"] * 1e3 for s in fits]
    out["regression.candidates"] = len(fits)
    out["regression.fit_p50_ms"] = statistics.median(fit_ms) if fit_ms else 0.0
    out["regression.fit_tail_pct"], out["regression.fit_tail_ms"] = tail(fit_ms)
    out["regression.finite_frac"] = _ratio(
        sum(1 for s in fits if s["attrs"].get("finite")), len(fits)
    )

    chunk_s = _timer(registry, "runtime.chunk")
    pool_s = _timer(registry, "runtime.pool")
    out["runtime.overhead_s"] = max(0.0, out["runtime.dispatch_s"] - chunk_s / workers)
    out["runtime.worker_utilization"] = _ratio(chunk_s, pool_s * workers)
    return out
