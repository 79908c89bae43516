"""Shared machinery for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at the
current :class:`~repro.experiments.scale.Scale` (``REPRO_SCALE`` env var,
default ``small``).  Timing comes from pytest-benchmark; the
*reproduction output* — measured-vs-paper tables, figure series — is
written to ``results/<bench>.txt`` and echoed into the benchmark's
``extra_info`` so it survives in ``--benchmark-json`` exports.

Every bench additionally emits a machine-readable
``results/BENCH_<name>.json`` (:data:`BENCH_SCHEMA`): timing statistics
(median/stddev/rounds), machine info, the telemetry counters the run
recorded (jobs/events simulated, cache traffic, worker-pool overhead)
and a derived jobs/sec — the file CI's perf-smoke job uploads and
``scripts/check_bench_regression.py`` compares against the committed
baselines in ``benchmarks/baselines/``.  An ambient
:class:`~repro.obs.MetricsRegistry` is installed around every bench, so
the same event/shard/cell-granularity instrumentation that feeds
``--telemetry`` manifests feeds the bench JSON with no per-bench code.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.scale import Scale, current_scale
from repro.obs import MetricsRegistry, machine_info, use_registry

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: One shared seed across the harness — rows of the same table reuse
#: workload streams exactly as in the paper's experiment design.
BENCH_SEED = 0

#: Bump when the BENCH_<name>.json layout changes incompatibly.
BENCH_SCHEMA = 1


@pytest.fixture(scope="session", autouse=True)
def _quiet_numpy():
    """Candidate nonlinear functions legitimately over/underflow."""
    old = np.seterr(all="ignore")
    yield
    np.seterr(**old)


@pytest.fixture(scope="session")
def scale() -> Scale:
    """The active scale preset."""
    return current_scale()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def _timing_stats(bench) -> dict | None:
    """pytest-benchmark statistics as a plain dict (None before any run)."""
    meta = getattr(bench, "stats", None)
    if meta is None:
        return None
    stats = getattr(meta, "stats", meta)
    out: dict = {}
    for key in ("min", "max", "mean", "median", "stddev", "rounds"):
        value = getattr(stats, key, None)
        if value is not None:
            out[key] = int(value) if key == "rounds" else float(value)
    return out or None


def _jobs_per_sec(
    registry: MetricsRegistry,
    stats: dict | None,
    jobs_per_invocation: int | None = None,
) -> float | None:
    """Derived throughput: jobs simulated per second of median wall time.

    The median is the time of one *invocation* of the benched function,
    so the numerator must be the jobs of one invocation too.  A bench
    that declares ``extra_info["jobs"]`` states that figure directly;
    batched benches must, since one invocation runs many trials.
    Otherwise single-shot benches (rounds == 1) ran exactly once, so the
    counters *are* the invocation's totals, and multi-round
    micro-benches (whose counters also saw warm-up/calibration
    invocations the timing statistics did not) recover it as the
    jobs-per-engine-run (or per-trial) ratio — exact when every
    invocation is one engine run or one trial.
    """
    median = (stats or {}).get("median") or 0.0
    if median <= 0:
        return None
    if jobs_per_invocation:
        return jobs_per_invocation / median
    jobs = registry.value("sim.jobs_completed") + registry.value("listsched.jobs")
    if not jobs:
        return None
    if (stats or {}).get("rounds", 1) == 1:
        return jobs / median
    invocations = registry.value("sim.runs") + registry.value("listsched.trials")
    if not invocations:
        return None
    return (jobs / invocations) / median


@pytest.fixture(autouse=True)
def bench_telemetry(results_dir, scale, request):
    """Ambient metrics around every bench + BENCH_<name>.json emission.

    The registry collects whatever the instrumented layers record during
    the bench (including worker-process metrics merged back by the
    runtime); after the test the JSON summary lands in ``results/``.
    Benches that never touched the ``benchmark`` fixture emit nothing.
    """
    registry = MetricsRegistry()
    with use_registry(registry):
        yield registry
    funcargs = getattr(request.node, "funcargs", None) or {}
    bench = funcargs.get("benchmark")
    if bench is None:
        return
    stats = _timing_stats(bench)
    name = request.node.name.removeprefix("bench_")
    extra_info = dict(getattr(bench, "extra_info", {}) or {})
    doc = {
        "schema": BENCH_SCHEMA,
        "name": request.node.name,
        "scale": scale.name,
        "machine": machine_info(),
        "stats": stats,
        "jobs_per_sec": _jobs_per_sec(registry, stats, extra_info.get("jobs")),
        "extra_info": extra_info,
        "telemetry": registry.to_dict(),
    }
    path = results_dir / f"BENCH_{name}.json"
    path.write_text(
        json.dumps(doc, indent=2, sort_keys=True, default=repr) + "\n",
        encoding="utf-8",
    )


@pytest.fixture
def record(results_dir, scale, request):
    """Callable writing a bench's reproduction output to results/."""

    def _record(text: str, extra: dict | None = None) -> str:
        name = request.node.name
        header = f"# {name} @ scale={scale.name}\n"
        path = results_dir / f"{name}.txt"
        path.write_text(header + text + "\n", encoding="utf-8")
        if extra and hasattr(request.node, "funcargs"):
            bench = request.node.funcargs.get("benchmark")
            if bench is not None:
                bench.extra_info.update(extra)
        return str(path)

    return _record


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are deterministic and heavy; statistical repetition
    belongs to the simulator micro-benchmarks, not to table regeneration.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
