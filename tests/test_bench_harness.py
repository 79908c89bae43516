"""The benchmark harness's derived throughput (``benchmarks/conftest.py``).

``jobs_per_sec`` divides by the median time of one *invocation* of the
benched function, so its numerator must be the jobs of one invocation:
a batched bench runs many trials per invocation, and dividing jobs per
*trial* by the invocation time under-reports by the batch size.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry

_CONFTEST = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"


@pytest.fixture(scope="module")
def jobs_per_sec():
    spec = importlib.util.spec_from_file_location("bench_conftest", _CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._jobs_per_sec


def _registry(counters: dict[str, int] | None = None) -> MetricsRegistry:
    registry = MetricsRegistry()
    for name, value in (counters or {}).items():
        registry.inc(name, value)
    return registry


def test_batched_bench_counts_jobs_per_invocation(jobs_per_sec):
    # 665 invocations of a 1024-trial x 48-job batch (2 warm-up calls
    # the timing statistics never saw), 1.4 ms median per invocation
    registry = _registry(
        {"listsched.trials": 665 * 1024, "listsched.jobs": 665 * 1024 * 48}
    )
    stats = {"median": 0.0014, "rounds": 663}
    assert jobs_per_sec(registry, stats, 1024 * 48) == pytest.approx(
        1024 * 48 / 0.0014
    )


def test_multi_round_engine_bench_uses_jobs_per_run(jobs_per_sec):
    registry = _registry({"sim.runs": 12, "sim.jobs_completed": 12 * 2000})
    stats = {"median": 0.01, "rounds": 10}
    assert jobs_per_sec(registry, stats) == pytest.approx(2000 / 0.01)
    assert jobs_per_sec(registry, stats, 2000) == pytest.approx(2000 / 0.01)


def test_single_shot_bench_uses_counter_totals(jobs_per_sec):
    registry = _registry({"sim.runs": 48, "sim.jobs_completed": 96_000})
    assert jobs_per_sec(registry, {"median": 2.0, "rounds": 1}) == 48_000.0


def test_missing_timing_or_jobs_gives_none(jobs_per_sec):
    assert jobs_per_sec(_registry({"sim.runs": 1}), None) is None
    assert jobs_per_sec(_registry(), {"median": 1.0, "rounds": 3}) is None
    assert jobs_per_sec(_registry(), {"median": 0.0, "rounds": 3}, 10) is None
