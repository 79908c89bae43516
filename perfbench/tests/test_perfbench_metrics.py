"""Unit tests for the benchmark's metric arithmetic.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from metrics import (  # noqa: E402
    balanced_trials,
    jobs_per_second,
    layer_metrics,
    matrix_jobs,
    median_rate,
    tail,
    train_jobs,
    LAYERS,
)


def test_jobs_per_second_is_one_invocations_count_over_its_time():
    assert jobs_per_second(1000, 2.0) == 500.0
    with pytest.raises(ValueError):
        jobs_per_second(1000, 0.0)


def test_median_rate_takes_the_median_of_per_invocation_ratios():
    # ratios 100/s and 150/s; pooling counts over the median time would
    # give 400 / 1.5 = 266.7/s, which no invocation achieved
    assert median_rate([100, 300], [1.0, 2.0]) == 125.0
    with pytest.raises(ValueError):
        median_rate([100], [1.0, 2.0])


def test_balanced_trials_rounds_down_to_whole_q_blocks():
    assert balanced_trials(16384, 32) == 16384
    assert balanced_trials(100, 32) == 96
    assert balanced_trials(10, 32) == 32


def test_train_jobs_matches_the_programs_listsched_counter():
    from repro.core.pipeline import PipelineConfig, build_distribution
    from repro.obs import MetricsRegistry, use_registry

    # 44 trials round down to 40, five whole blocks of |Q| = 8
    config = PipelineConfig(n_tuples=2, trials_per_tuple=44, s_size=4, q_size=8)
    registry = MetricsRegistry()
    with use_registry(registry), pytest.warns(UserWarning, match="trial"):
        build_distribution(config)
    assert registry.value("listsched.jobs") == train_jobs(2, 44, 4, 8) == 2 * 40 * 12


def test_matrix_jobs_sums_every_cells_window():
    doc = {"cells": [{"n_jobs": 2000}, {"n_jobs": 2000}, {"n_jobs": 2826}]}
    assert matrix_jobs(doc) == 6826


@pytest.mark.parametrize(
    "n, pct",
    [(10, 0.0), (19, 0.0), (20, 50.0), (48, 75.0), (100, 90.0), (576, 95.0), (1000, 99.0)],
)
def test_tail_keeps_ten_samples_beyond_the_reported_percentile(n, pct):
    got_pct, value = tail([float(i) for i in range(n)])
    assert got_pct == pct
    if pct:
        assert n - (value + 1) >= 10


def _span(id_, parent, name, layer, total, **attrs):
    return {"id": id_, "parent": parent, "name": name, "layer": layer, "total_s": total, "attrs": attrs}


def test_layer_self_times_and_orchestration_account_for_the_wall():
    spans = [
        _span(0, None, "repro.cli.main", "orchestration", 10.0),
        _span(1, 0, "runtime.TrialRunner.map", "runtime", 7.0),
        _span(2, 1, "sim.simulate", "sim", 6.5, policy="fcfs", backfill="easy"),
        _span(3, 0, "eval.report.write_matrix_report", "eval.report", 2.0),
    ]
    registry = {"timers": {"perfbench.sim.fcfs.easy": {"seconds": 6.5}}, "counters": {}}
    out = layer_metrics(spans, registry, workers=1)
    assert out["sim.self_s"] == 6.5
    assert out["runtime.dispatch_s"] == 0.5
    assert out["eval.report.s"] == 2.0
    assert out["sim.fcfs.easy.s"] == 6.5
    assert out["sim.cell_p50_ms"] == 6500.0
    total = sum(out[m] for _, m in LAYERS) + out["orchestration.s"]
    assert total == pytest.approx(out["trace.wall_s"]) == pytest.approx(10.0)
    assert out["orchestration.s"] == pytest.approx(1.0)


def test_worker_compute_comes_from_the_merged_registry():
    spans = [
        _span(0, None, "repro.cli.main", "orchestration", 4.0),
        _span(1, 0, "runtime.TrialRunner.map", "runtime", 3.0),
    ]
    registry = {
        "timers": {
            "eval.cell": {"seconds": 5.0},
            "runtime.chunk": {"seconds": 5.2},
            "runtime.pool": {"seconds": 2.9},
        },
        "counters": {"eval.cells.simulated": 6, "sim.jobs_completed": 30000},
    }
    out = layer_metrics(spans, registry, workers=2)
    assert out["sim.simulate_s"] == 5.0
    assert out["sim.jobs_per_s"] == 6000.0
    assert out["runtime.overhead_s"] == pytest.approx(3.0 - 5.2 / 2)
    assert out["runtime.worker_utilization"] == pytest.approx(5.2 / (2.9 * 2))


def test_benchmark_json_metrics_are_all_computed():
    import run

    assert set(run.metric_units("end_to_end")) == {"wall_s", "jobs_per_s", "setup_s", "peak_rss_mib"}
    spans = [_span(0, None, "repro.cli.main", "orchestration", 1.0)]
    computed = layer_metrics(spans, {}, workers=1)
    assert set(run.metric_units("per_layer")) - set(computed) == {"trace.overhead_s"}


def test_traced_spans_nest_through_generators_and_sum_to_the_wall():
    import time

    import spans as sp

    tracer = sp.Tracer()
    simulate = sp._wrap_call(tracer, "sim.simulate", "sim", lambda: time.sleep(0.002))

    def windows(n):
        for i in range(n):
            simulate()  # runs inside the generator's next: a child span
            yield i

    stream = sp._wrap_generator(tracer, "eval.windows.stream_windows", "eval.windows", windows)
    root = tracer.new_span("repro.cli.main", sp.ROOT_LAYER)
    tracer.enter(root)
    assert list(stream(3)) == [0, 1, 2]
    simulate()
    tracer.exit()

    records = [s.to_dict() for s in tracer.spans]
    gen = next(r for r in records if r["layer"] == "eval.windows")
    assert gen["calls"] == 4 and gen["attrs"]["items"] == 3  # 3 items + StopIteration
    assert [r["parent"] for r in records if r["layer"] == "sim"] == [gen["id"]] * 3 + [root.id]
    out = layer_metrics(records, {}, workers=1)
    assert out["eval.windows.s"] >= 0.0 and out["orchestration.s"] >= 0.0
    assert out["sim.self_s"] == pytest.approx(sum(r["total_s"] for r in records if r["layer"] == "sim"))
    total = sum(out[m] for _, m in LAYERS) + out["orchestration.s"]
    assert total == pytest.approx(out["trace.wall_s"])
