"""In-memory span tracer wrapped around the program's layer entry points.

The benchmark records spans from its own files: :func:`instrument`
replaces public functions of each layer with timing wrappers, in every
``repro`` module that holds a reference to them, before the CLI runs.
Nothing inside ``src/`` is changed.  A span knows its parent and its
total time; a layer's *self* time (total minus its children's totals) is
derived from the parent links in :func:`metrics.layer_metrics`.  Spans
are kept in memory and written out once at the end
(:meth:`Tracer.write_jsonl`).

The program's own :class:`repro.obs.tracing.Tracer` cannot serve here:
its ``span()`` makes a fresh node per ``with`` block, and the SWF job
stream is a per-job generator (312,826 ``next`` calls on
``replay_stream``), so timing it would build one node per job.  A span
here may be entered many times instead, and a generator gets one span
charged for the time spent inside each of its ``next`` calls.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from pathlib import Path

ROOT_LAYER = "orchestration"


class Span:
    __slots__ = ("id", "parent", "name", "layer", "attrs", "total", "calls")

    def __init__(self, id_: int, parent: int | None, name: str, layer: str, attrs: dict) -> None:
        self.id = id_
        self.parent = parent
        self.name = name
        self.layer = layer
        self.attrs = attrs
        self.total = 0.0
        self.calls = 0

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "layer": self.layer,
            "calls": self.calls,
            "total_s": self.total,
            "attrs": self.attrs,
        }


class Tracer:
    """A stack of open frames over a flat list of spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[tuple[Span, float]] = []  # (span, start) per open frame

    def new_span(self, name: str, layer: str, attrs: dict | None = None) -> Span:
        parent = self._stack[-1][0].id if self._stack else None
        span = Span(len(self.spans), parent, name, layer, attrs or {})
        self.spans.append(span)
        return span

    def enter(self, span: Span) -> None:
        self._stack.append((span, time.perf_counter()))

    def exit(self) -> None:
        span, start = self._stack.pop()
        span.total += time.perf_counter() - start
        span.calls += 1

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")


def _wrap_call(tracer: Tracer, name: str, layer: str, fn, attrs_of=None, result_attrs=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.new_span(name, layer, attrs_of(args, kwargs) if attrs_of else None)
        tracer.enter(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if result_attrs is not None:
            span.attrs.update(result_attrs(result))
        return result

    return wrapper


def _wrap_generator(tracer: Tracer, name: str, layer: str, fn):
    """One span per generator; each ``next`` is a frame of that span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        # the body runs at the first ``next``: the span's parent is the
        # span active when the consumer starts pulling
        inner = fn(*args, **kwargs)
        span = tracer.new_span(name, layer, {"items": 0})
        while True:
            tracer.enter(span)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.exit()
            span.attrs["items"] += 1
            yield item

    return wrapper


def _replace_everywhere(original, replacement) -> None:
    """Point every ``repro`` module global bound to *original* at *replacement*."""
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "repro" or mod_name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _simulate_attrs(args, kwargs) -> dict:
    from repro.sim.engine import normalize_backfill

    policy = args[1] if len(args) > 1 else kwargs["policy"]
    return {
        "policy": str(getattr(policy, "name", policy)).lower(),
        "backfill": normalize_backfill(kwargs.get("backfill", False)) or "none",
    }


def _wrap_simulate(tracer: Tracer, fn):
    """``engine.simulate`` as a span, and its time per (policy, backfill)
    class as a ``perfbench.sim.<policy>.<backfill>`` timer in the ambient
    registry.  Pool workers forked from the traced process inherit this
    wrapper, and the program merges their registries back, so the class
    times also cover cells that ran in workers."""
    from repro.obs import current_registry

    traced = _wrap_call(tracer, "sim.simulate", "sim", fn, _simulate_attrs)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return traced(*args, **kwargs)
        finally:
            attrs = _simulate_attrs(args, kwargs)
            current_registry().add_time(
                f"perfbench.sim.{attrs['policy']}.{attrs['backfill']}",
                time.perf_counter() - start,
            )

    return wrapper


def instrument(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (call after importing ``repro.cli``).

    The (function, layer) table is the benchmark's layer map; see
    ``perfbench/README.md``.
    """
    from repro.core import distribution, regression, trials
    from repro.eval import report, windows
    from repro.runtime.executor import TrialRunner
    from repro.sim import engine
    from repro.workloads import swf

    calls = [
        (swf.read_swf, "workloads.swf.read_swf", "workloads.swf", None, None),
        (windows.slice_windows, "eval.windows.slice_windows", "eval.windows", None, None),
        (trials.run_trials, "core.trials.run_trials", "core.trials", None, None),
        (regression.fit_all, "core.regression.fit_all", "core.regression", None, None),
        (
            regression.fit_function,
            "core.regression.fit_function",
            "core.regression",
            None,
            lambda fitted: {"finite": math.isfinite(fitted.rank_error)},
        ),
        (report.render_matrix_report, "eval.report.render_matrix_report", "eval.report", None, None),
        (report.render_paper_comparison, "eval.report.render_paper_comparison", "eval.report", None, None),
        (report.write_matrix_report, "eval.report.write_matrix_report", "eval.report", None, None),
    ]
    for fn, name, layer, attrs_of, result_attrs in calls:
        _replace_everywhere(fn, _wrap_call(tracer, name, layer, fn, attrs_of, result_attrs))

    _replace_everywhere(engine.simulate, _wrap_simulate(tracer, engine.simulate))

    generators = [
        (swf.iter_swf_jobs, "workloads.swf.iter_swf_jobs", "workloads.swf"),
        (windows.stream_windows, "eval.windows.stream_windows", "eval.windows"),
    ]
    for fn, name, layer in generators:
        _replace_everywhere(fn, _wrap_generator(tracer, name, layer, fn))

    from_results = distribution.ScoreDistribution.from_trial_results.__func__
    distribution.ScoreDistribution.from_trial_results = classmethod(
        _wrap_call(
            tracer,
            "core.distribution.from_trial_results",
            "core.distribution",
            from_results,
            result_attrs=lambda dist: {"points": len(dist)},
        )
    )
    for method in ("run_tuple_trials", "map"):
        fn = getattr(TrialRunner, method)
        setattr(TrialRunner, method, _wrap_call(tracer, f"runtime.TrialRunner.{method}", "runtime", fn))
