"""The repository benchmark: ``train``, ``evaluate_backfill``, ``replay_stream``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Each invocation runs the CLI verb a user would type in a fresh interpreter
(``perfbench/invoke.py``), its outputs are checked against
``perfbench/reference.json``, and the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones (tracing off); with
``--trace 1`` each untraced invocation is paired with a traced one and the
metrics are the per-layer breakdown.  ``perfbench/README.md`` documents
the workloads, the metrics and which layer should move which metric.

Inputs are generated from ``--seed`` outside every timer.  A run makes
at least :data:`MIN_INVOCATIONS` timed invocations, and more while the
median one so far still ends inside ``--seconds``; every figure is the
median over the run's invocations.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import check_matrix, check_train
from inputs import (
    EVALUATE_BACKFILL_POOL,
    REPLAY_STREAM_POOL,
    TRAIN_SEEDS,
    Pool,
    sha256_file,
    write_pool_trace,
)
from metrics import (
    LAYERS,
    layer_metrics,
    matrix_jobs,
    median_rate,
    train_jobs,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH / "reference.json"

MIN_SETUP_SAMPLES = 3
#: A tracing-off run times at least this many invocations, even past
#: ``--seconds``, so its median is never one sample (one train takes 13-34 s).
MIN_INVOCATIONS = 2
#: No invocation starts after this many seconds, and none outlives it by
#: more than CHILD_TIMEOUT_S, so a run ends inside three minutes.
LAST_START_S = 90.0
CHILD_TIMEOUT_S = 75.0


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit of one ``BENCHMARK.json`` section, in its order."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


@dataclass(frozen=True)
class Workload:
    name: str
    flags: tuple[str, ...]  # CLI argv, less the seeded input and output flags
    pool: Pool | None = None  # the evaluate workloads' block pool

    def flag(self, name: str) -> str:
        return self.flags[self.flags.index(name) + 1]


WORKLOADS = {
    "train": Workload(
        "train",
        (
            "train", "--tuples", "32", "--trials", "16384", "--scale", "small",
            "--workers", "1",
        ),
    ),
    "evaluate_backfill": Workload(
        "evaluate_backfill",
        (
            "evaluate", "--policies", "fcfs,wfp3,f1",
            "--backfill", "none,easy,conservative,hybrid",
            "--window-jobs", "2000", "--warmup", "50", "--estimates",
            "--workers", "1", "--bootstrap", "1000",
        ),
        pool=EVALUATE_BACKFILL_POOL,
    ),
    "replay_stream": Workload(
        "replay_stream",
        (
            "evaluate", "--stream", "--policies", "fcfs,spt,f1", "--backfill", "none,easy",
            "--window-jobs", "5000", "--warmup", "50", "--estimates",
            "--workers", "2", "--bootstrap", "1000",
        ),
        pool=REPLAY_STREAM_POOL,
    ),
}


def child_env(work: Path) -> dict[str, str]:
    """The environment of every child: the program from ``src/`` and no
    inherited ``REPRO_*`` settings; the C kernel builds under *work*."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CKERNEL_DIR"] = str(work / "ckernel")
    return env


@dataclass
class Outcome:
    code: int | None  # child exit status, None on timeout
    doc: dict | None  # what invoke.py measured
    stdout: str
    stderr: str
    seconds: float  # spawn to exit, as the parent saw it


class Runner:
    """Spawns ``invoke.py`` children inside one run directory."""

    def __init__(self, run_dir: Path, env: dict[str, str], deadline: float) -> None:
        self.run_dir = run_dir
        self.env = env
        self.deadline = deadline
        self.count = 0

    def spawn(self, mode: str, argv: list[str], *, spans: Path | None = None) -> Outcome:
        self.count += 1
        tag = f"{self.count:03d}-{mode}"
        out = self.run_dir / f"{tag}.json"
        cmd = [sys.executable, str(BENCH / "invoke.py"), "--mode", mode, "--out", str(out)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        cmd += ["--", *argv]
        timeout = max(1.0, min(CHILD_TIMEOUT_S, self.deadline - time.monotonic()))
        so, se = self.run_dir / f"{tag}.out", self.run_dir / f"{tag}.err"
        with open(so, "w") as fo, open(se, "w") as fe:
            env = dict(self.env, PERFBENCH_SPAWN_T=repr(time.monotonic()))
            start = time.monotonic()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=fo, stderr=fe, start_new_session=True
            )
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                code = None
            except BaseException:
                _kill(proc)
                raise
            if code is None:
                _kill(proc)
            seconds = time.monotonic() - start
        doc = json.loads(out.read_text()) if code == 0 and out.is_file() else None
        return Outcome(code, doc, so.read_text(), se.read_text(), seconds)


def _kill(proc: subprocess.Popen) -> None:
    """Kill a child's whole session (its pool workers too) and reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


class Prepared:
    """One run's seeded inputs, the argv that replays them, and the check."""

    def __init__(self, workload: Workload, seed: int, run_dir: Path, reference: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.records: list[str] = []
        ref = reference[workload.name]
        if ref["flags"] != list(workload.flags):
            raise SystemExit(
                f"perfbench: reference for {workload.name} was made with other flags;"
                " rerun perfbench/make_reference.py"
            )
        if workload.pool is None:
            self._prepare_train(ref)
        else:
            self._prepare_evaluate(ref)

    def _prepare_train(self, ref: dict) -> None:
        from repro.specs import TrainSpec

        self.train_seed = TRAIN_SEEDS[self.seed % len(TRAIN_SEEDS)]
        self.best_fitness = ref["best_fitness"][str(self.train_seed)]
        self.candidates = ref["candidates"]
        tuples, trials = int(self.workload.flag("--tuples")), int(self.workload.flag("--trials"))
        config = TrainSpec(
            scale=self.workload.flag("--scale"), n_tuples=tuples, trials_per_tuple=trials
        ).to_pipeline_config()
        self.jobs = train_jobs(tuples, trials, config.s_size, config.q_size)
        self.records.append(f"input train --seed {self.train_seed} (run seed {self.seed})")

    def _prepare_evaluate(self, ref: dict) -> None:
        from repro.policies.registry import get_policy

        pool = self.workload.pool
        if ref["pool"] != pool.to_dict():
            raise SystemExit(
                f"perfbench: reference for {self.workload.name} was made from another"
                " pool; rerun perfbench/make_reference.py"
            )
        self.trace = self.run_dir / "input.swf"
        self.report_dir = self.run_dir / "report"
        self.order = write_pool_trace(pool, self.seed, self.trace)
        self.blocks = ref["blocks"]
        policies = [get_policy(p) for p in self.workload.flag("--policies").split(",")]
        self.dynamic = {p.name for p in policies if p.dynamic}
        self.records.append(
            f"input {self.trace.relative_to(ROOT)} sha256={sha256_file(self.trace)}"
            f" seed={self.seed} blocks={','.join(map(str, self.order))}"
        )

    def argv(self) -> list[str]:
        """The CLI argv of the next invocation (clears the report directory)."""
        if self.workload.pool is None:
            return [*self.workload.flags, "--seed", str(self.train_seed)]
        shutil.rmtree(self.report_dir, ignore_errors=True)
        return [
            *self.workload.flags, "--trace", str(self.trace), "--output-dir", str(self.report_dir)
        ]

    def check(self, outcome: Outcome) -> tuple[list[str], int]:
        """``(errors, jobs simulated)`` of one finished invocation."""
        if outcome.code != 0 or outcome.doc is None or outcome.doc.get("exit_code") != 0:
            tail = outcome.stderr.strip().splitlines()[-1:] or ["(no output)"]
            return [f"exit status {outcome.code}: {tail[0]}"], 0
        if self.workload.pool is None:
            errors = check_train(outcome.stdout, outcome.stderr, self.best_fitness, self.candidates)
            return errors, self.jobs
        path = self.report_dir / "eval_matrix.json"
        if not path.is_file():
            return [f"missing {path.name}"], 0
        doc = json.loads(path.read_text())
        return check_matrix(doc, self.blocks, self.order, self.dynamic), matrix_jobs(doc)


@dataclass
class Invocation:
    outcome: Outcome
    errors: list[str]
    jobs: int

    @property
    def ran(self) -> bool:
        """The program ran to completion (its timing is usable)."""
        return self.outcome.doc is not None and self.outcome.doc.get("exit_code") == 0


def invoke(runner: Runner, prepared: Prepared, mode: str, spans: Path | None = None) -> Invocation:
    outcome = runner.spawn(mode, prepared.argv(), spans=spans)
    errors, jobs = prepared.check(outcome)
    inv = Invocation(outcome, errors, jobs)
    status = "ok" if not errors else "FAILED: " + "; ".join(errors[:3])
    wall = outcome.doc.get("wall_s", float("nan")) if outcome.doc else float("nan")
    print(f"  {mode:5s} wall_s={wall:.4f} jobs={jobs} {status}")
    return inv


def _json_metrics(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


def another(durations: list[float], start: float, seconds: float, minimum: int) -> bool:
    """Whether to start another invocation (or traced pair): fewer than
    *minimum* so far, or the median one so far still ends inside the
    *seconds* since *start*."""
    elapsed = time.monotonic() - start
    if elapsed >= LAST_START_S:
        return False
    if len(durations) < minimum:
        return True
    return elapsed + statistics.median(durations) <= seconds


def run_end_to_end(runner: Runner, prepared: Prepared, seconds: float, start: float):
    invocations: list[Invocation] = []
    setups: list[float] = []
    while another([i.outcome.seconds for i in invocations], start, seconds, MIN_INVOCATIONS):
        inv = invoke(runner, prepared, "run")
        invocations.append(inv)
        if inv.outcome.doc:
            setups.append(inv.outcome.doc["setup_s"])
        if inv.outcome.code is None:
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        outcome = runner.spawn("setup", prepared.argv())
        if outcome.doc is None:
            break
        setups.append(outcome.doc["setup_s"])

    ran = [i for i in invocations if i.ran]
    if not ran or not setups:
        return invocations, None
    walls = [i.outcome.doc["wall_s"] for i in ran]
    values = {
        "wall_s": statistics.median(walls),
        "jobs_per_s": median_rate([i.jobs for i in ran], walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(i.outcome.doc["peak_rss_mib"] for i in ran),
    }
    print(f"  samples: {len(ran)} timed invocations, {len(setups)} set-ups")
    return invocations, _json_metrics(values, metric_units("end_to_end"))


def run_traced(runner: Runner, prepared: Prepared, seconds: float, start: float):
    invocations: list[Invocation] = []
    untraced: list[float] = []
    layers: list[dict[str, float]] = []
    pairs: list[float] = []
    while another(pairs, start, seconds, 1):
        pair_start = time.monotonic()
        spans_path = runner.run_dir / f"spans-{len(layers)}.jsonl"
        if len(layers) % 2:  # alternate which side of a pair runs first
            traced = invoke(runner, prepared, "trace", spans_path)
            plain = invoke(runner, prepared, "run")
        else:
            plain = invoke(runner, prepared, "run")
            traced = invoke(runner, prepared, "trace", spans_path)
        invocations += [plain, traced]
        pairs.append(time.monotonic() - pair_start)
        if not (plain.ran and traced.ran):
            break
        untraced.append(plain.outcome.doc["wall_s"])
        spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
        layers.append(
            layer_metrics(
                spans, traced.outcome.doc["registry"], int(prepared.workload.flag("--workers"))
            )
        )
    if not layers:
        return invocations, None
    # one whole traced invocation (the lower median by wall time), so its
    # layer self times and orchestration.s still sum to its wall exactly
    values = sorted(layers, key=lambda d: d["trace.wall_s"])[(len(layers) - 1) // 2]
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(untraced)
    print_layer_report(prepared.workload.name, values, statistics.median(untraced))
    return invocations, _json_metrics(values, metric_units("per_layer"))


def print_layer_report(name: str, values: dict[str, float], untraced_wall: float) -> None:
    wall = values["trace.wall_s"]
    print(f"layer self time, {name}: traced wall_s={wall:.4f} s, untraced wall_s={untraced_wall:.4f} s")
    rows = [(metric, layer) for layer, metric in LAYERS] + [("orchestration.s", "cli/api/specs")]
    for metric, layer in rows:
        share = 100.0 * values[metric] / wall if wall else 0.0
        print(f"  {metric:24s} {values[metric]:10.4f} s {share:6.1f}%  ({layer})")
    total = sum(values[m] for m, _ in rows)
    print(f"  {'sum':24s} {total:10.4f} s  (= trace.wall_s {wall:.4f} s)")
    print(f"  {'trace.overhead_s':24s} {values['trace.overhead_s']:10.4f} s")
    print(
        f"  sim.simulate_s={values['sim.simulate_s']:.4f} s over {values['sim.cells']:.0f} cells"
        f" (p50 {values['sim.cell_p50_ms']:.2f} ms, p{values['sim.cell_tail_pct']:g}"
        f" {values['sim.cell_tail_ms']:.2f} ms); regression {values['regression.candidates']:.0f}"
        f" fits (p50 {values['regression.fit_p50_ms']:.2f} ms,"
        f" p{values['regression.fit_tail_pct']:g} {values['regression.fit_tail_ms']:.2f} ms)"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()
    # a terminated run still kills and reaps the child it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    seconds = min(args.seconds, LAST_START_S)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    run_dir = WORK / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    reference = json.loads(REFERENCE.read_text())
    prepared = Prepared(workload, args.seed, run_dir, reference)
    env = child_env(WORK)
    runner = Runner(run_dir, env, deadline=start + LAST_START_S + CHILD_TIMEOUT_S)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for record in prepared.records:
        print(record)
    # the first run in a checkout builds the C kernel here, before any timer
    os.environ["REPRO_CKERNEL_DIR"] = env["REPRO_CKERNEL_DIR"]
    from repro.sim import _cbackend

    _cbackend.load()

    measure_start = time.monotonic()
    if args.trace:
        invocations, metrics = run_traced(runner, prepared, seconds, measure_start)
    else:
        invocations, metrics = run_end_to_end(runner, prepared, seconds, measure_start)
    attempted = len(invocations)
    failed = sum(1 for i in invocations if i.errors)
    print(f"error_rate {failed}/{attempted} = {failed / max(attempted, 1):.4f}")
    if metrics is None:
        print("perfbench: no invocation completed; nothing to report", file=sys.stderr)
        return 1
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
