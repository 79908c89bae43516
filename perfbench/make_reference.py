"""Regenerate ``perfbench/reference.json`` from the program as it is now.

    python3 perfbench/make_reference.py [--workload NAME ...]

Run it only when a change is *meant* to alter results, and say why in
CHANGES.md.  For each ``evaluate`` workload it replays the identity layout
of the block pool once, so window ``b`` is block ``b``, and stores every
cell's job count, AVEbsld, utilization and makespan.  For ``train`` it
stores the best rank error of each seed in ``inputs.TRAIN_SEEDS`` and the
size of the function space.  Workloads not named keep their entries.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

from checks import block_reference, train_fitness
from inputs import TRAIN_SEEDS, write_pool_trace
from run import REFERENCE, SRC, WORK, WORKLOADS, Runner, child_env


def _run(runner: Runner, argv: list[str]):
    outcome = runner.spawn("run", argv)
    if outcome.doc is None or outcome.doc.get("exit_code") != 0:
        raise SystemExit(f"reference run failed:\n{outcome.stderr}")
    return outcome


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    from repro.core.functions import enumerate_function_space

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    reference["format"] = 1
    run_dir = WORK / "reference"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(run_dir, child_env(WORK), deadline=float("inf"))
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        start = time.monotonic()
        entry = {"flags": list(workload.flags)}
        if workload.pool is None:
            entry["candidates"] = len(enumerate_function_space())
            entry["best_fitness"] = {}
            for seed in TRAIN_SEEDS:
                outcome = _run(runner, [*workload.flags, "--seed", str(seed)])
                entry["best_fitness"][str(seed)] = train_fitness(outcome.stdout)
        else:
            trace = run_dir / f"{name}.swf"
            write_pool_trace(workload.pool, None, trace)
            out = run_dir / f"{name}-report"
            _run(runner, [*workload.flags, "--trace", str(trace), "--output-dir", str(out)])
            doc = json.loads((out / "eval_matrix.json").read_text())
            per_window = block_reference(doc)
            entry["pool"] = workload.pool.to_dict()
            entry["blocks"] = [per_window[w] for w in sorted(per_window)]
        reference[name] = entry
        print(f"{name}: reference made in {time.monotonic() - start:.1f} s")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
