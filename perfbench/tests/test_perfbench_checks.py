"""The benchmark's output checks accept the reference and refuse corruption.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from checks import DYNAMIC_REL_TOL, check_matrix, check_train  # noqa: E402
from inputs import Pool, write_pool_trace  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())


def _doc_for(blocks, order):
    """The eval_matrix.json a correct run of *order* would write."""
    cells = []
    for window, b in enumerate(order):
        for key, fields in blocks[b].items():
            policy, backfill = key.split("/")
            cells.append({"window": window, "policy": policy, "backfill": backfill, **fields})
    return {"cells": cells}


@pytest.mark.parametrize("workload", ["evaluate_backfill", "replay_stream"])
def test_committed_reference_passes_in_any_block_order(workload):
    blocks = REFERENCE[workload]["blocks"]
    pool = Pool(**REFERENCE[workload]["pool"])
    order = pool.order(7)
    assert check_matrix(_doc_for(blocks, order), blocks, order, {"WFP"}) == []


def test_corrupted_static_cell_fails_by_one_ulp():
    blocks = REFERENCE["evaluate_backfill"]["blocks"]
    order = [0, 1, 2, 3]
    doc = _doc_for(blocks, order)
    corrupted = copy.deepcopy(blocks)
    ref = corrupted[2]["FCFS/conservative"]
    ref["ave_bsld"] = math.nextafter(ref["ave_bsld"], math.inf)
    errors = check_matrix(doc, corrupted, order, {"WFP"})
    assert len(errors) == 1 and "FCFS/conservative ave_bsld" in errors[0]


def test_dynamic_cells_get_the_stated_tolerance_and_no_more():
    blocks = REFERENCE["evaluate_backfill"]["blocks"]
    order = [3, 2, 1, 0]
    doc = _doc_for(blocks, order)
    cell = next(c for c in doc["cells"] if c["policy"] == "WFP")
    cell["makespan"] *= 1 + DYNAMIC_REL_TOL / 2
    assert check_matrix(doc, blocks, order, {"WFP"}) == []
    cell["makespan"] *= 1 + 2 * DYNAMIC_REL_TOL
    assert len(check_matrix(doc, blocks, order, {"WFP"})) == 1


def test_missing_or_misplaced_cells_fail():
    blocks = REFERENCE["evaluate_backfill"]["blocks"]
    order = [0, 1, 2, 3]
    doc = _doc_for(blocks, order)
    short = {"cells": doc["cells"][:-1]}
    assert check_matrix(short, blocks, order, {"WFP"})
    # the same cells attributed to another layout no longer match
    assert check_matrix(doc, blocks, [1, 0, 2, 3], {"WFP"})


def test_train_check():
    stdout = "rank 1: (0.1 x id(runtime)) + (0.2 x id(#cores)) + (0.3 x log(submit)), fitness=0.0011936\n"
    stderr = "  [regression] 570/576\n  [regression] 576/576\n"
    assert check_train(stdout, stderr, 0.0011936, 576) == []
    assert check_train(stdout, stderr, 0.0011935, 576)  # worse than the reference
    assert check_train(stdout, "  [regression] 570/576\n", 0.0011936, 576)
    assert check_train("", stderr, 0.0011936, 576)


def test_block_offsets_are_exact_so_windows_replay_bit_identically(tmp_path):
    from repro.eval.windows import slice_windows
    from repro.workloads.swf import read_swf

    pool = Pool("sdsc_blue", block_jobs=60, n_blocks=3, tail_jobs=25)
    windows = {}
    for seed in (None, 4):
        path = tmp_path / f"{seed}.swf"
        order = write_pool_trace(pool, seed, path)
        assert order[-1] == 3 and sorted(order) == [0, 1, 2, 3]
        sliced = slice_windows(read_swf(path), jobs=60)
        windows[seed] = {b: w.workload for b, w in zip(order, sliced)}
    for b in range(4):
        a, c = windows[None][b], windows[4][b]
        for field in ("submit", "runtime", "size", "estimate"):
            assert getattr(a, field).tobytes() == getattr(c, field).tobytes()
