"""Output checks against the committed reference (``reference.json``).

``evaluate`` cells are compared window by window with the reference of
the pool block the seed placed there.  Static-policy cells must match
bit for bit.  Dynamic-policy cells (the policy rescored at every event,
e.g. WFP3) may differ by :data:`DYNAMIC_REL_TOL`: a change that alters
their score arithmetic only in the last bits, such as computing WFP3's
cube as ``x*x*x``, stays measurable instead of failing every run.

``train`` must attempt the whole function space, and its best rank
error (Eq. 5, as printed) must be no worse than the reference's.  The
top-ranked spec names are not checked, so a change that canonicalises
equivalent specs does not fail the benchmark.
"""

from __future__ import annotations

import math
import re

#: Relative tolerance on ave_bsld / utilization / makespan of dynamic cells.
DYNAMIC_REL_TOL = 1e-3

CELL_FIELDS = ("n_jobs", "ave_bsld", "utilization", "makespan")

_RANK1 = re.compile(r"^rank 1: .*fitness=(\S+)$", re.MULTILINE)
_REGRESSION_DONE = re.compile(r"\[regression\] (\d+)/(\d+)")


def cell_key(cell: dict) -> str:
    return f"{cell['policy']}/{cell['backfill']}"


def block_reference(doc: dict) -> dict[int, dict[str, dict]]:
    """Per-window cell fields of an ``eval_matrix.json`` document."""
    out: dict[int, dict[str, dict]] = {}
    for cell in doc["cells"]:
        out.setdefault(cell["window"], {})[cell_key(cell)] = {
            f: cell[f] for f in CELL_FIELDS
        }
    return out


def _close(a: float, b: float, rel: float) -> bool:
    return a == b or math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def check_matrix(
    doc: dict,
    blocks: list[dict[str, dict]],
    order: list[int],
    dynamic: set[str],
) -> list[str]:
    """Errors of one ``evaluate`` run; window ``w`` replays ``blocks[order[w]]``."""
    cells = doc.get("cells", [])
    expected = {(w, key) for w, b in enumerate(order) for key in blocks[b]}
    seen = [(c["window"], cell_key(c)) for c in cells]
    errors = []
    if len(cells) != len(expected) or set(seen) != expected:
        errors.append(f"cell set: got {len(cells)} cells, expected {len(expected)}")
        return errors
    for cell in cells:
        key = cell_key(cell)
        ref = blocks[order[cell["window"]]][key]
        rel = DYNAMIC_REL_TOL if cell["policy"] in dynamic else 0.0
        for field in CELL_FIELDS:
            if not _close(cell[field], ref[field], rel):
                errors.append(
                    f"window {cell['window']} {key} {field}: {cell[field]!r}"
                    f" != reference {ref[field]!r}"
                )
    return errors


def train_fitness(stdout: str) -> float | None:
    match = _RANK1.search(stdout)
    return float(match.group(1)) if match else None


def check_train(stdout: str, stderr: str, best_fitness: float, candidates: int) -> list[str]:
    """Errors of one ``train`` run."""
    errors = []
    done = [(int(a), int(b)) for a, b in _REGRESSION_DONE.findall(stderr)]
    if (candidates, candidates) not in done:
        errors.append(f"regression did not attempt all {candidates} candidates")
    fitness = train_fitness(stdout)
    if fitness is None:
        errors.append("no 'rank 1' line in the train report")
    elif not fitness <= best_fitness:
        errors.append(f"best rank error {fitness} worse than reference {best_fitness}")
    return errors
