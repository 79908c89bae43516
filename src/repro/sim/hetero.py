"""Heterogeneous-platform scheduling — the paper's future-work prototype.

The conclusion of the paper sketches a second research direction:
platforms "containing processing units with distinct architectures such
as GPUs and MICs, where multiple implementations, aiming a specific
architecture, are available for the same task and the scheduler needs to
select one of these implementations to be executed".

This module is a working prototype of that setting, written in the same
idioms as the homogeneous kernel (:mod:`repro.sim.kernel`): a ``heapq``
of ``(finish, job)`` completions and one batch ``policy.scores`` call
per scheduling pass.

* a :class:`HeteroPlatform` holds one
  :class:`~repro.sim.cluster.Cluster` core pool per architecture,
* a :class:`HeteroJob` carries one :class:`Variant` (runtime + resource
  requirement) per architecture it has an implementation for,
* :func:`hetero_simulate` runs the paper's online algorithm where the
  queue is ordered by an ordinary :class:`~repro.policies.base.Policy`
  (scored on each job's *reference* variant) and the dispatcher picks,
  for the queue head, the **earliest-finishing variant that fits now**
  (minimum of ``now + runtime_variant`` over architectures with free
  capacity).

The prototype keeps head-blocking semantics: if no variant of the head
fits, nothing overtakes it (no backfilling), which makes its behaviour
directly comparable with the homogeneous engine's no-backfill mode —
tests assert exact equivalence on single-architecture platforms.

It keeps its own event loop rather than a hook in the kernel: choosing
a variant changes both the pool and the runtime of every start, so a
shared loop would branch on its caller at every step, and the C kernel
would need a second resource model.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.sim.cluster import Cluster
from repro.sim.metrics import DEFAULT_TAU, average_bounded_slowdown, bounded_slowdown

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.policies.base import Policy
    from repro.sim.job import Workload

__all__ = [
    "ArchSpec",
    "HeteroJob",
    "HeteroPlatform",
    "HeteroResult",
    "Variant",
    "hetero_simulate",
    "parse_arch_specs",
    "workload_to_hetero_jobs",
]


@dataclass(frozen=True, slots=True)
class ArchSpec:
    """One architecture pool as spelled on the CLI: ``name:cores[:speedup]``.

    *speedup* scales the reference runtime (``runtime / speedup`` on this
    architecture); the first spec in a list is the reference architecture
    (speedup 1.0 by convention — what the submitting user estimated).
    """

    name: str
    cores: int
    speedup: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("architecture name must be non-empty")
        if self.cores < 1:
            raise ValueError(f"arch {self.name!r}: cores must be >= 1")
        if not (math.isfinite(self.speedup) and self.speedup > 0):
            raise ValueError(
                f"arch {self.name!r}: speedup must be finite and > 0,"
                f" got {self.speedup}"
            )


def parse_arch_specs(values: tuple[str, ...] | list[str]) -> list[ArchSpec]:
    """Parse ``name:cores[:speedup]`` spellings (e.g. ``cpu:256,gpu:64:8``).

    The first entry is the reference architecture.  Raises
    :class:`ValueError` on malformed entries or duplicate names.
    """
    if not values:
        raise ValueError("need at least one architecture spec")
    specs: list[ArchSpec] = []
    seen: set[str] = set()
    for text in values:
        parts = str(text).split(":")
        if len(parts) not in (2, 3):
            raise ValueError(
                f"bad architecture spec {text!r}; expected name:cores[:speedup]"
            )
        name = parts[0].strip()
        try:
            cores = int(parts[1])
            speedup = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise ValueError(
                f"bad architecture spec {text!r}; expected name:cores[:speedup]"
            ) from None
        if name in seen:
            raise ValueError(f"duplicate architecture name {name!r}")
        seen.add(name)
        specs.append(ArchSpec(name, cores, speedup))
    return specs


@dataclass(frozen=True, slots=True)
class Variant:
    """One implementation of a job for one architecture."""

    runtime: float
    size: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.runtime) and self.runtime > 0):
            raise ValueError(
                f"variant runtime must be finite and > 0, got {self.runtime}"
            )
        if self.size < 1:
            raise ValueError("variant size must be >= 1")


@dataclass(frozen=True)
class HeteroJob:
    """A rigid job with per-architecture implementations.

    ``variants`` maps architecture name (e.g. ``"cpu"``, ``"gpu"``) to a
    :class:`Variant`.  ``reference`` names the variant whose (runtime,
    size) feed the queue-ordering policy — by convention the portable
    CPU implementation, which is what a submitting user estimates.
    """

    job_id: int
    submit: float
    variants: dict[str, Variant]
    reference: str = "cpu"

    def __post_init__(self) -> None:
        if not self.variants:
            raise ValueError(f"job {self.job_id}: needs at least one variant")
        if self.reference not in self.variants:
            raise ValueError(
                f"job {self.job_id}: reference {self.reference!r} has no variant"
            )
        if self.submit < 0:
            raise ValueError(f"job {self.job_id}: submit must be >= 0")

    @property
    def ref(self) -> Variant:
        """The reference variant (policy-visible attributes)."""
        return self.variants[self.reference]


class HeteroPlatform:
    """A set of named homogeneous pools (one per architecture).

    Each pool is a :class:`~repro.sim.cluster.Cluster`, so allocation
    enforces the same conservation invariant as the kernel's Python loop.
    """

    def __init__(self, pools: dict[str, int]) -> None:
        if not pools:
            raise ValueError("platform needs at least one pool")
        self.pools = {name: Cluster(n) for name, n in pools.items()}

    @property
    def total_cores(self) -> int:
        """Capacity summed over every pool."""
        return sum(c.nmax for c in self.pools.values())

    def validate(self, jobs: list[HeteroJob]) -> None:
        """Every job must have >= 1 variant that can ever run."""
        for job in jobs:
            runnable = [
                a
                for a, v in job.variants.items()
                if a in self.pools and v.size <= self.pools[a].nmax
            ]
            if not runnable:
                raise ValueError(
                    f"job {job.job_id}: no variant fits any pool"
                    f" (variants: {sorted(job.variants)})"
                )


@dataclass(frozen=True)
class HeteroResult:
    """Outcome of a heterogeneous simulation."""

    jobs: list[HeteroJob]
    start: np.ndarray
    chosen_arch: list[str]
    policy_name: str
    tau: float = DEFAULT_TAU
    #: per-architecture dispatch counts
    dispatch_counts: dict[str, int] = field(default_factory=dict)

    @property
    def executed_runtime(self) -> np.ndarray:
        """Runtime of the variant each job actually executed."""
        return np.array(
            [job.variants[a].runtime for job, a in zip(self.jobs, self.chosen_arch)]
        )

    @property
    def wait(self) -> np.ndarray:
        """Per-job waiting times."""
        return self.start - np.array([j.submit for j in self.jobs])

    def bsld(self) -> np.ndarray:
        """Bounded slowdown per job, on the executed variant's runtime."""
        return bounded_slowdown(self.wait, self.executed_runtime, self.tau)

    @property
    def ave_bsld(self) -> float:
        """Average bounded slowdown (Eq. 2) over all jobs."""
        return average_bounded_slowdown(self.wait, self.executed_runtime, self.tau)


def _best_variant_now(
    job: HeteroJob, platform: HeteroPlatform, now: float
) -> str | None:
    """Earliest-finishing variant that fits right now (None if none)."""
    best: tuple[float, str] | None = None
    for arch in sorted(job.variants):
        if arch not in platform.pools:
            continue
        variant = job.variants[arch]
        if platform.pools[arch].fits(variant.size):
            key = (now + variant.runtime, arch)
            if best is None or key < best:
                best = key
    return best[1] if best else None


def hetero_simulate(
    jobs: list[HeteroJob],
    policy: "Policy",
    platform: HeteroPlatform,
    *,
    tau: float = DEFAULT_TAU,
) -> HeteroResult:
    """Online scheduling over a heterogeneous platform.

    Queue order: *policy* scores each job's reference variant
    ``(submit, runtime_ref, size_ref)``; lower runs first.  Dispatch: the
    queue head takes the earliest-finishing variant that fits now; if no
    variant fits, the head blocks (no overtaking).
    """
    platform.validate(jobs)
    n = len(jobs)
    start = np.full(n, np.nan)
    chosen: list[str] = [""] * n
    dispatch: dict[str, int] = {a: 0 for a in platform.pools}
    if n == 0:
        return HeteroResult(jobs, start, chosen, policy.name, tau, dispatch)

    order = sorted(range(n), key=lambda i: (jobs[i].submit, i))
    submits = np.array([j.submit for j in jobs])
    ref_runtime = np.array([j.ref.runtime for j in jobs])
    ref_size = np.array([float(j.ref.size) for j in jobs])

    completions: list[tuple[float, int]] = []
    arch_of_running: dict[int, str] = {}
    queue: list[int] = []
    ai = 0
    started = 0
    now = jobs[order[0]].submit

    while started < n:
        na = jobs[order[ai]].submit if ai < n else math.inf
        nc = completions[0][0] if completions else math.inf
        now = max(now, min(na, nc))

        while completions and completions[0][0] <= now:
            _, idx = heapq.heappop(completions)
            platform.pools[arch_of_running.pop(idx)].release(idx)
        while ai < n and jobs[order[ai]].submit <= now:
            queue.append(order[ai])
            ai += 1
        if not queue:
            continue

        # One ranking per pass: scores are elementwise and batch-stable
        # (the policies.base contract), so ranking the queue minus the
        # jobs already started would reproduce this order's tail.
        q = np.asarray(queue)
        scores = policy.scores(now, submits[q], ref_runtime[q], ref_size[q])
        ranked = q[np.lexsort((q, submits[q], scores))].tolist()
        pos = 0
        while pos < len(ranked):
            head = ranked[pos]
            arch = _best_variant_now(jobs[head], platform, now)
            if arch is None:
                break  # head blocks
            variant = jobs[head].variants[arch]
            platform.pools[arch].allocate(head, variant.size)
            arch_of_running[head] = arch
            start[head] = now
            chosen[head] = arch
            dispatch[arch] += 1
            heapq.heappush(completions, (now + variant.runtime, head))
            pos += 1
        started += pos
        queue = ranked[pos:]

    return HeteroResult(jobs, start, chosen, policy.name, tau, dispatch)


def workload_to_hetero_jobs(
    workload: "Workload", archs: list[ArchSpec]
) -> list[HeteroJob]:
    """Lift a homogeneous :class:`~repro.sim.job.Workload` onto *archs*.

    The first spec is the reference architecture: its variant carries the
    workload's own (runtime, size).  Every other architecture gets a
    variant with ``runtime / speedup`` for jobs that fit its pool — jobs
    too large for a pool simply have no variant there (and
    :meth:`HeteroPlatform.validate` rejects jobs that fit nowhere).
    """
    if not archs:
        raise ValueError("need at least one architecture spec")
    reference = archs[0]
    jobs: list[HeteroJob] = []
    for i in range(len(workload)):
        submit = float(workload.submit[i])
        runtime = float(workload.runtime[i])
        size = int(workload.size[i])
        variants = {
            arch.name: Variant(runtime / arch.speedup, size)
            for arch in archs
            if size <= arch.cores
        }
        if reference.name not in variants:
            raise ValueError(
                f"job {i} wants {size} cores but the reference architecture"
                f" {reference.name!r} has only {reference.cores}"
            )
        jobs.append(HeteroJob(i, submit, variants, reference=reference.name))
    return jobs
