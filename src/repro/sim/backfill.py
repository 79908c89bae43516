"""EASY aggressive backfilling (Mu'alem & Feitelson, 2001).

The paper evaluates every policy "in conjunction with a backfilling
algorithm" (§4.2.3, §4.3.3): at each rescheduling event the queue is
ordered by the policy, then jobs further back in the queue may start
*now* provided they do not delay the queue head — the only reservation
EASY makes.

Scheduling decisions (including the shadow-time computation) use the
*requested* processing time (the user estimate ``e``) when the experiment
runs in estimate mode; actual runtimes are only used to simulate
execution, exactly as in the paper.

The implementation is a pure function over plain arrays so it can be
property-tested in isolation from the event loop (see
``tests/sim/test_backfill.py`` for the "head never delayed" invariant).

This module is the *single* Python EASY implementation: the unified
event loop's Python path (:mod:`repro.sim.kernel`) calls
:func:`easy_backfill` on every EASY pass, and the C backend transcribes
the same shadow arithmetic; the parity suite pins the two bit for bit.

Besides EASY this module also defines :func:`hybrid_starts`, the
*hybrid* backfilling variant (``backfill="hybrid"``): the first
:data:`HYBRID_RESERVATION_DEPTH` queued jobs get conservative-style
reservations, jobs further back are handled aggressively (start now or
wait unreserved).  EASY and conservative are its two limits — depth 1
approximates EASY, depth ≥ queue length *is* conservative (an identity
the oracle tests pin).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from repro.sim.conservative import AvailabilityProfile

__all__ = [
    "HYBRID_RESERVATION_DEPTH",
    "easy_backfill",
    "hybrid_starts",
    "shadow_schedule",
]

#: How many queue-front jobs hold a reservation under hybrid backfilling.
#: Between EASY's single head reservation (starvation-prone tail) and
#: conservative's everyone-reserved (little backfilling), a small fixed
#: depth protects the first few jobs while the tail stays aggressive.
HYBRID_RESERVATION_DEPTH = 4


def shadow_schedule(
    now: float,
    free: int,
    head_size: int,
    running_end: Sequence[float],
    running_size: Sequence[int],
) -> tuple[float, int]:
    """Compute the EASY reservation for the (blocked) queue head.

    Returns ``(shadow, extra)`` where *shadow* is the earliest time the
    head is guaranteed to start (based on expected completions of running
    jobs) and *extra* is the number of cores that will still be free at
    that moment after the head starts.  Backfilled jobs that outlive the
    shadow time may use at most *extra* cores.

    Raises :class:`ValueError` when the head can *never* start — i.e.
    ``head_size`` exceeds the cores the machine can ever free.  Callers
    that validate their workload against the machine size up front
    (:meth:`repro.sim.job.Workload.validate_for_machine`, which the
    engine applies on entry) never trigger this.
    """
    if head_size <= free:
        raise ValueError("head fits now; no reservation needed")
    if len(running_end) != len(running_size):
        raise ValueError("running_end and running_size must share a length")
    events = sorted(
        (max(float(e), now), int(s)) for e, s in zip(running_end, running_size)
    )
    avail = free
    for end, size in events:
        avail += size
        if avail >= head_size:
            return end, avail - head_size
    raise ValueError(
        f"queue head requests {head_size} cores but at most {avail} can ever"
        " become free; validate the workload against the machine size"
        " (Workload.validate_for_machine) before scheduling"
    )


def easy_backfill(
    now: float,
    free: int,
    head_size: int,
    candidates: Iterable[int],
    cand_size: Iterable[int],
    cand_proc: Iterable[float],
    running_end: Sequence[float],
    running_size: Sequence[int],
) -> list[int]:
    """Select queue jobs (behind the head) that may start immediately.

    Parameters
    ----------
    now:
        Current simulation time.
    free:
        Idle cores right now (insufficient for the head by construction).
    head_size:
        Cores requested by the blocked queue head.
    candidates:
        Job indices *in queue priority order*, excluding the head.
    cand_size, cand_proc:
        Cores and (requested) processing time per candidate, aligned with
        *candidates*.  Any iterables: they are consumed lazily and the
        scan stops once no core is free, so generators skip the tail.
    running_end, running_size:
        Expected completion time and size of every running job.

    Returns
    -------
    The sub-list of *candidates* to start now, in priority order.  A
    candidate is started when it fits in the currently free cores and
    either finishes by the shadow time or fits within the *extra* cores,
    so the head's reservation is never disturbed.
    """
    shadow, extra = shadow_schedule(now, free, head_size, running_end, running_size)
    started: list[int] = []
    for idx, size, proc in zip(candidates, cand_size, cand_proc):
        size = int(size)
        if size > free:
            continue
        if now + float(proc) <= shadow + 1e-9:
            # Finishes before the head's reservation: uses cores that are
            # free now and returns them in time; `extra` is untouched.
            started.append(idx)
            free -= size
        elif size <= extra:
            # Outlives the reservation: may only consume cores the head
            # will not need at shadow time.
            started.append(idx)
            free -= size
            extra -= size
        if free == 0:
            break
    assert free >= 0 and extra >= 0
    assert math.isfinite(shadow) or not started
    return started


def hybrid_starts(
    now: float,
    nmax: int,
    queue: Sequence[int],
    q_size: Sequence[int],
    q_proc: Sequence[float],
    running_end: Sequence[float],
    running_size: Sequence[int],
    *,
    depth: int = HYBRID_RESERVATION_DEPTH,
) -> list[int]:
    """Jobs (identifiers from *queue*) that start now under hybrid backfilling.

    A replan-from-scratch pass like
    :func:`~repro.sim.conservative.conservative_starts`, with one
    difference: only the first *depth* jobs in priority order reserve
    their earliest feasible slot.  Jobs beyond the depth either start
    immediately (committing their cores so later candidates cannot
    oversubscribe) or wait with **no** reservation — so a deep candidate
    may leapfrog an unreserved middle job, but never one of the *depth*
    protected reservations.

    ``depth >= len(queue)`` reproduces ``conservative_starts`` exactly
    (same profile arithmetic, epsilon for epsilon); the oracle suite
    pins that identity and the cases where the three variants diverge.
    """
    if depth < 1:
        raise ValueError(f"reservation depth must be >= 1, got {depth}")
    profile = AvailabilityProfile(now, nmax, running_end, running_size)
    started: list[int] = []
    for pos, (ident, size, proc) in enumerate(zip(queue, q_size, q_proc)):
        size = int(size)
        proc = max(float(proc), 1e-9)
        t = profile.earliest_start(size, proc)
        # exact match with conservative_starts: a slot strictly after
        # now is behind a release event that has not happened yet
        starts_now = t == now
        if pos < depth or starts_now:
            profile.reserve(t, proc, size)
        if starts_now:
            started.append(ident)
    return started
