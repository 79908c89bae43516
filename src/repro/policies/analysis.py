"""Policy-space analysis: how differently do policies order a queue?

The paper's Figure 3 visualises each policy's priority structure; this
module quantifies the *pairwise* structure — the rank agreement between
two policies over a job population.  Uses:

* explain results ("F3 behaves like FCFS on short windows because its
  orderings agree at tau > 0.9"),
* regression-test that learned policies are not accidental clones of a
  baseline,
* pick a diverse policy portfolio for an installation.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.policies.base import Policy
from repro.sim.job import Workload
from repro.util.stats import kendall_tau_b

__all__ = ["policy_scores", "rank_agreement", "agreement_matrix"]


def policy_scores(
    policy: Policy,
    workload: Workload,
    *,
    now: float | None = None,
    use_estimates: bool = False,
) -> np.ndarray:
    """Score every job of *workload* as one static queue snapshot.

    *now* defaults to just after the last arrival, so waiting-time-based
    (dynamic) policies see the waits they would at a real rescheduling
    event.
    """
    if len(workload) == 0:
        raise ValueError("empty workload")
    if now is None:
        now = float(workload.submit[-1]) + 1.0
    proc = workload.estimate if use_estimates else workload.runtime
    return policy.scores(now, workload.submit, proc, workload.size.astype(float))


def rank_agreement(
    a: Policy,
    b: Policy,
    workload: Workload,
    *,
    now: float | None = None,
    use_estimates: bool = False,
) -> float:
    """Kendall's tau between two policies' queue orderings (1 = same
    order, -1 = reversed, ~0 = unrelated)."""
    sa = policy_scores(a, workload, now=now, use_estimates=use_estimates)
    sb = policy_scores(b, workload, now=now, use_estimates=use_estimates)
    return kendall_tau_b(sa, sb)


def agreement_matrix(
    policies: Sequence[Policy],
    workload: Workload,
    *,
    now: float | None = None,
    use_estimates: bool = False,
) -> tuple[list[str], np.ndarray]:
    """Pairwise Kendall-tau matrix over *policies*.

    Returns ``(names, matrix)`` with ``matrix[i, j] = tau(policies[i],
    policies[j])``; the diagonal is 1 by construction.
    """
    if not policies:
        raise ValueError("no policies given")
    scores = [
        policy_scores(p, workload, now=now, use_estimates=use_estimates)
        for p in policies
    ]
    k = len(policies)
    mat = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            mat[i, j] = mat[j, i] = kendall_tau_b(scores[i], scores[j])
    return [p.name for p in policies], mat
