"""Smart ad-hoc policies from Tang et al. (2009): WFP3 and UNICEF.

Table 2 of the paper:

* ``WFP3:   score(t) = -(w_t / r_t)^3 * n_t`` — favour jobs that have
  waited long relative to their length, weighted by size so big old jobs
  do not starve.
* ``UNICEF: score(t) = -w_t / (log2(n_t) * r_t)`` — fast turnaround for
  small jobs.

Both depend on the waiting time ``w = now - submit`` and are therefore
*dynamic*: their scores must be recomputed at every rescheduling event.

Numerical guards: runtimes/estimates are clamped to >= 1 s and ``log2(n)``
to >= 1 (serial jobs would otherwise divide by zero), mirroring the
artifact implementation's behaviour on SWF traces.
"""

from __future__ import annotations

import numpy as np

from repro.policies.base import Policy

__all__ = ["WFP3", "UNICEF"]

_MIN_PROC = 1.0  # avoid division blow-ups on sub-second runtimes


class WFP3(Policy):
    """Waiting-Function Policy, cubic variant (Tang et al. 2009)."""

    name = "WFP"
    dynamic = True
    #: The C kernel (``repro.sim._cbackend``) transcribes these scores
    #: operation for operation, so WFP3 runs off the Python event loop.
    kernel_score = "wfp3"

    def scores(self, now, submit, proc, size):
        wait = np.maximum(float(now) - np.asarray(submit, dtype=float), 0.0)
        proc = np.maximum(np.asarray(proc, dtype=float), _MIN_PROC)
        size = np.asarray(size, dtype=float)
        # the cube as two multiplications: IEEE `*` rounds identically in
        # numpy and C, where `**` may go through libm pow
        x = wait / proc
        return -(x * x * x) * size


class UNICEF(Policy):
    """UNICEF policy (Tang et al. 2009): quick service for small jobs."""

    name = "UNI"
    dynamic = True

    def scores(self, now, submit, proc, size):
        wait = np.maximum(float(now) - np.asarray(submit, dtype=float), 0.0)
        proc = np.maximum(np.asarray(proc, dtype=float), _MIN_PROC)
        denom = np.maximum(np.log2(np.maximum(np.asarray(size, dtype=float), 2.0)), 1.0)
        return -wait / (denom * proc)
