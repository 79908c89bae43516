"""Weighted regression over the function space (§3.3, Eqs. 4–5).

For every candidate :class:`~repro.core.functions.FunctionSpec` the
coefficients ``(c1, c2, c3)`` minimise the paper's weighted error

.. math::

   error = \\sum_t \\big( (r_t n_t) \\cdot (f(r_t, n_t, s_t) -
           score(r_t, n_t, s_t)) \\big)^2

— the ``r·n`` weight forces good fits on *big* jobs, "tasks that consume
a large amount of resources … have a potential of blocking the execution
of many smaller tasks".  Candidates are then ranked by the unweighted
mean absolute error of Eq. 5.

**Exact solve.**  The artifact ran SciPy's iterative ``leastsq``, but
every candidate ``(c1 α) op1 (c2 β) op2 (c3 γ)`` is *linear* in a
reparameterisation ``k`` of its coefficients
(:data:`~repro.core.functions.REPARAMETERISATION`; ``α, β, γ`` are the
base images of ``r, n, s``):

========  ==========================  ====================
op1 op2   model                       coefficients
========  ==========================  ====================
``+ +``   k1·α + k2·β + k3·γ          c = (k1, k2, k3)
``+ ·``   k1·αγ + k2·βγ               c = (k1, k2, 1)
``+ ÷``   k1·α/γ + k2·β/γ             c = (k1, k2, 1)
``· +``   k1·αβ + k2·γ                c = (k1, 1, k2)
``· ·``   k1·αβγ                      c = (k1, 1, 1)
``· ÷``   k1·αβ/γ                     c = (k1, 1, 1)
``÷ +``   k1·α/β + k2·γ               c = (k1, 1, k2)
``÷ ·``   k1·αγ/β                     c = (k1, 1, 1)
``÷ ÷``   k1·α/(βγ)                   c = (k1, 1, 1)
========  ==========================  ====================

So Eq. 4's optimum is one weighted linear least-squares problem per
candidate, solved exactly with :func:`numpy.linalg.lstsq` on the
``r·n``-weighted design columns.  The coefficients a product or quotient
makes redundant are fixed at 1, which changes how a fit prints, never
the fitted function.  ``rank_error`` and ``weighted_sse`` are computed
by evaluating the spec (:meth:`FunctionSpec.evaluate`) on the mapped-back
coefficients, with the same clipped residual as always.

**Infeasible divisors.**  A candidate whose divisor base is zero
(``|x| <`` :data:`~repro.core.functions.ZERO_DIVISOR`) on some
observation — ``/log(n)`` with ``n = 1`` is the case that occurs — has
no finite model value on that row, so it cannot be fitted: it is
returned with infinite ``rank_error``/``weighted_sse`` and NaN
coefficients.  Its rows are not dropped.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.distribution import ScoreDistribution
from repro.core.functions import (
    REPARAMETERISATION,
    ZERO_DIVISOR,
    FittedFunction,
    FunctionSpec,
    enumerate_function_space,
)

__all__ = ["RegressionConfig", "fit_function", "fit_all", "rank_error"]

_PENALTY = 1e6  # residual assigned where a candidate evaluates non-finite


@dataclass(frozen=True)
class RegressionConfig:
    """Fitting knobs (defaults reproduce the paper's setup)."""

    weighted: bool = True  # Eq. 4's (r*n) weight
    max_points: int = 20000  # deterministic subsample bound
    subsample_seed: int = 0
    bases: tuple[str, ...] = field(default=())  # empty = full Table 1 space


def rank_error(predicted: np.ndarray, score: np.ndarray) -> float:
    """Eq. 5: mean absolute deviation between fit and observed scores."""
    predicted = np.asarray(predicted, dtype=float)
    bad = ~np.isfinite(predicted)
    if bad.all():
        return float("inf")
    err = np.abs(np.where(bad, _PENALTY, predicted) - score)
    return float(err.mean())


def _solve(
    spec: FunctionSpec,
    terms: tuple[np.ndarray, np.ndarray, np.ndarray],
    y: np.ndarray,
    w: np.ndarray,
) -> np.ndarray | None:
    """Eq. 4's exact optimum ``(c1, c2, c3)``; ``None`` if infeasible."""
    columns, slots = REPARAMETERISATION[(spec.op1, spec.op2)]
    divisors = {slot for column in columns for slot, power in column if power < 0}
    if any(np.any(np.abs(terms[slot]) < ZERO_DIVISOR) for slot in divisors):
        return None
    design = np.empty((len(y), len(columns)))
    for j, column in enumerate(columns):
        col = w
        for slot, power in column:
            col = col * terms[slot] if power > 0 else col / terms[slot]
        design[:, j] = col
    target = w * y
    if not (np.isfinite(design).all() and np.isfinite(target).all()):
        return None
    # unit-norm columns keep lstsq's rank cutoff scale-free: column
    # magnitudes differ by ~10 orders across the space
    norms = np.linalg.norm(design, axis=0)
    norms[norms == 0.0] = 1.0
    try:
        k = np.linalg.lstsq(design / norms, target, rcond=None)[0] / norms
    except np.linalg.LinAlgError:  # pragma: no cover - SVD non-convergence
        return None
    coeffs = np.ones(3)
    coeffs[list(slots)] = k
    return coeffs


def fit_function(
    spec: FunctionSpec,
    dist: ScoreDistribution,
    config: RegressionConfig | None = None,
) -> FittedFunction:
    """Fit one candidate function to the score distribution.

    Never raises: a candidate that cannot be fitted (an infeasible
    divisor, see the module docstring) is returned with infinite rank
    error, so enumeration always completes (mirroring the artifact,
    which simply reported every candidate's fitness).
    """
    config = config or RegressionConfig()
    data = dist.subsample(config.max_points, seed=config.subsample_seed)
    r, n, s, y = data.runtime, data.size, data.submit, data.score

    if config.weighted:
        w = r * n
        mean_w = w.mean()
        w = w / mean_w if mean_w > 0 else np.ones_like(w)
    else:
        w = np.ones_like(y)

    coeffs = _solve(spec, spec.terms(r, n, s), y, w)
    if coeffs is None:
        return FittedFunction(
            spec=spec,
            coeffs=(np.nan, np.nan, np.nan),
            rank_error=float("inf"),
            weighted_sse=float("inf"),
            n_observations=len(data),
        )

    predicted = spec.evaluate(coeffs, r, n, s)
    res = w * (predicted - y)
    res = np.where(np.isfinite(res), np.clip(res, -_PENALTY, _PENALTY), _PENALTY)
    return FittedFunction(
        spec=spec,
        coeffs=tuple(float(c) for c in coeffs),
        rank_error=rank_error(predicted, y),
        weighted_sse=float(res @ res),
        n_observations=len(data),
    )


def fit_all(
    dist: ScoreDistribution,
    specs: Sequence[FunctionSpec] | None = None,
    config: RegressionConfig | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> list[FittedFunction]:
    """Fit every candidate and return them sorted by rank error (Eq. 5).

    *progress* (``done, total``) supports long enumerations from the CLI.
    """
    config = config or RegressionConfig()
    if specs is None:
        specs = enumerate_function_space()
        if config.bases:
            specs = [
                sp
                for sp in specs
                if {sp.alpha, sp.beta, sp.gamma} <= set(config.bases)
            ]
    fitted: list[FittedFunction] = []
    total = len(specs)
    for i, spec in enumerate(specs):
        fitted.append(fit_function(spec, dist, config))
        if progress is not None:
            progress(i + 1, total)
    fitted.sort(key=lambda f: (f.rank_error, f.spec.short_name))
    return fitted
