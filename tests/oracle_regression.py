"""Frozen TRF regression fitter — the golden oracle for regression parity.

A verbatim copy of the fitter that :mod:`repro.core.regression` shipped
before the closed-form weighted least-squares solve replaced it: three
restarts of :func:`scipy.optimize.least_squares` (trust-region
reflective, finite-difference Jacobian, Jacobian-based variable scaling)
on the clipped, ``r·n``-weighted residual of Eq. 4, best cost kept.
The parity suite (``tests/test_regression_parity.py``) fits the live
module and this one on the same distribution and requires the exact
solve to be at least as good on every feasible candidate.

Deliberately self-contained apart from the candidate space itself
(:class:`~repro.core.functions.FunctionSpec` evaluation is unchanged):
the config knobs the live module dropped live on here.  Needs scipy,
which is a test-only dependency.  Do not "clean up" or optimise this
file — its only value is that it does not change.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

from repro.core.distribution import ScoreDistribution
from repro.core.functions import FittedFunction, FunctionSpec, enumerate_function_space

__all__ = ["OracleRegressionConfig", "oracle_fit_function", "oracle_fit_all", "oracle_rank_error"]

_PENALTY = 1e6  # residual assigned where a candidate evaluates non-finite


@dataclass(frozen=True)
class OracleRegressionConfig:
    """Fitting knobs (defaults reproduce the paper's setup)."""

    weighted: bool = True  # Eq. 4's (r*n) weight
    x0_magnitudes: tuple[float, ...] = (1.0, 1e-3, 1e-6)
    max_nfev: int = 200
    max_points: int = 20000  # deterministic subsample bound
    subsample_seed: int = 0
    bases: tuple[str, ...] = field(default=())  # empty = full Table 1 space

    def initial_guesses(self) -> list[np.ndarray]:
        """Starting points tried for every spec (best fit kept)."""
        return [np.full(3, m) for m in self.x0_magnitudes]


def oracle_rank_error(predicted: np.ndarray, score: np.ndarray) -> float:
    """Eq. 5: mean absolute deviation between fit and observed scores."""
    predicted = np.asarray(predicted, dtype=float)
    bad = ~np.isfinite(predicted)
    if bad.all():
        return float("inf")
    err = np.abs(np.where(bad, _PENALTY, predicted) - score)
    return float(err.mean())


def _residual_fn(
    spec: FunctionSpec,
    r: np.ndarray,
    n: np.ndarray,
    s: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
) -> Callable[[np.ndarray], np.ndarray]:
    def residuals(coeffs: np.ndarray) -> np.ndarray:
        f = spec.evaluate(coeffs, r, n, s)
        res = w * (f - y)
        return np.where(np.isfinite(res), np.clip(res, -_PENALTY, _PENALTY), _PENALTY)

    return residuals


def oracle_fit_function(
    spec: FunctionSpec,
    dist: ScoreDistribution,
    config: OracleRegressionConfig | None = None,
) -> FittedFunction:
    """Fit one candidate function to the score distribution.

    Never raises on optimiser failure: a candidate that cannot be fitted
    is returned with infinite rank error, so enumeration always completes
    (mirroring the artifact, which simply reported every candidate's
    fitness).
    """
    config = config or OracleRegressionConfig()
    data = dist.subsample(config.max_points, seed=config.subsample_seed)
    r, n, s, y = data.runtime, data.size, data.submit, data.score

    if config.weighted:
        w = r * n
        mean_w = w.mean()
        w = w / mean_w if mean_w > 0 else np.ones_like(w)
    else:
        w = np.ones_like(y)

    residuals = _residual_fn(spec, r, n, s, y, w)
    best_cost = np.inf
    best_coeffs: np.ndarray | None = None
    for x0 in config.initial_guesses():
        try:
            sol = least_squares(
                residuals,
                x0,
                method="trf",
                x_scale="jac",
                max_nfev=config.max_nfev,
            )
        except Exception:  # pragma: no cover - scipy internal failures
            continue
        if np.isfinite(sol.cost) and sol.cost < best_cost:
            best_cost = float(sol.cost)
            best_coeffs = sol.x

    if best_coeffs is None:
        return FittedFunction(
            spec=spec,
            coeffs=(np.nan, np.nan, np.nan),
            rank_error=float("inf"),
            weighted_sse=float("inf"),
            n_observations=len(data),
        )

    predicted = spec.evaluate(best_coeffs, r, n, s)
    return FittedFunction(
        spec=spec,
        coeffs=tuple(float(c) for c in best_coeffs),
        rank_error=oracle_rank_error(predicted, y),
        weighted_sse=2.0 * best_cost,  # least_squares cost = 0.5 * SSE
        n_observations=len(data),
    )


def oracle_fit_all(
    dist: ScoreDistribution,
    specs: Sequence[FunctionSpec] | None = None,
    config: OracleRegressionConfig | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> list[FittedFunction]:
    """Fit every candidate and return them sorted by rank error (Eq. 5).

    *progress* (``done, total``) supports long enumerations from the CLI.
    """
    config = config or OracleRegressionConfig()
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
        fitted.append(oracle_fit_function(spec, dist, config))
        if progress is not None:
            progress(i + 1, total)
    fitted.sort(key=lambda f: (f.rank_error, f.spec.short_name))
    return fitted
