"""Tests for the weighted nonlinear regression (Eqs. 4-5)."""

import numpy as np
import pytest

from repro.core.distribution import ScoreDistribution
from repro.core.functions import FunctionSpec
from repro.core.regression import RegressionConfig, fit_all, fit_function, rank_error


def planted_distribution(spec, coeffs, n=400, noise=0.0, seed=0):
    """Observations generated from a known member of the space."""
    rng = np.random.default_rng(seed)
    r = rng.uniform(1.0, 1e4, n)
    size = rng.integers(1, 256, n).astype(float)
    s = rng.uniform(1.0, 1e5, n)
    y = spec.evaluate(np.asarray(coeffs), r, size, s)
    y = y + noise * rng.standard_normal(n)
    return ScoreDistribution(runtime=r, size=size, submit=s, score=y)


class TestRankError:
    def test_zero_for_perfect_fit(self):
        y = np.array([1.0, 2.0])
        assert rank_error(y, y) == 0.0

    def test_mean_absolute(self):
        assert rank_error(np.array([1.0, 3.0]), np.array([0.0, 0.0])) == 2.0

    def test_nonfinite_penalised(self):
        assert rank_error(np.array([np.inf]), np.array([0.0])) > 1e5

    def test_all_bad_is_inf(self):
        assert rank_error(np.array([np.nan, np.inf]), np.zeros(2)) > 1e5


class TestFitFunction:
    def test_recovers_planted_linear(self):
        """Additive spec is exactly solvable; coefficients must be found."""
        spec = FunctionSpec("log", "id", "log", "+", "+")
        dist = planted_distribution(spec, (0.5, -0.01, 2.0))
        fit = fit_function(spec, dist, RegressionConfig(weighted=False))
        assert fit.rank_error < 1e-4
        np.testing.assert_allclose(fit.coeffs, (0.5, -0.01, 2.0), rtol=1e-3)

    def test_recovers_planted_product_form(self):
        """The paper's family: (c1 a(r))·(c2 b(n)) + c3 g(s)."""
        spec = FunctionSpec("id", "id", "log", "*", "+")
        dist = planted_distribution(spec, (1e-3, 1e-2, 5.0))
        fit = fit_function(spec, dist, RegressionConfig(weighted=False))
        # product coefficients are only identified up to c1*c2
        c1, c2, c3 = fit.coeffs
        assert c1 * c2 == pytest.approx(1e-5, rel=1e-3)
        assert c3 == pytest.approx(5.0, rel=1e-3)
        assert fit.rank_error < 1e-4

    def test_weighting_changes_fit(self):
        spec = FunctionSpec("id", "id", "log", "*", "+")
        truth = FunctionSpec("log", "id", "log", "*", "+")
        dist = planted_distribution(truth, (1e-2, 1e-2, 3.0), noise=0.01)
        weighted = fit_function(spec, dist, RegressionConfig(weighted=True))
        unweighted = fit_function(spec, dist, RegressionConfig(weighted=False))
        assert weighted.coeffs != unweighted.coeffs

    def test_never_raises_on_hostile_spec(self):
        """Division shapes can blow up; the fit must degrade gracefully."""
        spec = FunctionSpec("inv", "inv", "inv", "/", "/")
        dist = planted_distribution(FunctionSpec("id", "id", "id", "+", "+"), (1, 1, 1))
        fit = fit_function(spec, dist)
        assert fit.spec == spec  # returned, not raised
        assert np.isfinite(fit.rank_error) or fit.rank_error == float("inf")

    def test_closed_form_hits_weighted_optimum(self):
        """Eq. 4's optimum: perturbing the fit never lowers the weighted SSE."""
        spec = FunctionSpec("sqrt", "log", "log", "*", "+")
        truth = FunctionSpec("id", "id", "log", "*", "+")
        dist = planted_distribution(truth, (1e-3, 1e-2, 5.0), noise=0.05)
        fit = fit_function(spec, dist)
        r, n, s, y = dist.runtime, dist.size, dist.submit, dist.score
        w = r * n / (r * n).mean()
        for c in (np.asarray(fit.coeffs) * (1 + d) for d in (1e-3, -1e-3)):
            res = w * (spec.evaluate(c, r, n, s) - y)
            assert res @ res > fit.weighted_sse

    @pytest.mark.parametrize(
        "ops, free",
        [
            (("+", "+"), (0, 1, 2)),
            (("+", "*"), (0, 1)),
            (("+", "/"), (0, 1)),
            (("*", "+"), (0, 2)),
            (("/", "+"), (0, 2)),
            (("*", "*"), (0,)),
            (("*", "/"), (0,)),
            (("/", "*"), (0,)),
            (("/", "/"), (0,)),
        ],
    )
    def test_redundant_coefficients_fixed_at_one(self, ops, free):
        spec = FunctionSpec("log", "sqrt", "log", *ops)
        dist = planted_distribution(FunctionSpec("id", "id", "log", "*", "+"), (1e-3, 1e-2, 5.0))
        fit = fit_function(spec, dist)
        fixed = [c for i, c in enumerate(fit.coeffs) if i not in free]
        assert fixed == [1.0] * len(fixed)

    def test_zero_divisor_is_infeasible(self):
        """log10(1) = 0: a /log(n) candidate has no finite model on n = 1
        rows, so it is reported unfittable rather than fitted around them."""
        planted = planted_distribution(FunctionSpec("id", "id", "log", "*", "+"), (1e-3, 1e-2, 5.0))
        size = planted.size.copy()
        size[::50] = 1.0
        dist = ScoreDistribution(
            runtime=planted.runtime, size=size, submit=planted.submit, score=planted.score
        )
        for ops in (("/", "+"), ("/", "*"), ("/", "/")):
            fit = fit_function(FunctionSpec("id", "log", "log", *ops), dist)
            assert fit.rank_error == float("inf")
            assert fit.weighted_sse == float("inf")
            assert np.isnan(fit.coeffs).all()
        # the same bases with log(n) as a factor, or a nonzero divisor, fit
        assert np.isfinite(fit_function(FunctionSpec("id", "log", "log", "*", "+"), dist).rank_error)
        assert np.isfinite(fit_function(FunctionSpec("id", "inv", "log", "/", "+"), dist).rank_error)

    def test_subsample_bound_respected(self):
        spec = FunctionSpec("id", "id", "id", "+", "+")
        dist = planted_distribution(spec, (1, 1, 1), n=500)
        fit = fit_function(spec, dist, RegressionConfig(max_points=100))
        assert fit.n_observations == 100


class TestFitAll:
    @pytest.fixture(scope="class")
    def planted(self):
        spec = FunctionSpec("id", "id", "log", "*", "+")
        return spec, planted_distribution(spec, (1e-3, 1e-2, 5.0), noise=1e-4)

    def test_truth_ranks_first_among_subset(self, planted):
        truth, dist = planted
        specs = [
            truth,
            FunctionSpec("inv", "id", "log", "*", "+"),
            FunctionSpec("log", "log", "inv", "+", "+"),
            FunctionSpec("sqrt", "inv", "id", "/", "+"),
        ]
        ranked = fit_all(dist, specs=specs, config=RegressionConfig(weighted=False))
        assert ranked[0].spec == truth

    def test_sorted_by_rank_error(self, planted):
        _, dist = planted
        specs = [
            FunctionSpec("id", "id", "log", "*", "+"),
            FunctionSpec("inv", "inv", "inv", "+", "+"),
            FunctionSpec("log", "id", "id", "+", "*"),
        ]
        ranked = fit_all(dist, specs=specs)
        errors = [f.rank_error for f in ranked]
        assert errors == sorted(errors)

    def test_progress_callback(self, planted):
        _, dist = planted
        seen = []
        fit_all(
            dist,
            specs=[FunctionSpec("id", "id", "id", "+", "+")] * 3,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_bases_filter(self, planted):
        _, dist = planted
        config = RegressionConfig(bases=("id", "log"), max_points=50)
        ranked = fit_all(dist, config=config)
        assert len(ranked) == 2**3 * 9  # 2 bases^3 slots * 9 operator combos
        for f in ranked:
            assert {f.spec.alpha, f.spec.beta, f.spec.gamma} <= {"id", "log"}
