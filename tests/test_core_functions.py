"""Tests for the nonlinear function space (repro.core.functions)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.functions import (
    BASE_FUNCTION_NAMES,
    OPERATOR_NAMES,
    REPARAMETERISATION,
    FittedFunction,
    FunctionSpec,
    apply_base,
    distinct_fits,
    enumerate_function_space,
)


class TestBaseFunctions:
    def test_table1_inventory(self):
        assert BASE_FUNCTION_NAMES == ("id", "log", "sqrt", "inv")

    def test_id(self):
        np.testing.assert_array_equal(apply_base("id", np.array([3.0])), [3.0])

    def test_log_is_log10(self):
        np.testing.assert_allclose(apply_base("log", np.array([100.0])), [2.0])

    def test_sqrt(self):
        np.testing.assert_allclose(apply_base("sqrt", np.array([16.0])), [4.0])

    def test_inv(self):
        np.testing.assert_allclose(apply_base("inv", np.array([4.0])), [0.25])

    def test_log_guard(self):
        out = apply_base("log", np.array([0.0]))
        assert np.isfinite(out[0])

    def test_inv_guard(self):
        out = apply_base("inv", np.array([0.0]))
        assert np.isfinite(out[0])

    def test_sqrt_guard(self):
        out = apply_base("sqrt", np.array([-1.0]))
        assert out[0] == 0.0

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            apply_base("exp", np.array([1.0]))


class TestFunctionSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FunctionSpec("id", "id", "id", "^", "+")
        with pytest.raises(ValueError):
            FunctionSpec("cos", "id", "id", "+", "+")

    def test_short_name(self):
        spec = FunctionSpec("log", "id", "log", "*", "+")
        assert spec.short_name == "log(r)*id(n)+log(s)"

    def test_left_associative_evaluation(self):
        """(A op1 B) op2 C, not A op1 (B op2 C)."""
        spec = FunctionSpec("id", "id", "id", "+", "*")
        # (1*r + 1*n) * (1*s) with r=2, n=3, s=4 -> 20 (right-assoc: 14)
        out = spec.evaluate(
            np.ones(3), np.array([2.0]), np.array([3.0]), np.array([4.0])
        )
        assert out[0] == pytest.approx(20.0)

    def test_f3_structure(self):
        spec = FunctionSpec("id", "id", "log", "*", "+")
        out = spec.evaluate(
            np.array([1.0, 1.0, 6.86e6]),
            np.array([100.0]),
            np.array([8.0]),
            np.array([1000.0]),
        )
        assert out[0] == pytest.approx(800.0 + 6.86e6 * 3.0)

    def test_division_by_zero_guarded(self):
        spec = FunctionSpec("id", "id", "id", "/", "+")
        out = spec.evaluate(
            np.array([1.0, 0.0, 1.0]),  # c2 = 0 -> division by zero
            np.array([2.0]),
            np.array([3.0]),
            np.array([4.0]),
        )
        assert np.all(np.isfinite(out))

    def test_coefficients_scale_terms(self):
        spec = FunctionSpec("id", "id", "id", "+", "+")
        out = spec.evaluate(
            np.array([2.0, 3.0, 5.0]),
            np.array([1.0]),
            np.array([1.0]),
            np.array([1.0]),
        )
        assert out[0] == pytest.approx(10.0)

    def test_terms(self):
        spec = FunctionSpec("log", "sqrt", "inv", "+", "+")
        ta, tb, tc = spec.terms(np.array([100.0]), np.array([16.0]), np.array([4.0]))
        assert (ta[0], tb[0], tc[0]) == pytest.approx((2.0, 4.0, 0.25))

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(BASE_FUNCTION_NAMES),
        st.sampled_from(BASE_FUNCTION_NAMES),
        st.sampled_from(BASE_FUNCTION_NAMES),
        st.sampled_from(OPERATOR_NAMES),
        st.sampled_from(OPERATOR_NAMES),
    )
    def test_every_spec_finite_on_domain(self, a, b, g, o1, o2):
        """All 576 candidates evaluate finite on the training domain."""
        spec = FunctionSpec(a, b, g, o1, o2)
        r = np.array([1.0, 100.0, 2.7e4])
        n = np.array([1.0, 16.0, 256.0])
        s = np.array([1.0, 500.0, 1.3e6])
        out = spec.evaluate(np.array([0.1, -0.2, 0.3]), r, n, s)
        assert np.all(np.isfinite(out))


class TestEnumeration:
    def test_size_is_576(self):
        assert len(enumerate_function_space()) == 4**3 * 3**2

    def test_unique(self):
        specs = enumerate_function_space()
        assert len(set(specs)) == len(specs)

    def test_deterministic_order(self):
        a = enumerate_function_space()
        b = enumerate_function_space()
        assert a == b

    def test_contains_published_structures(self):
        specs = set(enumerate_function_space())
        # F1: log(r)*n + C log(s); F2: sqrt(r)*n; F3: r*n; F4: r*sqrt(n)
        assert FunctionSpec("log", "id", "log", "*", "+") in specs
        assert FunctionSpec("sqrt", "id", "log", "*", "+") in specs
        assert FunctionSpec("id", "id", "log", "*", "+") in specs
        assert FunctionSpec("id", "sqrt", "log", "*", "+") in specs


class TestReparameterisation:
    @given(
        st.sampled_from(BASE_FUNCTION_NAMES),
        st.sampled_from(BASE_FUNCTION_NAMES),
        st.sampled_from(BASE_FUNCTION_NAMES),
        st.sampled_from(OPERATOR_NAMES),
        st.sampled_from(OPERATOR_NAMES),
        st.lists(st.floats(-3.0, 3.0).filter(lambda c: abs(c) > 0.1), min_size=3, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_linear_in_design_columns(self, a, b, g, o1, o2, k):
        """f(c) with the redundant coefficients at 1 is Σ k_j · column_j."""
        spec = FunctionSpec(a, b, g, o1, o2)
        columns, slots = REPARAMETERISATION[(o1, o2)]
        r, n, s = np.array([3.0, 40.0]), np.array([2.0, 17.0]), np.array([50.0, 900.0])
        terms = spec.terms(r, n, s)
        coeffs = np.ones(3)
        coeffs[list(slots)] = k[: len(slots)]
        expected = sum(
            kj * np.prod([terms[slot] ** power for slot, power in column], axis=0)
            for kj, column in zip(k, columns)
        )
        np.testing.assert_allclose(spec.evaluate(coeffs, r, n, s), expected, rtol=1e-12)


class TestCanonicalKey:
    def test_product_equals_division_by_inverse(self):
        for alpha in BASE_FUNCTION_NAMES:
            a = FunctionSpec(alpha, "id", "log", "*", "+")
            b = FunctionSpec(alpha, "inv", "log", "/", "+")
            assert a.canonical_key == b.canonical_key

    def test_log_divisor_differs_from_log_factor(self):
        a = FunctionSpec("id", "log", "log", "*", "+")
        b = FunctionSpec("id", "log", "log", "/", "+")
        assert a.canonical_key != b.canonical_key

    def test_space_has_400_distinct_models(self):
        assert len({sp.canonical_key for sp in enumerate_function_space()}) == 400

    def test_distinct_fits_keeps_first_of_each_model(self):
        def fit(spec, err):
            return FittedFunction(spec, (1.0, 1.0, 1.0), err, err, 1)

        ranked = [
            fit(FunctionSpec("id", "id", "log", "*", "+"), 1.0),
            fit(FunctionSpec("id", "inv", "log", "/", "+"), 1.0),
            fit(FunctionSpec("log", "id", "log", "*", "+"), 2.0),
            fit(FunctionSpec("sqrt", "id", "log", "*", "+"), 3.0),
        ]
        assert distinct_fits(ranked, 2) == [ranked[0], ranked[2]]
        assert distinct_fits(ranked, 10) == [ranked[0], ranked[2], ranked[3]]


class TestFittedFunction:
    def _make(self, coeffs=(2.0, 3.0, 4.0)):
        return FittedFunction(
            spec=FunctionSpec("id", "id", "log", "*", "+"),
            coeffs=coeffs,
            rank_error=0.01,
            weighted_sse=1.0,
            n_observations=5,
        )

    def test_callable(self):
        f = self._make()
        out = f(np.array([10.0]), np.array([2.0]), np.array([100.0]))
        assert out[0] == pytest.approx(2 * 10 * 3 * 2 + 4 * 2)

    def test_describe_format(self):
        text = self._make().describe()
        assert "x id(runtime)" in text
        assert "x id(#cores)" in text
        assert "x log(submit)" in text
        assert "fitness=0.01" in text

    def test_simplified_merges_coefficients(self):
        f = self._make(coeffs=(2.0, 3.0, 12.0))
        # c3/(c1 c2) = 12/6 = 2
        assert "+ 2·log(s)" in f.simplified()

    def test_simplified_fallback_for_other_shapes(self):
        f = FittedFunction(
            spec=FunctionSpec("id", "id", "id", "+", "+"),
            coeffs=(1.0, 1.0, 1.0),
            rank_error=0.1,
            weighted_sse=1.0,
            n_observations=5,
        )
        assert "fitness" in f.simplified()
