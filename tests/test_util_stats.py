"""Tests for repro.util.stats."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.stats import (
    kendall_tau_b,
    ascii_boxplot,
    bootstrap_mean_ci,
    boxplot_stats,
    summarize,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestSummarize:
    def test_basic(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.n == 4
        assert s.median == 2.5
        assert s.mean == 2.5
        assert s.min == 1.0 and s.max == 4.0

    def test_single_value_std_zero(self):
        s = summarize([5.0])
        assert s.std == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_std_is_sample_std(self):
        vals = [1.0, 3.0]
        assert summarize(vals).std == pytest.approx(np.std(vals, ddof=1))

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_bounds_property(self, vals):
        s = summarize(vals)
        assert s.min <= s.median <= s.max
        assert s.min <= s.mean <= s.max


class TestBoxplotStats:
    def test_quartiles(self):
        s = boxplot_stats(list(range(1, 101)))
        assert s.q1 == pytest.approx(25.75)
        assert s.median == pytest.approx(50.5)
        assert s.q3 == pytest.approx(75.25)

    def test_no_outliers_uniform(self):
        s = boxplot_stats(list(range(10)))
        assert s.outliers == ()
        assert s.whisker_low == 0.0
        assert s.whisker_high == 9.0

    def test_outlier_detected(self):
        vals = [1.0] * 10 + [2.0] * 10 + [100.0]
        s = boxplot_stats(vals)
        assert 100.0 in s.outliers
        assert s.whisker_high <= 2.0 + 1.5 * s.iqr + 1e-9

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            boxplot_stats([])

    def test_constant_sample(self):
        s = boxplot_stats([3.0, 3.0, 3.0])
        assert s.median == 3.0
        assert s.iqr == 0.0
        assert s.outliers == ()

    @given(st.lists(finite_floats, min_size=2, max_size=60))
    def test_whiskers_inside_fences(self, vals):
        s = boxplot_stats(vals)
        assert s.whisker_low >= s.q1 - 1.5 * s.iqr - 1e-6
        assert s.whisker_high <= s.q3 + 1.5 * s.iqr + 1e-6
        assert s.whisker_low <= s.median <= s.whisker_high

    @given(st.lists(finite_floats, min_size=2, max_size=60))
    def test_outliers_outside_fences(self, vals):
        s = boxplot_stats(vals)
        for o in s.outliers:
            assert o < s.q1 - 1.5 * s.iqr or o > s.q3 + 1.5 * s.iqr


class TestAsciiBoxplot:
    def test_renders_all_labels(self):
        out = ascii_boxplot({"A": [1, 2, 3], "LONGNAME": [2, 3, 4]})
        assert "A " in out
        assert "LONGNAME" in out
        assert "#" in out  # median marker

    def test_log_scale(self):
        out = ascii_boxplot({"x": [1, 10, 100, 1000]}, log10=True)
        assert "#" in out

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ascii_boxplot({})

    def test_median_annotation(self):
        out = ascii_boxplot({"p": [5.0, 5.0, 5.0]})
        assert "median=5.00" in out


class TestBootstrapMeanCI:
    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(4)
        sample = rng.normal(3.0, 1.0, size=40)
        a = bootstrap_mean_ci(sample, n_boot=500, seed=11)
        b = bootstrap_mean_ci(sample, n_boot=500, seed=11)
        assert a == b

    def test_different_seed_different_draws(self):
        rng = np.random.default_rng(4)
        sample = rng.normal(3.0, 1.0, size=40)
        a = bootstrap_mean_ci(sample, n_boot=500, seed=11)
        b = bootstrap_mean_ci(sample, n_boot=500, seed=12)
        assert (a.lo, a.hi) != (b.lo, b.hi)

    def test_point_is_sample_mean_and_bracketed(self):
        sample = [1.0, 2.0, 3.0, 4.0, 5.0]
        ci = bootstrap_mean_ci(sample, n_boot=400, seed=0)
        assert ci.point == pytest.approx(3.0)
        assert ci.lo <= ci.point <= ci.hi
        assert ci.defined and ci.n == 5 and ci.n_boot == 400

    def test_shifted_sample_is_significant(self):
        rng = np.random.default_rng(7)
        sample = rng.normal(10.0, 0.5, size=50)
        ci = bootstrap_mean_ci(sample, n_boot=400, seed=0)
        assert ci.significant is True
        assert ci.lo > 0

    def test_zero_centred_sample_is_not_significant(self):
        rng = np.random.default_rng(7)
        half = rng.normal(0.0, 1.0, size=100)
        sample = np.concatenate([half, -half])  # exactly mean-zero
        ci = bootstrap_mean_ci(sample, n_boot=400, seed=0)
        assert ci.significant is False

    def test_single_value_degenerates_to_point(self):
        ci = bootstrap_mean_ci([42.0], n_boot=400, seed=0)
        assert ci.point == 42.0
        assert not ci.defined
        assert ci.significant is None
        assert ci.n_boot == 0

    def test_n_boot_zero_disables(self):
        ci = bootstrap_mean_ci([1.0, 2.0, 3.0], n_boot=0)
        assert ci.point == 2.0
        assert not ci.defined and ci.significant is None

    def test_wider_level_never_narrows(self):
        rng = np.random.default_rng(5)
        sample = rng.normal(0.0, 1.0, size=60)
        narrow = bootstrap_mean_ci(sample, n_boot=500, level=0.5, seed=3)
        wide = bootstrap_mean_ci(sample, n_boot=500, level=0.99, seed=3)
        assert wide.lo <= narrow.lo and narrow.hi <= wide.hi

    def test_level_validated(self):
        with pytest.raises(ValueError, match="level"):
            bootstrap_mean_ci([1.0, 2.0], level=1.0)
        with pytest.raises(ValueError, match="level"):
            bootstrap_mean_ci([1.0, 2.0], level=0.0)

    def test_negative_n_boot_rejected(self):
        with pytest.raises(ValueError, match="n_boot"):
            bootstrap_mean_ci([1.0, 2.0], n_boot=-1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            bootstrap_mean_ci([])

    def test_seed_accepts_generator(self):
        from repro.util.rng import as_generator

        sample = [1.0, 5.0, 2.0, 8.0]
        a = bootstrap_mean_ci(sample, n_boot=100, seed=as_generator(3))
        b = bootstrap_mean_ci(sample, n_boot=100, seed=as_generator(3))
        assert a == b


class TestKendallTauB:
    def test_perfect_agreement_and_reversal(self):
        x = np.arange(10.0)
        assert kendall_tau_b(x, 2 * x + 1) == pytest.approx(1.0)
        assert kendall_tau_b(x, -x) == pytest.approx(-1.0)

    def test_hand_computed_with_ties(self):
        # 6 pairs: 1 tied in x, 1 tied in y, 3 concordant, 1 discordant
        x = [1.0, 1.0, 2.0, 3.0]
        y = [1.0, 2.0, 3.0, 2.0]
        assert kendall_tau_b(x, y) == pytest.approx(2 / 5)

    def test_undefined_is_nan(self):
        assert np.isnan(kendall_tau_b([1.0], [2.0]))
        assert np.isnan(kendall_tau_b([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
        assert np.isnan(kendall_tau_b([1.0, np.nan], [1.0, 2.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kendall_tau_b([1.0, 2.0], [1.0])

    def test_matches_scipy_on_tie_heavy_vectors(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(2, 300))
            x = rng.integers(0, int(rng.integers(1, 12)), n).astype(float)
            y = x * rng.integers(-1, 2) + rng.integers(0, int(rng.integers(1, 6)), n)
            expected = stats.kendalltau(x, y).statistic
            got = kendall_tau_b(x, y)
            if np.isnan(expected):
                assert np.isnan(got)
            else:
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)
