"""Basis family construction and design-matrix properties."""

import numpy as np
import pytest

from qhedge import BasisSet, build_basis
from qhedge.errors import DegenerateInputError


class TestOneHot:
    def test_indicator_on_two_points(self):
        basis = build_basis("one_hot_grid", 2, [0.0, 1.0])
        np.testing.assert_array_equal(basis.evaluate([0.0]), [[1.0, 0.0]])
        np.testing.assert_array_equal(basis.evaluate([1.0]), [[0.0, 1.0]])

    def test_rows_are_unit_indicators(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(size=5000)
        basis = build_basis("one_hot_grid", 15, samples)
        design = basis.evaluate(samples)
        assert set(np.unique(design)) == {0.0, 1.0}
        np.testing.assert_array_equal(design.sum(axis=1), np.ones(5000))

    def test_out_of_range_clamps_to_edge_buckets(self):
        basis = build_basis("one_hot_grid", 4, np.linspace(0, 1, 100))
        np.testing.assert_array_equal(basis.evaluate([-5.0])[0],
                                      [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(basis.evaluate([7.0])[0],
                                      [0.0, 0.0, 0.0, 1.0])

    def test_regressions_become_bucket_averages(self):
        """One-hot least squares equals the per-bucket sample mean, the
        bridge between the regression solvers and the finite-state chain."""
        from qhedge.regression import conditional_mean

        rng = np.random.default_rng(1)
        x = rng.normal(size=4000)
        y = np.sin(x) + rng.normal(size=4000)
        basis = build_basis("one_hot_grid", 8, x)
        fitted = conditional_mean(basis.evaluate(x), y)
        buckets = basis.bucket_of(x)
        for b in range(8):
            sel = buckets == b
            if sel.any():
                np.testing.assert_allclose(fitted[sel], y[sel].mean(), rtol=1e-6)

    def test_m_exceeding_cardinality(self):
        with pytest.raises(ValueError):
            build_basis("one_hot_grid", 3, [0.0, 1.0])


class TestBSpline:
    def test_partition_of_unity(self):
        rng = np.random.default_rng(2)
        samples = rng.normal(size=3000)
        basis = build_basis("bspline", 12, samples)
        xs = np.linspace(samples.min(), samples.max(), 500)
        np.testing.assert_allclose(basis.evaluate(xs).sum(axis=1), 1.0, atol=1e-12)

    def test_clamped_extrapolation_is_finite(self):
        samples = np.random.default_rng(3).normal(size=1000)
        basis = build_basis("bspline", 10, samples)
        design = basis.evaluate([samples.min() - 50.0, samples.max() + 50.0])
        assert np.all(np.isfinite(design))
        np.testing.assert_allclose(design.sum(axis=1), 1.0, atol=1e-12)

    def test_requested_size(self):
        samples = np.random.default_rng(4).normal(size=1000)
        assert build_basis("bspline", 12, samples).m == 12
        assert build_basis("bspline", 6, samples).m == 6

    def test_degenerate_samples_rejected(self):
        with pytest.raises(DegenerateInputError):
            build_basis("bspline", 8, np.zeros(50))

    @pytest.mark.parametrize("degree", [0, 1, 3])
    def test_smallest_size_is_degree_plus_three(self, degree):
        """degree + 2 functions leave a single quantile breakpoint, which no
        sample can widen into a knot span: a size error naming m and the
        degree, while degree + 3 builds."""
        samples = np.random.default_rng(5).normal(size=1000)
        with pytest.raises(ValueError, match=rf"m >= degree \+ 3, got m={degree + 2} "
                                             rf"with degree {degree}"):
            build_basis("bspline", degree + 2, samples, degree=degree)
        assert build_basis("bspline", degree + 3, samples, degree=degree).m == degree + 3


class TestRBF:
    def test_unit_peak(self):
        basis = BasisSet("rbf", 1, centers=np.array([0.0]), bandwidth=1.0)
        np.testing.assert_allclose(basis.evaluate([0.0]), [[1.0]])

    def test_from_samples(self):
        samples = np.random.default_rng(5).normal(size=2000)
        basis = build_basis("rbf", 9, samples)
        design = basis.evaluate(samples)
        assert design.shape == (2000, 9)
        assert np.all(design > 0) and np.all(design <= 1.0)


class TestEvaluate:
    def test_empty_states(self):
        basis = build_basis("one_hot_grid", 4, np.linspace(0, 1, 50))
        assert basis.evaluate([]).shape == (0, 4)

    def test_deterministic(self):
        samples = np.random.default_rng(6).normal(size=500)
        basis = build_basis("bspline", 8, samples)
        a = basis.evaluate(samples)
        b = basis.evaluate(samples)
        assert np.array_equal(a, b)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_basis("chebyshev", 4, [0.0, 1.0])
