import math

import numpy as np
import pytest

from hupa import (BinaryField, BoxDomain, CannotFitError, DegenerateInputError,
                  PointPattern, VarianceCurve, WindowTooLargeError, analyze,
                  classify, default_radii, fit_scaling, generate_lattice,
                  generate_perturbed_lattice, generate_poisson, grid_centers,
                  radius_sweep, random_centers, variance_curve, window_counts)
from hupa.variance import MAX_WINDOWS, MODE_FRACTION, MODE_NUMBER, ScalingFit
from oracles import count_in_window_brute, variance_unbiased


def synthetic_curve(radii, variance, mode=MODE_NUMBER):
    radii = np.asarray(radii, dtype=float)
    variance = np.asarray(variance, dtype=float)
    mean = np.full_like(radii, 0.5) if mode == MODE_FRACTION else radii
    return VarianceCurve(radii=radii, mean=mean, variance=variance,
                         n_windows=100, mode=mode, dim=2)


class TestCountInWindow:
    def test_empty_pattern(self):
        box = BoxDomain(lengths=(10.0, 10.0))
        p = PointPattern(box=box, points=np.empty((0, 2)))
        assert window_counts(p, 2.0, [(5.0, 5.0)])[0] == 0

    def test_square_lattice_center_on_site(self):
        box = BoxDomain(lengths=(16.0, 16.0))
        p = generate_lattice(box, "square", spacing=1.0)
        site = p.points[17]
        assert window_counts(p, 1.05, [site])[0] == 5

    def test_single_point_tiny_radius(self):
        box = BoxDomain(lengths=(4.0, 4.0))
        p = PointPattern(box=box, points=np.array([[1.0, 1.0]]))
        assert window_counts(p, 1e-6, [(1.0, 1.0)])[0] == 1

    def test_boundary_distance_counts(self):
        box = BoxDomain(lengths=(10.0, 10.0))
        p = PointPattern(box=box, points=np.array([[3.0, 1.0]]))
        assert window_counts(p, 2.0, [(1.0, 1.0)])[0] == 1

    def test_radius_limit_enforced(self):
        box = BoxDomain(lengths=(10.0, 12.0))
        p = PointPattern(box=box, points=np.array([[1.0, 1.0]]))
        with pytest.raises(WindowTooLargeError):
            window_counts(p, 5.0, [(0.0, 0.0)])
        with pytest.raises(WindowTooLargeError):
            window_counts(p, -1.0, [(0.0, 0.0)])
        assert window_counts(p, 4.999, [(0.0, 0.0)])[0] >= 0

    def test_matches_bruteforce(self, small_pattern):
        rng = np.random.default_rng(13)
        for _ in range(25):
            center = rng.uniform(0, 10, size=2)
            radius = rng.uniform(0.3, 4.9)
            fast = window_counts(small_pattern, radius, [center])[0]
            slow = count_in_window_brute(small_pattern.points,
                                         small_pattern.box.lengths,
                                         center, radius)
            assert fast == slow

    def test_wraparound_counting(self):
        box = BoxDomain(lengths=(10.0, 10.0))
        p = PointPattern(box=box, points=np.array([[9.8, 5.0]]))
        assert window_counts(p, 0.7, [(0.4, 5.0)])[0] == 1


class TestWindowCountsBatch:
    def test_matches_scalar_and_threads(self, poisson32):
        centers = random_centers(poisson32.box, 50, seed=3)
        one = window_counts(poisson32, 3.0, centers, workers=1)
        four = window_counts(poisson32, 3.0, centers, workers=4)
        assert np.array_equal(one, four)
        for c, n in zip(centers, one):
            assert window_counts(poisson32, 3.0, [c])[0] == n

    @staticmethod
    def _window_fns():
        box = BoxDomain(lengths=(8.0, 8.0))
        p = PointPattern(box=box, points=np.array([[1.0, 1.0], [4.0, 5.0]]))
        f = BinaryField(box=box, bits=np.eye(8, dtype=bool))
        return {
            "window_counts": lambda c, w: window_counts(p, 2.0, c, workers=w),
            "window_dark_fractions":
                lambda c, w: f.window_dark_fractions(c, 2.0, workers=w),
        }

    @pytest.mark.parametrize("fn", ["window_counts", "window_dark_fractions"])
    @pytest.mark.parametrize("centers", [
        [[np.nan, 1.0]], [[1.0, np.inf]], [[1.0, -np.inf]],
        [[1.0, 2.0, 3.0]],
    ])
    def test_bad_centers_rejected(self, fn, centers):
        with pytest.raises(ValueError):
            self._window_fns()[fn](centers, 1)

    @pytest.mark.parametrize("fn", ["window_counts", "window_dark_fractions"])
    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, fn, workers):
        with pytest.raises(ValueError, match="workers"):
            self._window_fns()[fn]([[1.0, 1.0]], workers)

    def test_grid_centers_shape(self):
        box = BoxDomain(lengths=(8.0, 4.0))
        g = grid_centers(box, (4, 2))
        assert g.shape == (8, 2)
        assert np.all(g >= 0) and np.all(g < box.lengths_array())


class TestVarianceCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_curve([1.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            synthetic_curve([1.0, 2.0], [1.0, -1.0])
        with pytest.raises(ValueError):
            VarianceCurve(radii=np.array([1.0]), mean=np.array([2.0]),
                          variance=np.array([0.3]), n_windows=100,
                          mode=MODE_FRACTION, dim=2)

    def test_csv_format(self):
        c = synthetic_curve([1.0, 2.0], [3.0, 4.0])
        lines = c.to_csv().strip().split("\n")
        assert lines[0] == "R,mean,variance,n_windows,mode"
        assert len(lines) == 3
        assert lines[1].endswith("number_count")

    def test_reuses_centers_across_radii(self, poisson32):
        # same seed, single-radius runs must match the joint run exactly
        joint = variance_curve(poisson32, radii=[2.0, 4.0], n_windows=400,
                               seed=5)
        lone = variance_curve(poisson32, radii=[2.0], n_windows=400, seed=5)
        assert joint.variance[0] == lone.variance[0]
        assert joint.mean[0] == lone.mean[0]

    def test_empty_pattern_rejected(self):
        box = BoxDomain(lengths=(10.0, 10.0))
        p = PointPattern(box=box, points=np.empty((0, 2)))
        with pytest.raises(DegenerateInputError):
            variance_curve(p, radii=[1.0, 2.0], n_windows=10, seed=0)

    def test_window_count_limit_refused_before_drawing(self, poisson32,
                                                        monkeypatch):
        # 10^11 2D centers would take 1.46 TiB; nothing is drawn at all
        monkeypatch.setattr(np.random, "default_rng", None)
        for n in (MAX_WINDOWS + 1, 10 ** 11):
            with pytest.raises(ValueError, match=f"at most {MAX_WINDOWS}"):
                variance_curve(poisson32, radii=[1.0, 2.0], n_windows=n)
            with pytest.raises(ValueError, match=f"at most {MAX_WINDOWS}"):
                random_centers(poisson32.box, n, seed=0)

    def test_one_kdtree_per_pattern(self, monkeypatch):
        import hupa.pattern

        built = []

        class CountingTree(hupa.pattern.cKDTree):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        box = BoxDomain(lengths=(32.0, 32.0))
        explicit = generate_poisson(box, 1.0, seed=9)
        auto = generate_poisson(box, 1.0, seed=10)
        monkeypatch.setattr(hupa.pattern, "cKDTree", CountingTree)
        variance_curve(explicit, radii=[1.0, 2.0, 3.0, 4.0], n_windows=200)
        assert len(built) == 1
        # the default sweep's nearest-neighbor distances share the tree
        curve = variance_curve(auto, n_windows=200)
        assert len(curve.radii) == 16
        assert len(built) == 2

    def test_variance_matches_handwritten(self, small_pattern):
        curve = variance_curve(small_pattern, radii=[1.5, 2.5], n_windows=64,
                               seed=8)
        centers = random_centers(small_pattern.box, 64, seed=8)
        for k, radius in enumerate((1.5, 2.5)):
            counts = [count_in_window_brute(small_pattern.points,
                                            small_pattern.box.lengths, c,
                                            radius)
                      for c in centers]
            assert math.isclose(curve.variance[k], variance_unbiased(counts),
                                rel_tol=1e-12)
            assert math.isclose(curve.mean[k], np.mean(counts), rel_tol=1e-12)

    def test_poisson_mean_and_variance_identity(self):
        # variance/mean in [0.85, 1.15] across R in [1, 8]; mean within 5%
        # of rho*pi*R^2 at R in {2, 4, 8} (at R=1 the single realization's
        # intensity fluctuation alone can exceed 5%)
        box = BoxDomain(lengths=(64.0, 64.0))
        p = generate_poisson(box, 1.0, seed=18)
        radii = [1.0, 2.0, 4.0, 8.0]
        curve = variance_curve(p, radii=radii, n_windows=20000, seed=18)
        for k, radius in enumerate(radii):
            assert 0.85 <= curve.variance[k] / curve.mean[k] <= 1.15
            if radius >= 2.0:
                area = math.pi * radius ** 2
                assert abs(curve.mean[k] - area) <= 0.05 * area


class TestRadiusSweep:
    def test_log_spacing(self):
        r = radius_sweep(1.0, 16.0, 5)
        assert np.allclose(r, [1.0, 2.0, 4.0, 8.0, 16.0])

    def test_default_radii_bounds(self, poisson32):
        r = default_radii(poisson32)
        assert len(r) == 16
        assert r[-1] <= 0.25 * 32.0 + 1e-12
        assert r[0] < r[-1]


class TestFitScaling:
    def test_exact_cubic_power_law(self):
        radii = [1.0, 2.0, 4.0, 8.0]
        curve = synthetic_curve(radii, [2.0 * r ** 3 for r in radii])
        fit = fit_scaling(curve)
        assert math.isclose(fit.alpha, 3.0, rel_tol=1e-12)
        assert math.isclose(fit.log_prefactor, math.log(2.0), rel_tol=1e-12)
        assert math.isclose(fit.r_squared, 1.0, abs_tol=1e-12)
        assert fit.fit_range == (1.0, 8.0)

    def test_constant_curve_slope_zero(self):
        curve = synthetic_curve([1.0, 2.0, 4.0], [5.0, 5.0, 5.0])
        fit = fit_scaling(curve)
        assert fit.alpha == 0.0
        assert fit.r_squared == 1.0

    def test_too_few_points(self):
        curve = synthetic_curve([1.0, 2.0, 4.0], [1.0, 2.0, 3.0])
        with pytest.raises(CannotFitError):
            fit_scaling(curve, fit_range=(1.5, 5.0))

    def test_zero_variance_in_range_suggests_narrowing(self):
        curve = synthetic_curve([1.0, 2.0, 4.0, 8.0], [0.0, 1.0, 2.0, 4.0])
        with pytest.raises(CannotFitError) as err:
            fit_scaling(curve)
        assert "narrow" in str(err.value)
        fit = fit_scaling(curve, fit_range=(2.0, 8.0))
        assert fit.n_points == 3

    def test_fit_range_restricts(self):
        radii = [1.0, 2.0, 4.0, 8.0, 16.0]
        var = [r ** 2 for r in radii[:4]] + [1e6]
        curve = synthetic_curve(radii, var)
        fit = fit_scaling(curve, fit_range=(1.0, 8.0))
        assert math.isclose(fit.alpha, 2.0, rel_tol=1e-12)
        assert fit.fit_range == (1.0, 8.0)

    def test_scale_invariance_of_alpha(self):
        radii = [1.0, 2.0, 4.0, 8.0]
        var = [3.0 * r ** 1.7 for r in radii]
        f1 = fit_scaling(synthetic_curve(radii, var))
        f2 = fit_scaling(synthetic_curve(radii, [7.5 * v for v in var]))
        assert math.isclose(f1.alpha, f2.alpha, rel_tol=1e-12)
        assert not math.isclose(f1.log_prefactor, f2.log_prefactor,
                                rel_tol=1e-12)


class TestClassify:
    def _fit(self, alpha, r2=0.99):
        return ScalingFit(alpha=alpha, log_prefactor=0.0, r_squared=r2,
                          n_points=4, fit_range=(1.0, 8.0))

    @pytest.mark.parametrize("alpha,label", [
        (2.0, "non_hyperuniform"),
        (1.0, "hyperuniform"),
        (1.5, "intermediate"),
        (1.75, "non_hyperuniform"),
        (1.25, "hyperuniform"),
        (1.26, "intermediate"),
        (1.74, "intermediate"),
    ])
    def test_number_mode_2d(self, alpha, label):
        assert classify(self._fit(alpha), 2).label == label

    @pytest.mark.parametrize("alpha,label", [
        (3.0, "non_hyperuniform"),
        (2.0, "hyperuniform"),
        (2.5, "intermediate"),
    ])
    def test_number_mode_3d(self, alpha, label):
        assert classify(self._fit(alpha), 3).label == label

    @pytest.mark.parametrize("alpha,label", [
        (-2.0, "non_hyperuniform"),
        (-3.0, "hyperuniform"),
        (-2.5, "intermediate"),
        (-2.25, "non_hyperuniform"),
        (-2.75, "hyperuniform"),
    ])
    def test_fraction_mode_2d(self, alpha, label):
        got = classify(self._fit(alpha), 2, mode=MODE_FRACTION)
        assert got.label == label
        assert got.mode == MODE_FRACTION

    def test_poor_fit_undetermined(self):
        assert classify(self._fit(2.0, r2=0.89), 2).label == "undetermined"
        assert classify(self._fit(2.0, r2=0.9), 2).label == "non_hyperuniform"

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            classify(self._fit(2.0), 4)


class TestAnalyze:
    def test_poisson_pipeline(self):
        box = BoxDomain(lengths=(64.0, 64.0))
        p = generate_poisson(box, 1.0, seed=18)
        curve, fit, order = analyze(p, radii=[2.0, 4.0, 8.0, 12.0],
                                    n_windows=4000, seed=18)
        assert curve.mode == MODE_NUMBER
        assert order.label == "non_hyperuniform"

    def test_lattice_pipeline(self):
        box = BoxDomain(lengths=(64.0, 64.0))
        p = generate_lattice(box, "square", spacing=1.0)
        _, _, order = analyze(p, radii=[2.0, 4.0, 8.0, 12.0],
                              n_windows=4000, seed=18)
        assert order.label == "hyperuniform"

    def test_perturbed_pipeline_and_growth_ratio(self):
        box = BoxDomain(lengths=(64.0, 64.0))
        p = generate_perturbed_lattice(box, 1.0, 0.3, seed=18)
        curve, _, order = analyze(p, radii=[2.0, 4.0, 8.0, 16.0 - 1e-9],
                                  n_windows=4000, seed=18)
        assert order.label == "hyperuniform"
        # growth from R=8 to R=16 far below the area-scaling factor 4
        assert curve.variance[3] / curve.variance[2] < 3.0

    def test_field_dispatch(self):
        rng = np.random.default_rng(2)
        bits = rng.random((64, 64)) < 0.5
        f = BinaryField(box=BoxDomain(lengths=(64.0, 64.0)), bits=bits)
        curve, fit, order = analyze(f, radii=[2.0, 4.0, 8.0],
                                    n_windows=2000, seed=3)
        assert curve.mode == MODE_FRACTION
        assert order.mode == MODE_FRACTION
        assert fit.alpha < 0

    def test_all_dark_field_is_degenerate(self):
        f = BinaryField(box=BoxDomain(lengths=(32.0, 32.0)),
                        bits=np.ones((32, 32), dtype=bool))
        with pytest.raises(DegenerateInputError,
                           match="degenerate field: zero variance at all "
                                 "radii"):
            analyze(f, radii=[2.0, 4.0, 8.0], n_windows=100)

    def test_determinism_across_workers(self, poisson32):
        a = analyze(poisson32, radii=[2.0, 4.0, 6.0], n_windows=500, seed=7,
                    workers=1)
        b = analyze(poisson32, radii=[2.0, 4.0, 6.0], n_windows=500, seed=7,
                    workers=4)
        assert np.array_equal(a[0].variance, b[0].variance)
        assert a[1].alpha == b[1].alpha
