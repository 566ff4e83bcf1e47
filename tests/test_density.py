"""Density estimators, masked grid reconstruction, and calibration."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import denscore

from denscore import (
    DEFAULT_BETA,
    DEFAULT_TAU,
    DensityField,
    FeatureGrid,
    MaskedReconstructor,
    PointSet,
    ValidationError,
    calibrate,
    density_from_error,
    estimator_from_config,
    grid_density,
    kernel_density,
    knn_density,
    masked_reconstruction_error,
    normalize_errors_minmax,
)
from denscore.data import block_rows

import oracles


def _line(coords):
    arr = np.asarray(coords, dtype=np.float64).reshape(-1, 1)
    return PointSet.from_features(arr)


class TestDensityMap:
    def test_pinned_values(self):
        beta = math.exp(2.4)
        assert abs(density_from_error(0.0) - beta) <= 1e-12 * beta
        expected = beta / math.e
        assert abs(density_from_error(0.25) - expected) <= 1e-12 * expected

    def test_strictly_decreasing(self):
        errs = np.linspace(0.0, 3.0, 50)
        vals = density_from_error(errs)
        assert np.all(np.diff(vals) < 0)

    def test_custom_beta_tau(self):
        assert density_from_error(2.0, beta=5.0, tau=2.0) == pytest.approx(
            5.0 / math.e, rel=1e-15)

    def test_scalar_in_scalar_out(self):
        out = density_from_error(0.5)
        assert isinstance(out, float)
        arr = density_from_error(np.array([0.5, 1.0]))
        assert arr.shape == (2,)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            density_from_error(-0.1)
        with pytest.raises(ValidationError):
            density_from_error(np.nan)
        with pytest.raises(ValidationError):
            density_from_error(1.0, beta=0.0)
        with pytest.raises(ValidationError):
            density_from_error(1.0, tau=-1.0)

    def test_minmax_normalization(self):
        out = normalize_errors_minmax(np.array([2.0, 4.0, 6.0]))
        assert out.tolist() == [0.0, 0.5, 1.0]
        flat = normalize_errors_minmax(np.array([3.0, 3.0, 3.0]))
        assert flat.tolist() == [0.0, 0.0, 0.0]


class TestDensityFieldContainer:
    def test_range_enforced(self):
        with pytest.raises(ValidationError):
            DensityField(np.array([0.0, 1.0]), beta=2.0, tau=1.0, estimator={})
        with pytest.raises(ValidationError):
            DensityField(np.array([3.0]), beta=2.0, tau=1.0, estimator={})
        ok = DensityField(np.array([2.0, 1.0]), beta=2.0, tau=1.0, estimator={})
        assert ok.n == 2
        with pytest.raises(ValueError):
            ok.values[0] = 0.5


class TestKnnDensity:
    def test_collinear_ordering(self):
        field = knn_density(_line([0.0, 1.0, 3.0]), k_neighbors=1)
        beta = DEFAULT_BETA
        # mean 1-nn distances are 1, 1, 2 -> normalized 0, 0, 1
        assert field.values[0] == pytest.approx(beta, rel=1e-15)
        assert field.values[1] == pytest.approx(beta, rel=1e-15)
        assert field.values[2] == pytest.approx(beta * math.exp(-4.0), rel=1e-12)

    def test_unnormalized_matches_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(5, 25))
            dim = int(rng.integers(1, 4))
            feats = rng.normal(size=(n, dim))
            k = int(rng.integers(1, n))
            field = knn_density(PointSet.from_features(feats), k,
                                normalize_errors=False)
            rows = [list(map(float, row)) for row in feats]
            errs = oracles.knn_errors(rows, k)
            expected = [DEFAULT_BETA * math.exp(-e / DEFAULT_TAU) for e in errs]
            np.testing.assert_allclose(field.values, expected, atol=1e-10)

    def test_cluster_and_outlier(self):
        # three coincident points plus one far away
        ps = _line([1.0, 1.0, 1.0, 50.0])
        field = knn_density(ps, k_neighbors=2)
        assert field.values[0] == field.values[1] == field.values[2]
        assert field.values[3] < field.values[0]
        assert field.values[0] == pytest.approx(DEFAULT_BETA, rel=1e-15)

    def test_denser_means_larger(self):
        rng = np.random.default_rng(21)
        feats = np.concatenate([
            rng.normal(0.0, 0.05, size=(30, 2)),
            rng.normal(8.0, 2.0, size=(30, 2)),
        ])
        field = knn_density(PointSet.from_features(feats), k_neighbors=5)
        assert field.values[:30].min() > field.values[30:].max()

    def test_torus_grid_is_uniform(self):
        xs, ys = np.meshgrid(np.arange(5.0), np.arange(5.0))
        feats = np.column_stack([xs.ravel(), ys.ravel()])
        ps = PointSet.from_features(feats)
        field = knn_density(ps, k_neighbors=4, torus_period=5.0)
        spread = field.values.max() - field.values.min()
        assert spread <= 1e-9
        # without the wraparound the corners are visibly thinner
        edge = knn_density(ps, k_neighbors=4)
        assert edge.values.max() - edge.values.min() > 1e-3

    @pytest.mark.parametrize(
        "case", ["coincident", "k_is_n_minus_1", "one_dim", "squared", "torus"]
    )
    def test_kdtree_edge_cases_match_oracle(self, case):
        rng = np.random.default_rng(31)
        feats = rng.normal(scale=0.5, size=(14, 3))
        k, metric, period = 3, "euclidean", None
        if case == "coincident":
            feats[:6] = feats[0]  # more than k + 1 copies of one point
        elif case == "k_is_n_minus_1":
            k = len(feats) - 1
        elif case == "one_dim":
            feats = feats[:, :1]
        elif case == "squared":
            metric = "squared-euclidean"
        else:
            period = [1.5, 2.0, 0.75]
            feats = feats - 1.0  # mostly negative, several periods out
        field = knn_density(PointSet.from_features(feats), k, metric,
                            normalize_errors=False, torus_period=period)
        rows = [list(map(float, row)) for row in feats]
        errs = oracles.knn_errors(rows, k, period, metric)
        expected = [DEFAULT_BETA * math.exp(-e / DEFAULT_TAU) for e in errs]
        np.testing.assert_allclose(field.values, expected, rtol=1e-12, atol=0)

    def test_torus_folds_coordinates_rounded_up_to_the_period(self):
        assert np.mod(-1e-17, 5.0) == 5.0
        xs, ys = np.meshgrid(np.arange(5.0), np.arange(5.0))
        feats = np.column_stack([xs.ravel(), ys.ravel()])
        nudged = np.where(feats == 0.0, -1e-17, feats)
        ref = knn_density(PointSet.from_features(feats), 4, torus_period=5.0)
        got = knn_density(PointSet.from_features(nudged), 4, torus_period=5.0)
        np.testing.assert_array_equal(got.values, ref.values)

    @pytest.mark.parametrize(
        "period", [[5.0, 5.0, 5.0], [5.0, np.nan], [np.inf, 5.0], 0.0, "five"]
    )
    def test_torus_period_validated(self, period):
        ps = PointSet.from_features(np.arange(8.0).reshape(4, 2))
        with pytest.raises(ValidationError, match="torus_period"):
            knn_density(ps, 1, torus_period=period)

    def test_k_bounds(self):
        ps = _line([0.0, 1.0, 2.0])
        with pytest.raises(ValidationError):
            knn_density(ps, 0)
        with pytest.raises(ValidationError):
            knn_density(ps, 3)

    def test_descriptor_recorded(self):
        field = knn_density(_line([0.0, 1.0, 4.0]), 2, normalize_errors=False)
        assert field.estimator["kind"] == "knn"
        assert field.estimator["k_neighbors"] == 2
        assert field.estimator["normalize_errors"] is False


class TestKernelDensity:
    def test_max_is_beta_exactly(self):
        rng = np.random.default_rng(3)
        ps = PointSet.from_features(rng.normal(size=(20, 2)))
        field = kernel_density(ps, bandwidth=1.0)
        assert field.values.max() == DEFAULT_BETA
        assert field.tau == 1.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(8):
            n = int(rng.integers(4, 20))
            feats = rng.normal(size=(n, 2))
            h = float(rng.uniform(0.3, 2.0))
            field = kernel_density(PointSet.from_features(feats), h)
            rows = [list(map(float, row)) for row in feats]
            expected = oracles.kernel_density(rows, h, DEFAULT_BETA)
            np.testing.assert_allclose(field.values, expected, atol=1e-10)

    def test_blocks_match_dense_formula(self):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(700, 8))
        assert block_rows(700, 8) < 700
        h = 2.0
        diff = feats[:, None, :] - feats[None, :, :]
        kernel = np.exp(-np.sum(diff * diff, axis=-1) / (2.0 * h**2))
        np.fill_diagonal(kernel, 0.0)
        raw = np.sum(kernel, axis=1) / (len(feats) - 1)
        expected = DEFAULT_BETA * raw / float(raw.max())
        field = kernel_density(PointSet.from_features(feats), h)
        assert np.array_equal(field.values, expected)

    def test_outlier_has_lowest_density(self):
        ps = _line([0.0, 0.1, 0.2, 0.3, 30.0])
        field = kernel_density(ps, bandwidth=0.5)
        assert np.argmin(field.values) == 4

    def test_symmetry(self):
        ps = _line([-2.0, -1.0, 1.0, 2.0])
        field = kernel_density(ps, bandwidth=1.0)
        assert field.values[0] == pytest.approx(field.values[3], rel=1e-14)
        assert field.values[1] == pytest.approx(field.values[2], rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValidationError):
            kernel_density(_line([0.0]), 1.0)
        with pytest.raises(ValidationError):
            kernel_density(_line([0.0, 1.0]), 0.0)


class TestDensityCost:
    @pytest.mark.parametrize("estimator", ["knn", "kernel"])
    def test_peak_memory_below_one_dense_matrix(self, estimator):
        n = 3000
        ps = PointSet.from_features(np.random.default_rng(9).normal(size=(n, 8)))
        tracemalloc.start()
        try:
            if estimator == "knn":
                knn_density(ps, 10)
            else:
                kernel_density(ps, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8

    def test_import_leaves_scipy_stats_unloaded(self):
        src = os.path.dirname(os.path.dirname(denscore.__file__))
        code = "import sys, denscore; sys.exit('scipy.stats' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
        assert done.returncode == 0


class TestMaskedReconstruction:
    def test_impulse_arithmetic_is_exact(self):
        values = np.zeros((5, 5, 1))
        imp = 0.8125  # exactly representable
        values[2, 2, 0] = imp
        errors = masked_reconstruction_error(
            FeatureGrid(values), MaskedReconstructor(3))
        assert errors[2, 2] == imp * imp
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di == dj == 0:
                    continue
                assert errors[2 + di, 2 + dj] == (imp / 8.0) ** 2
        mask = np.ones((5, 5), dtype=bool)
        mask[1:4, 1:4] = False
        assert np.all(errors[mask] == 0.0)

    def test_constant_grid_reconstructs(self):
        grid = FeatureGrid(np.full((6, 7, 3), 0.7))
        for rec in (MaskedReconstructor(3),
                    MaskedReconstructor(3, "similarity", temperature=0.5),
                    MaskedReconstructor(5)):
            errors = masked_reconstruction_error(grid, rec)
            assert np.all(errors <= 1e-28)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(17)
        base = rng.uniform(size=(6, 9, 2))
        left = FeatureGrid(base[:, 0:8, :])
        right = FeatureGrid(base[:, 1:9, :])
        e_left = masked_reconstruction_error(left, MaskedReconstructor(3))
        e_right = masked_reconstruction_error(right, MaskedReconstructor(3))
        # interior windows see identical content, so errors shift with it
        assert np.array_equal(e_right[1:5, 1:6], e_left[1:5, 2:7])

    def test_provided_stencil_selects_left_neighbor(self):
        stencil = np.zeros((3, 3))
        stencil[1, 0] = 1.0
        rec = MaskedReconstructor(3, "provided", provided_weights=stencil)
        ramp = np.arange(5.0)[None, :, None] * np.ones((4, 1, 1))
        errors = masked_reconstruction_error(FeatureGrid(ramp), rec)
        assert np.all(errors[:, 0] == 0.0)  # replicate padding: left of col 0 is itself
        assert np.all(errors[:, 1:] == 1.0)

    def test_center_weight_forced_to_zero(self):
        stencil = np.zeros((3, 3))
        stencil[1, 1] = 100.0
        stencil[1, 2] = 1.0
        rec = MaskedReconstructor(3, "provided", provided_weights=stencil)
        assert rec.provided_weights[1, 1] == 0.0
        assert rec.provided_weights[1, 2] == 1.0

    def test_similarity_prefers_matching_neighbors(self):
        # stripes: each pixel's horizontal neighbors match it exactly
        stripes = np.tile(np.array([0.0, 1.0])[:, None], (3, 5))[..., None]
        grid = FeatureGrid(stripes)
        sharp = masked_reconstruction_error(
            grid, MaskedReconstructor(3, "similarity", temperature=1e-3))
        uniform = masked_reconstruction_error(grid, MaskedReconstructor(3))
        assert sharp.max() < 1e-6
        assert uniform.max() > 0.1

    def test_matches_oracle_all_modes(self):
        rng = np.random.default_rng(29)
        values = rng.uniform(size=(5, 6, 2))
        grid = FeatureGrid(values)
        nested = values.tolist()

        uniform = masked_reconstruction_error(grid, MaskedReconstructor(3))
        np.testing.assert_allclose(
            uniform, oracles.masked_reconstruction_error(nested, 3), atol=1e-10)

        stencil = rng.uniform(size=(3, 3))
        provided = masked_reconstruction_error(
            grid, MaskedReconstructor(3, "provided", provided_weights=stencil))
        np.testing.assert_allclose(
            provided,
            oracles.masked_reconstruction_error(nested, 3, weights=stencil.tolist()),
            atol=1e-10)

        soft = masked_reconstruction_error(
            grid, MaskedReconstructor(3, "similarity", temperature=0.7))
        np.testing.assert_allclose(
            soft,
            oracles.masked_reconstruction_error(nested, 3, temperature=0.7),
            atol=1e-10)

    def test_five_by_five_window_against_oracle(self):
        rng = np.random.default_rng(41)
        values = rng.uniform(size=(6, 6, 1))
        got = masked_reconstruction_error(FeatureGrid(values),
                                          MaskedReconstructor(5))
        expected = oracles.masked_reconstruction_error(values.tolist(), 5)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_configuration_validation(self):
        with pytest.raises(ValidationError):
            MaskedReconstructor(4)
        with pytest.raises(ValidationError):
            MaskedReconstructor(1)
        with pytest.raises(ValidationError):
            MaskedReconstructor(3, "fancy")
        with pytest.raises(ValidationError):
            MaskedReconstructor(3, "similarity", temperature=0.0)
        with pytest.raises(ValidationError):
            MaskedReconstructor(3, "provided")
        with pytest.raises(ValidationError):
            MaskedReconstructor(3, "provided", provided_weights=np.zeros((5, 5)))
        center_only = np.zeros((3, 3))
        center_only[1, 1] = 1.0
        with pytest.raises(ValidationError):
            MaskedReconstructor(3, "provided", provided_weights=center_only)
        with pytest.raises(ValidationError):
            masked_reconstruction_error(
                FeatureGrid(np.zeros((2, 2, 1))), MaskedReconstructor(3))

    def test_grid_density_composes_the_pieces(self):
        rng = np.random.default_rng(55)
        values = rng.uniform(size=(4, 5, 2))
        rec = MaskedReconstructor(3)
        field = grid_density(FeatureGrid(values), rec)
        errors = masked_reconstruction_error(FeatureGrid(values), rec).ravel()
        expected = density_from_error(normalize_errors_minmax(errors))
        np.testing.assert_array_equal(field.values, expected)
        assert field.estimator["kind"] == "masked-reconstruction"


class TestCalibration:
    def _clustered(self, spreads):
        # one cluster per selected point: the selected point plus two
        # satellites at +/- spread, far enough apart not to interact
        coords = []
        selected = []
        for i, s in enumerate(spreads):
            c = 1000.0 * i
            selected.append(len(coords))
            coords.extend([c, c - s, c + s])
        return _line(coords), selected

    def test_exact_linear_relation_fits_perfectly(self):
        spreads = [1.5, 3.0, 6.0, 12.0]
        points, selected = self._clustered(spreads)
        # inclusive radial mean of each cluster is 2s/3; choose densities
        # with 1/rho equal to that so y = x exactly
        rho = np.ones(points.n)
        for kk, s in zip(selected, spreads):
            rho[kk] = 3.0 / (2.0 * s)
        field = DensityField(rho, beta=DEFAULT_BETA, tau=DEFAULT_TAU,
                             estimator={"kind": "manual"})
        rep = calibrate(points, field, selected)
        assert rep.r_squared == pytest.approx(1.0, abs=1e-12)
        assert rep.slope == pytest.approx(1.0, abs=1e-12)
        assert rep.intercept == pytest.approx(0.0, abs=1e-9)
        assert rep.spearman == pytest.approx(-1.0, abs=1e-12)
        assert not rep.degenerate

    def test_slope_matches_least_squares_oracle(self):
        rng = np.random.default_rng(6)
        points, selected = self._clustered([1.0, 2.0, 3.5, 5.0, 8.0])
        rho = rng.uniform(0.2, 2.0, size=points.n)
        field = DensityField(rho, beta=DEFAULT_BETA, tau=DEFAULT_TAU,
                             estimator={"kind": "manual"})
        rep = calibrate(points, field, selected)
        x = [p[0] for p in rep.pairs]
        y = [p[1] for p in rep.pairs]
        slope, intercept, r2 = oracles.least_squares_fit(x, y)
        assert rep.slope == pytest.approx(slope, rel=1e-10)
        assert rep.intercept == pytest.approx(intercept, rel=1e-10, abs=1e-12)
        assert rep.r_squared == pytest.approx(r2, abs=1e-10)

    def test_constant_density_is_degenerate(self):
        points, selected = self._clustered([1.0, 2.0, 4.0])
        field = DensityField(np.full(points.n, 1.5), beta=DEFAULT_BETA,
                             tau=DEFAULT_TAU, estimator={"kind": "manual"})
        rep = calibrate(points, field, selected)
        assert rep.degenerate
        assert rep.slope == 0.0
        assert rep.r_squared == 0.0
        assert math.isnan(rep.spearman)
        assert rep.to_dict()["spearman"] is None

    def test_constant_radial_is_degenerate_with_perfect_fit(self):
        points, selected = self._clustered([2.0, 2.0, 2.0])
        rho = np.ones(points.n)
        rho[selected] = [0.5, 1.0, 2.0]
        field = DensityField(rho, beta=DEFAULT_BETA, tau=DEFAULT_TAU,
                             estimator={"kind": "manual"})
        rep = calibrate(points, field, selected)
        assert rep.degenerate
        assert rep.r_squared == 1.0
        assert math.isnan(rep.spearman)

    def test_bin_counts_cover_all_selected(self):
        points, selected = self._clustered([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        rng = np.random.default_rng(9)
        rho = rng.uniform(0.1, 3.0, size=points.n)
        field = DensityField(rho, beta=DEFAULT_BETA, tau=DEFAULT_TAU,
                             estimator={"kind": "manual"})
        rep = calibrate(points, field, selected, num_bins=4)
        assert rep.bin_counts.sum() == len(selected)
        assert rep.bin_edges.shape == (5,)
        d = rep.to_dict()
        for c, m in zip(d["bin_counts"], d["bin_mean_radial"]):
            assert (m is None) == (c == 0)

    def test_duplicate_selected_point_keeps_fit_finite(self):
        # point 7 duplicates point 3, so its coverage area is empty
        feats = np.random.default_rng(4).normal(size=(60, 2))
        feats[7] = feats[3]
        points = PointSet.from_features(feats)
        rep = calibrate(points, knn_density(points, 5), [3, 7, 10, 20, 30, 40])
        assert math.isfinite(rep.r_squared)
        assert math.isfinite(rep.slope)
        assert math.isfinite(rep.spearman)

    def test_needs_three_selected(self):
        points, selected = self._clustered([1.0, 2.0])
        field = DensityField(np.ones(points.n), beta=DEFAULT_BETA,
                             tau=DEFAULT_TAU, estimator={"kind": "manual"})
        with pytest.raises(ValidationError):
            calibrate(points, field, selected)

    def test_field_must_match_points(self):
        points, selected = self._clustered([1.0, 2.0, 3.0])
        field = DensityField(np.ones(4), beta=DEFAULT_BETA, tau=DEFAULT_TAU,
                             estimator={"kind": "manual"})
        with pytest.raises(ValidationError):
            calibrate(points, field, selected)


class TestEstimatorConfig:
    def test_knn_builder(self):
        est = estimator_from_config({"kind": "knn", "k_neighbors": 3})
        field = est(_line([0.0, 1.0, 2.0, 3.0, 10.0]))
        direct = knn_density(_line([0.0, 1.0, 2.0, 3.0, 10.0]), 3)
        np.testing.assert_array_equal(field.values, direct.values)

    def test_knn_clamps_to_small_pools(self):
        est = estimator_from_config({"kind": "knn", "k_neighbors": 50})
        field = est(_line([0.0, 1.0, 2.0]))
        assert field.estimator["k_neighbors"] == 2

    def test_kernel_builder(self):
        est = estimator_from_config({"kind": "kernel", "bandwidth": 0.8})
        field = est(_line([0.0, 1.0, 5.0]))
        direct = kernel_density(_line([0.0, 1.0, 5.0]), 0.8)
        np.testing.assert_array_equal(field.values, direct.values)

    def test_rejects_unknowns_by_name(self):
        with pytest.raises(ValidationError, match="kind"):
            estimator_from_config({"kind": "histogram"})
        with pytest.raises(ValidationError, match="bandwidth"):
            estimator_from_config({"kind": "knn", "k_neighbors": 3,
                                   "bandwidth": 1.0})
        with pytest.raises(ValidationError, match="k_neighbors"):
            estimator_from_config({"kind": "knn"})
        with pytest.raises(ValidationError, match="bandwidth"):
            estimator_from_config({"kind": "kernel"})
        with pytest.raises(ValidationError):
            estimator_from_config("knn")
