"""Density estimators, masked grid reconstruction, and calibration."""

import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import denscore

from denscore import (
    BETA,
    DEFAULT_TAU,
    DensityField,
    FeatureGrid,
    KernelSums,
    MaskedReconstructor,
    PointSet,
    ValidationError,
    assign_coverage,
    calibrate,
    density_aware_greedy,
    density_from_error,
    estimator_from_config,
    grid_density,
    kernel_density,
    knn_density,
    masked_reconstruction_error,
)
from denscore.cli import write_json
from denscore.density import DENSITY_FLOOR

import oracles


def _line(coords):
    arr = np.asarray(coords, dtype=np.float64).reshape(-1, 1)
    return PointSet.from_features(arr)


def _minmax(errors):
    """Errors min-max rescaled onto [0, 1]; all equal maps to all zeros."""
    errors = np.asarray(errors, dtype=np.float64)
    lo, hi = errors.min(), errors.max()
    return np.zeros_like(errors) if hi == lo else (errors - lo) / (hi - lo)


class TestDensityMap:
    def test_pinned_values(self):
        beta = math.exp(2.4)
        assert abs(density_from_error(0.0) - beta) <= 1e-12 * beta
        expected = beta / math.e
        assert abs(density_from_error(0.25) - expected) <= 1e-12 * expected
        assert density_from_error(2.0, tau=2.0) == pytest.approx(expected, rel=1e-15)

    def test_strictly_decreasing(self):
        errs = np.linspace(0.0, 3.0, 50)
        vals = density_from_error(errs)
        assert np.all(np.diff(vals) < 0)

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
            density_from_error(1.0, tau=-1.0)

    def test_minmax_normalization(self):
        # 1-nn distances 2, 2, 4, 6 normalize to 0, 0, 0.5, 1
        out = knn_density(_line([0.0, 2.0, 6.0, 12.0]), k_neighbors=1).values
        expected = [density_from_error(e) for e in (0.0, 0.0, 0.5, 1.0)]
        assert out.tolist() == expected
        # all errors equal normalize to zero, the largest density
        flat = knn_density(_line([0.0, 3.0, 6.0]), k_neighbors=1).values
        assert flat.tolist() == [BETA] * 3


class TestDensityFieldContainer:
    def test_range_enforced(self):
        with pytest.raises(ValidationError):
            DensityField(np.array([0.0, 1.0]))
        with pytest.raises(ValidationError):
            DensityField(np.array([2.0 * BETA]))
        ok = DensityField(np.array([BETA, 1.0]))
        assert ok.n == 2
        with pytest.raises(ValueError):
            ok.values[0] = 0.5

    @pytest.mark.parametrize("values, message", [
        ([], "non-empty 1-d array"),
        ([[1.0]], "non-empty 1-d array"),
        ([1.0, np.nan], "densities must be finite"),
        ([np.inf], "densities must be finite"),
    ])
    def test_invalid_values_name_the_problem(self, values, message):
        with pytest.raises(ValidationError, match=message):
            DensityField(np.array(values))


class TestKnnDensity:
    def test_collinear_ordering(self):
        field = knn_density(_line([0.0, 1.0, 3.0]), k_neighbors=1)
        beta = BETA
        # mean 1-nn distances are 1, 1, 2 -> normalized 0, 0, 1
        assert field.values[0] == pytest.approx(beta, rel=1e-15)
        assert field.values[1] == pytest.approx(beta, rel=1e-15)
        assert field.values[2] == pytest.approx(beta * math.exp(-4.0), rel=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(5, 25))
            dim = int(rng.integers(1, 4))
            feats = rng.normal(size=(n, dim))
            k = int(rng.integers(1, n))
            field = knn_density(PointSet.from_features(feats), k)
            rows = [list(map(float, row)) for row in feats]
            errs = _minmax(oracles.knn_errors(rows, k))
            expected = [BETA * math.exp(-e / DEFAULT_TAU) for e in errs]
            np.testing.assert_allclose(field.values, expected, atol=1e-10)

    def test_cluster_and_outlier(self):
        # three coincident points plus one far away
        ps = _line([1.0, 1.0, 1.0, 50.0])
        field = knn_density(ps, k_neighbors=2)
        assert field.values[0] == field.values[1] == field.values[2]
        assert field.values[3] < field.values[0]
        assert field.values[0] == pytest.approx(BETA, rel=1e-15)

    def test_denser_means_larger(self):
        rng = np.random.default_rng(21)
        feats = np.concatenate([
            rng.normal(0.0, 0.05, size=(30, 2)),
            rng.normal(8.0, 2.0, size=(30, 2)),
        ])
        field = knn_density(PointSet.from_features(feats), k_neighbors=5)
        assert field.values[:30].min() > field.values[30:].max()

    @pytest.mark.parametrize("case", ["coincident", "k_is_n_minus_1", "one_dim"])
    def test_kdtree_edge_cases_match_oracle(self, case):
        rng = np.random.default_rng(31)
        feats = rng.normal(scale=0.5, size=(14, 3))
        k = 3
        if case == "coincident":
            feats[:6] = feats[0]  # more than k + 1 copies of one point
        elif case == "k_is_n_minus_1":
            k = len(feats) - 1
        else:
            feats = feats[:, :1]
        field = knn_density(PointSet.from_features(feats), k)
        rows = [list(map(float, row)) for row in feats]
        errs = _minmax(oracles.knn_errors(rows, k))
        expected = [BETA * math.exp(-e / DEFAULT_TAU) for e in errs]
        np.testing.assert_allclose(field.values, expected, rtol=1e-12, atol=0)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="the system keeps no CPU affinity")
    def test_query_runs_in_tree_order_on_every_cpu(self, monkeypatch):
        import scipy.spatial

        queries = []

        class RecordingTree(scipy.spatial.cKDTree):
            def query(self, x, *args, **kwargs):
                queries.append((self.indices.copy(), np.array(x), kwargs))
                return super().query(x, *args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", RecordingTree)
        feats = np.random.default_rng(4).normal(size=(300, 3))
        knn_density(PointSet.from_features(feats), 5)
        [(indices, queried, kwargs)] = queries
        assert kwargs["workers"] == len(os.sched_getaffinity(0))
        assert not np.array_equal(indices, np.arange(300))  # not the input order
        np.testing.assert_array_equal(queried, feats[indices])

    def test_k_bounds(self):
        ps = _line([0.0, 1.0, 2.0])
        with pytest.raises(ValidationError):
            knn_density(ps, 0)
        with pytest.raises(ValidationError):
            knn_density(ps, 3)


@functools.cache
def _kernel_case(case):
    """Features and their exact squared distances.  The kernel takes rows
    ``2**15 // n`` at a time, so the first two cases end in a short block."""
    rng = np.random.default_rng(5)
    if case == "700x8":  # 15 blocks of 46 rows, then 10
        feats = rng.normal(size=(700, 8))
    elif case == "d1":  # 2 blocks of 109 rows, then 82
        feats = rng.normal(size=(300, 1))
    else:  # most points repeat another exactly, the rest are alone
        feats = rng.normal(size=(40, 3))[rng.integers(0, 40, size=90)]
    return feats, oracles.exact_squared_distances(feats.tolist())


class TestKernelDensity:
    def test_max_is_beta_exactly(self):
        rng = np.random.default_rng(3)
        ps = PointSet.from_features(rng.normal(size=(20, 2)))
        field = kernel_density(ps, bandwidth=1.0)
        assert field.values.max() == BETA

    def test_matches_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(8):
            n = int(rng.integers(4, 20))
            feats = rng.normal(size=(n, 2))
            h = float(rng.uniform(0.3, 2.0))
            field = kernel_density(PointSet.from_features(feats), h)
            rows = [list(map(float, row)) for row in feats]
            expected = oracles.kernel_density(rows, h, BETA)
            np.testing.assert_allclose(field.values, expected, atol=1e-10)

    @pytest.mark.parametrize("bandwidth", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("case", ["700x8", "d1", "duplicates"])
    def test_matches_fsum_oracle(self, case, bandwidth):
        feats, sq = _kernel_case(case)
        field = kernel_density(PointSet.from_features(feats), bandwidth)
        expected = np.array(oracles.kernel_density(feats, bandwidth, BETA, sq))
        floored = expected < DENSITY_FLOOR
        assert field.num_clamped == np.count_nonzero(floored)
        assert np.array_equal(np.flatnonzero(field.values == DENSITY_FLOOR),
                              np.flatnonzero(floored))
        np.testing.assert_allclose(field.values[~floored], expected[~floored],
                                   rtol=1e-12, atol=0)

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


@functools.cache
def _chain_order(case):
    """The order in which a chain of nested subsets takes the case's rows."""
    return np.random.default_rng(21).permutation(len(_kernel_case(case)[0]))


@functools.cache
def _oracle_on(case, bandwidth, size):
    """The fsum oracle on the first ``size`` rows of `_chain_order`,
    indexed by row (NaN for the rows left out)."""
    feats, sq = _kernel_case(case)
    rows = np.sort(_chain_order(case)[:size])
    sub_sq = [[sq[i][j] for j in rows] for i in rows]
    values = np.full(len(feats), np.nan)
    values[rows] = oracles.kernel_density(feats[rows], bandwidth, BETA, sub_sq)
    return values


class TestKernelExtension:
    @pytest.mark.parametrize("shuffled", [False, True])
    @pytest.mark.parametrize("bandwidth", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("case", ["700x8", "d1", "duplicates"])
    def test_nested_chain_matches_fsum_oracle(self, case, bandwidth, shuffled):
        """Each field of a chain of nested subsets, each extending the one
        before, matches the oracle on its own points.  Shuffled, the ids
        are no row positions and each call lists its rows in a new order."""
        feats, _ = _kernel_case(case)
        n = len(feats)
        rng = np.random.default_rng(8)
        ids = 1000 + 7 * rng.permutation(n) if shuffled else np.arange(n)
        field = None
        # one and many new rows, and a last step that adds the most blocks
        for size in (n // 3, n // 3 + 1, n // 2, n):
            rows = _chain_order(case)[:size]
            rows = rng.permutation(rows) if shuffled else np.sort(rows)
            field = kernel_density(PointSet(feats[rows], ids[rows]), bandwidth,
                                   previous=field)
            assert np.array_equal(field.kernel.ids, ids[rows])
            expected = _oracle_on(case, bandwidth, size)[rows]
            floored = expected < DENSITY_FLOOR
            assert field.num_clamped == np.count_nonzero(floored)
            assert np.array_equal(np.flatnonzero(field.values == DENSITY_FLOOR),
                                  np.flatnonzero(floored))
            np.testing.assert_allclose(field.values[~floored], expected[~floored],
                                       rtol=1e-12, atol=0)

    def test_extending_nothing_new_keeps_the_sums(self):
        # doubled sums tell reuse from a sum afresh, which gives the true ones
        feats, _ = _kernel_case("d1")
        points = PointSet.from_features(feats)
        first = kernel_density(points, 0.5)
        held = first.kernel
        doubled = DensityField(first.values, kernel=KernelSums(
            held.ids, held.features, held.bandwidth, 2 * held.sums))
        again = kernel_density(points, 0.5, previous=doubled)
        assert np.array_equal(again.kernel.sums, 2 * held.sums)
        assert np.array_equal(again.values, first.values)

    @staticmethod
    def _misfits():
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(12, 2))
        whole = PointSet.from_features(feats)
        part = kernel_density(PointSet(feats[:6], np.arange(6)), 0.5)
        moved = feats.copy()
        moved[4, 1] += 1e-9
        return {
            "no kernel sums": (whole, 0.5, knn_density(whole, 3)),
            "bandwidth": (whole, 0.7, part),
            "dimension": (PointSet.from_features(rng.normal(size=(12, 3))), 0.5, part),
            "features": (PointSet.from_features(moved), 0.5, part),
            "not a subset": (PointSet(feats, np.arange(12) + 3), 0.5, part),
        }

    @pytest.mark.parametrize(
        "misfit", ["no kernel sums", "bandwidth", "dimension", "features", "not a subset"])
    def test_misfitting_previous_sums_from_scratch(self, misfit):
        points, bandwidth, previous = self._misfits()[misfit]
        fresh = kernel_density(points, bandwidth)
        field = kernel_density(points, bandwidth, previous=previous)
        assert field.values.tobytes() == fresh.values.tobytes()
        assert field.kernel.sums.tobytes() == fresh.kernel.sums.tobytes()

    @pytest.mark.parametrize("part", ["ids", "sums", "features"])
    def test_kernel_sums_must_align(self, part):
        aligned = {"ids": np.arange(3), "features": np.zeros((3, 2)),
                   "sums": np.ones(3)}
        KernelSums(bandwidth=0.5, **aligned)
        misfit = {"ids": np.arange(3).reshape(3, 1), "sums": np.ones(4),
                  "features": np.zeros((2, 2))}[part]
        with pytest.raises(ValidationError, match="must align"):
            KernelSums(bandwidth=0.5, **{**aligned, part: misfit})

    def test_estimator_extends_its_last_field(self):
        est = estimator_from_config({"kind": "kernel", "bandwidth": 0.8})
        first = est(_line([0.0, 1.0, 5.0]))
        second = est(_line([0.0, 1.0, 5.0, 2.0]))
        # the estimator alone holds the sums it extends
        assert first.kernel is None and second.kernel is None
        held = kernel_density(_line([0.0, 1.0, 5.0]), 0.8)
        direct = kernel_density(_line([0.0, 1.0, 5.0, 2.0]), 0.8, previous=held)
        np.testing.assert_array_equal(first.values, held.values)
        np.testing.assert_array_equal(second.values, direct.values)
        # fewer points than the last call's: summed afresh
        fewer = est(_line([0.0, 1.0])).values
        assert fewer.tobytes() == kernel_density(_line([0.0, 1.0]), 0.8).values.tobytes()


def _floored_owners():
    """A tight cluster holding one selected point, then three far groups on
    a line.  Group k holds a selected owner at 1e13 k, its satellite at
    distance 1 on one side and a second selected point at distance
    1 + 0.05 k on the other, so the owners' raw kernel values fall with k.
    At bandwidth 0.1 every far point lies below the density floor, and the
    groups are far enough apart that each satellite's owner is its group's,
    with or without the floor.

    Returns the points, the initial set, the owners, the unfloored oracle
    densities, and the satellites ordered by their owners' raw values,
    lowest first: the greedy's picks, since a satellite's radius is 1 over
    its owner's density."""
    cluster = [0.001 * i for i in range(20)]
    satellites = [1e13 * k + 1.0 for k in (1, 2, 3)]
    selected = [x for k in (1, 2, 3) for x in (1e13 * k, 1e13 * k - 1.0 - 0.05 * k)]
    points = _line(cluster + satellites + selected)
    owners, sats, s0 = [23, 25, 27], [20, 21, 22], [0] + list(range(23, 29))
    exact = np.array(oracles.kernel_density(points.features.tolist(), 0.1, BETA))
    order = tuple(sat for _, sat in sorted(zip(exact[owners], sats)))
    return points, s0, owners, exact, order


class TestDensityFloor:
    def test_case_clamps_distinct_raw_values(self):
        points, s0, owners, exact, order = _floored_owners()
        field = kernel_density(points, 0.1)
        assert field.num_clamped == np.count_nonzero(exact < DENSITY_FLOOR)
        assert np.all(exact[owners] < DENSITY_FLOOR)
        assert np.all(exact[owners] > 0) and np.all(np.diff(exact[owners]) < 0)
        assert density_aware_greedy(points, exact, s0, 3).picks == order

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 2: 1e-12 floor collapses ordering")
    def test_clamped_owners_order_the_picks_by_raw_value(self):
        # the floored owners tie, so their satellites go in index order
        points, s0, _, _, order = _floored_owners()
        state = density_aware_greedy(points, kernel_density(points, 0.1), s0, 3)
        assert state.picks == order


class TestDensityCost:
    @pytest.mark.parametrize("estimator", ["knn", "kernel", "kernel-extension"])
    def test_peak_memory_below_one_dense_matrix(self, estimator):
        n = 3000
        ps = PointSet.from_features(np.random.default_rng(9).normal(size=(n, 8)))
        previous = None
        if estimator == "kernel-extension":
            # sums over every other point, which the extension completes
            previous = kernel_density(PointSet(ps.features[::2], ps.ids[::2]), 2.0)
        tracemalloc.start()
        try:
            if estimator == "knn":
                knn_density(ps, 10)
            else:
                kernel_density(ps, 2.0, previous=previous)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8

    def test_import_leaves_scipy_stats_unloaded(self):
        src = os.path.dirname(os.path.dirname(denscore.__file__))
        # scipy.spatial and scipy.special are imported by the code that
        # needs them, so that evaluate and generate never pay for them
        code = ("import sys, denscore; sys.exit(any(m in sys.modules for m in "
                "('scipy.stats', 'scipy.spatial', 'scipy.special')))")
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

    def test_center_weight_forced_to_zero(self):
        # a center unlike its constant neighborhood is reconstructed from
        # the neighbors alone, in both modes
        values = np.full((3, 3, 1), 0.25)
        values[1, 1, 0] = 4.0
        for rec in (MaskedReconstructor(3),
                    MaskedReconstructor(3, "similarity", temperature=0.5)):
            errors = masked_reconstruction_error(FeatureGrid(values), rec)
            assert errors[1, 1] == (4.0 - 0.25) ** 2

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
            masked_reconstruction_error(
                FeatureGrid(np.zeros((2, 2, 1))), MaskedReconstructor(3))

    def test_grid_density_composes_the_pieces(self):
        rng = np.random.default_rng(55)
        values = rng.uniform(size=(4, 5, 2))
        rec = MaskedReconstructor(3)
        field = grid_density(FeatureGrid(values), rec)
        errors = masked_reconstruction_error(FeatureGrid(values), rec).ravel()
        expected = density_from_error(_minmax(errors))
        np.testing.assert_array_equal(field.values, expected)


def _manual_field(values):
    return DensityField(values)


def _written(report, tmp_path):
    """``report`` as the CLI writes it to JSON."""
    path = tmp_path / "report.json"
    write_json(report, path)
    return json.loads(path.read_text())


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
        field = _manual_field(rho)
        rep = calibrate(field, assign_coverage(points, selected))
        assert rep.r_squared == pytest.approx(1.0, abs=1e-12)
        assert rep.slope == pytest.approx(1.0, abs=1e-12)
        assert rep.intercept == pytest.approx(0.0, abs=1e-9)
        assert rep.spearman == pytest.approx(-1.0, abs=1e-12)
        assert not rep.degenerate

    def test_slope_matches_least_squares_oracle(self):
        rng = np.random.default_rng(6)
        points, selected = self._clustered([1.0, 2.0, 3.5, 5.0, 8.0])
        rho = rng.uniform(0.2, 2.0, size=points.n)
        field = _manual_field(rho)
        rep = calibrate(field, assign_coverage(points, selected))
        x = [p[0] for p in rep.pairs]
        y = [p[1] for p in rep.pairs]
        slope, intercept, r2 = oracles.least_squares_fit(x, y)
        assert rep.slope == pytest.approx(slope, rel=1e-10)
        assert rep.intercept == pytest.approx(intercept, rel=1e-10, abs=1e-12)
        assert rep.r_squared == pytest.approx(r2, abs=1e-10)

    def test_constant_density_is_degenerate(self, tmp_path):
        points, selected = self._clustered([1.0, 2.0, 4.0])
        # ten of 40 sorted normal draws, whose equal 1/density values
        # deviate from their rounded mean
        draws = _line(np.sort(np.random.default_rng(0).normal(size=40)))
        for points, selected, rho in [
            (points, selected, 1.5),
            (draws, np.linspace(0, 39, 10).astype(int), 2.9),
        ]:
            field = _manual_field(np.full(points.n, rho))
            rep = calibrate(field, assign_coverage(points, selected))
            radial = np.array([y for _, y in rep.pairs])
            assert rep.degenerate
            assert rep.slope == 0.0
            assert rep.intercept == float(radial.mean())
            assert rep.r_squared == 0.0
            assert math.isnan(rep.spearman)
            assert _written(rep, tmp_path)["spearman"] is None

    def test_constant_radial_is_degenerate_with_perfect_fit(self):
        points, selected = self._clustered([2.0, 2.0, 2.0])
        rho = np.ones(points.n)
        rho[selected] = [0.5, 1.0, 2.0]
        # 0..29 with every third point from 1 selected: each area is
        # {k - 1, k, k + 1}, of radial mean 2/3, which the rounded mean of
        # the ten misses
        for points, selected, field, radial in [
            (points, selected, _manual_field(rho), 4.0 / 3.0),
            (_line(np.arange(30.0)), list(range(1, 30, 3)),
             _manual_field(np.linspace(1.0, 2.0, 30)), 2.0 / 3.0),
        ]:
            rep = calibrate(field, assign_coverage(points, selected))
            assert {y for _, y in rep.pairs} == {radial}
            assert rep.degenerate
            assert rep.slope == 0.0
            assert rep.intercept == radial
            assert rep.r_squared == 1.0
            assert math.isnan(rep.spearman)

    def test_bin_counts_cover_all_selected(self, tmp_path):
        points, selected = self._clustered([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        rng = np.random.default_rng(9)
        rho = rng.uniform(0.1, 3.0, size=points.n)
        field = _manual_field(rho)
        rep = calibrate(field, assign_coverage(points, selected), num_bins=4)
        assert rep.bin_counts.sum() == len(selected)
        assert rep.bin_edges.shape == (5,)
        d = _written(rep, tmp_path)
        for c, m in zip(d["bin_counts"], d["bin_mean_radial"]):
            assert (m is None) == (c == 0)

    def test_duplicate_selected_point_keeps_fit_finite(self):
        # point 7 duplicates point 3, so its coverage area is empty
        feats = np.random.default_rng(4).normal(size=(60, 2))
        feats[7] = feats[3]
        points = PointSet.from_features(feats)
        cov = assign_coverage(points, [3, 7, 10, 20, 30, 40])
        rep = calibrate(knn_density(points, 5), cov)
        assert math.isfinite(rep.r_squared)
        assert math.isfinite(rep.slope)
        assert math.isfinite(rep.spearman)

    def test_needs_three_selected(self):
        points, selected = self._clustered([1.0, 2.0])
        field = _manual_field(np.ones(points.n))
        with pytest.raises(ValidationError):
            calibrate(field, assign_coverage(points, selected))

    def test_needs_one_bin(self):
        points, selected = self._clustered([1.0, 2.0, 3.0])
        field = _manual_field(np.ones(points.n))
        with pytest.raises(ValidationError, match="num_bins must be >= 1"):
            calibrate(field, assign_coverage(points, selected), num_bins=0)

    def test_field_must_match_points(self):
        points, selected = self._clustered([1.0, 2.0, 3.0])
        field = _manual_field(np.ones(4))
        with pytest.raises(ValidationError):
            calibrate(field, assign_coverage(points, selected))


class TestEstimatorConfig:
    def test_knn_builder(self):
        est = estimator_from_config({"kind": "knn", "k_neighbors": 3})
        field = est(_line([0.0, 1.0, 2.0, 3.0, 10.0]))
        direct = knn_density(_line([0.0, 1.0, 2.0, 3.0, 10.0]), 3)
        np.testing.assert_array_equal(field.values, direct.values)

    def test_knn_clamps_to_small_pools(self):
        est = estimator_from_config({"kind": "knn", "k_neighbors": 50})
        field = est(_line([0.0, 1.0, 2.0]))
        direct = knn_density(_line([0.0, 1.0, 2.0]), 2)
        np.testing.assert_array_equal(field.values, direct.values)

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
        for field in ("beta", "metric", "normalize_errors"):
            with pytest.raises(ValidationError, match=field):
                estimator_from_config({"kind": "knn", "k_neighbors": 3, field: 1})
        with pytest.raises(ValidationError, match="beta"):
            estimator_from_config({"kind": "kernel", "bandwidth": 1.0, "beta": 1})
        with pytest.raises(ValidationError, match="k_neighbors"):
            estimator_from_config({"kind": "knn"})
        with pytest.raises(ValidationError, match="bandwidth"):
            estimator_from_config({"kind": "kernel"})
        with pytest.raises(ValidationError):
            estimator_from_config("knn")
