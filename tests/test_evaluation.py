"""Plug-in learner, core-set loss, and the comparison harness."""

import math

import numpy as np
import pytest

from denscore import (
    GeneratorSpec,
    LabeledPointSet,
    PluginLearner,
    PointSet,
    ValidationError,
    assign_coverage,
    compare_algorithms,
    core_set_loss,
    nonuniform_mixture_spec,
)

import oracles


def _dataset(coords, labels):
    ps = PointSet.from_features(np.asarray(coords, dtype=np.float64).reshape(-1, 1))
    labels = np.asarray(labels)
    return LabeledPointSet(ps, labels, num_classes=int(labels.max()))


class TestPluginLearner:
    def test_predicts_nearest_fitted_label(self):
        ds = _dataset([0.0, 1.0, 10.0, 11.0], [1, 2, 1, 1])
        learner = PluginLearner.fit(ds, [0, 2])
        preds = learner.predict(ds.points.features)
        assert preds.tolist() == [1, 1, 1, 1]
        assert learner.predict([[9.0]]).tolist() == [1]

    def test_fitted_points_predict_their_own_labels(self):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(30, 3))
        ds = LabeledPointSet(PointSet.from_features(feats),
                             rng.integers(1, 4, size=30), num_classes=3)
        sel = [3, 9, 17, 25]
        learner = PluginLearner.fit(ds, sel)
        preds = learner.predict(feats[sel])
        assert preds.tolist() == ds.labels[sel].tolist()

    def test_coordinate_tie_takes_lowest_fitted_index(self):
        ds = _dataset([5.0, 5.0, 9.0], [2, 1, 1])
        learner = PluginLearner.fit(ds, [1, 0])  # stored sorted: 0 first
        assert learner.predict([[5.0]]).tolist() == [2]

    def test_fit_validation(self):
        ds = _dataset([0.0, 1.0], [1, 1])
        with pytest.raises(ValidationError):
            PluginLearner.fit(ds, [])
        with pytest.raises(ValidationError):
            PluginLearner.fit(ds, [0, 0])
        with pytest.raises(ValidationError):
            PluginLearner.fit(ds, [2])


class TestCoreSetLoss:
    def test_hand_traced_quarter(self):
        ds = _dataset([0.0, 1.0, 10.0, 11.0], [1, 2, 1, 1])
        assert core_set_loss(ds, assign_coverage(ds.points, [0, 2])) == 0.25

    def test_hand_traced_half(self):
        ds = _dataset([0.0, 1.0], [1, 2])
        assert core_set_loss(ds, assign_coverage(ds.points, [0])) == 0.5

    def test_full_selection_has_zero_loss(self):
        ds = _dataset([0.0, 3.0, 7.0, 9.0], [1, 2, 2, 1])
        sel = [0, 1, 2, 3]
        assert core_set_loss(ds, assign_coverage(ds.points, sel)) == 0.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(88)
        for _ in range(15):
            n = int(rng.integers(4, 30))
            feats = rng.normal(size=(n, 2))
            labels = rng.integers(1, 4, size=n)
            ds = LabeledPointSet(PointSet.from_features(feats), labels,
                                 num_classes=3)
            b = int(rng.integers(1, n + 1))
            sel = sorted(rng.permutation(n)[:b].tolist())
            got = core_set_loss(ds, assign_coverage(ds.points, sel))
            rows = [list(map(float, r)) for r in feats]
            assert got == pytest.approx(
                oracles.core_set_loss(rows, labels.tolist(), sel), abs=1e-12)

    def test_selected_mean_vanishes_for_distinct_points(self):
        # with distinct coordinates the loss equals the plain 1-NN error rate
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(25, 2))
        labels = rng.integers(1, 3, size=25)
        ds = LabeledPointSet(PointSet.from_features(feats), labels, num_classes=2)
        sel = [1, 6, 12, 20]
        learner = PluginLearner.fit(ds, sel)
        preds = learner.predict(feats)
        error_rate = float(np.mean(preds != labels))
        assert core_set_loss(ds, assign_coverage(ds.points, sel)) == error_rate

    def test_assignment_dataset_mismatch_rejected(self):
        ds = _dataset([0.0, 1.0, 2.0], [1, 1, 2])
        other = _dataset([0.0, 1.0], [1, 1])
        with pytest.raises(ValidationError, match="does not match"):
            core_set_loss(ds, assign_coverage(other.points, [0, 1]))


class TestBoundOrdering:
    def test_random_subsets_never_violate(self):
        rng = np.random.default_rng(61)
        points = PointSet.from_features(rng.normal(size=(60, 3)))
        report = oracles.verify_bound_ordering(points, trials=50, seed=9)
        assert report.trials == 50
        assert report.violations == 0
        assert report.min_gap >= -1e-12

    def test_report_is_deterministic(self):
        rng = np.random.default_rng(62)
        points = PointSet.from_features(rng.normal(size=(30, 2)))
        a = oracles.verify_bound_ordering(points, trials=20, seed=3)
        b = oracles.verify_bound_ordering(points, trials=20, seed=3)
        assert a.min_gap == b.min_gap
        assert a.to_dict() == b.to_dict()

    def test_trials_must_be_positive(self):
        points = PointSet.from_features(np.zeros((3, 1)) + np.arange(3)[:, None])
        with pytest.raises(ValidationError):
            oracles.verify_bound_ordering(points, trials=0)


class TestStockSpecs:
    def test_mixture_counts_and_sigma_ratio(self):
        spec = nonuniform_mixture_spec(n=2000, dim=8, seed=4)
        assert sum(spec.counts) == 2000
        assert len(spec.means) == len(spec.sigmas) == len(spec.counts)
        assert all(len(m) == 8 for m in spec.means)
        s1, s2, s3 = sorted(set(spec.sigmas))
        assert s2 == pytest.approx(3.0 * s1, rel=1e-15)
        assert s3 == pytest.approx(9.0 * s1, rel=1e-15)
        # the widest component is the background and holds the most points
        assert spec.sigmas[-1] == s3
        assert spec.counts[-1] == max(spec.counts)
        assert spec.counts[-1] > sum(spec.counts) - spec.counts[-1]
        # every clustered component sits at one shared distance from the
        # origin; the background sits at the origin itself
        radii = [math.hypot(*m) for m in spec.means[:-1]]
        assert all(r == pytest.approx(radii[0], rel=1e-12) for r in radii)
        assert all(x == 0.0 for x in spec.means[-1])
        assert spec.seed == 4

    def test_mixture_scales_with_n(self):
        small = nonuniform_mixture_spec(n=200, dim=2)
        big = nonuniform_mixture_spec(n=2000, dim=2)
        assert sum(small.counts) == 200
        ratio_small = small.counts[0] / 200
        ratio_big = big.counts[0] / 2000
        assert ratio_small == pytest.approx(ratio_big, abs=0.01)

    def test_mixture_validation(self):
        with pytest.raises(ValidationError):
            nonuniform_mixture_spec(n=5)
        with pytest.raises(ValidationError):
            nonuniform_mixture_spec(dim=0)


class TestComparison:
    def test_report_structure(self):
        spec = nonuniform_mixture_spec(n=80, dim=2)
        report = compare_algorithms(spec, budget=4, rounds=1, seeds=(1, 2))
        assert len(report.rows) == 4
        algs = {r["algorithm"] for r in report.rows}
        assert algs == {"k-center", "density-aware"}
        for r in report.rows:
            assert r["num_selected"] == 4
            assert r["max_radial"] <= r["delta"] + 1e-12
        agg = report.aggregates
        for key in ("max_radial", "loss", "delta"):
            assert 0.0 <= agg["density_aware_win_rate"][key] <= 1.0
        assert set(agg["mean"]) == {"k-center", "density-aware"}

    def test_rows_reproduce_except_wall_clock(self):
        spec = nonuniform_mixture_spec(n=60, dim=2)
        a = compare_algorithms(spec, budget=3, rounds=2, seeds=(5,))
        b = compare_algorithms(spec, budget=3, rounds=2, seeds=(5,))
        for ra, rb in zip(a.rows, b.rows):
            da = {k: v for k, v in ra.items() if k != "runtime_ms"}
            db = {k: v for k, v in rb.items() if k != "runtime_ms"}
            assert da == db
        assert a.aggregates == b.aggregates

    def test_uniform_data_gives_no_systematic_edge(self):
        # on uniform data the density field is nearly flat, so the two
        # algorithms' coverage should differ only by noise: the gap between
        # the mean max radial distances stays within two pooled standard
        # errors
        spec = GeneratorSpec(kind="uniform-box", seed=0, means=((0.0, 0.0),),
                             sigmas=(1.0,), counts=(250,))
        report = compare_algorithms(spec, budget=10, rounds=1,
                                    seeds=tuple(range(1, 21)))
        kc = [r["max_radial"] for r in report.rows if r["algorithm"] == "k-center"]
        da = [r["max_radial"] for r in report.rows if r["algorithm"] == "density-aware"]
        kc = np.array(kc)
        da = np.array(da)
        gap = abs(kc.mean() - da.mean())
        pooled_se = math.sqrt(kc.var(ddof=1) / kc.size + da.var(ddof=1) / da.size)
        assert gap <= 2.0 * pooled_se

    def test_requires_seeds(self):
        with pytest.raises(ValidationError):
            compare_algorithms(
                GeneratorSpec(kind="uniform-box", seed=0, means=((0.0, 0.0),),
                              sigmas=(1.0,), counts=(50,)),
                2, 1, seeds=())
