"""Coverage partitions, radii, and bound reports against naive oracles."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from denscore import (
    BoundParams,
    LabeledPointSet,
    PluginLearner,
    PointSet,
    ValidationError,
    assign_coverage,
    average_radial_distance,
    bound_report,
    brute_force_k_center,
    classical_radius,
    hoeffding_term,
)
from denscore.coverage import ORDERING_RTOL, all_radial_distances

import oracles


def _line(coords):
    arr = np.asarray(coords, dtype=np.float64).reshape(-1, 1)
    return PointSet.from_features(arr)


class TestAssignment:
    def test_ties_go_to_lowest_selected_index(self):
        ps = _line([0.0, 1.0, 2.0])
        cov = assign_coverage(ps, [0, 2])
        assert cov.pi.tolist() == [0, 0, 2]

    def test_areas_partition_everything(self):
        rng = np.random.default_rng(0)
        ps = PointSet.from_features(rng.normal(size=(30, 3)))
        cov = assign_coverage(ps, [4, 11, 25])
        assert set(cov.pi.tolist()) <= {4, 11, 25}
        assert cov.pi[[4, 11, 25]].tolist() == [4, 11, 25]

    def test_duplicate_selected_point_leaves_empty_area(self):
        # point 1 duplicates point 0, so both land in area 0 and area 1 is
        # empty; its mean is 0 by convention, not NaN.
        ps = PointSet.from_features(np.array([[0.0], [0.0], [3.0], [4.0]]))
        rep = bound_report(ps, [0, 1, 2])
        assert rep.radial == {0: 0.0, 1: 0.0, 2: 0.5}
        assert rep.delta == 1.0
        assert rep.max_radial == 0.5

    @pytest.mark.parametrize("path", ["assign_coverage", "predict"])
    def test_never_holds_the_full_distance_matrix(self, path):
        n, b = 3000, 600
        feats = np.random.default_rng(8).normal(size=(n, 8))
        sel = np.arange(0, n, n // b)
        ps = PointSet.from_features(feats)
        learner = PluginLearner.fit(
            LabeledPointSet(ps, np.ones(n, dtype=np.int64), 1), sel)
        tracemalloc.start()
        try:
            if path == "assign_coverage":
                assign_coverage(ps, sel)
            else:
                learner.predict(feats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * b * 8

    def test_selected_validation(self):
        ps = _line([0.0, 1.0])
        with pytest.raises(ValidationError):
            assign_coverage(ps, [])
        with pytest.raises(ValidationError):
            assign_coverage(ps, [0, 2])
        with pytest.raises(ValidationError):
            assign_coverage(ps, [1, 1])

    def test_metric_does_not_change_assignment(self):
        rng = np.random.default_rng(5)
        ps = PointSet.from_features(rng.normal(size=(40, 2)))
        a = assign_coverage(ps, [3, 17, 29], "euclidean")
        b = assign_coverage(ps, [3, 17, 29], "squared-euclidean")
        assert np.array_equal(a.pi, b.pi)


class TestRadii:
    def test_hand_traced_line(self):
        # coords 0,1,2,4; selected coords 0 and 4.  Coord 2 is equidistant
        # and lands in area 0, so area 0 = {0,1,2} with mean (0+1+2)/3.
        ps = _line([0.0, 1.0, 2.0, 4.0])
        cov = assign_coverage(ps, [0, 3])
        assert cov.pi.tolist() == [0, 0, 0, 3]
        assert classical_radius(cov, ps) == 2.0
        assert average_radial_distance(cov, ps, 0) == pytest.approx(1.0, abs=1e-15)
        assert average_radial_distance(cov, ps, 3) == 0.0

    @pytest.mark.parametrize("summary", [
        classical_radius,
        all_radial_distances,
        lambda cov, ps: average_radial_distance(cov, ps, 0),
    ], ids=["classical_radius", "all_radial_distances", "average_radial_distance"])
    def test_mismatched_point_set_rejected(self, summary):
        ps = _line([0.0, 1.0, 2.0, 4.0])
        cov = assign_coverage(ps, [0, 3])
        with pytest.raises(ValidationError, match="assignment does not match point set"):
            summary(cov, _line([0.0, 1.0, 2.0]))

    def test_non_selected_query_rejected(self):
        ps = _line([0.0, 1.0])
        cov = assign_coverage(ps, [0])
        with pytest.raises(ValidationError):
            average_radial_distance(cov, ps, 1)

    def test_matches_naive_loops(self):
        rng = np.random.default_rng(123)
        for trial in range(25):
            n = int(rng.integers(5, 40))
            dim = int(rng.integers(1, 5))
            feats = rng.normal(size=(n, dim))
            ps = PointSet.from_features(feats)
            b = int(rng.integers(1, min(n, 6) + 1))
            selected = sorted(rng.permutation(n)[:b].tolist())
            metric = ("euclidean", "squared-euclidean")[trial % 2]
            cov = assign_coverage(ps, selected, metric)
            rows = [list(map(float, feats[i])) for i in range(n)]
            assert classical_radius(cov, ps) == pytest.approx(
                oracles.classical_radius(rows, selected, metric), abs=1e-10)
            for k in selected:
                expected = oracles.average_radial_distance(rows, selected, k, metric)
                assert average_radial_distance(cov, ps, k) == pytest.approx(
                    expected, abs=1e-10)

    def test_mean_never_exceeds_max(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            n = int(rng.integers(4, 60))
            feats = rng.normal(size=(n, 3)) * float(rng.uniform(0.1, 10.0))
            ps = PointSet.from_features(feats)
            b = int(rng.integers(1, min(n, 8) + 1))
            selected = rng.permutation(n)[:b]
            cov = assign_coverage(ps, selected)
            delta = classical_radius(cov, ps)
            worst_mean = max(all_radial_distances(cov, ps).values())
            assert worst_mean <= delta + ORDERING_RTOL * delta


class TestHoeffding:
    def test_closed_form_values(self):
        assert hoeffding_term(1.0, 1.0, 10) == 0.0
        assert hoeffding_term(1.0, math.exp(-2.0), 1) == 1.0
        assert hoeffding_term(2.0, math.exp(-1.0), 2) == 1.0

    def test_against_high_precision_arithmetic(self):
        with mpmath.workdps(50):
            expected = mpmath.sqrt(
                mpmath.mpf(4) * mpmath.log(mpmath.mpf(1) / mpmath.mpf("0.05"))
                / mpmath.mpf(2000))
            got = hoeffding_term(2.0, 0.05, 1000)
            assert abs(got - float(expected)) <= 1e-15 * float(expected)

    def test_monotone_in_n_and_confidence(self):
        values = [hoeffding_term(1.0, 0.05, n) for n in (10, 100, 1000)]
        assert values[0] > values[1] > values[2]
        assert hoeffding_term(1.0, 0.01, 100) > hoeffding_term(1.0, 0.1, 100)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            hoeffding_term(0.0, 0.05, 10)
        with pytest.raises(ValidationError):
            hoeffding_term(1.0, 0.0, 10)
        with pytest.raises(ValidationError):
            hoeffding_term(1.0, 1.5, 10)
        with pytest.raises(ValidationError):
            hoeffding_term(1.0, 0.05, 0)


class TestBoundParams:
    def test_coefficient_formula(self):
        p = BoundParams(lambda_l=0.5, lambda_eta=2.0, loss_bound=3.0,
                        num_classes=4)
        assert p.coefficient == 0.5 + 2.0 * 3.0 * 4
        assert BoundParams().coefficient == 2.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            BoundParams(lambda_l=-1.0)
        with pytest.raises(ValidationError):
            BoundParams(loss_bound=0.0)
        with pytest.raises(ValidationError):
            BoundParams(num_classes=0)
        with pytest.raises(ValidationError):
            BoundParams(confidence=1.0)


class TestBoundReport:
    def test_hand_traced_values(self):
        ps = _line([0.0, 1.0, 2.0, 4.0])
        rep = bound_report(ps, [0, 3])
        eps = math.sqrt(math.log(1.0 / 0.05) / 8.0)
        assert rep.delta == 2.0
        assert rep.max_radial == pytest.approx(1.0, abs=1e-15)
        assert rep.hoeffding == pytest.approx(eps, abs=1e-15)
        assert rep.classical_bound_value == pytest.approx(4.0 + eps, abs=1e-15)
        assert rep.tight_bound_value == pytest.approx(2.0 + eps, abs=1e-15)
        assert rep.n == 4 and rep.num_selected == 2

    def test_tight_bound_never_looser(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            n = int(rng.integers(5, 50))
            ps = PointSet.from_features(rng.normal(size=(n, 2)))
            b = int(rng.integers(1, min(n, 6) + 1))
            rep = bound_report(ps, rng.permutation(n)[:b])
            assert rep.tight_bound_value <= rep.classical_bound_value + 1e-12

    def test_full_selection_leaves_only_hoeffding(self):
        ps = _line([0.0, 3.0, 7.0])
        rep = bound_report(ps, [0, 1, 2])
        assert rep.delta == 0.0
        assert rep.max_radial == 0.0
        assert rep.classical_bound_value == rep.hoeffding
        assert rep.tight_bound_value == rep.hoeffding

    def test_to_dict_translates_ids(self):
        ps = PointSet(np.array([[0.0], [1.0], [5.0]]), np.array([10, 20, 30]))
        rep = bound_report(ps, [0, 2])
        d = rep.to_dict(ids=ps.ids)
        assert set(d["radial"]) == {"10", "30"}
        assert d["params"]["confidence"] == 0.05


class TestBruteForce:
    def test_three_point_tie_is_lexicographic(self):
        ps = _line([0.0, 1.0, 10.0])
        subset, radius = brute_force_k_center(ps, 2)
        assert subset == (0, 2)
        assert radius == 1.0

    def test_full_budget_covers_exactly(self):
        ps = _line([0.0, 2.0, 5.0, 9.0])
        subset, radius = brute_force_k_center(ps, 4)
        assert subset == (0, 1, 2, 3)
        assert radius == 0.0

    def test_squared_metric_squares_the_radius(self):
        ps = _line([0.0, 1.0, 10.0])
        _, r_euc = brute_force_k_center(ps, 2, "euclidean")
        _, r_sq = brute_force_k_center(ps, 2, "squared-euclidean")
        assert r_sq == pytest.approx(r_euc**2, abs=1e-12)

    def test_optimum_beats_random_subsets(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(6, 13))
            ps = PointSet.from_features(rng.normal(size=(n, 2)))
            b = int(rng.integers(1, 5))
            _, best = brute_force_k_center(ps, b)
            for _ in range(5):
                sel = rng.permutation(n)[:b]
                cov = assign_coverage(ps, sel)
                assert best <= classical_radius(cov, ps) + 1e-12

    def test_size_guards(self):
        big = PointSet.from_features(np.random.default_rng(0).normal(size=(17, 2)))
        with pytest.raises(ValidationError):
            brute_force_k_center(big, 2)
        small = _line([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        with pytest.raises(ValidationError):
            brute_force_k_center(small, 6)
        with pytest.raises(ValidationError):
            brute_force_k_center(small, 0)
