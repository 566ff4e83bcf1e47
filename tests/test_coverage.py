"""Coverage partitions, radii, and bound reports against naive oracles."""

import json
import math
import tracemalloc
from unittest import mock

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
    bound_report,
    classical_radius,
    density_aware_greedy,
    hoeffding_term,
    k_center_greedy,
    save_pointset,
)
from denscore import coverage
from denscore.cli import EXIT_OK, main
from denscore.data import squared_distances_to
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

    def test_extension_checks_its_previous_assignment(self):
        ps = _line([0.0, 1.0, 2.0, 5.0])
        prev = assign_coverage(ps, [0, 3])
        with pytest.raises(ValidationError, match="previous"):
            assign_coverage(ps, [0, 2], previous=prev)
        with pytest.raises(ValidationError, match="does not match"):
            assign_coverage(_line([0.0, 1.0]), [0, 1], previous=prev)
        # nothing new to measure: the previous assignment comes back
        same = assign_coverage(ps, [3, 0], previous=prev)
        scratch = assign_coverage(ps, [0, 3])
        assert same.pi.tolist() == scratch.pi.tolist()
        assert same.sq_distances.tolist() == scratch.sq_distances.tolist() == [0, 1, 4, 0]
        assert same.distances.tolist() == scratch.distances.tolist() == [0, 1, 2, 0]

    def test_duplicate_selected_point_leaves_empty_area(self):
        # point 1 duplicates point 0, so both land in area 0 and area 1 is
        # empty; its mean is 0 by convention, not NaN.
        ps = PointSet.from_features(np.array([[0.0], [0.0], [3.0], [4.0]]))
        rep = bound_report(assign_coverage(ps, [0, 1, 2]))
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

    @pytest.mark.parametrize("case", [None, "field", "assignment"])
    def test_initial_block_never_holds_its_distance_matrix(self, case):
        # a greedy claims its initial set of 1500 in one block, without
        # densities (None) or with them, and an assignment its 1500 points,
        # in tiles: neither holds |U| x |S| entries, nor a quarter of them
        n, m = 3000, 1500
        rng = np.random.default_rng(9)
        ps = PointSet.from_features(rng.normal(size=(n, 8)))
        initial = rng.permutation(n)[:m]
        values = rng.uniform(0.5, 2.0, size=n)
        tracemalloc.start()
        try:
            if case is None:
                state = k_center_greedy(ps, initial, 1)
            elif case == "field":
                state = density_aware_greedy(ps, values, initial, 1)
            else:
                cov = assign_coverage(ps, initial)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * m * 8 / 4
        if case == "assignment":
            assert cov.pi[initial].tolist() == initial.tolist()
        else:
            assert state.selected[:m] == tuple(initial.tolist())

    def test_initial_block_tie_goes_to_the_lower_index(self):
        # point 2 is as near to 0 as to 1, but the filter's bound is lower
        # to 1 (the larger norm once centred): the block must still measure
        # the pair with 0, the least bound of point 0's own row too
        ps = _line([0.0, 2.0, 1.0, -3.0])
        state = k_center_greedy(ps, [1, 0], 0)
        assert state.owners.tolist() == [0, 1, 0, 0]
        state = density_aware_greedy(ps, np.ones(4), [1, 0], 0)
        assert state.owners.tolist() == [0, 1, 0, 0]

    def test_overflowing_distance_raises(self):
        # finite coordinates whose squared distance is not
        ps = _line([0.0, 1e155, -1e155])
        with pytest.raises(ValidationError, match="overflows float64"):
            assign_coverage(ps, [0])
        # every squared distance to point 0 is finite: the claim of point 1
        # is the first to overflow, at point 2
        ps = _line([0.0, 1.2e154, -1.2e154, 5.0])
        with pytest.raises(ValidationError, match="selected point 1, .*overflows"):
            assign_coverage(ps, [0, 1, 2])

    def test_selected_validation(self):
        ps = _line([0.0, 1.0])
        with pytest.raises(ValidationError):
            assign_coverage(ps, [])
        with pytest.raises(ValidationError):
            assign_coverage(ps, [0, 2])
        with pytest.raises(ValidationError):
            assign_coverage(ps, [1, 1])
        for selected in ([0.5], [True], [0, 1.5]):
            with pytest.raises(ValidationError, match="selected index"):
                assign_coverage(ps, selected)
        # each named as given: no int64 wrap, no cast warning
        for selected, named in [
            ([10**20], "100000000000000000000 out of range"),
            ([1, None], "None is not an integer"),
            ([2**63], "9223372036854775808 out of range"),
            ([np.uint64(2**63)], "9223372036854775808 out of range"),
            ([1e20], r"1e\+20 out of range"),
            ([1, "a"], "'a' is not an integer"),
        ]:
            with pytest.raises(ValidationError, match=f"^selected index {named}"):
                assign_coverage(ps, selected)


@pytest.mark.parametrize("offset", [0.0, 1e8])
def test_claims_measure_little_more_than_the_points_they_take(offset):
    # 300 k-center picks, then 300 random points assigned in random order,
    # on a seeded 8-d Gaussian mixture: each run's claims measure at most
    # 5% of the n * claims pairs that measuring every point would, also
    # far from the origin
    n, dim = 3000, 8
    rng = np.random.default_rng(0)
    centres = rng.normal(scale=6.0, size=(6, dim))
    which = rng.integers(0, 6, size=n)
    spread = rng.uniform(0.5, 2.0, size=6)[which, None]
    points = PointSet.from_features(
        centres[which] + spread * rng.normal(size=(n, dim)) + offset)
    measured = []

    def recording(a, x):
        measured.append(a.shape[0])
        return squared_distances_to(a, x)

    with mock.patch.object(coverage, "squared_distances_to", recording):
        k_center_greedy(points, None, 300)
        greedy_rows = sum(measured)
        measured.clear()
        assign_coverage(points, rng.permutation(n)[:300])
        assignment_rows = sum(measured)
    assert greedy_rows <= 0.05 * n * 300
    assert assignment_rows <= 0.05 * n * 300


def test_an_extension_measures_no_more_than_its_points_one_at_a_time():
    # an assignment of 275 k-center picks extended by the next 25 in one
    # claim: a row that none of the 25 can take is not measured, so the
    # block measures no more pairs than 25 extensions by one point each
    n, dim = 3000, 8
    rng = np.random.default_rng(1)
    centres = rng.normal(scale=6.0, size=(6, dim))
    which = rng.integers(0, 6, size=n)
    points = PointSet.from_features(centres[which] + rng.normal(size=(n, dim)))
    picks = list(k_center_greedy(points, None, 300).selected)
    start = assign_coverage(points, picks[:275])
    measured = []

    def recording(a, x):
        measured.append(a.shape[0])
        return squared_distances_to(a, x)

    with mock.patch.object(coverage, "squared_distances_to", recording):
        block = assign_coverage(points, picks, previous=start)
        block_rows = sum(measured)
        measured.clear()
        single = start
        for m in range(276, 301):
            single = assign_coverage(points, picks[:m], previous=single)
        single_rows = sum(measured)
    assert block.pi.tobytes() == single.pi.tobytes()
    assert block.sq_distances.tobytes() == single.sq_distances.tobytes()
    assert block_rows <= single_rows


class TestRadii:
    def test_hand_traced_line(self):
        # coords 0,1,2,4; selected coords 0 and 4.  Coord 2 is equidistant
        # and lands in area 0, so area 0 = {0,1,2} with mean (0+1+2)/3.
        ps = _line([0.0, 1.0, 2.0, 4.0])
        cov = assign_coverage(ps, [0, 3])
        assert cov.pi.tolist() == [0, 0, 0, 3]
        assert classical_radius(cov) == 2.0
        radial = all_radial_distances(cov)
        assert radial[0] == pytest.approx(1.0, abs=1e-15)
        assert radial[3] == 0.0

    def test_matches_naive_loops(self):
        rng = np.random.default_rng(123)
        for trial in range(25):
            n = int(rng.integers(5, 40))
            dim = int(rng.integers(1, 5))
            feats = rng.normal(size=(n, dim))
            ps = PointSet.from_features(feats)
            b = int(rng.integers(1, min(n, 6) + 1))
            selected = sorted(rng.permutation(n)[:b].tolist())
            cov = assign_coverage(ps, selected)
            rows = [list(map(float, feats[i])) for i in range(n)]
            assert classical_radius(cov) == pytest.approx(
                oracles.classical_radius(rows, selected), abs=1e-10)
            radial = all_radial_distances(cov)
            assert list(radial) == selected
            for k in selected:
                expected = oracles.average_radial_distance(rows, selected, k)
                assert radial[k] == pytest.approx(expected, abs=1e-10)

    def test_mean_never_exceeds_max(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            n = int(rng.integers(4, 60))
            feats = rng.normal(size=(n, 3)) * float(rng.uniform(0.1, 10.0))
            ps = PointSet.from_features(feats)
            b = int(rng.integers(1, min(n, 8) + 1))
            selected = rng.permutation(n)[:b]
            cov = assign_coverage(ps, selected)
            delta = classical_radius(cov)
            worst_mean = max(all_radial_distances(cov).values())
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
        rep = bound_report(assign_coverage(ps, [0, 3]))
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
            rep = bound_report(assign_coverage(ps, rng.permutation(n)[:b]))
            assert rep.tight_bound_value <= rep.classical_bound_value + 1e-12

    def test_full_selection_leaves_only_hoeffding(self):
        ps = _line([0.0, 3.0, 7.0])
        rep = bound_report(assign_coverage(ps, [0, 1, 2]))
        assert rep.delta == 0.0
        assert rep.max_radial == 0.0
        assert rep.classical_bound_value == rep.hoeffding
        assert rep.tight_bound_value == rep.hoeffding

    def test_written_radial_is_keyed_by_dataset_id(self, tmp_path):
        # the report keys its radial means by row position; select and
        # evaluate write them keyed by dataset id
        ps = PointSet(np.array([[0.0], [1.0], [5.0]]), np.array([10, 20, 30]))
        assert set(bound_report(assign_coverage(ps, [0, 2])).radial) == {0, 2}
        data = tmp_path / "data.csv"
        save_pointset(LabeledPointSet(ps, np.ones(3, dtype=np.int64), 1), data)
        (tmp_path / "selection.csv").write_text("id\n10\n30\n")
        configs = {
            "evaluate": {"dataset": str(data),
                         "selection": str(tmp_path / "selection.csv")},
            "select": {"dataset": str(data),
                       "protocol": {"budget": 1, "rounds": 1,
                                    "algorithm": "k-center", "initial": [10]}},
        }
        for command, config in configs.items():
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(config))
            out = str(tmp_path / command)
            assert main([command, "--config", str(path), "--out", out]) == EXIT_OK
        for written in ("evaluate/evaluation.json", "select/bounds_round_01.json"):
            d = json.loads((tmp_path / written).read_text())
            assert set(d["radial"]) == {"10", "30"}
            assert d["params"]["confidence"] == 0.05


class TestBruteForce:
    def test_three_point_tie_is_lexicographic(self):
        ps = _line([0.0, 1.0, 10.0])
        subset, radius = oracles.brute_force_k_center(ps, 2)
        assert subset == (0, 2)
        assert radius == 1.0

    def test_full_budget_covers_exactly(self):
        ps = _line([0.0, 2.0, 5.0, 9.0])
        subset, radius = oracles.brute_force_k_center(ps, 4)
        assert subset == (0, 1, 2, 3)
        assert radius == 0.0

    def test_optimum_beats_random_subsets(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(6, 13))
            ps = PointSet.from_features(rng.normal(size=(n, 2)))
            b = int(rng.integers(1, 5))
            _, best = oracles.brute_force_k_center(ps, b)
            for _ in range(5):
                sel = rng.permutation(n)[:b]
                cov = assign_coverage(ps, sel)
                assert best <= classical_radius(cov) + 1e-12

    def test_size_guards(self):
        big = PointSet.from_features(np.random.default_rng(0).normal(size=(17, 2)))
        with pytest.raises(ValidationError):
            oracles.brute_force_k_center(big, 2)
        small = _line([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        with pytest.raises(ValidationError):
            oracles.brute_force_k_center(small, 6)
        with pytest.raises(ValidationError):
            oracles.brute_force_k_center(small, 0)
