"""Greedy selection, the random baseline, and the round protocol."""

import math
from dataclasses import replace

import numpy as np
import pytest

from denscore import (
    LabeledPointSet,
    PointSet,
    ProtocolConfig,
    ValidationError,
    density_aware_greedy,
    filter_candidates,
    k_center_greedy,
    knn_density,
    margin_score,
    run_rounds,
)

import oracles


def _line(coords):
    arr = np.asarray(coords, dtype=np.float64).reshape(-1, 1)
    return PointSet.from_features(arr)


def _labeled(coords, labels=None):
    ps = _line(coords)
    if labels is None:
        labels = np.ones(ps.n, dtype=np.int64)
    return LabeledPointSet(ps, np.asarray(labels), num_classes=int(np.max(labels)))


KNN1 = {"kind": "knn", "k_neighbors": 1}


class TestGreedyHandTraces:
    def test_k_center_farthest_first(self):
        state = k_center_greedy(_line([0.0, 1.0, 2.0, 10.0]), [0], 2)
        assert state.picks == (3, 2)
        assert state.selected == (0, 3, 2)
        assert state.pick_radii.tolist() == [100.0, 4.0]
        assert len(state.picks) == 2

    def test_bootstrap_starts_at_lowest_index(self):
        points = _line([5.0, 0.0, 10.0])
        state = k_center_greedy(points, None, 3)
        assert state.picks == (0, 1, 2)
        assert math.isinf(state.pick_radii[0])
        # no special case: every radius starts at inf and argmax takes index 0
        assert np.all(np.isinf(k_center_greedy(points, None, 0).radii))
        # coords 0 and 10 are both 25 away (squared) from coord 5: tie
        # resolves to index 1
        assert state.pick_radii.tolist()[1:] == [25.0, 25.0]

    def test_density_flips_the_second_pick(self):
        points = _line([0.0, 3.0, 9.0, 10.0])
        kc = k_center_greedy(points, [0], 2)
        assert kc.picks == (3, 1)
        # a sparse (low-density) first pick barely suppresses its neighbor,
        # so the next pick stays in the sparse region instead
        da = density_aware_greedy(points, np.array([1.0, 1.0, 1.0, 0.1]), [0], 2)
        assert da.picks == (3, 2)
        assert da.pick_radii.tolist() == [100.0, 10.0]

    def test_selected_points_end_at_radius_zero(self):
        points = _line([0.0, 2.0, 5.0, 9.0, 14.0])
        state = k_center_greedy(points, [1], 3)
        for i in state.selected:
            assert state.radii[i] == 0.0

    def test_zero_budget_returns_initial_only(self):
        state = k_center_greedy(_line([0.0, 1.0]), [1], 0)
        assert state.picks == ()
        assert state.selected == (1,)
        assert len(state.picks) == 0


class TestGreedyProperties:
    def test_uniform_density_reduces_to_k_center(self):
        rng = np.random.default_rng(100)
        for _ in range(20):
            n = int(rng.integers(5, 40))
            points = PointSet.from_features(rng.normal(size=(n, 3)))
            b = int(rng.integers(1, n))
            s0 = [int(rng.integers(0, n))]
            c = float(rng.uniform(0.2, 5.0))
            kc = k_center_greedy(points, s0, b)
            da = density_aware_greedy(points, np.full(n, c), s0, b)
            assert da.picks == kc.picks
            np.testing.assert_array_equal(da.radii, kc.radii / c)
            np.testing.assert_array_equal(da.pick_radii, kc.pick_radii / c)

    def test_common_density_rescale_changes_nothing(self):
        rng = np.random.default_rng(200)
        for _ in range(20):
            n = int(rng.integers(5, 30))
            points = PointSet.from_features(rng.normal(size=(n, 2)))
            dens = rng.uniform(0.1, 3.0, size=n)
            b = int(rng.integers(1, n))
            base = density_aware_greedy(points, dens, [0], b)
            scaled = density_aware_greedy(points, dens * 7.3, [0], b)
            assert scaled.picks == base.picks

    @pytest.mark.parametrize("case", ["subnormal", "normal", "k-center", "later-claim"])
    def test_overflow_raises_instead_of_collapsing_picks(self, case):
        # an overflowed d^2 / dens is inf, ties every point and would fall
        # back to index order: (0, 1, 2, 3, 4, 5)
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(50, 2))
        dens = rng.uniform(0.5, 2.0, size=50)
        points = PointSet.from_features(feats)
        assert density_aware_greedy(points, dens, None, 6).picks == (0, 23, 6, 20, 34, 49)
        # (dens + 1) / 1.5 lies in [1, 2], so its 1e-306 multiples are normal;
        # on the line, the claim of the first pick (1) is the first to overflow
        points, dens, s0, b = {
            "subnormal": (points, dens * 1e-310, None, 6),
            "normal": (PointSet.from_features(feats * 10), (dens + 1.0) / 1.5 * 1e-306,
                       None, 6),
            "k-center": (PointSet.from_features(feats * 1e155), None, None, 6),
            "later-claim": (_line([0.0, 1.2e154, -1.2e154, 5.0]), None, [0], 3),
        }[case]
        with pytest.raises(ValidationError, match="overflows.*changes no pick"):
            if dens is None:
                k_center_greedy(points, s0, b)
            else:
                density_aware_greedy(points, dens, s0, b)

    def test_radii_never_increase(self):
        rng = np.random.default_rng(300)
        for _ in range(10):
            n = int(rng.integers(6, 30))
            points = PointSet.from_features(rng.normal(size=(n, 2)))
            dens = rng.uniform(0.5, 2.0, size=n)
            state = density_aware_greedy(points, dens, [0], 0)
            for _ in range(n - 1):
                before = state.radii
                state = density_aware_greedy(points, dens, state, 1)
                assert np.all(state.radii <= before)
            assert len(state.selected) == n

    def test_picks_are_farthest_by_the_oracle_rule(self):
        # replay every k-center pick against a naive nearest-selected scan
        rng = np.random.default_rng(400)
        for _ in range(10):
            n = int(rng.integers(5, 25))
            feats = rng.normal(size=(n, 2))
            points = PointSet.from_features(feats)
            state = k_center_greedy(points, [0], n - 1)
            rows = [list(map(float, r)) for r in feats]
            current = [0]
            for pick in state.picks:
                best = max(
                    (t for t in range(n) if t not in current),
                    key=lambda t: (min(oracles.squared(rows[t], rows[k])
                                       for k in current), -t),
                )
                assert pick == best
                current.append(pick)

    def test_input_validation(self):
        points = _line([0.0, 1.0, 2.0])
        with pytest.raises(ValidationError):
            k_center_greedy(points, [0], 3)  # only 2 candidates left
        with pytest.raises(ValidationError):
            k_center_greedy(points, [0, 0], 1)
        with pytest.raises(ValidationError):
            k_center_greedy(points, [5], 1)
        with pytest.raises(ValidationError):
            k_center_greedy(points, [0], -1)
        with pytest.raises(ValidationError):
            density_aware_greedy(points, np.ones(2), [0], 1)
        with pytest.raises(ValidationError):
            density_aware_greedy(points, np.array([1.0, 0.0, 1.0]), [0], 1)
        for s0 in ([1.5], [True], [0, 2.7], [float("nan")]):
            with pytest.raises(ValidationError, match="initial index"):
                k_center_greedy(points, s0, 1)
            with pytest.raises(ValidationError, match="initial index"):
                density_aware_greedy(points, np.ones(3), s0, 1)
        # each named as given: no int64 wrap, no cast warning
        for s0, named in [
            ([10**20], "100000000000000000000 out of range"),
            ([1, None], "None is not an integer"),
            ([2**63], "9223372036854775808 out of range"),
            ([np.uint64(2**63)], "9223372036854775808 out of range"),
            ([1e20], r"1e\+20 out of range"),
            ([1, "a"], "'a' is not an integer"),
        ]:
            with pytest.raises(ValidationError, match=f"^initial index {named}"):
                k_center_greedy(points, s0, 1)
            with pytest.raises(ValidationError, match=f"^candidates index {named}"):
                filter_candidates(np.ones(3), alpha=2.0, b=1, candidates=s0)
        config = ProtocolConfig(budget=1, algorithm="k-center", initial=(10**20,))
        with pytest.raises(ValidationError, match="^initial index 100000000000000000000 "):
            run_rounds(LabeledPointSet(points, np.ones(3), 1), config)
        assert k_center_greedy(points, [1.0], 1).selected == (1, 0)

    def test_accepts_density_field(self):
        points = _line([0.0, 1.0, 2.0, 8.0])
        field = knn_density(points, 2)
        state = density_aware_greedy(points, field, [0], 2)
        same = density_aware_greedy(points, field.values, [0], 2)
        assert state.picks == same.picks


class TestScores:
    def test_margin_values(self):
        assert margin_score([0.5, 0.5]) == 1.0
        assert margin_score([1.0, 0.0]) == 0.0
        assert margin_score([0.6, 0.3, 0.1]) == pytest.approx(0.7, abs=1e-15)
        rows = margin_score([[0.5, 0.5], [0.9, 0.1]])
        assert rows.tolist() == pytest.approx([1.0, 0.2], abs=1e-15)

    def test_margin_validation(self):
        with pytest.raises(ValidationError):
            margin_score([1.0])
        with pytest.raises(ValidationError):
            margin_score([0.5, np.nan])


class TestFilterAndBaselines:
    # the margin scores of [.5 .5], [.9 .1], [.8 .2] and [.55 .45]
    SCORES = np.array([1.0, 0.2, 0.4, 0.9])

    def test_filter_keeps_top_alpha_b(self):
        kept = filter_candidates(self.SCORES, alpha=2.0, b=1)
        assert kept.tolist() == [0, 3]
        kept = filter_candidates(self.SCORES, alpha=1.5, b=2)  # ceil(3) = 3
        assert kept.tolist() == [0, 2, 3]

    def test_filter_caps_at_pool_size(self):
        assert filter_candidates(self.SCORES, alpha=50.0, b=2).tolist() == [0, 1, 2, 3]
        assert filter_candidates(self.SCORES, alpha=2.0, b=1,
                                 candidates=[2, 1]).tolist() == [1, 2]

    @pytest.mark.parametrize("alpha, b", [(1e308, 10), (math.inf, 1)])
    def test_overflowing_alpha_b_keeps_the_whole_pool(self, alpha, b):
        # alpha * b is inf: no ceil of it, the whole pool
        assert filter_candidates(self.SCORES, alpha, b).tolist() == [0, 1, 2, 3]
        assert filter_candidates(self.SCORES, alpha, b,
                                 candidates=[3, 1]).tolist() == [1, 3]

    @pytest.mark.parametrize("candidates, message", [
        ([1.5, 2.2], "candidates index 1.5 is not an integer"),
        ([True, False], "candidates index True is not an integer"),
        ([1, 2, 1], "duplicate index 1"),
        ([0, 4], "out of range"),
        ([], "candidates set must be non-empty"),
    ])
    def test_candidates_are_checked_indices(self, candidates, message):
        with pytest.raises(ValidationError, match=message):
            filter_candidates(self.SCORES, alpha=2.0, b=1, candidates=candidates)

    @pytest.mark.parametrize("scores", [
        np.array([[0.5, 0.5], [0.9, 0.1]]),
        np.array([0.3, np.nan, 0.1]),
        np.array([0.3, np.inf]),
    ])
    def test_filter_rejects_scores_that_are_not_1d_and_finite(self, scores):
        with pytest.raises(ValidationError, match="1-d array of finite values"):
            filter_candidates(scores, alpha=2.0, b=1)

    def test_filter_requires_alpha_b_at_least_one(self):
        with pytest.raises(ValidationError):
            filter_candidates(self.SCORES, alpha=0.4, b=2)

    def test_filter_ties_keep_lowest_index(self):
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        assert filter_candidates(scores, alpha=3.0, b=1).tolist() == [0, 1, 2]

    @staticmethod
    def _random(seed, budget=5, **fields):
        ps = PointSet.from_features(np.arange(20, dtype=np.float64).reshape(10, 2))
        ds = LabeledPointSet(ps, np.ones(10, dtype=np.int64), num_classes=1,
                             scores=[0, 0, 1, 0, 1, 0, 1, 0, 1, 0])
        return run_rounds(ds, ProtocolConfig(
            budget=budget, rounds=1, algorithm="random", seed=seed, **fields,
        )).rounds[0]

    def test_random_is_seeded_and_valid(self):
        a = self._random(7).picks
        assert self._random(7).picks == a
        assert len(set(a)) == 5
        assert sorted(a) == list(a)
        assert self._random(8).picks != a

    def test_random_respects_candidates(self):
        # alpha * budget = 4 keeps the four top scores, 2, 4, 6 and 8
        rnd = self._random(1, budget=3, alpha=4 / 3)
        assert rnd.pool.tolist() == [2, 4, 6, 8]
        assert set(rnd.picks) <= {2, 4, 6, 8}


class TestProtocol:
    def _dataset(self, n=40, seed=0):
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(n, 2))
        ps = PointSet.from_features(feats)
        labels = rng.integers(1, 3, size=n)
        return LabeledPointSet(ps, labels, num_classes=2)

    def test_multi_round_equals_one_shot_without_filtering(self):
        ds = self._dataset()
        for algorithm, est in (("density-aware", KNN1), ("k-center", None)):
            multi = run_rounds(ds, ProtocolConfig(
                budget=5, rounds=3, algorithm=algorithm, estimator=est))
            single = run_rounds(ds, ProtocolConfig(
                budget=15, rounds=1, algorithm=algorithm, estimator=est))
            assert multi.selected == single.selected
            assert len(multi.rounds) == 3 and len(single.rounds) == 1

    def test_round_accounting_and_disjoint_picks(self):
        ds = self._dataset()
        res = run_rounds(ds, ProtocolConfig(
            budget=4, rounds=3, algorithm="k-center", initial=(7,)))
        assert len(res.rounds) == 3
        all_picks = [p for r in res.rounds for p in r.picks]
        assert len(all_picks) == len(set(all_picks)) == 12
        assert 7 not in all_picks
        assert res.selected == (7, *all_picks)
        for r in res.rounds:
            assert r.bound.num_selected == 1 + 4 * r.round_index
            assert not r.partial

    def test_pool_exhaustion_flags_partial_round(self):
        ds = self._dataset(n=7)
        res = run_rounds(ds, ProtocolConfig(
            budget=3, rounds=5, algorithm="k-center"))
        assert res.exhausted
        assert len(res.rounds) == 3
        assert res.rounds[-1].partial
        assert sorted(res.selected) == list(range(7))
        assert res.rounds[-1].bound.delta == 0.0

    def test_bounds_tighten_as_selection_grows(self):
        ds = self._dataset()
        res = run_rounds(ds, ProtocolConfig(
            budget=5, rounds=4, algorithm="k-center"))
        deltas = [r.bound.delta for r in res.rounds]
        assert all(b <= a + 1e-12 for a, b in zip(deltas, deltas[1:]))

    def test_random_baseline_needs_no_scores(self):
        ds = self._dataset()
        res = run_rounds(ds, ProtocolConfig(
            budget=3, rounds=2, algorithm="random", seed=5))
        rerun = run_rounds(ds, ProtocolConfig(
            budget=3, rounds=2, algorithm="random", seed=5))
        assert res.selected == rerun.selected
        assert len(res.selected) == 6
        other = run_rounds(ds, ProtocolConfig(
            budget=3, rounds=2, algorithm="random", seed=6))
        assert res.selected != other.selected
        # picks differ between rounds: the per-round seed moves
        assert set(res.rounds[0].picks) != set(res.rounds[1].picks)

    @pytest.mark.parametrize("alpha, picks", [
        (None, [(9, 12, 37), (3, 14, 25), (0, 1, 15)]),
        (2.0, [(5, 33, 38), (18, 20, 28), (8, 12, 16)]),
    ])
    def test_random_picks_are_golden(self, alpha, picks):
        # each round takes a prefix of a PortableRng permutation of its pool,
        # seeded by derive_seed(seed, round); any change to that draw shows here
        ds = replace(self._dataset(), scores=np.random.default_rng(11).uniform(size=40))
        res = run_rounds(ds, ProtocolConfig(
            budget=3, rounds=3, alpha=alpha, algorithm="random", seed=5))
        assert [r.picks for r in res.rounds] == picks
        assert all(np.isnan(r.pick_radii).all() for r in res.rounds)

    def test_alpha_filter_restricts_the_pool(self):
        ds = self._dataset(n=20)
        scores = np.random.default_rng(11).uniform(size=20)
        res = run_rounds(replace(ds, scores=scores), ProtocolConfig(
            budget=2, rounds=2, alpha=2.0, algorithm="k-center"))
        first = res.rounds[0]
        assert first.pool.size == 4  # ceil(2*2)
        top4 = np.sort(np.argsort(-scores, kind="stable")[:4])
        assert first.pool.tolist() == top4.tolist()
        assert set(first.picks) <= set(first.pool.tolist())
        # round 2 pools exclude what round 1 took
        assert not (set(res.rounds[1].pool.tolist()) & set(first.picks))

    def test_alpha_without_scores_is_rejected(self):
        ds = self._dataset()
        with pytest.raises(ValidationError):
            run_rounds(ds, ProtocolConfig(budget=2, rounds=1, alpha=2.0,
                                          algorithm="k-center"))

    def test_scores_can_ride_on_the_dataset(self):
        ds = self._dataset(n=10)
        rng = np.random.default_rng(13)
        with_scores = LabeledPointSet(ds.points, ds.labels, ds.num_classes,
                                      scores=rng.uniform(size=10))
        res = run_rounds(with_scores, ProtocolConfig(
            budget=2, rounds=1, alpha=2.0, algorithm="k-center"))
        top4 = np.sort(np.argsort(-with_scores.scores, kind="stable")[:4])
        assert res.rounds[0].pool.tolist() == top4.tolist()

    def test_density_aware_requires_estimator(self):
        with pytest.raises(ValidationError):
            ProtocolConfig(budget=2, rounds=1, algorithm="density-aware")

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            ProtocolConfig(budget=0, rounds=1, algorithm="k-center")
        with pytest.raises(ValidationError):
            ProtocolConfig(budget=2, rounds=0, algorithm="k-center")
        with pytest.raises(ValidationError):
            ProtocolConfig(budget=2, rounds=1, algorithm="k-center", alpha=1.0)
        with pytest.raises(ValidationError):
            ProtocolConfig(budget=2, rounds=1, algorithm="quantum")
        # no distance but the Euclidean one: the metric is not a field
        with pytest.raises(TypeError, match="metric"):
            ProtocolConfig(budget=2, rounds=1, algorithm="k-center",
                           metric="cosine")

    def test_density_aware_protocol_runs_and_reports(self):
        ds = self._dataset(n=30)
        res = run_rounds(ds, ProtocolConfig(
            budget=4, rounds=2, algorithm="density-aware",
            estimator={"kind": "knn", "k_neighbors": 5}))
        assert len(res.selected) == 8
        for r in res.rounds:
            assert r.densities is not None
            assert r.densities.n == r.universe.size
            assert r.bound.tight_bound_value <= r.bound.classical_bound_value + 1e-12
