"""Greedy selection, uncertainty baselines, and the round protocol."""

import math

import numpy as np
import pytest

from denscore import (
    LabeledPointSet,
    PointSet,
    ProtocolConfig,
    ScoreMap,
    ValidationError,
    bound_report,
    density_aware_greedy,
    filter_candidates,
    k_center_greedy,
    knn_density,
    margin_score,
    normalize,
    run_rounds,
    uncertainty_select,
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
        assert state.budget_used == 2

    def test_bootstrap_starts_at_lowest_index(self):
        state = k_center_greedy(_line([5.0, 0.0, 10.0]), None, 3)
        assert state.picks == (0, 1, 2)
        assert math.isinf(state.pick_radii[0])
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
        assert state.budget_used == 0


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

    def test_radii_never_increase(self):
        rng = np.random.default_rng(300)
        for _ in range(10):
            n = int(rng.integers(6, 30))
            points = PointSet.from_features(rng.normal(size=(n, 2)))
            dens = rng.uniform(0.5, 2.0, size=n)
            state = density_aware_greedy(points, dens, [0], n - 1,
                                         keep_history=True)
            assert len(state.history) == n
            for before, after in zip(state.history, state.history[1:]):
                assert np.all(after <= before)

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

    def test_score_map_checks_probability_rows(self):
        with pytest.raises(ValidationError, match="row 1"):
            ScoreMap(np.array([[0.5, 0.5], [0.7, 0.2]]), "probabilities")
        with pytest.raises(ValidationError):
            ScoreMap(np.array([[0.5, 0.5]]), "grades")
        with pytest.raises(ValidationError):
            ScoreMap(np.array([[1.0]]), "probabilities")
        ok = ScoreMap(np.array([[0.25, 0.75]]), "probabilities")
        assert ok.scalar_scores().tolist() == pytest.approx([0.5], abs=1e-15)

    def test_scalar_scores_pass_through(self):
        sm = ScoreMap(np.array([0.3, 0.9]), "scores")
        assert sm.scalar_scores().tolist() == [0.3, 0.9]


class TestFilterAndBaselines:
    PROBS = np.array([
        [0.50, 0.50],   # margin 1.0
        [0.90, 0.10],   # margin 0.2
        [0.80, 0.20],   # margin 0.4
        [0.55, 0.45],   # margin 0.9
    ])

    def test_filter_keeps_top_alpha_b(self):
        sm = ScoreMap(self.PROBS, "probabilities")
        kept = filter_candidates(sm, alpha=2.0, b=1)
        assert kept.tolist() == [0, 3]
        kept = filter_candidates(sm, alpha=1.5, b=2)  # ceil(3) = 3
        assert kept.tolist() == [0, 2, 3]

    def test_filter_caps_at_pool_size(self):
        sm = ScoreMap(self.PROBS, "probabilities")
        assert filter_candidates(sm, alpha=50.0, b=2).tolist() == [0, 1, 2, 3]
        assert filter_candidates(sm, alpha=2.0, b=1,
                                 candidates=[1, 2]).tolist() == [1, 2]

    def test_filter_requires_alpha_b_at_least_one(self):
        sm = ScoreMap(self.PROBS, "probabilities")
        with pytest.raises(ValidationError):
            filter_candidates(sm, alpha=0.4, b=2)

    def test_filter_ties_keep_lowest_index(self):
        sm = ScoreMap(np.array([0.5, 0.5, 0.5, 0.5]), "scores")
        assert filter_candidates(sm, alpha=3.0, b=1).tolist() == [0, 1, 2]

    def test_margin_and_sconf_agree(self):
        rng = np.random.default_rng(12)
        p = rng.dirichlet(np.ones(4), size=30)
        sm = ScoreMap(p, "probabilities")
        for b in (1, 5, 10):
            a = uncertainty_select(sm, b, "margin")
            s = uncertainty_select(sm, b, "sconf")
            assert a.tolist() == s.tolist()

    def test_entropy_prefers_uniform_rows(self):
        p = np.array([
            [0.97, 0.01, 0.02],
            [1 / 3, 1 / 3, 1 / 3],
            [0.70, 0.20, 0.10],
            [1.00, 0.00, 0.00],  # zero entries are fine
        ])
        sm = ScoreMap(p, "probabilities")
        assert uncertainty_select(sm, 1, "entropy").tolist() == [1]
        assert uncertainty_select(sm, 3, "entropy").tolist() == [0, 1, 2]

    def test_random_is_seeded_and_valid(self):
        sm = ScoreMap(np.zeros(20), "scores")
        a = uncertainty_select(sm, 5, "random", seed=7)
        b = uncertainty_select(sm, 5, "random", seed=7)
        c = uncertainty_select(sm, 5, "random", seed=8)
        assert a.tolist() == b.tolist()
        assert len(set(a.tolist())) == 5
        assert sorted(a.tolist()) == a.tolist()
        assert a.tolist() != c.tolist()

    def test_random_respects_candidates(self):
        sm = ScoreMap(np.zeros(10), "scores")
        picks = uncertainty_select(sm, 3, "random", seed=1,
                                   candidates=[2, 4, 6, 8])
        assert set(picks.tolist()) <= {2, 4, 6, 8}

    def test_baseline_validation(self):
        sm = ScoreMap(np.array([0.1, 0.2]), "scores")
        with pytest.raises(ValidationError):
            uncertainty_select(sm, 1, "softmax")
        with pytest.raises(ValidationError):
            uncertainty_select(sm, 3, "random")
        with pytest.raises(ValidationError):
            uncertainty_select(sm, 1, "entropy")  # needs probabilities


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

    def test_normalize_features_selects_on_the_unit_sphere(self):
        rng = np.random.default_rng(17)
        ps = PointSet.from_features(rng.normal(size=(300, 4)) + 0.5)
        ds = LabeledPointSet(ps, rng.integers(1, 3, size=300), num_classes=2)
        res = run_rounds(ds, ProtocolConfig(
            budget=5, rounds=2, algorithm="k-center", normalize_features=True))
        unit = normalize(ps)
        expected = k_center_greedy(unit, [], 10).selected
        assert res.selected == expected
        assert res.rounds[-1].bound.delta == bound_report(unit, expected).delta
        raw = run_rounds(ds, ProtocolConfig(
            budget=5, rounds=2, algorithm="k-center"))
        assert raw.selected != expected

    def test_normalize_features_names_a_zero_row(self):
        feats = np.random.default_rng(3).normal(size=(20, 3))
        feats[7] = 0.0
        ps = PointSet(feats, np.arange(100, 120))
        ds = LabeledPointSet(ps, np.ones(20, dtype=np.int64), num_classes=1)
        with pytest.raises(ValidationError, match=r"\(id 107\)"):
            run_rounds(ds, ProtocolConfig(
                budget=5, rounds=2, algorithm="k-center",
                normalize_features=True))

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

    def test_entropy_baseline_uses_probabilities(self):
        ds = self._dataset(n=6)
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(2), size=6)
        scores = ScoreMap(probs, "probabilities")
        res = run_rounds(ds, ProtocolConfig(
            budget=2, rounds=2, algorithm="entropy"), scores=scores)
        ent = -np.sum(np.where(probs > 0, probs * np.log(probs), 0.0), axis=1)
        expected_first = np.sort(np.argsort(-ent, kind="stable")[:2])
        assert list(res.rounds[0].picks) == expected_first.tolist()
        with pytest.raises(ValidationError):
            run_rounds(ds, ProtocolConfig(budget=2, rounds=1,
                                          algorithm="entropy"))

    def test_alpha_filter_restricts_the_pool(self):
        ds = self._dataset(n=20)
        rng = np.random.default_rng(11)
        scores = ScoreMap(rng.uniform(size=20), "scores")
        res = run_rounds(ds, ProtocolConfig(
            budget=2, rounds=2, alpha=2.0, algorithm="k-center"),
            scores=scores)
        first = res.rounds[0]
        assert first.pool.size == 4  # ceil(2*2)
        top4 = np.sort(np.argsort(-scores.values, kind="stable")[:4])
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
        with pytest.raises(ValidationError):
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
