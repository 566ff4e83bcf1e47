"""One path per carried state: a greedy run resumes from an earlier run's
state, and the protocol estimates densities once per distinct universe.

The property tests draw small integer coordinates, so duplicate rows and
equal distances (the tie-breaking cases) are common.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from denscore import (
    PointSet,
    ProtocolConfig,
    ValidationError,
    density_aware_greedy,
    k_center_greedy,
    margin_score,
    run_rounds,
)
from denscore import density, selection
from denscore.density import estimator_from_config
from test_assignment_reuse import _grid_dataset, _recording

KNN = {"kind": "knn", "k_neighbors": 3}


def _greedy(algorithm, points, s0, b):
    """One scratch greedy call, densities estimated on ``points``."""
    if algorithm == "k-center":
        return k_center_greedy(points, s0, b)
    return density_aware_greedy(points, estimator_from_config(KNN)(points), s0, b)


@st.composite
def protocols(draw, alpha):
    n = draw(st.integers(7, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dataset = _grid_dataset(rng, n, draw(st.integers(1, 3)))
    initial = tuple(draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True)))
    rounds = draw(st.integers(1, 4))
    algorithm = draw(st.sampled_from(["k-center", "density-aware"]))
    config = ProtocolConfig(
        budget=draw(st.integers(1, (n - len(initial)) // rounds)),
        rounds=rounds,
        alpha=alpha,
        algorithm=algorithm,
        estimator=KNN if algorithm == "density-aware" else None,
        initial=initial,
    )
    scores = margin_score(rng.dirichlet(np.ones(3), size=n))
    return replace(dataset, scores=scores), config


@settings(derandomize=True, max_examples=60, deadline=None)
@given(protocols(alpha=None))
def test_unfiltered_rounds_are_one_greedy_run(case):
    dataset, config = case
    calls = []
    greedy = "k_center_greedy" if config.algorithm == "k-center" else "density_aware_greedy"
    with _recording(selection, greedy, calls):
        result = run_rounds(dataset, config)
    assert len(result.rounds) == config.rounds
    whole = _greedy(config.algorithm, dataset.points, config.initial,
                    config.rounds * config.budget)
    assert result.selected == whole.selected
    pick_radii = np.concatenate([rnd.pick_radii for rnd in result.rounds])
    assert np.array_equal(pick_radii, whole.pick_radii)
    assert np.array_equal(calls[-1][1].radii, whole.radii)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(protocols(alpha=2.0))
def test_filtered_rounds_equal_scratch_greedies_on_their_universe(case):
    dataset, config = case
    result = run_rounds(dataset, config)
    selected = list(config.initial)
    for rnd in result.rounds:
        universe = rnd.universe
        sub = PointSet(dataset.points.features[universe], dataset.points.ids[universe])
        scratch = _greedy(config.algorithm, sub, np.searchsorted(universe, selected),
                          len(rnd.picks))
        assert rnd.picks == tuple(int(universe[i]) for i in scratch.picks)
        assert np.array_equal(rnd.pick_radii, scratch.pick_radii)
        selected.extend(rnd.picks)


def test_unfiltered_rounds_share_one_density_field():
    dataset = _grid_dataset(np.random.default_rng(1), 60, 2)
    calls = []
    with _recording(density, "knn_density", calls):
        result = run_rounds(dataset, ProtocolConfig(
            budget=4, rounds=3, algorithm="density-aware", estimator=KNN))
    assert [args[0].n for args, _ in calls] == [60]
    assert len(result.rounds) == 3
    assert all(rnd.densities is calls[0][1] for rnd in result.rounds)


def test_changed_universe_is_estimated_every_round():
    rng = np.random.default_rng(2)
    dataset = _grid_dataset(rng, 60, 2)
    dataset = replace(dataset, scores=margin_score(rng.dirichlet(np.ones(3), size=60)))
    calls = []
    with _recording(density, "knn_density", calls):
        result = run_rounds(dataset, ProtocolConfig(
            budget=4, rounds=3, alpha=2.0, algorithm="density-aware", estimator=KNN,
        ))
    assert len(result.rounds) == 3
    assert [args[0].n for args, _ in calls] == [r.universe.size for r in result.rounds]
    assert all(rnd.densities is field for rnd, (_, field) in zip(result.rounds, calls))


@pytest.mark.parametrize("s0", [None, [5, 17]])
@pytest.mark.parametrize("algorithm", ["k-center", "density-aware"])
def test_resumed_greedy_equals_one_call(algorithm, s0):
    points = _grid_dataset(np.random.default_rng(3), 40, 2).points
    first = _greedy(algorithm, points, s0, 6)
    whole = _greedy(algorithm, points, s0, 15)
    resumed = _greedy(algorithm, points, first, 9)
    assert resumed.selected == whole.selected
    assert first.picks + resumed.picks == whole.picks
    pick_radii = np.concatenate([first.pick_radii, resumed.pick_radii])
    assert np.array_equal(pick_radii, whole.pick_radii)
    assert np.array_equal(resumed.radii, whole.radii)


def test_state_of_another_point_set_is_rejected():
    rng = np.random.default_rng(4)
    state = k_center_greedy(PointSet.from_features(rng.normal(size=(10, 2))), None, 3)
    other = PointSet.from_features(rng.normal(size=(12, 2)))
    with pytest.raises(ValidationError, match="10 points, not 12"):
        k_center_greedy(other, state, 2)
    with pytest.raises(ValidationError, match="10 points, not 12"):
        density_aware_greedy(other, np.ones(12), state, 2)

