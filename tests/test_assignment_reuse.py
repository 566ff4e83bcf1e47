"""One coverage assignment per run: the protocol extends it round by round,
and the bound report and the 1-NN loss read it.

The property tests draw small integer coordinates, so duplicate rows and
equal distances (the tie-breaking cases) are common.
"""

import json
from dataclasses import astuple, replace
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from denscore import (
    BoundParams,
    LabeledPointSet,
    PluginLearner,
    PointSet,
    ProtocolConfig,
    assign_coverage,
    bound_report,
    margin_score,
    run_rounds,
    save_pointset,
)
from denscore import coverage, evaluation, selection
from denscore.cli import EXIT_OK, main

ALGORITHMS = ("k-center", "density-aware", "random")
ESTIMATORS = (
    {"kind": "knn", "k_neighbors": 3},
    {"kind": "kernel", "bandwidth": 1.5},
)


def _grid_dataset(rng, n, dim):
    features = rng.integers(0, 4, size=(n, dim)).astype(np.float64)
    labels = rng.integers(1, 4, size=n)
    return LabeledPointSet(PointSet.from_features(features), labels, num_classes=3)


@st.composite
def protocols(draw):
    n = draw(st.integers(6, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dataset = _grid_dataset(rng, n, draw(st.integers(1, 4)))
    dataset = replace(dataset, scores=margin_score(rng.dirichlet(np.ones(3), size=n)))
    algorithm = draw(st.sampled_from(ALGORITHMS))
    config = ProtocolConfig(
        budget=draw(st.integers(1, 4)),
        rounds=draw(st.integers(1, 4)),
        alpha=draw(st.sampled_from([None, 2.0])),
        algorithm=algorithm,
        estimator=(
            draw(st.sampled_from(ESTIMATORS)) if algorithm == "density-aware" else None
        ),
        seed=draw(st.integers(0, 100)),
        initial=tuple(draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))),
    )
    return dataset, config


def _recording(owner, name, calls):
    """Patch ``owner.name`` to append ``(args, result)`` of every call."""
    real = getattr(owner, name)

    def record(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, result))
        return result

    return mock.patch.object(owner, name, record)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(protocols())
def test_carried_assignment_and_reports_equal_scratch(case):
    dataset, config = case
    calls = []
    with _recording(selection, "assign_coverage", calls):
        result = run_rounds(dataset, config)
    carried = [cov for _, cov in calls]
    assert len(carried) == len(result.rounds)
    assert result.coverage is (carried[-1] if carried else None)
    params = BoundParams(num_classes=dataset.num_classes)
    selected = list(config.initial)
    for cov, rnd in zip(carried, result.rounds):
        selected.extend(rnd.picks)
        assert cov.selected.tolist() == sorted(selected)
        scratch = assign_coverage(dataset.points, selected)
        assert np.array_equal(cov.pi, scratch.pi)
        assert np.array_equal(cov.distances, scratch.distances)
        assert astuple(rnd.bound) == astuple(bound_report(scratch, params))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(2, 30), st.integers(1, 3), st.integers(0, 2**32 - 1), st.data())
def test_learner_predicts_the_owner_label(n, dim, seed, data):
    ds = _grid_dataset(np.random.default_rng(seed), n, dim)
    sel = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    cov = assign_coverage(ds.points, sel)
    predicted = PluginLearner.fit(ds, sel).predict(ds.points.features)
    assert np.array_equal(predicted, ds.labels[cov.pi])


def test_learner_matches_owners_on_conflicting_duplicates():
    # rows 0 and 1 coincide with different labels: both go to the lower
    # selected index, so row 1 is predicted label 2, not its own label 1
    ps = PointSet.from_features(np.array([[5.0], [5.0], [9.0], [6.0]]))
    ds = LabeledPointSet(ps, np.array([2, 1, 1, 1]), num_classes=2)
    cov = assign_coverage(ps, [1, 0, 2])
    predicted = PluginLearner.fit(ds, [1, 0, 2]).predict(ps.features)
    assert predicted.tolist() == ds.labels[cov.pi].tolist() == [2, 2, 1, 2]


# (algorithm, alpha, points the greedy claims, in how many calls, points
# the assignment claims, in how many calls) for a run of 4 rounds of 5
# picks from 2 initial points; a greedy that does not resume claims its
# initial set in one call, and an assignment its new points in one call
CLAIM_COUNTS = (
    # on every point and without densities, the greedy's state is the
    # assignment: each selected point is measured once in the whole run
    ("k-center", None, 22, 1 + 20, 0, 0),
    # a filtered universe changes every round, so each round's greedy
    # claims the selected points again (2 + 5, then 7 + 5, ...)
    ("k-center", 2.0, 7 + 12 + 17 + 22, 4 + 20, 22, 4),
    # density-weighted owners are not the nearest-selected ones
    ("density-aware", None, 22, 1 + 20, 22, 4),
)


def test_run_rounds_measures_each_selected_point_once():
    # a new selected point k is measured in one `_claim(..., block, ...)`
    # whose block holds k: the greedy's through the name `selection._claim`,
    # the assignment's through `coverage._claim`
    ds = _grid_dataset(np.random.default_rng(6), 200, 3)
    ds = replace(ds, scores=np.random.default_rng(7).uniform(size=ds.n))
    for (algorithm, alpha, greedy_points, greedy_calls, coverage_points,
         coverage_calls) in CLAIM_COUNTS:
        greedy, assigned = [], []
        with _recording(selection, "_claim", greedy), \
                _recording(coverage, "_claim", assigned):
            result = run_rounds(ds, ProtocolConfig(
                budget=5, rounds=4, alpha=alpha, algorithm=algorithm,
                estimator={"kind": "knn", "k_neighbors": 3}, initial=(3, 8)))
        assert len(result.rounds) == 4
        assert len(result.selected) == 22
        claimed = [k for args, _ in greedy for k in args[1].tolist()]
        measured = [k for args, _ in assigned for k in args[1].tolist()]
        assert (len(claimed), len(greedy), len(measured), len(assigned)) == (
            greedy_points, greedy_calls, coverage_points, coverage_calls)
        if alpha is None:  # every point is in the universe, at its own index
            assert claimed == list(result.selected)
        if coverage_points:  # each selected point in exactly one block
            assert sorted(measured) == sorted(result.selected)


def test_evaluate_assigns_once(tmp_path):
    ds = _grid_dataset(np.random.default_rng(7), 120, 2)
    save_pointset(ds, tmp_path / "dataset.csv")
    (tmp_path / "selection.csv").write_text("id\n40\n3\n77\n")
    cfg = tmp_path / "evaluate.json"
    cfg.write_text(json.dumps({
        "dataset": str(tmp_path / "dataset.csv"),
        "selection": str(tmp_path / "selection.csv"),
    }))
    claimed, predicted = [], []
    with _recording(coverage, "_claim", claimed), \
            _recording(evaluation.PluginLearner, "predict", predicted):
        code = main(["evaluate", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_OK
    # one assignment, measuring each selected point once, in one block
    assert len(claimed) == 1
    assert sorted(claimed[0][0][1].tolist()) == [3, 40, 77]
    assert predicted == []
