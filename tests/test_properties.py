"""Invariants the method rests on, checked on generated inputs.

Points sit on a small integer grid (optionally scaled), so duplicate rows
and equal distances, the tie-breaking cases, are common.  Every test is
derandomized, so a run is reproducible.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import oracles
from denscore import (
    BETA,
    LabeledPointSet,
    PointSet,
    assign_coverage,
    bound_report,
    density_aware_greedy,
    k_center_greedy,
    load_pointset,
    save_pointset,
)
from denscore.coverage import ORDERING_RTOL
from denscore.density import DENSITY_FLOOR

SCALES = (1e-3, 1.0, 7.5, 1e3)
# Every density a field can hold, from the floor up to BETA: equal values
# (ties) are common, and sqrt-density ratios reach about 3e6.
DENSITIES = (st.sampled_from([DENSITY_FLOOR, 1e-9, 2.0**-10, 0.25, 1.0, 4.0, BETA])
             | st.floats(DENSITY_FLOOR, BETA))


@st.composite
def grid_points(draw, min_n=2, max_n=25, max_dim=3):
    n = draw(st.integers(min_n, max_n))
    dim = draw(st.integers(1, max_dim))
    coords = draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
        min_size=n, max_size=n,
    ))
    scale = draw(st.sampled_from(SCALES))
    return PointSet.from_features(np.asarray(coords, dtype=np.float64) * scale)


@st.composite
def greedy_runs(draw, max_dim=3):
    """Points, densities (None for k-center), an initial set and a budget
    up to everything left."""
    points = draw(grid_points(max_dim=max_dim))
    n = points.n
    densities = draw(st.none() | st.lists(DENSITIES, min_size=n, max_size=n))
    s0 = draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))
    budget = draw(st.integers(0, n - len(s0)))
    return points, densities, s0, budget


def _stepped(points, densities, s0, budget):
    """Yield the radii before each pick and the state after it, stepping
    the greedy one pick at a time from its initial state."""

    def greedy(start, b):
        if densities is None:
            return k_center_greedy(points, start, b)
        return density_aware_greedy(points, np.asarray(densities), start, b)

    state = greedy(s0, 0)
    for _ in range(budget):
        before = state.radii
        state = greedy(state, 1)
        yield before, state


@settings(derandomize=True, max_examples=80, deadline=None)
@given(greedy_runs())
def test_stepping_the_greedy_never_raises_a_radius(run):
    for before, state in _stepped(*run):
        assert np.all(state.radii <= before)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(greedy_runs())
def test_each_pick_is_the_lowest_index_of_the_largest_radius(run):
    for before, state in _stepped(*run):
        unselected = np.ones(before.size, dtype=bool)
        unselected[list(state.selected[:-1])] = False
        largest = before[unselected].max()
        expected = int(np.flatnonzero(unselected & (before == largest))[0])
        assert state.picks[-1] == expected
        assert state.pick_radii[-1] == largest


@settings(derandomize=True, max_examples=80, deadline=None)
@given(grid_points(), st.data())
def test_worst_area_mean_never_exceeds_the_covering_radius(points, data):
    selected = data.draw(st.lists(
        st.integers(0, points.n - 1), min_size=1, unique=True))
    report = bound_report(assign_coverage(points, selected))
    assert report.max_radial <= report.delta * (1 + ORDERING_RTOL)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(grid_points(min_n=1), st.floats(1e-6, 1e6), st.booleans(), st.data())
def test_csv_save_then_load_round_trips_exactly(points, factor, scored, data):
    n = points.n
    ids = data.draw(st.lists(
        st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n, unique=True))
    labels = np.asarray(data.draw(st.lists(
        st.integers(1, 4), min_size=n, max_size=n)))
    scores = points.features[:, 0] / factor if scored else None
    dataset = LabeledPointSet(
        PointSet(points.features * factor, ids), labels,
        num_classes=int(labels.max()), scores=scores,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.csv"
        save_pointset(dataset, path)
        loaded = load_pointset(path)
    assert loaded.points.ids.tolist() == ids
    assert loaded.points.features.tobytes() == dataset.points.features.tobytes()
    assert loaded.labels.tolist() == labels.tolist()
    assert loaded.num_classes == dataset.num_classes
    if scored:
        assert loaded.scores.tobytes() == dataset.scores.tobytes()
    else:
        assert loaded.scores is None


@settings(derandomize=True, max_examples=40, deadline=None)
@given(grid_points(min_n=1), st.data())
def test_every_accepted_csv_form_loads_the_values_written(points, data):
    # fields quoted or padded with spaces, LF or CRLF line ends, and blank
    # lines between the rows
    n = points.n
    ids = data.draw(st.lists(
        st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n, unique=True))
    labels = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    form = st.sampled_from(["{}", '"{}"', " {} ", '" {} "'])
    lines = [",".join(["id", *(f"f{j}" for j in range(points.dim)), "label"])]
    for i, row, label in zip(ids, points.features.tolist(), labels):
        lines += [""] * data.draw(st.integers(0, 2))
        fields = [str(i), *map(repr, row), str(label)]
        lines.append(",".join(data.draw(form).format(f) for f in fields))
    end = data.draw(st.sampled_from(["\n", "\r\n"]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.csv"
        path.write_bytes((end.join(lines) + end).encode())
        loaded = load_pointset(path)
    assert loaded.points.ids.tolist() == ids
    assert loaded.points.features.tobytes() == points.features.tobytes()
    assert loaded.labels.tolist() == labels


# Up to 10 coordinates, so that numpy's unrolled sums (8 and more terms)
# are covered too; the pruned steps must still match the dense ones exactly.
@settings(derandomize=True, max_examples=80, deadline=None)
@given(greedy_runs(max_dim=10), st.data())
def test_pruned_greedy_equals_the_dense_greedy(run, data):
    points, densities, s0, budget = run
    if densities is not None:
        densities = np.asarray(densities)
    first = data.draw(st.integers(0, budget))

    def greedy(start, b):
        if densities is None:
            return k_center_greedy(points, start, b)
        return density_aware_greedy(points, densities, start, b)

    state = greedy(greedy(s0, first), budget - first)  # resumed midway
    picks, pick_radii, radii = oracles.dense_greedy(
        points.features, densities, s0, budget)
    assert list(state.picks) == picks[first:]
    assert state.pick_radii.tolist() == pick_radii[first:]
    assert np.array_equal(state.radii, radii)
    assert state.selected == tuple(s0) + tuple(picks)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(grid_points(max_dim=10), st.data())
def test_pruned_coverage_equals_the_dense_assignment(points, data):
    # selected points in any order, assigned from scratch or extended
    selected = data.draw(st.lists(
        st.integers(0, points.n - 1), min_size=1, unique=True))
    held = data.draw(st.integers(0, len(selected) - 1))
    previous = assign_coverage(points, selected[:held]) if held else None
    cov = assign_coverage(points, selected, previous=previous)
    pi, sq = oracles.dense_coverage(points.features, selected)
    assert np.array_equal(cov.pi, pi)
    assert np.array_equal(cov.sq_distances, sq)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(grid_points(), st.data())
def test_k_center_state_on_every_point_is_the_coverage_assignment(points, data):
    # what lets an unfiltered k-center run hand its state to the assignment
    n = points.n
    s0 = data.draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
    first = data.draw(st.integers(0 if s0 else 1, n - len(s0)))
    second = data.draw(st.integers(0, n - len(s0) - first))
    state = k_center_greedy(points, k_center_greedy(points, s0, first), second)
    cov = assign_coverage(points, state.selected)
    assert state.owners.tobytes() == cov.pi.tobytes()
    assert state.radii.tobytes() == cov.sq_distances.tobytes()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(greedy_runs(), st.integers(-20, 20))
def test_rescaling_every_density_changes_no_pick(run, j):
    points, densities, s0, budget = run
    densities = np.ones(points.n) if densities is None else np.asarray(densities)
    # c = 2**j rescales every d^2 / dens exactly, so even the radii agree
    c = 2.0**j
    state = density_aware_greedy(points, densities, s0, budget)
    scaled = density_aware_greedy(points, densities * c, s0, budget)
    assert scaled.picks == state.picks
    assert np.array_equal(scaled.pick_radii * c, state.pick_radii)
    assert np.array_equal(scaled.radii * c, state.radii)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(greedy_runs(), st.floats(DENSITY_FLOOR, BETA))
def test_constant_density_gives_the_k_center_picks(run, c):
    points, _, s0, budget = run
    kcenter = k_center_greedy(points, s0, budget)
    constant = density_aware_greedy(points, np.full(points.n, c), s0, budget)
    assert constant.picks == kcenter.picks
    # division by one c is monotone, so it commutes with every minimum
    assert np.array_equal(constant.radii, kcenter.radii / c)
