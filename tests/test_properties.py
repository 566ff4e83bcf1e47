"""Invariants the method rests on, checked on generated inputs.

Points sit on a small integer grid (optionally scaled), so duplicate rows
and equal distances, the tie-breaking cases, are common.  Every test is
derandomized, so a run is reproducible.
"""

import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from denscore import (
    BETA,
    LabeledPointSet,
    PointSet,
    ProtocolConfig,
    assign_coverage,
    bound_report,
    density_aware_greedy,
    filter_candidates,
    k_center_greedy,
    kernel_density,
    load_pointset,
    run_rounds,
    save_pointset,
)
from denscore import ValidationError, cli, coverage
from denscore.coverage import ORDERING_RTOL
from denscore.data import _first_repeat
from denscore.density import DENSITY_FLOOR

SCALES = (1e-3, 1.0, 7.5, 1e3)
# For the claim step's filter: steps of 1e-160 and 3e-161, where squared
# distances fall below float64's normal range, and a common offset of every
# coordinate.  At 1e155 the grid's step is the offset's ulp: ||x||^2
# overflows float64, while no pairwise d^2 does.
FILTER_SCALES = SCALES + (1e-160, 3e-161)
OFFSETS = (0.0, 1e6, 1e12, 1e155)
# Steps at which some squared distance, or its quotient by a density near
# the floor, overflows float64, so that a claim raises.
OVERFLOW_SCALES = (1e152, 1e154)
# Every density a field can hold, from the floor up to BETA: equal values
# (ties) are common, and sqrt-density ratios reach about 3e6.
DENSITIES = (st.sampled_from([DENSITY_FLOOR, 1e-9, 2.0**-10, 0.25, 1.0, 4.0, BETA])
             | st.floats(DENSITY_FLOOR, BETA))


@st.composite
def grid_points(draw, min_n=2, max_n=25, max_dim=3, scales=SCALES, offsets=None):
    n = draw(st.integers(min_n, max_n))
    dim = draw(st.integers(1, max_dim))
    coords = draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
        min_size=n, max_size=n,
    ))
    scale = draw(st.sampled_from(scales))
    offset = 0.0
    if offsets is not None:
        offset = draw(st.sampled_from(offsets))
        if offset > 1e100:
            scale = np.spacing(offset)
    return PointSet.from_features(np.asarray(coords, dtype=np.float64) * scale + offset)


@st.composite
def greedy_runs(draw, max_dim=3, scales=SCALES, offsets=None):
    """Points, densities (None for k-center), an initial set and a budget
    up to everything left."""
    points = draw(grid_points(max_dim=max_dim, scales=scales, offsets=offsets))
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


# Fields that no number parse takes (Python's float takes 1_0, numpy's does
# not), and integers just outside int64
NON_NUMBERS = ("x", "1_0", "+1_0", "", "0x1", "1e")
OUTSIDE_INT64 = (str(2**63), str(-2**63 - 1), "100000000000000000000")


@st.composite
def faulty_csvs(draw):
    """A dataset CSV with blank lines mixed in and 0-3 faulty rows, the
    1-based line of its first faulty row (None when it has none), and the
    ids, features and labels of its rows."""
    n, dim = draw(st.integers(1, 8)), draw(st.integers(1, 2))
    labeled, scored = draw(st.booleans()), draw(st.booleans())
    ids = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n, unique=True))
    values = st.floats(-1e3, 1e3)
    rows = []
    for i in ids:
        row = [str(i), *(repr(draw(values)) for _ in range(dim))]
        row += [str(draw(st.integers(1, 3)))] if labeled else []
        row += [repr(draw(values))] if scored else []
        rows.append(row)
    clean = ([int(r[0]) for r in rows], [[float(v) for v in r[1:1 + dim]] for r in rows],
             [int(r[1 + dim]) if labeled else 1 for r in rows])
    faulty = sorted(draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True)))
    for p in faulty:
        row = rows[p]
        kinds = ["feature", "non-number", "width", "int64"]
        kinds += (["label"] if labeled else []) + (["score"] if scored else [])
        kinds += ["repeat"] if p else []
        kind = draw(st.sampled_from(kinds))
        if kind in ("feature", "score"):
            at = -1 if kind == "score" else draw(st.integers(1, dim))
            row[at] = draw(st.sampled_from(["nan", "inf", "-inf"]))
        elif kind == "repeat":  # the later occurrence is the fault
            row[0] = rows[draw(st.integers(0, p - 1))][0]
        elif kind == "label":
            row[1 + dim] = draw(st.sampled_from(["0", "-1"]))
        elif kind == "non-number":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(NON_NUMBERS))
        elif kind == "width":
            rows[p] = row + ["1"] if draw(st.booleans()) else row[:-1]
        else:
            at = draw(st.sampled_from([0, 1 + dim] if labeled else [0]))
            row[at] = draw(st.sampled_from(OUTSIDE_INT64))
    header = ["id", *(f"f{j}" for j in range(dim))]
    header += (["label"] if labeled else []) + (["score"] if scored else [])
    lines, linenos = [",".join(header)], []
    for row in rows:
        lines += [""] * draw(st.integers(0, 2))
        lines.append(",".join(row))
        linenos.append(len(lines))
    first = linenos[faulty[0]] if faulty else None
    return "\n".join(lines) + "\n", first, clean


@settings(derandomize=True, max_examples=300, deadline=None)
@given(faulty_csvs())
def test_a_rejected_csv_names_its_first_faulty_line(case):
    # every rule the loader applies is numpy's parse or a container's, and
    # the line named is the first one in file order that breaks any rule
    text, first, (ids, features, labels) = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.csv"
        path.write_text(text)
        if first is None:
            loaded = load_pointset(path)
        else:
            with pytest.raises(ValidationError) as exc:
                load_pointset(path)
    if first is None:
        assert loaded.points.ids.tolist() == ids
        assert loaded.points.features.tolist() == features
        assert loaded.labels.tolist() == labels
    else:
        assert str(exc.value).startswith(f"{path}: line {first}: ")


@st.composite
def faulty_selections(draw):
    """A dataset's ids; a selection CSV of some of them, in any order, with
    the id among 1-3 columns, blank lines mixed in and 0-3 faulty rows; the
    1-based line of its first faulty row (None when it has none); and the
    dataset positions of its rows."""
    n = draw(st.integers(1, 8))
    ids = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n, unique=True))
    positions = draw(st.permutations(range(n)))[:draw(st.integers(1, n))]
    width = draw(st.integers(1, 3))
    col = draw(st.integers(0, width - 1))
    rows = [["7"] * col + [str(ids[p])] + ["7"] * (width - col - 1) for p in positions]
    faulty = sorted(draw(st.lists(st.integers(0, len(rows) - 1), max_size=3, unique=True)))
    for p in faulty:
        kinds = ["non-number", "int64", "unknown"]
        kinds += ["short"] if col else []
        kinds += ["repeat"] if p else []
        kind = draw(st.sampled_from(kinds))
        if kind == "short":  # a row that ends before the id column
            rows[p] = rows[p][:col]
        elif kind == "repeat":  # the later occurrence is the fault
            rows[p][col] = str(ids[positions[draw(st.integers(0, p - 1))]])
        elif kind == "unknown":
            rows[p][col] = str(draw(st.integers(-2**63, 2**63 - 1).filter(
                lambda v: v not in ids)))
        else:
            # an empty field alone on its line is a blank line, not a row
            fields = NON_NUMBERS if width > 1 else tuple(f for f in NON_NUMBERS if f)
            rows[p][col] = draw(st.sampled_from(
                fields if kind == "non-number" else OUTSIDE_INT64))
    lines, linenos = [",".join("id" if j == col else f"c{j}" for j in range(width))], []
    for row in rows:
        lines += [""] * draw(st.integers(0, 2))
        lines.append(",".join(row))
        linenos.append(len(lines))
    first = linenos[faulty[0]] if faulty else None
    return ids, "\n".join(lines) + "\n", first, positions


@settings(derandomize=True, max_examples=200, deadline=None)
@given(faulty_selections())
def test_a_rejected_selection_names_its_first_faulty_line(case):
    # a selection file is read by the dataset's reader: a non-number, a
    # short row, an id an earlier line holds or one the dataset lacks is
    # named at its line, the first such line in file order
    ids, text, first, positions = case
    dataset = LabeledPointSet(PointSet(np.zeros((len(ids), 1)), ids), np.ones(len(ids)), 1)
    with tempfile.TemporaryDirectory() as tmp:
        save_pointset(dataset, Path(tmp) / "dataset.csv")
        path = Path(tmp) / "selection.csv"
        path.write_text(text)
        cfg = cli.ExperimentConfig("evaluate", {
            "dataset": str(Path(tmp) / "dataset.csv"), "selection": str(path)}, "cfg.json")
        if first is None:
            _, _, cov = cli._selection_coverage(cfg)
        else:
            with pytest.raises(ValidationError) as exc:
                cli._selection_coverage(cfg)
    if first is None:
        assert cov.selected.tolist() == sorted(positions)
    else:
        assert str(exc.value).startswith(f"{path}: line {first}: ")


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.lists(st.integers(-3, 3), max_size=12))
def test_first_repeat_is_the_first_entry_an_earlier_one_holds(values):
    expected = next((pos for pos, v in enumerate(values) if v in values[:pos]), None)
    assert _first_repeat(np.array(values, dtype=np.int64)) == expected


# Up to 10 coordinates, so that numpy's unrolled sums (8 and more terms)
# are covered too, and the filter's extreme scales and offsets; the
# filtered steps must still match the dense ones exactly.
@settings(derandomize=True, max_examples=80, deadline=None)
@given(greedy_runs(max_dim=10, scales=FILTER_SCALES, offsets=OFFSETS), st.data())
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
@given(grid_points(max_dim=10, scales=FILTER_SCALES, offsets=OFFSETS), st.data())
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


@settings(derandomize=True, max_examples=200, deadline=None)
@given(grid_points(max_dim=10, scales=FILTER_SCALES + OVERFLOW_SCALES,
                   offsets=OFFSETS), st.data())
def test_block_claim_equals_claims_one_at_a_time(points, data):
    # after some points are claimed one at a time, so that rows have
    # owners, a block of the rest (two points or more, so the tiled path)
    # claims bit for bit what they do one at a time, in tiles of any
    # shape, and raises where they raise
    n = points.n
    densities = data.draw(st.none() | st.lists(DENSITIES, min_size=n, max_size=n))
    densities = None if densities is None else np.asarray(densities)
    chosen = data.draw(st.lists(st.integers(0, n - 1), min_size=2, unique=True))
    held = data.draw(st.integers(0, len(chosen) - 2))
    tile = data.draw(st.sampled_from([1, 2, 3, 5, 2**15]))

    def claim(blocks):
        pi, sq = np.full(n, -1, dtype=np.int64), np.full(n, np.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            terms = coverage._claim_terms(points.features)
            for block in blocks:
                coverage._claim(points.features, np.asarray(block), terms,
                                pi, sq, densities)
        return pi, sq

    try:
        expected = claim([[k] for k in chosen])
    except ValidationError as exc:
        assert "overflows float64" in str(exc)
        expected = None
    blocks = [[k] for k in chosen[:held]] + [chosen[held:]]
    with mock.patch.object(coverage, "_TILE", tile):
        if expected is None:
            with pytest.raises(ValidationError, match="overflows float64"):
                claim(blocks)
            return
        pi, sq = claim(blocks)
    assert pi.tobytes() == expected[0].tobytes()
    assert sq.tobytes() == expected[1].tobytes()


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


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 3.0]), min_size=1,
                max_size=40), st.data())
def test_filter_keeps_what_a_stable_sort_keeps(scores, data):
    # heavily tied scores, -0.0 and 0.0 among them (equal, so tied)
    n = len(scores)
    candidates = data.draw(st.none() | st.lists(
        st.integers(0, n - 1), min_size=1, unique=True))
    b = data.draw(st.integers(1, 5))
    alpha = data.draw(st.sampled_from([1.0, 1.5, 2.0, 3.7, 1e308]))
    kept = filter_candidates(scores, alpha, b, candidates=candidates)
    pool = np.arange(n) if candidates is None else np.sort(candidates)
    m = min(math.ceil(min(alpha * b, pool.size)), pool.size)
    order = np.argsort(-np.asarray(scores)[pool], kind="stable")
    assert kept.dtype == np.int64
    assert kept.tolist() == np.sort(pool[order[:m]]).tolist()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(grid_points(max_n=30), st.data())
def test_filtered_round_universes_nest(points, data):
    """Each filtered round's universe contains the last one's, so the kernel
    estimate extends its sums; every round's densities match a fresh
    estimate on its universe, and no round's field holds the sums.  Scores
    tie often, and the rounds can exhaust the pool."""
    n = points.n
    scale = float(np.max(np.abs(points.features))) or 1.0
    bandwidth = scale * data.draw(st.sampled_from([0.5, 1.0, 3.0]))
    scores = np.asarray(data.draw(st.lists(
        st.integers(0, 3), min_size=n, max_size=n)), dtype=np.float64)
    dataset = LabeledPointSet(points, np.ones(n, dtype=np.int64), 1, scores)
    config = ProtocolConfig(
        budget=data.draw(st.integers(1, max(1, n // 3))),
        rounds=data.draw(st.integers(1, 6)),
        alpha=data.draw(st.sampled_from([1.5, 2.0, 3.7, 10.0])),
        estimator={"kind": "kernel", "bandwidth": bandwidth},
        initial=tuple(data.draw(st.lists(
            st.integers(0, n - 1), max_size=n - 1, unique=True))),
    )
    result = run_rounds(dataset, config)
    last = np.array(config.initial, dtype=np.int64)
    for rnd in result.rounds:
        assert np.all(np.isin(last, rnd.universe))
        last = rnd.universe
        fresh = kernel_density(
            PointSet(points.features[last], points.ids[last]), bandwidth)
        np.testing.assert_allclose(rnd.densities.values, fresh.values,
                                   rtol=1e-12, atol=0)
        # only the estimator keeps the sums a next estimate extends
        assert rnd.densities.kernel is None
