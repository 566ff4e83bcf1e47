"""Containers, generators, metrics, and CSV round-trips."""

import math

import numpy as np
import pytest

from denscore import (
    GeneratorSpec,
    LabeledPointSet,
    PointSet,
    ValidationError,
    distance,
    generate,
    load_pointset,
    normalize,
    pairwise_distances,
    save_pointset,
)
from denscore.data import (
    FeatureGrid,
    block_rows,
    canonical_metric,
    nearest_selected,
)

from oracles import dist as oracle_dist
from oracles import nearest_selected as oracle_nearest


class TestContainers:
    def test_pointset_is_readonly(self):
        ps = PointSet.from_features(np.array([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(ValueError):
            ps.features[0, 0] = 9.0
        with pytest.raises(ValueError):
            ps.ids[0] = 5

    def test_pointset_rejects_bad_shapes(self):
        with pytest.raises(ValidationError):
            PointSet(np.zeros((0, 2)), np.array([], dtype=np.int64))
        with pytest.raises(ValidationError):
            PointSet(np.array([[np.nan, 0.0]]), np.array([0]))
        with pytest.raises(ValidationError):
            PointSet(np.zeros((2, 2)), np.array([1, 1]))  # duplicate ids

    def test_labels_must_fit_class_range(self):
        ps = PointSet.from_features(np.zeros((3, 1)))
        with pytest.raises(ValidationError):
            LabeledPointSet(ps, np.array([0, 1, 1]), num_classes=2)
        with pytest.raises(ValidationError):
            LabeledPointSet(ps, np.array([1, 2, 3]), num_classes=2)
        ok = LabeledPointSet(ps, np.array([1, 2, 2]), num_classes=2)
        assert ok.n == 3 and ok.dim == 1

    def test_feature_grid_shape_checks(self):
        with pytest.raises(ValidationError):
            FeatureGrid(np.zeros((4, 4)))
        grid = FeatureGrid(np.zeros((4, 5, 3)))
        assert (grid.height, grid.width, grid.channels) == (4, 5, 3)
        flat = grid.flatten()
        assert flat.n == 20 and flat.dim == 3


class TestMetrics:
    def test_metric_aliases(self):
        assert canonical_metric("squared") == "squared-euclidean"
        assert canonical_metric("euclidean") == "euclidean"
        with pytest.raises(ValidationError):
            canonical_metric("manhattan")

    def test_distance_basics(self):
        assert distance([0.0, 0.0], [3.0, 4.0]) == 5.0
        assert distance([0.0, 0.0], [3.0, 4.0], "squared-euclidean") == 25.0
        assert distance([1.0, 1.0], [1.0, 1.0]) == 0.0
        with pytest.raises(ValidationError):
            distance([0.0], [0.0, 1.0])

    def test_pairwise_against_scalar_distance(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(17, 5))
        b = rng.normal(size=(9, 5))
        for metric in ("euclidean", "squared-euclidean"):
            mat = pairwise_distances(a, b, metric)
            for i in range(17):
                for j in range(9):
                    expected = oracle_dist(a[i], b[j], metric)
                    assert mat[i, j] == pytest.approx(expected, abs=1e-12)

    def test_pairwise_chunking_is_invisible(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(300, 3))
        full = pairwise_distances(a, a, chunk=256)
        tiny = pairwise_distances(a, a, chunk=11)
        assert np.array_equal(full, tiny)
        # the default block rule splits these 300 rows too
        assert block_rows(300, 3) < 300
        assert np.array_equal(full, pairwise_distances(a, a))

    @pytest.mark.parametrize("rows, centres, dim", [
        (40, 7, 3),     # random
        (25, 4, 1),     # d = 1
        (30, 1, 2),     # a single centre
        (100, 300, 16),  # 100 rows is not a multiple of the block size
    ])
    def test_nearest_selected_against_oracle(self, rows, centres, dim):
        rng = np.random.default_rng(rows + centres + dim)
        b = rng.normal(size=(centres, dim))
        if centres > 2:
            b[-1] = b[1]  # duplicate centre: ties go to the lower position
        a = np.vstack([rng.normal(size=(rows - 2, dim)), b[-1:], b[:1]])
        if centres == 300:
            assert rows % block_rows(centres, dim) != 0
            assert block_rows(centres, dim) < rows
        position, sq = nearest_selected(a, b)
        table = [list(map(float, r)) for r in np.vstack([b, a])]
        for i in range(rows):
            t = centres + i
            expected = oracle_nearest(
                table, range(centres), t, "squared-euclidean")
            assert position[i] == expected
            assert sq[i] == pytest.approx(
                oracle_dist(a[i], b[expected], "squared-euclidean"), abs=1e-12)
        if centres > 2:
            assert centres - 1 not in position.tolist()


class TestGenerate:
    def test_tight_mixture_recovers_structure(self):
        spec = GeneratorSpec(
            kind="gaussian-mixture",
            seed=7,
            means=((0.0, 0.0), (10.0, 0.0)),
            sigmas=(0.001, 0.001),
            counts=(3, 3),
        )
        ds = generate(spec)
        assert ds.labels.tolist() == [1, 1, 1, 2, 2, 2]
        assert ds.num_classes == 2
        centers = np.array([[0.0, 0.0], [10.0, 0.0]])
        for i in range(6):
            center = centers[ds.labels[i] - 1]
            assert np.linalg.norm(ds.points.features[i] - center) < 0.1

    def test_generation_is_deterministic(self):
        spec = GeneratorSpec(
            kind="gaussian-mixture",
            seed=123,
            means=((0.0,), (5.0,)),
            sigmas=(1.0, 2.0),
            counts=(50, 50),
        )
        a = generate(spec)
        b = generate(spec)
        assert np.array_equal(a.points.features, b.points.features)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        base = GeneratorSpec(
            kind="gaussian-mixture", seed=1, means=((0.0,),),
            sigmas=(1.0,), counts=(20,),
        )
        assert not np.array_equal(
            generate(base).points.features,
            generate(base.with_seed(2)).points.features,
        )

    def test_uniform_box_stays_in_box_with_label_one(self):
        spec = GeneratorSpec(
            kind="uniform-box", seed=3,
            means=((1.0, -2.0, 0.5),), sigmas=(2.0,), counts=(500,),
        )
        ds = generate(spec)
        assert ds.num_classes == 1
        assert np.all(ds.labels == 1)
        lo = np.array([1.0, -2.0, 0.5]) - 2.0
        hi = np.array([1.0, -2.0, 0.5]) + 2.0
        assert np.all(ds.points.features >= lo) and np.all(ds.points.features <= hi)

    def test_grid_blobs_layout_and_labels(self):
        spec = GeneratorSpec(
            kind="grid-blobs", seed=11, grid_shape=(2, 3), grid_spacing=10.0,
            sigmas=(0.01,), counts=(4,), dim=2,
        )
        ds = generate(spec)
        assert ds.n == 24 and ds.num_classes == 6
        # blob 5 (row 1, col 1, 1-based label 5) sits near (10, 10)
        blob = ds.points.features[ds.labels == 5]
        assert np.allclose(blob.mean(axis=0), [10.0, 10.0], atol=0.1)

    def test_validation_names_offending_field(self):
        with pytest.raises(ValidationError, match="sigmas"):
            GeneratorSpec(kind="gaussian-mixture", seed=0,
                          means=((0.0,),), sigmas=(-1.0,), counts=(5,))
        with pytest.raises(ValidationError, match="counts"):
            GeneratorSpec(kind="gaussian-mixture", seed=0,
                          means=((0.0,),), sigmas=(1.0,), counts=(0,))
        with pytest.raises(ValidationError, match="kind"):
            GeneratorSpec(kind="donut", seed=0, means=((0.0,),),
                          sigmas=(1.0,), counts=(5,))
        with pytest.raises(ValidationError, match="means"):
            GeneratorSpec(kind="gaussian-mixture", seed=0,
                          means=((0.0,), (1.0, 2.0)), sigmas=(1.0, 1.0),
                          counts=(5, 5))
        with pytest.raises(ValidationError, match="grid_shape|grid_spacing"):
            GeneratorSpec(kind="grid-blobs", seed=0)


class TestNormalize:
    def test_unit_norm_rows(self):
        ps = PointSet.from_features(np.array([[3.0, 4.0], [0.0, 2.0]]))
        out = normalize(ps)
        np.testing.assert_allclose(np.linalg.norm(out.features, axis=1), 1.0,
                                   rtol=1e-15)
        np.testing.assert_allclose(out.features[0], [0.6, 0.8], rtol=1e-15)

    def test_zero_row_is_named(self):
        ps = PointSet(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([10, 20]))
        with pytest.raises(ValidationError, match="id 20"):
            normalize(ps)


class TestCsvRoundTrip:
    def test_values_roundtrip_exactly(self, tmp_path):
        rng = np.random.default_rng(99)
        feats = rng.normal(size=(40, 3)) * rng.lognormal(size=(40, 3))
        ps = PointSet(feats, np.arange(100, 140, dtype=np.int64))
        ds = LabeledPointSet(ps, rng.integers(1, 4, size=40), num_classes=3,
                             scores=rng.uniform(size=40))
        path = tmp_path / "data.csv"
        save_pointset(ds, path)
        back = load_pointset(path)
        assert np.array_equal(back.points.features, ds.points.features)
        assert np.array_equal(back.points.ids, ds.points.ids)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.scores, ds.scores)
        assert back.num_classes == 3
        assert not back.labels_defaulted

    def test_save_load_save_is_byte_identical(self, tmp_path):
        spec = GeneratorSpec(kind="gaussian-mixture", seed=5,
                             means=((0.0, 1.0),), sigmas=(2.5,), counts=(25,))
        ds = generate(spec)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        save_pointset(ds, p1)
        save_pointset(load_pointset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_label_column_defaults_with_flag(self, tmp_path):
        path = tmp_path / "unlabeled.csv"
        path.write_text("id,f0,f1\n0,1.5,2.5\n1,-0.25,0.0\n")
        ds = load_pointset(path)
        assert ds.labels_defaulted
        assert ds.labels.tolist() == [1, 1]
        assert ds.num_classes == 1

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("id,f0\n3,1.0\n3,2.0\n")
        with pytest.raises(ValidationError, match="duplicate id 3"):
            load_pointset(path)

    def test_schema_violations_carry_line_numbers(self, tmp_path):
        bad_header = tmp_path / "h.csv"
        bad_header.write_text("id,f0,flavor\n0,1.0,x\n")
        with pytest.raises(ValidationError, match="line 1"):
            load_pointset(bad_header)

        bad_value = tmp_path / "v.csv"
        bad_value.write_text("id,f0\n0,1.0\n1,oops\n")
        with pytest.raises(ValidationError, match="line 3"):
            load_pointset(bad_value)

        bad_width = tmp_path / "w.csv"
        bad_width.write_text("id,f0,label\n0,1.0,1\n1,2.0\n")
        with pytest.raises(ValidationError, match="line 3"):
            load_pointset(bad_width)

    def test_non_finite_feature_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("id,f0\n0,inf\n")
        with pytest.raises(ValidationError, match="line 2"):
            load_pointset(path)

    def test_score_column_optional(self, tmp_path):
        path = tmp_path / "scored.csv"
        path.write_text("id,f0,label,score\n0,1.0,1,0.25\n1,2.0,2,0.75\n")
        ds = load_pointset(path)
        assert ds.scores.tolist() == [0.25, 0.75]
