"""Containers, generators, squared distances, and CSV round-trips."""

import re
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from denscore import (
    GeneratorSpec,
    LabeledPointSet,
    PointSet,
    ValidationError,
    generate,
    load_pointset,
    save_pointset,
)
from denscore import data
from denscore.data import (
    FeatureGrid, check_indices, config_value, read_table, squared_distances_to,
)

from oracles import squared as oracle_squared


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
        with pytest.raises(ValidationError):
            FeatureGrid(np.zeros((4, 0, 3)))
        grid = FeatureGrid(np.zeros((4, 5, 3)))
        assert grid.values.shape == (4, 5, 3)
        with pytest.raises(ValueError):
            grid.values[0, 0, 0] = 1.0


# (constructor call, the message it raises)
INVALID_INPUTS = {
    "pointset-1d": (lambda: PointSet(np.zeros(3), np.arange(3)), "2-d array"),
    "pointset-no-dims": (
        lambda: PointSet(np.zeros((2, 0)), np.arange(2)), "at least one dimension"),
    "pointset-ids": (lambda: PointSet(np.zeros((2, 2)), [0]), "ids must align"),
    "labels-align": (
        lambda: LabeledPointSet(PointSet.from_features(np.zeros((3, 1))), [1, 1], 1),
        "labels must align"),
    "num-classes": (
        lambda: LabeledPointSet(PointSet.from_features(np.zeros((2, 1))), [1, 1], 0),
        "num_classes must be >= 1"),
    # a bool is not the count 1, and a string is no count at all
    "num-classes-bool": (
        lambda: LabeledPointSet(PointSet.from_features(np.zeros((2, 1))), [1, 2], True),
        "num_classes must be an integer (got True)"),
    "num-classes-string": (
        lambda: LabeledPointSet(PointSet.from_features(np.zeros((2, 1))), [1, 1], "3"),
        "num_classes must be an integer (got '3')"),
    "scores-align": (
        lambda: LabeledPointSet(PointSet.from_features(np.zeros((2, 1))), [1, 1], 1,
                                scores=[0.5]),
        "scores must align"),
    "scores-finite": (
        lambda: LabeledPointSet(PointSet.from_features(np.zeros((2, 1))), [1, 1], 1,
                                scores=[0.5, np.nan]),
        "non-finite score"),
    "grid-finite": (
        lambda: FeatureGrid(np.full((2, 2, 1), np.inf)), "grid values must be finite"),
    "spec-no-component": (
        lambda: GeneratorSpec(kind="gaussian-mixture", seed=0),
        "at least one component"),
    "spec-no-coordinates": (
        lambda: GeneratorSpec(kind="gaussian-mixture", seed=0, means=((),),
                              sigmas=(1.0,), counts=(5,)),
        ">= 1 coordinate"),
    "spec-sigmas": (
        lambda: GeneratorSpec(kind="gaussian-mixture", seed=0, means=((0.0,),),
                              sigmas=(1.0, 1.0), counts=(5,)),
        "sigmas: need one value per component"),
    "spec-counts": (
        lambda: GeneratorSpec(kind="uniform-box", seed=0, means=((0.0,), (1.0,)),
                              sigmas=(1.0, 1.0), counts=(5,)),
        "counts: need one value per component"),
    "spec-means-finite": (
        lambda: GeneratorSpec(kind="gaussian-mixture", seed=0, means=((np.nan,),),
                              sigmas=(1.0,), counts=(5,)),
        "means: must be finite"),
    # Python's json reads NaN and Infinity from a config
    "spec-sigmas-nan": (
        lambda: GeneratorSpec(kind="uniform-box", seed=0, means=((0.0,),),
                              sigmas=(float("nan"),), counts=(3,)),
        "sigmas must be a positive finite number"),
    "spec-sigmas-inf": (
        lambda: GeneratorSpec(kind="uniform-box", seed=0, means=((0.0,),),
                              sigmas=(float("inf"),), counts=(3,)),
        "sigmas must be a positive finite number"),
    "spec-counts-zero": (
        lambda: GeneratorSpec(kind="uniform-box", seed=0, means=((0.0,),),
                              sigmas=(1.0,), counts=(0,)),
        "counts must be >= 1"),
    # each container names the value that breaks its rule
    "pointset-finite": (
        lambda: PointSet(np.array([[0.0], [np.inf]]), [0, 1]), "non-finite feature value"),
    "pointset-duplicate": (
        lambda: PointSet(np.zeros((4, 1)), [5, 3, 5, 3]), "duplicate id 5"),
    "labels-range": (
        lambda: LabeledPointSet(PointSet.from_features(np.zeros((3, 1))), [1, 3, 0], 2),
        "label must be <= 2 (got 3)"),
}


@pytest.mark.parametrize("case", sorted(INVALID_INPUTS))
def test_invalid_input_names_the_problem(case):
    build, message = INVALID_INPUTS[case]
    with pytest.raises(ValidationError, match=re.escape(message)):
        build()


def test_rational_is_whole_by_its_denominator():
    # decided exactly, with no float(): this one lies beyond float range
    huge = Fraction(10**400, 3)
    with pytest.raises(ValidationError, match=r"^seed must be an integer \(got Fraction\("):
        config_value(huge, int, "seed")
    with pytest.raises(ValidationError,
                       match=r"^initial index Fraction\(\d+, 3\) is not an integer$"):
        check_indices([huge], 3, "initial")
    assert config_value(Fraction(10**400, 1), int, "seed") == 10**400
    assert check_indices([Fraction(2, 1)], 3, "initial").tolist() == [2]


def test_repeated_index_is_the_first_as_given():
    # 5 is the first entry that an earlier one holds, though 3 is smaller
    with pytest.raises(ValidationError,
                       match=r"^initial set contains duplicate index 5$"):
        check_indices([5, 3, 5, 3], 10, "initial")


class TestMetrics:
    def test_pairwise_against_scalar_distance(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(17, 5))
        b = rng.normal(size=(9, 5))
        for j in range(9):
            sq = squared_distances_to(a, b[j])
            for i in range(17):
                assert sq[i] == pytest.approx(oracle_squared(a[i], b[j]), abs=1e-12)
            # each entry depends only on its own row
            assert np.array_equal(squared_distances_to(a[5:11], b[j]), sq[5:11])


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
            generate(replace(base, seed=2)).points.features,
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

    def test_dim_is_the_length_of_the_means(self):
        spec = GeneratorSpec(kind="uniform-box", seed=1, means=((0.0, 1.0, 2.0),),
                             sigmas=(1.0,), counts=(4,))
        assert spec.dim == 3 == generate(spec).dim
        # a derived value, not a field: the config's generator keys are the
        # fields, and only comparison.json echoes the dimension
        assert [f.name for f in fields(spec)] == [
            "kind", "seed", "means", "sigmas", "counts"]
        with pytest.raises(TypeError):
            GeneratorSpec(kind="uniform-box", seed=1, means=((0.0,),),
                          sigmas=(1.0,), counts=(4,), dim=1)

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
        with pytest.raises(ValidationError, match="kind"):
            GeneratorSpec(kind="grid-blobs", seed=0, means=((0.0,),),
                          sigmas=(1.0,), counts=(5,))


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
        assert ds.labels.tolist() == [1, 1]
        assert ds.num_classes == 1

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("id,f0\n3,1.0\n3,2.0\n")
        with pytest.raises(ValidationError, match="duplicate id 3"):
            load_pointset(path)
        # the line of the second occurrence
        path.write_text("id,f0\n3,1.0\n4,1.5\n3,2.0\n")
        with pytest.raises(ValidationError, match="line 4: duplicate id 3"):
            load_pointset(path)
        # the first bad line in file order, whatever the later ones hold
        for last in ("1,nan", "1,oops"):
            path.write_text(f"id,f0\n0,1.0\n0,2.0\n{last}\n")
            with pytest.raises(ValidationError, match="line 3: duplicate id 0"):
                load_pointset(path)

    @pytest.mark.parametrize("text", [
        "id,f0,label\r\n0,1.0,1\r\n1,-2.5,2\r\n",
        '"id","f0","label"\n"0","1.0","1"\n"1","-2.5","2"\n',
        "id,f0,label\n 0 , 1.0 ,1\n1,  -2.5  , 2 \n",
    ], ids=["crlf", "quoted", "spaces"])
    def test_accepted_forms(self, tmp_path, text):
        path = tmp_path / "forms.csv"
        path.write_bytes(text.encode())
        ds = load_pointset(path)
        assert ds.points.ids.tolist() == [0, 1]
        assert ds.points.features.ravel().tolist() == [1.0, -2.5]
        assert ds.labels.tolist() == [1, 2]

    def test_id_above_2_to_the_53_loads_exactly(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("id,f0\n9007199254740993,1.0\n9007199254740992,2.0\n")
        ids = load_pointset(path).points.ids.tolist()
        assert ids == [9007199254740993, 9007199254740992]

    def test_schema_violations_carry_line_numbers(self, tmp_path):
        bad_header = tmp_path / "h.csv"
        bad_header.write_text("id,f0,flavor\n0,1.0,x\n")
        with pytest.raises(ValidationError, match="line 1"):
            load_pointset(bad_header)

        bad_value = tmp_path / "v.csv"
        bad_value.write_text("id,f0\n0,1.0\n1,oops\n")
        with pytest.raises(ValidationError, match="line 3"):
            load_pointset(bad_value)

        # a blank line is skipped but keeps its line number
        bad_value.write_text("id,f0\n0,1.0\n\n1,oops\n")
        with pytest.raises(ValidationError, match="line 4"):
            load_pointset(bad_value)

        # a non-numeric id or label, and a row with too many fields
        for text in ("id,f0,label\n0,1.0,1\nx,2.0,1\n",
                     "id,f0,label\n0,1.0,1\n1,2.0,one\n",
                     "id,f0,label\n0,1.0,1\n1,2.0,1,7\n"):
            bad_value.write_text(text)
            with pytest.raises(ValidationError, match="line 3"):
                load_pointset(bad_value)

        bad_width = tmp_path / "w.csv"
        bad_width.write_text("id,f0,label\n0,1.0,1\n1,2.0\n")
        with pytest.raises(ValidationError, match="line 3"):
            load_pointset(bad_width)

        # integers outside int64 (numpy's own message), and a label below 1
        too_big = "could not convert string '100000000000000000000' to int64"
        for problem, row in [(too_big, "100000000000000000000,2.0,1"),
                             (too_big, "1,2.0,100000000000000000000"),
                             ("label must be >= 1 (got 0)", "1,2.0,0")]:
            path = tmp_path / "range.csv"
            path.write_text(f"id,f0,label\n0,1.0,1\n{row}\n")
            message = f"^{re.escape(f'{path}: line 3: {problem}')}"
            with pytest.raises(ValidationError, match=message):
                load_pointset(path)

    @pytest.mark.parametrize("text, message", [
        ("", "line 1: empty file"),
        ("id,f0,label\n", "line 2: no data rows"),
        ("key,f0\n0,1.0\n", "line 1: first column must be 'id'"),
        ("id,x0\n0,1.0\n", "line 1: expected feature columns f0.."),
        ("id\n0\n", "line 1: expected feature columns f0.."),
    ], ids=["empty", "header-only", "no-id", "no-features", "id-only"])
    def test_header_problems_name_path_and_line(self, tmp_path, text, message):
        path = tmp_path / "schema.csv"
        path.write_text(text)
        with pytest.raises(ValidationError) as exc:
            load_pointset(path)
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("row, message", [
        ("1,2.0", None),
        ("1,nan", "line 3: non-finite feature value"),
        ("0,2.0", "line 3: duplicate id 0"),
        ("1,x", "line 3: "),
    ], ids=["good", "non-finite", "duplicate", "not-a-number"])
    def test_byte_order_mark_is_skipped(self, tmp_path, row, message):
        # the header still reads `id`, a row error keeps its line number,
        # and writing adds no mark
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + f"id,f0\n0,1.0\n{row}\n".encode())
        if message is not None:
            with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: {message}')}"):
                load_pointset(path)
            return
        ds = load_pointset(path)
        assert ds.points.ids.tolist() == [0, 1]
        assert ds.points.features.ravel().tolist() == [1.0, 2.0]
        save_pointset(ds, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes().startswith(b"id,")

    def test_number_only_python_reads_names_the_file(self, tmp_path):
        # Python's float takes "1_0" but numpy's parse does not; the row that
        # numpy rejects on its own is named by its line, without numpy's
        # 0-based position
        path = tmp_path / "underscore.csv"
        path.write_text("id,f0\n0,1.0\n1,1_0\n")
        with pytest.raises(ValidationError) as exc:
            load_pointset(path)
        assert str(exc.value) == f"{path}: line 3: could not convert string '1_0' to float64"

    @pytest.mark.parametrize("text, field, kind", [
        ("id,f0\n0,1.0\n1,1_0\n2,nan\n", "1_0", "float64"),
        ("id,f0\n0,1.0\n1,1_0\n0,2.0\n", "1_0", "float64"),
        ("id,f0,label\n0,1.0,1\n1,2.0,+1_0\n0,3.0,1\n", "+1_0", "int64"),
    ], ids=["then-non-finite", "then-repeated-id", "label-then-repeated-id"])
    def test_first_of_several_bad_lines_is_named(self, tmp_path, text, field, kind):
        # numpy rejects line 3, and a container would reject line 4
        path = tmp_path / "mixed.csv"
        path.write_text(text)
        with pytest.raises(ValidationError) as exc:
            load_pointset(path)
        assert str(exc.value) == (
            f"{path}: line 3: could not convert string '{field}' to {kind}")

    @pytest.mark.parametrize("header, row, message", [
        ("id,f0", "1,oops", "could not convert string 'oops' to float64"),
        ("id,f0,label", "1,2.0,1,7", "the dtype passed requires 3 columns but 4 were found"),
        ("id,f0,label", "1,2.0", "the dtype passed requires 3 columns but 2 were found"),
        # read as a selection file is, only the id column: a row without it
        ("label,id", "2", "invalid column index 1"),
    ], ids=["conversion", "too-many-fields", "too-few-fields", "short-of-usecols"])
    def test_numpy_message_loses_its_position(self, tmp_path, header, row, message):
        # numpy's own wording on the installed numpy, less the 0-based
        # position, column-count advice or row width it appends; a changed
        # wording shows up here
        path = tmp_path / "numpy.csv"
        first = {"id,f0": "0,1.0", "id,f0,label": "0,1.0,1", "label,id": "1,0"}[header]
        path.write_text(f"{header}\n{first}\n{row}\n")
        with pytest.raises(ValidationError) as exc:
            if header.startswith("id"):
                load_pointset(path)
            else:
                read_table(path, lambda names, _: (np.dtype(np.int64), [names.index("id")]),
                           np.asarray)
        assert str(exc.value) == f"{path}: line 3: {message}"

    @pytest.mark.parametrize("text, message", [
        ("id,f0,label\n0,1.0,-3\n", "line 2: label must be >= 1 (got -3)"),
        ("id,f0,label\n0,1.0,2\n\n1,2.0,0\n", "line 4: label must be >= 1 (got 0)"),
        # the bound broken is named, not the largest label before the line
        ("id,f0,label\n0,1.0,1\n1,2.0,0\n2,3.0,5\n", "line 3: label must be >= 1 (got 0)"),
        ("id,f0\n7,1.0\n3,2.0\n7,inf\n", "line 4: non-finite feature value"),
    ], ids=["only-label-below-1", "label-after-blank", "label-below-1-before-5",
            "two-faults-on-one-line"])
    def test_container_message_names_the_line(self, tmp_path, text, message):
        path = tmp_path / "container.csv"
        path.write_text(text)
        with pytest.raises(ValidationError) as exc:
            load_pointset(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_file_that_loads_on_the_reread_names_the_first_error(self, tmp_path):
        # the file changed between the failed load and the search for its
        # bad line: the first error is named with the path
        path = tmp_path / "changed.csv"
        path.write_text("id,f0\n0,1.0\n")
        dtype, _ = data._parse_header(["id", "f0"], path)

        def parse(lines):
            return data._dataset(np.loadtxt(lines, dtype=dtype, delimiter=",", ndmin=1))

        error = data._row_error(path, parse, ValueError("non-finite feature value"))
        assert str(error) == f"{path}: non-finite feature value"

    def test_non_finite_feature_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("id,f0\n0,inf\n")
        with pytest.raises(ValidationError, match="line 2"):
            load_pointset(path)

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_score_names_path_and_line(self, tmp_path, score):
        path = tmp_path / "scores.csv"
        path.write_text(f"id,f0,score\n0,1.0,0.5\n1,2.0,{score}\n")
        with pytest.raises(ValidationError) as exc:
            load_pointset(path)
        assert str(exc.value) == f"{path}: line 3: non-finite score"

    def test_score_column_optional(self, tmp_path):
        path = tmp_path / "scored.csv"
        path.write_text("id,f0,label,score\n0,1.0,1,0.25\n1,2.0,2,0.75\n")
        ds = load_pointset(path)
        assert ds.scores.tolist() == [0.25, 0.75]
