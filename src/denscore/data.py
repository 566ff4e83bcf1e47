"""Core data containers, synthetic generators (a Gaussian mixture and a
uniform box), squared distances to one point, and CSV I/O.

Every CSV the package writes goes through `write_csv`, so a float always
reads back as the same double.

Conventions shared across the package:

* features are float64 arrays of shape (n, dim); all arrays handed to or
  produced by the containers are made read-only,
* points are addressed by positional index 0..n-1 in every algorithm; the
  ``ids`` column only matters at the file boundary,
* labels are integers in 1..num_classes,
* distances are Euclidean on the features as given: every algorithm
  compares squared distances, and every reported distance is their root.

Each validation rule is written once.  `config_value` converts a configured
value to its type.  `_count` is the rule for a count (an int of at least 1,
or of the floor it is given) and `_positive` the rule for a scale (a
positive finite float); every module checks its counts and scales through
them, and only a parameter with a range of its own (a confidence, a
bandwidth, ``k_neighbors``) words its own check.  A dataset's invariants
(finite values, labels in 1..num_classes, unique ids) are checked by its
containers alone.
"""

from __future__ import annotations

import csv
import math
import numbers
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rng import PortableRng

__all__ = [
    "ValidationError",
    "PointSet",
    "LabeledPointSet",
    "FeatureGrid",
    "GeneratorSpec",
    "squared_distances_to",
    "generate",
    "load_pointset",
    "save_pointset",
    "write_csv",
]

GENERATOR_KINDS = ("gaussian-mixture", "uniform-box")

class ValidationError(ValueError):
    """An input violates a documented precondition."""


_KIND_NAMES = {int: "an integer", float: "a number", tuple: "a list"}


def config_value(value, kind: type, name: str):
    """``kind(value)`` for a configured value, ``kind`` being int, float or
    tuple; a value of the wrong type raises a ValidationError naming
    ``name``.

    Nothing is coerced that would change its meaning: an int or a number
    takes only a number (no bool, no string), an int no number with a
    fraction, and a list no string and no bool.
    """
    if _is_kind(value, kind):
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValidationError(f"{name} must be {_KIND_NAMES[kind]} (got {value!r})")


def _is_kind(value, kind: type) -> bool:
    """Whether ``value`` may stand for ``kind`` (see `config_value`); a
    rational (an int or a Fraction) is whole exactly when its denominator
    is 1, so no rational is rounded into a float to decide it."""
    return not (
        isinstance(value, bool)
        or (kind in (int, float) and not isinstance(value, numbers.Real))
        or (kind is int and not (value.denominator == 1
                                 if isinstance(value, numbers.Rational)
                                 else float(value).is_integer()))
        or (kind is tuple and isinstance(value, str))
    )


def _count(value, name: str, low: int = 1) -> int:
    """``value`` as an int of at least ``low``: the one rule for a count
    (a size, a budget, a number of rounds, bins or classes)."""
    count = config_value(value, int, name)
    if count < low:
        raise ValidationError(f"{name} must be >= {low}")
    return count


def _positive(value, name: str) -> float:
    """``value`` as a positive finite float: the one rule for a scale (a
    temperature, a Lipschitz factor or a loss bound)."""
    scale = config_value(value, float, name)
    if not (scale > 0 and math.isfinite(scale)):
        raise ValidationError(f"{name} must be a positive finite number")
    return scale


def _config_values(values, kind: type, name: str) -> tuple:
    """Every entry of the configured list ``values`` as ``kind``."""
    return tuple(config_value(v, kind, name) for v in config_value(values, tuple, name))


def check_indices(indices, n: int, name: str) -> np.ndarray:
    """``indices`` as an int64 array in the given order; a fractional or
    boolean index, an index outside 0..n-1 or one given twice raises a
    ValidationError naming the ``name`` set and the first such entry as
    given."""
    raw = np.asarray(indices).ravel()
    # an empty list is float64; a whole finite float still names an index
    if raw.dtype.kind == "f":
        whole = np.isfinite(raw) & (raw == np.trunc(raw))
    elif raw.dtype.kind in "iu":
        whole = np.ones(raw.shape, dtype=bool)
    else:  # None, a bool, a string or an int beyond 64 bits: each as given
        raw = np.asarray(indices, dtype=object).ravel()
        whole = np.array([_is_kind(v, int) for v in raw], dtype=bool)
    if not whole.all():
        raise ValidationError(f"{name} index {_given(raw[~whole])} is not an integer")
    # compared before the cast, which would wrap them
    outside = raw[(raw < 0) | (raw >= n)]
    if outside.size:
        raise ValidationError(f"{name} index {_given(outside)} out of range (n={n})")
    idx = raw.astype(np.int64)
    repeated = _repeated(idx)
    if repeated.size:
        raise ValidationError(f"{name} set contains duplicate index {int(repeated[0])}")
    return idx


def _repeated(values: np.ndarray) -> np.ndarray:
    """The entries of ``values`` that occur more than once, ascending, by a
    sort and a neighbour compare (`np.unique` may take a slower hash path)."""
    ordered = np.sort(values)
    return ordered[1:][ordered[1:] == ordered[:-1]]


def _given(entries: np.ndarray) -> str:
    """The first of ``entries`` as its caller wrote it (no numpy scalar)."""
    first = entries[0]
    return repr(first.item() if isinstance(first, np.generic) else first)


def check_index_set(indices, n: int, name: str) -> np.ndarray:
    """`check_indices` sorted ascending; an empty set also raises."""
    idx = np.sort(check_indices(indices, n, name))
    if idx.size == 0:
        raise ValidationError(f"{name} set must be non-empty")
    return idx


def _id_positions(ids: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each of ``query``, its position in the unique ``ids`` and
    whether ``ids`` lacks it (its position is then meaningless), by a
    binary search of the sorted ids."""
    order = np.argsort(ids)
    at = order[np.minimum(np.searchsorted(ids, query, sorter=order), ids.size - 1)]
    return at, ids[at] != query


@contextmanager
def open_text(path, mode: str = "r", newline: str | None = None):
    """``path`` opened as UTF-8 text, as is every file the package reads or
    writes.  Reading skips a leading byte-order mark (as spreadsheet
    exports write it); writing writes none.  A byte that is not UTF-8,
    wherever the ``with`` block reads it, raises a ValidationError naming
    the file."""
    encoding = "utf-8-sig" if mode == "r" else "utf-8"
    try:
        with open(path, mode, encoding=encoding, newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ValidationError(f"{path}: not UTF-8 text (byte {byte:#04x})") from None


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PointSet:
    """Immutable collection of feature vectors with stable integer ids."""

    features: np.ndarray
    ids: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise ValidationError("features must be a 2-d array (n, dim)")
        n, dim = feats.shape
        if n < 1:
            raise ValidationError("features: need at least one point")
        if dim < 1:
            raise ValidationError("features: need at least one dimension")
        if not np.all(np.isfinite(feats)):
            raise ValidationError("features must be finite")
        ids = np.asarray(self.ids, dtype=np.int64)
        if ids.shape != (n,):
            raise ValidationError("ids must align with features (one id per row)")
        if _repeated(ids).size:
            raise ValidationError("ids must be unique")
        object.__setattr__(self, "features", _readonly(feats))
        object.__setattr__(self, "ids", _readonly(ids))

    @classmethod
    def from_features(cls, features: np.ndarray) -> "PointSet":
        """The (n, dim) ``features`` with ids 0..n-1."""
        return cls(features, np.arange(len(features), dtype=np.int64))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True, eq=False)
class LabeledPointSet:
    """PointSet plus integer class labels in 1..num_classes.

    ``scores`` optionally carries one finite uncertainty value per point,
    the only scores the protocol reads: a dataset file's ``score`` column,
    or an array attached with ``dataclasses.replace(dataset, scores=...)``.
    A dataset file without a label column loads with every label 1.
    """

    points: PointSet
    labels: np.ndarray
    num_classes: int
    scores: np.ndarray | None = None

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.shape != (self.points.n,):
            raise ValidationError("labels must align with points")
        num_classes = _count(self.num_classes, "num_classes")
        if labels.min() < 1 or labels.max() > num_classes:
            raise ValidationError("labels must lie in 1..num_classes")
        object.__setattr__(self, "labels", _readonly(labels))
        object.__setattr__(self, "num_classes", num_classes)
        if self.scores is not None:
            scores = np.asarray(self.scores, dtype=np.float64)
            if scores.shape != (self.points.n,):
                raise ValidationError("scores must align with points")
            if not np.all(np.isfinite(scores)):
                raise ValidationError("scores must be finite")
            object.__setattr__(self, "scores", _readonly(scores))

    @property
    def n(self) -> int:
        return self.points.n

    @property
    def dim(self) -> int:
        return self.points.dim


@dataclass(frozen=True, eq=False)
class FeatureGrid:
    """Dense 2-d grid of feature vectors, shape (height, width, channels)."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 3:
            raise ValidationError("grid values must have shape (H, W, C)")
        h, w, c = values.shape
        if min(h, w, c) < 1:
            raise ValidationError("grid dimensions must all be >= 1")
        if not np.all(np.isfinite(values)):
            raise ValidationError("grid values must be finite")
        object.__setattr__(self, "values", _readonly(values))


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a synthetic labeled dataset.

    kind:
        ``gaussian-mixture`` -- isotropic Gaussian components at ``means``
        with per-component ``sigmas`` and ``counts``; labels are the
        1-based component index, points stacked in component order.
        ``uniform-box`` -- axis-aligned uniform boxes; ``means`` are the box
        centers and ``sigmas`` the half-widths; every label is 1.
    The dimension ``dim`` is the length of the component means.
    """

    kind: str
    seed: int
    means: tuple[tuple[float, ...], ...] = ()
    sigmas: tuple[float, ...] = ()
    counts: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValidationError(
                f"kind must be one of {GENERATOR_KINDS} (got {self.kind!r})"
            )
        object.__setattr__(self, "seed", config_value(self.seed, int, "seed"))
        for name, kind in (("sigmas", float), ("counts", int)):
            object.__setattr__(self, name, _config_values(getattr(self, name), kind, name))
        given = config_value(self.means, tuple, "means")
        means = tuple(_config_values(row, float, "means") for row in given)
        if not means:
            raise ValidationError("means: at least one component is required")
        if len(means[0]) < 1:
            raise ValidationError("means: component mean must have >= 1 coordinate")
        if any(len(row) != len(means[0]) for row in means):
            raise ValidationError("means: all component means must share a dimension")
        if len(self.sigmas) != len(means):
            raise ValidationError("sigmas: need one value per component")
        if len(self.counts) != len(means):
            raise ValidationError("counts: need one value per component")
        if any(s <= 0 for s in self.sigmas):
            raise ValidationError("sigmas: must be strictly positive")
        if any(c < 1 for c in self.counts):
            raise ValidationError("counts: must be >= 1")
        if not all(math.isfinite(x) for row in means for x in row):
            raise ValidationError("means: must be finite")
        object.__setattr__(self, "means", means)

    @property
    def dim(self) -> int:
        return len(self.means[0])


def generate(spec: GeneratorSpec) -> LabeledPointSet:
    """Draw a labeled dataset from ``spec`` using the portable RNG.

    Deterministic for a fixed seed: points are drawn component by component
    in spec order, each component's deviates consumed row-major, so the
    first point of component 1 is always index 0.
    """
    rng = PortableRng(spec.seed)
    dim = spec.dim
    blocks = []
    labels = []
    for comp, (mean, sigma, count) in enumerate(
        zip(spec.means, spec.sigmas, spec.counts), start=1
    ):
        center = np.asarray(mean, dtype=np.float64)
        if spec.kind == "uniform-box":
            u = rng.uniforms(count * dim).reshape(count, dim)
            block = center + (2.0 * u - 1.0) * sigma
        else:
            z = rng.normals(count * dim).reshape(count, dim)
            block = center + sigma * z
        blocks.append(block)
        label = 1 if spec.kind == "uniform-box" else comp
        labels.append(np.full(count, label, dtype=np.int64))
    features = np.vstack(blocks)
    labels = np.concatenate(labels)
    num_classes = 1 if spec.kind == "uniform-box" else len(spec.means)
    points = PointSet(features, np.arange(len(features), dtype=np.int64))
    return LabeledPointSet(points, labels, num_classes)


def squared_distances_to(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Squared distance from every row of ``a`` to the point ``x``, or to
    the same row of ``x`` when ``x`` holds one point per row.

    Each entry sums the squared coordinate differences of its own row (no
    inner-product expansion), so it is independent of which rows ``a`` holds.
    """
    diff = a - x
    diff *= diff
    return np.sum(diff, axis=1)


def write_csv(path, header: Sequence[str], rows) -> None:
    """Write ``header`` and then each of ``rows`` as one CSV line (the
    default ``csv.writer`` dialect, so lines end in CRLF).

    A float cell, numpy's float64 included, is written as
    ``repr(float(v))``: the shortest decimal that reads back as the same
    double, or ``nan``/``inf``/``-inf``.  Any other cell is ``str(v)``.
    """
    with open_text(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else str(v)
                             for v in row])


def save_pointset(dataset: LabeledPointSet, path) -> None:
    """Write ``id,f0..f{D-1},label[,score]`` CSV; values round-trip exactly."""
    header = ["id"] + [f"f{j}" for j in range(dataset.dim)] + ["label"]
    rows = [[i, *f, label] for i, f, label in zip(
        dataset.points.ids.tolist(), dataset.points.features.tolist(),
        dataset.labels.tolist())]
    if dataset.scores is not None:
        header.append("score")
        for row, score in zip(rows, dataset.scores.tolist()):
            row.append(score)
    write_csv(path, header, rows)


def load_pointset(path) -> LabeledPointSet:
    """Read a ``id,f0..f{D-1}[,label][,score]`` CSV in one vectorized pass.

    numpy parses every data row at once: ids and labels as int64 (an id
    above 2**53 stays exact), features and scores as float64.  A field may
    be quoted or padded with spaces, a line may end in CRLF, and blank
    lines are skipped.  A missing label column defaults every label to 1.
    Schema or value problems raise ValidationError with the 1-based line
    number: a wrong field count, a field that is not a number (to Python or
    to numpy), an id or label outside int64, a label below 1, a non-finite
    feature or score, or an id an earlier line holds.  The value checks are
    the containers' own (`PointSet`, `LabeledPointSet`); when one fails,
    the first line in file order that holds a bad value is named.
    """
    with open_text(path) as fh:
        first = fh.readline()
        if not first:
            raise ValidationError(f"{path}: line 1: empty file")
        cols = _parse_header([h.strip() for h in next(csv.reader([first]))], path)
        try:
            table = _parse(fh, cols["dtype"])
        except UnicodeDecodeError:
            raise  # not a bad row: open_text names the file, with no re-read
        except ValueError as exc:
            raise _row_error(path, cols, exc) from None
    if table.size == 0:
        raise ValidationError(f"{path}: line 2: no data rows")
    labels = np.ones(table.size, dtype=np.int64) if cols["label"] is None else table["label"]
    try:
        return LabeledPointSet(
            PointSet(table["f"], table["id"]),
            labels,
            num_classes=labels.max(),
            scores=None if cols["score"] is None else table["score"],
        )
    except ValidationError as exc:
        raise _row_error(path, cols, exc) from None


def _parse(lines, dtype: np.dtype) -> np.ndarray:
    """The data ``lines`` of a dataset CSV parsed by numpy into ``dtype``;
    a field numpy cannot convert raises its ValueError."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a file of no rows
        return np.loadtxt(lines, dtype=dtype, delimiter=",", quotechar='"',
                          comments=None, ndmin=1)


# the 0-based position numpy appends to a conversion error
_NUMPY_POSITION = re.compile(r" at row \d+, column \d+\.$")


def _row_error(path, cols: dict, cause: ValueError) -> ValidationError:
    """The error naming the first data line of ``path``, in file order, that
    `_row_problem` rejects.  ``cause`` is numpy's error on the whole file,
    or a container's (`PointSet`, `LabeledPointSet`) on the parsed table: a
    bad value is then always named by its line, as `_row_problem` rejects
    every value the containers reject.  If `_row_problem` accepts every
    line, ``cause`` came from a field that Python's ``float`` and ``int``
    read and numpy does not (such as ``1_0``): the first line that `_parse`
    rejects on its own is named, with numpy's message less its 0-based
    position.

    It runs only once the vectorized parse or a container has failed, and
    it is the one place that words a row error; neither message is ever
    read for a line number.  Blank lines are skipped, as numpy skips them,
    but keep their line numbers.
    """
    with open_text(path) as fh:
        reader = csv.reader(fh)
        next(reader)
        numbered = [(lineno, fields) for lineno, fields in enumerate(reader, start=2) if fields]
    seen: set[int] = set()
    for lineno, fields in numbered:
        problem = _row_problem(fields, cols, seen)
        if problem is not None:
            return ValidationError(f"{path}: line {lineno}: {problem}")
    # every field is a number to Python: the line numpy rejects is one that
    # it rejects alone (quotes are gone, and no number holds a comma)
    for lineno, fields in numbered:
        try:
            _parse([",".join(fields)], cols["dtype"])
        except ValueError as exc:
            problem = _NUMPY_POSITION.sub("", str(exc))
            return ValidationError(f"{path}: line {lineno}: {problem}")
    return ValidationError(f"{path}: {cause}")


def _row_problem(row: list[str], cols: dict, seen: set[int]) -> str | None:
    """What makes one data row invalid, or None; ``seen`` holds the ids of
    the rows before it, and gains this row's."""
    if len(row) != cols["width"]:
        return f"expected {cols['width']} fields, got {len(row)}"
    try:
        row_id = _int64(row[cols["id"]], "id", -(2**63))
        features = [float(row[j]) for j in cols["features"]]
        if cols["label"] is not None:
            _int64(row[cols["label"]], "label", 1)
        score = 0.0 if cols["score"] is None else float(row[cols["score"]])
    except ValueError as exc:
        return str(exc)
    if row_id in seen:
        return f"duplicate id {row_id}"
    seen.add(row_id)
    if not all(math.isfinite(v) for v in features):
        return "non-finite feature value"
    if not math.isfinite(score):
        return "non-finite score"
    return None


def _int64(text: str, name: str, low: int) -> int:
    """``int(text)``, raising a ValueError unless it lies in low..2**63-1."""
    value = int(text)
    if not low <= value < 2**63:
        raise ValueError(f"{name} must lie in {low}..{2**63 - 1} (got {value})")
    return value


def _parse_header(header: Sequence[str], path) -> dict:
    """The column positions of ``header``, its width, and the structured
    dtype numpy parses a data row into."""
    if not header or header[0] != "id":
        raise ValidationError(f"{path}: line 1: first column must be 'id'")
    features = []
    j = 1
    while j < len(header) and header[j] == f"f{len(features)}":
        features.append(j)
        j += 1
    if not features:
        raise ValidationError(f"{path}: line 1: expected feature columns f0..")
    fields = [("id", np.int64), ("f", np.float64, (len(features),))]
    label_col = None
    score_col = None
    if j < len(header) and header[j] == "label":
        label_col = j
        fields.append(("label", np.int64))
        j += 1
    if j < len(header) and header[j] == "score":
        score_col = j
        fields.append(("score", np.float64))
        j += 1
    if j != len(header):
        raise ValidationError(
            f"{path}: line 1: unexpected column {header[j]!r} "
            "(schema is id,f0..f{D-1}[,label][,score])"
        )
    return {"id": 0, "features": features, "label": label_col, "score": score_col,
            "width": len(header), "dtype": np.dtype(fields)}
