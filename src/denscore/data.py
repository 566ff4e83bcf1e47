"""Core data containers, synthetic generators (a Gaussian mixture and a
uniform box), squared distances to one point, and CSV I/O.

Every CSV the package writes goes through `write_csv`, so a float always
reads back as the same double, and every CSV it reads (a dataset or a
selection) through `read_table`, so one parse decides what a field holds.

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
containers alone, and each names the value that breaks it.  A CSV is
valid when `read_table`'s parse (numpy's, into the dtype its header
gives) and the checks of its rows accept it: for a dataset file those are
the containers, and `load_pointset` has no rules of its own.  The error
path finds the first bad line by running the same parse and checks on
prefixes of the file.
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
    repeat = _first_repeat(idx)
    if repeat is not None:
        raise ValidationError(f"{name} set contains duplicate index {int(idx[repeat])}")
    return idx


def _first_repeat(values: np.ndarray) -> int | None:
    """The position of the first entry of ``values``, in the order given,
    that an earlier entry holds too, or None if every entry differs.

    A sort and a neighbour compare decide whether any entry repeats
    (`np.unique` may take a slower hash path); only then does a stable
    argsort, which keeps equal entries in their given order, find which.
    """
    ordered = np.sort(values)
    if not np.any(ordered[1:] == ordered[:-1]):
        return None
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    repeats = np.zeros(values.size, dtype=bool)
    repeats[order[1:]] = ordered[1:] == ordered[:-1]
    return int(np.argmax(repeats))


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
            raise ValidationError("non-finite feature value")
        ids = np.asarray(self.ids, dtype=np.int64)
        if ids.shape != (n,):
            raise ValidationError("ids must align with features (one id per row)")
        repeat = _first_repeat(ids)
        if repeat is not None:
            raise ValidationError(f"duplicate id {ids[repeat]}")
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
            bad = labels[(labels < 1) | (labels > num_classes)][0]
            bound = ">= 1" if bad < 1 else f"<= {num_classes}"
            raise ValidationError(f"label must be {bound} (got {bad})")
        object.__setattr__(self, "labels", _readonly(labels))
        object.__setattr__(self, "num_classes", num_classes)
        if self.scores is not None:
            scores = np.asarray(self.scores, dtype=np.float64)
            if scores.shape != (self.points.n,):
                raise ValidationError("scores must align with points")
            if not np.all(np.isfinite(scores)):
                raise ValidationError("non-finite score")
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
        for name, rule in (("sigmas", _positive), ("counts", _count)):
            given = config_value(getattr(self, name), tuple, name)
            object.__setattr__(self, name, tuple(rule(v, name) for v in given))
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
    above 2**53 stays exact), features and scores as float64.  A missing
    label column defaults every label to 1; ``num_classes`` is the largest
    label, and at least 1.

    A file is valid when `read_table`'s parse and the containers
    (`PointSet`, `LabeledPointSet`) accept it; the loader has no rules of
    its own.  A rejected file names its first bad line with the rule's own
    message: a wrong field count, a field numpy cannot convert (an id or
    label outside int64 among them), a non-finite feature or score, a label
    below 1, or an id an earlier line holds.
    """
    return read_table(path, _parse_header, _dataset)


def read_table(path, schema, build):
    """``build`` of the data lines of the CSV ``path``, parsed by numpy: the
    one reader of every CSV the package takes in.

    ``schema(header, path)`` turns the header line's fields into the dtype
    of a row and the columns numpy reads (``usecols``, None for every
    column, which every row must then hold exactly); ``build(table)``
    checks the parsed rows, at least one, and makes the result.  A field may be quoted or
    padded with spaces, a line may end in CRLF, and empty lines are
    skipped (a line of spaces is a row of one field).

    A rejected file raises a ValidationError naming its first bad line in
    file order, 1-based, with the message of the rule it breaks, numpy's
    or ``build``'s (any ValueError); `_row_error` finds that line with the
    same parse and ``build``.
    """
    with open_text(path) as fh:
        first = fh.readline()
        if not first:
            raise ValidationError(f"{path}: line 1: empty file")
        dtype, usecols = schema([h.strip() for h in next(csv.reader([first]))], path)

        def parse(lines):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a file of no rows
                table = np.loadtxt(lines, dtype=dtype, delimiter=",", quotechar='"',
                                   comments=None, ndmin=1, usecols=usecols)
            return build(table) if table.size else None

        try:
            result = parse(fh)
        except UnicodeDecodeError:
            raise  # not a bad row: open_text names the file, with no re-read
        except ValueError as exc:
            raise _row_error(path, parse, exc) from None
    if result is None:
        raise ValidationError(f"{path}: line 2: no data rows")
    return result


def _dataset(table: np.ndarray) -> LabeledPointSet:
    """The dataset of the rows ``table`` of a dataset CSV (a dtype of
    `_parse_header`), checked by the containers."""
    names = table.dtype.names
    labels = table["label"] if "label" in names else np.ones(table.size, dtype=np.int64)
    return LabeledPointSet(
        PointSet(table["f"], table["id"]),
        labels,
        # at least 1, so a label below 1 always fails the labels rule
        num_classes=max(labels.max(), 1),
        scores=table["score"] if "score" in names else None,
    )


# the 0-based position numpy appends to a conversion error, the row and
# advice it appends to a field-count error, or the row and its field count
# it appends when a row lacks a column of ``usecols``
_NUMPY_POSITION = re.compile(
    r" at row \d+(, column \d+\.|; use `usecols` .*| with \d+ columns)$")


def _row_error(path, parse, cause: ValueError) -> ValidationError:
    """The error naming the first data line of ``path``, in file order,
    that makes it invalid; ``parse`` is `read_table`'s parse of a list of
    data lines, and ``cause`` the error it raised on the whole file.

    Every rule holds per line or over the lines before it (a repeated id),
    so once a prefix of the data lines is rejected, every longer one is
    too.  A bisection finds the shortest prefix that ``parse`` rejects, in
    about log2(lines) parses, and names its last line with that
    rejection's message, less numpy's 0-based position.  Empty lines,
    which numpy skips, keep their line numbers.  It runs only once a load
    has failed, and never reads a line number from a message; if the file
    now loads in full, it changed after that load, and ``cause`` is named
    with the path.
    """
    with open_text(path) as fh:
        lines = fh.readlines()[1:]

    def rejection(k: int) -> ValueError | None:
        try:
            parse(lines[:k])
        except ValueError as exc:
            return exc
        return None

    # lines[:good] loads, and lines[:bad] is rejected with `error`
    good, bad = 0, len(lines)
    error = rejection(bad)
    if error is None:
        return ValidationError(f"{path}: {cause}")
    while bad - good > 1:
        mid = (good + bad) // 2
        found = rejection(mid)
        if found is None:
            good = mid
        else:
            bad, error = mid, found
    problem = _NUMPY_POSITION.sub("", str(error))
    # data line k (from 1) is line k + 1 of the file
    return ValidationError(f"{path}: line {bad + 1}: {problem}")


def _parse_header(header: Sequence[str], path) -> tuple[np.dtype, None]:
    """The structured dtype numpy parses a data row of ``header`` into,
    with every column read: ``id``, the features as one field ``f``, then
    ``label`` and ``score`` if the header has them."""
    if not header or header[0] != "id":
        raise ValidationError(f"{path}: line 1: first column must be 'id'")
    dim = 0
    while 1 + dim < len(header) and header[1 + dim] == f"f{dim}":
        dim += 1
    if not dim:
        raise ValidationError(f"{path}: line 1: expected feature columns f0..")
    fields = [("id", np.int64), ("f", np.float64, (dim,))]
    rest = list(header[1 + dim:])
    for name, kind in (("label", np.int64), ("score", np.float64)):
        if rest and rest[0] == name:
            fields.append((name, kind))
            rest.pop(0)
    if rest:
        raise ValidationError(
            f"{path}: line 1: unexpected column {rest[0]!r} "
            "(schema is id,f0..f{D-1}[,label][,score])"
        )
    return np.dtype(fields), None
