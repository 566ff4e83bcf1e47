"""Core data containers, synthetic generators, and CSV I/O.

Conventions shared across the package:

* features are float64 arrays of shape (n, dim); all arrays handed to or
  produced by the containers are made read-only,
* points are addressed by positional index 0..n-1 in every algorithm; the
  ``ids`` column only matters at the file boundary,
* labels are integers in 1..num_classes,
* metrics are ``"euclidean"`` or ``"squared-euclidean"`` (``"squared"`` is
  accepted as an alias).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .rng import PortableRng

__all__ = [
    "ValidationError",
    "PointSet",
    "LabeledPointSet",
    "FeatureGrid",
    "GeneratorSpec",
    "canonical_metric",
    "distance",
    "pairwise_distances",
    "squared_distance_blocks",
    "nearest_selected",
    "generate",
    "normalize",
    "load_pointset",
    "save_pointset",
]

GENERATOR_KINDS = ("gaussian-mixture", "uniform-box", "grid-blobs")

_METRIC_ALIASES = {
    "euclidean": "euclidean",
    "squared-euclidean": "squared-euclidean",
    "squared": "squared-euclidean",
}


class ValidationError(ValueError):
    """An input violates a documented precondition."""


def canonical_metric(metric: str) -> str:
    try:
        return _METRIC_ALIASES[metric]
    except KeyError:
        raise ValidationError(
            f"unknown metric {metric!r}; expected one of "
            "'euclidean', 'squared-euclidean' (alias 'squared')"
        ) from None


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
        if len(np.unique(ids)) != n:
            raise ValidationError("ids must be unique")
        object.__setattr__(self, "features", _readonly(feats))
        object.__setattr__(self, "ids", _readonly(ids))

    @classmethod
    def from_features(cls, features: np.ndarray) -> "PointSet":
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 1:
            features = features[:, None]
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

    ``scores`` optionally carries per-point uncertainty values read from a
    dataset file; ``labels_defaulted`` flags a file that had no label column
    (every label was filled with 1).
    """

    points: PointSet
    labels: np.ndarray
    num_classes: int
    scores: np.ndarray | None = None
    labels_defaulted: bool = False

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.shape != (self.points.n,):
            raise ValidationError("labels must align with points")
        if self.num_classes < 1:
            raise ValidationError("num_classes must be >= 1")
        if labels.min() < 1 or labels.max() > self.num_classes:
            raise ValidationError("labels must lie in 1..num_classes")
        object.__setattr__(self, "labels", _readonly(labels))
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

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def channels(self) -> int:
        return self.values.shape[2]

    def flatten(self) -> PointSet:
        """Row-major flattening of the grid into a PointSet."""
        h, w, c = self.values.shape
        return PointSet.from_features(self.values.reshape(h * w, c))


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a synthetic labeled dataset.

    kind:
        ``gaussian-mixture`` -- isotropic Gaussian components at ``means``
        with per-component ``sigmas`` and ``counts``; labels are the
        1-based component index, points stacked in component order.
        ``uniform-box`` -- axis-aligned uniform boxes; ``means`` are the box
        centers and ``sigmas`` the half-widths; every label is 1.
        ``grid-blobs`` -- isotropic Gaussian blobs centred on a
        ``grid_shape`` lattice with ``grid_spacing`` in the first two
        coordinates (zeros elsewhere); labels are the 1-based blob index
        in row-major order.  ``means`` is ignored; ``sigmas``/``counts``
        are scalars or one value per blob.
    """

    kind: str
    seed: int
    means: tuple[tuple[float, ...], ...] = ()
    sigmas: tuple[float, ...] = ()
    counts: tuple[int, ...] = ()
    dim: int | None = None
    grid_shape: tuple[int, int] | None = None
    grid_spacing: float | None = None

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValidationError(
                f"kind: unknown generator kind {self.kind!r}; "
                f"expected one of {GENERATOR_KINDS}"
            )
        object.__setattr__(self, "seed", int(self.seed))
        if self.kind == "grid-blobs":
            self._validate_grid()
        else:
            self._validate_components()

    def _validate_components(self):
        means = tuple(tuple(float(x) for x in row) for row in self.means)
        if not means:
            raise ValidationError("means: at least one component is required")
        dim = len(means[0])
        if dim < 1:
            raise ValidationError("means: component mean must have >= 1 coordinate")
        if any(len(row) != dim for row in means):
            raise ValidationError("means: all component means must share a dimension")
        if self.dim is not None and self.dim != dim:
            raise ValidationError("dim: inconsistent with means")
        sigmas = tuple(float(s) for s in self.sigmas)
        counts = tuple(int(c) for c in self.counts)
        if len(sigmas) != len(means):
            raise ValidationError("sigmas: need one value per component")
        if len(counts) != len(means):
            raise ValidationError("counts: need one value per component")
        if any(s <= 0 for s in sigmas):
            raise ValidationError("sigmas: must be strictly positive")
        if any(c < 1 for c in counts):
            raise ValidationError("counts: must be >= 1")
        if not all(math.isfinite(x) for row in means for x in row):
            raise ValidationError("means: must be finite")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sigmas", sigmas)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "dim", dim)

    def _validate_grid(self):
        if self.grid_shape is None or self.grid_spacing is None:
            raise ValidationError(
                "grid_shape/grid_spacing: required for kind 'grid-blobs'"
            )
        rows, cols = (int(v) for v in self.grid_shape)
        if rows < 1 or cols < 1:
            raise ValidationError("grid_shape: entries must be >= 1")
        spacing = float(self.grid_spacing)
        if not (spacing > 0 and math.isfinite(spacing)):
            raise ValidationError("grid_spacing: must be a positive finite number")
        dim = 2 if self.dim is None else int(self.dim)
        if dim < 2:
            raise ValidationError("dim: grid-blobs needs dim >= 2")
        blobs = rows * cols
        sigmas = self.sigmas if self.sigmas else (1.0,)
        counts = self.counts if self.counts else (1,)
        sigmas = tuple(float(s) for s in sigmas)
        counts = tuple(int(c) for c in counts)
        if len(sigmas) == 1:
            sigmas = sigmas * blobs
        if len(counts) == 1:
            counts = counts * blobs
        if len(sigmas) != blobs:
            raise ValidationError("sigmas: need one value (or one per blob)")
        if len(counts) != blobs:
            raise ValidationError("counts: need one value (or one per blob)")
        if any(s <= 0 for s in sigmas):
            raise ValidationError("sigmas: must be strictly positive")
        if any(c < 1 for c in counts):
            raise ValidationError("counts: must be >= 1")
        centers = []
        for r in range(rows):
            for c in range(cols):
                center = [0.0] * dim
                center[0] = r * spacing
                center[1] = c * spacing
                centers.append(tuple(center))
        object.__setattr__(self, "grid_shape", (rows, cols))
        object.__setattr__(self, "grid_spacing", spacing)
        object.__setattr__(self, "means", tuple(centers))
        object.__setattr__(self, "sigmas", sigmas)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "dim", dim)

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "seed": self.seed,
            "means": [list(row) for row in self.means],
            "sigmas": list(self.sigmas),
            "counts": list(self.counts),
            "dim": self.dim,
        }
        if self.kind == "grid-blobs":
            out["grid_shape"] = list(self.grid_shape)
            out["grid_spacing"] = self.grid_spacing
        return out

    def with_seed(self, seed: int) -> "GeneratorSpec":
        return replace(self, seed=int(seed))


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


def distance(a: np.ndarray, b: np.ndarray, metric: str = "euclidean") -> float:
    """Distance between two feature vectors under the named metric."""
    metric = canonical_metric(metric)
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValidationError(
            f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}"
        )
    sq = float(np.sum((a - b) ** 2))
    return sq if metric == "squared-euclidean" else math.sqrt(sq)


# Byte budget for one block's (rows, len(b), dim) coordinate-difference
# temporary: about 1 MiB keeps it in cache on common CPUs.
_BLOCK_BYTES = 2**20


def block_rows(num_cols: int, dim: int) -> int:
    """Rows per block so one block of differences against ``num_cols``
    points in ``dim`` coordinates stays near the 1 MiB budget (at least 1)."""
    return max(1, _BLOCK_BYTES // (8 * max(1, num_cols) * max(1, dim)))


def squared_distance_blocks(
    a: np.ndarray, b: np.ndarray, chunk: int | None = None
):
    """Yield ``(start, stop, sq)``: the squared distances from
    ``a[start:stop]`` to every row of ``b``, for consecutive row blocks.

    Entries come from explicit coordinate differences (no inner-product
    expansion) and are bit-identical for any ``chunk`` (default `block_rows`);
    each block holds two ~1 MiB temporaries, the differences and squares.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[1] != b.shape[1]:
        raise ValidationError(
            f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    if chunk is None:
        chunk = block_rows(b.shape[0], b.shape[1])
    for start in range(0, a.shape[0], chunk):
        stop = min(start + chunk, a.shape[0])
        diff = a[start:stop, None, :] - b[None, :, :]
        yield start, stop, np.sum(diff * diff, axis=-1)


def pairwise_distances(
    a: np.ndarray,
    b: np.ndarray,
    metric: str = "euclidean",
    chunk: int | None = None,
) -> np.ndarray:
    """Dense (len(a), len(b)) distance matrix filled from
    `squared_distance_blocks`: O(len(a) * len(b) * dim) time, memory the
    output plus one block."""
    metric = canonical_metric(metric)
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    out = np.empty((a.shape[0], b.shape[0]), dtype=np.float64)
    for start, stop, sq in squared_distance_blocks(a, b, chunk):
        out[start:stop] = sq
    if metric == "euclidean":
        np.sqrt(out, out=out)
    return out


def nearest_selected(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Position of the nearest row of ``b`` for every row of ``a`` (ties to
    the lowest position), and the squared distance to it.

    O(len(a) * len(b) * dim) time; O(len(a)) memory plus one block of
    `squared_distance_blocks`, never the len(a) x len(b) matrix.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    position = np.empty(a.shape[0], dtype=np.intp)
    sq_min = np.empty(a.shape[0], dtype=np.float64)
    for start, stop, sq in squared_distance_blocks(a, b):
        np.argmin(sq, axis=1, out=position[start:stop])
        np.min(sq, axis=1, out=sq_min[start:stop])
    return position, sq_min


def normalize(points: PointSet) -> PointSet:
    """Project every feature vector onto the unit sphere.

    Zero-norm rows cannot be normalized; the error names the offending id.
    """
    norms = np.sqrt(np.sum(points.features**2, axis=1))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValidationError(
            f"cannot normalize zero-norm feature vector (id {int(points.ids[zero[0]])})"
        )
    return PointSet(points.features / norms[:, None], points.ids)


def _format_value(x: float) -> str:
    # repr gives the shortest decimal string that round-trips the double.
    return repr(float(x))


def save_pointset(dataset: LabeledPointSet, path) -> None:
    """Write ``id,f0..f{D-1},label[,score]`` CSV; values round-trip exactly."""
    dim = dataset.dim
    header = ["id"] + [f"f{j}" for j in range(dim)] + ["label"]
    if dataset.scores is not None:
        header.append("score")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(dataset.n):
            row = [str(int(dataset.points.ids[i]))]
            row += [_format_value(v) for v in dataset.points.features[i]]
            row.append(str(int(dataset.labels[i])))
            if dataset.scores is not None:
                row.append(_format_value(dataset.scores[i]))
            writer.writerow(row)


def load_pointset(path) -> LabeledPointSet:
    """Read a ``id,f0..f{D-1}[,label][,score]`` CSV.

    A missing label column defaults every label to 1 and sets
    ``labels_defaulted``.  Schema or value problems raise ValidationError
    with the 1-based line number.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: line 1: empty file") from None
        header = [h.strip() for h in header]
        cols = _parse_header(header, path)
        ids, feats, labels, scores = [], [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValidationError(
                    f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                ids.append(int(row[cols['id']]))
                feats.append([float(row[j]) for j in cols['features']])
                if cols['label'] is not None:
                    labels.append(int(row[cols['label']]))
                if cols['score'] is not None:
                    scores.append(float(row[cols['score']]))
            except ValueError as exc:
                raise ValidationError(f"{path}: line {lineno}: {exc}") from None
            if not all(math.isfinite(v) for v in feats[-1]):
                raise ValidationError(
                    f"{path}: line {lineno}: non-finite feature value"
                )
    if not ids:
        raise ValidationError(f"{path}: line 2: no data rows")
    id_arr = np.asarray(ids, dtype=np.int64)
    if len(np.unique(id_arr)) != len(id_arr):
        dup = int(id_arr[_first_duplicate(id_arr)])
        raise ValidationError(f"{path}: duplicate id {dup}")
    feats = np.asarray(feats, dtype=np.float64)
    labels_defaulted = cols['label'] is None
    if labels_defaulted:
        label_arr = np.ones(len(id_arr), dtype=np.int64)
    else:
        label_arr = np.asarray(labels, dtype=np.int64)
        if label_arr.min() < 1:
            raise ValidationError(f"{path}: labels must be >= 1")
    score_arr = np.asarray(scores, dtype=np.float64) if scores else None
    points = PointSet(feats, id_arr)
    return LabeledPointSet(
        points,
        label_arr,
        num_classes=int(label_arr.max()),
        scores=score_arr,
        labels_defaulted=labels_defaulted,
    )


def _parse_header(header: Sequence[str], path) -> dict:
    if not header or header[0] != "id":
        raise ValidationError(f"{path}: line 1: first column must be 'id'")
    features = []
    j = 1
    while j < len(header) and header[j] == f"f{len(features)}":
        features.append(j)
        j += 1
    if not features:
        raise ValidationError(f"{path}: line 1: expected feature columns f0..")
    label_col = None
    score_col = None
    if j < len(header) and header[j] == "label":
        label_col = j
        j += 1
    if j < len(header) and header[j] == "score":
        score_col = j
        j += 1
    if j != len(header):
        raise ValidationError(
            f"{path}: line 1: unexpected column {header[j]!r} "
            "(schema is id,f0..f{D-1}[,label][,score])"
        )
    return {"id": 0, "features": features, "label": label_col, "score": score_col}


def _first_duplicate(values: np.ndarray) -> int:
    seen = set()
    for i, v in enumerate(values.tolist()):
        if v in seen:
            return i
        seen.add(v)
    return -1
