"""Density estimation and the calibration of densities against coverage.

Every estimator funnels a per-point "error" (a local sparsity measure) through
the same map ``d = BETA * exp(-err / tau)`` with the fixed ``BETA = e^2.4``,
so larger errors mean lower densities and an error of zero maps to ``BETA``
exactly.  ``BETA`` scales every density by one factor, so it changes no
pick.  Estimators:

* ``knn_density`` -- error is the mean Euclidean distance to the k nearest
  neighbors,
* ``kernel_density`` -- Gaussian kernel mean, affinely rescaled into (0, BETA],
* ``masked_reconstruction_error`` + ``grid_density`` -- a grid point's error
  is how badly its feature is reconstructed from the masked neighborhood
  around it (the center never contributes to its own reconstruction).

Cost in n points of dimension d: ``knn_density`` builds a KD-tree and
queries it, O(n log n) time for low d, with O(n k) memory; ``kernel_density``
sums the kernel a few rows at a time, O(n^2 d) time with O(n) memory plus two
~256 KiB buffers.  No estimator allocates an n x n matrix.  A kernel field
carries its raw sums (`KernelSums`), and a later call on a superset of its
points extends them: only the rows of the points it lacks are summed, in
O(new n d) time with the same memory bound.

The kNN and grid errors take one shared step, ``_field_from_errors``:
min-max normalization onto [0, 1] over the candidate set (with all errors
equal the normalized error is 0 everywhere), then the density map.  Every
estimator then ends in one tail, ``_density_field``: it lifts densities
below 1e-12 to that floor so downstream divisions stay finite, counts and
logs what it lifted, and builds the `DensityField`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .coverage import _TILE, CoverageAssignment, all_radial_distances
from .data import (
    FeatureGrid,
    PointSet,
    ValidationError,
    _count,
    _id_positions,
    _positive,
    config_value,
)

__all__ = [
    "BETA",
    "DEFAULT_TAU",
    "DENSITY_FLOOR",
    "DensityField",
    "KernelSums",
    "MaskedReconstructor",
    "CalibrationReport",
    "density_from_error",
    "knn_density",
    "kernel_density",
    "masked_reconstruction_error",
    "grid_density",
    "calibrate",
    "estimator_from_config",
]

logger = logging.getLogger(__name__)

BETA = math.exp(2.4)
DEFAULT_TAU = 0.25
DENSITY_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class KernelSums:
    """The raw Gaussian-kernel sums behind a `kernel_density` field.

    ``sums[t]`` is ``sum over j != t of exp(-||x_t - x_j||^2 / (2 h^2))``
    for the point with id ``ids[t]`` and features ``features[t]``, at
    ``bandwidth`` h.  A later `kernel_density` call on a superset of these
    points extends the sums instead of recomputing them.
    """

    ids: np.ndarray
    features: np.ndarray
    bandwidth: float
    sums: np.ndarray

    def __post_init__(self):
        m = self.ids.shape[0]
        if self.ids.shape != (m,) or self.sums.shape != (m,) or (
            self.features.ndim != 2 or self.features.shape[0] != m
        ):
            raise ValidationError("kernel sums must align with their ids and features")


@dataclass(frozen=True, eq=False)
class DensityField:
    """Per-point densities in (0, BETA].

    ``num_clamped`` counts values lifted to the 1e-12 floor.  ``kernel``
    holds the raw sums of a field that `kernel_density` made, and is None
    for every other field.
    """

    values: np.ndarray
    num_clamped: int = 0
    kernel: KernelSums | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size < 1:
            raise ValidationError("density values must be a non-empty 1-d array")
        if not np.all(np.isfinite(values)):
            raise ValidationError("densities must be finite")
        if values.min() <= 0 or values.max() > BETA * (1 + 1e-12):
            raise ValidationError("densities must lie in (0, BETA]")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def density_from_error(err, tau: float = DEFAULT_TAU):
    """Map non-negative errors to densities: ``BETA * exp(-err / tau)``.

    Accepts a scalar or an array; the output has the same shape.  The map is
    strictly decreasing, equals BETA at 0 and BETA/e at ``err == tau``.
    """
    tau = _positive(tau, "tau")
    arr = np.asarray(err, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValidationError("errors must be finite")
    if np.any(arr < 0):
        raise ValidationError("errors must be non-negative")
    out = BETA * np.exp(-arr / tau)
    return float(out) if np.isscalar(err) or arr.ndim == 0 else out


def _density_field(
    values: np.ndarray, kind: str, kernel: KernelSums | None = None
) -> DensityField:
    """Lift values below the floor to it, count them, and log them under
    the estimator ``kind``."""
    low = values < DENSITY_FLOOR
    clamped = int(np.count_nonzero(low))
    if clamped:
        logger.warning(
            "%s estimator: clamped %d densities to the %g floor",
            kind, clamped, DENSITY_FLOOR,
        )
        values = np.where(low, DENSITY_FLOOR, values)
    return DensityField(values, num_clamped=clamped, kernel=kernel)


def _field_from_errors(errors: np.ndarray, tau: float, kind: str) -> DensityField:
    """Min-max rescale the errors onto [0, 1] (all equal maps to all zeros),
    map them through `density_from_error`, and end in the shared tail."""
    lo = float(errors.min())
    hi = float(errors.max())
    errors = np.zeros_like(errors) if hi == lo else (errors - lo) / (hi - lo)
    return _density_field(density_from_error(errors, tau), kind)


def knn_density(
    points: PointSet, k_neighbors: int, tau: float = DEFAULT_TAU
) -> DensityField:
    """Density from the mean Euclidean distance to the k nearest neighbors.

    The point itself is excluded from its neighbor set.  A strictly smaller
    mean neighbor distance always gives a strictly larger density (the error
    normalization and the density map are both order-preserving).

    Neighbors come from a KD-tree: O(n log n) time in low dimension, O(n k)
    memory, and no n x n matrix.
    """
    k = config_value(k_neighbors, int, "k_neighbors")
    if points.n < 2:
        raise ValidationError("kNN density needs at least two points")
    if not (1 <= k < points.n):
        raise ValidationError(f"k_neighbors must lie in 1..n-1 (got {k})")
    features = points.features
    # Imported here, its only use, so that commands that estimate no kNN
    # density never load scipy.spatial.
    from scipy.spatial import cKDTree

    # The point's own zero distance is always among its k + 1 smallest, so
    # dropping the first column is exact even when points repeat.
    nearest = cKDTree(features).query(features, k=k + 1)[0][:, 1:]
    return _field_from_errors(np.mean(nearest, axis=1), tau, "knn")


def kernel_density(
    points: PointSet, bandwidth: float, *, previous: DensityField | None = None
) -> DensityField:
    """Gaussian-kernel density, affinely rescaled into (0, BETA].

    The raw value is ``k_t = mean over j != t of exp(-||x_t - x_j||^2 /
    (2 h^2))`` and the field is ``BETA * k_t / max_j k_j``, so the ordering
    matches the raw kernel density and the maximum maps to BETA exactly.
    The field's ``kernel`` carries the raw sums behind the means.

    ``previous``, a field from an earlier call at the same bandwidth on a
    subset of ``points`` (rows matched by id, in any order), is extended:
    only the rows of the points it lacks are summed, and each of its own
    sums gains those rows' terms in its column (a term is the same from
    either end, as (a - b)^2 == (b - a)^2 in floating point).  Without it
    the empty set of sums is extended, so there is one path.  A
    ``previous`` without kernel sums, at another bandwidth or dimension,
    holding an id that ``points`` lacks, or holding an id with other
    features raises a ValidationError naming the problem.

    A block of rows at a time, the squared distances to every point are
    accumulated in a ~256 KiB buffer one coordinate at a time, then turned
    into kernel terms in place and summed per row (and, when ``previous``
    holds rows, per column): O(new n d) time for the ``new`` rows summed,
    O(n^2 d) from scratch, O(n) memory plus two such buffers, and within
    about 1e-14 relative of the exact sum.  A bandwidth for which 2 h^2 is
    not a positive finite float, or every k_t underflows to 0, raises a
    ValidationError naming it.
    """
    bandwidth = config_value(bandwidth, float, "bandwidth")
    # bandwidth**2 raises OverflowError from about 1.34e154 on
    scale = 2.0 * bandwidth**2 if abs(bandwidth) < 1e154 else math.inf
    if not (bandwidth > 0 and 0.0 < scale < math.inf):
        raise ValidationError(
            "bandwidth must be a positive number with 2 * bandwidth**2 a positive "
            f"finite float (got {bandwidth!r})"
        )
    if points.n < 2:
        raise ValidationError("kernel density needs at least two points")
    n = points.n
    if previous is None:
        empty = np.empty(0, dtype=np.int64)
        held = KernelSums(empty, np.empty((0, points.dim)), bandwidth, np.empty(0))
    else:
        held = previous.kernel if isinstance(previous, DensityField) else None
    at = _held_rows(held, points, bandwidth)
    raw = np.zeros(n)
    raw[at] = held.sums
    fresh = np.setdiff1d(np.arange(n), at, assume_unique=True)
    columns = np.zeros(n) if at.size else None
    coords = np.ascontiguousarray(points.features.T)
    rows = min(n, max(1, _TILE // n))  # two (rows, n) buffers of about 256 KiB
    sq_rows, diff_rows = np.empty((rows, n)), np.empty((rows, n))
    # sq and sq / scale overflow only where exp is 0
    with np.errstate(over="ignore"):
        for start in range(0, fresh.size, rows):
            block = fresh[start : start + rows]
            sq, diff = sq_rows[: block.size], diff_rows[: block.size]
            np.subtract(coords[0, block, None], coords[0], out=sq)
            sq *= sq
            for c in coords[1:]:
                np.subtract(c[block, None], c, out=diff)
                diff *= diff
                sq += diff
            sq /= -scale
            np.exp(sq, out=sq)
            sq[np.arange(block.size), block] = 0.0
            raw[block] = np.sum(sq, axis=1)
            if columns is not None:
                columns += np.sum(sq, axis=0)
    if columns is not None:
        raw[at] += columns[at]
    raw.setflags(write=False)
    mean = raw / (n - 1)
    top = float(mean.max())
    if top == 0.0:
        raise ValidationError(
            f"bandwidth {bandwidth!r} is too small: every kernel term underflows to 0"
        )
    kernel = KernelSums(points.ids, points.features, bandwidth, raw)
    return _density_field(BETA * mean / top, "kernel", kernel)


def _held_rows(held: KernelSums | None, points: PointSet, bandwidth: float):
    """The positions in ``points`` of the rows ``held`` has sums for, after
    checking that those sums can be extended to ``points``."""
    if not isinstance(held, KernelSums):
        raise ValidationError(
            "previous must be a field from kernel_density (it carries no kernel sums)"
        )
    if held.bandwidth != bandwidth:
        raise ValidationError(
            f"previous kernel sums are at bandwidth {held.bandwidth!r}, "
            f"not {bandwidth!r}"
        )
    if held.features.shape[1] != points.dim:
        raise ValidationError(
            f"previous kernel sums are over {held.features.shape[1]}-d points, "
            f"not {points.dim}-d"
        )
    at, lacked = _id_positions(points.ids, held.ids)
    missing = held.ids[lacked]
    if missing.size:
        raise ValidationError(
            f"previous kernel sums hold id {int(missing[0])}, which the points "
            "lack: they must be over a subset of the points"
        )
    moved = held.ids[np.any(points.features[at] != held.features, axis=1)]
    if moved.size:
        raise ValidationError(
            f"previous kernel sums hold id {int(moved[0])} with other features"
        )
    return at


@dataclass(frozen=True, eq=False)
class MaskedReconstructor:
    """Configuration for masked neighborhood reconstruction on a grid.

    kernel_size: odd window edge K >= 3.
    weight_mode: ``uniform`` (1/(K^2-1) per neighbor) or ``similarity``
        (softmax over negated squared neighbor-to-center feature distances
        divided by ``temperature``, the paper's dynamic weighting).
    The center weight is exactly zero in both modes.
    """

    kernel_size: int
    weight_mode: str = "uniform"
    temperature: float = 1.0

    def __post_init__(self):
        k = config_value(self.kernel_size, int, "kernel_size")
        if k < 3 or k % 2 == 0:
            raise ValidationError("kernel_size must be an odd integer >= 3")
        object.__setattr__(self, "kernel_size", k)
        object.__setattr__(self, "temperature", _positive(self.temperature, "temperature"))
        if self.weight_mode not in ("uniform", "similarity"):
            raise ValidationError(
                f"weight_mode must be 'uniform' or 'similarity' "
                f"(got {self.weight_mode!r})"
            )


def masked_reconstruction_error(
    grid: FeatureGrid, rec: MaskedReconstructor
) -> np.ndarray:
    """Squared reconstruction error of every grid point, shape (H, W).

    Each point's feature is predicted as the weighted mean of its K x K
    neighborhood with the center masked out (weights per ``rec``); the
    border is replicate-padded.  The error is the squared Euclidean distance
    between prediction and actual feature.  A constant grid reconstructs
    exactly (all errors 0), and interior errors are translation-equivariant
    with the grid content.
    """
    k = rec.kernel_size
    h, w, _ = grid.values.shape
    if k > min(h, w):
        raise ValidationError(
            f"kernel_size {k} exceeds grid extent ({h}x{w})"
        )
    r = k // 2
    padded = np.pad(grid.values, ((r, r), (r, r), (0, 0)), mode="edge")
    offsets = [(u, v) for u in range(-r, r + 1) for v in range(-r, r + 1)
               if not (u == 0 and v == 0)]
    shifted = np.stack(
        [padded[r + u:r + u + h, r + v:r + v + w, :] for u, v in offsets]
    )  # (K^2-1, H, W, C)

    if rec.weight_mode == "uniform":
        weights = np.full((len(offsets), h, w), 1.0 / len(offsets))
    else:  # similarity softmax per pixel
        sq = np.sum((shifted - grid.values[None]) ** 2, axis=-1)
        logits = -sq / rec.temperature
        logits -= logits.max(axis=0, keepdims=True)
        expd = np.exp(logits)
        weights = expd / expd.sum(axis=0, keepdims=True)

    reconstruction = np.sum(weights[..., None] * shifted, axis=0)
    return np.sum((reconstruction - grid.values) ** 2, axis=-1)


def grid_density(grid: FeatureGrid, rec: MaskedReconstructor) -> DensityField:
    """Density field over the row-major flattened grid, from masked
    reconstruction errors at ``DEFAULT_TAU``."""
    return _field_from_errors(
        masked_reconstruction_error(grid, rec).ravel(), DEFAULT_TAU,
        "masked-reconstruction",
    )


@dataclass(frozen=True, eq=False)
class CalibrationReport:
    """How well inverse density predicts the coverage areas' radial means.

    Least-squares fit of radial mean on 1/density over the selected points,
    Spearman correlation of density against radial mean, and an equal-width
    density histogram of per-bin radial means.  ``degenerate`` flags a
    flat regressor or a flat response (see `calibrate`), the cases in which
    the correlation is undefined.
    """

    r_squared: float
    slope: float
    intercept: float
    spearman: float
    bin_edges: np.ndarray
    bin_counts: np.ndarray
    bin_mean_radial: np.ndarray
    degenerate: bool
    pairs: tuple[tuple[float, float], ...]
    num_selected: int


def calibrate(
    densities: DensityField, cov: CoverageAssignment, num_bins: int = 10
) -> CalibrationReport:
    """Regress each selected point's mean radial distance in the assignment
    ``cov`` on its inverse density and report fit quality.

    Needs at least 3 selected points for a meaningful fit.  A flat column
    (all its values equal) makes the report degenerate, with the rank
    correlation undefined (NaN).  With a flat regressor (every selected
    1/density equal) the fit is slope 0, intercept the mean radial mean and
    R^2 0 by convention.  Otherwise, with a flat response (every radial
    mean equal), it is slope 0, intercept that radial mean and R^2 1: the
    constant fits exactly.
    """
    if densities.n != cov.n:
        raise ValidationError("density field does not match the assignment")
    num_bins = _count(num_bins, "num_bins")
    if cov.selected.size < 3:
        raise ValidationError(
            f"calibration needs at least 3 selected points (got {cov.selected.size})"
        )
    radial = all_radial_distances(cov)
    sel = cov.selected
    d = densities.values[sel]
    y = np.array([radial[int(k)] for k in sel])
    x = 1.0 / d

    # a column is flat when its values are equal; a response whose squares
    # underflow (radial means within about 1e-162 of their mean) is flat to
    # the fit too
    syy = float(np.sum((y - y.mean()) ** 2))
    flat_x = float(x.min()) == float(x.max())
    flat_y = float(y.min()) == float(y.max()) or syy == 0.0
    degenerate = flat_x or flat_y
    spearman = math.nan
    if flat_x:
        slope, intercept, r_squared = 0.0, float(y.mean()), 0.0
    elif flat_y:
        slope, intercept, r_squared = 0.0, float(y[0]), 1.0
    else:
        sxx = float(np.sum((x - x.mean()) ** 2))
        sxy = float(np.sum((x - x.mean()) * (y - y.mean())))
        slope = sxy / sxx
        intercept = float(y.mean() - slope * x.mean())
        residual = y - (slope * x + intercept)
        r_squared = 1.0 - float(np.sum(residual**2)) / syy
        r_squared = min(max(r_squared, 0.0), 1.0)
        # Pearson of the average ranks, laid out as scipy.stats.spearmanr
        # does; both columns vary, so both rank columns do
        ranks = np.column_stack((_average_ranks(d), _average_ranks(y)))
        spearman = float(np.corrcoef(ranks, rowvar=False)[1, 0])

    lo, hi = float(d.min()), float(d.max())
    if hi == lo:
        hi = lo + 1.0  # single degenerate bin holding everything
    edges = np.linspace(lo, hi, num_bins + 1)
    which = np.clip(np.digitize(d, edges[1:-1]), 0, num_bins - 1)
    counts = np.bincount(which, minlength=num_bins)
    sums = np.bincount(which, weights=y, minlength=num_bins)
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)

    return CalibrationReport(
        r_squared=float(r_squared),
        slope=float(slope),
        intercept=float(intercept),
        spearman=spearman,
        bin_edges=edges,
        bin_counts=counts,
        bin_mean_radial=means,
        degenerate=degenerate,
        pairs=tuple((float(a), float(b)) for a, b in zip(x, y)),
        num_selected=int(sel.size),
    )


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``, each tie group given its mean rank."""
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    stops = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + 1 + stops) / 2.0, stops - starts)
    return ranks


_ESTIMATOR_KEYS = {
    "knn": {"kind", "k_neighbors", "tau"},
    "kernel": {"kind", "bandwidth"},
}


def estimator_from_config(config: dict):
    """Build ``estimate(points) -> DensityField`` from a config dict.

    Supported kinds: ``knn`` (requires k_neighbors) and ``kernel`` (requires
    bandwidth).  Unknown kinds or fields are rejected by name.
    ``grid_density`` is library-only: it maps a `FeatureGrid`, not a
    `PointSet`, so it cannot serve as a per-round estimator.  The knn
    neighbor count is clamped to n-1 when a round's candidate set is smaller
    than k, so late protocol rounds on a nearly exhausted pool still work.
    A kernel estimate extends the sums of the one before it (`kernel_density`
    with ``previous``), so each call's points must contain the previous
    call's, as the universes of `run_rounds` do; build one estimator per
    run.  The estimator alone holds those sums: the fields it returns have
    ``kernel=None``.
    """
    if not isinstance(config, dict):
        raise ValidationError("estimator config must be a mapping")
    kind = config.get("kind")
    if kind not in _ESTIMATOR_KEYS:
        raise ValidationError(
            f"estimator.kind must be 'knn' or 'kernel' (got {kind!r})"
        )
    unknown = set(config) - _ESTIMATOR_KEYS[kind]
    if unknown:
        raise ValidationError(
            f"unknown estimator field(s) for kind {kind!r}: {sorted(unknown)}"
        )
    if kind == "knn":
        if "k_neighbors" not in config:
            raise ValidationError("estimator.k_neighbors is required for kind 'knn'")
        k = config_value(config["k_neighbors"], int, "estimator.k_neighbors")
        tau = config_value(config.get("tau", DEFAULT_TAU), float, "estimator.tau")

        def estimate(points: PointSet) -> DensityField:
            return knn_density(points, min(k, points.n - 1), tau)

        return estimate
    if "bandwidth" not in config:
        raise ValidationError("estimator.bandwidth is required for kind 'kernel'")
    bandwidth = config_value(config["bandwidth"], float, "estimator.bandwidth")
    field = None

    def estimate(points: PointSet) -> DensityField:
        nonlocal field
        field = kernel_density(points, bandwidth, previous=field)
        return DensityField(field.values, field.num_clamped)

    return estimate
