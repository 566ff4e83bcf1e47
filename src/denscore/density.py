"""Density estimation and the calibration of densities against coverage.

Every estimator funnels a per-point "error" (a local sparsity measure) through
the same map ``d = beta * exp(-err / tau)``, so larger errors mean lower
densities and an error of zero maps to ``beta`` exactly.  Estimators:

* ``knn_density`` -- error is the mean distance to the k nearest neighbors,
* ``kernel_density`` -- Gaussian kernel mean, affinely rescaled into (0, beta],
* ``masked_reconstruction_error`` + ``grid_density`` -- a grid point's error
  is how badly its feature is reconstructed from the masked neighborhood
  around it (the center never contributes to its own reconstruction).

Cost in n points of dimension d: ``knn_density`` builds a KD-tree and
queries it, O(n log n) time for low d, with O(n k) memory; ``kernel_density``
sums the kernel one block of rows at a time, O(n^2 d) time with O(n) memory
plus ~1 MiB blocks.  No estimator allocates an n x n matrix.

The kNN and grid errors take one shared step: min-max normalization onto
[0, 1] over the candidate set by default (``normalize_errors=False`` disables
it; with all errors equal the normalized error is 0 everywhere), then the
density map.  Every estimator then ends in one tail, ``_density_field``: it
lifts densities below 1e-12 to that floor so downstream divisions stay
finite, counts and logs what it lifted, and builds the `DensityField`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .coverage import all_radial_distances, assign_coverage
from .data import (
    FeatureGrid,
    PointSet,
    ValidationError,
    canonical_metric,
    squared_distance_blocks,
)

__all__ = [
    "DEFAULT_BETA",
    "DEFAULT_TAU",
    "DENSITY_FLOOR",
    "DensityField",
    "MaskedReconstructor",
    "CalibrationReport",
    "density_from_error",
    "normalize_errors_minmax",
    "knn_density",
    "kernel_density",
    "masked_reconstruction_error",
    "grid_density",
    "calibrate",
    "estimator_from_config",
]

logger = logging.getLogger(__name__)

DEFAULT_BETA = math.exp(2.4)
DEFAULT_TAU = 0.25
DENSITY_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class DensityField:
    """Per-point densities in (0, beta], plus the map that produced them.

    ``estimator`` is a descriptor dict (kind and parameters).  For the kernel
    estimator tau plays no role in the map; it is stored as 1.0 and the
    bandwidth lives in the descriptor.  ``num_clamped`` counts values lifted
    to the 1e-12 floor.
    """

    values: np.ndarray
    beta: float
    tau: float
    estimator: dict
    num_clamped: int = 0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size < 1:
            raise ValidationError("density values must be a non-empty 1-d array")
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValidationError("beta must be a positive finite number")
        if not (self.tau > 0 and math.isfinite(self.tau)):
            raise ValidationError("tau must be a positive finite number")
        if not np.all(np.isfinite(values)):
            raise ValidationError("densities must be finite")
        if values.min() <= 0 or values.max() > self.beta * (1 + 1e-12):
            raise ValidationError("densities must lie in (0, beta]")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def density_from_error(err, beta: float = DEFAULT_BETA, tau: float = DEFAULT_TAU):
    """Map non-negative errors to densities: ``beta * exp(-err / tau)``.

    Accepts a scalar or an array; the output has the same shape.  The map is
    strictly decreasing, equals beta at 0 and beta/e at ``err == tau``.
    """
    if not (beta > 0 and math.isfinite(beta)):
        raise ValidationError("beta must be a positive finite number")
    if not (tau > 0 and math.isfinite(tau)):
        raise ValidationError("tau must be a positive finite number")
    arr = np.asarray(err, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValidationError("errors must be finite")
    if np.any(arr < 0):
        raise ValidationError("errors must be non-negative")
    out = beta * np.exp(-arr / tau)
    return float(out) if np.isscalar(err) or arr.ndim == 0 else out


def normalize_errors_minmax(errors: np.ndarray) -> np.ndarray:
    """Min-max rescale onto [0, 1]; an all-equal vector maps to all zeros."""
    errors = np.asarray(errors, dtype=np.float64)
    lo = float(errors.min())
    hi = float(errors.max())
    if hi == lo:
        return np.zeros_like(errors)
    return (errors - lo) / (hi - lo)


def _density_field(
    values: np.ndarray, beta: float, tau: float, estimator: dict
) -> DensityField:
    """Lift values below the floor to it, count and log them, and wrap the
    result with its map and descriptor."""
    low = values < DENSITY_FLOOR
    clamped = int(np.count_nonzero(low))
    if clamped:
        logger.warning(
            "%s estimator: clamped %d densities to the %g floor",
            estimator["kind"], clamped, DENSITY_FLOOR,
        )
        values = np.where(low, DENSITY_FLOOR, values)
    return DensityField(values, beta, tau, estimator, num_clamped=clamped)


def _field_from_errors(
    errors: np.ndarray, beta: float, tau: float, normalize_errors: bool,
    estimator: dict,
) -> DensityField:
    """Optionally min-max normalize the errors, map them through
    `density_from_error`, and end in the shared tail."""
    if normalize_errors:
        errors = normalize_errors_minmax(errors)
    estimator = {**estimator, "normalize_errors": bool(normalize_errors)}
    return _density_field(density_from_error(errors, beta, tau), beta, tau, estimator)


def _torus_period(torus_period, dim: int) -> np.ndarray:
    """One positive finite period per coordinate, from a scalar or a vector."""
    try:
        period = np.asarray(torus_period, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValidationError(
            f"torus_period must be a number or a sequence of numbers "
            f"(got {torus_period!r})"
        ) from None
    if period.ndim == 0:
        period = np.full(dim, float(period))
    if period.shape != (dim,):
        raise ValidationError(
            f"torus_period must be a scalar or have one entry per coordinate "
            f"({dim}); got shape {period.shape}"
        )
    if not np.all(np.isfinite(period)) or np.any(period <= 0):
        raise ValidationError("torus_period entries must be positive and finite")
    return period


def knn_density(
    points: PointSet,
    k_neighbors: int,
    metric: str = "euclidean",
    beta: float = DEFAULT_BETA,
    tau: float = DEFAULT_TAU,
    normalize_errors: bool = True,
    torus_period=None,
) -> DensityField:
    """Density from the mean distance to the k nearest neighbors.

    The point itself is excluded from its neighbor set.  A strictly smaller
    mean neighbor distance always gives a strictly larger density (the error
    normalization and the density map are both order-preserving).

    ``torus_period`` switches to wraparound distances (scalar or one period
    per coordinate) so that uniform grids have no boundary effect.

    Neighbors come from a KD-tree (periodic for the torus): O(n log n) time
    in low dimension, O(n k) memory, and no n x n matrix.
    """
    metric = canonical_metric(metric)
    k = int(k_neighbors)
    if not (1 <= k < points.n):
        raise ValidationError(f"k_neighbors must lie in 1..n-1 (got {k})")
    features = points.features
    if torus_period is not None:
        period = _torus_period(torus_period, points.dim)
        features = np.mod(features, period)
        # np.mod rounds tiny negative values up to the period itself, which
        # the periodic tree rejects; they are the same point as 0.
        features[features >= period] = 0.0
        tree = cKDTree(features, boxsize=period)
    else:
        tree = cKDTree(features)
    # The point's own zero distance is always among its k + 1 smallest, so
    # dropping the first column is exact even when points repeat.
    nearest = tree.query(features, k=k + 1)[0][:, 1:]
    if metric == "squared-euclidean":
        nearest = nearest**2
    return _field_from_errors(
        np.mean(nearest, axis=1), beta, tau, normalize_errors,
        {"kind": "knn", "k_neighbors": k, "metric": metric,
         "torus": torus_period is not None},
    )


def kernel_density(
    points: PointSet,
    bandwidth: float,
    beta: float = DEFAULT_BETA,
) -> DensityField:
    """Gaussian-kernel density, affinely rescaled into (0, beta].

    The raw value is ``k_t = mean over j != t of exp(-||x_t - x_j||^2 /
    (2 h^2))`` and the field is ``beta * k_t / max_j k_j``, so the ordering
    matches the raw kernel density and the maximum maps to beta exactly.
    tau is not part of this map (stored as 1.0; the bandwidth is in the
    estimator descriptor).

    Rows are summed one block of `squared_distance_blocks` at a time:
    O(n^2 d) time, O(n) memory plus ~1 MiB blocks, and bit-identical to
    summing the full n x n kernel matrix row by row.
    """
    bandwidth = float(bandwidth)
    if not (bandwidth > 0 and math.isfinite(bandwidth)):
        raise ValidationError("bandwidth must be a positive finite number")
    if not (beta > 0 and math.isfinite(beta)):
        raise ValidationError("beta must be a positive finite number")
    if points.n < 2:
        raise ValidationError("kernel density needs at least two points")
    features = points.features
    n = points.n
    raw = np.empty(n, dtype=np.float64)
    for start, stop, sq in squared_distance_blocks(features, features):
        kernel = np.exp(-sq / (2.0 * bandwidth**2))
        rows = np.arange(stop - start)
        kernel[rows, rows + start] = 0.0
        raw[start:stop] = np.sum(kernel, axis=1)
    raw /= n - 1
    return _density_field(
        beta * raw / float(raw.max()), beta, 1.0,
        {"kind": "kernel", "bandwidth": bandwidth},
    )


@dataclass(frozen=True, eq=False)
class MaskedReconstructor:
    """Configuration for masked neighborhood reconstruction on a grid.

    kernel_size: odd window edge K >= 3.
    weight_mode: ``uniform`` (1/(K^2-1) per neighbor), ``similarity``
        (softmax over negated squared neighbor-to-center feature distances
        divided by ``temperature``), or ``provided`` (a fixed K x K
        non-negative stencil; its center is forced to zero and the rest is
        renormalized to sum to one).
    The center weight is exactly zero in every mode.
    """

    kernel_size: int
    weight_mode: str = "uniform"
    provided_weights: np.ndarray | None = None
    temperature: float = 1.0

    def __post_init__(self):
        k = int(self.kernel_size)
        if k < 3 or k % 2 == 0:
            raise ValidationError("kernel_size must be an odd integer >= 3")
        object.__setattr__(self, "kernel_size", k)
        if self.weight_mode not in ("uniform", "similarity", "provided"):
            raise ValidationError(
                f"weight_mode must be 'uniform', 'similarity', or 'provided' "
                f"(got {self.weight_mode!r})"
            )
        if not (self.temperature > 0 and math.isfinite(self.temperature)):
            raise ValidationError("temperature must be a positive finite number")
        if self.weight_mode == "provided":
            if self.provided_weights is None:
                raise ValidationError("provided_weights required for mode 'provided'")
            w = np.asarray(self.provided_weights, dtype=np.float64)
            if w.shape != (k, k):
                raise ValidationError("provided_weights must have shape (K, K)")
            if not np.all(np.isfinite(w)) or np.any(w < 0):
                raise ValidationError("provided_weights must be finite and non-negative")
            w = w.copy()
            w[k // 2, k // 2] = 0.0
            total = w.sum()
            if total <= 0:
                raise ValidationError(
                    "provided_weights must have positive mass off-center"
                )
            w /= total
            w.setflags(write=False)
            object.__setattr__(self, "provided_weights", w)
        elif self.provided_weights is not None:
            raise ValidationError("provided_weights only valid for mode 'provided'")


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
    elif rec.weight_mode == "provided":
        flat = np.array(
            [rec.provided_weights[u + r, v + r] for u, v in offsets]
        )
        weights = np.broadcast_to(flat[:, None, None], (len(offsets), h, w))
    else:  # similarity softmax per pixel
        sq = np.sum((shifted - grid.values[None]) ** 2, axis=-1)
        logits = -sq / rec.temperature
        logits -= logits.max(axis=0, keepdims=True)
        expd = np.exp(logits)
        weights = expd / expd.sum(axis=0, keepdims=True)

    reconstruction = np.sum(weights[..., None] * shifted, axis=0)
    return np.sum((reconstruction - grid.values) ** 2, axis=-1)


def grid_density(
    grid: FeatureGrid,
    rec: MaskedReconstructor,
    beta: float = DEFAULT_BETA,
    tau: float = DEFAULT_TAU,
    normalize_errors: bool = True,
) -> DensityField:
    """Density field over the row-major flattened grid, from masked
    reconstruction errors."""
    return _field_from_errors(
        masked_reconstruction_error(grid, rec).ravel(), beta, tau,
        normalize_errors,
        {"kind": "masked-reconstruction", "kernel_size": rec.kernel_size,
         "weight_mode": rec.weight_mode},
    )


@dataclass(frozen=True, eq=False)
class CalibrationReport:
    """How well inverse density predicts the coverage areas' radial means.

    Least-squares fit of radial mean on 1/density over the selected points,
    Spearman correlation of density against radial mean, and an equal-width
    density histogram of per-bin radial means.  ``degenerate`` flags a
    constant regressor (R^2 forced to 0) or an undefined correlation.
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
    metric: str
    num_selected: int

    def to_dict(self) -> dict:
        def opt(x: float):
            return None if (x != x) else x  # NaN -> null

        return {
            "r_squared": self.r_squared,
            "slope": self.slope,
            "intercept": self.intercept,
            "spearman": opt(self.spearman),
            "bin_edges": [float(v) for v in self.bin_edges],
            "bin_counts": [int(v) for v in self.bin_counts],
            "bin_mean_radial": [
                None if (v != v) else float(v) for v in self.bin_mean_radial
            ],
            "degenerate": self.degenerate,
            "pairs": [[a, b] for a, b in self.pairs],
            "metric": self.metric,
            "num_selected": self.num_selected,
        }


def calibrate(
    points: PointSet,
    densities: DensityField,
    selection,
    metric: str = "euclidean",
    num_bins: int = 10,
) -> CalibrationReport:
    """Regress each selected point's mean radial distance on its inverse
    density and report fit quality.

    Needs at least 3 selected points for a meaningful fit.  With a constant
    regressor (all selected densities equal) the report is degenerate:
    slope 0, R^2 0 by convention, correlation undefined.
    """
    if densities.n != points.n:
        raise ValidationError("density field does not match point set")
    if int(num_bins) < 1:
        raise ValidationError("num_bins must be >= 1")
    num_bins = int(num_bins)
    cov = assign_coverage(points, selection, metric)
    if cov.selected.size < 3:
        raise ValidationError(
            f"calibration needs at least 3 selected points (got {cov.selected.size})"
        )
    radial = all_radial_distances(cov, points)
    sel = cov.selected
    d = densities.values[sel]
    y = np.array([radial[int(k)] for k in sel])
    x = 1.0 / d

    degenerate = False
    sxx = float(np.sum((x - x.mean()) ** 2))
    syy = float(np.sum((y - y.mean()) ** 2))
    if sxx == 0.0:
        degenerate = True
        slope, intercept, r_squared = 0.0, float(y.mean()), 0.0
    else:
        sxy = float(np.sum((x - x.mean()) * (y - y.mean())))
        slope = sxy / sxx
        intercept = float(y.mean() - slope * x.mean())
        if syy == 0.0:
            r_squared = 1.0  # constant response fit exactly by its mean
        else:
            residual = y - (slope * x + intercept)
            r_squared = 1.0 - float(np.sum(residual**2)) / syy
            r_squared = min(max(r_squared, 0.0), 1.0)

    if degenerate or syy == 0.0:
        spearman = float("nan")
        degenerate = True
    else:
        # Imported here, its only use: scipy.stats costs about 1 s to import
        # and no other command needs it.
        from scipy import stats

        spearman = float(stats.spearmanr(d, y).statistic)
        if spearman != spearman:
            degenerate = True

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
        metric=cov.metric,
        num_selected=int(sel.size),
    )


_ESTIMATOR_KEYS = {
    "knn": {"kind", "k_neighbors", "metric", "beta", "tau", "normalize_errors"},
    "kernel": {"kind", "bandwidth", "beta"},
}


def estimator_from_config(config: dict):
    """Build ``estimate(points) -> DensityField`` from a config dict.

    Supported kinds: ``knn`` (requires k_neighbors) and ``kernel`` (requires
    bandwidth).  Unknown kinds or fields are rejected by name.
    ``grid_density`` is library-only: it maps a `FeatureGrid`, not a
    `PointSet`, so it cannot serve as a per-round estimator.  The knn
    neighbor count is clamped to n-1 when a round's candidate set is smaller
    than k, so late protocol rounds on a nearly exhausted pool still work.
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
        k = int(config["k_neighbors"])
        metric = config.get("metric", "euclidean")
        beta = float(config.get("beta", DEFAULT_BETA))
        tau = float(config.get("tau", DEFAULT_TAU))
        norm = bool(config.get("normalize_errors", True))

        def estimate(points: PointSet, k=k) -> DensityField:
            k_eff = min(k, points.n - 1)
            return knn_density(points, k_eff, metric, beta, tau, norm)

        return estimate
    if "bandwidth" not in config:
        raise ValidationError("estimator.bandwidth is required for kind 'kernel'")
    bandwidth = float(config["bandwidth"])
    beta = float(config.get("beta", DEFAULT_BETA))

    def estimate(points: PointSet) -> DensityField:
        return kernel_density(points, bandwidth, beta)

    return estimate
