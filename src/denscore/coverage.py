"""Coverage geometry and generalization-bound reports.

A selected subset s partitions the dataset into coverage areas: every point
belongs to its nearest selected point (ties to the lowest selected index).
Two scalar summaries of that partition drive the bound reports:

* ``delta`` -- the classical covering radius, the largest distance from any
  point to its selected representative, and
* ``max_radial`` -- the largest per-cell mean distance (the average radial
  distance of the worst coverage area), which never exceeds ``delta``.

Both feed a Hoeffding-style deviation term to produce the classical and the
tightened bound values.

Cost for n points, |s| selected, dimension d: the assignment takes
O(n * |s| * d) time and O(n) memory plus one block of distances (see
`data.nearest_selected`); every summary is then O(n) from its distances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import (
    PointSet,
    ValidationError,
    canonical_metric,
    nearest_selected,
    pairwise_distances,
)

__all__ = [
    "CoverageAssignment",
    "BoundParams",
    "BoundReport",
    "assign_coverage",
    "classical_radius",
    "average_radial_distance",
    "all_radial_distances",
    "hoeffding_term",
    "bound_report",
    "brute_force_k_center",
]

# Slack for asserting the exact mean-vs-max ordering in floating point.
ORDERING_RTOL = 1e-12

_BRUTE_FORCE_MAX_N = 16
_BRUTE_FORCE_MAX_B = 5


@dataclass(frozen=True, eq=False)
class CoverageAssignment:
    """Nearest-selected partition of a point set.

    selected: sorted unique selected indices.
    pi: for every point, the selected index it is assigned to.  A selected
        point whose coordinates duplicate a lower selected index lands in
        that index's area and leaves its own area empty.
    distances: for every point, its distance to ``pi`` under ``metric``.
    """

    selected: np.ndarray
    pi: np.ndarray
    distances: np.ndarray
    metric: str

    @property
    def n(self) -> int:
        return self.pi.shape[0]


def _check_selected(selected, n: int) -> np.ndarray:
    sel = np.asarray(selected, dtype=np.int64).ravel()
    if sel.size == 0:
        raise ValidationError("selected set must be non-empty")
    if sel.min() < 0 or sel.max() >= n:
        raise ValidationError(
            f"selected index out of range (n={n}, got {int(sel.min())}..{int(sel.max())})"
        )
    uniq = np.unique(sel)
    if uniq.size != sel.size:
        raise ValidationError("selected set must not contain duplicates")
    return uniq


def assign_coverage(
    points: PointSet, selected, metric: str = "euclidean"
) -> CoverageAssignment:
    """Assign every point to its nearest selected point.

    Ties resolve to the lowest selected index; squared and plain Euclidean
    give the same assignment, and the metric sets ``distances``.
    """
    metric = canonical_metric(metric)
    sel = _check_selected(selected, points.n)
    position, sq = nearest_selected(points.features, points.features[sel])
    distances = sq if metric == "squared-euclidean" else np.sqrt(sq)
    pi = sel[position]
    for arr in (sel, pi, distances):
        arr.setflags(write=False)
    return CoverageAssignment(sel, pi, distances, metric)


def _check_points(cov: CoverageAssignment, points: PointSet) -> None:
    if cov.n != points.n:
        raise ValidationError("assignment does not match point set")


def classical_radius(cov: CoverageAssignment, points: PointSet) -> float:
    """Largest point-to-representative distance (the covering radius)."""
    _check_points(cov, points)
    return float(np.max(cov.distances))


def average_radial_distance(
    cov: CoverageAssignment, points: PointSet, k: int
) -> float:
    """Mean distance from the members of coverage area k to point k.

    The mean counts the selected point's own zero distance.  An empty area
    has mean 0 by convention.
    """
    _check_points(cov, points)
    k = int(k)
    if k not in cov.selected:
        raise ValidationError(f"point {k} is not in the selected set")
    vals = cov.distances[cov.pi == k]
    return float(np.mean(vals)) if vals.size else 0.0


def all_radial_distances(
    cov: CoverageAssignment, points: PointSet
) -> dict[int, float]:
    """Average radial distance of every coverage area, keyed by index
    (0 for an empty area, as in `average_radial_distance`)."""
    _check_points(cov, points)
    pos = np.searchsorted(cov.selected, cov.pi)
    counts = np.bincount(pos, minlength=cov.selected.size)
    sums = np.bincount(pos, weights=cov.distances, minlength=cov.selected.size)
    means = sums / np.maximum(counts, 1)
    return dict(zip(cov.selected.tolist(), means.tolist()))


def hoeffding_term(loss_bound: float, confidence: float, n: int) -> float:
    """Deviation term sqrt(L^2 * ln(1/gamma) / (2n)).

    loss_bound L > 0 bounds the per-point loss, confidence gamma in (0, 1]
    is the failure probability, n >= 1 the sample count.  Monotone
    decreasing in n and in gamma; exactly 0 at gamma = 1.
    """
    loss_bound = float(loss_bound)
    confidence = float(confidence)
    n = int(n)
    if not (loss_bound > 0 and math.isfinite(loss_bound)):
        raise ValidationError("loss_bound must be a positive finite number")
    if not (0.0 < confidence <= 1.0):
        raise ValidationError("confidence must lie in (0, 1]")
    if n < 1:
        raise ValidationError("n must be >= 1")
    return math.sqrt(loss_bound**2 * math.log(1.0 / confidence) / (2.0 * n))


@dataclass(frozen=True)
class BoundParams:
    """Constants of the bound: Lipschitz factors, loss bound, class count,
    and the confidence level of the deviation term."""

    lambda_l: float = 1.0
    lambda_eta: float = 1.0
    loss_bound: float = 1.0
    num_classes: int = 1
    confidence: float = 0.05

    def __post_init__(self):
        for name in ("lambda_l", "lambda_eta", "loss_bound"):
            v = float(getattr(self, name))
            if not (v > 0 and math.isfinite(v)):
                raise ValidationError(f"{name} must be a positive finite number")
            object.__setattr__(self, name, v)
        if int(self.num_classes) < 1:
            raise ValidationError("num_classes must be >= 1")
        object.__setattr__(self, "num_classes", int(self.num_classes))
        c = float(self.confidence)
        if not (0.0 < c < 1.0):
            raise ValidationError("confidence must lie in (0, 1)")
        object.__setattr__(self, "confidence", c)

    @property
    def coefficient(self) -> float:
        """lambda_l + lambda_eta * L * C, the radius multiplier."""
        return self.lambda_l + self.lambda_eta * self.loss_bound * self.num_classes

    def to_dict(self) -> dict:
        return {
            "lambda_l": self.lambda_l,
            "lambda_eta": self.lambda_eta,
            "loss_bound": self.loss_bound,
            "num_classes": self.num_classes,
            "confidence": self.confidence,
        }


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Coverage-radius summaries and the two bound values they imply."""

    delta: float
    radial: dict[int, float]
    max_radial: float
    hoeffding: float
    classical_bound_value: float
    tight_bound_value: float
    metric: str
    n: int
    num_selected: int
    params: BoundParams

    def to_dict(self, ids: np.ndarray | None = None) -> dict:
        def key(k: int) -> str:
            return str(int(ids[k]) if ids is not None else k)

        return {
            "delta": self.delta,
            "radial": {key(k): v for k, v in self.radial.items()},
            "max_radial": self.max_radial,
            "hoeffding": self.hoeffding,
            "classical_bound_value": self.classical_bound_value,
            "tight_bound_value": self.tight_bound_value,
            "metric": self.metric,
            "n": self.n,
            "num_selected": self.num_selected,
            "params": self.params.to_dict(),
        }


def bound_report(
    points: PointSet,
    selected,
    metric: str = "euclidean",
    params: BoundParams | None = None,
) -> BoundReport:
    """Compute delta, per-area radial means, and both bound values.

    The mean-vs-max ordering (max_radial <= delta) is asserted before the
    report is returned; a violation would be an internal error, not bad
    input.
    """
    params = params if params is not None else BoundParams()
    cov = assign_coverage(points, selected, metric)
    delta = classical_radius(cov, points)
    radial = all_radial_distances(cov, points)
    max_radial = max(radial.values())
    eps = hoeffding_term(params.loss_bound, params.confidence, points.n)
    coef = params.coefficient
    if max_radial > delta + ORDERING_RTOL * delta:
        raise RuntimeError(
            "internal invariant violated: max mean radial distance "
            f"{max_radial} exceeds covering radius {delta}"
        )
    return BoundReport(
        delta=delta,
        radial=radial,
        max_radial=float(max_radial),
        hoeffding=eps,
        classical_bound_value=delta * coef + eps,
        tight_bound_value=float(max_radial) * coef + eps,
        metric=cov.metric,
        n=points.n,
        num_selected=int(cov.selected.size),
        params=params,
    )


def brute_force_k_center(
    points: PointSet, b: int, metric: str = "euclidean"
) -> tuple[tuple[int, ...], float]:
    """Exhaustively minimize the covering radius over all size-b subsets.

    Only for oracle-scale instances (n <= 16, b <= 5).  Ties resolve to the
    lexicographically smallest subset because candidates are enumerated in
    lexicographic order and replaced only on strict improvement.
    """
    metric = canonical_metric(metric)
    n = points.n
    b = int(b)
    if n > _BRUTE_FORCE_MAX_N:
        raise ValidationError(
            f"instance too large for exhaustive search (n={n} > {_BRUTE_FORCE_MAX_N})"
        )
    if not (1 <= b <= n):
        raise ValidationError(f"b must lie in 1..n (got {b})")
    if b > _BRUTE_FORCE_MAX_B:
        raise ValidationError(
            f"instance too large for exhaustive search (b={b} > {_BRUTE_FORCE_MAX_B})"
        )
    sq = pairwise_distances(points.features, points.features, "squared-euclidean")
    best_subset: tuple[int, ...] | None = None
    best_sq = math.inf
    for subset in itertools.combinations(range(n), b):
        cols = np.asarray(subset, dtype=np.int64)
        radius_sq = float(np.max(np.min(sq[:, cols], axis=1)))
        if radius_sq < best_sq:
            best_sq = radius_sq
            best_subset = subset
    value = best_sq if metric == "squared-euclidean" else math.sqrt(best_sq)
    return best_subset, float(value)
