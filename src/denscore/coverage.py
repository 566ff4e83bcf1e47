"""Coverage geometry and generalization-bound reports.

A selected subset s partitions the dataset into coverage areas: every point
belongs to its nearest selected point (ties to the lowest selected index).
Two scalar summaries of that partition drive the bound reports:

* ``delta`` -- the classical covering radius, the largest distance from any
  point to its selected representative, and
* ``max_radial`` -- the largest per-cell mean distance (the average radial
  distance of the worst coverage area), which never exceeds ``delta``.

Both feed a Hoeffding-style deviation term to produce the classical and the
tightened bound values.  The per-area means are computed in one place,
`all_radial_distances`.  The exhaustive k-center optimum that checks the
greedy's factor-2 guarantee is a test oracle (``tests/oracles.py``), not
part of the package.

Every distance is Euclidean, on the features as given.  The bound assumes
losses Lipschitz in a metric, and the pruning below rests on the triangle
inequality; squared Euclidean distance is not a metric, so it is only what
the steps compare, and every reported distance is its root.

Cost for n points, |s| selected, dimension d: each new selected point k
costs O(|s| * d + n) to find the points it may take, plus O(d) per such
point to measure it.  `_claim` is that step, for this assignment and for
the greedy (``selection``), whose r_t divides the squared distance by the
density of the selected endpoint (1 here).  A point t can only move to k
if d(t, k) <= sqrt(r_t dens_k), and its owner o lies at d(t, o) =
sqrt(r_t dens_o), so d(o, k) <= sqrt(r_t) (sqrt(dens_o) + sqrt(dens_k)) by
the triangle inequality: k is measured only against the points whose owner
lies that close to it (d(o, k) <= 2 d(t, o) without densities).  Taken in
pick order, a greedy's picks shrink every owner distance and most points
are never measured: at worst (high d, where the bound prunes nothing) this
is the O(n * |s| * d) of measuring every pair.  Memory is O(n).  Every
summary then reads only the assignment, O(n) from its distances.  An
assignment extended by new selected points measures only those points, so
a multi-round protocol that carries one assignment measures each selected
point once per run, not per round.  An unfiltered k-center run measures
each selected point once in total: its greedy runs on every point without
densities, so the greedy's owners and radii are this assignment, and the
protocol extends them with nothing left to measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import (
    PointSet,
    ValidationError,
    check_index_set,
    check_indices,
    config_value,
    squared_distances_to,
)

__all__ = [
    "CoverageAssignment",
    "BoundParams",
    "BoundReport",
    "assign_coverage",
    "classical_radius",
    "all_radial_distances",
    "hoeffding_term",
    "bound_report",
]

# Slack for asserting the exact mean-vs-max ordering in floating point.
ORDERING_RTOL = 1e-12

# Widens the triangle bound of `_claim` so that rounding in either side
# never drops a point k can take.
_WIDEN = 1.0 + 1e-9


@dataclass(frozen=True, eq=False)
class CoverageAssignment:
    """Nearest-selected partition of a point set.

    selected: sorted unique selected indices.
    pi: for every point, the selected index it is assigned to.  A selected
        point whose coordinates duplicate a lower selected index lands in
        that index's area and leaves its own area empty.
    sq_distances: for every point, its squared distance to ``pi`` (what an
        extension compares).
    distances: for every point, its Euclidean distance to ``pi``, the root
        of ``sq_distances``.
    """

    selected: np.ndarray
    pi: np.ndarray
    sq_distances: np.ndarray
    distances: np.ndarray

    @property
    def n(self) -> int:
        return self.pi.shape[0]


def assign_coverage(
    points: PointSet, selected, *, previous: CoverageAssignment | None = None
) -> CoverageAssignment:
    """Assign every point to its nearest selected point in Euclidean
    distance, ties to the lowest selected index.

    ``previous``, an assignment of the same points to a subset of
    ``selected``, is extended: only the selected points it lacks are
    measured, in the order ``selected`` lists them (pick order prunes
    best; see the module docstring).  Without it the empty assignment
    (owner -1 at squared distance inf) is extended, so there is one path,
    and an extended assignment is bit-identical to one assigned from
    scratch, whatever the order.
    """
    order = check_indices(selected, points.n, "selected")
    sel = check_index_set(order, points.n, "selected")
    if previous is None:
        held = np.empty(0, dtype=np.int64)
        pi, sq = np.full(points.n, -1, dtype=np.int64), np.full(points.n, np.inf)
    else:
        if previous.n != points.n:
            raise ValidationError("previous assignment does not match point set")
        held = previous.selected
        pi, sq = previous.pi.copy(), previous.sq_distances.copy()
    new = order[~np.isin(order, held)]
    if new.size != sel.size - held.size:
        raise ValidationError(
            "selected set must contain the previous assignment's selected set"
        )
    to_owner = np.zeros(points.n)
    with np.errstate(over="ignore", invalid="ignore"):  # `_claim` raises
        for k in new.tolist():
            _claim(points.features, k, sel, to_owner, pi, sq)
    distances = np.sqrt(sq)
    for arr in (sel, pi, sq, distances):
        arr.setflags(write=False)
    return CoverageAssignment(sel, pi, sq, distances)


def _claim(
    features: np.ndarray, k: int, held: np.ndarray, to_owner: np.ndarray,
    pi: np.ndarray, sq: np.ndarray, densities: np.ndarray | None = None,
) -> None:
    """Hand the new selected point k, in place, every point it is strictly
    nearer to than to its owner, or as near and of lower index (the scratch
    argmin's tie rule).

    Nearness is the squared distance, divided by k's density when
    ``densities`` is given (the greedy's r).  ``sq`` holds every point's
    nearness to its owner ``pi``; an unowned point has owner -1 and
    nearness inf.  ``held`` lists the selected points, the only owners, and
    ``to_owner``, a reusable buffer of len(features), is overwritten there
    with d^2(o, k) / (sqrt(dens_o) + sqrt(dens_k))^2.  Only the points t
    whose owner o has that ratio within sq_t pass the triangle bound
    (module docstring) and are measured; an unowned point always is.

    A squared distance, or its quotient by a density, that overflows
    float64 raises a ValidationError before anything is handed over (an
    inf nearness would tie and fall back to index order).  Measuring every
    selected point against every point would overflow too: it measures the
    owners o, and the ratio is at most d^2(o, k) / dens_k up to rounding.
    Callers enter ``np.errstate(over="ignore", invalid="ignore")`` once
    around all their claims, so an overflow reaches this check as inf or
    nan instead of raising a warning.
    """
    root_k = 1.0 if densities is None else math.sqrt(densities[k])
    root_held = 1.0 if densities is None else np.sqrt(densities[held])
    ratio = (
        squared_distances_to(features[held], features[k]) / (root_held + root_k) ** 2
    )
    to_owner[held] = ratio
    # read only at owners, and at pi = -1 (its last entry, finite), where
    # sq = inf makes the point a candidate whatever the entry holds
    rows = np.flatnonzero(to_owner[pi] <= _WIDEN * sq)
    new_sq = squared_distances_to(features[rows], features[k])
    if densities is not None:
        new_sq /= densities[k]
    if not (np.isfinite(ratio).all() and np.isfinite(new_sq).all()):
        raise ValidationError(
            f"a squared distance to selected point {k}, or its quotient by a "
            "density, overflows float64; rescale the features, or every density "
            "(rescaling every density by one factor changes no pick)"
        )
    old_sq = sq[rows]
    take = (new_sq < old_sq) | ((new_sq == old_sq) & (k < pi[rows]))
    rows = rows[take]
    pi[rows] = k
    sq[rows] = new_sq[take]


def classical_radius(cov: CoverageAssignment) -> float:
    """Largest point-to-representative distance (the covering radius)."""
    return float(np.max(cov.distances))


def all_radial_distances(cov: CoverageAssignment) -> dict[int, float]:
    """Mean distance from the members of every coverage area to its
    selected point, keyed by that index.

    The mean counts the selected point's own zero distance.  An empty area
    has mean 0 by convention.
    """
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
    loss_bound = config_value(loss_bound, float, "loss_bound")
    confidence = config_value(confidence, float, "confidence")
    n = config_value(n, int, "n")
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
            v = config_value(getattr(self, name), float, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValidationError(f"{name} must be a positive finite number")
            object.__setattr__(self, name, v)
        num_classes = config_value(self.num_classes, int, "num_classes")
        if num_classes < 1:
            raise ValidationError("num_classes must be >= 1")
        object.__setattr__(self, "num_classes", num_classes)
        c = config_value(self.confidence, float, "confidence")
        if not (0.0 < c < 1.0):
            raise ValidationError("confidence must lie in (0, 1)")
        object.__setattr__(self, "confidence", c)

    @property
    def coefficient(self) -> float:
        """lambda_l + lambda_eta * L * C, the radius multiplier."""
        return self.lambda_l + self.lambda_eta * self.loss_bound * self.num_classes


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Coverage-radius summaries and the two bound values they imply."""

    delta: float
    radial: dict[int, float]
    max_radial: float
    hoeffding: float
    classical_bound_value: float
    tight_bound_value: float
    n: int
    num_selected: int
    params: BoundParams


def bound_report(
    cov: CoverageAssignment, params: BoundParams | None = None
) -> BoundReport:
    """Compute delta, per-area radial means, and both bound values from the
    assignment ``cov`` (its point count is the deviation term's sample
    count).

    The mean-vs-max ordering (max_radial <= delta) is asserted before the
    report is returned; a violation would be an internal error, not bad
    input.
    """
    params = params if params is not None else BoundParams()
    delta = classical_radius(cov)
    radial = all_radial_distances(cov)
    max_radial = max(radial.values())
    eps = hoeffding_term(params.loss_bound, params.confidence, cov.n)
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
        n=cov.n,
        num_selected=int(cov.selected.size),
        params=params,
    )
