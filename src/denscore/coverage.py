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
losses Lipschitz in a metric; squared Euclidean distance is not a metric,
so it is only what the steps compare, and every reported distance is its
root.

Cost for n points, |s| selected, dimension d: each new selected point k
costs one n x d matrix-vector product and O(n) to find the points it may
take, plus O(d) per such point to measure it.  `_claim` is that step, for
this assignment and for the greedy (``selection``), whose r_t divides the
squared distance by the density of the selected endpoint (1 here).  Once
per assignment or greedy run the features are centred on their bounding
box's midpoint (an n x d copy) and their squared norms taken; each claim
then expands ||y_t - y_k||^2 through the product, less a rounding bound,
into a lower bound on the squared distance that the claim compares.  A
point whose lower bound, divided by k's density, already exceeds its
nearness to its owner cannot move to k; only the others are measured, by
the explicit difference, so every value handed over and every tie is what
measuring every pair gives.  The filter is nearly exact: on a greedy or an
assignment in any order it measures little more than the points that
move.  Memory is O(n * d).  Every summary then reads only the assignment,
O(n) from its distances.  An assignment extended by new selected points
measures only those points, so a multi-round protocol that carries one
assignment measures each selected point once per run, not per round.  An
unfiltered k-center run measures each selected point once in total: its
greedy runs on every point without densities, so the greedy's owners and
radii are this assignment, and the protocol extends them with nothing
left to measure.
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

# The rounding bound of `_claim`'s filter.  With u = 2**-53, y = x - c the
# centred rows, S = ||y_t||^2 + ||y_k||^2 and e = _SLACK * (d + 2) * u, the
# filter computes, per point t,
#     L_t = -2 <y_t, y_k> + low_t + low_k,  low = (1 - e) ||y||^2 - e tiny,
# that is g_t - E_t for g_t = ||y_t||^2 + ||y_k||^2 - 2 <y_t, y_k> and
# E_t = e (S + 2 tiny), where tiny = 2**-1022 is the least normal float.
# In units of u S, the computed L_t lies above the true ||x_t - x_k||^2 - E_t
# by at most 4 for centring (|x - c| rounded), d + 1 for the two norms, d
# for the product (any summation order, fused or not), 2 for forming low
# and 4 for the two additions, and the explicit-difference d^2 that the
# claim measures lies at most 2 (d + 2) below the true one: 4 d + 15 in all,
# less than the 8 (d + 2) that E_t subtracts.  Results below the normal range
# add at most (4 d + 2) 2**-1075 in absolute terms, less than E_t's
# 2 e tiny = 16 (d + 2) 2**-1075.  So L_t never exceeds the measured d^2 of
# t to k (for d up to millions, where the second-order terms stay below the
# margin), and as division by a density rounds monotonically, neither does
# L_t / dens_k exceed the measured nearness.
_SLACK = 8


@dataclass(frozen=True, eq=False)
class CoverageAssignment:
    """Nearest-selected partition of a point set.

    selected: sorted unique selected indices.
    pi: for every point, the selected index it is assigned to.  A selected
        point whose coordinates duplicate a lower selected index lands in
        that index's area and leaves its own area empty.
    sq_distances: for every point, its squared distance to ``pi`` (what an
        extension compares), the only distance stored.
    """

    selected: np.ndarray
    pi: np.ndarray
    sq_distances: np.ndarray

    @property
    def n(self) -> int:
        return self.pi.shape[0]

    @property
    def distances(self) -> np.ndarray:
        """For every point, its Euclidean distance to ``pi``: the root of
        ``sq_distances``, taken on each read."""
        return np.sqrt(self.sq_distances)


def assign_coverage(
    points: PointSet, selected, *, previous: CoverageAssignment | None = None
) -> CoverageAssignment:
    """Assign every point to its nearest selected point in Euclidean
    distance, ties to the lowest selected index.

    ``previous``, an assignment of the same points to a subset of
    ``selected``, is extended: only the selected points it lacks are
    measured, in the order ``selected`` lists them.  Without it the empty
    assignment (owner -1 at squared distance inf) is extended, so there is
    one path, and an extended assignment is bit-identical to one assigned
    from scratch, whatever the order.
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
    if new.size:
        with np.errstate(over="ignore", invalid="ignore"):  # `_claim` raises
            terms = _claim_terms(points.features)
            for k in new.tolist():
                _claim(points.features, k, terms, pi, sq)
    for arr in (sel, pi, sq):
        arr.setflags(write=False)
    return CoverageAssignment(sel, pi, sq)


def _claim_terms(
    features: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float]:
    """What `_claim`'s filter reads, once per assignment or greedy run: the
    features centred on their bounding box's midpoint, each row's squared
    norm lowered by the rounding bound (``low`` at ``_SLACK``), and a bound
    on every filter value, inf when the norms lie so near float64's
    largest value that a filter value could overflow.

    Centring keeps the norms, and so the rounding bound, at the scale of
    the points' spread rather than of their offset from the origin.
    """
    lo, hi = features.min(axis=0), features.max(axis=0)
    # column-major: the product runs along each coordinate's column
    centred = np.subtract(features, 0.5 * lo + 0.5 * hi, order="F")
    norms = np.einsum("ij,ij->i", centred, centred)
    e = _SLACK * (features.shape[1] + 2) * 2.0**-53
    low = norms * (1.0 - e)
    low -= e * np.finfo(np.float64).tiny
    # |L_t| <= 4 max ||y||^2 (1 + O(d u)), so this bounds it, and it is inf
    # unless every L_t is finite
    bound = 8.0 * float(norms.max())
    return centred, low, bound


def _claim(
    features: np.ndarray, k: int, terms: tuple[np.ndarray, np.ndarray, float],
    pi: np.ndarray, sq: np.ndarray, densities: np.ndarray | None = None,
) -> None:
    """Hand the new selected point k, in place, every point it is strictly
    nearer to than to its owner, or as near and of lower index (the scratch
    argmin's tie rule).

    Nearness is the squared distance, divided by k's density when
    ``densities`` is given (the greedy's r).  ``sq`` holds every point's
    nearness to its owner ``pi``; an unowned point has owner -1 and
    nearness inf.  ``terms`` is `_claim_terms` of ``features``: one
    matrix-vector product gives every point t a lower bound L_t on its
    squared distance to k (``_SLACK``), and only the points whose
    L_t / dens_k does not exceed sq_t are measured, each by the explicit
    difference (`squared_distances_to`).  An unowned point always is, and
    when a filter value could overflow (``terms``' bound over dens_k is
    inf) every point is.

    A measured squared distance, or its quotient by a density, that
    overflows float64 raises a ValidationError before anything is handed
    over (an inf nearness would tie and fall back to index order).
    Callers enter ``np.errstate(over="ignore", invalid="ignore")`` once
    around all their claims, so an overflow reaches this check as inf or
    nan instead of raising a warning.
    """
    centred, low, bound = terms
    dens_k = 1.0 if densities is None else densities[k]
    if bound / dens_k < math.inf:
        lower = centred @ (-2.0 * centred[k])
        lower += low
        lower += low[k]
        if densities is not None:
            lower /= dens_k
        rows = np.flatnonzero(lower <= sq)
    else:
        rows = np.arange(sq.size)
    new_sq = squared_distances_to(features[rows], features[k])
    if densities is not None:
        new_sq /= dens_k
    if not np.isfinite(new_sq).all():
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
