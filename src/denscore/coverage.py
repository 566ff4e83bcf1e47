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

Cost for n points, |s| selected, dimension d: new selected points are
measured by one step, `_claim`, for this assignment and for the greedy
(``selection``); its docstring and ``_SLACK`` give the full account.  A
matrix product bounds every pair's squared distance from below, and only
the pairs that bound lets move a point are measured, so owners and radii
are bit for bit those of measuring every pair.  One new point costs one
n x d matrix-vector product, m new points O(n m d) in matrix products,
plus O(d) per measured pair, about one per point that moves.  Memory is
O(n * d) plus tiles of about 256 KiB.

Every summary then reads only the assignment, O(n) from its distances.
An assignment extended by new selected points measures only those
points, so a multi-round protocol that carries one assignment measures
each selected point once per run, not per round.  An unfiltered k-center
run measures each selected point once in total: its greedy runs on every
point without densities, so the greedy's owners and radii are this
assignment, and the protocol extends them with nothing left to measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import (
    PointSet,
    ValidationError,
    _count,
    _positive,
    check_index_set,
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
# filter computes, per pair of a point t and a new selected point k,
#     L = -2 <y_t, y_k> + low_t + low_k,   low = (1 - e) ||y||^2 - e tiny,
# that is g - E for g = ||y_t||^2 + ||y_k||^2 - 2 <y_t, y_k> and
# E = e (S + 2 tiny), where tiny = 2**-1022 is the least normal float (both
# e and e tiny are exact).  In units of u S, the computed L lies above the
# true ||x_t - x_k||^2 - E by at most 4 for centring (|x - c| rounded),
# d + 1 for the two norms, 2 for forming low, and d for the product plus 4
# for the two additions -- or 2 (d + 2) when the product has the norms as
# two more terms, [y_t, low_t, 1] . [-2 y_k, 1, low_k] (any summation
# order, fused or not) -- and the explicit-difference d^2 that the claim
# measures lies at most 2 (d + 2) below the true one: at most 5 d + 15 in
# all, less than the 8 (d + 2) that E subtracts, for every d >= 1 (at
# d = 1, 20 against 24).  Results below the normal range are exact for
# sums and differences and off by at most 2**-1075 for each of the 4 d + 2
# products (the norms' 2 d, the two (1 - e) scalings, the d of <y_t, y_k>
# and the d of the measured squares; a product by 1 is exact), less than E's
# 2 e tiny = 16 (d + 2) 2**-1075.  So L never exceeds the measured d^2 of
# t to k (for d up to millions, where the second-order terms stay below
# the margin); as division by a density rounds monotonically, the same
# holds for L / dens_k against the measured nearness.
_SLACK = 8

# Entries in one tile of a block claim, and in each of `kernel_density`'s
# two row buffers: 256 KiB of float64
_TILE = 2**15


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
    measured, in one claim.  Without it the empty assignment (owner -1 at
    squared distance inf) is extended, so there is one path, and an
    extended assignment is bit-identical to one assigned from scratch,
    whatever the order.
    """
    sel = check_index_set(selected, points.n, "selected")
    if previous is None:
        held = np.empty(0, dtype=np.int64)
        pi, sq = np.full(points.n, -1, dtype=np.int64), np.full(points.n, np.inf)
    else:
        if previous.n != points.n:
            raise ValidationError("previous assignment does not match point set")
        held = previous.selected
        pi, sq = previous.pi.copy(), previous.sq_distances.copy()
    new = sel[~np.isin(sel, held)]
    if new.size != sel.size - held.size:
        raise ValidationError(
            "selected set must contain the previous assignment's selected set"
        )
    if new.size:
        with np.errstate(over="ignore", invalid="ignore"):  # `_claim` raises
            _claim(points.features, new, _claim_terms(points.features), pi, sq)
    for arr in (sel, pi, sq):
        arr.setflags(write=False)
    return CoverageAssignment(sel, pi, sq)


def _claim_terms(features: np.ndarray) -> tuple[np.ndarray, float]:
    """What `_claim`'s filter reads, once per assignment or greedy run: every
    point t as the row [y_t, low_t, 1] of one n x (d + 2) array, y_t its
    features centred on their bounding box's midpoint and low_t its squared
    norm lowered by the rounding bound (at ``_SLACK``), and a bound on every
    filter value, inf when the norms lie so near float64's largest value
    that a filter value could overflow.

    Centring keeps the norms, and so the rounding bound, at the scale of
    the points' spread rather than of their offset from the origin.
    """
    n, d = features.shape
    # column-major: a product runs along each coordinate's column, and the
    # bounding box is found along them too (a row-major minimum over the
    # rows takes several times as long)
    lifted = np.empty((n, d + 2), order="F")
    centred = lifted[:, :d]
    centred[...] = features
    lo, hi = centred.min(axis=0), centred.max(axis=0)
    centred -= 0.5 * lo + 0.5 * hi
    norms = np.einsum("ij,ij->i", centred, centred)
    e = _SLACK * (d + 2) * 2.0**-53
    low = lifted[:, d]
    np.multiply(norms, 1.0 - e, out=low)
    low -= e * np.finfo(np.float64).tiny
    lifted[:, d + 1] = 1.0
    # |L_t| <= 4 max ||y||^2 (1 + O(d u)), so this bounds it, and it is inf
    # unless every one is finite
    bound = 8.0 * float(norms.max())
    return lifted, bound


def _claim(
    features: np.ndarray, block: np.ndarray, terms: tuple[np.ndarray, float],
    pi: np.ndarray, sq: np.ndarray, densities: np.ndarray | None = None,
) -> None:
    """Hand each new selected point of ``block``, in place, every point it
    is strictly nearer to than to its owner, or as near and of lower index
    (the scratch argmin's tie rule): bit for bit what claiming the block's
    points one at a time, in any order, gives.

    Nearness is the squared distance, divided by the new point's density
    when ``densities`` is given (the greedy's r).  ``sq`` holds every
    point's nearness to its owner ``pi``; an unowned point has owner -1 and
    nearness inf.  ``terms`` is `_claim_terms` of ``features``: the product
    [y_t, low_t, 1] . [-2 y_k, 1, low_k] gives every pair of a point t and
    a new point k a lower bound L on their squared distance (``_SLACK``),
    and only the pairs whose L / dens_k does not exceed t's nearness are
    measured, each by the explicit difference (`squared_distances_to`).  A
    new point whose bound over its density is inf, so that a filter value
    could overflow, is measured against every point.

    The block's size alone picks the path.  One point is claimed with one
    matrix-vector product.  More go in tiles of about ``_TILE`` entries,
    the whole block by a run of rows, with one matrix product each.  A
    point t whose least L / dens_k in the tile exceeds its nearness cannot
    move and is not measured.  Every other point measures the pair of its
    least L / dens_k and takes it where it beats its owner; then only the
    pairs whose L / dens_k does not exceed t's new nearness are measured,
    as no other can beat or tie it, so about one pair per point is measured
    where one claim per new point would measure each point at least once.
    Each point takes its least (nearness, index) pair.

    A measured squared distance, or its quotient by a density, that
    overflows float64 raises a ValidationError before the pairs measured
    with it are handed over (an inf nearness would tie and fall back to
    index order).  Callers enter ``np.errstate(over="ignore",
    invalid="ignore")`` once around all their claims, so an overflow
    reaches this check as inf or nan instead of raising a warning.
    """
    lifted, bound = terms
    d = lifted.shape[1] - 2
    if block.size == 1:
        k = int(block[0])
        dens_k = 1.0 if densities is None else densities[k]
        if bound / dens_k < math.inf:
            lower = lifted[:, :d] @ (-2.0 * lifted[k, :d])
            lower += lifted[:, d]
            lower += lifted[k, d]
            if densities is not None:
                lower /= dens_k
            rows = np.flatnonzero(lower <= sq)
        else:
            rows = np.arange(sq.size)
        _hand_over(features, rows, k, pi, sq, densities)
        return
    block = np.sort(block)  # so that a row's pairs come in index order
    # [-2 y_k, 1, low_k] for each new point k
    cols = np.hstack((-2.0 * lifted[block, :d], lifted[block, d:][:, ::-1]))
    dens = np.ones(block.size) if densities is None else densities[block]
    every = ~(bound / dens < math.inf)
    height = max(1, _TILE // block.size)
    for r0 in range(0, sq.size, height):
        # block x rows, so that each row's least bound is a minimum over
        # contiguous runs
        lower = cols @ lifted[r0 : r0 + height].T
        if densities is not None:
            lower /= dens[:, None]
        if every.any():
            lower[every] = -math.inf
        near = sq[r0 : r0 + height]  # a view: it follows the hand-overs
        # each row's pair of least bound first (the lowest of tied ones),
        # where it does not exceed the row's nearness: no other pair whose
        # bound exceeds the nearness after that can beat it
        least = lower.min(axis=0)
        j, t = np.divmod(np.flatnonzero(lower <= np.minimum(least, near)), near.size)
        first = np.full(near.size, block.size)
        np.minimum.at(first, t, j)
        t = np.flatnonzero(first < block.size)
        j = first[t]
        _hand_over(features, r0 + t, block[j], pi, sq, densities)
        lower[j, t] = math.inf
        j, t = np.divmod(np.flatnonzero(lower <= near), near.size)
        _hand_over(features, r0 + t, block[j], pi, sq, densities)


def _hand_over(
    features: np.ndarray, rows: np.ndarray, ks, pi: np.ndarray, sq: np.ndarray,
    densities: np.ndarray | None,
) -> None:
    """Measure the pairs of the points ``rows`` and the new selected points
    ``ks`` (one for all rows, or one per row, a row's own ascending), and
    hand each point its least (nearness, index) pair where that beats its
    owner's."""
    if not rows.size:
        return
    near = squared_distances_to(features[rows], features[ks])
    if densities is not None:
        near /= densities[ks]
    finite = np.isfinite(near)
    if not finite.all():
        k = np.broadcast_to(ks, rows.shape)[np.argmin(finite)]
        raise ValidationError(
            f"a squared distance to selected point {k}, or its quotient by a "
            "density, overflows float64; rescale the features, or every density "
            "(rescaling every density by one factor changes no pick)"
        )
    several = isinstance(ks, np.ndarray)
    # each row's first least pair, where a row has several
    if several and not np.all(rows[1:] > rows[:-1]):
        order = np.lexsort((near, rows))  # stable: equal nearness keeps index order
        rows, ks, near = rows[order], ks[order], near[order]
        first = np.ones(rows.size, dtype=bool)
        first[1:] = rows[1:] != rows[:-1]
        rows, ks, near = rows[first], ks[first], near[first]
    old_sq = sq[rows]
    take = (near < old_sq) | ((near == old_sq) & (ks < pi[rows]))
    rows = rows[take]
    pi[rows] = ks[take] if several else ks
    sq[rows] = near[take]


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
    loss_bound = _positive(loss_bound, "loss_bound")
    confidence = config_value(confidence, float, "confidence")
    if not (0.0 < confidence <= 1.0):
        raise ValidationError("confidence must lie in (0, 1]")
    n = _count(n, "n")
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
            object.__setattr__(self, name, _positive(getattr(self, name), name))
        object.__setattr__(self, "num_classes", _count(self.num_classes, "num_classes"))
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
