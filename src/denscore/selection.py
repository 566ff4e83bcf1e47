"""Active selection: greedy core-set algorithms, the seeded random baseline,
and the multi-round protocol driver.

Both greedy algorithms maintain, for every candidate t, the rescaled squared
distance to the nearest selected point

    r_t = min over selected k of ||f_t - f_k||^2 / d_k

and repeatedly add the candidate with the largest r_t, then lower the r of
everyone the new pick now covers.  Plain k-center greedy is the special case
d == 1 (no rescale), so the two differ only in how strongly an existing pick
"covers" its surroundings: a high-density pick suppresses a wide region, a
low-density pick almost nothing, which is what steers extra budget into
sparse areas.

Each set of new selected points is one call of coverage's `_claim` (whose
docstring gives the full account), with the filter's bounds divided by the
new point's density.  A pick costs one n x d matrix-vector product, and a
run that does not resume claims its m initial points in one call, O(n m d)
in matrix products; either way only the points that may move are
measured, and the radii are those of measuring every point.  A filtered
protocol round starts each greedy on a new universe, so it claims every
selected point again.  The greedy tracks the owner of every r_t (the
selected point it comes from) for the scratch argmin's tie rule.

Uncertainty enters only through the dataset's per-point ``scores`` (one
finite scalar per point, read from the CSV's ``score`` column or attached
with ``dataclasses.replace``): with ``alpha`` set, each round keeps the top
scores before selecting.

All ties (equal r, equal scores) resolve to the lowest index.  Every r
starts at inf, so with an empty initial set the rule itself makes the first
pick the lowest-index candidate, with radius-at-pick inf; no case is special.
A run resumes from the state of an earlier run on the same points (and
densities), and b1 picks then b2 more equal one run of b1 + b2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coverage import (
    BoundParams,
    BoundReport,
    CoverageAssignment,
    _claim,
    _claim_terms,
    assign_coverage,
    bound_report,
)
from .data import (
    LabeledPointSet,
    PointSet,
    ValidationError,
    _config_values,
    _count,
    check_index_set,
    check_indices,
    config_value,
)
from .density import DensityField, estimator_from_config
from .rng import PortableRng, derive_seed

__all__ = [
    "SelectionState",
    "ProtocolConfig",
    "RoundResult",
    "ProtocolResult",
    "k_center_greedy",
    "density_aware_greedy",
    "margin_score",
    "filter_candidates",
    "run_rounds",
]

GREEDY_ALGORITHMS = ("k-center", "density-aware")
BASELINE_ALGORITHMS = ("random",)


@dataclass(frozen=True, eq=False)
class SelectionState:
    """Result of one greedy run.

    selected: full ordered index sequence (initial set first, then picks).
    picks: the indices added by this run, in pick order.
    radii: final r_t for every candidate (0 for selected points, whose
        nearest selected point is themselves).
    owners: for every candidate, the selected point its r_t comes from
        (ties to the lowest index), which a resumed run's claims compare
        against, and which an unfiltered k-center run hands to the coverage
        assignment as its owners.
    pick_radii: r at the moment of each pick, aligned with ``picks``.

    The greedy that builds a state freezes its arrays (read-only).
    """

    selected: tuple[int, ...]
    picks: tuple[int, ...]
    radii: np.ndarray
    owners: np.ndarray
    pick_radii: np.ndarray


def _greedy_select(
    features: np.ndarray,
    s0,
    b: int,
    densities: np.ndarray | None,
) -> SelectionState:
    n = features.shape[0]
    b = _count(b, "b", low=0)
    resume = isinstance(s0, SelectionState)
    if resume and s0.radii.shape != (n,):
        raise ValidationError(
            f"selection state covers {s0.radii.size} points, not {n}"
        )
    if resume:
        selected = list(s0.selected)
        radii, owners = s0.radii.copy(), s0.owners.copy()
    else:
        selected = check_indices(() if s0 is None else s0, n, "initial").tolist()
        radii, owners = np.full(n, np.inf), np.full(n, -1, dtype=np.int64)
    if b > n - len(selected):
        raise ValidationError(
            f"b={b} exceeds available candidates ({n - len(selected)})"
        )
    unselected = np.ones(n, dtype=bool)
    unselected[selected] = False
    m = len(selected)
    order = np.array(selected + [-1] * b, dtype=np.int64)
    pick_radii = np.empty(b)
    # claim the initial set in one block (a resumed state holds its
    # claims), then each pick
    with np.errstate(over="ignore", invalid="ignore"):  # `_claim` raises
        terms = _claim_terms(features)
        if m and not resume:
            _claim(features, order[:m], terms, owners, radii, densities)
        for j in range(m, m + b):
            # a selected point's r is 0, so a positive maximum is unselected
            u = int(np.argmax(radii))
            if radii[u] == 0:
                u = int(np.argmax(np.where(unselected, radii, -np.inf)))
            pick_radii[j - m], order[j], unselected[u] = radii[u], u, False
            _claim(features, order[j : j + 1], terms, owners, radii, densities)

    for arr in (radii, owners, pick_radii):
        arr.setflags(write=False)
    return SelectionState(
        selected=tuple(order.tolist()),
        picks=tuple(order[m:].tolist()),
        radii=radii,
        owners=owners,
        pick_radii=pick_radii,
    )


def k_center_greedy(points: PointSet, s0, b: int) -> SelectionState:
    """Farthest-point greedy: repeatedly add the candidate farthest from the
    current selected set.

    Identical to the density-aware rule with every density equal to 1 --
    each step finds the worst-covered candidate and cuts its coverage link.
    Achieves a covering radius within a factor 2 of the best size-b subset
    when started from a single point or from scratch.

    ``s0`` is the initial set, or the SelectionState of an earlier call on
    the same points, which this call resumes from its radii.
    """
    return _greedy_select(points.features, s0, b, None)


def density_aware_greedy(
    points: PointSet, densities, s0, b: int
) -> SelectionState:
    """Greedy selection on squared distances rescaled by the density of the
    selected endpoint (see module docstring).

    ``densities`` is a DensityField or a positive array aligned with
    ``points``.  Rescaling every density by one common factor changes no
    decision (all r_t scale together), so only density ratios matter.
    ``s0`` is as in `k_center_greedy`; a resumed state must come from the
    same points and densities.
    """
    values = densities.values if isinstance(densities, DensityField) else None
    if values is None:
        values = np.asarray(densities, dtype=np.float64)
    if values.shape != (points.n,):
        raise ValidationError("densities must align with points")
    if not np.all(np.isfinite(values)) or np.any(values <= 0):
        raise ValidationError("densities must be strictly positive and finite")
    return _greedy_select(points.features, s0, b, values)


def margin_score(probabilities):
    """Uncertainty margin ``1 - p_max + p_secondmax``.

    1-d input gives a float, 2-d input one score per row.  Uniform rows are
    maximally uncertain (score 1); one-hot rows score 0.  Attach the rows'
    scores with ``dataclasses.replace(dataset, scores=margin_score(p))``.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    squeeze = p.ndim == 1
    p = np.atleast_2d(p)
    if p.shape[1] < 2:
        raise ValidationError("margin score needs at least 2 classes")
    if not np.all(np.isfinite(p)):
        raise ValidationError("probabilities must be finite")
    top2 = -np.partition(-p, 1, axis=1)[:, :2]
    out = 1.0 - top2[:, 0] + top2[:, 1]
    return float(out[0]) if squeeze else out


def filter_candidates(scores, alpha: float, b: int, candidates=None) -> np.ndarray:
    """Indices of the top ``min(ceil(alpha*b), pool size)`` of the 1-d,
    finite ``scores``.

    ``candidates`` restricts the pool (default: everyone).  Ties resolve to
    the lowest index; the result is sorted ascending.
    """
    b = config_value(b, int, "b")
    alpha = config_value(alpha, float, "alpha")
    if not (alpha * b >= 1.0):
        raise ValidationError(f"alpha*b must be >= 1 (got {alpha * b!r})")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or not np.all(np.isfinite(scores)):
        raise ValidationError("scores must be a 1-d array of finite values")
    if candidates is None:
        pool = np.arange(scores.size, dtype=np.int64)
    else:
        pool = check_index_set(candidates, scores.size, "candidates")
    # alpha * b may overflow to inf: then the whole pool, with no ceil of it
    if alpha * b >= pool.size:
        return pool
    m = int(math.ceil(alpha * b))
    # the m-th largest score; the scores above it, then its ties from the
    # lowest index, in O(pool)
    kept = scores[pool]
    least = np.partition(kept, kept.size - m)[kept.size - m]
    above = kept > least
    ties = np.flatnonzero(kept == least)[: m - np.count_nonzero(above)]
    above[ties] = True
    return pool[above]


@dataclass(frozen=True)
class ProtocolConfig:
    """Multi-round selection protocol settings.

    alpha, finite and > 1, sets the candidate filter factor: each round
    keeps only the top ceil(alpha*budget) unselected points by score
    (``LabeledPointSet.scores``) before estimating densities and selecting
    (the reference setting is 20 for small budgets, 10 around a 5% budget).
    It defaults to None, which disables filtering and needs no scores.
    ``estimator`` is a density estimator config dict (see
    density.estimator_from_config), required for the density-aware
    algorithm.  ``initial`` holds the row positions of the points selected
    before the first round.  ``seed`` drives only the ``random`` baseline;
    the greedy algorithms are deterministic.
    """

    budget: int
    rounds: int = 5
    alpha: float | None = None
    algorithm: str = "density-aware"
    estimator: dict | None = None
    seed: int = 0
    initial: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "rounds", _count(self.rounds, "rounds"))
        object.__setattr__(self, "budget", _count(self.budget, "budget"))
        if self.alpha is not None:
            a = config_value(self.alpha, float, "alpha")
            if not (1 < a < math.inf):
                raise ValidationError(
                    f"alpha must be finite and > 1, or None to disable (got {a!r})"
                )
            object.__setattr__(self, "alpha", a)
        if self.algorithm not in GREEDY_ALGORITHMS + BASELINE_ALGORITHMS:
            raise ValidationError(
                f"unknown algorithm {self.algorithm!r}; expected one of "
                f"{GREEDY_ALGORITHMS + BASELINE_ALGORITHMS}"
            )
        if self.algorithm == "density-aware" and self.estimator is None:
            raise ValidationError(
                "estimator config is required for the density-aware algorithm"
            )
        object.__setattr__(self, "seed", config_value(self.seed, int, "seed"))
        object.__setattr__(self, "initial", _config_values(self.initial, int, "initial"))


@dataclass(frozen=True, eq=False)
class RoundResult:
    """One protocol round: who was considered, picked, and how it measured.

    ``universe`` holds the dataset indices the greedy ran on (the pool plus
    the selected points); ``picks`` and ``pool`` are dataset indices.
    ``partial`` flags an exhausted pool.
    """

    round_index: int
    pool: np.ndarray
    universe: np.ndarray
    picks: tuple[int, ...]
    pick_radii: np.ndarray
    densities: DensityField | None
    bound: BoundReport
    partial: bool


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    """All rounds of a protocol run.

    ``coverage`` is the final selected set's assignment over the dataset's
    points, or None when no round ran.
    """

    rounds: tuple[RoundResult, ...]
    selected: tuple[int, ...]
    exhausted: bool
    coverage: CoverageAssignment | None


def run_rounds(
    dataset: LabeledPointSet,
    config: ProtocolConfig,
    bound_params: BoundParams | None = None,
) -> ProtocolResult:
    """Drive ``config.rounds`` rounds of filtering, density estimation, and
    selection, emitting a coverage bound report after each round.  One
    coverage assignment is carried across the rounds and extended by each
    round's picks.  When k-center ran on every point (no filter, or one
    that kept every point), its greedy state is that assignment already:
    it is what gets extended, so no selected point is measured twice.

    Each round removes already-selected points, optionally filters the rest
    to the top alpha*budget by ``dataset.scores``, and selects
    ``config.budget`` new points, by greedy on its universe (the filtered
    pool plus the selected points; the greedy divides by the densities of
    selected points too) or by the seeded ``random`` draw from the pool.
    Densities are estimated once per distinct universe: a round whose
    universe equals the last round's (always so without a filter) reuses
    its DensityField and resumes its greedy state, so R unfiltered rounds
    of b picks are one greedy run of R*b.  A filtered round's universe
    contains the last one's (the pool loses only the picks, which join the
    selected points), so a kernel estimate extends the last round's sums and
    measures only the points the universe gained.  A pool smaller than the
    budget yields a partial round (flagged, and the protocol stops adding
    afterwards).
    """
    points = dataset.points
    if config.alpha is not None and dataset.scores is None:
        raise ValidationError("candidate filtering (alpha) requires per-point scores")
    if bound_params is None:
        bound_params = BoundParams(num_classes=dataset.num_classes)

    estimate = (
        estimator_from_config(config.estimator)
        if config.estimator is not None
        else None
    )

    selected = check_indices(config.initial, points.n, "initial").tolist()
    rounds: list[RoundResult] = []
    coverage: CoverageAssignment | None = None
    # the greedy's last universe, its points, densities and state
    universe = sub_points = densities = state = None
    exhausted = False
    for round_index in range(1, config.rounds + 1):
        mask = np.ones(points.n, dtype=bool)
        mask[selected] = False
        remaining = np.flatnonzero(mask)
        if remaining.size == 0:
            exhausted = True
            break
        if config.alpha is not None:
            pool = filter_candidates(
                dataset.scores, config.alpha, config.budget, candidates=remaining
            )
        else:
            pool = remaining
        take = min(config.budget, pool.size)
        partial = take < config.budget

        previous = coverage
        if config.algorithm in GREEDY_ALGORITHMS:
            last = universe
            universe = np.union1d(pool, np.asarray(selected, dtype=np.int64))
            if last is not None and np.array_equal(universe, last):
                s0 = state  # same points, same densities: resume
            else:
                sub_points = PointSet(points.features[universe], points.ids[universe])
                if config.algorithm == "density-aware":
                    densities = estimate(sub_points)
                s0 = np.searchsorted(universe, selected)
            if config.algorithm == "density-aware":
                state = density_aware_greedy(sub_points, densities, s0, take)
            else:
                state = k_center_greedy(sub_points, s0, take)
            picks = tuple(int(universe[i]) for i in state.picks)
            pick_radii = state.pick_radii
            if config.algorithm == "k-center" and universe.size == points.n:
                # on every point and without densities, the greedy's owners
                # and radii come from the claims the assignment would make
                previous = CoverageAssignment(
                    np.sort(state.selected), state.owners, state.radii
                )
        else:
            universe = pool
            draw = PortableRng(derive_seed(config.seed, round_index))
            picks = tuple(np.sort(pool[draw.permutation(pool.size)[:take]]).tolist())
            pick_radii = np.full(take, np.nan)

        selected.extend(picks)
        coverage = assign_coverage(points, selected, previous=previous)
        bound = bound_report(coverage, bound_params)
        rounds.append(
            RoundResult(
                round_index=round_index,
                pool=pool,
                universe=universe,
                picks=picks,
                pick_radii=np.asarray(pick_radii, dtype=np.float64),
                densities=densities,
                bound=bound,
                partial=partial,
            )
        )
        if partial:
            exhausted = True
            break

    return ProtocolResult(
        rounds=tuple(rounds),
        selected=tuple(selected),
        exhausted=exhausted,
        coverage=coverage,
    )
