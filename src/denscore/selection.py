"""Active selection: greedy core-set algorithms, uncertainty baselines, and
the multi-round protocol driver.

Both greedy algorithms maintain, for every candidate t, the rescaled squared
distance to the nearest selected point

    r_t = min over selected k of ||f_t - f_k||^2 / d_k

and repeatedly add the candidate with the largest r_t, then lower the r of
everyone the new pick now covers.  Plain k-center greedy is the special case
d == 1 (no rescale), so the two differ only in how strongly an existing pick
"covers" its surroundings: a high-density pick suppresses a wide region, a
low-density pick almost nothing, which is what steers extra budget into
sparse areas.

All ties (equal r, equal scores) resolve to the lowest index.  With an empty
initial set the first pick is the lowest-index candidate (bootstrap), which
consumes one unit of budget and has no prior set to measure against, so its
radius-at-pick is recorded as inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coverage import BoundParams, BoundReport, bound_report
from .data import (
    LabeledPointSet,
    PointSet,
    ValidationError,
    canonical_metric,
    normalize,
)
from .density import DensityField, estimator_from_config
from .rng import PortableRng, derive_seed

__all__ = [
    "SelectionState",
    "ScoreMap",
    "ProtocolConfig",
    "RoundResult",
    "ProtocolResult",
    "k_center_greedy",
    "density_aware_greedy",
    "margin_score",
    "filter_candidates",
    "uncertainty_select",
    "run_rounds",
]

GREEDY_ALGORITHMS = ("k-center", "density-aware")
BASELINE_ALGORITHMS = ("random", "entropy", "sconf", "margin")


@dataclass(frozen=True, eq=False)
class SelectionState:
    """Result of one greedy run.

    selected: full ordered index sequence (initial set first, then picks).
    picks: the indices added by this run, in pick order.
    radii: final r_t for every candidate (0 for selected points, whose
        nearest selected point is themselves).
    pick_radii: r at the moment of each pick, aligned with ``picks``.
    history: per-iteration snapshots of ``radii`` (init state first) when
        the run was instrumented, else None.
    """

    selected: tuple[int, ...]
    picks: tuple[int, ...]
    radii: np.ndarray
    pick_radii: np.ndarray
    budget_used: int
    history: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        radii = np.asarray(self.radii, dtype=np.float64).copy()
        radii.setflags(write=False)
        object.__setattr__(self, "radii", radii)
        pick_radii = np.asarray(self.pick_radii, dtype=np.float64).copy()
        pick_radii.setflags(write=False)
        object.__setattr__(self, "pick_radii", pick_radii)


def _check_initial(s0, n: int) -> list[int]:
    out: list[int] = []
    seen = set()
    for v in np.asarray(s0, dtype=np.int64).ravel().tolist() if s0 is not None else []:
        v = int(v)
        if v < 0 or v >= n:
            raise ValidationError(f"initial index {v} out of range (n={n})")
        if v in seen:
            raise ValidationError(f"initial set contains duplicate index {v}")
        seen.add(v)
        out.append(v)
    return out


def _greedy_select(
    features: np.ndarray,
    s0,
    budget: int,
    densities: np.ndarray | None,
    keep_history: bool,
) -> SelectionState:
    n = features.shape[0]
    budget = int(budget)
    selected = _check_initial(s0, n)
    if budget < 0:
        raise ValidationError("budget must be non-negative")
    if budget > n - len(selected):
        raise ValidationError(
            f"budget {budget} exceeds available candidates ({n - len(selected)})"
        )
    unselected = np.ones(n, dtype=bool)
    unselected[selected] = False

    picks: list[int] = []
    pick_radii: list[float] = []
    remaining = budget
    if not selected and remaining > 0:
        # Bootstrap: no prior set to measure against.
        selected.append(0)
        unselected[0] = False
        picks.append(0)
        pick_radii.append(math.inf)
        remaining -= 1

    radii = np.full(n, np.inf)

    def cover(k: int) -> None:
        """Lower every radius to its (rescaled) squared distance to k."""
        diff = features - features[k]
        dist_sq = np.sum(diff * diff, axis=1)
        if densities is not None:
            dist_sq = dist_sq / densities[k]
        np.minimum(radii, dist_sq, out=radii)

    for k in selected:
        cover(k)

    history = [radii.copy()] if keep_history else None
    for _ in range(remaining):
        u = int(np.argmax(np.where(unselected, radii, -np.inf)))
        pick_radii.append(float(radii[u]))
        selected.append(u)
        picks.append(u)
        unselected[u] = False
        cover(u)
        if keep_history:
            history.append(radii.copy())

    return SelectionState(
        selected=tuple(selected),
        picks=tuple(picks),
        radii=radii,
        pick_radii=np.asarray(pick_radii, dtype=np.float64),
        budget_used=len(picks),
        history=tuple(history) if keep_history else None,
    )


def k_center_greedy(
    points: PointSet, s0, b: int, keep_history: bool = False
) -> SelectionState:
    """Farthest-point greedy: repeatedly add the candidate farthest from the
    current selected set.

    Identical to the density-aware rule with every density equal to 1 --
    each step finds the worst-covered candidate and cuts its coverage link.
    Achieves a covering radius within a factor 2 of the best size-b subset
    when started from a single point or from scratch.
    """
    return _greedy_select(points.features, s0, b, None, keep_history)


def density_aware_greedy(
    points: PointSet,
    densities,
    s0,
    b: int,
    keep_history: bool = False,
) -> SelectionState:
    """Greedy selection on squared distances rescaled by the density of the
    selected endpoint (see module docstring).

    ``densities`` is a DensityField or a positive array aligned with
    ``points``.  Rescaling every density by one common factor changes no
    decision (all r_t scale together), so only density ratios matter.
    """
    values = densities.values if isinstance(densities, DensityField) else None
    if values is None:
        values = np.asarray(densities, dtype=np.float64)
    if values.shape != (points.n,):
        raise ValidationError("densities must align with points")
    if not np.all(np.isfinite(values)) or np.any(values <= 0):
        raise ValidationError("densities must be strictly positive and finite")
    return _greedy_select(points.features, s0, b, values, keep_history)


def margin_score(probabilities):
    """Uncertainty margin ``1 - p_max + p_secondmax``.

    1-d input gives a float, 2-d input one score per row.  Uniform rows are
    maximally uncertain (score 1); one-hot rows score 0.
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


@dataclass(frozen=True, eq=False)
class ScoreMap:
    """Per-point uncertainty inputs: class probabilities or scalar scores."""

    values: np.ndarray
    kind: str  # "probabilities" | "scores"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if self.kind not in ("probabilities", "scores"):
            raise ValidationError("kind must be 'probabilities' or 'scores'")
        if values.size == 0:
            raise ValidationError("score map must be non-empty")
        if not np.all(np.isfinite(values)):
            raise ValidationError("score values must be finite")
        if self.kind == "probabilities":
            if values.ndim != 2 or values.shape[1] < 2:
                raise ValidationError("probabilities must have shape (n, C>=2)")
            if np.any(values < 0):
                raise ValidationError("probabilities must be non-negative")
            sums = values.sum(axis=1)
            if np.any(np.abs(sums - 1.0) > 1e-6):
                bad = int(np.argmax(np.abs(sums - 1.0)))
                raise ValidationError(
                    f"probability row {bad} sums to {sums[bad]!r}, not 1 (tol 1e-6)"
                )
        else:
            if values.ndim != 1:
                raise ValidationError("scores must be 1-d")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def scalar_scores(self) -> np.ndarray:
        """Margin score per point for probabilities, the raw scores otherwise."""
        if self.kind == "probabilities":
            return margin_score(self.values)
        return self.values


def _check_candidates(candidates, n: int) -> np.ndarray:
    if candidates is None:
        return np.arange(n, dtype=np.int64)
    cand = np.unique(np.asarray(candidates, dtype=np.int64))
    if cand.size == 0:
        raise ValidationError("candidate set must be non-empty")
    if cand.min() < 0 or cand.max() >= n:
        raise ValidationError("candidate index out of range")
    return cand


def filter_candidates(
    scores: ScoreMap, alpha: float, b, candidates=None
) -> np.ndarray:
    """Indices of the top ``min(ceil(alpha*b), pool size)`` scores.

    ``candidates`` restricts the pool (default: everyone).  Ties resolve to
    the lowest index; the result is sorted ascending.
    """
    alpha = float(alpha)
    if not (alpha * float(b) >= 1.0):
        raise ValidationError(f"alpha*b must be >= 1 (got {alpha * float(b)!r})")
    pool = _check_candidates(candidates, scores.n)
    s = scores.scalar_scores()[pool]
    m = min(int(math.ceil(alpha * float(b))), pool.size)
    order = np.argsort(-s, kind="stable")  # stable: ties keep lowest index
    return np.sort(pool[order[:m]])


def uncertainty_select(
    scores: ScoreMap, b: int, strategy: str, seed: int = 0, candidates=None
) -> np.ndarray:
    """Top-b selection by an uncertainty baseline, sorted ascending.

    Strategies: ``entropy`` (-sum p ln p), ``sconf`` (1 - (p_max -
    p_secondmax), which ranks identically to the margin score), ``margin``
    (the margin score), ``random`` (seeded uniform draw without
    replacement).  The probability-based strategies require a probability
    ScoreMap.  Ties resolve to the lowest index.
    """
    b = int(b)
    pool = _check_candidates(candidates, scores.n)
    if not (1 <= b <= pool.size):
        raise ValidationError(f"b must lie in 1..pool size (got {b}, pool {pool.size})")
    if strategy == "random":
        order = PortableRng(seed).permutation(pool.size)
        return np.sort(pool[order[:b]])
    if strategy not in ("entropy", "sconf", "margin"):
        raise ValidationError(
            f"unknown strategy {strategy!r}; expected one of "
            "'entropy', 'sconf', 'margin', 'random'"
        )
    if scores.kind != "probabilities":
        raise ValidationError(f"strategy {strategy!r} requires class probabilities")
    p = scores.values[pool]
    if strategy == "entropy":
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p > 0, p * np.log(p), 0.0)
        s = -terms.sum(axis=1)
    else:  # sconf and margin coincide: 1 - p_max + p_secondmax
        s = margin_score(p)
    order = np.argsort(-s, kind="stable")
    return np.sort(pool[order[:b]])


@dataclass(frozen=True)
class ProtocolConfig:
    """Multi-round selection protocol settings.

    alpha sets the candidate filter factor: each round keeps only the top
    ceil(alpha*budget) unselected points by score before estimating
    densities and selecting (the reference setting is 20 for small budgets,
    10 around a 5% budget).  It defaults to None, which disables filtering
    and needs no scores.  ``estimator`` is a density estimator config dict
    (see density.estimator_from_config), required for the density-aware
    algorithm.
    """

    budget: int
    rounds: int = 5
    alpha: float | None = None
    algorithm: str = "density-aware"
    estimator: dict | None = None
    metric: str = "euclidean"
    seed: int = 0
    initial: tuple[int, ...] = ()
    normalize_features: bool = False

    def __post_init__(self):
        if int(self.rounds) < 1:
            raise ValidationError("rounds must be >= 1")
        object.__setattr__(self, "rounds", int(self.rounds))
        if int(self.budget) < 1:
            raise ValidationError("budget must be >= 1")
        object.__setattr__(self, "budget", int(self.budget))
        if self.alpha is not None:
            a = float(self.alpha)
            if not (a > 1):
                raise ValidationError("alpha must be > 1 (or None to disable)")
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
        object.__setattr__(self, "metric", canonical_metric(self.metric))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(
            self, "initial", tuple(int(i) for i in self.initial)
        )

    def to_dict(self) -> dict:
        return {
            "budget": self.budget,
            "rounds": self.rounds,
            "alpha": self.alpha,
            "algorithm": self.algorithm,
            "estimator": dict(self.estimator) if self.estimator else None,
            "metric": self.metric,
            "seed": self.seed,
            "initial": list(self.initial),
            "normalize_features": self.normalize_features,
        }


@dataclass(frozen=True, eq=False)
class RoundResult:
    """One protocol round: who was considered, picked, and how it measured.

    ``universe`` maps the greedy run's local indices to dataset indices
    (``state`` is expressed in universe positions); ``picks`` and ``pool``
    are dataset indices.  ``partial`` flags an exhausted pool.
    """

    round_index: int
    pool: np.ndarray
    universe: np.ndarray
    picks: tuple[int, ...]
    pick_radii: np.ndarray
    state: SelectionState | None
    densities: DensityField | None
    bound: BoundReport
    partial: bool


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    rounds: tuple[RoundResult, ...]
    selected: tuple[int, ...]
    exhausted: bool
    config: ProtocolConfig


def run_rounds(
    dataset: LabeledPointSet,
    config: ProtocolConfig,
    scores: ScoreMap | None = None,
    bound_params: BoundParams | None = None,
) -> ProtocolResult:
    """Drive ``config.rounds`` rounds of filtering, density estimation, and
    selection, emitting a coverage bound report after each round.

    Each round removes already-selected points, optionally filters the rest
    to the top alpha*budget by score, estimates densities on the filtered
    pool plus the selected points (the greedy divides by the densities of
    selected points too), and selects ``config.budget`` new points.  A pool
    smaller than the budget yields a partial round (flagged, and the
    protocol stops adding afterwards).
    """
    points = dataset.points
    if config.normalize_features:
        points = normalize(points)
    if scores is None and dataset.scores is not None:
        scores = ScoreMap(dataset.scores, "scores")
    if scores is not None and scores.n != points.n:
        raise ValidationError("score map does not match dataset")
    if config.alpha is not None and scores is None:
        raise ValidationError(
            "candidate filtering (alpha) requires per-point scores"
        )
    needs_scores = config.algorithm in ("entropy", "sconf", "margin")
    if needs_scores and scores is None:
        raise ValidationError(f"algorithm {config.algorithm!r} requires scores")
    if config.algorithm == "random" and scores is None:
        # the random baseline never reads score values, only the pool
        scores = ScoreMap(np.zeros(points.n), "scores")
    if bound_params is None:
        bound_params = BoundParams(num_classes=dataset.num_classes)

    estimate = (
        estimator_from_config(config.estimator)
        if config.estimator is not None
        else None
    )
    if config.algorithm == "density-aware" and estimate is None:
        raise ValidationError("density-aware selection requires an estimator")

    selected = list(_check_initial(config.initial, points.n))
    rounds: list[RoundResult] = []
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
                scores, config.alpha, config.budget, candidates=remaining
            )
        else:
            pool = remaining
        take = min(config.budget, pool.size)
        partial = take < config.budget

        state: SelectionState | None = None
        densities: DensityField | None = None
        if config.algorithm in GREEDY_ALGORITHMS:
            universe = np.sort(np.concatenate([pool, np.asarray(selected, dtype=np.int64)])) \
                if selected else pool
            local = {int(g): i for i, g in enumerate(universe.tolist())}
            sub_points = PointSet(points.features[universe], points.ids[universe])
            s0_local = [local[int(g)] for g in selected]
            if config.algorithm == "density-aware":
                densities = estimate(sub_points)
                state = density_aware_greedy(
                    sub_points, densities, s0_local, take
                )
            else:
                state = k_center_greedy(sub_points, s0_local, take)
            picks = tuple(int(universe[i]) for i in state.picks)
            pick_radii = state.pick_radii
        else:
            universe = pool
            round_seed = derive_seed(config.seed, round_index)
            chosen = uncertainty_select(
                scores, take, config.algorithm, seed=round_seed, candidates=pool
            )
            picks = tuple(int(i) for i in chosen)
            pick_radii = np.full(len(picks), np.nan)

        selected.extend(picks)
        bound = bound_report(points, selected, config.metric, bound_params)
        rounds.append(
            RoundResult(
                round_index=round_index,
                pool=pool,
                universe=universe,
                picks=picks,
                pick_radii=np.asarray(pick_radii, dtype=np.float64),
                state=state,
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
        config=config,
    )
