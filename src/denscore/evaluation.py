"""Evaluation harness: plug-in learner, core-set loss, algorithm comparison,
and the mean-vs-max bound-ordering check.

The core-set loss of a selected set s is

    | mean over all points of l(x_t, y_t; A_s)
      - mean over selected of l(x_k, y_k; A_s) |

for a learner A_s fitted on s.  With the one-nearest-neighbor plug-in
learner and zero-one loss the second mean vanishes (every fitted point is
its own nearest neighbor), so the value reduces to the plain error rate of
the 1-NN classifier over the dataset; both sums are still computed
explicitly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .coverage import (
    BoundParams,
    ORDERING_RTOL,
    _check_selected,
    all_radial_distances,
    assign_coverage,
    classical_radius,
)
from .data import (
    GeneratorSpec,
    LabeledPointSet,
    PointSet,
    ValidationError,
    canonical_metric,
    generate,
    nearest_selected,
)
from .rng import PortableRng
from .selection import ProtocolConfig, run_rounds

__all__ = [
    "PluginLearner",
    "ComparisonReport",
    "BoundOrderingReport",
    "core_set_loss",
    "compare_algorithms",
    "verify_bound_ordering",
    "nonuniform_mixture_spec",
    "uniform_box_spec",
    "COMPARISON_ESTIMATOR",
]

# Density-estimator settings used by the stock non-uniform comparison: mean
# 10-NN distance, min-max normalized.  The temperature is deliberately mild:
# at tau=2 the uniform-box control stays statistically flat (the two
# algorithms' mean max radial distances differ by well under two pooled
# standard errors) while the mixture benchmark still reallocates budget
# toward sparse regions.  Sharper temperatures (tau <= 0.5) make the density
# rescale so aggressive that the selector re-picks inside already-covered
# dense pockets and the uniform control develops a systematic gap.
COMPARISON_ESTIMATOR = {
    "kind": "knn",
    "k_neighbors": 10,
    "normalize_errors": True,
    "tau": 2.0,
}


@dataclass(frozen=True, eq=False)
class PluginLearner:
    """One-nearest-neighbor classifier fitted on a selected subset.

    Predicts the label of the nearest fitted point (ties to the lowest
    fitted index, so among duplicate coordinates the earliest selected point
    wins).  Every fitted point therefore predicts its own label except in
    the degenerate case of coordinate duplicates with conflicting labels.
    Plain and squared Euclidean distance give the same nearest point, so the
    learner takes no metric.
    """

    fitted_indices: np.ndarray
    fitted_features: np.ndarray
    fitted_labels: np.ndarray

    @classmethod
    def fit(cls, data: LabeledPointSet, selected) -> "PluginLearner":
        sel = _check_selected(selected, data.n)
        return cls(
            fitted_indices=sel,
            fitted_features=data.points.features[sel],
            fitted_labels=data.labels[sel],
        )

    def predict(self, features: np.ndarray) -> np.ndarray:
        position, _ = nearest_selected(features, self.fitted_features)
        return self.fitted_labels[position]


def core_set_loss(
    data: LabeledPointSet,
    selected,
    learner: PluginLearner,
) -> float:
    """Absolute gap between the dataset mean zero-one loss and the
    selected-set mean zero-one loss under ``learner`` (which must be fitted
    on exactly ``selected``)."""
    sel = _check_selected(selected, data.n)
    if not np.array_equal(sel, learner.fitted_indices):
        raise ValidationError("learner was not fitted on the given selected set")
    predictions = learner.predict(data.points.features)
    errors = (predictions != data.labels).astype(np.float64)
    return float(abs(errors.mean() - errors[sel].mean()))


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Per-seed metrics for each algorithm plus aggregate means and win rates.

    ``rows`` hold one dict per (seed, algorithm) with delta, max_radial,
    loss, and runtime_ms.  Win rates count the seeds where density-aware is
    strictly smaller than k-center.  Everything except the wall-clock
    runtime fields is reproducible bit for bit from (spec, seeds, config).
    """

    rows: tuple[dict, ...]
    aggregates: dict
    seeds: tuple[int, ...]
    budget: int
    rounds: int
    metric: str
    estimator: dict
    dataset: dict

    def to_dict(self) -> dict:
        return {
            "rows": [dict(r) for r in self.rows],
            "aggregates": dict(self.aggregates),
            "seeds": list(self.seeds),
            "budget": self.budget,
            "rounds": self.rounds,
            "metric": self.metric,
            "estimator": dict(self.estimator),
            "dataset": dict(self.dataset),
        }


def _single_run(
    dataset: LabeledPointSet,
    algorithm: str,
    budget: int,
    rounds: int,
    estimator: dict | None,
    metric: str,
) -> dict:
    config = ProtocolConfig(
        budget=budget,
        rounds=rounds,
        alpha=None,
        algorithm=algorithm,
        estimator=estimator if algorithm == "density-aware" else None,
        metric=metric,
    )
    start = time.perf_counter()
    result = run_rounds(dataset, config)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    bound = result.rounds[-1].bound
    learner = PluginLearner.fit(dataset, result.selected)
    loss = core_set_loss(dataset, result.selected, learner)
    return {
        "algorithm": algorithm,
        "delta": bound.delta,
        "max_radial": bound.max_radial,
        "loss": loss,
        "runtime_ms": elapsed_ms,
        "num_selected": len(result.selected),
    }


def compare_algorithms(
    spec: GeneratorSpec,
    budget: int,
    rounds: int,
    seeds,
    estimator: dict | None = None,
    metric: str = "euclidean",
) -> ComparisonReport:
    """Run k-center and density-aware selection side by side over seeds.

    For each seed the dataset is regenerated from ``spec`` with that seed
    and both algorithms start from the identical bootstrap pick (the
    lowest-index point), select rounds*budget points without candidate
    filtering, and are measured on covering radius, worst mean radial
    distance, and core-set loss.
    """
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ValidationError("at least one seed is required")
    metric = canonical_metric(metric)
    estimator = dict(estimator) if estimator is not None else dict(COMPARISON_ESTIMATOR)
    rows = []
    per_alg: dict[str, list[dict]] = {"k-center": [], "density-aware": []}
    for seed in seeds:
        dataset = generate(spec.with_seed(seed))
        for algorithm in ("k-center", "density-aware"):
            row = _single_run(dataset, algorithm, budget, rounds, estimator, metric)
            row["seed"] = seed
            rows.append(row)
            per_alg[algorithm].append(row)

    def mean_of(alg: str, key: str) -> float:
        return float(np.mean([r[key] for r in per_alg[alg]]))

    def win_rate(key: str) -> float:
        wins = sum(
            1
            for kc, da in zip(per_alg["k-center"], per_alg["density-aware"])
            if da[key] < kc[key]
        )
        return wins / len(seeds)

    aggregates = {
        "mean": {
            alg: {key: mean_of(alg, key) for key in ("delta", "max_radial", "loss")}
            for alg in ("k-center", "density-aware")
        },
        "density_aware_win_rate": {
            "max_radial": win_rate("max_radial"),
            "loss": win_rate("loss"),
            "delta": win_rate("delta"),
        },
    }
    return ComparisonReport(
        rows=tuple(rows),
        aggregates=aggregates,
        seeds=seeds,
        budget=int(budget),
        rounds=int(rounds),
        metric=metric,
        estimator=estimator,
        dataset=spec.to_dict(),
    )


@dataclass(frozen=True)
class BoundOrderingReport:
    """Outcome of randomized mean-vs-max ordering trials."""

    trials: int
    violations: int
    min_gap: float

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "violations": self.violations,
            "min_gap": self.min_gap,
        }


def verify_bound_ordering(
    points: PointSet, trials: int, seed: int = 0, metric: str = "euclidean"
) -> BoundOrderingReport:
    """Sample random selected subsets and check max mean radial distance
    never exceeds the covering radius (tolerance 1e-12 * delta).

    Returns the violation count and the smallest observed gap
    (delta - max_radial) across trials.
    """
    trials = int(trials)
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    rng = PortableRng(seed)
    n = points.n
    violations = 0
    min_gap = math.inf
    for _ in range(trials):
        size = 1 + int(rng.uniforms(1)[0] * n)
        size = min(size, n)
        subset = rng.permutation(n)[:size]
        cov = assign_coverage(points, subset, metric)
        delta = classical_radius(cov, points)
        max_radial = max(all_radial_distances(cov, points).values())
        if max_radial > delta + ORDERING_RTOL * delta:
            violations += 1
        min_gap = min(min_gap, delta - max_radial)
    return BoundOrderingReport(trials=trials, violations=violations, min_gap=min_gap)


def nonuniform_mixture_spec(
    n: int = 2000, dim: int = 8, seed: int = 0
) -> GeneratorSpec:
    """Stock non-uniform benchmark: an isotropic Gaussian mixture whose
    component standard deviations come in three tiers with ratio 1:3:9.

    One wide background component (the 9-tier) at the origin carries most
    of the mass.  Eight tight clusters (the 1-tier) sit on +/- axis
    directions and five medium clusters (the 3-tier) on diagonal
    directions, all at the same distance from the origin, far enough out
    that the background's own samples do not reach them.  The layout gives
    a broad spread of local densities at comparable inter-cluster
    distances: a selector must trade coverage of the thin background
    against many distinct dense pockets, and per-pick coverage radii land
    on clearly separated density tiers instead of collapsing onto one or
    two values.  Counts keep their proportions when ``n`` changes; cluster
    directions repeat when ``dim`` is too small to give each its own axis.
    """
    if dim < 1:
        raise ValidationError("dim must be >= 1")
    if n < 20:
        raise ValidationError("n must be >= 20")
    base = 0.5
    radius = 64.0 * base
    # dense mass 0.30 of n: 0.135 across the tight tier, 0.165 across the
    # medium tier, remainder to the background
    tight_count = max(1, int(round(n * 0.135 / 8)))
    medium_count = max(1, int(round(n * 0.165 / 5)))
    means: list[tuple[float, ...]] = []
    sigmas: list[float] = []
    counts: list[int] = []
    axis_slots = [(i, s) for i in range(dim) for s in (1.0, -1.0)]
    for j in range(8):
        center = [0.0] * dim
        i, sign = axis_slots[j % len(axis_slots)]
        center[i] = sign * radius
        means.append(tuple(center))
        sigmas.append(base)
        counts.append(tight_count)
    diagonal_slots = [
        (i, (i + 1) % dim, s, t)
        for i in range(dim)
        for s, t in ((1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0))
    ]
    for j in range(5):
        center = [0.0] * dim
        i, k, s, t = diagonal_slots[(j * 3) % len(diagonal_slots)]
        center[i] = s * radius / math.sqrt(2.0)
        center[k] = t * radius / math.sqrt(2.0)
        means.append(tuple(center))
        sigmas.append(3.0 * base)
        counts.append(medium_count)
    means.append(tuple([0.0] * dim))
    sigmas.append(9.0 * base)
    counts.append(max(1, n - sum(counts)))
    return GeneratorSpec(
        kind="gaussian-mixture",
        seed=seed,
        means=tuple(means),
        sigmas=tuple(sigmas),
        counts=tuple(counts),
    )


def uniform_box_spec(
    n: int = 1000, dim: int = 4, seed: int = 0, half_width: float = 1.0
) -> GeneratorSpec:
    """Uniform control dataset: one axis-aligned box centred at the origin."""
    return GeneratorSpec(
        kind="uniform-box",
        seed=seed,
        means=(tuple([0.0] * dim),),
        sigmas=(float(half_width),),
        counts=(int(n),),
    )
