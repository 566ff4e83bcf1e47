"""Evaluation harness: plug-in learner, core-set loss, algorithm comparison,
and the stock non-uniform benchmark generator (the uniform control is a
``GeneratorSpec(kind="uniform-box")``).

The core-set loss of a selected set s is

    | mean over all points of l(x_t, y_t; A_s)
      - mean over selected of l(x_k, y_k; A_s) |

for a learner A_s fitted on s.  With the one-nearest-neighbor plug-in
learner and zero-one loss the second mean vanishes (every fitted point is
its own nearest neighbor), so the value reduces to the plain error rate of
the 1-NN classifier over the dataset; both sums are still computed
explicitly.  The 1-NN prediction of every point is the label of its owner
in the coverage assignment of s, so the loss reads that assignment.

The randomized check that the worst per-area mean never exceeds the
covering radius is a test oracle (``tests/oracles.py``); `bound_report`
asserts the same ordering on every report it builds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .coverage import CoverageAssignment, assign_coverage
from .data import (
    GeneratorSpec,
    LabeledPointSet,
    PointSet,
    ValidationError,
    _config_values,
    check_index_set,
    config_value,
    generate,
)
from .selection import ProtocolConfig, run_rounds

__all__ = [
    "PluginLearner",
    "ComparisonReport",
    "core_set_loss",
    "compare_algorithms",
    "nonuniform_mixture_spec",
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
    "tau": 2.0,
}


@dataclass(frozen=True, eq=False)
class PluginLearner:
    """One-nearest-neighbor classifier fitted on a selected subset.

    Predicts the label of the nearest fitted point (ties to the lowest
    fitted index, so among duplicate coordinates the earliest selected point
    wins).  Every fitted point therefore predicts its own label except in
    the degenerate case of coordinate duplicates with conflicting labels.
    ``predict`` is `assign_coverage` of the fitted points stacked above the
    queries, so on the points it was fitted from it predicts
    ``labels[assign_coverage(points, selected).pi]``.
    """

    fitted_indices: np.ndarray
    fitted_features: np.ndarray
    fitted_labels: np.ndarray

    @classmethod
    def fit(cls, data: LabeledPointSet, selected) -> "PluginLearner":
        sel = check_index_set(selected, data.n, "selected")
        return cls(
            fitted_indices=sel,
            fitted_features=data.points.features[sel],
            fitted_labels=data.labels[sel],
        )

    def predict(self, features: np.ndarray) -> np.ndarray:
        # a fitted position is a selected index: ties go to the lowest
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        m = self.fitted_indices.size
        stacked = PointSet.from_features(np.vstack([self.fitted_features, features]))
        return self.fitted_labels[assign_coverage(stacked, np.arange(m)).pi[m:]]


def core_set_loss(data: LabeledPointSet, cov: CoverageAssignment) -> float:
    """Absolute gap between the dataset mean zero-one loss and the
    selected-set mean zero-one loss of the 1-NN learner fitted on
    ``cov.selected``, whose prediction for each point is its owner's label
    ``data.labels[cov.pi]`` (the owners and ties of `PluginLearner`)."""
    if cov.n != data.n:
        raise ValidationError("assignment does not match dataset")
    errors = (data.labels[cov.pi] != data.labels).astype(np.float64)
    return float(abs(errors.mean() - errors[cov.selected].mean()))


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Per-seed metrics for each algorithm plus aggregate means and win rates.

    ``rows`` hold one dict per (seed, algorithm) with delta, max_radial,
    loss, and runtime_ms.  Win rates count the seeds where density-aware is
    strictly smaller than k-center.  ``dataset`` is the generator spec the
    seeds were applied to.  Everything except the wall-clock
    runtime fields is reproducible bit for bit from (spec, seeds, config).
    """

    rows: tuple[dict, ...]
    aggregates: dict
    seeds: tuple[int, ...]
    budget: int
    rounds: int
    estimator: dict
    dataset: GeneratorSpec


def _single_run(
    dataset: LabeledPointSet,
    algorithm: str,
    budget: int,
    rounds: int,
    estimator: dict | None,
) -> dict:
    config = ProtocolConfig(
        budget=budget,
        rounds=rounds,
        alpha=None,
        algorithm=algorithm,
        estimator=estimator if algorithm == "density-aware" else None,
    )
    start = time.perf_counter()
    result = run_rounds(dataset, config)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    bound = result.rounds[-1].bound
    loss = core_set_loss(dataset, result.coverage)
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
) -> ComparisonReport:
    """Run k-center and density-aware selection side by side over seeds.

    For each seed the dataset is regenerated from ``spec`` with that seed
    and both algorithms start from the identical bootstrap pick (the
    lowest-index point), select rounds*budget points without candidate
    filtering, and are measured on covering radius, worst mean radial
    distance, and core-set loss.  ``budget``, ``rounds`` and the list
    ``seeds`` may come straight from a config: each is converted here, and a
    wrong type raises a ValidationError naming it.
    """
    budget = config_value(budget, int, "budget")
    rounds = config_value(rounds, int, "rounds")
    seeds = _config_values(seeds, int, "seeds")
    if not seeds:
        raise ValidationError("seeds must be a non-empty list")
    estimator = dict(estimator) if estimator is not None else dict(COMPARISON_ESTIMATOR)
    rows = []
    per_alg: dict[str, list[dict]] = {"k-center": [], "density-aware": []}
    for seed in seeds:
        dataset = generate(replace(spec, seed=seed))
        for algorithm in ("k-center", "density-aware"):
            row = _single_run(dataset, algorithm, budget, rounds, estimator)
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
        budget=budget,
        rounds=rounds,
        estimator=estimator,
        dataset=spec,
    )


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
    n = config_value(n, int, "n")
    dim = config_value(dim, int, "dim")
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
