"""The multi-round selection protocol end to end, with artifacts on disk.

Runs density-aware selection for three rounds with uncertainty filtering,
prints the per-round bound reports, then benchmarks the two greedy
algorithms over a seed list and writes the comparison table as CSV.
"""

import csv
import dataclasses
from pathlib import Path

from denscore import (
    ProtocolConfig,
    compare_algorithms,
    generate,
    margin_score,
    nonuniform_mixture_spec,
    run_rounds,
)

out_dir = Path("demo_outputs")
out_dir.mkdir(exist_ok=True)

dataset = generate(nonuniform_mixture_spec(n=600, dim=4, seed=2))

# margin scores stand in for a model's uncertainty; here we fake a model by
# scoring each point with its distance rank to the global mean, which is
# enough to exercise the filtering path
import numpy as np

center = dataset.points.features.mean(axis=0)
dist = np.linalg.norm(dataset.points.features - center, axis=1)
p = 0.5 + 0.5 * (dist - dist.min()) / (np.ptp(dist) + 1e-12)
probs = np.stack([p, 1.0 - p], axis=1)
dataset = dataclasses.replace(dataset, scores=margin_score(probs))

config = ProtocolConfig(
    budget=10,
    rounds=3,
    algorithm="density-aware",
    alpha=3.0,
    estimator={"kind": "knn", "k_neighbors": 10},
    seed=0,
)
result = run_rounds(dataset, config)

print("three rounds of density-aware selection with margin filtering")
for rnd in result.rounds:
    print(f"  round {rnd.round_index}: picked {len(rnd.picks)} "
          f"delta={rnd.bound.delta:.4f} "
          f"max_radial={rnd.bound.max_radial:.4f} "
          f"tight_bound={rnd.bound.tight_bound_value:.4f}")
print(f"total selected: {len(result.selected)} (exhausted={result.exhausted})")

# head-to-head benchmark on the stock mixture
report = compare_algorithms(
    nonuniform_mixture_spec(), budget=20, rounds=1, seeds=range(1, 11)
)
mean = report.aggregates["mean"]
wins = report.aggregates["density_aware_win_rate"]
print("\nk-center vs density-aware on the stock mixture (10 seeds):")
for alg in ("k-center", "density-aware"):
    m = mean[alg]
    print(f"  {alg:14s} delta={m['delta']:.3f} "
          f"max_radial={m['max_radial']:.3f} loss={m['loss']:.4f}")
print(f"  density-aware win rates: max_radial={wins['max_radial']:.2f} "
      f"loss={wins['loss']:.2f}")

table = out_dir / "comparison_rows.csv"
with open(table, "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["seed", "algorithm", "delta", "max_radial", "loss"])
    for row in report.rows:
        writer.writerow([row["seed"], row["algorithm"], row["delta"],
                         row["max_radial"], row["loss"]])
print(f"\nwrote per-seed rows to {table}")
