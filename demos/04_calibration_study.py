"""Does inverse density predict per-area coverage radii?

Selects a core set with plain k-center, assigns every point to its nearest
selected center, and regresses each center's mean radial distance on its
inverse density. A strong fit with negative rank correlation between density
and radius is what justifies density-weighted selection in the first place.
"""

import numpy as np

from denscore import (
    assign_coverage,
    calibrate,
    generate,
    k_center_greedy,
    knn_density,
    nonuniform_mixture_spec,
)

r2s, rhos = [], []
for seed in range(1, 11):
    dataset = generate(nonuniform_mixture_spec(seed=seed))
    state = k_center_greedy(dataset.points, None, 30)
    field = knn_density(dataset.points, k_neighbors=10)
    coverage = assign_coverage(dataset.points, state.selected)
    report = calibrate(field, coverage)
    r2s.append(report.r_squared)
    rhos.append(report.spearman)

print("radius-vs-inverse-density regression over 10 seeds (b=30):")
print(f"  mean R^2              : {np.mean(r2s):.3f}")
print(f"  mean Spearman(d, r)   : {np.mean(rhos):.3f}")

# one seed in detail: binned view of the relation
dataset = generate(nonuniform_mixture_spec(seed=1))
state = k_center_greedy(dataset.points, None, 30)
field = knn_density(dataset.points, k_neighbors=10)
coverage = assign_coverage(dataset.points, state.selected)
report = calibrate(field, coverage, num_bins=8)

print(f"\nseed 1: R^2={report.r_squared:.3f} spearman={report.spearman:.3f} "
      f"slope={report.slope:.4f}")
print("density-ordered bins (low to high), mean radial per bin:")
for i, value in enumerate(report.bin_mean_radial):
    label = "empty" if np.isnan(value) else f"{value:.3f}"
    print(f"  bin {i}: {label}")
print("sparse bins carry the large radii; dense bins sit near zero")
