"""Tour of the three density estimators.

All three share the same output convention: a DensityField of values in
(0, BETA] with the fixed BETA = e^2.4, higher meaning denser. What differs
is the error signal: mean Euclidean k-NN distances and masked reconstruction
errors on a feature grid, both min-max normalized onto [0, 1] and fed through
the exponential map, or kernel averages rescaled so the densest point gets
BETA.
"""

import numpy as np

from denscore import (
    BETA,
    FeatureGrid,
    GeneratorSpec,
    MaskedReconstructor,
    generate,
    grid_density,
    kernel_density,
    knn_density,
    masked_reconstruction_error,
)

spec = GeneratorSpec(
    kind="gaussian-mixture",
    seed=5,
    means=((0.0, 0.0), (8.0, 0.0)),
    sigmas=(0.3, 3.0),
    counts=(120, 80),
)
dataset = generate(spec)
points = dataset.points
tight = dataset.labels == 1
diffuse = ~tight

knn = knn_density(points, k_neighbors=8)
kern = kernel_density(points, bandwidth=1.0)

print("mean density by cluster (tight sigma=0.3 vs diffuse sigma=3.0)")
print(f"  knn    : {knn.values[tight].mean():9.3f} vs {knn.values[diffuse].mean():7.3f}")
print(f"  kernel : {kern.values[tight].mean():9.3f} vs {kern.values[diffuse].mean():7.3f}")
print(f"field maximum is always BETA = {BETA:.4f}")

# both estimators agree on who the sparsest point is in this draw
print(f"\nsparsest point, knn    : index {int(np.argmin(knn.values))}")
print(f"sparsest point, kernel : index {int(np.argmin(kern.values))}")

# grid route: reconstruction from the masked 3x3 neighborhood. a smooth
# ramp reconstructs almost perfectly, salt noise does not.
rng = np.random.default_rng(0)
h, w = 16, 16
ramp = np.linspace(0.0, 1.0, h * w, dtype=np.float64).reshape(h, w, 1)
noisy = ramp.copy()
salt = rng.choice(h * w, size=12, replace=False)
noisy.reshape(-1, 1)[salt] += 1.5

grid = FeatureGrid(noisy)
rec = MaskedReconstructor(kernel_size=3, weight_mode="uniform")
errors = masked_reconstruction_error(grid, rec)

print(f"\ngrid {h}x{w}, 12 salted cells")
print(f"median reconstruction error : {np.median(errors):.5f}")
print(f"mean error at salted cells  : {errors.ravel()[salt].mean():.5f}")

field = grid_density(grid, rec)
flagged = np.argsort(field.values)[:12]
print(f"salted cells recovered among 12 lowest densities: "
      f"{len(set(salt.tolist()) & set(flagged.tolist()))} of 12")
