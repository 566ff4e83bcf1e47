"""Independent naive re-implementations used as oracles.

Everything down to `splitmix64_stream` is written with explicit Python loops
and scalar math on purpose: the library computes the same quantities with
vectorized numpy, so agreement between the two is a meaningful check, not a
tautology.

`dense_greedy` and `dense_coverage` are the greedy and the coverage
assignment without pruning: every pick, and every selected point, is
measured against every point.  They use the package's explicit-difference
arithmetic on purpose, so the pruned versions must match them bit for bit.

The last two references answer questions the library never asks at run
time: `brute_force_k_center` is the exact optimum the greedy's factor-2
guarantee is measured against (acceptance criterion 2), and
`verify_bound_ordering` samples random selected sets to check that the worst
per-area radial mean never exceeds the covering radius (criterion 1).
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from denscore import PointSet, PortableRng, ValidationError, coverage

_BRUTE_FORCE_MAX_N = 16
_BRUTE_FORCE_MAX_B = 5


def euclidean(a, b):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def squared(a, b):
    return sum((x - y) ** 2 for x, y in zip(a, b))


def nearest_selected(features, selected, t):
    """Index of the nearest selected point to t, ties to lowest index."""
    best_k, best_d = None, None
    for k in sorted(selected):
        d = euclidean(features[t], features[k])
        if best_d is None or d < best_d:
            best_k, best_d = k, d
    return best_k


def classical_radius(features, selected):
    """Max over points of the distance to the nearest selected point."""
    worst = 0.0
    for t in range(len(features)):
        d = min(euclidean(features[t], features[k]) for k in selected)
        worst = max(worst, d)
    return worst


def average_radial_distance(features, selected, k):
    """Mean distance from the points assigned to k (nearest-selected,
    ties to lowest index, k itself included) to k itself."""
    values = []
    for t in range(len(features)):
        if nearest_selected(features, selected, t) == k:
            values.append(euclidean(features[t], features[k]))
    if not values:
        return 0.0
    return sum(values) / len(values)


def core_set_loss(features, labels, selected):
    """|mean all-point 0/1 error - mean selected 0/1 error| of 1-NN."""
    fitted = sorted(selected)

    def predict(t):
        best_k, best_d = None, None
        for k in fitted:
            d = squared(features[t], features[k])
            if best_d is None or d < best_d:
                best_k, best_d = k, d
        return labels[best_k]

    all_errors = [1.0 if predict(t) != labels[t] else 0.0
                  for t in range(len(features))]
    sel_errors = [all_errors[k] for k in fitted]
    return abs(sum(all_errors) / len(all_errors) - sum(sel_errors) / len(sel_errors))


def exact_squared_distances(features):
    """Every pairwise squared distance as nested lists, each the exact
    (``math.fsum``) sum of the rounded squared coordinate differences."""
    n = len(features)
    sq = [[0.0] * n for _ in range(n)]
    for t in range(n):
        for j in range(t + 1, n):
            sq[t][j] = sq[j][t] = math.fsum(
                (x - y) * (x - y) for x, y in zip(features[t], features[j]))
    return sq


def kernel_density(features, bandwidth, beta, sq=None):
    """Self-excluded Gaussian kernel means, each row summed exactly
    (``math.fsum``), linearly rescaled so the largest value equals beta.

    ``sq`` is `exact_squared_distances(features)`, when already computed.
    """
    sq = exact_squared_distances(features) if sq is None else sq
    n = len(sq)
    scale = 2.0 * bandwidth * bandwidth
    raw = [math.fsum(math.exp(-v / scale) for j, v in enumerate(row) if j != t)
           / (n - 1) for t, row in enumerate(sq)]
    top = max(raw)
    return [beta * v / top for v in raw]


def knn_errors(features, k):
    """Mean Euclidean distance to the k nearest neighbors, self excluded."""
    n = len(features)
    out = []
    for t in range(n):
        ds = [euclidean(features[t], features[j]) for j in range(n) if j != t]
        ds.sort()
        out.append(sum(ds[:k]) / k)
    return out


def masked_reconstruction_error(grid, kernel_size, temperature=None):
    """Per-pixel squared reconstruction error of the masked K x K mean.

    grid is a nested list [H][W][C].  The weights are uniform 1/(K^2-1);
    temperature switches to per-pixel softmax weights over negated squared
    neighbor-to-center distances.
    """
    h, w = len(grid), len(grid[0])
    channels = len(grid[0][0])
    r = kernel_size // 2

    def at(i, j):
        # replicate padding
        return grid[min(max(i, 0), h - 1)][min(max(j, 0), w - 1)]

    errors = [[0.0] * w for _ in range(h)]
    for i in range(h):
        for j in range(w):
            center = grid[i][j]
            offsets = [(u, v) for u in range(-r, r + 1) for v in range(-r, r + 1)
                       if not (u == 0 and v == 0)]
            if temperature is not None:
                logits = []
                for u, v in offsets:
                    nb = at(i + u, j + v)
                    logits.append(-squared(nb, center) / temperature)
                peak = max(logits)
                exps = [math.exp(x - peak) for x in logits]
                denom = sum(exps)
                wvals = [e / denom for e in exps]
            else:
                wvals = [1.0 / (kernel_size * kernel_size - 1)] * len(offsets)
            recon = [0.0] * channels
            for wv, (u, v) in zip(wvals, offsets):
                nb = at(i + u, j + v)
                for c in range(channels):
                    recon[c] += wv * nb[c]
            errors[i][j] = squared(recon, center)
    return errors


def least_squares_fit(x, y):
    """Slope, intercept, and R^2 of the ordinary least-squares line."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxx = sum((v - mx) ** 2 for v in x)
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = sum((b - (slope * a + intercept)) ** 2 for a, b in zip(x, y))
    ss_tot = sum((b - my) ** 2 for b in y)
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, r_squared


def splitmix64_stream(seed, count):
    """Reference SplitMix64 sequence using plain Python integers."""
    mask = (1 << 64) - 1
    out = []
    state = seed & mask
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def _dense_squared(features, k):
    diff = features - features[k]
    return np.sum(diff * diff, axis=1)


def dense_greedy(features, densities, s0, b):
    """The greedy measuring every point at every pick: ``(picks,
    pick_radii, radii)``.  ``densities`` None is k-center; ties to the
    lowest index."""
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    radii = np.full(n, np.inf)
    unselected = np.ones(n, dtype=bool)
    picks, pick_radii = [], []

    def cover(k):
        sq = _dense_squared(features, k)
        if densities is not None:
            sq = sq / densities[k]
        np.minimum(radii, sq, out=radii)
        unselected[k] = False

    for k in s0:
        cover(k)
    for _ in range(b):
        u = int(np.argmax(np.where(unselected, radii, -np.inf)))
        picks.append(u)
        pick_radii.append(float(radii[u]))
        cover(u)
    return picks, pick_radii, radii


def dense_coverage(features, selected):
    """Owner and squared distance of every point, measuring it against every
    selected point: the least squared distance, ties to the lowest index."""
    features = np.asarray(features, dtype=np.float64)
    sel = sorted(selected)
    sq = np.stack([_dense_squared(features, k) for k in sel], axis=1)
    position = np.argmin(sq, axis=1)  # first of equal minima: lowest index
    return np.asarray(sel)[position], sq[np.arange(len(features)), position]


def brute_force_k_center(points: PointSet, b: int) -> tuple[tuple[int, ...], float]:
    """Exhaustively minimize the covering radius over all size-b subsets.

    Only for oracle-scale instances (n <= 16, b <= 5).  Ties resolve to the
    lexicographically smallest subset because candidates are enumerated in
    lexicographic order and replaced only on strict improvement.
    """
    n = points.n
    b = int(b)
    if n > _BRUTE_FORCE_MAX_N:
        raise ValidationError(
            f"instance too large for exhaustive search (n={n} > {_BRUTE_FORCE_MAX_N})"
        )
    if not (1 <= b <= n):
        raise ValidationError(f"b must lie in 1..n (got {b})")
    if b > _BRUTE_FORCE_MAX_B:
        raise ValidationError(
            f"instance too large for exhaustive search (b={b} > {_BRUTE_FORCE_MAX_B})"
        )
    diff = points.features[:, None, :] - points.features[None, :, :]
    sq = np.sum(diff * diff, axis=-1)
    best_subset: tuple[int, ...] | None = None
    best_sq = math.inf
    for subset in itertools.combinations(range(n), b):
        cols = np.asarray(subset, dtype=np.int64)
        radius_sq = float(np.max(np.min(sq[:, cols], axis=1)))
        if radius_sq < best_sq:
            best_sq = radius_sq
            best_subset = subset
    return best_subset, math.sqrt(best_sq)


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
    points: PointSet, trials: int, seed: int = 0
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
        # the library's summaries: this harness checks their ordering
        cov = coverage.assign_coverage(points, subset)
        delta = coverage.classical_radius(cov)
        max_radial = max(coverage.all_radial_distances(cov).values())
        if max_radial > delta + coverage.ORDERING_RTOL * delta:
            violations += 1
        min_gap = min(min_gap, delta - max_radial)
    return BoundOrderingReport(trials=trials, violations=violations, min_gap=min_gap)
