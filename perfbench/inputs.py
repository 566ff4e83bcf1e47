"""Seeded benchmark inputs, drawn without the package under test.

The mixture has the stock three-tier layout at dim 8: eight tight clusters
(sigma 0.5) on +/- axis directions, five medium clusters (sigma 1.5) on
diagonal directions, all at distance 32 from the origin, and one wide
background component (sigma 4.5) at the origin carrying the rest of the
mass.  Labels are component numbers 1..14 in that order.

The harness draws the points with its own numpy stream and writes the CSV
itself, so a change to the package's generator or CSV writer cannot change
the inputs on one side of a comparison.  The sha256 of the written file is
returned so runs can record exactly what they measured.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DIM = 8
RADIUS = 32.0
TIGHT_SIGMA, MEDIUM_SIGMA, BACKGROUND_SIGMA = 0.5, 1.5, 4.5


@dataclass(frozen=True, eq=False)
class Dataset:
    ids: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    scores: np.ndarray | None

    @property
    def n(self) -> int:
        return self.ids.shape[0]


def mixture_layout(n: int):
    """Component means, sigmas and counts of the three-tier mixture."""
    tight_count = max(1, round(n * 0.135 / 8))
    medium_count = max(1, round(n * 0.165 / 5))
    means, sigmas, counts = [], [], []
    axis_slots = [(i, s) for i in range(DIM) for s in (1.0, -1.0)]
    for j in range(8):
        center = np.zeros(DIM)
        i, sign = axis_slots[j % len(axis_slots)]
        center[i] = sign * RADIUS
        means.append(center)
        sigmas.append(TIGHT_SIGMA)
        counts.append(tight_count)
    diagonal_slots = [
        (i, (i + 1) % DIM, s, t)
        for i in range(DIM)
        for s, t in ((1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0))
    ]
    for j in range(5):
        center = np.zeros(DIM)
        i, k, s, t = diagonal_slots[(j * 3) % len(diagonal_slots)]
        center[i] = s * RADIUS / math.sqrt(2.0)
        center[k] = t * RADIUS / math.sqrt(2.0)
        means.append(center)
        sigmas.append(MEDIUM_SIGMA)
        counts.append(medium_count)
    means.append(np.zeros(DIM))
    sigmas.append(BACKGROUND_SIGMA)
    counts.append(n - sum(counts))
    return means, sigmas, counts


def draw(seed: int, n: int, with_scores: bool) -> Dataset:
    """Draw the mixture (and uniform scores in [0, 1) if asked) from ``seed``."""
    rng = np.random.default_rng(seed)
    blocks, labels = [], []
    for label, (mean, sigma, count) in enumerate(zip(*mixture_layout(n)), start=1):
        blocks.append(mean + sigma * rng.standard_normal((count, DIM)))
        labels.append(np.full(count, label, dtype=np.int64))
    scores = rng.random(n) if with_scores else None
    return Dataset(
        ids=np.arange(n, dtype=np.int64),
        features=np.vstack(blocks),
        labels=np.concatenate(labels),
        scores=scores,
    )


def write_csv(data: Dataset, path: Path) -> str:
    """Write ``id,f0..f7,label[,score]`` with round-trip floats; return its sha256."""
    header = ["id"] + [f"f{j}" for j in range(DIM)] + ["label"]
    if data.scores is not None:
        header.append("score")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(data.n):
            row = [str(int(data.ids[i]))]
            row += [repr(float(v)) for v in data.features[i]]
            row.append(str(int(data.labels[i])))
            if data.scores is not None:
                row.append(repr(float(data.scores[i])))
            writer.writerow(row)
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
