"""Output checks that do not use the package under test.

Each check recomputes what the CLI reported from the harness's own copy of
the dataset with brute-force numpy, and raises ``CheckError`` naming the
first mismatch.  Distances use explicit coordinate differences, and every
point belongs to its nearest picked point with ties to the lowest dataset
position, as the package documents.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from pathlib import Path

import numpy as np

# Relative tolerance for recomputed distances: summation order differs from
# the package's, so the last few bits may too.
RTOL = 1e-9
CHUNK = 512

SELECTION_HEADER = ["round", "order", "id", "radius_at_pick"]


class CheckError(Exception):
    """An output file disagrees with the brute-force recomputation."""


class Coverage:
    """Nearest-picked assignment of every point, updated one batch at a time."""

    def __init__(self, features: np.ndarray):
        self.features = features
        self.best_sq = np.full(features.shape[0], np.inf)
        self.owner = np.full(features.shape[0], -1, dtype=np.int64)

    def add(self, positions) -> None:
        cols = np.sort(np.asarray(positions, dtype=np.int64))
        centers = self.features[cols]
        for start in range(0, self.features.shape[0], CHUNK):
            rows = slice(start, start + CHUNK)
            diff = self.features[rows, None, :] - centers[None, :, :]
            sq = np.sum(diff * diff, axis=-1)
            near = np.argmin(sq, axis=1)  # first occurrence -> lowest position
            near_sq = sq[np.arange(sq.shape[0]), near]
            cand = cols[near]
            best, owner = self.best_sq[rows], self.owner[rows]
            take = (near_sq < best) | ((near_sq == best) & (cand < owner))
            best[take] = near_sq[take]
            owner[take] = cand[take]

    def summary(self) -> tuple[float, dict[int, float]]:
        """Covering radius and mean distance per area, keyed by position."""
        dist = np.sqrt(self.best_sq)
        sums = np.bincount(self.owner, weights=dist)
        counts = np.bincount(self.owner)
        areas = np.flatnonzero(counts)
        return float(dist.max()), {int(k): sums[k] / counts[k] for k in areas}


def _close(name: str, reported, expected: float, where) -> None:
    if not isinstance(reported, (int, float)) or not math.isclose(
        reported, expected, rel_tol=RTOL, abs_tol=0.0
    ):
        raise CheckError(f"{where}: {name} is {reported!r}, recomputed {expected!r}")


def _check_bounds(payload: dict, cov: Coverage, ids: np.ndarray, picked, where) -> None:
    delta, radial = cov.summary()
    if payload.get("n") != ids.shape[0]:
        raise CheckError(f"{where}: n is {payload.get('n')!r}, dataset has {ids.shape[0]}")
    if payload.get("num_selected") != len(picked):
        raise CheckError(
            f"{where}: num_selected is {payload.get('num_selected')!r}, expected {len(picked)}"
        )
    _close("delta", payload.get("delta"), delta, where)
    _close("max_radial", payload.get("max_radial"), max(radial.values()), where)
    reported = payload.get("radial", {})
    expected = {str(int(ids[k])): v for k, v in radial.items()}
    if set(reported) != set(expected):
        raise CheckError(f"{where}: radial areas do not match the picked ids")
    for key, value in expected.items():
        _close(f"radial[{key}]", reported[key], value, where)


def _read_selection(path: Path, round_index: int, budget: int, position: dict, seen: set):
    if not path.is_file():
        raise CheckError(f"{path.name}: missing")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != SELECTION_HEADER:
        raise CheckError(f"{path.name}: header is not {SELECTION_HEADER}")
    body = rows[1:]
    if len(body) != budget:
        raise CheckError(f"{path.name}: {len(body)} picks, expected {budget}")
    picks, radii = [], []
    for order, row in enumerate(body, start=1):
        if len(row) != 4 or row[0] != str(round_index) or row[1] != str(order):
            raise CheckError(f"{path.name}: row {order} is malformed: {row!r}")
        pick_id = int(row[2])
        if pick_id not in position:
            raise CheckError(f"{path.name}: id {pick_id} is not in the dataset")
        if pick_id in seen:
            raise CheckError(f"{path.name}: id {pick_id} is picked twice")
        seen.add(pick_id)
        picks.append(position[pick_id])
        radii.append(float(row[3]))
    for order in range(1, len(radii)):
        if not radii[order] <= radii[order - 1]:
            raise CheckError(
                f"{path.name}: radius rises from {radii[order - 1]!r} to "
                f"{radii[order]!r} at pick {order + 1}"
            )
    return picks


def check_select(out: Path, ids: np.ndarray, features: np.ndarray,
                 rounds: int, budget: int) -> dict:
    """Check every round's picks and bounds and the summary of a ``select``.

    Returns the final round's delta, max_radial and mean per-area radial
    distance, and the picked positions of every round.
    """
    position = {int(v): i for i, v in enumerate(ids.tolist())}
    seen: set[int] = set()
    cov = Coverage(features)
    picked: list[int] = []
    per_round = []
    for r in range(1, rounds + 1):
        picks = _read_selection(out / f"selection_round_{r:02d}.csv", r, budget, position, seen)
        per_round.append(picks)
        picked.extend(picks)
        cov.add(picks)
        bounds_path = out / f"bounds_round_{r:02d}.json"
        if not bounds_path.is_file():
            raise CheckError(f"{bounds_path.name}: missing")
        payload = json.loads(bounds_path.read_text())
        if payload.get("round") != r or payload.get("partial") is not False:
            raise CheckError(f"{bounds_path.name}: wrong round or partial flag")
        _check_bounds(payload, cov, ids, picked, bounds_path.name)
    summary = json.loads((out / "selection_summary.json").read_text())
    if summary.get("rounds_completed") != rounds or summary.get("exhausted") is not False:
        raise CheckError("selection_summary.json: wrong rounds_completed or exhausted flag")
    if summary.get("selected_ids") != [int(ids[p]) for p in picked]:
        raise CheckError("selection_summary.json: selected_ids differ from the round files")
    return {
        "final_delta": payload["delta"],
        "final_max_radial": payload["max_radial"],
        "final_mean_radial": statistics.fmean(payload["radial"].values()),
        "rounds": per_round,
    }


def check_evaluate(path: Path, ids: np.ndarray, features: np.ndarray,
                   labels: np.ndarray, picks) -> dict:
    """Check an ``evaluation.json`` for ``picks`` (dataset positions)."""
    payload = json.loads(path.read_text())
    cov = Coverage(features)
    cov.add(picks)
    _check_bounds(payload, cov, ids, picks, path.name)
    errors = (labels[cov.owner] != labels).astype(np.float64)
    loss = abs(errors.mean() - errors[np.asarray(picks)].mean())
    _close("core_set_loss", payload.get("core_set_loss"), loss, path.name)
    return {"core_set_loss": payload["core_set_loss"]}


def snapshot(out: Path) -> dict:
    """Every output file under ``out``; JSON files without their wall-clock
    ``metadata``, which is the only part a rerun may change."""
    files = {}
    for path in sorted(out.rglob("*")):
        if path.suffix == ".json":
            payload = json.loads(path.read_text())
            payload.pop("metadata", None)
            files[str(path.relative_to(out))] = payload
        elif path.is_file():
            files[str(path.relative_to(out))] = path.read_bytes()
    return files
