"""Config-driven command line interface.

Subcommands::

    denscore generate  --config cfg.json [--out DIR] [--seed N]
    denscore select    --config cfg.json [--out DIR] [--seed N] [--metric M]
    denscore evaluate  --config cfg.json [--out DIR] [--metric M]
    denscore calibrate --config cfg.json [--out DIR] [--metric M]
    denscore compare   --config cfg.json [--out DIR] [--metric M]

Configs are JSON with command-specific sections (unknown fields are
rejected); the flags override the corresponding config values, and a command
rejects a flag it does not read.  The output directory defaults to the
DENSCORE_OUT environment variable, then to the current directory.  All
randomness flows from explicit seeds, so a rerun with an identical config
writes byte-identical data artifacts; the only fields that differ are
wall-clock metadata (``timestamp``, ``runtime_ms``).

``select`` runs the greedy algorithms and the ``random`` baseline.  The
``entropy``, ``sconf`` and ``margin`` baselines need class probabilities,
and a dataset CSV carries only one scalar ``score`` per point, so ``select``
exits 1 for them; call ``run_rounds(..., scores=ScoreMap(p,
"probabilities"))`` from the library instead.

Exit codes: 0 success, 1 invalid config or input, 2 runtime failure,
3 success with warnings (e.g. a selection round ran out of candidates).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .coverage import BoundParams, bound_report
from .data import (
    GeneratorSpec,
    LabeledPointSet,
    ValidationError,
    canonical_metric,
    generate,
    load_pointset,
    save_pointset,
)
from .density import calibrate, estimator_from_config
from .evaluation import PluginLearner, compare_algorithms, core_set_loss
from .selection import ProtocolConfig, run_rounds

__all__ = ["main", "ExperimentConfig"]

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RUNTIME = 2
EXIT_WARNINGS = 3

OUTPUT_DIR_ENV = "DENSCORE_OUT"

_GENERATOR_KEYS = {
    "kind", "seed", "means", "sigmas", "counts", "dim",
    "grid_shape", "grid_spacing",
}
_PROTOCOL_KEYS = {
    "budget", "rounds", "alpha", "algorithm", "seed", "initial",
    "normalize_features",
}
_BOUNDS_KEYS = {"lambda_l", "lambda_eta", "loss_bound", "num_classes", "confidence"}

_COMMAND_KEYS = {
    "generate": {"generator", "output"},
    "select": {"dataset", "protocol", "estimator", "bounds", "metric"},
    "evaluate": {"dataset", "selection", "bounds", "metric"},
    "calibrate": {"dataset", "selection", "estimator", "metric", "bins"},
    "compare": {
        "generator", "budget", "rounds", "seeds", "estimator", "bounds", "metric",
    },
}


class ExperimentConfig:
    """Validated view of a command config file.

    Holds the raw mapping, its canonical sha256 hash, and the source path.
    Section accessors validate field names eagerly so that typos fail before
    any computation starts.
    """

    def __init__(self, command: str, raw: dict, path: str):
        if not isinstance(raw, dict):
            raise ValidationError(f"{path}: config root must be a JSON object")
        allowed = _COMMAND_KEYS[command]
        unknown = set(raw) - allowed
        if unknown:
            raise ValidationError(
                f"{path}: unknown config field(s) for {command}: {sorted(unknown)}"
            )
        self.command = command
        self.raw = raw
        self.path = path
        self.hash = config_hash(raw)

    @classmethod
    def load(cls, command: str, path: str) -> "ExperimentConfig":
        p = Path(path)
        if not p.is_file():
            raise ValidationError(f"config file not found: {path}")
        try:
            raw = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}") from None
        return cls(command, raw, path)

    def require(self, key: str):
        if key not in self.raw:
            raise ValidationError(f"{self.path}: missing required field {key!r}")
        return self.raw[key]

    def section(self, key: str, allowed: set, required: bool = True) -> dict | None:
        if key not in self.raw:
            if required:
                raise ValidationError(f"{self.path}: missing required field {key!r}")
            return None
        value = self.raw[key]
        if not isinstance(value, dict):
            raise ValidationError(f"{self.path}: field {key!r} must be an object")
        unknown = set(value) - allowed
        if unknown:
            raise ValidationError(
                f"{self.path}: unknown field(s) in {key!r}: {sorted(unknown)}"
            )
        return value


def config_hash(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _json_default(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value)!r}")


def _sanitize(value):
    """Make NaN/inf JSON-safe (null / 'inf' strings)."""
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            return None
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    return value


def write_json(payload: dict, path: Path) -> None:
    text = json.dumps(
        _sanitize(payload), indent=2, sort_keys=True, default=_json_default
    )
    path.write_text(text + "\n")


def _metadata(cfg: ExperimentConfig, seeds) -> dict:
    return {
        "command": cfg.command,
        "config_hash": cfg.hash,
        "seeds": seeds,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(OUTPUT_DIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _generator_spec(section: dict, seed_override) -> GeneratorSpec:
    params = dict(section)
    if seed_override is not None:
        params["seed"] = seed_override
    if "seed" not in params:
        raise ValidationError("generator.seed is required")
    kind = params.pop("kind", None)
    if kind is None:
        raise ValidationError("generator.kind is required")
    means = params.pop("means", ())
    means = tuple(tuple(float(x) for x in row) for row in means)
    grid_shape = params.pop("grid_shape", None)
    if grid_shape is not None:
        grid_shape = tuple(int(v) for v in grid_shape)
    return GeneratorSpec(
        kind=kind,
        seed=int(params.pop("seed")),
        means=means,
        sigmas=tuple(float(s) for s in params.pop("sigmas", ())),
        counts=tuple(int(c) for c in params.pop("counts", ())),
        dim=params.pop("dim", None),
        grid_shape=grid_shape,
        grid_spacing=params.pop("grid_spacing", None),
    )


def _bound_params(section: dict | None, dataset: LabeledPointSet) -> BoundParams:
    if section is None:
        return BoundParams(num_classes=dataset.num_classes)
    params = dict(section)
    params.setdefault("num_classes", dataset.num_classes)
    return BoundParams(**params)


def _load_dataset(cfg: ExperimentConfig) -> LabeledPointSet:
    path = cfg.require("dataset")
    if not Path(path).is_file():
        raise ValidationError(f"{cfg.path}: dataset file not found: {path}")
    return load_pointset(path)


def _load_selection_ids(path: str) -> list[int]:
    """Read the id column from a selection CSV (or any CSV with an id column)."""
    if not Path(path).is_file():
        raise ValidationError(f"selection file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: line 1: empty file") from None
        header = [h.strip() for h in header]
        if "id" not in header:
            raise ValidationError(f"{path}: line 1: no 'id' column")
        col = header.index("id")
        ids = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                ids.append(int(row[col]))
            except (ValueError, IndexError):
                raise ValidationError(
                    f"{path}: line {lineno}: invalid id value"
                ) from None
    if not ids:
        raise ValidationError(f"{path}: no selection rows")
    return ids


def _ids_to_positions(dataset: LabeledPointSet, ids: list[int], source: str):
    lookup = {int(v): i for i, v in enumerate(dataset.points.ids.tolist())}
    positions = []
    for v in ids:
        if v not in lookup:
            raise ValidationError(
                f"{source}: id {v} does not occur in the dataset (mismatched files?)"
            )
        positions.append(lookup[v])
    return positions


def _format_radius(value: float) -> str:
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf"
    return repr(float(value))


def cmd_generate(args) -> int:
    cfg = ExperimentConfig.load("generate", args.config)
    section = cfg.section("generator", _GENERATOR_KEYS)
    spec = _generator_spec(section, args.seed)
    dataset = generate(spec)
    out = _out_dir(args)
    name = cfg.raw.get("output", "dataset.csv")
    if not isinstance(name, str) or not name:
        raise ValidationError(f"{cfg.path}: 'output' must be a non-empty string")
    target = out / name
    save_pointset(dataset, target)
    counts = np.bincount(dataset.labels, minlength=dataset.num_classes + 1)[1:]
    print(f"wrote {target}")
    print(f"n={dataset.n} dim={dataset.dim} classes={dataset.num_classes}")
    print("class counts: " + ", ".join(
        f"{label}:{int(c)}" for label, c in enumerate(counts, start=1)
    ))
    return EXIT_OK


def cmd_select(args) -> int:
    cfg = ExperimentConfig.load("select", args.config)
    dataset = _load_dataset(cfg)
    protocol_section = dict(cfg.section("protocol", _PROTOCOL_KEYS))
    if args.seed is not None:
        protocol_section["seed"] = args.seed
    metric = args.metric or cfg.raw.get("metric", "euclidean")
    estimator = cfg.raw.get("estimator")
    config = ProtocolConfig(
        metric=metric,
        estimator=estimator,
        **protocol_section,
    )
    bounds = _bound_params(cfg.section("bounds", _BOUNDS_KEYS, required=False), dataset)
    result = run_rounds(dataset, config, bound_params=bounds)

    out = _out_dir(args)
    ids = dataset.points.ids
    for rnd in result.rounds:
        sel_path = out / f"selection_round_{rnd.round_index:02d}.csv"
        with open(sel_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "order", "id", "radius_at_pick"])
            for order, (pick, radius) in enumerate(
                zip(rnd.picks, rnd.pick_radii), start=1
            ):
                writer.writerow([
                    rnd.round_index, order, int(ids[pick]), _format_radius(radius),
                ])
        bound_path = out / f"bounds_round_{rnd.round_index:02d}.json"
        payload = rnd.bound.to_dict(ids=ids)
        payload["round"] = rnd.round_index
        payload["partial"] = rnd.partial
        payload["metadata"] = _metadata(cfg, [config.seed])
        write_json(payload, bound_path)

    summary = {
        "rounds_completed": len(result.rounds),
        "selected_ids": [int(ids[i]) for i in result.selected],
        "exhausted": result.exhausted,
        "protocol": config.to_dict(),
        "metadata": _metadata(cfg, [config.seed]),
    }
    write_json(summary, out / "selection_summary.json")
    print(
        f"selected {len(result.selected)} points over {len(result.rounds)} rounds"
        + (" (pool exhausted)" if result.exhausted else "")
    )
    if result.exhausted:
        print("warning: candidate pool exhausted before the full budget", file=sys.stderr)
        return EXIT_WARNINGS
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = ExperimentConfig.load("evaluate", args.config)
    dataset = _load_dataset(cfg)
    selection_path = cfg.require("selection")
    ids = _load_selection_ids(selection_path)
    positions = _ids_to_positions(dataset, ids, selection_path)
    metric = args.metric or cfg.raw.get("metric", "euclidean")
    metric = canonical_metric(metric)
    bounds = _bound_params(cfg.section("bounds", _BOUNDS_KEYS, required=False), dataset)
    report = bound_report(dataset.points, positions, metric, bounds)
    learner = PluginLearner.fit(dataset, positions)
    loss = core_set_loss(dataset, positions, learner)
    payload = report.to_dict(ids=dataset.points.ids)
    payload["core_set_loss"] = loss
    payload["selection_file"] = str(selection_path)
    payload["metadata"] = _metadata(cfg, [])
    out = _out_dir(args)
    write_json(payload, out / "evaluation.json")
    print(
        f"delta={report.delta:.6g} max_radial={report.max_radial:.6g} "
        f"loss={loss:.6g}"
    )
    return EXIT_OK


def cmd_calibrate(args) -> int:
    cfg = ExperimentConfig.load("calibrate", args.config)
    dataset = _load_dataset(cfg)
    selection_path = cfg.require("selection")
    ids = _load_selection_ids(selection_path)
    positions = _ids_to_positions(dataset, ids, selection_path)
    metric = args.metric or cfg.raw.get("metric", "euclidean")
    estimator = cfg.require("estimator")
    estimate = estimator_from_config(estimator)
    densities = estimate(dataset.points)
    bins = int(cfg.raw.get("bins", 10))
    report = calibrate(dataset.points, densities, positions, metric, bins)
    payload = report.to_dict()
    payload["estimator"] = dict(estimator)
    payload["selection_file"] = str(selection_path)
    payload["metadata"] = _metadata(cfg, [])
    out = _out_dir(args)
    write_json(payload, out / "calibration.json")
    print(
        f"r_squared={report.r_squared:.4f} spearman={report.spearman:.4f} "
        f"degenerate={report.degenerate}"
    )
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = ExperimentConfig.load("compare", args.config)
    section = cfg.section("generator", _GENERATOR_KEYS)
    spec = _generator_spec(section, None)
    seeds = cfg.require("seeds")
    if not isinstance(seeds, list) or not seeds:
        raise ValidationError(f"{cfg.path}: 'seeds' must be a non-empty list")
    budget = int(cfg.require("budget"))
    rounds = int(cfg.raw.get("rounds", 1))
    metric = args.metric or cfg.raw.get("metric", "euclidean")
    estimator = cfg.raw.get("estimator")
    report = compare_algorithms(spec, budget, rounds, seeds, estimator, metric)
    payload = report.to_dict()
    payload["metadata"] = _metadata(cfg, list(report.seeds))
    out = _out_dir(args)
    write_json(payload, out / "comparison.json")
    with open(out / "comparison.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "algorithm", "delta", "max_radial", "loss", "runtime_ms"])
        for row in report.rows:
            writer.writerow([
                row["seed"], row["algorithm"], repr(row["delta"]),
                repr(row["max_radial"]), repr(row["loss"]),
                repr(row["runtime_ms"]),
            ])
    agg = report.aggregates
    for alg in ("k-center", "density-aware"):
        m = agg["mean"][alg]
        print(
            f"{alg}: mean delta={m['delta']:.6g} "
            f"mean max_radial={m['max_radial']:.6g} mean loss={m['loss']:.6g}"
        )
    wr = agg["density_aware_win_rate"]
    print(
        f"density-aware win rate: max_radial={wr['max_radial']:.2f} "
        f"loss={wr['loss']:.2f}"
    )
    return EXIT_OK


_COMMANDS = {
    "generate": cmd_generate,
    "select": cmd_select,
    "evaluate": cmd_evaluate,
    "calibrate": cmd_calibrate,
    "compare": cmd_compare,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="denscore",
        description="Density-aware core-set selection experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each command gets only the overrides it reads.
    for name, help_text, seed, metric in (
        ("generate", "draw a synthetic dataset and write it as CSV", True, False),
        ("select", "run the multi-round selection protocol on a dataset", True, True),
        ("evaluate", "bound report and core-set loss for a stored selection", False, True),
        ("calibrate", "regress coverage radii on inverse density", False, True),
        ("compare", "k-center vs density-aware over a seed list", False, True),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory "
                       f"(default ${OUTPUT_DIR_ENV} or '.')")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override config seed")
        if metric:
            p.add_argument(
                "--metric",
                choices=["euclidean", "squared", "squared-euclidean"],
                default=None,
                help="override distance metric",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # noqa: BLE001 - map any failure to exit code 2
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
