"""Config-driven command line interface.

Subcommands::

    denscore generate  --config cfg.json [--out DIR] [--seed N]
    denscore select    --config cfg.json [--out DIR] [--seed N]
    denscore evaluate  --config cfg.json [--out DIR]
    denscore calibrate --config cfg.json [--out DIR]
    denscore compare   --config cfg.json [--out DIR]

Configs are JSON with command-specific sections (unknown fields are
rejected); ``--seed`` overrides the config's seed, and a command rejects a
flag it does not read.  Every distance is Euclidean on the features as given
(see ``coverage``); no config key or flag chooses another.  The output
directory defaults to the DENSCORE_OUT environment variable, then to the
current directory.  All randomness flows from explicit seeds, so a rerun
with an identical config writes byte-identical data artifacts; the only
fields that differ are wall-clock metadata (``timestamp``, ``runtime_ms``).

Every JSON file is its report's fields (``BoundReport``,
``CalibrationReport``, ``ComparisonReport``; the summary's ``protocol`` is
the ``ProtocolConfig``) plus a ``metadata`` block, written by one converter,
``write_json``: NaN becomes null and +/-inf the strings "inf"/"-inf".  A
bound report's ``radial`` is keyed by dataset id, and ``comparison.json``'s
``dataset`` adds the generator's ``dim``.  A config section's keys are its
dataclass's fields.

``select`` runs the greedy algorithms and the seeded ``random`` baseline.
A protocol ``alpha`` filters each round's pool by the dataset CSV's
``score`` column, one scalar per point; any other algorithm name exits 1.

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
from dataclasses import fields, is_dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .coverage import BoundParams, BoundReport, assign_coverage, bound_report
from .data import (
    GeneratorSpec,
    LabeledPointSet,
    ValidationError,
    config_value,
    generate,
    load_pointset,
    save_pointset,
    write_csv,
)
from .density import calibrate, estimator_from_config
from .evaluation import compare_algorithms, core_set_loss
from .selection import ProtocolConfig, run_rounds

__all__ = ["main", "ExperimentConfig"]

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RUNTIME = 2
EXIT_WARNINGS = 3

OUTPUT_DIR_ENV = "DENSCORE_OUT"

# a config section's keys are its dataclass's fields; the protocol's
# estimator is a section of its own
_GENERATOR_KEYS = {f.name for f in fields(GeneratorSpec)}
_PROTOCOL_KEYS = {f.name for f in fields(ProtocolConfig)} - {"estimator"}
_BOUNDS_KEYS = {f.name for f in fields(BoundParams)}

_COMMAND_KEYS = {
    "generate": {"generator", "output"},
    "select": {"dataset", "protocol", "estimator", "bounds"},
    "evaluate": {"dataset", "selection", "bounds"},
    "calibrate": {"dataset", "selection", "estimator", "bins"},
    "compare": {"generator", "budget", "rounds", "seeds", "estimator"},
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


def _fields(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _to_json(value):
    """The JSON form of an output value: a dataclass is the mapping of its
    fields, a tuple or array a list, a numpy scalar a Python number; NaN
    becomes null and +/-inf the strings "inf"/"-inf"."""
    if is_dataclass(value):
        value = _fields(value)
    if isinstance(value, dict):
        return {k: _to_json(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_to_json(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None if math.isnan(value) else ("inf" if value > 0 else "-inf")
    return value


def write_json(payload, path: Path) -> None:
    text = json.dumps(_to_json(payload), indent=2, sort_keys=True)
    path.write_text(text + "\n")


def _bound_fields(report: BoundReport, ids: np.ndarray) -> dict:
    """A bound report's fields with its radial means keyed by dataset id."""
    radial = {str(int(ids[k])): v for k, v in report.radial.items()}
    return {**_fields(report), "radial": radial}


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
    for key in ("seed", "kind"):
        if key not in params:
            raise ValidationError(f"generator.{key} is required")
    return GeneratorSpec(**params)


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
    positions = {}
    for v in ids:
        if v not in lookup:
            raise ValidationError(
                f"{source}: id {v} does not occur in the dataset (mismatched files?)"
            )
        if v in positions:
            raise ValidationError(f"{source}: id {v} is listed more than once")
        positions[v] = lookup[v]
    return list(positions.values())


def _selection_coverage(cfg: ExperimentConfig) -> tuple:
    """The config's dataset, its selection file, and the coverage
    assignment of the ids that file lists."""
    dataset = _load_dataset(cfg)
    path = cfg.require("selection")
    positions = _ids_to_positions(dataset, _load_selection_ids(path), path)
    return dataset, path, assign_coverage(dataset.points, positions)


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
    config = ProtocolConfig(estimator=cfg.raw.get("estimator"), **protocol_section)
    # config.initial holds dataset ids, as the summary records them; the
    # protocol takes row positions
    initial = _ids_to_positions(
        dataset, config.initial, f"{cfg.path}: protocol.initial"
    )
    bounds = _bound_params(cfg.section("bounds", _BOUNDS_KEYS, required=False), dataset)
    result = run_rounds(dataset, replace(config, initial=initial), bound_params=bounds)

    out = _out_dir(args)
    ids = dataset.points.ids
    for rnd in result.rounds:
        picks = enumerate(zip(rnd.picks, rnd.pick_radii), start=1)
        write_csv(out / f"selection_round_{rnd.round_index:02d}.csv",
                  ["round", "order", "id", "radius_at_pick"],
                  ([rnd.round_index, order, int(ids[pick]), radius]
                   for order, (pick, radius) in picks))
        bound_path = out / f"bounds_round_{rnd.round_index:02d}.json"
        write_json({
            **_bound_fields(rnd.bound, ids),
            "round": rnd.round_index,
            "partial": rnd.partial,
            "metadata": _metadata(cfg, [config.seed]),
        }, bound_path)

    summary = {
        "rounds_completed": len(result.rounds),
        "selected_ids": [int(ids[i]) for i in result.selected],
        "exhausted": result.exhausted,
        "protocol": config,
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
    section = cfg.section("bounds", _BOUNDS_KEYS, required=False)
    dataset, selection_path, cov = _selection_coverage(cfg)
    report = bound_report(cov, _bound_params(section, dataset))
    loss = core_set_loss(dataset, cov)
    out = _out_dir(args)
    write_json({
        **_bound_fields(report, dataset.points.ids),
        "core_set_loss": loss,
        "selection_file": str(selection_path),
        "metadata": _metadata(cfg, []),
    }, out / "evaluation.json")
    print(
        f"delta={report.delta:.6g} max_radial={report.max_radial:.6g} "
        f"loss={loss:.6g}"
    )
    return EXIT_OK


def cmd_calibrate(args) -> int:
    cfg = ExperimentConfig.load("calibrate", args.config)
    estimator = cfg.require("estimator")
    estimate = estimator_from_config(estimator)
    bins = config_value(cfg.raw.get("bins", 10), int, "bins")
    dataset, selection_path, cov = _selection_coverage(cfg)
    report = calibrate(estimate(dataset.points), cov, bins)
    out = _out_dir(args)
    write_json({
        **_fields(report),
        "estimator": estimator,
        "selection_file": str(selection_path),
        "metadata": _metadata(cfg, []),
    }, out / "calibration.json")
    print(
        f"r_squared={report.r_squared:.4f} spearman={report.spearman:.4f} "
        f"degenerate={report.degenerate}"
    )
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = ExperimentConfig.load("compare", args.config)
    section = cfg.section("generator", _GENERATOR_KEYS)
    spec = _generator_spec(section, None)
    report = compare_algorithms(
        spec, cfg.require("budget"), cfg.raw.get("rounds", 1), cfg.require("seeds"),
        cfg.raw.get("estimator"),
    )
    out = _out_dir(args)
    write_json({
        **_fields(report),
        # the generator's derived dimension is echoed with its fields
        "dataset": {**_fields(report.dataset), "dim": report.dataset.dim},
        "metadata": _metadata(cfg, list(report.seeds)),
    }, out / "comparison.json")
    columns = ["seed", "algorithm", "delta", "max_radial", "loss", "runtime_ms"]
    write_csv(out / "comparison.csv", columns,
              ([row[c] for c in columns] for row in report.rows))
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
    for name, help_text, seed in (
        ("generate", "draw a synthetic dataset and write it as CSV", True),
        ("select", "run the multi-round selection protocol on a dataset", True),
        ("evaluate", "bound report and core-set loss for a stored selection", False),
        ("calibrate", "regress coverage radii on inverse density", False),
        ("compare", "k-center vs density-aware over a seed list", False),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory "
                       f"(default ${OUTPUT_DIR_ENV} or '.')")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override config seed")
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
