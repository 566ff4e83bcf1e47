"""Config-driven command line interface.

Each subcommand (``denscore --help`` lists them) is declared once, as a row
of ``_COMMANDS``: its handler, its config's top-level fields, its help text,
and whether it takes ``--seed N``; every one takes ``--config cfg.json`` and
``--out DIR``.  `main` loads and checks the config before the handler runs.

Configs are UTF-8 JSON with command-specific sections (unknown fields are
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
``evaluate`` and ``calibrate`` read a selection CSV's ``id`` column with
the dataset's reader, `data.read_table`: an id is whatever numpy's int64
parse takes, and the first line whose id is malformed, repeated or not in
the dataset is named, as a bad dataset line is.

Exit codes: 0 success, 1 invalid config or input (a config, dataset or
selection file that is missing, not UTF-8, or malformed), 2 runtime
failure, 3 success with warnings (e.g. a selection round ran out of
candidates).
"""

from __future__ import annotations

import argparse
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
    _count,
    _first_repeat,
    _id_positions,
    generate,
    load_pointset,
    open_text,
    read_table,
    save_pointset,
    write_csv,
)
from .density import calibrate, estimator_from_config
from .evaluation import compare_algorithms, core_set_loss
from .selection import GREEDY_ALGORITHMS, ProtocolConfig, run_rounds

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


class ExperimentConfig:
    """Validated view of a command config file.

    Holds the raw mapping, its canonical sha256 hash, and the source path.
    Section accessors validate field names eagerly so that typos fail before
    any computation starts.
    """

    def __init__(self, command: str, raw: dict, path: str):
        if not isinstance(raw, dict):
            raise ValidationError(f"{path}: config root must be a JSON object")
        _, allowed, _, _ = _COMMANDS[command]
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
            with open_text(p) as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}") from None
        return cls(command, raw, path)

    def require(self, key: str):
        if key not in self.raw:
            raise ValidationError(f"{self.path}: missing required field {key!r}")
        return self.raw[key]

    def section(self, key: str, allowed: set, required: bool = True) -> dict | None:
        if key not in self.raw and not required:
            return None
        value = self.require(key)
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
    with open_text(path, "w") as fh:
        fh.write(text + "\n")


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
    return BoundParams(**{"num_classes": dataset.num_classes, **(section or {})})


def _load_dataset(cfg: ExperimentConfig) -> LabeledPointSet:
    path = cfg.require("dataset")
    if not Path(path).is_file():
        raise ValidationError(f"{cfg.path}: dataset file not found: {path}")
    return load_pointset(path)


def _ids_to_positions(dataset: LabeledPointSet, ids) -> list[int]:
    """The row positions of the dataset ids ``ids``, in their order; the
    first id, in that order, that the dataset lacks or that an earlier
    entry lists raises a ValidationError naming it."""
    try:
        query = np.array(ids, dtype=np.int64)
        outside = np.zeros(query.size, dtype=bool)
    except OverflowError:  # an id outside int64 is in no dataset
        outside = np.array([not -(2**63) <= v < 2**63 for v in ids])
        query = np.where(outside, 0, np.array(ids, dtype=object)).astype(np.int64)
    at, missing = _id_positions(dataset.points.ids, query)
    missing |= outside
    first = int(np.argmax(missing)) if missing.any() else len(ids)
    repeat = _first_repeat(query)
    if repeat is not None and repeat < first:
        raise ValidationError(f"id {ids[repeat]} is listed more than once")
    if first < len(ids):
        raise ValidationError(
            f"id {ids[first]} does not occur in the dataset (mismatched files?)"
        )
    return at.tolist()


def _id_column(header: list[str], path) -> tuple[np.dtype, list[int]]:
    """The `read_table` schema of a selection file: its ``id`` column
    alone, as int64; other columns are not read."""
    if "id" not in header:
        raise ValidationError(f"{path}: line 1: no 'id' column")
    return np.dtype(np.int64), [header.index("id")]


def _selection_coverage(cfg: ExperimentConfig) -> tuple:
    """The config's dataset, its selection file, and the coverage
    assignment of the ids that file lists; a bad, repeated or unknown id
    is named by its line, as a bad dataset line is."""
    dataset = _load_dataset(cfg)
    path = cfg.require("selection")
    if not Path(path).is_file():
        raise ValidationError(f"selection file not found: {path}")
    positions = read_table(path, _id_column, lambda ids: _ids_to_positions(dataset, ids))
    return dataset, path, assign_coverage(dataset.points, positions)


def cmd_generate(args, cfg: ExperimentConfig) -> int:
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


def cmd_select(args, cfg: ExperimentConfig) -> int:
    dataset = _load_dataset(cfg)
    protocol_section = dict(cfg.section("protocol", _PROTOCOL_KEYS))
    if args.seed is not None:
        protocol_section["seed"] = args.seed
    config = ProtocolConfig(estimator=cfg.raw.get("estimator"), **protocol_section)
    # config.initial holds dataset ids, as the summary records them; the
    # protocol takes row positions
    try:
        initial = _ids_to_positions(dataset, config.initial)
    except ValidationError as exc:
        raise ValidationError(f"{cfg.path}: protocol.initial: {exc}") from None
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


def cmd_evaluate(args, cfg: ExperimentConfig) -> int:
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


def cmd_calibrate(args, cfg: ExperimentConfig) -> int:
    estimator = cfg.require("estimator")
    estimate = estimator_from_config(estimator)
    bins = _count(cfg.raw.get("bins", 10), "bins")
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


def cmd_compare(args, cfg: ExperimentConfig) -> int:
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
    for alg in GREEDY_ALGORITHMS:
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


# one row per subcommand: (handler, the config's top-level fields, help
# text, takes --seed); a command gets only the overrides it reads
_COMMANDS = {
    "generate": (cmd_generate, {"generator", "output"},
                 "draw a synthetic dataset and write it as CSV", True),
    "select": (cmd_select, {"dataset", "protocol", "estimator", "bounds"},
               "run the multi-round selection protocol on a dataset", True),
    "evaluate": (cmd_evaluate, {"dataset", "selection", "bounds"},
                 "bound report and core-set loss for a stored selection", False),
    "calibrate": (cmd_calibrate, {"dataset", "selection", "estimator", "bins"},
                  "regress coverage radii on inverse density", False),
    "compare": (cmd_compare, {"generator", "budget", "rounds", "seeds", "estimator"},
                "k-center vs density-aware over a seed list", False),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="denscore",
        description="Density-aware core-set selection experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text, seed) in _COMMANDS.items():
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
        handler, _, _, _ = _COMMANDS[args.command]
        return handler(args, ExperimentConfig.load(args.command, args.config))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # noqa: BLE001 - map any failure to exit code 2
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
