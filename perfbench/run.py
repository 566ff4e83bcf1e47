"""End-to-end benchmark of the denscore CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn.  Each run starts a fresh
process (worker.py) that imports the package from this checkout's ``src``
and writes the seeded inputs, then drives ``cli.main`` through the
workload's command sequence for ``--seconds`` and checks every output with a
brute-force recomputation that does not use the package.  In an untraced
run that process also samples set-up in fresh processes of its own, spread
over the window.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from spans recorded around the
package's public functions, plus the tracing overhead.  Every metric is
printed by name with its unit, and the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``, where
``attempted`` counts command sequences and ``failed`` those with a nonzero
exit code or a failed output check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

RUN_DEADLINE_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_delta": "distance",
    "final_mean_radial": "distance",
}

# Per span name: the fields reported.  Leaf spans have no self_s, because
# their self time equals their total.  Spans that some workload never calls
# report their share of the traced sequence instead of seconds, so that no
# time reads a constant 0 on every run of that workload.
SPAN_FIELDS = {
    "cli.main": ("s", "self_s", "calls"),
    "data.load_pointset": ("s", "calls", "rows"),
    "selection.run_rounds": ("s", "self_s", "calls"),
    "selection.filter_candidates": ("share", "calls", "kept", "pool"),
    "selection.greedy": ("s", "calls", "picks", "universe_points"),
    "coverage.bound_report": ("s", "self_s", "calls"),
    "coverage.assign_coverage": ("s", "calls", "cells"),
    "coverage.all_radial_distances": ("s", "calls"),
    "coverage.classical_radius": ("s", "calls"),
    "density.knn_density": ("share", "calls", "points"),
    "density.kernel_density": ("share", "calls", "points"),
    "evaluation.core_set_loss": ("share", "calls"),
    "evaluation.predict": ("share", "calls", "cells"),
}
# Layers every workload runs report self seconds; all report their share.
TIMED_LAYERS = ("cli", "data", "selection", "coverage")
LAYERS = (*TIMED_LAYERS, "density", "evaluation")
UNITS = {"s": "s", "self_s": "s", "share": "fraction"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for span, fields in SPAN_FIELDS.items():
        for f in fields:
            units[f"{span}.{f}"] = UNITS.get(f, "count")
    units["density.num_clamped"] = "count"
    units["density.clamped_ratio"] = "fraction"
    for layer in TIMED_LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
    for layer in LAYERS:
        units[f"layer.{layer}.share"] = "fraction"
    for name in ("setup.import_s", "setup.inputs_s", "trace.wall_s",
                 "trace.untraced_wall_s", "trace.overhead_s"):
        units[name] = "s"
    return units


class RunFailed(Exception):
    pass


def thread_env() -> dict[str, str]:
    """Environment for workers: package on the path, BLAS/OpenMP at nproc."""
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = nproc
    return env


def spawn(tag: str, work: Path, args, extra: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process and return its result."""
    result = work / f"{tag}.json"
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--work", str(work),
        "--result", str(result), "--workload", args.workload, "--seed", str(args.seed),
        "--t0", repr(t0), *extra,
    ]
    with open(work / f"{tag}.log", "w") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=thread_env(), cwd=ROOT)
        try:
            proc.wait(timeout=max(1.0, deadline - t0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RunFailed(f"{tag} did not finish in time") from None
    if proc.returncode != 0:
        raise RunFailed(f"{tag} exited with {proc.returncode}; see {log.name}")
    return json.loads(result.read_text())


def median_over(traces: list[dict], value) -> float:
    return statistics.median(value(t) for t in traces)


def layer_metrics(run: dict) -> dict[str, float]:
    iterations = run["iterations"]
    traced = [it for it in iterations if it["traced"]]
    # the first sequence of a process pays one-time costs and is never traced
    untraced = [it for it in iterations[1:] if not it["traced"]] or iterations[:1]
    traces = [
        dict(run["spans"].get(str(i), {}), wall_s=it["wall_s"])
        for i, it in enumerate(iterations) if it["traced"]
    ]

    def get(t, span, f):
        if f == "share":
            return get(t, span, "s") / t["wall_s"]
        return t.get(span, {}).get(f, 0)

    metrics = {}
    for span, fields in SPAN_FIELDS.items():
        for f in fields:
            metrics[f"{span}.{f}"] = median_over(traces, lambda t: get(t, span, f))
    density = ("density.knn_density", "density.kernel_density")
    metrics["density.num_clamped"] = median_over(
        traces, lambda t: sum(get(t, s, "clamped") for s in density))
    metrics["density.clamped_ratio"] = median_over(
        traces, lambda t: sum(get(t, s, "clamped") for s in density)
        / max(1, sum(get(t, s, "points") for s in density)))
    for layer in LAYERS:
        def self_s(t, layer=layer):
            return sum(v["self_s"] for k, v in t.items()
                       if k.split(".")[0] == layer)
        if layer in TIMED_LAYERS:
            metrics[f"layer.{layer}.self_s"] = median_over(traces, self_s)
        metrics[f"layer.{layer}.share"] = median_over(traces, lambda t: self_s(t) / t["wall_s"])
    metrics["setup.import_s"] = run["import_s"]
    metrics["setup.inputs_s"] = run["inputs_s"]
    metrics["trace.wall_s"] = statistics.median(it["wall_s"] for it in traced)
    metrics["trace.untraced_wall_s"] = statistics.median(it["wall_s"] for it in untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    return metrics


def run_workload(args) -> dict:
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = spawn("measure", work, args,
                ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    setups = [run, *run["setups"]]

    iterations = run["iterations"]
    failures = [it["error"] for it in iterations if it["error"]]
    checked = [it for it in iterations if not it["error"]]
    hashes = {s["sha256"] for s in setups}
    correct = not failures and len(hashes) == 1
    if len(hashes) != 1:
        failures.append(f"inputs differ between set-ups: {sorted(hashes)}")

    walls = [it["wall_s"] for it in iterations if not it["traced"]]
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"  inputs: n={workload.n} sha256={run['sha256']}")
    if args.trace:
        metrics = layer_metrics(run)
        units = per_layer_units()
    else:
        last = checked[-1] if checked else {}
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": run["peak_rss_mb"],
            "final_delta": last.get("final_delta"),
            "final_mean_radial": last.get("final_mean_radial"),
        }
        units = END_TO_END
        print(f"  wall_s is the median of {len(walls)} sequences, too few for a higher percentile")
        print(f"  setup_s is the median of {len(setups)} fresh processes")
        for name in ("final_max_radial", "core_set_loss"):
            if name in last:
                print(f"  {name}: {last[name]!r} (checked, not a bounded metric)")
        if "picks_sha256" in last:
            print(f"  picks_sha256: {last['picks_sha256']} (every round's picked ids; "
                  "differs between commits if the picks do)")
    for name, value in metrics.items():
        print(f"  {name:36s} {value!r} {units[name]}")
    print(f"  {'error_rate':36s} {len(failures) / max(1, len(iterations))!r} fraction "
          f"({len(failures)} of {len(iterations)} sequences)")
    for message in failures:
        print(f"  FAILED: {message}")
    return {
        "correct": correct,
        "attempted": len(iterations),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 < args.seconds <= 60:
        p.error("--seconds must lie in (0, 60]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "denscore" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'denscore'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        args.workload = name
        try:
            results[name] = run_workload(args)
        except RunFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
