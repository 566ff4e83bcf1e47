"""One fresh benchmark process, started by run.py.

It imports the package from the checkout's ``src``, writes the workload's
inputs (together: set-up), then drives the real CLI (``cli.main``) through
the workload's command sequence until ``--seconds`` are used, checking the
outputs after every sequence.  With ``--trace 1`` every other sequence runs
with spans recorded around the package's public functions, so traced and
untraced times come from the same process and the same stretch of time.
With ``--trace 0`` it also starts SETUP_SAMPLES - 1 fresh copies of itself
with ``--setup-only``, spread over the window between sequences, so that
set-up is sampled in the same stretch of time as the sequences.  Such a copy
stops once set-up is done.  The result goes to ``--result`` as JSON.
"""

import argparse
import gc
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

# Fresh processes that set up per untraced run, this one included; setup_s
# is their median.
SETUP_SAMPLES = 9


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True, type=Path)
    p.add_argument("--work", required=True, type=Path)
    p.add_argument("--result", required=True, type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--t0", required=True, type=float,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def instrument(recorder) -> None:
    """Wrap the package's public functions where their callers look them up."""
    from denscore import cli, coverage, density, evaluation, selection

    def rows(args, kwargs, result):
        return {"rows": result.n}

    def field(args, kwargs, result):
        return {"points": result.n, "clamped": result.num_clamped}

    def greedy(args, kwargs, result):
        return {"picks": len(result.picks), "universe_points": args[0].n}

    def filtered(args, kwargs, result):
        candidates = kwargs.get("candidates", args[3] if len(args) > 3 else None)
        pool = args[0].n if candidates is None else len(candidates)
        return {"kept": len(result), "pool": pool}

    def cells(args, kwargs, result):
        return {"cells": result.n * result.selected.size}

    def predicted(args, kwargs, result):
        return {"cells": len(result) * args[0].fitted_indices.size}

    for owner, attr, name, count in (
        (cli, "main", "cli.main", None),
        (cli, "load_pointset", "data.load_pointset", rows),
        (cli, "run_rounds", "selection.run_rounds", None),
        (cli, "bound_report", "coverage.bound_report", None),
        (cli, "core_set_loss", "evaluation.core_set_loss", None),
        (selection, "filter_candidates", "selection.filter_candidates", filtered),
        (selection, "k_center_greedy", "selection.greedy", greedy),
        (selection, "density_aware_greedy", "selection.greedy", greedy),
        (selection, "bound_report", "coverage.bound_report", None),
        # the estimator closures look these up in density's namespace
        (density, "knn_density", "density.knn_density", field),
        (density, "kernel_density", "density.kernel_density", field),
        (coverage, "assign_coverage", "coverage.assign_coverage", cells),
        (coverage, "all_radial_distances", "coverage.all_radial_distances", None),
        (coverage, "classical_radius", "coverage.classical_radius", None),
        (evaluation.PluginLearner, "predict", "evaluation.predict", predicted),
    ):
        recorder.wrap(owner, attr, name, count)


def verify(workload, out: Path, data, codes, verified: dict) -> dict:
    """Check one command sequence; returns its quality figures or raises.

    Outputs identical to ones already verified (``verified`` holds their
    snapshot and figures) are not recomputed.
    """
    import checker

    if any(code != 0 for code in codes):
        raise checker.CheckError(f"exit codes {codes}")
    files = checker.snapshot(out)
    if verified.get("files") == files:
        return verified["found"]
    found = checker.check_select(
        out / "select", data.ids, data.features, workload.rounds, workload.budget
    )
    if workload.evaluate:
        found.update(checker.check_evaluate(
            out / "evaluate" / "evaluation.json",
            data.ids, data.features, data.labels, found["rounds"][-1],
        ))
    # a digest of every round's picked ids, so that changed picks show even
    # where the bounded quality figures hardly move
    picked = [int(data.ids[p]) for picks in found.pop("rounds") for p in picks]
    found["picks_sha256"] = hashlib.sha256(json.dumps(picked).encode()).hexdigest()
    verified.update(files=files, found=found)
    return found


def setup_sample(args, index: int) -> dict:
    """Start a fresh set-up-only copy of this process and return its result."""
    import run

    work = args.work / f"setup{index}"
    work.mkdir(exist_ok=True)
    return run.spawn("setup", work, args, ["--setup-only"], time.monotonic() + 60)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    began = time.monotonic()
    import denscore.cli
    import_s = time.monotonic() - began
    if not Path(denscore.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"denscore imported from {denscore.__file__}, not from {src}")

    import checker
    import inputs
    from spans import SpanRecorder
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    began = time.monotonic()
    data = inputs.draw(args.seed, workload.n, workload.scores)
    dataset = args.work / "dataset.csv"
    sha256 = inputs.write_csv(data, dataset)
    argvs = workload.commands(args.work, dataset, args.seed)
    ready = time.monotonic()
    result = {
        "setup_s": ready - args.t0,
        "import_s": import_s,
        "inputs_s": ready - began,
        "sha256": sha256,
    }
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    recorder = SpanRecorder()
    verified = {}
    iterations = []
    setups = []
    samples = 0 if args.trace else SETUP_SAMPLES - 1
    peak_rss_mb = None
    out = args.work / "out"
    start = time.perf_counter()
    while True:
        # set-up sample k is due once k/samples of the window has passed
        while (len(setups) < samples and time.perf_counter() - start
               >= len(setups) * args.seconds / samples):
            setups.append(setup_sample(args, len(setups)))
        began = time.perf_counter()
        traced = bool(args.trace) and len(iterations) % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        if traced:
            recorder.trace = len(iterations)
            instrument(recorder)
        t = time.perf_counter()
        codes = [denscore.cli.main(argv) for argv in argvs]
        wall = time.perf_counter() - t
        recorder.unwrap_all()
        if peak_rss_mb is None:
            # before the checker first runs, so its arrays never set the peak
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        entry = {"wall_s": wall, "traced": traced, "codes": codes, "error": None}
        try:
            entry.update(verify(workload, out, data, codes, verified))
        except (checker.CheckError, OSError, ValueError, KeyError, TypeError) as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
        iterations.append(entry)
        now = time.perf_counter()
        # stop when one more sequence would overrun the window
        enough = len(iterations) >= (2 if args.trace else 1)
        if enough and now - start + (now - began) > args.seconds:
            break

    while len(setups) < samples:
        setups.append(setup_sample(args, len(setups)))
    result["iterations"] = iterations
    result["setups"] = setups
    result["peak_rss_mb"] = peak_rss_mb
    if args.trace:
        result["spans"] = {str(k): v for k, v in recorder.totals().items()}
        recorder.dump(args.work / "spans.json")
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
