"""End-to-end tests for the denscore command line interface.

Every test drives ``denscore.cli.main`` in-process with a temp directory for
outputs, so assertions can read the artifacts straight back.  Determinism
tests compare bytes after stripping the wall-clock metadata fields.
"""

import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass

import numpy as np
import pytest

import denscore
from denscore import LabeledPointSet, PointSet, load_pointset, save_pointset
from denscore.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_WARNINGS,
    main,
    write_json,
)

MIXTURE_GENERATOR = {
    "kind": "gaussian-mixture",
    "seed": 11,
    "means": [[0.0, 0.0], [4.0, 0.0]],
    "sigmas": [0.5, 0.5],
    "counts": [30, 30],
}


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def run_generate(tmp_path, name="dataset.csv", seed_flag=None):
    cfg = write_config(tmp_path / "gen.json", {
        "generator": MIXTURE_GENERATOR,
        "output": name,
    })
    argv = ["generate", "--config", cfg, "--out", str(tmp_path)]
    if seed_flag is not None:
        argv += ["--seed", str(seed_flag)]
    assert main(argv) == EXIT_OK
    return tmp_path / name


# as the value given to `run_with`, deletes the field
MISSING = object()


def run_with(tmp_path, command, path, value):
    """Exit code of ``command`` on a valid config with the dotted ``path``
    set to ``value``, or removed if ``value`` is MISSING."""
    dataset = str(run_generate(tmp_path))
    payload = {
        "select": {
            "dataset": dataset,
            "protocol": {"budget": 4, "rounds": 1, "algorithm": "k-center"},
            "estimator": {"kind": "knn", "k_neighbors": 5},
            "bounds": {"confidence": 0.05},
        },
        # the dataset file has an id column, so it selects every point
        "evaluate": {"dataset": dataset, "selection": dataset},
        "calibrate": {
            "dataset": dataset, "selection": dataset,
            "estimator": {"kind": "knn", "k_neighbors": 5},
        },
        "compare": {"generator": dict(MIXTURE_GENERATOR), "budget": 5, "seeds": [1]},
        "generate": {"generator": dict(MIXTURE_GENERATOR)},
    }[command]
    *sections, field = path.split(".")
    target = payload
    for key in sections:
        target = target[key]
    if value is MISSING:
        del target[field]
    else:
        target[field] = value
    cfg = write_config(tmp_path / "cfg.json", payload)
    return main([command, "--config", cfg, "--out", str(tmp_path)])


def spaced_dataset(tmp_path):
    """The generated dataset with ids 1000 + 7 * row, so that no id is a row
    position."""
    plain = load_pointset(run_generate(tmp_path))
    target = tmp_path / "spaced.csv"
    ids = 1000 + 7 * np.arange(plain.n)
    save_pointset(LabeledPointSet(
        PointSet(plain.points.features, ids), plain.labels, plain.num_classes,
    ), target)
    return target


def strip_volatile(text):
    """Remove wall-clock fields so reruns can be compared byte for byte."""
    text = re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', text)
    text = re.sub(r'"runtime_ms": [0-9.eE+-]+', '"runtime_ms": 0', text)
    return text


class TestGenerate:
    def test_writes_dataset_and_reports_counts(self, tmp_path, capsys):
        target = run_generate(tmp_path)
        out = capsys.readouterr().out
        assert target.is_file()
        assert "n=60 dim=2 classes=2" in out
        assert "1:30, 2:30" in out

    def test_rerun_byte_identical(self, tmp_path):
        first = run_generate(tmp_path, "a.csv").read_bytes()
        second = run_generate(tmp_path, "b.csv").read_bytes()
        assert first == second

    def test_seed_flag_changes_data(self, tmp_path):
        base = run_generate(tmp_path, "a.csv").read_bytes()
        other = run_generate(tmp_path, "b.csv", seed_flag=12).read_bytes()
        assert base != other

    def test_unknown_top_level_field_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "gen.json", {
            "generator": MIXTURE_GENERATOR,
            "output": "x.csv",
            "extra_knob": 1,
        })
        assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_INVALID
        assert "extra_knob" in capsys.readouterr().err

    def test_unknown_generator_field_rejected(self, tmp_path, capsys):
        generator = dict(MIXTURE_GENERATOR, sigma="oops")
        cfg = write_config(tmp_path / "gen.json", {"generator": generator})
        assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_INVALID
        assert "sigma" in capsys.readouterr().err

    def test_dim_is_not_a_generator_field(self, tmp_path, capsys):
        # the dimension is the length of the means, never configured
        generator = dict(MIXTURE_GENERATOR, dim=2)
        cfg = write_config(tmp_path / "gen.json", {"generator": generator})
        assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_INVALID
        assert "'dim'" in capsys.readouterr().err

    def test_invalid_json_reports_config_error(self, tmp_path, capsys):
        bad = tmp_path / "gen.json"
        bad.write_text("{not json")
        assert main(["generate", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_INVALID
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("root", [[], 5, "generator", None])
    def test_config_root_must_be_an_object(self, tmp_path, capsys, root):
        cfg = write_config(tmp_path / "gen.json", root)
        assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_INVALID
        assert f"{cfg}: config root must be a JSON object" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["generate", "--config", missing, "--out", str(tmp_path)]) == EXIT_INVALID
        assert f"config file not found: {missing}" in capsys.readouterr().err

    def test_env_var_supplies_output_dir(self, tmp_path, monkeypatch):
        outdir = tmp_path / "from_env"
        monkeypatch.setenv("DENSCORE_OUT", str(outdir))
        cfg = write_config(tmp_path / "gen.json", {
            "generator": MIXTURE_GENERATOR,
            "output": "d.csv",
        })
        assert main(["generate", "--config", cfg]) == EXIT_OK
        assert (outdir / "d.csv").is_file()

    def test_out_flag_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DENSCORE_OUT", str(tmp_path / "ignored"))
        explicit = tmp_path / "explicit"
        cfg = write_config(tmp_path / "gen.json", {
            "generator": MIXTURE_GENERATOR,
            "output": "d.csv",
        })
        assert main(["generate", "--config", cfg, "--out", str(explicit)]) == EXIT_OK
        assert (explicit / "d.csv").is_file()
        assert not (tmp_path / "ignored" / "d.csv").exists()


class TestSelect:
    def select_config(self, tmp_path, dataset, **overrides):
        payload = {
            "dataset": str(dataset),
            "protocol": dict({
                "budget": 4,
                "rounds": 2,
                "algorithm": "k-center",
                "seed": 3,
            }, **overrides.pop("protocol", {})),
        }
        payload.update(overrides)
        return write_config(tmp_path / "select.json", payload)

    def test_writes_per_round_artifacts(self, tmp_path, capsys):
        dataset = run_generate(tmp_path)
        capsys.readouterr()
        cfg = self.select_config(tmp_path, dataset)
        assert main(["select", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        assert "selected 8 points over 2 rounds" in capsys.readouterr().out
        for rnd in (1, 2):
            sel = tmp_path / f"selection_round_{rnd:02d}.csv"
            bounds = tmp_path / f"bounds_round_{rnd:02d}.json"
            assert sel.is_file() and bounds.is_file()
            header = sel.read_text().splitlines()[0]
            assert header == "round,order,id,radius_at_pick"
        summary = json.loads((tmp_path / "selection_summary.json").read_text())
        assert summary["rounds_completed"] == 2
        assert len(summary["selected_ids"]) == 8
        assert summary["exhausted"] is False

    def test_selected_ids_are_dataset_ids(self, tmp_path):
        dataset = run_generate(tmp_path)
        cfg = self.select_config(tmp_path, dataset)
        main(["select", "--config", cfg, "--out", str(tmp_path)])
        summary = json.loads((tmp_path / "selection_summary.json").read_text())
        rows = (tmp_path / "selection_round_01.csv").read_text().splitlines()[1:]
        csv_ids = [int(r.split(",")[2]) for r in rows]
        assert csv_ids == summary["selected_ids"][:4]

    def test_radius_at_pick_spells_inf_and_nan(self, tmp_path):
        # with no initial set the first pick is at radius inf; a random pick
        # has no radius (nan)
        dataset = run_generate(tmp_path)
        radii = {}
        for algorithm in ("k-center", "random"):
            out = tmp_path / algorithm
            cfg = self.select_config(tmp_path, dataset, protocol={"algorithm": algorithm})
            assert main(["select", "--config", cfg, "--out", str(out)]) == EXIT_OK
            radii[algorithm] = []
            for rnd in (1, 2):
                lines = (out / f"selection_round_0{rnd}.csv").read_text().splitlines()
                radii[algorithm] += [line.split(",")[3] for line in lines[1:]]
        first, *rest = radii["k-center"]
        assert first == "inf"
        assert rest and all(0.0 < float(r) < float("inf") for r in rest)
        assert radii["random"] == ["nan"] * 8

    def test_rerun_identical_modulo_timestamps(self, tmp_path):
        dataset = run_generate(tmp_path)
        cfg = self.select_config(tmp_path, dataset)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["select", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["select", "--config", cfg, "--out", str(out2)]) == EXIT_OK
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            a = strip_volatile((out1 / name).read_text())
            b = strip_volatile((out2 / name).read_text())
            assert a == b, name

    def test_exhausted_pool_exits_with_warning(self, tmp_path, capsys):
        dataset = run_generate(tmp_path)
        cfg = self.select_config(
            tmp_path, dataset, protocol={"budget": 50, "rounds": 2}
        )
        assert main(["select", "--config", cfg, "--out", str(tmp_path)]) == EXIT_WARNINGS
        assert "exhausted" in capsys.readouterr().err

    def test_density_aware_requires_estimator_section(self, tmp_path, capsys):
        dataset = run_generate(tmp_path)
        cfg = self.select_config(
            tmp_path, dataset, protocol={"algorithm": "density-aware"}
        )
        assert main(["select", "--config", cfg, "--out", str(tmp_path)]) == EXIT_INVALID
        assert "estimator" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", ["entropy", "sconf", "margin"])
    def test_probability_baselines_are_unknown_algorithms(
        self, tmp_path, capsys, algorithm
    ):
        # scores are one scalar per point; no algorithm reads probabilities
        assert run_with(tmp_path, "select", "protocol.algorithm", algorithm) == EXIT_INVALID
        assert f"unknown algorithm {algorithm!r}" in capsys.readouterr().err

    def test_knn_density_on_one_point_needs_two(self, tmp_path, capsys):
        # the estimator, not the k it clamps to n - 1 = 0, names the problem
        dataset = tmp_path / "one.csv"
        save_pointset(LabeledPointSet(
            PointSet.from_features(np.zeros((1, 2))), [1], num_classes=1,
        ), dataset)
        cfg = self.select_config(
            tmp_path, dataset, estimator={"kind": "knn", "k_neighbors": 5},
            protocol={"budget": 1, "rounds": 1, "algorithm": "density-aware"},
        )
        assert main(["select", "--config", cfg, "--out", str(tmp_path)]) == EXIT_INVALID
        assert "kNN density needs at least two points" in capsys.readouterr().err

    @pytest.mark.parametrize("bandwidth, code", [
        (1e300, EXIT_INVALID),    # bandwidth**2 overflows
        (1.5e154, EXIT_INVALID),  # so does 2 * bandwidth**2
        (1e-6, EXIT_INVALID),     # every term between distinct points underflows
        (1e-160, EXIT_INVALID),   # sq / (2 * bandwidth**2) overflows: every term is 0
        (1e-170, EXIT_INVALID),   # 2 * bandwidth**2 underflows to 0
        (1.0, EXIT_OK),
    ])
    def test_kernel_bandwidth_extremes_name_the_bandwidth(
        self, tmp_path, capsys, bandwidth, code
    ):
        dataset = run_generate(tmp_path)
        cfg = self.select_config(
            tmp_path, dataset,
            protocol={"algorithm": "density-aware"},
            estimator={"kind": "kernel", "bandwidth": bandwidth},
        )
        assert main(["select", "--config", cfg, "--out", str(tmp_path)]) == code
        err = capsys.readouterr().err
        assert ("bandwidth" in err) == (code == EXIT_INVALID), err

    def test_density_aware_with_estimator_runs(self, tmp_path):
        dataset = run_generate(tmp_path)
        cfg = self.select_config(
            tmp_path, dataset,
            protocol={"algorithm": "density-aware"},
            estimator={"kind": "knn", "k_neighbors": 5},
        )
        assert main(["select", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        bounds = json.loads((tmp_path / "bounds_round_02.json").read_text())
        assert bounds["tight_bound_value"] <= bounds["classical_bound_value"]

    def test_missing_dataset_file(self, tmp_path, capsys):
        absent = tmp_path / "absent.csv"
        cfg = self.select_config(tmp_path, absent)
        assert main(["select", "--config", cfg, "--out", str(tmp_path)]) == EXIT_INVALID
        assert f"{cfg}: dataset file not found: {absent}" in capsys.readouterr().err

    def test_seed_flag_overrides_protocol_seed(self, tmp_path):
        dataset = run_generate(tmp_path)
        cfg = self.select_config(
            tmp_path, dataset,
            protocol={"algorithm": "random", "budget": 5, "rounds": 1},
        )
        main(["select", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "1"])
        main(["select", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "2"])
        a = json.loads((tmp_path / "a" / "selection_summary.json").read_text())
        b = json.loads((tmp_path / "b" / "selection_summary.json").read_text())
        assert a["selected_ids"] != b["selected_ids"]
        assert a["protocol"]["seed"] == 1
        assert b["protocol"]["seed"] == 2

    def test_initial_lists_dataset_ids(self, tmp_path):
        cfg = self.select_config(
            tmp_path, spaced_dataset(tmp_path), protocol={"initial": [1007]}
        )
        assert main(["select", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        summary = json.loads((tmp_path / "selection_summary.json").read_text())
        assert summary["selected_ids"][0] == 1007
        assert summary["protocol"]["initial"] == [1007]

    def test_initial_id_missing_from_dataset_rejected(self, tmp_path, capsys):
        cfg = self.select_config(
            tmp_path, spaced_dataset(tmp_path), protocol={"initial": [5]}
        )
        assert main(["select", "--config", cfg, "--out", str(tmp_path)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "protocol.initial" in err and "id 5 does not occur" in err

    def test_repeated_initial_id_names_the_id(self, tmp_path, capsys):
        cfg = self.select_config(
            tmp_path, spaced_dataset(tmp_path),
            protocol={"initial": [1007, 1014, 1007]},
        )
        assert main(["select", "--config", cfg, "--out", str(tmp_path)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert f"{cfg}: protocol.initial: id 1007 is listed more than once" in err


class TestEvaluate:
    def prepare(self, tmp_path):
        dataset = run_generate(tmp_path)
        cfg = write_config(tmp_path / "select.json", {
            "dataset": str(dataset),
            "protocol": {"budget": 6, "rounds": 1, "algorithm": "k-center", "seed": 0},
        })
        main(["select", "--config", cfg, "--out", str(tmp_path)])
        return dataset, tmp_path / "selection_round_01.csv"

    def test_report_fields_and_stdout(self, tmp_path, capsys):
        dataset, selection = self.prepare(tmp_path)
        capsys.readouterr()
        cfg = write_config(tmp_path / "eval.json", {
            "dataset": str(dataset),
            "selection": str(selection),
        })
        assert main(["evaluate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "delta=" in out and "loss=" in out
        payload = json.loads((tmp_path / "evaluation.json").read_text())
        assert payload["tight_bound_value"] <= payload["classical_bound_value"]
        assert 0.0 <= payload["core_set_loss"] <= 1.0
        assert payload["selection_file"] == str(selection)

    def test_selection_ids_must_exist_in_dataset(self, tmp_path, capsys):
        dataset, _ = self.prepare(tmp_path)
        rogue = tmp_path / "rogue.csv"
        rogue.write_text("id\n999999\n")
        cfg = write_config(tmp_path / "eval.json", {
            "dataset": str(dataset),
            "selection": str(rogue),
        })
        assert main(["evaluate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_INVALID
        assert "999999" in capsys.readouterr().err

    def test_repeated_selection_id_names_the_id(self, tmp_path, capsys):
        twice = tmp_path / "twice.csv"
        twice.write_text("id\n1014\n1007\n1014\n")
        cfg = write_config(tmp_path / "eval.json", {
            "dataset": str(spaced_dataset(tmp_path)),
            "selection": str(twice),
        })
        assert main(["evaluate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_INVALID
        assert f"{twice}: line 4: id 1014 is listed more than once" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("id\n1014\n1014\n5\n", "line 3: id 1014 is listed more than once"),
        ("id\n1014\n5\n1014\n", "line 3: id 5 does not occur"),
        ("id\n1007\n1007\n99999999999999999999\n",
         "line 3: id 1007 is listed more than once"),
        # an id outside int64 is one numpy's parse rejects, as in a dataset
        ("id\n1007\n99999999999999999999\n1007\n",
         "line 3: could not convert string '99999999999999999999' to int64"),
    ], ids=["repeat-first", "unknown-first", "repeat-then-huge", "huge-first"])
    def test_first_bad_selection_id_in_file_order_is_named(
        self, tmp_path, capsys, text, message
    ):
        listed = tmp_path / "listed.csv"
        listed.write_text(text)
        cfg = write_config(tmp_path / "eval.json", {
            "dataset": str(spaced_dataset(tmp_path)),
            "selection": str(listed),
        })
        assert main(["evaluate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_INVALID
        assert f"{listed}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        (None, "{config}: selection file not found: {path}"),
        ("", "{path}: line 1: empty file"),
        ("id\n", "{path}: line 2: no data rows"),
        ("id\n\n", "{path}: line 2: no data rows"),
        ("3\n", "{path}: line 1: no 'id' column"),
        ("id\n3\nthree\n", "{path}: line 3: could not convert string 'three' to int64"),
        # blank lines are skipped but keep their line numbers
        ("id\n\n3\n\n1.5\n", "{path}: line 5: could not convert string '1.5' to int64"),
        ("label,id\n1,3\n2\n", "{path}: line 3: invalid column index 1"),
        # Python's int takes these; numpy's parse, the dataset's, does not
        ("id\n3\n1_0\n", "{path}: line 3: could not convert string '1_0' to int64"),
        ("id\n3\n\u0663\n", "{path}: line 3: could not convert string '\u0663' to int64"),
        ("id\n3\n9223372036854775808\n",
         "{path}: line 3: could not convert string '9223372036854775808' to int64"),
        ("id\n3\n\n5\n3\n", "{path}: line 5: id 3 is listed more than once"),
    ], ids=["missing", "empty", "header-only", "blank-rows", "no-id-column", "word",
            "blank-then-bad", "short-row", "underscore", "arabic-indic-digit",
            "outside-int64", "repeated"])
    def test_bad_selection_file_names_it(self, tmp_path, capsys, text, message):
        dataset, _ = self.prepare(tmp_path)
        selection = tmp_path / "picked.csv"
        if text is not None:
            selection.write_text(text, encoding="utf-8")
        cfg = write_config(tmp_path / "eval.json", {
            "dataset": str(dataset),
            "selection": str(selection),
        })
        assert main(["evaluate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_INVALID
        assert message.format(path=selection, config=cfg) in capsys.readouterr().err

    def test_blank_selection_lines_are_skipped(self, tmp_path):
        dataset, _ = self.prepare(tmp_path)
        selection = tmp_path / "picked.csv"
        selection.write_text("id\n\n3\n\n\n5\n\n")
        cfg = write_config(tmp_path / "eval.json", {
            "dataset": str(dataset),
            "selection": str(selection),
        })
        assert main(["evaluate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        payload = json.loads((tmp_path / "evaluation.json").read_text())
        assert sorted(payload["radial"]) == ["3", "5"]

    def test_selection_without_id_column(self, tmp_path, capsys):
        dataset, _ = self.prepare(tmp_path)
        rogue = tmp_path / "rogue.csv"
        rogue.write_text("foo,bar\n1,2\n")
        cfg = write_config(tmp_path / "eval.json", {
            "dataset": str(dataset),
            "selection": str(rogue),
        })
        assert main(["evaluate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_INVALID
        assert "line 1" in capsys.readouterr().err

    def test_k_center_commands_leave_scipy_spatial_unloaded(self, tmp_path):
        # only the kNN density loads scipy.spatial; the greedy, the coverage
        # assignment and the 1-NN loss share one kernel that needs no tree
        dataset, selection = self.prepare(tmp_path)
        select_cfg = str(tmp_path / "select.json")
        evaluate_cfg = write_config(tmp_path / "eval.json", {
            "dataset": str(dataset),
            "selection": str(selection),
        })
        argvs = [[command, "--config", cfg, "--out", str(tmp_path)]
                 for command, cfg in (("select", select_cfg), ("evaluate", evaluate_cfg))]
        src = os.path.dirname(os.path.dirname(denscore.__file__))
        code = ("import sys; from denscore.cli import main; "
                f"codes = [main(argv) for argv in {argvs!r}]; "
                "sys.exit(codes != [0, 0] or 'scipy.spatial' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
        assert done.returncode == 0


class TestCalibrate:
    def test_report_written(self, tmp_path, capsys):
        dataset = run_generate(tmp_path)
        sel_cfg = write_config(tmp_path / "select.json", {
            "dataset": str(dataset),
            "protocol": {"budget": 10, "rounds": 1, "algorithm": "k-center", "seed": 0},
        })
        main(["select", "--config", sel_cfg, "--out", str(tmp_path)])
        capsys.readouterr()
        cfg = write_config(tmp_path / "cal.json", {
            "dataset": str(dataset),
            "selection": str(tmp_path / "selection_round_01.csv"),
            "estimator": {"kind": "knn", "k_neighbors": 5},
            "bins": 6,
        })
        assert main(["calibrate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        assert "r_squared=" in capsys.readouterr().out
        payload = json.loads((tmp_path / "calibration.json").read_text())
        assert payload["num_selected"] == 10
        assert len(payload["bin_mean_radial"]) == 6
        assert payload["estimator"]["kind"] == "knn"

    def test_calibrate_leaves_scipy_stats_unloaded(self, tmp_path):
        # the Spearman correlation is computed with numpy
        dataset = run_generate(tmp_path)
        sel_cfg = write_config(tmp_path / "select.json", {
            "dataset": str(dataset),
            "protocol": {"budget": 10, "rounds": 1, "algorithm": "k-center", "seed": 0},
        })
        cal_cfg = write_config(tmp_path / "cal.json", {
            "dataset": str(dataset),
            "selection": str(tmp_path / "selection_round_01.csv"),
            "estimator": {"kind": "kernel", "bandwidth": 1.0},
        })
        argvs = [[command, "--config", cfg, "--out", str(tmp_path)]
                 for command, cfg in (("select", sel_cfg), ("calibrate", cal_cfg))]
        src = os.path.dirname(os.path.dirname(denscore.__file__))
        code = ("import sys; from denscore.cli import main; "
                f"codes = [main(argv) for argv in {argvs!r}]; "
                "sys.exit(codes != [0, 0] or 'scipy.stats' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
        assert done.returncode == 0
        payload = json.loads((tmp_path / "calibration.json").read_text())
        assert not payload["degenerate"] and payload["spearman"] is not None

    def test_estimator_section_required(self, tmp_path, capsys):
        dataset = run_generate(tmp_path)
        cfg = write_config(tmp_path / "cal.json", {
            "dataset": str(dataset),
            "selection": str(dataset),
        })
        assert main(["calibrate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_INVALID
        assert "estimator" in capsys.readouterr().err


class TestCompare:
    def compare_config(self, tmp_path, **overrides):
        payload = {
            "generator": dict(MIXTURE_GENERATOR),
            "budget": 5,
            "seeds": [1, 2, 3],
            "estimator": {"kind": "knn", "k_neighbors": 5},
        }
        payload.update(overrides)
        return write_config(tmp_path / "compare.json", payload)

    def test_writes_json_and_csv(self, tmp_path, capsys):
        cfg = self.compare_config(tmp_path)
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "density-aware win rate" in out
        payload = json.loads((tmp_path / "comparison.json").read_text())
        assert {r["algorithm"] for r in payload["rows"]} == {
            "k-center", "density-aware",
        }
        assert payload["dataset"]["dim"] == 2
        csv_text = (tmp_path / "comparison.csv").read_text().splitlines()
        assert csv_text[0] == "seed,algorithm,delta,max_radial,loss,runtime_ms"
        assert len(csv_text) == 1 + 2 * 3

    def test_rerun_identical_modulo_runtime(self, tmp_path):
        cfg = self.compare_config(tmp_path)
        main(["compare", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["compare", "--config", cfg, "--out", str(tmp_path / "b")])
        a = strip_volatile((tmp_path / "a" / "comparison.json").read_text())
        b = strip_volatile((tmp_path / "b" / "comparison.json").read_text())
        assert a == b
        # last CSV column is the wall-clock runtime; drop it before comparing
        a_rows = [line.rsplit(",", 1)[0] for line in
                  (tmp_path / "a" / "comparison.csv").read_text().splitlines()]
        b_rows = [line.rsplit(",", 1)[0] for line in
                  (tmp_path / "b" / "comparison.csv").read_text().splitlines()]
        assert a_rows == b_rows

    def test_seeds_must_be_nonempty_list(self, tmp_path, capsys):
        cfg = self.compare_config(tmp_path, seeds=[])
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == EXIT_INVALID
        assert "seeds" in capsys.readouterr().err

    @pytest.mark.parametrize("bounds", [5, {"bogus": 1}])
    def test_bounds_section_rejected(self, tmp_path, capsys, bounds):
        # nothing compare reports depends on the bound parameters
        cfg = self.compare_config(tmp_path, bounds=bounds)
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == EXIT_INVALID
        assert "bounds" in capsys.readouterr().err

    @pytest.mark.parametrize("estimator", [[1, 2], "knn"])
    def test_estimator_must_be_a_mapping(self, tmp_path, capsys, estimator):
        # as select and calibrate say it, not a runtime error from a copy
        cfg = self.compare_config(tmp_path, estimator=estimator)
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == EXIT_INVALID
        assert capsys.readouterr().err == "error: estimator config must be a mapping\n"


class TestWriteJson:
    def test_nested_dataclass_with_non_finite_values(self, tmp_path):
        @dataclass(frozen=True)
        class Inner:
            values: np.ndarray
            pair: tuple

        @dataclass(frozen=True)
        class Outer:
            inner: Inner
            count: np.int64
            flag: bool

        path = tmp_path / "out.json"
        write_json(Outer(
            Inner(np.array([1.5, np.nan, np.inf]), (-np.inf, np.nan, 2)),
            np.int64(7), True,
        ), path)

        def reject(token):
            raise AssertionError(f"bare {token} written")

        written = json.loads(path.read_text(), parse_constant=reject)
        assert written == {
            "inner": {"values": [1.5, None, "inf"], "pair": ["-inf", None, 2]},
            "count": 7,
            "flag": True,
        }
        assert written["flag"] is True and type(written["count"]) is int


class TestExitCodes:
    def test_runtime_failure_maps_to_exit_2(self, tmp_path, monkeypatch, capsys):
        dataset = run_generate(tmp_path)
        cfg = write_config(tmp_path / "eval.json", {
            "dataset": str(dataset),
            "selection": str(dataset),
        })
        import denscore.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(cli_mod, "bound_report", boom)
        assert main(["evaluate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_RUNTIME
        assert "disk on fire" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("generate", "--metric", "squared"),
        ("evaluate", "--seed", "1"),
        ("calibrate", "--seed", "1"),
        ("compare", "--seed", "1"),
        # every distance is Euclidean: no command takes a metric
        ("select", "--metric", "euclidean"),
        ("evaluate", "--metric", "euclidean"),
        ("calibrate", "--metric", "euclidean"),
        ("compare", "--metric", "euclidean"),
    ])
    def test_flag_the_command_ignores_is_rejected(self, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", "cfg.json", flag, value])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, path, value", [
        ("compare", "budget", "ten"),
        ("select", "protocol.budget", "ten"),
        ("select", "protocol.initial", 3),
        ("select", "bounds.confidence", "x"),
        ("select", "estimator.k_neighbors", "ten"),
        ("generate", "generator.seed", "x"),
        ("generate", "generator.counts", ["ten"]),
        ("generate", "generator.kind", "grid-blobs"),
        ("generate", "generator.sigmas", ["wide"]),
        ("compare", "generator.means", [[0.0, 0.0], ["x", 0.0]]),
        # values a bare int(), tuple() or bool() would coerce silently
        ("select", "protocol.budget", 2.7),
        ("select", "protocol.initial", "12"),
        ("select", "protocol.rounds", True),
        ("generate", "generator.counts", [2.7]),
        ("select", "bounds.num_classes", 2.5),
        ("select", "protocol.alpha", True),
        # numeric strings: an int or a number takes only a JSON number
        ("select", "protocol.budget", "10"),
        ("select", "bounds.confidence", "0.1"),
        ("compare", "seeds", ["x"]),
        ("compare", "seeds", [1.5]),
        ("compare", "seeds", [True]),
        # Python's json reads Infinity, and ceil(alpha * budget) has no int
        ("select", "protocol.alpha", float("inf")),
    ])
    def test_value_of_wrong_type_names_its_field(
        self, tmp_path, capsys, command, path, value
    ):
        assert run_with(tmp_path, command, path, value) == EXIT_INVALID
        field = path.split(".")[-1]
        assert f"{field} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("command, path, value, message", [
        ("select", "protocol", MISSING, "missing required field 'protocol'"),
        ("evaluate", "selection", MISSING, "missing required field 'selection'"),
        ("compare", "generator", MISSING, "missing required field 'generator'"),
        ("select", "protocol", [4], "field 'protocol' must be an object"),
        ("select", "bounds", 0.05, "field 'bounds' must be an object"),
        ("compare", "generator", "mixture", "field 'generator' must be an object"),
        ("generate", "generator.seed", MISSING, "generator.seed is required"),
        ("compare", "generator.kind", MISSING, "generator.kind is required"),
        ("generate", "output", 5, "'output' must be a non-empty string"),
        ("generate", "output", "", "'output' must be a non-empty string"),
        # the config's own key, not calibrate's num_bins
        ("calibrate", "bins", 0, "error: bins must be >= 1"),
    ])
    def test_misshapen_config_names_the_field(
        self, tmp_path, capsys, command, path, value, message
    ):
        assert run_with(tmp_path, command, path, value) == EXIT_INVALID
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["config", "dataset-header", "dataset-row",
                                      "selection"])
    def test_non_utf8_input_exits_1_naming_the_file(self, tmp_path, capsys, kind):
        dataset = tmp_path / "points.csv"
        # past the first read buffer, so that the byte reaches the row parse
        rows = "".join(f"{i},{i / 7!r}\n" for i in range(2000))
        dataset.write_text("id,f0\n" + rows)
        selection = tmp_path / "picked.csv"
        selection.write_text("id\n3\n5\n")
        config = {"dataset": str(dataset), "selection": str(selection)}
        cfg = tmp_path / "eval.json"
        cfg.write_text(json.dumps(config))
        bad = {"config": cfg, "dataset-header": dataset, "dataset-row": dataset,
               "selection": selection}[kind]
        text = bad.read_bytes()
        # 0xe9 is Latin-1 for the e-acute; alone it is no UTF-8 sequence
        at = len(text) - 3 if kind == "dataset-row" else 2
        bad.write_bytes(text[:at] + b"\xe9" + text[at:])
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_INVALID
        assert f"error: {bad}: not UTF-8 text (byte 0xe9)" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["config", "dataset", "selection"])
    def test_byte_order_mark_is_skipped(self, tmp_path, capsys, kind):
        # a spreadsheet's UTF-8 export starts with one: the file reads as
        # without it, so stdout and the evaluation are the same
        dataset = tmp_path / "points.csv"
        dataset.write_text("id,f0\n" + "".join(f"{i},{i / 7!r}\n" for i in range(20)))
        selection = tmp_path / "picked.csv"
        selection.write_text("id\n3\n5\n")
        cfg = tmp_path / "eval.json"
        cfg.write_text(json.dumps({"dataset": str(dataset), "selection": str(selection)}))
        argv = ["evaluate", "--config", str(cfg), "--out"]
        assert main(argv + [str(tmp_path / "plain")]) == EXIT_OK
        plain = capsys.readouterr().out
        bom = {"config": cfg, "dataset": dataset, "selection": selection}[kind]
        bom.write_bytes(b"\xef\xbb\xbf" + bom.read_bytes())
        assert main(argv + [str(tmp_path / "bom")]) == EXIT_OK
        assert capsys.readouterr().out == plain
        read = [json.loads((tmp_path / d / "evaluation.json").read_text())
                for d in ("plain", "bom")]
        for report in read:
            del report["metadata"]
        assert read[0] == read[1]

    @pytest.mark.parametrize("command, path", [
        ("select", "metric"),
        ("evaluate", "metric"),
        ("calibrate", "metric"),
        ("compare", "metric"),
        ("select", "protocol.normalize_features"),
    ])
    def test_removed_knob_is_an_unknown_field(self, tmp_path, capsys, command, path):
        # coverage is Euclidean on the raw features, with no switch for either
        value = {"metric": "euclidean", "protocol.normalize_features": False}[path]
        assert run_with(tmp_path, command, path, value) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "unknown" in err and f"'{path.split('.')[-1]}'" in err

    def test_unknown_subcommand_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
