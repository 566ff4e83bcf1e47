"""End-to-end tests for the denscore command line interface.

Every test drives ``denscore.cli.main`` in-process with a temp directory for
outputs, so assertions can read the artifacts straight back.  Determinism
tests compare bytes after stripping the wall-clock metadata fields.
"""

import json
import re

import numpy as np
import pytest

from denscore import LabeledPointSet, load_pointset, save_pointset
from denscore.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_WARNINGS,
    main,
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

    def test_invalid_json_reports_config_error(self, tmp_path, capsys):
        bad = tmp_path / "gen.json"
        bad.write_text("{not json")
        assert main(["generate", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_INVALID
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["generate", "--config", missing, "--out", str(tmp_path)]) == EXIT_INVALID
        assert "not found" in capsys.readouterr().err

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
    def test_uncertainty_baselines_need_probabilities(
        self, tmp_path, capsys, algorithm
    ):
        # A dataset CSV carries one scalar score per point, never class
        # probabilities, so these baselines run only through the library.
        plain = load_pointset(run_generate(tmp_path))
        scored = tmp_path / "scored.csv"
        save_pointset(LabeledPointSet(
            plain.points, plain.labels, plain.num_classes,
            scores=np.linspace(0.0, 1.0, plain.n),
        ), scored)
        cfg = self.select_config(
            tmp_path, scored, protocol={"algorithm": algorithm}
        )
        assert main(["select", "--config", cfg, "--out", str(tmp_path)]) == EXIT_INVALID
        assert (f"strategy {algorithm!r} requires class probabilities"
                in capsys.readouterr().err)

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
        cfg = self.select_config(tmp_path, tmp_path / "absent.csv")
        assert main(["select", "--config", cfg, "--out", str(tmp_path)]) == EXIT_INVALID
        assert "dataset file not found" in capsys.readouterr().err

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

    def test_metric_flag_changes_bound_values(self, tmp_path):
        dataset, selection = self.prepare(tmp_path)
        base_cfg = write_config(tmp_path / "eval.json", {
            "dataset": str(dataset),
            "selection": str(selection),
        })
        main(["evaluate", "--config", base_cfg, "--out", str(tmp_path / "euc")])
        main(["evaluate", "--config", base_cfg, "--out", str(tmp_path / "sq"),
              "--metric", "squared"])
        euc = json.loads((tmp_path / "euc" / "evaluation.json").read_text())
        sq = json.loads((tmp_path / "sq" / "evaluation.json").read_text())
        assert sq["delta"] == pytest.approx(euc["delta"] ** 2, rel=1e-12)


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
    ])
    def test_flag_the_command_ignores_is_rejected(self, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", "cfg.json", flag, value])
        assert exc.value.code == 2

    def test_unknown_subcommand_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
