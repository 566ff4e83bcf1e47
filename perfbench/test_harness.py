"""Self-tests for the benchmark harness.

    python3 -m pytest perfbench -q
"""

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checker  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SMALL = Workload(
    name="small",
    n=300,
    scores=False,
    protocol={"budget": 10, "rounds": 2, "algorithm": "k-center"},
    estimator=None,
    evaluate=True,
)


def test_generator_is_a_function_of_the_seed(tmp_path):
    digests = [
        inputs.write_csv(inputs.draw(seed, 500, True), tmp_path / f"{i}.csv")
        for i, seed in enumerate((7, 7, 8))
    ]
    assert (tmp_path / "0.csv").read_bytes() == (tmp_path / "1.csv").read_bytes()
    assert digests[0] == digests[1]
    assert (tmp_path / "0.csv").read_bytes() != (tmp_path / "2.csv").read_bytes()
    assert digests[0] != digests[2]


@pytest.fixture()
def outputs(tmp_path):
    """A small k-center select + evaluate run through the real CLI."""
    from denscore import cli

    data = inputs.draw(3, SMALL.n, SMALL.scores)
    dataset = tmp_path / "dataset.csv"
    inputs.write_csv(data, dataset)
    codes = [cli.main(argv) for argv in SMALL.commands(tmp_path, dataset, 3)]
    assert codes == [0, 0]
    return tmp_path / "out", data


def check(out, data):
    found = checker.check_select(out / "select", data.ids, data.features,
                                 SMALL.rounds, SMALL.budget)
    checker.check_evaluate(out / "evaluate" / "evaluation.json", data.ids,
                           data.features, data.labels, found["rounds"][-1])
    return found


def test_checker_accepts_the_cli_outputs(outputs):
    found = check(*outputs)
    assert found["final_delta"] >= found["final_max_radial"] > 0


def edit_json(path, key, factor):
    payload = json.loads(path.read_text())
    payload[key] *= factor
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize("name", ["bounds_round_01.json", "bounds_round_02.json"])
def test_checker_rejects_delta_off_by_one_percent(outputs, name):
    out, data = outputs
    edit_json(out / "select" / name, "delta", 1.01)
    with pytest.raises(checker.CheckError, match="delta"):
        check(out, data)


def test_checker_rejects_a_wrong_core_set_loss(outputs):
    out, data = outputs
    edit_json(out / "evaluate" / "evaluation.json", "core_set_loss", 1.01)
    with pytest.raises(checker.CheckError, match="core_set_loss"):
        check(out, data)


def rewrite_row(path, order, column, value):
    lines = path.read_text().splitlines()
    cells = lines[order].split(",")
    cells[column] = value
    lines[order] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_checker_rejects_a_duplicate_id(outputs):
    out, data = outputs
    path = out / "select" / "selection_round_02.csv"
    first_id = path.read_text().splitlines()[1].split(",")[2]
    rewrite_row(path, 2, 2, first_id)
    with pytest.raises(checker.CheckError, match="picked twice"):
        check(out, data)


def test_checker_rejects_a_rising_radius(outputs):
    out, data = outputs
    rewrite_row(out / "select" / "selection_round_02.csv", 3, 3, "1e9")
    with pytest.raises(checker.CheckError, match="radius rises"):
        check(out, data)


def test_checker_rejects_an_unknown_id(outputs):
    out, data = outputs
    rewrite_row(out / "select" / "selection_round_01.csv", 2, 2, str(SMALL.n + 5))
    with pytest.raises(checker.CheckError, match="not in the dataset"):
        check(out, data)


def test_spans_nest_and_give_self_time():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: [x] * x
    ns.outer = lambda x: ns.inner(x) + ns.inner(x)
    recorder = SpanRecorder()
    recorder.wrap(ns, "outer", "m.outer")
    recorder.wrap(ns, "inner", "m.inner", lambda a, kw, r: {"items": len(r)})
    recorder.trace = 4
    assert ns.outer(3) == [3] * 6
    recorder.unwrap_all()
    assert ns.outer(2) == [2] * 4  # unwrapped: no new spans
    outer, inner1, inner2 = recorder.spans
    assert (outer.parent, inner1.parent, inner2.parent) == (None, 0, 0)
    totals = recorder.totals()[4]
    assert totals["m.inner"]["calls"] == 2 and totals["m.inner"]["items"] == 6
    assert totals["m.outer"]["self_s"] == pytest.approx(
        outer.duration - inner1.duration - inner2.duration)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_a_changed_rerun_is_checked_again(outputs):
    import worker

    out, data = outputs
    verified = {}
    found = worker.verify(SMALL, out, data, [0, 0], verified)
    assert worker.verify(SMALL, out, data, [0, 0], verified) == found
    edit_json(out / "select" / "bounds_round_02.json", "delta", 1.01)
    with pytest.raises(checker.CheckError, match="delta"):
        worker.verify(SMALL, out, data, [0, 0], verified)
    with pytest.raises(checker.CheckError, match="exit codes"):
        worker.verify(SMALL, out, data, [0, 3], verified)
