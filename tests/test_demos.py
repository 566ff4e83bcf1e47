"""Smoke test: every demo script runs to completion against the package.

Each demo runs in-process (the package is already imported, so a run costs
only the demo's own work) from an empty working directory, because demo 05
writes ``demo_outputs/`` relative to it.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(script), run_name="__main__")
