"""The benchmark's traced mode wraps package functions by name
(`perfbench/worker.py:instrument`); a renamed or removed function must fail
here rather than break a traced benchmark run."""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from denscore import ProtocolConfig, density, run_rounds, selection
from test_assignment_reuse import _grid_dataset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class StubRecorder:
    """Records what ``instrument`` asks to wrap, and the first counter given
    for each attribute, without wrapping it."""

    def __init__(self):
        self.wrapped = []
        self.counters = {}

    def wrap(self, owner, attr, name, count=None):
        self.wrapped.append((owner, attr, name))
        self.counters.setdefault(attr, count)


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "worker", raising=False)
    import worker

    recorder = StubRecorder()
    worker.instrument(recorder)
    assert recorder.wrapped
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr} ({name})"
        for owner, attr, name in recorder.wrapped
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing


def test_filter_counter_reads_keyword_candidates(monkeypatch):
    # the benchmark's `filtered` counter takes the pool from ``candidates``
    # and falls back to ``args[0].n``, which a plain score array lacks
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "worker", raising=False)
    import worker

    recorder = StubRecorder()
    worker.instrument(recorder)
    filtered = recorder.counters["filter_candidates"]

    calls = []
    real = selection.filter_candidates

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(selection, "filter_candidates", record)
    rng = np.random.default_rng(4)
    dataset = replace(_grid_dataset(rng, 30, 2), scores=rng.uniform(size=30))
    result = run_rounds(dataset, ProtocolConfig(
        budget=3, rounds=3, alpha=2.0, algorithm="k-center"))
    assert len(calls) == len(result.rounds) == 3
    for (args, kwargs), rnd in zip(calls, result.rounds):
        assert len(args) < 4 and "candidates" in kwargs
        counts = filtered(args, kwargs, rnd.pool)
        assert counts == {"kept": rnd.pool.size, "pool": len(kwargs["candidates"])}


def test_kernel_rounds_go_through_the_traced_kernel_density(monkeypatch):
    # the benchmark's `density.kernel_density` span wraps the function in
    # density's namespace and reads the field it returns: a filtered kernel
    # run calls it once per new universe, each call after the first with
    # the last call's field, whose points are among its own
    calls = []
    real = density.kernel_density

    def record(points, bandwidth, **kwargs):
        calls.append((points, kwargs.get("previous")))
        return real(points, bandwidth, **kwargs)

    monkeypatch.setattr(density, "kernel_density", record)
    rng = np.random.default_rng(6)
    dataset = replace(_grid_dataset(rng, 40, 2), scores=rng.uniform(size=40))
    result = run_rounds(dataset, ProtocolConfig(
        budget=3, rounds=4, alpha=2.0, estimator={"kind": "kernel", "bandwidth": 0.8}))
    universes = [rnd.universe for rnd in result.rounds]
    new = [u for i, u in enumerate(universes)
           if i == 0 or not np.array_equal(u, universes[i - 1])]
    assert len(calls) == len(new) > 1
    for (points, _), universe in zip(calls, new):
        assert np.array_equal(points.ids, dataset.points.ids[universe])
    assert calls[0][1] is None
    for points, previous in calls[1:]:
        assert previous.kernel is not None
        assert np.isin(previous.kernel.ids, points.ids).all()
