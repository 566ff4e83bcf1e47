"""The benchmark's traced mode wraps package functions by name
(`perfbench/worker.py:instrument`); a renamed or removed function must fail
here rather than break a traced benchmark run."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class StubRecorder:
    """Records what ``instrument`` asks to wrap, without wrapping it."""

    def __init__(self):
        self.wrapped = []

    def wrap(self, owner, attr, name, count=None):
        self.wrapped.append((owner, attr, name))


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
