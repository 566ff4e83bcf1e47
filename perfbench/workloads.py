"""The benchmark's workloads: input size, CLI configs and command sequence.

All use the three-tier mixture at dim 8 (see inputs.py).  Each stresses a
different layer so that a change to one layer has a workload that shows
its gain and one that shows it costs nothing elsewhere:

* select-knn-full: density-aware ``select`` with the kNN estimator and no
  filter.  One dense n x n density estimate over the whole pool per round
  is almost all of the work and sets peak memory (n = 4000 keeps that
  matrix at 128 MB).
* kcenter-evaluate: k-center ``select`` then ``evaluate`` on the final
  round's picks.  No density call at all; coverage assignment and the
  greedy dominate, plus two CSV loads and the 1-NN loss.
* select-filtered-kernel: density-aware ``select`` with the kernel
  estimator on a file with scores, filtered to the top alpha*budget each
  round.  Many small density calls, candidate filtering and a full-n bound
  report every round.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    scores: bool
    protocol: dict
    estimator: dict | None
    evaluate: bool

    @property
    def rounds(self) -> int:
        return self.protocol["rounds"]

    @property
    def budget(self) -> int:
        return self.protocol["budget"]

    def commands(self, work: Path, dataset: Path, seed: int) -> list[list[str]]:
        """Write the configs under ``work`` and return the CLI argv sequence."""
        out = work / "out"
        select = {"dataset": str(dataset), "protocol": dict(self.protocol, seed=seed)}
        if self.estimator is not None:
            select["estimator"] = self.estimator
        (work / "select.json").write_text(json.dumps(select))
        argvs = [["select", "--config", str(work / "select.json"), "--out", str(out / "select")]]
        if self.evaluate:
            evaluate = {
                "dataset": str(dataset),
                "selection": str(out / "select" / f"selection_round_{self.rounds:02d}.csv"),
            }
            (work / "evaluate.json").write_text(json.dumps(evaluate))
            argvs.append(
                ["evaluate", "--config", str(work / "evaluate.json"), "--out", str(out / "evaluate")]
            )
        return argvs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="select-knn-full",
            n=4000,
            scores=False,
            protocol={"budget": 50, "rounds": 3, "algorithm": "density-aware"},
            estimator={"kind": "knn", "k_neighbors": 10},
            evaluate=False,
        ),
        Workload(
            name="kcenter-evaluate",
            n=12000,
            scores=False,
            protocol={"budget": 250, "rounds": 4, "algorithm": "k-center"},
            estimator=None,
            evaluate=True,
        ),
        Workload(
            name="select-filtered-kernel",
            n=8000,
            scores=True,
            protocol={"budget": 25, "rounds": 12, "alpha": 40, "algorithm": "density-aware"},
            estimator={"kind": "kernel", "bandwidth": 2.0},
            evaluate=False,
        ),
    )
}
