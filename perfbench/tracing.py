"""Spans around the public entry points of each layer, recorded from the
benchmark's side: the program itself is not changed to be traced.

A span is [name, start, end, parent index, solve id].  Spans are kept in
memory and written out when the run ends.  A layer's self time is its spans'
duration minus the part covered by their child spans.
"""
from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Callable, Optional

from microasp import cdcl, parser, strategies

#: Traced entry points: (owner, attribute, span name).  `solve` reaches the
#: grounder through the names bound in `strategies`, so those are wrapped.
ENTRY_POINTS = (
    (parser, "parse_program", "parser.parse_program"),
    (strategies, "ground_program", "strategies.ground_program"),
    (strategies, "ground_deferred_violations", "strategies.ground_deferred_violations"),
    (cdcl.Solver, "__init__", "Solver.__init__"),
    (cdcl.Solver, "solve", "Solver.solve"),
    (strategies.ConstraintIndex, "__init__", "ConstraintIndex.__init__"),
    (strategies.ConstraintIndex, "eager_nogoods", "ConstraintIndex.eager_nogoods"),
    (strategies.ConstraintIndex, "post_nogoods", "ConstraintIndex.post_nogoods"),
)

#: Spans a workload must record at least once: those of every strategy, and
#: those of each strategy it runs.
COMMON = ("parser.parse_program", "strategies.ground_program", "Solver.__init__", "Solver.solve")
REQUIRED = {
    "full": (),
    "lazy": ("strategies.ground_deferred_violations",),
    "eager": ("ConstraintIndex.__init__", "ConstraintIndex.eager_nogoods"),
    "post": ("ConstraintIndex.__init__", "ConstraintIndex.post_nogoods"),
}


class MissingLayer(RuntimeError):
    pass


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.solve_id = -1
        # Grounding sizes and lazy-check outcomes, taken from return values.
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.solve_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, on_result: Optional[Callable] = None) -> None:
        # vars(), not getattr(): an inherited object.__init__ must not stand
        # in for a constructor that was renamed away.
        if attr not in vars(owner):
            raise MissingLayer(f"entry point {name} is missing; update perfbench/tracing.py")
        original = vars(owner)[attr]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, traced)

    def install(self) -> None:
        results = {
            "strategies.ground_program": self._count_ground,
            "strategies.ground_deferred_violations": self._count_check,
        }
        for owner, attr, name in ENTRY_POINTS:
            self.wrap(owner, attr, name, results.get(name))

    def _count_ground(self, gp) -> None:
        self.counts["atoms"] += len(gp.atoms)
        self.counts["rules"] += len(gp.rules)

    def _count_check(self, violations) -> None:
        self.counts["check_vetoes"] += bool(violations)

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls and self seconds per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - covered
        return out


def check_required(summary: dict, kinds) -> None:
    """Fail when a span the workload's strategies must reach recorded no call."""
    for kind in kinds:
        for name in (*COMMON, *REQUIRED[kind]):
            if summary.get(name, {}).get("calls", 0) == 0:
                raise MissingLayer(f"span {name} recorded no call, but strategy {kind} must reach it")
