"""In-memory span tracer for the benchmark's traced pass.

A `Tracer` swaps module attributes for timing wrappers and puts the
originals back afterwards, so nothing under `src/` changes. Each wrapper sits
on the attribute the calling layer looks up at call time: `check_dcl`
resolves `sparsecert.certificates.max_eig_sym` on every bisection step, so
wrapping that attribute times every eigenproblem it solves.

A span records its name, its start and end in ns of process CPU time (which
a shared VM's host steal does not inflate), the index of the enclosing span,
and a trial id: the count of trial-starting calls so far. Spans stay in
memory until `write_jsonl` is called at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Target:
    """One wrapped attribute: `attr` (dotted below `module`) becomes a span
    named `name`. A call of a `starts_trial` target opens a new trial id."""

    name: str
    module: str
    attr: str
    starts_trial: bool = False


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int  # index of the enclosing span, -1 at the root
    trial: int   # -1 outside any trial
    note: Any = None  # per-call annotation from an on_result hook

    @property
    def duration(self) -> int:
        return self.end - self.start


def _owner_and_name(target: Target) -> tuple[Any, str]:
    owner = importlib.import_module(target.module)
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.process_time_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self.trial = -1
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, target: Target, fn: Callable, on_result: Callable | None = None) -> Callable:
        """Timing wrapper around `fn`. `on_result(args, result)` returns the
        span's note; it runs after the span has ended."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if target.starts_trial:
                self.trial += 1
            span = Span(target.name, 0, 0, self._stack[-1] if self._stack else -1, self.trial)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if on_result is not None:
                span.note = on_result(args, result)
            return result

        return timed

    @contextmanager
    def installed(self, targets: list[Target], hooks: dict[str, Callable] | None = None):
        """Wrap every target for the duration of the block, then restore the
        original attributes even if the block raises."""
        hooks = hooks or {}
        try:
            for target in targets:
                owner, name = _owner_and_name(target)
                original = getattr(owner, name)
                self._saved.append((owner, name, original))
                setattr(owner, name, self.wrap(target, original, hooks.get(target.name)))
            yield self
        finally:
            while self._saved:
                owner, name, original = self._saved.pop()
                setattr(owner, name, original)


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of its interval covered by its
    direct children. Children are clipped to the parent and their union is
    taken, so nested or overlapping children are not counted twice."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    out = []
    for span, kids in zip(spans, children):
        intervals = sorted(
            (max(spans[k].start, span.start), min(spans[k].end, span.end)) for k in kids
        )
        covered, cursor = 0, span.start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.duration - covered)
    return out


def write_jsonl(path, spans: list[Span]) -> None:
    """One JSON object per span, with its self time, in recording order."""
    with open(path, "w", encoding="utf-8") as fh:
        for index, (span, own) in enumerate(zip(spans, self_times(spans))):
            note = span.note if isinstance(span.note, (int, float, str)) else None
            fh.write(
                json.dumps(
                    {
                        "id": index,
                        "name": span.name,
                        "start_ns": span.start,
                        "end_ns": span.end,
                        "self_ns": own,
                        "parent": span.parent,
                        "trial": span.trial,
                        "note": note,
                    }
                )
                + "\n"
            )
