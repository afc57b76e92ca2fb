"""Spans around calls into the program's layers, recorded from outside.

A :class:`Tracer` replaces a layer's public function (or method) with a
wrapper that records one span per call: name, start, end, the span that
caused it and the work item it belongs to.  Wrappers go on the name the
*caller* looks up — callers use ``from ... import``, so patching the
defining module would miss them — and :meth:`Tracer.restore` puts every
original attribute back.

Only synchronous calls are wrapped, so spans nest strictly: a wrapped
call runs to completion before any other task on the event loop gets
control, and one stack of open spans gives every span its parent.

Spans are kept in memory (parallel lists, no object per span) and
written out once, at the end of the run.
"""

from __future__ import annotations

import contextvars
import functools
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Span",
    "Tracer",
    "current_item",
    "self_times",
    "union_length",
]

#: Work item the running code belongs to: a placement key, a cell group
#: or a session nonce.  A context variable, so concurrent sessions on
#: one event loop each see their own.
current_item: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_item", default=None
)

_MISSING = object()

#: ``on_result(tracer, args, kwargs, result)``: counts taken at the
#: boundary where the work happens.
ResultHook = Callable[["Tracer", tuple, dict, Any], None]


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    item: Any

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: List[List[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        covered = union_length(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children[index]
        )
        out.append(max(span.duration - covered, 0.0))
    return out


class Tracer:
    """Records spans and counts; installs and removes call wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._names: List[str] = []
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._parents: List[Optional[int]] = []
        self._items: List[Any] = []
        self._open: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.counts: Dict[str, float] = {}

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def begin(self, name: str) -> int:
        """Open a synchronous span under the innermost open one."""
        index = len(self._names)
        self._names.append(name)
        now = self.clock()
        self._starts.append(now)
        self._ends.append(now)
        self._parents.append(self._open[-1] if self._open else None)
        self._items.append(current_item.get())
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {index} is not the innermost open span")
        self._open.pop()
        self._ends[index] = self.clock()

    def record(self, name: str, start: float, end: float, item: Any = None) -> None:
        """Add a finished span that never sat on the stack (an interval
        measured around asynchronous work); it parents nothing."""
        self._names.append(name)
        self._starts.append(start)
        self._ends.append(end)
        self._parents.append(None)
        self._items.append(item)

    def spans(self) -> List[Span]:
        return [
            Span(name, start, end, parent, item)
            for name, start, end, parent, item in zip(
                self._names, self._starts, self._ends, self._parents, self._items
            )
        ]

    def __len__(self) -> int:
        return len(self._names)

    # -- wrappers ----------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_result: Optional[ResultHook] = None,
        item_of: Optional[Callable[[tuple, dict], Any]] = None,
    ) -> None:
        """Replace ``owner.attr`` (a module function or a class's method)
        with a wrapper recording a ``name`` span per call.

        ``item_of(args, kwargs)``, when given, names the work item the
        call starts; the span and everything it calls carry it."""
        own = vars(owner).get(attr, _MISSING)
        target = getattr(owner, attr)
        begin, end = self.begin, self.end

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            token = None if item_of is None else current_item.set(item_of(args, kwargs))
            index = begin(name)
            try:
                result = target(*args, **kwargs)
            finally:
                end(index)
                if token is not None:
                    current_item.reset(token)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        self._patches.append((owner, attr, own))
        setattr(owner, attr, wrapper)

    def install(self, hooks: Iterable[tuple]) -> None:
        """Wrap each ``(owner, attr, name, on_result[, item_of])``."""
        for hook in hooks:
            self.wrap(*hook)

    def restore(self) -> None:
        """Put back every wrapped attribute, last wrapped first; an
        attribute the owner only inherited is deleted again."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as f:
            for index, span in enumerate(self.spans()):
                f.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "item": None if span.item is None else str(span.item),
                        }
                    )
                    + "\n"
                )
