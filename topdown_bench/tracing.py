"""Span recording around the pipeline's public functions.

The traced run wraps public functions of the pipeline's modules from
the outside: each wrapper opens a span (name, start, end, parent) in an
in-memory :class:`Recorder` (written out once, at the end of a traced
run), and :func:`self_times` later turns the span tree into per-span
self time (duration minus the part of it that child
spans cover).  Nothing here edits the program; :func:`patched` replaces
each target *where callers look it up* -- the defining module or class
and every ``repro.*`` module that imported the same object by name --
and puts the originals back on exit.  End-to-end runs never install it.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass
class Span:
    """One finished (or open) span; times are ``perf_counter`` seconds."""

    id: int
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Thread-safe in-memory span store with a per-thread open-span stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **attrs: Any) -> Span:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            span_id, name, stack[-1].id if stack else None,
            time.perf_counter(), attrs=attrs,
        )
        stack.append(span)
        return span

    def close(self, span: Span, end: Optional[float] = None) -> None:
        span.end = time.perf_counter() if end is None else end
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        opened = self.open(name, **attrs)
        try:
            yield opened
        finally:
            self.close(opened)

    def dump(self, path: str) -> None:
        """Write every span as JSON (attrs reduced to JSON scalars)."""
        rows = [
            {
                "id": s.id, "name": s.name, "parent": s.parent,
                "start": s.start, "end": s.end,
                "attrs": {
                    k: v for k, v in s.attrs.items()
                    if isinstance(v, (str, int, float, bool)) or v is None
                },
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)


# -- self time ---------------------------------------------------------


def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of *intervals* clipped to ``[start, end]``."""
    clipped = sorted(
        (max(lo, start), min(hi, end))
        for lo, hi in intervals
        if min(hi, end) > max(lo, start)
    )
    total = 0.0
    cur_lo: Optional[float] = None
    cur_hi = 0.0
    for lo, hi in clipped:
        if cur_lo is None or lo > cur_hi:
            if cur_lo is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_lo is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered(s.start, s.end, children.get(s.id, ()))
        for s in spans
    }


def ancestors(span: Span, by_id: Dict[int, Span]) -> Iterator[Span]:
    parent = by_id.get(span.parent) if span.parent is not None else None
    while parent is not None:
        yield parent
        parent = by_id.get(parent.parent) if parent.parent is not None else None


# -- wrapping ----------------------------------------------------------

#: ``on_return(span, args, kwargs, result)`` records attributes of a call
#: (hit or miss, sizes) as scalars, so spans hold no reference to the
#: pipeline's data.  It runs after the span's end time is taken.
ReturnHook = Callable[[Span, tuple, dict, Any], None]


@dataclass(frozen=True)
class Target:
    """One public callable to wrap.

    *owner* is a module name (``"repro.gpu.digest"``), a
    ``"module:Class"`` string, or the class object itself.
    """

    owner: Any
    attr: str
    span: str
    on_return: Optional[ReturnHook] = None


def resolve(owner: Any) -> Any:
    if not isinstance(owner, str):
        return owner
    module_name, _, class_path = owner.partition(":")
    resolved: Any = importlib.import_module(module_name)
    for name in filter(None, class_path.split(".")):
        resolved = getattr(resolved, name)
    return resolved


def _wrap(recorder: Recorder, fn: Callable, target: Target) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = recorder.open(target.span)
        end = None
        try:
            result = fn(*args, **kwargs)
            end = time.perf_counter()  # the hook's own time is not the call's
            if target.on_return is not None:
                target.on_return(span, args, kwargs, result)
            return result
        finally:
            recorder.close(span, end)

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    return wrapper


@contextlib.contextmanager
def patched(recorder: Recorder, targets: Iterable[Target]) -> Iterator[None]:
    """Install span wrappers on *targets*; restore the originals on exit.

    A function target is replaced in its module and in every loaded
    ``repro`` module that holds the same object under the same name (a
    ``from x import f`` copy).  A method target is replaced on the class
    that defines it, where instance lookups find it.
    """
    undo: List[Tuple[Any, str, Any]] = []
    try:
        for target in targets:
            owner = resolve(target.owner)
            attr = target.attr
            original = owner.__dict__[attr]
            wrapped = _wrap(recorder, original, target)
            holders = [owner]
            if not isinstance(owner, type):
                holders += [
                    mod for name, mod in list(sys.modules.items())
                    if mod is not None and mod is not owner
                    and name.split(".")[0] == "repro"
                    and getattr(mod, attr, None) is original
                ]
            for holder in holders:
                undo.append((holder, attr, original))
                setattr(holder, attr, wrapped)
        yield
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)
