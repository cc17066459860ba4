"""Spans recorded from outside the program, by wrapping its public functions.

A :class:`SpanRecorder` keeps one stack of open spans per thread.  Every span
knows its parent (the span open below it on the same thread), so a layer's
*self time* is its span's duration minus the time its child spans cover.
Self times are summed per layer as spans close; the raw spans are kept only
when asked for (tests, debugging), because a traced suite round closes
hundreds of thousands of them.

:class:`Patcher` installs the wrappers.  A function imported by name into
another module (``from ..core.batch import batch_analyze``) is a second
reference to the same object, so :meth:`Patcher.wrap_function` replaces the
function in every loaded ``repro`` module that holds it; methods are
replaced on their class.  :meth:`Patcher.undo` restores the originals.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

__all__ = ["Span", "SpanRecorder", "Patcher"]


@dataclass(frozen=True)
class Span:
    layer: str
    start: float
    duration: float
    self_time: float
    #: Index of the parent span in :attr:`SpanRecorder.spans` (``None`` at the root).
    parent: int | None
    thread: int


class _Frame:
    __slots__ = ("layer", "start", "children", "index")

    def __init__(self, layer: str, start: float, index: int | None) -> None:
        self.layer = layer
        self.start = start
        self.children = 0.0
        self.index = index


class SpanRecorder:
    """Per-layer self time, call counts and byte counts from nested spans."""

    def __init__(self, *, keep_spans: bool = False) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.bytes: dict[str, int] = defaultdict(int)
        self.spans: list[Span] | None = [] if keep_spans else None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, start: float | None = None) -> None:
        index = None
        if self.spans is not None:
            with self._lock:
                index = len(self.spans)
                self.spans.append(None)  # type: ignore[arg-type]  # filled at close
        self._stack().append(
            _Frame(layer, perf_counter() if start is None else start, index)
        )

    def close(self, end: float | None = None) -> None:
        end = perf_counter() if end is None else end
        stack = self._stack()
        frame = stack.pop()
        duration = end - frame.start
        self_time = duration - frame.children
        if stack:
            stack[-1].children += duration
        with self._lock:
            self.self_s[frame.layer] += self_time
            self.calls[frame.layer] += 1
            if self.spans is not None:
                parent = stack[-1].index if stack else None
                self.spans[frame.index] = Span(  # type: ignore[index]
                    frame.layer,
                    frame.start,
                    duration,
                    self_time,
                    parent,
                    threading.get_ident(),
                )

    def add_bytes(self, layer: str, n: int) -> None:
        with self._lock:
            self.bytes[layer] += n

    def wrap(
        self,
        layer: str,
        fn: Callable,
        *,
        measure: Callable[[tuple, dict, Any], int] | None = None,
    ) -> Callable:
        """``fn`` recorded as a ``layer`` span; ``measure`` turns a call's
        ``(args, kwargs, result)`` into a byte count for the layer."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if measure is not None:
                self.add_bytes(layer, measure(args, kwargs, result))
            return result

        return wrapper


class Patcher:
    """Replace functions and methods with wrappers; undo restores them."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def wrap_function(self, original: Callable, wrapper: Callable) -> int:
        """Point every loaded ``repro`` module's reference to ``original`` at
        ``wrapper``; returns how many references were replaced."""
        replaced = 0
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)
                    replaced += 1
        return replaced

    def wrap_method(self, cls: type, name: str, wrapper: Callable) -> None:
        self._set(cls, name, wrapper)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
