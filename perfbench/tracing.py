"""In-memory span tracing installed from outside the program.

A ``Tracer`` swaps chosen functions and methods of the loaded ``murmurkit``
modules for wrappers that record one span per call: name, start, end, the
enclosing span, and optional attributes computed from the call's arguments
and result. Nothing in ``src/`` knows about it; ``uninstall`` puts every
original back, so untraced runs execute the program's own code untouched.

Spans stay in memory until the run ends. A span's self time is its
duration minus the part of its interval that its children cover.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span, in the same order as ``spans``.

    Children may overlap one another (worker threads), so their union is
    subtracted, never their sum.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.duration - covered(children.get(i, []), s.start, s.end) for i, s in enumerate(spans)
    ]


class Tracer:
    """Records spans from wrappers it installs; thread-aware."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current(self) -> int | None:
        """Index of the innermost open span of this thread, or its inherited parent."""
        stack = self._stack()
        return stack[-1] if stack else getattr(self._tls, "inherited", None)

    def open(self, name: str) -> int:
        span = Span(name, 0.0, parent=self.current())
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        self._stack().append(idx)
        span.start = self.clock()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._stack().pop()

    def call(self, name: str, fn, args, kwargs, attrs=None):
        idx = self.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(idx)
        if attrs is not None:
            self.spans[idx].attrs.update(attrs(args, kwargs, result))
        return result

    def adopt(self, fn, parent: int | None):
        """Wrap ``fn`` so spans it opens in another thread hang under ``parent``."""

        @functools.wraps(fn)
        def run(*args, **kwargs):
            prior = getattr(self._tls, "inherited", None)
            self._tls.inherited = parent
            try:
                return fn(*args, **kwargs)
            finally:
                self._tls.inherited = prior

        return run

    # -- installation --------------------------------------------------

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr``; a module-level function is replaced in every
        ``murmurkit`` module that imported it by name."""
        original = getattr(owner, attr)
        targets = [(owner, attr)]
        if isinstance(owner, type(sys)):
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("murmurkit") or mod is owner:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        targets.append((mod, key))
        for obj, key in targets:
            self._patches.append((obj, key, getattr(obj, key)))
            setattr(obj, key, replacement)

    def install(self, name: str, owner, attr: str, attrs=None) -> None:
        self.patch(owner, attr, self.wrap(name, getattr(owner, attr), attrs))

    def uninstall(self) -> None:
        while self._patches:
            obj, key, original = self._patches.pop()
            setattr(obj, key, original)

    # -- queries -------------------------------------------------------

    def named(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.name == name]

    def ancestors(self, idx: int):
        parent = self.spans[idx].parent
        while parent is not None:
            yield parent
            parent = self.spans[parent].parent

    def within(self, idx: int, ancestor_name: str) -> bool:
        return any(self.spans[a].name == ancestor_name for a in self.ancestors(idx))

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        out: dict[str, float] = {}
        for span, st in zip(self.spans, self_times(self.spans)):
            out[span.name] = out.get(span.name, 0.0) + st
        return out
