"""Spans recorded from outside the program, by wrapping module attributes.

A wrapper replaces a public function at the module attribute its callers
look up (``gnn.encode``, ``training.batch_graphs``,
``autodiff.primitive_forward``, ...). Each call records one span: name,
start, end and parent, plus optional probe readings taken just before and
after the call and the size of the result. Spans stay in memory until the
run ends. A layer's self time is its duration minus the part of that
interval its child spans cover.
"""

from dataclasses import dataclass
from time import perf_counter
from typing import Callable


class Span:
    __slots__ = ("name", "start", "end", "parent", "before", "after",
                 "nbytes")

    def __init__(self, name, start=0.0, end=0.0, parent=-1):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.before = self.after = self.nbytes = 0

    @property
    def duration(self):
        return self.end - self.start


def self_times(spans):
    """Each span's duration minus the union of its children's intervals,
    clipped to the span's own interval."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for c in sorted(kids, key=lambda i: spans[i].start):
            lo, hi = max(spans[c].start, reach), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


@dataclass
class Target:
    """One function to wrap.

    ``namer(args, kwargs)``, if set, gives the span name; it defaults to
    ``qualname``. ``probe()``, if set, is read before and after the call
    into ``Span.before``/``Span.after``. ``sizer(result)``, if set, gives
    ``Span.nbytes``.
    """

    module: object
    attr: str
    namer: Callable = None
    probe: Callable = None
    sizer: Callable = None

    @property
    def qualname(self):
        return f"{self.module.__name__.rsplit('.', 1)[-1]}.{self.attr}"


class Tracer:
    """Installs span-recording wrappers on enter and restores the original
    attributes on exit. A target whose attribute is missing is listed in
    ``missing`` by qualified name and not wrapped."""

    def __init__(self, targets):
        self.targets = targets
        self.spans = []
        self.missing = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        for t in self.targets:
            original = getattr(t.module, t.attr, None)
            if not callable(original):
                self.missing.append(t.qualname)
                continue
            self._saved.append((t.module, t.attr, original))
            setattr(t.module, t.attr, self._wrap(original, t))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, fn, target):
        spans, stack = self.spans, self._stack
        probe, sizer = target.probe, target.sizer
        name = target.qualname
        namer = target.namer or (lambda args, kwargs: name)

        def wrapper(*args, **kwargs):
            span = Span(namer(args, kwargs), parent=stack[-1] if stack else -1)
            if probe:
                span.before = probe()
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if probe:
                span.after = probe()
            if sizer:
                span.nbytes = sizer(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper
