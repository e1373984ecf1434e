"""Spans and counters recorded from outside the traced package.

A Tracer replaces functions and methods with wrappers that count their calls
and time them.  Each timed call opens a frame; when it closes, the call's
duration minus the time of the timed calls nested in it is added to the
self time of its layer (the metric name up to the first dot), so the self
times of all layers add up to the duration of the outermost span.  A
function re-entered while it is already open (recursion) is counted but not
timed again: only its outermost call is timed.

Spans (id, name, start, end, parent id) are kept in memory and written out
by the caller at the end.  Hot functions are timed without keeping a span,
and the cheapest scalar operations are only counted.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()               # metric stem -> calls
        self.counts = Counter()              # probe counters
        self.inclusive = defaultdict(float)  # stem -> time in outermost calls
        self.self_time = defaultdict(float)  # layer -> self time
        self.spans = []                      # (id, name, start, end, parent id)
        self._stack = []                     # open frames: [id, child time]
        self._open = Counter()               # stem -> 1 while a call is open
        self._next_id = 0
        self._seen = {}                      # id(obj) -> (obj, keys seen)
        self._patched = []                   # (owner, attribute, original)

    # -- frames ---------------------------------------------------------------

    def _enter(self, stem):
        self._open[stem] = 1
        self._next_id += 1
        frame = [self._next_id, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, stem, frame, start, keep):
        end = self.clock()
        self._stack.pop()
        self._open[stem] = 0
        duration = end - start
        self.inclusive[stem] += duration
        self.self_time[stem.split(".", 1)[0]] += duration - frame[1]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        if keep:
            self.spans.append((frame[0], stem, start, end,
                               parent[0] if parent else None))

    @contextmanager
    def span(self, stem):
        """Time a block of the caller's own code as a span named stem."""
        self.calls[stem] += 1
        frame = self._enter(stem)
        start = self.clock()
        try:
            yield
        finally:
            self._exit(stem, frame, start, True)

    # -- wrappers --------------------------------------------------------------

    def timed(self, stem, fn, keep=True, probe=None, observe=None):
        """Wrap fn: count calls, time outermost calls, run optional hooks.

        probe(args) runs before and observe(args, result) after every call,
        inside the timed frame, so their cost is charged to fn.
        """
        calls, is_open, clock = self.calls, self._open, self.clock

        def wrapper(*args, **kwargs):
            calls[stem] += 1
            if is_open[stem]:
                if probe is not None:
                    probe(args)
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, result)
                return result
            frame = self._enter(stem)
            start = clock()
            try:
                if probe is not None:
                    probe(args)
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, result)
                return result
            finally:
                self._exit(stem, frame, start, keep)

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, stem, fn, probe=None):
        """Wrap fn to count its calls only (no frame, no span)."""
        calls = self.calls

        if probe is None:
            def wrapper(*args, **kwargs):
                calls[stem] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                calls[stem] += 1
                probe(args)
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def repeated(self, obj, key) -> bool:
        """True when key was seen before for this object since `forget`."""
        entry = self._seen.get(id(obj))
        if entry is None:
            # keep obj alive so its id is not reused while it is tracked
            entry = self._seen[id(obj)] = (obj, set())
        if key in entry[1]:
            return True
        entry[1].add(key)
        return False

    def forget(self):
        self._seen.clear()

    # -- installing -------------------------------------------------------------

    def patch_function(self, package, fn, wrapper):
        """Replace fn by wrapper in every module of package that binds it.

        Modules that import a function by name hold their own reference to
        it, so patching only the defining module would miss their calls.
        """
        for name, module in list(sys.modules.items()):
            if module is None or (name != package
                                  and not name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def patch_method(self, cls, attr, wrap):
        """Replace cls.attr, and every alias of it on cls, by wrap(function).

        Static methods stay static methods.
        """
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            new = staticmethod(wrap(raw.__func__))
        else:
            new = wrap(raw)
        for alias, value in list(vars(cls).items()):
            if value is raw:
                self._patched.append((cls, alias, value))
                setattr(cls, alias, new)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
