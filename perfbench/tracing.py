"""Span tracing of qclock's layers, installed from outside the package.

Every public function defined in a layer module is wrapped, and every
``qclock`` module that bound the original (the package uses
``from .x import y`` throughout) is patched to the wrapper, so calls between
layers are seen too.  Spans are kept in memory as
``(name, parent, op, start, end)`` tuples, where ``parent`` is the index of
the enclosing span (-1 at the top) and ``op`` the benchmark operation that
caused it.  Timed runs never install the wrappers.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYERS = (
    "numerics",
    "schwinger",
    "phase_space",
    "spectrum",
    "time_interval",
    "dynamics",
    "verification",
    "cli",
)


def _matrix_digest(a, *args, **kwargs) -> str:
    arr = np.ascontiguousarray(np.asarray(a, dtype=np.complex128))
    return hashlib.sha1(arr.tobytes() + repr(arr.shape).encode()).hexdigest()


# functions whose distinct inputs are counted, with the key that identifies one
DISTINCT_KEYS = {"numerics.hermitian_eig": _matrix_digest}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self.distinct = {name: set() for name in DISTINCT_KEYS}
        self._stack = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        key = DISTINCT_KEYS.get(name)
        seen = self.distinct.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key is not None:
                seen.add(key(*args, **kwargs))
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, parent, self.op, start, end)

        return traced

    @contextmanager
    def installed(self):
        """Patch every loaded module of qclock; restore on exit."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "qclock" or name.startswith("qclock."))
        }
        wrappers = {}
        for layer in LAYERS:
            mod = modules.get(f"qclock.{layer}")
            if mod is None:
                continue
            for fname, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not fname.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{fname}", obj))
        patched = []
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, val))
        try:
            yield self
        finally:
            for mod, attr, val in patched:
                setattr(mod, attr, val)


def self_times(spans) -> dict:
    """Per-name (calls, self seconds): a span's duration minus its children's."""
    covered = [0.0] * len(spans)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for i, (name, _, _, start, end) in enumerate(spans):
        calls, self_s = out.get(name, (0, 0.0))
        out[name] = (calls + 1, self_s + (end - start) - covered[i])
    return out
