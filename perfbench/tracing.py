"""Spans around the library's layers, recorded from outside the library.

A traced pass temporarily replaces the module-level names and methods that
the solvers call (``TARGETS``) with wrappers that record a span per call:
name, start, end, parent span and the solve it belongs to.  Spans stay in
memory until the benchmark writes them out at the end.  A name that no
longer exists -- it moved or was renamed -- is reported as missing and left
alone, so that a refactor of the library never breaks the benchmark.
"""

from __future__ import annotations

import importlib
import threading
import time
from contextlib import contextmanager

import numpy as np

# (span name, "module" or "module:Class", attribute).  Two or more targets
# may share one span name; a layer is missing only when all of them are.
TARGETS = (
    ("conditional.stay_fraction", "cellescape.quadrature", "stay_fraction"),
    ("conditional.transition_1d", "cellescape.quadrature", "conditional_transition_1d"),
    ("geometry.sample_reference", "cellescape.montecarlo", "_sample_reference"),
    ("geometry.contains", "cellescape.montecarlo", "_reference_contains"),
    ("montecarlo.chunk_stream", "cellescape.montecarlo", "_chunk_stream"),
    ("geometry.affine", "cellescape.geometry:AffineMap", "to_global"),
    ("geometry.affine", "cellescape.geometry:AffineMap", "to_local"),
    ("geometry.affine", "cellescape.geometry:AffineMap", "global_step"),
    ("distributions.density", "cellescape.distributions:WienerStep", "density"),
    ("distributions.density", "cellescape.distributions:VelocityJumpStep", "density"),
    ("distributions.sample", "cellescape.distributions:WienerStep", "sample"),
    ("distributions.sample", "cellescape.distributions:VelocityJumpStep", "sample"),
)

_MISSING = object()


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(obj, cls, None) if cls else obj


class Tracer:
    """Records spans; ``installed()`` puts the wrappers in place."""

    def __init__(self):
        # one row per span: [name, start, end, parent index, solve id, points]
        self.spans: list[list] = []
        self._local = threading.local()
        self.missing = [
            f"{owner}.{attr}" for _, owner, attr in TARGETS
            if getattr(_resolve(owner), attr, _MISSING) is _MISSING
        ]
        found = {name for name, owner, attr in TARGETS if f"{owner}.{attr}" not in self.missing}
        self.missing_layers = sorted({name for name, _, _ in TARGETS} - found)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, solve_id=None, points: int = 0):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if solve_id is None and parent is not None:
            solve_id = self.spans[parent][4]
        index = len(self.spans)
        row = [name, time.perf_counter(), None, parent, solve_id, points]
        self.spans.append(row)
        stack.append(index)
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            stack.pop()

    def _wrap(self, name: str, function, skip_self: bool):
        tracer = self
        # a density span also counts the points of its batch argument
        counts = name == "distributions.density"
        first = 1 if skip_self else 0

        def wrapper(*args, **kwargs):
            points = int(np.shape(args[first])[0]) if counts and len(args) > first else 0
            with tracer.span(name, points=points):
                return function(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Replace every target that exists by its wrapper, and restore it after."""
        restore = []
        try:
            for name, owner, attr in TARGETS:
                obj = _resolve(owner)
                if obj is None or getattr(obj, attr, _MISSING) is _MISSING:
                    continue
                own = vars(obj).get(attr, _MISSING)
                restore.append((obj, attr, own))
                setattr(obj, attr, self._wrap(name, getattr(obj, attr), isinstance(obj, type)))
            yield self
        finally:
            for obj, attr, own in reversed(restore):
                if own is _MISSING:
                    delattr(obj, attr)
                else:
                    setattr(obj, attr, own)

    def summary(self, first: int = 0, end: int | None = None) -> dict:
        """Per span name from ``spans[first:end]``: calls, total, self time, points.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        spans = self.spans[first:end]
        children = [0.0] * len(spans)
        for _, start, stop, parent, _, _ in spans:
            if parent is not None and parent >= first:
                children[parent - first] += stop - start
        out: dict[str, dict] = {}
        for (name, start, stop, _, _, points), child in zip(spans, children):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "points": 0})
            entry["calls"] += 1
            entry["total_s"] += stop - start
            entry["self_s"] += stop - start - child
            entry["points"] += points
        return out
