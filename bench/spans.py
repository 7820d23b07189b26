"""Spans around the calls into each dfourier layer, recorded from outside.

``install(tracer)`` replaces a fixed list of public functions and methods
with wrappers that time every call.  Layer-boundary functions become
spans (name, start, end, parent), kept in memory and written out once by
``Tracer.dump``.  Hot leaf functions that run hundreds of thousands of
times per op (the bump kernel, residue sets) are aggregated per name
instead, so the trace stays small; their time still counts as child
time of the span that called them.

A function imported by name into another module (``analyze`` imports
``envelope_tail`` and ``build_xi_grid`` from ``measure``, ``cli`` imports
most of the pipeline) is rebound in every ``dfourier`` module that holds
it.  A target that no longer exists raises at install time, so a rename
breaks the benchmark instead of silently reading zero.

Standard library only: the parent process imports this module without
numpy.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

SPAN, LEAF = "span", "leaf"


def _result_len(args, kwargs, result):
    return len(result)


def _result_size(args, kwargs, result):
    return int(getattr(result, "size", 1))


def _coeff_count(args, kwargs, result):
    return len(result.coeffs)


def _saved_bytes(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _interval_count(args, kwargs, result):
    return len(args[1] if len(args) > 1 else kwargs["lo"])


# (module, attribute path, kind, item counter or None).  The span name is
# the module's last component plus the attribute path.
TARGETS = (
    ("dfourier.profile", "ApproximationProfile.bucket", SPAN, None),
    ("dfourier.measure", "assemble_line", SPAN, _result_len),
    ("dfourier.measure", "stability_gap", SPAN, None),
    ("dfourier.measure", "select_next_scale", SPAN, None),
    ("dfourier.measure", "certified_half_bandwidth", SPAN, None),
    ("dfourier.measure", "envelope_tail", SPAN, None),
    ("dfourier.measure", "gm_series", SPAN, None),
    ("dfourier.measure", "build_measure", SPAN, None),
    ("dfourier.measure", "build_xi_grid", SPAN, _result_len),
    ("dfourier.measure", "MeasureStage.save", SPAN, _saved_bytes),
    ("dfourier.measure", "MeasureStage.load", SPAN, None),
    ("dfourier.series", "series_multiply", SPAN, _coeff_count),
    ("dfourier.analyze", "transform_samples", SPAN, _result_len),
    ("dfourier.analyze", "pointwise_error_bound", SPAN, None),
    ("dfourier.analyze", "decay_report", SPAN, None),
    ("dfourier.analyze", "borel_cantelli_report", SPAN, None),
    ("dfourier.analyze", "DirectDensity.z", SPAN, None),
    ("dfourier.analyze", "DirectDensity.measure_of_intervals", SPAN,
     _interval_count),
    ("dfourier.bump", "BumpSpec.fourier", LEAF, _result_size),
    ("dfourier.bump", "BumpSpec.value", LEAF, _result_size),
    ("dfourier.arith", "residue_set", LEAF, None),
)


class Tracer:
    """In-memory record of one process's spans and leaf aggregates.

    ``spans`` rows are [name, start, end, parent index (-1 for a root),
    child seconds, items, returned]; ``leaves`` maps a name to
    [calls, seconds, items].
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.leaves: dict[str, list] = {}
        self._stack: list[int] = []

    def _charge_parent(self, seconds: float) -> None:
        if self._stack:
            self.spans[self._stack[-1]][4] += seconds

    def wrap_span(self, name: str, fn, items):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            row = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                   0.0, 0, False]
            self.spans.append(row)
            self._stack.append(idx)
            row[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                row[6] = True
                return result
            finally:
                row[2] = time.perf_counter()
                self._stack.pop()
                self._charge_parent(row[2] - row[1])
                if row[6] and items is not None:
                    row[5] = items(args, kwargs, result)
        return wrapper

    def wrap_leaf(self, name: str, fn, items):
        agg = self.leaves.setdefault(name, [0, 0.0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            agg[0] += 1
            agg[1] += dt
            if items is not None:
                agg[2] += items(args, kwargs, result)
            self._charge_parent(dt)
            return result
        return wrapper

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "leaves": self.leaves, **extra},
                      fh)


def _resolve(module: str, attr: str):
    """(owner object, attribute name, raw class-dict entry or function)."""
    try:
        owner = importlib.import_module(module)
    except ImportError as exc:
        raise RuntimeError(f"benchmark wrapper target {module} "
                           f"cannot be imported: {exc}") from exc
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    raw = None
    if owner is not None:
        raw = (vars(owner).get(last) if isinstance(owner, type)
               else getattr(owner, last, None))
    if raw is None:
        raise RuntimeError(f"benchmark wrapper target {module}.{attr} is "
                           f"missing; update bench/spans.py TARGETS")
    return owner, last, raw


def install(tracer: Tracer, targets=TARGETS) -> list[str]:
    """Wrap every target; return the qualified names of the rebindings."""
    importlib.import_module("dfourier.cli")     # loads every layer module
    resolved = [(_resolve(module, attr), module, attr, kind, items)
                for module, attr, kind, items in targets]
    bound: list[str] = []
    for (owner, last, raw), module, attr, kind, items in resolved:
        name = f"{module.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}"
        wrap = tracer.wrap_span if kind == SPAN else tracer.wrap_leaf
        if isinstance(owner, type):
            if isinstance(raw, property):
                new = property(wrap(name, raw.fget, items), raw.fset,
                               raw.fdel, raw.__doc__)
            elif isinstance(raw, staticmethod):
                new = staticmethod(wrap(name, raw.__func__, items))
            else:
                new = wrap(name, raw, items)
            setattr(owner, last, new)
            bound.append(f"{module}.{attr}")
            continue
        new = wrap(name, raw, items)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "dfourier" and not mod_name.startswith("dfourier."):
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, key, new)
                    bound.append(f"{mod_name}.{key}")
    return bound
