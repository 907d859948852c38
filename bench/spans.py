"""Span recorder for the traced benchmark run.

``SpanRecorder.install`` wraps every public function of the library
modules -- each callable named in a module's ``__all__``, the public
``SeedStream`` methods and ``cli.main`` -- and rebinds the wrapper in
every zonoidal module that holds the original, so calls from one
library module into another (``algebra`` calling ``canonicalize``) are
recorded as well.  ``uninstall`` puts the original objects back; the
library source is never touched.

Each span records its name, start, end, parent span, task id and
whether it raised.  Spans stay in memory; ``summary`` turns them into
per-name self and total times once tracing has ended.  Self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter

MODULES = ("exterior", "zonotope", "algebra", "jvolume", "randomdet",
           "measures", "sampling", "cli")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _canonicalize(rec, args, kwargs, out):
    n_in = _arg(args, kwargs, 0, "K").n_generators
    rec.counts["zonotope.canonicalize.gens_in"] += n_in
    rec.counts["zonotope.canonicalize.gens_out"] += out.n_generators
    rec.max_gens_in = max(rec.max_gens_in, n_in)


def _draws(rec, args, kwargs, out):
    rec.counts["sampling.draws"] += int(_arg(args, kwargs, 1, "n"))


def _chunks(rec, args, kwargs, out):
    rec.counts["sampling.chunks"] += len(out)


def _mc_samples(rec, args, kwargs, out):
    rec.counts["randomdet.mc_samples"] += int(_arg(args, kwargs, 1, "n"))


def _wedge_power_subsets(rec, args, kwargs, out):
    # Computed from the input size, not counted inside the library.
    n = _arg(args, kwargs, 0, "K").n_generators
    d = int(_arg(args, kwargs, 1, "d"))
    rec.counts["algebra.wedge_power.subsets_computed"] += math.comb(n, d)


def _span_subsets(rec, args, kwargs, out):
    # Computed from the input size: one candidate span per n-subset.
    P = _arg(args, kwargs, 0, "P")
    rec.counts["jvolume.span_subsets_computed"] += math.comb(
        P.n_generators, P.ambient_dim // 2)


OBSERVERS = {
    "zonotope.canonicalize": _canonicalize,
    "sampling.SeedStream.uniforms": _draws,
    "sampling.SeedStream.gaussians": _draws,
    "sampling.chunk_sizes": _chunks,
    "randomdet.expected_abs_det_mc": _mc_samples,
    "randomdet.expected_abs_det_complex_mc": _mc_samples,
    "algebra.wedge_power": _wedge_power_subsets,
    "jvolume.j_volume_zonotope": _span_subsets,
    "jvolume.kazarnovskii_zonotope": _span_subsets,
    "jvolume.zonotope_face_data": _span_subsets,
}


def public_functions():
    """(qualified name, original function) for every traced entry point."""
    out = []
    seen = set()
    for short in MODULES:
        mod = importlib.import_module(f"zonoidal.{short}")
        names = getattr(mod, "__all__", None) or ["main"]
        for name in names:
            obj = getattr(mod, name)
            if callable(obj) and not isinstance(obj, type) and id(obj) not in seen:
                seen.add(id(obj))
                out.append((f"{short}.{name}", obj))
    return out


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        # [name id, start, end, parent span index, task id, raised]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.max_gens_in = 0
        self.task = -1
        self._stack: list[int] = []
        self._rebinds: list[tuple] | None = None
        self._installed = False

    def _wrap(self, qualname, fn):
        nid = len(self.names)
        self.names.append(qualname)
        spans, stack, perf = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(qualname)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1, rec.task, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                span[5] = True
                raise
            finally:
                span[2] = perf()
                stack.pop()
            if observe is not None:
                observe(rec, args, kwargs, out)
            return out

        return traced

    def _bindings(self):
        """(owner, attribute, original, wrapper) for every rebinding."""
        wrappers = {}
        for qualname, fn in public_functions():
            wrappers[id(fn)] = (fn, self._wrap(qualname, fn))
        targets = [sys.modules["zonoidal"]] + [
            importlib.import_module(f"zonoidal.{short}") for short in MODULES]
        out = []
        for mod in targets:
            for attr, val in vars(mod).items():
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    out.append((mod, attr, val, hit[1]))
        stream = importlib.import_module("zonoidal.sampling").SeedStream
        for attr, val in vars(stream).items():
            if not attr.startswith("_") and callable(val):
                out.append((stream, attr, val,
                            self._wrap(f"sampling.SeedStream.{attr}", val)))
        return out

    def install(self):
        if self._installed:
            raise RuntimeError("tracing is already installed")
        if self._rebinds is None:
            self._rebinds = self._bindings()
        for owner, attr, _original, wrapper in self._rebinds:
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self):
        for owner, attr, original, _wrapper in reversed(self._rebinds or ()):
            setattr(owner, attr, original)
        self._installed = False

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, errors, self_s and total_s."""
        child = [0.0] * len(self.spans)
        for nid, t0, t1, parent, _task, _err in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (nid, t0, t1, _parent, _task, err) in enumerate(self.spans):
            row = out.setdefault(self.names[nid], {"calls": 0, "errors": 0,
                                                    "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["errors"] += int(err)
            row["total_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child[i]
        return out
