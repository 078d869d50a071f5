"""Spans around calls into tdsim's public functions, recorded from outside.

:meth:`Tracer.install` replaces each span point, by object identity, at
every binding in the loaded ``tdsim.*`` modules: ``from .x import y``
names in ``cli`` and a module's own global lookups (``eigen_solve``
finding ``eigen_decompose``) both go through the wrapper.  Spans are kept
in memory and written out by :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

import numpy as np

SPAN_POINTS = (
    "cli.main",
    "cli.resolve_configs",
    "cli.simulate",
    "cli.render_csv",
    "cli.spectrum_eigenvalues",
    "ensemble.build_line",
    "ensemble.build_sphere_lattice",
    "ensemble.partition_sections",
    "basis.plus_state",
    "basis.ladder_state",
    "basis.section_state",
    "basis.build_transform",
    "kernels.build_generator",
    "kernels.transform_generator",
    "dynamics.rk4_propagate",
    "dynamics.eigen_solve",
    "dynamics.eigen_decompose",
    "observables.populations",
    "observables.state_population",
    "observables.total_excitation",
)
MODULES = ("cli", "ensemble", "basis", "kernels", "dynamics", "observables")

# distinct-argument ratios: metric name -> span points whose calls it pools
DISTINCT = {
    "ensemble.distinct_frac": ("ensemble.build_line", "ensemble.build_sphere_lattice"),
    "kernels.build_generator.distinct_frac": ("kernels.build_generator",),
    "cli.spectrum_eigenvalues.distinct_frac": ("cli.spectrum_eigenvalues",),
}
# config fields that enter a spectrum (the ones `tdsim spectrum` echoes)
_SPECTRUM_FIELDS = ("geometry", "n", "radius", "target_count", "spacing", "k0_vec",
                    "kernel", "gamma")


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for s in spans:
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children[s.id]):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def _key(value):
    """Hashable content key of an argument (arrays by their bytes)."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return tuple(_key(v) for v in value)
    if hasattr(value, "positions") and hasattr(value, "k0_vec"):  # an Ensemble
        return (_key(value.positions), _key(value.k0_vec))
    return value


def _generator_n(generator) -> int:
    return int(np.shape(getattr(generator, "matrix", generator))[0])


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.missing: list[str] = []
        self.keys = defaultdict(list)  # span point -> argument keys, one per call
        self.work = defaultdict(float)  # span point -> N^2*steps or N^3 summed
        self.generator_bytes = 0
        self._stack: list[int] = []
        self._restore = []

    # -- wrapping -----------------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "tdsim" or name.startswith("tdsim."))]
        for point in SPAN_POINTS:
            module = sys.modules.get("tdsim." + point.split(".")[0])
            fn = getattr(module, point.split(".")[1], None)
            if not callable(fn):
                self.missing.append(point)
                continue
            wrapper = self._wrap(point, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)
                        self._restore.append((m, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _wrap(self, point, fn):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = Span(sid, parent, point, start, end)
            self._observe(point, signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    def _observe(self, point, bound, result):
        bound.apply_defaults()
        a = bound.arguments
        if point in ("ensemble.build_line", "ensemble.build_sphere_lattice"):
            self.keys[point].append(_key(tuple(a.values())))
        elif point == "kernels.build_generator":
            self.keys[point].append(_key((a["ensemble"], a["kernel"], a["gamma"])))
            self.generator_bytes = max(self.generator_bytes,
                                       int(np.asarray(result.matrix).nbytes))
        elif point == "cli.spectrum_eigenvalues":
            self.keys[point].append(_key(tuple(getattr(a["config"], f)
                                               for f in _SPECTRUM_FIELDS)))
        elif point == "dynamics.rk4_propagate":
            steps = int(round(a["t_max"] / a["dt"]))
            self.work[point] += _generator_n(a["generator"]) ** 2 * steps
        elif point == "dynamics.eigen_decompose":
            self.work[point] += _generator_n(a["generator"]) ** 3

    # -- results ------------------------------------------------------------

    def write(self, path):
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [dict(s._asdict(), start=s.start - t0, end=s.end - t0) for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing, "spans": rows}, fh)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit); missing span points are omitted."""
        calls, busy = defaultdict(int), defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            calls[span.name] += 1
            busy[span.name] += own
        out = {}
        present = [p for p in SPAN_POINTS if p not in self.missing]
        for point in present:
            out[f"{point}.calls"] = (calls[point], "count")
            out[f"{point}.self_s"] = (busy[point], "s")
        for module in MODULES:
            out[f"{module}.self_s"] = (sum(busy[p] for p in present
                                           if p.startswith(module + ".")), "s")
        for name, points in DISTINCT.items():
            if any(p in self.missing for p in points):
                continue
            keys = [(p, k) for p in points for k in self.keys[p]]
            # with no calls there is no repeated work
            out[name] = (len(set(keys)) / len(keys) if keys else 1.0, "ratio")
        for point, metric in (("dynamics.rk4_propagate", "n2_steps_per_s"),
                              ("dynamics.eigen_decompose", "n3_per_s")):
            if point not in self.missing:
                rate = self.work[point] / busy[point] if busy[point] > 0 else 0.0
                out[f"{point}.{metric}"] = (rate, "1/s")
        out["kernels.generator_mb"] = (self.generator_bytes / 1e6, "MB")
        return out
