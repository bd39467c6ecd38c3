"""Span tracing of kreisslab's public functions, installed from outside.

The tracer replaces each layer's function by a wrapper wherever a kreisslab
module holds a reference to it (so ``synth.kreiss_norm`` and
``cli.kreiss_norm`` are traced together with ``norms.kreiss_norm``), and
restores the originals on ``uninstall``.  A layer whose function no longer
exists is reported as absent instead of failing, so later refactors of the
package need no change here.

Spans (layer, start, end, parent) are kept in flat arrays while the traced
pass runs and are written out once at the end.  A span's self time is its
duration minus the durations of its child spans; calls are single-threaded
and properly nested, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from array import array
from typing import NamedTuple

import numpy as np


def _evaluations(rep):
    return {"evaluations": rep.evaluations}, None


def _synthesis(res):
    return ({"restarts_used": res.restarts_used,
             "descents": len(res.history),
             "descent_steps": sum(len(h) - 1 for h in res.history)}, None)


def _feasibility(res):
    return {"iterations": res.iterations, res.status: 1}, res.status


class Layer(NamedTuple):
    """A traced function.  ``stats`` are the statistics reported as
    "<layer>.<stat>": calls, ms and self_ms come from the spans, the rest
    from ``counter``, which maps the function's result to (counters to
    add, tag); a tag also accumulates the span's duration under
    "<tag>_ms" (e.g. time spent on infeasible LMIs).  ``path`` is the
    dotted path inside the kreisslab package when it differs from the
    layer name, which is the metric prefix and stays fixed when the
    function moves."""

    stats: tuple
    counter: object = None
    path: str | None = None


CALLS_MS = ("calls", "ms")
SELF = ("calls", "ms", "self_ms")

LAYERS = {
    "statespace.transfer": Layer(SELF, path="statespace.StateSpace.transfer"),
    "norms.hinf_norm": Layer(SELF + ("evaluations",), _evaluations),
    "norms.kreiss_norm": Layer(SELF + ("evaluations",), _evaluations),
    "norms.transient_peak_m0": Layer(CALLS_MS),
    "norms.peak_gain": Layer(CALLS_MS),
    "parallel.ordered_map": Layer(CALLS_MS),
    "synth.minimize_kreiss": Layer(
        SELF + ("restarts_used", "descents", "descent_steps"), _synthesis),
    "subgrad.kreiss_subgradient": Layer(CALLS_MS),
    "loop.assemble_closed_loop": Layer(CALLS_MS),
    "oracles.kreiss_halfplane_grid": Layer(CALLS_MS),
    "lmi.sdp_feasibility": Layer(
        CALLS_MS + ("iterations", "feasible", "infeasible", "indeterminate",
                    "feasible_ms", "infeasible_ms"), _feasibility),
    "lmi.qc_analysis": Layer(CALLS_MS),
    "lmi.lossless_check": Layer(CALLS_MS),
    "models.simulate_closed_loop": Layer(CALLS_MS),
    "models.solve_ivp": Layer(("calls", "nfev"),
                              lambda sol: ({"nfev": sol.nfev}, None)),
    "certify.yorke_sample_check": Layer(
        CALLS_MS + ("samples",), lambda rep: ({"samples": rep.samples}, None)),
    "problemio.load_problem": Layer(CALLS_MS),
    "cli.main": Layer(CALLS_MS),
}


def _resolve(package, path):
    """(owner, attribute, function) for a dotted path, or None if absent."""
    module_name, *attrs = path.split(".")
    try:
        owner = importlib.import_module(f"{package}.{module_name}")
    except ImportError:
        return None
    for attr in attrs[:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    fn = getattr(owner, attrs[-1], None)
    return None if fn is None else (owner, attrs[-1], fn)


class Tracer:
    """Installs layer wrappers, records spans and aggregates them."""

    def __init__(self, package="kreisslab"):
        self.package = package
        self.names = list(LAYERS)
        self.absent = []
        self._patched = []
        self._name = array("i")
        self._parent = array("l")
        self._start = array("d")
        self._end = array("d")
        self._stack = []
        self._counters = {name: {} for name in self.names}

    def install(self):
        pkg = importlib.import_module(self.package)
        modules = [pkg] + [importlib.import_module(f"{self.package}.{m.name}")
                           for m in pkgutil.iter_modules(pkg.__path__)]
        for layer_id, layer in enumerate(self.names):
            spec = LAYERS[layer]
            found = _resolve(self.package, spec.path or layer)
            if found is None:
                self.absent.append(layer)
                continue
            owner, attr, fn = found
            wrapper = self._wrap(layer_id, fn, spec.counter)
            targets = {(id(owner), attr): owner}
            for module in modules:
                for name, value in vars(module).items():
                    if value is fn:
                        targets[(id(module), name)] = module
            for (_, name), obj in targets.items():
                self._patched.append((obj, name, getattr(obj, name)))
                setattr(obj, name, wrapper)

    def uninstall(self):
        for obj, name, original in reversed(self._patched):
            setattr(obj, name, original)
        self._patched.clear()

    def _wrap(self, layer_id, fn, counter):
        names, parents = self._name, self._parent
        starts, ends, stack = self._start, self._end, self._stack
        totals = self._counters[self.names[layer_id]]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(layer_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                try:
                    counts, tag = counter(result)
                except (AttributeError, TypeError):
                    counts, tag = {}, None
                for key, value in counts.items():
                    totals[key] = totals.get(key, 0) + value
                if tag is not None:
                    key = f"{tag}_ms"
                    totals[key] = totals.get(key, 0.0) + \
                        1e3 * (ends[idx] - starts[idx])
            return result

        return wrapper

    def layers(self) -> dict:
        """layer -> {calls, ms, self_ms, counters}; absent layers omitted."""
        names = np.frombuffer(self._name, dtype=np.int32)
        parents = np.frombuffer(self._parent, dtype=np.int64)
        dur = (np.frombuffer(self._end, dtype=np.float64)
               - np.frombuffer(self._start, dtype=np.float64))
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        out = {}
        for layer_id, layer in enumerate(self.names):
            if layer in self.absent:
                continue
            out[layer] = {"calls": int(calls[layer_id]),
                          "ms": 1e3 * float(total[layer_id]),
                          "self_ms": 1e3 * float(own[layer_id]),
                          **self._counters[layer]}
        return out

    def write(self, path) -> None:
        """Save every span as compressed arrays plus the layer-name table."""
        np.savez_compressed(
            path, layers=np.array(self.names),
            name=np.frombuffer(self._name, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int64),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64))
