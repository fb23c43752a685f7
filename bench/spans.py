"""Spans around the public functions of each wfgibbs layer.

``Tracer.install`` wraps every public module-level function defined in a
layer module and rebinds it under every name that any ``wfgibbs`` module
holds for it (``lowest_eigenpairs`` is imported by constrain, twostate,
thermal, sampling and cli), so calls across layers are seen wherever they
come from. Each call appends one span ``[name, layer, start, end, parent,
info]`` to an in-memory list; ``info`` holds counts read from the result
at the same boundary. ``restore`` puts every original back.

``layer_metrics`` turns the spans into per-layer numbers. A layer's self
time is the duration of its spans minus the part their child spans cover.
A metric whose source function no longer exists is reported as not
observed, with value 0, instead of failing the run.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "wfgibbs"
LAYERS = ("lattice", "spectra", "constrain", "twostate", "thermal", "sampling", "cli")


def _observe_eigenpairs(result):
    return {"k": len(result)}


def _observe_table(result):
    return {"points": len(result.q), "failed": len(result.meta["failed_points"]),
            "grid_points": result.meta["grid"]["n_points"]}


def _observe_curve(result):
    return {"betas": len(result.beta)}


def _observe_sample(result):
    return {"chain_steps": result.chain_count * (result.steps_per_chain + result.burn_in)}


# counts taken from a function's result, keyed by traced name
OBSERVERS = {
    "spectra.lowest_eigenpairs": _observe_eigenpairs,
    "constrain.effective_potential": _observe_table,
    "thermal.table_for_betas": _observe_table,
    "thermal.fluctuation_curve": _observe_curve,
    "sampling.sample_ensemble": _observe_sample,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.wrapped = []
        self._stack = []
        self._patched = []

    def _wrap(self, fn, name: str, layer: str):
        spans, stack = self.spans, self._stack
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                info = {}
                if observe is not None and result is not None:
                    try:
                        info = observe(result)
                    except (AttributeError, KeyError, TypeError):
                        pass
                spans[index] = [name, layer, start, end, parent, info]

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(fn, name, layer)
                self.wrapped.append(name)
                for m in modules:
                    for held, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, held, wrapper)
                            self._patched.append((m, held, fn))

    def restore(self) -> bool:
        """Put every original back; True when no wrapper remains bound."""
        for module, held, fn in reversed(self._patched):
            setattr(module, held, fn)
        restored = all(getattr(m, held) is fn for m, held, fn in self._patched)
        self._patched.clear()
        return restored


def self_times(spans) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = np.array([s[3] - s[2] for s in spans], dtype=float)
    own = dur.copy()
    for s, d in zip(spans, dur):
        if s[4] >= 0:
            own[s[4]] -= d
    return own


def _has_ancestor_in(spans, index: int, layer: str) -> bool:
    parent = spans[index][4]
    while parent >= 0:
        if spans[parent][1] == layer:
            return True
        parent = spans[parent][4]
    return False


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


# the traced function each count or timing is read from
SOURCES = {
    "lattice.calls": "lattice",
    "spectra.calls_k1": "spectra.lowest_eigenpairs",
    "spectra.calls_kN": "spectra.lowest_eigenpairs",
    "spectra.k1_ms_p50": "spectra.lowest_eigenpairs",
    "spectra.k1_ms_p90": "spectra.lowest_eigenpairs",
    "spectra.kN_ms_p50": "spectra.lowest_eigenpairs",
    "constrain.points": "constrain.effective_potential",
    "constrain.failed_points": "constrain.effective_potential",
    "constrain.eigensolves_per_point": "constrain.effective_potential",
    "constrain.point_ms_p50": "constrain.solve_lambda",
    "constrain.point_ms_p90": "constrain.solve_lambda",
    "twostate.doublet_solves": "spectra.lowest_eigenpairs",
    "thermal.table_s": "thermal.table_for_betas",
    "thermal.grid_points": "thermal.table_for_betas",
    "thermal.curve_s": "thermal.fluctuation_curve",
    "thermal.betas": "thermal.fluctuation_curve",
    "thermal.marginal_s": "thermal.position_marginal",
    "sampling.model_s": "sampling.build_truncated_model",
    "sampling.engine_s": "sampling.sample_ensemble",
    "sampling.chain_steps": "sampling.sample_ensemble",
    "sampling.chain_steps_per_s": "sampling.sample_ensemble",
    "sampling.iat_s": "sampling.integrated_autocorrelation",
    "cli.config_s": "cli.load_config",
}


def layer_metrics(spans, wrapped) -> tuple:
    """(metrics, names not observed) from the spans of one traced op."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def total(name):
        return float(sum(spans[i][3] - spans[i][2] for i in by_name[name]))

    def count(name, key):
        return sum(spans[i][5].get(key, 0) for i in by_name[name])

    def ms(indices):
        return [1e3 * (spans[i][3] - spans[i][2]) for i in indices]

    m = {f"{layer}.self_s": float(sum(own[i] for i, s in enumerate(spans) if s[1] == layer))
         for layer in LAYERS}
    m["lattice.calls"] = sum(1 for s in spans if s[1] == "lattice")

    solves = by_name["spectra.lowest_eigenpairs"]
    k1 = [i for i in solves if spans[i][5].get("k") == 1]
    kn = [i for i in solves if spans[i][5].get("k", 1) > 1]
    main = total("cli.main")
    m.update({
        "spectra.calls_k1": len(k1),
        "spectra.calls_kN": len(kn),
        "spectra.k1_ms_p50": _pct(ms(k1), 50),
        "spectra.k1_ms_p90": _pct(ms(k1), 90),
        "spectra.kN_ms_p50": _pct(ms(kn), 50),
        "spectra.share": m["spectra.self_s"] / main if main else 0.0,
        "twostate.doublet_solves": sum(1 for i in kn if spans[i][5]["k"] == 2),
    })

    points = count("constrain.effective_potential", "points")
    constrained = sum(1 for i in solves if _has_ancestor_in(spans, i, "constrain"))
    point_ms = ms(by_name["constrain.solve_lambda"])
    m.update({
        "constrain.points": points,
        "constrain.failed_points": count("constrain.effective_potential", "failed"),
        "constrain.eigensolves_per_point": constrained / points if points else 0.0,
        "constrain.point_ms_p50": _pct(point_ms, 50),
        "constrain.point_ms_p90": _pct(point_ms, 90),
    })

    engine_s = total("sampling.sample_ensemble")
    chain_steps = count("sampling.sample_ensemble", "chain_steps")
    m.update({
        "thermal.table_s": total("thermal.table_for_betas"),
        "thermal.grid_points": count("thermal.table_for_betas", "grid_points"),
        "thermal.curve_s": total("thermal.fluctuation_curve"),
        "thermal.betas": count("thermal.fluctuation_curve", "betas"),
        "thermal.marginal_s": total("thermal.position_marginal"),
        "sampling.model_s": total("sampling.build_truncated_model"),
        "sampling.engine_s": engine_s,
        "sampling.chain_steps": chain_steps,
        "sampling.chain_steps_per_s": chain_steps / engine_s if engine_s else 0.0,
        "sampling.iat_s": total("sampling.integrated_autocorrelation"),
        "cli.config_s": total("cli.load_config"),
    })

    wrapped = set(wrapped)
    layers_seen = {name.split(".")[0] for name in wrapped}
    missing = sorted(metric for metric, source in SOURCES.items()
                     if source not in wrapped and source not in layers_seen)
    return m, missing
