"""Span tracing around the library's public functions, kept in memory.

`Tracer.install` wraps every public function defined in the layer
modules and rebinds every module attribute that refers to one of them,
including names other modules imported with `from .cone import spectral`,
so calls between layers are recorded too. Each call records a span:
name, start, end, parent span, job index, whether it raised, and a
work count for the functions whose result carries one (fixed-point
iterations, simulated or filtered steps). Nothing is written until
`save`, after the timed region.

A span's self time is its duration minus its child spans' durations;
calls are sequential, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("cone", "statespace", "riccati", "bounds", "sim", "cli")


def _fixed_point_iterations(result, exc) -> int:
    if exc is None:
        return result.iterations
    # ConeExitError carries the step it broke at, IterationLimitError the cap.
    return getattr(exc, "step", None) or getattr(exc, "iterations", None) or 0


def _steps(result, exc) -> int:
    return 0 if exc is not None else len(result.innovations)


WORK = {
    "riccati.fixed_point": _fixed_point_iterations,
    "sim.simulate": lambda result, exc: 0 if exc is not None else result.T,
    "sim.run_filter": _steps,
    "sim.run_observer": _steps,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.work = array("q")
        self.current_job = -1
        self._stack = [-1]
        self._saved = []

    def _wrap(self, name: str, fn, work):
        name_id = len(self.names)
        self.names.append(name)
        names, parents, jobs, starts, ends, raised, works = (
            self.name, self.parent, self.job, self.start, self.end, self.raised, self.work
        )
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            jobs.append(self.current_job)
            raised.append(0)
            works.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[i] = perf_counter()
                stack.pop()
                raised[i] = 1
                if work is not None:
                    works[i] = work(None, exc)
                raise
            ends[i] = perf_counter()
            stack.pop()
            if work is not None:
                works[i] = work(result, None)
            return result

        return traced

    def install(self, package) -> None:
        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self._wrap(name, obj, WORK.get(name))
        for module in [package, *modules]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def _arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.intc),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "job": np.frombuffer(self.job, dtype=np.intc),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "raised": np.frombuffer(self.raised, dtype=np.int8),
            "work": np.frombuffer(self.work, dtype=np.int64),
        }

    def layer_metrics(self) -> dict:
        """Per-layer counts, inclusive and self times, and waste ratios."""
        a = self._arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        self_time = dur.copy()
        np.subtract.at(self_time, parent[has_parent], dur[has_parent])
        ids = {n: i for i, n in enumerate(self.names)}

        def mask(fn):
            return name == ids.get(fn, -1)

        def calls(fn):
            return int(np.count_nonzero(mask(fn)))

        def seconds(fn):
            return float(dur[mask(fn)].sum())

        span_layer = np.array([LAYERS.index(n.split(".")[0]) for n in self.names],
                              dtype=np.intc)[name]

        def layer_self(layer):
            return float(self_time[span_layer == LAYERS.index(layer)].sum())

        fp = mask("riccati.fixed_point")
        iterations = int(a["work"][fp].sum())
        useful = int(a["work"][fp & (a["raised"] == 0)].sum())
        # Spans are recorded parent first, so one forward sweep marks
        # every span with a fixed_point ancestor.
        fp_id = ids.get("riccati.fixed_point", -1)
        under_fp = [False] * len(name)
        names_list = name.tolist()
        for i, p in enumerate(parent.tolist()):
            if p >= 0:
                under_fp[i] = under_fp[p] or names_list[p] == fp_id
        spectral_in_fp = int(np.count_nonzero(mask("cone.spectral") & np.array(under_fp, dtype=bool)))
        bs_id = ids.get("riccati.breakdown_search", -1)
        probes = int(np.count_nonzero(fp & has_parent & (name[np.maximum(parent, 0)] == bs_id)))
        screened = calls("bounds.spectral_radius")

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "cone.spectral.calls": calls("cone.spectral"),
            "cone.spectral.self_s": float(self_time[mask("cone.spectral")].sum()),
            "cone.symmetrize.calls": calls("cone.symmetrize"),
            "cone.riemann_distance.calls": calls("cone.riemann_distance"),
            "cone.self_s": layer_self("cone"),
            "statespace.build_block_model.calls": calls("statespace.build_block_model"),
            "statespace.build_block_model.s": seconds("statespace.build_block_model"),
            "statespace.tau_N.calls": calls("statespace.tau_N"),
            "statespace.tau_N.s": seconds("statespace.tau_N"),
            "statespace.theta_N.s": seconds("statespace.theta_N"),
            "statespace.self_s": layer_self("statespace"),
            "riccati.rs_riccati_map.calls": calls("riccati.rs_riccati_map"),
            "riccati.rs_gain.calls": calls("riccati.rs_gain"),
            "riccati.fixed_point.calls": calls("riccati.fixed_point"),
            "riccati.fixed_point.s": seconds("riccati.fixed_point"),
            "riccati.fixed_point.iterations": iterations,
            "riccati.fixed_point.raised": int(np.count_nonzero(fp & (a["raised"] == 1))),
            "riccati.fixed_point.useful_iter_frac": ratio(useful, iterations),
            "riccati.spectral_per_iteration": ratio(spectral_in_fp, iterations),
            "riccati.breakdown_search.s": seconds("riccati.breakdown_search"),
            "riccati.breakdown_search.probes": probes,
            "riccati.self_s": layer_self("riccati"),
            "bounds.bound_search.s": seconds("bounds.bound_search"),
            "bounds.spectral_radius.calls": screened,
            "bounds.beta_rho.calls": calls("bounds.beta_rho"),
            "bounds.feasible_ratio": ratio(calls("bounds.beta_rho"), screened),
            "bounds.lyapunov_sigma.calls": calls("bounds.lyapunov_sigma"),
            "bounds.lyapunov_sigma.s": seconds("bounds.lyapunov_sigma"),
            "bounds.self_s": layer_self("bounds"),
            "sim.simulate.s": seconds("sim.simulate"),
            "sim.run_filter.s": seconds("sim.run_filter"),
            "sim.run_observer.s": seconds("sim.run_observer"),
            "sim.steps": int(sum(a["work"][mask(f)].sum()
                                 for f in ("sim.simulate", "sim.run_filter", "sim.run_observer"))),
            "sim.self_s": layer_self("sim"),
            "cli.main.s": seconds("cli.main"),
            "cli.self_s": layer_self("cli"),
        }

    def save(self, path: Path, extra: dict) -> None:
        """Write every span (compressed arrays) and `extra` (JSON) next to it."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path.with_suffix(".npz"), names=np.array(self.names), **self._arrays())
        path.with_suffix(".json").write_text(json.dumps(extra, indent=2, sort_keys=True) + "\n")
