"""In-memory span tracing of calls into ductflow's modules.

A span is recorded around a call by replacing the module attribute its
caller looks up (``ductflow.presets.run``, ``ductflow.presets.emit_table``
and so on) with a timing wrapper; the package source is not changed.  Each
span has a name ``<module>.<function>``, a start, an end and the span that
was open when it began (calls are made from one thread).  Work counters
that the call's arguments determine are attached to the span after it ends.
Where listed, the first ``ALLOC_SAMPLES`` calls of a site (per ``method``
argument, where the function takes one) also record their ``tracemalloc``
peak; later calls are not traced for memory, because
``tracemalloc`` slows Python-level allocation several-fold.  Spans stay in
memory until the job writes them out.
"""

from __future__ import annotations

import functools
import inspect
import time
import tracemalloc
from pathlib import Path

import numpy as np

__all__ = ["LAYERS", "Tracer", "install", "layer_metrics"]

#: Calls per site whose peak allocation is recorded.
ALLOC_SAMPLES = 3

#: The package modules a job's spans fall in (a span's layer is the first
#: part of its name); ``oracles`` is called only by the checks.
LAYERS = ("cli", "presets", "config", "duct", "impulse", "particles", "ook", "output")


class Tracer:
    """Records spans around wrapped calls."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._paused = False

    def wrap(self, module, attr: str, name: str, counters=None,
             track_alloc: bool = False) -> None:
        """Replace ``module.attr`` with a wrapper that records a span per call.

        ``counters(result, **arguments)`` returns work counts for the span;
        it runs after the span ends, with recording paused so that calls it
        makes into the package leave no spans.  A missing attribute is
        skipped, and a counter that no longer fits the call's signature is
        noted on the span, so the benchmark keeps running when the package
        changes.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            return
        signature = inspect.signature(fn)
        alloc_done: dict[str, int] = {}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = {"id": len(self.spans), "name": name,
                    "parent": self._open[-1] if self._open else None}
            self.spans.append(span)
            self._open.append(span["id"])
            alloc = False
            if track_alloc and not tracemalloc.is_tracing():
                key = str(signature.bind(*args, **kwargs).arguments.get("method"))
                alloc = alloc_done.get(key, 0) < ALLOC_SAMPLES
                alloc_done[key] = alloc_done.get(key, 0) + alloc
            if alloc:
                tracemalloc.start()
            cpu = time.process_time()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["cpu_s"] = time.process_time() - cpu
                if alloc:
                    span["peak_alloc_b"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._open.pop()
            if counters is not None:
                self._paused = True
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.update(counters(result, **bound.arguments))
                except (TypeError, AttributeError, KeyError) as exc:
                    span["counter_error"] = repr(exc)
                finally:
                    self._paused = False
            return result

        setattr(module, attr, traced)


# -- work counters, computed from a call's arguments ("computed" counts) ----

def _sim_counts(config, extra_steps=0):
    steps = max(int(config.n_steps), extra_steps)
    particle_steps = int(config.release.n_tx) * steps
    normals = 3 * particle_steps if config.channel.diffusion_D > 0.0 else 0
    return {"particle_steps": particle_steps, "normals": normals}


def _run_counters(result, config, threads=1, snapshot_times=(), **_):
    snap = max((round(t / config.time_step) for t in snapshot_times), default=0)
    return {**_sim_counts(config, snap), "threads": threads}


def _mask_lambdas(link) -> np.ndarray:
    k = link.seq_len_K
    bits = (np.arange(2 ** k)[:, None] >> np.arange(k)) & 1
    return link.noise_mean_Nn + link.n_tx * (bits @ link.isi_probabilities())


def _table_bytes(link, method) -> dict:
    """Bytes of the dense table a threshold search or SER enumeration builds."""
    thresholds = link.n_tx + 1
    if method.value == "binomial_analytic":
        return {"sf_bytes": 2 ** link.seq_len_K * thresholds * 8}
    return {"cdf_bytes": thresholds * np.unique(_mask_lambdas(link)).size * 8}


def _threshold_counters(result, link, method, **_):
    return {"method": method.value, "thresholds": link.n_tx + 1,
            **_table_bytes(link, method)}


def _analytic_counters(result, link, method, **_):
    counts = {"method": method.value}
    if method.value == "binomial_analytic":
        counts.update(_table_bytes(link, method))
    return counts


def _mc_counters(result, link, realizations, method, **_):
    return {"method": method.value, "symbols": realizations * link.seq_len_K}


def _cir_counters(result, t, **_):
    return {"points": int(np.size(t))}


def _emit_counters(result, table, **_):
    return {"rows": len(table.rows), "bytes": Path(result).stat().st_size}


_ACTIONS = ("regime_action", "cir_action", "simulate_action", "snapshot_action",
            "ser_action", "discard_partial_outputs")


def install(tracer: Tracer) -> None:
    """Wrap every call site of the CLI job path in ``tracer``."""
    from ductflow import cli, presets

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "load_config", "config.load_config")
    tracer.wrap(cli, "preset_config", "presets.preset_config")
    tracer.wrap(cli, "_run_preset", "presets.run_preset")
    for name in _ACTIONS:
        tracer.wrap(cli, name, f"presets.{name}")
        tracer.wrap(presets, name, f"presets.{name}")
    tracer.wrap(presets, "load_config", "config.load_config")
    tracer.wrap(presets, "classify_regime", "duct.classify_regime")
    for name in ("cir_dispersion", "cir_flow_uniform", "cir_flow_point"):
        tracer.wrap(presets, name, "impulse.cir", _cir_counters)
    for name in ("dispersion_peak_time", "dispersion_peak_value", "flow_transit_times"):
        tracer.wrap(presets, name, f"impulse.{name}")
    tracer.wrap(presets, "run", "particles.run", _run_counters)
    tracer.wrap(presets, "optimal_threshold", "ook.optimal_threshold",
                _threshold_counters, track_alloc=True)
    tracer.wrap(presets, "ser_analytic", "ook.ser_analytic", _analytic_counters,
                track_alloc=True)
    tracer.wrap(presets, "ser_monte_carlo", "ook.ser_monte_carlo", _mc_counters)
    tracer.wrap(presets, "emit_table", "output.emit_table", _emit_counters)


# -- per-layer metrics from one job's spans ---------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den > 0.0 else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced job.

    ``busy_s`` is the summed duration of a call's spans, ``self_s`` the part
    not covered by child spans; the self times of all spans add up to the
    root spans' duration.
    """
    self_s = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            self_s[s["parent"]] -= s["end"] - s["start"]

    def select(name, method=None):
        return [s for s in spans if s["name"] == name
                and (method is None or s.get("method") == method)]

    def busy(selected):
        return sum(s["end"] - s["start"] for s in selected)

    def total(selected, key):
        return sum(s.get(key, 0) for s in selected)

    def peak(selected, key, scale=1.0):
        return max((s.get(key, 0) for s in selected), default=0) * scale

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(self_s[s["id"]] for s in spans
                                   if s["name"].split(".")[0] == layer)

    runs = select("particles.run")
    m["particles.run.calls"] = len(runs)
    m["particles.run.busy_s"] = busy(runs)
    m["particles.run.particle_steps"] = total(runs, "particle_steps")
    m["particles.run.steps_per_s"] = _ratio(total(runs, "particle_steps"), busy(runs))
    m["particles.run.cpu_per_wall"] = _ratio(total(runs, "cpu_s"), busy(runs))

    m["particles.normals_drawn"] = total(runs, "normals")

    thr = select("ook.optimal_threshold")
    m["ook.optimal_threshold.calls"] = len(thr)
    m["ook.optimal_threshold.busy_s"] = busy(thr)
    m["ook.optimal_threshold.thresholds"] = total(thr, "thresholds")
    m["ook.optimal_threshold.cdf_bytes"] = peak(thr, "cdf_bytes")
    m["ook.optimal_threshold.peak_alloc_mb"] = peak(thr, "peak_alloc_b", 1e-6)

    poisson = select("ook.ser_analytic", "poisson_analytic")
    binomial = select("ook.ser_analytic", "binomial_analytic")
    m["ook.ser_analytic.poisson.busy_s"] = busy(poisson)
    m["ook.ser_analytic.binomial.busy_s"] = busy(binomial)
    m["ook.ser_analytic.binomial.sf_bytes"] = peak(binomial, "sf_bytes")
    m["ook.ser_analytic.binomial.peak_alloc_mb"] = peak(binomial, "peak_alloc_b", 1e-6)

    counts = select("ook.ser_monte_carlo", "monte_carlo_counts")
    m["ook.ser_monte_carlo.counts.busy_s"] = busy(counts)
    m["ook.ser_monte_carlo.counts.symbols"] = total(counts, "symbols")

    cirs = select("impulse.cir")
    m["impulse.cir.calls"] = len(cirs)
    m["impulse.cir.points"] = total(cirs, "points")
    m["impulse.cir.busy_s"] = busy(cirs)

    loads = select("config.load_config")
    m["config.load_config.calls"] = len(loads)
    m["config.load_config.busy_s"] = busy(loads)

    emits = select("output.emit_table")
    m["output.emit_table.calls"] = len(emits)
    m["output.emit_table.rows"] = total(emits, "rows")
    m["output.emit_table.bytes"] = total(emits, "bytes")
    m["output.emit_table.busy_s"] = busy(emits)

    m["duct.classify_regime.calls"] = len(select("duct.classify_regime"))
    m["trace.self_sum_s"] = sum(self_s.values())
    m["trace.counter_errors"] = sum("counter_error" in s for s in spans)
    return m
