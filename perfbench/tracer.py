"""Spans around the public functions of each kljn module, recorded from outside.

`Tracer.install()` replaces each listed function, at every kljn module binding
that refers to it (the names callers resolve at call time, for example
`kljn.protocol.synth_band_limited`), with a wrapper that records a span. No
file of the package changes; `uninstall()` puts the originals back. Spans stay
in memory. Spans recorded inside forked worker processes are lost with the
worker, so a traced pass with a process pool sees only the parent's layers.
"""

from __future__ import annotations

import functools
import math
import sys
from time import perf_counter

from kljn.estimator import measurement_slice

# layer -> (module, attribute) of each traced function; "Class.method" for methods
LAYERS = {
    "noise.rng": [("noise", "rng_for_period")],
    "noise.synth": [("noise", "synth_band_limited")],
    "noise.periodogram": [("noise", "periodogram")],
    "circuit.solve": [("circuit", "channel_waveforms"), ("circuit", "LoopState.from_bits")],
    "estimator.measure": [("estimator", "measure_period")],
    "decision": [
        ("decision", name)
        for name in ("make_bands", "interpret_voltage", "interpret_current", "combine")
    ],
    "config": [
        ("config", "parse_config"),
        ("config", "load_config"),
        ("config", "with_overrides"),
        ("config", "SystemConfig.config_hash"),
        ("config", "SystemConfig.bands"),
    ],
    "analytic": [
        ("analytic", name)
        for name in (
            "rice_rate",
            "upcrossing_rate_flat",
            "epsilon_current_11",
            "epsilon_current_00",
            "epsilon_voltage",
            "epsilon_combined",
            "epsilon_analytic",
        )
    ],
    "protocol": [("protocol", "run_session")],
    "protocol.keys": [("protocol", "extract_key"), ("protocol", "key_to_hex")],
    "cli": [("cli", "main")],
}


def _synth_samples(spec, rng):
    return spec.n_samples


def _measured_samples(u_c, i_c):
    return 2 * len(range(*measurement_slice(len(u_c)).indices(len(u_c))))


def _workers(*args, **kwargs):
    return kwargs.get("workers", 1)


# layer -> function of the call's arguments giving the count kept on its span
_COUNTS = {
    "noise.synth": _synth_samples,
    "estimator.measure": _measured_samples,
    "protocol": _workers,
}


class Tracer:
    """Records spans as [layer, start, end, parent index, count]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def _wrap(self, layer, fn):
        spans, stack, count = self.spans, self._stack, _COUNTS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                if count is not None:
                    span[4] = count(*args, **kwargs)

        return traced

    def install(self):
        modules = [m for name, m in sys.modules.items() if name == "kljn" or name.startswith("kljn.")]
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                owner = sys.modules[f"kljn.{module_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self._wrap(layer, raw.__func__)))
                    else:
                        setattr(cls, meth, self._wrap(layer, raw))
                    self._undo.append((cls, meth, raw))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, original)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapper)
                            self._undo.append((module, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def mark(self) -> int:
        """Index of the next span, to summarize only the spans recorded after it."""
        return len(self.spans)

    def summary(self, start: int = 0) -> dict:
        """Per-layer calls, total and self seconds, and counts of spans[start:]."""
        spans = self.spans[start:]
        child = [0.0] * len(spans)
        for layer, t0, t1, parent, _ in spans:
            if parent >= start:
                child[parent - start] += t1 - t0
        out = {layer: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": []} for layer in LAYERS}
        for (layer, t0, t1, _, count), inner in zip(spans, child):
            row = out[layer]
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - inner
            if count is not None:
                row["counts"].append((count, t1 - t0))
        return out


def layer_metrics(summary: dict) -> dict:
    """Per-layer metric values (unit-less numbers) from a Tracer summary."""
    synth = summary["noise.synth"]
    n_synth = [n for n, _ in synth["counts"]]
    samples = sum(n_synth)
    measured = sum(n for n, _ in summary["estimator.measure"]["counts"])
    return {
        "noise.rng.calls": summary["noise.rng"]["calls"],
        "noise.rng.self_s": summary["noise.rng"]["self_s"],
        "noise.synth.calls": synth["calls"],
        "noise.synth.self_s": synth["self_s"],
        "noise.synth.samples": samples,
        # float64 output plus complex128 spectrum materialized per call (computed, not measured)
        "noise.synth.bytes_computed": sum(8 * n + 16 * (n // 2 + 1) for n in n_synth),
        "noise.fft.flops_computed": sum(5.0 * n * math.log2(n) for n in n_synth),
        "noise.periodogram.self_s": summary["noise.periodogram"]["self_s"],
        "circuit.solve.calls": summary["circuit.solve"]["calls"],
        "circuit.solve.self_s": summary["circuit.solve"]["self_s"],
        "estimator.measure.calls": summary["estimator.measure"]["calls"],
        "estimator.measure.self_s": summary["estimator.measure"]["self_s"],
        "estimator.used_sample_ratio": measured / samples if samples else 0.0,
        "decision.calls": summary["decision"]["calls"],
        "decision.self_s": summary["decision"]["self_s"],
        "config.calls": summary["config"]["calls"],
        "config.self_s": summary["config"]["self_s"],
        "analytic.calls": summary["analytic"]["calls"],
        "analytic.self_s": summary["analytic"]["self_s"],
        "protocol.self_s": summary["protocol"]["self_s"],
        "protocol.keys.self_s": summary["protocol.keys"]["self_s"],
        "cli.self_s": summary["cli"]["self_s"],
    }
