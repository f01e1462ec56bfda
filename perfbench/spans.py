"""Span recorder for the traced run.

The recorder wraps qpcomm's public functions from the outside: every module
attribute that is bound to a wrapped function (``qpcomm.metrics.chamfer``,
``qpcomm.codec.voxelize``, ...) is replaced by a recording wrapper, so calls
made inside the package are seen under the layer that defines them.  Nothing
under ``src/`` changes; ``uninstall`` puts the original bindings back.

A span records its name, start and end (``perf_counter_ns``), the span that
called it and the counts taken at that layer boundary.  Counts are computed
after the call returns, inside a ``trace.count`` span of their own, so the
cost of counting shows as tracing overhead and not as a layer's self time.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

COUNT_SPAN = "trace.count"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: int
    end: int = 0
    counts: dict = field(default_factory=dict)
    error: str | None = None  # exception class name, when the call raised


# --- counts taken at each boundary after a call returns: f(args, result) -> dict

def _quantize_counts(args, result):
    codebook, vectors = args[0], np.asarray(args[1])
    idx = result[0]
    n = int(idx.size)
    return {
        "madds": n * codebook.k * codebook.dim,
        "nnz": int(np.count_nonzero(vectors)),
        "elements": n * codebook.dim,
        "codes_used": int(np.unique(idx).size),
        "codes": codebook.k,
    }


def _train_counts(args, result):
    trace = result.trace
    return {
        "iters": len(trace.errors) - 1,  # the last entry is the final pass
        "refreshes": len(trace.refresh_iters),
        "dead_entries": int((result.usage == 0).sum()),
    }


def _chamfer_counts(args, result):
    return {"points": len(args[0]) + len(args[1])}


def _voxelize_counts(args, result):
    return {"points": len(args[0]), "dropped": int(result.dropped)}


def _fill_counts(args, result):
    mask = args[1]
    return {"cells_lost": mask.n_lost, "cells": int(mask.lost.size)}


def _decode_counts(args, result):
    return {"points": len(result)}


def _packetize_counts(args, result):
    return {"packets": len(result)}


def _transmit_counts(args, result):
    report = result[1]
    return {"sent": report.packets_sent, "dropped": report.packets_dropped}


# layer name -> (defining module, function, counter or None)
LAYERS = {
    "quantizer.quantize": ("qpcomm.quantizer", "quantize", _quantize_counts),
    "quantizer.train_codebook": ("qpcomm.quantizer", "train_codebook", _train_counts),
    "quantizer.train_dual": ("qpcomm.quantizer", "train_dual", None),
    "metrics.chamfer": ("qpcomm.metrics", "chamfer", _chamfer_counts),
    "metrics.evaluate_roundtrip": ("qpcomm.metrics", "evaluate_roundtrip", None),
    "metrics.sweep": ("qpcomm.metrics", "sweep", None),
    "geometry.voxelize": ("qpcomm.geometry", "voxelize", _voxelize_counts),
    "geometry.patchify": ("qpcomm.geometry", "patchify", None),
    "geometry.unpatchify": ("qpcomm.geometry", "unpatchify", None),
    "geometry.assemble_grid": ("qpcomm.geometry", "assemble_grid", None),
    "codec.encode": ("qpcomm.codec", "encode", None),
    "codec.decode_vectors": ("qpcomm.codec", "decode_vectors", _decode_counts),
    "codec.occupancy_bce": ("qpcomm.codec", "occupancy_bce", None),
    "codec.intensity_mse": ("qpcomm.codec", "intensity_mse", None),
    "tolerance.fill": ("qpcomm.tolerance", "fill", _fill_counts),
    "wire.serialize": ("qpcomm.wire", "serialize", None),
    "wire.packetize": ("qpcomm.wire", "packetize", _packetize_counts),
    "wire.reassemble": ("qpcomm.wire", "reassemble", None),
    "wire.deserialize": ("qpcomm.wire", "deserialize", None),
    "channel.transmit": ("qpcomm.channel", "transmit", _transmit_counts),
}


class Tracer:
    """Collects spans while ``recording`` is set; wrappers pass straight
    through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.recording = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def active(self):
        """Record the calls made inside the block."""
        self.recording = True
        try:
            yield
        finally:
            self.recording = False

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)
            if counter is not None:
                counting = self._open(COUNT_SPAN)
                try:
                    span.counts = counter(args, result)
                finally:
                    self._close(counting)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every qpcomm attribute that refers to a layer function.  A
        layer missing from the program is skipped and reads 0 in the report."""
        for name, (module, attr, counter) in LAYERS.items():
            original = getattr(importlib.import_module(module), attr, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "qpcomm" or mod_name.startswith("qpcomm.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> its duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, cursor = 0, s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def subtree(spans: list[Span], root: Span) -> list[Span]:
    """The root and all spans it caused, in recording order."""
    members = {root.id}
    out = [root]
    for s in spans[root.id + 1 :]:
        if s.parent in members:
            members.add(s.id)
            out.append(s)
    return out


def per_layer(tracer: Tracer, untraced_s: list[float], traced_s: list[float]) -> tuple[dict, bool]:
    """Per-layer metrics from the recorded ops, and whether every root's
    self time plus its descendants' self times equals the root's span.

    ``.ms`` is self time per op; counts are per op; ratios are taken over
    the totals of all traced ops."""
    spans = tracer.spans
    roots = [s for s in spans if s.parent is None]
    n_ops = max(len(roots), 1)
    selfs = self_times(spans)
    consistent = bool(roots)
    ms = defaultdict(float)
    counts = defaultdict(lambda: defaultdict(int))
    for root in roots:
        members = subtree(spans, root)
        consistent &= sum(selfs[s.id] for s in members) == root.end - root.start
        for s in members:
            ms[s.name] += selfs[s.id] / 1e6
            counts[s.name]["calls"] += 1
            for key, value in s.counts.items():
                counts[s.name][key] += value
            # reassembly raises when the header was lost
            if s.name == "wire.reassemble" and s.error == "IncompleteFrameError":
                counts[s.name]["incomplete"] += 1

    def per_op(layer, key):
        return counts[layer][key] / n_ops

    def ratio(layer, num, den, num_layer=None):
        d = counts[layer][den]
        return counts[num_layer or layer][num] / d if d else 0.0

    out = {f"{name}.ms": ms[name] / n_ops for name in LAYERS}
    out.update({
        "quantizer.quantize.calls": per_op("quantizer.quantize", "calls"),
        "quantizer.quantize.madds": per_op("quantizer.quantize", "madds"),
        "quantizer.quantize.nnz_ratio": ratio("quantizer.quantize", "nnz", "elements"),
        "quantizer.quantize.codes_used_ratio": ratio(
            "quantizer.quantize", "codes_used", "codes"),
        "quantizer.train_codebook.iters": per_op("quantizer.train_codebook", "iters"),
        "quantizer.train_codebook.refreshes": per_op("quantizer.train_codebook", "refreshes"),
        "quantizer.train_codebook.dead_entries": per_op(
            "quantizer.train_codebook", "dead_entries"),
        "metrics.chamfer.points": per_op("metrics.chamfer", "points"),
        "geometry.voxelize.calls": per_op("geometry.voxelize", "calls"),
        "geometry.voxelize.points": per_op("geometry.voxelize", "points"),
        "geometry.voxelize.dropped": per_op("geometry.voxelize", "dropped"),
        "codec.encode.calls": per_op("codec.encode", "calls"),
        "codec.decode_vectors.points": per_op("codec.decode_vectors", "points"),
        "tolerance.fill.cells_lost_ratio": ratio("tolerance.fill", "cells_lost", "cells"),
        "wire.serialize.calls": per_op("wire.serialize", "calls"),
        "wire.packetize.packets": per_op("wire.packetize", "packets"),
        "wire.reassemble.incomplete": per_op("wire.reassemble", "incomplete"),
        "channel.transmit.drop_ratio": ratio("channel.transmit", "dropped", "sent"),
        "wire.cells_lost_per_packet_dropped": ratio(
            "channel.transmit", "cells_lost", "dropped", num_layer="tolerance.fill"),
        "trace.overhead_ratio": (
            float(np.median(traced_s)) / float(np.median(untraced_s))
            if traced_s and untraced_s else 0.0
        ),
    })
    return out, consistent
