"""Outside-in span tracing of the falcon layers.

The benchmark records spans from its own files only: ``instrument`` wraps,
at run time, every public function and method that a layer module defines,
in every module namespace that binds it, and puts the originals back on
exit. No file of the program changes. A name the program no longer defines
is simply not wrapped; the metrics that depend on it are left out (absent),
while a wrapped target that is never called reports zero.

Spans live in memory as four flat arrays (parent id, name id, start, end)
and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("ingest", "backbone", "encoder", "fusion", "training", "extract",
          "polarnet", "accel")

# Methods of these classes carry the layer name alone (``encoder.forward``);
# methods of other classes keep the class name (``training.AdamW.step``).
PRINCIPAL_CLASSES = {"EncoderBackbone", "DeterministicStubBackbone",
                     "ArBertEncoder", "FrozenTrajectoryExtractor",
                     "InteractionModel"}

# Called once per token: a span there costs more than the work it times.
SKIP = {"backbone.token_key"}

TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)


class Tracer:
    """Nested wall-clock spans and named counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self.hook_errors: dict[str, str] = {}
        self.wrapped: set[str] = set()
        self.passes = 0

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.end.append(math.nan)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.open(self.name_id(name))
        try:
            yield sid
        finally:
            self.close(sid)

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def add_distinct(self, name: str, key) -> None:
        self.distinct.setdefault(name, set()).add(key)

    def end_pass(self) -> None:
        """Close a traced pass: distinct-key sets become per-pass counts."""
        for name, keys in self.distinct.items():
            self.count(name, len(keys))
        self.distinct.clear()
        self.passes += 1

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self):
        """Copies of (parent, name, start, end); the tracer can keep recording."""
        return (np.array(self.parent, dtype=np.int64), np.array(self.name, dtype=np.int64),
                np.array(self.start, dtype=np.float64), np.array(self.end, dtype=np.float64))

    def save(self, path) -> None:
        parent, name, start, end = self.arrays()
        np.savez_compressed(path, parent=parent, name=name, start=start, end=end,
                            names=np.array(self.names, dtype=str))


def span_table(parent, name, start, end, n_names: int):
    """Per name: (calls, total seconds, self seconds).

    A span's self time is its duration minus the time its child spans
    cover; children of one span never overlap, so that is the sum of
    their durations.
    """
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    calls = np.bincount(name, minlength=n_names)
    total = np.bincount(name, weights=dur, minlength=n_names)
    self_s = np.bincount(name, weights=dur - child, minlength=n_names)
    return calls, total, self_s


def tail_percentile(values) -> tuple[float, float, int] | None:
    """The highest of TAIL_PERCENTILES with at least ten samples beyond it.

    Returns (percentile, value, samples beyond it) using the nearest-rank
    value, or None when fewer than twenty samples exist.
    """
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct * n / 100.0))
        beyond = n - rank
        if beyond >= 10:
            best = (pct, ordered[rank - 1], beyond)
    return best


# ---------------------------------------------------------------------------
# Counters taken from arguments and return values at the layer boundary.

def _encoder_input_key(segment, entities):
    return (segment.segment_id, segment.text,
            tuple((e.role, e.surface, tuple(e.occurrences)) for e in entities))


def _hook_encode(tr, args, kwargs, out):
    tr.count("backbone.tokens", len(args[1]))


def _hook_forward(tr, args, kwargs, out):
    tr.add_distinct("encoder.forward.inputs", _encoder_input_key(args[1], args[2]))


def _hook_candidates(tr, args, kwargs, out):
    tr.count("ingest.candidates", len(out))


def _hook_train(tr, args, kwargs, out):
    n_train = sum(1 for ex in args[1] if ex.split == "train")
    tr.count("training.epochs", len(out.history))
    tr.count("training.examples_seen", len(out.history) * n_train)


def _hook_pretrain(tr, args, kwargs, out):
    history = out[1]
    tr.count("training.epochs", len(history))
    tr.count("training.examples_seen", len(history) * len(args[0]))


def _hook_extract(tr, args, kwargs, out):
    tr.count("extract.positives", out.positives)
    tr.count("extract.skipped", out.skipped)


def _hook_typing(tr, args, kwargs, out):
    tr.count("extract.typing.defaulted", out.defaulted)
    tr.count("extract.typing.unclassified", out.unclassified)


def _hook_rewire(tr, args, kwargs, out):
    n_nodes, target = int(args[3]), int(args[4])
    accepted = int(out[3])
    tr.count("accel.swaps.accepted", accepted)
    tr.count("accel.swaps.target", target)
    tr.count("accel.swaps.short_samples", int(accepted < target))
    tr.peak("accel.adjacency_bytes", n_nodes * n_nodes)


# span -> (hook, the count metrics it feeds; 0 when wrapped but never called)
HOOKS = {
    "backbone.encode": (_hook_encode, ("backbone.tokens",)),
    "encoder.forward": (_hook_forward, ("encoder.forward.distinct_inputs",)),
    "ingest.generate_candidates": (_hook_candidates, ("ingest.candidates",)),
    "training.train": (_hook_train, ("training.epochs", "training.examples_seen")),
    "training.pretrain_trajectory_extractor": (
        _hook_pretrain, ("training.epochs", "training.examples_seen")),
    "extract.extract_corpus": (_hook_extract, ("extract.positives", "extract.skipped")),
    "extract.classify_records": (
        _hook_typing, ("extract.typing.defaulted", "extract.typing.unclassified")),
    "accel.rewire_edges": (_hook_rewire, ("accel.swaps.short_samples",)),
}


def _traced(tracer: Tracer, span_name: str, fn):
    nid = tracer.name_id(span_name)
    hook = HOOKS.get(span_name, (None,))[0]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if hook is not None and span_name not in tracer.hook_errors:
            try:
                hook(tracer, args, kwargs, out)
            except Exception as exc:  # a changed signature must not stop the run
                tracer.hook_errors[span_name] = f"{type(exc).__name__}: {exc}"
        return out

    return traced


def _is_target(obj) -> bool:
    return callable(obj) and not inspect.isclass(obj) and not inspect.ismodule(obj)


def targets():
    """(owner, attribute, original, span name) for every wrap target."""
    layer_of = {f"falcon.{layer}": layer for layer in LAYERS}
    found = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == "falcon" or mod_name.startswith("falcon.")):
            continue
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_") or not _is_target(obj):
                continue
            layer = layer_of.get(getattr(obj, "__module__", None))
            if layer and f"{layer}.{attr}" not in SKIP:
                found.append((mod, attr, obj, f"{layer}.{attr}"))
    for mod_name, layer in layer_of.items():
        mod = sys.modules.get(mod_name)
        if mod is None:
            continue
        for cls in vars(mod).values():
            if not inspect.isclass(cls) or cls.__module__ != mod_name:
                continue
            prefix = layer if cls.__name__ in PRINCIPAL_CLASSES else f"{layer}.{cls.__name__}"
            for attr, raw in sorted(vars(cls).items()):
                func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if (attr.startswith("_") or not inspect.isfunction(func)
                        or getattr(func, "__isabstractmethod__", False)):
                    continue
                if f"{prefix}.{attr}" not in SKIP:
                    found.append((cls, attr, raw, f"{prefix}.{attr}"))
    return found


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it."""
    patched = []
    try:
        for owner, attr, raw, span_name in targets():
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(_traced(tracer, span_name, raw.__func__))
            else:
                wrapped = _traced(tracer, span_name, raw)
            setattr(owner, attr, wrapped)
            patched.append((owner, attr, raw))
            tracer.wrapped.add(span_name)
        yield
    finally:
        for owner, attr, raw in reversed(patched):
            setattr(owner, attr, raw)


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced run, per traced pass.

def _durations_ms(tracer: Tracer, span_name: str):
    nid = tracer._name_ids.get(span_name)
    if nid is None:
        return []
    _, name, start, end = tracer.arrays()
    picked = name == nid
    return list((end[picked] - start[picked]) * 1e3)


def layer_metrics(tracer: Tracer, untraced_walls, commands: dict, traced_walls):
    """Per-layer metrics and the per-span table, both per traced pass.

    A span that was wrapped but never called counts zero calls and
    seconds, and the counters its hook feeds count zero. A metric of a
    target that was not wrapped, or whose hook failed, is left out (absent);
    so is a ratio or percentile with nothing to take it from.
    """
    n = max(1, tracer.passes)
    metrics: dict[str, dict] = {}

    def put(name, value, unit):
        metrics[name] = {"value": float(value), "unit": unit}

    parent, name, start, end = tracer.arrays()
    calls, total, self_s = span_table(parent, name, start, end, len(tracer.names))
    table = {}
    for nid, span in enumerate(tracer.names):
        if calls[nid]:
            table[span] = {"calls": calls[nid] / n, "s": total[nid] / n,
                           "self_s": self_s[nid] / n}
            if span == "pass" or span.startswith("cli."):
                continue  # cli.<command>.s comes from the untraced passes below
            put(f"{span}.calls", calls[nid] / n, "count")
            put(f"{span}.s", total[nid] / n, "s")
            put(f"{span}.self_s", self_s[nid] / n, "s")
    for span in sorted(tracer.wrapped - set(table)):
        for suffix, unit in ((".calls", "count"), (".s", "s"), (".self_s", "s")):
            put(span + suffix, 0, unit)
    for span, (_, counters) in HOOKS.items():
        if span in tracer.wrapped and span not in tracer.hook_errors:
            for counter in counters:
                put(counter, 0, "count")
    for counter, value in tracer.counters.items():
        put(counter, value / n, "count")
    if "accel.adjacency_bytes" in tracer.peaks:
        put("accel.adjacency_bytes", tracer.peaks["accel.adjacency_bytes"], "B_computed")

    def per_pass(span):
        return table.get(span, {}).get("calls", 0.0)

    if "encoder.forward.inputs" in tracer.counters:
        distinct = tracer.counters["encoder.forward.inputs"] / n
        put("encoder.forward.distinct_inputs", distinct, "count")
        if per_pass("encoder.forward"):
            put("encoder.forward.useful_ratio", distinct / per_pass("encoder.forward"),
                "ratio")
    if per_pass("fusion.features") and per_pass("training.forward_candidate"):
        put("fusion.features.per_candidate",
            per_pass("fusion.features") / per_pass("training.forward_candidate"), "ratio")
    llm_spans = [s for s in tracer.wrapped
                 if s.startswith("extract.") and s.endswith(".complete")]
    if llm_spans:
        llm_calls = sum(per_pass(s) for s in llm_spans)
        put("extract.llm.calls", llm_calls, "count")
        put("extract.llm.retries", llm_calls - per_pass("extract.classify_type"), "count")
    if tracer.counters.get("accel.swaps.target"):
        put("accel.swaps.accept_ratio",
            tracer.counters["accel.swaps.accepted"] / tracer.counters["accel.swaps.target"],
            "ratio")
    for span in ("training.predict", "accel.rewire_edges"):
        durations = _durations_ms(tracer, span)
        if durations:
            put(f"{span}.p50_ms", float(np.median(durations)), "ms")
        tail = tail_percentile(durations)
        if tail is not None:
            pct, value, beyond = tail
            put(f"{span}.tail_ms", value, "ms")
            put(f"{span}.tail_pct", pct, "%")
            put(f"{span}.tail_beyond", beyond, "count")
    if "accel.rewire_edges" in table and traced_walls:
        put("accel.rewire_edges.self_share",
            table["accel.rewire_edges"]["self_s"] * n / sum(traced_walls), "ratio")
    from falcon import accel

    put("accel.numba_active", int(bool(accel.NUMBA_ACTIVE)), "count")
    for command, seconds in commands.items():
        put(f"cli.{command}.s", float(np.median(seconds)), "s")
    if traced_walls and untraced_walls:
        put("trace.overhead_frac",
            float(np.median(traced_walls)) / float(np.median(untraced_walls)) - 1.0, "ratio")
    put("trace.spans", len(tracer) / n, "count")
    return metrics, table
