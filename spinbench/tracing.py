"""Traced runs: spans around every call into the spinchains layers.

Each public function of the layer modules is replaced, in every spinchains
module namespace that holds it, by a wrapper that records a span: name,
start, end and the span that was open when it was called.  The namespaces
matter because the modules import one another's functions by name
(``spin.is_linked``, ``scattered.spin_lowest_k_type``,
``verify.multiplicity_in_induced``, ...), so patching only the defining
module would miss most calls.

Spans are kept in memory in flat arrays and written out once, after the
traced pass.  Generator functions are drained inside their span so that the
span covers the work and the items can be counted.  Spans of pooled
``batch_multiplicities`` are leaves: tracing is suspended inside them, and
the worker processes they fork inherit the suspension, so they run untraced.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("cli", "scattered", "chains", "spin", "lr", "verify")
LEAVES = frozenset({"verify.batch_multiplicities"})
SPAN_FIELDS = (("name", "i"), ("parent", "i"), ("start_ns", "q"), ("end_ns", "q"))


def _observe_interlaced(tracer, args, result):
    tracer.counts["chains.is_interlaced.true"] += bool(result)


def _observe_multiplicity(tracer, args, result):
    tracer.counts["lr.multiplicity_in_induced.zero"] += result == 0


def _observe_lr(tracer, args, result):
    tracer.counts["lr.lr_coefficient.nonzero"] += result != 0
    tracer.counts["lr.lr_coefficient.tableaux"] += result


def _observe_generate(tracer, args, result):
    tracer.params[args[0]] = len(result)


# results some per-layer metrics need, keyed by span name
OBSERVERS = {
    "chains.is_interlaced": _observe_interlaced,
    "lr.multiplicity_in_induced": _observe_multiplicity,
    "lr.lr_coefficient": _observe_lr,
    "scattered.generate": _observe_generate,
}


def self_times(parents, durations) -> list:
    """Each span's duration minus the durations of its direct children.

    Spans nest strictly, so the children of a span cover disjoint parts of
    its interval and their durations add up.
    """
    covered = [0] * len(durations)
    for parent, duration in zip(parents, durations):
        if parent >= 0:
            covered[parent] += duration
    return [d - c for d, c in zip(durations, covered)]


class Tracer:
    """Span recorder for one traced pass; install, run, uninstall, read."""

    def __init__(self):
        self.names: list[str] = []
        self.spans = {field: array(code) for field, code in SPAN_FIELDS}
        self.current = -1
        self.suspended = False
        self.counts: Counter = Counter()
        self.params: dict[int, int] = {}  # rank n -> parameters returned by generate(n)
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        drain = inspect.isgeneratorfunction(fn)
        leaf = name in LEAVES
        names, parents = self.spans["name"], self.spans["parent"]
        starts, ends = self.spans["start_ns"], self.spans["end_ns"]
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.suspended:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(tracer.current)
            ends.append(0)
            tracer.current = idx
            tracer.suspended = leaf
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = list(result)
            finally:
                ends[idx] = clock()
                tracer.suspended = False
                tracer.current = parents[idx]
            if drain:
                tracer.counts[f"{name}.items"] += len(result)
                return iter(result)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch the spinchains modules currently in sys.modules."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items() if name == "spinchains" or name.startswith("spinchains.")]
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"spinchains.{layer}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
                    self._undo.append((mod, attr, obj))

        chain_set = sys.modules["spinchains.chains"].ChainSet
        post_init = chain_set.__post_init__
        tracer = self

        def counting_post_init(cs):
            if not tracer.suspended:
                tracer.counts["chains.ChainSet.built"] += 1
            post_init(cs)

        chain_set.__post_init__ = counting_post_init
        self._undo.append((chain_set, "__post_init__", post_init))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, total seconds, self seconds)."""
        starts, ends = self.spans["start_ns"], self.spans["end_ns"]
        durations = [e - s for s, e in zip(starts, ends)]
        own = self_times(self.spans["parent"], durations)
        agg: dict[int, list[int]] = {}
        for nid, d, s in zip(self.spans["name"], durations, own):
            entry = agg.setdefault(nid, [0, 0, 0])
            entry[0] += 1
            entry[1] += d
            entry[2] += s
        return {self.names[nid]: (c, t / 1e9, s / 1e9) for nid, (c, t, s) in agg.items()}

    def write(self, path) -> None:
        """Gzip file: one JSON header line, then each span array's raw bytes in field order."""
        header = {
            "names": self.names,
            "spans": len(self.spans["name"]),
            "fields": [[field, code] for field, code in SPAN_FIELDS],
            "byteorder": sys.byteorder,
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in SPAN_FIELDS:
                fh.write(self.spans[field].tobytes())


def read_spans(path) -> tuple[dict, dict[str, array]]:
    """Inverse of Tracer.write: the header and the span arrays."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        spans = {}
        for field, code in header["fields"]:
            arr = array(code)
            arr.frombytes(fh.read(arr.itemsize * header["spans"]))
            if header["byteorder"] != sys.byteorder:
                arr.byteswap()
            spans[field] = arr
    return header, spans


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass: name -> (value, unit)."""
    summary = tracer.summary()
    counts = tracer.counts

    def calls(name):
        return summary.get(name, (0, 0.0, 0.0))[0]

    def total_s(name):
        return summary.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return summary.get(name, (0, 0.0, 0.0))[2]

    def ratio(num, den):
        return num / den if den else 0.0

    params = sum(tracer.params.values())
    return {
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "scattered.generate.calls": (calls("scattered.generate"), "count"),
        "scattered.generate.self_s": (self_s("scattered.generate"), "s"),
        "scattered.expand.calls": (calls("scattered.expand"), "count"),
        "scattered.count.calls": (calls("scattered.count"), "count"),
        "scattered.count.self_s": (self_s("scattered.count"), "s"),
        "scattered.build_record.calls": (calls("scattered.build_record"), "count"),
        "scattered.build_record.self_s": (self_s("scattered.build_record"), "s"),
        "scattered.brute_force_enumerate.self_s": (self_s("scattered.brute_force_enumerate"), "s"),
        "scattered.all_chain_decompositions.items": (counts["scattered.all_chain_decompositions.items"], "count"),
        "chains.ChainSet.built": (counts["chains.ChainSet.built"], "count"),
        "chains.is_linked.calls": (calls("chains.is_linked"), "count"),
        "chains.is_linked.self_s": (self_s("chains.is_linked"), "s"),
        "chains.is_interlaced.calls": (calls("chains.is_interlaced"), "count"),
        "chains.is_interlaced.self_s": (self_s("chains.is_interlaced"), "s"),
        "chains.is_interlaced.true_ratio": (
            ratio(counts["chains.is_interlaced.true"], calls("chains.is_interlaced")),
            "ratio",
        ),
        "spin.spin_lowest_k_type.calls": (calls("spin.spin_lowest_k_type"), "count"),
        "spin.spin_lowest_k_type.self_s": (self_s("spin.spin_lowest_k_type"), "s"),
        "spin.spin_lowest_k_type.calls_per_param": (ratio(calls("spin.spin_lowest_k_type"), params), "calls/param"),
        "spin.classify_link.calls": (calls("spin.classify_link"), "count"),
        "lr.multiplicity_in_induced.calls": (calls("lr.multiplicity_in_induced"), "count"),
        "lr.multiplicity_in_induced.self_s": (self_s("lr.multiplicity_in_induced"), "s"),
        "lr.multiplicity_in_induced.zero_ratio": (
            ratio(counts["lr.multiplicity_in_induced.zero"], calls("lr.multiplicity_in_induced")),
            "ratio",
        ),
        "lr.lr_coefficient.calls": (calls("lr.lr_coefficient"), "count"),
        "lr.lr_coefficient.self_s": (self_s("lr.lr_coefficient"), "s"),
        "lr.lr_coefficient.nonzero_ratio": (
            ratio(counts["lr.lr_coefficient.nonzero"], calls("lr.lr_coefficient")),
            "ratio",
        ),
        "lr.lr_coefficient.tableaux": (counts["lr.lr_coefficient.tableaux"], "count"),
        "verify.batch_multiplicities.wall_s": (total_s("verify.batch_multiplicities"), "s"),
        "verify.spin_minimal_candidates.calls": (calls("verify.spin_minimal_candidates"), "count"),
        "verify.spin_minimal_candidates.self_s": (self_s("verify.spin_minimal_candidates"), "s"),
        "verify.dominant_ball.points": (counts["verify.dominant_ball.items"], "count"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
