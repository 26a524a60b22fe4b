"""Span recorder for the traced run, installed from the benchmark's own files.

`Tracer.install()` replaces every public function bound in the
`pioucrypt.pipeline`, `pioucrypt.layer1`, `pioucrypt.lattice` and
`pioucrypt.oea` namespaces with a recorder that keeps a span (operation,
name, parent, start, end) in memory, and wraps `Xorshift1024.randint` and
`Tlcg.randrange` with call counters. `uninstall()` puts the originals back.
The program's files are not touched. A span is named after the module that
defines the function, which is its layer: `layer1.apply_swaps` is a layer1
span even when pipeline calls it.

`nmf_multiplicative` is handed an `error_history` list when its caller passes
none; the list only collects errors the loop computes anyway, so the bundle
bytes do not change (the worker checks this on every traced encrypt).
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from statistics import median
from time import perf_counter_ns
from typing import NamedTuple

from pioucrypt.prng import Tlcg, Xorshift1024

NAMESPACES = ("pipeline", "layer1", "lattice", "oea")
NMF = "lattice.nmf_multiplicative"


class Span(NamedTuple):
    op: int
    name: str
    parent: int  # index into Tracer.spans; -1 for the pipeline call itself
    start_ns: int
    end_ns: int


# Facts a span keeps about its call, beyond its times.
OBSERVERS = {
    "layer1.generate_layer1_key": lambda args, kw, key: {
        "swaps": len(key.row_swaps) + len(key.col_swaps)
    },
    "layer1.serialize_layer1_key": lambda args, kw, text: {"bytes": len(text)},
    "lattice.generate_lattice_points": lambda args, kw, points: {"m": len(points)},
    NMF: lambda args, kw, factors: {"history": kw.get("error_history")},
    "oea.oea_encrypt": lambda args, kw, cipher: {"bytes": len(args[0])},
    "oea.serialize_oea": lambda args, kw, text: {"bytes": len(text)},
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.attrs: dict[int, dict] = {}
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.op: int | None = None  # the operation being traced; None records nothing
        self._stack: list[int] = []
        self._patches = self._plan()

    def _plan(self):
        patches = []
        recorders = {}
        for short in NAMESPACES:
            module = importlib.import_module(f"pioucrypt.{short}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("pioucrypt."):
                    continue
                if obj not in recorders:
                    recorders[obj] = self._recorder(obj)
                patches.append((module, name, obj, recorders[obj]))
        for owner, attr, key in ((Xorshift1024, "randint", "xorshift"), (Tlcg, "randrange", "tlcg")):
            original = owner.__dict__[attr]
            patches.append((owner, attr, original, self._counter(key, original)))
        return patches

    def install(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _recorder(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            if name == NMF and len(args) < 4 and kwargs.get("error_history") is None:
                kwargs["error_history"] = []
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self.spans[index] = Span(self.op, name, parent, start, end)
            if observe is not None:
                self.attrs[index] = observe(args, kwargs, result)
            return result

        return recorded

    def _counter(self, key, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.op is not None:
                self.counts[self.op][key] += 1
            return fn(*args, **kwargs)

        return counted

    def profiles(self) -> dict[int, "Profile"]:
        """One Profile per traced operation."""
        child_ns = Counter()
        for span in self.spans:
            child_ns[span.parent] += span.end_ns - span.start_ns
        profiles = {}
        for index, span in enumerate(self.spans):
            p = profiles.setdefault(span.op, Profile(self.counts[span.op]))
            seconds = (span.end_ns - span.start_ns) / 1e9
            p.time[span.name] += seconds
            p.self_time[span.name.split(".")[0]] += seconds - child_ns[index] / 1e9
            if span.parent == -1:
                p.total += seconds
            if index in self.attrs:
                p.attrs[span.name] = self.attrs[index]
        return profiles

    def nmf_history(self, op: int) -> list[float] | None:
        for index, span in enumerate(self.spans):
            if span.op == op and span.name == NMF:
                return self.attrs[index]["history"]
        return None


class Profile:
    """Where one traced operation spent its time, and what it counted."""

    def __init__(self, counts: Counter):
        self.time: Counter = Counter()  # seconds per span name
        self.self_time: Counter = Counter()  # seconds per layer
        self.total = 0.0
        self.attrs: dict[str, dict] = {}
        self.counts = counts

    def attr(self, name: str, key: str, default=0):
        return self.attrs.get(name, {}).get(key, default)


def _time(name):
    return lambda p: p.time[name]


def _self(layer):
    return lambda p: p.self_time[layer]


def _share(layer):
    return lambda p: p.self_time[layer] / p.total


def _history_ratio(p):
    history = p.attr(NMF, "history", None)
    return history[-1] / history[0] if history and history[0] else 0.0


def _history_steps(p):
    history = p.attr(NMF, "history", None)
    return len(history) - 1 if history else 0


def _expansion(p):
    plain = p.attr("oea.oea_encrypt", "bytes")
    return p.attr("oea.serialize_oea", "bytes") / plain if plain else 0.0


# name, unit, the operations it is taken over, value of one operation.
PER_OPERATION = (
    ("layer1.keygen_s", "s", "encrypt", _time("layer1.generate_layer1_key")),
    ("layer1.swaps_enc_s", "s", "encrypt", _time("layer1.apply_swaps")),
    ("layer1.lut_s", "s", "encrypt", _time("layer1.apply_lut")),
    ("layer1.key_serialize_s", "s", "encrypt", _time("layer1.serialize_layer1_key")),
    ("layer1.swaps_dec_s", "s", "decrypt", _time("layer1.apply_swaps")),
    ("layer1.key_parse_s", "s", "decrypt", _time("layer1.parse_layer1_key")),
    ("layer1.swaps", "count", "encrypt", lambda p: p.attr("layer1.generate_layer1_key", "swaps")),
    ("layer1.key_text_bytes", "B", "encrypt", lambda p: p.attr("layer1.serialize_layer1_key", "bytes")),
    ("layer1.encrypt_self_s", "s", "encrypt", _self("layer1")),
    ("layer1.decrypt_self_s", "s", "decrypt", _self("layer1")),
    ("layer1.encrypt_share", "ratio", "encrypt", _share("layer1")),
    ("layer1.decrypt_share", "ratio", "decrypt", _share("layer1")),
    ("prng.xorshift_draws", "count", "encrypt", lambda p: p.counts["xorshift"]),
    ("prng.tlcg_draws", "count", "encrypt", lambda p: p.counts["tlcg"]),
    ("lattice.vectors_s", "s", "encrypt", _time("lattice.derive_lattice_vectors")),
    ("lattice.points_s", "s", "encrypt", _time("lattice.generate_lattice_points")),
    ("lattice.nmf_s", "s", "encrypt", _time(NMF)),
    ("lattice.key_serialize_s", "s", "encrypt", _time("lattice.serialize_key_matrix")),
    ("lattice.m", "count", "encrypt", lambda p: p.attr("lattice.generate_lattice_points", "m")),
    ("lattice.nmf_iterations", "count", "encrypt", _history_steps),
    ("lattice.nmf_rel_error", "ratio", "encrypt", _history_ratio),
    ("lattice.encrypt_self_s", "s", "encrypt", _self("lattice")),
    ("lattice.encrypt_share", "ratio", "encrypt", _share("lattice")),
    ("oea.encrypt_s", "s", "encrypt", _time("oea.oea_encrypt")),
    ("oea.serialize_s", "s", "encrypt", _time("oea.serialize_oea")),
    ("oea.parse_s", "s", "decrypt", _time("oea.parse_oea")),
    ("oea.decrypt_s", "s", "decrypt", _time("oea.oea_decrypt")),
    ("oea.plaintext_bytes", "B", "encrypt", lambda p: p.attr("oea.oea_encrypt", "bytes")),
    ("oea.cipher_bytes", "B", "encrypt", lambda p: p.attr("oea.serialize_oea", "bytes")),
    ("oea.expansion", "ratio", "encrypt", _expansion),
    ("oea.encrypt_self_s", "s", "encrypt", _self("oea")),
    ("oea.decrypt_self_s", "s", "decrypt", _self("oea")),
    ("oea.encrypt_share", "ratio", "encrypt", _share("oea")),
    ("oea.decrypt_share", "ratio", "decrypt", _share("oea")),
    ("pipeline.read_image_s", "s", "encrypt", _time("pipeline.read_image")),
    ("pipeline.write_image_s", "s", "decrypt", _time("pipeline.write_image")),
    ("pipeline.encrypt_self_s", "s", "encrypt", _self("pipeline")),
    ("pipeline.decrypt_self_s", "s", "decrypt", _self("pipeline")),
    ("pipeline.encrypt_share", "ratio", "encrypt", _share("pipeline")),
    ("pipeline.decrypt_share", "ratio", "decrypt", _share("pipeline")),
)

# Metrics the worker measures itself: the bytes one encrypt plus one decrypt
# read and write, and the traced minus the plain encrypt_s and decrypt_s.
WORKER_UNITS = {
    "pipeline.bytes_read": "B",
    "pipeline.bytes_written": "B",
    "trace.encrypt_overhead_s": "s",
    "trace.decrypt_overhead_s": "s",
}

PER_LAYER_UNITS = {**{name: unit for name, unit, _, _ in PER_OPERATION}, **WORKER_UNITS}


def per_operation_metrics(tracer: Tracer, kinds: dict[int, str]) -> dict[str, float]:
    """Median over the traced operations of each kind, metric by metric.

    kinds maps each traced operation that succeeded to encrypt or decrypt.
    """
    profiles = tracer.profiles()
    by_kind = defaultdict(list)
    for op, profile in profiles.items():
        if op in kinds:
            by_kind[kinds[op]].append(profile)
    return {
        name: float(median(value(p) for p in by_kind[kind]))
        for name, _, kind, value in PER_OPERATION
    }
