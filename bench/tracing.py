"""Span tracing of histtag's layers from outside the package.

``Tracer.install`` replaces the public functions and methods of each
``histtag`` module with timing wrappers and ``Tracer.uninstall`` puts the
originals back; no file of the package changes.  A module function is
replaced wherever a caller looks it up: ``from .nn import sgd_step`` binds a
second name to the same object in ``histtag.tagger``, so every module
attribute that *is* the original gets the wrapper.  Methods are replaced on
their class, which covers every instance.

Spans are kept in memory as ``(name id, parent index, start, end)`` with a
parent link to the enclosing span, and written out by ``dump``.  A span's
self time is its duration minus the durations of its direct children; in a
single thread children do not overlap, so the self times of all spans add up
to the time of the root spans.
"""

import gzip
import json
import math
import os
import time
from collections import defaultdict

import numpy as np

from histtag import charlm, cli, corpus, crf, embed, evaluation, nn, serialization, smlm, tagger

_MODULES = (charlm, cli, corpus, crf, embed, evaluation, nn, serialization, smlm, tagger)


def _positions(tracer, args, kwargs, result):
    x = args[1]
    tracer.add("nn.Lstm.forward", "positions", math.prod(x.shape[:-1]))


def _clip(tracer, args, kwargs, result):
    max_norm = args[1] if len(args) > 1 else kwargs["max_norm"]
    tracer.add("nn.clip_grad_norm", "clipped", int(result > max_norm))
    tracer.add("nn.clip_grad_norm", "nonfinite_calls", int(not math.isfinite(result)))


def _sentence_key(tracer, args, kwargs, result):
    tracer.keys["embed.ContextualEmbedder.forward"].add(" ".join(args[1].texts()))


def _timed_lines(tracer, args, kwargs, result):
    """``read_plain`` only opens the file; the lines are read where the
    caller iterates, so each read is a ``corpus.read_plain`` span there."""
    name_id = tracer._id("corpus.read_plain")
    sentinel = object()

    def lines():
        while (line := tracer.call(name_id, next, (result, sentinel), {})) is not sentinel:
            yield line
    return lines()


def _file_bytes(name):
    def probe(tracer, args, kwargs, result):
        tracer.add(name, "bytes", os.path.getsize(args[0]))
    return probe


# (owner, attribute, span name, probe run after the call or None); a probe
# that returns something other than None replaces the call's result
TARGETS = [
    (nn.Lstm, "forward", "nn.Lstm.forward", _positions),
    (nn.Lstm, "backward", "nn.Lstm.backward", None),
    (nn.Linear, "forward", "nn.Linear.forward", None),
    (nn.Linear, "backward", "nn.Linear.backward", None),
    (nn, "clip_grad_norm", "nn.clip_grad_norm", _clip),
    (nn, "sgd_step", "nn.sgd_step", None),
    (charlm, "lm_forward", "charlm.lm_forward", None),
    (charlm, "train_lm", "charlm.train_lm", None),
    (charlm, "save_lm", "charlm.save_lm", None),
    (charlm, "load_lm", "charlm.load_lm", None),
    (crf, "crf_nll_with_grads", "crf.crf_nll_with_grads", None),
    (crf, "viterbi_decode", "crf.viterbi_decode", None),
    (embed.ContextualEmbedder, "forward", "embed.ContextualEmbedder.forward", _sentence_key),
    (embed.CharFeatureEncoder, "forward", "embed.CharFeatureEncoder.forward", None),
    (embed.CharFeatureEncoder, "backward", "embed.CharFeatureEncoder.backward", None),
    (embed.WordTableEmbedder, "forward", "embed.WordTableEmbedder.forward", None),
    (embed, "load_vectors", "embed.load_vectors", None),
    (tagger, "train_ner", "tagger.train_ner", None),
    (tagger, "predict", "tagger.predict", None),
    (tagger, "save_ner", "tagger.save_ner", None),
    (tagger, "load_ner", "tagger.load_ner", None),
    (serialization, "save_tensors", "serialization.save_tensors",
     _file_bytes("serialization.save_tensors")),
    (serialization, "load_tensors", "serialization.load_tensors",
     _file_bytes("serialization.load_tensors")),
    (serialization, "file_sha256", "serialization.file_sha256",
     _file_bytes("serialization.file_sha256")),
    (smlm, "smlm_transform", "smlm.smlm_transform", None),
    (corpus, "read_conll", "corpus.read_conll", None),
    (corpus, "read_plain", "corpus.read_plain", None),
    (corpus, "_stream_lines", "corpus._stream_lines", _timed_lines),
    (corpus, "extract_char_vocab", "corpus.extract_char_vocab", None),
    (evaluation, "evaluate", "evaluation.evaluate", None),
]


class Tracer:
    """In-memory span recorder; ``enabled`` switches recording on and off
    while the wrappers stay installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.current = -1
        self.enabled = False
        self.counters = defaultdict(int)
        self.keys = defaultdict(set)
        self._restore: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, stat: str, value) -> None:
        self.counters[f"{name}.{stat}"] += value

    def reset(self) -> None:
        self.spans = []
        self.current = -1
        self.counters = defaultdict(int)
        self.keys = defaultdict(set)

    def call(self, name_id: int, fn, args, kwargs):
        """Run ``fn`` inside a span when recording, else call it directly."""
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self.current
        index = len(self.spans)
        self.spans.append(None)
        self.current = index
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index] = (name_id, parent, start, time.perf_counter())
            self.current = parent

    def run(self, name: str, fn, *args):
        """Root or child span around one call made by the benchmark."""
        return self.call(self._id(name), fn, args, {})

    def _wrap(self, name: str, fn, probe):
        name_id = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            result = tracer.call(name_id, fn, args, kwargs)
            if probe is not None and tracer.enabled:
                replaced = probe(tracer, args, kwargs, result)
                if replaced is not None:
                    return replaced
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, name, probe in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, probe)
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in _MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def summary(self, root=None) -> dict:
        """Per-name calls, inclusive and self seconds of the recorded spans,
        plus the counters the probes collected.  With ``root``, only spans
        under a root span of that name count."""
        if not self.spans:
            return {"names": {}, "counters": dict(self.counters)}
        table = np.array(self.spans, dtype=np.float64)
        name_ids = table[:, 0].astype(np.int64)
        parents = table[:, 1].astype(np.int64)
        duration = table[:, 3] - table[:, 2]
        children = np.zeros(len(table))
        has_parent = parents >= 0
        np.add.at(children, parents[has_parent], duration[has_parent])
        self_time = duration - children
        if root is not None:
            # a span is recorded after its parent, so one pass finds roots
            roots = np.empty(len(table), dtype=np.int64)
            for i, parent in enumerate(parents.tolist()):
                roots[i] = i if parent < 0 else roots[parent]
            keep = name_ids[roots] == self._ids.get(root, -1)
            name_ids, duration, self_time = name_ids[keep], duration[keep], self_time[keep]
            has_parent = has_parent[keep]
        per_name = {}
        for i, name in enumerate(self.names):
            mine = name_ids == i
            if mine.any():
                per_name[name] = {"calls": int(mine.sum()),
                                  "incl_s": float(duration[mine].sum()),
                                  "self_s": float(self_time[mine].sum())}
        counters = dict(self.counters)
        for name, keys in self.keys.items():
            counters[f"{name}.distinct"] = len(keys)
        return {"names": per_name, "counters": counters}

    def dump(self, path) -> None:
        """Write the recorded spans as gzipped JSON: a name table and one
        ``[name id, parent index, start, end]`` row per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)
