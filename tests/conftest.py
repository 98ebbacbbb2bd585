import json
import math

import numpy as np
import pytest

from histtag import nn
from histtag.corpus import Sentence, TaggedCorpus, TagScheme, Token
from histtag.crf import crf_nll_with_grads, viterbi_decode
from histtag.serialization import _HEAD, FORMAT_VERSION, MAGIC

from oracles import brute_path_score


def make_sentence(pairs):
    """Build a Sentence from (text, gold_tag) pairs."""
    return Sentence(tuple(Token(t, gold_tag=g) for t, g in pairs))


def make_corpus(sentence_pairs, scheme=TagScheme.IOBES, split="train"):
    return TaggedCorpus(
        tuple(make_sentence(p) for p in sentence_pairs), scheme=scheme, split=split)


def nll_of(emissions, crf, gold) -> float:
    """The NLL ``crf_nll_with_grads`` returns for (T × K) ``emissions`` run
    as a batch of one, with ``crf.grads`` left as they were."""
    grads = crf.grads["transitions"].copy()
    nlls, _ = crf_nll_with_grads(np.asarray(emissions)[None], crf, [gold],
                                 [len(emissions)])
    crf.grads["transitions"][...] = grads
    return float(nlls[0])


def decode_of(emissions, crf):
    """The path and score ``viterbi_decode`` returns for (T × K)
    ``emissions`` run as a batch of one."""
    paths, scores = viterbi_decode(np.asarray(emissions)[None], crf, [len(emissions)])
    return paths[0], float(scores[0])


def score_of(emissions, crf, path) -> float:
    """Score of one tag path: emissions plus START→…→STOP transitions."""
    return brute_path_score(emissions, crf.params["transitions"], crf.start,
                            crf.stop, path)


def log_partition_of(emissions, crf) -> float:
    """log Z = NLL of a path + that path's score; any path will do."""
    path = np.zeros(len(emissions), dtype=np.int64)
    return nll_of(emissions, crf, path) + score_of(emissions, crf, path)


def raw_container(header, payload=b""):
    """Container bytes with an arbitrary JSON header, malformed ones too."""
    head = json.dumps(header).encode("utf-8")
    return MAGIC + _HEAD.pack(FORMAT_VERSION, len(head)) + head + payload


@pytest.fixture
def no_large_layers(monkeypatch):
    """Layers fail, instead of allocating, when a tensor they would hold
    has more than a million entries: ``Layer.hold`` is the one place a
    layer allocates a parameter (an initial draw, a zero bias or a loaded
    copy), a drawn layer's gradient slot comes only after it, and it is
    guarded before it makes anything."""
    hold = nn.Layer.hold

    def guarded(layer, name, make):
        shape = layer.shapes[name]
        if math.prod(shape) > 10 ** 6:
            raise AssertionError(f"a layer began to allocate a {shape} tensor")
        return hold(layer, name, make)
    monkeypatch.setattr(nn.Layer, "hold", guarded)


def forbid_draws(monkeypatch) -> None:
    """From here on ``nn.init_uniform``, through which every layer draws
    its initial values, fails: a loader must build its layers without
    drawing."""
    def refuse(rng, shape, fan_in):
        raise AssertionError(f"a layer drew an initial {shape} tensor")
    monkeypatch.setattr(nn, "init_uniform", refuse)


def assert_fresh_float32(named_layers) -> None:
    """Every parameter of the named layers is a C-contiguous, writable
    float32 array that owns its data (no view of a file's bytes), and no
    layer holds a gradient slot: nothing trains a loaded model."""
    for name, layer in named_layers:
        assert layer.params.keys() == layer.shapes.keys(), name
        assert layer.grads == {}, name
        for param, value in layer.params.items():
            where = f"{name}.{param}"
            assert value.dtype == np.float32, where
            assert value.flags.c_contiguous and value.flags.writeable, where
            assert value.base is None, where


@pytest.fixture
def tiny_iobes_corpus():
    return make_corpus([
        [("Anna", "S-PER"), ("besucht", "O"), ("Wien", "S-LOC"), (".", "O")],
        [("Der", "O"), ("Verein", "B-ORG"), ("Concordia", "E-ORG"),
         ("tagt", "O"), (".", "O")],
    ])


@pytest.fixture
def write_text(tmp_path):
    def _write(name, content, encoding="utf-8", binary=False):
        p = tmp_path / name
        if binary:
            p.write_bytes(content)
        else:
            p.write_text(content, encoding=encoding, newline="")
        return p
    return _write
