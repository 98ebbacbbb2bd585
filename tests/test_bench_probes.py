"""The benchmark's tracer wraps library functions and methods by name
(``bench/tracing.py``, ``TARGETS``).  A rename in the library would break
only the traced benchmark run; this test catches it in the suite."""

import importlib.util
from pathlib import Path

import numpy as np

from histtag import charlm, tagger
from histtag.corpus import CharVocabulary, PlainCorpus, TagScheme
from histtag.embed import CharFeatureEncoder, StackedEmbedder

from conftest import make_corpus

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = load_tracing().TARGETS
    assert targets
    for owner, attr, name, _ in targets:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner!r} has no {attr}"


def test_every_training_step_is_one_traced_clip_and_step(monkeypatch):
    """The benchmark's ``nn.clip_grad_norm`` and ``nn.sgd_step`` rows count
    the calls the tracer sees through the ``nn`` module's names.  Both
    training loops update through ``nn.clipped_sgd_step``, which must call
    them by those names once per training step, or the rows read 0."""
    steps = {"lm": 0, "ner": 0}

    def counting(key, fn):
        def counted(*args, **kwargs):
            steps[key] += 1
            return fn(*args, **kwargs)
        return counted
    monkeypatch.setattr(charlm, "_train_window", counting("lm", charlm._train_window))
    monkeypatch.setattr(tagger, "_batch_step", counting("ner", tagger._batch_step))

    tracer = load_tracing().Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        config = charlm.CharLmConfig(direction="forward", char_embed_dim=4, hidden_size=8,
                                     sequence_length=20, epochs=2, dropout=0.0)
        charlm.train_lm(PlainCorpus.from_lines(["the cat sat on the mat " * 20]), config, 0)
        lm_calls = tracer.summary()["names"]
        corpus = make_corpus([[("Anna", "S-PER"), ("besucht", "O"), ("Wien", "S-LOC")],
                              [("Der", "O"), ("Verein", "B-ORG"), ("tagt", "E-ORG")],
                              [("Karl", "S-PER"), ("lacht", "O")]], scheme=TagScheme.IOBES)
        encoder = CharFeatureEncoder(CharVocabulary("ABDKVWabcehiklnrstu"),
                                     np.random.default_rng(0), embed_dim=4, hidden=4)
        tagger.train_ner(corpus, corpus,
                         tagger.TaggerConfig(lstm_hidden=4, mini_batch=2, max_epochs=3),
                         StackedEmbedder([encoder]))
        names = tracer.summary()["names"]
    finally:
        tracer.uninstall()
    assert steps["lm"] > 2 and steps["ner"] == 3 * 2
    for name in ("nn.clip_grad_norm", "nn.sgd_step"):
        assert lm_calls[name]["calls"] == steps["lm"]
        assert names[name]["calls"] == steps["lm"] + steps["ner"]
