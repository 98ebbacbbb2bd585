import logging
import math
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import softmax

from histtag import charlm, nn
from histtag.charlm import (
    DIRECTIONS,
    CharLm,
    CharLmConfig,
    corpus_perplexity,
    lm_forward,
    load_lm,
    save_lm,
    sentence_perplexity,
    train_lm,
)
from histtag.corpus import CharVocabulary, PlainCorpus
from histtag.errors import ConfigError, EmptyCorpusError, ModelFormatError, NonFiniteGradientError
from histtag.nn import cross_entropy
from histtag.serialization import layer_tensors, load_tensors, save_tensors
from histtag.toydata import build_plain_corpus

from conftest import assert_fresh_float32, forbid_draws, make_corpus, raw_container
from oracles import (
    float64_copy,
    gradient_relative_error,
    lm_reference,
    numeric_gradient,
    perplexity_reference,
    train_lm_by_strand,
)


def tensors(model):
    return layer_tensors(model.named_layers)


def small_model(vocab_chars="abcde", hidden=8, embed=4, seed=0, direction="forward"):
    return CharLm(CharVocabulary(vocab_chars), direction, embed, hidden,
                  np.random.default_rng(seed))


def run(model, text, state=None):
    """Logits, final state and hidden states of one text through
    ``lm_forward`` and the projection."""
    hs, state, _ = lm_forward(model.vocab, model.embedding, model.lstm, [text], state)
    logits, _ = model.projection.forward(hs[0])
    return logits, state, hs[0]


def pinned_model(vocab_chars, probs, direction="forward"):
    """Zero recurrence, projection bias = log probs: constant distribution.
    A float64 copy, so its perplexities hold to the hand-computed values
    within 1e-9."""
    model = float64_copy(small_model(vocab_chars, direction=direction))
    for layer in model.layers:
        for p in layer.params.values():
            p[...] = 0.0
    model.projection.params["bias"][...] = np.log(probs)
    return model


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"direction": "sideways"},
        {"char_embed_dim": 0},
        {"hidden_size": -1},
        {"sequence_length": 0},
        {"mini_batch": 0},
        {"epochs": 0},
        {"dropout": 1.0},
        {"dropout": -0.1},
        {"learning_rate": -1.0},
    ])
    def test_rejects(self, kwargs):
        base = {"direction": "forward"}
        base.update(kwargs)
        with pytest.raises(ConfigError):
            CharLmConfig(**base)

    @pytest.mark.parametrize("kwargs", [
        {"hidden_size": 8.5}, {"mini_batch": True}, {"dropout": "0.1"}, {"direction": 1},
    ])
    def test_rejects_wrong_types(self, kwargs):
        base = {"direction": "forward", **kwargs}
        with pytest.raises(ConfigError, match=f"{next(iter(kwargs))} must be"):
            CharLmConfig(**base)

    @pytest.mark.parametrize("rate", [float("inf"), float("nan"), -float("inf")])
    def test_rejects_non_finite_learning_rate(self, rate):
        with pytest.raises(ConfigError, match="learning_rate must be finite"):
            CharLmConfig(direction="forward", learning_rate=rate)

    def test_defaults(self):
        cfg = CharLmConfig(direction="backward")
        assert cfg.sequence_length == 250
        assert cfg.mini_batch == 1
        assert cfg.epochs == 1


class TestForward:
    def test_single_char_shapes(self):
        model = small_model()
        logits, state, hidden = run(model, "a")
        assert logits.shape == (1, 6)
        assert hidden.shape == (1, 8)
        h, c = state
        assert h.shape == (1, 8) and c.shape == (1, 8)
        np.testing.assert_array_equal(h[0], hidden[-1])

    def test_zero_model_uniform(self):
        model = small_model()
        for layer in model.layers:
            for p in layer.params.values():
                p[...] = 0.0
        logits, _, _ = run(model, "abcab")
        assert np.all(logits == logits[0])
        probs = softmax(logits, axis=-1)
        np.testing.assert_allclose(probs, 1.0 / 6, atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        model = small_model(seed=3)
        logits, _, _ = run(model, "edcba")
        np.testing.assert_allclose(softmax(logits, axis=-1).sum(axis=1), 1.0,
                                   atol=1e-6)

    def test_unknown_maps_to_unk(self):
        model = small_model()
        idx = model.vocab.encode("aZ!")
        unk = len(model.vocab)
        assert idx.tolist() == [0, unk, unk]

    def test_state_carry_changes_output(self):
        model = small_model(seed=5)
        logits1, state, _ = run(model, "abc")
        logits2, _, _ = run(model, "abc", state)
        assert not np.allclose(logits1, logits2)

    def test_rows_equal_texts_run_alone(self):
        """Each row of a padded batch, from a zero or a carried state, holds
        the states of its text run alone by ``oracles.lm_reference`` at its
        text's positions, and the final state of the longest text is the
        state after its last character.  In float64, where the two agree to
        1e-14."""
        model = float64_copy(small_model(seed=6))
        texts = ["abc", "a", "edcbaZ", ""]
        rng = np.random.default_rng(2)
        start = (rng.uniform(-0.5, 0.5, (4, 8)), rng.uniform(-0.5, 0.5, (4, 8)))
        for state in (None, start):
            hs, (h, c), lengths = lm_forward(model.vocab, model.embedding, model.lstm,
                                             texts, state)
            assert hs.shape == (4, 6, 8) and lengths.tolist() == [3, 1, 6, 0]
            for b, text in enumerate(texts[:3]):
                row_state = None if state is None else (state[0][b:b + 1], state[1][b:b + 1])
                _, (h_ref, c_ref), hs_ref = lm_reference(
                    model, model.vocab.encode(text), row_state)
                np.testing.assert_allclose(hs[b, :len(text)], hs_ref, rtol=0, atol=1e-14)
                if len(text) == hs.shape[1]:
                    np.testing.assert_allclose(h[b], h_ref[0], rtol=0, atol=1e-14)
                    np.testing.assert_allclose(c[b], c_ref[0], rtol=0, atol=1e-14)

    def test_nll_gradient_all_parameters(self):
        # hidden 8, |V|=5: the full model chain against finite differences,
        # in float64
        model = float64_copy(small_model())
        x = model.vocab.encode("abdec")
        y = model.vocab.encode("bdeca")

        def loss():
            logits, _, _ = run(model, "abdec")
            nll, _ = cross_entropy(logits, y)
            return float(nll.sum())

        logits, _, _ = run(model, "abdec")
        _, dlogits = cross_entropy(logits, y)
        model.zero_grads()
        # manual backward through projection → lstm → embedding
        emb, emb_cache = model.embedding.forward(x[None])
        hs, _, lstm_cache = model.lstm.forward(emb, keep_cache=True)
        _, lin_cache = model.projection.forward(hs[0])
        dh = model.projection.backward(lin_cache, dlogits)
        dx, _ = model.lstm.backward(lstm_cache, dh[None])
        model.embedding.backward(emb_cache, dx)

        for layer in model.layers:
            for name, param in layer.params.items():
                err = gradient_relative_error(
                    layer.grads[name], numeric_gradient(loss, param))
                assert err < 1e-4, f"{name}: {err:.2e}"


class TestPerplexity:
    def test_uniform_model(self):
        model = pinned_model("abcdefghijklmnopqrstuvwxy", np.full(26, 1.0 / 26))
        assert len(model.vocab) == 25
        assert abs(sentence_perplexity(model, "abcd") - 26.0) < 1e-9

    def test_certain_model(self):
        model = small_model("a")
        for layer in model.layers:
            for p in layer.params.values():
                p[...] = 0.0
        model.projection.params["bias"][...] = [1000.0, 0.0]
        assert abs(sentence_perplexity(model, "aaaa") - 1.0) < 1e-9

    def test_hand_case_sqrt8(self):
        model = pinned_model("abc", [0.5, 0.25, 0.125, 0.125])
        ppl = sentence_perplexity(model, "aab")
        assert abs(ppl - math.sqrt(8.0)) < 1e-9

    def test_too_short(self):
        model = small_model()
        with pytest.raises(ValueError):
            sentence_perplexity(model, "a")

    def test_backward_scores_reversed_text(self):
        fwd = pinned_model("abc", [0.5, 0.25, 0.125, 0.125])
        bwd = pinned_model("abc", [0.5, 0.25, 0.125, 0.125], direction="backward")
        # constant distribution: backward ppl of text = forward ppl of reverse
        assert sentence_perplexity(bwd, "aab") == pytest.approx(
            sentence_perplexity(fwd, "baa"), abs=1e-12)

    def test_random_init_near_uniform(self):
        model = small_model("abcdefghij", seed=11)
        ppl = sentence_perplexity(model, "abcdefghij" * 4)
        assert 11 / 2 < ppl < 11 * 2

    def test_perplexity_at_least_one(self):
        model = small_model(seed=13)
        assert sentence_perplexity(model, "edbca") >= 1.0


class TestCorpusPerplexity:
    def test_single_sentence(self):
        model = pinned_model("abc", [0.5, 0.25, 0.125, 0.125])
        corpus = PlainCorpus.from_lines(["aab"])
        assert corpus_perplexity(model, corpus) == sentence_perplexity(model, "aab")

    def test_mean_matches_recompute(self):
        model = small_model("abcde ", seed=7)
        lines = ["abc de", "edcba", "ae", "ddd bb"]
        corpus = PlainCorpus.from_lines(lines)
        expected = np.mean([sentence_perplexity(model, t) for t in lines])
        assert corpus_perplexity(model, corpus) == pytest.approx(expected, abs=1e-12)

    def test_tagged_corpus_uses_joined_tokens(self):
        model = small_model("abcde ", seed=7)
        corpus = make_corpus([[("ab", "O"), ("cd", "O")]])
        assert corpus_perplexity(model, corpus) == pytest.approx(
            sentence_perplexity(model, "ab cd"), abs=1e-12)

    def test_short_sentences_skipped_and_logged(self, caplog):
        model = small_model("ab", seed=1)
        corpus = PlainCorpus.from_lines(["a", "ab", ""])
        with caplog.at_level(logging.INFO, logger="histtag.charlm"):
            ppl = corpus_perplexity(model, corpus)
        assert ppl == sentence_perplexity(model, "ab")
        assert "skipped 2" in caplog.text

    def test_nothing_scoreable(self):
        model = small_model("ab")
        with pytest.raises(EmptyCorpusError):
            corpus_perplexity(model, PlainCorpus.from_lines(["a", "b"]))


@pytest.fixture(params=[1, 7, 16, None], ids=["chunk1", "chunk7", "chunk16", "default"])
def eval_chunk(request, monkeypatch):
    """EVAL_CHUNK, set to each small value and left at its default."""
    if request.param is not None:
        monkeypatch.setattr(charlm, "EVAL_CHUNK", request.param)
    return charlm.EVAL_CHUNK


def scoring_texts(chunk):
    """Texts of unequal length, one of them longer than ``chunk``, with a
    character outside the vocabulary."""
    return ["ab", "edcba", "abc de", "a b c d e", "ddd", "cab xab", "ba",
            "abc ded cab " * (chunk // 12 + 2)]


@pytest.mark.parametrize("direction", DIRECTIONS)
class TestScoringOracle:
    """Grouped and sliced scoring against ``oracles.perplexity_reference``,
    each text scored alone in one B = 1 chunk, both on a float64 copy of
    the LM, where they agree to 1e-12."""

    def test_sentence_perplexity(self, eval_chunk, direction):
        model = float64_copy(small_model("abcde ", seed=21, direction=direction))
        for text in scoring_texts(eval_chunk):
            assert sentence_perplexity(model, text) == pytest.approx(
                perplexity_reference(model, text), rel=1e-12, abs=0)

    def test_corpus_perplexity_over_several_windows(self, eval_chunk, direction):
        model = float64_copy(small_model("abcde ", seed=22, direction=direction))
        texts = scoring_texts(eval_chunk)
        reference = {text: perplexity_reference(model, text) for text in texts}
        # more lines than one window of EVAL_CHUNK lines; the long text once
        lines = [texts[i % 7] for i in range(eval_chunk + 9)] + [texts[-1], "a"]
        expected = np.mean([reference[line] for line in lines[:-1]])
        assert corpus_perplexity(model, PlainCorpus.from_lines(lines)) == pytest.approx(
            expected, rel=1e-12, abs=0)


def tiny_config(**kwargs):
    base = dict(direction="forward", char_embed_dim=8, hidden_size=16,
                dropout=0.0, sequence_length=50, learning_rate=2.0)
    base.update(kwargs)
    return CharLmConfig(**base)


@pytest.fixture
def float64_training(monkeypatch):
    """``train_lm`` builds its model as a float64 copy of the one it would
    build (the same draws), so it trains in float64."""
    monkeypatch.setattr(charlm, "CharLm", lambda *args: float64_copy(CharLm(*args)))


class TestTraining:
    def test_periodic_corpus_improves(self):
        corpus = PlainCorpus.from_lines(["ab" * 2500])
        model, log = train_lm(corpus, tiny_config(), seed=0)
        assert log.epochs[0].test_perplexity < log.initial_test_perplexity

    def test_non_finite_gradient_stops_training(self, float64_training):
        # a rate near the largest float64 overflows the parameters in the
        # first updates, so the third window's gradient is NaN
        corpus = PlainCorpus.from_lines(["abcd" * 500])
        with (np.errstate(over="ignore", invalid="ignore"),
              pytest.raises(NonFiniteGradientError, match="epoch 1, step 3")):
            train_lm(corpus, tiny_config(learning_rate=1.7e308), seed=0)

    def test_zero_learning_rate_freezes_parameters(self):
        corpus = PlainCorpus.from_lines(["abcd" * 500])
        cfg = tiny_config(learning_rate=0.0)
        model, _ = train_lm(corpus, cfg, seed=0)
        reference = CharLm(model.vocab, cfg.direction, cfg.char_embed_dim,
                           cfg.hidden_size, np.random.default_rng(0))
        for (_, a), (_, b) in zip(tensors(model), tensors(reference)):
            np.testing.assert_array_equal(a, b)

    def test_deterministic(self):
        corpus = PlainCorpus.from_lines(["the cat sat on the mat " * 40])
        cfg = tiny_config(dropout=0.1)
        m1, _ = train_lm(corpus, cfg, seed=42)
        m2, _ = train_lm(corpus, cfg, seed=42)
        for (n1, a), (n2, b) in zip(tensors(m1), tensors(m2)):
            assert n1 == n2
            np.testing.assert_array_equal(a, b)

    def test_backward_equals_forward_on_reversed(self):
        lines = ["im Jahre 1865 ward", "die Stadt Wien genannt"]
        corpus = PlainCorpus.from_lines(lines)
        reversed_corpus = PlainCorpus.from_lines([" ".join(lines)[::-1]])
        cfg_b = tiny_config(direction="backward", sequence_length=10)
        cfg_f = tiny_config(direction="forward", sequence_length=10)
        mb, _ = train_lm(corpus, cfg_b, seed=9)
        mf, _ = train_lm(reversed_corpus, cfg_f, seed=9)
        assert mb.vocab == mf.vocab
        for (n1, a), (n2, b) in zip(tensors(mb), tensors(mf)):
            np.testing.assert_array_equal(a, b)

    def test_corpus_shorter_than_window(self):
        corpus = PlainCorpus.from_lines(["abc"])
        with pytest.raises(EmptyCorpusError):
            train_lm(corpus, tiny_config(sequence_length=250), seed=0)

    def test_log_has_one_record_per_epoch(self):
        corpus = PlainCorpus.from_lines(["xy" * 1000])
        _, log = train_lm(corpus, tiny_config(epochs=3), seed=0)
        assert [r.epoch for r in log.epochs] == [1, 2, 3]
        rates = [r.learning_rate for r in log.epochs]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    @staticmethod
    def _annealing_run():
        """Five epochs at lr 20 on toy text: the dev loss rises at least once
        and falls at least once after the first epoch.  Returns the log and
        whether each epoch's dev loss failed to beat every one before it."""
        _, log = train_lm(build_plain_corpus(0, 60),
                          tiny_config(learning_rate=20.0, epochs=5), seed=0)
        losses = [r.dev_loss for r in log.epochs]
        cuts = [not loss < min(losses[:e], default=math.inf) for e, loss in enumerate(losses)]
        assert any(cuts[1:-1]) and not all(cuts[1:-1])
        return log, cuts

    def test_rate_halves_after_each_epoch_without_a_dev_gain(self):
        """Epoch e trains at the initial rate halved once for every earlier
        epoch whose dev loss was not below all dev losses before it."""
        log, cuts = self._annealing_run()
        assert [r.learning_rate for r in log.epochs] == [
            20.0 * 0.5 ** sum(cuts[:e]) for e in range(len(cuts))]

    def test_epoch_log_line_gives_the_epoch_rate(self, caplog):
        """Each epoch's INFO line gives the rate the epoch trained at, as its
        record does, and marks the epochs after which the rate was cut."""
        with caplog.at_level(logging.INFO, logger="histtag.charlm"):
            log, cuts = self._annealing_run()
        lines = [rec.getMessage() for rec in caplog.records if " lm epoch " in rec.getMessage()]
        assert len(lines) == len(log.epochs) == 5
        for line, record, cut in zip(lines, log.epochs, cuts):
            assert line.endswith(f" lr {record.learning_rate:g}" + (" (annealed)" if cut else ""))

    def test_mini_batch_strands(self):
        corpus = PlainCorpus.from_lines(["abcd" * 600])
        model, log = train_lm(corpus, tiny_config(mini_batch=4, epochs=1), seed=0)
        assert log.epochs[0].test_perplexity < log.initial_test_perplexity

    def test_mini_batch_matches_strand_by_strand_reference(self, float64_training):
        """All strands of a window in one batched recurrence train the same
        model as walking them one by one through the per-sequence reference
        loop, dropout draws included.  The two sum gradients in different
        orders, so parameters must agree to 1e-10 in float64, not exactly."""
        corpus = PlainCorpus.from_lines(["the cat sat on the mat " * 30])
        cfg = tiny_config(mini_batch=4, dropout=0.1, sequence_length=20)
        model, _ = train_lm(corpus, cfg, seed=3)
        reference = train_lm_by_strand(corpus, cfg, seed=3)
        for (name, a), (_, b) in zip(tensors(model), tensors(reference)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-10, err_msg=name)

    def test_dropout_training_stays_float32(self, monkeypatch):
        """One epoch at dropout 0.1, the default: every activation that
        reaches the projection and every gradient that reaches a layer's
        backward is float32, and so is every parameter and gradient after
        it.  A float64 dropout mask would widen the dropped states and run
        the projection and its backward in float64."""
        seen = []
        for name in ("forward", "backward"):
            method = getattr(nn.Linear, name)

            def recording(self, cache_or_x, *args, _method=method):
                seen.append(cache_or_x.dtype)
                seen.extend(a.dtype for a in args)
                return _method(self, cache_or_x, *args)
            monkeypatch.setattr(nn.Linear, name, recording)
        lstm_backward = nn.Lstm.backward

        def recording_lstm(self, cache, grad_hs):
            seen.extend((cache[3].dtype, grad_hs.dtype))
            return lstm_backward(self, cache, grad_hs)
        monkeypatch.setattr(nn.Lstm, "backward", recording_lstm)
        corpus = PlainCorpus.from_lines(["the cat sat on the mat " * 40])
        model, _ = train_lm(corpus, tiny_config(dropout=0.1), seed=4)
        assert seen and set(seen) == {np.dtype(np.float32)}
        for layer in model.layers:
            for tensors in (layer.params, layer.grads):
                assert all(t.dtype == np.float32 for t in tensors.values())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_float32_training_tracks_float64(self, monkeypatch, seed):
        """One epoch at the benchmark's LM settings (emb 16, H = 64, L = 50,
        B = 8, lr 5, clip 5, no dropout) on 10.8k characters of toy text,
        trained in float32 and on float64 copies (the same draws).  Over
        seeds 0-19 the final parameters differed by at most 6.5e-5, and the
        epoch's train loss by 2.0e-7, dev loss by 1.0e-5 and test perplexity
        by 3.6e-5 relative, except seed 6, whose runs parted further
        (parameters 7.3e-3, perplexity 7.4e-4): at lr 5 a rounding
        difference can grow."""
        corpus = build_plain_corpus(0, 300)
        config = CharLmConfig(direction="forward", char_embed_dim=16, hidden_size=64,
                              sequence_length=50, mini_batch=8, learning_rate=5.0,
                              dropout=0.0)
        model, log = train_lm(corpus, config, seed)
        monkeypatch.setattr(charlm, "CharLm", lambda *args: float64_copy(CharLm(*args)))
        wide, wide_log = train_lm(corpus, config, seed)
        for (name, a), (_, b) in zip(tensors(model), tensors(wide), strict=True):
            assert a.dtype == np.float32 and b.dtype == np.float64
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-4, err_msg=name)
        (got,), (want,) = log.epochs, wide_log.epochs
        assert got.train_loss == pytest.approx(want.train_loss, rel=1e-6)
        assert got.dev_loss == pytest.approx(want.dev_loss, rel=1e-4)
        assert got.test_perplexity == pytest.approx(want.test_perplexity, rel=1e-4)

    def test_explicit_vocab_respected(self):
        corpus = PlainCorpus.from_lines(["ababab" * 200])
        vocab = CharVocabulary("ab x")
        model, _ = train_lm(corpus, tiny_config(), seed=0, vocab=vocab)
        assert model.vocab == vocab


class TestSaveLoad:
    def _trained(self, tmp_path):
        corpus = PlainCorpus.from_lines(["guten morgen wien " * 60])
        model, _ = train_lm(corpus, tiny_config(sequence_length=30), seed=5)
        path = tmp_path / "lm.bin"
        save_lm(model, path)
        return model, path

    def test_round_trip_parameters_and_vocab(self, tmp_path):
        model, path = self._trained(tmp_path)
        loaded = load_lm(path)
        assert loaded.vocab == model.vocab
        assert loaded.direction == model.direction
        for (n1, a), (n2, b) in zip(tensors(model), tensors(loaded)):
            assert a.dtype == b.dtype == np.float32
            np.testing.assert_array_equal(a, b)

    def test_save_load_save_identical(self, tmp_path):
        _, path = self._trained(tmp_path)
        loaded = load_lm(path)
        path2 = tmp_path / "lm2.bin"
        save_lm(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_loaded_model_same_perplexity(self, tmp_path):
        model, path = self._trained(tmp_path)
        loaded = load_lm(path)
        text = "guten morgen"
        assert sentence_perplexity(loaded, text) == sentence_perplexity(loaded, text)
        # float32 storage rounds parameters, so compare post-rounding models
        roundtrip = load_lm(path)
        assert sentence_perplexity(roundtrip, text) == sentence_perplexity(loaded, text)

    def test_loads_fresh_float32_arrays_without_drawing(self, tmp_path, monkeypatch):
        _, path = self._trained(tmp_path)
        forbid_draws(monkeypatch)
        assert_fresh_float32(load_lm(path).named_layers)

    def test_truncated_file(self, tmp_path):
        _, path = self._trained(tmp_path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(ModelFormatError):
            load_lm(path)

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "bad.bin"
        meta = {"kind": "charlm", "direction": "forward", "char_embed_dim": 4,
                "hidden_size": 8, "dropout": 0.0, "vocab": [97, 98]}
        save_tensors(path, meta, [("embedding.weight", np.zeros((3, 9)))])
        with pytest.raises(ModelFormatError):
            load_lm(path)

    def test_wrong_kind(self, tmp_path):
        path = tmp_path / "other.bin"
        save_tensors(path, {"kind": "something"}, [])
        with pytest.raises(ModelFormatError):
            load_lm(path)

    @pytest.mark.parametrize("key,value,tensor", [
        ("hidden_size", 2 ** 20, "lstm.Wx"), ("hidden_size", 9, "lstm.Wx"),
        ("char_embed_dim", 2 ** 30, "embedding.weight")])
    def test_dims_the_payload_cannot_hold_refused_before_building(
            self, tmp_path, no_large_layers, key, value, tensor):
        """hidden_size 2**20 implies about 4.4e12 parameters (35 TB as
        float64), char_embed_dim 2**30 about 2.7e10; the file is refused on
        the tensor shapes its dims imply before any layer is built."""
        _, path = self._trained(tmp_path)
        meta, stored = load_tensors(path)
        save_tensors(path, {**meta, key: value}, list(stored.items()))
        with pytest.raises(ModelFormatError, match=f"tensor '{tensor}' has shape .*, expected"):
            load_lm(path)

    def test_file_layout(self, tmp_path):
        _, path = self._trained(tmp_path)
        _, loaded = load_tensors(path)
        assert list(loaded) == [
            "embedding.weight", "lstm.Wx", "lstm.Wh", "lstm.bias",
            "projection.weight", "projection.bias"]

    def test_meta_holds_only_the_model(self, tmp_path):
        _, path = self._trained(tmp_path)
        meta, _ = load_tensors(path)
        assert set(meta) == {"kind", "direction", "char_embed_dim", "hidden_size", "vocab"}

    def test_older_dropout_key_is_ignored(self, tmp_path):
        _, path = self._trained(tmp_path)
        meta, loaded = load_tensors(path)
        older = tmp_path / "older.bin"
        save_tensors(older, {**meta, "dropout": 0.3}, list(loaded.items()))
        current, legacy = load_lm(path), load_lm(older)
        for (n1, a), (n2, b) in zip(tensors(current), tensors(legacy)):
            assert n1 == n2
            np.testing.assert_array_equal(a, b)
        text = "guten morgen"
        assert sentence_perplexity(legacy, text) == sentence_perplexity(current, text)

    @pytest.mark.parametrize("key,value", [
        ("direction", "sideways"), ("hidden_size", 0), ("char_embed_dim", 0),
        ("hidden_size", 16.0), ("char_embed_dim", "8")])
    def test_invalid_meta_rejected(self, tmp_path, key, value):
        _, path = self._trained(tmp_path)
        meta, loaded = load_tensors(path)
        save_tensors(path, {**meta, key: value}, list(loaded.items()))
        with pytest.raises(ModelFormatError, match=key):
            load_lm(path)

    def test_missing_tensor(self, tmp_path):
        _, path = self._trained(tmp_path)
        meta, loaded = load_tensors(path)
        del loaded["lstm.Wh"]
        save_tensors(path, meta, list(loaded.items()))
        with pytest.raises(ModelFormatError, match="missing tensor 'lstm.Wh'"):
            load_lm(path)

    def test_unexpected_tensor(self, tmp_path):
        _, path = self._trained(tmp_path)
        meta, loaded = load_tensors(path)
        save_tensors(path, meta, [*loaded.items(), ("lstm.extra", np.zeros(2))])
        with pytest.raises(ModelFormatError, match="unexpected tensor 'lstm.extra'"):
            load_lm(path)

    def test_meta_not_a_mapping(self, tmp_path):
        path = tmp_path / "list_meta.bin"
        path.write_bytes(raw_container({"meta": ["charlm"], "tensors": []}))
        with pytest.raises(ModelFormatError):
            load_lm(path)


@lru_cache(maxsize=1)
def tiny_lm_bytes() -> bytes:
    model = small_model("ab", hidden=2, embed=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lm.bin"
        save_lm(model, path)
        return path.read_bytes()


def load_lm_bytes(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lm.bin"
        path.write_bytes(data)
        return load_lm(path)


class TestCorruptedFiles:
    """A truncated LM file raises ModelFormatError; one with a flipped bit
    either loads or raises ModelFormatError, and any other exception fails.
    A flip inside a tensor payload loads, since the payload carries no
    checksum."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_truncation(self, data):
        good = tiny_lm_bytes()
        with pytest.raises(ModelFormatError):
            load_lm_bytes(good[:data.draw(st.integers(0, len(good) - 1))])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_single_bit_flip(self, data):
        flipped = bytearray(tiny_lm_bytes())
        bit = data.draw(st.integers(0, 8 * len(flipped) - 1))
        flipped[bit // 8] ^= 1 << (bit % 8)
        try:
            load_lm_bytes(bytes(flipped))
        except ModelFormatError:
            pass
