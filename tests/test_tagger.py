import multiprocessing
import os

import numpy as np
import pytest

from histtag import embed, tagger
from histtag.charlm import CharLm, load_lm, save_lm
from histtag.corpus import (
    CharVocabulary,
    TaggedCorpus,
    TagScheme,
    convert_scheme,
    convert_tags,
    extract_char_vocab,
    extract_spans,
)
from histtag.crf import viterbi_decode
from histtag.embed import (
    CharFeatureEncoder,
    ContextualEmbedder,
    StackedEmbedder,
    WordTableEmbedder,
    embedder_factory,
    load_vectors,
)
from histtag.errors import ConfigError, EmptyCorpusError, ModelFormatError, NonFiniteGradientError
from histtag.evaluation import evaluate, read_conll_predictions, write_conll_predictions
from histtag.serialization import layer_tensors, load_tensors, save_tensors
from histtag.toydata import build_tagged_splits
from histtag.tagger import (
    MIN_LEARNING_RATE,
    NerModel,
    TaggerConfig,
    _batch_step,
    load_ner,
    predict,
    save_ner,
    train_ner,
)

from conftest import make_corpus
from oracles import (
    FLOAT32_EMISSION_ATOL,
    FLOAT32_TAGGING_ATOL,
    emissions_reference,
    gradient_relative_error,
    numeric_gradient,
    sentence_step_reference,
)

TRAIN_SENTENCES = [
    [("Anna", "S-PER"), ("besucht", "O"), ("Wien", "S-LOC")],
    [("Karl", "S-PER"), ("wohnt", "O"), ("in", "O"), ("Graz", "S-LOC")],
    [("die", "O"), ("Stadt", "O"), ("Linz", "S-LOC")],
    [("Maria", "B-PER"), ("Theresia", "E-PER"), ("regierte", "O")],
    [("der", "O"), ("Kaiser", "O"), ("von", "O"), ("Wien", "S-LOC")],
    [("Anna", "S-PER"), ("und", "O"), ("Karl", "S-PER")],
    [("Graz", "S-LOC"), ("liegt", "O"), ("im", "O"), ("Süden", "O")],
    [("Herr", "O"), ("Huber", "S-PER"), ("lacht", "O")],
]


ONE_TOKEN = [("Wien", "S-LOC")]


def toy_corpus(rows=None, split="train"):
    return make_corpus(rows or TRAIN_SENTENCES, scheme=TagScheme.IOBES, split=split)


def char_only_embedder(corpus, seed=0, hidden=6):
    vocab = extract_char_vocab(corpus)
    enc = CharFeatureEncoder(vocab, np.random.default_rng(seed),
                             embed_dim=8, hidden=hidden)
    return StackedEmbedder([enc])


def small_config(**kwargs):
    base = dict(lstm_hidden=8, learning_rate=0.1, mini_batch=4,
                max_epochs=5, seed=1)
    base.update(kwargs)
    return TaggerConfig(**base)


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"lstm_hidden": 0},
        {"mini_batch": 0},
        {"max_epochs": 0},
        {"patience": -1},
        {"learning_rate": 0.0},
        {"learning_rate": -0.1},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            TaggerConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"lstm_hidden": 8.5}, {"seed": 1.7}, {"patience": False}, {"learning_rate": "0.1"},
    ])
    def test_rejects_wrong_types(self, kwargs):
        with pytest.raises(ConfigError, match=f"{next(iter(kwargs))} must be"):
            TaggerConfig(**kwargs)

    @pytest.mark.parametrize("rate", [float("inf"), float("nan"), -float("inf")])
    def test_rejects_non_finite_learning_rate(self, rate):
        with pytest.raises(ConfigError, match="learning_rate must be finite"):
            TaggerConfig(learning_rate=rate)

    def test_int_learning_rate_accepted(self):
        assert TaggerConfig(learning_rate=1).learning_rate == 1

    def test_defaults(self):
        cfg = TaggerConfig()
        assert cfg.lstm_hidden == 512
        assert cfg.learning_rate == 0.1
        assert cfg.mini_batch == 8
        assert cfg.max_epochs == 500
        assert cfg.patience == 3


def fresh_model(corpus, seed=2):
    embedder = char_only_embedder(corpus, seed=seed)
    tags = tuple(sorted({t for s in corpus for t in s.gold_tags()} | {"O"}))
    return NerModel(embedder, tags, 8, np.random.default_rng(seed))


class TestEmissions:
    def test_shape(self):
        corpus = toy_corpus()
        model = fresh_model(corpus)
        out, lengths, _ = model._emissions(corpus.sentences[:2])
        assert out.shape == (2, 4, len(model.tags))
        assert lengths.tolist() == [3, 4]

    def test_zero_weights_zero_emissions(self):
        corpus = toy_corpus()
        model = fresh_model(corpus)
        for layer in model.layers:
            for p in layer.params.values():
                p[...] = 0.0
        out, _, _ = model._emissions([corpus.sentences[1]])
        np.testing.assert_array_equal(out, 0.0)

    def test_gradient_through_encoder_and_projection(self):
        """A group of one sentence."""
        check_emission_gradients([toy_corpus().sentences[0]])

    def test_gradient_through_padded_group(self):
        """A group of 3, 4 and 3 tokens whose padded positions get no
        gradient."""
        check_emission_gradients([toy_corpus().sentences[i] for i in (0, 1, 5)])


def check_emission_gradients(sentences):
    model = fresh_model(toy_corpus())
    rng = np.random.default_rng(3)
    _, lengths, _ = model._emissions(sentences)
    R = rng.standard_normal((len(sentences), lengths.max(), len(model.tags)))
    R[np.arange(lengths.max()) >= lengths[:, None]] = 0.0

    def loss():
        return float(np.sum(model._emissions(sentences)[0] * R))

    model.zero_grads()
    _, _, cache = model._emissions(sentences)
    model._backward(cache, R)
    for layer in (model.fwd, model.bwd, model.projection, *model.embedder.layers):
        for name, param in layer.params.items():
            err = gradient_relative_error(
                layer.grads[name], numeric_gradient(loss, param))
            assert err < 1e-4, f"{name}: {err:.2e}"


class TestPredict:
    def test_fills_every_token_deterministically(self):
        corpus = toy_corpus()
        model = fresh_model(corpus)
        out1 = predict(model, corpus)
        out2 = predict(model, corpus)
        assert out1 == out2
        assert [len(tags) for tags in out1] == [len(s) for s in corpus]
        assert all(isinstance(t, str) for tags in out1 for t in tags)

    def test_gold_tags_preserved(self, tmp_path):
        """A prediction file written from predict's tag lists carries the
        corpus's gold tags beside them, and both read back unchanged."""
        corpus = toy_corpus()
        predicted = predict(fresh_model(corpus), corpus)
        write_conll_predictions(corpus, predicted, tmp_path / "pred.conll")
        gold, read = read_conll_predictions(tmp_path / "pred.conll", TagScheme.IOB2)
        assert convert_scheme(gold, TagScheme.IOBES) == corpus
        assert [convert_tags(tags, TagScheme.IOB2, TagScheme.IOBES)
                for tags in read] == predicted

    def test_predictions_well_formed_across_random_models(self):
        corpus = toy_corpus()
        for seed in range(5):
            model = fresh_model(corpus, seed=seed)
            for tags in predict(model, corpus):
                extract_spans(tags, TagScheme.IOBES)

    def test_iob2_corpus_predicted_in_iob2(self):
        corpus = toy_corpus()
        iob2 = convert_scheme(corpus, TagScheme.IOB2)
        for seed in range(5):
            model = fresh_model(corpus, seed=seed)
            for tagged, iobes in zip(predict(model, iob2), predict(model, corpus)):
                assert (extract_spans(tagged, TagScheme.IOB2)
                        == extract_spans(iobes, TagScheme.IOBES))


class TestTraining:
    def test_overfits_toy_corpus(self):
        corpus = toy_corpus()
        embedder = char_only_embedder(corpus, hidden=12)
        # lr 1.0 suits the tiny encoder; patience is generous so transient
        # F1 plateaus during the loss descent don't floor the rate early
        config = small_config(lstm_hidden=16, max_epochs=120, mini_batch=4,
                              learning_rate=1.0, patience=25, seed=4)
        model, log = train_ner(corpus, corpus, config, embedder)
        report = evaluate(corpus, predict(model, corpus))
        assert report.f1 == 1.0
        assert log.best_dev_f1 == 1.0

    def test_non_finite_gradient_stops_training(self):
        corpus = toy_corpus()
        table = WordTableEmbedder(2, {"Graz": np.array([np.nan, 0.0])})
        embedder = StackedEmbedder([table])
        # one mini-batch holds every sentence, "Graz" among them
        with pytest.raises(NonFiniteGradientError, match="epoch 1, step 1"):
            train_ner(corpus, corpus, small_config(mini_batch=8), embedder)

    def test_annealing_schedule_with_flat_scores(self):
        corpus = toy_corpus()
        embedder = char_only_embedder(corpus)
        config = small_config(max_epochs=4, learning_rate=0.1, patience=3)
        _, log = train_ner(corpus, corpus, config, embedder,
                           dev_scorer=lambda m: 0.0)
        rates = [r.learning_rate for r in log.records]
        assert rates == [0.1, 0.1, 0.1, 0.05]
        assert [r.annealed for r in log.records] == [False, False, True, False]

    def test_counter_resets_after_anneal(self):
        corpus = toy_corpus()
        embedder = char_only_embedder(corpus)
        config = small_config(max_epochs=7, learning_rate=0.1, patience=3)
        _, log = train_ner(corpus, corpus, config, embedder,
                           dev_scorer=lambda m: 0.0)
        rates = [r.learning_rate for r in log.records]
        assert rates == [0.1, 0.1, 0.1, 0.05, 0.05, 0.05, 0.025]

    def test_converged_status(self):
        corpus = toy_corpus()
        embedder = char_only_embedder(corpus)
        # dev F1 rises at epoch 1 only; the rate is 3, 3, then 1.5 times
        # the floor, and halved once more it falls below
        scores = iter([0.5, 0.0, 0.0])
        config = small_config(max_epochs=50, learning_rate=3 * MIN_LEARNING_RATE,
                              patience=1)
        _, log = train_ner(corpus, corpus, config, embedder,
                           dev_scorer=lambda m: next(scores))
        assert log.status == "converged"
        assert log.best_epoch == 1
        assert [r.learning_rate for r in log.records] == [
            3 * MIN_LEARNING_RATE, 3 * MIN_LEARNING_RATE, 1.5 * MIN_LEARNING_RATE]

    @pytest.mark.parametrize("max_epochs,records", [(50, 2), (1, 1)],
                             ids=["rate_below_floor", "max_epochs"])
    def test_run_that_never_improves_is_not_converged(self, max_epochs, records):
        corpus = toy_corpus()
        config = small_config(max_epochs=max_epochs, learning_rate=3 * MIN_LEARNING_RATE,
                              patience=1)
        _, log = train_ner(corpus, corpus, config, char_only_embedder(corpus),
                           dev_scorer=lambda m: 0.0)
        assert (log.status, log.best_epoch, len(log.records)) == (
            "no_improvement", 0, records)

    def test_char_features_at_the_default_schedule_report_no_improvement(self):
        """On the toy splits a char-features-only tagger at the default
        schedule (lr 0.1, mini_batch 8, patience 3) scores dev F1 0 on every
        epoch and anneals below MIN_LEARNING_RATE after 30 epochs, keeping
        its initial parameters.  lstm_hidden is 16 rather than 512 to keep
        the test fast; 512 gives the same 30 zero epochs."""
        splits = build_tagged_splits(0)
        train, dev = splits["train"], splits["dev"]
        encoder = CharFeatureEncoder(extract_char_vocab(train, dev),
                                     np.random.default_rng([0, 1]))
        _, log = train_ner(train, dev, TaggerConfig(lstm_hidden=16),
                           StackedEmbedder([encoder]))
        assert [r.dev_f1 for r in log.records] == [0.0] * 30
        assert (log.status, log.best_epoch) == ("no_improvement", 0)

    def test_best_epoch_parameters_returned(self):
        corpus = toy_corpus()
        embedder = char_only_embedder(corpus)
        scores = iter([0.3, 0.9, 0.2, 0.1])
        seen = []

        def scorer(model):
            seen.append([p.copy() for layer in model.layers
                         for p in layer.params.values()])
            return next(scores)

        config = small_config(max_epochs=4)
        model, log = train_ner(corpus, corpus, config, embedder,
                               dev_scorer=scorer)
        assert log.best_epoch == 2
        assert log.best_dev_f1 == 0.9
        final = [p for layer in model.layers for p in layer.params.values()]
        # the best epoch's values, rounded to the float32 a model file stores
        for param, saved in zip(final, seen[1]):
            np.testing.assert_array_equal(param, saved.astype(np.float32))

    def test_deterministic_given_seed(self):
        corpus = toy_corpus()
        cfg = small_config(max_epochs=3, seed=7)
        m1, log1 = train_ner(corpus, corpus, cfg, char_only_embedder(corpus, seed=7))
        m2, log2 = train_ner(corpus, corpus, cfg, char_only_embedder(corpus, seed=7))
        assert [r.dev_f1 for r in log1.records] == [r.dev_f1 for r in log2.records]
        for l1, l2 in zip(m1.layers, m2.layers):
            for name in l1.params:
                np.testing.assert_array_equal(l1.params[name], l2.params[name])

    def test_empty_train_rejected(self):
        corpus = toy_corpus()
        empty = TaggedCorpus((), scheme=TagScheme.IOBES)
        with pytest.raises(EmptyCorpusError):
            train_ner(empty, corpus, small_config(), char_only_embedder(corpus))
        with pytest.raises(EmptyCorpusError):
            train_ner(corpus, empty, small_config(), char_only_embedder(corpus))

    def test_iob2_corpora_train_as_their_iobes_conversion(self):
        iobes = toy_corpus()
        iob2 = convert_scheme(iobes, TagScheme.IOB2)
        cfg = small_config(max_epochs=3, seed=7)
        m1, log1 = train_ner(iob2, iob2, cfg, char_only_embedder(iob2, seed=7))
        m2, log2 = train_ner(iobes, iobes, cfg, char_only_embedder(iobes, seed=7))
        assert m1.tags == m2.tags
        assert any(t.startswith(("E-", "S-")) for t in m1.tags)
        assert log1 == log2
        t1, t2 = layer_tensors(m1.named_layers), layer_tensors(m2.named_layers)
        assert [n for n, _ in t1] == [n for n, _ in t2]
        for (name, a), (_, b) in zip(t1, t2):
            np.testing.assert_array_equal(a, b, err_msg=name)


class TestBatchedStep:
    """A mini-batch runs as one padded group; ``oracles``'s
    ``sentence_step_reference`` runs each of its sentences alone through the
    unbatched CRF, as training did before.  Sums run in another order, so
    the two agree within 1e-12."""

    @pytest.mark.parametrize("rows", [(8, 1, 3, 6), (3, 8), (1,), (8,)],
                             ids=["one_token_among_longer", "one_token_last",
                                  "batch_of_one", "batch_of_one_token"])
    def test_gradients_are_the_scaled_sum_of_sentences(self, rows):
        corpus = toy_corpus(TRAIN_SENTENCES + [ONE_TOKEN])
        model = fresh_model(corpus)
        sentences = [corpus.sentences[i] for i in rows]
        golds = [np.array([model.tag_index[t] for t in s.gold_tags()]) for s in sentences]
        scale = 1.0 / len(rows)

        def grads():
            return {f"{name}.{p}": g.copy() for name, layer in model.named_layers
                    for p, g in layer.grads.items()}

        model.zero_grads()
        nlls = _batch_step(model, sentences, golds, scale)
        batched = grads()
        model.zero_grads()
        reference = [sentence_step_reference(model, s, g, scale)
                     for s, g in zip(sentences, golds)]
        np.testing.assert_allclose(nlls, reference, rtol=0, atol=1e-12)
        for name, want in grads().items():
            # a recurrence over one step gets no gradient through Wh
            one_step = name.endswith(".Wh") and max(map(len, sentences)) == 1
            assert np.any(want != 0.0) or one_step, name
            np.testing.assert_allclose(batched[name], want, rtol=0, atol=1e-12,
                                       err_msg=name)

    def test_training_matches_steps_per_sentence(self, monkeypatch):
        """Nine sentences in mini-batches of 4: the last batch holds one."""
        corpus = toy_corpus(TRAIN_SENTENCES + [ONE_TOKEN])
        config = small_config(max_epochs=3, seed=7)
        m1, log1 = train_ner(corpus, corpus, config, char_only_embedder(corpus, seed=7))

        def per_sentence(model, sentences, golds, scale):
            return [sentence_step_reference(model, s, g, scale)
                    for s, g in zip(sentences, golds)]
        monkeypatch.setattr(tagger, "_batch_step", per_sentence)
        m2, log2 = train_ner(corpus, corpus, config, char_only_embedder(corpus, seed=7))
        assert [r.dev_f1 for r in log1.records] == [r.dev_f1 for r in log2.records]
        assert (log1.best_epoch, log1.status) == (log2.best_epoch, log2.status)
        np.testing.assert_allclose([r.train_loss for r in log1.records],
                                   [r.train_loss for r in log2.records], rtol=1e-12)
        for (name, a), (_, b) in zip(layer_tensors(m1.named_layers),
                                     layer_tensors(m2.named_layers), strict=True):
            # float32 after training: equal, or one float32 rounding step
            # apart where a 1e-16 difference crossed a boundary
            np.testing.assert_allclose(a, b, rtol=2 ** -23, atol=1e-12, err_msg=name)


def full_embedder(tmp_path, corpus):
    """All three component kinds, with on-disk artifacts for by-reference
    serialization."""
    rng = np.random.default_rng(11)
    vec_path = tmp_path / "vectors.txt"
    words = sorted({t.text for s in corpus for t in s})
    lines = [f"{w} " + " ".join(f"{v:.3f}" for v in rng.standard_normal(4))
             for w in words[:5]]
    vec_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    table = load_vectors(vec_path)

    vocab = extract_char_vocab(corpus)
    chars = CharFeatureEncoder(vocab, rng, embed_dim=6, hidden=5)

    fwd = CharLm(vocab, "forward", 4, 6, rng)
    bwd = CharLm(vocab, "backward", 4, 6, rng)
    fwd_path, bwd_path = tmp_path / "fwd.lm", tmp_path / "bwd.lm"
    save_lm(fwd, fwd_path)
    save_lm(bwd, bwd_path)
    ctx = ContextualEmbedder(fwd, bwd, forward_path=fwd_path, backward_path=bwd_path)
    return StackedEmbedder([table, chars, ctx])


def saved_lms(tmp_path):
    """The float64 LMs ``full_embedder`` saved, as their files hold them."""
    return [load_lm(tmp_path / name) for name in ("fwd.lm", "bwd.lm")]


class TestGroupedPath:
    """``predict`` runs length-sorted groups; ``oracles.emissions_reference``
    runs each sentence alone, with float64 contextual states, so emissions
    agree within FLOAT32_EMISSION_ATOL."""

    def test_group_emissions_equal_sentences_alone(self, tmp_path):
        corpus = toy_corpus()
        embedder = full_embedder(tmp_path, corpus)
        model = NerModel(embedder, ("O", "S-LOC", "S-PER"), 7, np.random.default_rng(9))
        emissions, lengths, _ = model._emissions(corpus.sentences)
        lms = saved_lms(tmp_path)
        for row, length, sentence in zip(emissions, lengths, corpus):
            np.testing.assert_allclose(row[:length], emissions_reference(model, sentence, lms),
                                       rtol=0, atol=FLOAT32_EMISSION_ATOL)

    def test_tags_do_not_depend_on_the_group(self, tmp_path):
        corpus = toy_corpus()
        model, _ = train_ner(corpus, corpus, small_config(max_epochs=2),
                             full_embedder(tmp_path, corpus))
        tags = predict(model, corpus)
        reverse = TaggedCorpus(corpus.sentences[::-1], corpus.scheme)
        assert predict(model, reverse) == tags[::-1]
        alone = [predict(model, TaggedCorpus((s,), corpus.scheme))[0] for s in corpus]
        assert alone == tags

    def test_sentence_longer_than_the_budget_runs_alone(self, tmp_path, monkeypatch):
        corpus = toy_corpus(TRAIN_SENTENCES + [[("Wien", "S-LOC")], [("Anna", "S-PER")]])
        model = NerModel(full_embedder(tmp_path, corpus), ("O", "S-LOC", "S-PER"), 7,
                         np.random.default_rng(9))
        tags = predict(model, corpus)
        longest = max(corpus, key=lambda s: len(" ".join(s.texts())))
        monkeypatch.setattr(embed, "GROUP_CHARS", len(" ".join(longest.texts())) - 1)
        groups = []
        emissions = NerModel._emissions

        def recording(self, sentences):
            groups.append(list(sentences))
            return emissions(self, sentences)
        monkeypatch.setattr(NerModel, "_emissions", recording)
        assert predict(model, corpus) == tags
        assert [longest] in groups
        assert max(len(g) for g in groups) > 1


class TestTwoTierPredict:
    """``predict`` extracts frozen blocks over EXTRACT_CHARS groups and runs
    GROUP_CHARS groups through the stack and the tagger.  Budgets of 80 and
    40 characters cut the corpus below into several of each."""

    SENTENCES = TRAIN_SENTENCES + [
        ONE_TOKEN, [("Anna", "S-PER"), ("und", "O"), ("Karl", "S-PER"), ("wohnen", "O"),
                    ("in", "O"), ("Wien", "S-LOC"), ("und", "O"), ("Graz", "S-LOC")]]

    def model_and_corpus(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embed, "EXTRACT_CHARS", 80)
        monkeypatch.setattr(embed, "GROUP_CHARS", 40)
        corpus = toy_corpus(self.SENTENCES)
        model = NerModel(full_embedder(tmp_path, corpus), ("O", "S-LOC", "S-PER"), 7,
                         np.random.default_rng(9))
        # emissions large enough that the tags vary along a sentence
        model.projection.params["weight"] *= 40.0
        return model, corpus

    def reference_tags(self, tmp_path, model, corpus):
        lms = saved_lms(tmp_path)
        return [[model.tags[k] for k in
                 viterbi_decode(emissions_reference(model, sentence, lms), model.crf)[0]]
                for sentence in corpus]

    def test_tags_equal_the_reference_per_sentence(self, tmp_path, monkeypatch):
        model, corpus = self.model_and_corpus(tmp_path, monkeypatch)
        # on one CPU every tier runs in this process, where the recorders see it
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        extractions, groups = [], []
        extracting, emissions = StackedEmbedder.extracting, NerModel._emissions

        def recording_extracting(self, sentences):
            extractions.append(list(sentences))
            return extracting(self, sentences)

        def recording_emissions(self, sentences):
            groups.append(list(sentences))
            return emissions(self, sentences)
        monkeypatch.setattr(StackedEmbedder, "extracting", recording_extracting)
        monkeypatch.setattr(NerModel, "_emissions", recording_emissions)
        tags = predict(model, corpus)
        assert tags == self.reference_tags(tmp_path, model, corpus)
        assert len({t for sentence_tags in tags for t in sentence_tags}) > 1
        # several extraction groups, one of them run as several stack groups,
        # each stack group inside the extraction group it runs in
        assert len(extractions) > 1 and len(groups) > len(extractions)
        for group in groups:
            assert any(all(s in extraction for s in group) for extraction in extractions)
        assert sum(map(len, extractions)) == sum(map(len, groups)) == len(corpus)

    def test_decodes_float32_emissions_within_the_bound(self, tmp_path, monkeypatch):
        """The groups run on a float32 copy of the model: the emissions
        Viterbi decodes are float32, within FLOAT32_TAGGING_ATOL of the
        float64 reference, and give the reference's tags."""
        model, corpus = self.model_and_corpus(tmp_path, monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        grouped, decoded = [], []
        emissions, decode = NerModel._emissions, tagger.viterbi_decode

        def recording_emissions(self, sentences):
            grouped.extend(sentences)
            return emissions(self, sentences)

        def recording_decode(scores, crf):
            decoded.append(scores)
            return decode(scores, crf)
        monkeypatch.setattr(NerModel, "_emissions", recording_emissions)
        monkeypatch.setattr(tagger, "viterbi_decode", recording_decode)
        tags = predict(model, corpus)
        lms = saved_lms(tmp_path)
        # each group's sentences are decoded in the order they ran
        for sentence, scores in zip(grouped, decoded, strict=True):
            assert scores.dtype == np.float32
            np.testing.assert_allclose(scores, emissions_reference(model, sentence, lms),
                                       rtol=0, atol=FLOAT32_TAGGING_ATOL)
        assert len(decoded) == len(corpus)
        assert tags == self.reference_tags(tmp_path, model, corpus)

    def test_tags_do_not_depend_on_the_cpus(self, tmp_path, monkeypatch):
        """Each tier is a ``parallel.map_jobs`` job: on two CPUs a forked
        worker tags the second."""
        model, corpus = self.model_and_corpus(tmp_path, monkeypatch)
        assert len(embed.extraction_groups(corpus.sentences)) >= 3
        tags = {}
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            tags[cpus] = predict(model, corpus)
            assert multiprocessing.active_children() == []
        assert tags[2] == tags[1] == self.reference_tags(tmp_path, model, corpus)

    def test_stack_memos_restored_also_on_error(self, tmp_path, monkeypatch):
        model, corpus = self.model_and_corpus(tmp_path, monkeypatch)
        memos = model.embedder.memos
        predict(model, corpus)
        assert model.embedder.memos is memos and memos == {}
        emissions = NerModel._emissions
        calls = []

        def failing(self, sentences):
            calls.append(sentences)
            if len(calls) == 2:
                assert set(self.embedder.memos) == {0, 2}
                raise RuntimeError("stop")
            return emissions(self, sentences)
        monkeypatch.setattr(NerModel, "_emissions", failing)
        with pytest.raises(RuntimeError, match="stop"):
            predict(model, corpus)
        assert model.embedder.memos is memos and memos == {}


class TestFrozenMemo:
    # contextual blocks are 12 × 4 bytes per token: 1000 holds some of the
    # corpus's sentences, not all
    @pytest.mark.parametrize("bound", [None, 1000], ids=["default_bound", "small_bound"])
    def test_memo_backed_stack_trains_like_one_without(self, tmp_path, monkeypatch, bound):
        """The memo's blocks come from one grouped extraction and the plain
        stack's from each mini-batch, so they agree to the rounding of the
        batched products (here within 1e-12), and so do the two trainings."""
        if bound is not None:
            monkeypatch.setattr(embed, "MEMO_BYTES", bound)
        corpus = toy_corpus()
        full_embedder(tmp_path, corpus)  # writes the files the entries name
        entries = [{"kind": "word_table", "path": str(tmp_path / "vectors.txt")},
                   {"kind": "char_features", "embed_dim": 6, "hidden": 5},
                   {"kind": "contextual", "forward": str(tmp_path / "fwd.lm"),
                    "backward": str(tmp_path / "bwd.lm")}]
        build = embedder_factory(entries, extract_char_vocab(corpus), corpus)
        memo_stack = build(np.random.default_rng(4))
        plain_stack = StackedEmbedder(build(np.random.default_rng(4)).components)
        config = small_config(max_epochs=3, seed=5)
        m1, log1 = train_ner(corpus, corpus, config, memo_stack)
        m2, log2 = train_ner(corpus, corpus, config, plain_stack)
        assert [r.dev_f1 for r in log1.records] == [r.dev_f1 for r in log2.records]
        assert (log1.best_epoch, log1.status) == (log2.best_epoch, log2.status)
        np.testing.assert_allclose([r.train_loss for r in log1.records],
                                   [r.train_loss for r in log2.records], rtol=1e-12)
        for (name, a), (_, b) in zip(layer_tensors(m1.named_layers),
                                     layer_tensors(m2.named_layers), strict=True):
            # parameters are float32 after training: equal, or one float32
            # rounding step apart where a 1e-16 difference crossed a boundary
            np.testing.assert_allclose(a, b, rtol=2 ** -23, atol=1e-12, err_msg=name)
        distinct = len({tuple(s.texts()) for s in corpus})
        for memo in memo_stack.memos.values():
            assert memo.nbytes <= embed.MEMO_BYTES
        stored = len(memo_stack.memos[2].blocks)
        assert stored == distinct if bound is None else 0 < stored < distinct

    def test_filled_memos_leave_nothing_to_extract(self, tmp_path, monkeypatch):
        """Dev scoring predicts with the stack whose memos the training fill
        made: no frozen component runs again."""
        corpus = toy_corpus()
        full_embedder(tmp_path, corpus)  # writes the files the entries name
        entries = [{"kind": "word_table", "path": str(tmp_path / "vectors.txt")},
                   {"kind": "contextual", "forward": str(tmp_path / "fwd.lm"),
                    "backward": str(tmp_path / "bwd.lm")}]
        stack = embedder_factory(entries, extract_char_vocab(corpus), corpus)(
            np.random.default_rng(4))
        model = NerModel(stack, ("O", "S-LOC", "S-PER"), 7, np.random.default_rng(9))
        calls = []
        for cls in (embed.WordTableEmbedder, embed.ContextualEmbedder):
            monkeypatch.setattr(cls, "forward", lambda self, sentences: calls.append(self))
        predict(model, corpus)
        assert calls == []

    def test_loaded_model_keeps_no_blocks(self, tmp_path, monkeypatch):
        _, path = saved_full_model(tmp_path)
        loaded = load_ner(path)
        calls = []

        forward = embed.ContextualEmbedder.forward

        def counting(self, sentences):
            calls.extend(sentences)
            return forward(self, sentences)
        monkeypatch.setattr(embed.ContextualEmbedder, "forward", counting)
        corpus = toy_corpus()
        assert predict(loaded, corpus) == predict(loaded, corpus)
        assert loaded.embedder.memos == {}
        assert len(calls) == 2 * len(corpus)


class TestPredictLeavesItsModel:
    """``predict`` tags with a float32 copy: the model it is given keeps its
    float64 parameters bit for bit, its gradient slots and its memos."""

    @staticmethod
    def predict_checking_the_model(model, corpus):
        layers = model.layers
        params = [(layer.params, name, value, value.copy())
                  for layer in layers for name, value in layer.params.items()]
        grads = [(layer.grads, name, value, value.copy())
                 for layer in layers for name, value in layer.grads.items()]
        slots = [(set(layer.params), set(layer.grads)) for layer in layers]
        memos = model.embedder.memos
        held = dict(memos)
        emissions = model._emissions(corpus.sentences)[0]
        tags = predict(model, corpus)
        assert model.layers == layers
        after = model._emissions(corpus.sentences)[0]
        assert after.dtype == np.float64
        np.testing.assert_array_equal(after, emissions)
        assert [(set(layer.params), set(layer.grads)) for layer in layers] == slots
        for tensors, name, value, bits in params + grads:
            assert tensors[name] is value and value.dtype == np.float64
            np.testing.assert_array_equal(value.view(np.uint64), bits.view(np.uint64))
        assert model.embedder.memos is memos and memos == held
        return tags

    def test_after_a_dev_scored_epoch(self, tmp_path):
        corpus = toy_corpus()
        full_embedder(tmp_path, corpus)  # writes the files the entries name
        entries = [{"kind": "word_table", "path": str(tmp_path / "vectors.txt")},
                   {"kind": "char_features", "embed_dim": 6, "hidden": 5},
                   {"kind": "contextual", "forward": str(tmp_path / "fwd.lm"),
                    "backward": str(tmp_path / "bwd.lm")}]
        stack = embedder_factory(entries, extract_char_vocab(corpus), corpus)(
            np.random.default_rng(4))
        scored = []

        def scorer(model):
            # mid-training: the last step's gradients are still in their slots
            assert any(np.any(g) for layer in model.layers for g in layer.grads.values())
            scored.append(self.predict_checking_the_model(model, corpus))
            return evaluate(corpus, scored[-1]).f1
        model, _ = train_ner(corpus, corpus, small_config(max_epochs=2), stack,
                             dev_scorer=scorer)
        assert len(scored) == 2 and set(stack.memos) == {0, 2}
        self.predict_checking_the_model(model, corpus)

    def test_after_load_ner(self, tmp_path):
        _, path = saved_full_model(tmp_path)
        loaded = load_ner(path)
        corpus = toy_corpus()
        assert (self.predict_checking_the_model(loaded, corpus)
                == self.predict_checking_the_model(loaded, corpus))


class TestSaveLoad:
    def test_round_trip_predictions_identical(self, tmp_path):
        corpus = toy_corpus()
        embedder = full_embedder(tmp_path, corpus)
        config = small_config(max_epochs=2)
        model, _ = train_ner(corpus, corpus, config, embedder)
        path = tmp_path / "ner.bin"
        save_ner(model, path)
        loaded = load_ner(path)
        assert loaded.tags == model.tags
        assert predict(loaded, corpus) == predict(model, corpus)

    def test_trained_parameters_are_the_saved_float32_values(self, tmp_path):
        corpus = toy_corpus()
        model, _ = train_ner(corpus, corpus, small_config(max_epochs=2),
                             full_embedder(tmp_path, corpus))
        for name, value in layer_tensors(model.named_layers):
            np.testing.assert_array_equal(value, value.astype(np.float32), err_msg=name)
        save_ner(model, tmp_path / "ner.bin")
        loaded = layer_tensors(load_ner(tmp_path / "ner.bin").named_layers)
        for (name, a), (_, b) in zip(layer_tensors(model.named_layers), loaded):
            np.testing.assert_array_equal(a, b, err_msg=name)

    def test_hash_mismatch_detected(self, tmp_path):
        corpus = toy_corpus()
        embedder = full_embedder(tmp_path, corpus)
        model, _ = train_ner(corpus, corpus, small_config(max_epochs=1), embedder)
        path = tmp_path / "ner.bin"
        save_ner(model, path)
        vec_path = tmp_path / "vectors.txt"
        vec_path.write_text("tampered 1 2 3 4\n", encoding="utf-8")
        with pytest.raises(ModelFormatError, match="sha256"):
            load_ner(path)

    def test_references_recorded_relative_to_the_model_file(self, tmp_path, monkeypatch):
        corpus = toy_corpus()
        model = NerModel(full_embedder(tmp_path, corpus), ("O", "S-LOC"), 8,
                         np.random.default_rng(3))
        path = tmp_path / "models" / "ner.bin"
        path.parent.mkdir()
        monkeypatch.chdir(tmp_path / "models")
        save_ner(model, "ner.bin")
        meta, _ = load_tensors(path)
        assert meta["paths_relative_to_model"] is True
        assert [meta["components"][0]["path"], meta["components"][2]["forward_path"]] == [
            "../vectors.txt", "../fwd.lm"]
        monkeypatch.chdir(tmp_path.parent)
        loaded = load_ner(path.relative_to(tmp_path.parent))
        assert predict(loaded, corpus) == predict(model, corpus)

    def test_files_without_relative_references_resolve_against_cwd(self, tmp_path,
                                                                    monkeypatch):
        """Files written before references were recorded relative to the
        model file still load, with their paths taken from the current
        directory as they were written."""
        model, path = saved_full_model(tmp_path)
        meta, tensors = load_tensors(path)
        legacy = tmp_path / "old" / "ner.bin"
        legacy.parent.mkdir()
        del meta["paths_relative_to_model"]
        save_tensors(legacy, meta, list(tensors.items()))
        monkeypatch.chdir(tmp_path)
        corpus = toy_corpus()
        assert predict(load_ner(legacy), corpus) == predict(load_ner(path), corpus)
        save_tensors(legacy, {**meta, "paths_relative_to_model": True},
                     list(tensors.items()))
        with pytest.raises(FileNotFoundError, match="old/vectors.txt"):
            load_ner(legacy)

    def test_unsaved_reference_rejected(self, tmp_path):
        corpus = toy_corpus()
        table = WordTableEmbedder(3, {"a": np.ones(3)})
        model = NerModel(StackedEmbedder([table]), ("O", "S-PER"), 8,
                         np.random.default_rng(0))
        with pytest.raises(ConfigError, match="source path"):
            save_ner(model, tmp_path / "x.bin")

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "other.bin"
        save_tensors(path, {"kind": "charlm"}, [])
        with pytest.raises(ModelFormatError):
            load_ner(path)


def saved_full_model(tmp_path):
    """An untrained tagger over all three component kinds, saved."""
    corpus = toy_corpus()
    model = NerModel(full_embedder(tmp_path, corpus), ("O", "S-LOC", "S-PER"), 8,
                     np.random.default_rng(3))
    path = tmp_path / "ner.bin"
    save_ner(model, path)
    return model, path


class TestFileLayout:
    def test_tensor_names_in_order(self, tmp_path):
        _, path = saved_full_model(tmp_path)
        _, tensors = load_tensors(path)
        assert list(tensors) == [
            "component1.embedding.weight",
            "component1.fwd.Wx", "component1.fwd.Wh", "component1.fwd.bias",
            "component1.bwd.Wx", "component1.bwd.Wh", "component1.bwd.bias",
            "encoder.fwd.Wx", "encoder.fwd.Wh", "encoder.fwd.bias",
            "encoder.bwd.Wx", "encoder.bwd.Wh", "encoder.bwd.bias",
            "projection.weight", "projection.bias", "crf.transitions"]

    def test_round_trip_parameters(self, tmp_path):
        model, path = saved_full_model(tmp_path)
        loaded = load_ner(path)
        for l1, l2 in zip(model.layers, loaded.layers, strict=True):
            for name in l1.params:
                np.testing.assert_array_equal(
                    l1.params[name].astype(np.float32), l2.params[name])

    def test_unexpected_tensor(self, tmp_path):
        _, path = saved_full_model(tmp_path)
        meta, tensors = load_tensors(path)
        save_tensors(path, meta, [*tensors.items(), ("encoder.extra", np.zeros(3))])
        with pytest.raises(ModelFormatError, match="unexpected tensor 'encoder.extra'"):
            load_ner(path)

    def test_missing_tensor(self, tmp_path):
        _, path = saved_full_model(tmp_path)
        meta, tensors = load_tensors(path)
        del tensors["component1.bwd.Wh"]
        save_tensors(path, meta, list(tensors.items()))
        with pytest.raises(ModelFormatError, match="missing tensor 'component1.bwd.Wh'"):
            load_ner(path)

    @pytest.mark.parametrize("edit", [
        lambda components: components[0].pop("path"),
        lambda components: components.__setitem__(1, "char_features"),
        lambda components: components[1].__setitem__("embed_dim", "x"),
        lambda components: components[2].__setitem__("kind", "unknown"),
    ], ids=["word_table_without_path", "component_not_a_mapping",
            "embed_dim_not_a_number", "unknown_kind"])
    def test_malformed_component_meta(self, tmp_path, edit):
        _, path = saved_full_model(tmp_path)
        meta, tensors = load_tensors(path)
        edit(meta["components"])
        save_tensors(path, meta, list(tensors.items()))
        with pytest.raises(ModelFormatError, match="invalid model metadata"):
            load_ner(path)

    @pytest.mark.parametrize("flag", [True, False])
    def test_older_crf_mask_key_is_ignored(self, tmp_path, flag):
        """Older files record ``constrained``; they load their transitions
        as stored and predict what the saving model did, whatever the key
        says.  With ``False`` every transition holds a free value, as an
        unmasked CRF would have left it."""
        corpus = toy_corpus()
        model = NerModel(full_embedder(tmp_path, corpus), ("O", "S-LOC", "S-PER"), 8,
                         np.random.default_rng(3))
        if not flag:
            transitions = model.crf.params["transitions"]
            transitions[...] = np.random.default_rng(4).standard_normal(transitions.shape)
        for layer in model.layers:
            for value in layer.params.values():
                value[...] = value.astype(np.float32)
        path = tmp_path / "ner.bin"
        save_ner(model, path)
        meta, tensors = load_tensors(path)
        assert "constrained" not in meta
        save_tensors(path, {**meta, "constrained": flag}, list(tensors.items()))
        loaded = load_ner(path)
        np.testing.assert_array_equal(loaded.crf.params["transitions"],
                                      model.crf.params["transitions"])
        assert predict(loaded, corpus) == predict(model, corpus)

    def test_lstm_hidden_below_one_rejected(self, tmp_path):
        _, path = saved_full_model(tmp_path)
        meta, tensors = load_tensors(path)
        save_tensors(path, {**meta, "lstm_hidden": 0}, list(tensors.items()))
        with pytest.raises(ModelFormatError, match="lstm_hidden must be positive"):
            load_ner(path)

    def test_tensor_shapes_are_the_built_models(self, tmp_path):
        model, path = saved_full_model(tmp_path)
        meta, _ = load_tensors(path)
        shapes = [(f"component{i}.{name}", shape) for i, spec in enumerate(meta["components"])
                  for name, shape in embed.component_class(spec["kind"])
                  .tensor_shapes(spec).items()]
        shapes += NerModel.tensor_shapes(model.embedder.dim, len(model.tags),
                                         model.fwd.hidden_size).items()
        assert shapes == [(name, value.shape)
                          for name, value in layer_tensors(model.named_layers)]

    @pytest.mark.parametrize("edit,tensor", [
        (lambda meta: meta.__setitem__("lstm_hidden", 2 ** 20), "encoder.fwd.Wx"),
        (lambda meta: meta.__setitem__("lstm_hidden", 9), "encoder.fwd.Wx"),
        (lambda meta: meta["components"][1].__setitem__("hidden", 2 ** 20),
         "component1.fwd.Wx"),
        (lambda meta: meta["components"][1].__setitem__("embed_dim", 2 ** 30),
         "component1.embedding.weight"),
        (lambda meta: meta.__setitem__("tags", ["O"] * 3000), "projection.weight"),
    ], ids=["lstm_hidden_huge", "lstm_hidden_off_by_one", "char_hidden_huge",
            "char_embed_dim_huge", "tags_too_many"])
    def test_dims_the_payload_cannot_hold_refused_before_building(
            self, tmp_path, no_large_layers, edit, tensor):
        """lstm_hidden 2**20 implies about 8.8e12 parameters (70 TB as
        float64); the file is refused on the tensor shapes its dims imply
        before any layer of those dims is built."""
        _, path = saved_full_model(tmp_path)
        meta, tensors = load_tensors(path)
        edit(meta)
        save_tensors(path, meta, list(tensors.items()))
        with pytest.raises(ModelFormatError, match=f"tensor '{tensor}' has shape .*, expected"):
            load_ner(path)

    @pytest.mark.parametrize("key,value", [("embed_dim", 0), ("hidden", 0), ("hidden", -2)])
    def test_char_feature_dims_below_one_rejected(self, tmp_path, key, value):
        _, path = saved_full_model(tmp_path)
        meta, tensors = load_tensors(path)
        meta["components"][1][key] = value
        save_tensors(path, meta, list(tensors.items()))
        with pytest.raises(ModelFormatError, match=f"char_features {key} must be positive"):
            load_ner(path)
