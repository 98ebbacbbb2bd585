"""Acceptance suite: one test per shipping criterion.

Each test prints a single ``[criterion N] PASS/FAIL`` line with the
measured quantity next to the required tolerance, so a bare
``pytest tests/test_acceptance.py -s`` reads as a checklist.  Criterion 8
depends on externally licensed datasets and is skipped unless the
corresponding environment variables point at local copies.
"""

import json
import os
import shutil
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from histtag.charlm import (
    CharLm,
    CharLmConfig,
    corpus_perplexity,
    sentence_perplexity,
    train_lm,
)
from histtag.cli import main
from histtag.corpus import (
    CharVocabulary,
    PlainCorpus,
    Sentence,
    TaggedCorpus,
    TagScheme,
    Token,
    convert_scheme,
    convert_tags,
    entity_counts,
    extract_char_vocab,
    extract_spans,
    read_conll,
    render_tags,
    EntitySpan,
)
from histtag.crf import CrfLayer, crf_nll_with_grads
from histtag.embed import CharFeatureEncoder, SentenceGroup, StackedEmbedder
from histtag.evaluation import evaluate
from histtag.nn import cross_entropy
from histtag.serialization import file_sha256
from histtag.smlm import SmlmConfig, smlm_transform
from histtag.tagger import NerModel, TaggerConfig, predict, train_ner
from histtag.toydata import build_tagged_splits, write_toy_dataset

from conftest import decode_of, log_partition_of, make_corpus, nll_of
from oracles import (
    brute_log_partition,
    brute_nll,
    brute_viterbi,
    float64_copy,
    gradient_relative_error,
    numeric_gradient,
)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# 1. CRF vs brute-force enumeration


def _random_crf_instance(rng, T, K):
    crf = float64_copy(CrfLayer([f"S-T{i}" for i in range(K)],
                                np.random.default_rng(int(rng.integers(2 ** 31)))))
    crf.params["transitions"][crf.allowed] = rng.standard_normal(
        int(crf.allowed.sum()))
    return rng.standard_normal((T, K)), crf


def test_criterion_1_crf_oracle_equivalence():
    rng = np.random.default_rng(100)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        T = int(rng.integers(1, 6))
        K = int(rng.integers(2, 5))
        emissions, crf = _random_crf_instance(rng, T, K)
        trans = crf.params["transitions"]

        z = log_partition_of(emissions, crf)
        worst = max(worst, abs(z - brute_log_partition(
            emissions, trans, crf.start, crf.stop)))

        gold = [int(g) for g in rng.integers(0, K, size=T)]
        worst = max(worst, abs(nll_of(emissions, crf, gold) - brute_nll(
            emissions, trans, crf.start, crf.stop, gold)))

        path, score = decode_of(emissions, crf)
        brute_path, brute_score = brute_viterbi(
            emissions, trans, crf.start, crf.stop)
        worst = max(worst, abs(score - brute_score))
        assert list(path) == list(brute_path) or abs(score - brute_score) < 1e-9
    elapsed = time.perf_counter() - started
    _report(1, worst < 1e-9 and elapsed < 10.0,
            f"200 instances, max |Δ| {worst:.2e} (tol 1e-9), "
            f"{elapsed:.1f}s (limit 10s)")


# ---------------------------------------------------------------------------
# 2. gradient suite, on float64 copies of the float32 models


def _check_layers(layers, loss, errors):
    for layer in layers:
        for name, param in layer.params.items():
            errors.append(gradient_relative_error(
                layer.grads[name], numeric_gradient(loss, param)))


def _charlm_gradient_error(errors):
    from histtag.charlm import lm_forward

    vocab = CharVocabulary("abcde")
    model = float64_copy(CharLm(vocab, "forward", 4, 8, np.random.default_rng(0)))
    x = model.vocab.encode("abdec")
    y = model.vocab.encode("bdeca")

    def loss():
        hs, _, _ = lm_forward(model.vocab, model.embedding, model.lstm, ["abdec"])
        logits, _ = model.projection.forward(hs[0])
        nll, _ = cross_entropy(logits, y)
        return float(nll.sum())

    model.zero_grads()
    emb, emb_cache = model.embedding.forward(x[None])
    hs, _, lstm_cache = model.lstm.forward(emb, keep_cache=True)
    logits, lin_cache = model.projection.forward(hs[0])
    _, dlogits = cross_entropy(logits, y)
    dh = model.projection.backward(lin_cache, dlogits)
    dx, _ = model.lstm.backward(lstm_cache, dh[None])
    model.embedding.backward(emb_cache, dx)
    _check_layers(model.layers, loss, errors)


def _char_encoder_gradient_error(errors):
    encoder = float64_copy(CharFeatureEncoder(CharVocabulary("abcdwien "),
                                              np.random.default_rng(1),
                                              embed_dim=5, hidden=6))
    # unequal token lengths, down to one character, exercise the padding
    sentence = Sentence(tuple(Token(text, gold_tag="O")
                              for text in ("wiendab", "a", "den")))
    R = np.random.default_rng(2).standard_normal((3, encoder.dim))

    def loss():
        vecs, _ = encoder.forward(SentenceGroup([sentence]))
        return float(np.sum(vecs * R))

    for layer in encoder.layers:
        layer.zero_grads()
    _, cache = encoder.forward(SentenceGroup([sentence]), keep_cache=True)
    encoder.backward(cache, R)
    _check_layers(encoder.layers, loss, errors)


def _emission_gradient_error(errors):
    corpus = make_corpus(
        [[("Anna", "S-PER"), ("besucht", "O"), ("Wien", "S-LOC")]],
        scheme=TagScheme.IOBES)
    encoder = CharFeatureEncoder(extract_char_vocab(corpus),
                                 np.random.default_rng(3),
                                 embed_dim=5, hidden=4)
    model = float64_copy(NerModel(StackedEmbedder([encoder]), ("O", "S-LOC", "S-PER"), 6,
                                  np.random.default_rng(4)))
    sentence = corpus.sentences[0]
    R = np.random.default_rng(5).standard_normal((1, 3, 3))

    def loss():
        emissions, _, _ = model._emissions([sentence])
        return float(np.sum(emissions * R))

    model.zero_grads()
    _, _, cache = model._emissions([sentence], keep_cache=True)
    model._backward(cache, R)
    _check_layers(model.layers, loss, errors)


def _crf_gradient_error(errors):
    rng = np.random.default_rng(6)
    emissions, crf = _random_crf_instance(rng, 5, 4)
    gold = [1, 0, 3, 2, 0]

    def loss():
        return nll_of(emissions, crf, gold)

    crf.zero_grads()
    _, d_emissions = crf_nll_with_grads(emissions[None], crf, [gold], [len(gold)])
    d_emissions = d_emissions[0]
    errors.append(gradient_relative_error(
        crf.grads["transitions"],
        numeric_gradient(loss, crf.params["transitions"])))
    errors.append(gradient_relative_error(
        d_emissions, numeric_gradient(loss, emissions)))


def test_criterion_2_gradient_suite():
    started = time.perf_counter()
    errors = []
    _charlm_gradient_error(errors)
    _char_encoder_gradient_error(errors)
    _emission_gradient_error(errors)
    _crf_gradient_error(errors)
    elapsed = time.perf_counter() - started
    worst = max(errors)
    _report(2, worst < 1e-4 and elapsed < 60.0,
            f"char-LM + char features + emissions + CRF: max rel err "
            f"{worst:.2e} (tol 1e-4), {elapsed:.1f}s (limit 60s)")


# ---------------------------------------------------------------------------
# 3. SMLM statistics at one million characters


def test_criterion_3_smlm_statistics():
    chars = "abcdefghijklmnopqrstuvwxyz,.äöüß "
    vocab = CharVocabulary(chars)
    codes = np.array([ord(c) for c in chars], dtype="<u4")
    rng = np.random.default_rng(7)
    drawn = codes[rng.integers(len(codes), size=1_000_000)]
    text = drawn.tobytes().decode("utf-32-le")
    lines = [text[i:i + 1000] for i in range(0, len(text), 1000)]
    corpus = PlainCorpus.from_lines(lines)

    config = SmlmConfig(mask_char="¶", seed=123, p_keep=0.9)
    corrupted, stats = smlm_transform(corpus, vocab, config)

    length_ok = all(len(a) == len(b) for a, b in zip(corpus, corrupted))
    again, _ = smlm_transform(corpus, vocab, config)
    identical = "\n".join(corrupted).encode() == "\n".join(again).encode()

    ok = (stats.total_chars == 1_000_000
          and abs(stats.kept_rate - 0.90) <= 0.003
          and abs(stats.masked_rate - 0.02) <= 0.0015
          and abs(stats.replaced_rate - 0.08) <= 0.003
          and length_ok and identical)
    _report(3, ok,
            f"rates keep {stats.kept_rate:.4f} (0.90±0.003), "
            f"mask {stats.masked_rate:.4f} (0.02±0.0015), "
            f"replace {stats.replaced_rate:.4f} (0.08±0.003); "
            f"lengths preserved {length_ok}; byte-identical rerun {identical}")


# ---------------------------------------------------------------------------
# 4. perplexity correctness


def _pinned_lm(vocab_chars: str, probs) -> CharLm:
    vocab = CharVocabulary(vocab_chars)
    # in float64, so the hand-computed perplexities hold within 1e-9
    model = float64_copy(CharLm(vocab, "forward", 4, 8, np.random.default_rng(0)))
    for layer in model.layers:
        for p in layer.params.values():
            p[...] = 0.0
    model.projection.params["bias"][...] = np.log(probs)
    return model


def test_criterion_4_perplexity_correctness():
    uniform = _pinned_lm("abcdefghijklmnopqrstuvwxy",
                         np.full(26, 1.0 / 26))
    uniform_ppl = sentence_perplexity(uniform, "the quick brown fox".replace(" ", "a"))
    uniform_err = abs(uniform_ppl - 26.0)

    hand = _pinned_lm("abc", [0.5, 0.25, 0.125, 0.125])
    hand_ppl = sentence_perplexity(hand, "aab")
    hand_err = abs(hand_ppl - np.sqrt(8.0))

    sentences = ["aab", "aba", "bba"]
    individual = [sentence_perplexity(hand, s) for s in sentences]
    corpus_ppl = corpus_perplexity(hand, PlainCorpus.from_lines(sentences))
    mean_err = abs(corpus_ppl - float(np.mean(individual)))

    ok = uniform_err < 1e-9 and hand_err < 1e-9 and mean_err < 1e-9
    _report(4, ok,
            f"uniform |V|+1: Δ {uniform_err:.1e}; two-transition √8: "
            f"Δ {hand_err:.1e}; corpus mean: Δ {mean_err:.1e} (tol 1e-9)")


# ---------------------------------------------------------------------------
# 5. overfit sanity


def test_criterion_5_overfit_sanity():
    started = time.perf_counter()
    corpus = convert_scheme(
        build_tagged_splits(seed=0, train_size=10)["train"], TagScheme.IOBES)
    encoder = CharFeatureEncoder(extract_char_vocab(corpus),
                                 np.random.default_rng(0),
                                 embed_dim=8, hidden=12)
    config = TaggerConfig(lstm_hidden=16, learning_rate=1.0, mini_batch=4,
                          max_epochs=200, patience=25, seed=4)
    model, log = train_ner(corpus, corpus, config,
                           StackedEmbedder([encoder]))
    f1 = evaluate(corpus, predict(model, corpus)).f1
    first_perfect = next(
        (r.epoch for r in log.records if r.dev_f1 == 1.0), None)
    ner_elapsed = time.perf_counter() - started

    lm_corpus = PlainCorpus.from_lines(["abcd" * 50] * 30)
    lm_config = CharLmConfig(direction="forward", char_embed_dim=8,
                             hidden_size=16, sequence_length=50,
                             dropout=0.0, epochs=3, learning_rate=2.0)
    _, lm_log = train_lm(lm_corpus, lm_config, seed=1)
    ppls = [lm_log.initial_test_perplexity] + [
        e.test_perplexity for e in lm_log.epochs]
    decreasing = all(ppls[i] > ppls[i + 1] for i in range(3))

    ok = (f1 == 1.0 and first_perfect is not None and first_perfect <= 200
          and ner_elapsed < 300 and decreasing)
    _report(5, ok,
            f"train F1 {f1:.4f}, first perfect at epoch {first_perfect} "
            f"(limit 200) in {ner_elapsed:.0f}s (limit 300s); LM ppl "
            f"{' -> '.join(f'{p:.2f}' for p in ppls)} strictly decreasing "
            f"{decreasing}")


# ---------------------------------------------------------------------------
# 6. annealing rule


def test_criterion_6_annealing_rule():
    corpus = convert_scheme(
        build_tagged_splits(seed=0, train_size=6)["train"], TagScheme.IOBES)
    encoder = CharFeatureEncoder(extract_char_vocab(corpus),
                                 np.random.default_rng(0),
                                 embed_dim=4, hidden=4)
    config = TaggerConfig(lstm_hidden=4, learning_rate=0.1, patience=3,
                          max_epochs=4, mini_batch=6, seed=0)
    _, log = train_ner(corpus, corpus, config, StackedEmbedder([encoder]),
                       dev_scorer=lambda model: 0.0)
    rates = [r.learning_rate for r in log.records]
    ok = rates == [0.1, 0.1, 0.1, 0.05]
    _report(6, ok,
            f"flat dev scores, patience 3: per-epoch rates from the log "
            f"{rates} (need [0.1, 0.1, 0.1, 0.05])")


# ---------------------------------------------------------------------------
# 7. scheme conversion and evaluation suite


def _random_layout(rng, length):
    spans = []
    labels = ("PER", "LOC", "ORG", "MISC")
    pos = 0
    while pos < length:
        if rng.random() < 0.4:
            end = min(length - 1, pos + int(rng.integers(0, 3)))
            spans.append(EntitySpan(labels[int(rng.integers(4))], pos, end))
            pos = end + 2
        else:
            pos += 1
    return spans


def _oracle_prf(gold_corpus, predicted):
    gold_set, pred_set = set(), set()
    for i, (gs, tags) in enumerate(zip(gold_corpus, predicted)):
        for span in extract_spans(gs.gold_tags(), gold_corpus.scheme):
            gold_set.add((i, span.label, span.start, span.end))
        for span in extract_spans(tags, gold_corpus.scheme):
            pred_set.add((i, span.label, span.start, span.end))
    tp = len(gold_set & pred_set)
    p = tp / len(pred_set) if pred_set else 0.0
    r = tp / len(gold_set) if gold_set else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def _random_tagged_pair(rng, sentences=8):
    """An IOBES gold corpus and its predicted tag lists."""
    gold_rows, pred_rows = [], []
    for _ in range(sentences):
        length = int(rng.integers(1, 10))
        gold = render_tags(_random_layout(rng, length), length, TagScheme.IOBES)
        pred = render_tags(_random_layout(rng, length), length, TagScheme.IOBES)
        gold_rows.append(gold)
        pred_rows.append(pred)
    sents = tuple(
        Sentence(tuple(Token(f"w{i}", gold_tag=g) for i, g in enumerate(gr)))
        for gr in gold_rows)
    return TaggedCorpus(sents, scheme=TagScheme.IOBES), pred_rows


def test_criterion_7_scheme_and_eval_suite():
    rng = np.random.default_rng(70)

    conversions_ok = True
    for _ in range(1000):
        length = int(rng.integers(1, 15))
        spans = _random_layout(rng, length)
        iob2 = render_tags(spans, length, TagScheme.IOB2)
        iobes = convert_tags(iob2, TagScheme.IOB2, TagScheme.IOBES)
        back = convert_tags(iobes, TagScheme.IOBES, TagScheme.IOB2)
        if (extract_spans(iobes, TagScheme.IOBES) != spans
                or back != iob2
                or extract_spans(iob2, TagScheme.IOB2) != spans):
            conversions_ok = False
            break

    oracle_ok = True
    conversion_neutral_ok = True
    for _ in range(200):
        corpus, predicted = _random_tagged_pair(rng)
        report = evaluate(corpus, predicted)
        p, r, f = _oracle_prf(corpus, predicted)
        if (abs(report.precision - p) > 1e-12
                or abs(report.recall - r) > 1e-12
                or abs(report.f1 - f) > 1e-12):
            oracle_ok = False
            break
        as_iob2 = convert_scheme(corpus, TagScheme.IOB2)
        if evaluate(as_iob2, [convert_tags(tags, TagScheme.IOBES, TagScheme.IOB2)
                              for tags in predicted]) != report:
            conversion_neutral_ok = False
            break

    # the five-sentence fixture whose scores were frozen from a one-time
    # run of the reference scorer: micro P = R = F1 = 3/7
    from test_evaluation import TestConllFixture, paired_corpora

    gold, pred = paired_corpora(TestConllFixture.GOLD, TestConllFixture.PRED)
    fixture_report = evaluate(gold, pred)
    fixture_delta = abs(fixture_report.f1 - 3.0 / 7.0)
    fixture_ok = fixture_delta <= 1e-4  # 0.01 points on the percent scale

    ok = conversions_ok and oracle_ok and conversion_neutral_ok and fixture_ok
    _report(7, ok,
            f"1000 span-preserving conversions {conversions_ok}; evaluate "
            f"matches set-intersection oracle {oracle_ok}; IOB2 conversion "
            f"neutral {conversion_neutral_ok}; recorded scorer fixture "
            f"Δ(F1) {fixture_delta:.1e} (tol 1e-4)")


# ---------------------------------------------------------------------------
# 8. optional real-data entity counts


@pytest.mark.parametrize("env,expected", [
    ("HISTTAG_ONB_TRAIN",
     {"LOC": 1605, "ORG": 182, "PER": 2674, "MISC": 0}),
    ("HISTTAG_LFT_TRAIN",
     {"LOC": 3998, "MISC": 2, "ORG": 2293, "PER": 4009}),
])
def test_criterion_8_real_data_entity_counts(env, expected):
    path = os.environ.get(env)
    if not path:
        print(f"[criterion 8] SKIP: {env} not set (requires user-supplied data)")
        pytest.skip(f"{env} not set")
    token_column = int(os.environ.get(f"{env}_TOKEN_COLUMN", "0"))
    tag_column = int(os.environ.get(f"{env}_TAG_COLUMN", "1"))
    scheme = TagScheme.from_string(os.environ.get(f"{env}_SCHEME", "iob2"))
    corpus = read_conll(path, token_column, tag_column, scheme)
    counts = entity_counts(corpus)
    observed = {label: counts.get(label, 0) for label in expected}
    ok = observed == expected
    _report(8, ok, f"{env}: observed {observed}, expected {expected}")


# ---------------------------------------------------------------------------
# 9. end-to-end toy pipeline with manifest re-execution


def test_criterion_9_toy_pipeline_end_to_end(tmp_path):
    started = time.perf_counter()
    data = write_toy_dataset(tmp_path / "data", seed=0)
    out = tmp_path / "out"
    config_body = {
        "data": {"train": str(data["train"]), "dev": str(data["dev"]),
                 "test": str(data["test"]),
                 "lm_corpus": str(data["lm_corpus"]),
                 "token_column": 0, "tag_column": 1, "scheme": "iob2"},
        "vocab": {"path": str(out / "vocab.txt")},
        "smlm": {"p_keep": 0.9, "seed": 3,
                 "output": str(out / "corrupted.txt"),
                 "stats": str(out / "smlm_stats.txt")},
        "lm": {"corpus": str(out / "corrupted.txt"), "seed": 5,
               "output_dir": str(out / "lm"),
               "forward": {"char_embed_dim": 12, "hidden_size": 24,
                           "sequence_length": 60, "epochs": 2,
                           "dropout": 0.0},
               "backward": {"char_embed_dim": 12, "hidden_size": 24,
                            "sequence_length": 60, "epochs": 2,
                            "dropout": 0.0}},
        "embeddings": [
            {"kind": "contextual", "forward": str(out / "lm" / "forward.bin"),
             "backward": str(out / "lm" / "backward.bin")},
            {"kind": "char_features", "embed_dim": 8, "hidden": 8},
        ],
        "tagger": {"lstm_hidden": 16, "learning_rate": 1.0, "mini_batch": 8,
                   "max_epochs": 12, "patience": 6, "seed": 11},
        "eval": {"runs": 3, "output_dir": str(out / "ner")},
    }
    config_path = tmp_path / "run.yaml"
    config_path.write_text(yaml.safe_dump(config_body), encoding="utf-8")
    cfg = str(config_path)

    assert main(["vocab", "--config", cfg]) == 0
    assert main(["smlm", "--config", cfg]) == 0
    assert main(["lm", "train", "--config", cfg]) == 0
    assert main(["ner", "train", "--config", cfg]) == 0
    assert main(["eval", "--predictions",
                 str(out / "ner" / "run0" / "predictions.conll"),
                 "--output", str(out / "eval.json")]) == 0

    summary = json.loads((out / "ner" / "summary.json").read_text())
    assert len(summary["runs"]) == 3

    manifest = json.loads((out / "ner" / "manifest.json").read_text())
    recorded = {k: v["sha256"] for k, v in manifest["artifacts"].items()}
    rerun_path = tmp_path / "rerun.yaml"
    rerun_path.write_text(yaml.safe_dump(manifest["config"]),
                          encoding="utf-8")
    shutil.rmtree(out / "ner")
    assert main(["ner", "train", "--config", str(rerun_path)]) == 0
    fresh = {k: file_sha256(v["path"])
             for k, v in manifest["artifacts"].items()}
    reexecuted = fresh == recorded

    elapsed = time.perf_counter() - started
    ok = reexecuted and elapsed < 900
    _report(9, ok,
            f"vocab→smlm→LM fwd+bwd→NER 3 runs→eval in {elapsed:.0f}s "
            f"(limit 900s), mean test F1 {summary['mean_f1']:.4f}; manifest "
            f"re-execution hash-identical {reexecuted}")
