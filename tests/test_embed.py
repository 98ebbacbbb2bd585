import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from histtag import embed
from histtag.charlm import CharLm, load_lm, save_lm
from histtag.corpus import CharVocabulary
from histtag.embed import (
    CharFeatureEncoder,
    ContextualEmbedder,
    SentenceGroup,
    StackedEmbedder,
    WordTableEmbedder,
    embedder_factory,
    load_vectors,
)
from histtag.errors import ConfigError, ParseError
from histtag.serialization import layer_tensors

from conftest import make_sentence
from oracles import (
    FLOAT32_STATE_ATOL,
    contextual_reference,
    float64_copy,
    gradient_relative_error,
    lm_reference,
    lstm_reference_forward,
    numeric_gradient,
)


def make_lm(direction, vocab="abcdcaptlsnoe ", hidden=6, seed=0):
    return CharLm(CharVocabulary(vocab), direction, 4, hidden, np.random.default_rng(seed))


class TestLoadVectors:
    def test_basic_file(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("der 0.1 0.2 0.3\nhaus -1 0 1\n", encoding="utf-8")
        table = load_vectors(p)
        assert len(table.entries) == 2 and table.dim == 3
        np.testing.assert_allclose(table.lookup("haus"), [-1, 0, 1])

    def test_values_stored_as_float32_of_the_parsed_float(self, tmp_path):
        """Each value is read as a Python float, then rounded once to
        float32, the stack's dtype, so a stack block holds the bits that
        casting a float64 table gave; unknown words get a float32 zero."""
        values = ["0.1", "-2.718281828459045", "1e-3", "0.30000000000000004"]
        p = tmp_path / "vec.txt"
        p.write_text("der " + " ".join(values) + "\n", encoding="utf-8")
        table = load_vectors(p)
        vec = table.lookup("der")
        assert vec.dtype == table.lookup("zzz").dtype == np.float32
        np.testing.assert_array_equal(vec, np.array([float(v) for v in values]).astype(np.float32))

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("2 3\na 1 2 3\nb 4 5 6\n", encoding="utf-8")
        table = load_vectors(p)
        assert len(table.entries) == 2 and table.dim == 3

    def test_oov_is_zero(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("a 1 2 3\n", encoding="utf-8")
        table = load_vectors(p)
        np.testing.assert_array_equal(table.lookup("zzz"), np.zeros(3))

    def test_lowercase_fallback(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("wien 1 1\nGraz 2 2\n", encoding="utf-8")
        table = load_vectors(p)
        np.testing.assert_allclose(table.lookup("Wien"), [1, 1])
        np.testing.assert_array_equal(table.lookup("graz"), np.zeros(2))

    def test_dim_mismatch_reports_line(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("a 1 2 3\nb 4 5\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_vectors(p)
        assert exc.value.line == 2

    def test_duplicate_last_wins(self, tmp_path, caplog):
        p = tmp_path / "vec.txt"
        p.write_text("a 1 1\na 2 2\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            table = load_vectors(p)
        np.testing.assert_allclose(table.lookup("a"), [2, 2])
        assert "duplicate" in caplog.text

    def test_empty_file(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("", encoding="utf-8")
        with pytest.raises(ParseError):
            load_vectors(p)

    def test_bad_float(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("a x y\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_vectors(p)
        assert exc.value.line == 1


class TestCharFeatures:
    """Sentences mix token lengths, down to one character, so every test
    runs the padded recurrence and reads each text's last step."""

    def test_shape_is_50_by_default(self):
        enc = CharFeatureEncoder(CharVocabulary("abc"), np.random.default_rng(0))
        out, _ = enc.forward(SentenceGroup(
            [make_sentence([("abc", "O"), ("a", "O"), ("cabba", "O")])]))
        assert out.shape == (3, 50)
        assert enc.dim == 50

    @pytest.mark.parametrize("dims", [{"embed_dim": 0}, {"hidden": 0}, {"hidden": -2}])
    def test_dims_below_one_rejected(self, dims):
        with pytest.raises(ConfigError, match=f"char_features {next(iter(dims))} must be positive"):
            CharFeatureEncoder(CharVocabulary("abc"), np.random.default_rng(0), **dims)

    def test_identical_tokens_identical_vectors(self):
        enc = CharFeatureEncoder(CharVocabulary("abc"), np.random.default_rng(1))
        group = SentenceGroup(
            [make_sentence([("cab", "O"), ("a", "O"), ("cab", "O"), ("bbacc", "O")])])
        out, _ = enc.forward(group)
        np.testing.assert_array_equal(out[0], out[2])
        np.testing.assert_array_equal(out, enc.forward(group)[0])

    def test_rows_match_one_token_sentences(self):
        """A token's row from a padded sentence batch equals the token run
        alone; the batched input product may round the last bit
        differently, so agreement to 1e-14."""
        enc = CharFeatureEncoder(CharVocabulary("abc"), np.random.default_rng(6),
                                 embed_dim=5, hidden=4)
        words = ["bca", "a", "cabbac", "ab"]
        out, _ = enc.forward(SentenceGroup([make_sentence([(w, "O") for w in words])]))
        for row, word in zip(out, words):
            alone, _ = enc.forward(SentenceGroup([make_sentence([(word, "O")])]))
            np.testing.assert_allclose(row, alone[0], rtol=0, atol=1e-14)

    def test_rows_are_last_step_states_run_alone(self):
        """A token's features are each direction's state after its text's
        last character, from the per-sequence loop over the text alone
        (``lstm_reference_forward``): the padding after a shorter text in
        the group changes nothing.  In float64, to 1e-12."""
        enc = float64_copy(CharFeatureEncoder(CharVocabulary("abc"), np.random.default_rng(7),
                                              embed_dim=5, hidden=4))
        words = ["a", "cabbac", "bc", "abcab"]
        out, _ = enc.forward(SentenceGroup([make_sentence([(w, "O") for w in words])]))
        for row, word in zip(out, words):
            emb, _ = enc.embedding.forward(enc.vocab.encode(word))
            want = [lstm_reference_forward(lstm.params, e)[1][0]
                    for lstm, e in ((enc.fwd, emb), (enc.bwd, emb[::-1]))]
            np.testing.assert_allclose(row, np.concatenate(want), rtol=0, atol=1e-12)

    def test_unknown_chars_use_unk_row(self):
        enc = CharFeatureEncoder(CharVocabulary("ab"), np.random.default_rng(2))
        assert enc.vocab.encode("aXb").tolist() == [0, 2, 1]
        assert enc.embedding.num_embeddings == 3

    def test_gradient_through_token(self):
        enc = float64_copy(CharFeatureEncoder(CharVocabulary("abc"), np.random.default_rng(3),
                                              embed_dim=5, hidden=4))
        # "a" twice: its text runs once and takes both rows' gradients
        group = SentenceGroup([make_sentence([("bca", "O"), ("a", "O")]),
                               make_sentence([("cabbac", "O"), ("a", "O")])])
        R = np.random.default_rng(4).standard_normal((4, 8))

        def loss():
            return float(np.sum(enc.forward(group)[0] * R))

        _, cache = enc.forward(group, keep_cache=True)
        for layer in enc.layers:
            layer.zero_grads()
        enc.backward(cache, R)
        for layer in enc.layers:
            for name, param in layer.params.items():
                err = gradient_relative_error(
                    layer.grads[name], numeric_gradient(loss, param))
                assert err < 1e-4, f"{name}: {err:.2e}"


class TestContextual:
    def test_shapes_and_determinism(self):
        fwd, bwd = make_lm("forward", hidden=6), make_lm("backward", hidden=5)
        group = SentenceGroup([make_sentence([("das", "O"), ("alte", "O"), ("tor", "O")])])
        out1 = ContextualEmbedder(fwd, bwd).forward(group)
        out2 = ContextualEmbedder(fwd, bwd).forward(group)
        assert out1.shape == (3, 11)
        np.testing.assert_array_equal(out1, out2)

    def test_context_sensitivity(self):
        fwd, bwd = make_lm("forward"), make_lm("backward", seed=7)
        s1 = make_sentence([("la", "O"), ("casa", "O")])
        s2 = make_sentence([("el", "O"), ("casa", "O")])
        v1 = ContextualEmbedder(fwd, bwd).forward(SentenceGroup([s1]))[1]
        v2 = ContextualEmbedder(fwd, bwd).forward(SentenceGroup([s2]))[1]
        assert np.max(np.abs(v1 - v2)) > 0

    def test_position_sensitivity(self):
        fwd, bwd = make_lm("forward"), make_lm("backward", seed=9)
        s1 = make_sentence([("casa", "O"), ("sol", "O")])
        s2 = make_sentence([("sol", "O"), ("casa", "O")])
        v1 = ContextualEmbedder(fwd, bwd).forward(SentenceGroup([s1]))[0]
        v2 = ContextualEmbedder(fwd, bwd).forward(SentenceGroup([s2]))[1]
        assert np.max(np.abs(v1 - v2)) > 0

    def test_extraction_offsets(self):
        """Forward part comes from the token's last char, backward from its
        first char, verified against the states of the LMs' float64 copies
        from ``lm_reference``, so within FLOAT32_STATE_ATOL."""
        fwd, bwd = make_lm("forward"), make_lm("backward", seed=3)
        sentence = make_sentence([("ab", "O"), ("c", "O")])
        text = "ab c"
        _, _, hs_f = lm_reference(float64_copy(fwd), fwd.vocab.encode(text))
        _, _, hs_b = lm_reference(float64_copy(bwd), bwd.vocab.encode(text[::-1]))
        out = ContextualEmbedder(fwd, bwd).forward(SentenceGroup([sentence]))
        # token "ab": chars 0..1; token "c": char 3
        for got, want in ((out[0][:6], hs_f[1]), (out[0][6:], hs_b[len(text) - 1 - 0]),
                          (out[1][:6], hs_f[3]), (out[1][6:], hs_b[len(text) - 1 - 3])):
            np.testing.assert_allclose(got, want, rtol=0, atol=FLOAT32_STATE_ATOL)
        # neighbouring states lie much further apart than the tolerance
        assert np.abs(hs_f[1] - hs_f[2]).max() > 100 * FLOAT32_STATE_ATOL

    def test_extracts_in_float32_and_leaves_the_lms_as_given(self):
        fwd, bwd = make_lm("forward"), make_lm("backward", seed=3)
        before = [(lm, name, value.copy()) for lm in (fwd, bwd)
                  for name, value in layer_tensors(lm.named_layers)]
        ctx = ContextualEmbedder(fwd, bwd)
        out = ctx.forward(SentenceGroup([make_sentence([("ab", "O"), ("c", "O")])]))
        assert out.dtype == np.float32
        for lm, name, value in before:
            now = dict(layer_tensors(lm.named_layers))[name]
            assert now.dtype == np.float32
            np.testing.assert_array_equal(now, value)

    def test_lms_given_can_be_freed(self):
        """The embedder keeps gradient-free copies of its LMs' embedding
        and LSTM layers, sharing their parameters: the LMs, with their
        projections and gradient slots, go once the caller drops them."""
        fwd, bwd = make_lm("forward"), make_lm("backward", seed=3)
        refs = [weakref.ref(lm) for lm in (fwd, bwd)]
        grads = [weakref.ref(g) for lm in (fwd, bwd) for g in lm.lstm.grads.values()]
        ctx = ContextualEmbedder(fwd, bwd)
        assert all(embedding.params is lm.embedding.params and lstm.params is lm.lstm.params
                   and embedding.grads == lstm.grads == {}
                   for lm, (_, embedding, lstm) in zip((fwd, bwd), ctx._lms))
        del fwd, bwd
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        assert all(ref() is None for ref in grads)
        out = ctx.forward(SentenceGroup([make_sentence([("ab", "O"), ("c", "O")])]))
        assert out.shape == (2, 12)

    def test_direction_validation(self):
        with pytest.raises(ConfigError):
            ContextualEmbedder(make_lm("backward"), make_lm("backward"))

    def test_building_from_lm_files_peaks_near_what_it_holds(self, tmp_path):
        """Traced allocations while the embedder is built from two H = 256
        LM files, against the bytes of the parameters it keeps.  Both LMs,
        projections included, live until it is built, and the second
        file's bytes while its copies are made: about 1.59x.  Loaded layers
        hold no gradient slots; with them the build peaked at about 2.65x,
        and drawing a model first and overwriting it with the file at
        about 3.5x."""
        vocab = CharVocabulary("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456 .")
        paths = [tmp_path / f"{direction}.bin" for direction in ("forward", "backward")]
        for path, direction in zip(paths, ("forward", "backward")):
            save_lm(CharLm(vocab, direction, 16, 256, np.random.default_rng(0)), path)
        gc.collect()
        tracemalloc.start()
        try:
            ctx = ContextualEmbedder(load_lm(paths[0]), load_lm(paths[1]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = sum(value.nbytes for _, embedding, lstm in ctx._lms
                   for value in [*embedding.params.values(), *lstm.params.values()])
        assert peak < 1.8 * held


GROUP_SENTENCES = [make_sentence([(w, "O") for w in words]) for words in (
    ["das", "alte", "tor"], ["a"], ["tor", "das", "alte", "tor", "das", "casa"],
    ["casa", "sol"], ["ab"], ["sol", "la", "casa", "del", "sol"])]


class TestGroups:
    """One run over a group of unequal sentences against each sentence
    run alone.  ``oracles.contextual_reference`` is the unbatched float64
    LM path, so contextual rows agree within FLOAT32_STATE_ATOL; char
    features compute the same products either way and agree bit for bit."""

    def test_contextual_rows_equal_sentences_alone(self):
        fwd, bwd = make_lm("forward", hidden=6), make_lm("backward", hidden=5, seed=4)
        out = ContextualEmbedder(fwd, bwd).forward(SentenceGroup(GROUP_SENTENCES))
        np.testing.assert_allclose(
            out, np.concatenate([contextual_reference(fwd, bwd, s) for s in GROUP_SENTENCES]),
            rtol=0, atol=FLOAT32_STATE_ATOL)

    def test_char_feature_rows_equal_sentences_alone_bit_for_bit(self):
        """Sentences of two or more tokens; a one-token sentence alone is a
        single row, whose products may round differently (see
        ``TestCharFeatures.test_rows_match_one_token_sentences``)."""
        enc = CharFeatureEncoder(CharVocabulary("abcdelorst"), np.random.default_rng(8),
                                 embed_dim=5, hidden=4)
        sentences = [s for s in GROUP_SENTENCES if len(s) > 1]
        out, _ = enc.forward(SentenceGroup(sentences))
        alone = [enc.forward(SentenceGroup([s]))[0] for s in sentences]
        np.testing.assert_array_equal(out, np.concatenate(alone))

    def test_stack_pads_rows_in_input_order(self):
        table = table_embedder(["a", "sol"], 1, [1.0, 2.0])
        vecs, lengths, _ = StackedEmbedder([table]).forward(GROUP_SENTENCES)
        assert lengths.tolist() == [len(s) for s in GROUP_SENTENCES]
        assert vecs.shape == (6, 6, 1)
        np.testing.assert_array_equal(vecs[3, :, 0], [0, 2, 0, 0, 0, 0])
        np.testing.assert_array_equal(vecs[1, :, 0], [1, 0, 0, 0, 0, 0])


def table_embedder(words, dim, fill):
    entries = {w: np.full(dim, v) for w, v in zip(words, fill)}
    return WordTableEmbedder(dim, entries)


class TestStacked:
    def test_dim_is_sum(self):
        e1 = table_embedder(["a"], 3, [1.0])
        e2 = table_embedder(["a"], 4, [2.0])
        stacked = StackedEmbedder([e1, e2])
        assert stacked.dim == 7
        sentences = [make_sentence([("a", "O"), ("b", "O")]), make_sentence([("a", "O")])]
        out, lengths, _ = stacked.forward(sentences)
        assert out.shape == (2, 2, 7)
        assert lengths.tolist() == [2, 1]
        np.testing.assert_allclose(out[0, 0], [1, 1, 1, 2, 2, 2, 2])
        np.testing.assert_allclose(out[0, 1], np.zeros(7))
        np.testing.assert_allclose(out[1, 0], [1, 1, 1, 2, 2, 2, 2])
        np.testing.assert_array_equal(out[1, 1], np.zeros(7))  # padding

    def test_single_component_identity(self):
        e1 = table_embedder(["x"], 2, [3.0])
        stacked = StackedEmbedder([e1])
        sentence = make_sentence([("x", "O")])
        np.testing.assert_array_equal(
            stacked.forward([sentence])[0][0], e1.forward(SentenceGroup([sentence])))

    def test_permuting_components_permutes_blocks(self):
        e1 = table_embedder(["w"], 2, [1.0])
        e2 = table_embedder(["w"], 3, [2.0])
        sentence = make_sentence([("w", "O")])
        a = StackedEmbedder([e1, e2]).forward([sentence])[0]
        b = StackedEmbedder([e2, e1]).forward([sentence])[0]
        np.testing.assert_array_equal(a[..., :2], b[..., 3:])
        np.testing.assert_array_equal(a[..., 2:], b[..., :3])

    def test_empty_component_list(self):
        with pytest.raises(ConfigError):
            StackedEmbedder([])

    def test_gradient_reaches_only_trainable_parts(self):
        rng = np.random.default_rng(5)
        word = table_embedder(["ab", "c"], 3, [1.0, 2.0])
        chars = float64_copy(CharFeatureEncoder(CharVocabulary("abc"), rng,
                                                embed_dim=4, hidden=3))
        fwd, bwd = make_lm("forward", hidden=4), make_lm("backward", hidden=4)
        ctx = ContextualEmbedder(fwd, bwd)
        stacked = StackedEmbedder([word, chars, ctx])
        assert stacked.layers == chars.layers

        # two rows of unequal length: the gradient on the padded position
        # must reach nothing
        sentences = [make_sentence([("ab", "O"), ("c", "O")]), make_sentence([("ca", "O")])]
        out, _, cache = stacked.forward(sentences, np.float64, keep_cache=True)
        grad = rng.standard_normal(out.shape)
        for layer in stacked.layers:
            layer.zero_grads()
        stacked.backward(cache, grad)

        def loss():
            vecs, _, _ = stacked.forward(sentences, np.float64)
            return float(np.sum(vecs * grad))

        for layer in chars.layers:
            for name, param in layer.params.items():
                err = gradient_relative_error(
                    layer.grads[name], numeric_gradient(loss, param))
                assert err < 1e-4, f"{name}: {err:.2e}"
        # frozen LM parameters must not move the loss gradient check: their
        # grads stay untouched (no grad slots are even registered here)
        assert ctx.layers == () and word.layers == ()


class TestEmbedderFactory:
    def test_frozen_shared_trainable_fresh_in_stack_order(self, tmp_path):
        vectors = tmp_path / "vec.txt"
        vectors.write_text("a 1 2\n", encoding="utf-8")
        vocab = CharVocabulary("abc")
        build = embedder_factory([{"kind": "char_features", "hidden": 3},
                               {"kind": "word_table", "path": str(vectors)},
                               {"kind": "char_features"}], vocab)
        first = build(np.random.default_rng([5, 1]))
        second = build(np.random.default_rng([6, 1]))
        assert first.components[1] is second.components[1]
        assert first.components[1].source_path == str(vectors)
        assert list(first.memos) == [1] and first.memos[1] is second.memos[1]
        first.forward([make_sentence([("a", "O"), ("cab", "O")])])
        assert list(second.memos[1].blocks) == [("a", "cab")]
        rng = np.random.default_rng([5, 1])
        expected = [CharFeatureEncoder(vocab, rng, hidden=3),
                    CharFeatureEncoder(vocab, rng)]
        for built, reference in zip(first.components[::2], expected):
            assert (built.embed_dim, built.hidden) == (reference.embed_dim, reference.hidden)
            for (n1, a), (n2, b) in zip(layer_tensors(built.named_layers),
                                        layer_tensors(reference.named_layers), strict=True):
                assert n1 == n2
                np.testing.assert_array_equal(a, b)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown component kind 'glove'"):
            embedder_factory([{"kind": "glove"}], CharVocabulary("a"))


MEMO_SENTENCES = [make_sentence([(w, "O") for w in words]) for words in (
    ["das", "alte", "Tor"], ["Tor", "das"], ["das", "alte", "Tor"], ["alte"],
    ["Tor", "das", "alte", "Tor", "das"])]


def frozen_entries(tmp_path):
    """Run-config entries for a word table, char features and a contextual
    component, with the files the frozen two read."""
    vectors = tmp_path / "vec.txt"
    vectors.write_text("das 1 2\nalte 3 4\ntor 5 6\n", encoding="utf-8")
    fwd_path, bwd_path = tmp_path / "fwd.lm", tmp_path / "bwd.lm"
    save_lm(make_lm("forward", vocab="adeltsTor ", hidden=6), fwd_path)
    save_lm(make_lm("backward", vocab="adeltsTor ", hidden=5, seed=2), bwd_path)
    return [{"kind": "word_table", "path": str(vectors)},
            {"kind": "char_features", "embed_dim": 4, "hidden": 3},
            {"kind": "contextual", "forward": str(fwd_path), "backward": str(bwd_path)}]


class TestBlockMemo:
    def test_blocks_equal_direct_extraction_and_are_read_only(self, tmp_path):
        entries = frozen_entries(tmp_path)
        build = embedder_factory(entries, CharVocabulary("adeltsTor"), MEMO_SENTENCES)
        lms = [load_lm(entries[2][d]) for d in ("forward", "backward")]
        stack = build(np.random.default_rng(0))
        table = stack.components[0]
        assert set(stack.memos) == {0, 2}
        distinct = {tuple(s.texts()) for s in MEMO_SENTENCES}
        assert set(stack.memos[0].blocks) == set(stack.memos[2].blocks) == distinct
        for sentence in MEMO_SENTENCES:
            key = tuple(sentence.texts())
            words, states = stack.memos[0].blocks[key], stack.memos[2].blocks[key]
            np.testing.assert_array_equal(
                words, np.stack([table.lookup(w) for w in key]))
            # extracted in float32: the float64 reference within the tolerance
            np.testing.assert_allclose(states, contextual_reference(*lms, sentence),
                                       rtol=0, atol=FLOAT32_STATE_ATOL)
            assert words.dtype == states.dtype == np.float32
            for block in (words, states):
                assert not block.flags.writeable
                with pytest.raises(ValueError):
                    block[0, 0] = 0.0
        plain = StackedEmbedder(stack.components)
        memo_vecs, memo_lengths, _ = stack.forward(MEMO_SENTENCES)
        plain_vecs, plain_lengths, _ = plain.forward(MEMO_SENTENCES)
        np.testing.assert_array_equal(memo_lengths, plain_lengths)
        np.testing.assert_allclose(memo_vecs, plain_vecs, rtol=0, atol=1e-12)

    def test_fill_extracts_in_groups_of_extract_chars(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embed, "EXTRACT_CHARS", 40)
        groups = []
        forward = ContextualEmbedder.forward

        def recording(self, sentences):
            groups.append([" ".join(s.texts()) for s in sentences])
            return forward(self, sentences)
        monkeypatch.setattr(ContextualEmbedder, "forward", recording)
        embedder_factory(frozen_entries(tmp_path), CharVocabulary("adeltsTor"), MEMO_SENTENCES)
        # text lengths 4, 7, 12, 12, 20: three rows of 12 fit in 40
        # characters and four do not, and the second "das alte Tor", which
        # starts the second group, is stored already
        assert groups == [["alte", "Tor das", "das alte Tor"], ["Tor das alte Tor das"]]

    def test_misses_extracted_together_and_stored_per_sentence(self):
        groups = []
        table = table_embedder(["a", "b"], 2, [1.0, 2.0])

        class Recording:
            def forward(self, sentences):
                groups.append([tuple(s.texts()) for s in sentences])
                return table.forward(sentences)

        memo = embed.BlockMemo()
        ab, b, a = (make_sentence([(w, "O") for w in words])
                    for words in (["a", "b"], ["b"], ["a"]))
        first = memo.lookup(Recording(), [ab, b, ab])
        assert groups == [[("a", "b"), ("b",)]]
        assert list(memo.blocks) == [("a", "b"), ("b",)]
        second = memo.lookup(Recording(), [a, b, ab])
        assert groups[1:] == [[("a",)]]
        for block, sentence in zip(first + second, [ab, b, ab, a, b, ab]):
            np.testing.assert_array_equal(block, table.forward(SentenceGroup([sentence])))

    def test_byte_bound(self, tmp_path, monkeypatch):
        bound = 150  # contextual blocks are 11 × 4 bytes per token
        monkeypatch.setattr(embed, "MEMO_BYTES", bound)
        build = embedder_factory(frozen_entries(tmp_path), CharVocabulary("adeltsTor"),
                                 MEMO_SENTENCES)
        stack = build(np.random.default_rng(0))
        for memo in stack.memos.values():
            assert 0 < memo.nbytes <= bound
            assert memo.nbytes == sum(b.nbytes for b in memo.blocks.values())
        # the fill stores in order of text length while the bound allows:
        # one token (44 bytes) and two (88), but not three more (132)
        assert list(stack.memos[2].blocks) == [("alte",), ("Tor", "das")]
        plain = StackedEmbedder(stack.components)
        for sentence in MEMO_SENTENCES:
            np.testing.assert_allclose(stack.forward([sentence])[0],
                                       plain.forward([sentence])[0], rtol=0, atol=1e-12)
        assert stack.memos[2].nbytes <= bound

    def test_fill_peak_stays_near_the_byte_bound(self, tmp_path, monkeypatch):
        """The fill stores each group's blocks before it extracts the next
        group, so blocks past MEMO_BYTES never pile up.  With the bound under
        1/16 of the corpus's blocks, the fill's traced peak exceeds that of
        a one-sentence fill by the bound and one group's working set: less
        than 6 bounds (4.1 here; 25 for a fill that extracts every group
        before storing)."""
        words = ["das", "alte", "Tor", "tat", "lot", "Ast", "Rad", "Tal"]
        sentences = [make_sentence([(w, "O") for w in three])
                     for three in itertools.product(words, repeat=3)]
        chars = "adeltsTorRA"
        save_lm(make_lm("forward", vocab=chars + " ", hidden=48), tmp_path / "fwd.lm")
        save_lm(make_lm("backward", vocab=chars + " ", hidden=48, seed=2), tmp_path / "bwd.lm")
        entries = [{"kind": "contextual", "forward": str(tmp_path / "fwd.lm"),
                    "backward": str(tmp_path / "bwd.lm")}]
        monkeypatch.setattr(embed, "EXTRACT_CHARS", 64)
        bound = 1 << 15
        monkeypatch.setattr(embed, "MEMO_BYTES", bound)
        # every block of the corpus: 4 bytes × (48 + 48) per token
        assert 4 * 96 * sum(map(len, sentences)) >= 16 * bound
        peaks = []
        for corpus in (sentences[:1], sentences):
            tracemalloc.start()
            try:
                build = embedder_factory(entries, CharVocabulary(chars), corpus)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert 0 < build(np.random.default_rng(0)).memos[0].nbytes <= bound
        assert peaks[1] - peaks[0] < 6 * bound


class TestWordTable:
    def test_dim_validation(self):
        with pytest.raises(ConfigError):
            WordTableEmbedder(3, {"a": np.zeros(2)})
        with pytest.raises(ConfigError):
            WordTableEmbedder(0, {})
