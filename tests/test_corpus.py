import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histtag import corpus as corpus_module
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
    length_groups,
    read_conll,
    read_plain,
    render_tags,
    sentence_text,
    token_char_ranges,
    write_conll,
)
from histtag.errors import DecodeError, EmptyCorpusError, ParseError, SchemeError

from conftest import make_corpus
from oracles import scan_spans

LABELS = ["LOC", "MISC", "ORG", "PER"]


# ---------------------------------------------------------------------------
# random well-formed layouts: blocks of O's and spans, built without using
# render_tags so the generator is independent of the code under test


@st.composite
def tag_layout(draw, scheme):
    blocks = draw(st.lists(
        st.one_of(
            st.just(None),
            st.tuples(st.sampled_from(LABELS), st.integers(1, 4)),
        ),
        min_size=1, max_size=12))
    tags, expected = [], []
    for block in blocks:
        if block is None:
            tags.append("O")
            continue
        label, length = block
        start = len(tags)
        if scheme is TagScheme.IOBES:
            if length == 1:
                tags.append(f"S-{label}")
            else:
                tags.append(f"B-{label}")
                tags.extend(f"I-{label}" for _ in range(length - 2))
                tags.append(f"E-{label}")
        else:
            tags.append(f"B-{label}")
            tags.extend(f"I-{label}" for _ in range(length - 1))
        expected.append((label, start, start + length - 1))
    return tags, expected


class TestExtractSpans:
    def test_iobes_pair(self):
        spans = extract_spans(["B-PER", "E-PER", "O"], TagScheme.IOBES)
        assert [(s.label, s.start, s.end) for s in spans] == [("PER", 0, 1)]

    def test_adjacent_singletons(self):
        spans = extract_spans(["S-LOC", "S-LOC"], TagScheme.IOBES)
        assert [(s.label, s.start, s.end) for s in spans] == [
            ("LOC", 0, 0), ("LOC", 1, 1)]

    def test_iob2_run_to_end(self):
        spans = extract_spans(["O", "B-ORG", "I-ORG"], TagScheme.IOB2)
        assert [(s.label, s.start, s.end) for s in spans] == [("ORG", 1, 2)]

    @pytest.mark.parametrize("tags,scheme", [
        (["O", "I-PER"], TagScheme.IOB2),
        (["B-PER", "I-LOC"], TagScheme.IOB2),
        (["I-PER"], TagScheme.IOB2),
        (["B-PER", "O"], TagScheme.IOBES),
        (["B-PER"], TagScheme.IOBES),
        (["E-PER"], TagScheme.IOBES),
        (["I-PER", "E-PER"], TagScheme.IOBES),
        (["B-PER", "E-LOC"], TagScheme.IOBES),
        (["B-PER", "S-LOC"], TagScheme.IOBES),
        (["S-PER", "E-PER"], TagScheme.IOBES),
    ])
    def test_ill_formed_sequences(self, tags, scheme):
        with pytest.raises(SchemeError):
            extract_spans(tags, scheme)

    @pytest.mark.parametrize("tag", ["B", "B-", "-LOC", "o", "X-LOC"])
    def test_malformed_tag_shape(self, tag):
        with pytest.raises(SchemeError):
            extract_spans([tag], TagScheme.IOBES)

    def test_wrong_prefix_for_scheme(self):
        with pytest.raises(SchemeError):
            extract_spans(["S-PER"], TagScheme.IOB2)

    @given(tag_layout(TagScheme.IOBES))
    def test_matches_scan_oracle_iobes(self, layout):
        tags, expected = layout
        spans = extract_spans(tags, TagScheme.IOBES)
        assert [(s.label, s.start, s.end) for s in spans] == expected
        assert scan_spans(tags, TagScheme.IOBES) == expected

    @given(tag_layout(TagScheme.IOB2))
    def test_matches_scan_oracle_iob2(self, layout):
        tags, expected = layout
        spans = extract_spans(tags, TagScheme.IOB2)
        assert [(s.label, s.start, s.end) for s in spans] == expected
        assert scan_spans(tags, TagScheme.IOB2) == expected

    @given(tag_layout(TagScheme.IOBES), st.sampled_from(list(TagScheme)))
    def test_render_round_trip(self, layout, scheme):
        _, expected = layout
        length = (expected[-1][2] + 1) if expected else 1
        spans = extract_spans(
            render_tags([_mk_span(e) for e in expected], length, scheme), scheme)
        assert [(s.label, s.start, s.end) for s in spans] == expected


def _mk_span(triple):
    from histtag.corpus import EntitySpan
    return EntitySpan(*triple)


class TestConvertScheme:
    def test_iobes_to_iob2_rewrites_e(self):
        assert convert_tags(["B-LOC", "I-LOC", "E-LOC"], TagScheme.IOBES,
                            TagScheme.IOB2) == ["B-LOC", "I-LOC", "I-LOC"]

    def test_singleton_becomes_b(self):
        assert convert_tags(["S-PER"], TagScheme.IOBES, TagScheme.IOB2) == ["B-PER"]

    def test_identity_on_o(self):
        assert convert_tags(["O", "O"], TagScheme.IOBES, TagScheme.IOB2) == ["O", "O"]

    def test_iob2_to_iobes(self):
        assert convert_tags(["B-PER", "B-LOC", "I-LOC", "O"], TagScheme.IOB2,
                            TagScheme.IOBES) == ["S-PER", "B-LOC", "E-LOC", "O"]

    @given(tag_layout(TagScheme.IOBES))
    def test_span_preservation_to_iob2(self, layout):
        tags, expected = layout
        converted = convert_tags(tags, TagScheme.IOBES, TagScheme.IOB2)
        spans = extract_spans(converted, TagScheme.IOB2)
        assert [(s.label, s.start, s.end) for s in spans] == expected

    @given(tag_layout(TagScheme.IOB2))
    def test_span_preservation_to_iobes(self, layout):
        tags, expected = layout
        converted = convert_tags(tags, TagScheme.IOB2, TagScheme.IOBES)
        spans = extract_spans(converted, TagScheme.IOBES)
        assert [(s.label, s.start, s.end) for s in spans] == expected

    def test_corpus_conversion_keeps_structure(self, tiny_iobes_corpus):
        out = convert_scheme(tiny_iobes_corpus, TagScheme.IOB2)
        assert out.scheme is TagScheme.IOB2
        assert [len(s) for s in out] == [len(s) for s in tiny_iobes_corpus]
        assert out.sentences[0].gold_tags() == ["B-PER", "O", "B-LOC", "O"]


class TestEntityCounts:
    def test_empty_corpus_counts_zero(self):
        corpus = TaggedCorpus((), scheme=TagScheme.IOBES)
        counts = entity_counts(corpus)
        assert counts["LOC"] == 0 and counts["PER"] == 0

    def test_counts(self, tiny_iobes_corpus):
        counts = entity_counts(tiny_iobes_corpus)
        assert counts == {"PER": 1, "LOC": 1, "ORG": 1}

    @given(st.lists(tag_layout(TagScheme.IOBES), min_size=1, max_size=5))
    def test_sums_to_total_spans(self, layouts):
        sentences = [[(f"w{i}", tag) for i, tag in enumerate(tags)]
                     for tags, _ in layouts]
        corpus = make_corpus(sentences)
        counts = entity_counts(corpus)
        total_expected = sum(len(exp) for _, exp in layouts)
        assert sum(counts.values()) == total_expected


class TestReadConll:
    def test_minimal_file(self, write_text):
        path = write_text("a.conll", "Wien B-LOC\n. O\n")
        corpus = read_conll(path, 0, 1, TagScheme.IOB2)
        assert len(corpus) == 1
        assert corpus.sentences[0].texts() == ["Wien", "."]
        assert corpus.sentences[0].gold_tags() == ["B-LOC", "O"]

    def test_wrong_scheme_prefix_is_parse_error(self, write_text):
        path = write_text("b.conll", "X S-PER\n")
        with pytest.raises(ParseError) as exc:
            read_conll(path, 0, 1, TagScheme.IOB2)
        assert exc.value.line == 1

    def test_ill_formed_sequence_reports_line(self, write_text):
        path = write_text("c.conll", "Ein O\nHaus I-LOC\n")
        with pytest.raises(ParseError) as exc:
            read_conll(path, 0, 1, TagScheme.IOB2)
        assert exc.value.line == 2

    def test_first_bad_line_of_a_sentence_reported(self, write_text):
        # line 2 continues no span; line 4 has a tag of no scheme
        path = write_text("c2.conll", "Ein O\nHaus I-LOC\nin O\nWien X-LOC\n")
        with pytest.raises(ParseError) as exc:
            read_conll(path, 0, 1, TagScheme.IOB2)
        assert exc.value.line == 2

    def test_empty_file(self, write_text):
        path = write_text("d.conll", "")
        with pytest.raises(EmptyCorpusError):
            read_conll(path, 0, 1, TagScheme.IOB2)

    def test_blank_lines_split_sentences(self, write_text):
        path = write_text("e.conll", "A O\n\nB O\n\n\n")
        corpus = read_conll(path, 0, 1, TagScheme.IOBES)
        assert len(corpus) == 2

    def test_docstart_skipped(self, write_text):
        path = write_text("f.conll", "-DOCSTART- O\n\nWien S-LOC\n")
        corpus = read_conll(path, 0, 1, TagScheme.IOBES)
        assert len(corpus) == 1
        assert corpus.sentences[0].texts() == ["Wien"]

    def test_crlf_accepted(self, write_text):
        path = write_text("g.conll", "Wien B-LOC\r\n. O\r\n\r\n")
        corpus = read_conll(path, 0, 1, TagScheme.IOB2)
        assert corpus.sentences[0].texts() == ["Wien", "."]

    def test_column_selection_and_missing_column(self, write_text):
        path = write_text("h.conll", "Wien NE B-LOC\n")
        corpus = read_conll(path, 0, 2, TagScheme.IOB2)
        assert corpus.sentences[0].gold_tags() == ["B-LOC"]
        with pytest.raises(ParseError) as exc:
            read_conll(path, 0, 5, TagScheme.IOB2)
        assert exc.value.line == 1

    def test_round_trip_normalizes_separators(self, write_text, tmp_path):
        path = write_text("i.conll", "Wien\t \tB-LOC\n.  O\n\n")
        corpus = read_conll(path, 0, 1, TagScheme.IOB2)
        out = tmp_path / "out.conll"
        write_conll(corpus, out)
        assert out.read_text(encoding="utf-8") == "Wien B-LOC\n. O\n\n"
        again = read_conll(out, 0, 1, TagScheme.IOB2)
        assert again.sentences == corpus.sentences


class TestTypes:
    def test_token_rejects_whitespace(self):
        with pytest.raises(ValueError):
            Token("two words")
        with pytest.raises(ValueError):
            Token("")

    def test_sentence_rejects_empty(self):
        with pytest.raises(ValueError):
            Sentence(())

    def test_corpus_split_validated(self):
        with pytest.raises(ValueError):
            TaggedCorpus((), scheme=TagScheme.IOB2, split="validation")

    def test_scheme_from_string(self):
        assert TagScheme.from_string("IOBES") is TagScheme.IOBES
        assert TagScheme.from_string("iob2") is TagScheme.IOB2
        with pytest.raises(ValueError):
            TagScheme.from_string("bilou")


class TestCharVocabulary:
    def test_extraction_includes_space(self):
        corpus = make_corpus([[("ab", "O"), ("bc", "O")]])
        vocab = extract_char_vocab(corpus)
        assert vocab.chars == (" ", "a", "b", "c")

    def test_union_of_sources(self):
        c1 = make_corpus([[("ab", "O")]])
        c2 = PlainCorpus.from_lines(["cd ef"])
        both = extract_char_vocab(c1, c2)
        merged = set(extract_char_vocab(c1).chars) | set(extract_char_vocab(c2).chars)
        assert set(both.chars) == merged

    def test_plain_corpus_line_whitespace_excluded(self):
        vocab = extract_char_vocab(PlainCorpus.from_lines(["a\tb", "c"]))
        assert "\t" not in vocab
        assert " " in vocab

    def test_idempotent_on_own_rendering(self):
        vocab = extract_char_vocab(make_corpus([[("Straße", "O"), ("1860", "O")]]))
        rendered = "".join(vocab.chars)
        again = extract_char_vocab(PlainCorpus.from_lines([rendered]))
        assert again == vocab

    def test_bijection_and_order(self):
        vocab = CharVocabulary("cba")
        assert vocab.chars == ("a", "b", "c")
        assert [vocab.lookup(c) for c in vocab] == [0, 1, 2]

    def test_file_round_trip(self, tmp_path):
        vocab = CharVocabulary(" abcß¶")
        p = tmp_path / "vocab.txt"
        vocab.to_path(p)
        assert CharVocabulary.from_path(p) == vocab
        first = p.read_bytes()
        vocab.to_path(p)
        assert p.read_bytes() == first


class TestPlainCorpus:
    def test_three_lines(self, write_text):
        path = write_text("p.txt", "eins\nzwei\ndrei\n")
        assert list(read_plain(path)) == ["eins", "zwei", "drei"]

    def test_empty_file(self, write_text):
        path = write_text("q.txt", "")
        assert list(read_plain(path)) == []

    def test_no_trailing_newline(self, write_text):
        path = write_text("r.txt", "a\nb")
        assert list(read_plain(path)) == ["a", "b"]

    def test_crlf(self, write_text):
        path = write_text("s.txt", "a\r\nb\r\n")
        assert list(read_plain(path)) == ["a", "b"]

    def test_reiterable(self, write_text):
        corpus = read_plain(write_text("t.txt", "x\ny\n"))
        assert list(corpus) == list(corpus) == ["x", "y"]

    def test_decode_error_offset(self, write_text):
        path = write_text("u.txt", b"abc\xffdef", binary=True)
        with pytest.raises(DecodeError) as exc:
            list(read_plain(path))
        assert exc.value.byte_offset == 3

    def test_decode_error_across_chunks(self, write_text, monkeypatch):
        # bad byte placed right after a small buffer boundary
        monkeypatch.setattr(corpus_module, "BUFFER_SIZE", 8)
        payload = b"a" * 10 + "ö".encode("utf-8") + b"\xc3\x28" + b"rest"
        path = write_text("v.txt", payload, binary=True)
        with pytest.raises(DecodeError) as exc:
            list(read_plain(path))
        assert exc.value.byte_offset == 12

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_plain(tmp_path / "absent.txt")

    @pytest.mark.slow
    def test_large_file_streams_within_buffer_bound(self, tmp_path):
        # 100 MB of 1 KB lines must stream without materializing the file
        path = tmp_path / "big.txt"
        block = ("x" * 1023 + "\n") * 1024  # 1 MiB
        with open(path, "w", encoding="utf-8", newline="") as fh:
            for _ in range(100):
                fh.write(block)
        corpus = read_plain(path)
        tracemalloc.start()
        n = 0
        for line in corpus:
            n += 1
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert n == 100 * 1024
        assert peak < 8 * 1024 * 1024


class TestRendering:
    def test_sentence_text_and_ranges(self, tiny_iobes_corpus):
        sentence = tiny_iobes_corpus.sentences[0]
        text = sentence_text(sentence)
        assert text == "Anna besucht Wien ."
        ranges = token_char_ranges(sentence)
        assert ranges == [(0, 3), (5, 11), (13, 16), (18, 18)]
        for (a, b), tok in zip(ranges, sentence):
            assert text[a:b + 1] == tok.text


class TestLengthGroups:
    def test_sort_and_respect_the_budget(self):
        lengths = [12, 1, 26, 8, 2, 19]
        assert length_groups(lengths, 24) == [[1, 4, 3], [0], [5], [2]]
        # item 2 is longer than the budget and forms a group alone
        assert lengths[2] > 24

    def test_large_budget_takes_all_short_items(self):
        assert length_groups([12, 1, 26, 8, 2, 19], 1024) == [[1, 4, 3, 0, 5, 2]]
        assert length_groups([], 1024) == []
