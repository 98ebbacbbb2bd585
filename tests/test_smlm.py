import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histtag.corpus import CharVocabulary, PlainCorpus
from histtag.errors import ConfigError, EmptyCorpusError
from histtag.smlm import (
    MASK_CANDIDATES,
    CorruptionStats,
    SmlmConfig,
    select_mask_char,
    smlm_transform,
)

PILCROW = "¶"
SECTION = "§"


class TestSelectMaskChar:
    def test_default_is_pilcrow(self):
        assert select_mask_char(CharVocabulary("abc")) == PILCROW

    def test_falls_through_to_next_candidate(self):
        vocab = CharVocabulary("abc" + PILCROW)
        assert select_mask_char(vocab) == SECTION

    def test_exhaustion(self):
        vocab = CharVocabulary("".join(MASK_CANDIDATES))
        with pytest.raises(ConfigError):
            select_mask_char(vocab)


class TestConfig:
    def test_defaults(self):
        cfg = SmlmConfig(mask_char=PILCROW, seed=1)
        assert cfg.p_keep == 0.90
        assert cfg.p_mask_given_change == 0.20

    @pytest.mark.parametrize("kwargs", [
        {"p_keep": -0.1},
        {"p_keep": 1.5},
        {"p_mask_given_change": 1.5},
        {"p_mask_given_change": -0.1},
        {"mask_char": "ab"},
        {"mask_char": ""},
        {"seed": -3},
    ])
    def test_rejects_bad_values(self, kwargs):
        base = {"mask_char": PILCROW, "seed": 0}
        base.update(kwargs)
        with pytest.raises(ConfigError):
            SmlmConfig(**base)

    @pytest.mark.parametrize("kwargs", [
        {"seed": 1.7}, {"seed": True}, {"seed": "1"}, {"p_keep": "0.9"}, {"mask_char": 1},
    ])
    def test_rejects_wrong_types(self, kwargs):
        base = {"mask_char": PILCROW, "seed": 0, **kwargs}
        name = next(iter(kwargs))
        with pytest.raises(ConfigError, match=f"{name} must be"):
            SmlmConfig(**base)

    def test_int_probability_stored_as_float(self):
        cfg = SmlmConfig(mask_char=PILCROW, p_keep=1)
        assert cfg.p_keep == 1.0 and isinstance(cfg.p_keep, float)


class TestStats:
    def test_counts_must_sum(self):
        with pytest.raises(ValueError):
            CorruptionStats(total_chars=10, kept=5, masked=1, replaced=1)

    def test_rates_hand_case(self):
        stats = CorruptionStats(10, 9, 0, 1)
        assert (stats.kept_rate, stats.masked_rate, stats.replaced_rate) == (0.9, 0.0, 0.1)

    def test_all_kept(self):
        stats = CorruptionStats(7, 7, 0, 0)
        assert (stats.kept_rate, stats.masked_rate, stats.replaced_rate) == (1.0, 0.0, 0.0)

    def test_zero_total(self):
        stats = CorruptionStats(0, 0, 0, 0)
        for rate in ("kept_rate", "masked_rate", "replaced_rate"):
            with pytest.raises(EmptyCorpusError):
                getattr(stats, rate)
        with pytest.raises(EmptyCorpusError):
            stats.to_text()

    @given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
    def test_rates_match_hand_division(self, kept, masked, replaced):
        total = kept + masked + replaced
        if total == 0:
            return
        stats = CorruptionStats(total, kept, masked, replaced)
        assert stats.kept_rate == kept / total
        assert stats.masked_rate == masked / total
        assert stats.replaced_rate == replaced / total
        assert abs(stats.kept_rate + stats.masked_rate + stats.replaced_rate - 1.0) <= 1e-12

    def test_report_text(self):
        text = CorruptionStats(10, 9, 0, 1).to_text()
        assert "total_chars 10" in text
        assert "replaced 1" in text


def _vocab_for(text):
    return CharVocabulary(sorted(set(text) | {" "}))


class TestTransform:
    def test_identity_configuration(self):
        corpus = PlainCorpus.from_lines(["Dann habe der Mann", "am Bahnhof"])
        vocab = _vocab_for("Dann habe der Mann am Bahnhof")
        cfg = SmlmConfig(mask_char=PILCROW, seed=7, p_keep=1.0)
        out, stats = smlm_transform(corpus, vocab, cfg)
        assert list(out) == list(corpus)
        assert stats.masked == 0 and stats.replaced == 0
        assert stats.kept == stats.total_chars

    def test_mask_char_in_vocab_rejected(self):
        vocab = CharVocabulary("ab" + PILCROW)
        cfg = SmlmConfig(mask_char=PILCROW, seed=0)
        with pytest.raises(ConfigError):
            smlm_transform(PlainCorpus.from_lines(["ab"]), vocab, cfg)

    def test_empty_vocab_rejected(self):
        cfg = SmlmConfig(mask_char=PILCROW, seed=0)
        with pytest.raises(ConfigError):
            smlm_transform(PlainCorpus.from_lines(["ab"]), CharVocabulary(""), cfg)

    def test_empty_lines_pass_through(self):
        corpus = PlainCorpus.from_lines(["", "abc", ""])
        vocab = CharVocabulary("abc")
        out, stats = smlm_transform(corpus, vocab, SmlmConfig(mask_char=PILCROW, seed=1))
        lines = list(out)
        assert lines[0] == "" and lines[2] == ""
        assert stats.total_chars == 3

    def test_deterministic(self):
        corpus = PlainCorpus.from_lines(["Blumen begrüßt worden sei." * 5] * 20)
        vocab = _vocab_for("Blumen begrüßt worden sei.")
        cfg = SmlmConfig(mask_char=PILCROW, seed=123)
        out1, stats1 = smlm_transform(corpus, vocab, cfg)
        out2, stats2 = smlm_transform(corpus, vocab, cfg)
        assert list(out1) == list(out2)
        assert stats1 == stats2

    @given(
        st.lists(st.text(alphabet="abcdeö ¼x", max_size=40), min_size=1, max_size=8),
        st.integers(0, 2**32),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=60)
    def test_invariants(self, lines, seed, p_keep):
        corpus = PlainCorpus.from_lines(lines)
        vocab = CharVocabulary("abcdeö ¼x")
        cfg = SmlmConfig(mask_char=PILCROW, seed=seed, p_keep=p_keep)
        out, stats = smlm_transform(corpus, vocab, cfg)
        out_lines = list(out)
        assert [len(l) for l in out_lines] == [len(l) for l in lines]
        assert stats.kept + stats.masked + stats.replaced == stats.total_chars
        assert stats.total_chars == sum(len(l) for l in lines)
        for orig, noisy in zip(lines, out_lines):
            for a, b in zip(orig, noisy):
                assert b == a or b == PILCROW or b in vocab

    def test_rates_converge(self):
        n_line, n_rep = 1000, 200
        corpus = PlainCorpus.from_lines(["abcdefghij" * (n_line // 10)] * n_rep)
        vocab = CharVocabulary("abcdefghijklmnop")
        cfg = SmlmConfig(mask_char=PILCROW, seed=99)
        _, stats = smlm_transform(corpus, vocab, cfg)
        n = stats.total_chars
        assert n == n_line * n_rep
        # 6 sigma bounds for the 200k-char sample
        for rate, p in [(stats.kept / n, 0.90), (stats.masked / n, 0.02),
                        (stats.replaced / n, 0.08)]:
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(rate - p) < 6 * sigma

    def test_masked_positions_hold_mask_char(self):
        corpus = PlainCorpus.from_lines(["aaaaaaaaaa" * 100])
        vocab = CharVocabulary("bcd")  # disjoint from input so diffs are visible
        cfg = SmlmConfig(mask_char=PILCROW, seed=5, p_keep=0.5)
        out, stats = smlm_transform(corpus, vocab, cfg)
        line = list(out)[0]
        n_mask = sum(1 for c in line if c == PILCROW)
        n_vocab = sum(1 for c in line if c in vocab)
        assert n_mask == stats.masked
        # disjoint vocab means every replacement action is visible
        assert n_vocab == stats.replaced
