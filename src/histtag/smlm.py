"""Synthetic character-noise corruption for clean text corpora.

Turns a clean contemporary corpus into a noisy one that mimics OCR damage:
each character is independently kept, masked with a symbol outside the
target vocabulary, or replaced by a uniform sample from the target
vocabulary.  The corrupted corpus is used to pre-train character language
models that should transfer to genuinely noisy material.

Randomness comes from numpy's ``default_rng`` (PCG64), which guarantees a
stable cross-platform stream for a given seed, so the same input, config
and seed always produce byte-identical output.
"""

from dataclasses import dataclass

import numpy as np

from .corpus import CharVocabulary, PlainCorpus
from .errors import ConfigError, EmptyCorpusError, check_field_types

# First candidate is the pilcrow; the rest are fallbacks for vocabularies
# that already contain it.  All are printable so corrupted text stays
# inspectable.
MASK_CANDIDATES = ("¶", "§", "¤", "¦", "¿", "ð")


def select_mask_char(vocab: CharVocabulary) -> str:
    """Pick the first of MASK_CANDIDATES that is absent from ``vocab``.

    The mask must not collide with any real vocabulary character, otherwise
    the model could not distinguish "unknown here" from actual text.
    """
    for ch in MASK_CANDIDATES:
        if ch not in vocab:
            return ch
    raise ConfigError(
        "every mask candidate occurs in the vocabulary; "
        "pass an explicit mask character outside it")


@dataclass(frozen=True)
class SmlmConfig:
    """Parameters of the corruption process.

    ``p_keep`` is the probability of leaving a character unchanged.  The
    remaining probability mass splits into masking (``p_mask_given_change``)
    and uniform replacement (the rest).  Each field must have its
    annotated type; the probabilities are stored as float, so a run
    config's ``p_keep: 1`` reads 1.0.
    """

    mask_char: str
    seed: int = 0
    p_keep: float = 0.90
    p_mask_given_change: float = 0.20

    def __post_init__(self):
        check_field_types(self)
        for name in ("p_keep", "p_mask_given_change"):
            value = float(getattr(self, name))
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {value}")
            object.__setattr__(self, name, value)
        if len(self.mask_char) != 1:
            raise ConfigError(f"mask_char must be a single character, got {self.mask_char!r}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


@dataclass(frozen=True)
class CorruptionStats:
    """Per-action counts over every transformed character position, and
    the empirical rate of each action; rates over zero characters raise
    EmptyCorpusError."""

    total_chars: int
    kept: int
    masked: int
    replaced: int

    def __post_init__(self):
        if self.kept + self.masked + self.replaced != self.total_chars:
            raise ValueError(
                "action counts do not sum to total_chars: "
                f"{self.kept} + {self.masked} + {self.replaced} != {self.total_chars}")

    def _rate(self, count: int) -> float:
        if self.total_chars == 0:
            raise EmptyCorpusError("cannot compute rates over zero characters")
        return count / self.total_chars

    @property
    def kept_rate(self) -> float:
        return self._rate(self.kept)

    @property
    def masked_rate(self) -> float:
        return self._rate(self.masked)

    @property
    def replaced_rate(self) -> float:
        return self._rate(self.replaced)

    def to_text(self) -> str:
        lines = [
            "corruption report",
            f"total_chars {self.total_chars}",
            f"kept {self.kept} rate {self.kept_rate:.6f}",
            f"masked {self.masked} rate {self.masked_rate:.6f}",
            f"replaced {self.replaced} rate {self.replaced_rate:.6f}",
        ]
        return "\n".join(lines) + "\n"


def smlm_transform(corpus: PlainCorpus, vocab: CharVocabulary,
                   config: SmlmConfig) -> tuple[PlainCorpus, CorruptionStats]:
    """Corrupt ``corpus`` character by character.

    Each position independently keeps its character with ``p_keep``,
    becomes ``mask_char`` with ``(1 - p_keep) * p_mask_given_change``, and
    otherwise is replaced by a uniform draw from ``vocab``.  Replacement may
    coincidentally re-emit the original character; the stats count the
    action taken, not the textual difference.  Line separators never enter
    the transform, so line structure survives untouched.
    """
    if len(vocab) == 0:
        raise ConfigError("target vocabulary is empty")
    if config.mask_char in vocab:
        raise ConfigError(
            f"mask_char {config.mask_char!r} occurs in the target vocabulary")

    rng = np.random.default_rng(config.seed)
    vocab_codes = np.asarray(vocab.codepoints(), dtype=np.uint32)
    mask_code = np.uint32(ord(config.mask_char))
    # One uniform draw decides the action: [0, t_keep) keeps, [t_keep,
    # t_mask) masks, [t_mask, 1) replaces.  The bands have exactly the
    # configured marginal probabilities.
    t_keep = config.p_keep
    t_mask = config.p_keep + (1.0 - config.p_keep) * config.p_mask_given_change

    out_lines = []
    total = kept = masked = replaced = 0
    for line in corpus:
        n = len(line)
        if n == 0:
            out_lines.append(line)
            continue
        # utf-32-le gives a 1:1 uint32 view of the code points
        codes = np.frombuffer(line.encode("utf-32-le"), dtype="<u4").copy()
        u = rng.random(n)
        mask_here = u >= t_keep
        replace_here = u >= t_mask
        mask_here &= ~replace_here
        n_replace = int(replace_here.sum())
        if n_replace:
            picks = rng.integers(0, len(vocab_codes), size=n_replace)
            codes[replace_here] = vocab_codes[picks]
        codes[mask_here] = mask_code
        out_lines.append(codes.astype("<u4").tobytes().decode("utf-32-le"))
        total += n
        masked += int(mask_here.sum())
        replaced += n_replace
    kept = total - masked - replaced
    stats = CorruptionStats(total_chars=total, kept=kept,
                            masked=masked, replaced=replaced)
    return PlainCorpus.from_lines(out_lines), stats
