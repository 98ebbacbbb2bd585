"""Synthetic corpus corruption.

Takes clean text and produces a noisy version in which each character
independently survives, turns into a mask symbol, or is replaced by a
random vocabulary character. The same seed always yields the same noise,
so corrupted corpora are reproducible artifacts.
"""

from histtag import (
    CharVocabulary,
    PlainCorpus,
    SmlmConfig,
    select_mask_char,
    smlm_transform,
)

lines = [
    "Die Stadt Wien liegt an der Donau.",
    "Kaiser Franz Joseph regierte lange.",
    "Der Landtag tagt heute in Graz.",
] * 200

corpus = PlainCorpus.from_lines(lines)
vocab = CharVocabulary(set("".join(lines)))
mask = select_mask_char(vocab)
print(f"vocabulary: {len(vocab)} characters, mask symbol {mask!r}\n")

config = SmlmConfig(mask_char=mask, seed=42, p_keep=0.90)
corrupted, stats = smlm_transform(corpus, vocab, config)

print("clean:    ", lines[0])
print("corrupted:", next(iter(corrupted)))
print()
print(stats.to_text())

again, _ = smlm_transform(corpus, vocab, config)
assert list(corrupted) == list(again)
print("re-running with the same seed reproduced the corruption exactly.")
