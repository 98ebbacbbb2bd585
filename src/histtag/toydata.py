"""Deterministic synthetic dataset for desk-scale pipeline runs.

Generates a small tagged corpus (PER / LOC / ORG entities over template
sentences) plus a plain-text corpus for language-model pre-training.  Same
seed, same bytes: both generators draw from a single ``default_rng`` stream
and the writers emit LF-only files.

Run as a script to materialize the files::

    python -m histtag.toydata OUTDIR [--seed N]
"""

import argparse
from pathlib import Path

import numpy as np

from .corpus import (
    EntitySpan,
    PlainCorpus,
    Sentence,
    TaggedCorpus,
    TagScheme,
    Token,
    render_tags,
    write_conll,
)
from .serialization import atomic_open

# entity fillers; multi-token entries exercise B-/I- (and E- after
# conversion) tags
PERSONS = [
    ("Anna",), ("Karl",), ("Josef",), ("Eva",), ("Otto",),
    ("Maria", "Theresia"), ("Franz", "Huber"), ("Ida", "Steiner"),
]
PLACES = [
    ("Wien",), ("Graz",), ("Linz",), ("Salzburg",), ("Steyr",),
    ("Krems",), ("Wels",), ("Bad", "Ischl"),
]
ORGS = [
    ("Nationalbank",), ("Landtag",), ("Staatsoper",),
    ("Universität", "Wien"), ("Südbahn",),
]

# each template is (token pattern, slot labels); slots are filled left to
# right with draws from the matching filler list
TEMPLATES = [
    ("{0} besucht {1} .", ("PER", "LOC")),
    ("{0} und {1} reisen nach {2} .", ("PER", "PER", "LOC")),
    ("die {0} in {1} eröffnet heute .", ("ORG", "LOC")),
    ("{0} liegt an der Donau .", ("LOC",)),
    ("Herr {0} arbeitet bei der {1} .", ("PER", "ORG")),
    ("der Zug nach {0} fährt um acht Uhr .", ("LOC",)),
    ("{0} wohnt seit Jahren in {1} .", ("PER", "LOC")),
    ("die {0} sucht neue Mitarbeiter .", ("ORG",)),
    ("in {0} regnet es oft .", ("LOC",)),
    ("{0} verkauft Brot am Markt .", ("PER",)),
]

FILLERS = {"PER": PERSONS, "LOC": PLACES, "ORG": ORGS}


def _make_sentence(rng: np.random.Generator, template_index: int) -> Sentence:
    pattern, labels = TEMPLATES[template_index]
    tokens: list[str] = []
    spans: list[EntitySpan] = []
    for piece in pattern.split():
        if piece.startswith("{"):
            label = labels[int(piece[1:-1])]
            options = FILLERS[label]
            entity = options[int(rng.integers(len(options)))]
            spans.append(EntitySpan(label, len(tokens),
                                    len(tokens) + len(entity) - 1))
            tokens.extend(entity)
        else:
            tokens.append(piece)
    tags = render_tags(spans, len(tokens), TagScheme.IOB2)
    return Sentence(tuple(Token(text, gold_tag=tag)
                          for text, tag in zip(tokens, tags)))


def _make_corpus(rng: np.random.Generator, size: int, split: str) -> TaggedCorpus:
    # cycle templates so every label shows up even in tiny splits, with the
    # rng only choosing fillers
    sentences = tuple(_make_sentence(rng, i % len(TEMPLATES))
                      for i in range(size))
    return TaggedCorpus(sentences, scheme=TagScheme.IOB2, split=split)


def build_tagged_splits(seed: int = 0, train_size: int = 50,
                        dev_size: int = 12, test_size: int = 12
                        ) -> dict[str, TaggedCorpus]:
    """Three aligned splits drawn from one seeded stream."""
    rng = np.random.default_rng(seed)
    return {
        "train": _make_corpus(rng, train_size, "train"),
        "dev": _make_corpus(rng, dev_size, "dev"),
        "test": _make_corpus(rng, test_size, "test"),
    }


def build_plain_corpus(seed: int = 0, lines: int = 300) -> PlainCorpus:
    """Raw sentence lines in the same register, for LM pre-training."""
    rng = np.random.default_rng(seed + 1)
    texts = []
    for i in range(lines):
        sentence = _make_sentence(rng, int(rng.integers(len(TEMPLATES))))
        texts.append(" ".join(t.text for t in sentence))
    return PlainCorpus.from_lines(texts)


def write_toy_dataset(out_dir, seed: int = 0) -> dict[str, Path]:
    """Materialize train/dev/test CoNLL files plus an LM corpus.

    Returns the path of every file written.  Re-running with the same seed
    reproduces the files byte for byte.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, corpus in build_tagged_splits(seed).items():
        paths[name] = out / f"{name}.conll"
        write_conll(corpus, paths[name])
    paths["lm_corpus"] = out / "lm_corpus.txt"
    with atomic_open(paths["lm_corpus"], "w", encoding="utf-8", newline="\n") as fh:
        for line in build_plain_corpus(seed):
            fh.write(line + "\n")
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="generate the bundled synthetic dataset")
    parser.add_argument("out_dir")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    paths = write_toy_dataset(args.out_dir, args.seed)
    for name in sorted(paths):
        print(f"{name}: {paths[name]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
