"""Seeded benchmark inputs in the register of ``histtag.toydata``.

The stock toy generator cycles ten templates over a few dozen fillers, so
its corpora repeat themselves: a sentence-keyed cache would hit far more
often than on real text, and test sentences copied from train would inflate
F1.  This module keeps the toy templates and fillers and widens them with
generated person, place and organisation names, dated and adverbial
phrases and more templates.  Every corpus is then drawn without
replacement from one shared set of sentence texts, so no sentence occurs
twice in a file and no two files (train, dev, test, LM corpus) share one.

Every draw comes from one ``numpy.random.default_rng`` stream seeded by the
caller: the same seed and sizes give the same bytes.
"""

import statistics
from collections import Counter

import numpy as np

from histtag.corpus import (
    EntitySpan,
    Sentence,
    TaggedCorpus,
    TagScheme,
    Token,
    render_tags,
    write_conll,
)
from histtag.toydata import ORGS, PERSONS, PLACES, TEMPLATES

FIRST_NAMES = sorted({p[0] for p in PERSONS} | {
    "Johann", "Leopold", "Friedrich", "Katharina", "Georg", "Ludwig", "Rosa",
    "Heinrich", "Magdalena", "Wilhelm", "Aloisia", "Ignaz", "Barbara",
    "Matthias", "Elisabeth", "Anton", "Juliana", "Michael", "Cäcilia",
    "Sebastian", "Walburga", "Theodor", "Notburga", "Florian", "Kreszenz",
    "Valentin", "Gertraud", "Rupert", "Hedwig", "Engelbert",
})
SURNAMES = sorted({p[1] for p in PERSONS if len(p) > 1} | {
    "Gruber", "Bauer", "Wagner", "Pichler", "Moser", "Mayer", "Hofer",
    "Leitner", "Berger", "Fuchs", "Eder", "Fischer", "Schmid", "Winkler",
    "Weber", "Schwarz", "Reiter", "Schneider", "Brunner", "Lehner", "Haas",
    "Wimmer", "Aigner", "Strasser", "Holzer", "Ebner", "Lang", "Baumgartner",
})
PLACE_PREFIXES = ("Neu", "Alt", "Ober", "Unter", "Hohen", "Klein", "Groß",
                  "Mitter", "Hinter", "Vorder", "Bruck", "Wald")
PLACE_STEMS = ("kirchen", "dorf", "hausen", "feld", "brunn", "stadt", "berg",
               "au", "bach", "burg", "heim", "stetten", "hofen", "reith")
ORG_HEADS = ("Sparkasse", "Handelskammer", "Gemeinderat", "Zeitung",
             "Gewerbeverein", "Musikverein", "Feuerwehr", "Brauerei",
             "Bezirksgericht", "Postamt", "Lehrerverein", "Spinnerei")
MONTHS = ("Jänner", "Februar", "März", "April", "Mai", "Juni", "Juli",
          "August", "September", "Oktober", "November", "Dezember")
OPENERS = ("gestern", "heute", "damals", "vorgestern", "abends", "morgens",
           "bald", "wieder", "endlich", "leider")
CLOSERS = ("wie berichtet wird", "nach langer Krankheit", "trotz des Regens",
           "mit großem Erfolg", "zum ersten Male", "unter großem Beifall",
           "wegen der Kälte", "auf eigene Kosten", "ohne Aufsehen")

# more templates in the toy register; ``{i}`` slots take the labelled
# entity, as in histtag.toydata
EXTRA_TEMPLATES = [
    ("die {0} verlegt ihren Sitz nach {1} .", ("ORG", "LOC")),
    ("{0} schreibt an {1} in {2} .", ("PER", "PER", "LOC")),
    ("in {0} tagte die {1} bis spät .", ("LOC", "ORG")),
    ("der Bürgermeister von {0} lobt {1} .", ("LOC", "PER")),
    ("{0} erhielt von der {1} einen Preis .", ("PER", "ORG")),
    ("die Straße zwischen {0} und {1} ist gesperrt .", ("LOC", "LOC")),
    ("Frau {0} eröffnet ein Geschäft in {1} .", ("PER", "LOC")),
    ("die {0} meldet einen Gewinn .", ("ORG",)),
    ("man sah {0} auf dem Weg nach {1} .", ("PER", "LOC")),
    ("der Verlust der {0} beträgt viele Gulden .", ("ORG",)),
]
ALL_TEMPLATES = list(TEMPLATES) + EXTRA_TEMPLATES


def _zipf_pick(rng: np.random.Generator, items, a: float = 1.1):
    """Rank-frequency draw: a few frequent names, a long rare tail."""
    weights = 1.0 / np.arange(1, len(items) + 1) ** a
    return items[int(rng.choice(len(items), p=weights / weights.sum()))]


def _person(rng: np.random.Generator) -> tuple[str, ...]:
    kind = rng.random()
    if kind < 0.3:
        return (_zipf_pick(rng, FIRST_NAMES),)
    if kind < 0.8:
        return (_zipf_pick(rng, FIRST_NAMES), _zipf_pick(rng, SURNAMES))
    return (_zipf_pick(rng, SURNAMES),)


def _place(rng: np.random.Generator) -> tuple[str, ...]:
    kind = rng.random()
    if kind < 0.35:
        return _zipf_pick(rng, PLACES)
    name = _zipf_pick(rng, PLACE_PREFIXES) + _zipf_pick(rng, PLACE_STEMS)
    if kind < 0.45:
        return ("Sankt", name.capitalize())
    return (name,)


def _org(rng: np.random.Generator) -> tuple[str, ...]:
    kind = rng.random()
    if kind < 0.3:
        return _zipf_pick(rng, ORGS)
    head = _zipf_pick(rng, ORG_HEADS)
    if kind < 0.7:
        return (head,) + _place(rng)
    return (head,)


FILL = {"PER": _person, "LOC": _place, "ORG": _org}


def make_sentence(rng: np.random.Generator) -> Sentence:
    """One IOB2-tagged sentence with optional opening and closing phrases."""
    pattern, labels = ALL_TEMPLATES[int(rng.integers(len(ALL_TEMPLATES)))]
    tokens: list[str] = []
    spans: list[EntitySpan] = []
    if rng.random() < 0.3:
        tokens.append(OPENERS[int(rng.integers(len(OPENERS)))])
    if rng.random() < 0.3:
        tokens += ["am", f"{int(rng.integers(1, 29))}.",
                   MONTHS[int(rng.integers(12))], str(int(rng.integers(1840, 1919)))]
    pieces = pattern.split()
    for k, piece in enumerate(pieces):
        if piece.startswith("{"):
            label = labels[int(piece[1:-1])]
            entity = FILL[label](rng)
            spans.append(EntitySpan(label, len(tokens), len(tokens) + len(entity) - 1))
            tokens.extend(entity)
        else:
            if piece == "." and k == len(pieces) - 1 and rng.random() < 0.3:
                tokens += CLOSERS[int(rng.integers(len(CLOSERS)))].split()
            tokens.append(piece)
    tags = render_tags(spans, len(tokens), TagScheme.IOB2)
    return Sentence(tuple(Token(t, gold_tag=g) for t, g in zip(tokens, tags)))


class SentencePool:
    """Draws sentences whose texts are distinct across every corpus drawn
    from the same pool."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.seen: set[str] = set()
        self.draws = 0

    def draw(self) -> Sentence:
        while True:
            self.draws += 1
            sentence = make_sentence(self.rng)
            text = " ".join(sentence.texts())
            if text not in self.seen:
                self.seen.add(text)
                return sentence

    def corpus(self, size: int, split: str) -> TaggedCorpus:
        return TaggedCorpus(tuple(self.draw() for _ in range(size)),
                            scheme=TagScheme.IOB2, split=split)

    def plain_lines(self, chars: int) -> list[str]:
        """Sentence texts until their space-joined stream reaches ``chars``."""
        lines, total = [], 0
        while total < chars:
            lines.append(" ".join(self.draw().texts()))
            total += len(lines[-1]) + 1
        return lines

    def joined_corpus(self, tokens: int, max_join: int, split: str) -> TaggedCorpus:
        """Lines of 1..max_join sentences, like unsegmented OCR lines, until
        they hold ``tokens`` tokens, so every seed tags about as much text."""
        out, total = [], 0
        while total < tokens:
            k = int(self.rng.integers(1, max_join + 1))
            out.append(Sentence(tuple(t for _ in range(k) for t in self.draw())))
            total += len(out[-1])
        return TaggedCorpus(tuple(out), scheme=TagScheme.IOB2, split=split)

    def rejected_share(self) -> float:
        """Share of raw draws rejected as repeats: how often the underlying
        generator repeats itself before de-duplication."""
        return 1.0 - len(self.seen) / self.draws if self.draws else 0.0


def write_plain(lines: list[str], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _entity_class(corpora) -> dict[str, str]:
    """Most frequent entity label of each word type (``O`` outside spans)."""
    counts: dict[str, Counter] = {}
    for corpus in corpora:
        for sentence in corpus:
            for tok in sentence:
                label = "O" if tok.gold_tag == "O" else tok.gold_tag[2:]
                counts.setdefault(tok.text, Counter())[label] += 1
    return {w: c.most_common(1)[0][0] for w, c in counts.items()}


def write_vectors(corpora, path, rng: np.random.Generator, dim: int = 25,
                  oov_share: float = 0.15) -> dict:
    """Text word-vector file over the corpora's word types.

    A vector is its type's entity-class centroid plus noise, so like real
    pre-trained vectors it carries some signal; ``oov_share`` of the types,
    chosen at random, get no vector.  Returns the counts written.
    """
    classes = _entity_class(corpora)
    centroids = {label: rng.normal(0.0, 1.0, dim)
                 for label in ("O", "PER", "LOC", "ORG")}
    words = sorted(classes)
    keep = rng.random(len(words)) >= oov_share
    kept = [w for w, k in zip(words, keep) if k]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(kept)} {dim}\n")
        for word in kept:
            vec = 0.5 * centroids[classes[word]] + rng.normal(0.0, 0.5, dim)
            fh.write(word + " " + " ".join(f"{v:.4f}" for v in vec) + "\n")
    return {"types": len(words), "with_vector": len(kept)}


def _length_stats(lengths) -> dict:
    return {"n": len(lengths), "min": min(lengths),
            "median": statistics.median(lengths), "mean": round(statistics.fmean(lengths), 2),
            "max": max(lengths)}


def describe_tagged(corpus: TaggedCorpus) -> dict:
    texts = [" ".join(s.texts()) for s in corpus]
    return {"sentences": len(texts),
            "tokens": sum(len(s) for s in corpus),
            "duplicate_share": 1.0 - len(set(texts)) / len(texts),
            "tokens_per_sentence": _length_stats([len(s) for s in corpus]),
            "chars_per_token": round(statistics.fmean(
                len(t.text) for s in corpus for t in s), 3)}


def describe_plain(lines: list[str]) -> dict:
    return {"lines": len(lines),
            "chars": sum(len(x) + 1 for x in lines) - 1,
            "duplicate_share": 1.0 - len(set(lines)) / len(lines),
            "chars_per_line": _length_stats([len(x) for x in lines])}


def overlap(a: TaggedCorpus, b: TaggedCorpus) -> int:
    """Sentences of ``b`` whose text also occurs in ``a``."""
    seen = {" ".join(s.texts()) for s in a}
    return sum(" ".join(s.texts()) in seen for s in b)
