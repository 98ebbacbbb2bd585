"""CoNLL-format corpora, tagging schemes, span extraction, and character vocabularies.

The data model is deliberately small: a corpus is a tuple of sentences, a
sentence a tuple of tokens, and a token carries its text plus an optional gold
tag. A tagger's predictions are not part of it: they are one tag list per
sentence, in the corpus's scheme. All values are immutable after
construction, so they can be shared freely between threads.

Every text file the package reads (plain, CoNLL, prediction, vector,
vocabulary or config) goes through ``read_plain``: UTF-8, lines ending at
LF, CR LF or CR, and a non-UTF-8 byte is a DecodeError naming its offset.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import DecodeError, EmptyCorpusError, ParseError, SchemeError
from .serialization import atomic_open

SPLITS = ("train", "dev", "test")

DOCSTART = "-DOCSTART-"


class TagScheme(Enum):
    """Span-encoding scheme for entity tags."""

    IOB2 = "iob2"
    IOBES = "iobes"

    @property
    def prefixes(self) -> frozenset[str]:
        if self is TagScheme.IOB2:
            return frozenset("BI")
        return frozenset("BIES")

    @classmethod
    def from_string(cls, name: str) -> "TagScheme":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown tag scheme {name!r}; expected one of "
                             f"{[m.value for m in cls]}") from None


@dataclass(frozen=True)
class Token:
    text: str
    gold_tag: Optional[str] = None

    def __post_init__(self):
        if not self.text:
            raise ValueError("token text must be non-empty")
        if any(ch.isspace() for ch in self.text):
            raise ValueError(f"token text {self.text!r} contains whitespace")


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[Token, ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if len(self.tokens) < 1:
            raise ValueError("a sentence needs at least one token")

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)

    def texts(self) -> list[str]:
        return [t.text for t in self.tokens]

    def gold_tags(self) -> list[str]:
        return [t.gold_tag for t in self.tokens]


@dataclass(frozen=True)
class TaggedCorpus:
    sentences: tuple[Sentence, ...]
    scheme: TagScheme
    split: str = "train"

    def __post_init__(self):
        object.__setattr__(self, "sentences", tuple(self.sentences))
        if self.split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {self.split!r}")

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self) -> Iterator[Sentence]:
        return iter(self.sentences)


@dataclass(frozen=True)
class EntitySpan:
    """A labeled token range, ``start`` and ``end`` both inclusive."""

    label: str
    start: int
    end: int

    def __post_init__(self):
        if not self.label:
            raise ValueError("span label must be non-empty")
        if not (0 <= self.start <= self.end):
            raise ValueError(f"bad span bounds [{self.start}, {self.end}]")


class CharVocabulary:
    """Bijective character/index map, iteration ordered by code point."""

    def __init__(self, chars: Iterable[str]):
        uniq = set()
        for ch in chars:
            if len(ch) != 1:
                raise ValueError(f"expected single characters, got {ch!r}")
            uniq.add(ch)
        self._chars: tuple[str, ...] = tuple(sorted(uniq, key=ord))
        self._index: dict[str, int] = {c: i for i, c in enumerate(self._chars)}

    @property
    def chars(self) -> tuple[str, ...]:
        return self._chars

    def lookup(self, ch: str) -> int:
        return self._index[ch]

    def encode(self, text: str) -> np.ndarray:
        """Index array for ``text``; characters outside the vocabulary map
        to the reserved UNK index ``len(self)``."""
        index, unk = self._index, len(self._chars)
        return np.fromiter((index.get(c, unk) for c in text),
                           dtype=np.int64, count=len(text))

    def codepoints(self) -> list[int]:
        return [ord(c) for c in self._chars]

    def __len__(self) -> int:
        return len(self._chars)

    def __contains__(self, ch: str) -> bool:
        return ch in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self._chars)

    def __eq__(self, other) -> bool:
        return isinstance(other, CharVocabulary) and self._chars == other._chars

    def __repr__(self) -> str:
        return f"CharVocabulary({len(self)} chars)"

    @classmethod
    def from_codepoints(cls, codepoints: Iterable[int]) -> "CharVocabulary":
        return cls(chr(cp) for cp in codepoints)

    def to_path(self, path) -> None:
        """Write one ``U+XXXX`` code point per line after a count header."""
        with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# histtag vocab v1: {len(self)} characters\n")
            for cp in self.codepoints():
                fh.write(f"U+{cp:04X}\n")

    @classmethod
    def from_path(cls, path) -> "CharVocabulary":
        """Read a file that ``to_path`` wrote, through ``read_plain``;
        blank lines and ``#`` comments are skipped."""
        codepoints = []
        for lineno, line in enumerate(read_plain(path), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if not line.startswith("U+"):
                raise ParseError(f"expected 'U+XXXX', got {line!r}",
                                 path=str(path), line=lineno)
            try:
                codepoints.append(int(line[2:], 16))
            except ValueError:
                raise ParseError(f"bad code point {line!r}",
                                 path=str(path), line=lineno) from None
        return cls.from_codepoints(codepoints)


class PlainCorpus:
    """A stream of unicode text lines, one sentence or fragment per line.

    Backed either by an in-memory list of lines or by a file that
    ``read_plain`` opened, re-read line by line on every iteration, so
    arbitrarily large files can be consumed without loading them whole.
    """

    def __init__(self, lines: Optional[list[str]] = None, path=None):
        if (lines is None) == (path is None):
            raise ValueError("exactly one of lines/path must be given")
        self._lines = lines
        self._path = path

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "PlainCorpus":
        return cls(lines=list(lines))

    def __iter__(self) -> Iterator[str]:
        if self._lines is not None:
            return iter(self._lines)
        return _stream_lines(self._path)


def _stream_lines(path) -> Iterator[str]:
    """Yield the lines of a UTF-8 file, ending at LF, CR LF or CR, without
    their line ends.  On a decode failure the file's byte lines are decoded
    again to find the bad byte's offset: no UTF-8 sequence holds an LF."""
    with open(path, encoding="utf-8") as fh:
        try:
            for line in fh:
                yield line.removesuffix("\n")
        except UnicodeDecodeError:
            raise DecodeError("invalid UTF-8", path=str(path),
                              byte_offset=_bad_byte_offset(path)) from None


def _bad_byte_offset(path) -> Optional[int]:
    offset = 0
    with open(path, "rb") as fh:
        for line in fh:
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return offset + exc.start
            offset += len(line)


def read_plain(path) -> PlainCorpus:
    """The one reader of text files, streaming them a line at a time.  A
    missing file raises ``open``'s FileNotFoundError here; a non-UTF-8
    byte raises DecodeError where the lines are read."""
    path = Path(path)
    path.open("rb").close()
    return PlainCorpus(path=path)


# ---------------------------------------------------------------------------
# tags and spans


def split_tag(tag: str, scheme: TagScheme) -> tuple[str, Optional[str]]:
    """Split ``B-LOC`` into ``("B", "LOC")``; ``O`` becomes ``("O", None)``.

    Raises SchemeError when the prefix is not valid under ``scheme`` or the
    label part is missing.
    """
    if tag == "O":
        return "O", None
    prefix, sep, label = tag.partition("-")
    if not sep or not label:
        raise SchemeError(f"malformed tag {tag!r}: expected 'O' or '<prefix>-<type>'")
    if prefix not in scheme.prefixes:
        raise SchemeError(
            f"tag {tag!r} has prefix {prefix!r}, not allowed under "
            f"{scheme.value.upper()} (allowed: {sorted(scheme.prefixes)})")
    return prefix, label


def extract_spans(tags: Sequence[str], scheme: TagScheme) -> list[EntitySpan]:
    """Extract entity spans from a tag sequence, validating well-formedness.

    Returns spans sorted by start position. Ill-formed sequences (an I or E
    continuing nothing, a type switch without a boundary, an IOBES B left
    unclosed) raise SchemeError with the offending token position.
    """
    spans: list[EntitySpan] = []
    open_label: Optional[str] = None
    open_start = 0
    for i, tag in enumerate(tags):
        try:
            prefix, label = split_tag(tag, scheme)
        except SchemeError as exc:
            raise SchemeError(str(exc), position=i) from None
        if scheme is TagScheme.IOB2:
            if prefix == "O":
                if open_label is not None:
                    spans.append(EntitySpan(open_label, open_start, i - 1))
                    open_label = None
            elif prefix == "B":
                if open_label is not None:
                    spans.append(EntitySpan(open_label, open_start, i - 1))
                open_label, open_start = label, i
            else:  # I
                if open_label != label:
                    raise SchemeError(
                        f"{tag!r} at position {i} continues no open {label} span",
                        position=i)
        else:  # IOBES
            if prefix in ("O", "B", "S") and open_label is not None:
                raise SchemeError(
                    f"{tag!r} at position {i} interrupts an open {open_label} "
                    f"span (expected I-{open_label} or E-{open_label})",
                    position=i)
            if prefix == "B":
                open_label, open_start = label, i
            elif prefix == "S":
                spans.append(EntitySpan(label, i, i))
            elif prefix in ("I", "E"):
                if open_label != label:
                    raise SchemeError(
                        f"{tag!r} at position {i} continues no open {label} span",
                        position=i)
                if prefix == "E":
                    spans.append(EntitySpan(open_label, open_start, i))
                    open_label = None
    if open_label is not None:
        if scheme is TagScheme.IOB2:
            spans.append(EntitySpan(open_label, open_start, len(tags) - 1))
        else:
            raise SchemeError(
                f"span of type {open_label} starting at {open_start} is never "
                "closed with an E tag", position=len(tags) - 1)
    return spans


def render_tags(spans: Sequence[EntitySpan], length: int,
                scheme: TagScheme) -> list[str]:
    """Inverse of extract_spans: lay non-overlapping sorted spans onto tags."""
    tags = ["O"] * length
    prev_end = -1
    for span in spans:
        if span.start <= prev_end:
            raise ValueError(f"spans overlap or are unsorted at {span}")
        if span.end >= length:
            raise ValueError(f"span {span} exceeds sequence length {length}")
        prev_end = span.end
        if scheme is TagScheme.IOB2:
            tags[span.start] = f"B-{span.label}"
            for i in range(span.start + 1, span.end + 1):
                tags[i] = f"I-{span.label}"
        else:
            if span.start == span.end:
                tags[span.start] = f"S-{span.label}"
            else:
                tags[span.start] = f"B-{span.label}"
                for i in range(span.start + 1, span.end):
                    tags[i] = f"I-{span.label}"
                tags[span.end] = f"E-{span.label}"
    return tags


def convert_tags(tags: Sequence[str], source: TagScheme,
                 target: TagScheme) -> list[str]:
    """Rewrite one tag sequence between schemes: its spans under ``source``,
    rendered in ``target``. Ill-formed input raises SchemeError."""
    return render_tags(extract_spans(tags, source), len(tags), target)


def convert_scheme(corpus: TaggedCorpus, target: TagScheme) -> TaggedCorpus:
    """Convert a corpus's gold tags between tagging schemes without
    changing its spans."""
    sentences = tuple(
        Sentence(tuple(Token(tok.text, gold_tag=g) for tok, g in zip(
            sentence, convert_tags(sentence.gold_tags(), corpus.scheme, target))))
        for sentence in corpus)
    return TaggedCorpus(sentences, scheme=target, split=corpus.split)


def entity_counts(corpus: TaggedCorpus) -> Counter:
    """Number of gold entity spans per label. Absent labels count as zero."""
    counts: Counter = Counter()
    for sentence in corpus:
        for span in extract_spans(sentence.gold_tags(), corpus.scheme):
            counts[span.label] += 1
    return counts


# ---------------------------------------------------------------------------
# CoNLL column files


def read_conll(path, token_column: int, tag_column: int,
               scheme: TagScheme, split: str = "train") -> TaggedCorpus:
    """Read a CoNLL column file into a validated TaggedCorpus.

    Columns are separated by runs of spaces or tabs; a blank line ends a
    sentence; ``-DOCSTART-`` lines are skipped. Each sentence's tags must be
    well-formed under ``scheme``, both in shape and in sequence, otherwise a
    ParseError names the sentence's first offending line. An input without
    any sentence raises EmptyCorpusError.
    """
    sentences = conll_sentences(path, token_column, (tag_column,), scheme)
    return TaggedCorpus(tuple(s for s, in sentences), scheme=scheme, split=split)


def conll_sentences(path, token_column: int, tag_columns: Sequence[int],
                    scheme: TagScheme) -> Iterator[tuple]:
    """The line loop of ``read_conll`` over several tag columns, each
    checked as ``read_conll`` checks its one: yields each sentence, with
    the first tag column as its gold tags, then a tuple of its tags from
    each further column."""
    path = Path(path)
    columns = (token_column, *tag_columns)
    rows, lines, found = [], [], False
    # a blank line after the last ends its sentence too
    for lineno, line in enumerate(chain(read_plain(path), [""]), 1):
        fields = line.split()
        if fields and fields[0] != DOCSTART:
            try:
                rows.append(tuple(fields[c] for c in columns))
            except IndexError:
                raise ParseError(
                    f"line has {len(fields)} columns, need token column {token_column} and "
                    f"tag column {' and '.join(map(str, tag_columns))}",
                    path=str(path), line=lineno) from None
            lines.append(lineno)
        elif not fields and rows:
            texts, *tags = zip(*rows)
            for column in tags:
                try:
                    extract_spans(column, scheme)
                except SchemeError as exc:
                    pos = exc.position if exc.position is not None else 0
                    raise ParseError(f"ill-formed tag sequence: {exc}",
                                     path=str(path), line=lines[pos]) from None
            yield (Sentence(tuple(map(Token, texts, tags[0]))), *tags[1:])
            rows, lines, found = [], [], True
    if not found:
        raise EmptyCorpusError(f"{path}: no sentences found")


def write_conll(corpus: TaggedCorpus, path) -> None:
    """Write ``token gold_tag`` lines, single-space separated, LF endings."""
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        for sentence in corpus:
            for tok in sentence:
                if tok.gold_tag is None:
                    raise ValueError(f"token {tok.text!r} has no gold tag")
                fh.write(f"{tok.text} {tok.gold_tag}\n")
            fh.write("\n")


# ---------------------------------------------------------------------------
# character vocabulary extraction


def extract_char_vocab(*sources: Union[TaggedCorpus, PlainCorpus]) -> CharVocabulary:
    """Collect every character occurring in token texts, plus the space.

    Sources may be tagged corpora (token texts) or plain corpora (lines are
    split on whitespace first, so line separators never enter the
    vocabulary). The space character is always included: serialized text
    needs it as the word separator.
    """
    if not sources:
        raise ValueError("at least one source is required")
    chars = {" "}
    for source in sources:
        if isinstance(source, TaggedCorpus):
            for sentence in source:
                for tok in sentence:
                    chars.update(tok.text)
        elif isinstance(source, PlainCorpus):
            for line in source:
                for piece in line.split():
                    chars.update(piece)
        else:
            raise TypeError(f"unsupported source type {type(source).__name__}")
    return CharVocabulary(chars)


# ---------------------------------------------------------------------------
# sentence rendering and grouping shared by language models and embedders


def sentence_text(sentence: Sentence) -> str:
    """Token texts joined by single spaces, the canonical rendering."""
    return " ".join(sentence.texts())


def length_groups(lengths: Sequence[int], budget: int) -> list[list[int]]:
    """Indices of ``lengths``, sorted by length and cut into groups whose
    size times their longest length is at most ``budget``; a longer item
    forms a group alone."""
    groups: list[list[int]] = []
    group: list[int] = []
    for i in sorted(range(len(lengths)), key=lengths.__getitem__):
        if group and (len(group) + 1) * lengths[i] > budget:
            groups.append(group)
            group = []
        group.append(i)
    if group:
        groups.append(group)
    return groups


def token_char_ranges(sentence: Sentence) -> list[tuple[int, int]]:
    """Inclusive (first, last) character offsets of each token in
    sentence_text(sentence)."""
    ranges = []
    pos = 0
    for tok in sentence:
        ranges.append((pos, pos + len(tok.text) - 1))
        pos += len(tok.text) + 1
    return ranges
