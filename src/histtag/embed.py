"""Per-token embeddings: static word vectors, trainable character
features, and contextual extractions from pre-trained character LMs.

Every component has ``dim``, ``forward(sentences)`` and ``named_layers``
naming its trainable layers.  ``forward`` takes a SentenceGroup, a tuple
of sentences whose ``texts()`` lists all their token texts in order, and
returns one row per token in that order.  A frozen component (word table,
contextual) has no layers: its ``forward`` returns the (tokens × dim)
block alone, a function of each sentence's token texts.  A trainable
component (char features) returns the block plus a cache for its
``backward(cache, grad)``.  A StackedEmbedder concatenates component
blocks in a fixed order into one padded (sentences × tokens × dim) block,
routes each trainable component its gradient columns, and prefixes
component i's layer names with ``component{i}.``.

Sentences run in groups: ``corpus.length_groups``, given the lengths of
their texts, sorts them and cuts groups whose size times their longest
text stays within a character budget, so each LM and each recurrence runs
once per group on rows padded at their end.  Frozen components extract
over groups of EXTRACT_CHARS (4,096) characters; the trainable components
and the tagger run groups of GROUP_CHARS (1,024), which bound the caches
backward keeps.  ``extraction_groups`` gathers the latter whole into the
former.  An LM's working set is transient and grows with its group:
gates, cells and outputs are 6 · H float32 values per character, about
6.6 MB per direction at H = 64 and about 200 MB at paper scale
(H = 2048), against about 100 MB for float64 over 1,024 characters.  A
row's values do not depend on the rows beside it beyond the rounding of
the batched products.

Contextual extraction computes in float32, the precision LM files store
their weights in: ``ContextualEmbedder`` keeps only float32 copies of its
LMs' embedding and LSTM weights and leaves the LMs it is given as they
are.  Its blocks are within 1e-6 of the float64 LMs' states (at most 4.2e-7
measured at H = 64, on values up to 0.92).  Training computes everything
else in float64; a ``StackedEmbedder.cast`` copy, which ``tagger.predict``
tags with, runs the char features in float32 and builds float32 blocks.

Frozen blocks are memoized.  ``embedder_factory`` gives each frozen
component one BlockMemo, shared by every stack it builds, so one ``ner
train`` command computes a sentence's block once for all its epochs, dev
evaluations and runs.  A memo is keyed by ``tuple(sentence.texts())`` and
holds read-only blocks: 4 bytes per value of a contextual block (float32)
and 8 per value of a word-table block (float64), so 16 KB per distinct
token at paper scale (H = 2048 per LM direction).  Each memo stores blocks
up to MEMO_BYTES (1 GiB); past that a miss is computed and not stored.  A
stack built without memos, as ``load_ner`` builds it for ``ner predict``,
reads transient memos (``StackedEmbedder.extracting``) for one extraction
group at a time and keeps no block beyond it.

This module is the one place that knows each component kind: its
``kind`` name, the run-config keys naming the files it reads (``files``)
and its other run-config keys with their types (``options``), how
``build`` constructs it from a run-config entry, and the model-file meta
entry that ``spec`` writes and ``from_spec`` reads back, with the paths of
referenced files relative to the model file's directory, and
``tensor_shapes`` gives the shapes of the tensors stored for that entry
without building the component.
"""

import copy
import logging
import os
from contextlib import contextmanager
from itertools import accumulate
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .charlm import CharLm, lm_forward, load_lm
from .corpus import (
    CharVocabulary,
    Sentence,
    length_groups,
    sentence_text,
    token_char_ranges,
)
from .errors import ConfigError, ModelFormatError, ParseError
from .nn import Embedding, Lstm, Module
from .serialization import file_sha256, named_shapes

logger = logging.getLogger(__name__)

CHAR_EMBED_DIM = 25
CHAR_HIDDEN = 25
MEMO_BYTES = 1 << 30
# sentences per group times the group's longest text, in characters: the
# groups trainable components and the tagger run, and the larger ones
# frozen components extract over
GROUP_CHARS = 1024
EXTRACT_CHARS = 4096


class SentenceGroup(tuple):
    """Sentences embedded together, in order."""

    def texts(self) -> list[str]:
        """The token texts of every sentence, one per row of a block."""
        return [text for sentence in self for text in sentence.texts()]


def extraction_groups(sentences: Sequence[Sentence]) -> list[tuple[list[int], list[list[int]]]]:
    """The GROUP_CHARS ``length_groups`` of ``sentences``, gathered in order
    into extraction groups whose size times their longest text stays
    within EXTRACT_CHARS characters; returns (extraction group, its
    groups) pairs, all as indices of ``sentences``."""
    sizes = [len(sentence_text(s)) for s in sentences]
    tiers: list[tuple[list[int], list[list[int]]]] = []
    for group in length_groups(sizes, GROUP_CHARS):
        longest = sizes[group[-1]]
        if tiers and (len(tiers[-1][0]) + len(group)) * longest <= EXTRACT_CHARS:
            tiers[-1][0].extend(group)
            tiers[-1][1].append(group)
        else:
            tiers.append((list(group), [group]))
    return tiers


class WordTableEmbedder(Module):
    """Frozen component: a static word → vector map, one row per token.

    Lookup tries the exact word, then its lowercase form; anything else
    gets the zero vector.  Vectors are never trained here.  ``source_path``
    records where the table came from so tagger model files can reference
    it instead of embedding megabytes of static vectors.
    """

    kind = "word_table"
    files = ("path",)
    options = {}

    def __init__(self, dim: int, entries: dict[str, np.ndarray], source_path=None):
        if dim < 1:
            raise ConfigError(f"vector dim must be positive, got {dim}")
        for word, vec in entries.items():
            if vec.shape != (dim,):
                raise ConfigError(
                    f"vector for {word!r} has shape {vec.shape}, expected ({dim},)")
        self.dim = dim
        self.entries = entries
        self.source_path = source_path
        self._zero = np.zeros(dim)

    @classmethod
    def build(cls, entry: dict, vocab, rng) -> "WordTableEmbedder":
        return load_vectors(entry["path"])

    @classmethod
    def from_spec(cls, spec: dict, rng, model_dir) -> "WordTableEmbedder":
        path = _resolve(spec["path"], model_dir)
        _verify_hash(path, spec["sha256"], "word-vector file")
        return load_vectors(path)

    @classmethod
    def tensor_shapes(cls, spec: dict) -> dict:
        """Frozen: the model file stores none of its values."""
        return {}

    def spec(self, model_dir) -> dict:
        if self.source_path is None:
            raise ConfigError(
                "word-table component has no source path; load it via "
                "load_vectors(path) before saving the model")
        return {"kind": self.kind, "path": os.path.relpath(self.source_path, model_dir),
                "sha256": file_sha256(self.source_path)}

    def lookup(self, word: str) -> np.ndarray:
        vec = self.entries.get(word)
        if vec is None:
            vec = self.entries.get(word.lower())
        return self._zero if vec is None else vec

    def forward(self, sentences: SentenceGroup) -> np.ndarray:
        return np.stack([self.lookup(text) for text in sentences.texts()])


def load_vectors(path) -> WordTableEmbedder:
    """Parse a text vector file: optional "count dim" header, then one
    ``word v1 … vdim`` line per entry.  Duplicate words keep the last
    occurrence (warned); dimension mismatches are parse errors.  Returns
    the word-table component, recording ``path`` as its source.
    """
    entries: dict[str, np.ndarray] = {}
    dim: Optional[int] = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            fields = raw.split()
            if not fields:
                continue
            if lineno == 1 and len(fields) == 2:
                try:
                    int(fields[0]), int(fields[1])
                except ValueError:
                    pass
                else:
                    dim = int(fields[1])
                    continue
            word, values = fields[0], fields[1:]
            if dim is None:
                dim = len(values)
                if dim == 0:
                    raise ParseError("entry has no vector values",
                                     path=str(path), line=lineno)
            if len(values) != dim:
                raise ParseError(
                    f"expected {dim} vector values, found {len(values)}",
                    path=str(path), line=lineno)
            try:
                vec = np.array([float(v) for v in values])
            except ValueError as exc:
                raise ParseError(f"bad vector value: {exc}",
                                 path=str(path), line=lineno) from exc
            if word in entries:
                logger.warning("%s:%d: duplicate vector for %r, keeping the later one",
                               path, lineno, word)
            entries[word] = vec
    if dim is None:
        raise ParseError("vector file contains no entries", path=str(path))
    return WordTableEmbedder(dim, entries, source_path=path)


class CharFeatureEncoder(Module):
    """Trainable character features: a small bidirectional recurrence over
    each token's characters; output is the two final states concatenated.

    The distinct token texts of a group run through one length-masked
    recurrence per direction: the forward one reads each text's
    characters, the backward one each text's characters reversed, both
    padded at the end.
    """

    kind = "char_features"
    files = ()
    options = {"embed_dim": int, "hidden": int}

    def __init__(self, vocab: CharVocabulary, rng: np.random.Generator,
                 embed_dim: int = CHAR_EMBED_DIM, hidden: int = CHAR_HIDDEN):
        self._check_dims(embed_dim, hidden)
        self.vocab = vocab
        self.embed_dim = embed_dim
        self.hidden = hidden
        self.dim = 2 * hidden
        self.embedding = Embedding(len(vocab) + 1, embed_dim, rng)
        self.fwd = Lstm(embed_dim, hidden, rng)
        self.bwd = Lstm(embed_dim, hidden, rng)

    @property
    def named_layers(self) -> tuple:
        return (("embedding", self.embedding), ("fwd", self.fwd), ("bwd", self.bwd))

    def cast(self, dtype) -> "CharFeatureEncoder":
        """A copy for inference whose layers are ``Layer.cast`` copies in
        ``dtype``; this encoder is left as it is."""
        twin = copy.copy(self)
        twin.embedding, twin.fwd, twin.bwd = (
            layer.cast(dtype) for layer in (self.embedding, self.fwd, self.bwd))
        return twin

    @staticmethod
    def _check_dims(embed_dim: int, hidden: int) -> None:
        for name, value in (("embed_dim", embed_dim), ("hidden", hidden)):
            if value < 1:
                raise ConfigError(f"char_features {name} must be positive, got {value}")

    @classmethod
    def build(cls, entry: dict, vocab: CharVocabulary,
              rng: np.random.Generator) -> "CharFeatureEncoder":
        """Dims the entry leaves out take the constructor's defaults."""
        return cls(vocab, rng, **{k: entry[k] for k in cls.options if k in entry})

    @classmethod
    def from_spec(cls, spec: dict, rng: np.random.Generator,
                  model_dir) -> "CharFeatureEncoder":
        return cls.build(spec, CharVocabulary.from_codepoints(spec["vocab"]), rng)

    @classmethod
    def tensor_shapes(cls, spec: dict) -> dict[str, tuple]:
        """The shape of each tensor of the encoder ``from_spec`` builds, by
        name, without building it."""
        embed_dim = spec.get("embed_dim", CHAR_EMBED_DIM)
        hidden = spec.get("hidden", CHAR_HIDDEN)
        cls._check_dims(embed_dim, hidden)
        vocab = CharVocabulary.from_codepoints(spec["vocab"])
        return named_shapes((("embedding", Embedding.shapes(len(vocab) + 1, embed_dim)),
                             ("fwd", Lstm.shapes(embed_dim, hidden)),
                             ("bwd", Lstm.shapes(embed_dim, hidden))))

    def spec(self, model_dir) -> dict:
        return {"kind": self.kind, "vocab": self.vocab.codepoints(),
                "embed_dim": self.embed_dim, "hidden": self.hidden}

    def forward(self, sentences: SentenceGroup):
        # a token's features depend on its text alone: each distinct text
        # runs once, and ``rows`` maps every token to its text's row
        texts, rows = np.unique(sentences.texts(), return_inverse=True)
        codes = [self.vocab.encode(text) for text in texts]
        lengths = np.array([len(c) for c in codes])
        # plane 0 holds each text's characters, plane 1 the same reversed;
        # padded steps look up index 0 and pass it exactly zero gradient
        indices = np.zeros((2, len(codes), lengths.max()), dtype=np.int64)
        for j, c in enumerate(codes):
            indices[0, j, :len(c)] = c
            indices[1, j, :len(c)] = c[::-1]
        emb, emb_cache = self.embedding.forward(indices)
        _, (hf, _), f_cache = self.fwd.forward(emb[0], lengths=lengths)
        _, (hb, _), b_cache = self.bwd.forward(emb[1], lengths=lengths)
        return np.concatenate([hf, hb], axis=1)[rows], (rows, emb_cache, f_cache, b_cache)

    def backward(self, cache, grad: np.ndarray) -> None:
        """Backprop ``grad``, one row per token of the forward group."""
        rows, emb_cache, f_cache, b_cache = cache
        N, T = emb_cache.shape[1:]
        H = self.hidden
        per_text = np.zeros((N, 2 * H))
        np.add.at(per_text, rows, grad)
        zeros = np.zeros((N, T, H))
        zero_h = np.zeros((N, H))
        demb_f, _ = self.fwd.backward(f_cache, zeros, (per_text[:, :H], zero_h))
        demb_b, _ = self.bwd.backward(b_cache, zeros, (per_text[:, H:], zero_h))
        self.embedding.backward(emb_cache, np.stack([demb_f, demb_b]))


class ContextualEmbedder(Module):
    """Frozen component extracting hidden states from two directional LMs.

    Each sentence is rendered as its space-joined text.  A token's forward
    part is the forward LM's hidden state at the token's last character;
    its backward part is the backward LM's state (computed over the
    reversed text) at the token's first character.  Each LM reads all
    texts of a group in one ``charlm.lm_forward`` run, in float32, and its
    vocabulary projection is never computed.  It keeps only float32 copies
    of the given LMs' embedding and LSTM weights, so the LMs themselves can
    be freed.
    """

    kind = "contextual"
    files = ("forward", "backward")
    options = {}

    def __init__(self, fwd: CharLm, bwd: CharLm,
                 forward_path=None, backward_path=None):
        if fwd.direction != "forward" or bwd.direction != "backward":
            raise ConfigError(
                f"need one forward and one backward model, got "
                f"{fwd.direction!r} and {bwd.direction!r}")
        self._float32 = tuple((lm.vocab, lm.embedding.cast(np.float32),
                               lm.lstm.cast(np.float32)) for lm in (fwd, bwd))
        self.dim = fwd.lstm.hidden_size + bwd.lstm.hidden_size
        self.forward_path = forward_path
        self.backward_path = backward_path

    @classmethod
    def build(cls, entry: dict, vocab, rng) -> "ContextualEmbedder":
        return cls(load_lm(entry["forward"]), load_lm(entry["backward"]),
                   forward_path=entry["forward"], backward_path=entry["backward"])

    @classmethod
    def from_spec(cls, spec: dict, rng, model_dir) -> "ContextualEmbedder":
        paths = {d: _resolve(spec[f"{d}_path"], model_dir) for d in cls.files}
        for d, path in paths.items():
            _verify_hash(path, spec[f"{d}_sha256"], f"{d} LM file")
        return cls.build(paths, None, rng)

    @classmethod
    def tensor_shapes(cls, spec: dict) -> dict:
        """Frozen: the model file stores none of its values."""
        return {}

    def spec(self, model_dir) -> dict:
        if self.forward_path is None or self.backward_path is None:
            raise ConfigError(
                "contextual component has no LM file paths; attach them at "
                "construction before saving the model")
        return {"kind": self.kind,
                "forward_path": os.path.relpath(self.forward_path, model_dir),
                "forward_sha256": file_sha256(self.forward_path),
                "backward_path": os.path.relpath(self.backward_path, model_dir),
                "backward_sha256": file_sha256(self.backward_path)}

    def forward(self, sentences: SentenceGroup) -> np.ndarray:
        """Per-token contextual vectors, (forward part, backward part)."""
        texts = [sentence_text(s) for s in sentences]
        fwd, bwd = self._float32
        hs_f, _, lengths = lm_forward(*fwd, texts)
        hs_b, _, _ = lm_forward(*bwd, [text[::-1] for text in texts])
        rows, lasts, firsts = [], [], []
        for row, (sentence, L) in enumerate(zip(sentences, lengths)):
            for start, end in token_char_ranges(sentence):
                rows.append(row)
                lasts.append(end)
                firsts.append(L - 1 - start)
        return np.concatenate([hs_f[rows, lasts], hs_b[rows, firsts]], axis=1)


class BlockMemo:
    """Read-only blocks of one frozen component, keyed by the token texts
    of their sentence.  Stores blocks while their bytes stay within
    MEMO_BYTES; past that, ``lookup`` computes and returns without storing.
    """

    def __init__(self):
        self.blocks: dict[tuple[str, ...], np.ndarray] = {}
        self.nbytes = 0

    def lookup(self, component, sentences: Sequence[Sentence]) -> list[np.ndarray]:
        """The block of each sentence; those not stored are extracted
        together, in one call of ``component.forward``."""
        keys = [tuple(s.texts()) for s in sentences]
        found = {key: self.blocks[key] for key in keys if key in self.blocks}
        missing = {key: s for key, s in zip(keys, sentences) if key not in found}
        if missing:
            fresh = component.forward(SentenceGroup(missing.values()))
            fresh.flags.writeable = False
            ends = list(accumulate(map(len, missing)))
            for key, block in zip(missing, np.split(fresh, ends[:-1])):
                found[key] = block
                if self.nbytes + block.nbytes <= MEMO_BYTES:
                    self.blocks[key] = block
                    self.nbytes += block.nbytes
        return [found[key] for key in keys]


class StackedEmbedder(Module):
    """Fixed-order concatenation of embedding components.

    ``memos`` maps the index of a frozen component to the BlockMemo its
    blocks come from; a frozen component without one runs on every call.
    Blocks are built in ``dtype``: float64, or the dtype of a ``cast``
    copy.
    """

    dtype = np.float64

    def __init__(self, components: Sequence,
                 memos: Optional[Mapping[int, BlockMemo]] = None):
        if not components:
            raise ConfigError("need at least one embedding component")
        self.components = tuple(components)
        self.memos = dict(memos or {})
        self.dim = sum(c.dim for c in self.components)
        self.named_layers = tuple(
            (f"component{i}.{name}", layer)
            for i, c in enumerate(self.components) for name, layer in c.named_layers)
        ends = tuple(accumulate(c.dim for c in self.components))
        self._columns = tuple(slice(end - c.dim, end)
                              for c, end in zip(self.components, ends))
        self._trainable = tuple((c, columns) for c, columns in zip(self.components, self._columns)
                                if c.named_layers)

    def cast(self, dtype) -> "StackedEmbedder":
        """A copy for inference that builds its blocks in ``dtype``, with
        ``cast`` copies of the trainable components; it shares the frozen
        components and their memos, and this stack is left as it is."""
        twin = StackedEmbedder([c.cast(dtype) if c.named_layers else c
                                for c in self.components], self.memos)
        twin.dtype = dtype
        return twin

    @contextmanager
    def extracting(self, sentences: Sequence[Sentence]):
        """Within the ``with`` block, each frozen component without a memo
        reads from a transient one, filled with the blocks of
        ``sentences`` in one extraction; ``memos`` is restored on leaving
        it, also on error."""
        own = self.memos
        transient = {i: BlockMemo() for i, c in enumerate(self.components)
                     if not c.named_layers and i not in own}
        for i, memo in transient.items():
            memo.lookup(self.components[i], sentences)
        self.memos = {**own, **transient}
        try:
            yield
        finally:
            self.memos = own

    def forward(self, sentences: Sequence[Sentence]):
        """The (sentences × T × dim) block of ``sentences``, T their most
        tokens, with row b's ``lengths[b]`` tokens first and zeros after;
        returns it, ``lengths`` and the cache for ``backward``."""
        group = SentenceGroup(sentences)
        lengths = np.array([len(s) for s in group])
        real = np.arange(lengths.max()) < lengths[:, None]
        vecs = np.zeros(real.shape + (self.dim,), self.dtype)
        # frozen blocks first, so no extraction runs while caches are held
        for i, (c, columns) in enumerate(zip(self.components, self._columns)):
            if i in self.memos:
                vecs[real, columns] = np.concatenate(self.memos[i].lookup(c, group))
            elif not c.named_layers:
                vecs[real, columns] = c.forward(group)
        caches = []
        for c, columns in self._trainable:
            block, cache = c.forward(group)
            vecs[real, columns] = block
            caches.append(cache)
        return vecs, lengths, (real, caches)

    def backward(self, cache, grad: np.ndarray) -> None:
        """Route the real rows of the padded gradient ``grad`` to the
        trainable components."""
        real, caches = cache
        grad = grad[real]
        for (c, columns), c_cache in zip(self._trainable, caches, strict=True):
            c.backward(c_cache, grad[:, columns])


COMPONENT_KINDS = {cls.kind: cls for cls in
                   (WordTableEmbedder, CharFeatureEncoder, ContextualEmbedder)}


def component_class(kind):
    """The component class that run configs and model files call ``kind``."""
    if isinstance(kind, str) and kind in COMPONENT_KINDS:
        return COMPONENT_KINDS[kind]
    raise ConfigError(f"unknown component kind {kind!r}; expected one of "
                      f"{', '.join(sorted(COMPONENT_KINDS))}")


def _resolve(recorded, model_dir) -> str:
    """A path a model file records, relative to its directory, as a path
    from the current directory."""
    return os.path.normpath(os.path.join(model_dir, recorded))


def _verify_hash(path, recorded: str, what: str) -> None:
    actual = file_sha256(path)
    if actual != recorded:
        raise ModelFormatError(
            f"{what} at {path} has sha256 {actual}, model records {recorded}")


def embedder_factory(entries: Sequence[dict], vocab: CharVocabulary,
                     sentences: Iterable[Sentence] = ()):
    """A function ``rng → StackedEmbedder`` over run-config ``entries``.

    The components that read files (word vectors, LMs) are frozen: they
    hold no parameters, so they are built here, once, each with one
    BlockMemo, and every stack shares both.  The memos are filled here with
    the blocks of ``sentences``, an EXTRACT_CHARS group at a time, in order
    of text length.  Each call initializes the trainable components
    afresh from ``rng``, in stack order.
    """
    classes = [component_class(entry["kind"]) for entry in entries]
    frozen = {i: cls.build(entry, vocab, None)
              for i, (cls, entry) in enumerate(zip(classes, entries)) if cls.files}
    memos = {i: BlockMemo() for i in frozen}
    sentences = list(sentences)
    for group in length_groups([len(sentence_text(s)) for s in sentences], EXTRACT_CHARS):
        for i, memo in memos.items():
            memo.lookup(frozen[i], [sentences[j] for j in group])

    def build(rng: np.random.Generator) -> StackedEmbedder:
        return StackedEmbedder([
            frozen[i] if i in frozen else cls.build(entry, vocab, rng)
            for i, (cls, entry) in enumerate(zip(classes, entries))], memos)
    return build
