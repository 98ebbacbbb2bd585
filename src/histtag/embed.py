"""Per-token embeddings: static word vectors, trainable character
features, and contextual extractions from pre-trained character LMs.

Every component has ``dim``, ``forward`` and ``named_layers`` naming its
trainable layers.  ``forward`` takes a SentenceGroup, a tuple of
sentences whose ``texts()`` lists all their token texts in order, and
returns one row per token in that order.  A frozen component (word table,
contextual) has no layers: its ``forward(sentences)`` returns the (tokens
× dim) block alone, a function of each sentence's token texts.  A
trainable component (char features) has ``forward(sentences,
keep_cache)``, which computes in its parameters' dtype and returns the
block plus a cache; ``backward(cache, grad)`` needs a forward that kept
its recurrences' caches (``keep_cache``).  A StackedEmbedder concatenates
component blocks in a fixed order into one padded (sentences × tokens ×
dim) block, routes each trainable component its gradient columns, and
prefixes component i's layer names with ``component{i}.``.

Sentences run in groups: ``corpus.length_groups``, given the lengths of
their texts, sorts them and cuts groups whose size times their longest
text stays within a character budget, so each LM and each recurrence runs
once per group on rows padded at their end.  The memo fill and
``tagger.predict`` cut groups of EXTRACT_CHARS (4,096) characters; in
``predict`` every component of the stack and the tagger run each group
once.  Only a forward asked to keep its cache keeps one (see ``nn``); in
inference a recurrence projects a block of steps at a time and keeps two
cells, and ``ContextualEmbedder`` reads one LM's token rows before the
other LM runs.  One group of 13 texts of 315 characters then peaks at
about 2.8 MB at H = 64 and 109 MB at paper scale (H = 2048), mostly the
one LM's hidden states and its gate-scaled ``Wh``.  Training's
mini-batches keep their caches for backward.  A row's values do not
depend on the rows beside it beyond the rounding of the batched products.

Everything computes in float32, the precision of every parameter and of
the files that store them: contextual extraction, the char features and
the block ``StackedEmbedder.forward`` builds, in training and in
``tagger.predict`` alike.  ``ContextualEmbedder`` extracts with its LMs'
embedding and LSTM parameters as they are, without gradient slots.  Its
blocks are within 1e-6 of float64 copies of the LMs' states (at most
4.2e-7 measured at H = 64, on values up to 0.92).

Frozen blocks are memoized.  ``embedder_factory`` gives each frozen
component one BlockMemo, shared by every stack it builds, so one ``ner
train`` command computes a sentence's block once for all its epochs, dev
evaluations and runs.  A memo is keyed by ``tuple(sentence.texts())`` and
holds read-only float32 blocks, word-table and contextual alike: 4 bytes
per value, so 16 KB per distinct token of a contextual block at paper
scale (H = 2048 per LM direction).  Each memo stores blocks up to
MEMO_BYTES (1 GiB); past that a miss is computed and not stored.  A
stack built without memos, as ``load_ner`` builds it for ``ner predict``,
runs its frozen components on every group and keeps no block beyond it.

This module is the one place that knows each component kind: its
``kind`` name, the run-config keys naming the files it reads (``files``)
and its other run-config keys with their types (``options``), how
``build`` constructs it from a run-config entry, and the model-file meta
entry that ``spec`` writes and ``from_spec`` reads back, with the paths of
referenced files relative to the model file's directory.  ``from_spec``
builds a trainable component with no rng, so it allocates nothing until
``tagger.load_ner`` fills it from the model file.
"""

import logging
import os
from itertools import accumulate
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .charlm import CharLm, lm_forward, load_lm
from .corpus import (
    CharVocabulary,
    Sentence,
    length_groups,
    read_plain,
    sentence_text,
    token_char_ranges,
)
from .errors import ConfigError, ModelFormatError, ParseError, check_type
from .nn import Embedding, Lstm, Module
from .serialization import file_sha256

logger = logging.getLogger(__name__)

CHAR_EMBED_DIM = 25
CHAR_HIDDEN = 25
MEMO_BYTES = 1 << 30
# sentences per group times the group's longest text, in characters: the
# groups the memo fill extracts and ``tagger.predict`` tags
EXTRACT_CHARS = 4096


class SentenceGroup(tuple):
    """Sentences embedded together, in order."""

    def texts(self) -> list[str]:
        """The token texts of every sentence, one per row of a block."""
        return [text for sentence in self for text in sentence.texts()]


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
        self._zero = np.zeros(dim, np.float32)

    @classmethod
    def build(cls, entry: dict, vocab, rng) -> "WordTableEmbedder":
        return load_vectors(entry["path"])

    @classmethod
    def from_spec(cls, spec: dict, model_dir) -> "WordTableEmbedder":
        path = _resolve(spec["path"], model_dir)
        _verify_hash(path, spec["sha256"], "word-vector file")
        return load_vectors(path)

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
    """Parse a text vector file, read by ``read_plain``: optional "count
    dim" header, then one ``word v1 … vdim`` line per entry.  Duplicate
    words keep the last occurrence (warned); dimension mismatches are parse
    errors.  Each value is read as a Python float and stored as float32,
    the stack's dtype.  Returns the word-table component, recording
    ``path`` as its source.
    """
    entries: dict[str, np.ndarray] = {}
    dim: Optional[int] = None
    for lineno, raw in enumerate(read_plain(path), start=1):
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
            vec = np.array([float(v) for v in values], np.float32)
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
    each token's characters; output is the two states after its last
    character concatenated.

    The distinct token texts of a group run through one recurrence per
    direction, padded at the end: the forward one reads each text's
    characters, the backward one the same reversed.  Both read, and
    backward puts the gradient at, each text's step ``length - 1``.
    """

    kind = "char_features"
    files = ()
    options = {"embed_dim": int, "hidden": int}

    def __init__(self, vocab: CharVocabulary, rng: Optional[np.random.Generator],
                 embed_dim: int = CHAR_EMBED_DIM, hidden: int = CHAR_HIDDEN):
        for name, value in (("embed_dim", embed_dim), ("hidden", hidden)):
            if check_type(value, int, f"char_features {name}") < 1:
                raise ConfigError(f"char_features {name} must be positive, got {value}")
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

    @classmethod
    def build(cls, entry: dict, vocab: CharVocabulary,
              rng: Optional[np.random.Generator]) -> "CharFeatureEncoder":
        """Dims the entry leaves out take the constructor's defaults."""
        return cls(vocab, rng, **{k: entry[k] for k in cls.options if k in entry})

    @classmethod
    def from_spec(cls, spec: dict, model_dir) -> "CharFeatureEncoder":
        """An encoder built with no rng, for ``load_ner`` to fill."""
        return cls.build(spec, CharVocabulary.from_codepoints(spec["vocab"]), None)

    def spec(self, model_dir) -> dict:
        return {"kind": self.kind, "vocab": self.vocab.codepoints(),
                "embed_dim": self.embed_dim, "hidden": self.hidden}

    def forward(self, sentences: SentenceGroup, keep_cache=False):
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
        # each text's step at its last character, before any padding
        last = (np.arange(len(codes)), lengths - 1)
        hs_f, _, f_cache = self.fwd.forward(emb[0], keep_cache=keep_cache)
        hs_b, _, b_cache = self.bwd.forward(emb[1], keep_cache=keep_cache)
        return (np.concatenate([hs_f[last], hs_b[last]], axis=1)[rows],
                (rows, last, emb_cache, f_cache, b_cache))

    def backward(self, cache, grad: np.ndarray) -> None:
        """Backprop ``grad``, one row per token of the forward group."""
        rows, last, emb_cache, f_cache, b_cache = cache
        N, T = emb_cache.shape[1:]
        H = self.hidden
        per_text = np.zeros((N, 2 * H), grad.dtype)
        np.add.at(per_text, rows, grad)
        grad_hs = np.zeros((2, N, T, H), grad.dtype)
        grad_hs[0][last], grad_hs[1][last] = per_text[:, :H], per_text[:, H:]
        demb_f, _ = self.fwd.backward(f_cache, grad_hs[0])
        demb_b, _ = self.bwd.backward(b_cache, grad_hs[1])
        self.embedding.backward(emb_cache, np.stack([demb_f, demb_b]))


class ContextualEmbedder(Module):
    """Frozen component extracting hidden states from two directional LMs.

    Each sentence is rendered as its space-joined text.  A token's forward
    part is the forward LM's hidden state at the token's last character;
    its backward part is the backward LM's state (computed over the
    reversed text) at the token's first character.  Each LM reads all
    texts of a group in one ``charlm.lm_forward`` run, in the dtype of its
    weights, and its vocabulary projection is never computed; the token
    rows of the forward LM's states are read before the backward LM runs.
    It keeps only ``Layer.frozen`` copies of the given LMs' embedding and
    LSTM layers, which share their parameters, so the rest of each LM (its
    projection, and the gradient slots of an LM trained in memory) can be
    freed.
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
        self._lms = tuple((lm.vocab, lm.embedding.frozen(), lm.lstm.frozen())
                          for lm in (fwd, bwd))
        self.dim = fwd.lstm.hidden_size + bwd.lstm.hidden_size
        self.forward_path = forward_path
        self.backward_path = backward_path

    @classmethod
    def build(cls, entry: dict, vocab, rng) -> "ContextualEmbedder":
        return cls(load_lm(entry["forward"]), load_lm(entry["backward"]),
                   forward_path=entry["forward"], backward_path=entry["backward"])

    @classmethod
    def from_spec(cls, spec: dict, model_dir) -> "ContextualEmbedder":
        paths = {d: _resolve(spec[f"{d}_path"], model_dir) for d in cls.files}
        for d, path in paths.items():
            _verify_hash(path, spec[f"{d}_sha256"], f"{d} LM file")
        return cls.build(paths, None, None)

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
        rows, lasts, firsts = [], [], []
        for row, (sentence, text) in enumerate(zip(sentences, texts)):
            for start, end in token_char_ranges(sentence):
                rows.append(row)
                lasts.append(end)
                firsts.append(len(text) - 1 - start)
        fwd, bwd = self._lms
        return np.concatenate([_token_states(fwd, texts, rows, lasts),
                               _token_states(bwd, [text[::-1] for text in texts], rows, firsts)],
                              axis=1)


def _token_states(lm, texts: list[str], rows: list[int], positions: list[int]) -> np.ndarray:
    """The hidden states of ``lm`` (vocabulary, embedding, LSTM) over
    ``texts`` at (row, position) pairs.  The (texts × longest × H) states
    die on return, so only one LM's are alive at a time."""
    hs, _, _ = lm_forward(*lm, texts)
    return hs[rows, positions]


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
    """

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

    def forward(self, sentences: Sequence[Sentence], dtype=np.float32, keep_cache=False):
        """The (sentences × T × dim) block of ``sentences`` in ``dtype``, T
        their most tokens, with row b's ``lengths[b]`` tokens first and
        zeros after; returns it, ``lengths`` and the cache for
        ``backward``, which needs a forward that kept its caches
        (``keep_cache``)."""
        group = SentenceGroup(sentences)
        lengths = np.array([len(s) for s in group])
        real = np.arange(lengths.max()) < lengths[:, None]
        vecs = np.zeros(real.shape + (self.dim,), dtype)
        # frozen blocks first, so no extraction runs while caches are held
        for i, (c, columns) in enumerate(zip(self.components, self._columns)):
            if i in self.memos:
                vecs[real, columns] = np.concatenate(self.memos[i].lookup(c, group))
            elif not c.named_layers:
                vecs[real, columns] = c.forward(group)
        caches = []
        for c, columns in self._trainable:
            block, cache = c.forward(group, keep_cache)
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
