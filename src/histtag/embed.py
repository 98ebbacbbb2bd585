"""Per-token embeddings: static word vectors, trainable character
features, and contextual extractions from pre-trained character LMs.

Every component has ``dim``, ``forward(sentence)`` and ``named_layers``
naming its trainable layers.  A frozen component (word table, contextual)
has none: its ``forward`` returns the (tokens × dim) block alone, a
function of the sentence's token texts.  A trainable component (char
features) returns the block plus a cache for its ``backward(cache,
grad)``.  A StackedEmbedder concatenates component blocks in a fixed
order, routes each trainable component its gradient columns, and prefixes
component i's layer names with ``component{i}.``.

Frozen blocks are memoized for training.  ``embedder_factory`` gives each
frozen component one BlockMemo, shared by every stack it builds, so one
``ner train`` command computes a sentence's block once for all its epochs,
dev evaluations and runs.  A memo is keyed by ``tuple(sentence.texts())``
and holds read-only float64 blocks: 8 · (sum of frozen dims) bytes per
distinct token, which is 32 KB per token at paper scale (H = 2048 per LM
direction).  Each memo stores blocks up to MEMO_BYTES (1 GiB); past that
a miss is computed and not stored.  A stack built without memos, as ``load_ner``
builds it for ``ner predict``, keeps no block beyond the sentence in hand.

This module is the one place that knows each component kind: its
``kind`` name, the run-config keys naming the files it reads (``files``)
and its other run-config keys with their types (``options``), how
``build`` constructs it from a run-config entry, and the model-file meta
entry that ``spec`` writes and ``from_spec`` reads back, with the paths of
referenced files relative to the model file's directory.
"""

import logging
import os
from itertools import accumulate
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .charlm import CharLm, lm_forward, load_lm
from .corpus import CharVocabulary, Sentence, sentence_text, token_char_ranges
from .errors import ConfigError, ModelFormatError, ParseError
from .nn import Embedding, Lstm, Module
from .serialization import file_sha256

logger = logging.getLogger(__name__)

CHAR_EMBED_DIM = 25
CHAR_HIDDEN = 25
MEMO_BYTES = 1 << 30


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

    def forward(self, sentence: Sentence) -> np.ndarray:
        return np.stack([self.lookup(tok.text) for tok in sentence])


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

    All tokens of a sentence run through one length-masked recurrence per
    direction: the forward one reads each token's characters, the backward
    one each token's characters reversed, both padded at the end.
    """

    kind = "char_features"
    files = ()
    options = {"embed_dim": int, "hidden": int}

    def __init__(self, vocab: CharVocabulary, rng: np.random.Generator,
                 embed_dim: int = CHAR_EMBED_DIM, hidden: int = CHAR_HIDDEN):
        for name, value in (("embed_dim", embed_dim), ("hidden", hidden)):
            if value < 1:
                raise ConfigError(f"char_features {name} must be positive, got {value}")
        self.vocab = vocab
        self.embed_dim = embed_dim
        self.hidden = hidden
        self.dim = 2 * hidden
        self.embedding = Embedding(len(vocab) + 1, embed_dim, rng)
        self.fwd = Lstm(embed_dim, hidden, rng)
        self.bwd = Lstm(embed_dim, hidden, rng)
        self.named_layers = (("embedding", self.embedding), ("fwd", self.fwd),
                             ("bwd", self.bwd))

    @classmethod
    def build(cls, entry: dict, vocab: CharVocabulary,
              rng: np.random.Generator) -> "CharFeatureEncoder":
        """Dims the entry leaves out take the constructor's defaults."""
        return cls(vocab, rng, **{k: entry[k] for k in cls.options if k in entry})

    @classmethod
    def from_spec(cls, spec: dict, rng: np.random.Generator,
                  model_dir) -> "CharFeatureEncoder":
        return cls.build(spec, CharVocabulary.from_codepoints(spec["vocab"]), rng)

    def spec(self, model_dir) -> dict:
        return {"kind": self.kind, "vocab": self.vocab.codepoints(),
                "embed_dim": self.embed_dim, "hidden": self.hidden}

    def forward(self, sentence: Sentence):
        codes = [self.vocab.encode(token.text) for token in sentence]
        lengths = np.array([len(c) for c in codes])
        # plane 0 holds each token's characters, plane 1 the same reversed;
        # padded steps look up index 0 and pass it exactly zero gradient
        indices = np.zeros((2, len(codes), lengths.max()), dtype=np.int64)
        for j, c in enumerate(codes):
            indices[0, j, :len(c)] = c
            indices[1, j, :len(c)] = c[::-1]
        emb, emb_cache = self.embedding.forward(indices)
        _, (hf, _), f_cache = self.fwd.forward(emb[0], lengths=lengths)
        _, (hb, _), b_cache = self.bwd.forward(emb[1], lengths=lengths)
        return np.concatenate([hf, hb], axis=1), (emb_cache, f_cache, b_cache)

    def backward(self, cache, grad: np.ndarray) -> None:
        emb_cache, f_cache, b_cache = cache
        N, T = emb_cache.shape[1:]
        H = self.hidden
        zeros = np.zeros((N, T, H))
        zero_h = np.zeros((N, H))
        demb_f, _ = self.fwd.backward(f_cache, zeros, (grad[:, :H], zero_h))
        demb_b, _ = self.bwd.backward(b_cache, zeros, (grad[:, H:], zero_h))
        self.embedding.backward(emb_cache, np.stack([demb_f, demb_b]))


class ContextualEmbedder(Module):
    """Frozen component extracting hidden states from two directional LMs.

    The sentence is rendered as its space-joined text.  A token's forward
    part is the forward LM's hidden state at the token's last character;
    its backward part is the backward LM's state (computed over the
    reversed text) at the token's first character.
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
        self.fwd = fwd
        self.bwd = bwd
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

    def forward(self, sentence: Sentence) -> np.ndarray:
        """Per-token contextual vectors, (forward part, backward part)."""
        text = sentence_text(sentence)
        L = len(text)
        _, _, hs_f = lm_forward(self.fwd, self.fwd.vocab.encode(text))
        _, _, hs_b = lm_forward(self.bwd, self.bwd.vocab.encode(text[::-1]))
        return np.stack([np.concatenate([hs_f[end], hs_b[L - 1 - start]])
                         for start, end in token_char_ranges(sentence)])


class BlockMemo:
    """Read-only blocks of one frozen component, keyed by the token texts
    of their sentence.  Stores blocks while their bytes stay within
    MEMO_BYTES; past that, ``block`` computes and returns without storing.
    """

    def __init__(self):
        self.blocks: dict[tuple[str, ...], np.ndarray] = {}
        self.nbytes = 0

    def block(self, component, sentence: Sentence) -> np.ndarray:
        key = tuple(sentence.texts())
        block = self.blocks.get(key)
        if block is None:
            block = component.forward(sentence)
            block.flags.writeable = False
            if self.nbytes + block.nbytes <= MEMO_BYTES:
                self.blocks[key] = block
                self.nbytes += block.nbytes
        return block


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
        offsets = accumulate((c.dim for c in self.components), initial=0)
        self._trainable = tuple((c, offset) for c, offset in zip(self.components, offsets)
                                if c.named_layers)

    def forward(self, sentence: Sentence):
        """The sentence's (tokens × dim) block and the caches of its
        trainable components, in stack order."""
        blocks, caches = [], []
        for i, c in enumerate(self.components):
            if c.named_layers:
                block, cache = c.forward(sentence)
                caches.append(cache)
            elif i in self.memos:
                block = self.memos[i].block(c, sentence)
            else:
                block = c.forward(sentence)
            blocks.append(block)
        return np.concatenate(blocks, axis=1), caches

    def backward(self, caches, grad: np.ndarray) -> None:
        for (c, offset), cache in zip(self._trainable, caches, strict=True):
            c.backward(cache, grad[:, offset:offset + c.dim])


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
    the blocks of ``sentences``, in their order.  Each call initializes the
    trainable components afresh from ``rng``, in stack order.
    """
    classes = [component_class(entry["kind"]) for entry in entries]
    frozen = {i: cls.build(entry, vocab, None)
              for i, (cls, entry) in enumerate(zip(classes, entries)) if cls.files}
    memos = {i: BlockMemo() for i in frozen}
    for sentence in sentences:
        for i, memo in memos.items():
            memo.block(frozen[i], sentence)

    def build(rng: np.random.Generator) -> StackedEmbedder:
        return StackedEmbedder([
            frozen[i] if i in frozen else cls.build(entry, vocab, rng)
            for i, (cls, entry) in enumerate(zip(classes, entries))], memos)
    return build
