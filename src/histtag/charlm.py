"""Directional character-level LSTM language models.

A model reads a character stream and predicts the next character at every
position; backward models are forward models trained on the reversed
stream.  Training uses truncated backpropagation through time: the stream
is cut into fixed-length windows and the recurrent state is carried across
window boundaries within an epoch.

Perplexity here is the natural exponent of the mean natural-log negative
log-likelihood.  Scoring always starts from a zero state, and characters
outside the model vocabulary map to a reserved UNK index.

``lm_forward`` is the one eval-mode forward pass, for contextual
extraction and scoring alike.  Scoring runs ``corpus.length_groups`` of
EVAL_CHUNK (4,096) characters, each in slices of EVAL_CHUNK positions that
carry the state, so a longer text runs alone, unpadded, a slice at a
time, and only its slices carry a state.  A slice holds at most
EVAL_CHUNK characters, which bounds the recurrence's working set and the
logits; ``corpus_perplexity`` reads EVAL_CHUNK lines at a time.
"""

import logging
import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Optional, Sequence, Union

import numpy as np

from .corpus import (
    CharVocabulary,
    PlainCorpus,
    TaggedCorpus,
    extract_char_vocab,
    length_groups,
    sentence_text,
)
from .errors import (
    ConfigError,
    EmptyCorpusError,
    ModelFormatError,
    check_field_types,
)
from .nn import (AnnealOnPlateau, Dropout, Embedding, Linear, Lstm, Module, clipped_sgd_step,
                 cross_entropy)
from .serialization import assign_tensors, layer_tensors, load_tensors, save_tensors

logger = logging.getLogger(__name__)

DIRECTIONS = ("forward", "backward")
GRAD_CLIP = 5.0
HOLDOUT_FRACTION = 500  # dev and test each take 1/500 of the stream
EVAL_CHUNK = 4096


@dataclass(frozen=True)
class CharLmConfig:
    direction: str
    char_embed_dim: int = 64
    hidden_size: int = 128
    dropout: float = 0.1
    sequence_length: int = 250
    mini_batch: int = 1
    epochs: int = 1
    learning_rate: float = 20.0

    def __post_init__(self):
        check_field_types(self)
        if self.direction not in DIRECTIONS:
            raise ConfigError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")
        for name in ("char_embed_dim", "hidden_size", "sequence_length",
                     "mini_batch", "epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if not math.isfinite(self.learning_rate):
            raise ConfigError(f"learning_rate must be finite, got {self.learning_rate}")
        # zero is allowed: it freezes parameters, useful for measuring baselines
        if self.learning_rate < 0:
            raise ConfigError(f"learning_rate must not be negative, got {self.learning_rate}")


class CharLm(Module):
    """Character LM: embedding → LSTM → vocabulary projection.

    The output layer covers every vocabulary character plus one reserved
    UNK index at position ``len(vocab)``.  Built with no rng it allocates
    nothing, for ``load_lm`` to fill.
    """

    def __init__(self, vocab: CharVocabulary, direction: str, char_embed_dim: int,
                 hidden_size: int, rng: Optional[np.random.Generator]):
        self.vocab = vocab
        self.direction = direction
        n_out = len(vocab) + 1
        self.embedding = Embedding(n_out, char_embed_dim, rng)
        self.lstm = Lstm(char_embed_dim, hidden_size, rng)
        self.projection = Linear(hidden_size, n_out, rng)
        self.named_layers = (("embedding", self.embedding), ("lstm", self.lstm),
                             ("projection", self.projection))


def lm_forward(vocab: CharVocabulary, embedding: Embedding, lstm: Lstm,
               texts: Sequence[str], state=None):
    """Run an LM's ``embedding`` and ``lstm``, in the dtype of their
    weights, over ``texts`` as one batch padded at the end, from ``state``
    ((h, c), each texts × H; zeros when None).  Returns the (texts ×
    longest × H) hidden states, row b's first ``lengths[b]`` those of text
    b, the state after the last step and the lengths."""
    lengths = np.array([len(text) for text in texts])
    indices = np.zeros((len(texts), lengths.max()), dtype=np.int64)
    for row, text in zip(indices, texts):
        row[:len(text)] = vocab.encode(text)
    emb, _ = embedding.forward(indices)
    hs, state, _ = lstm.forward(emb, state)
    return hs, state, lengths


@dataclass
class LmEpochRecord:
    epoch: int
    train_loss: float
    dev_loss: float
    test_perplexity: float
    learning_rate: float


@dataclass
class LmTrainLog:
    initial_test_perplexity: float
    epochs: list[LmEpochRecord] = field(default_factory=list)


def _mean_nll(model: CharLm, texts: Sequence[str]) -> np.ndarray:
    """Each text's mean next-character NLL from a zero state, grouped and
    sliced as the module docstring says; every text needs 2 characters."""
    inputs = [text[:-1] for text in texts]
    totals = np.zeros(len(texts))
    for group in length_groups([len(text) for text in inputs], EVAL_CHUNK):
        state = None
        for start in range(0, len(inputs[group[-1]]), EVAL_CHUNK):
            end = start + EVAL_CHUNK
            hs, state, steps = lm_forward(model.vocab, model.embedding, model.lstm,
                                          [inputs[i][start:end] for i in group], state)
            real = np.arange(hs.shape[1]) < steps[:, None]
            logits, _ = model.projection.forward(hs[real])
            targets = [model.vocab.encode(texts[i][start + 1:end + 1]) for i in group]
            per_step = np.zeros(real.shape)
            per_step[real], _ = cross_entropy(logits, np.concatenate(targets))
            totals[group] += per_step.sum(axis=1)
    return totals / [len(text) for text in inputs]


def _perplexities(model: CharLm, texts: Sequence[str]) -> np.ndarray:
    """Each text's perplexity; backward models score the reversed text."""
    if model.direction == "backward":
        texts = [text[::-1] for text in texts]
    return np.exp(_mean_nll(model, texts))


def _train_window(model: CharLm, x: np.ndarray, y: np.ndarray, state,
                  dropout: Dropout, rng: np.random.Generator, scale: float):
    """One TBPTT window over all strands at once: forward, loss, backward.

    x, y: (B, T) inputs and next-character targets.  Returns (nll sum,
    state).
    """
    B, T = x.shape
    H = model.lstm.hidden_size
    emb, emb_cache = model.embedding.forward(x)
    hs, new_state, lstm_cache = model.lstm.forward(emb, state, keep_cache=True)
    # one (B, T, H) draw consumes the generator exactly like B successive
    # (T, H) draws, one per strand
    dropped, drop_cache = dropout.forward(hs, rng)
    logits, lin_cache = model.projection.forward(dropped.reshape(B * T, H))
    nll, dlogits = cross_entropy(logits, y.reshape(B * T))
    dlogits *= scale
    dh = model.projection.backward(lin_cache, dlogits).reshape(B, T, H)
    dh = dropout.backward(drop_cache, dh)
    dx, _ = model.lstm.backward(lstm_cache, dh)
    model.embedding.backward(emb_cache, dx)
    return float(nll.sum()), new_state


def train_lm(corpus: PlainCorpus, config: CharLmConfig, seed: int,
             vocab: Optional[CharVocabulary] = None) -> tuple[CharLm, LmTrainLog]:
    """Train a directional character LM on a plain-text corpus.

    The corpus lines are joined into one space-separated stream (reversed
    first for backward models).  The final 2/500 of the stream are held out,
    the earlier slice as the dev set and the trailing slice as the test set.
    Optimization is plain SGD over truncated-backprop windows with the
    gradient norm clipped at 5.0; when mini_batch exceeds 1, the stream is
    split into that many contiguous strands walked in parallel with averaged
    gradients.  The rate follows ``nn.AnnealOnPlateau`` on the dev loss at
    patience 1.  Training computes in float32, the dtype of the model's
    parameters and of the file ``save_lm`` writes.
    """
    stream = " ".join(corpus)
    if config.direction == "backward":
        stream = stream[::-1]
    n = len(stream)
    holdout = max(2, n // HOLDOUT_FRACTION)
    strand_len = (n - 2 * holdout) // config.mini_batch
    if strand_len < config.sequence_length + 1:
        raise EmptyCorpusError(
            f"training stream provides {max(0, strand_len)} characters per "
            f"strand after holdouts; one window needs {config.sequence_length + 1}")
    train_text = stream[:n - 2 * holdout]
    dev_text = stream[n - 2 * holdout:n - holdout]
    test_text = stream[n - holdout:]
    if vocab is None:
        vocab = extract_char_vocab(PlainCorpus.from_lines([train_text]))

    rng = np.random.default_rng(seed)
    model = CharLm(vocab, config.direction, config.char_embed_dim,
                   config.hidden_size, rng)
    B = config.mini_batch
    strands = vocab.encode(train_text[:B * strand_len]).reshape(B, strand_len)

    log = LmTrainLog(initial_test_perplexity=float(np.exp(_mean_nll(model, [test_text])[0])))
    dropout = Dropout(config.dropout)
    schedule = AnnealOnPlateau(config.learning_rate, patience=1, best=-math.inf)
    L = config.sequence_length
    for epoch in range(1, config.epochs + 1):
        lr = schedule.lr
        state = None
        loss_sum, position_count = 0.0, 0
        for step, pos in enumerate(range(0, strand_len - 1, L), start=1):
            end = min(pos + L, strand_len - 1)
            window = end - pos
            model.zero_grads()
            nll_sum, state = _train_window(
                model, strands[:, pos:end], strands[:, pos + 1:end + 1],
                state, dropout, rng, 1.0 / (window * B))
            loss_sum += nll_sum
            position_count += window * B
            clipped_sgd_step(model.layers, lr, GRAD_CLIP, "lm training", epoch, step)
        dev_loss = float(_mean_nll(model, [dev_text])[0])
        test_ppl = float(np.exp(_mean_nll(model, [test_text])[0]))
        train_loss = loss_sum / position_count
        log.epochs.append(LmEpochRecord(epoch, train_loss, dev_loss, test_ppl, lr))
        _, annealed = schedule.step(-dev_loss)
        logger.info("%s lm epoch %d: train %.4f dev %.4f test ppl %.4f lr %g%s", config.direction,
                    epoch, train_loss, dev_loss, test_ppl, lr, " (annealed)" if annealed else "")
    return model, log


def sentence_perplexity(model: CharLm, text: str) -> float:
    """Perplexity of one sentence string, from a zero initial state.

    Backward models score the reversed text.  Characters outside the model
    vocabulary map to UNK.
    """
    if len(text) < 2:
        raise ValueError(f"need at least 2 characters to score, got {len(text)}")
    return float(_perplexities(model, [text])[0])


def corpus_perplexity(model: CharLm,
                      corpus: Union[TaggedCorpus, PlainCorpus]) -> float:
    """Arithmetic mean of sentence perplexities over a corpus.

    Sentences too short to score (fewer than 2 characters) are skipped;
    the skip count goes to the module logger.
    """
    if isinstance(corpus, TaggedCorpus):
        texts = (sentence_text(s) for s in corpus)
    else:
        texts = iter(corpus)
    values = []
    skipped = 0
    while window := list(islice(texts, EVAL_CHUNK)):
        scored = [text for text in window if len(text) >= 2]
        skipped += len(window) - len(scored)
        values.extend(_perplexities(model, scored))
    if skipped:
        logger.info("corpus perplexity: skipped %d sentence(s) shorter than 2 chars",
                    skipped)
    if not values:
        raise EmptyCorpusError("no sentence long enough to score")
    return float(np.mean(values))


def save_lm(model: CharLm, path) -> None:
    meta = {
        "kind": "charlm",
        "direction": model.direction,
        "char_embed_dim": model.embedding.dim,
        "hidden_size": model.lstm.hidden_size,
        "vocab": model.vocab.codepoints(),
    }
    save_tensors(path, meta, layer_tensors(model.named_layers))


def load_lm(path) -> CharLm:
    """Rebuild a saved LM: an LM of the file's dims, built with no rng, filled
    from the file.  Older files also record the training dropout; that key
    is ignored."""
    meta, tensors = load_tensors(path)
    if meta.get("kind") != "charlm":
        raise ModelFormatError(f"{path}: not a character LM file")
    try:
        vocab = CharVocabulary.from_codepoints(meta["vocab"])
        direction = meta["direction"]
        if direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
        dims = {name: int(meta[name]) for name in ("char_embed_dim", "hidden_size")}
        for name, value in dims.items():
            if value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"{path}: invalid model metadata: {exc}") from exc
    model = CharLm(vocab, direction, rng=None, **dims)
    assign_tensors(path, model.named_layers, tensors)
    return model
