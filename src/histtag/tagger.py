"""Bi-LSTM-CRF sequence labeler and its training loop.

Token embeddings from a StackedEmbedder feed a bidirectional LSTM; a
linear layer projects the concatenated directional states to per-tag
emission scores, and a linear-chain CRF scores complete tag sequences.
The model works in IOBES; this module alone converts corpora to it and
predictions back to the scheme of the corpus they were made for.
``_emissions`` runs a list of sentences as one padded call per direction;
``predict`` runs the length-sorted groups of ``embed.EXTRACT_CHARS``
characters, one ``parallel.map_jobs`` job per group, each one
``_emissions`` call and one batched Viterbi.  Every parameter is float32,
as model files store it, so training and tagging compute in float32, and
only the CRF and Viterbi compute in float64.  Only training's
``_emissions`` calls keep the recurrences' backward caches.
Training is SGD over shuffled mini-batches minimizing the mean sentence
NLL.  Each mini-batch runs as one padded group: one ``_emissions`` call,
one length-masked CRF forward-backward over its rows and one
``_backward``.  The gradient norm is clipped at 5.0, and dev F1 selects
the model and drives the rate's ``nn.AnnealOnPlateau``; training stops
once the rate falls below MIN_LEARNING_RATE (1e-4).  The selected
parameters are the values a model file stores, so a saved model predicts
what the trained one did: dev scoring, the test predictions of ``ner
train`` and ``ner predict`` all run ``predict``.
"""

import logging
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import embed
from .corpus import (
    Sentence,
    TaggedCorpus,
    TagScheme,
    convert_scheme,
    convert_tags,
    length_groups,
    sentence_text,
)
from .crf import CrfLayer, crf_nll_with_grads, viterbi_decode
from .embed import StackedEmbedder, component_class
from .errors import (
    ConfigError,
    EmptyCorpusError,
    ModelFormatError,
    SchemeError,
    check_field_types,
    check_type,
)
from .evaluation import evaluate
from .nn import AnnealOnPlateau, Linear, Lstm, Module, clipped_sgd_step
from .parallel import map_jobs
from .serialization import assign_tensors, layer_tensors, load_tensors, save_tensors

logger = logging.getLogger(__name__)

GRAD_CLIP = 5.0
MIN_LEARNING_RATE = 1e-4


@dataclass(frozen=True)
class TaggerConfig:
    lstm_hidden: int = 512
    learning_rate: float = 0.1
    mini_batch: int = 8
    max_epochs: int = 500
    patience: int = 3
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.lstm_hidden < 1 or self.mini_batch < 1 or self.max_epochs < 1:
            raise ConfigError("lstm_hidden, mini_batch and max_epochs must be positive")
        if self.patience < 0:
            raise ConfigError(f"patience must be non-negative, got {self.patience}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not math.isfinite(self.learning_rate):
            raise ConfigError(f"learning_rate must be finite, got {self.learning_rate}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")


class NerModel(Module):
    """Embedder → Bi-LSTM → emission projection → CRF.  Built with no rng,
    its layers allocate nothing, for ``load_ner`` to fill."""

    def __init__(self, embedder: StackedEmbedder, tags, lstm_hidden: int,
                 rng: Optional[np.random.Generator]):
        self.embedder = embedder
        self.tags = tuple(tags)
        self.tag_index = {t: i for i, t in enumerate(self.tags)}
        self.fwd = Lstm(embedder.dim, lstm_hidden, rng)
        self.bwd = Lstm(embedder.dim, lstm_hidden, rng)
        self.projection = Linear(2 * lstm_hidden, len(self.tags), rng)
        self.crf = CrfLayer(self.tags, rng)

    @property
    def named_layers(self) -> tuple:
        return self.embedder.named_layers + (
            ("encoder.fwd", self.fwd), ("encoder.bwd", self.bwd),
            ("projection", self.projection), ("crf", self.crf))

    def _emissions(self, sentences: Sequence[Sentence], keep_cache=False):
        """Emission scores (sentences × T × tags), row b's first
        ``lengths[b]`` positions those of sentence b (the CRF and Viterbi
        mask the rest), computed in the dtype of the model's parameters;
        returns them, ``lengths`` and the cache for ``_backward``, which
        needs a call that kept its caches (``keep_cache``)."""
        dtype = self.projection.params["weight"].dtype
        vecs, lengths, emb_cache = self.embedder.forward(sentences, dtype, keep_cache)
        rows, rev = _row_reversal(lengths, vecs.shape[1])
        hs_f, _, f_cache = self.fwd.forward(vecs, keep_cache=keep_cache)
        hs_b, _, b_cache = self.bwd.forward(vecs[rows, rev], keep_cache=keep_cache)
        concat = np.concatenate([hs_f, hs_b[rows, rev]], axis=2)
        B, T, _ = concat.shape
        emissions, lin_cache = self.projection.forward(concat.reshape(B * T, -1))
        return (emissions.reshape(B, T, -1), lengths,
                (emb_cache, rev, f_cache, b_cache, lin_cache))

    def _backward(self, cache, d_emissions: np.ndarray) -> None:
        """Backprop ``d_emissions`` (sentences × T × tags, zero at padded
        positions) into every layer's gradients."""
        emb_cache, rev, f_cache, b_cache, lin_cache = cache
        B, T, K = d_emissions.shape
        rows = np.arange(B)[:, None]
        H = self.fwd.hidden_size
        d_concat = self.projection.backward(
            lin_cache, d_emissions.reshape(B * T, K)).reshape(B, T, 2 * H)
        dx_f, _ = self.fwd.backward(f_cache, d_concat[..., :H])
        dx_b, _ = self.bwd.backward(b_cache, d_concat[rows, rev, H:])
        self.embedder.backward(emb_cache, dx_f + dx_b[rows, rev])


def _row_reversal(lengths: np.ndarray, T: int):
    """Index pair (rows, rev) such that ``x[rows, rev]`` reverses the first
    ``lengths[b]`` positions of each row b of a (B, T, ·) array and keeps
    its padding in place, after them, so the backward recurrence reads no
    padding before a real position; applied twice it restores ``x``."""
    t = np.arange(T)
    real = t < lengths[:, None]
    rev = np.where(real, lengths[:, None] - 1 - t, t)
    return np.arange(len(lengths))[:, None], rev


def predict(model: NerModel, corpus: TaggedCorpus) -> list[list[str]]:
    """Viterbi-decode every sentence in IOBES; returns one tag list per
    sentence, in the scheme of ``corpus``.  Sentences run in the
    ``corpus.length_groups`` of ``embed.EXTRACT_CHARS`` characters, each
    group a ``parallel.map_jobs`` job that makes one ``_emissions`` call,
    in which the frozen components without a memo extract the group, and
    one batched ``viterbi_decode`` call.  A row's values do not depend on
    the job it runs in, so the tags do not depend on the number of CPUs.
    A stack whose memos hold the sentences already (dev scoring in
    training) extracts nothing.

    Tagging computes in float32, the dtype of the model's parameters and
    of model files, and leaves ``model`` as it is.  Its ``_emissions``
    calls keep no backward cache, so a group holds only its blocks, states
    and emissions.  Those are within FLOAT32_TAGGING_ATOL
    (tests/oracles.py) of a float64 copy's; the CRF computes in float64,
    so Viterbi decodes them upcast."""
    sentences = corpus.sentences

    def tag_group(group: list[int]) -> list[list[str]]:
        emissions, lengths = model._emissions([sentences[i] for i in group])[:2]
        paths, _ = viterbi_decode(emissions, model.crf, lengths)
        return [convert_tags([model.tags[k] for k in path[:length]],
                             TagScheme.IOBES, corpus.scheme)
                for path, length in zip(paths, lengths)]

    groups = length_groups([len(sentence_text(s)) for s in sentences], embed.EXTRACT_CHARS)
    predicted: list = [None] * len(sentences)
    for group, tagged in zip(groups, map_jobs(tag_group, groups)):
        for i, tags in zip(group, tagged):
            predicted[i] = tags
    return predicted


@dataclass
class NerEpochRecord:
    epoch: int
    train_loss: float
    dev_f1: float
    learning_rate: float
    annealed: bool


@dataclass
class NerTrainLog:
    records: list[NerEpochRecord] = field(default_factory=list)
    # "max_epochs", "converged" or "no_improvement" (see train_ner)
    status: str = "max_epochs"
    best_epoch: int = 0
    best_dev_f1: float = 0.0


def _tagset_from(corpus: TaggedCorpus) -> tuple[str, ...]:
    tags = {t for sentence in corpus for t in sentence.gold_tags()}
    tags.add("O")
    return tuple(sorted(tags))


def _snapshot(model: NerModel):
    return [(layer, name, layer.params[name].copy())
            for layer in model.layers for name in layer.params]


def _restore(snapshot) -> None:
    for layer, name, saved in snapshot:
        layer.params[name][...] = saved


def _batch_step(model: NerModel, sentences: Sequence[Sentence], golds,
                scale: float) -> np.ndarray:
    """Add a mini-batch's NLL gradient, times ``scale``, to the model's
    gradients, the batch run as one padded group; returns each sentence's
    NLL.  Its caches die here, before dev scoring runs."""
    emissions, lengths, cache = model._emissions(sentences, keep_cache=True)
    nlls, d_emissions = crf_nll_with_grads(emissions, model.crf, golds, lengths,
                                           scale=scale)
    model._backward(cache, d_emissions)
    return nlls


def train_ner(train: TaggedCorpus, dev: TaggedCorpus, config: TaggerConfig,
              embedder: StackedEmbedder,
              dev_scorer: Optional[Callable[[NerModel], float]] = None
              ) -> tuple[NerModel, NerTrainLog]:
    """Train a tagger; returns the parameters from the best-dev epoch.

    Both corpora may use either tag scheme; they are converted to IOBES,
    the scheme of the model's tag set.  ``dev_scorer`` defaults to micro
    span F1 of the model's predictions on the dev corpus, whose
    ``nn.AnnealOnPlateau`` from 0.0 sets the rate; training stops at
    max_epochs, or with status "converged" once the rate falls below
    MIN_LEARNING_RATE.  A run whose dev score never rose above 0 kept its
    initial parameters and ends with status "no_improvement" either way.
    """
    if len(train) == 0:
        raise EmptyCorpusError("training corpus is empty")
    if len(dev) == 0:
        raise EmptyCorpusError("dev corpus is empty")
    train = convert_scheme(train, TagScheme.IOBES)
    dev = convert_scheme(dev, TagScheme.IOBES)

    tags = _tagset_from(train)
    rng = np.random.default_rng(config.seed)
    model = NerModel(embedder, tags, config.lstm_hidden, rng)
    if dev_scorer is None:
        def dev_scorer(m: NerModel) -> float:
            return evaluate(dev, predict(m, dev)).f1

    gold_paths = [
        np.array([model.tag_index[t] for t in sentence.gold_tags()])
        for sentence in train
    ]

    log = NerTrainLog()
    best_params = _snapshot(model)
    schedule = AnnealOnPlateau(config.learning_rate, config.patience, best=0.0)
    n = len(train)
    sentences = list(train)
    for epoch in range(1, config.max_epochs + 1):
        lr = schedule.lr
        if lr < MIN_LEARNING_RATE:
            log.status = "converged"
            logger.info("ner seed %d epoch %d: learning rate %g below %g, stopping",
                        config.seed, epoch, lr, MIN_LEARNING_RATE)
            break
        order = rng.permutation(n)
        loss_sum = 0.0
        for step, start in enumerate(range(0, n, config.mini_batch), start=1):
            batch = order[start:start + config.mini_batch]
            model.zero_grads()
            nlls = _batch_step(model, [sentences[i] for i in batch],
                               [gold_paths[i] for i in batch], 1.0 / len(batch))
            for nll in nlls:
                loss_sum += float(nll)
            clipped_sgd_step(model.layers, lr, GRAD_CLIP, "tagger training", epoch, step)

        dev_f1 = float(dev_scorer(model))
        improved, annealed = schedule.step(dev_f1)
        if improved:
            log.best_epoch = epoch
            best_params = _snapshot(model)
        log.records.append(NerEpochRecord(epoch=epoch, train_loss=loss_sum / n, dev_f1=dev_f1,
                                          learning_rate=lr, annealed=annealed))
        logger.info("ner seed %d epoch %d: loss %.4f dev f1 %.4f lr %g%s", config.seed, epoch,
                    loss_sum / n, dev_f1, lr, " (annealed)" if annealed else "")

    if log.best_epoch == 0:
        log.status = "no_improvement"
    log.best_dev_f1 = schedule.best
    _restore(best_params)
    return model, log


# --- model files -----------------------------------------------------------

def save_ner(model: NerModel, path) -> None:
    """Write the model: own tensors inline, LM/vector files by hash and by
    path relative to the model file's directory."""
    model_dir = os.path.dirname(os.path.abspath(path))
    meta = {
        "kind": "ner",
        "tags": list(model.tags),
        "lstm_hidden": model.fwd.hidden_size,
        "components": [c.spec(model_dir) for c in model.embedder.components],
        "paths_relative_to_model": True,
    }
    save_tensors(path, meta, layer_tensors(model.named_layers))


def load_ner(path) -> NerModel:
    """Rebuild a saved model: a model of the file's dims, built with no rng,
    filled from the file, with its referenced files reloaded and their
    recorded hashes checked.  The model's embedder keeps no memo of frozen
    blocks.

    Referenced paths resolve against the model file's directory; files
    written before they were recorded that way (no
    ``paths_relative_to_model`` in the meta) resolve them against the
    current directory, as they were written.  Older files also record
    whether their CRF masked ill-formed IOBES moves; that key is ignored
    and their transitions load as stored, so a file whose CRF was unmasked
    predicts as before."""
    meta, tensors = load_tensors(path)
    if meta.get("kind") != "ner":
        raise ModelFormatError(f"{path}: not a tagger model file")
    model_dir = os.path.dirname(path) if meta.get("paths_relative_to_model") else ""
    try:
        tags = [str(t) for t in meta["tags"]]
        lstm_hidden = check_type(meta["lstm_hidden"], int, "lstm_hidden")
        if lstm_hidden < 1:
            raise ValueError(f"lstm_hidden must be positive, got {lstm_hidden}")
        embedder = StackedEmbedder([component_class(spec["kind"]).from_spec(spec, model_dir)
                                    for spec in meta["components"]])
        model = NerModel(embedder, tags, lstm_hidden, None)
    except (KeyError, TypeError, ValueError, OverflowError, ConfigError,
            SchemeError) as exc:
        raise ModelFormatError(f"{path}: invalid model metadata: {exc}") from exc
    assign_tensors(path, model.named_layers, tensors)
    return model
