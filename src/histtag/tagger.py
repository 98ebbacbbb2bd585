"""Bi-LSTM-CRF sequence labeler and its training loop.

Token embeddings from a StackedEmbedder feed a bidirectional LSTM; a
linear layer projects the concatenated directional states to per-tag
emission scores, and a linear-chain CRF scores complete tag sequences.
The model works in IOBES; this module alone converts corpora to it and
predictions back to the scheme of the corpus they were made for.
``_emissions`` runs a list of sentences as one padded call per direction;
``predict`` runs the length-sorted groups of ``embed.extraction_groups``,
one ``parallel.map_jobs`` job per extraction group, on a float32 copy of
the model (``NerModel.cast``): model files store float32, so tagging
computes in it, and only the CRF and Viterbi stay float64.
Training is SGD over shuffled mini-batches minimizing the mean sentence
NLL.  Each mini-batch runs as one padded group: one ``_emissions`` call,
one length-masked CRF forward-backward over its rows and one
``_backward``.  The gradient norm is clipped at 5.0, dev F1 selects the
model, and the learning rate is multiplied by ANNEAL_FACTOR (0.5) after
`patience` consecutive epochs without a dev improvement; training stops
once it falls below MIN_LEARNING_RATE (1e-4).  Training computes in
float64.  The selected parameters are rounded to float32, the values a
model file stores, so a saved model predicts what the trained one did:
dev scoring, the test predictions of ``ner train`` and ``ner predict`` all
run ``predict``.
"""

import copy
import logging
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .corpus import Sentence, TaggedCorpus, TagScheme, convert_scheme, convert_tags
from .crf import CrfLayer, crf_nll_with_grads, viterbi_decode
from .embed import StackedEmbedder, component_class, extraction_groups
from .errors import (
    ConfigError,
    EmptyCorpusError,
    ModelFormatError,
    NonFiniteGradientError,
    SchemeError,
    check_field_types,
)
from .evaluation import evaluate
from .nn import Linear, Lstm, Module, clip_grad_norm, sgd_step
from .parallel import map_jobs
from .serialization import (
    assign_tensors,
    check_layout,
    layer_tensors,
    load_tensors,
    named_shapes,
    save_tensors,
)

logger = logging.getLogger(__name__)

GRAD_CLIP = 5.0
ANNEAL_FACTOR = 0.5
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
        if not math.isfinite(self.learning_rate):
            raise ConfigError(f"learning_rate must be finite, got {self.learning_rate}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")


class NerModel(Module):
    """Embedder → Bi-LSTM → emission projection → CRF."""

    def __init__(self, embedder: StackedEmbedder, tags, lstm_hidden: int,
                 rng: np.random.Generator):
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

    def cast(self, dtype) -> "NerModel":
        """A copy for inference that runs the embedder's trainable
        components, the Bi-LSTM and the projection on ``Layer.cast`` copies
        in ``dtype``; it shares the CRF and the frozen components, and this
        model is left as it is."""
        twin = copy.copy(self)
        twin.embedder = self.embedder.cast(dtype)
        twin.fwd, twin.bwd, twin.projection = (
            layer.cast(dtype) for layer in (self.fwd, self.bwd, self.projection))
        return twin

    @staticmethod
    def tensor_shapes(embedder_dim: int, num_tags: int,
                      lstm_hidden: int) -> dict[str, tuple]:
        """The shape of each tensor of the layers a model builds on its
        embedder, by name, without building them."""
        return named_shapes((("encoder.fwd", Lstm.shapes(embedder_dim, lstm_hidden)),
                             ("encoder.bwd", Lstm.shapes(embedder_dim, lstm_hidden)),
                             ("projection", Linear.shapes(2 * lstm_hidden, num_tags)),
                             ("crf", CrfLayer.shapes(num_tags))))

    def _emissions(self, sentences: Sequence[Sentence]):
        """Emission scores (sentences × T × tags), row b's first
        ``lengths[b]`` positions those of sentence b; returns them,
        ``lengths`` and the cache for ``_backward``."""
        vecs, lengths, emb_cache = self.embedder.forward(sentences)
        rows, rev = _row_reversal(lengths, vecs.shape[1])
        hs_f, _, f_cache = self.fwd.forward(vecs, lengths=lengths)
        hs_b, _, b_cache = self.bwd.forward(vecs[rows, rev], lengths=lengths)
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
    its padding in place; applied twice it restores ``x``."""
    t = np.arange(T)
    real = t < lengths[:, None]
    rev = np.where(real, lengths[:, None] - 1 - t, t)
    return np.arange(len(lengths))[:, None], rev


def predict(model: NerModel, corpus: TaggedCorpus) -> list[list[str]]:
    """Viterbi-decode every sentence in IOBES; returns one tag list per
    sentence, in the scheme of ``corpus``.  Sentences run in the two tiers
    of ``embed.extraction_groups``, each tier a ``parallel.map_jobs`` job:
    the frozen components without a memo extract its EXTRACT_CHARS group
    at once into transient memos, then its GROUP_CHARS groups run through
    the stack and the tagger, and each sentence is decoded from its own
    rows.  A row's values do not depend on the job it runs in, so the tags
    do not depend on the number of CPUs.  A stack whose memos hold the
    sentences already (dev scoring in training) extracts nothing.

    Tagging runs in float32, the precision model files store: every group
    runs on ``model.cast(np.float32)``, made once here, before the jobs
    fork, and ``model`` is left as it is.  Its emissions are within
    FLOAT32_TAGGING_ATOL (tests/oracles.py) of the float64 ones; the CRF
    stays float64, so Viterbi decodes them upcast."""
    sentences = corpus.sentences
    model = model.cast(np.float32)

    def tag_tier(tier) -> list[tuple[int, list[str]]]:
        extraction, groups = tier
        tagged = []
        with model.embedder.extracting([sentences[i] for i in extraction]):
            for group in groups:
                # the cache is dropped here, before the next group runs
                emissions, lengths = model._emissions([sentences[i] for i in group])[:2]
                for i, scores, length in zip(group, emissions, lengths):
                    path, _ = viterbi_decode(scores[:length], model.crf)
                    tagged.append((i, convert_tags([model.tags[k] for k in path],
                                                   TagScheme.IOBES, corpus.scheme)))
        return tagged

    predicted: list = [None] * len(sentences)
    for tagged in map_jobs(tag_tier, extraction_groups(sentences)):
        for i, tags in tagged:
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


def _restore_as_float32(snapshot) -> None:
    """Put the snapshot back, each value rounded to the float32 that
    ``save_ner`` writes for it."""
    for layer, name, saved in snapshot:
        layer.params[name][...] = saved.astype(np.float32)


def _batch_step(model: NerModel, sentences: Sequence[Sentence], golds,
                scale: float) -> np.ndarray:
    """Add a mini-batch's NLL gradient, times ``scale``, to the model's
    gradients, the batch run as one padded group; returns each sentence's
    NLL.  Its caches die here, before dev scoring runs."""
    emissions, lengths, cache = model._emissions(sentences)
    nlls, d_emissions = crf_nll_with_grads(emissions, model.crf, golds, lengths,
                                           scale=scale)
    model._backward(cache, d_emissions)
    return nlls


def train_ner(train: TaggedCorpus, dev: TaggedCorpus, config: TaggerConfig,
              embedder: StackedEmbedder,
              dev_scorer: Optional[Callable[[NerModel], float]] = None
              ) -> tuple[NerModel, NerTrainLog]:
    """Train a tagger; returns the parameters from the best-dev epoch,
    rounded to float32 as ``save_ner`` stores them.

    Both corpora may use either tag scheme; they are converted to IOBES,
    the scheme of the model's tag set.  ``dev_scorer`` defaults to micro
    span F1 of the model's predictions on the dev corpus.  A non-improving
    streak of `patience` epochs multiplies the learning rate by
    ANNEAL_FACTOR (streak counter resets after each cut); training stops
    at max_epochs, or earlier with status "converged" once the rate falls
    below MIN_LEARNING_RATE.  A run whose dev score never rose above 0 kept
    its initial parameters and ends with status "no_improvement" either
    way.
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
    best_f1 = 0.0
    stagnant = 0
    lr = config.learning_rate
    n = len(train)
    sentences = list(train)
    for epoch in range(1, config.max_epochs + 1):
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
            if not math.isfinite(clip_grad_norm(model.layers, GRAD_CLIP)):
                raise NonFiniteGradientError("tagger training", epoch, step)
            sgd_step(model.layers, lr)

        dev_f1 = float(dev_scorer(model))
        annealed = False
        if dev_f1 > best_f1:
            best_f1 = dev_f1
            log.best_epoch = epoch
            best_params = _snapshot(model)
            stagnant = 0
        else:
            stagnant += 1
            if stagnant >= config.patience:
                lr *= ANNEAL_FACTOR
                stagnant = 0
                annealed = True
        log.records.append(NerEpochRecord(
            epoch=epoch, train_loss=loss_sum / n, dev_f1=dev_f1,
            learning_rate=lr if not annealed else lr / ANNEAL_FACTOR,
            annealed=annealed))
        logger.info("ner seed %d epoch %d: loss %.4f dev f1 %.4f lr %g%s",
                    config.seed, epoch, loss_sum / n, dev_f1,
                    log.records[-1].learning_rate,
                    " (annealed)" if annealed else "")

    if log.best_epoch == 0:
        log.status = "no_improvement"
    log.best_dev_f1 = best_f1
    _restore_as_float32(best_params)
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
    """Rebuild a saved model, reloading referenced files and checking their
    recorded hashes.  The model's embedder keeps no memo of frozen blocks.

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
    rng = np.random.default_rng(0)
    try:
        tags = [str(t) for t in meta["tags"]]
        lstm_hidden = int(meta["lstm_hidden"])
        if lstm_hidden < 1:
            raise ValueError(f"lstm_hidden must be positive, got {lstm_hidden}")
        # the layout the meta dims imply is checked against the payload
        # before anything of those dims is built: each component's own
        # tensors first, then the whole model's
        layout = {}
        components = []
        for i, spec in enumerate(meta["components"]):
            cls = component_class(spec["kind"])
            prefix = f"component{i}."
            own = {prefix + name: shape for name, shape in cls.tensor_shapes(spec).items()}
            check_layout(path, own, {name: value for name, value in tensors.items()
                                     if name.startswith(prefix)})
            layout.update(own)
            # a char-feature encoder gets its tensors below, with the rest
            components.append(cls.from_spec(spec, rng, model_dir))
        embedder = StackedEmbedder(components)
        layout.update(NerModel.tensor_shapes(embedder.dim, len(tags), lstm_hidden))
        check_layout(path, layout, tensors)
        model = NerModel(embedder, tags, lstm_hidden, rng)
    except (KeyError, TypeError, ValueError, OverflowError, ConfigError,
            SchemeError) as exc:
        raise ModelFormatError(f"{path}: invalid model metadata: {exc}") from exc
    assign_tensors(path, model.named_layers, tensors)
    return model
