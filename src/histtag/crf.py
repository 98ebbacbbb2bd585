"""Linear-chain CRF over tag sequences.

The transition matrix is (K+2)×(K+2): K real tags plus START (index K) and
STOP (index K+1).  ``transitions[i][j]`` scores moving from tag i to tag j.
Structurally impossible moves (for IOBES well-formedness) are pinned to a
large negative constant rather than true −∞ so arithmetic stays finite;
pinned entries are excluded from gradient updates.  The transitions are
float32, as every parameter; the likelihood, its gradients and Viterbi
compute in float64 over them and the emissions upcast.
"""

import functools
from typing import Optional, Sequence

import numpy as np

from .corpus import TagScheme, split_tag
from .nn import Layer, logsumexp

# -1e4 dominates any achievable path score at desk scale while keeping
# log-sum-exp finite
FORBIDDEN_SCORE = -1e4


def iobes_constraint_mask(tags: Sequence[str]) -> np.ndarray:
    """Boolean (K+2)×(K+2) matrix: True where a transition keeps an IOBES
    sequence well-formed.  START may open a sentence only with O, B- or S-;
    STOP may close it only after O, E- or S-; B-/I- must continue into I-/E-
    of the same label.
    """
    K = len(tags)
    start, stop = K, K + 1
    parts = [split_tag(t, TagScheme.IOBES) for t in tags]
    allowed = np.zeros((K + 2, K + 2), dtype=bool)

    def opens(j):
        return parts[j][0] in ("O", "B", "S")

    def closes(i):
        return parts[i][0] in ("O", "E", "S")

    for j in range(K):
        allowed[start, j] = opens(j)
    for i in range(K):
        allowed[i, stop] = closes(i)
        pi, li = parts[i]
        for j in range(K):
            pj, lj = parts[j]
            if pi in ("B", "I"):
                allowed[i, j] = pj in ("I", "E") and lj == li
            else:
                allowed[i, j] = opens(j)
    return allowed


class CrfLayer(Layer):
    """Transition scores for a fixed tagset, with ill-formed IOBES moves
    pinned (see ``iobes_constraint_mask``)."""

    def __init__(self, tags: Sequence[str], rng: Optional[np.random.Generator]):
        super().__init__()
        self.tags = tuple(tags)
        self.num_tags = len(self.tags)
        self.start = self.num_tags
        self.stop = self.num_tags + 1
        n = self.num_tags + 2
        self._register("transitions", (n, n), rng, n)
        if rng is not None:
            # -1e4 is exact in float32
            self.params["transitions"][~self.allowed] = FORBIDDEN_SCORE

    @functools.cached_property
    def allowed(self) -> np.ndarray:
        """``iobes_constraint_mask`` of the tags, computed on first use, so
        a layer built with no rng runs no (K+2)² loop before a loader has
        checked its file's shapes."""
        return iobes_constraint_mask(self.tags)

    def mask_grads(self) -> None:
        """Zero gradient at pinned entries so they never move."""
        self.grads["transitions"][~self.allowed] = 0.0


def _check_rows(emissions, crf: CrfLayer, lengths):
    """The emissions as float64 and the lengths; raises ValueError unless
    they are a non-empty (B, T, K) block over the CRF's K tags and B
    integer lengths in [1, T]."""
    emissions = np.asarray(emissions, dtype=np.float64)
    if emissions.ndim != 3 or emissions.shape[0] < 1 or emissions.shape[1] < 1:
        raise ValueError("emissions must be a non-empty B × T × K array")
    B, T, K = emissions.shape
    if K != crf.num_tags:
        raise ValueError(f"emissions have {K} columns, CRF has {crf.num_tags} tags")
    lengths = np.asarray(lengths)
    if (lengths.shape != (B,) or not np.issubdtype(lengths.dtype, np.integer)
            or lengths.min() < 1 or lengths.max() > T):
        raise ValueError(f"lengths must be {B} integers in [1, {T}]")
    return emissions, lengths


def _check_batch(emissions, crf: CrfLayer, golds, lengths):
    """As ``_check_rows``, plus the gold paths padded with tag 0 into one
    (B, T) array; raises ValueError unless every row has a gold path of
    exactly its length in real tags."""
    emissions, lengths = _check_rows(emissions, crf, lengths)
    B, T, K = emissions.shape
    if len(golds) != B:
        raise ValueError(f"{len(golds)} gold paths for {B} rows")
    paths = np.zeros((B, T), dtype=np.int64)
    for b, (gold, length) in enumerate(zip(golds, lengths)):
        gold = np.asarray(gold, dtype=np.int64)
        if gold.shape != (length,):
            raise ValueError(f"row {b}: path length {gold.shape} does not match "
                             f"its length {length}")
        if gold.min() < 0 or gold.max() >= K:
            raise ValueError(
                f"row {b}: path may only contain real tag indices, not START/STOP")
        paths[b, :length] = gold
    return emissions, paths, lengths


def crf_nll_with_grads(emissions: np.ndarray, crf: CrfLayer, golds, lengths,
                       scale: float = 1.0):
    """Negative log-likelihood of each row's gold path plus analytic
    gradients from the forward-backward recursions, for a padded batch.

    ``emissions`` is (B, T, K) with row b's first ``lengths[b]`` positions
    real and the rest padding, whatever it holds; ``golds`` holds one path
    of ``lengths[b]`` real tag indices per row.  Returns (nlls (B,),
    d_emissions (B, T, K)): each row's NLL is its log partition function
    minus its gold path's score, and d_emissions is zero at padded
    positions.  The transition gradient accumulates into
    ``crf.grads["transitions"]`` with pinned entries masked out.  Gradients
    are marginal probabilities minus gold indicator counts, summed over the
    rows and multiplied by ``scale`` (callers averaging over a batch pass
    1/batch size); d_emissions is in the dtype of ``emissions``, for the
    backward pass of the layers that made them.
    """
    dtype = np.asarray(emissions).dtype
    emissions, golds, lengths = _check_batch(emissions, crf, golds, lengths)
    trans = crf.params["transitions"].astype(np.float64)
    B, T, K = emissions.shape
    inner = trans[:K, :K]
    rows = np.arange(B)
    last = lengths - 1
    real = np.arange(T) < lengths[:, None]

    alphas = np.empty((B, T, K))
    alphas[:, 0] = emissions[:, 0] + trans[crf.start, :K]
    for t in range(1, T):
        alphas[:, t] = emissions[:, t] + logsumexp(
            alphas[:, t - 1, :, None] + inner, axis=1)
    log_z = logsumexp(alphas[rows, last] + trans[:K, crf.stop], axis=1)
    # each row's last position, and its padding, start from STOP
    betas = np.empty((B, T, K))
    betas[:] = trans[:K, crf.stop]
    for t in range(T - 2, -1, -1):
        inside = t < last
        betas[inside, t] = logsumexp(
            inner + (emissions[inside, t + 1] + betas[inside, t + 1])[:, None, :],
            axis=2)

    # unary marginals P(y_t = k), zero at padded positions
    gamma = np.exp(np.where(real[..., None], alphas + betas - log_z[:, None, None],
                            -np.inf))
    b_real, t_real = np.nonzero(real)
    d_emissions = gamma.copy()
    d_emissions[b_real, t_real, golds[b_real, t_real]] -= 1.0
    d_emissions *= scale

    d_trans = np.zeros_like(trans)
    d_trans[crf.start, :K] += gamma[:, 0].sum(axis=0)
    np.add.at(d_trans, (crf.start, golds[:, 0]), -1.0)
    d_trans[:K, crf.stop] += gamma[rows, last].sum(axis=0)
    np.add.at(d_trans, (golds[rows, last], crf.stop), -1.0)
    # pairwise marginals P(y_t = i, y_{t+1} = j), all rows and positions in
    # one broadcast; a pair is real when its second position is
    pair = real[:, 1:]
    xi = np.exp(np.where(
        pair[..., None, None],
        alphas[:, :-1, :, None] + inner
        + (emissions[:, 1:] + betas[:, 1:])[:, :, None, :] - log_z[:, None, None, None],
        -np.inf))
    d_trans[:K, :K] += xi.sum(axis=(0, 1))
    np.add.at(d_trans, (golds[:, :-1][pair], golds[:, 1:][pair]), -1.0)
    crf.grads["transitions"] += scale * d_trans
    crf.mask_grads()

    gold_scores = (trans[crf.start, golds[:, 0]] + trans[golds[rows, last], crf.stop]
                   + np.where(real, np.take_along_axis(
                       emissions, golds[..., None], axis=2)[..., 0], 0.0).sum(axis=1)
                   + np.where(pair, trans[golds[:, :-1], golds[:, 1:]], 0.0).sum(axis=1))
    return log_z - gold_scores, d_emissions.astype(dtype, copy=False)


def viterbi_decode(emissions: np.ndarray, crf: CrfLayer, lengths):
    """Each row's maximum-scoring path and its score, for a padded batch.

    ``emissions`` is (B, T, K) with row b's first ``lengths[b]`` positions
    real and the rest padding, whatever it holds.  Returns (paths (B, T)
    int64, scores (B,)): row b's path fills its first ``lengths[b]``
    positions and is zero after them.  Every row runs the max and add of
    the one-sentence recursion in the same order, so its path and score
    are those of the row decoded alone.  Ties break toward the lowest tag
    index at every backtracking step (argmax returns the first maximum).
    """
    emissions, lengths = _check_rows(emissions, crf, lengths)
    trans = crf.params["transitions"].astype(np.float64)
    B, T, K = emissions.shape
    inner = trans[:K, :K]
    rows = np.arange(B)

    delta = emissions[:, 0] + trans[crf.start, :K]
    pointers = np.empty((B, T, K), dtype=np.int64)
    for t in range(1, T):
        candidates = delta[:, :, None] + inner
        pointers[:, t] = np.argmax(candidates, axis=1)
        step = emissions[:, t] + np.take_along_axis(
            candidates, pointers[:, t, None], axis=1)[:, 0]
        # a row past its end keeps its last real position's scores
        delta = np.where((t < lengths)[:, None], step, delta)
    final = delta + trans[:K, crf.stop]
    last = np.argmax(final, axis=1)
    scores = final[rows, last]

    paths = np.zeros((B, T), dtype=np.int64)
    paths[rows, lengths - 1] = last
    for t in range(T - 1, 0, -1):
        inside = t < lengths
        paths[inside, t - 1] = pointers[inside, t, paths[inside, t]]
    return paths, scores
