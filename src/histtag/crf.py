"""Linear-chain CRF over tag sequences.

The transition matrix is (K+2)×(K+2): K real tags plus START (index K) and
STOP (index K+1).  ``transitions[i][j]`` scores moving from tag i to tag j.
Structurally impossible moves (for IOBES well-formedness) are pinned to a
large negative constant rather than true −∞ so arithmetic stays finite;
pinned entries are excluded from gradient updates.
"""

from typing import Sequence

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

    def __init__(self, tags: Sequence[str], rng: np.random.Generator):
        super().__init__()
        self.tags = tuple(tags)
        self.num_tags = len(self.tags)
        self.start = self.num_tags
        self.stop = self.num_tags + 1
        n = self.num_tags + 2
        transitions = rng.uniform(-1.0 / np.sqrt(n), 1.0 / np.sqrt(n), size=(n, n))
        self.allowed = iobes_constraint_mask(self.tags)
        transitions[~self.allowed] = FORBIDDEN_SCORE
        self._register("transitions", transitions)

    def mask_grads(self) -> None:
        """Zero gradient at pinned entries so they never move."""
        self.grads["transitions"][~self.allowed] = 0.0


def _check_emissions(emissions: np.ndarray, crf: CrfLayer) -> np.ndarray:
    emissions = np.asarray(emissions, dtype=np.float64)
    if emissions.ndim != 2 or emissions.shape[0] < 1:
        raise ValueError("emissions must be a non-empty T × K matrix")
    if emissions.shape[1] != crf.num_tags:
        raise ValueError(
            f"emissions have {emissions.shape[1]} columns, CRF has {crf.num_tags} tags")
    return emissions


def _check_path(path, crf: CrfLayer, T: int) -> np.ndarray:
    path = np.asarray(path, dtype=np.int64)
    if path.shape != (T,):
        raise ValueError(f"path length {path.shape} does not match T={T}")
    if path.min() < 0 or path.max() >= crf.num_tags:
        raise ValueError("path may only contain real tag indices, not START/STOP")
    return path


def crf_score(emissions: np.ndarray, crf: CrfLayer, path) -> float:
    """Score of one tag path: emissions plus START→…→STOP transitions."""
    emissions = _check_emissions(emissions, crf)
    path = _check_path(path, crf, emissions.shape[0])
    trans = crf.params["transitions"]
    score = trans[crf.start, path[0]] + trans[path[-1], crf.stop]
    score += emissions[np.arange(len(path)), path].sum()
    score += trans[path[:-1], path[1:]].sum()
    return float(score)


def crf_nll_with_grads(emissions: np.ndarray, crf: CrfLayer, gold,
                       scale: float = 1.0):
    """Negative log-likelihood of the gold path plus analytic gradients
    from the forward-backward recursions.

    Returns (nll, d_emissions); nll + ``crf_score(gold)`` is the log
    partition function, the log-sum-exp of every path's score.  The
    transition gradient accumulates into ``crf.grads["transitions"]`` with
    pinned entries masked out.  Gradients are marginal probabilities minus
    gold indicator counts, multiplied by ``scale`` (callers averaging over a
    batch pass 1/batch size).
    """
    emissions = _check_emissions(emissions, crf)
    gold = _check_path(gold, crf, emissions.shape[0])
    trans = crf.params["transitions"]
    K = crf.num_tags
    T = emissions.shape[0]
    inner = trans[:K, :K]

    alphas = np.empty((T, K))
    alphas[0] = emissions[0] + trans[crf.start, :K]
    for t in range(1, T):
        alphas[t] = emissions[t] + logsumexp(alphas[t - 1][:, None] + inner, axis=0)
    log_z = float(logsumexp(alphas[-1] + trans[:K, crf.stop]))
    betas = np.empty((T, K))
    betas[-1] = trans[:K, crf.stop]
    for t in range(T - 2, -1, -1):
        betas[t] = logsumexp(inner + (emissions[t + 1] + betas[t + 1])[None, :], axis=1)

    # unary marginals P(y_t = k)
    gamma = np.exp(alphas + betas - log_z)
    d_emissions = gamma.copy()
    d_emissions[np.arange(T), gold] -= 1.0
    d_emissions *= scale

    d_trans = np.zeros_like(trans)
    d_trans[crf.start, :K] += gamma[0]
    d_trans[crf.start, gold[0]] -= 1.0
    d_trans[:K, crf.stop] += gamma[-1]
    d_trans[gold[-1], crf.stop] -= 1.0
    # pairwise marginals P(y_t = i, y_{t+1} = j), all t in one broadcast
    xi = np.exp(alphas[:-1, :, None] + inner
                + (emissions[1:] + betas[1:])[:, None, :] - log_z)
    d_trans[:K, :K] += xi.sum(axis=0)
    np.add.at(d_trans, (gold[:-1], gold[1:]), -1.0)
    crf.grads["transitions"] += scale * d_trans
    crf.mask_grads()

    nll = log_z - crf_score(emissions, crf, gold)
    return float(nll), d_emissions


def viterbi_decode(emissions: np.ndarray, crf: CrfLayer):
    """Maximum-scoring path and its score.

    Ties break toward the lowest tag index at every backtracking step
    (argmax returns the first maximum).
    """
    emissions = _check_emissions(emissions, crf)
    trans = crf.params["transitions"]
    K = crf.num_tags
    T = emissions.shape[0]
    inner = trans[:K, :K]

    delta = emissions[0] + trans[crf.start, :K]
    pointers = np.empty((T, K), dtype=np.int64)
    for t in range(1, T):
        candidates = delta[:, None] + inner
        pointers[t] = np.argmax(candidates, axis=0)
        delta = emissions[t] + candidates[pointers[t], np.arange(K)]
    final = delta + trans[:K, crf.stop]
    last = int(np.argmax(final))
    score = float(final[last])

    path = np.empty(T, dtype=np.int64)
    path[-1] = last
    for t in range(T - 1, 0, -1):
        path[t - 1] = pointers[t, path[t]]
    return path, score
