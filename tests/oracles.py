"""Independent reference implementations used only to check the library.

Everything here is deliberately written with a different algorithm than the
code under test: span extraction scans with explicit two-pointer lookahead,
CRF quantities are brute-force sums over every tag path, gradients come
from central finite differences, the LSTM runs one sequence one step at
a time where the library runs a padded batch, and contextual vectors,
perplexities, tagger emissions, CRF likelihoods, Viterbi paths and
training gradients come from each sentence run alone where the library
runs padded groups of sentences.  The library computes in float32;
finite-difference checks and the references that pin float64 bits run on
``float64_copy`` copies, whose layers hold float64 parameters, and layers
compute in their input's dtype.  Cross entropy's log-softmax comes from
scipy.special, which the library does not import.
"""

import copy
import itertools

import numpy as np

from histtag.corpus import TagScheme
from histtag.nn import Layer, logsumexp


def scan_spans(tags, scheme):
    """Two-pointer span scan: find each span start, then walk to its end.

    Assumes a well-formed sequence; returns (label, start, end) triples.
    """
    spans = []
    n = len(tags)
    i = 0
    while i < n:
        tag = tags[i]
        if tag == "O":
            i += 1
            continue
        prefix, label = tag.split("-", 1)
        if scheme is TagScheme.IOBES:
            if prefix == "S":
                spans.append((label, i, i))
                i += 1
                continue
            # prefix == "B": advance the second pointer to the matching E
            j = i + 1
            while tags[j] != f"E-{label}":
                j += 1
            spans.append((label, i, j))
            i = j + 1
        else:
            # IOB2: a span is B followed by a maximal run of same-type I
            j = i
            while j + 1 < n and tags[j + 1] == f"I-{label}":
                j += 1
            spans.append((label, i, j))
            i = j + 1
    return spans


def enumerate_paths(emissions, transitions, start, stop):
    """Yield (path, score) for every tag path of an unbatched CRF instance.

    transitions is the full (K+2, K+2) matrix; start/stop are the virtual
    state indices inside it.
    """
    T, K = emissions.shape
    for path in itertools.product(range(K), repeat=T):
        score = transitions[start, path[0]] + emissions[0, path[0]]
        for t in range(1, T):
            score += transitions[path[t - 1], path[t]] + emissions[t, path[t]]
        score += transitions[path[-1], stop]
        yield path, score


def brute_log_partition(emissions, transitions, start, stop):
    scores = [s for _, s in enumerate_paths(emissions, transitions, start, stop)]
    return float(np.logaddexp.reduce(np.array(scores)))


def brute_path_score(emissions, transitions, start, stop, path):
    score = transitions[start, path[0]] + emissions[0, path[0]]
    for t in range(1, len(path)):
        score += transitions[path[t - 1], path[t]] + emissions[t, path[t]]
    score += transitions[path[-1], stop]
    return float(score)


def brute_nll(emissions, transitions, start, stop, gold):
    logz = brute_log_partition(emissions, transitions, start, stop)
    return logz - brute_path_score(emissions, transitions, start, stop, gold)


def brute_nll_gradients(emissions, transitions, start, stop, gold):
    """Gradients of the NLL as expected counts minus gold counts, with the
    expectation taken over every enumerated path.  Returns (d_emissions,
    d_transitions)."""
    logz = brute_log_partition(emissions, transitions, start, stop)
    d_emissions = np.zeros_like(emissions)
    d_transitions = np.zeros_like(transitions)

    def count(path, weight):
        d_transitions[start, path[0]] += weight
        for t, tag in enumerate(path):
            d_emissions[t, tag] += weight
            if t:
                d_transitions[path[t - 1], tag] += weight
        d_transitions[path[-1], stop] += weight

    for path, score in enumerate_paths(emissions, transitions, start, stop):
        count(path, np.exp(score - logz))
    count(list(gold), -1.0)
    return d_emissions, d_transitions


def crf_nll_reference(emissions, crf, gold, scale=1.0):
    """One sentence's NLL and (T × K) emission gradient from the unbatched
    forward-backward recursions, the kernel the batched
    ``crf_nll_with_grads`` replaced.  Adds the transition gradient, times
    ``scale``, to ``crf.grads["transitions"]`` with pinned entries masked
    out; the returned emission gradient is multiplied by ``scale`` too."""
    emissions = np.asarray(emissions, dtype=np.float64)
    gold = np.asarray(gold, dtype=np.int64)
    trans = crf.params["transitions"].astype(np.float64)
    T, K = emissions.shape
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

    gamma = np.exp(alphas + betas - log_z)
    d_emissions = gamma.copy()
    d_emissions[np.arange(T), gold] -= 1.0
    d_emissions *= scale

    d_trans = np.zeros_like(trans)
    d_trans[crf.start, :K] += gamma[0]
    d_trans[crf.start, gold[0]] -= 1.0
    d_trans[:K, crf.stop] += gamma[-1]
    d_trans[gold[-1], crf.stop] -= 1.0
    xi = np.exp(alphas[:-1, :, None] + inner
                + (emissions[1:] + betas[1:])[:, None, :] - log_z)
    d_trans[:K, :K] += xi.sum(axis=0)
    np.add.at(d_trans, (gold[:-1], gold[1:]), -1.0)
    crf.grads["transitions"] += scale * d_trans
    crf.mask_grads()

    score = brute_path_score(emissions, trans, crf.start, crf.stop, gold)
    return log_z - score, d_emissions


def sentence_step_reference(model, sentence, gold, scale):
    """Add one sentence's NLL gradient, times ``scale``, to a NerModel's
    gradients, the sentence run alone through ``crf_nll_reference``, as
    training ran before its mini-batches ran as one group; returns the
    NLL."""
    emissions, _, cache = model._emissions([sentence], keep_cache=True)
    nll, d_emissions = crf_nll_reference(emissions[0], model.crf, gold, scale)
    model._backward(cache, d_emissions[None].astype(emissions.dtype))
    return nll


def viterbi_reference(emissions, crf):
    """One sentence's maximum-scoring path and its score from the
    unbatched recursion, the decoder the batched ``viterbi_decode``
    replaced.  Ties break toward the lowest tag index at every
    backtracking step (argmax returns the first maximum)."""
    emissions = np.asarray(emissions, dtype=np.float64)
    if emissions.ndim != 2 or emissions.shape[0] < 1:
        raise ValueError("emissions must be a non-empty T × K matrix")
    if emissions.shape[1] != crf.num_tags:
        raise ValueError(
            f"emissions have {emissions.shape[1]} columns, CRF has {crf.num_tags} tags")
    trans = crf.params["transitions"].astype(np.float64)
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


def brute_viterbi(emissions, transitions, start, stop):
    best_path, best_score = None, -np.inf
    for path, score in enumerate_paths(emissions, transitions, start, stop):
        if score > best_score:
            best_path, best_score = path, score
    return list(best_path), float(best_score)


def numeric_gradient(f, x, eps=1e-5):
    """Central finite differences of scalar f() w.r.t. array x, in place."""
    grad = np.zeros_like(x)
    flat_x = x.ravel()
    flat_g = grad.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        f_plus = f()
        flat_x[i] = orig - eps
        f_minus = f()
        flat_x[i] = orig
        flat_g[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def gradient_relative_error(analytic, numeric, floor=1e-3):
    """Worst-case elementwise relative error between two gradient arrays.

    Entries smaller than ``floor`` in both arrays are compared against the
    floor instead, which turns the check into an absolute one there.
    """
    a = np.asarray(analytic, dtype=float)
    b = np.asarray(numeric, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def cross_entropy_reference(logits, targets):
    """``nn.cross_entropy`` through scipy.special.log_softmax: per-row NLL
    and the gradient of its sum."""
    from scipy.special import log_softmax

    rows = np.arange(logits.shape[0])
    logp = log_softmax(logits, axis=-1)
    dlogits = np.exp(logp)
    dlogits[rows, targets] -= 1.0
    return -logp[rows, targets], dlogits


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def lstm_reference_forward(params, x, state=None):
    """One sequence, one step at a time: the loop the batched ``nn.Lstm``
    replaced.  x: (T, D); state: optional (h0, c0) each (H,).  Returns
    (hs (T, H), (hT, cT), cache)."""
    Wx, Wh, bias = params["Wx"], params["Wh"], params["bias"]
    H = Wh.shape[0]
    T = x.shape[0]
    h, c = (np.zeros(H), np.zeros(H)) if state is None else state
    steps = []
    hs = np.empty((T, H))
    for t in range(T):
        a = x[t] @ Wx + bias + h @ Wh
        i, f = _sigmoid(a[:H]), _sigmoid(a[H:2 * H])
        g, o = np.tanh(a[2 * H:3 * H]), _sigmoid(a[3 * H:])
        c_new = f * c + i * g
        steps.append((h, c, i, f, g, o, c_new))
        c = c_new
        h = o * np.tanh(c)
        hs[t] = h
    return hs, (h, c), (x, steps)


def lstm_reference_backward(params, cache, grad_hs, grad_state=None):
    """Backward of ``lstm_reference_forward``.  Returns (dx, (dh0, dc0),
    grads) with grads a name → array dict for Wx, Wh and bias."""
    x, steps = cache
    Wx, Wh = params["Wx"], params["Wh"]
    H = Wh.shape[0]
    grads = {name: np.zeros_like(value) for name, value in params.items()}
    dx = np.zeros_like(x)
    dh_next, dc_next = (np.zeros(H), np.zeros(H)) if grad_state is None else grad_state
    for t in range(len(steps) - 1, -1, -1):
        h_prev, c_prev, i, f, g, o, c = steps[t]
        dh = grad_hs[t] + dh_next
        tc = np.tanh(c)
        dc = dh * o * (1.0 - tc ** 2) + dc_next
        da = np.concatenate([dc * g * i * (1.0 - i),
                             dc * c_prev * f * (1.0 - f),
                             dc * i * (1.0 - g ** 2),
                             dh * tc * o * (1.0 - o)])
        grads["Wx"] += np.outer(x[t], da)
        grads["Wh"] += np.outer(h_prev, da)
        grads["bias"] += da
        dx[t] = Wx @ da
        dh_next = Wh @ da
        dc_next = dc * f
    return dx, (dh_next, dc_next), grads


def train_lm_by_strand(corpus, config, seed):
    """Reference for one epoch of ``charlm.train_lm``, in float64: each
    strand of a TBPTT window runs on its own through
    ``lstm_reference_forward`` and the strands' gradients add up before the
    step.  Returns the trained model, a ``float64_copy`` of the one
    ``train_lm`` builds."""
    from histtag.charlm import GRAD_CLIP, HOLDOUT_FRACTION, CharLm
    from histtag.corpus import PlainCorpus, extract_char_vocab
    from histtag.nn import Dropout, clip_grad_norm, cross_entropy, sgd_step

    stream = " ".join(corpus)
    if config.direction == "backward":
        stream = stream[::-1]
    n = len(stream)
    holdout = max(2, n // HOLDOUT_FRACTION)
    B = config.mini_batch
    strand_len = (n - 2 * holdout) // B
    train_text = stream[:n - 2 * holdout]
    vocab = extract_char_vocab(PlainCorpus.from_lines([train_text]))
    rng = np.random.default_rng(seed)
    model = float64_copy(CharLm(vocab, config.direction, config.char_embed_dim,
                                config.hidden_size, rng))
    encoded = vocab.encode(train_text)
    strands = [encoded[b * strand_len:(b + 1) * strand_len] for b in range(B)]
    dropout = Dropout(config.dropout)
    lstm = model.lstm
    states = [None] * B
    pos = 0
    while pos + 1 < strand_len:
        end = min(pos + config.sequence_length, strand_len - 1)
        scale = 1.0 / ((end - pos) * B)
        model.zero_grads()
        for b, strand in enumerate(strands):
            emb, emb_cache = model.embedding.forward(strand[pos:end])
            hs, states[b], cache = lstm_reference_forward(lstm.params, emb, states[b])
            dropped, drop_cache = dropout.forward(hs, rng)
            logits, lin_cache = model.projection.forward(dropped)
            _, dlogits = cross_entropy(logits, strand[pos + 1:end + 1])
            dh = model.projection.backward(lin_cache, dlogits * scale)
            dh = dropout.backward(drop_cache, dh)
            dx, _, grads = lstm_reference_backward(lstm.params, cache, dh)
            for name, grad in grads.items():
                lstm.grads[name] += grad
            model.embedding.backward(emb_cache, dx)
        clip_grad_norm(model.layers, GRAD_CLIP)
        sgd_step(model.layers, config.learning_rate)
        pos = end
    return model


# ContextualEmbedder extracts in float32, the float64 references below do
# not.  With the small untrained LMs of the tests, whose states stay below
# 0.2, blocks differed from ``contextual_reference`` by at most 4.2e-8 (H
# from 6 to 256, five seeds each), and a tagger's emissions built on them
# from ``emissions_reference`` by at most 1.0e-9 (eight tagger seeds).
# Trained LMs at H = 64, with states up to 0.92, differ by up to 4.2e-7.
FLOAT32_STATE_ATOL = 1e-7
FLOAT32_EMISSION_ATOL = 1e-8
# ``tagger.predict`` also runs the char features, the Bi-LSTM and the
# projection in float32.  On TestTwoTierPredict's corpus and model (its
# projection scaled by 40), its emissions differed from
# ``emissions_reference`` by at most 9.6e-7 on values up to 4.8 (24 models:
# eight tagger seeds on each of three embedder seeds), and every model's
# tags equalled the reference's.  With the parameters themselves float32,
# the same corpus and stack at eight tagger seeds differ from the
# reference, a float64 copy of those values, by at most 4.8e-7 on values up
# to 4.1.  On the trained H = 128 tagger of the
# benchmark's ``ner_tag`` workload (seeds 3 and 7) they differ from float64
# by up to 1.5e-5 on values up to 22.6.
FLOAT32_TAGGING_ATOL = 2e-6


def lm_reference(model, chars, state=None):
    """A CharLm over one chunk of already-encoded characters, B = 1 and
    unmasked, the path ``charlm.lm_forward`` replaced.  ``state`` is the
    ``(h, c)`` pair, each 1 × H, that the LSTM starts from (zeros when
    None).  Returns (logits T × (|vocab| + 1), final (h, c) state, hidden
    states T × H); ``logits[t]`` predicts the character after position t."""
    chars = np.asarray(chars, dtype=np.int64)
    n_out = len(model.vocab) + 1
    if chars.ndim != 1 or chars.shape[0] < 1:
        raise ValueError("chars must be a non-empty 1-d index sequence")
    if chars.min() < 0 or chars.max() >= n_out:
        raise ValueError(f"character index out of range [0, {n_out})")
    emb, _ = model.embedding.forward(chars[None])
    hs, state, _ = model.lstm.forward(emb, state)
    logits, _ = model.projection.forward(hs[0])
    return logits, state, hs[0]


def perplexity_reference(model, text):
    """A CharLm's perplexity of one text, scored by ``lm_reference`` in one
    chunk (the backward LM reads the text reversed)."""
    from histtag.nn import cross_entropy

    if model.direction == "backward":
        text = text[::-1]
    chars = model.vocab.encode(text)
    logits, _, _ = lm_reference(model, chars[:-1])
    nll, _ = cross_entropy(logits, chars[1:])
    return float(np.exp(nll.mean()))


def contextual_reference(fwd, bwd, sentence):
    """The block a ContextualEmbedder built from the CharLms ``fwd`` and
    ``bwd`` gives one sentence, extracted alone and in float64: each LM's
    ``float64_copy`` reads the sentence's text through ``lm_reference``
    (the backward one the text reversed), and a token takes the forward
    state at its last character and the backward state at its first."""
    from histtag.corpus import sentence_text, token_char_ranges

    fwd, bwd = float64_copy(fwd), float64_copy(bwd)
    text = sentence_text(sentence)
    L = len(text)
    _, _, hs_f = lm_reference(fwd, fwd.vocab.encode(text))
    _, _, hs_b = lm_reference(bwd, bwd.vocab.encode(text[::-1]))
    return np.stack([np.concatenate([hs_f[end], hs_b[L - 1 - start]])
                     for start, end in token_char_ranges(sentence)])


def emissions_reference(model, sentence, lms):
    """A NerModel's (tokens × tags) emissions for one sentence, computed
    alone and in float64 by the model's ``float64_copy``: each component's
    block on its own (a contextual one by ``contextual_reference`` from
    ``lms``, the (forward, backward) CharLms it was built from), then one
    single-row recurrence per direction over the block and over its
    reverse."""
    from histtag.embed import ContextualEmbedder, SentenceGroup

    model = float64_copy(model)
    blocks = []
    for c in model.embedder.components:
        if isinstance(c, ContextualEmbedder):
            blocks.append(contextual_reference(*lms, sentence))
        elif c.named_layers:
            blocks.append(c.forward(SentenceGroup([sentence]))[0])
        else:
            blocks.append(c.forward(SentenceGroup([sentence])))
    vecs = np.concatenate(blocks, axis=1)
    hs_f, _, _ = model.fwd.forward(vecs[None])
    hs_b, _, _ = model.bwd.forward(vecs[None, ::-1])
    emissions, _ = model.projection.forward(
        np.concatenate([hs_f[0], hs_b[0, ::-1]], axis=1))
    return emissions


def _copy_in(dtype, obj):
    """A deep copy of a layer, or of a module and all it holds, whose
    trainable layers hold ``dtype`` copies of its parameters and gradients;
    ``obj`` is left as it is."""
    twin = copy.deepcopy(obj)
    for layer in [twin] if isinstance(twin, Layer) else twin.layers:
        layer.params = {name: value.astype(dtype) for name, value in layer.params.items()}
        layer.grads = {name: value.astype(dtype) for name, value in layer.grads.items()}
    return twin


def float64_copy(obj):
    """``obj`` (a layer, CharLm, char-feature encoder, stack or NerModel)
    in float64.  Layers compute in their input's dtype, and a model's first
    activations take its parameters' dtype (an embedding's rows, a tagger's
    block), so the copy computes in float64 throughout, except for frozen
    contextual blocks; every float32 value converts to float64 exactly, so
    it starts from the same values."""
    return _copy_in(np.float64, obj)


def float32_copy(obj):
    """``obj`` with every parameter rounded to float32: the inverse of
    ``float64_copy``."""
    return _copy_in(np.float32, obj)
