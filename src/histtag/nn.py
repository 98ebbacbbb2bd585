"""Small numpy building blocks with hand-written backward passes.

Every layer keeps its parameters in ``params`` and accumulates gradients
into the matching ``grads`` entries.  ``forward`` returns the output plus an
opaque cache; ``backward`` consumes the cache and the upstream gradient and
returns the gradient with respect to the layer input.  ``Lstm`` is the one
recurrence: it runs a (B, T, D) batch of left-aligned sequences with an
optional ``lengths`` mask, and callers with a single sequence pass B = 1.
Parameters and training math are float64, so analytic gradients can be
checked against central finite differences to tight tolerances.  Any
layer can be copied in float32 (``Layer.cast``) for inference: the frozen
LMs extract with such copies, and ``tagger.predict`` tags with a model whose
trainable layers are.  ``Lstm.forward`` computes in the dtype of its
weights, and its float64 path is the one training runs.
"""

import copy

import numpy as np
from scipy.special import log_softmax

__all__ = [
    "logsumexp",
    "Layer", "Module", "Embedding", "Linear", "Lstm", "Dropout",
    "init_uniform", "cross_entropy", "global_grad_norm",
    "clip_grad_norm", "sgd_step",
]


def logsumexp(a: np.ndarray, axis=None):
    """log(sum(exp(a))) along ``axis`` (all axes when None), shifted by the
    maximum so large entries do not overflow.  A plain numpy helper: the
    CRF calls it once per position on tiny blocks, where scipy's generic
    version spends most of its time dispatching."""
    shift = np.max(a, axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    out = np.log(np.sum(np.exp(a - shift), axis=axis, keepdims=True)) + shift
    return out.reshape(()) if axis is None else np.squeeze(out, axis=axis)


def init_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Uniform init in plus/minus 1/sqrt(fan_in)."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Layer:
    """Base for parameterized blocks: named tensors plus gradient slots.
    A subclass's static ``shapes`` gives the shape of each tensor its
    constructor registers for the same dims, without building it."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def _register(self, name: str, value: np.ndarray) -> None:
        self.params[name] = value
        self.grads[name] = np.zeros_like(value)

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0

    def cast(self, dtype) -> "Layer":
        """A copy of this layer, for inference only, whose parameters are
        ``dtype`` copies of these; it holds no gradients, and this layer is
        left as it is."""
        twin = copy.copy(self)
        twin.params = {name: value.astype(dtype) for name, value in self.params.items()}
        twin.grads = {}
        return twin


class Module:
    """A block built from layers.  ``named_layers`` holds its ordered
    ``(name, layer)`` pairs; that one declaration gives ``layers`` to the
    training loops and the tensor names of model files."""

    named_layers: tuple = ()

    @property
    def layers(self) -> tuple:
        return tuple(layer for _, layer in self.named_layers)

    def zero_grads(self) -> None:
        for layer in self.layers:
            layer.zero_grads()


class Embedding(Layer):
    """Index lookup table; rows receive sparse gradient updates."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self._register("weight", init_uniform(rng, (num_embeddings, dim), dim))

    @staticmethod
    def shapes(num_embeddings: int, dim: int) -> dict:
        return {"weight": (num_embeddings, dim)}

    def forward(self, indices: np.ndarray):
        indices = np.asarray(indices, dtype=np.int64)
        return self.params["weight"][indices], indices

    def backward(self, cache, grad_out: np.ndarray) -> None:
        indices = cache
        np.add.at(self.grads["weight"], indices, grad_out)


class Linear(Layer):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim
        self._register("weight", init_uniform(rng, (in_dim, out_dim), in_dim))
        self._register("bias", np.zeros(out_dim))

    @staticmethod
    def shapes(in_dim: int, out_dim: int) -> dict:
        return {"weight": (in_dim, out_dim), "bias": (out_dim,)}

    def forward(self, x: np.ndarray):
        return x @ self.params["weight"] + self.params["bias"], x

    def backward(self, cache, grad_out: np.ndarray) -> np.ndarray:
        x = cache
        self.grads["weight"] += x.T @ grad_out
        self.grads["bias"] += grad_out.sum(axis=0)
        return grad_out @ self.params["weight"].T


class Lstm(Layer):
    """Single-layer LSTM over a batch of padded sequences.

    Inputs are (B, T, D) with each row's sequence left-aligned; the
    optional ``lengths`` (B,) marks how many leading steps of each row are
    real.  A padded step holds ``h`` and ``c`` unchanged, so a row's final
    state is its state after its last real step, and in backward it passes
    ``dh`` and ``dc`` through unchanged and gives zero input gradient.
    Gate pre-activations sit in one 4H block ordered input, forget, cell,
    output.  The input projection for all steps is one matrix product; the
    recurrence is the only per-step loop, over time-major (T, B, ·) arrays.
    ``forward`` computes in the dtype of the weights (float32 for a layer
    made by ``cast``); ``backward`` is float64 only.
    """

    def __init__(self, input_dim: int, hidden_size: int, rng: np.random.Generator):
        super().__init__()
        self.input_dim = input_dim
        self.hidden_size = hidden_size
        self._register("Wx", init_uniform(rng, (input_dim, 4 * hidden_size), input_dim))
        self._register("Wh", init_uniform(rng, (hidden_size, 4 * hidden_size), hidden_size))
        self._register("bias", np.zeros(4 * hidden_size))
        # sigmoid(a) = (1 + tanh(a / 2)) / 2, so one tanh over the whole 4H
        # block activates all gates: halve the sigmoid gates' pre-activations
        # (exact, a power of two), then map their tanh back by slope, offset
        H = hidden_size
        self._slope = np.concatenate([np.full(2 * H, 0.5), np.ones(H), np.full(H, 0.5)])
        self._offset = np.concatenate([np.full(2 * H, 0.5), np.zeros(H), np.full(H, 0.5)])

    @staticmethod
    def shapes(input_dim: int, hidden_size: int) -> dict:
        return {"Wx": (input_dim, 4 * hidden_size), "Wh": (hidden_size, 4 * hidden_size),
                "bias": (4 * hidden_size,)}

    def forward(self, x: np.ndarray, state=None, lengths=None):
        """Run the recurrence.

        x: (B, T, input_dim); state: optional (h0, c0) each (B, H);
        lengths: optional (B,) ints in [0, T], all T when omitted.
        Returns hs (B, T, H), final state (hT, cT) each (B, H), and the
        backward cache.
        """
        B, T, D = x.shape
        H = self.hidden_size
        dtype = self.params["Wh"].dtype
        if state is None:
            h0 = c0 = np.zeros((B, H), dtype)
        else:
            h0, c0 = state
        pad = _padding_mask(lengths, B, T)
        # no copies in float64, the training path
        slope = self._slope.astype(dtype, copy=False)
        offset = self._offset.astype(dtype, copy=False)
        Wh = self.params["Wh"] * slope
        # time-major, so each step reads and writes contiguous (B, 4H)
        # blocks; gates first hold the scaled input projection, then the
        # activated gates
        x_tm = x.transpose(1, 0, 2).reshape(T * B, D)
        gates = (x_tm @ self.params["Wx"]).reshape(T, B, 4 * H)
        gates += self.params["bias"]
        gates *= slope
        cells = np.empty((T, B, H), dtype)
        hs = np.empty((T, B, H), dtype)
        h, c = h0, c0
        for t in range(T):
            gt = gates[t]
            gt += h @ Wh
            np.tanh(gt, out=gt)
            gt *= slope
            gt += offset
            ct, ht = cells[t], hs[t]
            np.multiply(gt[:, H:2 * H], c, out=ct)
            ct += gt[:, :H] * gt[:, 2 * H:3 * H]
            np.tanh(ct, out=ht)
            ht *= gt[:, 3 * H:]
            if pad is not None and pad[t].any():
                np.copyto(ct, c, where=pad[t][:, None])
                np.copyto(ht, h, where=pad[t][:, None])
            h, c = ht, ct
        cache = (x_tm, pad, h0, c0, gates, cells, hs)
        # copies, so a carried state does not keep the whole cache alive
        return hs.transpose(1, 0, 2), (h.copy(), c.copy()), cache

    def backward(self, cache, grad_hs: np.ndarray, grad_state=None):
        """Backprop through the recurrence.

        grad_hs: (B, T, H) gradient on every step's hidden output;
        grad_state: optional (dhT, dcT) each (B, H), extra gradient on the
        final state.  Returns (dx (B, T, D), (dh0, dc0) each (B, H)).
        """
        x_tm, pad, h0, c0, gates, cells, hs = cache
        T, B, H = cells.shape
        grad_hs = grad_hs.transpose(1, 0, 2)
        i, f, g, o = (gates[..., k * H:(k + 1) * H] for k in range(4))
        # every factor of the gate gradients that does not depend on the
        # recurrence, for all steps at once and in place; the loop then only
        # scales the blocks by dc (input, forget, cell) or dh (output)
        da = np.empty((T, B, 4 * H))
        di, df, dg, do = (da[..., k * H:(k + 1) * H] for k in range(4))
        np.subtract(1.0, i, out=di)
        di *= i
        di *= g
        np.subtract(1.0, f, out=df)
        df *= f
        df[0] *= c0
        df[1:] *= cells[:-1]
        np.multiply(g, g, out=dg)
        np.subtract(1.0, dg, out=dg)
        dg *= i
        tanh_c = np.tanh(cells)
        np.subtract(1.0, o, out=do)
        do *= o
        do *= tanh_c
        # dc picks up dh * o * (1 - tanh(c)^2); reuse the tanh buffer
        dc_from_dh = tanh_c
        np.square(tanh_c, out=dc_from_dh)
        np.subtract(1.0, dc_from_dh, out=dc_from_dh)
        dc_from_dh *= o
        carry_c = f
        if pad is not None:
            da[pad] = 0.0
            dc_from_dh[pad] = 0.0
            carry_c = np.where(pad[..., None], 1.0, f)
        Wh_T = self.params["Wh"].T

        if grad_state is None:
            dh_next = np.zeros((B, H))
            dc_next = np.zeros((B, H))
        else:
            dh_next, dc_next = grad_state
        for t in range(T - 1, -1, -1):
            dh = grad_hs[t] + dh_next
            dc = dh * dc_from_dh[t]
            dc += dc_next
            dat = da[t]
            dat *= np.concatenate((dc, dc, dc, dh), axis=1)
            dc_next = dc * carry_c[t]
            dh_next = dat @ Wh_T
            if pad is not None and pad[t].any():
                dh_next += dh * pad[t][:, None]
        da = da.reshape(T * B, 4 * H)
        self.grads["Wx"] += x_tm.T @ da
        self.grads["Wh"] += hs[:-1].reshape(-1, H).T @ da[B:]
        self.grads["Wh"] += h0.T @ da[:B]
        self.grads["bias"] += da.sum(axis=0)
        dx = (da @ self.params["Wx"].T).reshape(T, B, -1)
        return dx.transpose(1, 0, 2), (dh_next, dc_next)


def _padding_mask(lengths, B: int, T: int):
    """(T, B) bool mask of padded steps, or None when nothing is padded."""
    if lengths is None:
        return None
    lengths = np.asarray(lengths)
    if lengths.shape != (B,) or np.any(lengths < 0) or np.any(lengths > T):
        raise ValueError(f"lengths must be {B} integers in [0, {T}]")
    pad = np.arange(T)[:, None] >= lengths[None, :]
    return pad if pad.any() else None


class Dropout:
    """Inverted dropout, for training only; identity when rate is 0."""

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
        self.rate = rate

    def forward(self, x: np.ndarray, rng: np.random.Generator):
        if self.rate == 0.0:
            return x, None
        mask = (rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        return x * mask, mask

    def backward(self, cache, grad_out: np.ndarray) -> np.ndarray:
        if cache is None:
            return grad_out
        return grad_out * cache


def cross_entropy(logits: np.ndarray, targets: np.ndarray):
    """Per-position negative log-likelihood and its gradient.

    logits: (T, V); targets: (T,) int indices.  Returns (nll (T,), dlogits
    (T, V)) where dlogits is the gradient of nll.sum(); callers scale it
    when they average.
    """
    targets = np.asarray(targets, dtype=np.int64)
    logp = log_softmax(logits, axis=-1)
    rows = np.arange(logits.shape[0])
    nll = -logp[rows, targets]
    dlogits = np.exp(logp)
    dlogits[rows, targets] -= 1.0
    return nll, dlogits


def global_grad_norm(layers) -> float:
    total = 0.0
    for layer in layers:
        for g in layer.grads.values():
            total += float(np.sum(g * g))
    return float(np.sqrt(total))


def clip_grad_norm(layers, max_norm: float) -> float:
    """Scale all gradients down so their joint L2 norm is at most max_norm."""
    norm = global_grad_norm(layers)
    if norm > max_norm:
        scale = max_norm / norm
        for layer in layers:
            for g in layer.grads.values():
                g *= scale
    return norm


def sgd_step(layers, lr: float) -> None:
    for layer in layers:
        for name, p in layer.params.items():
            p -= lr * layer.grads[name]
