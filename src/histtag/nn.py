"""Small numpy building blocks with hand-written backward passes.

Every layer keeps its parameters in ``params`` and accumulates gradients
into the matching ``grads`` entries.  Its constructor declares each tensor
once (``Layer._register``), recording its shape in ``shapes``: given an rng
it draws the tensor beside a zero gradient slot, given None it allocates
nothing: ``serialization.assign_tensors`` then gives it the arrays read
from a model file, and no gradient slots, since nothing trains a loaded
model.  ``forward`` returns the output plus an opaque cache; ``backward``
consumes the cache and the upstream gradient and returns the gradient
with respect to the layer input.  ``Lstm`` is the one recurrence: it runs
a (B, T, D) batch of left-aligned sequences, unmasked (see ``Lstm``), and
callers with a single sequence pass B = 1.
Parameters and gradients are float32, the precision model files store, so
training and inference compute in it.  ``Linear.forward``,
``Lstm.forward`` and ``Lstm.backward`` compute in the dtype of their input
or cache, casting the parameters to it (no copy when they already match),
so a float64 copy of a layer (``float64_copy`` in tests/oracles.py) runs in
float64, where analytic gradients can be checked against central finite
differences to tight tolerances.  ``Lstm.forward`` keeps its gates and
cells for ``backward`` only when its caller asks (``keep_cache``), as the
training loops do.  Every other forward projects its input BLOCK_BYTES of
gates at a time into one buffer and keeps only the current and previous
cells, so beyond the hidden states it returns its working set is bounded
whatever T is, with the bits of one projection over all T.
"""

import copy
import functools
import math
from typing import Optional

import numpy as np

from .errors import NonFiniteGradientError

__all__ = [
    "logsumexp",
    "Layer", "Module", "Embedding", "Linear", "Lstm", "Dropout",
    "init_uniform", "cross_entropy", "clip_grad_norm", "sgd_step",
    "clipped_sgd_step", "AnnealOnPlateau",
]

# the gates an ``Lstm.forward`` that keeps no backward cache projects at a
# time, in bytes: its working set beyond the states it returns
BLOCK_BYTES = 1 << 20


def _shifted(a: np.ndarray, axis):
    """``a`` less its maximum along ``axis`` (a non-finite maximum counts as
    0, as in scipy.special), that maximum, and log(sum(exp(a - maximum)))
    with the axis kept."""
    shift = np.max(a, axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    tmp = a - shift
    return tmp, shift, np.log(np.sum(np.exp(tmp), axis=axis, keepdims=True))


def logsumexp(a: np.ndarray, axis=None):
    """log(sum(exp(a))) along ``axis`` (all axes when None), shifted by the
    maximum so large entries do not overflow.  A plain numpy helper: the
    CRF calls it once per position on tiny blocks, where scipy's generic
    version spends most of its time dispatching."""
    _, shift, log_sum = _shifted(a, axis)
    out = log_sum + shift
    return out.reshape(()) if axis is None else np.squeeze(out, axis=axis)


def init_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Uniform init in plus/minus 1/sqrt(fan_in)."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Layer:
    """Base for parameterized blocks: named tensors plus, in a layer drawn
    for training, gradient slots.  Only a drawn layer allocates its
    tensors; a loaded one keeps the arrays ``load_tensors`` read."""

    def __init__(self):
        self.shapes: dict[str, tuple] = {}
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def _register(self, name: str, shape: tuple, rng, fan_in=None) -> None:
        """Declare tensor ``name`` of ``shape``.  With an ``rng`` it holds a
        float32 draw of ``init_uniform`` at ``fan_in``, or zeros without
        one, beside a zero gradient slot; with None it allocates nothing."""
        self.shapes[name] = shape
        if rng is not None:
            self.params[name] = (np.zeros(shape, np.float32) if fan_in is None
                                 else init_uniform(rng, shape, fan_in).astype(np.float32))
            # untouched pages of a fresh zero array take no memory, so the
            # slots of a layer that never trains cost none
            self.grads[name] = np.zeros(shape, np.float32)

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0

    def frozen(self) -> "Layer":
        """A copy of this layer for inference only: it shares these
        parameters and holds no gradient slots."""
        twin = copy.copy(self)
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

    def __init__(self, num_embeddings: int, dim: int, rng: Optional[np.random.Generator]):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self._register("weight", (num_embeddings, dim), rng, dim)

    def forward(self, indices: np.ndarray):
        indices = np.asarray(indices, dtype=np.int64)
        return self.params["weight"][indices], indices

    def backward(self, cache, grad_out: np.ndarray) -> None:
        indices = cache
        np.add.at(self.grads["weight"], indices, grad_out)


class Linear(Layer):
    def __init__(self, in_dim: int, out_dim: int, rng: Optional[np.random.Generator]):
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim
        self._register("weight", (in_dim, out_dim), rng, in_dim)
        self._register("bias", (out_dim,), rng)

    def forward(self, x: np.ndarray):
        weight = self.params["weight"].astype(x.dtype, copy=False)
        bias = self.params["bias"].astype(x.dtype, copy=False)
        return x @ weight + bias, x

    def backward(self, cache, grad_out: np.ndarray) -> np.ndarray:
        x = cache
        self.grads["weight"] += x.T @ grad_out
        self.grads["bias"] += grad_out.sum(axis=0)
        return grad_out @ self.params["weight"].T


class Lstm(Layer):
    """Single-layer LSTM over a batch of padded sequences.

    Inputs are (B, T, D) with each row's sequence left-aligned, padded
    after it.  Every row runs all T steps, so its real steps never see its
    padding; callers read only those steps, and a gradient that is zero
    past each row's end gives exactly zero input gradient there.
    Gate pre-activations sit in one 4H block ordered input, forget, cell,
    output.  The input projection for a block of steps is one matrix
    product; the recurrence is the only per-step loop, over time-major
    (T, B, ·) arrays.
    ``forward`` computes in the dtype of ``x`` and ``backward`` in the dtype
    of its cache.
    """

    def __init__(self, input_dim: int, hidden_size: int, rng: Optional[np.random.Generator]):
        super().__init__()
        self.input_dim = input_dim
        self.hidden_size = hidden_size
        self._register("Wx", (input_dim, 4 * hidden_size), rng, input_dim)
        self._register("Wh", (hidden_size, 4 * hidden_size), rng, hidden_size)
        self._register("bias", (4 * hidden_size,), rng)

    @functools.cached_property
    def _gate_maps(self) -> tuple[np.ndarray, np.ndarray]:
        """sigmoid(a) = (1 + tanh(a / 2)) / 2, so one tanh over the whole 4H
        block activates all gates: halve the sigmoid gates' pre-activations
        (exact, a power of two), then map their tanh back by this slope and
        offset.  Computed on first use, so a layer built with no rng holds
        no array."""
        cell = np.arange(4 * self.hidden_size) // self.hidden_size == 2
        return (np.where(cell, 1.0, 0.5).astype(np.float32),
                np.where(cell, 0.0, 0.5).astype(np.float32))

    def forward(self, x: np.ndarray, state=None, keep_cache=False):
        """Run the recurrence.

        x: (B, T, input_dim); state: optional (h0, c0) each (B, H).
        Returns hs (B, T, H), the state (hT, cT) after step T - 1, each
        (B, H), and the backward cache when ``keep_cache``, else None.
        The input projection runs a block of steps at a time: all T when
        ``keep_cache``, as backward reads every step's gates and cells;
        otherwise blocks of about BLOCK_BYTES of gates, in one reused
        buffer, and only the current and previous cells are kept, so the
        working set beyond the returned states does not grow with T.
        """
        B, T, D = x.shape
        H = self.hidden_size
        dtype = x.dtype
        if state is None:
            h0 = c0 = np.zeros((B, H), dtype)
        else:
            h0, c0 = state
        # no copies when the parameters are in ``dtype`` already
        Wx, Wh, bias = (self.params[name].astype(dtype, copy=False)
                        for name in ("Wx", "Wh", "bias"))
        slope, offset = (a.astype(dtype, copy=False) for a in self._gate_maps)
        Wh = Wh * slope
        # time-major, so each step reads and writes contiguous (B, 4H)
        # blocks; gates first hold a block's scaled input projection, then
        # its activated gates
        x_tm = x.transpose(1, 0, 2)
        if keep_cache:
            # backward reads all of x and every step's gates and cells
            x_tm = np.ascontiguousarray(x_tm)
            steps, cells = T, np.empty((T, B, H), dtype)
        else:
            # blocks of equal size and never of a single row: with
            # OpenBLAS, a one-row product (numpy's gemv) or a short last
            # block can round a gate's last bit unlike one product over T
            step_bytes = max(B, 1) * 4 * H * np.dtype(dtype).itemsize
            steps = min(T, max(BLOCK_BYTES // step_bytes, 2 // max(B, 1), 1))
            cells = np.empty((2, B, H), dtype)
        gates = np.empty((steps, B, 4 * H), dtype)
        hs = np.empty((T, B, H), dtype)
        h, c = h0, c0
        for t0 in range(0, T, max(steps, 1)):  # steps is 0 only when T is
            # every block holds ``steps`` steps: the last ends at T and may
            # overlap the one before
            start = min(t0, T - steps)
            np.matmul(x_tm[start:start + steps].reshape(steps * B, D), Wx,
                      out=gates.reshape(steps * B, 4 * H))
            gates += bias
            gates *= slope
            for t in range(t0, min(t0 + steps, T)):
                gt = gates[t - start]
                gt += h @ Wh
                np.tanh(gt, out=gt)
                gt *= slope
                gt += offset
                ct, ht = cells[t % len(cells)], hs[t]
                np.multiply(gt[:, H:2 * H], c, out=ct)
                ct += gt[:, :H] * gt[:, 2 * H:3 * H]
                np.tanh(ct, out=ht)
                ht *= gt[:, 3 * H:]
                h, c = ht, ct
        cache = ((x_tm.reshape(T * B, D), h0, c0, gates, cells, hs)
                 if keep_cache else None)
        # copies, so a carried state does not keep the whole cache alive
        return hs.transpose(1, 0, 2), (h.copy(), c.copy()), cache

    def backward(self, cache, grad_hs: np.ndarray):
        """Backprop through the recurrence.

        grad_hs: (B, T, H) gradient on every step's hidden output.
        Returns (dx (B, T, D), (dh0, dc0) each (B, H)).
        """
        x_tm, h0, c0, gates, cells, hs = cache
        T, B, H = cells.shape
        dtype = cells.dtype
        grad_hs = grad_hs.transpose(1, 0, 2)
        i, f, g, o = (gates[..., k * H:(k + 1) * H] for k in range(4))
        # every factor of the gate gradients that does not depend on the
        # recurrence, for all steps at once and in place; the loop then only
        # scales the blocks by dc (input, forget, cell) or dh (output)
        da = np.empty((T, B, 4 * H), dtype)
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
        Wx, Wh = (self.params[name].astype(dtype, copy=False) for name in ("Wx", "Wh"))
        Wh_T = Wh.T

        dh_next = dc_next = np.zeros((B, H), dtype)
        for t in range(T - 1, -1, -1):
            dh = grad_hs[t] + dh_next
            dc = dh * dc_from_dh[t]
            dc += dc_next
            dat = da[t]
            dat *= np.concatenate((dc, dc, dc, dh), axis=1)
            dc_next = dc * f[t]
            dh_next = dat @ Wh_T
        da = da.reshape(T * B, 4 * H)
        self.grads["Wx"] += x_tm.T @ da
        self.grads["Wh"] += hs[:-1].reshape(-1, H).T @ da[B:]
        self.grads["Wh"] += h0.T @ da[:B]
        self.grads["bias"] += da.sum(axis=0)
        dx = (da @ Wx.T).reshape(T, B, -1)
        return dx.transpose(1, 0, 2), (dh_next, dc_next)


class Dropout:
    """Inverted dropout, for training only; identity when rate is 0.  The
    mask is in the dtype of ``x``, so it keeps the activations' dtype."""

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
        self.rate = rate

    def forward(self, x: np.ndarray, rng: np.random.Generator):
        if self.rate == 0.0:
            return x, None
        mask = np.divide(rng.random(x.shape) >= self.rate, 1.0 - self.rate, dtype=x.dtype)
        return x * mask, mask

    def backward(self, cache, grad_out: np.ndarray) -> np.ndarray:
        if cache is None:
            return grad_out
        return grad_out * cache


def cross_entropy(logits: np.ndarray, targets: np.ndarray):
    """Per-position negative log-likelihood and its gradient.

    logits: (T, V); targets: (T,) int indices.  Returns (nll (T,), dlogits
    (T, V)) where dlogits is the gradient of nll.sum(); callers scale it
    when they average.  The log-softmax takes scipy.special.log_softmax's
    steps in its order, so it gives the same bits; like scipy, it does not
    warn when a row of all -inf logs a zero sum.
    """
    targets = np.asarray(targets, dtype=np.int64)
    with np.errstate(divide="ignore"):
        shifted, _, log_sum = _shifted(logits, -1)
    logp = shifted - log_sum
    rows = np.arange(logits.shape[0])
    nll = -logp[rows, targets]
    dlogits = np.exp(logp)
    dlogits[rows, targets] -= 1.0
    return nll, dlogits


def clip_grad_norm(layers, max_norm: float) -> float:
    """Scale all gradients down to a joint L2 norm of at most max_norm; returns the norm before."""
    total = 0.0
    for layer in layers:
        for g in layer.grads.values():
            total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    # an infinite norm would scale by 0 and turn inf entries into NaN
    if max_norm < norm < math.inf:
        scale = max_norm / norm
        for layer in layers:
            for g in layer.grads.values():
                g *= scale
    return norm


def sgd_step(layers, lr: float) -> None:
    for layer in layers:
        for name, p in layer.params.items():
            p -= lr * layer.grads[name]


def clipped_sgd_step(layers, lr: float, max_norm: float, what: str, epoch: int,
                     step: int) -> tuple[float, bool]:
    """Clip to ``max_norm``, then step at ``lr``; returns the pre-clip norm and
    whether it clipped.  A non-finite norm raises for ``what`` at ``epoch``,
    ``step`` instead of stepping.  Calls both by the names bench/tracing.py wraps."""
    norm = clip_grad_norm(layers, max_norm)
    if not np.isfinite(norm):
        raise NonFiniteGradientError(what, epoch, step)
    sgd_step(layers, lr)
    return norm, norm > max_norm


class AnnealOnPlateau:
    """Both training loops' learning-rate schedule, in max mode (a loss
    enters negated).  A score strictly above ``best`` becomes the best and
    resets the stagnant count; a tie (at the initial ``best`` too), a worse
    score or NaN is stagnant.  ``patience`` stagnant epochs in a row (0 acts
    as 1) halve ``lr`` and restart the count.  Flair halves once
    ``num_bad_epochs > patience``, a stagnant epoch later: p here is its p - 1."""

    def __init__(self, lr: float, patience: int, best: float):
        self.lr, self.patience, self.best, self.stagnant = lr, patience, best, 0

    def step(self, score: float) -> tuple[bool, bool]:
        """Count an epoch's score; returns (improved, rate was cut)."""
        if score > self.best:
            self.best, self.stagnant = score, 0
            return True, False
        self.stagnant += 1
        annealed = self.stagnant >= self.patience
        if annealed:
            self.lr *= 0.5
            self.stagnant = 0
        return False, annealed
