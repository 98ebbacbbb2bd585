import tracemalloc

import numpy as np
import pytest

from histtag import nn
from histtag.crf import CrfLayer
from histtag.errors import NonFiniteGradientError
from histtag.nn import (
    AnnealOnPlateau,
    Dropout,
    Embedding,
    Linear,
    Lstm,
    clip_grad_norm,
    clipped_sgd_step,
    cross_entropy,
    init_uniform,
    logsumexp,
    sgd_step,
)

from oracles import (
    cross_entropy_reference,
    float32_copy,
    float64_copy,
    gradient_relative_error,
    lstm_reference_backward,
    lstm_reference_forward,
    numeric_gradient,
)

# finite-difference checks run on float64 copies of the layers
TOL = 1e-4


def check_param(layer, name, loss_fn):
    """Compare a layer's accumulated gradient for params[name] to FD."""
    analytic = layer.grads[name].copy()
    numeric = numeric_gradient(loss_fn, layer.params[name])
    err = gradient_relative_error(analytic, numeric)
    assert err < TOL, f"{name}: rel err {err:.3e}"


class TestEmbedding:
    def test_lookup(self):
        rng = np.random.default_rng(0)
        emb = Embedding(5, 3, rng)
        out, _ = emb.forward([1, 1, 4])
        assert out.shape == (3, 3)
        np.testing.assert_array_equal(out[0], out[1])

    def test_gradient(self):
        rng = np.random.default_rng(1)
        emb = float64_copy(Embedding(6, 4, rng))
        idx = np.array([2, 0, 2, 5])
        R = rng.standard_normal((4, 4))

        def loss():
            out, _ = emb.forward(idx)
            return float(np.sum(out * R))

        out, cache = emb.forward(idx)
        emb.zero_grads()
        emb.backward(cache, R)
        check_param(emb, "weight", loss)


class TestLinear:
    def test_gradients(self):
        rng = np.random.default_rng(2)
        lin = float64_copy(Linear(4, 3, rng))
        x = rng.standard_normal((5, 4))
        R = rng.standard_normal((5, 3))

        def loss():
            out, _ = lin.forward(x)
            return float(np.sum(out * R))

        out, cache = lin.forward(x)
        lin.zero_grads()
        dx = lin.backward(cache, R)
        check_param(lin, "weight", loss)
        check_param(lin, "bias", loss)
        dx_num = numeric_gradient(loss, x)
        assert gradient_relative_error(dx, dx_num) < TOL

    def test_float32_input_computes_in_float32(self):
        """Weight and bias are cast to the input's dtype: a float64 copy
        given a float32 input gives the bits of the float32 layer, and its
        float64 parameters are left as they are."""
        rng = np.random.default_rng(3)
        lin = Linear(4, 3, rng)
        lin.params["bias"][...] = rng.standard_normal(3)
        assert all(p.dtype == np.float32 for p in lin.params.values())
        lin64 = float64_copy(lin)
        before = {name: p.copy() for name, p in lin64.params.items()}
        x = rng.standard_normal((5, 4)).astype(np.float32)
        out, _ = lin64.forward(x)
        want, _ = lin.forward(x)
        assert out.dtype == want.dtype == np.float32
        np.testing.assert_array_equal(out, want)
        for name, p in lin64.params.items():
            assert p.dtype == np.float64
            np.testing.assert_array_equal(p, before[name])


class TestLstm:
    """A padded batch of three rows with lengths 7, 4 and 1 and a carried
    state, through a float64 copy of the layer.  The layer runs every row
    over all 7 steps; the steps past a row's end hold random padding,
    which a row's real steps must not see."""

    LENGTHS = np.array([7, 4, 1])

    def setup_method(self):
        self.rng = np.random.default_rng(4)
        self.lstm = float64_copy(Lstm(3, 5, self.rng))
        self.x = self.rng.standard_normal((3, 7, 3))
        self.h0 = self.rng.standard_normal((3, 5)) * 0.1
        self.c0 = self.rng.standard_normal((3, 5)) * 0.1
        self.R = self.rng.standard_normal((3, 7, 5))
        # the gradient a caller gives: zero past each row's end
        self.R_real = np.where(np.arange(7)[:, None] < self.LENGTHS[:, None, None],
                               self.R, 0.0)

    def loss(self):
        hs, _, _ = self.lstm.forward(self.x, (self.h0, self.c0))
        return float(np.sum(hs * self.R))

    def run_backward(self):
        _, _, cache = self.lstm.forward(self.x, (self.h0, self.c0), keep_cache=True)
        self.lstm.zero_grads()
        return self.lstm.backward(cache, self.R)

    def test_shapes_and_state_carry(self):
        hs, (hT, cT), _ = self.lstm.forward(self.x)
        assert hs.shape == (3, 7, 5) and hT.shape == cT.shape == (3, 5)
        np.testing.assert_array_equal(hs[:, -1], hT)
        # carrying state must differ from a cold start
        hs2, _, _ = self.lstm.forward(self.x, (hT, cT))
        assert not np.allclose(hs, hs2)

    def test_param_gradients(self):
        self.run_backward()
        for name in ("Wx", "Wh", "bias"):
            check_param(self.lstm, name, self.loss)

    def test_input_and_state_gradients(self):
        dx, (dh0, dc0) = self.run_backward()
        assert gradient_relative_error(dx, numeric_gradient(self.loss, self.x)) < TOL
        assert gradient_relative_error(dh0, numeric_gradient(self.loss, self.h0)) < TOL
        assert gradient_relative_error(dc0, numeric_gradient(self.loss, self.c0)) < TOL

    def test_padded_steps_zero_input_gradient(self):
        """A gradient that is zero past each row's end carries exact zeros
        back through the padded steps: their input gradient is 0."""
        _, _, cache = self.lstm.forward(self.x, (self.h0, self.c0), keep_cache=True)
        dx, _ = self.lstm.backward(cache, self.R_real)
        for b, n in enumerate(self.LENGTHS):
            assert np.all(dx[b, n:] == 0.0)
            assert np.all(dx[b, :n] != 0.0)

    def test_zero_weights_zero_hidden(self):
        lstm = Lstm(2, 3, np.random.default_rng(0))
        for p in lstm.params.values():
            p[...] = 0.0
        hs, (hT, cT), _ = lstm.forward(np.ones((2, 4, 2)))
        np.testing.assert_array_equal(hs, 0.0)
        np.testing.assert_array_equal(cT, 0.0)

    @pytest.mark.parametrize("carried", [False, True])
    def test_rows_match_reference(self, carried):
        """Row b's first n steps of the padded batch equal the
        per-sequence loop on its n real steps, forward and, with a gradient
        that is zero past each row's end, backward; the full-length row's
        final state is the loop's.  The two sum in different orders, so
        float64 agreement to 1e-12 is required, not equality."""
        state = (self.h0, self.c0) if carried else None
        hs, (hT, cT), cache = self.lstm.forward(self.x, state, keep_cache=True)
        self.lstm.zero_grads()
        dx, (dh0, dc0) = self.lstm.backward(cache, self.R_real)
        grads = {name: np.zeros_like(p) for name, p in self.lstm.params.items()}
        for b, n in enumerate(self.LENGTHS):
            row_state = None if state is None else (self.h0[b], self.c0[b])
            ref_hs, (ref_h, ref_c), ref_cache = lstm_reference_forward(
                self.lstm.params, self.x[b, :n], row_state)
            np.testing.assert_allclose(hs[b, :n], ref_hs, rtol=0, atol=1e-12)
            if n == hs.shape[1]:
                np.testing.assert_allclose(hT[b], ref_h, rtol=0, atol=1e-12)
                np.testing.assert_allclose(cT[b], ref_c, rtol=0, atol=1e-12)
            ref_dx, (ref_dh0, ref_dc0), ref_grads = lstm_reference_backward(
                self.lstm.params, ref_cache, self.R[b, :n])
            np.testing.assert_allclose(dx[b, :n], ref_dx, rtol=0, atol=1e-12)
            np.testing.assert_allclose(dh0[b], ref_dh0, rtol=0, atol=1e-12)
            np.testing.assert_allclose(dc0[b], ref_dc0, rtol=0, atol=1e-12)
            for name in grads:
                grads[name] += ref_grads[name]
        for name, grad in grads.items():
            np.testing.assert_allclose(self.lstm.grads[name], grad, rtol=0, atol=1e-12)

    def test_float32_cast_agrees_with_float64(self):
        """A float32 copy of the layer runs the same kernel in float32.
        Against the float64 run on the same inputs it agrees within 3e-7:
        over 20 seeds of this set-up, outputs and cells (up to 0.62)
        differed by at most 8.9e-8.  The layer copied is left as it is."""
        before = {name: p.copy() for name, p in self.lstm.params.items()}
        lstm32 = float32_copy(self.lstm)
        hs, (hT, cT), _ = self.lstm.forward(self.x, (self.h0, self.c0))
        hs32, (hT32, cT32), _ = lstm32.forward(
            self.x.astype(np.float32),
            (self.h0.astype(np.float32), self.c0.astype(np.float32)))
        for got, want in ((hs32, hs), (hT32, hT), (cT32, cT)):
            assert got.dtype == np.float32
            np.testing.assert_allclose(got, want, rtol=0, atol=3e-7)
        for name, p in self.lstm.params.items():
            assert p.dtype == np.float64 and lstm32.params[name].dtype == np.float32
            np.testing.assert_array_equal(p, before[name])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_only_a_forward_asked_keeps_a_cache(self, dtype):
        """A forward keeps its cache exactly when its caller asks, in
        either dtype, and asking changes no output bit.  Backward runs in
        the dtype of the cache: its input and state gradients come out in
        it, and a float32 backward of the float32 layer agrees with the
        float64 copy's within 1e-6 (about 1.2e-7 measured here)."""
        lstm = self.lstm if dtype == np.float64 else float32_copy(self.lstm)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((3, 7, 3)).astype(dtype)
            state = tuple(rng.standard_normal((3, 5)).astype(dtype) * 0.1 for _ in range(2))
            hs, (hT, cT), cache = lstm.forward(x, state)
            k_hs, (k_hT, k_cT), kept = lstm.forward(x, state, keep_cache=True)
            assert cache is None and kept is not None
            for got, want in ((hs, k_hs), (hT, k_hT), (cT, k_cT)):
                assert got.dtype == want.dtype == dtype
                np.testing.assert_array_equal(got, want)
            R = self.R.astype(dtype)
            dx, (dh0, dc0) = lstm.backward(kept, R)
            assert dx.dtype == dh0.dtype == dc0.dtype == dtype
            assert all(g.dtype == dtype for g in lstm.grads.values())
            _, _, cache64 = self.lstm.forward(x.astype(np.float64),
                                              tuple(s.astype(np.float64) for s in state),
                                              keep_cache=True)
            want_dx, _ = self.lstm.backward(cache64, self.R)
            np.testing.assert_allclose(dx, want_dx, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("lengths", [(7, 4, 1), (1,), (7,)])
    @pytest.mark.parametrize("steps", [1, 3, 7, 10])
    def test_blocks_give_the_bits_of_the_cache_keeping_forward(self, monkeypatch, steps,
                                                               lengths):
        """A forward that keeps no cache projects its input a block of
        steps at a time and keeps only two cells; it returns the bits of
        the forward that keeps its cache, which projects all T = 7 steps at
        once.  The block budget is patched to blocks of one step, of three
        (the last block, ending at T, overlaps the one before) and of at
        least T; at B = 1 a block holds two steps, so no product is a
        single row.  Rows of ``lengths`` real steps padded with zeros to
        T, as callers pass them; from a zero and from a carried state, on
        the float32 layer and on its float64 copy."""
        layer = Lstm(3, 5, np.random.default_rng(4))
        rng = np.random.default_rng(steps)
        B = len(lengths)
        real = np.arange(7) < np.array(lengths)[:, None]
        for lstm in (layer, float64_copy(layer)):
            dtype = lstm.params["Wx"].dtype
            monkeypatch.setattr(nn, "BLOCK_BYTES", steps * B * 4 * 5 * dtype.itemsize)
            x = np.where(real[..., None], rng.standard_normal((B, 7, 3)), 0.0).astype(dtype)
            carried = tuple(rng.standard_normal((B, 5)).astype(dtype) * 0.1 for _ in range(2))
            for state in (None, carried):
                hs, (hT, cT), cache = lstm.forward(x, state)
                k_hs, (k_hT, k_cT), _ = lstm.forward(x, state, keep_cache=True)
                assert cache is None
                for got, want in ((hs, k_hs), (hT, k_hT), (cT, k_cT)):
                    assert got.dtype == dtype
                    np.testing.assert_array_equal(got, want)

    def test_cache_free_forward_peak_is_bounded(self):
        """Traced allocations of one forward that keeps no cache, at B = 8,
        T = 512, H = 256, against the bytes of the hidden states it returns
        and of Wh, whose gate-scaled copy it makes: about 1.22x.
        Projecting all T at once and keeping every step's cell, as the
        cache-keeping forward does, peaked at about 5.06x."""
        rng = np.random.default_rng(0)
        lstm = Lstm(16, 256, rng)
        x = rng.standard_normal((8, 512, 16)).astype(np.float32)
        tracemalloc.start()
        try:
            hs, _, _ = lstm.forward(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * (hs.nbytes + lstm.params["Wh"].nbytes)


class TestDropout:
    def test_zero_rate_is_identity(self):
        x = np.ones((3, 3))
        out, cache = Dropout(0.0).forward(x, np.random.default_rng(0))
        assert out is x and cache is None

    def test_training_scales_survivors(self):
        x = np.ones((200, 50))
        drop = Dropout(0.3)
        out, mask = drop.forward(x, np.random.default_rng(1))
        survivors = out[out != 0]
        np.testing.assert_allclose(survivors, 1.0 / 0.7)
        assert abs(out.mean() - 1.0) < 0.05
        grad = drop.backward(mask, np.ones_like(x))
        np.testing.assert_array_equal(grad, mask)

    def test_batched_draw_equals_successive_draws(self):
        """One (B, T, H) mask consumes the generator exactly like B
        successive (T, H) masks: batching LM strands keeps the dropout
        stream of the strand-by-strand loop."""
        drop = Dropout(0.4)
        x = np.ones((4, 6, 5))
        _, batched = drop.forward(x, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        rows = [drop.forward(x[b], rng)[1] for b in range(4)]
        np.testing.assert_array_equal(batched, np.stack(rows))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mask_keeps_the_activations_dtype(self, dtype):
        """A float32 input gets a float32 mask, so dropout does not widen
        float32 activations; the float64 mask holds the bits of
        ``keep / (1 - rate)`` in float64, and both consume the same draws."""
        drop = Dropout(0.1)
        x = np.ones((5, 7), dtype)
        out, mask = drop.forward(x, np.random.default_rng(2))
        assert out.dtype == mask.dtype == dtype
        assert drop.backward(mask, np.ones_like(x)).dtype == dtype
        keep = np.random.default_rng(2).random(x.shape) >= 0.1
        np.testing.assert_array_equal(mask, (keep / 0.9).astype(dtype))

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestLogsumexp:
    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_matches_scipy(self, axis):
        from scipy.special import logsumexp as scipy_logsumexp

        a = np.random.default_rng(7).standard_normal((13, 13)) * 300.0
        np.testing.assert_allclose(logsumexp(a, axis=axis),
                                   scipy_logsumexp(a, axis=axis), rtol=1e-13)

    def test_scalar_result_and_large_entries(self):
        out = logsumexp(np.array([1000.0, 1000.0]))
        assert out.shape == () and float(out) == pytest.approx(1000.0 + np.log(2.0))


class TestCrossEntropy:
    def test_matches_manual(self):
        logits = np.log(np.array([[0.5, 0.25, 0.25]]))
        nll, _ = cross_entropy(logits, [0])
        assert abs(nll[0] - np.log(2.0)) < 1e-12

    def test_gradient(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((6, 4))
        targets = rng.integers(0, 4, size=6)

        def loss():
            nll, _ = cross_entropy(logits, targets)
            return float(nll.sum())

        _, dlogits = cross_entropy(logits, targets)
        assert gradient_relative_error(dlogits, numeric_gradient(loss, logits)) < TOL

    # LM training's (B * T, V) block, and perplexity scoring's blocks of
    # one to EVAL_CHUNK positions
    @pytest.mark.parametrize("rows", [400, 1, 37, 4096])
    @pytest.mark.parametrize("case", ["plain", "large", "some_inf", "all_inf_rows"])
    def test_same_bits_as_scipy(self, rows, case):
        """All -inf rows log a zero sum and subtract -inf from -inf: numpy
        is told to ignore the invalid value (NaN), not the divide, so the
        test also sees cross_entropy keep quiet about log(0) as scipy does."""
        rng = np.random.default_rng(rows)
        logits = rng.standard_normal((rows, 60)) * (1e150 if case == "large" else 3.0)
        if case in ("some_inf", "all_inf_rows"):
            logits[rng.random(logits.shape) < 0.3] = -np.inf
            logits[:, 0] = 0.0
        if case == "all_inf_rows":
            logits[::3] = -np.inf
        targets = rng.integers(0, 60, size=rows)
        with np.errstate(invalid="ignore" if case == "all_inf_rows" else "warn"):
            nll, dlogits = cross_entropy(logits, targets)
            want_nll, want_dlogits = cross_entropy_reference(logits, targets)
        assert nll.dtype == want_nll.dtype and dlogits.dtype == want_dlogits.dtype
        assert np.array_equal(nll, want_nll, equal_nan=True)
        assert np.array_equal(dlogits, want_dlogits, equal_nan=True)


class TestOptimizerUtils:
    def _layer_with_grad(self, g):
        rng = np.random.default_rng(0)
        lin = Linear(2, 2, rng)  # the bias gradient stays 0
        lin.grads["weight"][...] = g
        return lin

    def test_clip_scales_down(self):
        lin = self._layer_with_grad(3.0)
        norm = clip_grad_norm([lin], 1.0)
        assert norm == pytest.approx(6.0)
        # the four weight entries of 3.0 scale to 0.5 each; the bias stays 0
        np.testing.assert_allclose(lin.grads["weight"], 0.5)
        np.testing.assert_array_equal(lin.grads["bias"], 0.0)
        flat = np.concatenate([g.ravel() for g in lin.grads.values()])
        assert np.linalg.norm(flat) == pytest.approx(1.0)

    def test_clip_leaves_small_grads(self):
        lin = self._layer_with_grad(0.1)
        before = lin.grads["weight"].copy()
        clip_grad_norm([lin], 5.0)
        np.testing.assert_array_equal(lin.grads["weight"], before)

    def test_sgd_step(self):
        lin = self._layer_with_grad(1.0)
        before = lin.params["weight"].copy()
        sgd_step([lin], lr=0.5)
        np.testing.assert_allclose(lin.params["weight"], before - 0.5)

    @pytest.mark.parametrize("g, max_norm, norm, clipped, moved", [
        (3.0, 1.0, 6.0, True, 0.5),    # clipped to 0.5 per entry
        (0.1, 5.0, 0.2, False, 0.1),   # left as it is
        (2.5, 5.0, 5.0, False, 2.5),   # a norm equal to the bound is not clipped
    ])
    def test_clipped_sgd_step(self, g, max_norm, norm, clipped, moved):
        lin = self._layer_with_grad(g)
        before = lin.params["weight"].copy()
        got_norm, got_clipped = clipped_sgd_step([lin], 2.0, max_norm, "x", 1, 1)
        assert got_norm == pytest.approx(norm) and got_clipped is clipped
        np.testing.assert_allclose(lin.params["weight"], before - 2.0 * moved, rtol=1e-6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_clipped_sgd_step_refuses_a_non_finite_gradient(self, bad):
        """An infinite entry raises too, without the RuntimeWarning that
        scaling it by max_norm / inf = 0 would give."""
        rng = np.random.default_rng(1)
        layers = [Linear(2, 2, rng), Lstm(2, 3, rng)]
        layers[0].grads["weight"][...] = 1.0
        layers[1].grads["Wh"][1, 2] = bad
        before = [{n: p.copy() for n, p in layer.params.items()} for layer in layers]
        with pytest.raises(NonFiniteGradientError,
                           match="tagger training: .* at epoch 4, step 7") as info:
            clipped_sgd_step(layers, 0.5, 5.0, "tagger training", 4, 7)
        assert (info.value.epoch, info.value.step) == (4, 7)
        for layer, saved in zip(layers, before):
            for name, p in layer.params.items():
                np.testing.assert_array_equal(p, saved[name])

    def test_init_bounds(self):
        rng = np.random.default_rng(6)
        w = init_uniform(rng, (1000,), 16)
        assert np.all(np.abs(w) <= 0.25)
        assert w.std() > 0.05


LAYER_MAKERS = {
    "Embedding": lambda rng: Embedding(5, 3, rng),
    "Linear": lambda rng: Linear(4, 3, rng),
    "Lstm": lambda rng: Lstm(4, 3, rng),
    "CrfLayer": lambda rng: CrfLayer(("B-LOC", "E-LOC", "O", "S-PER"), rng),
}


@pytest.mark.parametrize("make", LAYER_MAKERS.values(), ids=LAYER_MAKERS.keys())
def test_a_layer_built_with_no_rng_declares_its_tensors_and_holds_none(make):
    """Nor any array sized by its dims (an Lstm's gate scales, a CRF's
    move mask): those are computed on first use."""
    empty, built = make(None), make(np.random.default_rng(0))
    assert empty.params == {} and empty.grads == {}
    assert not [key for key, value in vars(empty).items() if isinstance(value, np.ndarray)]
    assert list(empty.shapes.items()) == [(name, p.shape) for name, p in built.params.items()]
    for name, p in built.params.items():
        assert p.dtype == built.grads[name].dtype == np.float32
        assert built.grads[name].shape == p.shape and not built.grads[name].any()


def schedule_run(schedule, scores):
    """Each step's (improved, annealed, rate after it)."""
    return [schedule.step(score) + (schedule.lr,) for score in scores]


class TestAnnealOnPlateau:
    def test_strict_improvement_keeps_the_rate(self):
        schedule = AnnealOnPlateau(1.0, patience=1, best=0.0)
        assert schedule_run(schedule, [0.1, 0.2, 0.5]) == [(True, False, 1.0)] * 3
        assert schedule.best == 0.5 and schedule.stagnant == 0

    def test_a_tie_is_stagnant(self):
        schedule = AnnealOnPlateau(1.0, patience=2, best=0.0)
        assert schedule_run(schedule, [0.5, 0.5, 0.5, 0.6]) == [
            (True, False, 1.0), (False, False, 1.0), (False, True, 0.5), (True, False, 0.5)]

    def test_a_tie_at_the_initial_best_is_stagnant(self):
        # a tagger whose dev F1 stays 0 anneals as if it got worse
        schedule = AnnealOnPlateau(0.1, patience=3, best=0.0)
        assert schedule_run(schedule, [0.0] * 3) == [
            (False, False, 0.1), (False, False, 0.1), (False, True, 0.05)]
        assert schedule.best == 0.0

    def test_patience_zero_anneals_as_patience_one(self):
        scores = [0.2, 0.1, 0.3, 0.3, 0.3, 0.4, 0.0]
        runs = [schedule_run(AnnealOnPlateau(2.0, patience, 0.0), scores)
                for patience in (0, 1)]
        assert runs[0] == runs[1]
        assert [lr for _, _, lr in runs[0]] == [2.0, 1.0, 1.0, 0.5, 0.25, 0.25, 0.125]

    def test_count_restarts_after_a_cut(self):
        schedule = AnnealOnPlateau(1.0, patience=2, best=0.0)
        annealed = [cut for _, cut, _ in schedule_run(schedule, [0.0] * 7)]
        assert annealed == [False, True, False, True, False, True, False]
        assert schedule.lr == 0.125 and schedule.stagnant == 1

    def test_an_improvement_resets_the_count(self):
        # the stagnant epoch before the gain does not count towards the cut
        schedule = AnnealOnPlateau(1.0, patience=2, best=0.0)
        annealed = [cut for _, cut, _ in schedule_run(schedule, [0.0, 0.1, 0.1, 0.1])]
        assert annealed == [False, False, False, True]

    def test_min_mode_through_the_negated_loss(self):
        """A loss enters negated from -inf.  An infinite or NaN loss is no
        improvement, as it is for ``loss < best`` starting at inf."""
        losses = [np.inf, 3.0, 2.0, 2.0, np.nan, 2.5, 1.0, np.inf, 0.5]
        schedule = AnnealOnPlateau(20.0, patience=1, best=-np.inf)
        got = schedule_run(schedule, [-loss for loss in losses])
        lr, best, want = 20.0, np.inf, []
        for loss in losses:
            improved = loss < best
            if improved:
                best = loss
            else:
                lr *= 0.5
            want.append((improved, not improved, lr))
        assert got == want
        assert [improved for improved, _, _ in got] == [
            False, True, True, False, False, False, True, False, True]
        assert schedule.best == -0.5
