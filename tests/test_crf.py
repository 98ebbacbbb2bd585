import math

import numpy as np
import pytest

from histtag.corpus import TagScheme, extract_spans
from histtag.crf import (
    FORBIDDEN_SCORE,
    CrfLayer,
    crf_nll_with_grads,
    iobes_constraint_mask,
    viterbi_decode,
)

from conftest import decode_of, log_partition_of, nll_of, score_of
from oracles import (
    brute_log_partition,
    brute_nll,
    brute_nll_gradients,
    brute_viterbi,
    crf_nll_reference,
    float64_copy,
    gradient_relative_error,
    numeric_gradient,
    viterbi_reference,
)

IOBES_TAGS = ("O", "B-PER", "I-PER", "E-PER", "S-PER", "B-LOC", "I-LOC",
              "E-LOC", "S-LOC")


def free_crf(num_tags, seed=0):
    """CRF over single-token tags, whose IOBES mask pins only moves into
    START, moves out of STOP and START→STOP: every path of length ≥ 1 is
    allowed.  A float64 copy: the CRF computes in float64, and its
    gradients, held in float64, match the oracles to their tolerances."""
    tags = [f"S-T{i}" for i in range(num_tags)]
    return float64_copy(CrfLayer(tags, np.random.default_rng(seed)))


def random_instance(rng, T, K):
    crf = free_crf(K, seed=int(rng.integers(2**31)))
    n = K + 2
    crf.params["transitions"][crf.allowed] = rng.standard_normal(
        int(crf.allowed.sum()))
    emissions = rng.standard_normal((T, K))
    return emissions, crf


class TestConstraintMask:
    def test_start_and_stop_rules(self):
        m = iobes_constraint_mask(IOBES_TAGS)
        idx = {t: i for i, t in enumerate(IOBES_TAGS)}
        start, stop = len(IOBES_TAGS), len(IOBES_TAGS) + 1
        assert m[start, idx["O"]] and m[start, idx["B-PER"]] and m[start, idx["S-LOC"]]
        assert not m[start, idx["I-PER"]] and not m[start, idx["E-PER"]]
        assert m[idx["O"], stop] and m[idx["E-LOC"], stop] and m[idx["S-PER"], stop]
        assert not m[idx["B-PER"], stop] and not m[idx["I-LOC"], stop]

    def test_inner_rules(self):
        m = iobes_constraint_mask(IOBES_TAGS)
        idx = {t: i for i, t in enumerate(IOBES_TAGS)}
        assert m[idx["B-PER"], idx["I-PER"]] and m[idx["B-PER"], idx["E-PER"]]
        assert not m[idx["B-PER"], idx["I-LOC"]]
        assert not m[idx["B-PER"], idx["O"]]
        assert not m[idx["B-PER"], idx["B-PER"]]
        assert m[idx["I-PER"], idx["E-PER"]] and not m[idx["I-PER"], idx["S-PER"]]
        assert m[idx["E-PER"], idx["B-LOC"]] and m[idx["E-PER"], idx["O"]]
        assert m[idx["S-PER"], idx["S-LOC"]] and m[idx["O"], idx["B-LOC"]]
        assert not m[idx["O"], idx["E-LOC"]]

    def test_forbidden_entries_pinned(self):
        crf = CrfLayer(IOBES_TAGS, np.random.default_rng(0))
        trans = crf.params["transitions"]
        assert np.all(trans[~crf.allowed] == FORBIDDEN_SCORE)
        assert np.all(np.abs(trans[crf.allowed]) < 10)

    def test_transitions_are_one_uniform_draw_pinned_then_cast(self):
        """Uniform in plus/minus 1/sqrt(K+2) as float64, the forbidden moves
        pinned, then float32: -1e4 is exact there, so pinning after the cast
        gives the same bits."""
        n = len(IOBES_TAGS) + 2
        draw = np.random.default_rng(5).uniform(-1 / np.sqrt(n), 1 / np.sqrt(n), (n, n))
        draw[~iobes_constraint_mask(IOBES_TAGS)] = FORBIDDEN_SCORE
        crf = CrfLayer(IOBES_TAGS, np.random.default_rng(5))
        assert crf.params["transitions"].tobytes() == draw.astype(np.float32).tobytes()


class TestLogPartition:
    def test_single_position_two_tags_all_zero(self):
        crf = free_crf(2)
        crf.params["transitions"][...] = 0.0
        z = log_partition_of(np.zeros((1, 2)), crf)
        assert abs(z - math.log(2.0)) < 1e-12

    def test_matches_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            T, K = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            emissions, crf = random_instance(rng, T, K)
            expected = brute_log_partition(
                emissions, crf.params["transitions"], crf.start, crf.stop)
            assert abs(log_partition_of(emissions, crf) - expected) < 1e-9

    def test_single_feasible_path(self):
        crf = CrfLayer(("B-X", "E-X"), np.random.default_rng(2))
        emissions = np.random.default_rng(3).standard_normal((2, 2))
        z = log_partition_of(emissions, crf)
        only = score_of(emissions, crf, [0, 1])
        assert abs(z - only) < 1e-9

    def test_dominates_any_path(self):
        rng = np.random.default_rng(4)
        emissions, crf = random_instance(rng, 4, 3)
        z = log_partition_of(emissions, crf)
        for path in [[0, 0, 0, 0], [1, 2, 1, 0], [2, 2, 2, 2]]:
            assert z >= score_of(emissions, crf, path)


class TestNll:
    def test_unique_path_has_zero_nll(self):
        crf = CrfLayer(("B-X", "E-X"), np.random.default_rng(5))
        emissions = np.random.default_rng(6).standard_normal((2, 2))
        assert abs(nll_of(emissions, crf, [0, 1])) < 1e-9

    def test_matches_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            T, K = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            emissions, crf = random_instance(rng, T, K)
            gold = rng.integers(0, K, size=T)
            expected = brute_nll(emissions, crf.params["transitions"],
                                 crf.start, crf.stop, list(gold))
            assert abs(nll_of(emissions, crf, gold) - expected) < 1e-9

    def test_nll_non_negative(self):
        rng = np.random.default_rng(8)
        emissions, crf = random_instance(rng, 5, 4)
        for _ in range(10):
            gold = rng.integers(0, 4, size=5)
            assert nll_of(emissions, crf, gold) > -1e-9

    def test_gold_with_virtual_state_rejected(self):
        emissions, crf = random_instance(np.random.default_rng(9), 2, 3)
        with pytest.raises(ValueError):
            nll_of(emissions, crf, [0, crf.start])

    def test_decreases_under_sgd(self):
        rng = np.random.default_rng(10)
        emissions, crf = random_instance(rng, 4, 3)
        gold = np.array([2, 0, 1, 1])
        first = nll_of(emissions, crf, gold)
        for _ in range(20):
            crf.zero_grads()
            _, demis = crf_nll_with_grads(emissions[None], crf, [gold], [4])
            emissions -= 0.05 * demis[0]
            crf.params["transitions"] -= 0.05 * crf.grads["transitions"]
        assert nll_of(emissions, crf, gold) < first


class TestGradients:
    def test_emission_and_transition_gradients(self):
        rng = np.random.default_rng(11)
        for iobes in (False, True):
            if iobes:
                crf = float64_copy(CrfLayer(IOBES_TAGS[:5], rng))
                K = 5
            else:
                emissions, crf = random_instance(rng, 4, 3)
                K = 3
            T = 4
            emissions = rng.standard_normal((T, K))
            gold = [0, 1, 2, 0] if not iobes else [1, 2, 2, 3]

            def loss():
                return nll_of(emissions, crf, gold)

            crf.zero_grads()
            _, demis = crf_nll_with_grads(emissions[None], crf, [gold], [T])
            err_e = gradient_relative_error(demis[0], numeric_gradient(loss, emissions))
            assert err_e < 1e-4, f"emissions: {err_e:.2e}"
            err_t = gradient_relative_error(
                crf.grads["transitions"],
                numeric_gradient(loss, crf.params["transitions"]))
            assert err_t < 1e-4, f"transitions: {err_t:.2e}"

    def test_gradients_match_brute_force_marginals(self):
        """Forward-backward marginals, pairwise ones in one broadcast over
        all positions, against expectations over every enumerated path;
        float64 sums in a different order, so agreement to 1e-10."""
        rng = np.random.default_rng(14)
        for T in (1, 2, 3, 5):
            K = int(rng.integers(2, 5))
            emissions, crf = random_instance(rng, T, K)
            gold = rng.integers(0, K, size=T)
            crf.zero_grads()
            _, d_emissions = crf_nll_with_grads(emissions[None], crf, [gold], [T])
            ref_emissions, ref_transitions = brute_nll_gradients(
                emissions, crf.params["transitions"], crf.start, crf.stop, gold)
            ref_transitions[~crf.allowed] = 0.0
            np.testing.assert_allclose(d_emissions[0], ref_emissions, rtol=0, atol=1e-10)
            np.testing.assert_allclose(crf.grads["transitions"], ref_transitions,
                                       rtol=0, atol=1e-10)

    def test_pinned_entries_receive_zero_gradient(self):
        rng = np.random.default_rng(12)
        crf = CrfLayer(IOBES_TAGS[:5], rng)
        emissions = rng.standard_normal((3, 5))
        crf.zero_grads()
        crf_nll_with_grads(emissions[None], crf, [[1, 2, 3]], [3])
        assert np.all(crf.grads["transitions"][~crf.allowed] == 0.0)


def padded_batch(rng, lengths, K, padding=1e3):
    """A CRF, (B, T, K) emissions whose padded positions hold ``padding``,
    and one random gold path per row."""
    T = max(lengths)
    emissions, crf = random_instance(rng, T, K)
    emissions = rng.standard_normal((len(lengths), T, K))
    emissions[np.arange(T) >= np.array(lengths)[:, None]] = padding
    golds = [rng.integers(0, K, size=length) for length in lengths]
    return emissions, crf, golds


class TestBatch:
    """A padded batch's rows against ``oracles.crf_nll_reference``, the
    unbatched kernel, each row run alone; sums run in another order, so
    agreement is to 1e-12."""

    @pytest.mark.parametrize("lengths", [[1, 5, 3, 5], [4], [1], [2, 1, 1]])
    def test_rows_equal_the_unbatched_reference(self, lengths):
        rng = np.random.default_rng(20)
        emissions, crf, golds = padded_batch(rng, lengths, 4)
        scale = 1.0 / len(lengths)
        crf.zero_grads()
        nlls, d_emissions = crf_nll_with_grads(emissions, crf, golds, lengths, scale)
        batched = crf.grads["transitions"].copy()
        crf.zero_grads()
        for b, (gold, length) in enumerate(zip(golds, lengths)):
            nll, d_row = crf_nll_reference(emissions[b, :length], crf, gold, scale)
            assert abs(nlls[b] - nll) < 1e-12
            np.testing.assert_allclose(d_emissions[b, :length], d_row, rtol=0, atol=1e-12)
            assert np.all(d_emissions[b, length:] == 0.0)
        np.testing.assert_allclose(batched, crf.grads["transitions"], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float32_transitions_compute_as_their_float64_copy(self, dtype):
        """A CrfLayer holds float32 transitions and computes over them
        upcast: the NLLs and emission gradients are its float64 copy's bit
        for bit, the emission gradients in the emissions' dtype, and the
        transition gradient is the float64 one rounded to float32."""
        rng = np.random.default_rng(23)
        crf = CrfLayer(IOBES_TAGS[:5], rng)
        assert crf.params["transitions"].dtype == crf.grads["transitions"].dtype == np.float32
        crf64 = float64_copy(crf)
        lengths = [4, 1, 3]
        emissions = rng.standard_normal((3, 4, 5)).astype(dtype)
        golds = [[1, 2, 2, 3], [4], [0, 1, 3]]
        nlls, d_emissions = crf_nll_with_grads(emissions, crf, golds, lengths, 0.5)
        want_nlls, want_d = crf_nll_with_grads(emissions.astype(np.float64), crf64, golds,
                                               lengths, 0.5)
        assert d_emissions.dtype == dtype
        np.testing.assert_array_equal(nlls, want_nlls)
        np.testing.assert_array_equal(d_emissions, want_d.astype(dtype))
        np.testing.assert_array_equal(crf.grads["transitions"],
                                      crf64.grads["transitions"].astype(np.float32))
        for got, want in zip(viterbi_decode(emissions, crf, lengths),
                             viterbi_decode(emissions, crf64, lengths)):
            np.testing.assert_array_equal(got, want)

    def test_padding_values_do_not_matter(self):
        lengths = [1, 5, 3]
        out = []
        for padding in (0.0, -7.5, 1e3):
            emissions, crf, golds = padded_batch(np.random.default_rng(21), lengths, 3,
                                                 padding)
            crf.zero_grads()
            nlls, d_emissions = crf_nll_with_grads(emissions, crf, golds, lengths)
            out.append((nlls, d_emissions, crf.grads["transitions"].copy()))
        for nlls, d_emissions, d_trans in out[1:]:
            np.testing.assert_array_equal(nlls, out[0][0])
            np.testing.assert_array_equal(d_emissions, out[0][1])
            np.testing.assert_array_equal(d_trans, out[0][2])

    def test_finite_differences_on_a_padded_batch(self):
        rng = np.random.default_rng(22)
        crf = float64_copy(CrfLayer(IOBES_TAGS[:5], rng))
        lengths = [4, 1, 3]
        emissions = rng.standard_normal((3, 4, 5))
        golds = [[1, 2, 2, 3], [4], [0, 1, 3]]
        scale = 1.0 / 3

        def loss():
            saved = crf.grads["transitions"].copy()
            nlls, _ = crf_nll_with_grads(emissions, crf, golds, lengths, scale)
            crf.grads["transitions"][...] = saved
            return scale * float(nlls.sum())

        crf.zero_grads()
        _, d_emissions = crf_nll_with_grads(emissions, crf, golds, lengths, scale)
        err_e = gradient_relative_error(d_emissions, numeric_gradient(loss, emissions))
        assert err_e < 1e-4, f"emissions: {err_e:.2e}"
        err_t = gradient_relative_error(
            crf.grads["transitions"], numeric_gradient(loss, crf.params["transitions"]))
        assert err_t < 1e-4, f"transitions: {err_t:.2e}"


class TestViterbi:
    """The one-sentence properties, each sentence decoded as a batch of one."""

    def test_single_position(self):
        rng = np.random.default_rng(13)
        emissions, crf = random_instance(rng, 1, 4)
        path, score = decode_of(emissions, crf)
        trans = crf.params["transitions"]
        totals = trans[crf.start, :4] + emissions[0] + trans[:4, crf.stop]
        assert path[0] == np.argmax(totals)
        assert abs(score - totals.max()) < 1e-12

    def test_matches_enumeration(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            T, K = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            emissions, crf = random_instance(rng, T, K)
            path, score = decode_of(emissions, crf)
            b_path, b_score = brute_viterbi(
                emissions, crf.params["transitions"], crf.start, crf.stop)
            assert abs(score - b_score) < 1e-9
            assert list(path) == b_path

    def test_returned_score_is_path_score(self):
        rng = np.random.default_rng(15)
        emissions, crf = random_instance(rng, 5, 3)
        path, score = decode_of(emissions, crf)
        assert abs(score - score_of(emissions, crf, path)) < 1e-12

    def test_all_zero_ties_break_low(self):
        crf = free_crf(3)
        crf.params["transitions"][...] = 0.0
        path, score = decode_of(np.zeros((4, 3)), crf)
        assert path.tolist() == [0, 0, 0, 0]
        assert score == 0.0

    def test_constrained_decodes_are_well_formed(self):
        rng = np.random.default_rng(16)
        crf = CrfLayer(IOBES_TAGS, rng)
        for _ in range(50):
            T = int(rng.integers(1, 9))
            emissions = rng.standard_normal((T, len(IOBES_TAGS))) * 3
            path, _ = decode_of(emissions, crf)
            tags = [IOBES_TAGS[i] for i in path]
            extract_spans(tags, TagScheme.IOBES)  # raises if ill-formed


def padded_block(rng, lengths, K, scale=1.0):
    """A (B, T, K) block of random emissions, T the longest length, with
    random values in the padding too, which no row may read."""
    return rng.standard_normal((len(lengths), max(lengths), K)) * scale


class TestBatchedViterbi:
    """``viterbi_decode`` over a padded block gives every row the path and
    score of ``oracles.viterbi_reference`` on its unpadded emissions.  Both
    run the same max and add in the same order, so they are equal, not
    close."""

    @staticmethod
    def assert_rows_equal_the_reference(emissions, crf, lengths):
        paths, scores = viterbi_decode(emissions, crf, lengths)
        assert paths.shape == emissions.shape[:2] and paths.dtype == np.int64
        assert scores.shape == (len(lengths),) and scores.dtype == np.float64
        for path, score, row, length in zip(paths, scores, emissions, lengths):
            ref_path, ref_score = viterbi_reference(row[:length], crf)
            assert path[:length].tolist() == ref_path.tolist()
            assert not path[length:].any()
            assert score == ref_score

    def test_random_padded_blocks_with_one_token_rows(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            K = int(rng.integers(1, 6))
            _, crf = random_instance(rng, 1, K)
            lengths = rng.integers(1, 9, size=int(rng.integers(1, 7)))
            lengths[rng.integers(len(lengths))] = 1
            self.assert_rows_equal_the_reference(padded_block(rng, lengths, K), crf, lengths)

    def test_float32_emissions_decode_upcast(self):
        rng = np.random.default_rng(21)
        _, crf = random_instance(rng, 1, 4)
        lengths = np.array([5, 1, 3])
        emissions = padded_block(rng, lengths, 4).astype(np.float32)
        self.assert_rows_equal_the_reference(emissions, crf, lengths)

    def test_all_zero_ties_break_low_in_every_row(self):
        crf = free_crf(3)
        crf.params["transitions"][...] = 0.0
        lengths = np.array([4, 1, 2])
        paths, scores = viterbi_decode(np.zeros((3, 4, 3)), crf, lengths)
        assert paths.tolist() == [[0] * 4] * 3
        assert scores.tolist() == [0.0] * 3
        self.assert_rows_equal_the_reference(np.zeros((3, 4, 3)), crf, lengths)

    def test_constrained_crf(self):
        rng = np.random.default_rng(22)
        crf = CrfLayer(IOBES_TAGS, rng)
        for _ in range(10):
            lengths = rng.integers(1, 9, size=6)
            lengths[0] = 1
            emissions = padded_block(rng, lengths, len(IOBES_TAGS), scale=3.0)
            self.assert_rows_equal_the_reference(emissions, crf, lengths)
            paths, _ = viterbi_decode(emissions, crf, lengths)
            for path, length in zip(paths, lengths):
                extract_spans([IOBES_TAGS[i] for i in path[:length]], TagScheme.IOBES)

    @pytest.mark.parametrize("lengths,message", [
        ([3, 0], r"lengths must be 2 integers in \[1, 3\]"),
        ([3, 4], r"lengths must be 2 integers in \[1, 3\]"),
        ([3.0, 2.0], "lengths must be 2 integers"),
        ([3], "lengths must be 2 integers"),
    ], ids=["length_zero", "length_above_T", "float_lengths", "lengths_shape"])
    def test_lengths_checked(self, lengths, message):
        emissions, crf = random_instance(np.random.default_rng(23), 3, 3)
        with pytest.raises(ValueError, match=message):
            viterbi_decode(np.stack([emissions, emissions]), crf, lengths)

    @pytest.mark.parametrize("shape", [(3, 3), (0, 3, 3), (2, 0, 3), (2, 3, 4)])
    def test_shape_checked(self, shape):
        _, crf = random_instance(np.random.default_rng(23), 3, 3)
        with pytest.raises(ValueError, match="emissions"):
            viterbi_decode(np.zeros(shape), crf, [1, 1])


class TestValidation:
    def test_emission_shape_checked(self):
        _, crf = random_instance(np.random.default_rng(17), 2, 3)
        with pytest.raises(ValueError):
            log_partition_of(np.zeros((0, 3)), crf)
        with pytest.raises(ValueError):
            log_partition_of(np.zeros((2, 5)), crf)

    def test_path_length_checked(self):
        emissions, crf = random_instance(np.random.default_rng(18), 3, 3)
        with pytest.raises(ValueError, match="path length"):
            nll_of(emissions, crf, [0, 1])

    @pytest.mark.parametrize("golds,lengths,message", [
        ([[0, 1, 2], [0, 1, 2]], [3, 2], "row 1: path length"),
        ([[0, 1, 2], [0]], [3, 2], "row 1: path length"),
        ([[0, 1, 2], []], [3, 0], r"lengths must be 2 integers in \[1, 3\]"),
        ([[0, 1, 2], [0, 1, 2, 0]], [3, 4], r"lengths must be 2 integers in \[1, 3\]"),
        ([[0, 1, 2], [0, 1]], [3.0, 2.0], "lengths must be 2 integers"),
        ([[0, 1, 2], [0, 1]], [3], "lengths must be 2 integers"),
        ([[0, 1, 2], [0, 3]], [3, 2], "row 1: path may only contain real tag indices"),
        ([[0, 1, 2], [4, 0]], [3, 2], "row 1: path may only contain real tag indices"),
        ([[0, 1, 2], [-1, 0]], [3, 2], "row 1: path may only contain real tag indices"),
        ([[0, 1, 2]], [3, 2], "1 gold paths for 2 rows"),
    ], ids=["gold_longer_than_length", "gold_shorter_than_length", "length_zero",
            "length_above_T", "float_lengths", "lengths_shape", "start_index",
            "stop_index", "negative_index", "too_few_golds"])
    def test_batch_rows_checked(self, golds, lengths, message):
        emissions, crf = random_instance(np.random.default_rng(19), 3, 3)
        batch = np.stack([emissions, emissions])
        with pytest.raises(ValueError, match=message):
            crf_nll_with_grads(batch, crf, golds, lengths)

    @pytest.mark.parametrize("shape", [(3, 3), (0, 3, 3), (2, 0, 3), (2, 3, 4)])
    def test_batch_shape_checked(self, shape):
        _, crf = random_instance(np.random.default_rng(19), 3, 3)
        with pytest.raises(ValueError, match="emissions"):
            crf_nll_with_grads(np.zeros(shape), crf, [[0]] * 2, [1, 1])
