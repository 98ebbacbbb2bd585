import os
import tracemalloc

import numpy as np
import pytest

from histtag import toydata
from histtag.corpus import write_conll
from histtag.errors import ModelFormatError
from histtag.nn import Linear
from histtag.serialization import (
    FORMAT_VERSION,
    MAGIC,
    atomic_open,
    load_tensors,
    save_tensors,
)

from conftest import make_corpus, raw_container


def traced_peak(call):
    """The traced allocation peak, in bytes, while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def sample_tensors(rng):
    return [
        ("enc.weight", rng.standard_normal((4, 3))),
        ("enc.bias", rng.standard_normal(3)),
        ("scalarish", rng.standard_normal(())),
    ]


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = sample_tensors(rng)
        meta = {"direction": "forward", "hidden": 16, "vocab": [97, 98]}
        path = tmp_path / "m.bin"
        save_tensors(path, meta, tensors)
        meta2, loaded = load_tensors(path)
        assert meta2 == meta
        assert list(loaded) == [n for n, _ in tensors]
        for name, original in tensors:
            assert loaded[name].dtype == np.float32
            np.testing.assert_array_equal(loaded[name], original.astype(np.float32))

    def test_save_load_save_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(1)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_tensors(p1, {"k": 1}, sample_tensors(rng))
        meta, loaded = load_tensors(p1)
        save_tensors(p2, meta, list(loaded.items()))
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_tensor_list(self, tmp_path):
        path = tmp_path / "e.bin"
        save_tensors(path, {"only": "meta"}, [])
        meta, tensors = load_tensors(path)
        assert meta == {"only": "meta"} and tensors == {}


class TestCorruption:
    def _good_file(self, tmp_path):
        path = tmp_path / "m.bin"
        save_tensors(path, {"h": 2}, [("w", np.ones((2, 2)))])
        return path

    def test_bad_magic(self, tmp_path):
        path = self._good_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match="magic"):
            load_tensors(path)

    def test_wrong_version(self, tmp_path):
        path = self._good_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[len(MAGIC)] = FORMAT_VERSION + 1
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match="version"):
            load_tensors(path)

    def test_truncated_payload(self, tmp_path):
        path = self._good_file(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(ModelFormatError, match="truncated"):
            load_tensors(path)

    def test_truncated_header(self, tmp_path):
        path = self._good_file(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:len(MAGIC) + 8 + 3])
        with pytest.raises(ModelFormatError, match="truncated|header"):
            load_tensors(path)

    def test_trailing_garbage(self, tmp_path):
        path = self._good_file(tmp_path)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(ModelFormatError, match="trailing"):
            load_tensors(path)

    def test_not_a_container(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"hi")
        with pytest.raises(ModelFormatError, match="short"):
            load_tensors(path)

    @pytest.mark.parametrize("header, floats, message", [
        ({"meta": {}, "tensors": 5}, 0, "must hold a 'meta' mapping"),
        ({"meta": [], "tensors": []}, 0, "must hold a 'meta' mapping"),
        ({"tensors": []}, 0, "must hold a 'meta' mapping"),
        ({"meta": {}, "tensors": [["w", [1]], ["w", [1]]]}, 2, "bad or repeated"),
        ({"meta": {}, "tensors": [["w", [-1, 2]]]}, 2, "bad or repeated"),
        ({"meta": {}, "tensors": [[["w"], [1]]]}, 1, "bad or repeated"),
        ({"meta": {}, "tensors": [["w", "12"]]}, 2, "malformed tensor entry"),
        ({"meta": {}, "tensors": [["w", [2.9]]]}, 2, "malformed tensor entry"),
        ({"meta": {}, "tensors": [["w", [True, 2]]]}, 2, "malformed tensor entry"),
        ({"meta": {}, "tensors": [["w", [2], 0]]}, 2, "malformed tensor entry"),
        ({"meta": {}, "tensors": [["w", [0, 10 ** 30]]]}, 0, "bad shape for tensor 'w'"),
        ({"meta": {}, "tensors": [["w", [0, 2 ** 62, 2 ** 62]]]}, 0, "bad shape for tensor 'w'"),
    ], ids=["tensors_not_a_list", "meta_not_a_mapping", "no_meta",
            "repeated_name", "negative_dim", "name_not_a_string",
            "shape_a_string", "float_dim", "bool_dim", "three_items",
            "zero_size_dim_too_large", "zero_size_too_big"])
    def test_malformed_header(self, tmp_path, header, floats, message):
        path = tmp_path / "m.bin"
        path.write_bytes(raw_container(header, payload=bytes(4 * floats)))
        with pytest.raises(ModelFormatError, match=message):
            load_tensors(path)


class TestMemory:
    """Tensors move between the file and their arrays with no copy."""

    def test_save_writes_float32_arrays_without_a_copy(self, tmp_path):
        """A 4 MB tensor; a bytes copy of it would peak at about 4 MB."""
        tensor = np.ones(10 ** 6, np.float32)
        peak = traced_peak(lambda: save_tensors(tmp_path / "m.bin", {}, [("w", tensor)]))
        assert peak < 10 ** 6

    def test_declared_sizes_checked_before_allocating(self, tmp_path):
        """A (100000, 100000) tensor, 40 GB, declared over 16 bytes."""
        path = tmp_path / "m.bin"
        path.write_bytes(raw_container({"meta": {}, "tensors": [["w", [100000, 100000]]]},
                                       payload=bytes(16)))

        def load():
            with pytest.raises(ModelFormatError, match="truncated payload for tensor 'w'"):
                load_tensors(path)
        assert traced_peak(load) < 10 ** 6

    def test_large_layer_guard_catches_a_draw(self, no_large_layers):
        """The ``no_large_layers`` fixture fails a drawn layer before it
        allocates a tensor of over a million entries."""
        with pytest.raises(AssertionError, match="began to allocate a"):
            Linear(1000, 1001, np.random.default_rng(0))


def _fail_in_atomic_open(path):
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write("half of the new content")
        raise RuntimeError("writer failed")


class TestAtomicWrites:
    @pytest.mark.parametrize("write", [
        _fail_in_atomic_open,
        # the second tensor cannot be converted after the header is written
        lambda path: save_tensors(path, {}, [("a", np.ones(2)), ("b", np.array(["x"]))]),
        # the second sentence has a token without a gold tag
        lambda path: write_conll(
            make_corpus([[("Anna", "S-PER")], [("Wien", None)]]), path),
    ], ids=["atomic_open", "save_tensors", "write_conll"])
    def test_failed_write_keeps_old_file(self, tmp_path, write):
        path = tmp_path / "artifact"
        path.write_bytes(b"old content")
        with pytest.raises((RuntimeError, ValueError)):
            write(path)
        assert path.read_bytes() == b"old content"
        assert os.listdir(tmp_path) == ["artifact"]

    def test_failed_toy_lm_corpus_keeps_old_file(self, tmp_path, monkeypatch):
        def interrupted(seed):
            yield "Anna besucht Wien"
            raise RuntimeError("interrupted")

        monkeypatch.setattr(toydata, "build_plain_corpus", interrupted)
        path = tmp_path / "lm_corpus.txt"
        path.write_bytes(b"old content")
        with pytest.raises(RuntimeError):
            toydata.write_toy_dataset(tmp_path)
        assert path.read_bytes() == b"old content"
        assert sorted(os.listdir(tmp_path)) == [
            "dev.conll", "lm_corpus.txt", "test.conll", "train.conll"]

    def test_replaces_and_creates_with_open_mode(self, tmp_path):
        path, plain = tmp_path / "new.bin", tmp_path / "plain.bin"
        with open(plain, "wb"):
            pass
        save_tensors(path, {"k": 1}, [])
        save_tensors(path, {"k": 2}, [])
        assert load_tensors(path)[0] == {"k": 2}
        assert os.stat(path).st_mode == os.stat(plain).st_mode
        assert sorted(os.listdir(tmp_path)) == ["new.bin", "plain.bin"]
