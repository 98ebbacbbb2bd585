"""Versioned binary container for model files.

Byte layout, in order:

* 8-byte magic ``b"HISTTAG\\0"``
* format version, unsigned 32-bit little-endian (currently 1)
* header length in bytes, unsigned 32-bit little-endian
* header: UTF-8 JSON object with two fixed keys: ``meta`` (free-form,
  JSON-safe model configuration such as dims, direction, vocabulary code
  points) and ``tensors`` (ordered list of ``[name, shape]`` entries)
* tensor payloads: little-endian 32-bit floats, row-major, concatenated in
  the declared order with no padding

Models name their tensors ``<layer name>.<param name>`` after their ordered
``named_layers``: ``layer_tensors`` walks them for saving, and
``assign_tensors`` fills a loaded file back in.  A loader builds the model
its meta dims describe with no rng, so its layers declare their tensors'
shapes (``Layer.shapes``) and allocate nothing; ``assign_tensors`` compares
those with the file's tensors (``check_layout``) before any layer holds a
value.  ``load_tensors`` allocates only tensors the file's size holds,
each read straight into the array a layer then keeps, and
``save_tensors`` writes each layer's array from its own buffer, so a
model moves between disk and its layers with no copy.

Tensors are float32 in memory, as models hold their parameters, and in
the file, so save → load → save is byte-identical.
"""

import hashlib
import json
import math
import os
import secrets
import struct
from contextlib import contextmanager
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ModelFormatError

MAGIC = b"HISTTAG\0"
FORMAT_VERSION = 1
_HEAD = struct.Struct("<II")


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a new file beside ``path`` for writing; when the block completes
    it replaces ``path`` in one ``os.replace``, so readers see the old file
    or the whole new one.  On any error the new file is removed and
    ``path`` stays as it was.  The file is created like ``open`` creates
    one (mode 0o666 less the umask).  There is no fsync: after a crash of
    the machine the new content may still be lost.
    """
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(6)}.tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_tensors(path, meta: Mapping, tensors: Sequence[tuple[str, np.ndarray]]) -> None:
    """Write a container file with the given metadata and named tensors."""
    manifest = [[name, list(array.shape)] for name, array in tensors]
    header = json.dumps({"meta": dict(meta), "tensors": manifest},
                        ensure_ascii=False, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEAD.pack(FORMAT_VERSION, len(header)))
        fh.write(header)
        for _, array in tensors:
            fh.write(np.ascontiguousarray(array, dtype="<f4"))


def load_tensors(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container file; returns (meta, name → float32 array).  The
    declared tensors must exactly fill the file, which is checked against
    its size before any tensor is allocated; each is then read straight
    into a fresh array of its own, for a layer to keep as it is."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(len(MAGIC) + _HEAD.size)
        if len(head) < len(MAGIC) + _HEAD.size:
            raise ModelFormatError(f"{path}: file too short for a model container")
        if head[:len(MAGIC)] != MAGIC:
            raise ModelFormatError(f"{path}: bad magic, not a model file")
        version, header_len = _HEAD.unpack_from(head, len(MAGIC))
        if version != FORMAT_VERSION:
            raise ModelFormatError(
                f"{path}: unsupported format version {version}, expected {FORMAT_VERSION}")
        offset = len(head) + header_len
        if size < offset:
            raise ModelFormatError(f"{path}: truncated header")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ModelFormatError(f"{path}: unreadable header: {exc}") from exc
        if not (isinstance(header, dict) and isinstance(header.get("meta"), dict)
                and isinstance(header.get("tensors"), list)):
            raise ModelFormatError(
                f"{path}: header must hold a 'meta' mapping and a 'tensors' list")

        shapes: dict[str, tuple] = {}
        for entry in header["tensors"]:
            if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[1], list)
                    and all(type(d) is int for d in entry[1])):
                raise ModelFormatError(f"{path}: malformed tensor entry {entry!r}")
            name, shape = entry[0], tuple(entry[1])
            if not isinstance(name, str) or name in shapes or min(shape, default=0) < 0:
                raise ModelFormatError(f"{path}: bad or repeated tensor entry {entry!r}")
            offset += 4 * math.prod(shape)
            if offset > size:
                raise ModelFormatError(f"{path}: truncated payload for tensor {name!r}")
            shapes[name] = shape
        if offset != size:
            raise ModelFormatError(
                f"{path}: {size - offset} trailing bytes after declared tensors")
        tensors: dict[str, np.ndarray] = {}
        for name, shape in shapes.items():
            try:
                array = np.empty(shape, "<f4")
            except ValueError as exc:  # a zero-size shape too large for numpy
                raise ModelFormatError(f"{path}: bad shape for tensor {name!r}: {exc}") from None
            if fh.readinto(array) != array.nbytes:
                raise ModelFormatError(f"{path}: truncated payload for tensor {name!r}")
            tensors[name] = array.astype(np.float32, copy=False)
    return header["meta"], tensors


def layer_tensors(named_layers: Iterable) -> list[tuple[str, np.ndarray]]:
    """Ordered ``(<layer name>.<param name>, array)`` pairs of named layers,
    the list ``save_tensors`` writes."""
    return [(f"{name}.{param}", value) for name, layer in named_layers
            for param, value in layer.params.items()]


def check_layout(path, expected: Mapping[str, tuple],
                 tensors: Mapping[str, np.ndarray]) -> None:
    """Raise ModelFormatError unless ``tensors`` holds exactly the named
    tensors of ``expected``, each of its expected shape."""
    unexpected = sorted(tensors.keys() - expected.keys())
    if unexpected:
        raise ModelFormatError(f"{path}: unexpected tensor {unexpected[0]!r}")
    for name, shape in expected.items():
        if name not in tensors:
            raise ModelFormatError(f"{path}: missing tensor {name!r}")
        if tensors[name].shape != shape:
            raise ModelFormatError(
                f"{path}: tensor {name!r} has shape {tensors[name].shape}, "
                f"expected {shape}")


def assign_tensors(path, named_layers: Iterable, tensors: Mapping[str, np.ndarray]) -> None:
    """Fill named layers, built with no rng, from loaded tensors.

    The file must hold exactly the tensors the layers declare
    (``Layer.shapes``): a missing, unexpected or wrongly shaped one raises
    ``ModelFormatError`` before any layer holds a value.  Each layer then
    holds the arrays ``load_tensors`` read, as they are: fresh float32
    arrays, not views of a file buffer, so no copy is made.
    """
    named_layers = tuple(named_layers)
    check_layout(path, {f"{name}.{param}": shape for name, layer in named_layers
                        for param, shape in layer.shapes.items()}, tensors)
    for name, layer in named_layers:
        for param in layer.shapes:
            layer.params[param] = tensors[f"{name}.{param}"]
