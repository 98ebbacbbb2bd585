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
value, so no layer is allocated at dims the payload does not hold.

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
    manifest = []
    for name, array in tensors:
        manifest.append([name, list(array.shape)])
    header = json.dumps({"meta": dict(meta), "tensors": manifest},
                        ensure_ascii=False, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEAD.pack(FORMAT_VERSION, len(header)))
        fh.write(header)
        for _, array in tensors:
            fh.write(np.ascontiguousarray(array, dtype="<f4").tobytes())


def load_tensors(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container file; returns (meta, name → float32 array).  The
    arrays are read-only views of the file's bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(MAGIC) + _HEAD.size:
        raise ModelFormatError(f"{path}: file too short for a model container")
    if data[:len(MAGIC)] != MAGIC:
        raise ModelFormatError(f"{path}: bad magic, not a model file")
    version, header_len = _HEAD.unpack_from(data, len(MAGIC))
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported format version {version}, expected {FORMAT_VERSION}")
    body_start = len(MAGIC) + _HEAD.size
    header_end = body_start + header_len
    if len(data) < header_end:
        raise ModelFormatError(f"{path}: truncated header")
    try:
        header = json.loads(data[body_start:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"{path}: unreadable header: {exc}") from exc
    if not (isinstance(header, dict) and isinstance(header.get("meta"), dict)
            and isinstance(header.get("tensors"), list)):
        raise ModelFormatError(
            f"{path}: header must hold a 'meta' mapping and a 'tensors' list")

    tensors: dict[str, np.ndarray] = {}
    offset = header_end
    for entry in header["tensors"]:
        try:
            name, shape = entry
            shape = tuple(int(d) for d in shape)
        except (TypeError, ValueError) as exc:
            raise ModelFormatError(f"{path}: malformed tensor entry {entry!r}") from exc
        if not isinstance(name, str) or name in tensors or min(shape, default=0) < 0:
            raise ModelFormatError(f"{path}: bad or repeated tensor entry {entry!r}")
        count = math.prod(shape)
        nbytes = count * 4
        if offset + nbytes > len(data):
            raise ModelFormatError(
                f"{path}: truncated payload for tensor {name!r}")
        flat = np.frombuffer(data, dtype="<f4", count=count, offset=offset)
        tensors[name] = flat.reshape(shape).astype(np.float32, copy=False)
        offset += nbytes
    if offset != len(data):
        raise ModelFormatError(
            f"{path}: {len(data) - offset} trailing bytes after declared tensors")
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
    ``ModelFormatError`` before any layer allocates.  Each layer then holds
    a fresh float32 copy of its tensors, not a view of the file's bytes,
    whose payload has no fixed alignment.
    """
    named_layers = tuple(named_layers)
    check_layout(path, {f"{name}.{param}": shape for name, layer in named_layers
                        for param, shape in layer.shapes.items()}, tensors)
    for name, layer in named_layers:
        for param in layer.shapes:
            layer.hold(param, lambda: tensors[f"{name}.{param}"])
