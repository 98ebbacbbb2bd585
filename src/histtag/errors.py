"""Exception types shared across the package, and the one check of a
config value's type."""

from dataclasses import fields


class HisttagError(Exception):
    """Base class for all errors raised by this package.

    Every subclass survives pickling, as an error raised in a worker
    process must: the copy has the original's ``args`` (so its message)
    and attributes.  The default pickling would call the class with
    ``args``, which are not what most subclasses' ``__init__`` takes.
    """

    def __reduce__(self):
        return _rebuilt, (type(self), self.args), self.__dict__


def _rebuilt(cls, args):
    return cls.__new__(cls, *args)


class ParseError(HisttagError):
    """A text file (CoNLL data, word vectors, vocabulary) could not be parsed.

    Carries the file path and 1-based line number where parsing failed.
    """

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:"
        if line is not None:
            where += f"{line}:"
        super().__init__(f"{where} {message}" if where else message)


class DecodeError(HisttagError):
    """A byte stream is not valid UTF-8. ``byte_offset`` points at the bad byte."""

    def __init__(self, message, path=None, byte_offset=None):
        self.path = path
        self.byte_offset = byte_offset
        if byte_offset is not None:
            message = f"{message} (byte offset {byte_offset})"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


class SchemeError(HisttagError):
    """A tag or tag sequence violates its declared tagging scheme.

    ``position`` is the 0-based token index of the offending tag, when known.
    """

    def __init__(self, message, position=None):
        self.position = position
        super().__init__(message)


class EmptyCorpusError(HisttagError):
    """An operation that needs data received an empty corpus or file."""


class ConfigError(HisttagError):
    """Invalid configuration: bad parameter values or inconsistent inputs."""


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


def check_type(value, kind: type, where: str):
    """``value``, if it has the scalar type ``kind``; else a ConfigError
    naming ``where``.  An int takes no bool or float, a float takes an int
    or a float, and a str takes only a string."""
    kinds = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"{where} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


def check_field_types(config) -> None:
    """``check_type`` on every field of a dataclass instance, against the
    field's annotation."""
    for f in fields(config):
        check_type(getattr(config, f.name), f.type, f.name)


class ModelFormatError(HisttagError):
    """A model file is truncated, version-incompatible, or inconsistent."""


class NonFiniteGradientError(HisttagError):
    """Training met a gradient whose norm is NaN or infinite.

    ``epoch`` and ``step`` (both 1-based, the step counted within its epoch)
    locate the update that was refused.
    """

    def __init__(self, what, epoch, step):
        self.epoch = epoch
        self.step = step
        super().__init__(f"{what}: non-finite gradient norm at epoch {epoch}, step {step}")


class StructureMismatchError(HisttagError):
    """Predictions, or a second CoNLL file, do not align with a corpus
    sentence by sentence and token by token.

    ``sentence_index`` identifies the first divergent sentence.
    """

    def __init__(self, message, sentence_index=None):
        self.sentence_index = sentence_index
        super().__init__(message)


class WorkerError(HisttagError):
    """A worker process running a job ended without reporting its outcome,
    or reported one that could not be sent back."""
