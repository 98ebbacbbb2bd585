import pickle

import pytest

from histtag import errors
from histtag.errors import HisttagError

# constructor arguments and the attributes they set, for every error class
EXAMPLES = {
    errors.HisttagError: (("boom",), {}),
    errors.ParseError: (("bad code point", "v.txt", 3), {"path": "v.txt", "line": 3}),
    errors.DecodeError: (("invalid UTF-8", "c.txt", 17), {"path": "c.txt", "byte_offset": 17}),
    errors.SchemeError: (("malformed tag 'X'", 4), {"position": 4}),
    errors.EmptyCorpusError: (("empty corpus",), {}),
    errors.ConfigError: (("eval.runs must be at least 1, got 0",), {}),
    errors.ModelFormatError: (("truncated payload",), {}),
    errors.NonFiniteGradientError: (("lm training", 1, 2), {"epoch": 1, "step": 2}),
    errors.StructureMismatchError: (("3 vs 4 tags", 7), {"sentence_index": 7}),
    errors.WorkerError: (("job 1 has no result",), {}),
}


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def test_every_error_class_has_an_example():
    assert set(subclasses(HisttagError)) | {HisttagError} == set(EXAMPLES)


@pytest.mark.parametrize("cls", EXAMPLES, ids=lambda cls: cls.__name__)
def test_survives_pickling(cls):
    """An error raised in a worker process reaches the caller intact."""
    args, attributes = EXAMPLES[cls]
    original = cls(*args)
    copy = pickle.loads(pickle.dumps(original))
    assert type(copy) is cls
    assert str(copy) == str(original)
    assert copy.args == original.args
    assert vars(copy) == vars(original) == attributes
