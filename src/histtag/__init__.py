"""histtag: character language models and Bi-LSTM-CRF tagging for noisy historic text.

The package covers the full pipeline: CoNLL corpus handling, synthetic
OCR-noise corpus generation (keep/mask/replace corruption), directional
character-level LSTM language models with perplexity analysis, stacked
per-token embeddings (word vectors, trainable character features, contextual
LM states), CRF sequence tagging, and span-level F1 evaluation.
"""

from .charlm import (
    CharLm,
    CharLmConfig,
    corpus_perplexity,
    load_lm,
    save_lm,
    sentence_perplexity,
    train_lm,
)
from .corpus import (
    CharVocabulary,
    EntitySpan,
    PlainCorpus,
    Sentence,
    TaggedCorpus,
    TagScheme,
    Token,
    convert_scheme,
    convert_tags,
    entity_counts,
    extract_char_vocab,
    extract_spans,
    read_conll,
    read_plain,
    render_tags,
    sentence_text,
    write_conll,
)
from .crf import CrfLayer, viterbi_decode
from .embed import (
    CharFeatureEncoder,
    ContextualEmbedder,
    SentenceGroup,
    StackedEmbedder,
    WordTableEmbedder,
    load_vectors,
)
from .errors import (
    ConfigError,
    DecodeError,
    EmptyCorpusError,
    HisttagError,
    ModelFormatError,
    NonFiniteGradientError,
    ParseError,
    SchemeError,
    StructureMismatchError,
)
from .evaluation import (
    EvalReport,
    RunSummary,
    average_runs,
    evaluate,
    format_report,
    read_conll_predictions,
    write_conll_predictions,
)
from .smlm import (
    SmlmConfig,
    select_mask_char,
    smlm_transform,
)
from .tagger import (
    NerModel,
    TaggerConfig,
    load_ner,
    predict,
    save_ner,
    train_ner,
)

__version__ = "0.1.0"

__all__ = [
    # corpus
    "CharVocabulary",
    "EntitySpan",
    "PlainCorpus",
    "Sentence",
    "TaggedCorpus",
    "TagScheme",
    "Token",
    "convert_scheme",
    "convert_tags",
    "entity_counts",
    "extract_char_vocab",
    "extract_spans",
    "read_conll",
    "read_plain",
    "render_tags",
    "sentence_text",
    "write_conll",
    # corruption
    "SmlmConfig",
    "select_mask_char",
    "smlm_transform",
    # character LMs
    "CharLm",
    "CharLmConfig",
    "corpus_perplexity",
    "load_lm",
    "save_lm",
    "sentence_perplexity",
    "train_lm",
    # embeddings
    "CharFeatureEncoder",
    "ContextualEmbedder",
    "SentenceGroup",
    "StackedEmbedder",
    "WordTableEmbedder",
    "load_vectors",
    # CRF and tagger
    "CrfLayer",
    "viterbi_decode",
    "NerModel",
    "TaggerConfig",
    "load_ner",
    "predict",
    "save_ner",
    "train_ner",
    # evaluation
    "EvalReport",
    "RunSummary",
    "average_runs",
    "evaluate",
    "format_report",
    "read_conll_predictions",
    "write_conll_predictions",
    # errors
    "HisttagError",
    "ParseError",
    "DecodeError",
    "SchemeError",
    "EmptyCorpusError",
    "ConfigError",
    "ModelFormatError",
    "NonFiniteGradientError",
    "StructureMismatchError",
    "__version__",
]
