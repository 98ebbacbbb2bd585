"""Span-level precision/recall/F1 over exact (label, start, end) matches.

A predicted span counts as a true positive only when a gold span agrees on
all three of label, start and end; boundary misses earn nothing.  Metrics
are computed on spans directly, which is equivalent to converting to IOB2
first and scoring chunks: both sides reduce to the same span sets.

Predictions are one tag list per sentence of the gold corpus, in that
corpus's scheme, as ``tagger.predict`` returns them.
"""

import logging
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .corpus import TaggedCorpus, TagScheme, conll_sentences, convert_tags, extract_spans
from .errors import StructureMismatchError
from .serialization import atomic_open

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LabelScores:
    precision: float
    recall: float
    f1: float
    gold_count: int
    pred_count: int


@dataclass(frozen=True)
class EvalReport:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    per_label: dict[str, LabelScores]

    def to_dict(self) -> dict:
        return {
            "micro": {"precision": self.precision, "recall": self.recall,
                      "f1": self.f1, "tp": self.tp, "fp": self.fp, "fn": self.fn},
            "labels": {
                label: {"precision": s.precision, "recall": s.recall,
                        "f1": s.f1, "gold": s.gold_count, "pred": s.pred_count}
                for label, s in sorted(self.per_label.items())
            },
        }


def _prf(tp: int, pred_total: int, gold_total: int) -> tuple[float, float, float]:
    precision = tp / pred_total if pred_total else 0.0
    recall = tp / gold_total if gold_total else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def _check_alignment(corpus: TaggedCorpus,
                     predicted: Sequence[Sequence[str]]) -> None:
    """One tag list per sentence and one tag per token, or
    StructureMismatchError naming the first sentence that differs."""
    if len(corpus) != len(predicted):
        raise StructureMismatchError(
            f"gold has {len(corpus)} sentences, predictions have {len(predicted)}",
            sentence_index=min(len(corpus), len(predicted)))
    for i, (sentence, tags) in enumerate(zip(corpus, predicted)):
        if len(sentence) != len(tags):
            raise StructureMismatchError(
                f"sentence {i}: gold has {len(sentence)} tokens, predictions "
                f"have {len(tags)} tags", sentence_index=i)


def _span_set(rows: Iterable[Sequence[str]],
              scheme: TagScheme) -> set[tuple[int, str, int, int]]:
    spans = set()
    for i, tags in enumerate(rows):
        for span in extract_spans(tags, scheme):
            spans.add((i, span.label, span.start, span.end))
    return spans


def evaluate(gold: TaggedCorpus, predicted: Sequence[Sequence[str]]) -> EvalReport:
    """Score predicted tag lists against the gold corpus span by span."""
    _check_alignment(gold, predicted)
    gold_spans = _span_set((s.gold_tags() for s in gold), gold.scheme)
    pred_spans = _span_set(predicted, gold.scheme)

    tp_spans = gold_spans & pred_spans
    tp, fp, fn = len(tp_spans), len(pred_spans - gold_spans), len(gold_spans - pred_spans)
    if not gold_spans and not pred_spans:
        logger.info("evaluate: no gold or predicted spans; all metrics are 0")
    precision, recall, f1 = _prf(tp, len(pred_spans), len(gold_spans))

    labels = sorted({s[1] for s in gold_spans} | {s[1] for s in pred_spans})
    per_label = {}
    for label in labels:
        g = {s for s in gold_spans if s[1] == label}
        p = {s for s in pred_spans if s[1] == label}
        lp, lr, lf = _prf(len(g & p), len(p), len(g))
        per_label[label] = LabelScores(lp, lr, lf, len(g), len(p))
    return EvalReport(precision, recall, f1, tp, fp, fn, per_label)


@dataclass(frozen=True)
class RunSummary:
    mean_f1: float
    per_run_f1: tuple[float, ...]

    def to_dict(self) -> dict:
        return {"mean_f1": self.mean_f1, "runs": list(self.per_run_f1)}


def average_runs(reports: list[EvalReport]) -> RunSummary:
    """Mean micro F1 over repeated runs, individual values retained."""
    if not reports:
        raise ValueError("need at least one report to average")
    values = tuple(r.f1 for r in reports)
    return RunSummary(mean_f1=sum(values) / len(values), per_run_f1=values)


def write_conll_predictions(corpus: TaggedCorpus, predicted: Sequence[Sequence[str]],
                            path) -> None:
    """Write "token gold pred" lines in IOB2, one blank line per sentence.

    This is the column layout the official CoNLL-2003 scorer consumes.
    """
    _check_alignment(corpus, predicted)
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        for sentence, tags in zip(corpus, predicted):
            gold_tags = convert_tags(sentence.gold_tags(), corpus.scheme, TagScheme.IOB2)
            pred_tags = convert_tags(tags, corpus.scheme, TagScheme.IOB2)
            for token, g, p in zip(sentence, gold_tags, pred_tags):
                fh.write(f"{token.text} {g} {p}\n")
            fh.write("\n")


def read_conll_predictions(path, scheme: TagScheme = TagScheme.IOB2
                           ) -> tuple[TaggedCorpus, list[list[str]]]:
    """Read a "token gold pred" file back into the gold corpus and its
    predicted tag lists, in one pass that checks both tag columns as
    ``read_conll`` checks its one."""
    rows = list(conll_sentences(path, 0, (1, 2), scheme))
    return TaggedCorpus(tuple(s for s, _ in rows), scheme=scheme), [list(p) for _, p in rows]


def format_report(report: EvalReport) -> str:
    """Aligned text table: micro row first, then per-label rows."""
    lines = [
        f"{'':10s} {'precision':>9s} {'recall':>9s} {'f1':>9s} {'gold':>6s} {'pred':>6s}",
        f"{'micro':10s} {report.precision:9.4f} {report.recall:9.4f} "
        f"{report.f1:9.4f} {report.tp + report.fn:6d} {report.tp + report.fp:6d}",
    ]
    for label, s in sorted(report.per_label.items()):
        lines.append(
            f"{label:10s} {s.precision:9.4f} {s.recall:9.4f} {s.f1:9.4f} "
            f"{s.gold_count:6d} {s.pred_count:6d}")
    return "\n".join(lines) + "\n"
