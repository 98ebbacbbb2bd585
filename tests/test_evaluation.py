import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histtag.corpus import (
    Sentence,
    TaggedCorpus,
    TagScheme,
    Token,
    convert_scheme,
    convert_tags,
)
from histtag.errors import ParseError, StructureMismatchError
from histtag.evaluation import (
    EvalReport,
    average_runs,
    evaluate,
    format_report,
    read_conll_predictions,
    write_conll_predictions,
)

from oracles import scan_spans

LABELS = ["LOC", "ORG", "PER"]


def own_tags(corpus):
    """The corpus's own gold tags, as predictions."""
    return [s.gold_tags() for s in corpus]


def paired_corpora(gold_rows, pred_rows, scheme=TagScheme.IOB2):
    """A gold corpus over synthetic tokens and its predicted tag lists."""
    gold_sents = []
    for gold_tags, pred_tags in zip(gold_rows, pred_rows):
        assert len(gold_tags) == len(pred_tags)
        gold_sents.append(Sentence(tuple(
            Token(f"w{i}", gold_tag=t) for i, t in enumerate(gold_tags))))
    return (TaggedCorpus(tuple(gold_sents), scheme=scheme),
            [list(tags) for tags in pred_rows])


@st.composite
def iob2_tags(draw, length):
    tags = []
    prev_label = None
    for _ in range(length):
        choice = draw(st.integers(0, 4))
        if choice == 0 and prev_label is not None:
            tags.append(f"I-{prev_label}")
        elif choice <= 2:
            tags.append("O")
            prev_label = None
        else:
            label = draw(st.sampled_from(LABELS))
            tags.append(f"B-{label}")
            prev_label = label
    return tags


@st.composite
def aligned_layouts(draw):
    lengths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=5))
    gold = [draw(iob2_tags(n)) for n in lengths]
    pred = [draw(iob2_tags(n)) for n in lengths]
    return gold, pred


class TestEvaluateTrivial:
    def test_exact_match(self):
        gold, pred = paired_corpora([["B-PER", "I-PER"]], [["B-PER", "I-PER"]])
        report = evaluate(gold, pred)
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)
        assert report.tp == 1 and report.fp == 0 and report.fn == 0

    def test_boundary_miss_is_full_miss(self):
        gold, pred = paired_corpora([["B-PER", "I-PER"]], [["B-PER", "O"]])
        report = evaluate(gold, pred)
        assert report.tp == 0
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)

    def test_self_evaluation_is_perfect(self, tiny_iobes_corpus):
        report = evaluate(tiny_iobes_corpus, own_tags(tiny_iobes_corpus))
        assert report.f1 == 1.0

    def test_no_spans_at_all(self, caplog):
        gold, pred = paired_corpora([["O", "O"]], [["O", "O"]])
        with caplog.at_level("INFO"):
            report = evaluate(gold, pred)
        assert report.f1 == 0.0
        assert "no gold or predicted spans" in caplog.text

    def test_per_label_breakdown(self):
        gold, pred = paired_corpora(
            [["B-PER", "B-LOC", "O"]], [["B-PER", "B-ORG", "O"]])
        report = evaluate(gold, pred)
        assert report.per_label["PER"].f1 == 1.0
        assert report.per_label["LOC"].gold_count == 1
        assert report.per_label["LOC"].pred_count == 0
        assert report.per_label["ORG"].pred_count == 1
        assert report.per_label["ORG"].f1 == 0.0

    def test_structure_mismatch(self):
        """A sentence without predictions, or with a tag count of its own,
        is a mismatch; it is never scored against its own gold tags."""
        gold, _ = paired_corpora([["B-PER", "O"], ["B-LOC"]], [["O", "O"], ["O"]])
        for predicted, index in (([["O", "O"]], 1),
                                 ([["O", "O"], ["O"], ["O"]], 2),
                                 ([["O"], ["O"]], 0),
                                 ([["O", "O"], []], 1)):
            with pytest.raises(StructureMismatchError) as exc:
                evaluate(gold, predicted)
            assert exc.value.sentence_index == index


class TestEvaluateProperties:
    @given(aligned_layouts())
    @settings(max_examples=80)
    def test_matches_set_intersection_oracle(self, layouts):
        gold_rows, pred_rows = layouts
        gold, pred = paired_corpora(gold_rows, pred_rows)
        report = evaluate(gold, pred)
        gold_set = {(i, *s) for i, tags in enumerate(gold_rows)
                    for s in scan_spans(tags, TagScheme.IOB2)}
        pred_set = {(i, *s) for i, tags in enumerate(pred_rows)
                    for s in scan_spans(tags, TagScheme.IOB2)}
        assert report.tp == len(gold_set & pred_set)
        assert report.fp == len(pred_set - gold_set)
        assert report.fn == len(gold_set - pred_set)
        assert report.tp + report.fn == len(gold_set)
        assert report.tp + report.fp == len(pred_set)

    @given(aligned_layouts())
    @settings(max_examples=40)
    def test_swap_symmetry(self, layouts):
        gold_rows, pred_rows = layouts
        a, _ = paired_corpora(gold_rows, pred_rows)
        b, _ = paired_corpora(pred_rows, gold_rows)
        fwd = evaluate(a, pred_rows)
        rev = evaluate(b, gold_rows)
        assert fwd.precision == rev.recall
        assert fwd.recall == rev.precision
        assert fwd.f1 == rev.f1

    def test_conversion_neutrality(self, tiny_iobes_corpus):
        pred = [["S-PER", "O", "O", "O"], ["O", "B-ORG", "E-ORG", "O", "O"]]
        direct = evaluate(tiny_iobes_corpus, pred)
        converted = evaluate(
            convert_scheme(tiny_iobes_corpus, TagScheme.IOB2),
            [convert_tags(tags, TagScheme.IOBES, TagScheme.IOB2) for tags in pred])
        assert direct == converted
        assert direct.tp == 2 and direct.fn == 1


class TestConllFixture:
    """Fixture cross-checked against the official scorer's chunk semantics;
    the expected numbers below are frozen from that run."""

    GOLD = [
        ["B-PER", "I-PER", "O", "B-LOC"],
        ["B-ORG", "I-ORG", "I-ORG", "O"],
        ["O", "B-LOC", "O"],
        ["O", "O", "B-PER"],
        ["B-LOC", "B-PER", "I-PER", "O"],
    ]
    PRED = [
        ["B-PER", "I-PER", "O", "B-LOC"],
        ["B-ORG", "I-ORG", "O", "O"],
        ["O", "B-ORG", "O"],
        ["B-MISC", "O", "O"],
        ["B-LOC", "O", "B-PER", "I-PER"],
    ]

    def test_matches_recorded_scorer_output(self):
        gold, pred = paired_corpora(self.GOLD, self.PRED)
        report = evaluate(gold, pred)
        assert report.tp == 3 and report.fp == 4 and report.fn == 4
        assert abs(report.precision - 3 / 7) < 1e-12
        assert abs(report.recall - 3 / 7) < 1e-12
        assert abs(report.f1 - 3 / 7) < 0.01
        loc = report.per_label["LOC"]
        assert (loc.precision, loc.f1) == (1.0, 0.8)
        assert abs(loc.recall - 2 / 3) < 1e-12
        per = report.per_label["PER"]
        assert (per.precision, per.f1) == (0.5, 0.4)
        assert report.per_label["ORG"].f1 == 0.0
        assert report.per_label["MISC"].f1 == 0.0


class TestAverageRuns:
    def _report(self, f1):
        return EvalReport(f1, f1, f1, 0, 0, 0, {})

    def test_three_runs(self):
        summary = average_runs([self._report(v) for v in (0.70, 0.75, 0.80)])
        assert summary.mean_f1 == pytest.approx(0.75)
        assert summary.per_run_f1 == (0.70, 0.75, 0.80)

    def test_single_run(self):
        summary = average_runs([self._report(0.5)])
        assert summary.mean_f1 == 0.5

    def test_empty_list(self):
        with pytest.raises(ValueError):
            average_runs([])

    def test_mean_matches_recompute(self):
        values = [0.1, 0.33, 0.98, 0.5]
        summary = average_runs([self._report(v) for v in values])
        assert summary.mean_f1 == pytest.approx(float(np.mean(values)))


class TestPredictionFiles:
    def test_round_trip(self, tmp_path):
        gold, pred = paired_corpora(
            [["B-PER", "I-PER", "O"], ["B-LOC", "O", "O"]],
            [["B-PER", "O", "O"], ["B-LOC", "O", "B-ORG"]])
        path = tmp_path / "pred.conll"
        write_conll_predictions(gold, pred, path)
        gold2, pred2 = read_conll_predictions(path)
        assert evaluate(gold2, pred2) == evaluate(gold, pred)
        assert pred2 == pred
        for s_orig, s_read in zip(gold, gold2):
            assert s_orig.gold_tags() == s_read.gold_tags()

    def test_mismatch_writes_nothing(self, tmp_path):
        gold, _ = paired_corpora([["B-PER", "O"], ["O"]], [["O", "O"], ["O"]])
        path = tmp_path / "pred.conll"
        for predicted, index in (([["O", "O"]], 1), ([["O", "O"], ["O", "O"]], 1)):
            with pytest.raises(StructureMismatchError) as exc:
                write_conll_predictions(gold, predicted, path)
            assert exc.value.sentence_index == index
        assert not path.exists()

    @pytest.mark.parametrize("column", [1, 2])
    def test_ill_formed_tag_column_names_its_line(self, tmp_path, column):
        """Each tag column is checked as ``read_conll`` checks its one: an
        I- tag that continues no span is a ParseError at its line, in the
        gold column and in the predicted one alike."""
        rows = [["Anna", "B-PER", "B-PER"], ["lebt", "O", "O"], ["", "", ""],
                ["in", "O", "O"], ["Wien", "B-LOC", "B-LOC"], ["Graz", "O", "O"]]
        rows[5][column] = "I-ORG"
        path = tmp_path / "pred.conll"
        path.write_text("".join(" ".join(row).strip() + "\n" for row in rows),
                        encoding="utf-8")
        with pytest.raises(ParseError, match="ill-formed tag sequence") as exc:
            read_conll_predictions(path)
        assert exc.value.line == 6

    def test_missing_predicted_column_names_its_line(self, tmp_path):
        path = tmp_path / "pred.conll"
        path.write_text("Anna B-PER B-PER\nlebt O\n", encoding="utf-8")
        with pytest.raises(ParseError, match="need token column 0 and tag column 1 and 2") as exc:
            read_conll_predictions(path)
        assert exc.value.line == 2

    def test_iobes_written_as_iob2(self, tmp_path, tiny_iobes_corpus):
        path = tmp_path / "pred.conll"
        write_conll_predictions(tiny_iobes_corpus, own_tags(tiny_iobes_corpus), path)
        text = path.read_text(encoding="utf-8")
        assert "S-" not in text and "E-" not in text
        assert "Anna B-PER B-PER" in text

    def test_empty_corpus_empty_file(self, tmp_path):
        empty = TaggedCorpus((), scheme=TagScheme.IOB2)
        path = tmp_path / "empty.conll"
        write_conll_predictions(empty, [], path)
        assert path.read_text(encoding="utf-8") == ""


class TestFormatting:
    def test_table_contains_micro_and_labels(self):
        gold, pred = paired_corpora([["B-PER", "B-LOC"]], [["B-PER", "B-LOC"]])
        text = format_report(evaluate(gold, pred))
        assert "micro" in text and "PER" in text and "LOC" in text
        assert "1.0000" in text

    def test_to_dict_round(self):
        gold, pred = paired_corpora([["B-PER", "O"]], [["O", "O"]])
        d = evaluate(gold, pred).to_dict()
        assert d["micro"]["tp"] == 0 and d["labels"]["PER"]["gold"] == 1
