"""Tag schemes, span extraction, and span-level evaluation.

Walks a small tagged sentence through IOB2 and IOBES, shows that
conversion never moves entity boundaries, and scores an imperfect
prediction the way the CoNLL shared-task scorer would.
"""

from histtag import (
    Sentence,
    TaggedCorpus,
    TagScheme,
    Token,
    convert_tags,
    evaluate,
    extract_spans,
    format_report,
)

iob2 = ["B-PER", "I-PER", "O", "B-LOC", "B-LOC", "O"]
words = ["Maria", "Theresia", "besuchte", "Wien", "Graz", "."]

print("IOB2 tags: ", list(zip(words, iob2)))
spans = extract_spans(iob2, TagScheme.IOB2)
print("spans:     ", spans)

iobes = convert_tags(iob2, TagScheme.IOB2, TagScheme.IOBES)
print("as IOBES:  ", iobes)
assert extract_spans(iobes, TagScheme.IOBES) == spans, "conversion moved a span"
print("same spans under both schemes.\n")

# score a prediction that got the person right, one location wrong, and
# hallucinated an organization
predicted = ["B-PER", "I-PER", "O", "B-LOC", "O", "B-ORG"]
gold_corpus = TaggedCorpus(
    (Sentence(tuple(Token(w, gold_tag=t) for w, t in zip(words, iob2))),),
    scheme=TagScheme.IOB2)

# predictions are one tag list per sentence, in the gold corpus's scheme
report = evaluate(gold_corpus, [predicted])
print(format_report(report))
print(f"\nexact-boundary matching: {report.tp} of {report.tp + report.fn} "
      f"gold spans found, {report.fp} spurious.")
