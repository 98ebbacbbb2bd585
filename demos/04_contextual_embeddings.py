"""Contextual string embeddings from character LMs.

A token's vector is read out of the language models' hidden states at the
token's boundary characters, so the same surface form gets different
vectors in different contexts, and stacking adds trainable character
features alongside the frozen LM signal.
"""

import numpy as np

from histtag import (
    CharFeatureEncoder,
    CharLmConfig,
    ContextualEmbedder,
    Sentence,
    SentenceGroup,
    StackedEmbedder,
    Token,
    train_lm,
)
from histtag.toydata import build_plain_corpus

corpus = build_plain_corpus(seed=0, lines=400)
config = dict(char_embed_dim=16, hidden_size=24, sequence_length=60,
              dropout=0.0, epochs=2, learning_rate=5.0)
forward, _ = train_lm(corpus, CharLmConfig(direction="forward", **config), seed=1)
backward, _ = train_lm(corpus, CharLmConfig(direction="backward", **config), seed=1)


def sentence(words):
    return Sentence(tuple(Token(w, gold_tag="O") for w in words))


visit = sentence(["Anna", "besucht", "Wien", "."])
live = sentence(["Wien", "liegt", "an", "der", "Donau", "."])

contextual = ContextualEmbedder(forward, backward)
# a component reads a group of sentences and returns one row per token
both = contextual.forward(SentenceGroup([visit, live]))
vectors_visit, vectors_live = both[:len(visit)], both[len(visit):]
print(f"each token vector has {vectors_visit.shape[1]} dimensions "
      f"(forward state + backward state)")

wien_as_object = vectors_visit[2]
wien_as_subject = vectors_live[0]
cos = float(wien_as_object @ wien_as_subject /
            (np.linalg.norm(wien_as_object) * np.linalg.norm(wien_as_subject)))
print(f"'Wien' in two different contexts, cosine similarity: {cos:.3f} "
      f"(not 1.0: the context flows into the vector)")

again = contextual.forward(SentenceGroup([visit]))
assert np.allclose(vectors_visit, again, rtol=0, atol=1e-12)
print("same sentence alone, same models: the same vectors (within 1e-12).\n")

# stack the frozen LM block with a trainable character-feature block
encoder = CharFeatureEncoder(forward.vocab, np.random.default_rng(0),
                             embed_dim=16, hidden=12)
stack = StackedEmbedder([contextual, encoder])
stacked, lengths, _ = stack.forward([visit, live])
print(f"stacked embedder: {stacked.shape[2]} dimensions per token "
      f"({vectors_visit.shape[1]} frozen + {encoder.dim} trainable), "
      f"padded block {stacked.shape} for sentences of {lengths.tolist()} tokens")
