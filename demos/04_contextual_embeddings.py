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
vectors_visit = contextual.forward(visit)
vectors_live = contextual.forward(live)
print(f"each token vector has {vectors_visit.shape[1]} dimensions "
      f"(forward state + backward state)")

wien_as_object = vectors_visit[2]
wien_as_subject = vectors_live[0]
cos = float(wien_as_object @ wien_as_subject /
            (np.linalg.norm(wien_as_object) * np.linalg.norm(wien_as_subject)))
print(f"'Wien' in two different contexts, cosine similarity: {cos:.3f} "
      f"(not 1.0: the context flows into the vector)")

again = contextual.forward(visit)
assert np.array_equal(vectors_visit, again)
print("same sentence, same models: identical vectors.\n")

# stack the frozen LM block with a trainable character-feature block
encoder = CharFeatureEncoder(forward.vocab, np.random.default_rng(0),
                             embed_dim=16, hidden=12)
stack = StackedEmbedder([contextual, encoder])
stacked, _ = stack.forward(visit)
print(f"stacked embedder: {stacked.shape[1]} dimensions per token "
      f"({vectors_visit.shape[1]} frozen + {encoder.dim} trainable)")
