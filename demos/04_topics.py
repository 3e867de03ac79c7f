"""Fit a small topic model and inspect what each topic collects.

Run: python3 demos/04_topics.py
"""

import numpy as np

from tagmerge.topicmodel import HashtagDocument, fit_lda

rng = np.random.default_rng(0)

weather = ("snow", "storm", "cold", "wind", "frost", "cloud")
sports = ("goal", "match", "score", "team", "coach", "season")

documents = []
for i in range(60):
    vocab = weather if i % 2 == 0 else sports
    tokens = tuple(vocab[int(j)] for j in rng.integers(0, len(vocab), size=18))
    documents.append(HashtagDocument(doc_id=f"doc{i:02d}", hashtag="demo", tokens=tokens))

model = fit_lda(documents, n_topics=2, alpha=0.5, iterations=200, seed=0)

# word_topic holds each word's final-sweep count per topic; rank a column by
# count, ties alphabetically (vocab is sorted, so a stable sort keeps that)
for k in range(2):
    order = np.argsort(-model.word_topic[:, k], kind="stable")[:6]
    top = ", ".join(model.vocab[i] for i in order)
    print(f"topic {k} ({model.word_topic[:, k].sum()} tokens): {top}")

# topic_overlap reads only the ranking behind doc_top_words (doc_top_rows):
# per topic, a document's own words by count
first, second = documents[0].doc_id, documents[2].doc_id
tops_a, tops_b = model.doc_top_words(first, 4), model.doc_top_words(second, 4)
print(f"\n{first} words ranked within its own vocabulary: {', '.join(tops_a[0])}")
shared = [len(set(a) & set(b)) for a, b in zip(tops_a, tops_b)]
print(f"top-4 words {first} and {second} share per topic: {shared}")
