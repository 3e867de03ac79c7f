"""Latent topic structure of hashtag tweet collections.

Each hashtag-and-window pair becomes one bag-of-words document of plain
words; topics are fit by collapsed Gibbs sampling with symmetric priors.
`features.avg_topic_overlap` fits one candidate's two documents on their
own; `fit_candidate_topics` fits a candidate set for `fit-lda`. Sampling is
seeded and single-threaded. The sweep runs over plain Python lists and draws its
uniforms in blocks, one block per document, from the same PCG64 stream that
one scalar draw per token would read. Each weight, its running sum and the
search over that sum are the same floating-point operations as numpy's
elementwise product, cumsum and searchsorted, so a fixed seed reproduces the
model bit for bit.
"""

from __future__ import annotations

import json
import logging
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .corpus import CorpusIndex, observation_window
from .errors import read_json

logger = logging.getLogger(__name__)

MODEL_FORMAT = "tagmerge-topics"
MODEL_VERSION = 1


@dataclass(frozen=True)
class HashtagDocument:
    """Concatenated tweet tokens of one hashtag over one time window."""

    doc_id: str
    hashtag: str
    tokens: tuple[str, ...]


def build_documents(
    index: CorpusIndex, hashtags: list[str], window: tuple[int, int]
) -> list[HashtagDocument]:
    """One document per hashtag from tweets inside the open window.

    Hashtag and mention tokens are dropped (`CorpusIndex.plain_tokens_of`);
    what remains is the plain text vocabulary. Empty documents are kept but
    flagged in the log.
    """
    lo, hi = window
    docs = []
    for canon in hashtags:
        tokens: list[str] = []
        for tweet in index.tweets_between(canon, lo, hi):
            tokens.extend(index.plain_tokens_of(tweet))
        if not tokens:
            logger.warning("document for %r over (%d, %d) is empty", canon, lo, hi)
        docs.append(HashtagDocument(doc_id=f"{canon}@{hi}", hashtag=canon, tokens=tuple(tokens)))
    return docs


class TopicModel:
    """Fitted LDA state: final-sweep count matrices plus priors."""

    def __init__(
        self,
        n_topics: int,
        alpha: float,
        beta: float,
        vocab: tuple[str, ...],
        doc_ids: tuple[str, ...],
        word_topic: np.ndarray,
        doc_topic: np.ndarray,
        doc_vocab: tuple[frozenset[int], ...],
        seed: int,
        iterations: int,
    ):
        self.n_topics = n_topics
        self.alpha = alpha
        self.beta = beta
        self.vocab = vocab
        self.word_index = {w: i for i, w in enumerate(vocab)}
        self.doc_ids = doc_ids
        self.doc_index = {d: i for i, d in enumerate(doc_ids)}
        self.word_topic = word_topic  # V x K
        self.doc_topic = doc_topic  # D x K
        self.doc_vocab = doc_vocab
        self.seed = seed
        self.iterations = iterations

    @property
    def topic_totals(self) -> np.ndarray:
        return self.word_topic.sum(axis=0)

    def phi(self) -> np.ndarray:
        """Topic-word probabilities, rows (topics) summing to one."""
        v = len(self.vocab)
        totals = self.topic_totals[:, None].astype(float)
        return (self.word_topic.T + self.beta) / (totals + v * self.beta)

    def top_words(self, topic: int, n: int = 100) -> list[str]:
        """Highest-probability words of a topic; ties resolve alphabetically."""
        if not 0 <= topic < self.n_topics:
            raise ValueError(f"topic {topic} out of range")
        column = self.word_topic[:, topic]
        order = sorted(range(len(self.vocab)), key=lambda i: (-column[i], self.vocab[i]))
        return [self.vocab[i] for i in order[:n]]

    def top_words_in_doc(self, doc_id: str, topic: int, n: int = 100) -> list[str]:
        """Topic ranking restricted to words the document actually contains."""
        if not 0 <= topic < self.n_topics:
            raise ValueError(f"topic {topic} out of range")
        return self.doc_top_words(doc_id, n)[topic]

    def doc_top_words(self, doc_id: str, n: int = 100) -> list[list[str]]:
        """Per topic, the document's n highest-count words; ties resolve alphabetically.

        Members are sorted alphabetically first, so one stable sort of the
        negated counts, column by column, gives the (-count, word) order.
        """
        if doc_id not in self.doc_index:
            raise ValueError(f"model was not fitted over document {doc_id!r}")
        members = sorted(self.doc_vocab[self.doc_index[doc_id]], key=self.vocab.__getitem__)
        words = np.array([self.vocab[i] for i in members], dtype=object)
        order = np.argsort(-self.word_topic[members], axis=0, kind="stable")[:n]
        return words[order].T.tolist()

    def to_payload(self) -> dict:
        return {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "n_topics": self.n_topics,
            "alpha": self.alpha,
            "beta": self.beta,
            "seed": self.seed,
            "iterations": self.iterations,
            "vocab": list(self.vocab),
            "doc_ids": list(self.doc_ids),
            "word_topic": self.word_topic.tolist(),
            "doc_topic": self.doc_topic.tolist(),
            "doc_vocab": [sorted(s) for s in self.doc_vocab],
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":")))
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "TopicModel":
        def decode(payload):
            return cls(
                n_topics=payload["n_topics"],
                alpha=payload["alpha"],
                beta=payload["beta"],
                vocab=tuple(payload["vocab"]),
                doc_ids=tuple(payload["doc_ids"]),
                word_topic=np.array(payload["word_topic"], dtype=np.int64),
                doc_topic=np.array(payload["doc_topic"], dtype=np.int64),
                doc_vocab=tuple(frozenset(s) for s in payload["doc_vocab"]),
                seed=payload["seed"],
                iterations=payload["iterations"],
            )

        return read_json(path, decode, MODEL_FORMAT, MODEL_VERSION)


def fit_lda(
    documents: list[HashtagDocument],
    n_topics: int,
    alpha: float | None = None,
    beta: float = 0.01,
    iterations: int = 1000,
    seed: int = 0,
    validate_every: int | None = None,
) -> TopicModel:
    """Collapsed Gibbs sampling over the document set.

    alpha defaults to 50 / n_topics. With `validate_every` set, token count
    bookkeeping is re-checked after every so many sweeps and any imbalance
    raises immediately.
    """
    if n_topics < 2:
        raise ValueError(f"need at least 2 topics, got {n_topics}")
    if iterations < 1:
        raise ValueError("iterations must be positive")
    if alpha is None:
        alpha = 50.0 / n_topics
    vocab = tuple(sorted({tok for doc in documents for tok in doc.tokens}))
    if not vocab:
        raise ValueError("all documents are empty, nothing to fit")
    word_index = {w: i for i, w in enumerate(vocab)}

    word_of = [word_index[tok] for doc in documents for tok in doc.tokens]
    spans = []  # each document's contiguous run of token positions
    for doc in documents:
        lo = spans[-1][1] if spans else 0
        spans.append((lo, lo + len(doc.tokens)))
    n_tokens = len(word_of)
    v = len(vocab)

    rng = np.random.default_rng(seed)
    assignments = rng.integers(0, n_topics, size=n_tokens).tolist()

    word_topic = [[0] * n_topics for _ in range(v)]
    doc_topic = [[0] * n_topics for _ in documents]
    topic_total = [0] * n_topics
    for (lo, hi), counts in zip(spans, doc_topic):
        for w, k in zip(word_of[lo:hi], assignments[lo:hi]):
            word_topic[w][k] += 1
            counts[k] += 1
            topic_total[k] += 1

    # float mirrors of n_dk + alpha and n_k + V*beta, refreshed from the int
    # count whenever it changes, so each weight below rounds exactly as the
    # elementwise numpy (n_wk + beta) * (n_dk + alpha) / (n_k + V*beta)
    v_beta = v * beta
    doc_alpha = [[c + alpha for c in counts] for counts in doc_topic]
    total_v_beta = [c + v_beta for c in topic_total]
    last = n_topics - 1
    for sweep in range(iterations):
        for (lo, hi), counts, mirror in zip(spans, doc_topic, doc_alpha):
            # one uniform per token, in token order: the same stream as scalar draws
            for t, u in zip(range(lo, hi), rng.random(hi - lo).tolist()):
                row = word_topic[word_of[t]]
                k = assignments[t]
                row[k] -= 1
                counts[k] -= 1
                mirror[k] = counts[k] + alpha
                topic_total[k] -= 1
                total_v_beta[k] = topic_total[k] + v_beta
                cum = list(accumulate([
                    (n_wk + beta) * m_dk / m_k
                    for n_wk, m_dk, m_k in zip(row, mirror, total_v_beta)
                ]))
                k = bisect_right(cum, u * cum[-1])
                if k > last:
                    k = last
                assignments[t] = k
                row[k] += 1
                counts[k] += 1
                mirror[k] = counts[k] + alpha
                topic_total[k] += 1
                total_v_beta[k] = topic_total[k] + v_beta
        if validate_every and (sweep + 1) % validate_every == 0:
            _check_counts(word_topic, doc_topic, topic_total, doc_alpha, total_v_beta,
                          assignments, n_topics, alpha, v_beta)

    _check_counts(word_topic, doc_topic, topic_total, doc_alpha, total_v_beta,
                  assignments, n_topics, alpha, v_beta)
    return TopicModel(
        n_topics=n_topics,
        alpha=alpha,
        beta=beta,
        vocab=vocab,
        doc_ids=tuple(doc.doc_id for doc in documents),
        word_topic=np.array(word_topic, dtype=np.int64),
        doc_topic=np.array(doc_topic, dtype=np.int64),
        doc_vocab=tuple(frozenset(word_of[lo:hi]) for lo, hi in spans),
        seed=seed,
        iterations=iterations,
    )


def _check_counts(word_topic, doc_topic, topic_total, doc_alpha, total_v_beta,
                  assignments, n_topics, alpha, v_beta):
    n_tokens = len(assignments)
    if sum(map(sum, word_topic)) != n_tokens or sum(map(sum, doc_topic)) != n_tokens:
        raise AssertionError("token counts drifted during sampling")
    if sum(topic_total) != n_tokens:
        raise AssertionError("topic totals drifted during sampling")
    if [sum(column) for column in zip(*word_topic)] != topic_total:
        raise AssertionError("word-topic matrix disagrees with topic totals")
    if min(assignments) < 0 or max(assignments) >= n_topics:
        raise AssertionError("topic assignment out of range")
    if doc_alpha != [[c + alpha for c in counts] for counts in doc_topic]:
        raise AssertionError("document-topic mirrors disagree with their counts")
    if total_v_beta != [c + v_beta for c in topic_total]:
        raise AssertionError("topic-total mirrors disagree with their counts")


def fit_candidate_topics(
    index: CorpusIndex,
    candidates,
    n_topics: int,
    obs_months: int = 6,
    iterations: int = 1000,
    seed: int = 0,
) -> TopicModel:
    """Fit one model over every constituent document of the given candidates.

    Each constituent contributes one document over that candidate's own
    observation window, and documents are fitted in doc_id order. This joint
    fit is for inspecting the topics of a candidate set (the `fit-lda`
    command); features never read it, since its topic-word counts mix in the
    windows of candidates that compound later.
    """
    documents: dict[tuple[str, int], HashtagDocument] = {}
    for cand in candidates:
        window = observation_window(cand.compound_first_seen, obs_months)
        for part in (cand.part_a.canonical, cand.part_b.canonical):
            if (part, window[1]) not in documents:
                documents[part, window[1]] = build_documents(index, [part], window)[0]
    ordered = sorted(documents.values(), key=lambda d: d.doc_id)
    return fit_lda(ordered, n_topics=n_topics, iterations=iterations, seed=seed)
