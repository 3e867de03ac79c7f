"""Latent topic structure of hashtag tweet collections.

Each hashtag-and-window pair becomes one bag-of-words document of plain
words; topics are fit by collapsed Gibbs sampling with symmetric priors.
Sampling is seeded and single-threaded.

There are two samplers of one model, one per job. `fit_lda` runs a single
fit over `HashtagDocument`s of words: the sweep runs over plain Python lists
and draws its uniforms in blocks, one block per document, from the same
PCG64 stream that one scalar draw per token would read. Each weight, its
running sum and the search over that sum are the same floating-point
operations as numpy's elementwise product, cumsum and searchsorted, so a
fixed seed reproduces the model bit for bit. It serves a one-candidate
`features.featurize` and `fit_candidate_topics`, and is the reference for
the batch.

`fit_lda_batch` runs many independent fits in lockstep, one token position
of every fit per numpy step, and gives each fit exactly the model fit_lda
would. Its documents are `IdDocument`s: int32 ids into a sorted vocabulary,
as `features` reads them off the index's token stream, so a fit's sorted
distinct ids order its rows as fit_lda's sorted words do. The batch's row
table is term-major, `rows[t, j, b]` for token t, term j (word, document or
total row) and fit b, so each step gathers, adds priors to, multiplies and
divides contiguous (fits, K) blocks. `features.featurize_all` fits all its
candidate pairs with it, and reads each model only through
`TopicModel.doc_top_rows`. Each step costs tens of microseconds of numpy
calls whatever the number of fits, and the batch runs as many steps as its
longest fit has tokens, so a batch of one is several times slower than
fit_lda.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .corpus import CorpusIndex, observation_window

logger = logging.getLogger(__name__)


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

    Hashtag and mention tokens are dropped (`CorpusIndex.plain_words`);
    what remains is the plain text vocabulary. Empty documents are kept but
    flagged in the log.
    """
    lo, hi = window
    docs = []
    for canon in hashtags:
        tokens = index.plain_words(index.positions_between(canon, lo, hi))
        if not tokens:
            logger.warning("document for %r over (%d, %d) is empty", canon, lo, hi)
        docs.append(HashtagDocument(doc_id=f"{canon}@{hi}", hashtag=canon, tokens=tokens))
    return docs


@dataclass(frozen=True, eq=False)
class IdDocument:
    """A document as the int32 ids of its tokens, in order, into a sorted vocabulary."""

    doc_id: str
    ids: np.ndarray


@dataclass(eq=False)
class TopicModel:
    """Fitted LDA state: final-sweep count matrices plus priors."""

    n_topics: int
    alpha: float
    beta: float
    vocab: tuple[str, ...]
    doc_ids: tuple[str, ...]
    word_topic: np.ndarray  # V x K
    doc_topic: np.ndarray  # D x K
    doc_vocab: tuple[frozenset[int], ...]  # each document's word ids
    seed: int
    iterations: int

    def doc_top_rows(self, doc_id: str, n: int = 100) -> np.ndarray:
        """Column k holds the `word_topic` rows of the document's n highest-count
        words in topic k; ties resolve alphabetically.

        Members are sorted alphabetically first, so one stable sort of the
        negated counts, column by column, gives the (-count, word) order. A
        fitted vocabulary is sorted, so the members in row order are already
        in word order, and the sort by word only confirms it.
        """
        if doc_id not in self.doc_ids:
            raise ValueError(f"model was not fitted over document {doc_id!r}")
        members = np.array(
            sorted(sorted(self.doc_vocab[self.doc_ids.index(doc_id)]), key=self.vocab.__getitem__),
            dtype=np.intp,
        )
        return members[np.argsort(-self.word_topic[members], axis=0, kind="stable")[:n]]

    def doc_top_words(self, doc_id: str, n: int = 100) -> list[list[str]]:
        """Per topic, the words of `doc_top_rows`, in rank order."""
        return [list(map(self.vocab.__getitem__, column))
                for column in self.doc_top_rows(doc_id, n).T.tolist()]


def fit_lda(
    documents: list[HashtagDocument],
    n_topics: int,
    alpha: float | None = None,
    beta: float = 0.01,
    iterations: int = 1000,
    seed: int = 0,
) -> TopicModel:
    """Collapsed Gibbs sampling over the document set.

    alpha defaults to 50 / n_topics. Token count bookkeeping is audited
    after the last sweep, and any imbalance raises.
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
    for _ in range(iterations):
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


def fit_lda_batch(
    fits: Sequence[Sequence[IdDocument]],
    vocabulary: Sequence[str],
    n_topics: int,
    alpha: float | None = None,
    beta: float = 0.01,
    iterations: int = 1000,
    seed: int = 0,
) -> list[TopicModel]:
    """`fit_lda(documents, ...)` of every document list in `fits`, run in lockstep.

    The documents of a fit are `IdDocument`s, whose ids index `vocabulary`;
    it must be sorted and distinct, as `CorpusIndex.vocabulary` is, and
    each fit is then that of the `HashtagDocument`s of those words. A fit's
    sorted distinct ids are its vocabulary, in fit_lda's sorted order.

    Each fit keeps its own counts and `default_rng(seed)`, and draws one
    block of uniforms per sweep, the same PCG64 stream as fit_lda's
    per-document blocks. One step resamples token position t of every fit
    at once, as rows of numpy arrays: the weights are the same elementwise
    operations, `cumsum` along a row adds in sequence like `accumulate`,
    and the first of the K - 1 leading running sums > u * total, else
    K - 1, is the index `bisect_right` returns clamped to K - 1, since
    running sums of positive weights never fall. So each model equals,
    count for count, the one fit_lda makes; its count matrices are int32
    views into the batch's state. Fits are sorted by length, longest first,
    so the fits still sampling at step t are a prefix of the rows.

    Raises what fit_lda raises for the same settings or for any one fit,
    and audits every fit's counts after the last sweep. An empty batch fits
    nothing and returns [].
    """
    if not fits:
        return []
    if n_topics < 2:
        raise ValueError(f"need at least 2 topics, got {n_topics}")
    if iterations < 1:
        raise ValueError("iterations must be positive")
    if alpha is None:
        alpha = 50.0 / n_topics
    tokens = [np.concatenate([doc.ids for doc in docs]) for docs in fits]
    words = [_distinct(ids) for ids in tokens]  # each fit's vocabulary, as ids
    if not all(map(len, words)):
        raise ValueError("all documents are empty, nothing to fit")

    order = sorted(range(len(fits)), key=lambda f: -len(tokens[f]))  # longest first
    lengths = [len(tokens[f]) for f in order]
    # One int32 matrix holds every fit's counts: for the b-th longest fit,
    # from row start[b], its word-topic rows, its document-topic rows and its
    # topic totals.
    start = np.cumsum([0] + [len(words[f]) + len(fits[f]) + 1 for f in order])
    # rows[t, j, b]: the word (j = 0), document (1) and total (2) row of fit
    # b's token t
    rows = np.zeros((lengths[0], 3, len(fits)), dtype=np.int32)
    row_of = np.empty(len(vocabulary), dtype=np.int32)  # a vocabulary id's row in one fit
    for b, f in enumerate(order):
        n, v, docs = lengths[b], len(words[f]), fits[f]
        row_of[words[f]] = np.arange(v, dtype=np.int32)
        rows[:n, 0, b] = row_of[tokens[f]]
        rows[:n, 1, b] = np.repeat(np.arange(v, v + len(docs)), [len(doc.ids) for doc in docs])
        rows[:n, 2, b] = v + len(docs)
        rows[:n, :, b] += start[b]
    v_beta = [len(words[f]) * beta for f in order]
    counts = _lockstep_sweeps(rows, lengths, start, v_beta, n_topics, alpha, beta, iterations,
                              seed)

    models = {}
    for b, f in enumerate(order):
        n, v, docs = lengths[b], len(words[f]), fits[f]
        block = counts[start[b] : start[b + 1]]
        local = rows[:n, 0, b] - start[b]
        spans = np.cumsum([0] + [len(doc.ids) for doc in docs])
        models[f] = TopicModel(
            n_topics=n_topics,
            alpha=alpha,
            beta=beta,
            vocab=tuple(map(vocabulary.__getitem__, words[f].tolist())),
            doc_ids=tuple(doc.doc_id for doc in docs),
            word_topic=block[:v],
            doc_topic=block[v : v + len(docs)],
            doc_vocab=tuple(frozenset(local[lo:hi].tolist()) for lo, hi in zip(spans, spans[1:])),
            seed=seed,
            iterations=iterations,
        )
    return [models[f] for f in range(len(fits))]


def _distinct(ids: np.ndarray) -> np.ndarray:
    """The distinct values of `ids`, ascending (what `np.unique` returns,
    without the `numpy.ma` import of its first call)."""
    ids = np.sort(ids)
    keep = np.ones(len(ids), dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


def _lockstep_sweeps(rows, lengths, start, v_beta, n_topics, alpha, beta, iterations, seed):
    """Final int32 counts of `fit_lda_batch`'s fits.

    Fit b (the b-th longest) owns count rows start[b] to start[b + 1], has
    lengths[b] tokens, and `rows[t, :, b]` holds its token t's word,
    document and total rows. The buffers made here are freed on return,
    before the models are built.
    """
    n_fits, longest = len(lengths), lengths[0]
    topic = np.zeros((longest, n_fits), dtype=np.intp)
    rngs = [np.random.default_rng(seed) for _ in range(n_fits)]
    for b, (rng, n) in enumerate(zip(rngs, lengths)):
        topic[:n, b] = rng.integers(0, n_topics, size=n)
    # running[t]: how many fits have a token at position t
    running = np.searchsorted(-np.array(lengths), -np.arange(longest), side="left")
    cells = rows * n_topics  # each row's offset in `counts.ravel()`
    bounds = start * n_topics
    flat = np.zeros(bounds[-1], dtype=np.int32)
    for lo, hi, tally in _tallies(cells, topic, lengths, bounds):
        flat[lo:hi] = tally
    counts = flat.reshape(-1, n_topics)

    # the term added to the word, document and total counts, per fit
    priors = np.empty((3, n_fits, n_topics))
    priors[0], priors[1], priors[2] = beta, alpha, np.array(v_beta)[:, None]
    uniforms = np.zeros((longest, n_fits))
    terms = np.empty((3, n_fits, n_topics))
    weight = np.empty((n_fits, n_topics))
    last = n_topics - 1
    # above[b, k]: fit b's running sum through topic k exceeds u * total;
    # the last column is set True each step, so the last topic is taken when
    # no earlier one is
    above = np.empty((n_fits, n_topics), dtype=bool)
    for _ in range(iterations):
        for b, (rng, n) in enumerate(zip(rngs, lengths)):
            uniforms[:n, b] = rng.random(n)
        for t in range(longest):
            m = running[t]
            at = cells[t, :, :m] + topic[t, :m]  # int64, the fast index type
            flat[at] -= 1
            # (n_wk + beta) * (n_dk + alpha) / (n_k + V*beta), row by row; the
            # counts are cast before the priors are added, which runs faster
            # than numpy's mixed int32 + float64 add and rounds the same
            term = terms[:, :m]
            np.copyto(term, counts.take(rows[t, :, :m], axis=0))
            term += priors[:, :m]
            w = weight[:m]
            np.multiply(term[0], term[1], out=w)
            w /= term[2]
            w.cumsum(axis=1, out=w)
            np.greater(w, (uniforms[t, :m] * w[:, last])[:, None], out=above[:m])
            above[:m, last] = True
            k = above[:m].argmax(axis=1)
            topic[t, :m] = k
            flat[cells[t, :, :m] + k] += 1

    if topic.min() < 0 or topic.max() >= n_topics:
        raise AssertionError("topic assignment out of range")
    for lo, hi, tally in _tallies(cells, topic, lengths, bounds):
        if not np.array_equal(tally, flat[lo:hi]):
            raise AssertionError("token counts drifted during sampling")
    return counts


def _tallies(cells, topic, lengths, bounds):
    """Fit by fit, its flat cells [lo, hi) and how many of its assignments take each."""
    for b, n in enumerate(lengths):
        lo, hi = bounds[b], bounds[b + 1]
        taken = (cells[:n, :, b] + topic[:n, b, None]).ravel() - lo
        yield lo, hi, np.bincount(taken, minlength=hi - lo)


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
    observation window, and documents are fitted in doc_id order. Features
    never read this joint fit, since its topic-word counts mix in the
    windows of candidates that compound later, and no command runs it: it
    stays only because `bench/tracing.py` wraps it by name.
    """
    documents: dict[tuple[str, int], HashtagDocument] = {}
    for cand in candidates:
        window = observation_window(cand.compound_first_seen, obs_months)
        for part in (cand.part_a.canonical, cand.part_b.canonical):
            if (part, window[1]) not in documents:
                documents[part, window[1]] = build_documents(index, [part], window)[0]
    ordered = sorted(documents.values(), key=lambda d: d.doc_id)
    return fit_lda(ordered, n_topics=n_topics, iterations=iterations, seed=seed)
