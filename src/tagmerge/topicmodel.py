"""Latent topic structure of hashtag tweet collections.

Each hashtag-and-window pair becomes one bag-of-words document of plain
words; topics are fit by collapsed Gibbs sampling with symmetric priors.
Sampling is seeded and single-threaded.

There are two samplers of one model. `fit_lda` runs a single fit: the sweep
runs over plain Python lists and draws its uniforms in blocks, one block per
document, from the same PCG64 stream that one scalar draw per token would
read. Each weight, its running sum and the search over that sum are the
same floating-point operations as numpy's elementwise product, cumsum and
searchsorted, so a fixed seed reproduces the model bit for bit. It serves
a one-candidate `features.featurize` and the fits `fit_lda_each` runs
alone, and is the reference for the batch.

`fit_lda_batch` runs many independent fits in lockstep, one token position
of every fit per numpy step, and gives each fit exactly the model fit_lda
would. Each step costs tens of microseconds of numpy calls whatever the
number of fits, and the batch runs as many steps as its longest fit has
tokens, so it pays off only across many fits of similar length: a batch of
one is several times slower than fit_lda. `fit_lda_each` chooses between the
two from the fits' lengths: the longest fits run alone in fit_lda when that
is cheaper, the rest in one batch. `features.featurize_all` fits all its
candidate pairs with it, and reads each model only through
`TopicModel.doc_top_words`.
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

    def doc_top_words(self, doc_id: str, n: int = 100) -> list[list[str]]:
        """Per topic, the document's n highest-count words; ties resolve alphabetically.

        Members are sorted alphabetically first, so one stable sort of the
        negated counts, column by column, gives the (-count, word) order.
        """
        if doc_id not in self.doc_ids:
            raise ValueError(f"model was not fitted over document {doc_id!r}")
        members = sorted(self.doc_vocab[self.doc_ids.index(doc_id)], key=self.vocab.__getitem__)
        words = np.array([self.vocab[i] for i in members], dtype=object)
        order = np.argsort(-self.word_topic[members], axis=0, kind="stable")[:n]
        return words[order].T.tolist()


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


def fit_lda_batch(
    fits: Sequence[Sequence[HashtagDocument]],
    n_topics: int,
    alpha: float | None = None,
    beta: float = 0.01,
    iterations: int = 1000,
    seed: int = 0,
) -> list[TopicModel]:
    """`fit_lda(documents, ...)` of every document list in `fits`, run in lockstep.

    Each fit keeps its own vocabulary, counts and `default_rng(seed)`, and
    draws one block of uniforms per sweep, the same PCG64 stream as
    fit_lda's per-document blocks. One step resamples token position t of
    every fit at once, as rows of numpy arrays: the weights are the same
    elementwise operations, `cumsum` along a row adds in sequence like
    `accumulate`, and the count of running sums <= u * total, clamped to
    K - 1, is the index `bisect_right` returns. So each model equals, count
    for count, the one fit_lda makes; its count matrices are int32 views
    into the batch's state. Fits are sorted by length, longest first, so the
    fits still sampling at step t are a prefix of the rows.

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
    vocabs = [tuple(sorted({tok for doc in docs for tok in doc.tokens})) for docs in fits]
    if not all(vocabs):
        raise ValueError("all documents are empty, nothing to fit")

    sizes = [sum(len(doc.tokens) for doc in docs) for docs in fits]
    order = sorted(range(len(fits)), key=lambda f: -sizes[f])  # longest first
    lengths = [sizes[f] for f in order]
    # One int32 matrix holds every fit's counts: for the b-th longest fit,
    # from row start[b], its word-topic rows, its document-topic rows and its
    # topic totals.
    start = np.cumsum([0] + [len(vocabs[f]) + len(fits[f]) + 1 for f in order])
    # rows[t, b]: the word, document and total rows of fit b's token t
    rows = np.zeros((lengths[0], len(fits), 3), dtype=np.int32)
    for b, f in enumerate(order):
        n, v, docs = lengths[b], len(vocabs[f]), fits[f]
        word_index = {w: i for i, w in enumerate(vocabs[f])}
        rows[:n, b, 0] = [word_index[tok] for doc in docs for tok in doc.tokens]
        rows[:n, b, 1] = np.repeat(np.arange(v, v + len(docs)), [len(doc.tokens) for doc in docs])
        rows[:n, b, 2] = v + len(docs)
        rows[:n, b] += start[b]
    v_beta = [len(vocabs[f]) * beta for f in order]
    counts = _lockstep_sweeps(rows, lengths, start, v_beta, n_topics, alpha, beta, iterations,
                              seed)

    models = {}
    for b, f in enumerate(order):
        n, v, docs = lengths[b], len(vocabs[f]), fits[f]
        block = counts[start[b] : start[b + 1]]
        words = rows[:n, b, 0] - start[b]
        spans = np.cumsum([0] + [len(doc.tokens) for doc in docs])
        models[f] = TopicModel(
            n_topics=n_topics,
            alpha=alpha,
            beta=beta,
            vocab=vocabs[f],
            doc_ids=tuple(doc.doc_id for doc in docs),
            word_topic=block[:v],
            doc_topic=block[v : v + len(docs)],
            doc_vocab=tuple(frozenset(words[lo:hi].tolist()) for lo, hi in zip(spans, spans[1:])),
            seed=seed,
            iterations=iterations,
        )
    return [models[f] for f in range(len(fits))]


# Per-sweep costs of the two samplers in microseconds, linear in the number
# of topics K, fitted to timings of 800-token pair fits for K = 2 to 60 on a
# 2-vCPU x86-64 machine (Python 3.11, numpy 2.4): fit_lda spends about
# 2 + 0.18 K per token; one lockstep step of fit_lda_batch about 30, plus
# 0.3 + 0.017 K for each fit still sampling. Where an error in these figures
# changes the chosen split, the two splits cost about the same, so a rough
# fit is enough.
SOLO_TOKEN_US = (2.0, 0.18)
BATCH_STEP_US = 30.0
BATCH_TOKEN_US = (0.3, 0.017)


def solo_fit_count(sizes: Sequence[int], n_topics: int) -> int:
    """How many of the longest fits `fit_lda_each` runs alone in fit_lda.

    `sizes` are the fits' token counts, longest first. Running the i longest
    alone and the rest in one batch costs, per sweep, the solo cost of
    sizes[:i] plus the batch's: one step per token of its longest fit,
    sizes[i], and a smaller cost per token of every fit in it. A fit shorter
    than the batch's longest adds less to the batch than it would cost alone,
    so the cheapest split is always of this form. Returns the cheapest i,
    the smallest on ties.
    """
    solo = SOLO_TOKEN_US[0] + SOLO_TOKEN_US[1] * n_topics
    batched = BATCH_TOKEN_US[0] + BATCH_TOKEN_US[1] * n_topics
    rest = sum(sizes)
    best, best_cost, done = len(sizes), solo * rest, 0.0
    for i, size in enumerate(sizes):
        cost = done + BATCH_STEP_US * size + batched * rest
        if cost <= best_cost:
            best, best_cost = i, cost
        done += solo * size
        rest -= size
    return best


def fit_lda_each(
    fits: Sequence[Sequence[HashtagDocument]],
    n_topics: int,
    alpha: float | None = None,
    beta: float = 0.01,
    iterations: int = 1000,
    seed: int = 0,
) -> list[TopicModel]:
    """`fit_lda(documents, ...)` of every document list in `fits`, each by the cheaper sampler.

    The `solo_fit_count` longest fits run alone in fit_lda and the rest
    together in one fit_lda_batch. A lone fit, a few short ones, or one that
    holds most of the tokens runs alone; many fits of similar length share
    the batch. Either way each model is the one fit_lda makes, so the choice
    changes only the time.
    """
    sizes = [sum(len(doc.tokens) for doc in docs) for docs in fits]
    order = sorted(range(len(fits)), key=lambda f: -sizes[f])  # longest first
    n_solo = solo_fit_count([sizes[f] for f in order], n_topics)
    settings = dict(n_topics=n_topics, alpha=alpha, beta=beta, iterations=iterations, seed=seed)
    models: list[TopicModel | None] = [None] * len(fits)
    for f in order[:n_solo]:
        models[f] = fit_lda(fits[f], **settings)
    batched = order[n_solo:]
    for f, model in zip(batched, fit_lda_batch([fits[f] for f in batched], **settings)):
        models[f] = model
    return models


def _lockstep_sweeps(rows, lengths, start, v_beta, n_topics, alpha, beta, iterations, seed):
    """Final int32 counts of `fit_lda_batch`'s fits.

    Fit b (the b-th longest) owns count rows start[b] to start[b + 1], has
    lengths[b] tokens, and `rows[t, b]` holds its token t's word, document
    and total rows. The buffers made here are freed on return, before the
    models are built.
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
    priors = np.empty((n_fits, 3, 1))
    priors[:, 0], priors[:, 1], priors[:, 2, 0] = beta, alpha, v_beta
    uniforms = np.zeros((longest, n_fits))
    terms = np.empty((n_fits, 3, n_topics))
    weight = np.empty((n_fits, n_topics))
    below = np.empty((n_fits, n_topics), dtype=bool)
    last = n_topics - 1
    for _ in range(iterations):
        for b, (rng, n) in enumerate(zip(rngs, lengths)):
            uniforms[:n, b] = rng.random(n)
        for t in range(longest):
            m = running[t]
            at = cells[t, :m] + topic[t, :m, None]  # int64, the fast index type
            flat[at] -= 1
            # (n_wk + beta) * (n_dk + alpha) / (n_k + V*beta), row by row
            np.add(np.take(counts, rows[t, :m], axis=0), priors[:m], out=terms[:m])
            w = weight[:m]
            np.multiply(terms[:m, 0], terms[:m, 1], out=w)
            w /= terms[:m, 2]
            np.cumsum(w, axis=1, out=w)
            np.less_equal(w, (uniforms[t, :m] * w[:, last])[:, None], out=below[:m])
            k = below[:m].sum(axis=1)
            np.minimum(k, last, out=k)
            topic[t, :m] = k
            flat[cells[t, :m] + k[:, None]] += 1

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
        taken = (cells[:n, b] + topic[:n, b, None]).ravel() - lo
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
