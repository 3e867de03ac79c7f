"""Gibbs-sampled topic model: bookkeeping, determinism, and recovery."""

import hashlib
import json
from functools import partial

import numpy as np
import pytest

from tagmerge.compound import detect_candidates
from tagmerge.corpus import CorpusIndex
from tagmerge.topicmodel import (
    HashtagDocument,
    IdDocument,
    TopicModel,
    build_documents,
    fit_candidate_topics,
    fit_lda,
    fit_lda_batch,
)
from tagmerge import topicmodel

from conftest import make_tweet, utc
from oracles import top_words


def doc(doc_id, tokens):
    return HashtagDocument(doc_id=doc_id, hashtag=doc_id.split("@")[0], tokens=tuple(tokens))


def two_topic_docs(n_docs=30, tokens_per_doc=24):
    """Alternating documents drawn from two disjoint six-word vocabularies."""
    vocab_a = [f"alpha{i}" for i in range(6)]
    vocab_b = [f"bravo{i}" for i in range(6)]
    docs = []
    for d in range(n_docs):
        pool = vocab_a if d % 2 == 0 else vocab_b
        tokens = [pool[j % 6] for j in range(tokens_per_doc)]
        docs.append(doc(f"d{d:03d}@0", tokens))
    return docs, set(vocab_a), set(vocab_b)


def test_build_documents_drops_tags_and_mentions():
    index = CorpusIndex(
        [
            make_tweet("#red Sun sets @here tonight", utc(2011, 6, 2), tid="x1"),
            make_tweet("#red calm waters", utc(2011, 6, 3), tid="x2"),
            make_tweet("#red too late", utc(2011, 8, 1), tid="x3"),
        ]
    )
    window = (utc(2011, 6, 1), utc(2011, 7, 1))
    docs = build_documents(index, ["red"], window)
    assert len(docs) == 1
    assert docs[0].doc_id == f"red@{window[1]}"
    assert docs[0].tokens == ("sun", "sets", "tonight", "calm", "waters")


def test_build_documents_keeps_empty_docs():
    index = CorpusIndex([make_tweet("#red #blue", utc(2011, 6, 2))])
    docs = build_documents(index, ["blue"], (utc(2011, 6, 1), utc(2011, 7, 1)))
    assert docs[0].tokens == ()


def test_fit_lda_validates_arguments():
    docs = [doc("a@0", ["x", "y"])]
    with pytest.raises(ValueError):
        fit_lda(docs, n_topics=1)
    with pytest.raises(ValueError):
        fit_lda(docs, n_topics=2, iterations=0)
    with pytest.raises(ValueError):
        fit_lda([doc("a@0", [])], n_topics=2)


def test_fit_lda_conserves_tokens():
    docs, _, _ = two_topic_docs(10, 12)
    n_tokens = sum(len(d.tokens) for d in docs)
    model = fit_lda(docs, n_topics=3, iterations=5, seed=1)
    assert int(model.word_topic.sum()) == n_tokens
    assert int(model.doc_topic.sum()) == n_tokens
    assert np.array_equal(model.word_topic.sum(axis=0), model.doc_topic.sum(axis=0))
    # per-document token counts survive too
    for i, d in enumerate(docs):
        assert int(model.doc_topic[i].sum()) == len(d.tokens)


def test_fit_lda_is_seed_deterministic():
    docs, _, _ = two_topic_docs(10, 12)
    m1 = fit_lda(docs, n_topics=3, iterations=8, seed=42)
    m2 = fit_lda(docs, n_topics=3, iterations=8, seed=42)
    assert np.array_equal(m1.word_topic, m2.word_topic)
    assert np.array_equal(m1.doc_topic, m2.doc_topic)
    m3 = fit_lda(docs, n_topics=3, iterations=8, seed=43)
    assert not np.array_equal(m1.word_topic, m3.word_topic)


def wide_docs():
    """Twelve 40-token documents over a 53-word vocabulary, overlapping unevenly."""
    return [
        doc(f"w{d:02d}@0", [f"word{(d * 7 + j * j) % 53:02d}" for j in range(40)])
        for d in range(12)
    ]


def docs_with_empties():
    """Six two-topic documents with empty ones first, in the middle and last."""
    docs, _, _ = two_topic_docs(6, 10)
    return [doc("a-empty@0", [])] + docs[:3] + [doc("m-empty@0", [])] + docs[3:] + [
        doc("z-empty@0", [])
    ]


def model_payload(model):
    """A model's settings and counts as the object the golden digests hash.

    It holds, key for key, what the `tagmerge-topics` v1 model file held
    when models were still saved, so the digests are that file's.
    """
    return {
        "format": "tagmerge-topics",
        "version": 1,
        "n_topics": model.n_topics,
        "alpha": model.alpha,
        "beta": model.beta,
        "seed": model.seed,
        "iterations": model.iterations,
        "vocab": list(model.vocab),
        "doc_ids": list(model.doc_ids),
        "word_topic": model.word_topic.tolist(),
        "doc_topic": model.doc_topic.tolist(),
        "doc_vocab": [sorted(s) for s in model.doc_vocab],
    }


def model_digest(model):
    return hashlib.sha256(json.dumps(model_payload(model), sort_keys=True).encode()).hexdigest()


# SHA-256 of the sorted-key JSON of `model_payload`. The digests pin the draws: one
# uniform per token, in token order, from the seed's PCG64 stream, weights
# summed left to right, and the first topic whose running sum exceeds the
# scaled uniform. Any change to the draws, the weights or their summation
# order shows here.
GOLDEN_FITS = [
    (lambda: two_topic_docs(10, 12)[0], dict(n_topics=4, iterations=5, seed=1),
     "17be95ec5272750d2ae6da4c91763f708ab1038bffda8fe501b2932ed9a241fb"),
    (wide_docs, dict(n_topics=30, alpha=0.5, iterations=3, seed=7),
     "3a90d3c0ac46712ad8a5ccfa424238b57157a77494e297faeb9691ccc214eb56"),
    (docs_with_empties, dict(n_topics=3, iterations=4, seed=5),
     "b321e72a551908329fcb0041dc1ec995f3abeb93c9568c0e49dff2f3c66b2ffc"),
]


@pytest.mark.parametrize("make_docs, settings, digest", GOLDEN_FITS, ids=["k4", "k30", "empty"])
def test_fit_lda_reproduces_golden_models(make_docs, settings, digest):
    assert model_digest(fit_lda(make_docs(), **settings)) == digest


def random_fits(rng, n_fits):
    """Document lists of unequal lengths over a 40-word vocabulary.

    The first fit has one document and the second has an empty document
    between non-empty ones; the rest have one to four documents, any of them
    possibly empty, but never all.
    """
    fits = []
    for f in range(n_fits):
        n_docs = 1 if f == 0 else int(rng.integers(1, 5))
        lengths = rng.integers(0, 30, size=n_docs)
        if f == 1:
            lengths = np.concatenate([[1 + lengths[0]], [0], 1 + lengths[1:]])
        if not lengths.any():
            lengths[-1] = 1
        fits.append([
            doc(f"f{f}d{d}@0", [f"w{x:02d}" for x in rng.integers(0, 40, size=n)])
            for d, n in enumerate(lengths)
        ])
    return fits


def batch_fit(fits, **settings):
    """`fit_lda_batch` of word-document fits, as `IdDocument`s.

    The ids index one sorted vocabulary of every word of the batch and
    three that no document holds, so no fit's ids start at 0 or run
    without gaps.
    """
    words = {tok for docs in fits for d in docs for tok in d.tokens}
    vocabulary = tuple(sorted(words | {"a-unused", "m-unused", "zz-unused"}))
    word_id = {w: i for i, w in enumerate(vocabulary)}
    id_fits = [
        [IdDocument(d.doc_id, np.array([word_id[t] for t in d.tokens], dtype=np.int32))
         for d in docs]
        for docs in fits
    ]
    return fit_lda_batch(id_fits, vocabulary, **settings)


def assert_solo_models(fits, models, settings):
    """Each model is, count for count, the one `fit_lda` makes of its fit."""
    assert len(models) == len(fits)
    for docs, model in zip(fits, models):
        solo = fit_lda(docs, **settings)
        assert model.vocab == solo.vocab
        assert model.doc_ids == solo.doc_ids
        assert model.doc_vocab == solo.doc_vocab
        assert np.array_equal(model.word_topic, solo.word_topic)
        assert np.array_equal(model.doc_topic, solo.doc_topic)
        assert (model.n_topics, model.alpha, model.beta, model.seed, model.iterations) == (
            solo.n_topics, solo.alpha, solo.beta, solo.seed, solo.iterations
        )


def random_case(case):
    """Random fits and settings.

    K cycles through 2, 3, 30 and sweeps through 1..4, so the 12 seeds cover
    each pair; alpha is explicit on even cases and beta on cases 2, 3, 6, 7,
    10 and 11.
    """
    rng = np.random.default_rng(case)
    settings = dict(
        n_topics=(2, 3, 30)[case % 3],
        iterations=1 + case % 4,
        seed=int(rng.integers(0, 1000)),
        alpha=None if case % 2 else float(0.1 + rng.random()),
        beta=0.01 if case % 4 < 2 else float(0.001 + rng.random()),
    )
    return random_fits(rng, n_fits=2 + case % 5), settings


def shaped_case(sizes, n_topics):
    """One document per fit, of each given token count, over a 40-word vocabulary."""
    rng = np.random.default_rng(7)
    fits = [
        [doc(f"s{f}@0", [f"w{x:02d}" for x in rng.integers(0, 40, size=n)])]
        for f, n in enumerate(sizes)
    ]
    return fits, dict(n_topics=n_topics, iterations=2, seed=11)


# The random cases, then the shapes where one step per token of the longest fit
# costs the batch most against fit_lda: a lone fit, one or two fits about 20
# times longer than the rest (first, or placed mid-list, so input order must be
# kept), and a few short fits of few topics.
BATCH_CASES = {str(case): partial(random_case, case) for case in range(12)} | {
    "lone": partial(shaped_case, [200], 30),
    "dominating": partial(shaped_case, [400] + [20] * 19, 30),
    "long-mid-list": partial(shaped_case, [20] * 5 + [400] + [20] * 15, 30),
    "two-long": partial(shaped_case, [20] * 5 + [400, 390] + [20] * 13, 30),
    "few": partial(shaped_case, [50] * 4, 3),
}


@pytest.mark.parametrize("make_case", BATCH_CASES.values(), ids=BATCH_CASES.keys())
def test_fit_lda_batch_equals_each_solo_fit(make_case):
    fits, settings = make_case()
    assert_solo_models(fits, batch_fit(fits, **settings), settings)


def test_fit_lda_batch_of_one_equals_golden_fit():
    make_docs, settings, digest = GOLDEN_FITS[1]
    (model,) = batch_fit([make_docs()], **settings)
    assert model_digest(model) == digest


def test_fit_lda_batch_validates_arguments():
    good, empty = [doc("a@0", ["x", "y"])], [doc("e@0", []), doc("f@0", [])]
    with pytest.raises(ValueError):
        batch_fit([good], n_topics=1)
    with pytest.raises(ValueError):
        batch_fit([good], n_topics=2, iterations=0)
    with pytest.raises(ValueError):
        batch_fit([good, empty], n_topics=2)
    assert fit_lda_batch([], (), n_topics=2) == []
    # an empty batch checks its settings too
    with pytest.raises(ValueError, match="need at least 2 topics, got 1"):
        fit_lda_batch([], (), n_topics=1)
    with pytest.raises(ValueError, match="iterations must be positive"):
        fit_lda_batch([], (), n_topics=2, iterations=0)


def test_fit_lda_batch_audits_every_fit(monkeypatch):
    """A count that drifts in the last, shortest fit fails the audit."""
    real = topicmodel._tallies
    calls = []

    def drift_on_audit(cells, topic, lengths, bounds):
        calls.append(len(calls))
        for lo, hi, tally in real(cells, topic, lengths, bounds):
            if len(calls) == 2 and hi == bounds[-1]:
                tally[0] += 1
            yield lo, hi, tally

    monkeypatch.setattr(topicmodel, "_tallies", drift_on_audit)
    fits = [[doc("a@0", ["x", "y", "z"])], [doc("b@0", ["x"])]]
    with pytest.raises(AssertionError, match="drifted"):
        batch_fit(fits, n_topics=2, iterations=1)


def test_alpha_defaults_to_fifty_over_k():
    docs, _, _ = two_topic_docs(6, 10)
    model = fit_lda(docs, n_topics=4, iterations=2, seed=0)
    assert model.alpha == pytest.approx(12.5)


def test_disjoint_topics_recovered():
    docs, vocab_a, vocab_b = two_topic_docs(30, 24)
    model = fit_lda(docs, n_topics=2, alpha=0.5, iterations=150, seed=0)
    tops = [set(top_words(model, k, 6)) for k in range(2)]
    direct = len(tops[0] & vocab_a) + len(tops[1] & vocab_b)
    crossed = len(tops[0] & vocab_b) + len(tops[1] & vocab_a)
    best = max(direct, crossed)
    assert best >= 10  # at least 5 of 6 words right per topic, after matching


def fruit_model(members):
    """Two topics over three words; one document "d0" holding the words `members`."""
    return TopicModel(
        n_topics=2,
        alpha=1.0,
        beta=0.01,
        vocab=("apple", "berry", "cherry"),
        doc_ids=("d0",),
        word_topic=np.array([[2, 0], [2, 0], [0, 3]], dtype=np.int64),
        doc_topic=np.array([[4, 3]], dtype=np.int64),
        doc_vocab=(frozenset(members),),
        seed=0,
        iterations=1,
    )


def test_top_words_tie_break_is_alphabetical():
    model = fruit_model({0, 1, 2})
    # rows 0, 1, 2 are apple, berry, cherry; column k ranks topic k
    assert model.doc_top_rows("d0").T.tolist() == [[0, 1, 2], [2, 0, 1]]
    assert model.doc_top_rows("d0", 2).T.tolist() == [[0, 1], [2, 0]]


def test_top_words_in_doc_restricted_to_doc_vocabulary():
    model = fruit_model({0, 2})
    assert model.doc_top_rows("d0")[:, 0].tolist() == [0, 2]
    with pytest.raises(ValueError):
        model.doc_top_rows("missing")


def test_fit_candidate_topics_keys_and_windows():
    tweets = [
        make_tweet("#red warm words", utc(2011, 1, 10), tid="r1"),
        make_tweet("#ball round words", utc(2011, 1, 11), tid="b1"),
        make_tweet("#red more text", utc(2011, 3, 5), tid="r2"),
        make_tweet("#redball lands", utc(2011, 6, 10), tid="c1"),
        make_tweet("#game other start", utc(2011, 2, 1), tid="g1"),
        make_tweet("#redgame lands later", utc(2011, 7, 10), tid="c2"),
    ]
    index = CorpusIndex(tweets)
    cands = detect_candidates(index)
    assert {c.compound.canonical for c in cands} == {"redball", "redgame"}
    model = fit_candidate_topics(index, cands, n_topics=2, iterations=5, seed=0)
    # one document per constituent and compounding time
    t_ball = index.first_seen("redball")
    t_game = index.first_seen("redgame")
    # the same constituent at different times is two separate documents
    assert model.doc_ids == (
        f"ball@{t_ball}", f"game@{t_game}", f"red@{t_ball}", f"red@{t_game}"
    )

    def words(doc_id):
        return {model.vocab[i] for i in model.doc_vocab[model.doc_ids.index(doc_id)]}

    # each window is the open six months before that candidate's t0
    assert words(f"red@{t_ball}") == {"warm", "words", "more", "text"}
    assert words(f"red@{t_game}") == {"more", "text"}
