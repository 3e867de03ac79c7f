"""Acceptance gate for the whole pipeline.

Each test pins one deliverable property at its stated tolerance and time
budget. These run against generated corpora and independent oracles only;
nothing here depends on fixtures hand-tuned to the implementation.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from conftest import make_tweet, utc
from oracles import oracle_detect, random_corpus, top_words
from tagmerge import synth, topicmodel
from tagmerge.analysis import (
    bin_column,
    chi_square_stat,
    info_gain_stat,
    rank_features,
)
from tagmerge.compound import detect_candidates, filter_eligible, label_candidate
from tagmerge.corpus import CorpusIndex
from tagmerge.features import (
    FeatureResources,
    ObservationConfig,
    build_schema,
    entropy,
    featurize,
    featurize_all,
    kl_divergence,
    overlap_coefficient,
    zone_combo,
)
from tagmerge.learn import (
    Dataset,
    cross_validate,
    hinge_loss_grad,
    logreg_loss_grad,
)
from tagmerge.lexicon import (
    load_dictionary,
    load_gazetteer,
    load_ngram_table,
    load_pos_lexicon,
)
from tagmerge.topicmodel import HashtagDocument, fit_lda
from test_features import pipeline_fixture, pipeline_resources, wide_vocab_scenario
from test_learn import central_difference, rel_err


def load_resources(res_dir, generated):
    for filename, content in generated.resources.items():
        (res_dir / filename).write_text(content)
    return {
        "dictionary": load_dictionary(res_dir / "dictionary.txt"),
        "ngrams": load_ngram_table(res_dir / "ngrams.tsv"),
        "pos_lexicon": load_pos_lexicon(res_dir / "pos_lexicon.tsv"),
        "gazetteer": load_gazetteer(res_dir / "gazetteer.tsv"),
    }


# ---------------------------------------------------------------------------
# reference corpus flow


def test_reference_corpus_flows_end_to_end():
    started = time.monotonic()
    result = synth.generate(synth.reference_scenario())
    index = CorpusIndex(result.tweets)
    candidates = detect_candidates(index)
    by_name = {r.compound: r for r in result.manifest}

    assert len(candidates) == 20
    assert {c.compound.canonical for c in candidates} == set(by_name)
    for cand in candidates:
        row = by_name[cand.compound.canonical]
        assert (row.planted_class == 1) == (row.labels[10] == "Popular")
        for horizon in (2, 6, 10):
            expect = row.labels[horizon]
            if expect is None:
                continue
            assert label_candidate(index, cand, horizon).value == expect, (
                cand.compound.canonical,
                horizon,
            )
    assert time.monotonic() - started < 5.0


# ---------------------------------------------------------------------------
# detection equivalence


def test_detection_matches_pairwise_oracle_on_random_corpora():
    started = time.monotonic()
    for seed in range(50):
        index = random_corpus(seed)
        assert len(index) <= 500
        got = {(c.compound.canonical, c.split_index) for c in detect_candidates(index)}
        assert got == oracle_detect(index), f"seed {seed}"
    assert time.monotonic() - started < 30.0


# ---------------------------------------------------------------------------
# information formulas


def test_information_formulas_at_fixed_points():
    assert entropy([1, 1]) == pytest.approx(math.log(2), abs=1e-9)
    assert entropy([2, 1]) == pytest.approx(
        -(2 / 3) * math.log(2 / 3) - (1 / 3) * math.log(1 / 3), abs=1e-9
    )
    assert entropy([1] * 7) == pytest.approx(math.log(7), abs=1e-9)
    assert entropy([5]) == pytest.approx(0.0, abs=1e-9)

    expect = 0.5 * math.log(0.5 / (2 / 3)) + 0.5 * math.log(0.5 / (1 / 3))
    assert kl_divergence([0.5, 0.5], [2 / 3, 1 / 3]) == pytest.approx(expect, abs=1e-9)

    assert overlap_coefficient({"a", "b"}, {"b", "c"}) == pytest.approx(0.5, abs=1e-9)
    assert overlap_coefficient({"a", "b", "c"}, {"a", "b"}) == pytest.approx(1.0, abs=1e-9)


def test_dependence_statistics_match_reference_library():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = 120
        labels = rng.integers(0, 2, size=n)
        values = rng.normal(0, 1, size=n) + 0.8 * labels
        bins = bin_column(values, binary=False)

        table = np.zeros((bins.max() + 1, 2))
        for b, y in zip(bins, labels):
            table[b, y] += 1
        table = table[table.sum(axis=1) > 0]
        expect_chi2 = scipy.stats.chi2_contingency(table, correction=False)[0]
        assert chi_square_stat(bins, labels) == pytest.approx(expect_chi2, abs=1e-6)

        # information gain equals the entropy drop of the label distribution
        h_y = entropy(np.bincount(labels).tolist())
        cond = 0.0
        for b in np.unique(bins):
            part = labels[bins == b]
            cond += len(part) / n * entropy(np.bincount(part, minlength=2).tolist())
        assert info_gain_stat(bins, labels) == pytest.approx(h_y - cond, abs=1e-6)


def test_distribution_fuzz_invariants():
    rng = np.random.default_rng(2026)
    for _ in range(1000):
        k = int(rng.integers(2, 21))
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k))
        h = entropy(p)
        assert 0.0 <= h <= math.log(k) + 1e-12
        assert kl_divergence(p, q) >= -1e-12
        assert kl_divergence(p, p) <= 1e-9


# ---------------------------------------------------------------------------
# gradient checks


def test_gradients_match_central_differences():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(0, 1, size=(10, 6))
        labels = rng.integers(0, 2, size=10).astype(float)
        weights = rng.normal(0, 1, size=6)
        bias = float(rng.normal())
        _, grad_w, grad_b = logreg_loss_grad(weights, bias, matrix, labels, l2=0.01)
        fd_w, fd_b = central_difference(logreg_loss_grad, weights, bias, matrix, labels, 0.01)
        worst = max(worst, rel_err(grad_w, fd_w), rel_err(np.array([grad_b]), np.array([fd_b])))
    assert worst < 1e-4

    checked = 0
    for seed in range(100):
        rng = np.random.default_rng([7, seed])
        matrix = rng.normal(0, 1, size=(10, 6))
        labels = rng.integers(0, 2, size=10).astype(float)
        weights = rng.normal(0, 1, size=6)
        bias = float(rng.normal())
        margin = 1.0 - (2 * labels - 1) * (matrix @ weights + bias)
        if np.min(np.abs(margin)) < 1e-3:
            continue  # central differences straddle the hinge corner there
        _, grad_w, grad_b = hinge_loss_grad(weights, bias, matrix, labels, l2=0.01)
        fd_w, fd_b = central_difference(hinge_loss_grad, weights, bias, matrix, labels, 0.01)
        assert rel_err(grad_w, fd_w) < 1e-4
        assert rel_err(np.array([grad_b]), np.array([fd_b])) < 1e-4
        checked += 1
    assert checked >= 60


# ---------------------------------------------------------------------------
# planted signal learnability


def signal_cv_accuracy(tmp_path, strength):
    config = synth.signal_scenario(n_candidates=400, seed=3, strength=strength)
    result = synth.generate(config)
    index = CorpusIndex(result.tweets)
    eligible = filter_eligible(detect_candidates(index), index)
    assert len(eligible) == 400

    res_dir = tmp_path / f"res-{strength}"
    res_dir.mkdir()
    loaded = load_resources(res_dir, result)
    resources = FeatureResources(
        dictionary=loaded["dictionary"],
        ngrams=loaded["ngrams"],
        pos_lexicon=loaded["pos_lexicon"],
        gazetteer=loaded["gazetteer"],
        lda_iterations=20,
        lda_seed=0,
    )
    vectors, combos, schema, _ = featurize_all(
        eligible, index, resources, ObservationConfig(obs_months=6, horizon_months=10, lda_topics=4)
    )
    y = [1 if label_candidate(index, c, 10).value == "Popular" else 0 for c in eligible]
    assert sum(y) == 200
    dataset = Dataset.from_vectors(vectors, y, schema, combos=combos)
    report = cross_validate(dataset, kind="logreg", n_folds=10, seed=0)
    return report.accuracy


def test_planted_signal_is_learnable_and_null_is_not(tmp_path):
    started = time.monotonic()
    assert signal_cv_accuracy(tmp_path, 1.0) >= 0.90
    null_accuracy = signal_cv_accuracy(tmp_path, 0.0)
    assert abs(null_accuracy - 0.5) <= 0.07
    assert time.monotonic() - started < 120.0


# ---------------------------------------------------------------------------
# feature ranking


def test_ranking_puts_a_perfect_feature_first():
    rng = np.random.default_rng(31)
    n = 100
    labels = np.array([0, 1] * (n // 2))
    noise = rng.normal(0, 1, size=(n, 44))
    matrix = np.column_stack([noise[:, :20], labels.astype(float), noise[:, 20:]])
    names = tuple(
        f"noise_{i:02d}" for i in range(20)
    ) + ("oracle_bit",) + tuple(f"noise_{i:02d}" for i in range(20, 44))
    dataset = Dataset(
        matrix=matrix,
        labels=labels,
        feature_names=names,
        groups={"tweet": names},
        binary_mask=np.array([False] * 20 + [True] + [False] * 24),
        schema_id="rank-check",
    )
    assert len(names) >= 40
    for method in ("chi2", "infogain"):
        ranking = rank_features(dataset, method)
        assert ranking.entries[0][2] == "oracle_bit"

    # a perfectly informative balanced split scores the whole sample size
    stat = chi_square_stat(bin_column(labels.astype(float), binary=True), labels)
    assert stat == pytest.approx(100.0, abs=1e-9)


# ---------------------------------------------------------------------------
# topic recovery


def test_lda_recovers_planted_disjoint_topics():
    started = time.monotonic()
    vocab_a = synth.word_bank(0, 10)
    vocab_b = synth.word_bank(100, 10)
    rng = np.random.default_rng(5)
    documents = []
    for i in range(200):
        vocab = vocab_a if i % 2 == 0 else vocab_b
        tokens = tuple(vocab[int(j)] for j in rng.integers(0, 10, size=25))
        documents.append(HashtagDocument(doc_id=f"d{i:03d}", hashtag="t", tokens=tokens))

    model = fit_lda(documents, n_topics=2, alpha=0.5, iterations=60, seed=0)

    tops = [set(top_words(model, k, 10)) for k in range(2)]
    planted = [set(vocab_a), set(vocab_b)]

    def jaccard(x, y):
        return len(x & y) / len(x | y)

    direct = min(jaccard(tops[0], planted[0]), jaccard(tops[1], planted[1]))
    swapped = min(jaccard(tops[0], planted[1]), jaccard(tops[1], planted[0]))
    assert max(direct, swapped) >= 0.6
    assert time.monotonic() - started < 60.0


# ---------------------------------------------------------------------------
# history immutability


def test_future_tweets_leave_feature_vectors_unchanged():
    index, t0 = pipeline_fixture()
    cands = detect_candidates(index)
    res = pipeline_resources()
    combos = [zone_combo(cands[0], res.dictionary, res.pos_lexicon, res.gazetteer)]
    schema = build_schema(combos, ObservationConfig(obs_months=6, horizon_months=2, lda_topics=2))
    before = featurize(cands[0], index, res, schema)

    extra = [
        make_tweet("#snowday goes wide", t0, user="n1", tid="n1"),
        make_tweet("#snow returns with new words", utc(2011, 8, 9), user="n2", tid="n2"),
        make_tweet("#day winds down", utc(2011, 9, 10), user="n3", tid="n3"),
    ]
    grown = CorpusIndex(list(index.tweets) + extra)
    after = featurize(cands[0], grown, res, schema)
    assert after == before


def late_candidate_corpus(tmp_path):
    """A corpus that grows by a later candidate, over documents the topic fit decides.

    Every constituent document of `wide_vocab_scenario` has more than 100
    distinct plain words, so each `topic_overlap` comes from a fit. The last
    candidate compounds two months after the others, and its constituents'
    windows overlap theirs.

    Returns the full index and its eligible candidates, the index cut at the
    late candidate's compounding instant and its eligible candidates, and
    feature resources for a 3-sweep fit.
    """
    config = wide_vocab_scenario(4, seed=11)
    late = config.plants[-1]
    plants = config.plants[:-1] + (replace(
        late, m0=late.m0 + 2, pre_a=late.pre_a + late.pre_a[-1:] * 2,
        pre_b=late.pre_b + late.pre_b[-1:] * 2, post_a=late.post_a[:-2],
        post_b=late.post_b[:-2], post_ab=late.post_ab[:-2],
    ),)
    result = synth.generate(replace(config, plants=plants))
    full = CorpusIndex(result.tweets)
    cands = filter_eligible(detect_candidates(full), full)
    t_late = max(c.compound_first_seen for c in cands)
    assert [c.compound_first_seen < t_late for c in cands].count(True) == 3
    early = CorpusIndex([t for t in result.tweets if t.timestamp < t_late])
    early_cands = filter_eligible(detect_candidates(early), early)
    assert len(early_cands) == 3

    loaded = load_resources(tmp_path, result)
    resources = FeatureResources(**loaded, lda_iterations=3, lda_seed=0)
    return full, cands, early, early_cands, resources


LATE_OBSERVATION = ObservationConfig(obs_months=6, horizon_months=10, lda_topics=3)


@pytest.fixture(scope="module")
def late_corpus(tmp_path_factory):
    return late_candidate_corpus(tmp_path_factory.mktemp("late"))


def test_later_candidates_leave_earlier_vectors_unchanged(late_corpus, monkeypatch):
    """One candidate at a time: each `featurize` call fits its own pair."""
    full, cands, early, early_cands, resources = late_corpus
    combos = [
        zone_combo(c, resources.dictionary, resources.pos_lexicon, resources.gazetteer)
        for c in cands
    ]
    schema = build_schema(combos, LATE_OBSERVATION)
    fits = []
    real_fit = topicmodel.fit_lda

    def counted_fit(documents, **settings):
        fits.append(documents)
        return real_fit(documents, **settings)

    monkeypatch.setattr(topicmodel, "fit_lda", counted_fit)
    before = [featurize(c, early, resources, schema) for c in early_cands]
    assert len(fits) == 3
    assert all(len(set(doc.tokens)) > 100 for docs in fits for doc in docs)
    after = {c.compound.canonical: featurize(c, full, resources, schema) for c in cands}
    assert [after[c.compound.canonical] for c in early_cands] == before


def test_later_candidates_leave_earlier_rows_of_featurize_all_unchanged(late_corpus):
    """The whole set at once, its pair fits in one batch.

    The POS and NE slot columns are bound from the whole featurized set by
    design, so they are not compared.
    """
    full, cands, early, early_cands, resources = late_corpus
    before, _, _, early_fits = featurize_all(early_cands, early, resources, LATE_OBSERVATION)
    after, _, _, fits = featurize_all(cands, full, resources, LATE_OBSERVATION)
    assert (early_fits, fits) == (3, 4)
    after_by_name = {c.compound.canonical: v for c, v in zip(cands, after)}

    def causal_columns(vector):
        return {
            name: value for name, value in vector.values.items()
            if not name.startswith(("pos_combo_", "ne_combo_"))
        }

    for cand, vector in zip(early_cands, before):
        assert causal_columns(after_by_name[cand.compound.canonical]) == causal_columns(vector)


def test_featurize_all_rows_equal_per_candidate_featurize(late_corpus):
    full, cands, _, _, resources = late_corpus
    vectors, combos, schema, fits = featurize_all(cands, full, resources, LATE_OBSERVATION)
    assert fits == 4
    alone = [
        featurize(c, full, resources, schema, combo=combo) for c, combo in zip(cands, combos)
    ]
    assert vectors == alone


# ---------------------------------------------------------------------------
# pipeline reproducibility


def run_pipeline(work, scen):
    from tagmerge import cli

    index = work / "index.json"
    cands = work / "cands.tsv"
    labeled = work / "labeled.tsv"
    feats = work / "feats.csv"
    artifacts = {
        "index": index,
        "cands": cands,
        "labeled": labeled,
        "feats": feats,
        "schema": work / "feats.schema.json",
        "cv": work / "cv.json",
        "rank": work / "rank.tsv",
        "ablation": work / "ablation.json",
    }
    steps = [
        ["ingest", "--corpus", str(scen["corpus"]), "--out", str(index)],
        ["detect", "--index", str(index), "--out", str(cands)],
        ["label", "--index", str(index), "--candidates", str(cands), "--out", str(labeled)],
        [
            "featurize", "--index", str(index), "--candidates", str(labeled),
            "--out", str(feats),
            "--dictionary", str(scen["dictionary.txt"]),
            "--ngrams", str(scen["ngrams.tsv"]),
            "--pos-lexicon", str(scen["pos_lexicon.tsv"]),
            "--gazetteer", str(scen["gazetteer.tsv"]),
            "--topics", "4", "--lda-iterations", "10",
        ],
        ["evaluate", "cv", "--features", str(feats), "--folds", "3",
         "--epochs", "120", "--out", str(artifacts["cv"])],
        ["rank-features", "--features", str(feats), "--method", "chi2",
         "--out", str(artifacts["rank"])],
        ["ablate", "--features", str(feats), "--folds", "3",
         "--epochs", "120", "--out", str(artifacts["ablation"])],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, argv[0]
    return artifacts


def test_pipeline_artifacts_are_byte_identical_across_runs(tmp_path, capsys):
    config = synth.signal_scenario(n_candidates=12, seed=9, strength=1.0)
    scen = synth.write_scenario(config, tmp_path / "scen")

    first = tmp_path / "run1"
    second = tmp_path / "run2"
    first.mkdir()
    second.mkdir()
    a = run_pipeline(first, scen)
    b = run_pipeline(second, scen)
    capsys.readouterr()
    for key in a:
        bytes_a = Path(str(a[key])).read_bytes()
        bytes_b = Path(str(b[key])).read_bytes()
        assert bytes_a == bytes_b, key
        assert bytes_a, key
