"""Compound detection, popularity labels, trends, and segmentation."""

import random

import pytest

from tagmerge.compound import (
    CompoundCandidate,
    PopularityLabel,
    TrendCategory,
    classify_trend,
    detect_candidates,
    filter_eligible,
    label_candidate,
    read_candidates,
    segment_hashtag,
    write_candidates,
)
from tagmerge.corpus import CorpusIndex, observation_window, shift_months
from tagmerge.errors import CorpusFormatError, InsufficientHistoryError
from tagmerge.lexicon import Dictionary

from conftest import make_tweet, utc
from oracles import oracle_detect, oracle_segment_chunk, random_corpus


def index_of(*tweets):
    return CorpusIndex(list(tweets))


# ---------------------------------------------------------------------------
# detection


def test_detects_simple_compound():
    index = index_of(
        make_tweet("#snow early", utc(2011, 6, 1)),
        make_tweet("#day early", utc(2011, 6, 5)),
        make_tweet("#snowday lands", utc(2011, 7, 1)),
    )
    cands = detect_candidates(index)
    assert len(cands) == 1
    c = cands[0]
    assert c.compound.canonical == "snowday"
    assert (c.part_a.canonical, c.part_b.canonical) == ("snow", "day")
    assert c.split_index == 4
    assert c.compound_first_seen == utc(2011, 7, 1)


def test_short_concatenations_ignored():
    index = index_of(
        make_tweet("#ab #cd", utc(2011, 6, 1)),
        make_tweet("#abcd", utc(2011, 7, 1)),  # only 4 characters
    )
    assert detect_candidates(index) == []


def test_constituent_must_strictly_predate_compound():
    same_ts = utc(2011, 7, 1)
    index = index_of(
        make_tweet("#sun early", utc(2011, 6, 1)),
        make_tweet("#set same moment", same_ts),
        make_tweet("#sunset same moment", same_ts),
    )
    assert detect_candidates(index) == []


def test_ambiguous_split_rejected():
    # abcdef parses as ab+cdef and abcd+ef, both fully attested earlier
    index = index_of(
        make_tweet("#ab #cdef #abcd #ef", utc(2011, 6, 1)),
        make_tweet("#abcdef", utc(2011, 7, 1)),
    )
    assert detect_candidates(index) == []


def test_single_valid_split_despite_other_parses():
    # abcdef also looks like abc+def, but def never appears in the corpus
    index = index_of(
        make_tweet("#ab #cdef #abc", utc(2011, 6, 1)),
        make_tweet("#abcdef", utc(2011, 7, 1)),
    )
    cands = detect_candidates(index)
    assert [(c.compound.canonical, c.split_index) for c in cands] == [("abcdef", 2)]


def test_detection_output_sorted_by_canonical():
    index = index_of(
        make_tweet("#snow #day #red #ball", utc(2011, 6, 1)),
        make_tweet("#redball #snowday", utc(2011, 7, 1)),
    )
    names = [c.compound.canonical for c in detect_candidates(index)]
    assert names == ["redball", "snowday"]


def test_detection_matches_pairwise_join_oracle():
    for seed in range(5):
        index = random_corpus(seed, n_tweets=250)
        got = {(c.compound.canonical, c.split_index) for c in detect_candidates(index)}
        assert got == oracle_detect(index), f"seed {seed}"


def test_candidate_validation():
    hid = lambda s: __import__("tagmerge").corpus.HashtagId(canonical=s, display=s)
    with pytest.raises(ValueError):
        CompoundCandidate(
            compound=hid("abcdef"),
            split_index=2,
            part_a=hid("ab"),
            part_b=hid("cdef"),
            compound_first_seen=100,
            a_first_seen=100,  # not strictly earlier
            b_first_seen=50,
        )
    with pytest.raises(ValueError):
        CompoundCandidate(
            compound=hid("abcdef"),
            split_index=3,
            part_a=hid("ab"),  # does not concatenate at this index
            part_b=hid("cdef"),
            compound_first_seen=100,
            a_first_seen=10,
            b_first_seen=50,
        )


# ---------------------------------------------------------------------------
# labeling


def labeled_corpus(ab_per_month, a_per_month, b_per_month, months=11):
    """Corpus with fixed monthly counts after a June 2011 compounding."""
    t0 = utc(2011, 6, 15)
    tweets = [
        make_tweet("#snow #day seeds", utc(2011, 5, 2)),
        make_tweet("#snowday born", t0),
        make_tweet("#quiet sentinel", shift_months(t0, months)),  # extends coverage
    ]
    k = 0
    for m in range(months):
        lo = shift_months(t0, m)
        for tag, n in (("#snowday", ab_per_month), ("#snow", a_per_month), ("#day", b_per_month)):
            for j in range(n):
                k += 1
                tweets.append(make_tweet(f"{tag} use", lo + 86400 + k, tid=f"m{k:05d}"))
    return CorpusIndex(tweets)


def only_candidate(index):
    cands = detect_candidates(index)
    assert len(cands) == 1
    return cands[0]


def test_popular_when_compound_outruns_both():
    index = labeled_corpus(3, 1, 2)
    cand = only_candidate(index)
    label = label_candidate(index, cand, 2)
    assert label.value == "Popular"
    assert (label.freq_ab, label.freq_a, label.freq_b) == (6, 2, 4)
    assert label.is_popular


def test_tie_with_either_constituent_is_unpopular():
    index = labeled_corpus(2, 2, 1)
    cand = only_candidate(index)
    label = label_candidate(index, cand, 2)
    assert label.value == "Unpopular"
    assert label.freq_ab == label.freq_a == 4


def test_window_excludes_first_compound_tweet():
    # only the compound's birth tweet exists, so every later window is empty
    index = labeled_corpus(0, 0, 0)
    cand = only_candidate(index)
    label = label_candidate(index, cand, 2)
    assert label.freq_ab == 0
    assert label.value == "Unpopular"


def test_window_includes_tweet_at_horizon_end():
    t0 = utc(2011, 6, 15)
    end = shift_months(t0, 2)
    index = index_of(
        make_tweet("#snow #day seeds", utc(2011, 5, 2)),
        make_tweet("#snowday born", t0),
        make_tweet("#snowday on the edge", end),
        make_tweet("#snowday one second late", end + 1),
        make_tweet("#quiet sentinel", shift_months(t0, 3)),  # extends coverage
    )
    label = label_candidate(index, only_candidate(index), 2)
    assert (label.freq_ab, label.freq_a, label.freq_b) == (1, 0, 0)


def test_unsupported_horizon_is_refused():
    index = labeled_corpus(1, 0, 0)
    cand = only_candidate(index)
    for horizon in (0, 3):
        with pytest.raises(ValueError, match=r"expected one of \(2, 6, 10\)"):
            label_candidate(index, cand, horizon)


def test_truncated_coverage_raises_instead_of_mislabeling():
    index = labeled_corpus(1, 0, 0, months=3)
    cand = only_candidate(index)
    label_candidate(index, cand, 2)  # fits
    with pytest.raises(InsufficientHistoryError):
        label_candidate(index, cand, 6)


def test_label_self_consistency_enforced():
    with pytest.raises(ValueError):
        PopularityLabel(value="Popular", horizon_months=2, freq_ab=1, freq_a=5, freq_b=0)
    with pytest.raises(ValueError):
        PopularityLabel(value="Sideways", horizon_months=2, freq_ab=9, freq_a=0, freq_b=0)


# ---------------------------------------------------------------------------
# trends


def trend_corpus(pattern):
    """Corpus whose month-i counts for (compound, a, b) follow `pattern`."""
    tweets = [
        make_tweet("#snow #day seeds", utc(2011, 5, 2)),
        make_tweet("#snowday born", utc(2011, 6, 15)),
        make_tweet("#quiet sentinel", utc(2012, 4, 20)),  # extends coverage past t0+10
    ]
    t0 = utc(2011, 6, 15)
    k = 0
    for m, (ab, a, b) in enumerate(pattern):
        lo = shift_months(t0, m)
        for tag, n in (("#snowday", ab), ("#snow", a), ("#day", b)):
            for j in range(n):
                k += 1
                tweets.append(make_tweet(f"{tag} use", lo + 86400 + k, tid=f"m{k:05d}"))
    return CorpusIndex(tweets)


def test_trend_always_higher():
    index = trend_corpus([(2, 1, 0)] * 10)
    assert classify_trend(index, only_candidate(index)) is TrendCategory.ALWAYS_HIGHER


def test_trend_single_bad_month():
    pattern = [(3, 1, 0)] * 10
    pattern[4] = (1, 2, 0)
    index = trend_corpus(pattern)
    assert classify_trend(index, only_candidate(index)) is TrendCategory.ALL_BUT_ONE_MONTH


def test_trend_two_bad_months_and_ties_count_as_failures():
    pattern = [(3, 1, 0)] * 10
    pattern[0] = (2, 2, 0)  # tie fails the month
    pattern[7] = (0, 1, 0)
    index = trend_corpus(pattern)
    assert classify_trend(index, only_candidate(index)) is TrendCategory.ALL_BUT_TWO_MONTHS


def test_trend_other_bucket():
    pattern = [(4, 1, 0)] * 10
    for m in (1, 3, 5):
        pattern[m] = (1, 3, 0)
    index = trend_corpus(pattern)
    assert classify_trend(index, only_candidate(index)) is TrendCategory.OTHER


def test_trend_month_includes_its_end():
    # month i is (t0 + i-1, t0 + i]: two compound tweets sit exactly at each
    # month's end and one constituent tweet inside it, so a month that
    # dropped its end tweets would tie or lose
    t0 = utc(2011, 6, 15)
    tweets = [
        make_tweet("#snow #day seeds", utc(2011, 5, 2)),
        make_tweet("#snowday born", t0),
        make_tweet("#quiet sentinel", utc(2012, 4, 20)),  # extends coverage past t0+10
    ]
    for i in range(1, 11):
        end = shift_months(t0, i)
        tweets += [make_tweet("#snowday edge", end), make_tweet("#snowday edge", end)]
        tweets.append(make_tweet("#snow inside", end - 86400))
    index = CorpusIndex(tweets)
    assert classify_trend(index, only_candidate(index)) is TrendCategory.ALWAYS_HIGHER


def test_trend_undefined_for_unpopular():
    index = trend_corpus([(1, 3, 0)] * 10)
    with pytest.raises(ValueError):
        classify_trend(index, only_candidate(index))


# ---------------------------------------------------------------------------
# eligibility


def test_eligibility_counts_open_window():
    t0 = utc(2011, 12, 15)
    lo = shift_months(t0, -6)
    tweets = [
        make_tweet("#snow #day before window", lo - 10),
        make_tweet("#snow at left edge", lo, tid="edge"),  # excluded: window is open
        make_tweet("#snowday born", t0),
    ]
    k = 0
    for j in range(3):
        k += 1
        tweets.append(make_tweet("#snow inside", lo + 100 + k, tid=f"s{k}"))
    for j in range(2):
        k += 1
        tweets.append(make_tweet("#day inside", lo + 200 + k, tid=f"d{k}"))
    index = CorpusIndex(tweets)
    cand = only_candidate(index)
    assert filter_eligible([cand], index, min_support=3) == []  # day has only 2
    assert filter_eligible([cand], index, min_support=2) == [cand]


@pytest.mark.parametrize("t0, kept", [(utc(2011, 7, 1), True), (utc(2011, 7, 1) - 1, False)],
                         ids=["at-coverage-start", "before-coverage-start"])
def test_eligibility_needs_a_window_inside_coverage(t0, kept):
    start = utc(2011, 1, 1)
    tweets = [make_tweet("#snow #day inside", start + 100 + k, tid=f"w{k}") for k in range(3)]
    index = CorpusIndex(tweets + [make_tweet("#snowday born", t0, tid="born")])
    lo = observation_window(t0, 6)[0]
    assert index.coverage_start == start
    assert lo == start if kept else lo < start
    cand = only_candidate(index)
    assert filter_eligible([cand], index, min_support=3) == ([cand] if kept else [])


# ---------------------------------------------------------------------------
# segmentation


DICT = Dictionary(frozenset({"snow", "day", "golden", "globes", "fresh", "man", "advice"}))


def test_segment_splits_camel_case():
    assert segment_hashtag("GoldenGlobes", DICT) == ["Golden", "Globes"]


def test_segment_splits_digits_and_underscores():
    assert segment_hashtag("win2011", DICT) == ["win", "2011"]
    assert segment_hashtag("snow_day", DICT) == ["snow", "_", "day"]


def test_segment_dictionary_split_of_flat_chunk():
    assert segment_hashtag("Snowday", DICT) == ["Snow", "day"]
    # in-vocabulary word count dominates the parse choice
    assert segment_hashtag("freshmanadvice", DICT) == ["fresh", "man", "advice"]


def test_segment_leaves_unsplittable_chunks_alone():
    assert segment_hashtag("qxzvk", DICT) == ["qxzvk"]
    assert segment_hashtag("day", DICT) == ["day"]  # short chunks skip the splitter


def test_segment_concatenation_identity():
    rng = random.Random(7)
    letters = "abcd"
    for _ in range(100):
        word = "".join(rng.choice(letters) for _ in range(rng.randint(1, 12)))
        vocab = {word[i:j] for i in range(len(word)) for j in range(i + 1, len(word) + 1)}
        sample = frozenset(rng.sample(sorted(vocab), min(4, len(vocab))) + ["zz"])
        got = segment_hashtag(word, Dictionary(sample))
        assert "".join(got) == word


def test_segment_matches_exhaustive_oracle():
    rng = random.Random(11)
    letters = "abcde"
    checked = 0
    for _ in range(200):
        word = "".join(rng.choice(letters) for _ in range(rng.randint(4, 10)))
        subs = sorted({word[i:j] for i in range(len(word)) for j in range(i + 1, len(word) + 1)})
        vocab = set(rng.sample(subs, min(5, len(subs))))
        vocab.discard(word)  # keep the chunk out-of-vocabulary so the splitter runs
        if not vocab:
            continue
        d = Dictionary(frozenset(vocab))
        assert segment_hashtag(word, d) == oracle_segment_chunk(word, d)
        checked += 1
    assert checked > 150


# ---------------------------------------------------------------------------
# candidate table round trip


def test_candidate_table_round_trip(tmp_path):
    index = labeled_corpus(3, 1, 2)
    cand = only_candidate(index)
    labels = {
        ("snowday", 2): label_candidate(index, cand, 2),
        ("snowday", 6): label_candidate(index, cand, 6),
    }
    path = tmp_path / "cands.tsv"
    write_candidates(path, [cand], labels)
    body = path.read_text()
    assert body.splitlines()[0].startswith("compound\t")
    assert "\t-\n" in body  # unlabeled horizon holds a placeholder
    path.write_text(body + " \t \n")  # a line of whitespace only is skipped
    back, back_labels = read_candidates(path, index)
    assert back == [cand]
    assert back_labels == {("snowday", 2): "Popular", ("snowday", 6): "Popular"}


def test_candidate_table_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("who\twhat\twhere\n")
    index = labeled_corpus(1, 0, 0)
    with pytest.raises(CorpusFormatError, match=r"bad\.tsv: header is not compound<TAB>partA"):
        read_candidates(path, index)


def test_candidate_table_rejects_hashtag_missing_from_index(tmp_path):
    index = labeled_corpus(3, 1, 2)
    path = tmp_path / "cands.tsv"
    write_candidates(path, [only_candidate(index)])
    path.write_text(path.read_text().replace("\tday\t", "\tdays\t"))
    with pytest.raises(CorpusFormatError, match=r"cands\.tsv:2: .*'days'"):
        read_candidates(path, index)


def test_candidate_table_rejects_unknown_label(tmp_path):
    index = labeled_corpus(3, 1, 2)
    cand = only_candidate(index)
    path = tmp_path / "cands.tsv"
    write_candidates(path, [cand], {("snowday", 2): label_candidate(index, cand, 2)})
    path.write_text(path.read_text().replace("\tPopular", "\tpopular"))
    with pytest.raises(CorpusFormatError, match=r"cands\.tsv:2: .*'popular'"):
        read_candidates(path, index)
