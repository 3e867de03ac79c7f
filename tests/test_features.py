"""Feature extractors: distribution helpers, zone combos, and assembly."""

import hashlib
import math
import pickle
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from tagmerge import corpus, features, synth, topicmodel
from tagmerge.compound import detect_candidates, filter_eligible
from tagmerge.corpus import CorpusIndex, observation_window, shift_months
from tagmerge.errors import CorpusFormatError, InsufficientHistoryError
from tagmerge.features import (
    FeatureResources,
    ObservationConfig,
    ZoneCombo,
    avg_common_ngram_freq,
    avg_topic_overlap,
    build_schema,
    collocation_frequency,
    combo_bits,
    compounding_zone,
    derive_combo_schema,
    entropy,
    feature_layout,
    featurize,
    featurize_all,
    hashtag_clarity,
    kl_divergence,
    ngram_overlap,
    ngram_presence,
    overlap_coefficient,
    pos_diversity,
    read_feature_csv,
    user_features,
    word_count,
    word_diversity,
    word_overlap,
    write_feature_csv,
    zone_combo,
)
from tagmerge.lexicon import (
    Dictionary,
    load_dictionary,
    load_gazetteer,
    load_ngram_table,
    load_pos_lexicon,
)
from tagmerge.topicmodel import HashtagDocument, TopicModel, build_documents

from conftest import make_tweet, utc
from oracles import tokenize


# ---------------------------------------------------------------------------
# distribution helpers


def test_entropy_frozen_values():
    assert entropy([1, 1]) == pytest.approx(math.log(2), abs=1e-12)
    # two of one tag, one of another
    assert entropy([2, 1]) == pytest.approx(0.6365141682948129, abs=1e-12)
    assert entropy([3, 1]) == pytest.approx(0.5623351446188083, abs=1e-12)
    assert entropy([5]) == 0.0
    assert entropy([1] * 7) == pytest.approx(math.log(7), abs=1e-12)


def test_entropy_accepts_probabilities_and_counts():
    assert entropy([0.5, 0.5]) == pytest.approx(entropy([10, 10]), abs=1e-12)
    assert entropy([2, 0, 2]) == pytest.approx(math.log(2), abs=1e-12)


def test_entropy_rejects_bad_input():
    with pytest.raises(ValueError):
        entropy([])
    with pytest.raises(ValueError):
        entropy([1, -1])
    with pytest.raises(ValueError):
        entropy([0, 0])


def test_kl_divergence_frozen_value():
    # 0.5*log(4/3), by hand
    assert kl_divergence([0.5, 0.5], [0.25, 0.75]) == pytest.approx(
        0.5 * math.log(4 / 3), abs=1e-12
    )
    assert kl_divergence([2, 2], [1, 3]) == pytest.approx(0.5 * math.log(4 / 3), abs=1e-12)


def test_kl_divergence_of_identical_is_zero():
    assert kl_divergence([3, 1, 6], [3, 1, 6]) == pytest.approx(0.0, abs=1e-12)


def test_kl_divergence_requires_support():
    with pytest.raises(ValueError):
        kl_divergence([0.5, 0.5], [1.0, 0.0])
    with pytest.raises(ValueError):
        kl_divergence([0.5, 0.5], [0.2, 0.3, 0.5])
    # zero in q is fine where p is zero too
    assert kl_divergence([1, 0], [1, 0]) == 0.0


def test_overlap_coefficient():
    assert overlap_coefficient({1, 2, 3}, {2, 3, 4, 5}) == pytest.approx(2 / 3)
    assert overlap_coefficient({1}, {1, 2, 3}) == 1.0
    assert overlap_coefficient(set(), {1}) == 0.0


# ---------------------------------------------------------------------------
# combo schema


def test_derive_combo_schema_ranks_and_excludes():
    combos = (
        [ZoneCombo(pos=("A", "N"), ne=("none", "none"), oov="INV-INV")] * 3
        + [ZoneCombo(pos=("N", "N"), ne=("B-place", "I-place"), oov="INV-INV")] * 3
        + [ZoneCombo(pos=("X", "N"), ne=("none", "none"), oov="OOV-INV")] * 5
        + [ZoneCombo(pos=("V", "N"), ne=("B-place", "none"), oov="INV-INV")]
    )
    schema = derive_combo_schema(combos)
    # the unknown-tag pair never binds despite being most frequent
    assert schema.pos_pairs[:3] == (("A", "N"), ("N", "N"), ("V", "N"))
    assert schema.pos_pairs[3:] == (None,) * 17
    # the all-none entity pair never binds
    assert schema.ne_pairs[:2] == (("B-place", "I-place"), ("B-place", "none"))
    assert schema.ne_pairs[2:] == (None,) * 18


def test_combo_bits_one_hot():
    combos = [ZoneCombo(pos=("A", "N"), ne=("B-place", "I-place"), oov="INV-INV")]
    schema = derive_combo_schema(combos)
    bits = combo_bits(combos[0], schema)
    assert bits["pos_combo_00"] == 1.0
    assert sum(v for k, v in bits.items() if k.startswith("pos_combo_")) == 1.0
    assert bits["ne_combo_00"] == 1.0
    assert bits["zone_inv_inv"] == 1.0
    assert bits["zone_oov_oov"] == 0.0
    # an unseen pair hits no bound slot
    other = ZoneCombo(pos=("V", "V"), ne=("none", "none"), oov="OOV-OOV")
    bits2 = combo_bits(other, schema)
    assert sum(v for k, v in bits2.items() if k.startswith(("pos_", "ne_"))) == 0.0
    assert bits2["zone_oov_oov"] == 1.0


def test_feature_layout_is_stable():
    names, groups, binary = feature_layout()
    assert len(names) == 4 + 20 + 20 + 4 + 9 + 9
    assert names[0] == "char_length"
    assert names.index("word_overlap") == 48
    assert groups["char_length"] == "hashtag_content"
    assert groups["clarity_a"] == "tweet_content"
    assert groups["common_retweets"] == "user"
    assert "ngram_presence" in binary
    assert "pos_combo_07" in binary
    assert "char_length" not in binary


# ---------------------------------------------------------------------------
# hashtag content features


def golden_candidate(lexicon_dir):
    index = CorpusIndex(
        [
            make_tweet("#golden early", utc(2011, 6, 1)),
            make_tweet("#globes early", utc(2011, 6, 2)),
            make_tweet("#GoldenGlobes tonight", utc(2011, 7, 1)),
        ]
    )
    cands = detect_candidates(index)
    assert len(cands) == 1
    return cands[0]


def test_word_count_and_ngram_presence(lexicon_dir):
    cand = golden_candidate(lexicon_dir)
    d = load_dictionary(lexicon_dir / "dictionary.txt")
    table = load_ngram_table(lexicon_dir / "ngrams.tsv")
    assert word_count(cand, d) == 2
    assert ngram_presence(cand, d, table) == 1  # "golden globes" is in the table


def test_pos_diversity_entropy(lexicon_dir):
    cand = golden_candidate(lexicon_dir)
    d = load_dictionary(lexicon_dir / "dictionary.txt")
    lex = load_pos_lexicon(lexicon_dir / "pos_lexicon.tsv")
    # tags are A and N, one each
    assert pos_diversity(cand, lex, d) == pytest.approx(math.log(2), abs=1e-12)


def test_zone_combo_spanning_entity(lexicon_dir):
    cand = golden_candidate(lexicon_dir)
    d = load_dictionary(lexicon_dir / "dictionary.txt")
    lex = load_pos_lexicon(lexicon_dir / "pos_lexicon.tsv")
    gaz = load_gazetteer(lexicon_dir / "gazetteer.tsv")
    combo = zone_combo(cand, d, lex, gaz)
    assert combo.pos == ("A", "N")
    # the zone words form a gazetteer phrase across the boundary
    assert combo.ne == ("B-event", "I-event")
    assert combo.oov == "INV-INV"


def test_compounding_zone_takes_inner_words(lexicon_dir):
    index = CorpusIndex(
        [
            make_tweet("#ILove early", utc(2011, 6, 1)),
            make_tweet("#porn early", utc(2011, 6, 2)),
            make_tweet("#ILovePorn lands", utc(2011, 7, 1)),
        ]
    )
    cands = detect_candidates(index)
    assert len(cands) == 1
    d = load_dictionary(lexicon_dir / "dictionary.txt")
    assert compounding_zone(cands[0], d) == ("Love", "porn")


# ---------------------------------------------------------------------------
# tweet content features


def token_counts(tweets):
    """Token counts of a tweet collection in reading order, tokenized afresh."""
    return Counter(tok for t in tweets for tok in tokenize(t.text))


def table_ngrams(tweets, table):
    """Table phrases among each tweet's 2..5-token windows, by brute force."""
    found = set()
    for t in tweets:
        toks = tokenize(t.text)
        for n in range(2, 6):
            for i in range(len(toks) - n + 1):
                phrase = " ".join(toks[i : i + n])
                if phrase in table.entries:
                    found.add(phrase)
    return found


def test_word_overlap_by_hand():
    a = [make_tweet("red sun rises", utc(2011, 6, 1))]
    b = [
        make_tweet("the sun sets red", utc(2011, 6, 2)),
        make_tweet("night falls", utc(2011, 6, 3)),
    ]
    # tokens a: {red, sun, rises}; b: {the, sun, sets, red, night, falls}
    assert word_overlap(token_counts(a), token_counts(b)) == pytest.approx(2 / 3)


def test_ngram_overlap_and_common_freq():
    table = load = None
    from tagmerge.lexicon import NgramTable

    table = NgramTable(entries={"new york": 500, "snow day": 8, "golden globes": 120})
    a = [make_tweet("new york snow day chaos", utc(2011, 6, 1))]
    b = [make_tweet("a snow day in new york", utc(2011, 6, 2))]
    # both collections contain {"new york", "snow day"}
    a, b = table_ngrams(a, table), table_ngrams(b, table)
    assert ngram_overlap(a, b) == 1.0
    assert avg_common_ngram_freq(a, b, table) == pytest.approx((500 + 8) / 2)
    c = table_ngrams([make_tweet("nothing shared here", utc(2011, 6, 3))], table)
    assert ngram_overlap(a, c) == 0.0
    assert avg_common_ngram_freq(a, c, table) == 0.0


def clarity_fixture():
    tweets = [
        make_tweet("background words drift around here", utc(2011, 1, 5), tid="b1"),
        make_tweet("more background filler words", utc(2011, 1, 6), tid="b2"),
        make_tweet("#focus laser laser laser", utc(2011, 2, 10), tid="f1"),
        make_tweet("#focus laser beam", utc(2011, 2, 11), tid="f2"),
        make_tweet("#vague words drift here and around", utc(2011, 2, 12), tid="v1"),
        make_tweet("late arrival changes nothing", utc(2011, 5, 1), tid="late"),
    ]
    return CorpusIndex(tweets)


def clarity(index, canonical, window):
    return hashtag_clarity(index, token_counts(index.tweets_between(canonical, *window)), window[1])


def test_hashtag_clarity_matches_inline_recompute():
    index = clarity_fixture()
    window = (utc(2011, 2, 1), utc(2011, 3, 1))
    got = clarity(index, "focus", window)

    # plain-python recomputation from the definition
    eps = 1e-6
    bg = {}
    for t in index.tweets:
        if t.timestamp < window[1]:
            for tok in tokenize(t.text):
                bg[tok] = bg.get(tok, 0) + 1
    bg_total = sum(bg.values())
    tag_counts = {}
    for t in index.tweets:
        if window[0] < t.timestamp < window[1] and "focus" in t.hashtag_canonicals:
            for tok in tokenize(t.text):
                tag_counts[tok] = tag_counts.get(tok, 0) + 1
    n = sum(tag_counts.values())
    v = len(bg)
    expect = 0.0
    for word in bg:
        p = (tag_counts.get(word, 0) + eps) / (n + eps * v)
        q = bg[word] / bg_total
        expect += p * math.log(p / q)
    assert got == pytest.approx(expect, abs=1e-9)
    assert got > 0


def test_clarity_focused_beats_diffuse():
    index = clarity_fixture()
    window = (utc(2011, 2, 1), utc(2011, 3, 1))
    # #vague reuses common background words, #focus does not
    assert clarity(index, "focus", window) > clarity(index, "vague", window)


def test_clarity_background_is_time_bounded():
    index = clarity_fixture()
    window = (utc(2011, 2, 1), utc(2011, 3, 1))
    before = clarity(index, "focus", window)
    # an identical corpus without the late tweet gives the same value
    trimmed = CorpusIndex([t for t in index.tweets if t.id != "late"])
    assert clarity(trimmed, "focus", window) == before


def test_clarity_empty_window_is_zero():
    index = clarity_fixture()
    assert clarity(index, "focus", (utc(2011, 3, 2), utc(2011, 4, 1))) == 0.0


def test_word_diversity_by_hand():
    index = clarity_fixture()
    window = (utc(2011, 2, 1), utc(2011, 3, 1))
    # focus tokens: focus x2, laser x4, beam x1
    expect = entropy([2, 4, 1])
    focus = token_counts(index.tweets_between("focus", *window))
    assert word_diversity(focus) == pytest.approx(expect, abs=1e-12)
    late = token_counts(index.tweets_between("focus", utc(2011, 3, 2), utc(2011, 4, 1)))
    assert word_diversity(late) == 0.0


def test_collocation_frequency_counts_joint_tweets():
    index = CorpusIndex(
        [
            make_tweet("#red alone", utc(2011, 6, 1)),
            make_tweet("#ball alone", utc(2011, 6, 2)),
            make_tweet("#red #ball together", utc(2011, 6, 10)),
            make_tweet("#red #ball again", utc(2011, 6, 11)),
            make_tweet("#red #ball too late", utc(2011, 8, 1)),
        ]
    )
    window = (utc(2011, 5, 31), utc(2011, 7, 1))
    assert collocation_frequency(index.tweets_between("red", *window), "ball") == 2


# ---------------------------------------------------------------------------
# user features


def test_user_features_by_hand():
    window = (utc(2011, 5, 31), utc(2011, 7, 1))
    index = CorpusIndex(
        [
            make_tweet("#aa hello", utc(2011, 6, 1), user="u1", tid="t1"),
            make_tweet("#aa again @Mike", utc(2011, 6, 2), user="u2", tid="t2", retweet_of="x1"),
            make_tweet("#aa #bb both", utc(2011, 6, 3), user="u3", tid="t3", retweet_of="x2"),
            make_tweet("#bb only @mike @sara", utc(2011, 6, 4), user="u2", tid="t4"),
            make_tweet("#bb more", utc(2011, 6, 5), user="u4", tid="t5", retweet_of="x3"),
        ]
    )
    got = user_features(index.tweets_between("aa", *window), index.tweets_between("bb", *window))
    assert got == {
        "unique_users_a": 3.0,
        "unique_users_b": 3.0,
        "common_users": 2.0,
        "unique_mentions_a": 1.0,
        "unique_mentions_b": 2.0,
        "common_mentions": 1.0,
        "unique_retweets_a": 2.0,
        "unique_retweets_b": 2.0,
        "common_retweets": 1.0,
    }


# ---------------------------------------------------------------------------
# assembly


def pipeline_fixture():
    """Small corpus with one well-covered compound and usable content."""
    t0 = utc(2011, 6, 15)
    tweets = [
        make_tweet("#snow fresh powder", utc(2010, 12, 5), user="u0", tid="s0"),
        make_tweet("#day bright morning", utc(2010, 12, 6), user="u0", tid="d0"),
    ]
    k = 0
    for m in range(6):
        base = utc(2011, 1, 3) + m * 70000
        texts = [
            ("#snow cold flakes fall", f"su{m}", None),
            ("#snow white drift @carol", f"su{m}", "r1" if m % 2 else None),
            ("#day warm light here", f"du{m}", None),
            ("#day long hours @carol", "shared", None),
        ]
        for text, user, rt in texts:
            k += 1
            tweets.append(
                make_tweet(text, shift_months(base, m), user=user, tid=f"w{k:03d}", retweet_of=rt)
            )
    tweets.append(make_tweet("#snow #day at once", utc(2011, 5, 20), user="joint", tid="joint1"))
    tweets.append(make_tweet("#snowday is born", t0, user="born", tid="born1"))
    tweets.append(make_tweet("#snowday spreads", utc(2011, 6, 20), user="after", tid="after1"))
    return CorpusIndex(tweets), t0


def pipeline_resources():
    d = Dictionary(frozenset({"snow", "day", "cold", "warm", "white", "long"}))
    from tagmerge.lexicon import EntityGazetteer, NgramTable, PosLexicon

    ngrams = NgramTable(entries={"snow day": 9})
    pos = PosLexicon(tags={"snow": "N", "day": "N"})
    gaz = EntityGazetteer(phrases={}, labels=frozenset({"none"}), max_phrase_len=0)
    return FeatureResources(d, ngrams, pos, gaz, lda_iterations=30, lda_seed=5)


def test_featurize_end_to_end():
    index, t0 = pipeline_fixture()
    cands = detect_candidates(index)
    assert [c.compound.canonical for c in cands] == ["snowday"]
    res = pipeline_resources()
    combos = [zone_combo(c, res.dictionary, res.pos_lexicon, res.gazetteer) for c in cands]
    schema = build_schema(combos, ObservationConfig(obs_months=6, horizon_months=2, lda_topics=2))
    vec = featurize(cands[0], index, res, schema)

    assert list(vec.values.keys()) == list(schema.names)
    assert vec.schema_id == schema.schema_id
    assert vec.values["char_length"] == 7.0
    assert vec.values["word_count"] == 2.0
    assert vec.values["ngram_presence"] == 1.0
    assert vec.values["pos_diversity"] == 0.0  # both words tag N
    assert vec.values["pos_combo_00"] == 1.0  # ("N","N") is the only bound pair
    assert vec.values["zone_inv_inv"] == 1.0
    assert vec.values["collocation_frequency"] == 1.0

    window = observation_window(t0, 6)
    tweets_a = index.tweets_between("snow", *window)
    tweets_b = index.tweets_between("day", *window)
    counts_a, counts_b = token_counts(tweets_a), token_counts(tweets_b)
    assert vec.values["word_overlap"] == pytest.approx(word_overlap(counts_a, counts_b))
    assert vec.values["clarity_a"] == pytest.approx(hashtag_clarity(index, counts_a, window[1]))
    # six monthly posters plus the joint tweet's user; the seed tweet
    # predates the window
    assert vec.values["unique_users_a"] == 7.0
    assert vec.values["common_users"] == 1.0  # only the joint user posts both


def test_featurize_requires_covered_window():
    index, _ = pipeline_fixture()
    cands = detect_candidates(index)
    res = pipeline_resources()
    combos = [zone_combo(cands[0], res.dictionary, res.pos_lexicon, res.gazetteer)]
    schema = build_schema(combos, ObservationConfig(obs_months=12, horizon_months=2, lda_topics=2))
    with pytest.raises(InsufficientHistoryError):
        featurize(cands[0], index, res, schema)


def test_future_tweets_never_change_vectors():
    index, t0 = pipeline_fixture()
    cands = detect_candidates(index)
    res = pipeline_resources()
    combos = [zone_combo(cands[0], res.dictionary, res.pos_lexicon, res.gazetteer)]
    schema = build_schema(combos, ObservationConfig(obs_months=6, horizon_months=2, lda_topics=2))
    before = featurize(cands[0], index, res, schema)

    extra = [
        make_tweet("#snowday viral now", t0, user="z1", tid="z1"),
        make_tweet("#snow resurges unheard words", utc(2011, 8, 2), user="z2", tid="z2"),
        make_tweet("#day also back", utc(2011, 9, 3), user="z3", tid="z3"),
        make_tweet("#snow #day and #snowday", utc(2011, 10, 4), user="z4", tid="z4"),
    ]
    grown = CorpusIndex(list(index.tweets) + extra)
    cands2 = detect_candidates(grown)
    (cand2,) = [c for c in cands2 if c.compound.canonical == "snowday"]
    res2 = pipeline_resources()
    after = featurize(cand2, grown, res2, schema)
    assert after == before  # bit-identical values


def test_featurize_all_orders_and_round_trips(tmp_path):
    index, _ = pipeline_fixture()
    cands = detect_candidates(index)
    res = pipeline_resources()
    combos = [zone_combo(c, res.dictionary, res.pos_lexicon, res.gazetteer) for c in cands]
    schema = build_schema(combos, ObservationConfig(obs_months=6, horizon_months=2, lda_topics=2))
    vectors, combos_out, schema_out, _ = featurize_all(cands, index, res, schema.config)
    assert len(vectors) == len(cands)
    assert combos_out == combos
    assert schema_out == schema

    path = tmp_path / "feats.csv"
    write_feature_csv(path, vectors, [1], schema, combos_out)
    matrix, labels, schema2, combos2 = read_feature_csv(path)
    assert matrix.shape == (1, len(schema.names))
    assert labels.tolist() == [1]
    assert schema2.schema_id == schema.schema_id
    assert combos2 == combos_out
    expect = vectors[0].as_array(schema.names)
    assert np.array_equal(matrix[0], expect)  # repr round trip is exact


def test_featurize_all_reads_each_window_once_and_never_tokenizes(monkeypatch):
    index, _ = pipeline_fixture()
    cands = detect_candidates(index)
    res = pipeline_resources()
    reads = []
    real = CorpusIndex.tweets_between

    def counted(self, canonical, lo, hi):
        reads.append(canonical)
        return real(self, canonical, lo, hi)

    def no_tokenize(*args, **kwargs):
        raise AssertionError("featurize tokenized text the index had already tokenized")

    monkeypatch.setattr(CorpusIndex, "tweets_between", counted)
    for module in (corpus, features):
        monkeypatch.setattr(module, "tokenize", no_tokenize, raising=False)
    observation = ObservationConfig(obs_months=6, horizon_months=2, lda_topics=2)
    vectors, _, _, _ = featurize_all(cands * 3, index, res, observation)
    assert len(vectors) == 3
    assert reads == ["snow", "day"] * 3


def test_featurize_all_is_independent_of_input_order(tmp_path):
    config = synth.signal_scenario(n_candidates=12, seed=4)
    # stagger the compounding month over three months, keeping n_months
    plants = []
    for i, p in enumerate(config.plants):
        k, cut = i % 3, len(p.post_ab) - i % 3
        plants.append(replace(
            p, m0=p.m0 + k, pre_a=p.pre_a + p.pre_a[-1:] * k, pre_b=p.pre_b + p.pre_b[-1:] * k,
            post_a=p.post_a[:cut], post_b=p.post_b[:cut], post_ab=p.post_ab[:cut],
        ))
    result = synth.generate(replace(config, plants=tuple(plants)))
    index = CorpusIndex(result.tweets)
    cands = filter_eligible(detect_candidates(index), index)
    for filename, content in result.resources.items():
        (tmp_path / filename).write_text(content)
    res = FeatureResources(
        load_dictionary(tmp_path / "dictionary.txt"),
        load_ngram_table(tmp_path / "ngrams.tsv"),
        load_pos_lexicon(tmp_path / "pos_lexicon.tsv"),
        load_gazetteer(tmp_path / "gazetteer.tsv"),
        lda_iterations=2,
        lda_seed=0,
    )
    observation = ObservationConfig(obs_months=6, horizon_months=10, lda_topics=2)
    # pickling captures every attribute by value, arrays included
    state = {k: pickle.dumps(v) for k, v in vars(index).items()}

    forward, _, _, _ = featurize_all(cands, index, res, observation)
    # latest compounding first, so every background read goes back in time
    order = sorted(range(len(cands)), key=lambda i: -cands[i].compound_first_seen)
    assert len({c.compound_first_seen for c in cands}) == 3
    backward, _, _, _ = featurize_all([cands[i] for i in order], index, res, observation)

    assert backward == [forward[i] for i in order]
    assert {k: pickle.dumps(v) for k, v in vars(index).items()} == state


def test_featurize_command_output_matches_golden_digests(tmp_path, capsys):
    """Pinned bytes of features.csv and its sidecar for a 20-candidate scenario.

    Synth's own n-gram table lists only plant-name phrases, which tweets
    never contain, so this table lists 2-word phrases from the topic
    vocabularies instead; the n-gram features are then non-zero in some rows.
    """
    from tagmerge import cli

    config = synth.signal_scenario(n_candidates=20, seed=7)
    scen = synth.write_scenario(config, tmp_path / "scen")
    phrases = []
    for k, vocab in enumerate(config.topic_vocabs):
        for i, word in enumerate(vocab):
            for d in (1, 2):
                phrases.append(f"{word} {vocab[(i + d) % len(vocab)]}\t{5 + 7 * k + 3 * i + d}")
    (tmp_path / "scen" / "ngrams.tsv").write_text("\n".join(phrases) + "\n")
    index, cands, labeled = tmp_path / "index.json", tmp_path / "c.tsv", tmp_path / "l.tsv"
    feats = tmp_path / "features.csv"
    for argv in (
        ["ingest", "--corpus", scen["corpus"], "--out", str(index)],
        ["detect", "--index", str(index), "--out", str(cands)],
        ["label", "--index", str(index), "--candidates", str(cands), "--out", str(labeled)],
        ["featurize", "--index", str(index), "--candidates", str(labeled), "--out", str(feats),
         "--dictionary", scen["dictionary.txt"], "--ngrams", scen["ngrams.tsv"],
         "--pos-lexicon", scen["pos_lexicon.tsv"], "--gazetteer", scen["gazetteer.tsv"],
         "--topics", "4", "--lda-iterations", "10"],
    ):
        assert cli.main(argv) == 0, argv[0]
    capsys.readouterr()

    matrix, _, schema, _ = read_feature_csv(feats)
    assert matrix.shape == (20, len(schema.names))
    for name in ("ngram_overlap", "avg_common_ngram_freq"):
        assert np.count_nonzero(matrix[:, schema.names.index(name)]) == 10
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (feats, tmp_path / "features.schema.json")
    }
    assert digests == {
        "features.csv": "6a0cf876c4f94922cfb0e67bd12e4119f1a009b2675bb637176e413418751ccc",
        "features.schema.json": "acee54bf4d5b95f96addc26065f5ff19e3b6bae377bb5314d0236054a52fe82d",
    }


def test_train_command_output_matches_golden_digests(tmp_path, capsys):
    """Pinned bytes of the `train` model files on the featurize golden's feature file."""
    from tagmerge import cli

    test_featurize_command_output_matches_golden_digests(tmp_path, capsys)
    digests = {}
    for kind in ("logreg", "linsvm"):
        out = tmp_path / f"{kind}.json"
        argv = ["train", "--model", kind, "--features", str(tmp_path / "features.csv"), "--out", str(out)]
        assert cli.main(argv) == 0, kind
        digests[kind] = hashlib.sha256(out.read_bytes()).hexdigest()
    capsys.readouterr()
    assert digests == {
        "logreg": "43775fcb66e8f75092f55ad623558e69fb9777e05f7efb2ce40d7c05d1ddc793",
        "linsvm": "03a4c5b53a59babcb3496b1ed100dfd973f42d7d8647709af3d0cb734b002e78",
    }


def wide_vocab_scenario(n_candidates, seed):
    """Signal candidates over two 120-word topic banks, 8 words per tweet.

    Every constituent's six-month document then has more than 100 distinct
    plain words, so each candidate's `topic_overlap` comes from a fit.
    """
    config = synth.signal_scenario(n_candidates=n_candidates, seed=seed, n_topics=2)
    return replace(
        config, words_per_tweet=8,
        topic_vocabs=(synth.word_bank(6000, 120), synth.word_bank(6120, 120)),
    )


def run_featurize_command(scen, work, *options):
    """The feature file that `ingest → detect → label → featurize` writes for a scenario."""
    from tagmerge import cli

    index, cands, labeled = work / "index.json", work / "c.tsv", work / "l.tsv"
    feats = work / "features.csv"
    for argv in (
        ["ingest", "--corpus", scen["corpus"], "--out", str(index)],
        ["detect", "--index", str(index), "--out", str(cands)],
        ["label", "--index", str(index), "--candidates", str(cands), "--out", str(labeled)],
        ["featurize", "--index", str(index), "--candidates", str(labeled), "--out", str(feats),
         "--dictionary", scen["dictionary.txt"], "--ngrams", scen["ngrams.tsv"],
         "--pos-lexicon", scen["pos_lexicon.tsv"], "--gazetteer", scen["gazetteer.tsv"],
         *options],
    ):
        assert cli.main(argv) == 0, argv[0]
    return feats


def test_featurize_command_output_with_fitted_topic_overlap_matches_golden_digests(
    tmp_path, capsys
):
    """Pinned bytes of features.csv and its sidecar where every pair's topics are fitted."""
    scen = synth.write_scenario(wide_vocab_scenario(8, seed=5), tmp_path / "scen")
    feats = run_featurize_command(scen, tmp_path, "--topics", "5", "--lda-iterations", "3")
    capsys.readouterr()

    matrix, _, schema, _ = read_feature_csv(feats)
    assert matrix.shape == (8, len(schema.names))
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (feats, tmp_path / "features.schema.json")
    }
    assert digests == {
        "features.csv": "14cd18bfb5ca28f27839a8a30c0816d6e9e2c6eea51136c04e09504207277f68",
        "features.schema.json": "0c3c13733ae35f5338fe418619a68b6249a750273e06c9909a19d02bcae6a719",
    }


def test_read_feature_csv_rejects_mismatched_header(tmp_path):
    index, _ = pipeline_fixture()
    cands = detect_candidates(index)
    res = pipeline_resources()
    vectors, combos_out, schema, _ = featurize_all(
        cands, index, res, ObservationConfig(obs_months=6, horizon_months=2, lda_topics=2)
    )
    path = tmp_path / "feats.csv"
    write_feature_csv(path, vectors, [0], schema, combos_out)
    body = path.read_text().splitlines()
    body[0] = "intruder," + body[0]
    path.write_text("\n".join(body) + "\n")
    with pytest.raises(CorpusFormatError):
        read_feature_csv(path)


@pytest.mark.parametrize("wide, expected", [
    (True, "(66 features; 4 topic fits, 0 pairs within the top-100 cut)"),
    (False, "(66 features; 0 topic fits, 4 pairs within the top-100 cut)"),
], ids=["wide-vocab", "signal"])
def test_featurize_command_reports_topic_fits(tmp_path, capsys, wide, expected):
    config = wide_vocab_scenario(4, seed=5) if wide else synth.signal_scenario(4, seed=5)
    scen = synth.write_scenario(config, tmp_path / "scen")
    run_featurize_command(scen, tmp_path, "--topics", "3", "--lda-iterations", "1")
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary.startswith("featurized 4 candidates ")
    assert expected in summary


# ---------------------------------------------------------------------------
# topic overlap structure


def test_topic_overlap_restricted_to_document_words():
    index, _ = pipeline_fixture()
    cands = detect_candidates(index)
    window = observation_window(cands[0].compound_first_seen, 6)
    doc_a, doc_b = build_documents(index, ["snow", "day"], window)
    overlap = avg_topic_overlap(doc_a, doc_b, n_topics=2, iterations=30, seed=5)
    # shared words bound the per-topic overlap from above
    vocab_a, vocab_b = set(doc_a.tokens), set(doc_b.tokens)
    assert 0 <= overlap <= len(vocab_a & vocab_b)
    assert avg_topic_overlap(doc_a, doc_a, n_topics=2, iterations=30, seed=5) == len(vocab_a)


def brute_force_top(model, doc_id, topic, n):
    words = [model.vocab[i] for i in model.doc_vocab[model.doc_ids.index(doc_id)]]
    count = {w: int(model.word_topic[model.vocab.index(w), topic]) for w in words}
    return sorted(words, key=lambda w: (-count[w], w))[:n]


@pytest.mark.parametrize("seed", range(20))
def test_topic_overlap_top_n_cut_matches_brute_force_ranking(seed, monkeypatch):
    """Documents larger than top_n, tied counts, and a vocabulary out of alphabetical order."""
    rng = np.random.default_rng(seed)
    vocab = ("kiwi", "apple", "mango", "fig", "date", "lime", "banana", "cherry",
             "grape", "elder", "plum", "quince", "nectarine", "olive")
    n_topics, top_n = 3, 4
    # counts from {0, 1, 2} tie often, including across the top_n boundary
    word_topic = rng.integers(0, 3, size=(len(vocab), n_topics))
    doc_vocab = (
        frozenset(rng.choice(len(vocab), size=9, replace=False).tolist()),
        frozenset(rng.choice(len(vocab), size=7, replace=False).tolist()),
    )
    model = TopicModel(
        n_topics=n_topics, alpha=1.0, beta=0.01, vocab=vocab, doc_ids=("a@0", "b@0"),
        word_topic=word_topic, doc_topic=np.zeros((2, n_topics), dtype=np.int64),
        doc_vocab=doc_vocab, seed=0, iterations=1,
    )
    expected = 0
    for k in range(n_topics):
        top_a = brute_force_top(model, "a@0", k, top_n)
        top_b = brute_force_top(model, "b@0", k, top_n)
        assert model.doc_top_words("a@0", top_n)[k] == top_a
        assert model.doc_top_words("b@0", top_n)[k] == top_b
        assert model.doc_top_words("a@0")[k] == brute_force_top(model, "a@0", k, 100)
        expected += len(set(top_a) & set(top_b))
    docs = [
        HashtagDocument(doc_id, doc_id[0], tuple(vocab[i] for i in sorted(members)))
        for doc_id, members in zip(model.doc_ids, doc_vocab)
    ]
    fits = []

    def fit(documents, **settings):
        fits.append(documents)
        return model

    monkeypatch.setattr(topicmodel, "fit_lda", fit)
    assert avg_topic_overlap(*docs, n_topics, 1, 0, top_n) == expected / n_topics
    assert fits == [docs]


@pytest.fixture
def fit_calls(monkeypatch):
    """The document lists `topicmodel.fit_lda` is called with; the fits still run."""
    calls = []
    real = topicmodel.fit_lda

    def counted(documents, *args, **kwargs):
        calls.append(list(documents))
        return real(documents, *args, **kwargs)

    monkeypatch.setattr(topicmodel, "fit_lda", counted)
    return calls


def words_doc(doc_id, n_words, start=0):
    """A document of `n_words` distinct words, each twice."""
    words = [f"w{start + i:03d}" for i in range(n_words)]
    return HashtagDocument(doc_id, doc_id.split("@")[0], tuple(words + words[::-1]))


def test_topic_overlap_without_fit_when_both_documents_fit_the_cut(fit_calls):
    doc_a, doc_b = words_doc("a@9", 100), words_doc("b@9", 60, start=70)
    assert avg_topic_overlap(doc_a, doc_b, n_topics=3, iterations=5, seed=0) == 30.0
    assert avg_topic_overlap(doc_a, words_doc("e@9", 0), n_topics=3, iterations=5, seed=0) == 0.0
    assert fit_calls == []


def test_topic_overlap_fits_the_pair_once_when_a_document_exceeds_the_cut(fit_calls):
    doc_a, doc_b = words_doc("a@9", 101), words_doc("b@9", 40, start=80)
    overlap = avg_topic_overlap(doc_a, doc_b, n_topics=3, iterations=5, seed=0)
    assert fit_calls == [[doc_a, doc_b]]
    assert 0.0 <= overlap <= 21.0
    assert avg_topic_overlap(doc_a, doc_b, n_topics=3, iterations=5, seed=0) == overlap


@pytest.mark.parametrize("n_words, expected", [(30, 30.0), (130, 100.0)])
def test_compound_of_one_hashtag_twice_overlaps_min_of_top_n_and_vocabulary(n_words, expected):
    """#byebye = #bye + #bye: both documents are the same, so every topic keeps the same words."""
    words = [f"w{i:03d}" for i in range(n_words)]
    tweets = [make_tweet("#bye hello", utc(2011, 1, 5), tid="seed")]
    tweets += [
        make_tweet("#bye " + " ".join(words[i : i + 10]), utc(2011, 3, 1) + i * 3600, tid=f"b{i}")
        for i in range(0, n_words, 10)
    ]
    tweets.append(make_tweet("#byebye at last", utc(2011, 8, 1), tid="c1"))
    index = CorpusIndex(tweets)
    (cand,) = detect_candidates(index)
    assert cand.part_a == cand.part_b
    res = pipeline_resources()
    combos = [zone_combo(cand, res.dictionary, res.pos_lexicon, res.gazetteer)]
    schema = build_schema(combos, ObservationConfig(obs_months=6, horizon_months=2, lda_topics=3))
    vec = featurize(cand, index, replace(res, lda_iterations=3), schema)
    assert vec.values["topic_overlap"] == expected
