"""Synthetic corpora: planted schedules, manifests, and reference scenarios."""

import hashlib

import numpy as np
import pytest

from tagmerge.compound import classify_trend, detect_candidates, label_candidate
from tagmerge.corpus import CorpusIndex, observation_window
from tagmerge.errors import CorpusFormatError
from tagmerge.features import collocation_frequency
from tagmerge.synth import (
    PlantSpec,
    ScenarioConfig,
    generate,
    manifest_to_tsv,
    read_manifest,
    signal_scenario,
    reference_scenario,
    word_bank,
    write_corpus,
    write_scenario,
)


def hand_plant(**overrides):
    spec = dict(
        a_words=("snow",),
        b_words=("day",),
        topic_a=0,
        topic_b=0,
        m0=3,
        a_start=0,
        b_start=1,
        pre_a=(2, 2, 3),
        pre_b=(0, 2, 2),
        post_a=(1, 0, 2, 0, 0, 0, 0),
        post_b=(0, 1, 0, 0, 0, 0, 0),
        post_ab=(3, 1, 0, 1, 0, 0, 0),
    )
    spec.update(overrides)
    return PlantSpec(**spec)


def hand_config(plant, n_months=10, **overrides):
    spec = dict(
        name="hand",
        seed=11,
        start_month="2011-06",
        n_months=n_months,
        plants=(plant,),
        topic_vocabs=(word_bank(1000, 8),),
        background_words=word_bank(1010, 5),
    )
    spec.update(overrides)
    return ScenarioConfig(**spec)


# ---------------------------------------------------------------------------
# building blocks


def test_word_bank_is_deterministic_and_ordered():
    bank = word_bank(0, 4)
    assert bank == ("aaaaa", "aaaab", "aaaac", "aaaad")
    assert all(len(w) == 5 for w in word_bank(1200, 50))
    # counter order equals lexicographic order
    big = word_bank(500, 200)
    assert list(big) == sorted(big)
    assert word_bank(500, 200) == big


def test_plant_spec_validation():
    with pytest.raises(ValueError):
        hand_plant(pre_a=(2, 2))  # wrong length for m0=3
    with pytest.raises(ValueError):
        hand_plant(pre_b=(1, 2, 2))  # nonzero before b_start
    with pytest.raises(ValueError):
        hand_plant(pre_a=(-1, 0, 0))
    with pytest.raises(ValueError):
        hand_plant(planted_class=2)


def test_plant_display_forms():
    plant = PlantSpec(
        a_words=("coming", "back"),
        b_words=("black",),
        topic_a=0,
        topic_b=0,
        m0=1,
        a_start=0,
        b_start=0,
        pre_a=(1,),
        pre_b=(1,),
        post_a=(0,),
        post_b=(0,),
        post_ab=(0,),
    )
    assert plant.a_display == "ComingBack"
    assert plant.b_display == "Black"
    assert plant.ab_display == "ComingBackBlack"
    assert plant.ab_canonical == "comingbackblack"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--scenario", "reference", "--seed", "0"],
         "c5b07aa28bdc6d3fa24c884bbc4d49c53f7d0addd13248ed8d0ddc2658e4078a"),
        (["--scenario", "signal", "--candidates", "16", "--seed", "7"],
         "bc5cd85dbe382a488e5819af6547b8d33f31bd0b2a5cfc5874073dc7c47e6eab"),
    ],
    ids=["reference-seed0", "signal16-seed7"],
)
def test_synth_config_file_matches_golden_digest(argv, digest, tmp_path, capsys):
    from tagmerge import cli

    assert cli.main(["synth", *argv, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256((tmp_path / "config.json").read_bytes()).hexdigest() == digest


def test_scenario_config_round_trip(tmp_path):
    config = hand_config(hand_plant())
    path = tmp_path / "scenario.json"
    config.save(path)
    loaded = ScenarioConfig.load(path)
    assert loaded == config
    path2 = tmp_path / "again.json"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


# ---------------------------------------------------------------------------
# generation against planted arithmetic


def test_generated_monthly_counts_match_schedule():
    result = generate(hand_config(hand_plant()))
    index = CorpusIndex(result.tweets)
    months = index.months
    assert months[0] == "2011-06"
    assert len(months) == 10
    # scheduled counts plus one first tweet in each tag's start month
    expect_snow = [3, 2, 3, 1, 0, 2, 0, 0, 0, 0]
    expect_day = [0, 3, 2, 0, 1, 0, 0, 0, 0, 0]
    expect_ab = [0, 0, 0, 4, 1, 0, 1, 0, 0, 0]
    assert [index.monthly_frequency("snow", m) for m in months] == expect_snow
    assert [index.monthly_frequency("day", m) for m in months] == expect_day
    assert [index.monthly_frequency("snowday", m) for m in months] == expect_ab


def test_generation_is_deterministic(tmp_path):
    config = hand_config(hand_plant())
    r1 = generate(config)
    r2 = generate(config)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_corpus(p1, r1.tweets)
    write_corpus(p2, r2.tweets)
    assert p1.read_bytes() == p2.read_bytes()
    assert manifest_to_tsv(r1.manifest) == manifest_to_tsv(r2.manifest)
    assert r1.resources == r2.resources


def test_manifest_agrees_with_detector_and_labeler():
    result = generate(hand_config(hand_plant()))
    index = CorpusIndex(result.tweets)
    cands = detect_candidates(index)
    assert [c.compound.canonical for c in cands] == ["snowday"]
    (cand,) = cands
    (row,) = result.manifest
    assert row.compound == "snowday"
    assert row.split_index == cand.split_index == 4
    assert row.t0 == cand.compound_first_seen
    # manifest labels come from schedule sums; the labeler recounts tweets
    assert row.labels[2] == "Popular"
    assert row.labels[6] == "Popular"
    assert row.labels[10] is None  # horizon exceeds coverage
    for horizon in (2, 6):
        assert label_candidate(index, cand, horizon).value == row.labels[horizon]
    label = label_candidate(index, cand, 2)
    assert (label.freq_ab, label.freq_a, label.freq_b) == (4, 1, 1)
    # support columns equal the open observation window counts
    window = observation_window(cand.compound_first_seen, 6)
    assert row.support_a == index.count_between("snow", *window) == 8
    assert row.support_b == index.count_between("day", *window) == 5


def test_manifest_trend_matches_classifier():
    plant = hand_plant(
        post_a=(1,) * 11,
        post_b=(0,) * 11,
        post_ab=(3, 0) + (3,) * 8 + (9,),
    )
    result = generate(hand_config(plant, n_months=14))
    index = CorpusIndex(result.tweets)
    (cand,) = detect_candidates(index)
    (row,) = result.manifest
    assert row.labels[10] == "Popular"
    assert row.trend == "AllButOneMonth"
    assert classify_trend(index, cand).value == row.trend


def test_co_occurrence_is_carved_out_not_added():
    base = hand_plant(
        pre_a=(4, 4, 4),
        pre_b=(0, 4, 4),
        co_rate=0.5,
    )
    result = generate(hand_config(base, seed=3))
    index = CorpusIndex(result.tweets)
    months = index.months
    # totals still match the schedule exactly
    assert [index.monthly_frequency("snow", m) for m in months[:3]] == [5, 4, 4]
    assert [index.monthly_frequency("day", m) for m in months[:3]] == [0, 5, 4]
    # round(0.5 * min) joint tweets per pre month
    t0 = index.first_seen("snowday")
    window = observation_window(t0, 6)
    assert collocation_frequency(index.tweets_between("snow", *window), "day") == 0 + 2 + 2


def test_user_pools_and_retweets_respond_to_knobs():
    plant = hand_plant(
        pre_a=(6, 6, 6),
        pre_b=(0, 6, 6),
        user_overlap=0.5,
        retweet_rate=1.0,
        mention_rate=1.0,
        user_pool=4,
    )
    result = generate(hand_config(plant, seed=7))
    index = CorpusIndex(result.tweets)
    t0 = index.first_seen("snowday")
    window = observation_window(t0, 6)
    snow_tweets = index.tweets_between("snow", *window)
    users = {t.user_id for t in snow_tweets}
    assert any(u.startswith("uc_") for u in users)  # common pool drawn
    assert any(u.startswith("u_snow_") for u in users)  # own pool drawn
    # everything except the seed tweet points back at it
    missing = [t for t in snow_tweets if t.retweet_of is None]
    assert len(missing) <= 1
    assert len(snow_tweets) - len(missing) >= 15
    assert all(t.mentions for t in snow_tweets)


def test_month_capacity_overflow_is_an_error():
    plant = hand_plant(pre_a=(30000, 2, 3))
    with pytest.raises(ValueError):
        generate(hand_config(plant))


def test_manifest_tsv_round_trip(tmp_path):
    result = generate(hand_config(hand_plant()))
    path = tmp_path / "manifest.tsv"
    path.write_text(manifest_to_tsv(result.manifest))
    rows = read_manifest(path)
    assert rows == result.manifest
    path.write_text(manifest_to_tsv(result.manifest) + "   \n")  # whitespace only: skipped
    assert read_manifest(path) == result.manifest
    bad = tmp_path / "bad.tsv"
    bad.write_text("x\ty\n")
    with pytest.raises(CorpusFormatError, match=r"bad\.tsv: header is not compound<TAB>"):
        read_manifest(bad)
    lines = path.read_text().splitlines()
    bad.write_text("\n".join([lines[0], lines[1].rsplit("\t", 1)[0]]) + "\n")
    with pytest.raises(CorpusFormatError, match=r"bad\.tsv:2: found 11 cells, expected 12"):
        read_manifest(bad)
    cells = lines[1].split("\t")
    cells[3] = "x"  # split_index
    lines[1] = "\t".join(cells)
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusFormatError, match=r"bad\.tsv:2: invalid literal for int\(\)"):
        read_manifest(bad)


def test_write_scenario_emits_usable_resources(tmp_path):
    config = hand_config(hand_plant())
    paths = write_scenario(config, tmp_path / "scen")
    assert set(paths) == {
        "corpus",
        "manifest",
        "config",
        "dictionary.txt",
        "pos_lexicon.tsv",
        "ngrams.tsv",
        "gazetteer.tsv",
    }
    from tagmerge.lexicon import load_dictionary, load_gazetteer, load_ngram_table, load_pos_lexicon

    d = load_dictionary(paths["dictionary.txt"])
    assert "snow" in d and "day" in d
    load_ngram_table(paths["ngrams.tsv"])
    load_pos_lexicon(paths["pos_lexicon.tsv"])
    load_gazetteer(paths["gazetteer.tsv"])
    assert ScenarioConfig.load(paths["config"]) == config


# ---------------------------------------------------------------------------
# reference scenarios


def test_reference_scenario_matches_frozen_counts():
    result = generate(reference_scenario())
    index = CorpusIndex(result.tweets)
    cands = detect_candidates(index)
    assert len(cands) == 20
    by_name = {r.compound: r for r in result.manifest}
    assert set(by_name) == {c.compound.canonical for c in cands}

    popular = [r for r in result.manifest if r.labels[10] == "Popular"]
    assert len(popular) == 10
    for row in result.manifest:
        assert (row.planted_class == 1) == (row.labels[10] == "Popular")

    for cand in cands:
        row = by_name[cand.compound.canonical]
        for horizon in (2, 6, 10):
            got = label_candidate(index, cand, horizon)
            assert got.value == row.labels[horizon], cand.compound.canonical

    # frozen 1:100 scaled frequencies of three reference compounds
    checks = {
        "highschoolmemories": ("Popular", 217, 4, 42),
        "loveoomf": ("Unpopular", 1, 146, 1423),
        "oomfpussy": ("Unpopular", 1, 1427, 111),
    }
    for name, (value, f_ab, f_a, f_b) in checks.items():
        (cand,) = [c for c in cands if c.compound.canonical == name]
        label = label_candidate(index, cand, 10)
        assert (label.value, label.freq_ab, label.freq_a, label.freq_b) == (
            value,
            f_ab,
            f_a,
            f_b,
        )


def test_signal_scenario_shapes_and_balance():
    config = signal_scenario(n_candidates=20, seed=4, strength=1.0)
    classes = [p.planted_class for p in config.plants]
    assert len(config.plants) == 20
    assert classes.count(0) == classes.count(1) == 10
    with pytest.raises(ValueError):
        signal_scenario(n_candidates=7)
    # the config is pure data: same arguments, same payload
    again = signal_scenario(n_candidates=20, seed=4, strength=1.0)
    assert again == config


def test_signal_strength_widens_class_separation():
    weak = signal_scenario(n_candidates=40, seed=2, strength=0.0)
    strong = signal_scenario(n_candidates=40, seed=2, strength=1.0)

    def mean_cross(config, cls):
        vals = [p.cross_frac for p in config.plants if p.planted_class == cls]
        return float(np.mean(vals))

    # no separation without signal, wide separation with it
    assert abs(mean_cross(weak, 1) - mean_cross(weak, 0)) < 0.05
    assert mean_cross(strong, 1) - mean_cross(strong, 0) > 0.4
    assert all(p.co_rate == 0.0 for p in weak.plants)
    assert all(
        (p.co_rate > 0.0) == (p.planted_class == 1) for p in strong.plants
    )


def test_signal_scenario_labels_close_the_loop():
    config = signal_scenario(n_candidates=12, seed=9, strength=0.7)
    result = generate(config)
    index = CorpusIndex(result.tweets)
    cands = detect_candidates(index)
    assert len(cands) == 12
    by_name = {r.compound: r for r in result.manifest}
    for cand in cands:
        row = by_name[cand.compound.canonical]
        for horizon, expect in row.labels.items():
            if expect is None:
                continue
            assert label_candidate(index, cand, horizon).value == expect
        # planted class drives the ten-month outcome
        assert row.labels[10] == ("Popular" if row.planted_class == 1 else "Unpopular")
