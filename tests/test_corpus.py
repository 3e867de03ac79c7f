"""Calendar arithmetic, tokenization, and the timeline index."""

import json

import numpy as np
import pytest

from tagmerge import corpus
from tagmerge.corpus import (
    CorpusIndex,
    HashtagId,
    IngestConfig,
    Tweet,
    extract_hashtags,
    extract_mentions,
    ingest_jsonl,
    month_of,
    month_range,
    month_start,
    next_month,
    observation_window,
    shift_months,
)
from tagmerge.errors import CorpusFormatError

from conftest import make_tweet, utc
from oracles import tokenize


# ---------------------------------------------------------------------------
# calendar helpers


def test_month_of_epoch_origin():
    assert month_of(0) == "1970-01"
    assert month_of(1) == "1970-01"


def test_month_of_matches_calendar_module():
    # independent route through calendar.timegm
    assert month_of(utc(2011, 6, 15, 13, 45)) == "2011-06"
    assert month_of(utc(2012, 12, 31, 23, 59, 59)) == "2012-12"
    assert month_of(utc(2013, 1, 1)) == "2013-01"


def test_month_start_round_trip():
    for m in ("1970-01", "2011-06", "2012-02", "2099-12"):
        ts = month_start(m)
        assert month_of(ts) == m
        assert month_of(ts - 1) != m


def test_month_start_exact_value():
    assert month_start("2011-06") == utc(2011, 6, 1)


def test_next_month_december_rollover():
    assert next_month("2011-11") == "2011-12"
    assert next_month("2011-12") == "2012-01"


def test_month_range_inclusive():
    assert month_range("2011-11", "2012-02") == [
        "2011-11",
        "2011-12",
        "2012-01",
        "2012-02",
    ]
    assert month_range("2011-06", "2011-06") == ["2011-06"]
    with pytest.raises(ValueError):
        month_range("2012-01", "2011-12")


def test_bad_month_key_rejected():
    with pytest.raises(ValueError):
        month_start("2011-13")
    with pytest.raises(ValueError):
        month_start("junk")


def test_shift_months_plain():
    ts = utc(2011, 3, 15, 8, 30)
    assert shift_months(ts, 2) == utc(2011, 5, 15, 8, 30)
    assert shift_months(ts, -6) == utc(2010, 9, 15, 8, 30)
    assert shift_months(ts, 0) == ts


def test_shift_months_clamps_day():
    assert shift_months(utc(2011, 1, 31, 12), 1) == utc(2011, 2, 28, 12)
    assert shift_months(utc(2012, 1, 31, 12), 1) == utc(2012, 2, 29, 12)
    assert shift_months(utc(2011, 3, 31), -1) == utc(2011, 2, 28)


def test_shift_months_year_boundary():
    assert shift_months(utc(2011, 11, 5), 3) == utc(2012, 2, 5)
    assert shift_months(utc(2012, 1, 5), -2) == utc(2011, 11, 5)


def test_observation_window_spans_six_months_back():
    t0 = utc(2011, 9, 10, 6)
    lo, hi = observation_window(t0)
    assert hi == t0
    assert lo == utc(2011, 3, 10, 6)
    with pytest.raises(ValueError):
        observation_window(t0, 0)


# ---------------------------------------------------------------------------
# tokenization and extraction


def test_tokenize_lowercases_and_strips_edge_punctuation():
    toks = tokenize("RT @User: Check #MyTag!! (wow)...")
    assert toks == ["rt", "user", "check", "mytag", "wow"]


def test_tokenize_drops_pure_punctuation():
    assert tokenize("hello ... !! world") == ["hello", "world"]


def test_tokenize_keep_flags():
    text = "see #Tag by @who now"
    assert tokenize(text, keep_tags=False) == ["see", "by", "who", "now"]
    assert tokenize(text, keep_mentions=False) == ["see", "tag", "by", "now"]


@pytest.mark.parametrize("seed", range(10))
def test_index_tokens_match_tokenize_on_random_texts(seed):
    """Sigils, punctuation-only tokens, '#' and '@' inside or after punctuation."""
    rng = np.random.default_rng(seed)
    pieces = ["word", "Tag", "#tag", "@who", "#", "@", "##x", "#!!", "...", "a#b", "x@y",
              "(#wrapped)", "\"@quoted\"", "#9pm", "rt:", "Mixed!", "#Caps", "-", "é#"]
    texts = [
        " ".join(rng.choice(pieces, size=int(rng.integers(0, 12))).tolist()) or "#lone"
        for _ in range(40)
    ]
    index = CorpusIndex([make_tweet(text, utc(2011, 6, 1) + i, tid=f"r{i:02d}")
                         for i, text in enumerate(texts)])
    for tweet in index.tweets:
        assert index.tokens_of(tweet) == tokenize(tweet.text)
        plain = tokenize(tweet.text, keep_tags=False, keep_mentions=False)
        assert index.plain_tokens_of(tweet) == plain


def test_extract_hashtags_requires_leading_letter():
    tags = extract_hashtags("at #9pm #GoldenGlobes #_ok #x2")
    assert [t.display for t in tags] == ["GoldenGlobes", "_ok", "x2"]
    assert [t.canonical for t in tags] == ["goldenglobes", "_ok", "x2"]


def test_extract_mentions_lowercases():
    assert extract_mentions("cc @Alice and @BOB") == ["alice", "bob"]


def test_hashtag_id_validation():
    with pytest.raises(ValueError):
        HashtagId(canonical="Tag", display="Tag")
    with pytest.raises(ValueError):
        HashtagId(canonical="", display="")
    hid = HashtagId.from_display("GoldenGlobes")
    assert hid.canonical == "goldenglobes"


def test_tweet_derives_tags_and_mentions_from_text():
    t = make_tweet("hi #One #one @Someone", utc(2011, 6, 2))
    assert [h.display for h in t.hashtags] == ["One", "one"]
    assert t.hashtag_canonicals == ("one",)
    assert t.mentions == ("someone",)


def test_tweet_explicit_mentions_lowercased():
    t = make_tweet("no at signs here", utc(2011, 6, 2), mentions=("Alice",))
    assert t.mentions == ("alice",)


def test_tweet_rejects_nonpositive_timestamp():
    with pytest.raises(ValueError):
        Tweet(id="x", timestamp=0, user_id="u", text="hi")


@pytest.mark.parametrize("ts", [1300000000.5, 1300000000.0, True, "1300000000"])
def test_tweet_rejects_non_integer_timestamp(ts):
    # a tweet at 1300000000.5 would fall inside the open window (1300000000, 1300000001)
    with pytest.raises(ValueError, match="integer"):
        Tweet(id="x", timestamp=ts, user_id="u", text="#a hi")


# ---------------------------------------------------------------------------
# the index


def build_small_index():
    tweets = [
        make_tweet("#Alpha starts", utc(2011, 6, 3), user="u1", tid="a1"),
        make_tweet("more #alpha and #Beta", utc(2011, 6, 20), user="u2", tid="a2"),
        make_tweet("#alpha again", utc(2011, 7, 1), user="u1", tid="a3"),
        make_tweet("#beta #BETA twice in one tweet", utc(2011, 7, 10), user="u3", tid="a4"),
        make_tweet("quiet month no tags", utc(2011, 8, 15), user="u2", tid="a5"),
        make_tweet("#alpha closing", utc(2011, 9, 5), user="u4", tid="a6"),
    ]
    return CorpusIndex(tweets)


def test_first_seen_and_display_casing():
    index = build_small_index()
    assert index.first_seen("alpha") == utc(2011, 6, 3)
    assert index.first_seen("beta") == utc(2011, 6, 20)
    # display form is frozen at first sighting
    assert index.hashtag_id("alpha").display == "Alpha"
    assert index.hashtag_id("beta").display == "Beta"


def test_monthly_frequency_counts_distinct_tweets():
    index = build_small_index()
    assert index.monthly_frequency("alpha", "2011-06") == 2
    assert index.monthly_frequency("alpha", "2011-07") == 1
    assert index.monthly_frequency("alpha", "2011-08") == 0
    # the double "#beta #BETA" tweet counts once
    assert index.monthly_frequency("beta", "2011-07") == 1


def test_count_between_is_open_on_both_ends():
    index = build_small_index()
    ts = utc(2011, 6, 3)
    assert index.count_between("alpha", ts, utc(2011, 7, 1)) == 1
    assert index.count_between("alpha", ts - 1, utc(2011, 7, 1) + 1) == 3


def test_tweets_between_orders_by_time():
    index = build_small_index()
    got = index.tweets_between("alpha", 0, utc(2012, 1, 1))
    assert [t.id for t in got] == ["a1", "a2", "a3", "a6"]


def test_coverage_is_month_granular():
    index = build_small_index()
    assert index.months == ("2011-06", "2011-07", "2011-08", "2011-09")
    assert index.coverage_start == month_start("2011-06")
    assert index.coverage_end == month_start("2011-10")


def test_unknown_hashtag_raises():
    index = build_small_index()
    with pytest.raises(KeyError):
        index.first_seen("nosuchtag")


def test_duplicate_tweet_ids_rejected():
    t1 = make_tweet("one", utc(2011, 6, 1), tid="dup")
    t2 = make_tweet("two", utc(2011, 6, 2), tid="dup")
    with pytest.raises(ValueError):
        CorpusIndex([t1, t2])


def test_vocabulary_is_sorted_and_counts_match():
    index = build_small_index()
    vocab = index.vocabulary
    assert list(vocab) == sorted(vocab)
    counts, total = index.background_before(index.coverage_end)
    # "alpha" appears in tweets a1, a2, a3, a6
    assert counts[index.word_index("alpha")] == 4
    assert counts.sum() == total


def test_background_before_matches_fresh_recount():
    index = build_small_index()
    cut = utc(2011, 7, 10)
    counts, total = index.background_before(cut)
    expect = {}
    for t in index.tweets:
        if t.timestamp < cut:
            for tok in tokenize(t.text):
                expect[tok] = expect.get(tok, 0) + 1
    for word, n in expect.items():
        assert counts[index.word_index(word)] == n
    assert total == sum(expect.values())


def test_background_before_cursor_rewinds_correctly():
    index = build_small_index()
    c1, t1 = index.background_before(utc(2011, 8, 1))
    index.background_before(utc(2011, 10, 1))
    c3, t3 = index.background_before(utc(2011, 8, 1))  # forces a rebuild
    assert t3 == t1
    assert np.array_equal(c3, c1)


def test_index_save_load_round_trip(tmp_path):
    index = build_small_index()
    path = tmp_path / "index.json"
    index.save(path)
    loaded = CorpusIndex.load(path)
    assert len(loaded) == len(index)
    assert loaded.hashtags() == index.hashtags()
    assert loaded.first_seen("alpha") == index.first_seen("alpha")
    # serialization is canonical: save of the load is byte-identical
    path2 = tmp_path / "again.json"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_index_load_rejects_foreign_payload(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({"format": "something-else", "tweets": []}))
    with pytest.raises(CorpusFormatError):
        CorpusIndex.load(path)


# ---------------------------------------------------------------------------
# the binary sidecar


def sidecar_corpus():
    """Mixed-case repeats, '#9pm', punctuation-only words, mentions, no tokens."""
    return CorpusIndex([
        make_tweet("#Ab and #aB again #ab", utc(2011, 6, 3), tid="s1"),
        make_tweet("at #9pm tonight, #AB!", utc(2011, 6, 9), tid="s2"),
        make_tweet("... !!! -- (#x#y) é#tag", utc(2011, 6, 9), tid="s3"),
        make_tweet("@Alice says hi to @bob #Cd", utc(2011, 7, 2), tid="s4",
                   mentions=("Alice", "bob")),
        make_tweet("!!! ...", utc(2011, 7, 20), tid="s5"),
        make_tweet("", utc(2011, 8, 1), tid="s6"),
        make_tweet("#cd #ab closing words", utc(2011, 9, 30), tid="s7"),
    ], skipped=2, filtered=1)


def index_view(index):
    """Everything a reader of the index can see, as comparable values."""
    instants = [utc(2011, 6, 1), utc(2011, 6, 9), utc(2011, 6, 9) + 1, utc(2011, 8, 1), utc(2012, 1, 1)]
    windows = [(0, utc(2012, 1, 1)), (utc(2011, 6, 3), utc(2011, 9, 30)), (utc(2011, 6, 9) - 1, utc(2011, 7, 2))]
    return {
        "tweets": index.tweets,
        "hashtags": [t.hashtags for t in index.tweets],
        "tokens": [index.tokens_of(t) for t in index.tweets],
        "plain": [index.plain_tokens_of(t) for t in index.tweets],
        "vocabulary": index.vocabulary,
        "background": [(c.tolist(), n) for c, n in map(index.background_before, instants)],
        "tags": {
            tag: (
                index.first_seen(tag),
                index.hashtag_id(tag).display,
                [[t.id for t in index.tweets_between(tag, lo, hi)] for lo, hi in windows],
                [index.count_between(tag, lo, hi) for lo, hi in windows],
            )
            for tag in index.hashtags()
        },
        "months": index.months,
        "counts": (index.skipped, index.filtered),
    }


def load_json_only(path, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(corpus, "_read_sidecar", lambda *args: None)
        return CorpusIndex.load(path)


def test_sidecar_load_equals_json_load_and_built_index(tmp_path, monkeypatch):
    index = sidecar_corpus()
    assert [h.display for h in index.tweet("s1").hashtags] == ["Ab", "aB", "ab"]
    assert index.hashtag_id("ab").display == "Ab"
    assert index.tokens_of(index.tweet("s5")) == [] and index.tokens_of(index.tweet("s6")) == []
    path = tmp_path / "index.json"
    index.save(path)
    assert (tmp_path / "index.npz").is_file()
    with_sidecar = CorpusIndex.load(path)
    json_only = load_json_only(path, monkeypatch)
    assert index_view(with_sidecar) == index_view(json_only) == index_view(index)


def test_fresh_sidecar_is_used_without_tagging_or_tokenizing(tmp_path, monkeypatch):
    index = sidecar_corpus()
    path = tmp_path / "index.json"
    index.save(path)

    def never(*args, **kwargs):
        raise AssertionError("the load derived what the sidecar holds")

    monkeypatch.setattr(corpus, "extract_hashtags", never)
    monkeypatch.setattr(corpus, "_tokenize", never)
    assert index_view(CorpusIndex.load(path)) == index_view(index)


def _rewrite_sidecar(path, **members):
    """Rewrite the sidecar with some members replaced, or dropped when None."""
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    for name, value in members.items():
        if value is None:
            del arrays[name]
        else:
            arrays[name] = value
    np.savez(path, **arrays)


def _flip_token_byte(path):
    data = bytearray(path.read_bytes())
    # past the member's name and its 128-byte array header, inside the ids
    at = data.index(b"token_ids.npy") + len(b"token_ids.npy") + 128 + 1
    data[at] ^= 0xFF
    path.write_bytes(bytes(data))


def _stale(json_path, sidecar):
    payload = json.loads(json_path.read_text())
    payload["tweets"][0]["text"] = "#Zz replaces #ab here"
    json_path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


SIDECAR_DAMAGES = {
    "stale": _stale,
    "empty": lambda _, sidecar: sidecar.write_bytes(b""),
    "truncated": lambda _, sidecar: sidecar.write_bytes(sidecar.read_bytes()[:-40]),
    "bad-crc": lambda _, sidecar: _flip_token_byte(sidecar),
    "missing-member": lambda _, sidecar: _rewrite_sidecar(sidecar, tagged=None),
    "other-version": lambda _, sidecar: _rewrite_sidecar(sidecar, version=np.array([2])),
    "wrong-dtype": lambda _, sidecar: _rewrite_sidecar(
        sidecar, token_ids=np.load(sidecar)["token_ids"].astype(np.int64)),
    "short-tokens": lambda _, sidecar: _rewrite_sidecar(
        sidecar, token_ids=np.load(sidecar)["token_ids"][:-1]),
    "short-tags": lambda _, sidecar: _rewrite_sidecar(
        sidecar, tag_offsets=np.load(sidecar)["tag_offsets"][:-1]),
    "one-tweet-short": lambda _, sidecar: _rewrite_sidecar(
        sidecar, **{k: np.delete(np.load(sidecar)[k], 1) for k in ("tag_offsets", "token_offsets")}),
    "token-out-of-range": lambda _, sidecar: _rewrite_sidecar(
        sidecar, token_ids=np.load(sidecar)["token_ids"] + 1),
    "tag-out-of-range": lambda _, sidecar: _rewrite_sidecar(
        sidecar, tag_ids=np.load(sidecar)["tag_ids"] - 1),
    "directory": lambda _, sidecar: (sidecar.unlink(), sidecar.mkdir()),
}


@pytest.mark.parametrize("damage", list(SIDECAR_DAMAGES))
def test_stale_or_damaged_sidecar_falls_back_to_the_json(damage, tmp_path, monkeypatch):
    path, sidecar = tmp_path / "index.json", tmp_path / "index.npz"
    sidecar_corpus().save(path)
    SIDECAR_DAMAGES[damage](path, sidecar)
    assert index_view(CorpusIndex.load(path)) == index_view(load_json_only(path, monkeypatch))


# ---------------------------------------------------------------------------
# ingestion


def write_jsonl(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def good_record(i, ts, text="hello #World"):
    return {"id": f"g{i}", "timestamp": ts, "user": f"u{i}", "text": text}


def test_ingest_reads_numeric_and_iso_timestamps(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(
        path,
        [
            good_record(1, utc(2011, 6, 1, 10)),
            {
                "id": "g2",
                "timestamp": "2011-06-02T10:00:00Z",
                "user": "u2",
                "text": "#World again",
            },
        ],
    )
    index = ingest_jsonl(path)
    assert len(index) == 2
    assert index.tweet("g2").timestamp == utc(2011, 6, 2, 10)


def test_ingest_skips_malformed_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps(good_record(1, utc(2011, 6, 1))) + "\n")
        fh.write("this is not json\n")
        fh.write(json.dumps({"id": "m1", "timestamp": utc(2011, 6, 2)}) + "\n")
        fh.write(json.dumps({"id": "m2", "timestamp": True, "user": "u", "text": "x"}) + "\n")
        fh.write("\n")  # blank lines are not records at all
        fh.write(json.dumps(good_record(2, utc(2011, 6, 3))) + "\n")
        fh.write(json.dumps(good_record(3, utc(2011, 6, 4))) + "\n")
    index = ingest_jsonl(path)
    assert len(index) == 3
    assert index.skipped == 3


def test_ingest_counts_a_record_with_a_number_mention_as_malformed(tmp_path):
    path = tmp_path / "c.jsonl"
    bad = {**good_record(2, utc(2011, 6, 2)), "mentions": ["ann", 5]}
    write_jsonl(path, [good_record(1, utc(2011, 6, 1)), bad, good_record(3, utc(2011, 6, 3))])
    index = ingest_jsonl(path)
    assert len(index) == 2
    assert index.skipped == 1


def test_ingest_counts_duplicate_ids_as_malformed(tmp_path):
    path = tmp_path / "c.jsonl"
    rec = good_record(1, utc(2011, 6, 1))
    write_jsonl(path, [rec, rec, good_record(2, utc(2011, 6, 2))])
    index = ingest_jsonl(path)
    assert len(index) == 2
    assert index.skipped == 1


def test_ingest_rejects_mostly_malformed_file(tmp_path):
    path = tmp_path / "c.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps(good_record(1, utc(2011, 6, 1))) + "\n")
        fh.write("junk\n")
        fh.write("junk\n")
    with pytest.raises(CorpusFormatError):
        ingest_jsonl(path)
    # a stricter threshold trips on a single bad line
    path2 = tmp_path / "d.jsonl"
    with open(path2, "w") as fh:
        for i in range(9):
            fh.write(json.dumps(good_record(i, utc(2011, 6, 1 + i))) + "\n")
        fh.write("junk\n")
    ingest_jsonl(path2)  # fine at the default
    with pytest.raises(CorpusFormatError):
        ingest_jsonl(path2, IngestConfig(max_malformed_fraction=0.05))


def test_ingest_filter_hook_excludes_without_penalty(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(
        path,
        [good_record(i, utc(2011, 6, 1 + i), text=f"msg {i}") for i in range(4)],
    )
    cfg = IngestConfig(tweet_filter=lambda t: t.text != "msg 2")
    index = ingest_jsonl(path, cfg)
    assert len(index) == 3
    assert index.filtered == 1
    assert index.skipped == 0


def test_ingest_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        ingest_jsonl(tmp_path / "absent.jsonl")
