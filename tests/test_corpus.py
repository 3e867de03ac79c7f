"""Calendar arithmetic, tokenization, and the timeline index."""

import json
import math

import numpy as np
import pytest

from tagmerge import cli, corpus
from tagmerge.corpus import (
    CorpusIndex,
    HashtagId,
    Tweet,
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

from conftest import make_tweet, rewrite_index, string_members, utc
from oracles import extract_hashtags, tags_of, tokenize


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
    plains = []
    for position, tweet in enumerate(index.tweets):
        assert words_at(index, position) == tokenize(tweet.text)
        plain = tokenize(tweet.text, keep_tags=False, keep_mentions=False)
        assert index.plain_words([position]) == tuple(plain)
        plains += plain
    assert index.plain_words(range(len(index))) == tuple(plains)
    ids, bounds, plain_ids = index.token_ids(range(len(index)))
    assert [ids[i:j] for i, j in zip(bounds, bounds[1:])] == [
        index.token_ids([p])[0] for p in range(len(index))]
    assert plain_ids.dtype == np.int32
    assert [index.vocabulary[i] for i in plain_ids] == plains


def words_at(index, position):
    """The tokens of the tweet at `position`, as words."""
    ids, bounds, _ = index.token_ids([position])
    assert bounds == [0, len(ids)]
    return [index.vocabulary[i] for i in ids]


def test_extract_hashtags_requires_leading_letter():
    # '²', '½' and 'Ⅻ' are numbers that are not decimal digits
    tags = extract_hashtags("at #9pm #GoldenGlobes #²nd #_ok #½off #x2 #Café. #Ⅻ #Ünï9")
    assert [t.display for t in tags] == ["GoldenGlobes", "_ok", "x2", "Café", "Ünï9"]
    assert [t.canonical for t in tags] == ["goldenglobes", "_ok", "x2", "café", "ünï9"]


def test_extract_mentions_lowercases():
    mentions = extract_mentions("cc @Alice and @BOB, @Böb @9Ärger")
    assert mentions == ["alice", "bob", "böb", "9ärger"]


def test_hashtag_id_validation():
    with pytest.raises(ValueError):
        HashtagId(canonical="Tag", display="Tag")
    with pytest.raises(ValueError):
        HashtagId(canonical="", display="")
    hid = HashtagId.from_display("GoldenGlobes")
    assert hid.canonical == "goldenglobes"


def test_tweet_derives_tags_and_mentions_from_text():
    t = make_tweet("hi #One #one @Someone", utc(2011, 6, 2))
    tags = extract_hashtags(t.text)
    assert [h.display for h in tags] == ["One", "one"]
    assert [h.canonical for h in tags] == ["one", "one"]
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


def test_positions_between_orders_by_time():
    index = build_small_index()
    ids = [t.id for t in index.tweets]
    got = index.positions_between("alpha", 0, utc(2012, 1, 1))
    assert [ids[p] for p in got] == ["a1", "a2", "a3", "a6"]


def test_audience_reads_users_mentions_and_retweets_of_positions():
    index = CorpusIndex([
        make_tweet("#aa hi @Ann", utc(2011, 6, 1), user="u1", tid="t1"),
        make_tweet("#aa yo @ann @bo", utc(2011, 6, 2), user="u2", tid="t2", retweet_of="t1"),
        make_tweet("#aa again", utc(2011, 6, 3), user="u1", tid="t3", retweet_of="t1"),
        make_tweet("#bb other @cy", utc(2011, 6, 4), user="u9", tid="t4", retweet_of="t2"),
    ])
    positions = index.positions_between("aa", 0, utc(2012, 1, 1))
    assert index.audience(positions) == ({"u1", "u2"}, {"ann", "bo"}, {"t2", "t3"})
    assert index.audience([]) == (set(), set(), set())


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


def test_empty_corpus_round_trip(tmp_path):
    path = tmp_path / "index.json"
    CorpusIndex([], skipped=3).save(path)
    with np.load(path) as npz:
        assert [name for name in npz.files if len(npz[name]) == 0] == [
            "timestamps", "ids", "texts", "users", "retweets", "mentions", "tags", "vocabulary",
            "user_ids", "retweet_ids", "mention_ids", "tag_ids", "token_ids", "tagged"]
    loaded = CorpusIndex.load(path)
    assert (len(loaded), loaded.skipped, loaded.months, loaded.tweets) == (0, 3, (), ())
    assert (loaded.hashtags(), loaded.vocabulary, loaded.background_before(utc(2011, 6, 1))[1]) == (
        [], (), 0)
    loaded.save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_index_load_rejects_foreign_payload(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({"format": "something-else", "tweets": []}))
    with pytest.raises(CorpusFormatError):
        CorpusIndex.load(path)
    # a zip of arrays, but not an index
    with open(path, "wb") as fh:
        np.savez(fh, format=np.frombuffer(b"something-else", dtype=np.uint8))
    with pytest.raises(CorpusFormatError, match="not a tagmerge-index file"):
        CorpusIndex.load(path)


# ---------------------------------------------------------------------------
# the index file


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
    ], skipped=2)


def index_view(index):
    """Everything a reader of the index can see, as comparable values."""
    instants = [utc(2011, 6, 1), utc(2011, 6, 9), utc(2011, 6, 9) + 1, utc(2011, 8, 1), utc(2012, 1, 1)]
    windows = [(0, utc(2012, 1, 1)), (utc(2011, 6, 3), utc(2011, 9, 30)), (utc(2011, 6, 9) - 1, utc(2011, 7, 2))]
    ids = [t.id for t in index.tweets]
    runs = {tag: set(index.positions_between(tag, 0, math.inf)) for tag in index.hashtags()}
    return {
        "tweets": index.tweets,
        "hashtags": [[tag for tag, run in runs.items() if p in run] for p in range(len(index))],
        "tokens": [words_at(index, p) for p in range(len(index))],
        "plain": [index.plain_words([p]) for p in range(len(index))],
        "vocabulary": index.vocabulary,
        "background": [(c.tolist(), n) for c, n in map(index.background_before, instants)],
        "tags": {
            tag: (
                index.first_seen(tag),
                index.hashtag_id(tag).display,
                [[ids[p] for p in index.positions_between(tag, lo, hi)] for lo, hi in windows],
                [index.count_between(tag, lo, hi) for lo, hi in windows],
                [index.audience(index.positions_between(tag, lo, hi)) for lo, hi in windows],
            )
            for tag in index.hashtags()
        },
        "months": index.months,
        "skipped": index.skipped,
    }


def random_corpus(seed):
    """A few hundred tweets, given out of order, with many same-second ties
    broken by id, mixed-case repeats of one tag within a tweet, tweets with
    no tags or no tokens, and '#9pm'-style non-tags."""
    rng = np.random.default_rng(seed)
    pieces = ["#Ab #aB #ab", "#AB", "#cd", "#Cd", "#9pm", "(#x#y)", "\u00e9#tag", "#Ef_9",
              "word", "Mixed!", "@Who", "rt:", "...", "!!!", "-"]
    base = utc(2011, 5, 1)
    tweets = []
    for i in range(int(rng.integers(200, 400))):
        kind = int(rng.integers(0, 5))
        if kind == 0:
            text = ""
        elif kind == 1:
            text = "!!! ... -"
        else:
            text = " ".join(rng.choice(pieces, size=int(rng.integers(1, 7))).tolist())
        tweets.append(make_tweet(
            text,
            base + 86400 * int(rng.integers(0, 150)),
            user=f"u{int(rng.integers(0, 9))}",
            tid=f"{int(rng.integers(0, 1000)):03d}-{i}",
            retweet_of=f"r{i}" if kind == 3 else None,
            mentions=("Ann", "bob") if kind == 4 else None,
        ))
    return tweets


def random_instants(tweets, seed):
    """40 instants and 20 windows drawn from them; half the instants sit on a
    tweet's timestamp, where open bounds matter."""
    rng = np.random.default_rng(seed)
    stamps = sorted({t.timestamp for t in tweets})
    near = rng.integers(stamps[0] - 5, stamps[-1] + 5, size=20)
    instants = np.concatenate([rng.choice(stamps, size=20), near]).tolist()
    return instants, [tuple(sorted(pair)) for pair in rng.choice(instants, size=(20, 2)).tolist()]


def query_view(index, seed):
    """`count_between` and `positions_between` over random windows for every
    hashtag, and `background_before` at random instants."""
    instants, windows = random_instants(index.tweets, seed)
    ids = [t.id for t in index.tweets]
    return {
        "windows": {
            tag: [
                (index.count_between(tag, lo, hi),
                 [ids[p] for p in index.positions_between(tag, lo, hi)])
                for lo, hi in windows
            ]
            for tag in index.hashtags()
        },
        "background": {
            ts: dict(zip(index.vocabulary, index.background_before(ts)[0].tolist()))
            for ts in instants
        },
    }


def query_oracle(tweets, tags, seed):
    """`query_view` read straight off the tweets, by a scan of every one."""
    instants, windows = random_instants(tweets, seed)
    ordered = sorted(tweets, key=lambda t: (t.timestamp, t.id))
    inside = {
        tag: [[t.id for t in ordered
               if lo < t.timestamp < hi and tag in tags_of(t)]
              for lo, hi in windows]
        for tag in tags
    }
    background = {}
    for ts in instants:
        counts = {}
        for t in ordered:
            if t.timestamp < ts:
                for token in tokenize(t.text):
                    counts[token] = counts.get(token, 0) + 1
        background[ts] = counts
    windows = {tag: [(len(ids), ids) for ids in per_window] for tag, per_window in inside.items()}
    return windows, background


@pytest.mark.parametrize("seed", range(5))
def test_loads_and_built_index_agree_on_random_corpora(seed, tmp_path):
    tweets = random_corpus(seed)
    index = CorpusIndex(tweets)
    path = tmp_path / "index.json"
    index.save(path)
    expect = index_view(index) | query_view(index, seed)
    loaded = CorpusIndex.load(path)
    assert index_view(loaded) | query_view(loaded, seed) == expect
    # the index of the loaded tweets writes the same bytes
    CorpusIndex(loaded.tweets).save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
    # tweets stored out of (timestamp, id) order make a damaged file, not one to sort
    with np.load(path) as npz:
        stamps = npz["timestamps"]
    rewrite_index(path, timestamps=stamps[::-1])
    with pytest.raises(CorpusFormatError, match=r"out of \(timestamp, id\) order"):
        CorpusIndex.load(path)

    windows, background = query_oracle(tweets, index.hashtags(), seed)
    assert expect["windows"] == windows
    counted = expect["background"]
    assert {ts: {w: n for w, n in counted[ts].items() if n} for ts in counted} == background
    assert sorted(set().union(*map(tags_of, tweets))) == index.hashtags()


def test_sidecar_load_equals_json_load_and_built_index(tmp_path):
    """Named for the two-file format; the one file holds what its JSON and
    its sidecar held, and nothing is written beside it."""
    index = sidecar_corpus()
    tweets = {t.id: t for t in index.tweets}
    positions = {t.id: p for p, t in enumerate(index.tweets)}
    assert [h.display for h in extract_hashtags(tweets["s1"].text)] == ["Ab", "aB", "ab"]
    assert index.hashtag_id("ab").display == "Ab"
    assert words_at(index, positions["s5"]) == [] == words_at(index, positions["s6"])
    path = tmp_path / "index.json"
    index.save(path)
    assert [p.name for p in tmp_path.iterdir()] == ["index.json"]
    assert index_view(CorpusIndex.load(path)) == index_view(index)


def test_fresh_sidecar_is_used_without_tagging_or_tokenizing(tmp_path, monkeypatch):
    index = sidecar_corpus()
    path = tmp_path / "index.json"
    index.save(path)

    def never(*args, **kwargs):
        raise AssertionError("the load derived what the file holds")

    for name in ("hashtag_spellings", "_table_ids", "_tokenize", "_encode"):
        monkeypatch.setattr(corpus, name, never)
    assert index_view(CorpusIndex.load(path)) == index_view(index)


def test_load_never_calls_json(tmp_path, monkeypatch):
    index = sidecar_corpus()
    path = tmp_path / "index.json"
    index.save(path)

    def never(*args, **kwargs):
        raise AssertionError("the load parsed JSON")

    for owner, name in ((json, "loads"), (json, "load"), (json.JSONDecoder, "decode"),
                        (json.JSONDecoder, "raw_decode")):
        monkeypatch.setattr(owner, name, never)
    assert index_view(CorpusIndex.load(path)) == index_view(index)


def _flip_token_byte(path):
    data = bytearray(path.read_bytes())
    # past the member's name and its 128-byte array header, inside the ids
    at = data.index(b"token_ids.npy") + len(b"token_ids.npy") + 128 + 1
    data[at] ^= 0xFF
    path.write_bytes(bytes(data))


def _member(path, name):
    with np.load(path) as npz:
        return npz[name]


def _read_strings(path, name):
    with np.load(path) as npz:
        blob, offsets = npz[name].tobytes(), npz[f"{name}_offsets"].tolist()
    return [blob[i:j].decode() for i, j in zip(offsets, offsets[1:])]


def _swap_first_two_tags(path):
    """The same spellings for every tweet, but a table not in order of first use."""
    tags = _read_strings(path, "tags")
    tags[0], tags[1] = tags[1], tags[0]
    tag_ids = _member(path, "tag_ids")
    swapped = np.choose((tag_ids == 0) + 2 * (tag_ids == 1), [tag_ids, 1, 0]).astype(np.int32)
    rewrite_index(path, **string_members("tags", tags), tag_ids=swapped)


def _stale(path):
    """A texts column written for other tweets: one more than the index holds."""
    texts = [t.text for t in sidecar_corpus().tweets] + ["#Zz replaces #ab here"]
    rewrite_index(path, **string_members("texts", texts))


# Each damage that made the two-file format ignore its sidecar and rebuild
# from the JSON, planted in the one file, and what the refusal says.
SIDECAR_DAMAGES = {
    "stale": (_stale, "texts_offsets do not fit the 7 tweets"),
    "empty": (lambda path: path.write_bytes(b""), "not a tagmerge-index file"),
    "truncated": (lambda path: path.write_bytes(path.read_bytes()[:-40]),
                  "not a tagmerge-index file"),
    "bad-crc": (_flip_token_byte, "Bad CRC-32 for file 'token_ids.npy'"),
    "missing-member": (lambda path: rewrite_index(path, tagged=None), "no member 'tagged'"),
    "other-version": (lambda path: rewrite_index(path, version=np.array([3])),
                      "unsupported tagmerge-index version [3]"),
    "wrong-dtype": (lambda path: rewrite_index(
        path, token_ids=_member(path, "token_ids").astype(np.int64)),
        "member 'token_ids' is not a 1-d int32 array"),
    "short-tokens": (lambda path: rewrite_index(path, token_ids=_member(path, "token_ids")[:-1]),
                     "token_offsets do not split"),
    "short-tags": (lambda path: rewrite_index(path, tag_offsets=_member(path, "tag_offsets")[:-1]),
                   "tag_offsets do not fit the 7 tweets"),
    "one-tweet-short": (lambda path: rewrite_index(path, **{
        k: np.delete(_member(path, k), 1) for k in ("tag_offsets", "token_offsets")}),
        "tag_offsets do not fit the 7 tweets"),
    "token-out-of-range": (lambda path: rewrite_index(
        path, token_ids=_member(path, "token_ids") + 1), "token_ids out of range"),
    "tag-out-of-range": (lambda path: rewrite_index(path, tag_ids=_member(path, "tag_ids") - 1),
                         "ids into tags out of range"),
    "directory": (lambda path: (path.unlink(), path.mkdir()), "Is a directory"),
    "tags-out-of-order": (_swap_first_two_tags,
                          "the tags table does not list each string once, in order of first use"),
}


def _split_a_character(path):
    """Tweet s4's text starting inside the two bytes of s3's 'é'."""
    blob, offsets = _member(path, "texts").tobytes(), _member(path, "texts_offsets")
    offsets[3] = blob.index("é".encode()) + 1
    rewrite_index(path, texts_offsets=offsets)


def _text_byte(value):
    """A damage setting the last byte of tweet s1's text, an ASCII letter, to `value`."""
    def plant(path):
        blob, offsets = _member(path, "texts"), _member(path, "texts_offsets")
        blob[offsets[1] - 1] = value
        rewrite_index(path, texts=blob)
    return plant


# Damages with no counterpart in the two-file format, and what the refusal says.
INDEX_DAMAGES = {
    "version-1-json": (
        lambda path: path.write_text(
            '{"filtered":0,"format":"tagmerge-index","skipped":0,"tweets":[],"version":1}\n'),
        "re-run `tagmerge ingest` to write version 2"),
    "tie-out-of-order": (lambda path: rewrite_index(path, **string_members(
        "ids", ["s1", "s3", "s2", "s4", "s5", "s6", "s7"])), "tweet s2 is out of (timestamp, id) order"),
    "uppercase-mention": (lambda path: rewrite_index(path, **string_members(
        "mentions", ["Alice", "bob"])), "a mention is not lowercase"),
    "unused-user": (lambda path: rewrite_index(path, **string_members("users", ["u1", "u2"])),
                    "the users table does not list each string once"),
    "unsorted-vocabulary": (lambda path: rewrite_index(path, **string_members(
        "vocabulary", _read_strings(path, "vocabulary")[::-1])),
        "the vocabulary is not sorted and distinct"),
    "text-splits-a-character": (_split_a_character, "texts_offsets split a character"),
    "text-not-utf8": (_text_byte(0xFF), "can't decode byte 0xff"),
    "text-stray-continuation-byte": (_text_byte(0x80), "can't decode byte 0x80"),
    "negative-skipped": (lambda path: rewrite_index(path, skipped=np.array([-1])),
                         "member 'skipped' does not hold one count"),
}


def _refused(plant, message, tmp_path, capsys):
    """Plant a damage in a saved index: `detect` exits 1 naming the file and saying `message`."""
    path = tmp_path / "index.json"
    sidecar_corpus().save(path)
    plant(path)
    assert cli.main(["detect", "--index", str(path), "--out", str(tmp_path / "c.tsv")]) == 1
    err = capsys.readouterr().err
    assert str(path) in err
    assert message in err
    assert not (tmp_path / "c.tsv").exists()


@pytest.mark.parametrize("damage", list(SIDECAR_DAMAGES))
def test_stale_or_damaged_sidecar_falls_back_to_the_json(damage, tmp_path, capsys):
    """Named for the two-file format, where each damage made the load fall
    back to the JSON. Planted in the one file, each is refused."""
    _refused(*SIDECAR_DAMAGES[damage], tmp_path, capsys)


@pytest.mark.parametrize("damage", list(INDEX_DAMAGES))
def test_damaged_index_exits_one_naming_the_file(damage, tmp_path, capsys):
    _refused(*INDEX_DAMAGES[damage], tmp_path, capsys)


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
            # an integer id reads as its decimal string
            {"id": 3, "timestamp": utc(2011, 6, 3), "user": "u3", "text": "#World"},
        ],
    )
    index = ingest_jsonl(path)
    assert len(index) == 3
    assert [(t.id, t.timestamp) for t in index.tweets][1:] == [
        ("g2", utc(2011, 6, 2, 10)), ("3", utc(2011, 6, 3))]


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


def test_ingest_counts_a_record_with_a_number_retweet_of_as_malformed(tmp_path):
    path = tmp_path / "c.jsonl"
    bad = {**good_record(2, utc(2011, 6, 2)), "retweet_of": 5}
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
        ingest_jsonl(path2, max_malformed_fraction=0.05)


@pytest.mark.parametrize("seed", range(3))
def test_ingest_builds_the_index_of_the_tweets_its_records_hold(seed, tmp_path):
    """Records appended straight to the columns give the index that `Tweet`
    objects of the same records give, whatever the line order, and every
    bad line is skipped."""
    tweets = random_corpus(seed)
    rng = np.random.default_rng(seed)
    lines = []
    for k in rng.permutation(len(tweets)).tolist():
        record = tweets[k].to_record()
        if tuple(extract_mentions(record["text"])) == tweets[k].mentions and k % 2:
            del record["mentions"]  # derived from the text
        lines.append(json.dumps(record))
    bad = [
        "junk",
        json.dumps({**json.loads(lines[0]), "id": "fresh"}) + " {}",  # data after the record
        "[1, 2]",
        json.dumps({**json.loads(lines[1]), "text": 5}),
        json.dumps({**json.loads(lines[2]), "timestamp": 100000000000000}),
        lines[3],  # a duplicate id
        # ids that are neither strings nor integers; two nulls are not a duplicate
        *(json.dumps({**json.loads(lines[k]), "id": i})
          for k, i in ((4, None), (5, None), (6, True), (7, [1]))),
    ]
    for k, line in enumerate(bad):
        lines.insert(7 * k + 5, line)
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(lines) + "\n")
    index = ingest_jsonl(path)
    assert index.skipped == len(bad)
    built = CorpusIndex(tweets, skipped=len(bad))
    assert index_view(index) | query_view(index, seed) == index_view(built) | query_view(built, seed)
    index.save(tmp_path / "ingested.json")
    built.save(tmp_path / "built.json")
    assert (tmp_path / "ingested.json").read_bytes() == (tmp_path / "built.json").read_bytes()


def test_index_file_keeps_non_ascii_text_and_lone_surrogates(tmp_path):
    """A JSON string may hold any code point, a lone surrogate included."""
    path = tmp_path / "c.jsonl"
    path.write_text(
        '{"id": "\\u00e9t", "timestamp": 1300000000, "user": "\\ud800",'
        ' "text": "caf\\u00e9 #Tag \\ud83d\\ude00 @B\\u00f6b \\udc80 #\\u00b2nd #\\u216b",'
        ' "mentions": ["B\\u00f6b"]}\n',
        encoding="ascii")
    index = ingest_jsonl(path)
    index.save(tmp_path / "index.json")
    loaded = CorpusIndex.load(tmp_path / "index.json")
    assert index_view(loaded) == index_view(index)
    [tweet] = loaded.tweets
    assert (tweet.id, tweet.user_id, tweet.mentions) == ("\u00e9t", "\ud800", ("b\u00f6b",))
    assert tweet.text == "caf\u00e9 #Tag \U0001f600 @B\u00f6b \udc80 #\u00b2nd #\u216b"
    assert loaded.hashtags() == ["tag"]  # '²' and 'Ⅻ' do not start a hashtag


def test_ingest_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        ingest_jsonl(tmp_path / "absent.jsonl")
