"""Tweet corpus ingestion and the immutable hashtag timeline index.

The index is built once from a JSONL corpus and answers every time-sliced
query the rest of the pipeline needs: first appearance of a hashtag, monthly
and windowed usage counts, the tweets a hashtag occurs in, and unigram
background counts of the token stream before an instant. It holds no state
that a query changes, so queries may come in any order and one index may be
shared. Every window query takes the open interval (lo, hi): a tweet at
either bound is outside it. The index keeps its tweets as columns and names
each by its position in (timestamp, id) order. A window is read as the
positions of its tweets, and their token ids, users, mentions and plain
words come from the columns; only `tweets`, which lists every tweet, builds
`Tweet` objects. `ingest_jsonl` checks each JSONL record and appends it to
the columns, and `CorpusIndex(tweets)` collects the same columns from
`Tweet` objects; either way the hashtags and tokens are read from the texts.

`CorpusIndex.save` writes the index as one binary file, whatever its name
(`tagmerge-index` version 2): an uncompressed zip of one `.npy` array per
column, laid out in `_MEMBERS`. `CorpusIndex.load` reads the columns back
as whole arrays and checks them as such, with no per-record parse; a
damaged file is refused, never repaired. The corpus JSONL stays the
human-readable record.
"""

from __future__ import annotations

import calendar
import json
import logging
import math
import re
import string
import zipfile
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import accumulate, chain
from typing import Iterable, Sequence

import numpy as np

from .errors import CorpusFormatError

logger = logging.getLogger(__name__)

HASHTAG_RE = re.compile(r"#([^\W\d]\w*)")
MENTION_RE = re.compile(r"@(\w+)")

_PUNCT = string.punctuation

INDEX_FORMAT = "tagmerge-index"
INDEX_VERSION = 2

# the string columns of an index file: member NAME holds the strings as one
# UTF-8 blob, and member NAME_offsets the int64 offsets, one more than there
# are strings, at which each starts. "ids" and "texts" hold one string per
# tweet; the others are tables that the id columns below point into
_STRINGS = ("ids", "texts", "users", "retweets", "mentions", "tags", "vocabulary")
_U8, _I32, _I64 = np.dtype(np.uint8), np.dtype(np.int32), np.dtype(np.int64)
# every member of an index file, each a one-dimensional array of this dtype;
# tweets are in (timestamp, id) order, and the ids of tweet k in a column X_ids
# split by X_offsets are X_ids[X_offsets[k]:X_offsets[k + 1]]
_MEMBERS = {
    "format": _U8, "version": _I64,  # the UTF-8 bytes of INDEX_FORMAT, [INDEX_VERSION]
    "skipped": _I64,  # [malformed lines that ingestion skipped]
    "timestamps": _I64,
    **{name: _U8 for name in _STRINGS}, **{f"{name}_offsets": _I64 for name in _STRINGS},
    # one per tweet: into "users", and into "retweets" or -1 for no retweet
    "user_ids": _I32, "retweet_ids": _I32,
    # into "mentions", "tags" (one per hashtag spelling) and "vocabulary"
    "mention_ids": _I32, "mention_offsets": _I64, "tag_ids": _I32, "tag_offsets": _I64,
    "token_ids": _I32, "token_offsets": _I64,
    "tagged": _I32,  # positions in "token_ids" of the tokens from a '#' or '@' word
}
# the members with one entry per tweet, or one more (offsets)
_PER_TWEET = {"user_ids": 0, "retweet_ids": 0, "ids_offsets": 1, "texts_offsets": 1,
              "mention_offsets": 1, "tag_offsets": 1, "token_offsets": 1}

# the last second of 9998 UTC: month arithmetic past a tweet (coverage end,
# label horizons) must stay inside the years `datetime` can hold
_MAX_TIMESTAMP = int(datetime(9999, 1, 1, tzinfo=timezone.utc).timestamp()) - 1


# ---------------------------------------------------------------------------
# calendar helpers

def month_of(ts: int) -> str:
    """UTC month key ("YYYY-MM") of an epoch-second timestamp."""
    dt = datetime.fromtimestamp(ts, tz=timezone.utc)
    return f"{dt.year:04d}-{dt.month:02d}"


def month_start(month: str) -> int:
    """Epoch second at which the given "YYYY-MM" month begins (UTC)."""
    year, mon = _split_month(month)
    return int(datetime(year, mon, 1, tzinfo=timezone.utc).timestamp())


def next_month(month: str) -> str:
    year, mon = _split_month(month)
    if mon == 12:
        return f"{year + 1:04d}-01"
    return f"{year:04d}-{mon + 1:02d}"


def month_range(first: str, last: str) -> list[str]:
    """Inclusive list of month keys from `first` through `last`."""
    if _month_index(first) > _month_index(last):
        raise ValueError(f"month range reversed: {first} > {last}")
    out = [first]
    while out[-1] != last:
        out.append(next_month(out[-1]))
    return out


def shift_months(ts: int, n: int) -> int:
    """Shift a timestamp by `n` calendar months, clamping the day of month.

    The time of day is preserved; Jan 31 shifted by one month lands on the
    last day of February.
    """
    dt = datetime.fromtimestamp(ts, tz=timezone.utc)
    total = dt.year * 12 + (dt.month - 1) + n
    year, mon = divmod(total, 12)
    mon += 1
    day = min(dt.day, calendar.monthrange(year, mon)[1])
    shifted = dt.replace(year=year, month=mon, day=day)
    return int(shifted.timestamp())


def observation_window(t0: int, obs_months: int = 6) -> tuple[int, int]:
    """Open interval (t0 - obs_months, t0) used for pre-compounding reads.

    Both bounds are exclusive so nothing at or after the compounding instant
    can leak into features.
    """
    if obs_months <= 0:
        raise ValueError(f"obs_months must be positive, got {obs_months}")
    return shift_months(t0, -obs_months), t0


def _split_month(month: str) -> tuple[int, int]:
    try:
        year_s, mon_s = month.split("-")
        year, mon = int(year_s), int(mon_s)
    except ValueError as exc:
        raise ValueError(f"bad month key {month!r}, expected YYYY-MM") from exc
    if not 1 <= mon <= 12:
        raise ValueError(f"bad month key {month!r}")
    return year, mon


def _month_index(month: str) -> int:
    year, mon = _split_month(month)
    return year * 12 + mon - 1


# ---------------------------------------------------------------------------
# hashtag and mention extraction

@dataclass(frozen=True, slots=True)
class HashtagId:
    """A hashtag with its lowercase identity and first-observed casing."""

    canonical: str
    display: str

    def __post_init__(self):
        if not self.canonical:
            raise ValueError("empty hashtag")
        if self.canonical != self.display.lower():
            raise ValueError(f"canonical {self.canonical!r} is not lowercased {self.display!r}")
        if "#" in self.canonical:
            raise ValueError("hashtag must not contain the '#' sigil")

    @classmethod
    def from_display(cls, display: str) -> "HashtagId":
        return cls(canonical=display.lower(), display=display)


def hashtag_spellings(text: str) -> list[str]:
    """The hashtags of a text, in order, as spelled, without the '#'.

    A hashtag is '#' followed by a maximal run of Unicode word characters
    starting with a letter or underscore; '#café' reads as 'café', and
    '#9pm', '#²nd' and '#Ⅻ' yield nothing. This is the one hashtag rule:
    the index and the synthetic plants both read it.
    """
    found = HASHTAG_RE.findall(text)
    # HASHTAG_RE also admits a leading number that is not a decimal digit
    # ('²', 'Ⅻ'), which no ASCII text holds
    if text.isascii():
        return found
    return [tag for tag in found if tag[0].isalpha() or tag[0] == "_"]


def extract_mentions(text: str) -> list[str]:
    return [m.lower() for m in MENTION_RE.findall(text)]


@dataclass(frozen=True, slots=True)
class Tweet:
    """One tweet: the fields of a JSONL record. Mentions derive from the text
    when absent; hashtags are always read from it (`hashtag_spellings`)."""

    id: str
    timestamp: int
    user_id: str
    text: str
    retweet_of: str | None = None
    mentions: tuple[str, ...] | None = None

    def __post_init__(self):
        mentions = _check_tweet(
            self.id, self.timestamp, self.user_id, self.text, self.retweet_of, self.mentions
        )
        object.__setattr__(self, "mentions", mentions)

    def to_record(self) -> dict:
        return {
            "id": self.id,
            "timestamp": self.timestamp,
            "user": self.user_id,
            "text": self.text,
            "retweet_of": self.retweet_of,
            "mentions": list(self.mentions),
        }


def _check_tweet(tweet_id, timestamp, user_id, text, retweet_of, mentions) -> tuple[str, ...]:
    """Check the fields of one tweet and return its lowercased mentions.

    `mentions` None derives them from the text. A field of the wrong type or
    value raises TypeError or ValueError naming the tweet.
    """
    if not (isinstance(tweet_id, str) and isinstance(user_id, str) and isinstance(text, str)):
        raise TypeError(f"tweet {tweet_id!r}: id, user and text must be strings")
    if not tweet_id:
        raise ValueError("tweet id must be non-empty")
    # window bounds are whole seconds; `end + 1` arithmetic assumes integers
    if isinstance(timestamp, bool) or not isinstance(timestamp, int):
        raise ValueError(f"tweet {tweet_id}: timestamp must be an integer")
    if timestamp <= 0:
        raise ValueError(f"tweet {tweet_id}: timestamp must be strictly positive")
    if timestamp > _MAX_TIMESTAMP:
        raise ValueError(f"tweet {tweet_id}: timestamp {timestamp} is after {_MAX_TIMESTAMP}")
    if retweet_of is not None and not isinstance(retweet_of, str):
        raise TypeError(f"tweet {tweet_id}: retweet_of must be a string or null")
    if mentions is None:
        return tuple(extract_mentions(text))
    if isinstance(mentions, (list, tuple)):
        try:
            return tuple(map(str.lower, mentions))
        except TypeError:
            pass
    raise TypeError(f"tweet {tweet_id}: mentions must be a list of strings")


class CorpusIndex:
    """Immutable derived view of a tweet corpus.

    The index holds its tweets sorted by (timestamp, id) as the columns of
    its file (`_MEMBERS`), and derives from them one run of tweet positions
    and timestamps per canonical hashtag. A tweet is named by its position
    in that order. Window reads (`positions_between`, then `token_ids`,
    `plain_words` and `audience`) come from the columns; only `tweets`
    builds `Tweet` objects and decodes the texts.

    Every derived quantity is a pure function of the ordering, so identical
    inputs serialize to identical bytes. Nothing is assigned after
    construction: every query is a pure read, answers the same in any call
    order, and is safe on a shared index. Window queries
    (`positions_between`, `count_between`) exclude both bounds.
    """

    def __init__(self, tweets: Iterable[Tweet], skipped: int = 0):
        """The index of these tweets, built from the columns that
        `ingest_jsonl` collects from the same records."""
        tweets = tuple(tweets)
        fields = ("id", "timestamp", "user_id", "text", "retweet_of", "mentions")
        columns = tuple([getattr(t, name) for t in tweets] for name in fields)
        _check_unique(columns[0])
        self._set(*_encode(_sorted(columns), skipped))

    def _set(self, members: dict, strings: dict) -> None:
        """Set every attribute from the members of the index file (less its
        format and version) and its string columns but the texts, decoded."""
        self._members = members
        self.skipped = int(members["skipped"][0])
        self._ids = strings["ids"]
        self._users, self._retweets, self._mentions = (
            strings["users"], strings["retweets"], strings["mentions"])
        self._tag_table = tuple(map(HashtagId.from_display, strings["tags"]))
        self._vocab = tuple(strings["vocabulary"])
        self._word_index = {w: i for i, w in enumerate(self._vocab)}
        self._timestamps, self._tagged = members["timestamps"], members["tagged"]
        self._token_ids, self._token_offsets = members["token_ids"], members["token_offsets"]

        # runs in sorted name order; a run lists, once each, the positions of
        # the tweets that use the hashtag, so it is in time order too
        names = sorted({h.canonical for h in self._tag_table})
        self._canonicals = {name: k for k, name in enumerate(names)}
        displays: dict[str, str] = {}
        for h in self._tag_table:  # in order of first use
            displays.setdefault(h.canonical, h.display)
        self._displays = [displays[name] for name in names]
        n = max(len(self._ids), 1)
        run_of_tag = np.array([self._canonicals[h.canonical] for h in self._tag_table],
                              dtype=np.int64)
        run_of_use = run_of_tag[members["tag_ids"]]
        position_of_use = np.repeat(np.arange(len(self._ids), dtype=np.int64),
                                    np.diff(members["tag_offsets"]))
        uses = np.sort(run_of_use * n + position_of_use)
        # a tweet that spells one hashtag twice uses it once
        runs, positions_in_runs = np.divmod(uses[np.diff(uses, prepend=-1) != 0], n)
        self._run_starts = np.searchsorted(runs, np.arange(len(names) + 1)).tolist()
        self._run_positions = array("q", positions_in_runs.tobytes())
        self._run_times = self._timestamps[positions_in_runs].tolist()

        if self._ids:
            first, last = month_of(int(self._timestamps[0])), month_of(int(self._timestamps[-1]))
            self.months: tuple[str, ...] = tuple(month_range(first, last))
        else:
            self.months = ()

    # -- basic access -------------------------------------------------------

    @property
    def tweets(self) -> tuple[Tweet, ...]:
        """Every tweet in (timestamp, id) order, built anew on each read."""
        m = self._members
        return tuple(
            Tweet(id=i, timestamp=ts, user_id=u, text=x, retweet_of=r, mentions=ms)
            for i, ts, u, x, r, ms in zip(
                self._ids, self._timestamps.tolist(),
                map(self._users.__getitem__, m["user_ids"].tolist()),
                _strings(m["texts"], m["texts_offsets"]),
                (None if k < 0 else self._retweets[k] for k in m["retweet_ids"].tolist()),
                _runs(self._mentions, m["mention_ids"], m["mention_offsets"]),
            )
        )

    def __len__(self) -> int:
        return len(self._ids)

    def token_ids(self, positions: Sequence[int]) -> tuple[list[int], list[int], np.ndarray]:
        """The vocabulary ids of the tokens of the tweets at these positions,
        in order; the bounds of each tweet's run of them: the tweet at
        positions[k] has ids[bounds[k]:bounds[k + 1]]; and, as an int32
        array, the ids of those tokens that did not come from a '#' or '@'
        word, in order.

        A text's tokens are its whitespace-split words, edge punctuation
        stripped and lowercased, dropping any left empty.
        """
        stream, bounds = _stream(self._token_offsets, positions)
        ids = plain = self._token_ids[stream]
        tagged = self._tagged
        if len(tagged):
            nearest = tagged[np.minimum(np.searchsorted(tagged, stream), len(tagged) - 1)]
            plain = ids[nearest != stream]
        return ids.tolist(), bounds.tolist(), plain

    def plain_words(self, positions: Sequence[int]) -> tuple[str, ...]:
        """The tokens of the tweets at these positions, in order, as words,
        without those that came from a '#' or '@' word."""
        return tuple(map(self._vocab.__getitem__, self.token_ids(positions)[2].tolist()))

    def audience(self, positions: Sequence[int]) -> tuple[set[str], set[str], set[str]]:
        """The distinct users, mentioned ids and retweet tweet ids of the
        tweets at these positions; a retweet is named by its own id."""
        m = self._members
        positions = np.asarray(positions, dtype=np.int64)
        users = set(map(self._users.__getitem__, m["user_ids"][positions].tolist()))
        mentioned = m["mention_ids"][_stream(m["mention_offsets"], positions)[0]]
        mentions = set(map(self._mentions.__getitem__, mentioned.tolist()))
        retweeted = positions[m["retweet_ids"][positions] >= 0]
        return users, mentions, set(map(self._ids.__getitem__, retweeted.tolist()))

    def hashtags(self) -> list[str]:
        return list(self._canonicals)

    def has(self, canonical: str) -> bool:
        return canonical in self._canonicals

    def hashtag_id(self, canonical: str) -> HashtagId:
        return HashtagId(canonical=canonical, display=self._displays[self._run(canonical)])

    def first_seen(self, canonical: str) -> int:
        return self._run_times[self._run_starts[self._run(canonical)]]

    def _run(self, canonical: str) -> int:
        try:
            return self._canonicals[canonical]
        except KeyError:
            raise KeyError(f"hashtag {canonical!r} not in corpus") from None

    # -- coverage -----------------------------------------------------------

    @property
    def coverage_start(self) -> int:
        """Start of the first month spanned by the corpus."""
        if not self.months:
            raise ValueError("empty corpus has no coverage")
        return month_start(self.months[0])

    @property
    def coverage_end(self) -> int:
        """First instant after the last month spanned by the corpus.

        Coverage is month-granular: observing any tweet in a month counts
        the whole month as covered.
        """
        if not self.months:
            raise ValueError("empty corpus has no coverage")
        return month_start(next_month(self.months[-1]))

    # -- frequency queries --------------------------------------------------

    def monthly_frequency(self, canonical: str, month: str) -> int:
        """Distinct tweets containing the hashtag in a calendar month."""
        return self.count_between(canonical, month_start(month) - 1, month_start(next_month(month)))

    def positions_between(self, canonical: str, lo: int, hi: int) -> array:
        """Positions of the tweets containing the hashtag with lo < timestamp < hi, ascending."""
        i, j = self._window(canonical, lo, hi)
        return self._run_positions[i:j]

    def count_between(self, canonical: str, lo: int, hi: int) -> int:
        """Distinct tweets containing the hashtag with lo < timestamp < hi."""
        i, j = self._window(canonical, lo, hi)
        return j - i

    def _window(self, canonical: str, lo: int, hi: int) -> tuple[int, int]:
        """The slice of the hashtag's run with lo < timestamp < hi, empty when hi <= lo."""
        k = self._run(canonical)
        start, end = self._run_starts[k], self._run_starts[k + 1]
        i = bisect_right(self._run_times, lo, start, end)
        return i, max(i, bisect_left(self._run_times, hi, start, end))

    # -- background statistics ---------------------------------------------

    @property
    def vocabulary(self) -> tuple[str, ...]:
        return self._vocab

    def word_index(self, word: str) -> int | None:
        return self._word_index.get(word)

    def background_before(self, ts: int) -> tuple[np.ndarray, int]:
        """Token counts (aligned with `vocabulary`) over tweets strictly before `ts`."""
        end = int(self._token_offsets[np.searchsorted(self._timestamps, ts)])
        return np.bincount(self._token_ids[:end], minlength=len(self._vocab)), end

    # -- serialization ------------------------------------------------------

    def save(self, path) -> None:
        """Write the index to `path` as one binary `tagmerge-index` version 2
        file: an uncompressed zip of one `.npy` member per entry of `_MEMBERS`."""
        members = {"format": np.frombuffer(INDEX_FORMAT.encode("utf-8"), dtype=np.uint8),
                   "version": [INDEX_VERSION], **self._members}
        with zipfile.ZipFile(path, "w") as zf:
            for name, dtype in _MEMBERS.items():
                # a fixed member date keeps the bytes identical from run to run
                info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
                with zf.open(info, "w") as fh:
                    values = np.asarray(members[name], dtype=dtype)
                    np.lib.format.write_array(fh, values, allow_pickle=False)

    @classmethod
    def load(cls, path) -> "CorpusIndex":
        """Read the index file that `save` wrote at `path`, checked as whole
        arrays (`_check_members`); a damaged file, or one of another format or
        version, raises CorpusFormatError naming it. Texts stay bytes until
        `tweets` reads them."""
        index = cls.__new__(cls)
        try:
            members = _read_members(path)
            index._set(members, _check_members(members))
        # a damaged zip or member raises any of these
        except (ValueError, EOFError, RuntimeError, zipfile.BadZipFile) as exc:
            raise CorpusFormatError(f"{path}: {exc}") from exc
        return index


def _encode(columns, skipped: int):
    """`CorpusIndex._set`'s arguments for checked, unique record columns
    (ids, timestamps, users, texts, retweet targets, mentions) in (timestamp,
    id) order; the hashtags and the token stream are read from the texts."""
    ids, stamps, users, texts, retweets, mentions = columns
    spellings = list(map(hashtag_spellings, texts))
    tag_table, tag_ids = _table_ids(list(chain.from_iterable(spellings)))
    user_table, user_ids = _table_ids(users)
    retweet_table, retweet_ids = _table_ids(retweets)
    mention_table, mention_ids = _table_ids(list(chain.from_iterable(mentions)))
    vocab, token_ids, token_offsets, tagged = _tokenize(texts)
    strings = {"ids": ids, "users": user_table, "retweets": retweet_table,
               "mentions": mention_table, "tags": tag_table, "vocabulary": vocab}
    members = {"skipped": [skipped], "timestamps": stamps, "user_ids": user_ids,
               "retweet_ids": retweet_ids, "mention_ids": mention_ids,
               "mention_offsets": _offsets(map(len, mentions)), "tag_ids": tag_ids,
               "tag_offsets": _offsets(map(len, spellings)), "token_ids": token_ids,
               "token_offsets": token_offsets, "tagged": tagged}
    for name, values in (*strings.items(), ("texts", texts)):
        members[name], members[f"{name}_offsets"] = _string_column(values)
    members = {name: np.asarray(values, dtype=_MEMBERS[name]) for name, values in members.items()}
    return members, strings


def _read_members(path) -> dict[str, np.ndarray]:
    """Every member of the index file at `path` but its format and version,
    each of its `_MEMBERS` dtype and one-dimensional; ValueError if the file
    is not a `tagmerge-index` file of this version."""
    try:
        zf = zipfile.ZipFile(path)
    except zipfile.BadZipFile as exc:
        with open(path, "rb") as fh:
            if fh.read(1) == b"{":
                raise ValueError(
                    f"a JSON file, as {INDEX_FORMAT} version 1 was; re-run `tagmerge ingest` "
                    f"to write version {INDEX_VERSION}") from exc
        raise ValueError(f"not a {INDEX_FORMAT} file: {exc}") from exc

    def read(name):
        try:
            with zf.open(f"{name}.npy") as fh:
                values = np.lib.format.read_array(fh, allow_pickle=False)
        except KeyError:
            raise ValueError(f"no member {name!r}") from None
        if values.dtype != _MEMBERS[name] or values.ndim != 1:
            raise ValueError(f"member {name!r} is not a 1-d {_MEMBERS[name]} array")
        return values

    with zf:
        if read("format").tobytes() != INDEX_FORMAT.encode("utf-8"):
            raise ValueError(f"not a {INDEX_FORMAT} file")
        version = read("version").tolist()
        if version != [INDEX_VERSION]:
            raise ValueError(f"unsupported {INDEX_FORMAT} version {version}")
        return {name: read(name) for name in _MEMBERS if name not in ("format", "version")}


def _check_members(m: dict) -> dict[str, list[str]]:
    """Check the members of an index file as whole arrays, and return its
    string columns but the texts, decoded; ValueError names the first fault.

    String blobs are UTF-8 (lone surrogates allowed), and offsets split their
    streams at character starts, per tweet where they are per tweet. Ids are non-empty and unique, timestamps lie in (0,
    _MAX_TIMESTAMP], and the tweets are in (timestamp, id) order. Ids point
    into their tables, each of which lists each string once in order of
    first use (the vocabulary: sorted); mentions are lowercase.
    """
    n = len(m["timestamps"])
    if len(m["skipped"]) != 1 or m["skipped"][0] < 0:
        raise ValueError("member 'skipped' does not hold one count")
    for name, extra in _PER_TWEET.items():
        if len(m[name]) != n + extra:
            raise ValueError(f"{name} do not fit the {n} tweets")
    for name in _STRINGS:
        blob, offsets = m[name], m[f"{name}_offsets"]
        _check_offsets(f"{name}_offsets", offsets, len(blob))
        if ((blob[offsets[offsets < len(blob)]] & 0xC0) == 0x80).any():
            raise ValueError(f"{name}_offsets split a character")
    for name in ("mention", "tag", "token"):
        _check_offsets(f"{name}_offsets", m[f"{name}_offsets"], len(m[f"{name}_ids"]))
    strings = {name: _strings(m[name], m[f"{name}_offsets"])
               for name in _STRINGS if name != "texts"}
    m["texts"].tobytes().decode("utf-8", "surrogatepass")  # UnicodeDecodeError unless UTF-8

    ids, stamps = strings["ids"], m["timestamps"]
    if (np.diff(m["ids_offsets"]) == 0).any():
        raise ValueError("tweet id must be non-empty")
    bad = np.flatnonzero((stamps <= 0) | (stamps > _MAX_TIMESTAMP)).tolist()
    if bad:
        k = bad[0]
        raise ValueError(f"tweet {ids[k]}: timestamp {stamps[k]} is not in (0, {_MAX_TIMESTAMP}]")
    _check_unique(ids)
    steps = np.diff(stamps)
    late = [k for k in np.flatnonzero(steps <= 0).tolist() if steps[k] < 0 or ids[k] > ids[k + 1]]
    if late:
        raise ValueError(f"tweet {ids[late[0] + 1]} is out of (timestamp, id) order")

    retweet_ids = m["retweet_ids"]
    _check_ids("retweet_ids", retweet_ids, len(strings["retweets"]), low=-1)  # -1: no retweet
    for name, table_ids in (("users", m["user_ids"]), ("retweets", retweet_ids[retweet_ids >= 0]),
                            ("mentions", m["mention_ids"]), ("tags", m["tag_ids"])):
        _check_table(name, strings[name], table_ids)
    if any(mention != mention.lower() for mention in strings["mentions"]):
        raise ValueError("a mention is not lowercase")
    vocab = strings["vocabulary"]
    if not all(map(str.__lt__, vocab, vocab[1:])):
        raise ValueError("the vocabulary is not sorted and distinct")
    _check_ids("token_ids", m["token_ids"], len(vocab))
    _check_ids("tagged", m["tagged"], len(m["token_ids"]))
    if (np.diff(m["tagged"]) <= 0).any():
        raise ValueError("tag positions are not increasing")
    return strings


def _sorted(columns: tuple) -> tuple:
    """Checked column lists (ids, timestamps, users, texts, retweet targets,
    mentions) in (timestamp, id) order."""
    ids, stamps, *_ = columns
    steps = np.diff(np.array(stamps, dtype=np.int64))
    ties = np.flatnonzero(steps == 0).tolist()
    if (steps >= 0).all() and all(ids[k] < ids[k + 1] for k in ties):
        return columns
    keys = list(zip(stamps, ids))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return tuple([column[k] for k in order] for column in columns)


def _check_unique(ids: list[str]) -> None:
    """ValueError naming the first id given twice, if any is."""
    if len(set(ids)) != len(ids):
        seen: set[str] = set()
        for tweet_id in ids:
            if tweet_id in seen:
                raise ValueError(f"duplicate tweet id {tweet_id!r}")
            seen.add(tweet_id)


def _table_ids(values: list) -> tuple[list, np.ndarray]:
    """Each distinct value but None once, in order of first use, and the id
    of every value in that table; None has -1."""
    table = dict.fromkeys(values)
    table.pop(None, None)
    ids = {value: k for k, value in enumerate(table)}
    ids[None] = -1
    return list(table), np.fromiter(map(ids.__getitem__, values), dtype=np.int32, count=len(values))


def _offsets(counts: Iterable[int]) -> np.ndarray:
    """The running sum of `counts`, from 0: one more entry than there are counts."""
    return np.fromiter(accumulate(counts, initial=0), dtype=np.int64)


def _tokenize(texts: Iterable[str]) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, np.ndarray]:
    """The vocabulary and token stream of the texts.

    A text's tokens are its whitespace-split words, edge punctuation
    stripped and lowercased, dropping any left empty. Returns the sorted
    vocabulary; every token's vocabulary id in text order; the offsets, one
    more than there are texts, at which each text's tokens start; and the
    positions, in that stream, of the tokens that came from a '#' or '@'
    word.
    """
    # raw word -> (first-seen id of its token or -1 when it has none, tagged)
    seen: dict[str, tuple[int, bool]] = {}
    first_ids: dict[str, int] = {}
    ids = array("i")
    offsets = array("q", [0])
    tagged = array("i")
    for text in texts:
        for raw in text.split():
            hit = seen.get(raw)
            if hit is None:
                word = raw.strip(_PUNCT).lower()
                wid = first_ids.setdefault(word, len(first_ids)) if word else -1
                hit = seen[raw] = (wid, raw[0] in "#@")
            wid, is_tag = hit
            if wid >= 0:
                if is_tag:
                    tagged.append(len(ids))
                ids.append(wid)
        offsets.append(len(ids))
    vocab = tuple(sorted(first_ids))
    rank = np.empty(len(vocab), dtype=np.int32)
    rank[[first_ids[w] for w in vocab]] = np.arange(len(vocab), dtype=np.int32)
    return (vocab, rank[np.asarray(ids, dtype=np.intp)], np.asarray(offsets, dtype=np.int64),
            np.asarray(tagged, dtype=np.int32))


def _stream(offsets: np.ndarray, positions: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Where in a per-tweet stream split by `offsets` the entries of the
    tweets at these positions lie, in order, and the bounds of each tweet's
    run in that list."""
    positions = np.asarray(positions, dtype=np.int64)
    starts = offsets[positions]
    lengths = offsets[positions + 1] - starts
    bounds = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    return np.arange(bounds[-1]) + np.repeat(starts - bounds[:-1], lengths), bounds


def _runs(table: Sequence, ids: np.ndarray, offsets: np.ndarray) -> list[tuple]:
    """Each tweet's run of `ids`, split by `offsets`, as a tuple of table entries."""
    values, bounds = list(map(table.__getitem__, ids.tolist())), offsets.tolist()
    return [tuple(values[i:j]) for i, j in zip(bounds, bounds[1:])]


def _string_column(strings: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The strings as one UTF-8 blob and the offsets at which each starts.

    Lone surrogates, which a JSON string may hold, are kept as they are.
    """
    encoded = [s.encode("utf-8", "surrogatepass") for s in strings]
    return np.frombuffer(b"".join(encoded), dtype=np.uint8), _offsets(map(len, encoded))


def _strings(blob: np.ndarray, offsets: np.ndarray) -> list[str]:
    """The strings of a column that `_string_column` wrote."""
    data, bounds = blob.tobytes(), offsets.tolist()
    return [data[i:j].decode("utf-8", "surrogatepass") for i, j in zip(bounds, bounds[1:])]


def _check_offsets(name: str, offsets: np.ndarray, total: int) -> None:
    if len(offsets) == 0 or offsets[0] != 0 or offsets[-1] != total or (np.diff(offsets) < 0).any():
        raise ValueError(f"{name} do not split {total} entries")


def _check_ids(name: str, ids: np.ndarray, bound: int, low: int = 0) -> None:
    if len(ids) and (ids.min() < low or ids.max() >= bound):
        raise ValueError(f"{name} out of range [{low}, {bound})")


def _check_table(name: str, table: list[str], ids: np.ndarray) -> None:
    """ValueError unless `ids` point into `table`, which lists each string
    once, in order of first use in `ids`, and no string that `ids` leave unused."""
    _check_ids(f"ids into {name}", ids, len(table))
    # in order of first use, each id is at most one above every id before it
    highest = np.maximum.accumulate(np.concatenate(([-1], ids)))
    if (len(set(table)) != len(table) or (ids > highest[:-1] + 1).any()
            or highest[-1] + 1 != len(table)):
        raise ValueError(f"the {name} table does not list each string once, in order of first use")


def _parse_timestamp(value) -> int:
    if isinstance(value, bool):
        raise ValueError("timestamp must be a number or ISO-8601 string")
    if isinstance(value, (int, float)):
        if not math.isfinite(value):
            raise ValueError(f"timestamp {value!r} is not finite")
        ts = int(value)
    elif isinstance(value, str):
        text = value.replace("Z", "+00:00")
        dt = datetime.fromisoformat(text)
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        ts = int(dt.timestamp())
    else:
        raise ValueError("timestamp must be a number or ISO-8601 string")
    if not 0 < ts <= _MAX_TIMESTAMP:
        raise ValueError(f"timestamp {value!r} is not in (0, {_MAX_TIMESTAMP}]")
    return ts


def ingest_jsonl(path, max_malformed_fraction: float = 0.5) -> CorpusIndex:
    """Build a CorpusIndex from a JSONL file of tweet records.

    Each record is checked as `Tweet` checks its fields and appended to the
    index's columns; an integer id (not a boolean) is read as its decimal
    string. Malformed lines (bad JSON, missing fields, an id that is neither
    a string nor an integer, bad timestamps, duplicate ids) are skipped and
    counted; a larger share of malformed lines than `max_malformed_fraction`
    is fatal. An unreadable file raises OSError.
    """
    columns = ids, stamps, users, texts, retweets, mentions = [], [], [], [], [], []
    seen_ids: set[str] = set()
    malformed = 0
    total = 0
    # a stripped line holds one JSON value and nothing after it
    decode = json.JSONDecoder().raw_decode
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            total += 1
            try:
                record, end = decode(line)
                if end != len(line):
                    raise ValueError(f"data after the record at column {end + 1}")
                if not isinstance(record, dict):
                    raise ValueError("record is not an object")
                for key in ("id", "timestamp", "user", "text"):
                    if key not in record:
                        raise ValueError(f"missing field {key!r}")
                tweet_id = record["id"]
                if isinstance(tweet_id, int) and not isinstance(tweet_id, bool):
                    tweet_id = str(tweet_id)  # a numeric id; any other non-string is malformed
                timestamp = _parse_timestamp(record["timestamp"])
                user_id, text, retweet_of = record["user"], record["text"], record.get("retweet_of")
                tweet_mentions = _check_tweet(
                    tweet_id, timestamp, user_id, text, retweet_of, record.get("mentions")
                )
                if tweet_id in seen_ids:
                    raise ValueError(f"duplicate tweet id {tweet_id!r}")
            except (ValueError, TypeError) as exc:
                malformed += 1
                logger.debug("skipping line %d of %s: %s", line_no, path, exc)
                continue
            seen_ids.add(tweet_id)
            ids.append(tweet_id)
            stamps.append(timestamp)
            users.append(user_id)
            texts.append(text)
            retweets.append(retweet_of)
            mentions.append(tweet_mentions)
    if total and malformed > max_malformed_fraction * total:
        raise CorpusFormatError(
            f"{path}: {malformed} of {total} lines malformed, refusing to build an index"
        )
    if malformed:
        logger.info("ingested %s: %d tweets, %d malformed lines skipped", path, len(ids), malformed)
    index = CorpusIndex.__new__(CorpusIndex)
    index._set(*_encode(_sorted(columns), malformed))
    return index
