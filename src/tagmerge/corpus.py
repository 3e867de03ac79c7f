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
the columns.

`CorpusIndex.save` writes the index as JSON, the interchange format, and
then a binary `.npz` sidecar next to it (`index.json` -> `index.npz`) that
holds what is costly to derive from the JSON: each tweet's hashtags and the
tokenized text. `CorpusIndex.load` reads the sidecar only when it was
written for the exact JSON bytes it finds; otherwise it rebuilds the index
from the JSON alone, so a missing, stale or damaged sidecar never changes
the index.
"""

from __future__ import annotations

import calendar
import hashlib
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

from .errors import CorpusFormatError, decode_json

logger = logging.getLogger(__name__)

HASHTAG_RE = re.compile(r"#([A-Za-z_][A-Za-z0-9_]*)")
MENTION_RE = re.compile(r"@([A-Za-z0-9_]+)")

_PUNCT = string.punctuation

INDEX_FORMAT = "tagmerge-index"
INDEX_VERSION = 1

SIDECAR_VERSION = 1
# every member of the sidecar, each a one-dimensional array of this dtype;
# "tags" and "vocabulary" are UTF-8 strings, each ended by a newline, which
# neither a hashtag nor a whitespace-split token can contain
_SIDECAR_DTYPES = {
    "version": np.dtype(np.int64),
    "sha256": np.dtype(np.uint8),
    "tags": np.dtype(np.uint8),
    "tag_ids": np.dtype(np.int32),
    "tag_offsets": np.dtype(np.int64),
    "vocabulary": np.dtype(np.uint8),
    "token_ids": np.dtype(np.int32),
    "token_offsets": np.dtype(np.int64),
    "tagged": np.dtype(np.int32),
}


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


def extract_hashtags(text: str) -> list[HashtagId]:
    """All hashtags in a text, in order, original casing preserved.

    A hashtag is '#' followed by a maximal run of word characters starting
    with a letter or underscore; '#9pm' therefore yields nothing.
    """
    return [HashtagId.from_display(m) for m in HASHTAG_RE.findall(text)]


def extract_mentions(text: str) -> list[str]:
    return [m.lower() for m in MENTION_RE.findall(text)]


@dataclass(frozen=True, slots=True)
class Tweet:
    """One tweet. Hashtags and mentions derive from the text when absent."""

    id: str
    timestamp: int
    user_id: str
    text: str
    retweet_of: str | None = None
    mentions: tuple[str, ...] | None = None
    hashtags: tuple[HashtagId, ...] | None = None

    def __post_init__(self):
        mentions = _check_tweet(
            self.id, self.timestamp, self.user_id, self.text, self.retweet_of, self.mentions
        )
        object.__setattr__(self, "mentions", mentions)
        if self.hashtags is None:
            object.__setattr__(self, "hashtags", tuple(extract_hashtags(self.text)))

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

    The index holds its tweets sorted by (timestamp, id), as columns: an
    int64 timestamp array; lists of ids, users, texts, retweet targets and
    lowercased mentions; the table of distinct hashtag spellings in order of
    first use, with each tweet's tag ids (the sidecar's layout); one run of
    tweet positions and timestamps per canonical hashtag; and the token
    stream. A tweet is named by its position in that order. Window reads
    (`positions_between`, then `token_ids`, `plain_words` and `audience`)
    come from the columns; only `tweets` builds `Tweet` objects.

    Every derived quantity is a pure function of the ordering, so identical
    inputs serialize to identical bytes. Nothing is assigned after
    construction: every query is a pure read, answers the same in any call
    order, and is safe on a shared index. Window queries
    (`positions_between`, `count_between`) exclude both bounds.
    """

    def __init__(self, tweets: Iterable[Tweet], skipped: int = 0):
        ordered = sorted(tweets, key=lambda t: (t.timestamp, t.id))
        ids = [t.id for t in ordered]
        _check_unique(ids)
        texts = [t.text for t in ordered]
        columns = (
            ids,
            array("q", [t.timestamp for t in ordered]),
            [t.user_id for t in ordered],
            texts,
            [t.retweet_of for t in ordered],
            [t.mentions for t in ordered],
        )
        tags = _tag_columns(
            [h.display for t in ordered for h in t.hashtags], [len(t.hashtags) for t in ordered]
        )
        self._build(columns, skipped, tags, _tokenize(texts))

    @classmethod
    def _from_texts(cls, columns, skipped: int) -> "CorpusIndex":
        """The index of checked, unique columns in (timestamp, id) order,
        with hashtags and tokens derived from the texts."""
        texts = columns[3]
        found = list(map(HASHTAG_RE.findall, texts))
        tags = _tag_columns(list(chain.from_iterable(found)), map(len, found))
        index = cls.__new__(cls)
        index._build(columns, skipped, tags, _tokenize(texts))
        return index

    def _build(self, columns, skipped: int, tags, tokens) -> None:
        """Set every attribute from checked columns in (timestamp, id) order.

        `tags` is `_tag_columns`' result and `tokens` is `_tokenize`'s.
        """
        (self._ids, self._timestamps, self._users, self._texts, self._retweets,
         self._mentions) = columns
        self.skipped = skipped
        self._tag_table, self._tag_ids, self._tag_offsets = tags

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
        run_of_use = run_of_tag[np.frombuffer(self._tag_ids, dtype=np.int32)]
        tag_counts = np.diff(np.frombuffer(self._tag_offsets, dtype=np.int64))
        position_of_use = np.repeat(np.arange(len(self._ids), dtype=np.int64), tag_counts)
        uses = np.sort(run_of_use * n + position_of_use)
        # a tweet that spells one hashtag twice uses it once
        runs, positions_in_runs = np.divmod(uses[np.diff(uses, prepend=-1) != 0], n)
        self._run_starts = np.searchsorted(runs, np.arange(len(names) + 1)).tolist()
        self._run_positions = array("q", positions_in_runs.tobytes())
        timestamps = np.frombuffer(self._timestamps, dtype=np.int64)
        self._run_times = timestamps[positions_in_runs].tolist()

        if self._ids:
            first, last = month_of(self._timestamps[0]), month_of(self._timestamps[-1])
            self.months: tuple[str, ...] = tuple(month_range(first, last))
        else:
            self.months = ()

        # all token ids in tweet order, _token_offsets[k] counting the tokens
        # before tweet k, and the positions of those from a '#' or '@' word
        self._vocab, self._token_ids, self._token_offsets, self._tagged = tokens
        self._word_index = {w: i for i, w in enumerate(self._vocab)}

    # -- basic access -------------------------------------------------------

    @property
    def tweets(self) -> tuple[Tweet, ...]:
        """Every tweet in (timestamp, id) order, built anew on each read."""
        table, tag_ids, tag_offsets = self._tag_table, self._tag_ids, self._tag_offsets
        return tuple(
            Tweet(
                id=self._ids[p],
                timestamp=self._timestamps[p],
                user_id=self._users[p],
                text=self._texts[p],
                retweet_of=self._retweets[p],
                mentions=self._mentions[p],
                hashtags=tuple(map(table.__getitem__, tag_ids[tag_offsets[p]:tag_offsets[p + 1]])),
            )
            for p in range(len(self._ids))
        )

    def __len__(self) -> int:
        return len(self._ids)

    def token_ids(self, positions: Sequence[int]) -> tuple[list[int], list[int]]:
        """The vocabulary ids of the tokens of the tweets at these positions,
        in order, and the bounds of each tweet's run of them: the tweet at
        positions[k] has ids[bounds[k]:bounds[k + 1]].

        A text's tokens are its whitespace-split words, edge punctuation
        stripped and lowercased, dropping any left empty.
        """
        stream, bounds = self._token_stream(positions)
        return np.frombuffer(self._token_ids, dtype=np.int32)[stream].tolist(), bounds.tolist()

    def plain_words(self, positions: Sequence[int]) -> tuple[str, ...]:
        """The tokens of the tweets at these positions, in order, as words,
        without those that came from a '#' or '@' word."""
        stream, _ = self._token_stream(positions)
        tagged = np.frombuffer(self._tagged, dtype=np.int32)
        if len(tagged):
            nearest = tagged[np.minimum(np.searchsorted(tagged, stream), len(tagged) - 1)]
            stream = stream[nearest != stream]
        ids = np.frombuffer(self._token_ids, dtype=np.int32)[stream].tolist()
        return tuple(map(self._vocab.__getitem__, ids))

    def _token_stream(self, positions: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Where in the token stream the tokens of the tweets at these positions
        lie, in order, and the bounds of each tweet's run in that list."""
        offsets = np.frombuffer(self._token_offsets, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        starts = offsets[positions]
        lengths = offsets[positions + 1] - starts
        bounds = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=bounds[1:])
        return np.arange(bounds[-1]) + np.repeat(starts - bounds[:-1], lengths), bounds

    def audience(self, positions: Iterable[int]) -> tuple[set[str], set[str], set[str]]:
        """The distinct users, mentioned ids and retweet tweet ids of the
        tweets at these positions; a retweet is named by its own id."""
        positions = list(positions)
        users = set(map(self._users.__getitem__, positions))
        mentions = set(chain.from_iterable(map(self._mentions.__getitem__, positions)))
        retweets = {self._ids[p] for p in positions if self._retweets[p] is not None}
        return users, mentions, retweets

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
        end = self._token_offsets[bisect_left(self._timestamps, ts)]
        token_ids = np.frombuffer(self._token_ids, dtype=np.int32, count=end)
        return np.bincount(token_ids, minlength=len(self._vocab)), end

    # -- serialization ------------------------------------------------------

    def to_payload(self) -> dict:
        fields = (self._ids, self._timestamps.tolist(), self._users, self._texts, self._retweets,
                  self._mentions)
        return {
            "format": INDEX_FORMAT,
            "version": INDEX_VERSION,
            "skipped": self.skipped,
            # version 1 of the format carries a count of filtered tweets; ingestion filters none
            "filtered": 0,
            "tweets": [
                {"id": i, "timestamp": ts, "user": u, "text": x, "retweet_of": r,
                 "mentions": list(m)}
                for i, ts, u, x, r, m in zip(*fields)
            ],
        }

    def save(self, path) -> None:
        """Write the index as JSON to `path`, then its sidecar (see `_sidecar_path`)."""
        # one expression: the records are freed before the encode, and the
        # text, the largest object `ingest` makes, before the sidecar
        data = json.dumps(
            self.to_payload(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8") + b"\n"
        with open(path, "wb") as fh:
            fh.write(data)
        self._save_sidecar(_sidecar_path(path), hashlib.sha256(data).digest())

    def _save_sidecar(self, path, digest: bytes) -> None:
        """Write the sidecar for the JSON bytes whose SHA-256 is `digest`."""
        members = {
            "version": [SIDECAR_VERSION],
            "sha256": np.frombuffer(digest, dtype=np.uint8),
            "tags": _string_blob(h.display for h in self._tag_table),
            "tag_ids": self._tag_ids,
            "tag_offsets": self._tag_offsets,
            "vocabulary": _string_blob(self._vocab),
            "token_ids": self._token_ids,
            "token_offsets": self._token_offsets,
            "tagged": self._tagged,
        }
        with zipfile.ZipFile(path, "w") as zf:
            for name, dtype in _SIDECAR_DTYPES.items():
                # a fixed member date keeps the bytes identical from run to run
                info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
                with zf.open(info, "w") as fh:
                    values = np.asarray(members[name], dtype=dtype)
                    np.lib.format.write_array(fh, values, allow_pickle=False)

    @classmethod
    def load(cls, path) -> "CorpusIndex":
        """Read the index saved at `path`, with its sidecar when one fits the JSON.

        Every record is checked as `Tweet` checks its fields; a bad one
        raises CorpusFormatError naming the file.
        """
        with open(path, "rb") as fh:
            data = fh.read()
        sidecar = _read_sidecar(_sidecar_path(path), hashlib.sha256(data).digest())
        columns, skipped, in_order = decode_json(
            path, data, _decode_index, INDEX_FORMAT, INDEX_VERSION
        )
        n = len(columns[0])
        # the sidecar follows the stored record order, and has one more tag offset than tweets
        if sidecar is not None and not (in_order and len(sidecar[0][2]) == n + 1):
            logger.warning("ignoring an index sidecar that does not fit the %d tweets of %s",
                           n, path)
            sidecar = None
        if sidecar is None:
            return cls._from_texts(columns, skipped)
        index = cls.__new__(cls)
        index._build(columns, skipped, *sidecar)
        return index


def _decode_index(payload: dict) -> tuple[tuple, int, bool]:
    """The columns of an index payload and its skipped count.

    Every record is checked as `Tweet` checks its fields. The columns are in
    (timestamp, id) order; the last item says whether the records were
    stored in it.
    """
    columns = ids, stamps, users, texts, retweets, mentions = [], [], [], [], [], []
    for rec in payload["tweets"]:
        tweet_id, timestamp, user_id, text = rec["id"], rec["timestamp"], rec["user"], rec["text"]
        retweet_of, listed = rec.get("retweet_of"), rec.get("mentions")
        mentions.append(_check_tweet(
            tweet_id, timestamp, user_id, text, retweet_of, () if listed is None else listed
        ))
        ids.append(tweet_id)
        stamps.append(timestamp)
        users.append(user_id)
        texts.append(text)
        retweets.append(retweet_of)
    columns, in_order = _sorted(columns)
    _check_unique(columns[0])
    return columns, payload.get("skipped", 0), in_order


def _sorted(columns: tuple) -> tuple[tuple, bool]:
    """Checked column lists (ids, timestamps, users, texts, retweet targets,
    mentions) in (timestamp, id) order, the timestamps as an int64 array,
    and whether they were in that order."""
    ids, stamps, *rest = columns
    steps = np.diff(np.array(stamps, dtype=np.int64))
    ties = np.flatnonzero(steps == 0).tolist()
    in_order = bool((steps >= 0).all()) and all(ids[k] < ids[k + 1] for k in ties)
    if not in_order:
        keys = list(zip(stamps, ids))
        order = sorted(range(len(keys)), key=keys.__getitem__)
        ids, stamps, *rest = ([column[k] for k in order] for column in columns)
    return (ids, array("q", stamps), *rest), in_order


def _check_unique(ids: list[str]) -> None:
    """ValueError naming the first id given twice, if any is."""
    if len(set(ids)) != len(ids):
        seen: set[str] = set()
        for tweet_id in ids:
            if tweet_id in seen:
                raise ValueError(f"duplicate tweet id {tweet_id!r}")
            seen.add(tweet_id)


def _tag_columns(spellings: list[str], counts: Iterable[int]) -> tuple[tuple, array, array]:
    """The tag table and tag ids of every hashtag spelling of the tweets, in order.

    `counts` gives each tweet's number of spellings. The table holds each
    distinct spelling once, in order of first use; the ids of tweet k are
    tag_ids[tag_offsets[k]:tag_offsets[k + 1]].
    """
    table = {s: k for k, s in enumerate(dict.fromkeys(spellings))}
    tag_ids = array("i", map(table.__getitem__, spellings))
    offsets = array("q", accumulate(counts, initial=0))
    return tuple(map(HashtagId.from_display, table)), tag_ids, offsets


def _tokenize(texts: Iterable[str]) -> tuple[tuple[str, ...], array, array, array]:
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
    return vocab, array("i", rank[np.asarray(ids, dtype=np.intp)].tobytes()), offsets, tagged


def _sidecar_path(index_path) -> str:
    """Path of the sidecar of the index JSON at `index_path`: `index.json` -> `index.npz`."""
    return str(index_path).removesuffix(".json") + ".npz"


def _string_blob(strings: Iterable[str]) -> np.ndarray:
    return np.frombuffer("".join(s + "\n" for s in strings).encode("utf-8"), dtype=np.uint8)


def _read_sidecar(path, digest: bytes):
    """(`_tag_columns` result, `_tokenize` result) from the sidecar at `path`.

    None when the file is missing, unreadable or damaged, of another layout
    version, or written for other JSON bytes than those whose SHA-256 is
    `digest`; the index is then built from its JSON alone.
    """
    arrays = {}
    try:
        with zipfile.ZipFile(path) as zf:
            for name, dtype in _SIDECAR_DTYPES.items():
                with zf.open(f"{name}.npy") as fh:
                    arrays[name] = np.lib.format.read_array(fh, allow_pickle=False)
                if arrays[name].dtype != dtype or arrays[name].ndim != 1:
                    raise ValueError(f"member {name!r} is not a 1-d {dtype} array")
        if arrays["version"].tolist() != [SIDECAR_VERSION]:
            raise ValueError(f"layout version {arrays['version'].tolist()}, not {SIDECAR_VERSION}")
        if arrays["sha256"].tobytes() != digest:
            logger.info("ignoring stale index sidecar %s", path)
            return None
        return _sidecar_contents(arrays)
    except FileNotFoundError:
        return None
    # a damaged zip or member raises any of these
    except (OSError, EOFError, KeyError, RuntimeError, ValueError, zipfile.BadZipFile) as exc:
        logger.warning("ignoring damaged index sidecar %s: %s", path, exc)
        return None


def _sidecar_contents(arrays: dict) -> tuple[tuple, tuple]:
    """Decode and check the sidecar's arrays; ValueError if they do not fit together."""
    table = tuple(map(HashtagId.from_display, _blob_strings(arrays["tags"])))
    vocab = tuple(_blob_strings(arrays["vocabulary"]))
    tag_ids, tag_offsets = arrays["tag_ids"], arrays["tag_offsets"]
    token_ids, token_offsets, tagged = arrays["token_ids"], arrays["token_offsets"], arrays["tagged"]
    _check_offsets("tag_offsets", tag_offsets, len(tag_ids))
    _check_offsets("token_offsets", token_offsets, len(token_ids))
    if len(tag_offsets) != len(token_offsets):
        raise ValueError("tag and token offsets count different tweets")
    _check_ids("tag_ids", tag_ids, len(table))
    _check_ids("token_ids", token_ids, len(vocab))
    _check_ids("tagged", tagged, len(token_ids))
    if (np.diff(tagged) <= 0).any():
        raise ValueError("tag positions are not increasing")
    # the index takes a hashtag's display from the first table entry that spells it;
    # in order of first use, each id is at most one above every id before it
    highest = np.maximum.accumulate(np.concatenate(([-1], tag_ids)))
    if (len(set(table)) != len(table) or (tag_ids > highest[:-1] + 1).any()
            or highest[-1] + 1 != len(table)):
        raise ValueError("the tag table does not list each spelling once, in order of first use")
    tags = (table, array("i", tag_ids.tobytes()), array("q", tag_offsets.tobytes()))
    tokens = (vocab, array("i", token_ids.tobytes()), array("q", token_offsets.tobytes()),
              array("i", tagged.tobytes()))
    return tags, tokens


def _blob_strings(blob: np.ndarray) -> list[str]:
    text = blob.tobytes().decode("utf-8")
    if text and not text.endswith("\n"):
        raise ValueError("a string table does not end with a newline")
    return text.split("\n")[:-1]


def _check_offsets(name: str, offsets: np.ndarray, total: int) -> None:
    if len(offsets) == 0 or offsets[0] != 0 or offsets[-1] != total or (np.diff(offsets) < 0).any():
        raise ValueError(f"{name} do not split {total} entries")


def _check_ids(name: str, ids: np.ndarray, bound: int) -> None:
    if len(ids) and (ids.min() < 0 or ids.max() >= bound):
        raise ValueError(f"{name} out of range [0, {bound})")



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
    index's columns. Malformed lines (bad JSON, missing fields, bad
    timestamps, duplicate ids) are skipped and counted; a larger share of
    malformed lines than `max_malformed_fraction` is fatal. An unreadable
    file raises OSError.
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
                tweet_id = str(record["id"])
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
    return CorpusIndex._from_texts(_sorted(columns)[0], malformed)
