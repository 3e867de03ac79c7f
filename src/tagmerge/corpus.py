"""Tweet corpus ingestion and the immutable hashtag timeline index.

The index is built once from a JSONL corpus and answers every time-sliced
query the rest of the pipeline needs: first appearance of a hashtag, monthly
and windowed usage counts, the tweets a hashtag occurs in, and unigram
background counts of the token stream before an instant. It holds no state
that a query changes, so queries may come in any order and one index may be
shared. Every window query takes the open interval (lo, hi): a tweet at
either bound is outside it.

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
from itertools import repeat
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
        if not (isinstance(self.id, str) and isinstance(self.user_id, str)
                and isinstance(self.text, str)):
            raise TypeError(f"tweet {self.id!r}: id, user and text must be strings")
        if not self.id:
            raise ValueError("tweet id must be non-empty")
        # window bounds are whole seconds; `end + 1` arithmetic assumes integers
        if isinstance(self.timestamp, bool) or not isinstance(self.timestamp, int):
            raise ValueError(f"tweet {self.id}: timestamp must be an integer")
        if self.timestamp <= 0:
            raise ValueError(f"tweet {self.id}: timestamp must be strictly positive")
        if self.hashtags is None:
            object.__setattr__(self, "hashtags", tuple(extract_hashtags(self.text)))
        if self.mentions is None:
            object.__setattr__(self, "mentions", tuple(extract_mentions(self.text)))
        else:
            try:
                mentions = tuple(map(str.lower, self.mentions))
            except TypeError:
                raise TypeError(f"tweet {self.id}: mentions must be strings") from None
            object.__setattr__(self, "mentions", mentions)

    @property
    def hashtag_canonicals(self) -> tuple[str, ...]:
        seen: list[str] = []
        for h in self.hashtags:
            if h.canonical not in seen:
                seen.append(h.canonical)
        return tuple(seen)

    def to_record(self) -> dict:
        return {
            "id": self.id,
            "timestamp": self.timestamp,
            "user": self.user_id,
            "text": self.text,
            "retweet_of": self.retweet_of,
            "mentions": list(self.mentions),
        }


class _TagEntry:
    __slots__ = ("display", "first_seen", "positions", "ts_list")

    def __init__(self, display: str, first_seen: int):
        self.display = display
        self.first_seen = first_seen
        self.positions: list[int] = []
        self.ts_list: list[int] = []


class CorpusIndex:
    """Immutable derived view of a tweet corpus.

    Tweets are held sorted by (timestamp, id); every derived quantity is a
    pure function of that ordering, so identical inputs serialize to
    identical bytes. Nothing is assigned after construction: every query is
    a pure read, answers the same in any call order, and is safe on a shared
    index. Window queries (`tweets_between`, `count_between`) exclude both
    bounds.
    """

    def __init__(self, tweets: Sequence[Tweet], skipped: int = 0, tokens: tuple | None = None):
        """Index `tweets`; `tokens` is what `_tokenize` returns for them, derived when absent."""
        ordered = sorted(tweets, key=lambda t: (t.timestamp, t.id))
        self._tweets: tuple[Tweet, ...] = tuple(ordered)
        self._by_id = {t.id: i for i, t in enumerate(self._tweets)}
        if len(self._by_id) != len(self._tweets):
            raise ValueError("duplicate tweet ids")
        self.skipped = skipped

        self._tags: dict[str, _TagEntry] = {}
        for pos, tweet in enumerate(self._tweets):
            seen_here: set[str] = set()
            for hid in tweet.hashtags:
                canon = hid.canonical
                if canon in seen_here:
                    continue
                seen_here.add(canon)
                entry = self._tags.get(canon)
                if entry is None:
                    entry = _TagEntry(hid.display, tweet.timestamp)
                    self._tags[canon] = entry
                entry.positions.append(pos)
                entry.ts_list.append(tweet.timestamp)

        if self._tweets:
            first = month_of(self._tweets[0].timestamp)
            last = month_of(self._tweets[-1].timestamp)
            self.months: tuple[str, ...] = tuple(month_range(first, last))
        else:
            self.months = ()

        if tokens is None:
            tokens = _tokenize(self._tweets)
        # all token ids in tweet order, _token_offsets[k] counting the tokens
        # before tweet k, and the positions of those from a '#' or '@' word
        self._vocab, self._token_ids, self._token_offsets, self._tagged = tokens
        self._word_index = {w: i for i, w in enumerate(self._vocab)}
        self._words = list(map(self._vocab.__getitem__, self._token_ids.tolist()))

    # -- basic access -------------------------------------------------------

    @property
    def tweets(self) -> tuple[Tweet, ...]:
        return self._tweets

    def __len__(self) -> int:
        return len(self._tweets)

    def tweet(self, tweet_id: str) -> Tweet:
        return self._tweets[self._by_id[tweet_id]]

    def tokens_of(self, tweet: Tweet) -> list[str]:
        """The tweet's whitespace-split words, edge punctuation stripped and
        lowercased, dropping any left empty."""
        start, end = self._token_span(tweet)
        return self._words[start:end]

    def plain_tokens_of(self, tweet: Tweet) -> list[str]:
        """`tokens_of(tweet)` without those that came from a '#' or '@' word."""
        start, end = self._token_span(tweet)
        tagged = self._tagged[bisect_left(self._tagged, start) : bisect_left(self._tagged, end)]
        return [tok for pos, tok in enumerate(self._words[start:end], start) if pos not in tagged]

    def _token_span(self, tweet: Tweet) -> tuple[int, int]:
        k = self._by_id[tweet.id]
        return self._token_offsets[k], self._token_offsets[k + 1]

    def hashtags(self) -> list[str]:
        return sorted(self._tags)

    def has(self, canonical: str) -> bool:
        return canonical in self._tags

    def hashtag_id(self, canonical: str) -> HashtagId:
        entry = self._entry(canonical)
        return HashtagId(canonical=canonical, display=entry.display)

    def first_seen(self, canonical: str) -> int:
        return self._entry(canonical).first_seen

    def _entry(self, canonical: str) -> _TagEntry:
        try:
            return self._tags[canonical]
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

    def tweets_between(self, canonical: str, lo: int, hi: int) -> list[Tweet]:
        """Tweets containing the hashtag with lo < timestamp < hi, ordered by (time, id)."""
        entry = self._entry(canonical)
        i = bisect_right(entry.ts_list, lo)
        j = bisect_left(entry.ts_list, hi)
        return [self._tweets[p] for p in entry.positions[i:j]]

    def count_between(self, canonical: str, lo: int, hi: int) -> int:
        """Distinct tweets containing the hashtag with lo < timestamp < hi."""
        entry = self._entry(canonical)
        return bisect_left(entry.ts_list, hi) - bisect_right(entry.ts_list, lo)

    # -- background statistics ---------------------------------------------

    @property
    def vocabulary(self) -> tuple[str, ...]:
        return self._vocab

    def word_index(self, word: str) -> int | None:
        return self._word_index.get(word)

    def background_before(self, ts: int) -> tuple[np.ndarray, int]:
        """Token counts (aligned with `vocabulary`) over tweets strictly before `ts`."""
        end = self._token_offsets[bisect_left(self._tweets, ts, key=lambda t: t.timestamp)]
        return np.bincount(self._token_ids[:end], minlength=len(self._vocab)), end

    # -- serialization ------------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "format": INDEX_FORMAT,
            "version": INDEX_VERSION,
            "skipped": self.skipped,
            # version 1 of the format carries a count of filtered tweets; ingestion filters none
            "filtered": 0,
            "tweets": [t.to_record() for t in self._tweets],
        }

    def save(self, path) -> None:
        """Write the index as JSON to `path`, then its sidecar (see `_sidecar_path`)."""
        payload = json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":"))
        data = (payload + "\n").encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(data)
        self._save_sidecar(_sidecar_path(path), hashlib.sha256(data).digest())

    def _save_sidecar(self, path, digest: bytes) -> None:
        """Write the sidecar for the JSON bytes whose SHA-256 is `digest`."""
        tags: dict[str, int] = {}
        tag_ids = [tags.setdefault(h.display, len(tags)) for t in self._tweets for h in t.hashtags]
        members = {
            "version": [SIDECAR_VERSION],
            "sha256": np.frombuffer(digest, dtype=np.uint8),
            "tags": _string_blob(tags),
            "tag_ids": tag_ids,
            "tag_offsets": np.cumsum([0] + [len(t.hashtags) for t in self._tweets]),
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
        with open(path, "rb") as fh:
            data = fh.read()
        sidecar = _read_sidecar(_sidecar_path(path), hashlib.sha256(data).digest())
        tweets, skipped, tokens = decode_json(
            path, data, lambda payload: _decode_index(payload, sidecar), INDEX_FORMAT, INDEX_VERSION
        )
        return cls(tweets, skipped=skipped, tokens=tokens)


def _tokenize(tweets: Sequence[Tweet]) -> tuple[tuple[str, ...], np.ndarray, array, array]:
    """The vocabulary and token stream of the tweets' texts.

    A tweet's tokens are its whitespace-split words, edge punctuation
    stripped and lowercased, dropping any left empty. Returns the sorted
    vocabulary; every token's vocabulary id in tweet order (an int32 numpy
    array); the offsets, one more than there are tweets, at which each
    tweet's tokens start; and the positions, in that stream, of the tokens
    that came from a '#' or '@' word.
    """
    # raw word -> (first-seen id of its token or -1 when it has none, tagged)
    seen: dict[str, tuple[int, bool]] = {}
    first_ids: dict[str, int] = {}
    ids = array("i")
    offsets = array("q", [0])
    tagged = array("i")
    for tweet in tweets:
        for raw in tweet.text.split():
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
    return vocab, rank[np.asarray(ids, dtype=np.intp)], offsets, tagged


def _decode_index(payload: dict, sidecar) -> tuple[list[Tweet], int, tuple | None]:
    """Tweets, the skipped count, and tokens (None without a sidecar).

    `sidecar` is `_read_sidecar`'s result for the payload's bytes, and gives
    each tweet's hashtags and the `_tokenize` result.
    """
    records = payload["tweets"]
    if sidecar is not None and len(sidecar[0]) != len(records):
        logger.warning("ignoring an index sidecar for %d tweets, not %d", len(sidecar[0]), len(records))
        sidecar = None
    hashtags, tokens = sidecar if sidecar is not None else (repeat(None), None)
    tweets = [
        Tweet(
            id=rec["id"],
            timestamp=rec["timestamp"],
            user_id=rec["user"],
            text=rec["text"],
            retweet_of=rec.get("retweet_of"),
            mentions=tuple(rec.get("mentions") or ()),
            hashtags=tags,
        )
        for rec, tags in zip(records, hashtags)
    ]
    seen_ids: set[str] = set()
    for t in tweets:
        if t.id in seen_ids:
            raise ValueError(f"duplicate tweet id {t.id!r}")
        seen_ids.add(t.id)
    return tweets, payload.get("skipped", 0), tokens


def _sidecar_path(index_path) -> str:
    """Path of the sidecar of the index JSON at `index_path`: `index.json` -> `index.npz`."""
    return str(index_path).removesuffix(".json") + ".npz"


def _string_blob(strings: Iterable[str]) -> np.ndarray:
    return np.frombuffer("".join(s + "\n" for s in strings).encode("utf-8"), dtype=np.uint8)


def _read_sidecar(path, digest: bytes):
    """(per-tweet hashtags, `_tokenize` result) from the sidecar at `path`.

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


def _sidecar_contents(arrays: dict) -> tuple[list[tuple[HashtagId, ...]], tuple]:
    """Decode and check the sidecar's arrays; ValueError if they do not fit together."""
    table = [HashtagId.from_display(d) for d in _blob_strings(arrays["tags"])]
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
    ids, starts = tag_ids.tolist(), tag_offsets.tolist()
    hashtags = [tuple(map(table.__getitem__, ids[a:b])) for a, b in zip(starts, starts[1:])]
    tokens = (vocab, token_ids, array("q", token_offsets.tobytes()), array("i", tagged.tobytes()))
    return hashtags, tokens


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


# the last second of 9998 UTC: month arithmetic past a tweet (coverage end,
# label horizons) must stay inside the years `datetime` can hold
_MAX_TIMESTAMP = int(datetime(9999, 1, 1, tzinfo=timezone.utc).timestamp()) - 1


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


def _tweet_from_record(record: dict) -> Tweet:
    for key in ("id", "timestamp", "user", "text"):
        if key not in record:
            raise ValueError(f"missing field {key!r}")
    mentions = record.get("mentions")
    if mentions is not None and not isinstance(mentions, list):
        raise ValueError("mentions must be a list")
    if not isinstance(record["text"], str) or not isinstance(record["user"], str):
        raise ValueError("user and text must be strings")
    return Tweet(
        id=str(record["id"]),
        timestamp=_parse_timestamp(record["timestamp"]),
        user_id=record["user"],
        text=record["text"],
        retweet_of=record.get("retweet_of"),
        mentions=tuple(mentions) if mentions is not None else None,
    )


def ingest_jsonl(path, max_malformed_fraction: float = 0.5) -> CorpusIndex:
    """Build a CorpusIndex from a JSONL file of tweet records.

    Malformed lines (bad JSON, missing fields, bad timestamps, duplicate
    ids) are skipped and counted; a larger share of malformed lines than
    `max_malformed_fraction` is fatal. An unreadable file raises OSError.
    """
    tweets: list[Tweet] = []
    seen_ids: set[str] = set()
    malformed = 0
    total = 0
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            total += 1
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("record is not an object")
                tweet = _tweet_from_record(record)
                if tweet.id in seen_ids:
                    raise ValueError(f"duplicate tweet id {tweet.id!r}")
            except (ValueError, TypeError) as exc:
                malformed += 1
                logger.debug("skipping line %d of %s: %s", line_no, path, exc)
                continue
            seen_ids.add(tweet.id)
            tweets.append(tweet)
    if total and malformed > max_malformed_fraction * total:
        raise CorpusFormatError(
            f"{path}: {malformed} of {total} lines malformed, refusing to build an index"
        )
    if malformed:
        logger.info("ingested %s: %d tweets, %d malformed lines skipped", path, len(tweets), malformed)
    return CorpusIndex(tweets, skipped=malformed)
