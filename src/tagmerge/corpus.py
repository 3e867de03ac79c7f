"""Tweet corpus ingestion and the immutable hashtag timeline index.

The index is built once from a JSONL corpus and answers every time-sliced
query the rest of the pipeline needs: first appearance of a hashtag, monthly
and windowed usage counts, the tweets a hashtag occurs in, and unigram
background counts of the token stream before an instant. It holds no state
that a query changes, so queries may come in any order and one index may be
shared. Every window query takes the open interval (lo, hi): a tweet at
either bound is outside it.
"""

from __future__ import annotations

import calendar
import json
import logging
import math
import re
import string
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import CorpusFormatError, read_json

logger = logging.getLogger(__name__)

HASHTAG_RE = re.compile(r"#([A-Za-z_][A-Za-z0-9_]*)")
MENTION_RE = re.compile(r"@([A-Za-z0-9_]+)")

_PUNCT = string.punctuation

INDEX_FORMAT = "tagmerge-index"
INDEX_VERSION = 1


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
# tokenization and extraction

def tokenize(text: str, keep_tags: bool = True, keep_mentions: bool = True) -> list[str]:
    """Whitespace tokenization with edge punctuation stripped and lowercasing.

    Pure-punctuation tokens vanish. The '#' and '@' sigils are stripped, so
    hashtag and mention words stay in the stream unless the corresponding
    keep flag is False.
    """
    out = []
    for raw in text.split():
        if not keep_tags and raw.startswith("#"):
            continue
        if not keep_mentions and raw.startswith("@"):
            continue
        word = raw.strip(_PUNCT).lower()
        if word:
            out.append(word)
    return out


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
    hashtags: tuple[HashtagId, ...] = field(init=False)

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

    def __init__(self, tweets: Sequence[Tweet], skipped: int = 0, filtered: int = 0):
        ordered = sorted(tweets, key=lambda t: (t.timestamp, t.id))
        seen_ids: set[str] = set()
        for t in ordered:
            if t.id in seen_ids:
                raise ValueError(f"duplicate tweet id {t.id!r}")
            seen_ids.add(t.id)
        self._tweets: tuple[Tweet, ...] = tuple(ordered)
        self._by_id = {t.id: i for i, t in enumerate(self._tweets)}
        self.skipped = skipped
        self.filtered = filtered

        # each tweet's tokens as `tokenize` gives them, and the positions, in
        # the flat token stream, of those that came from a '#' or '@' token
        self._tokens: list[list[str]] = []
        tagged = array("i")
        n_tokens = 0
        for tweet in self._tweets:
            tokens = []
            for raw in tweet.text.split():
                word = raw.strip(_PUNCT).lower()
                if word:
                    if raw[0] in "#@":
                        tagged.append(n_tokens + len(tokens))
                    tokens.append(word)
            self._tokens.append(tokens)
            n_tokens += len(tokens)
        self._tagged = tagged

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

        words = set(chain.from_iterable(self._tokens))
        self._vocab: tuple[str, ...] = tuple(sorted(words))
        self._word_index = {w: i for i, w in enumerate(self._vocab)}
        # all token ids in tweet order; _token_offsets[k] counts the tokens before tweet k
        self._token_offsets = np.cumsum([0] + [len(toks) for toks in self._tokens])
        self._token_ids = np.fromiter(
            map(self._word_index.__getitem__, chain.from_iterable(self._tokens)),
            dtype=np.int32,
            count=int(self._token_offsets[-1]),
        )

    # -- basic access -------------------------------------------------------

    @property
    def tweets(self) -> tuple[Tweet, ...]:
        return self._tweets

    def __len__(self) -> int:
        return len(self._tweets)

    def tweet(self, tweet_id: str) -> Tweet:
        return self._tweets[self._by_id[tweet_id]]

    def tokens_of(self, tweet: Tweet) -> list[str]:
        return self._tokens[self._by_id[tweet.id]]

    def plain_tokens_of(self, tweet: Tweet) -> list[str]:
        """`tokenize(tweet.text, keep_tags=False, keep_mentions=False)`, from the index."""
        k = self._by_id[tweet.id]
        start, end = self._token_offsets[k : k + 2].tolist()
        tagged = self._tagged[bisect_left(self._tagged, start) : bisect_left(self._tagged, end)]
        return [tok for pos, tok in enumerate(self._tokens[k], start) if pos not in tagged]

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
        end = int(self._token_offsets[bisect_left(self._tweets, ts, key=lambda t: t.timestamp)])
        return np.bincount(self._token_ids[:end], minlength=len(self._vocab)), end

    # -- serialization ------------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "format": INDEX_FORMAT,
            "version": INDEX_VERSION,
            "skipped": self.skipped,
            "filtered": self.filtered,
            "tweets": [t.to_record() for t in self._tweets],
        }

    def save(self, path) -> None:
        payload = json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":"))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "CorpusIndex":
        tweets, skipped, filtered = read_json(path, _decode_index, INDEX_FORMAT, INDEX_VERSION)
        return cls(tweets, skipped=skipped, filtered=filtered)


def _decode_index(payload: dict) -> tuple[list[Tweet], int, int]:
    tweets = [
        Tweet(
            id=rec["id"],
            timestamp=rec["timestamp"],
            user_id=rec["user"],
            text=rec["text"],
            retweet_of=rec.get("retweet_of"),
            mentions=tuple(rec.get("mentions") or ()),
        )
        for rec in payload["tweets"]
    ]
    return tweets, payload.get("skipped", 0), payload.get("filtered", 0)


@dataclass(frozen=True)
class IngestConfig:
    """Options for JSONL ingestion.

    `tweet_filter` is a hook for predicates like language identification;
    tweets it rejects are excluded without counting as malformed.
    """

    tweet_filter: Callable[[Tweet], bool] | None = None
    max_malformed_fraction: float = 0.5


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


def ingest_jsonl(path, config: IngestConfig | None = None) -> CorpusIndex:
    """Build a CorpusIndex from a JSONL file of tweet records.

    Malformed lines (bad JSON, missing fields, bad timestamps, duplicate
    ids) are skipped and counted; more than half malformed is fatal. An
    unreadable file raises OSError.
    """
    config = config or IngestConfig()
    tweets: list[Tweet] = []
    seen_ids: set[str] = set()
    malformed = 0
    filtered = 0
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
            if config.tweet_filter is not None and not config.tweet_filter(tweet):
                filtered += 1
                continue
            tweets.append(tweet)
    if total and malformed > config.max_malformed_fraction * total:
        raise CorpusFormatError(
            f"{path}: {malformed} of {total} lines malformed, refusing to build an index"
        )
    if malformed:
        logger.info("ingested %s: %d tweets, %d malformed lines skipped", path, len(tweets), malformed)
    return CorpusIndex(tweets, skipped=malformed, filtered=filtered)
