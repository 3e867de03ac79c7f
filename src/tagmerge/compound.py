"""Hashtag compound detection, popularity labeling, and segmentation.

A compound #AB is a hashtag whose canonical form splits into two hashtags
that both existed strictly before it. Detection demands exactly one such
split; ambiguous concatenations are rejected rather than guessed at.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .corpus import CorpusIndex, HashtagId, observation_window, shift_months
from .errors import CorpusFormatError, InsufficientHistoryError, read_tsv
from .lexicon import Dictionary

MIN_COMPOUND_LENGTH = 6
SUPPORTED_HORIZONS = (2, 6, 10)
TREND_MONTHS = 10

CANDIDATE_COLUMNS = (
    "compound",
    "partA",
    "partB",
    "split_index",
    "compound_first_seen",
    "label_T2",
    "label_T6",
    "label_T10",
)


class TrendCategory(enum.Enum):
    ALWAYS_HIGHER = "AlwaysHigher"
    ALL_BUT_ONE_MONTH = "AllButOneMonth"
    ALL_BUT_TWO_MONTHS = "AllButTwoMonths"
    OTHER = "Other"


@dataclass(frozen=True, slots=True)
class CompoundCandidate:
    """A detected compound with its unique constituent split."""

    compound: HashtagId
    split_index: int
    part_a: HashtagId
    part_b: HashtagId
    compound_first_seen: int
    a_first_seen: int
    b_first_seen: int

    def __post_init__(self):
        canon = self.compound.canonical
        if len(canon) < MIN_COMPOUND_LENGTH:
            raise ValueError(f"compound {canon!r} shorter than {MIN_COMPOUND_LENGTH} characters")
        if not 0 < self.split_index < len(canon):
            raise ValueError(f"split index {self.split_index} out of range for {canon!r}")
        if self.part_a.canonical + self.part_b.canonical != canon:
            raise ValueError(
                f"constituents {self.part_a.canonical!r}+{self.part_b.canonical!r} "
                f"do not concatenate to {canon!r}"
            )
        if len(self.part_a.canonical) != self.split_index:
            raise ValueError(
                f"split index {self.split_index} disagrees with constituent lengths of {canon!r}"
            )
        if self.a_first_seen >= self.compound_first_seen or self.b_first_seen >= self.compound_first_seen:
            raise ValueError(f"constituents of {canon!r} must predate the compound")


@dataclass(frozen=True, slots=True)
class PopularityLabel:
    """Outcome of the frequency comparison over (t0, t0 + horizon]."""

    value: str
    horizon_months: int
    freq_ab: int
    freq_a: int
    freq_b: int

    def __post_init__(self):
        if self.value not in ("Popular", "Unpopular"):
            raise ValueError(f"bad label value {self.value!r}")
        popular = self.freq_ab > self.freq_a and self.freq_ab > self.freq_b
        if popular != (self.value == "Popular"):
            raise ValueError("label value inconsistent with frequencies")

    @property
    def is_popular(self) -> bool:
        return self.value == "Popular"


def detect_candidates(index: CorpusIndex) -> list[CompoundCandidate]:
    """Every compound in the index.

    A hashtag of canonical length >= 6 qualifies when exactly one character
    position splits it into two hashtags whose first appearances strictly
    precede its own. Output is sorted by canonical form.
    """
    out: list[CompoundCandidate] = []
    for canon in index.hashtags():
        if len(canon) < MIN_COMPOUND_LENGTH:
            continue
        first = index.first_seen(canon)
        valid: list[int] = []
        for i in range(1, len(canon)):
            left, right = canon[:i], canon[i:]
            if (
                index.has(left)
                and index.has(right)
                and index.first_seen(left) < first
                and index.first_seen(right) < first
            ):
                valid.append(i)
                if len(valid) > 1:
                    break
        if len(valid) != 1:
            continue
        split = valid[0]
        left, right = canon[:split], canon[split:]
        out.append(
            CompoundCandidate(
                compound=index.hashtag_id(canon),
                split_index=split,
                part_a=index.hashtag_id(left),
                part_b=index.hashtag_id(right),
                compound_first_seen=first,
                a_first_seen=index.first_seen(left),
                b_first_seen=index.first_seen(right),
            )
        )
    return out


def filter_eligible(
    candidates: list[CompoundCandidate],
    index: CorpusIndex,
    min_support: int = 50,
    obs_months: int = 6,
) -> list[CompoundCandidate]:
    """Keep candidates whose constituents each have enough pre-compounding use.

    Support is counted over the open observation window before the
    compounding instant; the boundary count itself is eligible (>=). A
    window that starts before `index.coverage_start` is dropped, since
    `features.featurize_all` refuses it; one that starts exactly there is
    kept.
    """
    kept = []
    for cand in candidates:
        lo, hi = observation_window(cand.compound_first_seen, obs_months)
        if (
            lo >= index.coverage_start
            and index.count_between(cand.part_a.canonical, lo, hi) >= min_support
            and index.count_between(cand.part_b.canonical, lo, hi) >= min_support
        ):
            kept.append(cand)
    return kept


def label_candidate(
    index: CorpusIndex, candidate: CompoundCandidate, horizon_months: int
) -> PopularityLabel:
    """Popular iff the compound strictly out-runs both constituents.

    Frequencies are cumulative over (t0, t0 + horizon]; ties lose. The
    horizon is one of SUPPORTED_HORIZONS. A corpus that ends before the
    horizon raises InsufficientHistoryError instead of silently truncating.
    """
    if horizon_months not in SUPPORTED_HORIZONS:
        raise ValueError(
            f"horizon {horizon_months} unsupported, expected one of {SUPPORTED_HORIZONS}"
        )
    t0 = candidate.compound_first_seen
    end = shift_months(t0, horizon_months)
    if end > index.coverage_end:
        raise InsufficientHistoryError(
            f"corpus coverage ends before t0+{horizon_months} months for "
            f"{candidate.compound.canonical!r}"
        )
    # timestamps are whole seconds, so the open (t0, end + 1) is (t0, end]
    freq_ab = index.count_between(candidate.compound.canonical, t0, end + 1)
    freq_a = index.count_between(candidate.part_a.canonical, t0, end + 1)
    freq_b = index.count_between(candidate.part_b.canonical, t0, end + 1)
    popular = freq_ab > freq_a and freq_ab > freq_b
    return PopularityLabel(
        value="Popular" if popular else "Unpopular",
        horizon_months=horizon_months,
        freq_ab=freq_ab,
        freq_a=freq_a,
        freq_b=freq_b,
    )


def classify_trend(index: CorpusIndex, candidate: CompoundCandidate) -> TrendCategory:
    """Monthly dominance pattern of a Popular compound over its first 10 months.

    Month i is the window (t0 + i-1 months, t0 + i months]. A month fails
    when the compound does not strictly exceed both constituents in it.
    """
    label = label_candidate(index, candidate, TREND_MONTHS)
    if not label.is_popular:
        raise ValueError(
            f"trend categories are defined for Popular compounds only; "
            f"{candidate.compound.canonical!r} is {label.value}"
        )
    t0 = candidate.compound_first_seen
    failures = 0
    for i in range(1, TREND_MONTHS + 1):
        lo = shift_months(t0, i - 1)
        hi = shift_months(t0, i)
        ab = index.count_between(candidate.compound.canonical, lo, hi + 1)
        a = index.count_between(candidate.part_a.canonical, lo, hi + 1)
        b = index.count_between(candidate.part_b.canonical, lo, hi + 1)
        if not (ab > a and ab > b):
            failures += 1
    if failures == 0:
        return TrendCategory.ALWAYS_HIGHER
    if failures == 1:
        return TrendCategory.ALL_BUT_ONE_MONTH
    if failures == 2:
        return TrendCategory.ALL_BUT_TWO_MONTHS
    return TrendCategory.OTHER


# ---------------------------------------------------------------------------
# segmentation

def segment_hashtag(hashtag: HashtagId | str, dictionary: Dictionary) -> list[str]:
    """Split a hashtag's display form into words.

    Case and digit boundaries split first; any remaining chunk longer than
    three characters that is out-of-vocabulary gets a dictionary-driven
    split. Concatenating the output always reproduces the input.
    """
    display = hashtag.display if isinstance(hashtag, HashtagId) else hashtag
    if not display:
        raise ValueError("cannot segment an empty hashtag")
    words: list[str] = []
    for chunk in _case_chunks(display):
        if len(chunk) > 3 and chunk.isalpha() and chunk.lower() not in dictionary.words:
            words.extend(_dictionary_split(chunk, dictionary))
        else:
            words.append(chunk)
    return words


def _case_chunks(display: str) -> list[str]:
    """Split at lower-to-upper transitions, letter/digit boundaries, and underscores."""
    chunks = [display[0]]
    for prev, ch in zip(display, display[1:]):
        boundary = (
            (prev.islower() and ch.isupper())
            or (prev.isalpha() and ch.isdigit())
            or (prev.isdigit() and ch.isalpha())
            or ((prev == "_") != (ch == "_"))
        )
        if boundary:
            chunks.append(ch)
        else:
            chunks[-1] += ch
    return chunks


def _dictionary_split(chunk: str, dictionary: Dictionary) -> list[str]:
    """Best segmentation of a chunk by in-vocabulary word count.

    Ties prefer fewer words, then the leftmost-longest parse. The whole
    chunk is itself a candidate parse, so unsplittable chunks come back
    intact.
    """
    n = len(chunk)
    lower = chunk.lower()
    # best[i]: (inv_count, -word_count, parse) for the suffix starting at i
    best: list[tuple[int, int, list[str]] | None] = [None] * (n + 1)
    best[n] = (0, 0, [])
    for i in range(n - 1, -1, -1):
        chosen: tuple[int, int, list[str]] | None = None
        for j in range(n, i, -1):
            tail = best[j]
            assert tail is not None
            inv = (1 if lower[i:j] in dictionary.words else 0) + tail[0]
            score = (inv, tail[1] - 1)
            if chosen is None or score > (chosen[0], chosen[1]):
                chosen = (inv, tail[1] - 1, [chunk[i:j]] + tail[2])
        best[i] = chosen
    result = best[0]
    assert result is not None
    return result[2]


# ---------------------------------------------------------------------------
# candidate file format

def write_candidates(
    path,
    candidates: list[CompoundCandidate],
    labels: dict[tuple[str, int], PopularityLabel] | None = None,
) -> None:
    """Tab-separated candidate table with one label column per horizon."""
    labels = labels or {}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(CANDIDATE_COLUMNS) + "\n")
        for cand in candidates:
            row = [
                cand.compound.canonical,
                cand.part_a.canonical,
                cand.part_b.canonical,
                str(cand.split_index),
                str(cand.compound_first_seen),
            ]
            for horizon in SUPPORTED_HORIZONS:
                label = labels.get((cand.compound.canonical, horizon))
                row.append(label.value if label is not None else "-")
            fh.write("\t".join(row) + "\n")


def read_candidates(
    path, index: CorpusIndex
) -> tuple[list[CompoundCandidate], dict[tuple[str, int], str]]:
    """Load a candidate table back, resolving hashtags against the index.

    A damaged row or cell, or a hashtag missing from the index, raises
    CorpusFormatError naming its file and line.
    """
    candidates: list[CompoundCandidate] = []
    labels: dict[tuple[str, int], str] = {}
    for where, cells in read_tsv(path, CANDIDATE_COLUMNS, header=True):
        compound, part_a, part_b, split_s, first_s = cells[:5]
        for name in (compound, part_a, part_b):
            if not index.has(name):
                raise CorpusFormatError(f"{where}: hashtag {name!r} not in the index")
        try:
            cand = CompoundCandidate(
                compound=index.hashtag_id(compound),
                split_index=int(split_s),
                part_a=index.hashtag_id(part_a),
                part_b=index.hashtag_id(part_b),
                compound_first_seen=int(first_s),
                a_first_seen=index.first_seen(part_a),
                b_first_seen=index.first_seen(part_b),
            )
        except ValueError as exc:
            raise CorpusFormatError(f"{where}: {exc}") from exc
        candidates.append(cand)
        for horizon, value in zip(SUPPORTED_HORIZONS, cells[5:]):
            if value not in ("Popular", "Unpopular", "-"):
                raise CorpusFormatError(f"{where}: label {value!r} is not Popular, Unpopular or -")
            if value != "-":
                labels[(compound, horizon)] = value
    return candidates, labels
