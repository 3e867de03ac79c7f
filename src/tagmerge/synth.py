"""Deterministic synthetic corpora with planted compounding events.

Monthly tweet counts are scheduled, not sampled: the generated corpus
realizes every planted count exactly, so tests can hold exact expectations.
Randomness only decides tweet content (words, users, mentions), never
volume, and every draw is owned by the config seed.

Timestamp layout inside a month, chosen so calendar months coincide with
the 30-day-style windows anchored at a compound's first appearance:
every tag's first tweet sits 1800 s into its start month, a compound's
first tweet sits 3600 s into its start month, and all scheduled tweets sit
at least two days in. A horizon window (t0, t0 + T months] therefore
contains exactly the scheduled tweets of T calendar months, first tweets
excluded.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from .compound import CANDIDATE_COLUMNS, SUPPORTED_HORIZONS, TREND_MONTHS, TrendCategory
from .corpus import Tweet, month_start, next_month
from .errors import CorpusFormatError, dataclass_fields, read_json, read_tsv

MANIFEST_COLUMNS = CANDIDATE_COLUMNS + ("trend", "planted_class", "support_a", "support_b")

_FIRST_TAG_OFFSET = 1800
_FIRST_COMPOUND_OFFSET = 3600
_SCHEDULED_BASE = 2 * 86400
_SCHEDULED_STEP = 120
_FILLER_BASE = 3 * 86400
_FILLER_STEP = 311


def word_bank(start: int, count: int) -> tuple[str, ...]:
    """Deterministic five-letter words; index order is alphabetical order."""
    words = []
    for i in range(start, start + count):
        letters = []
        value = i
        for _ in range(5):
            letters.append(chr(ord("a") + value % 26))
            value //= 26
        words.append("".join(reversed(letters)))
    return tuple(words)


def _camel(words: tuple[str, ...]) -> str:
    return "".join(w.capitalize() for w in words)


@dataclass(frozen=True)
class PlantSpec:
    """One planted compound: names, schedule, and behavior knobs.

    `pre_*` arrays cover months [0, m0) and `post_*` arrays cover months
    [m0, n_months); co-occurring tweets are carved out of the scheduled
    constituent counts, never added on top.
    """

    a_words: tuple[str, ...]
    b_words: tuple[str, ...]
    topic_a: int
    topic_b: int
    m0: int
    a_start: int
    b_start: int
    pre_a: tuple[int, ...]
    pre_b: tuple[int, ...]
    post_a: tuple[int, ...]
    post_b: tuple[int, ...]
    post_ab: tuple[int, ...]
    cross_frac: float = 0.0
    user_overlap: float = 0.0
    co_rate: float = 0.0
    mention_rate: float = 0.0
    retweet_rate: float = 0.0
    user_pool: int = 4
    planted_class: int = 0

    def __post_init__(self):
        if not self.a_words or not self.b_words:
            raise ValueError("constituents need at least one word each")
        for arr in (self.pre_a, self.pre_b, self.post_a, self.post_b, self.post_ab):
            if any(c < 0 for c in arr):
                raise ValueError("scheduled counts must be non-negative")
        if len(self.pre_a) != self.m0 or len(self.pre_b) != self.m0:
            raise ValueError("pre arrays must cover exactly the months before m0")
        if not (0 <= self.a_start <= self.m0 and 0 <= self.b_start <= self.m0):
            raise ValueError("constituents must start no later than the compound")
        if any(self.pre_a[: self.a_start]) or any(self.pre_b[: self.b_start]):
            raise ValueError("scheduled counts precede the constituent's start month")
        if self.planted_class not in (0, 1):
            raise ValueError("planted_class must be 0 or 1")

    @property
    def a_display(self) -> str:
        return _camel(self.a_words)

    @property
    def b_display(self) -> str:
        return _camel(self.b_words)

    @property
    def ab_display(self) -> str:
        return self.a_display + self.b_display

    @property
    def a_canonical(self) -> str:
        return self.a_display.lower()

    @property
    def b_canonical(self) -> str:
        return self.b_display.lower()

    @property
    def ab_canonical(self) -> str:
        return self.ab_display.lower()

    @classmethod
    def from_payload(cls, payload: dict) -> "PlantSpec":
        return cls(**dataclass_fields(cls, payload))


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    seed: int
    start_month: str
    n_months: int
    plants: tuple[PlantSpec, ...]
    topic_vocabs: tuple[tuple[str, ...], ...]
    background_words: tuple[str, ...]
    obs_months: int = 6
    words_per_tweet: int = 3
    background_per_month: int = 1

    def __post_init__(self):
        if self.n_months < 1:
            raise ValueError("need at least one month")
        if self.words_per_tweet < 1:
            raise ValueError("tweets need at least one word")
        if self.background_per_month > 0 and not self.background_words:
            raise ValueError("background tweets need a word pool")
        if not self.topic_vocabs or any(not v for v in self.topic_vocabs):
            raise ValueError("topic vocabularies must be non-empty")

    @classmethod
    def from_payload(cls, payload: dict) -> "ScenarioConfig":
        plants = tuple(PlantSpec.from_payload(p) for p in payload["plants"])
        return cls(**{**dataclass_fields(cls, payload), "plants": plants})

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(asdict(self), sort_keys=True, indent=1))
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "ScenarioConfig":
        return read_json(path, cls.from_payload)


@dataclass(frozen=True)
class ManifestRow:
    """Ground truth for one planted compound, computed from the schedule."""

    compound: str
    part_a: str
    part_b: str
    split_index: int
    t0: int
    labels: dict[int, str | None]
    trend: str | None
    planted_class: int
    support_a: int
    support_b: int


@dataclass
class SynthResult:
    tweets: list[Tweet]
    manifest: list[ManifestRow]
    resources: dict[str, str]


class _TagPlan:
    __slots__ = (
        "canonical",
        "display",
        "start",
        "counts",
        "is_compound",
        "owner",
        "side",
        "first_id",
    )

    def __init__(self, canonical, display, start, n_months, is_compound, owner, side):
        self.canonical = canonical
        self.display = display
        self.start = start
        self.counts = [0] * n_months
        self.is_compound = is_compound
        self.owner = owner
        self.side = side
        self.first_id = ""


def _merge_tag(tags, canonical, display, start, counts_by_month, n_months, is_compound, owner, side):
    plan = tags.get(canonical)
    if plan is None:
        plan = _TagPlan(canonical, display, start, n_months, is_compound, owner, side)
        tags[canonical] = plan
    else:
        if plan.display != display:
            raise ValueError(f"tag {canonical!r} planted with two different forms")
        if plan.is_compound != is_compound:
            raise ValueError(f"tag {canonical!r} used as both compound and constituent")
        plan.start = min(plan.start, start)
    for month, count in counts_by_month:
        plan.counts[month] += count
    return plan


def _planted_co(plant: PlantSpec) -> list[int]:
    co = [0] * plant.m0
    if plant.co_rate <= 0:
        return co
    for m in range(plant.m0):
        co[m] = int(round(plant.co_rate * min(plant.pre_a[m], plant.pre_b[m])))
    return co


def generate(config: ScenarioConfig) -> SynthResult:
    """Realize a scenario: tweets, ground-truth manifest, resource files."""
    n = config.n_months
    months = [config.start_month]
    for _ in range(n):
        months.append(next_month(months[-1]))
    starts = [month_start(m) for m in months]  # length n + 1; starts[n] bounds the grid

    tags: dict[str, _TagPlan] = {}
    for p_i, plant in enumerate(config.plants):
        if len(plant.post_a) != n - plant.m0:
            raise ValueError("post arrays must cover exactly the months from m0 on")
        if len(plant.post_b) != n - plant.m0 or len(plant.post_ab) != n - plant.m0:
            raise ValueError("post arrays must cover exactly the months from m0 on")
        if not (0 <= plant.topic_a < len(config.topic_vocabs)):
            raise ValueError("topic_a out of range")
        if not (0 <= plant.topic_b < len(config.topic_vocabs)):
            raise ValueError("topic_b out of range")
        _merge_tag(
            tags,
            plant.a_canonical,
            plant.a_display,
            plant.a_start,
            [(m, c) for m, c in enumerate(plant.pre_a)]
            + [(plant.m0 + i, c) for i, c in enumerate(plant.post_a)],
            n,
            False,
            p_i,
            "a",
        )
        _merge_tag(
            tags,
            plant.b_canonical,
            plant.b_display,
            plant.b_start,
            [(m, c) for m, c in enumerate(plant.pre_b)]
            + [(plant.m0 + i, c) for i, c in enumerate(plant.post_b)],
            n,
            False,
            p_i,
            "b",
        )
        _merge_tag(
            tags,
            plant.ab_canonical,
            plant.ab_display,
            plant.m0,
            [(plant.m0 + i, c) for i, c in enumerate(plant.post_ab)],
            n,
            True,
            p_i,
            "ab",
        )

    co_by_plant = [_planted_co(p) for p in config.plants]
    joint_draw: dict[str, list[int]] = {c: [0] * n for c in tags}
    for plant, co in zip(config.plants, co_by_plant):
        for m, count in enumerate(co):
            joint_draw[plant.a_canonical][m] += count
            joint_draw[plant.b_canonical][m] += count
    for canonical, plan in tags.items():
        for m in range(n):
            if plan.counts[m] - joint_draw[canonical][m] < 0:
                raise ValueError(
                    f"co-occurrence overdraws tag {canonical!r} in month {months[m]}"
                )

    rng = np.random.default_rng([config.seed, 424243])
    tweets: list[Tweet] = []
    counter = 0

    def next_id() -> str:
        nonlocal counter
        counter += 1
        return f"s{counter:07d}"

    def pick(pool):
        return pool[int(rng.integers(len(pool)))]

    def topic_words(plant: PlantSpec, side: str) -> list[str]:
        own = config.topic_vocabs[plant.topic_a if side == "a" else plant.topic_b]
        other = config.topic_vocabs[plant.topic_b if side == "a" else plant.topic_a]
        out = []
        for _ in range(config.words_per_tweet):
            source = other if rng.random() < plant.cross_frac else own
            out.append(pick(source))
        return out

    def tag_user(plant: PlantSpec, plan: _TagPlan) -> str:
        if rng.random() < plant.user_overlap:
            return f"uc_{plan.owner}_{int(rng.integers(plant.user_pool))}"
        return f"u_{plan.canonical}_{int(rng.integers(plant.user_pool))}"

    def maybe_mention(plant: PlantSpec, plan: _TagPlan) -> str:
        if rng.random() >= plant.mention_rate:
            return ""
        if rng.random() < plant.user_overlap:
            return f" @mc_{plan.owner}_{int(rng.integers(plant.user_pool))}"
        return f" @m_{plan.canonical}_{int(rng.integers(plant.user_pool))}"

    def tag_tweet(plan: _TagPlan, ts: int) -> Tweet:
        plant = config.plants[plan.owner]
        if plan.side == "ab":
            side = "a" if rng.random() < 0.5 else "b"
        else:
            side = plan.side
        words = topic_words(plant, side)
        text = f"#{plan.display} " + " ".join(words) + maybe_mention(plant, plan)
        retweet_of = plan.first_id if plan.first_id and rng.random() < plant.retweet_rate else None
        return Tweet(
            id=next_id(), timestamp=ts, user_id=tag_user(plant, plan), text=text,
            retweet_of=retweet_of,
        )

    def joint_tweet(plant: PlantSpec, p_i: int, ts: int) -> Tweet:
        words = []
        for _ in range(config.words_per_tweet):
            side = "a" if rng.random() < 0.5 else "b"
            source = config.topic_vocabs[plant.topic_a if side == "a" else plant.topic_b]
            words.append(pick(source))
        plan_a = tags[plant.a_canonical]
        user = f"uc_{p_i}_{int(rng.integers(plant.user_pool))}"
        text = f"#{plant.a_display} #{plant.b_display} " + " ".join(words)
        text += maybe_mention(plant, plan_a)
        retweet_of = (
            plan_a.first_id if plan_a.first_id and rng.random() < plant.retweet_rate else None
        )
        return Tweet(id=next_id(), timestamp=ts, user_id=user, text=text, retweet_of=retweet_of)

    # first appearance of every tag, compounds one hour in, constituents before
    for plan in sorted(tags.values(), key=lambda t: (t.start, t.is_compound, t.canonical)):
        offset = _FIRST_COMPOUND_OFFSET if plan.is_compound else _FIRST_TAG_OFFSET
        tweet = tag_tweet(plan, starts[plan.start] + offset)
        plan.first_id = tweet.id
        tweets.append(tweet)

    ordered_tags = sorted(tags)
    for m in range(n):
        seq = 0
        for j in range(config.background_per_month):
            ts = starts[m] + _FILLER_BASE + j * _FILLER_STEP
            k = (m * config.background_per_month + j) * config.words_per_tweet
            words = [
                config.background_words[(k + w) % len(config.background_words)]
                for w in range(config.words_per_tweet)
            ]
            tweets.append(Tweet(id=next_id(), timestamp=ts, user_id="bg", text=" ".join(words)))
        for p_i, plant in enumerate(config.plants):
            if m < plant.m0:
                for _ in range(co_by_plant[p_i][m]):
                    ts = starts[m] + _SCHEDULED_BASE + seq * _SCHEDULED_STEP
                    seq += 1
                    tweets.append(joint_tweet(plant, p_i, ts))
        for canonical in ordered_tags:
            plan = tags[canonical]
            for _ in range(plan.counts[m] - joint_draw[canonical][m]):
                ts = starts[m] + _SCHEDULED_BASE + seq * _SCHEDULED_STEP
                seq += 1
                tweets.append(tag_tweet(plan, ts))
        if seq and starts[m] + _SCHEDULED_BASE + (seq - 1) * _SCHEDULED_STEP >= starts[m + 1]:
            raise ValueError(f"month {months[m]} cannot hold {seq} scheduled tweets")

    manifest = _build_manifest(config, tags, starts)
    resources = _build_resources(config)
    return SynthResult(tweets=tweets, manifest=manifest, resources=resources)


def _build_manifest(config, tags, starts) -> list[ManifestRow]:
    n = config.n_months
    rows = []
    for plant in config.plants:
        counts_a = tags[plant.a_canonical].counts
        counts_b = tags[plant.b_canonical].counts
        counts_ab = tags[plant.ab_canonical].counts
        m0 = plant.m0
        t0 = starts[m0] + _FIRST_COMPOUND_OFFSET
        labels: dict[int, str | None] = {}
        for horizon in SUPPORTED_HORIZONS:
            if m0 + horizon >= n:
                labels[horizon] = None
                continue
            freq_ab = sum(counts_ab[m0 : m0 + horizon])
            freq_a = sum(counts_a[m0 : m0 + horizon])
            freq_b = sum(counts_b[m0 : m0 + horizon])
            popular = freq_ab > freq_a and freq_ab > freq_b
            labels[horizon] = "Popular" if popular else "Unpopular"
        trend = None
        if labels.get(TREND_MONTHS) == "Popular":
            failures = sum(
                1
                for m in range(m0, m0 + TREND_MONTHS)
                if not (counts_ab[m] > counts_a[m] and counts_ab[m] > counts_b[m])
            )
            trend = {
                0: TrendCategory.ALWAYS_HIGHER,
                1: TrendCategory.ALL_BUT_ONE_MONTH,
                2: TrendCategory.ALL_BUT_TWO_MONTHS,
            }.get(failures, TrendCategory.OTHER).value
        support_a = _window_support(plant, counts_a, plant.a_start, config.obs_months)
        support_b = _window_support(plant, counts_b, plant.b_start, config.obs_months)
        rows.append(
            ManifestRow(
                compound=plant.ab_canonical,
                part_a=plant.a_canonical,
                part_b=plant.b_canonical,
                split_index=len(plant.a_canonical),
                t0=t0,
                labels=labels,
                trend=trend,
                planted_class=plant.planted_class,
                support_a=support_a,
                support_b=support_b,
            )
        )
    return rows


def _window_support(plant: PlantSpec, counts, start_month, obs_months) -> int:
    lo = plant.m0 - obs_months
    total = sum(counts[max(lo, 0) : plant.m0])
    # the tag's first tweet sits 1800 s into its month, inside the open
    # observation window unless it falls in the window's first month
    if lo < start_month <= plant.m0:
        total += 1
    return total


def _build_resources(config: ScenarioConfig) -> dict[str, str]:
    words = set(config.background_words)
    for vocab in config.topic_vocabs:
        words.update(vocab)
    for plant in config.plants:
        words.update(plant.a_words)
        words.update(plant.b_words)
    ordered = sorted(words)
    dictionary = "\n".join(ordered) + "\n"

    pos_tags = ("N", "V", "A", "R")
    pos_lines = [f"{w}\t{pos_tags[i % len(pos_tags)]}" for i, w in enumerate(ordered)]
    pos_lexicon = "\n".join(pos_lines) + "\n"

    ngram_entries: dict[str, int] = {}
    for i, plant in enumerate(config.plants):
        phrase_words = plant.a_words + plant.b_words
        if 2 <= len(phrase_words) <= 5:
            phrase = " ".join(phrase_words)
            ngram_entries.setdefault(phrase, 3 + i % 5)
    if not ngram_entries:
        ngram_entries["qqqqq zzzzz"] = 1
    ngrams = "\n".join(f"{p}\t{f}" for p, f in sorted(ngram_entries.items())) + "\n"

    gazetteer = "qqqqq zzzzz\tplace\n"
    return {
        "dictionary.txt": dictionary,
        "pos_lexicon.tsv": pos_lexicon,
        "ngrams.tsv": ngrams,
        "gazetteer.tsv": gazetteer,
    }


def write_corpus(path, tweets: list[Tweet]) -> None:
    """One JSON object per line, in generation order."""
    with open(path, "w", encoding="utf-8") as fh:
        for tweet in tweets:
            fh.write(json.dumps(tweet.to_record(), sort_keys=True, separators=(",", ":")))
            fh.write("\n")


def manifest_to_tsv(rows: list[ManifestRow]) -> str:
    lines = ["\t".join(MANIFEST_COLUMNS)]
    for row in rows:
        cells = [row.compound, row.part_a, row.part_b, str(row.split_index), str(row.t0)]
        for horizon in SUPPORTED_HORIZONS:
            cells.append(row.labels.get(horizon) or "-")
        cells.append(row.trend or "-")
        cells.append(str(row.planted_class))
        cells.append(str(row.support_a))
        cells.append(str(row.support_b))
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def read_manifest(path) -> list[ManifestRow]:
    """The rows `manifest_to_tsv` wrote; a damaged row or cell names its file and line."""
    rows = []
    for where, cells in read_tsv(path, MANIFEST_COLUMNS, header=True):
        labels = {
            horizon: (cells[5 + i] if cells[5 + i] != "-" else None)
            for i, horizon in enumerate(SUPPORTED_HORIZONS)
        }
        try:
            row = ManifestRow(
                compound=cells[0],
                part_a=cells[1],
                part_b=cells[2],
                split_index=int(cells[3]),
                t0=int(cells[4]),
                labels=labels,
                trend=cells[8] if cells[8] != "-" else None,
                planted_class=int(cells[9]),
                support_a=int(cells[10]),
                support_b=int(cells[11]),
            )
        except ValueError as exc:
            raise CorpusFormatError(f"{where}: {exc}") from exc
        rows.append(row)
    return rows


def write_scenario(config: ScenarioConfig, out_dir) -> dict[str, str]:
    """Generate and write corpus, manifest, config, and resource files."""
    os.makedirs(out_dir, exist_ok=True)
    result = generate(config)
    paths = {}
    corpus_path = os.path.join(out_dir, "corpus.jsonl")
    write_corpus(corpus_path, result.tweets)
    paths["corpus"] = corpus_path
    manifest_path = os.path.join(out_dir, "manifest.tsv")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write(manifest_to_tsv(result.manifest))
    paths["manifest"] = manifest_path
    config_path = os.path.join(out_dir, "config.json")
    config.save(config_path)
    paths["config"] = config_path
    for filename, content in result.resources.items():
        res_path = os.path.join(out_dir, filename)
        with open(res_path, "w", encoding="utf-8") as fh:
            fh.write(content)
        paths[filename] = res_path
    return paths


# ---------------------------------------------------------------------------
# ready-made scenarios

def _spread(total: int, slots: int) -> list[int]:
    base, rem = divmod(total, slots)
    return [base + (1 if i < rem else 0) for i in range(slots)]


_REFERENCE_ROWS = (
    # twenty compounds with hand-checked popularity outcomes; the first ten
    # out-frequency both constituents over ten months, the rest never do
    (("high", "school"), ("memories",), 21700, 395, 4178),
    (("freshman",), ("advice",), 9144, 102, 124),
    (("questions", "i", "hate"), ("answering",), 4186, 14, 1),
    (("operation",), ("legalize", "weed"), 3978, 18, 12),
    (("wikipedia",), ("blackout",), 2638, 202, 524),
    (("game",), ("insight",), 2633, 689, 49),
    (("cnn",), ("debate",), 2615, 1637, 125),
    (("golden",), ("globes",), 2581, 125, 61),
    (("ghetto",), ("spelling", "bee"), 255, 134, 8),
    (("lil", "waynes"), ("greatest", "hits"), 254, 1, 132),
    (("love",), ("oomf",), 1, 14525, 142299),
    (("oomf",), ("pussy",), 5, 142671, 11010),
    (("i", "love"), ("porn",), 2, 428, 46715),
    (("yolo",), ("for", "jesus"), 1, 47056, 4),
    (("hate",), ("canada",), 3, 1622, 2399),
    (("sweet", "baby", "jesus"), ("thats", "good"), 1, 45, 27),
    (("regent",), ("street",), 1, 2, 223),
    (("coming", "back"), ("black",), 2, 12, 1205),
    (("liquidation",), ("monday",), 3, 51, 965),
    (("mavericks",), ("nation",), 4, 210, 136),
)


def _scaled(freq: int) -> int:
    return math.ceil(freq / 100)


def reference_scenario(seed: int = 0) -> ScenarioConfig:
    """Twenty reference compounds at 1/100 scale with exact window sums.

    The shared constituent (#oomf) appears in two rows with different
    window totals; the second row compounds one month later and its
    schedule adds the difference in the extra trailing month.
    """
    n_months = 18
    plants = []
    for row_i, (a_words, b_words, f_ab, f_a, f_b) in enumerate(_REFERENCE_ROWS):
        compound = _camel(a_words + b_words).lower()
        m0 = 7 if compound == "oomfpussy" else 6
        tail = n_months - m0 - 10
        post_a = _spread(_scaled(f_a), 10) + [0] * tail
        post_b = _spread(_scaled(f_b), 10) + [0] * tail
        post_ab = _spread(_scaled(f_ab), 10) + [0] * tail
        if compound == "loveoomf":
            # months m0..m0+9 sum to 1423; the following month holds none
            post_b = [73] + [150] * 9 + [0] * tail
        if compound == "oomfpussy":
            # on top of the earlier row's schedule, 77 in the last window month
            post_a = [0] * 9 + [77] + [0] * tail
        plants.append(
            PlantSpec(
                a_words=a_words,
                b_words=b_words,
                topic_a=0,
                topic_b=0,
                m0=m0,
                a_start=0,
                b_start=0,
                pre_a=(0,) * m0,
                pre_b=(0,) * m0,
                post_a=tuple(post_a),
                post_b=tuple(post_b),
                post_ab=tuple(post_ab),
                planted_class=1 if row_i < 10 else 0,
            )
        )
    return ScenarioConfig(
        name="reference-twenty",
        seed=seed,
        start_month="2011-06",
        n_months=n_months,
        plants=tuple(plants),
        topic_vocabs=(word_bank(1000, 8),),
        background_words=word_bank(1010, 6),
    )


def signal_scenario(
    n_candidates: int = 400,
    seed: int = 0,
    strength: float = 1.0,
    n_topics: int = 4,
) -> ScenarioConfig:
    """Balanced candidates whose feature signal scales with `strength`.

    Class labels come from the schedule (popular compounds out-frequency
    their constituents at every horizon); `plant_signal` then couples the
    observation-window behavior knobs to the class.
    """
    if n_candidates < 2 or n_candidates % 2:
        raise ValueError("need an even number of candidates")
    n_months = 18
    m0 = 7
    rng = np.random.default_rng([seed, 551])
    topic_vocabs = tuple(word_bank(1200 + 12 * k, 12) for k in range(n_topics))
    background_words = word_bank(1200 + 12 * n_topics, 6)
    bank_base = 2000
    plants = []
    def draw_pre() -> tuple[int, ...]:
        return tuple([0] + [int(rng.integers(9, 12)) for _ in range(m0 - 1)])

    for i in range(n_candidates):
        cls = i % 2
        words = word_bank(bank_base + 4 * i, 4)
        if cls == 1:
            post_ab = [int(rng.integers(6, 10)) for _ in range(10)]
            post_a = [int(rng.integers(1, 3)) for _ in range(10)]
            post_b = [int(rng.integers(1, 3)) for _ in range(10)]
        else:
            post_ab = [int(rng.integers(0, 2)) for _ in range(10)]
            post_a = [int(rng.integers(3, 6)) for _ in range(10)]
            post_b = [int(rng.integers(3, 6)) for _ in range(10)]
        tail = [0] * (n_months - m0 - 10)
        plants.append(
            PlantSpec(
                a_words=(words[0], words[1]),
                b_words=(words[2], words[3]),
                topic_a=(2 * i) % n_topics,
                topic_b=(2 * i + 1) % n_topics,
                m0=m0,
                a_start=0,
                b_start=0,
                pre_a=draw_pre(),
                pre_b=draw_pre(),
                post_a=tuple(post_a + tail),
                post_b=tuple(post_b + tail),
                post_ab=tuple(post_ab + tail),
                cross_frac=0.35,
                user_overlap=0.30,
                co_rate=0.0,
                mention_rate=0.3,
                retweet_rate=0.25,
                user_pool=8,
                planted_class=cls,
            )
        )
    config = ScenarioConfig(
        name=f"signal-{n_candidates}",
        seed=seed,
        start_month="2011-06",
        n_months=n_months,
        plants=tuple(plants),
        topic_vocabs=topic_vocabs,
        background_words=background_words,
    )
    return plant_signal(config, strength)


def plant_signal(config: ScenarioConfig, strength: float) -> ScenarioConfig:
    """Couple behavior knobs to the planted class, scaled by `strength`.

    At strength 0 both classes draw from identical distributions; higher
    strength widens the separation of word overlap, user overlap, and
    co-occurrence monotonically.
    """
    if strength < 0:
        raise ValueError("strength must be non-negative")
    rng = np.random.default_rng([config.seed, 7741])
    plants = []
    for plant in config.plants:
        jitter = rng.uniform(-0.04, 0.04, size=3)
        sign = 1.0 if plant.planted_class == 1 else -1.0
        cross = float(np.clip(0.35 + sign * 0.30 * strength + jitter[0], 0.02, 0.95))
        overlap = float(np.clip(0.30 + sign * 0.26 * strength + jitter[1], 0.02, 0.95))
        if plant.planted_class == 1:
            co = float(np.clip((0.35 + jitter[2]) * strength, 0.0, 0.95))
        else:
            co = 0.0
        plants.append(
            replace(plant, cross_frac=cross, user_overlap=overlap, co_rate=co)
        )
    return replace(config, plants=tuple(plants))
