"""Socio-linguistic features of compound candidates.

Every feature reads only tweets inside the candidate's observation window,
the open interval of `obs_months` months ending at the compounding instant.
Nothing at or after t0 may influence a vector; appending later tweets to the
corpus must leave previously computed vectors bit-identical.

`featurize` reads each constituent's window once: its tweets, their tokens
as the index stored them, one token `Counter`, one set of known n-grams and
one document of plain words (hashtag and mention tokens dropped). The window
extractors take that data and never read the index's tweets or tokenize
text themselves. `topic_overlap` fits its topic model, when it needs one, on
the candidate's own two documents, so it too depends on nothing but the
candidate's window. `featurize_all` runs all those pair fits through one
`topicmodel.fit_lda_each`, which batches the fits of similar length; each
pair gets the model its own `topicmodel.fit_lda` would, so the vectors are
those of `featurize`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
from collections import Counter
from collections.abc import Iterator, Set
from dataclasses import asdict, astuple, dataclass
from typing import Iterable, Sequence

import numpy as np

from .compound import CompoundCandidate, segment_hashtag
from .corpus import CorpusIndex, Tweet, observation_window
from .errors import CorpusFormatError, InsufficientHistoryError, dataclass_fields, read_json
from .lexicon import Dictionary, EntityGazetteer, NgramTable, PosLexicon, ner_tag, pos_tag
from . import topicmodel
from .topicmodel import HashtagDocument

logger = logging.getLogger(__name__)

GROUP_HASHTAG = "hashtag_content"
GROUP_TWEET = "tweet_content"
GROUP_USER = "user"
GROUPS = (GROUP_HASHTAG, GROUP_TWEET, GROUP_USER)

POS_SLOTS = 20
NE_SLOTS = 20
OOV_PAIRS = ("INV-INV", "INV-OOV", "OOV-INV", "OOV-OOV")

SCHEMA_FORMAT = "tagmerge-features"
SCHEMA_VERSION = 1

# additive smoothing of the hashtag side of `hashtag_clarity`
CLARITY_EPS = 1e-6

# words of each document that `topic_overlap` keeps per topic
TOPIC_TOP_N = 100


# ---------------------------------------------------------------------------
# distribution helpers

def entropy(weights: Sequence[float] | np.ndarray) -> float:
    """Shannon entropy in nats of a count or probability vector."""
    arr = np.asarray(weights, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("entropy needs a non-empty 1-d vector")
    if np.any(arr < 0):
        raise ValueError("entropy weights must be non-negative")
    total = arr.sum()
    if total <= 0:
        raise ValueError("entropy weights must not all be zero")
    p = arr / total
    nz = p[p > 0]
    return float(-np.sum(nz * np.log(nz)))


def kl_divergence(p: Sequence[float] | np.ndarray, q: Sequence[float] | np.ndarray) -> float:
    """KL(p || q) in nats. q must dominate p (q > 0 wherever p > 0)."""
    p_arr = np.asarray(p, dtype=float)
    q_arr = np.asarray(q, dtype=float)
    if p_arr.shape != q_arr.shape or p_arr.ndim != 1:
        raise ValueError("kl_divergence needs two 1-d vectors of equal length")
    p_arr = p_arr / p_arr.sum()
    q_arr = q_arr / q_arr.sum()
    mask = p_arr > 0
    if np.any(q_arr[mask] <= 0):
        raise ValueError("q must be positive wherever p is positive")
    return float(np.sum(p_arr[mask] * np.log(p_arr[mask] / q_arr[mask])))


def overlap_coefficient(a: Set, b: Set) -> float:
    """|A n B| / min(|A|, |B|); zero when either set is empty."""
    if not a or not b:
        return 0.0
    return len(a & b) / min(len(a), len(b))


# ---------------------------------------------------------------------------
# schema types

@dataclass(frozen=True)
class ObservationConfig:
    """Windowing and model-size settings a feature schema depends on."""

    obs_months: int = 6
    horizon_months: int = 10
    lda_topics: int = 30


@dataclass(frozen=True)
class ZoneCombo:
    """Tag pairs observed at one candidate's compounding zone."""

    pos: tuple[str, str]
    ne: tuple[str, str]
    oov: str


@dataclass(frozen=True)
class ComboSchema:
    """Frozen top-pair lists backing the binary combination features.

    Each of the 20 POS and 20 NE slots is bound to a pair or left unbound;
    unbound slots always emit zero. Binding happens once, on training data.
    """

    pos_pairs: tuple[tuple[str, str] | None, ...]
    ne_pairs: tuple[tuple[str, str] | None, ...]

    def __post_init__(self):
        if len(self.pos_pairs) != POS_SLOTS or len(self.ne_pairs) != NE_SLOTS:
            raise ValueError(f"combo schema must have {POS_SLOTS}+{NE_SLOTS} slots")

    def to_payload(self) -> dict:
        return {
            "pos_pairs": [" ".join(p) if p else None for p in self.pos_pairs],
            "ne_pairs": [" ".join(p) if p else None for p in self.ne_pairs],
            "oov_pairs": list(OOV_PAIRS),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ComboSchema":
        def parse(items):
            return tuple(None if s is None else _split_pair(s) for s in items)

        return cls(pos_pairs=parse(payload["pos_pairs"]), ne_pairs=parse(payload["ne_pairs"]))


def _text(cell) -> str:
    """A string cell of a decoded file; TypeError for any other value."""
    if not isinstance(cell, str):
        raise TypeError(f"expected a string, found {cell!r}")
    return cell


def _split_pair(cell) -> tuple[str, ...]:
    """The two tags of a "TAG TAG" cell."""
    return tuple(_text(cell).split(" ", 1))


_POS_NAMES = tuple(f"pos_combo_{i:02d}" for i in range(POS_SLOTS))
_NE_NAMES = tuple(f"ne_combo_{i:02d}" for i in range(NE_SLOTS))
_OOV_NAMES = tuple(f"zone_{p.lower().replace('-', '_')}" for p in OOV_PAIRS)


def feature_layout() -> tuple[tuple[str, ...], dict[str, str], frozenset[str]]:
    """Canonical feature order, group tags, and the binary feature set."""
    names: list[str] = ["char_length", "word_count", "ngram_presence", "pos_diversity"]
    names += _POS_NAMES + _NE_NAMES + _OOV_NAMES
    tweet_names = [
        "word_overlap",
        "ngram_overlap",
        "avg_common_ngram_freq",
        "collocation_frequency",
        "clarity_a",
        "clarity_b",
        "word_diversity_a",
        "word_diversity_b",
        "topic_overlap",
    ]
    user_names = [
        "unique_users_a",
        "unique_users_b",
        "common_users",
        "unique_mentions_a",
        "unique_mentions_b",
        "common_mentions",
        "unique_retweets_a",
        "unique_retweets_b",
        "common_retweets",
    ]
    names += tweet_names + user_names
    groups = {n: GROUP_HASHTAG for n in names[: 4 + POS_SLOTS + NE_SLOTS + len(OOV_PAIRS)]}
    groups.update({n: GROUP_TWEET for n in tweet_names})
    groups.update({n: GROUP_USER for n in user_names})
    binary = frozenset(("ngram_presence",) + _POS_NAMES + _NE_NAMES + _OOV_NAMES)
    return tuple(names), groups, binary


@dataclass(frozen=True)
class FeatureSchema:
    """Names, groups, combo bindings, and config behind a feature matrix."""

    names: tuple[str, ...]
    groups: dict[str, str]
    binary: frozenset[str]
    combo: ComboSchema
    config: ObservationConfig

    @property
    def schema_id(self) -> str:
        payload = json.dumps(
            {
                "names": list(self.names),
                "groups": self.groups,
                "combo": self.combo.to_payload(),
                "config": list(astuple(self.config)),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def binary_mask(self) -> np.ndarray:
        return np.array([n in self.binary for n in self.names], dtype=bool)


@dataclass(frozen=True)
class FeatureVector:
    """One candidate's features, keyed by name in schema order."""

    values: dict[str, float]
    schema_id: str

    def as_array(self, names: Sequence[str]) -> np.ndarray:
        return np.array([self.values[n] for n in names], dtype=float)


def derive_combo_schema(combos: Iterable[ZoneCombo]) -> ComboSchema:
    """Bind the top-20 POS and NE pair slots by training-set prevalence.

    POS pairs touching the unknown tag X and the all-none NE pair carry no
    signal and are never bound. Ties break on the pair spelling so the
    binding is deterministic.
    """
    pos_counts: dict[tuple[str, str], int] = {}
    ne_counts: dict[tuple[str, str], int] = {}
    for combo in combos:
        if "X" not in combo.pos:
            pos_counts[combo.pos] = pos_counts.get(combo.pos, 0) + 1
        if combo.ne != ("none", "none"):
            ne_counts[combo.ne] = ne_counts.get(combo.ne, 0) + 1

    def top(counts: dict[tuple[str, str], int], slots: int):
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        pairs: list[tuple[str, str] | None] = [pair for pair, _ in ranked[:slots]]
        pairs += [None] * (slots - len(pairs))
        return tuple(pairs)

    return ComboSchema(pos_pairs=top(pos_counts, POS_SLOTS), ne_pairs=top(ne_counts, NE_SLOTS))


def build_schema(combos: Iterable[ZoneCombo], config: ObservationConfig) -> FeatureSchema:
    names, groups, binary = feature_layout()
    return FeatureSchema(
        names=names,
        groups=groups,
        binary=binary,
        combo=derive_combo_schema(combos),
        config=config,
    )


# ---------------------------------------------------------------------------
# hashtag content features

def char_length(candidate: CompoundCandidate) -> int:
    return len(candidate.compound.canonical)


def word_count(candidate: CompoundCandidate, dictionary: Dictionary) -> int:
    return len(segment_hashtag(candidate.compound, dictionary))


def _known_phrases(words: Sequence[str], table: NgramTable) -> Iterator[str]:
    """Table phrases among the 2..5-word windows of `words`, shortest first."""
    for n in range(2, 6):
        for i in range(len(words) - n + 1):
            phrase = " ".join(words[i : i + n])
            if phrase in table.entries:
                yield phrase


def ngram_presence(candidate: CompoundCandidate, dictionary: Dictionary, table: NgramTable) -> int:
    """1 when any 2..5-word window of the segmented compound is a known phrase."""
    words = [w.lower() for w in segment_hashtag(candidate.compound, dictionary)]
    return int(any(_known_phrases(words, table)))


def pos_diversity(
    candidate: CompoundCandidate, pos_lexicon: PosLexicon, dictionary: Dictionary
) -> float:
    """Entropy of the POS tag distribution over the compound's words."""
    words = segment_hashtag(candidate.compound, dictionary)
    tags = pos_tag(pos_lexicon, words)
    counts: dict[str, int] = {}
    for tag in tags:
        counts[tag] = counts.get(tag, 0) + 1
    return entropy(list(counts.values()))


def compounding_zone(candidate: CompoundCandidate, dictionary: Dictionary) -> tuple[str, str]:
    """Last word of the first constituent and first word of the second."""
    left = segment_hashtag(candidate.part_a, dictionary)
    right = segment_hashtag(candidate.part_b, dictionary)
    return left[-1], right[0]


def zone_combo(
    candidate: CompoundCandidate,
    dictionary: Dictionary,
    pos_lexicon: PosLexicon,
    gazetteer: EntityGazetteer,
) -> ZoneCombo:
    """POS, entity, and vocabulary-membership pairs at the compounding zone.

    The two zone words are tagged as one sequence, so a gazetteer phrase
    spanning the boundary yields a B-/I- pair.
    """
    word_a, word_b = compounding_zone(candidate, dictionary)
    pos_pair = tuple(pos_tag(pos_lexicon, [word_a, word_b]))
    ne_pair = tuple(ner_tag(gazetteer, [word_a, word_b]))
    status_a = "INV" if word_a.lower() in dictionary.words else "OOV"
    status_b = "INV" if word_b.lower() in dictionary.words else "OOV"
    return ZoneCombo(pos=pos_pair, ne=ne_pair, oov=f"{status_a}-{status_b}")


def combo_bits(combo: ZoneCombo, schema: ComboSchema) -> dict[str, float]:
    """Expand one zone combo into the 44 binary slot values."""
    out: dict[str, float] = {}
    for name, pair in zip(_POS_NAMES, schema.pos_pairs):
        out[name] = 1.0 if pair is not None and pair == combo.pos else 0.0
    for name, pair in zip(_NE_NAMES, schema.ne_pairs):
        out[name] = 1.0 if pair is not None and pair == combo.ne else 0.0
    for name, pair in zip(_OOV_NAMES, OOV_PAIRS):
        out[name] = 1.0 if combo.oov == pair else 0.0
    return out


# ---------------------------------------------------------------------------
# tweet content features

def word_overlap(counts_a: Counter, counts_b: Counter) -> float:
    """Overlap coefficient of the two constituents' token sets."""
    return overlap_coefficient(counts_a.keys(), counts_b.keys())


def ngram_overlap(ngrams_a: Set[str], ngrams_b: Set[str]) -> float:
    """Overlap coefficient of the two constituents' valid n-gram sets."""
    return overlap_coefficient(ngrams_a, ngrams_b)


def avg_common_ngram_freq(ngrams_a: Set[str], ngrams_b: Set[str], table: NgramTable) -> float:
    """Mean table frequency of the n-grams both constituents share."""
    common = ngrams_a & ngrams_b
    if not common:
        return 0.0
    return float(np.mean([table.entries[g] for g in sorted(common)]))


def collocation_frequency(tweets_a: Sequence[Tweet], part_b: str) -> int:
    """Tweets of the first constituent's window that also carry `part_b`."""
    return sum(1 for tweet in tweets_a if part_b in tweet.hashtag_canonicals)


def hashtag_clarity(index: CorpusIndex, counts: Counter, before: int) -> float:
    """KL divergence of a hashtag's language model from the background.

    `counts` holds the hashtag's window tokens. High divergence means focused
    use. The background is the corpus token distribution strictly before
    `before`, the window's end; the hashtag side is additively smoothed over
    the background's vocabulary. No tokens score zero.
    """
    n_tokens = sum(counts.values())
    if n_tokens == 0:
        return 0.0
    bg_counts, bg_total = index.background_before(before)
    tag_counts = np.zeros(len(index.vocabulary), dtype=np.int64)
    for tok, count in counts.items():
        tag_counts[index.word_index(tok)] = count
    support = bg_counts > 0
    v = int(support.sum())
    p = (tag_counts[support] + CLARITY_EPS) / (n_tokens + CLARITY_EPS * v)
    q = bg_counts[support] / bg_total
    return float(np.sum(p * np.log(p / q)))


def word_diversity(counts: Counter) -> float:
    """Entropy of a hashtag's window unigram distribution; zero without tokens.

    The float sum follows the order of `counts`, so callers fill it tweet by
    tweet in (time, id) order.
    """
    if not counts:
        return 0.0
    return entropy(list(counts.values()))


def avg_topic_overlap(
    doc_a: HashtagDocument, doc_b: HashtagDocument, n_topics: int, iterations: int, seed: int,
    top_n: int = TOPIC_TOP_N,
) -> float:
    """Mean per-topic overlap of the two documents' top-ranked words.

    For each topic the words of a document are ranked by that topic's
    word probabilities in an LDA fit of these two documents alone; the
    count of shared top words is averaged over topics. When neither
    document has more than `top_n` distinct words, every topic keeps all of
    them, so the value is the size of the shared vocabulary whatever the
    fit, and no fit runs. The fit is `topicmodel.fit_lda`; `featurize_all`
    gets the same value for many pairs from one `topicmodel.fit_lda_each`.
    """
    overlap = _overlap_without_fit(doc_a, doc_b, top_n)
    if overlap is not None:
        return overlap
    model = topicmodel.fit_lda([doc_a, doc_b], n_topics=n_topics, iterations=iterations, seed=seed)
    return _fitted_overlap(model, doc_a, doc_b, top_n)


def _overlap_without_fit(
    doc_a: HashtagDocument, doc_b: HashtagDocument, top_n: int
) -> float | None:
    """The shared vocabulary size when no document exceeds `top_n` words, else None."""
    vocab_a, vocab_b = set(doc_a.tokens), set(doc_b.tokens)
    if len(vocab_a) <= top_n and len(vocab_b) <= top_n:
        return float(len(vocab_a & vocab_b))
    return None


def _fitted_overlap(
    model: topicmodel.TopicModel, doc_a: HashtagDocument, doc_b: HashtagDocument, top_n: int
) -> float:
    tops_a = model.doc_top_words(doc_a.doc_id, top_n)
    tops_b = model.doc_top_words(doc_b.doc_id, top_n)
    total = sum(len(set(a).intersection(b)) for a, b in zip(tops_a, tops_b))
    return total / model.n_topics


# ---------------------------------------------------------------------------
# user features

def user_features(tweets_a: Sequence[Tweet], tweets_b: Sequence[Tweet]) -> dict[str, float]:
    """Audience statistics of the two constituents' window tweets.

    Counts are of distinct user ids, distinct mentioned ids, and distinct
    retweet tweet ids; "common" counts the intersection.
    """
    users_a = {t.user_id for t in tweets_a}
    users_b = {t.user_id for t in tweets_b}
    mentions_a = {m for t in tweets_a for m in t.mentions}
    mentions_b = {m for t in tweets_b for m in t.mentions}
    retweets_a = {t.id for t in tweets_a if t.retweet_of is not None}
    retweets_b = {t.id for t in tweets_b if t.retweet_of is not None}
    return {
        "unique_users_a": float(len(users_a)),
        "unique_users_b": float(len(users_b)),
        "common_users": float(len(users_a & users_b)),
        "unique_mentions_a": float(len(mentions_a)),
        "unique_mentions_b": float(len(mentions_b)),
        "common_mentions": float(len(mentions_a & mentions_b)),
        "unique_retweets_a": float(len(retweets_a)),
        "unique_retweets_b": float(len(retweets_b)),
        "common_retweets": float(len(retweets_a & retweets_b)),
    }


# ---------------------------------------------------------------------------
# assembly

@dataclass
class FeatureResources:
    """Everything featurization needs beyond the corpus index.

    The topic fits behind `topic_overlap` run `lda_iterations` sweeps from
    `lda_seed`: one `fit_lda` per pair in `featurize`, one `fit_lda_each`
    over every pair in `featurize_all`.
    """

    dictionary: Dictionary
    ngrams: NgramTable
    pos_lexicon: PosLexicon
    gazetteer: EntityGazetteer
    lda_iterations: int = 1000
    lda_seed: int = 0


def _read_window(
    index: CorpusIndex, canonical: str, window: tuple[int, int], table: NgramTable
) -> tuple[list[Tweet], Counter, set[str], HashtagDocument]:
    """One constituent's window tweets, token counts, table n-grams and plain-word document.

    Tokens come from the index, and the counts are filled tweet by tweet in
    the index's (time, id) order. The document is the one
    `topicmodel.build_documents` makes for the same window.
    """
    tweets = index.tweets_between(canonical, *window)
    counts: Counter = Counter()
    ngrams: set[str] = set()
    plain: list[str] = []
    for tweet in tweets:
        tokens = index.tokens_of(tweet)
        counts.update(tokens)
        ngrams.update(_known_phrases(tokens, table))
        plain.extend(index.plain_tokens_of(tweet))
    if not tweets:
        logger.warning("hashtag %r has no tweets in window, clarity and diversity set to 0",
                       canonical)
    document = HashtagDocument(f"{canonical}@{window[1]}", canonical, tuple(plain))
    return tweets, counts, ngrams, document


def featurize(
    candidate: CompoundCandidate,
    index: CorpusIndex,
    resources: FeatureResources,
    schema: FeatureSchema,
    combo: ZoneCombo | None = None,
) -> FeatureVector:
    """Full feature vector of one eligible candidate.

    Raises InsufficientHistoryError when the corpus does not span the whole
    observation window.
    """
    values, doc_a, doc_b = _window_features(candidate, index, resources, schema, combo)
    values["topic_overlap"] = avg_topic_overlap(
        doc_a, doc_b, schema.config.lda_topics, resources.lda_iterations, resources.lda_seed
    )
    return FeatureVector({name: values[name] for name in schema.names}, schema.schema_id)


def _window_features(
    candidate: CompoundCandidate,
    index: CorpusIndex,
    resources: FeatureResources,
    schema: FeatureSchema,
    combo: ZoneCombo | None,
) -> tuple[dict[str, float], HashtagDocument, HashtagDocument]:
    """Every feature of one candidate but `topic_overlap`, and its two window documents."""
    if schema is None:
        raise ValueError("featurize needs a derived schema")
    config = schema.config
    window = observation_window(candidate.compound_first_seen, config.obs_months)
    if window[0] < index.coverage_start:
        raise InsufficientHistoryError(
            f"observation window of {candidate.compound.canonical!r} starts before corpus coverage"
        )

    part_a = candidate.part_a.canonical
    part_b = candidate.part_b.canonical
    tweets_a, counts_a, ngrams_a, doc_a = _read_window(index, part_a, window, resources.ngrams)
    tweets_b, counts_b, ngrams_b, doc_b = _read_window(index, part_b, window, resources.ngrams)

    values: dict[str, float] = {}
    values["char_length"] = float(char_length(candidate))
    values["word_count"] = float(word_count(candidate, resources.dictionary))
    values["ngram_presence"] = float(
        ngram_presence(candidate, resources.dictionary, resources.ngrams)
    )
    values["pos_diversity"] = pos_diversity(candidate, resources.pos_lexicon, resources.dictionary)

    if combo is None:
        combo = zone_combo(
            candidate, resources.dictionary, resources.pos_lexicon, resources.gazetteer
        )
    values.update(combo_bits(combo, schema.combo))

    values["word_overlap"] = word_overlap(counts_a, counts_b)
    values["ngram_overlap"] = ngram_overlap(ngrams_a, ngrams_b)
    values["avg_common_ngram_freq"] = avg_common_ngram_freq(ngrams_a, ngrams_b, resources.ngrams)
    values["collocation_frequency"] = float(collocation_frequency(tweets_a, part_b))
    values["clarity_a"] = hashtag_clarity(index, counts_a, window[1])
    values["clarity_b"] = hashtag_clarity(index, counts_b, window[1])
    values["word_diversity_a"] = word_diversity(counts_a)
    values["word_diversity_b"] = word_diversity(counts_b)

    values.update(user_features(tweets_a, tweets_b))
    return values, doc_a, doc_b


def featurize_all(
    candidates: Sequence[CompoundCandidate],
    index: CorpusIndex,
    resources: FeatureResources,
    config: ObservationConfig,
) -> tuple[list[FeatureVector], list[ZoneCombo], FeatureSchema, int]:
    """Vectors, zone combos, the schema bound from those combos, and the topic fits run.

    Each vector equals `featurize(c, index, resources, schema, combo)`. The
    pairs whose `topic_overlap` needs a fit are fitted in one
    `topicmodel.fit_lda_each` call, which gives every pair the model that
    its own `fit_lda` would; the last value counts them. Vectors and combos
    are in input order. Nothing here changes the index or the resources, and
    the combo binding does not depend on order, so a candidate's vector is
    the same whatever the order of `candidates`.
    """
    combos = [
        zone_combo(c, resources.dictionary, resources.pos_lexicon, resources.gazetteer)
        for c in candidates
    ]
    schema = build_schema(combos, config)
    rows = [
        _window_features(c, index, resources, schema, combo)
        for c, combo in zip(candidates, combos)
    ]
    fitted = []
    for values, doc_a, doc_b in rows:
        overlap = _overlap_without_fit(doc_a, doc_b, TOPIC_TOP_N)
        if overlap is None:
            fitted.append((values, doc_a, doc_b))
        else:
            values["topic_overlap"] = overlap
    models = topicmodel.fit_lda_each(
        [[doc_a, doc_b] for _, doc_a, doc_b in fitted], n_topics=config.lda_topics,
        iterations=resources.lda_iterations, seed=resources.lda_seed,
    )
    for (values, doc_a, doc_b), model in zip(fitted, models):
        values["topic_overlap"] = _fitted_overlap(model, doc_a, doc_b, TOPIC_TOP_N)
    schema_id = schema.schema_id
    vectors = [
        FeatureVector({name: values[name] for name in schema.names}, schema_id)
        for values, _, _ in rows
    ]
    return vectors, combos, schema, len(fitted)


# ---------------------------------------------------------------------------
# feature matrix files

def _sidecar_path(csv_path) -> str:
    base = str(csv_path)
    if base.endswith(".csv"):
        base = base[: -len(".csv")]
    return base + ".schema.json"


def write_feature_csv(
    path,
    vectors: Sequence[FeatureVector],
    labels: Sequence[int],
    schema: FeatureSchema,
    combos: Sequence[ZoneCombo] | None = None,
) -> None:
    """Feature matrix as CSV plus a JSON sidecar describing the schema.

    The sidecar also carries each row's raw zone combo so later evaluation
    can re-derive combination slots inside training folds.
    """
    if len(vectors) != len(labels):
        raise ValueError("vectors and labels differ in length")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(schema.names) + ["label"])
        for vec, label in zip(vectors, labels):
            writer.writerow([repr(vec.values[n]) for n in schema.names] + [str(int(label))])
    sidecar = {
        "format": SCHEMA_FORMAT,
        "version": SCHEMA_VERSION,
        "schema_id": schema.schema_id,
        "features": [
            {"name": n, "group": schema.groups[n], "binary": n in schema.binary}
            for n in schema.names
        ],
        "combo": schema.combo.to_payload(),
        "config": asdict(schema.config),
    }
    if combos is not None:
        sidecar["row_combos"] = [
            {"pos": " ".join(c.pos), "ne": " ".join(c.ne), "oov": c.oov} for c in combos
        ]
    with open(_sidecar_path(path), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(sidecar, sort_keys=True, indent=1))
        fh.write("\n")


def read_feature_csv(
    path, schema_path=None
) -> tuple[np.ndarray, np.ndarray, FeatureSchema, list[ZoneCombo] | None]:
    """Load a feature matrix and its sidecar back into memory.

    A row of the wrong width, a feature that is no number or a label other
    than 0 or 1 raises CorpusFormatError naming the file and line.
    """
    schema_path = schema_path or _sidecar_path(path)
    schema, combos = read_json(schema_path, _decode_sidecar, SCHEMA_FORMAT, SCHEMA_VERSION)
    rows: list[list[float]] = []
    labels: list[int] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != list(schema.names) + ["label"]:
            raise CorpusFormatError(f"{path}: header does not match schema")
        for row in reader:
            if not row:
                continue
            where = f"{path}:{reader.line_num}"
            if len(row) != len(header):
                raise CorpusFormatError(f"{where}: {len(row)} cells, expected {len(header)}")
            try:
                rows.append([float(v) for v in row[:-1]])
            except ValueError as exc:
                raise CorpusFormatError(f"{where}: {exc}") from exc
            if row[-1] not in ("0", "1"):
                raise CorpusFormatError(f"{where}: label {row[-1]!r} is not 0 or 1")
            labels.append(int(row[-1]))
    if combos is not None and len(combos) != len(rows):
        raise CorpusFormatError(f"{schema_path}: row_combos does not match the matrix")
    return np.array(rows, dtype=float), np.array(labels, dtype=int), schema, combos


def _decode_sidecar(sidecar: dict) -> tuple[FeatureSchema, list[ZoneCombo] | None]:
    features = sidecar["features"]
    schema = FeatureSchema(
        names=tuple(f["name"] for f in features),
        groups={f["name"]: f["group"] for f in features},
        binary=frozenset(f["name"] for f in features if f["binary"]),
        combo=ComboSchema.from_payload(sidecar["combo"]),
        config=ObservationConfig(**dataclass_fields(ObservationConfig, sidecar["config"])),
    )
    combos = None
    if "row_combos" in sidecar:
        combos = [
            ZoneCombo(pos=_split_pair(c["pos"]), ne=_split_pair(c["ne"]), oov=_text(c["oov"]))
            for c in sidecar["row_combos"]
        ]
    return schema, combos
