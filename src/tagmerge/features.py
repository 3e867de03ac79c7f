"""Socio-linguistic features of compound candidates.

Every feature reads only tweets inside the candidate's observation window,
the open interval of `obs_months` months ending at the compounding instant.
Nothing at or after t0 may influence a vector; appending later tweets to the
corpus must leave previously computed vectors bit-identical.

`featurize_all` reads each constituent's window once, as the positions of
its tweets in the index and their token stream: one `Counter` of their token
ids, the table n-grams among their token ids, and one topic document of the
ids of its plain words (hashtag and mention tokens dropped), an int32 array.
The window extractors take those, or read the users, mentions and retweets
of the positions from the index's columns; none of them builds a `Tweet` or
turns a token id back into a word. `topic_overlap` fits its topic model,
when it needs one, on the candidate's own two documents, so it too depends
on nothing but the candidate's window. `featurize_all` runs all those pair
fits in one `topicmodel.fit_lda_batch` on the id documents, and counts each
pair's shared top words as `word_topic` rows. The index vocabulary is
sorted, so each pair gets the model, and the ranking, that its own
`topicmodel.fit_lda` of the word documents of `topicmodel.build_documents`
would; `avg_topic_overlap` is that one-pair fit. `featurize_all` also
reads the background of each distinct window end once, as
`clarity_background`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
from collections import Counter
from collections.abc import Iterator, Sequence, Set
from dataclasses import asdict, astuple, dataclass
from typing import Iterable

import numpy as np

from .compound import CompoundCandidate, segment_hashtag
from .corpus import CorpusIndex, observation_window
from .errors import CorpusFormatError, InsufficientHistoryError, dataclass_fields, read_json
from .lexicon import Dictionary, EntityGazetteer, NgramTable, PosLexicon, ner_tag, pos_tag
from . import topicmodel
from .topicmodel import HashtagDocument, IdDocument

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


# the combination-slot columns, which `learn` rebinds inside each training fold
POS_SLOT_NAMES = tuple(f"pos_combo_{i:02d}" for i in range(POS_SLOTS))
NE_SLOT_NAMES = tuple(f"ne_combo_{i:02d}" for i in range(NE_SLOTS))
_OOV_NAMES = tuple(f"zone_{p.lower().replace('-', '_')}" for p in OOV_PAIRS)


def feature_layout() -> tuple[tuple[str, ...], dict[str, str], frozenset[str]]:
    """Canonical feature order, group tags, and the binary feature set."""
    names: list[str] = ["char_length", "word_count", "ngram_presence", "pos_diversity"]
    names += POS_SLOT_NAMES + NE_SLOT_NAMES + _OOV_NAMES
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
    binary = frozenset(("ngram_presence",) + POS_SLOT_NAMES + NE_SLOT_NAMES + _OOV_NAMES)
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
    for name, pair in zip(POS_SLOT_NAMES, schema.pos_pairs):
        out[name] = 1.0 if pair is not None and pair == combo.pos else 0.0
    for name, pair in zip(NE_SLOT_NAMES, schema.ne_pairs):
        out[name] = 1.0 if pair is not None and pair == combo.ne else 0.0
    for name, pair in zip(_OOV_NAMES, OOV_PAIRS):
        out[name] = 1.0 if combo.oov == pair else 0.0
    return out


# ---------------------------------------------------------------------------
# tweet content features

class PhraseIds:
    """An n-gram table's phrases as runs of one index's token ids.

    A phrase matches a run of tokens exactly when its words, split at single
    spaces, are those tokens, since no token holds whitespace. So a phrase
    with a word the index's vocabulary lacks, or of other than 2..5 words,
    matches nothing and is left out. `entries` maps each kept run to its
    phrase and table frequency.
    """

    def __init__(self, table: NgramTable, index: CorpusIndex):
        self.entries: dict[tuple[int, ...], tuple[str, int]] = {}
        for phrase, freq in table.entries.items():
            ids = tuple(map(index.word_index, phrase.split(" ")))
            if 2 <= len(ids) <= 5 and None not in ids:
                self.entries[ids] = (phrase, freq)
        self._firsts = {ids[0] for ids in self.entries}

    def find(self, token_ids: Sequence[int], bounds: Sequence[int]) -> Iterator[tuple[int, ...]]:
        """Kept runs among the 2..5-token windows of each tweet's token ids.

        The ids of tweet k are token_ids[bounds[k]:bounds[k + 1]]
        (`CorpusIndex.token_ids`); no run spans two tweets.
        """
        if self._firsts.isdisjoint(token_ids):
            return
        for start, end in zip(bounds, bounds[1:]):
            for i in range(start, end):
                if token_ids[i] in self._firsts:
                    for n in range(2, min(5, end - i) + 1):
                        run = tuple(token_ids[i : i + n])
                        if run in self.entries:
                            yield run


def word_overlap(counts_a: Counter, counts_b: Counter) -> float:
    """Overlap coefficient of the two constituents' token sets."""
    return overlap_coefficient(counts_a.keys(), counts_b.keys())


def ngram_overlap(ngrams_a: Set[tuple[int, ...]], ngrams_b: Set[tuple[int, ...]]) -> float:
    """Overlap coefficient of the two constituents' valid n-gram sets."""
    return overlap_coefficient(ngrams_a, ngrams_b)


def avg_common_ngram_freq(
    ngrams_a: Set[tuple[int, ...]], ngrams_b: Set[tuple[int, ...]], phrases: PhraseIds
) -> float:
    """Mean table frequency of the n-grams both constituents share, summed in phrase order."""
    common = ngrams_a & ngrams_b
    if not common:
        return 0.0
    return float(np.mean([freq for _, freq in sorted(map(phrases.entries.__getitem__, common))]))


def collocation_frequency(positions_a: Sequence[int], positions_b: Sequence[int]) -> int:
    """Tweets of the first constituent's window that also carry the second.

    Both windows span the same interval, so those are the positions the two
    share.
    """
    return len(set(positions_a).intersection(positions_b))


def clarity_background(bg_counts: np.ndarray, bg_total: int) -> tuple[np.ndarray, int, np.ndarray]:
    """What `hashtag_clarity` reads of a background: the mask of the words
    that `bg_counts` holds, how many they are, and their probabilities.

    `bg_counts` and `bg_total` are `CorpusIndex.background_before` of a
    window's end: the corpus token counts strictly before it and their total.
    """
    support = bg_counts > 0
    return support, int(support.sum()), bg_counts[support] / bg_total


def hashtag_clarity(counts: Counter, background: tuple[np.ndarray, int, np.ndarray]) -> float:
    """KL divergence of a hashtag's language model from the background.

    `counts` holds the hashtag's window token ids and `background` is the
    `clarity_background` of the window's end. High divergence means focused
    use. The hashtag side is additively smoothed over the background's
    vocabulary. No tokens score zero.
    """
    n_tokens = sum(counts.values())
    if n_tokens == 0:
        return 0.0
    support, v, q = background
    tag_counts = np.zeros(len(support), dtype=np.int64)
    tag_counts[list(counts)] = list(counts.values())
    p = (tag_counts[support] + CLARITY_EPS) / (n_tokens + CLARITY_EPS * v)
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
    gets the same value for many pairs from one `topicmodel.fit_lda_batch`.
    """
    overlap = _overlap_without_fit(set(doc_a.tokens), set(doc_b.tokens), top_n)
    if overlap is not None:
        return overlap
    model = topicmodel.fit_lda([doc_a, doc_b], n_topics=n_topics, iterations=iterations, seed=seed)
    return _fitted_overlap(model, doc_a.doc_id, doc_b.doc_id, top_n)


def _overlap_without_fit(vocab_a: Set, vocab_b: Set, top_n: int) -> float | None:
    """The shared vocabulary size when no document exceeds `top_n` words, else None."""
    if len(vocab_a) <= top_n and len(vocab_b) <= top_n:
        return float(len(vocab_a & vocab_b))
    return None


def _fitted_overlap(model: topicmodel.TopicModel, doc_a: str, doc_b: str, top_n: int) -> float:
    """The mean over topics of how many of their top `top_n` words two
    documents of `model` share, counted as `word_topic` rows."""
    topics = np.arange(model.n_topics)
    top_a = np.zeros(model.word_topic.shape, dtype=bool)
    top_a[model.doc_top_rows(doc_a, top_n), topics] = True
    shared = int(np.count_nonzero(top_a[model.doc_top_rows(doc_b, top_n), topics]))
    return shared / model.n_topics


# ---------------------------------------------------------------------------
# user features

def user_features(
    index: CorpusIndex, positions_a: Sequence[int], positions_b: Sequence[int]
) -> dict[str, float]:
    """Audience statistics of the two constituents' window tweets.

    Counts are of distinct user ids, distinct mentioned ids, and distinct
    retweet tweet ids; "common" counts the intersection.
    """
    users_a, mentions_a, retweets_a = index.audience(positions_a)
    users_b, mentions_b, retweets_b = index.audience(positions_b)
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
    `lda_seed`, in one `fit_lda_batch` over every pair of `featurize_all`.
    """

    dictionary: Dictionary
    ngrams: NgramTable
    pos_lexicon: PosLexicon
    gazetteer: EntityGazetteer
    lda_iterations: int = 1000
    lda_seed: int = 0


def _read_window(
    index: CorpusIndex, canonical: str, window: tuple[int, int], phrases: PhraseIds
) -> tuple[Sequence[int], Counter, set[tuple[int, ...]], IdDocument]:
    """One constituent's window: its tweet positions, token id counts, table
    n-grams and topic document.

    The counts are filled tweet by tweet in the index's (time, id) order,
    and n-grams never span two tweets. The document holds the index
    vocabulary ids of the words of the one `topicmodel.build_documents`
    makes for the same window.
    """
    positions = index.positions_between(canonical, *window)
    token_ids, bounds, plain_ids = index.token_ids(positions)
    counts = Counter(token_ids)
    ngrams = set(phrases.find(token_ids, bounds))
    if not positions:
        logger.warning("hashtag %r has no tweets in window, clarity and diversity set to 0",
                       canonical)
    return positions, counts, ngrams, IdDocument(f"{canonical}@{window[1]}", plain_ids)


def _window_features(
    candidate: CompoundCandidate,
    index: CorpusIndex,
    resources: FeatureResources,
    schema: FeatureSchema,
    combo: ZoneCombo,
    phrases: PhraseIds,
    backgrounds: dict[int, tuple[np.ndarray, int, np.ndarray]],
) -> tuple[dict[str, float], IdDocument, IdDocument]:
    """Every feature of one candidate but `topic_overlap`, and its two topic documents.

    `backgrounds` caches the `clarity_background` of `index.background_before`
    by window end.
    """
    config = schema.config
    window = observation_window(candidate.compound_first_seen, config.obs_months)
    if window[0] < index.coverage_start:
        raise InsufficientHistoryError(
            f"observation window of {candidate.compound.canonical!r} starts before corpus coverage"
        )

    part_a = candidate.part_a.canonical
    part_b = candidate.part_b.canonical
    positions_a, counts_a, ngrams_a, doc_a = _read_window(index, part_a, window, phrases)
    positions_b, counts_b, ngrams_b, doc_b = _read_window(index, part_b, window, phrases)
    background = backgrounds.get(window[1])
    if background is None:
        background = backgrounds[window[1]] = clarity_background(
            *index.background_before(window[1]))

    values: dict[str, float] = {}
    values["char_length"] = float(char_length(candidate))
    values["word_count"] = float(word_count(candidate, resources.dictionary))
    values["ngram_presence"] = float(
        ngram_presence(candidate, resources.dictionary, resources.ngrams)
    )
    values["pos_diversity"] = pos_diversity(candidate, resources.pos_lexicon, resources.dictionary)
    values.update(combo_bits(combo, schema.combo))

    values["word_overlap"] = word_overlap(counts_a, counts_b)
    values["ngram_overlap"] = ngram_overlap(ngrams_a, ngrams_b)
    values["avg_common_ngram_freq"] = avg_common_ngram_freq(ngrams_a, ngrams_b, phrases)
    values["collocation_frequency"] = float(collocation_frequency(positions_a, positions_b))
    values["clarity_a"] = hashtag_clarity(counts_a, background)
    values["clarity_b"] = hashtag_clarity(counts_b, background)
    values["word_diversity_a"] = word_diversity(counts_a)
    values["word_diversity_b"] = word_diversity(counts_b)

    values.update(user_features(index, positions_a, positions_b))
    return values, doc_a, doc_b


def featurize_all(
    candidates: Sequence[CompoundCandidate],
    index: CorpusIndex,
    resources: FeatureResources,
    config: ObservationConfig,
) -> tuple[list[FeatureVector], list[ZoneCombo], FeatureSchema, int]:
    """Vectors, zone combos, the schema bound from those combos, and the topic fits run.

    Raises InsufficientHistoryError when the corpus does not span a
    candidate's whole observation window. The pairs whose `topic_overlap`
    needs a fit are fitted in one `topicmodel.fit_lda_batch` call on their id
    documents, which gives every pair the model that its own `fit_lda` would;
    the last value counts them.
    The background of each distinct window end is read once. Vectors and combos
    are in input order. Nothing here changes the index or the resources, and
    the combo binding does not depend on order, so a candidate's vector is
    the same whatever the order of `candidates`.
    """
    combos = [
        zone_combo(c, resources.dictionary, resources.pos_lexicon, resources.gazetteer)
        for c in candidates
    ]
    schema = build_schema(combos, config)
    phrases = PhraseIds(resources.ngrams, index)
    backgrounds: dict[int, tuple[np.ndarray, int, np.ndarray]] = {}
    rows = [
        _window_features(c, index, resources, schema, combo, phrases, backgrounds)
        for c, combo in zip(candidates, combos)
    ]
    fitted = []
    for values, doc_a, doc_b in rows:
        overlap = _overlap_without_fit(
            set(doc_a.ids.tolist()), set(doc_b.ids.tolist()), TOPIC_TOP_N)
        if overlap is None:
            fitted.append((values, doc_a, doc_b))
        else:
            values["topic_overlap"] = overlap
    models = topicmodel.fit_lda_batch(
        [[doc_a, doc_b] for _, doc_a, doc_b in fitted], index.vocabulary,
        n_topics=config.lda_topics, iterations=resources.lda_iterations, seed=resources.lda_seed,
    )
    for (values, doc_a, doc_b), model in zip(fitted, models):
        values["topic_overlap"] = _fitted_overlap(model, doc_a.doc_id, doc_b.doc_id, TOPIC_TOP_N)
    vectors = [FeatureVector({name: values[name] for name in schema.names})
               for values, _, _ in rows]
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
    combos: Sequence[ZoneCombo],
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
        "row_combos": [
            {"pos": " ".join(c.pos), "ne": " ".join(c.ne), "oov": c.oov} for c in combos
        ],
    }
    with open(_sidecar_path(path), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(sidecar, sort_keys=True, indent=1))
        fh.write("\n")


def read_feature_csv(path) -> tuple[np.ndarray, np.ndarray, FeatureSchema, list[ZoneCombo] | None]:
    """Load a feature matrix and its sidecar back into memory.

    A row of the wrong width, a feature that is not a finite number or a
    label other than 0 or 1 raises CorpusFormatError naming the file and
    line. No extractor writes a non-finite value.
    """
    schema_path = _sidecar_path(path)
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
                values = [float(v) for v in row[:-1]]
            except ValueError as exc:
                raise CorpusFormatError(f"{where}: {exc}") from exc
            for cell, value in zip(row, values):
                if not math.isfinite(value):
                    raise CorpusFormatError(f"{where}: feature cell {cell!r} is not finite")
            rows.append(values)
            if row[-1] not in ("0", "1"):
                raise CorpusFormatError(f"{where}: label {row[-1]!r} is not 0 or 1")
            labels.append(int(row[-1]))
    if combos is not None and len(combos) != len(rows):
        raise CorpusFormatError(f"{schema_path}: row_combos does not match the matrix")
    return np.array(rows, dtype=float), np.array(labels, dtype=int), schema, combos


def _decode_sidecar(sidecar: dict) -> tuple[FeatureSchema, list[ZoneCombo] | None]:
    features = sidecar["features"]
    groups = {f["name"]: f["group"] for f in features}
    for name, group in groups.items():
        if group not in GROUPS:
            raise ValueError(f"feature {name!r} has unknown group {group!r}")
    schema = FeatureSchema(
        names=tuple(f["name"] for f in features),
        groups=groups,
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
