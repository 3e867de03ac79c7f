"""Lexical resources: dictionary, n-gram table, POS lexicon, entity gazetteer.

All resources load from line-oriented text files through `errors.read_tsv`,
so a damaged line names its file and line, and all are case-insensitive.
The POS tagset is closed; words outside the lexicon fall back to suffix
heuristics, then capitalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import CorpusFormatError, read_tsv

TAGSET = ("^", "N", "O", "V", "A", "R", "D", "P", "X")

_SUFFIX_RULES = (
    ("ly", "R"),
    ("ing", "V"),
    ("ed", "V"),
    ("ous", "A"),
    ("ful", "A"),
    ("ive", "A"),
)


@dataclass(frozen=True)
class Dictionary:
    """In-vocabulary word list."""

    words: frozenset[str]

    def __contains__(self, word: str) -> bool:
        return word.lower() in self.words

    def __len__(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class NgramTable:
    """Known phrases of 2..5 words with raw corpus frequencies."""

    entries: dict[str, int]


@dataclass(frozen=True)
class PosLexicon:
    tags: dict[str, str]


@dataclass(frozen=True)
class EntityGazetteer:
    """Phrase to entity-type map with the closed label set it induces."""

    phrases: dict[tuple[str, ...], str]
    labels: frozenset[str]
    max_phrase_len: int


def load_dictionary(path) -> Dictionary:
    """One word per line, blank lines ignored; a line holding a tab is malformed."""
    words = {cells[0].strip().lower() for _, cells in read_tsv(path, ("word",))}
    if not words:
        raise CorpusFormatError(f"{path}: dictionary is empty")
    return Dictionary(words=frozenset(words))


def load_ngram_table(path) -> NgramTable:
    """Tab-separated "phrase<TAB>frequency" lines."""
    entries: dict[str, int] = {}
    for where, (phrase, freq_s) in read_tsv(path, ("phrase", "frequency")):
        phrase = " ".join(phrase.lower().split())
        n = len(phrase.split())
        if not 2 <= n <= 5:
            raise CorpusFormatError(f"{where}: phrase must have 2..5 words, got {n}")
        try:
            freq = int(freq_s)
        except ValueError:
            raise CorpusFormatError(f"{where}: bad frequency {freq_s!r}") from None
        if freq < 1:
            raise CorpusFormatError(f"{where}: frequency must be >= 1")
        entries[phrase] = freq
    return NgramTable(entries=entries)


def load_pos_lexicon(path) -> PosLexicon:
    """Tab-separated "word<TAB>tag" lines, tags from the closed tagset."""
    tags: dict[str, str] = {}
    for where, (word, tag) in read_tsv(path, ("word", "tag")):
        tag = tag.strip()
        if tag not in TAGSET:
            raise CorpusFormatError(f"{where}: unknown tag {tag!r}")
        tags[word.strip().lower()] = tag
    return PosLexicon(tags=tags)


def load_gazetteer(path) -> EntityGazetteer:
    """Tab-separated "phrase<TAB>entity_type" lines."""
    phrases: dict[tuple[str, ...], str] = {}
    types: set[str] = set()
    for where, (phrase, etype) in read_tsv(path, ("phrase", "entity_type")):
        words, etype = tuple(phrase.lower().split()), etype.strip()
        if not words or not etype:
            raise CorpusFormatError(f"{where}: empty phrase or type")
        phrases[words] = etype
        types.add(etype)
    labels = {"none"}
    for etype in types:
        labels.add(f"B-{etype}")
        labels.add(f"I-{etype}")
    max_len = max((len(w) for w in phrases), default=0)
    return EntityGazetteer(phrases=phrases, labels=frozenset(labels), max_phrase_len=max_len)


def pos_tag(lexicon: PosLexicon, words: Sequence[str]) -> list[str]:
    """Tag each word with the closed tagset.

    Lookup order: lexicon, suffix heuristics, capitalized -> proper noun,
    alphabetic -> common noun, anything else -> X.
    """
    out = []
    for word in words:
        if not word:
            raise ValueError("cannot tag an empty word")
        lower = word.lower()
        tag = lexicon.tags.get(lower)
        if tag is None:
            for suffix, candidate in _SUFFIX_RULES:
                if len(lower) > len(suffix) and lower.endswith(suffix) and lower.isalpha():
                    tag = candidate
                    break
        if tag is None:
            if word[0].isupper():
                tag = "^"
            elif lower.isalpha():
                tag = "N"
            else:
                tag = "X"
        out.append(tag)
    return out


def ner_tag(gazetteer: EntityGazetteer, words: Sequence[str]) -> list[str]:
    """BIO entity labels by longest gazetteer match, left to right."""
    lowered = [w.lower() for w in words]
    if any(not w for w in lowered):
        raise ValueError("cannot tag an empty word")
    labels: list[str] = []
    i = 0
    n = len(lowered)
    while i < n:
        match_len = 0
        match_type = ""
        limit = min(gazetteer.max_phrase_len, n - i)
        for length in range(limit, 0, -1):
            etype = gazetteer.phrases.get(tuple(lowered[i : i + length]))
            if etype is not None:
                match_len, match_type = length, etype
                break
        if match_len:
            labels.append(f"B-{match_type}")
            labels.extend(f"I-{match_type}" for _ in range(match_len - 1))
            i += match_len
        else:
            labels.append("none")
            i += 1
    return labels

