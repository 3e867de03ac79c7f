"""Lexical resource loaders and the tagging fallback chains."""

import pytest

from tagmerge.errors import CorpusFormatError
from tagmerge.lexicon import (
    load_dictionary,
    load_gazetteer,
    load_ngram_table,
    load_pos_lexicon,
    ner_tag,
    pos_tag,
)


def test_dictionary_is_case_insensitive(lexicon_dir, tmp_path):
    d = load_dictionary(lexicon_dir / "dictionary.txt")
    assert "love" in d.words
    assert "zzz" not in d.words
    path = tmp_path / "d.txt"
    path.write_text("Love\nFRESH\n")
    assert load_dictionary(path).words == {"love", "fresh"}


def test_empty_dictionary_rejected(tmp_path):
    path = tmp_path / "empty.txt"
    for blank in ("\n\n", " \n\t\n"):
        path.write_text(blank)
        with pytest.raises(CorpusFormatError, match="dictionary is empty"):
            load_dictionary(path)


def test_dictionary_line_holding_a_tab_is_malformed(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("love\nfresh\tman\n")
    with pytest.raises(CorpusFormatError, match=r"d\.txt:2: found 2 cells, expected 1"):
        load_dictionary(path)


def test_ngram_table_lookup(lexicon_dir):
    table = load_ngram_table(lexicon_dir / "ngrams.tsv")
    assert table.entries["golden globes"] == 120
    assert "no entry" not in table.entries
    # the loader lowercases and respaces phrases, so they match lowercased tokens
    mixed = lexicon_dir / "mixed.tsv"
    mixed.write_text("Golden   GLOBES\t7\n")
    assert load_ngram_table(mixed).entries == {"golden globes": 7}


def test_ngram_table_loader_strictness(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("two words\t3\n \t \nonly one word\n")
    with pytest.raises(CorpusFormatError, match=r"bad\.tsv:3: found 1 cells, expected 2"):
        load_ngram_table(bad)
    bad.write_text("two words\t3\textra\n")
    with pytest.raises(CorpusFormatError, match=r"bad\.tsv:1: found 3 cells"):
        load_ngram_table(bad)
    bad.write_text("two words\t3\n  \n\nthree more words\t4\n")
    assert load_ngram_table(bad).entries == {"two words": 3, "three more words": 4}
    bad.write_text("too many words in this phrase here\t3\n")
    with pytest.raises(CorpusFormatError):
        load_ngram_table(bad)
    bad.write_text("two words\tnotanumber\n")
    with pytest.raises(CorpusFormatError):
        load_ngram_table(bad)
    bad.write_text("two words\t0\n")
    with pytest.raises(CorpusFormatError):
        load_ngram_table(bad)


def test_pos_lexicon_rejects_unknown_tag(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("word\tZZ\n")
    with pytest.raises(CorpusFormatError):
        load_pos_lexicon(bad)
    bad.write_text("word\tN\n   \nother\tN\tV\n")
    with pytest.raises(CorpusFormatError, match=r"bad\.tsv:3: found 3 cells, expected 2"):
        load_pos_lexicon(bad)
    bad.write_text("word\tN\n   \n")
    assert load_pos_lexicon(bad).tags == {"word": "N"}


def test_pos_tag_lexicon_hit(lexicon_dir):
    lex = load_pos_lexicon(lexicon_dir / "pos_lexicon.tsv")
    assert pos_tag(lex, ["golden", "globes"]) == ["A", "N"]
    assert pos_tag(lex, ["LOVE"]) == ["V"]  # case folded before lookup


def test_pos_tag_suffix_fallbacks(lexicon_dir):
    lex = load_pos_lexicon(lexicon_dir / "pos_lexicon.tsv")
    # none of these are in the lexicon; suffix rules decide
    assert pos_tag(lex, ["quickly"]) == ["R"]
    assert pos_tag(lex, ["flarping"]) == ["V"]
    assert pos_tag(lex, ["zorbed"]) == ["V"]
    assert pos_tag(lex, ["glorious"]) == ["A"]


def test_pos_tag_final_fallbacks(lexicon_dir):
    lex = load_pos_lexicon(lexicon_dir / "pos_lexicon.tsv")
    assert pos_tag(lex, ["Obama"]) == ["^"]  # capitalized unknown
    assert pos_tag(lex, ["wug"]) == ["N"]  # lowercase alphabetic unknown
    assert pos_tag(lex, ["x2"]) == ["X"]  # non-alphabetic
    with pytest.raises(ValueError):
        pos_tag(lex, [""])


def test_suffix_rule_needs_a_proper_stem(lexicon_dir):
    lex = load_pos_lexicon(lexicon_dir / "pos_lexicon.tsv")
    # "ly" alone is not longer than its suffix; falls through to noun
    assert pos_tag(lex, ["ly"]) == ["N"]


def test_ner_tag_bio_and_longest_match(lexicon_dir):
    gaz = load_gazetteer(lexicon_dir / "gazetteer.tsv")
    assert ner_tag(gaz, ["new", "york", "rocks"]) == ["B-place", "I-place", "none"]
    assert ner_tag(gaz, ["NEW", "York"]) == ["B-place", "I-place"]
    assert ner_tag(gaz, ["golden"]) == ["none"]


def test_ner_tag_longest_match_wins(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("new\tword\nnew york\tplace\n")
    gaz = load_gazetteer(path)
    assert ner_tag(gaz, ["new", "york"]) == ["B-place", "I-place"]
    assert ner_tag(gaz, ["new", "day"]) == ["B-word", "none"]


def test_gazetteer_label_closure(lexicon_dir):
    gaz = load_gazetteer(lexicon_dir / "gazetteer.tsv")
    assert gaz.labels == frozenset(
        {"none", "B-place", "I-place", "B-event", "I-event"}
    )
    assert gaz.max_phrase_len == 2


def test_empty_gazetteer_tags_everything_none(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("")
    gaz = load_gazetteer(path)
    assert gaz.max_phrase_len == 0
    assert ner_tag(gaz, ["anything", "at", "all"]) == ["none", "none", "none"]


def test_gazetteer_loader_strictness(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("phrase without type\n")
    with pytest.raises(CorpusFormatError, match=r"g\.tsv:1: found 1 cells, expected 2"):
        load_gazetteer(path)
    path.write_text("new york\tplace\n \t \n")
    assert load_gazetteer(path).phrases == {("new", "york"): "place"}
    path.write_text("\ttype\n")
    with pytest.raises(CorpusFormatError):
        load_gazetteer(path)
