"""Shared fixtures and small builders used across the test modules."""

import calendar

import numpy as np
import pytest

from tagmerge.corpus import Tweet


def utc(year, month, day, hour=0, minute=0, second=0):
    """Epoch seconds for a UTC wall-clock instant, via the calendar module."""
    return calendar.timegm((year, month, day, hour, minute, second))


_SEQ = {"n": 0}


def make_tweet(text, ts, user="u1", tid=None, retweet_of=None, mentions=None):
    if tid is None:
        _SEQ["n"] += 1
        tid = f"t{_SEQ['n']:06d}"
    return Tweet(
        id=tid,
        timestamp=ts,
        user_id=user,
        text=text,
        retweet_of=retweet_of,
        mentions=mentions,
    )


def rewrite_index(path, **members):
    """Rewrite the index file at `path` with some members replaced, or dropped when None."""
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    for name, value in members.items():
        if value is None:
            del arrays[name]
        else:
            arrays[name] = value
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def string_members(name, strings):
    """The members of an index file's string column `name` holding `strings`."""
    encoded = [s.encode("utf-8") for s in strings]
    return {name: np.frombuffer(b"".join(encoded), dtype=np.uint8),
            f"{name}_offsets": np.cumsum([0] + [len(e) for e in encoded], dtype=np.int64)}


@pytest.fixture
def lexicon_dir(tmp_path):
    """Directory with a small dictionary, pos lexicon, ngram table and gazetteer."""
    (tmp_path / "dictionary.txt").write_text(
        "\n".join(
            [
                "a",
                "advice",
                "back",
                "bee",
                "black",
                "coming",
                "fresh",
                "freshman",
                "golden",
                "globes",
                "i",
                "love",
                "man",
                "new",
                "spelling",
                "started",
                "still",
                "york",
            ]
        )
        + "\n"
    )
    (tmp_path / "pos_lexicon.tsv").write_text(
        "advice\tN\nback\tR\nbee\tN\nblack\tA\ncoming\tV\nfreshman\tN\n"
        "golden\tA\nglobes\tN\ni\tO\nlove\tV\nnew\tA\nspelling\tN\n"
        "started\tV\nstill\tR\nyork\tN\n"
    )
    (tmp_path / "ngrams.tsv").write_text(
        "golden globes\t120\nnew york\t500\nspelling bee\t40\ncoming back\t33\n"
    )
    (tmp_path / "gazetteer.tsv").write_text("new york\tplace\ngolden globes\tevent\n")
    return tmp_path
