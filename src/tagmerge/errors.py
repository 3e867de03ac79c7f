"""Exception types shared across the package, and the strict JSON and TSV readers."""

from __future__ import annotations

import functools
import json
import reprlib
import typing
from dataclasses import fields


class TagmergeError(Exception):
    """Base class for errors raised by this package."""


class CorpusFormatError(TagmergeError):
    """Raised when an input corpus or resource file is unusable."""


class InsufficientHistoryError(TagmergeError):
    """Raised when the corpus does not cover a requested time horizon.

    Truncating the horizon silently would corrupt labels, so callers must
    either extend the corpus or request a shorter horizon.
    """


def read_tsv(path, columns, header=False):
    """Yield `(where, cells)` for each non-blank line of the tab-separated file `path`.

    `where` is "path:line", for the caller's own cell checks to name. Lines
    of whitespace only are skipped. With `header`, the first line must be
    exactly `columns`. A line of another cell count than `columns` raises
    CorpusFormatError naming its `where`, the count found and the columns.
    """
    expected = "<TAB>".join(columns)
    with open(path, encoding="utf-8") as fh:
        if header and fh.readline().rstrip("\n").split("\t") != list(columns):
            raise CorpusFormatError(f"{path}: header is not {expected}")
        for line_no, line in enumerate(fh, start=2 if header else 1):
            if not line.strip():
                continue
            cells = line.rstrip("\n").split("\t")
            if len(cells) != len(columns):
                raise CorpusFormatError(
                    f"{path}:{line_no}: found {len(cells)} cells, expected {len(columns)} ({expected})"
                )
            yield f"{path}:{line_no}", cells


def read_json(path, decode, fmt=None, version=None):
    """`decode(payload)` of the JSON object stored in `path`; see `decode_json`."""
    with open(path, "rb") as fh:
        return decode_json(path, fh.read(), decode, fmt, version)


def decode_json(path, data: bytes, decode, fmt=None, version=None):
    """`decode(payload)` of the JSON object held in `data`, the bytes of `path`.

    Raises CorpusFormatError naming the file when it is not UTF-8 JSON,
    holds no object, carries another `format` or `version` than the given
    ones, or when `decode` meets a missing key, a value of the wrong type or
    a bad value (`KeyError`, `TypeError`, `ValueError`). Only `decode` is
    guarded, so a fault in the code that uses its result still surfaces as
    itself.
    """
    try:
        payload = json.loads(data.decode("utf-8"))
    except ValueError as exc:
        raise CorpusFormatError(f"{path}: not a JSON file: {exc}") from exc
    if not isinstance(payload, dict):
        raise CorpusFormatError(f"{path}: expected a JSON object, found {type(payload).__name__}")
    if fmt is not None and payload.get("format") != fmt:
        raise CorpusFormatError(f"{path}: not a {fmt} file")
    if version is not None and payload.get("version") != version:
        raise CorpusFormatError(f"{path}: unsupported {fmt} version {payload.get('version')!r}")
    try:
        return decode(payload)
    except KeyError as exc:
        raise CorpusFormatError(f"{path}: missing key {exc}") from exc
    except TypeError as exc:
        raise CorpusFormatError(f"{path}: malformed value: {exc}") from exc
    except ValueError as exc:
        raise CorpusFormatError(f"{path}: bad value: {exc}") from exc


def dataclass_fields(cls, payload: dict) -> dict:
    """Every field of dataclass `cls` read from `payload`, JSON lists as tuples.

    A missing field raises KeyError, whether or not it has a default; keys
    that name no field are ignored. A value that does not fit its field's
    annotation raises TypeError; `_fits` says which annotations are checked.
    """
    hints = _hints(cls)
    out = {}
    for f in fields(cls):
        value = _tuples(payload[f.name])
        if not _fits(value, hints[f.name]):
            raise TypeError(f"field {f.name!r} has a wrong-typed value {reprlib.repr(value)}")
        out[f.name] = value
    return out


@functools.cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _fits(value, hint) -> bool:
    """Whether `value` fits `hint`.

    Checked are int (not bool), float (int accepted), str and homogeneous
    tuples of these; any other annotation accepts every value.
    """
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is str:
        return isinstance(value, str)
    if typing.get_origin(hint) is tuple and typing.get_args(hint)[1:] == (Ellipsis,):
        item = typing.get_args(hint)[0]
        return isinstance(value, tuple) and all(_fits(v, item) for v in value)
    return True


def _tuples(value):
    return tuple(map(_tuples, value)) if isinstance(value, list) else value
