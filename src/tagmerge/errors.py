"""Exception types shared across the package, and the strict JSON artifact reader."""

from __future__ import annotations

import json
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


def read_json(path, decode, fmt=None, version=None):
    """`decode(payload)` of the JSON object stored in `path`.

    Raises CorpusFormatError naming the file when it is not JSON, holds no
    object, carries another `format` or `version` than the given ones, or
    when `decode` meets a missing key or a value of the wrong type
    (`KeyError`, `TypeError`). Only `decode` is guarded, so a fault in the
    code that uses its result still surfaces as itself.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
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


def dataclass_fields(cls, payload: dict) -> dict:
    """Every field of dataclass `cls` read from `payload`, JSON lists as tuples.

    A missing field raises KeyError, whether or not it has a default; keys
    that name no field are ignored.
    """
    return {f.name: _tuples(payload[f.name]) for f in fields(cls)}


def _tuples(value):
    return tuple(map(_tuples, value)) if isinstance(value, list) else value
