"""Canonical JSON encoding shared by reports, model files, and hashing.

Key order is the construction order of each dict (all producers in this
package build their dicts in a fixed order), floats are printed with 17
significant digits, and no locale- or version-dependent formatting is used,
so identical data always yields byte-identical text.
"""

from __future__ import annotations

import dataclasses
import math
from enum import Enum
from json.encoder import encode_basestring
from typing import Any

import numpy as np

_KIND_NAMES = {bool: "boolean", int: "integer", str: "string", list: "list", dict: "object"}


def exact(value: Any, kind: type, name: str) -> Any:
    """value, read back from JSON, if its type is exactly kind: true is not
    the integer 1, and neither "no" nor 1.9 is coerced."""
    if type(value) is not kind:
        raise ValueError(f"{name} must be a JSON {_KIND_NAMES[kind]}, got {value!r}")
    return value


def strings(value: Any, name: str) -> list[str]:
    """A copy of value, read back from JSON, if it is a list of strings."""
    if type(value) is not list or not all(type(item) is str for item in value):
        raise ValueError(f"{name} must be a JSON list of strings, got {value!r}")
    return list(value)


def plain(obj: Any) -> Any:
    """A report value as the JSON values canonical_dumps writes, the one rule
    for every report type: a dataclass becomes its fields in declaration
    order, a set or frozenset a sorted list, a list or tuple a list of plain
    items and an Enum its value; anything else is kept."""
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (str, int, float)):  # most report values, kept at once
        return obj
    if isinstance(obj, (list, tuple)):
        return [plain(value) for value in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    if dataclasses.is_dataclass(obj):
        return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return obj


def _format_float(value: float) -> str:
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"non-finite float {value!r} cannot be serialized")
    text = format(value, ".17g")
    # Keep floats recognizable as floats on round-trip.
    if "e" not in text and "." not in text:
        text += ".0"
    return text


def canonical_dumps(obj: Any) -> str:
    """Serialize ``obj`` to deterministic JSON text."""
    out: list[str] = []
    _write(obj, out)
    return "".join(out)


def _write(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        # What json.dumps(obj, ensure_ascii=False) calls for a string.
        out.append(encode_basestring(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(",")
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(encode_basestring(key))
            out.append(":")
            _write(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(",")
            _write(value, out)
        out.append("]")
    elif isinstance(obj, np.ndarray):
        _write(obj.tolist(), out)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
