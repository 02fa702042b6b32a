"""Deterministic JSON emission: every float at 9 significant digits.

The stock json module prints floats via repr, which is faithful but noisy
and couples goldens to platform quirks; reports want stable bytes for
diffing and regression pinning instead.  On the way in, numbers read from
a document go through number, which refuses the strings float() would
parse, and counts through integral, which refuses what int() would
truncate.
"""

from __future__ import annotations

import math


def _fmt(value, indent: int, level: int) -> str:
    pad = " " * (indent * (level + 1))
    closing = " " * (indent * level)
    # numpy scalars and arrays become Python values, without importing numpy
    # for documents that hold none.
    if type(value).__module__.partition(".")[0] == "numpy":
        value = value.tolist()
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int,)):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite float in report: {value}")
        return format(value, ".9g")
    if isinstance(value, str):
        return _escape(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{pad}{_escape(str(k))}: {_fmt(v, indent, level + 1)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + closing + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{pad}{_fmt(v, indent, level + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + closing + "]"
    raise TypeError(f"cannot serialise {type(value).__name__}")


def _escape(text: str) -> str:
    out = ["\""]
    for ch in text:
        if ch == "\"":
            out.append("\\\"")
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append("\"")
    return "".join(out)


def number(value, name: str) -> float:
    """A number read from a JSON document: an integer or a float (one too
    large for a float raises OverflowError); anything else raises ValueError."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{name} must be a number, got {value!r}")


def integral(value, name: str) -> int:
    """A count read from a JSON document: an integer, or a float with no
    fractional part (2.0 is 2); 2.9, NaN, booleans and strings raise
    ValueError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def dumps(value, indent: int = 2) -> str:
    """Serialise to JSON text with a trailing newline."""
    return _fmt(value, indent, 0) + "\n"
