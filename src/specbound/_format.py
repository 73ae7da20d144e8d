"""Deterministic 12-significant-digit formatting for report artifacts."""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["csv_text", "format_cell", "format_float", "to_json"]


def format_float(x) -> str:
    """Fixed 12-significant-digit rendering; empty string for None."""
    if x is None:
        return ""
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        return repr(x)
    return f"{x:.12g}"


def format_cell(x) -> str:
    """One CSV cell: empty for None, lowercase booleans, plain integers and
    strings, every other number through `format_float`."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format_float(x)


def csv_text(columns, rows) -> str:
    """Header line plus one line per row, a dict column -> value, with its
    cells in `columns` order; a column missing from a row is left empty."""
    lines = [",".join(columns)]
    lines += [",".join(format_cell(row.get(c)) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


def _emit(obj, pieces):
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(format_float(obj))
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), pieces)
    elif isinstance(obj, dict):
        pieces.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                pieces.append(", ")
            pieces.append(json.dumps(str(key)))
            pieces.append(": ")
            _emit(value, pieces)
        pieces.append("}")
    elif isinstance(obj, (list, tuple)):
        pieces.append("[")
        for i, value in enumerate(obj):
            if i:
                pieces.append(", ")
            _emit(value, pieces)
        pieces.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)} deterministically")


def to_json(obj) -> str:
    """JSON text with every float at 12 significant digits.

    Key order follows dict insertion order, which the callers keep fixed,
    so identical inputs serialize to identical bytes.
    """
    pieces: list = []
    _emit(obj, pieces)
    return "".join(pieces)
