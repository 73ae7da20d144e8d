"""Deterministic 12-significant-digit formatting for report artifacts.

`format_cell` writes every CSV cell and every JSON number and boolean.  A
CSV cell holding a comma, a quote or a line break is quoted (RFC 4180).
"""

from __future__ import annotations

import json
import math

import numpy as np


def format_float(x) -> str:
    """Fixed 12-significant-digit rendering; empty string for None."""
    if x is None:
        return ""
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        return repr(x)
    return f"{x:.12g}"


def format_cell(x) -> str:
    """One CSV cell: empty for None, lowercase booleans, plain integers,
    every other number through `format_float`, and strings as they are, or
    in double quotes with inner quotes doubled when they hold a comma, a
    quote or a line break."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, str):
        if any(c in x for c in ',"\r\n'):
            return '"' + x.replace('"', '""') + '"'
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
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, (bool, int, float, np.bool_, np.integer, np.floating)):
        pieces.append(format_cell(obj))
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
