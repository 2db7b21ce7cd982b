"""Whole-column writers shared by every output schema.

A schema is a CSV header or a JSON row skeleton (`None` at each cell), with
one real column per cell.  Both formats share one core: the cells are keyed
by bit pattern (`np.unique` on `.view(np.int64)`, so `-0.0` and `0.0` stay
distinct), each distinct value is spelled once, and the spellings fill a
`%s` template with one copy per row.  CSV spells `%.17g`.  JSON spells with
`json.dumps` itself, and its row template is `json.dumps` of the skeleton,
re-indented to the array's depth, so numbers, `NaN`, `Infinity`, keys,
separators and indentation are exactly what `json.dumps` writes for dict
rows.  Every JSON document (profile, trace and verify report) goes through
`json_text`, and all the arrays of one document share one spelling pass.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np


class Rows(NamedTuple):
    """An array of rows: the skeleton `row`'s `None` leaves take the
    `columns` in order, one row per entry of a column (the skeleton's keys
    may not contain "null")."""

    row: object
    columns: tuple


# what `json.dumps` writes for the placeholder of a top-level `Rows` value
_SLOT = json.dumps("\0")


def _csv_words(values):
    return (",".join(["%.17g"] * len(values)) % tuple(values.tolist())).split(",")


def _json_words(values):
    return json.dumps(values.tolist())[1:-1].split(", ")


def _fill(template, stacks, spell):
    """`template` with its `%s` slots filled, in order, by the cells of each
    stack of columns, row by row.  `spell` is called once, on the distinct
    values of all the cells."""
    cells = np.concatenate([np.column_stack(cols).ravel() for cols in stacks],
                           dtype=np.float64)
    keys, inverse = np.unique(cells.view(np.int64), return_inverse=True)
    words = np.array(spell(keys.view(np.float64)), dtype=object)
    return template % tuple(words[inverse].tolist())


def _escaped(obj, indent):
    return json.dumps(obj, indent=indent).replace("%", "%%")


def _array(rows, indent):
    """The `%s` template of a top-level `Rows` value, as `json.dumps` lays
    out a list at depth 1."""
    count = len(rows.columns[0])
    line = _escaped(rows.row, indent).replace("null", "%s")
    if indent is None or count == 0:
        return "[" + ", ".join([line] * count) + "]"
    pad = "\n" + " " * (2 * indent)
    return "[" + ",".join([pad + line.replace("\n", pad)] * count) + "\n" + " " * indent + "]"


def csv_text(header, columns):
    """The CSV file: the header line, then one `%.17g` line per row."""
    line = ",".join(["%s"] * len(header)) + "\n"
    body = _fill(line * len(columns[0]), [columns], _csv_words)
    return ",".join(header) + "\n" + body


def json_text(doc, indent=None):
    """`json.dumps(doc, indent=indent)` for a dict `doc` with at least one
    top-level value given as `Rows`, which stands for its array of rows (no
    other string in `doc` may contain NUL)."""
    arrays = [v for v in doc.values() if isinstance(v, Rows)]
    rest = _escaped({k: "\0" if isinstance(v, Rows) else v for k, v in doc.items()},
                    indent).split(_SLOT)
    template = rest[0] + "".join(_array(rows, indent) + tail
                                 for rows, tail in zip(arrays, rest[1:], strict=True))
    return _fill(template, [rows.columns for rows in arrays], _json_words)
