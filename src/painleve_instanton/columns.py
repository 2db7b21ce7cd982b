"""Whole-column writers shared by every output schema.

A schema is a CSV header or a JSON row skeleton (`None` at each cell), with
one real column per cell.  Both formats share one core: the cells are keyed
by bit pattern (`np.unique` on `.view(np.int64)`, so `-0.0` and `0.0` stay
distinct), each distinct value is spelled once, and the spellings fill a
`%s` template with one copy per row.  CSV spells `%.17g`.  JSON spells with
`json.dumps` itself, and its row template is `json.dumps` of the skeleton,
so numbers, `NaN`, `Infinity`, keys and separators are exactly what
`json.dumps` writes for dict rows.  All arrays of one JSON document share
one spelling pass.
"""

from __future__ import annotations

import json

import numpy as np


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


def _escaped(obj):
    return json.dumps(obj).replace("%", "%%")


def csv_text(header, columns):
    """The CSV file: the header line, then one `%.17g` line per row."""
    line = ",".join(["%s"] * len(header)) + "\n"
    body = _fill(line * len(columns[0]), [columns], _csv_words)
    return ",".join(header) + "\n" + body


def json_text(fields, arrays):
    """`json.dumps` of `fields` followed by one array of rows per key of
    `arrays`, which maps the key to (row skeleton, columns): the skeleton's
    `None` leaves take the columns in order (its keys may not contain
    "null")."""
    pairs = [_escaped(fields)[1:-1]] if fields else []
    for key, (row, cols) in arrays.items():
        line = _escaped(row).replace("null", "%s")
        pairs.append(f"{_escaped(key)}: [{', '.join([line] * len(cols[0]))}]")
    stacks = [cols for _, cols in arrays.values()]
    return _fill("{" + ", ".join(pairs) + "}", stacks, _json_words)
