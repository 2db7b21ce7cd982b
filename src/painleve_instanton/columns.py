"""Whole-column writers shared by every output schema, streamed in blocks.

A schema is a CSV header or a JSON row skeleton (`None` at each cell that a
column fills; any other leaf is written as it stands), with one real column
per cell.  Each writer yields its file's text in blocks of whole rows, at
most `BLOCK_CELLS` cells (or one row), so its memory does not grow with the
row count.  Both formats share one core, applied to each block on its own:
the block's cells are keyed by bit pattern (`np.unique` on
`.view(np.int64)`, so `-0.0` and `0.0` stay distinct), each distinct value
is spelled once, and the spellings fill a `%s` template with one copy per
row.  A block holds one spelled string per distinct cell, so it is largest
when every cell is distinct; `BLOCK_CELLS` is sized for that case, which
bounds one writer's working memory at a few hundred kB, whatever the row
count and however the values repeat.  CSV spells `%.17g`.  JSON spells with
`json.dumps` itself, and its row template is `json.dumps` of the skeleton,
re-indented to the array's depth, so numbers, `NaN`, `Infinity`, keys,
separators and indentation are exactly what `json.dumps` writes for dict
rows.  Every JSON document (profile, trace and verify report) goes through
`json_blocks`.

The output schemas are declared here, once each, beside the writers that
spell them; `cli` fills them for the files and `report` for the verify
report, from the math objects' arrays.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

# cells per block: 2,048 all-distinct cells spell to about 0.3 MB of strings
BLOCK_CELLS = 2048

# `profile`: the CSV header, and the JSON `points` row's keys
PROFILE = ("t", "a1", "a2", "a3")
# `trace`'s twistor CSV: x and tr(A_p^2) per sample
TWISTOR = ("t", "x_re", "x_im", "trA0sq", "trA1sq", "trAxsq", "trAinfsq")
# `trace`'s twistor JSON row: t, x, then each residue as a 2x2 of [re, im]
# pairs, A_p = [[-m1, i (m2 + m3)], [i (m3 - m2), m1]] for m = m_p: x's `im`
# and the residues' structural zeros are literal cells, and the 16 others
# are -m1, m2 + m3, m3 - m2 and m1 per pole
TWISTOR_ROW = {"t": None, "x": {"re": None, "im": 0.0},
               "residues": {p: [[[None, 0.0], [0.0, None]], [[0.0, None], [None, 0.0]]]
                            for p in ("p0", "p1", "px", "pinf")}}
# `trace`'s line data: the CSV header; a JSON row has the first three keys
MU = ("t", "mu_plus", "mu_minus", "mu_product")
# the transcendent: the CSV header of `trace` and `pvi-integrate`, and the
# JSON `pvi` row's keys; the report's `y_samples` rows have x_re..y_im
TRANSCENDENT = ("t", "x_re", "x_im", "y_re", "y_im", "residual_abs")


def complex_cell(z):
    """The JSON cell of the complex number z, as `trace` writes each PVI
    parameter."""
    return {"re": float(z.real), "im": float(z.imag)}


class Rows(NamedTuple):
    """An array of rows: the skeleton `row`'s `None` leaves take the
    `columns` in order, one row per entry of a column, and its other leaves
    are the same in every row (the skeleton's keys and leaves may not
    contain "null")."""

    row: object
    columns: tuple


# what `json.dumps` writes for the placeholder of a top-level `Rows` value
_SLOT = json.dumps("\0")


def _csv_words(values):
    return (",".join(["%.17g"] * len(values)) % tuple(values.tolist())).split(",")


def _json_words(values):
    return json.dumps(values.tolist())[1:-1].split(", ")


def _fill(template, columns, spell):
    """`template` with its `%s` slots filled, in order, by the cells of
    `columns`, row by row.  `spell` is called once, on their distinct
    values."""
    cells = np.column_stack(columns).astype(np.float64, copy=False).ravel()
    keys, inverse = np.unique(cells.view(np.int64), return_inverse=True)
    words = np.array(spell(keys.view(np.float64)), dtype=object)
    return template % tuple(words[inverse].tolist())


def _rows_text(item, sep, columns, spell):
    """The rows of `columns`, each the `%s` template `item`, joined by `sep`:
    one filled block of as many rows as fit in `BLOCK_CELLS` at a time."""
    lead = ""
    rows = max(1, BLOCK_CELLS // np.column_stack([c[:1] for c in columns]).shape[1])
    for start in range(0, len(columns[0]), rows):
        block = [c[start:start + rows] for c in columns]
        yield _fill(lead + sep.join([item] * len(block[0])), block, spell)
        lead = sep


def _array(rows, indent):
    """A top-level `Rows` value, as `json.dumps` lays out a list at depth 1."""
    line = json.dumps(rows.row, indent=indent).replace("%", "%%").replace("null", "%s")
    if indent is None:
        item, sep, close = line, ", ", "]"
    else:
        pad = "\n" + " " * (2 * indent)
        item, sep, close = pad + line.replace("\n", pad), ",", "\n" + " " * indent + "]"
    yield "["
    yield from _rows_text(item, sep, rows.columns, _json_words)
    yield close if len(rows.columns[0]) else "]"


def csv_blocks(header, columns):
    """The CSV file: the header line, then one `%.17g` line per row."""
    yield ",".join(header) + "\n"
    line = ",".join(["%s"] * len(header)) + "\n"
    yield from _rows_text(line, "", columns, _csv_words)


def json_blocks(doc, indent=None):
    """The JSON file: `json.dumps(doc, indent=indent)` and a newline, for a
    dict `doc` with at least one top-level value given as `Rows`, which
    stands for its array of rows (no other string in `doc` may contain
    NUL)."""
    arrays = [v for v in doc.values() if isinstance(v, Rows)]
    rest = json.dumps({k: "\0" if isinstance(v, Rows) else v for k, v in doc.items()},
                      indent=indent).split(_SLOT)
    yield rest[0]
    for rows, tail in zip(arrays, rest[1:], strict=True):
        yield from _array(rows, indent)
        yield tail
    yield "\n"
