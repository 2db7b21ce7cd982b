"""Whole-column writers shared by every output schema.

A schema is a header (or key tuple) and one real column per name.  The
columns are stacked and read out to Python floats with one `.tolist()`, so
no per-value numpy scalar is formatted: CSV cells are `%.17g` (the same
text as `f"{v:.17g}"`, so files are byte-identical to per-value writers),
and JSON rows hold the floats that `json.dumps` writes with `repr`.
"""

from __future__ import annotations

import numpy as np


def _rows(columns):
    return np.column_stack(columns).tolist()


def csv_text(header, columns):
    """The CSV file: the header line, then one `%.17g` line per row."""
    line = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)] + [line % tuple(row) for row in _rows(columns)]
    return "\n".join(lines) + "\n"


def json_rows(keys, columns):
    """One dict per row, keyed by `keys` in order."""
    return [dict(zip(keys, row)) for row in _rows(columns)]
