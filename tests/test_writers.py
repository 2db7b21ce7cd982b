"""The column writers against the per-sample writers they replaced: every
`trace` file (three CSV schemas and the JSON document), both `profile`
formats and the `verify` report, byte for byte.  The reference formats each
numpy scalar on its own (`f"{v:.17g}"`, `float(v)`), one sample at a time;
the trace outputs include the NaN `residual_abs` ends.  Direct tests pin
the awkward cells of `csv_blocks` and `json_blocks` (signed zeros, NaN,
infinities, repeats, `%` and `null` in the other fields), a property checks
both against per-value spelling on random columns and documents, indented
or not, with blocks of a few cells (one to six rows) so that every array
crosses block boundaries.  A count shows each block spells its distinct
values once, a memory test shows that streaming does not hold the whole
document, and another bounds one writer's memory in absolute terms when
every cell is distinct."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from painleve_instanton import columns
from painleve_instanton.cli import main
from painleve_instanton.columns import (MU, TRANSCENDENT, TWISTOR, TWISTOR_ROW, Rows,
                                        csv_blocks, json_blocks)
from painleve_instanton.painleve import pvi_residual, select_delta_variant
from painleve_instanton.report import (build_verification_report, line_family, profile_for,
                                       transcendent)
from painleve_instanton.twistor import mu_pair

SAMPLES = 21


def csv_line(row):
    return ",".join(f"{v:.17g}" for v in row)


def csv_file(header, rows):
    return "\n".join([header] + [csv_line(row) for row in rows]) + "\n"


def fuchsian_json_dict(F):
    # the residues' structural zeros are written unsigned (+ 0.0 maps -0.0
    # to 0.0 and leaves every other value as it is)
    def mat(m):
        return [[[float(v.real) + 0.0, float(v.imag) + 0.0] for v in row] for row in m]
    return {"t": float(F.t),
            "x": {"re": float(F.x.real), "im": float(F.x.imag)},
            "residues": dict(zip(("p0", "p1", "px", "pinf"),
                                 (mat(A) for A in F.residues())))}


def pvi_rows(sample, residuals):
    for k in range(len(sample.xs)):
        yield (sample.ts[k], sample.xs[k].real, sample.xs[k].imag,
               sample.ys[k].real, sample.ys[k].imag, residuals[k])


def reference_trace(n, t_min, t_max):
    """suffix -> text of `trace --out`, and the `--format json` text."""
    _, fam = line_family(n, t_min, t_max, SAMPLES)
    sample, params = transcendent(fam, "plus")
    mus = np.column_stack((sample.ts,) + mu_pair(sample.ts))
    residuals = np.abs(pvi_residual(sample, params))
    cols = (fam.t, fam.x.real, fam.x.imag) + tuple(v.real for v in fam.trace_squares())
    files = {
        ".twistor.csv": csv_file("t,x_re,x_im,trA0sq,trA1sq,trAxsq,trAinfsq",
                                 np.column_stack(cols)),
        ".mu.csv": csv_file("t,mu_plus,mu_minus,mu_product",
                            [(t, mp, mm, mp * mm) for t, mp, mm in mus]),
        ".pvi.csv": csv_file("t,x_re,x_im,y_re,y_im,residual_abs",
                             pvi_rows(sample, residuals)),
    }
    keys = ("t", "x_re", "x_im", "y_re", "y_im", "residual_abs")
    payload = {
        "params": {k: {"re": float(getattr(params, k).real),
                       "im": float(getattr(params, k).imag)}
                   for k in ("alpha", "beta", "gamma", "delta")},
        "delta_variant": select_delta_variant(params.delta.real, n),
        "twistor": [fuchsian_json_dict(fam[k]) for k in range(len(fam))],
        "mu": [{"t": float(t), "mu_plus": float(mp), "mu_minus": float(mm)}
               for t, mp, mm in mus],
        "pvi": [{c: float(v) for c, v in zip(keys, row)}
                for row in pvi_rows(sample, residuals)],
    }
    return files, json.dumps(payload) + "\n"


def reference_profile(n, t_min, t_max):
    """(csv, json) text of `profile`."""
    prof = profile_for(n)
    ts = np.linspace(t_min, t_max, SAMPLES)
    rows = np.column_stack([ts, prof.values(ts)])
    points = [{"t": float(t), "a1": float(a1), "a2": float(a2), "a3": float(a3)}
              for t, a1, a2, a3 in rows]
    doc = json.dumps({"n": prof.n, "kind": prof.kind.value,
                      "sign_convention": prof.sign_convention, "points": points})
    return csv_file("t,a1,a2,a3", rows), doc + "\n"


def cli_bytes(capsys, *argv):
    assert main([*argv]) == 0
    return capsys.readouterr().out.encode()


def csv_text(header, columns):
    return "".join(csv_blocks(header, columns))


def json_text(doc, indent=None):
    return "".join(json_blocks(doc, indent))


def test_csv_text_signed_zero_nan_and_rounding():
    # the cells the per-sample writer produced for each awkward value
    col = np.array([-0.0, np.nan, 0.1])
    text = csv_text(("v", "w"), (col, -col))
    assert text == "v,w\n-0,0\nnan,nan\n0.10000000000000001,-0.10000000000000001\n"
    assert text == csv_file("v,w", np.column_stack((col, -col)))


def expanded(doc):
    """`doc` with each `Rows` value written out as its list of rows, one
    Python float per cell (flat skeletons only)."""
    return {k: [dict(zip(v.row, row)) for row in zip(*(c.tolist() for c in v.columns))]
            if isinstance(v, Rows) else v for k, v in doc.items()}


def test_json_text_signed_zero_nan_inf_and_repeats(monkeypatch):
    col = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 0.1, 0.1, -0.0])
    cols = (col, -col, col[::-1])
    # the other fields are written as given: a '%' or 'null' in them is text;
    # so is a skeleton's leaf that is not None, in every row
    doc = {"n": 1, "rows": Rows({"v": None, "w": [None, 0.0, None]}, cols),
           "note": "100% null", "more": Rows({"u": None}, (col,)),
           "none": Rows({"u": None}, (col[:0],)), "end": [None, {"%s": 2}]}
    rows = [{"v": v, "w": [w1, 0.0, w2]}
            for v, w1, w2 in zip(*(c.tolist() for c in cols))]
    want = {**doc, "rows": rows, "more": [{"u": u} for u in col.tolist()], "none": []}
    # budgets of 1 and 4 cells hold one row of width 3, 7 cells hold two
    for block_cells in (1, 4, 7, columns.BLOCK_CELLS):
        monkeypatch.setattr(columns, "BLOCK_CELLS", block_cells)
        for indent in (None, 2):
            assert json_text(doc, indent) == json.dumps(want, indent=indent) + "\n"
    assert json_text(doc).startswith('{"n": 1, "rows": [{"v": 0.0, "w": [-0.0, 0.0, -0.0]}, '
                                     '{"v": -0.0, "w": [0.0, 0.0, 0.1]}')


SPECIAL = (0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0, 0.1, 5e-324,
           1.7976931348623157e308)


@st.composite
def column_sets(draw):
    """Two to five equal-length columns drawn from a small pool of values, so
    cells repeat within and across columns, with special values mixed in."""
    pool = draw(st.lists(st.floats() | st.sampled_from(SPECIAL),
                         min_size=1, max_size=8))
    rows = draw(st.integers(0, 12))
    picks = st.lists(st.sampled_from(pool), min_size=rows, max_size=rows)
    return [np.array(draw(picks), dtype=float) for _ in range(draw(st.integers(2, 5)))]


FIELDS = st.dictionaries(
    st.sampled_from(["n", "note", "%s", "null", "100%"]),
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(st.characters(exclude_characters="\0"), max_size=6)
    | st.lists(st.none() | st.floats(), max_size=3), max_size=4)


@settings(max_examples=150, deadline=None)
@given(column_sets(), FIELDS, st.integers(1, 3), st.randoms(use_true_random=False),
       st.sampled_from([None, 2]), st.integers(1, 12))
def test_writers_spell_every_cell_like_a_single_value(cols, fields, arrays, rng, indent,
                                                      block_cells):
    keys = [f"c{j}" for j in range(len(cols))]
    rows = list(zip(*(c.tolist() for c in cols)))
    # `Rows` at any position among the other fields, each on its own columns
    order = list(fields) + [f"rows{j}" for j in range(arrays)]
    rng.shuffle(order)
    doc = {k: fields[k] if k in fields else Rows(dict.fromkeys(keys), cols[::(-1) ** int(k[4:])])
           for k in order}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(columns, "BLOCK_CELLS", block_cells)
        assert csv_text(keys, cols) == csv_file(",".join(keys), rows)
        assert json_text(doc, indent) == json.dumps(expanded(doc), indent=indent) + "\n"


def test_trace_json_spells_each_distinct_value_once(monkeypatch, capsys):
    spelled = []

    def counting(values):
        spelled.append(values.view(np.int64))
        return json_words(values)

    json_words = columns._json_words
    monkeypatch.setattr(columns, "_json_words", counting)
    assert main(["trace", "--n", "3", "--samples", "2001", "--format", "json"]) == 0
    capsys.readouterr()
    _, fam = line_family(3, 0.05, 0.95, 2001)
    sample, params = transcendent(fam, "plus")
    residuals = np.abs(pvi_residual(sample, params))
    sections = (  # twistor, mu, pvi: the columns of each, as the document nests them
        # the residues' nonzero cells: [0][0].re, [0][1].im, [1][0].im, [1][1].re
        (fam.t, fam.x) + tuple(np.stack((A.real, A.imag), -1).reshape(-1, 8)[:, [0, 3, 5, 6]]
                               for A in fam.residues()),
        (sample.ts,) + mu_pair(sample.ts),
        (sample.ts, sample.xs.real, sample.xs.imag, sample.ys.real, sample.ys.imag,
         residuals),
    )
    # each call spells exactly the distinct values of one block of one array:
    # as many rows of its width (18, 3 and 6 cells) as fit in BLOCK_CELLS
    steps = [columns.BLOCK_CELLS // width for width in (18, 3, 6)]
    blocks = [np.column_stack([c[i:i + step] for c in cols]).ravel()
              for cols, step in zip(sections, steps) for i in range(0, 2001, step)]
    assert len(spelled) == len(blocks) == 18 + 3 + 6
    for words, block in zip(spelled, blocks):
        assert np.array_equal(words, np.unique(block.view(np.int64)))
    # a twistor row spells 8 distinct values in its 18 cells: t, x, and the
    # Klein-four residues' +-w1, +-(w2 + w3) and +-(w2 - w3)
    twistor = np.concatenate(blocks[:18])
    assert twistor.size == 2001 * 18
    assert np.unique(twistor.view(np.int64)).size == 2001 * 8


@pytest.mark.parametrize("n", [1, 3, 5])
def test_trace_files_match_per_sample_writers(n, tmp_path, capsys):
    window = ("--n", str(n), "--samples", str(SAMPLES), "--t-min", "0.5")
    files, doc = reference_trace(n, 0.5, 0.95)
    # every sample has a residual; the spelling of NaN is pinned by the
    # text tests above
    assert "nan" not in files[".pvi.csv"]
    assert "NaN" not in doc
    assert main(["trace", *window, "--out", str(tmp_path / "tr")]) == 0
    for suffix, text in files.items():
        assert (tmp_path / ("tr" + suffix)).read_bytes() == text.encode(), suffix
    assert cli_bytes(capsys, "trace", *window, "--format", "json") == doc.encode()


@pytest.mark.parametrize("n", [1, 3, 5])
def test_profile_matches_per_sample_writers(n, capsys):
    csv, doc = reference_profile(n, 0.05, 0.95)
    window = ("--n", str(n), "--samples", str(SAMPLES))
    assert cli_bytes(capsys, "profile", *window) == csv.encode()
    assert cli_bytes(capsys, "profile", *window, "--format", "json") == doc.encode()


@pytest.mark.parametrize("n", [1, 5])
def test_verify_report_matches_dict_rows(n, capsys):
    # `verify` writes the report as `json.dumps(..., indent=2)` of dict rows
    rep = build_verification_report(n)
    assert isinstance(rep["y_samples"], Rows)
    doc = json.dumps(expanded(rep), indent=2) + "\n"
    assert len(json.loads(doc)["y_samples"]) == 201
    assert cli_bytes(capsys, "verify", "--n", str(n)) == doc.encode()


def traced_peak(blocks):
    """tracemalloc's peak while `blocks` are drained to a null sink."""
    tracemalloc.start()
    try:
        for _ in blocks:
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streaming_memory_does_not_grow_with_rows():
    # a trace-shaped document (the twistor, mu and pvi arrays) streamed to a
    # null sink: the writer holds one block, not the document.  The cells
    # come from a small pool, as the trace repeats values, which keeps the
    # spelling cheap under tracemalloc.
    def peak(count):
        rng = np.random.default_rng(count)
        pool = rng.standard_normal(64)
        t = np.linspace(0.05, 0.95, count)
        doc = {"n": 3,
               "twistor": Rows(TWISTOR_ROW,
                               (t, rng.choice(pool, count), rng.choice(pool, (count, 16)))),
               "mu": Rows(dict.fromkeys(MU[:3]), (t,) + tuple(rng.choice(pool, (2, count)))),
               "pvi": Rows(dict.fromkeys(TRANSCENDENT),
                           (t,) + tuple(rng.choice(pool, (5, count))))}
        return traced_peak(json_blocks(doc))

    small, large = peak(2_001), peak(20_001)
    assert large < 2 * small, (small, large)


@pytest.mark.parametrize("count", [2_001, 20_001])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_all_distinct_cells_fit_the_block_budget(fmt, count):
    # every cell distinct, so each block spells one string per cell: the
    # widest schemas (the twistor CSV and JSON rows), drained to a null sink
    rng = np.random.default_rng(count)
    if fmt == "csv":
        blocks = csv_blocks(TWISTOR, tuple(rng.standard_normal((7, count))))
    else:
        cols = (rng.standard_normal(count), rng.standard_normal(count),
                rng.standard_normal((count, 16)))
        blocks = json_blocks({"n": 3, "twistor": Rows(TWISTOR_ROW, cols)})
    peak = traced_peak(blocks)
    assert peak < 0.6e6, peak
