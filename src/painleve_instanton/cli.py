"""Batch command-line front-end.

The subcommands `profile`, `trace`, `verify` and `pvi-integrate` and the
options of each are one table, `_COMMANDS`.  `parse_args` reads a
subcommand followed only by exact `--flag value` pairs itself, so the runs
never import argparse.  argparse, built from the table, reads every other
argv: `--opt=value`, unambiguous prefixes, negative numbers as values and
`--`.  It prints the help (`painleve-instanton --help`,
`painleve-instanton COMMAND --help`) and every usage error: usage and
message on stderr, exit code 2.

Output is deterministic (17 significant digits, fixed column order),
streamed in blocks of rows once every value is computed, and written
atomically (temp file + rename, with the mode `open` gives a new file).
Exit codes: 0 success, 1 invalid configuration, 2 usage error or solver
failure, 3 I/O failure; verification failures also exit 2 with the report
on stdout.
"""

from __future__ import annotations

import json
import logging
import os
import sys
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np

from .columns import (MU, PROFILE, TRANSCENDENT, TWISTOR, TWISTOR_ROW, Rows,
                      complex_cell, csv_blocks, json_blocks)
from .errors import PainleveInstantonError
from .painleve import pvi_residual, select_delta_variant
from .report import build_verification_report, line_family, profile_for, transcendent
from .twistor import mu_pair

log = logging.getLogger("painleve_instanton")


def _check_ranges(args):
    """The ranges the option table cannot express; raises ValueError."""
    if not 0.0 < args.t_min < args.t_max < 1.0:
        raise ValueError("need 0 < t-min < t-max < 1")
    if args.samples < 5:
        raise ValueError("samples must be >= 5")
    if args.n < 1 or args.n % 2 == 0:
        raise ValueError("n must be a positive odd label")


def _atomic_write(path, blocks):
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       ".tmp-" + os.urandom(8).hex())
    # the kernel applies the umask to 0o666, as for a file `open` creates
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(blocks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(cfg, blocks, suffix=""):
    """Write the text `blocks` to stdout, or atomically to `--out` + suffix,
    one block at a time."""
    if cfg.out is None:
        sys.stdout.writelines(blocks)
        return
    path = cfg.out + suffix
    _atomic_write(path, blocks)
    log.info("wrote %s", path)


def cmd_profile(cfg):
    prof = profile_for(cfg.n)
    ts = np.linspace(cfg.t_min, cfg.t_max, cfg.samples)
    cols = (ts, prof.values(ts))
    if cfg.fmt == "csv":
        _emit(cfg, csv_blocks(PROFILE, cols))
    else:
        _emit(cfg, json_blocks({"n": prof.n, "kind": prof.kind.value,
                                "sign_convention": prof.sign_convention,
                                "points": Rows(dict.fromkeys(PROFILE), cols)}))
    return 0


def _transcendent(sample, residuals):
    """The `TRANSCENDENT` columns of `sample` with its `residuals`."""
    return (sample.ts, sample.xs.real, sample.xs.imag, sample.ys.real, sample.ys.imag,
            residuals)


def trace_files(fmt, n, fam, sample, params):
    """suffix -> the text blocks of each file `trace` writes for the family
    `fam` and its transcendent `sample`: the JSON document (suffix "") or
    the three CSVs."""
    mu_plus, mu_minus = mu_pair(sample.ts)
    pvi = _transcendent(sample, np.abs(pvi_residual(sample, params)))
    if fmt == "json":
        m1, m2, m3 = np.moveaxis(fam.vectors(), -1, 0)
        cells = np.stack((-m1, m2 + m3, m3 - m2, m1), -1).reshape(len(fam), 16)
        doc = {
            "params": {k: complex_cell(v) for k, v in asdict(params).items()},
            "delta_variant": select_delta_variant(params.delta, n),
            "twistor": Rows(TWISTOR_ROW, (fam.t, fam.x, cells)),
            "mu": Rows(dict.fromkeys(MU[:3]), (sample.ts, mu_plus, mu_minus)),
            "pvi": Rows(dict.fromkeys(TRANSCENDENT), pvi),
        }
        return {"": json_blocks(doc)}
    return {
        ".twistor.csv": csv_blocks(TWISTOR, (fam.t, fam.x, fam.x.imag) + fam.trace_squares()),
        ".mu.csv": csv_blocks(MU, (sample.ts, mu_plus, mu_minus, mu_plus * mu_minus)),
        ".pvi.csv": csv_blocks(TRANSCENDENT, pvi),
    }


def cmd_trace(cfg):
    if cfg.fmt == "csv" and cfg.out is None:
        raise ValueError("csv trace needs --out (three files are written)")
    _, fam = line_family(cfg.n, cfg.t_min, cfg.t_max, cfg.samples)
    sample, params = transcendent(fam, "plus")
    for suffix, blocks in trace_files(cfg.fmt, cfg.n, fam, sample, params).items():
        _emit(cfg, blocks, suffix)
    return 0


def cmd_verify(cfg):
    report = build_verification_report(cfg.n, cfg.t_min, cfg.t_max, cfg.samples)
    _emit(cfg, json_blocks(report, indent=2))
    if cfg.out is not None:
        sys.stdout.write(("PASS" if report["passed"] else "FAIL") + "\n")
    return 0 if report["passed"] else 2


def cmd_pvi_integrate(cfg):
    _, fam = line_family(cfg.n, cfg.t_min, cfg.t_max, cfg.samples)
    sample, params = transcendent(fam, "plus")
    # seeded at the third sample, where a 5-point stencil's slope once
    # started it; perfbench's check_pvi_integrate counts samples - 2 rows,
    # so moving the start is a change of the benchmark
    k = 2
    integrated = sample.integrate(params, k)
    _emit(cfg, csv_blocks(TRANSCENDENT,
                          _transcendent(integrated, np.abs(integrated.ys - sample.ys[k:]))))
    return 0


def _window(t_min, samples):
    """The options every subcommand takes, defaulting to `samples` points
    on [t_min, 0.95]: flag -> (attribute, int, float, str or the tuple of
    choices, default)."""
    return {
        "--n": ("n", int, 3),
        "--t-min": ("t_min", float, t_min),
        "--t-max": ("t_max", float, 0.95),
        "--samples": ("samples", int, samples),
        "--out": ("out", str, None),
    }


_FORMAT = {"--format": ("fmt", ("csv", "json"), "csv")}

# name -> (function, summary, options); verification suites default to the
# window [0.5, 0.95], away from t -> 0, where the poles 1 and x collide
_COMMANDS = {
    "profile": (cmd_profile, "solve or evaluate a profile and write t,a1,a2,a3",
                {**_window(0.05, 101), **_FORMAT}),
    "trace": (cmd_trace, "write the twistor trace, line data and transcendent files",
              {**_window(0.05, 101), **_FORMAT}),
    "verify": (cmd_verify, "run the verification suite for one n, emit the report JSON",
               _window(0.5, 201)),
    "pvi-integrate": (cmd_pvi_integrate,
                      "propagate the transcendent with the direct PVI integrator",
                      _window(0.5, 201)),
}

PROG = "painleve-instanton"


def _argparse(argv):
    """argv parsed by argparse with one subparser per `_COMMANDS` entry:
    prefixes, `--opt=value`, negative numbers, `--`, help and every usage
    error.  argparse is imported and its tree built only here."""
    import argparse

    parser = argparse.ArgumentParser(prog=PROG)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for flag, (dest, kind, default) in options.items():
            checked = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            command.add_argument(flag, dest=dest, default=default,
                                 help="default: %(default)s", **checked)
    return parser.parse_args(argv)


def parse_args(argv):
    """The namespace `cmd_*` reads, from the arguments after the program
    name.  A subcommand followed only by exact `--flag value` pairs, no
    value starting with "-" and each converting with its type or being one
    of its choices, is read here, the last of a repeated flag winning;
    any other argv goes to `_argparse`, which gives the same namespace for
    such pairs."""
    command, pairs = (argv[0], argv[1:]) if argv else (None, [])
    if command in _COMMANDS and len(pairs) % 2 == 0:
        options = _COMMANDS[command][2]
        values = {dest: default for dest, _, default in options.values()}
        for flag, value in zip(pairs[::2], pairs[1::2]):
            if flag not in options or value.startswith("-"):
                break
            dest, kind, _ = options[flag]
            if isinstance(kind, tuple):
                if value not in kind:
                    break
            else:
                try:
                    value = kind(value)
                except ValueError:
                    break
            values[dest] = value
        else:
            return SimpleNamespace(command=command, **values)
    return _argparse(argv)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        name = os.environ.get("PAINLEVE_INSTANTON_LOG", "error")
        level = logging.getLevelName(name.upper())  # an int for level names only
        if not isinstance(level, int):
            raise ValueError(f"PAINLEVE_INSTANTON_LOG={name!r} is not a logging level name")
        logging.basicConfig(level=level)  # a no-op once the root logger has a handler
        log.setLevel(level)
        _check_ranges(args)
        return _COMMANDS[args.command][0](args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except PainleveInstantonError as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
