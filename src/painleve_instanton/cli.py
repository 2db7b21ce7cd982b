"""Batch command-line front-end.

The subcommands `profile`, `trace`, `verify` and `pvi-integrate` and the
options of each are one table, `_COMMANDS`: `painleve-instanton --help`
and `painleve-instanton COMMAND --help` print it.  `parse_args` reads argv
against that table as argparse would, with no parser to build: `--opt
value`, `--opt=value`, unambiguous prefixes and negative numbers as
values, the last of a repeated option winning.  An option the subcommand
does not take, a bad number or choice, a missing value or an ambiguous
prefix is a usage error: usage and message on stderr, exit code 2.

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
import re
import sys
import tempfile
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np

from .columns import (MU, PROFILE, TRANSCENDENT, TWISTOR, TWISTOR_ROW, Rows,
                      complex_cell, csv_blocks, json_blocks)
from .errors import PainleveInstantonError
from .painleve import pvi_residual, select_delta_variant
from .report import build_verification_report, line_transcendent, profile_for
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
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            # mkstemp makes the file 0600; give it what `open` gives a new file
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
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
    _, fam, sample, params = line_transcendent(cfg.n, cfg.t_min, cfg.t_max,
                                               cfg.samples)
    for suffix, blocks in trace_files(cfg.fmt, cfg.n, fam, sample, params).items():
        _emit(cfg, blocks, suffix)
    return 0


def cmd_verify(cfg):
    report = build_verification_report(cfg.n, t_min=cfg.t_min, t_max=cfg.t_max,
                                       samples=cfg.samples, tol_override=cfg.tol)
    if cfg.delta_variant != "auto":
        report["checks"]["delta_variant_preference"] = report["delta_variant"] == cfg.delta_variant
        report["passed"] = all(report["checks"].values())
    _emit(cfg, json_blocks(report, indent=2))
    if cfg.out is not None:
        sys.stdout.write(("PASS" if report["passed"] else "FAIL") + "\n")
    return 0 if report["passed"] else 2


def cmd_pvi_integrate(cfg):
    _, _, sample, params = line_transcendent(cfg.n, cfg.t_min, cfg.t_max,
                                             cfg.samples)
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
               {**_window(0.5, 201), "--tol": ("tol", float, None),
                "--delta-variant": ("delta_variant", ("auto", "intro", "theorem"), "auto")}),
    "pvi-integrate": (cmd_pvi_integrate,
                      "propagate the transcendent with the direct PVI integrator",
                      _window(0.5, 201)),
}

PROG = "painleve-instanton"
_HELP = ("-h", "--help")
# what argparse takes for a negative number rather than an option
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _invocation(flag, dest, kind):
    return f"{flag} " + ("{" + ",".join(kind) + "}" if isinstance(kind, tuple) else dest.upper())


def _prog(command):
    return PROG if command is None else f"{PROG} {command}"


def _usage(command):
    """The usage of `command`, or of the program for None, wrapped at 80
    columns as argparse wraps it."""
    if command is None:
        groups = ["{" + ",".join(_COMMANDS) + "}", "..."]
    else:
        groups = [f"[{_invocation(flag, dest, kind)}]"
                  for flag, (dest, kind, _) in _COMMANDS[command][2].items()]
    lines = [f"usage: {_prog(command)}"]
    for group in ("[-h]", *groups):
        if len(lines[-1]) + len(group) >= 79:
            lines.append(" " * (len(_prog(command)) + 7))
        lines[-1] += " " + group
    return "\n".join(lines) + "\n"


def _usage_error(command, message):
    """argparse's usage error: the usage and the message on stderr, and
    exit status 2."""
    sys.stderr.write(f"{_usage(command)}{_prog(command)}: error: {message}\n")
    raise SystemExit(2)


def _help(command):
    """Print the help of `command`, or of the program for None, and exit 0."""
    if command is None:
        body = ("Invariant instanton profiles, isomonodromic residue families and\n"
                "Painleve VI verification.\n\ncommands:\n"
                + "".join(f"  {name:<15}{summary}\n"
                          for name, (_, summary, _) in _COMMANDS.items())
                + f"\n`{PROG} COMMAND --help` lists the options of a command.\n")
    else:
        body = "options:\n  -h, --help              show this help message and exit\n"
        for flag, (dest, kind, default) in _COMMANDS[command][2].items():
            line = f"  {_invocation(flag, dest, kind):<22}"
            body += (line if default is None else f"{line}  default: {default}").rstrip() + "\n"
    sys.stdout.write(f"{_usage(command)}\n{body}")
    raise SystemExit(0)


def _option(token, flags, command):
    """How argparse reads `token` against the option strings `flags` of
    `command`: None for a value, else (flag, the value attached with "="
    or None), where flag is None for an option `flags` does not hold.  A
    "--" prefix of more than one flag is a usage error."""
    if not token.startswith("-") or token == "-":
        return None
    if token in flags:
        return token, None
    flag, eq, value = token.partition("=")
    if eq and flag in flags:
        return flag, value
    if token.startswith("--"):
        matches = [f for f in flags if f.startswith(flag)]
        if len(matches) > 1:
            _usage_error(command, f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    if _NEGATIVE.match(token) or " " in token:
        return None
    return None, None


def _choices(values):
    return "(choose from " + ", ".join(map(repr, values)) + ")"


def parse_args(argv):
    """The namespace `cmd_*` reads, from the arguments after the program
    name, parsed as argparse parses them with one subparser per
    `_COMMANDS` entry.  `-h`/`--help` prints a help built from the table
    and raises SystemExit(0); a usage error raises SystemExit(2)."""
    command = argv[0] if argv else None
    if command not in _COMMANDS:
        if command is None:
            _usage_error(None, "the following arguments are required: command")
        if _option(command, _HELP, None) in (("-h", None), ("--help", None)):
            _help(None)
        _usage_error(None, f"argument command: invalid choice: {command!r} "
                           + _choices(_COMMANDS))

    options = _COMMANDS[command][2]
    tokens = argv[1:]
    # argparse reads every token before it converts a value; from "--" on,
    # all are positional arguments, and no command takes one
    head = tokens[:tokens.index("--")] if "--" in tokens else tokens
    read = [_option(token, (*_HELP, *options), command) for token in head]
    values = {dest: default for dest, _, default in options.values()}
    extras = []
    i = 0
    while i < len(head):
        token, opt = head[i], read[i]
        i += 1
        if opt is None or opt[0] is None:
            extras.append(token)
            continue
        flag, value = opt
        if flag in _HELP:
            if value is not None:
                _usage_error(command, f"argument -h/--help: ignored explicit argument {value!r}")
            _help(command)
        if value is None:
            if i == len(head) or read[i] is not None:
                _usage_error(command, f"argument {flag}: expected one argument")
            value = head[i]
            i += 1
        dest, kind, _ = options[flag]
        if isinstance(kind, tuple):
            if value not in kind:
                _usage_error(command, f"argument {flag}: invalid choice: {value!r} "
                                      + _choices(kind))
        else:
            try:
                value = kind(value)
            except ValueError:
                _usage_error(command, f"argument {flag}: invalid {kind.__name__} value: "
                                      f"{value!r}")
        values[dest] = value
    extras += tokens[len(head):]
    if extras:
        _usage_error(None, "unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(command=command, **values)


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
