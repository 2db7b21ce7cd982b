"""Batch command-line front-end.

Subcommands:
  profile        solve/evaluate a profile and write t,a1,a2,a3
  trace          write the twistor trace, line data and transcendent files
  verify         run the verification suite for one n, emit the report JSON
  pvi-integrate  propagate the transcendent with the direct PVI integrator

Output is deterministic (17 significant digits, fixed column order),
streamed in blocks of rows once every value is computed, and written
atomically (temp file + rename, with the mode `open` gives a new file).
Exit codes: 0 success, 1 invalid configuration, 2 solver failure, 3 I/O
failure; verification failures also exit 2 with the report on stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
import tempfile

import numpy as np

from .columns import Rows, csv_blocks, json_blocks
from .errors import PainleveInstantonError
from .painleve import pvi_residual, select_delta_variant
from .report import build_verification_report, line_transcendent, profile_for
from .stepper import Stencil
from .twistor import mu_pair

log = logging.getLogger("painleve_instanton")


def _check_ranges(args):
    """The ranges argparse cannot express; raises ValueError."""
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
    _emit(cfg, prof.to_csv(ts) if cfg.fmt == "csv" else prof.to_json(ts))
    return 0


def cmd_trace(cfg):
    if cfg.fmt == "csv" and cfg.out is None:
        raise ValueError("csv trace needs --out (three files are written)")
    _, fam, sample, params = line_transcendent(cfg.n, cfg.t_min, cfg.t_max,
                                               cfg.samples)
    mu_plus, mu_minus = mu_pair(sample.ts)
    residuals = np.full(len(sample), np.nan)
    residuals[Stencil.INNER] = np.abs(pvi_residual(sample, params))

    if cfg.fmt == "json":
        doc = {
            "params": params.as_dict(),
            "delta_variant": select_delta_variant(params.delta.real, cfg.n),
            "twistor": fam.json_array(),
            "mu": Rows(dict.fromkeys(("t", "mu_plus", "mu_minus")),
                       (sample.ts, mu_plus, mu_minus)),
            "pvi": sample.json_array(residuals),
        }
        _emit(cfg, json_blocks(doc))
        return 0
    files = {
        ".twistor.csv": fam.to_csv(),
        ".mu.csv": csv_blocks(("t", "mu_plus", "mu_minus", "mu_product"),
                              (sample.ts, mu_plus, mu_minus, mu_plus * mu_minus)),
        ".pvi.csv": sample.to_csv(residuals),
    }
    for suffix, blocks in files.items():
        _emit(cfg, blocks, suffix)
    return 0


def cmd_verify(cfg):
    report = build_verification_report(cfg.n, t_min=cfg.t_min, t_max=cfg.t_max,
                                       samples=cfg.samples, tol_override=cfg.tol)
    if cfg.delta_variant != "auto" and report["delta_variant"] != cfg.delta_variant:
        report["passed"] = False
        report["checks"]["delta_variant_preference"] = False
    _emit(cfg, json_blocks(report, indent=2))
    if cfg.out is not None:
        sys.stdout.write(("PASS" if report["passed"] else "FAIL") + "\n")
    return 0 if report["passed"] else 2


def cmd_pvi_integrate(cfg):
    _, _, sample, params = line_transcendent(cfg.n, cfg.t_min, cfg.t_max,
                                             cfg.samples)
    # seeded at the first sample with a centred stencil slope
    k = Stencil.INNER.start
    integrated = sample.integrate(params, Stencil(sample.xs.real), k)
    _emit(cfg, integrated.to_csv(np.abs(integrated.ys - sample.ys[k:])))
    return 0


_COMMANDS = {
    "profile": cmd_profile,
    "trace": cmd_trace,
    "verify": cmd_verify,
    "pvi-integrate": cmd_pvi_integrate,
}


@functools.cache
def build_parser():
    """The argument parser, built once per process on first use: it holds
    only the constant subcommand configuration, like `_COMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="painleve-instanton",
        description="Invariant instanton profiles, isomonodromic residue "
                    "families and Painleve VI verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    # verification suites default to the finite-difference-friendly window
    windowed = {"verify": (0.5, 201), "pvi-integrate": (0.5, 201)}
    for name in _COMMANDS:
        t_min, samples = windowed.get(name, (0.05, 101))
        p = sub.add_parser(name)
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--t-min", type=float, default=t_min)
        p.add_argument("--t-max", type=float, default=0.95)
        p.add_argument("--samples", type=int, default=samples)
        p.add_argument("--out", default=None)
        if name in ("profile", "trace"):
            p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                           default="csv")
        if name == "verify":
            p.add_argument("--tol", type=float, default=None)
            p.add_argument("--delta-variant", dest="delta_variant",
                           choices=("auto", "intro", "theorem"), default="auto")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        name = os.environ.get("PAINLEVE_INSTANTON_LOG", "error")
        level = logging.getLevelName(name.upper())  # an int for level names only
        if not isinstance(level, int):
            raise ValueError(f"PAINLEVE_INSTANTON_LOG={name!r} is not a logging level name")
        logging.basicConfig(level=level)
        _check_ranges(args)
        return _COMMANDS[args.command](args)
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
