"""One repetition of a benchmark workload, in a fresh interpreter.

Protocol (one JSON object per line):
  1. after importing numpy and `painleve_instanton.cli`, print
     {"ready": true, "python": ..., "numpy": ...};
  2. read one job from stdin: {"ops": [[op_id, label, argv], ...],
     "trace": bool}, or null to exit at once (a set-up probe);
  3. run the operations one after another through the public entry
     `painleve_instanton.cli.main(argv)` and print the result.

The program's own stdout and stderr are captured per operation; the
protocol uses the interpreter's original stdout.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import numpy

import painleve_instanton.cli as cli


def run_op(op_id, label, argv, tracer):
    err = io.StringIO()
    before = tracer.snapshot() if tracer else None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            if tracer:
                with tracer.operation(op_id, label):
                    rc = cli.main(argv)
            else:
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an operation that crashes is counted, not fatal
            rc = "exception"
            traceback.print_exc(file=err)
    result = {"op": op_id, "label": label, "rc": rc,
              "wall_s": time.perf_counter() - t0,
              "stderr": err.getvalue()[-400:]}
    if tracer:
        after = tracer.snapshot()
        result["calls"] = {k: v - before.get(k, 0) for k, v in after.items()
                           if v != before.get(k, 0)}
    return result


def main():
    channel = sys.stdout
    print(json.dumps({"ready": True, "python": sys.version.split()[0],
                      "numpy": numpy.__version__}), file=channel, flush=True)
    job = json.loads(sys.stdin.readline() or "null")
    if job is None:
        return 0
    tracer = None
    if job["trace"]:
        from tracer import Tracer   # this script's directory is on sys.path
        tracer = Tracer()
        tracer.install()
    who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)  # counts any worker too
    ru0 = [resource.getrusage(w) for w in who]
    t0 = time.perf_counter()
    ops = [run_op(op_id, label, argv, tracer) for op_id, label, argv in job["ops"]]
    wall = time.perf_counter() - t0
    ru1 = [resource.getrusage(w) for w in who]
    out = {"wall_s": wall,
           "cpu_s": sum(b.ru_utime - a.ru_utime + b.ru_stime - a.ru_stime
                        for a, b in zip(ru0, ru1)),
           "peak_rss_mb": max(r.ru_maxrss for r in ru1) / 1024.0,   # KiB on Linux
           "ops": ops}
    if tracer:
        out["trace"] = tracer.report()
    print(json.dumps(out), file=channel, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
