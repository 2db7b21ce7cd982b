"""Pipeline benchmark of the painleve-instanton command line.

    python3 perfbench/run.py --workload verify-closed --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
`src/` and nothing is installed.  Each workload is a closed loop with one
client: one repetition runs the workload's operations one after another, in
a fresh child interpreter (`child.py`), through the public entry
`painleve_instanton.cli.main(argv)`, writing into a temporary directory
inside the checkout.  Repetitions follow each other until `--seconds` have
passed; at least one always runs.  The seed sets the order of the
operations in each repetition; the program sees only the generated argv.

Every output is checked by `checks.py`, which recomputes the expected values
from n alone.  An operation fails on a non-zero exit or on any broken check;
the run goes on and the failure is counted.  `correct` is false when the
program's verdict and the independent gate disagree, i.e. when an output the
program stands by is wrong, or when two traced repetitions count
differently.

--trace 0 reports the end-to-end metrics (medians over the run):
  wall_s       wall seconds of one repetition's operations, set-up excluded
  cpu_s        the child's user + system seconds for those operations
  setup_s      spawn of a child until `painleve_instanton.cli` and numpy are
               imported (several set-up probes per run)
  peak_rss_mb  the child's peak resident memory
  ok_ratio     operations passed / attempted (failed_ratio = 1 - ok_ratio)

--trace 1 reports the per-layer metrics instead.  It runs an untraced and a
traced repetition side by side, in two children at once, then a second traced
repetition alone; all three run the operations in the same order.  The
counts, busy and self times come from the lone traced repetition, and
`trace.overhead_ratio` is the traced over the untraced wall time of the
pair, which ran under the same conditions.  The two traced repetitions must
count identically, operation by operation.  Within a repetition the
operations share one process, and so the program's in-process caches,
exactly as consecutive calls of `cli.main` would; nothing is shared between
repetitions.

`--workload all` interleaves the workloads repetition by repetition and
prefixes each metric with its workload.  The samples, per-operation
results, environment and (traced) spans of a run are written to
`.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import run_check          # noqa: E402
from tracer import LAYERS, counter_keys  # noqa: E402

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass(frozen=True)
class Op:
    argv: tuple
    check: str      # key of checks.CHECKS
    n: int
    samples: int

    @property
    def label(self):
        return " ".join(self.argv)

    def out_name(self, op_id):
        suffix = {"verify": ".json", "trace-json": ".json",
                  "pvi-integrate": ".csv", "trace-csv": ""}[self.check]
        return f"op{op_id}{suffix}"


def _op(check, command, n, samples=201, *extra):
    argv = (command, "--n", str(n))
    if samples != 201:
        argv += ("--samples", str(samples))
    return Op(argv + extra, check, n, samples)


WORKLOADS = {
    "verify-closed": (
        _op("verify", "verify", 1),
        _op("verify", "verify", 3),
        _op("verify", "verify", 3, 801),
    ),
    "verify-bvp": (
        _op("verify", "verify", 5),
        _op("verify", "verify", 7),
        _op("verify", "verify", 9),
    ),
    "oracle-io": (
        _op("pvi-integrate", "pvi-integrate", 1),
        _op("pvi-integrate", "pvi-integrate", 3, 801),
        _op("trace-csv", "trace", 3, 2001),
        _op("trace-json", "trace", 3, 2001, "--format", "json"),
    ),
}

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"))


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PAINLEVE_INSTANTON_LOG"] = "error"
    return env


class Child:
    """A child interpreter, timed from spawn until it reports ready."""

    def __init__(self, workdir):
        self.stderr = open(Path(workdir) / "child.stderr", "w+")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py")], cwd=ROOT, env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.stderr,
            text=True)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if not line:
            self.close()
            raise BenchError(f"child failed to start: {self._stderr_tail()}")
        self.info = json.loads(line)

    def _stderr_tail(self):
        self.stderr.seek(0)
        return self.stderr.read()[-2000:]

    def send(self, job):
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.close()

    def collect(self):
        watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.read()
            self.proc.wait()
        finally:
            watchdog.cancel()
        if self.proc.returncode != 0 or not line.strip():
            raise BenchError(f"child exited with {self.proc.returncode}: "
                             f"{self._stderr_tail()}")
        return json.loads(line.strip().splitlines()[-1])

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for fh in (self.proc.stdin, self.proc.stdout, self.stderr):
            if fh is not None and not fh.closed:
                fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def gate(op, path, rc):
    """Verdict on one operation from its exit code and its output."""
    errors = run_check(op.check, str(path), op.n, op.samples)
    # `consistent`: the program's verdict (its exit code) agrees with the gate
    return {"errors": errors, "ok": rc == 0 and not errors,
            "consistent": (rc == 0) == (not errors)}


class Repetition:
    """One repetition in a fresh child.  Creating it starts the operations;
    `finish` collects the child's result and gates every output.  Leaving
    the `with` block stops the child and removes its directory."""

    def __init__(self, workload, seed, index, trace, workroot):
        ops = self.ops = WORKLOADS[workload]
        self.order = random.Random(f"{seed}:{workload}:{index}").sample(
            range(len(ops)), len(ops))
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=workroot))
        self.child = None
        try:
            self.child = Child(self.tmp)
            self.child.send({"trace": trace, "ops": [
                [i, ops[i].label, [*ops[i].argv, "--out", str(self.tmp / ops[i].out_name(i))]]
                for i in self.order]})
        except BaseException:
            self.__exit__()
            raise

    def finish(self):
        res = self.child.collect()
        res.update(setup_s=self.child.setup_s, info=self.child.info, order=self.order,
                   bytes_out=sum(p.stat().st_size for p in self.tmp.glob("op*")))
        for r in res["ops"]:
            op = self.ops[r["op"]]
            r.update(gate(op, self.tmp / op.out_name(r["op"]), r["rc"]))
        return res

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.child is not None:
            self.child.close()
        shutil.rmtree(self.tmp, ignore_errors=True)


def run_rep(workload, seed, index, trace, workroot):
    with Repetition(workload, seed, index, trace, workroot) as rep:
        return rep.finish()


def setup_probe(workroot):
    """Set-up time of one child that exits as soon as it is ready."""
    tmp = Path(tempfile.mkdtemp(prefix="probe-", dir=workroot))
    try:
        with Child(tmp) as child:
            child.send(None)
            child.proc.wait(timeout=CHILD_TIMEOUT_S)
        return child.setup_s
    finally:
        shutil.rmtree(tmp)


def quartiles(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def measure(workloads, seed, seconds, workroot):
    """Untraced closed loop; workloads interleave repetition by repetition."""
    setup_probe(workroot)                    # warm-up, fills bytecode caches
    setups = [setup_probe(workroot) for _ in range(SETUP_PROBES)]
    reps = {w: [] for w in workloads}
    t0 = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - t0 < seconds:
        for w in workloads:
            res = run_rep(w, seed, index, False, workroot)
            reps[w].append(res)
            print(f"rep {index} {w}: order {res['order']} wall {res['wall_s']:.3f} s "
                  f"cpu {res['cpu_s']:.3f} s setup {res['setup_s']:.3f} s "
                  f"ok {sum(r['ok'] for r in res['ops'])}/{len(res['ops'])}", flush=True)
        index += 1
    samples = {}
    for w, runs in reps.items():
        ops = [r for res in runs for r in res["ops"]]
        samples[w] = {
            "wall_s": [res["wall_s"] for res in runs],
            "cpu_s": [res["cpu_s"] for res in runs],
            "setup_s": setups + [res["setup_s"] for res in runs],
            "peak_rss_mb": [res["peak_rss_mb"] for res in runs],
            "ok_ratio": [sum(r["ok"] for r in ops) / len(ops)],
        }
    return reps, samples


def layer_metrics(trace, bytes_out, overhead_ratio):
    """Per-layer metrics from one traced repetition; a function the program
    no longer has (see `Tracer.unmeasured`) reads 0."""
    metrics = {}
    for key in counter_keys():
        metrics[f"{key}.calls"] = (trace["calls"].get(key, 0), "count")
        metrics[f"{key}.busy_s"] = (trace["busy_s"].get(key, 0.0), "s")
    for module in LAYERS:
        metrics[f"{module}.self_s"] = (trace["self_s"].get(module, 0.0), "s")
    metrics["cli.bytes_out"] = (bytes_out, "B")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return metrics


def trace_run(workload, seed, workroot):
    """An untraced and a traced repetition side by side, then a traced one
    alone, all with the operations in the same order."""
    with Repetition(workload, seed, 0, False, workroot) as plain, \
            Repetition(workload, seed, 0, True, workroot) as traced:
        u, a = plain.finish(), traced.finish()
    b = run_rep(workload, seed, 0, True, workroot)
    calls_a = {r["label"]: r["calls"] for r in a["ops"]}
    mismatch = [r["label"] for r in b["ops"] if r["calls"] != calls_a[r["label"]]]
    metrics = layer_metrics(b["trace"], b["bytes_out"], a["wall_s"] / u["wall_s"])
    return [u, a, b], metrics, mismatch


def env_record():
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "loadavg_1min": os.getloadavg()[0], "executable": sys.executable,
            "thread_vars": {v: "1" for v in THREAD_VARS}}


def write_record(name, record):
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{name}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def run_traced(workloads, prefixed, seed, workroot):
    reps, metrics, problems = {}, {}, []
    for w in workloads:
        prefix = f"{w}/" if prefixed else ""
        reps[w], m, mismatch = trace_run(w, seed, workroot)
        problems += [f"{w}: traced counts differ for {label!r}" for label in mismatch]
        unmeasured = reps[w][-1]["trace"]["unmeasured"]
        for name, (value, unit) in m.items():
            metrics[prefix + name] = (value, unit)
            flag = any(name.startswith(f"{u}.") for u in unmeasured)
            print(f"{prefix + name:<52}{value:>14.6g}  {unit}"
                  f"{'  (unmeasured)' if flag else ''}")
    return reps, metrics, problems


def run_untraced(workloads, prefixed, seed, seconds, workroot):
    reps, samples = measure(workloads, seed, seconds, workroot)
    metrics = {}
    print(f"{'metric':<28}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}  unit")
    for w in workloads:
        prefix = f"{w}/" if prefixed else ""
        for name, unit in END_TO_END:
            med, q1, q3 = quartiles(samples[w][name])
            metrics[prefix + name] = (med, unit)
            print(f"{prefix + name:<28}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}"
                  f"{len(samples[w][name]):>4}  {unit}")
    return reps, metrics, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "painleve_instanton" / "cli.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    everything = args.workload == "all"
    workloads = list(WORKLOADS) if everything else [args.workload]
    env = env_record()
    record = {"seed": args.seed, "workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "env": env}
    print(f"seed {args.seed} workload {args.workload} trace {args.trace} "
          f"seconds {args.seconds:g}", flush=True)
    workroot = ROOT / ".perfbench_work"
    workroot.mkdir(exist_ok=True)
    try:
        if args.trace:
            reps, metrics, problems = run_traced(workloads, everything, args.seed, workroot)
        else:
            reps, metrics, record["samples"] = run_untraced(
                workloads, everything, args.seed, args.seconds, workroot)
            problems = []
    finally:
        if not any(workroot.iterdir()):
            workroot.rmdir()

    ops = [r for runs in reps.values() for res in runs for r in res["ops"]]
    for r in ops:
        if not r["ok"]:
            why = "; ".join(r["errors"][:3] + [r["stderr"].strip()[-200:]])
            print(f"failed: {r['label']} rc={r['rc']} {why}")
    problems += [f"verdict disagrees with the gate: {r['label']} rc={r['rc']} "
                 f"{'; '.join(r['errors'][:3])}" for r in ops if not r["consistent"]]
    for p in problems:
        print(f"ERROR {p}", file=sys.stderr, flush=True)
    attempted, failed = len(ops), sum(not r["ok"] for r in ops)
    info = next(iter(reps.values()))[0]["info"]
    env.update(python=info["python"], numpy=info["numpy"])
    print(f"env {json.dumps(env)}")
    print(f"failed_ratio {failed}/{attempted}")
    record.update(reps=reps, problems=problems)
    path = write_record(f"{args.workload}-seed{args.seed}-trace{args.trace}", record)
    print(f"record {path.relative_to(ROOT)}", flush=True)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
