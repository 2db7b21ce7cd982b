"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that the output gate fails an operation whose output was corrupted
after the program wrote it (delta set to the "theorem" variant, a flipped
`passed`, a truncated CSV), that such an operation also breaks `correct`,
that a wrapped function renamed away leaves its layer unmeasured instead of
crashing the trace, and that the metric names agree with BENCHMARK.json.
Exits non-zero on the first failed expectation.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from tracer import Tracer

REPORT = run._op("verify", "verify", 1)
PVI = run._op("pvi-integrate", "pvi-integrate", 1)
TRACE = run._op("trace-csv", "trace", 3, 101)


def expect(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def program_outputs(tmp):
    """Run the three operations once through the benchmark's child."""
    ops = (REPORT, PVI, TRACE)
    with run.Child(tmp) as child:
        child.send({"trace": False,
                    "ops": [[i, op.label, [*op.argv, "--out", str(tmp / op.out_name(i))]]
                            for i, op in enumerate(ops)]})
        res = child.collect()
    expect([r["rc"] for r in res["ops"]] == [0, 0, 0], "the program runs cleanly")
    return [tmp / op.out_name(i) for i, op in enumerate(ops)]


def expect_caught(op, path, what):
    verdict = run.gate(op, path, rc=0)
    expect(not verdict["ok"] and not verdict["consistent"],
           f"{what} fails the operation and breaks `correct` ({verdict['errors'][:1]})")


def test_gate(tmp):
    report, pvi, trace = program_outputs(tmp)
    for op, path in ((REPORT, report), (PVI, pvi), (TRACE, trace)):
        verdict = run.gate(op, path, rc=0)
        expect(verdict["ok"] and verdict["consistent"], f"pristine {op.label} passes")

    doc = json.loads(report.read_text())
    n = REPORT.n
    theorem = dict(doc, params=dict(doc["params"], delta=-(n * n - 1.0) / 8.0),
                   delta_variant="theorem")
    report.write_text(json.dumps(theorem))
    expect_caught(REPORT, report, "delta set to the theorem variant")
    report.write_text(json.dumps(dict(doc, passed=not doc["passed"])))
    expect_caught(REPORT, report, "a flipped `passed`")

    text = pvi.read_text()
    pvi.write_text(text[: len(text) // 2])
    expect_caught(PVI, pvi, "a truncated pvi-integrate CSV")
    twistor = Path(str(trace) + ".twistor.csv")
    lines = twistor.read_text().splitlines(keepends=True)
    twistor.write_text("".join(lines[:-10]))
    expect_caught(TRACE, trace, "a truncated twistor CSV")

    missing = tmp / "never-written.json"
    verdict = run.gate(REPORT, missing, rc=2)
    expect(not verdict["ok"] and verdict["consistent"],
           "a failing exit without a report is a failure the program admits")


def test_renamed_layer(tmp):
    sys.path.insert(0, str(run.ROOT / "src"))
    import painleve_instanton.cli as cli
    from painleve_instanton import stepper

    saved = stepper.rk45_path
    del stepper.rk45_path            # as if a change had renamed it away
    try:
        tracer = Tracer()
        tracer.install()
    finally:
        stepper.rk45_path = saved
    expect(tracer.unmeasured == ["stepper.rk45_path"],
           "a renamed-away function is reported unmeasured")
    out = tmp / "renamed.csv"
    rc = cli.main(["pvi-integrate", "--n", "1", "--samples", "21", "--out", str(out)])
    expect(rc == 0 and tracer.calls["stepper.rk45"] > 0,
           "the traced program still runs and the other layers count")
    metrics = run.layer_metrics(tracer.report(), 1, 1.0)
    expect(metrics["stepper.rk45_path.calls"] == (0, "count"),
           "the unmeasured layer reads 0 instead of crashing the run")


def test_metric_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    empty = {"calls": {}, "busy_s": {}, "self_s": {}}
    layer = {k: u for k, (_, u) in run.layer_metrics(empty, 0, 1.0).items()}
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == layer,
           "per-layer names and units match BENCHMARK.json")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END),
           "end-to-end names and units match BENCHMARK.json")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "workloads match BENCHMARK.json")


def main():
    test_metric_names()
    workroot = run.ROOT / ".perfbench_work"
    workroot.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=workroot))
    try:
        test_gate(tmp)
        test_renamed_layer(tmp)
    finally:
        shutil.rmtree(tmp)
        if not any(workroot.iterdir()):
            workroot.rmdir()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
