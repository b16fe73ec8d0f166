"""Self-test of the benchmark itself.

    python3 bench/selftest.py

* A one-second run of each workload prints every end-to-end metric of
  BENCHMARK.json, and in its report line the tail and every workload-only
  metric, each with its unit; no op fails.
* Two traced runs at the same seed report every per-layer metric with its
  unit and identical counts and check allocation peaks.
* Tracing never changes output: the traced runs fail no op (each traced pass
  is compared with the untraced reference pass), and their reference digest
  equals the untraced run's and, where one is pinned, bench/digests.json.
* Each traced run writes its last traced pass's spans to the file its report
  names.
* A table_cli command that exits 0 without writing its output file counts
  as a failed op.
* In a directory that holds only BENCHMARK.json and bench/, the benchmark
  exits nonzero and prints no result.

Exits 0 when every check holds; prints each failed check otherwise.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 1
SECONDS = "1"
COUNT_UNITS = {"calls/op", "queries/call", "spans/op"}
EXACT = {"phase_maps.oracle.hit_ratio", "cli.check.peak_alloc_mb"}

sys.path[:0] = [str(BENCH), str(ROOT / "src")]
from workloads import WORKLOADS  # noqa: E402

failures = []


def expect(ok, message):
    if not ok:
        failures.append(message)
        print(f"FAIL {message}")


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def parse(proc, label):
    lines = proc.stdout.strip().splitlines()
    expect(proc.returncode == 0, f"{label}: exit code {proc.returncode}: {proc.stderr[-1500:]}")
    if proc.returncode != 0 or len(lines) < 2:
        return None, None
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def has_units(metrics, declared, label):
    for m in declared:
        got = metrics.get(m["name"])
        expect(got is not None and got["unit"] == m["unit"],
               f"{label}: metric {m['name']} missing or not in {m['unit']}")


def check_unwritten_output_fails():
    """Repeat table_cli's cycle with a ``gen`` that exits 0 and writes nothing."""
    import run
    from phaseiso import cli

    workdir = Path(tempfile.mkdtemp(prefix="unwritten-", dir=ROOT / ".bench_work"))
    original = cli.cmd_gen
    try:
        workload = WORKLOADS["table_cli"](SEED, workdir)
        workload.setup()
        checker = run.Checker()
        reference = run.reference_pass(workload, checker)
        cli.cmd_gen = lambda args: 0
        ops = workload.cycle(1)
        _, _, outputs = run.run_pass(ops)
        cli.cmd_gen = original
        before = checker.failed
        checker.check(ops, outputs, reference, validate=False)
        expect(before == 0 and checker.failed > 0,
               "table_cli: a gen that wrote nothing was not counted as failed")
    finally:
        cli.cmd_gen = original
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pinned = json.loads((BENCH / "digests.json").read_text())
    for name, workload in WORKLOADS.items():
        report, result = parse(run(name, 0), f"{name} untraced")
        if result is None:
            continue
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"{name}: result keys {sorted(result)}")
        expect(result["correct"] and result["failed"] == 0 and report["error_rate"] == 0,
               f"{name}: {result['failed']} of {result['attempted']} ops failed")
        expect(set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]},
               f"{name}: result metrics differ from end_to_end")
        has_units(result["metrics"], spec["end_to_end"], f"{name} untraced")
        report_only = [{"name": n, "unit": u} for n, (_, _, u) in workload.extra.items()]
        has_units(report["metrics"], report_only + [{"name": "op_tail_ms", "unit": "ms"}],
                  f"{name} report")
        want = pinned.get(name, {}).get(str(SEED))
        expect(want is None or report["digest"] == want,
               f"{name}: reference digest differs from the pinned one")

        traced = [parse(run(name, 1), f"{name} traced") for _ in range(2)]
        if any(r is None for r, _ in traced):
            continue
        for t_report, t_result in traced:
            expect(t_result["correct"] and t_result["failed"] == 0,
                   f"{name} traced: {t_result['failed']} ops failed or changed under tracing")
            expect(set(t_result["metrics"]) == {m["name"] for m in spec["per_layer"]},
                   f"{name} traced: result metrics differ from per_layer")
            has_units(t_result["metrics"], spec["per_layer"], f"{name} traced")
            expect(t_report["digest"] == report["digest"],
                   f"{name}: traced run's reference digest differs from the untraced run's")
            spans = ROOT / t_report["spans_file"]
            lines = len(spans.read_text().splitlines()) if spans.is_file() else 0
            expect(lines == t_report["spans"] > 0,
                   f"{name} traced: {lines} lines in {spans}, report says {t_report['spans']}")
        (_, first), (_, second) = traced
        for m in spec["per_layer"]:
            if m["unit"] in COUNT_UNITS or m["name"] in EXACT:
                a = first["metrics"][m["name"]]["value"]
                b = second["metrics"][m["name"]]["value"]
                expect(a == b, f"{name}: {m['name']} differs between traced runs ({a} vs {b})")

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    check_unwritten_output_fails()

    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("fuzz_mix", 0, cwd=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "bare checkout: expected a nonzero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
