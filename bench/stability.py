"""Run-to-run spread of the end-to-end metrics, as the acceptance rule reads it.

    python3 bench/stability.py --workloads fuzz_mix table_cli geometry \
        --seeds 1-10 --seconds 20 --out spread.json

Runs ``bench/run.py`` once per workload and seed, each in a fresh process,
one after another.  For every end-to-end metric (and the workload-only
metrics of the report line) it prints the median and the quartile spread
``(q3 - q1) / median`` from ``statistics.quantiles(values, n=4)``, next to a
third of the metric's bound.  It exits 1 when a gated metric spreads beyond
its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds_from(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed ops")
    values = {name: m["value"] for name, m in report["metrics"].items()}
    for name, value in report.get("unscaled", {}).get("metrics", {}).items():
        values[f"unscaled.{name}"] = value
    return values


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("--out", default=None, help="write every value here (JSON)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, seconds) for seed in seeds_from(args.seeds)]
        values[workload] = {name: [r[name] for r in runs] for name in runs[0]}
    if args.out:
        Path(args.out).write_text(json.dumps(values, indent=1))

    ok = True
    for workload, metrics in values.items():
        print(workload)
        for name, vals in metrics.items():
            med = statistics.median(vals)
            s = spread(vals)
            bound = bounds.get(name)
            line = f"  {name:22s} median {med:14.6g}  spread {s:7.4f}"
            if bound is not None:
                line += f"  bound/3 {bound / 3:.4f}"
                if s > bound:
                    ok = False
                    line += "  SPREAD OVER BOUND"
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
