"""phaseiso benchmark: one workload, one closed-loop client, one thread.

    python3 bench/run.py --workload fuzz_mix --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the traced pass and reports the per-layer metrics.  Metric names and
units come from BENCHMARK.json at the repository root.  Standard output ends
with a ``{"report": ...}`` line (every metric, the tail percentile, versions,
seed) and then the result line ``{"correct", "attempted", "failed",
"metrics"}``.  Run it from a checkout that holds ``src/phaseiso``; anywhere
else it exits with code 2 and prints no result.
"""

import os

# Pin BLAS/OpenMP pools to one thread before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
from array import array  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"

SETUP_REPEATS = 7
REFERENCE_KERNEL_NS = 1_000_000
TAIL_BEYOND = 10
NO_WAIT_NOTE = ("closed loop, one client, one thread: the next op starts when the "
                "previous one returns, so no op waits in a queue and no wait time "
                "is recorded")


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read BENCHMARK.json: {exc}")


def import_library():
    """Put the checkout's ``src`` first on the path and import phaseiso from it."""
    if not (SRC / "phaseiso" / "__init__.py").is_file():
        raise SetupError(f"no phaseiso sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import phaseiso  # noqa: F401


def pin_to_one_cpu() -> int:
    """Run this process, and the children it starts, on one CPU.

    The cores' speeds swing apart (see README); on one core the speed gauge
    sampled in this process also holds for the child interpreters of the
    set-ups, and no op migrates between cores of different speed.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment(seed: int, nproc: int, cpu: int) -> dict:
    import scipy
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": nproc, "pinned_cpu": cpu,
            "machine": platform.machine(), "seed": seed,
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


IMPORT_PROBE = """
import time
start = time.perf_counter_ns()
import phaseiso.cli
print(time.perf_counter_ns() - start)
"""


def measure_setup(workload):
    """One set-up: the import of the whole library in a fresh interpreter
    (the start-up every CLI call pays), then the workload's own input
    preparation in this process.

    Returns (set-up ns, start ns, end ns); the set-up time excludes the
    child interpreter's own start and exit.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter_ns()
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          check=True, capture_output=True, text=True)
    prep = time.perf_counter_ns()
    workload.setup()
    end = time.perf_counter_ns()
    return int(proc.stdout) + end - prep, start, end


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def _kernel():
    """Fixed calibration work: small numpy calls, tuple building and hashing,
    the mix of phaseiso's hot paths.  It never changes between commits."""
    a = np.arange(8.0)
    acc = 0.0
    for i in range(200):
        b = np.abs(a - i)
        acc += float(np.sum(b))
        acc += hash(tuple(b.tolist())) & 1
    return acc


class SpeedGauge:
    """Single-core speed of the machine, sampled between the timed ops.

    The sandbox's core speed swings by up to 1.5x in phases of seconds to
    minutes, the same for wall and CPU time.  Times are therefore scaled to a
    reference speed at which the kernel takes REFERENCE_KERNEL_NS: an op's
    factor is that over the median kernel time sampled within WINDOW_NS of
    the op (at least MIN_SAMPLES samples, widening the window if needed).
    """

    EVERY_NS = 100_000_000
    WINDOW_NS = 500_000_000
    MIN_SAMPLES = 3

    def __init__(self):
        self.times, self.kernel_ns = [], []

    def sample(self, count=1):
        for _ in range(count):
            start = time.perf_counter_ns()
            _kernel()
            end = time.perf_counter_ns()
            self.times.append((start + end) // 2)
            self.kernel_ns.append(end - start)

    def refresh(self):
        if not self.times or time.perf_counter_ns() - self.times[-1] >= self.EVERY_NS:
            self.sample()

    def factor(self, start_ns, end_ns) -> float:
        window = self.WINDOW_NS
        while True:
            lo = bisect.bisect_left(self.times, start_ns - window)
            hi = bisect.bisect_right(self.times, end_ns + window)
            if hi - lo >= min(self.MIN_SAMPLES, len(self.times)):
                return REFERENCE_KERNEL_NS / statistics.median(self.kernel_ns[lo:hi])
            window *= 2


def run_pass(ops, tracer=None, gauge=None):
    """Run ops back to back; returns each op's start (ns), latency (ns) and
    output.  With a gauge, the machine's speed is sampled between ops.

    An op that raises yields its exception as output; the checker counts it.
    """
    starts, latencies, outputs = [], [], []
    clock = time.perf_counter_ns
    for i, op in enumerate(ops):
        if gauge is not None:
            gauge.refresh()
        if op.prepare is not None:
            op.prepare()
        if tracer is not None:
            tracer.op = i
        start = clock()
        try:
            output = op.call()
        except Exception as exc:  # one failed op must not end the run
            output = exc
        latencies.append(clock() - start)
        starts.append(start)
        if tracer is not None:
            tracer.op = None
        outputs.append(output)
    return starts, latencies, outputs


class Checker:
    """Counts attempted and failed ops; a failure is logged to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ops, outputs, reference=None, validate=True):
        """Digest of each output, None where the op failed.

        ``validate`` runs each op's own check; ``reference`` holds the digests
        the same ops produced before, which the outputs must repeat exactly.
        """
        from workloads import Mismatch
        digests = []
        for pos, (op, output) in enumerate(zip(ops, outputs)):
            self.attempted += 1
            try:
                if isinstance(output, Exception):
                    raise Mismatch(f"{op.kind} raised "
                                   + "".join(traceback.format_exception(output)))
                if validate:
                    op.validate(output)
                digest = op.digest(output)
                if reference is not None and digest != reference[pos]:
                    raise Mismatch(f"{op.kind} op {pos} output differs from its first run")
            except Exception as exc:  # any error while checking is a wrong output
                self.failed += 1
                digest = None
                if self.failed <= 5:
                    print(f"op failed: {exc}", file=sys.stderr)
            digests.append(digest)
        return digests

    def pin(self, workload: str, seed: int, digests) -> str:
        """Compare the reference pass with the digest pinned for this seed."""
        pinned = json.loads((BENCH / "digests.json").read_text()).get(workload, {})
        want = pinned.get(str(seed))
        if want is None:
            return "not pinned"
        if None not in digests and combined_digest(digests) == want:
            return "match"
        self.failed += sum(d is not None for d in digests)
        print(f"reference outputs differ from the digest pinned for seed {seed}",
              file=sys.stderr)
        return "mismatch"


def combined_digest(digests) -> str:
    return hashlib.sha256("\n".join(map(str, digests)).encode()).hexdigest()


def reference_pass(workload, checker):
    """First (untimed) run of cycle 0: warms caches, validates every output."""
    ops = workload.cycle(0)
    _, _, outputs = run_pass(ops)
    return checker.check(ops, outputs)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail(latencies_ns):
    """Highest percentile with TAIL_BEYOND samples above it: (ms, percentile, samples)."""
    ordered = sorted(latencies_ns)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1] / 1e6, 100.0, n
    return ordered[n - TAIL_BEYOND - 1] / 1e6, 100.0 * (n - TAIL_BEYOND) / n, n


def median_ms(latencies_ns) -> float:
    return statistics.median(latencies_ns) / 1e6


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


class Timings:
    """Per-op measurements of one run, kept in flat arrays: a growing list of
    tuples would feed the garbage collector and show in the run's memory."""

    def __init__(self):
        self.cycle, self.kind = array("l"), []
        self.start, self.ns, self.work = array("q"), array("d"), array("q")

    def add(self, cycle, kind, start, ns, work):
        self.cycle.append(cycle)
        self.kind.append(kind)
        self.start.append(start)
        self.ns.append(ns)
        self.work.append(work)

    def summarize(self, workload, ns, setup_s):
        """End-to-end metrics for per-op latencies ``ns`` (raw or scaled)."""
        by_kind, work, per_cycle = defaultdict(list), defaultdict(int), defaultdict(list)
        for cycle, kind, t, units in zip(self.cycle, self.kind, ns, self.work):
            by_kind[kind].append(t)
            work[kind] += units
            per_cycle[cycle].append(t)
        tail_ms, tail_pct, samples = tail(ns)
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": statistics.median(len(c) / (sum(c) / 1e9) for c in per_cycle.values()),
            "op_p50_ms": median_ms(ns),
            "op_tail_ms": tail_ms,
        }
        for name, (stat, kind, unit) in workload.extra.items():
            metrics[name] = (median_ms(by_kind[kind]) if stat == "p50"
                             else work[kind] / (sum(by_kind[kind]) / 1e9))
        kinds = {kind: median_ms(lats) for kind, lats in sorted(by_kind.items())}
        return metrics, kinds, {"percentile": tail_pct, "samples": samples,
                                "beyond": TAIL_BEYOND}


def measure_end_to_end(workload, seconds, checker, report):
    """Time cycles of ops for ``seconds``, set-ups excluded.

    The first set-up runs before the ops; the other SETUP_REPEATS - 1 are
    spread evenly over the timed window (the clock is paused while they run),
    so that ``setup_s`` samples the same phases of machine speed as the ops.
    """
    gauge = SpeedGauge()
    setup_raw = [measure_setup(workload)]
    reference = reference_pass(workload, checker)
    report["pinned_digest"] = checker.pin(workload.name, workload.seed, reference)
    report["digest"] = combined_digest(reference)

    timings = Timings()
    gc.collect()
    gauge.sample(SpeedGauge.MIN_SAMPLES)
    start = time.perf_counter()
    paused = 0.0
    k = 0
    while k == 0 or time.perf_counter() - start - paused < seconds:
        if (len(setup_raw) < SETUP_REPEATS and time.perf_counter() - start - paused
                >= len(setup_raw) * seconds / SETUP_REPEATS):
            t0 = time.perf_counter()
            setup_raw.append(measure_setup(workload))
            paused += time.perf_counter() - t0
        k += 1
        ops = workload.cycle(k)
        starts, latencies, outputs = run_pass(ops, gauge=gauge)
        digests = checker.check(ops, outputs, reference if workload.repeats else None,
                                validate=not workload.repeats)
        for op, t0, ns, output, digest in zip(ops, starts, latencies, outputs, digests):
            units = op.work(output) if op.work is not None and digest is not None else 0
            timings.add(k, op.kind, t0, ns, units)
    while len(setup_raw) < SETUP_REPEATS:  # a run too short to spread them
        setup_raw.append(measure_setup(workload))
    gauge.sample(SpeedGauge.MIN_SAMPLES)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    factors = array("d", (gauge.factor(t0, t0 + ns) for t0, ns in zip(timings.start, timings.ns)))
    scaled = array("d", (ns * f for ns, f in zip(timings.ns, factors)))
    setup_s = statistics.median(ns * gauge.factor(t0, end) / 1e9 for ns, t0, end in setup_raw)
    metrics, kinds, tails = timings.summarize(workload, scaled, setup_s)
    metrics["peak_rss_mb"] = rss_mb
    setup_runs = [ns / 1e9 for ns, _, _ in setup_raw]
    raw_metrics, raw_kinds, raw_tails = timings.summarize(workload, timings.ns,
                                                          statistics.median(setup_runs))
    report.update(cycles=k, op_tail=tails, kind_p50_ms=kinds,
                  speed_factor_median=statistics.median(factors),
                  unscaled={"metrics": raw_metrics, "kind_p50_ms": raw_kinds,
                            "op_tail": raw_tails, "setup_runs_s": setup_runs})
    units = {name: unit for name, (_, _, unit) in workload.extra.items()}
    units["op_tail_ms"] = "ms"  # reported, not gated: see README
    return metrics, units


def measure_traced(workload, seconds, checker, report):
    """Alternate untraced and traced passes of cycle 0 until ``seconds`` pass,
    then run one untimed pass that measures ``check``'s allocations.

    Every pass runs the same ops, so per-op counts repeat exactly at a seed.
    The last traced pass's spans are written to a file named in the report.
    """
    from tracer import CheckMemory, LayerStats, Tracer
    from workloads import FUZZ_FAMILIES

    workload.setup()
    reference = reference_pass(workload, checker)
    report["digest"] = combined_digest(reference)
    tracer, stats = Tracer(), LayerStats()
    pass_ns = {False: [], True: []}
    last_spans = []
    start = time.perf_counter()
    pairs = 0
    while pairs == 0 or time.perf_counter() - start < seconds:
        for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
            ops = workload.cycle(0)
            if traced:
                tracer.install()
            try:
                _, latencies, outputs = run_pass(ops, tracer if traced else None)
            finally:
                tracer.uninstall()
            checker.check(ops, outputs, reference, validate=False)
            pass_ns[traced].append(sum(latencies))
            if traced:
                stats.fold(tracer.spans, [op.kind for op in ops], latencies)
                last_spans, tracer.spans = tracer.spans, []
        pairs += 1

    memory = CheckMemory()
    ops = workload.cycle(0)
    memory.install()
    try:
        _, _, outputs = run_pass(ops)
    finally:
        memory.uninstall()
    checker.check(ops, outputs, reference, validate=False)

    metrics = stats.metrics()
    for family, _ in FUZZ_FAMILIES:
        metrics[f"harness.run_trial.{family}.p50_ms"] = stats.trial_p50_ms(f"trial:{family}")
    # traced ops/s relative to untraced ops/s over the same ops
    metrics["trace.overhead_ratio"] = (statistics.median(pass_ns[False])
                                       / statistics.median(pass_ns[True]))
    metrics["cli.check.peak_alloc_mb"] = memory.peak_mb()
    spans_file = WORKDIR / f"{workload.name}.spans.jsonl"
    with open(spans_file, "w") as fh:
        for name, t0, t1, parent, op, size in last_spans:
            fh.write(json.dumps({"name": name, "start_ns": t0, "end_ns": t1,
                                 "parent": parent, "op": op, "size": size}) + "\n")
    report.update(pass_pairs=pairs, traced_ops=stats.ops,
                  spans_file=str(spans_file.relative_to(ROOT)), spans=len(last_spans))
    return metrics, {}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        import_library()
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    nproc = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR))
    checker = Checker()
    report = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "env": environment(args.seed, nproc, cpu), "loop": NO_WAIT_NOTE}
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            values, units = measure_traced(workload, args.seconds, checker, report)
        else:
            values, units = measure_end_to_end(workload, args.seconds, checker, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units.update({m["name"]: m["unit"] for m in declared})
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"bench: no value for declared metrics {missing}", file=sys.stderr)
        return 2
    report["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in values.items()}
    report.update(attempted=checker.attempted, failed=checker.failed,
                  error_rate=checker.failed / max(checker.attempted, 1))
    result = {"correct": checker.failed == 0, "attempted": checker.attempted,
              "failed": checker.failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in declared}}
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
