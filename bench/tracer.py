"""Span tracer for the benchmark's traced run.

The tracer wraps phaseiso's public functions from outside the package: it
rebinds every public function of the six layer modules in each phaseiso
module that holds it (``decomposition`` imports ``ray_key``, ``support_set``
and ``is_w_star_exposed`` by name, so patching the defining module alone
would miss those calls), and it replaces ``NormSpec.norm_of``,
``NormSpec.dual_norm_of`` and ``PhaseMapOracle.__call__`` once on their
classes.  ``uninstall`` restores every original.

Spans live in memory as ``(name, start_ns, end_ns, parent, op, size)`` tuples
and are folded into :class:`LayerStats` after each traced pass.

:class:`CheckMemory` is separate: it measures what ``cli.cmd_check``
allocates with tracemalloc, in an untimed pass of its own, because
tracemalloc slows every allocation and would distort the spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

LAYERS = ("spaces", "orthogonality", "phase_maps", "decomposition", "harness", "cli")

ORACLE_MISS = "phase_maps.oracle_miss"
ORACLE_HIT = "phase_maps.oracle_hit"


def _len_of(value):
    return len(value) if hasattr(value, "__len__") else None


# Spans that record a size: the pairs a check was given.
_SIZES = {
    "phase_maps.check_phase_equation": lambda args, result: _len_of(args[1]),
}


class Tracer:
    """Records one span per call of a wrapped function while installed."""

    def __init__(self):
        self.spans: list = []
        self.op = None  # index of the timed op in its pass; set by the runner
        self._stack: list = []
        self._patches: list = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        size_of = _SIZES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                size = size_of(args, result) if size_of else None
                spans[idx] = (name, start, end, parent, tracer.op, size)

        return traced

    def _wrap_oracle(self, fn):
        """``PhaseMapOracle.__call__``: a call that grows ``query_log`` is a miss."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(oracle, *args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            before = len(oracle.query_log)
            missed = True  # a call that raises (a table without the point) did not hit
            start = clock()
            try:
                result = fn(oracle, *args, **kwargs)
                missed = len(oracle.query_log) > before
                return result
            finally:
                end = clock()
                stack.pop()
                name = ORACLE_MISS if missed else ORACLE_HIT
                spans[idx] = (name, start, end, parent, tracer.op, None)

        return traced

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        modules = {layer: importlib.import_module(f"phaseiso.{layer}") for layer in LAYERS}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "phaseiso" or mod_name.startswith("phaseiso.")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        norm_spec = modules["spaces"].NormSpec
        for attr in ("norm_of", "dual_norm_of"):
            self._patch(norm_spec, attr, self._wrap(f"spaces.{attr}", getattr(norm_spec, attr)))
        oracle_cls = modules["phase_maps"].PhaseMapOracle
        self._patch(oracle_cls, "__call__", self._wrap_oracle(oracle_cls.__call__))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._stack.clear()


class CheckMemory:
    """Peak bytes that each ``cli.cmd_check`` call allocates (tracemalloc)."""

    def __init__(self):
        self.peaks: list = []
        self._patch = None

    def install(self):
        cli = importlib.import_module("phaseiso.cli")
        original, peaks = cli.cmd_check, self.peaks

        @functools.wraps(original)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        self._patch = (cli, original)
        cli.cmd_check = measured

    def uninstall(self):
        if self._patch is not None:
            cli, original = self._patch
            cli.cmd_check = original
            self._patch = None

    def peak_mb(self) -> float:
        """The largest check's peak in MiB, 0 when no check ran."""
        return max(self.peaks, default=0) / 2 ** 20


# ---------------------------------------------------------------------------
# per-layer statistics
# ---------------------------------------------------------------------------

# Functions reported as calls_per_op and us_per_call.
COUNTED = (
    "spaces.norm_of", "spaces.dual_norm_of", "spaces.is_w_star_exposed",
    "spaces.support_set", "spaces.directional_derivative",
    "orthogonality.birkhoff_verdict",
    ORACLE_MISS, ORACLE_HIT, "phase_maps.ray_key",
    "decomposition.plan_queries", "decomposition.pin_signs",
    "decomposition.recover_functional", "decomposition.recover_projective_linear",
    "decomposition.normalize_two_dim",
)

DECOMPOSE = "decomposition.decompose"
RUN_TRIAL = "harness.run_trial"


class LayerStats:
    """Sums of traced passes, folded one pass at a time."""

    def __init__(self):
        self.ops = 0
        self.op_ns = 0
        self.spans = 0
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.layer_self_ns = Counter()
        self.sizes = Counter()
        self.decompose_queries = 0
        self.trial_ns = defaultdict(list)

    def fold(self, spans, op_kinds, op_ns):
        """Add one pass: its spans, the kind of each op and each op's latency.

        Parents always precede their children in ``spans``, so one forward
        sweep can tell whether a span runs inside ``decompose``.
        """
        self.ops += len(op_kinds)
        self.op_ns += sum(op_ns)
        child_ns = [0] * len(spans)
        for name, start, end, parent, op, size in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        in_decompose = [False] * len(spans)
        for i, (name, start, end, parent, op, size) in enumerate(spans):
            in_decompose[i] = name == DECOMPOSE or (parent >= 0 and in_decompose[parent])
            if op is None:
                continue  # outside a timed call
            self.spans += 1
            dur = end - start
            own = dur - child_ns[i]
            self.calls[name] += 1
            self.total_ns[name] += dur
            self.self_ns[name] += own
            self.layer_self_ns[name.split(".", 1)[0]] += own
            if size is not None:
                self.sizes[name] += size
            if name == ORACLE_MISS and in_decompose[i]:
                self.decompose_queries += 1
            if name == RUN_TRIAL:
                self.trial_ns[op_kinds[op]].append(dur)

    def metrics(self) -> dict:
        """Per-layer metric values by name (units live in BENCHMARK.json)."""
        ops = max(self.ops, 1)

        def per_call(name, scale):
            return self.total_ns[name] / self.calls[name] / scale if self.calls[name] else 0.0

        def share(ns):
            return ns / self.op_ns if self.op_ns else 0.0

        out = {}
        for name in COUNTED:
            out[f"{name}.calls_per_op"] = self.calls[name] / ops
            out[f"{name}.us_per_call"] = per_call(name, 1e3)
        for layer in LAYERS:
            out[f"{layer}.self_share"] = share(self.layer_self_ns[layer])
        lookups = self.calls[ORACLE_MISS] + self.calls[ORACLE_HIT]
        out["phase_maps.oracle.hit_ratio"] = self.calls[ORACLE_HIT] / lookups if lookups else 0.0
        pairs = self.sizes["phase_maps.check_phase_equation"]
        out["phase_maps.check_phase_equation.us_per_pair"] = (
            self.total_ns["phase_maps.check_phase_equation"] / pairs / 1e3 if pairs else 0.0)
        out["phase_maps.read_samples.ms_per_call"] = per_call("phase_maps.read_samples", 1e6)
        out["phase_maps.write_samples.ms_per_call"] = per_call("phase_maps.write_samples", 1e6)
        out["phase_maps.generate_isometry.us_per_call"] = per_call("phase_maps.generate_isometry", 1e3)
        out["decomposition.decompose.ms_per_call"] = per_call(DECOMPOSE, 1e6)
        out["decomposition.decompose.self_share"] = share(self.self_ns[DECOMPOSE])
        out["decomposition.decompose.queries_per_call"] = (
            self.decompose_queries / self.calls[DECOMPOSE] if self.calls[DECOMPOSE] else 0.0)
        out["harness.score_certificate.us_per_call"] = per_call("harness.score_certificate", 1e3)
        out["trace.spans_per_op"] = self.spans / ops
        return out

    def trial_p50_ms(self, kind) -> float:
        """Median traced ``run_trial`` latency of one op kind, 0 when it never ran."""
        durations = self.trial_ns.get(kind)
        return statistics.median(durations) / 1e6 if durations else 0.0
