"""The benchmark's three workloads.

Each workload is a closed loop with one client: ``cycle(k)`` returns the ops
of cycle ``k`` and the runner times them one after another.  One op is one
timed call into phaseiso's public API.  Every call goes through a module
attribute (``harness.run_trial``, ``cli.main``, ...) so that the tracer's
rebinding of those attributes reaches it.

* ``fuzz_mix``  -- seeded round trips (generate, decompose, score) cycling
  through the eight families of acceptance criterion 1 plus the polyhedral
  n=3 space; new trial seeds every cycle.
* ``table_cli`` -- in-process ``phaseiso`` command lines on JSONL sample
  tables: ``gen``, table-mode ``decompose`` and ``check``; the same ops every
  cycle.
* ``geometry``  -- Birkhoff verdicts and lemma-path functional recovery on
  lp, weighted lp and polyhedral spaces; the same ops every cycle.

Inputs come from the run's seed only.  ``validate`` checks an output against
an independent expectation; ``digest`` fingerprints it, so that repeated ops
can be compared with their first, validated run.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

from phaseiso import cli, decomposition, harness, orthogonality, phase_maps
from phaseiso.spaces import NormSpec

INF = math.inf
POLY3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
T_ERROR_MAX = 1e-9


class Mismatch(Exception):
    """An op's output differs from what the benchmark expects."""


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    validate: Callable[[object], None]
    digest: Callable[[object], str]
    work: Optional[Callable[[object], int]] = None  # units of work in the output
    prepare: Optional[Callable[[], None]] = None  # untimed, just before the call


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_digest(obj) -> str:
    return _sha(json.dumps(obj, sort_keys=True).encode())


def _derived_seed(seed: int, *salt: int) -> int:
    ss = np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, *salt])
    return int(ss.generate_state(1, np.uint32)[0])


def _max_sign_error(got: np.ndarray, want: np.ndarray) -> float:
    """Distance between two matrices up to the unidentifiable global sign."""
    return min(float(np.max(np.abs(got - want))), float(np.max(np.abs(got + want))))


# ---------------------------------------------------------------------------
# fuzz_mix
# ---------------------------------------------------------------------------

FUZZ_FAMILIES = (
    ("l1_n3", NormSpec.lp(3, 1)),
    ("l1_n8", NormSpec.lp(8, 1)),
    ("linf_n3", NormSpec.lp(3, INF)),
    ("linf_n8", NormSpec.lp(8, INF)),
    ("l2_n2", NormSpec.lp(2, 2)),
    ("l2_n6", NormSpec.lp(6, 2)),
    ("l1p5_n5", NormSpec.lp(5, 1.5)),
    ("l3_n5", NormSpec.lp(5, 3)),
    ("poly_n3", NormSpec.polyhedral(3, POLY3)),
)


def _validate_trial(outcome):
    if outcome.status != "success":
        raise Mismatch(f"trial {outcome.seed}: {outcome.status} ({outcome.message})")
    if not outcome.t_error <= T_ERROR_MAX:
        raise Mismatch(f"trial {outcome.seed}: t_error {outcome.t_error}")
    if outcome.eps_consistent is not True:
        raise Mismatch(f"trial {outcome.seed}: recovered signs disagree with the hidden ones")


def _trial_digest(outcome) -> str:
    return _json_digest(outcome.to_dict())


class FuzzMix:
    name = "fuzz_mix"
    repeats = False  # every cycle draws new trial seeds
    extra = {}  # workload-only metrics: name -> (statistic, op kind, unit)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self):
        self.families = list(FUZZ_FAMILIES)

    def cycle(self, k: int) -> List[Op]:
        ops = []
        for j, (family, space) in enumerate(self.families):
            seed = harness.trial_seed(self.seed, k * len(self.families) + j)
            ops.append(Op(f"trial:{family}",
                          lambda space=space, seed=seed: harness.run_trial(space, seed),
                          _validate_trial, _trial_digest))
        return ops


# ---------------------------------------------------------------------------
# table_cli
# ---------------------------------------------------------------------------

TABLE_SPACES = (
    ("l1_n8", NormSpec.lp(8, 1)),
    ("l2_n6", NormSpec.lp(6, 2)),
    ("linf_n8", NormSpec.lp(8, INF)),
    ("poly_n3", NormSpec.polyhedral(3, POLY3)),
)
GEN_EXTRA = 100          # random rows beyond the probe plan in each gen table
SMALL_CHECK_PAIRS = 500
BIG_CHECK_ROWS = 2000    # rows of the one large check table (l1, n=8)
BIG_CHECK_SPACE = "l1_n8"
CLI_MAX_PAIRS = 10_000   # phaseiso check's default --max-pairs


def _file_digest(result) -> str:
    code, path = result
    return _sha(f"exit={code}\n".encode() + Path(path).read_bytes())


def _expect_exit_zero(code, argv):
    if code != 0:
        raise Mismatch(f"exit code {code} from phaseiso {' '.join(argv[:1])}")


class TableCli:
    name = "table_cli"
    repeats = True
    extra = {"decompose_p50_ms": ("p50", "decompose", "ms"),
             "check_pairs_per_s": ("rate", "check", "pairs/s"),
             "gen_p50_ms": ("p50", "gen", "ms")}

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir

    def setup(self):
        """Write the large check table; the gen ops write the others."""
        self.spaces = []
        for i, (label, space) in enumerate(TABLE_SPACES):
            self.spaces.append((label, space, json.dumps(space.to_json()),
                                _derived_seed(self.seed, 0x7AB1E, i)))
        _, space, spec, seed = next(s for s in self.spaces if s[0] == BIG_CHECK_SPACE)
        route = decomposition.route_for(space)
        plan_rows = len(decomposition.plan_queries(space, route, seed).all_points())
        self.big_table = str(self.dir / "check_big.jsonl")
        argv = ["gen", "--space", spec, "--seed", str(seed), "--out", self.big_table,
                "--extra", str(BIG_CHECK_ROWS - plan_rows)]
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"phaseiso gen exited {code} while writing the check table")
        self.big_space = (space, spec, seed)

    def _cli(self, kind, argv, out, validate, work=None):
        # The output file is removed before each call, so a command that
        # exits 0 without writing it fails instead of passing on an old file.
        return Op(kind, lambda: (cli.main(argv), out),
                  lambda result: (_expect_exit_zero(result[0], argv), validate(result[1])),
                  _file_digest, work, prepare=lambda: Path(out).unlink(missing_ok=True))

    def cycle(self, k: int) -> List[Op]:
        ops = []
        for label, space, spec, seed in self.spaces:
            table = str(self.dir / f"{label}.jsonl")
            cert = str(self.dir / f"{label}.cert.json")
            report = str(self.dir / f"{label}.check.json")
            ops.append(self._cli(
                "gen", ["gen", "--space", spec, "--seed", str(seed), "--out", table,
                        "--extra", str(GEN_EXTRA)],
                table, lambda path, space=space: _validate_table(path, space)))
            ops.append(self._cli(
                "decompose", ["decompose", "--space", spec, "--samples", table,
                              "--seed", str(seed), "--declare-surjective", "--out", cert],
                cert, lambda path, space=space, seed=seed: _validate_cert(path, space, seed)))
            ops.append(self._cli(
                "check", ["check", "--space", spec, "--samples", table, "--seed", str(seed),
                          "--max-pairs", str(SMALL_CHECK_PAIRS), "--out", report],
                report, lambda path, table=table: _validate_check(path, table, SMALL_CHECK_PAIRS),
                _checked_pairs))
        space, spec, seed = self.big_space
        report = str(self.dir / "check_big.check.json")
        ops.append(self._cli(
            "check", ["check", "--space", spec, "--samples", self.big_table,
                      "--seed", str(seed), "--out", report],
            report, lambda path: _validate_check(path, self.big_table, CLI_MAX_PAIRS),
            _checked_pairs))
        return ops


def _validate_table(path, space):
    """Every row of a generated table keeps the norm: |f(x)| = |x|."""
    rows = phase_maps.read_samples(path)
    if not rows:
        raise Mismatch(f"{path}: empty sample table")
    for x, fx in rows:
        want = space.norm_of(x)
        if abs(space.norm_of(fx) - want) > 1e-9 * (1.0 + want):
            raise Mismatch(f"{path}: row {list(x)} does not keep its norm")


def _validate_cert(path, space, seed):
    """The certificate's T is the generator's hidden T up to global sign."""
    cert = json.loads(Path(path).read_text())
    truth = phase_maps.generate_isometry(space, seed).matrix
    err = _max_sign_error(np.asarray(cert["T"], float), truth)
    if err > T_ERROR_MAX:
        raise Mismatch(f"{path}: recovered T is {err:.3e} from the hidden one")
    if not cert["residual_max"] <= T_ERROR_MAX:
        raise Mismatch(f"{path}: replay residual {cert['residual_max']}")


def _validate_check(path, table, cap):
    """The check passes on the whole sample of pairs it was allowed."""
    report = json.loads(Path(path).read_text())
    rows = sum(1 for line in Path(table).read_text().splitlines() if line.strip())
    want_pairs = min(cap, rows * (rows + 1) // 2)
    if not report["passed"] or report["failures"]:
        raise Mismatch(f"{path}: check failed on a generated phase-isometry")
    if report["sampled_pairs"] != want_pairs or report["pairs"] != want_pairs:
        raise Mismatch(f"{path}: checked {report['pairs']} pairs, expected {want_pairs}")
    if not report["max_discrepancy"] <= 1e-9:
        raise Mismatch(f"{path}: discrepancy {report['max_discrepancy']}")


def _checked_pairs(result) -> int:
    return json.loads(Path(result[1]).read_text())["sampled_pairs"]


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

GEOMETRY_SPACES = (
    ("l1_n4", NormSpec.lp(4, 1)),
    ("l1p5_n4", NormSpec.lp(4, 1.5)),
    ("linf_n4", NormSpec.lp(4, INF)),
    ("wl1p5_n4", NormSpec.weighted_lp(4, 1.5, [1.0, 2.0, 0.5, 1.5])),
    ("poly_n3", NormSpec.polyhedral(3, POLY3)),
)
ORTHO_RANDOM = 8        # random pairs per space, mostly not orthogonal
ORTHO_CONSTRUCTED = 8   # pairs with y in an orthogonal hyperplane of x
LEMMA_VERIFY_POINTS = 100
_BRUTE_STEPS = tuple(s * 2.0 ** -k for k in range(0, 31) for s in (1.0, -1.0))


def _lemma_functional(space: NormSpec, rng: np.random.Generator) -> np.ndarray:
    """A functional the lemma accepts: an exposed point of the dual ball."""
    n = space.dim
    if space.kind == "polyhedral":
        row = space.functionals[rng.integers(len(space.functionals))]
        c = rng.choice([-1.0, 1.0]) * row
    elif space.p == 1.0:
        c = rng.choice([-1.0, 1.0], size=n)
    elif math.isinf(space.p):
        c = np.zeros(n)
        c[rng.integers(n)] = rng.choice([-1.0, 1.0])
    else:
        c = rng.standard_normal(n)
    return c / space.dual_norm_of(c)


def _verdict_digest(verdict) -> str:
    return _json_digest(verdict.to_dict())


def _validate_verdict(x, y, constructed):
    """Brute-force Birkhoff test on a step grid, independent of the slopes."""

    def check(verdict):
        nx = x.norm
        floor = min((x + t * y).norm for t in _BRUTE_STEPS)
        slack = 1e-9 * (1.0 + nx)
        if constructed and not verdict.orthogonal:
            raise Mismatch(f"{x} is orthogonal to {y} by construction")
        if verdict.orthogonal:
            if floor < nx - slack:
                raise Mismatch(f"verdict orthogonal, but |x+ty| drops below |x| for {x}, {y}")
            w = verdict.witness
            if w is None or abs(w(y)) > slack or abs(w(x) - nx) > slack:
                raise Mismatch(f"orthogonal verdict for {x}, {y} lacks an annihilating witness")
        elif verdict.margin < -1e-6 and floor >= nx - slack:
            raise Mismatch(f"verdict not orthogonal, but no step shortens x for {x}, {y}")

    return check


def _validate_recovery(space, verify):

    def check(rec):
        bound = 1e-8 * (1.0 + max(space.norm_of(v) for v in verify))
        dn = rec.phi.dual_norm
        if abs(dn - 1.0) > 1e-9:
            raise Mismatch(f"recovered phi has dual norm {dn}, not 1")
        if not rec.max_deviation <= bound:
            raise Mismatch(f"lemma deviation {rec.max_deviation} exceeds {bound}")
        if len(rec.sign_pattern) != len(verify):
            raise Mismatch("lemma skipped verify points")

    return check


def _recovery_digest(rec) -> str:
    return _json_digest(rec.to_dict())


class Geometry:
    name = "geometry"
    repeats = True
    extra = {"lemma_p50_ms": ("p50", "lemma", "ms"),
             "ortho_p50_ms": ("p50", "ortho", "ms")}

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed & 0xFFFFFFFFFFFFFFFF, 0x6E0]))
        self.inputs = []
        for _, space in GEOMETRY_SPACES:
            x_star = space.functional(_lemma_functional(space, rng))
            oracle_seed = int(rng.integers(2 ** 31))
            verify = [rng.standard_normal(space.dim) for _ in range(LEMMA_VERIFY_POINTS)]
            pairs = []
            for _ in range(ORTHO_RANDOM):
                pairs.append((space.vector(rng.standard_normal(space.dim)),
                              space.vector(rng.standard_normal(space.dim)), False))
            for _ in range(ORTHO_CONSTRUCTED):
                x = space.vector(rng.standard_normal(space.dim))
                y = orthogonality.orthogonal_hyperplane(x).sample(rng, 1)[0]
                pairs.append((x, y, True))
            self.inputs.append((space, x_star, oracle_seed, verify, pairs))

    def cycle(self, k: int) -> List[Op]:
        ops = []
        for space, x_star, oracle_seed, verify, pairs in self.inputs:
            # a fresh oracle per lemma, so every cycle starts from an empty cache
            oracle = phase_maps.generate_phase_isometry(
                phase_maps.generate_isometry(space, oracle_seed), oracle_seed)
            ops.append(Op("lemma",
                          lambda f=oracle, x_star=x_star, verify=verify:
                          decomposition.recover_functional(f, x_star, verify_points=verify),
                          _validate_recovery(space, verify), _recovery_digest))
            for x, y, constructed in pairs:
                ops.append(Op("ortho", lambda x=x, y=y: orthogonality.birkhoff_verdict(x, y),
                              _validate_verdict(x, y, constructed), _verdict_digest))
        return ops


WORKLOADS = {w.name: w for w in (FuzzMix, TableCli, Geometry)}
