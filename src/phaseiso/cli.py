"""Command-line entry point.

Subcommands: check, decompose, ortho, lemma, gen, fuzz.  All results are
JSON on stdout (or --out); progress notes go to stderr.  The PHASE_TOL
environment variable overrides the default comparison tolerance; an explicit
--tol flag wins over both.  ``main`` builds its parser once per process and
runs subcommand ``<name>`` as the module attribute ``cmd_<name>(args)``, looked
up at each call, so a ``cmd_*`` patched in after the first call still runs.

Exit codes: 0 success; 1 failed checks; 2 not decomposable; 3 route or
input-plan errors; 4 functional not exposed; 64 malformed input, usage
errors included (and a polyhedral space whose dual-norm LP the solver
rejects), and an output file that cannot be written; 65 dimension
mismatches.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

import numpy as np

from .decomposition import (ROUTES, NoStabilization, NotDecomposable, NotExposed,
                            RouteUnsupported, SmoothnessFailure, decompose, plan_queries,
                            recover_functional)
from .harness import CampaignConfig, run_campaign
from .orthogonality import birkhoff_verdict
from .phase_maps import (MissingSamples, PhaseMapOracle, SampleFormatError,
                         check_phase_equation_batch, generate_isometry,
                         generate_phase_isometry, read_table, validate_table,
                         write_samples)
from .settings import Tolerances, tolerances_from_env
from .spaces import DimensionMismatch, NormSpec

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_NOT_DECOMPOSABLE = 2
EXIT_ROUTE_ERROR = 3
EXIT_NOT_EXPOSED = 4
EXIT_BAD_INPUT = 64
EXIT_DIMENSION = 65


def _log(msg: str):
    print(msg, file=sys.stderr)


def _emit(data: dict, out: Optional[str]):
    text = json.dumps(data, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        _log(f"wrote {out}")
    else:
        print(text)


def _load_space(arg: str) -> NormSpec:
    try:
        if arg.strip().startswith("{"):
            return NormSpec.from_json(arg)
        with open(arg) as fh:
            return NormSpec.from_json(json.load(fh))
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise SampleFormatError(arg, 0, f"cannot load space description: {exc}")


def _tolerances(args) -> Tolerances:
    tol = tolerances_from_env()
    if getattr(args, "tol", None) is not None:
        tol = Tolerances(args.tol)
    return tol


def _parse_vector(text: str, dim: int) -> np.ndarray:
    """A JSON list of coordinates; a bare number is a vector only when dim is 1."""
    try:
        v = np.asarray(json.loads(text), dtype=float)
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise SampleFormatError("<arg>", 0, f"cannot parse vector {text!r}: {exc}")
    if v.ndim == 0:
        if dim != 1:
            raise SampleFormatError("<arg>", 0, f"a bare number ({text!r}) is a vector only "
                                                f"in dimension 1; give a list of {dim}")
        v = v.reshape(1)
    return v


def _non_negative(flag: str, value: int) -> int:
    if value < 0:
        raise ValueError(f"{flag} must be >= 0, got {value}")
    return value


def _sample_pairs(n: int, cap: int, seed: int):
    """Row indices (i, j), i <= j, of the pairs that ``check`` evaluates.

    The n(n+1)/2 pairs of n rows are numbered row-major.  When more than
    ``cap`` exist, ``cap`` numbers are drawn uniformly without replacement
    from the seed's stream; each number k is then unranked, in sorted order,
    from the offsets of the rows, so the pairs are never listed.
    """
    total = n * (n + 1) // 2
    if total > cap:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC4E]))
        k = np.sort(rng.choice(total, size=cap, replace=False))
    else:
        k = np.arange(total)
    rows = np.arange(n)
    offsets = rows * n - rows * (rows - 1) // 2  # pairs numbered before row i
    i = np.searchsorted(offsets, k, side="right") - 1
    return i, i + (k - offsets[i])


def _seed_oracle(space: NormSpec, oracle_seed: int, even: bool) -> PhaseMapOracle:
    t = generate_isometry(space, oracle_seed)
    return generate_phase_isometry(t, oracle_seed, even=even)


def _oracle(args, space: NormSpec, declared: bool = False) -> PhaseMapOracle:
    """The --samples table over --codomain, else the --oracle-seed oracle; ``declared`` adds
    the surjectivity declaration."""
    if args.samples:
        codomain = _load_space(args.codomain) if args.codomain else space
        f = PhaseMapOracle.from_table(space, codomain, columns=read_table(args.samples))
    else:
        f = _seed_oracle(space, args.oracle_seed, even=not args.uneven)
    f.declared_surjective |= declared
    return f


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    tol = _tolerances(args)
    space = _load_space(args.space)
    codomain = _load_space(args.codomain) if args.codomain else space
    X, FX, _ = validate_table(space, codomain, columns=read_table(args.samples))
    i, j = _sample_pairs(len(X), _non_negative("--max-pairs", args.max_pairs), args.seed)
    report = check_phase_equation_batch(space, codomain, X[i], X[j], FX[i], FX[j], tol)
    data = report.to_dict()
    data["tolerances"] = tol.to_dict()
    data["sampled_pairs"] = len(i)
    _emit(data, args.out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_ortho(args) -> int:
    tol = _tolerances(args)
    space = _load_space(args.space)
    x = space.vector(_parse_vector(args.x, space.dim))
    y = space.vector(_parse_vector(args.y, space.dim))
    verdict = birkhoff_verdict(x, y, tol)
    data = verdict.to_dict()
    data["x"] = list(x.coords)
    data["y"] = list(y.coords)
    data["tolerances"] = tol.to_dict()
    _emit(data, args.out)
    return EXIT_OK


def cmd_decompose(args) -> int:
    tol = _tolerances(args)
    space = _load_space(args.space)
    f = _oracle(args, space, declared=args.declare_surjective)
    cert = decompose(f, route=args.route, seed=args.seed, tol=tol, force=args.force)
    data = cert.to_json()
    _log(f"route={cert.route} residual_max={cert.residual_max:.3e} "
         f"verified_pairs={cert.verified_pairs}")
    _emit(data, args.out)
    return EXIT_OK


def cmd_lemma(args) -> int:
    tol = _tolerances(args)
    space = _load_space(args.space)
    coords = _parse_vector(args.functional, space.dim)
    dn = space.dual_norm_of(coords)
    if args.normalize:
        if dn == 0.0:
            raise ValueError("the functional is zero and cannot be normalized")
        coords = coords / dn
    elif abs(dn - 1.0) > 1e-6:
        raise DimensionMismatch(f"functional must be unit in the dual norm (got {dn}); "
                                "pass --normalize to rescale")
    x_star = space.functional(coords)
    f = _oracle(args, space)
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 0x1E44]))
    verify = [rng.standard_normal(space.dim)
              for _ in range(_non_negative("--verify-points", args.verify_points))]
    rec = recover_functional(f, x_star, verify_points=verify, tol=tol)
    data = rec.to_dict()
    data["tolerances"] = tol.to_dict()
    _emit(data, args.out)
    return EXIT_OK


def cmd_gen(args) -> int:
    tol = _tolerances(args)
    space = _load_space(args.space)
    oracle = _seed_oracle(space, args.seed, even=not args.uneven)
    plan = plan_queries(space, args.route, args.seed, tol)
    points = plan.all_points()
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 0xE57A]))
    extras = [rng.standard_normal(space.dim) for _ in range(_non_negative("--extra", args.extra))]
    write_samples(args.out, oracle, points + extras)
    _log(f"wrote {len(points) + len(extras)} samples to {args.out}")
    if args.hidden:
        truth = oracle.hidden_truth
        signs = truth["signs"].to_dict()
        data = {"space": space.to_json(), "seed": args.seed,
                "even": not args.uneven, "route": plan.route,
                "T": [list(row) for row in truth["T"].matrix],
                "signs": signs}
        with open(args.hidden, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
        _log(f"wrote hidden truth to {args.hidden}")
    return EXIT_OK


def cmd_fuzz(args) -> int:
    tol = _tolerances(args)
    space = _load_space(args.space)
    config = CampaignConfig(space=space, trials=args.trials, seed=args.seed,
                            route=args.route, tolerances=tol,
                            even=not args.uneven)
    report = run_campaign(config)
    data = report.to_dict()
    _emit(data, args.out)
    _log(f"{report.successes}/{len(report.outcomes)} trials succeeded "
         f"in {report.wall_seconds:.2f}s")
    return EXIT_OK if not report.failures else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting 64, as malformed input does; its
    own 2 would read as "not decomposable".  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="phaseiso",
        description="phase-isometry checking and sign-times-isometry decomposition")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_default=0, codomain=False, oracle=False, samples_out=False):
        p.add_argument("--space", required=True,
                       help="space description: JSON file path or inline JSON")
        p.add_argument("--tol", type=float, default=None,
                       help="override the comparison tolerance")
        if seed_default is not None:  # ortho draws nothing at random and takes no seed
            p.add_argument("--seed", type=int, default=seed_default)
        p.add_argument("--out", required=samples_out, help="write the JSONL samples here"
                       if samples_out else "write the JSON result here")
        if codomain:
            p.add_argument("--codomain", default=None,
                           help="codomain space for sample tables (defaults to --space)")
        if oracle:  # read by _oracle
            p.add_argument("--samples", default=None, help="JSONL sample table for the oracle")
            p.add_argument("--oracle-seed", type=int, default=0,
                           help="regenerate a seeded oracle instead of reading samples")
            p.add_argument("--uneven", action="store_true",
                           help="seeded oracle draws per-ray signs (not odd)")

    p = sub.add_parser("check", help="verify the defining equation on sample pairs")
    common(p, codomain=True)
    p.add_argument("--samples", required=True, help="JSONL file of {x, fx} records")
    p.add_argument("--max-pairs", type=int, default=10_000,
                   help="cap on pairs formed from the sample pool")

    p = sub.add_parser("ortho", help="Birkhoff orthogonality verdict")
    common(p, seed_default=None)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = sub.add_parser("decompose", help="factor an oracle into sign * isometry")
    common(p, codomain=True, oracle=True)
    p.add_argument("--route", choices=ROUTES, default="auto")
    p.add_argument("--declare-surjective", action="store_true")
    p.add_argument("--force", action="store_true",
                   help="attempt decomposition without the surjectivity declaration")

    p = sub.add_parser("lemma", help="recover the dual functional matched to an exposed x*")
    common(p, codomain=True, oracle=True)
    p.add_argument("--functional", required=True, help="dual coordinates as JSON")
    p.add_argument("--normalize", action="store_true",
                   help="rescale the functional to unit dual norm first")
    p.add_argument("--verify-points", type=int, default=100)

    p = sub.add_parser("gen", help="generate a hidden factorization and its samples")
    common(p, seed_default=42, samples_out=True)
    p.add_argument("--uneven", action="store_true",
                   help="independent per-ray signs (oddness generically fails)")
    p.add_argument("--route", choices=ROUTES, default="auto")
    p.add_argument("--extra", type=int, default=100,
                   help="extra random sample points beyond the probe plan")
    p.add_argument("--hidden", default=None, help="write the hidden truth JSON here")

    p = sub.add_parser("fuzz", help="seeded generate/decompose/score campaign")
    common(p, seed_default=42)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--route", choices=ROUTES, default="auto")
    p.add_argument("--uneven", action="store_true")

    return parser


# How a failing run ends: the first row the exception is an instance of gives the exit code,
# the stderr prefix and the JSON written to --out, if any; no row follows one of its supertypes.
_FAILURES = (
    (SampleFormatError, EXIT_BAD_INPUT, "input error", None),
    (DimensionMismatch, EXIT_DIMENSION, "error", None),
    (MissingSamples, EXIT_ROUTE_ERROR, "sample table incomplete",
     lambda exc: {"missing_probes": [list(p) for p in exc.points]}),
    (NotExposed, EXIT_NOT_EXPOSED, "not exposed", None),
    (NotDecomposable, EXIT_NOT_DECOMPOSABLE, "not decomposable",
     lambda exc: {"not_decomposable": str(exc), "witness": exc.witness}),
    (RouteUnsupported, EXIT_ROUTE_ERROR, "route error", None),
    (NoStabilization, EXIT_ROUTE_ERROR, "route error", None),
    (SmoothnessFailure, EXIT_ROUTE_ERROR, "route error", None),
    (ValueError, EXIT_BAD_INPUT, "error", None),
    (ArithmeticError, EXIT_BAD_INPUT, "numerical error", None),  # a dual-norm LP the solver rejects
    (OSError, EXIT_BAD_INPUT, "cannot write output", None),  # every read is a SampleFormatError
)


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses, built on its first call rather than at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        for dest in ("seed", "oracle_seed"):
            if getattr(args, dest, None) is not None:
                _non_negative("--" + dest.replace("_", "-"), getattr(args, dest))
        return globals()["cmd_" + args.command](args)  # looked up now: callers patch cmd_*
    except tuple(row[0] for row in _FAILURES) as exc:
        _, code, prefix, payload = next(row for row in _FAILURES if isinstance(exc, row[0]))
        _log(f"{prefix}: {exc}")
        if payload is not None:
            try:
                _emit(payload(exc), args.out)
            except OSError as write_exc:  # the run keeps its own exit code
                _log(f"cannot write output: {write_exc}")
        return code


if __name__ == "__main__":
    sys.exit(main())
