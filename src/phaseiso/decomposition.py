"""Factoring a declared-surjective phase-isometry oracle into sign * isometry.

The engine recovers a linear isometry T and a sign table eps such that
eps(x) * T x reproduces every oracle answer, or fails with a concrete
witness.  Four constructive routes are provided:

* ``one_dim``  -- T(t) = t * f(x0) for a unit x0, signs read off per sample
* ``smooth``   -- sign pinning on probe pairs, functional-recovery
                  corroboration, projective recovery from basis images
* ``linf``     -- coordinate-functional alignment, sign-map verification,
                  hyperplane pinning, frame assembly
* ``l1``       -- basis-ray homogeneity, finite-support expansion with norm
                  bookkeeping, exposed-functional sign fixing

plus a best-effort ``generic`` route for space kinds none of the specialized
arguments cover: the ``smooth`` route without its corroboration, open to
every domain of dimension >= 2.  ``route_for`` alone maps a space to its
route.  Every run starts by fetching the fixed probes its route reads
(``QueryPlan.reads``) in one oracle call, whose block the route's own stages
read, and finishes by re-verifying the defining equation on fresh pairs
through the recovered factorization and by replaying the full query log
against it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .phase_maps import (LinearMap, MissingSamples, PhaseMapOracle, SignAssignment, _row_dots,
                         _row_keys, canonical_rays, check_phase_equation_batch, ray_keys)
from .settings import DEFAULT_TOL, Tolerances
from .spaces import (Functional, NormSpec, Vector, _row_products, is_w_star_exposed,
                     support_set)

__all__ = [
    "DecompositionError",
    "NotDecomposable",
    "RangeDegenerate",
    "CollinearityViolation",
    "RouteUnsupported",
    "SurjectivityNotDeclared",
    "NoStabilization",
    "SmoothnessFailure",
    "NotExposed",
    "FunctionalRecovery",
    "TwoDimNormalization",
    "DecompositionCertificate",
    "QueryPlan",
    "plan_queries",
    "route_for",
    "normalize_two_dim",
    "recover_projective_linear",
    "recover_functional",
    "decompose",
]

ROUTES = ("auto", "one_dim", "smooth", "linf", "l1", "generic")

_HOM_GRID = (0.5, 2.0, -1.0, 3.0)
_TWO_DIM_GRID = tuple(s * 2.0 ** k for k in range(-6, 7) for s in (1.0, -1.0))
_SCHEDULE = tuple(2.0 ** k for k in range(21))
# the images of a plan's read groups by name, each shaped like its group with the
# codomain dimension last
_Images = Mapping[str, np.ndarray]


class DecompositionError(Exception):
    """Base class for decomposition failures."""


def _plain(obj):
    if isinstance(obj, np.ndarray):
        return [float(v) for v in obj]
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    return obj


class NotDecomposable(DecompositionError):
    """The oracle violates an identity every decomposable map satisfies."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = _plain(witness)


class RangeDegenerate(NotDecomposable):
    """Probe images span too small a subspace of the codomain."""


class CollinearityViolation(NotDecomposable):
    """A probe image left the line the recovered linear map predicts."""


class RouteUnsupported(DecompositionError):
    """The requested route does not apply to the domain space."""


class SurjectivityNotDeclared(RouteUnsupported):
    """A surjective route was requested for an oracle without the declaration."""


class NoStabilization(DecompositionError):
    """The functional-recovery schedule ran out before estimates settled."""


class SmoothnessFailure(DecompositionError):
    """The image of a schedule point is not a smooth point of the codomain."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


class NotExposed(DecompositionError):
    """The requested functional is not an exposed point of the dual ball."""


# ---------------------------------------------------------------------------
# sign pinning
# ---------------------------------------------------------------------------


def _nearer_signs(cod: NormSpec, A: np.ndarray, B: np.ndarray):
    """Per row: the sign s in {+1, -1} with the smaller |A - s B|, and that residual.

    +1 wins a tie and, as min() keeps its first argument, a NaN residual of its own.
    """
    r_plus, r_minus = cod.norms_of(A - B), cod.norms_of(A + B)
    minus = r_minus < r_plus
    return np.where(minus, -1, 1), np.where(minus, r_minus, r_plus)


_SIGN_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
_SIGN_PRODUCTS = np.array([a * b for a, b in _SIGN_PAIRS])


def _pin_rows(cod: NormSpec, FX: np.ndarray, FY: np.ndarray, FXY: np.ndarray,
              scale: np.ndarray, tol: Tolerances):
    """The pinning rule on rows of images: fit FXY[k] by alpha FX[k] + beta FY[k].

    Per row, the residuals of the four sign pairs are taken in the order of
    ``_SIGN_PAIRS`` and the first smallest wins; when another pair comes
    within ``tol.tie * scale`` of it the row is tied, and a tie that (+1, +1)
    is part of resolves to (+1, +1).  Returns (index into ``_SIGN_PAIRS``,
    residual, tied, failed), where a row fails when its residual exceeds
    ``tol.scaled(scale)``.
    """
    R = np.column_stack([cod.norms_of(FXY - (a * FX + b * FY)) for a, b in _SIGN_PAIRS])
    best = np.zeros(len(R), dtype=int)
    r_best = R[:, 0]
    for c in range(1, len(_SIGN_PAIRS)):
        lower = R[:, c] < r_best  # as min() compares, so a NaN first residual stays
        best = np.where(lower, c, best)
        r_best = np.where(lower, R[:, c], r_best)
    near = R <= (r_best + tol.tie * scale)[:, None]
    tied = near.sum(axis=1) > 1
    plus = tied & near[:, 0]
    best = np.where(plus, 0, best)
    r_best = np.where(plus, R[:, 0], r_best)
    return best, r_best, tied, r_best > tol.scaled(scale)


def _pin_pairs(f: PhaseMapOracle, X: np.ndarray, Y: np.ndarray, F: Sequence[np.ndarray],
               tol: Tolerances):
    """The pinning rule on the pairs (X[k], Y[k]) of two (m, dim) float arrays.

    The routes pin plan pairs only, which are linearly independent by
    construction (a test checks it).  ``F`` holds their images as three
    (m, codomain dim) arrays: f(X), f(Y) and f(X + Y).  Returns the arrays
    (best, residual, tied) of :func:`_pin_rows`: per pair, the index into
    ``_SIGN_PAIRS`` of the winning sign pair, its residual and whether it is
    tied.  The first pair in row order that no sign combination fits raises
    :class:`NotDecomposable` with (x, y) as its witness.
    """
    FX, FY, FS = F
    best, r_best, tied, failed = _pin_rows(f.codomain, FX, FY, FS, f.domain.norms_of(X + Y), tol)
    if failed.any():
        k = int(np.argmax(failed))
        raise NotDecomposable(
            f"no sign combination reproduces f(x+y); best residual {r_best[k]:.3e}",
            witness=(list(X[k]), list(Y[k])))
    return best, r_best, tied


# ---------------------------------------------------------------------------
# probe planning
# ---------------------------------------------------------------------------


def route_for(space: NormSpec) -> str:
    """The route of a space: the one its theorem covers, else ``generic``.

    A run may ask for this route or, from dimension 2 on, for ``generic``.
    """
    if space.dim == 1:
        return "one_dim"
    if space.is_smooth_space:
        return "smooth"
    if space.kind == "lp":  # p = 1 or p = inf
        return "l1" if space.p == 1.0 else "linf"
    return "generic"


@dataclass
class QueryPlan:
    """Deterministic probe sets for one decomposition run.

    Built from (space, route, seed) alone, so a sample table generated from
    the same triple contains every point the run will query.  ``probes``
    holds the named probe groups in query-table order: an (m, dim) array of
    points, or an (m, k, dim) array of k-tuples such as the (x, y, x + y)
    rows of ``random_pairs``.  ``schedules`` maps each planned functional
    recovery to its exposed functional and exposing point; their doubling
    schedules are the rows of the ``schedules`` group.

    ``reads`` names the groups the route reads in full, in the order it
    first reads them: :func:`decompose` fetches their rows, group after
    group, in one ``images`` call before the route runs, and the route's
    stages read their images from that block.  ``schedules`` is never among
    them, as a recovery stops where its estimates settle.
    """

    space: NormSpec
    route: str
    seed: int
    reads: Tuple[str, ...] = ()
    probes: Dict[str, np.ndarray] = field(default_factory=dict)
    schedules: Dict[str, Tuple[Functional, Vector]] = field(default_factory=dict)

    def all_points(self) -> List[np.ndarray]:
        """Every point the run may query, deduplicated by exact coordinates."""
        P = np.vstack([group.reshape(-1, self.space.dim) for group in self.probes.values()])
        seen = {}
        for key, p in zip(_row_keys(P), P):
            seen.setdefault(key, p)
        return list(seen.values())


# the groups each route reads in full; "two_dim" stands for smooth and generic at n = 2,
# and smooth reads "randoms" as the verify points of its coord0 recovery
_READS = {
    "one_dim": ("unit", "scales", "fresh_pairs"),
    "two_dim": ("homogeneity", "two_dim", "fresh_pairs"),
    "smooth": ("homogeneity", "basis", "basis_pairs", "random_pairs", "randoms", "ones", "verify",
               "fresh_pairs"),
    "generic": ("homogeneity", "basis", "basis_pairs", "random_pairs", "ones", "verify",
                "fresh_pairs"),
    "linf": ("randoms", "basis", "sign_vectors", "homogeneity", "hyperplane", "basis_pairs",
             "fresh_pairs"),
    "l1": ("basis_rays", "basis", "basis_pairs", "randoms", "ones", "homogeneity", "hyperplane",
           "fresh_pairs"),
}


def _hom_ts(m: int) -> np.ndarray:
    """The t of each of the m rows that :func:`_scaled_pairs` lays out."""
    return np.tile(_HOM_GRID, m // len(_HOM_GRID))


def _scaled_pairs(B: np.ndarray) -> np.ndarray:
    """Rows (b, t b) for each row b of B and each t of ``_HOM_GRID``, t running fastest."""
    B = np.repeat(B, len(_HOM_GRID), axis=0)
    return np.stack([B, _hom_ts(len(B))[:, None] * B], axis=1)


def _exposing_point(x_star: Functional, tol: Tolerances) -> Vector:
    """The smooth point that x* exposes, or NotExposed."""
    exposed = is_w_star_exposed(x_star, tol)
    if not exposed.exposed:
        raise NotExposed("functional is not an exposed point of the dual ball; "
                         "no smooth norming point exists")
    return exposed.point


@functools.lru_cache(maxsize=64)
def _seed_free_part(space: NormSpec, route: str, tol: Tolerances):
    """The probe groups of a plan that do not depend on its seed, in plan
    order, as a read-only mapping of read-only arrays, and its ``schedules``
    as (name, (x*, u)) pairs.  Cached per (space, route, tol): every plan on
    an equal triple would rebuild them unchanged, dual-norm and exposure
    solves included.
    """
    n = space.dim
    eye = np.eye(n)
    i, j = np.triu_indices(n, 1)
    groups = {"basis": eye, "ones": np.ones((1, n)), "basis_pairs": eye[i] + eye[j]}
    if route == "l1":
        groups["basis_rays"] = _scaled_pairs(eye)
        anchors = {"exposed": np.ones(n)}
    elif route == "linf":
        anchors = {f"coord{k}": eye[k] for k in range(n)}
    elif route == "smooth" and n >= 3:
        anchors = {"coord0": eye[0]}
    else:
        anchors = {}
    schedules = []
    for name, c in anchors.items():
        x_star = Functional(c / space.dual_norm_of(c), space)
        schedules.append((name, (x_star, _exposing_point(x_star, tol))))
    if anchors:
        U = np.array([u.coords for _, (_, u) in schedules])
        groups["schedules"] = np.array(_SCHEDULE)[:, None] * U[:, None]
    if n == 2 and route in ("smooth", "generic"):
        lines = np.array(_TWO_DIM_GRID)[:, None] * eye[0] + eye[1]
        groups["two_dim"] = canonical_rays(np.vstack([lines, eye]), space)
    for group in groups.values():
        group.setflags(write=False)
    return MappingProxyType(groups), tuple(schedules)


def plan_queries(space: NormSpec, route: str = "auto", seed: int = 0,
                 tol: Tolerances = DEFAULT_TOL) -> QueryPlan:
    """Lay out every probe a decomposition run will use, ahead of time.

    The seed-free groups and ``schedules`` entries come from a cache shared
    by every plan on an equal (space, route, tol), and their arrays are
    read-only; the seeded groups and the ``schedules`` dict are the plan's own.
    """
    route = _validate_route(space, route)
    n = space.dim
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, 0x9E37]))
    two_dim = n == 2 and route in ("smooth", "generic")
    plan = QueryPlan(space=space, route=route, seed=seed,
                     reads=_READS["two_dim" if two_dim else route])
    probes = plan.probes

    if route == "one_dim":
        grid = [0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0]
        scales = np.concatenate([grid, rng.uniform(-8.0, 8.0, size=20)])
        probes["fresh_pairs"] = rng.uniform(-5.0, 5.0, size=(25, 2, 1))
        probes["scales"] = scales[:, None]
        probes["unit"] = np.ones((1, 1))
        return plan

    fixed, schedules = _seed_free_part(space, route, tol)
    plan.schedules.update(schedules)
    eye = fixed["basis"]
    probes.update((name, fixed[name]) for name in ("basis", "ones", "basis_pairs"))
    randoms = probes["randoms"] = rng.standard_normal((3 * n, n))
    xy = randoms[:2 * min(5, 3 * n // 2)].reshape(-1, 2, n)
    probes["random_pairs"] = np.stack([xy[:, 0], xy[:, 1], xy[:, 0] + xy[:, 1]], axis=1)
    probes["homogeneity"] = _scaled_pairs(np.vstack([eye[:1], randoms[:2]]))
    probes.update((name, fixed[name]) for name in ("basis_rays", "schedules") if name in fixed)
    if route == "linf":
        X = randoms[:6]
        theta = np.sign(X)
        probes["sign_vectors"] = np.stack([X, theta, space.norms_of(X)[:, None] * theta], axis=1)
    if route in ("linf", "l1"):
        Z = randoms[:6].copy()
        Z[:, 0] = 0.0
        Z = Z[np.any(Z, axis=1)]
        probes["hyperplane"] = np.stack([Z, np.broadcast_to(eye[0], Z.shape), Z + eye[0]], axis=1)
    if "two_dim" in fixed:
        probes["two_dim"] = fixed["two_dim"]

    probes["verify"] = rng.standard_normal((100, n))
    probes["fresh_pairs"] = rng.standard_normal((25, 2, n))
    return plan


# ---------------------------------------------------------------------------
# functional recovery
# ---------------------------------------------------------------------------


@dataclass
class FunctionalRecovery:
    """Unit codomain functional phi with |x*(x)| = |phi(f(x))| on the samples."""

    x_star: Functional
    phi: Functional
    exposing_point: Vector
    stabilized_at: float
    trace: List[Tuple[float, float]]
    sign_pattern: List[int]
    max_deviation: float

    def to_dict(self) -> dict:
        return {
            "x_star": list(self.x_star.coords),
            "phi": list(self.phi.coords),
            "exposing_point": list(self.exposing_point.coords),
            "stabilized_at": self.stabilized_at,
            "trace": [[t, d] for t, d in self.trace],
            "sign_pattern": self.sign_pattern,
            "max_deviation": self.max_deviation,
        }


def _canonical_functional(c: np.ndarray) -> np.ndarray:
    for v in c:
        if v != 0.0:
            return -c if v < 0.0 else c
    return c


def recover_functional(f: PhaseMapOracle, x_star: Functional,
                       verify_points: Optional[Sequence[np.ndarray]] = None,
                       exposing_point: Optional[Vector] = None,
                       tol: Tolerances = DEFAULT_TOL) -> FunctionalRecovery:
    """Recover the unit codomain functional matched to an exposed x*.

    Takes the supporting functional of the codomain norm at f(t*u), where u
    is the smooth point exposed by x*, along the doubling schedule t = 2^k,
    stopping once successive estimates agree in dual norm; the result is
    oriented so phi(f(u)) > 0 and checked against |x*(x)| on the samples.
    """
    u = _exposing_point(x_star, tol) if exposing_point is None else exposing_point
    cod = f.codomain

    prev = None
    phi_coords = None
    stabilized_at = None
    trace: List[Tuple[float, float]] = []
    for t in _SCHEDULE:
        img = Vector(f(t * u.coords), cod)
        if img.is_zero:
            raise SmoothnessFailure(f"f vanished on the schedule at t={t}", t)
        desc = support_set(img, tol)
        if not desc.is_smooth:
            raise SmoothnessFailure(
                f"f(t*u) is not a smooth point of the codomain at t={t}", t)
        cur = _canonical_functional(desc.witness.coords)
        if prev is not None:
            delta = cod.dual_norm_of(cur - prev)
            trace.append((t, delta))
            if delta < tol.stabilization:
                phi_coords = cur
                stabilized_at = t
                break
        prev = cur
    if phi_coords is None:
        raise NoStabilization("functional estimates never settled on the schedule")

    fu = f(u.coords)
    orient = float(np.dot(phi_coords, fu))
    if orient < 0.0:
        phi_coords = -phi_coords
    phi = Functional(phi_coords, cod)

    samples = list(verify_points) if verify_points is not None else []
    V = np.array(samples, dtype=float).reshape(len(samples), f.domain.dim)
    lhs = _row_dots(V, x_star.coords)
    rhs = _row_dots(f.images(V), phi.coords)
    dev = np.abs(np.abs(lhs) - np.abs(rhs))
    failed = ~(dev <= tol.functional * (1.0 + f.domain.norms_of(V)))  # NaN fails
    if failed.any():
        k = int(np.argmax(failed))
        raise NotDecomposable(
            f"|x*(x)| and |phi(f(x))| disagree by {dev[k]:.3e}", witness=list(samples[k]))
    small = tol.scaled(1.0)
    signs = np.where((np.abs(lhs) > small) & (np.abs(rhs) > small) & ~(lhs * rhs > 0), -1, 1)
    return FunctionalRecovery(x_star, phi, u, stabilized_at, trace, signs.tolist(),
                              float(np.max(dev, initial=0.0)))


# ---------------------------------------------------------------------------
# two-dimensional normalization
# ---------------------------------------------------------------------------


@dataclass
class TwoDimNormalization:
    """Certified sign-product constancy on the grid plus the linear map it yields.

    ``products`` maps each grid ratio a to alpha(a)*beta(a); every pin
    succeeded and every product equals ``pi``, the one at a = 1, so the
    derived map g(a x + b y) = a g(x) + b g(y) is linear and phase
    equivalent to the oracle.
    """

    pi: int
    products: Dict[float, int]
    linear: LinearMap


def _homogenized_images(f: PhaseMapOracle, Z: np.ndarray) -> np.ndarray:
    """s * f(rep(z)) for each nonzero row z of Z, where rep(z) is the canonical
    representative of the line through z and s is |z| signed like <rep(z), z>.

    Agrees with +-f(z) row by row whenever f maps rays into rays; the oracle
    is queried only at the representatives, in row order.
    """
    nz = f.domain.norms_of(Z)
    reps = canonical_rays(Z, f.domain)
    return np.where(_row_dots(reps, Z) > 0.0, nz, -nz)[:, None] * f.images(reps)


def normalize_two_dim(f: PhaseMapOracle, tol: Tolerances = DEFAULT_TOL) -> TwoDimNormalization:
    """Turn a two-dimensional phase-map oracle into a certified linear map.

    Works on the homogenized view of f over the basis {e1, e2}: pins the
    sign pair of f0(a e1 + e2) against its components for every grid ratio a
    and demands the product alpha(a)*beta(a) be the constant alpha(1)*beta(1).
    A violating grid point means no sign function can linearize the oracle.
    """
    space = f.domain
    if space.dim != 2:
        raise RouteUnsupported("normalize_two_dim requires a two-dimensional domain")
    cod = f.codomain
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    grid = _TWO_DIM_GRID
    A = np.array(grid).reshape(-1, 1)
    Z = A * e1 + e2
    G = _homogenized_images(f, np.vstack([e1, e2, Z]))
    g1, g2 = G[0], G[1]
    best, r_best, _, failed = _pin_rows(cod, A * g1, np.broadcast_to(g2, (len(A), cod.dim)),
                                         G[2:], space.norms_of(Z), tol)
    if failed.any():
        k = int(np.argmax(failed))
        raise NotDecomposable(
            f"sign pinning failed on the normalization grid at a={grid[k]}",
            witness=("grid", grid[k], r_best[k]))
    products = dict(zip(grid, _SIGN_PRODUCTS[best].tolist()))
    pi = products[1.0]
    offenders = [a for a, v in products.items() if v != pi]
    if offenders:
        raise NotDecomposable(
            "sign-product constancy fails on the normalization grid at "
            f"a={offenders[0]}", witness=("product", offenders[0]))

    matrix = np.column_stack([pi * g1, g2])
    linear = LinearMap(matrix, space, cod, isometric=True)
    return TwoDimNormalization(pi, products, linear)


# ---------------------------------------------------------------------------
# projective linear recovery
# ---------------------------------------------------------------------------


def _basis_frame(basis_images: np.ndarray) -> np.ndarray:
    """The images of the n basis probes, the rows of ``basis_images``, as the
    columns of a matrix, or RangeDegenerate.

    In a codomain of dimension below n the matrix has fewer than n singular
    values, and the frame is degenerate.
    """
    v = np.column_stack(basis_images)
    sing = np.linalg.svd(v, compute_uv=False)
    if len(sing) < v.shape[1] or sing[-1] <= 1e-9 * max(sing[0], 1.0):
        raise RangeDegenerate(
            "basis images are linearly dependent; the range collapses into "
            "a lower-dimensional subspace", witness=None)
    return v


def recover_projective_linear(f: PhaseMapOracle, plan: QueryPlan,
                              tol: Tolerances = DEFAULT_TOL) -> LinearMap:
    """Recover a linear map A with [A x] = [f(x)] from basis images.

    Classical projective coordinates: scale each basis image so the image of
    the all-ones vector has unit coordinates in that frame, then verify
    collinearity of A x with f(x) on the verification probes.
    """
    space = f.domain
    n = space.dim
    if n < 2:
        raise RouteUnsupported("projective recovery requires dimension >= 2; "
                               "use the one-dimensional path")
    v = _basis_frame(f.images(plan.probes["basis"]))
    ones = plan.probes["ones"][0]
    s_img = f(ones)
    c = np.linalg.lstsq(v, s_img, rcond=None)[0]
    fit = v @ c - s_img
    if np.linalg.norm(fit) > tol.scaled(space.norm_of(ones)) * 10:
        raise CollinearityViolation(
            "image of the all-ones probe is not in the span of the basis images",
            witness=list(ones))
    a = v * c
    lin = LinearMap(a, space, f.codomain)

    P = plan.probes["verify"]
    FX = f.images(P)
    AX = _row_products(a, P)
    na, nf = np.sqrt(_row_dots(AX, AX)), np.sqrt(_row_dots(FX, FX))
    skip = (na < 1e-12) | (nf < 1e-12)
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = FX / nf[:, None]
        resid = AX - _row_dots(AX, unit)[:, None] * unit
        sine = np.sqrt(_row_dots(resid, resid)) / na
    failed = ~skip & ~(sine <= tol.collinearity)  # a NaN sine fails too
    if failed.any():
        k = int(np.argmax(failed))
        raise CollinearityViolation(
            f"probe image left the predicted line (sine residual {sine[k]:.3e})",
            witness=list(P[k]))
    return lin


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass
class DecompositionCertificate:
    """Recovered factorization with its verification transcript."""

    T: LinearMap
    sign_table: SignAssignment
    route: str
    residual_max: float
    verified_pairs: int
    max_equation_discrepancy: float
    surjectivity: str
    queried_points: int
    tolerances: Tolerances
    diagnostics: dict = field(default_factory=dict)

    def reconstruct(self, x) -> np.ndarray:
        """eps(x) * T x from the recorded sign table."""
        coords = x.coords if isinstance(x, Vector) else np.asarray(x, float)
        return self.sign_table.get(coords) * (self.T.matrix @ coords)

    def to_json(self) -> dict:
        return {
            "route": self.route,
            "T": [list(row) for row in self.T.matrix],
            "sign_table": self.sign_table.to_dict(),
            "residual_max": self.residual_max,
            "verified_pairs": self.verified_pairs,
            "max_equation_discrepancy": self.max_equation_discrepancy,
            "surjectivity": self.surjectivity,
            "queried_points": self.queried_points,
            "tolerances": self.tolerances.to_dict(),
            "diagnostics": self.diagnostics,
        }


def _normalize_global_sign(matrix: np.ndarray, tol: Tolerances) -> np.ndarray:
    col = matrix[:, 0]
    for val in col:
        if abs(val) > tol.scaled(1.0):
            return -matrix if val < 0.0 else matrix
    return matrix


def _assemble_certificate(f: PhaseMapOracle, matrix: np.ndarray, route: str,
                          plan: QueryPlan, images: _Images, tol: Tolerances,
                          diagnostics: dict) -> DecompositionCertificate:
    """Shared final stage: sign normalization, fresh-pair re-verification on
    the images of ``fresh_pairs`` that ``images`` holds, and the full
    query-log replay that the certificate asserts, which re-fetches the
    logged points by key."""
    space, cod = f.domain, f.codomain
    matrix = _normalize_global_sign(matrix, tol)
    t_map = LinearMap(matrix, space, cod, isometric=True)

    # re-verify the defining equation through the factorization on fresh pairs;
    # the rows run x0, y0, x1, y1, ...
    xy = plan.probes["fresh_pairs"].reshape(-1, space.dim)
    txy = _row_products(matrix, xy)
    rxy = _nearer_signs(cod, images["fresh_pairs"].reshape(-1, cod.dim), txy)[0][:, None] * txy
    report = check_phase_equation_batch(space, cod, xy[0::2], xy[1::2],
                                        rxy[0::2], rxy[1::2], tol)
    if not report.passed:
        bad = report.failures[0]
        raise NotDecomposable(
            "reconstructed map violates the defining equation on a fresh pair",
            witness=(list(bad.x), list(bad.y)))
    worst_disc = report.max_discrepancy

    # replay every logged query against eps * T
    q = np.array(f.query_log, dtype=float).reshape(-1, space.dim)
    q = q[np.any(q, axis=1)]
    signs, residuals = _nearer_signs(cod, f.images(q), _row_products(matrix, q))
    failed = ~(residuals <= tol.scaled(space.norms_of(q)))  # a NaN residual fails too
    if failed.any():
        k = int(np.argmax(failed))
        raise NotDecomposable(
            f"logged query is not reproduced by the factorization "
            f"(residual {residuals[k]:.3e})", witness=list(q[k]))
    residual_max = float(np.max(residuals, initial=0.0))
    sign_table = SignAssignment(space)
    sign_table.table.update(zip(ray_keys(q, space), signs.tolist()))

    return DecompositionCertificate(
        T=t_map,
        sign_table=sign_table,
        route=route,
        residual_max=residual_max,
        verified_pairs=len(plan.probes["fresh_pairs"]),
        max_equation_discrepancy=worst_disc,
        surjectivity="declared" if f.declared_surjective else "forced",
        queried_points=len(f.query_log),
        tolerances=tol,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# route implementations
# ---------------------------------------------------------------------------


def _scale_residuals(cod: NormSpec, FB: np.ndarray, FP: np.ndarray, t: np.ndarray) -> np.ndarray:
    """min(|f(p) - t f(b)|, |f(p) + t f(b)|) per row, from the images FB = f(b)
    (one row, or one per p) and FP = f(p), and the scales t."""
    return _nearer_signs(cod, FP, t[:, None] * FB)[1]


def _check_homogeneity(f: PhaseMapOracle, plan: QueryPlan, images: _Images, tol: Tolerances):
    """f(t x) must be +- t f(x) at every grid point."""
    H, F = plan.probes["homogeneity"], images["homogeneity"]  # rows (x, t x)
    r = _scale_residuals(f.codomain, F[:, 0], F[:, 1], _hom_ts(len(H)))
    failed = r > tol.scaled(f.domain.norms_of(H[:, 1]))
    if failed.any():
        k = int(np.argmax(failed))
        t = _HOM_GRID[k % len(_HOM_GRID)]
        raise NotDecomposable(f"homogeneity fails at t={t} (residual {r[k]:.3e})",
                              witness=(t, list(H[k, 0])))


def _column_signs(f: PhaseMapOracle, plan: QueryPlan, images: _Images,
                  tol: Tolerances) -> Tuple[np.ndarray, int]:
    """Pin every basis pair i < j; return the column signs of T and the number of tied pins.

    Column j carries product(0, j), and each product(i, j) must equal
    product(0, i) * product(0, j); the first incoherent pair in triu order is the witness.
    """
    basis, FB = plan.probes["basis"], images["basis"]
    i, j = np.triu_indices(len(basis), 1)  # the rows of basis_pairs, e_i + e_j
    best, _, tied = _pin_pairs(f, basis[i], basis[j], (FB[i], FB[j], images["basis_pairs"]), tol)
    product = _SIGN_PRODUCTS[best]
    sigma = np.concatenate([[1.0], product[:len(basis) - 1]])  # the pairs (0, j) lead triu order
    incoherent = product != sigma[i] * sigma[j]
    if incoherent.any():
        k = int(np.argmax(incoherent))
        raise NotDecomposable("pairwise sign products are incoherent across basis triples",
                              witness=(int(i[k]), int(j[k])))
    return sigma, int(tied.sum())


def _pin_group(f: PhaseMapOracle, plan: QueryPlan, images: _Images, name: str, tol: Tolerances):
    """Pin the sign pairs of a planned group of (x, y, x + y) rows."""
    xy = plan.probes[name]
    _pin_pairs(f, xy[:, 0], xy[:, 1], np.moveaxis(images[name], 1, 0), tol)


def _route_one_dim(f: PhaseMapOracle, plan: QueryPlan, images: _Images, tol: Tolerances,
                   diagnostics: dict):
    fx0 = images["unit"][0]
    t = plan.probes["scales"][:, 0]
    r = _scale_residuals(f.codomain, fx0, images["scales"], t)
    failed = r > tol.scaled(t)
    if failed.any():
        k = int(np.argmax(failed))
        t_k = float(t[k])
        raise NotDecomposable(f"f(t) is not +- t f(1) at t={t_k} (residual {r[k]:.3e})",
                              witness=t_k)
    return fx0[:, None]


def _route_projective(f: PhaseMapOracle, plan: QueryPlan, images: _Images, tol: Tolerances,
                      diagnostics: dict):
    """The ``smooth`` and ``generic`` routes: homogeneity, then the certified
    normalization in dimension 2, or sign pinning and projective recovery
    from dimension 3 on, corroborated by functional recovery where the plan
    holds a ``coord0`` schedule (the smooth route)."""
    _check_homogeneity(f, plan, images, tol)
    if f.domain.dim == 2:
        norm2 = normalize_two_dim(f, tol)
        diagnostics["two_dim_products"] = {str(a): v for a, v in norm2.products.items()}
        return norm2.linear.matrix
    _, ties = _column_signs(f, plan, images, tol)
    _pin_group(f, plan, images, "random_pairs", tol)
    if "coord0" in plan.schedules:
        x_star, u = plan.schedules["coord0"]
        rec = recover_functional(f, x_star, plan.probes["randoms"], u, tol)
        diagnostics["functional_max_deviation"] = rec.max_deviation
    lin = recover_projective_linear(f, plan, tol)
    if plan.route == "smooth":
        diagnostics["pin_ties"] = ties
    return lin.matrix


def _route_linf(f: PhaseMapOracle, plan: QueryPlan, images: _Images, tol: Tolerances,
                diagnostics: dict):
    space, cod = f.domain, f.codomain
    n = space.dim

    # Step 1: recover and align one codomain functional per coordinate
    w_matrix = np.vstack([recover_functional(f, x_star, plan.probes["randoms"], u, tol).phi.coords
                          for x_star, u in plan.schedules.values()])
    basis_images = images["basis"]
    # vals[i, j] = phi_i(f(e_j)), each a row dot equal to np.dot bit for bit
    vals = _row_dots(np.repeat(w_matrix, n, axis=0), np.tile(basis_images, (n, 1))).reshape(n, n)
    failed = np.abs(vals - np.eye(n)) > math.sqrt(tol.rel)
    if failed.any():
        i, j = divmod(int(np.argmax(failed)), n)
        raise NotDecomposable(
            "aligned coordinate functionals do not separate the basis "
            f"images (phi_{i}(f(e_{j})) = {vals[i, j]:.3e})", witness=(i, j))

    # Step 2: the coordinate sign map must commute with f up to phase: the pairs
    # (theta, |x| theta) and (|x| theta, x), theta = sign(x), keep their norms
    X, thetas, scaled = np.moveaxis(plan.probes["sign_vectors"], 1, 0)
    f_x, f_theta, f_scaled = np.moveaxis(images["sign_vectors"], 1, 0)
    unit = check_phase_equation_batch(space, cod, thetas, scaled, f_theta, f_scaled, tol)
    pair = check_phase_equation_batch(space, cod, scaled, X, f_scaled, f_x, tol)
    support = np.abs(X) > 0.0
    B = _row_products(w_matrix, f_theta)
    C = _row_products(w_matrix, f_x)
    lost = np.max(np.where(support, np.abs(np.abs(B) - 1.0), 0.0), axis=1) > math.sqrt(tol.rel)
    rel = np.sign(B) * np.sign(C)
    lead = rel[np.arange(len(X)), np.argmax(support, axis=1)]
    checks = (
        (~unit.pair_passed, "sign-map identity (unit vs scaled) fails"),
        (~pair.pair_passed, "sign-map identity (scaled vs original) fails"),
        (lost, "image of a sign vector lost unit coordinates"),
        (np.any(support & (rel != lead[:, None]), axis=1),
         "coordinate signs of f(x) disagree with the image of the sign vector"),
    )
    failed = np.any([mask for mask, _ in checks], axis=0)
    if failed.any():
        k = int(np.argmax(failed))
        raise NotDecomposable(next(msg for mask, msg in checks if mask[k]), witness=list(X[k]))

    # Step 3: homogeneity, pinning across the coordinate hyperplane and the
    # marked direction e_0 (mutually Birkhoff orthogonal in plain l1 and
    # linf, whatever f is), basis pinning
    _check_homogeneity(f, plan, images, tol)
    _pin_group(f, plan, images, "hyperplane", tol)
    sigma, _ = _column_signs(f, plan, images, tol)
    return np.column_stack(sigma[:, None] * basis_images)


def _route_l1(f: PhaseMapOracle, plan: QueryPlan, images: _Images, tol: Tolerances,
              diagnostics: dict):
    cod = f.codomain
    n = f.domain.dim

    # Step 1: basis rays scale correctly and stay disjoint in the image
    rays = images["basis_rays"]  # images of the rows (e_i, t e_i), t running fastest
    t = _hom_ts(len(rays))
    r = _scale_residuals(cod, rays[:, 0], rays[:, 1], t)
    failed = r > tol.scaled(t)
    if failed.any():
        i, k = divmod(int(np.argmax(failed)), len(_HOM_GRID))
        t = _HOM_GRID[k]
        raise NotDecomposable(f"f(t e_{i}) is not +- t f(e_{i}) at t={t}", witness=(i, t))
    first = np.arange(min(n, 4))
    second = (first + 1) % n
    f2 = rays[first * len(_HOM_GRID) + _HOM_GRID.index(2.0), 1]  # f(2 e_i)
    fe = images["basis"][second]
    # got[k] = (|f(2 e_i) + f(e_j)|, |f(2 e_i) - f(e_j)|) for the k-th probe pair (i, j)
    got = np.column_stack([cod.norms_of(f2 + fe), cod.norms_of(f2 - fe)])
    failed = np.abs(got - 3.0) > tol.scaled(3.0)
    if failed.any():
        k, sgn = divmod(int(np.argmax(failed)), 2)
        raise NotDecomposable(
            "disjointly supported basis probes lost the additive norm "
            f"identity ({float(got[k, sgn])} != 3)", witness=(int(first[k]), int(second[k])))

    # Steps 2/3: finite-support expansion in the basis images with bookkeeping
    sigma, _ = _column_signs(f, plan, images, tol)
    v = _basis_frame(images["basis"])
    expanded = ("randoms", "ones", "basis_pairs")
    X = np.vstack([plan.probes[name] for name in expanded])
    _check_expansion(f, v, sigma, X, np.vstack([images[name] for name in expanded]), tol)

    # Step 4: the exposed all-signs functional fixes the sign structure
    x_star, u = plan.schedules["exposed"]
    rec = recover_functional(f, x_star, plan.probes["randoms"], u, tol)
    diagnostics["functional_max_deviation"] = rec.max_deviation

    # Step 5: homogeneity and the hyperplane pinning conditions
    _check_homogeneity(f, plan, images, tol)
    _pin_group(f, plan, images, "hyperplane", tol)

    matrix = v * sigma
    return matrix


def _check_expansion(f: PhaseMapOracle, v: np.ndarray, sigma: np.ndarray, X: np.ndarray,
                     FX: np.ndarray, tol: Tolerances):
    """Expand f(x), the matching row of FX, in the basis images v for every
    row x of X and check it.

    The coefficients b solve v b = f(x) by one least-squares call for all
    rows.  For each probe in row order the checks are: f(x) lies in the span
    of v; |b| matches |x| coordinatewise; sign(b) sign(x) sigma is constant
    on the support of x; and on its first four support coordinates m,
    |f(x) + b_m v_m| + |f(x) - b_m v_m| = 2|x|.
    The first failing probe, at its first failing check, is the witness.
    """
    space, cod = f.domain, f.codomain
    B = np.linalg.lstsq(v, FX.T, rcond=None)[0].T
    nx = space.norms_of(X)
    bound = tol.scaled(nx)
    outside = cod.norms_of(_row_products(v, B) - FX) > bound
    magnitude = np.max(np.abs(np.abs(B) - np.abs(X)), axis=1) > bound
    support = np.abs(X) > bound[:, None]
    rel = np.sign(B) * np.sign(X) * sigma
    lead = rel[np.arange(len(X)), np.argmax(support, axis=1)]
    incoherent = np.any(support & (rel != lead[:, None]), axis=1)
    rows, cols = np.nonzero(support & (np.cumsum(support, axis=1) <= 4))
    bv = B[rows, cols][:, None] * v.T[cols]
    ssum = cod.norms_of(FX[rows] + bv) + cod.norms_of(FX[rows] - bv)
    bad = np.abs(ssum - 2.0 * nx[rows]) > bound[rows]
    bookkeeping = np.zeros(len(X), dtype=bool)
    bookkeeping[rows[bad]] = True
    failed = outside | magnitude | incoherent | bookkeeping
    if not failed.any():
        return
    k = int(np.argmax(failed))
    x = list(X[k])
    if outside[k]:
        raise NotDecomposable("f(x) is outside the span of the basis images", witness=x)
    if magnitude[k]:
        raise NotDecomposable(
            "expansion coefficients break the coordinate magnitude bookkeeping", witness=x)
    if incoherent[k]:
        raise NotDecomposable("expansion signs are incoherent with the basis sign chain",
                              witness=x)
    m = int(cols[bad & (rows == k)][0])
    raise NotDecomposable("norm bookkeeping identity fails for a support coordinate",
                          witness=(x, m))


_ROUTE_IMPL = {
    "one_dim": _route_one_dim,
    "smooth": _route_projective,
    "linf": _route_linf,
    "l1": _route_l1,
    "generic": _route_projective,
}


def _validate_route(space: NormSpec, route: str) -> str:
    """The route a run on ``space`` takes when ``route`` is asked for."""
    if route not in ROUTES:
        raise RouteUnsupported(f"unknown route {route!r}")
    own = route_for(space)
    if route == "auto":
        return own
    allowed = (own, "generic") if space.dim >= 2 else (own,)
    if route not in allowed:
        raise RouteUnsupported(f"route {route!r} does not apply to {space!r}, "
                               f"which takes {' or '.join(allowed)}")
    return route


def decompose(f: PhaseMapOracle, route: str = "auto", seed: int = 0,
              tol: Tolerances = DEFAULT_TOL, force: bool = False) -> DecompositionCertificate:
    """Factor a declared-surjective phase-isometry oracle into sign * isometry.

    Routes: ``one_dim``, ``smooth``, ``linf``, ``l1``, ``generic``; ``auto``
    resolves through :func:`route_for`.  The probes come from
    :func:`plan_queries` on (f.domain, route, seed, tol).  Before the oracle
    is asked anything, a codomain of lower dimension than the domain raises
    :class:`RangeDegenerate` (a linear isometry is injective, so no
    ``eps * T`` exists), an oracle over a sample table that lacks any probe
    raises :class:`MissingSamples`, listing every missing point, and an
    oracle without the surjectivity declaration raises
    :class:`SurjectivityNotDeclared` unless ``force`` is set.

    The oracle is then asked for every row of the groups in ``plan.reads``,
    group after group, in one ``images`` call, and the route's stages read
    their images from that block, one read-only view per group.  Only these
    ask the oracle after it: the functional-recovery schedules, point by
    point where the route reaches them; the public helpers the routes call
    (:func:`recover_functional`, :func:`recover_projective_linear` and
    :func:`normalize_two_dim`), which fetch their own points; and the final
    replay of ``query_log``.  A run therefore queries every fixed probe of
    its route before its first check, and a rejected run, which raises
    :class:`NotDecomposable` with the witness and message of the first
    identity the oracle violates, has done so too.  A fetch that fails (an
    image of the wrong dimension or with non-finite values) names the first
    failing row of that block.
    """
    plan = plan_queries(f.domain, route, seed, tol)
    dim, cod_dim = f.domain.dim, f.codomain.dim
    if cod_dim < dim:
        raise RangeDegenerate(f"codomain dimension {cod_dim} is below domain dimension {dim}; "
                              "a linear isometry is injective, so no eps * T exists")
    if f.table is not None:
        missing = f.missing_points(plan.all_points())
        if missing:
            raise MissingSamples(missing)
    if not f.declared_surjective and not force:
        raise SurjectivityNotDeclared(
            "decomposition requires a surjectivity declaration on the oracle "
            "(or force=True to attempt anyway)")

    groups = [plan.probes[name] for name in plan.reads]
    block = f.images(np.vstack([group.reshape(-1, dim) for group in groups]))
    block.setflags(write=False)
    images, start = {}, 0
    for name, group in zip(plan.reads, groups):
        stop = start + group.size // dim
        images[name] = block[start:stop].reshape(group.shape[:-1] + (cod_dim,))
        start = stop
    diagnostics: dict = {}
    matrix = _ROUTE_IMPL[plan.route](f, plan, images, tol, diagnostics)
    return _assemble_certificate(f, matrix, plan.route, plan, images, tol, diagnostics)
