"""Birkhoff orthogonality tests and the orthogonal-hyperplane construction.

``x`` is Birkhoff-orthogonal to ``y`` when ``|x + t y| >= |x|`` for every
real t.  The decision procedure uses the one-sided derivatives of the norm
at x in the directions +-y: t = 0 minimizes the convex map t -> |x + t y|
exactly when both one-sided slopes point outward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .settings import DEFAULT_TOL, Tolerances
from .spaces import (Functional, NormSpec, Vector, _extreme_support_values, _face, _slope,
                     _unit_coords, support_set)

__all__ = [
    "Hyperplane",
    "OrthogonalityVerdict",
    "L1OrthogonalityTriple",
    "birkhoff_verdict",
    "is_birkhoff_orthogonal",
    "orthogonal_hyperplane",
    "l1_orthogonality_triple",
]


@dataclass(frozen=True, eq=False)
class Hyperplane:
    """Kernel of a nonzero functional: Z = {z : normal(z) = 0}."""

    normal: Functional

    def __post_init__(self):
        if np.all(self.normal.coords == 0.0):
            raise ValueError("hyperplane normal must be nonzero")

    @property
    def space(self) -> NormSpec:
        return self.normal.space

    def contains(self, z: Vector, tol: Tolerances = DEFAULT_TOL) -> bool:
        return abs(self.normal(z)) <= tol.scaled(z.norm)

    def basis(self) -> np.ndarray:
        """Rows span the hyperplane (an orthonormal kernel basis)."""
        c = self.normal.coords
        _, _, vt = np.linalg.svd(c[None, :])
        return vt[1:]

    def sample(self, rng: np.random.Generator, count: int) -> list:
        """Random elements of the hyperplane."""
        b = self.basis()
        coeffs = rng.standard_normal((count, b.shape[0]))
        return [Vector(row, self.space) for row in coeffs @ b]


@dataclass(frozen=True)
class OrthogonalityVerdict:
    """Birkhoff test outcome with the slope diagnostics behind it.

    ``margin`` is min of the two outward slopes; the verdict is orthogonal
    when the margin clears ``-boundary_tol``, and ``near_tie`` flags verdicts
    decided within that margin of the threshold.
    """

    orthogonal: bool
    forward_slope: float
    backward_slope: float
    margin: float
    near_tie: bool
    witness: Optional[Functional]

    def to_dict(self) -> dict:
        return {
            "orthogonal": self.orthogonal,
            "forward_slope": self.forward_slope,
            "backward_slope": self.backward_slope,
            "margin": self.margin,
            "near_tie": self.near_tie,
            "witness": None if self.witness is None else list(self.witness.coords),
        }


class L1OrthogonalityTriple(NamedTuple):
    disjoint_support: bool
    birkhoff: bool
    norm_identity: bool


def birkhoff_verdict(x: Vector, y: Vector, tol: Tolerances = DEFAULT_TOL) -> OrthogonalityVerdict:
    """Full Birkhoff test: verdict, slopes, and a supporting functional that
    annihilates ``y`` when one exists.

    One norm of the unit point and one face serve both slopes and the witness.
    l1 reads its signs at ``x`` itself: they are its whole face, and
    ``x / |x|`` could flush a coordinate to zero.
    """
    x._check_space(y)
    if x.is_zero or y.is_zero:
        witness = None if x.is_zero else support_set(x, tol).witness
        return OrthogonalityVerdict(True, 0.0, 0.0, 0.0, False, witness)
    space = x.space
    u, un = (x.coords, None) if space.p == 1.0 else _unit_coords(space, x.coords)[:2]
    face = _face(space, u, un, tol)
    fwd = _slope(space, u, face, y.coords)
    bwd = _slope(space, u, face, y.coords * -1.0)
    margin = min(fwd, bwd)
    orthogonal = margin >= -tol.boundary
    near_tie = abs(margin) <= tol.boundary
    witness = _annihilating_witness(space, u, face, y.coords, tol) if orthogonal else None
    return OrthogonalityVerdict(orthogonal, fwd, bwd, margin, near_tie, witness)


def is_birkhoff_orthogonal(x: Vector, y: Vector, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff ``|x + t y| >= |x|`` for all real t (non-symmetric in general)."""
    return birkhoff_verdict(x, y, tol).orthogonal


def _annihilating_witness(space: NormSpec, u: np.ndarray, face, y: np.ndarray,
                          tol: Tolerances) -> Optional[Functional]:
    """A supporting functional at u (the unit point, or x for l1) vanishing on y,
    built as the convex combination of the extreme supporting functionals that
    brackets zero."""
    (g_hi, v_hi), (g_lo, v_lo) = _extreme_support_values(space, u, face, y)
    if v_hi < -tol.boundary or v_lo > tol.boundary:
        return None
    if abs(v_hi - v_lo) <= tol.scaled(abs(v_hi) + abs(v_lo)):
        lam = 0.0
    else:
        lam = v_hi / (v_hi - v_lo)
    lam = min(max(lam, 0.0), 1.0)
    g = (1.0 - lam) * g_hi + lam * g_lo
    return Functional(g, space)


def orthogonal_hyperplane(x: Vector, tol: Tolerances = DEFAULT_TOL) -> Hyperplane:
    """A hyperplane Z through the origin with x orthogonal to all of Z.

    Z is the kernel of a supporting functional at x; for any z in Z,
    |x + t z| >= witness(x + t z) = |x|.
    """
    if x.is_zero:
        raise ValueError("orthogonal_hyperplane is undefined at x = 0")
    return Hyperplane(support_set(x, tol).witness)


def l1_orthogonality_triple(x: Vector, y: Vector,
                            tol: Tolerances = DEFAULT_TOL) -> L1OrthogonalityTriple:
    """The three equivalent orthogonality characterizations on l1 spaces,
    each evaluated by an independent formula.

    * ``disjoint_support``  -- no coordinate is nonzero in both x and y
    * ``birkhoff``          -- |x+y| + |x-y| = 2(|x| + |y|), the orthogonality
                               test l1 geometry affords (equivalent to
                               disjointness, unlike the one-sided directional
                               test, which is strictly weaker: (1,0) passes it
                               against (1,2))
    * ``norm_identity``     -- |x+y| = |x-y| = |x| + |y|
    """
    space = x.space
    x._check_space(y)
    if space.p != 1.0:
        raise ValueError("l1_orthogonality_triple requires an l1-type space")
    disjoint = bool(np.all((x.coords == 0.0) | (y.coords == 0.0)))
    nx, ny = x.norm, y.norm
    ns, nd = (x + y).norm, (x - y).norm
    scale = nx + ny
    birkhoff = abs((ns + nd) - 2.0 * scale) <= tol.scaled(scale)
    norm_identity = (abs(ns - scale) <= tol.scaled(scale)
                     and abs(nd - scale) <= tol.scaled(scale))
    return L1OrthogonalityTriple(disjoint, birkhoff, norm_identity)
