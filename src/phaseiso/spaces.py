"""Finite-dimensional real normed spaces and their convex-analytic primitives.

A space is described declaratively (:class:`NormSpec`) and supports norm and
dual-norm evaluation, one-sided directional derivatives of the norm,
supporting-functional extraction with a smoothness verdict, and the
exposed-point test on the dual ball.  Three families are covered:

* ``weighted_lp``  -- (sum w_i |x_i|^p)^(1/p) with positive weights w_i, p = inf
                     meaning max w_i |x_i|
* ``lp``           -- the case w = 1 of the weighted formulas, bit for bit the
                     unweighted values since a factor of 1 is exact; ``weights`` is None
* ``polyhedral``   -- max_i |<a_i, x>| over a spanning list of functionals
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .settings import DEFAULT_TOL, Tolerances

__all__ = [
    "DimensionMismatch",
    "NormSpec",
    "Vector",
    "Functional",
    "SupportDescription",
    "ExposedPoint",
    "norm",
    "directional_derivative",
    "finite_difference_directional",
    "support_set",
    "is_w_star_exposed",
]

_KINDS = ("lp", "weighted_lp", "polyhedral")


def _binade(a: np.ndarray) -> int:
    """The e with ``2^e <= max|a_i| < 2^(e+1)``, for a nonzero finite array."""
    return math.frexp(np.max(np.abs(a)))[1] - 1


def _unit_functionals(space: "NormSpec"):
    """``(A / 2^m, m)`` for a polyhedral spec ``A``, with ``m = _binade(A)``.

    Both polyhedral LPs run on these functionals, so the solver meets entries
    near 1 at every scale of the spec, and a power of two maps each result
    back exactly.
    """
    m = _binade(space.functionals)
    return np.ldexp(space.functionals, -m), m


def _highs_lp(c, **constraints):
    """``min c.x`` under ``constraints`` (``linprog``'s keywords), solved by HiGHS.

    The one LP entry point.  ``scipy.optimize`` is imported here, at the first
    LP a process solves, so ``import phaseiso`` loads numpy alone: only the
    polyhedral dual norm and exposed-point test need an LP.
    """
    from scipy.optimize import linprog
    return linprog(c, method="highs", **constraints)


class DimensionMismatch(ValueError):
    """Coordinates whose shape does not match the space's dimension."""


def _as_coords(x, dim: int) -> np.ndarray:
    a = _coerce(x, dim)
    if not np.isfinite(a).all():
        raise ValueError("coordinates must be finite")
    return a


def _coerce(x, dim: int) -> np.ndarray:
    """Cheap coordinate coercion for hot evaluation paths (no finiteness scan)."""
    a = np.asarray(x, dtype=float)
    if a.shape != (dim,):
        raise DimensionMismatch(f"dimension mismatch: expected {dim} coordinates, "
                                f"got shape {a.shape}")
    return a


def _row_products(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M @ x for each row x of X, equal bit for bit to that one-row product
    (``X @ M.T`` rounds differently)."""
    return np.matmul(M, X[:, :, None])[:, :, 0]


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class NormSpec:
    """Declarative description of a finite-dimensional real normed space."""

    kind: str
    dim: int
    p: Optional[float] = None
    weights: Optional[np.ndarray] = None
    functionals: Optional[np.ndarray] = None
    _w: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _key: tuple = field(default=(), init=False, repr=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        # fields of the other kinds are cleared: the norm paths tell kinds apart by them
        if self.kind == "polyhedral":
            a = np.asarray(self.functionals, dtype=float)
            if a.ndim != 2 or a.shape[1] != self.dim:
                raise ValueError("functionals must be an (m, dim) array")
            if not np.all(np.isfinite(a)):
                raise ValueError("functionals must be finite")
            if np.linalg.matrix_rank(a) < self.dim:
                raise ValueError("polyhedral functionals must span the dual space")
            object.__setattr__(self, "functionals", _frozen(a))
            object.__setattr__(self, "p", None)
            object.__setattr__(self, "_key", ("polyhedral", self.dim,
                                              tuple(map(tuple, self.functionals))))
            return
        if self.p is None or math.isnan(self.p) or (self.p < 1.0 and not math.isinf(self.p)):
            raise ValueError("p must satisfy p >= 1 or p = inf")
        plain = self.kind == "lp"
        w = _frozen(np.ones(self.dim) if plain else self.weights)
        if w.shape != (self.dim,) or not np.all((w > 0) & np.isfinite(w)):
            raise ValueError("weights must be dim positive finite reals")
        object.__setattr__(self, "_w", w)
        object.__setattr__(self, "weights", None if plain else w)
        object.__setattr__(self, "functionals", None)
        key = (self.kind, self.dim, self.p)
        object.__setattr__(self, "_key", key if plain else key + (tuple(w),))

    # -- constructors ------------------------------------------------------

    @classmethod
    def lp(cls, dim: int, p: float) -> "NormSpec":
        return cls(kind="lp", dim=dim, p=float(p))

    @classmethod
    def weighted_lp(cls, dim: int, p: float, weights) -> "NormSpec":
        return cls(kind="weighted_lp", dim=dim, p=float(p), weights=np.asarray(weights, float))

    @classmethod
    def polyhedral(cls, dim: int, functionals) -> "NormSpec":
        return cls(kind="polyhedral", dim=dim, functionals=np.asarray(functionals, float))

    # -- identity ----------------------------------------------------------

    def spec_key(self) -> tuple:
        """The space's identity: kind, dim, p and weights, or the functionals.
        Built once, in ``__post_init__``; ``==`` and ``hash`` read it."""
        return self._key

    def __eq__(self, other):
        return other is self or isinstance(other, NormSpec) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        if self.functionals is not None:
            return f"NormSpec.polyhedral({self.dim}, {len(self.functionals)} functionals)"
        weights = "" if self.weights is None else f", weights={list(self.weights)}"
        return f"NormSpec.{self.kind}({self.dim}, p={self.p}{weights})"

    # -- evaluation --------------------------------------------------------

    def norm_of(self, coords) -> float:
        """Norm of raw coordinates."""
        a = _coerce(coords, self.dim)
        if self.functionals is not None:
            return float(np.maximum.reduce(np.abs(self.functionals @ a)))
        if math.isinf(self.p):
            return float(np.maximum.reduce(self._w * np.abs(a)))
        if self.p == 1.0:
            return float(np.add.reduce(self._w * np.abs(a)))
        return float(np.add.reduce(self._w * np.abs(a) ** self.p) ** (1.0 / self.p))

    def norms_of(self, rows) -> np.ndarray:
        """Norms of the rows of an (m, dim) array.

        Equal bit for bit to ``norm_of`` on each row: the sums and maxima run
        row-wise in the scalar code's order, the final root is taken per
        element on Python floats (numpy's array ``**`` can differ from the
        scalar one in the last bit), and polyhedral values come from
        ``_row_products``.
        Both reduce with ``np.add`` and ``np.maximum`` directly, the ufunc
        reductions ``np.sum`` and ``np.max`` call, without their wrappers.
        """
        a = np.ascontiguousarray(rows, dtype=float)
        if a.ndim != 2 or a.shape[1] != self.dim:
            raise DimensionMismatch(f"dimension mismatch: expected rows of {self.dim} "
                                    f"coordinates, got shape {a.shape}")
        if self.functionals is not None:
            return np.maximum.reduce(np.abs(_row_products(self.functionals, a)), axis=1)
        mag = np.abs(a)
        if math.isinf(self.p):
            return np.maximum.reduce(self._w * mag, axis=1)
        if self.p == 1.0:
            return np.add.reduce(self._w * mag, axis=1)
        sums = np.add.reduce(self._w * mag ** self.p, axis=1)
        inv = 1.0 / self.p
        return np.array([s ** inv for s in sums.tolist()], dtype=float)

    def dual_norm_of(self, coords) -> float:
        """Norm of a dual element acting by the dot product.

        Conjugate-exponent formulas for the lp kinds; a linear program over
        the unit ball for polyhedral norms.  The polyhedral LP is solved for
        ``c / 2^k``, with ``k = _binade(c)``, on the functionals of
        ``_unit_functionals``, and its optimum is multiplied back by
        ``2^(k - m)``: every step is exact, so the result scales exactly with
        ``c`` and with the spec by powers of two, and entries far from 1 are
        not lost to the solver's tolerances.  An all-zero ``c`` solves no LP
        and gives ``-0.0`` on a polyhedral space (``+0.0`` on the lp kinds).
        """
        c = _coerce(coords, self.dim)
        if self.functionals is None:
            w = self._w
            if math.isinf(self.p):
                return float(np.add.reduce(np.abs(c) / w))
            if self.p == 1.0:
                return float(np.maximum.reduce(np.abs(c) / w))
            q = self.p / (self.p - 1.0)
            return float(np.add.reduce((np.abs(c) / w ** (1.0 / self.p)) ** q) ** (1.0 / q))
        if not c.any():
            # the LP's -(+0.0): HiGHS gives +0.0 as the optimum of every zero cost,
            # whatever the mix of signed zeros
            return -0.0
        # max c.x subject to |a_i . x| <= 1, with c and the a_i rescaled by powers of two
        k = _binade(c)
        a, m = _unit_functionals(self)
        res = _highs_lp(-np.ldexp(c, -k), A_ub=np.vstack([a, -a]), b_ub=np.ones(2 * len(a)),
                        bounds=[(None, None)] * self.dim)
        if not res.success:
            raise ArithmeticError(f"dual norm LP failed: {res.message}")
        return float(np.ldexp(-res.fun, k - m))

    # -- element constructors ---------------------------------------------

    def vector(self, coords) -> "Vector":
        return Vector(_as_coords(coords, self.dim), self)

    def functional(self, coords) -> "Functional":
        return Functional(_as_coords(coords, self.dim), self)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        if self.functionals is not None:
            return {"kind": "polyhedral", "dim": self.dim,
                    "functionals": [list(row) for row in self.functionals]}
        data = {"kind": self.kind, "dim": self.dim, "p": "inf" if math.isinf(self.p) else self.p}
        if self.weights is not None:
            data["weights"] = list(self.weights)
        return data

    @classmethod
    def from_json(cls, data: Union[dict, str]) -> "NormSpec":
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict):
            raise ValueError("a space description must be a JSON object")
        kind = data.get("kind")
        dim = data.get("dim", 0)
        # bool is an int subclass, and a fractional or string dim would be truncated or cast
        if isinstance(dim, bool) or not (isinstance(dim, int)
                                         or isinstance(dim, float) and dim.is_integer()):
            raise ValueError(f"dim must be an integer, got {dim!r}")
        dim = int(dim)
        if kind in ("lp", "weighted_lp"):
            p = data.get("p")
            if p is None:
                raise ValueError(f"{kind} spaces need an exponent p")
            if p == "inf":
                p = math.inf
            elif isinstance(p, bool) or not isinstance(p, (int, float)):
                raise ValueError(f'p must be a number or "inf", got {p!r}')
            try:
                p = float(p)
            except OverflowError as exc:
                raise ValueError(f"p must be finite or \"inf\": {exc}") from exc
            if kind == "lp":
                return cls.lp(dim, p)
            return cls.weighted_lp(dim, p, data["weights"])
        if kind == "polyhedral":
            return cls.polyhedral(dim, data["functionals"])
        raise ValueError(f"unknown space kind {kind!r}")

    # -- classification helpers --------------------------------------------

    @property
    def is_euclidean(self) -> bool:
        return self.kind == "lp" and self.p == 2.0

    @property
    def is_smooth_space(self) -> bool:
        """True when every nonzero point has a unique supporting functional."""
        return self.functionals is None and 1.0 < self.p < math.inf


@dataclass(frozen=True, eq=False)
class Vector:
    """Element of a normed space: coordinates plus the space they live in."""

    coords: np.ndarray
    space: NormSpec

    def __post_init__(self):
        object.__setattr__(self, "coords", _frozen(_as_coords(self.coords, self.space.dim)))

    @property
    def norm(self) -> float:
        return self.space.norm_of(self.coords)

    @property
    def is_zero(self) -> bool:
        return not self.coords.any()

    def unit(self) -> "Vector":
        return Vector(_unit_coords(self.space, self.coords)[0], self.space)

    def _check_space(self, other: "Vector"):
        if self.space != other.space:
            raise ValueError("vectors belong to different spaces")

    def __add__(self, other: "Vector") -> "Vector":
        self._check_space(other)
        return Vector(self.coords + other.coords, self.space)

    def __sub__(self, other: "Vector") -> "Vector":
        self._check_space(other)
        return Vector(self.coords - other.coords, self.space)

    def __neg__(self) -> "Vector":
        return Vector(-self.coords, self.space)

    def __mul__(self, t: float) -> "Vector":
        return Vector(self.coords * float(t), self.space)

    __rmul__ = __mul__

    def __repr__(self):
        return f"Vector({list(self.coords)})"


@dataclass(frozen=True, eq=False)
class Functional:
    """Dual-space element acting on predual vectors by the dot product."""

    coords: np.ndarray
    space: NormSpec  # the predual space

    def __post_init__(self):
        object.__setattr__(self, "coords", _frozen(_as_coords(self.coords, self.space.dim)))

    @property
    def dual_norm(self) -> float:
        return self.space.dual_norm_of(self.coords)

    def __call__(self, x: Union[Vector, np.ndarray, Sequence[float]]) -> float:
        c = x.coords if isinstance(x, Vector) else _as_coords(x, self.space.dim)
        return float(np.dot(self.coords, c))

    def __neg__(self) -> "Functional":
        return Functional(-self.coords, self.space)

    def __repr__(self):
        return f"Functional({list(self.coords)})"


@dataclass(frozen=True, eq=False)
class SupportDescription:
    """One supporting functional at a nonzero point plus the smoothness verdict.

    ``witness`` is a member of the supporting set of ``point`` normalized to
    the unit sphere; ``kind`` is "singleton" when that set is a single
    functional and "face" otherwise.
    """

    point: Vector
    kind: str
    witness: Functional
    is_smooth: bool


class ExposedPoint(NamedTuple):
    """Result of the exposed-point test: verdict plus a norming smooth point."""

    exposed: bool
    point: Optional[Vector]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def norm(x: Vector) -> float:
    """Norm of ``x`` in its own space."""
    return x.norm


_UNIT_TOL = 1e-6  # how far from 1 the computed norm of a unit vector may be


def _unit_coords(space: NormSpec, c: np.ndarray):
    """``(u, |u|, c', |c'|)`` with ``u = c' / |c'|`` a unit vector on the ray of ``c``.

    ``c'`` is ``c`` when its norm is positive, finite and exact enough for
    ``c / |c|`` to have norm one; otherwise ``c`` times the power of two that
    brings its largest weighted magnitude into [1/4, 1).  The rescale is exact
    unless a coordinate lands in the subnormal range; one flushed to zero
    raises, as does a norm still out of range.
    """
    for s in (c, None):
        if s is None:  # the rescaled try; only it pays for the zero and flush tests
            if not c.any():
                raise ValueError("cannot normalize the zero vector")
            s = np.ldexp(c, -_magnitude_exponent(space, c))
        n = space.norm_of(s)
        if 0.0 < n < np.inf:
            u = s / n
            if s is not c and np.count_nonzero(u) < np.count_nonzero(c):
                raise ValueError(f"cannot normalize {c.tolist()}: its coordinates span more "
                                 "binary orders than a float holds")
            un = space.norm_of(u)
            if abs(un - 1.0) <= _UNIT_TOL:
                return u, un, s, n
    raise ValueError(f"cannot normalize {c.tolist()}: its norm evaluates to {n} "
                     "after rescaling")


def _magnitude_exponent(space: NormSpec, c: np.ndarray) -> int:
    """The binary exponent e with the largest term of the norm of ``c`` in
    [2^(e-2), 2^e): ``|a_ij c_j|`` for polyhedral, ``w_i^(1/p) |c_i|`` (``w_i |c_i|``
    for p = inf) for lp.  Computed from exponents alone, so it cannot overflow."""
    on = c != 0.0
    ec = np.frexp(c[on])[1]
    if space.functionals is not None:
        a = space.functionals[:, on]
        return int(np.max(np.where(a != 0.0, np.frexp(a)[1] + ec, np.iinfo(np.int32).min)))
    w = space._w[on]
    r = w if math.isinf(space.p) else w ** (1.0 / space.p)
    return int(np.max(np.frexp(r)[1] + ec))


def _active_sets(space: NormSpec, u: np.ndarray, tol: Tolerances):
    """Indices where the max defining the norm is attained (linf/polyhedral)."""
    if space.functionals is not None:
        vals = space.functionals @ u
        m = np.maximum.reduce(np.abs(vals))
        active = np.nonzero(np.abs(vals) >= m - tol.scaled(m))[0]
        return vals, active
    vals = space._w * np.abs(u)
    m = np.maximum.reduce(vals)
    active = np.nonzero(vals >= m - tol.scaled(m))[0]
    return vals, active


def _face(space: NormSpec, u: np.ndarray, un: float, tol: Tolerances):
    """What the slopes and supporting functionals at ``u`` (norm ``un``) read:
    the norm gradient for smooth lp, None for l1 (the signs of ``u`` are the
    face, so ``u`` may be any point with them and ``un`` is unused), the
    values and active indices of the max for linf/polyhedral."""
    if space.is_smooth_space:
        w, p = space._w, space.p
        return w * np.sign(u) * np.abs(u) ** (p - 1.0) / un ** (p - 1.0)
    if space.p == 1.0:
        return None
    return _active_sets(space, u, tol)


def _slope(space: NormSpec, u: np.ndarray, face, x: np.ndarray) -> float:
    """One-sided derivative of the norm at the unit point ``u`` (for l1, any
    point with its signs) toward ``x``, given ``face = _face(space, u, |u|, tol)``."""
    if space.is_smooth_space:
        return float(np.dot(face, x))
    w = space._w
    if space.p == 1.0:
        on = u != 0.0
        return float(np.dot(w[on] * np.sign(u[on]), x[on])
                     + np.add.reduce(w[~on] * np.abs(x[~on])))
    vals, active = face
    if space.functionals is None:  # p = inf
        return float(np.maximum.reduce(w[active] * np.sign(u[active]) * x[active]))
    return float(np.maximum.reduce(np.sign(vals[active]) * (space.functionals[active] @ x)))


def directional_derivative(u: Vector, x: Vector, tol: Tolerances = DEFAULT_TOL) -> float:
    """One-sided derivative of the norm at the unit vector ``u`` toward ``x``.

    Closed forms for every supported kind: the norm gradient for smooth lp,
    active-coordinate or active-functional maxima for l1/linf/polyhedral.
    Finite by convexity; sublinear in ``x``.
    """
    space = u.space
    u._check_space(x)
    un = u.norm
    if abs(un - 1.0) > _UNIT_TOL:
        raise ValueError(f"u must be a unit vector (norm {un})")
    return _slope(space, u.coords, _face(space, u.coords, un, tol), x.coords)


def finite_difference_directional(u: Vector, x: Vector, tol: Tolerances = DEFAULT_TOL) -> float:
    """One-sided difference quotient with step halving, t = 2^-k for k = 10..40.

    Convexity makes the quotient monotone in t, so agreement of two
    successive estimates certifies convergence.
    """
    space = u.space
    un = u.norm
    prev = None
    est = None
    for k in range(10, 41):
        t = 2.0 ** -k
        est = (space.norm_of(u.coords + t * x.coords) - un) / t
        if prev is not None and abs(est - prev) <= tol.fd:
            return float(est)
        prev = est
    return float(est)


def support_set(x: Vector, tol: Tolerances = DEFAULT_TOL) -> SupportDescription:
    """A supporting functional at ``x`` and whether it is the only one.

    The witness has dual norm one and attains the norm of ``x``.  For the
    face cases (l1 with a zero coordinate, linf/polyhedral with a tied max)
    one member of the face is returned.

    l1 reads its signs at ``x`` itself.  Smooth lp reads its gradient at
    ``c'``, which ``_unit_coords`` gives as ``x`` or a power-of-two multiple of
    it (the formula is exact under such a scaling), and linf and polyhedral
    read their face rows at the unit point, since the tolerance that finds
    their tied maxima has an absolute floor.  Those rows are one functional
    when each is within ``tol.scaled(1.0)`` of the first, in units of the
    rows' leading power of two.
    """
    if x.is_zero:
        raise ValueError("support_set is undefined at x = 0")
    space = x.space
    if space.p == 1.0:
        on = x.coords != 0.0
        g, smooth = np.where(on, space._w * np.sign(x.coords), 0.0), bool(np.all(on))
    elif space.is_smooth_space:
        _, _, c, n = _unit_coords(space, x.coords)
        g, smooth = _face(space, c, n, tol), True
    else:
        u = _unit_coords(space, x.coords)[0]
        rows = _face_rows(space, u, _active_sets(space, u, tol))
        g = rows[0]
        smooth = len(rows) == 1 or bool(  # one active row needs no coincidence test
            np.max(np.abs(rows - g)) <= math.ldexp(tol.scaled(1.0), _binade(rows)))
    return SupportDescription(x, "singleton" if smooth else "face", Functional(g, space), smooth)


def _face_rows(space: NormSpec, u: np.ndarray, face) -> np.ndarray:
    """The extreme supporting functionals at the unit point ``u`` of a linf or
    polyhedral space, one a row, given ``face = _face(space, u, |u|, tol)``:
    the active coordinates or defining functionals, signed as at ``u``."""
    vals, active = face
    if space.functionals is not None:
        return np.sign(vals[active])[:, None] * space.functionals[active]
    rows = np.zeros((len(active), space.dim))
    rows[np.arange(len(active)), active] = space._w[active] * np.sign(u[active])
    return rows


def _extreme_support_values(space: NormSpec, u: np.ndarray, face, y: np.ndarray):
    """Supporting functionals at ``u`` maximizing / minimizing the value on
    ``y``, given ``face = _face(space, u, |u|, tol)``: the unit point, or for
    l1 any point with its signs."""
    if space.is_smooth_space:
        v = float(np.dot(face, y))
        return (face, v), (face, v)
    if space.p == 1.0:
        w = space._w
        on = u != 0.0
        base = np.where(on, w * np.sign(u), 0.0)
        hi = np.where(on, base, w * np.sign(y))
        lo = np.where(on, base, -w * np.sign(y))
        return (hi, float(np.dot(hi, y))), (lo, float(np.dot(lo, y)))
    cand = [(g, float(np.dot(g, y))) for g in _face_rows(space, u, face)]
    return max(cand, key=lambda t: t[1]), min(cand, key=lambda t: t[1])


def is_w_star_exposed(f: Functional, tol: Tolerances = DEFAULT_TOL) -> ExposedPoint:
    """Whether a unit dual element is the unique supporting functional of
    some smooth unit vector; returns that exposing point when it exists.

    For smooth lp kinds every unit functional qualifies.  For l1 the exposed
    duals are the full sign patterns, for linf the signed coordinate
    functionals, and for polyhedral norms the functionals that define a facet
    of the unit ball (decided by a small linear program).
    """
    space = f.space
    c = f.coords
    if space.functionals is not None:
        return _polyhedral_exposed(space, c, tol)
    _require_unit(space, c)
    w, p = space._w, space.p

    if space.is_smooth_space:
        # the point of the unit sphere where c attains its norm
        q = p / (p - 1.0)
        x = np.sign(c) * (np.abs(c) / w) ** (q - 1.0)
        return ExposedPoint(True, Vector(x / space.norm_of(x), space))

    if p == 1.0:
        # dual is sup-type; exposed iff every coordinate attains |c_i| = w_i
        if np.all(np.abs(np.abs(c) / w - 1.0) <= tol.scaled(1.0)):
            x = np.sign(c) / (w * space.dim)
            x = x / space.norm_of(x)
            return ExposedPoint(True, Vector(x, space))
        return ExposedPoint(False, None)

    # p = inf, dual is sum-type
    scaled = np.abs(c) / w
    i = int(np.argmax(scaled))
    e = np.zeros(space.dim)
    e[i] = np.sign(c[i]) / w[i]
    if space.dual_norm_of(c - w[i] * np.sign(c[i]) * np.eye(space.dim)[i]) <= tol.scaled(1.0):
        x = e / space.norm_of(e)
        return ExposedPoint(True, Vector(x, space))
    return ExposedPoint(False, None)


def _require_unit(space: NormSpec, c: np.ndarray) -> None:
    dn = space.dual_norm_of(c)
    if abs(dn - 1.0) > 1e-6:
        raise ValueError(f"functional must have dual norm 1 (got {dn})")


def _polyhedral_exposed(space: NormSpec, c: np.ndarray, tol: Tolerances) -> ExposedPoint:
    """The polyhedral case of ``is_w_star_exposed``.

    Each signed row near ``c`` is tried in turn: ``_facet_point`` gives the
    unit point that the row maps to 1 and every other row to less, if there
    is one, and the first such point that is smooth exposes ``c``.  A row of
    the spec has dual norm at most 1, and that point is a unit vector that
    the row norms, so when ``c`` is the matched row bit for bit its exposure
    LP proves the unit check; every other ``c`` takes the unit check, and its
    dual-norm LP, after the row loop.
    """
    a, m = _unit_functionals(space)
    cm = np.ldexp(c, -m)
    bound = tol.scaled(np.max(np.abs(cm))) * 1e3
    for i in range(len(a)):
        for s in (1.0, -1.0):
            x = _facet_point(space, i, s) if np.max(np.abs(cm - s * a[i])) <= bound else None
            point = None if x is None else Vector(x, space)
            if point is not None and support_set(point, tol).is_smooth:
                if not np.array_equal(s * space.functionals[i], c):
                    _require_unit(space, c)
                return ExposedPoint(True, point)
    _require_unit(space, c)
    return ExposedPoint(False, None)


@functools.lru_cache(maxsize=256)
def _facet_point(space: NormSpec, i: int, s: float) -> Optional[np.ndarray]:
    """The unit point, read-only, that ``s * a_i`` maps to 1 and every other
    row of the spec to less, or None when the LP finds no such point.

    The LP runs on ``_unit_functionals`` and its point is scaled back by
    ``2^-m``.  Cached per ``(space, i, s)``: the point depends on the space
    and the signed row alone, so each facet is solved once per process.
    """
    a, m = _unit_functionals(space)
    n = space.dim
    # maximize t with a_i.x = s, |a_j.x| <= 1 - t for every a_j other than +-a_i
    others = a[np.minimum(np.max(np.abs(a - a[i]), axis=1),
                          np.max(np.abs(a + a[i]), axis=1)) > 1e-12]
    ones = np.ones((len(others), 1))
    rows = np.vstack([np.hstack([others, ones]), np.hstack([-others, ones])])
    eq = np.hstack([s * a[i], 0.0])[None, :]
    res = _highs_lp(np.hstack([np.zeros(n), -1.0]), A_ub=rows, b_ub=np.ones(len(rows)),
                    A_eq=eq, b_eq=[1.0], bounds=[(None, None)] * n + [(None, 2.0)])
    if not (res.success and res.x[-1] > 1e-9):
        return None
    x = np.ldexp(res.x[:n], -m)
    return _frozen(x / space.norm_of(x))
