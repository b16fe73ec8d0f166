"""Phase-map oracles, the defining functional-equation checkers, and
ground-truth generators for round-trip testing.

A phase-isometry satisfies, for all x and y,

    {|f(x)+f(y)|, |f(x)-f(y)|} = {|x+y|, |x-y|}      (as multisets)

and any map of the form eps(x) * T x with eps taking values in {-1, +1} and
T a linear isometry satisfies it.  The generators here produce such maps
with a hidden sign assignment so decomposition can be scored end to end.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .settings import DEFAULT_TOL, Tolerances
from .spaces import DimensionMismatch, NormSpec, Vector, _as_coords, _coerce, _row_products

__all__ = [
    "MissingSamples",
    "SampleFormatError",
    "canonical_ray",
    "canonical_rays",
    "ray_key",
    "ray_keys",
    "key_string",
    "SignAssignment",
    "PhaseMapOracle",
    "LinearMap",
    "PairCheck",
    "PhaseCheckReport",
    "InvariantReport",
    "check_phase_equation",
    "check_phase_equation_batch",
    "check_wigner_equation",
    "check_phase_invariants",
    "generate_isometry",
    "generate_phase_isometry",
    "make_sign_flip_oracle",
    "multiset_match",
    "read_samples",
    "read_table",
    "validate_table",
    "write_samples",
]


class MissingSamples(KeyError):
    """A sample-table oracle was asked for points it does not hold."""

    def __init__(self, points: List[Tuple[float, ...]]):
        self.points = points
        preview = ", ".join(str(list(p)) for p in points[:5])
        more = "" if len(points) <= 5 else f" (+{len(points) - 5} more)"
        super().__init__(f"sample table is missing {len(points)} probe point(s): {preview}{more}")


class SampleFormatError(ValueError):
    """A samples file line failed to parse."""

    def __init__(self, path: str, line_no: int, reason: str):
        self.path = path
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {reason}")


# ---------------------------------------------------------------------------
# canonical ray representatives and sign assignments
# ---------------------------------------------------------------------------

_KEY_DECIMALS = 12


def canonical_ray(coords: np.ndarray, space: NormSpec, oriented: bool = False) -> np.ndarray:
    """Unit representative of the line (or, when oriented, the ray) through x.

    Normalizes to the unit sphere and, in line mode, flips so the first
    nonzero coordinate is positive; the zero vector maps to itself.
    """
    a = np.asarray(coords, dtype=float)
    n = space.norm_of(a)
    if n == 0.0:
        return np.zeros(space.dim)
    r = a / n
    if not oriented:
        for v in r:
            if v != 0.0:
                if v < 0.0:
                    r = -r
                break
    return r


def ray_key(coords: np.ndarray, space: NormSpec, oriented: bool = False) -> Tuple[float, ...]:
    """Hashable key for the ray through x, stable to 12 decimals."""
    r = canonical_ray(coords, space, oriented)
    rounded = np.round(r, _KEY_DECIMALS) + 0.0  # +0.0 folds -0.0 into +0.0
    return tuple(rounded.tolist())


def canonical_rays(rows: np.ndarray, space: NormSpec, oriented: bool = False) -> np.ndarray:
    """:func:`canonical_ray` of each row of an (m, dim) array, equal to it bit for bit."""
    a = np.asarray(rows, dtype=float).reshape(-1, space.dim)
    n = space.norms_of(a)
    r = a / np.where(n == 0.0, 1.0, n)[:, None]
    r[n == 0.0] = 0.0
    if not oriented:
        lead = r[np.arange(len(r)), np.argmax(r != 0.0, axis=1)]
        r[lead < 0.0] *= -1.0
    return r


def _rounded_rays(rows: np.ndarray, space: NormSpec, oriented: bool = False) -> np.ndarray:
    """The rows of :func:`canonical_rays` with the coordinates of :func:`ray_key`."""
    return np.round(canonical_rays(rows, space, oriented), _KEY_DECIMALS) + 0.0


def ray_keys(rows: np.ndarray, space: NormSpec, oriented: bool = False) -> List[Tuple[float, ...]]:
    """:func:`ray_key` of each row of an (m, dim) array, equal to it bit for bit."""
    return [tuple(row) for row in _rounded_rays(rows, space, oriented).tolist()]


def key_string(key: Tuple[float, ...]) -> str:
    return ",".join(map(repr, key))


@dataclass
class SignAssignment:
    """Recorded phase values in {-1, +1} keyed by canonical ray representatives.

    By convention the zero vector carries +1, so it cannot be set.
    """

    space: NormSpec
    table: Dict[Tuple[float, ...], int] = field(default_factory=dict)

    def get(self, x: Union[Vector, np.ndarray]) -> int:
        coords = x.coords if isinstance(x, Vector) else np.asarray(x, float)
        if not coords.any():
            return 1
        return self.table[ray_key(coords, self.space)]

    def set(self, x: Union[Vector, np.ndarray], value: int):
        if value not in (-1, 1):
            raise ValueError("sign values must be -1 or +1")
        coords = x.coords if isinstance(x, Vector) else np.asarray(x, float)
        if not coords.any():
            raise ValueError("the zero vector carries +1 by convention and cannot be set")
        self.table[ray_key(coords, self.space)] = value

    def to_dict(self) -> Dict[str, int]:
        return {key_string(k): v for k, v in sorted(self.table.items())}


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def _row_keys(X: np.ndarray) -> List[bytes]:
    """The cache key of each row of an (m, dim) float64 array: the row's bytes
    after ``+ 0.0``, which folds -0.0 into +0.0.  Two finite rows share a key
    exactly when they are equal as tuples of floats."""
    return np.ascontiguousarray(X + 0.0).view(f"V{8 * X.shape[1]}").ravel().tolist()


def _stack_rows(rows: Sequence, dim: int) -> np.ndarray:
    """The rows as an (N, dim) array; the first row of another shape raises DimensionMismatch."""
    try:
        a = np.asarray(rows, dtype=float)  # a float array of the right shape is not copied
        if a.shape == (len(rows), dim):
            return a
    except ValueError:  # rows of unequal lengths, named below
        pass
    for r in rows:
        if np.shape(r) != (dim,):
            raise DimensionMismatch(f"dimension mismatch: space has dim {dim}, "
                                    f"sample has shape {np.shape(r)}")
    return np.array(rows, dtype=float).reshape(len(rows), dim)


def validate_table(domain: NormSpec, codomain: NormSpec,
                   pairs: Sequence[Tuple[np.ndarray, np.ndarray]] = (), *,
                   columns: Optional[Tuple[Sequence, Sequence]] = None):
    """A sample table of (x, fx) rows as arrays X and read-only FX, and the
    ``table`` that maps each x, keyed by :func:`_row_keys`, to its last row.

    ``columns``, the (X, FX) that :func:`read_table` returns, stands in for
    ``pairs`` and is not stacked again.  Every x must have shape (domain
    dim,), then every fx (codomain dim,) (DimensionMismatch names the first
    row that does not).  |2x| and |2fx| must be finite, which bounds every
    |x + y| and |x - y| a check forms, and rows that repeat an x must repeat
    its fx (ValueError names the first offending row's x).
    """
    xs, fxs = columns if columns is not None else ([x for x, _ in pairs], [fx for _, fx in pairs])
    X = _stack_rows(xs, domain.dim)
    FX = _stack_rows(fxs, codomain.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(domain.norms_of(2.0 * X)) & np.isfinite(codomain.norms_of(2.0 * FX))
    if not finite.all():
        raise ValueError(f"sample at x = {X[np.argmin(finite)].tolist()} is too large: "
                         f"|2x| or |2fx| is not finite")
    keys = _row_keys(X)
    table = dict(zip(keys, range(len(keys))))
    if len(table) < len(keys):  # compare each repeat with the first row of its x
        first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
        differs = (FX[[first[k] for k in keys]] != FX).any(axis=1)
        if differs.any():
            raise ValueError(f"sample table maps x = {X[np.argmax(differs)].tolist()} "
                             f"to two different fx")
    FX.setflags(write=False)
    return X, FX, table


@dataclass(eq=False)
class PhaseMapOracle:
    """Query interface to the map under study.

    Backed either by a callable or by a finite sample table with exact
    coordinate keys: ``table`` maps each x to its row of the (N, codomain
    dim) array ``table_images``.  Queries are cached, so repeated evaluation
    at the same point returns the identical vector, and every distinct
    evaluated point is recorded in ``query_log``.  ``table`` and the cache
    key each point by its bytes after ``+ 0.0`` (:func:`_row_keys`), so
    points that differ only in the sign of a zero share an entry.
    ``fn_batch``, when set, maps an (m, dim) array of points to their
    (m, codomain dim) images at once; it must agree with ``fn`` row by row.
    """

    domain: NormSpec
    codomain: NormSpec
    fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    table: Optional[Dict[bytes, int]] = None  # keys from _row_keys
    declared_surjective: bool = False
    query_log: List[np.ndarray] = field(default_factory=list)
    hidden_truth: Optional[dict] = None
    fn_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    table_images: Optional[np.ndarray] = None
    _cache: Dict[bytes, np.ndarray] = field(default_factory=dict)  # keys from _row_keys

    @classmethod
    def from_callable(cls, domain: NormSpec, codomain: NormSpec,
                      fn: Callable[[np.ndarray], np.ndarray],
                      declared_surjective: bool = False):
        return cls(domain=domain, codomain=codomain, fn=fn,
                   declared_surjective=declared_surjective)

    @classmethod
    def from_table(cls, domain: NormSpec, codomain: NormSpec,
                   pairs: Sequence[Tuple[np.ndarray, np.ndarray]] = (),
                   declared_surjective: bool = False, *,
                   columns: Optional[Tuple[Sequence, Sequence]] = None):
        """Oracle over a sample table, rows or columns, checked by :func:`validate_table`."""
        _, FX, table = validate_table(domain, codomain, pairs, columns=columns)
        return cls(domain=domain, codomain=codomain, table=table, table_images=FX,
                   declared_surjective=declared_surjective)

    def missing_points(self, points: Sequence[np.ndarray]) -> List[Tuple[float, ...]]:
        if self.table is None:
            return []
        P = np.asarray(points, dtype=float).reshape(-1, self.domain.dim)
        return [tuple(p) for p, key in zip(P.tolist(), _row_keys(P)) if key not in self.table]

    def __call__(self, x: Union[Vector, np.ndarray, Sequence[float]]) -> np.ndarray:
        coords = _coerce(x.coords if isinstance(x, Vector) else x, self.domain.dim)
        U = coords.reshape(1, -1)
        key = _row_keys(U)[0]
        hit = self._cache.get(key)
        if hit is not None:  # only finite points are ever stored
            return hit
        if not np.isfinite(coords).all():
            raise ValueError("coordinates must be finite")
        self._fetch([key], np.array(U, dtype=float))
        return self._cache[key]

    def _fetch(self, keys: List[bytes], U: np.ndarray) -> Optional[np.ndarray]:
        """Compute, check and commit the images of the uncached points U, one per key, as a block.

        A table answers with one gather, ``fn_batch`` with one call and
        ``fn`` one row at a time; a block of one row goes to ``fn`` when the
        oracle has both, as ``fn`` is the cheaper of the two on one row.  The
        block's shape and finiteness are checked once, the first failing row
        is named, and a failing block commits nothing.  The cache gets
        read-only rows of one frozen copy of the block, and ``query_log`` the
        rows of U, which the caller must own; a key that another thread (or a
        nested call) committed meanwhile keeps that image and is logged once.
        Returns the frozen block when this call committed every key, else None.
        """
        cod_dim = self.codomain.dim
        if self.table is not None:
            rows = [self.table.get(key) for key in keys]
            if None in rows:
                raise MissingSamples([tuple(U[rows.index(None)].tolist())])
            V = self.table_images[rows]
        elif self.fn_batch is not None and (len(U) > 1 or self.fn is None):
            V = np.array(self.fn_batch(U), dtype=float)
        else:
            rows = [np.asarray(self.fn(np.array(u)), dtype=float) for u in U]
            V = np.array(rows) if len({r.shape for r in rows}) == 1 else None
        if V is None or V.shape != (len(U), cod_dim):
            raise DimensionMismatch("oracle returned a vector of the wrong dimension")
        if not np.isfinite(V).all():
            bad = np.argmin(np.isfinite(V).all(axis=1))
            raise ValueError(f"oracle returned a non-finite vector at {list(U[bad])}")
        V.setflags(write=False)
        cache, log = self._cache, self.query_log
        committed_all = True
        for key, u, v in zip(keys, U, V):
            if cache.setdefault(key, v) is v:  # one atomic check-and-insert per key
                log.append(u)
            else:
                committed_all = False
        return V if committed_all else None

    def images(self, points) -> np.ndarray:
        """The images of the rows of an (m, dim) array, as an (m, codomain dim) array.

        Equal to calling the oracle on each row in order, in the values, the
        cache and ``query_log``: a row seen before, in the cache or earlier in
        the batch, is a hit, and the first occurrences of the new points are
        fetched as one block, committed in row order.  Only a failing batch
        differs: it commits nothing.  A fresh block (no row cached, none
        repeated) answers from a copy of the block it committed; a batch with
        a hit or a repeat, or whose keys were committed meanwhile, is
        gathered from the cache.
        """
        dim, cod_dim = self.domain.dim, self.codomain.dim
        X = np.asarray(points, dtype=float)
        if X.ndim != 2 or X.shape[1] != dim:
            raise DimensionMismatch(f"dimension mismatch: expected {dim} coordinates, "
                                    f"got shape {X.shape[1:]}")
        if not np.isfinite(X).all():
            raise ValueError("coordinates must be finite")
        keys = _row_keys(X)
        cache = self._cache
        if keys and cache.keys().isdisjoint(keys) and len(set(keys)) == len(keys):
            V = self._fetch(keys, X.copy())  # the log gets rows the caller cannot mutate
            if V is not None:
                return V.copy()
        first: Dict[bytes, int] = {}  # uncached key -> its first row
        for i, key in enumerate(keys):
            if key not in cache and key not in first:
                first[key] = i
        if first:
            self._fetch(list(first), X[list(first.values())])
        return np.array([cache[key] for key in keys], dtype=float).reshape(len(keys), cod_dim)


# ---------------------------------------------------------------------------
# linear maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LinearMap:
    """Matrix map between two described spaces (codomain dim x domain dim)."""

    matrix: np.ndarray
    domain: NormSpec
    codomain: NormSpec
    isometric: bool = False
    note: Optional[str] = None

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape != (self.codomain.dim, self.domain.dim):
            raise ValueError("matrix shape must be (codomain dim, domain dim)")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def verify_isometric(self, seed: int = 0, samples: int = 100) -> float:
        """Max deviation of |Tx| from |x| over a random sample."""
        x = np.random.default_rng(seed).standard_normal((samples, self.domain.dim))
        tx = _row_products(self.matrix, x)
        dev = np.abs(self.codomain.norms_of(tx) - self.domain.norms_of(x))
        return float(np.max(dev, initial=0.0))


# ---------------------------------------------------------------------------
# functional-equation checks
# ---------------------------------------------------------------------------


def _row_dots(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.dot of each row of A with b (a vector, or the matching row of an array), bit for bit."""
    b = b[:, :, None] if b.ndim == 2 else b[:, None]
    return np.matmul(A[:, None, :], b)[:, 0, 0]


def _interleaved(*groups: np.ndarray) -> np.ndarray:
    """Rows a0, b0, ..., a1, b1, ... of equally long (m, dim) arrays a, b, ..."""
    return np.stack(groups, axis=1).reshape(-1, groups[0].shape[1])


def _multiset_verdicts(got_a: np.ndarray, got_b: np.ndarray, want_a: np.ndarray,
                       want_b: np.ndarray, tol: Tolerances):
    """Per row, match the multiset {got_a, got_b} of norms against {want_a, want_b}.

    Both are sorted and compared componentwise; the discrepancy is the larger
    gap, and a row passes when it is at most tol.scaled(the largest norm).
    Returns (passed, discrepancy); a NaN discrepancy fails its row.
    """
    got_hi, want_hi = np.maximum(got_a, got_b), np.maximum(want_a, want_b)
    disc = np.maximum(np.abs(np.minimum(got_a, got_b) - np.minimum(want_a, want_b)),
                      np.abs(got_hi - want_hi))
    # norms are nonnegative, so the larger of the two maxima is the largest magnitude
    return disc <= tol.scaled(np.maximum(got_hi, want_hi)), disc


def multiset_match(pair_a: Tuple[float, float], pair_b: Tuple[float, float],
                   tol: Tolerances = DEFAULT_TOL) -> Tuple[bool, float]:
    """Compare two two-element multisets of norms, which are nonnegative.

    Returns (matched, discrepancy), one row of :func:`check_phase_equation_batch`'s
    verdict; a NaN or infinite discrepancy fails.
    """
    norms = np.array([pair_a, pair_b], dtype=float).reshape(4, 1)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, and fails
        passed, disc = _multiset_verdicts(*norms, tol)
    return bool(passed[0]), float(disc[0])


@dataclass(frozen=True)
class PairCheck:
    x: np.ndarray
    y: np.ndarray
    passed: bool
    discrepancy: float


@dataclass
class PhaseCheckReport:
    """Verdicts on the pairs (x[k], y[k]) of the (m, dim) arrays x and y.

    ``pair_passed`` and ``discrepancy`` are (m,) arrays; :class:`PairCheck`
    objects are built only for ``failures`` and, when asked for, ``checks``.
    """

    x: np.ndarray
    y: np.ndarray
    pair_passed: np.ndarray
    discrepancy: np.ndarray
    max_discrepancy: float

    @property
    def passed(self) -> bool:
        return bool(self.pair_passed.all())

    def _pair_checks(self, rows: np.ndarray) -> List[PairCheck]:
        return [PairCheck(self.x[k], self.y[k], ok, d) for k, ok, d in
                zip(rows, self.pair_passed[rows].tolist(), self.discrepancy[rows].tolist())]

    @property
    def checks(self) -> List[PairCheck]:
        return self._pair_checks(np.arange(len(self.pair_passed)))

    @property
    def failures(self) -> List[PairCheck]:
        return self._pair_checks(np.flatnonzero(~self.pair_passed))

    def to_dict(self, include_passing: bool = False) -> dict:
        bad = ~self.pair_passed
        out = {
            "pairs": len(self.pair_passed),
            "passed": self.passed,
            "max_discrepancy": self.max_discrepancy,
            "failures": [
                {"x": x, "y": y, "discrepancy": d} for x, y, d in
                zip(self.x[bad].tolist(), self.y[bad].tolist(), self.discrepancy[bad].tolist())
            ],
        }
        if include_passing:
            out["checks"] = [
                {"x": x, "y": y, "passed": ok, "discrepancy": d} for x, y, ok, d in
                zip(self.x.tolist(), self.y.tolist(), self.pair_passed.tolist(),
                    self.discrepancy.tolist())
            ]
        return out


def _points(xs, dim: int) -> np.ndarray:
    """The points, Vectors or checked coordinate sequences, as an (m, dim) array."""
    return np.array([x.coords if isinstance(x, Vector) else _as_coords(x, dim) for x in xs],
                    dtype=float).reshape(-1, dim)


def _pair_rows(f: PhaseMapOracle, pairs) -> Tuple[np.ndarray, np.ndarray]:
    """The pairs as an (m, 2, dim) array and their images, fetched in the order x0, y0, x1, ..."""
    dim = f.domain.dim
    coords = _points([p for x, y in pairs for p in (x, y)], dim).reshape(-1, 2, dim)
    return coords, f.images(coords.reshape(-1, dim)).reshape(-1, 2, f.codomain.dim)


def check_phase_equation(f: PhaseMapOracle, pairs, tol: Tolerances = DEFAULT_TOL) -> PhaseCheckReport:
    """Check {|f(x)+f(y)|, |f(x)-f(y)|} = {|x+y|, |x-y|} on each pair.

    The oracle is queried at x then y, pair by pair; the equation itself is
    evaluated by :func:`check_phase_equation_batch`.
    """
    coords, images = _pair_rows(f, pairs)
    return check_phase_equation_batch(f.domain, f.codomain, coords[:, 0], coords[:, 1],
                                      images[:, 0], images[:, 1], tol)


def check_phase_equation_batch(dom: NormSpec, cod: NormSpec, X: np.ndarray, Y: np.ndarray,
                               FX: np.ndarray, FY: np.ndarray,
                               tol: Tolerances = DEFAULT_TOL) -> PhaseCheckReport:
    """Check the phase equation on the pairs (X[k], Y[k]) with images (FX[k], FY[k]).

    X and Y are (m, dom.dim) arrays, FX and FY (m, cod.dim).  Each pair gets
    the verdict and discrepancy of :func:`multiset_match` on its two norm
    multisets; a pair whose discrepancy is NaN fails, and then
    ``max_discrepancy`` is NaN too.
    """
    passed, disc = _multiset_verdicts(cod.norms_of(FX + FY), cod.norms_of(FX - FY),
                                      dom.norms_of(X + Y), dom.norms_of(X - Y), tol)
    return PhaseCheckReport(X, Y, passed, disc, float(np.max(disc, initial=0.0)))


def check_wigner_equation(f: PhaseMapOracle, pairs, tol: Tolerances = DEFAULT_TOL) -> PhaseCheckReport:
    """Check |<f(x), f(y)>| = |<x, y>| on each pair (Euclidean spaces only).

    A NaN discrepancy fails its pair and is left out of ``max_discrepancy``.
    """
    if not (f.domain.is_euclidean and f.codomain.is_euclidean):
        raise ValueError("the inner-product equation requires Euclidean (p=2) spaces")
    coords, images = _pair_rows(f, pairs)
    got = np.abs(_row_dots(images[:, 0], images[:, 1]))
    want = np.abs(_row_dots(coords[:, 0], coords[:, 1]))
    disc = np.abs(got - want)
    passed = disc <= tol.scaled(np.maximum(got, want))
    worst = float(np.max(disc, initial=0.0, where=~np.isnan(disc)))
    return PhaseCheckReport(coords[:, 0], coords[:, 1], passed, disc, worst)


@dataclass
class InvariantReport:
    """Outcome of the norm-preservation / sign-symmetry / oddness suite."""

    norm_preserved: bool
    sign_symmetric: bool
    odd: Optional[bool]
    injective: Optional[bool]
    max_norm_deviation: float
    witnesses: Dict[str, list]

    @property
    def passed(self) -> bool:
        checks = [self.norm_preserved, self.sign_symmetric]
        checks += [v for v in (self.odd, self.injective) if v is not None]
        return all(checks)

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def check_phase_invariants(f: PhaseMapOracle, xs, surjective_mode: bool = False,
                           tol: Tolerances = DEFAULT_TOL) -> InvariantReport:
    """Check the consequences every phase-isometry must satisfy on a sample:
    norm preservation and f(-x) = +-f(x); under a surjectivity declaration
    additionally oddness (f(-x) = -f(x)) and injectivity on the sample.

    The images are fetched in one call, in the order x0, -x0, x1, -x1, ...;
    witnesses keep the sample's order, and a NaN deviation is left out of the maximum.
    """
    dom, cod = f.domain, f.codomain
    X = _points(xs, dom.dim)
    F = f.images(_interleaved(X, -X)).reshape(len(X), 2, cod.dim)
    FX, FMX = F[:, 0], F[:, 1]
    nx, nfx = dom.norms_of(X), cod.norms_of(FX)
    dev = np.abs(nfx - nx)
    scale = tol.scaled(nfx)
    plus, minus = cod.norms_of(FMX - FX) <= scale, cod.norms_of(FMX + FX) <= scale
    masks = {"norm": dev > tol.scaled(nx), "sign": ~(plus | minus), "odd": ~minus & surjective_mode}
    witnesses: Dict[str, list] = {k: [list(x) for x in X[m]] for k, m in masks.items()}
    witnesses["injective"] = []
    if surjective_mode:
        near = tol.scaled(1.0)
        for i in range(len(X) - 1):  # row i against the later rows, so memory stays O(n)
            apart = ~(dom.norms_of(X[i] - X[i + 1:]) <= near)
            merged = apart & (cod.norms_of(FX[i] - FX[i + 1:]) <= near)
            witnesses["injective"] += [[list(X[i]), list(X[j])]
                                       for j in np.flatnonzero(merged) + i + 1]
    return InvariantReport(
        norm_preserved=not witnesses["norm"],
        sign_symmetric=not witnesses["sign"],
        odd=(not witnesses["odd"]) if surjective_mode else None,
        injective=(not witnesses["injective"]) if surjective_mode else None,
        max_norm_deviation=float(np.max(dev, initial=0.0, where=~np.isnan(dev))),
        witnesses={k: v for k, v in witnesses.items() if v},
    )


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def generate_isometry(space: NormSpec, seed: int = 0) -> LinearMap:
    """A random linear isometry of the space onto itself.

    Euclidean: Haar-random orthogonal matrix.  Other lp kinds: a random
    signed permutation.  Weighted lp: a random diagonal of signs (the only
    generically weight-safe choice).  Polyhedral symmetry groups are not
    modeled; the identity is returned with a warning note.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x150]))
    n = space.dim
    note = None
    if space.is_euclidean:
        g = rng.standard_normal((n, n))
        q, r = np.linalg.qr(g)
        m = q * np.sign(np.diag(r))
    elif space.kind == "lp":
        perm = rng.permutation(n)
        signs = rng.choice([-1.0, 1.0], size=n)
        m = np.zeros((n, n))
        m[perm, np.arange(n)] = signs
    elif space.kind == "weighted_lp":
        m = np.diag(rng.choice([-1.0, 1.0], size=n))
    else:
        m = np.eye(n)
        note = "polyhedral isometry generation is not supported; identity returned"
    t = LinearMap(m, space, space, isometric=True, note=note)
    worst = t.verify_isometric(seed=seed)
    if worst > DEFAULT_TOL.scaled(1.0) * 100:
        raise AssertionError(f"generated map failed the isometry sample check ({worst})")
    return t


def _hash_sign(seed: int, key: Tuple[float, ...]) -> int:
    payload = struct.pack("<Q", seed & 0xFFFFFFFFFFFFFFFF) + struct.pack(f"<{len(key)}d", *key)
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return 1 if digest[0] & 1 == 0 else -1


def _hash_signs(seed: int, rounded: np.ndarray, nonzero: np.ndarray) -> np.ndarray:
    """:func:`_hash_sign` of the key of each row of an (m, dim) array of rounded
    rays, and +1 where ``nonzero`` is False.

    A row's '<f8' bytes are the bytes ``struct.pack`` makes of its key.
    """
    seeded = hashlib.blake2b(struct.pack("<Q", seed & 0xFFFFFFFFFFFFFFFF), digest_size=8)
    rows = np.ascontiguousarray(rounded[nonzero], dtype="<f8")
    digests = []
    for key in rows.view(f"V{8 * rows.shape[1]}").ravel().tolist():
        h = seeded.copy()
        h.update(key)
        digests.append(h.digest())
    low = np.frombuffer(b"".join(digests), dtype=np.uint8)[::8] & 1  # bit 0 of each first byte
    signs = np.ones(len(rounded), dtype=int)
    signs[nonzero] = 1 - 2 * low.astype(int)
    return signs


def generate_phase_isometry(t: LinearMap, seed: int = 0, even: bool = True) -> PhaseMapOracle:
    """Oracle x -> eps(x) * T x with a hidden pseudo-random sign assignment.

    ``even`` makes eps constant on each line through the origin, so the
    oracle is odd and onto; with ``even=False`` the two rays of a line draw
    independent signs and oddness generically fails.  The oracle answers as
    a pure function of ``(t, seed, even)``, and ``hidden_truth`` holds those
    three and the hidden ``sign_of`` and ``signs_of``.
    """
    if not t.isometric:
        raise ValueError("generate_phase_isometry requires an isometric map")
    space = t.domain

    def signs_of(rows: np.ndarray) -> np.ndarray:
        """Hidden signs of the rows of an (m, dim) array; zero rows carry +1."""
        rows = np.asarray(rows, dtype=float).reshape(-1, space.dim)
        return _hash_signs(seed, _rounded_rays(rows, space, oriented=not even), rows.any(axis=1))

    def sign_of(coords: np.ndarray) -> int:
        return int(signs_of(coords)[0])

    def fn(coords: np.ndarray) -> np.ndarray:
        s = _hash_sign(seed, ray_key(coords, space, oriented=not even)) if coords.any() else 1
        return s * (t.matrix @ coords)

    def fn_batch(rows: np.ndarray) -> np.ndarray:
        return signs_of(rows)[:, None] * _row_products(t.matrix, rows)

    oracle = PhaseMapOracle.from_callable(space, t.codomain, fn,
                                          declared_surjective=even)
    oracle.fn_batch = fn_batch
    oracle.hidden_truth = {"T": t, "seed": seed, "even": even, "sign_of": sign_of,
                           "signs_of": signs_of}
    return oracle


def make_sign_flip_oracle(space: NormSpec, x0, tol: Tolerances = DEFAULT_TOL) -> PhaseMapOracle:
    """The classic one-point phase flip: maps x0 to -x0 and -x0 to x0 while
    fixing everything else; a surjective phase-isometry that is not an
    isometry."""
    x0c = _as_coords(x0, space.dim)

    def fn(coords: np.ndarray) -> np.ndarray:
        if space.norm_of(coords - x0c) <= tol.scaled(space.norm_of(x0c)):
            return -coords
        if space.norm_of(coords + x0c) <= tol.scaled(space.norm_of(x0c)):
            return -coords
        return coords

    return PhaseMapOracle.from_callable(space, space, fn, declared_surjective=True)


# ---------------------------------------------------------------------------
# sample files (JSON Lines, one {"x": [...], "fx": [...]} record per line)
# ---------------------------------------------------------------------------


def write_samples(path: str, oracle: PhaseMapOracle, points: Sequence[np.ndarray]):
    """Write one {"x", "fx"} line per point; every image is fetched before the file opens.

    The lines are the bytes of ``json.dumps({"x": x, "fx": fx})``: a list of
    finite floats prints as JSON does, with ``float.__repr__`` and ", ", and
    ``images`` admits finite points and images only.
    """
    X = np.array(points, dtype=float).reshape(len(points), oracle.domain.dim)
    FX = oracle.images(X)
    text = "".join([f'{{"x": {x}, "fx": {fx}}}\n' for x, fx in zip(X.tolist(), FX.tolist())])
    with open(path, "w") as fh:
        fh.write(text)


_raw_decode = json.JSONDecoder().raw_decode


def _loads(line: str):
    """``json.loads`` of a stripped line, without its wrapper's two whitespace
    scans when the line is one JSON value."""
    try:
        rec, end = _raw_decode(line)
        if end == len(line):
            return rec
    except ValueError:
        pass
    return json.loads(line)  # json.loads's own error, as for a BOM or trailing data


def _record_rows(path: str, records: list, line_nos: List[int]):
    """The x and fx arrays of parsed records, converted one line at a time;
    the first line that does not convert raises SampleFormatError."""
    xs, fxs = [], []
    for line_no, rec in zip(line_nos, records):
        try:
            x = np.asarray(rec["x"], dtype=float)
            fx = np.asarray(rec["fx"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise SampleFormatError(path, line_no, str(exc)) from exc
        if x.ndim != 1 or fx.ndim != 1:
            raise SampleFormatError(path, line_no, "x and fx must be flat arrays")
        xs.append(x)
        fxs.append(fx)
    return xs, fxs


def _check_utf8(path: str, line_no: int, line: str):
    """SampleFormatError naming the line's first byte that is not UTF-8, if any."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:  # the lone surrogate of a rejected byte
        byte = ord(line[exc.start]) - 0xDC00
        raise SampleFormatError(path, line_no, f"not valid UTF-8: byte 0x{byte:02x}") from None


def read_table(path: str):
    """Parse a samples file into its columns X and FX, one row per record.

    They are (N, dim) arrays, or lists of 1-D rows when the records differ
    in shape (:func:`validate_table` names the first row of the wrong
    shape).  The first malformed line raises SampleFormatError with its line
    number; in a table with none, the first line that holds a non-finite
    value does.  Lines are parsed one by one and converted column by column;
    only a table that fails that is looked at row by row.
    """
    records, line_nos, stop = [], [], None
    try:  # a byte that is not UTF-8 is decoded to a lone surrogate, named below
        fh = open(path, encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise SampleFormatError(path, 0, f"cannot read samples: {exc}") from exc
    with fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                if not line.isascii():
                    _check_utf8(path, line_no, line)
                records.append(_loads(line))
                line_nos.append(line_no)
        except Exception as exc:  # raised after the lines before it are checked
            stop = exc
    X = FX = None
    if stop is None:
        try:
            X = np.array([rec["x"] for rec in records], dtype=float)
            FX = np.array([rec["fx"] for rec in records], dtype=float)
        except Exception:  # the row-by-row pass below raises the first line's error
            X = None
    if X is None or X.ndim != 2 or FX.ndim != 2:
        X, FX = _record_rows(path, records, line_nos)
        if isinstance(stop, (json.JSONDecodeError, RecursionError)):  # a line nested too deep
            raise SampleFormatError(path, line_no, str(stop)) from stop
        if stop is not None:
            raise stop
        finite = [np.isfinite(x).all() and np.isfinite(fx).all() for x, fx in zip(X, FX)]
    else:
        finite = np.isfinite(X).all(axis=1) & np.isfinite(FX).all(axis=1)
    if not np.all(finite):
        raise SampleFormatError(path, line_nos[int(np.argmin(finite))], "x and fx must be finite")
    return X, FX


def read_samples(path: str) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Parse a samples file into (x, fx) rows, the rows of :func:`read_table`'s
    columns; malformed or non-finite rows raise SampleFormatError."""
    return list(zip(*read_table(path)))
