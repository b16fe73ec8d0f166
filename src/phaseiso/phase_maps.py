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
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .settings import DEFAULT_TOL, Tolerances
from .spaces import DimensionMismatch, NormSpec, Vector, _as_coords, _coerce

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


def ray_keys(rows: np.ndarray, space: NormSpec, oriented: bool = False) -> List[Tuple[float, ...]]:
    """:func:`ray_key` of each row of an (m, dim) array, equal to it bit for bit."""
    r = canonical_rays(rows, space, oriented)
    return [tuple(row) for row in (np.round(r, _KEY_DECIMALS) + 0.0).tolist()]


def key_string(key: Tuple[float, ...]) -> str:
    return ",".join(repr(v) for v in key)


@dataclass
class SignAssignment:
    """Recorded phase values in {-1, +1} keyed by canonical ray representatives.

    By convention the zero vector carries +1.
    """

    space: NormSpec
    table: Dict[Tuple[float, ...], int] = field(default_factory=dict)

    def key_of(self, x: Union[Vector, np.ndarray]) -> Tuple[float, ...]:
        coords = x.coords if isinstance(x, Vector) else np.asarray(x, float)
        return ray_key(coords, self.space)

    def get(self, x: Union[Vector, np.ndarray]) -> int:
        coords = x.coords if isinstance(x, Vector) else np.asarray(x, float)
        if not np.any(coords):
            return 1
        return self.table[self.key_of(coords)]

    def set(self, x: Union[Vector, np.ndarray], value: int):
        if value not in (-1, 1):
            raise ValueError("sign values must be -1 or +1")
        self.table[self.key_of(x)] = value

    def __len__(self):
        return len(self.table)

    def to_dict(self) -> Dict[str, int]:
        return {key_string(k): v for k, v in sorted(self.table.items())}


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class PhaseMapOracle:
    """Query interface to the map under study.

    Backed either by a callable or by a finite sample table with exact
    coordinate keys.  Queries are cached, so repeated evaluation at the same
    point returns the identical vector, and every distinct evaluated point
    is recorded in ``query_log``.  ``fn_batch``, when set, maps an (m, dim)
    array of points to their (m, codomain dim) images at once; it must agree
    with ``fn`` row by row, and :meth:`images` computes its misses with it.
    """

    domain: NormSpec
    codomain: NormSpec
    fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    table: Optional[Dict[Tuple[float, ...], np.ndarray]] = None
    declared_surjective: bool = False
    name: str = "oracle"
    query_log: List[np.ndarray] = field(default_factory=list)
    hidden_truth: Optional[dict] = None
    fn_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    _cache: Dict[Tuple[float, ...], np.ndarray] = field(default_factory=dict)

    @classmethod
    def from_callable(cls, domain: NormSpec, codomain: NormSpec,
                      fn: Callable[[np.ndarray], np.ndarray],
                      declared_surjective: bool = False, name: str = "oracle"):
        return cls(domain=domain, codomain=codomain, fn=fn,
                   declared_surjective=declared_surjective, name=name)

    @classmethod
    def from_table(cls, domain: NormSpec, codomain: NormSpec,
                   pairs: Sequence[Tuple[np.ndarray, np.ndarray]],
                   declared_surjective: bool = False, name: str = "table"):
        """Oracle over a sample table; rows that repeat an x must repeat its fx."""
        table: Dict[Tuple[float, ...], np.ndarray] = {}
        for x, fx in pairs:
            key = tuple(map(float, x))
            val = np.asarray(fx, float)
            prev = table.get(key)
            if prev is not None and not np.array_equal(prev, val):
                raise ValueError(f"sample table maps x = {list(key)} to two different fx")
            table[key] = val
        return cls(domain=domain, codomain=codomain, table=table,
                   declared_surjective=declared_surjective, name=name)

    def missing_points(self, points: Sequence[np.ndarray]) -> List[Tuple[float, ...]]:
        if self.table is None:
            return []
        return [tuple(map(float, p)) for p in points
                if tuple(map(float, p)) not in self.table]

    def __call__(self, x: Union[Vector, np.ndarray, Sequence[float]]) -> np.ndarray:
        coords = x.coords if isinstance(x, Vector) else _coerce(x, self.domain.dim)
        key = tuple(coords.tolist())
        hit = self._cache.get(key)
        if hit is not None:  # only finite points are ever stored
            return hit
        if not np.all(np.isfinite(coords)):
            raise ValueError("coordinates must be finite")
        return self._miss(key, coords)

    def _miss(self, key: Tuple[float, ...], coords: np.ndarray) -> np.ndarray:
        """Compute, check and commit the image of one uncached point."""
        if self.table is not None:
            if key not in self.table:
                raise MissingSamples([key])
            val = np.asarray(self.table[key], dtype=float)
        else:
            val = np.asarray(self.fn(np.array(coords)), dtype=float)
        if val.shape != (self.codomain.dim,):
            raise DimensionMismatch("oracle returned a vector of the wrong dimension")
        if not np.all(np.isfinite(val)):
            raise ValueError(f"oracle returned a non-finite vector at {list(coords)}")
        return self._commit(key, coords, val)

    def _commit(self, key: Tuple[float, ...], coords: np.ndarray, val: np.ndarray) -> np.ndarray:
        """Cache a frozen copy of a checked image and log its point."""
        val = val.copy()
        val.setflags(write=False)
        self._cache[key] = val
        self.query_log.append(np.array(coords))
        return val

    def images(self, points) -> np.ndarray:
        """The images of the rows of an (m, dim) array, as an (m, codomain dim) array.

        Equal to calling the oracle on each row in order, in the values, the
        cache and ``query_log``: a row seen before, in the cache or earlier in
        the batch, is a hit, and the first occurrence of each new point is
        computed and committed in row order, by ``fn_batch`` in one call when
        the oracle has one.
        """
        dim, cod_dim = self.domain.dim, self.codomain.dim
        X = np.asarray(points, dtype=float)
        if X.ndim != 2 or X.shape[1] != dim:
            raise DimensionMismatch(f"dimension mismatch: expected {dim} coordinates, "
                                    f"got shape {X.shape[1:]}")
        if not np.all(np.isfinite(X)):
            raise ValueError("coordinates must be finite")
        keys = [tuple(row) for row in X.tolist()]
        cache = self._cache
        first: Dict[Tuple[float, ...], int] = {}  # uncached key -> its first row
        for i, key in enumerate(keys):
            if key not in cache and key not in first:
                first[key] = i
        if first and self.fn_batch is not None:
            U = X[list(first.values())]
            V = np.asarray(self.fn_batch(U), dtype=float)
            if V.shape != (len(U), cod_dim):
                raise DimensionMismatch("oracle returned a vector of the wrong dimension")
            finite = np.isfinite(V).all(axis=1)
            if not finite.all():
                bad = int(np.argmin(finite))
                raise ValueError(f"oracle returned a non-finite vector at {list(U[bad])}")
            for key, u, v in zip(first, U, V):
                self._commit(key, u, v)
        else:
            for key, i in first.items():
                self._miss(key, X[i])
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

    def __call__(self, x: Union[Vector, np.ndarray]) -> np.ndarray:
        coords = x.coords if isinstance(x, Vector) else _as_coords(x, self.domain.dim)
        return self.matrix @ coords

    def verify_isometric(self, seed: int = 0, samples: int = 100,
                         tol: Tolerances = DEFAULT_TOL) -> float:
        """Max deviation of |Tx| from |x| over a random sample."""
        x = np.random.default_rng(seed).standard_normal((samples, self.domain.dim))
        tx = np.matmul(self.matrix, x[:, :, None])[:, :, 0]  # bit for bit matrix @ row
        dev = np.abs(self.codomain.norms_of(tx) - self.domain.norms_of(x))
        return float(np.max(dev, initial=0.0))

    def to_json(self) -> dict:
        return {"matrix": [list(row) for row in self.matrix],
                "domain": self.domain.to_json(), "codomain": self.codomain.to_json(),
                "isometric": self.isometric, "note": self.note}

    @classmethod
    def from_json(cls, data: dict) -> "LinearMap":
        return cls(np.asarray(data["matrix"], float),
                   NormSpec.from_json(data["domain"]), NormSpec.from_json(data["codomain"]),
                   isometric=bool(data.get("isometric", False)), note=data.get("note"))


# ---------------------------------------------------------------------------
# functional-equation checks
# ---------------------------------------------------------------------------


def multiset_match(pair_a: Tuple[float, float], pair_b: Tuple[float, float],
                   tol: Tolerances = DEFAULT_TOL) -> Tuple[bool, float]:
    """Compare two-element multisets: sort and match componentwise.

    Returns (matched, discrepancy) with the threshold scaled by magnitude.
    """
    a = sorted(pair_a)
    b = sorted(pair_b)
    disc = max(abs(a[0] - b[0]), abs(a[1] - b[1]))
    scale = max(map(abs, a + b), default=0.0)
    return disc <= tol.rel * (1.0 + scale), disc


@dataclass(frozen=True)
class PairCheck:
    x: np.ndarray
    y: np.ndarray
    passed: bool
    discrepancy: float


@dataclass
class PhaseCheckReport:
    checks: List[PairCheck]
    max_discrepancy: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> List[PairCheck]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self, include_passing: bool = False) -> dict:
        out = {
            "pairs": len(self.checks),
            "passed": self.passed,
            "max_discrepancy": self.max_discrepancy,
            "failures": [
                {"x": list(c.x), "y": list(c.y), "discrepancy": c.discrepancy}
                for c in self.failures
            ],
        }
        if include_passing:
            out["checks"] = [
                {"x": list(c.x), "y": list(c.y), "passed": c.passed,
                 "discrepancy": c.discrepancy}
                for c in self.checks
            ]
        return out


def _pair_coords(pair, space: NormSpec):
    x, y = pair
    xc = x.coords if isinstance(x, Vector) else _as_coords(x, space.dim)
    yc = y.coords if isinstance(y, Vector) else _as_coords(y, space.dim)
    return xc, yc


def check_phase_equation(f: PhaseMapOracle, pairs, tol: Tolerances = DEFAULT_TOL) -> PhaseCheckReport:
    """Check {|f(x)+f(y)|, |f(x)-f(y)|} = {|x+y|, |x-y|} on each pair.

    The oracle is queried at x then y, pair by pair; the equation itself is
    evaluated by :func:`check_phase_equation_batch`.
    """
    dom, cod = f.domain, f.codomain
    coords = np.array([_pair_coords(pair, dom) for pair in pairs], dtype=float)
    coords = coords.reshape(-1, 2, dom.dim)
    images = f.images(coords.reshape(-1, dom.dim)).reshape(-1, 2, cod.dim)
    return check_phase_equation_batch(dom, cod, coords[:, 0], coords[:, 1],
                                      images[:, 0], images[:, 1], tol)


def check_phase_equation_batch(dom: NormSpec, cod: NormSpec, X: np.ndarray, Y: np.ndarray,
                               FX: np.ndarray, FY: np.ndarray,
                               tol: Tolerances = DEFAULT_TOL) -> PhaseCheckReport:
    """Check the phase equation on the pairs (X[k], Y[k]) with images (FX[k], FY[k]).

    X and Y are (m, dom.dim) arrays, FX and FY (m, cod.dim).  Each pair gets
    the verdict and discrepancy of :func:`multiset_match` on its two norm
    multisets, to the bit; a pair whose discrepancy is NaN fails, and then
    ``max_discrepancy`` is NaN too.
    """
    got_a, got_b = cod.norms_of(FX + FY), cod.norms_of(FX - FY)
    want_a, want_b = dom.norms_of(X + Y), dom.norms_of(X - Y)
    got_hi, want_hi = np.maximum(got_a, got_b), np.maximum(want_a, want_b)
    disc = np.maximum(np.abs(np.minimum(got_a, got_b) - np.minimum(want_a, want_b)),
                      np.abs(got_hi - want_hi))
    # norms are nonnegative, so the larger of the two maxima is the largest magnitude
    passed = disc <= tol.rel * (1.0 + np.maximum(got_hi, want_hi))
    checks = [PairCheck(x, y, ok, d)
              for x, y, ok, d in zip(X, Y, passed.tolist(), disc.tolist())]
    return PhaseCheckReport(checks, float(np.max(disc, initial=0.0)))


def check_wigner_equation(f: PhaseMapOracle, pairs, tol: Tolerances = DEFAULT_TOL) -> PhaseCheckReport:
    """Check |<f(x), f(y)>| = |<x, y>| on each pair (Euclidean spaces only)."""
    if not (f.domain.is_euclidean and f.codomain.is_euclidean):
        raise ValueError("the inner-product equation requires Euclidean (p=2) spaces")
    checks = []
    worst = 0.0
    for pair in pairs:
        xc, yc = _pair_coords(pair, f.domain)
        fx, fy = f(xc), f(yc)
        got = abs(float(np.dot(fx, fy)))
        want = abs(float(np.dot(xc, yc)))
        disc = abs(got - want)
        ok = disc <= tol.rel * (1.0 + max(got, want))
        worst = max(worst, disc)
        checks.append(PairCheck(xc, yc, ok, disc))
    return PhaseCheckReport(checks, worst)


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
        return {
            "norm_preserved": self.norm_preserved,
            "sign_symmetric": self.sign_symmetric,
            "odd": self.odd,
            "injective": self.injective,
            "max_norm_deviation": self.max_norm_deviation,
            "witnesses": self.witnesses,
            "passed": self.passed,
        }


def check_phase_invariants(f: PhaseMapOracle, xs, surjective_mode: bool = False,
                       tol: Tolerances = DEFAULT_TOL) -> InvariantReport:
    """Check the consequences every phase-isometry must satisfy on a sample:
    norm preservation and f(-x) = +-f(x); under a surjectivity declaration
    additionally oddness (f(-x) = -f(x)) and injectivity on the sample.
    """
    dom, cod = f.domain, f.codomain
    witnesses: Dict[str, list] = {"norm": [], "sign": [], "odd": [], "injective": []}
    max_dev = 0.0
    points = []
    for x in xs:
        xc = x.coords if isinstance(x, Vector) else _as_coords(x, dom.dim)
        points.append(xc)
        fx = f(xc)
        dev = abs(cod.norm_of(fx) - dom.norm_of(xc))
        max_dev = max(max_dev, dev)
        if dev > tol.scaled(dom.norm_of(xc)):
            witnesses["norm"].append(list(xc))
        fmx = f(-xc)
        scale = tol.scaled(cod.norm_of(fx))
        plus = cod.norm_of(fmx - fx) <= scale
        minus = cod.norm_of(fmx + fx) <= scale
        if not (plus or minus):
            witnesses["sign"].append(list(xc))
        if surjective_mode and not minus:
            witnesses["odd"].append(list(xc))
    injective: Optional[bool] = None
    if surjective_mode:
        injective = True
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                if dom.norm_of(points[i] - points[j]) <= tol.scaled(1.0):
                    continue
                if cod.norm_of(f(points[i]) - f(points[j])) <= tol.scaled(1.0):
                    injective = False
                    witnesses["injective"].append([list(points[i]), list(points[j])])
    return InvariantReport(
        norm_preserved=not witnesses["norm"],
        sign_symmetric=not witnesses["sign"],
        odd=(not witnesses["odd"]) if surjective_mode else None,
        injective=injective,
        max_norm_deviation=max_dev,
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


def generate_phase_isometry(t: LinearMap, seed: int = 0, even: bool = True) -> PhaseMapOracle:
    """Oracle x -> eps(x) * T x with a hidden pseudo-random sign assignment.

    ``even`` makes eps constant on each line through the origin, so the
    oracle is odd and onto; with ``even=False`` the two rays of a line draw
    independent signs and oddness generically fails.
    """
    if not t.isometric:
        raise ValueError("generate_phase_isometry requires an isometric map")
    space = t.domain
    hidden = SignAssignment(space)

    def keyed_signs(rows: np.ndarray):
        """Ray keys, nonzero mask and hidden signs of the rows; zero rows carry +1."""
        keys = ray_keys(rows, space, oriented=not even)
        nonzero = np.any(rows, axis=1).tolist()
        signs = [_hash_sign(seed, k) if nz else 1 for k, nz in zip(keys, nonzero)]
        return keys, nonzero, np.array(signs, dtype=int)

    def signs_of(rows: np.ndarray) -> np.ndarray:
        """Hidden signs of the rows of an (m, dim) array; zero rows carry +1."""
        return keyed_signs(np.asarray(rows, dtype=float).reshape(-1, space.dim))[2]

    def sign_of(coords: np.ndarray) -> int:
        return int(signs_of(coords)[0])

    def fn(coords: np.ndarray) -> np.ndarray:
        s = 1
        if np.any(coords):
            key = ray_key(coords, space, oriented=not even)
            s = _hash_sign(seed, key)
            if even:  # the unoriented key is the recorded one
                hidden.table[key] = s
        return s * (t.matrix @ coords)

    def fn_batch(rows: np.ndarray) -> np.ndarray:
        keys, nonzero, s = keyed_signs(rows)
        if even:
            hidden.table.update((k, v) for k, nz, v in zip(keys, nonzero, s.tolist()) if nz)
        return s[:, None] * np.matmul(t.matrix, rows[:, :, None])[:, :, 0]  # bit for bit T @ x

    oracle = PhaseMapOracle.from_callable(space, t.codomain, fn,
                                          declared_surjective=even, name="generated")
    oracle.fn_batch = fn_batch
    oracle.hidden_truth = {"T": t, "seed": seed, "even": even, "sign_of": sign_of,
                           "signs_of": signs_of, "signs": hidden}
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

    return PhaseMapOracle.from_callable(space, space, fn,
                                        declared_surjective=True, name="sign-flip")


# ---------------------------------------------------------------------------
# sample files (JSON Lines, one {"x": [...], "fx": [...]} record per line)
# ---------------------------------------------------------------------------


def write_samples(path: str, oracle: PhaseMapOracle, points: Sequence[np.ndarray]):
    """Write one {"x", "fx"} line per point; every image is fetched before the file opens."""
    X = np.array(points, dtype=float).reshape(len(points), oracle.domain.dim)
    FX = oracle.images(X)
    with open(path, "w") as fh:
        for x, fx in zip(X.tolist(), FX.tolist()):
            fh.write(json.dumps({"x": x, "fx": fx}) + "\n")


def read_samples(path: str) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Parse a samples file; malformed or non-finite rows raise SampleFormatError."""
    pairs = []
    line_nos = []
    try:
        fh = open(path)
    except OSError as exc:
        raise SampleFormatError(path, 0, f"cannot read samples: {exc}") from exc
    with fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                x = np.asarray(rec["x"], dtype=float)
                fx = np.asarray(rec["fx"], dtype=float)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise SampleFormatError(path, line_no, str(exc)) from exc
            if x.ndim != 1 or fx.ndim != 1:
                raise SampleFormatError(path, line_no, "x and fx must be flat arrays")
            pairs.append((x, fx))
            line_nos.append(line_no)
    # one finiteness scan over every value; the slow search runs only on failure
    if pairs and not np.isfinite(np.concatenate([v for pair in pairs for v in pair])).all():
        line_no = next(n for n, (x, fx) in zip(line_nos, pairs)
                       if not (np.isfinite(x).all() and np.isfinite(fx).all()))
        raise SampleFormatError(path, line_no, "x and fx must be finite")
    return pairs
