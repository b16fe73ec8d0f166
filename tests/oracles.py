"""Independent reference oracles for cross-checking library results.

Deliberately written from the definitions, not from the library's formulas:
finite differences for directional derivatives, golden-section search for
one-dimensional norm minimization, and exhaustive enumeration for polyhedral
quantities.  The scalar loops and the line-by-line sample reader are frozen
copies of earlier library code, kept as references for the array versions;
so are the per-call spec key, the Birkhoff verdict that computed its face
once per slope, and the polyhedral exposure test that solved the dual-norm
LP on every call.
"""

import json
import math

import numpy as np

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def highprec_norm(space, a):
    """Extended-precision norm evaluated straight from the space description."""
    a = np.asarray(a, dtype=np.longdouble)
    if space.kind in ("lp", "weighted_lp"):
        w = (np.asarray(space.weights, np.longdouble)
             if space.kind == "weighted_lp" else np.ones(space.dim, np.longdouble))
        if math.isinf(space.p):
            return np.max(w * np.abs(a))
        return np.sum(w * np.abs(a) ** np.longdouble(space.p)) ** (1.0 / np.longdouble(space.p))
    rows = np.asarray(space.functionals, np.longdouble)
    return np.max(np.abs(rows @ a))


def fd_directional(space, u, x, steps=range(8, 41), agree=5e-8):
    """Finite-difference limit of (|u + t x| - |u|) / t as t -> 0+.

    Extended precision keeps the difference quotient out of cancellation
    noise; the one-sided quotient of a convex function decreases to the
    limit, so successive agreement bounds the remaining error.
    """
    u = np.asarray(u, np.longdouble)
    x = np.asarray(x, np.longdouble)
    nu = highprec_norm(space, u)
    prev = None
    est = None
    for k in steps:
        t = np.longdouble(2.0) ** -k
        est = (highprec_norm(space, u + t * x) - nu) / t
        if prev is not None and abs(est - prev) <= agree:
            return float(est)
        prev = est
    return float(est)


def golden_min_norm_on_line(space, x, y, lo=None, hi=None, iters=90):
    """Minimize t -> |x + t y| by golden-section search.

    The map is convex and coercive in t, so the bracket |t| <= 2|x| / |y|
    contains the minimizer.
    """
    ny = space.norm_of(y)
    if ny == 0.0:
        return space.norm_of(x), 0.0
    half = 2.0 * space.norm_of(x) / max(ny, 1e-12) + 1.0
    a = -half if lo is None else lo
    b = half if hi is None else hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc = space.norm_of(x + c * y)
    fd = space.norm_of(x + d * y)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = space.norm_of(x + c * y)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = space.norm_of(x + d * y)
    t = (a + b) / 2.0
    return space.norm_of(x + t * y), t


def birkhoff_by_minimization(space, x, y, margin=1e-7):
    """Orthogonality verdict from the definition: the minimum over t of
    |x + t y| must not drop below |x|."""
    best, _ = golden_min_norm_on_line(space, x, y)
    return best >= space.norm_of(x) - margin


def brute_polyhedral_directional(space, u, x, atol=1e-12):
    """Max of a*(x) over the active functionals at u, by enumeration."""
    vals = space.functionals @ u
    m = np.max(np.abs(vals))
    best = -np.inf
    for i, v in enumerate(vals):
        if abs(abs(v) - m) <= atol * (1.0 + m):
            best = max(best, np.sign(v) * float(space.functionals[i] @ x))
    return best


def scalar_pair_checks(f, pairs, rel=1e-9):
    """The phase equation checked one pair at a time with scalar norms.

    Returns one (x, y, passed, discrepancy) per pair, x and y as lists,
    computed the way the library did before it evaluated pairs in batches:
    sort each two-element multiset and compare componentwise.
    """
    dom, cod = f.domain, f.codomain
    checks = []
    for x, y in pairs:
        x, y = np.asarray(x, float), np.asarray(y, float)
        fx, fy = f(x), f(y)
        got = sorted((cod.norm_of(fx + fy), cod.norm_of(fx - fy)))
        want = sorted((dom.norm_of(x + y), dom.norm_of(x - y)))
        disc = max(abs(got[0] - want[0]), abs(got[1] - want[1]))
        checks.append((list(x), list(y), disc <= rel * (1.0 + max(got + want)), disc))
    return checks


def scalar_phase_check(f, pairs, rel=1e-9):
    """Returns (passed, max_discrepancy, failures) of :func:`scalar_pair_checks`,
    with failures as (x, y, discrepancy) triples and the running maximum
    kept from 0.0."""
    checks = scalar_pair_checks(f, pairs, rel)
    worst = 0.0
    for *_, disc in checks:
        worst = max(worst, disc)
    failures = [(x, y, disc) for x, y, ok, disc in checks if not ok]
    return not failures, worst, failures


def scalar_verify_isometric(t, seed=0, samples=100):
    """Max | |Tx| - |x| | over ``samples`` standard normal points, drawn one at
    a time and measured with scalar norms, from the running maximum 0.0."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        x = rng.standard_normal(t.domain.dim)
        worst = max(worst, abs(t.codomain.norm_of(t.matrix @ x) - t.domain.norm_of(x)))
    return worst


def scalar_images(f, X):
    """The images of the rows of X fetched one oracle call at a time, in row order."""
    X = np.asarray(X, float)
    return np.array([f(x) for x in X], dtype=float).reshape(len(X), f.codomain.dim)


def scalar_functional_check(f, x_star, phi, samples, tol):
    """|x*(x)| against |phi(f(x))| one sample at a time, as recover_functional
    checked its verify points before it took them as a batch.

    Returns (sign_pattern, max_deviation, failure), where failure is None or
    (index, deviation) of the first sample beyond tol.functional * (1 + |x|).
    """
    signs = []
    worst = 0.0
    for k, v in enumerate(samples):
        lhs = x_star(v)
        rhs = phi(f(v))
        dev = abs(abs(lhs) - abs(rhs))
        worst = max(worst, dev)
        if dev > tol.functional * (1.0 + f.domain.norm_of(v)):
            return signs, worst, (k, dev)
        if abs(lhs) > tol.scaled(1.0) and abs(rhs) > tol.scaled(1.0):
            signs.append(1 if lhs * rhs > 0 else -1)
        else:
            signs.append(1)
    return signs, worst, None


def scalar_pin(f, x, y, tol):
    """Sign pinning of one pair from its definition, one oracle call and one
    norm at a time.

    The pair must be independent, or ValueError: [x; y] has two singular
    values and the smaller is above 1e-12 * max(larger, 1).  The sign pairs are tried in the
    order (1, 1), (1, -1), (-1, 1), (-1, -1) and the first smallest residual
    |f(x+y) - (alpha f(x) + beta f(y))| wins.  The pin is tied when another
    pair comes within tol.tie of it, and a tie that (1, 1) is part of
    resolves to (1, 1).  Returns (alpha, beta, residual, tied, fits), where
    fits means the residual is not above tol.scaled(|x+y|).
    """
    x, y = np.asarray(x, float), np.asarray(y, float)
    s = np.linalg.svd(np.vstack([x, y]), compute_uv=False)
    if len(s) < 2 or not s[-1] > 1e-12 * max(s[0], 1.0):
        raise ValueError("dependent pair")
    fx, fy, fxy = f(x), f(y), f(x + y)
    residuals = [((a, b), f.codomain.norm_of(fxy - (a * fx + b * fy)))
                 for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    best, r_best = residuals[0]
    for pair, r in residuals[1:]:
        if r < r_best:
            best, r_best = pair, r
    near = [pair for pair, r in residuals if r <= r_best + tol.tie]
    tied = len(near) > 1
    if tied and (1, 1) in near:
        best, r_best = residuals[0]
    fits = not r_best > tol.scaled(f.domain.norm_of(x + y))
    return best[0], best[1], r_best, tied, fits


def scalar_linf_sign_map(f, sign_vectors, w, tol):
    """The linf route's sign-map checks, one probe and one check at a time, as
    the route ran them in a loop before they became row masks.

    ``sign_vectors`` holds the plan's (x, theta, |x| theta) rows, theta =
    sign(x), and ``w`` the aligned coordinate functionals as rows.  Per probe,
    in order: {|f(theta) +- f(|x| theta)|} must be {1 + |x|, |1 - |x||};
    {|f(|x| theta) +- f(x)|} must be {2|x|, |x| - min over the support of
    |x_i|}; w f(theta) must have unit coordinates on the support of x; and
    sign(w f(theta)) sign(w f(x)) must be constant there.  The multisets are
    sorted and compared componentwise.

    Returns (row, message, witness) for every failing check of every probe,
    in that order; the route reports the first.
    """
    dom, cod = f.domain, f.codomain

    def match(got, want):
        got, want = sorted(got), sorted(want)
        disc = max(abs(got[0] - want[0]), abs(got[1] - want[1]))
        return disc <= tol.rel * (1.0 + max(got + want))

    failures = []
    for k, (x, theta, scaled) in enumerate(sign_vectors):
        nx = dom.norm_of(x)
        ft, fs, fx = f(theta), f(scaled), f(x)
        support = np.abs(x) > 0.0
        b, c = w @ ft, w @ fx
        rel = np.sign(b[support]) * np.sign(c[support])
        checks = [
            (match((cod.norm_of(ft + fs), cod.norm_of(ft - fs)), (1.0 + nx, abs(1.0 - nx))),
             "sign-map identity (unit vs scaled) fails"),
            (match((cod.norm_of(fs + fx), cod.norm_of(fs - fx)),
                   (2.0 * nx, nx - np.min(np.abs(x[support])))),
             "sign-map identity (scaled vs original) fails"),
            (not np.max(np.abs(np.abs(b[support]) - 1.0)) > math.sqrt(tol.rel),
             "image of a sign vector lost unit coordinates"),
            (np.all(rel == rel[0]),
             "coordinate signs of f(x) disagree with the image of the sign vector"),
        ]
        failures += [(k, msg, list(x)) for ok, msg in checks if not ok]
    return failures


def scalar_invariants(f, xs, surjective_mode, tol):
    """The invariant suite one point at a time, as ``check_phase_invariants`` ran
    before it fetched its sample as one batch; returns its ``to_dict()``.

    Per point x in order: f(x), then f(-x), each one oracle call; the norm
    deviation | |f(x)| - |x| | (kept from 0.0 by a running max(), which skips a
    NaN) must not exceed tol.scaled(|x|); f(-x) must lie within
    tol.scaled(|f(x)|) of f(x) or -f(x), and of -f(x) under a surjectivity
    declaration.  Injectivity compares every pair i < j row-major: points
    farther apart than tol.scaled(1) must have images farther apart than that.
    """
    dom, cod = f.domain, f.codomain
    witnesses = {"norm": [], "sign": [], "odd": [], "injective": []}
    max_dev = 0.0
    points = []
    for x in xs:
        xc = np.asarray(x, dtype=float)
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
    injective = None
    if surjective_mode:
        injective = True
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                if dom.norm_of(points[i] - points[j]) <= tol.scaled(1.0):
                    continue
                if cod.norm_of(f(points[i]) - f(points[j])) <= tol.scaled(1.0):
                    injective = False
                    witnesses["injective"].append([list(points[i]), list(points[j])])
    odd = (not witnesses["odd"]) if surjective_mode else None
    checks = [not witnesses["norm"], not witnesses["sign"]]
    checks += [v for v in (odd, injective) if v is not None]
    return {"norm_preserved": not witnesses["norm"], "sign_symmetric": not witnesses["sign"],
            "odd": odd, "injective": injective, "max_norm_deviation": max_dev,
            "witnesses": {k: v for k, v in witnesses.items() if v}, "passed": all(checks)}


def line_by_line_samples(path):
    """The (x, fx) rows of a samples file, read one line at a time.

    A frozen copy of the reader the package used before its columnar one:
    each line is parsed and converted to two arrays on its own, and the
    first bad line raises SampleFormatError; then one scan over every value
    names the first line that holds a non-finite one.
    """
    from phaseiso import SampleFormatError

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
    if pairs and not np.isfinite(np.concatenate([v for pair in pairs for v in pair])).all():
        line_no = next(n for n, (x, fx) in zip(line_nos, pairs)
                       if not (np.isfinite(x).all() and np.isfinite(fx).all()))
        raise SampleFormatError(path, line_no, "x and fx must be finite")
    return pairs


def row_stacked_table(domain, codomain, pairs):
    """X, FX and ``table`` of (x, fx) rows, validated as the package did
    before it read tables as columns (a frozen copy): the rows are stacked,
    x shapes before fx shapes (DimensionMismatch names the first bad row),
    then |2x| and |2fx| must be finite and each x must keep one fx
    (ValueError names the first offending x)."""
    from phaseiso import DimensionMismatch

    def stack(rows, dim):
        try:
            a = np.array(rows, dtype=float)
            if a.shape == (len(rows), dim):
                return a
        except ValueError:
            pass
        for r in rows:
            if np.shape(r) != (dim,):
                raise DimensionMismatch(f"dimension mismatch: space has dim {dim}, "
                                        f"sample has shape {np.shape(r)}")
        return np.array(rows, dtype=float).reshape(len(rows), dim)

    X = stack([x for x, _ in pairs], domain.dim)
    FX = stack([fx for _, fx in pairs], codomain.dim)
    keys = [tuple(row) for row in X.tolist()]
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(domain.norms_of(2.0 * X)) & np.isfinite(codomain.norms_of(2.0 * FX))
    if not finite.all():
        raise ValueError(f"sample at x = {list(keys[np.argmin(finite)])} is too large: "
                         f"|2x| or |2fx| is not finite")
    table = dict(zip(keys, range(len(keys))))
    if len(table) < len(keys):
        first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
        differs = (FX[[first[k] for k in keys]] != FX).any(axis=1)
        if differs.any():
            raise ValueError(f"sample table maps x = {list(keys[np.argmax(differs)])} "
                             f"to two different fx")
    return X, FX, table


def rehashed_score(oracle, cert):
    """``score_certificate`` as a walk of the oracle's log (a frozen copy): each
    wanted sign is hashed again by the hidden ``signs_of`` and compared, up to
    the global sign of T, with the certificate's sign at every logged nonzero
    point it holds."""
    from phaseiso.phase_maps import ray_keys

    truth = oracle.hidden_truth
    t_true, t_hat = truth["T"].matrix, cert.T.matrix
    err_plus = float(np.max(np.abs(t_hat - t_true)))
    err_minus = float(np.max(np.abs(t_hat + t_true)))
    s = 1 if err_plus <= err_minus else -1
    logged = np.array(oracle.query_log, dtype=float).reshape(-1, oracle.domain.dim)
    logged = logged[np.any(logged, axis=1)]
    recovered = [cert.sign_table.table.get(key)
                 for key in ray_keys(logged, cert.sign_table.space)]
    eps_ok = all(r is None or r * s == want
                 for r, want in zip(recovered, truth["signs_of"](logged).tolist()))
    return {"t_error": min(err_plus, err_minus), "global_sign": s, "eps_consistent": eps_ok}


def tuple_keyed_table(table):
    """A sample ``table`` keyed by row bytes (``_row_keys``) with each key as the
    tuple of its floats, as ``validate_table`` keyed it before."""
    return {tuple(np.frombuffer(key).tolist()): row for key, row in table.items()}


def tuple_keyed(f):
    """A fresh oracle with the callables, table and hidden truth of the unused
    oracle f, whose cache keys each point by the tuple of its floats, as
    ``PhaseMapOracle`` did before it keyed points by their bytes (frozen
    copies of ``__call__``, ``_fetch`` and ``images``)."""
    from phaseiso import DimensionMismatch, MissingSamples, PhaseMapOracle, Vector
    from phaseiso.spaces import _coerce

    class TupleKeyedOracle(PhaseMapOracle):
        def __call__(self, x):
            coords = x.coords if isinstance(x, Vector) else _coerce(x, self.domain.dim)
            key = tuple(coords.tolist())
            hit = self._cache.get(key)
            if hit is not None:
                return hit
            if not np.isfinite(coords).all():
                raise ValueError("coordinates must be finite")
            self._fetch([key], np.array(coords, dtype=float).reshape(1, -1))
            return self._cache[key]

        def _fetch(self, keys, U):
            cod_dim = self.codomain.dim
            if self.table is not None:
                rows = [self.table.get(key) for key in keys]
                if None in rows:
                    raise MissingSamples([keys[rows.index(None)]])
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
            for key, u, v in zip(keys, U, V):
                if cache.setdefault(key, v) is v:
                    log.append(u)

        def images(self, points):
            dim, cod_dim = self.domain.dim, self.codomain.dim
            X = np.asarray(points, dtype=float)
            if X.ndim != 2 or X.shape[1] != dim:
                raise DimensionMismatch(f"dimension mismatch: expected {dim} coordinates, "
                                        f"got shape {X.shape[1:]}")
            if not np.isfinite(X).all():
                raise ValueError("coordinates must be finite")
            keys = [tuple(row) for row in X.tolist()]
            cache = self._cache
            first = {}
            for i, key in enumerate(keys):
                if key not in cache and key not in first:
                    first[key] = i
            if first:
                self._fetch(list(first), X[list(first.values())])
            return np.array([cache[key] for key in keys], dtype=float).reshape(len(keys), cod_dim)

    assert not f.query_log and not f._cache, "tuple_keyed needs an unused oracle"
    return TupleKeyedOracle(f.domain, f.codomain, fn=f.fn, table=f.table,
                            declared_surjective=f.declared_surjective,
                            hidden_truth=f.hidden_truth, fn_batch=f.fn_batch,
                            table_images=f.table_images)


def frozen_spec_key(space):
    """``NormSpec.spec_key()`` as it was computed on every call (a frozen copy)."""
    if space.functionals is not None:
        return ("polyhedral", space.dim, tuple(map(tuple, space.functionals)))
    key = (space.kind, space.dim, space.p)
    return key if space.weights is None else key + (tuple(space.weights),)


def _frozen_active_sets(space, u, tol):
    if space.functionals is not None:
        vals = space.functionals @ u
        m = np.max(np.abs(vals))
        active = np.nonzero(np.abs(vals) >= m - tol.scaled(m))[0]
        return vals, active
    vals = space._w * np.abs(u)
    m = np.max(vals)
    active = np.nonzero(vals >= m - tol.scaled(m))[0]
    return vals, active


def frozen_directional_derivative(u, x, tol=None):
    """``spaces.directional_derivative`` before the verdict shared its face (a
    frozen copy): the norm of ``u`` and the active face are computed per call."""
    from phaseiso.settings import DEFAULT_TOL

    tol = DEFAULT_TOL if tol is None else tol
    space = u.space
    u._check_space(x)
    un = u.norm
    if abs(un - 1.0) > 1e-6:
        raise ValueError(f"u must be a unit vector (norm {un})")
    uc, xc = u.coords, x.coords
    w, p = space._w, space.p
    if space.is_smooth_space:
        g = w * np.sign(uc) * np.abs(uc) ** (p - 1.0) / un ** (p - 1.0)
        return float(np.dot(g, xc))
    if p == 1.0:
        on = uc != 0.0
        return float(np.dot(w[on] * np.sign(uc[on]), xc[on]) + np.sum(w[~on] * np.abs(xc[~on])))
    vals, active = _frozen_active_sets(space, uc, tol)
    if space.functionals is None:  # p = inf
        return float(np.max(w[active] * np.sign(uc[active]) * xc[active]))
    return float(np.max(np.sign(vals[active]) * (space.functionals[active] @ xc)))


def _frozen_extreme_support_values(xu, y, tol):
    from phaseiso import Functional

    space = xu.space
    u, yc = xu.coords, y.coords
    w, p = space._w, space.p
    if space.is_smooth_space:
        xn = xu.norm  # support_set's witness at xu
        g = Functional(w * np.sign(u) * np.abs(u) ** (p - 1.0) / xn ** (p - 1.0), space).coords
        return (g, float(np.dot(g, yc))), (g, float(np.dot(g, yc)))
    if p == 1.0:
        on = u != 0.0
        base = np.where(on, w * np.sign(u), 0.0)
        hi = np.where(on, base, w * np.sign(yc))
        lo = np.where(on, base, -w * np.sign(yc))
        return (hi, float(np.dot(hi, yc))), (lo, float(np.dot(lo, yc)))
    vals, active = _frozen_active_sets(space, u, tol)
    if space.functionals is None:  # p = inf
        rows = np.zeros((len(active), space.dim))
        rows[np.arange(len(active)), active] = w[active] * np.sign(u[active])
    else:
        rows = np.sign(vals[active])[:, None] * space.functionals[active]
    cand = [(g, float(np.dot(g, yc))) for g in rows]
    return max(cand, key=lambda t: t[1]), min(cand, key=lambda t: t[1])


def frozen_birkhoff_verdict(x, y, tol=None):
    """``orthogonality.birkhoff_verdict`` before it shared one face between its
    slopes and witness (a frozen copy): two ``directional_derivative`` calls, the
    second on ``-1.0 * y``, and ``_extreme_support_values`` on its own face."""
    from phaseiso import Functional, OrthogonalityVerdict, support_set
    from phaseiso.settings import DEFAULT_TOL

    tol = DEFAULT_TOL if tol is None else tol
    x._check_space(y)
    if x.is_zero or y.is_zero:
        witness = None if x.is_zero else support_set(x, tol).witness
        return OrthogonalityVerdict(True, 0.0, 0.0, 0.0, False, witness)
    xu = x.unit()
    fwd = frozen_directional_derivative(xu, y, tol)
    bwd = frozen_directional_derivative(xu, -1.0 * y, tol)
    margin = min(fwd, bwd)
    orthogonal = margin >= -tol.boundary
    near_tie = abs(margin) <= tol.boundary
    witness = None
    if orthogonal:
        (g_hi, v_hi), (g_lo, v_lo) = _frozen_extreme_support_values(xu, y, tol)
        if not (v_hi < -tol.boundary or v_lo > tol.boundary):
            if abs(v_hi - v_lo) <= tol.scaled(abs(v_hi) + abs(v_lo)):
                lam = 0.0
            else:
                lam = v_hi / (v_hi - v_lo)
            lam = min(max(lam, 0.0), 1.0)
            witness = Functional((1.0 - lam) * g_hi + lam * g_lo, xu.space)
    return OrthogonalityVerdict(orthogonal, fwd, bwd, margin, near_tie, witness)


def frozen_support_set(x, tol=None):
    """``spaces.support_set`` when it read the face at ``x`` itself (a frozen
    copy): the gradient at ``x`` over ``|x|``, the signs of ``x``, or the tied
    maxima of ``x`` under ``tol.scaled`` of their own magnitude."""
    from phaseiso import Functional, SupportDescription
    from phaseiso.settings import DEFAULT_TOL

    tol = DEFAULT_TOL if tol is None else tol
    if x.is_zero:
        raise ValueError("support_set is undefined at x = 0")
    space = x.space
    xc = x.coords
    w, p = space._w, space.p
    if space.is_smooth_space:
        xn = x.norm
        g = w * np.sign(xc) * np.abs(xc) ** (p - 1.0) / xn ** (p - 1.0)
        return SupportDescription(x, "singleton", Functional(g, space), True)
    if p == 1.0:
        on = xc != 0.0
        smooth = bool(np.all(on))
        return SupportDescription(x, "singleton" if smooth else "face",
                                  Functional(np.where(on, w * np.sign(xc), 0.0), space), smooth)
    vals, active = _frozen_active_sets(space, xc, tol)
    if space.functionals is None:  # p = inf
        i = int(active[0])
        g = np.zeros(space.dim)
        g[i] = w[i] * np.sign(xc[i])
        smooth = len(active) == 1
        return SupportDescription(x, "singleton" if smooth else "face",
                                  Functional(g, space), smooth)
    signed = np.sign(vals[active])[:, None] * space.functionals[active]
    distinct = [signed[0]]
    for row in signed[1:]:
        if all(np.max(np.abs(row - d)) > tol.scaled(1.0) for d in distinct):
            distinct.append(row)
    smooth = len(distinct) == 1
    return SupportDescription(x, "singleton" if smooth else "face",
                              Functional(distinct[0], space), smooth)


def frozen_supporting_functional(x, tol=None):
    """``orthogonality._supporting_functional``, the witness for ``y = 0`` and the
    hyperplane normal, before ``support_set`` chose its own reading point (a
    frozen copy): smooth lp and l1 read ``frozen_support_set`` at ``c'``, linf
    and polyhedral at the unit point."""
    from phaseiso import Vector
    from phaseiso.settings import DEFAULT_TOL
    from phaseiso.spaces import _unit_coords

    tol = DEFAULT_TOL if tol is None else tol
    space = x.space
    u, _, c, _ = _unit_coords(space, x.coords)
    if not space.is_smooth_space and space.p != 1.0:
        c = u
    return frozen_support_set(x if c is x.coords else Vector(c, space), tol).witness


def frozen_is_w_star_exposed(f, tol=None):
    """``spaces.is_w_star_exposed`` on a polyhedral space when every call solved
    the dual-norm LP first (a frozen copy): the unit check, then the exposure LP
    of each signed row near ``f``, both on the spec as it is."""
    from phaseiso import ExposedPoint, Vector, support_set
    from phaseiso.settings import DEFAULT_TOL
    from phaseiso.spaces import _highs_lp

    tol = DEFAULT_TOL if tol is None else tol
    space, c = f.space, f.coords
    a = space.functionals
    assert a is not None, "frozen_is_w_star_exposed covers polyhedral spaces"
    if not c.any():
        dn = -0.0
    else:
        k = int(np.frexp(np.max(np.abs(c)))[1]) - 1
        res = _highs_lp(-np.ldexp(c, -k), A_ub=np.vstack([a, -a]), b_ub=np.ones(2 * len(a)),
                        bounds=[(None, None)] * space.dim)
        if not res.success:
            raise ArithmeticError(f"dual norm LP failed: {res.message}")
        dn = float(np.ldexp(-res.fun, k))
    if abs(dn - 1.0) > 1e-6:
        raise ValueError(f"functional must have dual norm 1 (got {dn})")
    scale = np.max(np.abs(c))
    for i in range(len(a)):
        for s in (1.0, -1.0):
            if np.max(np.abs(c - s * a[i])) > tol.scaled(scale) * 1e3:
                continue
            others = a[np.minimum(np.max(np.abs(a - a[i]), axis=1),
                                  np.max(np.abs(a + a[i]), axis=1)) > 1e-12]
            n = space.dim
            ones = np.ones((len(others), 1))
            rows = np.vstack([np.hstack([others, ones]), np.hstack([-others, ones])])
            eq = np.hstack([s * a[i], 0.0])[None, :]
            res = _highs_lp(np.hstack([np.zeros(n), -1.0]), A_ub=rows, b_ub=np.ones(len(rows)),
                            A_eq=eq, b_eq=[1.0], bounds=[(None, None)] * n + [(None, 2.0)])
            if res.success and res.x[-1] > 1e-9:
                x = res.x[:n]
                x = x / space.norm_of(x)
                if support_set(Vector(x, space), tol).is_smooth:
                    return ExposedPoint(True, Vector(x, space))
    return ExposedPoint(False, None)
