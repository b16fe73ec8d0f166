import dataclasses
import math
import sys

import numpy as np
import pytest

import oracles
from phaseiso import (DEFAULT_TOL, CollinearityViolation, DecompositionCertificate,
                      LinearMap, MissingSamples, NormSpec, SignAssignment,
                      NotDecomposable, NotExposed, PhaseMapOracle, RangeDegenerate,
                      RouteUnsupported, SmoothnessFailure, SurjectivityNotDeclared,
                      canonical_ray, decompose, generate_isometry,
                      generate_phase_isometry, normalize_two_dim,
                      is_birkhoff_orthogonal, plan_queries,
                      recover_functional, recover_projective_linear, score_certificate,
                      Tolerances)
from conftest import zoo_ids
from phaseiso import harness, spaces
from phaseiso.decomposition import (_ROUTE_IMPL, ROUTES, _SIGN_PAIRS, _TWO_DIM_GRID,
                                    _assemble_certificate, _check_expansion, _pin_pairs,
                                    _seed_free_part, route_for)
from phaseiso.phase_maps import _interleaved, _row_keys, ray_key

L2_2 = NormSpec.lp(2, 2)
L2_4 = NormSpec.lp(4, 2)
L1_3 = NormSpec.lp(3, 1)
L1_4 = NormSpec.lp(4, 1)
LINF_3 = NormSpec.lp(3, float("inf"))
LINE = NormSpec.lp(1, 2)
LINF_2 = NormSpec.lp(2, float("inf"))


class GroupReads(dict):
    """The images of a plan's groups as the routes read them: a group is fetched
    with ``f.images`` the first time it is read, and ``read`` names the groups read."""

    def __init__(self, f, plan):
        super().__init__()
        self.f, self.plan, self.read = f, plan, []

    def __missing__(self, name):
        group = self.plan.probes[name]
        self.read.append(name)
        fx = self.f.images(group.reshape(-1, group.shape[-1]))
        self[name] = fx.reshape(group.shape[:-1] + fx.shape[1:])
        return self[name]


def sign_table_oracle(space, t_matrix, signs):
    """eps * T with eps looked up per canonical line representative."""
    def fn(c):
        key = tuple(np.round(canonical_ray(c, space), 9))
        return signs.get(key, 1) * (t_matrix @ c)
    return PhaseMapOracle.from_callable(space, space, fn, declared_surjective=True)


def distorted(space, seed):
    """A smooth nonlinear map, so that every sign pair has its own residual."""
    m = np.random.default_rng(seed).standard_normal((space.dim, space.dim))
    return PhaseMapOracle.from_callable(space, space, lambda c: m @ c + 0.05 * np.sin(3.0 * c))


PIN_SPACES = [NormSpec.lp(4, 1), NormSpec.lp(4, 1.5), NormSpec.lp(3, 2),
              NormSpec.lp(4, float("inf")), NormSpec.weighted_lp(3, 1, [1.0, 2.0, 0.5]),
              NormSpec.weighted_lp(3, 2.5, [1.0, 2.0, 0.5]),
              NormSpec.polyhedral(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])]
PIN_IDS = ["l1", "l1.5", "l2", "linf", "w-l1", "w-l2.5", "poly"]


def pin(f, X, Y, tol=DEFAULT_TOL):
    """``_pin_pairs`` on the pairs (X[k], Y[k]), with their images fetched in one
    ``images`` call in the order x0, y0, x0 + y0, x1, ...; per pair (alpha, beta,
    residual, tied), as ``oracles.scalar_pin`` returns them."""
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    F = f.images(_interleaved(X, Y, X + Y)).reshape(len(X), 3, f.codomain.dim)
    best, r_best, tied = _pin_pairs(f, X, Y, np.moveaxis(F, 1, 0), tol)
    return [(*_SIGN_PAIRS[i], r, t) for i, r, t in zip(best.tolist(), r_best.tolist(),
                                                        tied.tolist())]


def twins(make):
    """Two oracles from one factory: one for ``pin``, one for ``oracles.scalar_pin``."""
    return make(), make()


class TestPinPairs:
    """The pinning rule of the routes, ``_pin_pairs``, against the one-pair
    reference ``oracles.scalar_pin``."""

    def test_linear_map_pins_positive(self):
        f, g = twins(lambda: PhaseMapOracle.from_callable(L2_2, L2_2, lambda c: c.copy(),
                                                          declared_surjective=True))
        x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert pin(f, [x], [y]) == [(1, 1, 0.0, False)]
        assert oracles.scalar_pin(g, x, y, DEFAULT_TOL) == (1, 1, 0.0, False, True)

    def test_mixed_signs_recovered(self):
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])
        signs = {tuple(np.round(canonical_ray(x, L2_2), 9)): -1,
                 tuple(np.round(canonical_ray(y, L2_2), 9)): 1,
                 tuple(np.round(canonical_ray(x + y, L2_2), 9)): 1}
        f, g = twins(lambda: sign_table_oracle(L2_2, np.eye(2), signs))
        # f(x+y) = x + y while f(x) = -x, f(y) = y
        assert pin(f, [x], [y]) == [(-1, 1, 0.0, False)]
        assert oracles.scalar_pin(g, x, y, DEFAULT_TOL) == (-1, 1, 0.0, False, True)

    def test_unpinnable_map_raises(self):
        f, g = twins(lambda: PhaseMapOracle.from_callable(
            L2_2, L2_2, lambda c: c if abs(c[0] - 1.0) > 1e-12 or abs(c[1] - 1.0) > 1e-12
            else np.array([3.0, 0.1])))
        x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        with pytest.raises(NotDecomposable) as err:
            pin(f, [x], [y])
        *_, r, _, fits = oracles.scalar_pin(g, x, y, DEFAULT_TOL)
        assert not fits
        assert err.value.witness == [[1.0, 0.0], [0.0, 1.0]]
        assert str(err.value) == f"no sign combination reproduces f(x+y); best residual {r:.3e}"

    def test_parallel_images_tie_flagged(self):
        # equal images make (+1,-1) and (-1,+1) cancel identically: exact tie
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])

        def fn(c):
            if np.allclose(c, x) or np.allclose(c, y):
                return np.array([1.0, 0.0])
            return np.zeros(2)

        f, g = twins(lambda: PhaseMapOracle.from_callable(L2_2, L2_2, fn))
        (got,) = pin(f, [x], [y])
        assert got[2:] == (0.0, True)
        assert got + (True,) == oracles.scalar_pin(g, x, y, DEFAULT_TOL)

    @pytest.mark.parametrize("space", PIN_SPACES, ids=PIN_IDS)
    @pytest.mark.parametrize("kind", ["even", "uneven", "distorted"])
    def test_matches_scalar_reference(self, space, kind, rng):
        X, Y = rng.standard_normal((2, 12, space.dim))
        X[3], Y[3] = np.eye(space.dim)[0], np.eye(space.dim)[1]  # sparse rows too
        if kind == "distorted":
            f, g = distorted(space, 4), distorted(space, 4)
            tol = Tolerances(rel=1e3)  # let every pair fit, whatever its residual
        else:
            t = generate_isometry(space, 4)
            f, g = (generate_phase_isometry(t, 4, even=kind == "even") for _ in range(2))
            tol = DEFAULT_TOL
        pins = pin(f, X, Y, tol)
        want = [oracles.scalar_pin(g, x, y, tol) for x, y in zip(X, Y)]
        assert all(fits for *_, fits in want)
        assert pins == [w[:4] for w in want]
        assert all(type(r) is float for _, _, r, _ in pins)
        assert [p.tobytes() for p in f.query_log] == [p.tobytes() for p in g.query_log]

    def test_tie_with_plus_plus_falls_back_to_it(self):
        x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        images = {(1.0, 0.0): [1.0, 0.0], (0.0, 1.0): [0.0, 1e-10], (1.0, 1.0): [1.0, -1e-10]}
        f, g = twins(lambda: PhaseMapOracle.from_callable(
            L2_2, L2_2, lambda c: np.array(images[tuple(c)])))
        # (1, -1) fits exactly, (1, 1) comes within tol.tie of it
        (got,) = pin(f, [x], [y])
        assert got[:2] == (1, 1) and got[3]
        assert 0.0 < got[2] <= DEFAULT_TOL.tie
        assert got + (True,) == oracles.scalar_pin(g, x, y, DEFAULT_TOL)

    def test_tie_without_plus_plus_keeps_the_first_minimum(self):
        x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        fn = lambda c: np.zeros(2) if c[0] == c[1] else np.array([1.0, 0.0])  # noqa: E731
        f, g = twins(lambda: PhaseMapOracle.from_callable(L2_2, L2_2, fn))
        assert pin(f, [x], [y]) == [(1, -1, 0.0, True)]
        assert oracles.scalar_pin(g, x, y, DEFAULT_TOL) == (1, -1, 0.0, True, True)

    def test_earlier_failing_pair_is_the_witness(self, rng):
        X, Y = rng.standard_normal((2, 5, 4))
        f, g = twins(lambda: tampered(L2_4, 3, [X[3] + Y[3], X[1] + Y[1]], lambda fx: 1.5 * fx))
        with pytest.raises(NotDecomposable) as err:
            pin(f, X, Y)
        *_, r, _, fits = oracles.scalar_pin(g, X[1], Y[1], DEFAULT_TOL)
        assert not fits
        assert err.value.witness == [list(X[1]), list(Y[1])]
        assert str(err.value) == f"no sign combination reproduces f(x+y); best residual {r:.3e}"


def expand(monkeypatch, v, X):
    """Run ``_check_expansion`` for f(x) = v x on the rows of X, with column signs
    +1; return the coefficients of each least-squares call it makes, the images
    of X and the verdict (None when it passed)."""
    calls, real = [], np.linalg.lstsq

    def lstsq(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(out[0])
        return out

    f = PhaseMapOracle.from_callable(NormSpec.lp(v.shape[1], 1), NormSpec.lp(v.shape[0], 1),
                                     lambda c: v @ c)
    verdict = None
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "lstsq", lstsq)
        try:
            _check_expansion(f, v, np.ones(v.shape[1]), X, f.images(X), DEFAULT_TOL)
        except NotDecomposable as exc:
            verdict = str(exc)
    return calls, f.images(X), verdict


class TestExpansion:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 64])
    @pytest.mark.parametrize("kind", ["generic", "signed-permutation"])
    def test_one_solve_fits_every_row(self, n, kind, rng, monkeypatch):
        """One least-squares call expands every row: B v^T = FX to within
        1e-12 cond(v) (1 + max|FX|), whatever the shape of the batch."""
        for _ in range(5):
            if kind == "generic":
                v = rng.standard_normal((n, n))
            else:
                v = np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], size=n)
            X = rng.standard_normal((30, n))
            calls, FX, verdict = expand(monkeypatch, v, X)
            assert len(calls) == 1 and calls[0].shape == (n, len(X))
            B = calls[0].T
            bound = 1e-12 * np.linalg.cond(v) * (1.0 + np.max(np.abs(FX)))
            assert np.max(np.abs(B @ v.T - FX)) <= bound
            if kind == "signed-permutation":  # an l1 isometry expands with coefficients x
                assert verdict is None

    def test_non_square_basis_images_use_least_squares(self, rng, monkeypatch):
        # l1^3 embedded in l1^5: the basis images are a 5 x 3 frame
        v = np.zeros((5, 3))
        v[[4, 0, 2], [0, 1, 2]] = [1.0, -1.0, 1.0]
        X = rng.standard_normal((7, 3))
        calls, FX, verdict = expand(monkeypatch, v, X)
        assert len(calls) == 1 and verdict is None
        want = np.array([np.linalg.lstsq(v, fx, rcond=None)[0] for fx in FX])
        assert np.max(np.abs(calls[0].T - want)) <= 1e-15 * (1.0 + np.max(np.abs(X)))
        off = np.zeros(5)
        off[1] = 1e-3  # a direction outside the frame
        f = PhaseMapOracle.from_callable(NormSpec.lp(3, 1), NormSpec.lp(5, 1),
                                         lambda c: v @ c + off)
        with pytest.raises(NotDecomposable, match="outside the span"):
            _check_expansion(f, v, np.ones(3), X, f.images(X), DEFAULT_TOL)

    def test_earlier_failing_probe_is_the_witness(self):
        probes = plan_queries(L1_3, "l1", 2).probes["randoms"]
        f = tampered(L1_3, 2, [probes[5], probes[2]], lambda fx: 1.01 * fx)
        with pytest.raises(NotDecomposable, match="magnitude bookkeeping") as err:
            decompose(f, seed=2)
        assert err.value.witness == list(probes[2])


class TestScaleChecks:
    def test_earlier_homogeneity_failure_is_the_witness(self):
        hom = plan_queries(L2_4, "smooth", 1).probes["homogeneity"]  # (x, t x), e_0 first
        f = tampered(L2_4, 1, [hom[5, 1], hom[3, 1]], lambda fx: 1.01 * fx)
        g = tampered(L2_4, 1, [hom[5, 1], hom[3, 1]], lambda fx: 1.01 * fx)
        with pytest.raises(NotDecomposable) as err:
            decompose(f, seed=1)
        base, point = hom[3]
        t = 3.0  # the fourth t of the grid (0.5, 2.0, -1.0, 3.0)
        assert np.array_equal(point, t * base)
        r = min(L2_4.norm_of(g(point) - t * g(base)), L2_4.norm_of(g(point) + t * g(base)))
        assert err.value.witness == [t, list(base)]
        assert str(err.value) == f"homogeneity fails at t={t} (residual {r:.3e})"


class TestNormalizeTwoDim:
    def test_round_trip_certifies(self):
        for seed in range(10):
            t = generate_isometry(L2_2, seed)
            f = generate_phase_isometry(t, seed)
            norm2 = normalize_two_dim(f)
            assert set(norm2.products.values()) == {norm2.pi}
            # the derived map is a linear isometry matching f up to signs
            assert norm2.linear.verify_isometric(seed) <= 1e-9

    def test_products_are_exact_signs(self):
        f = generate_phase_isometry(generate_isometry(L2_2, 3), 3)
        norm2 = normalize_two_dim(f)
        for v in norm2.products.values():
            assert v in (-1, 1)

    def test_unit_grid_point_trivially_consistent(self):
        f = generate_phase_isometry(generate_isometry(L2_2, 3), 3)
        norm2 = normalize_two_dim(f)
        assert norm2.products[1.0] == norm2.pi

    def test_adversarial_component_flip_detected(self):
        # corrupt only the x-component sign of the image on the a = 2 ray
        t = np.eye(2)
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        bad_rep = canonical_ray(2.0 * e1 + e2, L2_2)

        def fn(c):
            if np.allclose(c, bad_rep, atol=1e-12):
                z = 2.0 * e1 + e2
                flipped = (-2.0 * e1 + e2) / L2_2.norm_of(z)
                return flipped
            return c.copy()

        f = PhaseMapOracle.from_callable(L2_2, L2_2, fn, declared_surjective=True)
        with pytest.raises(NotDecomposable) as err:
            normalize_two_dim(f)
        kind, a, *_ = err.value.witness
        assert kind == "product"
        assert a == 2.0

    def test_requires_two_dimensions(self):
        f = PhaseMapOracle.from_callable(L1_3, L1_3, lambda c: c.copy())
        with pytest.raises(RouteUnsupported):
            normalize_two_dim(f)

    def test_oracle_view_is_linear(self, rng):
        f = generate_phase_isometry(generate_isometry(L2_2, 5), 5)
        norm2 = normalize_two_dim(f)

        def g(c):
            return norm2.linear.matrix @ c

        for _ in range(20):
            a, b = rng.standard_normal(2)
            x, y = rng.standard_normal(2), rng.standard_normal(2)
            left = g(a * x + b * y)
            right = a * g(x) + b * g(y)
            assert np.allclose(left, right, atol=1e-12)


class TestProjectiveRecovery:
    def test_ray_map_recovers_matrix(self):
        t = generate_isometry(L2_4, 17)
        f = generate_phase_isometry(t, 17)
        plan = plan_queries(L2_4, "smooth", 17)
        lin = recover_projective_linear(f, plan)
        err = min(np.max(np.abs(lin.matrix - s * t.matrix)) for s in (1.0, -1.0))
        assert err <= 1e-12

    def test_one_dimension_rejected(self):
        f = PhaseMapOracle.from_callable(LINE, LINE, lambda c: c.copy())
        plan = plan_queries(L2_4, "smooth", 0)
        with pytest.raises(RouteUnsupported):
            recover_projective_linear(
                PhaseMapOracle.from_callable(LINE, LINE, lambda c: c.copy()), plan)

    def test_rank_collapse_detected(self):
        # every image lands in a two-dimensional subspace
        def fn(c):
            return np.array([c[0], c[1], 0.0, 0.0])

        f = PhaseMapOracle.from_callable(L2_4, L2_4, fn, declared_surjective=True)
        plan = plan_queries(L2_4, "smooth", 0)
        with pytest.raises(RangeDegenerate):
            recover_projective_linear(f, plan)

    def test_collinearity_violation_detected(self):
        t = np.eye(4)
        ones = np.ones(4)

        def fn(c):
            if np.allclose(c, ones):
                return c + np.array([0.5, -0.5, 0.0, 0.0])
            return t @ c

        f = PhaseMapOracle.from_callable(L2_4, L2_4, fn, declared_surjective=True)
        plan = plan_queries(L2_4, "smooth", 0)
        with pytest.raises(CollinearityViolation):
            recover_projective_linear(f, plan)


class TestRecoverFunctional:
    def test_round_trip_p3(self, rng):
        space = NormSpec.lp(3, 3)
        t = generate_isometry(space, 23)
        f = generate_phase_isometry(t, 23)
        x_star = space.functional([1.0, 0.0, 0.0])
        verify = [rng.standard_normal(3) for _ in range(100)]
        rec = recover_functional(f, x_star, verify_points=verify)
        assert space.dual_norm_of(rec.phi.coords) == pytest.approx(1.0, abs=1e-9)
        # phi must read off |x_1| through f
        expected = np.abs(t.matrix @ np.array([1.0, 0.0, 0.0]))
        assert np.allclose(np.abs(rec.phi.coords), expected, atol=1e-9)
        assert rec.max_deviation <= 1e-8
        assert rec.stabilized_at <= 2.0 ** 5

    def test_identity_returns_x_star(self, rng):
        space = NormSpec.lp(4, 2)
        f = PhaseMapOracle.from_callable(space, space, lambda c: c.copy())
        c = rng.standard_normal(4)
        c /= space.dual_norm_of(c)
        rec = recover_functional(f, space.functional(c),
                                 verify_points=[rng.standard_normal(4) for _ in range(50)])
        assert np.allclose(rec.phi.coords, c, atol=1e-9)
        assert all(s == 1 for s in rec.sign_pattern)

    def test_one_dimensional_domain(self):
        f = PhaseMapOracle.from_callable(LINE, LINE, lambda c: c * (1 if c[0] >= 0 else -1))
        rec = recover_functional(f, LINE.functional([1.0]),
                                 verify_points=[np.array([t]) for t in (-3.0, -1.0, 0.5, 2.0)])
        for v in (np.array([4.0]), np.array([-2.5])):
            assert abs(abs(rec.phi(f(v))) - abs(v[0])) <= 1e-9

    def test_not_exposed_rejected(self):
        f = PhaseMapOracle.from_callable(L1_3, L1_3, lambda c: c.copy())
        with pytest.raises(NotExposed):
            recover_functional(f, L1_3.functional([1.0, 1.0, 0.0]))

    def test_nonsmooth_image_reported(self):
        # image of every schedule point has a tied sup-norm maximum
        f = PhaseMapOracle.from_callable(
            L2_2, LINF_2, lambda c: np.array([c[0], c[0]]) if abs(c[1]) < 1e-9 else c.copy())
        with pytest.raises(SmoothnessFailure) as err:
            recover_functional(f, L2_2.functional([1.0, 0.0]))
        assert err.value.t >= 1.0

    @pytest.mark.parametrize("row", range(4))
    def test_polyhedral_lemma_solves_one_lp(self, row, rng, monkeypatch):
        """On a polyhedral codomain the witnesses at f(u) and f(2u) are one signed
        facet functional, so the stop rule's dual norm is of zero and solves no LP.
        An x* that is a signed row, bit for bit, is proved unit by its exposure
        LP, which is solved once per facet: the first lemma on a signed row
        solves that one LP, a repeat on an equal spec built apart solves none,
        and a near row still takes the unit check's dual-norm LP on every call."""
        rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
        calls, highs = [], spaces._highs_lp

        def counted(c, **constraints):
            calls.append(c)
            return highs(c, **constraints)
        monkeypatch.setattr(spaces, "_highs_lp", counted)
        spaces._facet_point.cache_clear()
        for sign in (1.0, -1.0):
            for seed in (0, 1):
                for stretch, lps in ((1.0, 1 - seed), (1.0 + 2.0 ** -40, 1)):
                    space = NormSpec.polyhedral(3, rows)
                    f = generate_phase_isometry(generate_isometry(space, seed), seed)
                    x_star = space.functional(sign * stretch * space.functionals[row])
                    verify = [rng.standard_normal(3) for _ in range(20)]
                    calls.clear()
                    rec = recover_functional(f, x_star, verify_points=verify)
                    assert len(calls) == lps
                    assert rec.trace == [(2.0, -0.0)]
                    assert math.copysign(1.0, rec.trace[0][1]) == -1.0

    def test_nan_deviation_fails(self):
        """x*(x) and phi(f(x)) both overflow at x = (3, 0.5) on a space scaled
        near 1e308; their NaN deviation fails the check, as a NaN residual
        fails the replay."""
        space = NormSpec.weighted_lp(2, math.inf, [1e308, 1e308])
        verify = [np.array([0.25, 0.5]), np.array([3.0, 0.5])]
        with np.errstate(over="ignore", invalid="ignore"):
            f = generate_phase_isometry(generate_isometry(space, 0), 0)
            with pytest.raises(NotDecomposable, match="disagree by nan") as err:
                recover_functional(f, space.functional([1e308, 0.0]), verify_points=verify)
        assert err.value.witness == [3.0, 0.5]

    def test_sign_pattern_matches_hidden_signs(self, rng):
        space = NormSpec.lp(2, 2)
        t = generate_isometry(space, 29)
        f = generate_phase_isometry(t, 29)
        x_star = space.functional([1.0, 0.0])
        verify = [rng.standard_normal(2) for _ in range(50)]
        rec = recover_functional(f, x_star, verify_points=verify)
        for v, s in zip(verify, rec.sign_pattern):
            lhs = x_star(v)
            rhs = rec.phi(f(v))
            if abs(lhs) > 1e-9:
                assert lhs == pytest.approx(s * rhs, rel=1e-8)


class TestDecompose:
    @pytest.mark.parametrize("space,route", [
        (NormSpec.lp(1, 2), "one_dim"),
        (NormSpec.lp(2, 2), "smooth"),
        (NormSpec.lp(5, 1.5), "smooth"),
        (NormSpec.lp(3, 1), "l1"),
        (NormSpec.lp(3, float("inf")), "linf"),
        (NormSpec.weighted_lp(3, 2.0, [1.0, 0.5, 2.0]), "smooth"),
        (NormSpec.polyhedral(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]), "generic"),
    ])
    def test_round_trip_routes(self, space, route):
        for seed in (1, 2, 3):
            t = generate_isometry(space, seed)
            f = generate_phase_isometry(t, seed)
            cert = decompose(f, seed=seed)
            assert cert.route == route
            score = score_certificate(f, cert)
            assert score["t_error"] <= 1e-9
            assert score["eps_consistent"]
            assert cert.residual_max <= 1e-9
            assert cert.max_equation_discrepancy <= 1e-10
            assert cert.surjectivity == "declared"

    def test_certificate_replays_every_query(self):
        f = generate_phase_isometry(generate_isometry(L1_3, 4), 4)
        cert = decompose(f, seed=4)
        for x in f.query_log:
            assert np.allclose(cert.reconstruct(x), f(x), atol=1e-9)

    def test_global_sign_normalized(self):
        for seed in range(6):
            f = generate_phase_isometry(generate_isometry(L2_4, seed), seed)
            cert = decompose(f, seed=seed)
            col = cert.T.matrix[:, 0]
            first = col[np.nonzero(np.abs(col) > 1e-9)[0][0]]
            assert first > 0

    def test_surjectivity_must_be_declared(self):
        f = generate_phase_isometry(generate_isometry(L1_3, 8), 8)
        f.declared_surjective = False
        with pytest.raises(SurjectivityNotDeclared):
            decompose(f, seed=8)
        cert = decompose(f, seed=8, force=True)
        assert cert.surjectivity == "forced"

    def test_route_mismatch_rejected(self):
        f = generate_phase_isometry(generate_isometry(L1_3, 8), 8)
        with pytest.raises(RouteUnsupported):
            decompose(f, route="linf", seed=8)
        with pytest.raises(RouteUnsupported):
            decompose(f, route="one_dim", seed=8)

    def test_sine_curve_not_decomposable_on_forced_one_dim(self):
        f = PhaseMapOracle.from_callable(
            LINE, LINF_2, lambda c: np.array([c[0], math.sin(c[0])]))
        with pytest.raises(SurjectivityNotDeclared):
            decompose(f, route="one_dim", seed=0)
        with pytest.raises(NotDecomposable) as err:
            decompose(f, route="one_dim", seed=0, force=True)
        assert err.value.witness is not None

    def test_sign_tampered_probe_detected(self):
        # corrupting one planned probe answer must surface as a witness
        space = L1_3
        t = generate_isometry(space, 6)
        base = generate_phase_isometry(t, 6)
        ones = np.ones(3)

        def fn(c):
            if np.allclose(c, ones):
                return 2.0 * base(c)
            return base(c)

        f = PhaseMapOracle.from_callable(space, space, fn, declared_surjective=True)
        with pytest.raises(NotDecomposable):
            decompose(f, seed=6)

    def test_incoherent_pair_signs_detected(self):
        # flip the sign of f only at e_1 + e_2 image of a smooth-space oracle:
        # pinning still succeeds pointwise, so the certificate must catch it
        # via the replay of the full log or the triangle coherence
        space = L2_4
        t = generate_isometry(space, 9)
        base = generate_phase_isometry(t, 9)
        probe = np.array([1.0, 1.0, 0.0, 0.0])

        def fn(c):
            if np.allclose(c, probe):
                return base(c) + 0.3 * base(np.array([0.0, 0.0, 1.0, 0.0]))
            return base(c)

        f = PhaseMapOracle.from_callable(space, space, fn, declared_surjective=True)
        with pytest.raises(NotDecomposable):
            decompose(f, seed=9)


POLY_3 = NormSpec.polyhedral(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])


def family(name, n):
    """The ``tests/conftest.py`` space family ``name`` in dimension n."""
    w = [1.0, 2.0, 0.5][:n]
    inf = float("inf")
    return {
        "l1": NormSpec.lp(n, 1),
        "l1.5": NormSpec.lp(n, 1.5),
        "l2": NormSpec.lp(n, 2),
        "l3": NormSpec.lp(n, 3),
        "linf": NormSpec.lp(n, inf),
        "w-l1": NormSpec.weighted_lp(n, 1, w),
        "w-l2.5": NormSpec.weighted_lp(n, 2.5, w),
        "w-linf": NormSpec.weighted_lp(n, inf, w),
        "poly": NormSpec.polyhedral(n, np.vstack([np.eye(n), np.ones(n)])),
    }[name]


# The routes each family accepts from dimension 2 on, the one ``auto``
# resolves to first; every one-dimensional space takes ``one_dim`` alone.
ACCEPTED_ROUTES = {
    "l1": ("l1", "generic"),
    "l1.5": ("smooth", "generic"),
    "l2": ("smooth", "generic"),
    "l3": ("smooth", "generic"),
    "linf": ("linf", "generic"),
    "w-l1": ("generic",),
    "w-l2.5": ("smooth", "generic"),
    "w-linf": ("generic",),
    "poly": ("generic",),
}


class TestRouteApplicability:
    def test_table_covers_every_family(self):
        assert sorted(ACCEPTED_ROUTES) == sorted(zoo_ids())

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", zoo_ids())
    def test_matrix(self, name, n):
        space = family(name, n)
        accepted = ACCEPTED_ROUTES[name] if n >= 2 else ("one_dim",)
        assert route_for(space) == accepted[0]
        assert plan_queries(space, "auto").route == accepted[0]
        for route in (r for r in ROUTES if r != "auto"):
            if route in accepted:
                assert plan_queries(space, route).route == route
            else:
                with pytest.raises(RouteUnsupported):
                    plan_queries(space, route)

    def test_unknown_route(self):
        with pytest.raises(RouteUnsupported, match="unknown route"):
            plan_queries(L2_2, "bogus")


def tampered(space, seed, at, image):
    """The generated eps * T oracle with the answers at the points ``at`` replaced."""
    base = generate_phase_isometry(generate_isometry(space, seed), seed)

    def fn(c):
        for p in at:
            if np.array_equal(c, p):
                return image(base(c))
        return base(c)

    return PhaseMapOracle.from_callable(space, space, fn, declared_surjective=True)


class TestCertificateReplay:
    def test_first_failing_logged_query_is_the_witness(self):
        # scaling an image keeps it on its line, so only the replay sees it
        space = NormSpec.lp(3, 2)
        probes = plan_queries(space, "smooth", 5).probes["verify"]
        f = tampered(space, 5, [probes[7], probes[3]], lambda fx: (1.0 + 1e-3) * fx)
        with pytest.raises(NotDecomposable,
                           match=r"^logged query is not reproduced by the factorization "
                                 r"\(residual \d\.\d{3}e[+-]\d\d\)$") as err:
            decompose(f, seed=5)
        assert err.value.witness == list(probes[3])

    @pytest.mark.parametrize("space", [NormSpec.lp(3, 2), NormSpec.lp(4, 1.5), POLY_3],
                             ids=["l2", "l1.5", "poly"])
    def test_non_finite_image_is_never_certified(self, space):
        route = route_for(space)
        probe = plan_queries(space, route, 0).probes["verify"][3]
        f = tampered(space, 0, [probe], lambda fx: np.full_like(fx, np.nan))
        with pytest.raises(ValueError, match="non-finite"):
            decompose(f, seed=0)

    def test_nan_residual_fails_the_replay(self):
        space = NormSpec.lp(3, 2)
        f = generate_phase_isometry(generate_isometry(space, 2), 2)
        cert = decompose(f, seed=2)
        logged = f.query_log[10]
        f._cache[_row_keys(logged[None])[0]] = np.full(3, np.nan)
        plan = plan_queries(space, "smooth", 2)
        with pytest.raises(NotDecomposable, match="residual nan") as err:
            _assemble_certificate(f, cert.T.matrix, "smooth", plan, GroupReads(f, plan),
                                  DEFAULT_TOL, {})
        assert err.value.witness == list(logged)


class TestColumnSignChain:
    """f(e_i + e_j) replaced by T e_i - T e_j flips the sign product of the pair (i, j)."""

    @pytest.mark.parametrize("pairs,witness", [
        ([(1, 2)], [1, 2]),
        ([(1, 2), (2, 3)], [1, 2]),  # two incoherent pairs: the earlier one in triu order
        ([(0, 1)], [1, 2]),  # a flipped column sign: every pair (1, j) is incoherent
        ([(0, 1), (1, 2)], [1, 3]),
    ], ids=["12", "12+23", "01", "01+12"])
    @pytest.mark.parametrize("p", [float("inf"), 1.0, 2.0], ids=["linf", "l1", "l2"])
    def test_first_incoherent_pair_is_the_witness(self, p, pairs, witness):
        space = NormSpec.lp(4, p)
        t, e = generate_isometry(space, 3), np.eye(4)
        base = generate_phase_isometry(t, 3)
        swapped = {tuple(e[i] + e[j]): t.matrix @ (e[i] - e[j]) for i, j in pairs}
        f = PhaseMapOracle.from_callable(space, space, lambda c: swapped.get(tuple(c), base(c)),
                                         declared_surjective=True)
        with pytest.raises(NotDecomposable,
                           match="^pairwise sign products are incoherent across basis "
                                 "triples$") as err:
            decompose(f, seed=3)
        assert err.value.witness == witness
        assert all(type(v) is int for v in err.value.witness)


def embedded(seed, at, answer):
    """The generated eps * T oracle on L1_3, padded with a zero fourth
    coordinate into L1_4, answering ``answer(c, eps * T)`` at the points ``at``."""
    base = generate_phase_isometry(generate_isometry(L1_3, seed), seed)

    def fn(c):
        if any(np.array_equal(c, p) for p in at):
            return answer(c, base)
        return np.append(base(c), 0.0)

    return PhaseMapOracle.from_callable(L1_3, L1_4, fn, declared_surjective=True)


class TestRejectionWitnesses:
    """Each rejection, reached through a tampered oracle, names its witness;
    where two points are tampered, the earlier one in query order is it."""

    def test_vanishing_schedule_image(self):
        space = NormSpec.lp(3, 3)
        x_star, u = plan_queries(space, "smooth", 0).schedules["coord0"]
        f = tampered(space, 0, [2.0 * u.coords], lambda fx: 0.0 * fx)
        with pytest.raises(SmoothnessFailure,
                           match=r"^f vanished on the schedule at t=2\.0$") as err:
            recover_functional(f, x_star, exposing_point=u)
        assert err.value.t == 2.0

    def test_two_dim_grid_pin(self):
        e1, e2 = np.eye(2)
        reps = [canonical_ray(a * e1 + e2, L2_2) for a in _TWO_DIM_GRID]
        f = tampered(L2_2, 0, [reps[7], reps[4]], lambda fx: 1.01 * fx)
        a = _TWO_DIM_GRID[4]
        assert a == 0.0625
        with pytest.raises(NotDecomposable, match=r"^sign pinning failed on the normalization "
                                                  r"grid at a=0\.0625$") as err:
            normalize_two_dim(f)
        # the grid image is 1.01 times +-T(a e1 + e2), so the best fit misses by 0.01 |a e1 + e2|
        kind, at, residual = err.value.witness
        assert (kind, at) == ("grid", a)
        assert residual == pytest.approx(0.01 * L2_2.norm_of(a * e1 + e2), rel=1e-9)

    def test_all_ones_probe_outside_the_basis_span(self):
        space = NormSpec.lp(3, 2)
        plan = plan_queries(space, "smooth", 0)
        ones = plan.probes["ones"][0]

        def fn(c):
            return np.append(c, 0.5 if np.array_equal(c, ones) else 0.0)

        f = PhaseMapOracle.from_callable(space, L2_4, fn, declared_surjective=True)
        with pytest.raises(CollinearityViolation,
                           match="^image of the all-ones probe is not in the span of the "
                                 "basis images$") as err:
            recover_projective_linear(f, plan)
        assert err.value.witness == [1.0, 1.0, 1.0]

    def test_fresh_pair_of_a_non_isometric_factor(self):
        # T stretched along e_3 is an isometry on pairs without an e_3 part;
        # only pairs 3 and 5 of the fresh pairs have one
        t = generate_isometry(L2_4, 0)
        f = generate_phase_isometry(t, 0)
        plan = plan_queries(L2_4, "smooth", 0)
        pairs = plan.probes["fresh_pairs"].copy()
        pairs[:, :, 3] = 0.0
        pairs[5, 1, 3], pairs[3, 0, 3] = 1.0, -1.0
        plan = dataclasses.replace(plan, probes={**plan.probes, "fresh_pairs": pairs})
        with pytest.raises(NotDecomposable,
                           match="^reconstructed map violates the defining equation on a "
                                 "fresh pair$") as err:
            _assemble_certificate(f, t.matrix @ np.diag([1.0, 1.0, 1.0, 1.01]), "smooth",
                                  plan, GroupReads(f, plan), DEFAULT_TOL, {})
        assert err.value.witness == [list(pairs[3, 0]), list(pairs[3, 1])]

    def test_linf_functional_alignment(self):
        e = np.eye(3)
        f = tampered(LINF_3, 0, [e[2], e[1]], lambda fx: 1.01 * fx)
        with pytest.raises(NotDecomposable,
                           match=r"^aligned coordinate functionals do not separate the basis "
                                 r"images \(phi_1\(f\(e_1\)\) = 1\.010e\+00\)$") as err:
            decompose(f, seed=0)
        assert err.value.witness == [1, 1]

    def test_l1_basis_ray_scaling(self):
        rays = plan_queries(L1_3, "l1", 0).probes["basis_rays"]  # rows (e_i, t e_i), i major
        assert np.array_equal(rays[6, 1], -1.0 * rays[6, 0]) and rays[6, 0, 1] == 1.0
        f = tampered(L1_3, 0, [rays[8, 1], rays[6, 1]], lambda fx: 1.01 * fx)
        with pytest.raises(NotDecomposable,
                           match=r"^f\(t e_1\) is not \+- t f\(e_1\) at t=-1\.0$") as err:
            decompose(f, seed=0)
        assert err.value.witness == [1, -1.0]

    def test_l1_additive_identity(self):
        # the ray of e_2 goes to the direction (f(e_1) + f(e_2)) / 2: it scales
        # correctly, but overlaps f(e_1), so the probe pair (1, 2) breaks first
        e = np.eye(4)

        def oracle():
            base = generate_phase_isometry(generate_isometry(L1_4, 0), 0)
            w = (base(e[1]) + base(e[2])) / 2.0
            return PhaseMapOracle.from_callable(
                L1_4, L1_4, lambda c: base(c) if np.delete(c, 2).any() else c[2] * w,
                declared_surjective=True)

        g = oracle()
        a, b = g(2.0 * e[1]), g(e[2])
        got = [v for v in (L1_4.norm_of(a + b), L1_4.norm_of(a - b))
               if abs(v - 3.0) > DEFAULT_TOL.scaled(3.0)]
        with pytest.raises(NotDecomposable) as err:
            decompose(oracle(), seed=0)
        assert str(err.value) == ("disjointly supported basis probes lost the additive norm "
                                  f"identity ({got[0]} != 3)")
        assert err.value.witness == [1, 2]

    def test_expansion_outside_the_span(self):
        randoms = plan_queries(L1_3, "l1", 2).probes["randoms"]
        f = embedded(2, [randoms[5], randoms[2]], lambda c, base: np.append(base(c), 0.5))
        with pytest.raises(NotDecomposable,
                           match="^f\\(x\\) is outside the span of the basis images$") as err:
            decompose(f, seed=2)
        assert err.value.witness == list(randoms[2])

    def test_expansion_signs_incoherent(self):
        randoms = plan_queries(L1_3, "l1", 2).probes["randoms"]
        f = embedded(2, [randoms[5], randoms[2]],
                     lambda c, base: np.append(base(c * [1.0, 1.0, -1.0]), 0.0))
        with pytest.raises(NotDecomposable,
                           match="^expansion signs are incoherent with the basis sign "
                                 "chain$") as err:
            decompose(f, seed=2)
        assert err.value.witness == list(randoms[2])

    def test_expansion_norm_bookkeeping(self):
        # a lift below the span bound adds it twice to |f(x) + b v| + |f(x) - b v|;
        # the rows of basis_pairs are e0 + e1, e0 + e2, e1 + e2
        pairs = plan_queries(L1_3, "l1", 2).probes["basis_pairs"]
        lift = 0.75 * DEFAULT_TOL.scaled(2.0)
        f = embedded(2, [pairs[2]], lambda c, base: np.append(base(c), lift))
        with pytest.raises(NotDecomposable,
                           match="^norm bookkeeping identity fails for a support "
                                 "coordinate$") as err:
            decompose(f, seed=2)
        assert err.value.witness == [[0.0, 1.0, 1.0], 1]


class TestBatchedWitnesses:
    def test_earlier_collinearity_failure_is_the_witness(self):
        plan = plan_queries(L2_4, "smooth", 0)
        probes = plan.probes["verify"]
        push = np.array([0.5, -0.5, 0.0, 0.0])
        f = tampered(L2_4, 0, [probes[7], probes[3]], lambda fx: fx + push)
        with pytest.raises(CollinearityViolation) as err:
            recover_projective_linear(f, plan)
        assert err.value.witness == list(probes[3])
        # the message carries the sine of the old per-probe formula
        a = recover_projective_linear(generate_phase_isometry(generate_isometry(L2_4, 0), 0),
                                      plan).matrix
        ax, fx = a @ probes[3], f(probes[3])
        unit = fx / np.linalg.norm(fx)
        sine = np.linalg.norm(ax - np.dot(ax, unit) * unit) / np.linalg.norm(ax)
        assert str(err.value) == f"probe image left the predicted line (sine residual {sine:.3e})"

    def test_earlier_functional_deviation_is_the_witness(self, rng):
        space = NormSpec.lp(3, 3)
        x_star = space.functional([1.0, 0.0, 0.0])
        verify = [v for v in 2.0 * rng.standard_normal((40, 3)) if abs(v[0]) > 0.5][:10]
        f = tampered(space, 8, [verify[7], verify[3]], lambda fx: 1.01 * fx)
        with pytest.raises(NotDecomposable,
                           match=r"^\|x\*\(x\)\| and \|phi\(f\(x\)\)\| disagree by "
                                 r"\d\.\d{3}e[+-]\d\d$") as err:
            recover_functional(f, x_star, verify_points=verify)
        assert err.value.witness == list(verify[3])
        g = tampered(space, 8, [verify[7], verify[3]], lambda fx: 1.01 * fx)
        phi = recover_functional(g, x_star).phi
        _, _, (k, dev) = oracles.scalar_functional_check(g, x_star, phi, verify, DEFAULT_TOL)
        assert k == 3 and str(err.value) == f"|x*(x)| and |phi(f(x))| disagree by {dev:.3e}"

    @pytest.mark.parametrize("space,coords,even", [
        (NormSpec.lp(3, 3), [1.0, 0.0, 0.0], True),
        (NormSpec.lp(4, 1), [1.0, -1.0, 1.0, 1.0], False),
        (NormSpec.lp(3, float("inf")), [0.0, 1.0, 0.0], True),
        (NormSpec.weighted_lp(3, 2.5, [1.0, 2.0, 0.5]), [0.3, -0.8, 0.5], False),
        (POLY_3, [1.0, 1.0, 1.0], True),
    ], ids=["l3", "l1-uneven", "linf", "w-l2.5-uneven", "poly"])
    def test_recovery_matches_scalar_reference(self, space, coords, even, rng):
        c = np.asarray(coords) / space.dual_norm_of(np.asarray(coords))
        x_star = space.functional(c)
        verify = [rng.standard_normal(space.dim) for _ in range(60)]
        t = generate_isometry(space, 6)
        f, g = (generate_phase_isometry(t, 6, even=even) for _ in range(2))
        rec = recover_functional(f, x_star, verify_points=verify)
        base = recover_functional(g, x_star)
        signs, worst, failure = oracles.scalar_functional_check(g, x_star, base.phi, verify,
                                                                DEFAULT_TOL)
        assert failure is None
        assert rec.to_dict() == {**base.to_dict(), "sign_pattern": signs,
                                 "max_deviation": worst}
        assert [p.tobytes() for p in f.query_log] == [p.tobytes() for p in g.query_log]


def coordinate_times(pick, factor):
    """An image edit: multiply the coordinate that ``pick`` chooses from |f(x)| by ``factor``."""
    def edit(fx):
        out = fx.copy()
        out[pick(np.abs(fx))] *= factor
        return out
    return edit


class TestLinfSignMap:
    """The linf route's sign-map checks (step 2) as row masks against the
    per-probe loop they replaced, ``oracles.scalar_linf_sign_map``: the first
    failing probe, at its first failing check, is the witness."""

    UNIT = "sign-map identity (unit vs scaled) fails"
    PAIR = "sign-map identity (scaled vs original) fails"
    LOST = "image of a sign vector lost unit coordinates"
    SIGNS = "coordinate signs of f(x) disagree with the image of the sign vector"

    def run(self, seed, edits, tol=DEFAULT_TOL):
        """Decompose the generated oracle with ``edits``, (point, image edit)
        pairs, applied; return the reference's failures on a second copy."""
        def oracle():
            base = generate_phase_isometry(generate_isometry(LINF_3, seed), seed)

            def fn(c):
                for p, edit in edits:
                    if np.array_equal(c, p):
                        return edit(base(c))
                return base(c)
            return PhaseMapOracle.from_callable(LINF_3, LINF_3, fn, declared_surjective=True)

        plan = plan_queries(LINF_3, "linf", seed, tol)
        g = oracle()
        w = np.vstack([recover_functional(g, x_star, plan.probes["randoms"], u, tol).phi.coords
                       for x_star, u in plan.schedules.values()])
        failures = oracles.scalar_linf_sign_map(g, plan.probes["sign_vectors"], w, tol)
        with pytest.raises(NotDecomposable) as err:
            decompose(oracle(), seed=seed, tol=tol)
        assert failures, "the edits broke no sign-map check"
        _, message, witness = failures[0]
        assert (str(err.value), err.value.witness) == (message, witness)
        return failures

    def test_unit_identity(self):
        sv = plan_queries(LINF_3, "linf", 3).probes["sign_vectors"]
        failures = self.run(3, [(sv[2, 2], lambda fx: 1.01 * fx)])
        assert failures[0][:2] == (2, self.UNIT)

    def test_pair_identity(self):
        sv = plan_queries(LINF_3, "linf", 3).probes["sign_vectors"]
        failures = self.run(3, [(sv[2, 0], coordinate_times(np.argmax, -1.0))])
        assert failures[0][:2] == (2, self.PAIR)

    def test_unit_coordinates(self):
        # shrinking one coordinate of f(theta) to 0.999 keeps both norms of
        # f(theta) +- f(|x| theta) when |x| < 0.999, so only unit coordinates break
        for seed in range(50):
            sv = plan_queries(LINF_3, "linf", seed).probes["sign_vectors"]
            nx = LINF_3.norms_of(sv[:, 0])
            thetas = [tuple(t) for t in sv[:, 1].tolist()]
            rows = [k for k in range(len(sv)) if nx[k] < 0.99 and thetas.count(thetas[k]) == 1]
            if rows:
                break
        k = rows[0]
        failures = self.run(seed, [(sv[k, 1], coordinate_times(np.argmax, 0.999))])
        assert failures == [(k, self.LOST, list(sv[k, 0]))]

    def test_coordinate_signs(self):
        # flipping the smallest coordinate of f(x) moves the pair identity by
        # 2 min|x_i|, which a loose tolerance forgives; only the signs break
        tol = Tolerances(1e-2)
        for seed in range(200):
            sv = plan_queries(LINF_3, "linf", seed, tol).probes["sign_vectors"]
            low = np.min(np.abs(sv[:, 0]), axis=1)
            rows = np.flatnonzero(low < 0.004)
            if len(rows):
                break
        k = int(rows[0])
        failures = self.run(seed, [(sv[k, 0], coordinate_times(np.argmin, -1.0))], tol)
        assert failures == [(k, self.SIGNS, list(sv[k, 0]))]

    def test_earlier_failing_row_wins(self):
        # row 4 breaks the first check, row 1 only the second: row order decides
        sv = plan_queries(LINF_3, "linf", 3).probes["sign_vectors"]
        failures = self.run(3, [(sv[4, 2], lambda fx: 1.01 * fx),
                                (sv[1, 0], coordinate_times(np.argmax, -1.0))])
        assert failures[0][:2] == (1, self.PAIR)
        assert (4, self.UNIT, list(sv[4, 0])) in failures

    def test_earlier_failing_check_wins(self):
        sv = plan_queries(LINF_3, "linf", 3).probes["sign_vectors"]
        failures = self.run(3, [(sv[3, 2], lambda fx: 1.01 * fx)])
        assert [f[:2] for f in failures[:2]] == [(3, self.UNIT), (3, self.PAIR)]


class TestScoring:
    @pytest.mark.parametrize("even", [True, False])
    def test_flipped_sign_is_inconsistent(self, even):
        space = L2_4
        t = generate_isometry(space, 8)
        f = generate_phase_isometry(t, 8, even=even)
        points = np.random.default_rng(8).standard_normal((6, space.dim))
        for x in points:
            f(x)
        sign_of = f.hidden_truth["sign_of"]

        def score(matrix, signs):
            table = SignAssignment(space)
            for x, s in zip(points, signs):
                table.set(x, s)
            cert = DecompositionCertificate(
                LinearMap(matrix, space, space, isometric=True), table, "smooth", 0.0, 0,
                0.0, "forced", len(points), DEFAULT_TOL)
            return score_certificate(f, cert)

        truth = [sign_of(x) for x in points]
        assert score(t.matrix, truth)["eps_consistent"]
        # the global sign of T is unidentifiable: -T with every sign flipped agrees
        assert score(-t.matrix, [-s for s in truth]) == {
            "t_error": 0.0, "global_sign": -1, "eps_consistent": True}
        flipped = list(truth)
        flipped[2] = -flipped[2]
        assert score(t.matrix, flipped)["eps_consistent"] is False


class TestSignMapLaws:
    """Laws of the coordinatewise sign map that the sup-norm route leans on."""

    def test_positive_scaling_invariance(self, rng):
        for _ in range(200):
            x = rng.standard_normal(5)
            t = abs(rng.standard_normal()) + 1e-3
            assert np.array_equal(np.sign(t * x), np.sign(x))

    def test_odd(self, rng):
        for _ in range(200):
            x = rng.standard_normal(5)
            assert np.array_equal(np.sign(-x), -np.sign(x))

    def test_additive_on_disjoint_supports(self, rng):
        for _ in range(200):
            mask = rng.random(6) < 0.5
            x = rng.standard_normal(6) * mask
            y = rng.standard_normal(6) * ~mask
            assert np.array_equal(np.sign(x + y), np.sign(x) + np.sign(y))

    def test_unit_norm_off_zero(self, rng):
        space = NormSpec.lp(6, float("inf"))
        for _ in range(50):
            x = rng.standard_normal(6)
            assert space.norm_of(np.sign(x)) == 1.0


class TestNoStabilization:
    def test_rotating_images_never_settle(self):
        # the supporting functional at f(t*u) turns with t, so the schedule
        # runs out without two successive estimates agreeing
        space = NormSpec.lp(2, 2)

        def fn(c):
            n = space.norm_of(c)
            if n == 0.0:
                return c.copy()
            a = 0.4 * math.log2(max(n, 1e-12)) if n >= 1.0 else 0.0
            rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
            return rot @ c

        from phaseiso import NoStabilization
        f = PhaseMapOracle.from_callable(space, space, fn)
        with pytest.raises(NoStabilization):
            recover_functional(f, space.functional([1.0, 0.0]))


class TestTableMode:
    def build_table(self, space, seed, route="auto"):
        resolved = route_for(space) if route == "auto" else route
        oracle = generate_phase_isometry(generate_isometry(space, seed), seed)
        plan = plan_queries(space, resolved, seed)
        pairs = [(p, oracle(p)) for p in plan.all_points()]
        table = PhaseMapOracle.from_table(space, space, pairs, declared_surjective=True)
        return oracle, plan, table

    @pytest.mark.parametrize("space", [L1_3, LINF_3, L2_4, NormSpec.lp(2, 2)])
    def test_plan_covers_all_queries(self, space):
        oracle, plan, table = self.build_table(space, 12)
        cert = decompose(table, seed=12)
        assert cert.residual_max <= 1e-9
        # and the recovered map matches the callable-mode ground truth
        score = score_certificate(oracle, cert)
        assert score["t_error"] <= 1e-9

    def test_missing_probe_reported(self):
        oracle, plan, table = self.build_table(L1_3, 12)
        victim = tuple(map(float, plan.probes["basis"][1]))
        del table.table[_row_keys(np.array([victim]))[0]]
        missing = table.missing_points(plan.all_points())
        assert victim in missing
        with pytest.raises(MissingSamples):
            decompose(table, seed=12)

    def test_missing_probes_of_every_stage_are_listed_before_any_query(self):
        oracle, plan, table = self.build_table(L1_3, 12)
        # e_1 is fetched by the first stage, the fresh pairs only by the last
        for victim in (plan.probes["basis"][1], plan.probes["fresh_pairs"][4, 1]):
            del table.table[_row_keys(victim[None])[0]]
        with pytest.raises(MissingSamples) as err:
            decompose(table, seed=12)
        assert err.value.points == table.missing_points(plan.all_points())
        assert len(err.value.points) == 2
        assert table.query_log == []

    @pytest.mark.parametrize("p", [1, math.inf, 2], ids=["l1", "linf", "l2"])
    @pytest.mark.parametrize("dim", [16, 32])
    def test_higher_dimensions_match_the_callable_oracle(self, dim, p):
        space = NormSpec.lp(dim, p)
        for seed in range(2):
            _, _, table = self.build_table(space, seed)
            f = generate_phase_isometry(generate_isometry(space, seed), seed)
            assert decompose(table, seed=seed).to_json() == decompose(f, seed=seed).to_json()

    def test_plan_is_deterministic(self):
        p1 = plan_queries(L1_3, "l1", 77)
        p2 = plan_queries(L1_3, "l1", 77)
        a = p1.all_points()
        b = p2.all_points()
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestPlanLayout:
    @pytest.mark.parametrize("p", [1.0, float("inf")], ids=["l1", "linf"])
    def test_hyperplane_probes_are_mutually_birkhoff_orthogonal(self, p):
        # the l1 and linf routes pin signs across (z, e_0) without checking
        # orthogonality at run time: it is a property of the domain alone
        pairs = 0
        for n in range(2, 9):
            space = NormSpec.lp(n, p)
            for seed in range(20):
                for z, e0, _ in plan_queries(space, route_for(space), seed).probes["hyperplane"]:
                    zv, ev = space.vector(z), space.vector(e0)
                    assert is_birkhoff_orthogonal(ev, zv) and is_birkhoff_orthogonal(zv, ev)
                    pairs += 1
        assert pairs == 7 * 20 * 6


READS_CASES = [
    (NormSpec.lp(1, 2), "one_dim"),
    (L2_2, "smooth"),
    (L2_2, "generic"),
    (NormSpec.polyhedral(2, [[1, 0], [0, 1], [1, 1]]), "generic"),
    (NormSpec.lp(3, 2), "smooth"),
    (NormSpec.lp(5, 1.5), "smooth"),
    (NormSpec.lp(3, 2), "generic"),
    (POLY_3, "generic"),
    (L1_3, "l1"),
    (L1_4, "l1"),
    (LINF_3, "linf"),
    (NormSpec.lp(4, float("inf")), "linf"),
    (NormSpec.weighted_lp(3, 1, [1.0, 2.0, 0.5]), "generic"),
    (NormSpec.weighted_lp(3, float("inf"), [1.0, 2.0, 0.5]), "generic"),
]


def pinned_pairs(plan):
    """The (x, y) pairs of a plan that a route may pin, by group: the basis pairs
    (e_i, e_j), i < j, and the (x, y) of the ``random_pairs`` and ``hyperplane`` rows."""
    pairs = {}
    if "basis" in plan.probes:
        i, j = np.triu_indices(plan.space.dim, 1)
        pairs["basis"] = (plan.probes["basis"][i], plan.probes["basis"][j])
    for name in ("random_pairs", "hyperplane"):
        if name in plan.probes:
            pairs[name] = (plan.probes[name][:, 0], plan.probes[name][:, 1])
    return pairs


class TestPlanPairIndependence:
    """Sign pinning needs independent pairs; the routes pin plan pairs only, and
    ``_pin_pairs`` does not check them, so every plan must hold: [x; y] has two
    singular values and the smaller is above 1e-12 * max(larger, 1)."""

    @pytest.mark.parametrize("space,route", READS_CASES,
                             ids=[f"{s.kind}{s.dim}-{r}" for s, r in READS_CASES])
    def test_pinned_pairs_are_independent(self, space, route):
        for seed in range(64):
            pairs = pinned_pairs(plan_queries(space, route, seed))
            assert ("basis" in pairs and "random_pairs" in pairs) == (space.dim > 1)
            for name, (X, Y) in pairs.items():
                s = np.linalg.svd(np.stack([X, Y], axis=1), compute_uv=False)
                assert len(X) and s.shape[1] == 2, (seed, name)
                bound = 1e-12 * np.maximum(s[:, 0], 1.0)
                assert np.all(s[:, 1] > bound), (seed, name, int(np.argmin(s[:, 1] - bound)))


def helper_only_groups(plan):
    """The read groups that only a public helper reads, fetching them itself:
    ``normalize_two_dim`` the 2-D grid, ``recover_projective_linear`` ``ones`` and
    ``verify``, and ``recover_functional`` its verify points ``randoms`` on smooth
    and linf (l1 also expands them)."""
    if "two_dim" in plan.reads:
        return {"two_dim"}
    return {"smooth": {"randoms", "ones", "verify"}, "generic": {"ones", "verify"},
            "linf": {"randoms"}}.get(plan.route, set())


class TestPlanReads:
    """``QueryPlan.reads`` names exactly the groups a run reads in full: a route run
    without the up-front fetch, on images fetched group by group as it reads them,
    reads exactly those groups and logs their rows plus a prefix of each doubling
    schedule, and ``decompose``, which fetches them first, logs the same set."""

    @staticmethod
    def keys(rows):
        return set(_row_keys(np.asarray(rows, dtype=float)))

    @pytest.mark.parametrize("seed", [0, 1, 5])
    @pytest.mark.parametrize("space,route", READS_CASES,
                             ids=[f"{s.kind}{s.dim}-{r}" for s, r in READS_CASES])
    def test_logged_points_are_reads_plus_reached_schedules(self, space, route, seed):
        plan = plan_queries(space, route, seed)
        assert plan.route == route
        assert "schedules" not in plan.reads and set(plan.reads) <= set(plan.probes)
        f = generate_phase_isometry(generate_isometry(space, seed), seed)
        images = GroupReads(f, plan)  # the route, fetching each group as it first reads it
        matrix = _ROUTE_IMPL[route](f, plan, images, DEFAULT_TOL, {})
        _assemble_certificate(f, matrix, route, plan, images, DEFAULT_TOL, {})
        assert set(images.read) == set(plan.reads) - helper_only_groups(plan)
        logged = self.keys(f.query_log)
        read = self.keys(np.vstack([plan.probes[g].reshape(-1, space.dim) for g in plan.reads]))
        reached = set()
        for steps in plan.probes.get("schedules", ()):
            hit = [key in logged for key in _row_keys(steps)]
            m = hit.index(False) if False in hit else len(hit)
            assert m >= 2 and not any(hit[m:])  # a recovery compares two estimates at least
            reached |= self.keys(steps[:m])
        assert logged == read | reached  # so no unread group, such as l1's verify, is queried
        g = generate_phase_isometry(generate_isometry(space, seed), seed)
        decompose(g, route=route, seed=seed)
        assert self.keys(g.query_log) == logged and len(g.query_log) == len(f.query_log)

    def test_rejected_run_has_queried_every_read(self):
        # f(e_0 + e_1) doubled: sign pinning on the basis pairs rejects it, before any
        # schedule is reached, and every read group has been fetched by then
        space = NormSpec.lp(4, 2)
        f = tampered(space, 3, [np.array([1.0, 1.0, 0.0, 0.0])], lambda fx: 2.0 * fx)
        with pytest.raises(NotDecomposable, match="^no sign combination reproduces f"):
            decompose(f, seed=3)
        plan = plan_queries(space, seed=3)
        read = np.vstack([plan.probes[g].reshape(-1, space.dim) for g in plan.reads])
        assert self.keys(f.query_log) == self.keys(read)


PUBLIC_HELPERS = {"recover_functional", "recover_projective_linear", "normalize_two_dim"}


class TestBlockReads:
    """After the block fetch the stages read their images from it: every later oracle
    call comes from a public helper or is the final replay of ``query_log``."""

    @pytest.mark.parametrize("seed", [0, 1, 5])
    @pytest.mark.parametrize("space,route", READS_CASES,
                             ids=[f"{s.kind}{s.dim}-{r}" for s, r in READS_CASES])
    def test_no_stage_refetches(self, space, route, seed, monkeypatch):
        calls = []  # (method, callers from the oracle's caller up to decompose)

        def recording(method):
            real = getattr(PhaseMapOracle, method)

            def wrapped(oracle, *args):
                frame, callers = sys._getframe(1), []
                while frame.f_code.co_name != "decompose":
                    callers.append(frame.f_code.co_name)
                    frame = frame.f_back
                calls.append((method, callers))
                return real(oracle, *args)
            return real, wrapped

        views = {}
        impl = _ROUTE_IMPL[route]

        def route_impl(f, plan, images, tol, diagnostics):
            views.update(images)
            return impl(f, plan, images, tol, diagnostics)

        real_images, images = recording("images")
        monkeypatch.setattr(PhaseMapOracle, "images", images)
        monkeypatch.setattr(PhaseMapOracle, "__call__", recording("__call__")[1])
        monkeypatch.setitem(_ROUTE_IMPL, route, route_impl)
        decompose(generate_phase_isometry(generate_isometry(space, seed), seed), route, seed)
        (block, *stages, replay) = calls
        assert block == ("images", []) and replay == ("images", ["_assemble_certificate"])
        for method, callers in stages:
            assert PUBLIC_HELPERS & set(callers), (method, callers)

        plan = plan_queries(space, route, seed)
        fresh = generate_phase_isometry(generate_isometry(space, seed), seed)
        assert list(views) == list(plan.reads)
        for name, view in views.items():
            group = plan.probes[name]
            want = real_images(fresh, group.reshape(-1, space.dim))
            assert view.shape == group.shape[:-1] + want.shape[1:] and not view.flags.writeable
            assert view.tobytes() == want.tobytes()


NARROW_DOMAINS = [NormSpec.lp(3, 1), NormSpec.lp(3, float("inf")), NormSpec.lp(3, 2), POLY_3]


def projection(space):
    """x -> (x_0, x_1) onto l2^2, declared surjective."""
    return PhaseMapOracle.from_callable(space, L2_2, lambda c: c[:2], declared_surjective=True)


class TestNarrowCodomain:
    """A linear isometry is injective, so no eps * T maps onto a codomain of lower dimension."""

    @pytest.mark.parametrize("route", ["auto", "generic"])
    @pytest.mark.parametrize("space", NARROW_DOMAINS, ids=["l1", "linf", "l2", "poly"])
    def test_refused_before_any_query(self, space, route):
        f = projection(space)
        with pytest.raises(RangeDegenerate, match="^codomain dimension 2 is below domain "
                                                  "dimension 3; "):
            decompose(f, route=route)
        assert f.query_log == []

    @pytest.mark.parametrize("space", NARROW_DOMAINS, ids=["l1", "linf", "l2", "poly"])
    def test_frame_narrower_than_the_domain_is_degenerate(self, space):
        # three basis images in R^2 have two singular values, both 1 here
        with pytest.raises(RangeDegenerate, match="^basis images are linearly dependent"):
            recover_projective_linear(projection(space), plan_queries(space, "generic", 0))


# Every (family, dim, route) a plan accepts, dims 1, 2 and 3, each family's own route and generic.
PLAN_CASES = [(name, n, route) for n in (1, 2, 3) for name in zoo_ids()
              for route in (ACCEPTED_ROUTES[name] if n >= 2 else ("one_dim",))]


def plan_bytes(plan):
    """Everything a plan lays out, as bytes: the groups in order, the deduplicated
    points and each schedule's (x*, u)."""
    return ([(name, g.dtype.str, g.shape, g.tobytes()) for name, g in plan.probes.items()],
            [p.tobytes() for p in plan.all_points()],
            [(name, x.coords.tobytes(), u.coords.tobytes())
             for name, (x, u) in plan.schedules.items()])


class TestPlanCache:
    """The seed-free part of a plan is cached per (space, route, tol) without changing a bit."""

    def test_warm_plan_equals_cold_plan(self):
        tol = Tolerances(1e-7)
        cases = [(name, n, route, t, seed) for name, n, route in PLAN_CASES
                 for t in (DEFAULT_TOL, tol) for seed in (0, 5)]
        for name, n, route, t, seed in cases:  # every case is cached before any is compared
            plan_queries(family(name, n), route, seed, t)
        warm = [plan_bytes(plan_queries(family(name, n), route, seed, t))
                for name, n, route, t, seed in cases]
        for (name, n, route, t, seed), want in zip(cases, warm):
            _seed_free_part.cache_clear()
            assert plan_bytes(plan_queries(family(name, n), route, seed, t)) == want

    @pytest.mark.parametrize("name,n,route", [c for c in PLAN_CASES if c[1] >= 2])
    def test_seed_free_groups_are_shared_and_read_only(self, name, n, route):
        a = plan_queries(family(name, n), route, 1)
        b = plan_queries(family(name, n), route, 2)
        shared = [k for k in a.probes if np.array_equal(a.probes[k], b.probes[k])]
        assert shared == [k for k in a.probes if k in
                          ("basis", "ones", "basis_pairs", "basis_rays", "schedules", "two_dim")]
        for k in shared:
            assert b.probes[k] is a.probes[k] and not a.probes[k].flags.writeable
            with pytest.raises(ValueError):
                a.probes[k][0] = 1.0

    def test_plans_own_their_schedules(self):
        a, b = plan_queries(LINF_3, "linf", 1), plan_queries(LINF_3, "linf", 1)
        assert a.schedules is not b.schedules and list(a.schedules) == ["coord0", "coord1", "coord2"]
        a.schedules.clear()
        assert list(b.schedules) == list(plan_queries(LINF_3, "linf", 1).schedules) == [
            "coord0", "coord1", "coord2"]


SCORE_SPACES = [L2_4, L1_3, LINF_3, POLY_3, NormSpec.lp(5, 1.5), L2_2, LINE]


def decomposed(space, seed, even):
    f = generate_phase_isometry(generate_isometry(space, seed), seed, even=even)
    return f, decompose(f, seed=seed, force=not even)


class TestScoringFromRecordedSigns:
    """``score_certificate`` reads only the certificate's recorded signs and the
    oracle's hidden truth, and equals the score that walks the log and hashes
    the sign of every logged point again."""

    @pytest.mark.parametrize("even", [True, False], ids=["even", "uneven"])
    @pytest.mark.parametrize("space", SCORE_SPACES, ids=repr)
    def test_own_oracle(self, space, even):
        for seed in range(3):
            f, cert = decomposed(space, seed, even)
            assert score_certificate(f, cert) == oracles.rehashed_score(f, cert)

    @pytest.mark.parametrize("even", [True, False], ids=["even", "uneven"])
    @pytest.mark.parametrize("space", SCORE_SPACES, ids=repr)
    def test_second_oracle(self, space, even):
        """A certificate scored against another oracle on the same space object:
        the logged points outside its transcript are skipped."""
        _, cert = decomposed(space, 1, True)
        g, _ = decomposed(space, 2, even)
        for x in np.random.default_rng(3).standard_normal((5, space.dim)):
            g(x)  # points the certificate never saw
        got = score_certificate(g, cert)
        assert got == oracles.rehashed_score(g, cert)
        if space.dim >= 2:
            assert got["eps_consistent"] is False  # the two oracles' signs differ somewhere

    def test_certificate_in_an_equal_space(self):
        """A certificate keyed in another space object, equal by ``==``, is scored
        by its keys, as one keyed in the oracle's own domain is."""
        space = NormSpec.polyhedral(2, [[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
        twin = NormSpec.polyhedral(2, [[1.0, -0.0], [-0.0, 1.0], [1.0, -1.0]])
        assert twin == space and twin is not space
        f, cert = decomposed(space, 6, True)
        moved = DecompositionCertificate(
            cert.T, SignAssignment(twin, dict(cert.sign_table.table)), cert.route,
            cert.residual_max, cert.verified_pairs, cert.max_equation_discrepancy,
            cert.surjectivity, cert.queried_points, cert.tolerances)
        assert score_certificate(f, moved) == oracles.rehashed_score(f, moved)
        assert score_certificate(f, moved)["eps_consistent"]
        key = next(iter(moved.sign_table.table))
        moved.sign_table.table[key] *= -1
        assert score_certificate(f, moved) == oracles.rehashed_score(f, moved)
        assert score_certificate(f, moved)["eps_consistent"] is False


FUZZ_FAMILIES = [NormSpec.lp(3, 1), NormSpec.lp(8, 1), LINF_3, NormSpec.lp(8, math.inf), L2_2,
                 NormSpec.lp(6, 2), NormSpec.lp(5, 1.5), NormSpec.lp(5, 3), POLY_3]


class TestScoringReusesKeys:
    """The two rules of ``score_certificate``.  For an even generated oracle
    whose domain equals the certificate's space, the keys of the sign table
    are the rows it hashes, and no logged point is keyed; for any other oracle
    the logged points are keyed once.  Both equal ``oracles.rehashed_score``."""

    @pytest.fixture
    def keyings(self, monkeypatch):
        """The ray_keys calls that scoring makes."""
        calls = []
        real = harness.ray_keys
        monkeypatch.setattr(harness, "ray_keys", lambda *a: calls.append(a) or real(*a))
        return calls

    @pytest.mark.parametrize("space", FUZZ_FAMILIES, ids=repr)
    def test_fuzz_families(self, space, keyings):
        for seed in range(20):
            f, cert = decomposed(space, seed, True)
            assert score_certificate(f, cert) == oracles.rehashed_score(f, cert)
        assert keyings == []

    @pytest.mark.parametrize("space", SCORE_SPACES, ids=repr)
    def test_uneven_oracle(self, space, keyings):
        for seed in range(3):
            f, cert = decomposed(space, seed, False)
            assert score_certificate(f, cert) == oracles.rehashed_score(f, cert)
        assert len(keyings) == 3

    @pytest.mark.parametrize("even", [True, False], ids=["even", "uneven"])
    @pytest.mark.parametrize("space", [L1_3, LINF_3, L2_4, POLY_3], ids=repr)
    def test_oracle_queried_after_decompose(self, space, even, keyings):
        f, cert = decomposed(space, 3, even)
        logged = np.array(f.query_log)
        f(f.query_log[-1])  # a hit
        f.images(np.random.default_rng(3).standard_normal((4, space.dim)))  # new rays
        assert score_certificate(f, cert) == oracles.rehashed_score(f, cert)
        f.images(-2.5 * logged)  # new points on the transcript's lines
        assert len(f.query_log) > len(logged)
        assert score_certificate(f, cert) == oracles.rehashed_score(f, cert)
        assert len(keyings) == (0 if even else 2)

    SPACE = NormSpec.polyhedral(2, [[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
    TWIN = NormSpec.polyhedral(2, [[1.0, -0.0], [-0.0, 1.0], [1.0, -1.0]])  # == SPACE

    @pytest.mark.parametrize("twin", [False, True], ids=["same-space", "equal-space"])
    def test_another_oracle(self, twin, keyings):
        """Another oracle that answered the certificate's points, with the same seed
        (it agrees) and with another (it does not)."""
        f, cert = decomposed(self.SPACE, 6, True)
        for seed, agrees in ((6, True), (7, False)):
            g = generate_phase_isometry(
                generate_isometry(self.TWIN if twin else self.SPACE, seed), seed)
            g.images(np.array(f.query_log))  # the same points, logged in g's own list
            got = score_certificate(g, cert)
            assert got == oracles.rehashed_score(g, cert) and got["eps_consistent"] is agrees
        assert keyings == []

    def test_certificate_moved_to_an_equal_space(self, keyings):
        f, cert = decomposed(self.SPACE, 6, True)
        moved = dataclasses.replace(cert, sign_table=SignAssignment(self.TWIN, dict(cert.sign_table.table)))
        assert score_certificate(f, moved) == oracles.rehashed_score(f, moved)
        assert score_certificate(f, moved)["eps_consistent"] and keyings == []

    @pytest.mark.parametrize("even", [True, False], ids=["even", "uneven"])
    def test_empty_sign_table(self, even, keyings):
        f, cert = decomposed(L2_4, 2, even)
        bare = dataclasses.replace(cert, sign_table=SignAssignment(L2_4))
        got = score_certificate(f, bare)
        assert got == oracles.rehashed_score(f, bare) and got["eps_consistent"]
        assert len(keyings) == (0 if even else 1)

    def test_keys_are_not_part_of_the_certificate(self):
        """A certificate holds what it serializes and nothing more: scoring gets
        no state from the replay that made it."""
        f, cert = decomposed(L2_4, 1, True)
        assert {field.name for field in dataclasses.fields(cert)} == set(cert.to_json())
        copy = dataclasses.replace(cert)
        assert copy == cert and score_certificate(f, copy) == score_certificate(f, cert)


class TestHigherDimensions:
    """Round trips above the benchmark's n = 8."""

    @pytest.mark.parametrize("p", [1, math.inf, 2], ids=["l1", "linf", "l2"])
    @pytest.mark.parametrize("dim", [16, 32])
    def test_round_trip(self, dim, p):
        for seed in range(3):
            outcome = harness.run_trial(NormSpec.lp(dim, p), seed)
            assert outcome.status == "success", outcome.message
            assert outcome.t_error <= 1e-9 and outcome.eps_consistent


W4 = np.array([1.0, 2.0, 0.5, 3.0])


def fuzz_family(n, p):
    """A weighted copy of the fuzz family lp^n, weights linspace(0.5, 2, n) times c."""
    return lambda c: NormSpec.weighted_lp(n, p, np.linspace(0.5, 2.0, n) * c)


SCALED_FAMILIES = {  # each family's weights or functionals times c, and its seed count
    "weighted-l1": (lambda c: NormSpec.weighted_lp(4, 1, W4 * c), 10),
    "weighted-linf": (lambda c: NormSpec.weighted_lp(4, math.inf, W4 * c), 10),
    "poly3": (lambda c: NormSpec.polyhedral(3, np.array(POLY_3.functionals) * c), 10),
    "weighted-l2": (lambda c: NormSpec.weighted_lp(3, 2, W4[:3] * c), 10),
    **{f"fuzz-l{p}-{n}": (fuzz_family(n, p), 5)
       for p, n in ((1, 3), (1, 8), (math.inf, 3), (math.inf, 8), (2, 2), (2, 6), (1.5, 5),
                    (3, 5))},
}
SCALE_KS = (-40, -34, -32, -31, -30, -28, 0, 30, 34, 38, 39, 40)


def scaled_round_trip(family, k, seed):
    space = SCALED_FAMILIES[family][0](2.0 ** k)
    f = generate_phase_isometry(generate_isometry(space, seed), seed)
    return space, f, decompose(f, seed=seed)


class TestScaleCovariance:
    """Scaling a norm by c > 0 keeps every phase-isometry one, with the same eps
    and T, so a round trip must not depend on c.  These families scale by powers
    of two, and T keeps its bytes."""

    @pytest.mark.parametrize("family", list(SCALED_FAMILIES))
    def test_sweep(self, family):
        for seed in range(SCALED_FAMILIES[family][1]):
            want = scaled_round_trip(family, 0, seed)[2].T.matrix.tobytes()
            for k in SCALE_KS:
                space, f, cert = scaled_round_trip(family, k, seed)
                outcome = harness.run_trial(space, seed)
                assert outcome.status == "success", (k, seed, outcome.message)
                assert cert.T.matrix.tobytes() == want, (k, seed)
                assert score_certificate(f, cert) == oracles.rehashed_score(f, cert), (k, seed)

    def test_all_zero_key_is_scored_by_its_hash(self):
        """At 2^39 a nonzero logged point can round to an all-zero ray key; the
        oracle hashed that key, so scoring hashes it too."""
        _, f, cert = scaled_round_trip("weighted-l1", 39, 0)
        assert sum(not any(key) for key in cert.sign_table.table) == 1
        assert score_certificate(f, cert) == oracles.rehashed_score(f, cert)

    def test_nonzero_point_with_all_zero_key_can_be_set(self):
        """Only the zero vector itself is refused by ``SignAssignment.set``: a
        nonzero point whose ray key rounds to all zeros keeps its own sign."""
        space, f, _ = scaled_round_trip("weighted-l1", 39, 0)
        x = next(p for p in f.query_log if not any(ray_key(p, space)))
        assert x.any()
        for value in (-1, 1):
            table = SignAssignment(space)
            table.set(x, value)
            assert table.get(x) == value and list(table.table) == [ray_key(x, space)]
