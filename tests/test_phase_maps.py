import json
import math
import re
import struct
import warnings

import numpy as np
import pytest

import oracles
from conftest import space_zoo, zoo_ids
from phaseiso import (DimensionMismatch, LinearMap, MissingSamples, NormSpec, PhaseMapOracle,
                      SampleFormatError, SignAssignment, canonical_ray,
                      check_phase_equation, check_phase_equation_batch,
                      check_wigner_equation,
                      generate_isometry, generate_phase_isometry,
                      check_phase_invariants, make_sign_flip_oracle, multiset_match,
                      ray_key, ray_keys, read_samples, write_samples, Tolerances,
                      DEFAULT_TOL)
from phaseiso.phase_maps import _hash_sign, _hash_signs, _rounded_rays, _row_keys
from phaseiso.spaces import _row_products

L2_2 = NormSpec.lp(2, 2)
LINE = NormSpec.lp(1, 2)
LINF_2 = NormSpec.lp(2, float("inf"))
POLY_SPACE = NormSpec.polyhedral(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])


def identity_oracle(space, surjective=True):
    return PhaseMapOracle.from_callable(space, space, lambda c: c,
                                        declared_surjective=surjective)


def random_pairs(rng, dim, count, scale=3.0):
    return [(scale * rng.standard_normal(dim), scale * rng.standard_normal(dim))
            for _ in range(count)]


class TestMultiset:
    def test_match_ignores_order(self):
        ok, disc = multiset_match((1.0, 2.0), (2.0, 1.0))
        assert ok and disc == 0.0

    def test_mismatch_reports_gap(self):
        ok, disc = multiset_match((1.0, 2.0), (1.0, 2.5))
        assert not ok
        assert disc == pytest.approx(0.5)

    def test_bound_scales_with_the_largest_norm_of_either_side(self):
        # |1 - 0| <= 0.5 * (1 + 1) only when the got side's 1.0 sets the scale
        tol = Tolerances(rel=0.5)
        assert multiset_match((1.0, 0.0), (0.0, 0.0), tol) == (True, 1.0)
        assert multiset_match((0.0, 0.0), (1.0, 0.0), tol) == (True, 1.0)
        assert multiset_match((1.25, 0.0), (0.0, 0.0), tol) == (False, 1.25)

    @pytest.mark.parametrize("got,want", [((math.inf, 0.0), (math.inf, 0.0)),
                                          ((1.0, math.nan), (1.0, 1.0)),
                                          ((math.nan, 1.0), (1.0, 1.0))],
                             ids=["inf-inf", "nan-second", "nan-first"])
    def test_nan_or_infinite_discrepancy_fails(self, got, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # inf - inf must not warn
            ok, disc = multiset_match(got, want)
        assert not ok and math.isnan(disc)

    @pytest.mark.parametrize("space", space_zoo(), ids=zoo_ids())
    def test_one_row_of_the_batch_verdict(self, space, rng):
        # y = x, y = -x and y = 0 tie the norms exactly; f(y) = -y swaps the
        # two norms, and scaling f(x) by 1 + 1e-10 .. 1e-8 straddles the bound
        m = 48
        X = rng.standard_normal((m, space.dim))
        ties = [X, -X, np.zeros_like(X), rng.standard_normal((m, space.dim))]
        Y = np.choose((np.arange(m) % 4)[:, None], ties)
        FX = (1.0 + rng.choice([0.0, 1e-10, 1e-9, 1e-8], size=m))[:, None] * X
        FY = -Y
        report = check_phase_equation_batch(space, space, X, Y, FX, FY)
        got = zip(space.norms_of(FX + FY).tolist(), space.norms_of(FX - FY).tolist())
        want = zip(space.norms_of(X + Y).tolist(), space.norms_of(X - Y).tolist())
        for k, (g, w) in enumerate(zip(got, want)):
            ok, disc = multiset_match(g, w)
            assert ok == report.pair_passed[k]
            assert struct.pack("<d", disc) == struct.pack("<d", report.discrepancy[k])
        assert report.pair_passed.any() and not report.pair_passed.all()


class TestCanonicalRay:
    def test_line_mode_identifies_antipodes(self):
        k1 = ray_key(np.array([1.0, -2.0]), L2_2)
        k2 = ray_key(np.array([-1.0, 2.0]), L2_2)
        k3 = ray_key(np.array([2.0, -4.0]), L2_2)
        assert k1 == k2 == k3

    def test_oriented_mode_separates_antipodes(self):
        k1 = ray_key(np.array([1.0, -2.0]), L2_2, oriented=True)
        k2 = ray_key(np.array([-1.0, 2.0]), L2_2, oriented=True)
        assert k1 != k2

    def test_first_nonzero_positive(self):
        r = canonical_ray(np.array([0.0, -3.0, 1.0]), NormSpec.lp(3, 2))
        assert r[1] > 0

    def test_zero_maps_to_zero(self):
        assert not np.any(canonical_ray(np.zeros(2), L2_2))

    def test_sign_assignment_convention(self):
        signs = SignAssignment(L2_2)
        assert signs.get(np.zeros(2)) == 1
        signs.set(np.array([3.0, 0.0]), -1)
        assert signs.get(np.array([1.5, 0.0])) == -1
        with pytest.raises(ValueError):
            signs.set(np.array([1.0, 0.0]), 2)

    @pytest.mark.parametrize("zero", [np.zeros(2), np.array([-0.0, 0.0]), L2_2.vector([0.0, 0.0])],
                             ids=["zeros", "signed-zero", "vector"])
    def test_zero_vector_cannot_be_set(self, zero):
        # get never reads a key for the zero vector, so set must not store one
        signs = SignAssignment(L2_2)
        with pytest.raises(ValueError, match="zero vector"):
            signs.set(zero, -1)
        assert signs.get(zero) == 1 and signs.table == {} and signs.to_dict() == {}


def _key_families(dim, rng):
    """lp (p = 1, 1.5, 2, 3, inf), weighted lp and polyhedral spaces of one dimension."""
    spaces = [NormSpec.lp(dim, p) for p in (1, 1.5, 2, 3, math.inf)]
    spaces.append(NormSpec.weighted_lp(dim, 1.5, rng.uniform(0.5, 2.0, dim)))
    spaces.append(NormSpec.weighted_lp(dim, math.inf, rng.uniform(0.5, 2.0, dim)))
    spaces.append(NormSpec.polyhedral(dim, np.vstack([np.eye(dim),
                                                      rng.standard_normal((3, dim))])))
    return spaces


class TestRayKeys:
    @pytest.mark.parametrize("dim", range(1, 9))
    @pytest.mark.parametrize("oriented", [False, True])
    def test_bytes_match_ray_key(self, dim, oriented):
        """The packed doubles that the sign hash reads are those of ray_key, row by row."""
        rng = np.random.default_rng(dim)
        for space in _key_families(dim, rng):
            for magnitude in (1e-3, 1.0, 1e3):
                rows = magnitude * rng.standard_normal((24, dim))
                rows[0] = 0.0
                rows[1, :-1] = 0.0  # leading zeros
                rows[2] = -np.abs(rows[2])  # negative lead
                rows[3, 0] = -0.0
                rows[4] = -0.0
                keys = ray_keys(rows, space, oriented)
                assert len(keys) == len(rows)
                for row, key in zip(rows, keys):
                    want = ray_key(row, space, oriented)
                    assert struct.pack(f"<{dim}d", *key) == struct.pack(f"<{dim}d", *want)

    def test_no_rows(self):
        assert ray_keys(np.zeros((0, 3)), NormSpec.lp(3, 2)) == []


class TestOracle:
    def test_repeat_queries_identical(self, rng):
        calls = []

        def fn(c):
            calls.append(1)
            return c * 1.0

        f = PhaseMapOracle.from_callable(L2_2, L2_2, fn)
        a = f(np.array([1.0, 2.0]))
        b = f(np.array([1.0, 2.0]))
        assert a is b
        assert len(calls) == 1
        assert len(f.query_log) == 1

    @pytest.mark.parametrize("make", [
        lambda: identity_oracle(L2_2),
        lambda: generate_phase_isometry(generate_isometry(L2_2, 1), 1),
        lambda: PhaseMapOracle.from_table(L2_2, L2_2, [(np.array([1.0, 2.0]), np.array([2.0, 1.0])),
                                                       (np.array([3.0, 4.0]), np.array([4.0, 3.0]))]),
    ], ids=["callable", "generated", "table"])
    def test_repeat_query_returns_the_cached_object(self, make):
        f = make()
        x = np.array([1.0, 2.0])
        a = f(x)
        assert f(x.copy()) is a and f([1.0, 2.0]) is a
        assert not a.flags.writeable
        f.images(np.array([[3.0, 4.0], [1.0, 2.0]]))  # a block commit keeps the earlier object
        y = np.array([3.0, 4.0])
        assert f(x) is a and f(y) is f(y) and not f(y).flags.writeable
        assert len(f.query_log) == 2

    def test_table_mode_exact_keys(self):
        f = PhaseMapOracle.from_table(L2_2, L2_2, [(np.array([1.0, 0.0]), np.array([0.0, 1.0]))])
        assert np.allclose(f(np.array([1.0, 0.0])), [0.0, 1.0])
        with pytest.raises(MissingSamples):
            f(np.array([0.5, 0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_image_rejected(self, bad):
        f = PhaseMapOracle.from_callable(L2_2, L2_2, lambda c: np.array([c[0], bad]))
        with pytest.raises(ValueError, match="non-finite"):
            f(np.array([1.0, 2.0]))
        assert f.query_log == []

    def test_wrong_image_dimension(self):
        f = PhaseMapOracle.from_callable(L2_2, L2_2, lambda c: np.append(c, 0.0))
        with pytest.raises(DimensionMismatch):
            f(np.array([1.0, 2.0]))

    def test_conflicting_duplicate_rows_rejected(self):
        x = np.array([1.0, 0.5])
        with pytest.raises(ValueError, match=r"x = \[1\.0, 0\.5\] to two different fx"):
            PhaseMapOracle.from_table(L2_2, L2_2, [(x, 3.0 * x), (np.zeros(2), np.zeros(2)),
                                                   (x.copy(), x)])

    def test_identical_duplicate_rows_allowed(self):
        x = np.array([1.0, 0.5])
        f = PhaseMapOracle.from_table(L2_2, L2_2, [(x, -x), (x.copy(), -x.copy())])
        assert np.array_equal(f(x), -x)

    def test_missing_points_listing(self):
        f = PhaseMapOracle.from_table(L2_2, L2_2, [(np.array([1.0, 0.0]), np.array([0.0, 1.0]))])
        missing = f.missing_points([np.array([1.0, 0.0]), np.array([2.0, 0.0])])
        assert missing == [(2.0, 0.0)]

    @pytest.mark.parametrize("make", [
        lambda: identity_oracle(L2_2),
        lambda: generate_phase_isometry(generate_isometry(L2_2, 1), 1),
        lambda: PhaseMapOracle.from_table(L2_2, L2_2, [(np.array([1.0, 2.0]), np.array([2.0, 1.0]))]),
    ], ids=["callable", "generated", "table"])
    def test_vector_of_another_dimension_rejected(self, make):
        f = make()
        x = NormSpec.lp(3, 2).vector([1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatch, match=r"expected 2 coordinates, got shape \(3,\)"):
            f(x)
        assert f.query_log == [] and f._cache == {}
        assert np.array_equal(f(L2_2.vector([1.0, 2.0])), f([1.0, 2.0]))


IMAGE_SPACES = {  # the fuzz_mix families plus weighted lp
    "l1_n3": NormSpec.lp(3, 1), "l1_n8": NormSpec.lp(8, 1),
    "linf_n3": NormSpec.lp(3, math.inf), "linf_n8": NormSpec.lp(8, math.inf),
    "l2_n2": NormSpec.lp(2, 2), "l2_n6": NormSpec.lp(6, 2),
    "l1p5_n5": NormSpec.lp(5, 1.5), "l3_n5": NormSpec.lp(5, 3),
    "poly_n3": POLY_SPACE,
    "wl1p5_n3": NormSpec.weighted_lp(3, 1.5, [1.0, 2.0, 0.5]),
    "wlinf_n3": NormSpec.weighted_lp(3, math.inf, [1.0, 2.0, 0.5]),
}


L3_15 = NormSpec.lp(3, 1.5)
FRESH_X = np.array([[1.0, 2.0, -0.5], [0.0, 1.0, 3.0], [-2.0, 0.0, 1.0], [0.0, -1.0, -1.0],
                    [0.25, 0.5, 4.0], [3.0, -3.0, 0.0], [1.0, 1.0, 1.0]])
FRESH_X.setflags(write=False)


def image_batch(dim, rng):
    """Rows with a repeat, zero rows, a -0.0 twin and two rows cached beforehand.

    Returns (batch, points to query one at a time before the batch)."""
    X = 2.0 * rng.standard_normal((12, dim))
    X[2, 0] = 0.0
    X[3] = X[1]  # a repeat within the batch
    X[5] = 0.0
    X[6] = -0.0  # the zero row's key again
    X[8] = X[2]
    X[8, 0] = -0.0  # equal to row 2 as a key, not in its bits
    warm = [X[0].copy(), X[9].copy(), rng.standard_normal(dim)]
    return X, warm


def assert_same_oracle_state(f, g):
    """f and g hold the same log (order and bits) and cache (keys, bits, read-only rows)."""
    assert [p.tobytes() for p in f.query_log] == [p.tobytes() for p in g.query_log]
    assert list(f._cache) == list(g._cache)
    assert all(f._cache[k].tobytes() == g._cache[k].tobytes() for k in f._cache)
    assert not any(v.flags.writeable for v in f._cache.values())


def raised(call):
    with pytest.raises(Exception) as err:
        call()
    return type(err.value), str(err.value)


def images_parity(make, X, warm=()):
    """images on one fresh oracle against the row-by-row loop on another."""
    f, g = make(), make()
    for w in warm:
        f(w)
        g(w)
    got = f.images(X)
    want = oracles.scalar_images(g, X)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert_same_oracle_state(f, g)
    return f


class TestOracleImages:
    @pytest.mark.parametrize("even", [True, False], ids=["even", "uneven"])
    @pytest.mark.parametrize("name", list(IMAGE_SPACES))
    def test_generated_matches_row_by_row(self, name, even):
        space = IMAGE_SPACES[name]
        rng = np.random.default_rng(len(name))
        X, warm = image_batch(space.dim, rng)
        t = generate_isometry(space, 4)
        f = images_parity(lambda: generate_phase_isometry(t, 4, even=even), X, warm)
        assert f.fn_batch is not None
        # a second batch is all hits and leaves the state alone
        log = len(f.query_log)
        assert f.images(X[::-1]).tobytes() == oracles.scalar_images(f, X[::-1]).tobytes()
        assert len(f.query_log) == log

    def test_plain_callable(self, rng):
        space = NormSpec.lp(3, 1.5)
        X, warm = image_batch(3, rng)
        images_parity(lambda: PhaseMapOracle.from_callable(space, space,
                                                           lambda c: 2.0 * c[::-1]), X, warm)

    def test_table(self, rng):
        X, warm = image_batch(3, rng)
        pairs = [(x, np.sin(x)) for x in list(X) + warm]
        images_parity(lambda: PhaseMapOracle.from_table(POLY_SPACE, POLY_SPACE, pairs), X, warm)

    @pytest.mark.parametrize("make", [
        lambda: identity_oracle(L2_2),
        lambda: generate_phase_isometry(generate_isometry(L2_2, 1), 1),
        lambda: PhaseMapOracle.from_table(L2_2, L2_2, []),
    ], ids=["callable", "generated", "table"])
    def test_empty_batch(self, make):
        f = images_parity(make, np.zeros((0, 2)))
        assert f.images(np.zeros((0, 2))).shape == (0, 2)
        assert f.query_log == []

    def test_non_finite_input(self, rng):
        X = rng.standard_normal((6, 2))
        X[2, 1], X[4, 0] = np.nan, np.inf
        f, g = identity_oracle(L2_2), identity_oracle(L2_2)
        assert raised(lambda: f.images(X)) == raised(lambda: oracles.scalar_images(g, X))

    def test_wrong_input_width(self, rng):
        X = rng.standard_normal((3, 3))
        f, g = identity_oracle(L2_2), identity_oracle(L2_2)
        assert raised(lambda: f.images(X)) == raised(lambda: oracles.scalar_images(g, X))

    @staticmethod
    def with_batch(fn, batched):
        """The callable oracle of fn, with an fn_batch built from it when batched."""
        f = PhaseMapOracle.from_callable(L2_2, L2_2, fn)
        if batched:
            f.fn_batch = lambda rows: np.array([fn(r) for r in rows])
        return f

    @pytest.mark.parametrize("batched", [False, True], ids=["fn", "fn_batch"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_image(self, rng, batched, bad):
        X = rng.standard_normal((6, 2))
        poisoned = {tuple(X[2]), tuple(X[4])}

        def fn(c):
            return np.array([c[0], bad]) if tuple(c) in poisoned else c.copy()

        f, g = self.with_batch(fn, batched), self.with_batch(fn, False)
        got, want = raised(lambda: f.images(X)), raised(lambda: oracles.scalar_images(g, X))
        assert got == want and "non-finite" in got[1]

    @pytest.mark.parametrize("batched", [False, True], ids=["fn", "fn_batch"])
    def test_wrong_image_dimension(self, rng, batched):
        X = rng.standard_normal((4, 2))
        f = self.with_batch(lambda c: np.append(c, 0.0), batched)
        g = self.with_batch(lambda c: np.append(c, 0.0), False)
        got, want = raised(lambda: f.images(X)), raised(lambda: oracles.scalar_images(g, X))
        assert got == want and got[0] is DimensionMismatch

    def test_missing_table_row(self, rng):
        X = rng.standard_normal((6, 2))
        pairs = [(x, x) for k, x in enumerate(X) if k not in (2, 4)]
        f = PhaseMapOracle.from_table(L2_2, L2_2, pairs)
        g = PhaseMapOracle.from_table(L2_2, L2_2, pairs)
        with pytest.raises(MissingSamples) as err:
            f.images(X)
        assert err.value.points == [tuple(X[2])]
        assert (MissingSamples, str(err.value)) == raised(lambda: oracles.scalar_images(g, X))

    FRESH_ORACLES = {
        "callable": lambda: PhaseMapOracle.from_callable(L3_15, L3_15, lambda c: 2.0 * c[::-1]),
        "generated": lambda: generate_phase_isometry(generate_isometry(L3_15, 3), 3),
        "table": lambda: PhaseMapOracle.from_table(L3_15, L3_15, [(x, np.sin(x)) for x in FRESH_X]),
    }

    @staticmethod
    def fresh_batch(case):
        """Rows of FRESH_X: all new and distinct, new with repeats and a -0.0 twin,
        or with one row cached beforehand.  Returns (batch, points to query first)."""
        if case == "distinct":
            return FRESH_X[:6], []
        if case == "repeats":
            twin = FRESH_X[3].copy()
            twin[0] = -0.0  # the key of row 3, which has a +0.0 there
            return np.vstack([FRESH_X[:5], FRESH_X[1:3], twin[None]]), []
        return FRESH_X[:6], [FRESH_X[4].copy()]

    @pytest.mark.parametrize("case", ["distinct", "repeats", "one_cached"])
    @pytest.mark.parametrize("kind", list(FRESH_ORACLES))
    def test_fresh_block_matches_row_by_row(self, kind, case):
        X, warm = self.fresh_batch(case)
        images_parity(self.FRESH_ORACLES[kind], X, warm)

    @pytest.mark.parametrize("kind", list(FRESH_ORACLES))
    def test_written_result_leaves_the_cache(self, kind):
        f = self.FRESH_ORACLES[kind]()
        X = FRESH_X[:6]
        got = f.images(X)
        want = got.copy()
        got[:] = 7.0
        assert all(np.array_equal(f._cache[k], w) for k, w in zip(_row_keys(X), want))
        assert np.array_equal(f.images(X), want) and np.array_equal(f.images(X[:1]), want[:1])

    @pytest.mark.parametrize("kind", list(FRESH_ORACLES))
    def test_mutated_input_leaves_the_log(self, kind):
        f = self.FRESH_ORACLES[kind]()
        X = FRESH_X[:6].copy()
        f.images(X)
        X[:] = 5.0
        assert [p.tolist() for p in f.query_log] == FRESH_X[:6].tolist()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_fresh_non_finite_row_commits_nothing(self, bad):
        X = FRESH_X[:6]
        f = PhaseMapOracle.from_callable(L3_15, L3_15, lambda c: c.copy())

        def fn_batch(rows):
            V = rows.copy()
            V[4, 1] = bad
            return V

        f.fn_batch = fn_batch
        with pytest.raises(ValueError, match=re.escape(f"non-finite vector at {list(X[4])}")):
            f.images(X)
        assert f.query_log == [] and f._cache == {}

    def test_point_committed_during_the_fetch_keeps_its_image(self):
        """fn_batch commits row 2 through f(x) before it returns; here fn
        disagrees with fn_batch, so the answer shows which image was kept."""
        X = FRESH_X[:6]
        f = PhaseMapOracle.from_callable(L3_15, L3_15, lambda c: -c)
        earlier = []

        def fn_batch(rows):
            earlier.append(f(rows[2]))
            return rows.copy()

        f.fn_batch = fn_batch
        got = f.images(X)
        key = _row_keys(X[2:3])[0]
        assert f._cache[key] is earlier[0]
        assert [p.tobytes() for p in f.query_log].count(X[2].tobytes()) == 1
        assert len(f.query_log) == len(X)
        want = X.copy()
        want[2] = -X[2]
        assert np.array_equal(got, want)


class TestTableOracle:
    """``from_table`` validates and stacks the table once; ``images`` answers
    with one gather and commits nothing when a row fails."""

    @staticmethod
    def signed_zero_table(rng):
        """Rows with identical repeats and x keys that differ only in the sign of a zero."""
        X = rng.standard_normal((6, 3))
        X[1, 0] = 0.0
        pairs = [(x, np.cos(x)) for x in X]
        pairs[1][1][1] = 0.0
        pairs.append((X[2].copy(), np.cos(X[2])))  # an identical repeat
        twin = X[1].copy()
        twin[0] = -0.0  # the key of row 1 again
        pairs.insert(1, (twin, pairs[1][1].copy()))
        fx_last = pairs[1][1].copy()
        fx_last[1] = -0.0  # equal as values, so not a conflict
        pairs.append((X[1].copy(), fx_last))
        return X, twin, pairs

    def test_images_match_row_by_row(self, rng):
        X, twin, pairs = self.signed_zero_table(rng)
        batch = np.vstack([X, twin, X[::-1], X[2]])
        warm = [X[4].copy()]
        f = images_parity(lambda: PhaseMapOracle.from_table(POLY_SPACE, POLY_SPACE, pairs),
                          batch, warm)
        assert f.images(twin[None]).tobytes() == f.images(X[1:2]).tobytes()
        # a repeated x answers with its last row, as a dict filled row by row does
        assert math.copysign(1.0, f(X[1])[1]) == -1.0
        assert len(f.table) == 6 and f.table_images.shape == (len(pairs), 3)

    def test_missing_row_commits_nothing(self, rng):
        X = rng.standard_normal((6, 2))
        f = PhaseMapOracle.from_table(L2_2, L2_2, [(x, x) for k, x in enumerate(X) if k not in (2, 4)])
        batch = np.vstack([X[:2], X[4], X[2]])
        with pytest.raises(MissingSamples) as err:
            f.images(batch)
        assert err.value.points == [tuple(X[4])]  # the first missing row, alone
        assert f.query_log == [] and f._cache == {}
        assert f.missing_points(list(batch)) == [tuple(X[4]), tuple(X[2])]

    @pytest.mark.parametrize("bad_x,bad_fx,message", [
        (3, None, "space has dim 2, sample has shape (3,)"),
        (None, 1, "space has dim 2, sample has shape (1,)"),
        (4, 1, "space has dim 2, sample has shape (3,)"),  # x rows are checked first
    ], ids=["x", "fx", "x-before-fx"])
    def test_wrong_shape_row(self, rng, bad_x, bad_fx, message):
        X = rng.standard_normal((6, 2))
        pairs = [(x, 2.0 * x) for x in X]
        if bad_x is not None:
            pairs[bad_x] = (np.append(X[bad_x], 1.0), pairs[bad_x][1])
        if bad_fx is not None:
            pairs[bad_fx] = (X[bad_fx], np.ones(1))
        with pytest.raises(DimensionMismatch) as err:
            PhaseMapOracle.from_table(L2_2, L2_2, pairs)
        assert str(err.value) == f"dimension mismatch: {message}"

    @pytest.mark.parametrize("space,x,fx", [
        (L2_2, [1.0, 2.0], [math.nan, 1.0]),
        (L2_2, [1.0, 2.0], [math.inf, 1.0]),
        (NormSpec.lp(2, 1), [1e308, 1e308], [1e308, 1e308]),
        (NormSpec.lp(2, 1), [1.0, 0.0], [1e308, 1e308]),
        (NormSpec.lp(2, 3), [1e103, 0.0], [1e103, 0.0]),
        (POLY_SPACE, [1e308, 0.0, 0.0], [1e308, 0.0, 0.0]),
    ], ids=["nan-fx", "inf-fx", "l1-x", "l1-fx", "l3-power", "poly"])
    def test_non_finite_or_overflowing_row_rejected(self, space, x, fx):
        ok = (np.eye(space.dim)[0], np.eye(space.dim)[0])
        with pytest.raises(ValueError, match=re.escape(f"sample at x = {x} is too large")):
            PhaseMapOracle.from_table(space, space, [ok, (np.array(x), np.array(fx)), ok])

    def test_largest_finite_rows_accepted(self):
        space = NormSpec.lp(2, 1)
        big = np.array([4e307, 4e307])
        f = PhaseMapOracle.from_table(space, space, [(big, big), (-big, -big),
                                                     (np.eye(2)[0], np.eye(2)[0])])
        report = check_phase_equation(f, [(big, big), (big, -big), (big, np.eye(2)[0])])
        assert report.passed and math.isfinite(report.max_discrepancy)


def signed_key_rows(dim, rng):
    """Rows whose keys the sign of a zero must not split and the sign of a
    denormal must: ±0 twins in several coordinates, ±5e-324 and repeats."""
    X = 2.0 * rng.standard_normal((12, dim))
    X[1] = X[0]  # a repeat within the batch
    X[2] = 0.0
    X[3] = -0.0  # the zero row's key again
    X[4, ::2] = 0.0
    X[5] = X[4]
    X[5, ::2] = -0.0  # row 4's key again
    X[6, 0] = 5e-324
    X[7] = X[6]
    X[7, 0] = -5e-324  # a key of its own
    X[8] = X[7]  # a repeat of the negative denormal
    X[9, -1] = -0.0
    X[10] = X[9]
    X[10, -1] = 0.0  # row 9's key again
    return X


class TestByteKeys:
    """The cache keys each row by its bytes after ``+ 0.0`` and behaves as the
    tuple-keyed cache did (``oracles.tuple_keyed``)."""

    def test_keys_equal_exactly_when_tuples_equal(self, rng):
        for dim in (1, 8, 64):
            X = signed_key_rows(dim, rng)
            keys, tuples = _row_keys(X), [tuple(row) for row in X.tolist()]
            assert all(type(k) is bytes and len(k) == 8 * dim for k in keys)
            assert [[a == b for b in keys] for a in keys] == [[a == b for b in tuples] for a in tuples]
            assert keys[2] == keys[3] and keys[4] == keys[5] and keys[6] != keys[7]
            assert keys[0] == (X[0] + 0.0).tobytes()

    @staticmethod
    def spied(f):
        """f, recording the rows its fn and fn_batch are asked for."""
        seen = []
        fn, fn_batch = f.fn, f.fn_batch
        if fn is not None:
            f.fn = lambda c: (seen.append(("fn", c.tobytes())), fn(c))[1]
        if fn_batch is not None:
            f.fn_batch = lambda rows: (seen.append(("batch", rows.tobytes())), fn_batch(rows))[1]
        return seen

    @staticmethod
    def steps(f, X, fresh):
        """Points cached by a call then hit by images, and the reverse; the
        answer and the log length after each step."""
        twin = fresh + 0.0  # fresh has -0.0 in coordinate 0
        calls = [lambda: f(X[5]), lambda: f.images(X), lambda: f(X[3]), lambda: f(X[7]),
                 lambda: f(X[10]), lambda: f(fresh), lambda: f.images(np.vstack([twin, X[::-1]])),
                 lambda: f.images(np.vstack([-X[0], -X[0], fresh])), lambda: f(-X[0])]
        out = []
        for call in calls:
            v = call()
            out.append((np.asarray(v).tobytes(), len(f.query_log)))
        return out

    @pytest.mark.parametrize("kind", ["even", "uneven", "callable", "table"])
    @pytest.mark.parametrize("dim", [1, 8, 64])
    def test_matches_tuple_keyed_cache(self, rng, dim, kind):
        space = NormSpec.lp(dim, 2)
        X = signed_key_rows(dim, rng)
        fresh = rng.standard_normal(dim)
        fresh[0] = -0.0
        t = generate_isometry(space, 3)
        pairs = [(x, np.sin(x)) for x in list(X) + [fresh, -X[0]]]
        make = {
            "even": lambda: generate_phase_isometry(t, 3),
            "uneven": lambda: generate_phase_isometry(t, 3, even=False),
            "callable": lambda: PhaseMapOracle.from_callable(space, space, lambda c: 2.0 * c[::-1]),
            "table": lambda: PhaseMapOracle.from_table(space, space, pairs),
        }[kind]
        f, ref = make(), oracles.tuple_keyed(make())
        if kind == "table":
            ref.table = oracles.tuple_keyed_table(ref.table)
        seen_f, seen_ref = self.spied(f), self.spied(ref)
        assert self.steps(f, X, fresh) == self.steps(ref, X, fresh)
        assert seen_f == seen_ref
        assert [p.tobytes() for p in f.query_log] == [p.tobytes() for p in ref.query_log]
        assert list(f._cache) == _row_keys(np.array(list(ref._cache)).reshape(-1, dim))
        assert [v.tobytes() for v in f._cache.values()] == [v.tobytes() for v in ref._cache.values()]
        assert all(not v.flags.writeable for v in f._cache.values())

    def test_missing_table_row_names_the_point(self):
        X = np.array([[1.0, -0.0], [5e-324, 2.0]])
        f = PhaseMapOracle.from_table(L2_2, L2_2, [(X[0], X[0]), (np.array([-5e-324, 2.0]), X[1])])
        assert f(np.array([1.0, 0.0])).tobytes() == X[0].tobytes()  # the -0.0 row's entry
        with pytest.raises(MissingSamples) as err:
            f.images(X)
        assert err.value.points == [(5e-324, 2.0)]
        assert [p.tobytes() for p in f.query_log] == [np.array([1.0, 0.0]).tobytes()]


class TestPhaseEquation:
    def test_identity_passes(self, rng):
        f = identity_oracle(L2_2)
        report = check_phase_equation(f, random_pairs(rng, 2, 50))
        assert report.passed
        assert report.max_discrepancy == 0.0

    def test_sine_curve_is_phase_isometry(self, rng):
        # the into-but-not-onto fixture: t -> (t, sin t) into the sup-norm plane
        f = PhaseMapOracle.from_callable(LINE, LINF_2,
                                         lambda c: np.array([c[0], math.sin(c[0])]))
        pairs = random_pairs(rng, 1, 500, scale=5.0)
        report = check_phase_equation(f, pairs)
        assert report.passed
        assert report.max_discrepancy <= 1e-10

    def test_shift_fails_at_origin(self):
        c = np.array([0.7, -0.2])
        f = PhaseMapOracle.from_callable(L2_2, L2_2, lambda v: v + c)
        report = check_phase_equation(f, [(np.zeros(2), np.zeros(2))])
        assert not report.passed
        assert np.allclose(report.failures[0].x, 0.0)

    def test_symmetry_in_the_pair(self, rng):
        t = generate_isometry(L2_2, 3)
        f = generate_phase_isometry(t, 3)
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        r1 = check_phase_equation(f, [(x, y)])
        r2 = check_phase_equation(f, [(y, x)])
        assert r1.passed == r2.passed
        assert r1.max_discrepancy == pytest.approx(r2.max_discrepancy, abs=1e-15)


def _phase_fixtures():
    """(oracle, pairs) cases for the checker's reference comparison."""
    rng = np.random.default_rng(515)
    plane = NormSpec.lp(2, 2)
    shift = PhaseMapOracle.from_callable(plane, plane, lambda c: c + np.array([0.4, -0.1]))
    shift_pairs = random_pairs(rng, 2, 60) + [(np.zeros(2), np.zeros(2))]
    absmap = PhaseMapOracle.from_callable(plane, plane, np.abs)
    curve = PhaseMapOracle.from_callable(LINE, LINF_2,
                                         lambda c: np.array([c[0], math.sin(c[0])]))
    fixtures = [pytest.param(shift, shift_pairs, id="shift"),
                pytest.param(absmap, random_pairs(rng, 2, 60), id="abs"),
                pytest.param(curve, random_pairs(rng, 1, 300, scale=6.0), id="sine-curve")]
    for space, name in zip(space_zoo(), zoo_ids()):
        f = generate_phase_isometry(generate_isometry(space, 8), 8)
        pairs = random_pairs(rng, space.dim, 200)
        pairs += [(x, x) for x, _ in pairs[:10]] + [(x, -x) for x, _ in pairs[10:20]]
        fixtures.append(pytest.param(f, pairs, id=f"generated-{name}"))
    return fixtures


class TestBatchedPhaseCheck:
    @pytest.mark.parametrize("f,pairs", _phase_fixtures())
    def test_matches_scalar_reference(self, f, pairs):
        passed, worst, failures = oracles.scalar_phase_check(f, pairs)
        report = check_phase_equation(f, pairs)
        assert report.passed == passed
        assert report.max_discrepancy == worst
        assert [(list(c.x), list(c.y), c.discrepancy) for c in report.failures] == failures
        assert len(report.checks) == len(pairs)

    @pytest.mark.parametrize("f,pairs", _phase_fixtures())
    def test_every_pair_matches_scalar_reference(self, f, pairs):
        want = oracles.scalar_pair_checks(f, pairs)
        report = check_phase_equation(f, pairs)
        assert [(list(c.x), list(c.y), c.passed, c.discrepancy) for c in report.checks] == want
        got = report.to_dict(include_passing=True)
        assert got["checks"] == [{"x": x, "y": y, "passed": ok, "discrepancy": d}
                                 for x, y, ok, d in want]
        assert got["failures"] == [{"x": x, "y": y, "discrepancy": d}
                                   for x, y, ok, d in want if not ok]
        assert got["pairs"] == len(pairs) and got["passed"] == all(c[2] for c in want)

    def test_no_pairs(self):
        report = check_phase_equation(identity_oracle(L2_2), [])
        assert report.passed and report.checks == [] and report.max_discrepancy == 0.0
        assert report.failures == [] and report.x.shape == (0, 2)
        assert report.to_dict(include_passing=True) == {
            "pairs": 0, "passed": True, "max_discrepancy": 0.0, "failures": [], "checks": []}

    def test_nan_discrepancy_fails(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        FX = X.copy()
        FX[1, 0] = np.nan
        report = check_phase_equation_batch(L2_2, L2_2, X, X, FX, FX)
        assert [c.passed for c in report.checks] == [True, False]
        assert math.isnan(report.failures[0].discrepancy)
        assert math.isnan(report.max_discrepancy)

    def test_nan_pair_in_report(self, rng):
        """A NaN pair fails in ``checks``, ``failures`` and the JSON form alike,
        and the other pairs keep the scalar reference's verdicts."""
        f = identity_oracle(L2_2)
        pairs = random_pairs(rng, 2, 5)
        X = np.array([x for x, _ in pairs])
        Y = np.array([y for _, y in pairs])
        FX, FY = X.copy(), Y.copy()
        FX[3, 1] = np.nan
        report = check_phase_equation_batch(L2_2, L2_2, X, Y, FX, FY)
        want = oracles.scalar_pair_checks(f, pairs)
        want[3] = (want[3][0], want[3][1], False, math.nan)
        got = report.to_dict(include_passing=True)
        assert json.dumps(got["checks"]) == json.dumps(
            [{"x": x, "y": y, "passed": ok, "discrepancy": d} for x, y, ok, d in want])
        assert json.dumps(got["failures"]) == json.dumps(
            [{"x": want[3][0], "y": want[3][1], "discrepancy": math.nan}])
        assert [c.x.tolist() for c in report.failures] == [want[3][0]]
        assert not got["passed"] and math.isnan(got["max_discrepancy"])


class TestWignerEquation:
    def test_orthogonal_with_signs_passes(self, rng):
        space = NormSpec.lp(3, 2)
        t = generate_isometry(space, 11)
        f = generate_phase_isometry(t, 11)
        report = check_wigner_equation(f, random_pairs(rng, 3, 200))
        assert report.passed

    def test_dilation_fails(self):
        f = PhaseMapOracle.from_callable(L2_2, L2_2, lambda c: 2.0 * c)
        e1 = np.array([1.0, 0.0])
        report = check_wigner_equation(f, [(e1, e1)])
        assert not report.passed
        assert report.max_discrepancy == pytest.approx(3.0)

    def test_abs_map_fails(self):
        f = PhaseMapOracle.from_callable(L2_2, L2_2, np.abs)
        report = check_wigner_equation(f, [(np.array([1.0, 1.0]), np.array([1.0, -1.0]))])
        assert not report.passed
        assert report.max_discrepancy == pytest.approx(2.0)

    def test_matches_pairwise_reference(self, rng):
        f = PhaseMapOracle.from_callable(L2_2, L2_2, lambda c: np.array([c[0], -2.0 * c[1]]))
        pairs = random_pairs(rng, 2, 30) + [(np.array([1.0, 0.0]), np.array([0.0, 5.0]))]
        report = check_wigner_equation(f, pairs)
        want, worst = [], 0.0
        for x, y in pairs:
            got, target = abs(float(np.dot(f(x), f(y)))), abs(float(np.dot(x, y)))
            disc = abs(got - target)
            worst = max(worst, disc)
            want.append((list(x), list(y), disc <= 1e-9 * (1.0 + max(got, target)), disc))
        assert [(list(c.x), list(c.y), c.passed, c.discrepancy) for c in report.checks] == want
        assert report.max_discrepancy == worst and len(report.failures) == sum(
            not ok for *_, ok, _ in want)

    def test_requires_euclidean(self):
        f = identity_oracle(NormSpec.lp(2, 1))
        with pytest.raises(ValueError, match="p=2"):
            check_wigner_equation(f, [])

    def test_wigner_implies_phase(self, rng):
        # on Euclidean spaces the inner-product equation subsumes the norm one
        space = NormSpec.lp(4, 2)
        for seed in range(5):
            f = generate_phase_isometry(generate_isometry(space, seed), seed)
            pairs = random_pairs(rng, 4, 100)
            assert check_wigner_equation(f, pairs).passed
            report = check_phase_equation(f, pairs)
            assert report.max_discrepancy <= 1e-8

    def test_norm_preservation_from_diagonal_pairs(self, rng):
        space = NormSpec.lp(3, 2)
        f = generate_phase_isometry(generate_isometry(space, 2), 2)
        xs = [rng.standard_normal(3) for _ in range(100)]
        report = check_phase_equation(f, [(x, x) for x in xs])
        assert report.passed
        for x in xs:
            assert space.norm_of(f(x)) == pytest.approx(space.norm_of(x), rel=1e-12)


class TestLemma21Suite:
    def test_even_generator_passes_surjective_suite(self, rng):
        space = NormSpec.lp(3, 1)
        f = generate_phase_isometry(generate_isometry(space, 5), 5, even=True)
        xs = [rng.standard_normal(3) for _ in range(40)]
        report = check_phase_invariants(f, xs, surjective_mode=True)
        assert report.passed
        assert report.odd and report.injective

    def test_uneven_generator_fails_oddness(self, rng):
        space = NormSpec.lp(3, 2)
        # search seeds for a draw with an actual odd-parity break on the sample
        for seed in range(50):
            f = generate_phase_isometry(generate_isometry(space, seed), seed, even=False)
            xs = [rng.standard_normal(3) for _ in range(40)]
            report = check_phase_invariants(f, xs, surjective_mode=True)
            assert report.norm_preserved and report.sign_symmetric
            if not report.odd:
                assert report.witnesses["odd"]
                return
        pytest.fail("no oddness violation found across seeds")

    def test_manual_uneven_sign_fails_at_witness(self):
        t = LinearMap(np.eye(2), L2_2, L2_2, isometric=True)
        x0 = np.array([1.0, 0.0])

        def fn(c):
            if np.allclose(c, -x0):
                return -c  # eps(-x0) = -1 while eps(x0) = +1
            return c.copy()

        f = PhaseMapOracle.from_callable(L2_2, L2_2, fn)
        report = check_phase_invariants(f, [x0], surjective_mode=True)
        assert not report.odd
        assert np.allclose(report.witnesses["odd"][0], x0)

    def test_sign_flip_oracle_passes_but_is_not_isometry(self):
        x0 = np.array([1.0, 0.0])
        f = make_sign_flip_oracle(L2_2, x0)
        probe = [x0, np.array([0.0, 1.0]), np.array([1.0, 1.0]), np.array([0.3, -2.0])]
        report = check_phase_invariants(f, probe, surjective_mode=True)
        assert report.passed
        # yet distances through x0 are distorted
        x = np.array([1.0, 1.0])
        dist_image = L2_2.norm_of(f(x0) - f(x))
        dist_domain = L2_2.norm_of(x0 - x)
        assert abs(dist_image - dist_domain) > 0.5


def _invariant_sample(space, seed, extra=()):
    """Random points with one repeated point and a zero row, then ``extra``."""
    rng = np.random.default_rng(seed)
    xs = [3.0 * rng.standard_normal(space.dim) for _ in range(6)]
    return [*xs, xs[2].copy(), np.zeros(space.dim), *extra]


def _table_with_merged_images(space):
    """A table over its points and their negatives in which two distinct points
    share an image (injectivity fails) and one point's negative keeps its image
    (oddness fails)."""
    xs = _invariant_sample(space, 11)
    fx = {tuple(x): x[::-1].copy() for x in xs}  # a coordinate swap is an l-inf isometry
    fx.update({tuple(-x): -x[::-1] for x in xs})
    fx[tuple(-xs[1])] = xs[1][::-1].copy()
    q1, q2 = np.array([1.0, 2.0]), np.array([-2.0, 1.0])
    for q, s in ((q1, 1.0), (-q1, -1.0), (q2, 1.0), (-q2, -1.0)):
        fx[tuple(q)] = s * q1[::-1]
    pairs = [(np.array(k), v) for k, v in fx.items()]
    return (PhaseMapOracle.from_table(space, space, pairs, declared_surjective=True),
            xs + [q1, q2])


class TestInvariantsAgainstScalarReference:
    """``check_phase_invariants`` on arrays against the one-point-at-a-time suite."""

    @pytest.mark.parametrize("name", ["even", "uneven", "sign-flip", "table"])
    @pytest.mark.parametrize("surjective", [True, False], ids=["surjective", "plain"])
    def test_report_and_query_log_match(self, name, surjective):
        def build():
            if name == "even":  # a row near 1e308 has |f(x)| - |x| = inf - inf
                space = NormSpec.lp(3, 1)
                t = generate_isometry(space, 4)
                huge = np.array([1e308, 1e308, 0.0])
                return generate_phase_isometry(t, 4), [huge] + _invariant_sample(space, 4)
            if name == "uneven":  # x beside -x: the two rays of a line draw their own signs
                space = NormSpec.lp(3, 2)
                xs = _invariant_sample(space, 5)
                return (generate_phase_isometry(generate_isometry(space, 5), 5, even=False),
                        xs + [-x for x in xs[:4]])
            if name == "sign-flip":
                x0 = np.array([1.0, -0.5])
                return make_sign_flip_oracle(L2_2, x0), _invariant_sample(L2_2, 6, [x0, -x0])
            return _table_with_merged_images(LINF_2)

        f, xs = build()
        g, _ = build()
        with np.errstate(over="ignore", invalid="ignore"):  # the row near 1e308
            report = check_phase_invariants(f, xs, surjective_mode=surjective)
            reference = oracles.scalar_invariants(g, xs, surjective, DEFAULT_TOL)
        assert report.to_dict() == reference
        assert [p.tobytes() for p in f.query_log] == [p.tobytes() for p in g.query_log]
        assert not math.isnan(report.max_norm_deviation)
        if name == "even":
            with np.errstate(over="ignore", invalid="ignore"):
                assert math.isnan(f.codomain.norm_of(f(xs[0])) - f.domain.norm_of(xs[0]))
        if surjective and name in ("uneven", "table"):
            assert report.injective is False and report.witnesses["injective"]
        if surjective and name == "table":
            assert report.witnesses["odd"] == [list(xs[1])]

    def test_failing_batch_commits_nothing(self):
        f = generate_phase_isometry(generate_isometry(L2_2, 1), 1)
        with pytest.raises(DimensionMismatch):
            check_phase_invariants(f, [np.ones(2), np.ones(3)])
        with pytest.raises(ValueError, match="finite"):
            check_phase_invariants(f, [np.ones(2), np.array([np.nan, 1.0])])
        assert f.query_log == [] and not f._cache


class TestGenerators:
    @pytest.mark.parametrize("space", space_zoo(), ids=zoo_ids())
    def test_isometry_sample_check(self, space):
        t = generate_isometry(space, 7)
        assert t.isometric
        assert t.verify_isometric(seed=123) <= 1e-9

    @pytest.mark.parametrize("space", space_zoo(), ids=zoo_ids())
    def test_verify_isometric_matches_scalar_reference(self, space):
        rng = np.random.default_rng(11)
        maps = [generate_isometry(space, 3),
                LinearMap(rng.standard_normal((space.dim, space.dim)), space, space)]
        for t in maps:
            for seed, samples in ((0, 100), (5, 1), (9, 0), (123, 37)):
                got = t.verify_isometric(seed=seed, samples=samples)
                assert got == oracles.scalar_verify_isometric(t, seed, samples)

    def test_l1_signed_permutation(self):
        t = generate_isometry(NormSpec.lp(3, 1), 7)
        m = np.abs(t.matrix)
        assert np.allclose(m.sum(axis=0), 1.0) and np.allclose(m.sum(axis=1), 1.0)
        assert set(np.abs(t.matrix[t.matrix != 0.0])) == {1.0}

    def test_euclidean_orthogonal(self):
        t = generate_isometry(L2_2, 9)
        assert np.allclose(t.matrix.T @ t.matrix, np.eye(2), atol=1e-12)

    def test_linf_signed_permutation_columns(self):
        t = generate_isometry(NormSpec.lp(4, float("inf")), 1)
        for j in range(4):
            col = t.matrix[:, j]
            assert np.sum(col != 0.0) == 1
            assert abs(col[np.nonzero(col)][0]) == 1.0

    def test_polyhedral_falls_back_to_identity(self):
        space = NormSpec.polyhedral(2, [[1, 0], [0, 1]])
        t = generate_isometry(space, 3)
        assert np.allclose(t.matrix, np.eye(2))
        assert t.note is not None

    @pytest.mark.parametrize("space", space_zoo(), ids=zoo_ids())
    def test_generator_soundness(self, space, rng):
        f = generate_phase_isometry(generate_isometry(space, 13), 13)
        report = check_phase_equation(f, random_pairs(rng, space.dim, 1000))
        assert report.passed
        assert report.max_discrepancy <= 1e-10

    def test_constant_positive_sign_reproduces_t(self):
        t = generate_isometry(L2_2, 21)
        f = generate_phase_isometry(t, 21)
        sign_of = f.hidden_truth["sign_of"]
        x = np.array([0.3, 0.7])
        expected = sign_of(x) * (t.matrix @ x)
        assert np.allclose(f(x), expected)

    def test_even_oracle_is_odd(self, rng):
        f = generate_phase_isometry(generate_isometry(L2_2, 31), 31, even=True)
        for _ in range(50):
            x = rng.standard_normal(2)
            assert np.allclose(f(-x), -f(x))

    def test_requires_isometric_map(self):
        t = LinearMap(2.0 * np.eye(2), L2_2, L2_2, isometric=False)
        with pytest.raises(ValueError):
            generate_phase_isometry(t, 0)


class TestSignHash:
    """The batched sign hash equals ``_hash_sign`` on each row's ray key."""

    @staticmethod
    def rows(dim, rng, batch="mixed"):
        """30 rows with zero rows, -0.0 and a line's two rays; or 5 zero rows; or none."""
        if batch == "empty":
            return np.zeros((0, dim))
        if batch == "all_zero":
            X = np.zeros((5, dim))
            X[1] = -0.0
            X[2, 0] = -0.0
            return X
        X = rng.standard_normal((30, dim))
        X[3] = 0.0
        X[4] = -0.0
        X[5, 0] = -0.0
        X[6] = -X[7]  # a line's two rays
        X[8, min(1, dim - 1)] = -1e-14  # rounds to -0.0 in the key, which folds into +0.0
        return X

    @pytest.mark.parametrize("batch", ["mixed", "all_zero", "empty"])
    @pytest.mark.parametrize("seed", [0, 7, 2 ** 63 + 5, 2 ** 64 + 3])
    @pytest.mark.parametrize("oriented", [False, True])
    @pytest.mark.parametrize("space", [  # the 8-byte seed and a key of 15 doubles fill 128 bytes
        NormSpec.lp(3, 1), NormSpec.lp(4, 2), POLY_SPACE, NormSpec.lp(1, 2),
        NormSpec.lp(15, 1.5), NormSpec.lp(16, 1), NormSpec.lp(17, math.inf),
    ], ids=["l1", "l2", "poly", "dim1", "dim15", "dim16", "dim17"])
    def test_matches_scalar_hash(self, rng, space, oriented, seed, batch):
        X = self.rows(space.dim, rng, batch)
        got = _hash_signs(seed, _rounded_rays(X, space, oriented), np.any(X, axis=1))
        want = [_hash_sign(seed, ray_key(x, space, oriented)) if np.any(x) else 1 for x in X]
        assert got.tolist() == want and got.shape == (len(X),)

    @pytest.mark.parametrize("even", [True, False], ids=["even", "uneven"])
    def test_generated_signs_match_scalar_hash(self, rng, even):
        space = NormSpec.lp(3, 1.5)
        f = generate_phase_isometry(generate_isometry(space, 9), 9, even=even)
        t = f.hidden_truth["T"]
        X = self.rows(3, rng)
        want = [_hash_sign(9, ray_key(x, space, not even)) if np.any(x) else 1 for x in X]
        assert f.hidden_truth["signs_of"](X).tolist() == want
        assert np.array_equal(f.images(X), np.array(want)[:, None] * _row_products(t.matrix, X))


class TestConcurrency:
    def test_parallel_queries_are_consistent(self, rng):
        from concurrent.futures import ThreadPoolExecutor

        space = NormSpec.lp(4, 2)
        f = generate_phase_isometry(generate_isometry(space, 77), 77)
        points = [rng.standard_normal(4) for _ in range(40)]
        sequential = [f(p).copy() for p in points]
        f2 = generate_phase_isometry(generate_isometry(space, 77), 77)
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(f2, points * 5))
        for i, p in enumerate(points * 5):
            assert np.array_equal(parallel[i], sequential[i % len(points)])
        assert len(f2.query_log) == len(points)


class TestSampleFiles:
    def test_roundtrip(self, tmp_path, rng):
        f = identity_oracle(L2_2)
        points = [rng.standard_normal(2) for _ in range(10)]
        path = tmp_path / "samples.jsonl"
        write_samples(str(path), f, points)
        pairs = read_samples(str(path))
        assert len(pairs) == 10
        for (x, fx), p in zip(pairs, points):
            assert np.array_equal(x, p)
            assert np.array_equal(fx, p)

    def test_truncated_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"x": [1.0, 0.0], "fx": [1.0, 0.0]}\n{"x": [0.5,\n')
        with pytest.raises(SampleFormatError) as err:
            read_samples(str(path))
        assert err.value.line_no == 2

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_values_rejected(self, tmp_path, value):
        path = tmp_path / "nonfinite.jsonl"
        path.write_text('{"x": [1.0, 0.0], "fx": [1.0, 0.0]}\n'
                        f'{{"x": [0.5, 0.0], "fx": [0.5, {value}]}}\n')
        with pytest.raises(SampleFormatError, match="finite") as err:
            read_samples(str(path))
        assert err.value.line_no == 2
