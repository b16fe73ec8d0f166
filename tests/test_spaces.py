import copy
import itertools
import json
import math

import numpy as np
import pytest

import oracles
from conftest import space_zoo, zoo_ids
from phaseiso import (DEFAULT_TOL, NormSpec, Tolerances, Vector, birkhoff_verdict,
                      directional_derivative, finite_difference_directional, is_w_star_exposed,
                      norm, plan_queries, support_set)
from phaseiso.decomposition import _seed_free_part, route_for
from phaseiso.spaces import _facet_point

L1_2 = NormSpec.lp(2, 1)
L2_2 = NormSpec.lp(2, 2)
LINF_2 = NormSpec.lp(2, float("inf"))


class TestNormEvaluation:
    def test_l1(self):
        assert L1_2.norm_of([3, -4]) == 7.0

    def test_linf(self):
        assert LINF_2.norm_of([3, -4]) == 4.0

    def test_polyhedral(self):
        space = NormSpec.polyhedral(2, [[1, 1], [1, -1]])
        # max(|<(1,1),(1,0)>|, |<(1,-1),(1,0)>|) = 1
        assert space.norm_of([1, 0]) == 1.0

    def test_weighted(self):
        space = NormSpec.weighted_lp(2, 1, [1.0, 2.0])
        assert space.norm_of([3, -4]) == 3 + 8

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            L1_2.norm_of([1, 2, 3])

    def test_norm_op_on_vector(self):
        assert norm(L1_2.vector([3, -4])) == 7.0


class TestNormsOf:
    # numpy sums 8 or more terms pairwise, so the dims past 8 check that the row
    # sums of norms_of and the sums of norm_of still group their terms alike
    @pytest.mark.parametrize("dim", [*range(1, 9), 9, 16, 17, 33])
    def test_bit_identical_to_norm_of(self, dim):
        rng = np.random.default_rng(dim)
        w = rng.uniform(0.25, 4.0, dim)
        functionals = np.vstack([np.eye(dim), rng.standard_normal((3, dim))])
        spaces = [NormSpec.lp(dim, p) for p in (1, 1.5, 2, 3, math.inf)]
        spaces += [NormSpec.weighted_lp(dim, p, w) for p in (1, 1.5, 2, 3, math.inf)]
        spaces.append(NormSpec.polyhedral(dim, functionals))
        for space in spaces:
            for magnitude in (1e-3, 1.0, 1e3):
                rows = magnitude * rng.standard_normal((300, dim))
                want = np.array([space.norm_of(x) for x in rows])
                got = space.norms_of(rows)
                assert got.dtype == np.float64 and got.shape == (300,)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), \
                    (space, magnitude)

    def test_empty_and_mismatched_rows(self):
        assert L1_2.norms_of(np.zeros((0, 2))).shape == (0,)
        with pytest.raises(ValueError, match="dimension"):
            L1_2.norms_of(np.zeros((4, 3)))


class TestConstruction:
    def test_bad_p(self):
        with pytest.raises(ValueError):
            NormSpec.lp(2, 0.5)

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            NormSpec.lp(0, 2)

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            NormSpec.weighted_lp(2, 1, [1.0, -1.0])

    def test_fields_of_other_kinds_are_ignored(self):
        # the norm paths tell kinds apart by p and functionals, so a stray one must not leak in
        poly = NormSpec(kind="polyhedral", dim=2, p=1.0, functionals=[[1, 1], [1, -1]])
        assert poly.p is None and poly == NormSpec.polyhedral(2, [[1, 1], [1, -1]])
        assert poly.norm_of([1, 0]) == 1.0 and support_set(poly.vector([1, 0])).is_smooth is False
        plain = NormSpec(kind="lp", dim=2, p=1.0, weights=[2.0, 2.0], functionals=[[3, 0], [0, 3]])
        assert plain.weights is None and plain.functionals is None
        assert plain == L1_2 and plain.norm_of([3, -4]) == 7.0

    @pytest.mark.parametrize("weights", [[1.0, np.nan], [1.0, np.inf]])
    def test_non_finite_weights(self, weights):
        with pytest.raises(ValueError, match="finite"):
            NormSpec.weighted_lp(2, 1, weights)

    def test_nan_p(self):
        with pytest.raises(ValueError, match="p must"):
            NormSpec.lp(2, float("nan"))
        with pytest.raises(ValueError, match="p must"):
            NormSpec.weighted_lp(2, float("nan"), [1.0, 1.0])

    def test_missing_p(self):
        with pytest.raises(ValueError, match="exponent p"):
            NormSpec.from_json({"kind": "lp", "dim": 2})

    @pytest.mark.parametrize("data,needle", [
        ({"kind": "lp", "dim": "2", "p": 2}, "dim must be an integer"),
        ({"kind": "lp", "dim": 2.7, "p": 2}, "dim must be an integer"),
        ({"kind": "lp", "dim": True, "p": 2}, "dim must be an integer"),
        ({"kind": "lp", "dim": 2, "p": True}, "p must be a number"),
        ({"kind": "lp", "dim": 2, "p": "2"}, "p must be a number"),
        ({"kind": "weighted_lp", "dim": 2, "p": [2], "weights": [1, 1]}, "p must be a number"),
    ], ids=["string-dim", "fractional-dim", "bool-dim", "bool-p", "string-p", "list-p"])
    def test_loosely_typed_json_rejected(self, data, needle):
        with pytest.raises(ValueError, match=needle):
            NormSpec.from_json(data)

    def test_integral_json_numbers_accepted(self):
        assert NormSpec.from_json({"kind": "lp", "dim": 3.0, "p": 2}) == NormSpec.lp(3, 2)
        assert NormSpec.from_json('{"kind": "lp", "dim": 2, "p": Infinity}') == \
            NormSpec.lp(2, float("inf"))

    def test_non_finite_functionals(self):
        with pytest.raises(ValueError, match="finite"):
            NormSpec.polyhedral(2, [[1, 0], [0, np.inf]])

    def test_polyhedral_must_span(self):
        with pytest.raises(ValueError, match="span"):
            NormSpec.polyhedral(2, [[1, 0], [2, 0]])

    def test_vector_rejects_nan(self):
        with pytest.raises(ValueError):
            L2_2.vector([np.nan, 0.0])

    def test_json_roundtrip(self):
        for space in space_zoo():
            again = NormSpec.from_json(space.to_json())
            assert again == space

    def test_inf_serializes_as_string(self):
        assert NormSpec.lp(4, float("inf")).to_json()["p"] == "inf"
        assert math.isinf(NormSpec.from_json({"kind": "lp", "dim": 4, "p": "inf"}).p)

    def test_documented_json_forms(self):
        forms = [
            '{"kind":"lp","dim":3,"p":1.5}',
            '{"kind":"lp","dim":4,"p":"inf"}',
            '{"kind":"weighted_lp","dim":2,"p":1,"weights":[1.0,2.0]}',
            '{"kind":"polyhedral","dim":2,"functionals":[[1,1],[1,-1]]}',
        ]
        for text in forms:
            space = NormSpec.from_json(text)
            assert NormSpec.from_json(space.to_json()) == space

    def test_immutability(self):
        v = L2_2.vector([1.0, 2.0])
        with pytest.raises(ValueError):
            v.coords[0] = 5.0


def _rebuilt(space):
    """Equal copies of a space that are other objects: built again from its
    fields, through JSON text, and deep-copied."""
    if space.functionals is not None:
        again = NormSpec.polyhedral(space.dim, space.functionals.tolist())
    elif space.weights is not None:
        again = NormSpec.weighted_lp(space.dim, space.p, list(space.weights))
    else:
        again = NormSpec.lp(space.dim, space.p)
    return [again, NormSpec.from_json(json.dumps(space.to_json())), copy.deepcopy(space)]


@pytest.mark.parametrize("space", space_zoo(), ids=zoo_ids())
class TestSpaceIdentity:
    """The spec key is stored once; ``==`` and ``hash`` read it."""

    def test_key_is_the_old_formula(self, space):
        want = oracles.frozen_spec_key(space)
        assert repr(space.spec_key()) == repr(want)
        assert hash(space) == hash(want)
        assert space.spec_key() is space.spec_key()

    def test_equal_copies(self, space):
        for other in _rebuilt(space):
            assert other is not space
            assert other == space and space == other and hash(other) == hash(space)
            assert other.spec_key() == space.spec_key()
        assert space != space.spec_key() and space != None  # noqa: E711

    def test_equal_copies_share_a_plan_cache_entry(self, space):
        route = route_for(space)
        _seed_free_part.cache_clear()
        plan_queries(space, route, 0)
        for i, other in enumerate(_rebuilt(space), start=1):
            plan_queries(other, route, i)
            info = _seed_free_part.cache_info()
            assert (info.hits, info.misses, info.currsize) == (i, 1, 1)

    def test_vector_arithmetic_across_equal_copies(self, space):
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal((2, space.dim))
        for other in _rebuilt(space):
            x, y = space.vector(a), other.vector(b)
            assert (x + y).coords.tobytes() == (a + b).tobytes()
            assert (x - y).coords.tobytes() == (a - b).tobytes()
            assert (birkhoff_verdict(x, y).to_dict()
                    == birkhoff_verdict(x, space.vector(b)).to_dict())

    def test_unequal_spaces_are_told_apart(self, space):
        n = space.dim
        others = [NormSpec.lp(n, 1.5) if space.p == 2.0 else NormSpec.lp(n, 2.0),
                  NormSpec.polyhedral(n, np.vstack([np.eye(n), -2.0 * np.ones(n)])),
                  NormSpec.lp(n + 1, space.p or 2.0)]
        if space.kind == "lp":
            others.append(NormSpec.weighted_lp(n, space.p, np.ones(n)))
        if space.weights is not None:
            others.append(NormSpec.weighted_lp(n, space.p, space.weights * 2.0))
        x = space.vector(np.ones(n))
        for other in others:
            assert other != space and space != other
            y = other.vector(np.ones(other.dim))
            for op in (lambda: x + y, lambda: x - y, lambda: birkhoff_verdict(x, y)):
                with pytest.raises(ValueError, match="vectors belong to different spaces"):
                    op()


@pytest.mark.parametrize("space", space_zoo(), ids=zoo_ids())
class TestNormAxioms:
    def test_homogeneity(self, space, rng):
        for _ in range(200):
            x = rng.standard_normal(space.dim)
            t = rng.standard_normal() * 3.0
            got = space.norm_of(t * x)
            want = abs(t) * space.norm_of(x)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_triangle_inequality(self, space, rng):
        for _ in range(200):
            x = rng.standard_normal(space.dim)
            y = rng.standard_normal(space.dim)
            assert space.norm_of(x + y) <= space.norm_of(x) + space.norm_of(y) + 1e-12

    def test_dual_pairing(self, space, rng):
        for _ in range(100):
            x = rng.standard_normal(space.dim)
            c = rng.standard_normal(space.dim)
            assert np.dot(c, x) <= space.dual_norm_of(c) * space.norm_of(x) + 1e-9


class TestDirectionalDerivative:
    def test_euclidean_tangent(self):
        u = L2_2.vector([1, 0])
        assert directional_derivative(u, L2_2.vector([0, 1])) == pytest.approx(0.0, abs=1e-12)

    def test_euclidean_radial(self):
        # frozen from the finite-difference oracle on t -> |(1+t, t)|_2
        u = L2_2.vector([1, 0])
        x = L2_2.vector([1, 1])
        fd = oracles.fd_directional(L2_2, u.coords, x.coords)
        assert fd == pytest.approx(1.0, abs=1e-6)
        assert directional_derivative(u, x) == pytest.approx(1.0, abs=1e-9)

    def test_l1_off_support(self):
        # (|(1, t)|_1 - 1) / t = 1 for every t > 0
        u = L1_2.vector([1, 0])
        assert directional_derivative(u, L1_2.vector([0, 1])) == pytest.approx(1.0, abs=1e-12)

    def test_requires_unit_base(self):
        with pytest.raises(ValueError, match="unit"):
            directional_derivative(L2_2.vector([2, 0]), L2_2.vector([0, 1]))

    @pytest.mark.parametrize("space", space_zoo(), ids=zoo_ids())
    def test_matches_finite_differences(self, space, rng):
        for _ in range(1000):
            u = rng.standard_normal(space.dim)
            u = u / space.norm_of(u)
            x = rng.standard_normal(space.dim)
            analytic = directional_derivative(space.vector(u), space.vector(x))
            reference = oracles.fd_directional(space, u, x)
            assert analytic == pytest.approx(reference, abs=1e-6)

    @pytest.mark.parametrize("space", space_zoo(), ids=zoo_ids())
    def test_sublinear(self, space, rng):
        for _ in range(200):
            u = rng.standard_normal(space.dim)
            u = u / space.norm_of(u)
            uv = space.vector(u)
            x = rng.standard_normal(space.dim)
            y = rng.standard_normal(space.dim)
            t = abs(rng.standard_normal()) * 2.0
            m_x = directional_derivative(uv, space.vector(x))
            m_y = directional_derivative(uv, space.vector(y))
            m_xy = directional_derivative(uv, space.vector(x + y))
            assert m_xy <= m_x + m_y + 1e-9
            m_tx = directional_derivative(uv, space.vector(t * x))
            assert m_tx == pytest.approx(t * m_x, rel=1e-9, abs=1e-9)

    def test_polyhedral_max_formula(self, rng):
        space = NormSpec.polyhedral(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, -1, 0]])
        for _ in range(1000):
            u = rng.standard_normal(3)
            u = u / space.norm_of(u)
            x = rng.standard_normal(3)
            got = directional_derivative(space.vector(u), space.vector(x))
            want = oracles.brute_polyhedral_directional(space, u, x)
            assert got == pytest.approx(want, abs=1e-9)

    def test_generic_fallback_agrees(self, rng):
        # the double-precision fallback accepts at 1e-6 successive agreement,
        # so its own error can reach the same order
        space = NormSpec.lp(3, 2.5)
        for _ in range(50):
            u = rng.standard_normal(3)
            u = u / space.norm_of(u)
            x = rng.standard_normal(3)
            got = finite_difference_directional(space.vector(u), space.vector(x))
            want = directional_derivative(space.vector(u), space.vector(x))
            assert got == pytest.approx(want, abs=5e-6)


class TestSupportSet:
    def test_l1_full_support_is_smooth(self):
        desc = support_set(L1_2.vector([1, 1]))
        assert desc.is_smooth and desc.kind == "singleton"
        assert np.allclose(desc.witness.coords, [1, 1])

    def test_l1_zero_coordinate_is_face(self):
        desc = support_set(L1_2.vector([1, 0]))
        assert not desc.is_smooth and desc.kind == "face"
        # any (1, s) with |s| <= 1 supports; the witness must be one of them
        assert desc.witness.coords[0] == pytest.approx(1.0)
        assert abs(desc.witness.coords[1]) <= 1.0

    def test_p3_is_smooth(self):
        space = NormSpec.lp(3, 3)
        desc = support_set(space.vector([1, 1, 1]))
        assert desc.is_smooth
        assert desc.witness.dual_norm == pytest.approx(1.0, abs=1e-12)

    def test_linf_tie_is_face(self):
        desc = support_set(LINF_2.vector([1, -1]))
        assert not desc.is_smooth

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            support_set(L2_2.vector([0, 0]))

    @pytest.mark.parametrize("space", space_zoo(), ids=zoo_ids())
    def test_witness_contract(self, space, rng):
        for _ in range(100):
            x = rng.standard_normal(space.dim)
            if space.norm_of(x) < 1e-6:
                continue
            desc = support_set(space.vector(x))
            assert desc.witness(x) == pytest.approx(space.norm_of(x), rel=1e-9)
            assert desc.witness.dual_norm == pytest.approx(1.0, rel=1e-9)


class TestSupportReadingPoint:
    """``support_set`` reads smooth lp and l1 at ``x`` (or its power-of-two
    multiple) and linf/polyhedral at the unit point: in range that gives the
    bytes of the reading at ``x`` itself, and at any scale the face of ``x``."""

    SPACES = space_zoo() + [NormSpec.polyhedral(2, [[1, 0], [0, 1], [1, -1]])]
    IDS = zoo_ids() + ["poly2"]

    @staticmethod
    def _points(space):
        """Random points, and the points of {-1, 0, 1}^n divided by the weights:
        zero coordinates and tied maxima."""
        rng = np.random.default_rng(31)
        w = np.ones(space.dim) if space.functionals is not None else space._w
        grid = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=space.dim))) / w
        points = list(rng.standard_normal((40, space.dim))) + list(grid)
        return [x for x in points if x.any()]

    @pytest.mark.parametrize("space", SPACES, ids=IDS)
    def test_in_range_bytes(self, space):
        kinds = set()
        for x in self._points(space):
            xv = space.vector(x)
            got, want = support_set(xv), oracles.frozen_support_set(xv)
            assert got.point is xv
            assert (got.kind, got.is_smooth) == (want.kind, want.is_smooth), x
            assert _bits(got.witness.coords) == _bits(want.witness.coords), x
            kinds.add(got.is_smooth)
        assert kinds == ({True} if space.is_smooth_space else {True, False})

    @pytest.mark.parametrize("space", SPACES, ids=IDS)
    def test_power_of_two_multiples(self, space):
        for x in self._points(space):
            want = support_set(space.vector(x))
            for k in (600, -600, 1000, -1000):
                with np.errstate(over="ignore", under="ignore"):
                    got = support_set(space.vector(np.ldexp(x, k)))
                assert (got.kind, got.is_smooth) == (want.kind, want.is_smooth), (x, k)
                np.testing.assert_allclose(got.witness.coords, want.witness.coords,
                                           rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("x", [[1e200, 1e200], [1e-170, 1e-170]],
                             ids=["overflow", "underflow"])
    def test_euclidean_norm_out_of_range(self, x):
        with np.errstate(over="ignore", under="ignore"):
            desc = support_set(L2_2.vector(x))
            u = L2_2.vector(x).unit()
        assert desc.is_smooth and desc.kind == "singleton"
        assert desc.witness.dual_norm == pytest.approx(1.0, rel=1e-12)
        assert desc.witness(u) == pytest.approx(1.0, rel=1e-12)
        assert desc.witness.coords == pytest.approx([2 ** -0.5] * 2, rel=1e-12)

    def test_linf_far_below_one(self):
        # the tie tolerance rel * (1 + m) would tie every coordinate of x itself
        space = NormSpec.lp(3, float("inf"))
        desc = support_set(space.vector(np.ldexp([0.9, 0.5, 0.3], -600)))
        assert desc.is_smooth and desc.kind == "singleton"
        assert _bits(desc.witness.coords) == _bits([1.0, 0.0, 0.0])

    @pytest.mark.parametrize("x", [[1, 1, -1], [1, 0, 0], [0.5, 0.25, 0]],
                             ids=["vertex", "edge", "facet"])
    def test_power_of_two_scaled_spec(self, x):
        """POLY3 scaled by 2^k reads the face of k = 0 at x and at 2^-k x, with
        the witness 2^k times that of k = 0: the rows merge only within
        ``tol.scaled(1.0)`` of their own leading power of two."""
        rows = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float)
        want = support_set(NormSpec.polyhedral(3, rows).vector(x))
        assert want.is_smooth is (x[2] == 0 and x[1] != 0)
        for k in range(-40, 41):
            space = NormSpec.polyhedral(3, np.ldexp(rows, k))
            for point in (x, np.ldexp(x, -k)):
                got = support_set(space.vector(point))
                assert (got.kind, got.is_smooth) == (want.kind, want.is_smooth), (k, point)
                assert _bits(got.witness.coords) == _bits(np.ldexp(want.witness.coords, k))

    def test_weighted_linf_tie_far_below_one(self):
        # the two tied rows are 2^-39 apart, far inside the absolute floor rel * (1 + 1)
        space = NormSpec.weighted_lp(3, float("inf"), np.ldexp([1.0, 2.0, 0.5], -40))
        desc = support_set(space.vector([1.0, 0.5, 0.0]))
        assert not desc.is_smooth and desc.kind == "face"
        assert _bits(desc.witness.coords) == _bits([2.0 ** -40, 0.0, 0.0])


FACETED = {
    "poly3": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
    "square": [[1, 1], [1, -1]],
    "prism": [[1, 1, 0], [1, -1, 0], [0, 0, 1]],
    "dominated": [[1, 0], [0, 1], [0.5, 0.5]],   # its third row is the mean of the others
}


def _exposure_candidates(space: NormSpec) -> list:
    """Signed rows, near rows, non-unit rows, the mean of two rows (a point of
    an edge of the dual ball) and other non-unit functionals."""
    a = space.functionals
    out = []
    for r in a:
        out += [r, -r, r * (1.0 + 2.0 ** -40), -r * (1.0 - 2.0 ** -40), 2.0 * r, 0.25 * r]
    mean = (a[0] + a[1]) / 2.0
    out += [mean, -mean, 3.0 * mean, np.zeros(space.dim), np.full(space.dim, 1e-3)]
    return out


def _exposure_outcome(test, f):
    """The verdict and point bytes of ``test(f)``, or its exception type and message."""
    try:
        res = test(f)
    except ValueError as err:
        return type(err), str(err)
    return res.exposed, None if res.point is None else _bits(res.point.coords)


class TestExposedPoints:
    def test_l1_full_sign_pattern(self):
        space = NormSpec.lp(3, 1)
        res = is_w_star_exposed(space.functional([1, 1, -1]))
        assert res.exposed
        assert np.allclose(res.point.coords, [1 / 3, 1 / 3, -1 / 3])
        desc = support_set(res.point)
        assert desc.is_smooth
        assert np.allclose(desc.witness.coords, [1, 1, -1])

    def test_l1_partial_pattern_not_exposed(self):
        space = NormSpec.lp(3, 1)
        assert not is_w_star_exposed(space.functional([1, 1, 0])).exposed

    def test_euclidean_all_units_exposed(self, rng):
        space = NormSpec.lp(4, 2)
        for _ in range(50):
            c = rng.standard_normal(4)
            c = c / space.dual_norm_of(c)
            res = is_w_star_exposed(space.functional(c))
            assert res.exposed
            witness = support_set(res.point).witness
            assert np.allclose(witness.coords, c, atol=1e-9)

    def test_linf_coordinates_exposed(self):
        space = NormSpec.lp(3, float("inf"))
        assert is_w_star_exposed(space.functional([0, -1, 0])).exposed
        mixed = np.array([0.5, 0.5, 0.0])
        assert not is_w_star_exposed(space.functional(mixed)).exposed

    def test_requires_unit(self):
        space = NormSpec.lp(3, 2)
        with pytest.raises(ValueError, match="dual norm"):
            is_w_star_exposed(space.functional([2, 0, 0]))

    def test_polyhedral_facet_exposed(self):
        space = NormSpec.polyhedral(2, [[1, 0], [0, 1], [0.5, 0.5]])
        assert is_w_star_exposed(space.functional([1, 0])).exposed
        # dominated functional: never the unique support at a smooth point
        assert not is_w_star_exposed(space.functional([0.5, 0.5])).exposed

    @pytest.mark.parametrize("rows", [[[1, 1], [1, -1]], [[1, 1, 0], [1, -1, 0], [0, 0, 1]]],
                             ids=["square", "prism"])
    def test_rotated_facets_exposed(self, rows):
        # |a_j| = |a_i| entry by entry does not make a_j parallel to a_i
        space = NormSpec.polyhedral(len(rows[0]), rows)
        for a in space.functionals:
            for c in (a, -a):
                res = is_w_star_exposed(space.functional(c))
                assert res.exposed
                desc = support_set(res.point)
                assert desc.is_smooth and _bits(desc.witness.coords) == _bits(c)
        res = is_w_star_exposed(space.functional(space.functionals[0]))
        assert res.point.coords[:2] == pytest.approx([0.5, 0.5], abs=1e-12)

    @pytest.mark.parametrize("rows", list(FACETED.values()), ids=list(FACETED))
    def test_matches_unit_check_first(self, rows):
        """A signed row skips the dual-norm LP; verdicts, points and errors are
        those of the test that solved it first on every call."""
        space = NormSpec.polyhedral(len(rows[0]), rows)
        seen = set()
        for c in _exposure_candidates(space):
            f = space.functional(c)
            got = _exposure_outcome(is_w_star_exposed, f)
            assert got == _exposure_outcome(oracles.frozen_is_w_star_exposed, f), c
            seen.add(got[0])
        assert seen == {True, False, ValueError}

    def test_unit_check_after_the_rows(self):
        """The unit check runs after the row loop: functionals that match no row,
        or match one within the tolerance but are off the unit sphere, give the
        verdict, point bytes and error of the test that took the check first."""
        space = NormSpec.polyhedral(3, FACETED["poly3"])
        row = space.functionals[3]
        candidates = [row * (1.0 + 1e-3), 2.0 * row, np.array([1.0, 0.5, 0.5]),
                      np.array([0.3, 0.2, 0.1]), row * (1.0 + 1e-7), -row * (1.0 + 1.5e-6)]
        outcomes = []
        for c in candidates:
            f = space.functional(c)
            got = _exposure_outcome(is_w_star_exposed, f)
            assert got == _exposure_outcome(oracles.frozen_is_w_star_exposed, f), c
            outcomes.append(got[0])
        assert outcomes == [ValueError, ValueError, False, ValueError, True, ValueError]

    @pytest.mark.parametrize("rows", [FACETED["poly3"], FACETED["square"]],
                             ids=["poly3", "square"])
    def test_power_of_two_scaled_spec(self, rows):
        """Both LPs run on the spec over its leading power of two: a spec and
        functional scaled by 2^k give the same verdict, at 2^-k times the point."""
        space = NormSpec.polyhedral(len(rows[0]), rows)
        a = space.functionals
        candidates = [s * r for r in a for s in (1.0, -1.0)] + [(a[0] + a[1]) / 2.0]
        want = [is_w_star_exposed(space.functional(c)) for c in candidates]
        assert {w.exposed for w in want} == {True, False}
        for k in range(-40, 41):
            scaled = NormSpec.polyhedral(space.dim, np.ldexp(a, k))
            for c, w in zip(candidates, want):
                got = is_w_star_exposed(scaled.functional(np.ldexp(c, k)))
                assert got.exposed == w.exposed, (k, c)
                if w.exposed:
                    assert _bits(got.point.coords) == _bits(np.ldexp(w.point.coords, -k)), (k, c)

    def test_exposing_point_is_smooth(self, rng):
        for space in space_zoo():
            if space.kind != "lp":
                continue
            c = rng.standard_normal(space.dim)
            c = c / space.dual_norm_of(c)
            res = is_w_star_exposed(space.functional(c))
            if res.exposed:
                assert support_set(res.point).is_smooth


class TestFacetPointCache:
    """Each signed facet's exposure LP is solved once per space and facet; the
    tolerance checks and the unit check still run on every call."""

    @pytest.mark.parametrize("rows", list(FACETED.values()), ids=list(FACETED))
    def test_repeat_matches_unit_check_first(self, rows):
        """The first call and a repeat on an equal spec built apart give the
        verdict, point bytes and error of the test that solved every LP."""
        _facet_point.cache_clear()
        for attempt in range(2):
            space = NormSpec.polyhedral(len(rows[0]), rows)
            for c in _exposure_candidates(space):
                f = space.functional(c)
                got = _exposure_outcome(is_w_star_exposed, f)
                assert got == _exposure_outcome(oracles.frozen_is_w_star_exposed, f), (attempt, c)
            if attempt == 0:
                solved = _facet_point.cache_info().misses
                assert solved > 0
        assert _facet_point.cache_info().misses == solved

    def test_power_of_two_scaled_repeats(self):
        """POLY3 and its candidates scaled by 2^k give, on a first call and a
        repeat, the unscaled frozen verdict at 2^-k times its point."""
        space = NormSpec.polyhedral(3, FACETED["poly3"])
        a = space.functionals
        candidates = [s * r for r in a for s in (1.0, -1.0)] + [(a[0] + a[1]) / 2.0, 2.0 * a[3]]
        want = [_exposure_outcome(oracles.frozen_is_w_star_exposed, space.functional(c))
                for c in candidates]
        assert {w[0] for w in want} == {True, False, ValueError}
        for k in range(-40, 41):
            scaled = NormSpec.polyhedral(3, np.ldexp(a, k))
            for c, (verdict, detail) in zip(candidates, want):
                if verdict is True:
                    detail = _bits(np.ldexp(np.frombuffer(detail), -k))
                for attempt in range(2):
                    got = _exposure_outcome(is_w_star_exposed, scaled.functional(np.ldexp(c, k)))
                    assert got == (verdict, detail), (k, c, attempt)
        # 81 specs of 8 signed facets each: the cache keeps a bounded number of them
        assert _facet_point.cache_info().maxsize is not None

    def test_cached_point_is_read_only(self):
        space = NormSpec.polyhedral(3, FACETED["poly3"])
        res = is_w_star_exposed(space.functional(space.functionals[3]))
        cached = _facet_point(space, 3, 1.0)
        for coords in (res.point.coords, cached):
            with pytest.raises(ValueError, match="read-only"):
                coords[0] = 0.0
        again = is_w_star_exposed(NormSpec.polyhedral(3, FACETED["poly3"]).functional([1, 1, 1]))
        assert _bits(again.point.coords) == _bits(res.point.coords) == _bits(cached)

    def test_other_tol_runs_its_own_smoothness_check(self):
        """At rel = 0.4 every row ties at each facet point of POLY3 (its values
        are within 0.8 of the max) and no two signed rows merge (they are 1
        apart), so no facet is exposed: the cached point does not carry the
        default tolerance's verdict."""
        space = NormSpec.polyhedral(3, FACETED["poly3"])
        loose = Tolerances(0.4)
        for c in space.functionals:
            f = space.functional(c)
            for tol in (DEFAULT_TOL, loose, DEFAULT_TOL):
                got = _exposure_outcome(lambda g: is_w_star_exposed(g, tol), f)
                assert got == _exposure_outcome(
                    lambda g: oracles.frozen_is_w_star_exposed(g, tol), f)
                assert got[0] is (tol is DEFAULT_TOL)


class TestVectorAlgebra:
    def test_arithmetic(self):
        x = L2_2.vector([1, 2])
        y = L2_2.vector([3, -1])
        assert np.allclose((x + y).coords, [4, 1])
        assert np.allclose((x - y).coords, [-2, 3])
        assert np.allclose((2.0 * x).coords, [2, 4])
        assert np.allclose((-x).coords, [-1, -2])

    def test_cross_space_rejected(self):
        x = L2_2.vector([1, 2])
        y = L1_2.vector([1, 2])
        with pytest.raises(ValueError):
            _ = x + y

    def test_functional_action(self):
        f = L2_2.functional([2, -1])
        assert f(L2_2.vector([1, 1])) == pytest.approx(1.0)
        assert f([3, 0]) == pytest.approx(6.0)

    @pytest.mark.parametrize("space", space_zoo(), ids=zoo_ids())
    def test_unit_in_range_is_the_quotient(self, space, rng):
        for _ in range(10):
            x = space.vector(rng.standard_normal(space.dim))
            assert _bits(x.unit().coords) == _bits(x.coords / x.norm)

    @pytest.mark.parametrize("x, want", [
        ([1e-170, 1e-170], [2 ** -0.5] * 2),
        ([1e200, 1e200], [2 ** -0.5] * 2),
        ([3e-162, 4e-162], [0.6, 0.8]),
    ], ids=["underflow", "overflow", "subnormal-squares"])
    def test_unit_out_of_range(self, x, want):
        with np.errstate(over="ignore", under="ignore"):
            u = L2_2.vector(x).unit()
        np.testing.assert_allclose(u.coords, want, rtol=1e-15)

    def test_unit_of_zero_rejected(self):
        with pytest.raises(ValueError, match="cannot normalize the zero vector"):
            L2_2.vector([0, 0]).unit()


def _bits(value) -> bytes:
    """The IEEE bytes of a float or an array, so equal bits (not just equal values) are compared."""
    return np.asarray(value, dtype=float).tobytes()


def _face_points(n: int) -> np.ndarray:
    """Points of R^n with zero coordinates and tied maxima, plus generic ones."""
    rng = np.random.default_rng(1000 + n)
    eye = np.eye(n)
    points = [np.ones(n), -np.ones(n), eye[0], -2.0 * eye[-1], eye[0] - eye[-1],
              np.where(np.arange(n) % 2 == 0, 1.0, -1.0),   # full sign pattern
              np.where(np.arange(n) % 2 == 0, 3.0, 0.0)]    # tied max beside zeros
    points += list(np.round(rng.standard_normal((6, n))))   # integer ties and zeros
    points += list(rng.standard_normal((6, n)))
    return np.array([x for x in points if np.any(x)])


class TestPlainLpIsUnitWeighted:
    """Plain lp runs through the weighted formulas with w = 1.  Every value
    must equal that of the explicitly unit-weighted space bit for bit."""

    @pytest.fixture(params=[(n, p) for p in (1.0, 1.5, 2.0, 3.0, math.inf) for n in range(1, 6)],
                    ids=lambda np_: f"n{np_[0]}-p{np_[1]}")
    def pair(self, request):
        n, p = request.param
        return NormSpec.lp(n, p), NormSpec.weighted_lp(n, p, np.ones(n)), _face_points(n)

    def test_norms_and_dual_norms(self, pair):
        plain, unit, points = pair
        assert plain.weights is None and np.array_equal(unit.weights, np.ones(plain.dim))
        assert _bits(plain.norms_of(points)) == _bits(unit.norms_of(points))
        for x in points:
            assert _bits(plain.norm_of(x)) == _bits(unit.norm_of(x))
            assert _bits(plain.dual_norm_of(x)) == _bits(unit.dual_norm_of(x))

    def test_directional_derivative(self, pair):
        plain, unit, points = pair
        for x in points:
            u, v = plain.vector(x).unit(), unit.vector(x).unit()
            for y in points:
                assert (_bits(directional_derivative(u, plain.vector(y)))
                        == _bits(directional_derivative(v, unit.vector(y))))

    def test_support_set(self, pair):
        plain, unit, points = pair
        for x in points:
            a, b = support_set(plain.vector(x)), support_set(unit.vector(x))
            assert (a.kind, a.is_smooth) == (b.kind, b.is_smooth)
            assert _bits(a.witness.coords) == _bits(b.witness.coords)

    def test_exposed_point(self, pair):
        plain, unit, points = pair
        for c in points:
            a = is_w_star_exposed(plain.functional(c / plain.dual_norm_of(c)))
            b = is_w_star_exposed(unit.functional(c / unit.dual_norm_of(c)))
            assert a.exposed == b.exposed
            if a.exposed:
                assert _bits(a.point.coords) == _bits(b.point.coords)

    def test_birkhoff_verdict(self, pair):
        plain, unit, points = pair
        for x in points:
            for y in points:
                a = birkhoff_verdict(plain.vector(x), plain.vector(y))
                b = birkhoff_verdict(unit.vector(x), unit.vector(y))
                assert (a.orthogonal, a.near_tie) == (b.orthogonal, b.near_tie)
                assert (_bits([a.forward_slope, a.backward_slope, a.margin])
                        == _bits([b.forward_slope, b.backward_slope, b.margin]))
                assert (a.witness is None) == (b.witness is None)
                if a.witness is not None:
                    assert _bits(a.witness.coords) == _bits(b.witness.coords)


POLY3 = NormSpec.polyhedral(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])


def _random_polyhedral(seed: int) -> NormSpec:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    return NormSpec.polyhedral(n, rng.standard_normal((n + int(rng.integers(1, 4)), n)).tolist())


class TestPolyhedralDualNorm:
    """The polyhedral dual norm: no LP for the zero functional, and an LP on the
    functional and the spec, each rescaled by a power of two, so tiny entries
    are not lost and the value scales exactly with both."""

    _ZEROS = [list(z) for z in itertools.product([0.0, -0.0], repeat=3)]

    def test_zero_is_negative_zero_without_lp(self, monkeypatch):
        """-0.0 is the value the LP's -res.fun gave for every signed-zero mix."""
        def fail(c, **constraints):
            raise AssertionError("the zero functional solved an LP")
        monkeypatch.setattr("phaseiso.spaces._highs_lp", fail)
        for z in self._ZEROS:
            assert _bits(POLY3.dual_norm_of(z)) == _bits(-0.0)
        wide = _random_polyhedral(5)
        assert _bits(wide.dual_norm_of([-0.0] * wide.dim)) == _bits(-0.0)

    @pytest.mark.parametrize("space", [
        NormSpec.lp(3, 1), NormSpec.lp(3, 2), NormSpec.lp(3, float("inf")),
        NormSpec.weighted_lp(3, 1.5, [1.0, 2.0, 0.5]),
        NormSpec.weighted_lp(3, float("inf"), [1.0, 2.0, 0.5]),
    ], ids=["l1", "l2", "linf", "w-l1.5", "w-linf"])
    def test_lp_kinds_keep_positive_zero(self, space):
        for z in self._ZEROS:
            assert _bits(space.dual_norm_of(z)) == _bits(0.0)

    @pytest.mark.parametrize("c, want", [
        ([1e-7, 0.0, 0.0], 1e-7),
        ([3e-8, 2e-8, 1e-8], 4e-8),   # at the dual-ball vertex (1, 1, -1)
        ([1e-12, 0.0, 0.0], 1e-12),
        ([-1e-300, 0.0, 0.0], 1e-300),
    ])
    def test_tiny_functionals(self, c, want):
        assert POLY3.dual_norm_of(c) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("space", [POLY3] + [_random_polyhedral(s) for s in (1, 2, 3)],
                             ids=["poly3", "random1", "random2", "random3"])
    def test_power_of_two_scaling_is_exact(self, space):
        rng = np.random.default_rng(space.dim)
        for c in rng.standard_normal((3, space.dim)):
            dn = space.dual_norm_of(c)
            for k in range(-40, 41):
                assert _bits(space.dual_norm_of(np.ldexp(c, k))) == _bits(np.ldexp(dn, k)), k

    @pytest.mark.parametrize("space", [POLY3] + [_random_polyhedral(s) for s in (1, 2, 3)],
                             ids=["poly3", "random1", "random2", "random3"])
    def test_power_of_two_scaled_spec(self, space):
        """Scaling the spec by 2^k scales the dual norm by 2^-k exactly."""
        rng = np.random.default_rng(space.dim)
        for c in rng.standard_normal((3, space.dim)):
            dn = space.dual_norm_of(c)
            for k in range(-40, 41):
                scaled = NormSpec.polyhedral(space.dim, np.ldexp(space.functionals, k))
                assert _bits(scaled.dual_norm_of(c)) == _bits(np.ldexp(dn, -k)), k
                assert _bits(scaled.dual_norm_of(np.ldexp(c, k))) == _bits(dn), k
