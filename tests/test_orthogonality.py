import itertools
import json

import numpy as np
import pytest

import oracles
from conftest import space_zoo, zoo_ids
from phaseiso import (NormSpec, Tolerances, birkhoff_verdict, directional_derivative,
                      is_birkhoff_orthogonal, l1_orthogonality_triple, orthogonal_hyperplane,
                      support_set)

L1_2 = NormSpec.lp(2, 1)
L2_2 = NormSpec.lp(2, 2)
LINF_2 = NormSpec.lp(2, float("inf"))
LINF_3 = NormSpec.lp(3, float("inf"))
L1_3 = NormSpec.lp(3, 1)
POLY3 = NormSpec.polyhedral(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
HEXAGON = NormSpec.polyhedral(2, [[1, 0], [0, 1], [1, -1]])


class TestBirkhoffBasics:
    def test_linf_diagonal_pair(self):
        # min over t of max(|1+t|, |1-t|) is 1, attained at t = 0
        assert is_birkhoff_orthogonal(LINF_2.vector([1, 1]), LINF_2.vector([1, -1]))

    def test_l1_asymmetric_fixture(self):
        x = L1_2.vector([1, 0])
        y = L1_2.vector([1, 2])
        assert is_birkhoff_orthogonal(x, y)
        assert not is_birkhoff_orthogonal(y, x)

    def test_zero_right_argument(self):
        x = L2_2.vector([3, 4])
        assert is_birkhoff_orthogonal(x, L2_2.vector([0, 0]))

    def test_zero_left_argument(self):
        assert is_birkhoff_orthogonal(L2_2.vector([0, 0]), L2_2.vector([1, 2]))

    def test_euclidean_matches_inner_product(self, rng):
        space = NormSpec.lp(3, 2)
        for _ in range(300):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            want = abs(np.dot(x, y) / np.linalg.norm(x)) <= 1e-9
            got = is_birkhoff_orthogonal(space.vector(x), space.vector(y))
            # generic pairs are far from the boundary either way
            if abs(np.dot(x, y)) > 1e-6:
                assert got == want

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            is_birkhoff_orthogonal(L2_2.vector([1, 0]), NormSpec.lp(3, 2).vector([1, 0, 0]))

    @pytest.mark.parametrize("space", space_zoo(), ids=zoo_ids())
    def test_homogeneous(self, space, rng):
        for _ in range(100):
            x = rng.standard_normal(space.dim)
            y = rng.standard_normal(space.dim)
            s = rng.standard_normal()
            t = rng.standard_normal()
            if abs(s) < 1e-3 or abs(t) < 1e-3:
                continue
            base = is_birkhoff_orthogonal(space.vector(x), space.vector(y))
            scaled = is_birkhoff_orthogonal(space.vector(s * x), space.vector(t * y))
            assert base == scaled

    @pytest.mark.parametrize("space", space_zoo(), ids=zoo_ids())
    def test_agrees_with_minimization(self, space, rng):
        # Binary verdicts are compared away from the decision boundary: a pair
        # whose outward slope is within 1e-3 of zero has a norm drop around the
        # minimization oracle's 1e-7 discrimination, where the two procedures
        # may legitimately split.
        boundary = 0
        for _ in range(300):
            x = rng.standard_normal(space.dim)
            y = rng.standard_normal(space.dim)
            verdict = birkhoff_verdict(space.vector(x), space.vector(y))
            if abs(verdict.margin) <= 1e-3 * (1.0 + space.norm_of(y)):
                boundary += 1
                continue
            want = oracles.birkhoff_by_minimization(space, x, y)
            assert verdict.orthogonal == want
        assert boundary <= 10

    @pytest.mark.parametrize("space", space_zoo(), ids=zoo_ids())
    def test_witness_annihilates(self, space, rng):
        for _ in range(400):
            x = rng.standard_normal(space.dim)
            y = rng.standard_normal(space.dim)
            verdict = birkhoff_verdict(space.vector(x), space.vector(y))
            if not verdict.orthogonal:
                assert verdict.witness is None
                continue
            w = verdict.witness
            assert w.dual_norm == pytest.approx(1.0, rel=1e-9)
            assert w(x) == pytest.approx(space.norm_of(x), rel=1e-9, abs=1e-9)
            assert abs(w(y)) <= 1e-8 * (1.0 + space.norm_of(y))

    def test_witness_on_face_cases(self):
        # l1: disjoint supports force a witness with a free coordinate
        space = NormSpec.lp(3, 1)
        v = birkhoff_verdict(space.vector([1, -2, 0]), space.vector([0, 0, 3]))
        assert v.orthogonal
        assert v.witness(np.array([1, -2, 0])) == pytest.approx(3.0)
        assert abs(v.witness(np.array([0, 0, 3]))) <= 1e-9
        # linf: a tied maximum needs a convex combination of coordinate picks
        v = birkhoff_verdict(LINF_2.vector([1, 1]), LINF_2.vector([1, -1]))
        assert v.orthogonal
        assert np.allclose(v.witness.coords, [0.5, 0.5])
        assert v.witness.dual_norm == pytest.approx(1.0)


def _verdict_cases(space, seed):
    """(x, y) coordinate pairs: random, orthogonal by construction, tied maxima
    and zero coordinates (the points of {-1, 0, 1}^n, divided by the weights),
    y = +-x, and zero vectors."""
    rng = np.random.default_rng(seed)
    n = space.dim
    cases = []
    for _ in range(30):
        cases.append((rng.standard_normal(n), rng.standard_normal(n)))
        x = rng.standard_normal(n)
        cases.append((x, orthogonal_hyperplane(space.vector(x)).sample(rng, 1)[0].coords))
    w = np.ones(n) if space.functionals is not None else space._w
    grid = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=n))) / w
    for x in grid:
        for y in grid[rng.choice(len(grid), 4)]:
            cases.append((x, y))
        cases += [(x, x), (x, -x), (x, 2.0 * rng.standard_normal(n) * (x != 0))]
    cases += [(np.zeros(n), np.zeros(n)), (rng.standard_normal(n), np.zeros(n))]
    return cases


def _verdict_text(verdict):
    """The verdict as JSON text, so a signed zero differs from an unsigned one,
    and the witness bytes."""
    witness = None if verdict.witness is None else verdict.witness.coords.tobytes()
    return json.dumps(verdict.to_dict()), witness


class TestVerdictBytes:
    """One norm and one face per verdict give the bytes of the old path, which
    computed both once per slope."""

    SPACES = space_zoo() + [HEXAGON]
    IDS = zoo_ids() + ["poly2"]

    @pytest.mark.parametrize("tol", [Tolerances(), Tolerances(rel=1e-3)], ids=["rel1e-9", "rel1e-3"])
    @pytest.mark.parametrize("space", SPACES, ids=IDS)
    def test_verdicts(self, space, tol):
        kinds = set()
        for x, y in _verdict_cases(space, seed=21):
            xv, yv = space.vector(x), space.vector(y)
            got = birkhoff_verdict(xv, yv, tol)
            assert _verdict_text(got) == _verdict_text(oracles.frozen_birkhoff_verdict(xv, yv, tol))
            kinds.add((got.orthogonal, got.near_tie, got.witness is None))
        # orthogonal with a witness, near ties, and plainly not orthogonal all occur
        assert {(True, False, False), (True, True, False), (False, False, True)} <= kinds

    @pytest.mark.parametrize("space", SPACES, ids=IDS)
    def test_directional_derivative(self, space):
        for x, y in _verdict_cases(space, seed=22):
            if not x.any():
                continue
            u = space.vector(x).unit()
            for d in (y, -y, x):
                got = directional_derivative(u, space.vector(d))
                want = oracles.frozen_directional_derivative(u, space.vector(d))
                assert got.hex() == want.hex(), (x, d)


class TestExtremeScales:
    """The verdict is homogeneous in x: a norm that under- or overflows is
    taken after an exact power-of-two rescaling of x."""

    @pytest.mark.parametrize("space", [NormSpec.lp(4, 1), NormSpec.lp(4, 2),
                                       NormSpec.lp(4, float("inf")), POLY3],
                             ids=["l1", "l2", "linf", "poly"])
    def test_power_of_two_multiples(self, space, rng):
        for i in range(40):
            x = rng.standard_normal(space.dim)
            y = (orthogonal_hyperplane(space.vector(x)).sample(rng, 1)[0].coords if i % 2
                 else rng.standard_normal(space.dim))
            want = _verdict_text(birkhoff_verdict(space.vector(x), space.vector(y)))
            for k in (600, -600, 1000, -1000):
                with np.errstate(over="ignore", under="ignore"):
                    got = birkhoff_verdict(space.vector(np.ldexp(x, k)), space.vector(y))
                assert _verdict_text(got) == want, (x, y, k)
        zero = space.vector(np.zeros(space.dim))
        want = _verdict_text(birkhoff_verdict(space.vector(x), zero))
        for k in (600, -600, 1000, -1000):
            with np.errstate(over="ignore", under="ignore"):
                got = birkhoff_verdict(space.vector(np.ldexp(x, k)), zero)
            assert _verdict_text(got) == want, (x, k)

    @pytest.mark.parametrize("space, x, y, slope", [
        (L2_2, [1e-170, 1e-170], [0, 1], 2 ** -0.5),
        (L2_2, [1e200, 1e200], [0, 1], 2 ** -0.5),
        (L2_2, [3e-162, 4e-162], [0, 1], 0.8),
        (POLY3, [1e308, 1e308, 1e308], [0, 1, 0], 1.0),
    ], ids=["underflow", "overflow", "subnormal-squares", "poly-overflow"])
    def test_norms_out_of_range(self, space, x, y, slope):
        with np.errstate(over="ignore", under="ignore"):
            verdict = birkhoff_verdict(space.vector(x), space.vector(y))
        assert not verdict.orthogonal and verdict.witness is None
        assert verdict.forward_slope == pytest.approx(slope, rel=1e-12)
        assert verdict.backward_slope == pytest.approx(-slope, rel=1e-12)

    @pytest.mark.parametrize("space, x", [
        (L2_2, [1e-170, 1e-170]),
        (L2_2, [1e200, 1e200]),
        (L2_2, [3e-162, 4e-162]),
        (POLY3, [1e308, 1e308, 1e308]),
    ], ids=["underflow", "overflow", "subnormal-squares", "poly-overflow"])
    def test_zero_y_witness_supports_x(self, space, x):
        with np.errstate(over="ignore", under="ignore"):
            verdict = birkhoff_verdict(space.vector(x), space.vector([0.0] * space.dim))
            normal = orthogonal_hyperplane(space.vector(x)).normal
            u = space.vector(x).unit()
        assert verdict.orthogonal and verdict.witness is not None
        for g in (verdict.witness, normal):
            assert space.dual_norm_of(g.coords) == pytest.approx(1.0, rel=1e-12)
            assert g(u) == pytest.approx(1.0, rel=1e-12)

    def test_weights_out_of_range(self):
        # w_i x_i^2 overflows; the rescale reads the weighted magnitudes
        space = NormSpec.weighted_lp(3, 2, [1e308] * 3)
        y = space.vector([0, 1, 0])
        with np.errstate(over="ignore"):
            got = birkhoff_verdict(space.vector([0.9, 0.9, 0.9]), y)
        want = birkhoff_verdict(space.vector(np.ldexp([0.9, 0.9, 0.9], -600)), y)
        assert _verdict_text(got) == _verdict_text(want)
        assert got.forward_slope == pytest.approx((1e308 / 3) ** 0.5, rel=1e-12)

    def test_l1_signs_read_before_division(self):
        # x / |x| flushes 1e-300 / 1e300 to zero; the l1 face reads the signs of x
        verdict = birkhoff_verdict(L1_2.vector([1e300, 1e-300]), L1_2.vector([1, 1]))
        assert not verdict.orthogonal and verdict.witness is None
        assert (verdict.forward_slope, verdict.backward_slope) == (2.0, -2.0)

    @pytest.mark.parametrize("space", TestVerdictBytes.SPACES, ids=TestVerdictBytes.IDS)
    def test_zero_y_witness_bytes(self, space):
        """The witness for y = 0 and the hyperplane normal are ``support_set``'s
        witness, with the bytes of the reading point the verdict chose for itself."""
        zero = space.vector(np.zeros(space.dim))
        for x, _ in _verdict_cases(space, seed=23):
            if not x.any():
                continue
            for k in (0, 600, -600, 1000, -1000):
                xv = space.vector(np.ldexp(x, k))
                with np.errstate(over="ignore", under="ignore"):
                    want = oracles.frozen_supporting_functional(xv).coords.tobytes()
                    assert birkhoff_verdict(xv, zero).witness.coords.tobytes() == want, (x, k)
                    assert orthogonal_hyperplane(xv).normal.coords.tobytes() == want, (x, k)

    def test_coordinate_flushed_by_rescale(self):
        # 1e-300 / 2^1024 is 0, but the l1 face reads its signs at x itself
        with np.errstate(over="ignore"):
            verdict = birkhoff_verdict(L1_3.vector([1e308, 1e308, 1e-300]), L1_3.vector([1, -1, 1]))
        assert not verdict.orthogonal and verdict.witness is None
        assert (verdict.forward_slope, verdict.backward_slope) == (1.0, -1.0)

    def test_smooth_coordinate_flushed_by_rescale(self):
        # lp(3, 1.5) reads its gradient at the rescaled point, which has lost 1e-300
        space = NormSpec.lp(3, 1.5)
        x = space.vector([1e308, 1e308, 1e-300])
        with np.errstate(over="ignore"):
            for read in (lambda: birkhoff_verdict(x, space.vector([1, -1, 1])),
                         lambda: support_set(x), x.unit):
                with pytest.raises(ValueError, match="binary orders"):
                    read()


class TestHyperplane:
    def test_linf_coordinate_hyperplane(self):
        z = orthogonal_hyperplane(LINF_3.vector([1, 0, 0]))
        assert np.allclose(z.normal.coords, [1, 0, 0])
        assert z.contains(LINF_3.vector([0, 2, -3]))

    def test_euclidean_complement(self):
        z = orthogonal_hyperplane(L2_2.vector([1, 1]))
        basis = z.basis()
        assert basis.shape == (1, 2)
        assert abs(np.dot(basis[0], [1, 1])) <= 1e-12

    def test_l1_diagonal(self):
        z = orthogonal_hyperplane(L1_2.vector([1, 1]))
        assert np.allclose(z.normal.coords, [1, 1])

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            orthogonal_hyperplane(L2_2.vector([0, 0]))

    @pytest.mark.parametrize("space", space_zoo(), ids=zoo_ids())
    def test_contract_on_samples(self, space, rng):
        for _ in range(5):
            x = rng.standard_normal(space.dim)
            if space.norm_of(x) < 1e-6:
                continue
            xv = space.vector(x)
            z = orthogonal_hyperplane(xv)
            for zv in z.sample(rng, 100):
                assert is_birkhoff_orthogonal(xv, zv)

    def test_mutual_coordinate_pair_linf(self, rng):
        # x0 = e_0 and the coordinate hyperplane are orthogonal both ways
        e0 = LINF_3.vector([1, 0, 0])
        for _ in range(100):
            z = rng.standard_normal(3)
            z[0] = 0.0
            zv = LINF_3.vector(z)
            assert is_birkhoff_orthogonal(e0, zv)
            assert is_birkhoff_orthogonal(zv, e0)

    def test_mutual_coordinate_pair_l1(self, rng):
        e0 = L1_3.vector([1, 0, 0])
        for _ in range(100):
            z = rng.standard_normal(3)
            z[0] = 0.0
            zv = L1_3.vector(z)
            assert is_birkhoff_orthogonal(e0, zv)
            assert is_birkhoff_orthogonal(zv, e0)


class TestL1Triple:
    def test_disjoint(self):
        got = l1_orthogonality_triple(L1_3.vector([1, 0, 0]), L1_3.vector([0, 2, 0]))
        assert got == (True, True, True)

    def test_overlapping(self):
        # |x+y| = 3 and |x-y| = 1 break every characterization
        got = l1_orthogonality_triple(L1_3.vector([1, 1, 0]), L1_3.vector([0, 1, 0]))
        assert got == (False, False, False)

    def test_zero_vector(self):
        got = l1_orthogonality_triple(L1_3.vector([0, 0, 0]), L1_3.vector([1, 0, 0]))
        assert got == (True, True, True)

    def test_wrong_space_kind(self):
        with pytest.raises(ValueError, match="l1"):
            l1_orthogonality_triple(L2_2.vector([1, 0]), L2_2.vector([0, 1]))

    def test_equivalence_on_sparse_pairs(self, rng):
        space = NormSpec.lp(8, 1)
        disagreements = 0
        for _ in range(1000):
            x = rng.standard_normal(8) * (rng.random(8) < 0.35)
            y = rng.standard_normal(8) * (rng.random(8) < 0.35)
            triple = l1_orthogonality_triple(space.vector(x), space.vector(y))
            if len(set(triple)) != 1:
                disagreements += 1
        assert disagreements == 0
