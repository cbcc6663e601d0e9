import numpy as np
import pytest

from opgeo import linalg
from opgeo.algebra import AlgebraShape, Element, element_norm
from opgeo.classify import element_min_singular_value, is_partial_isometry_algebraic
from opgeo.generators import (
    gen_ginibre,
    gen_hermitian,
    gen_invertible,
    gen_norm_one_non_pi,
    gen_partial_isometry,
    gen_positive,
    gen_singular,
    gen_unitary,
    random_ranks,
)

SHAPE = AlgebraShape((2, 3))


def _all_blocks(x: Element):
    yield from x.blocks


class TestDeterminism:
    @pytest.mark.parametrize(
        "gen",
        [gen_ginibre, gen_unitary, gen_norm_one_non_pi, gen_hermitian, gen_positive,
         gen_invertible, gen_singular],
    )
    def test_same_seed_bit_identical(self, gen):
        a = gen(SHAPE, np.random.default_rng(42))
        b = gen(SHAPE, np.random.default_rng(42))
        for ba, bb in zip(a.blocks, b.blocks):
            assert np.array_equal(ba, bb)

    def test_distinct_seeds_differ(self):
        a = gen_ginibre(SHAPE, np.random.default_rng(0))
        b = gen_ginibre(SHAPE, np.random.default_rng(1))
        assert element_norm(a - b) > 1e-3

    def test_partial_isometry_deterministic(self):
        r1 = random_ranks(SHAPE, np.random.default_rng(7))
        r2 = random_ranks(SHAPE, np.random.default_rng(7))
        assert r1 == r2
        a = gen_partial_isometry(SHAPE, r1, np.random.default_rng(7))
        b = gen_partial_isometry(SHAPE, r2, np.random.default_rng(7))
        for ba, bb in zip(a.blocks, b.blocks):
            assert np.array_equal(ba, bb)


class TestGinibre:
    def test_mean_entry_magnitude(self):
        rng = np.random.default_rng(123)
        mags = []
        for _ in range(500):
            x = gen_ginibre(SHAPE, rng)
            for b in _all_blocks(x):
                mags.extend(np.abs(b).ravel())
        # standard complex Gaussian: E|z| = sqrt(pi)/2
        assert np.mean(mags) == pytest.approx(np.sqrt(np.pi) / 2.0, abs=0.02)


class TestUnitary:
    def test_unitarity(self, rng):
        for _ in range(20):
            u = gen_unitary(SHAPE, rng)
            for b in _all_blocks(u):
                n = b.shape[0]
                assert linalg.operator_norm(b.conj().T @ b - np.eye(n)) <= 1e-10
                assert linalg.operator_norm(b @ b.conj().T - np.eye(n)) <= 1e-10

    def test_determinant_modulus(self, rng):
        for _ in range(20):
            u = gen_unitary(SHAPE, rng)
            for b in _all_blocks(u):
                assert abs(np.linalg.det(b)) == pytest.approx(1.0, abs=1e-9)

    def test_scalar_block_unit_modulus(self, rng):
        u = gen_unitary(AlgebraShape((1, 1)), rng)
        for b in _all_blocks(u):
            assert abs(b[0, 0]) == pytest.approx(1.0, abs=1e-12)


class TestPartialIsometry:
    def test_support_identity(self, rng):
        for _ in range(50):
            ranks = random_ranks(SHAPE, rng)
            x = gen_partial_isometry(SHAPE, ranks, rng)
            assert element_norm(x @ x.H @ x - x) <= 1e-9

    def test_requested_ranks(self, rng):
        x = gen_partial_isometry(SHAPE, (1, 2), rng)
        for b, r in zip(x.blocks, (1, 2)):
            s = linalg.singular_values(b)
            assert np.sum(s > 0.5) == r
            np.testing.assert_allclose(s[:r], 1.0, atol=1e-10)

    def test_proper_ranks_leave_defect(self, rng):
        for _ in range(20):
            ranks = random_ranks(SHAPE, rng, proper=True)
            assert any(r < n for r, n in zip(ranks, SHAPE.block_dims))

    def test_proper_ranks_impossible_on_m1(self, rng):
        with pytest.raises(ValueError):
            random_ranks(AlgebraShape((1,)), rng, proper=True)

    def test_zero_ranks(self, rng):
        x = gen_partial_isometry(SHAPE, (0, 0), rng)
        assert element_norm(x) == 0.0


class TestNormOneNonPI:
    def test_audit(self, rng):
        for _ in range(50):
            x = gen_norm_one_non_pi(SHAPE, rng)
            assert element_norm(x) == pytest.approx(1.0, abs=1e-10)
            assert not is_partial_isometry_algebraic(x)
            interior = [
                s
                for b in x.blocks
                for s in linalg.singular_values(b)
                if 0.1 <= s <= 0.9
            ]
            assert interior


class TestHermitianPositive:
    def test_hermitian(self, rng):
        h = gen_hermitian(SHAPE, rng)
        assert element_norm(h - h.H) <= 1e-12

    def test_positive(self, rng):
        for _ in range(20):
            x = gen_positive(SHAPE, rng)
            assert element_norm(x - x.H) <= 1e-12
            for b in _all_blocks(x):
                assert np.linalg.eigvalsh(b)[0] >= -1e-12
            assert element_norm(x) == pytest.approx(1.0, abs=1e-10)


class TestInvertibleSingular:
    def test_invertible_gap(self, rng):
        for _ in range(20):
            x = gen_invertible(SHAPE, rng)
            assert element_min_singular_value(x) >= 0.1

    def test_singular_exact_kernel(self, rng):
        for _ in range(20):
            x = gen_singular(SHAPE, rng)
            assert element_min_singular_value(x) <= 1e-12
