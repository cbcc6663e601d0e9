import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_complex, random_hermitian, same_bits, stack_corpus
from opgeo import linalg
from opgeo.errors import LinalgError


class TestAsMatrix:
    @pytest.mark.parametrize(
        "entry",
        [complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0), complex(0.0, -np.inf)],
        ids=["nan-real", "nan-imag", "inf-real", "inf-imag"],
    )
    def test_rejects_non_finite_part(self, entry):
        m = np.eye(2, dtype=np.complex128)
        m[1, 0] = entry
        with pytest.raises(LinalgError, match="finite"):
            linalg.as_matrix(m)


class TestHermitianEig:
    def test_identity(self):
        dec = linalg.hermitian_eig(np.eye(3))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0, 1.0])

    def test_diagonal_sorted_ascending(self):
        dec = linalg.hermitian_eig(np.diag([2.0, -1.0]))
        np.testing.assert_allclose(dec.eigenvalues, [-1.0, 2.0])

    def test_random_reconstruction(self, rng):
        a = random_hermitian(6, rng)
        dec = linalg.hermitian_eig(a)
        scale = max(1.0, linalg.operator_norm(a))
        assert linalg.operator_norm(a - dec.reconstruct()) <= 1e-10 * scale
        u = dec.eigenvectors
        assert linalg.operator_norm(u.conj().T @ u - np.eye(6)) <= 1e-10

    def test_rejects_non_square(self):
        with pytest.raises(LinalgError, match="square"):
            linalg.hermitian_eig(np.zeros((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(LinalgError, match="Hermitian"):
            linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(LinalgError, match="finite"):
            linalg.hermitian_eig(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_overflowing_residual_raises_before_lapack(self, capfd):
        # A - A* overflows; the residual check once measured nan, which no
        # cut rejects, and returned nan eigenvalues
        a = np.array([[1.7e308, -1.7e308], [1.7e308, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(LinalgError, match="^matrix has non-finite entries$"):
                linalg.hermitian_eig(a)
        assert "DLASCL" not in capfd.readouterr().err

    def test_largest_floats_keep_their_eigenvalues(self):
        # A + A* overflows on diag(1e308, 1), (A + A*)/2 does not
        with np.errstate(over="raise"):
            dec = linalg.hermitian_eig(np.diag([1e308, 1.0]))
        np.testing.assert_array_equal(dec.eigenvalues, [1.0, 1e308])


class TestSVD:
    def test_zero_matrix(self):
        res = linalg.svd(np.zeros((3, 3)))
        np.testing.assert_allclose(res.singular_values, 0.0)

    def test_diagonal(self):
        res = linalg.svd(np.diag([1.0, 0.5]))
        np.testing.assert_allclose(res.singular_values, [1.0, 0.5])

    def test_matches_eig_of_gram_matrix(self, rng):
        a = random_complex(5, rng)
        res = linalg.svd(a)
        gram = linalg.hermitian_eig(a.conj().T @ a)
        expected = np.sqrt(np.clip(gram.eigenvalues[::-1], 0.0, None))
        np.testing.assert_allclose(res.singular_values, expected, atol=1e-9)

    def test_invariants(self, rng):
        a = random_complex(5, rng)
        res = linalg.svd(a)
        scale = max(1.0, linalg.operator_norm(a))
        assert linalg.operator_norm(a - res.reconstruct()) <= 1e-10 * scale
        for u in (res.left, res.right):
            assert linalg.operator_norm(u.conj().T @ u - np.eye(5)) <= 1e-10
        assert np.all(np.diff(res.singular_values) <= 0)


class TestNorms:
    def test_operator_norm_identity(self):
        assert linalg.operator_norm(np.eye(4)) == pytest.approx(1.0)

    def test_operator_norm_diagonal(self):
        assert linalg.operator_norm(np.diag([1.0, 0.5])) == pytest.approx(1.0)

    def test_operator_norm_is_the_two_norm_bit_for_bit(self):
        # np.linalg.norm(m, 2) is the largest of the same LAPACK singular
        # values, so operator_norm may drop the reduction, not the number
        rng = np.random.default_rng(2024)
        for n in (1, 2, 3, 4, 6, 8, 16, 32, 64):
            for _ in range(3):
                g = random_complex(n, rng)
                k = int(rng.integers(0, n))
                deficient = g[:, :k] @ random_complex(n, rng)[:k, :]  # rank k < n
                for m in (g, deficient, 1e-200 * g, 1e-200 * deficient):
                    assert linalg.operator_norm(m) == float(np.linalg.norm(m, 2))

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000), st.integers(2, 8))
    def test_cstar_identity(self, seed, n):
        a = random_complex(n, np.random.default_rng(seed))
        lhs = linalg.operator_norm(a) ** 2
        rhs = linalg.operator_norm(a.conj().T @ a)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)

    def test_trace_norm_identity(self):
        assert linalg.trace_norm(np.eye(5)) == pytest.approx(5.0)

    def test_trace_norm_rank_one(self, rng):
        xi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        eta = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        xi /= np.linalg.norm(xi)
        eta /= np.linalg.norm(eta)
        assert linalg.trace_norm(np.outer(xi, eta.conj())) == pytest.approx(1.0)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000), st.integers(1, 8))
    def test_trace_dominates_operator(self, seed, n):
        a = random_complex(n, np.random.default_rng(seed))
        assert linalg.trace_norm(a) >= linalg.operator_norm(a) - 1e-12


STACK_DIMS = (1, 2, 3, 4, 6, 8, 16, 32, 64)


class TestStacks:
    """The stacked kernels give what separate calls give, bit for bit: the
    gufunc behind a stacked numpy.linalg call runs LAPACK on each matrix."""

    @pytest.mark.parametrize("n", STACK_DIMS)
    def test_svd_stack_matches_separate_calls(self, n):
        mats = stack_corpus(n, np.random.default_rng(n)) + stack_corpus(n, np.random.default_rng(n + 100))
        results = linalg.svd_stack(np.stack(mats))
        assert len(results) == len(mats)
        for m, res in zip(mats, results):
            alone = linalg.svd(m)
            assert same_bits(res.left, alone.left)
            assert same_bits(res.singular_values, alone.singular_values)
            assert same_bits(res.right, alone.right)

    @pytest.mark.parametrize(
        "dims", [(n,) for n in STACK_DIMS] + [(2, 3), (16, 16)], ids=lambda d: "+".join(f"M{n}" for n in d)
    )
    def test_direct_sum_norms_match_separate_calls(self, dims):
        # element j's blocks are the j-th matrices of the corpora; the zero
        # and rank-deficient ones meet on some elements and not on others
        rng = np.random.default_rng(sum(dims))
        corpora = [stack_corpus(n, rng) + stack_corpus(n, rng)[::-1] for n in dims]
        norms = linalg.direct_sum_norms([np.stack(c) for c in corpora])
        assert norms.shape == (len(corpora[0]),)
        for j, nrm in enumerate(norms):
            assert same_bits(nrm, linalg.direct_sum_norm(c[j] for c in corpora))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "inf-imag"])
    @pytest.mark.parametrize("kernel", ["svd_stack", "direct_sum_norms"])
    def test_non_finite_stack_raises_before_lapack(self, capfd, kernel, entry):
        stack = np.stack(stack_corpus(3, np.random.default_rng(0)))
        stack[1, 2, 0] = entry
        call = {"svd_stack": lambda: linalg.svd_stack(stack), "direct_sum_norms": lambda: linalg.direct_sum_norms([stack])}
        with pytest.raises(LinalgError, match="^matrix has non-finite entries$"):
            call[kernel]()
        assert "DLASCL" not in capfd.readouterr().err

    def test_svd_stack_rejects_a_single_matrix(self):
        with pytest.raises(LinalgError, match="stack"):
            linalg.svd_stack(np.eye(2))


class TestPolar:
    def test_unitary_input(self, rng):
        q, _ = np.linalg.qr(random_complex(4, rng))
        dec = linalg.polar(q, side="left")
        np.testing.assert_allclose(dec.absolute, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(dec.isometry, q, atol=1e-10)

    def test_singular_diagonal_completion(self):
        dec = linalg.polar(np.diag([2.0, 0.0]), side="left")
        np.testing.assert_allclose(dec.absolute, np.diag([2.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(np.abs(dec.isometry[:, 0]), [1.0, 0.0], atol=1e-12)
        u = dec.isometry
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_random_residual(self, side, rng):
        a = random_complex(5, rng) + 2.0 * np.eye(5)
        dec = linalg.polar(a, side=side)
        if side == "left":
            residual = a - dec.absolute @ dec.isometry
        else:
            residual = a - dec.isometry @ dec.absolute
        assert linalg.operator_norm(residual) <= 1e-10 * max(1.0, linalg.operator_norm(a))
        u = dec.isometry
        assert linalg.operator_norm(u.conj().T @ u - np.eye(5)) <= 1e-10

    def test_absolute_matches_functional_calculus(self, rng):
        a = random_complex(5, rng)
        left_abs = linalg.polar(a, side="left").absolute
        via_sqrt = linalg.apply_function_hermitian(
            a @ a.conj().T, lambda s: np.sqrt(max(s, 0.0))
        )
        assert linalg.operator_norm(left_abs - via_sqrt) <= 1e-9

    def test_rejects_bad_side(self):
        with pytest.raises(LinalgError):
            linalg.polar(np.eye(2), side="middle")


class TestFunctionalCalculus:
    def test_identity_function(self, rng):
        a = random_hermitian(4, rng)
        out = linalg.apply_function_hermitian(a, lambda s: s)
        assert linalg.operator_norm(out - a) <= 1e-10

    def test_diagonal_arithmetic(self):
        out = linalg.apply_function_hermitian(np.diag([1.0, 0.5]), lambda s: s * (1 - s))
        np.testing.assert_allclose(out, np.diag([0.0, 0.25]), atol=1e-12)

    def test_sqrt_squares_back(self, rng):
        g = random_complex(5, rng)
        a = g @ g.conj().T
        root = linalg.apply_function_hermitian(a, lambda s: np.sqrt(max(s, 0.0)))
        assert linalg.operator_norm(root @ root - a) <= 1e-9

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10_000), st.integers(2, 6))
    def test_polynomial_composition(self, seed, n):
        a = random_hermitian(n, np.random.default_rng(seed))
        phi = lambda s: 2.0 * s * s - 1.0
        psi = lambda s: s * s * s + 0.5 * s
        direct = linalg.apply_function_hermitian(a, lambda s: phi(psi(s)))
        staged = linalg.apply_function_hermitian(
            linalg.apply_function_hermitian(a, psi), phi, tol=1e-6
        )
        scale = max(1.0, linalg.operator_norm(direct))
        assert linalg.operator_norm(direct - staged) <= 1e-9 * scale

    def test_rejects_non_hermitian(self):
        with pytest.raises(LinalgError, match="Hermitian"):
            linalg.apply_function_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), lambda s: s)
