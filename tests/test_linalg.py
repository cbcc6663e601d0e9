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


HERMITIAN_DIMS = (1, 2, 3, 6, 16, 32)


def hermitian_corpus(n: int, rng: np.random.Generator, zeros=(0.0, -0.0)) -> list[np.ndarray]:
    """n x n inputs for hermitian_eig: the stack corpus, a Hermitian and a
    skew-Hermitian matrix, and Gaussian matrices with about a third of their
    real and of their imaginary parts set to a zero drawn from `zeros`.  At
    n = 2 also a matrix whose lower entry of A + A* is -0 - i, which
    0.5 * (A + A*) turns into +0 - 0.5i: the sign LAPACK's reflector reads."""
    h = random_hermitian(n, rng)
    zeroed = []
    for _ in range(3):
        parts = np.stack([random_complex(n, rng).real, random_complex(n, rng).imag], axis=-1)
        mask = rng.random(parts.shape) < 1 / 3
        parts[mask] = rng.choice(zeros, size=mask.sum())
        g = np.empty((n, n), dtype=np.complex128)
        g.real, g.imag = parts[..., 0], parts[..., 1]
        zeroed.append(g)
    signed = [np.array([[0.0, complex(-0.0, 0.0)], [complex(-0.0, -1.0), 0.0]])] if n == 2 else []
    return stack_corpus(n, rng) + [h, 1j * h] + zeroed + signed


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
        u = dec.eigenvectors
        assert linalg.operator_norm(a - (u * dec.eigenvalues) @ u.conj().T) <= 1e-10 * scale
        assert linalg.operator_norm(u.conj().T @ u - np.eye(6)) <= 1e-10

    def test_rejects_non_square(self):
        with pytest.raises(LinalgError, match="square"):
            linalg.hermitian_eig(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(LinalgError, match="finite"):
            linalg.hermitian_eig(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("entry", [np.nan, complex(0.0, -np.inf)], ids=["nan", "inf-imag"])
    @pytest.mark.parametrize("kernel", ["hermitian_eig", "hermitian_eigvals"])
    def test_non_finite_raises_before_lapack(self, capfd, kernel, entry):
        a = np.eye(3, dtype=np.complex128)
        a[2, 0] = entry
        with pytest.raises(LinalgError, match="^matrix has non-finite entries$"):
            getattr(linalg, kernel)(a)
        assert "DLASCL" not in capfd.readouterr().err

    def test_values_only_kernel_rejects_non_square(self):
        with pytest.raises(LinalgError, match="square"):
            linalg.hermitian_eigvals(np.zeros((2, 3)))

    def test_largest_floats_keep_their_eigenvalues(self):
        # A + A* overflows on diag(1e308, 1), (A + A*)/2 does not
        with np.errstate(over="raise"):
            dec = linalg.hermitian_eig(np.diag([1e308, 1.0]))
        np.testing.assert_array_equal(dec.eigenvalues, [1.0, 1e308])

    def test_largest_floats_of_a_non_hermitian_input(self):
        # A + A* and A - A* overflow here; the halves-first Hermitian part
        # [[1.7e308, 0], [0, 0]] does not
        a = np.array([[1.7e308, -1.7e308], [1.7e308, 0.0]])
        with np.errstate(over="raise", invalid="raise"):
            dec = linalg.hermitian_eig(a)
            values = linalg.hermitian_eigvals(a)
        np.testing.assert_array_equal(dec.eigenvalues, [0.0, 1.7e308])
        np.testing.assert_array_equal(values, [0.0, 1.7e308])

    @pytest.mark.parametrize("n", HERMITIAN_DIMS)
    def test_decomposes_the_hermitian_part(self, n):
        # the bits of eigh(0.5 * (A + A*)), signed zeros of A included
        for a in hermitian_corpus(n, np.random.default_rng(n)):
            dec = linalg.hermitian_eig(a)
            w, u = np.linalg.eigh(0.5 * (a + a.conj().T))
            assert same_bits(dec.eigenvalues, w) and same_bits(dec.eigenvectors, u)
            assert same_bits(linalg.hermitian_eigvals(a), np.linalg.eigvalsh(0.5 * (a + a.conj().T)))

    @pytest.mark.parametrize("n", HERMITIAN_DIMS)
    def test_skew_part_through_minus_i(self, n):
        # the Hermitian part of -iA is the skew part, with the bits of
        # eigh(-0.5j * (A - A*)); a -0 part of A is left out, since the
        # product by -0.5j signs the zeros of that spelling its own way
        for a in hermitian_corpus(n, np.random.default_rng(n + 100), zeros=(0.0,)):
            dec = linalg.hermitian_eig(-1j * a)
            w, u = np.linalg.eigh(-0.5j * (a - a.conj().T))
            assert same_bits(dec.eigenvalues, w) and same_bits(dec.eigenvectors, u)

    @pytest.mark.parametrize("n", HERMITIAN_DIMS)
    def test_any_memory_order(self, n):
        # a block of x.H is a Fortran-ordered view; its Hermitian part has
        # the bits of its C-ordered copy's
        for a in hermitian_corpus(n, np.random.default_rng(n + 200)):
            c = np.ascontiguousarray(a.conj().T)
            dec = linalg.hermitian_eig(c)
            for view in (a.conj().T, np.asfortranarray(c), np.flip(np.flip(c, 0).copy(), 0)):
                other = linalg.hermitian_eig(view)
                assert same_bits(other.eigenvalues, dec.eigenvalues)
                assert same_bits(other.eigenvectors, dec.eigenvectors)
                assert same_bits(linalg.hermitian_eigvals(view), linalg.hermitian_eigvals(c))


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
        assert linalg.operator_norm(a - (res.left * res.singular_values) @ res.right.conj().T) <= 1e-10 * scale
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
        # values, so operator_norm may drop the reduction, not the number;
        # trace_norm sums the same values
        rng = np.random.default_rng(2024)
        for n in (1, 2, 3, 4, 6, 8, 16, 32, 64):
            for _ in range(3):
                g = random_complex(n, rng)
                k = int(rng.integers(0, n))
                deficient = g[:, :k] @ random_complex(n, rng)[:k, :]  # rank k < n
                for m in (g, deficient, 1e-200 * g, 1e-200 * deficient):
                    assert linalg.operator_norm(m) == float(np.linalg.norm(m, 2))
                    assert linalg.trace_norm(m) == float(np.sum(np.linalg.svd(m, compute_uv=False)))

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

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "inf-imag"])
    @pytest.mark.parametrize("kernel", ["operator_norm", "trace_norm", "singular_values"])
    def test_non_finite_raises_before_lapack(self, capfd, kernel, entry):
        a = np.eye(3, dtype=np.complex128)
        a[2, 0] = entry
        with pytest.raises(LinalgError, match="^matrix has non-finite entries$"):
            getattr(linalg, kernel)(a)
        assert "DLASCL" not in capfd.readouterr().err


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
        dec = linalg.polar(q)
        np.testing.assert_allclose(dec.absolute, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(dec.isometry, q, atol=1e-10)

    def test_singular_diagonal_completion(self):
        dec = linalg.polar(np.diag([2.0, 0.0]))
        np.testing.assert_allclose(dec.absolute, np.diag([2.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(np.abs(dec.isometry[:, 0]), [1.0, 0.0], atol=1e-12)
        u = dec.isometry
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    def test_random_residual(self, rng):
        a = random_complex(5, rng) + 2.0 * np.eye(5)
        dec = linalg.polar(a)
        residual = a - dec.absolute @ dec.isometry
        assert linalg.operator_norm(residual) <= 1e-10 * max(1.0, linalg.operator_norm(a))
        u = dec.isometry
        assert linalg.operator_norm(u.conj().T @ u - np.eye(5)) <= 1e-10

    def test_absolute_matches_functional_calculus(self, rng):
        a = random_complex(5, rng)
        left_abs = linalg.polar(a).absolute
        via_sqrt = linalg.apply_function_hermitian(
            a @ a.conj().T, lambda s: np.sqrt(max(s, 0.0))
        )
        assert linalg.operator_norm(left_abs - via_sqrt) <= 1e-9


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
            linalg.apply_function_hermitian(a, psi), phi
        )
        scale = max(1.0, linalg.operator_norm(direct))
        assert linalg.operator_norm(direct - staged) <= 1e-9 * scale

