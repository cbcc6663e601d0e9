import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import diag_element, random_complex, same_bits, stack_corpus
from opgeo import linalg
from opgeo.algebra import (
    AlgebraShape,
    Element,
    Functional,
    coordinate_rows,
    element_norm,
    evaluate,
    functional_norm,
    min_real_over_norming,
    norming_set,
    numeric_span_rank,
    sample_norming_densities,
    sample_norming_functional,
    take_snapshots,
)
from opgeo.errors import LinalgError, PreconditionError, ShapeMismatchError
from opgeo.generators import gen_ginibre, gen_invertible, gen_unitary


class TestShapesAndElements:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            AlgebraShape(())
        with pytest.raises(ValueError):
            AlgebraShape((2, 0))
        assert AlgebraShape((2, 3)).dual_dimension == 13
        assert str(AlgebraShape((2, 3))) == "M2+M3"

    def test_block_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            Element(AlgebraShape((2, 3)), (np.eye(2),))

    def test_arithmetic_and_adjoint(self, rng):
        x = Element.from_blocks([random_complex(2, rng), random_complex(3, rng)])
        y = Element.from_blocks([random_complex(2, rng), random_complex(3, rng)])
        z = 2.0 * (x + y) - y @ x
        for zb, xb, yb in zip(z.blocks, x.blocks, y.blocks):
            np.testing.assert_allclose(zb, 2.0 * (xb + yb) - yb @ xb)
        np.testing.assert_allclose(x.H.blocks[0], x.blocks[0].conj().T)

    def test_blocks_immutable(self):
        x = Element.identity(AlgebraShape((2,)))
        with pytest.raises(ValueError):
            x.blocks[0][0, 0] = 5.0

    def test_svd_snapshot(self, rng):
        x = Element.from_blocks([random_complex(2, rng), random_complex(3, rng)])
        first = x.svds
        assert x.svds is first  # decomposed once, then read
        for r, b in zip(first, x.blocks):
            np.testing.assert_allclose((r.left * r.singular_values) @ r.right.conj().T, b, atol=1e-13)
        assert x.norm == max(float(r.singular_values[0]) for r in first)
        assert x.norm == pytest.approx(element_norm(x), rel=1e-14)
        assert (2.0 * x).norm == pytest.approx(2.0 * x.norm, rel=1e-14)


class TestTakeSnapshots:
    @pytest.mark.parametrize(
        "dims",
        [(1,), (2,), (3,), (4,), (6,), (8,), (16,), (32,), (64,), (2, 3), (16, 16)],
        ids=lambda d: "+".join(f"M{n}" for n in d),
    )
    def test_matches_each_elements_own_snapshot(self, dims):
        # element j's blocks are the j-th matrices of the corpora: Gaussian,
        # rank-deficient, zero and tiny blocks, met in different pairings
        rng = np.random.default_rng(sum(dims))
        corpora = [stack_corpus(n, rng) + stack_corpus(n, rng)[::-1] for n in dims]
        shape = AlgebraShape(dims)
        elements = [Element(shape, blocks) for blocks in zip(*corpora)]
        take_snapshots(elements)
        for e in elements:
            alone = Element(shape, e.blocks)  # a fresh element takes its own
            assert e.norm == alone.norm
            for res, own in zip(e.svds, alone.svds):
                assert same_bits(res.left, own.left)
                assert same_bits(res.singular_values, own.singular_values)
                assert same_bits(res.right, own.right)

    def test_reads_of_the_snapshot_decompose_nothing(self, monkeypatch, rng):
        shape = AlgebraShape((2, 3))
        elements = [Element.from_blocks([random_complex(2, rng), random_complex(3, rng)]) for _ in range(3)]
        take_snapshots(elements)
        monkeypatch.setattr(np.linalg, "svd", None)
        assert all(len(e.svds) == len(shape.block_dims) and e.norm > 0.0 for e in elements)

    def test_rejects_elements_of_different_algebras(self, rng):
        elements = [Element.from_blocks([random_complex(2, rng)]), Element.from_blocks([random_complex(3, rng)])]
        with pytest.raises(ShapeMismatchError, match="different algebras"):
            take_snapshots(elements)


class TestPairing:
    def test_normalized_trace_of_unit(self):
        n = 4
        f = Functional(AlgebraShape((n,)), [np.eye(n) / n])
        assert evaluate(f, Element.identity(AlgebraShape((n,)))) == pytest.approx(1.0)

    def test_zero_functional(self):
        f = Functional(AlgebraShape((3,)), [np.zeros((3, 3))])
        x = Element.identity(AlgebraShape((3,)))
        assert evaluate(f, x) == 0.0

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000))
    def test_duality_inequality(self, seed):
        rng = np.random.default_rng(seed)
        shape = AlgebraShape((2, 3))
        x = gen_ginibre(shape, rng)
        f = Functional(shape, tuple(random_complex(n, rng) for n in shape.block_dims))
        assert abs(evaluate(f, x)) <= functional_norm(f) * element_norm(x) + 1e-9

    def test_shape_mismatch(self):
        f = Functional(AlgebraShape((2,)), [np.eye(2)])
        x = Element.identity(AlgebraShape((3,)))
        with pytest.raises(ShapeMismatchError):
            evaluate(f, x)


class TestElementNorm:
    def test_unit(self):
        assert element_norm(Element.identity(AlgebraShape((2, 3)))) == pytest.approx(1.0)

    def test_diagonal_blocks(self):
        assert element_norm(diag_element([1.0], [0.5])) == pytest.approx(1.0)

    def test_matches_assembled_norm(self, rng):
        x = gen_ginibre(AlgebraShape((2, 4)), rng)
        assembled = np.zeros((6, 6), dtype=np.complex128)
        assembled[:2, :2], assembled[2:, 2:] = x.blocks
        assert element_norm(x) == pytest.approx(linalg.operator_norm(assembled))


class TestNormingSet:
    def test_identity_full_span(self):
        desc = norming_set(Element.identity(AlgebraShape((3,))))
        assert desc.span_dim == 9
        assert desc.active_blocks == (0,)
        assert desc.unit_indices == ((0, 1, 2),)

    def test_diagonal_point_mass(self):
        desc = norming_set(diag_element([1.0, 0.5]))
        assert desc.span_dim == 1
        assert desc.unit_indices == ((0,),)

    def test_direct_sum_inactive_block(self, rng):
        shape = AlgebraShape((2, 3))
        u = gen_unitary(shape, rng)
        x = Element(shape, (u.blocks[0], 0.5 * u.blocks[1]))
        desc = norming_set(x)
        assert desc.active_blocks == (0,)
        assert desc.span_dim == 4
        samples = [sample_norming_functional(desc, rng) for _ in range(3 * desc.span_dim)]
        assert numeric_span_rank(samples) == 4

    def test_rejects_wrong_norm(self):
        with pytest.raises(PreconditionError):
            norming_set(diag_element([2.0, 0.5]))

    def test_borderline_warning(self):
        desc = norming_set(diag_element([1.0, 1.0 - 1e-5]))
        assert desc.warnings
        assert desc.span_dim == 1


class TestSampling:
    def test_point_mass_member(self):
        desc = norming_set(diag_element([1.0, 0.5]))
        f = sample_norming_functional(desc, np.random.default_rng(0))
        np.testing.assert_allclose(f.densities[0], np.diag([1.0, 0.0]), atol=1e-12)

    def test_sampling_audit_random_unitary(self, rng):
        x = gen_unitary(AlgebraShape((2, 3)), rng)
        desc = norming_set(x)
        worst_val = worst_nrm = 0.0
        for _ in range(1000):
            f = sample_norming_functional(desc, rng)
            worst_val = max(worst_val, abs(evaluate(f, x) - 1.0))
            worst_nrm = max(worst_nrm, abs(functional_norm(f) - 1.0))
        assert worst_val <= 1e-8
        assert worst_nrm <= 1e-8

    @pytest.mark.parametrize(
        ("dims", "sigmas"),
        [((4,), ([1.0, 1.0, 0.5, 0.2],)), ((2, 3), ([1.0, 0.5], [1.0, 1.0, 0.3]))],
        ids=["M4-one-active-block", "M2+M3-two-active-blocks"],
    )
    def test_batched_draws_match_sequential_draws(self, rng, dims, sigmas):
        u = gen_unitary(AlgebraShape(dims), rng)
        x = Element.from_blocks([b @ np.diag(s) for b, s in zip(u.blocks, sigmas)])
        desc = norming_set(x)
        assert len(desc.active_blocks) == len(dims)
        batched_rng, sequential_rng = np.random.default_rng(3), np.random.default_rng(3)
        stacks = sample_norming_densities(desc, batched_rng, 7)
        sequential = [sample_norming_functional(desc, sequential_rng) for _ in range(7)]
        for s, f in enumerate(sequential):
            for a, b in zip(stacks, f.densities):
                assert np.array_equal(a[s], b)
        rows = np.stack([f.vectorize() for f in sequential])
        assert np.array_equal(coordinate_rows(stacks), rows)
        # one stream can feed further draws, as criterion 4's 100 trials do
        assert batched_rng.bit_generator.state == sequential_rng.bit_generator.state

    def test_span_dim_full_iff_unitary(self, rng):
        shape = AlgebraShape((2, 3))
        u = gen_unitary(shape, rng)
        assert norming_set(u).span_dim == shape.dual_dimension
        x = Element(shape, (u.blocks[0], np.diag([1.0, 0.5, 0.5]).astype(complex)))
        assert norming_set(x).span_dim < shape.dual_dimension


class TestSpanRank:
    def test_single_functional(self, rng):
        f = Functional(AlgebraShape((3,)), [random_complex(3, rng)])
        assert numeric_span_rank([f]) == 1

    def test_duplicates_collapse(self, rng):
        f = Functional(AlgebraShape((3,)), [random_complex(3, rng)])
        assert numeric_span_rank([f, f, f]) == 1

    def test_empty(self):
        assert numeric_span_rank([]) == 0
        assert numeric_span_rank(np.zeros((0, 4), dtype=np.complex128)) == 0

    def test_matches_span_dim(self, rng):
        u = gen_unitary(AlgebraShape((4,)), rng)
        desc = norming_set(u)
        samples = [sample_norming_functional(desc, rng) for _ in range(3 * desc.span_dim)]
        assert numeric_span_rank(samples) == desc.span_dim == 16


class TestMinRealOverNorming:
    def test_positive_diagonal(self):
        shape = AlgebraShape((2,))
        res = min_real_over_norming(Element.identity(shape), diag_element([2.0, 1.0]))
        assert res.value == pytest.approx(1.0)
        assert res.hermitian_residual <= 1e-12

    def test_identity(self):
        shape = AlgebraShape((3,))
        one = Element.identity(shape)
        assert min_real_over_norming(one, one).value == pytest.approx(1.0)

    def test_equals_smallest_singular_value(self, rng):
        x = gen_invertible(AlgebraShape((2, 3)), rng)
        u = Element(x.shape, tuple(linalg.polar(b).isometry for b in x.blocks))
        sigma_min = min(linalg.singular_values(b)[-1] for b in x.blocks)
        res = min_real_over_norming(u, x)
        assert abs(res.value - sigma_min) <= 1e-9

    def test_lower_bounds_sampled_states(self, rng):
        x = gen_ginibre(AlgebraShape((2, 3)), rng)
        u = gen_unitary(x.shape, rng)
        res = min_real_over_norming(u, x)
        desc = norming_set(u)
        for _ in range(200):
            f = sample_norming_functional(desc, rng)
            assert res.value <= evaluate(f, x).real + 1e-8

    def test_rejects_non_unitary(self):
        with pytest.raises(PreconditionError):
            min_real_over_norming(diag_element([1.0, 0.5]), diag_element([1.0, 1.0]))

    def test_overflowing_unitarity_check_raises_before_lapack(self, capfd):
        # u*u overflows on u = 1e200 * 1 in M3.  Outside the CLI, which
        # raises at the overflow itself, numpy only flags it: the check once
        # handed the inf matrix u*u - 1 to LAPACK, which printed a DLASCL
        # error, measured nan, and returned a minimum for a u far from unitary
        one = Element.identity(AlgebraShape((3,)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(LinalgError, match="^matrix has non-finite entries$"):
                min_real_over_norming(1e200 * one, one)
        assert "DLASCL" not in capfd.readouterr().err

    def test_largest_floats_keep_their_minimum(self):
        # m + m* overflows on m = x u* = diag(1e308, -1e308), (m + m*)/2 does
        # not: the Hermitian part once came out inf and the minimum nan
        one = Element.identity(AlgebraShape((2,)))
        with np.errstate(over="raise"):
            res = min_real_over_norming(one, diag_element([1e308, -1e308]))
        assert res.value == -1e308 and res.hermitian_residual == 0.0
