"""Seeded random generators for each operator class, blockwise."""

from __future__ import annotations

import numpy as np

from opgeo.algebra import AlgebraShape, Element, element_norm


def _ginibre_block(n: int, rng: np.random.Generator) -> np.ndarray:
    """Standard complex Gaussian entries (variance 1 per entry)."""
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


def gen_ginibre(shape: AlgebraShape, rng: np.random.Generator) -> Element:
    return Element(shape, tuple(_ginibre_block(n, rng) for n in shape.block_dims))


def _haar_block(n: int, rng: np.random.Generator) -> np.ndarray:
    """QR of Ginibre with the R diagonal made positive (Haar measure)."""
    q, r = np.linalg.qr(_ginibre_block(n, rng))
    d = np.diag(r)
    ph = d / np.abs(d)
    return q * ph


def gen_unitary(shape: AlgebraShape, rng: np.random.Generator) -> Element:
    return Element(shape, tuple(_haar_block(n, rng) for n in shape.block_dims))


def gen_partial_isometry(
    shape: AlgebraShape, ranks, rng: np.random.Generator
) -> Element:
    """W diag(1_k, 0) V* per block with Haar W, V and prescribed block ranks."""
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != len(shape.block_dims):
        raise ValueError("one rank per block required")
    blocks = []
    for n, k in zip(shape.block_dims, ranks):
        if not 0 <= k <= n:
            raise ValueError(f"rank {k} out of range for M{n}")
        w = _haar_block(n, rng)
        v = _haar_block(n, rng)
        s = np.zeros(n)
        s[:k] = 1.0
        blocks.append((w * s) @ v.conj().T)
    return Element(shape, tuple(blocks))


def random_ranks(
    shape: AlgebraShape, rng: np.random.Generator, proper: bool = False
) -> tuple[int, ...]:
    """Random block ranks with at least one nonzero block; `proper` forces a
    rank-deficient block somewhere (so the result is never unitary)."""
    dims = shape.block_dims
    if proper and sum(dims) < 2:
        raise ValueError(f"{shape} has no rank-deficient nonzero partial isometry")
    while True:
        ranks = tuple(int(rng.integers(0, n + 1)) for n in dims)
        if max(ranks) == 0:
            continue
        if proper and all(r == n for r, n in zip(ranks, dims)):
            continue
        return ranks


def gen_norm_one_non_pi(shape: AlgebraShape, rng: np.random.Generator) -> Element:
    """Norm-one element that is not a partial isometry: prescribed singular
    values with sigma_1 = 1 and one drawn uniformly from [0.2, 0.8].

    The witness-bearing block is the first block of dimension >= 2.
    """
    carrier = next((i for i, n in enumerate(shape.block_dims) if n >= 2), None)
    if carrier is None:
        raise ValueError("shape needs a block of dimension >= 2")
    blocks = []
    for i, n in enumerate(shape.block_dims):
        w = _haar_block(n, rng)
        v = _haar_block(n, rng)
        if i == carrier:
            s = np.sort(rng.uniform(0.0, 0.9, size=n))[::-1]
            s[0] = 1.0
            s[1] = rng.uniform(0.2, 0.8)
            s = np.sort(s)[::-1]
        else:
            s = np.sort(rng.uniform(0.0, 0.9, size=n))[::-1]
        blocks.append((w * s) @ v.conj().T)
    return Element(shape, tuple(blocks))


def gen_hermitian(shape: AlgebraShape, rng: np.random.Generator) -> Element:
    g = gen_ginibre(shape, rng)
    return 0.5 * (g + g.H)


def gen_positive(shape: AlgebraShape, rng: np.random.Generator) -> Element:
    g = gen_ginibre(shape, rng)
    p = g.H @ g
    return (1.0 / element_norm(p)) * p


def gen_invertible(shape: AlgebraShape, rng: np.random.Generator) -> Element:
    """Ginibre g shifted by (||g|| + 0.1) 1.  By Weyl's inequality
    sigma_min(g + c 1) >= c - ||g||, so sigma_min >= 0.1 on every draw."""
    g = gen_ginibre(shape, rng)
    return g + (element_norm(g) + 0.1) * Element.identity(shape)


def gen_singular(shape: AlgebraShape, rng: np.random.Generator) -> Element:
    """Element with an exactly zero singular value in its largest block."""
    target = int(np.argmax(shape.block_dims))
    blocks = []
    for i, n in enumerate(shape.block_dims):
        w = _haar_block(n, rng)
        v = _haar_block(n, rng)
        s = np.sort(rng.uniform(0.1, 1.0, size=n))[::-1]
        if i == target:
            s[-1] = 0.0
        blocks.append((w * s) @ v.conj().T)
    return Element(shape, tuple(blocks))
