from collections import Counter

import numpy as np
import pytest

from opgeo.algebra import AlgebraShape, Element


def diag_element(*diags) -> Element:
    """Element with diagonal blocks from the given tuples of entries."""
    return Element.from_blocks([np.diag(np.asarray(d, dtype=np.complex128)) for d in diags])


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def random_complex(n: int, rng: np.random.Generator, m: int | None = None) -> np.ndarray:
    m = n if m is None else m
    return (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2.0)


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: a bit-for-bit match, signed zeros too."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def stack_corpus(n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """n x n complex matrices for the stacked kernels: Gaussian, rank
    deficient (the zero matrix at n = 1), zero, and both scaled by 1e-200."""
    g = random_complex(n, rng)
    k = int(rng.integers(0, n))
    deficient = g[:, :k] @ random_complex(n, rng)[:k, :]  # rank k < n
    return [g, deficient, np.zeros((n, n), dtype=np.complex128), 1e-200 * g, 1e-200 * deficient]


def count_linalg(monkeypatch, *names) -> Counter:
    """Count calls of the named numpy.linalg functions by (name, stack shape)."""
    calls = Counter()
    for name in names:
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            calls[_name, np.shape(a)[:-2]] += 1
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# ---------------------------------------------------------------------------
# Brute-force oracle for the norming-face parameterization on M2.
# Maximizes Re tr(a x) over the trace-norm sphere by dense random sampling
# plus projected-gradient ascent; entirely independent of the S_x frames.


def _proj_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, len(v) + 1) > (css - 1.0))[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _proj_trace_ball(m: np.ndarray) -> np.ndarray:
    u, s, vh = np.linalg.svd(m)
    return (u * _proj_simplex(s)) @ vh


def brute_force_norming_maximizer(
    x: np.ndarray, rng: np.random.Generator, starts: int = 3, iters: int = 400
) -> tuple[np.ndarray, float]:
    """argmax of Re tr(a x) over the unit trace-norm ball, plus the value."""
    n = x.shape[0]
    grad = x.conj().T
    best_a, best_v = None, -np.inf
    for _ in range(starts):
        a = _proj_trace_ball(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        for _ in range(iters):
            a = _proj_trace_ball(a + 0.5 * grad)
        v = float(np.trace(a @ x).real)
        if v > best_v:
            best_a, best_v = a, v
    return best_a, best_v


def distance_to_norming_face(x: np.ndarray, a: np.ndarray, tol: float = 1e-6) -> float:
    """Frobenius distance from a to the parameterized face V c W* of x."""
    w, s, vh = np.linalg.svd(x)
    v = vh.conj().T
    keep = s >= 1.0 - tol
    c = v.conj().T @ a @ w
    c[~keep, :] = 0.0
    c[:, ~keep] = 0.0
    c = 0.5 * (c + c.conj().T)
    ev, u = np.linalg.eigh(c)
    c = (u * np.clip(ev, 0.0, None)) @ u.conj().T
    tr = float(np.trace(c).real)
    if tr > 0.0:
        c = c / tr
    return float(np.linalg.norm(a - v @ c @ w.conj().T))
