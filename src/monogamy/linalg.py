"""Dense complex linear algebra for small (<= 64x64) matrices.

All operations are pure functions on numpy arrays.  Index convention:
subsystem 0 is the leftmost tensor factor, composite indices are row-major.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Max-abs asymmetry allowed before a matrix is rejected as non-Hermitian.
HERMITICITY_ATOL = 1e-10
# Eigenvalues of nominally PSD matrices in [PSD_EIG_FLOOR, 0) are clipped
# to zero; anything more negative is a hard error.
PSD_EIG_FLOOR = -1e-10


def _as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def _check_square(m: np.ndarray) -> int:
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m.shape[0]


def whole(value, what: str) -> int:
    """``value`` as an int, when it equals one; ``what`` names it in the
    error.  An integral float, a NumPy integer or a bool is read as the int
    it equals; a fraction or a string raises ValueError, NaN raises
    ``int``'s ValueError and inf its OverflowError; None or a sequence
    raises ``int``'s TypeError.  ``linalg``, ``states``, ``measures`` and
    ``verify`` read every count, subsystem dimension and subsystem index
    that a caller passes by this rule, and every sample count and seed by
    ``nonnegative_whole``."""
    if value != int(value):
        raise ValueError(f"{what} must be an integer, got {value}")
    return int(value)


def nonnegative_whole(value, what: str) -> int:
    """``value`` read by ``whole``, and refused when it is negative: the rule
    of every sample count and seed.  A seed read by it seeds NumPy exactly
    as its ``int`` does; None, which NumPy would take as a request for the
    operating system's entropy, raises ``int``'s TypeError."""
    value = whole(value, what)
    if value < 0:
        raise ValueError(f"{what} must be nonnegative, got {value}")
    return value


def subsystem_dims(dims: Sequence[int]) -> tuple[int, ...]:
    """``dims`` as a tuple of positive ints, each read by ``whole``."""
    dims = tuple(whole(x, "subsystem dimension") for x in dims)
    if any(x < 1 for x in dims):
        raise ValueError(f"subsystem dimensions must be positive, got {dims}")
    return dims


def _check_dims(m: np.ndarray, dims: Sequence[int]) -> tuple[int, ...]:
    d = _check_square(m)
    dims = subsystem_dims(dims)
    if int(np.prod(dims)) != d:
        raise ValueError(f"product of dims {dims} does not match matrix side {d}")
    return dims


def _check_hermitian(m: np.ndarray) -> np.ndarray:
    _check_square(m)
    asym = np.max(np.abs(m - m.conj().T), initial=0.0)
    if asym > HERMITICITY_ATOL:
        raise ValueError(f"matrix is not Hermitian (max asymmetry {asym:.3e})")
    return m


def partial_trace(rho, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    Parameters
    ----------
    rho : array_like
        Square matrix over the tensor product of ``dims``.
    dims : sequence of int
        Subsystem dimensions, leftmost factor first.
    keep : sequence of int
        Indices of the subsystems to retain (order-insensitive; the result
        is ordered by ascending subsystem index).
    """
    rho = _as_matrix(rho)
    dims = _check_dims(rho, dims)
    n = len(dims)
    keep = sorted({whole(k, "keep index") for k in keep})
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")
    if not keep:
        raise ValueError("must keep at least one subsystem")

    t = rho.reshape(dims + dims)
    row = list(range(n))
    col = [i + n if i in keep else i for i in range(n)]
    out = [i for i in keep] + [i + n for i in keep]
    reduced = np.einsum(t, row + col, out)
    dk = int(np.prod([dims[i] for i in keep]))
    return reduced.reshape(dk, dk)


def partial_transpose(rho, dims: Sequence[int], part: int) -> np.ndarray:
    """Transpose applied to a single tensor factor."""
    rho = _as_matrix(rho)
    dims = _check_dims(rho, dims)
    n = len(dims)
    part = whole(part, "part index")
    if part < 0 or part >= n:
        raise ValueError(f"part index {part} out of range for {n} subsystems")
    t = rho.reshape(dims + dims)
    axes = list(range(2 * n))
    axes[part], axes[part + n] = axes[part + n], axes[part]
    d = rho.shape[0]
    return t.transpose(axes).reshape(d, d)


def hermitian_eigen(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues real and sorted
    in descending order and eigenvectors as the corresponding columns.
    """
    m = _check_hermitian(_as_matrix(m))
    w, v = np.linalg.eigh(m)
    return w[::-1].copy(), v[:, ::-1].copy()


def trace_norm(m) -> float:
    """Sum of singular values of a Hermitian matrix: the sum of its absolute
    eigenvalues.  Non-Hermitian input raises ``ValueError``."""
    m = _check_hermitian(_as_matrix(m))
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))


def psd_sqrt(m) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in ``[PSD_EIG_FLOOR, 0)`` are treated as round-off and
    clipped to zero; more negative eigenvalues raise ``ValueError``.
    """
    w, v = hermitian_eigen(m)
    wmin = w[-1] if w.size else 0.0
    if wmin < PSD_EIG_FLOOR:
        raise ValueError(f"matrix is not PSD (min eigenvalue {wmin:.3e})")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T
