"""Bipartite correlation measures on small multiqubit states.

Negativity follows the un-halved convention N = ||rho^{T_A}|| - 1 throughout
(the conventional halved value is available via ``halved=True``).  SCREN and
SCRENoA are provided only where closed forms exist: pure states and two-qubit
mixed states.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import linalg
from .states import DensityMatrix, PureState, check_amplitudes

# the least positive double: a floor that changes no positive number
_SMALLEST = np.finfo(float).smallest_subnormal

MAX_QUBITS = 6

# det(rho^{T_B}) by Laplace expansion along rows (0, 1): for each column pair
# (j, k), rows (0, 1) x columns (j, k) and rows (2, 3) x the other two columns
# give a complementary pair of 2 x 2 minors, with sign (-1)^(1 + j + k).
# _PT_MINORS[h, r, c, p] is the flat index into rho of entry (r, c) of minor p
# of rows (0, 1) (h = 0) or (2, 3) (h = 1); the partial transpose on B is
# built in, as the swap of the B axes of rho's (a, b, a', b') view.
_PT_MINORS = np.arange(16).reshape(2, 2, 2, 2).swapaxes(1, 3).reshape(4, 4)[
    np.array([[0, 1], [2, 3]])[:, :, None, None],
    np.array([[[0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3]],
              [[2, 1, 1, 0, 0, 0], [3, 3, 2, 3, 2, 1]]])[:, None]]
_PT_MINOR_SIGNS = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])

# Absolute error bound of ``_pt_det`` for every factor width k <= 2**(MAX_QUBITS
# - 2), derived there: a larger determinant is positive in exact arithmetic.
_PT_DET_ATOL = 24 * (4 * (2 ** (MAX_QUBITS - 2) + 2) + 28) * np.finfo(float).eps / 2

# sigma_y (x) sigma_y is real and anti-diagonal, (-1, 1, 1, -1) read from the
# top row: YY @ f reverses the rows of f and negates the outer two
_YY_SIGNS = np.array([[-1.0], [1.0], [1.0], [-1.0]])

# the entries of a 4 x 4 matrix below its diagonal, which are zero in R
_BELOW_DIAGONAL = np.tri(4, k=-1, dtype=bool)


class MeasureKind(str, Enum):
    """A bipartite measure with its row of facts.  All kinds come from the
    spin-flip roots: concurrence is max(0, mu_1 - mu_2 - ...), its
    ``assisted`` value the sum of the roots, and SCREN / SCRENoA their
    ``squared`` values, one-vs-rest and pairs alike.  ``relation`` is the
    mode whose base relation is established: CKW r=2 for concurrence and
    SCREN in monogamy mode; assisted measures at s<=1 in polygamy mode."""

    CONCURRENCE = "concurrence", False, False, "monogamy"
    NEGATIVITY_SCREN = "negativity_scren", False, True, "monogamy"
    SCRENOA = "screnoa", True, True, "polygamy"
    CONCURRENCE_ASSISTANCE = "concurrence_assistance", True, False, "polygamy"

    def __new__(cls, value: str, assisted: bool, squared: bool, relation: str):
        obj = str.__new__(cls, value)
        obj._value_, obj.assisted, obj.squared, obj.relation = value, assisted, squared, relation
        return obj


@dataclass(frozen=True)
class MeasureVector:
    """One-vs-rest value and pairwise values of a measure on one state.

    ``pairwise[i]`` is the measure on the reduction to subsystems (0, i+1).
    """

    kind: MeasureKind
    one_vs_rest: float
    pairwise: tuple[float, ...]

    def __post_init__(self):
        vals = (self.one_vs_rest, *self.pairwise)
        if not all(math.isfinite(v) and v >= 0 for v in vals):
            raise ValueError(f"measure values must be finite and nonnegative: "
                             f"{tuple(map(float, vals))}")
        object.__setattr__(self, "pairwise", tuple(float(v) for v in self.pairwise))
        object.__setattr__(self, "one_vs_rest", float(self.one_vs_rest))
        object.__setattr__(self, "kind", MeasureKind(self.kind))  # bounds reads its row


def _check_bipartition(n: int, part_a: Sequence[int]) -> list[int]:
    part = sorted({linalg.whole(i, "part_a index") for i in part_a})
    if not part or len(part) >= n:
        raise ValueError(f"part_a {part} is not a proper nonempty subset of {n} subsystems")
    if any(i < 0 or i >= n for i in part):
        raise ValueError(f"part_a {part} out of range for {n} subsystems")
    return part


def _qubit_concurrence(m: np.ndarray) -> np.ndarray:
    """Concurrence across a one-qubit cut of pure states whose amplitudes
    have shape (..., 2, k), the qubit on the middle axis.

    It is 2 sqrt(det rho_A) = 2 |m_0| |m_1 - (<m_0, m_1> / |m_0|^2) m_0| for
    the rows m_0, m_1, accurate to a few eps absolute: no 1 - purity
    cancels.  A qubit's pure-state negativity has the same value.
    """
    m0 = m[..., 0, :]
    g = np.vecdot(m0[..., None, :], m)  # <m_0, m_0>, <m_0, m_1>
    n0 = g[..., 0].real
    # a zero row m_0 has a zero projection: the floor turns 0 / 0 into 0
    perp = (m[..., 1, :] - (g[..., 1] / np.maximum(n0, _SMALLEST))[..., None] * m0).view(float)
    return 2.0 * np.sqrt(n0 * np.vecdot(perp, perp))


def _concurrence_of_split(m: np.ndarray) -> np.ndarray:
    """sqrt(2 (1 - Tr rho_A^2)) of the reduction rho_A = m m^dagger, taken as
    2 sqrt(sum_{i<j} s_i^2 s_j^2) over the singular values s of m (the two
    agree where sum s_i^2 = Tr rho_A = 1).  Every term is nonnegative and no
    1 - purity cancels, so a product state gives a few eps at most and a
    near-product state keeps its digits."""
    s2 = np.square(np.linalg.svd(m, compute_uv=False))
    return 2.0 * np.sqrt(s2[1:] @ np.cumsum(s2)[:-1])


def _negativity_of_split(m: np.ndarray) -> np.ndarray:
    """(Tr sqrt(rho_A))^2 - 1 for rho_A = m m^dagger, from the singular values
    of m; round-off below 0 (product states) is floored."""
    return np.maximum(np.square(np.sum(np.linalg.svd(m, compute_uv=False))) - 1.0, 0.0)


@functools.cache
def _pair_index(n: int) -> np.ndarray:
    """Gathers the n-1 amplitude matrices with qubits (0, i) on the rows;
    read-only, as every caller shares it."""
    grid = np.arange(2**n).reshape((2,) * n)
    idx = np.stack([np.moveaxis(grid, i, 1).reshape(4, -1) for i in range(1, n)])
    idx.flags.writeable = False
    return idx


def _split(psi: PureState, part_a: Sequence[int]) -> np.ndarray:
    """The amplitudes as a matrix M with the smaller side of the bipartition
    (the one with subsystem 0 on a tie) on the rows, so that a part and its
    complement give the same M and the same bits; rho = M M^dagger on that
    side has no zero eigenvalues for round-off to disturb."""
    part = _check_bipartition(psi.n_subsystems, part_a)
    rest = [i for i in range(psi.n_subsystems) if i not in part]
    part = min(part, rest, key=lambda p: (math.prod(psi.dims[i] for i in p), p[0]))
    m = np.moveaxis(psi.amps.reshape(psi.dims), part, range(len(part)))
    return m.reshape(math.prod(psi.dims[i] for i in part), -1)


def _pure_value(psi: PureState, part_a: Sequence[int], of_split) -> float:
    """Concurrence, or with ``of_split`` the negativity, of a pure state
    across a bipartition: on a qubit side both are ``_qubit_concurrence``
    (a stack of one, so the bits are those of ``measure_vectors``), on a
    larger side ``of_split`` of the amplitude matrix of ``_split``."""
    m = _split(psi, part_a)
    if len(m) == 2:
        return float(_qubit_concurrence(m[None])[0])
    return float(of_split(m))


def concurrence_pure(psi: PureState, part_a: Sequence[int]) -> float:
    """Pure-state concurrence sqrt(2 (1 - Tr rho_A^2)) across a bipartition."""
    return _pure_value(psi, part_a, _concurrence_of_split)


def _spin_flip_roots(f: np.ndarray) -> np.ndarray:
    """Square roots of the eigenvalues of rho @ rho_tilde, descending, for
    two-qubit states rho = f f^dagger given by factors f of shape (..., 4, k),
    k >= 2.

    They are the singular values of the complex symmetric K = f^T YY f, of
    shape (..., min(k, 4)); rho has rank <= k, so the other roots are zeros.
    For k = 2 (three-qubit pure states) they come in closed form from
    ``_two_column_roots``; otherwise from an SVD of K, after a 4 x 4 QR
    factor of a wider f.
    """
    if f.shape[-1] == 2:
        # on stacks of 2 x 2 products einsum is cheaper than matmul's
        # per-matrix BLAS calls
        return _two_column_roots(np.einsum("...ji,...jk->...ik", f, f[..., ::-1, :] * _YY_SIGNS))
    if f.shape[-1] > 4:
        # f^T = Q R, so f f^dagger = R^T R^*: R^T is a 4 x 4 factor of rho.
        # R is the top of QR's raw output, transposed, zeroed below its
        # diagonal as mode="r" zeroes it, in the same memory order
        f = np.where(_BELOW_DIAGONAL, 0, np.linalg.qr(f.mT, mode="raw")[0].mT[..., :4, :]).mT
    return np.linalg.svd(f.mT @ (f[..., ::-1, :] * _YY_SIGNS), compute_uv=False)


def _two_column_roots(k: np.ndarray) -> np.ndarray:
    """Singular values sigma_1 >= sigma_2 of 2 x 2 matrices K, shape (..., 2).

    sigma_1^2 is the larger eigenvalue of H = K K^dagger, and
    sigma_2 = |det K| / sigma_1.  Neither takes a difference of nearly equal
    numbers, so both are accurate to a few eps sigma_1 absolute, also where
    sigma_1 = sigma_2 (GHZ-like pairs) and sigma_2 = 0 (W-like pairs).
    """
    h = np.einsum("...ij,...kj->...ik", k, k.conj())
    h11, h22 = h[..., 0, 0].real, h[..., 1, 1].real
    mu = np.empty(h.shape[:-1])
    s1 = np.sqrt((h11 + h22 + np.hypot(h11 - h22, 2.0 * np.abs(h[..., 0, 1]))) / 2.0,
                 out=mu[..., 0])
    det = np.abs(k[..., 0, 0] * k[..., 1, 1] - k[..., 0, 1] * k[..., 1, 0])
    # K = 0 gives s1 = det = 0, and the floor turns 0 / 0 into 0
    np.divide(det, np.maximum(s1, _SMALLEST), out=mu[..., 1])
    return mu


def _pt_det(f: np.ndarray) -> np.ndarray:
    """det(rho^{T_B}) of two-qubit states rho = f f^dagger, f (..., 4, k) with
    rows of norm <= 1, of shape (...).

    rho^{T_B} is a permutation of rho's entries, so it is exact, and the
    determinant is six products of complementary 2 x 2 minors of its rows
    (0, 1) and (2, 3), taken by one gather and one sum.  Its absolute error is
    at most 24 (4 (k + 2) + 28) u, u = eps / 2: each entry of rho is a dot
    product of two rows of f, of modulus <= 1 and off by at most (k + 2) u
    (Cauchy-Schwarz), and det is a sum of 24 products of four entries, each
    off by at most 4 (k + 2) u from its entries and 28 u from the products,
    differences and sums that form it.  ``_PT_DET_ATOL`` is this bound at the
    widest factor, k = 2**(MAX_QUBITS - 2) = 16: 2400 u = 2.7e-13.  A
    40-digit reference put the float determinant within 3.5e-18 on 2,250 Haar
    pairs at 4 to 6 qubits, and on Haar pairs with C = 0 the least positive
    det is near 1e-8, so the bound sits far from both.  Every row at or
    below the bound takes the roots.
    """
    rho = f @ f.conj().mT
    g = rho.reshape(*rho.shape[:-2], 16)[..., _PT_MINORS]
    m = g[..., 0, 0, :] * g[..., 1, 1, :] - g[..., 0, 1, :] * g[..., 1, 0, :]
    return ((m[..., 0, :] * m[..., 1, :]) @ _PT_MINOR_SIGNS).real


def _pair_values(f: np.ndarray, kind: MeasureKind) -> np.ndarray:
    """Two-qubit values of ``kind`` on states f f^dagger, f (..., 4, k), of
    shape (...).

    A two-qubit state is entangled exactly when det(rho^{T_B}) < 0
    (Augusiak, Demianowicz and Horodecki, PRA 77, 030301(R) (2008)), so for
    a kind that is not assisted a wide f (k > 4: pairs of 5- and 6-qubit
    states, most of them separable) first takes ``_pt_det``: a row whose
    determinant exceeds its error bound ``_PT_DET_ATOL`` has value exactly 0,
    the value the roots give it, and only the other rows take the roots.
    """
    if f.shape[-1] > 4 and not kind.assisted:
        live = _pt_det(f) <= _PT_DET_ATOL
        vals = np.zeros(live.shape)
        if live.any():
            vals[live] = _root_values(f[live], kind)
        return vals
    return _root_values(f, kind)


def _root_values(f: np.ndarray, kind: MeasureKind) -> np.ndarray:
    """``_pair_values`` from the spin-flip roots of every row."""
    mu = _spin_flip_roots(f)
    if kind.assisted:
        vals = np.add.reduce(mu, axis=-1)  # np.sum without its Python wrapper
    else:
        d = mu[..., 0] - mu[..., 1]
        for i in range(2, mu.shape[-1]):
            d -= mu[..., i]
        vals = np.where(d > 0.0, d, 0.0)
    return np.square(vals) if kind.squared else vals


def _two_qubit_factor(rho: DensityMatrix) -> np.ndarray:
    if rho.dims != (2, 2):
        raise ValueError(f"expected a two-qubit state, got dims {rho.dims}")
    return linalg.psd_sqrt(rho.mat)


def concurrence_2q(rho: DensityMatrix) -> float:
    """Two-qubit mixed-state concurrence via the spin-flip closed form."""
    return float(_pair_values(_two_qubit_factor(rho), MeasureKind.CONCURRENCE))


def concurrence_assistance_2q(rho: DensityMatrix) -> float:
    """Two-qubit concurrence of assistance: the sum of the spin-flip roots."""
    return float(_pair_values(_two_qubit_factor(rho), MeasureKind.CONCURRENCE_ASSISTANCE))


def negativity(rho: DensityMatrix, part_a: Sequence[int], halved: bool = False) -> float:
    """Negativity ||rho^{T_A}|| - 1 (un-halved convention by default)."""
    part = _check_bipartition(rho.n_subsystems, part_a)
    pt = rho.mat
    for p in part:
        pt = linalg.partial_transpose(pt, rho.dims, p)
    val = linalg.trace_norm(pt) - 1.0
    val = max(0.0, val)
    return float(val / 2.0 if halved else val)


def negativity_pure(psi: PureState, part_a: Sequence[int]) -> float:
    """Pure-state negativity (Tr sqrt(rho_A))^2 - 1."""
    return _pure_value(psi, part_a, _negativity_of_split)


def scren_pure(psi: PureState, part_a: Sequence[int]) -> float:
    """Squared negativity of a pure state (SCREN and SCRENoA coincide here)."""
    value = negativity_pure(psi, part_a)
    return value * value


def scren_2q(rho: DensityMatrix) -> float:
    """Two-qubit SCREN; pure-state negativity equals concurrence on two
    qubits, so the convex-roof optimum is the squared concurrence."""
    return float(_pair_values(_two_qubit_factor(rho), MeasureKind.NEGATIVITY_SCREN))


def screnoa_2q(rho: DensityMatrix) -> float:
    """Two-qubit SCRENoA: squared concurrence of assistance (the assisted
    convex-roof optima of negativity and concurrence coincide on two qubits)."""
    return float(_pair_values(_two_qubit_factor(rho), MeasureKind.SCRENOA))


def measure_vectors(amps, dims: Sequence[int],
                    kind: MeasureKind | str) -> tuple[np.ndarray, np.ndarray]:
    """Measure values of a stack of n-qubit pure states, 3 <= n <= 6, as the
    arrays (one_vs_rest (N,), pairwise (N, n-1)).

    ``amps`` has one amplitude vector over ``dims`` per row, shape
    (N, 2**n), each validated like a ``PureState``.  rho_0 is a Gram matrix of
    the amplitudes, and all pairs share one gather t, the factor of their one
    spin-flip computation; ``measure_vector`` is the one-row view.
    """
    kind = MeasureKind(kind)
    dims, amps = check_amplitudes(dims, amps)
    return _measure(amps, dims, kind)


def _measure(amps: np.ndarray, dims: tuple[int, ...], kind: MeasureKind):
    """``measure_vectors`` on amplitudes that are already validated."""
    n = len(dims)
    if n < 3 or n > MAX_QUBITS or any(d != 2 for d in dims):
        raise ValueError(
            f"measure_vector needs an n-qubit pure state with 3 <= n <= {MAX_QUBITS}, "
            f"got dims {dims}"
        )
    # sized from n, not -1, so that an empty stack reshapes too; on pure
    # states the assisted value has a single-term decomposition, and a
    # qubit's negativity equals its concurrence
    first = _qubit_concurrence(amps.reshape(len(amps), 2, 2 ** (n - 1)))
    if kind.squared:
        first = np.square(first)
    return first, _pair_values(amps[:, _pair_index(n)], kind)


def measure_vector(psi: PureState, kind: MeasureKind | str) -> MeasureVector:
    """Assemble (one-vs-rest, pairwise) values of a measure for an n-qubit
    pure state, 3 <= n <= 6: row 0 of ``measure_vectors`` on a stack of one,
    whose amplitudes the ``PureState`` has validated already."""
    kind = MeasureKind(kind)
    first, pairwise = _measure(psi.amps[None, :], psi.dims, kind)
    return MeasureVector(kind, first[0].item(), pairwise[0].tolist())
