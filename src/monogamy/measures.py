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

# Eigenvalues of rho @ rho_tilde above this floor are treated as round-off
# negatives and clipped before the square root.
_MU_EIG_FLOOR = -1e-10

MAX_QUBITS = 6

# sigma_y (x) sigma_y is real and anti-diagonal, (-1, 1, 1, -1) read from the
# top row: YY @ f reverses the rows of f and negates the outer two
_YY_SIGNS = np.array([[-1.0], [1.0], [1.0], [-1.0]])


class MeasureKind(str, Enum):
    CONCURRENCE = "concurrence"
    NEGATIVITY_SCREN = "negativity_scren"
    SCRENOA = "screnoa"
    CONCURRENCE_ASSISTANCE = "concurrence_assistance"


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
            raise ValueError(f"measure values must be finite and nonnegative: {vals}")
        object.__setattr__(self, "pairwise", tuple(float(v) for v in self.pairwise))
        object.__setattr__(self, "one_vs_rest", float(self.one_vs_rest))


def _check_bipartition(n: int, part_a: Sequence[int]) -> list[int]:
    part = sorted(set(int(i) for i in part_a))
    if not part or len(part) >= n:
        raise ValueError(f"part_a {part} is not a proper nonempty subset of {n} subsystems")
    if any(i < 0 or i >= n for i in part):
        raise ValueError(f"part_a {part} out of range for {n} subsystems")
    return part


def _concurrence_of_reduced(rho_a: np.ndarray) -> np.ndarray:
    """sqrt(2 (1 - Tr rho_A^2)) of reduced matrices of shape (..., d, d)."""
    y = 2.0 * (1.0 - (rho_a @ rho_a).trace(axis1=-2, axis2=-1).real)
    return np.sqrt(np.where(y > 0.0, y, 0.0))


def _negativity_of_reduced(rho_a: np.ndarray) -> np.ndarray:
    """(Tr sqrt(rho_A))^2 - 1 of reduced matrices of shape (..., d, d)."""
    lam = np.clip(np.linalg.eigvalsh(rho_a), 0.0, None)
    return np.maximum(np.square(np.sum(np.sqrt(lam), axis=-1)) - 1.0, 0.0)


@functools.cache
def _pair_index(n: int) -> np.ndarray:
    """Gathers the n-1 amplitude matrices with qubits (0, i) on the rows;
    read-only, as every caller shares it."""
    grid = np.arange(2**n).reshape((2,) * n)
    idx = np.stack([np.moveaxis(grid, i, 1).reshape(4, -1) for i in range(1, n)])
    idx.flags.writeable = False
    return idx


def _reduced(psi: PureState, part_a: Sequence[int]) -> np.ndarray:
    part = _check_bipartition(psi.n_subsystems, part_a)
    rest = [i for i in range(psi.n_subsystems) if i not in part]
    # the smaller side (the one with subsystem 0 on a tie) has the same
    # nonzero spectrum and no zero eigenvalues for round-off to disturb
    part = min(part, rest, key=lambda p: (math.prod(psi.dims[i] for i in p), p[0]))
    # M M^dagger, with the part's axes leading the rows of M
    m = np.moveaxis(psi.amps.reshape(psi.dims), part, range(len(part)))
    m = m.reshape(math.prod(psi.dims[i] for i in part), -1)
    return m @ m.conj().T


def concurrence_pure(psi: PureState, part_a: Sequence[int]) -> float:
    """Pure-state concurrence sqrt(2 (1 - Tr rho_A^2)) across a bipartition."""
    return float(_concurrence_of_reduced(_reduced(psi, part_a)))


def _spin_flip_roots(f: np.ndarray) -> np.ndarray:
    """Square roots of the eigenvalues of rho @ rho_tilde, descending, for
    two-qubit states rho = f f^dagger given by factors f of shape (..., 4, k).

    They are the singular values of the complex symmetric K = f^T YY f, taken
    as square roots of the eigenvalues of the Hermitian K K^dagger; below
    k = 4 the missing roots are zeros.
    """
    if f.shape[-1] > 4:
        # f^T = Q R, so f f^dagger = R^T R^*: R^T is a 4 x 4 factor of rho
        f = np.linalg.qr(f.mT, mode="r").mT
    k = f.mT @ (f[..., ::-1, :] * _YY_SIGNS)
    ev = np.linalg.eigvalsh(k @ k.conj().mT)
    if ev.min(initial=np.inf) < _MU_EIG_FLOOR:
        raise ValueError(f"spin-flip spectrum has eigenvalue {ev.min():.3e} < 0")
    # round-off residue of structural zeros would blow up to ~1e-8 under the
    # square root; clip relative to the last (largest), negatives included
    mu = np.zeros(ev.shape[:-1] + (4,))
    mu[..., :ev.shape[-1]] = np.sqrt(np.where(ev < 1e-13 * ev[..., -1:], 0.0, ev)[..., ::-1])
    return mu


def _pair_values(f: np.ndarray, kind: MeasureKind) -> np.ndarray:
    """Two-qubit values of ``kind`` on states f f^dagger, f (..., 4, k), of
    shape (...).

    All four kinds come from the spin-flip roots: concurrence is
    max(0, mu_1 - mu_2 - mu_3 - mu_4), its assisted value the sum of the
    roots, and SCREN / SCRENoA their squares.
    """
    mu = _spin_flip_roots(f)
    if kind in (MeasureKind.CONCURRENCE, MeasureKind.NEGATIVITY_SCREN):
        d = mu[..., 0] - mu[..., 1] - mu[..., 2] - mu[..., 3]
        vals = np.where(d > 0.0, d, 0.0)
    else:
        vals = np.sum(mu, axis=-1)
    return np.square(vals) if kind in (MeasureKind.NEGATIVITY_SCREN, MeasureKind.SCRENOA) else vals


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
    return float(_negativity_of_reduced(_reduced(psi, part_a)))


def scren_pure(psi: PureState, part_a: Sequence[int]) -> float:
    """Squared negativity of a pure state (SCREN and SCRENoA coincide here)."""
    return float(np.square(_negativity_of_reduced(_reduced(psi, part_a))))


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
    # sized from n, not -1, so that an empty stack reshapes too
    m = amps.reshape(len(amps), 2, 2 ** (n - 1))
    rho_0 = m @ m.conj().mT
    if kind in (MeasureKind.CONCURRENCE, MeasureKind.CONCURRENCE_ASSISTANCE):
        # on pure states the assisted value has a single-term decomposition
        first = _concurrence_of_reduced(rho_0)
    else:
        first = np.square(_negativity_of_reduced(rho_0))
    return first, _pair_values(amps[:, _pair_index(n)], kind)


def measure_vector(psi: PureState, kind: MeasureKind | str) -> MeasureVector:
    """Assemble (one-vs-rest, pairwise) values of a measure for an n-qubit
    pure state, 3 <= n <= 6: row 0 of ``measure_vectors`` on a stack of one,
    whose amplitudes the ``PureState`` has validated already."""
    kind = MeasureKind(kind)
    first, pairwise = _measure(psi.amps[None, :], psi.dims, kind)
    return MeasureVector(kind, first[0], pairwise[0])
