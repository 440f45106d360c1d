"""State constructors: named pure-state families, Haar sampling, reductions.

Randomness uses numpy's ``default_rng`` (PCG64), a named seedable 64-bit
generator, so seeded outputs are reproducible across platforms.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import linalg

# Inputs this close to unit norm are silently renormalized (tolerates
# truncated decimals like 0.7071); anything further off is an error.
RENORM_TOL = 1e-6
NORM_ATOL = 1e-12
# Most amplitudes a ``haar:`` spec may ask for, far above the 2**6 of the
# largest state a measure accepts; a larger spec is refused before the draw.
MAX_HAAR_AMPLITUDES = 2**20
# The amplitude slots of |100>, |010> and |001>, where a W-class state's a, b, c go.
_W_SLOTS = np.array([0b100, 0b010, 0b001])
_W_SLOTS.flags.writeable = False


class StateSpecError(ValueError):
    """Raised when a state specification string cannot be parsed."""


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized complex amplitude vector over a tensor product of subsystems.

    States compare and hash by identity, as an array field has no one truth
    value.
    """

    dims: tuple[int, ...]
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex).reshape(1, -1)
        dims, amps = check_amplitudes(self.dims, amps)
        amps = amps[0].copy()
        amps.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", amps)

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)


def check_amplitudes(dims: Sequence[int], amps) -> tuple[tuple[int, ...], np.ndarray]:
    """Validate a stack of amplitude vectors, one state over ``dims`` per row.

    Returns ``(dims, amps)`` as a tuple of ints and an ``(N, prod(dims))``
    complex array.  Every row must be finite and normalized to ``NORM_ATOL``.
    """
    dims = linalg.subsystem_dims(dims)
    amps = np.asarray(amps, dtype=complex)
    if amps.ndim != 2:
        raise ValueError(f"expected one amplitude vector per row, got shape {amps.shape}")
    if amps.shape[1] != math.prod(dims):
        raise ValueError(
            f"amplitude vector length {amps.shape[1]} does not match dims {dims}"
        )
    if not np.isfinite(amps.view(float)).all():
        raise ValueError("amplitudes contain NaN or Inf")
    # np.linalg.norm(amps, axis=1), by its own arithmetic
    off = np.abs(np.sqrt(np.add.reduce((amps.conj() * amps).real, axis=1)) - 1.0) > NORM_ATOL
    if off.any():
        norm = float(np.linalg.norm(amps[np.argmax(off)]))
        raise ValueError(f"state is not normalized (norm {norm!r})")
    return dims, amps


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix with subsystem dimension metadata.

    Matrices compare and hash by identity, as an array field has no one
    truth value.
    """

    dims: tuple[int, ...]
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = linalg.subsystem_dims(self.dims)
        mat = np.array(self.mat, dtype=complex)
        w, _ = linalg.hermitian_eigen(mat)  # finite, 2-d, square and Hermitian
        if math.prod(dims) != mat.shape[0]:
            raise ValueError(f"dims {dims} do not match matrix side {mat.shape[0]}")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > 1e-10:  # an absolute tolerance on the trace
            raise ValueError(f"density matrix trace {tr} differs from 1")
        if w[-1] < linalg.PSD_EIG_FLOOR:  # w descends, and the side is prod(dims) >= 1
            raise ValueError(f"density matrix not PSD (min eigenvalue {w[-1]:.3e})")
        mat.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mat", mat)

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)


def schmidt3_state(l0, l1, l2, l3, l4, phi: float = 0.0) -> PureState:
    """Three-qubit state in generalized Schmidt form.

    Builds l0|000> + l1 e^{i phi}|100> + l2|101> + l3|110> + l4|111> with
    the ket bits ordered |A1 A3 A2>; in row-major A1 A2 A3 order l2 sits on
    |110> and l3 on |101>.  This is the convention under which the closed
    forms C_{A1A2} = 2 l0 l2 and C_{A1A3} = 2 l0 l3 hold.

    The five coefficients must be nonnegative with unit square sum (inputs
    within 1e-6 of normalization are renormalized), and the phase finite.
    """
    l0, l1, l2, l3, l4 = _unit_rows(np.array([[l0, l1, l2, l3, l4]], dtype=float))[0]
    if not math.isfinite(phi):
        raise ValueError(f"phase phi must be finite, got {phi}")
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = l0
    amps[0b100] = l1 * np.exp(1j * float(phi))
    amps[0b110] = l2
    amps[0b101] = l3
    amps[0b111] = l4
    return PureState((2, 2, 2), amps)


def w_class_state(a, b, c) -> PureState:
    """Three-qubit W-class state a|100> + b|010> + c|001>.

    The documented default instance is (1/2, 1/2, sqrt(2)/2).
    """
    return PureState((2, 2, 2), w_class_amps(np.array([[a, b, c]], dtype=float))[0])


def w_class_amps(coeffs) -> np.ndarray:
    """(N, 8) amplitudes of the W-class states of the (N, 3) rows (a, b, c).

    Each row is read by ``_unit_rows``, as ``w_class_state`` reads its one
    row.
    """
    v = np.asarray(coeffs, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ValueError(f"expected rows of three coefficients, got shape {v.shape}")
    amps = np.zeros((len(v), 8), dtype=complex)
    amps[:, _W_SLOTS] = _unit_rows(v)
    return amps


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """The rows of a 2-d coefficient array, each divided by its norm.

    Each row must be nonnegative with a norm within RENORM_TOL of 1.  The
    stack is checked by its least coefficient and its largest norm error (a
    NaN fails both), and only a failing stack row by row: the first bad row
    raises, with its sign error before its norm error.  A norm that
    overflows is inf, and fails the norm check.
    """
    with np.errstate(over="ignore"):
        # the norm of np.linalg.norm on one row, bit for bit
        norm = np.sqrt(np.vecdot(v, v))
    if not (v.min(initial=0.0) >= 0 and np.abs(norm - 1.0).max(initial=0.0) <= RENORM_TOL):
        bad = (v < 0).any(axis=1) | ~(np.abs(norm - 1.0) <= RENORM_TOL)
        row = np.argmax(bad)
        if (v[row] < 0).any():
            raise ValueError(f"coefficients must be nonnegative, got {v[row].tolist()}")
        raise ValueError(f"coefficients have norm {float(norm[row])!r}, "
                         f"more than {RENORM_TOL} away from 1")
    return v / norm[:, None]


def haar_random_pure(dims: Sequence[int], seed: int) -> PureState:
    """Haar-uniform pure state: normalized complex standard-normal vector.
    ``dims`` is read by ``linalg.subsystem_dims`` and ``seed`` by
    ``linalg.nonnegative_whole``."""
    dims = linalg.subsystem_dims(dims)
    if not dims:
        raise ValueError("dims must be nonempty")
    rng = np.random.default_rng(linalg.nonnegative_whole(seed, "seed"))
    return PureState(dims, haar_random_block(1, math.prod(dims), rng)[0])


def haar_random_block(k: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """(k, dim) Haar-uniform amplitude rows from a caller-owned generator, the
    stream of k one-row draws: per row, dim real parts, then dim imaginary."""
    x = rng.standard_normal((k, 2, dim))
    v = x[:, 0] + 1j * x[:, 1]
    # the norm of np.linalg.norm on one row, bit for bit
    return v / np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))[:, None]


def to_density(psi: PureState) -> DensityMatrix:
    """Rank-1 projector |psi><psi| with the state's dims metadata."""
    mat = np.outer(psi.amps, psi.amps.conj())
    return DensityMatrix(psi.dims, mat)


def reduce_density(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Partial trace onto the ``keep`` subsystems, preserving dims metadata."""
    keep = sorted({linalg.whole(k, "keep index") for k in keep})
    mat = linalg.partial_trace(rho.mat, rho.dims, keep)
    new_dims = tuple(rho.dims[k] for k in keep)
    return DensityMatrix(new_dims, mat)


_SQRT_RE = re.compile(r"^(-)?sqrt\(([^()]+)\)$")
# a fraction bar outside parentheses: a / that no ) follows before a (
_FRACTION_BAR = re.compile(r"/(?![^(]*\))")


def read_number(text: str, kind=float, message=None):
    """``kind(text)``, for ``kind`` int or float, when ``text`` is ASCII and
    holds no ``_``; otherwise ``StateSpecError(message)``, a ValueError.

    The package's one reading of a number from text: Python's own ``int``
    and ``float`` also read ``1_0`` as 10 and the digits of other scripts.
    """
    if text.isascii() and "_" not in text:
        try:
            return kind(text)
        except ValueError:
            pass
    raise StateSpecError(message)


def _parse_number(token: str) -> float:
    """Parse a numeric literal, allowing sqrt(n) and one fraction such as
    sqrt(6)/6; a / inside sqrt(...) belongs to the root, as in sqrt(1/2).
    Each leaf is read by ``read_number``."""
    token = token.strip()
    if "/" in token:
        parts = _FRACTION_BAR.split(token)
        if len(parts) > 2:
            raise StateSpecError(f"cannot parse number {token!r}")
        if len(parts) == 2:
            d = _parse_number(parts[1])
            if d == 0:
                raise StateSpecError(f"division by zero in {token!r}")
            return _parse_number(parts[0]) / d
    m = _SQRT_RE.match(token)
    if m:
        inner = _parse_number(m.group(2))
        if inner < 0:
            raise StateSpecError(f"sqrt of negative number in {token!r}")
        val = math.sqrt(inner)
        return -val if m.group(1) else val
    return read_number(token, float, f"cannot parse number {token!r}")


def parse_state_spec(spec: str, default_seed: int = 0) -> PureState:
    """Parse a state specification string into a PureState.

    Supported forms (whitespace-lenient, strict arity):

    - ``schmidt3:l0,l1,l2,l3,l4[,phi]``
    - ``wclass:a,b,c``
    - ``haar:d1xd2x...[:seed]``

    Numeric fields accept ASCII decimals without ``_`` plus ``sqrt(6)/6``-style
    literals, with at most one fraction outside a root and one inside it, as
    in ``sqrt(1/2)/2``; every number is read by ``read_number``.
    """
    spec = spec.strip()
    head, sep, rest = spec.partition(":")
    if not sep:
        raise StateSpecError(f"state spec {spec!r} has no ':' separator")
    head = head.strip().lower()

    if head == "schmidt3":
        parts = [p for p in rest.split(",")]
        if len(parts) not in (5, 6):
            raise StateSpecError(
                f"schmidt3 expects 5 coefficients plus optional phase, got {len(parts)}"
            )
        vals = [_parse_number(p) for p in parts]
        phi = vals[5] if len(vals) == 6 else 0.0
        return schmidt3_state(*vals[:5], phi=phi)

    if head == "wclass":
        parts = rest.split(",")
        if len(parts) != 3:
            raise StateSpecError(f"wclass expects 3 coefficients, got {len(parts)}")
        return w_class_state(*(_parse_number(p) for p in parts))

    if head == "haar":
        dim_part, sep2, seed_part = rest.partition(":")
        message = f"cannot parse dims {dim_part!r}"
        dims = tuple(read_number(d, int, message) for d in dim_part.strip().split("x"))
        if min(dims) < 1:
            raise StateSpecError(f"haar dims {dim_part!r} must all be at least 1")
        if math.prod(dims) > MAX_HAAR_AMPLITUDES:
            raise StateSpecError(
                f"haar dims {dim_part!r} ask for {math.prod(dims)} amplitudes, "
                f"more than {MAX_HAAR_AMPLITUDES}"
            )
        if seed_part.strip():
            seed = read_number(seed_part, int, f"cannot parse seed {seed_part!r}")
            if seed < 0:
                raise StateSpecError(
                    f"haar seed must be a non-negative integer, got {seed_part.strip()!r}")
        else:
            seed = default_seed
        return haar_random_pure(dims, seed)

    raise StateSpecError(f"unknown state family {head!r}")
