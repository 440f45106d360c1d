"""The determinant filter of the pairwise values.

At 5 and 6 qubits a concurrence or SCREN pair whose partial transpose has a
determinant above ``measures._PT_DET_ATOL`` takes the value 0 without its
spin-flip roots.  These tests hold the filter to the route it shortcuts,
``measures._root_values`` on the same factor, bit for bit: on Haar states,
on states sampled densely where a pair crosses from entangled to separable,
and at every block size.  They also check that route's zero/nonzero decision
against the determinant's sign at 4 to 6 qubits, where a separate error
bound says which sign is certain.

CI also runs this module under ``python -X dev -W error::RuntimeWarning``,
so that a warning in the filter fails there too.
"""

import math
import sys
import time

import numpy as np
import pytest

from monogamy import measures
from monogamy.measures import MeasureKind, measure_vectors
from monogamy.states import haar_random_block

FILTERED = [MeasureKind.CONCURRENCE, MeasureKind.NEGATIVITY_SCREN]
ATOL = measures._PT_DET_ATOL

# 100,352 Haar states per qubit count, in 49 chunks of 2,048.  Each chunk's
# rows go through the filter in calls of 64 (STATE_BLOCK), 6 (one benchmark
# request) and 1 (a single state): 23, 64 and 192 calls.
CHUNKS, CHUNK = 49, 2048
CALL_SIZES = ((64, 1472), (6, 384), (1, 192))
# SCREN takes the same roots and only squares them, so it is run on every
# fourth chunk, 25,088 states per qubit count
SCREN_EVERY = 4
TIME_CAP_S = 120.0


def pair_factors(amps, n_qubits):
    return amps[:, measures._pair_index(n_qubits)]


def filtered_in_calls(f, kind):
    """``_pair_values`` on the rows of ``f``, CALL_SIZES rows at a time."""
    out, start = [], 0
    for size, rows in CALL_SIZES:
        out += [measures._pair_values(f[i:i + size], kind)
                for i in range(start, start + rows, size)]
        start += rows
    assert start == len(f)
    return np.concatenate(out)


def w_class_rows(n_qubits, rng, k):
    """The W_n state and k - 1 random W-class states sum_q c_q |0..1_q..0>."""
    coeffs = np.abs(rng.standard_normal((k, n_qubits)))
    coeffs[0] = 1.0
    amps = np.zeros((k, 2**n_qubits), dtype=complex)
    amps[:, [1 << (n_qubits - 1 - q) for q in range(n_qubits)]] = coeffs
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


@pytest.mark.parametrize("n_qubits", [5, 6])
def test_filter_has_the_bits_of_the_roots(capsys, n_qubits):
    """Every value equals the spin-flip route's on the whole chunk, bit for
    bit (``tobytes`` also tells 0.0 from -0.0), at each call size."""
    t0 = time.perf_counter()
    zeros = rows = 0
    for chunk in range(CHUNKS):
        rng = np.random.default_rng([n_qubits, chunk])
        f = pair_factors(haar_random_block(CHUNK, 2**n_qubits, rng), n_qubits)
        for kind in FILTERED[: 1 if chunk % SCREN_EVERY else 2]:
            want = measures._root_values(f, kind)
            assert filtered_in_calls(f, kind).tobytes() == want.tobytes()
        zeros += int(np.count_nonzero(measures._pt_det(f) > ATOL))
        rows += f.shape[0] * f.shape[1]
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        print(f"[filter] {n_qubits} qubits: {CHUNKS * CHUNK} states, "
              f"{zeros / rows:.1%} of pairs filtered ({elapsed:.1f}s)", file=sys.stderr)
    # most pairs are separable at these qubit counts (about 80% and 99%)
    assert zeros > rows / 2
    assert elapsed < TIME_CAP_S, f"took {elapsed:.1f}s (cap {TIME_CAP_S}s)"


def boundary_family(n_qubits, seed, offsets):
    """States cos(theta) B + sin(theta) X, normalized, at theta* + offsets.

    B is a Bell pair on qubits (0, 1) times a Haar state of the rest and X a
    Haar state.  Pair (0, 1) is entangled at theta = 0; theta* is where its
    det(rho^{T_B}) changes sign, found by bisection on a draw whose pair
    (0, 1) is separable at theta = pi / 2."""
    rng = np.random.default_rng(seed)
    bell = np.zeros(4, dtype=complex)
    bell[[0, 3]] = math.sqrt(0.5)
    while True:
        b = np.kron(bell, haar_random_block(1, 2 ** (n_qubits - 2), rng)[0])
        x = haar_random_block(1, 2**n_qubits, rng)[0]

        def states(theta):
            theta = np.atleast_1d(theta)[:, None]
            amps = np.cos(theta) * b + np.sin(theta) * x
            return amps / np.linalg.norm(amps, axis=1, keepdims=True)

        def det01(theta):
            return measures._pt_det(pair_factors(states(theta), n_qubits)[:, 0])[0]

        lo, hi = 0.0, math.pi / 2
        if det01(hi) > 0:
            break
    while True:  # det01(lo) < 0 < det01(hi)
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if det01(mid) < 0 else (lo, mid)
    return states(lo + offsets)


@pytest.mark.parametrize("n_qubits", [5, 6])
def test_filter_near_the_separable_boundary(n_qubits):
    """Pair (0, 1) sampled densely where it crosses from entangled to
    separable, |theta - theta*| from 0.1 down to 1e-15 on both sides: its
    determinant runs through the threshold and through 0, and every value
    still has the spin-flip route's bits, at 64 and 1 rows per call."""
    steps = 10.0 ** -np.linspace(1.0, 15.0, 141)
    offsets = np.concatenate((-steps, [0.0], steps[::-1]))
    near = above = below = 0
    for seed in range(8):
        f = pair_factors(boundary_family(n_qubits, 100 * n_qubits + seed, offsets), n_qubits)
        det = measures._pt_det(f[:, 0])
        near += int(np.count_nonzero((det > 0) & (det <= ATOL)))
        above += int(np.count_nonzero(det > ATOL))
        below += int(np.count_nonzero(det < 0))
        for kind in FILTERED:
            want = measures._root_values(f, kind).tobytes()
            assert np.concatenate([measures._pair_values(f[i:i + 64], kind)
                                   for i in range(0, len(f), 64)]).tobytes() == want
            assert np.concatenate([measures._pair_values(f[i:i + 1], kind)
                                   for i in range(len(f))]).tobytes() == want
    assert min(near, above, below) > 0, (near, above, below)


@pytest.mark.parametrize("n_qubits", [5, 6])
@pytest.mark.parametrize("kind", FILTERED)
def test_empty_stack(n_qubits, kind):
    f = np.empty((0, 4, 2 ** (n_qubits - 2)), dtype=complex)
    assert measures._pair_values(f, kind).shape == (0,)
    assert measures._pair_values(f[None], kind).shape == (1, 0)
    first, pairwise = measure_vectors(np.empty((0, 2**n_qubits), dtype=complex),
                                      (2,) * n_qubits, kind)
    assert first.shape == (0,) and pairwise.shape == (0, n_qubits - 1)


def test_all_filtered_block_makes_no_lapack_call(monkeypatch):
    """A block whose pairs are all separable takes no QR and no SVD, not
    even on an empty stack."""
    rng = np.random.default_rng(3)
    amps = haar_random_block(400, 64, rng)
    f = pair_factors(amps, 6)
    separable = (measures._pt_det(f) > ATOL).all(axis=1)
    amps = amps[separable][:64]
    assert len(amps) == 64
    for name in ("svd", "qr"):
        def refuse(*args, name=name, **kwargs):
            raise AssertionError(f"np.linalg.{name} called on a filtered block")

        monkeypatch.setattr(np.linalg, name, refuse)
    for kind in FILTERED:
        _, pairwise = measure_vectors(amps, (2,) * 6, kind)
        assert pairwise.tobytes() == np.zeros((64, 5)).tobytes()


@pytest.mark.parametrize("n_qubits", [5, 6])
def test_only_live_rows_take_the_roots(monkeypatch, n_qubits):
    """The roots take the rows at or below the determinant's bound, and only
    those: every W-class pair (all entangled), and the live rows of a Haar
    block.  The assisted kinds never take the determinant."""
    rng = np.random.default_rng(n_qubits)
    w = pair_factors(w_class_rows(n_qubits, rng, 20), n_qubits)
    haar = pair_factors(haar_random_block(20, 2**n_qubits, rng), n_qubits)
    seen, real = [], measures._root_values

    def recording(f, kind):
        seen.append(f)
        return real(f, kind)

    monkeypatch.setattr(measures, "_root_values", recording)
    for kind in FILTERED:
        for f, mixed in ((w, False), (haar, True)):
            seen.clear()
            measures._pair_values(f, kind)
            live = measures._pt_det(f) <= ATOL
            assert live.any() and (not live.all()) == mixed
            assert len(seen) == 1 and np.array_equal(seen[0], f[live])

    def refuse(f):
        raise AssertionError("determinant taken for an assisted kind")

    monkeypatch.setattr(measures, "_pt_det", refuse)
    for kind in (MeasureKind.SCRENOA, MeasureKind.CONCURRENCE_ASSISTANCE):
        seen.clear()
        measures._pair_values(haar, kind)
        assert len(seen) == 1 and seen[0] is haar


@pytest.mark.parametrize("n_qubits", [4, 5, 6])
def test_concurrence_is_positive_exactly_when_det_is_negative(n_qubits):
    """A two-qubit state is entangled exactly when det(rho^{T_B}) < 0
    (Augusiak, Demianowicz and Horodecki, PRA 77, 030301(R) (2008)).  The
    spin-flip route's zero/nonzero decision agrees with the sign on every
    pair whose |det| exceeds the determinant's error bound, on Haar rows and
    on W-class rows (entangled pairs), also at 4 qubits, where no filter
    runs."""
    rng = np.random.default_rng(40 + n_qubits)
    amps = np.concatenate((haar_random_block(3000, 2**n_qubits, rng),
                           w_class_rows(n_qubits, rng, 200)))
    f = pair_factors(amps, n_qubits)
    det = measures._pt_det(f)
    value = measures._root_values(f, MeasureKind.CONCURRENCE)
    certain = np.abs(det) > ATOL
    assert np.array_equal(value[certain] > 0, det[certain] < 0)
    # both decisions occur; a W-class pair has det = -|c_0 c_i|^4, certain
    # unless a coefficient is small
    assert np.count_nonzero(certain & (det < 0)) and np.count_nonzero(certain & (det > 0))
    assert np.count_nonzero(det[3000:] < -ATOL) > 0.9 * det[3000:].size

