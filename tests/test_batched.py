"""Stacked and per-state paths agree bit for bit.

``measure_vectors``, ``margin_rows``, the block Haar draw and the blocked
state suites must give exactly what the per-state and per-exponent paths
give, so every comparison between them uses ``==``.  In the bound kernel every power runs
NumPy's pow loop on an exponent array of the power's full shape (from the
spec's kept ``bounds._layout``), which gives each element the bits of that
loop on the element alone, so that a one-state, one-target call and a block
get the same bits.  The exceptions are the references, compared within the
bounds stated below: measures are taken from the amplitudes and factors of
them, and are compared with the partial traces of |psi><psi|, the
spin-flip roots of their square roots and exact closed-form values;
bounds are compared with the parent's arithmetic, which took Python-float
and per-exponent pows.
"""

import collections
import dataclasses
import decimal
import itertools
import math
import re
import types

import numpy as np
import pytest

from monogamy import bounds, linalg, measures, states, verify
from monogamy.bounds import (
    A_CAP,
    BoundSpec,
    margin_rows,
    max_admissible_a,
    monogamy_bound,
    polygamy_bound,
)
from monogamy.measures import (
    MeasureKind,
    MeasureVector,
    concurrence_2q,
    concurrence_assistance_2q,
    concurrence_pure,
    measure_vector,
    measure_vectors,
    negativity_pure,
    scren_2q,
    scren_pure,
    screnoa_2q,
)
from monogamy.states import (
    DensityMatrix,
    PureState,
    haar_random_block,
    reduce_density,
    to_density,
    w_class_amps,
    w_class_state,
)
from monogamy.verify import (
    MIN_LOG2_RATIO,
    STATE_BLOCK,
    VerificationReport,
    default_alpha_grid,
    verify_monogamy_states,
    verify_polygamy_states,
)

KINDS = list(MeasureKind)
PAIR_FN = {
    MeasureKind.CONCURRENCE: concurrence_2q,
    MeasureKind.NEGATIVITY_SCREN: scren_2q,
    MeasureKind.SCRENOA: screnoa_2q,
    MeasureKind.CONCURRENCE_ASSISTANCE: concurrence_assistance_2q,
}


# Absolute bounds of the amplitude paths against the density-matrix reference.
# The library takes the one-vs-rest value, and the pair roots at 3 qubits, in
# closed forms accurate to a few eps (TestExactValues); elsewhere both paths
# take spectra of matrices whose entries sum the same amplitude products in
# different orders.  Where the reference takes the square root of a small
# quantity y (1 - purity or an eigenvalue of rho_A), the slope
# 1/(2 sqrt(y)) amplifies the round-off in y.
EPS = np.finfo(float).eps
# One-vs-rest against the exact value 2 sqrt(det rho_0), or its square 4 det
# rho_0 for SCREN and SCRENoA, from rho_0's Gram entries summed in 50-digit
# decimal: the library's closed form is accurate to a few eps absolute
# (TestExactValues), and the reference's only sizable error is its rounding
# to a double; observed <= 2.5 eps over 20 seeds of 46 states per qubit
# count, all four kinds.
ONE_VS_REST_EXACT_ATOL = 4 * EPS
# One-vs-rest of a bipartition: concurrence against its exact value from the
# amplitudes in 50-digit decimal, negativity against the singular values of
# the amplitudes, which take no square root of a small quantity; observed
# <= 1.1e-15 and 7.1e-15 over 60 seeds per bipartition.
ONE_VS_REST_ATOL = 5e-14
# Pairwise: each value is a sum of spin-flip roots mu, the singular values of
# K = f^T YY f.  The library takes f from the amplitudes (closed forms at 3
# qubits, an SVD of K elsewhere), the reference from psd_sqrt of the partial
# trace.  Neither takes the square root of a small eigenvalue, so a small
# root keeps the absolute accuracy of a large one.  Observed <= 1.4e-14 over
# 920 states per qubit count, all four kinds.
PAIR_ATOL = 5e-14
YY = np.kron([[0.0, -1.0j], [1.0j, 0.0]], [[0.0, -1.0j], [1.0j, 0.0]])


def reference_pair_value(rho, kind):
    """``kind`` on a two-qubit density matrix from the singular values of
    K = f^T YY f for the factor f = psd_sqrt(rho) of the partial trace, with
    no amplitude gather and no QR."""
    f = linalg.psd_sqrt(rho)
    mu = np.linalg.svd(f.T @ YY @ f, compute_uv=False)
    if kind in (MeasureKind.CONCURRENCE, MeasureKind.NEGATIVITY_SCREN):
        value = max(0.0, float(mu[0] - mu[1] - mu[2] - mu[3]))
    else:
        value = float(np.sum(mu))
    return value**2 if kind in (MeasureKind.NEGATIVITY_SCREN, MeasureKind.SCRENOA) else value


def exact_one_vs_rest(row, kind):
    """The one-vs-rest value v = 2 sqrt(det rho_0) of ``kind``, or v^2 for
    SCREN and SCRENoA, with the Gram entries <m_j, m_k> of rho_0 summed from
    the rows m_0, m_1 of the amplitudes in 50-digit decimal: a qubit's
    concurrence and pure-state negativity both equal v."""
    m0, m1 = row.reshape(2, -1)
    with decimal.localcontext(prec=50):
        x0, y0, x1, y1 = ([decimal.Decimal(v) for v in part]
                          for part in (m0.real, m0.imag, m1.real, m1.imag))
        cross_re = sum(a * c + b * d for a, b, c, d in zip(x0, y0, x1, y1))
        cross_im = sum(a * d - b * c for a, b, c, d in zip(x0, y0, x1, y1))
        v2 = 4 * (sum(map(exact_abs2, m0)) * sum(map(exact_abs2, m1))
                  - cross_re**2 - cross_im**2)
        return float(v2 if squared_kind(kind) else v2.sqrt())


def reference_vector(row, n_qubits, kind):
    """(one-vs-rest, pairwise) of ``kind``: the exact one-vs-rest value, and
    pair values from partial traces of |psi><psi|, the density-matrix path
    that ``measure_vectors`` replaced."""
    rho = to_density(PureState((2,) * n_qubits, row))
    return exact_one_vs_rest(row, kind), [
        reference_pair_value(reduce_density(rho, [0, i]).mat, kind)
        for i in range(1, n_qubits)]


def assert_within(got, want, atol):
    diff = np.abs(np.subtract(got, want, dtype=float))
    assert diff.max(initial=0.0) <= atol, (got, want, atol)


def outcome(fn):
    """Return value of ``fn()``, or the type and text of its ValueError."""
    try:
        return fn()
    except ValueError as exc:
        return ("ValueError", str(exc))


def product_amps(n_qubits):
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = 1.0
    return amps


def w_amps(coeffs):
    """W-class state sum_q c_q |0..1_q..0>; its two-qubit reductions have rank 2."""
    amps = np.zeros(2 ** len(coeffs), dtype=complex)
    amps[[1 << q for q in range(len(coeffs))]] = coeffs / np.linalg.norm(coeffs)
    return amps


def state_stack(n_qubits, seed, n_haar=12, n_w=4):
    """Haar states, a product state, the n-qubit W state and random W-class
    states."""
    rng = np.random.default_rng(seed)
    rows = [haar_random_block(1, 2**n_qubits, rng)[0] for _ in range(n_haar)]
    rows += [product_amps(n_qubits), w_amps(np.ones(n_qubits))]
    rows += [w_amps(np.abs(rng.standard_normal(n_qubits))) for _ in range(n_w)]
    return np.stack(rows)


class TestMeasureVectors:
    @pytest.mark.parametrize("n_qubits", [3, 4, 5, 6])
    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_match_single_states(self, n_qubits, kind):
        """Each row equals the N = 1 call and the pure-state functions, and its
        pairwise values are within PAIR_ATOL of the per-matrix functions on
        the density-matrix reductions."""
        amps = state_stack(n_qubits, seed=10 + n_qubits)
        dims = (2,) * n_qubits
        first, pairwise = measure_vectors(amps, dims, kind)
        assert first.shape == (len(amps),) and pairwise.shape == (len(amps), n_qubits - 1)
        for row, mv in zip(amps, mv_list(amps, dims, kind)):
            psi = PureState(dims, row)
            assert mv == measure_vector(psi, kind)
            _, pairwise = reference_vector(row, n_qubits, kind)
            assert_within(mv.pairwise, pairwise, PAIR_ATOL)
            if kind in (MeasureKind.CONCURRENCE, MeasureKind.CONCURRENCE_ASSISTANCE):
                assert mv.one_vs_rest == concurrence_pure(psi, [0])
            else:
                assert mv.one_vs_rest == scren_pure(psi, [0])

    def test_one_vs_rest_clipping(self):
        """Product states, where the reference hits the clip of
        y = 2 (1 - purity) at zero.

        There y is round-off of a few eps, and the reference's sqrt(y) is up
        to about sqrt(8 eps) = 4.2e-8; the library's value is within 4 eps of
        the true 0 (the rows are products up to the rounding of their
        entries), so the two agree within sqrt(16 eps) = 6e-8."""
        rng = np.random.default_rng(41)
        rows = []
        for _ in range(200):
            amps = np.ones(1, dtype=complex)
            for _ in range(4):
                q = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                amps = np.kron(amps, q / np.linalg.norm(q))
            rows.append(amps / np.linalg.norm(amps))
        got = mv_list(np.stack(rows), (2,) * 4, "concurrence")
        for row, mv in zip(rows, got):
            rho_a = linalg.partial_trace(np.outer(row, row.conj()), (2,) * 4, [0])
            purity = float(np.trace(rho_a @ rho_a).real)
            want = float(np.sqrt(max(0.0, 2.0 * (1.0 - purity))))
            assert_within(mv.one_vs_rest, want, math.sqrt(16 * EPS))
            assert mv.one_vs_rest <= 4 * EPS

    def test_empty_stack(self):
        first, pairwise = measure_vectors(np.empty((0, 8), dtype=complex), (2, 2, 2), "screnoa")
        assert first.shape == (0,) and pairwise.shape == (0, 2)

    def test_no_density_matrix_on_the_pure_state_path(self, monkeypatch):
        """Measures of pure states and the state suites never call
        partial_trace, psd_sqrt or hermitian_eigen: every reduction is a Gram
        matrix of the amplitudes, and the spin-flip roots take the gathered
        amplitudes as their factor."""
        for name in ("partial_trace", "psd_sqrt", "hermitian_eigen"):
            def refuse(*args, name=name, **kwargs):
                raise AssertionError(f"{name} called on the pure-state path")

            monkeypatch.setattr(linalg, name, refuse)
        for n_qubits in (3, 6):
            amps = state_stack(n_qubits, seed=5, n_haar=3)
            for kind in KINDS:
                assert len(measure_vectors(amps, (2,) * n_qubits, kind)[0]) == len(amps)
            psi = PureState((2,) * n_qubits, amps[0])
            concurrence_pure(psi, [1, 2])
            negativity_pure(psi, [0, 2])
        assert verify_monogamy_states(70, seed=1, n_qubits=5).total == 70 * 8
        assert verify_polygamy_states(70, seed=1).total > 0

    def test_no_lapack_at_three_qubits(self, monkeypatch):
        """Three-qubit measures take every qubit-sized spectrum in closed
        form, so the polygamy suite runs without eigvalsh, SVD and QR."""
        for name in ("eigvalsh", "svd", "qr"):
            def refuse(*args, name=name, **kwargs):
                raise AssertionError(f"np.linalg.{name} called at three qubits")

            monkeypatch.setattr(np.linalg, name, refuse)
        amps = state_stack(3, seed=6)
        for kind in KINDS:
            assert measure_vectors(amps, (2, 2, 2), kind)[1].shape == (len(amps), 2)
        assert verify_polygamy_states(70, seed=1).total > 0
        assert verify_monogamy_states(70, seed=1, n_qubits=3).total == 70 * 8

    def test_a_pure_state_is_validated_once(self, monkeypatch):
        """``measure_vector`` trusts the checks its ``PureState`` ran, and is
        row 0 of ``measure_vectors`` bit for bit."""
        calls = []
        real = states.check_amplitudes

        def counting(dims, amps):
            calls.append(len(amps))
            return real(dims, amps)

        for n_qubits in (3, 4, 5, 6):
            dims = (2,) * n_qubits
            for row in state_stack(n_qubits, seed=9, n_haar=2, n_w=1):
                for kind in KINDS:
                    with monkeypatch.context() as mp:
                        mp.setattr(states, "check_amplitudes", counting)
                        mp.setattr(measures, "check_amplitudes", counting)
                        calls.clear()
                        mv = measure_vector(PureState(dims, row), kind)
                        assert calls == [1]
                    first, pairwise = measure_vectors(row[None], dims, kind)
                    assert (np.array([mv.one_vs_rest, *mv.pairwise]).tobytes()
                            == np.concatenate((first, pairwise[0])).tobytes())

    def test_rows_are_validated_like_pure_states(self):
        amps = state_stack(3, seed=8, n_haar=3)
        amps[1] *= 1.001
        alone = outcome(lambda: PureState((2, 2, 2), amps[1]))
        assert alone[0] == "ValueError" and "normalized" in alone[1]
        assert outcome(lambda: measure_vectors(amps, (2, 2, 2), "concurrence")) == alone
        amps[1, 0] = np.inf
        with pytest.raises(ValueError, match="NaN or Inf"):
            measure_vectors(amps, (2, 2, 2), "concurrence")
        with pytest.raises(ValueError, match="does not match"):
            measure_vectors(amps[:, :4], (2, 2, 2), "concurrence")
        with pytest.raises(ValueError, match="n-qubit"):
            measure_vectors(state_stack(2, seed=8, n_haar=3), (2, 2), "concurrence")


def exact_abs2(z):
    """|z|^2 of a complex double as a Decimal of the current precision."""
    return decimal.Decimal(z.real) ** 2 + decimal.Decimal(z.imag) ** 2


def squared_kind(kind):
    return kind in (MeasureKind.NEGATIVITY_SCREN, MeasureKind.SCRENOA)


class TestExactValues:
    """``measure_vectors`` against closed-form values, within 4 eps absolute.

    Each reference is taken in 60-digit decimal arithmetic from the
    amplitudes as stored, so its only sizable error is the final rounding to
    a double.
    Both closed forms are homogeneous of degree 2 in the amplitudes, so the
    rows need not be normalized exactly.  Concurrence and C_a carry the value
    v, SCREN and SCRENoA carry v^2.
    """

    ATOL = 4 * EPS

    @pytest.mark.parametrize("n_qubits", [3, 4, 5, 6])
    def test_w_class(self, n_qubits):
        """W_n rows sum_q c_q |0..1_q..0> with qubit q excited and |c_0| down
        to 1e-8.  The one-vs-rest value is v = 2 |c_0| sqrt(sum_{i>0} |c_i|^2).
        The pair (0, i) has the roots 2 |c_0| |c_i| and 0, so concurrence and
        C_a are both v = 2 |c_0| |c_i|.  Squaring 1 - purity left an error
        of about eps / v here, 3e-8 at c_0 = 1e-8."""
        rng = np.random.default_rng(80 + n_qubits)
        mags = 10.0 ** rng.uniform(-8.0, 0.0, (40, n_qubits))
        mags[:8, 0] = [1e-8, 3e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2]
        coeffs = mags * np.exp(2j * np.pi * rng.random(mags.shape))
        columns = [1 << (n_qubits - 1 - q) for q in range(n_qubits)]
        amps = np.zeros((len(coeffs), 2**n_qubits), dtype=complex)
        amps[:, columns] = coeffs / np.linalg.norm(coeffs, axis=1, keepdims=True)
        with decimal.localcontext(prec=60):
            squares = []  # (one-vs-rest v^2, pairwise v^2) per row
            for row in amps[:, columns]:
                c2 = [exact_abs2(z) for z in row]
                squares.append((4 * c2[0] * sum(c2[1:]), [4 * c2[0] * x for x in c2[1:]]))
            roots = [(first.sqrt(), [x.sqrt() for x in pairwise]) for first, pairwise in squares]
        for kind in KINDS:
            first, pairwise = measure_vectors(amps, (2,) * n_qubits, kind)
            want = squares if squared_kind(kind) else roots
            assert_within(first, [float(w) for w, _ in want], self.ATOL)
            assert_within(pairwise, [[float(x) for x in p] for _, p in want], self.ATOL)

    @pytest.mark.parametrize("n_qubits", [3, 4, 5, 6])
    def test_ghz_class(self, n_qubits):
        """a|0..0> + b|1..1>: the one-vs-rest value is v = 2 |a| |b|, and each
        pair has two equal roots |a| |b|, so concurrence and SCREN are 0 and
        C_a = 2 |a| |b|, SCRENoA its square."""
        rng = np.random.default_rng(90 + n_qubits)
        theta = np.concatenate(([np.pi / 4, 1e-8, 1e-4], rng.uniform(0.0, np.pi / 2, 37)))
        amps = np.zeros((len(theta), 2**n_qubits), dtype=complex)
        amps[:, 0] = np.cos(theta)
        amps[:, -1] = np.sin(theta) * np.exp(2j * np.pi * rng.random(len(theta)))
        with decimal.localcontext(prec=60):
            v2 = [4 * exact_abs2(a) * exact_abs2(b) for a, b in amps[:, [0, -1]]]
            v = [x.sqrt() for x in v2]
        for kind in KINDS:
            first, pairwise = measure_vectors(amps, (2,) * n_qubits, kind)
            want = np.array([float(x) for x in (v2 if squared_kind(kind) else v)])
            assert_within(first, want, self.ATOL)
            assisted = kind in (MeasureKind.SCRENOA, MeasureKind.CONCURRENCE_ASSISTANCE)
            assert_within(pairwise, (want if assisted else 0.0 * want)[:, None], self.ATOL)

    @pytest.mark.parametrize("n_qubits", [3, 4, 5, 6])
    def test_dicke(self, n_qubits):
        """|D_n^k>, the equal superposition of the C(n, k) basis states with
        k excitations, for k = 1 ... n - 1 (Wang and Molmer, Eur. Phys. J. D
        18, 385 (2002)): C(A|rest) = 2 sqrt(k (n - k)) / n, and every pair
        has C(AB) = 2 (k (n - k) - sqrt(k (k - 1) (n - k) (n - k - 1))) /
        (n (n - 1)).  At 2 <= k <= n - 2 a pair's state has rank 3, so up to
        three spin-flip roots are nonzero.  The forms are evaluated in
        50-digit decimal.  Every slot of a row holds the one rounded
        amplitude 1/sqrt(C(n, k)), so the row is the Dicke state times 1 + d
        with |d| <= eps/2, which the values, of degree 2, see as at most eps
        relative.  Concurrence carries C, and ``negativity_scren`` its
        square."""
        n = n_qubits
        ks = range(1, n)
        amps = np.zeros((n - 1, 2**n), dtype=complex)
        for row, k in zip(amps, ks):
            row[[i for i in range(2**n) if i.bit_count() == k]] = 1 / math.sqrt(math.comb(n, k))
        with decimal.localcontext(prec=50):
            first = [2 * decimal.Decimal(k * (n - k)).sqrt() / n for k in ks]
            pair = [2 * (k * (n - k) - decimal.Decimal(k * (k - 1) * (n - k) * (n - k - 1)).sqrt())
                    / (n * (n - 1)) for k in ks]
            squares = [v * v for v in first], [v * v for v in pair]
        for kind in (MeasureKind.CONCURRENCE, MeasureKind.NEGATIVITY_SCREN):
            got_first, got_pairwise = measure_vectors(amps, (2,) * n, kind)
            want_first, want_pair = squares if squared_kind(kind) else (first, pair)
            assert got_pairwise.shape == (n - 1, n - 1)
            assert_within(got_first, [float(v) for v in want_first], self.ATOL)
            assert_within(got_pairwise, [[float(v)] for v in want_pair], self.ATOL)


class TestSpinFlipRoots:
    def test_small_root_keeps_its_digits(self):
        """Pair (0, 3) of ``haar:2x2x2x2:1948594976`` has roots from 0.45 down
        to 1.3e-6, and concurrence 0.068776609903097425 in 40-digit
        arithmetic.  A square root of the eigenvalue 1.6e-12 of K K^dagger
        is 1.5e-11 off there; singular values of K are within 4 eps
        absolute."""
        psi = states.parse_state_spec("haar:2x2x2x2:1948594976")
        assert_within(measure_vector(psi, "concurrence").pairwise[2],
                      0.068776609903097425, 4 * EPS)

    @pytest.mark.parametrize("n_qubits", [5, 6])
    def test_qr_factor_matches_other_routes(self, n_qubits):
        """The gathered pair factor t is 4 x 8 or 4 x 16 here, so the kernel
        first reduces it to a 4 x 4 QR factor.  Its roots match the kernel on
        the factor sqrt(t t^dagger) and the singular values of K = t^T YY t
        from a full SVD, within PAIR_ATOL.  The two-qubit functions on
        t t^dagger give the values of ``measure_vectors`` within the same
        bound."""
        amps = state_stack(n_qubits, seed=70 + n_qubits, n_haar=40)
        t = amps[:, measures._pair_index(n_qubits)]
        qr_route = measures._spin_flip_roots(t)
        gram = t @ t.conj().mT
        roots = [linalg.psd_sqrt(g) for g in gram.reshape(-1, 4, 4)]
        sqrt_route = measures._spin_flip_roots(np.reshape(roots, gram.shape))
        svd_route = np.linalg.svd(t.mT @ YY @ t, compute_uv=False)[..., :4]
        assert qr_route.shape == sqrt_route.shape == svd_route.shape == t.shape[:2] + (4,)
        assert_within(qr_route, svd_route, PAIR_ATOL)
        assert_within(sqrt_route, svd_route, PAIR_ATOL)
        for kind in KINDS:
            mvs = mv_list(amps, (2,) * n_qubits, kind)
            for pair_factors, mv in zip(t, mvs):
                want = [PAIR_FN[kind](DensityMatrix((2, 2), f @ f.conj().T))
                        for f in pair_factors]
                assert_within(mv.pairwise, want, PAIR_ATOL)


    @pytest.mark.parametrize("n_qubits", [5, 6])
    def test_qr_factor_is_r_transposed(self, monkeypatch, n_qubits):
        """The 4 x 4 factor taken from QR's raw output is R^T of the
        triangular R of ``mode="r"``, sign bits included: the matrix K that
        the SVD receives, and the roots, have the bytes of those from R^T."""
        t = state_stack(n_qubits, seed=90 + n_qubits, n_haar=50)[:, measures._pair_index(n_qubits)]
        r_t = np.linalg.qr(t.mT, mode="r").mT
        want_k = r_t.mT @ (r_t[..., ::-1, :] * np.array([[-1.0], [1.0], [1.0], [-1.0]]))
        seen, real = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda k, **kw: seen.append(k) or real(k, **kw))
        roots = measures._spin_flip_roots(t)
        [k] = seen
        assert k.shape == want_k.shape and k.tobytes() == want_k.tobytes()
        assert roots.tobytes() == real(want_k, compute_uv=False).tobytes()


class TestDensityMatrixReference:
    """The Gram path against exact one-vs-rest values and partial traces of
    |psi><psi|, within the absolute bounds stated at the top of this module."""

    @pytest.mark.parametrize("n_qubits", [3, 4, 5, 6])
    @pytest.mark.parametrize("kind", KINDS)
    def test_measure_vectors(self, n_qubits, kind):
        amps = state_stack(n_qubits, seed=50 + n_qubits, n_haar=40)
        for row, mv in zip(amps, mv_list(amps, (2,) * n_qubits, kind)):
            first, pairwise = reference_vector(row, n_qubits, kind)
            assert_within(mv.one_vs_rest, first, ONE_VS_REST_EXACT_ATOL)
            assert_within(mv.pairwise, pairwise, PAIR_ATOL)

    @pytest.mark.parametrize("dims,part", [
        ((2, 2, 2, 2), [1]), ((2, 2, 2, 2), [3, 1]), ((2, 2, 2, 2, 2), [0, 2, 4]),
        ((2,) * 6, [1, 2, 5]),
        ((2, 3, 2), [1]), ((2, 3, 2, 2), [2, 0]), ((2, 3, 2), [2, 0]), ((3, 2), [0]),
    ])
    def test_pure_state_bipartitions(self, dims, part):
        """Any bipartition of any dims: the part's axes lead the Gram matrix.

        Concurrence is compared with its exact value from the amplitudes
        (``exact_bipartition_concurrence``), and negativity with
        (sum of sigma)^2 - 1 for the singular values sigma of the amplitudes
        with the part's axes on the rows, in the order given; the library
        reduces onto the smaller side, so a part and its complement give the
        same bits.  Besides 20 Haar states per seed, three near-product
        states a (x) b + eps g, whose concurrence is about eps: on them
        sqrt(2 (1 - purity)) of the partial trace loses the digits that
        1 - purity cancels, 1.9e-11 at eps = 1e-4 and 3.5e-8 at eps = 1e-8
        over 60 seeds."""
        rest = [i for i in range(len(dims)) if i not in part]
        rows = math.prod(dims[i] for i in part)
        inverse = np.argsort([*part, *rest])
        for seed in range(5):
            rng = np.random.default_rng((seed, len(dims) + sum(part)))
            haar = haar_random_block(20, math.prod(dims), rng)
            a, b, g = (rng.standard_normal((n, 2)) @ [1.0, 1.0j] for n in
                       (rows, math.prod(dims) // rows, math.prod(dims)))
            near = [(a[:, None] * b).ravel() + eps * g for eps in (1e-4, 1e-6, 1e-8)]
            near = [m.reshape([dims[i] for i in (*part, *rest)]).transpose(inverse).ravel()
                    for m in near]
            for row in [*haar, *(m / np.linalg.norm(m) for m in near)]:
                psi = PureState(dims, row)
                assert_within(concurrence_pure(psi, part),
                              exact_bipartition_concurrence(row, dims, part), ONE_VS_REST_ATOL)
                sigma = np.linalg.svd(row.reshape(dims).transpose(*part, *rest).reshape(rows, -1),
                                      compute_uv=False)
                assert_within(negativity_pure(psi, part), np.sum(sigma) ** 2 - 1.0,
                              ONE_VS_REST_ATOL)
                assert negativity_pure(psi, part) == negativity_pure(psi, rest)
                assert concurrence_pure(psi, part) == concurrence_pure(psi, rest)


def exact_bipartition_concurrence(row, dims, part):
    """sqrt(2 ((Tr rho_A)^2 - Tr rho_A^2)) / Tr rho_A for rho_A = M M^dagger,
    the amplitudes M with the axes of ``part`` on the rows, from the Gram
    entries of M summed in 50-digit decimal: the difference keeps its digits
    where 1 - purity of a double partial trace cancels them.  It is
    homogeneous of degree 0, so the row need not be normalized exactly."""
    rest = [i for i in range(len(dims)) if i not in part]
    m = row.reshape(dims).transpose(*part, *rest).reshape(math.prod(dims[i] for i in part), -1)
    with decimal.localcontext(prec=50):
        re, im = ([[decimal.Decimal(v) for v in r] for r in arr] for arr in (m.real, m.imag))
        norms = [sum(x * x + y * y for x, y in zip(xs, ys)) for xs, ys in zip(re, im)]
        trace, purity = sum(norms), sum(n * n for n in norms)
        for i, k in itertools.combinations(range(len(re)), 2):
            g_re = sum(a * c + b * d for a, b, c, d in zip(re[i], im[i], re[k], im[k]))
            g_im = sum(b * c - a * d for a, b, c, d in zip(re[i], im[i], re[k], im[k]))
            purity += 2 * (g_re * g_re + g_im * g_im)
        return float((2 * (trace * trace - purity)).sqrt() / trace)


def haar_unitaries(rng, k):
    """k Haar-random 2 x 2 unitaries: QR of complex Gaussians, with the
    phases of R's diagonal moved into Q."""
    q, r = np.linalg.qr(rng.standard_normal((k, 2, 2)) + 1j * rng.standard_normal((k, 2, 2)))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


class TestMetamorphic:
    """Relations that need no reference arithmetic.  Every measure is
    invariant under local unitaries U_0 x ... x U_{n-1}, and relabelling
    qubits 1..n-1 permutes the pairwise values.  The two sides take their
    sums in different orders, so they agree within absolute bounds: the
    one-vs-rest value, in closed form, within ONE_VS_REST_META_ATOL at every
    n (observed <= 2.5e-15), and the pairwise values within PAIR_META_ATOL
    at every n (observed <= 4.9e-15).  Observations are over these tests'
    states and 1,160 more per qubit count, all four kinds."""

    ONE_VS_REST_META_ATOL = 1e-14
    PAIR_META_ATOL = 1e-14

    @pytest.mark.parametrize("n_qubits", [3, 4, 5, 6])
    def test_local_unitaries(self, n_qubits):
        rng = np.random.default_rng(60 + n_qubits)
        amps = state_stack(n_qubits, seed=60 + n_qubits, n_haar=100)
        psi = amps.reshape((len(amps),) + (2,) * n_qubits)
        for q, u in enumerate(haar_unitaries(rng, n_qubits)):
            psi = np.moveaxis(np.tensordot(u, psi, axes=([1], [q + 1])), 0, q + 1)
        moved = psi.reshape(amps.shape)
        for kind in KINDS:
            first, pairwise = measure_vectors(amps, (2,) * n_qubits, kind)
            first_u, pairwise_u = measure_vectors(moved, (2,) * n_qubits, kind)
            assert_within(first_u, first, self.ONE_VS_REST_META_ATOL)
            assert_within(pairwise_u, pairwise, self.PAIR_META_ATOL)

    @pytest.mark.parametrize("n_qubits", [3, 4, 5, 6])
    def test_qubit_permutations(self, n_qubits):
        """Qubit j of the relabelled state is qubit perm[j] of the original,
        so its pair (0, j) is the original pair (0, perm[j])."""
        rng = np.random.default_rng(70 + n_qubits)
        amps = state_stack(n_qubits, seed=70 + n_qubits, n_haar=100)
        psi = amps.reshape((len(amps),) + (2,) * n_qubits)
        values = {kind: measure_vectors(amps, (2,) * n_qubits, kind) for kind in KINDS}
        for _ in range(3):
            perm = [0, *(1 + rng.permutation(n_qubits - 1))]
            moved = psi.transpose(0, *(1 + np.array(perm))).reshape(amps.shape)
            for kind, (first, pairwise) in values.items():
                first_p, pairwise_p = measure_vectors(moved, (2,) * n_qubits, kind)
                assert_within(first_p, first, self.ONE_VS_REST_META_ATOL)
                assert_within(pairwise_p, pairwise[:, np.array(perm[1:]) - 1],
                              self.PAIR_META_ATOL)


class TestHaarBlock:
    @pytest.mark.parametrize("n_qubits", [3, 4, 5, 6])
    @pytest.mark.parametrize("k", [1, 7, 64])
    def test_block_is_the_per_state_stream(self, n_qubits, k):
        """One block draw has the bits of k one-row draws and of the
        per-state formula they replaced, and leaves the stream where they
        leave it."""
        d = 2**n_qubits
        for seed in range(20):
            block_rng, row_rng, old_rng = (np.random.default_rng(seed) for _ in range(3))
            block = haar_random_block(k, d, block_rng)
            rows = np.stack([haar_random_block(1, d, row_rng)[0] for _ in range(k)])
            old = []
            for _ in range(k):
                v = old_rng.standard_normal(d) + 1j * old_rng.standard_normal(d)
                old.append(v / np.linalg.norm(v))
            assert block.shape == (k, d)
            assert block.tobytes() == rows.tobytes() == np.stack(old).tobytes()
            assert block_rng.random() == row_rng.random() == old_rng.random()


def mv_list(amps, dims, kind):
    """The rows of ``measure_vectors`` as measure vectors."""
    return [MeasureVector(MeasureKind(kind), first, pairwise)
            for first, pairwise in zip(*measure_vectors(amps, dims, kind))]


def mvs_for_bounds():
    out = []
    for n_qubits in (3, 4, 5):
        amps = state_stack(n_qubits, seed=30 + n_qubits, n_haar=5)
        for kind in KINDS:
            out += mv_list(amps, (2,) * n_qubits, kind)
    return out


def single_target_loop(mv, spec, targets, strict=True):
    """One ``monogamy_bound`` or ``polygamy_bound`` call per target, after
    the spec of every target is built: ``margin_rows`` takes a spec that has
    checked all its targets before the kernel checks the values."""
    fn = monogamy_bound if spec.mode == "monogamy" else polygamy_bound
    specs = [dataclasses.replace(spec, target_exp=t) for t in targets]
    return [fn(mv, one, strict=strict) for one in specs]


# The parent's bound arithmetic, kept as the reference oracle of the kernel.
# It took the powers of two pairwise values in Python floats (the C library's
# pow), and for more values NumPy's pow one exponent at a time with
# Python-float weights.  The kernel takes NumPy's pow loop on every element;
# the two pows differ by up to an ulp, and a weight w^k of the ordered sum
# carries the difference of w k-fold.  Bounds, measured values and margins
# agree within PARENT_RTOL relative to |bound| + |measured| (observed <= 19.4
# eps over 250 states per qubit count, 3 to 6 qubits, all kinds, both modes).
# The bound is relative because polygamy bounds reach 1e39 here (x = beta/s
# up to 6, a up to A_CAP); on monogamy's O(1) values it is about 1e-14.
PARENT_RTOL = 32 * EPS
# max_admissible_a is one pow of a ratio on either side (observed <= 1 eps).
AMAX_RTOL = 4 * EPS


def parent_bound(mv, spec, target):
    """(bound, measured, max_admissible_a, a) of ``spec`` at one target, by
    the parent's arithmetic."""
    v = sorted(mv.pairwise, reverse=True)
    r = float(spec.base_exp)
    amax = min([(hi / lo) ** r for hi, lo in zip(v, v[1:]) if lo != 0], default=math.inf)
    a = float(spec.a) if spec.a is not None else min(max(1.0, amax), A_CAP)
    x = target / r
    if len(v) > 2:
        w = (1 + 1 / a) ** (x - 1)
        weights = w ** np.arange(len(v) - 1, -1, -1, dtype=float)
        terms = weights * np.power(np.power(np.array(v), r), x)
        bound = float((1 + a) ** (x - 1) * np.sum(terms))
    else:
        if spec.variant == "ours":
            w_small, w_large = (1 + a) ** (x - 1), (1 + 1 / a) ** (x - 1)
        else:
            base = spec.p if spec.variant == "zjz1" else 0.5
            w_small = 1.0 if spec.variant == "jfq" else float(np.power(base, x))
            w_large = ((1 + a) ** x - w_small) / a**x
        bound = w_small * v[1] ** target + w_large * v[0] ** target
    return bound, mv.one_vs_rest**target, amax, a


def assert_close_rel(got, want, rtol):
    assert got == want or abs(got - want) <= rtol * abs(want), (got, want, rtol)


def assert_near_parent(reports, mv, spec, targets):
    """Reports at ``targets`` against the parent's arithmetic."""
    assert len(reports) == len(targets)
    for rep, target in zip(reports, targets):
        bound, measured, amax, a = parent_bound(mv, spec, target)
        margin = measured - bound if spec.mode == "monogamy" else bound - measured
        assert_within([rep.bound_value, rep.measured_value, rep.margin], [bound, measured, margin],
                      PARENT_RTOL * (abs(bound) + abs(measured)))
        assert_close_rel(rep.max_admissible_a, amax, AMAX_RTOL)
        assert_close_rel(rep.a, a, AMAX_RTOL)


def assert_row_matches_loop(mv, spec, targets):
    """``margin_rows`` on one state equals the non-strict single-target loop
    bit for bit, and the loop is within PARENT_RTOL of the parent's
    arithmetic; where the loop raises, ``margin_rows`` raises the same
    message, naming the failing target.  Returns the loop's reports, or its
    error."""
    got = outcome(lambda: margin_rows([mv.one_vs_rest], [mv.pairwise],
                                      dataclasses.replace(spec, target_exp=targets)))
    loop = outcome(lambda: single_target_loop(mv, spec, targets, strict=False))
    if isinstance(loop, list):
        margins, ok = got
        assert margins.tolist() == [[rep.margin for rep in loop]]
        assert [bool(ok[0])] * len(loop) == [rep.ratio_condition_ok for rep in loop]
        assert_near_parent(loop, mv, spec, targets)
    else:
        assert got[0] == "ValueError" and re.sub(r" \(row 0, target \d+\)$", "", got[1]) == loop[1]
    return loop


def assert_strict_loop(mv, spec, targets, loop):
    """The strict single-target loop gives the non-strict ``loop``'s reports
    where the ratio condition holds, and raises on its first target where it
    fails."""
    strict = outcome(lambda: single_target_loop(mv, spec, targets, strict=True))
    if loop[0].ratio_condition_ok:
        assert strict == loop
    else:
        assert strict[0] == "ValueError" and strict[1].startswith("ratio condition fails")


class TestMarginRowsOnOneState:
    @pytest.mark.parametrize("strict", [False, True])
    def test_monogamy_matches_single_target_calls(self, strict):
        alphas = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0]
        for mv in mvs_for_bounds():
            for a in (None, 1.0, 2.5):
                for variant in ("ours", "jfq", "zjz2"):
                    spec = BoundSpec("monogamy", 2, 1.0, a=a, variant=variant)
                    loop = assert_row_matches_loop(mv, spec, alphas)
                    if strict and isinstance(loop, list):
                        assert_strict_loop(mv, spec, alphas, loop)

    def test_zjz_within_domain(self):
        for mv in mvs_for_bounds():
            if len(mv.pairwise) != 2:
                continue
            spec = BoundSpec("monogamy", 2, 1.0, variant="zjz1", p=0.75)
            assert len(assert_row_matches_loop(mv, spec, [0.25, 0.5, 1.0])) == 3

    def test_polygamy_matches_single_target_calls(self):
        for mv in mvs_for_bounds():
            for s in (0.5, 1.0):
                betas = list(np.linspace(s, 3.0, 6))
                for a in (None, 1.2):
                    spec = BoundSpec("polygamy", s, s, a=a)
                    loop = assert_row_matches_loop(mv, spec, betas)
                    assert_strict_loop(mv, spec, betas, loop)

    def test_product_state_takes_a_cap(self):
        mv = mv_list(product_amps(5)[None], (2,) * 5, "concurrence")[0]
        reports = assert_row_matches_loop(mv, BoundSpec("monogamy", 2.0, 2.0), [0.5, 1.0])
        assert all(r.a == A_CAP and r.max_admissible_a == np.inf for r in reports)

    def test_no_targets(self):
        """No target, so no error, though the ratio condition fails."""
        mv = mvs_for_bounds()[0]
        spec = BoundSpec("monogamy", 2.0, [], a=1e6)
        margins, ok = margin_rows([mv.one_vs_rest], [mv.pairwise], spec)
        assert margins.shape == (1, 0) and ok.tolist() == [False]

    def test_per_target_arithmetic(self):
        """At the suite's alphas, each report is within PARENT_RTOL of the
        parent's arithmetic on its target alone: Python floats for two
        pairwise values, NumPy's pow one exponent at a time for more."""
        alphas = [float(t) for t in default_alpha_grid()]
        spec = BoundSpec("monogamy", 2.0, 2.0)
        for mv in mvs_for_bounds():
            assert len(assert_row_matches_loop(mv, spec, alphas)) == len(alphas)


def unchecked_mv(one_vs_rest, pairwise):
    """A measure vector that skipped MeasureVector's own value check."""
    return types.SimpleNamespace(kind=MeasureKind.CONCURRENCE, one_vs_rest=one_vs_rest,
                                 pairwise=tuple(pairwise))


def parent_max_admissible_a(values, exponent):
    """max_admissible_a as it was: NumPy scalars over a sorted array."""
    v = np.sort(np.asarray(values, dtype=float))[::-1]
    best = np.inf
    for hi, lo in zip(v[:-1], v[1:]):
        if lo == 0:
            continue
        best = min(best, (hi / lo) ** float(exponent))
    return float(best)


def parent_ratio_condition(values, a, exponent, rtol=1e-12):
    """The ratio condition as the parent took it: NumPy scalars over a
    sorted array."""
    v = np.sort(np.asarray(values, dtype=float))[::-1]
    for hi, lo in zip(v[:-1], v[1:]):
        if lo == 0:
            continue
        if hi**float(exponent) < float(a) * lo**float(exponent) * (1.0 - rtol):
            return False
    return True


def ratio_mask(values, a, exponent):
    """The ratio condition of one row, from the mask of ``margin_rows`` with
    no targets; an ``a`` of None is resolved from max_admissible_a."""
    spec = BoundSpec("monogamy" if exponent >= 2 else "polygamy", exponent, [], a=a)
    return bool(margin_rows([0.0], [values], spec)[1][0])


def row_loop(first, pairwise, spec, targets, s_rows, a_rows):
    """One non-strict single-target call per row and target, at the row's
    own s, a and targets, after the spec of every row and target is built:
    the loop whose values, mask and errors ``margin_rows`` has."""
    fn = monogamy_bound if spec.mode == "monogamy" else polygamy_bound
    specs = [[dataclasses.replace(spec, base_exp=s, target_exp=t, a=a) for t in row]
             for row, s, a in zip(targets, s_rows, a_rows)]
    reports = [[fn(unchecked_mv(f, pw), one, strict=False) for one in row]
               for f, pw, row in zip(first, pairwise, specs)]
    return ([[r.margin for r in reps] for reps in reports],
            [reps[0].ratio_condition_ok for reps in reports])


def assert_margins_match_loop(mvs, spec, targets):
    """``margin_rows`` at the spec's own s and a equals the row loop on the
    states ``mvs``, errors included."""
    first, pairwise = [mv.one_vs_rest for mv in mvs], [mv.pairwise for mv in mvs]
    got = outcome(lambda: tuple(v.tolist() for v in margin_rows(
        first, pairwise, dataclasses.replace(spec, target_exp=targets))))
    n = len(mvs)
    assert got == outcome(lambda: row_loop(first, pairwise, spec, [targets] * n,
                                           [spec.base_exp] * n, [spec.a] * n))
    return got


class TestMarginRowsAtTheSpec:
    @pytest.mark.parametrize("n_qubits", [3, 4, 5, 6])
    def test_rows_match_single_target_calls(self, n_qubits):
        amps = state_stack(n_qubits, seed=50 + n_qubits)
        alphas = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0]
        failing = 0
        for kind in KINDS:
            mvs = mv_list(amps, (2,) * n_qubits, kind)
            for a in (None, 1.0, 1.3):
                for r in (2.0, 3.0):
                    margins, ok = assert_margins_match_loop(mvs, BoundSpec("monogamy", r, r, a=a),
                                                            alphas + [r])
                    assert len(margins) == len(mvs) and all(len(g) == 7 for g in margins)
                    failing += ok.count(False)
                for s in (0.3, 0.5, 1.0):
                    spec = BoundSpec("polygamy", s, s, a=a)
                    assert_margins_match_loop(mvs, spec, list(np.linspace(s, 3.0, 5)))
        assert failing  # rows whose ratio condition fails are evaluated too

    def test_tripartite_variants(self):
        mvs = mv_list(state_stack(3, seed=60), (2, 2, 2), "concurrence")
        for variant, p in (("jfq", 0.5), ("zjz1", 0.75), ("zjz2", 0.5)):
            for a in (None, 1.2):
                spec = BoundSpec("monogamy", 2.0, 1.0, a=a, variant=variant, p=p)
                assert_margins_match_loop(mvs, spec, [0.0, 0.5, 1.0])
                spec = BoundSpec("polygamy", 0.6, 0.6, a=a, variant=variant, p=p)
                assert_margins_match_loop(mvs, spec, [0.6, 1.5, 3.0])

    def test_product_state_row(self):
        first, pairwise = measure_vectors(product_amps(4)[None], (2,) * 4, "concurrence")
        spec = BoundSpec("monogamy", 2.0, 2.0)
        reports = single_target_loop(
            measure_vector(PureState((2,) * 4, product_amps(4)), "concurrence"), spec, [0.0, 1.0])
        assert all(r.a == A_CAP and r.max_admissible_a == math.inf for r in reports)
        got, ok = margin_rows(first, pairwise, dataclasses.replace(spec, target_exp=[0.0, 1.0]))
        assert got.tolist() == [[r.margin for r in reports]] and ok.tolist() == [True]

    def test_empty_inputs(self):
        first, pairwise = measure_vectors(state_stack(3, seed=61, n_haar=2), (2, 2, 2),
                                          "concurrence")
        assert margin_rows(first, pairwise, BoundSpec("monogamy", 2.0, []))[0].shape == (
            len(first), 0)
        assert margin_rows([], [], BoundSpec("monogamy", 3.0, [1.0, 2.5]))[0].shape == (0, 2)
        with pytest.raises(ValueError, match="pairwise must be"):
            margin_rows(first, pairwise[:-1], BoundSpec("monogamy", 2.0, [1.0]))

    def test_ratio_mask_on_unsorted_values(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            v = rng.random(rng.integers(1, 7)) ** rng.integers(1, 4)
            v[rng.random(v.size) < 0.15] = 0.0
            v[rng.random(v.size) < 0.15] = v[0]
            rng.shuffle(v)
            for e in (0.3, 1.0, 2.0, 3.5):
                got = max_admissible_a(list(v), e)
                assert type(got) is float
                assert_close_rel(got, parent_max_admissible_a(v, e), AMAX_RTOL)
                for a in (1.0, 1.7, got if 1 <= got < math.inf else 2.0):
                    assert ratio_mask(tuple(v), a, e) is parent_ratio_condition(v, a, e)
        # an overflowing ratio power is inf, as NumPy's scalar pow gives it
        with np.errstate(over="ignore"):
            for v, e in (([1e-17, 1.0], 40.0), ([1e200, 1e100], 2.0)):
                assert_close_rel(max_admissible_a(v, e), parent_max_admissible_a(v, e), AMAX_RTOL)
                assert ratio_mask(v, 1.5, e) is parent_ratio_condition(v, 1.5, e)


def polygamy_block(seed, n=90):
    """SCRENoA values of n random W-class states, where every third pairwise
    ratio lies just below 2, at one of four distances: its s = log2(v1/v2)
    is then just below 1 and passes the ratio condition at a = 2^s, while
    the other ratios below 2 fail it."""
    rng = np.random.default_rng(seed)
    coeffs = np.abs(rng.standard_normal((n, 3)))
    amps = w_class_amps(coeffs / np.linalg.norm(coeffs, axis=1)[:, None])
    first, pairwise = measure_vectors(amps, (2, 2, 2), MeasureKind.SCRENOA)
    for i in range(0, n, 3):
        hi = pairwise[i].max()
        pairwise[i] = (hi / (2.0 * (1.0 - (i % 4) * 2e-14)), hi)
    return first, pairwise


def per_sample_s(pairwise):
    """The polygamy suite's s = min(1, log2(v1/v2)) and a = 2^s of each row."""
    s_rows = [min(1.0, math.log2(hi / lo)) for lo, hi in np.sort(pairwise, axis=1).tolist()]
    return np.array(s_rows), np.array([2.0**s for s in s_rows])


def grouped_calls(first, pairwise, targets, s_rows, a_rows):
    """The calls ``margin_rows`` replaces in the polygamy suite: the parent's
    ratio check of each row, at a resolved as max(1, max_admissible_a),
    capped at A_CAP, where a is None, and one ``margin_rows`` call at the
    spec's own s and a per (s, a, targets) group of the rows that pass it.
    Returns the margins (NaN on failing rows), the mask and the a of each
    row."""
    resolved = [min(max(1.0, max_admissible_a(row, s)), A_CAP) if a is None else a
                for row, s, a in zip(pairwise, s_rows, a_rows)]
    ok = np.array([parent_ratio_condition(row, a, s)
                   for row, a, s in zip(pairwise, resolved, s_rows)], dtype=bool)
    groups = {}
    for i in np.flatnonzero(ok).tolist():
        groups.setdefault((s_rows[i], a_rows[i], tuple(targets[i].tolist())), []).append(i)
    margins = np.full(targets.shape, math.nan)
    for (s, a, betas), members in groups.items():
        spec = BoundSpec("polygamy", s, list(betas), a=a)
        margins[members] = margin_rows(first[members], pairwise[members], spec)[0]
    return margins, ok, np.array(resolved)


def assert_rows_match(first, pairwise, targets, s_rows, a_rows, **kwargs):
    """``margin_rows`` equals the grouped calls on the rows that pass, and
    the single-target loop on every row, bit for bit."""
    spec = BoundSpec("polygamy", 1.0, 1.0)
    got, ok = margin_rows(first, pairwise, dataclasses.replace(spec, target_exp=targets, **kwargs))
    want, want_ok, resolved = grouped_calls(first, pairwise, targets, s_rows, a_rows)
    assert ok.dtype == bool and ok.tolist() == want_ok.tolist()
    assert got[ok].tobytes() == want[ok].tobytes()
    assert (got.tolist(), ok.tolist()) == row_loop(first, pairwise, spec, targets, s_rows, a_rows)
    return got, ok, resolved


class TestMarginRows:
    def test_mixed_s_and_a(self):
        first, pairwise = polygamy_block(seed=70)
        s_rows, a_rows = per_sample_s(pairwise)
        targets = verify._default_beta_rows(s_rows)
        _, ok, _ = assert_rows_match(first, pairwise, targets, s_rows, a_rows,
                                     base_exp=s_rows, a=a_rows)
        assert len(set(s_rows[ok].tolist())) >= 4 and not ok.all()

    def test_default_beta_rows_are_linspace(self):
        s = np.random.default_rng(73).uniform(0.0, 1.0, 5000)
        s[:3] = (1.0, 0.05, 2**-30)
        want = [np.linspace(x, 3.0, 8).tolist() for x in s]
        assert verify._default_beta_rows(s).tolist() == want

    def test_fixed_s_resolves_a_per_row(self):
        first, pairwise = polygamy_block(seed=71)
        n = len(first)
        targets = np.broadcast_to([0.6, 1.0, 2.5], (n, 3))
        s_rows = np.full(n, 0.6)
        got, ok, resolved = assert_rows_match(first, pairwise, targets, s_rows, [None] * n,
                                              base_exp=0.6)
        assert ok.all() and len(set(resolved.tolist())) > n // 2
        spec = BoundSpec("polygamy", 0.6, 0.6)
        # the spec's own s and a, shared targets, or the resolved a passed in
        for kwargs in ({}, {"base_exp": s_rows}, {"a": resolved}):
            again, again_ok = margin_rows(
                first, pairwise, dataclasses.replace(spec, target_exp=[0.6, 1.0, 2.5], **kwargs))
            assert again.tobytes() == got.tobytes() and again_ok.tolist() == ok.tolist()

    def test_ragged_targets(self):
        first, pairwise = polygamy_block(seed=72)
        s_rows, a_rows = per_sample_s(pairwise)
        grid = np.array([0.3, 0.7, 1.0, 2.5])
        # a beta below its row's s is replaced by s, as the suite does
        targets = np.where(grid >= s_rows[:, None], grid, s_rows[:, None])
        assert len({tuple(row) for row in targets.tolist()}) >= 3
        assert_rows_match(first, pairwise, targets, s_rows, a_rows, base_exp=s_rows, a=a_rows)

    def test_empty(self):
        spec = BoundSpec("polygamy", [], np.empty((0, 8)), a=[])
        got, ok = margin_rows([], np.empty((0, 2)), spec)
        assert got.shape == (0, 8) and ok.shape == (0,)
        got, ok = margin_rows([0.5], [[0.3, 0.1]], BoundSpec("polygamy", [0.5], []))
        assert got.shape == (1, 0) and ok.shape == (1,)

    def test_no_targets_keeps_the_ratio_mask(self):
        first, pairwise = polygamy_block(seed=76)
        s_rows, a_rows = per_sample_s(pairwise)
        spec = BoundSpec("polygamy", 1.0, 1.0)
        for kwargs in ({"base_exp": s_rows, "a": a_rows}, {"base_exp": s_rows}, {}):
            got, ok = margin_rows(first, pairwise, dataclasses.replace(spec, target_exp=[],
                                                                       **kwargs))
            _, want = margin_rows(first, pairwise, dataclasses.replace(spec, target_exp=[3.0],
                                                                       **kwargs))
            assert got.shape == (len(first), 0)
            assert ok.tolist() == want.tolist()
            # a = 2^s fails on some rows; a resolved from max_admissible_a never does
            assert (np.count_nonzero(ok) < len(ok)) == ("a" in kwargs)

    @pytest.mark.parametrize("call", [
        lambda first, pairwise, spec: margin_rows(
            first, pairwise, dataclasses.replace(spec, target_exp=1.0)),
        lambda first, pairwise, spec: margin_rows(
            first[:1], pairwise[:1], dataclasses.replace(spec, target_exp=1.0)),
        lambda first, pairwise, spec: margin_rows(
            first, pairwise, dataclasses.replace(spec, target_exp=np.ones((2, 1, 1)))),
        lambda first, pairwise, spec: margin_rows(first, pairwise, dataclasses.replace(
            spec, target_exp=1.0, base_exp=[0.6, 0.6], a=[2.0, 2.0])),
    ])
    def test_targets_of_the_wrong_rank_raise(self, call):
        spec = BoundSpec("polygamy", 0.6, 0.6)
        with pytest.raises(ValueError, match=r"targets must be a list of T exponents or an "
                                             r"\((1|2), T\) array, got shape"):
            call([0.9, 0.9], [(0.5, 0.1), (0.5, 0.2)], spec)

    def test_explicit_a_matches_the_row_loop(self):
        """With a given, the kernel takes one max_admissible_a power, for the
        ratio condition, and its margins and mask are those of the row loop."""
        first, pairwise = polygamy_block(seed=74)
        n = len(first)
        spec = BoundSpec("polygamy", 0.6, 0.6)
        a_rows = np.random.default_rng(75).uniform(1.0, 1.5, n)
        amax_calls = []
        real = bounds._max_a

        def counting(*args):
            amax_calls.append(args)
            return real(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bounds, "_max_a", counting)
            got, ok = margin_rows(first, pairwise,
                                  dataclasses.replace(spec, target_exp=[0.6, 1.5, 3.0], a=a_rows))
        assert len(amax_calls) == 1 and 0 < np.count_nonzero(ok) < n
        want = row_loop(first, pairwise, spec, [[0.6, 1.5, 3.0]] * n, [0.6] * n, a_rows)
        assert (got.tolist(), ok.tolist()) == want

    @pytest.mark.parametrize("spec,pairwise,targets,mask", [
        (BoundSpec("polygamy", 0.5, 0.5, a=1.9), [(0.5, 0.1), (0.5, 0.4)], [0.5, 1.0],
         [True, False]),
        (BoundSpec("monogamy", 2.0, 1.0, a=1.5), [(0.5, 0.1), (0.5, 0.49)], [1.0, 2.0],
         [True, False]),
        (BoundSpec("polygamy", 0.5, 0.5, a=1e6), [(0.5, 0.45), (0.5, 0.1)], [0.5, 2.0],
         [False, False]),
    ])
    def test_failing_ratio_condition_is_not_an_error(self, spec, pairwise, targets, mask):
        """A failing ratio condition is no error to ``margin_rows``; a strict
        single-state call raises it, naming a and max_admissible_a."""
        mvs = [unchecked_mv(0.9, pw) for pw in pairwise]
        margins, ok = assert_margins_match_loop(mvs, spec, targets)
        assert ok == mask and np.isfinite(margins).all()
        fn = monogamy_bound if spec.mode == "monogamy" else polygamy_bound
        failing = pairwise[mask.index(False)]
        with pytest.raises(ValueError) as exc:
            fn(unchecked_mv(0.9, failing), spec)
        amax = max_admissible_a(failing, spec.base_exp)
        assert str(exc.value) == f"ratio condition fails at a={spec.a} (max admissible {amax})"


MONO = BoundSpec("monogamy", 2.0, 2.0)
POLY = BoundSpec("polygamy", 1.0, 1.0)
VALUES_MESSAGE = "values must be finite and nonnegative, got "


def assert_raises(spec, pairwise, targets, kwargs, want):
    """``margin_rows`` on the rows ``pairwise`` raises exactly ``want``."""
    first = [0.9] * len(pairwise)
    with pytest.raises(ValueError) as exc:
        margin_rows(first, pairwise, dataclasses.replace(spec, target_exp=targets, **kwargs))
    assert str(exc.value) == want


class TestMarginRowsErrors:
    """A ``BoundSpec`` checks its fields when it is built and ``margin_rows``
    checks the values once, before any power; each raises one message per
    rule, naming the first failing row, or row and target, of a block with
    more than one.  One table per rule; a call that breaks several rules
    raises the first of base exponent, target exponent, alpha/r and ratio
    parameter (the spec's), then per-row length, tripartite-only variant and
    values (the kernel's)."""

    @pytest.mark.parametrize("spec,pairwise,targets,kwargs,want", [
        (MONO, [(0.5, 0.1)] * 3, [1.0], {"base_exp": [2.0, 2.0]},
         "base_exp has length 2, but a block of 3 rows needs 1 or 3"),
        (MONO, [(0.5, 0.1)] * 3, [1.0], {"a": [2.0, 2.0]},
         "a has length 2, but a block of 3 rows needs 1 or 3"),
        (MONO, [(0.5, 0.1)] * 3, [[1.0]] * 2, {},
         "target_exp has length 2, but a block of 3 rows needs 1 or 3"),
        (MONO, [(0.5, 0.1)] * 2, [[1.0]] * 3, {"base_exp": [2.0] * 3, "a": [2.0] * 4},
         "base_exp has length 3, but a block of 2 rows needs 1 or 2"),
        # the empty block
        (MONO, [], [1.0], {"base_exp": [2.0, 2.0]},
         "base_exp has length 2, but a block of 0 rows needs 1 or 0"),
        (MONO, [], [1.0], {"a": [2.0, 2.0]}, "a has length 2, but a block of 0 rows needs 1 or 0"),
        (MONO, [], [[1.0]] * 2, {}, "target_exp has length 2, but a block of 0 rows needs 1 or 0"),
        # before the tripartite-only variant and the values
        (BoundSpec("monogamy", 2.0, 0.5, variant="jfq"), [(0.5, 0.1, math.nan)] * 3, [0.5],
         {"a": [2.0, 2.0]}, "a has length 2, but a block of 3 rows needs 1 or 3"),
    ])
    def test_per_row_length(self, spec, pairwise, targets, kwargs, want):
        """A per-row field has length 1, shared by every row, or one entry per
        row; any other length is named with the block's."""
        assert_raises(spec, pairwise, targets, kwargs, want)

    def test_per_row_length_is_checked_once_per_layout(self, monkeypatch):
        """A block whose layout the spec keeps is not checked again, and a
        length of 1 is shared by every row."""
        calls, real = [], bounds._check_rows
        monkeypatch.setattr(bounds, "_check_rows", lambda *args: calls.append(args) or real(*args))
        spec = BoundSpec("monogamy", [2.0], [[1.0, 2.0]], a=[2.0])
        for _ in range(3):
            margins, _ = margin_rows([0.9] * 3, [(0.5, 0.1)] * 3, spec)
        assert calls == [(spec, 3)]
        shared = BoundSpec("monogamy", 2.0, [1.0, 2.0], a=2.0)
        want, _ = margin_rows([0.9] * 3, [(0.5, 0.1)] * 3, shared)
        assert margins.tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec,pairwise,targets,kwargs,want", [
        # before a later row's bad target, and before the values
        (POLY, [(0.5, 0.1)] * 3, [[1.0, 2.0]] * 2 + [[0.1, 2.0]],
         {"base_exp": [0.5, 1.5, 0.5], "a": [2.0] * 3},
         "polygamy base exponent must be in (0, 1], got 1.5 (row 1)"),
        (POLY, [(0.5, 0.1)] * 2, [[1.0, 2.0], [1.5, 2.0]],
         {"base_exp": [0.5, 1.5], "a": [2.0] * 2},
         "polygamy base exponent must be in (0, 1], got 1.5 (row 1)"),
        (POLY, [(0.5, 0.1)] * 4, [[1.0, 2.0]] * 4,
         {"base_exp": [0.5, 0.7, 1.0, 0.0], "a": [2.0] * 4},
         "polygamy base exponent must be in (0, 1], got 0.0 (row 3)"),
        (MONO, [(0.5, 0.1)] * 3, [[1.0]] * 3, {"base_exp": [2.0, 1.5, 3.0]},
         "monogamy base exponent must be >= 2, got 1.5 (row 1)"),
        (MONO, [(0.5, 0.1), (0.5, 0.2)], [1.0], {"base_exp": [2.0, math.nan]},
         "monogamy base exponent must be >= 2, got nan (row 1)"),
    ])
    def test_base_exponent(self, spec, pairwise, targets, kwargs, want):
        assert_raises(spec, pairwise, targets, kwargs, want)

    @pytest.mark.parametrize("spec,pairwise,targets,kwargs,want", [
        (POLY, [(0.5, 0.1)] * 2, [[1.0, 2.0]] * 2, {"base_exp": [0.5, 0.5], "a": [2.0, 0.5]},
         "ratio parameter a must be >= 1, got 0.5 (row 1)"),
        # after row 1's bad target
        (POLY, [(0.5, 0.1)] * 2, [[1.0, 2.0], [0.1, 2.0]],
         {"base_exp": [0.5, 0.5], "a": [2.0, 0.5]},
         "polygamy target exponent must be >= 0.5, got 0.1 (row 1, target 0)"),
        (MONO, [(0.5, 0.1)] * 4, [[1.0, 2.0]] * 4,
         {"base_exp": [2.0] * 4, "a": [1.0, 1.5, 2.0, 0.999]},
         "ratio parameter a must be >= 1, got 0.999 (row 3)"),
        (BoundSpec("polygamy", 0.6, 0.6), [(0.5, 0.1), (0.5, 0.2)], [1.0],
         {"a": [2.0, math.nan]}, "ratio parameter a must be >= 1, got nan (row 1)"),
        (MONO, [(0.5, 0.1), (0.5, 0.2)], [1.0], {"a": [math.nan, 2.0]},
         "ratio parameter a must be >= 1, got nan (row 0)"),
    ])
    def test_ratio_parameter(self, spec, pairwise, targets, kwargs, want):
        assert_raises(spec, pairwise, targets, kwargs, want)

    @pytest.mark.parametrize("spec,pairwise,targets,kwargs,want", [
        (BoundSpec("monogamy", 2.0, 0.5, variant="jfq"), [(0.5, 0.1, 0.05)], [0.5], {},
         "variant 'jfq' is defined for tripartite states only"),
        (BoundSpec("monogamy", 2.0, 0.5, variant="jfq"), [(0.5, 0.1, 0.05)], [0.5, 1.5], {},
         "variant 'jfq' is defined for tripartite states only"),
        # after zjz's alpha/r <= 1/2
        (BoundSpec("monogamy", 2.0, 0.5, variant="zjz2"), [(0.5, 0.1, 0.05)], [0.5, 1.5], {},
         "variant 'zjz2' requires alpha/r <= 1/2, got 0.75 (row 0, target 1)"),
        (BoundSpec("monogamy", 2.0, 2.0, variant="jfq"), [(0.5, 0.1, 0.05)], [[1.0]],
         {"base_exp": [2.0]}, "variant 'jfq' is defined for tripartite states only"),
    ])
    def test_tripartite_only_variant(self, spec, pairwise, targets, kwargs, want):
        assert_raises(spec, pairwise, targets, kwargs, want)

    @pytest.mark.parametrize("spec,pairwise,targets,kwargs,want", [
        # after a bad target, and whatever the ratio condition
        (BoundSpec("monogamy", 2.0, 1.0), [(0.5, 0.1), (math.nan, 0.1)], [2.5, 1.0], {},
         "monogamy target exponent must be in [0, 2.0], got 2.5 (row 0, target 0)"),
        (BoundSpec("monogamy", 2.0, 1.0), [(0.5, 0.1, 0.0), (0.4, math.nan, 0.1)], [1.0], {},
         VALUES_MESSAGE + "[0.4, nan, 0.1] (row 1)"),
        (BoundSpec("monogamy", 2.0, 1.0, a=3.0), [(0.5, 0.1), (0.5, 0.4), (0.2, -0.1)], [1.0],
         {}, VALUES_MESSAGE + "[0.2, -0.1] (row 2)"),
        (BoundSpec("polygamy", 0.5, 0.5), [(0.2, -0.1), (0.5, 0.4)], [1.0], {},
         VALUES_MESSAGE + "[0.2, -0.1] (row 0)"),
        (POLY, [(0.5, 0.1), (0.5, math.nan)], [[1.0, 2.0], [0.1, 2.0]],
         {"base_exp": [0.5, 0.5], "a": [2.0, 2.0]},
         "polygamy target exponent must be >= 0.5, got 0.1 (row 1, target 0)"),
        (POLY, [(0.5, 0.1), (0.5, math.nan)], [[1.0, 2.0], [1.0, 0.1]],
         {"base_exp": [0.5, 0.5], "a": [2.0, 2.0]},
         "polygamy target exponent must be >= 0.5, got 0.1 (row 1, target 1)"),
        (POLY, [(0.5, 0.45), (0.5, 0.1), (math.nan, 0.1)], [[1.0, 2.0]] * 3,
         {"base_exp": [0.5] * 3, "a": [1e6] * 3}, VALUES_MESSAGE + "[nan, 0.1] (row 2)"),
        (BoundSpec("monogamy", 2.0, 2.0, a=1e6), [(0.5, 0.45), (0.5, -0.1)], [[1.0, 2.0]] * 2,
         {"base_exp": [2.0, 2.0]}, VALUES_MESSAGE + "[0.5, -0.1] (row 1)"),
    ])
    def test_values(self, spec, pairwise, targets, kwargs, want):
        assert_raises(spec, pairwise, targets, kwargs, want)

    @pytest.mark.parametrize("first,pairwise,want", [
        ([-1.0], [(0.5, 0.1)], VALUES_MESSAGE + "one-vs-rest -1.0"),
        ([math.nan], [(0.5, 0.1)], VALUES_MESSAGE + "one-vs-rest nan"),
        ([0.9, math.inf, 0.9], [(0.5, 0.1)] * 3, VALUES_MESSAGE + "one-vs-rest inf (row 1)"),
        # the first bad row, whichever of its values is bad
        ([0.9, -1.0], [(0.5, math.nan), (0.5, 0.1)], VALUES_MESSAGE + "[0.5, nan] (row 0)"),
        ([0.9, -1.0], [(0.5, 0.1), (0.5, math.nan)], VALUES_MESSAGE + "one-vs-rest -1.0 (row 1)"),
        ([[0.9]], [(0.5, 0.1)], "one_vs_rest must be an (N,) array, got shape (1, 1)"),
        (0.9, [(0.5, 0.1)], "one_vs_rest must be an (N,) array, got shape ()"),
    ])
    def test_one_vs_rest(self, first, pairwise, want):
        """The one-vs-rest values pass the checks of ``MeasureVector`` on the
        single-state path, before any power: shape (N,), finite and
        nonnegative."""
        for spec in (MONO, POLY):
            with pytest.raises(ValueError) as exc:
                margin_rows(first, pairwise, dataclasses.replace(spec, target_exp=[1.0]))
            assert str(exc.value) == want

    @pytest.mark.parametrize("first,pairwise,want", [
        # the first bad row, whatever the later rows hold
        ([0.9] * 4, [(0.5, 0.1), (0.5, -0.2), (math.nan, 0.1), (math.inf, 0.2)],
         VALUES_MESSAGE + "[0.5, -0.2] (row 1)"),
        ([0.9] * 4, [(0.5, 0.1), (0.5, 0.2), (0.1, math.inf), (-1.0, math.nan)],
         VALUES_MESSAGE + "[0.1, inf] (row 2)"),
        ([0.9, 0.9, math.nan, -1.0], [(0.5, 0.1), (math.nan, 0.2), (0.5, 0.1), (0.5, -0.1)],
         VALUES_MESSAGE + "[nan, 0.2] (row 1)"),
        ([0.9, -0.5, 0.9, math.inf], [(0.5, 0.1), (0.5, 0.2), (math.inf, 0.1), (0.5, 0.1)],
         VALUES_MESSAGE + "one-vs-rest -0.5 (row 1)"),
        ([0.9, 0.9, 0.9], [(0.5, 0.1, 0.2), (0.5, 0.2, 0.1), (0.3, 0.1, -math.inf)],
         VALUES_MESSAGE + "[0.3, 0.1, -inf] (row 2)"),
        # a bad one-vs-rest value and a bad pairwise value in one row
        ([0.9, math.nan], [(0.5, 0.1), (0.5, -0.1)], VALUES_MESSAGE + "one-vs-rest nan (row 1)"),
        ([math.inf, 0.9], [(math.nan, 0.1), (0.5, -0.1)], VALUES_MESSAGE + "one-vs-rest inf (row 0)"),
        ([-1.0], [(0.5, math.inf)], VALUES_MESSAGE + "one-vs-rest -1.0"),
    ])
    def test_first_bad_row_is_named(self, first, pairwise, want):
        """The values are checked by the least and greatest of the block, and
        a failing block row by row, so the error names the first bad row;
        no power is taken before it."""
        calls = []
        real = np.power

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for spec in (MONO, POLY):
            calls.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(np, "power", counting)
                with pytest.raises(ValueError) as exc:
                    margin_rows(first, pairwise, dataclasses.replace(spec, target_exp=[1.0, 2.0]))
                assert str(exc.value) == want and not calls
                margin_rows([0.9], [(0.5, 0.1)], dataclasses.replace(spec, target_exp=[1.0]))
                assert calls  # the counter sees the kernel's powers

    @pytest.mark.parametrize("spec", [
        BoundSpec("monogamy", 2.0, [1.0, 2.0]), BoundSpec("monogamy", 3.0, [1.0, 3.0]),
        BoundSpec("polygamy", 1.0, [1.0, 2.0]), BoundSpec("polygamy", 0.5, [0.5, 1.5]),
    ])
    def test_negative_zero_passes(self, spec):
        """-0.0 is nonnegative: it passes the check, and it gives what 0.0
        gives, a zero successor included (no -inf max_admissible_a at an odd
        exponent)."""
        for pairwise in ([(0.5, -0.0)], [(0.5, -0.0, 0.2)], [(-0.0, -0.0, 0.0, 0.3)]):
            plus = np.abs(pairwise)
            got = bounds._grid([-0.0], pairwise, spec)
            want = bounds._grid([0.0], plus, spec)
            assert [v.tolist() for v in got] == [v.tolist() for v in want]
            assert got[4][0] == max_admissible_a(pairwise[0], spec.base_exp) > 0
            assert max_admissible_a(pairwise[0], spec.base_exp) == max_admissible_a(
                plus[0], spec.base_exp)

    @pytest.mark.parametrize("spec,pairwise,targets,kwargs,want", [
        (BoundSpec("monogamy", 2.0, 1.0), [(0.5, 0.1)], [2.0, 2.5], {},
         "monogamy target exponent must be in [0, 2.0], got 2.5 (row 0, target 1)"),
        (BoundSpec("polygamy", 0.5, 0.5), [(0.5, 0.1)], [0.5, 0.4], {},
         "polygamy target exponent must be >= 0.5, got 0.4 (row 0, target 1)"),
        # a failing ratio condition is no error, before or after the bad target
        (BoundSpec("monogamy", 2.0, 1.0, a=1e6), [(0.5, 0.1)], [1.0, 2.5], {},
         "monogamy target exponent must be in [0, 2.0], got 2.5 (row 0, target 1)"),
        (BoundSpec("monogamy", 2.0, 1.0, a=1e6), [(0.5, 0.1)], [2.5, 1.0], {},
         "monogamy target exponent must be in [0, 2.0], got 2.5 (row 0, target 0)"),
        (BoundSpec("monogamy", 2.0, 1.0, a=1.5), [(0.5, 0.1), (0.5, 0.49)], [1.0, 2.5], {},
         "monogamy target exponent must be in [0, 2.0], got 2.5 (row 0, target 1)"),
        (BoundSpec("monogamy", 2.0, 1.0, a=1.5), [(0.5, 0.49), (0.5, 0.1)], [1.0, 2.5], {},
         "monogamy target exponent must be in [0, 2.0], got 2.5 (row 0, target 1)"),
        # a bad value, and a NaN, late in a shared list of targets
        (BoundSpec("monogamy", 2.0, 1.0), [(0.5, 0.1)], [0.5, 1.0, -0.5], {},
         "monogamy target exponent must be in [0, 2.0], got -0.5 (row 0, target 2)"),
        (BoundSpec("monogamy", 2.0, 1.0), [(0.5, 0.1)], [0.5, math.nan], {},
         "monogamy target exponent must be in [0, 2.0], got nan (row 0, target 1)"),
        (BoundSpec("polygamy", 0.5, 0.5), [(0.5, 0.1)], [0.5, 2.0, 0.25], {},
         "polygamy target exponent must be >= 0.5, got 0.25 (row 0, target 2)"),
        (MONO, [(0.5, 0.1)] * 2, [1.0, math.nan], {"base_exp": [2.0, 2.0]},
         "monogamy target exponent must be in [0, 2.0], got nan (row 0, target 1)"),
        (BoundSpec("polygamy", 0.6, 0.6), [(0.5, 0.1), (0.5, 0.2)], [1.0, math.nan], {},
         "polygamy target exponent must be >= 0.6, got nan (row 0, target 1)"),
        # at each row's own s
        (POLY, [(0.5, 0.1)] * 2, [[0.3, 2.0], [0.5, 0.3]], {"base_exp": [0.3, 0.6]},
         "polygamy target exponent must be >= 0.6, got 0.5 (row 1, target 0)"),
        (POLY, [(0.5, 0.1)] * 2, [1.0, 2.0, 0.4], {"base_exp": [0.5, 0.6], "a": [2.0] * 2},
         "polygamy target exponent must be >= 0.5, got 0.4 (row 0, target 2)"),
        (POLY, [(0.5, 0.1)] * 2, [0.55, 2.0], {"base_exp": [0.5, 0.6], "a": [2.0] * 2},
         "polygamy target exponent must be >= 0.6, got 0.55 (row 1, target 0)"),
        (MONO, [(0.5, 0.1)] * 2, [[1.0, 2.5], [1.0, 2.5]], {"base_exp": [3.0, 2.0], "a": [1.0] * 2},
         "monogamy target exponent must be in [0, 2.0], got 2.5 (row 1, target 1)"),
        (BoundSpec("polygamy", 0.6, 0.6), [(0.5, 0.1), (0.5, 0.2)], [[1.0], [math.nan]],
         {"base_exp": [0.6, 0.6]},
         "polygamy target exponent must be >= 0.6, got nan (row 1, target 0)"),
    ])
    def test_target_exponent(self, spec, pairwise, targets, kwargs, want):
        assert_raises(spec, pairwise, targets, kwargs, want)

    @pytest.mark.parametrize("spec,pairwise,targets,kwargs,want", [
        (BoundSpec("monogamy", 2.0, 0.5, variant="zjz2"), [(0.5, 0.1)], [0.5, 1.5], {},
         "variant 'zjz2' requires alpha/r <= 1/2, got 0.75 (row 0, target 1)"),
        # at each row's own r
        (BoundSpec("monogamy", 2.0, 1.0, variant="zjz2"), [(0.5, 0.1)] * 2, [[1.2], [1.2]],
         {"base_exp": [3.0, 2.0]},
         "variant 'zjz2' requires alpha/r <= 1/2, got 0.6 (row 1, target 0)"),
    ])
    def test_zjz_alpha_over_r(self, spec, pairwise, targets, kwargs, want):
        assert_raises(spec, pairwise, targets, kwargs, want)

    @pytest.mark.parametrize("pairwise,kwargs,want", [
        ((math.nan, 0.1), {}, VALUES_MESSAGE + "[nan, 0.1]"),
        ((0.5, -0.1), {}, VALUES_MESSAGE + "[0.5, -0.1]"),
        ((0.5, 0.1), {"a": 0.5}, "ratio parameter a must be >= 1, got 0.5"),
        ((0.5, 0.1), {"base_exp": 7.0}, "polygamy base exponent must be in (0, 1], got 7.0"),
    ])
    def test_no_targets_validate(self, pairwise, kwargs, want):
        """With no targets a call raises what it raises with one."""
        for targets in ([], [1.0]):
            assert_raises(BoundSpec("polygamy", 0.5, 0.5), [pairwise], targets, kwargs, want)


ALPHAS = [float(alpha) for alpha in default_alpha_grid(2.0)]


def reference_states(n, seed, n_qubits):
    """The per-state loop's measure vectors, one Haar state at a time."""
    rng = np.random.default_rng(seed)
    dims = (2,) * n_qubits
    return [measure_vector(PureState(dims, haar_random_block(1, 2**n_qubits, rng)[0]),
                           MeasureKind.CONCURRENCE) for _ in range(n)]


def reference_reports(n, seed, n_qubits):
    """The per-state loop: one state, one measure vector, one spec at a time."""
    return [(mv, [monogamy_bound(mv, BoundSpec("monogamy", 2.0, alpha)) for alpha in ALPHAS])
            for mv in reference_states(n, seed, n_qubits)]


def reference_margins(n, seed, n_qubits):
    return [rep.margin for _, reports in reference_reports(n, seed, n_qubits) for rep in reports]


def reference_monogamy(n, seed, n_qubits, tol):
    report = VerificationReport()
    report.record(reference_margins(n, seed, n_qubits), tol,
                  lambda i: (i // len(ALPHAS), ALPHAS[i % len(ALPHAS)]))
    return report


def reference_polygamy(n, seed, s, beta_grid, tol):
    """The per-state loop, with its per-beta ratio-condition skip."""
    report = VerificationReport()
    rng = np.random.default_rng(seed)
    margins, samples, evaluated = [], [], []
    for k in range(n):
        coeffs = np.abs(rng.standard_normal(3))
        coeffs /= np.linalg.norm(coeffs)
        mv = measure_vector(w_class_state(*coeffs), MeasureKind.SCRENOA)
        v = np.sort(np.asarray(mv.pairwise))[::-1]
        if v[1] == 0 or v[0] == 0:
            report.skipped += 1
            continue
        if s is None:
            log2_ratio = math.log2(v[0] / v[1])
            if log2_ratio < MIN_LOG2_RATIO:
                report.skipped += 1
                continue
            s_k = min(1.0, log2_ratio)
            a_k = 2.0**s_k
        else:
            s_k, a_k = float(s), None
        if not parent_ratio_condition(v, a_k if a_k is not None else 1.0, s_k):
            report.skipped += 1
            continue
        grid = np.linspace(s_k, 3.0, 8) if beta_grid is None else beta_grid
        for beta in grid:
            if beta < s_k:
                continue
            spec = BoundSpec("polygamy", s_k, float(beta), a=a_k)
            rep = polygamy_bound(mv, spec, strict=False)
            if not rep.ratio_condition_ok:
                report.skipped += 1
                continue
            margins.append(rep.margin)
            samples.append((k, s_k, float(beta)))
            evaluated.append((mv, spec, rep))
    report.record(margins, tol, samples.__getitem__)
    return report, margins, evaluated


class TestBlockedSuites:
    @pytest.mark.parametrize("n_qubits", [3, 4])
    def test_monogamy_above_block_size(self, n_qubits):
        n = 2 * STATE_BLOCK + 5
        want = reference_monogamy(n, seed=3, n_qubits=n_qubits, tol=1e-8)
        assert want.failures == 0
        got = verify_monogamy_states(n, seed=3, n_qubits=n_qubits)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)
        assert got.total == 8 * n
        for mv, reports in reference_reports(n, seed=3, n_qubits=n_qubits):
            assert_near_parent(reports, mv, BoundSpec("monogamy", 2.0, 2.0), ALPHAS)
        # a tolerance that fails the smallest 5% of margins, spread over all
        # blocks, so that the failure descriptors are compared as well
        tol = -float(np.quantile(reference_margins(n, 3, n_qubits), 0.05))
        got = verify_monogamy_states(n, seed=3, n_qubits=n_qubits, tol=tol)
        want = reference_monogamy(n, seed=3, n_qubits=n_qubits, tol=tol)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)
        assert max(i for (i, _), _ in got.failure_samples) >= STATE_BLOCK

    @pytest.mark.parametrize("s,beta_grid", [
        (None, None), (0.3, None), (0.7, None), (1.0, [0.5, 1.0, 2.0]),
    ])
    def test_polygamy_matches_per_state_loop(self, s, beta_grid):
        n = 2 * STATE_BLOCK + 40
        want, margins, evaluated = reference_polygamy(n, seed=9, s=s, beta_grid=beta_grid,
                                                      tol=1e-8)
        got = verify_polygamy_states(n, seed=9, s=s, beta_grid=beta_grid)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)
        for mv, spec, rep in evaluated:
            assert_near_parent([rep], mv, spec, [spec.target_exp])
        if s is None:
            assert got.skipped > 0
        # fail the smallest 5% of margins to compare the failure descriptors
        tol = -float(np.quantile(margins, 0.05))
        want, _, _ = reference_polygamy(n, seed=9, s=s, beta_grid=beta_grid, tol=tol)
        got = verify_polygamy_states(n, seed=9, s=s, beta_grid=beta_grid, tol=tol)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)
        assert max(k for (k, _, _), _ in got.failure_samples) >= STATE_BLOCK

    def test_fixed_s_pre_check_implies_bound_check(self):
        """With a fixed s, a resolves to at most max_admissible_a, which the
        ratio condition accepts within its rtol, whether ``margin_rows``
        resolves it or is given it: the per-beta skip of the per-state loop
        never fires."""
        rng = np.random.default_rng(11)
        for _ in range(2000):
            v = np.sort(rng.random(rng.integers(2, 6)) ** rng.integers(1, 4))[::-1]
            v[rng.random(v.size) < 0.1] = v[0]  # ties, where a = max_admissible_a = 1
            for s in (0.1, 0.6, 1.0):
                if not parent_ratio_condition(v, 1.0, s):
                    continue
                a = min(max(1.0, max_admissible_a(v, s)), A_CAP)
                assert ratio_mask(v, a, s) and ratio_mask(v, None, s)

    @pytest.mark.parametrize("n_qubits", [3, 4, 5, 6])
    def test_monogamy_does_not_depend_on_block_size(self, monkeypatch, n_qubits):
        # every margin fails and every failure is kept, so the descriptors of
        # all blocks are compared
        monkeypatch.setattr(verify, "MAX_FAILURE_SAMPLES", 10**4)
        reports = []
        for block in (1, 7, 64):
            monkeypatch.setattr(verify, "STATE_BLOCK", block)
            rep = verify_monogamy_states(150, seed=8, n_qubits=n_qubits, tol=-math.inf)
            reports.append(dataclasses.asdict(rep))
        assert reports[0]["failures"] == len(reports[0]["failure_samples"]) == 150 * 8
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("s,beta_grid", [
        (None, None), (0.7, None), (None, [0.3, 0.7, 1.0, 2.5]),
    ])
    def test_polygamy_does_not_depend_on_block_size(self, monkeypatch, s, beta_grid):
        monkeypatch.setattr(verify, "MAX_FAILURE_SAMPLES", 10**4)
        reports = []
        for block in (1, 7, 64):
            monkeypatch.setattr(verify, "STATE_BLOCK", block)
            rep = verify_polygamy_states(150, seed=8, s=s, beta_grid=beta_grid, tol=-math.inf)
            reports.append(dataclasses.asdict(rep))
        assert 0 < reports[0]["failures"] == len(reports[0]["failure_samples"])
        assert reports[0] == reports[1] == reports[2]

    def test_polygamy_groups_samples_by_s_and_a(self, monkeypatch):
        """Pairwise ratios just below 2 pass the ratio check at a = 2^s with
        s just below 1, so that one block holds several (s, a) groups."""
        real = verify.measure_vectors

        def near_two(amps, dims, kind):
            first, pairwise = real(amps, dims, kind)
            for i in range(len(first)):
                k = next(count)  # the sample index
                if k % 3 == 0:
                    hi = pairwise[i].max()
                    ratio = 2.0 * (1.0 - (k % 4) * 2e-14)
                    pairwise[i] = (hi / ratio, hi)
            return first, pairwise

        monkeypatch.setattr(verify, "measure_vectors", near_two)
        monkeypatch.setattr(verify, "MAX_FAILURE_SAMPLES", 10**4)
        reports = []
        for block in (1, 64):
            count = itertools.count()
            monkeypatch.setattr(verify, "STATE_BLOCK", block)
            rep = verify_polygamy_states(100, seed=2, tol=-math.inf)
            reports.append(dataclasses.asdict(rep))
        assert reports[0] == reports[1]
        assert len({s for (_, s, _), _ in reports[1]["failure_samples"]}) >= 4

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_suites_make_one_kernel_call_per_block(self, monkeypatch, block):
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("_grid", "max_admissible_a", "monogamy_bound", "polygamy_bound"):
            monkeypatch.setattr(bounds, name, counted(name, getattr(bounds, name)))
        monkeypatch.setattr(verify, "STATE_BLOCK", block)
        for s, beta_grid in ((None, None), (0.7, None), (None, [0.3, 0.7, 1.0, 2.5])):
            calls.clear()
            rep = verify_polygamy_states(150, seed=8, s=s, beta_grid=beta_grid)
            assert rep.total > 0 and (rep.skipped > 0) == (s is None)
            assert calls == {"_grid": -(-150 // block)}
        for n_qubits in (3, 6):
            calls.clear()
            assert verify_monogamy_states(150, seed=8, n_qubits=n_qubits).total == 150 * 8
            assert calls == {"_grid": -(-150 // block)}

    @pytest.mark.parametrize("n_qubits", [3, 4, 5, 6])
    def test_monogamy_ratio_mask_is_all_true(self, monkeypatch, n_qubits):
        """The monogamy suite resolves a = max(1, max_admissible_a), capped at
        A_CAP, so ``margin_rows`` passes the ratio condition on every row: the
        suite ignores the mask, and no row it records fails the condition."""
        masks = []
        real = bounds.margin_rows

        def recording(*args, **kwargs):
            margins, ok = real(*args, **kwargs)
            masks.append(ok)
            return margins, ok

        monkeypatch.setattr(bounds, "margin_rows", recording)
        n = 2 * STATE_BLOCK + 5
        for seed in (0, 3, 4242):
            masks.clear()
            assert verify_monogamy_states(n, seed=seed, n_qubits=n_qubits).total == 8 * n
            assert len(masks) == 3 and sum(map(len, masks)) == n
            assert all(ok.all() for ok in masks)

    @pytest.mark.parametrize("suite", [verify_monogamy_states, verify_polygamy_states])
    def test_zero_samples(self, suite):
        rep = suite(0)
        assert rep.total == 0 and rep.skipped == 0
        assert rep.summary()["worst_margin"] is None
