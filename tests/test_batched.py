"""Stacked and per-state paths agree bit for bit.

The stacked linear algebra, ``measure_vectors``, ``bound_grid``,
``margin_grid``, the block Haar draw and the blocked state suites must give
exactly what the per-matrix, per-state and per-exponent paths give, so every
comparison between them uses ``==``.  In the bound kernel every power goes
through ``bounds._power``, which gives each element the bits of NumPy's pow
loop on that element alone, so that a one-state, one-target call and a block
get the same bits.  The exceptions are the references, compared within the
bounds stated below: measures are taken from Gram matrices and factors of
the amplitudes, and are compared with the partial traces of |psi><psi| and
the square-root form of the spin-flip spectrum; bounds are compared with the
parent's arithmetic, which took Python-float and per-exponent pows.
"""

import collections
import dataclasses
import itertools
import math
import types

import numpy as np
import pytest

from monogamy import bounds, linalg, measures, states, verify
from monogamy.bounds import (
    A_CAP,
    BoundSpec,
    bound_grid,
    margin_grid,
    margin_rows,
    max_admissible_a,
    monogamy_bound,
    polygamy_bound,
    ratio_condition,
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
    haar_random_amps,
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
# The one-vs-rest reduction is a Gram matrix: both paths sum the same
# 2**(n-1) amplitude products into each entry, in different orders, and the
# entries differ by at most 5.6e-16 (3 to 6 qubits, 184 states).  A measure is
# a smooth function of those entries except where it takes the square root of
# a small quantity y (1 - purity, an eigenvalue of rho_0); there the slope
# 1/(2 sqrt(y)) amplifies an entry change.
EPS = np.finfo(float).eps
# One-vs-rest: on these states sqrt(y) is exactly 0 or at least 0.01, so the
# slope stays below 50; observed <= 4.7e-15 here and <= 2.8e-14 over 720
# states per qubit count.
ONE_VS_REST_ATOL = 5e-14
# Pairwise: each value is a sum of spin-flip roots mu = sqrt(ev).  The
# library takes ev as the eigenvalues of K K^dagger, K = t^T YY t for the
# gathered amplitude matrix t (its 4 x 4 QR factor at 5 and 6 qubits); the
# reference takes them from sqrt(rho) rho~ sqrt(rho) of the partial trace
# rho = t t^dagger.  Each is a Hermitian eigenvalue problem solved to a few
# eps ev_max, so the two ev differ by some d of that order, and d moves mu by
# about d / (2 mu).  At 3 qubits, and for the W class, the pair reductions
# have rank 2 and their structurally zero roots are exactly 0 in both paths:
# clipped, or at 3 qubits never computed by the library (K is 2 x 2, padded
# with zeros); observed <= 7.9e-15 at 3 qubits.  At 5 and 6 qubits the
# reductions are near maximally mixed and all roots are large (observed
# <= 3.7e-15).  At 4 qubits a Haar state's pair reduction has full rank and
# its smallest root can be ~4e-6 (observed differences up to 9.9e-13).
# Observations are over about 780 states per qubit count, all four kinds.
# The relative clip keeps only ev >= 1e-13 ev_max, with ev_max <= 1, so a
# kept root moves by at most d / (2 sqrt(1e-13 ev_max)), 3.5e-10 for
# d = eps ev_max; the 4-qubit bound allows about three such steps.  A root
# that crossed the clip would jump by up to sqrt(1e-13) = 3.2e-7; no state
# here is at the clip.
PAIR_ATOL = {3: 5e-14, 4: 1e-9, 5: 5e-14, 6: 5e-14}
YY = np.kron([[0.0, -1.0j], [1.0j, 0.0]], [[0.0, -1.0j], [1.0j, 0.0]])


def reference_pair_value(rho, kind):
    """``kind`` on a two-qubit density matrix from the eigenvalues of
    sqrt(rho) rho~ sqrt(rho), with rho~ = YY rho* YY: the spin-flip route the
    library took before it worked from a factor of rho."""
    w, v = np.linalg.eigh(rho)
    s = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    ev = np.clip(np.linalg.eigvalsh(s @ YY @ rho.conj() @ YY @ s), 0.0, None)
    ev[ev < 1e-13 * ev.max()] = 0.0
    mu = np.sort(np.sqrt(ev))[::-1]
    if kind in (MeasureKind.CONCURRENCE, MeasureKind.NEGATIVITY_SCREN):
        value = max(0.0, float(mu[0] - mu[1] - mu[2] - mu[3]))
    else:
        value = float(np.sum(mu))
    return value**2 if kind in (MeasureKind.NEGATIVITY_SCREN, MeasureKind.SCRENOA) else value


def reference_vector(row, n_qubits, kind):
    """(one-vs-rest, pairwise) of ``kind`` from partial traces of |psi><psi|,
    the density-matrix path that ``measure_vectors`` replaced."""
    rho = to_density(PureState((2,) * n_qubits, row))
    rho_0 = reduce_density(rho, [0]).mat
    if kind in (MeasureKind.CONCURRENCE, MeasureKind.CONCURRENCE_ASSISTANCE):
        first = math.sqrt(max(0.0, 2.0 * (1.0 - float(np.trace(rho_0 @ rho_0).real))))
    else:
        lam = np.clip(np.linalg.eigvalsh(rho_0), 0.0, None)
        first = max(0.0, float(np.sum(np.sqrt(lam))) ** 2 - 1.0) ** 2
    return first, [reference_pair_value(reduce_density(rho, [0, i]).mat, kind)
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
    rows = [haar_random_amps(2**n_qubits, rng) for _ in range(n_haar)]
    rows += [product_amps(n_qubits), w_amps(np.ones(n_qubits))]
    rows += [w_amps(np.abs(rng.standard_normal(n_qubits))) for _ in range(n_w)]
    return np.stack(rows)


def random_density(d, rng, rank=None):
    rank = d if rank is None else rank
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestStackedLinalg:
    @pytest.mark.parametrize("dims,keep", [
        ((2, 2, 2), [0]), ((2, 2, 2), [0, 2]), ((2, 3, 2), [1]),
        ((2,) * 6, [0, 4]), ((2,) * 5, [0, 1, 3]),
    ])
    def test_partial_trace_matches_each_matrix(self, dims, keep):
        rng = np.random.default_rng(1)
        d = int(np.prod(dims))
        stack = np.stack([random_density(d, rng, rank=r) for r in (1, 2, d, 1)])
        got = linalg.partial_trace(stack, dims, keep)
        for k, rho in enumerate(stack):
            want = linalg.partial_trace(rho, dims, keep)
            assert got[k].shape == want.shape
            assert np.array_equal(got[k], want)

    def test_partial_trace_nested_batch(self):
        rng = np.random.default_rng(2)
        stack = np.stack([random_density(8, rng) for _ in range(6)]).reshape(2, 3, 8, 8)
        got = linalg.partial_trace(stack, (2, 2, 2), [0, 1])
        assert got.shape == (2, 3, 4, 4)
        assert np.array_equal(got[1, 2], linalg.partial_trace(stack[1, 2], (2, 2, 2), [0, 1]))

    def test_hermitian_eigen_and_psd_sqrt_match_each_matrix(self):
        rng = np.random.default_rng(3)
        stack = np.stack([random_density(4, rng, rank=r) for r in (1, 2, 3, 4, 4)])
        w, v = linalg.hermitian_eigen(stack)
        s = linalg.psd_sqrt(stack)
        for k, m in enumerate(stack):
            wk, vk = linalg.hermitian_eigen(m)
            assert np.array_equal(w[k], wk) and np.array_equal(v[k], vk)
            assert np.array_equal(s[k], linalg.psd_sqrt(m))

    @pytest.mark.parametrize("fn", [linalg.hermitian_eigen, linalg.psd_sqrt])
    def test_one_non_hermitian_matrix_fails_the_stack(self, fn):
        rng = np.random.default_rng(4)
        stack = np.stack([random_density(4, rng) for _ in range(5)])
        stack[3, 0, 1] += 1e-6
        alone = outcome(lambda: fn(stack[3]))
        assert alone[0] == "ValueError" and "Hermitian" in alone[1]
        assert outcome(lambda: fn(stack)) == alone

    def test_one_non_psd_matrix_fails_the_stack(self):
        rng = np.random.default_rng(5)
        stack = np.stack([random_density(4, rng) for _ in range(5)])
        stack[2] = np.diag([0.6, 0.5, 0.1, -0.2])
        alone = outcome(lambda: linalg.psd_sqrt(stack[2]))
        assert alone[0] == "ValueError" and "PSD" in alone[1]
        assert outcome(lambda: linalg.psd_sqrt(stack)) == alone

    @pytest.mark.parametrize("fn", [
        linalg.hermitian_eigen, linalg.psd_sqrt,
        lambda m: linalg.partial_trace(m, (2, 2), [0]),
    ])
    def test_one_non_finite_matrix_fails_the_stack(self, fn):
        rng = np.random.default_rng(6)
        stack = np.stack([random_density(4, rng) for _ in range(3)])
        stack[1, 2, 2] = np.nan
        alone = outcome(lambda: fn(stack[1]))
        assert alone[0] == "ValueError" and "NaN" in alone[1]
        assert outcome(lambda: fn(stack)) == alone

    def test_vectors_are_not_matrices(self):
        for fn in (linalg.hermitian_eigen, linalg.psd_sqrt):
            with pytest.raises(ValueError, match="stack of matrices"):
                fn(np.ones(4))


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
            assert_within(mv.pairwise, pairwise, PAIR_ATOL[n_qubits])
            if kind in (MeasureKind.CONCURRENCE, MeasureKind.CONCURRENCE_ASSISTANCE):
                assert mv.one_vs_rest == concurrence_pure(psi, [0])
            else:
                assert mv.one_vs_rest == scren_pure(psi, [0])

    def test_one_vs_rest_clipping(self):
        """Product states hit the clip of 2 (1 - purity) at zero.

        Here y = 2 (1 - purity) is round-off, and |sqrt(y) - sqrt(y')| <=
        sqrt(|y - y'|): the Gram and reference values of y differ by at most
        8 eps (observed), so the values differ by at most sqrt(16 eps) = 6e-8
        (observed 3.0e-8)."""
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


class TestSpinFlipRoots:
    @pytest.mark.parametrize("n_qubits", [5, 6])
    def test_qr_factor_matches_other_routes(self, n_qubits):
        """The gathered pair factor t is 4 x 8 or 4 x 16 here, so the kernel
        first reduces it to a 4 x 4 QR factor.  Its roots match the kernel on
        the factor sqrt(t t^dagger) and the singular values of K = t^T YY t
        from a full SVD, within PAIR_ATOL: the roots are large at these
        qubit counts, and those that are structurally zero come out as exact
        zeros or at the SVD's round-off.  The two-qubit functions on t t^dagger
        give the values of ``measure_vectors`` within the same bound."""
        amps = state_stack(n_qubits, seed=70 + n_qubits, n_haar=40)
        t = amps[:, measures._pair_index(n_qubits)]
        qr_route = measures._spin_flip_roots(t)
        sqrt_route = measures._spin_flip_roots(linalg.psd_sqrt(t @ t.conj().mT))
        svd_route = np.linalg.svd(t.mT @ YY @ t, compute_uv=False)[..., :4]
        assert qr_route.shape == sqrt_route.shape == svd_route.shape == t.shape[:2] + (4,)
        assert_within(qr_route, svd_route, PAIR_ATOL[n_qubits])
        assert_within(sqrt_route, svd_route, PAIR_ATOL[n_qubits])
        for kind in KINDS:
            mvs = mv_list(amps, (2,) * n_qubits, kind)
            for pair_factors, mv in zip(t, mvs):
                want = [PAIR_FN[kind](DensityMatrix((2, 2), f @ f.conj().T))
                        for f in pair_factors]
                assert_within(mv.pairwise, want, PAIR_ATOL[n_qubits])


class TestDensityMatrixReference:
    """The Gram path against partial traces of |psi><psi|, within the
    absolute bounds stated at the top of this module."""

    @pytest.mark.parametrize("n_qubits", [3, 4, 5, 6])
    @pytest.mark.parametrize("kind", KINDS)
    def test_measure_vectors(self, n_qubits, kind):
        amps = state_stack(n_qubits, seed=50 + n_qubits, n_haar=40)
        for row, mv in zip(amps, mv_list(amps, (2,) * n_qubits, kind)):
            first, pairwise = reference_vector(row, n_qubits, kind)
            assert_within(mv.one_vs_rest, first, ONE_VS_REST_ATOL)
            assert_within(mv.pairwise, pairwise, PAIR_ATOL[n_qubits])

    @pytest.mark.parametrize("dims,part", [
        ((2, 2, 2, 2), [1]), ((2, 2, 2, 2), [3, 1]), ((2, 2, 2, 2, 2), [0, 2, 4]),
        ((2,) * 6, [1, 2, 5]),
        ((2, 3, 2), [1]), ((2, 3, 2, 2), [2, 0]), ((2, 3, 2), [2, 0]), ((3, 2), [0]),
    ])
    def test_pure_state_bipartitions(self, dims, part):
        """Any bipartition of any dims: the part's axes lead the Gram matrix.

        Negativity is compared with the reference on the smaller side.  A
        larger reduction has zero eigenvalues, and the square root turns their
        round-off into noise of order sqrt(eps) = 1.5e-8; the library reduces
        onto the smaller side too, so a part and its complement give the same
        bits."""
        rng = np.random.default_rng(len(dims) + sum(part))
        rest = [i for i in range(len(dims)) if i not in part]
        smaller = part if math.prod(dims[i] for i in part) ** 2 <= math.prod(dims) else rest
        for row in haar_random_block(20, math.prod(dims), rng):
            psi = PureState(dims, row)
            rho_a = reduce_density(to_density(psi), part).mat
            purity = float(np.trace(rho_a @ rho_a).real)
            assert_within(concurrence_pure(psi, part),
                          math.sqrt(max(0.0, 2.0 * (1.0 - purity))), ONE_VS_REST_ATOL)
            lam = np.linalg.eigvalsh(reduce_density(to_density(psi), smaller).mat)
            assert_within(negativity_pure(psi, part),
                          max(0.0, float(np.sum(np.sqrt(np.clip(lam, 0.0, None)))) ** 2 - 1.0),
                          ONE_VS_REST_ATOL)
            assert negativity_pure(psi, part) == negativity_pure(psi, rest)
            assert concurrence_pure(psi, part) == concurrence_pure(psi, rest)


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
            rows = np.stack([haar_random_amps(d, row_rng) for _ in range(k)])
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
    """The loop ``bound_grid`` replaces: one spec and one call per target."""
    fn = monogamy_bound if spec.mode == "monogamy" else polygamy_bound
    return [fn(mv, dataclasses.replace(spec, target_exp=t), strict=strict)
            for t in targets]


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


def assert_grid_matches_loop(mv, spec, targets, strict):
    """``bound_grid`` equals the single-target loop bit for bit (errors
    included), and is within PARENT_RTOL of the parent's arithmetic."""
    grid = outcome(lambda: bound_grid(mv, spec, targets, strict=strict))
    assert grid == outcome(lambda: single_target_loop(mv, spec, targets, strict))
    if isinstance(grid, list):
        assert_near_parent(grid, mv, spec, targets)
    return grid


class TestBoundGrid:
    @pytest.mark.parametrize("strict", [False, True])
    def test_monogamy_grid_matches_per_spec(self, strict):
        alphas = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0]
        for mv in mvs_for_bounds():
            for a in (None, 1.0, 2.5):
                for variant in ("ours", "jfq", "zjz2"):
                    spec = BoundSpec("monogamy", 2, 1.0, a=a, variant=variant)
                    assert_grid_matches_loop(mv, spec, alphas, strict)

    def test_zjz_grid_within_domain(self):
        for mv in mvs_for_bounds():
            if len(mv.pairwise) != 2:
                continue
            spec = BoundSpec("monogamy", 2, 1.0, variant="zjz1", p=0.75)
            grid = assert_grid_matches_loop(mv, spec, [0.25, 0.5, 1.0], strict=False)
            assert len(grid) == 3

    def test_polygamy_grid_matches_per_spec(self):
        for mv in mvs_for_bounds():
            for s in (0.5, 1.0):
                betas = list(np.linspace(s, 3.0, 6))
                for a in (None, 1.2):
                    spec = BoundSpec("polygamy", s, s, a=a)
                    assert_grid_matches_loop(mv, spec, betas, strict=False)

    def test_product_state_takes_a_cap(self):
        mv = mv_list(product_amps(5)[None], (2,) * 5, "concurrence")[0]
        reports = bound_grid(mv, BoundSpec("monogamy", 2.0, 2.0), [0.5, 1.0])
        assert all(r.a == A_CAP and r.max_admissible_a == np.inf for r in reports)

    @pytest.mark.parametrize("spec,targets,seen", [
        (BoundSpec("monogamy", 2.0, 1.0), [2.0, 2.5], "target exponent"),
        (BoundSpec("polygamy", 0.5, 0.5), [0.5, 0.4], "target exponent"),
        # the ratio check fails before the bad second target is reached ...
        (BoundSpec("monogamy", 2.0, 1.0, a=1e6), [1.0, 2.5], "ratio condition fails"),
        # ... but after a bad first one
        (BoundSpec("monogamy", 2.0, 1.0, a=1e6), [2.5, 1.0], "target exponent"),
        # zjz's alpha/r <= 1/2 is per target, tripartite-only per state
        (BoundSpec("monogamy", 2.0, 0.5, variant="zjz2"), [0.5, 1.5], "alpha/r <= 1/2"),
        (BoundSpec("monogamy", 2.0, 0.5, variant="jfq"), [0.5, 1.5], "tripartite"),
        # a bad value, and a NaN, late in the shared target list
        (BoundSpec("monogamy", 2.0, 1.0), [0.5, 1.0, -0.5], "must be in [0, 2.0], got -0.5"),
        (BoundSpec("monogamy", 2.0, 1.0), [0.5, math.nan], "must be in [0, 2.0], got nan"),
        (BoundSpec("polygamy", 0.5, 0.5), [0.5, 2.0, 0.25], "must be >= 0.5, got 0.25"),
        # with a given, max_admissible_a is reported and named in the error
        (BoundSpec("polygamy", 0.5, 0.5, a=1e6), [0.5, 2.0], "max admissible"),
    ])
    def test_errors_match_the_first_failing_single_target_call(self, spec, targets, seen):
        grids = [assert_grid_matches_loop(mv, spec, targets, strict=True)
                 for mv in mvs_for_bounds()[::4]]
        assert any(g[0] == "ValueError" and seen in g[1] for g in grids)

    def test_empty_grid(self):
        mv = mvs_for_bounds()[0]
        assert bound_grid(mv, BoundSpec("monogamy", 2.0, 1.0, a=1e6), []) == []

    def test_per_target_arithmetic(self):
        """Each report is within PARENT_RTOL of the parent's arithmetic on its
        target alone: Python floats for two pairwise values, NumPy's pow one
        exponent at a time for more."""
        alphas = [float(t) for t in default_alpha_grid()]
        spec = BoundSpec("monogamy", 2.0, 2.0)
        for mv in mvs_for_bounds():
            assert_near_parent(bound_grid(mv, spec, alphas, strict=False), mv, spec, alphas)


def bound_grid_loop(mvs, spec, targets):
    """The loop ``margin_grid`` replaces: one ``bound_grid`` call per state."""
    return [[rep.margin for rep in bound_grid(mv, spec, targets)] for mv in mvs]


def assert_margins_match_loop(mvs, spec, targets):
    got = outcome(lambda: margin_grid([mv.one_vs_rest for mv in mvs],
                                      [mv.pairwise for mv in mvs], spec, targets).tolist())
    assert got == outcome(lambda: bound_grid_loop(mvs, spec, targets))
    return got


def admissible(mvs, spec):
    """The measure vectors whose ratio condition holds at ``spec.a``."""
    return [mv for mv in mvs
            if spec.a is None or ratio_condition(mv.pairwise, spec.a, spec.base_exp)]


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
    """ratio_condition as it was: NumPy scalars over a sorted array."""
    v = np.sort(np.asarray(values, dtype=float))[::-1]
    for hi, lo in zip(v[:-1], v[1:]):
        if lo == 0:
            continue
        if hi**float(exponent) < float(a) * lo**float(exponent) * (1.0 - rtol):
            return False
    return True


class TestMarginGrid:
    @pytest.mark.parametrize("n_qubits", [3, 4, 5, 6])
    def test_rows_match_bound_grid(self, n_qubits):
        amps = state_stack(n_qubits, seed=50 + n_qubits)
        alphas = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0]
        kept = 0
        for kind in KINDS:
            mvs = mv_list(amps, (2,) * n_qubits, kind)
            for a in (None, 1.0, 1.3):
                for r in (2.0, 3.0):
                    spec = BoundSpec("monogamy", r, r, a=a)
                    rows = admissible(mvs, spec)
                    got = assert_margins_match_loop(rows, spec, alphas + [r])
                    assert len(got) == len(rows) and all(len(g) == 7 for g in got)
                    kept += len(rows) if a == 1.3 else 0
                for s in (0.3, 0.5, 1.0):
                    spec = BoundSpec("polygamy", s, s, a=a)
                    assert_margins_match_loop(admissible(mvs, spec), spec,
                                              list(np.linspace(s, 3.0, 5)))
        assert kept

    def test_tripartite_variants(self):
        mvs = mv_list(state_stack(3, seed=60), (2, 2, 2), "concurrence")
        for variant, p in (("jfq", 0.5), ("zjz1", 0.75), ("zjz2", 0.5)):
            for a in (None, 1.2):
                spec = BoundSpec("monogamy", 2.0, 1.0, a=a, variant=variant, p=p)
                assert admissible(mvs, spec)
                assert_margins_match_loop(admissible(mvs, spec), spec, [0.0, 0.5, 1.0])
                spec = BoundSpec("polygamy", 0.6, 0.6, a=a, variant=variant, p=p)
                assert_margins_match_loop(admissible(mvs, spec), spec, [0.6, 1.5, 3.0])

    def test_product_state_row(self):
        first, pairwise = measure_vectors(product_amps(4)[None], (2,) * 4, "concurrence")
        reports = bound_grid(measure_vector(PureState((2,) * 4, product_amps(4)), "concurrence"),
                             BoundSpec("monogamy", 2.0, 2.0), [0.0, 1.0])
        assert all(r.a == A_CAP and r.max_admissible_a == math.inf for r in reports)
        got = margin_grid(first, pairwise, BoundSpec("monogamy", 2.0, 2.0), [0.0, 1.0])
        assert got.tolist() == [[r.margin for r in reports]]

    def test_empty_inputs(self):
        first, pairwise = measure_vectors(state_stack(3, seed=61, n_haar=2), (2, 2, 2),
                                          "concurrence")
        spec = BoundSpec("monogamy", 2.0, 2.0)
        assert margin_grid(first, pairwise, spec, []).shape == (len(first), 0)
        assert margin_grid([], [], spec, [1.0, 2.5]).shape == (0, 2)
        with pytest.raises(ValueError, match="pairwise must be"):
            margin_grid(first, pairwise[:-1], spec, [1.0])

    @pytest.mark.parametrize("spec,pairwise,targets,seen", [
        # a bad target is checked before any state
        (BoundSpec("monogamy", 2.0, 1.0), [(0.5, 0.1), (math.nan, 0.1)], [2.5, 1.0],
         "target exponent"),
        # a strict ratio failure in the second state
        (BoundSpec("monogamy", 2.0, 1.0, a=1.5), [(0.5, 0.1), (0.5, 0.49)], [1.0, 2.0],
         "ratio condition fails"),
        # ... comes after the targets' own checks, which follow the first state
        (BoundSpec("monogamy", 2.0, 1.0, a=1.5), [(0.5, 0.1), (0.5, 0.49)], [1.0, 2.5],
         "target exponent"),
        (BoundSpec("monogamy", 2.0, 1.0, a=1.5), [(0.5, 0.49), (0.5, 0.1)], [1.0, 2.5],
         "ratio condition fails"),
        # NaN and negative values, after or before a ratio failure
        (BoundSpec("monogamy", 2.0, 1.0), [(0.5, 0.1, 0.0), (0.4, math.nan, 0.1)], [1.0],
         "finite and nonnegative"),
        (BoundSpec("monogamy", 2.0, 1.0, a=3.0), [(0.5, 0.1), (0.5, 0.4), (0.2, -0.1)],
         [1.0], "ratio condition fails"),
        (BoundSpec("polygamy", 0.5, 0.5), [(0.2, -0.1), (0.5, 0.4)], [1.0],
         "finite and nonnegative"),
        (BoundSpec("monogamy", 2.0, 0.5, variant="jfq"), [(0.5, 0.1, 0.05)], [0.5],
         "tripartite"),
    ])
    def test_errors_match_a_bound_grid_loop(self, spec, pairwise, targets, seen):
        mvs = [unchecked_mv(0.9, pw) for pw in pairwise]
        got = assert_margins_match_loop(mvs, spec, targets)
        assert got[0] == "ValueError" and seen in got[1]

    def test_ratio_helpers_on_unsorted_values(self):
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
                    got_ok = ratio_condition(tuple(v), a, e)
                    assert got_ok is parent_ratio_condition(v, a, e)
        # an overflowing ratio power is inf, as NumPy's scalar pow gives it
        with np.errstate(over="ignore"):
            for v, e in (([1e-17, 1.0], 40.0), ([1e200, 1e100], 2.0)):
                assert_close_rel(max_admissible_a(v, e), parent_max_admissible_a(v, e), AMAX_RTOL)
                assert ratio_condition(v, 1.5, e) is parent_ratio_condition(v, 1.5, e)


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
    """The calls ``margin_rows`` replaces: one ``ratio_condition`` call per
    row, at a resolved as max(1, max_admissible_a), capped at A_CAP, where a
    is None, and one ``margin_grid`` call per (s, a, targets) group of the
    rows that pass it.  Returns the margins (NaN on failing rows), the mask
    and the a of each row."""
    resolved = [min(max(1.0, max_admissible_a(row, s)), A_CAP) if a is None else a
                for row, s, a in zip(pairwise, s_rows, a_rows)]
    ok = np.array([ratio_condition(row, a, s) for row, a, s in zip(pairwise, resolved, s_rows)],
                  dtype=bool)
    groups = {}
    for i in np.flatnonzero(ok).tolist():
        groups.setdefault((s_rows[i], a_rows[i], tuple(targets[i].tolist())), []).append(i)
    margins = np.full(targets.shape, math.nan)
    for (s, a, betas), members in groups.items():
        spec = BoundSpec("polygamy", s, s, a=a)
        margins[members] = margin_grid(first[members], pairwise[members], spec, list(betas))
    return margins, ok, np.array(resolved)


def row_loop(first, pairwise, spec, targets, s_rows, a_rows):
    """One non-strict ``bound_grid`` call per row, at the row's own s, a and
    targets: the loop whose values and errors ``margin_rows`` has."""
    reports = [bound_grid(unchecked_mv(f, pw),
                          dataclasses.replace(spec, base_exp=s, target_exp=s, a=a), t, strict=False)
               for f, pw, t, s, a in zip(first, pairwise, targets, s_rows, a_rows)]
    return ([[r.margin for r in reps] for reps in reports],
            [reps[0].ratio_condition_ok for reps in reports])


def assert_rows_match(first, pairwise, targets, s_rows, a_rows, **kwargs):
    """``margin_rows`` equals the grouped calls on the rows that pass, and
    the per-row loop on every row, bit for bit."""
    spec = BoundSpec("polygamy", 1.0, 1.0)
    got, ok = margin_rows(first, pairwise, spec, targets, **kwargs)
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
            again, again_ok = margin_rows(first, pairwise, spec, [0.6, 1.0, 2.5], **kwargs)
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
        spec = BoundSpec("polygamy", 1.0, 1.0)
        got, ok = margin_rows([], np.empty((0, 2)), spec, np.empty((0, 8)), base_exp=[], a=[])
        assert got.shape == (0, 8) and ok.shape == (0,)
        got, ok = margin_rows([0.5], [[0.3, 0.1]], spec, [], base_exp=[0.5])
        assert got.shape == (1, 0) and ok.shape == (1,)

    @pytest.mark.parametrize("spec,pairwise,targets,s_rows,a_rows,seen", [
        # s out of range in row 1 comes before row 2's bad target
        (BoundSpec("polygamy", 1.0, 1.0), [(0.5, 0.1)] * 3, [[1.0, 2.0]] * 2 + [[0.1, 2.0]],
         [0.5, 1.5, 0.5], [2.0] * 3, "polygamy base exponent"),
        (BoundSpec("polygamy", 1.0, 1.0), [(0.5, 0.1)] * 2, [[1.0, 2.0], [1.5, 2.0]],
         [0.5, 1.5], [2.0] * 2, "polygamy base exponent must be in (0, 1], got 1.5"),
        (BoundSpec("polygamy", 1.0, 1.0), [(0.5, 0.1)] * 2, [[1.0, 2.0]] * 2,
         [0.5, 0.5], [2.0, 0.5], "ratio parameter a must be >= 1, got 0.5"),
        # a target below its own row's s, though above the other rows' s
        (BoundSpec("polygamy", 1.0, 1.0), [(0.5, 0.1)] * 2, [[0.3, 2.0], [0.5, 0.3]],
         [0.3, 0.6], [None] * 2, "polygamy target exponent must be >= 0.6"),
        # in one row s comes before a, a before the first target, which comes
        # before the values, which come before the other targets
        (BoundSpec("polygamy", 1.0, 1.0), [(0.5, 0.1), (0.5, 0.1)], [[1.0, 2.0], [0.1, 2.0]],
         [0.5, 0.5], [2.0, 0.5], "ratio parameter a must be >= 1"),
        (BoundSpec("polygamy", 1.0, 1.0), [(0.5, 0.1), (0.5, math.nan)], [[1.0, 2.0], [0.1, 2.0]],
         [0.5, 0.5], [2.0, 2.0], "polygamy target exponent"),
        (BoundSpec("polygamy", 1.0, 1.0), [(0.5, 0.1), (0.5, math.nan)], [[1.0, 2.0], [1.0, 0.1]],
         [0.5, 0.5], [2.0, 2.0], "finite and nonnegative"),
        (BoundSpec("monogamy", 2.0, 2.0), [(0.5, 0.1)] * 3, [[1.0]] * 3, [2.0, 1.5, 3.0],
         [None] * 3, "monogamy base exponent"),
        (BoundSpec("monogamy", 2.0, 2.0), [(0.5, 0.1)] * 2, [[1.0, 2.5], [1.0, 2.5]], [3.0, 2.0],
         [1.0, 1.0], "monogamy target exponent must be in [0, 2.0]"),
        # alpha/r <= 1/2 at each row's own r
        (BoundSpec("monogamy", 2.0, 2.0, variant="zjz2"), [(0.5, 0.1)] * 2, [[1.2], [1.2]],
         [3.0, 2.0], [None] * 2, "requires alpha/r <= 1/2, got 0.6"),
        (BoundSpec("monogamy", 2.0, 2.0, variant="jfq"), [(0.5, 0.1, 0.05)], [[1.0]], [2.0],
         [None], "tripartite"),
        # a bad value, and a NaN, in a shared list of targets
        (BoundSpec("polygamy", 1.0, 1.0), [(0.5, 0.1)] * 2, [1.0, 2.0, 0.4], [0.5, 0.6],
         [2.0] * 2, "polygamy target exponent must be >= 0.5, got 0.4"),
        (BoundSpec("polygamy", 1.0, 1.0), [(0.5, 0.1)] * 2, [0.55, 2.0], [0.5, 0.6],
         [2.0] * 2, "polygamy target exponent must be >= 0.6, got 0.55"),
        (BoundSpec("monogamy", 2.0, 2.0), [(0.5, 0.1)] * 2, [1.0, math.nan], [2.0, 2.0],
         [None] * 2, "must be in [0, 2.0], got nan"),
        # a later row's s out of range, or its a below 1
        (BoundSpec("polygamy", 1.0, 1.0), [(0.5, 0.1)] * 4, [[1.0, 2.0]] * 4,
         [0.5, 0.7, 1.0, 0.0], [2.0] * 4, "polygamy base exponent must be in (0, 1], got 0.0"),
        (BoundSpec("monogamy", 2.0, 2.0), [(0.5, 0.1)] * 4, [[1.0, 2.0]] * 4, [2.0] * 4,
         [1.0, 1.5, 2.0, 0.999], "ratio parameter a must be >= 1, got 0.999"),
        # with an explicit a, max_admissible_a is never taken; a failing ratio
        # condition is no error, so a later row's NaN value is the first one
        (BoundSpec("polygamy", 1.0, 1.0), [(0.5, 0.45), (0.5, 0.1), (math.nan, 0.1)],
         [[1.0, 2.0]] * 3, [0.5, 0.5, 0.5], [1e6] * 3, "finite and nonnegative"),
        (BoundSpec("monogamy", 2.0, 2.0, a=1e6), [(0.5, 0.45), (0.5, -0.1)], [[1.0, 2.0]] * 2,
         [2.0, 2.0], [None] * 2, "finite and nonnegative"),
    ])
    def test_errors_match_the_first_failing_row_call(self, spec, pairwise, targets, s_rows,
                                                     a_rows, seen):
        first = [0.9] * len(pairwise)
        shared = not isinstance(targets[0], list)
        row_targets = [targets] * len(pairwise) if shared else targets
        want = outcome(lambda: row_loop(first, pairwise, spec, row_targets, s_rows, a_rows))
        assert want[0] == "ValueError" and seen in want[1]
        a = None if a_rows[0] is None else a_rows
        got = outcome(lambda: margin_rows(first, pairwise, spec, targets, base_exp=s_rows, a=a))
        assert got == want

    def test_explicit_a_matches_the_row_loop(self):
        """With a given, the kernel takes no max_admissible_a power, and its
        margins and mask are still those of the row loop, which reports it."""
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
            got, ok = margin_rows(first, pairwise, spec, [0.6, 1.5, 3.0], a=a_rows)
        assert not amax_calls and 0 < np.count_nonzero(ok) < n
        want = row_loop(first, pairwise, spec, [[0.6, 1.5, 3.0]] * n, [0.6] * n, a_rows)
        assert (got.tolist(), ok.tolist()) == want

    def test_failing_ratio_condition_is_not_an_error(self):
        spec = BoundSpec("polygamy", 0.5, 0.5, a=1.9)
        margins, ok = margin_rows([0.9, 0.9], [(0.5, 0.1), (0.5, 0.4)], spec, [0.5, 1.0])
        assert ok.tolist() == [True, False] and np.isfinite(margins).all()
        with pytest.raises(ValueError, match="ratio condition fails"):
            margin_grid([0.9, 0.9], [(0.5, 0.1), (0.5, 0.4)], spec, [0.5, 1.0])


ALPHAS = [float(alpha) for alpha in default_alpha_grid(2.0)]


def reference_states(n, seed, n_qubits):
    """The per-state loop's measure vectors, one Haar state at a time."""
    rng = np.random.default_rng(seed)
    dims = (2,) * n_qubits
    return [measure_vector(PureState(dims, haar_random_amps(2**n_qubits, rng)),
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
            report.skip()
            continue
        if s is None:
            log2_ratio = math.log2(v[0] / v[1])
            if log2_ratio < MIN_LOG2_RATIO:
                report.skip()
                continue
            s_k = min(1.0, log2_ratio)
            a_k = 2.0**s_k
        else:
            s_k, a_k = float(s), None
        if not ratio_condition(v, a_k if a_k is not None else 1.0, s_k):
            report.skip()
            continue
        grid = np.linspace(s_k, 3.0, 8) if beta_grid is None else beta_grid
        for beta in grid:
            if beta < s_k:
                continue
            spec = BoundSpec("polygamy", s_k, float(beta), a=a_k)
            rep = polygamy_bound(mv, spec, strict=False)
            if not rep.ratio_condition_ok:
                report.skip()
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
        ratio condition accepts within its rtol: the per-beta skip of the
        per-state loop never fires."""
        rng = np.random.default_rng(11)
        for _ in range(2000):
            v = np.sort(rng.random(rng.integers(2, 6)) ** rng.integers(1, 4))[::-1]
            v[rng.random(v.size) < 0.1] = v[0]  # ties, where a = max_admissible_a = 1
            for s in (0.1, 0.6, 1.0):
                if not ratio_condition(v, 1.0, s):
                    continue
                a = min(max(1.0, max_admissible_a(v, s)), A_CAP)
                assert ratio_condition(v, a, s)

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
    def test_polygamy_makes_one_kernel_call_per_block(self, monkeypatch, block):
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("_grid", "ratio_condition", "margin_grid", "max_admissible_a"):
            monkeypatch.setattr(bounds, name, counted(name, getattr(bounds, name)))
        monkeypatch.setattr(verify, "STATE_BLOCK", block)
        for s, beta_grid in ((None, None), (0.7, None), (None, [0.3, 0.7, 1.0, 2.5])):
            calls.clear()
            rep = verify_polygamy_states(150, seed=8, s=s, beta_grid=beta_grid)
            assert rep.total > 0 and (rep.skipped > 0) == (s is None)
            assert calls == {"_grid": -(-150 // block)}

    @pytest.mark.parametrize("suite", [verify_monogamy_states, verify_polygamy_states])
    def test_zero_samples(self, suite):
        rep = suite(0)
        assert rep.total == 0 and rep.skipped == 0
        assert rep.summary()["worst_margin"] is None
