import re

import numpy as np
import pytest

from monogamy import linalg

rng = np.random.default_rng(1234)


def random_hermitian(d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def random_density(d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m)


def bell_rho():
    v = np.array([1, 0, 0, 1]) / np.sqrt(2)
    return np.outer(v, v.conj())


class TestPartialTrace:
    def test_product_state(self):
        ra, rb = random_density(2), random_density(3)
        got = linalg.partial_trace(np.kron(ra, rb), [2, 3], [0])
        assert np.max(np.abs(got - ra)) < 1e-12
        got = linalg.partial_trace(np.kron(ra, rb), [2, 3], [1])
        assert np.max(np.abs(got - rb)) < 1e-12

    def test_bell_reduction(self):
        got = linalg.partial_trace(bell_rho(), [2, 2], [0])
        assert np.max(np.abs(got - np.eye(2) / 2)) < 1e-12

    def test_schmidt_state_purity(self):
        # reduced purity of the worked Schmidt example gives
        # sqrt(2 (1 - Tr rho_A^2)) = sqrt(21)/6
        from monogamy.states import schmidt3_state

        s6 = np.sqrt(6) / 6
        psi = schmidt3_state(0.5, s6, s6, 0.5, s6)
        rho = np.outer(psi.amps, psi.amps.conj())
        ra = linalg.partial_trace(rho, [2, 2, 2], [0])
        purity = np.trace(ra @ ra).real
        assert abs(np.sqrt(2 * (1 - purity)) - np.sqrt(21) / 6) < 1e-12

    def test_trace_preserved(self):
        for _ in range(20):
            rho = random_density(8)
            red = linalg.partial_trace(rho, [2, 2, 2], [1])
            assert abs(np.trace(red) - np.trace(rho)) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            linalg.partial_trace(np.eye(6) / 6, [2, 2], [0])

    def test_fractional_keep_index(self):
        with pytest.raises(ValueError) as exc:
            linalg.partial_trace(np.eye(4) / 4, (2, 2), [0.5])
        assert str(exc.value) == "keep index must be an integer, got 0.5"


class TestWhole:
    @pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float64(3.0)])
    def test_reads_a_whole_number_as_int(self, value):
        got = linalg.whole(value, "count")
        assert got == 3 and type(got) is int

    def test_reads_bools_as_int(self):
        assert linalg.whole(True, "count") == 1 and type(linalg.whole(False, "count")) is int

    @pytest.mark.parametrize("value,seen", [
        (2.9, "count must be an integer, got 2.9"),
        (-0.5, "count must be an integer, got -0.5"),
        ("2", "count must be an integer, got 2"),
        (float("nan"), "cannot convert float NaN to integer"),
    ], ids=["fraction", "negative-fraction", "string", "nan"])
    def test_rejects_what_is_not_whole(self, value, seen):
        with pytest.raises(ValueError) as exc:
            linalg.whole(value, "count")
        assert str(exc.value) == seen

    def test_rejects_inf(self):
        with pytest.raises(OverflowError):
            linalg.whole(float("inf"), "count")

    @pytest.mark.parametrize("value", [0, 3, 3.0, np.int64(3), np.uint32(3), True])
    def test_nonnegative_whole_reads_as_whole(self, value):
        got = linalg.nonnegative_whole(value, "seed")
        assert got == linalg.whole(value, "seed") and type(got) is int

    @pytest.mark.parametrize("value,seen", [
        (-1, "seed must be nonnegative, got -1"),
        (-2.0, "seed must be nonnegative, got -2"),
        (2.5, "seed must be an integer, got 2.5"),
    ], ids=["negative", "negative-float", "fraction"])
    def test_nonnegative_whole_rejects(self, value, seen):
        with pytest.raises(ValueError) as exc:
            linalg.nonnegative_whole(value, "seed")
        assert str(exc.value) == seen

    @pytest.mark.parametrize("value", [None, [1, 2]], ids=["none", "sequence"])
    def test_nonnegative_whole_refuses_none_and_sequences(self, value):
        with pytest.raises(TypeError):
            linalg.nonnegative_whole(value, "seed")

    def test_subsystem_dims(self):
        got = linalg.subsystem_dims([np.float64(2.0), np.int64(3), 4.0])
        assert got == (2, 3, 4) and all(type(d) is int for d in got)
        with pytest.raises(ValueError) as exc:
            linalg.subsystem_dims((2, 0))
        assert str(exc.value) == "subsystem dimensions must be positive, got (2, 0)"


class TestPartialTranspose:
    def test_symmetric_product_invariant(self):
        a = np.array([[0.7, 0.1], [0.1, 0.3]])
        b = np.array([[0.6, 0.2], [0.2, 0.4]])
        rho = np.kron(a, b)
        assert np.allclose(linalg.partial_transpose(rho, [2, 2], 0), rho)

    def test_involution(self):
        rho = random_density(8)
        twice = linalg.partial_transpose(
            linalg.partial_transpose(rho, [2, 2, 2], 1), [2, 2, 2], 1
        )
        assert np.max(np.abs(twice - rho)) < 1e-14

    def test_trace_preserved(self):
        rho = random_density(4)
        pt = linalg.partial_transpose(rho, [2, 2], 0)
        assert abs(np.trace(pt) - np.trace(rho)) < 1e-14

    @pytest.mark.parametrize("dims,part,seen", [
        ((0, 4), 0, "subsystem dimensions must be positive, got (0, 4)"),
        ((2, 2), 2, "part index 2 out of range for 2 subsystems"),
        ((2, 2), -1, "part index -1 out of range for 2 subsystems"),
        ((2.5, 2), 0, "subsystem dimension must be an integer, got 2.5"),
        ((2, 2), 0.5, "part index must be an integer, got 0.5"),
    ])
    def test_rejects_bad_dims_or_part(self, dims, part, seen):
        with pytest.raises(ValueError, match=re.escape(seen)):
            linalg.partial_transpose(random_density(4), dims, part)

    def test_whole_number_dims_and_part_keep_the_result(self):
        rho = random_density(4)
        got = linalg.partial_transpose(rho, (np.float64(2.0), 2.0), np.int64(1))
        assert np.array_equal(got, linalg.partial_transpose(rho, (2, 2), 1))

    def test_bell_eigenvalues(self):
        pt = linalg.partial_transpose(bell_rho(), [2, 2], 0)
        ev = np.sort(np.linalg.eigvalsh(pt))
        assert np.allclose(ev, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


class TestHermitianEigen:
    def test_identity(self):
        w, _ = linalg.hermitian_eigen(np.eye(2))
        assert np.allclose(w, [1, 1])

    def test_descending_order(self):
        w, _ = linalg.hermitian_eigen(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [3, 2, 1])

    def test_sigma_x(self):
        w, _ = linalg.hermitian_eigen(np.array([[0, 1], [1, 0]], dtype=float))
        assert np.allclose(w, [1, -1])

    def test_reconstruction_and_orthonormality(self):
        for _ in range(20):
            m = random_hermitian(8)
            w, v = linalg.hermitian_eigen(m)
            assert np.max(np.abs((v * w) @ v.conj().T - m)) < 1e-9
            assert np.max(np.abs(v.conj().T @ v - np.eye(8))) < 1e-9
            assert abs(np.sum(w) - np.trace(m).real) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            linalg.hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestTraceNorm:
    def test_identity(self):
        assert abs(linalg.trace_norm(np.eye(5)) - 5) < 1e-12

    def test_density_matrix(self):
        assert abs(linalg.trace_norm(random_density(6)) - 1) < 1e-12

    def test_bell_partial_transpose(self):
        pt = linalg.partial_transpose(bell_rho(), [2, 2], 0)
        assert abs(linalg.trace_norm(pt) - 2.0) < 1e-12

    def test_dominates_abs_trace(self):
        for _ in range(50):
            m = random_hermitian(5)
            assert linalg.trace_norm(m) >= abs(np.trace(m).real) - 1e-12

    def test_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            linalg.trace_norm(np.array([[0.0, 3.0], [0.0, 0.0]]))


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(linalg.psd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(linalg.psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_square_reproduces(self):
        for _ in range(20):
            m = random_density(8)
            s = linalg.psd_sqrt(m)
            assert np.max(np.abs(s @ s - m)) < 1e-8

    def test_pure_state_negativity_cross_check(self):
        # (Tr sqrt(rho_A))^2 - 1 against 2 sum_{i<j} sqrt(l_i l_j)
        from monogamy.states import schmidt3_state

        s6 = np.sqrt(6) / 6
        psi = schmidt3_state(0.5, s6, s6, 0.5, s6)
        rho = np.outer(psi.amps, psi.amps.conj())
        ra = linalg.partial_trace(rho, [2, 2, 2], [0])
        via_sqrt = np.trace(linalg.psd_sqrt(ra)).real ** 2 - 1
        lam = np.clip(np.linalg.eigvalsh(ra), 0, None)
        via_pairs = 2 * sum(
            np.sqrt(lam[i] * lam[j])
            for i in range(len(lam))
            for j in range(i + 1, len(lam))
        )
        assert abs(via_sqrt - via_pairs) < 1e-10

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="PSD"):
            linalg.psd_sqrt(np.diag([1.0, -1e-6]))


@pytest.mark.parametrize("fn", [
    linalg.hermitian_eigen, linalg.psd_sqrt, linalg.trace_norm,
    lambda m: linalg.partial_trace(m, (2, 2), [0]),
    lambda m: linalg.partial_transpose(m, (2, 2), 0),
], ids=["hermitian_eigen", "psd_sqrt", "trace_norm", "partial_trace", "partial_transpose"])
class TestMatrixInput:
    """Each function takes one matrix: a vector or a stack of matrices is
    rejected, and so is a matrix with a NaN or Inf entry."""

    @pytest.mark.parametrize("shape", [(4,), (3, 4, 4)])
    def test_rejects_other_ranks(self, fn, shape):
        seen = f"expected a 2-d matrix, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(seen)):
            fn(np.ones(shape))

    def test_rejects_non_finite(self, fn):
        m = random_density(4)
        m[2, 2] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            fn(m)
