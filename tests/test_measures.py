import math

import numpy as np
import pytest

from monogamy.measures import (
    MeasureKind,
    MeasureVector,
    concurrence_2q,
    concurrence_assistance_2q,
    concurrence_pure,
    measure_vector,
    negativity,
    negativity_pure,
    scren_2q,
    scren_pure,
    screnoa_2q,
)
from monogamy.states import (
    DensityMatrix,
    PureState,
    haar_random_pure,
    reduce_density,
    schmidt3_state,
    to_density,
    w_class_state,
)

S6 = math.sqrt(6) / 6
rng = np.random.default_rng(99)


def bell():
    return PureState((2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2))


def random_pure(dims, generator=rng):
    d = int(np.prod(dims))
    v = generator.standard_normal(d) + 1j * generator.standard_normal(d)
    return PureState(dims, v / np.linalg.norm(v))


def example_w_state():
    return w_class_state(0.5, 0.5, math.sqrt(2) / 2)


def random_unitary(d, generator=rng):
    g = generator.standard_normal((d, d)) + 1j * generator.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_qubit_density(rank, generator):
    g = generator.standard_normal((2, rank)) + 1j * generator.standard_normal((2, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


S2 = math.sqrt(0.5)
# |Phi+>, |Phi->, |Psi+>, |Psi-> as rows: real eigenvectors of sigma_y (x)
# sigma_y, so a Bell-diagonal rho equals its spin flip and its spin-flip
# roots are its Bell weights
BELL_BASIS = np.array([[S2, 0, 0, S2], [S2, 0, 0, -S2], [0, S2, S2, 0], [0, S2, -S2, 0]],
                      dtype=complex)
# concurrence, SCREN, concurrence of assistance, SCRENoA
PAIR_FNS = (concurrence_2q, scren_2q, concurrence_assistance_2q, screnoa_2q)
# Absolute.  The spin-flip roots are the singular values of K = f^T YY f for
# f = psd_sqrt(rho), each within a few eps of the true one (the largest is at
# most 1); roots that are exactly zero, all four on product states, come out
# at that round-off.  Observed <= 5.8e-15.
CLOSED_FORM_ATOL = 1e-12


def bell_diagonal(weights, u=np.eye(4)):
    """u (sum_i w_i |B_i><B_i|) u^dagger; local u leaves the roots alone."""
    return DensityMatrix((2, 2), u @ (BELL_BASIS.T * weights) @ BELL_BASIS.conj() @ u.conj().T)


def assert_closed_forms(rho, conc, assist):
    got = [fn(rho) for fn in PAIR_FNS]
    want = [conc, conc**2, assist, assist**2]
    assert max(abs(g - w) for g, w in zip(got, want)) <= CLOSED_FORM_ATOL, (got, want)


class TestConcurrencePure:
    def test_product_state(self):
        psi = PureState((2, 2), np.array([1, 0, 0, 0], dtype=complex))
        assert concurrence_pure(psi, [0]) == 0

    def test_bell(self):
        assert abs(concurrence_pure(bell(), [0]) - 1) < 1e-12

    def test_example1(self):
        psi = schmidt3_state(0.5, S6, S6, 0.5, S6)
        assert abs(concurrence_pure(psi, [0]) - math.sqrt(21) / 6) < 1e-12

    @pytest.mark.parametrize("part,seen", [
        ([0, 1], "part_a [0, 1] is not a proper nonempty subset of 2 subsystems"),
        ([2], "part_a [2] out of range for 2 subsystems"),
        ([-1], "part_a [-1] out of range for 2 subsystems"),
        ([0.9], "part_a index must be an integer, got 0.9"),
    ], ids=["whole", "above", "negative", "fractional"])
    def test_invalid_partition(self, part, seen):
        with pytest.raises(ValueError) as exc:
            concurrence_pure(bell(), part)
        assert str(exc.value) == seen

    def test_two_qubit_parts_of_product_states(self):
        # 1 - purity cancelled to up to 5e-8 here; the singular values give
        # a few eps, and the complement gives the same bits
        generator = np.random.default_rng(2024)
        eps = np.finfo(float).eps
        for _ in range(200):
            left, right = (random_pure((2, 2), generator) for _ in range(2))
            psi = PureState((2, 2, 2, 2), np.kron(left.amps, right.amps))
            value = concurrence_pure(psi, [0, 1])
            assert value <= 8 * eps
            assert concurrence_pure(psi, [2, 3]) == value

    @pytest.mark.parametrize("eps", [1e-2, 1e-5, 1e-8])
    def test_near_product_keeps_its_digits(self, eps):
        # sqrt(1 - eps^2)|0000> + eps|1111> has C = 2 eps sqrt(1 - eps^2)
        # across 2 + 2 qubits; 1 - purity gave 2.98e-8 at eps = 1e-8
        amps = np.zeros(16)
        amps[0], amps[15] = math.sqrt(1 - eps**2), eps
        psi = PureState((2, 2, 2, 2), amps)
        want = 2 * eps * math.sqrt(1 - eps**2)
        assert concurrence_pure(psi, [0, 1]) == pytest.approx(want, rel=1e-14, abs=0)
        assert concurrence_pure(psi, [2, 3]) == concurrence_pure(psi, [0, 1])


class TestConcurrence2q:
    def test_maximally_mixed(self):
        rho = DensityMatrix((2, 2), np.eye(4) / 4)
        assert concurrence_2q(rho) == 0

    def test_matches_pure_formula(self):
        for _ in range(500):
            psi = random_pure((2, 2))
            assert abs(concurrence_2q(to_density(psi)) - concurrence_pure(psi, [0])) < 1e-9

    def test_example1_reduction(self):
        rho = to_density(schmidt3_state(0.5, S6, S6, 0.5, S6))
        assert abs(concurrence_2q(reduce_density(rho, [0, 2])) - 0.5) < 1e-9

    def test_wrong_dims(self):
        with pytest.raises(ValueError):
            concurrence_2q(DensityMatrix((2,), np.eye(2) / 2))


EPS = np.finfo(float).eps
SIGMA_YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


class TestWoottersForm:
    """``concurrence_2q`` and ``concurrence_assistance_2q`` against Wootters'
    own form: max(0, mu_1 - mu_2 - mu_3 - mu_4) and sum mu, for mu the
    descending square roots of the eigenvalues of R = rho rho~, rho~ =
    (sigma_y (x) sigma_y) rho* (sigma_y (x) sigma_y), from
    ``np.linalg.eigvals`` here; the library takes singular values of
    f^T YY f for a square root f of rho, so the two share no arithmetic.

    The tolerance is absolute and comes from eigenvalue perturbation.  rho~
    is exact, as sigma_y (x) sigma_y is a signed permutation.  The product R
    is within 6 (eps/2) = 3 eps in the 2-norm, as a unit-trace PSD rho has
    Frobenius norm <= 1, and ``eigvals`` returns the eigenvalues of R + E
    with ||E|| <= n^2 eps ||R|| = 16 eps (n = 4, ||R|| <= 1).  R = sqrt(rho)
    H sqrt(rho)^-1 with H = sqrt(rho) rho~ sqrt(rho) Hermitian, so R's
    eigenvectors are sqrt(rho) times a unitary, of condition number
    kappa = sqrt(w_max / w_min) for rho's eigenvalues w, and by Bauer-Fike
    each lambda is within D = 19 eps kappa of a true one: mu moves by at
    most min(sqrt(D), D / mu).  The library's f = psd_sqrt(rho) is within
    16 eps / (2 sqrt(w_min)) + 3 eps of sqrt(rho), after eigh's backward
    error of 16 eps, so each singular value of f^T YY f, where ||f|| <= 1,
    moves by at most 2 ||f - sqrt(rho)|| <= 38 eps kappa (w_max >= 1/4).
    Each value is within the sum over the four roots of both errors.
    """

    @staticmethod
    def assert_wootters(rho):
        m = rho.mat
        lam = np.linalg.eigvals(m @ SIGMA_YY @ m.conj() @ SIGMA_YY).real
        mu = np.sqrt(np.clip(np.sort(lam)[::-1], 0.0, None))
        w = np.linalg.eigvalsh(m)
        kappa = math.sqrt(w[-1] / w[0])
        d = 19 * EPS * kappa
        tol = np.sum(np.minimum(math.sqrt(d), d / np.maximum(mu, d))) + 4 * 38 * EPS * kappa
        assert abs(concurrence_2q(rho) - max(0.0, mu[0] - mu[1:].sum())) <= tol
        assert abs(concurrence_assistance_2q(rho) - mu.sum()) <= tol

    def test_full_rank_states(self):
        gen = np.random.default_rng(8)
        for _ in range(200):
            g = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
            m = g @ g.conj().T
            self.assert_wootters(DensityMatrix((2, 2), m / np.trace(m).real))

    @pytest.mark.parametrize("n_qubits", [4, 5])
    def test_reduced_pairs_of_haar_states(self, n_qubits):
        """The pairs (0, i) of Haar states, full rank when the rest has two
        qubits or more."""
        for seed in range(20):
            rho = to_density(haar_random_pure((2,) * n_qubits, seed))
            for i in range(1, n_qubits):
                self.assert_wootters(reduce_density(rho, [0, i]))


class TestSpinFlipClosedForms:
    """Mixed two-qubit states of rank 1 to 4 with known spin-flip roots."""

    def test_bell_states(self):
        for k in range(4):
            assert_closed_forms(bell_diagonal(np.eye(4)[k]), 1.0, 1.0)

    def test_werner_states(self):
        # p |Psi-><Psi-| + (1 - p) I / 4: C = max(0, (3p - 1) / 2)
        for p in np.linspace(0.0, 1.0, 21):
            weights = np.full(4, (1.0 - p) / 4)
            weights[3] += p
            assert_closed_forms(bell_diagonal(weights), max(0.0, (3 * p - 1) / 2), 1.0)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_bell_diagonal_under_local_unitaries(self, rank):
        # C = max(0, 2 w_max - 1), and the roots sum to 1
        gen = np.random.default_rng(20 + rank)
        for _ in range(100):
            weights = np.zeros(4)
            weights[gen.permutation(4)[:rank]] = 0.1 + gen.random(rank)
            weights /= weights.sum()
            u = np.kron(random_unitary(2, gen), random_unitary(2, gen))
            rho = bell_diagonal(weights, u)
            assert np.linalg.matrix_rank(rho.mat) == rank
            assert_closed_forms(rho, max(0.0, 2 * weights.max() - 1), 1.0)

    @pytest.mark.parametrize("ranks", [(1, 1), (1, 2), (2, 2)])
    def test_product_states(self, ranks):
        gen = np.random.default_rng(sum(ranks))
        for _ in range(100):
            rho = DensityMatrix((2, 2), np.kron(*(random_qubit_density(r, gen) for r in ranks)))
            for fn in (concurrence_2q, scren_2q):
                assert fn(rho) <= CLOSED_FORM_ATOL

    def test_non_psd_input_raises(self):
        """A non-PSD matrix is refused where it is built, so no ``*_2q``
        function receives one (``psd_sqrt``'s own refusal is pinned in
        ``test_linalg``)."""
        with pytest.raises(ValueError, match="PSD"):
            DensityMatrix((2, 2), np.diag([0.6, 0.5, 0.1, -0.2]).astype(complex))


class TestConcurrenceAssistance:
    def test_pure_equals_concurrence(self):
        for _ in range(50):
            psi = random_pure((2, 2))
            assert (
                abs(concurrence_assistance_2q(to_density(psi)) - concurrence_pure(psi, [0]))
                < 1e-9
            )

    def test_w_state_reductions(self):
        rho = to_density(example_w_state())
        assert abs(concurrence_assistance_2q(reduce_density(rho, [0, 1])) - 0.5) < 1e-9
        assert (
            abs(concurrence_assistance_2q(reduce_density(rho, [0, 2])) - math.sqrt(2) / 2)
            < 1e-9
        )


class TestNegativity:
    def test_separable_product(self):
        ra = np.diag([0.7, 0.3])
        rb = np.diag([0.2, 0.8])
        rho = DensityMatrix((2, 2), np.kron(ra, rb))
        assert negativity(rho, [0]) == 0

    def test_bell(self):
        assert abs(negativity(to_density(bell()), [0]) - 1) < 1e-12

    def test_halved_convention(self):
        rho = to_density(bell())
        assert abs(negativity(rho, [0], halved=True) - 0.5) < 1e-12

    def test_pure_state_closed_form(self):
        for _ in range(500):
            psi = random_pure((2, 2)) if rng.random() < 0.5 else random_pure((2, 2, 2))
            part = [0]
            rho = to_density(psi)
            assert abs(negativity(rho, part) - negativity_pure(psi, part)) < 1e-8


class TestScren:
    def test_w_state_one_vs_rest(self):
        assert abs(scren_pure(example_w_state(), [0]) - 0.75) < 1e-9

    def test_product(self):
        psi = PureState((2, 2), np.array([0, 1, 0, 0], dtype=complex))
        assert scren_pure(psi, [0]) == 0

    def test_bell(self):
        assert abs(scren_pure(bell(), [0]) - 1) < 1e-9

    def test_screnoa_w_reductions(self):
        rho = to_density(example_w_state())
        assert abs(screnoa_2q(reduce_density(rho, [0, 1])) - 0.25) < 1e-9
        assert abs(screnoa_2q(reduce_density(rho, [0, 2])) - 0.5) < 1e-9


class TestMeasureVector:
    def test_example1_concurrence(self):
        mv = measure_vector(schmidt3_state(0.5, S6, S6, 0.5, S6), "concurrence")
        assert abs(mv.one_vs_rest - math.sqrt(21) / 6) < 1e-9
        assert abs(mv.pairwise[0] - S6) < 1e-9
        assert abs(mv.pairwise[1] - 0.5) < 1e-9

    def test_example2_screnoa(self):
        mv = measure_vector(example_w_state(), MeasureKind.SCRENOA)
        assert abs(mv.one_vs_rest - 0.75) < 1e-9
        assert abs(mv.pairwise[0] - 0.25) < 1e-9
        assert abs(mv.pairwise[1] - 0.5) < 1e-9

    def test_product_state_all_zero(self):
        psi = schmidt3_state(1, 0, 0, 0, 0)
        for kind in MeasureKind:
            mv = measure_vector(psi, kind)
            assert mv.one_vs_rest < 1e-12
            assert all(v < 1e-12 for v in mv.pairwise)

    def test_rejects_large_systems(self):
        with pytest.raises(ValueError):
            measure_vector(haar_random_pure([2] * 7, seed=1), "concurrence")
        with pytest.raises(ValueError):
            measure_vector(haar_random_pure([2, 2], seed=1), "concurrence")

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            MeasureVector(MeasureKind.CONCURRENCE, -0.1, (0.0,))

    def test_rejection_names_plain_floats(self):
        with pytest.raises(ValueError) as err:
            MeasureVector(MeasureKind.CONCURRENCE, np.float64(math.nan),
                          tuple(np.array([0.5, 0.1])))
        assert str(err.value) == "measure values must be finite and nonnegative: (nan, 0.5, 0.1)"

    def test_kind_given_by_value_is_the_member(self):
        mv = MeasureVector("screnoa", 0.75, (0.25, 0.5))
        assert mv.kind is MeasureKind.SCRENOA and mv.kind.relation == "polygamy"
        with pytest.raises(ValueError, match="'bogus' is not a valid MeasureKind"):
            MeasureVector("bogus", 0.75, (0.25, 0.5))


class TestBaseRelations:
    def test_ckw_haar_states(self):
        for seed in range(300):
            mv = measure_vector(haar_random_pure([2, 2, 2], seed=seed), "concurrence")
            lhs = mv.one_vs_rest**2
            rhs = sum(v**2 for v in mv.pairwise)
            assert lhs >= rhs - 1e-8

    def test_screnoa_polygamy_s1(self):
        gen = np.random.default_rng(5)
        for _ in range(300):
            c = np.abs(gen.standard_normal(3))
            c /= np.linalg.norm(c)
            mv = measure_vector(w_class_state(*c), "screnoa")
            assert mv.one_vs_rest <= sum(mv.pairwise) + 1e-8


def test_local_unitary_invariance():
    gen = np.random.default_rng(17)
    for _ in range(500):
        psi = random_pure((2, 2, 2), gen)
        u = random_unitary(2, gen)
        for _ in range(2):
            u = np.kron(u, random_unitary(2, gen))
        rotated = PureState((2, 2, 2), u @ psi.amps)
        for kind in MeasureKind:
            a = measure_vector(psi, kind)
            b = measure_vector(rotated, kind)
            assert abs(a.one_vs_rest - b.one_vs_rest) < 1e-8
            assert all(abs(x - y) < 1e-8 for x, y in zip(a.pairwise, b.pairwise))
