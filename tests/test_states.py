import math
from dataclasses import replace

import numpy as np
import pytest

from monogamy import linalg, states
from monogamy.states import (
    MAX_HAAR_AMPLITUDES,
    DensityMatrix,
    PureState,
    StateSpecError,
    haar_random_pure,
    parse_state_spec,
    read_number,
    reduce_density,
    schmidt3_state,
    to_density,
    w_class_amps,
    w_class_state,
)

S6 = math.sqrt(6) / 6


def test_purestate_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        PureState((2,), np.array([1.0, 1.0]))


def test_schmidt3_product_state():
    psi = schmidt3_state(1, 0, 0, 0, 0)
    amps = np.zeros(8)
    amps[0] = 1
    assert np.allclose(psi.amps, amps)


def test_schmidt3_occupies_five_slots():
    psi = schmidt3_state(*(np.ones(5) / np.sqrt(5)), phi=0.3)
    occupied = set(np.flatnonzero(np.abs(psi.amps) > 0))
    assert occupied == {0b000, 0b100, 0b101, 0b110, 0b111}


def test_schmidt3_renormalizes_close_inputs():
    psi = schmidt3_state(0.7071068, 0.7071068, 0, 0, 0)
    assert abs(np.linalg.norm(psi.amps) - 1) < 1e-15


def test_schmidt3_rejects_bad_norm():
    with pytest.raises(ValueError, match="norm"):
        schmidt3_state(1, 1, 0, 0, 0)


def test_negative_coefficients_are_named_as_plain_floats():
    with pytest.raises(ValueError) as exc:
        schmidt3_state(0.6, -0.8, 0, 0, 0)
    assert str(exc.value) == "coefficients must be nonnegative, got [0.6, -0.8, 0.0, 0.0, 0.0]"


def test_wclass_example_instance():
    psi = w_class_state(0.5, 0.5, math.sqrt(2) / 2)
    assert abs(psi.amps[0b100] - 0.5) < 1e-15
    assert abs(psi.amps[0b010] - 0.5) < 1e-15
    assert abs(psi.amps[0b001] - math.sqrt(2) / 2) < 1e-15


def test_wclass_product_state():
    psi = w_class_state(1, 0, 0)
    assert abs(psi.amps[0b100] - 1) < 1e-15


def test_wclass_symmetric_pairwise_equal():
    from monogamy.measures import measure_vector

    psi = w_class_state(*(np.ones(3) / np.sqrt(3)))
    mv = measure_vector(psi, "screnoa")
    assert abs(mv.pairwise[0] - mv.pairwise[1]) < 1e-12


def one_w_class_state(a, b, c):
    """W-class amplitudes built one state at a time, with np.linalg.norm."""
    v = np.array([a, b, c], dtype=float)
    amps = np.zeros(8, dtype=complex)
    amps[[0b100, 0b010, 0b001]] = v / float(np.linalg.norm(v))
    return amps


def wclass_outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return str(exc)


def test_w_class_amps_rows_match_w_class_state():
    rng = np.random.default_rng(4)
    rows = np.abs(rng.standard_normal((500, 3)))
    rows[rng.random(500) < 0.1, rng.integers(3)] = 0.0
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows[::2] *= rng.uniform(1 - 5e-7, 1 + 5e-7, (250, 1))  # renormalized rows
    rows = np.vstack([rows, [1.0, 0.0, 0.0], [0.5, 0.5, math.sqrt(2) / 2],
                      [0.7071068, 0.7071068, 0.0]])
    amps = w_class_amps(rows)
    assert amps.shape == (len(rows), 8) and amps.dtype == complex
    for row, got in zip(rows, amps):
        assert (got == one_w_class_state(*row)).all()
        assert (got == w_class_state(*row).amps).all()


def test_w_class_amps_draws_a_block_like_single_draws():
    from monogamy import verify

    for seed in range(20):
        for k in (1, 7, 64):
            rng = np.random.default_rng(seed)
            want = []
            for _ in range(k):
                coeffs = np.abs(rng.standard_normal(3))
                coeffs /= np.linalg.norm(coeffs)
                want.append(one_w_class_state(*coeffs))
            got = verify._w_class_block(np.random.default_rng(seed), k)
            assert (got == np.array(want)).all()


@pytest.mark.parametrize("bad", [
    [0.6, -0.8, 0.0],  # negative
    [1.0, 1.0, 0.0],  # off unit norm
    [-1.0, 1.0, 1.0],  # both: the sign is checked first
    [0.6, 0.8, math.inf],
])
def test_w_class_amps_raises_w_class_state_message(bad):
    want = wclass_outcome(lambda: w_class_state(*bad))
    assert isinstance(want, str)
    good = [0.6, 0.8, 0.0]
    assert wclass_outcome(lambda: w_class_amps([good, bad, good, [2.0, 0, 0]])) == want
    # the first bad row raises
    assert wclass_outcome(lambda: w_class_amps([good, [2.0, 0, 0], bad])) == \
        wclass_outcome(lambda: w_class_state(2.0, 0, 0))


@pytest.mark.parametrize("bad", [
    [math.nan, 0.0, 1.0],
    [0.6, math.nan, 0.8],
    [math.nan] * 3,
])
def test_nan_coefficients_raise_the_norm_message(bad):
    """A NaN coefficient has a NaN norm, which fails the norm check."""
    want = "coefficients have norm nan, more than 1e-06 away from 1"
    assert wclass_outcome(lambda: w_class_state(*bad)) == want
    assert wclass_outcome(lambda: w_class_amps([[0.6, 0.8, 0.0], bad])) == want
    with pytest.raises(ValueError, match="norm nan"):
        schmidt3_state(*bad, 0.0, 0.0)


GOOD = [0.6, 0.8, 0.0]


@pytest.mark.parametrize("stack,want", [
    # the least coefficient and the largest norm error sit in different rows
    ([GOOD, [1.0, 1.0, 0.0], GOOD, [0.6, -0.8, 0.0]],
     "coefficients have norm 1.4142135623730951, more than 1e-06 away from 1"),
    ([GOOD, [0.6, -0.8, 0.0], GOOD, [1.0, 1.0, 0.0]],
     "coefficients must be nonnegative, got [0.6, -0.8, 0.0]"),
    ([GOOD, [0.6, 0.8, 0.01], GOOD, [5.0, 0.0, 0.0], [-0.1, 0.0, 1.0]],
     "coefficients have norm 1.0000499987500624, more than 1e-06 away from 1"),
    ([GOOD, [0.5, 0.5, 0.0], GOOD], "coefficients have norm 0.7071067811865476, more than "
     "1e-06 away from 1"),
    ([GOOD, GOOD, GOOD, [0.6, 0.8, math.inf]], "coefficients have norm inf, more than "
     "1e-06 away from 1"),
    ([GOOD, [0.0, 0.0, 1.0], [-math.inf, 0.0, 0.0]],
     "coefficients must be nonnegative, got [-inf, 0.0, 0.0]"),
    ([GOOD, [0.6, math.nan, 0.8], [-1.0, 0.0, 0.0]],
     "coefficients have norm nan, more than 1e-06 away from 1"),
])
def test_w_class_amps_names_the_first_bad_row_whatever_holds_the_extremes(stack, want):
    """The stack is checked by its least coefficient and largest norm error,
    which may come from different rows, or from a row after the first bad
    one; the error is still that of the first bad row."""
    assert wclass_outcome(lambda: w_class_amps(stack)) == want
    first_bad = next(row for row in stack
                     if isinstance(wclass_outcome(lambda: w_class_state(*row)), str))
    assert wclass_outcome(lambda: w_class_state(*first_bad)) == want


def test_w_class_amps_checks_a_valid_stack_without_rows():
    """Valid seeded stacks, with exact and negative zeros and rows within
    RENORM_TOL of unit norm, pass the extremes check without the row-by-row
    check, and each amplitude has the bytes of a one-state build.  A stack
    that fails the extremes check raises for its first flagged row (row 0
    when none is), so a too-strict extremes check fails here."""
    for seed in range(5):
        rng = np.random.default_rng(seed)
        rows = np.abs(rng.standard_normal((64, 3)))
        rows[rng.random(64) < 0.2, rng.integers(3)] = 0.0
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        rows[::3] *= rng.uniform(1 - 9e-7, 1 + 9e-7, (22, 1))
        rows[rows == 0.0] = -0.0 if seed % 2 else 0.0
        rows = np.vstack([rows, [-0.0, 0.6, 0.8], [0.6, -0.0, 0.8], [-0.0, -0.0, 1.0]])
        want = np.array([one_w_class_state(*row) for row in rows])
        assert w_class_amps(rows).tobytes() == want.tobytes()
    assert w_class_amps(np.empty((0, 3))).tobytes() == b""


def test_w_class_amps_needs_rows_of_three():
    with pytest.raises(ValueError, match="rows of three"):
        w_class_amps([1.0, 0.0, 0.0])
    assert w_class_amps(np.empty((0, 3))).shape == (0, 8)


def test_haar_deterministic():
    a = haar_random_pure([2, 2, 2], seed=7)
    b = haar_random_pure([2, 2, 2], seed=7)
    assert np.array_equal(a.amps, b.amps)
    c = haar_random_pure([2, 2, 2], seed=8)
    assert not np.array_equal(a.amps, c.amps)


def test_haar_reads_whole_numbers_as_today():
    psi = haar_random_pure((np.float64(2.0), 2, 2), seed=np.int64(7))
    assert psi.dims == (2, 2, 2) and all(type(d) is int for d in psi.dims)
    assert np.array_equal(psi.amps, haar_random_pure([2, 2, 2], seed=7.0).amps)


@pytest.mark.parametrize("make,want", [
    (lambda: states.check_amplitudes((2, 2), np.full(4, 0.5)),
     "expected one amplitude vector per row, got shape (4,)"),
    (lambda: haar_random_pure((), seed=1), "dims must be nonempty"),
    (lambda: haar_random_pure((2.9, 2, 2), seed=1),
     "subsystem dimension must be an integer, got 2.9"),
    (lambda: haar_random_pure((2, 2, 2), seed=3.7), "seed must be an integer, got 3.7"),
    (lambda: PureState((2.9, 2, 2), np.eye(8)[0]),
     "subsystem dimension must be an integer, got 2.9"),
], ids=["one-vector", "no-dims", "fractional-dim", "fractional-seed", "fractional-state-dim"])
def test_amplitudes_reject_a_bad_shape(make, want):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == want


@pytest.mark.parametrize("dims,seed,want", [
    ((-2, 2), 1, "subsystem dimensions must be positive, got (-2, 2)"),
    ((2, 2), -5, "seed must be nonnegative, got -5"),
], ids=["negative-dim", "negative-seed"])
def test_haar_reads_dims_and_seed_by_the_library_rules(dims, seed, want):
    with pytest.raises(ValueError) as exc:
        haar_random_pure(dims, seed)
    assert str(exc.value) == want


def test_haar_normalized():
    psi = haar_random_pure([4, 4], seed=3)
    assert abs(np.linalg.norm(psi.amps) - 1) < 1e-12


def test_haar_purity_moment():
    # mean Tr(rho_A^2) over Haar 2x2 states is (dA + dB)/(dA dB + 1) = 4/5;
    # brute-force Monte Carlo cross-check of the sampler
    rng = np.random.default_rng(42)
    n = 10_000
    v = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    m = v.reshape(n, 2, 2)
    gram = np.einsum("nij,nkj->nik", m, m.conj())
    purity = np.einsum("nik,nki->n", gram, gram).real
    assert abs(purity.mean() - 0.8) < 0.02


def test_to_density_rank_one():
    rho = to_density(schmidt3_state(1, 0, 0, 0, 0))
    ev = np.linalg.eigvalsh(rho.mat)
    assert abs(ev[-1] - 1) < 1e-12 and np.all(ev[:-1] < 1e-12)


def test_reduce_example1_concurrence():
    from monogamy.measures import concurrence_2q

    rho = to_density(schmidt3_state(0.5, S6, S6, 0.5, S6))
    r12 = reduce_density(rho, [0, 1])
    assert abs(concurrence_2q(r12) - S6) < 1e-9


def test_reduce_composes():
    rho = to_density(haar_random_pure([2, 2, 2], seed=5))
    once = reduce_density(rho, [0, 1])
    twice = reduce_density(once, [0])
    direct = reduce_density(rho, [0])
    assert np.max(np.abs(twice.mat - direct.mat)) < 1e-12


@pytest.mark.parametrize("n_qubits", range(2, 7))
def test_reductions_are_checked_and_keep_their_bits(monkeypatch, n_qubits):
    """``to_density`` and ``reduce_density`` build through the one checked
    constructor: each construction takes one eigendecomposition, and the
    matrices are the outer product and the partial trace, bit for bit."""
    calls, real = [], linalg.hermitian_eigen
    monkeypatch.setattr(linalg, "hermitian_eigen", lambda m: calls.append(1) or real(m))
    for seed in range(3):
        psi = haar_random_pure((2,) * n_qubits, seed)
        calls.clear()
        rho = to_density(psi)
        assert len(calls) == 1
        assert rho.mat.tobytes() == np.outer(psi.amps, psi.amps.conj()).tobytes()
        for keep in ([0], [0, n_qubits - 1], list(range(1, n_qubits))):
            calls.clear()
            reduced = reduce_density(rho, keep)
            assert len(calls) == 1
            assert reduced.mat.tobytes() == linalg.partial_trace(rho.mat, rho.dims, keep).tobytes()
            assert reduced.dims == (2,) * len(keep)


def test_density_matrix_has_no_unchecked_path():
    with pytest.raises(TypeError):
        DensityMatrix((2,), np.eye(2) / 2, check=False)


@pytest.mark.parametrize("keep,want", [
    ([5], "keep indices [5] out of range for 3 subsystems"),
    ([-1], "keep indices [-1] out of range for 3 subsystems"),
    ([2, 0, 7], "keep indices [0, 2, 7] out of range for 3 subsystems"),
    ([], "must keep at least one subsystem"),
    ([0.5], "keep index must be an integer, got 0.5"),
])
def test_reduce_names_a_bad_keep(keep, want):
    """The keep indices are checked by ``linalg.partial_trace``."""
    rho = to_density(w_class_state(0.5, 0.5, math.sqrt(0.5)))
    with pytest.raises(ValueError) as exc:
        reduce_density(rho, keep)
    assert str(exc.value) == want


def test_density_matrix_invariants_enforced():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix((2,), np.eye(2))
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix((2,), np.array([[0.5, 0.5], [0.0, 0.5]]))


NAN = float("nan")


@pytest.mark.parametrize("dims,mat,want", [
    ((2,), [[NAN, 0], [0, NAN]], "matrix contains NaN or Inf entries"),
    ((2, 2), np.full((4, 4), NAN), "matrix contains NaN or Inf entries"),
    ((2,), [[math.inf, 0], [0, 0.5]], "matrix contains NaN or Inf entries"),
    ((-2, -2), np.eye(4) / 4, "subsystem dimensions must be positive, got (-2, -2)"),
    ((0, 2), np.eye(2) / 2, "subsystem dimensions must be positive, got (0, 2)"),
    ((2.5, 2), np.eye(4) / 4, "subsystem dimension must be an integer, got 2.5"),
    ((2,), np.full((2, 3), 0.5), "expected a square matrix, got shape (2, 3)"),
    ((2,), [0.5, 0.5], "expected a 2-d matrix, got shape (2,)"),
    ((2,), np.eye(4) / 4, "dims (2,) do not match matrix side 4"),
    ((2,), [[0.5, 0.5], [0.0, 0.5]], "matrix is not Hermitian (max asymmetry 5.000e-01)"),
    ((2,), np.eye(2), "density matrix trace (2+0j) differs from 1"),
    ((2,), np.diag([1 + 2e-10, -2e-10]),
     "density matrix not PSD (min eigenvalue -2.000e-10)"),
], ids=["nan", "nan-4x4", "inf", "negative-dims", "zero-dim", "fractional-dim", "not-square",
        "not-2d", "dims-vs-side", "not-hermitian", "trace", "below-psd-floor"])
def test_density_matrix_rejects(dims, mat, want):
    """Finite, 2-d, square and Hermitian are linalg's checks and messages."""
    with pytest.raises(ValueError) as exc:
        DensityMatrix(dims, mat)
    assert str(exc.value) == want


def test_density_matrix_accepts_eigenvalues_at_the_psd_floor():
    rho = DensityMatrix((2,), np.diag([1 + 5e-11, -5e-11]))
    assert rho.dims == (2,) and not rho.mat.flags.writeable


@pytest.mark.parametrize("make,field,want", [
    (lambda: w_class_state(0.5, 0.5, math.sqrt(0.5)), "amps", "not normalized"),
    (lambda: to_density(w_class_state(0.5, 0.5, math.sqrt(0.5))), "mat", "trace"),
], ids=["pure-state", "density-matrix"])
def test_states_compare_and_hash_by_identity(make, field, want):
    """Two states of equal arrays are two objects: an array field has no one
    truth value, so neither ``==`` nor ``hash`` reads the arrays, and
    ``replace`` still builds a checked state."""
    a, b = make(), make()
    assert np.array_equal(getattr(a, field), getattr(b, field))
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a) and len({a, b}) == 2
    c = replace(a, **{field: getattr(a, field).conj()})
    assert type(c) is type(a) and c != a and not getattr(c, field).flags.writeable
    with pytest.raises(ValueError, match=want):
        replace(a, **{field: 2 * getattr(a, field)})


def test_schmidt3_closed_forms_random():
    from monogamy.measures import measure_vector

    rng = np.random.default_rng(11)
    for _ in range(200):
        l = np.abs(rng.standard_normal(5))
        l /= np.linalg.norm(l)
        mv = measure_vector(
            schmidt3_state(*l, phi=rng.uniform(0, 2 * np.pi)), "concurrence"
        )
        assert abs(mv.pairwise[0] - 2 * l[0] * l[2]) < 1e-9
        assert abs(mv.pairwise[1] - 2 * l[0] * l[3]) < 1e-9
        assert (
            abs(mv.one_vs_rest - 2 * l[0] * np.sqrt(l[2] ** 2 + l[3] ** 2 + l[4] ** 2))
            < 1e-9
        )


class TestParseStateSpec:
    def test_schmidt3(self):
        psi = parse_state_spec("schmidt3:0.5, sqrt(6)/6, sqrt(6)/6, 0.5, sqrt(6)/6")
        expected = schmidt3_state(0.5, S6, S6, 0.5, S6)
        assert np.allclose(psi.amps, expected.amps)

    def test_wclass(self):
        psi = parse_state_spec("wclass:1/2,1/2,sqrt(2)/2")
        assert abs(psi.amps[0b001] - math.sqrt(2) / 2) < 1e-12

    def test_haar_seeded(self):
        a = parse_state_spec("haar:2x2x2:7")
        b = parse_state_spec("haar:2x2x2:7")
        assert np.array_equal(a.amps, b.amps)
        assert a.dims == (2, 2, 2)

    def test_haar_default_seed(self):
        a = parse_state_spec("haar:2x2", default_seed=9)
        b = parse_state_spec("haar:2x2:9")
        assert np.array_equal(a.amps, b.amps)

    def test_haar_at_amplitude_cap(self):
        assert MAX_HAAR_AMPLITUDES == 2**20
        psi = parse_state_spec("haar:" + "x".join(["2"] * 20) + ":1")
        assert psi.amps.shape == (MAX_HAAR_AMPLITUDES,)

    @pytest.mark.parametrize("dims", [
        str(MAX_HAAR_AMPLITUDES + 1),
        "x".join(["2"] * 50),  # once a MemoryError
        "x".join(["2"] * 64),  # once overflowed np.prod to a length of 0
    ])
    def test_haar_over_amplitude_cap(self, monkeypatch, dims):
        def draw(*args):
            raise AssertionError("drew a state over the cap")

        monkeypatch.setattr(states, "haar_random_pure", draw)
        with pytest.raises(StateSpecError, match=f"amplitudes, more than {MAX_HAAR_AMPLITUDES}"):
            parse_state_spec(f"haar:{dims}:1")

    @pytest.mark.parametrize("dims", ["-2x2x2", "0x2x2", "2x0", "-2x-2", "-1"])
    def test_haar_dims_below_one(self, monkeypatch, dims):
        def draw(*args):
            raise AssertionError("drew a state with a dimension below 1")

        monkeypatch.setattr(states, "haar_random_pure", draw)
        with pytest.raises(StateSpecError) as exc:
            parse_state_spec(f"haar:{dims}:1")
        assert str(exc.value) == f"haar dims {dims!r} must all be at least 1"

    REJECTED = [
        ("schmidt3:1,0,0", "schmidt3 expects 5 coefficients plus optional phase, got 3"),
        ("wclass:1,0", "wclass expects 3 coefficients, got 2"),
        ("haar:2y2:1", "cannot parse dims '2y2'"),
        ("haar:2x2:-1", "haar seed must be a non-negative integer, got '-1'"),
        ("mystery:1,2", "unknown state family 'mystery'"),
        ("wclass:one,0,0", "cannot parse number 'one'"),
        ("schmidt3", "state spec 'schmidt3' has no ':' separator"),
        ("wclass:1/0,0,1", "division by zero in '1/0'"),
        ("wclass:sqrt(-1),0,1", "sqrt of negative number in 'sqrt(-1)'"),
        ("haar:2x2:abc", "cannot parse seed 'abc'"),
        # Python's own int() and float() read each of these as another number
        ("haar:2x2x2:1_0", "cannot parse seed '1_0'"),
        ("haar:2_2x2:3", "cannot parse dims '2_2x2'"),
        ("haar:2x2x2:\u0663", "cannot parse seed '\u0663'"),
        ("haar:2x\uff12:1", "cannot parse dims '2x\uff12'"),
        ("wclass:0_5,0_5,sqrt(2)/2", "cannot parse number '0_5'"),
        ("wclass:sqrt(0_5),0.5,0.5", "cannot parse number '0_5'"),
        ("wclass:1/2/3,0,1", "cannot parse number '1/2/3'"),
        ("schmidt3:1,0,0,0,0,\u0665", "cannot parse number '\u0665'"),
        # a fraction inside a root is the root's, and refused as any fraction
        ("wclass:sqrt(1/0),0,1", "division by zero in '1/0'"),
        ("wclass:sqrt(1/2/3),0,1", "cannot parse number '1/2/3'"),
        ("wclass:sqrt(1/2)/2/3,0,1", "cannot parse number 'sqrt(1/2)/2/3'"),
    ]

    @pytest.mark.parametrize("bad,seen", REJECTED, ids=[bad for bad, _ in REJECTED])
    def test_rejects(self, bad, seen):
        with pytest.raises(StateSpecError) as exc:
            parse_state_spec(bad)
        assert str(exc.value) == seen

    @pytest.mark.parametrize("spec,same", [
        ("wclass:sqrt(1/2),0.5,0.5", "wclass:sqrt(2)/2,0.5,0.5"),
        ("wclass:0.5,sqrt(1/4),sqrt(2)/2", "wclass:0.5,0.5,sqrt(2)/2"),
        ("wclass:sqrt(1/2)/2,sqrt(3)/2,sqrt(1/8)", "wclass:sqrt(2)/4,sqrt(3)/2,sqrt(2)/4"),
        ("schmidt3:1,0,0,0,0,-sqrt(1/2)", "schmidt3:1,0,0,0,0,-sqrt(2)/2"),
        ("wclass: sqrt( 1 / 2 ) ,0.5,0.5", "wclass:sqrt(2)/2,0.5,0.5"),
    ])
    def test_fraction_inside_a_root(self, spec, same):
        """A / inside sqrt(...) belongs to the root; sqrt(1/2) and sqrt(2)/2
        are both the double 0x1.6a09e667f3bcdp-1."""
        assert parse_state_spec(spec).amps.tobytes() == parse_state_spec(same).amps.tobytes()
        root = float.fromhex("0x1.6a09e667f3bcdp-1")
        assert parse_state_spec("wclass:sqrt(1/2),0.5,0.5").amps[0b100] == root

    def test_whitespace_lenient(self):
        want = parse_state_spec("haar:2x2x2:5").amps
        assert parse_state_spec("haar: 2 x 2 x 2 : 5").amps.tobytes() == want.tobytes()
        assert parse_state_spec(" wclass: 1/2 , 0.5 ,sqrt( 2 )/ 2 ").amps.tobytes() == \
            parse_state_spec("wclass:0.5,0.5,sqrt(2)/2").amps.tobytes()


class TestReadNumber:
    @pytest.mark.parametrize("text,kind", [
        ("7", int), (" 7 ", int), ("-3", int), ("+0", int), ("007", int),
        ("0.5", float), ("-1e-3", float), (" 2 ", float), ("inf", float), ("nan", float),
        ("1E+2", float), (".5", float),
    ])
    def test_reads_ascii_as_python_does(self, text, kind):
        got = read_number(text, kind, "unused")
        assert type(got) is kind and repr(got) == repr(kind(text))

    @pytest.mark.parametrize("text,kind", [
        ("1_0", int), ("1_0", float), ("0_5", float), ("1_0.5", float), ("1e1_0", float),
        ("\u0663", int), ("\u0663", float), ("\uff11", int), ("1\u00a0", float),
        ("2.5", int), ("", int), ("", float), ("x", float), ("0x10", int),
    ])
    def test_refuses_the_rest(self, text, kind):
        with pytest.raises(StateSpecError) as exc:
            read_number(text, kind, f"cannot parse {text!r}")
        assert str(exc.value) == f"cannot parse {text!r}"
        assert exc.value.__context__ is None  # no chained int() or float() error


class TestConstructorsRaiseWithoutWarnings:
    """Bad coefficients and phases raise their ValueError, and no NumPy
    floating-point warning comes first (pyproject.toml makes one an error)."""

    @pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan])
    def test_non_finite_phase(self, phi):
        with pytest.raises(ValueError) as exc:
            schmidt3_state(1, 0, 0, 0, 0, phi=phi)
        assert str(exc.value) == f"phase phi must be finite, got {phi!r}"

    @pytest.mark.parametrize("make", [
        lambda: w_class_state(1e200, 1e200, 0),
        lambda: w_class_amps([[0.6, 0.8, 0.0], [1e200, 0.0, 1e200]]),
        lambda: schmidt3_state(1e200, 1e200, 0, 0, 0),
        lambda: parse_state_spec("schmidt3:1e200,1e200,0,0,0"),
    ], ids=["w_class_state", "w_class_amps", "schmidt3_state", "spec"])
    def test_overflowing_norm_is_inf(self, make):
        with np.errstate(all="raise"):
            with pytest.raises(ValueError) as exc:
                make()
        assert str(exc.value) == "coefficients have norm inf, more than 1e-06 away from 1"
