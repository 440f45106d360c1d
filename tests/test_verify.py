import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest

from monogamy import bounds, verify
from monogamy.verify import (
    MIN_LOG2_RATIO,
    SCALAR_BLOCK,
    SweepGrid,
    VerificationReport,
    default_grid,
    dominance_scan,
    verify_dominance,
    verify_monogamy_states,
    verify_polygamy_states,
    verify_scalar,
)


class TestSweepGrid:
    def test_values_inclusive(self):
        grid = SweepGrid(0.0, 1.0, 0.25, 2.0, 3.0, 0.5)
        assert np.allclose(grid.values1(), [0, 0.25, 0.5, 0.75, 1.0])
        assert np.allclose(grid.values2(), [2, 2.5, 3])

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            SweepGrid(0, 1, 0, 0, 1, 0.1)
        with pytest.raises(ValueError):
            SweepGrid(1, 0, 0.1, 0, 1, 0.1)

    def test_rejects_huge_grid(self):
        with pytest.raises(ValueError, match="10\\^6"):
            SweepGrid(0, 1, 1e-7, 0, 1, 1e-3)

    @pytest.mark.parametrize("fields", [
        (0, 1, 1e-7, 0, 1, 1e-3),
        (0, 1, 1e-9, 0, 0, 1),  # one value on the other axis
        (0, 1e308, 1e-308, 2, 5, 0.01),  # the span ratio overflows to inf
        (-1e308, 1e308, 1, 0, 1, 1),  # the span overflows to inf
    ])
    def test_rejects_oversize_grid_before_building_an_axis(self, monkeypatch, fields):
        def no_axis(*args):
            raise AssertionError("an axis was built")

        monkeypatch.setattr(verify, "_axis", no_axis)
        start1, stop1, step1, start2, stop2, step2 = fields
        with pytest.raises(ValueError, match="10\\^6"):
            SweepGrid(start1, stop1, step1, start2, stop2, step2)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_fields(self, bad):
        for i in range(6):
            fields = [0.0, 1.0, 0.5, 0.0, 1.0, 0.5]
            fields[i] = bad
            with pytest.raises(ValueError, match="finite"):
                SweepGrid(*fields[:3], *fields[3:])

    def test_end_point_kept_at_large_magnitude(self):
        # start + step * k lands one ulp (3.6e-12) above 20999.67 at the last
        # k, which an absolute 1e-12 tolerance would drop
        grid = SweepGrid(6.47, 20999.67, 0.62, 0, 0, 1)
        values = grid.values1()
        assert len(values) == 33_861
        assert values[-1] == pytest.approx(20999.67, rel=1e-15)

    def test_cap_is_exact_below_the_count_check(self):
        # 1000 x 1000 cells pass; 1000 x 1001 pass the count check
        # (999 * 1000 <= 10^6) and are rejected by the exact one
        grid = SweepGrid(0, 999, 1, 0, 999, 1)
        assert len(grid.values1()) * len(grid.values2()) == 10**6
        with pytest.raises(ValueError, match="10\\^6"):
            SweepGrid(0, 999, 1, 0, 1000, 1)
        # an axis that drops its last value: 0.4 > 0.3 leaves 2 of 3 values
        grid = SweepGrid(0, 0.3, 0.2, 0, 0.3, 0.2)
        assert grid.values1().tolist() == [0.0, 0.2]


class TestVerifyScalar:
    def test_zero_samples(self):
        rep = verify_scalar(0)
        assert rep.total == 0 and rep.failures == 0

    def test_clean_run(self):
        rep = verify_scalar(20_000, seed=42)
        assert rep.failures == 0
        assert rep.total == 8 * 20_000

    def test_deterministic(self):
        a = verify_scalar(5_000, seed=9)
        b = verify_scalar(5_000, seed=9)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_harness_detects_violations(self):
        # deliberately inverted inequality: the lower bound asserted as an
        # upper bound must trip the failure counter
        rng = np.random.default_rng(3)
        a = rng.uniform(1, 5, 100)
        t = rng.uniform(a, 50)
        x = rng.uniform(0.1, 1.0, 100)
        margins = bounds.scalar_lower_bound(t, x, a) - (1 + t) ** x
        rep = VerificationReport()
        rep.record(margins, 1e-12, lambda i: f"inverted[{i}]")
        assert rep.failures > 0
        assert rep.failure_samples


class TestVerifyStates:
    def test_monogamy_clean(self):
        rep = verify_monogamy_states(200, seed=1)
        assert rep.failures == 0
        assert rep.total == 200 * 8

    def test_monogamy_four_qubit(self):
        rep = verify_monogamy_states(50, seed=2, n_qubits=4)
        assert rep.failures == 0

    def test_polygamy_clean(self):
        rep = verify_polygamy_states(200, seed=1)
        assert rep.failures == 0
        assert rep.total > 0

    def test_polygamy_fixed_s(self):
        rep = verify_polygamy_states(100, seed=4, s=1.0)
        assert rep.failures == 0

    def test_deterministic(self):
        a = verify_polygamy_states(100, seed=7)
        b = verify_polygamy_states(100, seed=7)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)


    def test_empty_beta_grid_skips_as_the_default_grid(self):
        # the skips come from the ratio mask, which needs no target
        default = verify_polygamy_states(40, seed=1)
        empty = verify_polygamy_states(40, seed=1, beta_grid=[])
        assert (empty.skipped, empty.total) == (default.skipped, 0)
        assert default.skipped == 8


@pytest.mark.parametrize("suite,kwargs,want", [
    (verify_monogamy_states, {"r": 1.0}, "monogamy base exponent must be >= 2, got 1.0"),
    (verify_monogamy_states, {"alpha_grid": [5]},
     "monogamy target exponent must be in [0, 2.0], got 5.0"),
    (verify_monogamy_states, {"alpha_grid": [0.5, 5]},
     "monogamy target exponent must be in [0, 2.0], got 5.0 (row 0, target 1)"),
    (verify_monogamy_states, {"n_qubits": 9}, "measure_vector needs an n-qubit pure state "
     "with 3 <= n <= 6, got dims (2, 2, 2, 2, 2, 2, 2, 2, 2)"),
    (verify_polygamy_states, {"s": 1.5}, "polygamy base exponent must be in (0, 1], got 1.5"),
    (verify_polygamy_states, {"s": 0.0}, "polygamy base exponent must be in (0, 1], got 0.0"),
])
def test_bad_parameters_raise_without_samples(suite, kwargs, want):
    """n = 0 raises the message of n = 1, on every call: the monogamy suite's
    cached spec keeps no exception."""
    for n in (0, 1, 0, 1):
        with pytest.raises(ValueError) as exc:
            suite(n, **kwargs)
        assert str(exc.value) == want


def test_monogamy_spec_is_built_once_per_r_and_alphas(monkeypatch):
    """Calls with the same r and alphas share one spec, whatever the sample
    count, seed or qubit count; the spec is frozen and its arrays read-only."""
    built, specs, real_spec, real_rows = [], [], bounds.BoundSpec, bounds.margin_rows

    def counting(*args, **kwargs):
        built.append(args)
        return real_spec(*args, **kwargs)

    def recording(one_vs_rest, pairwise, spec):
        specs.append(spec)
        return real_rows(one_vs_rest, pairwise, spec)

    monkeypatch.setattr(bounds, "BoundSpec", counting)
    monkeypatch.setattr(bounds, "margin_rows", recording)
    verify._monogamy_spec.cache_clear()
    try:
        for n_qubits in (3, 5):
            for seed in (1, 2):
                verify_monogamy_states(70, seed=seed, n_qubits=n_qubits)
                verify_monogamy_states(0, seed=seed, n_qubits=n_qubits)
                verify_monogamy_states(5, seed=seed, r=3, alpha_grid=np.array([0.5, 3.0]))
                verify_monogamy_states(5, seed=seed, r=3.0, alpha_grid=(0.5, 3))
    finally:
        verify._monogamy_spec.cache_clear()
    assert built == [("monogamy", 2.0, verify.default_alpha_grid(2.0)),
                     ("monogamy", 3.0, (0.5, 3.0))]
    assert len(specs) == 4 * (2 + 1 + 1 + 1) and len({id(spec) for spec in specs}) == 2
    assert not any(spec.target_exp.flags.writeable for spec in specs)
    assert all(type(alpha) is float for _, _, alphas in built for alpha in alphas)


@pytest.mark.parametrize("s,beta_grid,want", [
    (0.5, [math.nan], "polygamy target exponent must be >= 0.5, got nan"),
    (0.5, [0.25, 1.0, math.nan], "polygamy target exponent must be >= 0.5, got nan "
     "(row 0, target 2)"),
    (None, [math.nan], "polygamy target exponent must be >= 1.0, got nan"),
])
def test_polygamy_nan_beta_raises(s, beta_grid, want):
    """A NaN beta is not cut off like a beta below s: the spec rejects it."""
    with pytest.raises(ValueError) as exc:
        verify_polygamy_states(1, s=s, beta_grid=beta_grid)
    assert str(exc.value) == want


@pytest.mark.parametrize("s,beta_grid,want", [
    (0.5, [math.nan], "polygamy target exponent must be >= 0.5, got nan"),
    (0.5, [0.25, math.nan], "polygamy target exponent must be >= 0.5, got nan "
     "(row 0, target 1)"),
    (None, [math.nan], "polygamy target exponent must be >= 1.0, got nan"),
    (None, [0.25, 1.0, math.nan], "polygamy target exponent must be >= 1.0, got nan "
     "(row 0, target 2)"),
])
def test_polygamy_nan_beta_raises_without_samples(s, beta_grid, want):
    """n = 0 raises the message of n = 1: the betas are checked as at the
    largest s a sample takes, 1 or the fixed s, whatever n is."""
    for n in (0, 1):
        with pytest.raises(ValueError) as exc:
            verify_polygamy_states(n, s=s, beta_grid=beta_grid)
        assert str(exc.value) == want


def patch_pairwise(monkeypatch, rows):
    """Make the suites measure the pairwise values ``rows``, one row per
    sample in sample order, with their true one-vs-rest values; return the
    list that collects the ``base_exp`` and ``a`` of the spec of each
    ``margin_rows`` call."""
    rows, real_measure, real_rows, calls = iter(rows), verify.measure_vectors, bounds.margin_rows, []

    def measure(amps, dims, kind):
        first, _ = real_measure(amps, dims, kind)
        return first, np.array([next(rows) for _ in first])

    def margin_rows(one_vs_rest, pairwise, spec):
        calls.append((spec.base_exp, spec.a))
        return real_rows(one_vs_rest, pairwise, spec)

    monkeypatch.setattr(verify, "measure_vectors", measure)
    monkeypatch.setattr(bounds, "margin_rows", margin_rows)
    monkeypatch.setattr(verify, "MAX_FAILURE_SAMPLES", 10**5)
    return calls


def test_polygamy_s_rule_keeps_math_log2_bits(monkeypatch):
    """Each sample's s is min(1, math.log2(hi / lo)) and its a is 2.0**s, bit
    for bit: an array log2 may differ from math.log2 in the last bit."""
    rng = np.random.default_rng(5)
    ratios = 2.0 ** rng.uniform(MIN_LOG2_RATIO, 1.0, 2000)
    # ratios this close to 2 pass the ratio condition at a = 2^s, so that
    # their s also shows in the failure descriptors
    ratios[::4] = 2.0 * (1.0 - rng.integers(1, 50, 500) * 1e-14)
    lo = rng.uniform(0.05, 0.45, ratios.size)
    rows = np.column_stack((lo, lo * ratios))
    rows[::2] = rows[::2, ::-1]  # either order
    calls = patch_pairwise(monkeypatch, rows)
    rep = verify_polygamy_states(len(rows), seed=3, tol=-math.inf)
    want = [min(1.0, math.log2(hi / lo)) for lo, hi in np.sort(rows, axis=1).tolist()]
    assert np.concatenate([s for s, _ in calls]).tolist() == want
    assert np.concatenate([a for _, a in calls]).tolist() == [2.0**s for s in want]
    assert rep.failures == len(rep.failure_samples) > 0
    assert all(s == want[k] for (k, s, _), _ in rep.failure_samples)


@pytest.mark.parametrize("s", [None, 0.7])
def test_polygamy_skips_degenerate_rows(monkeypatch, s):
    """One block mixes zero pairwise values, log2 ratios below MIN_LOG2_RATIO,
    failing ratio conditions (at a = 2^s, ratios below 2) and ordinary rows:
    the first kind is skipped at any s, the other two only at s = None, and
    every other row is recorded under its own state index."""
    kinds = {
        "zero": [(0.0, 0.3), (0.4, 0.0), (0.0, 0.0)],
        "close": [(0.3, 0.3), (0.2, 0.2 * 2**0.01)],
        "ratio": [(0.2, 0.3), (0.5, 0.3)],
        "ordinary": [(0.1, 0.3), (0.4, 0.1), (0.05, 0.5)],
    }
    order = ["ordinary", "zero", "close", "ordinary", "ratio", "zero", "close", "ordinary",
             "ratio", "zero"]
    counters = {kind: iter(rows) for kind, rows in kinds.items()}
    rows = [next(counters[kind]) for kind in order]
    calls = patch_pairwise(monkeypatch, rows)
    rep = verify_polygamy_states(len(rows), seed=4, s=s, tol=-math.inf)
    [(base_exp, _)] = calls  # one block
    dropped = ("zero", "close", "ratio") if s is None else ("zero",)
    kept = [i for i, kind in enumerate(order) if kind not in dropped]
    # a degenerate row is evaluated at s = 1, or at the fixed s
    base_exp = np.broadcast_to(base_exp, len(rows))
    assert all(base_exp[i] == (s or 1.0) for i, kind in enumerate(order)
               if kind in ("zero", "close"))
    assert rep.skipped == len(rows) - len(kept)
    assert rep.failures == rep.total == len(rep.failure_samples) == 8 * len(kept)
    assert sorted({k for (k, _, _), _ in rep.failure_samples}) == kept
    assert all(type(k) is int for (k, _, _), _ in rep.failure_samples)


CUT_GRID = [0.3, 0.55, 0.8, 1.0, 1.7, 2.5]  # a shared grid with betas below some s


def descriptor_reference(monkeypatch, n, seed, beta_grid):
    """The report of ``verify_polygamy_states(n, seed, tol=-inf)`` and the
    ((start + row, s, beta), margin) of every checked cell in C order, rebuilt
    from the pairwise values, spec and results of each ``margin_rows`` call:
    a row is checked if its ratio condition holds and its log2 ratio is at
    least MIN_LOG2_RATIO, and a cell if its beta is at least the row's s."""
    calls, real = [], bounds.margin_rows

    def recording(one_vs_rest, pairwise, spec):
        margins, ok = real(one_vs_rest, pairwise, spec)
        calls.append((pairwise, spec.base_exp, margins, ok.copy()))  # the suite masks ok in place
        return margins, ok

    monkeypatch.setattr(bounds, "margin_rows", recording)
    rep = verify_polygamy_states(n, seed, beta_grid=beta_grid, tol=-math.inf)
    want = []
    for block, (pairwise, s_k, margins, ok) in enumerate(calls):
        for i, (lo, hi) in enumerate(np.sort(pairwise, axis=1).tolist()):
            if not (ok[i] and lo != 0 and math.log2(hi / lo) >= MIN_LOG2_RATIO):
                continue
            s = float(s_k[i])
            grid = np.linspace(s, 3.0, 8) if beta_grid is None else beta_grid
            want += [((block * verify.STATE_BLOCK + i, s, float(beta)), float(margins[i, k]))
                     for k, beta in enumerate(grid) if beta >= s]
    return rep, want, len(calls)


@pytest.mark.parametrize("beta_grid", [None, CUT_GRID])
@pytest.mark.parametrize("seed", [0, 5])
def test_polygamy_failure_descriptors_name_the_checked_cells(monkeypatch, seed, beta_grid):
    """At tol = -inf every checked cell fails; the descriptors of two blocks
    are the reference cells in order, up to MAX_FAILURE_SAMPLES."""
    rep, want, blocks = descriptor_reference(monkeypatch, 90, seed, beta_grid)
    assert blocks == 2 and rep.failures == rep.total == len(want)
    assert rep.failure_samples == want[:verify.MAX_FAILURE_SAMPLES]
    if beta_grid is not None:  # some betas are cut off
        assert len(want) < len(CUT_GRID) * (90 - rep.skipped)
    monkeypatch.setattr(verify, "MAX_FAILURE_SAMPLES", 10**5)
    rep, want, _ = descriptor_reference(monkeypatch, 90, seed, beta_grid)
    assert rep.failure_samples == want and want[-1][0][0] >= verify.STATE_BLOCK
    assert all(type(k) is int and type(s) is float and type(beta) is float
               for (k, s, beta), _ in rep.failure_samples)


def counting(monkeypatch, name):
    """Wrap ``bounds.name`` so that each call appends its ``variant`` argument."""
    calls, real = [], getattr(bounds, name)
    signature = inspect.signature(real)

    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments["variant"])
        return real(*args, **kwargs)

    monkeypatch.setattr(bounds, name, wrapper)
    return calls


@pytest.mark.parametrize("n,blocks", [(50, 1), (2 * SCALAR_BLOCK + 1, 3)])
def test_verify_scalar_makes_four_bound_calls_per_block(monkeypatch, n, blocks):
    lower = counting(monkeypatch, "scalar_lower_bound")
    upper = counting(monkeypatch, "scalar_upper_bound")
    verify_scalar(n, seed=3)
    assert lower == [("ours", "jfq"), ("ours", "zjz1", "zjz2")] * blocks
    assert upper == ["ours", ("ours", "jfq", "zjz1", "zjz2")] * blocks


def unblocked_draws(n, seed):
    """The eight arrays of ``unblocked_scalar``: n draws each, in turn, by
    ``uniform`` from one ``default_rng(seed)`` stream."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(1.0, 10.0, n)
    t = rng.uniform(a, 100.0)
    x_lo = rng.uniform(0.0, 1.0, n)
    x_lo[x_lo == 0.0] = 1.0
    x_half = rng.uniform(0.0, 0.5, n)
    x_half[x_half == 0.0] = 0.5
    x_up = rng.uniform(1.0, 8.0, n)
    x_dom = rng.uniform(1.0, 6.0, n)
    p = rng.uniform(0.5, 1.0, n)
    q = rng.uniform(0.0, 1.0, n)
    q[q == 0.0] = 1.0
    return a, t, x_lo, x_half, x_up, x_dom, p, q


@pytest.mark.parametrize("seed", [0, 12345])
def test_verify_scalar_hands_the_bounds_the_uniform_draws(monkeypatch, seed):
    # the block buffers are reused, so each argument is copied at call time;
    # an array the bounds see must equal uniform's draws in every bit, which
    # the report, of worst margins and failures only, would not show
    seen = {"lower": [], "upper": []}
    for name in seen:
        real = getattr(bounds, f"scalar_{name}_bound")

        def capture(t, x, a, variant="ours", p=0.5, real=real, calls=seen[name]):
            calls.append([np.array(v, copy=True) for v in (t, x, a, p)])
            return real(t, x, a, variant, p=p)

        monkeypatch.setattr(bounds, f"scalar_{name}_bound", capture)
    n = 2 * SCALAR_BLOCK + 5
    verify_scalar(n, seed=seed)
    lower, upper = seen["lower"], seen["upper"]
    assert len(lower) == len(upper) == 6  # two of each per block, three blocks
    for block in range(3):  # the four calls of a block share its t and a
        t, _, a, _ = lower[2 * block]
        for other in (upper[2 * block], lower[2 * block + 1], upper[2 * block + 1]):
            assert np.array_equal(other[0], t) and np.array_equal(other[2], a)
    got = {"a": [call[2] for call in lower[::2]], "t": [call[0] for call in lower[::2]],
           "x_lo": [call[1] for call in lower[::2]], "x_half": [call[1] for call in lower[1::2]],
           "x_up": [call[1] for call in upper[::2]], "x_dom": [call[1] for call in upper[1::2]],
           "p": [call[3] for call in lower[1::2]], "q": [call[3] for call in upper[1::2]]}
    for (name, blocks), want in zip(got.items(), unblocked_draws(n, seed)):
        assert [len(block) for block in blocks] == [SCALAR_BLOCK, SCALAR_BLOCK, 5]
        assert np.array_equal(np.concatenate(blocks), want), name


def unblocked_scalar(n, seed=0, tol=1e-12, rtol=1e-9):
    """``verify_scalar`` as one pass over all n samples: the eight arrays are
    drawn in turn from one ``default_rng(seed)`` stream and each family is
    recorded once, labelled ``family[i]``."""
    report = VerificationReport()
    a, t, x_lo, x_half, x_up, x_dom, p, q = unblocked_draws(n, seed)

    def record(label, margins, tol):
        report.record(margins, tol, lambda i: f"{label}[{i}]")

    t1 = 1 + t
    ours, jfq = bounds.scalar_lower_bound(t, x_lo, a, ("ours", "jfq"))
    record("scalar-lower", np.power(t1, x_lo) - ours, tol)
    ours_up = bounds.scalar_upper_bound(t, x_up, a)
    exact = np.power(t1, x_up)
    record("scalar-upper", (ours_up - exact) / exact, rtol)
    record("dominance-lower-jfq", ours - jfq, tol)
    ours, zjz1, zjz2 = bounds.scalar_lower_bound(t, x_half, a, ("ours", "zjz1", "zjz2"), p=p)
    record("dominance-lower-zjz1", ours - zjz1, tol)
    record("dominance-lower-zjz2", ours - zjz2, tol)
    ours, *others = bounds.scalar_upper_bound(t, x_dom, a, ("ours", "jfq", "zjz1", "zjz2"), p=q)
    exact = np.power(t1, x_dom)
    for name, other in zip(("jfq", "zjz1", "zjz2"), others):
        record(f"dominance-upper-{name}", (other - ours) / exact, rtol)
    return report


B = SCALAR_BLOCK


class TestScalarBlocks:
    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 5, 20_000])
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_blocks_give_the_unblocked_report(self, n, seed):
        assert dataclasses.asdict(verify_scalar(n, seed)) == dataclasses.asdict(
            unblocked_scalar(n, seed))

    @pytest.mark.parametrize("cut,shift,n,failing", [
        (95.0, 1.0, 3 * B + 5, ["scalar-lower"]),
        (99.9, 1.0, 20_000, ["scalar-lower"]),
        (99.9, -1.0, 20_000, ["dominance-lower-jfq", "dominance-lower-zjz1",
                              "dominance-lower-zjz2"]),
    ])
    def test_planted_failures_keep_labels_order_and_cap(self, monkeypatch, cut, shift, n,
                                                        failing):
        # ours moves by shift where t > cut: a gain fails scalar-lower there,
        # a loss the three lower dominance families.  At t > 95 the cap of 100
        # fills in the first block; at t > 99.9 a few failures fall in each
        real = bounds.scalar_lower_bound

        def planted(t, x, a, variant="ours", p=0.5):
            ours, *others = real(t, x, a, variant, p=p)
            return (ours + np.where(t > cut, shift, 0.0), *others)

        monkeypatch.setattr(bounds, "scalar_lower_bound", planted)
        got, want = verify_scalar(n, seed=2), unblocked_scalar(n, seed=2)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)
        labels = [label[:-1].split("[") for label, _ in got.failure_samples]
        keys = [(failing.index(family), int(i)) for family, i in labels]
        assert keys == sorted(keys)  # family by family, each in sample order
        if cut == 95.0:
            assert got.failures > len(labels) == verify.MAX_FAILURE_SAMPLES
        else:
            assert {family for family, _ in labels} == set(failing)
            assert len({int(i) // B for _, i in labels}) > 1  # failures in several blocks

    @pytest.mark.parametrize("n", [4 * B, 40 * B])
    def test_memory_stays_flat_in_n(self, n):
        verify_scalar(B)  # imports and caches outside the traced call
        tracemalloc.start()
        try:
            verify_scalar(n, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


@pytest.mark.parametrize("example", ["example1", "example2"])
def test_dominance_scan_makes_one_bound_call(monkeypatch, example):
    calls = counting(monkeypatch, "tripartite_bound")
    dominance_scan(example)
    assert calls == [("jfq", "zjz2", "ours")]


@pytest.mark.parametrize("suite", [verify_scalar, verify_monogamy_states, verify_polygamy_states])
def test_negative_sample_count_raises(suite):
    with pytest.raises(ValueError, match="sample count n must be nonnegative, got -4"):
        suite(-4)
    with pytest.raises(ValueError, match=r"sample count n must be an integer, got 2\.9"):
        suite(2.9)
    assert suite(0).summary()["total"] == 0


SUITES = [verify_scalar, verify_monogamy_states, verify_polygamy_states]


@pytest.mark.parametrize("suite", SUITES)
def test_seed_is_read_by_the_seed_rule(suite):
    """A seed equal to a whole number runs as that int, and a NumPy integer
    or a bool keeps the int's stream."""
    want = suite(40, seed=2)
    assert suite(40, seed=2.0) == want and suite(40, seed=np.int64(2)) == want
    assert suite(40, seed=True) == suite(40, seed=1)
    assert suite(40, seed=np.uint32(7)) == suite(40, seed=7)


@pytest.mark.parametrize("suite", SUITES)
@pytest.mark.parametrize("seed,error,want", [
    (2.5, ValueError, "seed must be an integer, got 2.5"),
    ("3", ValueError, "seed must be an integer, got 3"),
    (-1, ValueError, "seed must be nonnegative, got -1"),
    (-1.0, ValueError, "seed must be nonnegative, got -1"),
    (None, TypeError, None),
    ([1, 2], TypeError, None),
], ids=["fraction", "string", "negative", "negative-float", "none", "sequence"])
def test_seed_that_is_not_a_nonnegative_whole_number_raises(suite, seed, error, want):
    """At every n, and before any draw: None would draw from the operating
    system's entropy, and a sequence would be an entropy sequence."""
    for n in (0, 5):
        with pytest.raises(error) as exc:
            suite(n, seed=seed)
        if want is not None:
            assert str(exc.value) == want


def test_qubit_count_is_read_whole():
    with pytest.raises(ValueError) as exc:
        verify_monogamy_states(3, seed=1, n_qubits=4.9)
    assert str(exc.value) == "qubit count must be an integer, got 4.9"
    want = verify_monogamy_states(3, seed=1, n_qubits=4)
    for n_qubits in (4.0, np.int64(4)):
        assert verify_monogamy_states(3, seed=1, n_qubits=n_qubits) == want
    assert verify_monogamy_states(np.int64(3), seed=1, n_qubits=4) == want


class TestDominance:
    def test_example1_rows(self):
        grid = default_grid("example1")
        header, rows = dominance_scan("example1", grid)
        assert header == ["alpha", "r", "Z1", "Z2", "Z3"]
        assert len(rows) == len(grid.values1()) * len(grid.values2())

    def test_example1_fixture_values(self):
        _, rows = dominance_scan(
            "example1", SweepGrid(1, 1, 1, 2, 2, 1)
        )
        alpha, r, z1, z2, z3 = rows[0]
        assert abs(z3 - 0.644687860538) < 1e-9
        assert abs(z1 - 0.630334627338) < 1e-9
        assert z3 > z1 and z3 > z2

    def test_example2_collapse_at_beta_equals_s(self):
        _, rows = dominance_scan(
            "example2", SweepGrid(0.7, 0.7, 1, 0.7, 0.7, 1)
        )
        beta, s, w1, w2, w3, d1, d2 = rows[0]
        # exponent ratio collapses to 1: our bound is the bare power sum
        assert abs(w3 - (0.25**0.7 + 0.5**0.7)) < 1e-12
        assert d1 >= -1e-12 and d2 >= -1e-12
        assert abs(beta - s) < 1e-12

    def test_example1_ordering(self):
        rep = verify_dominance("example1")
        assert rep.failures == 0
        assert rep.worst_margin >= -1e-12

    def test_example2_ordering(self):
        rep = verify_dominance("example2")
        assert rep.failures == 0
        assert rep.worst_margin >= -1e-12

    @pytest.mark.parametrize("example", ["example1", "example2"])
    def test_rows_do_not_depend_on_the_grid(self, example):
        # one first-axis value per scan gives the full scan's rows bit for bit
        grid = default_grid(example)
        _, table = dominance_scan(example, grid)
        parts = [dominance_scan(example, dataclasses.replace(grid, start1=v, stop1=v))[1]
                 for v in grid.values1()]
        assert np.array_equal(np.concatenate(parts), table, equal_nan=True)

    def test_example1_z2_nan_outside_its_domain(self):
        _, table = dominance_scan("example1", SweepGrid(1, 2, 0.5, 2, 2, 1))
        assert table[:, 1].tolist() == [2.0] * 3
        assert not np.isnan(table[0, 3]) and np.isnan(table[1:, 3]).all()
        assert not np.isnan(np.delete(table, 3, axis=1)).any()

    def test_overflowing_cell_raises(self):
        grid = SweepGrid(0.6, 0.6, 0.1, 0.6, 2000, 500)
        with pytest.raises(FloatingPointError, match="overflow"):
            dominance_scan("example2", grid)

    @pytest.mark.parametrize("fn", [dominance_scan, default_grid], ids=lambda fn: fn.__name__)
    def test_unknown_example(self, fn):
        with pytest.raises(ValueError, match="unknown example 'example3'"):
            fn("example3")

    @pytest.mark.parametrize("slot", [0, 1], ids=["w_small", "w_large"])
    def test_too_strong_ours_fails_example2(self, monkeypatch, slot):
        """A planted defect: one of ours' two weights 1e-9 too large makes
        the bound stronger than it may be, and the example 2 scan fails."""
        real = bounds._weights

        def planted(variants, x, a, p):
            for name, weights in zip(variants, real(variants, x, a, p)):
                if name == "ours":
                    weights = list(weights)
                    weights[slot] = weights[slot] * (1 + 1e-9)
                yield tuple(weights)

        monkeypatch.setattr(bounds, "_weights", planted)
        assert verify_dominance("example2").failures == 106


def test_report_merge_and_summary():
    a = VerificationReport()
    a.record([1.0], 1e-9, lambda i: "good")
    a.record([-1.0], 1e-9, lambda i: "bad")
    b = VerificationReport()
    b.record([-2.0], 1e-9, lambda i: "worse")
    b.skipped += 1
    a.merge(b)
    assert a.summary() == {
        "total": 3,
        "failures": 2,
        "skipped": 1,
        "worst_margin": -2.0,
    }
    assert math.isinf(VerificationReport().worst_margin)


def test_nan_tolerance_raises():
    """A NaN tol would pass every margin; +-inf keep their meaning."""
    with pytest.raises(ValueError, match="tolerance tol must be a number, got nan"):
        VerificationReport().record([-1.0, 0.5], math.nan, str)
    for tol, failures in ((-math.inf, 2), (math.inf, 0)):
        rep = VerificationReport()
        rep.record([-1.0, 0.5], tol, str)
        assert rep.failures == failures


def test_record_describes_failing_entries_only():
    calls = []

    def describe(i):
        calls.append(i)
        return f"entry{i}"

    rep = VerificationReport()
    rep.record(np.array([1.0, -1.0, 0.5, -2.0]), 1e-9, describe)
    assert calls == [1, 3]
    assert rep.failure_samples == [("entry1", -1.0), ("entry3", -2.0)]
    assert (rep.total, rep.failures, rep.worst_margin) == (4, 2, -2.0)


def test_record_counts_non_finite_margins_as_failures():
    rep = VerificationReport()
    rep.record([math.nan, 0.5], 1e-8, lambda i: f"entry{i}")
    assert (rep.failures, rep.worst_margin) == (1, 0.5)
    [(name, margin)] = rep.failure_samples
    assert name == "entry0" and math.isnan(margin)
    rep.record([math.inf, -math.inf, -0.25], 1e-8, lambda i: f"more{i}")
    assert (rep.total, rep.failures, rep.worst_margin) == (5, 4, -0.25)
    assert [name for name, _ in rep.failure_samples] == ["entry0", "more0", "more1", "more2"]


def reference_record(report, margins, tol, describe):
    """``VerificationReport.record`` one margin at a time."""
    margins = [float(m) for m in np.ravel(margins)]
    report.total += len(margins)
    finite = [m for m in margins if math.isfinite(m)]
    if finite:
        report.worst_margin = min(report.worst_margin, min(finite))
    for i, m in enumerate(margins):
        if not math.isfinite(m) or m < -tol:
            report.failures += 1
            if len(report.failure_samples) < verify.MAX_FAILURE_SAMPLES:
                report.failure_samples.append((describe(i), m))


@pytest.mark.parametrize("blocks", [
    [[0.5, 0.25], [math.nan, 0.1], [0.3]],
    [[0.2], [math.inf, 0.4], [-math.inf, 0.1, 0.05]],
    [[0.5, -1e-8, 0.1], [-1e-8], [-1.0000001e-8, 0.0]],
    [[], [0.5], [], [math.nan], []],
    [[-1.0] * 60, [0.5] * 30, [-2.0] * 60, [0.1], [math.nan, -3.0]],
    [[1e300, -0.0], [np.finfo(float).max], [-np.finfo(float).max]],
])
def test_record_fast_path_matches_the_general_path(blocks):
    """Blocks with every margin finite and at least -tol skip the failure
    scan; each report equals the one-margin-at-a-time reference."""
    got, want = VerificationReport(), VerificationReport()
    for k, block in enumerate(blocks):
        describe = lambda i, k=k: (k, i)  # noqa: E731
        got.record(np.array(block, dtype=float), 1e-8, describe)
        reference_record(want, block, 1e-8, describe)
        assert repr(got) == repr(want)
    assert len(got.failure_samples) <= verify.MAX_FAILURE_SAMPLES
