import dataclasses
import math

import numpy as np
import pytest

from monogamy import bounds, verify
from monogamy.verify import (
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
        grid = SweepGrid("a", 0.0, 1.0, 0.25, "b", 2.0, 3.0, 0.5)
        assert np.allclose(grid.values1(), [0, 0.25, 0.5, 0.75, 1.0])
        assert np.allclose(grid.values2(), [2, 2.5, 3])

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            SweepGrid("a", 0, 1, 0, "b", 0, 1, 0.1)
        with pytest.raises(ValueError):
            SweepGrid("a", 1, 0, 0.1, "b", 0, 1, 0.1)

    def test_rejects_huge_grid(self):
        with pytest.raises(ValueError, match="10\\^6"):
            SweepGrid("a", 0, 1, 1e-7, "b", 0, 1, 1e-3)

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
            SweepGrid("a", start1, stop1, step1, "b", start2, stop2, step2)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_fields(self, bad):
        for i in range(6):
            fields = [0.0, 1.0, 0.5, 0.0, 1.0, 0.5]
            fields[i] = bad
            with pytest.raises(ValueError, match="finite"):
                SweepGrid("a", *fields[:3], "b", *fields[3:])

    def test_end_point_kept_at_large_magnitude(self):
        # start + step * k lands one ulp (3.6e-12) above 20999.67 at the last
        # k, which an absolute 1e-12 tolerance would drop
        grid = SweepGrid("a", 6.47, 20999.67, 0.62, "b", 0, 0, 1)
        values = grid.values1()
        assert len(values) == 33_861
        assert values[-1] == pytest.approx(20999.67, rel=1e-15)

    def test_cap_is_exact_below_the_count_check(self):
        # 1000 x 1000 cells pass; 1000 x 1001 pass the count check
        # (999 * 1000 <= 10^6) and are rejected by the exact one
        grid = SweepGrid("a", 0, 999, 1, "b", 0, 999, 1)
        assert len(grid.values1()) * len(grid.values2()) == 10**6
        with pytest.raises(ValueError, match="10\\^6"):
            SweepGrid("a", 0, 999, 1, "b", 0, 1000, 1)
        # an axis that drops its last value: 0.4 > 0.3 leaves 2 of 3 values
        grid = SweepGrid("a", 0, 0.3, 0.2, "b", 0, 0.3, 0.2)
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


@pytest.mark.parametrize("suite", [verify_scalar, verify_monogamy_states, verify_polygamy_states])
def test_negative_sample_count_raises(suite):
    with pytest.raises(ValueError, match="sample count n must be nonnegative, got -4"):
        suite(-4)
    assert suite(0).summary()["total"] == 0


class TestDominance:
    def test_example1_rows(self):
        grid = default_grid("example1")
        header, rows = dominance_scan("example1", grid)
        assert header == ["alpha", "r", "Z1", "Z2", "Z3"]
        assert len(rows) == len(grid.values1()) * len(grid.values2())

    def test_example1_fixture_values(self):
        _, rows = dominance_scan(
            "example1", SweepGrid("alpha", 1, 1, 1, "r", 2, 2, 1)
        )
        alpha, r, z1, z2, z3 = rows[0]
        assert abs(z3 - 0.644687860538) < 1e-9
        assert abs(z1 - 0.630334627338) < 1e-9
        assert z3 > z1 and z3 > z2

    def test_example2_collapse_at_beta_equals_s(self):
        _, rows = dominance_scan(
            "example2", SweepGrid("s", 0.7, 0.7, 1, "beta", 0.7, 0.7, 1)
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
        _, table = dominance_scan("example1", SweepGrid("alpha", 1, 2, 0.5, "r", 2, 2, 1))
        assert table[:, 1].tolist() == [2.0] * 3
        assert not np.isnan(table[0, 3]) and np.isnan(table[1:, 3]).all()
        assert not np.isnan(np.delete(table, 3, axis=1)).any()

    def test_overflowing_cell_raises(self):
        grid = SweepGrid("s", 0.6, 0.6, 0.1, "beta", 0.6, 2000, 500)
        with pytest.raises(FloatingPointError, match="overflow"):
            dominance_scan("example2", grid)

    def test_unknown_example(self):
        with pytest.raises(ValueError):
            dominance_scan("example3")


def test_report_merge_and_summary():
    a = VerificationReport()
    a.record([1.0], 1e-9, lambda i: "good")
    a.record([-1.0], 1e-9, lambda i: "bad")
    b = VerificationReport()
    b.record([-2.0], 1e-9, lambda i: "worse")
    b.skip()
    a.merge(b)
    assert a.summary() == {
        "total": 3,
        "failures": 2,
        "skipped": 1,
        "worst_margin": -2.0,
    }
    assert math.isinf(VerificationReport().worst_margin)


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
