import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogamy.bounds import (
    A_CAP,
    BoundSpec,
    margin_grid,
    max_admissible_a,
    monogamy_bound,
    ordered_weighted_sum,
    polygamy_bound,
    ratio_condition,
    scalar_lower_bound,
    scalar_upper_bound,
    tripartite_bound,
)
from monogamy.measures import MeasureKind, MeasureVector, measure_vectors
from monogamy.states import w_class_amps
from monogamy.verify import default_alpha_grid

S6 = math.sqrt(6) / 6
EX1_A = math.sqrt(6) / 2

ex1_mv = MeasureVector(MeasureKind.CONCURRENCE, math.sqrt(21) / 6, (S6, 0.5))
ex2_mv = MeasureVector(MeasureKind.SCRENOA, 0.75, (0.25, 0.5))


class TestScalarLowerBound:
    def test_equality_at_t_equals_a(self):
        for a in (1.0, 1.7, 4.0):
            for x in (0.2, 0.5, 1.0):
                assert abs(scalar_lower_bound(a, x, a) - (1 + a) ** x) < 1e-12

    def test_direct_value(self):
        got = scalar_lower_bound(3.0, 0.5, 1.0)
        expected = 2**-0.5 + 2**-0.5 * 3**0.5
        assert abs(got - expected) < 1e-12
        assert got <= 2.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            scalar_lower_bound(0.5, 0.5, 1.0)  # t < a
        with pytest.raises(ValueError):
            scalar_lower_bound(3.0, 1.5, 1.0)  # x > 1
        with pytest.raises(ValueError):
            scalar_lower_bound(3.0, 0.7, 1.0, "zjz2")  # x > 1/2 for zjz
        with pytest.raises(ValueError):
            scalar_lower_bound(3.0, 0.4, 1.0, "zjz1", p=0.2)

    @given(
        st.floats(1.0, 10.0),
        st.floats(0.0, 1.0, exclude_min=True),
        st.floats(0.0, 1.0, exclude_min=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_bounds_below(self, a, tfrac, x):
        t = a + tfrac * 90
        assert (1 + t) ** x - scalar_lower_bound(t, x, a) >= -1e-12

    @given(
        st.floats(1.0, 10.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 0.5),
        st.floats(0.5, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_dominates_prior_variants(self, a, tfrac, x, p):
        from monogamy.bounds import _scalar_bound

        t = a + tfrac * 90
        ours = _scalar_bound(np.float64(t), np.float64(a), np.float64(x), "ours", 0.5)
        assert ours - scalar_lower_bound(t, x, a, "zjz1", p=p) >= -1e-12
        assert ours - scalar_lower_bound(t, x, a, "zjz2") >= -1e-12
        if 0 < x <= 1:
            assert ours - scalar_lower_bound(t, x, a, "jfq") >= -1e-12


class TestScalarUpperBound:
    def test_equality_at_t_equals_a(self):
        for a in (1.0, 2.5):
            for x in (1.0, 2.0, 5.0):
                assert abs(scalar_upper_bound(a, x, a) - (1 + a) ** x) < 1e-9

    def test_direct_value(self):
        assert abs(scalar_upper_bound(3.0, 2.0, 1.0) - 20.0) < 1e-12
        assert scalar_upper_bound(3.0, 2.0, 1.0) >= 16.0

    @given(
        st.floats(1.0, 10.0),
        st.floats(0.0, 1.0),
        st.floats(1.0, 8.0),
        st.floats(0.0, 1.0, exclude_min=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_bounds_above_and_dominated(self, a, tfrac, x, q):
        t = a + tfrac * 90
        exact = (1 + t) ** x
        ours = scalar_upper_bound(t, x, a)
        assert (ours - exact) / exact >= -1e-9
        for variant, param in (("jfq", 0.5), ("zjz1", q), ("zjz2", 0.5)):
            other = scalar_upper_bound(t, x, a, variant, p=param)
            assert (other - ours) / exact >= -1e-9


class TestScalarBoundBits:
    """A sample's bound has the same bits whether ``x`` is a scalar, a full
    array or a one-sample call: a scalar exponent spanning NumPy's pow loop
    would take its x * x and sqrt(x) shortcuts and other last bits."""

    @pytest.mark.parametrize("variant", ["ours", "jfq", "zjz1", "zjz2"])
    @pytest.mark.parametrize("fn,xs", [
        (scalar_lower_bound, (0.5, 0.25, 0.3)),
        (scalar_upper_bound, (1.5, 2.0, 3.7)),
    ])
    def test_scalar_array_and_one_sample_x_agree(self, fn, xs, variant):
        rng = np.random.default_rng(0)
        a = rng.uniform(1.0, 10.0, 2000)
        t = rng.uniform(a, 100.0)
        p = 0.75 if variant == "zjz1" else 0.5
        for x in xs:
            got = fn(t, x, a, variant, p=p)
            assert got.tobytes() == fn(t, np.full(t.size, x), a, variant, p=p).tobytes()
            ones = [fn(t_i, x, a_i, variant, p=p)
                    for t_i, a_i in zip(t.tolist()[:300], a.tolist())]
            assert got[:300].tolist() == ones
            # a scalar a (and t) broadcast over array x: same bits as full arrays
            full = fn(np.full(300, t[0]), np.full(300, x), np.full(300, a[0]), variant, p=p)
            assert fn(t[0], np.full(300, x), a[0], variant, p=p).tobytes() == full.tobytes()


class TestOrderedWeightedSum:
    def test_single_value(self):
        assert abs(ordered_weighted_sum([2.0], 0.5, 3.0) - 4**-0.5 * 2**0.5) < 1e-12

    def test_two_values_lower_bound(self):
        t, a, x = 5.0, 2.0, 0.5
        got = ordered_weighted_sum([t, 1.0], x, a)
        expected = (1 + a) ** (x - 1) * ((1 + 1 / a) ** (x - 1) * t**x + 1)
        assert abs(got - expected) < 1e-12
        assert (1 + t) ** x >= got

    def test_x_one_degenerate(self):
        assert abs(ordered_weighted_sum([4.0, 2.0, 1.0], 1.0, 2.0) - 7.0) < 1e-12

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="descending"):
            ordered_weighted_sum([1.0, 2.0], 0.5, 1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ordered_weighted_sum([2.0, -1.0], 0.5, 1.0)

    def test_bits_do_not_depend_on_layout(self):
        # a reversed view once took the C library's pow instead of NumPy's
        rng = np.random.default_rng(0)
        for _ in range(2000):
            v = np.sort(rng.random(4))[::-1]
            assert ordered_weighted_sum(v, 0.37, 1.5) == ordered_weighted_sum(v.copy(), 0.37, 1.5)

    @given(st.integers(2, 5), st.floats(1.0, 3.0), st.floats(0.1, 1.0), st.data())
    @settings(max_examples=200, deadline=None)
    def test_chain_inequality(self, n, a, x, data):
        # build a descending tuple satisfying the ratio condition at a
        vals = [data.draw(st.floats(1.0, 10.0))]
        for _ in range(n - 1):
            vals.append(vals[-1] / (a * data.draw(st.floats(1.0, 3.0))))
        v = np.array(vals)
        assert ratio_condition(v, a, 1.0)
        total = v.sum()
        low = ordered_weighted_sum(v, x, a)
        high = ordered_weighted_sum(v, 1 + 1 / x, a)
        assert total**x - low >= -1e-10 * max(1.0, total**x)
        assert high - total ** (1 + 1 / x) >= -1e-10 * max(1.0, high)


class TestRatioCondition:
    def test_example1(self):
        assert ratio_condition((0.5, S6), EX1_A, 2.0)
        assert abs(max_admissible_a((S6, 0.5), 2.0) - 1.5) < 1e-12

    def test_example2_equality(self):
        assert ratio_condition((0.5, 0.25), 2**0.6, 0.6)

    def test_a_one_always_true_sorted(self):
        assert ratio_condition((3.0, 2.0, 1.0), 1.0, 1.0)

    def test_failing(self):
        assert not ratio_condition((1.0, 0.9), 2.0, 1.0)

    def test_zero_successor_vacuous(self):
        assert ratio_condition((1.0, 0.0), 100.0, 2.0)
        assert max_admissible_a((1.0, 0.0), 2.0) == math.inf


class TestMonogamyBound:
    def test_example1_ours(self):
        rep = monogamy_bound(ex1_mv, BoundSpec("monogamy", 2, 1, a=EX1_A))
        z3 = (1 + EX1_A) ** -0.5 * S6 + (1 + 1 / EX1_A) ** -0.5 * 0.5
        assert abs(rep.bound_value - z3) < 1e-12
        assert abs(rep.bound_value - 0.644687860538) < 1e-9
        assert rep.margin > 0
        assert abs(rep.measured_value - math.sqrt(21) / 6) < 1e-12
        assert not rep.base_relation_assumed

    def test_example1_jfq(self):
        rep = monogamy_bound(ex1_mv, BoundSpec("monogamy", 2, 1, a=EX1_A, variant="jfq"))
        assert abs(rep.bound_value - 0.630334627338) < 1e-9
        ours = monogamy_bound(ex1_mv, BoundSpec("monogamy", 2, 1, a=EX1_A))
        assert ours.bound_value - rep.bound_value > 0

    def test_alpha_equals_r_collapses(self):
        rep = monogamy_bound(ex1_mv, BoundSpec("monogamy", 2, 2, a=EX1_A))
        assert abs(rep.bound_value - (S6**2 + 0.25)) < 1e-12

    def test_default_a_is_max_admissible(self):
        rep = monogamy_bound(ex1_mv, BoundSpec("monogamy", 2, 1))
        assert abs(rep.a - 1.5) < 1e-12

    def test_alpha_zero(self):
        rep = monogamy_bound(ex1_mv, BoundSpec("monogamy", 2, 0, a=EX1_A))
        assert rep.measured_value == 1.0
        assert abs(rep.bound_value - 1.0) < 1e-12

    def test_ratio_failure_raises(self):
        with pytest.raises(ValueError, match="ratio condition"):
            monogamy_bound(ex1_mv, BoundSpec("monogamy", 2, 1, a=10.0))

    def test_ratio_failure_reported_when_not_strict(self):
        rep = monogamy_bound(ex1_mv, BoundSpec("monogamy", 2, 1, a=10.0), strict=False)
        assert not rep.ratio_condition_ok

    def test_zjz_variant_domain(self):
        with pytest.raises(ValueError, match="alpha/r"):
            monogamy_bound(ex1_mv, BoundSpec("monogamy", 2, 1.5, a=EX1_A, variant="zjz2"))

    def test_four_party_uses_ordered_sum(self):
        mv = MeasureVector(MeasureKind.CONCURRENCE, 0.9, (0.6, 0.3, 0.1))
        rep = monogamy_bound(mv, BoundSpec("monogamy", 2, 1))
        expected = ordered_weighted_sum(np.array([0.6, 0.3, 0.1]) ** 2, 0.5, rep.a)
        assert abs(rep.bound_value - expected) < 1e-14

    def test_alpha_zero_four_party(self):
        mv = MeasureVector(MeasureKind.CONCURRENCE, 0.9, (0.6, 0.3, 0.0))
        rep = monogamy_bound(mv, BoundSpec("monogamy", 2, 0))
        assert rep.a == 4
        assert abs(rep.bound_value - (1 - (4 / 5) ** 3)) < 1e-15
        assert rep.measured_value == 1

    def test_tripartite_matches_two_term_formula(self):
        a = 1.3
        rep = monogamy_bound(ex1_mv, BoundSpec("monogamy", 2, 1, a=a))
        expected = (1 + a) ** -0.5 * S6 + (1 + 1 / a) ** -0.5 * 0.5
        assert abs(rep.bound_value - expected) < 1e-14


class TestPolygamyBound:
    def test_example2_ours(self):
        rep = polygamy_bound(ex2_mv, BoundSpec("polygamy", 0.6, 1, a=2**0.6))
        x = 1 / 0.6
        w3 = (1 + 2**0.6) ** (x - 1) * 0.25 + (1 + 2**-0.6) ** (x - 1) * 0.5
        assert abs(rep.bound_value - w3) < 1e-12
        assert rep.bound_value >= 0.75
        assert rep.margin > 0
        assert not rep.base_relation_assumed

    def test_example2_jfq_dominates(self):
        ours = polygamy_bound(ex2_mv, BoundSpec("polygamy", 0.6, 1.5, a=2**0.6))
        jfq = polygamy_bound(
            ex2_mv, BoundSpec("polygamy", 0.6, 1.5, a=2**0.6, variant="jfq")
        )
        assert jfq.bound_value - ours.bound_value >= -1e-12

    def test_beta_equals_s_collapses(self):
        rep = polygamy_bound(ex2_mv, BoundSpec("polygamy", 0.6, 0.6, a=2**0.6))
        assert abs(rep.bound_value - (0.25**0.6 + 0.5**0.6)) < 1e-12

    def test_mode_mismatch(self):
        with pytest.raises(ValueError):
            polygamy_bound(ex2_mv, BoundSpec("monogamy", 2, 1))

    def test_base_relation_flagged_for_unverified_kind(self):
        mv = MeasureVector(MeasureKind.CONCURRENCE, 0.9, (0.25, 0.5))
        rep = polygamy_bound(mv, BoundSpec("polygamy", 1.0, 2.0))
        assert rep.base_relation_assumed


class TestTripartiteBound:
    @pytest.mark.parametrize("variant,p", [("ours", 0.5), ("jfq", 0.5), ("zjz1", 0.7),
                                           ("zjz2", 0.5)])
    def test_array_matches_cells(self, variant, p):
        rng = np.random.default_rng(5)
        target = rng.uniform(0.0, 3.0, (40, 3))
        x = rng.uniform(0.0, 5.0, (40, 3))
        # the exponents NumPy special-cases when one spans a loop
        target[0], x[1] = (2.0, 0.5, 0.0), (0.5, 1.0, 2.0)
        a = rng.uniform(1.0, 4.0, (40, 1))
        got = tripartite_bound(S6, 0.5, target, x, a, variant, p)
        assert got.shape == (40, 3)
        cells = [[tripartite_bound(S6, 0.5, t, xx, float(aa), variant, p)
                  for t, xx in zip(t_row, x_row)]
                 for t_row, x_row, (aa,) in zip(target.tolist(), x.tolist(), a.tolist())]
        assert got.tolist() == cells
        assert all(type(v) is float for row in cells for v in row)
        assert np.array_equal(tripartite_bound(S6, 0.5, target[::-1], x[::-1], a[::-1],
                                               variant, p), got[::-1])
        # one exponent over an array of a
        for xx in (0.5, 2.0):
            got = tripartite_bound(S6, 0.5, 1.0, xx, a.ravel(), variant, p)
            assert got.tolist() == [tripartite_bound(S6, 0.5, 1.0, xx, aa, variant, p)
                                    for aa in a.ravel().tolist()]

    def test_matches_two_term_formula(self):
        a = 1.3
        want = (1 + a) ** -0.5 * S6 + (1 + 1 / a) ** -0.5 * 0.5
        assert abs(tripartite_bound(S6, 0.5, 1.0, 0.5, a) - want) < 1e-15
        want = S6 + ((1 + a) ** 0.5 - 1) / a**0.5 * 0.5
        assert abs(tripartite_bound(S6, 0.5, 1.0, 0.5, a, "jfq") - want) < 1e-15

    @pytest.mark.parametrize("target", [2000.0, np.array([1.0, 2000.0])])
    def test_overflow_raises(self, target):
        # (1 + a)^x overflows at x = 2000 / 0.6
        with pytest.raises(FloatingPointError, match="overflow"):
            tripartite_bound(0.25, 0.5, target, target / 0.6, 2**0.6)


class TestBoundSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mode="monogamy", base_exp=1.5, target_exp=1),
            dict(mode="monogamy", base_exp=2, target_exp=3),
            dict(mode="monogamy", base_exp=2, target_exp=-0.5),
            dict(mode="polygamy", base_exp=1.5, target_exp=2),
            dict(mode="polygamy", base_exp=0.5, target_exp=0.4),
            dict(mode="monogamy", base_exp=2, target_exp=1, a=0.5),
            dict(mode="monogamy", base_exp=2, target_exp=1, variant="zjz1", p=0.2),
            dict(mode="other", base_exp=2, target_exp=1),
            dict(mode="monogamy", base_exp=2, target_exp=1, variant="xyz"),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            BoundSpec(**kwargs)

    def test_x_property(self):
        assert BoundSpec("monogamy", 2, 1).x == 0.5
        assert abs(BoundSpec("polygamy", 0.6, 1.5).x - 2.5) < 1e-12


class TestTightOnWClass:
    """On 3-qubit W-class states C(A|BC)^2 = C_AB^2 + C_AC^2 (CKW equality),
    and with r = 2 and a = max_admissible_a = t the lemma is an equality, so
    every concurrence margin is 0 up to round-off.

    The tolerance is absolute, per (state, alpha), and comes from the
    one-vs-rest value C = sqrt(2 (1 - purity)): an error d in the purity
    moves C^alpha by about alpha d C^(alpha - 2).  That is large for
    near-product states, where 1 - purity cancels, and largest at
    alpha = 0.25.  The bound takes d = 8 eps and adds 8 eps for the round-off
    of the pows and weights at C ~ 1.  Over 2000 states at each of four seeds
    |margin| stays below 0.46 of it.  Here the worst margin is 2.6e-12, at
    alpha = 0.25 on a state with a coefficient of 7.5e-4 (C = 1.5e-3), where
    the bound allows 3.9e-11; relative to the measured value it is 1e-10.
    """

    def test_margins_vanish(self):
        rng = np.random.default_rng(0)
        coeffs = np.abs(rng.standard_normal((2000, 3)))
        coeffs /= np.linalg.norm(coeffs, axis=1)[:, None]
        first, pairwise = measure_vectors(w_class_amps(coeffs), (2, 2, 2), "concurrence")
        # the equality needs a = max_admissible_a, which A_CAP would cut
        assert all(max_admissible_a(row, 2.0) <= A_CAP for row in pairwise)
        alphas = np.array(default_alpha_grid(2.0))
        margins = margin_grid(first, pairwise, BoundSpec("monogamy", 2.0, 2.0), alphas)
        eps = np.finfo(float).eps
        tol = eps * (8 * alphas * first[:, None] ** (alphas - 2) + 8)
        assert np.all(np.abs(margins) <= tol)
