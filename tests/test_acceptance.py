"""End-to-end acceptance checks.

Each test covers one acceptance criterion, enforces its numeric tolerance
and runtime cap, and prints a single PASS/FAIL line (bypassing pytest's
capture so the lines always reach the terminal).
"""

import math
import sys
import time

import numpy as np

from monogamy.measures import (
    MeasureKind,
    concurrence_2q,
    concurrence_pure,
    measure_vector,
    negativity,
    negativity_pure,
)
from monogamy.states import (
    PureState,
    haar_random_pure,
    schmidt3_state,
    to_density,
    w_class_state,
)
from monogamy.verify import (
    verify_dominance,
    verify_monogamy_states,
    verify_polygamy_states,
    verify_scalar,
)

S6 = math.sqrt(6) / 6


def _run(capsys, name: str, cap: float, fn) -> None:
    t0 = time.perf_counter()
    ok, detail = fn()
    elapsed = time.perf_counter() - t0
    in_time = elapsed < cap
    status = "PASS" if ok and in_time else "FAIL"
    with capsys.disabled():
        print(f"[acceptance] {name}: {status} ({elapsed:.2f}s)", file=sys.stderr)
    assert ok, detail
    assert in_time, f"{name} took {elapsed:.2f}s (cap {cap}s)"


def test_criterion_1_schmidt_example_measures(capsys):
    def check():
        mv = measure_vector(schmidt3_state(0.5, S6, S6, 0.5, S6), "concurrence")
        errs = (
            abs(mv.one_vs_rest - math.sqrt(21) / 6),
            abs(mv.pairwise[0] - S6),
            abs(mv.pairwise[1] - 0.5),
        )
        return max(errs) < 1e-9, f"measure errors {errs}"

    _run(capsys, "1-schmidt-example-measures", 0.1, check)


def test_criterion_2_w_example_measures(capsys):
    def check():
        mv = measure_vector(
            w_class_state(0.5, 0.5, math.sqrt(2) / 2), MeasureKind.SCRENOA
        )
        errs = (
            abs(mv.one_vs_rest - 0.75),
            abs(mv.pairwise[0] - 0.25),
            abs(mv.pairwise[1] - 0.5),
        )
        return max(errs) < 1e-9, f"measure errors {errs}"

    _run(capsys, "2-w-example-measures", 0.1, check)


def test_criterion_3_scalar_inequalities(capsys):
    def check():
        rep = verify_scalar(100_000, seed=2024, tol=1e-12, rtol=1e-9)
        return (
            rep.failures == 0 and rep.total == 8 * 100_000,
            rep.summary(),
        )

    _run(capsys, "3-scalar-inequalities", 5.0, check)


def test_criterion_4_monogamy_end_to_end(capsys):
    def check():
        reps = {
            "tripartite": verify_monogamy_states(10_000, seed=11, r=2.0, tol=1e-8),
            "four_party": verify_monogamy_states(1_000, seed=12, r=2.0, tol=1e-8,
                                                 n_qubits=4),
            "five_party": verify_monogamy_states(1_000, seed=14, r=2.0, tol=1e-8,
                                                 n_qubits=5),
            "six_party": verify_monogamy_states(500, seed=15, r=2.0, tol=1e-8,
                                                n_qubits=6),
        }
        sizes = {"tripartite": 10_000, "four_party": 1_000, "five_party": 1_000,
                 "six_party": 500}
        return (
            all(rep.failures == 0 and rep.total == 8 * sizes[name]
                for name, rep in reps.items()),
            {name: rep.summary() for name, rep in reps.items()},
        )

    _run(capsys, "4-monogamy-haar-states", 60.0, check)


def test_criterion_5_polygamy_end_to_end(capsys):
    def check():
        rep = verify_polygamy_states(10_000, seed=13, tol=1e-8)
        return rep.failures == 0 and rep.total > 0, rep.summary()

    _run(capsys, "5-polygamy-wclass-states", 30.0, check)


def test_criterion_6_dominance_surfaces(capsys):
    def check_ex1():
        rep = verify_dominance("example1", tol=1e-12)
        return rep.failures == 0 and rep.total > 0, rep.summary()

    def check_ex2():
        rep = verify_dominance("example2", tol=1e-12)
        return rep.failures == 0 and rep.total > 0, rep.summary()

    _run(capsys, "6a-dominance-example1", 10.0, check_ex1)
    _run(capsys, "6b-dominance-example2", 10.0, check_ex2)


def test_criterion_7_oracle_equivalence(capsys):
    def check():
        rng = np.random.default_rng(7)
        worst_c = 0.0
        for _ in range(500):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi = PureState((2, 2), v / np.linalg.norm(v))
            worst_c = max(
                worst_c,
                abs(concurrence_2q(to_density(psi)) - concurrence_pure(psi, [0])),
            )
        worst_n = 0.0
        for _ in range(500):
            dims = (2, 2) if rng.random() < 0.5 else (2, 2, 2)
            v = rng.standard_normal(int(np.prod(dims))) + 1j * rng.standard_normal(
                int(np.prod(dims))
            )
            psi = PureState(dims, v / np.linalg.norm(v))
            worst_n = max(
                worst_n,
                abs(negativity(to_density(psi), [0]) - negativity_pure(psi, [0])),
            )
        return (
            worst_c < 1e-9 and worst_n < 1e-8,
            f"worst concurrence dev {worst_c:.2e}, worst negativity dev {worst_n:.2e}",
        )

    _run(capsys, "7-oracle-equivalence", 60.0, check)


def test_criterion_8_base_relations(capsys):
    def check():
        worst_ckw = math.inf
        for seed in range(1_000):
            mv = measure_vector(haar_random_pure([2, 2, 2], seed=seed), "concurrence")
            worst_ckw = min(
                worst_ckw, mv.one_vs_rest**2 - sum(v**2 for v in mv.pairwise)
            )
        rng = np.random.default_rng(8)
        worst_poly = math.inf
        for _ in range(1_000):
            c = np.abs(rng.standard_normal(3))
            c /= np.linalg.norm(c)
            mv = measure_vector(w_class_state(*c), "screnoa")
            worst_poly = min(worst_poly, sum(mv.pairwise) - mv.one_vs_rest)
        return (
            worst_ckw >= -1e-8 and worst_poly >= -1e-8,
            f"worst CKW margin {worst_ckw:.2e}, worst polygamy margin {worst_poly:.2e}",
        )

    _run(capsys, "8-base-relations", 60.0, check)
