"""A seed fixes the inputs, so the counts of a run repeat exactly."""

import pytest

import harness
import workloads
from conftest import BENCH

MODS = harness.import_monogamy(BENCH.parent / "src")
COUNTS = ("attempted", "ops", "failed", "checks", "samples", "skipped", "csv_rows", "csv_bytes")


def counts(workload, seed):
    tally = workloads.Tally()
    for index in range(2):
        harness.run_pass(MODS, workloads.requests(workload, seed, index)[:8], tally)
    return {name: getattr(tally, name) for name in COUNTS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_counts(workload):
    first = counts(workload, 4)
    assert first["failed"] == 0 and first["ops"] == first["attempted"] > 0
    assert counts(workload, 4) == first


def test_seed_and_pass_change_inputs():
    assert workloads.requests("haar-monogamy", 1, 0) != workloads.requests("haar-monogamy", 2, 0)
    assert workloads.requests("haar-monogamy", 1, 0) != workloads.requests("haar-monogamy", 1, 1)
    assert workloads.requests("single-call", 1, 3) == workloads.requests("single-call", 1, 3)
