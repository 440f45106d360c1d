"""The oracle accepts the library's replies and rejects corrupted ones."""

import dataclasses

import pytest

import harness
import oracle
import workloads
from conftest import BENCH

MODS = harness.import_monogamy(BENCH.parent / "src")


def reply(req):
    return workloads.execute(MODS, req)


@pytest.mark.parametrize("q", [3, 4, 6])
def test_haar_report(q):
    req = workloads.Request("haar", (3, 7, q), 24)
    rep = reply(req)
    assert workloads.recheck(MODS, req, rep) == []
    shifted = dataclasses.replace(rep, worst_margin=rep.worst_margin + 1e-3)
    assert workloads.recheck(MODS, req, shifted)
    assert workloads.recheck(MODS, req, dataclasses.replace(rep, total=rep.total - 1))


def test_wclass_report():
    req = workloads.Request("wclass", (40, 3), 320)
    rep = reply(req)
    assert rep.skipped > 0
    assert workloads.recheck(MODS, req, rep) == []
    assert workloads.recheck(MODS, req, dataclasses.replace(rep, skipped=rep.skipped + 1))
    assert workloads.recheck(MODS, req, dataclasses.replace(rep, worst_margin=rep.worst_margin + 1e-6))


def test_report_failures_are_counted():
    req = workloads.Request("scalar", (100, 1), 800)
    tally = workloads.Tally()
    workloads.check(req, dataclasses.replace(reply(req), failures=3), tally)
    assert tally.failed == 3
    tally = workloads.Tally()
    workloads.check(req, dataclasses.replace(reply(req), total=799), tally)
    assert tally.failed == 1


@pytest.mark.parametrize("example,spec", [
    ("example1", workloads.EXAMPLE1_TILES[33]),
    ("example2", workloads.EXAMPLE2_TILES[0]),
    ("example2", workloads.EXAMPLE2_TILES[-1]),
])
def test_surface_csv(example, spec):
    req = workloads.Request("repro", (example, spec), oracle.surface_size(example, spec))
    code, text, _ = reply(req)
    assert code == 0
    assert workloads.recheck(MODS, req, (code, text, "")) == []
    lines = text.split("\n")
    fields = lines[5].split(",")
    fields[2] = repr(float(fields[2]) * (1 + 1e-9))
    corrupted = "\n".join(lines[:5] + [",".join(fields)] + lines[6:])
    assert workloads.recheck(MODS, req, (code, corrupted, ""))
    dropped = "\n".join(lines[:5] + lines[6:])
    assert workloads.recheck(MODS, req, (code, dropped, ""))
    tally = workloads.Tally()
    workloads.check(req, (code, dropped, ""), tally)
    assert tally.failed == 1


def test_cli_replies():
    for req in workloads.requests("single-call", 5, 0):
        code, text, err = reply(req)
        assert code == 0, err
        assert workloads.recheck(MODS, req, (code, text, "")) == []
        key = "pairwise: [" if req.kind == "measure" else "bound_value: "
        head, _, tail = text.partition(key)
        corrupted = head + key + "0.5" + tail[tail.index("0") + 1:] if tail.startswith("0") \
            else head + key + "9" + tail[1:]
        assert workloads.recheck(MODS, req, (code, corrupted, "")), corrupted


def test_oracle_measures_match_closed_forms():
    # W-class reductions have a single spin-flip root: both routes agree
    a, b, c = 0.5, 0.5, 2**-0.5
    ovr, pairwise = oracle.measure(oracle.spec_amps(oracle.WCLASS_EXAMPLE), "screnoa")
    want_ovr, want_pairwise = oracle.wclass_closed_form(a, b, c)
    assert ovr == pytest.approx(want_ovr, abs=1e-12)
    assert pairwise == pytest.approx(want_pairwise, abs=1e-12)
    # Example 1: C_{A1A2} = 2 l0 l2, C_{A1A3} = 2 l0 l3
    _, pairwise = oracle.measure(oracle.spec_amps(oracle.SCHMIDT3_EXAMPLE), "concurrence")
    assert pairwise == pytest.approx(list(oracle.EXAMPLE1["pairwise"]), abs=1e-12)
