"""Span bookkeeping: self time, wrapping and error counts."""

import pytest

import harness
import tracing
from conftest import BENCH


def test_self_times_on_synthetic_tree():
    spans = [
        ["verify.run", 0, 100, -1],
        ["measures.mv", 10, 40, 0],
        ["linalg.a", 12, 20, 1],
        ["linalg.b", 18, 30, 1],  # overlaps its sibling: the union counts once
        ["bounds.x", 50, 60, 0],
        ["bounds.y", 55, 70, 0],  # overlaps bounds.x
        ["cli.z", 95, 120, 0],  # runs past its parent: only 95..100 is covered
    ]
    assert tracing.self_times(spans) == [100 - (30 + 20 + 5), 30 - 18, 8, 12, 10, 15, 25]


def test_layer_metrics_per_pass():
    tracer = tracing.Tracer()
    tracer.spans[:] = [
        ["measures.measure_vector", 0, 10, -1],
        ["states.reduce_density", 1, 3, 0],
        ["states.reduce_density", 4, 6, 0],
        ["bounds.max_admissible_a", 20, 21, -1],
    ] * 2
    for i in range(4, 8):  # second pass: parents shift by four
        tracer.spans[i] = list(tracer.spans[i])
        if tracer.spans[i][3] >= 0:
            tracer.spans[i][3] += 4
    m = tracing.layer_metrics(tracer, passes=2)
    assert m["measures.measure_vector.calls"] == 1
    assert m["measures.self_s"] == pytest.approx(6e-9)
    assert m["states.self_s"] == pytest.approx(4e-9)
    assert m["measures.pairs_per_state"] == 2
    assert m["bounds.max_admissible_a.calls_per_state"] == 1


def test_install_wraps_every_binding_and_uninstall_restores():
    mods = harness.import_monogamy(BENCH.parent / "src")
    before = {(m, a): getattr(getattr(mods, m), a) for m, a, _ in tracing.BINDINGS}
    tracer = tracing.Tracer()
    tracer.install(mods)
    try:
        assert tracer.missing == []
        mods.verify.verify_monogamy_states(1, seed=0, n_qubits=3)
        with pytest.raises(ValueError):
            mods.bounds.max_admissible_a([0.5, 0.2], -1.0)
    finally:
        tracer.uninstall()
    assert all(getattr(getattr(mods, m), a) is fn for (m, a), fn in before.items())
    names = [s[0] for s in tracer.spans]
    assert names.count("bounds.monogamy_bound") == 8
    assert names.count("bounds.max_admissible_a") == 9
    assert names.count("linalg.psd_sqrt") == 2
    assert tracer.errors == {"bounds.max_admissible_a": 1}
    top = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in top] == ["verify.verify_monogamy_states", "bounds.max_admissible_a"]
