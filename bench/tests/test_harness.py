"""Host correction removes what the probe sees and keeps every program slowdown."""

import pytest

import harness

NOMINAL = harness.PROBE_NOMINAL_S
BASE = [1.0, 2.0] * 40


def test_host_slowdown_seen_by_the_probe_is_removed():
    slow = [x * 1.8 if 30 <= i < 60 else x for i, x in enumerate(BASE)]
    probes = [NOMINAL * 1.8 if 30 <= i < 60 else NOMINAL for i in range(80)]
    slow[70] *= 5  # the request's own stall
    out = harness.host_corrected(slow, probes)
    # away from the edges of the slow stretch, where the probe window straddles it
    away = [i for i in range(80) if min(abs(i - 30), abs(i - 60)) > harness.WINDOW and i != 70]
    assert [out[i] for i in away] == pytest.approx([BASE[i] for i in away])
    assert out[70] == pytest.approx(5 * BASE[70])


def test_program_slowdowns_are_kept():
    probes = [NOMINAL] * 80
    # a cost that builds up during the run, as from a cache that grows unbounded
    ramp = [x * (1 + i / 79) for i, x in enumerate(BASE)]
    assert harness.host_corrected(ramp, probes) == pytest.approx(ramp)
    assert harness.host_corrected([2 * x for x in BASE], probes) == pytest.approx(
        [2 * x for x in BASE])


def test_probe_scale():
    # figures read as on a host where one probe takes PROBE_NOMINAL_S
    assert harness.host_corrected(BASE, [2 * NOMINAL] * 80) == pytest.approx(
        [x / 2 for x in BASE])
    assert harness.probe() > 0
