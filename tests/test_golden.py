"""Pinned sha256 digests of seeded CLI output.

Any change to a printed digit changes a digest, so these catch refactors that
are meant to leave output untouched.  Update a digest only together with an
intended, explained change of output.

The digests were taken with NumPy 2.4 on an x86-64 host with AVX-512.  The
bound kernel and ``tripartite_bound``, which computes the ``repro``
surfaces, take every power with NumPy's pow loop, which runs SIMD code on
such hosts and the C library's pow elsewhere, and the two round differently
in the last bit; the full-precision ``worst_margin`` values of ``verify``
and the ``W*_minus_W3`` columns at beta = s, where two equal bounds cancel,
are the most likely to move on another host.
"""

import hashlib

import pytest

from monogamy.cli import main
from monogamy.verify import verify_monogamy_states, verify_polygamy_states

EX1 = "schmidt3:0.5,sqrt(6)/6,sqrt(6)/6,0.5,sqrt(6)/6"
WC = "wclass:1/2,1/2,sqrt(2)/2"
MONO = "--kind concurrence --mode monogamy --base-exp 2"
POLY = "--kind screnoa --mode polygamy --base-exp 0.6 --target-exp 1.5"

GOLDEN = {
    "verify --suite all --n 300 --seed 1":
        "0aef76ba25ee49517a822925cbb60966383d9854e198fda52236e3e4c7e1c360",
    "repro example1":
        "3cd29baa4834a8b70fc70030d1c3da6eca3d24bce36fc0e748b23eeaddd413ba",
    "repro example2":
        "61564dfbd5ad0ac2c3bd1076c0823111857e2d0ed1f6b27df77ad6de6bc2b871",
    # 44,341 rows, written in many CSV chunks
    "repro example2 --grid 0.6:1:0.002,0.6:3:0.01":
        "9c721e6fa2827e881123439ca9ff6c3eeba4ce215818b4b6cf5c33c09edbc099",
    f"measure --state {EX1} --kind concurrence":
        "19f37975228677a307e27d94d73523a5f1c0535b886ba2c6504f5c3275d50787",
    f"bound --state {EX1} {MONO} --target-exp 0":
        "5d40a3a83a3ffbe6c236e44e07c33f0df83a96fc9f6dd89be29a3fd0d6b5540b",
    f"bound --state {EX1} {MONO} --target-exp 1":
        "cfd54b9751940c586782346a21b0a997813ded36bf641f345903375f9a8d6196",
    f"bound --state {EX1} {MONO} --target-exp 2":
        "2f7eba20393686094b578727a713ec2605b8fa5c4085937d0e8da04ba4d499ee",
    f"bound --state {EX1} {MONO} --target-exp 1 --variant jfq --a 1.22474487":
        "7be68d266f3f8dfaea4cf43f090eafa99b19fef9603d2c26df25891a2a032a31",
    "measure --state haar:2x2x2x2:4 --kind concurrence":
        "388994822d3c937eee5bcccb0c9f4f033ccdf5dc513e1ec2bd112f5a71a88e94",
    f"bound --state haar:2x2x2x2:4 {MONO} --target-exp 0":
        "bce9ff6cfeb94c63fca959abb009baef7fd649f7c1e011239726c7871af9b626",
    f"bound --state haar:2x2x2x2:4 {MONO} --target-exp 1":
        "b052a7d4c5f595448b1ea2ce1e185bb59681530f727c662248961ecfe83a749e",
    f"bound --state haar:2x2x2x2:4 {MONO} --target-exp 2":
        "c1aa9e1fb34a6f008874481a6679c64b7bf2319d33b44606253a5b02874779ae",
    "measure --state haar:2x2x2x2x2x2:6 --kind concurrence":
        "ac46d90373877384c8e2c1d157a0c65ed30959a00832fcb94450aabe6c4f6e89",
    f"bound --state haar:2x2x2x2x2x2:6 {MONO} --target-exp 0":
        "df1be62000d0286b45c880fbf184c9af776a43b0c58276ca5f16fd727f729e6e",
    f"bound --state haar:2x2x2x2x2x2:6 {MONO} --target-exp 1":
        "77a65e86fac530058500aa536a5d761492eb667d2c95b7fe8328092a69a043a1",
    f"bound --state haar:2x2x2x2x2x2:6 {MONO} --target-exp 2":
        "7ceeedb4e483446726d097d7670ee146bda132d291a975054c18580b4cb103f9",
    "measure --state haar:2x2x2x2x2:5 --kind negativity_scren":
        "29e6b668ecaacf7b0c4be1b365831b0b1c9fb158fad4deea3e5e58b62c2aa81b",
    "measure --state haar:2x2x2x2x2:5 --kind concurrence_assistance":
        "b5ea6f0b09a33562b73c7c5b90a08404132774c8f3a15190edf2dbc8e7cd8471",
    f"measure --state {WC} --kind screnoa":
        "b6eb409674e886f9a38fedf8a77e6f409ce341c93c4ef8248ef63ecd46ac5903",
    f"bound --state {WC} {POLY} --a 1.515716566510398":
        "a7da2e5cd4b90376e957133ca30d8c2291531d574692783f8e37d2a8179046ca",
    f"bound --state {WC} {POLY} --variant zjz2":
        "a7da2e5cd4b90376e957133ca30d8c2291531d574692783f8e37d2a8179046ca",
    f"bound --state {WC} {POLY} --variant zjz2 --a 1.2":
        "b03a11647aad602a5ac85fe2f1fd6b662665ba65f99bafe06d8e5f4ec406fedb",
}


@pytest.mark.parametrize("command", GOLDEN)
def test_output_digest(capsys, command):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]


# verify_monogamy_states(150, seed=3, n_qubits=q) summaries, worst margins in
# full precision: the ordered weighted sum of four or more parties
MONOGAMY_SUMMARIES = {
    4: {"total": 1200, "failures": 0, "skipped": 0, "worst_margin": "0.2608664525127766"},
    5: {"total": 1200, "failures": 0, "skipped": 0, "worst_margin": "0.6781351924028647"},
    6: {"total": 1200, "failures": 0, "skipped": 0, "worst_margin": "0.7977100237780962"},
}


@pytest.mark.parametrize("n_qubits", MONOGAMY_SUMMARIES)
def test_monogamy_summary(n_qubits):
    summary = verify_monogamy_states(150, seed=3, n_qubits=n_qubits).summary()
    summary["worst_margin"] = repr(summary["worst_margin"])
    assert summary == MONOGAMY_SUMMARIES[n_qubits]


# verify_polygamy_states(150, seed=3, **kwargs) summaries, worst margins in
# full precision: per-sample s, a fixed s, and a beta grid that each sample
# cuts at its own s
POLYGAMY_SUMMARIES = {
    "per-sample s": ({}, {"total": 904, "failures": 0, "skipped": 37,
                          "worst_margin": "-3.3306690738754696e-16"}),
    "s = 0.7": ({"s": 0.7}, {"total": 1200, "failures": 0, "skipped": 0,
                             "worst_margin": "6.758390878688431e-14"}),
    "ragged grid": ({"beta_grid": [0.3, 0.7, 1.0, 2.5]},
                    {"total": 226, "failures": 0, "skipped": 37,
                     "worst_margin": "-3.3306690738754696e-16"}),
}


@pytest.mark.parametrize("case", POLYGAMY_SUMMARIES)
def test_polygamy_summary(case):
    kwargs, want = POLYGAMY_SUMMARIES[case]
    summary = verify_polygamy_states(150, seed=3, **kwargs).summary()
    summary["worst_margin"] = repr(summary["worst_margin"])
    assert summary == want
