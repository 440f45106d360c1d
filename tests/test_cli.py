import argparse
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from monogamy import cli, verify
from monogamy.cli import main

EX1 = "schmidt3:0.5,sqrt(6)/6,sqrt(6)/6,0.5,sqrt(6)/6"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMeasure:
    def test_example1(self, capsys):
        code, out, _ = run(capsys, "measure", "--state", EX1, "--kind", "concurrence")
        assert code == 0
        assert "one_vs_rest: 0.763762615826" in out
        assert "pairwise: [0.408248290464, 0.5]" in out

    def test_example2(self, capsys):
        code, out, _ = run(
            capsys, "measure", "--state", "wclass:0.5,0.5,sqrt(2)/2", "--kind", "screnoa"
        )
        assert code == 0
        assert "one_vs_rest: 0.75" in out
        assert "pairwise: [0.25, 0.5]" in out

    def test_haar_deterministic(self, capsys):
        a = run(capsys, "measure", "--state", "haar:2x2x2:7", "--kind", "concurrence")
        b = run(capsys, "measure", "--state", "haar:2x2x2:7", "--kind", "concurrence")
        assert a == b

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "measure", "--state", "nope:1", "--kind", "concurrence")
        assert code == 2
        assert "error" in err

    def test_unsupported_dims_exit_3(self, capsys):
        code, _, _ = run(capsys, "measure", "--state", "haar:2x2:1", "--kind", "concurrence")
        assert code == 3


class TestBound:
    def test_example1(self, capsys):
        code, out, _ = run(
            capsys,
            "bound", "--state", EX1, "--kind", "concurrence",
            "--mode", "monogamy", "--a", "1.22474487",
            "--base-exp", "2", "--target-exp", "1", "--variant", "ours",
        )
        assert code == 0
        assert "bound_value: 0.64468786" in out
        assert "measured_value: 0.763762615826" in out
        assert "max_admissible_a: 1.5" in out
        assert "ratio_condition_ok: true" in out

    def test_jfq_variant(self, capsys):
        code, out, _ = run(
            capsys,
            "bound", "--state", EX1, "--kind", "concurrence",
            "--mode", "monogamy", "--a", "1.22474487",
            "--base-exp", "2", "--target-exp", "1", "--variant", "jfq",
        )
        assert code == 0
        assert "bound_value: 0.63033" in out

    def test_default_a(self, capsys):
        code, out, _ = run(
            capsys,
            "bound", "--state", EX1, "--kind", "concurrence",
            "--mode", "monogamy", "--base-exp", "2", "--target-exp", "1",
        )
        assert code == 0
        assert "a: 1.5" in out

    def test_negative_margin_still_exit_0(self, capsys):
        # reporting tool: a valid spec with a losing margin is not an error
        code, out, _ = run(
            capsys,
            "bound", "--state", "haar:2x2x2:1", "--kind", "concurrence_assistance",
            "--mode", "monogamy", "--base-exp", "2", "--target-exp", "2",
        )
        assert code == 0
        assert "margin: -" in out

    @pytest.mark.parametrize("c0,measured", [
        ("1e-8", "0.01189207115"), ("1e-6", "0.0376060309309"),
    ])
    def test_near_product_w_state_meets_its_bound(self, capsys, c0, measured):
        # CKW is an equality on W states and a = max_admissible_a makes the
        # bound exact, so the margin is 0 up to round-off; (2 c0)^(1/4) is
        # measured from C = 2 c0, which squaring 1 - purity lost near c0 = 0
        code, out, _ = run(
            capsys,
            "bound", "--state", f"wclass:{c0},0.6,0.8", "--kind", "concurrence",
            "--mode", "monogamy", "--base-exp", "2", "--target-exp", "0.25",
        )
        assert code == 0
        assert f"measured_value: {measured}\n" in out
        margin = next(line for line in out.splitlines() if line.startswith("margin: "))
        assert float(margin.removeprefix("margin: ")) >= 0.0

    @pytest.mark.parametrize("a,shown,bound", [
        (None, "5.57180969488", "0.286318491768"),
        ("2", "2", "0.417878886416"),
        ("1", "1", "0.452890537946"),
    ])
    def test_default_a_is_not_the_tightest_at_three_pairs(self, capsys, a, shown, bound):
        # a = max(1, max_admissible_a) is the tightest admissible a for two
        # pairwise values only: with three, the ordered sum at the default a
        # is below its value at a = 2 and at a = 1, both admissible
        code, out, _ = run(
            capsys,
            "bound", "--state", "haar:2x2x2x2:118", "--kind", "concurrence",
            "--mode", "monogamy", "--base-exp", "2", "--target-exp", "0.5",
            *(() if a is None else ("--a", a)),
        )
        assert code == 0
        for line in (f"bound_value: {bound}", "measured_value: 0.979798435354", f"a: {shown}",
                     "max_admissible_a: 5.57180969488", "ratio_condition_ok: true"):
            assert line in out.splitlines()

    def test_domain_error_exit_3(self, capsys):
        code, _, _ = run(
            capsys,
            "bound", "--state", EX1, "--kind", "concurrence",
            "--mode", "monogamy", "--base-exp", "1", "--target-exp", "1",
        )
        assert code == 3

    @pytest.mark.parametrize("mode,base,extra,seen", [
        ("polygamy", "0.6", ["--target-exp", "nan"], "polygamy target exponent must be >= 0.6"),
        ("polygamy", "0.6", ["--target-exp", "1", "--a", "nan"], "a must be >= 1, got nan"),
        ("monogamy", "2", ["--target-exp", "1", "--a", "nan"], "a must be >= 1, got nan"),
        ("monogamy", "nan", ["--target-exp", "1"], "base exponent must be >= 2, got nan"),
        # an infinite exponent would print ``margin: nan`` and exit 0
        ("polygamy", "0.6", ["--target-exp", "inf"], "target exponent must be finite, got inf"),
        ("monogamy", "inf", ["--target-exp", "1"], "base exponent must be finite, got inf"),
    ])
    def test_nan_parameter_exit_3(self, capsys, mode, base, extra, seen):
        state, kind = (("wclass:1/2,1/2,sqrt(2)/2", "screnoa") if mode == "polygamy"
                       else (EX1, "concurrence"))
        code, out, err = run(capsys, "bound", "--state", state, "--kind", kind,
                             "--mode", mode, "--base-exp", base, *extra)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and seen in err

    def test_overflowing_weight_prints_inf(self, capsys):
        # (1 + a)^(x - 1) overflows at a = 1e300, x = 5: the bound is inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys,
                "bound", "--state", "wclass:1/2,1/2,sqrt(2)/2", "--kind", "screnoa",
                "--mode", "polygamy", "--base-exp", "0.6", "--target-exp", "3", "--a", "1e300",
            )
        assert code == 0 and err == ""
        assert "bound_value: inf" in out and "margin: inf" in out
        assert "ratio_condition_ok: false" in out


class TestRepro:
    def test_example1_csv(self, capsys, tmp_path):
        out_path = tmp_path / "ex1.csv"
        code, _, _ = run(capsys, "repro", "example1", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "alpha,r,Z1,Z2,Z3"
        assert len(lines) == 1 + 51 * 61

    def test_example1_ordering(self, capsys, tmp_path):
        out_path = tmp_path / "ex1.csv"
        run(capsys, "repro", "example1", "--out", str(out_path))
        for line in out_path.read_text().splitlines()[1:]:
            alpha, r, z1, z2, z3 = line.split(",")
            if float(alpha) == 0:
                continue
            assert float(z3) >= float(z1) - 1e-12
            if z2:
                assert float(z3) >= float(z2) - 1e-12

    def test_example2_csv(self, capsys, tmp_path):
        out_path = tmp_path / "ex2.csv"
        code, _, _ = run(capsys, "repro", "example2", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "beta,s,W1,W2,W3,W1_minus_W3,W2_minus_W3"
        for line in lines[1:]:
            d1, d2 = line.split(",")[-2:]
            assert float(d1) >= -1e-12 and float(d2) >= -1e-12

    def test_byte_identical_reruns(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "repro", "example2", "--out", str(p1))
        run(capsys, "repro", "example2", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_stdout(self, capsys):
        code, out, _ = run(capsys, "repro", "example1", "--grid", "0.5:0.5:1,2:2:1")
        assert code == 0
        assert out.startswith("alpha,r,Z1,Z2,Z3\n")
        assert len(out.splitlines()) == 2

    @pytest.mark.parametrize("grid,seen", [
        ("0:inf:1,2:5:0.01", "finite"),
        ("0:1e308:1e-308,2:5:0.01", "10^6"),
    ])
    def test_unbuildable_grid_exit_3(self, capsys, grid, seen):
        code, out, err = run(capsys, "repro", "example1", "--grid", grid)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and seen in err

    @pytest.mark.parametrize("grid", ["0:1,2:5:0.01", "0:1:a,2:5:0.01", "0:1:0.1"])
    def test_malformed_grid_exit_2(self, capsys, grid):
        code, out, err = run(capsys, "repro", "example1", "--grid", grid)
        assert code == 2 and out == ""
        assert err == f"error: cannot parse grid {grid!r}\n"

    def test_overflowing_grid_exit_3(self, capsys):
        # (1 + a)^x overflows a Python float at beta / s = 2000 / 0.6
        code, out, err = run(capsys, "repro", "example2", "--grid", "0.6:0.6:0.1,0.6:2000:500")
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_io_error_exit_4(self, capsys):
        code, _, _ = run(capsys, "repro", "example1", "--out", "/nonexistent/dir/x.csv")
        assert code == 4

    def test_grid_axes_built_once(self, capsys, monkeypatch):
        # SweepGrid builds each axis when it is made; dominance_scan reads them
        calls = []

        def counting(*args):
            calls.append(args)
            return axis(*args)

        axis = verify._axis
        monkeypatch.setattr(verify, "_axis", counting)
        for example, grid in (("example1", "0.300:0.310:0.005,2:5:0.01"),
                              ("example2", "0.800:0.804:0.002,0.6:3:0.01")):
            calls.clear()
            code, out, _ = run(capsys, "repro", example, "--grid", grid)
            assert code == 0 and out.count("\n") > 600
            assert len(calls) == 2


class TestWriteCsv:
    HEADER = ["alpha", "r", "Z1", "Z2", "Z3"]
    TABLE = [
        [-0.0, 1e-300, 1e16, math.inf, 0.1],
        [1 / 3, 2.0, -math.inf, math.nan, 5e-324],
        [1e-5, 123456789012.5, 1.0000000000005, math.nan, -2.5e-16],
        [0.0, 1e300, -1e16, 0.5, 2 / 3],
        [1e15, 1e17, 0.000123456789012345, math.nan, -0.0],
    ]

    def expected(self):
        lines = [",".join(self.HEADER)]
        lines += [",".join(cli._fmt(None if math.isnan(v) else v) for v in row)
                  for row in self.TABLE]
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("chunk", [1, 2, 4096])
    def test_matches_per_field_fmt(self, capsys, monkeypatch, tmp_path, chunk):
        # a chunk of 2 puts chunk boundaries inside the table, and a chunk of
        # 1 gives chunks of a single row
        monkeypatch.setattr(cli, "CSV_CHUNK", chunk)
        cli._write_csv("-", self.HEADER, np.array(self.TABLE))
        assert capsys.readouterr().out == self.expected()
        path = tmp_path / "t.csv"
        cli._write_csv(str(path), self.HEADER, np.array(self.TABLE))
        assert path.read_bytes() == self.expected().encode("ascii")

    def test_empty_table(self, capsys):
        cli._write_csv("-", self.HEADER, np.empty((0, 5)))
        assert capsys.readouterr().out == "alpha,r,Z1,Z2,Z3\n"

    def template(self, table, header=HEADER):
        """The writer's earlier form, one %-template per row, as the reference."""
        row = ",".join(["%.12g"] * len(header)) + "\n"
        text = row * len(table) % tuple(table.ravel().tolist())
        return ",".join(header) + "\n" + text.replace("nan", "")

    @staticmethod
    def values(kind, rng):
        if kind == "magnitudes":
            return rng.choice([-1.0, 1.0], 20000) * 10.0 ** rng.uniform(-320, 300, 20000)
        if kind == "fixed-notation":
            return rng.choice([-1.0, 1.0], 20000) * 10.0 ** rng.uniform(-5.5, 12.5, 20000)
        if kind == "edges":
            edges = [0.0, math.inf, math.nan, 9.99999999999949e-05, 9.9999999999995e-05,
                     999999999999.4, 999999999999.5, 1e12, 1e-5, 1e-4, 1.0, 1e11,
                     5e-324, 2.2250738585072014e-308]
            edges = np.array(edges + [10.0**k for k in range(-12, 16)])
            edges = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf),
                                    [1.7976931348623157e308]])
            return np.concatenate([edges, -edges])
        # ties of the 13th significant digit, exact at exponent 11 and rounded
        # below it, and their neighbours on either side
        ties = (rng.integers(10**11, 10**12, 5000) + 0.5) * 10.0 ** rng.integers(-16, 1, 5000)
        ties = np.concatenate([ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf)])
        return np.concatenate([ties, -ties])

    @pytest.mark.parametrize("kind", ["magnitudes", "fixed-notation", "edges", "ties"])
    def test_matches_template(self, capsys, kind):
        values = self.values(kind, np.random.default_rng(14))
        table = np.resize(values, (-(-len(values) // 5), 5))
        cli._write_csv("-", self.HEADER, table)
        assert capsys.readouterr().out == self.template(table)

    # the cases run from fewer columns to more, so that each column count's
    # chunks grow the buffers that the one before left; one and two columns
    # put a row separator after every field or every second one
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("cols", [1, 2, 5, 7])
    def test_rows_around_chunk(self, capsys, cols, extra):
        rng = np.random.default_rng(15)
        values = np.concatenate([self.values(kind, rng) for kind in ("fixed-notation", "edges")])
        table = rng.permutation(values)[:cols * (cli.CSV_CHUNK + extra)].reshape(-1, cols)
        header = [f"c{j}" for j in range(cols)]
        cli._write_csv("-", header, table)
        assert capsys.readouterr().out == self.template(table, header)

    @pytest.mark.parametrize("example, grid, shape, passes", [
        ("example1", "0.000:0.010:0.005,2:5:0.01", (903, 5), 1),
        ("example2", "0.600:0.604:0.002,0.6:3:0.01", (721, 7), 1),
        (None, None, (cli.CSV_CHUNK + 1, 7), 2),
    ], ids=["903x5", "721x7", "chunk+1"])
    def test_chunk_passes(self, monkeypatch, tmp_path, example, grid, shape, passes):
        # every tile of the benchmark's scalar-surface workload is one kernel
        # pass, and one row past a chunk takes a second
        if example is None:
            header, table = [f"c{j}" for j in range(7)], np.ones(shape)
        else:
            header, table = verify.dominance_scan(example, cli._parse_grid(grid))
        assert table.shape == shape
        chunks = []
        csv_rows = cli._csv_rows

        def counting(chunk):
            chunks.append(len(chunk))
            return csv_rows(chunk)

        monkeypatch.setattr(cli, "_csv_rows", counting)
        cli._write_csv(str(tmp_path / "t.csv"), header, table)
        assert len(chunks) == passes and sum(chunks) == shape[0]

    def test_threads_keep_their_own_buffers(self, tmp_path):
        # NumPy drops the GIL inside its loops, so two threads formatting at
        # once would overwrite each other's text in shared buffers
        rng = np.random.default_rng(16)
        tables = [np.resize(self.values(kind, rng), (1500, cols))
                  for kind, cols in (("fixed-notation", 5), ("magnitudes", 7))]
        header = [f"c{j}" for j in range(7)]

        def write(table, path):
            cli._write_csv(str(path), header[:table.shape[1]], table)
            return path.read_bytes()

        want = [write(table, tmp_path / f"want{i}.csv") for i, table in enumerate(tables)]
        got = [[], []]
        start = threading.Barrier(2)

        def worker(i):
            start.wait()
            for _ in range(50):
                got[i].append(write(tables[i], tmp_path / f"got{i}.csv"))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert got == [[want[0]] * 50, [want[1]] * 50]

    @staticmethod
    def second_write_peak(tmp_path, example, grid):
        """The shape of a tile of the benchmark's scalar-surface workload and
        its ``second_peak``."""
        header, table = verify.dominance_scan(example, cli._parse_grid(grid))
        return table.shape, TestWriteCsv.second_peak(tmp_path, header, table)

    @staticmethod
    def second_peak(tmp_path, header, table):
        """tracemalloc's peak over the second of two writes of a table: the
        second write finds the kernel's buffers in place and builds no index
        array."""
        path = str(tmp_path / "tile.csv")
        cli._write_csv(path, header, table)
        tracemalloc.start()
        try:
            cli._write_csv(path, header, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak

    def test_repeated_tile_reuses_its_buffers(self, tmp_path):
        shape, peak = self.second_write_peak(tmp_path, "example2", "0.600:0.604:0.002,0.6:3:0.01")
        assert shape == (721, 7)
        assert peak < 450_000

    def test_repeated_example1_tile_reuses_its_buffers(self, tmp_path):
        # measured 264 KB
        shape, peak = self.second_write_peak(tmp_path, "example1", "0.000:0.010:0.005,2:5:0.01")
        assert shape == (903, 5)
        assert peak < 300_000

    def test_repeated_full_chunk_reuses_its_buffers(self, tmp_path):
        # a whole chunk of 7 columns, the widest table the library writes;
        # measured 415 KB, bounded with about 15% headroom
        table = self.values("fixed-notation", np.random.default_rng(17))
        table = table[:7 * cli.CSV_CHUNK].reshape(-1, 7)
        assert table.shape == (cli.CSV_CHUNK, 7)
        assert self.second_peak(tmp_path, [f"c{j}" for j in range(7)], table) < 478_000


def test_parser_reused_after_parse_failure(capsys):
    calls = [
        ["repro", "example1", "--grid", "0:1:0.25,2:3:0.5"],
        ["bound", "--state", EX1, "--kind", "concurrence", "--mode", "monogamy",
         "--base-exp", "2", "--target-exp", "1"],
    ]

    def fresh(argv):
        cli.build_parser.cache_clear()
        return run(capsys, *argv)

    want = [fresh(argv) for argv in calls]
    assert all(code == 0 for code, _, _ in want)
    with pytest.raises(SystemExit) as exc:
        main(calls[1][:-1] + ["nope"])
    assert exc.value.code == 2
    assert "invalid float value" in capsys.readouterr().err
    assert cli.build_parser() is cli.build_parser()
    assert [run(capsys, *argv) for argv in calls] == want


SPEC = "haar:2x2x2:7"
BOUND = ["bound", "--state", SPEC, "--kind", "concurrence", "--mode", "monogamy",
         "--base-exp", "2", "--target-exp", "1"]

# help at both levels, abbreviations, --opt=value, "--", missing and unknown
# options, bad choices and values, extra arguments, and non-subcommand heads
PARSE_CORPUS = [
    [],
    ["-h"],
    ["--help"],
    ["--he"],
    ["-h", "measure"],
    ["mesure", "--state", SPEC],
    ["--state", SPEC, "measure"],
    ["measure"],
    ["measure", "-h"],
    ["bound", "--help"],
    ["repro", "--he"],
    ["verify", "-h", "--suite", "bogus"],
    ["measure", "--state", SPEC, "--kind", "concurrence"],
    ["measure", "--state=wclass:1,0,0", "--kind=negativity"],
    ["measure", "--sta", SPEC, "--ki", "concurrence"],
    ["measure", "--state", SPEC, "--kind", "bogus"],
    ["measure", "--state", SPEC],
    ["measure", "--state", SPEC, "--kind", "concurrence", "--bogus"],
    ["measure", "--state", SPEC, "--kind", "concurrence", "extra", "-x"],
    ["measure", "--state", SPEC, "--kind", "concurrence", "--", "extra"],
    ["measure", "--", "--state", SPEC],
    ["measure", "--state", "-1", "--kind", "concurrence"],
    ["measure", "--state", "a", "--kind", "scren", "--state", "b", "verify"],
    BOUND,
    BOUND + ["--a", "-1.5", "--variant", "zjz1", "--p=0.7"],
    BOUND + ["--base", "3", "--tar", "2"],
    BOUND[:-1] + ["nope"],
    BOUND + ["--mode", "both"],
    ["repro", "example1"],
    ["repro", "example3"],
    ["repro"],
    ["repro", "example1", "example2"],
    ["repro", "example2", "--grid", "0:1:0.5,2:3:0.5", "--out", "-"],
    ["verify", "--suite", "all", "--n", "10", "--seed", "3", "--tol", "1e-6"],
    ["verify", "--suite", "scalar", "--n", "ten"],
    ["verify", "--s", "scalar"],
]


def parse_outcome(capsys, parse, argv):
    try:
        args, code = parse(argv), None
    except SystemExit as exc:
        args, code = None, exc.code
    out = capsys.readouterr()
    return args, code, out.out, out.err


class TestParseArgs:
    @pytest.mark.parametrize("argv", PARSE_CORPUS, ids=" ".join)
    def test_matches_top_level_parse(self, capsys, argv):
        want = parse_outcome(capsys, cli.build_parser().parse_args, list(argv))
        assert parse_outcome(capsys, cli.parse_args, list(argv)) == want

    @pytest.mark.parametrize("argv", [
        ["measure", "--state", SPEC, "--kind", "concurrence"],
        BOUND,
        ["repro", "example1", "--grid", "0:1:0.5,2:3:0.5"],
        ["verify", "--suite", "scalar", "--n", "10", "--seed", "1"],
    ], ids=lambda argv: argv[0])
    def test_subcommand_skips_top_level_parse(self, capsys, monkeypatch, argv):
        parse_known_args = argparse.ArgumentParser.parse_known_args
        parsed = []

        def counted(self, *args, **kwargs):
            parsed.append(self.prog)
            return parse_known_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        assert run(capsys, *argv)[0] == 0
        assert parsed == [f"monogamy {argv[0]}"]
        cli.build_parser().parse_args(argv)
        assert parsed[1:] == ["monogamy", f"monogamy {argv[0]}"]


class TestSeedVariable:
    @pytest.mark.parametrize("value", ["abc", "-5", "", "1.5"])
    @pytest.mark.parametrize("argv", [
        ["measure", "--state", "haar:2x2x2", "--kind", "concurrence"],
        ["measure", "--state", EX1, "--kind", "concurrence"],
        BOUND,
        ["verify", "--suite", "scalar", "--n", "10"],
    ], ids=["measure-haar", "measure-schmidt3", "bound", "verify"])
    def test_bad_value_is_usage_error(self, capsys, monkeypatch, argv, value):
        monkeypatch.setenv("MONOGAMY_SEED", value)
        assert run(capsys, *argv) == (
            2, "", f"error: MONOGAMY_SEED must be a non-negative integer, got {value!r}\n")

    @pytest.mark.parametrize("argv,err", [
        (["measure", "--state", "haar:2x2x2:-5", "--kind", "concurrence"],
         "haar seed must be a non-negative integer, got '-5'"),
        (["verify", "--suite", "scalar", "--n", "10", "--seed", "-5"],
         "--seed must be a non-negative integer, got -5"),
    ], ids=["haar-spec", "verify"])
    def test_negative_seed_is_usage_error(self, capsys, argv, err):
        assert run(capsys, *argv) == (2, "", f"error: {err}\n")

    def test_unread_with_verify_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("MONOGAMY_SEED", "abc")
        assert run(capsys, "verify", "--suite", "scalar", "--n", "10", "--seed", "1")[0] == 0


def test_oversize_haar_spec_exit_2(capsys):
    spec = "haar:" + "x".join(["2"] * 50)
    code, out, err = run(capsys, "measure", "--state", spec, "--kind", "concurrence")
    assert (code, out) == (2, "")
    assert err.startswith("error: haar dims") and "1125899906842624 amplitudes" in err


@pytest.mark.parametrize("dims", ["-2x2x2", "0x2x2"])
def test_haar_dims_below_one_exit_2(capsys, dims):
    code, out, err = run(capsys, "measure", "--state", f"haar:{dims}", "--kind", "concurrence")
    assert (code, out, err) == (2, "", f"error: haar dims {dims!r} must all be at least 1\n")


class TestVerify:
    def test_scalar_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "scalar", "--n", "2000", "--seed", "1")
        assert code == 0
        data = json.loads(out)
        assert data["scalar"]["failures"] == 0

    def test_zero_samples(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "scalar", "--n", "0")
        assert code == 0
        assert json.loads(out)["scalar"]["total"] == 0

    @pytest.mark.parametrize("suite", ["scalar", "monogamy", "polygamy", "dominance", "all"])
    def test_negative_samples_exit_3(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite, "--n", "-4")
        assert code == 3 and out == ""
        assert "sample count n must be nonnegative, got -4" in err

    @pytest.mark.parametrize("suite", ["scalar", "monogamy", "polygamy", "dominance", "all"])
    def test_nan_tolerance_exit_3(self, capsys, suite):
        # a NaN tol would pass every margin and exit 0, also on the suites that
        # keep their own tolerances
        code, out, err = run(capsys, "verify", "--suite", suite, "--n", "50", "--tol", "nan")
        assert code == 3 and out == ""
        assert err == "error: tolerance tol must be a number, got nan\n"

    def test_dominance_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "dominance")
        assert code == 0
        assert json.loads(out)["dominance"]["failures"] == 0

    def test_unknown_suite_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        capsys.readouterr()
        assert exc.value.code == 2

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("MONOGAMY_SEED", "123")
        _, out_a, _ = run(capsys, "verify", "--suite", "scalar", "--n", "500")
        _, out_b, _ = run(capsys, "verify", "--suite", "scalar", "--n", "500", "--seed", "123")
        assert out_a == out_b


# each was read by Python's int() or float() as another number: seed 10, a
# 22-level system, seed 3, 0.5 for 05, 1/(2/3), beta = 5 and a step of 5
MISREAD = [
    ({}, ["measure", "--state", "haar:2x2x2:1_0", "--kind", "concurrence"],
     "error: cannot parse seed '1_0'\n"),
    ({}, ["measure", "--state", "haar:2_2x2:3", "--kind", "concurrence"],
     "error: cannot parse dims '2_2x2'\n"),
    ({}, ["measure", "--state", "haar:2x2x2:\u0663", "--kind", "concurrence"],
     "error: cannot parse seed '\u0663'\n"),
    ({}, ["measure", "--state", "wclass:0_5,0_5,sqrt(2)/2", "--kind", "concurrence"],
     "error: cannot parse number '0_5'\n"),
    ({}, ["measure", "--state", "wclass:1/2/3,0,1", "--kind", "concurrence"],
     "error: cannot parse number '1/2/3'\n"),
    ({"MONOGAMY_SEED": "1_0"}, ["verify", "--suite", "scalar", "--n", "10"],
     "error: MONOGAMY_SEED must be a non-negative integer, got '1_0'\n"),
    ({}, ["verify", "--suite", "scalar", "--n", "10", "--seed", "1_0"],
     "monogamy verify: error: argument --seed: invalid int value: '1_0'\n"),
    ({}, ["verify", "--suite", "scalar", "--n", "1_0"],
     "monogamy verify: error: argument --n: invalid int value: '1_0'\n"),
    ({}, BOUND[:-1] + ["0_5"],
     "monogamy bound: error: argument --target-exp: invalid float value: '0_5'\n"),
    ({}, ["repro", "example1", "--grid", "0:1:0_5,2:3:1"],
     "error: cannot parse grid '0:1:0_5,2:3:1'\n"),
]


@pytest.mark.parametrize("env,argv,err", MISREAD, ids=[
    " ".join([f"{k}={v}" for k, v in env.items()] + argv) for env, argv, _ in MISREAD])
def test_refuses_what_python_misreads(capsys, monkeypatch, env, argv, err):
    """Exit 2 with the text of the number's kind: argparse's own for an
    option, the spec's, grid's or variable's for the rest."""
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err == err or out.err.startswith("usage: ") and out.err.endswith(err)


def test_option_numbers_keep_their_values(capsys):
    args = cli.parse_args(BOUND[:-1] + [" 1e-1 ", "--a", "2", "--p", "-0.25"])
    assert (args.target_exp, args.a, args.p, args.base_exp) == (0.1, 2.0, -0.25, 2.0)
    assert all(type(v) is float for v in (args.target_exp, args.a, args.p, args.base_exp))
    args = cli.parse_args(["verify", "--suite", "scalar", "--n", "010", "--seed", "+7"])
    assert (args.n, args.seed) == (10, 7) and type(args.n) is type(args.seed) is int


class TestClosedStdout:
    """A reader that closes stdout early gets no error text, and the exit
    status a shell gives a process that SIGPIPE stops."""

    @staticmethod
    def spawn(argv, stdout):
        # block-buffered stdout, as from a shell: without PYTHONUNBUFFERED
        # what the last write leaves in the buffer is flushed at exit
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        env.pop("PYTHONUNBUFFERED", None)
        return subprocess.Popen([sys.executable, "-m", "monogamy.cli", *argv],
                                stdout=stdout, stderr=subprocess.PIPE, env=env)

    @staticmethod
    def outcome(proc):
        err = proc.stderr.read()
        proc.stderr.close()
        return proc.wait(timeout=60), err

    def test_reader_closing_after_one_line(self):
        # 60,501 rows, far past a pipe's buffer: a write fails in the middle
        proc = self.spawn(["repro", "example1", "--grid", "0:1:0.005,2:5:0.01"],
                          subprocess.PIPE)
        assert proc.stdout.readline() == b"alpha,r,Z1,Z2,Z3\n"
        proc.stdout.close()
        assert self.outcome(proc) == (cli.EXIT_PIPE, b"")
        assert cli.EXIT_PIPE == 141

    @pytest.mark.parametrize("argv", [
        ["measure", "--state", EX1, "--kind", "concurrence"],
        ["verify", "--suite", "scalar", "--n", "10", "--seed", "1"],
        ["repro", "example2", "--grid", "0.6:1:0.1,0.6:3:0.5"],
    ], ids=lambda argv: argv[0])
    def test_reader_gone_before_the_first_write(self, argv):
        """Short output sits in stdout's buffer until ``main`` flushes it:
        the failure is seen there, not by Python's exit-time flush."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = self.spawn(argv, write_end)
        os.close(write_end)
        assert self.outcome(proc) == (cli.EXIT_PIPE, b"")

    def test_in_process_redirect_is_left_alone(self, capsys, monkeypatch):
        """A stream without a file descriptor is not repointed."""
        class Closed:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        before = os.fstat(1)
        monkeypatch.setattr(sys, "stdout", Closed())
        assert main(["measure", "--state", EX1, "--kind", "concurrence"]) == 141
        monkeypatch.undo()
        after = os.fstat(1)
        assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)
        assert capsys.readouterr().err == ""
