"""Command-line front end.

Subcommands: ``measure`` (measure vector of a state), ``bound`` (evaluate a
weighted bound), ``repro`` (bound-surface CSVs for the two worked
examples), ``verify`` (random-sampling verification suites).

Exit codes: 0 ok, 1 verification failure, 2 usage/parse error, 3 domain
error or overflow, 4 I/O error, 141 stdout closed by its reader (nothing is
printed).  Numbers are serialized with 12 significant digits and CSV output
is locale-independent with ``\\n`` newlines.  Every number read from text
(an option, a state spec, a grid or ``MONOGAMY_SEED``) is read by
``states.read_number``: ASCII, without ``_``.

The ``MONOGAMY_SEED`` environment variable supplies the default seed, a
non-negative integer (anything else is a usage error); all other options
are flag-driven.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import threading
from typing import Sequence

import numpy as np

from . import bounds, linalg, verify
from .measures import MeasureKind, measure_vector
from .states import StateSpecError, parse_state_spec, read_number

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4
EXIT_PIPE = 141  # the reader closed stdout: 128 + SIGPIPE, as a shell reports it

# Rows of a CSV table formatted and written per write call.  Larger chunks
# make fewer NumPy calls; smaller ones keep the kernel's temporaries and its
# per-thread buffers (64 B per field) small.  At 1024 rows a 666-903-row
# repro tile is one kernel pass, and with the buffers reused a tile of a
# mixed scalar-surface pass takes about 0.03 minor faults.
CSV_CHUNK = 1024

# The CSV kernel writes each field into _W byte slots and then drops the
# slots its text does not use: 0-1 are never used, 2 is a minus sign, 3-7
# the "0.000" prefix of a value below 1, and 8-31 hold twelve (digit, point)
# pairs, whose last point slot is the separator.
_W = 32
_HEAD = np.frombuffer(b"  -0.000", np.uint64)
_P10 = np.array([float(10**k) for k in range(17)])  # each one exact
_SEP_ONLY = 16 * 13 * 2  # the keep-table row after every (x, zeros, sign)
# Each thread's text and keep buffers, grown on demand and reused: NumPy
# drops the GIL inside its loops, so threads must not share them.
_csv_buffers = threading.local()


@functools.cache
def _csv_tables():
    """The 8-byte words of the text and the keep masks.

    The words are the digits and points ("d.d.d.d.") of every 4-digit group,
    then the group 10000, which prints as 1000 (the leading group of a
    mantissa that rounded up to 10^12), then _HEAD.  The trailing-zero
    counts cover the same 10001 groups; 10000 counts 3 zeros and 13 more,
    one step of the exponent x in the keep table.  The keep table holds, as
    four 64-bit masks, the slots to keep for each (x in [-4, 11], trailing
    zeros of the mantissa, sign) code, plus a last code, _SEP_ONLY, that
    keeps only the separator.  Built on first use: a process that writes no
    CSV does not pay for them."""
    d = np.arange(100, dtype=np.uint8)
    pair = np.full((100, 4), ord("."), np.uint8)
    pair[:, 0], pair[:, 2] = d // 10 + 48, d % 10 + 48
    pair = pair.view(np.uint32).ravel()
    quads = np.empty((100, 100, 2), np.uint32)
    quads[:, :, 0], quads[:, :, 1] = pair[:, None], pair
    quads = quads.view(np.uint64).ravel()
    zeros = (d % 10 == 0) + (d == 0).astype(np.uint8)
    quad_zeros = np.where(d == 0, zeros[:, None] + np.uint8(2), zeros).ravel()
    slot = np.arange(_W)
    j = (slot - 8) // 2  # digit of a pair slot
    x = np.arange(-4, 12)[:, None, None, None]
    tz = np.arange(13)[:, None, None]
    neg = np.arange(2)[:, None]
    keep = ((slot == 2) & (neg == 1)
            | (slot >= 3) & (slot <= 3 - x) & (x < 0)
            | (slot >= 8) & (slot % 2 == 0) & ((j <= x) | (j < 12 - tz))
            | (slot >= 8) & (slot % 2 == 1) & (j == x) & (tz < 11 - x)
            | (slot == _W - 1))
    keep = np.concatenate([keep.reshape(-1, _W), [slot == _W - 1]])
    return (np.concatenate([quads, quads[1000:1001], _HEAD]),
            np.append(quad_zeros, np.uint8(3 + 13)), (keep * np.uint8(255)).view(np.uint64))


def _default_seed() -> int:
    text = os.environ.get("MONOGAMY_SEED", "0")
    message = f"MONOGAMY_SEED must be a non-negative integer, got {text!r}"
    seed = read_number(text, int, message)
    if seed < 0:
        raise StateSpecError(message)
    return seed


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return format(value, ".12g")


def _csv_codes(v: np.ndarray, quad_zeros: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """The keep-table row that prints each value, after writing the three
    4-digit groups of its 12-digit mantissa into ``quads``, an (N, 3) array;
    a NaN, or a value for Python's ``'%.12g'``, gets _SEP_ONLY.

    A value v in [1e-4, 999999999999.5) has decimal exponent e =
    floor(log10 |v|) and 12-digit mantissa m = rint(|v| * 10^(11 - e)), the
    rounding of |v| that ``%.12g`` prints, unless the product is within 1e-3
    of a rounding tie: it is below 2^40, so the multiply by an exact power of
    ten errs by at most 1.2e-4.  An m of 10^12 takes the leading group
    10000, which prints as 10^11 at exponent e + 1 (see ``_csv_tables``).
    In that range m rounds up only at e <= 10, and an e of -5 (log10
    rounding down at 1e-4) scales |v| to at least 10^12, so that only
    m = 10^12 passes: every kept code is in the table.  A tie, and every
    value outside the range, is left to Python's ``'%.12g'``."""
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 999999999999.5)
    np.copyto(a, 1.0, where=~fast)
    e = np.floor(np.log10(a)).astype(np.intp)
    a *= _P10.take(11 - e, mode="clip")  # the scaled mantissa
    m = np.rint(a)
    fast &= (np.abs(a - m) < 0.499) & (m >= 1e11) & (m <= 1e12)
    del a  # each temporary goes once dead: a chunk's peak stays small
    np.copyto(m, 0.0, where=~fast)  # a zero, scaled as 1.0, has e = 0 and prints as "0"
    m = m.astype(np.intp)  # below 2^40: the groups are integer divisions
    groups = np.empty((3, len(v)), np.intp)
    high = m // 10**4
    np.subtract(m, high * 10**4, out=groups[2])
    del m
    np.floor_divide(high, 10**4, out=groups[0])
    np.subtract(high, groups[0] * 10**4, out=groups[1])
    del high
    for j in range(3):  # one strided copy per column beats one transposed copy
        quads[:, j] = groups[j]
    z = quad_zeros.take(groups)
    del groups
    zeros = z[2] + (z[2] == 4) * (z[1] + (z[1] == 4) * z[0])
    code = e * 26  # ((e + 4) * 13 + zeros) * 2 + sign, the small terms in uint8
    code += zeros * np.uint8(2) + np.signbit(v)
    code += 4 * 26
    np.copyto(code, _SEP_ONLY, where=~(fast | (v == 0)))
    return code


def _csv_rows(chunk: np.ndarray) -> str:
    """The CSV lines of the rows of an (n, k) float array: each field is its
    value's ``'%.12g'`` text, and a NaN is an empty field."""
    rows, k = chunk.shape
    v = chunk.ravel()
    group_words, quad_zeros, keep_rows = _csv_tables()
    n = len(v)
    if getattr(_csv_buffers, "n", -1) < n:
        _csv_buffers.words = np.empty((n, _W // 8), np.uint64)
        _csv_buffers.keep = np.empty((n, _W // 8), np.uint64)
        _csv_buffers.n = n
    words, keep = _csv_buffers.words[:n], _csv_buffers.keep[:n]
    index = keep.view(np.intp)  # the word of each 8 slots, until the masks replace it
    index[:, 0] = len(group_words) - 1  # _HEAD
    code = _csv_codes(v, quad_zeros, index[:, 1:])
    group_words.take(index, out=words, mode="clip")  # "raise" would buffer a copy
    text = words.view(np.uint8)
    text.reshape(rows, k, _W)[:, :, -1] = ord(",")
    text.reshape(rows, k, _W)[:, -1, -1] = ord("\n")
    keep_rows.take(code, axis=0, out=keep, mode="clip")
    slow = np.flatnonzero((code == _SEP_ONLY) & ~np.isnan(v))
    if slow.size:
        fields = ["%.12g" % f for f in v[slow].tolist()]
        fields = np.array(fields, "S19").view(np.uint8).reshape(-1, 19)
        text[slow, 8:27] = fields
        keep.view(np.uint8)[slow, 8:27] = 255  # the zero padding is dropped as zero
    words &= keep  # no kept byte is 0: delete the dropped ones
    half = rows // 2 * k  # by row halves: a copy and translate's scratch of half the text
    return "".join([t.tobytes().translate(None, b"\0").decode("ascii")
                    for t in (text[:half], text[half:])])


def _write_csv(path: str, header: Sequence[str], table: np.ndarray):
    """Write the rows of an (N, k) float table, CSV_CHUNK rows at a time, as
    ``_csv_rows`` formats them: each value prints as ``_fmt`` prints it, and
    a NaN (a value outside its domain) prints as an empty field."""

    def emit(fh):
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), CSV_CHUNK):
            fh.write(_csv_rows(table[start:start + CSV_CHUNK]))

    if path == "-":
        emit(sys.stdout)
    else:
        with open(path, "w", encoding="ascii", newline="") as fh:
            emit(fh)


def _parse_grid(text: str) -> verify.SweepGrid:
    """Grid spec 'start:stop:step,start:stop:step', the example's two axes in order."""
    message = f"cannot parse grid {text!r}"
    fields = [axis.split(":") for axis in text.split(",")]
    if [len(axis) for axis in fields] != [3, 3]:
        raise StateSpecError(message)
    return verify.SweepGrid(*(read_number(v, float, message) for axis in fields for v in axis))


def cmd_measure(args) -> int:
    psi = parse_state_spec(args.state, default_seed=_default_seed())
    mv = measure_vector(psi, args.kind)
    print(f"one_vs_rest: {_fmt(mv.one_vs_rest)}")
    print("pairwise: [" + ", ".join(_fmt(v) for v in mv.pairwise) + "]")
    return EXIT_OK


def cmd_bound(args) -> int:
    psi = parse_state_spec(args.state, default_seed=_default_seed())
    mv = measure_vector(psi, args.kind)
    spec = bounds.BoundSpec(
        mode=args.mode,
        base_exp=args.base_exp,
        target_exp=args.target_exp,
        a=args.a,
        variant=args.variant,
        p=args.p,
    )
    fn = bounds.monogamy_bound if args.mode == "monogamy" else bounds.polygamy_bound
    rep = fn(mv, spec, strict=False)
    for name in ("bound_value", "measured_value", "margin", "a",
                 "max_admissible_a", "ratio_condition_ok", "base_relation_assumed"):
        print(f"{name}: {_fmt(getattr(rep, name))}")
    return EXIT_OK


def cmd_repro(args) -> int:
    grid = _parse_grid(args.grid) if args.grid else None
    header, table = verify.dominance_scan(args.example, grid)
    _write_csv(args.out, header, table)
    return EXIT_OK


_SUITES = ("scalar", "monogamy", "polygamy", "dominance", "all")


def cmd_verify(args) -> int:
    seed = _default_seed() if args.seed is None else args.seed
    if seed < 0:
        raise StateSpecError(f"--seed must be a non-negative integer, got {seed}")
    # a NaN --tol would pass every margin: recording no margins at it raises the
    # suites' own error before any suite runs, the scalar and dominance ones too
    verify.VerificationReport().record((), args.tol, None)
    # the suites' own rule on n, read once, so the dominance suite refuses it too
    linalg.nonnegative_whole(args.n, "sample count n")
    selected = _SUITES[:-1] if args.suite == "all" else (args.suite,)
    summaries = {}
    failed = False
    for suite in selected:
        if suite == "scalar":
            rep = verify.verify_scalar(args.n, seed=seed)
        elif suite == "monogamy":
            rep = verify.verify_monogamy_states(args.n, seed=seed, tol=args.tol)
        elif suite == "polygamy":
            rep = verify.verify_polygamy_states(args.n, seed=seed, tol=args.tol)
        else:
            rep = verify.VerificationReport()
            rep.merge(verify.verify_dominance("example1"))
            rep.merge(verify.verify_dominance("example2"))
        summaries[suite] = rep.summary()
        failed = failed or rep.failures > 0
    print(json.dumps(summaries, indent=2, sort_keys=True))
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.  Its ``commands``
    attribute is the name -> parser map of its subcommands."""
    parser = argparse.ArgumentParser(
        prog="monogamy",
        description="Weighted monogamy/polygamy bounds for multiqubit correlation measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices
    kinds = [k.value for k in MeasureKind]

    p = sub.add_parser("measure", help="print the measure vector of a state")
    p.add_argument("--state", required=True,
                   help="schmidt3:l0,l1,l2,l3,l4[,phi] | wclass:a,b,c | haar:d1xd2x...[:seed]")
    p.add_argument("--kind", required=True, choices=kinds)
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("bound", help="evaluate a weighted bound on a state")
    p.add_argument("--state", required=True)
    p.add_argument("--kind", required=True, choices=kinds)
    p.add_argument("--mode", required=True, choices=("monogamy", "polygamy"))
    p.add_argument("--a", type=float, default=None,
                   help="ratio parameter (default: max(1, max admissible a), the tightest "
                   "admissible a for two pairwise values only)")
    p.add_argument("--base-exp", dest="base_exp", type=float, required=True,
                   help="base exponent r (monogamy) or s (polygamy)")
    p.add_argument("--target-exp", dest="target_exp", type=float, required=True,
                   help="target exponent alpha or beta")
    p.add_argument("--variant", default="ours", choices=bounds.VARIANTS)
    p.add_argument("--p", type=float, default=0.5, help="zjz1 parameter p (or q)")
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("repro", help="write a bound-surface CSV for a worked example")
    p.add_argument("example", choices=("example1", "example2"))
    p.add_argument("--grid", default=None,
                   help="override grid: start:stop:step,start:stop:step")
    p.add_argument("--out", default="-", help="output CSV path, '-' for stdout")
    p.set_defaults(fn=cmd_repro)

    p = sub.add_parser("verify", help="run a verification suite, JSON summary to stdout")
    p.add_argument("--suite", required=True, choices=_SUITES)
    p.add_argument("--n", type=int, default=10000, help="samples per family")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-8,
                   help="margin tolerance of the monogamy and polygamy suites; the scalar "
                   "suite keeps tol 1e-12 and rtol 1e-9, the dominance suite 1e-12; a NaN is "
                   "refused for every suite")
    p.set_defaults(fn=cmd_verify)
    for p in parser.commands.values():  # argparse keeps its own invalid-value text
        p.register("type", int, functools.partial(read_number, kind=int))
        p.register("type", float, read_number)
    return parser


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with the same output, exit code
    and Namespace.  When ``argv[0]`` names a subcommand, the rest goes
    straight to that subcommand's parser instead of being scanned by the
    top-level parser first; the top-level parser reports what is left over."""
    parser = build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        parser.error("unrecognized arguments: %s" % " ".join(extra))
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed reader is seen here, not in the exit-time flush
        return code
    except BrokenPipeError:
        # nothing is printed; a stdout with a file descriptor is pointed at
        # os.devnull, so that the exit-time flush of what it buffers is quiet
        with contextlib.suppress(AttributeError, OSError):  # none in an in-process redirect
            fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return EXIT_PIPE
    except StateSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
