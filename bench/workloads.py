"""The four workloads: what each request is, how it is sent, how it is checked.

Every workload is a closed loop with a single client: it sends one request,
waits for the reply, checks it and sends the next.  Requests come in passes;
a pass is the workload's stated input size, and pass ``i`` of seed ``s``
draws its inputs from ``default_rng([s, i])`` only.  Every pass of a
workload has the same shape.

Request sizes keep each request near 10 ms on one core, so that a 20 s run
holds more than 1000 requests and the 99th latency percentile has at least
ten samples beyond it.
"""

from __future__ import annotations

import contextlib
import io
from array import array
from dataclasses import dataclass, field

import numpy as np

import oracle

WORKLOADS = ("haar-monogamy", "wclass-polygamy", "scalar-surface", "single-call")

ALPHAS_PER_STATE = 8  # verify.default_alpha_grid and the polygamy beta grid
HAAR_QUBITS = (3, 4, 5, 6)
HAAR_STATES = 6  # per request; one request per qubit count in a pass
WCLASS_STATES = 12  # per request
WCLASS_REQUESTS = 4  # per pass
SCALAR_SAMPLES = 20_000  # per family and request; 20 requests per pass
SCALAR_REQUESTS = 20
# Fine dominance grids, sent as tiles of three first-axis values each:
# example1 alpha 0..1 step 0.005 x r 2..5 step 0.01 (60501 rows),
# example2 s 0.6..1 step 0.002 x beta 0.6..3 step 0.01 (beta >= s, 44622 rows).
EXAMPLE1_TILES = [f"{k * 0.015:.3f}:{k * 0.015 + 0.01:.3f}:0.005,2:5:0.01" for k in range(67)]
EXAMPLE2_TILES = [
    f"{0.6 + k * 0.006:.3f}:{0.6 + k * 0.006 + 0.004:.3f}:0.002,0.6:3:0.01" for k in range(67)
]
SINGLE_SPECS = (oracle.SCHMIDT3_EXAMPLE, oracle.WCLASS_EXAMPLE) + tuple(
    "haar:" + "x".join("2" * q) for q in HAAR_QUBITS
)
# The worked polygamy example: s = 0.6 and a = 2^0.6 (Example 2).
WCLASS_S = 0.6


@dataclass(frozen=True)
class Request:
    kind: str
    args: tuple
    ops: int  # operations the request should complete


@dataclass
class Tally:
    """Counts of one phase of a run."""

    attempted: int = 0
    ops: int = 0  # completed
    failed: int = 0
    checks: int = 0  # verification margins checked
    samples: int = 0  # verification samples drawn
    skipped: int = 0  # of which skipped
    csv_rows: int = 0
    csv_bytes: int = 0
    # per request sent: its latency and the host probe run after it, kept in
    # flat arrays so that bookkeeping memory barely grows with the request count
    latencies: array = field(default_factory=lambda: array("d"))
    probes: array = field(default_factory=lambda: array("d"))
    problems: list = field(default_factory=list)

    def fail(self, count: int, message: str):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def requests(workload: str, seed: int, index: int) -> list[Request]:
    """The requests of pass ``index``."""
    rng = np.random.default_rng([seed, index])
    if workload == "haar-monogamy":
        return [Request("haar", (HAAR_STATES, _seed(rng), q), ALPHAS_PER_STATE * HAAR_STATES)
                for q in HAAR_QUBITS]
    if workload == "wclass-polygamy":
        return [Request("wclass", (WCLASS_STATES, _seed(rng)), ALPHAS_PER_STATE * WCLASS_STATES)
                for _ in range(WCLASS_REQUESTS)]
    if workload == "scalar-surface":
        reqs = []
        for k, specs in enumerate(zip(EXAMPLE1_TILES, EXAMPLE2_TILES)):
            if k % 3 == 0 and k // 3 < SCALAR_REQUESTS:
                reqs.append(Request("scalar", (SCALAR_SAMPLES, _seed(rng)), 8 * SCALAR_SAMPLES))
            for example, spec in zip(("example1", "example2"), specs):
                reqs.append(Request("repro", (example, spec), oracle.surface_size(example, spec)))
        return reqs
    if workload == "single-call":
        reqs = []
        for family in SINGLE_SPECS:
            spec = f"{family}:{_seed(rng)}" if family.startswith("haar:") else family
            if spec == oracle.WCLASS_EXAMPLE:
                kind, mode, base = "screnoa", "polygamy", WCLASS_S
                target, a = float(rng.uniform(WCLASS_S, 3.0)), 2**WCLASS_S
            else:
                kind, mode, base = "concurrence", "monogamy", 2.0
                target, a = float(rng.uniform(0.25, 2.0)), None
            reqs.append(Request("measure", (spec, kind), 1))
            reqs.append(Request("bound", (spec, kind, mode, base, target, a), 1))
        return reqs
    raise ValueError(f"unknown workload {workload!r}")


def warmup(reqs: list[Request]) -> list[Request]:
    """The first request of each kind: first LAPACK call, first parser build."""
    first = {}
    for req in reqs:
        first.setdefault(req.kind, req)
    return list(first.values())


def argv(req: Request) -> list[str]:
    if req.kind == "repro":
        example, spec = req.args
        return ["repro", example, "--grid", spec]
    if req.kind == "measure":
        spec, kind = req.args
        return ["measure", "--state", spec, "--kind", kind]
    spec, kind, mode, base, target, a = req.args
    out = ["bound", "--state", spec, "--kind", kind, "--mode", mode,
           "--base-exp", repr(base), "--target-exp", repr(target)]
    return out if a is None else out + ["--a", repr(a)]


def execute(mods, req: Request):
    """Send one request; this call is the timed part."""
    if req.kind == "haar":
        n, seed, q = req.args
        return mods.verify.verify_monogamy_states(n, seed=seed, n_qubits=q)
    if req.kind == "wclass":
        n, seed = req.args
        return mods.verify.verify_polygamy_states(n, seed=seed)
    if req.kind == "scalar":
        n, seed = req.args
        return mods.verify.verify_scalar(n, seed=seed)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mods.cli.main(argv(req))
    return code, out.getvalue(), err.getvalue()


def check(req: Request, out, tally: Tally):
    """Cheap checks of every reply: failure counts, totals and output shape."""
    if req.kind in ("haar", "wclass", "scalar"):
        tally.attempted += out.total  # skipped samples are not operations
        tally.ops += out.total
        tally.checks += out.total
        tally.samples += req.args[0] * (8 if req.kind == "scalar" else 1)
        tally.skipped += out.skipped
        if out.failures:
            tally.fail(out.failures, f"{req}: {out.failures} margins below tolerance")
        if req.kind == "wclass":
            ok = out.total == ALPHAS_PER_STATE * (req.args[0] - out.skipped)
        else:
            ok = out.total == req.ops and out.skipped == 0
        if not ok:
            tally.fail(1, f"{req}: total {out.total}, skipped {out.skipped}")
        return
    code, text, err = out
    tally.attempted += req.ops
    if code != 0:
        tally.fail(req.ops, f"{req}: exit {code}: {err.strip()}")
        return
    try:
        if req.kind == "repro":
            rows = text.count("\n") - 1
            tally.csv_rows += rows
            tally.csv_bytes += len(text)
            tally.ops += rows
            if rows != req.ops or not text.startswith(oracle.CSV_HEADERS[req.args[0]] + "\n"):
                tally.fail(1, f"{req}: {rows} rows")
            return
        if req.kind == "measure":
            n_pairs = len(oracle.parse_measure(text)[1])
            if n_pairs != oracle.spec_qubits(req.args[0]) - 1:
                tally.fail(1, f"{req}: {n_pairs} pairwise values")
                return
        else:
            f = oracle.parse_fields(text)
            if f["ratio_condition_ok"] != "true" or float(f["margin"]) < -oracle.MARGIN_TOL:
                tally.fail(1, f"{req}: {f}")
                return
    except (KeyError, ValueError) as exc:
        tally.fail(1, f"{req}: unparseable output ({exc}): {text!r}")
        return
    tally.ops += 1


def recheck(mods, req: Request, out) -> list[str]:
    """Full independent recomputation of one reply (outside the timed region)."""
    if req.kind == "haar":
        n, seed, q = req.args
        return oracle.check_haar_report(mods, n, seed, q, out)
    if req.kind == "wclass":
        n, seed = req.args
        return oracle.check_wclass_report(mods, n, seed, out)
    if req.kind == "scalar":
        return []  # totals and failures are checked on every reply
    code, text, _ = out
    try:
        if req.kind == "repro":
            return oracle.check_surface_csv(*req.args, text)
        if req.kind == "measure":
            return oracle.check_measure_output(*req.args, text)
        return oracle.check_bound_output(*req.args, text)
    except (KeyError, ValueError) as exc:
        return [f"{req}: unparseable output ({exc})"]
