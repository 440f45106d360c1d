"""Random-sampling verification of the inequalities and parameter-sweep scans.

Every report is deterministic for a fixed (seed, n, grid): sampling uses a
single PCG64 generator and cells are emitted in canonical order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .measures import MeasureKind, measure_vectors
from .states import haar_random_block, w_class_amps

MAX_FAILURE_SAMPLES = 100

# States drawn and measured per stacked call in the state suites, so that memory
# stays flat in n: the pair gather of 64 six-qubit states takes 320 KiB.
STATE_BLOCK = 64

# Worked-example fixtures: pairwise values, the associated ratio parameter and
# the measured one-vs-rest value.
EXAMPLE1_PAIRWISE = (math.sqrt(6) / 6, 0.5)  # concurrences C_{A1A2}, C_{A1A3}
EXAMPLE1_A = math.sqrt(6) / 2
EXAMPLE1_MEASURED = math.sqrt(21) / 6
EXAMPLE2_PAIRWISE = (0.25, 0.5)  # SCRENoA values
EXAMPLE2_S_MIN = 0.6
EXAMPLE2_A = 2**0.6
EXAMPLE2_MEASURED = 0.75

# Polygamy sampling: ratio condition becomes vacuous as the two pairwise
# values approach each other; samples with log2(ratio) below this floor are
# skipped rather than evaluated at a degenerate exponent.
MIN_LOG2_RATIO = 0.05


@dataclass(frozen=True)
class SweepGrid:
    """Two named, evenly stepped axes (end points inclusive)."""

    axis1: str
    start1: float
    stop1: float
    step1: float
    axis2: str
    start2: float
    stop2: float
    step2: float

    def __post_init__(self):
        fields = (self.start1, self.stop1, self.step1, self.start2, self.stop2, self.step2)
        if not all(map(math.isfinite, fields)):
            raise ValueError(f"grid fields must be finite, got {fields}")
        if self.step1 <= 0 or self.step2 <= 0:
            raise ValueError("grid steps must be positive")
        if self.stop1 < self.start1 or self.stop2 < self.start2:
            raise ValueError("grid ranges must be nonempty")
        # an axis keeps at least max(1, round(span / step)) of its values, so
        # this rejects an oversize grid before any axis is built
        least = [max(1.0, (stop - start) / step - 0.5) for start, stop, step
                 in (fields[:3], fields[3:])]
        if least[0] * least[1] > 10**6 or len(self.values1()) * len(self.values2()) > 10**6:
            raise ValueError("grid size exceeds 10^6 cells")

    def values1(self) -> np.ndarray:
        return _axis(self.start1, self.stop1, self.step1)

    def values2(self) -> np.ndarray:
        return _axis(self.start2, self.stop2, self.step2)


def _axis(start: float, stop: float, step: float) -> np.ndarray:
    """The values start + k * step up to stop.  The end point is kept within
    a tolerance relative to the axis's magnitude, 1e-12 * max(1, |start|,
    |stop|), which covers the round-off of start + k * step."""
    n = int(round((stop - start) / step)) + 1
    vals = start + step * np.arange(n)
    return vals[vals <= stop + 1e-12 * max(1.0, abs(start), abs(stop))]


@dataclass
class VerificationReport:
    total: int = 0
    failures: int = 0
    skipped: int = 0
    worst_margin: float = math.inf
    failure_samples: list = field(default_factory=list)

    def record(self, margins, tol: float, describe):
        """Count an array of margins; those below ``-tol`` and those that are
        not finite are failures, and ``worst_margin`` is the least finite one.

        ``describe(i)`` names the failing entry ``i`` of ``margins``; it is
        called for failing entries only.
        """
        margins = np.asarray(margins, dtype=float).ravel()
        self.total += margins.size
        least = margins.min(initial=math.inf)
        # a block with no failure needs only its least margin
        if not (math.isfinite(least) and least >= -tol and margins.max() < math.inf):
            finite = np.isfinite(margins)
            least = margins[finite].min(initial=math.inf)
            bad = np.flatnonzero(~finite | (margins < -tol))
            self.failures += bad.size
            for i in bad[: MAX_FAILURE_SAMPLES - len(self.failure_samples)].tolist():
                self.failure_samples.append((describe(i), float(margins[i])))
        self.worst_margin = min(self.worst_margin, float(least))

    def skip(self):
        self.skipped += 1

    def merge(self, other: "VerificationReport"):
        self.total += other.total
        self.failures += other.failures
        self.skipped += other.skipped
        self.worst_margin = min(self.worst_margin, other.worst_margin)
        room = MAX_FAILURE_SAMPLES - len(self.failure_samples)
        self.failure_samples.extend(other.failure_samples[:room])

    def summary(self) -> dict:
        worst = self.worst_margin if self.total else None
        return {
            "total": self.total,
            "failures": self.failures,
            "skipped": self.skipped,
            "worst_margin": worst,
        }


def _sample_count(n) -> int:
    n = int(n)
    if n < 0:
        raise ValueError(f"sample count n must be nonnegative, got {n}")
    return n


def _indexed(label: str):
    """Failure descriptor ``label[i]`` for entry i of a sampled family."""
    return lambda i: f"{label}[{i}]"


def verify_scalar(n: int, seed: int = 0, tol: float = 1e-12,
                  rtol: float = 1e-9) -> VerificationReport:
    """Sample the scalar inequality families and count violations.

    Families (n samples each): the lower bound on (1+t)^x for 0 < x <= 1,
    the upper bound for x >= 1, lower dominance over the jfq/zjz1/zjz2
    variants, and upper dominance below them.  Absolute tolerance ``tol``
    for O(1) magnitudes, relative tolerance ``rtol`` for the large-x upper
    families.
    """
    report = VerificationReport()
    n = _sample_count(n)
    rng = np.random.default_rng(seed)

    a = rng.uniform(1.0, 10.0, n)
    t = rng.uniform(a, 100.0)
    x_lo = rng.uniform(0.0, 1.0, n)
    x_lo[x_lo == 0.0] = 1.0
    x_half = rng.uniform(0.0, 0.5, n)
    x_half[x_half == 0.0] = 0.5
    x_up = rng.uniform(1.0, 8.0, n)
    x_dom = rng.uniform(1.0, 6.0, n)
    p = rng.uniform(0.5, 1.0, n)
    q = rng.uniform(0.0, 1.0, n)
    q[q == 0.0] = 1.0

    exact_lo = np.power(1 + t, x_lo)
    ours_lo = bounds.scalar_lower_bound(t, x_lo, a)
    report.record(exact_lo - ours_lo, tol, _indexed("scalar-lower"))

    exact_up = np.power(1 + t, x_up)
    ours_up = bounds.scalar_upper_bound(t, x_up, a)
    report.record((ours_up - exact_up) / exact_up, rtol, _indexed("scalar-upper"))

    jfq_lo = bounds.scalar_lower_bound(t, x_lo, a, "jfq")
    report.record(ours_lo - jfq_lo, tol, _indexed("dominance-lower-jfq"))
    ours_half = bounds.scalar_lower_bound(t, x_half, a)
    zjz1_lo = bounds.scalar_lower_bound(t, x_half, a, "zjz1", p=p)
    zjz2_lo = bounds.scalar_lower_bound(t, x_half, a, "zjz2")
    report.record(ours_half - zjz1_lo, tol, _indexed("dominance-lower-zjz1"))
    report.record(ours_half - zjz2_lo, tol, _indexed("dominance-lower-zjz2"))

    ours_dom = bounds.scalar_upper_bound(t, x_dom, a)
    exact_dom = np.power(1 + t, x_dom)
    for name, variant, param in (
        ("dominance-upper-jfq", "jfq", 0.5),
        ("dominance-upper-zjz1", "zjz1", q),
        ("dominance-upper-zjz2", "zjz2", 0.5),
    ):
        other = bounds.scalar_upper_bound(t, x_dom, a, variant, p=param)
        report.record((other - ours_dom) / exact_dom, rtol, _indexed(name))
    return report


def _blocks(n: int, draw):
    """Yield ``(start, amps)`` for consecutive blocks of up to STATE_BLOCK of
    ``n`` states; ``draw(k)`` returns the next k states' amplitudes, taken
    from the random stream in the order of a per-state loop."""
    for start in range(0, n, STATE_BLOCK):
        yield start, draw(min(STATE_BLOCK, n - start))


def _w_class_block(rng: np.random.Generator, k: int) -> np.ndarray:
    """k random W-class states: one draw of k x 3 normals is the stream of k
    draws of 3, and the vecdot norm has the bits of each row's own norm."""
    coeffs = np.abs(rng.standard_normal((k, 3)))
    return w_class_amps(coeffs / np.sqrt(np.vecdot(coeffs, coeffs))[:, None])


def _default_beta_rows(s: np.ndarray) -> np.ndarray:
    """Row k is ``np.linspace(s[k], 3.0, 8)``, by linspace's own arithmetic
    (k * step + start, then the end point), in a few array operations where
    an array call to linspace makes some thirty."""
    rows = np.arange(8.0) * ((3.0 - s) / 7)[:, None] + s[:, None]
    rows[:, -1] = 3.0
    return rows


@functools.lru_cache(maxsize=64)
def default_alpha_grid(r: float = 2.0) -> tuple[float, ...]:
    """The alphas of ``np.linspace(0.25, r, 8)`` as floats, computed once per r."""
    return tuple(np.linspace(0.25, float(r), 8).tolist())


def verify_monogamy_states(n: int, seed: int = 0, r: float = 2.0,
                           alpha_grid=None, tol: float = 1e-8,
                           n_qubits: int = 3) -> VerificationReport:
    """Check the weighted monogamy bound on Haar-random qubit states.

    Uses concurrence with base exponent ``r`` and the tightest admissible
    ratio parameter a = max(1, max_admissible_a).  Tripartite states use the
    two-term bound; more parties use the ordered weighted sum.  Each block
    of states goes through one ``margin_grid`` call.
    """
    report = VerificationReport()
    n = _sample_count(n)
    rng = np.random.default_rng(seed)
    alphas = (default_alpha_grid(float(r)) if alpha_grid is None
              else [float(alpha) for alpha in alpha_grid])
    dims = (2,) * int(n_qubits)
    for start, amps in _blocks(n, lambda k: haar_random_block(k, 2 ** len(dims), rng)):
        # built inside the loop, so that n = 0 validates no parameter
        spec = bounds.BoundSpec("monogamy", r, r)
        first, pairwise = measure_vectors(amps, dims, MeasureKind.CONCURRENCE)
        report.record(bounds.margin_grid(first, pairwise, spec, alphas), tol,
                      lambda i: (start + i // len(alphas), alphas[i % len(alphas)]))
    return report


def verify_polygamy_states(n: int, seed: int = 0, s: float | None = None,
                           beta_grid=None, tol: float = 1e-8) -> VerificationReport:
    """Check the weighted polygamy bound on random W-class states (SCRENoA).

    When ``s`` is None, each sample uses s = min(1, log2(v1/v2)) of its
    sorted pairwise values, mirroring the worked-example construction; the
    ratio parameter is then a = 2^s.  With a fixed ``s``, a is resolved per
    sample as max(1, max_admissible_a), capped at A_CAP.  Samples whose
    ratio condition fails (or whose pairwise ratio is degenerate) are
    skipped, not failed.  Each block of states makes one ``margin_rows``
    call, which takes each sample's s, a and betas and returns the ratio
    condition of each sample with the margins.
    """
    report = VerificationReport()
    n = _sample_count(n)
    rng = np.random.default_rng(seed)
    spec = bounds.BoundSpec("polygamy", 1.0, 1.0)  # s and a are given per sample
    for start, amps in _blocks(n, lambda k: _w_class_block(rng, k)):
        first, pairwise = measure_vectors(amps, (2, 2, 2), MeasureKind.SCRENOA)
        kept, s_k = [], []  # the samples that are not degenerate
        for i, (lo, hi) in enumerate(np.sort(pairwise, axis=1).tolist()):
            log2_ratio = math.log2(hi / lo) if lo != 0 and s is None else math.inf
            if lo != 0 and log2_ratio >= MIN_LOG2_RATIO:
                kept.append(i)
                s_k.append(min(1.0, log2_ratio) if s is None else float(s))
        a_k = [2.0**s_i for s_i in s_k] if s is None else None
        s_k = np.array(s_k)
        grid = (_default_beta_rows(s_k) if beta_grid is None
                else np.array([float(beta) for beta in beta_grid]))
        # a beta below its sample's s is cut off; it is evaluated at s and dropped
        cells = grid >= s_k[:, None]
        betas = np.where(cells, grid, s_k[:, None])
        margins, ok = bounds.margin_rows(first[kept], pairwise[kept], spec, betas,
                                         base_exp=s_k, a=a_k)
        report.skipped += len(first) - int(np.count_nonzero(ok))
        cells &= ok[:, None]
        rows, cols = np.nonzero(cells)
        report.record(margins[cells], tol, lambda j: (
            start + kept[rows[j]], float(s_k[rows[j]]), float(betas[rows[j], cols[j]])))
    return report


def default_grid(example: str) -> SweepGrid:
    """Default scan grids for the worked examples; only the axis ranges are
    fixed, the step sizes are this library's choice."""
    if example == "example1":
        return SweepGrid("alpha", 0.0, 1.0, 0.02, "r", 2.0, 5.0, 0.05)
    if example == "example2":
        return SweepGrid("s", 0.6, 1.0, 0.01, "beta", 0.6, 3.0, 0.05)
    raise ValueError(f"unknown example {example!r}")


@np.errstate(over="raise", divide="raise", invalid="raise")
def dominance_scan(example: str, grid: SweepGrid | None = None) -> tuple[list[str], np.ndarray]:
    """Tabulate bound surfaces over a grid, as an (N, k) array whose rows are
    the cells in first-axis-major order.

    example1 rows: (alpha, r, Z1, Z2, Z3) with Z2 NaN outside its domain
    alpha/r <= 1/2.
    example2 rows: (beta, s, W1, W2, W3, W1 - W3, W2 - W3); only cells with
    beta >= s are listed.
    Each bound is one ``tripartite_bound`` call over the grid.  A cell that
    overflows or divides by zero raises FloatingPointError.
    """
    if example not in ("example1", "example2"):
        raise ValueError(f"unknown example {example!r}")
    if grid is None:
        grid = default_grid(example)
    ax1, ax2 = grid.values1(), grid.values2()
    first, second = np.repeat(ax1, len(ax2)), np.tile(ax2, len(ax1))
    if example == "example1":
        alpha, r = first, second
        x = alpha / r
        z1, z2, z3 = (bounds.tripartite_bound(*EXAMPLE1_PAIRWISE, alpha, x, EXAMPLE1_A, variant)
                      for variant in ("jfq", "zjz2", "ours"))
        z2[x > 0.5] = math.nan
        return ["alpha", "r", "Z1", "Z2", "Z3"], np.column_stack((alpha, r, z1, z2, z3))
    keep = second >= first - 1e-12
    beta, s = second[keep], first[keep]
    x = beta / s
    w1, w2, w3 = (bounds.tripartite_bound(*EXAMPLE2_PAIRWISE, beta, x, EXAMPLE2_A, variant)
                  for variant in ("jfq", "zjz2", "ours"))
    header = ["beta", "s", "W1", "W2", "W3", "W1_minus_W3", "W2_minus_W3"]
    return header, np.column_stack((beta, s, w1, w2, w3, w1 - w3, w2 - w3))


def verify_dominance(example: str, grid: SweepGrid | None = None,
                     tol: float = 1e-12) -> VerificationReport:
    """Assert the dominance-ordering claims over the scan grid.

    example1: Z3 >= Z1 for alpha > 0, and Z3 >= Z2 wherever the zjz domain
    alpha/r <= 1/2 applies (the alpha = 0 boundary is assertion-exempt).
    example2: W1 - W3 >= 0 and W2 - W3 >= 0 everywhere.
    """
    report = VerificationReport()
    _, table = dominance_scan(example, grid)

    def check(name, cells, margins):
        report.record(margins[cells], tol, lambda i: (name, *table[cells[i], :2].tolist()))

    if example == "example1":
        alpha, _, z1, z2, z3 = table.T
        live = np.flatnonzero(alpha != 0)
        report.skipped += len(table) - len(live)
        check("Z3-Z1", live, z3 - z1)
        check("Z3-Z2", live[~np.isnan(z2[live])], z3 - z2)
    else:
        every = np.arange(len(table))
        check("W1-W3", every, table[:, 5])
        check("W2-W3", every, table[:, 6])
    return report
