"""Random-sampling verification of the inequalities and parameter-sweep scans.

Every report is deterministic for a fixed (seed, n, grid): sampling uses a
single PCG64 generator and cells are emitted in canonical order.  A sample
count n and a seed are read by ``linalg.nonnegative_whole``: 2.0 runs as 2,
a fraction, a string or a negative value raises ValueError, and None or a
sequence raises ``int``'s TypeError, so no suite draws an unseeded stream.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds, linalg
from .measures import MeasureKind, measure_vectors
from .states import haar_random_block, w_class_amps

MAX_FAILURE_SAMPLES = 100

# States drawn and measured per stacked call in the state suites, so that memory
# stays flat in n: the pair gather of 64 six-qubit states takes 320 KiB.
STATE_BLOCK = 64

# Samples drawn and checked per block in the scalar suite, so that memory stays
# flat in n: 4096 gives 32 KB arrays and a working set of about 0.8 MB.  It also
# sets the size of the suite's ten reused buffers, each below glibc's default
# 128 KB mmap threshold (see ``verify_scalar``).  A 2048-sample block measured
# slower, as it makes twice the NumPy calls; an 8192-sample block ran at about
# the same speed with about 1 MB more RSS.
SCALAR_BLOCK = 4096

# Worked-example fixtures: pairwise values and the associated ratio parameter.
EXAMPLE1_PAIRWISE = (math.sqrt(6) / 6, 0.5)  # concurrences C_{A1A2}, C_{A1A3}
EXAMPLE1_A = math.sqrt(6) / 2
EXAMPLE2_PAIRWISE = (0.25, 0.5)  # SCRENoA values
EXAMPLE2_A = 2**0.6

# Polygamy sampling: ratio condition becomes vacuous as the two pairwise
# values approach each other; samples with log2(ratio) below this floor are
# skipped rather than evaluated at a degenerate exponent.
MIN_LOG2_RATIO = 0.05
# The step counts k of the default beta rows (see ``_default_beta_rows``).
_BETA_STEPS = np.arange(8.0)
_BETA_STEPS.flags.writeable = False


@dataclass(frozen=True)
class SweepGrid:
    """Two evenly stepped axes (end points inclusive), named by ``dominance_scan``.
    Each axis is built once, as a read-only array, when the grid is made."""

    start1: float
    stop1: float
    step1: float
    start2: float
    stop2: float
    step2: float
    _axes: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

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
        if least[0] * least[1] > 10**6:
            raise ValueError("grid size exceeds 10^6 cells")
        axes = (_axis(*fields[:3]), _axis(*fields[3:]))
        if len(axes[0]) * len(axes[1]) > 10**6:
            raise ValueError("grid size exceeds 10^6 cells")
        for axis in axes:
            axis.flags.writeable = False
        object.__setattr__(self, "_axes", axes)

    def values1(self) -> np.ndarray:
        return self._axes[0]

    def values2(self) -> np.ndarray:
        return self._axes[1]


def _axis(start: float, stop: float, step: float) -> np.ndarray:
    """The values start + k * step up to stop.  The end point is kept within
    a tolerance relative to the axis's magnitude, 1e-12 * max(1, |start|,
    |stop|), which covers the round-off of start + k * step."""
    n = int(round((stop - start) / step)) + 1
    vals = start + step * np.arange(n)
    # the values rise with k, so the kept ones are a prefix
    return vals[:np.count_nonzero(vals <= stop + 1e-12 * max(1.0, abs(start), abs(stop)))]


@dataclass
class VerificationReport:
    """The tally of one suite, or of several merged: ``total`` margins
    checked, ``failures`` among them (below ``-tol``, or not finite),
    ``skipped`` cases left unchecked (a polygamy sample whose ratio
    condition fails or whose pairwise ratio is degenerate, a dominance row
    at alpha = 0), ``worst_margin`` the least finite margin (inf while there
    is none) and ``failure_samples`` the first MAX_FAILURE_SAMPLES failures
    as (description of the inputs, margin) pairs.  Reports compare by value.
    """

    total: int = 0
    failures: int = 0
    skipped: int = 0
    worst_margin: float = math.inf
    failure_samples: list = field(default_factory=list)

    def record(self, margins, tol: float, describe):
        """Count an array of margins; those below ``-tol`` and those that are
        not finite are failures, and ``worst_margin`` is the least finite one.

        ``describe(i)`` names the failing entry ``i`` of ``margins``; it is
        called for failing entries only.  A NaN ``tol`` would pass every
        margin, and raises ValueError.
        """
        if math.isnan(tol):
            raise ValueError(f"tolerance tol must be a number, got {tol}")
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


def verify_scalar(n: int, seed: int = 0, tol: float = 1e-12,
                  rtol: float = 1e-9) -> VerificationReport:
    """Sample the scalar inequality families and count violations.

    Families (n samples each): the lower bound on (1+t)^x for 0 < x <= 1,
    the upper bound for x >= 1, lower dominance over the jfq/zjz1/zjz2
    variants, and upper dominance below them.  Absolute tolerance ``tol``
    for O(1) magnitudes, relative tolerance ``rtol`` for the large-x upper
    families.

    The eight sampled arrays (a, t, x_lo, x_half, x_up, x_dom, p, q) are
    consecutive segments of the ``default_rng(seed)`` stream, n draws each.
    They are drawn and checked in blocks of SCALAR_BLOCK samples, each array
    from its own PCG64 of one SeedSequence advanced to its segment, so that
    memory stays flat in n and the report has the bits of one unblocked pass.

    Each block draws into ten buffers made once per call: the eight arrays,
    1 + t and the exact powers (1+t)^x.  A draw is ``Generator.random`` and
    uniform's own map low + (high - low) * u, both in place (``_uniform``),
    so it has uniform's bits; each margin is formed in place, in the buffer
    of the exact powers or in an array that a bound call has just returned.
    The buffers are ten 32 KB arrays, below glibc's default 128 KB mmap
    threshold, so no call maps them: one (10, SCALAR_BLOCK) array would be
    mapped, and faulted in, while the threshold is at that default.
    """
    n = linalg.nonnegative_whole(n, "sample count n")
    # the seeding of default_rng(seed)
    seq = np.random.SeedSequence(linalg.nonnegative_whole(seed, "seed"))
    # uniform takes one 64-bit draw per double
    rng_a, rng_t, rng_lo, rng_half, rng_up, rng_dom, rng_p, rng_q = (
        np.random.Generator(np.random.PCG64(seq).advance(i * n)) for i in range(8))
    buffers = [np.empty(SCALAR_BLOCK) for _ in range(10)]
    families: dict[str, VerificationReport] = {}  # the first block adds them in order

    def record(label: str, margins, tol: float):
        families.setdefault(label, VerificationReport()).record(
            margins, tol, lambda i: f"{label}[{start + i}]")

    for start in range(0, n, SCALAR_BLOCK):
        k = min(SCALAR_BLOCK, n - start)
        a, t, x_lo, x_half, x_up, x_dom, p, q, t1, exact = (buf[:k] for buf in buffers)
        _uniform(rng_a, a, 1.0, 10.0 - 1.0)
        _uniform(rng_t, t, a, np.subtract(100.0, a, out=exact))
        rng_lo.random(out=x_lo)  # uniform(0, 1) is random() itself
        x_lo[x_lo == 0.0] = 1.0
        _uniform(rng_half, x_half, 0.0, 0.5)
        x_half[x_half == 0.0] = 0.5
        _uniform(rng_up, x_up, 1.0, 8.0 - 1.0)
        _uniform(rng_dom, x_dom, 1.0, 6.0 - 1.0)
        _uniform(rng_p, p, 0.5, 1.0 - 0.5)
        rng_q.random(out=q)
        q[q == 0.0] = 1.0

        # each family's arrays replace the last ones, so that few are alive at once
        np.add(t, 1.0, out=t1)
        ours, jfq = bounds.scalar_lower_bound(t, x_lo, a, ("ours", "jfq"))
        record("scalar-lower", np.subtract(np.power(t1, x_lo, out=exact), ours, out=exact), tol)
        ours_up = bounds.scalar_upper_bound(t, x_up, a)
        np.power(t1, x_up, out=exact)
        ours_up -= exact
        ours_up /= exact
        record("scalar-upper", ours_up, rtol)
        record("dominance-lower-jfq", np.subtract(ours, jfq, out=jfq), tol)
        del ours_up, jfq

        ours, zjz1, zjz2 = bounds.scalar_lower_bound(t, x_half, a, ("ours", "zjz1", "zjz2"), p=p)
        record("dominance-lower-zjz1", np.subtract(ours, zjz1, out=zjz1), tol)
        record("dominance-lower-zjz2", np.subtract(ours, zjz2, out=zjz2), tol)
        del zjz1, zjz2

        ours, *others = bounds.scalar_upper_bound(t, x_dom, a, ("ours", "jfq", "zjz1", "zjz2"),
                                                  p=q)
        np.power(t1, x_dom, out=exact)
        for name, other in zip(("jfq", "zjz1", "zjz2"), others):
            other -= ours
            other /= exact
            record(f"dominance-upper-{name}", other, rtol)

    report = VerificationReport()
    for family in families.values():
        report.merge(family)
    return report


def _uniform(rng: np.random.Generator, out: np.ndarray, low, width):
    """``rng.uniform(low, low + width)`` into ``out``, by uniform's own
    arithmetic low + (high - low) * u on one ``random`` draw u per entry."""
    rng.random(out=out)
    out *= width
    out += low


def _measured_blocks(n: int, seed: int, draw, dims: tuple[int, ...], kind: MeasureKind):
    """Yield ``(start, one_vs_rest, pairwise)`` for consecutive blocks of up
    to STATE_BLOCK of ``n`` states, each measured by one ``measure_vectors``
    call; ``draw(rng, k)`` returns the next k states' amplitudes from the
    one ``default_rng(seed)`` stream, in the order of a per-state loop."""
    n = linalg.nonnegative_whole(n, "sample count n")
    rng = np.random.default_rng(linalg.nonnegative_whole(seed, "seed"))
    # n = 0 gives one empty block, so that the parameters are checked at every n
    for start in range(0, max(n, 1), STATE_BLOCK):
        yield start, *measure_vectors(draw(rng, min(STATE_BLOCK, n - start)), dims, kind)


def _w_class_block(rng: np.random.Generator, k: int) -> np.ndarray:
    """k random W-class states: one draw of k x 3 normals is the stream of k
    draws of 3, and the vecdot norm has the bits of each row's own norm."""
    coeffs = np.abs(rng.standard_normal((k, 3)))
    return w_class_amps(coeffs / np.sqrt(np.vecdot(coeffs, coeffs))[:, None])


def _default_beta_rows(s: np.ndarray) -> np.ndarray:
    """Row k is ``np.linspace(s[k], 3.0, 8)``, by linspace's own arithmetic
    (k * step + start, then the end point), in a few array operations where
    an array call to linspace makes some thirty."""
    rows = _BETA_STEPS * ((3.0 - s) / 7)[:, None] + s[:, None]
    rows[:, -1] = 3.0
    return rows


@functools.lru_cache(maxsize=64)
def default_alpha_grid(r: float = 2.0) -> tuple[float, ...]:
    """The alphas of ``np.linspace(0.25, r, 8)`` as floats, computed once per r."""
    return tuple(np.linspace(0.25, float(r), 8).tolist())


@functools.lru_cache(maxsize=64)
def _monogamy_spec(r: float, alphas: tuple[float, ...]) -> bounds.BoundSpec:
    """The monogamy suite's spec, built once per (r, alphas): it is frozen and
    its arrays are read-only, so calls share it.  A bad r or alpha raises on
    every call, as ``lru_cache`` keeps no exception."""
    return bounds.BoundSpec("monogamy", r, alphas)


def verify_monogamy_states(n: int, seed: int = 0, r: float = 2.0,
                           alpha_grid=None, tol: float = 1e-8,
                           n_qubits: int = 3) -> VerificationReport:
    """Check the weighted monogamy bound on Haar-random qubit states.

    Uses concurrence with base exponent ``r`` and the ratio parameter
    a = max(1, max_admissible_a), the tightest admissible one for the
    two-term bound of tripartite states; more parties use the ordered
    weighted sum, which is not monotone in a, so a smaller a can be tighter.
    Each block of states goes through one ``margin_rows`` call, whose ratio
    mask is always true at that a.
    """
    report = VerificationReport()
    alphas = (default_alpha_grid(float(r)) if alpha_grid is None
              else tuple(float(alpha) for alpha in alpha_grid))
    spec = _monogamy_spec(float(r), alphas)
    dims = (2,) * linalg.whole(n_qubits, "qubit count")
    for start, first, pairwise in _measured_blocks(
            n, seed, lambda rng, k: haar_random_block(k, 2 ** len(dims), rng), dims,
            MeasureKind.CONCURRENCE):
        report.record(bounds.margin_rows(first, pairwise, spec)[0], tol,
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
    skipped, not failed.  Each block of states makes one ``BoundSpec``, of
    each sample's s, a and betas, and one ``margin_rows`` call, which returns
    the ratio condition of each sample with the margins.
    """
    report = VerificationReport()
    s_max = 1.0 if s is None else s  # the largest s a sample takes
    shared = None if beta_grid is None else np.array([float(beta) for beta in beta_grid])
    if shared is not None:  # checked once, as at s_max, so at every n
        bounds.BoundSpec("polygamy", s_max, np.maximum(shared, s_max))
    for start, first, pairwise in _measured_blocks(n, seed, _w_class_block, (2, 2, 2),
                                                   MeasureKind.SCRENOA):
        # a degenerate sample is evaluated at s_max and dropped
        keep, s_k = [], []
        for lo, hi in np.sort(pairwise, axis=1).tolist():
            log2_ratio = math.log2(hi / lo) if lo != 0 and s is None else math.inf
            keep.append(lo != 0 and log2_ratio >= MIN_LOG2_RATIO)
            s_k.append(min(s_max, log2_ratio) if keep[-1] else s_max)
        a_k = [2.0**s_i for s_i in s_k] if s is None else None
        s_k = np.array(s_k, dtype=float)
        grid = _default_beta_rows(s_k) if shared is None else shared
        # a beta below its sample's s is cut off: evaluated at s, dropped (a NaN
        # beta fails the shared check above, or comes of a NaN s, which the
        # spec rejects)
        cells = grid >= s_k[:, None]
        betas = np.maximum(grid, s_k[:, None])
        spec = bounds.BoundSpec("polygamy", s_k if s is None else s, betas, a=a_k)
        margins, ok = bounds.margin_rows(first, pairwise, spec)
        ok &= np.array(keep, dtype=bool)  # bool also for an empty block
        report.skipped += len(first) - int(np.count_nonzero(ok))
        cells &= ok[:, None]
        idx = np.flatnonzero(cells)  # in C order, the order of margins[cells]
        report.record(margins.take(idx), tol, lambda j: (
            start + int(idx[j]) // cells.shape[1], float(s_k[idx[j] // cells.shape[1]]),
            float(betas.flat[idx[j]])))
    return report


def default_grid(example: str) -> SweepGrid:
    """Default scan grids for the worked examples; only the axis ranges are
    fixed, the step sizes are this library's choice."""
    if example == "example1":
        return SweepGrid(0.0, 1.0, 0.02, 2.0, 5.0, 0.05)  # alpha, then r
    if example == "example2":
        return SweepGrid(0.6, 1.0, 0.01, 0.6, 3.0, 0.05)  # s, then beta
    raise ValueError(f"unknown example {example!r}")


@np.errstate(over="raise", divide="raise", invalid="raise")
def dominance_scan(example: str, grid: SweepGrid | None = None) -> tuple[list[str], np.ndarray]:
    """Tabulate bound surfaces over a grid, as an (N, k) array whose rows are
    the cells in first-axis-major order.

    example1 rows: (alpha, r, Z1, Z2, Z3) with Z2 NaN outside its domain
    alpha/r <= 1/2.
    example2 rows: (beta, s, W1, W2, W3, W1 - W3, W2 - W3); only cells with
    beta >= s - 1e-12, an absolute tolerance, are listed.
    The bounds of each example are one ``tripartite_bound`` call over the
    grid, with a tuple of variants.  A cell that overflows or divides by zero
    raises FloatingPointError.
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
        z1, z2, z3 = bounds.tripartite_bound(*EXAMPLE1_PAIRWISE, alpha, x, EXAMPLE1_A,
                                             ("jfq", "zjz2", "ours"))
        z2[x > 0.5] = math.nan
        return ["alpha", "r", "Z1", "Z2", "Z3"], np.column_stack((alpha, r, z1, z2, z3))
    keep = second >= first - 1e-12  # an absolute tolerance: s and beta are O(1)
    beta, s = second[keep], first[keep]
    x = beta / s
    w1, w2, w3 = bounds.tripartite_bound(*EXAMPLE2_PAIRWISE, beta, x, EXAMPLE2_A,
                                         ("jfq", "zjz2", "ours"))
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
