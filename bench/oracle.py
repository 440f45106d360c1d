"""Independent recomputation of what the benchmark's requests return.

Nothing here reuses monogamy's algorithms; the library is called only to be
compared against.  The methods differ from the library's on purpose:

- two-qubit concurrence is read off the singular values of Wootters'
  pre-concurrence matrix ``M^T (sigma_y x sigma_y) M``, where
  ``rho = M M^dagger`` comes straight from the reshaped amplitude vector.
  Its singular values are the square roots of the eigenvalues of
  ``rho rho~``; unlike ``np.linalg.eigvals(rho rho~)`` they carry no
  square-root-amplified round-off on rank-deficient reductions, so the
  comparison can stay at 1e-9.  The library instead diagonalises
  ``sqrt(rho) rho~ sqrt(rho)``;
- one-vs-rest values come from the Schmidt coefficients of the amplitude
  matrix, not from a partial trace;
- W-class values use the closed forms 4a^2b^2, 4a^2c^2 and 4a^2(b^2+c^2);
- bounds are the explicit weighted sums, and the dominance surfaces are
  recomputed cell by cell from their formulas.

Each ``check_*`` function returns a list of mismatch descriptions; an empty
list means the output agrees with the recomputation.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# bounds.A_CAP: the ratio parameter used when every trailing pairwise value
# is zero, and the ceiling of the automatically chosen one.
A_CAP = 1e8
# verify.MIN_LOG2_RATIO: W-class samples with a flatter pairwise ratio are
# skipped by the polygamy suite.
MIN_LOG2_RATIO = 0.05
# Absolute tolerance on order-one values computed in double precision by
# two different algorithms (measures, bounds, margins).
ATOL = 1e-9
# Tolerance for numbers printed with 12 significant digits: relative 5e-11
# with an absolute floor of 1e-11 for values that print as round-off.
PRINT_RTOL = 5e-11
PRINT_ATOL = 1e-11
# A margin this far below zero is a violated bound (verify's default tol).
MARGIN_TOL = 1e-8

_YY = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex)

# Worked examples, as the benchmark spells them on the command line.
SCHMIDT3_EXAMPLE = "schmidt3:0.5,sqrt(6)/6,sqrt(6)/6,0.5,sqrt(6)/6"
WCLASS_EXAMPLE = "wclass:1/2,1/2,sqrt(2)/2"

EXAMPLE1 = {"pairwise": (math.sqrt(6) / 6, 0.5), "a": math.sqrt(6) / 2}
EXAMPLE2 = {"pairwise": (0.25, 0.5), "a": 2**0.6}
CSV_HEADERS = {
    "example1": "alpha,r,Z1,Z2,Z3",
    "example2": "beta,s,W1,W2,W3,W1_minus_W3,W2_minus_W3",
}


def close(x: float, y: float, rtol: float = PRINT_RTOL, atol: float = PRINT_ATOL) -> bool:
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= atol + rtol * abs(y)


# ---------------------------------------------------------------- states


def haar_amps(seed: int, n_states: int, n_qubits: int) -> list[np.ndarray]:
    """Haar states in the order verify draws them: per state, the real parts
    then the imaginary parts from one PCG64 stream."""
    rng = np.random.default_rng(seed)
    d = 2**n_qubits
    out = []
    for _ in range(n_states):
        re = rng.standard_normal(d)
        im = rng.standard_normal(d)
        v = re + 1j * im
        out.append(v / np.linalg.norm(v))
    return out


def wclass_coeffs(seed: int, n_states: int) -> list[np.ndarray]:
    """W-class coefficients (a, b, c) in the order the polygamy suite draws them."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_states):
        c = np.abs(rng.standard_normal(3))
        out.append(c / np.linalg.norm(c))
    return out


def spec_qubits(spec: str) -> int:
    return 3 if spec in (SCHMIDT3_EXAMPLE, WCLASS_EXAMPLE) else spec.split(":")[1].count("x") + 1


def spec_amps(spec: str) -> np.ndarray:
    """Amplitudes of the state specs the single-call workload sends."""
    if spec == SCHMIDT3_EXAMPLE:
        l0, l1, l2, l3, l4 = 0.5, math.sqrt(6) / 6, math.sqrt(6) / 6, 0.5, math.sqrt(6) / 6
        amps = np.zeros(8, dtype=complex)
        # ket bits |A1 A3 A2>: l2 multiplies |1 1 0> and l3 |1 0 1> in A1 A2 A3 order
        amps[[0b000, 0b100, 0b110, 0b101, 0b111]] = [l0, l1, l2, l3, l4]
        return amps
    if spec == WCLASS_EXAMPLE:
        amps = np.zeros(8, dtype=complex)
        amps[[0b100, 0b010, 0b001]] = [0.5, 0.5, math.sqrt(2) / 2]
        return amps
    head, dims, seed = spec.split(":")
    if head != "haar":
        raise ValueError(f"no oracle for state spec {spec!r}")
    return haar_amps(int(seed), 1, spec_qubits(spec))[0]


# -------------------------------------------------------------- measures


def _pair_factor(amps: np.ndarray, n: int, i: int) -> np.ndarray:
    """M with rho_{0i} = M M^dagger: rows index qubits (0, i), columns the rest."""
    rest = [k for k in range(n) if k not in (0, i)]
    return np.transpose(amps.reshape((2,) * n), [0, i] + rest).reshape(4, -1)


def wootters_mu(amps: np.ndarray, n: int, i: int) -> np.ndarray:
    """Four spin-flip roots of rho_{0i}, descending."""
    m = _pair_factor(amps, n, i)
    s = np.linalg.svd(m.T @ _YY @ m, compute_uv=False)
    return np.pad(s, (0, 4))[:4]


def measure(amps: np.ndarray, kind: str) -> tuple[float, list[float]]:
    """(one-vs-rest, pairwise) for concurrence or SCRENoA of an n-qubit state."""
    n = int(round(math.log2(amps.size)))
    schmidt = np.linalg.svd(amps.reshape(2, -1), compute_uv=False)
    mus = [wootters_mu(amps, n, i) for i in range(1, n)]
    if kind == "concurrence":
        ovr = math.sqrt(max(0.0, 2.0 * (1.0 - float(np.sum(schmidt**4)))))
        return ovr, [max(0.0, float(mu[0] - mu[1] - mu[2] - mu[3])) for mu in mus]
    if kind == "screnoa":
        ovr = max(0.0, float(np.sum(schmidt)) ** 2 - 1.0) ** 2
        return ovr, [float(np.sum(mu)) ** 2 for mu in mus]
    raise ValueError(f"no oracle for measure kind {kind!r}")


def wclass_closed_form(a: float, b: float, c: float) -> tuple[float, list[float]]:
    """SCRENoA of a|100> + b|010> + c|001>: the reductions have one spin-flip root."""
    return 4 * a * a * (b * b + c * c), [4 * a * a * b * b, 4 * a * a * c * c]


# ---------------------------------------------------------------- bounds


def max_admissible_a(desc: list[float], base_exp: float) -> float:
    ratios = [(hi / lo) ** base_exp for hi, lo in zip(desc, desc[1:]) if lo != 0]
    return min(ratios, default=math.inf)


def default_a(amax: float) -> float:
    return min(max(1.0, amax), A_CAP)


def weighted_bound(desc: list[float], target: float, x: float, a: float) -> float:
    """The weighted sum of pairwise powers the library evaluates today.

    Two values: (1+a)^(x-1) v_2^t + (1+1/a)^(x-1) v_1^t.  More values:
    (1+a)^(x-1) sum_i (1+1/a)^((x-1)(n-1-i)) v_(i)^t, v_(0) the largest.
    """
    lo, hi = (1 + a) ** (x - 1), (1 + 1 / a) ** (x - 1)
    if len(desc) == 2:
        return lo * desc[1] ** target + hi * desc[0] ** target
    n = len(desc)
    return lo * sum(hi ** (n - 1 - i) * v**target for i, v in enumerate(desc))


def monogamy_margins(ovr: float, pairwise: list[float], r: float, alphas) -> list[float]:
    desc = sorted(pairwise, reverse=True)
    a = default_a(max_admissible_a(desc, r))
    return [ovr**alpha - weighted_bound(desc, alpha, alpha / r, a) for alpha in alphas]


def _check_monogamy_bound(n_pairs: int, lib_bound: float, bound: float, measured: float,
                          where: str) -> list[str]:
    """Tripartite bounds must equal the two-term formula.  With more parties
    the bound may be tighter than today's weighted sum but never above the
    measured value, so a tighter valid bound passes."""
    if n_pairs == 2:
        if not close(lib_bound, bound, atol=ATOL):
            return [f"{where}: bound {lib_bound!r} != two-term {bound!r}"]
        return []
    if not bound - ATOL <= lib_bound <= measured + MARGIN_TOL:
        return [f"{where}: bound {lib_bound!r} outside [{bound!r}, {measured!r}]"]
    return []


# ------------------------------------------------------- report checks


def _check_vector(lib, ovr: float, pairwise: list[float], where: str) -> list[str]:
    got = [lib.one_vs_rest, *lib.pairwise]
    want = [ovr, *pairwise]
    if len(got) != len(want) or not all(close(g, w, atol=ATOL) for g, w in zip(got, want)):
        return [f"{where}: measure vector {got} != {want}"]
    return []


def check_haar_report(mods, n_states: int, seed: int, n_qubits: int, rep) -> list[str]:
    """Re-derive a verify_monogamy_states report (concurrence, r = 2, default alphas)."""
    r = 2.0
    alphas = np.linspace(0.25, r, 8)
    bad, margins = [], []
    for k, amps in enumerate(haar_amps(seed, n_states, n_qubits)):
        ovr, pairwise = measure(amps, "concurrence")
        lib = mods.measures.measure_vector(mods.states.PureState((2,) * n_qubits, amps),
                                           "concurrence")
        bad += _check_vector(lib, ovr, pairwise, f"haar seed={seed} state {k}")
        margins += monogamy_margins(ovr, pairwise, r, alphas)
    if rep.total != len(margins) or rep.skipped != 0:
        bad.append(f"haar seed={seed}: total {rep.total}, skipped {rep.skipped}; "
                   f"expected {len(margins)} and 0")
    worst = min(margins)
    if n_qubits == 3:
        if not close(rep.worst_margin, worst, atol=ATOL):
            bad.append(f"haar seed={seed}: worst margin {rep.worst_margin!r} != {worst!r}")
    elif not -MARGIN_TOL <= rep.worst_margin <= worst + ATOL:
        bad.append(f"haar seed={seed}: worst margin {rep.worst_margin!r} "
                   f"outside [{-MARGIN_TOL}, {worst!r}]")
    return bad


def polygamy_sample(v_desc: list[float]) -> float | None:
    """The per-sample s of the polygamy suite, or None when it skips the sample."""
    v0, v1 = v_desc
    if v0 == 0 or v1 == 0:
        return None
    log2_ratio = math.log2(v0 / v1)
    if log2_ratio < MIN_LOG2_RATIO:
        return None
    s = min(1.0, log2_ratio)
    if v0**s < 2.0**s * v1**s * (1.0 - 1e-12):
        return None
    return s


def check_wclass_report(mods, n_states: int, seed: int, rep) -> list[str]:
    """Re-derive a verify_polygamy_states report (SCRENoA, per-sample s, a = 2^s)."""
    bad, margins, skipped = [], [], 0
    for k, (a, b, c) in enumerate(wclass_coeffs(seed, n_states)):
        ovr, pairwise = wclass_closed_form(a, b, c)
        lib = mods.measures.measure_vector(mods.states.w_class_state(a, b, c), "screnoa")
        bad += _check_vector(lib, ovr, pairwise, f"wclass seed={seed} state {k}")
        desc = sorted(pairwise, reverse=True)
        s = polygamy_sample(desc)
        if s is None:
            skipped += 1
            continue
        for beta in np.linspace(s, 3.0, 8):
            margins.append(weighted_bound(desc, beta, beta / s, 2.0**s) - ovr**beta)
    if (rep.total, rep.skipped) != (len(margins), skipped):
        bad.append(f"wclass seed={seed}: total/skipped {rep.total}/{rep.skipped}, "
                   f"expected {len(margins)}/{skipped}")
    worst = min(margins, default=math.inf)
    if not close(rep.worst_margin, worst, atol=ATOL):
        bad.append(f"wclass seed={seed}: worst margin {rep.worst_margin!r} != {worst!r}")
    return bad


# ------------------------------------------------------------ CLI output


def parse_fields(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if not sep:
            raise ValueError(f"unparseable line {line!r}")
        fields[key] = value
    return fields


def parse_measure(text: str) -> tuple[float, list[float]]:
    fields = parse_fields(text)
    inner = fields["pairwise"].strip("[]")
    return float(fields["one_vs_rest"]), [float(v) for v in inner.split(", ") if v]


def check_measure_output(spec: str, kind: str, text: str) -> list[str]:
    ovr, pairwise = measure(spec_amps(spec), kind)
    got_ovr, got_pairwise = parse_measure(text)
    want, got = [ovr, *pairwise], [got_ovr, *got_pairwise]
    if len(got) != len(want) or not all(close(g, w) for g, w in zip(got, want)):
        return [f"measure {spec} {kind}: printed {got} != {want}"]
    return []


def check_bound_output(spec: str, kind: str, mode: str, base: float, target: float,
                       a: float | None, text: str) -> list[str]:
    ovr, pairwise = measure(spec_amps(spec), kind)
    desc = sorted(pairwise, reverse=True)
    amax = max_admissible_a(desc, base)
    a_used = default_a(amax) if a is None else a
    x = target / base
    measured = 1.0 if x == 0 else ovr**target
    bound = weighted_bound(desc, target, x, a_used)
    f = parse_fields(text)
    where = f"bound {spec} {mode} {base}/{target}"
    lib_bound, lib_margin = float(f["bound_value"]), float(f["margin"])
    lib_amax = float(f["max_admissible_a"])
    bad = []
    if mode == "monogamy":
        bad += _check_monogamy_bound(len(desc), lib_bound, bound, measured, where)
        margin = measured - lib_bound
    else:
        if not close(lib_bound, bound):
            bad.append(f"{where}: bound {lib_bound!r} != two-term {bound!r}")
        margin = lib_bound - measured
    if not close(float(f["measured_value"]), measured):
        bad.append(f"{where}: measured {f['measured_value']} != {measured!r}")
    if not close(lib_margin, margin) or lib_margin < -MARGIN_TOL:
        bad.append(f"{where}: margin {lib_margin!r}, expected {margin!r} >= 0")
    if not close(float(f["a"]), a_used):
        bad.append(f"{where}: a {f['a']} != {a_used!r}")
    if not (close(lib_amax, amax) or min(lib_amax, amax) >= A_CAP):
        bad.append(f"{where}: max_admissible_a {lib_amax!r} != {amax!r}")
    if (f["ratio_condition_ok"], f["base_relation_assumed"]) != ("true", "false"):
        bad.append(f"{where}: flags {f['ratio_condition_ok']}/{f['base_relation_assumed']}")
    return bad


# ------------------------------------------------------------- surfaces


def parse_grid(spec: str) -> tuple[np.ndarray, np.ndarray]:
    """Axis values of 'start:stop:step,start:stop:step', end points inclusive."""
    axes = []
    for part in spec.split(","):
        start, stop, step = (float(v) for v in part.split(":"))
        vals = start + step * np.arange(int(round((stop - start) / step)) + 1)
        axes.append(vals[vals <= stop + 1e-12])
    return axes[0], axes[1]


@functools.lru_cache(maxsize=None)
def surface_size(example: str, spec: str) -> int:
    """Number of rows of a dominance surface; example2 lists only beta >= s."""
    ax1, ax2 = parse_grid(spec)
    if example == "example1":
        return ax1.size * ax2.size
    return int(np.count_nonzero(ax2[None, :] >= ax1[:, None] - 1e-12))


def surface_rows(example: str, spec: str) -> list[tuple]:
    """Closed-form rows of a dominance surface, in the order the CSV lists them."""
    ax1, ax2 = parse_grid(spec)
    rows = []
    if example == "example1":
        v2, v1 = EXAMPLE1["pairwise"]
        a = EXAMPLE1["a"]
        for alpha in map(float, ax1):
            for r in map(float, ax2):
                x = alpha / r
                z1 = v2**alpha + ((1 + a) ** x - 1) / a**x * v1**alpha
                w0 = 0.5**x
                z2 = w0 * v2**alpha + ((1 + a) ** x - w0) / a**x * v1**alpha if x <= 0.5 else None
                z3 = (1 + a) ** (x - 1) * v2**alpha + (1 + 1 / a) ** (x - 1) * v1**alpha
                rows.append((alpha, r, z1, z2, z3))
        return rows
    v2, v1 = EXAMPLE2["pairwise"]
    a = EXAMPLE2["a"]
    for s in map(float, ax1):
        for beta in map(float, ax2):
            if beta < s - 1e-12:
                continue
            x = beta / s
            w1 = v2**beta + ((1 + a) ** x - 1) / a**x * v1**beta
            w0 = 0.5**x
            w2 = w0 * v2**beta + ((1 + a) ** x - w0) / a**x * v1**beta
            w3 = (1 + a) ** (x - 1) * v2**beta + (1 + 1 / a) ** (x - 1) * v1**beta
            rows.append((beta, s, w1, w2, w3, w1 - w3, w2 - w3))
    return rows


def check_surface_csv(example: str, spec: str, text: str) -> list[str]:
    lines = text.split("\n")
    if lines[0] != CSV_HEADERS[example] or lines[-1] != "":
        return [f"{example} {spec}: bad header or missing final newline"]
    want = surface_rows(example, spec)
    got = lines[1:-1]
    if len(got) != len(want):
        return [f"{example} {spec}: {len(got)} rows, expected {len(want)}"]
    bad = []
    for i, (line, row) in enumerate(zip(got, want)):
        fields = line.split(",")
        ok = len(fields) == len(row) and all(
            f == "" if v is None else f != "" and close(float(f), v)
            for f, v in zip(fields, row)
        )
        if not ok:
            bad.append(f"{example} {spec} row {i}: {line!r} != {row}")
    return bad
