"""Weighted bounds on powers of correlation-measure sums.

The core scalar estimates bound (1+t)^x for t >= a >= 1: from below for
0 < x <= 1 and from above for x >= 1.  The "ours" variant uses the
(1+a)^{x-1} / (1+1/a)^{x-1} weights; "jfq", "zjz1" and "zjz2" are the three
earlier bound families kept for dominance comparison.  On top of these sit
the weighted monogamy and polygamy evaluators for measure vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .measures import MeasureKind, MeasureVector

VARIANTS = ("ours", "jfq", "zjz1", "zjz2")

# Default ceiling for the automatically chosen ratio parameter when all
# trailing pairwise values vanish and any a is admissible.
A_CAP = 1e8

# Measure kinds whose base relation is established (CKW r=2 for concurrence
# and SCREN in monogamy mode; assisted measures at s<=1 in polygamy mode).
_VERIFIED_MONOGAMY = {MeasureKind.CONCURRENCE, MeasureKind.NEGATIVITY_SCREN}
_VERIFIED_POLYGAMY = {MeasureKind.SCRENOA, MeasureKind.CONCURRENCE_ASSISTANCE}


@dataclass(frozen=True)
class BoundSpec:
    """Parameters of one weighted-bound evaluation.

    mode "monogamy": base_exp is r >= 2, target_exp is alpha in [0, r].
    mode "polygamy": base_exp is s in (0, 1], target_exp is beta >= s.
    ``a`` may be None, in which case the tightest admissible value
    max(1, max_admissible_a) is used (capped at A_CAP).  ``p`` parametrizes
    the zjz1 variant (1/2 <= p <= 1 in monogamy mode, 0 < p <= 1 in
    polygamy mode); zjz2 is zjz1 with p = 1/2.
    """

    mode: str
    base_exp: float
    target_exp: float
    a: float | None = None
    variant: str = "ours"
    p: float = 0.5

    def __post_init__(self):
        if self.mode not in ("monogamy", "polygamy"):
            raise ValueError(f"mode must be 'monogamy' or 'polygamy', got {self.mode!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        r, mono, zjz1 = float(self.base_exp), self.mode == "monogamy", self.variant == "zjz1"
        if mono and r < 2:
            raise ValueError(f"monogamy base exponent must be >= 2, got {r}")
        if not mono and not 0 < r <= 1:
            raise ValueError(f"polygamy base exponent must be in (0, 1], got {r}")
        self._check_target(self.target_exp)
        if zjz1 and mono and not 0.5 <= self.p <= 1:
            raise ValueError(f"zjz1 requires 1/2 <= p <= 1, got {self.p}")
        if zjz1 and not mono and not 0 < self.p <= 1:
            raise ValueError(f"zjz1 requires 0 < p <= 1 in polygamy mode, got {self.p}")
        if self.a is not None and self.a < 1:
            raise ValueError(f"ratio parameter a must be >= 1, got {self.a}")

    def _check_target(self, e):
        """Raise ValueError unless ``e`` is a valid target_exp for this spec."""
        r, e = float(self.base_exp), float(e)
        if self.mode == "monogamy" and not 0 <= e <= r:
            raise ValueError(f"monogamy target exponent must be in [0, {r}], got {e}")
        if self.mode == "polygamy" and e < r:
            raise ValueError(f"polygamy target exponent must be >= {r}, got {e}")

    @property
    def x(self) -> float:
        """Exponent ratio alpha/r (monogamy) or beta/s (polygamy)."""
        return float(self.target_exp) / float(self.base_exp)


@dataclass(frozen=True)
class BoundReport:
    bound_value: float
    measured_value: float | None
    margin: float | None
    ratio_condition_ok: bool
    max_admissible_a: float
    a: float
    base_relation_assumed: bool = False


def _weights(variant: str, x: np.ndarray, a, p: float):
    """(w_small, w_large) of the two-weight form w_small + w_large * t^x.

    ``x`` is an array, which should have the full shape of the weights so
    that every power runs NumPy's pow loop elementwise (see ``_power``).
    """
    if variant == "ours":
        x1 = x - 1.0
        return (1.0 + a) ** x1, (1.0 + 1.0 / a) ** x1
    if variant == "jfq":
        w0 = 1.0
    elif variant in ("zjz1", "zjz2"):
        w0 = _power(p if variant == "zjz1" else 0.5, x)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return w0, ((1 + a) ** x - w0) / a**x


def _check_tax(t, a, variant: str, x, lower: bool):
    t, a, x = (np.asarray(v, dtype=float) for v in (t, a, x))
    if np.any(a < 1):
        raise ValueError("ratio parameter a must satisfy a >= 1")
    if np.any(t < a):
        raise ValueError("t must satisfy t >= a")
    if lower:
        if variant in ("ours", "jfq"):
            if np.any(x <= 0) or np.any(x > 1):
                raise ValueError(f"variant {variant!r} needs 0 < x <= 1, got {x}")
        elif np.any(x < 0) or np.any(x > 0.5):
            raise ValueError(f"variant {variant!r} needs 0 <= x <= 1/2, got {x}")
    else:
        if np.any(x < 1):
            raise ValueError(f"upper bounds need x >= 1, got {x}")
    return t, a, x


def _full(v, shape) -> np.ndarray:
    """``v`` as a C-contiguous float array of ``shape``, copied only if it is
    not one; never a broadcast view, whose stride 0 would put NumPy's pow on
    its scalar-exponent shortcuts (see ``_power``)."""
    v = np.asarray(v, dtype=float)
    if v.shape == shape and v.flags.c_contiguous and 0 not in v.strides:
        return v
    out = np.empty(shape)
    out[...] = v
    return out


def _scalar_bound(t, a, x, variant: str, p: float):
    # operands of the full shape (1-d for scalar calls), so that every
    # element takes NumPy's pow loop whatever the shapes passed
    shape = np.broadcast_shapes(*map(np.shape, (t, a, x, p if variant == "zjz1" else 0.0)))
    t1, a1, x1 = (_full(v, shape or (1,)) for v in (t, a, x))
    w_small, w_large = _weights(variant, x1, a1, p)
    val = w_small + w_large * t1**x1
    return val if shape else float(val[0])


def scalar_lower_bound(t, x, a, variant: str = "ours", p: float = 0.5):
    """Lower bound on (1+t)^x for t >= a >= 1 and 0 < x <= 1.

    The zjz variants are only valid for 0 <= x <= 1/2 (with 1/2 <= p <= 1);
    evaluating them outside that region is an error.  Accepts scalars or
    broadcastable arrays.
    """
    if variant == "zjz1" and (np.any(np.asarray(p) < 0.5) or np.any(np.asarray(p) > 1)):
        raise ValueError(f"zjz1 lower bound requires 1/2 <= p <= 1, got {p}")
    t, a, x = _check_tax(t, a, variant, x, lower=True)
    return _scalar_bound(t, a, x, variant, p)


def scalar_upper_bound(t, x, a, variant: str = "ours", p: float = 0.5):
    """Upper bound on (1+t)^x for t >= a >= 1 and x >= 1.

    Same four formulas as the lower bound; the zjz1 parameter q satisfies
    0 < q <= 1 here (passed as ``p``).
    """
    if variant == "zjz1" and (np.any(np.asarray(p) <= 0) or np.any(np.asarray(p) > 1)):
        raise ValueError(f"zjz1 upper bound requires 0 < q <= 1, got {p}")
    t, a, x = _check_tax(t, a, variant, x, lower=False)
    return _scalar_bound(t, a, x, variant, p)


def _check_values(values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("values must be a nonempty 1-d sequence")
    if np.any(v < 0) or not np.all(np.isfinite(v)):
        raise ValueError(f"values must be finite and nonnegative, got {list(v)}")
    return v


def _power(base, exponent) -> np.ndarray:
    """``base ** exponent`` with the bits of NumPy's pow loop on each element,
    whatever the operands' shapes.  Where one exponent spans a loop NumPy
    takes x * x for x^2 and sqrt(x) for x^0.5, and on a reversed view the C
    library's pow; so the exponent is expanded to the full shape and the
    base made contiguous, and a single element takes both in its shape."""
    exps = _full(exponent, np.broadcast(base, exponent).shape)
    base = np.reshape(base, exps.shape) if exps.size == 1 else np.ascontiguousarray(base)
    return np.power(base, exps)


def _max_a(rows: np.ndarray, exponent) -> np.ndarray:
    """``max_admissible_a`` of descending rows (N, m), NaN on invalid rows;
    ``exponent`` is a scalar or an (N, 1) column."""
    hi, lo = rows[:, :-1], rows[:, 1:]
    return np.where(lo != 0, _power(hi / lo, exponent), math.inf).min(axis=1, initial=math.inf)


def _ratio_ok(powers: np.ndarray, a, rtol: float = 1e-12) -> np.ndarray:
    """``ratio_condition`` of descending rows (N, m) from their ``powers`` at
    a positive exponent; ``a`` is a scalar or an (N, 1) column.  A zero
    successor passes, as nothing is below a * 0 (0, or NaN at a = inf)."""
    return ~(powers[:, :-1] < a * powers[:, 1:] * (1.0 - rtol)).any(axis=1)


def _ordered_sums(terms: np.ndarray, xs: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(N, T) ordered weighted sums of the powers ``terms`` (N, T, m) of
    descending rows at the exponent ratios ``xs`` (N, T), one ``a`` (N,) per row."""
    scale, w = _weights("ours", xs, a[:, None], 0.5)
    weights = _power(w[..., None], np.arange(terms.shape[-1] - 1, -1, -1, dtype=float))
    return scale * (weights * terms).sum(axis=-1)


def ordered_weighted_sum(values, x: float, a: float) -> float:
    """Weighted power sum (1+a)^{x-1} sum_i ((1+1/a)^{x-1})^{n-i} v_(i)^x.

    ``values`` must already be sorted in descending order; v_(i) is the i-th
    largest.  Under the ratio condition this bounds (sum v_i)^x from below
    for 0 < x <= 1 and from above for x >= 1; at x = 0 it is the valid lower
    bound 1 - (a/(1+a))^n.
    """
    v = _check_values(values)
    if np.any(np.diff(v) > 0):
        raise ValueError("values must be sorted in descending order")
    x, a = float(x), float(a)
    if a < 1:
        raise ValueError(f"ratio parameter a must be >= 1, got {a}")
    if x < 0:
        raise ValueError(f"exponent ratio x must be nonnegative, got {x}")
    return float(_ordered_sums(_power(v[None, None], x), np.array([[x]]), np.array([a]))[0, 0])


@np.errstate(all="ignore")
def ratio_condition(values, a: float, exponent: float, rtol: float = 1e-12) -> bool:
    """True iff v_(i)^exp >= a v_(i+1)^exp for all consecutive sorted pairs.

    Pairs whose successor is zero pass vacuously.  ``rtol`` absorbs round-off
    so that a = max_admissible_a itself passes.
    """
    rows = np.sort(_check_values(values))[None, ::-1]
    a, exponent = float(a), float(exponent)
    if a < 1:
        raise ValueError(f"ratio parameter a must be >= 1, got {a}")
    if exponent <= 0:
        raise ValueError(f"exponent must be positive, got {exponent}")
    return bool(_ratio_ok(_power(rows, exponent), a, rtol)[0])


@np.errstate(all="ignore")
def max_admissible_a(values, exponent: float) -> float:
    """Largest a satisfying the ratio condition: min over consecutive sorted
    pairs of (v_(i)/v_(i+1))^exponent, +inf when every successor is zero."""
    rows = np.sort(_check_values(values))[None, ::-1]
    exponent = float(exponent)
    if exponent <= 0:
        raise ValueError(f"exponent must be positive, got {exponent}")
    return float(_max_a(rows, exponent)[0])


@np.errstate(over="raise", divide="raise", invalid="raise")
def tripartite_bound(smaller: float, larger: float, target: float, x: float,
                     a: float, variant: str = "ours", p: float = 0.5) -> float | np.ndarray:
    """Tripartite bound w_small * smaller^target + w_large * larger^target,
    with the scalar-bound weights of ``variant`` at exponent ratio ``x``.

    ``target``, ``x`` and ``a`` may be broadcastable arrays, and an array
    call returns an array.  Every power is taken on operands expanded to the
    full shape (see ``_power``), so an element has the bits of the one-cell
    call, and a scalar call returns that element as a float.  An overflow,
    a division by zero or an invalid operation raises FloatingPointError.
    """
    shape = np.broadcast_shapes(*map(np.shape, (smaller, larger, target, x, a)))
    target, x, a = (_full(v, shape or (1,)) for v in (target, x, a))
    w_small, w_large = _weights(variant, x, a, p)
    val = w_small * _power(smaller, target) + w_large * _power(larger, target)
    return val if shape else float(val[0])


@np.errstate(all="ignore")
def _grid(one_vs_rest, pairwise, spec: BoundSpec, targets, strict: bool, base_exp=None, a=None):
    """The kernel of ``margin_rows``, ``margin_grid`` and ``bound_grid``, with
    their arguments and errors; ``strict`` raises a failing ratio condition.
    Returns the measured values, bounds and margins as (N, T) arrays, and the
    (N,) arrays of ratio_condition_ok, max_admissible_a (None unless ``a`` is
    resolved from it) and a.  Each kind of power is one pow over the block on
    operands of its full shape (see ``_power``), so a value's bits depend
    neither on N nor on T.  An overflow gives inf, and no floating-point
    error warns.
    """
    one_vs_rest, targets = np.asarray(one_vs_rest, dtype=float), np.asarray(targets, dtype=float)
    pairwise = np.asarray(pairwise, dtype=float)
    n = len(one_vs_rest)
    if n and (pairwise.ndim != 2 or len(pairwise) != n):
        raise ValueError(f"pairwise must be an ({n}, m) array, got shape {pairwise.shape}")
    full = _full(targets, (n, targets.shape[-1]))
    if not full.size:
        empty = np.empty(full.shape)
        return empty, empty, empty, np.empty(n, dtype=bool), np.empty(n), np.empty(n)
    s = float(spec.base_exp) if base_exp is None else _full(base_exp, (n,))[:, None]
    a_given = spec.a if a is None else a
    rows = np.sort(pairwise, axis=1)[:, ::-1]
    m = rows.shape[1]
    powers = _power(rows, s)  # for the ratio condition and the ordered sums
    amax = _max_a(rows, s) if a_given is None else None
    a = np.minimum(np.maximum(amax, 1.0), A_CAP) if a_given is None else _full(a_given, (n,))
    ok = _ratio_ok(powers, a[:, None])
    xs = full / s
    # the one-state loop's checks, on the whole block and on s and the targets
    # as passed; a comparison with NaN fails, so NaN inputs take the loop
    s_min, s_max = (s, s) if base_exp is None else (s.min(), s.max())
    if spec.mode == "monogamy":
        valid = s_min >= 2 and ((targets >= 0) & (targets <= s)).all() and (
            spec.variant not in ("zjz1", "zjz2") or (xs <= 0.5).all())
    else:
        valid = s_min > 0 and s_max <= 1 and (targets >= s).all()
    # rows are sorted, with any NaN first
    valid = (valid and m > 0 and rows[:, -1].min() >= 0 and rows[:, 0].max() < math.inf
             and (a_given is None or a.min() >= 1) and (not strict or ok.all())
             and (spec.variant == "ours" or m == 2))
    for i, r in enumerate([] if valid else np.broadcast_to(s, (n, 1))[:, 0].tolist()):
        row_spec = replace(spec, base_exp=r, target_exp=r,
                           a=None if a_given is None else float(a[i]))
        row_spec._check_target(full[i, 0])
        _check_values(rows[i])
        if strict and not ok[i]:
            amax_i = (amax if amax is not None else _max_a(rows, s))[i]
            raise ValueError(f"ratio condition fails at a={a[i]} (max admissible {amax_i})")
        for target in full[i].tolist():
            row_spec._check_target(target)
            if spec.mode == "monogamy" and spec.variant in ("zjz1", "zjz2") and target / r > 0.5:
                raise ValueError(f"variant {spec.variant!r} requires alpha/r <= 1/2, "
                                 f"got {target / r}")
            if spec.variant != "ours" and m != 2:
                raise ValueError(f"variant {spec.variant!r} is defined for tripartite "
                                 "states only")
    # one pow gives the measured values and the bound's terms: the pairwise
    # values at the targets for two of them, their s-th powers at xs for more
    # (alpha = 0 collapses every power to 1; 0^0 is 1 in NumPy)
    exps = np.empty(full.shape + (m + 1,))
    exps[..., 0] = full
    exps[..., 1:] = (full if m == 2 else xs)[..., None]
    bases = np.concatenate((one_vs_rest[:, None], rows if m == 2 else powers), axis=1)
    terms = _power(bases[:, None], exps)
    measured = terms[..., 0]
    if m == 2:
        w_small, w_large = _weights(spec.variant, xs, a[:, None], spec.p)
        bound = w_small * terms[..., 2] + w_large * terms[..., 1]
    else:
        bound = _ordered_sums(terms[..., 1:], xs, a)
    margin = measured - bound if spec.mode == "monogamy" else bound - measured
    return measured, bound, margin, ok, amax, a


def margin_grid(one_vs_rest, pairwise, spec: BoundSpec, targets) -> np.ndarray:
    """Margins of the bound of ``spec`` for N states at T target exponents,
    as an (N, T) array, from the arrays ``one_vs_rest`` (N,) and ``pairwise``
    (N, m) of ``measure_vectors``.

    Row ``i`` holds the margins of ``bound_grid`` on state ``i`` bit for bit,
    and an invalid input or a failing ratio condition raises the ValueError
    that the first failing call of a loop of those calls would raise.
    """
    return _grid(one_vs_rest, pairwise, spec, targets, strict=True)[2]


def margin_rows(one_vs_rest, pairwise, spec: BoundSpec, targets, *, base_exp=None,
                a=None) -> tuple[np.ndarray, np.ndarray]:
    """``margin_grid`` with a base exponent, a ratio parameter and targets
    for each state, and no error for a failing ratio condition: returns the
    (N, T) margins and the (N,) mask of ratio conditions.

    ``targets`` is (N, T) or a shared list of T, and ``base_exp`` and ``a``
    are (N,) or shared scalars; None takes the spec's value (an ``a`` of None
    is max(1, max_admissible_a) per row, capped at A_CAP).  ``spec``
    supplies mode, variant and p.  Row ``i`` is ``bound_grid`` on state i at
    ``replace(spec, base_exp=base_exp[i], target_exp=base_exp[i], a=a[i])``,
    ``targets[i]`` and ``strict=False``, bit for bit and error for error.
    """
    _, _, margin, ok, _, _ = _grid(one_vs_rest, pairwise, spec, targets, False, base_exp, a)
    return margin, ok


def bound_grid(mv: MeasureVector, spec: BoundSpec, targets,
               strict: bool = True) -> list[BoundReport]:
    """Evaluate the bound of ``spec`` at each target exponent of a grid.

    Report ``k`` equals the single-target report (``monogamy_bound`` or
    ``polygamy_bound``) at ``replace(spec, target_exp=targets[k])``, and an
    invalid input raises the ValueError that the first failing call of a
    loop over those calls would raise.  ``spec.target_exp`` is not used.
    It is ``margin_grid`` on one state, plus the option ``strict=False``.
    """
    measured, bound, margin, ok, amax, a = _grid([mv.one_vs_rest], [mv.pairwise], spec,
                                                 targets, strict)
    amax = max_admissible_a(mv.pairwise, spec.base_exp) if amax is None else float(amax[0])
    verified = _VERIFIED_MONOGAMY if spec.mode == "monogamy" else _VERIFIED_POLYGAMY
    assumed = mv.kind not in verified
    return [BoundReport(b, q, g, bool(ok[0]), amax, float(a[0]), assumed)
            for b, q, g in zip(bound[0].tolist(), measured[0].tolist(), margin[0].tolist())]


def monogamy_bound(mv: MeasureVector, spec: BoundSpec, strict: bool = True) -> BoundReport:
    """Evaluate the weighted monogamy lower bound for a measure vector.

    ``margin`` is measured - bound; under the ratio condition and a valid
    base relation it is nonnegative up to round-off.  With ``strict=False``
    a failing ratio condition is reported instead of raised.
    """
    if spec.mode != "monogamy":
        raise ValueError("monogamy_bound needs a spec in monogamy mode")
    return bound_grid(mv, spec, [spec.target_exp], strict)[0]


def polygamy_bound(mv: MeasureVector, spec: BoundSpec, strict: bool = True) -> BoundReport:
    """Evaluate the weighted polygamy upper bound; margin is bound - measured."""
    if spec.mode != "polygamy":
        raise ValueError("polygamy_bound needs a spec in polygamy mode")
    return bound_grid(mv, spec, [spec.target_exp], strict)[0]
