"""Weighted bounds on powers of correlation-measure sums.

The core scalar estimates bound (1+t)^x for t >= a >= 1: from below for
0 < x <= 1 and from above for x >= 1.  The "ours" variant uses the
(1+a)^{x-1} / (1+1/a)^{x-1} weights; "jfq", "zjz1" and "zjz2" are the three
earlier bound families kept for dominance comparison.  On top of these sit
the weighted monogamy and polygamy evaluators for measure vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        r = float(self.base_exp)
        if self.mode == "monogamy":
            if r < 2:
                raise ValueError(f"monogamy base exponent must be >= 2, got {r}")
            self._check_target(self.target_exp)
            if self.variant == "zjz1" and not 0.5 <= self.p <= 1:
                raise ValueError(f"zjz1 requires 1/2 <= p <= 1, got {self.p}")
        else:
            if not 0 < r <= 1:
                raise ValueError(f"polygamy base exponent must be in (0, 1], got {r}")
            self._check_target(self.target_exp)
            if self.variant == "zjz1" and not 0 < self.p <= 1:
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


def _weights(variant: str, x, a, p: float):
    """(w_small, w_large) of the two-weight form w_small + w_large * t^x.

    Powers use ``**``, so the operands pick the pow: Python floats get the C
    library's, arrays NumPy's loop (the two differ in the last bit).  The zjz
    weight p^x always takes NumPy's, returned as a float for scalar x.
    """
    if variant == "ours":
        return (1 + a) ** (x - 1), (1 + 1 / a) ** (x - 1)
    if variant == "jfq":
        w0 = 1.0
    elif variant in ("zjz1", "zjz2"):
        w0 = np.power(p if variant == "zjz1" else 0.5, x)
        w0 = w0 if w0.ndim else float(w0)
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


def _scalar_bound(t, a, x, variant: str, p: float):
    # 1-d operands keep scalar calls on NumPy's pow loop, like array calls
    t1, a1, x1 = np.atleast_1d(t, a, x)
    w_small, w_large = _weights(variant, x1, a1, p)
    val = w_small + w_large * t1**x1
    if max(np.ndim(t), np.ndim(a), np.ndim(x), np.ndim(p) if variant == "zjz1" else 0):
        return val
    return float(val[0])


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
    return float(_weighted_sums(v[None], [x], [a])[0, 0])


def _weighted_sums(v: np.ndarray, xs: list[float], a: list[float]) -> np.ndarray:
    """(N, T) ordered weighted sums of the descending rows of ``v`` (N, m)
    at exponent ratios ``xs`` and row parameters ``a``, each with the bits
    of its 1-d evaluation: Python-float weights, and ``v ** x`` one scalar x
    at a time (NumPy's pow squares for a scalar exponent 2, not an array)."""
    scale = np.array([[(1 + a_i) ** (x - 1) for a_i in a] for x in xs])
    w = np.array([[(1 + 1 / a_i) ** (x - 1) for a_i in a] for x in xs])
    weights = np.power(w[:, :, None], np.arange(v.shape[1] - 1, -1, -1, dtype=float))
    powers = np.array([np.power(v, x) for x in xs])
    return (scale * (weights * powers).sum(axis=-1)).T


def _pow(base: float, exponent: float) -> float:
    """Python float pow (the C library's, as NumPy's scalar pow), with
    overflow giving inf as in NumPy rather than OverflowError."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def _max_a(v: list[float], exponent: float) -> float:
    """``max_admissible_a`` of values sorted in descending order."""
    best = math.inf
    for hi, lo in zip(v, v[1:]):
        if lo != 0:
            best = min(best, _pow(hi / lo, exponent))
    return best


def _ratio_ok(v: list[float], a: float, exponent: float, rtol: float = 1e-12) -> bool:
    """``ratio_condition`` of values sorted in descending order."""
    return all(lo == 0 or not _pow(hi, exponent) < a * _pow(lo, exponent) * (1.0 - rtol)
               for hi, lo in zip(v, v[1:]))


def ratio_condition(values, a, exponent, rtol: float = 1e-12):
    """True iff v_(i)^exp >= a v_(i+1)^exp for all consecutive sorted pairs.

    Pairs whose successor is zero pass vacuously.  ``rtol`` absorbs round-off
    so that a = max_admissible_a itself passes.  ``values`` may also be an
    (N, m) stack of rows, with ``a`` and ``exponent`` scalars or of length N;
    the result is then an (N,) bool array, and an invalid input raises what
    the first failing call on one row would raise.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim == 2:
        a, exponent = (np.broadcast_to(np.asarray(p, dtype=float), len(v)) for p in (a, exponent))
        bad = (~((v >= 0) & (v < math.inf)).all(axis=1) | (v.shape[1] == 0) | (a < 1)
               | (exponent <= 0))
        if bad.any():
            i = np.argmax(bad)
            ratio_condition(v[i], a[i], exponent[i])  # raises
        rows = np.sort(v, axis=1)[:, ::-1].tolist()
        return np.array([_ratio_ok(row, a_i, e, rtol) for row, a_i, e
                         in zip(rows, a.tolist(), exponent.tolist())], dtype=bool)
    v = np.sort(_check_values(v))[::-1].tolist()
    a, exponent = float(a), float(exponent)
    if a < 1:
        raise ValueError(f"ratio parameter a must be >= 1, got {a}")
    if exponent <= 0:
        raise ValueError(f"exponent must be positive, got {exponent}")
    return _ratio_ok(v, a, exponent, rtol)


def max_admissible_a(values, exponent: float) -> float:
    """Largest a satisfying the ratio condition: min over consecutive sorted
    pairs of (v_(i)/v_(i+1))^exponent, +inf when every successor is zero."""
    v = np.sort(_check_values(values))[::-1].tolist()
    exponent = float(exponent)
    if exponent <= 0:
        raise ValueError(f"exponent must be positive, got {exponent}")
    return _max_a(v, exponent)


def tripartite_bound(smaller: float, larger: float, target: float, x: float,
                     a: float, variant: str = "ours", p: float = 0.5) -> float:
    """Tripartite bound w_small * smaller^target + w_large * larger^target,
    with the scalar-bound weights of ``variant`` at exponent ratio ``x``."""
    w_small, w_large = _weights(variant, x, a, p)
    return float(w_small * smaller**target + w_large * larger**target)


def _grid(one_vs_rest: np.ndarray, pairwise: np.ndarray, spec: BoundSpec, targets,
          strict: bool):
    """The bound of ``spec`` for N states at T target exponents.

    ``one_vs_rest`` is (N,) and ``pairwise`` (N, m).  Returns the measured
    values, bounds and margins as (N, T) arrays and, per state, the
    (ratio_condition_ok, max_admissible_a, a) of its reports.  An invalid
    input raises the ValueError that the first failing call of a loop of
    ``bound_grid`` calls over the states would raise.  That holds for
    ValueErrors only: every input is checked before any power is taken, so
    where that loop would first overflow a Python-float weight, a later
    invalid state or target raises its ValueError here instead.
    """
    targets = [float(t) for t in targets]
    n = len(one_vs_rest)
    if not n or not targets:
        empty = np.empty((n, len(targets)))
        return empty, empty, empty, []
    # a single-target call has its spec, target included, checked first
    spec._check_target(targets[0])
    r = float(spec.base_exp)
    rows = np.sort(pairwise, axis=1)[:, ::-1]
    values = rows.tolist()
    amax, a, ok = [], [], []
    for i, v in enumerate(values):
        if not v or not all(0 <= x < math.inf for x in v):
            _check_values(rows[i])  # raises a one-state call's message
        amax.append(_max_a(v, r))
        a.append(float(spec.a) if spec.a is not None else min(max(1.0, amax[i]), A_CAP))
        ok.append(_ratio_ok(v, a[i], r))
        if strict and not ok[i]:
            raise ValueError(f"ratio condition fails at a={a[i]} (max admissible {amax[i]})")
        # the targets' own checks follow the first state's, as in a target loop
        for target in (targets if i == 0 else []):
            spec._check_target(target)
            x = target / r
            if spec.mode == "monogamy" and spec.variant in ("zjz1", "zjz2") and x > 0.5:
                raise ValueError(f"variant {spec.variant!r} requires alpha/r <= 1/2, got {x}")
            if spec.variant != "ours" and len(v) != 2:
                raise ValueError(f"variant {spec.variant!r} is defined for tripartite "
                                 "states only")
    xs = [t / r for t in targets]
    # alpha = 0 collapses every power to 1 (0^0 is 1 in Python and NumPy)
    measured = np.array([[o**t for t in targets] for o in one_vs_rest.tolist()])
    if rows.shape[1] == 2:
        bound = np.array([[tripartite_bound(lo, hi, t, x, a_i, spec.variant, spec.p)
                           for t, x in zip(targets, xs)]
                          for (hi, lo), a_i in zip(values, a)])
    else:
        # v^r row by row: NumPy's pow takes another loop for a reversed row
        # (the C library's pow) than for a stack of them
        bound = _weighted_sums(np.array([np.power(v, r) for v in rows]), xs, a)
    margin = measured - bound if spec.mode == "monogamy" else bound - measured
    return measured, bound, margin, list(zip(ok, amax, a))


def margin_grid(mvs, spec: BoundSpec, targets) -> np.ndarray:
    """Margins of the bound of ``spec`` for a sequence of N measure vectors
    at T target exponents, as an (N, T) array.

    Row ``i`` holds the margins of ``bound_grid(mvs[i], spec, targets)`` bit
    for bit, and a failing ratio condition raises as there.  An invalid
    input raises the ValueError that the first failing call of a loop of
    those calls would raise (but see ``_grid`` on overflow).  The measure
    vectors must have equal numbers of pairwise values.
    """
    one_vs_rest = np.array([mv.one_vs_rest for mv in mvs], dtype=float)
    pairwise = np.array([mv.pairwise for mv in mvs], dtype=float)
    return _grid(one_vs_rest, pairwise, spec, targets, strict=True)[2]


def bound_grid(mv: MeasureVector, spec: BoundSpec, targets,
               strict: bool = True) -> list[BoundReport]:
    """Evaluate the bound of ``spec`` at each target exponent of a grid.

    Report ``k`` equals the single-target report (``monogamy_bound`` or
    ``polygamy_bound``) at ``replace(spec, target_exp=targets[k])``, and an
    invalid input raises the ValueError that the first failing call of a
    loop over those single-target calls would raise (but see ``_grid`` on
    overflow).  ``spec.target_exp`` itself is not used.  This is the
    one-state view of ``margin_grid``, which has no ``strict=False``.
    """
    measured, bound, margin, params = _grid(
        np.array([mv.one_vs_rest]), np.array([mv.pairwise], dtype=float),
        spec, targets, strict)
    verified = _VERIFIED_MONOGAMY if spec.mode == "monogamy" else _VERIFIED_POLYGAMY
    assumed = mv.kind not in verified
    return [BoundReport(b, q, g, *params[0], assumed)
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
