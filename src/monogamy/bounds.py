"""Weighted bounds on powers of correlation-measure sums.

The core scalar estimates bound (1+t)^x for t >= a >= 1: from below for
0 < x <= 1 and from above for x >= 1.  The "ours" variant uses the
(1+a)^{x-1} / (1+1/a)^{x-1} weights; "jfq", "zjz1" and "zjz2" are the three
earlier bound families kept for dominance comparison.  On top of these sit
the weighted monogamy and polygamy evaluators for measure vectors.
"""

from __future__ import annotations

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
    return _weighted_sum(v, x, a)


def _weighted_sum(v: np.ndarray, x: float, a: float) -> float:
    w = (1 + 1 / a) ** (x - 1)
    weights = w ** np.arange(v.size - 1, -1, -1, dtype=float)
    return float((1 + a) ** (x - 1) * (weights * np.power(v, x)).sum())


def ratio_condition(values, a: float, exponent: float, rtol: float = 1e-12) -> bool:
    """True iff v_(i)^exp >= a v_(i+1)^exp for all consecutive sorted pairs.

    Pairs whose successor is zero pass vacuously.  ``rtol`` absorbs round-off
    so that a = max_admissible_a itself passes.
    """
    v = np.sort(_check_values(values))[::-1]
    a, exponent = float(a), float(exponent)
    if a < 1:
        raise ValueError(f"ratio parameter a must be >= 1, got {a}")
    if exponent <= 0:
        raise ValueError(f"exponent must be positive, got {exponent}")
    for hi, lo in zip(v[:-1], v[1:]):
        if lo == 0:
            continue
        if hi**exponent < a * lo**exponent * (1.0 - rtol):
            return False
    return True


def max_admissible_a(values, exponent: float) -> float:
    """Largest a satisfying the ratio condition: min over consecutive sorted
    pairs of (v_(i)/v_(i+1))^exponent, +inf when every successor is zero."""
    v = np.sort(_check_values(values))[::-1]
    exponent = float(exponent)
    if exponent <= 0:
        raise ValueError(f"exponent must be positive, got {exponent}")
    best = np.inf
    for hi, lo in zip(v[:-1], v[1:]):
        if lo == 0:
            continue
        best = min(best, (hi / lo) ** exponent)
    return float(best)


def tripartite_bound(smaller: float, larger: float, target: float, x: float,
                     a: float, variant: str = "ours", p: float = 0.5) -> float:
    """Tripartite bound w_small * smaller^target + w_large * larger^target,
    with the scalar-bound weights of ``variant`` at exponent ratio ``x``."""
    w_small, w_large = _weights(variant, x, a, p)
    return float(w_small * smaller**target + w_large * larger**target)


def bound_grid(mv: MeasureVector, spec: BoundSpec, targets,
               strict: bool = True) -> list[BoundReport]:
    """Evaluate the bound of ``spec`` at each target exponent of a grid.

    Report ``k`` equals the single-target report (``monogamy_bound`` or
    ``polygamy_bound``) at ``replace(spec, target_exp=targets[k])``, and an
    invalid input raises the ValueError that the first failing call of a
    loop over those single-target calls would raise.  ``spec.target_exp``
    itself is not used.  The pairwise values are sorted, ``a`` resolved and
    the ratio condition checked once.
    """
    targets = [float(t) for t in targets]
    if not targets:
        return []
    # a single-target call has its spec, target included, checked first
    spec._check_target(targets[0])
    r = float(spec.base_exp)
    v = np.sort(np.asarray(mv.pairwise, dtype=float))[::-1]
    amax = max_admissible_a(v, r)
    a = float(spec.a) if spec.a is not None else float(min(max(1.0, amax), A_CAP))
    ok = ratio_condition(v, a, r)
    if strict and not ok:
        raise ValueError(
            f"ratio condition fails at a={a} (max admissible {amax})"
        )
    lower = spec.mode == "monogamy"
    assumed = mv.kind not in (_VERIFIED_MONOGAMY if lower else _VERIFIED_POLYGAMY)
    v_r = np.power(v, r)
    reports = []
    for target in targets:
        spec._check_target(target)
        x = target / r
        if lower and spec.variant in ("zjz1", "zjz2") and x > 0.5:
            raise ValueError(f"variant {spec.variant!r} requires alpha/r <= 1/2, got {x}")
        if spec.variant != "ours" and v.size != 2:
            raise ValueError(
                f"variant {spec.variant!r} is defined for tripartite states only"
            )
        # alpha = 0 collapses every power to 1 (0^0 is 1 in Python and NumPy)
        measured = float(mv.one_vs_rest**target)
        if v.size == 2:
            bound = tripartite_bound(float(v[1]), float(v[0]), target, x, a,
                                     spec.variant, spec.p)
        else:
            bound = _weighted_sum(v_r, x, a)
        reports.append(BoundReport(
            bound_value=float(bound),
            measured_value=measured,
            margin=float(measured - bound if lower else bound - measured),
            ratio_condition_ok=ok,
            max_admissible_a=amax,
            a=a,
            base_relation_assumed=assumed,
        ))
    return reports


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
