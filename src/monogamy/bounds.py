"""Weighted bounds on powers of correlation-measure sums.

The core scalar estimates bound (1+t)^x for t >= a >= 1: from below for
0 < x <= 1 and from above for x >= 1.  The "ours" variant uses the
(1+a)^{x-1} / (1+1/a)^{x-1} weights; "jfq", "zjz1" and "zjz2" are the three
earlier bound families kept for dominance comparison.  On top of these sit
the weighted monogamy and polygamy evaluators for measure vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import MeasureVector

VARIANTS = ("ours", "jfq", "zjz1", "zjz2")

# Default ceiling for the automatically chosen ratio parameter when all
# trailing pairwise values vanish and any a is admissible.
A_CAP = 1e8

# Most bytes of exponent arrays a spec keeps for its later blocks (see
# ``_layout``): some thirty of the suites' largest layouts, 64 states x 8
# targets at m = 5, of 30,720 bytes each.
LAYOUT_STORE_BYTES = 2**20


@dataclass(frozen=True, eq=False)
class BoundSpec:
    """Parameters of one weighted-bound evaluation.

    mode "monogamy": base_exp is r >= 2, target_exp is alpha in [0, r].
    mode "polygamy": base_exp is s in (0, 1], target_exp is beta >= s.
    ``a`` may be None, in which case max(1, max_admissible_a) is used
    (capped at A_CAP): the tightest admissible value for two pairwise values,
    but not always for more, where the ordered sum is not monotone in a.
    ``p``, a scalar, parametrizes the zjz1 variant (1/2 <= p <= 1 in
    monogamy mode, 0 < p <= 1 in polygamy mode); zjz2 is zjz1 with p = 1/2,
    and both need alpha/r <= 1/2 in monogamy mode.  Specs compare and hash
    by identity.

    For N states (see ``margin_rows``) ``base_exp`` and ``a`` may be (N,)
    arrays and ``target_exp`` a list of T values or an (N, T) array, kept as
    read-only float arrays by one conversion each; scalars are kept as given.
    Each rule is checked here, and an error names the first failing row, or
    row and target.  A spec keeps the exponent arrays of the block shapes it
    has evaluated, up to a byte cap (see ``_layout``), so that its later
    blocks of those shapes reuse them.
    """

    mode: str
    base_exp: float | np.ndarray
    target_exp: float | np.ndarray
    a: float | np.ndarray | None = None
    variant: str = "ours"
    p: float = 0.5
    _layouts: dict = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_layouts", {})
        if self.mode not in ("monogamy", "polygamy"):
            raise ValueError(f"mode must be 'monogamy' or 'polygamy', got {self.mode!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        for name in ("base_exp", "target_exp", "a"):
            try:
                value = np.array(getattr(self, name), dtype=float)
            except (TypeError, ValueError):
                if np.asarray(getattr(self, name)).ndim:
                    raise
                continue  # a bad scalar raises below, where it is checked
            if value.ndim:
                value.flags.writeable = False
                object.__setattr__(self, name, value)
        r, mono = np.asarray(self.base_exp, dtype=float), self.mode == "monogamy"
        if mono:
            _require((r >= 2) & (r < math.inf),
                     lambda *at: _exponent_message("monogamy base", ">= 2", r[at]))
        else:
            _require((r > 0) & (r <= 1),
                     lambda *at: f"polygamy base exponent must be in (0, 1], got {r[at]}")
        e = np.asarray(self.target_exp, dtype=float)
        if e.ndim <= 2:  # margin_rows rejects a target array of higher rank
            # each row's r, (N, 1) or (1, 1), against its targets, (N or 1, T);
            # a first axis of length 1 is shared by every row
            r, e = r.reshape(-1, 1), np.atleast_2d(e)
            if mono:
                _require((e >= 0) & (e <= r), lambda i, k: "monogamy target exponent must be "
                         f"in [0, {r[i % len(r), 0]}], got {e[i % len(e), k]}")
            else:
                _require((e >= r) & (e < math.inf), lambda i, k: _exponent_message(
                    "polygamy target", f">= {r[i % len(r), 0]}", e[i % len(e), k]))
            if mono and self.variant in ("zjz1", "zjz2"):
                x = e / r
                _require(x <= 0.5, lambda i, k: f"variant {self.variant!r} requires alpha/r "
                         f"<= 1/2, got {x[i, k]}")
        if np.asarray(self.p).ndim:  # _grid broadcasts no per-row p against its rows
            raise ValueError(f"p must be a scalar, got an array of shape {np.shape(self.p)}")
        zjz1 = self.variant == "zjz1"
        if zjz1 and mono and not 0.5 <= self.p <= 1:
            raise ValueError(f"zjz1 requires 1/2 <= p <= 1, got {self.p}")
        if zjz1 and not mono and not 0 < self.p <= 1:
            raise ValueError(f"zjz1 requires 0 < p <= 1 in polygamy mode, got {self.p}")
        if self.a is not None:
            a = np.asarray(self.a)
            _require(a >= 1, lambda *at: f"ratio parameter a must be >= 1, got {a[at]}")


@dataclass(frozen=True)
class BoundReport:
    """One state's bound at one target, from ``monogamy_bound`` or
    ``polygamy_bound``: ``bound_value`` is the bound, ``measured_value`` the
    one-vs-rest value at the target and ``margin`` measured - bound in
    monogamy mode, bound - measured in polygamy mode (nonnegative where the
    bound holds).  ``max_admissible_a`` is the largest a at which the
    pairwise values satisfy the ratio condition, and ``ratio_condition_ok``
    says whether ``max_admissible_a >= a`` within a relative 1e-12, at
    ``a``, the ratio parameter used (given, or resolved as
    max(1, ``max_admissible_a``) capped at A_CAP).
    ``base_relation_assumed`` is true when the kind's base relation is not
    established in the spec's mode.  Reports compare and hash by value.
    """

    bound_value: float
    measured_value: float
    margin: float
    ratio_condition_ok: bool
    max_admissible_a: float
    a: float
    base_relation_assumed: bool = False


def _weights(variants: tuple[str, ...], x: np.ndarray, a, p: float):
    """Yield (w_small, w_large) of the two-weight form w_small + w_large * t^x
    for each name of ``variants`` in turn.

    1 + a is taken once, and the powers that jfq, zjz1 and zjz2 share,
    (1+a)^x and a^x, once, by the first of them.  ``x`` is an array, which
    should have the full shape of the weights so that every power runs
    NumPy's pow loop elementwise (see ``_full``).
    """
    a1, shared = 1.0 + a, None
    for variant in variants:
        if variant == "ours":
            x1 = x - 1.0
            yield a1**x1, (1.0 + 1.0 / a) ** x1
            continue
        if variant == "jfq":
            w0 = 1.0
        elif variant in ("zjz1", "zjz2"):
            w0 = _full(p if variant == "zjz1" else 0.5, x.shape) ** x
        else:
            raise ValueError(f"unknown variant {variant!r}")
        if shared is None:
            shared = a1**x, a**x
        yield w0, (shared[0] - w0) / shared[1]


def _names(variant: str | tuple[str, ...]) -> tuple[str, ...]:
    """The variant names of a one-name or a tuple ``variant``."""
    return (variant,) if isinstance(variant, str) else tuple(variant)


def _check_tax(t, a, x, variants: tuple[str, ...], p, lower: bool):
    """``t``, ``a`` and ``x`` as float arrays, after one check of each range
    that a name of ``variants`` needs."""
    t, a, x = (np.asarray(v, dtype=float) for v in (t, a, x))
    unknown = [variant for variant in variants if variant not in VARIANTS]
    if unknown:
        raise ValueError(f"unknown variant {unknown[0]!r}")
    # each range is one reduction: the least or greatest entry, NaN if there
    # is one (so the comparison fails), and +-inf on an empty array (passes)
    if "zjz1" in variants:
        q = np.asarray(p, dtype=float)
        q_lo, q_hi = q.min(initial=math.inf), q.max(initial=-math.inf)
        if lower and not (q_lo >= 0.5 and q_hi <= 1):
            raise ValueError(f"zjz1 lower bound requires 1/2 <= p <= 1, got {p}")
        if not lower and not (q_lo > 0 and q_hi <= 1):
            raise ValueError(f"zjz1 upper bound requires 0 < q <= 1, got {p}")
    if not a.min(initial=math.inf) >= 1:
        raise ValueError("ratio parameter a must satisfy a >= 1")
    if not (t >= a).all():
        raise ValueError("t must satisfy t >= a")
    full = [variant for variant in variants if variant in ("ours", "jfq")]
    half = [variant for variant in variants if variant in ("zjz1", "zjz2")]
    if lower:
        x_lo, x_hi = x.min(initial=math.inf), x.max(initial=-math.inf)
        if full and not (x_lo > 0 and x_hi <= 1):
            raise ValueError(f"variant {full[0]!r} needs 0 < x <= 1, got {x}")
        if half and not (x_lo >= 0 and x_hi <= 0.5):
            raise ValueError(f"variant {half[0]!r} needs 0 <= x <= 1/2, got {x}")
    elif variants and not x.min(initial=math.inf) >= 1:
        raise ValueError(f"upper bounds need x >= 1, got {x}")
    return t, a, x


def _full(v, shape) -> np.ndarray:
    """``v`` as a C-contiguous float array of ``shape``, copied only if it is
    not one; never a broadcast view.  Where one exponent spans a loop NumPy's
    pow takes x * x for x^2 and sqrt(x) for x^0.5, and on a reversed view
    the C library's pow; a pow of operands of this form gives each element
    the bits of NumPy's pow loop on that element alone."""
    v = np.asarray(v, dtype=float)
    if v.shape == shape and v.flags.c_contiguous and 0 not in v.strides:
        return v
    out = np.empty(shape)
    out[...] = v
    return out


def _two_weight(small, large, x, a, variant: str | tuple[str, ...], p, shape: tuple):
    """The two-weight form w_small * small + w_large * large with the weights
    of ``variant`` at exponent ratio ``x`` (an array of the full shape), or a
    tuple with the form of each name of a tuple ``variant``; each is formed
    in its own fresh w_large array, and a scalar call (``shape`` ()) gives
    floats."""
    vals = [np.add(w_small * small, np.multiply(w_large, large, out=w_large), out=w_large)
            for w_small, w_large in _weights(_names(variant), x, a, p)]
    vals = vals if shape else [float(val[0]) for val in vals]
    return vals[0] if isinstance(variant, str) else tuple(vals)


def _scalar_bound(t, a, x, variant: str | tuple[str, ...], p: float):
    """The bound of ``variant``, w_small + w_large * t^x, or a tuple with the
    bound of each name of a tuple ``variant``, taking t^x once."""
    shape = np.broadcast_shapes(*map(np.shape, (t, a, x, p)))
    t1, a1, x1 = (_full(v, shape or (1,)) for v in (t, a, x))
    return _two_weight(1.0, t1**x1, x1, a1, variant, p, shape)


def scalar_lower_bound(t, x, a, variant: str | tuple[str, ...] = "ours", p: float = 0.5):
    """Lower bound on (1+t)^x for t >= a >= 1 and 0 < x <= 1.

    The zjz variants are only valid for 0 <= x <= 1/2 (with 1/2 <= p <= 1);
    evaluating them outside that region is an error.  ``t``, ``x``, ``a``
    and ``p`` broadcast.  A tuple of variant names returns a tuple of their
    bounds, each with the bits of its one-name call, after one check of the
    ranges the names need; the powers the names share are taken once.
    """
    t, a, x = _check_tax(t, a, x, _names(variant), p, lower=True)
    return _scalar_bound(t, a, x, variant, p)


def scalar_upper_bound(t, x, a, variant: str | tuple[str, ...] = "ours", p: float = 0.5):
    """Upper bound on (1+t)^x for t >= a >= 1 and x >= 1.

    Same four formulas as the lower bound, and the same tuple form; the zjz1
    parameter q satisfies 0 < q <= 1 here (passed as ``p``).
    """
    t, a, x = _check_tax(t, a, x, _names(variant), p, lower=False)
    return _scalar_bound(t, a, x, variant, p)


def _max_a(rows: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """``max_admissible_a`` of descending rows (N, m) of finite nonnegative
    values, at ``exponents`` (N, m-1) of the full shape.  A zero successor,
    of either sign, gives inf, or NaN at 0/0, and ``fmin`` skips a NaN; so a
    row with no positive successor gives +inf."""
    hi, lo = rows[:, :-1], rows[:, 1:]
    return np.fmin.reduce(np.power(hi / np.abs(lo), exponents), axis=1, initial=math.inf)


@np.errstate(all="ignore")
def max_admissible_a(values, exponent: float) -> float:
    """Largest a satisfying the ratio condition: min over consecutive sorted
    pairs of (v_(i)/v_(i+1))^exponent, +inf when every successor is zero."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("values must be a nonempty 1-d sequence")
    if np.any(v < 0) or not np.all(np.isfinite(v)):
        raise ValueError(f"values must be finite and nonnegative, got {v.tolist()}")
    exponent = float(exponent)
    if not exponent > 0:
        raise ValueError(f"exponent must be positive, got {exponent}")
    return float(_max_a(np.sort(v)[None, ::-1], np.full((1, v.size - 1), exponent))[0])


@np.errstate(over="raise", divide="raise", invalid="raise")
def tripartite_bound(smaller: float, larger: float, target: float, x: float,
                     a: float, variant: str | tuple[str, ...] = "ours", p: float = 0.5):
    """Tripartite bound w_small * smaller^target + w_large * larger^target,
    with the scalar-bound weights of ``variant`` at exponent ratio ``x``.

    ``target``, ``x``, ``a`` and ``p`` may be broadcastable arrays, and an
    array call returns an array.  Every power is taken on operands expanded
    to the full shape (see ``_full``), so an element has the bits of the
    one-cell call, and a scalar call returns that element as a float.  An
    overflow, a division by zero or an invalid operation raises
    FloatingPointError.  A tuple of variant names returns a tuple of their
    bounds, each with the bits of its one-name call; smaller^target,
    larger^target and the powers the weights share are taken once.

    Before any power, ``a < 1`` raises ValueError with the message of
    ``scalar_lower_bound``, and so does a negative operand, in the order of
    the parameters after ``a``.  Each operand is checked by its least entry:
    NaN fails both checks, and an empty operand passes them.  The x-domain
    of zjz1 and zjz2 is left to the caller: ``dominance_scan`` tabulates
    zjz2 beyond it and blanks those cells.
    """
    given = {"smaller": smaller, "larger": larger, "target": target, "x": x, "a": a, "p": p}
    ops = {name: np.asarray(v, dtype=float) for name, v in given.items()}
    if not ops["a"].min(initial=math.inf) >= 1:
        raise ValueError("ratio parameter a must satisfy a >= 1")
    for name in ("smaller", "larger", "target", "x", "p"):
        if not ops[name].min(initial=math.inf) >= 0:
            raise ValueError(f"{name} must be nonnegative, got {given[name]}")
    shape = np.broadcast_shapes(*(v.shape for v in ops.values()))
    smaller, larger, target, x, a = (_full(ops[name], shape or (1,))
                                     for name in ("smaller", "larger", "target", "x", "a"))
    return _two_weight(smaller**target, larger**target, x, a, variant, p, shape)


def _exponent_message(name: str, rule: str, got) -> str:
    """The error text of an exponent ``got`` that breaks ``rule``, or is +inf."""
    return f"{name} exponent must be {'finite' if got == math.inf else rule}, got {got}"


def _require(ok: np.ndarray, message) -> None:
    """Raise ValueError unless ``ok`` (a scalar, (N,) or (N, T)) is all true:
    the text ``message(*at)`` at the first index ``at`` where it is false,
    and, if ``ok`` has more than one entry, that row, or row and target."""
    if np.count_nonzero(ok) < ok.size:  # half the cost of ok.all() on small arrays
        at = [int(i) for i in np.unravel_index(np.argmin(ok), ok.shape)]
        where = f" (row {', target '.join(map(str, at))})" if ok.size > 1 else ""
        raise ValueError(message(*at) + where)


def _layout(spec: BoundSpec, n: int, m: int) -> tuple:
    """The exponent arrays of ``_grid`` for n states of m pairwise values,
    which depend on nothing else: xs = targets / s (N, T), s as the (N, m-1)
    exponents of ``_max_a``'s pow, and the targets as the (N, T, m+1)
    exponents of the terms' pow; each of the full shape of its pow (see
    ``_full``).  Built once per spec and block shape, read-only, and kept in
    ``spec._layouts`` while the kept arrays total at most
    LAYOUT_STORE_BYTES; a layout beyond that is built anew for each block.
    Each build checks first that the spec's per-row fields fit the block."""
    layout = spec._layouts.get((n, m))
    if layout is None:
        _check_rows(spec, n)
        targets = np.atleast_1d(np.asarray(spec.target_exp, dtype=float))  # a scalar is one target
        full = _full(targets, (n, targets.shape[-1]))
        s = _full(spec.base_exp, (n,))[:, None]
        exps = _full(full[..., None], full.shape + (m + 1,))
        layout = (full / s, _full(s, (n, m - 1)), exps)
        for v in layout:
            v.flags.writeable = False
        if sum(v.nbytes for kept in (layout, *spec._layouts.values())
               for v in kept) <= LAYOUT_STORE_BYTES:
            spec._layouts[n, m] = layout
    return layout


def _check_rows(spec: BoundSpec, n: int) -> None:
    """Raise unless each per-row field of ``spec`` has a first axis of length
    1, shared by every row, or of the block's n rows: ``base_exp`` and ``a``
    as arrays, ``target_exp`` as a 2-d array."""
    for name in ("base_exp", "a", "target_exp"):
        shape = getattr(getattr(spec, name), "shape", ())  # the spec keeps arrays as arrays
        if len(shape) > (name == "target_exp") and shape[0] not in (1, n):
            raise ValueError(f"{name} has length {shape[0]}, but a block of {n} rows "
                             f"needs 1 or {n}")


@np.errstate(all="ignore")
def _grid(one_vs_rest, pairwise, spec: BoundSpec):
    """The kernel of ``margin_rows`` and of the single-target reports.  It
    checks what depends on the values, once, on the whole block and before
    any power; ``spec`` has checked its own fields.  Returns the measured
    values, bounds and margins as (N, T) arrays, and the (N,) arrays of
    ratio_condition_ok, max_admissible_a and a.  Each kind of power is one
    pow over the block, at exponents of its full shape from ``_layout``, so
    a value's bits depend neither on N nor on T.  An overflow gives inf, and
    no floating-point error warns.
    """
    one_vs_rest, pairwise = np.asarray(one_vs_rest, dtype=float), np.asarray(pairwise, dtype=float)
    if one_vs_rest.ndim != 1:
        raise ValueError(f"one_vs_rest must be an (N,) array, got shape {one_vs_rest.shape}")
    n = len(one_vs_rest)
    if n and (pairwise.ndim != 2 or len(pairwise) != n or not pairwise.shape[1]):
        raise ValueError(f"pairwise must be an ({n}, m) array with m >= 1, "
                         f"got shape {pairwise.shape}")
    if not n:  # a spec that fits no block raises, as on any other block
        _check_rows(spec, n)
        empty = np.empty((0, np.atleast_1d(spec.target_exp).shape[-1]))
        return empty, empty, empty, np.empty(0, dtype=bool), np.empty(0), np.empty(0)
    m = pairwise.shape[1]
    xs, s_ratios, exps = _layout(spec, n, m)
    if spec.variant != "ours" and m != 2:
        raise ValueError(f"variant {spec.variant!r} is defined for tripartite states only")
    # each state's one-vs-rest value, then its pairwise values in descending
    # order: the bases of the terms' pow, checked by their least and greatest
    # entries (a NaN fails both), and row by row only if they fail
    bases = np.concatenate((one_vs_rest[:, None], np.sort(pairwise, axis=1)[:, ::-1]), axis=1)
    if not (bases.min() >= 0 and bases.max() < math.inf):
        first_ok = (one_vs_rest >= 0) & (one_vs_rest < math.inf)
        _require(first_ok & ((pairwise >= 0) & (pairwise < math.inf)).all(axis=1),
                 lambda i: "values must be finite and nonnegative, got " + (
                     str(pairwise[i].tolist()) if first_ok[i]
                     else f"one-vs-rest {one_vs_rest[i]}"))
    rows = bases[:, 1:]
    amax = _max_a(rows, s_ratios)
    a = np.minimum(np.maximum(amax, 1.0), A_CAP) if spec.a is None else _full(spec.a, (n,))
    # the ratio condition v_(i)^s >= a v_(i+1)^s is a <= amax; a relative
    # 1e-12 absorbs round-off, so that a = max_admissible_a itself passes
    ok = ~(amax < a * (1.0 - 1e-12))
    # one pow gives the measured values and the bound's terms, every value at
    # the targets (alpha = 0 collapses every power to 1; 0^0 is 1 in NumPy)
    terms = np.power(bases[:, None], exps)
    measured = terms[..., 0]
    [(w_small, w_large)] = _weights((spec.variant,), xs, a[:, None], spec.p)
    # the two-weight step L = w_small v_k + w_large L over the descending
    # terms, from L = v_1 for one or two of them (a lone pair's bound is its
    # own v_1, whatever a) and from w_small v_1 for three or more, which
    # gives the ordered weighted sum
    bound = terms[..., 1] if m <= 2 else w_small * terms[..., 1]
    for k in range(2, m + 1):
        bound = w_small * terms[..., k] + w_large * bound
    margin = measured - bound if spec.mode == "monogamy" else bound - measured
    return measured, bound, margin, ok, amax, a


def margin_rows(one_vs_rest, pairwise, spec: BoundSpec) -> tuple[np.ndarray, np.ndarray]:
    """Margins of the bound of ``spec`` for N states, from the arrays
    ``one_vs_rest`` (N,) and ``pairwise`` (N, m) of ``measure_vectors``:
    returns the (N, T) margins and the (N,) mask of ratio conditions.

    ``spec.target_exp`` is an (N, T) array or a shared list of T targets, and
    ``spec.base_exp`` and ``spec.a`` are (N,) arrays or shared scalars (an
    ``a`` of None is max(1, max_admissible_a) per row, capped at A_CAP).
    Entry (i, k) is the margin of ``monogamy_bound`` or ``polygamy_bound``
    on state i at ``replace(spec, base_exp=base_exp[i],
    target_exp=targets[i][k], a=a[i])`` with ``strict=False``, bit for bit,
    and mask entry i its ``ratio_condition_ok``.  A failing ratio condition
    is no error.  The values are checked once, with or without targets, and
    an error names the first failing row.
    """
    targets = np.asarray(spec.target_exp)
    if targets.ndim not in (1, 2):
        raise ValueError(f"targets must be a list of T exponents or an ({len(one_vs_rest)}, T) "
                         f"array, got shape {targets.shape}")
    _, _, margin, ok, _, _ = _grid(one_vs_rest, pairwise, spec)
    return margin, ok


def _report(mv: MeasureVector, spec: BoundSpec, strict: bool) -> BoundReport:
    """The report of one state at ``spec.target_exp``, by one ``_grid`` call;
    ``strict`` raises a failing ratio condition."""
    if any(np.asarray(v).ndim for v in (spec.base_exp, spec.target_exp, spec.a)):
        raise ValueError("a single-state bound needs scalar base_exp, target_exp and a")
    measured, bound, margin, ok, amax, a = _grid([mv.one_vs_rest], [mv.pairwise], spec)
    if strict and not ok[0]:
        raise ValueError(f"ratio condition fails at a={a[0]} (max admissible {amax[0]})")
    return BoundReport(float(bound[0, 0]), float(measured[0, 0]), float(margin[0, 0]),
                       bool(ok[0]), float(amax[0]), float(a[0]), mv.kind.relation != spec.mode)


def monogamy_bound(mv: MeasureVector, spec: BoundSpec, strict: bool = True) -> BoundReport:
    """Evaluate the weighted monogamy lower bound for a measure vector.

    ``margin`` is measured - bound; under the ratio condition and a valid
    base relation it is nonnegative up to round-off.  With ``strict=False``
    a failing ratio condition is reported instead of raised.
    """
    if spec.mode != "monogamy":
        raise ValueError("monogamy_bound needs a spec in monogamy mode")
    return _report(mv, spec, strict)


def polygamy_bound(mv: MeasureVector, spec: BoundSpec, strict: bool = True) -> BoundReport:
    """Evaluate the weighted polygamy upper bound; margin is bound - measured."""
    if spec.mode != "polygamy":
        raise ValueError("polygamy_bound needs a spec in polygamy mode")
    return _report(mv, spec, strict)
