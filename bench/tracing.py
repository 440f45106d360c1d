"""Spans around calls into monogamy's modules, recorded from outside ``src/``.

A traced function is wrapped at every binding its callers look it up
through: ``verify`` calls its own imported name ``measure_vector``, not
``measures.measure_vector``, so both bindings are wrapped.  Each call
appends one span ``[name, start_ns, end_ns, parent]`` to an in-memory list;
``parent`` is the index of the enclosing traced call, or -1.
"""

from __future__ import annotations

import time
from collections import defaultdict

LAYERS = ("linalg", "states", "measures", "bounds", "verify", "cli")

# (module, attribute, span name).  measures._PAIRWISE holds concurrence_2q
# itself, so the Wootters step is seen through linalg.psd_sqrt and
# linalg.hermitian_eigen, which it reaches by attribute lookup.
BINDINGS = (
    ("linalg", "partial_trace", "linalg.partial_trace"),
    ("linalg", "hermitian_eigen", "linalg.hermitian_eigen"),
    ("linalg", "psd_sqrt", "linalg.psd_sqrt"),
    ("states", "haar_random_amps", "states.haar_random_amps"),
    ("verify", "haar_random_amps", "states.haar_random_amps"),
    ("states", "PureState", "states.PureState"),
    ("verify", "PureState", "states.PureState"),
    ("states", "to_density", "states.to_density"),
    ("measures", "to_density", "states.to_density"),
    ("states", "reduce_density", "states.reduce_density"),
    ("measures", "reduce_density", "states.reduce_density"),
    ("states", "w_class_state", "states.w_class_state"),
    ("verify", "w_class_state", "states.w_class_state"),
    ("states", "parse_state_spec", "states.parse_state_spec"),
    ("cli", "parse_state_spec", "states.parse_state_spec"),
    ("measures", "measure_vector", "measures.measure_vector"),
    ("verify", "measure_vector", "measures.measure_vector"),
    ("cli", "measure_vector", "measures.measure_vector"),
    ("bounds", "monogamy_bound", "bounds.monogamy_bound"),
    ("bounds", "polygamy_bound", "bounds.polygamy_bound"),
    ("bounds", "max_admissible_a", "bounds.max_admissible_a"),
    ("bounds", "ratio_condition", "bounds.ratio_condition"),
    ("bounds", "scalar_lower_bound", "bounds.scalar_lower_bound"),
    ("bounds", "scalar_upper_bound", "bounds.scalar_upper_bound"),
    ("verify", "verify_monogamy_states", "verify.verify_monogamy_states"),
    ("verify", "verify_polygamy_states", "verify.verify_polygamy_states"),
    ("verify", "verify_scalar", "verify.verify_scalar"),
    ("verify", "dominance_scan", "verify.dominance_scan"),
    ("cli", "main", "cli.main"),
)

# Functions whose call count and busy time are reported.
TIMED = (
    "linalg.psd_sqrt", "linalg.hermitian_eigen", "linalg.partial_trace",
    "states.haar_random_amps", "states.PureState", "states.to_density",
    "states.reduce_density", "states.w_class_state", "states.parse_state_spec",
    "measures.measure_vector", "bounds.monogamy_bound", "bounds.polygamy_bound",
    "bounds.scalar_lower_bound", "bounds.scalar_upper_bound", "cli.main",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.errors: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._last_error = None

    def install(self, mods):
        """Wrap every binding in BINDINGS that exists in ``mods``."""
        self.missing = []
        for module, attr, name in BINDINGS:
            target = getattr(mods, module)
            fn = getattr(target, attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            self._saved.append((target, attr, fn))
            setattr(target, attr, self._wrap(name, fn))

    def uninstall(self):
        for target, attr, fn in reversed(self._saved):
            setattr(target, attr, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                # count an error once, in the innermost span it leaves
                if exc is not self._last_error:
                    self._last_error = exc
                    self.errors[name] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def write(self, path, count: int):
        """Write the first ``count`` spans as CSV."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans[:count]):
                fh.write(f"{i},{name},{start},{end},{parent}\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of its interval that the union of
    its direct children covers."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, cursor = 0, start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass call counts, busy and self seconds, and derived ratios."""
    calls, busy, own = defaultdict(int), defaultdict(int), defaultdict(int)
    for (name, start, end, _), self_ns in zip(tracer.spans, self_times(tracer.spans)):
        calls[name] += 1
        busy[name] += end - start
        own[name.split(".")[0]] += self_ns
    out = {}
    for name in TIMED:
        out[f"{name}.calls"] = calls[name] / passes
        out[f"{name}.busy_s"] = busy[name] / passes * 1e-9
    for layer in LAYERS:
        out[f"{layer}.self_s"] = own[layer] / passes * 1e-9
    states = calls["measures.measure_vector"]
    out["measures.pairs_per_state"] = calls["states.reduce_density"] / states if states else 0.0
    for name in ("bounds.max_admissible_a", "bounds.ratio_condition"):
        out[f"{name}.calls_per_state"] = calls[name] / states if states else 0.0
    out["bounds.errors"] = sum(n for k, n in tracer.errors.items() if k.startswith("bounds."))
    return out
