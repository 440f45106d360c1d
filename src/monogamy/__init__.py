"""Weighted monogamy and polygamy bounds for multiqubit correlation measures.

The package computes bipartite correlation measures (concurrence, negativity,
SCREN, SCRENoA and their assisted variants) on small multiqubit pure states,
evaluates weighted monogamy/polygamy bounds on those measures together with
three earlier bound families, and provides a random-sampling verification
harness plus a CLI front end.
"""

from .linalg import (
    partial_trace,
    partial_transpose,
    hermitian_eigen,
    trace_norm,
    psd_sqrt,
)
from .states import (
    PureState,
    DensityMatrix,
    schmidt3_state,
    w_class_state,
    haar_random_pure,
    to_density,
    reduce_density,
    parse_state_spec,
    StateSpecError,
)
from .measures import (
    MeasureKind,
    MeasureVector,
    concurrence_pure,
    concurrence_2q,
    concurrence_assistance_2q,
    negativity,
    scren_pure,
    screnoa_2q,
    measure_vector,
    measure_vectors,
)
from .bounds import (
    BoundSpec,
    BoundReport,
    scalar_lower_bound,
    scalar_upper_bound,
    tripartite_bound,
    max_admissible_a,
    monogamy_bound,
    polygamy_bound,
    margin_rows,
)
from .verify import (
    SweepGrid,
    VerificationReport,
    verify_scalar,
    verify_monogamy_states,
    verify_polygamy_states,
    dominance_scan,
    verify_dominance,
)

__all__ = [
    "partial_trace",
    "partial_transpose",
    "hermitian_eigen",
    "trace_norm",
    "psd_sqrt",
    "PureState",
    "DensityMatrix",
    "schmidt3_state",
    "w_class_state",
    "haar_random_pure",
    "to_density",
    "reduce_density",
    "parse_state_spec",
    "StateSpecError",
    "MeasureKind",
    "MeasureVector",
    "concurrence_pure",
    "concurrence_2q",
    "concurrence_assistance_2q",
    "negativity",
    "scren_pure",
    "screnoa_2q",
    "measure_vector",
    "measure_vectors",
    "BoundSpec",
    "BoundReport",
    "scalar_lower_bound",
    "scalar_upper_bound",
    "tripartite_bound",
    "max_admissible_a",
    "monogamy_bound",
    "polygamy_bound",
    "margin_rows",
    "SweepGrid",
    "VerificationReport",
    "verify_scalar",
    "verify_monogamy_states",
    "verify_polygamy_states",
    "dominance_scan",
    "verify_dominance",
]
