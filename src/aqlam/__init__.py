"""Non-vanishing of cohomologically induced modules in Arthur packets of U(p,q).

Two independent engines decide whether a parameter vector gives a non-zero
module: a linear-constraint criterion over admissible arrangements, and a
signed-tableau reduction.  A third view maps real parameters to p-adic
extended multi-segments.  See the README for the full tour.
"""

from .arrangements import (
    appropriate_arrangement,
    enumerate_admissible,
    lex_first_adjacent,
    sigma_pairs,
    transposition_path,
)
from .criterion import (
    CompiledCriterion,
    Verdict,
    Witness,
    cond_B,
    cond_C,
    lattice_points,
    nonvanishing,
    nonvanishing_simplified,
)
from .errors import (
    AqlamError,
    InputError,
    InvariantViolationError,
    ResourceLimitError,
)
from .halfint import HalfInt
from .padic import (
    ExtendedMultiSegment,
    padic_cond_C,
    padic_nonvanishing,
    padic_transition,
    project_EF,
    sign_of,
    to_extended,
)
from .packets import (
    AVReport,
    arthur_vogan,
    compute_packet,
    count_params,
    enumerate_params,
    multiplicity_report,
    packet_entries,
)
from .segments import (
    GoodParityParameter,
    RangeLabel,
    Relation,
    RelationMasks,
    Segment,
    intersection_size,
    lambda_values,
    neighbor_pairs,
    neighbors,
    range_classify,
    relation,
    relation_masks,
    relation_table,
    segment_from_component,
)
from .tableau import (
    Column,
    CompiledReduction,
    Reduction,
    TableauState,
    build_tableau,
    last_column_type,
    overlap,
    reduce_with_schedule,
    trapa_op,
    trapa_reduce,
    upper_bound_check,
    validate_antitableau,
)
from .transition import ParamVector, phi, phi_adjacent

__all__ = [
    "appropriate_arrangement", "enumerate_admissible", "lex_first_adjacent",
    "sigma_pairs", "transposition_path", "CompiledCriterion", "Verdict",
    "Witness", "cond_B", "cond_C", "lattice_points", "nonvanishing",
    "nonvanishing_simplified", "AqlamError", "InputError",
    "InvariantViolationError", "ResourceLimitError",
    "ExtendedMultiSegment", "padic_cond_C", "padic_nonvanishing",
    "padic_transition", "project_EF", "sign_of", "to_extended", "AVReport",
    "arthur_vogan", "compute_packet",
    "count_params", "enumerate_params", "multiplicity_report", "packet_entries",
    "GoodParityParameter", "RangeLabel", "Relation", "RelationMasks",
    "Segment", "intersection_size", "lambda_values", "neighbor_pairs",
    "neighbors", "range_classify", "relation", "relation_masks",
    "relation_table",
    "segment_from_component", "Column", "CompiledReduction", "Reduction",
    "TableauState", "build_tableau", "last_column_type",
    "overlap", "reduce_with_schedule", "trapa_op", "trapa_reduce",
    "upper_bound_check", "validate_antitableau", "HalfInt", "ParamVector",
    "phi", "phi_adjacent",
]
