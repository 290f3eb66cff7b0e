"""Conditional (k,r)-coloring toolkit: graph families, verifiers, lower
bounds, an exact chi_r solver, and the published closed-form constructions."""

from .bounds import (
    BoundReport,
    basic_lower_bound,
    best_lower_bound,
    clique_number,
    distinct_clique,
    max_vset_d2r,
)
from .constructions import (
    ClaimedColoring,
    construct,
    paper_indexing,
    predicted_chi_r,
)
from .errors import InputError, ParameterError, PreconditionError, UnsupportedCaseError
from .families import (
    FamilySpec,
    Provenance,
    build,
    complete_multipartite,
    cycle,
    declared_max_degree,
    declared_size,
    friendship,
    line_graph,
    middle_graph,
    parse_spec,
    windmill,
)
from .graphs import Graph, from_dimacs, to_dimacs, to_dot
from .kernel import BACKEND_NAME
from .solver import SolveResult, chi_r_exact, exists_conditional_coloring, sweep
from .verify import (
    Coloring,
    ConditionalReport,
    check_c3,
    check_conditional,
    check_distinct_set,
    check_proper,
    check_vset_d2r,
    lemma2_conclusion,
)

__version__ = "0.1.0"
