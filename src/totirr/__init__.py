"""Total irregularity of graphs under graph operations.

Immutable simple graphs, the eight classic binary operations with their
degree identities, degree-based irregularity indices, closed-form upper
bounds with tightness reports, and exhaustive / randomized verification
searches, plus a graph6-speaking CLI.
"""

from .bounds import BoundReport, bound_theorem1, evaluate_bound
from .errors import (
    EdgeListParseError,
    FalsificationError,
    Graph6ParseError,
    InputError,
    InternalError,
)
from .families import (
    gen_complete,
    gen_complete_multipartite,
    gen_cycle,
    gen_empty,
    gen_extremal_total_irr,
    gen_path,
    gen_random_tree,
    gen_star,
)
from .formats import emit_graph6, format_record, parse_edge_list, parse_graph6, parse_record
from .graph import Graph, complement, disjoint_union, from_edge_list, is_connected
from .indices import (
    collatz_sinogowitz,
    degree_variance,
    graph_total_irregularity,
    irregularity,
    spectral_radius,
    total_irregularity,
    total_irregularity_naive,
    zagreb_m1,
    zagreb_m1_edge_form,
    zagreb_m2,
)
from .products import (
    ProductKind,
    apply_product,
    cartesian,
    corona,
    direct,
    disjunction,
    join,
    lexicographic,
    product_degrees,
    strong,
    symmetric_difference,
)
from .search import (
    SearchOutcome,
    graph_from_code,
    num_labeled_graphs,
    probe_open_problem,
    sweep_operation_bounds,
    verify_theorem1,
)

__version__ = "0.1.0"
