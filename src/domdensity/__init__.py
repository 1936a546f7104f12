"""domdensity: exact domination numbers, density inequalities, k-regular
bipartite scans, and rank-based covering obstructions."""

from .catalog import all_graphs, connected_bipartite_graphs, connected_graphs
from .criteria import (
    REFERENCE_NK,
    CriterionVerdict,
    ThresholdEntry,
    bipartition_upper_bound,
    build_threshold_table,
    conjectured_kreg_bound,
    degree_lower_bound,
    finite_remainder,
    imbalance_criterion,
    imbalance_vs_arbitrary,
    kreg_order_bound,
    min_threshold_order,
    threshold_condition,
)
from .density import density_vizing_check
from .domination import (
    GammaCache,
    VizingReport,
    check_vizing,
    gamma_brute,
    gamma_exact,
    gamma_value,
    is_dominating,
)
from .enumeration import (
    BiadjacencyMatrix,
    canonical_key,
    class_record,
    enumerate_kreg,
    is_unique_form,
    to_graph,
    unique_form_matrix,
)
from .errors import CapacityError, FindingError, ParseError, PreconditionError
from .graphs import (
    MAX_VERTICES,
    BipartiteGraph,
    Graph,
    attach_leaves,
    bipartition,
    canonical_form,
    cartesian_product,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    emit_graph6,
    empty_graph,
    from_edges,
    graph_key,
    is_connected,
    max_degree,
    parse_graph6,
    path_graph,
    star,
)
from .rankcheck import (
    ObstructionReport,
    biadjacency_rank,
    disjoint_row_cover,
    obstruction_report,
    rank_exact,
)
from .transform import (
    ConstructiveReport,
    HypothesisReport,
    TransformTrace,
    constructive_inequality_check,
    evaluate_hypothesis,
    iterate_leaves,
    m_star,
)

__version__ = "0.1.0"
