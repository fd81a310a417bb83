"""Conditional tests for strategic interaction in directed network formation.

Workflow: load a network (and optionally a node partition), condition on its
degree sequences and cross-group arc counts, draw uniform reference networks
by the cycle-switching chain (or enumerate them when tiny), and compare a
test statistic — the locally best score against a chosen interaction term,
or a descriptive index — against its conditional null distribution.
"""

from .graphs import (
    AdjacencyMatrix,
    CrossLinkMatrix,
    DataError,
    DegreeSequence,
    DuplicateArcWarning,
    DyadCensus,
    GroupAssignment,
    cross_link_matrix,
    degree_sequence,
    dyad_census,
    from_edge_list,
    read_edge_csv,
    read_node_csv,
    reciprocity_index,
    transitivity_index,
    write_edge_csv,
)
from .harness import (
    CalibrationRow,
    ExperimentConfig,
    PowerRow,
    PowerTable,
    run_experiment,
    study_population,
    table1_calibration,
)
from .model import (
    GammaParam,
    NuisanceParams,
    SeparationError,
    StrategicSpec,
    UtilityShockMatrix,
    customer_product_spec,
    draw_logistic_shocks,
    is_equilibrium,
    logistic_cdf,
    logistic_pdf,
    mle_null,
    null_log_likelihood,
    reciprocity_spec,
    simulate_alternative,
    simulate_null,
    strategic_spec,
    strategic_term,
    systematic_utility,
    transitivity_spec,
)
from .sampler import (
    ChainConfig,
    ChainStats,
    FrozenChainError,
    LinkMarks,
    Schlaufe,
    ViolationMatrix,
    cycle_arcs,
    detect_schlaufe,
    enumerate_reference_set,
    markov_draw,
    markov_step,
    mixing_time_heuristic,
    replay_walk_log_prob,
    reversed_walk,
    switch_cycle,
    violation_of_cycle,
)
from .testing import (
    CriticalValues,
    TestResult,
    TestStatisticSpec,
    conditional_p_value,
    exact_conditional_critical_values,
    exact_reciprocity_likelihood,
    locally_best_statistic,
    theorem2_derivative,
)
from .cli import RunManifest, __version__, dispatch, get_parser
