"""Conditional tests for strategic interaction in directed network formation.

Workflow: load a network (and optionally a node partition), condition on its
degree sequences and cross-group arc counts, draw uniform reference networks
by the cycle-switching chain (or enumerate them when tiny), and compare a
test statistic — the locally best score against a chosen interaction term,
or a descriptive index — against its conditional null distribution.

The top level holds the documented API; every other public name is imported
from its module (``netformtest.graphs``, ``.model``, ``.sampler``,
``.testing``, ``.harness``, ``.cli``).
"""

__version__ = "0.1.0"

from .graphs import (
    AdjacencyMatrix,
    DataError,
    GroupAssignment,
    from_edge_list,
    read_edge_csv,
    read_node_csv,
)
from .harness import ExperimentConfig, run_experiment, study_population
from .model import (
    NuisanceParams,
    SeparationError,
    mle_null,
    null_log_likelihood,
    simulate_alternative,
    simulate_null,
    strategic_spec,
)
from .sampler import (
    ChainConfig,
    FrozenChainError,
    enumerate_reference_set,
    markov_draw,
    markov_step,
    mixing_time_heuristic,
)
from .testing import (
    TestStatisticSpec,
    conditional_p_value,
    exact_conditional_critical_values,
    score_statistic,
)

__all__ = [
    "AdjacencyMatrix",
    "GroupAssignment",
    "DataError",
    "from_edge_list",
    "read_edge_csv",
    "read_node_csv",
    "NuisanceParams",
    "SeparationError",
    "mle_null",
    "null_log_likelihood",
    "simulate_null",
    "simulate_alternative",
    "strategic_spec",
    "ChainConfig",
    "FrozenChainError",
    "markov_step",
    "markov_draw",
    "mixing_time_heuristic",
    "enumerate_reference_set",
    "TestStatisticSpec",
    "conditional_p_value",
    "exact_conditional_critical_values",
    "score_statistic",
    "ExperimentConfig",
    "run_experiment",
    "study_population",
]
