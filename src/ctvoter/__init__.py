"""Confidence-threshold voter model on finite graphs.

Event-driven simulation of the opinion process, the coupled edge-weight
process, exact small-graph coexistence bounds, the box-game abstraction, and
a reproducible Monte Carlo experiment harness.
"""

from .common import ceil_recip, spawn_seed
from .dynamics import (
    SimParams,
    SimReport,
    count_opinions,
    extremist_count,
    is_absorbing,
    random_initial,
    replay,
    simulate,
)
from .edge_process import (
    EdgeCensus,
    census,
    classify_edge,
    simulate_coupled,
    weights_from_opinions,
)
from .experiments import (
    ExperimentReport,
    ExperimentSpec,
    ReplicateRecord,
    coexistence_experiment,
    consensus_experiment,
    degree_bound_check,
    run_replicate,
    sweep_experiment,
    write_snapshot,
)
from .graphs import (
    CliquePeel,
    Coloring,
    Graph,
    chromatic_number_exact,
    clique_peel,
    complete_graph,
    cycle_graph,
    enumerate_peels,
    generate_graph,
    greedy_coloring,
    is_bipartite,
    is_connected,
    load_graph,
    make_graph,
    max_clique,
    parse_graph_spec,
    path_graph,
    render_graph,
    torus_graph,
)
from .statics import (
    IndexBounds,
    brute_force_index,
    clique_upper_bound,
    coloring_construction,
    complete_index,
    index_bounds,
    index_lower_bound,
)
from .urn import UrnState, closed_form_Y, play_random, play_strategy_S, uniform_start

__version__ = "0.1.0"
