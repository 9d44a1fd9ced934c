"""Routing on toroidal satellite grids with Markov ON/OFF links.

Closed-form throughput and delay for a centralized shortest-connected-path
policy and a distributed greedy policy, a lazily evaluated Monte Carlo
network simulator that cross-validates them, and value-iteration optimality
checks for the memoryless regime.
"""

from .analytic_greedy import (
    DirectionBias,
    TieBreak,
    expected_min_tau,
    gr_delay_exact_component,
    gr_delay_upper_bound,
    gr_throughput,
    gr_throughput_boundary,
    recommended_u,
    w_from_u,
)
from .analytic_scpr import (
    MgfEvaluator,
    scpr_delay_lower_bound,
    scpr_path_success_prob,
    scpr_throughput_bound,
)
from .comparison import delay_crossover_tc, throughput_crossover_tc
from .grid_topology import (
    GridSpec,
    NodeCoord,
    hop_distance,
    neighbors,
    normalize,
    random_shortest_path,
    shortest_connected_hops,
)
from .link_dynamics import LinkParams, from_epsilons, from_p_mu, transition_prob
from .optimal_policies import (
    ValueTable,
    check_mean_delay_ordering,
    find_best_intermediate,
    value_iterate_delay,
    verify_connected_path_ordering,
)
from .simulator import Estimate, TrialOutcome, estimate, run_gr_trial, run_scpr_trial, run_stylized_scpr_path
from .special_functions import beta_fn, binom, reg_inc_beta

__version__ = "0.1.0"
