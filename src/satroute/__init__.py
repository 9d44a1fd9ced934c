"""Routing on toroidal satellite grids with Markov ON/OFF links.

Closed-form throughput and delay for a centralized shortest-connected-path
policy and a distributed greedy policy, a lazily evaluated Monte Carlo
network simulator that cross-validates them, and value-iteration optimality
checks for the memoryless regime.

Each name below is loaded from its submodule on first access (PEP 562), so
``import satroute`` compiles no submodule and a command loads only the
modules whose code it runs.
"""

import importlib

_EXPORTS = {
    "analytic_greedy": ("expected_min_tau", "gr_delay_exact_component", "gr_delay_upper_bound",
                        "gr_throughput", "w_from_u"),
    "analytic_scpr": ("scpr_delay_recursion", "scpr_path_success_prob"),
    "comparison": ("delay_crossover_tc", "throughput_crossover_tc"),
    "grid_topology": ("GridSpec", "NodeCoord", "hop_distance", "normalize",
                      "random_shortest_path", "shortest_connected_hops"),
    "link_dynamics": ("LinkParams", "from_p_mu", "transition_prob"),
    "optimal_policies": ("ValueTable", "check_mean_delay_ordering", "find_best_intermediate",
                         "value_iterate_delay", "verify_connected_path_ordering"),
    "simulator": ("Estimate", "GrRun", "ScprRun", "TrialOutcome", "estimate", "run_gr_trial",
                  "run_scpr_trial"),
    "special_functions": ("beta_fn", "reg_inc_beta"),
    "verify": ("run_stylized_scpr_path",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
