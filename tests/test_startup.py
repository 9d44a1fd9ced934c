"""A command loads only the modules whose code it runs.

Importing numpy is about half of a CLI process's start-up, and the GR closed
forms, SCPR throughput, the throughput crossover and the Monte Carlo trials
never need it.  Without a bytecode cache each satroute module a process
imports is compiled from source too, so ``import satroute`` loads no
submodule and each command loads only its own.  Each case runs in a fresh
interpreter, so a top-level import that comes back (``import numpy``
anywhere in the package, ``from . import verify`` in ``cli.py``) fails here.
So does a record written as a dataclass: that import loads inspect, ast, dis
and tokenize, about a third of a command's start-up.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import satroute
from satroute import cli, verify

SRC = Path(satroute.__file__).resolve().parents[1]

CHILD = """
import contextlib, io, json, sys
before = set(sys.modules)
import satroute
argv = json.loads(sys.argv[1])
out, rc = io.StringIO(), None
if argv:
    from satroute.cli import main
    with contextlib.redirect_stdout(out):
        rc = main(argv)
print(json.dumps({"numpy": "numpy" in sys.modules, "rc": rc, "out": out.getvalue(),
                  "modules": sorted(m for m in sys.modules if m.startswith("satroute")),
                  "added": sorted(set(sys.modules) - before)}))
"""


def run_fresh(argv: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv", [
    [],
    ["simulate", "--policy", "scpr", "--trials", "1", "--seed", "0"],
    ["analytic", "--policy", "gr", "--buffered", "true"],
    ["crossover", "--metric", "throughput"],
], ids=["import", "simulate-scpr", "analytic-gr-buffered", "crossover-throughput"])
def test_command_does_not_load_numpy(argv):
    reply = run_fresh(argv)
    assert reply["rc"] == (0 if argv else None)
    assert not reply["numpy"]


def test_scpr_delay_recursion_loads_numpy_and_answers_as_in_process(capsys):
    argv = ["analytic", "--policy", "scpr", "--buffered", "true"]
    reply = run_fresh(argv)
    assert reply["numpy"]
    assert cli.main(argv) == reply["rc"] == 0
    assert capsys.readouterr().out == reply["out"]


# What parsing and every handler share: the benchmark's warm-up loads these alone.
CORE = {"cli", "grid_topology", "link_dynamics", "simulator"}
GREEDY = {"analytic_greedy", "special_functions"}
ALL = {*CORE, *GREEDY, "analytic_scpr", "comparison", "optimal_policies", "verify"}


# Standard-library modules a command need not load: dataclasses loads the
# next four, and only sweep writes a CSV.  numpy may load any but csv.
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize", "csv"}


@pytest.mark.parametrize("argv, loaded, allowed", [
    ([], set(), set()),
    (["simulate", "--policy", "scpr", "--trials", "1", "--seed", "0"], CORE, set()),
    (["simulate", "--policy", "gr", "--trials", "1", "--seed", "0"], CORE, set()),
    (["analytic", "--policy", "scpr"], CORE | {"analytic_scpr"}, set()),
    (["analytic", "--policy", "gr", "--buffered", "true"], CORE | GREEDY, set()),
    (["sweep", "--sweep", "x", "--values", "1", "--policy", "scpr", "--trials", "1"],
     CORE | {"analytic_scpr"}, {"csv"}),
    (["crossover", "--metric", "throughput"], CORE | GREEDY | {"analytic_scpr", "comparison"}, set()),
    (["verify", "crossover"], ALL, HEAVY - {"csv"}),
], ids=["import", "simulate-scpr", "simulate-gr", "analytic-scpr", "analytic-gr-buffered",
        "sweep-scpr", "crossover-throughput", "verify-crossover"])
def test_command_loads_only_its_modules(argv, loaded, allowed):
    reply = run_fresh(argv)
    assert reply["rc"] == (0 if argv else None)
    assert reply["modules"] == sorted({"satroute", *(f"satroute.{name}" for name in loaded)})
    # Compared as what the run added: the interpreter's own start-up may load some already.
    assert HEAVY & set(reply["added"]) <= allowed


# The names `satroute` exports, by defining module.
EXPORTS = {
    "analytic_greedy": ["expected_min_tau", "gr_delay_exact_component", "gr_delay_upper_bound",
                        "gr_throughput", "w_from_u"],
    "analytic_scpr": ["scpr_delay_recursion", "scpr_path_success_prob"],
    "comparison": ["delay_crossover_tc", "throughput_crossover_tc"],
    "grid_topology": ["GridSpec", "NodeCoord", "hop_distance", "normalize",
                      "random_shortest_path", "shortest_connected_hops"],
    "link_dynamics": ["LinkParams", "from_p_mu", "transition_prob"],
    "optimal_policies": ["ValueTable", "check_mean_delay_ordering", "find_best_intermediate",
                         "value_iterate_delay", "verify_connected_path_ordering"],
    "simulator": ["Estimate", "GrRun", "ScprRun", "TrialOutcome", "estimate", "run_gr_trial",
                  "run_scpr_trial"],
    "special_functions": ["beta_fn", "reg_inc_beta"],
    "verify": ["run_stylized_scpr_path"],
}
EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module, name", EXPORTED, ids=[name for _, name in EXPORTED])
def test_exported_name_is_the_defining_modules_object(module, name):
    namespace = {}
    exec(f"from satroute import {name}", namespace)
    defining = importlib.import_module(f"satroute.{module}")
    assert namespace[name] is getattr(defining, name) is getattr(satroute, name)
    assert name in dir(satroute)


def test_public_api_is_complete_and_unknown_names_raise():
    assert len(EXPORTED) == 33
    star = {}
    exec("from satroute import *", star)
    assert sorted(set(star) - {"__builtins__"}) == sorted(name for _, name in EXPORTED)
    assert satroute.__version__ == "0.1.0"
    assert "__version__" in dir(satroute)
    with pytest.raises(AttributeError, match="no_such_name"):
        satroute.no_such_name
    with pytest.raises(ImportError):
        exec("from satroute import no_such_name", {})


def test_cli_suite_choices_match_verify_suites():
    """The CLI writes the suite names out so that parsing need not load verify."""
    assert cli.VERIFY_SUITES == tuple(sorted(verify.SUITES))
