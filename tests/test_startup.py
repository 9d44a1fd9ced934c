"""numpy is loaded only by the commands whose kernels call it.

Importing numpy is about half of a CLI process's start-up, and the GR closed
forms, SCPR throughput, the throughput crossover and the Monte Carlo trials
never need it.  Each case runs in a fresh interpreter, so a top-level
``import numpy`` anywhere in the package fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import satroute
from satroute import cli

SRC = Path(satroute.__file__).resolve().parents[1]

CHILD = """
import contextlib, io, json, sys
import satroute
argv = json.loads(sys.argv[1])
out, rc = io.StringIO(), None
if argv:
    from satroute.cli import main
    with contextlib.redirect_stdout(out):
        rc = main(argv)
print(json.dumps({"numpy": "numpy" in sys.modules, "rc": rc, "out": out.getvalue()}))
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
