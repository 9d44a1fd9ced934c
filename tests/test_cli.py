import csv
import functools
import io
import math
import re
from collections import Counter
from pathlib import Path

import pytest

from satroute import cli, comparison, simulator, verify
from satroute import analytic_greedy as greedy
from satroute import analytic_scpr as scpr
from satroute import link_dynamics as ld

from oracles import exact_expected_min_tau


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def assert_usage_error(capsys, argv):
    """argparse rejects ``argv``: exit 2 and nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_analytic_scpr_throughput(capsys):
    code, out = run_cli(capsys, "analytic", "--policy", "scpr", "--buffered", "false",
                        "--p", "0.9", "--mu", "0.99", "--tc", "5", "--x", "5", "--y", "5")
    assert code == 0
    params = ld.from_p_mu(0.9, 0.99)
    expected = scpr.scpr_path_success_prob(params, 10, 5)
    line = out.strip().splitlines()[0].split()
    assert line[0] == "scpr_throughput_bound" and line[1] == "claim1"
    assert float(line[2]) == pytest.approx(expected, rel=1e-12)


def test_analytic_gr_buffered_prints_bound_exact_and_hitting_time(capsys):
    """claim4 bounds the diagonal-bias walk y/(x+y), which --u auto takes only
    from a diagonal source: from (3, 7) it would lie below eq23."""
    for x, y, tags in (("3", "7", ["eq23", "eqEK"]), ("4", "4", ["claim4", "eq23", "eqEK"])):
        code, out = run_cli(capsys, "analytic", "--policy", "gr", "--buffered", "true",
                            "--p", "0.9", "--mu", "0.9", "--x", x, "--y", y)
        assert code == 0
        assert [ln.split()[1] for ln in out.strip().splitlines()] == tags


@pytest.mark.parametrize("x, y, u, tie", [(2, 6, "auto", 0.75), (4, 4, "0.1", 0.1)])
def test_buffered_gr_rows_take_the_walk_of_u(x, y, u, tie, capsys):
    """eq23 and eqEK are evaluated at the vertical-move probability w that the
    tie-break gives the Monte Carlo walk, not at the diagonal y/(x+y)."""
    params = ld.from_p_mu(0.9, 0.5)
    w = greedy.w_from_u(params, tie)
    code, out = run_cli(capsys, "analytic", "--policy", "gr", "--buffered", "true", "--p", "0.9",
                        "--mu", "0.5", "--x", str(x), "--y", str(y), "--u", u)
    assert code == 0
    rows = {claim: value for _, claim, value in (line.split() for line in out.splitlines())}
    assert rows["eq23"] == repr(greedy.gr_delay_exact_component(params, x, y, w))
    assert rows["eqEK"] == repr(greedy.expected_min_tau(x, y, w))


def test_eqek_row_keeps_its_relative_accuracy_near_a_certain_walk(capsys):
    """At p = 1 - 1e-12 and u = 1e-9 the walk's w is about 1e-9; eqEK printed
    10.000001907348633 there, 1.9e-7 off the exact 10.00000001001."""
    params = ld.from_p_mu(0.999999999999, 0.99)
    w = greedy.w_from_u(params, 1e-9)
    code, out = run_cli(capsys, "analytic", "--policy", "gr", "--buffered", "true", "--p", "0.999999999999",
                        "--u", "1e-9", "--x", "10", "--y", "9")
    assert code == 0
    rows = {claim: float(value) for _, claim, value in (line.split() for line in out.splitlines())}
    assert rows["eqEK"] == pytest.approx(float(exact_expected_min_tau(10, 9, w)), rel=1e-14)
    assert rows["eqEK"] == pytest.approx(10.00000001001, rel=1e-12)


def test_buffered_gr_exact_row_matches_the_monte_carlo_off_the_diagonal(capsys):
    """With u = 0.1 the walk from (4, 4) leaves the diagonal: eq23 taken at
    w = y/(x+y) would lie about 20 standard errors below the mc row."""
    code, out = run_cli(capsys, "sweep", "--sweep", "mu", "--values", "0.5", "--policy", "gr",
                        "--buffered", "true", "--x", "4", "--y", "4", "--u", "0.1", "--grid", "20x20",
                        "--trials", "20000")
    assert code == 0
    rows = {row["claim"] or row["kind"]: row for row in csv.DictReader(io.StringIO(out))}
    mc = rows["mc"]
    assert abs(float(mc["estimate"]) - float(rows["eq23"]["estimate"])) / float(mc["stderr"]) <= 3.0


def test_simulate_prints_estimate_and_writes_csv(tmp_path, capsys):
    """simulate prints its estimate; the CSV row of one configuration comes
    from a one-value sweep, which names the swept parameter and its value."""
    config = ["--policy", "gr", "--buffered", "false", "--p", "0.9", "--grid", "20x20",
              "--x", "2", "--y", "2", "--trials", "500", "--seed", "42"]
    code, out = run_cli(capsys, "simulate", "--mu", "0.0", *config)
    assert code == 0
    assert "policy=gr" in out and "metric=throughput" in out
    out_path = tmp_path / "row.csv"
    code, _ = run_cli(capsys, "sweep", "--sweep", "mu", "--values", "0.0", *config, "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == ",".join(cli.CSV_HEADER)
    assert len(lines) == 3 and lines[2].split(",")[:6] == ["mu", "0.0", "gr", "bufferless", "throughput", "mc"]


def test_sweep_deterministic_across_runs_and_threads(tmp_path, capsys):
    args = ["sweep", "--sweep", "mu", "--values", "0.0,0.9", "--buffered", "false",
            "--grid", "30x30", "--trials", "300", "--seed", "7", "--x", "3", "--y", "3"]
    paths = []
    for name, threads in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "8")):
        path = tmp_path / name
        code, _ = run_cli(capsys, *args, "--threads", threads, "--out", str(path))
        assert code == 0
        paths.append(path.read_bytes())
    assert paths[0] == paths[1] == paths[2]


def test_sweep_rows_carry_claims_and_stderr(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code, _ = run_cli(capsys, "sweep", "--sweep", "tc", "--values", "0,10",
                      "--buffered", "true", "--grid", "20x20", "--trials", "100",
                      "--seed", "3", "--x", "2", "--y", "2", "--policy", "scpr",
                      "--out", str(path))
    assert code == 0
    rows = [ln.split(",") for ln in path.read_text().strip().splitlines()[1:]]
    kinds = {r[5] for r in rows}
    assert kinds == {"analytic", "mc"}
    for r in rows:
        if r[5] == "analytic":
            assert r[10] == "claim2" and r[7] == "" and r[8] == ""
        else:
            assert r[7] != "" and int(r[8]) == 100 and r[10] == ""


def test_sweep_to_stdout(capsys):
    code, out = run_cli(capsys, "sweep", "--sweep", "x", "--values", "1,2",
                        "--buffered", "false", "--grid", "20x20", "--trials", "50",
                        "--seed", "1", "--policy", "gr")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(cli.CSV_HEADER)
    assert len(lines) == 1 + 2 * 2  # 2 values x (analytic + mc)


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=0.8\nmu=0.5\nx=2\ny=2\ntc=1\n# comment\n\nbuffered=false\n")
    code, out = run_cli(capsys, "analytic", "--policy", "scpr", "--config", str(cfg))
    assert code == 0
    params = ld.from_p_mu(0.8, 0.5)
    assert float(out.split()[2]) == pytest.approx(
        scpr.scpr_path_success_prob(params, 4, 1), rel=1e-12)
    # explicit flag beats the file
    code, out = run_cli(capsys, "analytic", "--policy", "scpr", "--config", str(cfg),
                        "--p", "0.9")
    params = ld.from_p_mu(0.9, 0.5)
    assert float(out.split()[2]) == pytest.approx(
        scpr.scpr_path_success_prob(params, 4, 1), rel=1e-12)
    # so does a flag of another type
    code, out = run_cli(capsys, "analytic", "--policy", "scpr", "--config", str(cfg),
                        "--buffered", "true")
    name, claim, value = out.split()
    assert code == 0 and (name, claim) == ("scpr_delay_lower_bound", "claim2")
    assert float(value) == pytest.approx(
        scpr.scpr_delay_recursion(ld.from_p_mu(0.8, 0.5), 4, 1), rel=1e-12)


def test_config_keys_reach_every_subcommand(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("policy=gr\nvalues=2\nu=deterministic\ngrid=20x20\ntrials=50\n")
    code, out = run_cli(capsys, "sweep", "--sweep", "x", "--config", str(cfg))
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    assert [r[:3] + r[5:6] for r in rows] == [["x", "2", "gr", "analytic"], ["x", "2", "gr", "mc"]]
    assert rows[1][8] == "50"
    # u reaches crossover too (14 under the farther-axis walk, 30 under auto's
    # coin), and crossover ignores policy, values, grid and trials
    code, out = run_cli(capsys, "crossover", "--metric", "delay", "--config", str(cfg))
    assert code == 0 and out.strip() == "crossover_tc=14"


def test_config_scale_reaches_simulation_suite(tmp_path, capsys, monkeypatch):
    scales = []

    def recorder(scale):
        scales.append(scale)
        return [verify.CheckResult("recorded", True)]

    monkeypatch.setattr(verify, "suite_simulation", recorder)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scale=0.01\n")
    code, out = run_cli(capsys, "verify", "simulation", "--config", str(cfg))
    assert code == 0 and scales == [0.01]
    assert out.splitlines() == ["PASS  recorded", "1/1 checks passed"]


def test_verify_simulation_golden_output(capsys):
    """The simulation suite's real checks at 1% scale: seeds and trial counts
    are fixed, so its output is too."""
    code, out = run_cli(capsys, "verify", "simulation", "--scale", "0.01")
    assert code == 0
    assert out.splitlines() == [
        "PASS  stylized bufferless MC matches survival product (3 sigma)  (worst z=2.85)",
        "PASS  stylized buffered MC matches delay recursion (3 sigma)  (worst z=1.52)",
        "PASS  network SCPR throughput <= analytic bound + 3 sigma  (worst excess=0.95 of 5 points)",
        "PASS  greedy throughput memory-independent and matches formula (3 sigma)  "
        "(gap=0.45, worst z=0.42 of 2 points)",
        "PASS  greedy delay bound >= network MC - 3 sigma  (worst excess=-0.08 of 4 points)",
        "5/5 checks passed",
    ]


def test_verify_optimal_golden_output(capsys):
    """Every check's status and name, and the sweep and violation counts.

    The residual and |diff| digits are rounding and are not pinned.  The four
    ordering FAILs are the known-red low-availability violations.
    """
    code, out = run_cli(capsys, "verify", "optimal")
    assert code == 1
    assert [re.sub(r"(residual|\|diff\|)=[^)]*", r"\1=", line) for line in out.splitlines()] == [
        "PASS  value iteration converged (9x9, p=0.3)  (108 sweeps, residual=)",
        "FAIL  mean-delay node ordering (9x9, p=0.3)  (48 violations)",
        "PASS  greedy attains Bellman argmin (9x9, p=0.3)  (0 violations)",
        "PASS  boundary chain D(1,0) == 1/p (9x9, p=0.3)  (|diff|=)",
        "PASS  value iteration converged (9x9, p=0.6)  (44 sweeps, residual=)",
        "FAIL  mean-delay node ordering (9x9, p=0.6)  (32 violations)",
        "PASS  greedy attains Bellman argmin (9x9, p=0.6)  (0 violations)",
        "PASS  boundary chain D(1,0) == 1/p (9x9, p=0.6)  (|diff|=)",
        "PASS  value iteration converged (9x9, p=0.9)  (20 sweeps, residual=)",
        "PASS  mean-delay node ordering (9x9, p=0.9)  (0 violations)",
        "PASS  greedy attains Bellman argmin (9x9, p=0.9)  (0 violations)",
        "PASS  boundary chain D(1,0) == 1/p (9x9, p=0.9)  (|diff|=)",
        "PASS  value iteration converged (11x11, p=0.3)  (115 sweeps, residual=)",
        "FAIL  mean-delay node ordering (11x11, p=0.3)  (192 violations)",
        "PASS  greedy attains Bellman argmin (11x11, p=0.3)  (0 violations)",
        "PASS  boundary chain D(1,0) == 1/p (11x11, p=0.3)  (|diff|=)",
        "PASS  value iteration converged (11x11, p=0.6)  (47 sweeps, residual=)",
        "FAIL  mean-delay node ordering (11x11, p=0.6)  (80 violations)",
        "PASS  greedy attains Bellman argmin (11x11, p=0.6)  (0 violations)",
        "PASS  boundary chain D(1,0) == 1/p (11x11, p=0.6)  (|diff|=)",
        "PASS  value iteration converged (11x11, p=0.9)  (22 sweeps, residual=)",
        "PASS  mean-delay node ordering (11x11, p=0.9)  (0 violations)",
        "PASS  greedy attains Bellman argmin (11x11, p=0.9)  (0 violations)",
        "PASS  boundary chain D(1,0) == 1/p (11x11, p=0.9)  (|diff|=)",
        "20/24 checks passed",
    ]


@pytest.mark.parametrize("line", ["trails=10", "buffered=maybe", "policy=flooding",
                                  "grid=10y10", "trials 10"])
def test_config_rejects_unknown_keys_and_invalid_values(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"x=1\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--sweep", "x", "--values", "1", "--grid", "20x20", "--trials", "50",
                  "--policy", "gr", "--config", str(cfg)])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ("analytic", "--policy", "scpr", "--u", "abc"),
    ("analytic", "--policy", "scpr", "--u", "1.5"),
    ("analytic", "--policy", "gr", "--u", "-0.1"),
    ("crossover", "--metric", "delay", "--u", "abc"),
    ("sweep", "--sweep", "x", "--values", "1", "--u", "nan"),
])
def test_u_outside_its_domain_exits_2(argv, capsys):
    """--u is checked when parsed, also by commands and policies that never read it."""
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# Each subcommand takes only the flags it reads; these were accepted and ignored.
REMOVED_FLAGS = [
    *(("analytic", "--policy", "scpr", flag, value) for flag, value in
      (("--grid", "20x20"), ("--trials", "7"), ("--seed", "1"), ("--threads", "1"),
       ("--out", "unused.csv"))),
    *(("crossover", "--metric", "throughput", flag, value) for flag, value in
      (("--tc", "99"), ("--grid", "20x20"), ("--policy", "scpr"), ("--buffered", "true"),
       ("--trials", "7"), ("--seed", "1"), ("--threads", "1"), ("--out", "unused.csv"),
       ("--tc-min", "0"), ("--tc-max", "5"))),
    ("simulate", "--policy", "scpr", "--out", "unused.csv"),
]


@pytest.mark.parametrize("argv", REMOVED_FLAGS, ids=lambda argv: f"{argv[0]}{argv[3]}")
def test_flag_the_subcommand_does_not_read_exits_2(argv, capsys):
    assert_usage_error(capsys, argv)


@pytest.mark.parametrize("command", [("analytic", "--policy", "scpr"),
                                     ("simulate", "--policy", "scpr", "--trials", "5"),
                                     ("sweep", "--sweep", "x", "--values", "1", "--trials", "5"),
                                     ("crossover", "--metric", "delay"),
                                     ("verify", "crossover")], ids=lambda command: command[0])
# tc_max names no flag, so tc_max=-1 exits 2 as an unknown key
@pytest.mark.parametrize("line", ["grid=10y10", "scale=abc", "scale=inf", "tc_max=-1",
                                  "metric=speed", "tc=-1"])
def test_config_value_its_flag_rejects_exits_2_under_every_subcommand(tmp_path, capsys,
                                                                      command, line):
    """Also where the running subcommand does not take the key's flag."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{line}\n")
    assert_usage_error(capsys, [*command, "--config", str(cfg)])


@pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1", "abc"])
def test_scale_outside_its_domain_exits_2(scale, capsys):
    """Infinite, NaN and non-positive scales are rejected before any suite runs."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "simulation", "--scale", scale])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"want a finite float > 0, got {scale!r}" in out.err


def test_config_keys_of_other_subcommands_are_ignored(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid=10x10\ntrials=7\nseed=1\nout=unused.csv\nmetric=delay\nscale=0.5\n")
    argv = ["analytic", "--policy", "gr", "--buffered", "true"]
    plain = run_cli(capsys, *argv)
    assert plain[0] == 0
    assert run_cli(capsys, *argv, "--config", str(cfg)) == plain


@pytest.mark.parametrize("argv", [
    ("simulate", "--policy", "scpr", "--tc", "-3", "--trials", "20"),
    ("simulate", "--policy", "scpr", "--buffered", "true", "--tc", "-4", "--trials", "20"),
    ("analytic", "--policy", "scpr", "--tc", "1.5"),
    ("sweep", "--sweep", "x", "--values", "1", "--tc", "-1"),
    ("simulate", "--policy", "gr", "--tc", "2.0", "--trials", "20"),
    ("analytic", "--policy", "scpr", "--buffered", "true", "--tc", "-2"),
])
def test_snapshot_age_that_is_not_a_count_exits_2(argv, capsys):
    assert_usage_error(capsys, argv)


BEYOND_FLOAT = "1" + "0" * 400


@pytest.mark.parametrize("argv", [
    ("analytic", "--policy", "scpr", "--buffered", "false", "--tc", BEYOND_FLOAT),
    ("analytic", "--policy", "scpr", "--buffered", "true", "--tc", BEYOND_FLOAT),
    ("simulate", "--policy", "gr", "--tc", BEYOND_FLOAT, "--trials", "20"),
    ("sweep", "--sweep", "x", "--values", "1", "--tc", BEYOND_FLOAT, "--trials", "20"),
    ("simulate", "--policy", "scpr", "--tc", BEYOND_FLOAT, "--trials", "20"),
    ("sweep", "--sweep", "tc", "--values", BEYOND_FLOAT, "--trials", "20"),
])
def test_snapshot_age_past_the_float_range_exits_2(argv, capsys):
    """A slot count that float() cannot hold is rejected before any closed form
    converts it, so the run prints an error: line instead of an OverflowError."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert "error:" in out.err and "float range" in out.err


def test_grid_past_max_nodes_exits_2(capsys):
    """--grid is bounded by its node count when parsed, before any table is built."""
    parser = cli._build_parser(None)[0]
    command = ["simulate", "--policy", "scpr", "--grid"]
    assert cli.MAX_NODES == 10**7
    assert parser.parse_args([*command, "3162x3162"]).grid.n_nodes == 3162 * 3162 <= cli.MAX_NODES
    for grid in ("3163x3163", "10000x10000", "3x3333334"):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([*command, grid])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "error:" in out.err and "at most 10000000 nodes" in out.err


def test_scpr_exit_code_does_not_depend_on_u(capsys):
    """SCPR has no tie-break: --u, which it never reads, cannot change the run."""
    for x, code in (("2", 0), ("-2", 2)):
        argv = ["simulate", "--policy", "scpr", "--x", x, "--y", "3", "--grid", "20x20",
                "--trials", "20"]
        auto = run_cli(capsys, *argv)
        assert auto[0] == code
        assert run_cli(capsys, *argv, "--u", "0.5") == auto


# The closed forms take x + y hops; these sources are not x + y hops away.
BAD_DISTANCES = [
    ("analytic", "--policy", "scpr", "--x", "-2", "--y", "3"),
    ("analytic", "--policy", "scpr", "--buffered", "true", "--x", "4", "--y", "-1"),
    ("analytic", "--policy", "scpr", "--x", "0", "--y", "0"),
    ("analytic", "--policy", "gr", "--x", "0", "--y", "0", "--u", "0.5"),
    ("analytic", "--policy", "gr", "--buffered", "true", "--x", "-1", "--y", "1"),
    ("simulate", "--policy", "gr", "--x", "0", "--y", "0", "--u", "0.5"),
    ("simulate", "--policy", "gr", "--x", "0", "--y", "0", "--u", "auto"),
    ("simulate", "--policy", "scpr", "--x", "0", "--y", "0"),
    ("simulate", "--policy", "scpr", "--x", "-2", "--y", "3", "--u", "0.5"),
    ("simulate", "--policy", "gr", "--x", "15", "--y", "3", "--grid", "20x20", "--u", "0.5",
     "--buffered", "true"),
    ("simulate", "--policy", "scpr", "--x", "3", "--y", "11", "--grid", "20x20"),
    ("simulate", "--policy", "gr", "--x", "15", "--y", "3", "--grid", "30x20"),
    ("sweep", "--sweep", "x", "--values", "0", "--grid", "20x20"),
    ("sweep", "--sweep", "x", "--values", "1,-1", "--grid", "20x20"),
    ("sweep", "--sweep", "x", "--values", "3,11", "--grid", "20x20"),
    ("sweep", "--sweep", "mu", "--values", "0.5", "--x", "-1", "--y", "2", "--grid", "20x20"),
    ("sweep", "--sweep", "tc", "--values", "1", "--x", "11", "--y", "2", "--grid", "20x20"),
    ("crossover", "--metric", "delay", "--x", "-1", "--y", "3"),
    ("crossover", "--metric", "throughput", "--x", "0", "--y", "0", "--u", "0.5"),
]


@pytest.mark.parametrize("argv", BAD_DISTANCES, ids=" ".join)
def test_source_off_the_closed_forms_domain_exits_2(argv, capsys):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("error: ")


# The runs that take --out, by subcommand.
SMALL_RUNS = {
    "sweep": ("sweep", "--sweep", "x", "--values", "1", "--grid", "20x20", "--trials", "5"),
}


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_out_that_cannot_be_written_exits_2(command, where, tmp_path, capsys, monkeypatch):
    """Before the first trial, and without creating a file."""
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before --out was checked")

    monkeypatch.setattr(simulator, "estimate", no_trials)
    path = tmp_path / "no" / "f.csv" if where == "missing directory" else tmp_path
    code = cli.main([*SMALL_RUNS[command], "--out", str(path)])
    out = capsys.readouterr()
    assert code == 2
    assert out.err.startswith(f"error: --out {path}: ")
    assert "wrote" not in out.out
    assert path.is_dir() if where == "directory" else not path.parent.exists()


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_failed_run_leaves_out_untouched(command, tmp_path, capsys):
    kept, new = tmp_path / "kept.csv", tmp_path / "new.csv"
    kept.write_text("earlier rows\n")
    for path in (kept, new):
        assert cli.main([*SMALL_RUNS[command], "--p", "1.5", "--out", str(path)]) == 2
    assert kept.read_text() == "earlier rows\n" and not new.exists()


@pytest.mark.parametrize("values", [",", "", " , ,"])
def test_sweep_with_no_values_exits_2(values, tmp_path, capsys):
    out_csv = tmp_path / "none.csv"
    code = cli.main(["sweep", "--sweep", "mu", "--values", values, "--out", str(out_csv)])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("error: ")
    assert not out_csv.exists()


@pytest.mark.parametrize("argv, token", [
    (("sweep", "--sweep", "tc", "--values", "0,-5"), "-5"),
    (("sweep", "--sweep", "tc", "--values", "-5", "--policy", "gr"), "-5"),
    (("sweep", "--sweep", "x", "--values", "1,2.5", "--grid", "20x20"), "2.5"),
], ids=lambda item: " ".join(item) if isinstance(item, tuple) else item)
def test_sweep_values_take_the_swept_flags_type(argv, token, capsys):
    """A bad token is named as such, not reported by the closed form it reaches."""
    code = cli.main(list(argv))
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith(f"error: --values token '{token}' is not a valid --{argv[2]}")


@pytest.mark.parametrize("argv", [
    ("--values", "0.5,1.5"),
    ("--values", "0.5,0.9,-0.1"),
    ("--p", "1.5"),
], ids=" ".join)
def test_sweep_mu_checks_every_value_before_any_trial(argv, capsys, monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before every swept value was checked")

    monkeypatch.setattr(simulator, "estimate", no_trials)
    code = cli.main(["sweep", "--sweep", "mu", *argv, "--grid", "20x20", "--x", "3", "--y", "3",
                     "--trials", "3000", "--buffered", "true"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("analytic", "--policy", "scpr", "--x", "0", "--y", "1"),
    ("analytic", "--policy", "scpr", "--buffered", "true", "--x", "1", "--y", "0"),
    ("simulate", "--policy", "gr", "--x", "10", "--y", "10", "--grid", "20x20"),
    ("simulate", "--policy", "gr", "--x", "15", "--y", "3", "--grid", "20x30"),
    ("simulate", "--policy", "scpr", "--x", "3", "--y", "10", "--grid", "21x20"),
    ("crossover", "--metric", "delay", "--x", "0", "--y", "2"),
], ids=" ".join)
def test_source_at_the_edge_of_the_domain_runs(argv, capsys):
    """x <= M//2 and y <= N//2 of an NxM grid: --grid 20x30 has 30 planes along x."""
    code = cli.main([*argv, "--trials", "5"] if argv[0] == "simulate" else list(argv))
    assert code == 0 and capsys.readouterr().out


@pytest.mark.parametrize("argv, expected, rel", [
    (("--p", "1e-12", "--mu", "0.5", "--x", "1", "--y", "0", "--tc", "0"), 1.0, 0.0),
    (("--p", "1e-12", "--mu", "0.999999999", "--x", "3", "--y", "4", "--tc", "7"), 251999994035472.28, 1e-12),
    (("--mu", "0.999999999", "--tc", "5"), 22.648134450734332, 1e-12),
], ids=["one-hop-small-p", "small-p-near-static", "near-static"])
def test_claim2_at_the_edge_of_the_domain(argv, expected, rel, capsys):
    """Small p magnifies each rounding error by (1-p)/e2, and mu near 1 makes
    1 - mu^t cancel.  The expected values are oracles.delay_mp's; one hop
    taken at the snapshot instant costs exactly 1 slot."""
    code, out = run_cli(capsys, "analytic", "--policy", "scpr", "--buffered", "true", *argv)
    _, claim, value = out.split()
    assert code == 0 and claim == "claim2"
    assert float(value) == pytest.approx(expected, rel=rel, abs=0.0)


def test_parser_is_built_once_per_subcommand(tmp_path, capsys, monkeypatch):
    builds = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command: builds.append(command) or build(command))
    cli._shared_parser.cache_clear()
    argv = ["analytic", "--policy", "gr", "--u", "0.3"]
    for _ in range(3):
        assert run_cli(capsys, *argv) == (0, GOLDEN_STDOUT[tuple(argv)])
    assert builds == ["analytic"]
    for _ in range(2):
        assert run_cli(capsys, "crossover", "--metric", "throughput", "--u", "0.3")[0] == 0
    assert builds == ["analytic", "crossover"]
    # a --config run builds its subcommand's parser anew for the file's defaults
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=0.5\n")
    assert run_cli(capsys, *argv, "--config", str(cfg))[0] == 0
    assert run_cli(capsys, *argv)[0] == 0
    assert builds == ["analytic", "crossover", "analytic"]
    # a usage error is printed by the parser already built
    assert_usage_error(capsys, ["analytic", "--policy", "flooding"])
    assert builds == ["analytic", "crossover", "analytic"]


def test_commands_name_the_full_parsers_subcommands():
    assert cli.COMMANDS == tuple(cli._build_parser(None)[1])


def outcome(capsys, call, *args):
    """(exit code, stdout, stderr) of ``call(*args)``, which exits."""
    with pytest.raises(SystemExit) as exc:
        call(*args)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def test_one_subcommand_parser_reads_as_the_full_parser(tmp_path, capsys):
    """A parser with one subcommand's flags gives the full parser's namespace
    for that subcommand's command lines, and prints its help, usage errors,
    --config errors and exit codes; ``main`` prints them too."""
    full, commands = cli._build_parser(None)
    for argv in [
        ["analytic", "--policy", "gr", "--buffered", "true", "--u", "0.3", "--x", "2"],
        ["simulate", "--policy", "scpr", "--grid", "20x30", "--threads", "3"],
        ["sweep", "--sweep", "tc", "--values", "1,2", "--out", "f.csv"],
        ["crossover", "--metric", "delay", "--mu", "0.5"],
        ["verify", "ordering", "--scale", "0.5"],
    ]:
        assert vars(cli._build_parser(argv[0])[0].parse_args(argv)) == vars(full.parse_args(argv))
    for argv in [*([name, "-h"] for name in commands), *([name, "--bogus"] for name in commands),
                 ["simulate", "--policy", "gr", "--bogus"], ["simulate", "--threads", "0", "--policy", "gr"],
                 ["analytic", "--policy", "flooding"], ["analytic", "--policy", "gr", "extra"],
                 ["sweep", "--values", "1"], ["verify", "nothing"]]:
        reference = outcome(capsys, full.parse_args, argv)
        assert outcome(capsys, cli._build_parser(argv[0])[0].parse_args, argv) == reference
        assert outcome(capsys, cli.main, argv) == reference
    for argv in [["-h"], [], ["flooding"], ["--", "analytic"]]:
        assert outcome(capsys, cli.main, argv) == outcome(capsys, full.parse_args, argv)
    assert outcome(capsys, cli.main, ["flooding"])[2].endswith(
        "satroute: error: argument command: invalid choice: 'flooding' "
        "(choose from 'analytic', 'simulate', 'sweep', 'crossover', 'verify')\n")
    unknown, bad_value = tmp_path / "unknown.cfg", tmp_path / "bad.cfg"
    unknown.write_text("flooding=1\n")
    bad_value.write_text("p=high\n")
    for name in commands:
        for path in (unknown, bad_value, tmp_path / "missing.cfg"):
            reference = outcome(capsys, cli._load_config, cli._build_parser(None)[1][name], str(path))
            assert outcome(capsys, cli._load_config, cli._build_parser(name)[1][name], str(path)) == reference
            assert reference[0] == 2 and str(path) in reference[2]


def test_config_defaults_do_not_reach_a_later_call(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=0.5\n")
    argv = ["analytic", "--policy", "scpr"]
    default_p = scpr.scpr_path_success_prob(ld.from_p_mu(0.9, 0.99), 10, 5)
    file_p = scpr.scpr_path_success_prob(ld.from_p_mu(0.5, 0.99), 10, 5)
    assert run_cli(capsys, *argv) == (0, f"scpr_throughput_bound claim1 {default_p!r}\n")
    assert run_cli(capsys, *argv, "--config", str(cfg)) == (0, f"scpr_throughput_bound claim1 {file_p!r}\n")
    assert run_cli(capsys, *argv) == (0, f"scpr_throughput_bound claim1 {default_p!r}\n")


def test_usage_error_between_calls_leaves_the_next_call_unchanged(capsys):
    argv = ("crossover", "--metric", "throughput", "--u", "0.3")
    assert run_cli(capsys, *argv) == (0, GOLDEN_STDOUT[argv])
    assert_usage_error(capsys, ["crossover", "--x", "9", "--metric", "speed"])
    assert_usage_error(capsys, ["analytic", "--p", "0.1", "--policy", "flooding"])
    assert run_cli(capsys, *argv) == (0, GOLDEN_STDOUT[argv])


def test_readme_flag_table_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in readme.splitlines() if line.startswith("| ")]
    header = next(row for row in rows if row[0] == "flag")
    table = {name: set() for name in header[2:]}
    for row in rows:
        if row[0].startswith("`--"):
            for name, mark in zip(header[2:], row[2:]):
                if mark:
                    table[name].add(row[0].strip("`").split()[0])
    _, commands = cli._build_parser(None)
    parsed = {name: {flag for action in sp._actions for flag in action.option_strings} - {"-h", "--help"}
              for name, sp in commands.items()}
    assert table == parsed


@pytest.mark.parametrize("value", ["0", "-5", "1.5", "many"])
def test_threads_below_one_exits_2(tmp_path, capsys, value):
    """--threads takes an integer >= 1, as a flag and as a config line; the
    config line is checked under a subcommand without the flag too."""
    argv = ["simulate", "--policy", "gr", "--trials", "2"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"threads={value}\n")
    for call in ([*argv, "--threads", value], [*argv, "--config", str(cfg)],
                 ["analytic", "--policy", "gr", "--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            cli.main(call)
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == "" and "error:" in out.err and "threads" in out.err
    assert run_cli(capsys, *argv, "--threads", "2")[0] == 0


@pytest.mark.parametrize("text, code", [("abc", 2), ("1.5", 2), ("0", 0), ("1", 0), ("auto", 0),
                                        ("deterministic", 0)])
def test_config_u_goes_through_the_flag_type(tmp_path, capsys, text, code):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"u={text}\n")
    argv = ["analytic", "--policy", "scpr", "--config", str(cfg)]
    if code:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == code
    else:
        assert cli.main(argv) == 0


def test_crossover_commands(capsys):
    code, out = run_cli(capsys, "crossover", "--metric", "throughput",
                        "--p", "0.9", "--mu", "0.99", "--x", "5", "--y", "5")
    assert code == 0 and out.strip() == "crossover_tc=35"
    code, out = run_cli(capsys, "crossover", "--metric", "delay",
                        "--p", "0.9", "--mu", "0.99", "--x", "5", "--y", "5")
    assert code == 0 and out.strip() == "crossover_tc=30"
    # with no memory SCPR's delay is the same at every t_c >= 1, and below GR's
    code, out = run_cli(capsys, "crossover", "--metric", "delay",
                        "--p", "0.9", "--mu", "0", "--x", "5", "--y", "5")
    assert code == 0 and out.strip() == "crossover_tc=none"


# mu: crossover t_c under auto's coin (throughput, delay) and the farther-axis walk
WHOLE_AXIS = {
    "0.5": (0, 1, 0, 0),
    "0.99": (35, 30, 19, 14),
    "0.999": (386, 318, 224, 156),
    "0.9999": (3898, 3197, 2274, 1585),
    "0.99999": (39019, 31989, 22779, 15869),
    "0.999999999": (390231669, 319909008, 227826516, 158712085),  # MU_MAX
}


@pytest.mark.parametrize("mu, auto_throughput, auto_delay, walk_throughput, walk_delay",
                         [(mu, *row) for mu, row in WHOLE_AXIS.items()], ids=list(WHOLE_AXIS))
def test_crossover_over_the_whole_axis(mu, auto_throughput, auto_delay, walk_throughput, walk_delay,
                                       capsys):
    """Crossovers at p = 0.9 and (5, 5), under auto's coin and the farther-axis
    walk, with no range to give: the search gallops from t_c = 1 and bisects
    the last doubling, so a first win at 3.9e8 slots costs 60 evaluations."""
    for u, throughput, delay in (("auto", auto_throughput, auto_delay),
                                 ("deterministic", walk_throughput, walk_delay)):
        for metric, expected in (("throughput", throughput), ("delay", delay)):
            code, out = run_cli(capsys, "crossover", "--metric", metric, "--mu", mu, "--u", u)
            assert code == 0 and out == f"crossover_tc={expected}\n"


POINT_2_6 = ("--p", "0.9", "--mu", "0.99", "--x", "2", "--y", "6")


@pytest.mark.parametrize("argv, tag", [
    (("analytic", "--policy", "gr"), "claim3"),
    (("analytic", "--policy", "gr", "--buffered", "true"), "eq23"),
    (("analytic", "--policy", "gr", "--buffered", "true"), "eqEK"),
    (("simulate", "--policy", "gr", "--grid", "20x20", "--trials", "200"), None),
    (("crossover", "--metric", "throughput"), None),
    (("crossover", "--metric", "delay"), None),
], ids=["analytic-claim3", "analytic-eq23", "analytic-eqEK", "simulate-gr",
        "crossover-throughput", "crossover-delay"])
def test_u_changes_what_gr_commands_print(argv, tag, capsys):
    """From (2, 6) --u 0.0 and --u 1.0 steer GR's walk apart, so every figure
    of that walk (the row tagged ``tag``, or the whole output) must differ."""
    printed = []
    for u in ("0.0", "1.0"):
        code, out = run_cli(capsys, *argv, *POINT_2_6, "--u", u)
        assert code == 0
        printed.append(out if tag is None else next(line for line in out.splitlines() if f" {tag} " in line))
    assert printed[0] != printed[1]


@pytest.mark.parametrize("u, tie, expected", [("0.0", 0.0, 177), ("1.0", 1.0, 31), ("auto", 6 / 8, 51)])
def test_delay_crossover_scans_the_walk_of_u(u, tie, expected, capsys):
    """crossover --metric delay is the first t_c in [0, 200] at which eq23, at
    the walk w_from_u(params, u) that --u gives, reaches SCPR's recursion at
    depth x + y - 1."""
    params = ld.from_p_mu(0.9, 0.99)
    gr = greedy.gr_delay_exact_component(params, 2, 6, greedy.w_from_u(params, tie))
    scan = next((tc for tc in range(201) if gr <= scpr.scpr_delay_recursion(params, 7, tc)), None)
    assert scan == expected
    code, out = run_cli(capsys, "crossover", "--metric", "delay", *POINT_2_6, "--u", u)
    assert code == 0 and out == f"crossover_tc={scan}\n"


def test_claim4_never_below_eq23(capsys):
    """claim4 bounds the diagonal-bias walk, so a reply prints it only beside
    that walk's eq23, and there it is never below eq23."""
    below = []
    for p in ("0.3", "0.9"):
        for mu in ("0", "0.9", "0.99"):
            for x, y in ((1, 1), (4, 4), (3, 7), (2, 6), (1, 10), (12, 4)):
                for u in ("auto", "0", "0.3", "0.5", "1"):
                    code, out = run_cli(capsys, "analytic", "--policy", "gr", "--buffered", "true", "--p", p,
                                        "--mu", mu, "--x", str(x), "--y", str(y), "--u", u)
                    assert code == 0
                    rows = {claim: float(value) for _, claim, value in (line.split() for line in out.splitlines())}
                    if (x, y, u) == (4, 4, "auto"):
                        assert list(rows) == ["claim4", "eq23", "eqEK"]
                    if "claim4" in rows and rows["claim4"] < rows["eq23"]:
                        below.append((p, mu, x, y, u))
    assert below == []


# ROADMAP item 15(b)'s domain-edge table, its --u slice: every command that takes
# --u, at axis, diagonal and off-diagonal sources, in both regimes.
EDGE_COMMANDS = {
    "analytic": ("analytic", "--policy", "gr"),
    "simulate": ("simulate", "--policy", "gr", "--grid", "20x20", "--trials", "20"),
    "sweep": ("sweep", "--sweep", "mu", "--values", "0.5", "--grid", "20x20", "--trials", "20"),
    "crossover": ("crossover",),
}
EDGE_U = ("auto", "0", "1", "0.3", "deterministic")
EDGE_SOURCES = ((0, 3), (3, 0), (4, 4), (2, 6))


def run_edge_case(capsys, command, u, x, y, buffered):
    regime = (("--metric", "delay" if buffered else "throughput") if command == "crossover"
              else ("--buffered", "true" if buffered else "false"))
    code = cli.main([*EDGE_COMMANDS[command], *regime, "--x", str(x), "--y", str(y), "--u", u])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("buffered", [False, True], ids=["bufferless", "buffered"])
@pytest.mark.parametrize("u", EDGE_U)
@pytest.mark.parametrize("command", list(EDGE_COMMANDS))
def test_u_at_the_edge_of_the_domain(command, u, buffered, capsys):
    """Each case exits 0 with finite numbers: every tie rule has GR rows from
    every source, the deterministic walk's from gr_walk's recursion."""
    for x, y in EDGE_SOURCES:
        code, out, err = run_edge_case(capsys, command, u, x, y, buffered)
        assert code == 0, (x, y)
        assert out and not re.search(r"nan|inf", out, re.IGNORECASE), (x, y)


@pytest.mark.parametrize("buffered", [False, True], ids=["bufferless", "buffered"])
def test_deterministic_keeps_the_axis_rows_and_the_scpr_rows(buffered, capsys):
    """From an axis source every GR move is forced, so the deterministic walk
    keeps eq23 or claim3; SCPR has no tie-break, so its sweep rows never change."""
    for x, y in EDGE_SOURCES:
        auto, det = (run_edge_case(capsys, "sweep", u, x, y, buffered)[1] for u in ("auto", "deterministic"))
        assert [row for row in det.splitlines() if ",scpr," in row] == \
            [row for row in auto.splitlines() if ",scpr," in row]
        if x == 0 or y == 0:
            assert det == auto
            assert run_edge_case(capsys, "analytic", "deterministic", x, y, buffered)[1].split()[1] == \
                ("eq23" if buffered else "claim3")


def run_walk(capsys, *argv):
    """(exit code, stdout, stderr) of a GR command under --u deterministic."""
    code = cli.main([*argv, "--u", "deterministic"])
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_answers(code, out):
    """Exit 0 with finite numbers, and no analytic row at 0.0."""
    assert code == 0 and out and not re.search(r"nan|inf", out, re.IGNORECASE), out
    assert all(float(line.split()[2]) > 0.0 for line in out.splitlines() if not line.startswith("crossover_tc=")), out


def assert_refused(code, out, err):
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv, expected", [
    (("--metric", "throughput"), 19),
    (("--metric", "delay"), 14),
    (("--metric", "throughput", "--mu", "0.999"), 224),
    (("--metric", "delay", "--mu", "0.999"), 156),
], ids=["throughput", "delay", "throughput-mu-0.999", "delay-mu-0.999"])
def test_crossover_of_the_farther_axis_walk(argv, expected, capsys):
    """At p = 0.9 and (5, 5) GR's best greedy rule wins at about half the
    snapshot age of auto's coin (35 and 30 at the defaults)."""
    code, out, _ = run_walk(capsys, "crossover", *argv)
    assert code == 0 and out == f"crossover_tc={expected}\n"


def test_farther_axis_rows_up_to_their_cap(capsys):
    """The recursion takes x*y <= MAX_NODES // 4, the x*y of the farthest
    source any accepted --grid admits; past it the command exits 2 at once."""
    assert cli.MAX_NODES // 4 == 1250 * 2000
    code, out, _ = run_walk(capsys, "analytic", "--policy", "gr", "--x", "1250", "--y", "2000")
    assert_answers(code, out)
    assert out.startswith("gr_walk_throughput walk3 ")
    for argv in (("analytic", "--policy", "gr", "--buffered", "true"), ("crossover", "--metric", "delay")):
        assert_refused(*run_walk(capsys, *argv, "--x", "1250", "--y", "2001"))


def test_farther_axis_rows_where_the_delivery_probability_is_tiny(capsys):
    """At p = 0.3 the walk's T is 3.4e-235 from (400, 400), and below the
    float range from (600, 600), where only the throughput commands refuse."""
    code, out, _ = run_walk(capsys, "analytic", "--policy", "gr", "--p", "0.3", "--x", "400", "--y", "400")
    assert_answers(code, out)
    # the recursion in 30-digit mpmath
    assert float(out.split()[2]) == pytest.approx(3.4139891530981489481e-235, rel=1e-9, abs=0)
    far = ("--p", "0.3", "--x", "600", "--y", "600")
    for argv in (("analytic", "--policy", "gr"), ("crossover", "--metric", "throughput")):
        assert_refused(*run_walk(capsys, *argv, *far))
    for argv in (("analytic", "--policy", "gr", "--buffered", "true"), ("crossover", "--metric", "delay")):
        assert_answers(*run_walk(capsys, *argv, *far)[:2])


@pytest.mark.parametrize("p, x", [("0.01", "100"), ("0.3", "600"), ("1e-6", "515")])
@pytest.mark.parametrize("u", ["auto", "deterministic"])
def test_no_delivery_probability_below_the_normal_float_range_is_printed(p, x, u, tmp_path, capsys,
                                                                          monkeypatch):
    """One rule for both walks: where GR's T is below the normal float range,
    analytic and sweep exit 2 with an error: line, and a sweep does so before
    its first trial and writes no file.  The coin's crossover still answers
    from its bracket's log; the walk's margin is log T, so its crossover is
    refused too."""
    point = ("--p", p, "--x", x, "--y", x, "--u", u)
    out_csv = tmp_path / "rows.csv"
    trials = []
    monkeypatch.setattr(simulator, "estimate", lambda *args, **kwargs: trials.append(args))
    for argv in (("analytic", "--policy", "gr", *point),
                 ("sweep", "--sweep", "x", "--values", f"1,{x}", "--policy", "gr", "--grid", "1201x1201",
                  "--trials", "1", "--out", str(out_csv), *point)):
        code = cli.main(list(argv))
        out, err = capsys.readouterr()
        assert_refused(code, out, err)
        assert "GR's delivery probability is below the normal float range" in err
    assert not out_csv.exists() and trials == []
    code, out = run_cli(capsys, "crossover", "--metric", "throughput", *point)
    if u == "auto":
        assert code == 0 and re.fullmatch(r"crossover_tc=\d+\n", out)
    else:
        assert code == 2 and out == ""
    # a normal T is still printed, however small
    code, out = run_cli(capsys, "analytic", "--policy", "gr", "--p", "0.3", "--x", "400", "--y", "400")
    assert code == 0 and out == "gr_throughput claim3 4.57868096920308e-236\n"


def test_no_scpr_bound_below_the_normal_float_range_is_printed(tmp_path, capsys, monkeypatch):
    """The same rule for SCPR's claim1: at p = 0.01 from (100, 100) with t_c =
    5000 the survival product is 0.0, so analytic and sweep exit 2 with an
    error: line, the sweep before its first trial and with no file written.
    A normal bound is still printed, however small."""
    point = ("--p", "0.01", "--x", "100", "--y", "100")
    out_csv = tmp_path / "rows.csv"
    trials = []
    monkeypatch.setattr(simulator, "estimate", lambda *args, **kwargs: trials.append(args))
    for argv in (("analytic", "--policy", "scpr", "--tc", "5000", *point),
                 ("sweep", "--sweep", "tc", "--values", "5,5000", "--policy", "scpr", "--grid", "201x201",
                  "--trials", "1", "--out", str(out_csv), *point)):
        code = cli.main(list(argv))
        out, err = capsys.readouterr()
        assert_refused(code, out, err)
        assert "SCPR's delivery probability bound is below the normal float range" in err
    assert not out_csv.exists() and trials == []
    code, out = run_cli(capsys, "analytic", "--policy", "scpr", "--p", "1e-6", "--x", "100", "--y", "100",
                        "--tc", "50")
    assert code == 0 and out == "scpr_throughput_bound claim1 3.109502871372526e-131\n"


@pytest.mark.parametrize("argv", [
    ("analytic", "--policy", "gr", "--buffered", "true", "--x", "511", "--y", "511"),
    ("analytic", "--policy", "gr", "--x", "516", "--y", "516"),
    ("crossover", "--metric", "throughput", "--x", "600", "--y", "600"),
    ("crossover", "--metric", "delay", "--x", "600", "--y", "600"),
    ("analytic", "--policy", "gr", "--p", "1e-6", "--x", "515", "--y", "515"),
    ("crossover", "--metric", "throughput", "--p", "1e-6", "--x", "515", "--y", "515"),
], ids=["eq23-511", "claim3-516", "crossover-throughput-600", "crossover-delay-600", "claim3-bracket-past-range",
        "crossover-bracket-past-range"])
def test_coin_rows_past_the_float_range_of_their_coefficients(argv, capsys):
    """Where a coefficient passes the float range the coin rows still answer,
    with finite numbers.  At p = 1e-6 from (515, 515) the bracket T / p^(x+y)
    itself passes it: claim3 read inf there, and the crossover 0.  There T is
    below the normal float range, so claim3 is refused, while the crossover
    answers from the bracket's log."""
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    if argv[:3] == ("analytic", "--policy", "gr") and argv[-1] == "515":
        assert_refused(code, out, err)
        assert "below the normal float range" in err
        return
    assert code == 0 and out and not re.search(r"nan|inf", out, re.IGNORECASE)
    if argv[-1] == "515":
        assert out == "crossover_tc=1045\n"


@pytest.mark.parametrize("xy", ["5", "600"])
def test_gr_commands_evaluate_each_figure_once(xy, monkeypatch, capsys):
    """Each negative-binomial sum of the coin's bracket is evaluated at most
    once per half, inside and past the float range, and eqEK at most once.
    A sum that reads inf past the float range is not counted, as the
    OverflowError it replaces was not: it is the cached (inf,) of a shape
    with a coefficient out of range, or one float loop.  Evaluated apart, claim3 and
    the crossover margin read 4 sums at (5, 5) and 4 at (600, 600), and the
    eq23 and eqEK rows read eqEK twice."""
    from satroute import special_functions

    calls = Counter()

    def counted(name, fn):
        def call(*args):
            value = fn(*args)
            if value != math.inf:
                calls[name] += 1
            return value
        return call

    for name in ("neg_binomial_sum", "log_neg_binomial_sum"):
        wrapped = counted(name, getattr(special_functions, name))
        for module in (special_functions, greedy):
            monkeypatch.setattr(module, name, wrapped)
    monkeypatch.setattr(greedy, "expected_min_tau", counted("eqEK", greedy.expected_min_tau))
    # (command, its sums: the bracket's two halves, or eqEK's one I_w)
    for argv, sums in ((("analytic", "--policy", "gr"), 2), (("crossover", "--metric", "throughput"), 2),
                       (("analytic", "--policy", "gr", "--buffered", "true"), 1),
                       (("crossover", "--metric", "delay"), 1)):
        calls.clear()
        assert run_cli(capsys, *argv, "--x", xy, "--y", xy)[0] == 0
        assert calls["neg_binomial_sum"] + calls["log_neg_binomial_sum"] <= sums, (argv, calls)
        assert calls["eqEK"] <= 1, (argv, calls)


@pytest.mark.parametrize("argv", [("analytic", "--policy", "gr"), ("analytic", "--policy", "gr", "--buffered", "true"),
                                  ("crossover", "--metric", "throughput"), ("crossover", "--metric", "delay")],
                         ids=["claim3", "eq23", "crossover-throughput", "crossover-delay"])
def test_far_field_commands_build_each_shape_once(argv, monkeypatch, capsys):
    """A shape whose coefficient passes the float range is cached like any
    other, so a command that reads it again does not build it again.  When
    the build raised, the cache kept nothing: `crossover --metric throughput`
    at (100000, 100000) made 272 math.comb calls, where 92 build each shape."""
    from satroute import special_functions

    builds, uncached = [], special_functions._neg_binomial_coefficients.__wrapped__

    def build(a, b):
        builds.append((a, b))
        return uncached(a, b)

    recorded = functools.lru_cache(maxsize=256)(build)
    monkeypatch.setattr(special_functions, "_neg_binomial_coefficients", recorded)
    assert run_cli(capsys, *argv, "--x", "600", "--y", "600")[0] == 0
    assert builds and len(builds) == len(set(builds)), builds


@pytest.mark.parametrize("argv, rows", [
    (("--buffered", "true"), [("gr_delay_upper_bound claim4", 95546.5089569918),
                              ("gr_delay_exact_component eq23", 95546.50036327046),
                              ("expected_min_tau eqEK", 59804.559809574595)]),
    (("--p", "0.99999"), [("gr_throughput claim3", 0.9980426059227474)]),
], ids=["eq23-eqEK", "claim3"])
def test_coin_rows_far_past_the_float_range(argv, rows, capsys):
    """At (30000, 30000) the coin rows agree, to a relative 1e-11, with the
    values computed from the logs of every term of each sum, each log from
    its exact integer coefficient."""
    code, out = run_cli(capsys, "analytic", "--policy", "gr", *argv, "--x", "30000", "--y", "30000")
    got = [line.rsplit(" ", 1) for line in out.splitlines()]
    assert code == 0 and [head for head, _ in got] == [head for head, _ in rows]
    assert [float(value) for _, value in got] == pytest.approx([value for _, value in rows], rel=1e-11, abs=0)


def test_crossover_far_past_the_float_range(capsys):
    assert run_cli(capsys, "crossover", "--metric", "throughput", "--x", "30000", "--y", "30000") == (
        0, "crossover_tc=0\n")


def test_analytic_gr_axis_source(capsys):
    """An axis source is all boundary: p^n bufferless, eq23 alone buffered."""
    params = ld.from_p_mu(0.9, 0.99)
    code, out = run_cli(capsys, "analytic", "--policy", "gr", "--x", "0", "--y", "2")
    assert code == 0 and out == f"gr_throughput claim3 {0.9 ** 2!r}\n"
    code, out = run_cli(capsys, "analytic", "--policy", "gr", "--buffered", "true", "--x", "3", "--y", "0")
    assert code == 0
    exact = greedy.gr_delay_exact_component(params, 3, 0, greedy.w_from_u(params, 0.0))  # --u auto: 0/3
    assert out == f"gr_delay_exact_component eq23 {exact!r}\n"


def test_crossover_throughput_axis_source(capsys):
    params = ld.from_p_mu(0.9, 0.5)
    for x, y in ((0, 2), (2, 0)):
        gain = greedy.gr_throughput_and_log_bracket(0.9, x, y, y / (x + y))[1]  # 0.0: GR's T is p^(x+y)
        expected = comparison.throughput_crossover_tc(params, x, y, gain)
        code, out = run_cli(capsys, "crossover", "--metric", "throughput", "--mu", "0.5",
                            "--x", str(x), "--y", str(y))
        assert code == 0
        assert out == f"crossover_tc={expected if expected is not None else 'none'}\n"
    # GR's p^n never reaches SCPR's bound, which exceeds it by a term in mu^t_c
    # at every finite t_c, even where the two products round to the same float
    # and where that term underflows to 0.0 (from about t_c = 160 at mu = 0.01)
    for mu in ("0.5", "0.9", "0.01", "0.001", str(ld.MU_MAX)):
        code, out = run_cli(capsys, "crossover", "--metric", "throughput", "--mu", mu,
                            "--x", "0", "--y", "2")
        assert code == 0 and out == "crossover_tc=none\n"
    # with no memory the snapshot helps only at t_c = 0, where SCPR's first hop
    # is traversed at the snapshot instant: from t_c = 1 both policies need the
    # same n steady-state links ON
    code, out = run_cli(capsys, "crossover", "--metric", "throughput", "--mu", "0",
                        "--x", "0", "--y", "2")
    assert code == 0 and out == "crossover_tc=1\n"


def test_sweep_gr_axis_source_matches_eq23(capsys):
    code, out = run_cli(capsys, "sweep", "--sweep", "mu", "--values", "0.5", "--policy", "gr",
                        "--buffered", "true", "--x", "0", "--y", "2", "--grid", "20x20",
                        "--trials", "2000", "--seed", "3")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [(r[5], r[10]) for r in rows] == [("analytic", "eq23"), ("mc", "")]
    exact, mean, stderr = float(rows[0][6]), float(rows[1][6]), float(rows[1][7])
    params = ld.from_p_mu(0.9, 0.5)
    assert exact == greedy.gr_delay_exact_component(params, 0, 2, greedy.w_from_u(params, 1.0))
    assert abs(mean - exact) < 5 * stderr


def test_verify_suite_exit_codes(capsys):
    code, out = run_cli(capsys, "verify", "crossover")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_invalid_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["analytic", "--policy", "flooding"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["nonsense"])
    assert exc.value.code == 2
    # domain errors are reported as exit code 2 without a traceback
    code = cli.main(["analytic", "--policy", "scpr", "--p", "1.5"])
    assert code == 2


# Exact stdout of short runs: the CSV schema, the float repr of every value
# and the meaning of --u are part of the CLI's contract.  The deterministic
# walk from an interior source prints gr_walk's rows, tagged walk3, walk23
# and walkEK, where a coin walk prints claim3, eq23 and eqEK.
SWEEP_X = ("sweep", "--sweep", "x", "--values", "1,3", "--grid", "20x20", "--trials", "50")
GOLDEN_STDOUT = {
    (*SWEEP_X, "--buffered", "false", "--u", "deterministic"): (
        'param,value,policy,regime,metric,kind,estimate,stderr,trials,seed,claim\n'
        'x,1,scpr,bufferless,throughput,analytic,0.9892757004796772,,,,claim1\n'
        'x,1,scpr,bufferless,throughput,mc,1.0,0.0,50,10805136638887256990,\n'
        'x,1,gr,bufferless,throughput,analytic,0.891,,,,walk3\n'
        'x,1,gr,bufferless,throughput,mc,0.94,0.033926691677251195,50,68349201353214159,\n'
        'x,3,scpr,bufferless,throughput,analytic,0.9572907872663518,,,,claim1\n'
        'x,3,scpr,bufferless,throughput,mc,0.88,0.046423076597919784,50,8300601847187466982,\n'
        'x,3,gr,bufferless,throughput,analytic,0.847648395,,,,walk3\n'
        'x,3,gr,bufferless,throughput,mc,0.82,0.05488392203513871,50,6631279983548901972,\n'
    ),
    (*SWEEP_X, "--buffered", "false", "--u", "0.3"): (
        'param,value,policy,regime,metric,kind,estimate,stderr,trials,seed,claim\n'
        'x,1,scpr,bufferless,throughput,analytic,0.9892757004796772,,,,claim1\n'
        'x,1,scpr,bufferless,throughput,mc,1.0,0.0,50,10805136638887256990,\n'
        'x,1,gr,bufferless,throughput,analytic,0.8910000000000001,,,,claim3\n'
        'x,1,gr,bufferless,throughput,mc,0.94,0.033926691677251195,50,68349201353214159,\n'
        'x,3,scpr,bufferless,throughput,analytic,0.9572907872663518,,,,claim1\n'
        'x,3,scpr,bufferless,throughput,mc,0.88,0.046423076597919784,50,8300601847187466982,\n'
        'x,3,gr,bufferless,throughput,analytic,0.777979352870046,,,,claim3\n'
        'x,3,gr,bufferless,throughput,mc,0.82,0.05488392203513871,50,6631279983548901972,\n'
    ),
    (*SWEEP_X, "--buffered", "true", "--u", "deterministic"): (
        'param,value,policy,regime,metric,kind,estimate,stderr,trials,seed,claim\n'
        'x,1,scpr,buffered,delay,analytic,3.221887552946926,,,,claim2\n'
        'x,1,scpr,buffered,delay,mc,2.2,0.08571428571428572,50,10805136638887256990,\n'
        'x,1,gr,buffered,delay,analytic,13.669177967520495,,,,walk23\n'
        'x,1,gr,buffered,delay,analytic,1.0,,,,walkEK\n'
        'x,1,gr,buffered,delay,mc,5.82,2.2713279402686215,50,68349201353214159,\n'
        'x,3,scpr,buffered,delay,analytic,11.334992107338495,,,,claim2\n'
        'x,3,scpr,buffered,delay,mc,25.48,9.602008293336667,50,8300601847187466982,\n'
        'x,3,gr,buffered,delay,analytic,21.0850964437091,,,,walk23\n'
        'x,3,gr,buffered,delay,analytic,4.887837952539272,,,,walkEK\n'
        'x,3,gr,buffered,delay,mc,29.52,9.10322840243717,50,6631279983548901972,\n'
    ),
    (*SWEEP_X, "--buffered", "true", "--u", "0.3"): (
        'param,value,policy,regime,metric,kind,estimate,stderr,trials,seed,claim\n'
        'x,1,scpr,buffered,delay,analytic,3.221887552946926,,,,claim2\n'
        'x,1,scpr,buffered,delay,mc,2.2,0.08571428571428572,50,10805136638887256990,\n'
        'x,1,gr,buffered,delay,analytic,13.669177967520495,,,,eq23\n'
        'x,1,gr,buffered,delay,analytic,1.0,,,,eqEK\n'
        'x,1,gr,buffered,delay,mc,5.82,2.2713279402686215,50,68349201353214159,\n'
        'x,3,scpr,buffered,delay,analytic,11.334992107338495,,,,claim2\n'
        'x,3,scpr,buffered,delay,mc,25.48,9.602008293336667,50,8300601847187466982,\n'
        'x,3,gr,buffered,delay,analytic,30.753649117233657,,,,eq23\n'
        'x,3,gr,buffered,delay,analytic,3.9716518321961374,,,,eqEK\n'
        'x,3,gr,buffered,delay,mc,26.46,8.523782335684226,50,6631279983548901972,\n'
    ),
    ("analytic", "--policy", "gr", "--u", "0.3"): (
        'gr_throughput claim3 0.6889757970465529\n'
    ),
    ("crossover", "--metric", "throughput", "--u", "0.3"): (
        'crossover_tc=41\n'
    ),
}


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT))
def test_cli_golden_stdout(argv, capsys):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == GOLDEN_STDOUT[argv]


def test_entry_point_installed():
    import shutil

    assert shutil.which("satroute") is not None
