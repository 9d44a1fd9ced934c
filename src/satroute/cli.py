"""satroute: analytic evaluation, simulation, sweeps, crossovers, verification.

Subcommands
    analytic   evaluate the closed-form quantity selected by --policy/--buffered
    simulate   Monte Carlo estimate for one configuration
    sweep      CSV over a grid of one parameter (mu | tc | x), both policies
    crossover  smallest t_c >= 0 at which greedy routing wins, or none if it never does
    verify     run named verification suites; exit 1 on any failure

Each subcommand takes only the flags it reads (`satroute <subcommand> -h`
lists them, README has the table), and every one takes --config.  A config
file holds key=value lines that set the running subcommand's flags by their
dest names (u for --u); explicit flags override it.  A key that
only another subcommand takes is ignored.  A key that no subcommand has, or
a value that the key's flag rejects, exits 2 under every subcommand;
required flags must still be given as flags.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys

# Only what parsing and every handler share is imported here.  The closed
# forms, the crossover search, the verification suites and csv are imported
# by the functions that call them, so a command loads (and, without a
# bytecode cache, compiles) only the modules whose code it runs.  The records
# are named tuples, so no command loads dataclasses and the inspect, ast, dis
# and tokenize modules behind it.
from . import link_dynamics as links
from . import simulator
from .grid_topology import GridSpec, NodeCoord
from .simulator import DETERMINISTIC, mix64

CSV_HEADER = ["param", "value", "policy", "regime", "metric", "kind",
              "estimate", "stderr", "trials", "seed", "claim"]

SWEEP_VALUES = {
    "mu": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99],
    "tc": list(range(0, 55, 5)),
    "x": list(range(1, 21)),
}

# --grid's largest N*M.  An SCPR run allocates two pointer lists per node (the
# unbuilt neighbor table and the search's parent buffer, 16 bytes per node, so
# 160 MB here), plus about 105 bytes per node of the planes its searches reach.
MAX_NODES = 10**7

# The subcommands, in the order the help lists them.
COMMANDS = ("analytic", "simulate", "sweep", "crossover", "verify")

# verify.SUITES by name, sorted: written out so that parsing need not load verify.
VERIFY_SUITES = ("analytic", "crossover", "intermediate", "optimal", "ordering", "simulation")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _shared_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    if args.config:
        # A parser of its own: the file's defaults must not reach later calls.
        parser, commands = _build_parser(args.command)
        _load_config(commands[args.command], args.config)
        args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _true_false(text: str) -> bool:
    if text not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"want true or false, got {text!r}")
    return text == "true"


def _workers(text: str) -> int:
    """--threads: an integer >= 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"want an integer >= 1, got {text!r}")
    return n


def _count(text: str) -> int:
    """--tc: a slot count, an integer >= 0 that a float holds."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"want an integer >= 0, got {text!r}")
    try:
        float(n)
    except OverflowError:
        raise argparse.ArgumentTypeError(f"want at most the float range (about 1.8e308), got {text!r}") from None
    return n


def _tie(text: str) -> str | float:
    """--u: 'auto', 'deterministic' or a tie-break probability in [0, 1]."""
    if text in ("auto", DETERMINISTIC):
        return text
    try:
        u = float(text)
    except ValueError:
        u = math.nan
    if not 0.0 <= u <= 1.0:
        raise argparse.ArgumentTypeError(f"want auto, deterministic or a float in [0, 1], got {text!r}")
    return u


def _scale(text: str) -> float:
    """--scale: a trial-count multiplier, a finite float > 0."""
    try:
        scale = float(text)
    except ValueError:
        scale = math.nan
    if not 0.0 < scale < math.inf:
        raise argparse.ArgumentTypeError(f"want a finite float > 0, got {text!r}")
    return scale


def _grid(text: str) -> GridSpec:
    """--grid: NxM with N, M >= 3 and at most MAX_NODES nodes."""
    try:
        n, m = (int(part) for part in text.lower().split("x"))
        spec = GridSpec(n, m)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"want NxM with N, M >= 3, got {text!r}") from exc
    if spec.n_nodes > MAX_NODES:
        raise argparse.ArgumentTypeError(f"want at most {MAX_NODES} nodes (N*M), got {text!r}")
    return spec


# Every option but --config, by dest; each subcommand names the ones it reads.
OPTIONS = {
    "p": ("--p", dict(type=float, default=0.9, help="steady-state ON probability")),
    "mu": ("--mu", dict(type=float, default=0.99, help="memory parameter in [0, 1)")),
    "tc": ("--tc", dict(type=_count, default=5, help="snapshot staleness in slots")),
    "x": ("--x", dict(type=int, default=5, help="source x distance")),
    "y": ("--y", dict(type=int, default=5, help="source y distance")),
    "grid": ("--grid", dict(type=_grid, default="100x100", help="torus size NxM, e.g. 100x100")),
    "policy": ("--policy", dict(choices=["scpr", "gr"])),
    "buffered": ("--buffered", dict(type=_true_false, default="false", metavar="{true,false}")),
    "u": ("--u", dict(type=_tie, default="auto",
                      help="tie-break: float, 'auto' (= y/(x+y)) or 'deterministic' "
                           "(farther axis; from an interior source its rows come from "
                           "the exact walk recursion, tagged walk3, walk23 and walkEK)")),
    "trials": ("--trials", dict(type=int, default=2000)),
    "seed": ("--seed", dict(type=int, default=2024)),
    "threads": ("--threads", dict(type=_workers, default=1,
                                  help="an integer >= 1, accepted and ignored: trials run in one "
                                       "thread, and the output is the same for any value")),
    "out": ("--out", dict(help="CSV output path")),
    "sweep": ("--sweep", dict(choices=["mu", "tc", "x"])),
    "values": ("--values", dict(help="comma-separated grid override")),
    "metric": ("--metric", dict(choices=["throughput", "delay"])),
    "scale": ("--scale", dict(type=_scale, default=1.0,
                              help="trial-count multiplier for the simulation suite")),
}


def _build_parser(command: str | None) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers by name: every subcommand's when
    ``command`` is None, else ``command``'s alone.

    A one-subcommand parser parses that subcommand's command lines as the
    full parser does and prints the same help and usage errors: its metavar
    names every subcommand in the usage line.  The full parser keeps
    argparse's own metavar, so that its errors still name the argument
    "command".
    """
    parser = argparse.ArgumentParser(prog="satroute", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if command is None else "{" + ",".join(COMMANDS) + "}")

    def add(name, handler, summary, dests, required=()):
        if command not in (None, name):
            return None
        sp = sub.add_parser(name, help=summary)
        for dest in dests:
            flag, kwargs = OPTIONS[dest]
            sp.add_argument(flag, dest=dest, required=dest in required, **kwargs)
        sp.add_argument("--config", help="key=value config file")
        sp.set_defaults(handler=handler)
        return sp

    point = ["p", "mu", "tc", "x", "y"]
    monte_carlo = [*point, "grid", "policy", "buffered", "u", "trials", "seed", "threads"]
    add("analytic", cmd_analytic, "evaluate closed-form quantities",
        [*point, "policy", "buffered", "u"], required=["policy"])
    add("simulate", cmd_simulate, "Monte Carlo estimate for one configuration",
        monte_carlo, required=["policy"])
    add("sweep", cmd_sweep, "CSV sweep over mu, tc or x (analytic + MC rows)",
        [*monte_carlo, "out", "sweep", "values"], required=["sweep"])
    add("crossover", cmd_crossover, "smallest t_c where greedy routing wins",
        ["p", "mu", "x", "y", "u", "metric"], required=["metric"])
    sp = add("verify", cmd_verify, "run verification suites", ["scale"])
    if sp is not None:
        sp.add_argument("suite", nargs="?", default="all", choices=[*VERIFY_SUITES, "all"])

    return parser, sub.choices


@functools.lru_cache(maxsize=8)
def _shared_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser ``main`` reuses for every call without --config: the one
    for subcommand ``command``, or the full parser for ``command`` None.

    A cold start builds the flags of the one subcommand its first argument
    names; any other first argument (``-h``, none, a typo) gets the full
    parser, whose help and usage errors list every subcommand.  Parsing
    leaves a parser unchanged, so one built per process and subcommand
    serves any number of calls.
    """
    return _build_parser(command)[0]


def _load_config(sp: argparse.ArgumentParser, path: str) -> None:
    """Make the file's key=value lines the defaults of subcommand parser ``sp``'s flags.

    A key may be the dest of any subcommand's flag, so one file serves every
    subcommand; the keys of other subcommands are ignored.  A key that no
    subcommand has, or a value that the key's flag would reject by its type or
    choices, exits 2 under every subcommand, even where a flag on the command
    line overrides it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [raw.strip() for raw in fh]
    except (OSError, ValueError) as exc:
        sp.error(f"--config {path}: {exc}")

    own = {action.dest for action in sp._actions}
    defaults = {}
    for line in lines:
        if not line or line.startswith("#"):
            continue
        key, sep, text = (part.strip() for part in line.partition("="))
        if not sep or key not in OPTIONS:
            sp.error(f"--config {path}: {line!r} is not key=value with a known key")
        _, kwargs = OPTIONS[key]
        try:
            value = kwargs.get("type", str)(text)
        except (argparse.ArgumentTypeError, ValueError) as exc:
            sp.error(f"--config {path}: {key}={text!r}: {exc}")
        if "choices" in kwargs and value not in kwargs["choices"]:
            sp.error(f"--config {path}: {key}={text!r}, want one of {kwargs['choices']}")
        if key in own:
            defaults[key] = value
    sp.set_defaults(**defaults)


def _check_distance(x: int, y: int, grid: GridSpec | None = None) -> None:
    """Reject a source the closed forms do not describe; they take x + y hops.

    Both policies need x, y >= 0 and x + y >= 1.  On a ``grid`` the source
    must also lie at most half way round each axis (x <= M//2, y <= N//2):
    farther out a trial takes the shorter way round, which is not x + y hops.
    """
    if x < 0 or y < 0 or x + y < 1:
        raise ValueError(f"x={x}, y={y}: need x, y >= 0 and x + y >= 1")
    if grid is not None and (x > grid.m_planes // 2 or y > grid.n_per_plane // 2):
        raise ValueError(f"x={x}, y={y}: on a {grid.n_per_plane}x{grid.m_planes} grid "
                         f"need x <= {grid.m_planes // 2} and y <= {grid.n_per_plane // 2}")


def _tie_u(u: str | float, x: int, y: int) -> str | float:
    """The tie-break --u names: a float, y/(x+y) for 'auto', or 'deterministic'."""
    return y / (x + y) if u == "auto" else u


def _labels(buffered: bool) -> tuple[str, str]:
    """(regime, metric) of a run."""
    return ("buffered", "delay") if buffered else ("bufferless", "throughput")


def _analytic_rows(policy: str, buffered: bool, params, x: int, y: int, tc: int, u_arg: str | float):
    """(quantity, claim tag, value) triples for one configuration.  No delivery probability
    below the normal float range is printed: not GR's, from either walk, nor SCPR's bound."""
    if policy == "gr":
        rows = _gr_figures(buffered, params, x, y, u_arg)[0]
        if not buffered:
            _check_delivery(rows[0][2], "GR's delivery probability", params, x, y)
        return rows
    from . import analytic_scpr as scpr  # SCPR's closed forms; GR commands never load them

    if buffered:
        return [("scpr_delay_lower_bound", "claim2", scpr.scpr_delay_recursion(params, x + y, tc))]
    bound = scpr.scpr_path_success_prob(params, x + y, tc)
    _check_delivery(bound, f"at t_c={tc} SCPR's delivery probability bound", params, x, y)
    return [("scpr_throughput_bound", "claim1", bound)]


def _gr_figures(buffered: bool, params, x: int, y: int, u_arg: str | float):
    """GR's (quantity, claim tag, value) rows for --u, and the value its crossover
    compares: the log margin log(T / p^(x+y)) of its delivery probability T, or
    its mean delay.  The farther-axis walk from an interior source takes gr_walk's
    recursion; coins and axis sources, where every move is forced, the paper's forms.
    A coin's margin is its bracket's log, also where T is not a normal float; the walk's is log T."""
    from . import analytic_greedy as greedy  # GR's closed forms; SCPR commands never load them

    tie = _tie_u(u_arg, x, y)
    if tie == DETERMINISTIC and x and y:
        if x * y > MAX_NODES // 4:  # the x*y of the farthest source any --grid admits
            raise ValueError(f"x={x}, y={y}: --u deterministic takes x*y <= {MAX_NODES // 4} from an interior source")
        interior, delivered = greedy.gr_walk(params, x, y, tie)
        if buffered:
            delay = greedy.gr_delay_of_interior_moves(params, x, y, interior)
            return [("gr_walk_delay", "walk23", delay), ("gr_walk_interior_moves", "walkEK", interior)], delay
        _check_delivery(delivered, "GR's delivery probability", params, x, y)
        return [("gr_walk_throughput", "walk3", delivered)], math.log(delivered) - (x + y) * math.log(params.p)
    u = 0.5 if tie == DETERMINISTIC else tie  # from an axis source any u gives the forced walk
    if not buffered:
        delivered, gain = greedy.gr_throughput_and_log_bracket(params.p, x, y, u)
        return [("gr_throughput", "claim3", delivered)], gain
    w = greedy.w_from_u(params, u)  # the walk's vertical move probability
    if not (x and y):  # every move is on the boundary; claim4 and eqEK describe interior sources only
        delay = greedy.gr_delay_exact_component(params, x, y, w)
        return [("gr_delay_exact_component", "eq23", delay)], delay
    interior = greedy.expected_min_tau(x, y, w)
    delay = greedy.gr_delay_of_interior_moves(params, x, y, interior)
    rows = [("gr_delay_exact_component", "eq23", delay), ("expected_min_tau", "eqEK", interior)]
    if abs(w - y / (x + y)) <= 1e-12:  # claim4 bounds the diagonal-bias walk only
        rows.insert(0, ("gr_delay_upper_bound", "claim4", greedy.gr_delay_upper_bound(params, x, y)))
    return rows, delay


def _check_delivery(delivered: float, what: str, params, x: int, y: int) -> None:
    """Refuse a delivery probability below the normal float range: no value printed, no log taken."""
    if not delivered >= sys.float_info.min:
        raise ValueError(f"x={x}, y={y}, p={params.p}: {what} is below the normal float range")


def _estimate(args, params, policy: str, x: int, y: int, tc: int, seed: int) -> simulator.Estimate:
    return simulator.estimate(args.grid, params, policy, src=NodeCoord(x, y), buffered=args.buffered,
                              t_c=tc, tie=_tie_u(args.u, x, y), trials=args.trials, master_seed=seed)


def _write_csv(rows: list[list[str]], path: str | None) -> None:
    """The rows under CSV_HEADER, to stdout or to ``path``.  A ``path`` that
    cannot be opened is a ValueError, so the run exits 2."""
    import csv

    try:
        out = open(path, "w", encoding="utf-8", newline="") if path else None
    except OSError as exc:
        raise ValueError(f"--out {path}: {exc}") from None
    with out or contextlib.nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)


def cmd_analytic(args) -> int:
    _check_distance(args.x, args.y)
    params = links.from_p_mu(args.p, args.mu)
    for name, claim, value in _analytic_rows(args.policy, args.buffered, params, args.x, args.y, args.tc, args.u):
        print(f"{name} {claim} {value!r}")
    return 0


def cmd_simulate(args) -> int:
    _check_distance(args.x, args.y, args.grid)
    params = links.from_p_mu(args.p, args.mu)
    est = _estimate(args, params, args.policy, args.x, args.y, args.tc, args.seed)
    regime, metric = _labels(args.buffered)
    print(f"policy={args.policy} regime={regime} "
          f"metric={metric} mean={est.mean!r} stderr={est.stderr!r} "
          f"trials={est.trials} seed={est.seed}")
    return 0


def cmd_sweep(args) -> int:
    swept = args.sweep
    if args.values is not None:
        flag, kwargs = OPTIONS[swept]
        values = []
        for tok in filter(str.strip, args.values.split(",")):
            try:
                values.append(kwargs["type"](tok))
            except (argparse.ArgumentTypeError, ValueError) as exc:
                raise ValueError(f"--values token {tok.strip()!r} is not a valid {flag}: {exc}") from None
        if not values:
            raise ValueError(f"--values {args.values!r} names no value")
    else:
        values = SWEEP_VALUES[swept]
    for x, y in [(v, v) for v in values] if swept == "x" else [(args.x, args.y)]:
        _check_distance(x, y, args.grid)
    # a directory, or a file in a missing one, fails before the first trial and
    # touches no file; _write_csv's open after the run reports any other failure
    if args.out and (os.path.isdir(args.out) or not os.path.isdir(os.path.dirname(args.out) or ".")):
        raise ValueError(f"--out {args.out}: not a file in an existing directory")
    # every swept mu (and --p) is checked before the first trial runs
    all_params = [links.from_p_mu(args.p, value if swept == "mu" else args.mu) for value in values]
    policies = [args.policy] if args.policy else ["scpr", "gr"]

    # every closed-form row is built before the first trial, so a row that is
    # refused (a GR delivery probability below the normal range) exits 2 at once
    runs = []
    for value, params in zip(values, all_params):
        tc, x, y = args.tc, args.x, args.y
        if swept == "tc":
            tc = value
        elif swept == "x":
            x = y = value  # distance sweeps keep x == y
        runs += [(value, params, policy, x, y, tc, _analytic_rows(policy, args.buffered, params, x, y, tc, args.u))
                 for policy in policies]
    rows = []
    for mc_counter, (value, params, policy, x, y, tc, analytic) in enumerate(runs, 1):
        labels = [swept, repr(value), policy, *_labels(args.buffered)]
        rows += [[*labels, "analytic", repr(v), "", "", "", claim] for _, claim, v in analytic]
        est = _estimate(args, params, policy, x, y, tc, mix64(args.seed ^ mix64(mc_counter)))
        rows.append([*labels, "mc", repr(est.mean), repr(est.stderr), str(est.trials), str(est.seed), ""])
    _write_csv(rows, args.out)
    if args.out:
        print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def cmd_crossover(args) -> int:
    from . import comparison  # both policies' closed forms; only crossover searches them

    params = links.from_p_mu(args.p, args.mu)
    x, y = args.x, args.y
    _check_distance(x, y)
    throughput = args.metric == "throughput"
    gr = _gr_figures(not throughput, params, x, y, args.u)[1]  # the walk of analytic's rows
    search = comparison.throughput_crossover_tc if throughput else comparison.delay_crossover_tc
    tc = search(params, x, y, gr)
    print(f"crossover_tc={tc if tc is not None else 'none'}")  # none: GR never wins, at any t_c
    return 0


def cmd_verify(args) -> int:
    from . import verify  # the suites load every other module; only verify runs them

    names = sorted(verify.SUITES) if args.suite == "all" else [args.suite]
    results = []
    for name in names:
        results.extend(verify.suite_simulation(args.scale) if name == "simulation"
                       else verify.SUITES[name]())
    for res in results:
        print(res.line())
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
