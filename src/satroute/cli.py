"""satroute: analytic evaluation, simulation, sweeps, crossovers, verification.

Subcommands
    analytic   evaluate the closed-form quantity selected by --policy/--buffered
    simulate   Monte Carlo estimate for one configuration
    sweep      CSV over a grid of one parameter (mu | tc | x), both policies
    crossover  smallest t_c at which greedy routing beats the centralized policy
    verify     run named verification suites; exit 1 on any failure

Common flags: --p --mu --tc --x --y --grid NxM --policy --buffered --u
--trials --seed --threads --out --config.  A config file holds key=value
lines that set the running subcommand's flags by their dest names (tc_min
for --tc-min); explicit flags override it.  A key that no subcommand has, or
an invalid value, exits 2; required flags must still be given as flags.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import sys
from typing import Optional

from . import analytic_greedy as greedy
from . import analytic_scpr as scpr
from . import comparison, simulator, verify
from . import link_dynamics as links
from .grid_topology import GridSpec, NodeCoord
from .simulator import DETERMINISTIC, _mix64

CSV_HEADER = ["param", "value", "policy", "regime", "metric", "kind",
              "estimate", "stderr", "trials", "seed", "claim"]

SWEEP_VALUES = {
    "mu": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99],
    "tc": list(range(0, 55, 5)),
    "x": list(range(1, 21)),
}


def main(argv: Optional[list[str]] = None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        _load_config(commands, args.command, args.config)
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


def _grid(text: str) -> GridSpec:
    try:
        n, m = (int(part) for part in text.lower().split("x"))
        return GridSpec(n, m)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"want NxM with N, M >= 3, got {text!r}") from exc


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(prog="satroute", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, policy_required=False):
        sp.add_argument("--p", type=float, default=0.9, help="steady-state ON probability")
        sp.add_argument("--mu", type=float, default=0.99, help="memory parameter in [0, 1)")
        sp.add_argument("--tc", type=int, default=5, help="snapshot staleness in slots")
        sp.add_argument("--x", type=int, default=5, help="source x distance")
        sp.add_argument("--y", type=int, default=5, help="source y distance")
        sp.add_argument("--grid", type=_grid, default="100x100", help="torus size NxM, e.g. 100x100")
        sp.add_argument("--policy", choices=["scpr", "gr"], required=policy_required)
        sp.add_argument("--buffered", type=_true_false, default="false", metavar="{true,false}")
        sp.add_argument("--u", type=_tie, default="auto",
                        help="tie-break: float, 'auto' (= y/(x+y)) or 'deterministic'")
        sp.add_argument("--trials", type=int, default=2000)
        sp.add_argument("--seed", type=int, default=2024)
        sp.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored: trials run in one thread, and the "
                             "output is the same for any value")
        sp.add_argument("--out", help="CSV output path")
        sp.add_argument("--config", help="key=value config file")

    sp = sub.add_parser("analytic", help="evaluate closed-form quantities")
    common(sp, policy_required=True)
    sp.set_defaults(handler=cmd_analytic)

    sp = sub.add_parser("simulate", help="Monte Carlo estimate for one configuration")
    common(sp, policy_required=True)
    sp.set_defaults(handler=cmd_simulate)

    sp = sub.add_parser("sweep", help="CSV sweep over mu, tc or x (analytic + MC rows)")
    common(sp)
    sp.add_argument("--sweep", choices=["mu", "tc", "x"], required=True)
    sp.add_argument("--values", help="comma-separated grid override")
    sp.set_defaults(handler=cmd_sweep)

    sp = sub.add_parser("crossover", help="smallest t_c where greedy routing wins")
    common(sp)
    sp.add_argument("--metric", choices=["throughput", "delay"], required=True)
    sp.add_argument("--tc-min", dest="tc_min", type=int, default=0)
    sp.add_argument("--tc-max", dest="tc_max", type=int, default=200)
    sp.set_defaults(handler=cmd_crossover)

    sp = sub.add_parser("verify", help="run verification suites")
    sp.add_argument("suite", nargs="?", default="all", choices=[*sorted(verify.SUITES), "all"])
    sp.add_argument("--scale", type=float, default=1.0,
                    help="trial-count multiplier for the simulation suite")
    sp.add_argument("--config", help="key=value config file")
    sp.set_defaults(handler=cmd_verify)

    return parser, sub.choices


def _load_config(commands: dict[str, argparse.ArgumentParser], command: str, path: str) -> None:
    """Make the file's key=value lines the defaults of ``command``'s flags.

    A key may be the dest of any subcommand's flag, so one file serves every
    subcommand; the keys of other subcommands are ignored.  A key that no
    subcommand has, or a value that the flag's type or choices reject, exits
    2, even where a flag on the command line overrides it.
    """
    sp = commands[command]
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [raw.strip() for raw in fh]
    except (OSError, ValueError) as exc:
        sp.error(f"--config {path}: {exc}")

    def flags(parser):
        return {a.dest: a for a in parser._actions if a.option_strings and a.dest not in ("help", "config")}

    own = flags(sp)
    known = {dest for parser in commands.values() for dest in flags(parser)}
    defaults = {}
    for line in lines:
        if not line or line.startswith("#"):
            continue
        key, sep, text = (part.strip() for part in line.partition("="))
        if not sep or key not in known:
            sp.error(f"--config {path}: {line!r} is not key=value with a known key")
        action = own.get(key)
        if action is None:
            continue
        try:
            value = action.type(text) if action.type else text
        except (argparse.ArgumentTypeError, ValueError) as exc:
            sp.error(f"--config {path}: {key}={text!r}: {exc}")
        if action.choices is not None and value not in action.choices:
            sp.error(f"--config {path}: {key}={text!r}, want one of {list(action.choices)}")
        defaults[key] = value
    sp.set_defaults(**defaults)


def _tie_u(u: str | float, x: int, y: int) -> float:
    """The tie-break probability --u names: a float, or y/(x+y) for 'auto'.

    The deterministic tie-break has no closed form; its analytic reference is
    the diagonal-steering y/(x+y) too.
    """
    return greedy.recommended_u(x, y).u if u in ("auto", DETERMINISTIC) else u


def _labels(buffered: bool) -> tuple[str, str]:
    """(regime, metric) of a run."""
    return ("buffered", "delay") if buffered else ("bufferless", "throughput")


def _analytic_rows(policy: str, buffered: bool, params, x: int, y: int, tc: int, u_arg: str | float):
    """(quantity, claim tag, value) triples for one configuration."""
    if policy == "scpr":
        if buffered:
            return [("scpr_delay_lower_bound", "claim2", scpr.scpr_delay_lower_bound(params, x, y, tc))]
        return [("scpr_throughput_bound", "claim1", scpr.scpr_throughput_bound(params, x, y, tc))]
    u = _tie_u(u_arg, x, y)  # read in both regimes, so x = y = 0 exits 2 in either
    if buffered:
        w = y / (x + y)
        return [
            ("gr_delay_upper_bound", "claim4", greedy.gr_delay_upper_bound(params, x, y).value),
            ("gr_delay_exact_component", "eq23", greedy.gr_delay_exact_component(params, x, y, w)),
            ("expected_min_tau", "eqEK", greedy.expected_min_tau(x, y, w)),
        ]
    return [("gr_throughput", "claim3", greedy.gr_throughput(params.p, x, y, u))]


def _estimate(args, params, policy: str, x: int, y: int, tc: int, seed: int) -> simulator.Estimate:
    tie = DETERMINISTIC if args.u == DETERMINISTIC else greedy.TieBreak(_tie_u(args.u, x, y))
    return simulator.estimate(args.grid, params, policy, src=NodeCoord(x, y), buffered=args.buffered,
                              t_c=tc, tie=tie, trials=args.trials, master_seed=seed)


def _mc_row(param: str, value: str, policy: str, buffered: bool, est: simulator.Estimate) -> list[str]:
    return [param, value, policy, *_labels(buffered), "mc", repr(est.mean), repr(est.stderr),
            str(est.trials), str(est.seed), ""]


def _write_csv(rows: list[list[str]], path: Optional[str] = None, append: bool = False) -> None:
    """The rows under CSV_HEADER, to stdout or to ``path``; appending to a file
    that exists writes the rows alone."""
    header = not (append and os.path.exists(path))
    with (open(path, "a" if append else "w", encoding="utf-8", newline="") if path
          else contextlib.nullcontext(sys.stdout)) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header:
            writer.writerow(CSV_HEADER)
        writer.writerows(rows)


def cmd_analytic(args) -> int:
    params = links.from_p_mu(args.p, args.mu)
    for name, claim, value in _analytic_rows(args.policy, args.buffered, params,
                                             args.x, args.y, args.tc, args.u):
        print(f"{name} {claim} {value!r}")
    return 0


def cmd_simulate(args) -> int:
    params = links.from_p_mu(args.p, args.mu)
    est = _estimate(args, params, args.policy, args.x, args.y, args.tc, args.seed)
    regime, metric = _labels(args.buffered)
    print(f"policy={args.policy} regime={regime} "
          f"metric={metric} mean={est.mean!r} stderr={est.stderr!r} "
          f"trials={est.trials} seed={est.seed}")
    if args.out:
        _write_csv([_mc_row("", "", args.policy, args.buffered, est)], args.out, append=True)
        print(f"wrote {args.out}")
    return 0


def cmd_sweep(args) -> int:
    swept = args.sweep
    if args.values is not None:
        conv = float if swept == "mu" else int
        values = [conv(tok) for tok in args.values.split(",") if tok.strip()]
    else:
        values = SWEEP_VALUES[swept]
    policies = [args.policy] if args.policy else ["scpr", "gr"]

    rows = []
    mc_counter = 0
    for value in values:
        mu, tc, x, y = args.mu, args.tc, args.x, args.y
        if swept == "mu":
            mu = value
        elif swept == "tc":
            tc = value
        else:
            x = y = value  # distance sweeps keep x == y
        params = links.from_p_mu(args.p, mu)
        for policy in policies:
            for _, claim, analytic_value in _analytic_rows(policy, args.buffered, params, x, y, tc, args.u):
                rows.append([swept, repr(value), policy, *_labels(args.buffered),
                             "analytic", repr(analytic_value), "", "", "", claim])
            mc_counter += 1
            est = _estimate(args, params, policy, x, y, tc, _mix64(args.seed ^ _mix64(mc_counter)))
            rows.append(_mc_row(swept, repr(value), policy, args.buffered, est))
    _write_csv(rows, args.out)
    if args.out:
        print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def cmd_crossover(args) -> int:
    params = links.from_p_mu(args.p, args.mu)
    x, y, lo, hi = args.x, args.y, args.tc_min, args.tc_max
    if args.metric == "throughput":
        tc = comparison.throughput_crossover_tc(params, x, y, lo, hi, _tie_u(args.u, x, y))
    else:
        tc = comparison.delay_crossover_tc(params, x, y, lo, hi)
    print(f"crossover_tc={tc if tc is not None else 'none'}")
    return 0


def cmd_verify(args) -> int:
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
