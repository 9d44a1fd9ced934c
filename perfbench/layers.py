"""Per-layer measurement: a tracer that wraps the public functions of every
``satroute`` module from outside, direct probes of single layers, and the
per-layer metrics derived from both.

A layer is a module of ``src/satroute``.  The tracer replaces each public
function, in every module namespace (and module-level dict) that refers to
it, with a wrapper; nothing under ``src`` is edited.  Most wrappers open a
span; the functions listed in ``COUNT_ONLY`` run many times per trial, so
their wrappers only count calls.  A function the program no longer has is
simply not wrapped, and its metrics read 0.

Busy and self times are thread CPU time (``time.thread_time``): the
``--threads`` pool runs trials in threads that take turns holding the
interpreter lock, so wall time inside a trial would also count the other
thread's turn.  Request time, ``simulator.estimate.busy_s`` and the
``cli.overhead_s`` split use wall time on the requesting thread.  Spans stay
in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import pkgutil
import statistics
import threading
from collections import Counter, defaultdict
from time import perf_counter, thread_time

from workloads import thread_probe_request

# Called per link, per hop or per term: count, do not time.
COUNT_ONLY = {
    "grid_topology": {"normalize", "step", "neighbors", "node_index", "link_index",
                      "direction_between", "hop_distance", "coord_table",
                      "neighbor_id_table", "path_from_nodes"},
    "link_dynamics": {"transition_prob", "sample_next", "sample_k_steps",
                      "steady_state_sample", "from_p_mu", "from_epsilons"},
    "special_functions": {"binom", "beta_fn"},
    "simulator": {"trial_rng"},
}

SPAN_CAP = 50_000
VERIFY_SUITES = ("analytic", "crossover", "ordering", "optimal", "intermediate")
POLICY_REGIMES = ("scpr_bufferless", "scpr_buffered", "gr_bufferless", "gr_buffered")

# Every per-layer metric: (name, unit, better).  BENCHMARK.json lists the same.
LAYER_METRICS = [
    ("simulator.estimate.busy_s", "s", "lower"),
    *[(f"simulator.trials_per_s.{k}", "1/s", "higher") for k in POLICY_REGIMES],
    ("simulator.run_scpr_trial.self_s", "s", "lower"),
    ("simulator.run_gr_trial.busy_s", "s", "lower"),
    ("simulator.aggregate_s", "s", "lower"),
    ("simulator.links_observed_per_trial.snapshot", "count", "lower"),
    ("simulator.links_observed_per_trial.traversal", "count", "lower"),
    ("simulator.wait_observations_per_trial", "count", "lower"),
    ("simulator.scpr_fallback_frac", "ratio", "lower"),
    ("simulator.thread_speedup", "ratio", "higher"),
    ("grid_topology.shortest_connected_hops.calls", "count", "lower"),
    ("grid_topology.shortest_connected_hops.busy_s", "s", "lower"),
    ("grid_topology.shortest_connected_hops.share_of_scpr_trial", "ratio", "lower"),
    ("grid_topology.path_detour_frac", "ratio", "lower"),
    ("grid_topology.random_shortest_path.calls", "count", "lower"),
    ("grid_topology.neighbor_id_table.build_s", "s", "lower"),
    ("link_dynamics.transition_prob.calls", "count", "lower"),
    ("analytic_scpr.scpr_delay_recursion.calls", "count", "lower"),
    ("analytic_scpr.scpr_delay_recursion.busy_s", "s", "lower"),
    *[(f"analytic_scpr.scpr_delay_recursion.s_at_depth_{d}", "s", "lower") for d in (10, 50, 200)],
    ("analytic_greedy.busy_s", "s", "lower"),
    ("special_functions.reg_inc_beta.calls", "count", "lower"),
    ("special_functions.reg_inc_beta.busy_s", "s", "lower"),
    ("comparison.predicate_evals_per_search", "count", "lower"),
    ("comparison.busy_s", "s", "lower"),
    ("optimal_policies.value_iterate_delay.busy_s", "s", "lower"),
    ("optimal_policies.value_iterate_delay.sweeps", "count", "lower"),
    ("optimal_policies.value_iterate_delay.s_per_sweep", "s", "lower"),
    *[(f"optimal_policies.value_iterate_delay.{m}_11x11_p{p}", u, "lower")
      for p in (0.3, 0.9) for m, u in (("s", "s"), ("sweeps", "count"))],
    *[(f"verify.{suite}.busy_s", "s", "lower") for suite in VERIFY_SUITES],
    ("cli.overhead_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
LAYER_UNITS = {name: unit for name, unit, _ in LAYER_METRICS}


def satroute_modules() -> dict[str, object]:
    import satroute

    mods = {}
    for info in pkgutil.iter_modules(satroute.__path__):
        mods[info.name] = importlib.import_module(f"satroute.{info.name}")
    return mods


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []  # frames: [name, module, wall0, cpu0, child_cpu, span_id]
        self.active = Counter()  # name -> frames of that function on the stack
        self.mod_depth = Counter()  # module -> frames of that module on the stack
        self.layer_depth = 0  # frames of non-cli modules on the stack
        self.in_request = False
        self.acc = None
        self.net_state = None  # NetworkState whose links ``shadow`` describes
        self.shadow = {}  # link id -> (on, slot) of its last observation


class _Acc:
    """One thread's accumulators; merged when the run ends (no lost updates)."""

    def __init__(self):
        self.calls = Counter()
        self.busy_cpu = Counter()  # outermost frames of each function
        self.self_cpu = Counter()
        self.busy_wall = Counter()
        self.mod_cpu = Counter()  # outermost frames of each module
        self.counts = Counter()
        self.layer_wall = 0.0  # outermost non-cli frames inside a request
        self.estimates = []  # (policy_regime, trials, wall)


class Tracer:
    def __init__(self):
        self._tls = _ThreadState()
        self._accs: list[_Acc] = []
        self._lock = threading.Lock()
        self._restore: list[tuple] = []
        self._orig: dict[str, object] = {}
        self.spans: list[tuple] = []  # the first SPAN_CAP spans
        self._span_ids = itertools.count()
        self.request_id = -1
        self.request_wall = 0.0

    # -- accumulators ------------------------------------------------------

    def _acc(self) -> _Acc:
        tls = self._tls
        if tls.acc is None:
            tls.acc = _Acc()
            with self._lock:
                self._accs.append(tls.acc)
        return tls.acc

    def merged(self) -> _Acc:
        total = _Acc()
        for acc in self._accs:
            for name in ("calls", "busy_cpu", "self_cpu", "busy_wall", "mod_cpu", "counts"):
                getattr(total, name).update(getattr(acc, name))
            total.layer_wall += acc.layer_wall
            total.estimates.extend(acc.estimates)
        return total

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str, module: str):
        tls = self._tls
        frame = [name, module, perf_counter(), thread_time(), 0.0, next(self._span_ids)]
        tls.stack.append(frame)
        tls.active[name] += 1
        tls.mod_depth[module] += 1
        if module != "cli":
            tls.layer_depth += 1
        return frame

    def _exit(self, frame) -> tuple[float, float]:
        cpu_end, wall_end = thread_time(), perf_counter()
        name, module, wall0, cpu0, child_cpu, span_id = frame
        tls = self._tls
        acc = self._acc()
        tls.stack.pop()
        cpu, wall = cpu_end - cpu0, wall_end - wall0
        if tls.stack:
            tls.stack[-1][4] += cpu
        tls.active[name] -= 1
        tls.mod_depth[module] -= 1
        acc.calls[name] += 1
        acc.self_cpu[name] += cpu - child_cpu
        if not tls.active[name]:
            acc.busy_cpu[name] += cpu
            acc.busy_wall[name] += wall
        if not tls.mod_depth[module]:
            acc.mod_cpu[module] += cpu
        if module != "cli":
            tls.layer_depth -= 1
            if not tls.layer_depth and tls.in_request:
                acc.layer_wall += wall
        if len(self.spans) < SPAN_CAP:
            parent = tls.stack[-1][5] if tls.stack else None
            self.spans.append((span_id, parent, self.request_id, name, wall0, wall_end))
        return cpu, wall

    def request(self, argv: list[str], send):
        """Send one request with the tracer's request bookkeeping around it."""
        self.request_id += 1
        self._tls.in_request = True
        t0 = perf_counter()
        try:
            return send(argv)
        finally:
            self.request_wall += perf_counter() - t0
            self._tls.in_request = False

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, module: str, fn, post=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, module)
            try:
                result = fn(*args, **kwargs)
            finally:
                _, wall = tracer._exit(frame)
            if post is not None:
                post(args, kwargs, result, wall)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        tls = self._tls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            acc = tls.acc or self._acc()
            acc.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _link_on_id(self, fn):
        """Counts link observations at t = 0 and t > 0, and wait observations.

        A wait observation re-observes a link that was seen OFF one slot
        earlier: the buffered wait loops of both policies do exactly that.
        """
        tls = self._tls

        @functools.wraps(fn)
        def wrapper(state, lid, t):
            on = fn(state, lid, t)
            acc = tls.acc or self._acc()
            if state is not tls.net_state:
                tls.net_state, tls.shadow = state, {}
            last = tls.shadow.get(lid)
            if t == 0:
                acc.counts["link_obs.snapshot"] += 1
            else:
                acc.counts["link_obs.traversal"] += 1
                if last is not None and not last[0] and last[1] == t - 1:
                    acc.counts["link_obs.wait"] += 1
            tls.shadow[lid] = (on, t)
            return on

        return wrapper

    def _post_hooks(self) -> dict:
        signatures = {}

        def bound(qual, args, kwargs):
            if qual not in signatures:
                signatures[qual] = inspect.signature(self._orig[qual])
            try:
                return signatures[qual].bind(*args, **kwargs).arguments
            except TypeError:
                return None

        def on_estimate(args, kwargs, result, wall):
            a = bound("simulator.estimate", args, kwargs)
            if a is not None and "policy" in a and "buffered" in a:
                regime = "buffered" if a["buffered"] else "bufferless"
                self._acc().estimates.append((f"{a['policy']}_{regime}", result.trials, wall))

        def on_bfs(args, kwargs, result, wall):
            acc = self._acc()
            if result is None:
                acc.counts["bfs.none"] += 1
                return
            a = bound("grid_topology.shortest_connected_hops", args, kwargs)
            coords = self._orig.get("grid_topology.coord_table")
            dist = self._orig.get("grid_topology.hop_distance")
            if a is None or coords is None or dist is None:
                return
            table = coords(a["spec"])
            shortest = dist(a["spec"], table[a["src_id"]], table[a["dst_id"]])
            acc.counts["bfs.found"] += 1
            acc.counts["bfs.detour"] += len(result) > shortest

        def on_value_iterate(args, kwargs, result, wall):
            self._acc().counts["value_iterate.sweeps"] += getattr(result, "iterations", 0)

        return {"simulator.estimate": on_estimate,
                "grid_topology.shortest_connected_hops": on_bfs,
                "optimal_policies.value_iterate_delay": on_value_iterate}

    def install(self) -> None:
        mods = satroute_modules()
        hooks = self._post_hooks()
        replace: dict[int, object] = {}  # id(original) -> wrapper
        for mod_name, mod in mods.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                fn = inspect.unwrap(obj)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                qual = f"{mod_name}.{name}"
                self._orig[qual] = obj
                if name in COUNT_ONLY.get(mod_name, ()):
                    replace[id(obj)] = self._counted(qual, obj)
                else:
                    replace[id(obj)] = self._timed(qual, mod_name, obj, hooks.get(qual))
        state_cls = getattr(mods.get("simulator"), "NetworkState", None)
        if state_cls is not None and hasattr(state_cls, "link_on_id"):
            orig = state_cls.link_on_id
            state_cls.link_on_id = self._link_on_id(orig)
            self._restore.append((state_cls, "link_on_id", orig))
        import satroute

        for namespace in [*mods.values(), satroute]:
            for name, obj in list(vars(namespace).items()):
                if id(obj) in replace:
                    setattr(namespace, name, replace[id(obj)])
                    self._restore.append((namespace, name, obj))
                elif isinstance(obj, dict):  # e.g. verify.SUITES
                    for key, value in list(obj.items()):
                        if id(value) in replace:
                            obj[key] = replace[id(value)]
                            self._restore.append((obj, key, value))

    def uninstall(self) -> None:
        for target, name, orig in reversed(self._restore):
            if isinstance(target, dict):
                target[name] = orig
            else:
                setattr(target, name, orig)
        self._restore.clear()

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, request, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "request": request,
                                     "name": name, "start": start, "end": end}) + "\n")


# ---------------------------------------------------------------------------
# direct probes (run untraced)


def _median_time(fn, repeats: int) -> tuple[float, object]:
    times, result = [], None
    for _ in range(repeats):
        t0 = perf_counter()
        result = fn()
        times.append(perf_counter() - t0)
    return statistics.median(times), result


def probe_layers(time_request, thread_probe_trials: int, quick: bool) -> dict[str, float]:
    """Single-layer timings taken outside any workload.

    ``time_request(argv)`` sends one CLI request and returns its wall time.
    """
    from satroute import analytic_scpr, grid_topology, link_dynamics, optimal_policies

    out = {}
    params = link_dynamics.from_p_mu(0.9, 0.99)
    for depth in (10, 50, 200):
        out[f"analytic_scpr.scpr_delay_recursion.s_at_depth_{depth}"], _ = _median_time(
            lambda: analytic_scpr.scpr_delay_recursion(params, depth, 5), 1 if quick else 3)
    spec = grid_topology.GridSpec(11, 11)
    for p in (0.3, 0.9):
        s, table = _median_time(lambda: optimal_policies.value_iterate_delay(spec, p), 3)
        out[f"optimal_policies.value_iterate_delay.s_11x11_p{p}"] = s
        out[f"optimal_policies.value_iterate_delay.sweeps_11x11_p{p}"] = table.iterations

    # the uncached builders behind the lazy grid tables
    big = grid_topology.GridSpec(100, 100)
    build = 0.0
    for name in ("coord_table", "neighbor_id_table"):
        fn = getattr(getattr(grid_topology, name, None), "__wrapped__", None)
        if fn is not None:
            build += _median_time(lambda: fn(big), 3)[0]
    out["grid_topology.neighbor_id_table.build_s"] = build

    # one scpr_lowp row through the --threads pool, 1 thread then 2
    t1 = time_request(thread_probe_request(thread_probe_trials, 1))
    t2 = time_request(thread_probe_request(thread_probe_trials, 2))
    out["simulator.thread_speedup"] = t1 / t2
    return out


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    acc = tracer.merged()
    calls, busy, self_cpu, counts = acc.calls, acc.busy_cpu, acc.self_cpu, acc.counts
    out = {}

    est_wall = acc.busy_wall["simulator.estimate"]
    out["simulator.estimate.busy_s"] = est_wall
    by_kind = defaultdict(lambda: [0, 0.0])
    for kind, trials, wall in acc.estimates:
        by_kind[kind][0] += trials
        by_kind[kind][1] += wall
    for kind in POLICY_REGIMES:
        trials, wall = by_kind[kind]
        out[f"simulator.trials_per_s.{kind}"] = trials / wall if wall > 0 else 0.0

    scpr_trials = calls["simulator.run_scpr_trial"]
    gr_trials = calls["simulator.run_gr_trial"]
    trials = scpr_trials + gr_trials
    out["simulator.run_scpr_trial.self_s"] = self_cpu["simulator.run_scpr_trial"]
    out["simulator.run_gr_trial.busy_s"] = busy["simulator.run_gr_trial"]
    trial_cpu = busy["simulator.run_scpr_trial"] + busy["simulator.run_gr_trial"]
    out["simulator.aggregate_s"] = est_wall - trial_cpu if est_wall > 0 else 0.0
    out["simulator.links_observed_per_trial.snapshot"] = _ratio(counts["link_obs.snapshot"], trials)
    out["simulator.links_observed_per_trial.traversal"] = _ratio(counts["link_obs.traversal"], trials)
    out["simulator.wait_observations_per_trial"] = _ratio(counts["link_obs.wait"], trials)
    out["simulator.scpr_fallback_frac"] = _ratio(counts["bfs.none"], scpr_trials)

    bfs = "grid_topology.shortest_connected_hops"
    out[f"{bfs}.calls"] = calls[bfs]
    out[f"{bfs}.busy_s"] = busy[bfs]
    out[f"{bfs}.share_of_scpr_trial"] = _ratio(busy[bfs], busy["simulator.run_scpr_trial"])
    out["grid_topology.path_detour_frac"] = _ratio(counts["bfs.detour"], counts["bfs.found"])
    out["grid_topology.random_shortest_path.calls"] = calls["grid_topology.random_shortest_path"]
    out["link_dynamics.transition_prob.calls"] = counts["link_dynamics.transition_prob"]

    rec = "analytic_scpr.scpr_delay_recursion"
    out[f"{rec}.calls"] = calls[rec]
    out[f"{rec}.busy_s"] = busy[rec]
    out["analytic_greedy.busy_s"] = acc.mod_cpu["analytic_greedy"]
    out["special_functions.reg_inc_beta.calls"] = calls["special_functions.reg_inc_beta"]
    out["special_functions.reg_inc_beta.busy_s"] = busy["special_functions.reg_inc_beta"]

    searches = calls["comparison.throughput_crossover_tc"] + calls["comparison.delay_crossover_tc"]
    evals = calls["comparison.gr_beats_scpr_throughput"] + calls["comparison.gr_beats_scpr_delay"]
    out["comparison.predicate_evals_per_search"] = _ratio(evals, searches)
    out["comparison.busy_s"] = acc.mod_cpu["comparison"]

    vi = "optimal_policies.value_iterate_delay"
    out[f"{vi}.busy_s"] = busy[vi]
    out[f"{vi}.sweeps"] = counts["value_iterate.sweeps"]
    out[f"{vi}.s_per_sweep"] = _ratio(busy[vi], counts["value_iterate.sweeps"])
    for suite in VERIFY_SUITES:
        out[f"verify.{suite}.busy_s"] = busy[f"verify.suite_{suite}"]
    out["cli.overhead_s"] = tracer.request_wall - acc.layer_wall
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
