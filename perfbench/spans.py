"""Layer tracing for the traced benchmark run, and the per-layer metrics
computed from its spans.

The tracer wraps every public function of the seven vrjp layers from the
outside. Callers import layer functions by name (``from .betafield import
sample_batch``), so a wrapper is bound into every ``vrjp.*`` namespace and
module-level dict (``verify.CRITERIA``) that holds the original, not only
into the defining module. ``WeightedGraph`` construction and its
``weight_matrix`` method are wrapped on the class.

A span is ``[name, start, end, parent, key, counts]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``key`` the size class the
per-size metrics group by (m, bw, n or the CLI subcommand) and ``counts``
the exact work done, read from the call's arguments and result. Spans stay
in memory until the repeat ends. This module imports nothing from vrjp at
import time, so the stdlib-only parent process can use the metric half.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time

LAYERS = ("graphs", "betafield", "schrodinger", "processes", "harness", "verify", "cli")


def _batch_flops(m: int, n: int) -> int:
    # Per sample, eliminating with r sites left costs 3 r^2 for the scaled
    # outer-product update and 4 r for the pivot sum and eta update.
    return n * sum(3 * r * r + 4 * r for r in range(m))


def _cli_bytes(argv) -> int:
    out = argv[argv.index("--out") + 1]
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(out) for f in fs
    )


# name -> (bound arguments, result) -> (key, counts)
COUNTERS = {
    "betafield.sample_batch": lambda a, r: (
        a["params"].n,
        {
            "site_draws": a["params"].n * a["n_samples"],
            "flops_computed": _batch_flops(a["params"].n, a["n_samples"]),
        },
    ),
    "betafield.sample_banded": lambda a, r: (
        a["band"].shape[1] - 1,
        {"sites": a["band"].shape[0]},
    ),
    "betafield.sample_sequential": lambda a, r: (a["params"].n, {"draws": 1}),
    "betafield.marginal_params": lambda a, r: (None, {"calls": 1}),
    "schrodinger.green_bundle": lambda a, r: (r.m, {"calls": 1}),
    "graphs.WeightedGraph": lambda a, r: (None, {"edges": len(a["self"].edges)}),
    "graphs.build_lattice_box": lambda a, r: (r.n, {}),
    "processes.simulate_vrjp_lattice": lambda a, r: (None, {"jumps": a["n_jumps"]}),
    "processes.simulate_vrjp": lambda a, r: (None, {"jumps": len(r.vertices) - 1}),
    "processes.errw_words": lambda a, r: (None, {"walk_steps": r.size}),
    "processes.vrjp_words": lambda a, r: (None, {"walk_steps": r.size}),
    "processes.markov_words": lambda a, r: (None, {"walk_steps": r.size}),
    "processes.mc_return_probability": lambda a, r: (None, {"chains": a["n"]}),
    "harness.word_chi2": lambda a, r: (
        None,
        {"words": len(a["words_a"]) + len(a["words_b"])},
    ),
    "cli.main": lambda a, r: (a["argv"][0], {"bytes_written": _cli_bytes(a["argv"])}),
}


class Tracer:
    """Records one span per call into a wrapped layer function."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if counter:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[4], rec[5] = counter(bound.arguments, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap the layers' public functions and rebind every reference."""
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"vrjp.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "vrjp" and not modname.startswith("vrjp."):
                continue
            # the originals stay alive in `wrapped`, so an id match is them
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in wrapped:
                            obj[k] = wrapped[id(v)]
        graph_cls = sys.modules["vrjp.graphs"].WeightedGraph
        graph_cls.__post_init__ = self.wrap("graphs.WeightedGraph", graph_cls.__post_init__)
        graph_cls.weight_matrix = self.wrap("graphs.weight_matrix", graph_cls.weight_matrix)


# Per-size classes reported for each layer; a size the workload does not
# reach reads 0, as does every metric of a layer the workload does not call.
BATCH_M = (3, 4, 9, 10, 25)
BANDED_BW = (5, 17, 25, 81, 289)
SEQUENTIAL_M = (9, 81, 121, 225, 729)
GREEN_M = (9, 81, 121, 225, 729)
CRITERIA_IDS = range(1, 13)
CRITERIA_SELF_IDS = range(5, 9)
# (function, rate metric, its unit and scale, work count) for the walkers
WALKERS = (
    ("simulate_vrjp_lattice", "us_per_jump", "us", 1e6, "jumps"),
    ("simulate_vrjp", "us_per_jump", "us", 1e6, "jumps"),
    ("errw_words", "us_per_walk_step", "us", 1e6, "walk_steps"),
    ("vrjp_words", "ns_per_walk_step", "ns", 1e9, "walk_steps"),
    ("markov_words", "ns_per_walk_step", "ns", 1e9, "walk_steps"),
    ("mc_return_probability", "us_per_chain", "us", 1e6, "chains"),
)


def _self_times(spans):
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(bodies, traced_run_s, untraced_run_s, criterion_s):
    """Per-layer metrics from the traced repeats of one run.

    bodies: one span list per traced repeat; traced_run_s and
    untraced_run_s: the median wall time of the body with and without
    tracing;
    criterion_s: per criterion id, the median CheckResult.seconds over the
    traced repeats. Rates pool the calls of all repeats; per-call sizes
    with noisy small calls report the median call; time totals and counts
    are per repeat (counts repeat exactly).
    """
    nb = len(bodies)
    selfs = [_self_times(b) for b in bodies]
    pooled = [s for b in bodies for s in b]

    def match(name, key=None):
        return [s for s in pooled if s[0] == name and (key is None or s[4] == key)]

    def count(name, field, key=None):
        return sum(s[5][field] for s in match(name, key)) // nb

    def rate(name, field, scale, key=None):
        spans = match(name, key)
        work = sum(s[5][field] for s in spans)
        return scale * sum(s[2] - s[1] for s in spans) / work if work else 0.0

    def median_call(name, scale, key=None):
        durs = [s[2] - s[1] for s in match(name, key)]
        return scale * statistics.median(durs) if durs else 0.0

    def per_body(pick, own=False):
        vals = []
        for b, sf in zip(bodies, selfs):
            vals.append(sum(sf[i] if own else s[2] - s[1] for i, s in enumerate(b) if pick(s)))
        return statistics.median(vals)

    def named(name, key=None):
        return lambda s: s[0] == name and (key is None or s[4] == key)

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    sb = "betafield.sample_batch"
    put(f"{sb}.us_per_site_draw", rate(sb, "site_draws", 1e6), "us")
    for m in BATCH_M:
        put(f"{sb}.us_per_site_draw.m{m}", rate(sb, "site_draws", 1e6, m), "us")
    put(f"{sb}.site_draws", count(sb, "site_draws"), "count")
    put(f"{sb}.flops_computed", count(sb, "flops_computed"), "count")
    bd = "betafield.sample_banded"
    for b in BANDED_BW:
        put(f"{bd}.us_per_site.bw{b}", rate(bd, "sites", 1e6, b), "us")
    put(f"{bd}.sites", count(bd, "sites"), "count")
    sq = "betafield.sample_sequential"
    for m in SEQUENTIAL_M:
        put(f"{sq}.ms_per_draw.m{m}", median_call(sq, 1e3, m), "ms")
    put(f"{sq}.draws", count(sq, "draws"), "count")
    mp = "betafield.marginal_params"
    put(f"{mp}.ms_per_call", median_call(mp, 1e3), "ms")
    put(f"{mp}.calls", count(mp, "calls"), "count")
    put("betafield.banded_coupling.ms", 1e3 * per_body(named("betafield.banded_coupling")), "ms")
    gb = "schrodinger.green_bundle"
    for m in GREEN_M:
        put(f"{gb}.ms_per_call.m{m}", median_call(gb, 1e3, m), "ms")
    put(f"{gb}.calls", count(gb, "calls"), "count")
    ci = "schrodinger.check_identities"
    put(f"{ci}.ms", 1e3 * per_body(named(ci)), "ms")
    wg = "graphs.WeightedGraph"
    put(f"{wg}.us_per_edge", rate(wg, "edges", 1e6), "us")
    put(f"{wg}.edges", count(wg, "edges"), "count")
    put("graphs.weight_matrix.ms", 1e3 * per_body(named("graphs.weight_matrix")), "ms")
    lb = "graphs.build_lattice_box"
    put(f"{lb}.ms.n4913", median_call(lb, 1e3, 4913), "ms")
    for fn, metric, unit, scale, work in WALKERS:
        put(f"processes.{fn}.{metric}", rate(f"processes.{fn}", work, scale), unit)
        put(f"processes.{fn}.{work}", count(f"processes.{fn}", work), "count")
    tc = "processes.time_change"
    put(f"{tc}.ms", 1e3 * per_body(named(tc)), "ms")
    wc = "harness.word_chi2"
    put(f"{wc}.ms_per_1e5_words", rate(wc, "words", 1e8), "ms")
    put(f"{wc}.words", count(wc, "words"), "count")
    for fn in ("psi_decay", "conductance_ratio", "vrjp_diffusion"):
        name = f"harness.{fn}_experiment"
        put(f"{name}.self_s", per_body(named(name), own=True), "s")
    for c in CRITERIA_IDS:
        put(f"verify.criterion_{c:02d}.s", criterion_s.get(c, 0.0), "s")
    for c in CRITERIA_SELF_IDS:
        own = per_body(named(f"verify.criterion_{c}"), own=True)
        put(f"verify.criterion_{c:02d}.self_s", own, "s")
    for cmd in ("simulate", "green"):
        put(f"cli.{cmd}.self_s", per_body(named("cli.main", cmd), own=True), "s")
        put(f"cli.{cmd}.bytes_written", count("cli.main", "bytes_written", cmd), "count")
    for layer in LAYERS:
        own = per_body(lambda s: s[0].split(".")[0] == layer, own=True)
        put(f"{layer}.self_s", own, "s")
        put(f"{layer}.self_share", own / traced_run_s, "ratio")
    put("trace.run_s", traced_run_s, "s")
    put("trace.overhead_s", traced_run_s - untraced_run_s, "s")
    put("trace.spans", len(pooled) // nb, "count")
    return out
