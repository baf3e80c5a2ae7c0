"""Command-line entry point.

Subcommands: sample-beta (draw potential fields), green (restricted Green
bundle on a wired box), simulate (reinforced jump walk, reinforced discrete
walk, or the environment-fixed chain), verify (the numbered acceptance
checks), experiment (named desk-scale studies).

Each command body only computes: it returns a Run holding its config and
seed, the input files it read, one CSV as field names and columns, an
optional summary.json payload, and its message and exit code. `main` does
the rest in one place, `_write_run`: it writes the CSV, then summary.json if
there is one, then a manifest.json echoing the config, a content hash of the
config and of every input file (a --graph file, an experiment's --config
file and the graph file that config names), the seed, the tool version, the
run's start and end times and the files written. Data files are
byte-identical across reruns of the same config and seed; the manifest's
timestamps are the only varying output. Exit codes: 0 success, 2 usage or
config error, 3 numeric failure (a residual report is printed).

The CSV format is a contract: comma-separated, lines ended by CRLF, a
header row of field names, floats in the round-trip format .17g, ints as
str() writes them, and a cell quoted (any quote in it doubled) only when it
holds a comma, a quote or a line break; it is the text csv.writer would
write for the same cells.

The output directory comes from --out, else the VRJP_OUT environment
variable, else ./vrjp-out; it is resolved before the command's work starts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .betafield import (
    NuParams,
    WiredBand,
    _draw_bytes,
    sample_banded,
    sample_batch,
)
from .errors import (
    ConfigError,
    DomainError,
    FactorizationError,
    NumericError,
    VrjpError,
)
from .graphs import (
    WeightedGraph,
    _box_side,
    _refuse_beyond_memory,
    _retained_ids,
    build_lattice_box,
    load_graph,
)
from .harness import (
    conductance_ratio_experiment,
    cosh_moment_experiment,
    psi_decay_experiment,
    vrjp_diffusion_experiment,
)
from .processes import QuenchedRates, quenched_mjp, simulate_errw, simulate_vrjp
from .schrodinger import GreenBundle, check_identities, green_bundle
from .streams import stream
from .verify import DEFAULT_SEED, run_suite

USAGE_EXIT = 2
NUMERIC_EXIT = 3

_NUMERIC_ERRORS = (NumericError, FactorizationError)

# CSV cells formatted per block of rows: 2 to 3 MB of text at a time, and a
# peak of about 10 MB with the block's cells as Python objects
_BLOCK_CELLS = 1 << 17
# the characters that make csv.writer quote a cell
_NEEDS_QUOTES = re.compile(r'[,"\r\n]').search


@dataclass
class Run:
    """What a command computed, for `_write_run` to write and report.

    config and seed go to the manifest; the content hash covers config and
    the bytes of every file in inputs. The CSV named csv has a header of
    fields, then one row per cell of columns, which holds one sliceable
    sequence (a list, a range or a numpy array) per field, written in the
    module's CSV format: a float cell in .17g, a None cell blank, any other
    cell as str(), quoted only when it holds a comma, a quote or a line
    break. summary, when given, is written as summary.json. message goes to
    stdout, or to stderr when code, the exit code, is not 0.
    """

    config: Dict[str, object]
    seed: int
    csv: str
    fields: Sequence[str]
    columns: Sequence
    message: str
    inputs: Sequence[str] = ()
    summary: Optional[Dict[str, object]] = None
    code: int = 0


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _outdir(args) -> Path:
    """The output directory; `_write_run` creates it, so a command that is
    refused before it writes anything leaves no directory behind."""
    path = Path(args.out or os.environ.get("VRJP_OUT") or "vrjp-out")
    if path.exists() and not path.is_dir():
        raise ConfigError(f"output path is not a directory: {path}")
    return path


def _cell(x) -> str:
    """A cell as csv.writer writes it: a float in .17g, None blank, anything
    else as str(), quoted with any quote doubled when it holds a comma, a
    quote or a line break."""
    text = "" if x is None else format(x, ".17g") if isinstance(x, float) else str(x)
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES(text) else text


def _block(column) -> Tuple[str, list]:
    """One block of a column as a %-conversion and the cells it converts:
    float and integer arrays, and lists of plain floats or plain ints, go to
    %.17g and %d as they are; plain strings that need no quotes, checked in
    one scan, go to %s as they are; any other cells (bools included, which
    %d would write as 1) are formatted by `_cell` one by one."""
    cells = column.tolist() if isinstance(column, np.ndarray) else list(column)
    kinds = set(map(type, cells))
    if kinds == {float}:
        return "%.17g", cells
    if kinds == {int}:
        return "%d", cells
    if kinds == {str} and not _NEEDS_QUOTES("".join(cells)):
        return "%s", cells
    return "%s", [_cell(x) for x in cells]


def _write_json(path: Path, payload: Dict[str, object]) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_run(command: str, started: str, outdir: Path, run: Run) -> None:
    """Write the run's CSV, then its summary.json if it has one, then the
    manifest.json that records them. The CSV is what csv.writer would write
    for the header and the rows, cells as `_cell` gives them, but a block of
    rows at a time, each block as one row template %-formatted by its cells
    interleaved row by row; so its text is never held whole."""
    outdir.mkdir(parents=True, exist_ok=True)
    n = len(run.columns)
    step = max(1, _BLOCK_CELLS // n)
    with (outdir / run.csv).open("w", newline="") as fh:
        for columns in ([[f] for f in run.fields], run.columns):
            for lo in range(0, len(columns[0]), step):
                convs, blocks = zip(*(_block(c[lo : lo + step]) for c in columns))
                if n == 1 and convs[0] == "%s":
                    # csv quotes a row whose only cell is empty
                    blocks = ([x or '""' for x in blocks[0]],)
                row = (",".join(convs) + "\r\n") * len(blocks[0])
                fh.write(row % tuple(chain.from_iterable(zip(*blocks))))
    outputs = [run.csv]
    if run.summary is not None:
        _write_json(outdir / "summary.json", run.summary)
        outputs.append("summary.json")
    digest = hashlib.sha256(
        json.dumps(run.config, sort_keys=True, separators=(",", ":")).encode()
    )
    for path in run.inputs:
        digest.update(Path(path).read_bytes())
    _write_json(
        outdir / "manifest.json",
        {
            "command": command,
            "config": run.config,
            "content_hash": digest.hexdigest(),
            "seed": run.seed,
            "version": __version__,
            "started": started,
            "finished": _now(),
            "outputs": outputs,
        },
    )


def _graph_from_args(args) -> Tuple[WeightedGraph, Dict[str, object]]:
    """Load --graph FILE or build a box from --dim/--radius/--W."""
    if getattr(args, "graph", None):
        path = Path(args.graph)
        if not path.exists():
            raise ConfigError(f"graph file not found: {path}")
        return load_graph(path), {"graph": str(path)}
    if getattr(args, "dim", None) is None or getattr(args, "radius", None) is None:
        raise ConfigError("need --graph FILE or both --dim and --radius")
    w = args.W if args.W is not None else 1.0
    g = build_lattice_box(args.dim, args.radius, w)
    return g, {"dim": args.dim, "radius": args.radius, "W": w}


def _wired_box_config(args) -> Dict[str, object]:
    """--dim/--radius/--W of a wired box: the radius box retained inside the
    box of radius + 1."""
    if args.dim is None or args.radius is None:
        raise ConfigError("this mode needs --dim and --radius")
    w = args.W if args.W is not None else 1.0
    return {"dim": args.dim, "radius": args.radius, "W": w}


def _cmd_sample_beta(args) -> Run:
    rng = stream(args.seed, "cli-sample-beta")
    if args.graph:
        g, cfg = _graph_from_args(args)
        eta = np.full(g.n, args.eta) if args.eta else np.zeros(g.n)
        params = NuParams(p=g.weight_matrix(), eta=eta)
        cfg["eta"] = args.eta or 0.0
    else:
        if args.eta is not None:
            raise ConfigError(
                "--eta applies to --graph only; a box's boundary vector is its wiring"
            )
        cfg = _wired_box_config(args)
        params = WiredBand.box(args.dim, args.radius, cfg["W"]).params()
    cfg.update({"n": args.n, "seed": args.seed})
    beta = sample_batch(params, args.n, rng).beta
    return Run(
        cfg,
        args.seed,
        "beta.csv",
        [f"beta_{k}" for k in range(params.n)],
        beta.T,
        f"wrote {args.n} field samples to {args.out / 'beta.csv'}",
        inputs=[args.graph] if args.graph else [],
    )


def _wired_box_bundle(
    args, rng, slot_bytes: int
) -> Tuple[Dict, int, np.ndarray, GreenBundle]:
    """(config, root, beta, bundle) of `vrjp green` and the environment-fixed
    chain: the wired box of --dim/--radius (WiredBand.box, no graph built),
    its root --i0, one field drawn from the box's diagonals, gamma, and the
    Green bundle on the draw's kept factor. The bundle's readers hold
    slot_bytes per slot of the (m + 1, rim) neighbour tables beside the
    kept factor: 16 for the tables, 40 with the chain's rate table, its
    kernel and running sums. A box whose draw and tables together do not
    fit in memory is refused, from the geometry, before anything is built
    and before any draw."""
    cfg = _wired_box_config(args)
    side = _box_side(args.dim, args.radius + 1, cfg["W"]) - 2
    m = side**args.dim
    bw = side ** (args.dim - 1)
    # delta's row of the tables, one slot per rim site, is the widest
    rim = m - max(side - 2, 0) ** args.dim
    _refuse_beyond_memory(
        _draw_bytes(m, bw, args.dim) + slot_bytes * (m + 1) * rim,
        f"the band draw of {m} sites with its neighbour tables",
    )
    wired = WiredBand.box(args.dim, args.radius, cfg["W"])
    subset = _retained_ids(args.dim, args.radius)
    # by default the middle of the retained box, which must hold the root
    i0 = args.i0 if args.i0 is not None else int(subset[m // 2])
    if i0 not in subset:
        raise ConfigError("--i0 must be a retained vertex id")
    band, eta = wired.fill()
    sample = sample_banded(band, eta, rng)
    gamma = float(rng.gamma(0.5, 1.0))
    bundle = green_bundle(wired, sample, subset, gamma, i0=i0)
    return cfg, i0, sample.beta, bundle


def _cmd_green(args) -> Run:
    # the identity check reads the neighbour tables, 16 bytes a slot
    cfg, _, beta, bundle = _wired_box_bundle(
        args, stream(args.seed, "cli-green"), 16
    )
    cfg.update({"seed": args.seed})
    report, hat_g_diagonal = check_identities(bundle, beta)
    # one row per retained vertex, then the boundary state delta
    return Run(
        cfg,
        args.seed,
        "green.csv",
        ["vertex", "beta", "psi", "u", "green_root_row"],
        [
            [*bundle.subset, "delta"],
            np.append(beta, bundle.beta_delta),
            np.append(bundle.psi, 1.0),
            bundle.u,
            bundle.kernel_row(bundle.i0_index),
        ],
        f"wrote bundle summary to {args.out / 'green.csv'}",
        summary={
            "command": "green",
            "gamma": bundle.gamma,
            "psi": bundle.psi.tolist(),
            "hat_g_diagonal": hat_g_diagonal.tolist(),
            "residuals": asdict(report),
            "max_residual": report.max_residual(),
        },
    )


def _cmd_simulate(args) -> Run:
    """One walk of --process: the reinforced jump walk or the reinforced
    discrete walk on --graph or a box, or the environment-fixed chain on the
    wired box of `vrjp green`. The chain's rates are formed from the Green
    bundle, and the bundle is dropped before the chain steps."""
    rng = stream(args.seed, "cli-simulate", args.process)
    if args.process == "vrjp":
        g, cfg = _graph_from_args(args)
        i0 = args.i0 if args.i0 is not None else 0
        if args.horizon is None:
            raise ConfigError("--horizon required for the reinforced jump walk")
        traj = simulate_vrjp(g, i0, args.horizon, rng)
        fields = ["step", "vertex", "entry_time", "transformed_time"]
        columns = [traj.vertices, traj.times, traj.transformed_times]
        cfg.update({"process": "vrjp", "horizon": args.horizon, "i0": i0})
    elif args.process == "errw":
        g, cfg = _graph_from_args(args)
        i0 = args.i0 if args.i0 is not None else 0
        if args.steps is None:
            raise ConfigError("--steps required for the reinforced discrete walk")
        traj = simulate_errw(g, args.a, i0, args.steps, rng)
        fields = ["step", "vertex", "entry_time"]
        # a discrete walk leaves entry_time blank
        columns = [traj.vertices, np.full(len(traj.vertices), "", dtype=object)]
        cfg.update({"process": "errw", "steps": args.steps, "a": args.a, "i0": i0})
    elif args.process == "quenched":
        if args.graph:
            raise ConfigError(
                "the environment-fixed chain runs on a wired box; use --dim/--radius"
            )
        if args.steps is None:
            raise ConfigError("--steps required for the environment-fixed chain")
        # the tables and the rate table with its kernel and sums, 16 + 24
        # bytes a slot
        cfg, i0, _, bundle = _wired_box_bundle(args, rng, 40)
        rates = QuenchedRates.from_bundle(bundle)
        labels = np.array([*map(str, bundle.subset), "delta"], dtype=object)
        # the chain reads only the rates: the draw goes before it steps
        del bundle
        traj = quenched_mjp(rates, rates.i0, args.steps, rng)
        fields = ["step", "vertex", "entry_time"]
        columns = [
            labels[traj.vertices], np.full(len(traj.vertices), "", dtype=object)
        ]
        cfg.update({"process": "quenched", "steps": args.steps, "i0": i0})
    else:
        raise ConfigError(f"unknown process {args.process!r}")
    cfg["seed"] = args.seed
    n_rows = len(traj.vertices)
    return Run(
        cfg,
        args.seed,
        "trajectory.csv",
        fields,
        [np.arange(n_rows), *columns],
        f"wrote {n_rows} rows to {args.out / 'trajectory.csv'}",
        inputs=[args.graph] if args.graph else [],
    )


def _cmd_verify(args) -> Run:
    tier = "full" if args.full else "quick"
    only = [int(x) for x in args.only.split(",")] if args.only else None
    results = run_suite(tier=tier, seed=args.seed, only=only)
    for res in results:
        print(res.line())
    # wall-clock timings stay out of the data files so reruns are
    # byte-identical; the manifest carries the run's start and end times
    fields = ["criterion", "name", "status", "detail"]
    rows = [
        {
            "criterion": r.cid,
            "name": r.name,
            "status": "DIAG" if r.diagnostic else ("PASS" if r.passed else "FAIL"),
            "detail": r.detail,
        }
        for r in results
    ]
    hard_failures = [f"FAILED: {r.line()}" for r in results if not r.gate_ok]
    return Run(
        {"tier": tier, "seed": args.seed, "only": args.only or ""},
        args.seed,
        "verify.csv",
        fields,
        [[row[k] for row in rows] for k in fields],
        "\n".join(hard_failures) or f"all {len(results)} checks passed ({tier} tier)",
        summary={"command": "verify", "tier": tier, "rows": rows},
        code=NUMERIC_EXIT if hard_failures else 0,
    )


_EXPERIMENTS = ("psi-decay", "cosh-moment", "conductance-ratio", "vrjp-diffusion")

# the keys an experiment config may hold; any other, `parallelism` included,
# is refused
_CONFIG_KEYS = {
    "experiment",
    "graph",
    "w",
    "a",
    "eta",
    "dim",
    "radii",
    "ells",
    "n_samples",
    "n_walks",
    "length",
    "seed",
    "i0",
    "i",
    "j",
}


def _whole(value) -> int:
    """A count or an index: a JSON integer, not a bool, a float or a string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("needs a whole number")
    return value


def _ints(value) -> List[int]:
    """A sequence of whole numbers: a JSON list of them, not a string."""
    if not isinstance(value, list):
        raise TypeError("needs a list of whole numbers")
    return [_whole(x) for x in value]


def _real(value) -> float:
    """A float key's value: a JSON number, integer or not, but not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("needs a number")
    return float(value)


def _conf(p: Dict[str, object], key: str, default, kind):
    """p[key], or default when it is absent, checked and converted by kind
    (`_whole`, `_ints` or `_real`); a value that kind refuses (true, 2.9 or
    "24" for a count, a number or a string where a list belongs) is a
    ConfigError that names the key."""
    value = p.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"config key {key!r} has a bad value {value!r}: {exc}"
        ) from exc


def _run_experiment(p: Dict[str, object]) -> Tuple[List[str], List[Dict]]:
    name, seed = p["experiment"], p["seed"]
    if name == "psi-decay":
        rows = psi_decay_experiment(
            _conf(p, "dim", 2, _whole),
            _conf(p, "w", 0.2, _real),
            _conf(p, "radii", [2, 4, 6], _ints),
            _conf(p, "n_samples", 16, _whole),
            seed,
        )
        return ["radius", "q25", "median", "q75", "n"], rows
    if name == "cosh-moment":
        g = (
            load_graph(p["graph"])
            if "graph" in p
            else WeightedGraph(n=2, edges=((0, 1, 1.0),))
        )
        rep = cosh_moment_experiment(
            g,
            _conf(p, "i0", 0, _whole),
            _conf(p, "i", 0, _whole),
            _conf(p, "j", g.n - 1, _whole),
            _conf(p, "eta", 0.5, _real),
            _conf(p, "n_samples", 10_000, _whole),
            seed=seed,
        )
        row = {
            "name": rep.name,
            "mean": rep.mean,
            "stderr": rep.stderr,
            "n": rep.n,
            "bound": rep.extra["bound"],
        }
        return ["name", "mean", "stderr", "n", "bound"], [row]
    if name == "conductance-ratio":
        reports = conductance_ratio_experiment(
            _conf(p, "a", 1.0, _real),
            _conf(p, "ells", [2, 4], _ints),
            _conf(p, "n_samples", 50, _whole),
            seed,
            dim=_conf(p, "dim", 2, _whole),
        )
        rows = [
            {"ell": r.extra["ell"], "mean": r.mean, "stderr": r.stderr, "n": r.n}
            for r in reports
        ]
        return ["ell", "mean", "stderr", "n"], rows
    if name == "vrjp-diffusion":
        out = vrjp_diffusion_experiment(
            _conf(p, "dim", 3, _whole),
            _conf(p, "w", 10.0, _real),
            _conf(p, "length", 1_000, _whole),
            _conf(p, "n_walks", 100, _whole),
            seed,
        )
        rows = [
            {"t": t, "msd": m} for t, m in zip(out["t_grid"], out["msd"])
        ]
        rows.append({"t": "slope_ratio", "msd": out["slope_ratio"]})
        rows.append({"t": "isotropy", "msd": out["isotropy"]})
        return ["t", "msd"], rows
    raise ConfigError(
        f"unknown experiment {name!r}; choose from {', '.join(_EXPERIMENTS)}"
    )


def _cmd_experiment(args) -> Run:
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        raw = json.loads(path.read_text())
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "experiment" not in raw:
            raise ConfigError("config needs an 'experiment' name")
        if not isinstance(raw.get("graph", ""), str):
            raise ConfigError(f"config key 'graph' must be a path: {raw['graph']!r}")
        seed = _conf(raw, "seed", 0, _whole)
        config = {**raw, "experiment": str(raw["experiment"]), "seed": seed}
        inputs = [args.config, *([config["graph"]] if "graph" in config else [])]
    elif args.name:
        config = {"experiment": args.name, "seed": args.seed}
        inputs = []
    else:
        raise ConfigError("need --config FILE or --name NAME")
    fields, rows = _run_experiment(config)
    return Run(
        config,
        config["seed"],
        "experiment.csv",
        fields,
        [[row[k] for row in rows] for k in fields],
        f"wrote {len(rows)} rows to {args.out / 'experiment.csv'}",
        inputs=inputs,
        summary={"command": "experiment", "config": config, "rows": rows},
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrjp",
        description="Reinforced walks, random potentials, and their Green"
        " functions on finite graphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, seed_default=0):
        sp.add_argument("--seed", type=int, default=seed_default)
        sp.add_argument("--out", type=str, default=None, help="output directory")

    def graphish(sp):
        sp.add_argument("--graph", type=str, default=None, help="graph JSON file")
        sp.add_argument("--dim", type=int, default=None)
        sp.add_argument("--radius", type=int, default=None)
        sp.add_argument("--W", type=float, default=None, help="edge weight")

    sp = sub.add_parser("sample-beta", help="draw potential-field samples")
    graphish(sp)
    sp.add_argument(
        "--eta", type=float, default=None, help="constant boundary vector (--graph only)"
    )
    sp.add_argument("--n", type=int, default=100)
    common(sp)
    sp.set_defaults(func=_cmd_sample_beta)

    sp = sub.add_parser("green", help="restricted Green bundle on a wired box")
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--radius", type=int, default=1)
    sp.add_argument("--W", type=float, default=1.0)
    sp.add_argument("--i0", type=int, default=None)
    common(sp)
    sp.set_defaults(func=_cmd_green)

    sp = sub.add_parser("simulate", help="run a walk and write its trajectory")
    sp.add_argument(
        "--process", choices=("vrjp", "errw", "quenched"), required=True
    )
    graphish(sp)
    sp.add_argument("--horizon", type=float, default=None)
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--a", type=float, default=1.0, help="initial edge counts")
    sp.add_argument("--i0", type=int, default=None)
    common(sp, seed_default=1)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("verify", help="run the numbered acceptance checks")
    tier = sp.add_mutually_exclusive_group()
    tier.add_argument("--quick", action="store_true", default=True)
    tier.add_argument("--full", action="store_true", default=False)
    sp.add_argument("--only", type=str, default=None, help="comma-separated ids")
    common(sp, seed_default=DEFAULT_SEED)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("experiment", help="run a named experiment")
    sp.add_argument("--config", type=str, default=None, help="JSON config file")
    sp.add_argument("--name", type=str, default=None, choices=_EXPERIMENTS)
    common(sp)
    sp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    # stamped before the work, so a manifest's started-to-finished span
    # covers the whole run
    started = _now()
    try:
        # resolved first, so a bad --out is refused before any work
        args.out = _outdir(args)
        run = args.func(args)
        _write_run(args.command, started, args.out, run)
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except (ConfigError, DomainError, ValueError, OSError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except VrjpError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    print(run.message, file=sys.stderr if run.code else sys.stdout)
    return run.code


if __name__ == "__main__":
    sys.exit(main())
