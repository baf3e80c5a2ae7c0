"""Command-line entry point.

Subcommands: sample-beta (draw potential fields), green (restricted Green
bundle on a wired box), simulate (reinforced jump walk, reinforced discrete
walk, or the environment-fixed chain), verify (the numbered acceptance
checks), experiment (named desk-scale studies).

Every run writes tidy CSV files plus a manifest.json echoing the config, a
content hash of the inputs, the seed, and the tool version; verify and
experiment also write a summary.json with their result rows. Data files are
byte-identical across reruns of the same config and seed; the manifest's
timestamps are the only varying output. Exit codes: 0 success, 2 usage or
config error, 3 numeric failure (a residual report is printed).

The output directory comes from --out, else the VRJP_OUT environment
variable, else ./vrjp-out.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .betafield import (
    NuParams,
    WiredBand,
    marginal_params,
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
from .graphs import WeightedGraph, build_lattice_box, load_graph
from .harness import (
    ExperimentConfig,
    conductance_ratio_experiment,
    cosh_moment_experiment,
    psi_decay_experiment,
    vrjp_diffusion_experiment,
)
from .processes import QuenchedRates, quenched_mjp, simulate_errw, simulate_vrjp, time_change
from .schrodinger import check_identities, green_bundle
from .streams import stream
from .verify import DEFAULT_SEED, run_suite

USAGE_EXIT = 2
NUMERIC_EXIT = 3

_NUMERIC_ERRORS = (NumericError, FactorizationError)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


@dataclass
class RunManifest:
    """Provenance record emitted next to every run's outputs."""

    command: str
    config: Dict[str, object]
    content_hash: str
    seed: int
    version: str
    started: str
    finished: str = ""
    outputs: List[str] = field(default_factory=list)

    @staticmethod
    def content_digest(config: Dict[str, object], *file_paths: str) -> str:
        h = hashlib.sha256()
        h.update(json.dumps(config, sort_keys=True, separators=(",", ":")).encode())
        for p in file_paths:
            h.update(Path(p).read_bytes())
        return h.hexdigest()

    def write(self, outdir: Path) -> None:
        self.finished = _now()
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "manifest.json").write_text(
            json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"
        )


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _outdir(args) -> Path:
    """The output directory; the writers below create it, so a command that
    is refused before it writes anything leaves no directory behind."""
    path = Path(args.out or os.environ.get("VRJP_OUT") or "vrjp-out")
    if path.exists() and not path.is_dir():
        raise ConfigError(f"output path is not a directory: {path}")
    return path


def _write_columns(path: Path, fieldnames: Sequence[str], columns) -> None:
    """Write one CSV from per-field columns of cells. The csv module writes
    an int or a str as `_fmt` does, so only float cells need `_fmt`'s format
    first."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        writer.writerows(zip(*columns))


def _write_csv(path: Path, fieldnames: Sequence[str], rows: Sequence[Dict]) -> None:
    _write_columns(
        path, fieldnames, [[_fmt(row[k]) for row in rows] for k in fieldnames]
    )


def _write_json_summary(outdir: Path, payload: Dict[str, object]) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "summary.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
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


def _wired_box_params(args) -> Tuple[WeightedGraph, List[int], Dict[str, object]]:
    """Box of radius+1 with the radius-box as retained set (wired marginal)."""
    if args.dim is None or args.radius is None:
        raise ConfigError("this mode needs --dim and --radius")
    w = args.W if args.W is not None else 1.0
    g = build_lattice_box(args.dim, args.radius + 1, w)
    subset = [
        v for v in range(g.n) if int(np.abs(g.coords[v]).max()) <= args.radius
    ]
    return g, subset, {"dim": args.dim, "radius": args.radius, "W": w}


def _root(args, subset: List[int]) -> int:
    """--i0, by default the middle of the retained box, which must hold it."""
    i0 = args.i0 if args.i0 is not None else subset[len(subset) // 2]
    if i0 not in subset:
        raise ConfigError("--i0 must be a retained vertex id")
    return i0


def _cmd_sample_beta(args) -> int:
    outdir = _outdir(args)
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
        g, subset, cfg = _wired_box_params(args)
        params = marginal_params(g, subset)
    cfg.update({"n": args.n, "seed": args.seed})
    beta = sample_batch(params, args.n, rng)
    fields = [f"beta_{k}" for k in range(params.n)]
    rows = [dict(zip(fields, map(float, row))) for row in beta]
    _write_csv(outdir / "beta.csv", fields, rows)
    manifest = RunManifest(
        command="sample-beta",
        config=cfg,
        content_hash=RunManifest.content_digest(cfg, *( [args.graph] if args.graph else [] )),
        seed=args.seed,
        version=__version__,
        started=args.started,
        outputs=["beta.csv"],
    )
    manifest.write(outdir)
    print(f"wrote {args.n} field samples to {outdir / 'beta.csv'}")
    return 0


def _cmd_green(args) -> int:
    outdir = _outdir(args)
    g, subset, cfg = _wired_box_params(args)
    i0 = _root(args, subset)
    cfg.update({"seed": args.seed})
    rng = stream(args.seed, "cli-green")
    # the retained box is row-major, so its field is drawn in band storage
    wired = WiredBand.from_graph(g, subset)
    band, eta = wired.fill()
    beta = sample_banded(band, eta, rng).beta
    gamma = float(rng.gamma(0.5, 1.0))
    bundle = green_bundle(wired.params(), beta, subset, gamma, i0=i0)
    fields = ["vertex", "beta", "psi", "u", "green_root_row"]
    p_root = bundle.position(i0)
    rows = []
    for pos, v in enumerate(subset):
        rows.append(
            {
                "vertex": v,
                "beta": float(beta[pos]),
                "psi": float(bundle.psi[pos]),
                "u": float(bundle.u[pos]),
                "green_root_row": float(bundle.full_g[p_root, pos]),
            }
        )
    rows.append(
        {
            "vertex": "delta",
            "beta": float(bundle.beta_delta),
            "psi": 1.0,
            "u": float(bundle.u[-1]),
            "green_root_row": float(bundle.full_g[p_root, -1]),
        }
    )
    _write_csv(outdir / "green.csv", fields, rows)
    report = check_identities(bundle, beta)
    _write_json_summary(
        outdir,
        {
            "command": "green",
            "gamma": bundle.gamma,
            "psi": [float(x) for x in bundle.psi],
            "hat_g_diagonal": [float(x) for x in np.diag(bundle.hat_g)],
            "residuals": asdict(report),
            "max_residual": report.max_residual(),
        },
    )
    manifest = RunManifest(
        command="green",
        config=cfg,
        content_hash=RunManifest.content_digest(cfg),
        seed=args.seed,
        version=__version__,
        started=args.started,
        outputs=["green.csv", "summary.json"],
    )
    manifest.write(outdir)
    print(f"wrote bundle summary to {outdir / 'green.csv'}")
    return 0


def _cmd_simulate(args) -> int:
    outdir = _outdir(args)
    rng = stream(args.seed, "cli-simulate", args.process)
    if args.process == "vrjp":
        g, cfg = _graph_from_args(args)
        i0 = args.i0 if args.i0 is not None else 0
        if args.horizon is None:
            raise ConfigError("--horizon required for the reinforced jump walk")
        traj = simulate_vrjp(g, i0, args.horizon, rng)
        tc = time_change(traj)
        fields = ["step", "vertex", "entry_time", "transformed_time"]
        vertices = traj.vertices.tolist()
        extra = [
            [format(x, ".17g") for x in times.tolist()]
            for times in (traj.times, tc.times)
        ]
        cfg.update({"process": "vrjp", "horizon": args.horizon, "i0": i0})
    elif args.process == "errw":
        g, cfg = _graph_from_args(args)
        i0 = args.i0 if args.i0 is not None else 0
        if args.steps is None:
            raise ConfigError("--steps required for the reinforced discrete walk")
        traj = simulate_errw(g, args.a, i0, args.steps, rng)
        fields = ["step", "vertex", "entry_time"]
        vertices = traj.vertices.tolist()
        extra = [[""] * len(vertices)]
        cfg.update({"process": "errw", "steps": args.steps, "a": args.a, "i0": i0})
    elif args.process == "quenched":
        if args.graph:
            raise ConfigError(
                "the environment-fixed chain runs on a wired box; use --dim/--radius"
            )
        if args.steps is None:
            raise ConfigError("--steps required for the environment-fixed chain")
        g, subset, cfg = _wired_box_params(args)
        i0 = _root(args, subset)
        params = marginal_params(g, subset)
        beta = sample_batch(params, 1, rng)[0]
        gamma = float(rng.gamma(0.5, 1.0))
        bundle = green_bundle(params, beta, subset, gamma, i0=i0)
        rates = QuenchedRates.from_bundle(bundle)
        traj = quenched_mjp(rates, bundle.position(i0), args.steps, rng)
        fields = ["step", "vertex", "entry_time"]
        labels = [str(v) for v in subset] + ["delta"]
        vertices = [labels[v] for v in traj.vertices.tolist()]
        extra = [[""] * len(vertices)]
        cfg.update({"process": "quenched", "steps": args.steps, "i0": i0})
    else:
        raise ConfigError(f"unknown process {args.process!r}")
    cfg["seed"] = args.seed
    n_rows = len(vertices)
    _write_columns(
        outdir / "trajectory.csv", fields, [range(n_rows), vertices, *extra]
    )
    manifest = RunManifest(
        command="simulate",
        config=cfg,
        content_hash=RunManifest.content_digest(
            cfg, *([args.graph] if args.graph else [])
        ),
        seed=args.seed,
        version=__version__,
        started=args.started,
        outputs=["trajectory.csv"],
    )
    manifest.write(outdir)
    print(f"wrote {n_rows} rows to {outdir / 'trajectory.csv'}")
    return 0


def _cmd_verify(args) -> int:
    outdir = _outdir(args)
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
    _write_csv(outdir / "verify.csv", fields, rows)
    _write_json_summary(outdir, {"command": "verify", "tier": tier, "rows": rows})
    cfg = {"tier": tier, "seed": args.seed, "only": args.only or ""}
    manifest = RunManifest(
        command="verify",
        config=cfg,
        content_hash=RunManifest.content_digest(cfg),
        seed=args.seed,
        version=__version__,
        started=args.started,
        outputs=["verify.csv", "summary.json"],
    )
    manifest.write(outdir)
    hard_failures = [r for r in results if not r.gate_ok]
    if hard_failures:
        for r in hard_failures:
            print(f"FAILED: {r.line()}", file=sys.stderr)
        return NUMERIC_EXIT
    print(f"all {len(results)} checks passed ({tier} tier)")
    return 0


_EXPERIMENTS = ("psi-decay", "cosh-moment", "conductance-ratio", "vrjp-diffusion")


def _run_experiment(config: ExperimentConfig) -> Tuple[List[str], List[Dict]]:
    p = config.params
    name = config.experiment
    if name == "psi-decay":
        rows = psi_decay_experiment(
            int(p.get("dim", 2)),
            float(p.get("w", 0.2)),
            [int(r) for r in p.get("radii", (2, 4, 6))],
            int(p.get("n_samples", 16)),
            config.seed,
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
            int(p.get("i0", 0)),
            int(p.get("i", 0)),
            int(p.get("j", g.n - 1)),
            float(p.get("eta", 0.5)),
            int(p.get("n_samples", 10_000)),
            seed=config.seed,
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
            float(p.get("a", 1.0)),
            [int(x) for x in p.get("ells", (2, 4))],
            int(p.get("n_samples", 50)),
            config.seed,
            dim=int(p.get("dim", 2)),
        )
        rows = [
            {"ell": r.extra["ell"], "mean": r.mean, "stderr": r.stderr, "n": r.n}
            for r in reports
        ]
        return ["ell", "mean", "stderr", "n"], rows
    if name == "vrjp-diffusion":
        out = vrjp_diffusion_experiment(
            int(p.get("dim", 3)),
            float(p.get("w", 10.0)),
            int(p.get("length", 1_000)),
            int(p.get("n_walks", 100)),
            config.seed,
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


def _cmd_experiment(args) -> int:
    outdir = _outdir(args)
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        raw = json.loads(path.read_text())
        config = ExperimentConfig.from_dict(raw)
    elif args.name:
        raw = {"experiment": args.name, "seed": args.seed}
        config = ExperimentConfig.from_dict(raw)
    else:
        raise ConfigError("need --config FILE or --name NAME")
    fields, rows = _run_experiment(config)
    _write_csv(outdir / "experiment.csv", fields, rows)
    _write_json_summary(
        outdir, {"command": "experiment", "config": config.to_dict(), "rows": rows}
    )
    cfg = config.to_dict()
    manifest = RunManifest(
        command="experiment",
        config=cfg,
        content_hash=RunManifest.content_digest(
            cfg, *([args.config] if args.config else [])
        ),
        seed=config.seed,
        version=__version__,
        started=args.started,
        outputs=["experiment.csv", "summary.json"],
    )
    manifest.write(outdir)
    print(f"wrote {len(rows)} rows to {outdir / 'experiment.csv'}")
    return 0


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
    args.started = _now()
    try:
        return args.func(args)
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except (ConfigError, DomainError, ValueError, OSError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except VrjpError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
