"""Benchmark of the vrjp package: four workloads, end-to-end and per-layer
metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of gate-batch, lattice-banded, per-env, walkers, or ``all`` to
run the four in turn. Each repeat of a workload is a fresh process
(perfbench/child.py) running on one thread with one BLAS thread; repeats run
one after another until at least two have run and the next one would end
after S seconds. Untraced repeats time set-up and body at the reference
speed of child.SpeedProbe, which removes the drift of a shared machine's
speed; the wall times are kept in the record. With --trace 0 the last line
holds the end-to-end metrics;
with --trace 1 repeats alternate untraced and traced, four at least, and the
last line holds the per-layer metrics and the tracing overhead. The line
before it is the full record: machine, versions, load, seeds, every repeat,
every operation. Traced runs also write their spans to
.perfbench_runs/spans-NAME-seedN.jsonl. The package is imported from the
checkout's src/ directory; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import layer_metrics  # noqa: E402

WORKLOADS = ("gate-batch", "lattice-banded", "per-env", "walkers")
DEFAULT_SEED = 7  # the package's own default (vrjp verify --seed)
SECOND_SEED = 8
MIN_REPEATS = 2
TRACED_MIN_REPEATS = 4  # two untraced, two traced
HARD_LIMIT_S = 165  # a run must end within 180 s
BLAS_THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# A single busy process holds the 1-minute load near 1; another job running
# alongside pushes it towards 2. A CPU-bound repeat that got less than 90%
# of a core while running was also kept waiting.
# On a virtual machine, time the host gave to other guests (steal) slows
# the run without showing in the load.
LOAD_LIMIT = 1.5
CPU_SHARE_LIMIT = 0.9
STEAL_SHARE_LIMIT = 0.05
RUNS_DIR = ".perfbench_runs"
REPEAT_KEYS = (
    "setup_s", "body_s", "setup_wall_s", "body_wall_s", "speed", "setup_speed",
    "probe_samples", "cpu_share", "peak_rss_mb",
)


def _git_sha(root):
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git work tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _steal_s():
    """CPU seconds stolen by the hypervisor so far, summed over CPUs (None
    where /proc/stat is missing)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def _run_repeats(workload, seed, seconds, trace, rundir):
    """Fresh-process repeats until MIN_REPEATS have run and the next would
    end after `seconds`. Returns the parsed child reports (None for a repeat
    that crashed or timed out) with their traced flags."""
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    min_repeats = TRACED_MIN_REPEATS if trace else MIN_REPEATS
    start = time.monotonic()
    repeats = []
    walls = []
    while True:
        elapsed = time.monotonic() - start
        if len(repeats) >= min_repeats and elapsed + statistics.median(walls) > seconds:
            break
        if elapsed >= HARD_LIMIT_S:
            break
        i = len(repeats)
        traced = trace and i % 2 == 1
        cmd = [
            sys.executable,
            os.path.join(HERE, "child.py"),
            ROOT,
            workload,
            str(seed),
            os.path.join(rundir, f"repeat{i}"),
            "1" if traced else "0",
        ]
        t = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, env=env, capture_output=True, text=True,
                timeout=HARD_LIMIT_S - elapsed,
            )
        except subprocess.TimeoutExpired:
            print(f"{workload} repeat {i} timed out", file=sys.stderr)
            repeats.append((traced, None))
            break
        walls.append(time.monotonic() - t)
        report = None
        if proc.returncode == 0:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        else:
            print(proc.stderr[-4000:], file=sys.stderr)
        repeats.append((traced, report))
    return repeats


def _check_ops(repeats):
    """Count operations and failures: an operation fails if it raised,
    failed its own check, or gave output that differs from the first
    repeat's at the same seed. A crashed repeat counts as one failure."""
    attempted = failed = 0
    first = {}
    ops = {}
    for _, rep in repeats:
        if rep is None:
            attempted += 1
            failed += 1
            continue
        for op in rep["ops"]:
            attempted += 1
            same = first.setdefault(op["name"], op["digest"]) == op["digest"]
            if not (op["ok"] and same):
                failed += 1
                print(f"operation {op['name']} failed: {op['detail']}", file=sys.stderr)
            entry = ops.setdefault(op["name"], {"detail": op["detail"], "extra": []})
            entry["extra"].append(op["extra"])
    return attempted, failed, ops


def run_workload(workload, seed, seconds, trace):
    """One benchmark run; prints the summary lines and the record line and
    returns the result object."""
    load_start = os.getloadavg()
    steal_start, wall_start = _steal_s(), time.monotonic()
    rundir = os.path.join(ROOT, RUNS_DIR, f"{workload}-seed{seed}-{os.getpid()}")
    try:
        repeats = _run_repeats(workload, seed, seconds, trace, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    load_end = os.getloadavg()
    nproc = len(os.sched_getaffinity(0))
    steal_share = None
    if steal_start is not None:
        steal_share = (_steal_s() - steal_start) / ((time.monotonic() - wall_start) * nproc)

    attempted, failed, ops = _check_ops(repeats)
    good = [(tr, r) for tr, r in repeats if r is not None]
    plain = [r for tr, r in good if not tr]
    traced = [r for tr, r in good if tr]
    foreign = [r["vrjp_path"] for _, r in good if r["vrjp_path"] != os.path.join(ROOT, "src", "vrjp")]
    correct = failed == 0 and bool(plain) and (not trace or bool(traced)) and not foreign
    if foreign:
        print(f"vrjp imported from {foreign[0]}, not from this checkout", file=sys.stderr)

    cpu_share = min((r["cpu_share"] for _, r in good), default=0.0)
    lines = [f"workload {workload}, seed {seed}, {len(repeats)} repeats in fresh processes"]
    metrics = {}
    if plain:
        q1, run_s, q3 = _quartiles([r["body_s"] for r in plain])
        setup_s = statistics.median(r["setup_s"] for r in plain)
        wall_s = statistics.median(r["body_wall_s"] for r in plain)
        speed = statistics.median(r["speed"] for r in plain)
        rss = statistics.median(r["peak_rss_mb"] for r in plain)
        if not trace:
            metrics = {
                "run_s": {"value": run_s, "unit": "s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": rss, "unit": "MB"},
            }
        lines += [
            f"  run_s        {run_s:10.4f} s      median of {len(plain)}, q1 {q1:.4f}, q3 {q3:.4f}",
            f"  setup_s      {setup_s:10.4f} s      median of {len(plain)}",
            f"  (wall time {wall_s:.4f} s at median speed {speed:.3f} of the reference)",
            f"  peak_rss_mb  {rss:10.1f} MB     median of {len(plain)}",
        ]
    lines.append(
        f"  fail_share   {failed / attempted:10.4f} ratio  {failed} of {attempted} operations failed"
    )
    if trace and plain and traced:
        per_criterion = {}
        for r in traced:
            for op in r["ops"]:
                if op["name"].startswith("criterion_"):
                    cid = int(op["name"].split("_")[1])
                    per_criterion.setdefault(cid, []).append(op["extra"]["seconds"])
        criterion_s = {c: statistics.median(s) for c, s in per_criterion.items()}
        # Traced repeats run without the speed probe, so the overhead
        # compares wall times.
        traced_run_s = statistics.median(r["body_s"] for r in traced)
        bodies = [r["spans"] for r in traced]
        metrics = layer_metrics(bodies, traced_run_s, wall_s, criterion_s)
        lines.append(
            f"  tracing overhead {traced_run_s - wall_s:+.4f} s (traced wall time"
            f" {traced_run_s:.4f} s, median of {len(traced)})"
        )
        lines += [f"  {k:55s} {v['value']:14.6g} {v['unit']}" for k, v in metrics.items()]
        _write_spans(workload, seed, bodies)

    versions = good[0][1]["versions"] if good else {}
    record = {
        "workload": workload,
        "machine": {
            "git_sha": _git_sha(ROOT),
            **versions,
            "nproc": nproc,
            "blas_threads": BLAS_THREADS,
            "loadavg_start": load_start,
            "loadavg_end": load_end,
            "min_cpu_share": cpu_share,
            "steal_share": steal_share,
            "contended": max(load_start[0], load_end[0]) > LOAD_LIMIT
            or cpu_share < CPU_SHARE_LIMIT
            or (steal_share or 0.0) > STEAL_SHARE_LIMIT,
        },
        "seeds": {
            "seed": seed,
            "default_seed": DEFAULT_SEED,
            "second_seed": SECOND_SEED,
            "gate_seed": DEFAULT_SEED,  # workloads.GATE_SEED
        },
        "repeats": [
            None if r is None else {
                "traced": tr,
                **{k: r[k] for k in REPEAT_KEYS},
            }
            for tr, r in repeats
        ],
        "fail_share": failed / attempted,
        "operations": ops,
    }
    if record["machine"]["contended"]:
        lines.append("  CONTENDED: another job shared the machine during this run")
    print("\n".join(lines))
    print("record " + json.dumps(record))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _write_spans(workload, seed, bodies):
    path = os.path.join(ROOT, RUNS_DIR, f"spans-{workload}-seed{seed}.jsonl")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for repeat, spans in enumerate(bodies):
            for name, start, end, parent, key, counts in spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "workload": workload, "repeat": repeat, "key": key, "counts": counts,
                }) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through SystemExit on SIGTERM so subprocess.run kills the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "vrjp", "__init__.py")):
        print(f"no vrjp package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
