"""One repeat of a workload in a fresh process.

Usage: python3 perfbench/child.py ROOT WORKLOAD SEED OUTDIR TRACED

Times set-up from just before ``import vrjp`` to the first operation, runs
the workload's operations once, and prints one JSON object on stdout: the
timings, peak resident memory, CPU time, each operation's outcome and
output digest, the versions of the numeric stack and, when TRACED is 1, the
layer spans. Whatever the program prints goes to stderr.

An untraced repeat also samples the machine's speed while it runs (see
``SpeedProbe``) and reports its set-up and body times both as measured and
rescaled to the probe's reference speed.
"""

import contextlib
import hashlib
import json
import os
import resource
import signal
import sys
import time
import traceback


def _reference_kernel():
    """A fixed piece of pure-Python work, about 1.25 ms on the 2-vCPU
    development VM. It touches no module of the program and allocates little."""
    acc = 0
    for i in range(15000):
        acc = (acc + i * i) % 1000003
    return acc


class SpeedProbe:
    """Samples how fast the machine runs while a region is timed.

    A shared virtual machine runs the same code at speeds that drift by up to
    1.7x over seconds to minutes, and a pure-Python loop, a numpy solve and
    the workloads all drift together. Every INTERVAL_S of wall time a timer
    signal runs ``_reference_kernel`` between two bytecodes of whatever is
    running (later, if a C call holds the interpreter) and records how long
    it took. The region's speed is the mean over its samples of
    REFERENCE_S / sample, and its time rescaled to the reference speed is its
    wall time without the probe's own time, times that speed. Samples fall
    uniformly in time, so the mean is the time average of the speed, and the
    rescaled time is the time the region's work takes at speed 1.
    """

    INTERVAL_S = 0.05
    REFERENCE_S = 0.00125  # a fixed scale: about the kernel's median on the 2-vCPU VM

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t = time.perf_counter()
        _reference_kernel()
        dt = time.perf_counter() - t
        self.samples.append(dt)
        self.spent += time.perf_counter() - t

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return time.perf_counter(), len(self.samples), self.spent

    def region(self, since):
        """(wall time without the probe, rescaled time, speed) from the
        mark ``since`` to now; speed 1.0 is the reference machine."""
        t, n, spent = since
        wall = time.perf_counter() - t - (self.spent - spent)
        samples = self.samples[n:] or self.samples[-1:]
        speed = sum(self.REFERENCE_S / s for s in samples) / len(samples)
        return wall, wall * speed, speed


def _blas():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def main() -> int:
    root, workload, seed, outdir, traced = sys.argv[1:6]
    sys.path.insert(0, os.path.join(root, "src"))
    # The traced repeats give layer times; probe samples would land inside
    # their spans, so only untraced repeats run the probe.
    probe = SpeedProbe() if traced == "0" else None
    setup_speed = speed = None
    if probe is not None:
        probe.start()
        mark = probe.mark()
    t0 = time.perf_counter()
    import workloads  # imports vrjp

    ops = workloads.plan(workload, int(seed), outdir)
    tracer = None
    if traced == "1":
        from spans import Tracer

        tracer = Tracer()
    setup_s = setup_wall_s = time.perf_counter() - t0
    if probe is not None:
        setup_wall_s, setup_s, setup_speed = probe.region(mark)
        mark = probe.mark()
    if tracer is not None:
        tracer.install()

    results = []
    payloads = []
    cpu0 = time.process_time()
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(sys.stderr):
        for name, op in ops:
            try:
                ok, payload, detail, extra = op()
            except Exception:  # one failed operation must not end the repeat
                ok, payload, detail, extra = False, b"", traceback.format_exc(), {}
            results.append({"name": name, "ok": bool(ok), "detail": detail, "extra": extra})
            payloads.append(payload)
    body_s = body_wall_s = time.perf_counter() - t1
    cpu_share = (time.process_time() - cpu0) / body_s
    if probe is not None:
        probe.stop()
        body_wall_s, body_s, speed = probe.region(mark)
    for res, payload in zip(results, payloads):
        res["digest"] = hashlib.sha256(payload).hexdigest()

    import numpy
    import scipy
    import vrjp

    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "body_s": body_s,
                "setup_wall_s": setup_wall_s,
                "body_wall_s": body_wall_s,
                "speed": speed,
                "setup_speed": setup_speed,
                "probe_samples": len(probe.samples) if probe is not None else 0,
                "cpu_share": cpu_share,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ops": results,
                "spans": tracer.spans if tracer is not None else None,
                "versions": {
                    "python": sys.version.split()[0],
                    "numpy": numpy.__version__,
                    "scipy": scipy.__version__,
                    "vrjp": vrjp.__version__,
                    "blas": _blas(),
                },
                "vrjp_path": os.path.dirname(vrjp.__file__),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
