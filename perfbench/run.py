"""Benchmark of the fracresolvent package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-spectral|sweep-solve|mild-forced
                             --seed N --seconds S --trace 0|1

It builds nothing: the package runs from ``src/``.  The run is pinned to
one CPU, shared with a host-speed probe (hostspeed.py) that samples how
fast that CPU runs; every time reported is host-normalised, the wall
time scaled to the probe's reference speed.  Set-up is timed over
several fresh interpreters; then whole rounds of the workload's
operations repeat for S seconds (by default the run_seconds of
BENCHMARK.json).  The outputs are checked against references computed
apart from the package, and the last line printed is one JSON object:
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are per-layer values from spans
recorded around the package's public functions.
"""

import os

# one BLAS/OpenMP thread, here and in every process started from here
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_STARTS = 11       # timed fresh starts; one more runs first to fill caches
MIN_ROUNDS = 2          # at least two rounds, so outputs can be compared
PROBE_TIMEOUT_S = 60


def default_seconds() -> float:
    """The run length of BENCHMARK.json, which the bounds were set with."""
    try:
        return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 25.0


def parse_args(argv=None):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=default_seconds())
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fresh_start(workload: str) -> dict:
    """One fresh interpreter until the first operation could start.

    Returns the wall-clock stretch [t0, ready) and the child's own
    import and build times, all raw; setup_metrics() scales them.
    """
    # bytecode is written, so the unmeasured first start leaves compiled
    # modules for the timed ones, as an installed package has
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), str(ROOT), workload],
                          stdout=subprocess.PIPE, text=True, env=env) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0 or not line:
        raise RuntimeError("set-up probe failed with exit code %r" % proc.returncode)
    sample = json.loads(line)
    sample["span"] = (t0, ready)
    return sample


def measure_setup(workload: str) -> list:
    fresh_start(workload)
    return [fresh_start(workload) for _ in range(SETUP_STARTS)]


def setup_metrics(starts: list, probe) -> dict:
    """Host-normalised medians over the fresh starts."""
    scaled = []
    for sample in starts:
        t0, ready = sample["span"]
        speed = probe.speed(t0, ready)
        scaled.append({"setup_s": (ready - t0) * speed, "import_s": sample["import_s"] * speed,
                       "build_s": sample["build_s"] * speed})
    return {key: statistics.median(s[key] for s in scaled) for key in scaled[0]}


def import_package():
    sys.path.insert(0, str(SRC))
    import fracresolvent

    where = Path(fracresolvent.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError("imported fracresolvent from %s, not from %s" % (where, SRC))


def run_rounds(workload, module, seconds: float, tracer=None, forcing=None):
    """Repeat whole rounds while another one fits in `seconds`; per-round figures.

    A round is predicted to last as long as the one before it, so the run
    ends within `seconds` instead of overrunning by part of a round.
    Returns the raw wall-clock stretch of every round, and with a tracer
    its raw per-layer figures and span ranges.
    """
    from tracer import round_metrics

    walls, layers, bounds = [], [], []
    t_begin = time.perf_counter()
    while (len(walls) < MIN_ROUNDS
           or time.perf_counter() - t_begin + walls[-1][1] - walls[-1][0] <= seconds):
        if tracer is not None:
            tracer.counters.clear()
            lo = len(tracer.starts)
            calls_before = forcing.calls if forcing is not None else 0
        t0 = time.perf_counter()
        workload.run_round(module)
        t1 = time.perf_counter()
        wall = t1 - t0
        walls.append((t0, t1))
        if tracer is not None:
            counters = dict(tracer.counters)
            if forcing is not None:
                counters["evolution.mild_solution.forcing_calls"] = forcing.calls - calls_before
            layers.append(round_metrics(tracer, lo, len(tracer.starts), counters, wall))
            bounds.append((lo, len(tracer.starts)))
    return walls, layers, bounds


def tally(ops, rounds: int, bound: float):
    """Attempted and failed operations, and the distances from the references.

    Every round attempts every operation.  An operation fails in a round
    when it raised or exited non-zero there, and in every round when its
    output is missing, non-finite or farther than `bound` from the reference.
    """
    attempted = failed = 0
    deviations = []
    for op in ops:
        attempted += rounds
        if op.deviation is not None:
            deviations.append(op.deviation)
            print("%s: %.3e from the reference" % (op.label, op.deviation), file=sys.stderr)
        if op.deviation is None or op.deviation > bound:
            failed += rounds
            print("failed: %s: no output within the accuracy bound %.0e%s"
                  % (op.label, bound, "; " + op.known_fault if op.known_fault else ""),
                  file=sys.stderr)
        else:
            failed += op.raised
        for message in op.errors:
            print("failed: %s" % message, file=sys.stderr)
    return attempted, failed, deviations


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if not (SRC / "fracresolvent" / "__init__.py").is_file():
        print("no package source at %s: run from the root of a checkout" % SRC, file=sys.stderr)
        return 2
    import hostspeed
    import numpy as np
    import tracer as tracing
    import workloads

    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # the probe and every fresh start share this CPU
    probe = hostspeed.SpeedProbe(cpu)
    workdir = ROOT / ".perfbench_work" / ("%s-%d" % (args.workload, os.getpid()))
    cwd = os.getcwd()
    try:
        starts = measure_setup(args.workload)
        import_package()
        workload = workloads.make(args.workload)
        module = workload.setup()
        forcing = getattr(workload, "forcing", None)
        workdir.mkdir(parents=True)
        os.chdir(workdir)
        workload.prepare(ROOT, workdir, args.seed)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        walls, layers, bounds = run_rounds(workload, module, args.seconds, tracer, forcing)
        probe.stop()
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        faults, ref_faults = workload.check()
    finally:
        probe.stop()
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    setup = setup_metrics(starts, probe)
    speeds = [probe.speed(t0, t1) for t0, t1 in walls]
    rounds = [(t1 - t0) * speed for (t0, t1), speed in zip(walls, speeds)]
    attempted, failed, deviations = tally(workload.ops, len(walls), workloads.ACCURACY_BOUND)
    print("%d rounds of %s s wall, host speed %s, %s s normalised"
          % (len(walls), " ".join("%.3f" % (t1 - t0) for t0, t1 in walls),
             " ".join("%.3f" % v for v in speeds), " ".join("%.3f" % r for r in rounds)),
          file=sys.stderr)
    for message in faults + ref_faults:
        print("incorrect: %s" % message, file=sys.stderr)

    if args.trace:
        tracer.save(ROOT / ".perfbench_out" / ("%s-trace.npz" % args.workload), bounds,
                    [t1 - t0 for t0, t1 in walls], speeds)
        metrics = {}
        for metric, unit, _ in tracing.LAYER_METRICS + tracing.EXTRA_METRICS:
            # every time is scaled by its round's host speed, as run_s is
            values = [r.get(metric, 0.0) * (speed if unit == "s" else 1.0)
                      for r, speed in zip(layers, speeds)]
            metrics[metric] = {"value": float(np.median(values)), "unit": unit}
        metrics["host.speed"] = {"value": statistics.median(speeds), "unit": "1"}
        metrics["setup.import_s"] = {"value": setup["import_s"], "unit": "s"}
        metrics["setup.build_s"] = {"value": setup["build_s"], "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "run_s": {"value": statistics.median(rounds), "unit": "s"},
            "ref_deviation": {"value": max(deviations) if deviations else 1.0, "unit": "1"},
            "peak_rss_mb": {"value": peak_rss_mib, "unit": "MiB"},
        }
    result = {"correct": not (faults or ref_faults), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
