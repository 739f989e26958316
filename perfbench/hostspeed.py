"""Host-speed probe: samples how fast the benchmark's CPU runs, while it runs.

On a shared virtual machine the speed of a vCPU changes by up to half
from second to second (another tenant on the sibling hyperthread), so
a raw wall time mixes the program's work with the host's load.  The
probe is a second process pinned to the benchmark's CPU.  Every PERIOD_S
it wakes, runs a short fixed pure-Python loop once to warm its caches,
times a second run of the loop, and sleeps again.  The scheduler lets
it in at once, so its samples read the speed of that CPU at evenly
spaced moments, at a cost of about 2% of the CPU.

A stretch of wall time [t0, t1) is turned into host-normalised seconds,
the time the same work would take at the reference speed, by

    normalised = (t1 - t0) * mean(REFERENCE_S / sample)

over the samples taken in it: the work done in a stretch is the integral
of the speed over it, and the samples estimate the mean speed.

Run as a script it is the probe process itself:

    python3 perfbench/hostspeed.py <cpu>

It samples until its standard input is closed, then writes the start
times and durations of its samples to standard output as JSON.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

PERIOD_S = 0.02
WARM_LOOPS = 2000
TIMED_LOOPS = 4000
# duration of the timed loop at the reference speed: the fast phase of the
# 2-vCPU Xeon virtual machine the benchmark was tuned on
REFERENCE_S = 3.0e-4
STOP_TIMEOUT_S = 30


def _loop(count: int) -> int:
    s = 0
    for i in range(count):
        s += i * i % 7
    return s


def sample_forever(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    starts, durations = [], []
    clock = time.perf_counter
    stdin = sys.stdin.fileno()
    due = clock()
    while True:
        _loop(WARM_LOOPS)
        t0 = clock()
        _loop(TIMED_LOOPS)
        starts.append(t0)
        durations.append(clock() - t0)
        due += PERIOD_S
        wait = due - clock()
        if wait < 0:
            due, wait = clock(), 0.0
        ready, _, _ = select.select([stdin], [], [], wait)
        if ready and not os.read(stdin, 64):
            break
    json.dump([starts, durations], sys.stdout)
    sys.stdout.flush()


class SpeedProbe:
    """The probe process and, once stopped, its samples."""

    def __init__(self, cpu: int):
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), str(cpu)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.starts = self.durations = None

    def stop(self) -> None:
        """Close the probe's input, wait for it, and keep its samples."""
        if self.proc.returncode is not None:
            return
        try:
            out, _ = self.proc.communicate(b"", timeout=STOP_TIMEOUT_S)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        if self.proc.returncode != 0:
            raise RuntimeError("host-speed probe exited with code %r" % self.proc.returncode)
        self.starts, self.durations = json.loads(out)

    def speed(self, t0: float, t1: float) -> float:
        """Mean speed over [t0, t1) as a share of the reference speed."""
        shares = [REFERENCE_S / d for s, d in zip(self.starts, self.durations) if t0 <= s < t1]
        if not shares:
            raise RuntimeError("no host-speed sample in a stretch of %.3f s" % (t1 - t0))
        return sum(shares) / len(shares)


if __name__ == "__main__":
    sample_forever(int(sys.argv[1]))
