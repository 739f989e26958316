"""The benchmark's tracer still finds and counts the package's layers.

perfbench/tracer.py wraps public functions by name; a refactor that
renames one, or stops calling it, would otherwise surface only in a
traced benchmark run.  install() rebinds module attributes for the rest
of the process, so the traced run happens in a subprocess.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import numpy as np
from tracer import Tracer, install

tracer = Tracer()
install(tracer)
from fracresolvent import evolution
from fracresolvent.contour import default_contour_spec
from fracresolvent.kernels import KernelParams
from fracresolvent.operators import assemble_kimura

op = assemble_kimura(20)
cfg = evolution.EvolutionConfig(
    kernel=KernelParams(kind="abc", alpha=0.5), contour=default_contour_spec(0.5),
    times=(0.5,), u0=np.ones(20), forcing=lambda tau: np.ones(20),
)
tracer.counters.clear()
evolution.mild_solution(op, cfg, n_sub=4)
counts = [dict(tracer.counters)]
sweep = evolution.EvolutionConfig(
    kernel=KernelParams(kind="abc", alpha=0.5), contour=default_contour_spec(0.5),
    times=np.logspace(-3.0, 1.0, 33), u0=np.ones(20), gamma=0.5,
)
tracer.counters.clear()
evolution.mild_solution(op, sweep)
counts.append(dict(tracer.counters))
print(json.dumps(counts))
"""


@pytest.fixture(scope="module")
def counters():
    """Counters of the forced run and of the unforced gamma = 1/2 sweep, in a traced subprocess."""
    script = SCRIPT.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_tracer_counts_a_forced_mild_solution(counters):
    forced = counters[0]
    # one unit-time rule of 15 nodes at tol = 1e-8, scaled to each of the four lags;
    # the kernel is evaluated once, on the 4 x 15 lag nodes, which are not the built
    # nodes, so the tracer counts the quadrature as not useful
    assert forced["tridiag.solve_tridiagonal.calls"] == 60
    assert forced["operators.resolve.calls"] == 60
    assert forced["contour.build_quadrature.calls"] == 1
    assert forced.get("contour.build_quadrature.useful", 0) == 0
    assert forced["kernels.eval_kernel.calls"] == 1
    assert forced["kernels.eval_kernel.points"] == 60
    assert forced["evolution.mild_solution.calls"] == 1


def test_tracer_counts_an_unforced_sweep(counters):
    sweep = counters[1]
    # 33 times over [1e-3, 10] in two windows, on contours of 28 and 64 nodes;
    # the norms at gamma = 1/2 take u^T S u and a Sturm count, and form no eigenbasis
    assert sweep.get("tridiag.eigh_tridiagonal.calls", 0) == 0
    assert sweep["contour.build_quadrature.calls"] == 2
    assert sweep["contour.build_quadrature.useful"] == 2
    assert sweep["kernels.eval_kernel.calls"] == 2
    assert sweep["tridiag.solve_tridiagonal.calls"] == 92
    assert sweep["operators.resolve.calls"] == 92
    assert sweep["evolution.mild_solution.calls"] == 1
