"""Spans and counters recorded around calls into the package's layers.

Wrappers are installed from outside the package: each replaces a public
function or method on every module (or class) that binds it, because a
module that did ``from x import f`` looks ``f`` up in its own namespace.
A span is (name, start, end, parent); spans stay in memory until the run
ends, and per-round busy and self times are worked out from them.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np

_PACKAGE = "fracresolvent"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counters = defaultdict(float)
        # nodes of the last quadrature built, until an evaluation consumes them
        self.pending_nodes = None
        self.last_eval_points = 0

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, count=None):
        """Return fn recording a span per call; count(tracer, args, kwargs, result)."""
        tracer = self
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(tracer.starts)
            tracer.name_ids.append(nid)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.ends.append(0.0)
            stack.append(idx)
            tracer.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = clock()
                stack.pop()
            tracer.counters[name + ".calls"] += 1
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install_function(self, name: str, module, attr: str, count=None) -> None:
        """Wrap module.attr everywhere in the package that binds the same object."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == _PACKAGE or mod_name.startswith(_PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def install_method(self, name: str, cls, attr: str, count=None) -> None:
        setattr(cls, attr, self.wrap(name, getattr(cls, attr), count))

    # --- aggregation --------------------------------------------------------

    def arrays(self):
        n = len(self.starts)
        starts = np.asarray(self.starts, dtype=np.float64)
        ends = np.asarray(self.ends[:n], dtype=np.float64)
        parents = np.asarray(self.parents[:n], dtype=np.int64)
        name_ids = np.asarray(self.name_ids[:n], dtype=np.int64)
        return starts, ends, parents, name_ids

    def window_stats(self, lo: int, hi: int):
        """busy, self and top-level seconds per name for spans [lo, hi)."""
        starts, ends, parents, name_ids = self.arrays()
        dur = ends - starts
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        sel = slice(lo, hi)
        k = len(self.names)
        busy = np.bincount(name_ids[sel], weights=dur[sel], minlength=k)
        self_s = np.bincount(name_ids[sel], weights=own[sel], minlength=k)
        top = float(dur[sel][parents[sel] < 0].sum())
        return (dict(zip(self.names, busy.tolist())),
                dict(zip(self.names, self_s.tolist())), top)

    def save(self, path, bounds, walls, speeds) -> None:
        """Write every span, plus each round's span range [lo, hi), wall time and host speed."""
        starts, ends, parents, name_ids = self.arrays()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path, names=np.asarray(self.names), name_ids=name_ids, starts=starts,
            ends=ends, parents=parents, round_spans=np.asarray(bounds, dtype=np.int64),
            round_walls=np.asarray(walls, dtype=np.float64),
            round_speeds=np.asarray(speeds, dtype=np.float64),
        )


# --- counters for the package's layers -----------------------------------------

def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _count_solve(tr, args, kwargs, result):
    tr.counters["tridiag.solve_tridiagonal.rows"] += np.size(_arg(args, kwargs, 1, "rhs"))


def _count_quadrature(tr, args, kwargs, quad):
    nodes = quad.all_nodes()
    tr.counters["contour.nodes"] += nodes.size
    tr.pending_nodes = nodes


def _count_kernel(tr, args, kwargs, result):
    s = _arg(args, kwargs, 1, "s")
    points = int(np.size(s))
    tr.counters["kernels.eval_kernel.points"] += points
    tr.last_eval_points = points
    pending = tr.pending_nodes
    if pending is not None and np.shape(s) == pending.shape and np.array_equal(s, pending):
        tr.counters["contour.build_quadrature.useful"] += 1
        tr.pending_nodes = None


def _count_modes(tr, args, kwargs, values):
    # the kernel was evaluated once on the nodes, then one value per eigenvalue
    tr.counters["evolution.scalar_mode_values.mode_evals"] += tr.last_eval_points * np.size(values)


def _count_spectral(tr, args, kwargs, result):
    # two matrix-vector products, each reading the n x n float64 eigenvector matrix
    n = np.size(_arg(args, kwargs, 2, "x"))
    tr.counters["operators.apply_spectral.bytes_computed"] += 2 * 8 * n * n


def _count_emit(tr, args, kwargs, result):
    for pos, key in ((1, "csv_path"), (2, "svg_path")):
        try:
            path = _arg(args, kwargs, pos, key)
        except KeyError:
            continue
        if path is not None:
            tr.counters["experiments.emit_outputs.bytes"] += os.path.getsize(path)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads reach."""
    from fracresolvent import cli, contour, evolution, experiments, kernels, operators, svg, tridiag

    fn = tracer.install_function
    fn("tridiag.solve_tridiagonal", tridiag, "solve_tridiagonal", _count_solve)
    fn("tridiag.eigh_tridiagonal", tridiag, "eigh_tridiagonal")
    fn("operators.resolve", operators, "resolve")
    fn("operators.assemble", operators, "assemble_kimura")
    fn("operators.assemble", operators, "assemble_bessel")
    tracer.install_method("operators.eigensystem", operators.DiscreteOperator, "eigensystem")
    tracer.install_method("operators.apply_spectral", operators.DiscreteOperator,
                          "apply_spectral", _count_spectral)
    fn("contour.build_quadrature", contour, "build_quadrature", _count_quadrature)
    fn("kernels.eval_kernel", kernels, "eval_kernel", _count_kernel)
    fn("evolution.scalar_mode_values", evolution, "scalar_mode_values", _count_modes)
    fn("evolution.resolvent_apply", evolution, "resolvent_apply")
    fn("evolution.smoothed_apply", evolution, "smoothed_apply")
    fn("evolution.mild_solution", evolution, "mild_solution")
    fn("experiments.load_config", experiments, "load_config")
    fn("experiments.smoothing_sweep", experiments, "smoothing_sweep")
    fn("experiments.emit_outputs", experiments, "emit_outputs", _count_emit)
    fn("svg.render_decay_svg", svg, "render_decay_svg")
    fn("cli.main", cli, "main")


# (metric, unit, source): source "busy" or "self" is worked out from the spans,
# "calls" and "counter" are read from the round's counters
LAYER_METRICS = (
    ("tridiag.solve_tridiagonal.calls", "count", "calls"),
    ("tridiag.solve_tridiagonal.busy_s", "s", "busy"),
    ("tridiag.solve_tridiagonal.rows", "count", "counter"),
    ("operators.resolve.calls", "count", "calls"),
    ("operators.resolve.busy_s", "s", "busy"),
    ("tridiag.eigh_tridiagonal.calls", "count", "calls"),
    ("tridiag.eigh_tridiagonal.busy_s", "s", "busy"),
    ("operators.eigensystem.busy_s", "s", "busy"),
    ("evolution.scalar_mode_values.calls", "count", "calls"),
    ("evolution.scalar_mode_values.busy_s", "s", "busy"),
    ("evolution.scalar_mode_values.mode_evals", "count", "counter"),
    ("operators.apply_spectral.calls", "count", "calls"),
    ("operators.apply_spectral.busy_s", "s", "busy"),
    ("operators.apply_spectral.bytes_computed", "bytes", "counter"),
    ("contour.build_quadrature.calls", "count", "calls"),
    ("contour.build_quadrature.busy_s", "s", "busy"),
    ("contour.nodes", "count", "counter"),
    ("kernels.eval_kernel.calls", "count", "calls"),
    ("kernels.eval_kernel.busy_s", "s", "busy"),
    ("kernels.eval_kernel.points", "count", "counter"),
    ("evolution.resolvent_apply.calls", "count", "calls"),
    ("evolution.resolvent_apply.self_s", "s", "self"),
    ("evolution.smoothed_apply.calls", "count", "calls"),
    ("evolution.smoothed_apply.self_s", "s", "self"),
    ("evolution.mild_solution.self_s", "s", "self"),
    ("evolution.mild_solution.forcing_calls", "count", "counter"),
    ("operators.assemble.calls", "count", "calls"),
    ("operators.assemble.busy_s", "s", "busy"),
    ("experiments.load_config.busy_s", "s", "busy"),
    ("experiments.smoothing_sweep.self_s", "s", "self"),
    ("experiments.emit_outputs.busy_s", "s", "busy"),
    ("experiments.emit_outputs.bytes", "bytes", "counter"),
    ("svg.render_decay_svg.busy_s", "s", "busy"),
    ("cli.main.self_s", "s", "self"),
)
# worked out by round_metrics from the values above
EXTRA_METRICS = (
    ("contour.build_quadrature.useful_ratio", "1", None),
    ("trace.run_s", "s", None),
    ("trace.top_level_share", "1", None),
)


def round_metrics(tracer: Tracer, lo: int, hi: int, counters: dict, wall_s: float) -> dict:
    """Per-layer values of one round: spans [lo, hi) and that round's counters."""
    busy, self_s, top = tracer.window_stats(lo, hi)
    out = {}
    for metric, _, source in LAYER_METRICS:
        layer = metric.rsplit(".", 1)[0]
        if source == "busy":
            out[metric] = busy.get(layer, 0.0)
        elif source == "self":
            out[metric] = self_s.get(layer, 0.0)
        else:  # ".calls" is counted under the metric's own name too
            out[metric] = counters.get(metric, 0.0)
    built = counters.get("contour.build_quadrature.calls", 0.0)
    useful = counters.get("contour.build_quadrature.useful", 0.0)
    out["contour.build_quadrature.useful_ratio"] = useful / built if built else 1.0
    out["trace.run_s"] = wall_s
    out["trace.top_level_share"] = top / wall_s
    return out
