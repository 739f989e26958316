"""The benchmark's workloads: inputs drawn from the seed, operations, checks.

A workload is a fixed list of operations.  A run repeats the whole list
(a round) until its time is up; every round attempts the same operations.
An operation fails when it raises, exits non-zero, or lands farther than
ACCURACY_BOUND from the independent reference.  Property violations of
operations that did not fail (CSV format, time grid, run-to-run byte
identity) make the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np

# relative M-norm distance separating quadrature error from wrong answers
ACCURACY_BOUND = 1e-4
# the two independent inversions must agree this closely
REFERENCE_AGREEMENT = 1e-9
CSV_HEADER = "t,norm,bound_alpha_gamma,bound_gamma,local_exponent"
SEEDED = "seeded"
PERTURBATION = 0.03

# defaults of the config format, for keys a config leaves out
_CONFIG_DEFAULTS = {
    "operator.kind": "kimura", "operator.n": "1000", "operator.nu": "0.25",
    "operator.r_max": "20", "kernel.kind": "abc", "kernel.alpha": "0.5",
    "kernel.beta": "1.0", "kernel.B": "1.0", "run.gamma": "0", "run.t_min": "1e-3",
    "run.t_max": "10", "run.t_count": "33", "run.u0": "sin_pi_x",
    "output.csv": "out.csv",
}


def read_config(path: Path) -> dict:
    values = dict(_CONFIG_DEFAULTS)
    for raw in path.read_text(encoding="utf-8").splitlines():
        key, _, value = raw.split("#", 1)[0].partition("=")
        if key.strip():
            values[key.strip()] = value.strip()
    return values


def derive_config(text: str, overrides: dict) -> str:
    """The config text with the given keys set (replaced in place or appended)."""
    lines, seen = [], set()
    for line in text.splitlines():
        key = line.split("#", 1)[0].partition("=")[0].strip()
        if key in overrides:
            line = "%s = %s" % (key, overrides[key])
            seen.add(key)
        lines.append(line)
    lines += ["%s = %s" % (k, v) for k, v in overrides.items() if k not in seen]
    return "\n".join(lines) + "\n"


def mesh(cfg: dict):
    """Coordinates of the unknowns and the domain length."""
    n = int(cfg["operator.n"])
    if cfg["operator.kind"] == "kimura":
        return np.arange(1, n + 1) / (n + 1), 1.0
    r_max = float(cfg["operator.r_max"])
    return np.arange(n) * (r_max / n), r_max


def initial_state(cfg: dict, workdir: Path) -> np.ndarray:
    xi, length = mesh(cfg)
    spec = cfg["run.u0"]
    if spec == "sin_pi_x":
        return np.sin(np.pi * xi / length)
    if spec == "gaussian_bump":
        center = float(cfg.get("run.bump_center", length / 10.0))
        width = float(cfg.get("run.bump_width", length / 25.0))
        return np.exp(-(((xi - center) / width) ** 2))
    return np.loadtxt(workdir / spec, dtype=np.float64)


def seeded_profile(seed: int, index: int, base: np.ndarray, xi: np.ndarray,
                   length: float) -> np.ndarray:
    """The shipped profile times 1 + a smooth seed-drawn ripple.

    The ripple is PERTURBATION * sum_k a_k cos(k pi x / L), k = 1..3 with
    a_k uniform in [-1, 1]: it changes every value of the state while
    keeping its support and its mode content near the shipped one, so
    the accuracy figures stay comparable from seed to seed.
    """
    rng = np.random.default_rng([seed % 2**32, index])
    ripple = sum(a * np.cos(k * np.pi * xi / length)
                 for k, a in enumerate(rng.uniform(-1.0, 1.0, size=3), start=1))
    return base * (1.0 + PERTURBATION * ripple)


def _pencil(cfg: dict, reference):
    n = int(cfg["operator.n"])
    if cfg["operator.kind"] == "kimura":
        return reference.kimura_pencil(n)
    return reference.bessel_pencil(float(cfg["operator.nu"]), float(cfg["operator.r_max"]), n)


def _kernel(cfg: dict):
    return (cfg["kernel.kind"], float(cfg["kernel.alpha"]), float(cfg["kernel.beta"]),
            float(cfg["kernel.B"]))


def sweep_reference(cfg: dict, u0: np.ndarray):
    """Times and ||A^gamma V(t) u0||_M of a smoothing sweep, plus a self-check.

    The self-check is the worst relative gap between the two inversions on
    this sweep: Talbot against the closed form for the abc kernel, Talbot
    at two node counts otherwise.
    """
    import reference

    times = np.logspace(math.log10(float(cfg["run.t_min"])),
                        math.log10(float(cfg["run.t_max"])), int(cfg["run.t_count"]))
    basis = reference.Eigenbasis(*_pencil(cfg, reference))
    weights = basis.lam ** float(cfg["run.gamma"]) * basis.coeffs(u0)
    kind, alpha, beta, b = _kernel(cfg)
    norms = np.empty(times.size)
    gap = 0.0
    for i, t in enumerate(times):
        modes = reference.mode_values(kind, alpha, beta, b, basis.lam, float(t))
        norms[i] = np.linalg.norm(weights * modes)
        nodes = reference.TALBOT_NODES
        if not reference.has_closed_form(kind, alpha, b):
            nodes = nodes * 3 // 4
        check = reference.talbot_modes(kind, alpha, beta, b, basis.lam, float(t), nodes)
        gap = max(gap, abs(np.linalg.norm(weights * check) - norms[i]) / norms[i])
    return times, norms, gap


class Operation:
    """Outcome bookkeeping of one operation across the rounds of a run."""

    def __init__(self, label: str, known_fault: str | None = None):
        self.label = label
        self.known_fault = known_fault  # the named program fault it is expected to show
        self.raised = 0          # rounds in which it raised or exited non-zero
        self.errors: list[str] = []
        self.first = None        # output of the first round that succeeded
        self.differs = False     # a later round's output was not identical
        self.deviation = None    # worst relative distance from the reference

    def record(self, output) -> None:
        if self.first is None:
            self.first = output
        elif not _identical(self.first, output):
            self.differs = True

    def set_deviation(self, value) -> None:
        """Keep a finite distance; a NaN or infinite output fails the operation."""
        if np.isfinite(value):
            self.deviation = float(value)
        else:
            self.errors.append("%s: non-finite output" % self.label)

    def fail(self, message: str) -> None:
        self.raised += 1
        if len(self.errors) < 3:
            self.errors.append(message)


def _identical(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


class Sweep:
    """Decay sweeps through the ``run`` subcommand of ``fracresolvent.cli.main``.

    variants: (label, shipped config, overrides).  No overrides runs the
    shipped file itself; otherwise a derived config is written, and a
    SEEDED ``run.u0`` becomes a file of seed-drawn values.
    """

    def __init__(self, variants):
        self.variants = variants
        self.ops = [Operation(label) for label, _, _ in variants]

    def setup(self):
        import fracresolvent.cli
        return fracresolvent.cli

    def prepare(self, root: Path, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.configs = []
        for index, (label, shipped, overrides) in enumerate(self.variants):
            source = root / "src" / "fracresolvent" / "configs" / shipped
            if not overrides:
                self.configs.append(source)
                continue
            overrides = dict(overrides, **{"output.csv": label + ".csv",
                                           "output.svg": label + ".svg"})
            if overrides.get("run.u0") == SEEDED:
                overrides["run.u0"] = label + "-u0.txt"
                base = read_config(source)
                base.update({k: v for k, v in overrides.items() if k != "run.u0"})
                xi, length = mesh(base)
                u0 = seeded_profile(seed, index, initial_state(base, workdir), xi, length)
                np.savetxt(workdir / overrides["run.u0"], u0, fmt="%.17g")
            path = workdir / (label + ".cfg")
            path.write_text(derive_config(source.read_text(encoding="utf-8"), overrides),
                            encoding="utf-8")
            self.configs.append(path)
        self.parsed = [read_config(path) for path in self.configs]

    def run_round(self, cli) -> None:
        for op, path, cfg in zip(self.ops, self.configs, self.parsed):
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink):
                    code = cli.main(["run", str(path)])
            except Exception as exc:  # a raising operation is a failed one
                op.fail("%s: %r" % (op.label, exc))
                continue
            if code != 0:
                op.fail("%s: exit code %r" % (op.label, code))
                continue
            try:
                csv = (self.workdir / cfg["output.csv"]).read_bytes()
                svg = (self.workdir / cfg["output.svg"]).read_bytes()
            except OSError as exc:
                op.fail("%s: output missing: %s" % (op.label, exc))
                continue
            op.record((csv, svg))

    def check(self) -> tuple[list[str], list[str]]:
        """Compare outputs with the references; return (property faults, reference faults)."""
        faults, ref_faults = [], []
        for op, cfg in zip(self.ops, self.parsed):
            if op.first is None:
                continue
            if op.differs:
                faults.append("%s: outputs differ between rounds" % op.label)
            csv, svg = op.first
            if not (svg.startswith(b"<svg") and svg.rstrip().endswith(b"</svg>")):
                faults.append("%s: SVG output is malformed" % op.label)
            times, norms, gap = sweep_reference(cfg, initial_state(cfg, self.workdir))
            if gap > REFERENCE_AGREEMENT:
                ref_faults.append("%s: the two reference inversions differ by %.2e"
                                  % (op.label, gap))
            lines = csv.decode("utf-8").split("\n")
            rows = [line.split(",") for line in lines[1:] if line]
            if lines[0] != CSV_HEADER or len(rows) != times.size or lines[-1] != "":
                faults.append("%s: CSV layout is wrong" % op.label)
                continue
            got_t = np.array([float(r[0]) for r in rows])
            got = np.array([float(r[1]) for r in rows])
            if np.max(np.abs(got_t - times) / times) > 1e-14:
                faults.append("%s: CSV time grid is wrong" % op.label)
            op.set_deviation(np.max(np.abs(got - norms) / norms))
        return faults, ref_faults


class ConstantForcing:
    """f(tau) = profile for every tau; counts its calls."""

    def __init__(self, profile: np.ndarray):
        self.profile = profile
        self.calls = 0

    def __call__(self, tau):
        self.calls += 1
        return self.profile


TRAPEZOID_FAULT = ("known fault: mild_solution's uniform trapezoid rule in tau (n_sub = 64) "
                   "misses the stiff modes' transients near tau = t")


class MildForced:
    """``mild_solution`` on a Kimura operator with constant forcing.

    The inputs are fixed: u0 = sin(pi x), f = 1, abc kernel (alpha = 1/2,
    B = 1), n = 200, output times 0.1 and 1.  Every operation fails today,
    because the trapezoid rule in tau misses the fast transients of the
    stiff modes near tau = t, so the inputs do not depend on the seed.
    """

    N = 200
    TIMES = (0.1, 1.0)

    def __init__(self):
        self.ops = [Operation("mild-kimura-abc", TRAPEZOID_FAULT)]

    def setup(self):
        from fracresolvent import evolution
        from fracresolvent.contour import default_contour_spec
        from fracresolvent.kernels import KernelParams
        from fracresolvent.operators import assemble_kimura

        self.evolution = evolution
        self.op = assemble_kimura(self.N)
        x = np.arange(1, self.N + 1) / (self.N + 1)
        self.u0 = np.sin(np.pi * x)
        self.forcing = ConstantForcing(np.ones(self.N))
        self.cfg = evolution.EvolutionConfig(
            kernel=KernelParams(kind="abc", alpha=0.5, b=1.0),
            contour=default_contour_spec(alpha=0.5),
            times=self.TIMES, u0=self.u0, forcing=self.forcing,
        )
        return evolution

    def prepare(self, root: Path, workdir: Path, seed: int) -> None:
        pass

    def run_round(self, _module) -> None:
        op = self.ops[0]
        try:
            result = self.evolution.mild_solution(self.op, self.cfg)
        except Exception as exc:  # a raising operation is a failed one
            op.fail("%s: %r" % (op.label, exc))
            return
        op.record(np.asarray(result.states))

    def check(self) -> tuple[list[str], list[str]]:
        import reference

        faults, ref_faults = [], []
        op = self.ops[0]
        if op.first is None:
            return faults, ref_faults
        if op.differs:
            faults.append("%s: states differ between rounds" % op.label)
        if op.first.shape != (len(self.TIMES), self.N):
            faults.append("%s: states have shape %r" % (op.label, op.first.shape))
            return faults, ref_faults
        basis = reference.Eigenbasis(*reference.kimura_pencil(self.N))
        c0 = basis.coeffs(self.u0)
        cf = basis.coeffs(self.forcing.profile)
        dists = []
        for i, t in enumerate(self.TIMES):
            modes = reference.abc_modes(basis.lam, t)
            gap = np.linalg.norm(reference.talbot_modes("abc", 0.5, 1.0, 1.0, basis.lam, t)
                                 - modes) / np.linalg.norm(modes)
            if gap > REFERENCE_AGREEMENT:
                ref_faults.append("%s: the two reference inversions differ by %.2e"
                                  % (op.label, gap))
            ref = basis.state(modes * c0 + reference.abc_mode_integrals(basis.lam, t) * cf)
            d = basis.sqrt_mass
            dists.append(np.linalg.norm(d * (op.first[i] - ref)) / np.linalg.norm(d * ref))
        op.set_deviation(np.max(dists))
        return faults, ref_faults


def make(name: str):
    if name == "sweep-spectral":
        return Sweep([
            ("kimura-abc", "kimura_abc.cfg", {}),
            ("bessel-w", "bessel_w.cfg", {}),
            ("kimura-abc-n4000", "kimura_abc.cfg", {"operator.n": "4000", "run.u0": SEEDED}),
            ("bessel-w-n4000", "bessel_w.cfg", {"operator.n": "4000", "run.u0": SEEDED}),
        ])
    if name == "sweep-solve":
        # every fourth time of the shipped 33-point grid keeps a round near 4 s
        solve = {"run.gamma": "0", "run.t_count": "9", "run.u0": SEEDED}
        return Sweep([
            ("kimura-abc-gamma0", "kimura_abc.cfg", solve),
            ("bessel-w-gamma0", "bessel_w.cfg", solve),
        ])
    if name == "mild-forced":
        return MildForced()
    raise ValueError("unknown workload %r" % name)


WORKLOADS = ("sweep-spectral", "sweep-solve", "mild-forced")
