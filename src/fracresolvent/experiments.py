"""Config-driven experiment runner: decay sweeps, probe tables, file output.

Configs are flat UTF-8 text, one `section.key = value` per line, with
'#' comments.  Every key is listed in _KEY_TABLE below; anything else is
rejected with its line number.  All numeric cross-field constraints are
re-validated by the upstream dataclasses at build time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from fracresolvent.contour import DEFAULT_THETA, default_contour_spec
from fracresolvent.errors import ConfigurationError, OutputError
from fracresolvent.evolution import EvolutionConfig, resolvent_apply, smoothed_norm
from fracresolvent.kernels import (
    ABC,
    CAPUTO_PROBE,
    W,
    KernelParams,
    estimate_admissibility,
    eval_kernel,
)
from fracresolvent.operators import (
    BESSEL,
    KIMURA,
    DiscreteOperator,
    assemble_bessel,
    assemble_kimura,
)

CSV_HEADER = "t,norm,bound_alpha_gamma,bound_gamma,local_exponent"
ANCHOR_SAFETY = 1.05
U0_PROFILES = ("sin_pi_x", "gaussian_bump", "indicator")
MODES = ("smoothing", "caputo", "admissibility")


@dataclass
class ExperimentConfig:
    mode: str = "smoothing"
    operator_kind: str = KIMURA
    n: int = 1000
    nu: float = 0.25
    r_max: float = 20.0
    kernel_kind: str = ABC
    alpha: float = 0.5
    beta: float = 1.0
    b: float = 1.0
    theta: float = DEFAULT_THETA
    n_nodes: int = 128
    tol: float = 1e-8
    gamma: float = 0.0
    t_min: float = 1e-3
    t_max: float = 10.0
    t_count: int = 33
    u0_spec: str = "sin_pi_x"
    bump_center: float | None = None
    bump_width: float | None = None
    lam: float = 0.0
    csv_path: str = "out.csv"
    svg_path: str | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigurationError(
                "run.mode must be one of %s, got %r" % (", ".join(MODES), self.mode)
            )
        if self.t_count < 3:
            raise ConfigurationError("run.t_count must be >= 3, got %r" % self.t_count)
        if not 0.0 < self.t_min < self.t_max:
            raise ConfigurationError(
                "need 0 < run.t_min < run.t_max, got %r, %r" % (self.t_min, self.t_max)
            )
        if self.lam < 0.0:
            raise ConfigurationError("run.lambda must be nonnegative, got %r" % self.lam)


@dataclass
class DecayTable:
    """One smoothing run: times, smoothed norms, anchored references.

    The reference curves pass through 1.05x the first sample (the
    constant in the decay estimate is non-constructive, so the check is
    anchored to make "uniformly below" well defined).  local_exponent is
    NaN where undefined (first row, last row, neighbors of a zero norm).
    """

    times: np.ndarray
    norms: np.ndarray
    bound_alpha_gamma: np.ndarray
    bound_gamma: np.ndarray
    local_exponent: np.ndarray
    alpha: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        if t.ndim != 1 or t.size == 0:
            raise ConfigurationError("table needs a nonempty 1-d time axis")
        if np.any(np.diff(t) <= 0.0):
            raise ConfigurationError("table times must be strictly increasing")
        if not np.all(np.isfinite(self.norms)):
            raise ConfigurationError("table norms must be finite")

    @property
    def n_rows(self) -> int:
        return int(np.asarray(self.times).size)

    def bound_satisfied(self) -> bool:
        return bool(np.all(self.norms <= self.bound_alpha_gamma))


# --- config parsing ---------------------------------------------------------

def _parse_operator_kind(v):
    if v not in (KIMURA, BESSEL):
        raise ConfigurationError(
            "operator.kind must be kimura or bessel (diagonal operators are "
            "built in code, not from configs), got %r" % v
        )
    return v


def _parse_kernel_kind(v):
    if v not in (ABC, W, CAPUTO_PROBE):
        raise ConfigurationError("kernel.kind must be abc or w, got %r" % v)
    return v


_KEY_TABLE = {
    "run.mode": ("mode", str),
    "operator.kind": ("operator_kind", _parse_operator_kind),
    "operator.n": ("n", int),
    "operator.nu": ("nu", float),
    "operator.r_max": ("r_max", float),
    "kernel.kind": ("kernel_kind", _parse_kernel_kind),
    "kernel.alpha": ("alpha", float),
    "kernel.beta": ("beta", float),
    "kernel.B": ("b", float),
    "contour.theta": ("theta", float),
    "contour.n_nodes": ("n_nodes", int),
    "contour.tol": ("tol", float),
    "run.gamma": ("gamma", float),
    "run.t_min": ("t_min", float),
    "run.t_max": ("t_max", float),
    "run.t_count": ("t_count", int),
    "run.u0": ("u0_spec", str),
    "run.bump_center": ("bump_center", float),
    "run.bump_width": ("bump_width", float),
    "run.lambda": ("lam", float),
    "output.csv": ("csv_path", str),
    "output.svg": ("svg_path", str),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key=value format; reject anything undocumented."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError("line %d: expected 'section.key = value'" % lineno)
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _KEY_TABLE:
            raise ConfigurationError("line %d: unknown key %r" % (lineno, key))
        attr, conv = _KEY_TABLE[key]
        if attr in values:
            raise ConfigurationError("line %d: duplicate key %r" % (lineno, key))
        try:
            values[attr] = conv(val)
            if conv is float and not math.isfinite(values[attr]):
                raise ValueError("must be finite, got %r" % val)
        except ConfigurationError:
            raise
        except ValueError as exc:
            raise ConfigurationError("line %d: bad value for %r: %s" % (lineno, key, exc))
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OutputError("cannot read config %s: %s" % (path, exc)) from exc
    return parse_config(text)


# --- building the run pieces ------------------------------------------------

def build_operator(cfg: ExperimentConfig) -> DiscreteOperator:
    if cfg.operator_kind == KIMURA:
        return assemble_kimura(cfg.n)
    return assemble_bessel(nu=cfg.nu, r_max=cfg.r_max, n=cfg.n)


def _mesh_coordinate(cfg: ExperimentConfig, op: DiscreteOperator) -> tuple[np.ndarray, float]:
    if cfg.operator_kind == KIMURA:
        h = 1.0 / (op.n + 1)
        return np.arange(1, op.n + 1) * h, 1.0
    h = cfg.r_max / cfg.n
    return np.arange(0, op.n) * h, cfg.r_max  # node 0 sits at r = 0 (natural condition)


def build_initial_state(cfg: ExperimentConfig, op: DiscreteOperator) -> np.ndarray:
    xi, length = _mesh_coordinate(cfg, op)
    if cfg.u0_spec == "sin_pi_x":
        return np.sin(np.pi * xi / length)
    if cfg.u0_spec == "gaussian_bump":
        center = length / 10.0 if cfg.bump_center is None else cfg.bump_center
        width = length / 25.0 if cfg.bump_width is None else cfg.bump_width
        if width <= 0.0:
            raise ConfigurationError("run.bump_width must be positive, got %r" % width)
        return np.exp(-(((xi - center) / width) ** 2))
    if cfg.u0_spec == "indicator":
        return ((xi >= length / 3.0) & (xi <= 2.0 * length / 3.0)).astype(np.float64)
    try:
        data = np.loadtxt(cfg.u0_spec, dtype=np.float64)
    except OSError as exc:
        raise ConfigurationError(
            "run.u0 %r is neither a named profile (%s) nor a readable file: %s"
            % (cfg.u0_spec, ", ".join(U0_PROFILES), exc)
        ) from exc
    data = np.atleast_1d(data)
    if data.shape != (op.n,):
        raise ConfigurationError(
            "initial state file has shape %r, operator needs (%d,)" % (data.shape, op.n)
        )
    bad = ~np.isfinite(data)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ConfigurationError(
            "initial state file %s has non-finite value %r at index %d"
            % (cfg.u0_spec, float(data[i]), i)
        )
    return data


def build_evolution_config(cfg: ExperimentConfig, u0: np.ndarray) -> EvolutionConfig:
    kernel = KernelParams(kind=cfg.kernel_kind, alpha=cfg.alpha, beta=cfg.beta, b=cfg.b)
    # the default angle is pushed out when alpha needs a wider contour
    contour = default_contour_spec(
        alpha=cfg.alpha, n_nodes=cfg.n_nodes,
        theta=None if cfg.theta == DEFAULT_THETA else cfg.theta,
    )
    times = np.logspace(math.log10(cfg.t_min), math.log10(cfg.t_max), cfg.t_count)
    return EvolutionConfig(
        kernel=kernel, contour=contour, gamma=cfg.gamma, times=times, u0=u0, tol=cfg.tol
    )


# --- sweeps -----------------------------------------------------------------

def smoothing_sweep(cfg: ExperimentConfig) -> DecayTable:
    """Homogeneous decay sweep: ||A^gamma V(t) u0|| against anchored refs.

    V(t) u0 is always by shifted solves; smoothed_norm picks the norm's route.
    """
    op = build_operator(cfg)
    u0 = build_initial_state(cfg, op)
    evo = build_evolution_config(cfg, u0)
    norms = np.empty(cfg.t_count)
    for i, t in enumerate(evo.times):
        norms[i] = smoothed_norm(op, cfg.gamma, resolvent_apply(op, evo, float(t), u0))
    t1, n1 = float(evo.times[0]), float(norms[0])
    scale = ANCHOR_SAFETY * n1
    bound_ag = scale * (evo.times / t1) ** (-cfg.alpha * cfg.gamma)
    bound_g = scale * (evo.times / t1) ** (-cfg.gamma)
    table = DecayTable(
        times=evo.times,
        norms=norms,
        bound_alpha_gamma=bound_ag,
        bound_gamma=bound_g,
        local_exponent=np.full(cfg.t_count, np.nan),
        alpha=cfg.alpha,
        gamma=cfg.gamma,
    )
    return local_exponent(table)


def local_exponent(table: DecayTable) -> DecayTable:
    """Fill the centered log-log slope column: -dlog(norm)/dlog(t)."""
    if table.n_rows < 3:
        raise ConfigurationError("local exponents need at least 3 rows")
    t = np.asarray(table.times, dtype=np.float64)
    n = np.asarray(table.norms, dtype=np.float64)
    expo = np.full(table.n_rows, np.nan)
    logt = np.log(t)
    with np.errstate(divide="ignore"):
        logn = np.where(n > 0.0, np.log(np.maximum(n, 1e-300)), -np.inf)
    for i in range(1, table.n_rows - 1):
        if np.isfinite(logn[i + 1]) and np.isfinite(logn[i - 1]):
            expo[i] = -(logn[i + 1] - logn[i - 1]) / (logt[i + 1] - logt[i - 1])
    return replace(table, local_exponent=expo)


@dataclass
class ProbeResult:
    radii: np.ndarray
    values: np.ndarray
    slope: float
    theta: float
    alpha: float
    lam: float


def caputo_probe(alpha: float, lam: float = 0.0, theta: float = DEFAULT_THETA,
                 radii=None) -> ProbeResult:
    """Tabulate g(s) = |s^(alpha-1)/(s^alpha + lam)| along the ray arg s = theta.

    This is the modulus the constant-order inversion integrand carries
    when 0 is in the spectrum (lam = 0): it diverges like |s|^(-1), so
    the inversion integral cannot converge near the origin.  The fitted
    slope is least squares over the two smallest sampled decades.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError("alpha must lie in (0, 1), got %r" % alpha)
    if lam < 0.0:
        raise ConfigurationError("lambda must be nonnegative, got %r" % lam)
    if not 0.0 <= theta < math.pi:
        raise ConfigurationError("theta must lie in [0, pi), got %r" % theta)
    if radii is None:
        radii = np.logspace(-8.0, -2.0, 49)
    radii = np.asarray(radii, dtype=np.float64)
    if radii.ndim != 1 or radii.size < 8 or np.any(radii <= 0.0):
        raise ConfigurationError("radii must be a positive 1-d grid with >= 8 points")
    radii = np.sort(radii)
    if radii[-1] > 1.0 + 1e-12:
        raise ConfigurationError("probe radii must stay at or below |s| = 1")
    if math.log10(radii[-1] / radii[0]) < 6.0 - 1e-9:
        raise ConfigurationError("probe radii must span at least 6 decades")
    s = radii * np.exp(1j * theta)
    with np.errstate(all="ignore"):
        g = np.abs(s ** (alpha - 1.0) / (s**alpha + lam))
    if not np.all(np.isfinite(g)):
        raise ConfigurationError("probe integrand overflowed on this grid")
    sel = radii <= radii[0] * 100.0
    slope = float(np.polyfit(np.log10(radii[sel]), np.log10(g[sel]), 1)[0])
    return ProbeResult(radii=radii, values=g, slope=slope, theta=theta,
                       alpha=alpha, lam=lam)


# --- output -----------------------------------------------------------------

def _fmt(x: float) -> str:
    return "%.17g" % x


def emit_outputs(table: DecayTable, csv_path, svg_path=None) -> None:
    """Write the table as CSV (and optionally a log-log SVG plot).

    CSV: '.' decimal separator, 17 significant digits, header exactly
    CSV_HEADER, missing exponents as an empty field.
    """
    if table.n_rows == 0:
        raise ConfigurationError("refusing to emit an empty table")
    lines = [CSV_HEADER]
    for i in range(table.n_rows):
        e = table.local_exponent[i]
        lines.append(",".join([
            _fmt(table.times[i]),
            _fmt(table.norms[i]),
            _fmt(table.bound_alpha_gamma[i]),
            _fmt(table.bound_gamma[i]),
            "" if not np.isfinite(e) else _fmt(e),
        ]))
    _write_text(csv_path, "\n".join(lines) + "\n")
    if svg_path is not None:
        from fracresolvent.svg import render_decay_svg

        _write_text(svg_path, render_decay_svg(table))


def _write_text(path, content: str) -> None:
    try:
        Path(path).write_text(content, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OutputError("cannot write %s: %s" % (path, exc)) from exc


def read_table(csv_path) -> DecayTable:
    """Inverse of emit_outputs' CSV for round-trip checks."""
    try:
        text = Path(csv_path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OutputError("cannot read %s: %s" % (csv_path, exc)) from exc
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigurationError("unrecognized CSV header in %s" % csv_path)
    cols = [[], [], [], [], []]
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 5:
            raise ConfigurationError("malformed CSV row: %r" % ln)
        for j, p in enumerate(parts):
            cols[j].append(math.nan if (j == 4 and p == "") else float(p))
    return DecayTable(
        times=np.array(cols[0]),
        norms=np.array(cols[1]),
        bound_alpha_gamma=np.array(cols[2]),
        bound_gamma=np.array(cols[3]),
        local_exponent=np.array(cols[4]),
    )


def _emit_probe_csv(result: ProbeResult, csv_path) -> None:
    lines = ["s_abs,g"]
    for r, g in zip(result.radii, result.values):
        lines.append("%s,%s" % (_fmt(r), _fmt(g)))
    _write_text(csv_path, "\n".join(lines) + "\n")


def _emit_admissibility_csv(cfg: ExperimentConfig, csv_path) -> None:
    kernel = KernelParams(kind=cfg.kernel_kind, alpha=cfg.alpha, beta=cfg.beta, b=cfg.b)
    radii = np.logspace(-8, 8, 129)
    s = radii * np.exp(1j * cfg.theta)
    vals = np.abs(eval_kernel(kernel, s))
    lines = ["s_abs,k_abs"]
    for r, v in zip(radii, vals):
        lines.append("%s,%s" % (_fmt(r), _fmt(v)))
    _write_text(csv_path, "\n".join(lines) + "\n")


def run_experiment(config_path) -> int:
    """Dispatch on run.mode, write the outputs, print a one-line summary."""
    cfg = load_config(config_path)
    if cfg.mode == "smoothing":
        table = smoothing_sweep(cfg)
        emit_outputs(table, cfg.csv_path, cfg.svg_path)
        ratio = float(np.max(table.norms / table.bound_alpha_gamma))
        if table.bound_satisfied():
            print("bound satisfied (max norm/reference ratio %.4f); wrote %s"
                  % (ratio, cfg.csv_path))
        else:
            worst = int(np.argmax(table.norms / table.bound_alpha_gamma))
            print("bound violated at t=%.6g (ratio %.4f); wrote %s"
                  % (table.times[worst], ratio, cfg.csv_path))
        return 0
    if cfg.mode == "caputo":
        result = caputo_probe(cfg.alpha, lam=cfg.lam, theta=cfg.theta)
        _emit_probe_csv(result, cfg.csv_path)
        print("fitted small-|s| slope %.4f (alpha=%g, lambda=%g); wrote %s"
              % (result.slope, cfg.alpha, cfg.lam, cfg.csv_path))
        return 0
    kernel = KernelParams(kind=cfg.kernel_kind, alpha=cfg.alpha, beta=cfg.beta, b=cfg.b)
    report = estimate_admissibility(kernel, theta=cfg.theta)
    _emit_admissibility_csv(cfg, cfg.csv_path)
    print("%s (c0_hat=%.6g, cinf_hat=%.6g); wrote %s"
          % (report.message, report.c0_hat, report.cinf_hat, cfg.csv_path))
    return 0
