"""Config-driven experiment runner: decay sweeps, diagnostic tables, file output.

Configs are flat UTF-8 text, one `section.key = value` per line, with
'#' comments.  Every key is listed in _KEY_TABLE below with the run modes
that read it; any other key, or a key its run.mode does not read, is
rejected with its line number.  ExperimentConfig refuses a run.mode,
operator.kind or kernel.kind off its menu, from a file or built in code.
All numeric cross-field constraints are re-validated by the upstream
dataclasses at build time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from fracresolvent.contour import DEFAULT_THETA, check_times, default_contour_spec
from fracresolvent.errors import ConfigurationError, NumericalError, OutputError
from fracresolvent.evolution import EvolutionConfig, unforced_windows
from fracresolvent.kernels import (
    ABC,
    CAPUTO_PROBE,
    W,
    KernelParams,
    _decade_slope,
    estimate_admissibility,
)
from fracresolvent.operators import DiscreteOperator, assemble_bessel, assemble_kimura

KIMURA = "kimura"  # the operator.kind values
BESSEL = "bessel"
CSV_HEADER = "t,norm,bound_alpha_gamma,bound_gamma,local_exponent"
ANCHOR_SAFETY = 1.05
U0_PROFILES = ("sin_pi_x", "gaussian_bump", "indicator")
# caputo_probe's radii: 8 a decade over [1e-8, 1e-2], where |s^(alpha-1)| <= 1e8
PROBE_RADII = np.logspace(-8.0, -2.0, 49)
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
    theta: float | None = None
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
            raise ConfigurationError("run.mode must be one of %s, got %r"
                                     % (", ".join(MODES), self.mode))
        if self.operator_kind not in (KIMURA, BESSEL):
            raise ConfigurationError(
                "operator.kind must be kimura or bessel (diagonal operators are "
                "built in code, not from configs), got %r" % self.operator_kind
            )
        if self.kernel_kind not in (ABC, W, CAPUTO_PROBE):
            raise ConfigurationError(
                "kernel.kind must be abc or w, or caputo_probe in admissibility mode, "
                "got %r" % self.kernel_kind
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

    def __post_init__(self):
        check_times(self.times)
        if not np.all(np.isfinite(self.norms)):
            raise ConfigurationError("table norms must be finite")

    @property
    def n_rows(self) -> int:
        return int(np.asarray(self.times).size)

    def bound_satisfied(self) -> bool:
        return bool(np.all(self.norms <= self.bound_alpha_gamma))


# --- config parsing ---------------------------------------------------------

# the modes that read each key; a config setting a key its mode does not read is refused
_SMOOTHING = ("smoothing",)
_KERNEL = ("smoothing", "admissibility")
_KEY_TABLE = {
    "run.mode": ("mode", str, MODES),
    "operator.kind": ("operator_kind", str, _SMOOTHING),
    "operator.n": ("n", int, _SMOOTHING),
    "operator.nu": ("nu", float, _SMOOTHING),
    "operator.r_max": ("r_max", float, _SMOOTHING),
    "kernel.kind": ("kernel_kind", str, _KERNEL),
    "kernel.alpha": ("alpha", float, MODES),
    "kernel.beta": ("beta", float, _KERNEL),
    "kernel.B": ("b", float, _KERNEL),
    "contour.theta": ("theta", float, MODES),
    "contour.n_nodes": ("n_nodes", int, _SMOOTHING),
    "contour.tol": ("tol", float, _SMOOTHING),
    "run.gamma": ("gamma", float, _SMOOTHING),
    "run.t_min": ("t_min", float, _SMOOTHING),
    "run.t_max": ("t_max", float, _SMOOTHING),
    "run.t_count": ("t_count", int, _SMOOTHING),
    "run.u0": ("u0_spec", str, _SMOOTHING),
    "run.bump_center": ("bump_center", float, _SMOOTHING),
    "run.bump_width": ("bump_width", float, _SMOOTHING),
    "run.lambda": ("lam", float, ("caputo",)),
    "output.csv": ("csv_path", str, MODES),
    "output.svg": ("svg_path", str, _SMOOTHING),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key=value format; reject unknown keys and keys run.mode does not read."""
    values, lines = {}, {}
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
        if key in lines:
            raise ConfigurationError("line %d: duplicate key %r" % (lineno, key))
        attr, conv, _ = _KEY_TABLE[key]
        lines[key] = lineno
        try:
            values[attr] = conv(val)
            if conv is float and not math.isfinite(values[attr]):
                raise ValueError("must be finite, got %r" % val)
        except ValueError as exc:
            raise ConfigurationError("line %d: bad value for %r: %s" % (lineno, key, exc))
        if conv is str:  # ExperimentConfig refuses an off-menu mode or kind at its line
            ExperimentConfig(**{attr: values[attr]})
    mode = values.get("mode", "smoothing")
    for key, lineno in lines.items():
        readers = _KEY_TABLE[key][2]
        if mode not in readers:
            raise ConfigurationError("line %d: %s mode does not read %r (read by %s)"
                                     % (lineno, mode, key, ", ".join(readers)))
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OutputError("cannot read config %s: %s" % (path, exc)) from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError("config %s is not UTF-8 text: byte 0x%02x at offset %d"
                                 % (path, exc.object[exc.start], exc.start)) from exc
    return parse_config(text)


# --- building the run pieces ------------------------------------------------

def build_operator(cfg: ExperimentConfig) -> DiscreteOperator:
    if cfg.operator_kind == KIMURA:
        return assemble_kimura(cfg.n)
    return assemble_bessel(nu=cfg.nu, r_max=cfg.r_max, n=cfg.n)


def build_initial_state(cfg: ExperimentConfig, op: DiscreteOperator) -> np.ndarray:
    """The run.u0 profile on the mesh, refused when zero at every node (no decay to measure)."""
    u0 = _initial_profile(cfg, op)
    if not np.any(u0):
        raise ConfigurationError("run.u0 %r is zero at every node of the %d-node mesh"
                                 % (cfg.u0_spec, op.n))
    return u0


def _initial_profile(cfg: ExperimentConfig, op: DiscreteOperator) -> np.ndarray:
    xi, length = op.coordinates, op.length
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
    except (OSError, ValueError) as exc:  # ValueError: text, ragged rows, bytes not UTF-8
        raise ConfigurationError(
            "run.u0 %r is neither a named profile (%s) nor a readable table of numbers: %s"
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
    # an unset angle is pushed out when alpha needs a wider contour; a set one is kept
    contour = default_contour_spec(alpha=cfg.alpha, n_nodes=cfg.n_nodes, theta=cfg.theta)
    times = np.logspace(math.log10(cfg.t_min), math.log10(cfg.t_max), cfg.t_count)
    return EvolutionConfig(
        kernel=kernel, contour=contour, gamma=cfg.gamma, times=times, u0=u0, tol=cfg.tol
    )


# --- sweeps -----------------------------------------------------------------

def smoothing_sweep(cfg: ExperimentConfig) -> DecayTable:
    """Homogeneous decay sweep: ||A^gamma V(t) u0|| against anchored refs.

    The norms are the unforced mild_solution's, taken from unforced_windows.
    """
    op = build_operator(cfg)
    evo = build_evolution_config(cfg, build_initial_state(cfg, op))
    norms = np.empty(cfg.t_count)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends in a refusal
        for window, states, norms[window] in unforced_windows(op, evo):
            del states  # dropped before the next window is solved: only norms are written
    if not np.all(np.isfinite(norms)):
        i = int(np.argmin(np.isfinite(norms)))
        raise NumericalError("the norm at t = %g is %r: the states overflowed (kernel.B = %g, "
                             "run.u0 %r)" % (evo.times[i], float(norms[i]), cfg.b, cfg.u0_spec))
    t1, n1 = float(evo.times[0]), float(norms[0])
    if not n1 > 0.0:
        raise ConfigurationError("run.u0 %r has norm %r at t_min = %g; the anchored bounds "
                                 "need a positive one" % (cfg.u0_spec, n1, t1))
    scale = ANCHOR_SAFETY * n1
    bound_ag = scale * (evo.times / t1) ** (-cfg.alpha * cfg.gamma)
    bound_g = scale * (evo.times / t1) ** (-cfg.gamma)
    table = DecayTable(
        times=evo.times,
        norms=norms,
        bound_alpha_gamma=bound_ag,
        bound_gamma=bound_g,
        local_exponent=np.full(cfg.t_count, np.nan),
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
    # the rows whose two neighbours both have a finite log
    i = np.flatnonzero(np.isfinite(logn[2:]) & np.isfinite(logn[:-2])) + 1
    expo[i] = -(logn[i + 1] - logn[i - 1]) / (logt[i + 1] - logt[i - 1])
    return replace(table, local_exponent=expo)


@dataclass
class ProbeResult:
    radii: np.ndarray
    values: np.ndarray
    slope: float


def caputo_probe(alpha: float, lam: float = 0.0, theta: float = DEFAULT_THETA) -> ProbeResult:
    """Tabulate g(s) = |s^(alpha-1)/(s^alpha + lam)| along the ray arg s = theta.

    This is the modulus the constant-order inversion integrand carries
    when 0 is in the spectrum (lam = 0): it diverges like |s|^(-1), so
    the inversion integral cannot converge near the origin.  g is sampled
    at PROBE_RADII; the fitted slope is least squares over its two
    smallest decades.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError("alpha must lie in (0, 1), got %r" % alpha)
    if lam < 0.0:
        raise ConfigurationError("lambda must be nonnegative, got %r" % lam)
    if not 0.0 <= theta < math.pi:
        raise ConfigurationError("theta must lie in [0, pi), got %r" % theta)
    s = PROBE_RADII * np.exp(1j * theta)
    g = np.abs(s ** (alpha - 1.0) / (s**alpha + lam))
    logr = np.log10(PROBE_RADII)
    slope = _decade_slope(logr, np.log10(g), logr[0], logr[0] + 2.0)
    return ProbeResult(radii=PROBE_RADII.copy(), values=g, slope=slope)


# --- output -----------------------------------------------------------------

def _write_table(path, header: str, *columns) -> None:
    """One CSV row per index of the columns: 17 significant digits, '.'
    decimal separator, '\n' line endings, a non-finite value as an empty field.
    """
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join("%.17g" % x if math.isfinite(x) else "" for x in row))
    _write_text(path, "\n".join(lines) + "\n")


def emit_outputs(table: DecayTable, csv_path, svg_path=None) -> None:
    """Write the table as CSV (and optionally a log-log SVG plot).

    CSV: header exactly CSV_HEADER, rows as _write_table formats them, so a
    missing exponent is an empty field.
    """
    _write_table(csv_path, CSV_HEADER, table.times, table.norms,
                 table.bound_alpha_gamma, table.bound_gamma, table.local_exponent)
    if svg_path is not None:
        from fracresolvent.svg import render_decay_svg

        _write_text(svg_path, render_decay_svg(table))


def _write_text(path, content: str) -> None:
    try:
        Path(path).write_text(content, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OutputError("cannot write %s: %s" % (path, exc)) from exc


def run_experiment(config_path) -> int:
    """Dispatch on run.mode, write the outputs, print a summary."""
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
    theta = DEFAULT_THETA if cfg.theta is None else cfg.theta
    if cfg.mode == "caputo":
        result = caputo_probe(cfg.alpha, lam=cfg.lam, theta=theta)
        _write_table(cfg.csv_path, "s_abs,g", result.radii, result.values)
        print("fitted small-|s| slope %.4f over |s| in [%.3g, %.3g] "
              "(alpha=%g, lambda=%g, theta=%.6g); wrote %s"
              % (result.slope, result.radii[0], result.radii[-1], cfg.alpha, cfg.lam,
                 theta, cfg.csv_path))
        if cfg.lam == 0.0:
            print("slope -1 means the inversion integrand is not integrable at the origin")
        return 0
    kernel = KernelParams(kind=cfg.kernel_kind, alpha=cfg.alpha, beta=cfg.beta, b=cfg.b)
    report = estimate_admissibility(kernel, theta=theta)
    _write_table(cfg.csv_path, "s_abs,k_abs", report.radii, report.abs_k)
    print("%s (c0_hat=%.6g, cinf_hat=%.6g, small_s_exponent=%.4f, worst |s|=%.3g); "
          "wrote %s" % (report.message, report.c0_hat, report.cinf_hat,
                        report.small_s_exponent, abs(report.worst_s), cfg.csv_path))
    return 0
