"""Config parsing, decay sweeps, probe tables, CSV/SVG emission."""

import dataclasses
import math
import re
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fracresolvent.operators
from fracresolvent.contour import DEFAULT_THETA, build_quadrature, min_theta, time_windows
from fracresolvent.errors import ConfigurationError
from fracresolvent.evolution import (
    check_pairing,
    mild_solution,
    scalar_mode_values,
)
from fracresolvent.experiments import (
    _KEY_TABLE,
    ANCHOR_SAFETY,
    CSV_HEADER,
    DecayTable,
    ExperimentConfig,
    build_evolution_config,
    build_initial_state,
    build_operator,
    caputo_probe,
    emit_outputs,
    load_config,
    local_exponent,
    parse_config,
    run_experiment,
    smoothing_sweep,
)
from fracresolvent.kernels import KernelParams, estimate_admissibility, eval_kernel
from fracresolvent.svg import _log_range, render_decay_svg
from fracresolvent.tridiag import eigenvalues_in

SWEEP_TEXT = """
# homogeneous decay, small mesh for test speed
run.mode = smoothing
operator.kind = kimura
operator.n = 48
kernel.kind = abc
kernel.alpha = 0.5
run.gamma = 0.5
run.t_min = 1e-3
run.t_max = 10
run.t_count = 9
"""


@pytest.fixture(scope="module")
def sweep_table():
    return smoothing_sweep(parse_config(SWEEP_TEXT))


# --- parsing -----------------------------------------------------------------

def test_parse_full_config():
    cfg = parse_config(
        "run.mode = smoothing\n"
        "operator.kind = bessel   # trailing comment\n"
        "operator.n = 120\n"
        "operator.nu = 0.5\n"
        "operator.r_max = 15\n"
        "\n"
        "kernel.kind = w\n"
        "kernel.alpha = 0.4\n"
        "kernel.beta = 0.9\n"
        "kernel.B = 2.0\n"
        "contour.theta = 2.0\n"
        "contour.n_nodes = 96\n"
        "contour.tol = 1e-6\n"
        "run.gamma = 0.25\n"
        "run.t_min = 0.01\n"
        "run.t_max = 1\n"
        "run.t_count = 5\n"
        "run.u0 = indicator\n"
        "output.csv = a.csv\n"
        "output.svg = a.svg\n"
    )
    assert cfg.operator_kind == "bessel" and cfg.n == 120
    assert cfg.nu == 0.5 and cfg.r_max == 15.0
    assert cfg.kernel_kind == "w" and cfg.beta == 0.9 and cfg.b == 2.0
    assert cfg.theta == 2.0 and cfg.n_nodes == 96 and cfg.tol == 1e-6
    assert cfg.gamma == 0.25 and cfg.t_count == 5
    assert cfg.u0_spec == "indicator"
    assert cfg.csv_path == "a.csv" and cfg.svg_path == "a.svg"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigurationError, match="line 2"):
        parse_config("run.mode = smoothing\njust words\n")
    with pytest.raises(ConfigurationError, match="line 3: unknown key 'run.modes'"):
        parse_config("\n# c\nrun.modes = smoothing\n")
    with pytest.raises(ConfigurationError, match="line 2: duplicate key"):
        parse_config("kernel.alpha = 0.5\nkernel.alpha = 0.6\n")
    with pytest.raises(ConfigurationError, match="line 1: bad value"):
        parse_config("operator.n = ten\n")


@pytest.mark.parametrize("mode, key", (("caputo", "operator.n"), ("caputo", "kernel.kind"),
                                       ("admissibility", "run.lambda"),
                                       ("smoothing", "run.lambda")))
def test_parse_refuses_keys_the_mode_does_not_read(mode, key):
    value = {"kernel.kind": "w"}.get(key, "2")
    text = "run.mode = %s\n%s = %s\n" % (mode, key, value)
    with pytest.raises(ConfigurationError,
                       match="line 2: %s mode does not read '%s'" % (mode, re.escape(key))):
        parse_config(text)
    # the mode may come after the key; the refusal still names the key's line
    with pytest.raises(ConfigurationError, match="line 1: %s mode" % mode):
        parse_config("%s = %s\nrun.mode = %s\n" % (key, value, mode))


def test_readme_config_table_lists_every_key_with_its_modes():
    """The README's config table has one row per key group and a 'read by' column."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config format", 1)[1].split("\n## ", 1)[0]
    rows = [ln.split("|")[1:-1] for ln in section.splitlines() if ln.startswith("| `")]
    documented = {}
    for cells in rows:
        readers = tuple(m.strip() for m in cells[-1].split(","))
        for key in re.findall(r"`([a-z_]+\.\w+)`", cells[0]):
            documented[key] = readers
    assert documented == {key: modes for key, (_, _, modes) in _KEY_TABLE.items()}


def test_parse_rejects_off_menu_values():
    with pytest.raises(ConfigurationError, match="built in code"):
        parse_config("operator.kind = diagonal\n")
    with pytest.raises(ConfigurationError, match="kimura or bessel"):
        parse_config("operator.kind = heat\n")
    with pytest.raises(ConfigurationError, match="abc or w, or caputo_probe"):
        parse_config("kernel.kind = mittag\n")
    with pytest.raises(ConfigurationError, match="run.mode must be one of"):
        parse_config("run.mode = decay\n")
    # an off-menu value is refused at its line, before a later line's fault
    with pytest.raises(ConfigurationError, match="kimura or bessel"):
        parse_config("operator.kind = heat\nfoo.bar = 1\n")


@pytest.mark.parametrize("key, value, refusal", (
    ("run.mode", "decay", "run.mode must be one of smoothing, caputo, admissibility"),
    ("operator.kind", "heat", "operator.kind must be kimura or bessel (diagonal operators are "
                              "built in code, not from configs)"),
    ("kernel.kind", "mittag", "kernel.kind must be abc or w, or caputo_probe in admissibility "
                              "mode"),
))
def test_off_menu_value_names_its_line(monkeypatch, key, value, refusal):
    """The parser refuses an off-menu value with its line number and the text a config
    built in code gets, and builds no config but its result."""
    with pytest.raises(ConfigurationError) as parsed:
        parse_config("kernel.alpha = 0.5\n# a comment\n%s = %s\n" % (key, value))
    assert str(parsed.value) == "line 3: %s, got %r" % (refusal, value)
    with pytest.raises(ConfigurationError) as built:
        ExperimentConfig(**{_KEY_TABLE[key][0]: value})
    assert str(built.value) == "%s, got %r" % (refusal, value)
    made = []
    check = ExperimentConfig.__post_init__
    monkeypatch.setattr(ExperimentConfig, "__post_init__", lambda cfg: made.append(check(cfg)))
    parse_config("run.mode = smoothing\noperator.kind = bessel\nkernel.kind = w\n")
    assert len(made) == 1


def test_key_table_is_the_fields():
    """Each field carries its key, its converter and its readers; the table is read off them."""
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    assert [attr for attr, _, _ in _KEY_TABLE.values()] == list(fields)
    for key, (attr, conv, readers) in _KEY_TABLE.items():
        assert fields[attr].metadata == {"key": key, "conv": conv, "readers": readers}


def test_config_field_validation():
    with pytest.raises(ConfigurationError, match="run.mode"):
        ExperimentConfig(mode="decay")
    with pytest.raises(ConfigurationError, match="kimura or bessel"):
        ExperimentConfig(operator_kind="heat")
    with pytest.raises(ConfigurationError, match="abc or w, or caputo_probe"):
        ExperimentConfig(kernel_kind="mittag")
    with pytest.raises(ConfigurationError, match="t_count"):
        ExperimentConfig(t_count=2)
    with pytest.raises(ConfigurationError, match="t_min"):
        ExperimentConfig(t_min=0.0)
    with pytest.raises(ConfigurationError, match="t_min"):
        ExperimentConfig(t_min=2.0, t_max=1.0)
    with pytest.raises(ConfigurationError, match="lambda"):
        ExperimentConfig(lam=-0.5)


# --- operators / initial states ----------------------------------------------

def test_build_operator_sizes():
    assert build_operator(ExperimentConfig(operator_kind="kimura", n=17)).n == 17
    assert build_operator(ExperimentConfig(operator_kind="bessel", n=12)).n == 12


def test_indicator_profile_interval_mesh():
    # nodes at j/6: the closed middle third picks up exactly 2/6, 3/6, 4/6
    cfg = ExperimentConfig(operator_kind="kimura", n=5, u0_spec="indicator")
    u0 = build_initial_state(cfg, build_operator(cfg))
    assert u0.tolist() == [0.0, 1.0, 1.0, 1.0, 0.0]


def test_sine_profile_symmetry():
    cfg = ExperimentConfig(operator_kind="kimura", n=7)
    u0 = build_initial_state(cfg, build_operator(cfg))
    assert abs(u0[3] - 1.0) <= 1e-15
    assert np.allclose(u0, u0[::-1], atol=1e-12)


def test_bessel_mesh_starts_at_origin():
    cfg = ExperimentConfig(operator_kind="bessel", n=10, u0_spec="indicator")
    u0 = build_initial_state(cfg, build_operator(cfg))
    # radii 0, 2, ..., 18 on [0, 20): middle third catches 8, 10, 12
    assert u0.tolist() == [0, 0, 0, 0, 1, 1, 1, 0, 0, 0]


def test_gaussian_bump_defaults():
    cfg = ExperimentConfig(operator_kind="bessel", n=10, u0_spec="gaussian_bump")
    u0 = build_initial_state(cfg, build_operator(cfg))
    assert int(np.argmax(u0)) == 1  # default center r_max/10 = 2.0 hits node 1
    assert u0[1] == 1.0
    bad = ExperimentConfig(operator_kind="bessel", n=10, u0_spec="gaussian_bump",
                           bump_width=-1.0)
    with pytest.raises(ConfigurationError, match="bump_width"):
        build_initial_state(bad, build_operator(bad))


def test_initial_state_from_file(tmp_path):
    vec = np.linspace(0.0, 1.0, 6)
    p = tmp_path / "u0.txt"
    np.savetxt(p, vec)
    cfg = ExperimentConfig(operator_kind="kimura", n=6, u0_spec=str(p))
    assert np.array_equal(build_initial_state(cfg, build_operator(cfg)), vec)

    short = tmp_path / "short.txt"
    np.savetxt(short, vec[:5])
    cfg2 = ExperimentConfig(operator_kind="kimura", n=6, u0_spec=str(short))
    with pytest.raises(ConfigurationError, match="shape"):
        build_initial_state(cfg2, build_operator(cfg2))

    cfg3 = ExperimentConfig(operator_kind="kimura", n=6, u0_spec="no_such_profile")
    with pytest.raises(ConfigurationError, match="sin_pi_x"):
        build_initial_state(cfg3, build_operator(cfg3))


def test_build_evolution_config_theta_rescale():
    cfg = ExperimentConfig(theta=2.0, n_nodes=96)
    u0 = np.ones(3)
    evo = build_evolution_config(cfg, u0)
    assert evo.contour.theta == 2.0 and evo.contour.n_nodes == 96
    assert evo.times.size == cfg.t_count
    assert math.isclose(evo.times[0], cfg.t_min, rel_tol=1e-12)
    assert math.isclose(evo.times[-1], cfg.t_max, rel_tol=1e-12)
    assert evo.u0 is u0


def test_build_evolution_config_widens_default_theta():
    """At the default angle a large alpha still gets the wider contour it needs."""
    evo = build_evolution_config(ExperimentConfig(alpha=0.85), np.ones(4))
    assert evo.contour.theta == pytest.approx(min_theta(0.85), rel=1e-12)
    assert evo.contour.theta > DEFAULT_THETA
    check_pairing(evo)


# --- decay tables -------------------------------------------------------------

def test_sweep_is_anchored_and_bounded(sweep_table):
    t = sweep_table
    assert t.n_rows == 9
    assert t.bound_alpha_gamma[0] == ANCHOR_SAFETY * t.norms[0]
    assert t.bound_gamma[0] == t.bound_alpha_gamma[0]
    assert t.bound_satisfied()
    assert np.all(t.norms > 0.0)


def test_sweep_exponent_column(sweep_table):
    e = sweep_table.local_exponent
    assert math.isnan(e[0]) and math.isnan(e[-1])
    assert np.all(np.isfinite(e[1:-1]))


def _spectral_norms(cfg, windowed=True):
    """||A^gamma V(t) u0||_M of the sweep's times, V(t) from the mode values (no solves).

    Each time is inverted on its window's contour, as the sweep does;
    windowed=False gives every time a contour of its own.
    """
    op = build_operator(cfg)
    u0 = build_initial_state(cfg, op)
    evo = build_evolution_config(cfg, u0)
    lam = op.spectrum()
    windows = (time_windows(evo.contour, evo.times, evo.tol) if windowed
               else [slice(i, i + 1) for i in range(evo.times.size)])
    norms = []
    for window in windows:
        quad = build_quadrature(evo.contour, evo.times[window], evo.tol)
        for t in evo.times[window]:
            values = lam**evo.gamma * scalar_mode_values(quad, evo.kernel, lam, float(t))
            norms.append(op.weighted_norm(op.apply_spectral(values, u0)))
    return np.array(norms)


def _demo(name):
    return load_config(Path(fracresolvent.__file__).parent / "configs" / name)


@pytest.mark.parametrize("demo", ["kimura_abc.cfg", "bessel_w.cfg"])
def test_half_power_sweep_needs_no_eigendecomposition(demo, monkeypatch):
    """A gamma = 1/2 sweep takes its norms from u^T S u, never from an eigenbasis."""
    cfg = _demo(demo)
    assert cfg.gamma == 0.5 and cfg.n == 1000
    reference = _spectral_norms(cfg)

    def refuse(m):
        raise AssertionError("the gamma = 1/2 sweep decomposed an operator")

    monkeypatch.setattr(fracresolvent.operators, "eigh_tridiagonal", refuse)
    norms = smoothing_sweep(cfg).norms
    assert np.max(np.abs(norms - reference) / reference) <= 1e-9


@pytest.mark.parametrize("demo", ["kimura_abc.cfg", "bessel_w.cfg"])
def test_windowed_sweep_is_as_accurate_as_one_contour_per_time(demo):
    """Against the spectral route at tol = 1e-12, one contour per time window
    errs no more than one contour per time (at n = 1000: Kimura 7.4e-11
    against 4.9e-10, Bessel 2.9e-10 against 1.5e-9)."""
    cfg = _demo(demo)
    reference = _spectral_norms(replace(cfg, tol=1e-12), windowed=False)

    def error(norms):
        return np.max(np.abs(norms - reference) / reference)

    assert error(smoothing_sweep(cfg).norms) <= error(_spectral_norms(cfg, windowed=False))


@pytest.mark.parametrize("demo", ["kimura_abc.cfg", "bessel_w.cfg"])
def test_demo_sweep_is_within_4e_10_of_the_refined_reference(demo):
    """Both demos come within 4e-10 of the spectral route at tol = 1e-12, one contour
    per time (7.4e-11 Kimura, 2.9e-10 Bessel).  A rule errs most at its window's first
    time; windows of at most a decade started one at t = 2.37, where Bessel was
    1.0e-9 off."""
    cfg = _demo(demo)
    reference = _spectral_norms(replace(cfg, tol=1e-12), windowed=False)
    assert np.max(np.abs(smoothing_sweep(cfg).norms - reference) / reference) <= 4e-10


def test_other_power_sweep_matches_spectral_route():
    cfg = parse_config(SWEEP_TEXT.replace("run.gamma = 0.5", "run.gamma = 0.25"))
    assert cfg.gamma == 0.25
    norms = smoothing_sweep(cfg).norms
    reference = _spectral_norms(cfg)
    assert np.max(np.abs(norms - reference) / reference) <= 1e-9


@pytest.mark.parametrize("gamma", (0.0, 0.5, 0.25))
def test_sweep_norms_are_the_mild_solution_norms(gamma):
    """The sweep takes its norms window by window from unforced_windows.  They equal
    the norms of the unforced mild_solution bit for bit at gamma 0 and 1/2, and within
    1e-15 at 1/4, where BLAS may block a window's eigenbasis products differently."""
    cfg = parse_config(SWEEP_TEXT.replace("operator.n = 48", "operator.n = 300")
                       .replace("run.t_count = 9", "run.t_count = 33")
                       .replace("run.gamma = 0.5", "run.gamma = %r" % gamma))
    op = build_operator(cfg)
    evo = build_evolution_config(cfg, build_initial_state(cfg, op))
    assert len(time_windows(evo.contour, evo.times, evo.tol)) > 1
    norms, want = smoothing_sweep(cfg).norms, mild_solution(op, evo).smoothed_norms
    if gamma == 0.25:
        assert np.max(np.abs(norms - want) / want) <= 1e-15
    else:
        assert norms.tobytes() == want.tobytes()


@pytest.mark.parametrize("gamma", (0.0, 0.5))
def test_sweep_holds_one_window_of_states(gamma):
    """A 33-time sweep on a 20,000-node mesh traces a peak below 10 MB: it holds one
    window's states at a time.  Keeping the run's (33, n) states (5.3 MB) and taking
    the norms of all of them at once peaks at 16.5 MB (gamma = 0) and 12.8 MB (1/2)."""
    cfg = ExperimentConfig(n=20_000, gamma=gamma)
    assert cfg.t_count == 33
    tracemalloc.start()
    try:
        smoothing_sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_half_power_sweep_counts_sturm_once(monkeypatch, no_whole_spectrum):
    """A gamma = 1/2 sweep of several windows checks the pencil for PSD once per run,
    and asks for no whole spectrum."""
    calls = []
    counting = lambda m, lo, hi: calls.append(hi) or eigenvalues_in(m, lo, hi)
    monkeypatch.setattr(fracresolvent.operators, "eigenvalues_in", counting)
    cfg = parse_config(SWEEP_TEXT)
    evo = build_evolution_config(cfg, np.ones(cfg.n))
    assert cfg.gamma == 0.5 and len(time_windows(evo.contour, evo.times, evo.tol)) > 1
    smoothing_sweep(cfg)
    assert len(calls) == 1


def test_local_exponent_recovers_power_law():
    t = np.logspace(0.0, 2.0, 11)
    table = DecayTable(
        times=t, norms=t ** -0.7,
        bound_alpha_gamma=np.ones(11), bound_gamma=np.ones(11),
        local_exponent=np.full(11, np.nan),
    )
    out = local_exponent(table)
    assert np.allclose(out.local_exponent[1:-1], 0.7, atol=1e-10)
    assert math.isnan(out.local_exponent[0]) and math.isnan(out.local_exponent[-1])


def test_local_exponent_matches_row_loop_bitwise():
    """The vectorised centred difference makes the same IEEE operations as a row loop."""
    rng = np.random.default_rng(23)
    norms = rng.uniform(1e-3, 1.0, 17)
    norms[[3, 9, 10]] = 0.0
    table = DecayTable(times=np.logspace(-3.0, 1.0, 17), norms=norms,
                       bound_alpha_gamma=np.ones(17), bound_gamma=np.ones(17),
                       local_exponent=np.full(17, np.nan))
    logt, logn = np.log(table.times), np.log(np.maximum(norms, 1e-300))
    expected = np.full(17, np.nan)
    for i in range(1, 16):
        if norms[i - 1] > 0.0 and norms[i + 1] > 0.0:
            expected[i] = -(logn[i + 1] - logn[i - 1]) / (logt[i + 1] - logt[i - 1])
    assert np.array_equal(local_exponent(table).local_exponent, expected, equal_nan=True)


def test_local_exponent_skips_zero_neighbors():
    t = np.logspace(0.0, 2.0, 11)
    norms = t ** -0.7
    norms[5] = 0.0
    table = DecayTable(
        times=t, norms=norms,
        bound_alpha_gamma=np.ones(11), bound_gamma=np.ones(11),
        local_exponent=np.full(11, np.nan),
    )
    e = local_exponent(table).local_exponent
    assert math.isnan(e[4]) and math.isnan(e[6])
    assert np.isclose(e[5], 0.7)  # centered window skips the zero itself

    tiny = DecayTable(
        times=np.array([1.0, 2.0]), norms=np.ones(2),
        bound_alpha_gamma=np.ones(2), bound_gamma=np.ones(2),
        local_exponent=np.full(2, np.nan),
    )
    with pytest.raises(ConfigurationError, match="3 rows"):
        local_exponent(tiny)


def test_table_validation():
    one = np.ones(2)
    with pytest.raises(ConfigurationError, match="increasing"):
        DecayTable(times=np.array([2.0, 1.0]), norms=one,
                   bound_alpha_gamma=one, bound_gamma=one, local_exponent=one)
    with pytest.raises(ConfigurationError, match="finite"):
        DecayTable(times=np.array([1.0, 2.0]), norms=np.array([1.0, np.inf]),
                   bound_alpha_gamma=one, bound_gamma=one, local_exponent=one)
    with pytest.raises(ConfigurationError, match="nonempty"):
        DecayTable(times=np.empty(0), norms=np.empty(0),
                   bound_alpha_gamma=np.empty(0), bound_gamma=np.empty(0),
                   local_exponent=np.empty(0))


# --- CSV round trip -----------------------------------------------------------

def test_csv_round_trip(sweep_table, tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    emit_outputs(sweep_table, first)
    text = first.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].endswith(",")  # first exponent is undefined -> empty field
    back = DecayTable(*np.genfromtxt(first, delimiter=",", skip_header=1, unpack=True))
    assert np.array_equal(back.times, sweep_table.times)
    assert np.array_equal(back.norms, sweep_table.norms)
    assert np.array_equal(back.bound_alpha_gamma, sweep_table.bound_alpha_gamma)
    assert np.array_equal(back.bound_gamma, sweep_table.bound_gamma)
    assert np.array_equal(back.local_exponent, sweep_table.local_exponent,
                          equal_nan=True)
    emit_outputs(back, second)
    assert first.read_bytes() == second.read_bytes()


# --- caputo probe --------------------------------------------------------------

def test_probe_zero_lambda_slope():
    res = caputo_probe(0.5, lam=0.0)
    # |K(s)/s^(alpha-1)| / |s^alpha| = |s|^(-1) exactly: pure power law
    assert abs(res.slope + 1.0) <= 1e-9
    assert res.radii.size == 49


def test_probe_positive_lambda():
    res = caputo_probe(0.5, lam=1.0, theta=0.0)
    assert res.radii[-1] == pytest.approx(1e-2, rel=1e-15)
    # g(1e-2) = 10 / (0.1 + 1) on the real axis
    assert abs(res.values[-1] - 10.0 / 1.1) <= 1e-15 * (10.0 / 1.1)
    assert abs(res.slope + 0.5) <= 2e-2  # small-|s| behavior ~ |s|^(alpha-1)


def test_probe_validation():
    for bad_alpha in (0.0, 1.0, -0.3):
        with pytest.raises(ConfigurationError, match="alpha"):
            caputo_probe(bad_alpha)
    with pytest.raises(ConfigurationError, match="lambda"):
        caputo_probe(0.5, lam=-1.0)
    with pytest.raises(ConfigurationError, match="theta"):
        caputo_probe(0.5, theta=math.pi)


# --- run_experiment dispatch ----------------------------------------------------

def test_run_caputo_mode(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "probe.cfg"
    cfg.write_text("run.mode = caputo\nkernel.alpha = 0.5\noutput.csv = probe.csv\n")
    assert run_experiment(cfg) == 0
    out = capsys.readouterr().out
    assert "fitted small-|s| slope -1.0000" in out
    lines = (tmp_path / "probe.csv").read_text().splitlines()
    assert lines[0] == "s_abs,g" and len(lines) == 50


def test_run_admissibility_mode(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "adm.cfg"
    cfg.write_text(
        "run.mode = admissibility\nkernel.kind = w\nkernel.alpha = 0.5\n"
        "kernel.beta = 0.8\noutput.csv = adm.csv\n"
    )
    assert run_experiment(cfg) == 0
    out = capsys.readouterr().out
    assert "c0_hat=" in out and "wrote adm.csv" in out
    lines = (tmp_path / "adm.csv").read_text().splitlines()
    assert lines[0] == "s_abs,k_abs" and len(lines) == 257
    report = estimate_admissibility(KernelParams(kind="w", alpha=0.5, beta=0.8))
    table = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(table[:, 0], report.radii)
    assert np.array_equal(table[:, 1], report.abs_k)


def test_admissibility_mode_evaluates_the_kernel_once(tmp_path, capsys, monkeypatch):
    """The written table is the verdict's own sample: one kernel evaluation per run."""
    monkeypatch.chdir(tmp_path)
    calls = []

    def counting(params, s):
        calls.append(np.shape(s))
        return eval_kernel(params, s)

    for name, module in list(sys.modules.items()):
        # every binding of the function, also names imported from kernels
        if name.startswith("fracresolvent") and getattr(module, "eval_kernel", 0) is eval_kernel:
            monkeypatch.setattr(module, "eval_kernel", counting)
    cfg = tmp_path / "adm.cfg"
    cfg.write_text("run.mode = admissibility\nkernel.kind = w\nkernel.beta = 0.8\n")
    assert run_experiment(cfg) == 0
    capsys.readouterr()
    assert calls == [(256,)]


# --- svg ------------------------------------------------------------------------

def test_svg_contract(sweep_table):
    svg = render_decay_svg(sweep_table)
    assert svg.startswith("<svg ") and svg.endswith("</svg>\n")
    assert svg.count("<polyline ") == 3
    for label in ("norm", "bound_alpha_gamma", "bound_gamma"):
        assert ">%s</text>" % label in svg
    assert "script" not in svg
    assert render_decay_svg(sweep_table) == svg  # deterministic


def test_svg_needs_positive_data():
    t = np.array([1.0, 2.0, 4.0])
    table = DecayTable(
        times=t, norms=np.zeros(3),
        bound_alpha_gamma=np.zeros(3), bound_gamma=np.zeros(3),
        local_exponent=np.full(3, np.nan),
    )
    with pytest.raises(ValueError, match="positive"):
        render_decay_svg(table)
    with pytest.raises(ValueError, match="nothing positive to plot"):
        _log_range([np.array([0.0, 3.0, np.inf])])


def test_svg_flat_range_and_sparse_series():
    """A flat range is widened half a decade each way before the 4% pad; a series with
    fewer than 2 positive points draws no polyline but keeps its legend entry."""
    assert _log_range([np.full(3, 10.0)]) == pytest.approx((0.46, 1.54), rel=1e-15)
    t = np.array([1.0, 2.0, 4.0])
    table = DecayTable(times=t, norms=np.array([1.0, 0.0, 0.0]),
                       bound_alpha_gamma=np.ones(3), bound_gamma=np.ones(3),
                       local_exponent=np.full(3, np.nan))
    svg = render_decay_svg(table)
    polylines = [line for line in svg.splitlines() if line.startswith("<polyline ")]
    assert len(polylines) == 2 and not any("#1f77b4" in line for line in polylines)
    assert ">norm</text>" in svg
