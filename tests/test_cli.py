"""End-to-end command-line behavior, exercised in process via cli.main."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracresolvent

from fracresolvent.cli import build_parser, main
from fracresolvent.experiments import CSV_HEADER

SMALL_SWEEP = """
run.mode = smoothing
operator.kind = kimura
operator.n = 40
kernel.kind = abc
kernel.alpha = 0.5
run.gamma = 0.5
run.t_count = 5
output.csv = sweep.csv
output.svg = sweep.svg
"""


def test_run_small_sweep(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SMALL_SWEEP)
    assert main(["run", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "bound satisfied" in out and "wrote sweep.csv" in out
    assert (tmp_path / "sweep.csv").exists()
    assert (tmp_path / "sweep.svg").exists()


def test_demo_is_deterministic(tmp_path, capsys, monkeypatch):
    """Two runs of the bundled demo must produce byte-identical artifacts."""
    monkeypatch.chdir(tmp_path)
    assert main(["demo", "kimura-abc"]) == 0
    assert "bound satisfied" in capsys.readouterr().out
    first_csv = (tmp_path / "kimura_abc.csv").read_bytes()
    first_svg = (tmp_path / "kimura_abc.svg").read_bytes()
    assert first_csv.decode().splitlines()[0] == CSV_HEADER
    assert main(["demo", "kimura-abc"]) == 0
    capsys.readouterr()
    assert (tmp_path / "kimura_abc.csv").read_bytes() == first_csv
    assert (tmp_path / "kimura_abc.svg").read_bytes() == first_svg


def test_unknown_demo_name_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["demo", "heat-equation"])
    assert info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_bad_kernel_parameter_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        "run.mode = smoothing\noperator.kind = kimura\noperator.n = 10\n"
        "kernel.kind = w\nkernel.alpha = 0.5\nkernel.beta = 1.5\nrun.t_count = 3\n"
    )
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "(0, 1]" in err


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("run.mode = smoothing\nrun.speed = fast\n")
    assert main(["run", str(cfg)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_config_exits_4(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.cfg")]) == 4
    assert capsys.readouterr().err.startswith("i/o error:")


def test_unwritable_output_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SMALL_SWEEP.replace("sweep.csv", "no_dir/sweep.csv"))
    assert main(["run", str(cfg)]) == 4
    assert capsys.readouterr().err.startswith("i/o error:")


def test_underresolved_contour_exits_3(tmp_path, capsys, monkeypatch):
    # the rule for 8 digits needs 30 nodes, over a budget of 16; the
    # node-count gate refuses before any evaluation
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text(SMALL_SWEEP + "contour.n_nodes = 16\n")
    assert main(["run", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error:")
    assert "n_nodes" in err


def test_windows_shrink_to_the_node_budget(tmp_path, capsys, monkeypatch):
    # at tol = 1e-8 the 33-time sweep's neighbours, 1.33 apart, need more than
    # 32 nodes, so no window grows past its lone time, which runs its 30-node rule
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "budget.cfg"
    cfg.write_text(SMALL_SWEEP.replace("run.t_count = 5", "run.t_count = 33")
                   + "contour.n_nodes = 32\ncontour.tol = 1e-8\n")
    assert main(["run", str(cfg)]) == 0
    assert "bound satisfied" in capsys.readouterr().out


def _run_config(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return main(["run", str(cfg)])


def test_cli_surface_is_run_and_demo():
    """The diagnostics are run modes, not subcommands of their own."""
    assert "{run,demo}" in build_parser().format_help()


def test_probe_caputo_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _run_config(tmp_path, "run.mode = caputo\nkernel.alpha = 0.5\n") == 0
    out = capsys.readouterr().out
    assert "fitted small-|s| slope -1.0000" in out
    assert "not integrable at the origin" in out
    assert _run_config(tmp_path, "run.mode = caputo\nkernel.alpha = 0.5\nrun.lambda = 2\n") == 0
    out = capsys.readouterr().out
    assert "slope -0.50" in out
    assert "not integrable" not in out


def test_probe_caputo_rejects_bad_alpha(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _run_config(tmp_path, "run.mode = caputo\nkernel.alpha = 1.5\n") == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_check_admissible_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _run_config(tmp_path, "run.mode = admissibility\nkernel.kind = abc\n"
                                 "kernel.alpha = 0.5\n") == 0
    out = capsys.readouterr().out
    assert "admissible" in out
    assert "c0_hat=" in out and "cinf_hat=" in out and "small_s_exponent=" in out


def test_explicit_default_theta_is_checked_like_any_angle(tmp_path, capsys, monkeypatch):
    """contour.theta = 3pi/4 written out is kept, not widened like an unset angle."""
    monkeypatch.chdir(tmp_path)
    text = ("kernel.alpha = 0.85\ncontour.theta = 2.356194490192345\n"
            "operator.n = 10\nrun.t_count = 3\n")
    assert _run_config(tmp_path, text) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "redirection condition" in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("text, line, mode, key", (
    (SMALL_SWEEP + "run.lambda = 2\n", 11, "smoothing", "run.lambda"),
    ("run.mode = caputo\nkernel.alpha = 0.5\nrun.gamma = 0.9\nkernel.kind = w\n"
     "kernel.beta = 0.3\noperator.n = 7\n", 3, "caputo", "run.gamma"),
), ids=("smoothing", "caputo"))
def test_key_the_mode_does_not_read_exits_2(tmp_path, capsys, monkeypatch, text, line, mode, key):
    """A key that cannot affect the run is refused with its line and the run mode."""
    monkeypatch.chdir(tmp_path)
    assert _run_config(tmp_path, text) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: line %d: %s mode does not read %r" % (line, mode, key))
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("text", (
    "operator.n = 10\nrun.u0 = gaussian_bump\nrun.bump_center = 1000\noutput.svg = g.svg\n",
    "operator.n = 10\nrun.u0 = zeros.txt\n",
    "operator.kind = bessel\noperator.n = 1\nrun.u0 = indicator\n",
), ids=("far-bump", "zeros-file", "bessel-indicator"))
def test_all_zero_initial_state_exits_2(tmp_path, capsys, monkeypatch, text):
    """A state with no nonzero node has no decay to measure; nothing is written."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "zeros.txt").write_text("0\n" * 10)
    assert _run_config(tmp_path, text) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: run.u0")
    assert "zero at every node" in captured.err and captured.out == ""
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("svg", ("output.svg = g.svg\n", ""), ids=("svg", "csv-only"))
def test_underflowing_initial_state_exits_2(tmp_path, capsys, monkeypatch, svg):
    """A state whose norms underflow to zero gives no anchor; nothing is written."""
    monkeypatch.chdir(tmp_path)
    values = ["0"] * 10
    values[3] = "1e-320"
    (tmp_path / "tiny.txt").write_text("\n".join(values) + "\n")
    assert _run_config(tmp_path, "operator.n = 10\nrun.u0 = tiny.txt\n" + svg) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: run.u0 'tiny.txt'")
    assert "t_min" in captured.err and captured.out == ""
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "g.svg").exists()


@pytest.mark.parametrize("text, err", (
    ("kernel.B = 1e200\n", "the norm at t = 0.001 is inf"),
    ("kernel.B = 1e300\nrun.gamma = 0.25\n", "the norm at t = 0.001 is inf"),
    ("run.mode = admissibility\nkernel.B = 1e300\n", "kernel value at s="),
), ids=("smoothing", "smoothing-quarter", "admissibility"))
def test_overflowing_kernel_amplitude_exits_3(tmp_path, capsys, monkeypatch, text, err):
    """A kernel.B the arithmetic overflows on is a numerical error, not a fault of run.u0
    and not a verdict; no warning is raised (pytest makes RuntimeWarning an error) and
    nothing is written."""
    monkeypatch.chdir(tmp_path)
    smoothing = "operator.n = 10\nrun.t_count = 3\n" if "admissibility" not in text else ""
    assert _run_config(tmp_path, smoothing + text) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical error: " + err) and captured.out == ""
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("gamma", ("0.5", "0"))
def test_non_finite_u0_file_is_a_config_error(tmp_path, capsys, monkeypatch, gamma):
    """A NaN in a run.u0 file is refused before the sweep, on both routes."""
    monkeypatch.chdir(tmp_path)
    values = ["%.3f" % (i / 50.0) for i in range(50)]
    values[7] = "nan"
    u0 = tmp_path / "u0.txt"
    u0.write_text("\n".join(values) + "\n")
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(
        "operator.kind = kimura\noperator.n = 50\nrun.gamma = %s\nrun.u0 = %s\n"
        % (gamma, u0)
    )
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(u0) in err and "index 7" in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("content", (b"hello\nworld\n", b"1 2\n3\n", b"\xff\xfe\n1\n"),
                         ids=("text", "ragged", "not-utf8"))
def test_malformed_u0_file_is_a_config_error(tmp_path, capsys, monkeypatch, content):
    """A run.u0 file that is not a table of numbers exits 2 and names the file."""
    monkeypatch.chdir(tmp_path)
    u0 = tmp_path / "u0.txt"
    u0.write_bytes(content)
    assert _run_config(tmp_path, "operator.n = 2\nrun.u0 = %s\n" % u0) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: run.u0 %r" % str(u0))
    assert "readable table of numbers" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "out.csv").exists()


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    """A config that is not UTF-8 exits 2, naming the file and the bad byte's offset."""
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"run.mode = smoothing\n# caf\xe9\n")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config %s" % cfg)
    assert "byte 0xe9 at offset 26" in err and "Traceback" not in err


@pytest.mark.parametrize("key, value", (("run.t_max", "inf"), ("kernel.B", "inf"),
                                        ("contour.tol", "nan"), ("run.gamma", "-inf")))
def test_non_finite_float_key_is_a_config_error(tmp_path, capsys, monkeypatch, key, value):
    """inf and nan parse as floats; every float key refuses them with its line."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "inf.cfg"
    cfg.write_text("operator.kind = kimura\noperator.n = 10\nrun.t_count = 3\n%s = %s\n"
                   % (key, value))
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: line 4:") and repr(key) in err and "finite" in err
    assert not (tmp_path / "out.csv").exists()


def test_cli_import_spares_scipy_integrate():
    """The CLI imports no scipy.integrate (a quarter of a second at start-up)."""
    probe = "import sys, fracresolvent.cli; print('scipy.integrate' in sys.modules)"
    src = str(Path(fracresolvent.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert done.stdout.strip() == "False"
