"""End-to-end command-line behavior, exercised in process via cli.main."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracresolvent

from fracresolvent.cli import main
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


def test_probe_caputo_stdout(capsys):
    assert main(["probe-caputo", "--alpha", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "fitted small-|s| slope: -1.0000" in out
    assert "not integrable at the origin" in out
    assert main(["probe-caputo", "--alpha", "0.5", "--lambda", "2.0"]) == 0
    out = capsys.readouterr().out
    assert "slope: -0.50" in out
    assert "not integrable" not in out


def test_probe_caputo_rejects_bad_alpha(capsys):
    assert main(["probe-caputo", "--alpha", "1.5"]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_check_admissible_stdout(capsys):
    assert main(["check-admissible", "--kernel", "abc", "--alpha", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "admissible" in out
    assert "c0_hat=" in out and "cinf_hat=" in out and "small_s_exponent=" in out


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
