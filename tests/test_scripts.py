"""Smoke test of the scripts: each loads and its --help exits 0, so a name
one of them imports from ardlab cannot disappear unnoticed; collapse_sweep,
which calls the diagnostics directly, also runs one small sweep,
solver_convergence shows Heun's second order, and run_suite refuses an
unknown preset name as a usage error."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.mark.parametrize(
    "name", ["collapse_sweep", "run_suite", "solver_convergence"]
)
def test_script_loads_and_its_help_exits_zero(name, capsys):
    script = _load(name)
    with pytest.raises(SystemExit) as exit_info:
        script.main(["--help"])
    assert exit_info.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_run_suite_rejects_an_unknown_name_before_running_any(tmp_path, capsys):
    argv = ["--names", "prop2-audit,lemma1-audt", "--output-dir", str(tmp_path)]
    with pytest.raises(SystemExit) as exit_info:
        _load("run_suite").main(argv)
    assert exit_info.value.code == 2
    assert "lemma1-audt" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_collapse_sweep_prints_one_row_per_rho(capsys):
    argv = ["--rhos", "0.8", "--pairs", "256", "--features", "64"]
    assert _load("collapse_sweep").main(argv) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:3] == ["rho", "deficit", "SE"]
    assert len(rows) == 1
    assert float(rows[0].split()[0]) == 0.8


def test_solver_convergence_shows_second_order_ratios(capsys):
    # halving the step of a second-order solver quarters its error
    assert _load("solver_convergence").main(["--max-steps", "32"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["steps", "rms", "error", "ratio"]
    assert [int(row.split()[0]) for row in rows] == [8, 16, 32]
    ratios = [float(row.split()[2]) for row in rows[1:]]
    assert len(ratios) == 2
    assert all(3.5 <= ratio <= 4.6 for ratio in ratios)
