"""Smoke test of the scripts: each loads and its --help exits 0, so a name
one of them imports from ardlab cannot disappear unnoticed; collapse_sweep,
which calls the diagnostics directly, also runs one small sweep."""

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


def test_collapse_sweep_prints_one_row_per_rho(capsys):
    argv = ["--rhos", "0.8", "--pairs", "256", "--features", "64"]
    assert _load("collapse_sweep").main(argv) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:3] == ["rho", "deficit", "SE"]
    assert len(rows) == 1
    assert float(rows[0].split()[0]) == 0.8
