"""Smoke test of the scripts: each loads and its --help exits 0, so a name
one of them imports from ardlab cannot disappear unnoticed."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "name", ["collapse_sweep", "run_suite", "solver_convergence"]
)
def test_script_loads_and_its_help_exits_zero(name, capsys):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    with pytest.raises(SystemExit) as exit_info:
        script.main(["--help"])
    assert exit_info.value.code == 0
    assert "usage:" in capsys.readouterr().out
