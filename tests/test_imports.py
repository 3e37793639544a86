"""The package imports a submodule only when one of its names is used, and a
CLI call loads only the modules its subcommand runs, with no `dataclasses`."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import schreierkit
from schreierkit import cli, verify

SRC = Path(__file__).resolve().parents[1] / "src"

# run the CLI as `python -m schreierkit.cli` would, then report the package
# and standard-library modules it loaded
_PROBE = """
import json, runpy, sys
sys.argv = ["schreierkit"] + sys.argv[1:]
code = 0
try:
    runpy.run_module("schreierkit.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
top = lambda m: m.partition(".")[0]
print(json.dumps([code, sorted(m for m in sys.modules
                               if top(m) == "schreierkit" or top(m) in sys.stdlib_module_names)]))
"""


def loaded_modules(tmp_path, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *args], capture_output=True,
                          text=True, env=env, cwd=str(tmp_path))
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return set(modules)


@pytest.mark.parametrize("kind", ["schreier", "family", "tfamily"])
def test_small_calls_load_no_suite_lp_gauge_or_norm(tmp_path, kind):
    if kind == "schreier":
        args = ["schreier", "--alpha", "1", "--window", "1..3"]
    elif kind == "tfamily":
        args = ["tfamily", "sample", "--n", "5"]
    else:
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"sets": [[1, 2]], "hereditary": None}))
        args = ["family", "--op", "closure", "--input", str(path)]
    loaded = loaded_modules(tmp_path, *args)
    assert "schreierkit.families" in loaded
    heavy = {f"schreierkit.{m}" for m in ("verify", "lp", "interpolation", "norms")}
    assert not loaded & heavy
    assert {"json", "argparse", "fractions"} <= loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_exported_names_are_the_submodules_own_objects():
    for name, module in schreierkit._EXPORTS.items():
        owner = importlib.import_module(f"schreierkit.{module}")
        assert getattr(schreierkit, name) is getattr(owner, name)
        assert name in dir(schreierkit)
    assert schreierkit.Family is schreierkit.families.Family
    assert schreierkit.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        schreierkit.no_such_name


def test_cli_suite_choices_are_the_verify_suites():
    assert cli.SUITE_NAMES == tuple(sorted(verify.SUITES))
