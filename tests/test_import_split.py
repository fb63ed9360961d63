"""The production path imports no numpy; the quadrature oracle loads it only where it runs.

The closed-form commands also start without ``dataclasses`` and ``inspect``,
which cost a fresh process milliseconds of import time; ``verify`` loads
``inspect`` through numpy.

Each check runs in a fresh process, because a module imported anywhere in
the test session stays in ``sys.modules``.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tunedsource import cli

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
ORACLE = ("numpy", "tunedsource.quadrature", "tunedsource.specfun", "tunedsource.theorems")
STARTUP = ("dataclasses", "inspect")

# runs ``python -m tunedsource <argv>``, then prints which oracle and STARTUP modules it loaded
_PROBE = """
import json, runpy, sys
sys.argv = ["tunedsource", *json.loads(sys.argv[1])]
try:
    runpy.run_module("tunedsource", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "loaded": [m for m in %r if m in sys.modules],
                  "startup": [m for m in %r if m in sys.modules]}), file=sys.stderr)
""" % (ORACLE, STARTUP)


def package_env():
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def probe(command, config, tmp_path):
    argv = [command, "--config", str(config), "--out", str(tmp_path / "report.csv")]
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv)], capture_output=True,
                          text=True, env=package_env(), timeout=120)
    return json.loads(proc.stderr.splitlines()[-1])


@pytest.mark.parametrize("command", ["sweep", "energies", "tune"])
def test_closed_form_commands_start_without_numpy(command, tmp_path):
    codes = []
    for config in CONFIGS:
        result = probe(command, config, tmp_path)
        assert result["loaded"] == [], (command, config.name)
        assert result["startup"] == [], (command, config.name)
        codes.append(result["code"])
    assert 0 in codes  # at least one checked-in config is a real run of this command


@pytest.mark.parametrize("command", ["sweep", "energies"])
def test_near_diagonal_cells_start_without_numpy(command, tmp_path):
    # chi = +-1e-9 k^2 / mu_omega puts every cell in the band where Lommel's
    # difference cancels (estimate ~1e-7 > 1e-12); the near-diagonal series
    # serves them, not quadrature
    chis = [-1e-9, 1e-9]
    config = {
        "substrate": {"epsilon_r": 1.0, "mu_r": 1.0, "omega": 1.0, "a": 2.0},
        "modes": {"j": [1, 2], "l": [1, 6]},
        "chi_values": chis,
        "sweep": {"axis": "chi", "values": chis},
        "amplitudes": [{"j": 2, "l": 1, "re": 1.0}, {"j": 2, "l": 6, "re": 0.5}],
    }
    path = tmp_path / "near_diagonal.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    result = probe(command, path, tmp_path)
    assert result["code"] in (0, 1)  # a report was written
    assert result["loaded"] == []


@pytest.mark.parametrize("command", ["sweep", "energies", "tune"])
def test_small_bessel_arguments_start_without_numpy(command, tmp_path):
    # a = 0.05 and the roots chi = +-0.5 k^2 / mu_omega put every k a and K a
    # below 0.1, where the columns take the ascending series
    config = {
        "substrate": {"epsilon_r": 1.0, "mu_r": 1.0, "omega": 1.0, "a": 0.05},
        "modes": {"j": [1, 2], "l": [1, 6]},
        "sweep": {"axis": "chi", "values": [-0.5, 0.5]},
        "amplitudes": [{"j": 2, "l": 1, "re": 1.0}, {"j": 1, "l": 6, "re": 0.5}],
        "xi_search": {"lo": -0.75, "hi": 0.75, "grid_n": 31, "tol": 1e-12,
                      "table": [[-1.0, 0.5], [-0.5, 0.0], [0.0, -0.25], [0.5, 0.0], [1.0, 0.5]]},
    }
    path = tmp_path / "small_arguments.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    cfg = cli.load_config(str(path), command=command)
    assert max(cfg.substrate.k * cfg.substrate.a, 1.5**0.5 * cfg.substrate.a) < 0.1
    result = probe(command, path, tmp_path)
    assert result["code"] == 0
    assert result["loaded"] == []


@pytest.mark.parametrize("config", ["verify_vacuum.json", "verify_strict.json"])
def test_verify_loads_the_oracle(config, tmp_path):
    result = probe("verify", ROOT / "configs" / config, tmp_path)
    assert result["code"] in (0, 1)  # verify_strict.json has failing rows by design
    assert result["loaded"] == list(ORACLE)


# imports theorems, runs tests/certify_bounds.py (criterion 03's grid and expansion_j2) and then one
# expansion_fd call, and prints the package and numpy modules loaded after each step as its last line
_CERTIFY = """
import json, runpy, sys

def loaded():
    return sorted(m for m in sys.modules if m == "numpy" or m.startswith("tunedsource."))

import tunedsource.theorems
steps = {"import": loaded()}
runpy.run_path(sys.argv[1], run_name="__main__")
steps["certify"] = loaded()
tunedsource.theorems.expansion_fd(2, 2, 1.0, 2.0, 1.0)
steps["expansion_fd"] = loaded()
print(json.dumps(steps))
"""
# runs a script where numpy cannot be imported, as in an environment without it
_NO_NUMPY = "import runpy, sys; sys.modules['numpy'] = None; runpy.run_path(sys.argv[1], run_name='__main__')"


def test_theorems_certifies_boundedness_without_numpy():
    # importing theorems loaded numpy, 0.07 s of a 0.13 s start; numpy now loads on the first Bessel table or integral
    script = str(ROOT / "tests" / "certify_bounds.py")
    proc = subprocess.run([sys.executable, "-c", _CERTIFY, script], capture_output=True, text=True,
                          env=package_env(), timeout=120, check=True)
    *report, steps = proc.stdout.splitlines()
    oracle = ["tunedsource.errors", "tunedsource.model", "tunedsource.quadrature", "tunedsource.scalar",
              "tunedsource.specfun", "tunedsource.theorems"]
    assert json.loads(steps) == {"import": oracle, "certify": oracle, "expansion_fd": ["numpy", *oracle]}
    assert report[-1].startswith(f"cells {2 * 6 * 8 * 4 * 3 * 21} failing 0 sha256 ")
    bare = subprocess.run([sys.executable, "-c", _NO_NUMPY, script], capture_output=True, text=True,
                          env=package_env(), timeout=120, check=True)
    assert bare.stdout.splitlines() == report


def test_package_import_loads_its_records_only():
    code = "import json, sys, tunedsource; print(json.dumps(sorted(m for m in sys.modules if m.startswith('tunedsource'))))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=package_env(), timeout=120, check=True)
    assert json.loads(proc.stdout) == ["tunedsource", "tunedsource.errors", "tunedsource.model", "tunedsource.scalar"]


def test_theorems_exports_only_its_own_names():
    from tunedsource import theorems

    assert [name for name in theorems.__all__ if getattr(theorems, name).__module__ != theorems.__name__] == []


def test_package_attributes_resolve_lazily():
    import tunedsource

    for name in ("cli", "quadrature", "specfun", "theorems", "tuning"):
        assert getattr(tunedsource, name) is importlib.import_module(f"tunedsource.{name}")
    with pytest.raises(AttributeError):
        tunedsource.no_such_module


def _report_configs(tmp_path, monkeypatch):
    """(command, path) of every checked-in config and of one benchmark pass at seed 1."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    rounds = importlib.import_module("run").PASS_CLI_ROUNDS
    out = [(command, path) for path in CONFIGS for command in ("verify", "energies", "sweep", "tune")]
    for index in range(rounds):
        for command, config in workloads.cli_round(1, index, rounds):
            path = tmp_path / f"r{index}_{command}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            out.append((command, path))
    return out


def test_report_values_are_builtin_types(tmp_path, monkeypatch):
    # rendering relies on it: a numpy bool would print as True, and json cannot encode it
    builtin = (bool, int, float, str, type(None))
    values = 0
    for command, path in _report_configs(tmp_path, monkeypatch):
        try:
            cfg = cli.load_config(str(path), command=command)
        except cli.ConfigError:
            continue
        _, _, rows = getattr(cli, f"run_{command}")(cfg)
        for row in rows:
            assert all(type(v) in builtin for v in row), (command, path.name, row)
            values += len(row)
    assert values > 7000
