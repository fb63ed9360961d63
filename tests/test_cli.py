"""Config validation, report determinism, exit codes, and subcommand behavior."""

import collections
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mp_lommel
import pytest

from tunedsource import cli, theorems, tuning
from tunedsource.errors import ConfigError, DegenerateModeError, EvanescentRegimeError, InvalidInputError
from tunedsource.model import Substrate, tuned_wavenumber
from tunedsource.scalar import validate_tol

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def package_env():
    """The environment with the imported package's source directory on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def base_config(**overrides):
    cfg = {
        "substrate": {"epsilon_r": 1.0, "mu_r": 1.0, "omega": 1.0, "a": 2.0},
        "modes": {"j": [1, 2], "l": {"lo": 1, "hi": 2}},
        "chi_values": [-0.08, 0.0, 0.08],
        "tolerances": {"quad_rel_tol": 1e-12, "margin_tol": 1e-9},
        "output": {"format": "csv"},
    }
    cfg.update(overrides)
    return cfg


class TestConfigValidation:
    def test_missing_field_path(self, tmp_path):
        payload = base_config()
        del payload["substrate"]["omega"]
        with pytest.raises(ConfigError, match=r"substrate\.omega"):
            cli.load_config(write_config(tmp_path, payload), command="verify")

    def test_single_negative_medium_cites_requirement(self, tmp_path):
        payload = base_config()
        payload["substrate"]["epsilon_r"] = -1.0
        with pytest.raises(ConfigError, match=r"epsilon_r \* mu_r > 0"):
            cli.load_config(write_config(tmp_path, payload), command="verify")

    def test_json_parse_error_line_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "substrate": [,]\n}', encoding="utf-8")
        with pytest.raises(ConfigError, match=r"line 2"):
            cli.load_config(str(path), command="verify")

    @pytest.mark.parametrize("field", [("substrate", "omega"), ("chi_values", 1), ("tolerances", "quad_rel_tol")])
    def test_integer_too_large_for_a_float(self, tmp_path, field):
        # math.isfinite(10**400) raised OverflowError from the number rule, a traceback and exit 1
        payload = base_config()
        payload[field[0]][field[1]] = 10**400
        where = f"{field[0]}[1]" if field[1] == 1 else f"{field[0]}.{field[1]}"
        with pytest.raises(ConfigError) as info:
            cli.load_config(write_config(tmp_path, payload), command="verify")
        assert str(info.value) == f"{where}: value must be finite, got a value too large for a float"

    @pytest.mark.parametrize("digits", [400, 5000])
    @pytest.mark.parametrize("command,config", [("verify", "verify_vacuum"), ("sweep", "sweep_chi_dng"),
                                                ("energies", "energies_tuned"), ("tune", "energies_tuned")])
    def test_huge_integer_exits_2(self, tmp_path, command, config, digits):
        # the command's own config with omega an integer: past 4300 digits json.load raised a ValueError
        # that is no JSONDecodeError, below it the number rule raised OverflowError, each a traceback and exit 1
        text = (CONFIG_DIR / f"{config}.json").read_text(encoding="utf-8")
        text, replaced = re.subn(r'"omega": [0-9.]+', '"omega": 1' + "0" * (digits - 1), text)
        assert replaced == 1
        path = tmp_path / "huge.json"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "report.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "tunedsource", command, "--config", str(path), "--out", str(out)],
            env=package_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: ") and "Traceback" not in proc.stderr
        if digits == 400:
            assert proc.stderr == "config error: substrate.omega: value must be finite, got a value too large for a float\n"
        else:
            assert "JSON parse error: " in proc.stderr
        assert not out.exists()

    # the 17 runs where 10**400 in an integer field raised OverflowError, or numpy's ValueError for an order
    # list under verify, each a traceback and exit 1: each field under each command that reached the error
    @pytest.mark.parametrize("command,config,field,value", [
        *[(command, config, ("modes", "l", "hi"), 10**400)
          for config in ("verify_vacuum", "verify_strict") for command in ("verify", "sweep", "energies", "tune")],
        ("verify", "verify_vacuum", ("modes", "l"), [10**400]),
        ("verify", "verify_strict", ("modes", "l"), [1, 10**400]),
        ("sweep", "sweep_chi_dng", ("modes", "l", 0), 10**400),
        ("sweep", "sweep_chi_dng", ("modes", "l", 1), 10**400),
        *[("energies", "energies_tuned", ("amplitudes", i, "l"), 10**400) for i in range(3)],
        ("energies", "energies_tuned", ("xi_search", "grid_n"), 10**400),
        ("tune", "energies_tuned", ("xi_search", "grid_n"), 10**400),
    ], ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else str(v).replace(str(10**400), "10**400"))
    def test_huge_integer_in_an_integer_field_exits_2(self, tmp_path, command, config, field, value):
        payload = json.loads((CONFIG_DIR / f"{config}.json").read_text(encoding="utf-8"))
        block = payload
        for key in field[:-1]:
            block = block[key]
        block[field[-1]] = value
        out = tmp_path / "report.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "tunedsource", command, "--config", write_config(tmp_path, payload), "--out", str(out)],
            env=package_env(), capture_output=True, text=True,
        )
        # each field's own rule: modes.l's lo and hi and its entries, Mode.l, and find_constraint_roots' grid_n
        where, name, lowest = {"modes": ("modes.l", "hi" if field[-1] == "hi" else "entries", 1),
                               "amplitudes": (f"amplitudes[{field[1]}]", "Mode.l", 1),
                               "xi_search": ("xi_search", "grid_n", 2)}[field[0]]
        assert proc.returncode == 2
        assert proc.stderr == (f"config error: {where}: {name} must be an integer >= {lowest} that an index holds, "
                               "got an integer too large for an index\n")
        assert not out.exists()

    # the loader's own rules, one case each: (command, payload written as the config or None for no file, whole
    # message with {path} for the config's path)
    @pytest.mark.parametrize("command,payload,message", [
        pytest.param("verify", base_config(modes={"j": [], "l": [1]}), "modes.j: must not be empty", id="modes.j-empty"),
        pytest.param("verify", base_config(modes={"j": [1]}), "modes.l: required field is missing", id="modes.l-missing"),
        pytest.param("verify", base_config(modes={"j": [1], "l": {"lo": 3, "hi": 2}}),
                     "modes.l: need lo <= hi, got lo=3, hi=2", id="modes.l-lo-above-hi"),
        pytest.param("verify", base_config(modes={"j": [1], "l": "1-3"}),
                     "modes.l: expected an object or list, got '1-3'", id="modes.l-wrong-type"),
        pytest.param("verify", base_config(chi=0.0), "chi: give only one of chi, chi_values", id="chi-and-chi_values"),
        pytest.param("verify", base_config(xi_search={"lo": -0.5, "hi": 0.5, "grid_n": 11, "tol": 1e-10,
                                                      "table": [[-1.0, -1.0]]}),
                     "xi_search.table: need at least two (chi, g) pairs", id="table-one-pair"),
        pytest.param("verify", base_config(xi_search={"lo": -0.5, "hi": 0.5, "grid_n": 11, "tol": 1e-10,
                                                      "table": [[-1.0, -1.0], [1.0]]}),
                     "xi_search.table[1]: expected a [chi, g] pair, got [1.0]", id="table-entry-not-a-pair"),
        pytest.param("verify", base_config(xi_search={"lo": -0.5, "hi": 1.5, "grid_n": 11, "tol": 1e-10,
                                                      "table": [[-1.0, -1.0], [1.0, 1.0]]}),
                     "xi_search: interval [-0.5, 1.5] must lie inside the table span [-1.0, 1.0]",
                     id="interval-outside-table"),
        pytest.param("sweep", base_config(sweep={"axis": "omega", "values": [1.0]}),
                     "sweep.axis: must be one of chi, k, a, l; got 'omega'", id="sweep.axis"),
        pytest.param("sweep", base_config(sweep={"axis": "k", "values": []}), "sweep.values: must not be empty",
                     id="sweep.values-empty"),
        pytest.param("verify", base_config(tolerances={"f1_tol": -1e-8}), "tolerances.f1_tol: must be >= 0, got -1e-08",
                     id="tolerance-below-0"),
        pytest.param("verify", None, "cannot read config {path!r}: [Errno 2] No such file or directory: {path!r}",
                     id="unreadable-file"),
        pytest.param("verify", [base_config()], "{path}: top level must be a JSON object", id="top-level-list"),
        pytest.param("verify", base_config(output={"format": "xml"}), "output.format: must be 'csv' or 'json', got 'xml'",
                     id="output.format"),
        pytest.param("sweep", {key: value for key, value in base_config(sweep={"axis": "l", "values": [1]}).items()
                               if key != "chi_values"},
                     "sweep over k, a or l needs chi values (chi, chi_values) as well", id="sweep-without-chi"),
    ])
    def test_loader_rule_exits_2(self, tmp_path, capsys, command, payload, message):
        path = str(tmp_path / "missing.json") if payload is None else write_config(tmp_path, payload)
        out = tmp_path / "report.csv"
        assert cli.main([command, "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: " + message.format(path=path) + "\n"
        assert not out.exists()

    def test_inadmissible_chi(self, tmp_path):
        payload = base_config(chi_values=[0.0, 2.0])  # k^2 = 1, chi = 2 evanescent
        with pytest.raises(ConfigError, match=r"chi_values\[1\]"):
            cli.load_config(write_config(tmp_path, payload), command="verify")

    def test_bad_mode_j(self, tmp_path):
        payload = base_config()
        payload["modes"]["j"] = [1, 3]
        with pytest.raises(ConfigError, match=r"^modes\.j: Mode\.j must be the integer 1 or 2, got 3$"):
            cli.load_config(write_config(tmp_path, payload), command="verify")

    @pytest.mark.parametrize("command,config", [("verify", "verify_vacuum"), ("sweep", "sweep_chi_dng"),
                                                ("energies", "energies_tuned"), ("tune", "energies_tuned")])
    def test_radius_whose_cube_overflows_exits_2(self, tmp_path, capsys, command, config):
        # substrate.a = 1e103 passed the loader: sweep and energies gave an error row per cell (exit 1), tune exit 0
        payload = json.loads((CONFIG_DIR / f"{config}.json").read_text(encoding="utf-8"))
        payload["substrate"]["a"] = 1e103
        out = tmp_path / "report.csv"
        assert cli.main([command, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("config error: substrate: radius a must be <= 5.643803094122361e+102, "
                                           "past which a**3 overflows, got 1e+103\n")
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [("hi", -0.5), ("grid_n", 1), ("tol", 0.0), ("tol", -1e-10)])
    def test_xi_search_takes_the_root_search_rules(self, tmp_path, field, value):
        # the loader's message is find_constraint_roots' own, at xi_search
        search = {"lo": -0.5, "hi": 0.5, "grid_n": 11, "tol": 1e-10, "table": [[-1.0, -1.0], [1.0, 1.0]]}
        search[field] = value
        payload = base_config(xi_search=search)
        with pytest.raises(InvalidInputError) as library:
            tuning.find_constraint_roots(math.sin, search["lo"], search["hi"], search["grid_n"], search["tol"])
        with pytest.raises(ConfigError) as info:
            cli.load_config(write_config(tmp_path, payload), command="verify")
        assert str(info.value) == f"xi_search: {library.value}"

    @pytest.mark.parametrize("bad", [True, 1.0])
    def test_mode_j_must_be_integer(self, tmp_path, bad):
        # JSON true equals 1 in Python and used to print as a "true" j column
        payload = base_config()
        payload["modes"]["j"] = [bad, 2]
        with pytest.raises(ConfigError, match=r"modes\.j"):
            cli.load_config(write_config(tmp_path, payload), command="verify")

    def test_bad_tolerance_range(self, tmp_path):
        payload = base_config()
        payload["tolerances"]["quad_rel_tol"] = 1.0
        with pytest.raises(ConfigError, match=r"tolerances\.quad_rel_tol"):
            cli.load_config(write_config(tmp_path, payload), command="verify")

    def test_xi_table_must_increase(self, tmp_path):
        payload = base_config()
        payload["xi_search"] = {
            "lo": -0.5, "hi": 0.5, "grid_n": 11, "tol": 1e-10,
            "table": [[-1.0, 1.0], [-1.0, 0.5], [1.0, -1.0]],
        }
        with pytest.raises(ConfigError, match=r"strictly increasing"):
            cli.load_config(write_config(tmp_path, payload), command="verify")

    def test_verify_needs_chi(self, tmp_path):
        payload = base_config()
        del payload["chi_values"]
        with pytest.raises(ConfigError, match=r"chi"):
            cli.load_config(write_config(tmp_path, payload), command="verify")

    @pytest.mark.parametrize("chi", [1.0, 2.0])  # k^2 = mu_omega = 1: K^2 = 0 and K^2 < 0
    @pytest.mark.parametrize("field,command,where", [
        (lambda chi: {"chi": chi}, "verify", "chi[0]"),
        (lambda chi: {"chi_values": [0.0, chi]}, "verify", "chi_values[1]"),
        (lambda chi: {"sweep": {"axis": "chi", "values": [0.0, 0.5, chi]}}, "sweep", "sweep.values[2]"),
    ])
    def test_admissibility_is_the_library_rule(self, tmp_path, chi, field, command, where):
        payload = base_config()
        del payload["chi_values"]
        payload.update(field(chi))
        with pytest.raises(ConfigError) as info:
            cli.load_config(write_config(tmp_path, payload), command=command)
        with pytest.raises(EvanescentRegimeError) as library:
            tuned_wavenumber(1.0, 1.0, chi)
        assert str(info.value) == f"{where}: {library.value}"

    @pytest.mark.parametrize("axis,bad,rule", [
        ("a", 0.0, lambda a: Substrate(1.0, 1.0, 1.0, a)),
        ("a", -2.0, lambda a: Substrate(1.0, 1.0, 1.0, a)),
        ("a", 1e103, lambda a: Substrate(1.0, 1.0, 1.0, a)),    # past A_MAX: sweep gave an error row per cell
        ("k", 0.0, lambda k: tuned_wavenumber(k, 1.0, 0.0)),
    ])
    def test_sweep_values_take_the_library_rules(self, tmp_path, axis, bad, rule):
        payload = base_config(sweep={"axis": axis, "values": [0.5, bad]})
        with pytest.raises(ConfigError) as info:
            cli.load_config(write_config(tmp_path, payload), command="sweep")
        with pytest.raises(InvalidInputError) as library:
            rule(bad)
        assert str(info.value) == f"sweep.values[1]: {library.value}"

    @pytest.mark.parametrize("bad,message", [
        ([1, 0], "entries must be an integer >= 1 that an index holds, got 0"),
        ([1, 2.0], "entries must be an integer >= 1 that an index holds, got 2.0"),
        ([True], "entries must be an integer >= 1 that an index holds, got True"),
        ([], "must not be empty"),
    ])
    @pytest.mark.parametrize("command,place,where", [
        ("verify", lambda payload, bad: payload["modes"].update(l=bad), "modes.l"),
        ("sweep", lambda payload, bad: payload.update(sweep={"axis": "l", "values": bad}), "sweep.values"),
    ])
    def test_one_order_list_rule(self, tmp_path, bad, message, command, place, where):
        payload = base_config()
        place(payload, bad)
        with pytest.raises(ConfigError) as info:
            cli.load_config(write_config(tmp_path, payload), command=command)
        assert str(info.value) == f"{where}: {message}"

    @pytest.mark.parametrize("tol", [1.0, 1e-15, 2e-3])
    def test_quad_rel_tol_is_the_library_range(self, tmp_path, tol):
        payload = base_config()
        payload["tolerances"]["quad_rel_tol"] = tol
        with pytest.raises(ConfigError) as info:
            cli.load_config(write_config(tmp_path, payload), command="verify")
        with pytest.raises(InvalidInputError) as library:
            validate_tol(tol)
        assert str(info.value) == f"tolerances.quad_rel_tol: {library.value}"

    def test_tol_quad_flag_rejected_out_of_range(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        path = write_config(tmp_path, base_config())
        assert cli.main(["verify", "--config", path, "--out", str(out), "--tol-quad", "1e-2"]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == "config error: tolerances.quad_rel_tol: rel_tol must lie in [1e-14, 1e-3], got 0.01\n"

    def test_chi_grid_is_not_a_chi_source(self, tmp_path, capsys):
        payload = base_config(chi_grid={"lo": -0.1, "hi": 0.1, "n": 3})
        del payload["chi_values"]
        assert cli.main(["verify", "--config", write_config(tmp_path, payload)]) == 2
        assert capsys.readouterr().err == "config error: verify needs one of chi, chi_values\n"

    def test_sweep_needs_explicit_values(self, tmp_path, capsys):
        payload = base_config(sweep={"axis": "k", "lo": 0.5, "hi": 1.5, "n": 3})
        assert cli.main(["sweep", "--config", write_config(tmp_path, payload)]) == 2
        assert capsys.readouterr().err == "config error: sweep.values: required field is missing\n"

    def test_duplicate_amplitude(self, tmp_path):
        payload = base_config()
        payload["amplitudes"] = [
            {"j": 1, "l": 1, "m": 0, "re": 1.0},
            {"j": 1, "l": 1, "m": 0, "re": 2.0},
        ]
        with pytest.raises(ConfigError, match=r"amplitudes\[1\]"):
            cli.load_config(write_config(tmp_path, payload), command="energies")


class TestVerify:
    def test_all_pass_and_deterministic(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        assert cli.main(["verify", "--config", path, "--out", str(out1)]) == 0
        assert cli.main(["verify", "--config", path, "--out", str(out2)]) == 0
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2
        text = b1.decode()
        assert text.startswith("# tuned-source v1\n")
        assert "false" not in text

    def test_j2_f0_is_the_rows_reciprocal_n_k(self, tmp_path):
        # one f0 per mode: expansion_j2's f0 read the Bessel values three per-order columns, not the cell's
        out = tmp_path / "report.json"
        assert cli.main(["verify", "--config", str(CONFIG_DIR / "verify_vacuum.json"), "--format", "json",
                         "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        rows = [row for row in (dict(zip(report["columns"], values)) for values in report["rows"]) if row["j"] == 2]
        assert len(rows) == 27
        for row in rows:
            assert row["f0"] == 1.0 / row["N_k"], (row["l"], row["chi"])

    def test_strict_margin_tolerance_fails(self, tmp_path):
        payload = base_config()
        payload["modes"] = {"j": [2], "l": {"lo": 1, "hi": 2}}
        payload["tolerances"]["margin_tol"] = 0.0
        payload["tolerances"]["f2_tol"] = 0.0
        path = write_config(tmp_path, payload)
        out = tmp_path / "strict.csv"
        assert cli.main(["verify", "--config", path, "--out", str(out)]) == 1
        assert "false" in out.read_text()
        # the exact diagonal meets even a zero margin tolerance: f2_tol = 0 fails the run
        lines = out.read_text().splitlines()
        columns = lines[1].split(",")
        rows = [dict(zip(columns, line.split(","))) for line in lines[2:]]
        diagonal = [row for row in rows if float(row["chi"]) == 0.0]
        assert len(diagonal) == 2
        for row in diagonal:
            assert float(row["boundedness_margin"]) == 0.0
            assert row["pass_bound"] == "true"

    def test_exit_2_and_no_partial_file(self, tmp_path):
        payload = base_config()
        payload["substrate"]["epsilon_r"] = -1.0
        path = write_config(tmp_path, payload)
        out = tmp_path / "never.csv"
        assert cli.main(["verify", "--config", path, "--out", str(out)]) == 2
        assert not out.exists()

    def test_json_format(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "r.json"
        assert cli.main(["verify", "--config", path, "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["format"] == "tuned-source v1"
        assert payload["columns"][0] == "j"
        assert len(payload["rows"]) == 2 * 2 * 3

    def test_jobs_option_rejected(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "never.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--config", path, "--out", str(out), "--jobs", "4"])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--tol-margin", "--tol-quad"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_tolerance_override_rejected(self, tmp_path, capsys, flag, value):
        # nan used to fail every pass_bound, inf to switch the boundedness check off
        path = write_config(tmp_path, base_config())
        out = tmp_path / "never.csv"
        assert cli.main(["verify", "--config", path, "--out", str(out), f"{flag}={value}"]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"config error: {flag}: value must be finite, got {float(value)}\n"

    def test_failing_expansion_blanks_only_its_mode(self, tmp_path, monkeypatch):
        cfg = cli.load_config(write_config(tmp_path, base_config()), command="verify")
        _, columns, clean = cli.run_verify(cfg)
        expansion_fd = theorems.expansion_fd

        def failing(j, l, *args, **kwargs):
            if (j, l) == (1, 2):
                raise DegenerateModeError("stand-in failure")
            return expansion_fd(j, l, *args, **kwargs)

        monkeypatch.setattr(theorems, "expansion_fd", failing)
        code, columns, rows = cli.run_verify(cfg)
        assert code == 1
        inputs = {"j", "l", "k", "chi", "status"}
        for before, row in zip(clean, rows):
            named = dict(zip(columns, row))
            if (named["j"], named["l"]) != (1, 2):
                assert row == before
                continue
            assert named["status"] == "error: stand-in failure"
            assert all(named[c] == before[columns.index(c)] for c in ("j", "l", "k", "chi"))
            assert all(named[c] is None for c in columns if c not in inputs)

    def test_failing_margin_cell_keeps_expansion_columns(self, tmp_path, monkeypatch):
        cfg = cli.load_config(write_config(tmp_path, base_config()), command="verify")
        _, columns, clean = cli.run_verify(cfg)
        s, weight = cfg.substrate, cli._weight
        K_bad = tuned_wavenumber(s.k, s.mu_omega, 0.08).K

        def failing(mode, k, K, *args):
            # the ratio of the chi = 0.08 cell, after its boundedness columns
            if K == K_bad:
                raise DegenerateModeError("stand-in failure")
            return weight(mode, k, K, *args)

        monkeypatch.setattr(cli, "_weight", failing)
        code, columns, rows = cli.run_verify(cfg)
        assert code == 1
        kept = ("j", "l", "k", "chi", "f0", "f1_residual", "f2_closed", "f2_fd", "pass_f1", "pass_f2")
        blank = ("K", "N_k", "N_K", "M", "boundedness_margin", "minimality_margin", "pass_bound", "pass_min")
        failed = 0
        for before, row in zip(clean, rows):
            named = dict(zip(columns, row))
            if named["chi"] != 0.08:
                assert row == before
                continue
            failed += 1
            assert named["status"] == "error: stand-in failure"
            assert all(named[c] == before[columns.index(c)] for c in kept)
            assert named["f0"] > 0.0 and named["pass_f1"] is True
            assert all(named[c] is None for c in blank)
        assert failed == 4

    def test_module_entry_point(self, tmp_path):
        path = write_config(tmp_path, base_config())
        proc = subprocess.run(
            [sys.executable, "-m", "tunedsource.cli", "verify", "--config", path],
            env=package_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("# tuned-source v1")

    @pytest.mark.parametrize("j", [1, 2], ids=["j1", "j2"])
    def test_high_order_expansion_gives_error_rows(self, tmp_path, j):
        # at k a = 0.25 and l = 30 the j = 1 expansion's cubed denominator d0^3 underflows; this used to end
        # verify with a ZeroDivisionError and no report.  The j = 2 f2 is formed in Decimal, where nothing
        # underflows, so its rows carry the finite f2 (they carried the error of a float copy of its
        # denominator underflowing); they exit 1 from the quadrature oracle's flags
        payload = {"substrate": {"epsilon_r": 1.0, "mu_r": 1.0, "omega": 1.0, "a": 0.25},
                   "modes": {"j": [j], "l": [30]}, "chi_values": [-0.01, 0.0]}
        path = write_config(tmp_path, payload)
        out = tmp_path / "report.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "tunedsource", "verify", "--config", path, "--out", str(out)],
            env=package_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr == ""
        lines = out.read_text().splitlines()
        assert lines[:2] == ["# tuned-source v1", ",".join(cli.VERIFY_COLUMNS)]
        assert len(lines) == 4
        want = mp_lommel.f2_j2(30, 1.0, 0.25, 1.0)
        for line in lines[2:]:
            if j == 1:
                assert line.startswith("1,30,1,,")
                assert '"error: d0^3 underflows to 0' in line
            else:
                row = dict(zip(cli.VERIFY_COLUMNS, line.split(",")))
                assert row["status"] == "ok"
                assert float(row["f2_closed"]) == pytest.approx(want, rel=1e-12)


class TestEnergies:
    @pytest.mark.parametrize("last_good", [True, False], ids=["last-good", "first-bad"])
    def test_amplitude_whose_square_overflows(self, tmp_path, last_good):
        # re = 1e200 exited 1 with source_energy's OverflowError and no report; the last good |a| runs, and
        # its energies overflow, which marks every row as an error (they read inf with status ok)
        amp = math.sqrt(sys.float_info.max)
        payload = json.loads((CONFIG_DIR / "energies_tuned.json").read_text(encoding="utf-8"))
        payload["amplitudes"][0]["re"] = amp if last_good else math.nextafter(amp, math.inf)
        out = tmp_path / "report.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "tunedsource", "energies", "--config", write_config(tmp_path, payload), "--out", str(out)],
            env=package_env(), capture_output=True, text=True,
        )
        if last_good:
            assert (proc.returncode, proc.stderr) == (1, "")
            rows = out.read_text().splitlines()[2:]
            error = ",,,,,,,error: source energy sum_modes R |a|^2 = inf is not finite"
            assert rows and all(row.endswith(error) and "inf" not in row[:-len(error)] for row in rows)
        else:
            assert proc.returncode == 2
            assert proc.stderr == ("config error: amplitudes: amplitude for Mode(j=1, l=1, m=0) "
                                   "must have a finite |a|^2, got |a|^2 = inf\n")
            assert not out.exists()

    def test_chi_zero_equality(self, tmp_path):
        payload = base_config(chi=0.0)
        del payload["chi_values"]
        payload["amplitudes"] = [{"j": 1, "l": 1, "m": 0, "re": 1.0, "im": 0.0}]
        path = write_config(tmp_path, payload)
        code, columns, rows = cli.run_energies(cli.load_config(path, command="energies"))
        assert code == 0
        row = rows[0]
        e_untuned = row[columns.index("E_untuned")]
        e_tuned = row[columns.index("E_tuned")]
        assert e_tuned == pytest.approx(e_untuned, rel=1e-12)

    def test_empty_amplitudes(self, tmp_path):
        payload = base_config(chi=0.1, amplitudes=[])
        del payload["chi_values"]
        path = write_config(tmp_path, payload)
        code, columns, rows = cli.run_energies(cli.load_config(path, command="energies"))
        assert code == 0
        assert rows[0][columns.index("E_untuned")] == 0.0
        assert rows[0][columns.index("E_tuned")] == 0.0

    def test_tuned_energy_above_untuned(self, tmp_path):
        payload = base_config()
        del payload["chi_values"]
        payload["chi_values"] = [-0.3, 0.15, 0.45]
        payload["amplitudes"] = [
            {"j": 1, "l": 1, "m": 0, "re": 1.0},
            {"j": 2, "l": 2, "m": 1, "re": 0.0, "im": 2.0},
        ]
        path = write_config(tmp_path, payload)
        code, columns, rows = cli.run_energies(cli.load_config(path, command="energies"))
        assert code == 0
        for row in rows:
            assert row[columns.index("delta")] >= 0.0
            assert row[columns.index("pass")] is True

    def test_xi_search_selection(self, tmp_path):
        payload = base_config()
        del payload["chi_values"]
        payload["amplitudes"] = [{"j": 2, "l": 1, "m": 0, "re": 1.0}]
        payload["xi_search"] = {
            "lo": -0.6, "hi": 0.6, "grid_n": 241, "tol": 1e-11,
            "table": [[-1.0, 0.96], [-0.4, 0.0], [0.0, -0.16], [0.2, 0.0], [1.0, 0.96]],
        }
        path = write_config(tmp_path, payload)
        code, columns, rows = cli.run_energies(cli.load_config(path, command="energies"))
        assert code == 0
        selected = [r for r in rows if r[columns.index("selected")]]
        assert len(selected) == 1
        assert selected[0][columns.index("chi")] == pytest.approx(0.2, abs=1e-9)

    def test_small_chi_delta_matches_expansion(self, tmp_path):
        # two modes, small chi: E_tuned - E_untuned ~ sum_modes f2 chi^2 |a|^2
        from tunedsource import theorems

        payload = base_config()
        del payload["chi_values"]
        chi = 0.02
        payload["chi"] = chi
        payload["amplitudes"] = [
            {"j": 2, "l": 1, "m": 0, "re": 1.0},
            {"j": 2, "l": 2, "m": 0, "re": 0.0, "im": 2.0},
        ]
        path = write_config(tmp_path, payload)
        code, columns, rows = cli.run_energies(cli.load_config(path, command="energies"))
        assert code == 0
        delta = rows[0][columns.index("delta")]
        want = sum(
            theorems.expansion_j2(l, 1.0, 2.0, 1.0).f2 * chi * chi * amp2
            for l, amp2 in ((1, 1.0), (2, 4.0))
        )
        assert delta == pytest.approx(want, rel=0.05)
        assert delta > 0.0

    @pytest.mark.parametrize("extra,n_rows", [
        ({"chi_values": [1e-4, 0.0]}, 2),
        # no root: the no-tuned-solution row, which exits 0 on its own, carries the error
        ({"xi_search": {"lo": -0.5, "hi": 0.5, "grid_n": 51, "tol": 1e-10,
                        "table": [[-1.0, 1.0], [0.0, 0.5], [1.0, 1.0]]}}, 1),
    ])
    def test_failing_untuned_energy_gives_error_rows(self, tmp_path, extra, n_rows):
        # at l = 200, k a = 0.025, M_1 underflows to 0 already at chi = 0
        payload = {"substrate": {"epsilon_r": 1.0, "mu_r": 1.0, "omega": 0.05, "a": 0.5},
                   "amplitudes": [{"j": 1, "l": 200, "re": 1.0}], **extra}
        path = write_config(tmp_path, payload)
        proc = subprocess.run(
            [sys.executable, "-m", "tunedsource", "energies", "--config", path],
            env=package_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr == ""
        lines = proc.stdout.splitlines()
        assert lines[:2] == ["# tuned-source v1", ",".join(cli.ENERGIES_COLUMNS)]
        rows = lines[2:]
        assert len(rows) == n_rows
        assert all(row.endswith(',,,,,,,"error: cross integral vanished for Mode(j=1, l=200, m=0) at k=0.05, '
                                'K=0.05; the prescription constraint cannot be met at this tuning"')
                   for row in rows)

    def test_each_row_tunes_once(self, monkeypatch):
        # K once for the untuned energy and once per tuned row, in row order; each row once ran the tuning twice
        cfg = cli.load_config(str(CONFIG_DIR / "energies_tuned.json"), command="energies")
        tuned_K, chis = cli._tuned_K, []

        def counted(k, mu_omega, chi):
            chis.append(chi)
            return tuned_K(k, mu_omega, chi)

        monkeypatch.setattr(cli, "_tuned_K", counted)
        monkeypatch.setattr(cli, "tuned_wavenumber", lambda *args: pytest.fail("a second route to K"))
        code, columns, rows = cli.run_energies(cfg)
        assert code == 0 and len(rows) == 2
        assert chis == [0.0] + [row[columns.index("chi")] for row in rows]
        assert [row[columns.index("K")] for row in rows] == [tuned_K(cfg.substrate.k, cfg.substrate.mu_omega, chi)
                                                              for chi in chis[1:]]

    def test_no_tuned_solution_diagnostic(self, tmp_path):
        payload = base_config()
        del payload["chi_values"]
        payload["amplitudes"] = [{"j": 2, "l": 1, "m": 0, "re": 1.0}]
        payload["xi_search"] = {
            "lo": -0.5, "hi": 0.5, "grid_n": 51, "tol": 1e-10,
            "table": [[-1.0, 1.0], [0.0, 0.5], [1.0, 1.0]],
        }
        path = write_config(tmp_path, payload)
        code, columns, rows = cli.run_energies(cli.load_config(path, command="energies"))
        assert code == 0
        assert rows[0][columns.index("status")] == "no-tuned-solution"


class TestSweep:
    def test_one_closed_form_cell_per_row_and_chi0(self, monkeypatch):
        # a row reads its own cell once and its chi0 cell once
        from tunedsource import model

        calls, closed_form = [], model._closed_form
        monkeypatch.setattr(model, "_closed_form", lambda *args: calls.append(args) or closed_form(*args))
        code, columns, rows = cli.run_sweep(cli.load_config(str(CONFIG_DIR / "sweep_chi_dng.json"), command="sweep"))
        assert code == 0 and len(rows) == 36
        assert len(calls) == 2 * len(rows) == 72   # 108 with each row's own twice

    def test_failing_chi0_cell_fails_its_rows_after_their_own_checks(self, monkeypatch):
        # the chi0 cell of mode (2, 1) raises; each of its rows reports that error, except
        # the row whose own ratio fails first, which keeps its own error and reads no chi0 cell
        from tunedsource.model import Mode

        cfg = cli.load_config(str(CONFIG_DIR / "sweep_chi_dng.json"), command="sweep")
        s, weight, mode_ratio = cfg.substrate, cli._weight, cli.mode_ratio
        K_own = tuned_wavenumber(s.k, s.mu_omega, 0.5).K
        chi0_calls = []

        def failing_weight(mode, k, K, *args):
            if mode == Mode(2, 1) and K == K_own:
                raise DegenerateModeError("own failure")
            return weight(mode, k, K, *args)

        def failing_chi0(mode, *args):
            chi0_calls.append(mode)
            if mode == Mode(2, 1):
                raise DegenerateModeError("chi0 failure")
            return mode_ratio(mode, *args)

        monkeypatch.setattr(cli, "_weight", failing_weight)
        monkeypatch.setattr(cli, "mode_ratio", failing_chi0)
        code, columns, rows = cli.run_sweep(cfg)
        assert code == 1 and len(rows) == 36
        assert collections.Counter(chi0_calls) == {Mode(1, 1): 9, Mode(1, 2): 9, Mode(2, 1): 8, Mode(2, 2): 9}
        for row in rows:
            named = dict(zip(columns, row))
            if (named["j"], named["l"]) != (2, 1):
                assert named["status"] == "ok" and named["min_scale"] > 0.0
            elif named["chi"] == 0.5:
                assert named["status"] == "error: own failure"
            else:
                assert named["status"] == "error: chi0 failure"
                assert named["K"] is None and named["minimality_margin"] is None

    def test_chi_sweep_rows_ordered(self, tmp_path):
        payload = base_config()
        del payload["chi_values"]
        payload["sweep"] = {"axis": "chi", "values": [0.2, -0.2, 0.0]}
        path = write_config(tmp_path, payload)
        code, columns, rows = cli.run_sweep(cli.load_config(path, command="sweep"))
        assert code == 0
        values = [row[columns.index("value")] for row in rows]
        assert values == sorted(values)

    def test_chi_sweep_margin_monotone_in_chi_squared(self, tmp_path):
        payload = base_config()
        del payload["chi_values"]
        payload["modes"] = {"j": [2], "l": [2]}
        payload["sweep"] = {"axis": "chi", "values": [-0.06, -0.03, 0.0, 0.03, 0.06]}
        path = write_config(tmp_path, payload)
        code, columns, rows = cli.run_sweep(cli.load_config(path, command="sweep"))
        assert code == 0
        margins = {
            row[columns.index("chi")]: row[columns.index("minimality_margin")] for row in rows
        }
        assert margins[0.0] == 0.0
        for small, big in ((0.0, 0.03), (0.03, 0.06), (0.0, -0.03), (-0.03, -0.06)):
            assert margins[big] > margins[small]

    def test_l_sweep_equality_at_chi_zero(self, tmp_path):
        payload = base_config(chi_values=[0.0])
        payload["sweep"] = {"axis": "l", "values": [1, 2, 3, 4, 5, 6]}
        path = write_config(tmp_path, payload)
        code, columns, rows = cli.run_sweep(cli.load_config(path, command="sweep"))
        assert code == 0
        for row in rows:
            margin = row[columns.index("boundedness_margin")]
            scale = row[columns.index("bound_scale")]
            assert abs(margin) <= 1e-10 * scale

    def test_a_sweep_scale_invariance(self, tmp_path):
        # with k*a fixed, margins normalized by their scale are identical
        normalized = {}
        for a, omega in ((1.0, 2.0), (2.0, 1.0)):
            payload = base_config(chi_values=[0.0])
            payload["substrate"] = {"epsilon_r": 1.0, "mu_r": 1.0, "omega": omega, "a": a}
            payload["modes"] = {"j": [2], "l": [1]}
            # chi*mu*omega/k^2 = t needs chi = t*omega in these scaled units
            payload["sweep"] = {"axis": "chi", "values": [0.4 * omega]}
            path = write_config(tmp_path, payload, name=f"a{a}.json")
            code, columns, rows = cli.run_sweep(cli.load_config(path, command="sweep"))
            assert code == 0
            row = rows[0]
            normalized[a] = row[columns.index("boundedness_margin")] / row[columns.index("bound_scale")]
        assert normalized[1.0] == pytest.approx(normalized[2.0], rel=1e-10)

    def test_k_sweep(self, tmp_path):
        payload = base_config(chi_values=[0.0, 0.05])
        payload["sweep"] = {"axis": "k", "values": [-2.0, 1.0, 2.0]}
        path = write_config(tmp_path, payload)
        code, columns, rows = cli.run_sweep(cli.load_config(path, command="sweep"))
        assert code == 0
        assert len(rows) == 3 * 2 * 2 * 2

    def test_k_sweep_inadmissible_chi_gives_error_rows(self, tmp_path):
        # at k = 0.5, chi = 0.3 makes K^2 = 0.25 - 0.3 negative
        payload = base_config(chi_values=[0.3, 0.0])
        payload["sweep"] = {"axis": "k", "values": [0.5, 1.0]}
        path = write_config(tmp_path, payload)
        code, columns, rows = cli.run_sweep(cli.load_config(path, command="sweep"))
        assert code == 1
        inputs = ("axis", "value", "j", "l", "k", "a", "mu_omega", "chi")
        errors = 0
        for row in rows:
            assert len(row) == len(columns)
            named = dict(zip(columns, row))
            if named["status"] == "ok":
                continue
            errors += 1
            assert (named["value"], named["chi"]) == (0.5, 0.3)
            assert named["status"].startswith("error: chi=0.3")
            assert all(named[c] is not None for c in inputs)
            assert all(named[c] is None for c in columns if c not in inputs and c != "status")
        assert errors == 2 * 2
        lines = cli.render_csv("sweep", columns, rows).splitlines()
        assert all(line.count(",") == len(columns) - 1 for line in lines[1:])

    @pytest.mark.parametrize("axis,values,modes,chis,want", [
        ("k", [2.0, -1.0, 2.0], {"j": [2], "l": [1]}, [0.05, 0.0],
         [(-1.0, 2, 1, 0.0), (-1.0, 2, 1, 0.05), (2.0, 2, 1, 0.0), (2.0, 2, 1, 0.0),
          (2.0, 2, 1, 0.05), (2.0, 2, 1, 0.05)]),
        ("a", [3.0, 0.5, 3.0], {"j": [1], "l": [2, 1]}, [0.05],
         [(0.5, 1, 1, 0.05), (0.5, 1, 2, 0.05), (3.0, 1, 1, 0.05), (3.0, 1, 1, 0.05),
          (3.0, 1, 2, 0.05), (3.0, 1, 2, 0.05)]),
        ("l", [3, 1, 3], {"j": [2, 1], "l": [1]}, [0.05, 0.0],
         [(1, 1, 1, 0.0), (1, 1, 1, 0.05), (1, 2, 1, 0.0), (1, 2, 1, 0.05),
          (3, 1, 3, 0.0), (3, 1, 3, 0.0), (3, 1, 3, 0.05), (3, 1, 3, 0.05),
          (3, 2, 3, 0.0), (3, 2, 3, 0.0), (3, 2, 3, 0.05), (3, 2, 3, 0.05)]),
    ])
    def test_unsorted_duplicate_values_row_order(self, tmp_path, axis, values, modes, chis, want):
        payload = base_config(chi_values=chis, modes=modes)
        payload["sweep"] = {"axis": axis, "values": values}
        path = write_config(tmp_path, payload)
        code, columns, rows = cli.run_sweep(cli.load_config(path, command="sweep"))
        assert code == 0
        named = [dict(zip(columns, row)) for row in rows]
        assert [(r["value"], r["j"], r["l"], r["chi"]) for r in named] == want
        assert all(r[axis] == r["value"] for r in named)
        # a duplicated value repeats its rows exactly
        groups = {}
        for r, row in zip(named, rows):
            groups.setdefault((r["value"], r["j"], r["l"], r["chi"]), set()).add(tuple(row))
        assert all(len(group) == 1 for group in groups.values())

    def test_underflowing_cross_integral_gives_error_rows(self, tmp_path):
        # at l = 40, k a = 0.025, M ~ 2e-252 and M^2 underflows to 0
        payload = base_config(chi_values=[1e-4, 0.0], modes={"j": [1, 2], "l": [1]})
        payload["substrate"] = {"epsilon_r": 1.0, "mu_r": 1.0, "omega": 0.05, "a": 0.5}
        payload["sweep"] = {"axis": "l", "values": [40]}
        path = write_config(tmp_path, payload)
        proc = subprocess.run(
            [sys.executable, "-m", "tunedsource", "sweep", "--config", path],
            env=package_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        rows = proc.stdout.splitlines()[2:]
        assert len(rows) == 4
        assert all('"error: cross integral vanished' in row for row in rows)

    def test_sweep_without_tuned_solution_is_diagnosed(self, tmp_path):
        payload = base_config()
        del payload["chi_values"]
        payload["sweep"] = {"axis": "chi", "values": [0.0, 0.1]}
        payload["xi_search"] = {
            "lo": -0.5, "hi": 0.5, "grid_n": 51, "tol": 1e-10,
            "table": [[-1.0, 1.0], [0.0, 0.5], [1.0, 1.0]],
        }
        path = write_config(tmp_path, payload)
        code, columns, rows = cli.run_sweep(cli.load_config(path, command="sweep"))
        assert code == 1
        assert rows[0][columns.index("status")] == "no-tuned-solution"


class TestTune:
    def test_roots_and_selection(self, tmp_path):
        payload = base_config()
        payload["xi_search"] = {
            "lo": -0.6, "hi": 0.6, "grid_n": 481, "tol": 1e-11,
            "table": [[-1.0, 0.91], [-0.3, 0.0], [0.0, -0.09], [0.3, 0.0], [1.0, 0.91]],
        }
        path = write_config(tmp_path, payload)
        code, columns, rows = cli.run_tune(cli.load_config(path, command="tune"))
        assert code == 0
        roots = [row[columns.index("chi_root")] for row in rows]
        assert roots[0] == pytest.approx(-0.3, abs=1e-9)
        assert roots[1] == pytest.approx(0.3, abs=1e-9)
        selected = [row for row in rows if row[columns.index("selected")]]
        assert len(selected) == 1

    def test_substrate_whose_k_squared_overflows(self, tmp_path):
        # the roots' admissibility rule, chi mu_omega < k^2, says nothing at k^2 = inf: every root passed it.
        # The cell's k^2 rule rejects the substrate before the search is read
        payload = base_config(substrate={"epsilon_r": 1.0, "mu_r": 1.0, "omega": 1e200, "a": 2.0})
        del payload["chi_values"]
        payload["xi_search"] = {"lo": -0.5, "hi": 0.5, "grid_n": 11, "tol": 1e-10,
                                "table": [[-1.0, -1.0], [1.0, 1.0]]}
        with pytest.raises(ConfigError) as info:
            cli.load_config(write_config(tmp_path, payload), command="tune")
        assert str(info.value) == "substrate: k^2 and K^2 must be finite, got k=1e+200, K=1e+200"

    @pytest.mark.parametrize("command", ["verify", "energies", "sweep", "tune"])
    def test_substrate_whose_k_squared_underflows(self, tmp_path, capsys, command):
        # k = omega = 1e-170: k^2 underflows to 0, which the roots' admissibility rule took for an evanescent tuning
        payload = base_config(substrate={"epsilon_r": 1.0, "mu_r": 1.0, "omega": 1e-170, "a": 2.0},
                              amplitudes=[{"j": 2, "l": 1, "re": 1.0}])
        del payload["chi_values"]
        payload["xi_search"] = {"lo": -0.5, "hi": 0.5, "grid_n": 11, "tol": 1e-10,
                                "table": [[-1.0, -1.0], [1.0, 1.0]]}
        out = tmp_path / "report.csv"
        assert cli.main([command, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: xi_search: k^2 underflows to 0 at k=1e-170, chi=0.0, mu_omega=1e-170\n")
        assert not out.exists()

    def test_tune_requires_block(self, tmp_path):
        path = write_config(tmp_path, base_config())
        with pytest.raises(ConfigError, match="xi_search"):
            cli.load_config(path, command="tune")


class TestRendering:
    def test_float_formatting_17_digits(self):
        text = cli.render_csv("verify", ("x",), [[1.0 / 3.0]])
        assert "0.33333333333333331" in text

    def test_blank_for_none_and_bools(self):
        text = cli.render_csv("verify", ("a", "b", "c"), [[None, True, False]])
        assert text.splitlines()[2] == ",true,false"

    @pytest.mark.parametrize("command,config", [
        ("verify", "verify_vacuum.json"),
        ("sweep", "sweep_chi_dng.json"),
        ("energies", "energies_tuned.json"),
        ("tune", "energies_tuned.json"),
    ])
    def test_identical_across_processes(self, tmp_path, command, config):
        # two fresh processes under different hash seeds and one in-process
        # run give the same report bytes
        config = str(CONFIG_DIR / config)
        reports = []
        for seed in ("0", "12345"):
            out = tmp_path / f"process{seed}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "tunedsource", command, "--config", config, "--out", str(out)],
                env=dict(package_env(), PYTHONHASHSEED=seed), capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            reports.append(out.read_bytes())
        out = tmp_path / "in_process.csv"
        assert cli.main([command, "--config", config, "--out", str(out)]) == 0
        assert reports[0] == reports[1] == out.read_bytes()
