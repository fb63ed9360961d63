"""Batch front-end: JSON configs in, deterministic CSV/JSON reports out.

Subcommands
-----------
verify    one row per (mode, chi) cell: radial integrals, boundedness and
          minimality margins, expansion coefficients, pass flags
energies  untuned vs tuned source energies for prescribed amplitudes
sweep     long-format report over a swept axis (chi, k, a, or l)
tune      roots of a tabulated tuning constraint and the selected chi0

Exit codes: 0 all assertions pass, 1 any violation or per-row failure,
2 input/config error (no output file is written in that case).  A tuning
search with no admissible root is a failure for verify and sweep, whose
checks need chi0 (exit 1), but a diagnosis for energies and tune, which
report it as a ``no-tuned-solution`` row and exit 0.

Reports are byte-identical across runs for identical configs: floats are
rendered with 17 significant digits and all iteration orders are fixed.

Only ``verify`` loads numpy: its expansion columns come from the
quadrature oracle of ``theorems``, whose first integration imports it.
``sweep``, ``energies`` and ``tune`` run on the closed-form cell of
``model`` and the pure-Python root search of ``tuning``, so their processes
start without numpy, at any Bessel argument.  They also start without
``dataclasses`` (and the ``inspect`` it loads): the package's records are
``typing.NamedTuple`` classes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NamedTuple, Optional, Sequence, Tuple

from . import tuning
from .errors import ConfigError, NoTunedSolutionError, TunedSourceError
from .model import (
    Mode,
    SourceSpec,
    Substrate,
    _margin_cell,
    _tuned_K,
    _weight,
    mode_ratio,
    radial_integrals,  # noqa: F401  (bench/spans.py traces this name)
    source_energy,
    tuned_wavenumber,
)
from .scalar import TOL_MIN, _finite, _int, _shown, validate_tol

__all__ = ["RunConfig", "load_config", "run_verify", "run_energies", "run_sweep", "run_tune", "main"]

REPORT_TAG = "tuned-source v1"

_DEFAULT_TOLS = {
    "quad_rel_tol": 1e-12,
    "margin_tol": 1e-9,
    "f1_tol": 1e-8,
    "f2_tol": 1e-4,
}

# strict-positivity threshold of the minimality assertion, relative to scale
_MIN_STRICT = 1e-12
# the expansion argument covers |chi| mu_omega <= 0.1 k^2
_REGIME = 0.1


class XiSearch(NamedTuple):
    lo: float
    hi: float
    grid_n: int
    tol: float
    table_chi: Tuple[float, ...]
    table_g: Tuple[float, ...]


class RunConfig(NamedTuple):
    substrate: Substrate
    j_list: Tuple[int, ...]
    l_values: Tuple[int, ...]
    chi_values: Tuple[float, ...]
    xi_search: Optional[XiSearch]
    amplitudes: Tuple[Tuple[Mode, complex], ...]
    sweep_axis: Optional[str]
    sweep_values: Tuple[float, ...]
    quad_rel_tol: float
    margin_tol: float
    f1_tol: float
    f2_tol: float
    out_format: str
    out_path: Optional[str]


# ---------------------------------------------------------------------------
# config loading


# kind -> (check, description) of the values ``_check`` accepts besides numbers, which take ``_finite``
_KINDS = {
    "list": (lambda v: isinstance(v, list), "a list"),
    "dict": (lambda v: isinstance(v, dict), "an object"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


def _check(value, where: str, kind: str):
    """``value``, or ConfigError at ``where`` unless it is of ``kind``; a "number" takes ``scalar._finite``, as a float (reports print 0.0, not 0)."""
    if kind == "number":
        return _library(where, _finite, "value", value)
    accepts, description = _KINDS[kind]
    if not accepts(value):
        raise ConfigError(f"{where}: expected {description}, got {_shown(value)}")
    return value


def _expect(block, path, key, kind=None, required=True, default=None):
    """``block[key]``, checked as ``kind`` unless that is None (a library rule checks it); ``default`` when an optional key is absent."""
    where = f"{path}.{key}" if path else key
    if key not in block:
        if required:
            raise ConfigError(f"{where}: required field is missing")
        return default
    return block[key] if kind is None else _check(block[key], where, kind)


def _library(where: str, rule, *args):
    """``rule(*args)``; the library error it raises becomes a ConfigError at ``where``: the loader's one wrapper."""
    try:
        return rule(*args)
    except TunedSourceError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _orders(entries, path: str) -> Tuple[int, ...]:
    """A non-empty list of multipole orders (``scalar._int``, >= 1), as a tuple."""
    for l in entries:
        _library(path, _int, "entries", l, 1)
    if not entries:
        raise ConfigError(f"{path}: must not be empty")
    return tuple(entries)


def _admissible(chis, path: str, substrate: Substrate) -> Tuple[float, ...]:
    """``chis`` as a tuple, each leaving a propagating tuned current (the rows' own rule)."""
    for i, chi in enumerate(chis):
        _library(f"{path}[{i}]", tuned_wavenumber, substrate.k, substrate.mu_omega, chi)
    return tuple(chis)


def _load_substrate(raw) -> Substrate:
    block = _expect(raw, "", "substrate", "dict")
    values = [_expect(block, "substrate", name, "number") for name in ("epsilon_r", "mu_r", "omega", "a")]
    return _library("substrate", Substrate, *values)


def _load_modes(raw, need_modes: bool):
    if "modes" not in raw:
        if need_modes:
            raise ConfigError("modes: required block is missing")
        return (1, 2), ()
    block = _expect(raw, "", "modes", "dict")
    j_list = tuple(_expect(block, "modes", "j", "list", required=False, default=[1, 2]))
    for j in j_list:
        _library("modes.j", Mode, j, 1)
    if not j_list:
        raise ConfigError("modes.j: must not be empty")
    lspec = _expect(block, "modes", "l")
    if isinstance(lspec, dict):
        lo, hi = (_library("modes.l", _int, name, _expect(lspec, "modes.l", name), 1) for name in ("lo", "hi"))
        if not lo <= hi:
            raise ConfigError(f"modes.l: need lo <= hi, got lo={lo}, hi={hi}")
        l_values = tuple(range(lo, hi + 1))
    elif isinstance(lspec, list):
        l_values = _orders(lspec, "modes.l")
    else:
        raise ConfigError(f"modes.l: expected an object or list, got {lspec!r}")
    return j_list, l_values


def _load_chis(raw, substrate: Substrate):
    if "chi" in raw and "chi_values" in raw:
        raise ConfigError("chi: give only one of chi, chi_values")
    if "chi" in raw:
        return _admissible([_expect(raw, "", "chi", "number")], "chi", substrate)
    if "chi_values" in raw:
        entries = _expect(raw, "", "chi_values", "list")
        return _admissible([_check(v, f"chi_values[{i}]", "number") for i, v in enumerate(entries)],
                           "chi_values", substrate)
    return ()


def _load_xi_search(raw, substrate: Substrate):
    if "xi_search" not in raw:
        return None
    block = _expect(raw, "", "xi_search", "dict")
    fields = [_expect(block, "xi_search", name) for name in ("lo", "hi", "grid_n", "tol")]
    lo, hi, grid_n, tol = _library("xi_search", tuning._search_rules, *fields, substrate.k, substrate.mu_omega)
    table = _expect(block, "xi_search", "table", "list")
    if len(table) < 2:
        raise ConfigError("xi_search.table: need at least two (chi, g) pairs")
    chis, gs = [], []
    for i, pair in enumerate(table):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ConfigError(f"xi_search.table[{i}]: expected a [chi, g] pair, got {pair!r}")
        chis.append(_check(pair[0], f"xi_search.table[{i}]", "number"))
        gs.append(_check(pair[1], f"xi_search.table[{i}]", "number"))
    if any(b <= a for a, b in zip(chis, chis[1:])):
        raise ConfigError("xi_search.table: chi entries must be strictly increasing")
    if lo < chis[0] or hi > chis[-1]:
        raise ConfigError(
            f"xi_search: interval [{lo}, {hi}] must lie inside the table span "
            f"[{chis[0]}, {chis[-1]}]"
        )
    return XiSearch(lo=lo, hi=hi, grid_n=grid_n, tol=tol, table_chi=tuple(chis), table_g=tuple(gs))


def _load_amplitudes(raw):
    entries = _expect(raw, "", "amplitudes", "list", required=False, default=[])
    amplitudes = {}
    for i, entry in enumerate(entries):
        path = f"amplitudes[{i}]"
        _check(entry, path, "dict")
        j = _expect(entry, path, "j")
        l = _expect(entry, path, "l")
        m = _expect(entry, path, "m", required=False, default=0)
        re = _expect(entry, path, "re", "number")
        im = _expect(entry, path, "im", "number", required=False, default=0.0)
        mode = _library(path, Mode, j, l, m)
        if mode in amplitudes:
            raise ConfigError(f"{path}: duplicate mode (j={j}, l={l}, m={m})")
        amplitudes[mode] = complex(re, im)
    _library("amplitudes", SourceSpec, amplitudes)    # the library's amplitude rule: a finite |a|^2
    return tuple(amplitudes.items())


def _load_sweep(raw, substrate: Substrate):
    if "sweep" not in raw:
        return None, ()
    block = _expect(raw, "", "sweep", "dict")
    axis = _expect(block, "sweep", "axis", "str")
    if axis not in ("chi", "k", "a", "l"):
        raise ConfigError(f"sweep.axis: must be one of chi, k, a, l; got {axis!r}")
    entries = _expect(block, "sweep", "values", "list")
    if axis == "l":
        return axis, _orders(entries, "sweep.values")
    values = [_check(v, f"sweep.values[{i}]", "number") for i, v in enumerate(entries)]
    if not values:
        raise ConfigError("sweep.values: must not be empty")
    rule = {"chi": lambda v: tuned_wavenumber(substrate.k, substrate.mu_omega, v),
            "k": lambda v: tuned_wavenumber(v, substrate.mu_omega, 0.0),
            "a": lambda v: Substrate(substrate.epsilon_r, substrate.mu_r, substrate.omega, v)}[axis]
    for i, v in enumerate(values):
        _library(f"sweep.values[{i}]", rule, v)
    return axis, tuple(values)


def _load_tolerances(raw, overrides):
    block = _expect(raw, "", "tolerances", "dict", required=False, default={})
    tols = {}
    for name, default in _DEFAULT_TOLS.items():
        tols[name] = _expect(block, "tolerances", name, "number", required=False, default=default)
    for name, flag in (("quad_rel_tol", "--tol-quad"), ("margin_tol", "--tol-margin")):
        if overrides.get(name) is not None:
            tols[name] = _check(overrides[name], flag, "number")
    _library("tolerances.quad_rel_tol", validate_tol, tols["quad_rel_tol"])
    for name in ("margin_tol", "f1_tol", "f2_tol"):
        if tols[name] < 0.0:
            raise ConfigError(f"tolerances.{name}: must be >= 0, got {tols[name]}")
    return tols


def load_config(path: str, *, command: str, overrides=None) -> RunConfig:
    """Parse and validate a JSON run configuration.

    Raises ConfigError with a field path (or a line/column position for
    malformed JSON).
    """
    overrides = overrides or {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:    # an integer past Python's digit limit for int(), or bytes that are not UTF-8
        raise ConfigError(f"{path}: JSON parse error: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")

    substrate = _load_substrate(raw)
    need_modes = command in ("verify", "sweep")
    j_list, l_values = _load_modes(raw, need_modes)
    chi_values = _load_chis(raw, substrate)
    xi_search = _load_xi_search(raw, substrate)
    amplitudes = _load_amplitudes(raw)
    sweep_axis, sweep_values = _load_sweep(raw, substrate)
    tols = _load_tolerances(raw, overrides)

    out_block = _expect(raw, "", "output", "dict", required=False, default={})
    out_format = _expect(out_block, "output", "format", "str", required=False, default="csv")
    if out_format not in ("csv", "json"):
        raise ConfigError(f"output.format: must be 'csv' or 'json', got {out_format!r}")
    out_path = _expect(out_block, "output", "path", "str", required=False, default=None)
    if overrides.get("format") is not None:
        out_format = overrides["format"]
    if overrides.get("out") is not None:
        out_path = overrides["out"]

    if command == "verify" and not chi_values:
        raise ConfigError("verify needs one of chi, chi_values")
    if command == "energies" and not (chi_values or xi_search is not None):
        raise ConfigError("energies needs chi values (chi, chi_values) or an xi_search block")
    if command == "energies" and "amplitudes" not in raw:
        raise ConfigError("energies needs an amplitudes list (may be empty)")
    if command == "sweep":
        if sweep_axis is None:
            raise ConfigError("sweep needs a sweep block with an axis")
        if sweep_axis != "chi" and not chi_values:
            raise ConfigError("sweep over k, a or l needs chi values (chi, chi_values) as well")
    if command == "tune" and xi_search is None:
        raise ConfigError("tune needs an xi_search block")

    return RunConfig(
        substrate=substrate,
        j_list=j_list,
        l_values=l_values,
        chi_values=chi_values,
        xi_search=xi_search,
        amplitudes=amplitudes,
        sweep_axis=sweep_axis,
        sweep_values=sweep_values,
        quad_rel_tol=tols["quad_rel_tol"],
        margin_tol=tols["margin_tol"],
        f1_tol=tols["f1_tol"],
        f2_tol=tols["f2_tol"],
        out_format=out_format,
        out_path=out_path,
    )


# ---------------------------------------------------------------------------
# report helpers


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def render_csv(command: str, columns: Sequence[str], rows) -> str:
    lines = [f"# {REPORT_TAG}", ",".join(columns)]
    for row in rows:
        cells = []
        for value in row:
            text = _fmt(value)
            if "," in text or '"' in text or "\n" in text:
                text = '"' + text.replace('"', '""') + '"'
            cells.append(text)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def render_json(command: str, columns: Sequence[str], rows) -> str:
    payload = {
        "format": REPORT_TAG,
        "command": command,
        "columns": list(columns),
        "rows": rows,
    }
    return json.dumps(payload, indent=2) + "\n"


def _chi0_for(cfg: RunConfig):
    """Selected chi0: from an xi_search block when present, else 0 (the zero
    multiplier, when admissible, is always the smallest-magnitude choice)."""
    if cfg.xi_search is None:
        return 0.0, None
    xs = cfg.xi_search
    chi_set = tuning.find_constraint_roots(
        lambda chi: tuning._interp(chi, xs.table_chi, xs.table_g), xs.lo, xs.hi, xs.grid_n, xs.tol,
        k=cfg.substrate.k, mu_omega=cfg.substrate.mu_omega,
    )
    try:
        return tuning.select_chi0(chi_set), chi_set
    except NoTunedSolutionError:
        return None, chi_set


# ---------------------------------------------------------------------------
# rows


_NO_TUNED = {"status": "no-tuned-solution"}


def _row(columns: Sequence[str], values: dict) -> list:
    """A report row holding ``values`` by column name; every other column is blank."""
    return [values.get(name) for name in columns]


def _or_error(cells, *args) -> dict:
    """``cells(*args)``, or the status of the library error it raises, which merges into the row."""
    try:
        return cells(*args)
    except TunedSourceError as exc:
        return {"status": f"error: {exc}"}


def _exit_code(columns: Sequence[str], rows) -> int:
    """1 when a row's status is not ok or any of its pass flags is False, else 0."""
    status = columns.index("status")
    flags = [i for i, name in enumerate(columns) if name.startswith("pass")]
    return int(any(row[status] != "ok" or any(row[i] is False for i in flags) for row in rows))


# ---------------------------------------------------------------------------
# verify


VERIFY_COLUMNS = (
    "j", "l", "k", "K", "chi", "N_k", "N_K", "M",
    "boundedness_margin", "minimality_margin", "f0", "f1_residual",
    "f2_closed", "f2_fd", "pass_bound", "pass_min", "pass_f1", "pass_f2",
    "status",
)


def _mode_expansion(cfg: RunConfig, j: int, l: int) -> dict:
    """Per-mode expansion columns: f0, f1_residual, f2_closed, f2_fd and their pass flags."""
    from . import theorems  # the quadrature oracle: only verify loads numpy

    s = cfg.substrate
    fd = theorems.expansion_fd(j, l, s.k, s.a, s.mu_omega, rel_tol=max(TOL_MIN, cfg.quad_rel_tol / 10.0))
    if j == 2:
        cf = theorems.expansion_j2(l, s.k, s.a, s.mu_omega)
        f0, f1_res, f2_closed = cf.f0, abs(fd.f1) / cf.f0, cf.f2
        pass_f2 = bool(abs(f2_closed - fd.f2) <= cfg.f2_tol * abs(f2_closed))
    else:
        check = theorems.f1_vanishing_check(l, s.k, s.a, s.mu_omega, tol=cfg.f1_tol, rel_tol=cfg.quad_rel_tol)
        f0, f1_res, f2_closed, pass_f2 = check.f0, check.residual, None, None
    return {"f0": f0, "f1_residual": f1_res, "f2_closed": f2_closed, "f2_fd": fd.f2,
            "pass_f1": bool(f1_res <= cfg.f1_tol), "pass_f2": pass_f2}


def _margin_cells(cfg: RunConfig, mode: Mode, k: float, a: float, chi: float, chi0: float) -> dict:
    """Margin columns and pass rules of one (mode, k, a, chi) cell, shared by verify and sweep."""
    mw = cfg.substrate.mu_omega
    K, n_k, n_K, m, margin, scale = _margin_cell(mode, k, chi, mw, a, cfg.quad_rel_tol)
    pass_bound = margin >= -cfg.margin_tol * scale
    if chi == 0.0:
        pass_bound = pass_bound and abs(margin) <= cfg.margin_tol * scale
    K0 = _tuned_K(k, mw, chi0)    # minimality_margin's checks, in its order, with ratio(chi) from this cell
    ratio = _weight(mode, k, K, n_K, m)
    ratio0 = mode_ratio(mode, k, K0, a, cfg.quad_rel_tol)    # the chi0 cell raises after this row's own checks
    regime_cap = _REGIME * k * k
    pass_min = None
    if abs(chi * mw) <= regime_cap and abs(chi0 * mw) <= regime_cap and chi * chi > chi0 * chi0:
        pass_min = bool(ratio - ratio0 > _MIN_STRICT * ratio0)
    return {"K": K, "N_k": n_k, "N_K": n_K, "M": m,
            "boundedness_margin": margin, "bound_scale": scale,
            "minimality_margin": ratio - ratio0, "min_scale": ratio0,
            "pass_bound": bool(pass_bound), "pass_min": pass_min, "status": "ok"}


def run_verify(cfg: RunConfig):
    """Theorem-verification run; returns (exit_code, columns, rows)."""
    s = cfg.substrate
    chi0, _ = _chi0_for(cfg)
    if chi0 is None:
        rows = [_row(VERIFY_COLUMNS, _NO_TUNED)]
    else:
        expansions = {(j, l): _or_error(_mode_expansion, cfg, j, l) for j in cfg.j_list for l in cfg.l_values}
        rows = []
        for j in cfg.j_list:
            for l in cfg.l_values:
                for chi in cfg.chi_values:
                    row = {"j": j, "l": l, "k": s.k, "chi": chi, **expansions[(j, l)]}
                    if "status" not in row:
                        row.update(_or_error(_margin_cells, cfg, Mode(j, l), s.k, s.a, chi, chi0))
                    rows.append(_row(VERIFY_COLUMNS, row))
    return _exit_code(VERIFY_COLUMNS, rows), VERIFY_COLUMNS, rows


# ---------------------------------------------------------------------------
# energies


ENERGIES_COLUMNS = ("chi", "K", "E_untuned", "E_tuned", "delta", "selected", "pass", "status")


def run_energies(cfg: RunConfig):
    """Untuned vs tuned source energies; returns (exit_code, columns, rows)."""
    s = cfg.substrate
    spec = SourceSpec(dict(cfg.amplitudes))

    def energy(K: float) -> float:
        return source_energy(spec, {
            mode: mode_ratio(mode, s.k, K, s.a, cfg.quad_rel_tol) for mode in spec.amplitudes
        })

    untuned = _or_error(lambda: {"E_untuned": energy(_tuned_K(s.k, s.mu_omega, 0.0))})

    chi_list = list(cfg.chi_values)
    selected = None
    if cfg.xi_search is not None:
        selected, chi_set = _chi0_for(cfg)
        chi_list = list(chi_set.roots)
    if not chi_list:
        # an empty tuning set is reported, not failed; a failed untuned energy fails
        return int("status" in untuned), ENERGIES_COLUMNS, [_row(ENERGIES_COLUMNS, {**_NO_TUNED, **untuned})]

    def tuned(chi: float) -> dict:
        if "status" in untuned:
            return {}  # every row carries the untuned energy's error
        e_untuned = untuned["E_untuned"]
        K = _tuned_K(s.k, s.mu_omega, chi)
        e_tuned = energy(K)
        delta = e_tuned - e_untuned
        scale = max(abs(e_untuned), abs(e_tuned))
        return {"K": K, "E_tuned": e_tuned, "delta": delta,
                "selected": (selected is not None and chi == selected) or None,
                "pass": bool(delta >= -cfg.margin_tol * scale), "status": "ok"}

    rows = [_row(ENERGIES_COLUMNS, {"chi": chi, **untuned, **_or_error(tuned, chi)})
            for chi in chi_list]
    return _exit_code(ENERGIES_COLUMNS, rows), ENERGIES_COLUMNS, rows


# ---------------------------------------------------------------------------
# sweep


SWEEP_COLUMNS = (
    "axis", "value", "j", "l", "k", "K", "a", "mu_omega", "chi",
    "N_k", "N_K", "M", "boundedness_margin", "bound_scale",
    "minimality_margin", "min_scale", "pass_bound", "pass_min", "status",
)


def run_sweep(cfg: RunConfig):
    """Long-format sweep over chi, k, a, or l; returns (exit_code, columns, rows)."""
    s = cfg.substrate
    axis = cfg.sweep_axis
    chi0, _ = _chi0_for(cfg)
    if chi0 is None:
        rows = [_row(SWEEP_COLUMNS, _NO_TUNED)]
    else:
        fixed = {"axis": axis, "k": s.k, "a": s.a, "mu_omega": s.mu_omega}
        # the swept value stands in for one of k, a, l, chi; the sort is stable,
        # so duplicate sweep values keep the order they were made in
        points = sorted(
            ({**fixed, "value": value, "j": j, "l": l, "chi": chi, axis: value}
             for value in cfg.sweep_values for j in cfg.j_list
             for l in ([value] if axis == "l" else cfg.l_values)
             for chi in ([value] if axis == "chi" else cfg.chi_values)),
            key=lambda p: (p["value"], p["j"], p["l"], p["chi"]),
        )
        rows = [_row(SWEEP_COLUMNS, {**p, **_or_error(
                    _margin_cells, cfg, Mode(p["j"], p["l"]), p["k"], p["a"], p["chi"], chi0)})
                for p in points]
    return _exit_code(SWEEP_COLUMNS, rows), SWEEP_COLUMNS, rows


# ---------------------------------------------------------------------------
# tune


TUNE_COLUMNS = ("chi_root", "admissible", "selected", "status")


def run_tune(cfg: RunConfig):
    """Roots of the tabulated constraint and the selected chi0; an empty tuning set exits 0."""
    chi0, chi_set = _chi0_for(cfg)
    if chi_set is None or (not chi_set.roots and not chi_set.excluded):
        return 0, TUNE_COLUMNS, [_row(TUNE_COLUMNS, _NO_TUNED)]
    rows = [_row(TUNE_COLUMNS, {"chi_root": root, "admissible": root in chi_set.roots,
                                "selected": (chi0 is not None and root == chi0) or None,
                                "status": "ok" if root in chi_set.roots else "inadmissible"})
            for root in sorted(chi_set.roots + chi_set.excluded)]
    if chi0 is None:
        rows.append(_row(TUNE_COLUMNS, _NO_TUNED))
    return 0, TUNE_COLUMNS, rows


# ---------------------------------------------------------------------------
# entry point


_RUNNERS = {
    "verify": run_verify,
    "energies": run_energies,
    "sweep": run_sweep,
    "tune": run_tune,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tuned-source",
        description="Certify boundedness/minimality of tuned minimum-energy radiating sources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("verify", "per-mode margins, expansion coefficients and pass flags"),
        ("energies", "untuned vs tuned source energies for prescribed amplitudes"),
        ("sweep", "long-format report over a swept axis"),
        ("tune", "roots of a tabulated tuning constraint"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--out", default=None, help="output file (defaults to config output.path, else stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None, help="report format override")
        p.add_argument("--tol-quad", type=float, default=None, help="quadrature relative tolerance override")
        p.add_argument("--tol-margin", type=float, default=None, help="margin tolerance override")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        "out": args.out,
        "format": args.format,
        "quad_rel_tol": args.tol_quad,
        "margin_tol": args.tol_margin,
    }
    try:
        cfg = load_config(args.config, command=args.command, overrides=overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    code, columns, rows = _RUNNERS[args.command](cfg)
    text = (render_csv if cfg.out_format == "csv" else render_json)(args.command, columns, rows)
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
