"""Acceptance suite: every certified claim at its stated tolerance.

Each test prints one `ACCEPTANCE <n> <name>: PASS|FAIL` line (run pytest with
`-s` or check captured output).  Tolerances here are the contract; they are
not to be loosened.
"""

import itertools
import json
import math
import time
from pathlib import Path

import pytest

from tunedsource import cli, specfun, theorems, tuning
from tunedsource.model import Mode, minimality_margin, radial_integrals
from tunedsource.quadrature import integrate_radial

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(num, name, violations):
    status = "FAIL" if violations else "PASS"
    print(f"\nACCEPTANCE {num:02d} {name}: {status}")
    assert not violations, f"criterion {num} ({name}): {violations[:10]}"


def test_criterion_01_lommel_closed_form():
    """Closed-form radial self-integral vs adaptive quadrature, <= 1e-10 rel."""
    start = time.monotonic()
    violations = []
    for l in range(1, 9):
        for target in (0.5, 1.0, 2.0, math.pi, 10.0, 30.0):
            a = 2.0
            alpha = target / a
            closed = specfun.lommel_first(l, alpha, a)
            quad = integrate_radial(
                lambda r: r * r * specfun.bessel_j(l, alpha * r) ** 2,
                a, 1e-12, osc_scale=alpha,
            ).value
            rel = abs(closed - quad) / abs(closed)
            if rel > 1e-10:
                violations.append((l, target, rel))
    elapsed = time.monotonic() - start
    if elapsed >= 10.0:
        violations.append(("runtime", elapsed))
    _report(1, "lommel closed form", violations)


def test_criterion_02_extended_integral():
    """Truncated half-line integral of j_l^2 vs pi/(2(2l+1)alpha), <= 2e-2 rel."""
    violations = []
    for l in range(0, 5):
        for alpha in (0.5, 1.0, 3.0):
            L = 2000.0 / alpha
            got = integrate_radial(
                lambda r: specfun.bessel_j(l, alpha * r) ** 2, L, 1e-10, osc_scale=alpha, max_panels=65536
            ).value
            want = math.pi / (2.0 * (2 * l + 1) * alpha)
            rel = abs(got - want) / want
            if rel > 2e-2:
                violations.append((l, alpha, rel))
    _report(2, "extended integral", violations)


def test_criterion_03_boundedness_grid():
    """Cauchy-Schwarz margin >= -1e-9*scale on the full grid; ~0 at chi=0."""
    start = time.monotonic()
    violations = []
    for j, l, k, a, mw in itertools.product(
        (1, 2), range(1, 7), (0.5, 1.0, 2.0, 5.0, -0.5, -1.0, -2.0, -5.0),
        (0.5, 1.0, math.pi, 5.0), (0.5, 1.0, 2.0),
    ):
        mode = Mode(j, l)
        for chi in theorems.default_chi_grid(k, mw):
            rep = theorems.boundedness_margin(mode, k, float(chi), mw, a)
            if rep.margin < -1e-9 * rep.scale:
                violations.append(("negative", j, l, k, a, mw, chi, rep.margin / rep.scale))
            if chi == 0.0 and abs(rep.margin) > 1e-10 * rep.scale:
                violations.append(("equality", j, l, k, a, mw, rep.margin / rep.scale))
    elapsed = time.monotonic() - start
    if elapsed >= 120.0:
        violations.append(("runtime", elapsed))
    _report(3, "boundedness margins", violations)


def test_criterion_04_curl_recast():
    """Angular-reduced curl inner products vs kernel integrals, <= 1e-10."""
    violations = []
    cases = list(itertools.product(
        (1, 2, 3, 4, 5), (1.0, -1.5), (0.7, 2.3), (1.0, 2.5)
    ))  # 40 off-diagonal cases
    cases += [(l, 1.3, 1.3, 2.0) for l in (1, 2, 3, 4, 5)]          # diagonal
    cases += [(l, -0.8, 0.8, math.pi) for l in (1, 2, 3, 4, 5)]     # mirrored
    assert len(cases) >= 50
    for (l, k, K, a) in cases:
        disc = theorems.curl_identity_check(l, k, K, a)
        if disc > 1e-10:
            violations.append((l, k, K, a, disc))
    _report(4, "curl recast", violations)


F1_GRID = list(itertools.product(
    range(1, 7), (0.5, 1.0, 2.0, -0.5, -1.0, -2.0), (1.0, math.pi), (0.5, 1.0)
))


def test_criterion_05_first_order_vanishing():
    """j=1 first-order coefficient: residual <= 1e-8, FD cross-check <= 1e-6."""
    violations = []
    for (l, k, a, mw) in F1_GRID:
        rep = theorems.f1_vanishing_check(l, k, a, mw, tol=1e-8)
        if not rep.passed or rep.residual > 1e-8:
            violations.append(("closed", l, k, a, mw, rep.residual))
        fd = theorems.expansion_fd(1, l, k, a, mw)
        if abs(fd.f1) / fd.f0 > 1e-6:
            violations.append(("fd", l, k, a, mw, abs(fd.f1) / fd.f0))
    _report(5, "first-order coefficient vanishes", violations)


def test_criterion_06_expansion_closed_forms():
    """j=2 expansion: f0 vs 1/N_2 (1e-10) and FD (1e-8); f2 vs FD (1e-4 rel)."""
    violations = []
    for (l, k, a, mw) in F1_GRID:
        cf = theorems.expansion_j2(l, k, a, mw)
        n2 = specfun.lommel_first(l, k, a)
        if abs(cf.f0 - 1.0 / n2) > 1e-10 * abs(cf.f0):
            violations.append(("f0-closed", l, k, a, mw))
        fd = theorems.expansion_fd(2, l, k, a, mw)
        if abs(cf.f0 - fd.f0) > 1e-8 * abs(cf.f0):
            violations.append(("f0-fd", l, k, a, mw, abs(cf.f0 - fd.f0) / cf.f0))
        rel = abs(cf.f2 - fd.f2) / abs(cf.f2)
        if rel > 1e-4:
            violations.append(("f2", l, k, a, mw, rel))
    _report(6, "expansion closed forms", violations)


def test_criterion_07_minimality_uniqueness():
    """Strict minimality margin > 1e-12*scale inside the expansion regime."""
    violations = []
    t_tests = (1e-3, -1e-3, 5e-3, -5e-3, 5e-2, -5e-2)
    for j, l, k, a, mw in itertools.product(
        (1, 2), range(1, 5), (1.0, -1.0, 2.0, -2.0), (1.0, 2.0), (0.5, 1.0)
    ):
        mode = Mode(j, l)
        unit = k * k / mw
        for s0 in (1.0, -1.0):
            chi0 = s0 * 2e-5 * unit
            for t in t_tests:
                chi = t * unit
                rep = minimality_margin(mode, k, chi, chi0, mw, a, 1e-13)
                if not rep.margin > 1e-12 * rep.scale:
                    violations.append(("strict", j, l, k, a, mw, s0, t, rep.margin / rep.scale))
            if j == 1:
                same = minimality_margin(mode, k, chi0, chi0, mw, a, 1e-14)
                flip = minimality_margin(mode, k, -chi0, chi0, mw, a, 1e-14)
                if abs(same.margin) > 1e-12 * same.scale:
                    violations.append(("same-chi", j, l, k, a, mw, s0))
                if abs(flip.margin) > 1e-12 * flip.scale:
                    violations.append(("sign-flip", j, l, k, a, mw, s0, flip.margin / flip.scale))
    _report(7, "minimality and uniqueness", violations)


def test_criterion_08_parity_mirror():
    """k -> -k and K -> -K leave all margins unchanged to 1e-12 relative."""
    violations = []
    # theorem-level mirror across a sweep grid
    for j, l, k, a, mw in itertools.product(
        (1, 2), (1, 2, 3), (0.5, 1.0, 2.0), (1.0, math.pi), (0.5, 1.0)
    ):
        for chi in theorems.default_chi_grid(k, mw, n=7):
            pos = theorems.boundedness_margin(Mode(j, l), k, float(chi), mw, a)
            neg = theorems.boundedness_margin(Mode(j, l), -k, float(chi), mw, a)
            scale = max(abs(pos.margin), pos.scale * 1e-13)
            if abs(pos.margin - neg.margin) > 1e-12 * scale:
                violations.append(("mirror", j, l, k, a, mw, chi))
    # K -> -K invariance of the raw integrals
    for j, l in itertools.product((1, 2), (1, 2, 4)):
        for (k, K, a) in ((1.0, 0.7, 2.0), (-1.5, 2.1, 1.0)):
            ri_p = radial_integrals(Mode(j, l), k, K, a)
            ri_m = radial_integrals(Mode(j, l), k, -K, a)
            m_p = ri_p.n_self_k * ri_p.n_self_K - ri_p.m_cross**2
            m_m = ri_m.n_self_k * ri_m.n_self_K - ri_m.m_cross**2
            scale = max(abs(m_p), ri_p.n_self_k * ri_p.n_self_K * 1e-13)
            if abs(m_p - m_m) > 1e-12 * scale:
                violations.append(("K-flip", j, l, k, K, a))
    # CLI-level DNG sweep reproduces the mirrored DPS sweep row-for-row
    dps = {
        "substrate": {"epsilon_r": 1.0, "mu_r": 1.0, "omega": 1.5, "a": 2.0},
        "modes": {"j": [1, 2], "l": [1, 2]},
        "sweep": {"axis": "chi", "values": [-1.0, -0.5, 0.0, 0.5, 1.0]},
    }
    dng = {
        "substrate": {"epsilon_r": -1.0, "mu_r": -1.0, "omega": 1.5, "a": 2.0},
        "modes": {"j": [1, 2], "l": [1, 2]},
        "sweep": {"axis": "chi", "values": [1.0, 0.5, 0.0, -0.5, -1.0]},
    }
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, payload in (("dps", dps), ("dng", dng)):
            p = Path(tmp) / f"{name}.json"
            p.write_text(json.dumps(payload), encoding="utf-8")
            paths[name] = str(p)
        _, cols, rows_dps = cli.run_sweep(cli.load_config(paths["dps"], command="sweep"))
        _, _, rows_dng = cli.run_sweep(cli.load_config(paths["dng"], command="sweep"))
        i_chi = cols.index("chi")
        i_m = cols.index("boundedness_margin")
        i_s = cols.index("bound_scale")
        i_j, i_l = cols.index("j"), cols.index("l")
        table_dng = {
            (row[i_j], row[i_l], -row[i_chi]): (row[i_m], row[i_s]) for row in rows_dng
        }
        for row in rows_dps:
            key = (row[i_j], row[i_l], row[i_chi])
            m_dng, s_dng = table_dng[key]
            scale = max(abs(row[i_m]), row[i_s] * 1e-13)
            if abs(row[i_m] - m_dng) > 1e-12 * scale:
                violations.append(("cli-mirror", key))
    _report(8, "parity and mirror invariance", violations)


def test_criterion_09_tuning_machinery():
    """Root search and minimal-multiplier selection, localization <= 1e-10."""
    violations = []
    xi = tuning.find_constraint_roots(lambda c: c * c - 1.0, -2.0, 2.0, 64, 1e-10)
    if len(xi.roots) != 2 or abs(xi.roots[0] + 1.0) > 1e-10 or abs(xi.roots[1] - 1.0) > 1e-10:
        violations.append(("quadratic", xi.roots))
    if tuning.select_chi0(xi) != xi.roots[1] and tuning.select_chi0(xi) != xi.roots[0]:
        violations.append(("quadratic-select", xi.roots))

    xi = tuning.find_constraint_roots(lambda c: c * c + 1.0, -2.0, 2.0, 64, 1e-10)
    if xi.roots != ():
        violations.append(("no-roots", xi.roots))
    try:
        tuning.select_chi0(xi)
        violations.append(("empty-select-did-not-raise",))
    except tuning.NoTunedSolutionError:
        pass

    xi = tuning.find_constraint_roots(math.sin, -4.0, 4.0, 256, 1e-10)
    wanted = (-math.pi, 0.0, math.pi)
    if len(xi.roots) != 3 or any(abs(r - w) > 1e-10 for r, w in zip(xi.roots, wanted)):
        violations.append(("sine", xi.roots))
    if abs(tuning.select_chi0(xi)) > 1e-10:
        violations.append(("sine-select", tuning.select_chi0(xi)))

    # tie-break toward the positive sign on exact magnitude ties
    if tuning.select_chi0(tuning.ChiSet(roots=(-0.3, 0.3), bracket_tol=1e-12)) != 0.3:
        violations.append(("tie-break",))
    _report(9, "tuning-set machinery", violations)


def test_criterion_10_cli_contract(tmp_path):
    """Documented configs: byte-identical reports and the 0/1/2 exit classes."""
    violations = []
    documented = [
        ("verify", "verify_vacuum.json", 0),
        ("energies", "energies_tuned.json", 0),
        ("sweep", "sweep_chi_dng.json", 0),
    ]
    for command, name, want_code in documented:
        cfg = str(CONFIG_DIR / name)
        outs = []
        for run in (1, 2):
            out = tmp_path / f"{name}.{run}.csv"
            code = cli.main([command, "--config", cfg, "--out", str(out)])
            if code != want_code:
                violations.append((name, "exit", code))
            outs.append(out.read_bytes())
        if outs[0] != outs[1]:
            violations.append((name, "not byte-identical"))

    # exit 1: deliberately unmeetable margin tolerance
    out = tmp_path / "strict.csv"
    code = cli.main(["verify", "--config", str(CONFIG_DIR / "verify_strict.json"), "--out", str(out)])
    if code != 1 or not out.exists():
        violations.append(("verify_strict.json", "exit", code))

    # exit 2: unsupported medium; no output file may be written
    out = tmp_path / "invalid.csv"
    code = cli.main(["verify", "--config", str(CONFIG_DIR / "invalid_single_negative.json"),
                     "--out", str(out)])
    if code != 2 or out.exists():
        violations.append(("invalid_single_negative.json", "exit", code))
    _report(10, "CLI contract", violations)
