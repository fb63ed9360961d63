"""Seeded inputs of the three benchmark workloads.

This module is the only place benchmark inputs are made: the library and the
CLI receive only what it returns.  Everything is drawn from
``random.Random`` seeded with a string built from the workload name and the
seed, so one seed gives the same inputs on every run and platform.  It uses
the standard library only, so the runner never imports numpy itself.
"""

from __future__ import annotations

import itertools
import math
import random

WORKLOADS = ("bound_grid", "fd_oracle", "cli_reports")


def _log_scale(u: float, lo: float, hi: float) -> float:
    """The point at fraction ``u`` of [lo, hi] on a log scale."""
    return lo * math.exp(u * math.log(hi / lo))


def _in_bin(rng: random.Random, part) -> float:
    """Uniform in bin ``part[0]`` of ``part[1]`` equal bins of [0, 1)."""
    index, bins = part
    return (index + rng.random()) / bins


def _blocks(rng: random.Random, factors, continuous: int):
    """Endless stream of (combination, uniforms) in shuffled blocks.

    Every block holds each combination of ``factors`` once, so the discrete
    mix of a run is the same for every seed.  The ``continuous`` uniforms in
    [0, 1) are stratified over the block (a Latin hypercube): in a block of
    n draws each of them falls once in each of n equal bins, so the
    continuous inputs of a block cover their whole ranges evenly.
    """
    combos = list(itertools.product(*factors))
    n = len(combos)
    while True:
        rng.shuffle(combos)
        columns = [rng.sample(range(n), n) for _ in range(continuous)]
        for i, combo in enumerate(combos):
            yield combo, [_in_bin(rng, (column[i], n)) for column in columns]


def bound_grid_draws(seed: int):
    """Endless stream of (j, l, k, a, mu_omega) draws for the margin grid.

    Same shape as acceptance criterion 03: j in {1, 2}, l in 1..6, k of
    either sign with |k| log-uniform in [0.5, 5], a in [0.5, 5] and
    mu_omega in [0.5, 2], in blocks of the 24 (j, l, sign) combinations.
    Each draw is evaluated at the 21 points of ``theorems.default_chi_grid``.
    """
    rng = random.Random(f"bound_grid:{seed}")
    for (j, l, sign), (uk, ua, um) in _blocks(rng, ((1, 2), range(1, 7), (1.0, -1.0)), 3):
        k = sign * _log_scale(uk, 0.5, 5.0)
        a = 0.5 + 4.5 * ua
        mu_omega = 0.5 + 1.5 * um
        yield j, l, k, a, mu_omega


def fd_oracle_modes(seed: int):
    """Endless stream of (l, k, a, mu_omega, K_near) mode bundles.

    Same shape as acceptance criteria 04-06: l in 1..6, k of either sign with
    |k| in [0.5, 2], a in [1, pi], mu_omega in [0.5, 1].  K_near, used by the
    curl-recast check, lies 0.1-2 % above or below |k|, the same distance
    from the diagonal as the finite-difference steps of ``expansion_fd``.
    The bundles come in blocks of the 12 (l, sign) combinations.
    """
    rng = random.Random(f"fd_oracle:{seed}")
    for (l, sign), (uk, ua, um, ud) in _blocks(rng, (range(1, 7), (1.0, -1.0)), 4):
        ak = 0.5 + 1.5 * uk
        k = sign * ak
        a = 1.0 + (math.pi - 1.0) * ua
        mu_omega = 0.5 + 0.5 * um
        K_near = ak * (1.0 + rng.choice((1.0, -1.0)) * _log_scale(ud, 1e-3, 2e-2))
        yield l, k, a, mu_omega, K_near


def _xi_table(unit: float, roots_t, span: float = 0.6, nodes: int = 25):
    """Tabulated tuning constraint g with zeros at chi = t * unit for t in roots_t.

    g is the product of (t - r) over the roots, sampled on a uniform t grid
    with the roots added as nodes, so the interpolated constraint vanishes
    exactly at each root.  Returns (table, lo, hi) in chi, sorted by chi.
    """
    ts = sorted({round(-span + 2.0 * span * i / (nodes - 1), 12) for i in range(nodes)} | set(roots_t))
    table = []
    for t in ts:
        g = 1.0
        for r in roots_t:
            g *= t - r
        table.append([t * unit, 0.0 if t in roots_t else g])
    table.sort(key=lambda pair: pair[0])
    inner = 0.9 * span * abs(unit)
    return table, -inner, inner


def _one_per_bin(rng: random.Random, lo: int, hi: int, bins: int):
    """One integer from each of ``bins`` near-equal consecutive bins of lo..hi.

    Spreads the orders of every config over the whole range, so that the
    cost of a config, which grows with its orders, varies little by seed.
    """
    values = list(range(lo, hi + 1))
    edges = [round(i * len(values) / bins) for i in range(bins + 1)]
    return [rng.choice(values[edges[i]:edges[i + 1]]) for i in range(bins)]


def _dng_substrate(rng: random.Random, ka_lo: float, ka_hi: float, part):
    eps = -rng.uniform(0.5, 2.0)
    mu = -rng.uniform(0.5, 2.0)
    omega = rng.uniform(0.5, 1.5)
    ak = omega * math.sqrt(eps * mu)
    return {"epsilon_r": eps, "mu_r": mu, "omega": omega, "a": _log_scale(_in_bin(rng, part), ka_lo, ka_hi) / ak}


def _verify_config(rng: random.Random, part):
    """verify on a DNG substrate, chi0 chosen by an xi_search table."""
    sub = _dng_substrate(rng, 0.5, 5.0, part)
    k2 = sub["omega"] ** 2 * sub["epsilon_r"] * sub["mu_r"]
    unit = k2 / (sub["mu_r"] * sub["omega"])        # chi * mu_omega = t * k^2
    t0 = rng.choice((1.0, -1.0)) * rng.uniform(0.002, 0.01)
    table, lo, hi = _xi_table(unit, (t0, -math.copysign(0.4, t0)))
    return {
        "substrate": sub,
        "modes": {"j": [1, 2], "l": _one_per_bin(rng, 1, 6, 3)},
        "chi_values": [t * unit for t in (-0.08, -0.04, 0.0, 0.04, 0.08)],
        "xi_search": {"lo": lo, "hi": hi, "grid_n": 181, "tol": 1e-12, "table": table},
        "output": {"format": "csv"},
    }


def _sweep_config(rng: random.Random, part):
    """sweep over l up to 30, with k*a drawn log-uniform in [0.5, 30]."""
    eps = rng.uniform(0.5, 4.0)
    omega = rng.uniform(0.5, 2.0)
    k = omega * math.sqrt(eps)
    unit = k * k / omega                              # mu_r = 1
    return {
        "substrate": {"epsilon_r": eps, "mu_r": 1.0, "omega": omega, "a": _log_scale(_in_bin(rng, part), 0.5, 30.0) / k},
        "modes": {"j": [1, 2], "l": [1]},
        "chi_values": [t * unit for t in (-0.05, 0.0, 0.05)],
        "sweep": {"axis": "l", "values": _one_per_bin(rng, 1, 30, 8)},
        "output": {"format": "csv"},
    }


def _energies_config(rng: random.Random, part):
    """energies over the three roots of an xi_search table, any substrate class."""
    kind = rng.choice(("ordinary", "DPS", "DNG"))
    if kind == "DNG":
        sub = _dng_substrate(rng, 0.5, 5.0, part)
    else:
        eps = rng.uniform(1.0, 3.0) if kind == "ordinary" else rng.uniform(0.3, 0.9)
        omega = rng.uniform(0.5, 1.5)
        sub = {"epsilon_r": eps, "mu_r": 1.0, "omega": omega,
               "a": _log_scale(_in_bin(rng, part), 0.5, 5.0) / (omega * math.sqrt(eps))}
    k2 = sub["omega"] ** 2 * sub["epsilon_r"] * sub["mu_r"]
    unit = k2 / (sub["mu_r"] * sub["omega"])
    roots = (rng.uniform(-0.5, -0.25), rng.uniform(-0.05, 0.05), rng.uniform(0.25, 0.5))
    table, lo, hi = _xi_table(unit, roots)
    modes = rng.sample([(j, l) for j in (1, 2) for l in range(1, 5)], 3)
    return {
        "substrate": sub,
        "amplitudes": [
            {"j": j, "l": l, "m": 0, "re": rng.uniform(-1.0, 1.0), "im": rng.uniform(-1.0, 1.0)}
            for j, l in modes
        ],
        "xi_search": {"lo": lo, "hi": hi, "grid_n": 181, "tol": 1e-12, "table": table},
        "output": {"format": "csv"},
    }


def cli_round(seed: int, index: int, rounds: int):
    """The three (command, config) pairs of round ``index`` of ``rounds``.

    Each config draws k*a from its own log-spaced bin of the full range: the
    bins of ``rounds`` rounds cover the range once per command, in a seeded
    order.  The cost of a config grows with k*a, so the cost of the rounds
    together varies little by seed.
    """
    strata = random.Random(f"cli_reports:{seed}:strata")
    verify, sweep, energies = (strata.sample(range(rounds), rounds) for _ in range(3))
    rng = random.Random(f"cli_reports:{seed}:{index}")
    return [
        ("verify", _verify_config(rng, (verify[index], rounds))),
        ("sweep", _sweep_config(rng, (sweep[index], rounds))),
        ("energies", _energies_config(rng, (energies[index], rounds))),
    ]
