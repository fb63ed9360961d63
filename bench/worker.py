"""One fresh benchmark process: set up, run a closed loop, report as JSON.

Usage: ``python3 bench/worker.py SPEC_JSON`` where SPEC_JSON is an object with

    mode        "setup" | "run" | "cli_setup" | "cli_trace"
    workload    "bound_grid" | "fd_oracle"        (setup, run)
    seed        int                               (setup, run)
    calls       fixed number of calls             (run)
    calibrate   time the host-speed loop between stretches of calls (run)
    trace       record per-layer spans            (run)
    sample      number of cells to hand to the reference check (run)
    configs     [[command, path], ...]            (cli_setup)
    command, config, out                          (cli_trace)
    result      path of the JSON result file      (run, cli_trace)
    spans       path of the span dump             (run and cli_trace with trace)

"setup" and "cli_setup" print one line ``ready`` once the package is imported
and the inputs are loaded, then exit; the runner times that.  A fresh process
per measured run matters: the library's ``lru_cache``s are keyed on float
arguments, and a second run in one process would time cache hits.

A "run" makes a fixed number of calls, the same for every run of a seed, so
its failures, its output digest and its peak RSS repeat from run to run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import resource
import sys
import time

import hostspeed

# acceptance tolerances (tests/test_acceptance.py, criteria 03-06)
MARGIN_NEG_TOL = 1e-9
MARGIN_EQ_TOL = 1e-10
F1_TOL = 1e-8
F1_FD_TOL = 1e-6
F2_TOL = 1e-4
F0_TOL = 1e-10
CURL_TOL = 1e-10

FD_REL_TOL = 1e-13   # expansion_fd default
FD_STEP_WIDE = 4e-2  # widest finite-difference step, in units of k^2 / mu_omega


def _workload(name):
    """(inputs, call, failures, reference_cells, stretch) of a library workload.

    ``call`` looks the theorem up on the module at every call, so the spans
    installed by a traced run see it.  ``stretch`` is the number of calls
    between two host-speed calibrations: one draw of 21 cells, or one bundle.
    """
    import workloads
    from tunedsource import theorems
    from tunedsource.model import Mode, tuned_wavenumber

    if name == "bound_grid":
        def inputs(seed):
            for j, l, k, a, mw in workloads.bound_grid_draws(seed):
                mode = Mode(j, l)
                for chi in theorems.default_chi_grid(k, mw):
                    yield mode, k, float(chi), mw, a

        def call(mode, k, chi, mw, a):
            return theorems.boundedness_margin(mode, k, chi, mw, a)

        def reference_cells(mode, k, chi, mw, a):
            return [(mode.j, mode.l, k, tuned_wavenumber(k, mw, chi).K, a, 1e-12)]

        return inputs, call, _margin_failures, reference_cells, 21
    if name == "fd_oracle":
        def call(l, k, a, mw, K_near):
            return (
                theorems.f1_vanishing_check(l, k, a, mw, tol=F1_TOL),
                theorems.expansion_fd(1, l, k, a, mw),
                theorems.expansion_fd(2, l, k, a, mw),
                theorems.expansion_j2(l, k, a, mw),
                theorems.curl_identity_check(l, k, K_near, a),
            )

        def reference_cells(l, k, a, mw, K_near):
            h = FD_STEP_WIDE * (k * k / mw)
            return [
                (j, l, k, tuned_wavenumber(k, mw, chi).K, a, FD_REL_TOL)
                for j in (1, 2) for chi in (0.0, h)
            ]

        return workloads.fd_oracle_modes, call, _bundle_failures, reference_cells, 1
    raise ValueError(f"unknown workload {name!r}")


def _margin_failures(args, rep):
    chi = args[2]
    bad = []
    if rep.margin < -MARGIN_NEG_TOL * rep.scale:
        bad.append(f"negative margin {rep.margin / rep.scale:.3e}")
    if chi == 0.0 and abs(rep.margin) > MARGIN_EQ_TOL * rep.scale:
        bad.append(f"margin at chi=0 {rep.margin / rep.scale:.3e}")
    return bad


def _bundle_failures(args, out):
    f1, fd1, fd2, cf, curl = out
    bad = []
    if not f1.passed or f1.residual > F1_TOL:
        bad.append(f"f1 residual {f1.residual:.3e}")
    for fd in (fd1, fd2):
        if abs(fd.f1) / fd.f0 > F1_FD_TOL:
            bad.append(f"j={fd.j} finite-difference f1 ratio {abs(fd.f1) / fd.f0:.3e}")
    if abs(cf.f2 - fd2.f2) > F2_TOL * abs(cf.f2):
        bad.append(f"f2 closed vs fd {abs(cf.f2 - fd2.f2) / abs(cf.f2):.3e}")
    if abs(cf.f0 - fd2.f0) > F0_TOL * abs(cf.f0):
        bad.append(f"j=2 f0 closed vs fd {abs(cf.f0 - fd2.f0) / abs(cf.f0):.3e}")
    if abs(f1.f0 - fd1.f0) > F0_TOL * abs(f1.f0):
        bad.append(f"j=1 f0 series vs fd {abs(f1.f0 - fd1.f0) / abs(f1.f0):.3e}")
    if curl > CURL_TOL:
        bad.append(f"curl discrepancy {curl:.3e}")
    return bad


def _run(spec):
    from tunedsource.model import Mode, radial_integrals

    inputs, call, failures, reference_cells, stretch = _workload(spec["workload"])
    tracer = None
    if spec.get("trace"):
        import spans

        tracer = spans.install()
    calibrate = spec.get("calibrate", False)
    latencies, calibrations, failed, errors, passed = [], [], 0, [], []
    digest = hashlib.sha256()
    start = time.perf_counter()
    for args in itertools.islice(inputs(spec["seed"]), spec["calls"]):
        if calibrate and len(latencies) % stretch == 0:
            calibrations.append(hostspeed.sample())
        t0 = time.perf_counter()
        try:
            out = call(*args)
        except Exception as exc:  # an operation that raises counts as failed
            t1 = time.perf_counter()
            out = bad = [f"{type(exc).__name__}: {exc}"]
        else:
            t1 = time.perf_counter()
            bad = failures(args, out)
        digest.update(repr(out).encode())
        if bad:
            failed += 1
            if len(errors) < 10:
                errors.append({"args": repr(args), "why": bad})
        else:
            passed.append(args)
        latencies.append(t1 - t0)
    if calibrate:
        calibrations.append(hostspeed.sample())
    wall = time.perf_counter() - start

    result = {
        "calls": len(latencies),
        "wall_s": wall,
        "latencies_s": latencies,
        "calibrations_s": calibrations,
        "stretch": stretch,
        "failed": failed,
        "errors": errors,
        "digest": digest.hexdigest(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary()
        tracer.dump(spec["spans"])
        return result
    # The program's own N and M for a seeded sample of the calls that passed,
    # for the independent reference check.  The lru_caches return exactly the
    # values the timed calls used.
    picks = random.Random(f"reference:{spec['seed']}").sample(passed, min(spec.get("sample", 0), len(passed)))
    sample = []
    for args in picks:
        for j, l, k, K, a, rel_tol in reference_cells(*args):
            ri = radial_integrals(Mode(j, l), k, K, a, rel_tol)
            sample.append({"j": j, "l": l, "k": k, "K": K, "a": a, "rel_tol": rel_tol,
                           "N_k": ri.n_self_k, "N_K": ri.n_self_K, "M": ri.m_cross})
    result["sample"] = sample
    return result


def _cli_trace(spec):
    """One CLI report in-process, with every layer wrapped, in main()'s order."""
    t0 = time.perf_counter()
    from tunedsource import cli

    import_s = time.perf_counter() - t0
    import spans

    tracer = spans.install()
    command = spec["command"]
    overrides = {"out": spec["out"], "format": None, "quad_rel_tol": None, "margin_tol": None, "jobs": 1}
    code = tracer.cli_report(cli, command, spec["config"], overrides)
    tracer.uninstall()
    layers = tracer.summary()
    layers["cli.import_s"] = import_s
    tracer.dump(spec["spans"])
    return {"code": code, "layers": layers}


def main(argv):
    spec = json.loads(argv[1])
    mode = spec["mode"]
    if mode == "setup":
        inputs = _workload(spec["workload"])[0]
        next(inputs(spec["seed"]))
    elif mode == "cli_setup":
        from tunedsource import cli

        for command, path in spec["configs"]:
            cli.load_config(path, command=command)
    if mode in ("setup", "cli_setup"):
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0
    result = _run(spec) if mode == "run" else _cli_trace(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
