"""Certification benchmark of tunedsource: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 bench/run.py --workload bound_grid --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --compare A.json B.json

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
gives the per-layer metrics of a separate traced run.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the full result, with the environment, goes to
``.bench_out/`` (or ``--out``).  ``--compare`` prints every metric of two
such result files side by side, with the ratio.

All load comes from this one process, which has no threads: every
measured run, every CLI call and every set-up is a fresh child process,
started one at a time, with BLAS threads pinned to 1.  See README.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import hostspeed
import spans
import workloads

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
HOSTSPEED = HERE / "hostspeed.py"
REFERENCE = HERE / "reference.py"

BLAS_PINNING = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
SETUP_LAUNCHES = 9
# The fixed work of one pass: every timed run repeats it in fresh processes
# until --seconds are spent, and a traced run makes it once untraced and
# once traced.  Its calls, failures and outputs repeat exactly for a seed.
PASS_CALLS = {"bound_grid": 48 * 21, "fd_oracle": 36}
PASS_CLI_ROUNDS = 4
MIN_PASSES = 2        # outputs of two passes in fresh processes must agree
# cells handed to the scipy reference check: calls picked among those of the
# first pass that passed (bound_grid: one cell each; fd_oracle: four cells each)
REFERENCE_PICKS = {"bound_grid": 24, "fd_oracle": 6}
RUN_TIMEOUT_S = 175   # SIGALRM ends a run that overstays; the run then stops its children

_live = set()


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _on_signal(signum, frame):
    raise BenchmarkError(f"stopped by {signal.Signals(signum).name}")


def _spawn(argv, env, **kwargs):
    proc = subprocess.Popen([str(a) for a in argv], env=env, **kwargs)
    _live.add(proc)
    return proc


def _reap(proc):
    """Wait for a child; returns (exit code, resource usage of that child)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    _live.discard(proc)
    return proc.returncode, usage


def _run_child(argv, env, stdout=subprocess.DEVNULL, stderr=None):
    """Run one child to completion: (exit code, wall seconds, peak RSS in KiB)."""
    start = time.perf_counter()
    proc = _spawn(argv, env, stdout=stdout, stderr=stderr)
    code, usage = _reap(proc)
    return code, time.perf_counter() - start, usage.ru_maxrss


def _stop_children():
    for proc in list(_live):
        proc.kill()
        try:
            _reap(proc)
        except ChildProcessError:  # reaped already, just before a signal arrived
            _live.discard(proc)


class Calibrator:
    """hostspeed.sample() from a helper process on the runner's CPU (see hostspeed.py)."""

    def __init__(self, env):
        self.proc = _spawn([sys.executable, HOSTSPEED], env, stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def sample(self):
        self.proc.stdin.write(b"\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchmarkError("host-speed helper exited")
        return float(line)


def _worker(env, spec, result_path):
    spec = dict(spec, result=str(result_path))
    code, wall, _ = _run_child([sys.executable, WORKER, json.dumps(spec)], env)
    if code != 0:
        raise BenchmarkError(f"worker {spec['mode']} exited with {code}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh), wall


def _scaled(latencies, calibrations, stretch):
    """Latencies at the reference host speed (see hostspeed.py)."""
    factors = hostspeed.factors(calibrations)
    return [t * factors[i // stretch] for i, t in enumerate(latencies)]


def _setup_times(env, spec, calibrator):
    """Seconds from launching a fresh process until it reports ``ready``, at the
    reference host speed, and as measured."""
    raw, calibrations = [], [calibrator.sample()]
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        proc = _spawn([sys.executable, WORKER, json.dumps(spec)], env, stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        code, _ = _reap(proc)
        if code != 0 or line.strip() != b"ready":
            raise BenchmarkError(f"set-up process exited with {code}")
        raw.append(elapsed)
        calibrations.append(calibrator.sample())
    return _scaled(raw, calibrations, 1), raw


def _passes(seconds, run_pass):
    """Run ``run_pass(index)`` until --seconds are spent, at least MIN_PASSES times.

    A pass starts only when one more, of the median length so far, still
    ends within --seconds.
    """
    start, results, walls = time.perf_counter(), [], []
    while True:
        t0 = time.perf_counter()
        results.append(run_pass(len(results)))
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(results) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
            return results


def _timing_metrics(units, scaled_passes):
    """cells_per_s, call_p50_ms and call_p99_ms (nearest rank) of the calls of one pass.

    Every pass makes the same calls, so each call's latency is taken as its
    median over the passes; the percentiles are over the calls of a pass.
    """
    per_call = sorted(statistics.median(ts) for ts in zip(*scaled_passes))
    return {
        "cells_per_s": units / sum(per_call),
        "call_p50_ms": 1e3 * statistics.median(per_call),
        "call_p99_ms": 1e3 * per_call[max(0, math.ceil(0.99 * len(per_call)) - 1)],
    }


# ---------------------------------------------------------------------------
# library workloads: bound_grid, fd_oracle


def _reference_check(env, work, sample):
    sample_path, result_path = work / "sample.json", work / "reference.json"
    sample_path.write_text(json.dumps(sample), encoding="utf-8")
    code, _, _ = _run_child([sys.executable, REFERENCE, sample_path, result_path], env)
    if code != 0:
        raise BenchmarkError(f"reference check exited with {code}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def library_run(args, env, work):
    base = {"workload": args.workload, "seed": args.seed}
    setup, setup_raw = _setup_times(env, dict(base, mode="setup"), Calibrator(env))
    spec = dict(base, mode="run", calls=PASS_CALLS[args.workload], calibrate=True)

    def run_pass(index):
        sample = REFERENCE_PICKS[args.workload] if index == 0 else 0
        return _worker(env, dict(spec, sample=sample), work / f"pass{index}.json")[0]

    passes = _passes(args.seconds, run_pass)
    first = passes[0]
    ref = _reference_check(env, work, first["sample"])
    scaled = [_scaled(p["latencies_s"], p["calibrations_s"], p["stretch"]) for p in passes]
    metrics = dict(_timing_metrics(first["calls"], scaled), setup_s=statistics.median(setup),
                   peak_rss_mb=statistics.median(p["maxrss_kb"] for p in passes) / 1024.0)
    attempted = first["calls"] + ref["cells"]
    failed = first["failed"] + len(ref["failed"])
    # every pass makes the same calls: their outputs and failures must agree
    same = all((p["digest"], p["failed"]) == (first["digest"], first["failed"]) for p in passes)
    detail = {
        "setup_samples_s": setup,
        "setup_samples_raw_s": setup_raw,
        "passes": len(passes),
        "calls": first["calls"],
        "cells_per_s_passes": [first["calls"] / sum(lat) for lat in scaled],
        "cells_per_s_raw": [p["calls"] / sum(p["latencies_s"]) for p in passes],
        "fail_frac": failed / attempted,
        "failures": first["errors"],
        "reference": ref,
    }
    # the reference check must have had cells to check
    return metrics, attempted, failed, same and ref["cells"] > 0, detail


def library_trace(args, env, work):
    base = {"workload": args.workload, "seed": args.seed, "mode": "run", "calls": PASS_CALLS[args.workload]}
    plain, _ = _worker(env, base, work / "plain.json")
    traced, _ = _worker(env, dict(base, trace=True, spans=str(args.spans)), work / "traced.json")
    metrics = spans.layer_metrics([traced["layers"]])
    metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    detail = {
        "calls": traced["calls"],
        "cells_per_s_untraced": plain["calls"] / plain["wall_s"],
        "cells_per_s_traced": traced["calls"] / traced["wall_s"],
        "spans": traced["layers"].get("trace.spans", 0),
        "failures": traced["errors"],
    }
    same = (plain["digest"], plain["failed"]) == (traced["digest"], traced["failed"])
    return metrics, traced["calls"], traced["failed"], same, detail


# ---------------------------------------------------------------------------
# cli_reports


def _report_rows(text):
    """(rows, failed rows) of a CSV report: a row fails unless its status is
    ``ok`` and none of its pass flags is ``false``."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# tuned-source"):
        return 0, 0
    table = list(csv.reader(lines[1:]))
    header, rows = table[0], table[1:]
    flags = [i for i, name in enumerate(header) if name.startswith("pass")]
    status = header.index("status")
    failed = sum(1 for row in rows if row[status] != "ok" or any(row[i] == "false" for i in flags))
    return len(rows), failed


class CliCalls:
    """Fresh ``python -m tunedsource`` processes, timed from outside."""

    def __init__(self, env, work):
        self.env = env
        self.stderr = work / "cli.stderr"
        self.problems = []

    def stderr_tail(self, lines=20):
        """The last lines the CLI processes wrote to stderr (none when all went well)."""
        if not self.stderr.exists():
            return []
        return self.stderr.read_text(encoding="utf-8", errors="replace").splitlines()[-lines:]

    def call(self, command, config, out):
        """One CLI process: (exit code, wall seconds, peak RSS in KiB, report, rows, failed rows)."""
        argv = [sys.executable, "-m", "tunedsource", command, "--config", config, "--out", out]
        out.unlink(missing_ok=True)
        with open(self.stderr, "ab") as err:
            code, wall, maxrss = _run_child(argv, self.env, stderr=err)
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        rows, failed = _report_rows(text)
        if rows == 0:                 # a call without a report is one failed operation
            rows, failed = 1, 1
        if code not in (0, 1) or (code == 0) != (failed == 0):
            self.problems.append(f"{config.name}: exit code {code} with {failed} failed rows")
        return code, wall, maxrss, text, rows, failed


def _cli_configs(work, seed):
    """The (command, path) pairs of one pass: PASS_CLI_ROUNDS rounds of three configs."""
    paths = []
    for index in range(PASS_CLI_ROUNDS):
        for command, config in workloads.cli_round(seed, index, PASS_CLI_ROUNDS):
            path = work / f"r{index}_{command}.json"
            path.write_text(json.dumps(config, indent=1), encoding="utf-8")
            paths.append((command, path))
    return paths


def cli_run(args, env, work):
    configs = _cli_configs(work, args.seed)
    calibrator = Calibrator(env)
    setup, setup_raw = _setup_times(env, {"mode": "cli_setup", "configs": [[c, str(p)] for c, p in configs]}, calibrator)
    calls = CliCalls(env, work)

    def run_pass(index):
        latencies, calibrations, outcomes, maxrss = [], [calibrator.sample()], [], 0
        for command, path in configs:
            code, wall, rss, text, rows, failed = calls.call(command, path, work / f"{path.stem}.csv")
            calibrations.append(calibrator.sample())
            latencies.append(wall)
            maxrss = max(maxrss, rss)
            outcomes.append((code, text, rows, failed))
        return {"latencies_s": latencies, "calibrations_s": calibrations, "outcomes": outcomes, "maxrss_kb": maxrss}

    passes = _passes(args.seconds, run_pass)
    first = passes[0]["outcomes"]
    # every config runs once per pass, each time in a fresh process: the
    # reports and exit codes must match byte for byte
    for p in passes[1:]:
        for (command, path), one, two in zip(configs, first, p["outcomes"]):
            if one[:2] != two[:2]:
                calls.problems.append(f"{path.name}: reports or exit codes of two processes differ")
    rows = sum(o[2] for o in first)
    failed = sum(o[3] for o in first)
    scaled = [_scaled(p["latencies_s"], p["calibrations_s"], 1) for p in passes]
    metrics = dict(_timing_metrics(rows, scaled), setup_s=statistics.median(setup),
                   peak_rss_mb=statistics.median(p["maxrss_kb"] for p in passes) / 1024.0)
    detail = {
        "setup_samples_s": setup,
        "setup_samples_raw_s": setup_raw,
        "passes": len(passes),
        "calls": len(configs) * len(passes),
        "cells_per_s_passes": [rows / sum(lat) for lat in scaled],
        "cells_per_s_raw": [rows / sum(p["latencies_s"]) for p in passes],
        "config_ms": {path.stem: 1e3 * statistics.median(ts) for (_, path), ts in zip(configs, zip(*scaled))},
        "fail_frac": failed / rows,
        "problems": calls.problems,
        "cli_stderr_tail": calls.stderr_tail(),
    }
    return metrics, rows, failed, not calls.problems, detail


def cli_trace(args, env, work):
    calls = CliCalls(env, work)
    raws, plain_s, traced_s, rows, failed = [], 0.0, 0.0, 0, 0
    for command, path in _cli_configs(work, args.seed):
        code, wall, _, text, n, bad = calls.call(command, path, work / f"{path.stem}.csv")
        plain_s += wall
        rows, failed = rows + n, failed + bad
        out = work / f"{path.stem}.traced.csv"
        spec = {"mode": "cli_trace", "command": command, "config": str(path), "out": str(out),
                "spans": str(args.spans.with_name(f"{args.spans.stem}.{path.stem}.json"))}
        res, wall = _worker(env, spec, work / f"{path.stem}.traced.json")
        traced_s += wall
        raws.append(res["layers"])
        if out.read_text(encoding="utf-8") != text or res["code"] != code:
            calls.problems.append(f"{path.name}: traced report or exit code differs from the CLI's")
    metrics = spans.layer_metrics(raws)
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    detail = {"calls": len(raws), "problems": calls.problems, "cli_stderr_tail": calls.stderr_tail()}
    return metrics, rows, failed, not calls.problems, detail


# ---------------------------------------------------------------------------
# environment, output, compare


def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _git_sha(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(root, seed):
    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_pinning": BLAS_PINNING,
        "seed": seed,
    }


def declared_metrics(root, trace):
    """{name: unit} of the metrics BENCHMARK.json declares for this kind of run."""
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def _cell(value):
    return f"{value:16.6g}" if value is not None else f"{'-':>16}"


def compare(path_a, path_b):
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    print(f"A: {path_a}  workload={a['workload']} seed={a['seed']} trace={a['trace']} sha={a['environment']['git_sha']}")
    print(f"B: {path_b}  workload={b['workload']} seed={b['seed']} trace={b['trace']} sha={b['environment']['git_sha']}")
    print(f"{'metric':<40} {'A':>16} {'B':>16} {'B/A':>10}  unit")
    for name in list(ma) + [n for n in mb if n not in ma]:
        va = ma.get(name, {}).get("value")
        vb = mb.get(name, {}).get("value")
        ratio = f"{vb / va:10.4f}" if va and vb is not None else f"{'-':>10}"
        unit = (ma.get(name) or mb.get(name))["unit"]
        print(f"{name:<40} {_cell(va)} {_cell(vb)} {ratio}  {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="full result file (default .bench_out/<workload>-s<seed>-t<trace>.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two result files and exit")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    root = Path.cwd()
    if not (root / "src" / "tunedsource" / "__init__.py").is_file():
        print("bench: run from the root of a tunedsource checkout (src/tunedsource not found)", file=sys.stderr)
        return 2
    outdir = root / ".bench_out"
    outdir.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    args.out = args.out or outdir / f"{tag}.json"
    args.spans = outdir / f"{tag}.spans.json"
    work = outdir / f"work-{tag}-{os.getpid()}"
    work.mkdir()
    env = dict(os.environ, **BLAS_PINNING)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))

    # one CPU for the runner and all its children, so that the host-speed
    # calibrations are made where the measured calls run
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    signal.alarm(RUN_TIMEOUT_S)
    try:
        if args.workload == "cli_reports":
            runner = cli_trace if args.trace else cli_run
        else:
            runner = library_trace if args.trace else library_run
        metrics, attempted, failed, correct, detail = runner(args, env, work)
    except BenchmarkError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        _stop_children()
        shutil.rmtree(work, ignore_errors=True)

    units = declared_metrics(root, args.trace)
    if set(units) != set(metrics):
        print(f"bench: metrics {sorted(set(units) ^ set(metrics))} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    env_record = environment(root, args.seed)
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env_record,
        "result": result,
        "detail": detail,
    }
    args.out.write_text(json.dumps(full, indent=1), encoding="utf-8")
    for name, metric in result["metrics"].items():
        print(f"{name:<40} {metric['value']:>16.6g} {metric['unit']}")
    print("environment " + json.dumps(env_record))
    print(f"fail_frac {failed}/{attempted} = {failed / attempted:.6g}; calls {detail['calls']}; full result {args.out}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
