"""List every report cell that differs between two source trees.

    python tests/report_diff.py OLD_SRC NEW_SRC

Runs each of the four commands (verify, sweep, energies, tune) on each
config in ``configs/`` in CSV and in JSON, one fresh process per run with
PYTHONPATH set to the tree, and prints one tab-separated line per differing
cell: command, config, format, row (1-based), column, before, after, and
the relative change |after - before| / |before| of a numeric cell ("-" for
any other).  A differing exit code, stderr or column list is one line of its
own, with "-" as its row and relative change.  A JSON cell is compared as its
JSON text.

It also runs this checkout's ``bench/worker.py`` in run mode on each tree:
``bound_grid`` (1008 calls) and ``fd_oracle`` (36 calls), each at seeds 1
and 2718.  For each (workload, seed) it prints one line to stderr: whether
the output digests of the two trees are equal, and each tree's count of
failed calls.  Where the ``fd_oracle`` digests differ, it runs the same 36
bundles once more in a fresh process per tree, through the worker's own
call, and prints one line per output field of a bundle (f0, f1, f2,
residual, curl discrepancy, pass flag and method): in how many bundles it
differs, and for a number its largest relative change, so a deliberate
last-bit change of the oracle shows its size.  A part's fields are read
from its NamedTuple.
Its last stderr line counts the differing verdicts of the report runs:
exit codes, stderr, ``status`` cells and ``pass*`` cells, so a log shows
at a glance whether any verdict moved.  It always exits 0: it reports, and
never gates.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("verify", "sweep", "energies", "tune")
FORMATS = ("csv", "json")
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"
WORKER_CALLS = {"bound_grid": 48 * 21, "fd_oracle": 36}    # one pass of bench/run.py (its PASS_CALLS)
WORKER_SEEDS = (1, 2718)    # the benchmark's tuning seed and its held-out seed
VERDICTS = ("exit code", "stderr", "status", "pass*")    # the differences that move a verdict
# the parts of bench/worker.py's fd_oracle bundle, in the order its call returns them
BUNDLE_PARTS = ("f1_vanishing_check", "expansion_fd j=1", "expansion_fd j=2", "expansion_j2", "curl_identity_check")


def run(src: Path, command: str, config: Path, fmt: str):
    """(exit code, stderr, columns, rows of cell texts) of one fresh process on the tree ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "tunedsource", command, "--config", str(config), "--format", fmt],
                          env=env, capture_output=True, text=True)
    columns, rows = [], []
    if proc.stdout:
        if fmt == "csv":
            columns, *rows = csv.reader(proc.stdout.splitlines()[1:])    # after the report tag
        else:
            report = json.loads(proc.stdout)
            columns = report["columns"]
            rows = [[json.dumps(value) for value in row] for row in report["rows"]]
    return proc.returncode, proc.stderr, columns, rows


def worker_run(src: Path, workload: str, seed: int):
    """(output digest, failed calls) of one fresh ``bench/worker.py`` run on the tree ``src``; (None, "exit N") if it fails."""
    with tempfile.TemporaryDirectory() as work:
        result = Path(work) / "result.json"
        spec = {"mode": "run", "workload": workload, "seed": seed, "calls": WORKER_CALLS[workload], "result": str(result)}
        proc = subprocess.run([sys.executable, str(WORKER), json.dumps(spec)],
                              env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True)
        if proc.returncode:
            return None, f"exit {proc.returncode}"
        out = json.loads(result.read_text())
    return out["digest"], out["failed"]


def fields(part):
    """{field: value} of a bundle part: a NamedTuple's ``_asdict()``, else {"": part}."""
    return part._asdict() if hasattr(part, "_asdict") else {"": part}


def bundles(seed: int):
    """Each fd_oracle bundle of a seed, as a list of {field: value} per part; None for a bundle that raised."""
    sys.path.insert(0, str(WORKER.parent))
    import worker

    inputs, call = worker._workload("fd_oracle")[:2]
    rows = []
    for args in itertools.islice(inputs(seed), WORKER_CALLS["fd_oracle"]):
        try:
            out = call(*args)
        except Exception:    # the worker counts it as failed; here it is one differing bundle
            rows.append(None)
            continue
        rows.append([fields(part) for part in out])
    return rows


def bundle_run(src: Path, seed: int):
    """``bundles(seed)`` in a fresh process on the tree ``src``; None if that process fails."""
    child = f"import json, report_diff; print(json.dumps(report_diff.bundles({seed})))"
    path = os.pathsep.join((str(src), str(Path(__file__).resolve().parent)))
    proc = subprocess.run([sys.executable, "-c", child], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    return None if proc.returncode else json.loads(proc.stdout)


def bundle_changes(old_rows, new_rows):
    """{field: (bundles where it differs, largest relative change of a number)} over two runs' bundles."""
    changes = {}
    for old, new in zip(old_rows, new_rows):
        if old is None or new is None:
            changes["raised"] = (changes.get("raised", (0, None))[0] + (old != new), None)
            continue
        for part, old_part, new_part in zip(BUNDLE_PARTS, old, new):
            for key, before in old_part.items():
                if type(before) is int:    # a label, such as an expansion's j
                    continue
                after = new_part[key]
                name = f"{part}.{key}" if key else part
                differ, largest = changes.get(name, (0, None))
                if type(before) is float and type(after) is float:
                    largest = max(largest or 0.0, relative(before, after))
                changes[name] = (differ + (before != after), largest)
    return changes


def differences(old, new):
    """(row, column, before, after) of each difference between two runs."""
    (old_code, old_err, old_columns, old_rows), (new_code, new_err, new_columns, new_rows) = old, new
    if old_code != new_code:
        yield "-", "exit code", old_code, new_code
    if old_err != new_err:
        yield "-", "stderr", old_err.strip(), new_err.strip()
    if old_columns != new_columns:
        yield "-", "columns", ",".join(old_columns), ",".join(new_columns)
        return
    if len(old_rows) != len(new_rows):
        yield "-", "rows", len(old_rows), len(new_rows)
    for number, (old_row, new_row) in enumerate(zip(old_rows, new_rows), start=1):
        for column, before, after in zip(old_columns, old_row, new_row):
            if before != after:
                yield number, column, before, after


def relative(old: float, new: float) -> float:
    """|new - old| / |old|; inf for a change from 0, and 0 for none."""
    return abs(new - old) / abs(old) if old else (0.0 if new == old else math.inf)


def relative_change(before, after) -> str:
    """``relative`` of two numeric cell texts, to 3 digits; "-" unless both are numbers."""
    try:
        old, new = float(before), float(after)
    except ValueError:
        return "-"
    return f"{relative(old, new):.3g}"


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 0
    old_src, new_src = (Path(arg).resolve() for arg in argv[1:])
    changed = runs = 0
    verdicts = dict.fromkeys(VERDICTS, 0)
    print("\t".join(("command", "config", "format", "row", "column", "before", "after", "relative change")))
    for config in sorted(CONFIG_DIR.glob("*.json")):
        for command in COMMANDS:
            for fmt in FORMATS:
                runs += 1
                found = list(differences(run(old_src, command, config, fmt), run(new_src, command, config, fmt)))
                changed += bool(found)
                for row, column, before, after in found:
                    kind = "pass*" if column.startswith("pass") else column
                    if kind in verdicts:
                        verdicts[kind] += 1
                    change = "-" if row == "-" else relative_change(before, after)
                    print("\t".join(map(str, (command, config.stem, fmt, row, column, before, after, change))))
    print(f"# {changed} of {runs} runs differ", file=sys.stderr)
    for workload in WORKER_CALLS:
        for seed in WORKER_SEEDS:
            (old_digest, old_failed), (new_digest, new_failed) = (worker_run(src, workload, seed) for src in (old_src, new_src))
            digest = "no digest" if None in (old_digest, new_digest) else "equal" if old_digest == new_digest else "different"
            print(f"# bench/worker.py {workload} seed {seed}: digest {digest}; failed {old_failed} -> {new_failed}",
                  file=sys.stderr)
            if workload == "fd_oracle" and digest == "different":
                old_rows, new_rows = (bundle_run(src, seed) for src in (old_src, new_src))
                if None in (old_rows, new_rows):
                    print(f"#   fd_oracle seed {seed}: bundle fields unavailable (a process failed)", file=sys.stderr)
                    continue
                for name, (differ, largest) in bundle_changes(old_rows, new_rows).items():
                    change = "-" if largest is None else f"{largest:.3g}"
                    print(f"#   fd_oracle seed {seed} {name}: differs in {differ} of {len(old_rows)} bundles;"
                          f" largest relative change {change}", file=sys.stderr)
    print("# differing verdicts: " + ", ".join(f"{kind} {n}" for kind, n in verdicts.items()), file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
