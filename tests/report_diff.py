"""List every report cell that differs between two source trees.

    python tests/report_diff.py OLD_SRC NEW_SRC

Runs each of the four commands (verify, sweep, energies, tune) on each
config in ``configs/`` in CSV and in JSON, one fresh process per run with
PYTHONPATH set to the tree, and prints one tab-separated line per differing
cell: command, config, format, row (1-based), column, before, after.  A
differing exit code, stderr or column list is one line of its own, with
"-" as its row.  A JSON cell is compared as its JSON text.  It always exits
0: it reports, and never gates.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

COMMANDS = ("verify", "sweep", "energies", "tune")
FORMATS = ("csv", "json")
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


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


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 0
    old_src, new_src = (Path(arg).resolve() for arg in argv[1:])
    changed = runs = 0
    print("\t".join(("command", "config", "format", "row", "column", "before", "after")))
    for config in sorted(CONFIG_DIR.glob("*.json")):
        for command in COMMANDS:
            for fmt in FORMATS:
                runs += 1
                found = list(differences(run(old_src, command, config, fmt), run(new_src, command, config, fmt)))
                changed += bool(found)
                for row, column, before, after in found:
                    print("\t".join(map(str, (command, config.stem, fmt, row, column, before, after))))
    print(f"# {changed} of {runs} runs differ", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
