"""The benchmark's tracer (``bench/spans.py``) wraps library functions by name.

A refactor that drops or renames one of those names breaks traced benchmark
runs; this test makes it break the suite too.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_install_wraps_and_uninstall_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    tracer = spans.install()  # raises AttributeError for a name the library lost
    patched = list(tracer._patches)
    try:
        assert patched
        assert all(getattr(module, name) is not original for module, name, original in patched)
    finally:
        tracer.uninstall()
    assert all(getattr(module, name) is original for module, name, original in patched)
