"""The traced benchmark (perfbench/run.py --trace 1) wraps library functions
by name, so a renamed or deleted one would break it only when it runs."""
import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_span_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    try:
        targets = importlib.import_module("spans")._targets()
    finally:
        sys.modules.pop("spans", None)
    assert targets
    missing = [f"{name}: {attr}" for name, owner, attr, *_ in targets
               if not callable(getattr(owner, attr, None))]
    assert not missing
