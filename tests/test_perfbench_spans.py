"""The traced benchmark (perfbench/run.py --trace 1) wraps library functions
by name, so a renamed or deleted one would break it only when it runs."""
from conftest import perfbench_module


def test_span_targets_resolve(monkeypatch):
    targets = perfbench_module(monkeypatch, "spans")._targets()
    assert targets
    missing = [f"{name}: {attr}" for name, owner, attr, *_ in targets
               if not callable(getattr(owner, attr, None))]
    assert not missing
