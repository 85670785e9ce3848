import importlib
import sys
from pathlib import Path

from hypothesis import settings

# every run, in CI or not, draws the same examples and replays none
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(monkeypatch, name: str):
    """perfbench/<name>.py, imported without writing bytecode there and
    dropped from sys.modules again, so perfbench/ stays untouched."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        return importlib.import_module(name)
    finally:
        sys.modules.pop(name, None)
