"""The README's library quick start runs as written, and its command-line
block names every subcommand."""
import argparse
import re
from pathlib import Path

from conevi.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    section = README.read_text().split("\n## Library quick start\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["galerkin"].certificate.valid
    assert namespace["ipm"].converged


def test_command_line_block_runs_every_subcommand():
    # CI runs this block through the console script, so a subcommand missing
    # from it is never run end to end
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    listed = {line.split()[1] for line in block.splitlines() if line.startswith("conevi ")}
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert listed == set(sub.choices)
