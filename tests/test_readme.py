"""The README's library quick start runs as written, its command-line
block names every subcommand and every `solve --method`, and its "Command
line" section names every option."""
import argparse
import re
from pathlib import Path

from conevi.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def command_line_section() -> str:
    return README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]


def subcommands() -> dict:
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_library_quick_start_runs():
    section = README.read_text().split("\n## Library quick start\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["galerkin"].certificate.valid
    assert namespace["ipm"].converged


def test_command_line_block_runs_every_subcommand():
    # CI runs this block through the console script, so a subcommand or a
    # solve method missing from it is never run end to end
    block = re.search(r"```sh\n(.*?)```", command_line_section(), re.S).group(1)
    lines = [line.split() for line in block.splitlines() if line.startswith("conevi ")]
    assert {words[1] for words in lines} == set(subcommands())
    (method,) = [a for a in subcommands()["solve"]._actions if "--method" in a.option_strings]
    methods = {words[words.index("--method") + 1] for words in lines if "--method" in words}
    assert methods == set(method.choices)


def test_command_line_section_names_every_option():
    # the prose may name an option the block cannot run: a run capped by
    # --max-iter exits 1, and CI runs the block under bash -e
    section = command_line_section()
    options = {opt for parser in subcommands().values() for action in parser._actions
               for opt in action.option_strings if opt.startswith("--") and opt != "--help"}
    missing = sorted(opt for opt in options
                     if not re.search(re.escape(opt) + r"(?![\w-])", section))
    assert missing == []
