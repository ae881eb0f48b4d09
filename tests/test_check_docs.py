"""Tests for ``tools/check_docs.py``'s documented-command flag check."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_docs.py"
_spec = importlib.util.spec_from_file_location("check_docs", _TOOL)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


def test_flags_are_checked_against_their_own_sub_parser():
    """A flag only ``gsuite run`` registers fails on a ``gsuite serve``
    line and passes on a ``gsuite run`` line; a line with no
    sub-command keeps the union check."""
    text = ("```\n"
            "gsuite serve --model gin\n"
            "gsuite run --model gin\n"
            "python -m repro.bench --profile ci\n"
            "```\n")
    commands = list(check_docs.iter_fenced_commands(text))
    assert len(commands) == 3
    path = check_docs.REPO_ROOT / "README.md"
    problems = check_docs.check_flags(path, commands, check_docs.cli_flags())
    assert problems == [
        "README.md:2: --model is not an option of gsuite serve"]
