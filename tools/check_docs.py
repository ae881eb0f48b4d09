#!/usr/bin/env python3
"""Documentation checks: link integrity + doc code-snippet syntax.

Two failure classes CI should catch before a reader does:

* **Broken relative links** — every ``[text](target)`` markdown link
  in the checked files whose target is not an URL or a pure anchor
  must resolve to an existing file (anchors are stripped before the
  existence check).
* **Unparseable code snippets** — every fenced ```` ```python ````
  block is extracted and byte-compiled (the ``compileall`` treatment,
  in-process), so documented examples cannot drift into syntax errors.
* **Invalid JSON examples** — every fenced ```` ```json ```` block
  must parse with :func:`json.loads` (documented schemas — config
  files, wire requests — cannot drift into invalid JSON).
* **Unknown CLI flags** — every ``--flag`` on a ``gsuite ...`` /
  ``python -m repro ...`` line of a fenced block in ``README.md`` or
  ``docs/`` must be an option of that command's own :mod:`repro.cli`
  sub-parser (of some sub-parser, when the first word after the
  command is not a sub-command), so a removed flag cannot linger in a
  documented command and ``gsuite serve --model gin`` cannot pass on
  the strength of ``gsuite run``'s flags.

Checked files: ``README.md``, ``ROADMAP.md``, ``CHANGES.md`` and
everything under ``docs/`` (the flag check skips ``ROADMAP.md`` and
``CHANGES.md``, which record removed flags on purpose).  The flag
check imports :mod:`repro.cli`, so numpy must be installed.

Usage::

    python tools/check_docs.py            # exit 1 on any failure
    python tools/check_docs.py --verbose  # list every link/snippet
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import textwrap
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Markdown files under doc-check coverage, relative to the repo root.
DOC_FILES = ("README.md", "ROADMAP.md", "CHANGES.md")
DOC_TREES = ("docs",)

#: ``[text](target)`` — good enough for the plain links these docs use
#: (no nested brackets, no reference-style links).
_LINK = re.compile(r"\[[^\]\[]*\]\(([^)\s]+)\)")

#: Targets that are not files on this filesystem.
_EXTERNAL = ("http://", "https://", "mailto:")

#: Files exempt from the flag check: they record removed flags.
HISTORY_FILES = ("ROADMAP.md", "CHANGES.md")

#: A ``gsuite`` / ``python -m repro[.module]`` command word; the flags
#: checked are the ones after it on the same (continued) line.
_COMMAND = re.compile(
    r"(?:^|[\s$`(])(?:gsuite|python3?\s+-m\s+repro(?:\.[\w.]+)?)(?=\s|$)")
_FLAG = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*")


def doc_paths() -> List[Path]:
    paths = [REPO_ROOT / name for name in DOC_FILES
             if (REPO_ROOT / name).is_file()]
    for tree in DOC_TREES:
        paths.extend(sorted((REPO_ROOT / tree).rglob("*.md")))
    return paths


def strip_fences(text: str) -> str:
    """Drop fenced code blocks (any language) from markdown text.

    Link checking must not parse code: ``handlers[name](path)`` inside
    a snippet would otherwise read as a markdown link.
    """
    kept = []
    in_fence = False
    for line in text.splitlines():
        if line.strip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            kept.append(line)
    return "\n".join(kept)


def iter_links(text: str) -> Iterator[str]:
    for match in _LINK.finditer(strip_fences(text)):
        yield match.group(1)


def check_links(path: Path, targets: List[str]) -> List[str]:
    """Broken-relative-link messages for one file (empty = clean)."""
    problems = []
    for target in targets:
        resolved = (path.parent / target.partition("#")[0]).resolve()
        if not resolved.exists():
            problems.append(
                f"{path.relative_to(REPO_ROOT)}: broken link -> {target}")
    return problems


def iter_snippets(text: str,
                  fences: Tuple[str, ...]) -> Iterator[Tuple[int, str]]:
    """``(first line number, code)`` per fenced block opened by ``fences``.

    Blocks are dedented before being yielded, so examples nested in
    markdown lists (indented fences) compile cleanly.
    """
    lines = text.splitlines()
    block: List[str] = []
    start = 0
    in_block = False
    for number, line in enumerate(lines, 1):
        stripped = line.strip()
        if not in_block and stripped in fences:
            in_block, start, block = True, number + 1, []
        elif in_block and stripped == "```":
            in_block = False
            yield start, textwrap.dedent("\n".join(block))
        elif in_block:
            block.append(line)
    if in_block:
        # A silently dropped block would go unchecked forever.
        raise SyntaxError(
            f"unterminated {fences[0]} fence opened at line {start - 1}")


def iter_python_snippets(text: str) -> Iterator[Tuple[int, str]]:
    return iter_snippets(text, ("```python", "```py"))


def iter_json_snippets(text: str) -> Iterator[Tuple[int, str]]:
    return iter_snippets(text, ("```json",))


def check_snippets(path: Path,
                   snippets: List[Tuple[int, str]]) -> List[str]:
    """Snippet syntax-error messages for one file (empty = clean)."""
    problems = []
    for lineno, code in snippets:
        try:
            compile(code, f"{path.relative_to(REPO_ROOT)}:{lineno}", "exec")
        except SyntaxError as exc:
            problems.append(
                f"{path.relative_to(REPO_ROOT)}:{lineno}: snippet does "
                f"not compile: {exc.msg} (line {exc.lineno})")
    return problems


def cli_flags() -> Dict[str, Set[str]]:
    """Option strings per gsuite sub-command, and under ``""`` every
    option string of the parser and its sub-parsers."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.cli import build_parser
    parser = build_parser()
    flags = {"": set(parser._option_string_actions)}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                flags[name] = set(sub._option_string_actions)
                flags[""].update(flags[name])
    return flags


def iter_fenced_commands(text: str) -> Iterator[Tuple[int, str]]:
    """``(line number, command line)`` per fenced line holding a
    ``gsuite`` / ``python -m repro`` command, ``\\``-continuations
    joined and the text before the command word dropped."""
    in_fence = False
    pending, start = "", 0
    for number, line in enumerate(text.splitlines(), 1):
        if line.strip().startswith("```"):
            in_fence, pending = not in_fence, ""
            continue
        if not in_fence:
            continue
        if not pending:
            start = number
        pending += line.rstrip()
        if pending.endswith("\\"):
            pending = pending[:-1] + " "
            continue
        match = _COMMAND.search(pending)
        if match:
            yield start, pending[match.end():]
        pending = ""


def check_flags(path: Path, commands: List[Tuple[int, str]],
                known: Dict[str, Set[str]]) -> List[str]:
    """Unknown-flag messages for one file (empty = clean).

    ``known`` is :func:`cli_flags`: a command whose first word is a
    sub-command is checked against that sub-parser's flags, any other
    against the union.
    """
    problems = []
    for lineno, command in commands:
        words = command.split()
        name = words[0] if words and words[0] in known else ""
        owner = f"gsuite {name}" if name else "any gsuite command"
        for flag in sorted(set(_FLAG.findall(command))):
            if flag not in known[name]:
                problems.append(
                    f"{path.relative_to(REPO_ROOT)}:{lineno}: {flag} is "
                    f"not an option of {owner}")
    return problems


def check_json_snippets(path: Path,
                        snippets: List[Tuple[int, str]]) -> List[str]:
    """JSON-parse-error messages for one file (empty = clean)."""
    problems = []
    for lineno, code in snippets:
        try:
            json.loads(code)
        except ValueError as exc:
            problems.append(
                f"{path.relative_to(REPO_ROOT)}:{lineno}: json snippet "
                f"does not parse: {exc}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--verbose", action="store_true",
                        help="report every checked link and snippet")
    args = parser.parse_args()

    problems: List[str] = []
    checked_links = 0
    checked_snippets = 0
    checked_commands = 0
    known_flags = cli_flags()
    for path in doc_paths():
        text = path.read_text(encoding="utf-8")
        links = [t for t in iter_links(text)
                 if not (t.startswith(_EXTERNAL) or t.startswith("#"))]
        try:
            snippets = list(iter_python_snippets(text))
            json_snippets = list(iter_json_snippets(text))
        except SyntaxError as exc:
            snippets, json_snippets = [], []
            problems.append(f"{path.relative_to(REPO_ROOT)}: {exc.msg}")
        checked_links += len(links)
        checked_snippets += len(snippets) + len(json_snippets)
        if args.verbose:
            for target in links:
                print(f"  link    {path.relative_to(REPO_ROOT)} "
                      f"-> {target}")
            for lineno, _ in snippets:
                print(f"  snippet {path.relative_to(REPO_ROOT)}:{lineno}")
        problems.extend(check_links(path, links))
        problems.extend(check_snippets(path, snippets))
        problems.extend(check_json_snippets(path, json_snippets))
        if path.name not in HISTORY_FILES:
            commands = list(iter_fenced_commands(text))
            checked_commands += len(commands)
            problems.extend(check_flags(path, commands, known_flags))

    if problems:
        print("DOC CHECK FAILURES:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"docs ok: {len(doc_paths())} files, {checked_links} relative "
          f"links, {checked_snippets} python/json snippets, "
          f"{checked_commands} gsuite command lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
