"""docs/CLI.md must document exactly the flags argparse accepts.

Each subcommand has a ``## `colorbars <name>``` section (``run`` and its
alias ``simulate`` share one heading).  Every ``--flag`` the parser accepts
must appear in that section, and every flag in the first column of the
section's table must exist in the parser, so a flag cannot be added or
removed without the reference following.
"""

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parents[2]
DOC = REPO_ROOT / "docs" / "CLI.md"

_FLAG = r"--[A-Za-z0-9][\w-]*"


def _subcommands():
    """Subcommand name (aliases included) -> its argparse parser."""
    parser = build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return dict(subparsers.choices)


def _doc_sections():
    """Subcommand name -> body of the doc section whose heading names it."""
    sections = {}
    for chunk in re.split(r"^## ", DOC.read_text(encoding="utf-8"), flags=re.M)[1:]:
        heading, _, body = chunk.partition("\n")
        for name in re.findall(r"`colorbars (\w+)`", heading):
            sections[name] = body
    return sections


def _parser_flags(parser):
    return {
        option
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }


def _table_flags(body):
    """Flags named in the first column of the section's markdown table."""
    flags = set()
    for line in body.splitlines():
        if line.startswith("|"):
            flags.update(re.findall(_FLAG, line.split("|")[1]))
    return flags


SUBCOMMANDS = _subcommands()
SECTIONS = _doc_sections()


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_every_parser_flag_is_documented(name):
    assert name in SECTIONS, f"docs/CLI.md has no section for `colorbars {name}`"
    body = SECTIONS[name]
    missing = [
        flag
        for flag in sorted(_parser_flags(SUBCOMMANDS[name]))
        if not re.search(re.escape(flag) + r"(?![\w-])", body)
    ]
    assert not missing, f"`colorbars {name}` flags missing from docs/CLI.md: {missing}"


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_every_documented_flag_exists(name):
    documented = _table_flags(SECTIONS.get(name, ""))
    unknown = sorted(documented - _parser_flags(SUBCOMMANDS[name]))
    assert not unknown, (
        f"docs/CLI.md documents flags `colorbars {name}` does not accept: {unknown}"
    )
