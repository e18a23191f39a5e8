"""Drive lint rules over sources, files, and whole trees; format reports.

:func:`run_analysis` is the one entry point the CLI and the repo gate use:
per-file rules over every file, plus the whole-program contract rules when
``strict``.  Both passes discover files through
:func:`~repro.tooling.project.project_files`, so overlapping paths are
checked once.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.exceptions import ToolingError
from repro.tooling.contracts import run_contract_rules
from repro.tooling.findings import Finding, apply_pragmas, parse_pragmas
from repro.tooling.project import build_project, module_name_for, project_files
from repro.tooling.rules import ALL_RULES, LintRule, ModuleContext, Rule

__all__ = [
    "LintReport",
    "SYNTAX_ERROR_RULE",
    "format_report",
    "lint_file",
    "lint_source",
    "lint_tree",
    "module_name_for",
    "run_analysis",
]

#: Rule id used for files that do not parse at all.
SYNTAX_ERROR_RULE = "syntax-error"


@dataclass(frozen=True)
class LintReport:
    """Outcome of linting a set of files."""

    findings: Tuple[Finding, ...]
    files_checked: int

    @property
    def clean(self) -> bool:
        return not self.findings

    def format(self) -> str:
        return format_report(self.findings, self.files_checked)


def lint_source(
    source: str,
    path: Union[str, Path] = "<string>",
    module: Optional[str] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint one module's source text; returns sorted, pragma-filtered findings.

    Only per-file rules (``scope == "file"``) run here; whole-program
    contract rules need a :class:`~repro.tooling.project.Project` and are
    driven by :func:`run_analysis`.
    """
    path = str(path)
    if module is None:
        module = module_name_for(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                rule_id=SYNTAX_ERROR_RULE,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    context = ModuleContext(path=path, module=module, tree=tree, source=source)
    findings: List[Finding] = []
    for rule in ALL_RULES if rules is None else rules:
        if getattr(rule, "scope", "file") != "file":
            continue
        findings.extend(rule.check(context))
    return sorted(apply_pragmas(findings, parse_pragmas(source)))


def lint_file(
    path: Union[str, Path],
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint one file on disk."""
    file_path = Path(path)
    try:
        source = file_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ToolingError(f"cannot read {file_path}: {exc}") from exc
    return lint_source(source, path=file_path, rules=rules)


def lint_tree(
    roots: Union[str, Path, Sequence[Union[str, Path]]],
    rules: Optional[Sequence[Rule]] = None,
) -> LintReport:
    """Lint every ``*.py`` file under ``roots`` (files, directories, or both)."""
    if isinstance(roots, (str, Path)):
        roots = [roots]
    files = project_files(roots)
    findings: List[Finding] = []
    for file_path in files:
        findings.extend(lint_file(file_path, rules=rules))
    return LintReport(findings=tuple(sorted(findings)), files_checked=len(files))


def run_analysis(
    paths: Sequence[Union[str, Path]],
    rules: Optional[Sequence[LintRule]] = None,
    strict: bool = False,
) -> LintReport:
    """Lint ``paths`` with per-file rules, plus contract rules when strict.

    ``rules`` may mix per-file rules and contract rules (as ``get_rules``
    returns them); each pass picks out its own scope.
    """
    file_rules = contract_rules = None
    if rules is not None:
        file_rules = [r for r in rules if r.scope == "file"]
        contract_rules = [r for r in rules if r.scope == "project"]
    report = lint_tree(paths, rules=file_rules)
    if not strict:
        return report
    project = build_project(paths)
    findings = report.findings + tuple(run_contract_rules(project, contract_rules))
    return LintReport(
        findings=tuple(sorted(findings)), files_checked=report.files_checked
    )


def format_report(findings: Sequence[Finding], files_checked: int) -> str:
    """Human-readable report: one ``file:line rule-id message`` line per finding."""
    lines = [finding.format() for finding in findings]
    noun = "file" if files_checked == 1 else "files"
    if not findings:
        lines.append(f"reprolint: {files_checked} {noun} checked, no violations")
    else:
        count = len(findings)
        lines.append(
            f"reprolint: {count} violation{'s' if count != 1 else ''}"
            f" in {files_checked} {noun}"
        )
    return "\n".join(lines)
