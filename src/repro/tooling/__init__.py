"""``reprolint``: AST-based invariant analyzer for the ColorBars codebase.

The reproduction's correctness rests on conventions that the code states but
Python does not enforce: single-seed reproducibility through
:mod:`repro.util.rng`, a strict layering of the optical chain
(``util -> color -> phy -> ... -> rx -> link``), and the
:class:`~repro.exceptions.ColorBarsError` hierarchy.  This package turns those
conventions into named, individually testable static-analysis rules that run
over the package source with :mod:`ast`.

Two rule scopes exist:

* **per-file rules** (:mod:`repro.tooling.rules`) see one parsed module;
* **contract rules** (:mod:`repro.tooling.contracts`) see the whole-program
  symbol/import/call graph built by :mod:`repro.tooling.project` and check
  cross-module invariants — determinism of the simulation layers,
  pickle-safety of executor payloads, span/metric schema agreement, and the
  exception taxonomy.  They run under ``colorbars lint --strict``.

:func:`~repro.tooling.runner.run_analysis` drives both scopes and returns one
:class:`~repro.tooling.runner.LintReport`, printed as ``file:line rule-id
message`` lines.  Three entry points consume it:

* ``colorbars lint`` — the CLI subcommand (see :mod:`repro.cli`);
* ``tests/core/test_lint_clean.py`` — the pytest gate asserting the tree is
  violation-free and strict-clean;
* ``.github/workflows/ci.yml`` — the CI job running ``colorbars lint
  --strict``.

Findings can be suppressed per line with ``# reprolint: disable=<rule-id>``;
this works identically for per-file and contract rules.
"""

from repro.tooling.contracts import CONTRACT_RULES, ContractRule, run_contract_rules
from repro.tooling.findings import Finding, parse_pragmas
from repro.tooling.layers import LAYER_DEPS, allowed_imports, layer_of
from repro.tooling.project import (
    ModuleSummary,
    Project,
    build_project,
    module_name_for,
    summarize_module,
)
from repro.tooling.rules import ALL_RULES, Rule, get_rules
from repro.tooling.runner import (
    LintReport,
    format_report,
    lint_file,
    lint_source,
    lint_tree,
    run_analysis,
)

__all__ = [
    "ALL_RULES",
    "CONTRACT_RULES",
    "ContractRule",
    "Finding",
    "LAYER_DEPS",
    "LintReport",
    "ModuleSummary",
    "Project",
    "Rule",
    "allowed_imports",
    "build_project",
    "format_report",
    "get_rules",
    "layer_of",
    "lint_file",
    "lint_source",
    "lint_tree",
    "module_name_for",
    "parse_pragmas",
    "run_analysis",
    "run_contract_rules",
    "summarize_module",
]
