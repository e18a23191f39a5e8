"""Repo-wide gate: the ``repro`` package must be reprolint-clean.

This is the machine-checked form of the project's code contracts (DESIGN.md
"Code contracts & static analysis"): RNG discipline, import layering,
exception hygiene, and the smaller hygiene rules — plus, in strict mode, the
whole-program contract rules (determinism, pickle-safety, obs-schema,
exception-taxonomy).  If this test fails, run ``colorbars lint --strict`` for
the same report and fix each finding (or, with justification, suppress it
with ``# reprolint: disable=<rule>``).
"""

from pathlib import Path

import repro
from repro.tooling import lint_tree, run_analysis

PACKAGE_ROOT = Path(repro.__file__).resolve().parent


def test_package_tree_is_violation_free():
    report = lint_tree(PACKAGE_ROOT)
    assert report.files_checked >= 70, "lint walked suspiciously few files"
    assert report.clean, "\n" + report.format()


def test_package_tree_is_strict_clean():
    report = run_analysis([PACKAGE_ROOT], strict=True)
    assert report.clean, "\n" + report.format()

