"""End-to-end runner + CLI tests against an on-disk fixture tree.

The fixture tree contains exactly one violation of every rule, laid out as a
miniature ``repro`` package so layer resolution works from paths alone.
"""

import textwrap

import pytest

from repro.cli import main
from repro.exceptions import ToolingError
from repro.tooling import (
    ALL_RULES,
    format_report,
    get_rules,
    lint_file,
    lint_tree,
    run_analysis,
)

#: rule id -> (relative path inside the fixture package, offending source)
VIOLATIONS = {
    "rng-direct-call": (
        "camera/jitter.py",
        '''
        """Fixture: draws randomness outside repro.util.rng."""

        import numpy as np

        def jitter(seed=None):
            return np.random.default_rng(seed)
        ''',
    ),
    "rng-generator-ctor": (
        "camera/fresh.py",
        '''
        """Fixture: hand-constructs a Generator."""

        import numpy as np

        def fresh():
            return np.random.Generator()
        ''',
    ),
    "import-layering": (
        "phy/backdoor.py",
        '''
        """Fixture: phy reaching up into rx."""

        from repro.rx.receiver import ColorBarsReceiver
        ''',
    ),
    "bare-except": (
        "util/swallow.py",
        '''
        """Fixture: swallows every exception."""

        def swallow(fn):
            try:
                return fn()
            except:
                return None
        ''',
    ),
    "raw-raise": (
        "color/check.py",
        '''
        """Fixture: raises a raw builtin."""

        def check(x):
            if x < 0:
                raise ValueError("negative")
        ''',
    ),
    "mutable-default": (
        "link/collect.py",
        '''
        """Fixture: mutable default argument."""

        def collect(items=[]):
            return items
        ''',
    ),
    "no-print": (
        "rx/debug.py",
        '''
        """Fixture: prints from library code."""

        def debug(x):
            print(x)
        ''',
    ),
    "module-docstring": (
        "fec/undocumented.py",
        """
        def mystery():
            return 42
        """,
    ),
}


@pytest.fixture
def violation_tree(tmp_path):
    """A miniature ``repro`` package with one violation of every rule."""
    root = tmp_path / "repro"
    for rel_path, source in VIOLATIONS.values():
        target = root / rel_path
        target.parent.mkdir(parents=True, exist_ok=True)
        (target.parent / "__init__.py").write_text("")
        target.write_text(textwrap.dedent(source))
    (root / "__init__.py").write_text("")
    return root


@pytest.fixture
def clean_tree(tmp_path):
    root = tmp_path / "repro"
    (root / "util").mkdir(parents=True)
    (root / "__init__.py").write_text("")
    (root / "util" / "__init__.py").write_text("")
    (root / "util" / "clean.py").write_text(
        textwrap.dedent(
            '''
            """Fixture: a module that violates no rule."""

            from repro.exceptions import ConfigurationError

            def check(x):
                if x < 0:
                    raise ConfigurationError(f"negative: {x}")
                return x
            '''
        )
    )
    return root


@pytest.fixture
def dirty_tree(tmp_path):
    """A mini repro package with one determinism and one taxonomy violation."""
    root = tmp_path / "repro"
    (root / "link").mkdir(parents=True)
    (root / "__init__.py").write_text('"""F."""\n')
    (root / "link" / "__init__.py").write_text('"""F."""\n')
    (root / "link" / "helper.py").write_text(
        textwrap.dedent(
            '''
            """F."""
            import time

            def stamp():
                return time.time()

            def boom():
                raise RuntimeError("x")
            '''
        )
    )
    return root


def analyze(paths, strict=True):
    return run_analysis(paths, strict=strict)


class TestLintTree:
    def test_catches_one_violation_per_rule(self, violation_tree):
        report = lint_tree(violation_tree)
        assert not report.clean
        assert sorted(f.rule_id for f in report.findings) == sorted(VIOLATIONS)

    def test_findings_carry_real_locations(self, violation_tree):
        report = lint_tree(violation_tree)
        by_rule = {f.rule_id: f for f in report.findings}
        finding = by_rule["rng-direct-call"]
        assert finding.path.endswith("camera/jitter.py")
        assert finding.line == 7
        assert "make_rng" in finding.message

    def test_report_line_format(self, violation_tree):
        report = lint_tree(violation_tree)
        for line in report.format().splitlines()[:-1]:
            path, rest = line.split(":", 1)
            lineno, rule_id, message = rest.split(" ", 2)
            assert path.endswith(".py")
            assert int(lineno) > 0
            assert rule_id in VIOLATIONS
            assert message

    def test_clean_tree_is_clean(self, clean_tree):
        report = lint_tree(clean_tree)
        assert report.clean
        assert report.files_checked == 3
        assert "no violations" in report.format()

    def test_rule_subset_only_runs_requested_rules(self, violation_tree):
        report = lint_tree(violation_tree, rules=get_rules(["no-print"]))
        assert [f.rule_id for f in report.findings] == ["no-print"]

    def test_missing_target_raises(self, tmp_path):
        with pytest.raises(ToolingError, match="does not exist"):
            lint_tree(tmp_path / "ghost")

    def test_single_file_target(self, violation_tree):
        findings = lint_file(violation_tree / "rx" / "debug.py")
        assert [f.rule_id for f in findings] == ["no-print"]


class TestRunAnalysis:
    def test_strict_finds_contract_violations(self, dirty_tree):
        report = analyze([dirty_tree])
        rules_hit = sorted({f.rule_id for f in report.findings})
        assert "determinism" in rules_hit
        assert "exception-taxonomy" in rules_hit
        # raw-raise (per-file) fires on the same RuntimeError too
        assert "raw-raise" in rules_hit

    def test_non_strict_skips_contract_rules(self, dirty_tree):
        report = analyze([dirty_tree], strict=False)
        assert "determinism" not in {f.rule_id for f in report.findings}

    def test_overlapping_paths_count_each_file_once(self, dirty_tree):
        helper = dirty_tree / "link" / "helper.py"
        overlapping = analyze([dirty_tree, helper])
        assert overlapping == analyze([dirty_tree])
        assert overlapping.files_checked == 3


class TestGetRules:
    def test_default_is_all_rules(self):
        assert get_rules() == ALL_RULES

    def test_unknown_rule_raises(self):
        with pytest.raises(ToolingError, match="unknown reprolint rule"):
            get_rules(["no-print", "no-such-rule"])


class TestCliLint:
    def test_lint_violation_tree_exits_nonzero(self, violation_tree, capsys):
        code = main(["lint", str(violation_tree)])
        assert code == 1
        out = capsys.readouterr().out
        for rule_id in VIOLATIONS:
            assert rule_id in out
        assert f"{len(VIOLATIONS)} violations" in out

    def test_lint_clean_tree_exits_zero(self, clean_tree, capsys):
        code = main(["lint", str(clean_tree)])
        assert code == 0
        assert "no violations" in capsys.readouterr().out

    def test_lint_defaults_to_installed_package(self, capsys):
        # The repo's own tree must stay violation-free (see test_lint_clean).
        code = main(["lint"])
        assert code == 0

    def test_list_rules(self, capsys):
        code = main(["lint", "--list-rules"])
        assert code == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.rule_id in out

    def test_list_rules_includes_contract_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "determinism", "pickle-safety", "obs-schema", "exception-taxonomy"
        ):
            assert rule_id in out
        assert "[project]" in out
        assert "[   file]" in out

    def test_strict_flags_violations(self, dirty_tree, capsys):
        code = main(["lint", "--strict", str(dirty_tree)])
        assert code == 1
        out = capsys.readouterr().out
        assert "determinism" in out
        assert "exception-taxonomy" in out

    def test_contract_rules_without_strict_prints_note(self, dirty_tree, capsys):
        code = main(["lint", "--rules", "determinism", str(dirty_tree)])
        assert code == 0  # contract rules are skipped without --strict
        assert "run only with --strict" in capsys.readouterr().err

    def test_rule_filter_flag(self, violation_tree, capsys):
        code = main(["lint", "--rules", "bare-except", str(violation_tree)])
        assert code == 1
        out = capsys.readouterr().out
        assert "bare-except" in out
        assert "no-print" not in out

    def test_unknown_rule_exits_2_with_message(self, capsys):
        code = main(["lint", "--rules", "no-such-rule"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown reprolint rule" in err
        assert "no-such-rule" in err

    def test_missing_target_exits_2_with_message(self, tmp_path, capsys):
        code = main(["lint", str(tmp_path / "ghost")])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err


class TestFormatReport:
    def test_empty_report_mentions_file_count(self):
        assert format_report([], 7) == "reprolint: 7 files checked, no violations"
