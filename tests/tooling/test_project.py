"""Tests for the whole-program graph builder."""

import textwrap
import time

import pytest

import repro
from pathlib import Path

from repro.exceptions import ToolingError
from repro.tooling.project import (
    Project,
    build_project,
    collect_aliases,
    module_name_for,
    normalize_module,
    resolve_relative_base,
    summarize_module,
)

PACKAGE_ROOT = Path(repro.__file__).resolve().parent


def summarize(module_path, source):
    return summarize_module(module_path, textwrap.dedent(source))


class TestModuleNames:
    def test_module_name_keeps_init(self):
        assert module_name_for("src/repro/camera/__init__.py") == (
            "repro.camera.__init__"
        )

    def test_module_name_outside_repro_is_empty(self):
        assert module_name_for("/tmp/scratch/fixture.py") == ""

    def test_normalize_strips_init(self):
        assert normalize_module("repro.camera.__init__") == "repro.camera"
        assert normalize_module("repro.camera.sensor") == "repro.camera.sensor"

    def test_relative_base_resolution(self):
        assert resolve_relative_base("repro.camera.sensor", 1) == "repro.camera"
        assert resolve_relative_base("repro.camera.sensor", 2) == "repro"
        assert resolve_relative_base("repro.camera.sensor", 3) is None
        assert resolve_relative_base("", 1) is None


class TestAliases:
    def test_relative_import_resolves_against_module(self):
        tree_src = textwrap.dedent(
            """
            from . import sensor
            from ..phy import bands
            from .timing import RollingShutter
            """
        )
        import ast

        aliases = collect_aliases(ast.parse(tree_src), "repro.camera.model")
        assert aliases["sensor"] == "repro.camera.sensor"
        assert aliases["bands"] == "repro.phy.bands"
        assert aliases["RollingShutter"] == "repro.camera.timing.RollingShutter"


class TestSummaries:
    def test_function_qualnames_are_single_depth(self):
        summary = summarize(
            "pkg/repro/link/mod.py",
            '''
            """F."""
            def outer():
                def inner():
                    return 1
                return inner

            class Box:
                def method(self):
                    return 2
            ''',
        )
        names = {fn.qualname for fn in summary.functions}
        assert names == {
            "repro.link.mod.<module>",
            "repro.link.mod.outer",
            "repro.link.mod.outer.inner",
            "repro.link.mod.Box.method",
        }
        by_name = {fn.qualname: fn for fn in summary.functions}
        assert by_name["repro.link.mod.outer.inner"].nested
        assert not by_name["repro.link.mod.outer"].nested
        assert not by_name["repro.link.mod.Box.method"].nested

    def test_calls_resolve_through_imports(self):
        summary = summarize(
            "pkg/repro/link/mod.py",
            '''
            """F."""
            import time
            from repro.util.rng import make_rng

            def go():
                make_rng(7)
                return time.time()
            ''',
        )
        fn = {f.qualname: f for f in summary.functions}["repro.link.mod.go"]
        targets = {c.target for c in fn.calls}
        assert "repro.util.rng.make_rng" in targets
        assert "time.time" in targets

    def test_raise_targets(self):
        summary = summarize(
            "pkg/repro/rx/mod.py",
            '''
            """F."""
            from repro.exceptions import LinkError

            def go(exc):
                try:
                    raise LinkError("x")
                except LinkError as caught:
                    raise
                raise RuntimeError("y")
            ''',
        )
        targets = [r.target for r in summary.raises]
        assert "repro.exceptions.LinkError" in targets
        assert None in targets  # the bare re-raise
        assert "RuntimeError" in targets

    def test_set_iteration_detected(self):
        summary = summarize(
            "pkg/repro/link/mod.py",
            '''
            """F."""
            def go(items):
                for x in {1, 2, 3}:
                    pass
                return [y for y in set(items)]
            ''',
        )
        assert len(summary.set_iterations) == 2

    def test_sorted_set_not_flagged(self):
        summary = summarize(
            "pkg/repro/link/mod.py",
            '''
            """F."""
            def go(items):
                for x in sorted(set(items)):
                    pass
            ''',
        )
        assert summary.set_iterations == ()

    def test_syntax_error_raises_tooling_error(self):
        with pytest.raises(ToolingError, match="cannot summarize"):
            summarize_module("pkg/repro/link/bad.py", "def broken(:\n")

    def test_dataclass_fields_extracted(self):
        summary = summarize(
            "pkg/repro/link/mod.py",
            '''
            """F."""
            from dataclasses import dataclass
            from typing import Callable, Tuple

            @dataclass
            class Spec:
                seed: int
                hook: Callable
            ''',
        )
        cls = summary.classes[0]
        assert cls.is_dataclass
        fields = {f.name: f for f in cls.fields}
        assert "typing.Callable" in fields["hook"].annotation_names


class TestProjectResolution:
    def test_reexport_resolves_through_package_init(self):
        init = summarize(
            "pkg/repro/faults/__init__.py",
            '''
            """F."""
            from repro.faults.base import FaultInjector
            ''',
        )
        base = summarize(
            "pkg/repro/faults/base.py",
            '''
            """F."""
            class FaultInjector:
                pass
            ''',
        )
        project = Project([init, base])
        assert project.resolve("repro.faults.FaultInjector") == (
            "repro.faults.base.FaultInjector"
        )

    def test_unknown_names_come_back_unchanged(self):
        project = Project([])
        assert project.resolve("numpy.zeros") == "numpy.zeros"
        assert project.resolve(None) is None

    def test_real_tree_indexes_key_symbols(self):
        project = build_project(PACKAGE_ROOT)
        assert "repro.perf.executor.run_specs" in project.functions
        assert project.resolve("repro.link.simulator.RunSpec") in project.classes
