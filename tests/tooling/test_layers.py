"""Tests for the declared import-layering DAG."""

import textwrap

import pytest

from repro.exceptions import LayeringError
from repro.tooling import LAYER_DEPS, allowed_imports, layer_of, lint_source
from repro.tooling.layers import APP_LAYER, _closure, is_import_allowed


def lint_module(module, source):
    """Lint dedented source as if it lived at the given dotted module."""
    path = module.replace(".", "/") + ".py"
    return lint_source(textwrap.dedent(source), path=path, module=module)


class TestLayerOf:
    def test_package_module(self):
        assert layer_of("repro.camera.sensor") == "camera"

    def test_package_init_keeps_layer(self):
        assert layer_of("repro.csk.__init__") == "csk"

    def test_top_level_exceptions_module(self):
        assert layer_of("repro.exceptions") == "exceptions"

    def test_app_shell_modules(self):
        assert layer_of("repro.cli") == APP_LAYER
        assert layer_of("repro.__main__") == APP_LAYER
        assert layer_of("repro.__init__") == APP_LAYER
        assert layer_of("repro") == APP_LAYER

    def test_unknown_module_is_none(self):
        assert layer_of("numpy.random") is None


class TestDag:
    def test_every_layer_reaches_exceptions(self):
        for layer in LAYER_DEPS:
            if layer == "exceptions":
                continue
            assert "exceptions" in allowed_imports(layer), layer

    def test_paper_chain_ordering(self):
        # The optical chain flows one way: emitter -> camera -> receiver.
        assert is_import_allowed("rx", "camera")
        assert not is_import_allowed("camera", "rx")
        assert not is_import_allowed("phy", "rx")
        assert not is_import_allowed("camera", "csk")
        assert is_import_allowed("link", "core")
        assert not is_import_allowed("core", "link")

    def test_tooling_is_a_leaf_side_branch(self):
        assert allowed_imports("tooling") == frozenset({"util", "exceptions"})
        for layer in LAYER_DEPS:
            assert "tooling" not in allowed_imports(layer), layer

    def test_app_may_import_everything(self):
        assert allowed_imports(APP_LAYER) == frozenset(LAYER_DEPS)

    def test_unknown_layer_raises(self):
        with pytest.raises(LayeringError):
            allowed_imports("sidecar")

    def test_cycle_detection(self):
        with pytest.raises(LayeringError, match="cycle"):
            _closure({"a": frozenset({"b"}), "b": frozenset({"a"})})

    def test_unknown_dep_detection(self):
        with pytest.raises(LayeringError, match="unknown layer"):
            _closure({"a": frozenset({"ghost"})})

    def test_declared_graph_matches_reality(self):
        # Every observed cross-layer import in src/ must be declared legal;
        # the repo-wide gate (test_lint_clean) enforces the converse.
        assert is_import_allowed("rx", "fec")
        assert is_import_allowed("baselines", "rx")
        assert is_import_allowed("serve", "link")
        assert is_import_allowed("video", "camera")
        assert is_import_allowed("flicker", "csk")
        assert is_import_allowed("perf", "link")

    def test_perf_sits_above_link(self):
        # The executor and the pool orchestrate link runs; the link layer only
        # accepts an injected runner and must never import perf.
        assert layer_of("repro.perf.executor") == "perf"
        assert is_import_allowed("perf", "link")
        assert is_import_allowed("perf", "core")  # transitive, via link
        assert not is_import_allowed("link", "perf")
        assert not is_import_allowed("serve", "perf")
        assert not is_import_allowed("perf", "tooling")


class TestRelativeImportResolution:
    """import-layering must see through relative imports at package edges."""

    def test_sibling_relative_import_is_same_layer(self):
        findings = lint_module(
            "repro.camera.model",
            '''
            """F."""
            from .timing import RollingShutter
            ''',
        )
        assert [f.rule_id for f in findings] == []

    def test_parent_relative_import_crossing_layers_is_checked(self):
        # ``from ..rx import receiver`` inside phy climbs to repro.rx — an
        # illegal upward import even though no absolute name is written.
        findings = lint_module(
            "repro.phy.backdoor",
            '''
            """F."""
            from ..rx import receiver
            ''',
        )
        assert [f.rule_id for f in findings] == ["import-layering"]
        assert "repro.rx" in findings[0].message

    def test_parent_relative_import_of_allowed_layer_is_clean(self):
        findings = lint_module(
            "repro.csk.mapper",
            '''
            """F."""
            from ..phy import bands
            ''',
        )
        assert findings == []

    def test_package_init_resolves_relative_imports_from_its_package(self):
        # ``from .base import X`` in repro/faults/__init__.py must resolve
        # against repro.faults (the __init__ component is kept for this).
        findings = lint_module(
            "repro.faults.__init__",
            '''
            """F."""
            from .base import FaultInjector
            ''',
        )
        assert findings == []

    def test_deep_relative_import_beyond_root_is_ignored(self):
        # Climbing past the package root cannot resolve; no false positive.
        findings = lint_module(
            "repro.phy.deep",
            '''
            """F."""
            from ...elsewhere import thing  # noqa: unresolvable relative
            ''',
        )
        assert findings == []


class TestAppLayerExemption:
    def test_app_shell_may_import_any_layer(self):
        findings = lint_module(
            "repro.cli",
            '''
            """F."""
            from repro.rx.receiver import ColorBarsReceiver
            from repro.perf.executor import run_specs
            from repro.tooling import lint_tree
            ''',
        )
        assert findings == []

    def test_app_shell_skips_library_only_rules(self):
        findings = lint_module(
            "repro.__main__",
            '''
            """F."""
            def report(x):
                print(x)
                raise ValueError("app code may use raw builtins")
            ''',
        )
        assert findings == []

    def test_library_module_with_same_body_is_flagged(self):
        findings = lint_module(
            "repro.rx.noisy",
            '''
            """F."""
            def report(x):
                print(x)
                raise ValueError("library code may not")
            ''',
        )
        assert sorted(f.rule_id for f in findings) == ["no-print", "raw-raise"]


class TestCycleRegression:
    def test_mutated_layer_deps_with_cycle_is_rejected(self):
        # Regression guard: a future edit adding a back-edge (say link ->
        # perf next to the existing perf -> link) must die in _closure at
        # import time, not silently legalize circular imports.
        mutated = {
            layer: frozenset(deps) for layer, deps in LAYER_DEPS.items()
        }
        mutated["link"] = mutated["link"] | {"perf"}
        with pytest.raises(LayeringError, match="cycle"):
            _closure(mutated)

    def test_mutated_copy_does_not_leak_into_real_graph(self):
        # The fixture above works on a copy; the live DAG stays acyclic.
        assert "perf" not in LAYER_DEPS["link"]
        assert _closure({k: v for k, v in LAYER_DEPS.items()})
