"""Each contract rule must catch its seeded violation (and only that).

Fixtures are miniature ``repro`` trees expressed as in-memory sources; the
paths carry the layer (``pkg/repro/<layer>/...``) so layer resolution works
exactly as it does for the real package.
"""

import textwrap

from repro.tooling.contracts import (
    CONTRACT_RULES,
    DeterminismRule,
    ExceptionTaxonomyRule,
    ObsSchemaRule,
    PickleSafetyRule,
    run_contract_rules,
)
from repro.tooling.project import Project, summarize_module


def mini_project(files):
    """Build a Project from {path: source} with dedented sources."""
    return Project(
        [
            summarize_module(path, textwrap.dedent(source))
            for path, source in files.items()
        ]
    )


def findings_for(rule, files):
    return sorted(rule.check_project(mini_project(files)))


class TestDeterminismRule:
    def test_wall_clock_in_link_helper_is_flagged(self):
        findings = findings_for(
            DeterminismRule(),
            {
                "pkg/repro/link/helper.py": '''
                    """F."""
                    import time

                    def stamp():
                        return time.time()
                ''',
            },
        )
        assert len(findings) == 1
        assert findings[0].rule_id == "determinism"
        assert "time.time" in findings[0].message
        assert findings[0].path.endswith("link/helper.py")

    def test_transitive_reach_through_util_helper(self):
        # link calls a util helper; util is unconstrained, so the violation
        # must surface at the link call site.
        findings = findings_for(
            DeterminismRule(),
            {
                "pkg/repro/util/stamps.py": '''
                    """F."""
                    import time

                    def now_tag():
                        return time.time()
                ''',
                "pkg/repro/link/driver.py": '''
                    """F."""
                    from repro.util.stamps import now_tag

                    def run():
                        return now_tag()
                ''',
            },
        )
        assert [f.path.endswith("link/driver.py") for f in findings] == [True]
        assert "transitively reaches time.time()" in findings[0].message

    def test_no_cascade_when_callee_is_already_constrained(self):
        # phy calling a link function that misbehaves: the link module gets
        # its own direct finding; the phy call site must not duplicate it.
        findings = findings_for(
            DeterminismRule(),
            {
                "pkg/repro/core/helper.py": '''
                    """F."""
                    import time

                    def stamp():
                        return time.time()
                ''',
                "pkg/repro/link/driver.py": '''
                    """F."""
                    from repro.core.helper import stamp

                    def run():
                        return stamp()
                ''',
            },
        )
        assert len(findings) == 1
        assert findings[0].path.endswith("core/helper.py")

    def test_measurement_clocks_are_allowed(self):
        findings = findings_for(
            DeterminismRule(),
            {
                "pkg/repro/perf/timer.py": '''
                    """F."""
                    import time

                    def elapsed(t0):
                        return time.perf_counter() - t0

                    def tick():
                        return time.monotonic()
                ''',
            },
        )
        assert findings == []

    def test_set_iteration_flagged_in_deterministic_layer_only(self):
        files = {
            "pkg/repro/link/iter.py": '''
                """F."""
                def go(items):
                    return [x for x in set(items)]
            ''',
            "pkg/repro/util/iter.py": '''
                """F."""
                def go(items):
                    return [x for x in set(items)]
            ''',
        }
        findings = findings_for(DeterminismRule(), files)
        assert len(findings) == 1
        assert findings[0].path.endswith("link/iter.py")
        assert "unordered set" in findings[0].message

    def test_uuid_and_secrets_banned(self):
        findings = findings_for(
            DeterminismRule(),
            {
                "pkg/repro/rx/ids.py": '''
                    """F."""
                    import uuid
                    import secrets

                    def fresh():
                        return uuid.uuid4(), secrets.token_bytes(4)
                ''',
            },
        )
        assert sorted(m.message.split("(")[0] for m in findings) == [
            "call to secrets.token_bytes",
            "call to uuid.uuid4",
        ]


class TestPickleSafetyRule:
    def test_lambda_runner_is_flagged(self):
        findings = findings_for(
            PickleSafetyRule(),
            {
                "pkg/repro/link/driver.py": '''
                    """F."""
                    from repro.perf.executor import run_specs

                    def go(specs):
                        return run_specs(specs, runner=lambda s: s)
                ''',
            },
        )
        assert len(findings) == 1
        assert "lambda" in findings[0].message
        assert "run_specs" in findings[0].message

    def test_nested_function_runner_is_flagged(self):
        findings = findings_for(
            PickleSafetyRule(),
            {
                "pkg/repro/link/driver.py": '''
                    """F."""
                    from repro.perf.executor import make_runner

                    def go():
                        def local_runner(spec):
                            return spec
                        return make_runner(local_runner)
                ''',
            },
        )
        assert len(findings) == 1
        assert "local_runner" in findings[0].message
        assert "closures do not pickle" in findings[0].message

    def test_top_level_runner_is_clean(self):
        findings = findings_for(
            PickleSafetyRule(),
            {
                "pkg/repro/link/driver.py": '''
                    """F."""
                    from repro.perf.executor import make_runner

                    def my_runner(spec):
                        return spec

                    def go():
                        return make_runner(my_runner)
                ''',
            },
        )
        assert findings == []

    def test_pool_submit_with_lambda_is_flagged(self):
        findings = findings_for(
            PickleSafetyRule(),
            {
                "pkg/repro/perf/pooler.py": '''
                    """F."""
                    def go(pool, spec):
                        return pool.submit(lambda: spec)
                ''',
            },
        )
        assert len(findings) == 1
        assert "<pool>.submit" in findings[0].message

    def test_payload_dataclass_with_callable_field_is_flagged(self):
        findings = findings_for(
            PickleSafetyRule(),
            {
                "pkg/repro/link/simulator.py": '''
                    """F."""
                    from dataclasses import dataclass
                    from typing import Callable

                    @dataclass
                    class RunSpec:
                        seed: int
                        hook: Callable
                ''',
            },
        )
        assert len(findings) == 1
        assert "annotated Callable" in findings[0].message

    def test_payload_dataclass_recurses_into_repro_field_types(self):
        findings = findings_for(
            PickleSafetyRule(),
            {
                "pkg/repro/link/simulator.py": '''
                    """F."""
                    from dataclasses import dataclass
                    from repro.core.cfg import Inner

                    @dataclass
                    class RunSpec:
                        seed: int
                        inner: Inner
                ''',
                "pkg/repro/core/cfg.py": '''
                    """F."""
                    from dataclasses import dataclass

                    @dataclass
                    class Inner:
                        fixup: "Callable"
                        bad = None
                ''',
            },
        )
        # Inner.fixup has a string annotation the walker cannot resolve to
        # Callable — but a lambda default would be caught; here nothing is
        # flagged, proving recursion terminates without false positives.
        assert findings == []

    def test_payload_dataclass_lambda_default_is_flagged(self):
        findings = findings_for(
            PickleSafetyRule(),
            {
                "pkg/repro/link/simulator.py": '''
                    """F."""
                    from dataclasses import dataclass

                    @dataclass
                    class RunSpec:
                        seed: int
                        fixup: object = lambda s: s
                ''',
            },
        )
        assert len(findings) == 1
        assert "defaults to a lambda" in findings[0].message


class TestObsSchemaRule:
    SCHEMA = '''
        """F."""
        SPAN_RUN = "link.run"
        M_FRAMES = "frames_total"
    '''

    def test_undeclared_span_name_is_flagged(self):
        findings = findings_for(
            ObsSchemaRule(),
            {
                "pkg/repro/obs/schema.py": self.SCHEMA,
                "pkg/repro/link/mod.py": '''
                    """F."""
                    from repro.obs.schema import SPAN_RUN, M_FRAMES

                    def go(tracer, metrics):
                        with tracer.span(SPAN_RUN):
                            metrics.counter(M_FRAMES)
                        with tracer.span("link.ghost"):
                            pass
                ''',
            },
        )
        assert len(findings) == 1
        assert "link.ghost" in findings[0].message
        assert "not declared" in findings[0].message

    def test_unused_declaration_is_flagged(self):
        findings = findings_for(
            ObsSchemaRule(),
            {
                "pkg/repro/obs/schema.py": '''
                    """F."""
                    SPAN_RUN = "link.run"
                    M_ORPHAN = "orphan_total"
                ''',
                "pkg/repro/link/mod.py": '''
                    """F."""
                    from repro.obs.schema import SPAN_RUN

                    def go(tracer):
                        with tracer.span(SPAN_RUN):
                            pass
                ''',
            },
        )
        assert len(findings) == 1
        assert "M_ORPHAN" in findings[0].message
        assert "never used" in findings[0].message

    def test_metric_names_checked_against_metric_catalog(self):
        # A metric name that only exists as a span must still be flagged.
        findings = findings_for(
            ObsSchemaRule(),
            {
                "pkg/repro/obs/schema.py": self.SCHEMA,
                "pkg/repro/link/mod.py": '''
                    """F."""
                    from repro.obs.schema import SPAN_RUN, M_FRAMES

                    def go(tracer, metrics):
                        with tracer.span(SPAN_RUN):
                            metrics.counter(M_FRAMES)
                        metrics.counter("link.run")
                ''',
            },
        )
        assert len(findings) == 1
        assert "metric name 'link.run'" in findings[0].message

    def test_no_schema_module_means_no_findings(self):
        findings = findings_for(
            ObsSchemaRule(),
            {
                "pkg/repro/link/mod.py": '''
                    """F."""
                    def go(tracer):
                        with tracer.span("anything.goes"):
                            pass
                ''',
            },
        )
        assert findings == []


class TestExceptionTaxonomyRule:
    def test_raw_runtime_error_is_flagged(self):
        findings = findings_for(
            ExceptionTaxonomyRule(),
            {
                "pkg/repro/rx/err.py": '''
                    """F."""
                    def boom():
                        raise RuntimeError("x")
                ''',
            },
        )
        assert len(findings) == 1
        assert "builtin RuntimeError" in findings[0].message

    def test_taxonomy_and_control_flow_raises_are_clean(self):
        findings = findings_for(
            ExceptionTaxonomyRule(),
            {
                "pkg/repro/rx/err.py": '''
                    """F."""
                    from repro.exceptions import DemodulationError

                    def boom():
                        raise DemodulationError("x")

                    def todo():
                        raise NotImplementedError

                    def reraise():
                        try:
                            boom()
                        except DemodulationError:
                            raise
                ''',
            },
        )
        assert findings == []

    def test_local_subclass_of_taxonomy_is_clean(self):
        findings = findings_for(
            ExceptionTaxonomyRule(),
            {
                "pkg/repro/link/err.py": '''
                    """F."""
                    from repro.exceptions import LinkError

                    class SweepStalled(LinkError):
                        pass

                    def boom():
                        raise SweepStalled("x")
                ''',
            },
        )
        assert findings == []

    def test_class_outside_taxonomy_is_flagged(self):
        findings = findings_for(
            ExceptionTaxonomyRule(),
            {
                "pkg/repro/link/err.py": '''
                    """F."""
                    class Rogue(Exception):
                        pass

                    def boom():
                        raise Rogue("x")
                ''',
            },
        )
        assert len(findings) == 1
        assert "never reaches repro.exceptions" in findings[0].message

    def test_app_layer_is_exempt(self):
        findings = findings_for(
            ExceptionTaxonomyRule(),
            {
                "pkg/repro/cli.py": '''
                    """F."""
                    def bail():
                        raise SystemExit(2)
                ''',
            },
        )
        assert findings == []


class TestPragmaParity:
    def test_disable_pragma_suppresses_contract_finding(self):
        project = mini_project(
            {
                "pkg/repro/link/helper.py": '''
                    """F."""
                    import time

                    def stamp():
                        return time.time()  # reprolint: disable=determinism
                ''',
            }
        )
        assert run_contract_rules(project) == []

    def test_disable_all_pragma_works_too(self):
        project = mini_project(
            {
                "pkg/repro/rx/err.py": '''
                    """F."""
                    def boom():
                        raise RuntimeError("x")  # reprolint: disable=all
                ''',
            }
        )
        assert run_contract_rules(project) == []

    def test_pragma_for_other_rule_does_not_suppress(self):
        project = mini_project(
            {
                "pkg/repro/rx/err.py": '''
                    """F."""
                    def boom():
                        raise RuntimeError("x")  # reprolint: disable=no-print
                ''',
            }
        )
        findings = run_contract_rules(project)
        assert [f.rule_id for f in findings] == ["exception-taxonomy"]


class TestRegistry:
    def test_all_four_rules_registered(self):
        assert [rule.rule_id for rule in CONTRACT_RULES] == [
            "determinism",
            "pickle-safety",
            "obs-schema",
            "exception-taxonomy",
        ]
        assert all(rule.scope == "project" for rule in CONTRACT_RULES)

    def test_contract_rules_in_all_rules_and_get_rules(self):
        from repro.tooling import ALL_RULES, get_rules

        ids = [rule.rule_id for rule in ALL_RULES]
        for rule in CONTRACT_RULES:
            assert rule.rule_id in ids
        (determinism,) = get_rules(["determinism"])
        assert determinism.scope == "project"

    def test_run_contract_rules_subset(self):
        project = mini_project(
            {
                "pkg/repro/link/mixed.py": '''
                    """F."""
                    import time

                    def stamp():
                        return time.time()

                    def boom():
                        raise RuntimeError("x")
                ''',
            }
        )
        only_det = run_contract_rules(project, rules=[DeterminismRule()])
        assert [f.rule_id for f in only_det] == ["determinism"]
