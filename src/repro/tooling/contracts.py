"""Whole-program contract rules over the :class:`~repro.tooling.project.Project` graph.

Four cross-module invariants the per-file rules cannot see:

* **determinism** — the simulation layers (``color`` through ``perf``) must
  be pure functions of ``(config, seed)``; wall-clock reads, entropy pulls,
  and unordered set iteration are flagged, including calls that reach a
  banned primitive *transitively* through a helper defined in an
  unconstrained layer (``util``/``obs``).
* **pickle-safety** — callables crossing the executor boundary
  (``run_specs``/``make_runner``/``run_specs_resilient``/``pool.submit``)
  must be module-top-level, and the executor payload dataclass (``RunSpec``)
  must be built from picklable fields, transitively.
* **obs-schema** — every span/metric name reaching a tracer or registry must
  be declared in ``repro.obs.schema``; declared-but-unused names are flagged
  so the schema cannot drift above the code (the static twin of the runtime
  registry check).
* **exception-taxonomy** — every ``raise`` in library code resolves into the
  ``ColorBarsError`` hierarchy (or an explicitly allowed control-flow
  builtin, or a bare re-raise).

Contract rules carry ``scope = "project"`` so the per-file runner skips
them; :func:`run_contract_rules` is the entry point, and honours the same
``# reprolint: disable=<rule>`` pragmas as the per-file rules.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.tooling.findings import Finding, apply_pragmas
from repro.tooling.layers import APP_LAYER
from repro.tooling.project import (
    FunctionInfo,
    ModuleSummary,
    Project,
)

#: Layers whose results must be pure functions of (config, seed).
DETERMINISTIC_LAYERS = frozenset(
    {
        "color",
        "phy",
        "csk",
        "fec",
        "camera",
        "packet",
        "flicker",
        "video",
        "faults",
        "rx",
        "core",
        "link",
        "baselines",
        "perf",
        "serve",
    }
)

#: Dotted call targets that read the wall clock or pull entropy.  The
#: measurement clocks (``time.perf_counter``/``time.monotonic``) are *not*
#: here: they never feed results, only timings.
NONDETERMINISTIC_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: Dotted prefixes banned wholesale in deterministic layers.
NONDETERMINISTIC_PREFIXES = ("secrets.", "random.")

#: The executor payload dataclasses whose fields must stay picklable.
PAYLOAD_ROOTS = ("repro.link.simulator.RunSpec",)

#: The module declaring the span/metric catalog.
SCHEMA_MODULE = "repro.obs.schema"

#: Builtin exceptions library code may raise: control-flow protocols, not
#: error reporting.  Everything else comes from ``repro.exceptions``.
ALLOWED_BUILTIN_RAISES = frozenset(
    {"NotImplementedError", "StopIteration", "StopAsyncIteration", "KeyboardInterrupt"}
)

#: Roots of the sanctioned taxonomy, for base-chain resolution.
_TAXONOMY_PREFIX = "repro.exceptions."


class ContractRule:
    """Base class for whole-program rules: set ``rule_id``/``description``."""

    rule_id: str = ""
    description: str = ""
    scope: str = "project"

    def check_project(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, summary: ModuleSummary, lineno: int, message: str) -> Finding:
        return Finding(
            path=summary.path, line=lineno, rule_id=self.rule_id, message=message
        )


def _banned_call(target: str) -> bool:
    if target in NONDETERMINISTIC_CALLS:
        return True
    return any(target.startswith(prefix) for prefix in NONDETERMINISTIC_PREFIXES)


class DeterminismRule(ContractRule):
    """Nothing nondeterministic feeds results in the simulation layers."""

    rule_id = "determinism"
    description = (
        "deterministic layers (color..perf) must not call wall-clock/entropy"
        " primitives (time.time, datetime.now, os.urandom, uuid, random.*,"
        " secrets.*) or iterate sets, directly or through helpers in"
        " unconstrained layers"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        reach = _BannedReachability(project)
        for summary in project.modules.values():
            if summary.layer not in DETERMINISTIC_LAYERS:
                continue
            for fn in summary.functions:
                for call in fn.calls:
                    target = project.resolve(call.target)
                    if target is None:
                        continue
                    if _banned_call(target):
                        yield self.finding(
                            summary,
                            call.lineno,
                            f"call to {target}() in deterministic layer"
                            f" '{summary.layer}'; results must be pure"
                            " functions of (config, seed)",
                        )
                        continue
                    callee = project.functions.get(target)
                    if callee is None:
                        continue
                    callee_layer = _layer_of_function(project, callee)
                    if callee_layer in DETERMINISTIC_LAYERS:
                        # The callee's own module is constrained; its direct
                        # finding already covers the violation — don't cascade.
                        continue
                    banned = reach.banned_target(callee.qualname)
                    if banned is not None:
                        yield self.finding(
                            summary,
                            call.lineno,
                            f"call to {target}() transitively reaches"
                            f" {banned}() from deterministic layer"
                            f" '{summary.layer}'",
                        )
            for lineno in summary.set_iterations:
                yield self.finding(
                    summary,
                    lineno,
                    "iteration over an unordered set in deterministic layer"
                    f" '{summary.layer}'; sort first (sorted(...)) so"
                    " traversal order is reproducible",
                )


def _layer_of_function(project: Project, fn: FunctionInfo) -> Optional[str]:
    summary = project.modules.get(fn.module)
    return summary.layer if summary is not None else None


class _BannedReachability:
    """Memoized 'does this function transitively call a banned primitive?'"""

    def __init__(self, project: Project) -> None:
        self.project = project
        self._memo: Dict[str, Optional[str]] = {}

    def banned_target(self, qualname: str) -> Optional[str]:
        return self._walk(qualname, set())

    def _walk(self, qualname: str, visiting: Set[str]) -> Optional[str]:
        if qualname in self._memo:
            return self._memo[qualname]
        if qualname in visiting:
            return None  # recursion cycle — already being evaluated above
        fn = self.project.functions.get(qualname)
        if fn is None:
            return None
        visiting.add(qualname)
        result: Optional[str] = None
        for call in fn.calls:
            target = self.project.resolve(call.target)
            if target is None:
                continue
            if _banned_call(target):
                result = target
                break
            found = self._walk(target, visiting)
            if found is not None:
                result = found
                break
        visiting.discard(qualname)
        self._memo[qualname] = result
        return result


class PickleSafetyRule(ContractRule):
    """Everything crossing the executor boundary must pickle."""

    rule_id = "pickle-safety"
    description = (
        "callables handed to the sweep executor (run_specs/make_runner/"
        "run_specs_resilient/pool.submit) must be module-top-level, and"
        " executor payload dataclasses (RunSpec) must have picklable fields"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        for summary in project.modules.values():
            for payload in summary.payloads:
                if payload.kind == "lambda":
                    yield self.finding(
                        summary,
                        payload.lineno,
                        f"lambda passed to executor boundary {payload.boundary};"
                        " lambdas do not pickle — use a module-top-level"
                        " function",
                    )
                elif payload.kind == "nested-function":
                    yield self.finding(
                        summary,
                        payload.lineno,
                        f"nested function '{payload.target}' passed to executor"
                        f" boundary {payload.boundary}; closures do not pickle"
                        " — move it to module top level",
                    )
                elif payload.kind == "name":
                    fn = project.function(payload.target)
                    if fn is not None and fn.nested:
                        yield self.finding(
                            summary,
                            payload.lineno,
                            f"function '{fn.qualname}' passed to executor"
                            f" boundary {payload.boundary} is defined inside"
                            " another function and will not pickle",
                        )
        for root in PAYLOAD_ROOTS:
            for finding in self._check_dataclass(project, root, set()):
                yield finding

    def _check_dataclass(
        self, project: Project, dotted: str, visited: Set[str]
    ) -> Iterator[Finding]:
        resolved = project.resolve(dotted)
        if resolved is None or resolved in visited:
            return
        visited.add(resolved)
        cls = project.classes.get(resolved)
        if cls is None or not cls.is_dataclass:
            return
        summary = project.modules.get(cls.module)
        if summary is None:
            return
        if cls.nested:
            yield self.finding(
                summary,
                cls.lineno,
                f"executor payload dataclass '{cls.qualname}' is defined"
                " inside another scope and will not pickle",
            )
        for field_info in cls.fields:
            if field_info.default_kind == "lambda":
                yield self.finding(
                    summary,
                    field_info.lineno,
                    f"field '{field_info.name}' of executor payload"
                    f" '{cls.qualname}' defaults to a lambda, which does"
                    " not pickle",
                )
            for name in field_info.annotation_names:
                resolved_name = project.resolve(name)
                if resolved_name is None:
                    continue
                tail = resolved_name.rpartition(".")[2]
                if tail == "Callable":
                    yield self.finding(
                        summary,
                        field_info.lineno,
                        f"field '{field_info.name}' of executor payload"
                        f" '{cls.qualname}' is annotated Callable; arbitrary"
                        " callables are not reliably picklable — carry data,"
                        " not code",
                    )
                    continue
                inner = project.classes.get(resolved_name)
                if inner is None:
                    continue
                if inner.nested:
                    yield self.finding(
                        summary,
                        field_info.lineno,
                        f"field '{field_info.name}' of executor payload"
                        f" '{cls.qualname}' references nested class"
                        f" '{inner.qualname}', which will not pickle",
                    )
                elif inner.is_dataclass and resolved_name.startswith("repro."):
                    for finding in self._check_dataclass(
                        project, resolved_name, visited
                    ):
                        yield finding


class ObsSchemaRule(ContractRule):
    """Span/metric names and ``repro.obs.schema`` must agree both ways."""

    rule_id = "obs-schema"
    description = (
        "every span/metric name reaching a Tracer/MetricsRegistry must be"
        " declared as a SPAN_*/M_* constant in repro.obs.schema, and every"
        " declared constant must be used somewhere"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        schema = project.modules.get(SCHEMA_MODULE)
        if schema is None:
            return  # fixture projects without an obs layer: nothing to check
        spans = {
            value: (name, lineno)
            for name, (value, lineno) in schema.string_constants.items()
            if name.startswith("SPAN_")
        }
        metrics = {
            value: (name, lineno)
            for name, (value, lineno) in schema.string_constants.items()
            if name.startswith("M_")
        }
        used: Set[str] = set()
        for summary in project.modules.values():
            if summary.module == SCHEMA_MODULE:
                continue
            for target in summary.aliases.values():
                if target.startswith(SCHEMA_MODULE + "."):
                    used.add(target[len(SCHEMA_MODULE) + 1 :])
            for obs_call in summary.obs_calls:
                catalog = spans if obs_call.method == "span" else metrics
                kind = "span" if obs_call.method == "span" else "metric"
                if obs_call.const is not None:
                    const_name = obs_call.const[len(SCHEMA_MODULE) + 1 :]
                    if const_name not in schema.string_constants:
                        yield self.finding(
                            summary,
                            obs_call.lineno,
                            f"{kind} name references"
                            f" {SCHEMA_MODULE}.{const_name}, which is not a"
                            " declared string constant",
                        )
                        continue
                    used.add(const_name)
                    value = schema.string_constants[const_name][0]
                else:
                    value = obs_call.value
                if value is None:
                    continue
                if value in catalog:
                    used.add(catalog[value][0])
                else:
                    yield self.finding(
                        summary,
                        obs_call.lineno,
                        f"{kind} name '{value}' is not declared in"
                        f" {SCHEMA_MODULE}; add a"
                        f" {'SPAN_*' if kind == 'span' else 'M_*'} constant"
                        " there and import it",
                    )
        for catalog in (spans, metrics):
            for value, (name, lineno) in catalog.items():
                if name not in used:
                    yield self.finding(
                        schema,
                        lineno,
                        f"schema constant {name} ('{value}') is declared but"
                        " never used by any instrumented module",
                    )


class ExceptionTaxonomyRule(ContractRule):
    """Library errors come from ``repro.exceptions`` — no raw builtins."""

    rule_id = "exception-taxonomy"
    description = (
        "every raise in library code must resolve to the ColorBarsError"
        " taxonomy (repro.exceptions), a control-flow builtin"
        " (NotImplementedError/StopIteration), or a bare re-raise"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        for summary in project.modules.values():
            if summary.layer in (None, APP_LAYER):
                continue
            if summary.module == "repro.exceptions":
                continue
            for raise_site in summary.raises:
                target = raise_site.target
                if target is None:
                    continue  # bare re-raise or local variable: always legal
                if target.startswith(_TAXONOMY_PREFIX):
                    continue
                if "." not in target:
                    if target in ALLOWED_BUILTIN_RAISES:
                        continue
                    yield self.finding(
                        summary,
                        raise_site.lineno,
                        f"raise of builtin {target} outside the taxonomy;"
                        " raise a ColorBarsError subclass from"
                        " repro.exceptions",
                    )
                    continue
                head = target.split(".", 1)[0]
                if head in ("self", "cls"):
                    continue  # attribute on an instance: not statically known
                if self._reaches_taxonomy(project, target, set()):
                    continue
                cls = project.class_info(target)
                if cls is not None:
                    yield self.finding(
                        summary,
                        raise_site.lineno,
                        f"raise of {project.resolve(target)}, whose base"
                        " chain never reaches repro.exceptions; derive it"
                        " from ColorBarsError",
                    )
                elif not target.startswith("repro."):
                    yield self.finding(
                        summary,
                        raise_site.lineno,
                        f"raise of foreign exception {target}; wrap it in a"
                        " ColorBarsError subclass from repro.exceptions",
                    )

    def _reaches_taxonomy(
        self, project: Project, dotted: str, visited: Set[str]
    ) -> bool:
        resolved = project.resolve(dotted)
        if resolved is None or resolved in visited:
            return False
        visited.add(resolved)
        if resolved.startswith(_TAXONOMY_PREFIX):
            return True
        cls = project.classes.get(resolved)
        if cls is None:
            return False
        return any(
            self._reaches_taxonomy(project, base, visited) for base in cls.bases
        )


#: Registry of every contract rule, in report order.
CONTRACT_RULES: Tuple[ContractRule, ...] = (
    DeterminismRule(),
    PickleSafetyRule(),
    ObsSchemaRule(),
    ExceptionTaxonomyRule(),
)


def run_contract_rules(
    project: Project, rules: Optional[Sequence[ContractRule]] = None
) -> List[Finding]:
    """Run contract rules over a project; pragma-filtered, sorted findings."""
    raw: List[Finding] = []
    for rule in CONTRACT_RULES if rules is None else rules:
        raw.extend(rule.check_project(project))
    by_path: Dict[str, ModuleSummary] = {
        summary.path: summary for summary in project.modules.values()
    }
    kept: List[Finding] = []
    for finding in raw:
        summary = by_path.get(finding.path)
        if summary is not None and summary.pragmas:
            pragmas = {line: set(names) for line, names in summary.pragmas.items()}
            if not apply_pragmas([finding], pragmas):
                continue
        kept.append(finding)
    return sorted(kept)
