"""The declared import-layering DAG of the ``repro`` package.

Each layer names the layers it may import *directly*; the transitive closure
is computed (and the graph checked for cycles) at import time.  The intended
architecture is a strict bottom-up chain through the optical pipeline::

    exceptions -> util -> color -> phy -> {csk, fec, camera}
        -> {packet, flicker, video, faults} -> rx -> core -> link
        -> {baselines, perf, serve}

(``faults`` sits between ``camera`` and ``link``: injectors transform
captured frames, and only the link layer composes them into runs;
``perf`` sits above ``link`` — the executor and the pool orchestrate
link runs, while the link layer only *accepts* an injected runner and
never imports ``perf``; ``obs`` sits at the bottom next to ``util`` —
tracing/metrics are injected into camera/rx/link/perf, so instrumented
layers may import ``obs`` but ``obs`` sees nothing above ``util``)

with ``tooling`` off to the side (it may only see ``util``/``exceptions``)
and the application shell (``cli``, ``__main__``, the package root) allowed
to import anything.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set

from repro.exceptions import LayeringError

#: Pseudo-layer for application entry points; exempt from layering checks.
APP_LAYER = "app"

#: Top-level modules of ``repro`` that are not packages, mapped to layers.
_TOP_LEVEL_MODULES = {
    "exceptions": "exceptions",
    "cli": APP_LAYER,
    "__main__": APP_LAYER,
    "__init__": APP_LAYER,
}

#: Direct (non-transitive) dependencies each layer is allowed.
LAYER_DEPS: Dict[str, FrozenSet[str]] = {
    "exceptions": frozenset(),
    "util": frozenset({"exceptions"}),
    "obs": frozenset({"util"}),
    "color": frozenset({"util"}),
    "phy": frozenset({"color"}),
    "fec": frozenset({"util"}),
    "csk": frozenset({"phy"}),
    "camera": frozenset({"phy", "obs"}),
    "packet": frozenset({"csk"}),
    "flicker": frozenset({"csk"}),
    "video": frozenset({"camera"}),
    "faults": frozenset({"camera"}),
    "rx": frozenset({"video", "packet", "fec", "obs"}),
    "core": frozenset({"rx", "flicker"}),
    "link": frozenset({"core", "faults", "obs"}),
    "baselines": frozenset({"rx"}),
    "perf": frozenset({"link", "obs"}),
    "serve": frozenset({"link"}),
    "tooling": frozenset({"util"}),
}


def _closure(graph: Dict[str, FrozenSet[str]]) -> Dict[str, FrozenSet[str]]:
    """Transitive closure of the dependency graph; raises on cycles."""
    resolved: Dict[str, FrozenSet[str]] = {}
    visiting: Set[str] = set()

    def visit(layer: str) -> FrozenSet[str]:
        if layer in resolved:
            return resolved[layer]
        if layer in visiting:
            raise LayeringError(f"cycle in LAYER_DEPS through layer {layer!r}")
        visiting.add(layer)
        reach: Set[str] = set()
        for dep in graph[layer]:
            if dep not in graph:
                raise LayeringError(
                    f"layer {layer!r} depends on unknown layer {dep!r}"
                )
            reach.add(dep)
            reach.update(visit(dep))
        visiting.discard(layer)
        resolved[layer] = frozenset(reach)
        return resolved[layer]

    for name in graph:
        visit(name)
    return resolved


_ALLOWED: Dict[str, FrozenSet[str]] = _closure(LAYER_DEPS)


def allowed_imports(layer: str) -> FrozenSet[str]:
    """All layers ``layer`` may import (direct dependencies plus transitive)."""
    if layer == APP_LAYER:
        return frozenset(LAYER_DEPS)
    try:
        return _ALLOWED[layer]
    except KeyError:
        raise LayeringError(f"unknown layer {layer!r}") from None


def layer_of(module: str) -> Optional[str]:
    """Layer of a dotted module path, or ``None`` if it is not part of ``repro``.

    Accepts absolute names (``repro.camera.sensor``) and package-relative ones
    (``camera.sensor`` or just ``camera``).
    """
    parts = module.split(".")
    if parts[0] == "repro":
        parts = parts[1:]
    if not parts or not parts[0]:
        return APP_LAYER  # the package root itself
    head = parts[0]
    if head in LAYER_DEPS:
        return head
    return _TOP_LEVEL_MODULES.get(head)


def is_import_allowed(importer: str, imported: str) -> bool:
    """May layer ``importer`` import layer ``imported``?"""
    if importer == APP_LAYER or importer == imported:
        return True
    return imported in allowed_imports(importer)
