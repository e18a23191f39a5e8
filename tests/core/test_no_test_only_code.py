"""Every definition in ``src/repro`` has a consumer outside the test tree.

A function, method or class that only its own unit test calls is code with
no job: it costs reading time and keeps its tests green while nothing else
relies on it.  This guard walks ``src/repro`` and requires each non-dunder
definition's name to appear, as a whole word, somewhere besides its own
definition — in ``src/repro``, or in ``bench/``, ``benchmarks/`` or
``examples/``.  ``tests/`` does not count, and neither do package
``__init__.py`` files: a re-export is not a use.

The check is textual, so a name shared with any other identifier, comment
or docstring passes; it catches the names nothing mentions at all.
"""

import ast
import re
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
PACKAGE = REPO / "src" / "repro"
CONSUMERS = (PACKAGE, REPO / "bench", REPO / "benchmarks", REPO / "examples")

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _word_counts():
    counts = Counter()
    for root in CONSUMERS:
        for path in sorted(root.rglob("*.py")):
            if path.name == "__init__.py":
                continue
            counts.update(_IDENTIFIER.findall(path.read_text(encoding="utf-8")))
    return counts


def _definitions():
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, _DEFINITIONS):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    yield path, node.lineno, name


def test_every_definition_has_a_consumer():
    counts = _word_counts()
    # Each definition's own ``def``/``class`` line is one occurrence.
    unused = [
        f"{path.relative_to(REPO)}:{line} {name}"
        for path, line, name in sorted(_definitions())
        if counts[name] < 2
    ]
    assert not unused, (
        "definitions referenced nowhere outside their own tests "
        "(delete them, or give them a consumer):\n" + "\n".join(unused)
    )
