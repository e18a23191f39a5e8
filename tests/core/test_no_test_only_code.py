"""Every definition in ``src/repro`` has a consumer outside the test tree.

A function, method or class that only its own unit test calls is code with
no job: it costs reading time and keeps its tests green while nothing else
relies on it.  This guard parses ``src/repro`` with :mod:`ast` and requires
each non-dunder definition's name to be *used* somewhere in the consumer
code: ``src/repro``, ``bench/``, ``benchmarks/`` or ``examples/``.
``tests/`` does not count, and neither do package ``__init__.py`` files or
``__all__`` lists: a re-export is not a use.

A use is a name as the code reads it: a loaded ``Name`` or ``Attribute``,
an imported name, a keyword argument, or a string constant that is a dotted
identifier (``getattr(obj, "name")``, or a ``"Class.method"`` target such as
``bench/layers.py`` resolves).  Expressions inside f-strings are code and
count.  Docstrings, bare string statements, comments and definition lines do
not, so neither a mention in prose nor a second definition with the same
name keeps a definition alive.

``REFERENCES`` lists the exceptions: code kept in ``src/`` only because a
test compares live code against it, each with the test that does.  An entry
whose name gains a consumer, or whose test is gone, fails the guard.
Helpers that only tests need live in the test tree instead.
"""

import ast
import re
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
PACKAGE = REPO / "src" / "repro"
CONSUMERS = (PACKAGE, REPO / "bench", REPO / "benchmarks", REPO / "examples")

#: Reference implementations kept for equivalence tests: name -> the test
#: (``path::node``, relative to the repository root) that checks live code
#: against it.
REFERENCES = {
    "bayer_mosaic": (
        "tests/camera/test_bayer.py::TestMosaicFromRows::test_matches_mosaic_of_broadcast"
    ),
    "decide_stream": "tests/rx/test_band_log.py::_CapturingDetector::_check_frame",
    "mul": (
        "tests/fec/test_polynomial.py::TestEvaluation::test_evaluation_is_ring_homomorphism"
    ),
    "evaluate": (
        "tests/fec/test_polynomial.py::TestEvaluation::test_evaluation_is_ring_homomorphism"
    ),
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*")


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _prose_and_exports(tree):
    """String constants that are not code: docstrings, bare strings, ``__all__``."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            skipped.add(id(node.value))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                skipped.update(id(sub) for sub in ast.walk(node))
    return skipped


def used_names(source):
    """Count the names *source* uses, in the sense of the module docstring."""
    tree = ast.parse(source)
    skipped = _prose_and_exports(tree)
    uses = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            uses[node.attr] += 1
        elif isinstance(node, ast.alias):
            uses.update(node.name.split("."))
        elif isinstance(node, ast.keyword) and node.arg is not None:
            uses[node.arg] += 1
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skipped
            and _DOTTED.fullmatch(node.value)
        ):
            uses.update(node.value.split("."))
    return uses


def defined_names(source):
    """``(line, name)`` of every non-dunder function, method and class."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DEFINITIONS) and not _is_dunder(node.name):
            yield node.lineno, node.name


def unused_definitions(definitions, consumers):
    """Sorted ``(label, line, name)`` of each definition no consumer uses.

    *definitions* and *consumers* map a label (a path) to source text.
    """
    uses = Counter()
    for source in consumers.values():
        uses.update(used_names(source))
    return sorted(
        (label, line, name)
        for label, source in definitions.items()
        for line, name in defined_names(source)
        if not uses[name]
    )


def _sources(roots):
    return {
        str(path.relative_to(REPO)): path.read_text(encoding="utf-8")
        for root in roots
        for path in sorted(root.rglob("*.py"))
        if path.name != "__init__.py"
    }


def _repo_unused():
    definitions = {
        str(path.relative_to(REPO)): path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    return unused_definitions(definitions, _sources(CONSUMERS))


def test_every_definition_has_a_consumer():
    unused = [
        f"{label}:{line} {name}"
        for label, line, name in _repo_unused()
        if name not in REFERENCES
    ]
    assert not unused, (
        "definitions used nowhere outside their own tests "
        "(delete them, give them a consumer, or list a reference "
        "implementation in REFERENCES with its test):\n" + "\n".join(unused)
    )


def test_references_are_unused_and_compared_by_their_test():
    flagged = {name for _, _, name in _repo_unused()}
    for name, test in REFERENCES.items():
        assert name in flagged, f"{name} has a consumer; drop it from REFERENCES"
        path, *nodes = test.split("::")
        tree = ast.parse((REPO / path).read_text(encoding="utf-8"))
        for node_name in nodes:
            tree = next(
                (
                    node
                    for node in tree.body
                    if isinstance(node, _DEFINITIONS) and node.name == node_name
                ),
                None,
            )
            assert tree is not None, f"REFERENCES[{name!r}]: no test {test}"
        assert used_names(ast.unparse(tree))[name], (
            f"REFERENCES[{name!r}]: {test} does not call {name}"
        )


class TestScanner:
    """The scanner on synthetic sources, so its rule is pinned by example."""

    DEFINED = {
        "pkg/mod.py": (
            "def docstring_only():\n    pass\n\n"
            "def comment_only():\n    pass\n\n"
            "def twin():\n    pass\n\n"
            "def called():\n    pass\n\n"
            "def attribute_read():\n    pass\n\n"
            "def in_fstring():\n    pass\n\n"
            "def by_getattr():\n    pass\n\n"
            "class Target:\n"
            "    def method():\n        pass\n"
        ),
    }
    CONSUMER = {
        "pkg/other.py": (
            '"""Mentions docstring_only in prose."""\n'
            "# comment_only is mentioned here\n"
            "def twin():\n"
            '    """twin, twin."""\n'
            "called()\n"
            "obj.attribute_read\n"
            'print(f"{obj.in_fstring()}")\n'
            'getattr(obj, "by_getattr")\n'
            'TARGETS = ("Target.method",)\n'
        ),
    }

    def test_prose_and_same_named_defs_are_not_uses(self):
        unused = unused_definitions(self.DEFINED, self.CONSUMER)
        assert [name for _, _, name in unused] == [
            "docstring_only", "comment_only", "twin",
        ]

    def test_code_reads_are_uses(self):
        uses = used_names(self.CONSUMER["pkg/other.py"])
        for name in ("called", "attribute_read", "in_fstring", "by_getattr",
                     "Target", "method"):
            assert uses[name], name
