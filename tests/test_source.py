"""Rules on the source of ``src/``.

Invariants in ``src/`` are explicit checks: ``python -O`` strips an
``assert``, and a test run under ``-O`` only catches one that some test
happens to trip.  No module in ``src/`` uses ``dataclasses``: defining a
frozen dataclass runs generated code, about 1.3 ms per class in every process
that imports it, where a ``__slots__`` class takes about 0.013 ms.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def banned(node: ast.AST) -> bool:
    if isinstance(node, ast.Assert):
        return True
    if isinstance(node, ast.ImportFrom):
        return node.module == "dataclasses"
    if isinstance(node, ast.Import):
        return "dataclasses" in [alias.name for alias in node.names]
    return False


def test_src_has_no_assert_statements_or_dataclasses():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    hits = []
    for path in paths:
        text = path.read_text(encoding="utf-8")
        hits += [
            f"{path.relative_to(SRC.parent)}:{node.lineno}: {ast.get_source_segment(text, node)}"
            for node in ast.walk(ast.parse(text))
            if banned(node)
        ]
    assert not hits, "\n".join(hits)
