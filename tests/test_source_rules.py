import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "crossbound").glob("*.py"))


def test_no_assert_statements_in_package():
    # python -O strips asserts, so no result may rest on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found
