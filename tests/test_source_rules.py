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


def test_check_planarity_only_in_embedding():
    # one planarity layer: everything else goes through planar_nx / witness_nx
    found = [
        path.name
        for path in SOURCES
        if path.name != "embedding.py" and "check_planarity" in path.read_text()
    ]
    assert "embedding.py" in {path.name for path in SOURCES} and not found, found


def test_rotation_from_networkx_has_one_owner():
    # one place turns networkx's embedding into a rotation system
    found = {path.name: path.read_text().count("get_data(") for path in SOURCES}
    assert {name: k for name, k in found.items() if k} == {"embedding.py": 1}, found


def test_graph6_writer_is_not_networkx():
    # networkx's writer walks all n(n-1)/2 vertex pairs in Python
    found = [path.name for path in SOURCES if "to_graph6_bytes" in path.read_text()]
    assert SOURCES and not found, found


def test_graph6_reader_is_not_networkx():
    # so does networkx's reader; parse_graph reads the set bits directly
    found = [path.name for path in SOURCES if "from_graph6_bytes" in path.read_text()]
    assert SOURCES and not found, found
