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


def _callers(path: Path, name: str):
    """The top-level functions of a source file, once per call they make to
    ``name`` (as a plain or an attribute call)."""
    return sorted(
        fn.name
        for fn in ast.parse(path.read_text()).body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )


def _imported(path: Path):
    """The modules a source file imports from, and the names it imports."""
    return {
        name
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        for name in (getattr(node, "module", None) or "", alias.name)
    }


def test_check_planarity_has_one_owner():
    # networkx's test is left only to extract witnesses
    found = {path.name: path.read_text().count("check_planarity(") for path in SOURCES}
    assert {name: k for name, k in found.items() if k} == {"embedding.py": 1}, found
    owners = _callers(SOURCES[0].parent / "embedding.py", "check_planarity")
    assert owners == ["witness_nx"], owners


def test_lr_kernel_has_three_callers():
    # two yes/no tests and the one LR test that becomes a rotation system
    embedding = SOURCES[0].parent / "embedding.py"
    callers = _callers(embedding, "lr_test")
    assert callers == ["embed_components", "is_planar", "planar_nx"], callers
    assert _callers(embedding, "lr_rotation") == ["embed_components"]


def test_embeddings_have_one_format():
    # one RotationEmbedding holds every component: no per-component tuple
    found = [path.name for path in SOURCES if "Embeddings" in path.read_text()]
    assert SOURCES and not found, found


def test_embedding_layer_builds_no_component_graphs():
    # connectivity is counted off graph.component_roots, never split into
    # graphs, and a given embedding is checked by comparing graphs
    embedding = SOURCES[0].parent / "embedding.py"
    assert _callers(embedding, "components") == []
    assert "components" not in _imported(embedding)


def test_oracle_imports_no_networkx():
    # the oracle's planarizations are Graphs, tested by embedding.is_planar
    imported = _imported(SOURCES[0].parent / "oracle.py")
    assert not any(name.split(".")[0] in ("networkx", "nx") for name in imported), imported


def test_no_rotation_is_read_from_networkx():
    # every rotation system comes from the LR kernel, none from networkx
    found = [path.name for path in SOURCES if "get_data(" in path.read_text()]
    assert SOURCES and not found, found


def test_only_embedding_reaches_the_lr_kernel():
    # the kernel is private to the planarity layer
    found = [
        path.name
        for path in SOURCES
        if path.name not in ("_lr.py", "embedding.py")
        and (_imported(path) & {"_lr", "lr_test", "lr_rotation"}
             or "lr_test" in path.read_text() or "lr_rotation" in path.read_text())
    ]
    assert "_lr.py" in {path.name for path in SOURCES} and not found, found
    assert {"_lr", "lr_test", "lr_rotation"} <= _imported(SOURCES[0].parent / "embedding.py")


def test_cycle_witness_has_one_constructor():
    found = {path.name: path.read_text().count("CycleWitness(") for path in SOURCES}
    assert {name: k for name, k in found.items() if k} == {"lightcycle.py": 1}, found
    assert _callers(SOURCES[0].parent / "lightcycle.py", "CycleWitness") == ["_witness"]


def test_build_drawing_builds_the_one_embedding_in_router():
    # every route is spliced into one working rotation system, and the
    # drawing's RotationEmbedding is built from it once, at the end
    router = SOURCES[0].parent / "router.py"
    assert router.read_text().count("RotationEmbedding(") == 1
    assert _callers(router, "RotationEmbedding") == ["build_drawing"]


def _roots_at(node, name: str) -> bool:
    """Whether node is the container ``name`` (a variable or an attribute),
    or an item of it, at any depth."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return name in (getattr(node, "id", None), getattr(node, "attr", None))


def test_splice_is_the_one_writer_of_the_working_rotation():
    # a drawing's rotation system changes only by splicing a route into
    # it: no other function assigns into `rot`, deletes from it, or calls
    # a mutating method on it or on one of its lists
    mutators = {"insert", "append", "extend", "remove", "pop", "clear", "sort", "reverse",
                "update", "setdefault", "popitem", "__setitem__", "__delitem__"}
    writers = set()
    for fn in ast.walk(ast.parse((SOURCES[0].parent / "router.py").read_text())):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            targets = (node.targets if isinstance(node, (ast.Assign, ast.Delete))
                       else [node.target] if isinstance(node, ast.AugAssign) else [])
            if any(isinstance(t, ast.Subscript) and _roots_at(t, "rot") for t in targets) or (
                    isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in mutators and _roots_at(node.func.value, "rot")):
                writers.add(fn.name)
    assert writers == {"_splice"}, writers


def _functions(path: Path):
    """(name, node) of every top-level function and method of a source
    file, a method named Class.method."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    yield f"{node.name}.{fn.name}", fn


def _writes_into(fn, attrs, names) -> bool:
    """Whether fn assigns into, deletes from or calls a mutating method on
    a container that is an attribute named in ``attrs`` or a variable
    named in ``names``, or on an item of one."""
    mutators = {"insert", "append", "extend", "remove", "pop", "clear", "sort", "reverse",
                "update", "setdefault", "popitem", "__setitem__", "__delitem__"}

    def rooted(node):
        while isinstance(node, ast.Subscript):
            node = node.value
        return getattr(node, "attr", None) in attrs or getattr(node, "id", None) in names

    for node in ast.walk(fn):
        targets = (node.targets if isinstance(node, (ast.Assign, ast.Delete))
                   else [node.target] if isinstance(node, ast.AugAssign) else [])
        if any(isinstance(t, ast.Subscript) and rooted(t) for t in targets) or (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in mutators and rooted(node.func.value)):
            return True
    return False


def _aliases(fn, attrs):
    """The variables fn binds to an attribute named in ``attrs``, by a
    plain or a tuple assignment."""
    found = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = (zip(target.elts, node.value.elts)
                     if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                     else [(target, node.value)])
            found.update(t.id for t, v in pairs if isinstance(t, ast.Name)
                         and isinstance(v, ast.Attribute) and v.attr in attrs)
    return found


def test_retrace_is_the_one_writer_of_a_working_rotations_faces():
    # a working rotation's faces change only by re-tracing: no other
    # function writes its face_of or walks, directly or through a
    # variable bound to them, and router.py writes into neither at all
    faces = {"face_of", "walks"}
    writers = [
        f"{path.name}:{name}"
        for path in SOURCES
        for name, fn in _functions(path)
        if _writes_into(fn, faces, _aliases(fn, faces))
    ]
    assert writers == ["embedding.py:Working.retrace"], writers
    router = SOURCES[0].parent / "router.py"
    found = [name for name, fn in _functions(router) if _writes_into(fn, faces, faces)]
    assert found == [], found


def test_graph6_writer_is_not_networkx():
    # networkx's writer walks all n(n-1)/2 vertex pairs in Python
    found = [path.name for path in SOURCES if "to_graph6_bytes" in path.read_text()]
    assert SOURCES and not found, found


def test_graph6_reader_is_not_networkx():
    # so does networkx's reader; parse_graph reads the set bits directly
    found = [path.name for path in SOURCES if "from_graph6_bytes" in path.read_text()]
    assert SOURCES and not found, found


def test_light_cycle_runs_no_planarity_test_of_its_own():
    # each induction level is a minor of g - e0, whose embedding it is
    # given or builds: lightcycle embeds only through embedding_of, and
    # only at its two entry points
    lightcycle = SOURCES[0].parent / "lightcycle.py"
    imported = _imported(lightcycle)
    tests = {"is_planar", "embed_components", "planar_nx", "witness_nx"}
    assert not imported & tests, imported & tests
    assert _callers(lightcycle, "embedding_of") == ["light_cycle_general", "light_cycle_planar"]


def test_combo_witness_is_called_only_in_the_oracle():
    # every configuration is certified by the oracle itself
    found = {path.name: path.read_text().count("_combo_witness(") for path in SOURCES}
    assert found["oracle.py"] and not {n: k for n, k in found.items() if k and n != "oracle.py"}
    assert _callers(SOURCES[0].parent / "oracle.py", "_combo_witness") == ["_level_witness"]


def test_bounds_builds_no_planarization():
    # bounds asks the oracle; it neither planarizes nor routes
    bounds = SOURCES[0].parent / "bounds.py"
    for name in ("planar_nx", "planarize_config", "insert_edge"):
        assert _callers(bounds, name) == [], name
    imported = _imported(bounds)
    assert not any("router" in name for name in imported), imported
    # and asks it only for decisions and crossing numbers
    from_oracle = {
        alias.name
        for node in ast.walk(ast.parse(bounds.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "oracle"
        for alias in node.names
    }
    assert from_oracle == {
        "cr_at_most", "crossing_witnesses", "DEFAULT_MAX_K", "DEFAULT_MAX_EDGES"}, from_oracle


def test_oracle_has_one_search_shape():
    # every cr question is searched component by component, under one
    # budget rule: _fewest_crossings alone splits g and walks the levels,
    # and bounds leaves every budget error to the oracle
    oracle = SOURCES[0].parent / "oracle.py"
    for name in ("components", "_level_witness"):
        assert _callers(oracle, name) == ["_fewest_crossings"], name
    assert _callers(oracle, "_fewest_crossings") == ["cr_at_most", "crossing_witnesses"]
    assert "BudgetExceededError" not in (SOURCES[0].parent / "bounds.py").read_text()


def test_skewness_certificates_are_checked_in_one_module():
    # every skewness certificate with a removal set is Euler-checked by
    # skewness._certified, and only skewness.py calls it
    found = {path.name: path.read_text().count("_certified(") for path in SOURCES}
    assert found["skewness.py"] and not {n: k for n, k in found.items() if k and n != "skewness.py"}
    callers = _callers(SOURCES[0].parent / "skewness.py", "_certified")
    assert callers == ["certificate_at_lower_bound", "planar_subgraph_heuristic",
                       "skewness_exact"], callers


def test_skewness_witnesses_are_built_only_in_the_search():
    # a depth-1 node extracts its witness from the Euler core, deeper nodes
    # from their own graph: both live in _search and nowhere else
    skewness = SOURCES[0].parent / "skewness.py"
    for name in ("witness_nx", "_euler_core"):
        assert _callers(skewness, name) == ["_search"], name


def test_automorphisms_have_one_format():
    # symmetries are vertex maps, as graph.automorphisms returns them: the
    # edge orbits of critical and the oracle's level walk map through them,
    # and no module re-encodes them as permutations of pair indices
    callers = {path.name: _callers(path, "automorphisms") for path in SOURCES}
    assert {name: found for name, found in callers.items() if found} == {
        "bounds.py": ["is_k_crossing_critical"], "oracle.py": ["_level_witness"]}, callers
    tables = [
        f"{path.name}:{node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and "permutation" in node.name
    ]
    assert SOURCES and not tables, tables


def test_automorphisms_have_one_search():
    # every generating set, with pairs fixed or not, comes from the one
    # backtracking search, graph.automorphisms itself: no helper behind it
    # and no second search elsewhere
    defined = [
        f"{path.name}:{node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and "automorphism" in node.name
    ]
    assert defined == ["graph.py:automorphisms"], defined
    graph = SOURCES[0].parent / "graph.py"
    assert _callers(graph, "automorphisms") == [], _callers(graph, "automorphisms")


def test_graph_keeps_no_symmetry_state():
    # a Graph holds its adjacency and two values read off it, the edge
    # tuple and the hash; symmetries are searched when asked for
    tree = ast.parse((SOURCES[0].parent / "graph.py").read_text())
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Graph")
    slots = next(
        ast.literal_eval(node.value)
        for node in cls.body
        if isinstance(node, ast.Assign) and any(t.id == "__slots__" for t in node.targets)
    )
    assert slots == ("_adj", "_hash", "_edges"), slots


def test_component_roots_is_the_one_union_find():
    # every union-find (components, contraction, girth, edge orbits) goes
    # through graph.component_roots: no other function nests a find
    finds = [
        f"{path.name}:{outer.name}"
        for path in SOURCES
        for outer in ast.walk(ast.parse(path.read_text()))
        if isinstance(outer, ast.FunctionDef)
        for inner in ast.walk(outer)
        if inner is not outer and isinstance(inner, ast.FunctionDef) and inner.name == "find"
    ]
    assert finds == ["graph.py:component_roots"], finds
