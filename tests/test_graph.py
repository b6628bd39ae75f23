import itertools
import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from crossbound import graph
from crossbound.errors import DuplicateEdgeError, GraphFormatError, MissingEdgeError
from crossbound.generators import complete, complete_bipartite, named
from crossbound.graph import (
    MAX_GRAPH_SIZE,
    Graph,
    automorphisms,
    components,
    contract_edges,
    delete_edge,
    delete_edges,
    girth,
    min_degree,
    parse_graph,
    serialize_graph,
)
from crossbound.lightcycle import light_cycle_general
from crossbound.router import build_drawing
from crossbound.skewness import SkewnessCertificate


def test_parse_graph6_k5():
    # "D~{" encodes K5: n=5 ('D'=68-63), then the 10 upper-triangle bits all
    # set: 111111 1111(00) -> 63+63=126,123+... = b"~{"
    g = parse_graph(b"D~{", "graph6")
    assert g.n == 5 and g.m == 10
    assert all(g.degree(v) == 4 for v in g.vertices)


def test_parse_edgelist_triangle():
    g = parse_graph(b"0 1\n1 2\n2 0\n", "edgelist")
    assert g.edges() == ((0, 1), (0, 2), (1, 2))


def test_edgelist_comments_and_blank_lines():
    g = parse_graph(b"# a triangle\n0 1\n\n1 2 # last\n2 0\n", "edgelist")
    assert g.m == 3


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdgeError):
        parse_graph(b"0 1\n0 1\n", "edgelist")
    with pytest.raises(DuplicateEdgeError):
        parse_graph(b"0 1\n1 0\n", "edgelist")


@pytest.mark.parametrize(
    "bad",
    [b"0\n", b"0 1 2\n", b"a b\n", b"-1 2\n", b"0 0\n", b"0 1\n1 \xff2\n", "0 1\n1 \xff2\n"],
)
def test_edgelist_malformed(bad):
    with pytest.raises(GraphFormatError):
        parse_graph(bad, "edgelist")


def test_graph6_malformed():
    # wrong body length, bytes outside 63..126, empty or truncated input
    for bad in (b"\x01\x02", b"", b"D~", b"D~{?", b"D~\x7f", b"D>{", b">?", b"~"):
        with pytest.raises(GraphFormatError):
            parse_graph(bad, "graph6")


def test_graph6_padding_bits_are_ignored():
    # like networkx: bits past the upper triangle carry no edge
    assert parse_graph(b"A~", "graph6") == Graph.from_networkx(nx.from_graph6_bytes(b"A~"))
    assert parse_graph(b"A~", "graph6").edges() == ((0, 1),)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 62, 63, 64, 65, 100, 200, 300])
def test_graph6_encoder_matches_networkx_writer(n):
    # 62/63 is where the size field grows from one unit to four
    rng = random.Random(n)
    for density in (0.0, 0.02, 0.3, 1.0):
        g = Graph(range(n), [(u, v) for v in range(n) for u in range(v) if rng.random() < density])
        data = serialize_graph(g, "graph6")
        assert data == nx.to_graph6_bytes(g.to_networkx(), header=False).strip() + b"\n"
        if g.m <= MAX_GRAPH_SIZE:
            assert parse_graph(data, "graph6") == g == Graph.from_networkx(nx.from_graph6_bytes(data))
        else:
            with pytest.raises(GraphFormatError, match="limit"):
                parse_graph(data, "graph6")


def test_input_size_limit_applies_before_any_graph_is_built():
    assert MAX_GRAPH_SIZE == 2000
    assert parse_graph(b"0 1999\n", "edgelist").n == 2000
    with pytest.raises(GraphFormatError, match="limit"):
        parse_graph(b"0 2000\n", "edgelist")
    k64 = "".join(f"{u} {v}\n" for v in range(64) for u in range(v)).encode()
    with pytest.raises(GraphFormatError, match="64 vertices, 2016 edges"):
        parse_graph(k64, "edgelist")
    g6 = serialize_graph(Graph(range(2001)), "graph6")
    with pytest.raises(GraphFormatError, match="2001 vertices"):
        parse_graph(g6, "graph6")
    assert parse_graph(serialize_graph(Graph(range(2000)), "graph6"), "graph6").n == 2000


def test_delete_edge(k5, c4):
    g = delete_edge(k5, (0, 1))
    assert g.n == 5 and g.m == 9
    path = delete_edge(Graph(range(3), [(0, 1), (1, 2), (0, 2)]), (0, 2))
    assert path.edges() == ((0, 1), (1, 2))
    with pytest.raises(MissingEdgeError):
        delete_edge(c4, (0, 2))


@pytest.mark.parametrize("call", [
    lambda g, e: delete_edge(g, e),
    lambda g, e: delete_edges(g, [(0, 1), e]),
    lambda g, e: contract_edges(g, [e]),
    lambda g, e: build_drawing(g, SkewnessCertificate(1, frozenset({e}), exact=False)),
    lambda g, e: light_cycle_general(g, [e]),
], ids=["delete_edge", "delete_edges", "contract_edges", "build_drawing", "light_cycle_general"])
def test_a_non_edge_raises_missing_edge_error(c4, call):
    # delete_edges is the one check that a removal set names edges; the
    # error comes before any other, such as light_cycle_general's degree
    # check, and names the edge as (low, high)
    with pytest.raises(MissingEdgeError, match=r"^\(0, 2\) is not an edge$"):
        call(c4, (2, 0))


def test_deleting_no_edges_shares_the_graph(c4):
    # a Graph is immutable, so an empty removal need not copy it; a
    # non-edge is still checked first
    assert delete_edges(c4, []) is c4
    with pytest.raises(MissingEdgeError):
        delete_edges(c4, [(0, 2)])


def test_contract_c4_gives_c3(c4):
    h, mapping = contract_edges(c4, [(0, 1)])
    assert h.n == 3 and h.m == 3
    assert mapping[1] == 0 and mapping[0] == 0


def test_contract_triangle_merges_parallel():
    tri = Graph(range(3), [(0, 1), (1, 2), (0, 2)])
    h, mapping = contract_edges(tri, [(0, 1)])
    assert h.edges() == ((0, 2),)


def test_contract_two_pendant_edges():
    # a 4-cycle v1-u1-..-u2-v2 with chords, contracting the two edges
    # hanging the degree-3 vertices v1, v2 off the core
    g = Graph(range(6), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4), (2, 5), (3, 5)])
    h, mapping = contract_edges(g, [(0, 4), (2, 5)])
    assert mapping[4] == 0 and mapping[5] == 2
    assert h.n == 4
    assert h.edges() == ((0, 1), (0, 3), (1, 2), (2, 3))


def test_contract_matches_networkx_on_random_graphs():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(3, 8)
        gn = nx.gnp_random_graph(n, 0.5, seed=rng.randint(0, 10**6))
        if gn.number_of_edges() == 0:
            continue
        g = Graph.from_networkx(gn)
        e = sorted(g.edges())[rng.randrange(g.m)]
        ours, _ = contract_edges(g, [e])
        theirs = nx.contracted_nodes(gn, e[0], e[1], self_loops=False)
        assert nx.is_isomorphic(ours.to_networkx(), theirs)


def test_components_are_only_those_with_an_edge(k5):
    # an isolated vertex changes no cr or skewness, so it is never built:
    # K5 on the top five ids of a 2000-vertex edge list is one graph
    text = "".join(f"{u} {v}\n" for u in range(1995, 2000) for v in range(u + 1, 2000))
    assert components(parse_graph(text.encode(), "edgelist")) == [
        Graph(range(1995, 2000), [(u + 1995, v + 1995) for u, v in k5.edges()])]
    assert components(Graph(range(5))) == [] and components(Graph()) == []
    assert components(k5) == [k5] and components(k5)[0] is k5
    # in order of least vertex, each built from its edges alone
    g = Graph(range(10), [(0, 9), (1, 2), (3, 4), (2, 5)])
    assert components(g) == [Graph((), [(0, 9)]), Graph((), [(1, 2), (2, 5)]), Graph((), [(3, 4)])]


def test_min_degree(k5, k33):
    assert min_degree(k5) == 4
    assert min_degree(k33) == 3
    star = Graph(range(5), [(0, i) for i in range(1, 5)])
    assert min_degree(star) == 1
    with pytest.raises(GraphFormatError):
        min_degree(Graph())


def test_delete_preserves_vertices(k6):
    for e in k6.edges():
        g = delete_edge(k6, e)
        assert g.vertices == k6.vertices
        assert g.m == k6.m - 1


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)) if pairs else st.just(set()))
    return Graph(range(n), edges)


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_roundtrip_both_formats(g):
    assert parse_graph(serialize_graph(g, "graph6"), "graph6") == g
    if g.m:  # the edge-list format cannot carry isolated vertices
        h = parse_graph(serialize_graph(g, "edgelist"), "edgelist")
        assert h.edges() == g.edges()


def test_edges_come_in_lexicographic_order():
    rng = random.Random(17)
    for _ in range(50):
        ids = rng.sample(range(1000), rng.randint(2, 30))  # ids with gaps
        pairs = [rng.sample(ids, 2) for _ in range(rng.randint(0, 60))]
        g = Graph(ids, pairs)
        assert g.edges() == tuple(sorted({(min(p), max(p)) for p in pairs}))


def test_graph_equality_and_immutability():
    a = Graph(range(3), [(0, 1)])
    b = Graph(range(3), [(0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != Graph(range(3), [(0, 2)])


def test_girth_matches_networkx():
    rng = random.Random(61)
    graphs = [Graph(), Graph([0]), Graph(range(4), [(0, 1), (2, 3)]), named("petersen"),
              complete_bipartite(3, 4), named("cube")]
    for _ in range(120):
        n = rng.randint(1, 12)
        # sparse, so many are disconnected forests and have isolated vertices
        h = nx.gnm_random_graph(n, rng.randint(0, 2 * n), seed=rng.randrange(10**9))
        graphs.append(Graph.from_networkx(h))
    for h in (nx.disjoint_union(nx.cycle_graph(6), nx.cycle_graph(5)),
              nx.disjoint_union(nx.cycle_graph(4), nx.star_graph(5)),
              nx.disjoint_union(nx.cycle_graph(9), nx.petersen_graph())):
        graphs.append(Graph.from_networkx(h))
    for _ in range(40):
        # random subdivisions: long cycles through vertices of degree 2
        h = nx.gnm_random_graph(6, rng.randint(5, 12), seed=rng.randrange(10**9))
        for u, v in list(h.edges()):
            if rng.random() < 0.7:
                h.remove_edge(u, v)
                nx.add_path(h, [u, *(h.number_of_nodes() + i for i in range(rng.randint(1, 4))), v])
        graphs.append(Graph.from_networkx(h))
    assert {3, 4, 5, math.inf} <= {girth(g) for g in graphs}
    for g in graphs:
        expected = nx.girth(g.to_networkx())
        assert girth(g) == expected, g.edges()
        for enough in (4, 6, 9):
            # stops at some cycle of length <= enough, if there is one
            found = girth(g, enough)
            assert found == expected or expected <= found <= enough, (g.edges(), enough)


def _matcher_automorphisms(g: Graph):
    """Automorphisms from networkx that fix every isolated vertex, restricted
    to the vertices that have an edge."""
    h = g.to_networkx()
    isolated = {v for v in g.vertices if not g.degree(v)}
    return {
        tuple(sorted((v, w) for v, w in m.items() if v not in isolated))
        for m in GraphMatcher(h, h).isomorphisms_iter()
        if all(m[v] == v for v in isolated)
    }


def _closure(maps):
    """The group the maps generate, as sorted item tuples: every product of
    them, starting from the first (the identity)."""
    group, products = {tuple(sorted(maps[0].items()))}, [maps[0]]
    for a in products:  # grows while it is read
        for s in maps:
            c = {v: s[w] for v, w in a.items()}
            key = tuple(sorted(c.items()))
            if key not in group:
                group.add(key)
                products.append(c)
    return group


def test_automorphisms_match_graph_matcher():
    graphs = [
        complete(4), complete(5), complete_bipartite(3, 3), complete_bipartite(3, 4),
        named("petersen"), named("cube"), Graph(range(6), [(i, (i + 1) % 6) for i in range(6)]),
        Graph(range(5), [(0, 1), (1, 2), (2, 3), (3, 4)]), complete_bipartite(1, 4),
        # disconnected: components of one shape are swapped, of two shapes not
        Graph.from_networkx(nx.disjoint_union(nx.complete_graph(3), nx.complete_graph(3))),
        Graph.from_networkx(nx.disjoint_union(nx.complete_graph(4), nx.complete_bipartite_graph(3, 3))),
        Graph(range(6), [(1, 2), (2, 4), (1, 4)]), Graph(range(3)), Graph(),
    ]
    rng = random.Random(62)
    for _ in range(40):
        n = rng.randint(4, 8)
        h = nx.gnm_random_graph(n, rng.randint(n - 2, 2 * n), seed=rng.randrange(10**9))
        graphs.append(Graph.from_networkx(h))
    for g in graphs:
        found = automorphisms(g)
        assert found[0] == {v: v for v in g.vertices if g.degree(v)}  # the identity first
        listed = [tuple(sorted(s.items())) for s in found]
        matcher = _matcher_automorphisms(g)
        assert len(set(listed)) == len(listed) and set(listed) <= matcher
        assert _closure(found) == matcher, g.edges()


@pytest.mark.parametrize("make, maps", [
    (lambda: complete(5), 11), (lambda: complete_bipartite(3, 4), 10), (lambda: complete(6), 16),
    (lambda: named("petersen"), 14), (lambda: complete_bipartite(3, 5), 14),
    (lambda: complete_bipartite(4, 4), 17), (lambda: complete_bipartite(3, 6), 19),
    (lambda: Graph.from_networkx(nx.disjoint_union(nx.complete_graph(5), nx.complete_graph(5))), 26),
], ids=["K5", "K3,4", "K6", "petersen", "K3,5", "K4,4", "K3,6", "2K5"])
def test_automorphisms_keep_one_map_per_coset(make, maps):
    # the identity, then one map per coset of the stabilizer chain along the
    # search order: K6 has 720 automorphisms and 1 + 5 + 4 + 3 + 2 + 1 maps
    g = make()
    assert len(automorphisms(g)) == maps
    assert maps <= 1 + g.n * (g.n - 1) // 2


def test_automorphisms_stop_at_the_cap(monkeypatch):
    monkeypatch.setattr(graph, "MAX_AUTOMORPHISMS", 20)
    g = complete_bipartite(2, 10)  # 2 * 10! automorphisms, generated by 47 maps
    found = automorphisms(g)
    assert len(found) == graph.MAX_AUTOMORPHISMS
    assert len({tuple(sorted(s.items())) for s in found}) == graph.MAX_AUTOMORPHISMS
    edges = set(g.edges())
    for s in found:
        assert {tuple(sorted((s[u], s[v]))) for u, v in edges} == edges


def _fixes(s, pairs) -> bool:
    return all({tuple(sorted((s[u], s[v]))) for u, v in pair} == set(pair) for pair in pairs)


def test_automorphisms_fixing_pairs_match_the_filtered_list():
    # the maps that fix pairs generate exactly the matcher's automorphisms
    # that send every pair onto itself
    graphs = [
        complete(5), complete(6), complete_bipartite(3, 3), complete_bipartite(3, 4),
        complete_bipartite(4, 4), named("petersen"), named("cube"),
    ]
    rng = random.Random(64)
    for _ in range(30):
        n = rng.randint(5, 8)
        h = nx.gnm_random_graph(n, rng.randint(n, 2 * n), seed=rng.randrange(10**9))
        graphs.append(Graph.from_networkx(h))
    prefixes = 0
    for g in graphs:
        identity = {v: v for v in g.vertices if g.degree(v)}
        matcher = _matcher_automorphisms(g)
        pool = [(e, f) for e, f in itertools.combinations(g.edges(), 2) if not set(e) & set(f)]
        chosen = [[p] for p in pool[:20]] + [
            sorted(rng.sample(pool, rng.randint(2, 3))) for _ in range(20) if len(pool) >= 3]
        for pairs in chosen:
            found = automorphisms(g, pairs)
            listed = [tuple(sorted(s.items())) for s in found]
            assert found[0] == identity  # the identity first
            assert len(set(listed)) == len(listed) and set(listed) <= matcher
            assert all(_fixes(s, pairs) for s in found), (g.edges(), pairs)
            expected = {s for s in matcher if _fixes(dict(s), pairs)}
            assert _closure(found) == expected, (g.edges(), pairs)
            prefixes += 1
    assert prefixes > 500


def test_automorphisms_fixing_a_pair_stop_at_the_cap(monkeypatch):
    monkeypatch.setattr(graph, "MAX_AUTOMORPHISMS", 20)
    g = complete_bipartite(2, 10)  # 2 * 8! maps fix the pair below, generated by 30
    pair = ((0, 2), (1, 3))
    found = automorphisms(g, [pair])
    assert len({tuple(sorted(s.items())) for s in found}) == len(found) == graph.MAX_AUTOMORPHISMS
    edges = set(g.edges())
    for s in found:
        assert {tuple(sorted((s[u], s[v]))) for u, v in edges} == edges
        assert _fixes(s, [pair])
