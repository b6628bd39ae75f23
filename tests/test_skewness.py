import itertools
import random
import time

import networkx as nx
import pytest

from crossbound import skewness
from crossbound.embedding import is_planar
from crossbound.errors import CrossboundError
from crossbound.generators import (complete, complete_bipartite, planar_plus,
                                   random_maximal_planar)
from crossbound.graph import MAX_GRAPH_SIZE, Graph, delete_edges, norm_edge
from crossbound.skewness import (
    planar_subgraph_heuristic,
    skewness_exact,
    skewness_lower_bound,
)


def brute_force_skewness(g: Graph) -> int:
    """Try every removal set by increasing size; exponential, tests only."""
    edges = g.edges()
    for size in range(len(edges) + 1):
        for combo in itertools.combinations(edges, size):
            if is_planar(delete_edges(g, combo)):
                return size
    raise AssertionError("unreachable")


def test_lower_bound_examples(k4, k5, k6, k33, petersen):
    assert skewness_lower_bound(k4) == 0
    assert skewness_lower_bound(k5) == 1
    assert skewness_lower_bound(k6) == 3
    assert skewness_lower_bound(k33) == 1  # girth 4: 9 - 8
    assert skewness_lower_bound(petersen) == 2  # girth 5: 15 - floor(5 * 8 / 3)
    assert skewness_lower_bound(complete_bipartite(4, 4)) == 4  # 16 - 12


def test_exact_small_complete_graphs(k4, k5, k6):
    assert skewness_exact(k4).value == 0
    assert skewness_exact(k5).value == 1
    assert skewness_exact(k6).value == 3
    assert skewness_exact(complete(7)).value == 6


def test_exact_bipartite(k33):
    assert skewness_exact(k33).value == 1
    assert skewness_exact(complete_bipartite(3, 4)).value == 2
    assert skewness_exact(complete_bipartite(4, 4)).value == 4


def test_exact_petersen(petersen):
    cert = skewness_exact(petersen)
    assert cert.value == 2
    assert cert.exact and cert.verify(petersen)


def test_certificates_verify_and_match_brute_force():
    rng = random.Random(41)
    for _ in range(25):
        g, _ = planar_plus(rng.randint(7, 9), rng.randint(0, 3), rng)
        cert = skewness_exact(g)
        assert cert.exact
        assert cert.verify(g)
        assert cert.value == brute_force_skewness(g)


def test_planar_plus_value_at_most_t():
    rng = random.Random(42)
    for _ in range(15):
        t = rng.randint(0, 3)
        g, extra = planar_plus(rng.randint(7, 14), t, rng)
        cert = skewness_exact(g)
        assert cert.value <= len(extra)
        assert skewness_lower_bound(g) <= cert.value


def test_heuristic_upper_bounds_exact():
    rng = random.Random(43)
    for _ in range(25):
        g, _ = planar_plus(rng.randint(7, 10), rng.randint(0, 3), rng)
        heur = planar_subgraph_heuristic(g)
        assert heur.verify(g)
        assert heur.value >= skewness_exact(g).value


def test_budget_exhaustion_falls_back_to_heuristic():
    # the counting lower bound for two disjoint K5s is 20 - 24 < 0, so a
    # budget of 1 is legal but too small: the heuristic certificate comes
    # back untagged
    two_k5 = Graph.from_networkx(nx.disjoint_union(nx.complete_graph(5), nx.complete_graph(5)))
    assert skewness_lower_bound(two_k5) == 0
    cert = skewness_exact(two_k5, budget=1)
    assert not cert.exact
    assert cert.verify(two_k5)
    assert cert.value >= 2


def test_certificate_does_not_depend_on_failed_sizes(monkeypatch):
    # the search edits its graph in place; each size starts from a fresh
    # copy, so searching sizes 1 and 2 first does not move the size-3 set
    edges = [(int(a), int(b)) for a, b in
             "02 04 05 06 12 14 15 18 23 27 34 35 38 47 57 67 68".split()]
    cert = skewness_exact(Graph(range(9), edges))
    assert cert.value == 3 and cert.exact
    assert cert.removed == {(1, 4), (2, 7), (6, 8)}
    monkeypatch.setattr(skewness, "skewness_lower_bound", lambda g: 1)
    assert skewness_exact(Graph(range(9), edges)).removed == cert.removed


def _triangle_free(n: int, m: int, rng: random.Random) -> Graph:
    """Up to m random edges on n vertices, each kept only if it closes no
    triangle."""
    h = nx.empty_graph(n)
    for u, v in rng.sample(list(itertools.combinations(range(n), 2)), n * (n - 1) // 2):
        if h.number_of_edges() < m and not set(h[u]) & set(h[v]):
            h.add_edge(u, v)
    return Graph.from_networkx(h)


def test_girth_bound_is_sound_on_triangle_free_graphs():
    # the bound with girth >= 4 is m - (2n - 4), bipartite or not; with
    # girth 5, as on the Petersen graph, it is higher still
    rng = random.Random(44)
    raised = 0
    for _ in range(40):
        n = rng.randint(6, 9)
        g = _triangle_free(n, rng.randint(2 * n - 4, 2 * n + 2), rng)
        bipartite = nx.is_bipartite(g.to_networkx())
        old = max(0, g.m - (2 * n - 4 if bipartite else 3 * n - 6))
        assert old <= skewness_lower_bound(g) <= brute_force_skewness(g) == skewness_exact(g).value
        raised += skewness_lower_bound(g) > old
    assert raised > 0


def _subdivided(base, length: int) -> Graph:
    """``base``'s edges, on ids 0.., each replaced by a path of ``length``
    edges."""
    edges, fresh = [], max(map(max, base)) + 1
    for u, v in base:
        path = [u, *range(fresh, fresh + length - 1), v]
        fresh += length - 1
        edges += zip(path, path[1:])
    return Graph(range(fresh), edges)


@pytest.mark.parametrize("name", ["C2000", "K3,3 subdivided", "K5 subdivided"])
def test_lower_bound_is_fast_on_long_cycles(name):
    # a breadth-first search from every vertex takes seconds on each. The
    # cycle is read off its component, with no search (m = n, so any cycle
    # makes the bound 0); the subdivisions search from their branch vertices
    ring = range(MAX_GRAPH_SIZE)
    g, bound = {
        "C2000": (Graph(ring, [(i, (i + 1) % len(ring)) for i in ring]), 0),
        # girth 888 > 2m / (m - n + 2) = 799.2: the girth is needed exactly
        "K3,3 subdivided": (_subdivided(complete_bipartite(3, 3).edges(), 222), 1),
        "K5 subdivided": (_subdivided(complete(5).edges(), 200), 1),
    }[name]
    assert max(g.n, g.m) <= MAX_GRAPH_SIZE and g.n > 1990
    start = time.perf_counter()
    assert skewness_lower_bound(g) == bound
    assert time.perf_counter() - start < 1.0


def test_budget_below_lower_bound_rejected(k6, petersen):
    with pytest.raises(CrossboundError):
        skewness_exact(k6, budget=2)
    with pytest.raises(CrossboundError):
        skewness_exact(petersen, budget=1)  # girth 5: the bound is 2


def test_disconnected_graph():
    two_k5 = Graph.from_networkx(
        nx.disjoint_union(nx.complete_graph(5), nx.complete_graph(5))
    )
    cert = skewness_exact(two_k5)
    assert cert.value == 2 and cert.verify(two_k5)


def test_heuristic_zero_on_planar(k4, c4):
    for g in (k4, c4):
        cert = planar_subgraph_heuristic(g)
        assert cert.value == 0 and cert.exact


def test_failed_verification_raises(monkeypatch, k5):
    # an explicit check, not an assert that python -O would strip: the
    # embedding of g - removed that every certificate is built with
    monkeypatch.setattr(skewness, "embed_components", lambda g: None)
    with pytest.raises(CrossboundError):
        skewness_exact(k5)
    with pytest.raises(CrossboundError):
        planar_subgraph_heuristic(k5)


def test_only_branching_nodes_build_witnesses(monkeypatch):
    # depth-0 nodes never branch, so they take the yes/no test: a graph of
    # skewness 1 = lower bound needs the root's witness only, a planar one none
    calls = []
    witness_nx = skewness.witness_nx

    def counting_witness(gn):
        calls.append(gn.number_of_edges())
        return witness_nx(gn)

    monkeypatch.setattr(skewness, "witness_nx", counting_witness)
    g, _ = planar_plus(10, 1, random.Random(7))
    assert skewness_lower_bound(g) == 1
    assert skewness_exact(g).value == 1
    assert len(calls) == 1
    calls.clear()
    assert skewness_exact(random_maximal_planar(10, random.Random(7))).value == 0
    assert calls == []


def _depth_one_graphs():
    """60 seeded graphs on 6-10 vertices, half with m > 3n - 6 and half
    without: maximal planar plus 0-3 edges, and random ones with
    2n <= m <= 3n - 3. Each comes with a random set of banned edges."""
    rng = random.Random(45)
    for i in range(60):
        n = rng.randint(6, 10)
        if i % 2:
            gn = planar_plus(n, rng.randint(0, 3), rng)[0].to_networkx()
        else:
            gn = nx.gnm_random_graph(n, rng.randint(2 * n, 3 * n - 3), seed=rng.randrange(2 ** 31))
        edges = sorted(norm_edge(*e) for e in gn.edges())
        yield gn, frozenset(rng.sample(edges, rng.randint(0, len(edges) // 3)))


def _least_planarizing_edge(gn, banned):
    """[] for a planar gn, else [e] for the least non-banned edge e with
    gn - e planar, else None: the scan of every edge."""
    if nx.check_planarity(gn)[0]:
        return []
    for e in sorted(norm_edge(*e) for e in gn.edges()):
        if e not in banned and nx.check_planarity(nx.restricted_view(gn, [], [e]))[0]:
            return [e]
    return None


def test_depth_one_nodes_match_a_scan_of_every_edge():
    # a depth-1 node branches on a witness of the Euler core, not of gn;
    # its answer is the least non-banned planarizing edge all the same
    kinds = set()
    for gn, banned in _depth_one_graphs():
        expected = _least_planarizing_edge(gn, banned)
        assert skewness._search(gn.copy(), 1, banned) == expected, (sorted(gn.edges()), banned)
        kinds.add(None if expected is None else len(expected))
    assert kinds == {None, 0, 1}


def test_euler_core_is_a_non_planar_subgraph_of_minimum_degree_four():
    peeled = 0
    for gn, _ in _depth_one_graphs():
        n, m = gn.number_of_nodes(), gn.number_of_edges()
        adjacency = [(v, list(nbrs)) for v, nbrs in gn.adjacency()]
        core = skewness._euler_core(gn)
        assert [(v, list(nbrs)) for v, nbrs in gn.adjacency()] == adjacency
        if m <= 3 * n - 6:
            assert core is gn
            continue
        assert core is not gn and set(core) <= set(gn)
        assert all(gn.has_edge(*e) for e in core.edges())
        assert min(d for _, d in core.degree()) >= 4
        assert core.number_of_edges() >= 3 * core.number_of_nodes() - 5
        assert not nx.check_planarity(core)[0]
        peeled += core.number_of_nodes() < n
    assert peeled > 0
