import itertools
import random

import networkx as nx
import pytest

from crossbound.bounds import is_k_crossing_critical
from crossbound.embedding import is_planar, planar_nx
from crossbound.errors import BudgetExceededError, CrossboundError
from crossbound.generators import complete, complete_bipartite, named, planar_plus
from crossbound.graph import Graph, delete_edge
from oracles import flat_level_witness, some_order_planarizes
from crossbound import graph, oracle
from crossbound.oracle import (
    _combo_witness,
    _independent_pairs,
    _level_witness,
    cr_at_most,
    crossing_number,
    crossing_witnesses,
    planarize_config,
)


def test_ground_truths(k4, k5, k6, k33, petersen):
    assert crossing_number(k4) == 0
    assert crossing_number(k5) == 1
    assert crossing_number(k33) == 1
    assert crossing_number(k6) == 3
    assert crossing_number(petersen) == 2
    assert crossing_number(complete_bipartite(3, 4)) == 2
    assert crossing_number(complete_bipartite(2, 5)) == 0  # planar


def test_k44(monkeypatch):
    calls = []
    monkeypatch.setattr(oracle, "is_planar", lambda h: calls.append(h) or is_planar(h))
    assert crossing_number(complete_bipartite(4, 4)) == 4
    # 3795 before the counting rules: each vertex of K4,4 - v (girth 4,
    # 12 edges on 7 vertices) forces 2 crossings, so at level 4 a vertex
    # touches at most 2 pairs
    assert len(calls) == 7


def test_planar_graphs_are_zero():
    rng = random.Random(51)
    for _ in range(10):
        g, _ = planar_plus(rng.randint(4, 8), 0, rng)
        assert crossing_number(g) == 0


def test_cr_at_most_is_monotone_in_k(k6):
    answers = []
    for k in range(5):
        ok, wit = cr_at_most(k6, k, max_k=5)
        answers.append(ok)
        assert ok == (wit is not None)
        if ok:
            assert wit.k <= k
    assert answers == [False, False, False, True, True]


def test_edge_deletion_monotone(k5, k33, petersen):
    # cr can only drop when an edge goes
    for g in (k5, k33, petersen):
        base = crossing_number(g)
        for e in g.edges():
            assert crossing_number(delete_edge(g, e)) <= base


def test_witness_is_sound(k6, petersen):
    for g, expect in ((k6, 3), (petersen, 2)):
        ok, wit = cr_at_most(g, expect)
        assert ok and wit.k == expect
        planarized = planarize_config(g, sorted(wit.pairs), dict(wit.orders))
        assert is_planar(planarized)
        # a crossing adds one vertex and splits two edges into four
        assert planarized.n == g.n + expect
        assert planarized.m == g.m + 2 * expect


def test_witness_pairs_are_independent(k5):
    ok, wit = cr_at_most(k5, 1)
    assert ok
    ((e, f),) = wit.pairs
    assert len({e[0], e[1], f[0], f[1]}) == 4


def test_planarize_config_chains_share_dummies(k5):
    pairs = [(((0, 1)), ((2, 3)))]
    h = planarize_config(k5, pairs, {})
    assert h.n == 6 and h.m == 12
    d = 5  # the single dummy id
    assert h.degree(d) == 4
    assert not h.has_edge(0, 1) and not h.has_edge(2, 3)
    for v in (0, 1, 2, 3):
        assert h.has_edge(v, d)


def test_budget_k(k6):
    # a k above max_k (default 4) is decided when the search within it is
    ok, wit = cr_at_most(k6, 5)
    assert ok and wit.k == 3
    with pytest.raises(BudgetExceededError) as exc:
        cr_at_most(complete_bipartite(3, 5), 5, max_k=3)  # cr(K3,5) = 4
    assert exc.value.established == "cr > 3"
    with pytest.raises(BudgetExceededError) as exc:
        crossing_number(complete_bipartite(3, 5), max_k=2)  # cr(K3,5) = 4
    assert exc.value.established == "cr > 2"


def test_budget_edges(k5):
    with pytest.raises(BudgetExceededError):
        crossing_number(k5, max_edges=9)


def test_disconnected_sum(k5, k33):
    g = Graph.from_networkx(
        nx.disjoint_union(nx.complete_graph(5), nx.complete_bipartite_graph(3, 3))
    )
    assert crossing_number(g) == 2


def test_components_are_searched_apart(monkeypatch):
    # cr(2K3,4) = 4: each K3,4 has its witness at level 2, so cr <= 3 fails
    # once the two sum to 4; searched as one graph this took 636 tests
    calls = []
    monkeypatch.setattr(oracle, "is_planar", lambda h: calls.append(h) or is_planar(h))
    k34 = nx.complete_bipartite_graph(3, 4)
    g = Graph.from_networkx(nx.disjoint_union(k34, k34))
    assert cr_at_most(g, 3, max_edges=24) == (False, None)
    assert len(calls) <= 2


def test_union_witness_is_the_whole_graph_witness():
    # each K3,5 witness crosses two of its edges twice; on interleaved ids
    # the first component's orders do not all sort before the second's, and
    # the joined witness is the one the whole graph's pairs give
    k35 = complete_bipartite(3, 5).edges()
    g = Graph(range(16), [(2 * u + i, 2 * v + i) for i in (0, 1) for u, v in k35])
    ok, wit = cr_at_most(g, 8, max_edges=15)
    assert ok and wit.k == 8
    assert {e[0] % 2 for e, _ in wit.orders} == {0, 1}
    assert _combo_witness(g, sorted(wit.pairs)) == wit


def _disjoint_unions():
    """40 seeded graphs of 2-3 connected components on shuffled ids, at
    most 20 edges in all, each with the flat loop's answer over the whole
    graph's pairs at every level up to its first witness."""
    rng = random.Random(54)
    menu = [lambda: complete(5), lambda: complete_bipartite(3, 3), lambda: complete(2)]
    cases = []
    while len(cases) < 40:
        parts = []
        for _ in range(rng.randint(2, 3)):
            pick = rng.randrange(len(menu) + 1)
            if pick < len(menu):
                parts.append(menu[pick]().to_networkx())
            else:  # a random tree on 3-6 vertices plus up to three chords
                n = rng.randint(3, 6)
                h = nx.random_labeled_tree(n, seed=rng.randrange(10**9))
                chords = list(nx.non_edges(h))
                h.add_edges_from(rng.sample(chords, min(3, len(chords))))
                parts.append(h)
        h = nx.disjoint_union_all(parts)
        if h.number_of_edges() > 20:
            continue
        ids = list(h)
        rng.shuffle(ids)
        g = Graph.from_networkx(nx.relabel_nodes(h, dict(zip(h, ids))))
        pool = _independent_pairs(g)
        expected = [None]
        while expected[-1] is None:
            expected.append(flat_level_witness(g, pool, len(expected) - 1))
        cases.append((g, expected[1:]))
    return cases


def test_components_match_the_whole_graph_flat_loop():
    # the fewest-crossing configuration of a disjoint union pairs no edges
    # of two components, so the per-component search finds the whole
    # graph's first witness, pairs and orders, and None below it
    cases = _disjoint_unions()
    assert sum(len(expected) > 2 for _, expected in cases) >= 5  # cr >= 2
    for g, expected in cases:
        for level, wit in enumerate(expected):
            assert cr_at_most(g, level) == (wit is not None, wit), (g.edges(), level)


def test_isolated_vertices_change_no_answer():
    # cr is a sum over the components with an edge, so the oracle answers
    # the same, pairs and orders included, with isolated vertices or not:
    # 10 seeded connected graphs each of cr 0, 1 and 2 (n 5-8) on shuffled
    # sparse ids, against a copy whose isolated vertices fill the gaps
    rng, per_cr = random.Random(27), [0, 0, 0]
    while sum(per_cr) < 30:
        n = rng.randint(5, 8)
        h = nx.gnm_random_graph(n, rng.randint(17 * n // 10, min(13 * n // 5, 17)),
                                seed=rng.randrange(10**9))
        if not nx.is_connected(h):
            continue
        ids = rng.sample(range(3 * n), n)
        g = Graph((), [(ids[u], ids[v]) for u, v in h.edges()])
        padded = Graph(range(3 * n), g.edges())
        answers = [cr_at_most(g, 0)]
        while not answers[-1][0] and len(answers) < 3:
            answers.append(cr_at_most(g, len(answers)))
        cr = len(answers) - 1
        if not answers[-1][0] or per_cr[cr] == 10:
            continue
        per_cr[cr] += 1
        assert [cr_at_most(padded, level) for level in range(cr + 1)] == answers, g.edges()
        assert crossing_witnesses(padded) == crossing_witnesses(g), g.edges()
        k = max(cr, 1)  # at cr 0, g is not 1-critical either way
        assert is_k_crossing_critical(padded, k) == is_k_crossing_critical(g, k), g.edges()


def test_skewness_never_below_crossing_gap():
    # removing one edge per crossing planarizes, so sk <= cr always
    from crossbound.skewness import skewness_exact

    rng = random.Random(52)
    graphs = [named("petersen"), complete(5), complete(6), complete_bipartite(3, 4)]
    for _ in range(8):
        graphs.append(planar_plus(rng.randint(6, 8), rng.randint(0, 2), rng)[0])
    for g in graphs:
        if g.m > 20:
            continue
        try:
            cr = crossing_number(g)
        except BudgetExceededError:
            continue
        assert skewness_exact(g).value <= cr


def test_reversed_crossing_order_is_a_different_drawing(k6):
    # chains run from the low endpoint, so reversing an order can matter
    pairs = [((2, 5), (3, 4)), ((0, 4), (1, 5)), ((1, 3), (2, 5)), ((1, 3), (2, 4))]
    on_13 = ((2, 4), (2, 5))
    for order, planar in ((((1, 3), (3, 4)), True), (((3, 4), (1, 3)), False)):
        h = planarize_config(k6, pairs, {(2, 5): order, (1, 3): on_13})
        assert is_planar(h) == planar


@pytest.mark.parametrize(
    "g, stride",
    [(complete(5), 1), (complete_bipartite(3, 4), 7)],
    ids=["K5", "K3,4-slice"],
)
def test_combo_witness_matches_all_orders(g, stride):
    # at level 3, keeping only one of each order and its reversal loses
    # witnesses (73 of K5's multi-crossing configurations, 450 of K3,4's);
    # every multi-crossing configuration also meets the order-free test
    combos = list(itertools.combinations(_independent_pairs(g), 3))[::stride]
    for combo in combos:
        assert (_combo_witness(g, combo) is not None) == some_order_planarizes(g, combo), combo


def test_levels_below_the_lower_bound_are_skipped(monkeypatch, k6):
    calls = []

    def counted(h):
        calls.append(h)
        return is_planar(h)

    monkeypatch.setattr(oracle, "is_planar", counted)
    assert cr_at_most(k6, 2) == (False, None)  # skewness_lower_bound(K6) = 3
    with pytest.raises(BudgetExceededError) as exc:
        crossing_number(complete_bipartite(3, 5), max_k=2)  # bound 15 - 12 = 3
    assert exc.value.established == "cr > 2"
    assert calls == []


def _level_cases():
    """Named symmetric graphs and 40 random connected non-planar graphs on
    7-8 vertices, each with the flat loop's answer at every level from 0 up
    to the first level that has a witness."""
    graphs = [complete(5), complete(6), complete_bipartite(3, 3), complete_bipartite(3, 4),
              named("petersen"), named("cube")]
    rng = random.Random(53)
    while len(graphs) < 46:
        n = rng.randint(7, 8)
        h = nx.gnm_random_graph(n, rng.randint(n + 5, n + 8), seed=rng.randrange(10**9))
        if nx.is_connected(h) and not planar_nx(h):
            graphs.append(Graph.from_networkx(h))
    cases = []
    for g in graphs:
        pool = _independent_pairs(g)
        expected = [None]
        while expected[-1] is None:
            expected.append(flat_level_witness(g, pool, len(expected) - 1))
        cases.append((g, expected[1:]))
    return cases


@pytest.fixture(scope="module")
def level_cases():
    return _level_cases()


@pytest.mark.parametrize("cap", [None, 1, 2, 7])
def test_pruned_levels_match_the_flat_loop(monkeypatch, level_cases, cap):
    # the symmetry rule is sound for any list of automorphisms: cut to its
    # first entries, the walk skips less but finds the same configuration;
    # the counting rules skip a configuration only when they prove it fails
    if cap is not None:
        monkeypatch.setattr(graph, "MAX_AUTOMORPHISMS", cap)
    for g, expected in level_cases:
        for level, wit in enumerate(expected):
            assert _level_witness(g, level) == wit, (g.edges(), level)
        assert cap is None or len(graph.automorphisms(g)) <= cap


@pytest.mark.parametrize("cap, tests", [(None, 2), (1, 130)], ids=["all", "identity"])
def test_symmetry_rule_prunes_two_disjoint_k5s(monkeypatch, cap, tests):
    # witness equality cannot see a walk that prunes less: pin the work.
    # Level 1 fails (cr = 2); with the identity alone nothing is mapped
    if cap is not None:
        monkeypatch.setattr(graph, "MAX_AUTOMORPHISMS", cap)
    calls = []
    monkeypatch.setattr(oracle, "is_planar", lambda h: calls.append(h) or is_planar(h))
    g = Graph.from_networkx(nx.disjoint_union(nx.complete_graph(5), nx.complete_graph(5)))
    assert _level_witness(g, 1) is None
    assert len(calls) == tests
    assert cr_at_most(g, 1) == (False, None)  # each K5 on its own: cr 1 + 1


@pytest.mark.parametrize("make, tests", [(lambda: complete(6), 4), (lambda: named("petersen"), 2)],
                         ids=["K6", "petersen"])
def test_level_walk_lists_only_maps_that_fix_its_prefix(monkeypatch, make, tests):
    # K6 has 720 automorphisms and Petersen 120; the walk's first failure
    # is below the top, so it never searches them with no pair fixed, and
    # prunes as much
    listed = []
    search = oracle.automorphisms
    monkeypatch.setattr(oracle, "automorphisms", lambda h, fixing: listed.append(
        len(fixing)) or search(h, fixing))
    calls = []
    monkeypatch.setattr(oracle, "is_planar", lambda h: calls.append(h) or is_planar(h))
    crossing_number(make())
    assert listed and 0 not in listed
    assert len(calls) == tests


def test_symmetries_are_asked_only_after_a_failure(monkeypatch, k5):
    asked = []
    monkeypatch.setattr(oracle, "automorphisms", lambda g: asked.append(g) or [])
    assert crossing_number(complete_bipartite(2, 5)) == 0  # planar: level 0 hits
    assert crossing_number(k5) == 1  # the first level-1 configuration hits
    assert asked == []
    with pytest.raises(BudgetExceededError):
        crossing_number(complete(7))  # over the edge budget
    assert asked == []


@pytest.mark.parametrize("call", [
    lambda: cr_at_most(complete(5), 1, max_k=-1),
    lambda: cr_at_most(complete(5), -1, max_edges=-1),  # before the k < 0 answer
    lambda: crossing_number(Graph(), max_k=-1),  # no component to search
    lambda: crossing_number(complete(5), max_edges=-1),
], ids=["cr_at_most-k", "cr_at_most-edges", "crossing_number-empty", "crossing_number-edges"])
def test_negative_budgets_raise(call):
    with pytest.raises(CrossboundError) as info:
        call()
    assert not isinstance(info.value, BudgetExceededError)
