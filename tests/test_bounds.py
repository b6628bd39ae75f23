import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction

import networkx as nx

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossbound import bounds, oracle
from crossbound.bounds import (
    SqrtExpr,
    certify_critical_bounds,
    critical_cycle_bound,
    critical_degree_bound,
    is_k_crossing_critical,
    skewness_crossing_bound,
    verify_degree_reciprocal_bounds,
)
from crossbound.cli import _rat
from crossbound.errors import BudgetExceededError, CrossboundError, NotCriticalError
from crossbound.generators import complete, complete_bipartite, named
from crossbound.graph import Graph, delete_edge, parse_graph
from crossbound.oracle import cr_at_most, crossing_witnesses
from crossbound.skewness import certificate_at_lower_bound, skewness_exact


def test_skewness_crossing_bound_values():
    assert skewness_crossing_bound(5, 1) == 1  # tight for K5
    assert skewness_crossing_bound(6, 3) == 8
    assert skewness_crossing_bound(10, 2) == Fraction(29, 3)
    assert skewness_crossing_bound(7, 0) == 0
    with pytest.raises(CrossboundError):
        skewness_crossing_bound(0, 1)
    with pytest.raises(CrossboundError):
        skewness_crossing_bound(5, -1)


@settings(max_examples=80, deadline=None)
@given(st.integers(5, 10**6), st.integers(0, 10**3))
def test_skewness_crossing_bound_formula(n, sk):
    assert 6 * skewness_crossing_bound(n, sk) == 3 * sk * sk + (4 * n - 17) * sk


def test_critical_cycle_bound_values():
    assert critical_cycle_bound(1, 3, 5, 1) == 2
    assert critical_cycle_bound(2, 3, 11, 2) == 7
    assert critical_cycle_bound(1, 4, 4, 1) == 3
    assert critical_cycle_bound(3, 5, 6, 3) == 3 + Fraction(5 * 3, 6)
    with pytest.raises(CrossboundError):
        critical_cycle_bound(1, 2, 5, 1)


def test_critical_degree_bound_low_degrees():
    assert critical_degree_bound(1, 3, 10) == Fraction(5)
    assert critical_degree_bound(3, 3, 10) == Fraction(10)
    assert critical_degree_bound(1, 4, 10) == Fraction(10)
    assert critical_degree_bound(5, 4, 10) == Fraction(18)


def test_critical_degree_bound_degree5_exact_square():
    # perfect-square k collapses to a plain rational: 2*4 + 35/6 - 2/(2n)
    v = critical_degree_bound(4, 5, 6)
    assert isinstance(v, Fraction)
    assert v == 8 + Fraction(35, 6) - Fraction(2, 12)


def test_critical_degree_bound_degree5_symbolic():
    v = critical_degree_bound(2, 5, 10)
    assert isinstance(v, SqrtExpr)
    assert abs(float(v) - (4 + 35 / 6 - math.sqrt(2) / 20)) < 1e-12
    # the sqrt correction is tiny, so the value sits between clean rationals
    assert v >= 9 and not v >= 10


def test_degree_bound_rejects_bad_inputs():
    for bad in [(0, 3, 5), (1, 2, 5), (1, 3, 0)]:
        with pytest.raises(CrossboundError):
            critical_degree_bound(*bad)


def test_sqrt_expr_comparisons_are_exact():
    root2 = SqrtExpr(Fraction(0), Fraction(1), 2)
    assert root2 >= 1 and not root2 >= 2
    assert root2 >= Fraction(141421356, 100000000)
    assert not root2 >= Fraction(141421357, 100000000)
    neg = SqrtExpr(Fraction(0), Fraction(-1), 2)
    assert neg >= -2 and not neg >= -1
    assert (root2 < 2) and not (root2 < 1)
    shifted = SqrtExpr(Fraction(5), Fraction(-1, 3), 7)
    assert abs(float(shifted) - (5 - math.sqrt(7) / 3)) < 1e-12
    assert shifted >= 4 and not shifted >= 5


def test_sqrt_expr_comparisons_on_a_grid():
    # squaring is exact in rationals, perfect-square radicands included:
    # there the value is rational + coeff * isqrt(r), elsewhere irrational,
    # so a float reference is safe away from q
    qs = [Fraction(i, 6) for i in range(-42, 43)]
    for r in range(17):
        root = math.isqrt(r)
        for rational in (Fraction(0), Fraction(5, 2), Fraction(-3)):
            for coeff in (Fraction(1), Fraction(-1), Fraction(1, 3), Fraction(-1, 3)):
                expr = SqrtExpr(rational, coeff, r)
                for q in qs:
                    if root * root == r:
                        expected = rational + coeff * root >= q
                    else:
                        assert abs(float(expr) - q) > 1e-9
                        expected = float(expr) >= q
                    assert (expr >= q) == expected, (r, rational, coeff, q)
                    assert (expr < q) != expected


def test_sqrt_expr_exact_detection():
    assert SqrtExpr(Fraction(1), Fraction(2), 9).exact() == 7
    assert SqrtExpr(Fraction(1), Fraction(2), 8).exact() is None


def test_degree3_cycle_bound_never_beats_degree_bound():
    # with s <= sk + 10 and sk <= k, the cycle bound refines the degree bound
    for k in range(1, 51):
        for sk in range(0, k + 1):
            s = sk + 10
            assert critical_cycle_bound(k, 3, s, sk) <= critical_degree_bound(k, 3, 1)


def test_verify_degree_reciprocal_bounds():
    # all degrees at once: there is no degree cap to pass
    assert verify_degree_reciprocal_bounds()
    with pytest.raises(TypeError):
        verify_degree_reciprocal_bounds(60)


def test_reciprocal_bounds_are_sharp():
    # each tuple meets its part's hypothesis with surplus exactly the
    # shipped cap, so cap - 1 must fail while the cap passes
    sharp = [(3, 11, 11), (3, 3, 5, 5), (3, 3, 3, 3, 5)]
    for (count, need_sum, cap), d in zip(bounds._RECIPROCAL_PARTS, sharp):
        assert len(d) == count and sum(Fraction(1, x) for x in d) > need_sum
        assert sum(x - 2 for x in d[:-1]) == cap
        assert not bounds._enumerate_part(count, need_sum, cap - 1)
        assert bounds._enumerate_part(count, need_sum, cap)


def _largest_surplus(count, need_sum, degrees):
    # the reference: every nondecreasing tuple of the given degrees, each
    # hypothesis summed exactly over a common denominator
    denom = math.lcm(*degrees, need_sum.denominator)
    share = {d: denom // d for d in degrees}
    need = need_sum * denom
    return max(sum(d - 2 for d in t[:-1])
               for t in itertools.combinations_with_replacement(degrees, count)
               if sum(share[d] for d in t) > need)


@pytest.mark.parametrize("part", bounds._RECIPROCAL_PARTS, ids=lambda p: f"count-{p[0]}")
def test_enumeration_matches_brute_force(part):
    # every hypothesis-meeting tuple's prefix has degrees <= 11, so degrees
    # 3..40 reach them all; the shipped cap is the least one that holds
    count, need_sum, shipped = part
    largest = _largest_surplus(count, need_sum, range(3, 41))
    for cap in range(shipped - 2, shipped + 2):
        assert bounds._enumerate_part(count, need_sum, cap) == (largest <= cap) == (cap >= shipped)


def test_criticality_examples(k5, k6, k33, c4):
    assert is_k_crossing_critical(k5, 1)
    assert is_k_crossing_critical(k33, 1)
    assert is_k_crossing_critical(k6, 3)
    assert not is_k_crossing_critical(k6, 2)  # cr(K6) = 3, not <= 2 after no-op
    assert not is_k_crossing_critical(c4, 1)  # planar
    # K3,5 - e is non-planar, so no cr(G - e) beyond k - 1 = 0 is needed
    assert not is_k_crossing_critical(complete_bipartite(3, 5), 1, max_k=1)
    with pytest.raises(CrossboundError):
        is_k_crossing_critical(k5, 0)


def test_criticality_above_the_k_budget(k5, k6):
    # the search within max_k decides k - 1 > max_k when it finds a witness
    assert not is_k_crossing_critical(k5, 6)
    assert not is_k_crossing_critical(complete_bipartite(3, 3), 9)
    # and otherwise establishes cr > max_k
    with pytest.raises(BudgetExceededError) as exc:
        is_k_crossing_critical(k6, 4, max_k=2)
    assert exc.value.established == "cr > 2"


def test_k33_not_2_critical(k33):
    assert not is_k_crossing_critical(k33, 2)  # cr is already 1


def test_certify_k5(k5):
    rep = certify_critical_bounds(k5, 1)
    assert rep.cr == 1 and rep.delta == 4
    assert rep.skewness_bound == 1
    assert rep.cycle_bound == 2 - 1 + Fraction(4 * (rep.mu_witness.mu - 2), 4)
    assert rep.degree_bound == 10
    assert rep.satisfied == {
        "skewness_bound": "true",
        "cycle_bound": "true",
        "degree_bound": "true",
    }


def test_certify_k33(k33):
    rep = certify_critical_bounds(k33, 1)
    assert rep.cr == 1 and rep.delta == 3
    assert rep.satisfied["degree_bound"] == "true"
    assert rep.degree_bound == Fraction(5)


def test_certify_rejects_non_critical(c4, k6):
    with pytest.raises(NotCriticalError):
        certify_critical_bounds(c4, 1)
    with pytest.raises(NotCriticalError):
        certify_critical_bounds(k6, 2)
    # a verdict, not a budget error: K3,5 - e is non-planar, so the oracle
    # never has to look past max_k = 1
    with pytest.raises(NotCriticalError):
        certify_critical_bounds(complete_bipartite(3, 5), 1, max_k=1)


def test_certify_k6(k6):
    rep = certify_critical_bounds(k6, 3)
    assert rep.cr == 3
    assert rep.skewness_bound == 8
    assert all(v == "true" for v in rep.satisfied.values())


def test_certify_two_disjoint_k6():
    # a disjoint union of critical graphs is critical: 2K6 is 6-critical
    # with minimum degree 5, each K6 within the per-component edge budget
    k6 = complete(6).edges()
    rep = certify_critical_bounds(Graph(range(12), [*k6, *((u + 6, v + 6) for u, v in k6)]), 6)
    assert (rep.cr, rep.delta) == (6, 5)
    assert rep.satisfied == {
        "skewness_bound": "true",
        "cycle_bound": "true",
        "degree_bound": "true",
    }


def _asked_edges(monkeypatch, g, k):
    """The verdict of is_k_crossing_critical(g, k), and the edges e whose
    g - e it asked cr_at_most about."""
    asked = []

    def counted(h, k, **kw):
        if h.m < g.m:
            asked.append(next(e for e in g.edges() if not h.has_edge(*e)))
        return cr_at_most(h, k, **kw)

    monkeypatch.setattr(bounds, "cr_at_most", counted)
    return is_k_crossing_critical(g, k), asked


@pytest.mark.parametrize("g, k", [(complete(6), 3), (named("petersen"), 2)], ids=["K6", "petersen"])
def test_edge_transitive_graphs_ask_one_deletion(monkeypatch, g, k):
    assert _asked_edges(monkeypatch, g, k) == (True, [min(g.edges())])


@pytest.mark.parametrize("make, k, minus_e, fixed", [
    (lambda: named("petersen"), 2, True, [0]), (lambda: complete(6), 3, True, [1, 1, 0, 0, 0, 0]),
    (lambda: complete_bipartite(3, 4), 2, False, []),
], ids=["petersen", "K6", "K3,4"])
def test_automorphisms_are_listed_once_per_graph(monkeypatch, make, k, minus_e, fixed):
    # with no pair fixed, each graph is searched once: g for its edge
    # orbits, and one g - e at the root of the oracle's walk, as each graph
    # here is edge-transitive. K3,4 - e has no failed configuration to
    # prune from (the counting rules skip every one before its witness),
    # so it is never searched. Below the root the oracle searches the maps
    # that fix the prefix, once per prefix that has a failed child (fixed:
    # indices into [g, g - e], in the order searched)
    full, constrained = [], []
    for module in (bounds, oracle):
        def counted(h, fixing=(), search=module.automorphisms):
            (constrained if fixing else full).append(h)
            return search(h, fixing)

        monkeypatch.setattr(module, "automorphisms", counted)
    g = make()
    graphs = [g, delete_edge(g, min(g.edges()))]
    certify_critical_bounds(g, k)
    assert full == graphs[:1 + minus_e]
    assert constrained == [graphs[i] for i in fixed]


def test_one_deletion_per_edge_orbit(monkeypatch):
    # K5 with edge (0, 1) subdivided by 5: orbits {05, 15}, the six edges
    # from {0, 1} to {2, 3, 4}, and the triangle 234
    g = Graph(range(6), [e for e in complete(5).edges() if e != (0, 1)] + [(0, 5), (1, 5)])
    assert _asked_edges(monkeypatch, g, 1) == (True, [(0, 2), (0, 5), (2, 3)])


def test_orbit_verdicts_match_asking_every_edge():
    rng = random.Random(63)
    graphs = [complete(5), complete_bipartite(3, 3), complete_bipartite(3, 4), named("cube")]
    for _ in range(30):
        n = rng.randint(5, 7)
        h = nx.gnm_random_graph(n, rng.randint(n + 2, n + 6), seed=rng.randrange(10**9))
        graphs.append(Graph.from_networkx(h))
    verdicts = set()
    for g in graphs:
        for k in (1, 2):
            every = not cr_at_most(g, k - 1)[0] and all(
                cr_at_most(delete_edge(g, e), k - 1)[0] for e in g.edges()
            )
            assert is_k_crossing_critical(g, k) == every, (g.edges(), k)
            verdicts.add(every)
    assert verdicts == {True, False}


def test_isolated_vertices_cost_nothing():
    # K5 on the top five ids of a 2000-vertex edge list
    text = "".join(f"{u} {v}\n" for u in range(1995, 2000) for v in range(u + 1, 2000))
    g = parse_graph(text.encode(), "edgelist")
    assert (g.n, g.m) == (2000, 10)
    start = time.perf_counter()
    assert is_k_crossing_critical(g, 1)
    assert time.perf_counter() - start < 1.0


def _subdivided_k5():
    return Graph(range(6), [e for e in complete(5).edges() if e != (0, 1)] + [(0, 5), (1, 5)])


def _two_k5():
    k5 = complete(5).edges()
    return Graph(range(10), [*k5, *((u + 5, v + 5) for u, v in k5)])


# name -> (graph, k, cr). K3,5 at k = 3 is critical with cr 4 > k. The cr
# are the known ones: Zarankiewicz's formula for K3,n and K4,4, Guy's for K6.
CRITICAL = {
    "K5 k1": (lambda: complete(5), 1, 1),
    "K3,3 k1": (lambda: complete_bipartite(3, 3), 1, 1),
    "petersen k2": (lambda: named("petersen"), 2, 2),
    "K6 k3": (lambda: complete(6), 3, 3),
    "K3,4 k2": (lambda: complete_bipartite(3, 4), 2, 2),
    "K3,5 k3": (lambda: complete_bipartite(3, 5), 3, 4),
    "K3,5 k4": (lambda: complete_bipartite(3, 5), 4, 4),
    "K5 subdivided k1": (_subdivided_k5, 1, 1),
    "2K5 k2": (_two_k5, 2, 2),
    "K4,4 k4": (lambda: complete_bipartite(4, 4), 4, 4),
}


def test_critical_reports_are_pinned():
    # cr, the three bounds as the CLI prints them, and the verdicts,
    # as computed by a fresh crossing-number search
    reports = {name: certify_critical_bounds(make(), k) for name, (make, k, _) in CRITICAL.items()}
    assert {name: rep.cr for name, rep in reports.items()} == {
        name: cr for name, (_, _, cr) in CRITICAL.items()}
    rows = [
        [name, rep.cr, _rat(rep.skewness_bound), _rat(rep.cycle_bound), _rat(rep.degree_bound),
         rep.satisfied]
        for name, rep in reports.items()
    ]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "92b47d3be557d1a5c56595ef4382f9227f37aac7c925c5cd578c7b7b01daa56f"


def _from_networkx(h):
    return Graph.from_networkx(nx.convert_node_labels_to_integers(h))


# name -> (graph, k, max_edges, published cr): critical graphs that are not
# complete, complete bipartite or Petersen. cr(C3 x Cn) = n (Ringeisen &
# Beineke 1978), and Heawood's cr is 3 (Pegg & Exoo 2009). C3 x C3 is the
# first member with minimum degree 4 that is not K5, K4,4 or 2K5. Heawood
# has 21 edges, one above the default budget.
BEYOND_COMPLETE = {
    "C3xC3 k3": (lambda: _from_networkx(nx.cartesian_product(nx.cycle_graph(3), nx.cycle_graph(3))),
                 3, oracle.DEFAULT_MAX_EDGES, 3),
    "heawood k3": (lambda: _from_networkx(nx.heawood_graph()), 3, 21, 3),
}


def test_critical_graphs_beyond_complete_ones_are_pinned():
    # each is k-critical with its published cr and not (k+1)-critical;
    # cr, delta, sk and its exactness, mu, the three bounds and verdicts
    rows = []
    for name, (make, k, max_edges, cr) in BEYOND_COMPLETE.items():
        g = make()
        rep = certify_critical_bounds(g, k, max_edges=max_edges)
        assert rep.cr == cr, name
        assert not is_k_crossing_critical(g, k + 1, max_edges=max_edges), name
        rows.append([name, rep.cr, rep.delta, rep.sk_certificate.value, rep.sk_certificate.exact,
                     rep.mu_witness.mu, _rat(rep.skewness_bound), _rat(rep.cycle_bound),
                     _rat(rep.degree_bound), rep.satisfied])
    assert [row[1:6] for row in rows] == [[3, 4, 2, True, 6], [3, 3, 3, True, 5]]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "61daf969a6ea985c08bc88ed1b36ca573d14d0aa838e4fd933f345317857416e"


def test_critical_searches_skewness_only_above_the_lower_bound(monkeypatch):
    # the cr witnesses' lesser edges meet the skewness lower bound on every
    # entry but the subdivided K5 (lower bound 0, sk 1); on K3,5 at k = 3
    # cr 4 is above it, but the 4 pairs have only 3 distinct lesser edges
    searched, counts = [], {}
    search = bounds.skewness_exact
    monkeypatch.setattr(bounds, "skewness_exact", lambda g: searched.append(g) or search(g))
    for name, (make, k, _) in CRITICAL.items():
        searched.clear()
        certify_critical_bounds(make(), k)
        counts[name] = len(searched)
    assert counts == {name: int(name == "K5 subdivided k1") for name in CRITICAL}, counts


def _random_graphs(seed, count):
    """``count`` random connected graphs with minimum degree 3, 6-8
    vertices and at most 16 edges."""
    rng, found = random.Random(seed), []
    while len(found) < count:
        n = rng.randint(6, 8)
        h = nx.gnm_random_graph(n, rng.randint(math.ceil(3 * n / 2), 16), seed=rng.randrange(10**9))
        if nx.is_connected(h) and min(d for _, d in h.degree()) >= 3:
            found.append(Graph.from_networkx(h))
    return found


def test_lower_bound_certificate_matches_the_search():
    # differential against skewness_exact: whenever the cr witnesses'
    # lesser edges are accepted as exact, their size is the searched sk.
    # On five of the random graphs they are one above the lower bound and
    # sk equals it, so accepting one more than the bound fails here
    graphs = [make() for make, _, _ in CRITICAL.values()] + _random_graphs(3, 80)
    fired = 0
    for g in graphs:
        removed = {e for wit in crossing_witnesses(g) for e, _ in wit.pairs}
        sk = skewness_exact(g).value
        assert sk <= len(removed), g.edges()
        cert = certificate_at_lower_bound(g, removed)
        if cert is not None:
            fired += 1
            assert cert.value == sk and cert.exact and cert.verify(g), g.edges()
    assert fired > len(graphs) // 2, fired


def test_petersen_is_bracketed_without_a_final_search(monkeypatch):
    built = []
    make = oracle.planarize_config
    monkeypatch.setattr(oracle, "planarize_config", lambda *args: built.append(1) or make(*args))
    assert certify_critical_bounds(named("petersen"), 2).cr == 2
    # every planarization of the criticality check and of the cr search,
    # under the level walk's counting rules
    assert len(built) == 4


def test_critical_asks_the_module_level_criticality_check(monkeypatch):
    # certify_critical_bounds reaches criticality through the attribute
    # bounds.is_k_crossing_critical, so a wrapper there (as perfbench's
    # tracer installs) sees every check
    calls = []
    check = bounds.is_k_crossing_critical
    monkeypatch.setattr(bounds, "is_k_crossing_critical",
                        lambda *args: calls.append(args) or check(*args))
    assert certify_critical_bounds(complete(6), 3).cr == 3
    assert len(calls) == 1
