import hashlib
import random

import networkx as nx
import pytest

from crossbound import lightcycle
from crossbound.errors import BudgetExceededError, CrossboundError, NotACycleError
from crossbound.embedding import embed_components
from crossbound.generators import (
    complete,
    complete_bipartite,
    named,
    planar_plus,
    random_planar_min_degree3,
)
from crossbound.graph import Graph, delete_edges, norm_edge
from crossbound.lightcycle import (
    brute_force_min_mu,
    light_cycle_general,
    light_cycle_planar,
    mu,
)
from crossbound.skewness import (
    SkewnessCertificate,
    planar_subgraph_heuristic,
    skewness_exact,
)


def test_mu_k4(k4):
    m, apex = mu(k4, (0, 1, 2))
    assert m == 2  # three degree-3 vertices, drop one: 2 * (3 - 2)
    assert apex == 0


def test_mu_asymmetric_cycle():
    # triangle 0-1-2 with extra edges pumping the degree of vertex 2
    g = Graph(range(6), [(0, 1), (1, 2), (0, 2), (2, 3), (2, 4), (2, 5), (3, 4)])
    m, apex = mu(g, (0, 1, 2))
    assert apex == 2 and m == (2 - 2) + (2 - 2)  # drop deg-5 vertex 2
    assert m == 0


def test_mu_degrees_3_11_11():
    # triangle with degrees 3, 11, 11: dropping an 11 leaves (3-2)+(11-2)=10
    edges = [(0, 1), (1, 2), (0, 2), (0, 3)]
    edges += [(1, p) for p in range(4, 13)]
    edges += [(2, p) for p in range(13, 22)]
    g = Graph(range(22), edges)
    m, apex = mu(g, (0, 1, 2))
    assert m == 10 and apex == 1


def test_mu_rejects_non_cycles(k4):
    with pytest.raises(NotACycleError):
        mu(k4, (0, 1))
    with pytest.raises(NotACycleError):
        mu(k4, (0, 1, 1))
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(NotACycleError):
        mu(g, (0, 1, 2, 3))  # (3, 0) is not an edge


def test_brute_force_cycle_budget(monkeypatch, k5):
    # K5 has 37 cycles; with a budget of 5 the oracle stops after five and
    # reports the best of those, an upper bound on the true minimum 4
    monkeypatch.setattr(lightcycle, "MAX_ORACLE_CYCLES", 5)
    with pytest.raises(BudgetExceededError) as info:
        brute_force_min_mu(k5, 11)
    best = info.value.established
    assert mu(k5, best.cycle) == (best.mu, best.apex)
    assert best.mu >= 4
    monkeypatch.setattr(lightcycle, "MAX_ORACLE_CYCLES", 37)
    assert brute_force_min_mu(k5, 11).mu == 4


def test_brute_force_examples(k4, k5, petersen):
    assert brute_force_min_mu(k4, 11).mu == 2
    assert brute_force_min_mu(k5, 11).mu == 4
    assert brute_force_min_mu(petersen, 11).mu == 4
    dodec = named("dodecahedron")
    assert brute_force_min_mu(dodec, 11).mu == 4
    icos = named("icosahedron")
    assert brute_force_min_mu(icos, 11).mu == 6


def test_light_cycle_planar_examples(k4):
    wit = light_cycle_planar(k4)
    assert wit.mu == 2 and not wit.fallback
    for name, expect in [("dodecahedron", 4), ("icosahedron", 6), ("cube", 3)]:
        wit = light_cycle_planar(named(name))
        assert wit.mu == expect  # vertex-transitive: every short cycle ties


def test_light_cycle_planar_is_valid_cycle_with_small_mu():
    rng = random.Random(21)
    for _ in range(60):
        g = random_planar_min_degree3(rng.randint(4, 40), rng)
        wit = light_cycle_planar(g)
        m, apex = mu(g, wit.cycle)  # also validates the cycle
        assert m == wit.mu and apex == wit.apex
        assert wit.mu <= 10 and len(wit.cycle) <= 5
        assert not wit.fallback


def test_light_cycle_planar_matches_oracle_lower_bound():
    rng = random.Random(22)
    for _ in range(25):
        g = random_planar_min_degree3(rng.randint(4, 16), rng)
        wit = light_cycle_planar(g)
        assert brute_force_min_mu(g, 5).mu <= wit.mu <= 10


def test_light_cycle_planar_rejects_low_degree():
    path = Graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(CrossboundError):
        light_cycle_planar(path)


def test_light_cycle_general_k5(k5):
    # K5 minus any edge is planar, so t = 1 suffices
    wit = light_cycle_general(k5, [(0, 1)])
    m, _ = mu(k5, wit.cycle)
    assert m == wit.mu <= 11


def test_light_cycle_general_k6(k6):
    e0 = [(0, 1), (2, 3), (4, 5)]
    wit = light_cycle_general(k6, e0)
    m, _ = mu(k6, wit.cycle)
    assert m == wit.mu <= 13


def test_light_cycle_general_t0_reduces_to_planar(k4):
    assert light_cycle_general(k4, []) == light_cycle_planar(k4)


def test_light_cycle_general_validates_inputs(k4, k5):
    with pytest.raises(CrossboundError):
        light_cycle_general(k4, [(0, 3), (1, 2)][:1] + [(7, 8)])
    with pytest.raises(CrossboundError):
        light_cycle_general(k5, [])  # K5 itself is not planar


def test_light_cycle_general_random_instances():
    rng = random.Random(31)
    fallbacks = 0
    for _ in range(120):
        n = rng.randint(7, 25)
        t = rng.randint(0, 5)
        g, extra = planar_plus(n, t, rng)
        wit = light_cycle_general(g, extra)
        m, _ = mu(g, wit.cycle)
        assert m == wit.mu <= len(extra) + 10
        fallbacks += wit.fallback
    assert fallbacks <= 6  # the induction should almost always succeed


def test_light_cycle_general_dominates_brute_force_on_small():
    rng = random.Random(32)
    for _ in range(20):
        g, extra = planar_plus(rng.randint(7, 12), rng.randint(1, 3), rng)
        wit = light_cycle_general(g, extra)
        assert wit.mu >= brute_force_min_mu(g, len(extra) + 11).mu


def test_chord_branch_fires_and_picks_lighter_subcycle():
    # add a diagonal across the very face the cube's light-cycle search
    # returns; the induction deletes that diagonal, finds the same face,
    # lifts it unchanged, and must then split along the chord
    cube = named("cube")
    face = light_cycle_planar(cube).cycle
    a, c = face[0], face[2]
    g = Graph(cube.vertices, cube.edges() + ((min(a, c), max(a, c)),))
    trace = []
    wit = light_cycle_general(g, [(a, c)], trace=trace)
    assert not wit.fallback
    assert len(trace) == 1
    ev = trace[0]
    assert ev.chord == (min(a, c), max(a, c))
    assert set(ev.lifted_cycle) == set(face)
    assert set(ev.returned_cycle) <= set(ev.lifted_cycle) | {a, c}
    assert ev.returned_mu == wit.mu <= 1 + 10
    m, _ = mu(g, wit.cycle)
    assert m == wit.mu


def test_chord_trace_entries_are_consistent():
    rng = random.Random(33)
    for _ in range(150):
        g, extra = planar_plus(rng.randint(7, 20), rng.randint(2, 5), rng)
        trace = []
        wit = light_cycle_general(g, extra, trace=trace)
        if wit.fallback:
            continue
        for ev in trace:
            assert ev.chord[0] in ev.lifted_cycle and ev.chord[1] in ev.lifted_cycle
            assert set(ev.returned_cycle) <= set(ev.lifted_cycle)


def test_embedding_must_be_of_g_minus_e0(k5):
    # a given embedding replaces the planarity test only when it is of
    # exactly g - e0: the certificate's, not one of another graph
    cert = skewness_exact(k5)
    (e,) = cert.removed
    other = next(f for f in k5.edges() if f != e)
    with pytest.raises(CrossboundError):
        light_cycle_general(k5, [other], embedding=cert.embedding)
    ico = named("icosahedron")
    with pytest.raises(CrossboundError):
        light_cycle_general(ico, [], embedding=cert.embedding)
    assert (light_cycle_general(k5, [e], embedding=cert.embedding)
            == light_cycle_general(k5, [e]))


def test_certificate_embedding_gives_the_same_cycle():
    rng = random.Random(11)
    graphs = [named("icosahedron"), named("dodecahedron")]
    graphs += [planar_plus(rng.randint(7, 16), rng.randint(0, 2), rng)[0] for _ in range(20)]
    for g in graphs:
        cert = skewness_exact(g)
        assert (light_cycle_general(g, cert.removed, embedding=cert.embedding)
                == light_cycle_general(g, cert.removed))


def test_fallback_result_is_still_a_witness(k4):
    # deleting a K4 edge leaves both endpoints at degree 2; the two
    # smoothing contractions collapse the graph below minimum degree 3,
    # so the induction must hand over to the exhaustive search
    wit = light_cycle_general(k4, [(2, 3)])
    assert wit.fallback
    m, _ = mu(k4, wit.cycle)
    assert m == wit.mu <= 1 + 10
    assert wit.mu == 2  # still the global optimum for K4


def _certificate(g, removed):
    """A hand-built certificate of a known planarizing set, with the
    embedding of g - removed that a search's certificate would carry."""
    removed = frozenset(removed)
    embedding = embed_components(delete_edges(g, removed))
    return SkewnessCertificate(len(removed), removed, False, embedding)


def _random_cubic_plus(rng):
    """A random cubic graph on 8-14 vertices plus up to four random edges:
    minimum degree 3, so the induction contracts at degree-3 endpoints."""
    n = 2 * rng.randint(4, 7)
    gn = nx.random_regular_graph(3, n, seed=rng.randrange(2**32))
    for _ in range(rng.randint(0, 4)):
        gn.add_edge(*rng.sample(range(n), 2))
    return Graph.from_networkx(gn)


def _pin_corpus():
    """(graph, certificate) pairs: named graphs with exact certificates;
    the cube and the dodecahedron plus a diagonal of their light face, so
    the chord branch fires; planar_plus graphs with their added edges; and
    random cubic graphs plus a few edges, some of which fall back."""
    graphs = [named(name) for name in ("petersen", "dodecahedron", "icosahedron")]
    graphs += [complete(n) for n in (5, 6, 7)]
    graphs += [complete_bipartite(3, b) for b in (3, 4, 5, 6)]
    yield from ((g, skewness_exact(g)) for g in graphs)
    for name in ("cube", "dodecahedron"):
        g = named(name)
        face = light_cycle_planar(g).cycle
        e = norm_edge(face[0], face[2])
        g = Graph(g.vertices, g.edges() + (e,))
        yield g, _certificate(g, [e])
    rng = random.Random(41)
    for _ in range(60):
        g, extra = planar_plus(rng.randint(8, 40), rng.randint(1, 4), rng)
        yield g, _certificate(g, extra)
    rng = random.Random(42)
    for _ in range(50):
        g = _random_cubic_plus(rng)
        yield g, planar_subgraph_heuristic(g)


# sha256 over light_cycle_general's results on _pin_corpus(), each input
# without and then with its certificate's embedding: cycle, apex, mu,
# fallback and every ChordEvent field. A change to how the induction tests
# or carries planarity must leave every result in place.
LIGHT_CYCLE_DIGEST = "349970568167b7d711a84d48056aab8860522fe9a0ffb7c6af64150e1cfcab50"


def test_light_cycle_results_are_pinned():
    h = hashlib.sha256()
    fallbacks = chords = 0
    for g, cert in _pin_corpus():
        for embedding in (None, cert.embedding):
            trace = []
            wit = light_cycle_general(g, cert.removed, trace, embedding=embedding)
            events = [(ev.lifted_cycle, ev.chord, ev.returned_cycle, ev.returned_mu,
                       ev.recursive_mu, ev.t) for ev in trace]
            h.update(repr((wit.cycle, wit.apex, wit.mu, wit.fallback, events)).encode())
            fallbacks += wit.fallback
            chords += len(trace)
    assert fallbacks and chords  # the corpus reaches both branches
    assert h.hexdigest() == LIGHT_CYCLE_DIGEST


def test_every_level_is_planar_with_no_test(monkeypatch):
    # the induction tests no level for planarity, because each level's
    # g - e0 is a minor of the one above; check it here at every level, on
    # inputs whose removed edges have degree-3 ends, so that levels contract
    induction = lightcycle._induction
    levels = contracting = 0

    def checked(g, e0, trace, embedding=None):
        nonlocal levels, contracting
        levels += 1
        contracting += any(g.degree(v) == 3 for v in min(e0, default=()))
        assert nx.check_planarity(delete_edges(g, e0).to_networkx())[0]
        return induction(g, e0, trace, embedding)

    cases = [(g, skewness_exact(g)) for g in
             (named("petersen"), *(complete_bipartite(3, b) for b in (3, 4, 5, 6)))]
    rng = random.Random(51)
    cubic = (Graph.from_networkx(nx.random_regular_graph(3, 2 * rng.randint(5, 8),
                                                        seed=rng.randrange(2**32)))
             for _ in range(30))
    graphs = [g for g in cubic if not nx.check_planarity(g.to_networkx())[0]]
    graphs += [_random_cubic_plus(rng) for _ in range(30)]
    cases += [(g, planar_subgraph_heuristic(g)) for g in graphs]
    monkeypatch.setattr(lightcycle, "_induction", checked)
    for g, cert in cases:
        wit = light_cycle_general(g, cert.removed, embedding=cert.embedding)
        assert mu(g, wit.cycle) == (wit.mu, wit.apex)
    assert contracting > 50 and levels > contracting


def test_light_cycle_runs_at_most_one_lr_test(monkeypatch):
    # given the certificate's embedding, no level tests planarity: a call
    # that never contracts runs no LR test, and one that does runs one, to
    # embed its last level
    g, extra = planar_plus(100, 4, random.Random(3))
    cases = [(g, _certificate(g, extra))]
    cases += [(h, skewness_exact(h)) for h in
              (complete(6), named("petersen"), complete_bipartite(3, 4))]
    check_planarity = nx.check_planarity
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return check_planarity(*args, **kwargs)

    monkeypatch.setattr(nx, "check_planarity", counted)
    found = []
    for g, cert in cases:
        calls.clear()
        light_cycle_general(g, cert.removed, embedding=cert.embedding)
        found.append(len(calls))
    assert found == [0, 0, 1, 1]
