import random

import networkx as nx
import pytest

from crossbound import lightcycle
from crossbound.errors import BudgetExceededError, CrossboundError, NotACycleError
from crossbound.generators import (
    named,
    planar_plus,
    random_planar_min_degree3,
)
from crossbound.graph import Graph
from crossbound.lightcycle import (
    brute_force_min_mu,
    light_cycle_general,
    light_cycle_planar,
    mu,
)
from crossbound.skewness import skewness_exact


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
