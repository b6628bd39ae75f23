import ast
import random
from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest

from crossbound import _lr
from crossbound._lr import lr_rotation, lr_test
from crossbound.embedding import (
    RotationEmbedding,
    dual,
    embed,
    embed_components,
    embedding_of,
    is_planar,
    kuratowski_witness,
    planar_nx,
    triangulate,
)
from crossbound import embedding
from crossbound.errors import CrossboundError, GraphFormatError, NonPlanarError
from crossbound.generators import planar_plus, random_maximal_planar, random_planar_min_degree3
from crossbound.graph import Graph, components, min_degree

from oracles import chord_by_chord_triangulate, independent_is_planar


def test_is_planar_basics(k4, k5, k33, petersen):
    assert is_planar(k4)
    assert not is_planar(k5)
    assert not is_planar(k33)
    assert not is_planar(petersen)


def test_is_planar_agrees_with_independent_oracle():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(1, 8)
        gn = nx.gnp_random_graph(n, rng.uniform(0.2, 0.9), seed=rng.randint(0, 10**6))
        g = Graph.from_networkx(gn)
        assert is_planar(g) == independent_is_planar(g), g.edges()


def test_embed_c4(c4):
    emb = embed(c4)
    assert len(emb.faces) == 2
    assert all(f.length == 4 for f in emb.faces)


def test_embed_k4(k4):
    emb = embed(k4)
    assert len(emb.faces) == 4
    assert all(f.length == 3 for f in emb.faces)
    assert all(f.weight == 1 for f in emb.faces)


def test_embed_cube():
    g = Graph.from_networkx(nx.convert_node_labels_to_integers(nx.hypercube_graph(3)))
    emb = embed(g)
    assert g.n - g.m + len(emb.faces) == 2  # 8 - 12 + 6
    assert sorted(f.length for f in emb.faces) == [4] * 6


def test_embed_nonplanar_has_witness(k5):
    with pytest.raises(NonPlanarError) as exc:
        embed(k5)
    witness = exc.value.witness
    assert witness is not None
    sub = Graph(range(5), witness)
    assert not independent_is_planar(sub)


def test_embed_components_is_embed_per_component(k4, petersen):
    # one LR test of the whole graph gives one embedding whose faces are
    # those a test of each component alone gives, component by component;
    # isolated vertices have none
    rng = random.Random(5)
    for _ in range(20):
        parts = [random_planar_min_degree3(rng.randint(4, 12), rng) for _ in range(3)]
        edges, shift = [], 0
        for p in parts:
            edges += [(u + shift, v + shift) for u, v in p.edges()]
            shift += p.n + 1  # leaves an isolated vertex between parts
        g = Graph(range(shift), edges)
        emb = embed_components(g)
        assert emb.graph is g and embedding_of(g, emb) is emb
        assert emb.faces == tuple(f for c in components(g) for f in embed(c).faces)
    assert embed_components(Graph(range(3))).faces == ()
    two = Graph(range(14), list(k4.edges()) + [(u + 4, v + 4) for u, v in petersen.edges()])
    assert embed_components(two) is None
    with pytest.raises(NonPlanarError) as exc:
        embedding_of(two)
    assert exc.value.witness <= set(two.edges())
    with pytest.raises(CrossboundError, match="not one of this graph"):
        embedding_of(petersen, embed_components(k4))


def test_planar_disconnected_rotation_is_accepted(k4, c4):
    # each component is plane, so the Euler sum is 2 per component with an
    # edge and 1 per isolated vertex; the components interleave in vertex
    # order (vertex 0 is on 3 of the K4's 4 faces, vertex 1 on both of the
    # C4's), and the faces still come component by component
    even_k4 = Graph([0, 2, 4, 6], [(2 * u, 2 * v) for u, v in k4.edges()])
    odd_c4 = Graph([1, 3, 5, 7], [(2 * u + 1, 2 * v + 1) for u, v in c4.edges()])
    g = Graph(range(10), even_k4.edges() + odd_c4.edges())
    emb = RotationEmbedding(g, {**embed(even_k4).rotation, **embed(odd_c4).rotation})
    assert g.n - g.m + len(emb.faces) == 2 + 2 + 2 * 1  # vertices 8 and 9 are isolated
    assert emb.faces == embed(even_k4).faces + embed(odd_c4).faces
    assert {emb.face_of(1, 3), emb.face_of(3, 1)} == {4, 5}


def test_euler_is_checked_per_component():
    # a toroidal K5 rotation (5 - 10 + 5 = 0) beside a plane K4
    # (4 - 6 + 4 = 2) sums to 2, but each component must meet 2 itself
    torus = {0: (1, 2, 3, 4), 1: (0, 2, 3, 4), 2: (0, 1, 4, 3), 3: (0, 2, 1, 4), 4: (0, 3, 1, 2)}
    k5 = Graph(range(5), [(u, v) for u in range(5) for v in range(u + 1, 5)])
    with pytest.raises(NonPlanarError):
        RotationEmbedding(k5, torus)
    k4 = [(u, v) for u in range(5, 9) for v in range(u + 1, 9)]
    rot = {**torus, **embed(Graph(range(5, 9), k4)).rotation}
    with pytest.raises(NonPlanarError, match="!= 4"):
        RotationEmbedding(Graph(range(9), list(k5.edges()) + k4), rot)


def test_faces_start_at_their_least_edge_component_by_component():
    # the documented face order: each walk starts at its face's least
    # directed edge, and faces are sorted by (component root, that edge);
    # the unions interleave their parts' vertex ids and add isolated ones
    rng = random.Random(28)
    graphs = [_random_sparse_planar(rng) for _ in range(30)]
    for _ in range(10):
        parts = [_random_sparse_planar(rng) for _ in range(rng.randint(2, 3))]
        k = len(parts)
        edges = [(k * u + i, k * v + i) for i, p in enumerate(parts) for u, v in p.edges()]
        graphs.append(Graph(range(k * 30 + rng.randint(0, 3)), edges))
    for g in graphs:
        emb = embed_components(g)
        roots = {v: min(c) for c in nx.connected_components(g.to_networkx()) for v in c}
        keys = []
        for f in emb.faces:
            walk = f.boundary
            darts = [(walk[i], walk[(i + 1) % f.length]) for i in range(f.length)]
            assert darts[0] == min(darts), walk
            keys.append((roots[walk[0]], darts[0]))
        assert keys == sorted(keys)
    assert sum(embed_components(g).component_count > 1 for g in graphs) == 10


def test_kuratowski_witness_is_nonplanar_subgraph(petersen):
    witness = kuratowski_witness(petersen)
    assert witness <= set(petersen.edges())
    assert not independent_is_planar(Graph(petersen.vertices, witness))


def test_face_sum_identities_on_random_embeddings():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(4, 30)
        g = random_planar_min_degree3(n, rng)
        emb = embed(g)
        assert sum(f.weight for f in emb.faces) == g.n
        assert sum(f.length for f in emb.faces) == 2 * g.m
        assert g.n - g.m + len(emb.faces) == 2


def test_light_face_exists_for_min_degree_3():
    # some face satisfies weight - length/2 + 1 > 0, and any such face is short
    rng = random.Random(5)
    for _ in range(40):
        g = random_planar_min_degree3(rng.randint(4, 30), rng)
        emb = embed(g)
        qualifying = [
            f for f in emb.faces if f.weight - Fraction(f.length, 2) + 1 > 0
        ]
        assert qualifying
        assert all(f.length <= 5 for f in qualifying)


def test_handbuilt_rotation_weight_counts_each_appearance():
    # triangle a,b,c with degrees 3, 11, 11 in the host graph; the rotation
    # is built by hand so the pure triangle face is guaranteed to exist
    a, b, c = 0, 1, 2
    edges = [(a, b), (b, c), (a, c), (a, 3)]
    rot = {a: (c, b, 3), b: (a, c), c: (b, a), 3: (a,)}
    for p in range(4, 13):  # 9 pendants on b
        edges.append((b, p))
        rot[b] = rot[b] + (p,)
        rot[p] = (b,)
    for p in range(13, 22):  # 9 pendants on c
        edges.append((c, p))
        rot[c] = rot[c] + (p,)
        rot[p] = (c,)
    g = Graph(range(22), edges)
    assert g.degree(a) == 3 and g.degree(b) == 11 and g.degree(c) == 11
    emb = RotationEmbedding(g, rot)
    tri = [f for f in emb.faces if sorted(f.boundary) == [a, b, c]]
    assert tri and tri[0].weight == Fraction(17, 33)
    assert tri[0].weight > Fraction(1, 2)


def test_invalid_rotation_rejected(c4):
    # planar graph, but a rotation system of the torus-like kind fails Euler
    k4 = Graph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    bad = {0: (1, 2, 3), 1: (0, 2, 3), 2: (0, 1, 3), 3: (0, 1, 2)}
    with pytest.raises(NonPlanarError):
        RotationEmbedding(k4, bad)


def test_rotation_must_permute_each_neighborhood(c4):
    # passes Euler (V-E+F = 4-4+2) and both face-sum identities, but the
    # rotation's edges 0-2 and 1-3 are not C4's edges 0-1 and 2-3
    bad = {0: (2, 3), 2: (0, 1), 1: (2, 3), 3: (1, 0)}
    with pytest.raises(GraphFormatError):
        RotationEmbedding(c4, bad)
    # two isolated vertices are the edgeless graph's embedding, with no
    # face: each is its own component, with V-E+F = 1
    assert RotationEmbedding(Graph(range(2)), {0: (), 1: ()}).faces == ()


def test_dual_k4(k4):
    d = dual(embed(k4))
    assert sorted(d) == [0, 1, 2, 3]
    assert sum(len(arcs) for arcs in d.values()) == 2 * 6
    assert all(len(arcs) == 3 for arcs in d.values())  # dual of K4 is K4
    assert all(arcs == sorted(arcs) for arcs in d.values())


def test_dual_c4(c4):
    d = dual(embed(c4))
    assert sorted(d) == [0, 1]
    assert sum(len(arcs) for arcs in d.values()) == 2 * 4
    assert all(g2 == 1 - f for f, arcs in d.items() for g2, _ in arcs)


def test_dual_of_maximal_planar_is_cubic(k5):
    g = Graph(range(5), [e for e in k5.edges() if e != (0, 1)])
    d = dual(embed(g))
    assert len(d) == 2 * 5 - 4
    assert sum(len(arcs) for arcs in d.values()) == 2 * 9
    assert all(len(arcs) == 3 for arcs in d.values())


def test_triangulate_k4_noop(k4):
    emb, fills = triangulate(embed(k4))
    assert fills == frozenset()
    assert emb.graph == k4


def test_triangulate_c4_and_c5(c4):
    emb, fills = triangulate(embed(c4))
    assert emb.graph.m == 3 * 4 - 6
    assert all(f.length == 3 for f in emb.faces)
    c5 = Graph(range(5), [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    emb5, fills5 = triangulate(embed(c5))
    assert emb5.graph.m == 3 * 5 - 6
    assert len(fills5) == 4
    assert not (fills5 & set(c5.edges()))


def test_triangulate_is_refinement():
    # every fill-free directed edge keeps its original face region: faces of
    # the output, grouped by fill connectivity, partition the input faces
    rng = random.Random(9)
    for _ in range(20):
        g = random_planar_min_degree3(rng.randint(4, 25), rng)
        emb = embed(g)
        tri, fills = triangulate(emb)
        assert tri.graph.m == 3 * tri.graph.n - 6
        assert all(f.length == 3 for f in tri.faces)
        for v in g.vertices:
            assert set(emb.rotation[v]) <= set(tri.rotation[v])


def test_triangulate_rejects_a_disconnected_embedding(c4):
    # each component alone would be triangulated, short of 3|V| - 6 edges
    two = Graph(range(8), list(c4.edges()) + [(u + 4, v + 4) for u, v in c4.edges()])
    with pytest.raises(GraphFormatError, match="connected"):
        triangulate(embed_components(two))


def test_triangulate_random_trees_and_sparse():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(3, 15)
        g = Graph.from_networkx(nx.random_labeled_tree(n, seed=rng.randint(0, 10**6)))
        tri, fills = triangulate(embed(g))
        assert tri.graph.m == 3 * n - 6


def _random_sparse_planar(rng):
    """A random connected planar graph between a tree and maximal planar:
    a spanning tree of a random triangulation plus some of its other edges."""
    n = rng.randint(3, 30)
    tri = random_maximal_planar(n, rng).to_networkx()
    for u, v in tri.edges():
        tri[u][v]["weight"] = rng.random()
    tree = {frozenset(e) for e in nx.minimum_spanning_tree(tri).edges()}
    keep = rng.random()
    edges = [e for e in tri.edges() if frozenset(e) in tree or rng.random() < keep]
    return Graph(range(n), edges)


def test_triangulate_matches_chord_by_chord_reference():
    rng = random.Random(23)
    long_faces = 0
    for _ in range(120):
        emb = embed(_random_sparse_planar(rng))
        long_faces += any(f.length > 3 for f in emb.faces)
        tri, fills = triangulate(emb)
        ref, ref_fills = chord_by_chord_triangulate(emb)
        assert fills == ref_fills
        assert tri.graph == ref.graph
        assert tri.rotation == ref.rotation
        assert [f.boundary for f in tri.faces] == [f.boundary for f in ref.faces]
    assert long_faces >= 100


def test_triangulate_builds_one_embedding(monkeypatch):
    builds = []

    class Counting(RotationEmbedding):
        def __init__(self, graph, rotation):
            builds.append(graph.m)
            super().__init__(graph, rotation)

    monkeypatch.setattr(embedding, "RotationEmbedding", Counting)
    c12 = Graph(range(12), [(i, (i + 1) % 12) for i in range(12)])
    emb = embed(c12)
    builds.clear()
    tri, fills = triangulate(emb)
    assert len(fills) == 3 * 12 - 6 - 12
    assert builds == [3 * 12 - 6]


def _lr_copy_adjacency(gn):
    """The adjacency networkx's LR test sees: it copies gn edge by edge, so
    each vertex lists its neighbors earlier in node order first, then its
    later ones in gn's own order."""
    adj = {v: [] for v in gn}
    for u, w in gn.edges():
        adj[u].append(w)
        adj[w].append(u)
    return adj


def _lr_corpus(rng):
    for _ in range(500):  # G(n, m), up to three edges per vertex
        n = rng.randint(1, 16)
        m = rng.randint(0, min(n * (n - 1) // 2, 3 * n))
        yield nx.gnm_random_graph(n, m, seed=rng.randrange(10**9))
    for _ in range(300):
        yield random_maximal_planar(rng.randint(3, 40), rng).to_networkx()
    for _ in range(500):  # _search's remove and re-add moves edges to the end
        g, extra = planar_plus(rng.randint(6, 20), rng.randint(1, 3), rng)
        gn = g.to_networkx()
        dropped = list(extra) + rng.sample(g.edges(), rng.randint(0, 4))
        rng.shuffle(dropped)
        gn.remove_edges_from(dropped)
        gn.add_edges_from(dropped[:rng.randint(0, len(dropped))])
        yield gn
    for _ in range(400):  # thinned triangulations
        g = random_maximal_planar(rng.randint(4, 40), rng)
        gn = g.to_networkx()
        gn.remove_edges_from(rng.sample(g.edges(), rng.randint(1, g.m // 2)))
        yield gn
    for _ in range(400):  # trees plus edges, with isolated vertices
        n = rng.randint(1, 30)
        gn = nx.random_labeled_tree(n, seed=rng.randrange(10**9))
        for _ in range(rng.randint(0, n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                gn.add_edge(u, v)
        gn.add_nodes_from(range(n, n + rng.randint(0, 3)))
        yield gn


def test_lr_kernel_is_networkx_lr_test():
    # on the adjacency networkx's copy sees, the test phase answers as
    # check_planarity does and the embed phase gives get_data's rotation;
    # on gn's own order the test phase (planar_nx) answers the same
    planar = nonplanar = 0
    for gn in _lr_corpus(random.Random(2026)):
        ok, emb = nx.check_planarity(gn)
        state = lr_test(_lr_copy_adjacency(gn))
        assert (state is not None) == ok == planar_nx(gn), list(gn.edges())
        if ok:
            assert lr_rotation(state) == emb.get_data(), list(gn.edges())
            planar += 1
        else:
            nonplanar += 1
    assert planar + nonplanar >= 2000 and planar > 1000 and nonplanar > 500


def test_lr_kernel_compares_conflict_pairs_by_identity():
    # networkx compares the top of the conflict-pair stack with an edge's
    # stack bottom by object identity. Two distinct list pairs are equal
    # only when both are empty, which no graph above produces, so the
    # differential cannot tell == from is; this rule keeps the identity
    tree = ast.parse(Path(_lr.__file__).read_text())
    ops = [
        type(op).__name__
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(c, ast.Subscript) and getattr(c.value, "id", None) == "bottom"
                for c in node.comparators)
        for op in node.ops
    ]
    assert ops == ["Is"], ops


def test_embed_components_rotation_is_networkx():
    # g's sorted adjacency is what networkx's copy of g.to_networkx() sees
    rng = random.Random(7)
    for _ in range(100):
        g = random_planar_min_degree3(rng.randint(4, 60), rng)
        g = Graph(g.vertices, rng.sample(g.edges(), rng.randint(g.m // 2, g.m)))
        data = nx.check_planarity(g.to_networkx())[1].get_data()
        assert is_planar(g)
        assert embed_components(g).rotation == {v: tuple(data[v]) for v in g.vertices}


@pytest.mark.parametrize("gn", [
    nx.path_graph(2000), nx.cycle_graph(2000),
    nx.convert_node_labels_to_integers(nx.grid_2d_graph(40, 50))], ids=["path", "cycle", "grid"])
def test_lr_kernel_is_iterative(gn):
    # a DFS 2000 deep: the kernel keeps its own stacks, so hostile input
    # at MAX_GRAPH_SIZE cannot raise RecursionError
    g = Graph.from_networkx(gn)
    assert planar_nx(gn) and is_planar(g)
    emb = embed_components(g)
    data = nx.check_planarity(g.to_networkx())[1].get_data()
    assert emb.rotation == {v: tuple(data[v]) for v in g.vertices}
