"""Independent test oracles, kept deliberately dumb and separate from the
package's own algorithms."""

import itertools

import networkx as nx

from crossbound.graph import Graph


def _disjoint_paths(g: Graph, pairs, free, blocked):
    """Internally-disjoint paths for every endpoint pair, internals drawn
    from ``free``; brute-force DFS, fine for the <= 8 vertex scale."""
    if not pairs:
        return True
    (a, b) = pairs[0]

    def extend(path, used):
        cur = path[-1]
        for w in g.neighbors(cur):
            if w == b and len(path) >= 1:
                if _disjoint_paths(g, pairs[1:], free - used, blocked):
                    return True
                continue
            if w in free and w not in used and w not in blocked:
                if extend(path + [w], used | {w}):
                    return True
        return False

    return extend([a], set())


def has_kuratowski_subdivision(g: Graph) -> bool:
    """Brute-force search for a K5 or K3,3 subdivision."""
    verts = g.vertices
    # K5: 5 branch vertices, 10 internally-disjoint paths
    for branch in itertools.combinations(verts, 5):
        if any(g.degree(v) < 4 for v in branch):
            continue
        free = set(verts) - set(branch)
        pairs = list(itertools.combinations(branch, 2))
        if _disjoint_paths(g, pairs, free, set(branch)):
            return True
    # K3,3: 3+3 branch vertices, 9 cross paths
    for six in itertools.combinations(verts, 6):
        if any(g.degree(v) < 3 for v in six):
            continue
        free = set(verts) - set(six)
        for part_a in itertools.combinations(six[1:], 2):
            side_a = (six[0],) + part_a
            side_b = tuple(v for v in six if v not in side_a)
            pairs = [(a, b) for a in side_a for b in side_b]
            if _disjoint_paths(g, pairs, free, set(six)):
                return True
    return False


def independent_is_planar(g: Graph) -> bool:
    """Planarity by edge count plus exhaustive Kuratowski-subdivision
    search; exact for the small graphs the tests feed it."""
    if g.n >= 3 and g.m > 3 * g.n - 6:
        return False
    if g.n < 5:
        return True
    return not has_kuratowski_subdivision(g)


def some_order_planarizes(g: Graph, combo) -> bool:
    """Reference for the crossing-number oracle: whether some crossing order
    along every edge makes the planarization of the pairs in ``combo``
    planar. Every permutation of every edge's partners is tried, each
    planarization built from scratch with its own dummy vertices."""
    dummy = {frozenset(p): ("x", i) for i, p in enumerate(combo)}
    partners = {e: [f for p in combo if e in p for f in p if f != e] for e in g.edges()}
    choices = [list(itertools.permutations(ps)) for ps in partners.values()]
    for chosen in itertools.product(*choices):
        h = nx.Graph()
        h.add_nodes_from(g.vertices)
        for e, seq in zip(partners, chosen):
            nx.add_path(h, [e[0]] + [dummy[frozenset((e, f))] for f in seq] + [e[1]])
        if nx.check_planarity(h)[0]:
            return True
    return False


def flat_level_witness(g: Graph, pool, k):
    """Reference for the oracle's level search: every k-set of ``pool`` in
    ``itertools.combinations`` order, nothing skipped; the first whose
    planarization is planar under some crossing order, or None."""
    from crossbound.oracle import _combo_witness

    for combo in itertools.combinations(pool, k):
        wit = _combo_witness(g, combo)
        if wit is not None:
            return wit
    return None


def chord_by_chord_triangulate(emb):
    """Reference for ``triangulate``: split the first long face of the
    current embedding, rebuild the whole embedding, repeat. Quadratic, but
    every step's face list comes from a fresh trace."""
    from crossbound.embedding import RotationEmbedding, _chord_positions, _insert_chord
    from crossbound.graph import norm_edge

    cur = emb
    rotation = {v: list(nbrs) for v, nbrs in emb.rotation.items()}
    fills = set()
    while True:
        target = next((f for f in cur.faces if f.length > 3), None)
        if target is None:
            return cur, frozenset(fills)
        i, j = _chord_positions(set(cur.graph.edges()), target.boundary)
        _insert_chord(rotation, target.boundary, i, j)
        chord = norm_edge(target.boundary[i], target.boundary[j])
        fills.add(chord)
        g2 = Graph(cur.graph.vertices, cur.graph.edges() + (chord,))
        cur = RotationEmbedding(g2, {v: tuple(nbrs) for v, nbrs in rotation.items()})
