"""Deterministic graph generators for experiments and tests.

Random families take an explicit seed; identical seeds give identical
graphs, byte for byte, across runs.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

import networkx as nx

from .errors import CrossboundError
from .graph import Edge, Graph, norm_edge

NAMED = ("petersen", "dodecahedron", "icosahedron", "cube")


def complete(n: int) -> Graph:
    if n < 1:
        raise CrossboundError("complete graph needs n >= 1")
    return Graph.from_networkx(nx.complete_graph(n))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise CrossboundError("complete bipartite graph needs a, b >= 1")
    return Graph.from_networkx(nx.complete_bipartite_graph(a, b))


def named(name: str) -> Graph:
    makers = {
        "petersen": nx.petersen_graph,
        "dodecahedron": nx.dodecahedral_graph,
        "icosahedron": nx.icosahedral_graph,
        "cube": lambda: nx.convert_node_labels_to_integers(nx.hypercube_graph(3)),
    }
    if name not in makers:
        raise CrossboundError(f"unknown named graph {name!r}; have {sorted(makers)}")
    return Graph.from_networkx(makers[name]())


def random_maximal_planar(n: int, rng: random.Random) -> Graph:
    """Random planar triangulation: grow from a triangle by repeatedly
    placing a new vertex inside a uniformly chosen face."""
    if n < 3:
        raise CrossboundError("maximal planar generation needs n >= 3")
    faces: List[Tuple[int, int, int]] = [(0, 1, 2), (0, 2, 1)]
    edges = {(0, 1), (0, 2), (1, 2)}
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        faces.extend([(a, b, v), (b, c, v), (c, a, v)])
        edges.update(norm_edge(v, x) for x in (a, b, c))
    return Graph(range(n), edges)


def random_planar_min_degree3(
    n: int, rng: random.Random, deletions: Optional[int] = None
) -> Graph:
    """Random planar graph with minimum degree >= 3: a triangulation with
    some random edges deleted wherever both endpoints stay at degree >= 4."""
    g = random_maximal_planar(n, rng)
    if deletions is None:
        deletions = rng.randrange(0, max(1, g.m // 4))
    edges = set(g.edges())
    deg = {v: g.degree(v) for v in g.vertices}
    for _ in range(deletions):
        candidates = sorted(e for e in edges if deg[e[0]] > 3 and deg[e[1]] > 3)
        if not candidates:
            break
        u, v = candidates[rng.randrange(len(candidates))]
        edges.remove((u, v))
        deg[u] -= 1
        deg[v] -= 1
    return Graph(range(n), edges)


def planar_plus(n: int, t: int, rng: random.Random) -> Tuple[Graph, Tuple[Edge, ...]]:
    """Random maximal planar graph on n vertices plus t random non-edges.

    Also returns the added edges: removing them restores planarity, so
    they certify skewness <= t."""
    if t < 0:
        raise CrossboundError("planar-plus needs t >= 0")
    g = random_maximal_planar(n, rng)
    non_edges = sorted(
        norm_edge(u, v)
        for i, u in enumerate(g.vertices)
        for v in g.vertices[i + 1:]
        if not g.has_edge(u, v)
    )
    if len(non_edges) < t:
        raise CrossboundError(f"only {len(non_edges)} non-edges available, need {t}")
    extra = tuple(sorted(rng.sample(non_edges, t)))
    return Graph(g.vertices, g.edges() + extra), extra
