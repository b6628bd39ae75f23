"""Skewness: the fewest edge removals that leave a planar graph.

Exact values come from a branch-and-bound over removal sets: every removal
set must hit every Kuratowski subdivision, so branching on the edges of one
witness subdivision per node is exhaustive. Only nodes that branch build a
witness; the leaves of the search (depth 0) need a yes/no planarity test
alone. A node at depth 1 builds its witness in the Euler core of its graph
(_euler_core), the subgraph left once vertices of degree <= 3 are peeled
while Euler's bound is exceeded: 5-10 vertices and 10-25 edges on the
benchmark's 22-31-edge graphs, so networkx's extraction re-tests a much
smaller graph. A depth-1 answer does not depend on the witness (see
_search), so no depth-1 result changes. A greedy planar-subgraph pass
provides an upper-bound certificate for graphs beyond exact-search scale.

Every certificate carries the Euler-checked embedding of g minus its removal
set, which is its proof of planarity; the light cycle and the drawing work
in that embedding rather than testing or embedding the same graph again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Optional

import networkx as nx

from .embedding import RotationEmbedding, embed_components, is_planar, planar_nx, witness_nx
from .errors import CrossboundError
from .graph import Edge, Graph, components, delete_edges, girth


@dataclass(frozen=True)
class SkewnessCertificate:
    """A removal set witnessing an upper bound on skewness.

    ``exact`` is True only when the search proved no smaller set works.
    ``embedding`` is the Euler-checked embedding of g - removed (see
    embedding.embed_components) that proved the set planarizing; it is
    None on a certificate built by hand. Consumers hand it to
    embedding.embedding_of with g - removed (light_cycle_general and
    build_drawing do), which checks a stored one against that graph and
    builds one for a hand-built certificate.
    """

    value: int
    removed: FrozenSet[Edge]
    exact: bool
    embedding: Optional[RotationEmbedding] = field(default=None, compare=False, repr=False)

    def verify(self, g: Graph) -> bool:
        return len(self.removed) == self.value and is_planar(delete_edges(g, self.removed))


def _certified(g: Graph, removed: Iterable[Edge], exact: bool) -> SkewnessCertificate:
    """The certificate of a removal set, once the embedding of g - removed
    has been built and Euler-checked, outside the search that found it."""
    removed = frozenset(removed)
    embedding = embed_components(delete_edges(g, removed))
    if embedding is None:
        raise CrossboundError(
            f"skewness certificate of value {len(removed)} fails verification"
        )
    return SkewnessCertificate(len(removed), removed, exact, embedding)


def edge_count_bound(n: int, m: int, gamma: float) -> int:
    """m - floor(gamma (n - 2) / (gamma - 2)), and 0 when that is negative,
    when n < 3 or when gamma is math.inf: a lower bound on the skewness of
    every graph with n vertices, m edges and girth at least gamma, for
    3 <= gamma <= 2n - 2.

    Proof: let R planarize such a graph G. G - R is planar with girth at
    least gamma. Join its components by bridges, which close no cycle; the
    result H is planar with the same n. If H is a tree it has n - 1 edges,
    at most gamma (n - 2) / (gamma - 2) because gamma <= 2n - 2. Otherwise
    every face of a plane drawing of H is bounded by a walk that contains a
    cycle, so of length at least gamma; the walks use every edge twice, so
    2|E(H)| >= gamma f, and Euler's f = |E(H)| - n + 2 gives
    |E(H)| <= gamma (n - 2) / (gamma - 2). Hence |R| >= m - |E(H)| is the
    bound.
    """
    if n < 3 or gamma == math.inf:
        return 0
    return max(0, m - gamma * (n - 2) // (gamma - 2))


def skewness_lower_bound(g: Graph) -> int:
    """edge_count_bound with the girth of g: |E| - (3|V| - 6) in general,
    |E| - (2|V| - 4) without triangles, and so on (a girth is at most
    |V|, so the bound applies).

    The bound is 0 as soon as g has a cycle of length at most
    2m / (m - n + 2), so the girth search stops at the first one; and it
    is 0 whatever the girth when m <= n - 2, so then there is no search.
    """
    n, m = g.n, g.m
    if m <= n - 2:
        return 0
    return edge_count_bound(n, m, girth(g, enough=2 * m / (m - n + 2)))


def certificate_at_lower_bound(g: Graph, removed: Iterable[Edge]) -> Optional[SkewnessCertificate]:
    """The exact certificate of ``removed``, one edge of each crossing pair
    of a drawing of g, when its size meets the skewness lower bound; None
    when it is larger.

    g - removed is planar: each crossing of the drawing loses one of its
    two edges, so what is left of the drawing is a plane drawing of
    g - removed (and _certified checks its embedding anyway). So
    sk(g) <= |removed|. Planarity holds component by component, so sk(g)
    is the sum of the components' skewness, and each component c has
    skewness_lower_bound(c) <= sk(c). A set whose size equals the sum of
    those bounds is therefore a minimum one.
    """
    removed = frozenset(removed)
    if len(removed) != sum(skewness_lower_bound(c) for c in components(g)):
        return None
    return _certified(g, removed, exact=True)


def _euler_core(gn: nx.Graph) -> nx.Graph:
    """gn itself when m <= 3n - 6; otherwise a copy of gn with vertices of
    degree <= 3 deleted, repeatedly, while m > 3n - 6, which is then a
    non-planar graph with n >= 5 and minimum degree >= 4 (K5 at n = 5).

    Deleting a vertex of degree d changes m - 3n by 3 - d >= 0, so once
    m > 3n - 6 it stays so, and the peeling runs until no vertex of degree
    <= 3 is left: the core is the 4-core of gn. Every simple graph on 3 or
    4 vertices has m <= 3n - 6, so from n >= 3 the count never falls below
    5, and by Euler's bound m <= 3n - 6 for planar graphs on n >= 3
    vertices the core is not planar. (A graph on at most 2 vertices peels
    to the empty graph, planar as it is.)
    """
    n, m = gn.number_of_nodes(), gn.number_of_edges()
    return gn if m <= 3 * n - 6 else nx.k_core(gn, 4)


def _search(gn: nx.Graph, depth: int, banned: frozenset) -> Optional[List[Edge]]:
    """Removal set of size <= depth making gn planar, or None.

    Branches over the edges of one Kuratowski subdivision; ``banned``
    prevents revisiting permutations of the same set.

    A node at depth 0 never branches, so a witness there could only be
    compared with None: the answer is ``[]`` when gn is planar and ``None``
    otherwise, whichever subdivision a witness would name. Such a node
    therefore takes the yes/no test, a single LR planarity test, whereas
    extracting a witness re-tests the graph about once per edge. Only
    nodes at depth >= 1 extract a witness, and they branch on its edges.

    A node at depth 1 takes its witness from _euler_core(gn), whose
    re-tests cost far less than gn's. Its answer is the least non-banned
    edge e for which gn - e is planar (or [] for a planar gn, or None),
    whichever witness it branches on: every such e lies in every
    Kuratowski subgraph of gn, since that subgraph would survive in
    gn - e otherwise, and a Kuratowski subgraph of the core is one of gn.
    Deeper nodes keep gn's own witness, so their branch order stays that
    of networkx's extraction on gn.
    """
    if depth == 0:
        return [] if planar_nx(gn) else None
    witness = witness_nx(_euler_core(gn) if depth == 1 else gn)
    if witness is None:
        return []
    for e in sorted(witness):
        if e in banned:
            continue
        gn.remove_edge(*e)
        sub = _search(gn, depth - 1, banned)
        gn.add_edge(*e)
        if sub is not None:
            return sorted([e] + sub)
        banned = banned | {e}
    return None


def skewness_exact(g: Graph, budget: Optional[int] = None) -> SkewnessCertificate:
    """Exact skewness with a removal-set witness, searched by size.

    ``budget`` caps the largest removal-set size tried (default: lower
    bound + 4). If the budget is exhausted the greedy heuristic's
    certificate is returned with exact=False.

    The certificate carries the Euler-checked embedding of g - removed,
    built after the search as its check. Size 0 is decided by building
    that embedding for g itself, so a planar g takes one LR test in all.
    """
    lb = skewness_lower_bound(g)
    if budget is None:
        budget = lb + 4
    if budget < lb:
        raise CrossboundError(f"budget {budget} below lower bound {lb}")
    if lb == 0:
        embedding = embed_components(g)
        if embedding is not None:
            return SkewnessCertificate(0, frozenset(), True, embedding)
    for size in range(max(lb, 1), budget + 1):
        # a fresh copy per size: _search's remove and re-add reorders the
        # adjacency, which would make the certificate depend on failed sizes
        found = _search(g.to_networkx(), size, frozenset())
        if found is not None:
            return _certified(g, found, exact=True)
    return planar_subgraph_heuristic(g)


def planar_subgraph_heuristic(g: Graph) -> SkewnessCertificate:
    """Greedy planar subgraph: spanning forest first, then each remaining
    edge in sorted order if planarity survives. Upper bound only."""
    gn = g.to_networkx()
    keep = nx.Graph()
    keep.add_nodes_from(g.vertices)
    # a DFS from each not yet visited vertex, ascending: a spanning forest
    keep.add_edges_from(nx.dfs_edges(gn))
    removed = []
    for e in g.edges():
        if keep.has_edge(*e):
            continue
        keep.add_edge(*e)
        if not planar_nx(keep):
            keep.remove_edge(*e)
            removed.append(e)
    return _certified(g, removed, exact=not removed)
