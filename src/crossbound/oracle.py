"""Exact crossing numbers for small graphs.

A drawing with k crossings is certified combinatorially: choose k unordered
pairs of independent edges (adjacent edges never cross and no pair crosses
twice in some optimal drawing, so nothing is lost), fix the order of
crossings along any edge involved more than once (every order is tried),
replace each crossing by a degree-4 dummy vertex, and planarity-test the
result. The graph has a drawing with at most k crossings iff some such
configuration planarizes.

Two proven rules skip only what cannot planarize: the level loop starts at
the skewness lower bound, and a configuration whose planarization without
its multiply-crossed edges is non-planar is dropped before any order is
tried. Exhaustive otherwise; budgets keep it at desk scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

import networkx as nx

from .embedding import planar_nx
from .errors import BudgetExceededError
from .graph import Edge, Graph, components
from .skewness import skewness_lower_bound

DEFAULT_MAX_K = 4
DEFAULT_MAX_EDGES = 20

Pair = Tuple[Edge, Edge]


@dataclass(frozen=True)
class CrossingConfig:
    """A witness drawing scheme: which edge pairs cross, and in what order
    along each edge crossed more than once."""

    pairs: FrozenSet[Pair]
    orders: Tuple[Tuple[Edge, Tuple[Edge, ...]], ...]

    @property
    def k(self) -> int:
        return len(self.pairs)


def _independent_pairs(g: Graph) -> List[Pair]:
    pairs = []
    edges = sorted(g.edges())
    for e, f in itertools.combinations(edges, 2):
        if len({e[0], e[1], f[0], f[1]}) == 4:
            pairs.append((e, f))
    return pairs


def planarize_config(g: Graph, pairs, orders: Dict[Edge, Tuple[Edge, ...]]) -> nx.Graph:
    """The planarization graph of a crossing configuration, as a networkx
    graph ready for the planarity test.

    Each edge becomes a chain through its crossing dummies (in the given
    order, oriented from the low endpoint); each crossing pair shares one
    dummy. Dummy ids start above the host graph's ids.
    """
    next_id = (max(g.vertices) + 1) if g.n else 0
    dummy = {p: i for i, p in enumerate(sorted(pairs), start=next_id)}
    crossings: Dict[Edge, List[Edge]] = {}
    for e, f in pairs:
        crossings.setdefault(e, []).append(f)
        crossings.setdefault(f, []).append(e)
    gn = nx.Graph()
    gn.add_nodes_from(g.vertices)
    for e in g.edges():
        partners = crossings.get(e)
        if not partners:
            gn.add_edge(*e)
            continue
        seq = orders.get(e, tuple(sorted(partners)))
        nx.add_path(gn, [e[0]] + [dummy[tuple(sorted((e, f)))] for f in seq] + [e[1]])
    return gn


def _combo_witness(g: Graph, combo) -> Optional[CrossingConfig]:
    """The configuration ``combo`` with the first crossing orders, in
    permutation order, under which it planarizes g; None if none does.

    One order-free test comes first: the multiply-crossed edges, and every
    pair they are in, are left out. Deleting those edges' chains from the
    planarization under any order leaves a subdivision of this graph (each
    single-crossed partner keeps a degree-2 dummy) plus isolated dummies;
    so if this graph is non-planar, no order works.
    """
    crossings: Dict[Edge, List[Edge]] = {}
    for e, f in combo:
        crossings.setdefault(e, []).append(f)
        crossings.setdefault(f, []).append(e)
    multi = [e for e, ps in crossings.items() if len(ps) > 1]
    if multi:
        rest = [(e, f) for e, f in combo if e not in multi and f not in multi]
        free = planarize_config(g, rest, {})
        free.remove_edges_from(multi)
        if not planar_nx(free):
            return None
    order_sets = [itertools.permutations(sorted(crossings[e])) for e in multi]
    for chosen in itertools.product(*order_sets):
        orders = dict(zip(multi, chosen))
        if planar_nx(planarize_config(g, combo, orders)):
            return CrossingConfig(frozenset(combo), tuple(sorted(orders.items())))
    return None


def _level_witness(g: Graph, pool: List[Pair], k: int) -> Optional[CrossingConfig]:
    """First (lexicographic) k-pair configuration whose planarization is
    planar, or None."""
    for combo in itertools.combinations(pool, k):
        wit = _combo_witness(g, combo)
        if wit is not None:
            return wit
    return None


def _fewest_crossings(g: Graph, top: int, max_edges: int) -> Optional[CrossingConfig]:
    """The level loop: a planarizing configuration of g with the fewest
    crossings, searched over levels skewness_lower_bound(g)..top; None if
    there is none.

    No lower level can planarize. Deleting one edge per crossing of a
    drawing leaves a planar graph, so cr(g) >= sk(g); and sk(g) is at least
    m - (3n - 6), or m - (2n - 4) for bipartite g, since a (bipartite)
    planar graph on n >= 3 vertices, connected or not, has no more edges.
    """
    if g.m > max_edges:
        raise BudgetExceededError(f"|E|={g.m} above budget {max_edges}")
    pool = _independent_pairs(g)
    for level in range(skewness_lower_bound(g), top + 1):
        wit = _level_witness(g, pool, level)
        if wit is not None:
            return wit
    return None


def cr_at_most(
    g: Graph,
    k: int,
    max_k: int = DEFAULT_MAX_K,
    max_edges: int = DEFAULT_MAX_EDGES,
) -> Tuple[bool, Optional[CrossingConfig]]:
    """Decide cr(g) <= k by exhausting configurations of up to k crossings.

    Returns (True, witness) or (False, None). Raises BudgetExceededError
    when k or the edge count is beyond the configured budget.
    """
    if k < 0:
        return False, None
    if k > max_k:
        raise BudgetExceededError(f"k={k} above budget {max_k}")
    wit = _fewest_crossings(g, k, max_edges)
    return wit is not None, wit


def crossing_number(
    g: Graph,
    max_k: int = DEFAULT_MAX_K,
    max_edges: int = DEFAULT_MAX_EDGES,
) -> int:
    """Exact cr(g), summed over connected components.

    Raises BudgetExceededError carrying the established fact cr(g) > max_k
    when the search space is exhausted without a witness.
    """
    total = 0
    for comp in components(g):
        wit = _fewest_crossings(comp, max_k, max_edges)
        if wit is None:
            raise BudgetExceededError(
                "cr exceeds budget on a component", established=f"cr > {max_k}"
            )
        total += wit.k
    return total
