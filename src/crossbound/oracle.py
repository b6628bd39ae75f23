"""Exact crossing numbers for small graphs.

A drawing with k crossings is certified combinatorially: choose k unordered
pairs of independent edges (adjacent edges never cross and no pair crosses
twice in some optimal drawing, so nothing is lost), fix the order of
crossings along any edge involved more than once (every order is tried),
replace each crossing by a degree-4 dummy vertex, and planarity-test the
result. The graph has a drawing with at most k crossings iff some such
configuration planarizes.

Proven rules skip only what cannot planarize: the level loop starts at the
skewness lower bound; within a level, a configuration is cut as soon as its
pairs touch a vertex v more than k - lb(g - v) times or contain an edge e
more than k - lb(g - e) times (deleting v or e from its drawing leaves a
drawing of g - v or g - e with only the other crossings; the lb are the
girth-aware edge-count bounds of skewness.edge_count_bound); a
configuration whose planarization without its multiply-crossed edges is
non-planar is dropped before any order is tried; and once every
configuration containing some pairs P and q has failed, so has every one
containing P and s(q), for each s in the group generated by the maps
graph.automorphisms returns as fixing every pair of P (q's orbit is
closed only once q has failed). Exhaustive otherwise; budgets keep it at
desk scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .embedding import is_planar
from .errors import BudgetExceededError, CrossboundError
from .graph import Edge, Graph, automorphisms, components, delete_edges, girth, norm_edge
from .skewness import edge_count_bound, skewness_lower_bound

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
    for e, f in itertools.combinations(g.edges(), 2):
        if len({e[0], e[1], f[0], f[1]}) == 4:
            pairs.append((e, f))
    return pairs


def _partners(pairs) -> Dict[Edge, List[Edge]]:
    """Each edge crossed in ``pairs`` -> the edges it crosses, in pair order."""
    crossings: Dict[Edge, List[Edge]] = {}
    for e, f in pairs:
        crossings.setdefault(e, []).append(f)
        crossings.setdefault(f, []).append(e)
    return crossings


def planarize_config(g: Graph, pairs, orders: Dict[Edge, Tuple[Edge, ...]]) -> Graph:
    """The planarization graph of a crossing configuration.

    Each edge becomes a chain through its crossing dummies (in the given
    order, oriented from the low endpoint), and an uncrossed edge is its
    own one-edge chain; each crossing pair shares one dummy. Dummy ids
    start above the host graph's ids.
    """
    next_id = (max(g.vertices) + 1) if g.n else 0
    dummy = {p: i for i, p in enumerate(sorted(pairs), start=next_id)}
    crossings = _partners(pairs)
    chains = []
    for e in g.edges():
        seq = orders.get(e, tuple(sorted(crossings.get(e, ()))))
        chain = [e[0]] + [dummy[tuple(sorted((e, f)))] for f in seq] + [e[1]]
        chains += zip(chain, chain[1:])
    return Graph(g.vertices, chains)


def _combo_witness(g: Graph, combo) -> Optional[CrossingConfig]:
    """The configuration ``combo`` with the first crossing orders, in
    permutation order, under which it planarizes g; None if none does.

    One order-free test comes first: the multiply-crossed edges, and every
    pair they are in, are left out. Deleting those edges' chains from the
    planarization under any order leaves a subdivision of this graph (each
    single-crossed partner keeps a degree-2 dummy) plus isolated dummies;
    so if this graph is non-planar, no order works.
    """
    crossings = _partners(combo)
    multi = [e for e, ps in crossings.items() if len(ps) > 1]
    if multi:
        rest = [(e, f) for e, f in combo if e not in multi and f not in multi]
        if not is_planar(planarize_config(delete_edges(g, multi), rest, {})):
            return None
    order_sets = [itertools.permutations(sorted(crossings[e])) for e in multi]
    for chosen in itertools.product(*order_sets):
        orders = dict(zip(multi, chosen))
        if is_planar(planarize_config(g, combo, orders)):
            return CrossingConfig(frozenset(combo), tuple(sorted(orders.items())))
    return None


def _deletion_bounds(g: Graph) -> Tuple[Dict[int, int], int]:
    """Lower bounds on cr(g - v), for each vertex v that has an edge, and on
    cr(g - e), one for every edge e.

    cr >= sk, and each is skewness.edge_count_bound of the smaller graph's
    vertex and edge counts with the girth of g: deleting a vertex or an
    edge destroys cycles and makes none, so the girth can only rise, and a
    higher girth only raises the bound. (A girth of g is at most n, within
    the bound's range for n - 1 >= 3 vertices.)
    """
    n, m, gamma = g.n, g.m, girth(g)
    vertex_lb = {
        v: edge_count_bound(n - 1, m - g.degree(v), gamma) for v in g.vertices if g.degree(v)
    }
    return vertex_lb, edge_count_bound(n, m - 1, gamma)


def _level_witness(g: Graph, k: int) -> Optional[CrossingConfig]:
    """First (lexicographic) k-pair configuration whose planarization is
    planar, or None.

    The k-subsets of the independent pairs are walked in
    ``itertools.combinations`` order, as a tree over their prefixes; a
    prefix's dead pairs are skipped in its whole subtree. Once a child of a
    prefix has failed, ``graph.automorphisms`` is asked once for maps that
    fix the prefix's pairs, and each failed child's orbit under them is
    closed into the dead pairs. Only k-sets that cannot planarize are skipped, so
    the first witness is the one the flat loop finds, for any set of maps.

    The counting rules: let a k-set S planarize g. A plane embedding of its
    planarization draws g with at most k crossings, one at each pair of S
    (a dummy where the chains only touch is not one). Deleting v with its
    edges draws g - v with at most the pairs of S that do not touch v, so
    S has at most k - lb(g - v) pairs that touch v; deleting an edge e the
    same way, at most k - lb(g - e) pairs that contain e. A prefix with
    more is dead with its whole subtree, as its counts only grow: for v,
    this is (its pairs avoiding v) + (slots left) < lb(g - v). A level
    where some k - lb(g - v) is negative has no witness at all.

    The symmetry rule: let the subtree of prefix P + (q) be exhausted with
    no witness. Every k-set S containing P and q then fails: the i-th least
    element of S is at most the i-th least of P + (q), so S lies in that
    subtree or before it, and everything before it has failed or was
    skipped as failing, by either rule (a subtree the counting rules cut
    is exhausted in this sense). Each map asked for is an automorphism
    that sends every pair of P onto itself, so every product s of them is
    one too. A k-set containing P and s(q) is the image under s of one
    containing P and q, and its planarization (under the image orders) is
    isomorphic; every order is tried, so it fails too. So q's whole orbit
    under the maps is dead in the rest of P's subtree.
    """
    vertex_lb, edge_lb = _deletion_bounds(g)
    room = {v: k - lb for v, lb in vertex_lb.items()}  # most pairs that may touch v
    if min(room.values(), default=0) < 0:
        return None
    edge_room = k - edge_lb  # most pairs that may contain one edge
    touching = dict.fromkeys(room, 0)
    containing = dict.fromkeys(g.edges(), 0)
    pool = _independent_pairs(g)
    index = {pair: i for i, pair in enumerate(pool)}

    def image(s: Dict[int, int], q: int) -> int:
        # the index of the pair pool[q] maps to under s
        (a, b), (c, d) = pool[q]
        e, f = norm_edge(s[a], s[b]), norm_edge(s[c], s[d])
        return index[(e, f) if e < f else (f, e)]

    def fits(pair: Pair) -> bool:
        return all(containing[e] < edge_room for e in pair) and all(
            touching[v] < room[v] for e in pair for v in e)

    def count(pair: Pair, step: int):
        for e in pair:
            containing[e] += step
            for v in e:
                touching[v] += step

    def walk(prefix: Tuple[int, ...], dead: set) -> Optional[CrossingConfig]:
        if len(prefix) == k:
            return _combo_witness(g, [pool[i] for i in prefix])
        dead, maps = set(dead), None
        for q in range(prefix[-1] + 1 if prefix else 0, len(pool) - k + len(prefix) + 1):
            if q in dead or not fits(pool[q]):
                continue
            count(pool[q], 1)
            wit = walk(prefix + (q,), dead)
            count(pool[q], -1)
            if wit is not None:
                return wit
            if maps is None:
                maps = automorphisms(g, [pool[i] for i in prefix])
            orbit, grow = {q}, [q]
            for p in grow:  # grows while it is read: closes q's orbit under the maps
                fresh = {image(s, p) for s in maps} - orbit
                orbit |= fresh
                grow += fresh
            dead |= orbit
        return None

    return walk((), set())


def _fewest_crossings(g: Graph, k: int, max_k: int,
                      max_edges: int) -> Optional[List[CrossingConfig]]:
    """The level loop, run on each connected component of g with an edge,
    as components(g) yields them: each one's fewest-crossing planarizing
    configuration, over levels skewness_lower_bound(comp)..min(k, max_k);
    None if one has none and k <= max_k, so cr(g) > k.

    No lower level can planarize: deleting one edge per crossing of a
    drawing leaves a planar graph, so cr >= sk >= skewness_lower_bound.
    cr of a disjoint union is the sum of its components' cr: a drawing
    restricted to one component draws that component, and components drawn
    apart do not cross. So a planarizing configuration with the fewest
    crossings has no pair across two components, and cr(g) <= k exactly
    when the components' minima sum to at most k; an edgeless graph has cr 0.

    Raises BudgetExceededError for a component above max_edges edges, or
    one with no witness within max_k < k (undecided, but cr(g) > max_k);
    CrossboundError, before any answer, if a budget is negative.
    """
    if max_k < 0 or max_edges < 0:
        raise CrossboundError(f"budgets must be >= 0: max_k={max_k}, max_edges={max_edges}")
    if k < 0:
        return None
    witnesses = []
    for comp in components(g):
        if comp.m > max_edges:
            raise BudgetExceededError(f"|E|={comp.m} above budget {max_edges}")
        levels = range(skewness_lower_bound(comp), min(k, max_k) + 1)
        wit = next(filter(None, (_level_witness(comp, level) for level in levels)), None)
        if wit is None and k > max_k:
            raise BudgetExceededError(f"k={k} above budget {max_k}", established=f"cr > {max_k}")
        if wit is None:
            return None
        witnesses.append(wit)
    return witnesses


def cr_at_most(
    g: Graph,
    k: int,
    max_k: int = DEFAULT_MAX_K,
    max_edges: int = DEFAULT_MAX_EDGES,
) -> Tuple[bool, Optional[CrossingConfig]]:
    """Decide cr(g) <= k by _fewest_crossings, under its budget rule and
    errors: (False, None), or (True, its witnesses joined into one).
    """
    witnesses = _fewest_crossings(g, k, max_k, max_edges)
    if witnesses is None or sum(wit.k for wit in witnesses) > k:
        return False, None
    return True, CrossingConfig(frozenset().union(*(wit.pairs for wit in witnesses)),
                                tuple(sorted(o for wit in witnesses for o in wit.orders)))


def crossing_witnesses(
    g: Graph,
    max_k: int = DEFAULT_MAX_K,
    max_edges: int = DEFAULT_MAX_EDGES,
) -> List[CrossingConfig]:
    """A planarizing configuration with the fewest crossings for each
    connected component of g with an edge, in components order: its k is
    that component's exact cr.

    Raises BudgetExceededError carrying the established fact cr(g) > max_k
    when some component's search is exhausted without a witness
    (CrossboundError if a budget is negative).
    """
    witnesses = _fewest_crossings(g, max_k, max_k, max_edges)
    if witnesses is None:
        raise BudgetExceededError("cr exceeds budget on a component", established=f"cr > {max_k}")
    return witnesses


def crossing_number(
    g: Graph,
    max_k: int = DEFAULT_MAX_K,
    max_edges: int = DEFAULT_MAX_EDGES,
) -> int:
    """Exact cr(g): the crossings of crossing_witnesses(g), summed over
    connected components, with its budgets and budget errors."""
    return sum(wit.k for wit in crossing_witnesses(g, max_k, max_edges))
