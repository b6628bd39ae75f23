"""Nearly-light cycles: cycles whose non-apex degree surplus is small.

For a cycle C the lightness measure is
    mu(C) = min over v in C of  sum_{u in C, u != v} (deg(u) - 2),
i.e. the degree surplus of C after excusing one (maximum-degree) vertex.

Two constructive searches are provided: a face-weight argument for planar
graphs (guaranteeing mu <= 10 when the minimum degree is at least 3) and a
delete/contract/lift induction for graphs that become planar after removing
t edges (guaranteeing mu <= t + 10). A brute-force enumerator over short
cycles serves as the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import networkx as nx

from .embedding import RotationEmbedding, embedding_of
from .errors import (BudgetExceededError, CrossboundError, InductionFallbackError,
                     NotACycleError)
from .graph import (Edge, Graph, contract_edges, delete_edge, delete_edges,
                    min_degree, norm_edge)


@dataclass(frozen=True)
class CycleWitness:
    """A cycle plus the apex vertex attaining mu and the mu value itself.

    ``fallback`` is set when the constructive induction had to hand over to
    the brute-force oracle (see light_cycle_general).
    """

    cycle: Tuple[int, ...]
    apex: int
    mu: int
    fallback: bool = False


def _check_cycle(g: Graph, cycle: Sequence[int]) -> Tuple[int, ...]:
    cyc = tuple(cycle)
    if len(cyc) < 3:
        raise NotACycleError(f"cycle needs >= 3 vertices, got {len(cyc)}")
    if len(set(cyc)) != len(cyc):
        raise NotACycleError("repeated vertex in cycle")
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        if not g.has_edge(a, b):
            raise NotACycleError(f"({a}, {b}) is not an edge")
    return cyc


def mu(g: Graph, cycle: Sequence[int]) -> Tuple[int, int]:
    """mu value of a simple cycle and the apex attaining it.

    The apex is a maximum-degree vertex of the cycle (excluding it
    minimizes the surplus sum); ties go to the lowest id.
    """
    cyc = _check_cycle(g, cycle)
    total = sum(g.degree(u) - 2 for u in cyc)
    max_deg = max(g.degree(u) for u in cyc)
    apex = min(u for u in cyc if g.degree(u) == max_deg)
    return total - (max_deg - 2), apex


def _canonical_cycle(cycle: Sequence[int]) -> Tuple[int, ...]:
    """Lexicographically least rotation/reflection; for deterministic ties."""
    cyc = list(cycle)
    best = None
    for seq in (cyc, cyc[::-1]):
        i = seq.index(min(seq))
        rot = tuple(seq[i:] + seq[:i])
        if best is None or rot < best:
            best = rot
    return best


def _witness(g: Graph, cycle: Sequence[int]) -> CycleWitness:
    """The witness of a cycle of g: its canonical form, apex and mu. Only
    light_cycle_general's fallback sets ``fallback``, on a copy."""
    m, apex = mu(g, cycle)
    return CycleWitness(_canonical_cycle(cycle), apex, m)


# Cycles brute_force_min_mu enumerates before it gives up. Its largest use in
# the tests, the icosahedron at length <= 11, enumerates 11,598.
MAX_ORACLE_CYCLES = 100_000


def brute_force_min_mu(g: Graph, max_len: int) -> CycleWitness:
    """Global minimum mu over all simple cycles of length <= max_len.

    Exhaustive; the test oracle every constructive witness is checked
    against. Enumerating more than MAX_ORACLE_CYCLES cycles raises
    BudgetExceededError, whose ``established`` is the best witness found
    so far: its mu bounds the minimum from above.
    """
    best = None
    cycles = nx.simple_cycles(g.to_networkx(), length_bound=max_len)
    for count, raw in enumerate(cycles, 1):
        if count > MAX_ORACLE_CYCLES:
            raise BudgetExceededError(
                f"more than {MAX_ORACLE_CYCLES} cycles of length <= {max_len}",
                established=best,
            )
        wit = _witness(g, raw)
        if best is None or (wit.mu, wit.cycle) < (best.mu, best.cycle):
            best = wit
    if best is None:
        raise CrossboundError(f"no cycle of length <= {max_len}")
    return best


def light_cycle_planar(g: Graph, embedding: Optional[RotationEmbedding] = None) -> CycleWitness:
    """A cycle with mu <= 10 in a planar graph with minimum degree >= 3.

    Found by embedding g and returning the first face whose weight w
    satisfies w - len/2 + 1 > 0; Euler's formula forces such a face to
    exist, to have length <= 5, and (with min degree 3) to be a simple
    cycle whose mu is at most 10. ``embedding``, when given, must be g's as
    embed_components gives it (CrossboundError if not), and is searched
    instead of embedding g again. A non-planar g raises NonPlanarError.
    """
    if min_degree(g) < 3:
        raise CrossboundError("light_cycle_planar needs minimum degree >= 3")
    for f in embedding_of(g, embedding).faces:
        if f.weight - Fraction(f.length, 2) + 1 > 0:
            if not f.is_simple_cycle():
                continue
            wit = _witness(g, f.boundary)
            if wit.mu > 10 or f.length > 5:
                raise CrossboundError(
                    f"face-weight selection broke its guarantee: mu={wit.mu}, l={f.length}"
                )
            return wit
    raise CrossboundError("no qualifying face found (is the graph planar with min degree 3?)")


@dataclass
class ChordEvent:
    """Diagnostic record emitted when the chord branch of the induction fires."""

    lifted_cycle: Tuple[int, ...]
    chord: Edge
    returned_cycle: Tuple[int, ...]
    returned_mu: int
    recursive_mu: int
    t: int


def _blob_path(gp: Graph, cls: Sequence[int], a: int, b: int) -> List[int]:
    """Path from a to b inside the induced subgraph on cls (a small tree)."""
    if a == b:
        return [a]
    cls_set = set(cls)
    prev = {a: None}
    queue = [a]
    while queue:
        x = queue.pop(0)
        if x == b:
            path = []
            while x is not None:
                path.append(x)
                x = prev[x]
            return path[::-1]
        for y in gp.neighbors(x):
            if y in cls_set and y not in prev:
                prev[y] = x
                queue.append(y)
    raise InductionFallbackError("contraction class is not connected")


def _lift_cycle(
    gp: Graph, h_cycle: Sequence[int], mapping: Dict[int, int], deprioritize: Set[int]
) -> Tuple[int, ...]:
    """Expand a cycle of the contracted graph back into the host graph.

    Each contracted class is re-entered through concrete host edges; when
    several host edges realize one contracted edge, endpoints outside
    ``deprioritize`` (the degree-2 vertices being smoothed) are preferred,
    so length-2 detours appear only when the cycle really uses them.
    """
    classes: Dict[int, List[int]] = {}
    for old, new in mapping.items():
        classes.setdefault(new, []).append(old)
    k = len(h_cycle)
    # concrete host edge for each contracted cycle edge
    hops = []
    for i in range(k):
        x, y = h_cycle[i], h_cycle[(i + 1) % k]
        cands = [
            (p in deprioritize, q in deprioritize, p, q)
            for p in classes[x]
            for q in classes[y]
            if gp.has_edge(p, q)
        ]
        if not cands:
            raise InductionFallbackError("lift found no host edge for a contracted edge")
        _, _, p, q = min(cands)
        hops.append((p, q))
    lifted: List[int] = []
    for i in range(k):
        enter = hops[i - 1][1]   # where the previous hop lands in class of h_cycle[i]
        leave = hops[i][0]       # where the next hop departs
        lifted.extend(_blob_path(gp, classes[h_cycle[i]], enter, leave))
    if len(set(lifted)) != len(lifted):
        raise InductionFallbackError("lifted walk is not a simple cycle")
    return tuple(lifted)


def _induction(
    g: Graph, e0: List[Edge], trace: Optional[List[ChordEvent]],
    embedding: Optional[RotationEmbedding] = None,
) -> CycleWitness:
    """One delete/contract/lift level; ``embedding``, if known, is that of
    g - e0, and the last level (e0 empty) searches it or builds one.

    h - e0_h is a minor of g - e0, so it is planar with no test: a merge
    contracts an edge of g - e0, or a removed edge at a vi whose other edges
    are removed too (the smoothing prefers kept edges), which deletes the
    isolated vi; e0_h holds every image of a removed edge. A level that
    contracts nothing has h - e0_h = g - e0 and passes its embedding down."""
    if not e0:
        return light_cycle_planar(g, embedding)
    t = len(e0)
    e = min(e0)
    rest = [f for f in e0 if f != e]
    v1, v2 = e
    gp = delete_edge(g, e)

    contract = []
    for vi in (v1, v2):
        if g.degree(vi) == 3:
            # vi has degree 2 in gp; smooth it by contracting one incident edge,
            # preferring one that is not itself scheduled for removal
            rest_set = set(rest)
            nbrs = sorted(gp.neighbors(vi), key=lambda u: (norm_edge(vi, u) in rest_set, u))
            contract.append(norm_edge(vi, nbrs[0]))
    h, mapping = contract_edges(gp, contract)

    e0_h = sorted(
        {
            norm_edge(mapping[x], mapping[y])
            for x, y in rest
            if mapping[x] != mapping[y] and h.has_edge(mapping[x], mapping[y])
        }
    )
    if min_degree(h) < 3:
        raise InductionFallbackError("contraction dropped the minimum degree below 3")

    inner = _induction(h, e0_h, trace, None if contract else embedding)
    lifted = _lift_cycle(gp, inner.cycle, mapping, {v1, v2})

    on_cycle = set(lifted)
    if v1 in on_cycle and v2 in on_cycle:
        # e is a chord of the lifted cycle: return the better of the two
        # subcycles of lifted + e through the chord
        i, j = sorted((lifted.index(v1), lifted.index(v2)))
        sides = [side for side in (lifted[i : j + 1], lifted[j:] + lifted[: i + 1])
                 if len(side) >= 3]
        if not sides:
            raise InductionFallbackError("chord split produced no valid subcycle")
        best = min((_witness(g, side) for side in sides), key=lambda wit: (wit.mu, wit.cycle))
        if trace is not None:
            trace.append(
                ChordEvent(lifted, e, best.cycle, best.mu, inner.mu, t)
            )
        return best

    return _witness(g, lifted)


def light_cycle_general(
    g: Graph,
    e0: Iterable[Edge],
    trace: Optional[List[ChordEvent]] = None,
    embedding: Optional[RotationEmbedding] = None,
) -> CycleWitness:
    """A cycle with mu <= t + 10, where removing the t edges in e0 leaves
    g planar and the minimum degree of g is at least 3.

    ``embedding``, if given, is the Euler-checked embedding of g - e0 as
    embed_components gives it (a skewness certificate's). It must be of
    exactly g - e0 (CrossboundError if not), and then proves it planar with
    no LR test; with none given, it is built here, and a non-planar g - e0
    raises NonPlanarError. The induction adds at most one LR test to that,
    and none if no level contracts (no removed edge has an end of degree 3).

    Runs the delete/contract/lift induction. When an induction step leaves
    the hypotheses (contraction merged parallel edges and dropped a degree
    below 3, or the constructed witness misses its guarantee), the result
    is recomputed by the brute-force oracle and tagged ``fallback``; the
    oracle's cycle budget can then raise BudgetExceededError.
    """
    e0 = sorted({norm_edge(u, v) for u, v in e0})
    t = len(e0)
    base = delete_edges(g, e0)  # MissingEdgeError first, for an e0 not in g
    if min_degree(g) < 3:
        raise CrossboundError("light_cycle_general needs minimum degree >= 3")
    embedding = embedding_of(base, embedding)
    try:
        wit = _induction(g, e0, trace, embedding)
    except InductionFallbackError:
        wit = None
    if wit is not None and wit.mu <= t + 10:
        return wit
    return replace(brute_force_min_mu(g, max_len=t + 11), fallback=True)
