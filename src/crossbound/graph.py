"""Immutable simple undirected graphs and mutation-by-copy operations.

Vertices are non-negative integers with stable ids: deletion preserves ids,
contraction keeps the lower id of each merged pair. All operations are pure
functions returning Graph values; a Graph is immutable, so one that changes
nothing may return its input. A graph keeps no derived state but its edge
tuple and hash; its symmetries are searched when asked for, as a generating
set.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import networkx as nx
from networkx.readwrite.graph6 import data_to_n, n_to_data

from .errors import DuplicateEdgeError, GraphFormatError, MissingEdgeError

Edge = Tuple[int, int]


def norm_edge(u: int, v: int) -> Edge:
    """Canonical (low, high) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


class Graph:
    """A simple undirected graph: no loops, no parallel edges.

    Immutable after construction; equality and hashing are by vertex set
    and edge set. The edge tuple and the hash are computed once, when
    first asked for.
    """

    __slots__ = ("_adj", "_hash", "_edges")

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[Edge] = ()):
        adj: Dict[int, set] = {int(v): set() for v in vertices}
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            if u < 0 or v < 0:
                raise GraphFormatError(f"negative vertex id in edge ({u}, {v})")
            adj.setdefault(u, set())
            adj.setdefault(v, set())
            adj[u].add(v)
            adj[v].add(u)
        self._adj: Dict[int, Tuple[int, ...]] = {
            v: tuple(sorted(nbrs)) for v, nbrs in sorted(adj.items())
        }
        self._hash = None
        self._edges: Optional[Tuple[Edge, ...]] = None

    # -- basic queries ----------------------------------------------------

    @property
    def vertices(self) -> Tuple[int, ...]:
        return tuple(self._adj.keys())

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def neighbors(self, v: int) -> Tuple[int, ...]:
        return self._adj[v]

    def adjacency(self) -> Mapping[int, Tuple[int, ...]]:
        """Each vertex's sorted neighbors, in vertex order: a read-only view."""
        return MappingProxyType(self._adj)

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def edges(self) -> Tuple[Edge, ...]:
        """Every edge as (low, high), in lexicographic order: the adjacency
        is built sorted."""
        if self._edges is None:
            self._edges = tuple(
                (u, v) for u in self._adj for v in self._adj[u] if u < v
            )
        return self._edges

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.vertices, self.edges()))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- conversions -------------------------------------------------------

    def to_networkx(self) -> nx.Graph:
        g = nx.Graph()
        g.add_nodes_from(self.vertices)
        g.add_edges_from(self.edges())
        return g

    @classmethod
    def from_networkx(cls, g: nx.Graph) -> "Graph":
        return cls(g.nodes(), ((u, v) for u, v in g.edges()))


def min_degree(g: Graph) -> int:
    """Minimum vertex degree; errors on the empty graph."""
    if g.n == 0:
        raise GraphFormatError("min_degree of empty graph")
    return min(g.degree(v) for v in g.vertices)


def delete_edge(g: Graph, e: Edge) -> Graph:
    """Copy of g without edge e; the vertex set is unchanged."""
    return delete_edges(g, [e])


def delete_edges(g: Graph, edges: Iterable[Edge]) -> Graph:
    """g without ``edges``, g itself if there are none; MissingEdgeError if
    one is not an edge of g. Every removal set is checked here, and only
    here."""
    drop = {norm_edge(u, v) for u, v in edges}
    for e in drop:
        if not g.has_edge(*e):
            raise MissingEdgeError(f"{e} is not an edge")
    if not drop:
        return g
    return Graph(g.vertices, (f for f in g.edges() if f not in drop))


def contract_edges(g: Graph, contract: Iterable[Edge]) -> Tuple[Graph, Dict[int, int]]:
    """Contract every edge in ``contract``; simplify the result.

    Parallel edges created by a merge are collapsed to one and loops are
    dropped, so the result is again simple. Returns the contracted graph
    and the vertex mapping old id -> merged id; each merge keeps the lower
    id of the pair, and merges chain through unions of contracted edges.
    """
    contract = [norm_edge(u, v) for u, v in contract]
    for e in contract:
        if not g.has_edge(*e):
            raise MissingEdgeError(f"{e} is not an edge")
    mapping = component_roots(g.vertices, contract)
    edges = {
        norm_edge(mapping[u], mapping[v])
        for u, v in g.edges()
        if mapping[u] != mapping[v]
    }
    return Graph(set(mapping.values()), edges), mapping


def girth(g: Graph, enough: float = 0) -> float:
    """The length of a shortest cycle of g, math.inf for a forest; or, once
    a cycle of length at most ``enough`` is found, that cycle's length.

    A triangle is looked for first, lazily: each edge is tried from its
    lower-degree end against the neighbour set of the other end, which is
    built when first needed, so on a triangulation the first edges tried
    find one. Then a breadth-first search from each vertex of degree >= 3
    finds the shortest cycle through it that is shorter than the best so
    far, stopping at the depth where none can close. A cycle through no
    such vertex is a whole component in which every degree is 2, and its
    length is that component's order.
    """
    adj = g._adj
    sets: Dict[int, set] = {}
    for u, nbrs in adj.items():
        for v in nbrs:
            if (len(nbrs), u) < (len(adj[v]), v):
                far = sets.get(v) or sets.setdefault(v, set(adj[v]))
                if any(w in far for w in nbrs):
                    return 3
    roots = component_roots(adj, g.edges())
    branched = {r for v, r in roots.items() if len(adj[v]) != 2}
    rings = Counter(r for r in roots.values() if r not in branched)  # components that are cycles
    best = min(rings.values(), default=math.inf)
    for root, nbrs in adj.items():
        if best <= max(enough, 4):  # no triangle: 4 is the least left
            return best
        if len(nbrs) < 3:
            continue
        depth, parent, frontier = {root: 0}, {root: None}, [root]
        while frontier and 2 * depth[frontier[0]] + 1 < best:
            ahead = []
            for x in frontier:
                for y in adj[x]:
                    if y not in depth:
                        depth[y], parent[y] = depth[x] + 1, x
                        ahead.append(y)
                    elif y != parent[x]:
                        best = min(best, depth[x] + depth[y] + 1)
            frontier = ahead
    return best


# Most maps automorphisms() returns: 1 + n(n - 1)/2 reaches it at n = 64.
MAX_AUTOMORPHISMS = 2000


def automorphisms(g: Graph, fixing: Sequence[Tuple[Edge, Edge]] = ()) -> Tuple[Dict[int, int], ...]:
    """A generating set, the identity first, of the automorphisms of g that
    send each pair in ``fixing`` (two independent edges of g) onto itself;
    at most MAX_AUTOMORPHISMS maps. Each maps every vertex that has an
    edge; isolated vertices are left out, so they cost nothing (each may
    be taken as fixed).

    Backtracking over a breadth-first vertex order that starts from the
    fixed pairs' endpoints. A candidate image has the vertex's degree, is
    adjacent to the image of its breadth-first parent, and agrees with
    adjacency to every vertex already mapped; an endpoint's image is an
    endpoint of each of its pairs, and a pair's edge whose ends are both
    mapped goes to an edge of that pair. A complete map that agrees
    everywhere is an automorphism sending each pair into, so onto, itself;
    each check drops only partial maps that no such automorphism extends.
    Each vertex tries itself first, so the identity is found first. After
    a map, the search goes back to the first vertex it moves, v_i: below
    the identity on v_0..v_{i-1}, one map per image of v_i, that is one
    per coset of the stabilizer of v_0..v_i in the stabilizer of
    v_0..v_{i-1}. Such coset representatives, over every i, generate the
    group (Sims), and number at most 1 + n(n - 1)/2.
    """
    # endpoint -> for each fixed pair at it, that pair's endpoint -> other end of its edge
    mates: Dict[int, List[Dict[int, int]]] = {}
    for (a, b), (c, d) in fixing:
        mate = {a: b, b: a, c: d, d: c}
        for v in mate:
            mates.setdefault(v, []).append(mate)
    order: List[int] = []
    parent: Dict[int, Optional[int]] = {}
    for root in (*mates, *g.vertices):
        if root in parent or not g.degree(root):
            continue
        queue = list(mates) if root in mates else [root]  # the endpoints first, together
        parent.update(dict.fromkeys(queue))
        for v in queue:  # grows while it is read: breadth first
            for w in g.neighbors(v):
                if w not in parent:
                    parent[w] = v
                    queue.append(w)
        order += queue
    if not order:
        return ({},)
    adj = {v: set(g.neighbors(v)) for v in order}
    everyone = sorted(order)
    image: Dict[int, int] = {}
    used: set = set()

    def candidates(v: int):
        # read when v is reached; the vertices before v keep their images
        # while the list is used
        u = parent[v]
        if u is not None:
            pool = g.neighbors(image[u])
        else:  # a root, or a fixed pair's endpoint: to an endpoint of each of its
            # pairs, and to the mate of its mate's image once that is mapped
            pool = everyone
            for m in mates.get(v, ()):
                pool = [c for c in pool if c in m and (m[v] not in image or m[c] == image[m[v]])]
        mapped = {image[w] for w in adj[v] if w in image}
        d = len(adj[v])
        fits = [c for c in pool if c not in used and len(adj[c]) == d and adj[c] & used == mapped]
        fits.sort(key=lambda c: c != v)  # v first: the identity is found first
        return iter(fits)

    found: List[Dict[int, int]] = []
    stack = [candidates(order[0])]
    while stack:
        v = order[len(stack) - 1]
        if v in image:
            used.discard(image.pop(v))
        c = next(stack[-1], None)
        if c is None:
            stack.pop()
            continue
        image[v] = c
        used.add(c)
        if len(stack) < len(order):
            stack.append(candidates(order[len(stack)]))
            continue
        found.append(dict(image))
        if len(found) == MAX_AUTOMORPHISMS:
            break
        # back to the first vertex the map moves (the last for the identity)
        i = next((i for i, w in enumerate(order) if image[w] != w), len(order) - 1)
        for w in order[i + 1:]:
            used.discard(image.pop(w))
        del stack[i + 1:]
    return tuple(found)


def component_roots(vertices: Iterable[int], edges: Iterable[Edge]) -> Dict[int, int]:
    """Union-find over ``edges``: maps each vertex to the least vertex in
    its connected component, in the order of ``vertices``. Any ordered
    values serve as vertices, such as edges when closing edge orbits."""
    parent = {v: v for v in vertices}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return {v: find(v) for v in parent}


def components(g: Graph) -> List[Graph]:
    """The connected components of g with an edge, as graphs ordered by
    lowest vertex id: a connected g with an edge is its own one component,
    and an edgeless g has none."""
    roots = component_roots(g.vertices, g.edges())
    if g.m and len(set(roots.values())) == 1:
        return [g]
    parts: Dict[int, list] = {}
    for e in g.edges():  # lexicographic: each component's first edge is at its root
        parts.setdefault(roots[e[0]], []).append(e)
    return [Graph((), es) for es in parts.values()]


# -- text formats ----------------------------------------------------------

_FORMATS = ("graph6", "edgelist")

# Largest vertex or edge count an input may have, checked before any Graph
# is built; maximal-planar:400 (1194 edges) is the largest input in use.
MAX_GRAPH_SIZE = 2000


def check_graph_size(what: str, n: int, m: int):
    if max(n, m) > MAX_GRAPH_SIZE:
        raise GraphFormatError(f"{what}: {n} vertices, {m} edges; the limit is {MAX_GRAPH_SIZE}")


def parse_graph(text: bytes, fmt: str) -> Graph:
    """Parse graph6 or whitespace edge-list bytes into a Graph.

    Edge lists are 0-indexed, one edge per line, '#' starts a comment;
    a repeated edge is an error, not a dedupe. Inputs over MAX_GRAPH_SIZE
    vertices (graph6 size field, edge list largest id + 1) or edges are
    rejected before any graph is built.
    """
    if isinstance(text, str):
        text = text.encode("utf-8")
    if fmt == "graph6":
        data = text.strip()
        if data.startswith(b">>graph6<<"):
            data = data[len(b">>graph6<<"):]
        return _parse_graph6(data)
    if fmt == "edgelist":
        edges = []
        seen = set()
        max_v = -1
        try:
            lines = text.decode("ascii").splitlines()
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"edge list is not ASCII (byte {exc.start})") from None
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: expected two vertex ids")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: non-integer vertex id") from exc
            if u < 0 or v < 0:
                raise GraphFormatError(f"line {lineno}: negative vertex id")
            if u == v:
                raise GraphFormatError(f"line {lineno}: self-loop at {u}")
            e = norm_edge(u, v)
            if e in seen:
                raise DuplicateEdgeError(f"line {lineno}: duplicate edge {e}")
            seen.add(e)
            edges.append(e)
            max_v = max(max_v, u, v)
        check_graph_size("edge list", max_v + 1, len(edges))
        return Graph(range(max_v + 1), edges)
    raise GraphFormatError(f"unknown format {fmt!r}; expected one of {_FORMATS}")


def _parse_graph6(data: bytes) -> Graph:
    """Decode a graph6 body by reading its set bits, as serialize_graph sets
    them: bit k = v(v-1)/2 + u of the upper triangle is edge u < v. Bits past
    the triangle (the last unit's padding) are ignored."""
    if not re.fullmatch(rb"[?-~]+", data):  # bytes 63..126
        raise GraphFormatError("bad graph6 input: empty, or a byte outside 63..126")
    units = data.translate(bytes(63) + bytes(range(64)) + bytes(129))  # byte c is unit c - 63
    try:
        n, body = data_to_n(units)
    except IndexError as exc:
        raise GraphFormatError(f"bad graph6 input: {exc}") from exc
    check_graph_size("graph6 input", n, int.from_bytes(body, "big").bit_count())
    pairs = n * (n - 1) // 2
    if len(body) != (pairs + 5) // 6:
        raise GraphFormatError(f"bad graph6 input: Expected {pairs} bits but got {len(body) * 6} in graph6")
    edges = []
    # six bits per unit, most significant first; only non-zero units are read
    for hit in re.finditer(rb"[^\x00]", body):
        i = hit.start()
        for j in range(6):
            k = 6 * i + j
            if body[i] & (32 >> j) and k < pairs:
                v = (1 + math.isqrt(8 * k + 1)) // 2
                edges.append((k - v * (v - 1) // 2, v))
    return Graph(range(n), edges)


def serialize_graph(g: Graph, fmt: str) -> bytes:
    """Inverse of parse_graph. graph6 requires contiguous ids 0..n-1."""
    if fmt == "graph6":
        if g.vertices != tuple(range(g.n)):
            raise GraphFormatError("graph6 output needs vertex ids 0..n-1")
        n = g.n
        # bit v(v-1)/2 + u of the upper triangle, column by column, is edge
        # u < v; six bits per unit, most significant first; unit x prints as x + 63
        bits = bytearray((n * (n - 1) // 2 + 5) // 6)
        for u, v in g.edges():
            k = v * (v - 1) // 2 + u
            bits[k // 6] |= 32 >> k % 6
        units = bytes(n_to_data(n)) + bits
        return units.translate(bytes(range(63, 127)) + bytes(192)) + b"\n"
    if fmt == "edgelist":
        lines = [f"{u} {v}" for u, v in g.edges()]
        return ("\n".join(lines) + "\n").encode("ascii") if lines else b""
    raise GraphFormatError(f"unknown format {fmt!r}; expected one of {_FORMATS}")
