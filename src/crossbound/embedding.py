"""Planarity, combinatorial embeddings, faces, duals, and triangulation.

An embedding is stored as a rotation system: a cyclic order of neighbors
around each vertex. Faces are derived by the standard next-edge walk.
Construction checks that each rotation is a permutation of its vertex's
non-empty neighborhood and that the faces satisfy Euler's formula, so an
invalid embedding can never escape this module. Face lengths then sum to
2|E| and face weights to |V| by construction.

Face weights are exact rationals, computed when read: a vertex
contributes 1/deg once per appearance on the boundary walk.

Every yes/no planarity test and every embedding runs crossbound's own
left-right test (``_lr``), a port of networkx's that gives networkx's
rotations exactly. networkx is used only to extract Kuratowski witnesses.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Collection, Dict, FrozenSet, List, Optional, Tuple

import networkx as nx

from ._lr import lr_rotation, lr_test
from .errors import CrossboundError, GraphFormatError, NonPlanarError
from .graph import Edge, Graph, components, norm_edge


@dataclass(frozen=True)
class FaceRecord:
    """One face of an embedding.

    ``boundary`` lists the tail vertex of each directed edge on the walk,
    so ``length == len(boundary)`` counts edge-sides (a bridge contributes
    twice to its face). ``weight`` is the sum of 1/deg over the boundary,
    computed from ``graph`` on each read.
    """

    boundary: Tuple[int, ...]
    length: int
    graph: Graph = field(repr=False, compare=False)

    @property
    def weight(self) -> Fraction:
        return sum((Fraction(1, self.graph.degree(x)) for x in self.boundary), Fraction(0))

    def is_simple_cycle(self) -> bool:
        return self.length >= 3 and len(set(self.boundary)) == self.length


class RotationEmbedding:
    """A combinatorial planar embedding with derived, validated face list."""

    __slots__ = ("graph", "rotation", "faces", "_face_of")

    def __init__(self, graph: Graph, rotation: Dict[int, Tuple[int, ...]]):
        self.graph = graph
        self.rotation = {v: tuple(rotation.get(v, ())) for v in graph.vertices}
        for v, nbrs in self.rotation.items():
            if not nbrs or tuple(sorted(nbrs)) != graph.neighbors(v):
                raise GraphFormatError(
                    f"rotation at vertex {v} is empty or not a permutation of its neighbors")
        self.faces, self._face_of = self._trace_faces()
        if graph.n - graph.m + len(self.faces) != 2:
            raise NonPlanarError(
                f"rotation system is not planar: V-E+F = "
                f"{graph.n}-{graph.m}+{len(self.faces)} != 2"
            )

    def _trace_faces(self):
        rot = self.rotation
        pos = {
            (v, w): i for v, nbrs in rot.items() for i, w in enumerate(nbrs)
        }
        seen = set()
        faces: List[FaceRecord] = []
        face_of: Dict[Tuple[int, int], int] = {}
        for start in sorted(pos):
            if start in seen:
                continue
            walk = []
            u, v = start
            while (u, v) not in seen:
                seen.add((u, v))
                face_of[(u, v)] = len(faces)
                walk.append(u)
                nbrs = rot[v]
                u, v = v, nbrs[(pos[(v, u)] + 1) % len(nbrs)]
            faces.append(FaceRecord(tuple(walk), len(walk), self.graph))
        return tuple(faces), face_of

    def face_of(self, u: int, v: int) -> int:
        """Face id to the left of the directed edge (u, v)."""
        return self._face_of[(u, v)]

    def faces_incident_to(self, v: int) -> Tuple[int, ...]:
        return tuple(sorted({self.face_of(v, w) for w in self.graph.neighbors(v)}))


def planar_nx(gn: nx.Graph) -> bool:
    """Yes/no planarity test of a networkx graph: the LR test phase alone,
    with no embedding and no witness built."""
    return lr_test(gn.adj) is not None


def witness_nx(gn: nx.Graph) -> Optional[FrozenSet[Edge]]:
    """Edges of a K5/K3,3 subdivision of a networkx graph, or None if it
    is planar.

    The one call left to networkx: its extraction deletes each edge in
    gn's adjacency order and keeps those whose deletion would planarize
    the rest, so the witness depends on that order. The skewness search
    branches on this witness at depth >= 2, and the golden certificates
    pin the removal sets that branch order finds; the benchmark's tracer
    counts the search's nodes at this call too.
    """
    ok, cex = nx.check_planarity(gn, counterexample=True)
    if ok:
        return None
    return frozenset(norm_edge(u, v) for u, v in cex.edges())


def is_planar(g: Graph) -> bool:
    return lr_test(g.adjacency()) is not None


def kuratowski_witness(g: Graph) -> FrozenSet[Edge]:
    """Edges of a K5/K3,3 subdivision of g; errors if g is planar."""
    witness = witness_nx(g.to_networkx())
    if witness is None:
        raise GraphFormatError("graph is planar; no Kuratowski witness exists")
    return witness


def require_connected(g: Graph) -> None:
    """Raise GraphFormatError unless g is connected with >= 2 vertices, as
    a single RotationEmbedding needs."""
    if g.n < 2:
        raise GraphFormatError("embedding needs at least 2 vertices")
    if len(components(g)) != 1:
        raise GraphFormatError("embedding needs a connected graph")


# One RotationEmbedding per component of a graph that has an edge, in
# components() order; an isolated vertex needs none.
Embeddings = Tuple[RotationEmbedding, ...]


def embed_components(g: Graph) -> Optional[Embeddings]:
    """Euler-checked embedding of every component of g with an edge, from
    one LR test of the whole graph, or None if g is not planar.

    The one place an LR test becomes a rotation system: it embeds each
    component on its own, as embed would. No witness is built, so a
    non-planar g costs the one test. The test runs on g's sorted
    adjacency, which is what networkx's LR copy of g.to_networkx() sees,
    so the rotation is the one networkx would give.
    """
    state = lr_test(g.adjacency())
    if state is None:
        return None
    rotation = lr_rotation(state)
    return tuple(RotationEmbedding(c, rotation) for c in components(g) if c.m)


def embedding_of(g: Graph, given: Optional[Embeddings] = None) -> Embeddings:
    """The embedding of every component of g with an edge, as
    embed_components gives it.

    ``given`` is returned if it is of exactly those components, in order;
    each is Euler-checked, so it certifies g planar with no LR test. A
    given embedding of any other graph raises CrossboundError. With none
    given, one is built, and a non-planar g raises NonPlanarError carrying
    a Kuratowski subdivision witness.
    """
    if given is not None:
        if tuple(e.graph for e in given) != tuple(c for c in components(g) if c.m):
            raise CrossboundError("the embedding given is not one of this graph")
        return given
    built = embed_components(g)
    if built is None:
        raise NonPlanarError("graph is not planar", witness=witness_nx(g.to_networkx()))
    return built


def embed(g: Graph) -> RotationEmbedding:
    """embedding_of for a connected graph with >= 2 vertices: its one
    embedding, or NonPlanarError carrying a Kuratowski subdivision witness."""
    require_connected(g)
    (emb,) = embedding_of(g)
    return emb


def dual(emb: RotationEmbedding) -> Dict[int, List[Tuple[int, Edge]]]:
    """Dual of an embedding as an adjacency: each face maps to the sorted
    (face, primal edge) pairs across its edges.

    Arcs keep their primal edge, so routing in the dual translates back to
    crossed primal edges. A bridge yields a loop arc, listed once.
    """
    out: Dict[int, List[Tuple[int, Edge]]] = {f: [] for f in range(len(emb.faces))}
    for u, v in emb.graph.edges():
        f1, f2 = emb.face_of(u, v), emb.face_of(v, u)
        out[f1].append((f2, (u, v)))
        if f1 != f2:
            out[f2].append((f1, (u, v)))
    for arcs in out.values():
        arcs.sort()
    return out


def _chord_positions(edges: Collection[Edge], walk: Tuple[int, ...]):
    """Walk positions (i, j) of a chord candidate inside a face: fan from
    the lowest-id walk vertex, then fall back to any valid walk pair."""
    k = len(walk)
    ai = walk.index(min(walk))

    def ok(i, j):
        a, b = walk[i], walk[j]
        d = (j - i) % k
        return a != b and d not in (0, 1, k - 1) and norm_edge(a, b) not in edges

    for off in range(2, k - 1):
        j = (ai + off) % k
        if ok(ai, j):
            return ai, j
    for i in range(k):
        for j in range(i + 2, k):
            if ok(i, j):
                return i, j
    return None


def _insert_chord(rotation: Dict[int, list], walk: Tuple[int, ...], i: int, j: int):
    """Split a face by a chord between walk positions i < j; returns the
    walks of the two new faces.

    With the next-edge convention used by _trace_faces (successor of the
    incoming neighbor), inserting each endpoint right after the other
    occurrence's walk predecessor routes the chord inside this face.
    """
    a, pa = walk[i], walk[i - 1]
    c, pc = walk[j], walk[j - 1]
    rotation[a].insert(rotation[a].index(pa) + 1, c)
    rotation[c].insert(rotation[c].index(pc) + 1, a)
    return walk[j:] + walk[:i + 1], walk[i:j + 1]


def _from_least_edge(walk: Tuple[int, ...]) -> Tuple[int, ...]:
    """The walk rotated to start at its least directed edge, as traced."""
    k = len(walk)
    t = min(range(k), key=lambda t: (walk[t], walk[(t + 1) % k]))
    return walk[t:] + walk[:t]


def triangulate(emb: RotationEmbedding) -> Tuple[RotationEmbedding, FrozenSet[Edge]]:
    """Add chords until every face is a triangle; returns the fill edges.

    Chords are inserted into the rotation system itself, so the result is
    a refinement of the input embedding: every input face is the union of
    output faces separated only by fill edges. Fill edges never duplicate
    existing edges, and the result is maximal planar (|E| = 3|V| - 6) for
    inputs with >= 3 vertices.

    Faces are split in face-list order (least directed edge first), popped
    from a heap of their walks; a chord changes only the face it splits,
    and the embedding is built and validated once, at the end.
    """
    if emb.graph.n < 3:
        raise GraphFormatError("triangulation needs at least 3 vertices")
    rotation = {v: list(nbrs) for v, nbrs in emb.rotation.items()}
    edges = set(emb.graph.edges())
    fills = []
    heap = [f.boundary for f in emb.faces if f.length > 3]
    heapq.heapify(heap)
    while heap:
        walk = heapq.heappop(heap)
        pos = _chord_positions(edges, walk)
        if pos is None:
            raise NonPlanarError("no chord available to triangulate a long face")
        i, j = sorted(pos)
        chord = norm_edge(walk[i], walk[j])
        edges.add(chord)
        fills.append(chord)
        for part in _insert_chord(rotation, walk, i, j):
            if len(part) > 3:
                heapq.heappush(heap, _from_least_edge(part))
    if not fills:
        return emb, frozenset()
    return RotationEmbedding(Graph(emb.graph.vertices, edges), rotation), frozenset(fills)
