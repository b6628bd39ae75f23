"""Edge insertion along shortest dual paths and iterated planarization.

A missing edge is routed through the dual of a planar embedding: the
cheapest dual path from the faces around one endpoint to the faces around
the other gives a curve crossing exactly the primal edges of the path's
arcs. Every arc costs one, so a route crosses as few edges as the fixed
embedding allows. That is at most floor((2n - 7) / 3): triangulating the
embedding only adds edges, and its cheapest dual path is never shorter.

build_drawing iterates this over a whole removal set in one working
rotation system. _splice, its one writer, turns every crossing into a
degree-4 dummy around which the two edges alternate, so the next route
sees the earlier ones as ordinary crossable edges. The drawing's one
embedding is built from the result: its single Euler check certifies the
planarization and every intermediate one, the SVG is laid out in it, and
every chain and the route that made each dummy are read off its rotation
system. The crossing count is reported next to the closed-form skewness
bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .bounds import skewness_crossing_bound
from .embedding import RotationEmbedding, embedding_of, require_connected, triangulate
from .errors import CrossboundError, MissingEdgeError
from .graph import Edge, Graph, delete_edges, norm_edge
from .skewness import SkewnessCertificate

# key of an original edge's chain: ("base", edge) or ("route", edge)
OriginKey = Tuple[str, Edge]
SVG_SIZE = 600  # side of the SVG picture, in pixels


@dataclass(frozen=True)
class EdgeRoute:
    """A routed edge: the faces traversed and the real edges crossed.

    ``face_sequence`` refers to the embedding the route was computed in:
    in a drawing, the base embedding extended by the earlier routes.
    ``crossed[i]`` separates ``face_sequence[i]`` from ``face_sequence[i+1]``.
    """

    edge: Edge
    face_sequence: Tuple[int, ...]
    crossed: Tuple[Edge, ...]


class _Working:
    """A rotation system being drawn in: ``rot`` holds each vertex's cyclic
    order as a list, ``face_of`` the face left of each dart (directed edge),
    ``walks`` each face's darts in walk order. A face is named by its least
    dart; a connected RotationEmbedding numbers faces in that order."""

    def __init__(self, emb: RotationEmbedding):
        self.rot = {v: list(nbrs) for v, nbrs in emb.rotation.items()}
        self.face_of: Dict[Edge, Edge] = {}
        self.walks: Dict[Edge, List[Edge]] = {}
        for face in emb.faces:  # each traced from its least dart
            b = face.boundary
            self.walks[b[:2]] = walk = list(zip(b, b[1:] + b[:1]))
            self.face_of.update(dict.fromkeys(walk, b[:2]))

    def route(self, v1: int, v2: int) -> Tuple[Tuple[Edge, ...], Tuple[Edge, ...]]:
        """Fewest-arc dual path from a face at v1 to a face at v2: the faces
        it passes, by name, and the edges it crosses between them.

        Breadth-first from v2's faces, one level at a time in face order,
        up to the first level that holds a face at v1: a face's parent is
        its least neighbour one level closer to v2, over their least edge,
        and the path starts at the least face at v1 of that level. A face's
        arcs are read off its own walk, so only the faces reached are read."""
        sources = {self.face_of[(v1, w)] for w in self.rot[v1]}
        parent: Dict[Edge, Optional[tuple]] = {self.face_of[(v2, w)]: None for w in self.rot[v2]}
        level = sorted(parent)
        while not sources.intersection(level):
            reached = []
            for f in level:
                across = {(self.face_of[(v, u)], norm_edge(u, v)) for u, v in self.walks[f]}
                for f2, e in sorted(across):
                    if f2 not in parent:
                        parent[f2] = (f, e)
                        reached.append(f2)
            if not reached:
                raise CrossboundError("dual graph is disconnected between the endpoints")
            level = sorted(reached)
        faces, crossed = [min(sources.intersection(level))], []
        while parent[faces[-1]] is not None:
            f, e = parent[faces[-1]]
            faces.append(f)
            crossed.append(e)
        return tuple(faces), tuple(crossed)


def insert_edge(emb: RotationEmbedding, e: Edge) -> EdgeRoute:
    """Route the missing edge e through emb along a cheapest path in its
    dual, crossing as few edges as the fixed embedding allows."""
    v1, v2 = e
    g = emb.graph
    if v1 == v2:
        raise CrossboundError(f"{e} is a self-loop")
    if not (g.has_vertex(v1) and g.has_vertex(v2)):
        raise MissingEdgeError(f"endpoint of {e} missing from the graph")
    if g.has_edge(v1, v2):
        raise CrossboundError(f"{e} is already an edge")
    faces, crossed = _Working(emb).route(v1, v2)
    return EdgeRoute(norm_edge(v1, v2), tuple(emb.face_of(*f) for f in faces), crossed)


@dataclass(frozen=True)
class PlanarizationDrawing:
    """A countable drawing certificate: planar base plus routed edges.

    ``embedding`` is the base embedding with every route spliced in, all
    crossings as dummies; it is the one record of the drawing, and its
    graph is the ``planarization``. ``chains`` (every original edge's
    vertex chain through its crossing dummies, from its low end) and
    ``dummy_map`` (for each dummy, the route that made it and the original
    edge that route crossed there) are read off its rotation system.
    """

    graph: Graph
    base: RotationEmbedding
    routes: Tuple[EdgeRoute, ...]
    embedding: RotationEmbedding
    chains: Dict[OriginKey, Tuple[int, ...]]
    dummy_map: Dict[int, Tuple[OriginKey, OriginKey]]
    bound: Fraction

    @property
    def planarization(self) -> Graph:
        return self.embedding.graph

    @property
    def crossing_count(self) -> int:
        return len(self.dummy_map)

    @property
    def bound_met(self) -> bool:
        return self.crossing_count <= self.bound


def _splice(work: _Working, e: Edge, faces: tuple, crossed: tuple, first_id: int):
    """Draw the route of e (its faces by name, and the edges it crosses)
    into work, in place: its i-th crossing becomes the degree-4 dummy
    first_id + i, around which the crossed edge and the route alternate.

    Only the route's faces are re-traced. A dart whose successor changes
    is new, or precedes (x, y) on face i or (y, x) on face i + 1, or enters
    an endpoint on an end face: so every face off the route keeps its walk,
    and each new face is traced from its least dart, which names it.
    build_drawing Euler-checks only the final result."""
    path = [e[0], *range(first_id, first_id + len(crossed)), e[1]]
    rot, face_of = work.rot, work.face_of
    # dummy i splits crossed edge i, oriented (x, y) with face i on its
    # left; around it come x, the previous route vertex, y, the next one
    for i, (a, b) in enumerate(crossed):
        dv = path[i + 1]
        x, y = (a, b) if face_of[(a, b)] == faces[i] else (b, a)
        rot[x][rot[x].index(y)] = rot[y][rot[y].index(x)] = dv
        rot[dv] = [x, path[i], y, path[i + 2]]
    # each endpoint enters the route's end face after a neighbour on it
    for end, nxt, face in ((path[0], path[1], faces[0]), (path[-1], path[-2], faces[-1])):
        w = min(w for w in rot[end] if face_of[(w, end)] == face)
        rot[end].insert(rot[end].index(w) + 1, nxt)
    tails = set(path)
    for f in faces:
        for d in work.walks.pop(f):
            del face_of[d]
            tails.add(d[0])
    for start in sorted((u, w) for u in tails for w in rot[u]):
        if start in face_of:
            continue
        walk = work.walks[start] = []
        u, v = start
        while (u, v) not in face_of:
            face_of[(u, v)] = start
            walk.append((u, v))
            nbrs = rot[v]
            u, v = v, nbrs[(nbrs.index(u) + 1) % len(nbrs)]


def build_drawing(g: Graph, cert: SkewnessCertificate) -> PlanarizationDrawing:
    """Insert every removed edge back into the planar base, one at a time,
    each routed in the rotation system the earlier ones were spliced into,
    and count the crossings.

    The base embedding is the certificate's (``cert.embedding``, through
    embedding.embedding_of): the one skewness_exact checked, with no
    further planarity test, or for a hand-built certificate one built here
    (NonPlanarError, with a witness, if the removal set does not
    planarize). The base must be connected, with at least 2 vertices.

    The routes go into one working rotation system, whose embedding is
    built and Euler-checked once, at the end. That certifies every
    intermediate planarization too: each is the final one with the later
    routes deleted and their dummies smoothed, and neither step can make a
    plane rotation system non-plane. Each is connected, as the base is, so
    the ranks of a route's face names are its face ids in each."""
    removed = sorted(norm_edge(u, v) for u, v in cert.removed)
    base_graph = delete_edges(g, removed)
    if cert.embedding is None:  # before an embedding of a disconnected base is tried
        require_connected(base_graph)
    base_emb = embedding_of(base_graph, cert.embedding)
    if base_graph.n < 2 or base_emb.component_count != 1:  # no second union-find
        require_connected(base_graph)
    emb = base_emb
    routes: List[EdgeRoute] = []
    first_dummy = max(g.vertices) + 1
    if removed:
        work = _Working(base_emb)
        for e in removed:
            faces, crossed = work.route(*e)
            ids = tuple(map(sorted(work.walks).index, faces))  # ranks of the names
            routes.append(EdgeRoute(e, ids, crossed))
            _splice(work, e, faces, crossed, first_dummy + len(work.rot) - g.n)
        edges = ((v, w) for v, nbrs in work.rot.items() for w in nbrs if v < w)
        emb = RotationEmbedding(Graph(work.rot, edges), work.rot)

    # a chain leaves an original vertex, runs straight through each dummy to
    # the opposite neighbour in its 4-rotation, and its far end names the
    # original edge; it is kept from its low end
    chains: Dict[OriginKey, Tuple[int, ...]] = {}
    for v in g.vertices:
        for w in emb.rotation[v]:
            chain = [v, w]
            while w >= first_dummy:
                nbrs = emb.rotation[w]
                w = nbrs[(nbrs.index(chain[-2]) + 2) % 4]
                chain.append(w)
            if v < w:
                chains[("base" if base_graph.has_edge(v, w) else "route", (v, w))] = tuple(chain)
    # each dummy lies on two chains, and the later in key order made it:
    # base chains sort before routes, and routes are spliced in sorted order
    through: Dict[int, List[OriginKey]] = {}
    for key, chain in sorted(chains.items()):
        for dv in chain[1:-1]:
            through.setdefault(dv, []).append(key)
    return PlanarizationDrawing(
        graph=g,
        base=base_emb,
        routes=tuple(routes),
        embedding=emb,
        chains=chains,
        dummy_map={dv: (later, earlier) for dv, (earlier, later) in sorted(through.items())},
        bound=skewness_crossing_bound(g.n, len(removed)),
    )


def strip_routes(drawing: PlanarizationDrawing) -> Graph:
    """Undo the planarization: drop route chains, then smooth the dummies
    left on base edges. Must reproduce the planar base graph exactly."""
    edges = set(drawing.planarization.edges())
    vertices = set(drawing.planarization.vertices)
    for key, chain in drawing.chains.items():
        kind, e = key
        for u, w in zip(chain, chain[1:]):
            edges.discard(norm_edge(u, w))
        for dv in chain[1:-1]:
            vertices.discard(dv)
        if kind == "base":
            edges.add(e)
    return Graph(vertices, edges)


# -- rendering ---------------------------------------------------------------


def drawing_dict(drawing: PlanarizationDrawing) -> dict:
    """The drawing's JSON certificate, as render dumps it."""
    # _splice numbers a route's dummies in order along it
    made: Dict[Edge, List[dict]] = {route.edge: [] for route in drawing.routes}
    for dv, (maker, crossed) in drawing.dummy_map.items():
        made[maker[1]].append({"with": list(crossed[1]),
                               "order_on_edge": drawing.chains[crossed].index(dv) - 1})
    return {
        "n": drawing.graph.n,
        "base_edges": [list(e) for e in drawing.base.graph.edges()],
        "inserted": [
            {
                "edge": list(route.edge),
                "faces": list(route.face_sequence),
                "crossings": made[route.edge],
            }
            for route in drawing.routes
        ],
        "crossing_count": drawing.crossing_count,
        "crossing_bound": f"{drawing.bound.numerator}/{drawing.bound.denominator}",
        "bound_met": drawing.bound_met,
    }


def _layout(drawing: PlanarizationDrawing) -> Dict[int, Tuple[float, float]]:
    """Barycentric straight-line coordinates of the planarization.

    The drawing's embedding is triangulated (layout-only fills) so the position
    system is well-conditioned even for low-connectivity drawings; one
    triangle face is pinned as the outer boundary.
    """
    import math

    import numpy as np

    p = drawing.planarization
    if p.n == 2:
        a, b = p.vertices
        return {a: (0.1, 0.5), b: (0.9, 0.5)}
    emb_t, _ = triangulate(drawing.embedding)
    outer = emb_t.faces[0].boundary
    verts = list(emb_t.graph.vertices)
    pos = {}
    for i, v in enumerate(outer):
        ang = 2 * math.pi * i / len(outer) - math.pi / 2
        pos[v] = (math.cos(ang), math.sin(ang))
    free = [v for v in verts if v not in pos]
    if free:
        fidx = {v: i for i, v in enumerate(free)}
        a = np.zeros((len(free), len(free)))
        b = np.zeros((len(free), 2))  # x and y right-hand sides, one solve
        for v in free:
            i = fidx[v]
            deg = emb_t.graph.degree(v)
            a[i, i] = deg
            for w in emb_t.graph.neighbors(v):
                if w in fidx:
                    a[i, fidx[w]] -= 1
                else:
                    b[i] += pos[w]
        xy = np.linalg.solve(a, b)
        for v in free:
            pos[v] = (float(xy[fidx[v], 0]), float(xy[fidx[v], 1]))
    # normalize into the unit box with a margin
    xs = [x for x, _ in pos.values()]
    ys = [y for _, y in pos.values()]
    span = max(max(xs) - min(xs), max(ys) - min(ys)) or 1.0
    return {
        v: (
            0.05 + 0.9 * (x - min(xs)) / span,
            0.05 + 0.9 * (y - min(ys)) / span,
        )
        for v, (x, y) in pos.items()
    }


def _svg(drawing: PlanarizationDrawing) -> bytes:
    pos = _layout(drawing)

    def pt(v):
        x, y = pos[v]
        return x * SVG_SIZE, y * SVG_SIZE

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_SIZE}" height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">'
    ]
    for key, chain in sorted(drawing.chains.items()):
        kind, _ = key
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in (pt(v) for v in chain))
        color = "#1f77b4" if kind == "base" else "#d62728"
        dash = "" if kind == "base" else ' stroke-dasharray="6,3"'
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"{dash}/>'
        )
    for dv in sorted(drawing.dummy_map):
        x, y = pt(dv)
        r = 4
        parts.append(
            f'<path d="M {x-r:.2f} {y-r:.2f} L {x+r:.2f} {y+r:.2f} '
            f'M {x-r:.2f} {y+r:.2f} L {x+r:.2f} {y-r:.2f}" stroke="#000" stroke-width="1.2"/>'
        )
    for v in drawing.graph.vertices:
        x, y = pt(v)
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="5" fill="#333"/>')
        parts.append(
            f'<text x="{x+6:.2f}" y="{y-6:.2f}" font-size="11" font-family="sans-serif">{v}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts).encode("utf-8")


def render(drawing: PlanarizationDrawing, fmt: str = "json") -> bytes:
    """Serialize a drawing: canonical JSON certificate or a best-effort SVG
    picture with crossings as x-marks."""
    if fmt == "json":
        return (
            json.dumps(drawing_dict(drawing), separators=(",", ":")) + "\n"
        ).encode("ascii")
    if fmt == "svg":
        return _svg(drawing)
    raise CrossboundError(f"unknown render format {fmt!r}")
