"""Edge insertion along shortest dual paths and iterated planarization.

A missing edge is routed through the dual of a planar embedding: the
cheapest dual path from the faces around one endpoint to the faces around
the other gives a curve crossing exactly the primal edges of the path's
arcs. Every arc costs one, so a route crosses as few edges as the fixed
embedding allows. That is at most floor((2n - 7) / 3): triangulating the
embedding only adds edges, and its cheapest dual path is never shorter.

build_drawing iterates this over a whole removal set in one embedding.
Each route is spliced into the rotation system, every crossing becoming a
degree-4 dummy vertex around which the two edges alternate, so the next
route sees the earlier ones as ordinary crossable edges. The Euler check of
each spliced embedding certifies the planarization, and the SVG is laid out
in the last one. The drawing's one record is the chain of every original
edge through its dummies; the crossing records are read off the chains at
the end, and their count is reported next to the closed-form skewness bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .bounds import skewness_crossing_bound
from .embedding import RotationEmbedding, dual, embedding_of, require_connected, triangulate
from .errors import CrossboundError, MissingEdgeError
from .graph import Edge, Graph, delete_edges, norm_edge
from .skewness import SkewnessCertificate

# key of an original edge's chain: ("base", edge) or ("route", edge)
OriginKey = Tuple[str, Edge]


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


def _cheapest_dual_path(
    nbrs: Dict[int, List[Tuple[int, Edge]]], sources, sinks
) -> Tuple[Tuple[int, ...], Tuple[Edge, ...]]:
    """Fewest-arc dual path from any source face to any sink face.

    Breadth-first from the sinks, one level at a time in face-id order,
    up to the first level that holds a source: a face's parent is its
    lowest-id neighbour one level closer to the sinks, over their lowest
    arc, and the path starts at the lowest-id source of that level.
    """
    sources = set(sources)
    parent: Dict[int, Optional[Tuple[int, Edge]]] = {f: None for f in sinks}
    level = sorted(parent)
    while not sources.intersection(level):
        reached = []
        for f in level:
            for g2, e in nbrs[f]:
                if g2 not in parent:
                    parent[g2] = (f, e)
                    reached.append(g2)
        if not reached:
            raise CrossboundError("dual graph is disconnected between the endpoints")
        level = sorted(reached)
    start = min(sources.intersection(level))
    faces = [start]
    arcs: List[Edge] = []
    f = start
    while parent[f] is not None:
        f, e = parent[f]
        faces.append(f)
        arcs.append(e)
    return tuple(faces), tuple(arcs)


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
    faces, crossed = _cheapest_dual_path(
        dual(emb), emb.faces_incident_to(v1), emb.faces_incident_to(v2)
    )
    return EdgeRoute(norm_edge(v1, v2), faces, crossed)


@dataclass(frozen=True)
class CrossingRecord:
    """One crossing of a routed edge: the original edge it crosses and the
    position of the crossing along that edge (0-based from its low end)."""

    with_edge: Edge
    with_kind: str  # "base" or "route"
    order_on_edge: int


@dataclass(frozen=True)
class PlanarizationDrawing:
    """A countable drawing certificate: planar base plus routed edges.

    ``chains`` maps every original edge to its vertex chain through its
    crossing dummies; it is the one record of the drawing.
    ``planarization`` is the union of the chains' segments (all crossings as
    dummies), each of its edges a segment of exactly one chain, and
    ``embedding`` is the base embedding with every route spliced in; its
    graph is ``planarization``.
    ``dummy_map`` names, for each dummy, the route that made it and the
    original edge that route crossed there.
    """

    graph: Graph
    base: RotationEmbedding
    removed: Tuple[Edge, ...]
    routes: Tuple[EdgeRoute, ...]
    crossings: Tuple[Tuple[CrossingRecord, ...], ...]  # parallel to routes
    planarization: Graph
    embedding: RotationEmbedding
    chains: Dict[OriginKey, Tuple[int, ...]]
    dummy_map: Dict[int, Tuple[OriginKey, OriginKey]]
    crossing_count: int
    bound: Fraction
    bound_met: bool


def build_drawing(g: Graph, cert: SkewnessCertificate) -> PlanarizationDrawing:
    """Insert every removed edge back into the planar base, one at a time,
    each routed in the embedding the earlier ones were spliced into, and
    count the crossings.

    The base embedding is the certificate's (``cert.embedding``, through
    embedding.embedding_of): the one skewness_exact checked, with no
    further planarity test, or for a hand-built certificate one built here
    (NonPlanarError, with a witness, if the removal set does not
    planarize). The base must be connected, with at least 2 vertices."""
    removed = tuple(sorted(norm_edge(u, v) for u, v in cert.removed))
    base_graph = delete_edges(g, removed)
    require_connected(base_graph)
    (base_emb,) = embedding_of(base_graph, cert.embedding)
    emb = base_emb

    chains: Dict[OriginKey, List[int]] = {("base", e): list(e) for e in base_graph.edges()}
    segment: Dict[Edge, OriginKey] = {e: ("base", e) for e in base_graph.edges()}
    dummy_map: Dict[int, Tuple[OriginKey, OriginKey]] = {}
    routes: List[EdgeRoute] = []
    first_dummy = max(g.vertices) + 1
    for e0 in removed:
        route = insert_edge(emb, e0)
        routes.append(route)
        start = first_dummy + len(dummy_map)
        path = [e0[0], *range(start, start + len(route.crossed)), e0[1]]
        rot = {v: list(nbrs) for v, nbrs in emb.rotation.items()}
        # dummy i splits crossed edge i, oriented (x, y) with face i on its
        # left; around it come x, the previous route vertex, y, the next one
        for i, (a, b) in enumerate(route.crossed):
            dv, okey = path[i + 1], segment.pop((a, b))
            x, y = (a, b) if emb.face_of(a, b) == route.face_sequence[i] else (b, a)
            rot[x][rot[x].index(y)] = rot[y][rot[y].index(x)] = dv
            rot[dv] = [x, path[i], y, path[i + 2]]
            oc = chains[okey]
            oc.insert(min(oc.index(a), oc.index(b)) + 1, dv)
            segment[norm_edge(x, dv)] = segment[norm_edge(dv, y)] = okey
            dummy_map[dv] = (("route", e0), okey)
        # each endpoint enters the route's end face after a neighbour on it
        for end, nxt, face in ((path[0], path[1], route.face_sequence[0]),
                               (path[-1], path[-2], route.face_sequence[-1])):
            w = min(w for w in emb.graph.neighbors(end) if emb.face_of(w, end) == face)
            rot[end].insert(rot[end].index(w) + 1, nxt)
        chains[("route", e0)] = path
        segment.update((norm_edge(u, w), ("route", e0)) for u, w in zip(path, path[1:]))
        emb = RotationEmbedding(Graph(rot, segment), rot)  # Euler-checked: planar

    # a route's records are the dummies it made itself, in crossing order;
    # later routes also add dummies to its chain
    records: Dict[OriginKey, List[CrossingRecord]] = {("route", e): [] for e in removed}
    for dv, (rkey, okey) in dummy_map.items():
        records[rkey].append(CrossingRecord(okey[1], okey[0], chains[okey].index(dv) - 1))
    crossings = tuple(tuple(recs) for recs in records.values())
    final_chains = {k: tuple(v) for k, v in chains.items()}
    count = len(dummy_map)
    bound = skewness_crossing_bound(g.n, len(removed))
    return PlanarizationDrawing(
        graph=g,
        base=base_emb,
        removed=removed,
        routes=tuple(routes),
        crossings=crossings,
        planarization=emb.graph,
        embedding=emb,
        chains=final_chains,
        dummy_map=dummy_map,
        crossing_count=count,
        bound=bound,
        bound_met=count <= bound,
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


def _drawing_dict(drawing: PlanarizationDrawing) -> dict:
    return {
        "n": drawing.graph.n,
        "base_edges": [list(e) for e in drawing.base.graph.edges()],
        "inserted": [
            {
                "edge": list(route.edge),
                "faces": list(route.face_sequence),
                "crossings": [
                    {"with": list(rec.with_edge), "order_on_edge": rec.order_on_edge}
                    for rec in recs
                ],
            }
            for route, recs in zip(drawing.routes, drawing.crossings)
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


def _svg(drawing: PlanarizationDrawing, size: int = 600) -> bytes:
    pos = _layout(drawing)

    def pt(v):
        x, y = pos[v]
        return x * size, y * size

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">'
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
            json.dumps(_drawing_dict(drawing), separators=(",", ":")) + "\n"
        ).encode("ascii")
    if fmt == "svg":
        return _svg(drawing)
    raise CrossboundError(f"unknown render format {fmt!r}")
