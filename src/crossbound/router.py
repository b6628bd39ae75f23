"""Edge insertion along shortest dual paths and iterated planarization.

A missing edge is routed through the dual of a planar embedding: the
cheapest dual path from the faces around one endpoint to the faces around
the other gives a curve crossing exactly the primal edges of the path's
arcs. Every arc costs one, so a route crosses as few edges as the fixed
embedding allows. That is at most floor((2n - 7) / 3): triangulating the
embedding only adds edges, and its cheapest dual path is never shorter.

build_drawing iterates this over a whole removal set, replacing each
crossing by a degree-4 dummy vertex so later routes see earlier ones as
ordinary crossable edges, and reports the constructed crossing count next
to the closed-form skewness bound.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .bounds import skewness_crossing_bound
from .embedding import RotationEmbedding, dual, embed, is_planar, triangulate
from .errors import CrossboundError, MissingEdgeError
from .graph import Edge, Graph, norm_edge
from .skewness import SkewnessCertificate

# provenance key for a working edge: ("base", edge) or ("route", edge)
OriginKey = Tuple[str, Edge]


@dataclass(frozen=True)
class EdgeRoute:
    """A routed edge: the faces traversed and the real edges crossed.

    ``face_sequence`` refers to the embedding the route was computed in,
    and ``crossed[i]`` separates ``face_sequence[i]`` from
    ``face_sequence[i+1]``.
    """

    edge: Edge
    face_sequence: Tuple[int, ...]
    crossed: Tuple[Edge, ...]


def _cheapest_dual_path(
    dual_graph, sources, sinks
) -> Tuple[Tuple[int, ...], Tuple[Edge, ...]]:
    """Fewest-arc dual path from any source face to any sink face;
    deterministic via heap order."""
    nbrs = dual_graph.neighbors()
    INF = float("inf")
    dist = {f: INF for f in range(dual_graph.num_nodes)}
    parent: Dict[int, Optional[Tuple[int, Edge]]] = {}
    heap = []
    for s in sorted(sinks):
        dist[s] = 0
        parent[s] = None
        heapq.heappush(heap, (0, s))
    while heap:
        d, f = heapq.heappop(heap)
        if d > dist[f]:
            continue
        for g2, e in nbrs[f]:
            if d + 1 < dist[g2]:
                dist[g2] = d + 1
                parent[g2] = (f, e)
                heapq.heappush(heap, (d + 1, g2))
    start = min(sorted(sources), key=lambda f: (dist[f], f))
    if dist[start] == INF:
        raise CrossboundError("dual graph is disconnected between the endpoints")
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


def _split_and_chain(edges: set, route: EdgeRoute, next_id: int) -> List[int]:
    """Apply a route to a working edge set in place: split each crossed
    edge at a fresh dummy (ids from ``next_id`` up, in crossing order) and
    thread the routed edge through the dummies. Returns the routed edge's
    vertex chain."""
    v1, v2 = route.edge
    chain = [v1]
    for dv, (a, b) in enumerate(route.crossed, start=next_id):
        if norm_edge(a, b) not in edges:
            raise MissingEdgeError(f"route crosses non-edge {(a, b)}")
        edges.remove(norm_edge(a, b))
        edges.add(norm_edge(a, dv))
        edges.add(norm_edge(dv, b))
        chain.append(dv)
    chain.append(v2)
    edges.update(norm_edge(u, w) for u, w in zip(chain, chain[1:]))
    return chain


def planarize_route(emb: RotationEmbedding, route: EdgeRoute) -> RotationEmbedding:
    """Planar embedding of emb's graph with the route realized: every
    crossing becomes a degree-4 dummy vertex splitting both edges."""
    g = emb.graph
    edges = set(g.edges())
    chain = _split_and_chain(edges, route, (max(g.vertices) + 1) if g.n else 0)
    return embed(Graph(set(g.vertices) | set(chain), edges))


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

    ``planarization`` is the fully planarized working graph (all crossings
    as dummies); ``chains`` maps every original edge to its vertex chain
    through its crossing dummies, and ``dummy_map`` names the two original
    edges meeting at each dummy.
    """

    graph: Graph
    base: RotationEmbedding
    removed: Tuple[Edge, ...]
    routes: Tuple[EdgeRoute, ...]
    crossings: Tuple[Tuple[CrossingRecord, ...], ...]  # parallel to routes
    planarization: Graph
    chains: Dict[OriginKey, Tuple[int, ...]]
    dummy_map: Dict[int, Tuple[OriginKey, OriginKey]]
    crossing_count: int
    bound: Fraction
    bound_met: bool


def build_drawing(g: Graph, cert: SkewnessCertificate) -> PlanarizationDrawing:
    """Insert every removed edge back into the planar base, one at a time
    with planarization in between, and count the crossings."""
    removed = tuple(sorted(norm_edge(u, v) for u, v in cert.removed))
    base_edges = set(g.edges()) - set(removed)
    for e in removed:
        if not g.has_edge(*e):
            raise MissingEdgeError(f"{e} is not an edge of the graph")
    base_graph = Graph(g.vertices, base_edges)
    base_emb = embed(base_graph)  # raises NonPlanarError if cert is bogus

    edges = set(base_graph.edges())
    origin: Dict[Edge, OriginKey] = {e: ("base", e) for e in edges}
    chains: Dict[OriginKey, List[int]] = {("base", e): [e[0], e[1]] for e in edges}
    dummy_map: Dict[int, Tuple[OriginKey, OriginKey]] = {}
    raw_crossings: List[List[Tuple[OriginKey, int]]] = []
    routes: List[EdgeRoute] = []
    next_id = (max(g.vertices) + 1) if g.n else 0

    working = base_graph
    for e0 in removed:
        route = insert_edge(embed(working), e0)
        routes.append(route)
        rkey: OriginKey = ("route", e0)
        chain = _split_and_chain(edges, route, next_id)
        next_id += len(route.crossed)
        hit: List[Tuple[OriginKey, int]] = []
        for (a, b), dv in zip(route.crossed, chain[1:-1]):
            okey = origin.pop((a, b))
            origin[norm_edge(a, dv)] = okey
            origin[norm_edge(dv, b)] = okey
            # record the dummy inside the crossed edge's chain, between a and b
            oc = chains[okey]
            for i in range(len(oc) - 1):
                if {oc[i], oc[i + 1]} == {a, b}:
                    oc.insert(i + 1, dv)
                    break
            else:
                raise CrossboundError("crossed edge not found in its own chain")
            dummy_map[dv] = (rkey, okey)
            hit.append((okey, dv))
        for u, w in zip(chain, chain[1:]):
            origin[norm_edge(u, w)] = rkey
        chains[rkey] = chain
        raw_crossings.append(hit)
        working = Graph(set(working.vertices) | set(chain), edges)

    if not is_planar(working):
        raise CrossboundError("planarized drawing is not planar; routing bug")

    final_chains = {k: tuple(v) for k, v in chains.items()}
    crossings = tuple(
        tuple(
            CrossingRecord(okey[1], okey[0], final_chains[okey].index(dv) - 1)
            for okey, dv in hit
        )
        for hit in raw_crossings
    )
    count = len(dummy_map)
    bound = skewness_crossing_bound(g.n, len(removed))
    return PlanarizationDrawing(
        graph=g,
        base=base_emb,
        removed=removed,
        routes=tuple(routes),
        crossings=crossings,
        planarization=working,
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
        "base_edges": [list(e) for e in sorted(drawing.base.graph.edges())],
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

    The planarization is triangulated (layout-only fills) so the position
    system is well-conditioned even for low-connectivity drawings; one
    triangle face is pinned as the outer boundary.
    """
    import math

    import numpy as np

    p = drawing.planarization
    if p.n == 1:
        return {p.vertices[0]: (0.5, 0.5)}
    if p.n == 2:
        a, b = p.vertices
        return {a: (0.1, 0.5), b: (0.9, 0.5)}
    emb_t, _ = triangulate(embed(p))
    outer = emb_t.faces[0].boundary
    verts = list(emb_t.graph.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    pos = {}
    for i, v in enumerate(outer):
        ang = 2 * math.pi * i / len(outer) - math.pi / 2
        pos[v] = (math.cos(ang), math.sin(ang))
    free = [v for v in verts if v not in pos]
    if free:
        fidx = {v: i for i, v in enumerate(free)}
        a = np.zeros((len(free), len(free)))
        bx = np.zeros(len(free))
        by = np.zeros(len(free))
        for v in free:
            i = fidx[v]
            deg = emb_t.graph.degree(v)
            a[i, i] = deg
            for w in emb_t.graph.neighbors(v):
                if w in fidx:
                    a[i, fidx[w]] -= 1
                else:
                    bx[i] += pos[w][0]
                    by[i] += pos[w][1]
        xs = np.linalg.solve(a, bx)
        ys = np.linalg.solve(a, by)
        for v in free:
            pos[v] = (float(xs[fidx[v]]), float(ys[fidx[v]]))
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
