import json
import math
import random

import networkx as nx
import pytest

from crossbound.embedding import embed, is_planar
from crossbound.errors import CrossboundError, MissingEdgeError
from crossbound.generators import (
    planar_plus,
    random_maximal_planar,
    random_planar_min_degree3,
)
from crossbound.graph import Graph, delete_edge
from crossbound.oracle import crossing_number
from crossbound.router import (
    build_drawing,
    insert_edge,
    render,
    strip_routes,
)
from crossbound.skewness import skewness_exact


def _route_is_consistent(emb, route):
    """Replay the route against the embedding it was computed for."""
    v1, v2 = route.edge
    assert route.face_sequence[0] in emb.faces_incident_to(v1)
    assert route.face_sequence[-1] in emb.faces_incident_to(v2)
    for i, ce in enumerate(route.crossed):
        a, b = ce
        fa, fb = emb.face_of(a, b), emb.face_of(b, a)
        assert {route.face_sequence[i], route.face_sequence[i + 1]} == {fa, fb} or (
            fa == fb == route.face_sequence[i] == route.face_sequence[i + 1]
        )
        # never cross an edge touching an endpoint: routing from an incident
        # face makes that pointless and the planarization would degenerate
        assert not ({a, b} & {v1, v2})


def test_insert_chord_into_cycle_costs_nothing(c4):
    route = insert_edge(embed(c4), (0, 2))
    assert route.crossed == ()
    assert len(route.face_sequence) == 1


def test_insert_k5_edge_costs_one(k5):
    g = delete_edge(k5, (0, 1))
    emb = embed(g)
    route = insert_edge(emb, (0, 1))
    assert len(route.crossed) == 1
    _route_is_consistent(emb, route)


def test_insert_k33_edge_costs_one(k33):
    g = delete_edge(k33, (0, 3))
    emb = embed(g)
    route = insert_edge(emb, (0, 3))
    assert len(route.crossed) == 1
    _route_is_consistent(emb, route)


def test_insert_rejects_existing_edge_and_missing_vertex(k4):
    with pytest.raises(CrossboundError):
        insert_edge(embed(k4), (0, 1))
    with pytest.raises(MissingEdgeError):
        insert_edge(embed(k4), (0, 9))
    with pytest.raises(CrossboundError):
        insert_edge(embed(k4), (1, 1))


def _fewest_crossings(emb, v1, v2):
    """Crossings of a shortest route from v1 to v2, computed apart from the
    router: faces as nodes, one arc per primal edge, a super source joined
    to v1's faces and a super sink joined to v2's faces."""
    g = emb.graph
    d = nx.Graph()
    d.add_edges_from((emb.face_of(u, v), emb.face_of(v, u)) for u, v in g.edges())
    d.add_edges_from(("s", emb.face_of(v1, w)) for w in g.neighbors(v1))
    d.add_edges_from(("t", emb.face_of(v2, w)) for w in g.neighbors(v2))
    return nx.shortest_path_length(d, "s", "t") - 2


def test_insert_respects_edge_bound():
    rng = random.Random(61)
    sparse = 0
    for i in range(200):
        n = rng.randint(5, 30)
        if i < 100:
            g = random_maximal_planar(n, rng)
        else:  # sparse inputs, with faces longer than triangles
            g = random_planar_min_degree3(n, rng, deletions=rng.randint(1, 12))
        non_edges = [
            (u, v)
            for i, u in enumerate(g.vertices)
            for v in g.vertices[i + 1 :]
            if not g.has_edge(u, v)
        ]
        if not non_edges:
            continue
        e = non_edges[rng.randrange(len(non_edges))]
        emb = embed(g)
        sparse += any(f.length > 3 for f in emb.faces)
        route = insert_edge(emb, e)
        _route_is_consistent(emb, route)
        assert len(route.crossed) == _fewest_crossings(emb, *e)
        assert len(route.crossed) <= (2 * n - 7) // 3
    assert sparse >= 50


def test_build_drawing_k5_tight(k5):
    drawing = build_drawing(k5, skewness_exact(k5))
    assert drawing.crossing_count == 1
    assert drawing.bound == 1  # (3*1 + (20-17)*1)/6
    assert drawing.bound_met
    assert crossing_number(k5) == 1  # the drawing achieves the optimum here


def test_build_drawing_k6(k6):
    drawing = build_drawing(k6, skewness_exact(k6))
    assert drawing.crossing_count >= crossing_number(k6) == 3
    assert float(drawing.bound) == (3 * 9 + (4 * 6 - 17) * 3) / 6
    assert drawing.bound_met
    assert is_planar(drawing.planarization)


def test_build_drawing_counts_agree_with_records():
    rng = random.Random(62)
    for _ in range(12):
        g, _ = planar_plus(rng.randint(7, 12), rng.randint(0, 3), rng)
        drawing = build_drawing(g, skewness_exact(g))
        assert drawing.crossing_count == sum(len(r) for r in drawing.crossings)
        assert drawing.crossing_count == len(drawing.dummy_map)
        assert drawing.crossing_count == sum(len(r.crossed) for r in drawing.routes)
        assert drawing.bound_met
        assert is_planar(drawing.planarization)
        # each crossing adds one dummy vertex and splits two edges (net +2)
        k = drawing.crossing_count
        assert drawing.planarization.n == g.n + k
        assert drawing.planarization.m == g.m + 2 * k
        # order positions are sane along each crossed chain
        for recs in drawing.crossings:
            for rec in recs:
                key = (rec.with_kind, rec.with_edge)
                chain = drawing.chains[key]
                assert 0 <= rec.order_on_edge < len(chain) - 2


def test_strip_routes_roundtrip():
    rng = random.Random(63)
    for _ in range(12):
        g, _ = planar_plus(rng.randint(7, 12), rng.randint(0, 3), rng)
        drawing = build_drawing(g, skewness_exact(g))
        assert strip_routes(drawing) == drawing.base.graph


def test_render_json_shape_and_determinism(k6):
    drawing = build_drawing(k6, skewness_exact(k6))
    blob = render(drawing, "json")
    assert blob == render(build_drawing(k6, skewness_exact(k6)), "json")
    doc = json.loads(blob)
    assert set(doc) == {
        "n",
        "base_edges",
        "inserted",
        "crossing_count",
        "crossing_bound",
        "bound_met",
    }
    assert doc["n"] == 6
    assert doc["crossing_count"] == len(drawing.dummy_map)
    num, den = map(int, doc["crossing_bound"].split("/"))
    assert doc["bound_met"] == (doc["crossing_count"] * den <= num)
    assert len(doc["inserted"]) == 3
    for item in doc["inserted"]:
        assert len(item["faces"]) == len(item["crossings"]) + 1


def test_render_svg_structure(k5):
    drawing = build_drawing(k5, skewness_exact(k5))
    svg = render(drawing, "svg").decode()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<circle") == 5
    assert svg.count("<path") == drawing.crossing_count
    assert "stroke-dasharray" in svg  # routed edges drawn distinctly


def test_render_unknown_format(k5):
    drawing = build_drawing(k5, skewness_exact(k5))
    with pytest.raises(CrossboundError):
        render(drawing, "png")


def test_layout_positions_are_finite(k6):
    from crossbound.router import _layout

    drawing = build_drawing(k6, skewness_exact(k6))
    pos = _layout(drawing)
    assert set(pos) >= set(drawing.planarization.vertices)
    for x, y in pos.values():
        assert math.isfinite(x) and math.isfinite(y)
        assert -0.01 <= x <= 1.01 and -0.01 <= y <= 1.01
