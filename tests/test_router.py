import hashlib
import json
import math
import random

import networkx as nx
import pytest

from crossbound import embedding, router
from crossbound.embedding import RotationEmbedding, embed, is_planar
from crossbound.errors import (CrossboundError, GraphFormatError, MissingEdgeError,
                               NonPlanarError)
from crossbound.generators import (
    NAMED,
    complete,
    complete_bipartite,
    named,
    planar_plus,
    random_maximal_planar,
    random_planar_min_degree3,
)
from crossbound.graph import Graph, delete_edge, norm_edge
from crossbound.oracle import crossing_number
from crossbound.router import (
    build_drawing,
    insert_edge,
    render,
    strip_routes,
)
from crossbound.skewness import SkewnessCertificate, skewness_exact


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


def _planar_plus_inputs(seed, count):
    """Maximal planar bases plus random edges, with exact certificates."""
    rng = random.Random(seed)
    for _ in range(count):
        g, _ = planar_plus(rng.randint(7, 12), rng.randint(0, 3), rng)
        yield g, skewness_exact(g)


def _sparse_inputs(seed, count):
    """Tree and sparse planar bases, with bridges, cut vertices and long
    faces, plus random non-edges that form the removal set."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(7, 20)
        if i % 2:
            base = random_planar_min_degree3(n, rng, deletions=rng.randint(1, 12))
        else:
            base = Graph.from_networkx(nx.random_labeled_tree(n, seed=rng.randrange(10**6)))
        non_edges = [
            (u, v) for u in base.vertices for v in base.vertices
            if u < v and not base.has_edge(u, v)
        ]
        extra = rng.sample(non_edges, min(len(non_edges), rng.randint(1, 4)))
        cert = SkewnessCertificate(len(extra), frozenset(extra), exact=False)
        yield Graph(base.vertices, base.edges() + tuple(extra)), cert


# sha256 over the JSON and SVG of _golden_corpus(), in order: a change to
# how a drawing is built or recorded must leave every byte of it in place
DRAWING_CORPUS_DIGEST = "00ac743dd0cdc4f2dcad52506cbcdb99ff7c05a8af1692e71f58ae21da223b90"


def _golden_corpus():
    graphs = [complete(5), complete(6), complete_bipartite(3, 4), complete_bipartite(4, 4),
              *map(named, NAMED)]
    yield from ((g, skewness_exact(g)) for g in graphs)
    yield from _planar_plus_inputs(71, 16)
    yield from _sparse_inputs(69, 40)


def test_drawing_corpus_output_is_pinned():
    h = hashlib.sha256()
    for g, cert in _golden_corpus():
        drawing = build_drawing(g, cert)
        h.update(render(drawing, "json"))
        h.update(render(drawing, "svg"))
    assert h.hexdigest() == DRAWING_CORPUS_DIGEST


def test_build_drawing_counts_agree_with_records():
    inputs = [*_planar_plus_inputs(62, 12), *_sparse_inputs(64, 40)]
    for g, cert in inputs:
        drawing = build_drawing(g, cert)
        doc = json.loads(render(drawing, "json"))
        inserted = doc["inserted"]
        assert drawing.crossing_count == sum(len(item["crossings"]) for item in inserted)
        assert drawing.crossing_count == len(drawing.dummy_map) == doc["crossing_count"]
        assert drawing.crossing_count == sum(len(r.crossed) for r in drawing.routes)
        # route i lists the crossings it made itself, so the chain read off
        # the embedding as a dummy's maker is the route that spliced it in
        for route, item in zip(drawing.routes, inserted, strict=True):
            assert item["edge"] == list(route.edge)
            assert len(item["crossings"]) == len(route.crossed)
        assert drawing.bound_met
        assert is_planar(drawing.planarization)
        assert drawing.embedding.graph == drawing.planarization
        # each crossing adds one dummy vertex and splits two edges (net +2)
        k = drawing.crossing_count
        assert drawing.planarization.n == g.n + k
        assert drawing.planarization.m == g.m + 2 * k
        # order positions are sane along each crossed chain
        base_edges = {tuple(e) for e in doc["base_edges"]}
        for item in inserted:
            for rec in item["crossings"]:
                e = tuple(rec["with"])
                chain = drawing.chains[("base" if e in base_edges else "route", e)]
                assert 0 <= rec["order_on_edge"] < len(chain) - 2


def test_strip_routes_roundtrip():
    inputs = [*_planar_plus_inputs(63, 12), *_sparse_inputs(65, 40)]
    for g, cert in inputs:
        drawing = build_drawing(g, cert)
        assert strip_routes(drawing) == drawing.base.graph


def _respliced(emb, route, first_id):
    """emb with route drawn in, rebuilt and re-traced from scratch: every
    crossing a degree-4 dummy, as build_drawing splices it."""
    path = [route.edge[0], *range(first_id, first_id + len(route.crossed)), route.edge[1]]
    rot = {v: list(nbrs) for v, nbrs in emb.rotation.items()}
    for i, (a, b) in enumerate(route.crossed):
        x, y = (a, b) if emb.face_of(a, b) == route.face_sequence[i] else (b, a)
        rot[x][rot[x].index(y)] = rot[y][rot[y].index(x)] = path[i + 1]
        rot[path[i + 1]] = [x, path[i], y, path[i + 2]]
    for end, nxt, face in ((path[0], path[1], route.face_sequence[0]),
                           (path[-1], path[-2], route.face_sequence[-1])):
        w = min(w for w in emb.graph.neighbors(end) if emb.face_of(w, end) == face)
        rot[end].insert(rot[end].index(w) + 1, nxt)
    edges = [(v, w) for v, nbrs in rot.items() for w in nbrs if v < w]
    return RotationEmbedding(Graph(rot, edges), rot)


def test_route_faces_match_a_full_retrace():
    """build_drawing re-traces only the faces along each route; every
    route equals insert_edge's in its planarization rebuilt from scratch,
    and so does the final rotation system."""
    graphs = [complete(5), complete(6), complete_bipartite(3, 4), complete_bipartite(4, 4),
              *map(named, NAMED)]
    inputs = [(g, skewness_exact(g)) for g in graphs]
    rng = random.Random(29)
    for _ in range(40):
        g, extra = planar_plus(rng.randint(20, 120), rng.randint(1, 5), rng)
        inputs.append((g, SkewnessCertificate(len(extra), frozenset(extra), exact=False)))
    routes = 0
    for g, cert in inputs:
        drawing = build_drawing(g, cert)
        emb = drawing.base
        for route in drawing.routes:
            assert insert_edge(emb, route.edge) == route
            emb = _respliced(emb, route, max(g.vertices) + 1 + emb.graph.n - g.n)
            routes += 1
        assert emb.rotation == drawing.embedding.rotation
    assert routes >= 100


def test_one_rotation_embedding_per_drawing(monkeypatch, k6):
    """Every route is spliced into one working rotation system, and the
    drawing's RotationEmbedding is built from it once."""
    built = []

    def counted(*args):
        built.append(1)
        return RotationEmbedding(*args)

    rng = random.Random(31)
    inputs = [(k6, skewness_exact(k6))]
    for _ in range(4):
        g, extra = planar_plus(rng.randint(20, 60), rng.randint(3, 5), rng)
        inputs.append((g, SkewnessCertificate(len(extra), frozenset(extra), exact=False)))
    for g, cert in inputs:
        built.clear()
        with monkeypatch.context() as m:
            m.setattr(router, "RotationEmbedding", counted)
            drawing = build_drawing(g, cert)
        assert len(drawing.routes) >= 3 and len(built) == 1


def test_every_dummy_is_a_crossing(k5, k6, petersen):
    """Around each dummy the rotation alternates between the two chains
    that meet there, so they cross instead of touching."""
    rng = random.Random(66)
    named = [k5, k6, Graph.from_networkx(nx.complete_bipartite_graph(3, 4)), petersen]
    inputs = [(g, skewness_exact(g)) for g in named]
    for n in range(7, 15):
        for t in range(1, 4):
            g, _ = planar_plus(n, t, rng)
            inputs.append((g, skewness_exact(g)))
    inputs += _sparse_inputs(67, 60)
    dummies = 0
    for g, cert in inputs:
        drawing = build_drawing(g, cert)
        chain_of = {
            norm_edge(u, w): key
            for key, chain in drawing.chains.items()
            for u, w in zip(chain, chain[1:])
        }
        for dv, (rkey, okey) in drawing.dummy_map.items():
            around = [chain_of[norm_edge(dv, w)] for w in drawing.embedding.rotation[dv]]
            assert around in ([rkey, okey] * 2, [okey, rkey] * 2)
            dummies += 1
    assert dummies >= 100


def test_one_embedding_per_drawing(monkeypatch, k6, petersen):
    """The base embedding is the certificate's: skewness_exact's checked
    one costs no LR test, a hand-built certificate's one. Every route is
    spliced into it, and the SVG is laid out in the result, with no
    planarity re-test of the planarization."""
    calls = []

    def counted(adj):
        calls.append(1)
        return lr_test(adj)

    lr_test = embedding.lr_test
    pp, _ = planar_plus(12, 3, random.Random(7))
    for g in (pp, k6, petersen):
        cert = skewness_exact(g)
        by_hand = SkewnessCertificate(cert.value, cert.removed, cert.exact)
        for c, expected in ((cert, 0), (by_hand, 1)):
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(embedding, "lr_test", counted)
                render(build_drawing(g, c), "svg")
            assert len(calls) == expected


def test_bogus_certificate_is_rejected(k4, k5, k6):
    """A hand-built certificate whose removal set does not planarize fails
    with a Kuratowski witness; a base that is also disconnected fails on
    its connectivity first; and a certificate's embedding of another graph
    is refused, not drawn in."""
    with pytest.raises(NonPlanarError) as exc:
        build_drawing(k6, SkewnessCertificate(1, frozenset({(0, 1)}), exact=False))
    witness = exc.value.witness
    assert witness and witness <= set(k6.edges()) - {(0, 1)}
    assert not is_planar(Graph(k6.vertices, witness))
    two_k5 = Graph(range(10), list(k5.edges()) + [(u + 5, v + 5) for u, v in k5.edges()])
    with pytest.raises(GraphFormatError, match="connected"):
        build_drawing(two_k5, SkewnessCertificate(0, frozenset(), exact=False))
    cert = skewness_exact(k5)
    with pytest.raises(CrossboundError, match="not one of this graph"):
        build_drawing(k6, cert)
    assert build_drawing(k4, skewness_exact(k4)).crossing_count == 0


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
