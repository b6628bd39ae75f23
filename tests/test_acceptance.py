"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line (run pytest with -s or rely on the
captured output on failure) and enforces its own wall-clock budget.
"""

import json
import random
import time

from crossbound.bounds import (
    certify_critical_bounds,
    is_k_crossing_critical,
    skewness_crossing_bound,
    verify_degree_reciprocal_bounds,
)
from crossbound.embedding import embed
from crossbound.generators import (
    complete,
    complete_bipartite,
    named,
    planar_plus,
    random_maximal_planar,
    random_planar_min_degree3,
)
from crossbound.graph import Graph
from crossbound.lightcycle import light_cycle_general, light_cycle_planar, mu
from crossbound.oracle import crossing_number
from crossbound.router import build_drawing, insert_edge, render
from crossbound.skewness import skewness_exact


def _report(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else "")
    print(line)
    assert ok, line


def test_criterion_1_k5_tightness():
    start = time.monotonic()
    k5 = complete(5)
    cert = skewness_exact(k5)
    drawing = build_drawing(k5, cert)
    ok = (
        cert.value == 1
        and drawing.crossing_count == 1
        and skewness_crossing_bound(5, 1) == 1
        and crossing_number(k5) == 1
    )
    elapsed = time.monotonic() - start
    _report("criterion-1 K5 tightness", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_2_edge_insertion_bound():
    start = time.monotonic()
    good = 0
    for i in range(300):
        rng = random.Random(1000 + i)
        n = rng.randint(5, 30)
        g = random_maximal_planar(n, rng)
        non_edges = [
            (u, v)
            for a, u in enumerate(g.vertices)
            for v in g.vertices[a + 1 :]
            if not g.has_edge(u, v)
        ]
        if not non_edges:
            continue  # n = 5 can be complete-ish; counted as vacuous
        e = non_edges[rng.randrange(len(non_edges))]
        route = insert_edge(embed(g), e)
        good += len(route.crossed) <= (2 * n - 7) // 3
    elapsed = time.monotonic() - start
    _report(
        "criterion-2 edge-insertion crossing bound",
        good == 300 and elapsed < 30.0,
        f"{good}/300, {elapsed:.2f}s",
    )


def test_criterion_3_planar_light_cycle():
    start = time.monotonic()
    good = 0
    for i in range(200):
        rng = random.Random(2000 + i)
        g = random_planar_min_degree3(rng.randint(4, 40), rng)
        wit = light_cycle_planar(g)
        m, _ = mu(g, wit.cycle)
        good += m == wit.mu and wit.mu <= 10 and len(wit.cycle) <= 5
    elapsed = time.monotonic() - start
    _report(
        "criterion-3 planar light cycle",
        good == 200 and elapsed < 30.0,
        f"{good}/200, {elapsed:.2f}s",
    )


def test_criterion_4_general_light_cycle():
    start = time.monotonic()
    good = 0
    fallbacks = 0
    for i in range(200):
        rng = random.Random(3000 + i)
        n = rng.randint(7, 25)
        t = rng.randint(0, 5)
        g, extra = planar_plus(n, t, rng)
        wit = light_cycle_general(g, extra)
        m, _ = mu(g, wit.cycle)
        good += m == wit.mu and wit.mu <= len(extra) + 10
        fallbacks += wit.fallback
    elapsed = time.monotonic() - start
    _report(
        "criterion-4 general light cycle",
        good == 200 and fallbacks <= 10 and elapsed < 60.0,
        f"{good}/200, {fallbacks} fallbacks, {elapsed:.2f}s",
    )


def test_criterion_5_oracle_ground_truth():
    start = time.monotonic()
    ok = (
        crossing_number(complete(5)) == 1
        and crossing_number(complete_bipartite(3, 3)) == 1
        and crossing_number(complete(6)) == 3
        and crossing_number(named("petersen")) == 2
    )
    elapsed = time.monotonic() - start
    _report("criterion-5 oracle ground truth", ok and elapsed < 300.0, f"{elapsed:.2f}s")


def test_criterion_6_criticality_bounds():
    start = time.monotonic()
    cases = [(complete(5), 1), (complete_bipartite(3, 3), 1), (complete(6), 3)]
    ok = True
    for g, k in cases:
        ok = ok and is_k_crossing_critical(g, k)
        rep = certify_critical_bounds(g, k)
        ok = ok and all(v == "true" for v in rep.satisfied.values())
    elapsed = time.monotonic() - start
    _report("criterion-6 criticality and bounds", ok and elapsed < 300.0, f"{elapsed:.2f}s")


def test_criterion_7_degree_reciprocal_lemma():
    start = time.monotonic()
    ok = verify_degree_reciprocal_bounds()
    elapsed = time.monotonic() - start
    _report("criterion-7 degree-reciprocal lemma", ok and elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_8_invariants():
    violations = []

    # Euler formula and the two face-sum identities on produced embeddings
    for i in range(40):
        rng = random.Random(8000 + i)
        g = random_planar_min_degree3(rng.randint(4, 30), rng)
        emb = embed(g)
        if g.n - g.m + len(emb.faces) != 2:
            violations.append(f"euler {i}")
        if sum(f.weight for f in emb.faces) != g.n:
            violations.append(f"weight-sum {i}")
        if sum(f.length for f in emb.faces) != 2 * g.m:
            violations.append(f"length-sum {i}")

    # sk <= cr wherever both tools give exact answers
    duals = [
        complete(5),
        complete(6),
        complete_bipartite(3, 3),
        complete_bipartite(3, 4),
        named("petersen"),
    ]
    for i in range(8):
        rng = random.Random(8100 + i)
        duals.append(planar_plus(rng.randint(6, 8), rng.randint(0, 2), rng)[0])
    for g in duals:
        if skewness_exact(g).value > crossing_number(g):
            violations.append(f"sk>cr on n={g.n},m={g.m}")

    # drawing JSON round-trips byte-identically
    for g in (complete(5), complete(6)):
        blob = render(build_drawing(g, skewness_exact(g)), "json")
        again = render(build_drawing(g, skewness_exact(g)), "json")
        if blob != again:
            violations.append(f"drawing bytes n={g.n}")
        doc = json.loads(blob)
        rebuilt = (json.dumps(doc, separators=(",", ":")) + "\n").encode("ascii")
        if rebuilt != blob:
            violations.append(f"json roundtrip n={g.n}")

    _report(
        "criterion-8 invariant suite",
        not violations,
        "0 violations" if not violations else "; ".join(violations),
    )
