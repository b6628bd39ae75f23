"""Pinned skewness certificates over a fixed corpus.

One sha256 covers ``(value, sorted(removed), exact)`` of ``skewness_exact``
on every graph below, so a change to the search that should only make it
cheaper is checked to return the very same removal sets. Update the hash
only together with a documented change in the search's branch order.
"""

import hashlib
import random

from crossbound.generators import complete, complete_bipartite, named, planar_plus
from crossbound.skewness import skewness_exact

DIGEST = "e80491d2db7bc308c0e2c8e2d39693f4304e401388d94d7ccda4ea8313bcee95"


def _corpus():
    yield complete(5)
    yield complete(6)
    yield complete_bipartite(3, 3)
    yield complete_bipartite(3, 4)
    yield named("petersen")
    for n in range(7, 13):
        for t in (1, 2):
            for seed in range(3):
                yield planar_plus(n, t, random.Random(1000 * n + 10 * t + seed))[0]


def test_certificates_are_pinned():
    h = hashlib.sha256()
    for g in _corpus():
        cert = skewness_exact(g)
        h.update(repr((cert.value, sorted(cert.removed), cert.exact)).encode())
        h.update(b"\n")
    assert h.hexdigest() == DIGEST
