"""Closed-form crossing-number bounds and crossing-criticality certification.

All bound arithmetic is exact: rationals throughout, and the lone
irrational term (sqrt(k) in the minimum-degree-5 bound) is kept symbolic,
so comparisons against integer crossing numbers are exact decisions rather
than float guesses. certify_critical_bounds reads cr, and the skewness
wherever it can, off the oracle's crossing witnesses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Union

from .errors import CrossboundError, NotCriticalError
from .graph import Graph, automorphisms, component_roots, delete_edge, min_degree, norm_edge
from .lightcycle import CycleWitness, light_cycle_general
from .oracle import cr_at_most, crossing_witnesses
from .oracle import DEFAULT_MAX_EDGES, DEFAULT_MAX_K
from .skewness import SkewnessCertificate, certificate_at_lower_bound, skewness_exact


@dataclass(frozen=True)
class SqrtExpr:
    """Exact value of ``rational + coeff * sqrt(radicand)``.

    Supports exact comparison with rationals by isolating the square root
    and squaring, so no floating-point rounding can flip a bound decision.
    """

    rational: Fraction
    coeff: Fraction
    radicand: int

    def __float__(self) -> float:
        return float(self.rational) + float(self.coeff) * math.sqrt(self.radicand)

    def exact(self) -> Optional[Fraction]:
        root = math.isqrt(self.radicand)
        if root * root == self.radicand:
            return self.rational + self.coeff * root
        return None

    def __ge__(self, other) -> bool:
        # self >= q  <=>  coeff*sqrt(r) >= q - rational
        rhs = Fraction(other) - self.rational
        lhs_sq = self.coeff * self.coeff * self.radicand  # (coeff*sqrt(r))^2
        if self.coeff >= 0:
            return rhs <= 0 or lhs_sq >= rhs * rhs
        return rhs <= 0 and lhs_sq <= rhs * rhs

    def __lt__(self, other) -> bool:
        return not self.__ge__(other)


BoundValue = Union[Fraction, SqrtExpr]


def skewness_crossing_bound(n: int, sk: int) -> Fraction:
    """Upper bound on cr(G) from n vertices and skewness sk:
    (3 sk^2 + (4n - 17) sk) / 6. Equals 1 for (n, sk) = (5, 1)."""
    if n < 1 or sk < 0:
        raise CrossboundError("need n >= 1 and sk >= 0")
    return Fraction(3 * sk * sk + (4 * n - 17) * sk, 6)


def critical_cycle_bound(k: int, delta: int, s: int, sk: int) -> Fraction:
    """Upper bound on cr(G) for a k-crossing-critical G containing a cycle
    of lightness s: 2k + (s-5)/2 when the minimum degree is 3, else
    2k - sk + delta*(s - delta + 2) / (2*(delta - 2))."""
    if delta < 3:
        raise CrossboundError("minimum degree must be >= 3")
    if delta == 3:
        return 2 * k + Fraction(s - 5, 2)
    return 2 * k - sk + Fraction(delta * (s - delta + 2), 2 * (delta - 2))


def critical_degree_bound(k: int, delta: int, n: int) -> BoundValue:
    """Upper bound on cr(G) for a k-crossing-critical G by minimum degree:
    2.5(k+1) at degree 3, 2(k+4) at degree 4, and
    2k - sqrt(k)/(2n) + 35/6 at degree >= 5 (exact symbolic sqrt)."""
    if delta < 3 or k < 1 or n < 1:
        raise CrossboundError("need delta >= 3, k >= 1, n >= 1")
    if delta == 3:
        return Fraction(5, 2) * (k + 1)
    if delta == 4:
        return Fraction(2 * (k + 4))
    expr = SqrtExpr(2 * k + Fraction(35, 6), Fraction(-1, 2 * n), k)
    exact = expr.exact()
    return exact if exact is not None else expr


# (count, need_sum, cap) of each implication verify_degree_reciprocal_bounds states
_RECIPROCAL_PARTS = ((3, Fraction(1, 2), 10), (4, Fraction(1), 5), (5, Fraction(3, 2), 4))


def _enumerate_part(count: int, need_sum: Fraction, cap: int) -> bool:
    """Check one implication for every nondecreasing degree tuple d_i >= 3.

    Exact with finitely many prefixes: the conclusion reads only the first
    count - 1 degrees, and the reciprocal sum falls as the last degree
    grows, so a prefix of count - 1 degrees has a last degree that meets
    the hypothesis iff its own largest degree does. A prefix is extended by
    d only while acc + (entries left)/d > need_sum, since every later entry
    is >= d; at a leaf that is the hypothesis with its largest degree last,
    so the leaf checks the conclusion alone.

    The loop over d ends: it runs on prefixes of at most count - 2 degrees,
    each 1/d <= 1/3, so acc <= (count - 2)/3 < need_sum in all three parts
    (1/3 < 1/2, 2/3 < 1, 1 < 3/2), while (entries left)/d falls to 0."""

    def rec(prefix, acc):
        if len(prefix) == count - 1:
            return sum(x - 2 for x in prefix) <= cap
        lo = prefix[-1] if prefix else 3
        remaining = count - len(prefix)
        for d in itertools.count(lo):
            if acc + Fraction(remaining, d) <= need_sum:
                break  # larger d only shrinks the sum; hypothesis unreachable
            if not rec(prefix + (d,), acc + Fraction(1, d)):
                return False
        return True

    return rec((), Fraction(0))


def verify_degree_reciprocal_bounds() -> bool:
    """Verify, in exact rationals, the three implications for every
    nondecreasing degree tuple d_i >= 3:

      sum of 3 reciprocals > 1/2  =>  (d1-2) + (d2-2)          <= 10
      sum of 4 reciprocals > 1    =>  (d1-2) + ... + (d3-2)    <= 5
      sum of 5 reciprocals > 3/2  =>  (d1-2) + ... + (d4-2)    <= 4
    """
    return all(_enumerate_part(*part) for part in _RECIPROCAL_PARTS)


def is_k_crossing_critical(
    g: Graph, k: int, max_k: int = DEFAULT_MAX_K, max_edges: int = DEFAULT_MAX_EDGES
) -> bool:
    """cr(g) >= k and cr(g minus e) <= k - 1 for every edge e.

    cr_at_most decides each, one witness per component with an edge, under
    one budget rule; a cr > max_k it establishes for g - e holds for g too.

    g - e is asked only for the least edge e of each edge orbit, closed
    by graph.component_roots over the pairs (f, s(f)) for each map s that
    graph.automorphisms(g) returns. An automorphism s maps g - f onto
    g - s(f), so every edge has its orbit's answer, and the verdict is the
    same as when every edge is asked.
    """
    if k < 1:
        raise CrossboundError("k must be >= 1")
    if cr_at_most(g, k - 1, max_k=max_k, max_edges=max_edges)[0]:
        return False
    edges = g.edges()
    least = component_roots(
        edges, ((e, norm_edge(s[e[0]], s[e[1]])) for s in automorphisms(g) for e in edges))
    return all(cr_at_most(delete_edge(g, e), k - 1, max_k=max_k, max_edges=max_edges)[0]
               for e in edges if least[e] == e)


@dataclass(frozen=True)
class BoundReport:
    """Every applicable bound for one graph, with the inputs that fed it.
    ``sk_certificate`` is Euler-checked; certify_critical_bounds says
    where it comes from."""

    n: int
    delta: int
    k: int
    cr: int
    sk_certificate: SkewnessCertificate
    mu_witness: Optional[CycleWitness]  # None, like the bounds on it, below degree 3
    skewness_bound: Fraction
    cycle_bound: Optional[Fraction]
    degree_bound: Optional[BoundValue]
    satisfied: Dict[str, str]


def certify_critical_bounds(
    g: Graph,
    k: int,
    max_k: int = DEFAULT_MAX_K,
    max_edges: int = DEFAULT_MAX_EDGES,
) -> BoundReport:
    """Evaluate all bounds for a k-crossing-critical graph and record, per
    bound, whether the exact crossing number respects it.

    cr sums oracle.crossing_witnesses, one per component with an edge; the
    lesser edge of each of their crossing pairs is the skewness certificate
    when it meets the lower bound (skewness.certificate_at_lower_bound);
    only otherwise does skewness_exact search.

    Raises NotCriticalError if g is not k-crossing-critical."""
    if not is_k_crossing_critical(g, k, max_k, max_edges):
        raise NotCriticalError(f"graph is not {k}-crossing-critical")
    delta = min_degree(g)
    witnesses = crossing_witnesses(g, max_k=max_k, max_edges=max_edges)
    cr = sum(wit.k for wit in witnesses)
    removed = {e for wit in witnesses for e, _ in wit.pairs}
    cert = certificate_at_lower_bound(g, removed) or skewness_exact(g)
    wit = (light_cycle_general(g, cert.removed, embedding=cert.embedding)
           if delta >= 3 else None)
    sk_bound = skewness_crossing_bound(g.n, cert.value)
    cyc_bound = critical_cycle_bound(k, delta, wit.mu, cert.value) if delta >= 3 else None
    deg_bound = critical_degree_bound(k, delta, g.n) if delta >= 3 else None
    bounds = {"skewness_bound": sk_bound, "cycle_bound": cyc_bound, "degree_bound": deg_bound}
    satisfied = {name: "true" if b >= cr else "false"
                 for name, b in bounds.items() if b is not None}
    return BoundReport(
        n=g.n,
        delta=delta,
        k=k,
        cr=cr,
        sk_certificate=cert,
        mu_witness=wit,
        skewness_bound=sk_bound,
        cycle_bound=cyc_bound,
        degree_bound=deg_bound,
        satisfied=satisfied,
    )
