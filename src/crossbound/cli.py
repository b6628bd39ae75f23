"""Batch command-line front end.

Inputs are either graph files (graph6 or edge-list) or inline family
specs such as ``complete:5``, ``bipartite:3:3``, ``planar-plus:12:2`` and
the named graphs (petersen, dodecahedron, icosahedron, cube). Machine
output is JSON with a reproducibility header (tool version, input hash,
seed, budgets); reruns with the same configuration are byte-identical.

Exit codes: 0 success, 1 error, 2 bound-violation finding (draw),
3 budget exceeded.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

import click

from . import __version__
from .bounds import (
    certify_critical_bounds,
    skewness_crossing_bound,
    verify_degree_reciprocal_bounds,
)
from .errors import BudgetExceededError, CrossboundError, NotCriticalError
from .graph import Graph, check_graph_size, min_degree, parse_graph, serialize_graph
from .lightcycle import light_cycle_general
from .oracle import DEFAULT_MAX_EDGES, DEFAULT_MAX_K, crossing_number
from .router import build_drawing, render
from .skewness import skewness_exact
from . import generators

# The SVG layout's dense solve is small; OpenBLAS's default of one thread
# per CPU can make it many times slower. numpy is first imported when an SVG
# is laid out, after this line, and a value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


# (family, number of sizes) -> (the (vertices, edges) the spec implies,
# checked against MAX_GRAPH_SIZE before anything is generated; the maker,
# called with the sizes and a seeded Random)
_FAMILIES = {
    ("complete", 1): (lambda n: (n, n * (n - 1) // 2),
                      lambda n, rng: generators.complete(n)),
    ("bipartite", 2): (lambda a, b: (a + b, a * b),
                       lambda a, b, rng: generators.complete_bipartite(a, b)),
    ("maximal-planar", 1): (lambda n: (n, 3 * n - 6),
                            lambda n, rng: generators.random_maximal_planar(n, rng)),
    ("planar-plus", 2): (lambda n, t: (n, 3 * n - 6 + t),
                         lambda n, t, rng: generators.planar_plus(n, t, rng)[0]),
}
# the named graphs are small: none comes near the limit
_FAMILIES.update({(name, 0): (lambda: (0, 0), lambda rng, name=name: generators.named(name))
                  for name in generators.NAMED})


def _resolve_graph(spec: str, fmt: str, seed: int) -> Graph:
    if os.path.exists(spec):
        try:
            return parse_graph(Path(spec).read_bytes(), fmt)
        except OSError as exc:
            raise CrossboundError(f"{spec!r}: cannot read: {exc.strerror}") from None
    family, *fields = spec.split(":")
    try:
        args = [int(x) for x in fields]
    except ValueError:
        raise CrossboundError(f"{spec!r}: sizes in a family spec must be integers") from None
    if (family, len(args)) not in _FAMILIES:
        raise CrossboundError(
            f"{spec!r} is neither a readable file nor a known family spec"
        )
    size, make = _FAMILIES[family, len(args)]
    check_graph_size(repr(spec), *size(*args))
    return make(*args, random.Random(seed))


def _meta(spec: str, g: Graph, seed: int, **budgets) -> dict:
    canonical = serialize_graph(g, "graph6")  # every input graph has ids 0..n-1
    return {
        "tool": "crossbound",
        "version": __version__,
        "input": spec,
        "input_sha256": hashlib.sha256(canonical).hexdigest(),
        "seed": seed,
        "budgets": dict(sorted(budgets.items())),
    }


def _rat(x) -> Optional[str]:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return None if x is None else repr(float(x))


def _emit(payload: dict, out, pretty: bool):
    text = json.dumps(payload, indent=2 if pretty else None,
                      separators=None if pretty else (",", ":")) + "\n"
    if out:
        Path(out).write_bytes(text.encode("ascii"))
    else:
        click.echo(text, nl=False)


def _fail(message: str, code: int):
    click.echo(json.dumps({"error": message}), err=True)
    sys.exit(code)


class _Main(click.Group):
    """The one error path of every command: a budget error exits 3 with the
    fact it established; any other package, usage or output-path error exits 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BudgetExceededError as exc:
            _fail(f"{exc} ({exc.established})" if exc.established else str(exc), 3)
        except (CrossboundError, OSError) as exc:
            _fail(str(exc), 1)
        except click.UsageError as exc:
            _fail(exc.format_message(), 1)


@click.group(cls=_Main)
def main():
    """Crossing-number and skewness toolkit."""


_input_arg = click.argument("input_spec", metavar="INPUT")
_fmt_opt = click.option("--format", "fmt", type=click.Choice(["graph6", "edgelist"]),
                        default="graph6", show_default=True)
_seed_opt = click.option("--seed", type=int, default=0, show_default=True)
_out_opt = click.option("--out", type=click.Path(), default=None,
                        help="Write JSON here instead of stdout.")
_pretty_opt = click.option("--pretty", is_flag=True, help="Indented JSON.")


@main.command()
@_input_arg
@_fmt_opt
@_seed_opt
@_out_opt
@_pretty_opt
@click.option("--max-k", type=int, default=DEFAULT_MAX_K, show_default=True)
@click.option("--sk-budget", type=int, default=None,
              help="Largest removal-set size tried (default: lower bound + 4).")
def analyze(input_spec, fmt, seed, out, pretty, max_k, sk_budget):
    """Full report: skewness certificate, light-cycle witness, bounds, cr."""
    g = _resolve_graph(input_spec, fmt, seed)
    cert = skewness_exact(g, budget=sk_budget)
    delta = min_degree(g) if g.n else None
    report = {
        "meta": _meta(input_spec, g, seed, max_k=max_k, sk_budget=sk_budget),
        "n": g.n,
        "m": g.m,
        "min_degree": delta,
        "skewness": {
            "value": cert.value,
            "removed": [list(e) for e in sorted(cert.removed)],
            "exact": cert.exact,
        },
    }
    if g.n and delta >= 3:
        wit = light_cycle_general(g, cert.removed, embedding=cert.embedding)
        report["light_cycle"] = {
            "cycle": list(wit.cycle),
            "apex": wit.apex,
            "mu": wit.mu,
            "fallback": wit.fallback,
        }
    else:
        report["light_cycle"] = None
    report["skewness_bound"] = _rat(skewness_crossing_bound(g.n, cert.value)) if g.n else None
    try:
        cr = crossing_number(g, max_k=max_k)
        report["cr"] = cr
        report["cr_status"] = "exact"
    except BudgetExceededError as exc:
        report["cr"] = None
        report["cr_status"] = str(exc.established or "budget exceeded")
    _emit(report, out, pretty)


@main.command()
@_input_arg
@_fmt_opt
@_seed_opt
@_out_opt
@_pretty_opt
@click.option("--svg", "svg_path", type=click.Path(), default=None,
              help="Also write an SVG picture here.")
@click.option("--sk-budget", type=int, default=None)
def draw(input_spec, fmt, seed, out, pretty, svg_path, sk_budget):
    """Build a low-crossing drawing; exit 2 if it misses the bound."""
    g = _resolve_graph(input_spec, fmt, seed)
    cert = skewness_exact(g, budget=sk_budget)
    drawing = build_drawing(g, cert)
    payload = {
        "meta": _meta(input_spec, g, seed, sk_budget=sk_budget),
        "drawing": json.loads(render(drawing, "json")),
    }
    if svg_path:
        Path(svg_path).write_bytes(render(drawing, "svg"))
    _emit(payload, out, pretty)
    if not drawing.bound_met:
        sys.exit(2)


@main.command()
@_input_arg
@_fmt_opt
@_seed_opt
@_out_opt
@_pretty_opt
@click.option("--max-k", type=int, default=DEFAULT_MAX_K, show_default=True)
@click.option("--max-edges", type=int, default=DEFAULT_MAX_EDGES, show_default=True)
def oracle(input_spec, fmt, seed, out, pretty, max_k, max_edges):
    """Exact crossing number by exhaustive configuration search."""
    g = _resolve_graph(input_spec, fmt, seed)
    cr = crossing_number(g, max_k=max_k, max_edges=max_edges)
    if out or pretty:
        _emit({"meta": _meta(input_spec, g, seed, max_k=max_k,
                             max_edges=max_edges), "cr": cr}, out, pretty)
    else:
        click.echo(str(cr))


@main.command()
@_input_arg
@_fmt_opt
@_seed_opt
@_out_opt
@_pretty_opt
@click.option("--k", type=int, required=True, help="Criticality level to test.")
@click.option("--max-k", type=int, default=DEFAULT_MAX_K, show_default=True)
@click.option("--max-edges", type=int, default=DEFAULT_MAX_EDGES, show_default=True)
def critical(input_spec, fmt, seed, out, pretty, k, max_k, max_edges):
    """Test k-crossing-criticality and certify every applicable bound."""
    g = _resolve_graph(input_spec, fmt, seed)
    payload = {
        "meta": _meta(input_spec, g, seed, k=k, max_k=max_k, max_edges=max_edges),
        "k": k,
        "critical": True,
    }
    try:
        rep = certify_critical_bounds(g, k, max_k=max_k, max_edges=max_edges)
    except NotCriticalError:
        payload["critical"] = False
    else:
        payload["cr"] = rep.cr
        payload["bounds"] = {
            "skewness_bound": _rat(rep.skewness_bound),
            "cycle_bound": _rat(rep.cycle_bound),
            "degree_bound": _rat(rep.degree_bound),
        }
        payload["satisfied"] = rep.satisfied
    _emit(payload, out, pretty)


@main.command("verify-lemma")
@_out_opt
@_pretty_opt
def verify_lemma(out, pretty):
    """Verify the degree-reciprocal implications for all degrees."""
    ok = verify_degree_reciprocal_bounds()
    _emit({"holds": ok}, out, pretty)
    if not ok:
        sys.exit(1)


@main.command()
@click.argument("family", metavar="FAMILY")
@_seed_opt
@click.option("--out", type=click.Path(), default=None)
@_fmt_opt
def generate(family, seed, out, fmt):
    """Emit a generated graph (complete:N, bipartite:A:B, planar-plus:N:T,
    maximal-planar:N, petersen, dodecahedron, icosahedron, cube)."""
    if os.path.exists(family):
        raise CrossboundError("generate takes a family spec, not a file")
    g = _resolve_graph(family, fmt, seed)
    data = serialize_graph(g, fmt)
    if out:
        Path(out).write_bytes(data)
    else:
        click.echo(data.decode("ascii"), nl=False)


if __name__ == "__main__":
    main()
