"""Span computation through good components of thresholded products.

The vertex span of a connected graph under a movement rule is the largest k
such that the self-product restricted to pairs at distance >= k has a
component whose two projections both cover every vertex.  Edge spans ask in
addition that, for every base edge and each coordinate, some component edge
moves that coordinate along it.  Search descends from the radius, which is
an upper bound for every variant.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graphs import Graph, is_connected
from .products import EDGE, KINDS, RULES, VERTEX, ProductGraph, Rule, as_rule, build_product, safety_subgraph


@dataclass(frozen=True)
class Certificate:
    """A witnessing component: re-running the component scan at ``threshold``
    must find ``component`` (pair codes) good, or edge-good for kind="edge"."""

    rule: Rule
    kind: str
    threshold: int
    component: tuple[int, ...]


def product_components(p: ProductGraph) -> list[tuple[int, ...]]:
    """Connected components of the product, ordered by least pair code."""
    seen: set[int] = set()
    out = []
    for start in p.codes:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        queue = deque([start])
        while queue:
            a = queue.popleft()
            for b in p.adj[a]:
                if b not in seen:
                    seen.add(b)
                    comp.append(b)
                    queue.append(b)
        out.append(tuple(sorted(comp)))
    return out


def good_components(p: ProductGraph) -> list[tuple[int, ...]]:
    """Components whose two projections each cover all base vertices."""
    n = p.base.n
    everything = set(range(n))
    out = []
    for comp in product_components(p):
        if {c // n for c in comp} == everything and {c % n for c in comp} == everything:
            out.append(comp)
    return out


def edge_good_components(p: ProductGraph) -> list[tuple[int, ...]]:
    """Good components whose edges also project onto every base edge.

    For each base edge uv and each coordinate there must be a component edge
    that moves that coordinate between u and v; a closed walk through the
    component then traverses uv in the matching projection.
    """
    n = p.base.n
    target = set(p.base.edges())
    out = []
    for comp in good_components(p):
        cov1: set[tuple[int, int]] = set()
        cov2: set[tuple[int, int]] = set()
        for a in comp:
            u, v = divmod(a, n)
            for b in p.adj[a]:
                if b <= a:
                    continue
                u2, v2 = divmod(b, n)
                if u != u2:
                    cov1.add((u, u2) if u < u2 else (u2, u))
                if v != v2:
                    cov2.add((v, v2) if v < v2 else (v2, v))
        if cov1 == target and cov2 == target:
            out.append(comp)
    return out


def product_span(base: ProductGraph, kind: str) -> tuple[int, Certificate]:
    """Span of a connected graph read off its threshold-0 product ``base``."""
    if base.base.n == 0:
        raise ValueError("span needs at least one vertex")
    finder = good_components if kind == VERTEX else edge_good_components
    rad = int(min(max(row) for row in base.dist))
    for k in range(rad, -1, -1):
        comps = finder(safety_subgraph(base, k))
        if comps:
            return k, Certificate(rule=base.rule, kind=kind, threshold=k, component=comps[0])
    raise AssertionError("threshold 0 always admits a good component for a connected graph")


def rule_spans(h: Graph, rule: Rule | str,
               kinds: tuple[str, ...] = KINDS) -> dict[str, tuple[int, Certificate]]:
    """Spans of each of ``kinds`` under one rule, from one product build.

    The product is freed on return, so a loop over rules holds one at a time.
    """
    if not is_connected(h):
        raise ValueError("span is defined for connected graphs only")
    base = build_product(h, as_rule(rule))
    return {kind: product_span(base, kind) for kind in kinds}


def vertex_span(h: Graph, rule: Rule | str) -> tuple[int, Certificate]:
    """Largest safety distance two vertex-covering players can keep."""
    return rule_spans(h, rule, (VERTEX,))[VERTEX]


def edge_span(h: Graph, rule: Rule | str) -> tuple[int, Certificate]:
    """Largest safety distance two edge-covering players can keep."""
    return rule_spans(h, rule, (EDGE,))[EDGE]


@dataclass(frozen=True)
class SpanReport:
    """All six span values of one graph plus their certificates."""

    values: dict[Rule, dict[str, int]]
    certificates: dict[Rule, dict[str, Certificate]]

    def value(self, rule: Rule | str, kind: str) -> int:
        return self.values[as_rule(rule)][kind]


def span_report(h: Graph) -> SpanReport:
    values: dict[Rule, dict[str, int]] = {}
    certs: dict[Rule, dict[str, Certificate]] = {}
    for rule in RULES:
        spans = rule_spans(h, rule)
        values[rule] = {kind: k for kind, (k, _) in spans.items()}
        certs[rule] = {kind: cert for kind, (_, cert) in spans.items()}
    return SpanReport(values=values, certificates=certs)
