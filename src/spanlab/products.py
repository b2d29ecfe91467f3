"""Self-products of a graph under the three movement rules.

A product vertex is the pair code ``u * n + v``: player A at u, player B at
v.  Edges encode one simultaneous step of the two players:

- traditional: each player stays or moves to a neighbour, not both staying;
- active: both players move along an edge;
- lazy: exactly one player moves along an edge.

``safety_subgraph`` restricts a product to the pairs whose distance in the
base graph is at least a threshold k, which is what span search needs.
"""

from __future__ import annotations

from enum import Enum

from .graphs import Graph, distance_matrix


class Rule(Enum):
    TRADITIONAL = "traditional"
    ACTIVE = "active"
    LAZY = "lazy"

    def __str__(self) -> str:
        return self.value


RULES = (Rule.TRADITIONAL, Rule.ACTIVE, Rule.LAZY)

VERTEX = "vertex"
EDGE = "edge"
KINDS = (VERTEX, EDGE)


def as_rule(rule: Rule | str) -> Rule:
    if isinstance(rule, Rule):
        return rule
    try:
        return Rule(str(rule).lower())
    except ValueError:
        raise ValueError(f"unknown movement rule {rule!r}") from None


class ProductGraph:
    """A distance-thresholded self-product of a base graph."""

    __slots__ = ("base", "rule", "threshold", "codes", "adj", "dist")

    def __init__(self, base: Graph, rule: Rule, threshold: int,
                 codes: tuple[int, ...], adj: dict[int, tuple[int, ...]],
                 dist: tuple[tuple[float, ...], ...]):
        self.base = base
        self.rule = rule
        self.threshold = threshold
        self.codes = codes          # surviving pair codes, ascending
        self.adj = adj              # code -> ascending neighbour codes
        self.dist = dist            # base-graph distance matrix

    def __repr__(self) -> str:
        return (f"ProductGraph(rule={self.rule.value}, threshold={self.threshold}, "
                f"pairs={len(self.codes)})")


def build_product(h: Graph, rule: Rule | str) -> ProductGraph:
    """Product of h with itself under the rule, threshold 0 (all n^2 pairs)."""
    rule = as_rule(rule)
    n = h.n
    dist = distance_matrix(h)
    adj: dict[int, tuple[int, ...]] = {}
    for u in range(n):
        au = h.adj[u]
        for v in range(n):
            av = h.adj[v]
            code = u * n + v
            nbrs: list[int] = []
            if rule is Rule.TRADITIONAL:
                for v2 in av:
                    nbrs.append(u * n + v2)
                for u2 in au:
                    nbrs.append(u2 * n + v)
                    for v2 in av:
                        nbrs.append(u2 * n + v2)
            elif rule is Rule.ACTIVE:
                for u2 in au:
                    for v2 in av:
                        nbrs.append(u2 * n + v2)
            else:
                for v2 in av:
                    nbrs.append(u * n + v2)
                for u2 in au:
                    nbrs.append(u2 * n + v)
            adj[code] = tuple(sorted(nbrs))
    return ProductGraph(h, rule, 0, tuple(range(n * n)), adj, dist)


def product_arcs(h: Graph, rule: Rule | str) -> int:
    """Arc count of ``build_product(h, rule)`` from the degree sum s = 2m,
    without building it.  The pair (u, v) has deg u + deg v moves of one
    player (lazy) and deg u * deg v moves of both (active); traditional
    allows either kind.  Summed over all n^2 pairs: 2ns and s^2."""
    rule = as_rule(rule)
    s = 2 * h.m
    one, both = 2 * h.n * s, s * s
    return {Rule.LAZY: one, Rule.ACTIVE: both, Rule.TRADITIONAL: one + both}[rule]


def safety_subgraph(p: ProductGraph, k: int) -> ProductGraph:
    """Restriction of p to pair codes at base distance >= k."""
    n = p.base.n
    dist = p.dist
    keep = [c for c in p.codes if dist[c // n][c % n] >= k]
    keepset = set(keep)
    adj = {c: tuple(b for b in p.adj[c] if b in keepset) for c in keep}
    return ProductGraph(p.base, p.rule, k, tuple(keep), adj, dist)
