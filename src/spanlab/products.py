"""Self-products of a graph under the three movement rules.

A product vertex is the pair code ``u * n + v``: player A at u, player B at
v.  Edges encode one step of the two players, in which each player stays or
moves to a neighbour, not both staying.  A rule is two facts about a step:

- ``solo``: one player may move while the other stays;
- ``joint``: both players may move at once.

Traditional allows both kinds of step, active only joint ones and lazy only
solo ones.  ``build_product(h, rule, k)`` keeps only the pairs whose
distance in the base graph is at least a threshold k, and the moves between
them: pair (u, v) survives iff v lies in row u of ``graphs.far_rows``, so
the moves come straight from the base adjacency and no pair below the
threshold is ever made.
"""

from __future__ import annotations

from enum import Enum

from .graphs import Graph, distance_balls, far_rows, members


class Rule(Enum):
    TRADITIONAL = "traditional"
    ACTIVE = "active"
    LAZY = "lazy"

    def __str__(self) -> str:
        return self.value

    @property
    def solo(self) -> bool:
        """A step may move one player while the other stays."""
        return self is not Rule.ACTIVE

    @property
    def joint(self) -> bool:
        """A step may move both players at once."""
        return self is not Rule.LAZY


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

    __slots__ = ("base", "rule", "threshold", "codes", "adj")

    def __init__(self, base: Graph, rule: Rule, threshold: int,
                 codes: tuple[int, ...], adj: dict[int, tuple[int, ...]]):
        self.base = base
        self.rule = rule
        self.threshold = threshold
        self.codes = codes          # surviving pair codes, ascending
        self.adj = adj              # code -> ascending neighbour codes

    def __repr__(self) -> str:
        return (f"ProductGraph(rule={self.rule.value}, threshold={self.threshold}, "
                f"pairs={len(self.codes)})")


def build_product(h: Graph, rule: Rule | str, k: int = 0) -> ProductGraph:
    """Product of h with itself under the rule, restricted to the pairs at
    base distance >= k (all n^2 pairs at k = 0) and the moves between them.
    Codes and each pair's moves are in ascending order."""
    rule = as_rule(rule)
    n = h.n
    rows = far_rows(distance_balls(h), k)
    stay = [(w,) for w in range(n)]
    # (A's moves, B's moves) per kind of step the rule allows
    kinds = (([(h.adj, stay), (stay, h.adj)] if rule.solo else [])
             + ([(h.adj, h.adj)] if rule.joint else []))
    adj: dict[int, tuple[int, ...]] = {}
    for u in range(n):
        for v in members(rows[u]):
            adj[u * n + v] = tuple(sorted([
                u2 * n + v2 for a_moves, b_moves in kinds
                for u2 in a_moves[u] for v2 in b_moves[v] if rows[u2] >> v2 & 1]))
    return ProductGraph(h, rule, k, tuple(adj), adj)


def product_arcs(h: Graph, rule: Rule | str) -> int:
    """Arc count of ``build_product(h, rule)`` at threshold 0, and so an
    upper bound at any threshold, from the degree sum s = 2m, without
    building it.  The pair (u, v) has deg u + deg v solo moves and
    deg u * deg v joint ones; summed over all n^2 pairs, 2ns and s^2."""
    rule = as_rule(rule)
    s = 2 * h.m
    return (2 * h.n * s if rule.solo else 0) + (s * s if rule.joint else 0)


def safety_subgraph(p: ProductGraph, k: int) -> ProductGraph:
    """Restriction of p to pair codes at base distance >= k; a product
    already at a higher threshold keeps it."""
    return build_product(p.base, p.rule, max(p.threshold, k))
