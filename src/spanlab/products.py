"""Self-products of a graph under the three movement rules.

A product vertex is the pair code ``u * n + v``: player A at u, player B at
v.  Edges encode one step of the two players, in which each player stays or
moves to a neighbour, not both staying.  A rule is two facts about a step:

- ``solo``: one player may move while the other stays;
- ``joint``: both players may move at once.

Traditional allows both kinds of step, active only joint ones and lazy only
solo ones.  ``build_product(h, rule, k)`` keeps only the pairs whose
distance in the base graph is at least a threshold k, and the moves between
them: pair (u, v) survives iff v lies in row u of ``graphs.far_rows``.  The
build keeps only the rows.  The pair codes, and each pair's moves, are
generated from them and the base adjacency on first read.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property

from .graphs import Graph, distance_balls, far_rows, pair_codes


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


class ProductGraph(dict):
    """A distance-thresholded self-product of a base graph, held as the
    bitset rows of ``graphs.far_rows``: pair code -> its moves as ascending
    codes, generated on first read.  A stays or moves to a2 in N(a), in
    ascending order, and B's choices are a bitmask ANDed with row a2.  A
    code not in the product raises KeyError."""

    def __init__(self, base: Graph, rule: Rule, threshold: int, rows: list[int]):
        super().__init__()
        self.base, self.rule, self.threshold, self.rows = base, rule, threshold, rows

    def __missing__(self, code: int) -> tuple[int, ...]:
        h, rule, rows, n = self.base, self.rule, self.rows, self.base.n
        if not (0 <= code < n * n and rows[code // n] >> code % n & 1):
            raise KeyError(code)
        a, b = divmod(code, n)
        # B's choices when A stays (solo) and when A moves (solo, joint)
        stay = h.nbr[b] if rule.solo else 0
        move = (1 << b if rule.solo else 0) | (h.nbr[b] if rule.joint else 0)
        out = []
        for a2 in sorted((a, *h.adj[a])):
            mask, base = (stay if a2 == a else move) & rows[a2], a2 * n
            while mask:
                low = mask & -mask
                out.append(base + low.bit_length() - 1)
                mask ^= low
        moves = self[code] = tuple(out)
        return moves

    @property
    def adj(self) -> ProductGraph:
        """The product itself; ``bench/tracing.py`` reads ``result.adj``."""
        return self

    @cached_property
    def codes(self) -> tuple[int, ...]:
        """The surviving pair codes, ascending."""
        return pair_codes(self.rows)


def build_product(h: Graph, rule: Rule | str, k: int = 0) -> ProductGraph:
    """Product of h with itself under the rule, restricted to the pairs at
    base distance >= k (all n^2 pairs at k = 0) and the moves between them.
    Codes and each pair's moves are in ascending order."""
    rule = as_rule(rule)
    return ProductGraph(h, rule, k, far_rows(distance_balls(h), k))


def safety_subgraph(p: ProductGraph, k: int) -> ProductGraph:
    """Restriction of p to pair codes at base distance >= k; a product
    already at a higher threshold keeps it."""
    return build_product(p.base, p.rule, max(p.threshold, k))
