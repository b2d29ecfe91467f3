"""Brute-force span oracle: one mark union per component of the pair moves.

This is the independent cross-check for the component-based solver, and
shares no code with it: moves are generated per pair, straight from the
base adjacency and the distance balls; thresholds are tried downwards from
the radius; and there is no level scan, no rule table, no transposition and
no bit-parallel flood.  Coverage is tracked with
bitmasks.  The kind picks the mark a move adds to a player: the vertex
entered (vertex kind, n bits, the start vertex marked too) or the edge moved
along (edge kind, m bits, 0 when the player stays).

At threshold k the pair codes c = u n + v with u and v at distance >= k,
and the rule's moves between them, form a graph whose arcs come in both
directions: a move's reverse is a legal move of the same rule, and the
distance test reads only its ends.  The oracle rests on one lemma:

    A component C of that graph admits a walk along which both players
    cover iff, for each player, its start mark at a pair of C and its
    marks on all of C's arcs together fill its mask.

Proof.  A walk stays in its component, and what a player holds at its end
is its start mark and the marks of the arcs it took, so "only if" holds.
The pair of C chosen does not matter: start marks are 0 in the edge kind,
and in the vertex kind every pair of a C with an arc is entered by one,
whose mark is that pair's start mark.  For "if", start anywhere in C and,
for each arc (x, y) of C in turn, walk inside C to x (C is connected and
its arcs come in both directions) and take the arc.  Marks only
accumulate, so at the end each player holds its start mark and every
arc's mark.

So the oracle needs no search over (pair code, mask) states: one depth-first
pass over the pair codes of each component ORs A's and B's mark of every arc
into two integers, seeded with the root's start marks, and threshold k is
feasible iff some component ends with both full.  A pair's moves are
generated when the pass first pops it, so each move is built once per
threshold.

One call counts its work, over every threshold and component, and raises
``CapacityError`` once that passes ``ORACLE_BUDGET``: one unit per move
generated, charged a pair at a time, so time and memory stay bounded and
larger graphs answer where the pass is cheap.
"""

from __future__ import annotations

from .errors import CapacityError
from .graphs import Graph, distance_balls, is_connected, metrics
from .products import EDGE, VERTEX, Rule, as_rule

# Work limit of one oracle call: moves generated, over every threshold.
# The dearest connected graph with n <= 7 costs 1,722 units (the traditional
# vertex span of K7).  On a 2-vCPU Xeon VM, the traditional edge span of
# complete:40 stops at this limit after 1,000,878 units in 0.6 s, and the
# traditional vertex span of complete:80 after 1,004,721 units in 0.4 s,
# having generated the moves of 159 of its 6,320 pairs; both at 15 MiB peak
# RSS.
ORACLE_BUDGET = 1_000_000


def _charge(left: list[int], units: int) -> None:
    """Take ``units`` from the one-item count of units a call has ``left``."""
    left[0] -= units
    if left[0] < 0:
        raise CapacityError("ORACLE_BUDGET", ORACLE_BUDGET, ORACLE_BUDGET - left[0])


def _feasible(h: Graph, rule: Rule, k: int, kind: str, left: list[int]) -> bool:
    """Whether some component at threshold k lets each player cover."""
    n = h.n
    everyone = (1 << n) - 1
    # both positions at distance >= k: v is far from u iff it lies outside ball k - 1 of u
    far = [everyone & ~ball for ball in distance_balls(h)[k - 1]] if k else [everyone] * n
    adj = h.adj
    # the other player's options when one moves: stay or move, move, stay
    other = ([(*a, u) for u, a in enumerate(adj)] if rule is Rule.TRADITIONAL
             else adj if rule is Rule.ACTIVE else [(u,) for u in range(n)])
    # gain[x][y]: the mark of a player moving from x to y (y == x: staying)
    if kind == VERTEX:
        full, gain = everyone, [[1 << y for y in range(n)]] * n
    else:
        full, gain = (1 << h.m) - 1, [[0] * n for _ in range(n)]
        for i, (x, y) in enumerate(h.edges()):
            gain[x][y] = gain[y][x] = 1 << i
    seen = bytearray(n * n)
    for root in range(n * n):
        u, v = divmod(root, n)
        if seen[root] or not far[u] >> v & 1:
            continue
        seen[root] = 1
        marks_a, marks_b = gain[u][u], gain[v][v]
        stack = [root]
        while stack:
            u, v = divmod(stack.pop(), n)
            # the pair's moves: v's alone (a solo step), then u's with v's options
            bs = [] if rule is Rule.ACTIVE else [u * n + v2 for v2 in adj[v] if far[u] >> v2 & 1]
            bs += [u2 * n + v2 for u2 in adj[u] for v2 in other[v] if far[u2] >> v2 & 1]
            _charge(left, len(bs))
            row_a, row_b = gain[u], gain[v]
            for b in bs:
                u2, v2 = divmod(b, n)
                marks_a |= row_a[u2]
                marks_b |= row_b[v2]
                if not seen[b]:
                    seen[b] = 1
                    stack.append(b)
        if marks_a == full and marks_b == full:
            return True
    return False


def brute_force_span(h: Graph, rule: Rule | str, kind: str) -> int:
    """Largest feasible safety threshold, tried downwards from the radius;
    raises ``CapacityError`` once the work passes ``ORACLE_BUDGET``."""
    rule = as_rule(rule)
    if kind not in (VERTEX, EDGE):
        raise ValueError(f"kind must be '{VERTEX}' or '{EDGE}', got {kind!r}")
    if not is_connected(h):
        raise ValueError("the oracle handles connected graphs only")
    if h.n == 0:
        raise ValueError("span needs at least one vertex")
    left = [ORACLE_BUDGET]
    for k in range(int(metrics(h).radius), -1, -1):
        if _feasible(h, rule, k, kind, left):
            return k
    raise AssertionError("threshold 0 is always feasible for a connected graph")
