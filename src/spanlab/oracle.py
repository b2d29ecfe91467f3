"""Brute-force span oracle built on raw reachability over player states.

This is the independent cross-check for the component-based solver, so it
never touches the product machinery, the level scans or the rule table's
step facts: legal moves come straight from the base adjacency and the
distance balls, and coverage is tracked with bitmasks.

Both kinds split by phases.  Each rule's successor relation on pair codes
c = u n + v is symmetric, so any two configurations in one component are
joined by legal moves, and coverage only grows along a walk.  So a
component admits a pair of covering walks iff player A alone can cover
inside it and player B can too (cover with A, walk over, cover with B).
Each side is a search over (pair code, mark mask) states; the kind picks
the mark a move adds: the vertex entered (vertex kind, n bits, the start
vertex marked too) or the edge moved along (edge kind, m bits, 0 when the
player stays).

One search per side from a single start decides a whole component.  An
exhaustive search from c reaches a state at every pair code of c's
component and at no other, and a start elsewhere gains nothing: c walks
there first and holds a superset of its marks.  So pair codes are tried in
ascending order: A's search runs from c and, only if it reaches the full
mask, B's search too; if both do, threshold k is feasible.

A pair's moves are generated, and charged, when a search first pops a state
at that pair; the other player's search relabels them with its own marks.
A failed search is exhaustive and stays in its component, so it has
generated the moves of every pair there (if A's search succeeds, B's
failure covers the component).  So a code whose moves exist lies in a
component that failed, and the next start is the least code with none.

The search is depth first over integer states ``code << width | mask``,
each arc an increment ``b << width | mark`` ORed into the mask.  A popped
state pushes its unvisited successors with those that add a mark last, so
they are popped first and a successful search dives towards the full mask.
The order changes no answer: each state is marked when first pushed and
each popped state tests all its successors, so "infeasible" is exhaustive.
``visited`` is a set: few of the n^2 2^width states are reached.

One call counts its work, over every threshold and component, and raises
``CapacityError`` once that passes ``ORACLE_BUDGET``: one unit per move
generated, one per state marked visited.  Each search checks the live count
once per popped state, so time and memory stay bounded and larger graphs
answer where the search is cheap.
"""

from __future__ import annotations

from functools import partial

from .errors import CapacityError
from .graphs import Graph, distance_balls, is_connected, members, metrics
from .products import EDGE, VERTEX, Rule, as_rule

# Work limit of one oracle call: successor arcs built plus states visited.
# The dearest connected graph with n <= 7 costs 446,853 units (the active
# edge span of FNz~o); with n <= 6, 6,048.  On a 2-vCPU Xeon VM, the lazy
# edge span of random:9:0.6:3 stops at this limit after 1.5 s at 83 MiB
# peak RSS, and the traditional vertex span of complete:80 after 0.7 s at
# 85 MiB, having generated the moves of 80 of its 6,320 pairs.
ORACLE_BUDGET = 1_000_000


def _charge(left: list[int], units: int) -> None:
    """Take ``units`` from the one-item count of units a call has ``left``."""
    left[0] -= units
    if left[0] < 0:
        raise CapacityError(f"brute-force oracle passed its budget of {ORACLE_BUDGET} "
                            "(successor arcs built, states visited)")


def _reaches_full(start: int, width: int, steps: dict[int, tuple[int, ...]], expand,
                  left: list[int]) -> bool:
    """Whether a state with all ``width`` mask bits set is within reach of
    ``start``.  A state ``c << width | mask`` steps to ``inc | mask`` for
    each increment ``inc`` of pair code c, read from ``steps`` or, at the
    first pop there, built by ``expand(c)``.  Each state marked visited
    costs one unit of ``left``, checked against the live count per pop."""
    full = (1 << width) - 1
    stack = [start]
    visited = {start}
    while stack:
        s = stack.pop()
        mask = s & full
        if mask == full:
            break
        c = s >> width
        gaining = []
        for inc in steps[c] if c in steps else expand(c):
            t = inc | mask
            if t not in visited:
                visited.add(t)
                if t & full == mask:
                    stack.append(t)
                else:
                    gaining.append(t)
        stack += gaining
        if len(visited) > left[0]:
            break
    _charge(left, len(visited))     # raises if the search stopped at the limit
    return mask == full


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
        width, gain = n, [[1 << y for y in range(n)]] * n
    else:
        width, gain = h.m, [[0] * n for _ in range(n)]
        for i, (x, y) in enumerate(h.edges()):
            gain[x][y] = gain[y][x] = 1 << i
    tables: tuple[dict[int, tuple[int, ...]], ...] = ({}, {})

    def expand(player: int, c: int) -> tuple[int, ...]:
        u, v = divmod(c, n)
        done = tables[1 - player].get(c)
        if done is None:    # c's moves: v's alone (a solo step), then u's with v's options
            bs = [] if rule is Rule.ACTIVE else [u * n + v2 for v2 in adj[v] if far[u] >> v2 & 1]
            bs += [u2 * n + v2 for u2 in adj[u] for v2 in other[v] if far[u2] >> v2 & 1]
            _charge(left, len(bs))
        else:               # generated by the other player's search: relabel them
            bs = [i >> width for i in done]
        if player:
            row = gain[v]
            incs = tables[1][c] = tuple([b << width | row[b % n] for b in bs])
        else:
            row = gain[u]
            incs = tables[0][c] = tuple([b << width | row[b // n] for b in bs])
        return incs

    for u in range(n):
        for v in members(far[u]):
            c = u * n + v
            if c in tables[0] or c in tables[1]:
                continue    # expanded: its component failed
            # B's search runs only if A's reaches the full mask
            if (_reaches_full(c << width | gain[u][u], width, tables[0], partial(expand, 0), left)
                    and _reaches_full(c << width | gain[v][v], width, tables[1],
                                      partial(expand, 1), left)):
                return True
    return False


def brute_force_span(h: Graph, rule: Rule | str, kind: str) -> int:
    """Largest feasible safety threshold, by descending reachability search;
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
