"""Brute-force span oracle built on raw reachability over player states.

This is the independent cross-check for the component-based solver, so it
never touches the product machinery, the level scans or the rule table's
step facts: legal moves come straight from the base adjacency and the
distance balls, and coverage is tracked with bitmasks.

Vertex kind: the span at threshold k is feasible iff some fully covered
state (position pair, visited set of A, visited set of B) is reachable from
some start pair at distance >= k.

Edge kind: coverage phases compose because any two configurations in one
component are joined by legal moves, so a component admits a pair of
edge-surjective walks iff player A can traverse every base edge inside it
and player B can too (cover with A, walk over, cover with B).  Each side is
a search over (position pair, traversed-edge mask) states.

One search per side from a single start (c, 0) decides a whole component.
Each rule's successor relation on pair codes is symmetric, so an exhaustive
search from (c, 0) reaches a state at every pair code of c's component and
at no other.  Masks only grow under OR, so a start elsewhere in the
component gains nothing: c walks there first and reaches a superset of
every mask that start reaches.  So no separate component pass is needed:
from the least pair code c not yet seen, A's search runs; if it fails, the
pair codes of the states it reached are c's component, and if it succeeds,
B's search runs from c, whose states are the component if it fails.  If
both succeed, threshold k is feasible.

Both kinds run one depth-first search, ``_reaches_full``, over integer
states ``code << width | mask``.  Each arc from pair code c to b carries a
precomputed increment ``b << width | gain``: the two position bits (vertex
kind, width 2n) or the bit of the edge the covering player moved along, 0
if it stayed (edge kind, width m, one table per player).  A step is then one
OR of the increment into the current mask and one visited test.  ``visited``
is a set: few of the n^2 2^width states are reached, and a flat table is
100 MiB for K7's edge masks.

Depth first reaches a full mask without visiting every smaller mask first,
and changes no answer: each state is marked when first pushed and each
popped state has all its successors tested, so "infeasible" is exhaustive.

One call counts its work, over every threshold and component, and raises
``CapacityError`` once that passes ``ORACLE_BUDGET``: one unit per
successor arc built, one per state marked visited.  Each search checks the
count once per popped state, against the units left when it started, so
time and memory stay bounded and larger graphs answer where the search is
cheap.
"""

from __future__ import annotations

from .errors import CapacityError
from .graphs import Graph, distance_balls, is_connected, members, metrics
from .products import EDGE, VERTEX, Rule, as_rule

# Work limit of one oracle call: successor arcs built plus states visited.
# The dearest connected graph with n <= 7 costs 448,074 units (the active
# edge span of FNz~o); with n <= 6, 6,538.  On a 2-vCPU Xeon VM, the lazy
# edge span of random:9:0.6:3 stops at this limit after 1.1 s at 83 MiB
# peak RSS, and complete:80 stops in its first successor table after 0.3 s.
ORACLE_BUDGET = 1_000_000


def _charge(left: list[int], units: int) -> None:
    """Take ``units`` from the one-item count of units a call has ``left``."""
    left[0] -= units
    if left[0] < 0:
        raise CapacityError(f"brute-force oracle passed its budget of {ORACLE_BUDGET} "
                            "(successor arcs built, states visited)")


def _successors(h: Graph, rule: Rule, k: int, left: list[int]) -> dict[int, tuple[int, ...]]:
    """Legal next position pairs per rule, ascending, both pairs at
    distance >= k: v is far from u iff it lies outside ball k - 1 of u.
    Each arc costs one unit of ``left``."""
    n = h.n
    full = (1 << n) - 1
    far = [full & ~ball for ball in distance_balls(h)[k - 1]] if k else [full] * n
    adj = h.adj
    closed = [sorted((*a, u)) for u, a in enumerate(adj)]
    succ: dict[int, tuple[int, ...]] = {}
    for u in range(n):
        for v in members(far[u]):
            c = u * n + v
            if rule is Rule.TRADITIONAL:
                codes = [u2 * n + v2 for u2 in closed[u] for v2 in closed[v]
                         if far[u2] >> v2 & 1 and u2 * n + v2 != c]
            elif rule is Rule.ACTIVE:
                codes = [u2 * n + v2 for u2 in adj[u] for v2 in adj[v] if far[u2] >> v2 & 1]
            else:
                codes = sorted([u * n + v2 for v2 in adj[v] if far[u] >> v2 & 1]
                               + [u2 * n + v for u2 in adj[u] if far[u2] >> v & 1])
            succ[c] = tuple(codes)
            _charge(left, len(codes))
    return succ


def _reaches_full(steps: dict[int, tuple[int, ...]], starts: list[int], width: int,
                  left: list[int]) -> set[int] | None:
    """The states within reach of ``starts``, or None if one of them has all
    ``width`` mask bits set.  A state ``c << width | mask`` steps to
    ``inc | mask`` for each increment ``inc`` in ``steps[c]``.  Each state
    marked visited costs one unit of ``left``."""
    full = (1 << width) - 1
    limit = left[0]
    stack = list(starts)
    visited = set(stack)
    try:
        while stack and len(visited) <= limit:
            s = stack.pop()
            mask = s & full
            if mask == full:
                return None
            for inc in steps[s >> width]:
                t = inc | mask
                if t not in visited:
                    visited.add(t)
                    stack.append(t)
        return visited
    finally:
        _charge(left, len(visited))     # raises if the search stopped at the limit


def _vertex_feasible(h: Graph, rule: Rule, k: int, left: list[int]) -> bool:
    n = h.n
    succ = _successors(h, rule, k, left)
    # entering pair code b marks both positions: the increment depends on b alone
    inc = [b << 2 * n | 1 << (n + b // n) | 1 << b % n for b in range(n * n)]
    steps = {c: tuple(map(inc.__getitem__, bs)) for c, bs in succ.items()}
    return _reaches_full(steps, list(map(inc.__getitem__, succ)), 2 * n, left) is None


def _edge_feasible(h: Graph, rule: Rule, k: int, left: list[int]) -> bool:
    n, m = h.n, h.m
    succ = _successors(h, rule, k, left)
    gain = [[0] * n for _ in range(n)]     # gain[u][u2]: the bit of edge u u2
    for i, (u, v) in enumerate(h.edges()):
        gain[u][v] = gain[v][u] = 1 << i
    # one table per player: the gain is the edge it moved along, 0 if it stayed
    steps_a: dict[int, tuple[int, ...]] = {}
    steps_b: dict[int, tuple[int, ...]] = {}
    for c, bs in succ.items():
        gain_a, gain_b = gain[c // n], gain[c % n]
        steps_a[c] = tuple(b << m | gain_a[b // n] for b in bs)
        steps_b[c] = tuple(b << m | gain_b[b % n] for b in bs)
    seen: set[int] = set()      # pair codes of the components that failed
    for c in succ:
        if c in seen:
            continue
        # B's search runs only if A's succeeds; a failed search returns the
        # states of c's component, a non-empty set
        comp = (_reaches_full(steps_a, [c << m], m, left)
                or _reaches_full(steps_b, [c << m], m, left))
        if comp is None:
            return True
        seen.update(s >> m for s in comp)
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
    feasible = _vertex_feasible if kind == VERTEX else _edge_feasible
    left = [ORACLE_BUDGET]
    for k in range(int(metrics(h).radius), -1, -1):
        if feasible(h, rule, k, left):
            return k
    raise AssertionError("threshold 0 is always feasible for a connected graph")
