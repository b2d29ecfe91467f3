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
"""

from __future__ import annotations

from collections import deque

from .errors import CapacityError
from .graphs import Graph, distance_balls, is_connected, members, metrics
from .products import EDGE, VERTEX, Rule, as_rule


def _successors(h: Graph, rule: Rule, k: int) -> dict[int, tuple[int, ...]]:
    """Legal next position pairs per rule, ascending, both pairs at
    distance >= k: v is far from u iff it lies outside ball k - 1 of u."""
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
    return succ


def _reaches_full(steps: dict[int, tuple[int, ...]], starts: list[int], width: int) -> bool:
    """Does a state with all ``width`` mask bits set lie within reach of
    ``starts``?  A state ``c << width | mask`` steps to ``inc | mask`` for
    each increment ``inc`` in ``steps[c]``."""
    full = (1 << width) - 1
    stack = list(starts)
    visited = set(stack)
    while stack:
        s = stack.pop()
        mask = s & full
        if mask == full:
            return True
        for inc in steps[s >> width]:
            t = inc | mask
            if t not in visited:
                visited.add(t)
                stack.append(t)
    return False


def _vertex_feasible(h: Graph, rule: Rule, k: int) -> bool:
    n = h.n
    succ = _successors(h, rule, k)
    # entering pair code b marks both positions: the increment depends on b alone
    inc = [b << 2 * n | 1 << (n + b // n) | 1 << b % n for b in range(n * n)]
    steps = {c: tuple(map(inc.__getitem__, bs)) for c, bs in succ.items()}
    return _reaches_full(steps, list(map(inc.__getitem__, succ)), 2 * n)


def _config_components(succ: dict[int, tuple[int, ...]]) -> list[list[int]]:
    seen: set[int] = set()
    comps = []
    for start in sorted(succ):
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        queue = deque([start])
        while queue:
            c = queue.popleft()
            for b in succ[c]:
                if b not in seen:
                    seen.add(b)
                    comp.append(b)
                    queue.append(b)
        comps.append(comp)
    return comps


def _edge_feasible(h: Graph, rule: Rule, k: int) -> bool:
    n, m = h.n, h.m
    succ = _successors(h, rule, k)
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
    for comp in _config_components(succ):
        starts = [c << m for c in comp]
        if _reaches_full(steps_a, starts, m) and _reaches_full(steps_b, starts, m):
            return True
    return False


def brute_force_span(h: Graph, rule: Rule | str, kind: str, cap: int = 6) -> int:
    """Largest feasible safety threshold, by descending reachability search."""
    rule = as_rule(rule)
    if kind not in (VERTEX, EDGE):
        raise ValueError(f"kind must be '{VERTEX}' or '{EDGE}', got {kind!r}")
    if not is_connected(h):
        raise ValueError("the oracle handles connected graphs only")
    if h.n == 0:
        raise ValueError("span needs at least one vertex")
    if h.n > cap:
        raise CapacityError(f"brute-force oracle is capped at n <= {cap}, got n={h.n}")
    feasible = _vertex_feasible if kind == VERTEX else _edge_feasible
    for k in range(int(metrics(h).radius), -1, -1):
        if feasible(h, rule, k):
            return k
    raise AssertionError("threshold 0 is always feasible for a connected graph")
