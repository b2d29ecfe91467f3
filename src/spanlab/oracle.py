"""Brute-force span oracle built on raw reachability over player states.

This is the independent cross-check for the component-based solver, so it
never touches the product machinery: legal moves come straight from the
base adjacency and coverage is tracked with bitmasks.

Vertex kind: depth-first search over (position pair, visited set of A,
visited set of B); the span at threshold k is feasible iff some
fully-covered state is reachable from some start pair at distance >= k.

Edge kind: coverage phases compose because any two configurations in one
component are joined by legal moves, so a component admits a pair of
edge-surjective walks iff player A can traverse every base edge inside it
and player B can too (cover with A, walk over, cover with B).  Each side is
a depth-first search over (position pair, traversed-edge mask) states, kept
in a set: few of the 2**m masks are reached, and a table is 100 MiB for K7.

Depth first reaches a full mask without visiting every smaller mask first,
and changes no answer: each state is marked when first pushed and each
popped state has all its successors tested, so "infeasible" is exhaustive.
"""

from __future__ import annotations

from collections import deque

from .errors import CapacityError
from .graphs import Graph, distance_matrix, is_connected
from .products import EDGE, VERTEX, Rule, as_rule


def _successors(h: Graph, rule: Rule, k: int) -> dict[int, tuple[int, ...]]:
    """Legal next position pairs per rule, both pairs at distance >= k."""
    n = h.n
    dist = distance_matrix(h)
    succ: dict[int, tuple[int, ...]] = {}
    for u in range(n):
        for v in range(n):
            if dist[u][v] < k:
                continue
            opts = []
            if rule is Rule.TRADITIONAL:
                moves_u = list(h.adj[u]) + [u]
                moves_v = list(h.adj[v]) + [v]
                for u2 in moves_u:
                    for v2 in moves_v:
                        if (u2, v2) != (u, v) and dist[u2][v2] >= k:
                            opts.append(u2 * n + v2)
            elif rule is Rule.ACTIVE:
                for u2 in h.adj[u]:
                    for v2 in h.adj[v]:
                        if dist[u2][v2] >= k:
                            opts.append(u2 * n + v2)
            else:
                for v2 in h.adj[v]:
                    if dist[u][v2] >= k:
                        opts.append(u * n + v2)
                for u2 in h.adj[u]:
                    if dist[u2][v] >= k:
                        opts.append(u2 * n + v)
            succ[u * n + v] = tuple(sorted(set(opts)))
    return succ


def _vertex_feasible(h: Graph, rule: Rule, k: int) -> bool:
    n = h.n
    succ = _successors(h, rule, k)
    if not succ:
        return False
    shift = 2 * n
    goal = (1 << shift) - 1
    visited = bytearray((n * n) << shift)
    stack = []
    for code in succ:
        u, v = divmod(code, n)
        s = (code << shift) | (1 << (n + u)) | (1 << v)
        if s & goal == goal:
            return True
        visited[s] = 1
        stack.append(s)
    while stack:
        s = stack.pop()
        code = s >> shift
        rest = s & goal
        for b in succ[code]:
            u2, v2 = divmod(b, n)
            t = (b << shift) | rest | (1 << (n + u2)) | (1 << v2)
            if not visited[t]:
                if t & goal == goal:
                    return True
                visited[t] = 1
                stack.append(t)
    return False


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


def _one_player_covers(h: Graph, succ: dict[int, tuple[int, ...]],
                       comp: list[int], coord: int,
                       ebit: dict[tuple[int, int], int]) -> bool:
    """Can the chosen player traverse every base edge inside this component?"""
    n = h.n
    m = h.m  # ebit maps both orientations, so len(ebit) counts edges twice
    full = (1 << m) - 1
    if full == 0:
        return True
    stack = [code << m for code in comp]
    visited = set(stack)
    while stack:
        s = stack.pop()
        code, mask = s >> m, s & full
        u, v = divmod(code, n)
        pos = u if coord == 0 else v
        for b in succ[code]:
            u2, v2 = divmod(b, n)
            pos2 = u2 if coord == 0 else v2
            mask2 = mask | ebit[(pos, pos2)] if pos2 != pos else mask
            if mask2 == full:
                return True
            t = (b << m) | mask2
            if t not in visited:
                visited.add(t)
                stack.append(t)
    return False


def _edge_feasible(h: Graph, rule: Rule, k: int) -> bool:
    succ = _successors(h, rule, k)
    if not succ:
        return False
    ebit: dict[tuple[int, int], int] = {}
    for i, (u, v) in enumerate(h.edges()):
        ebit[(u, v)] = 1 << i
        ebit[(v, u)] = 1 << i
    for comp in _config_components(succ):
        if (_one_player_covers(h, succ, comp, 0, ebit)
                and _one_player_covers(h, succ, comp, 1, ebit)):
            return True
    return False


def brute_force_span(h: Graph, rule: Rule | str, kind: str, cap: int = 6) -> int:
    """Largest feasible safety threshold, by descending reachability search."""
    rule = as_rule(rule)
    if kind not in (VERTEX, EDGE):
        raise ValueError(f"kind must be '{VERTEX}' or '{EDGE}', got {kind!r}")
    if not is_connected(h):
        raise ValueError("the oracle handles connected graphs only")
    if h.n > cap:
        raise CapacityError(f"brute-force oracle is capped at n <= {cap}, got n={h.n}")
    if h.n == 1:
        return 0
    dist = distance_matrix(h)
    rad = int(min(max(row) for row in dist))
    feasible = _vertex_feasible if kind == VERTEX else _edge_feasible
    for k in range(rad, -1, -1):
        if feasible(h, rule, k):
            return k
    raise AssertionError("threshold 0 is always feasible for a connected graph")
