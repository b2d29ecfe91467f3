"""Shared test utilities: converters, independent oracles, graph catalogs."""

from __future__ import annotations

import random
from collections import deque
from functools import lru_cache
from itertools import combinations, permutations

import networkx as nx

from spanlab import (VERTEX, Certificate, CutSet, Graph, Rule, induced_subgraph, metrics,
                     minimal_cut_sets, random_connected_graph, to_graph6, vertex_span)
from spanlab.graphs import members
from spanlab.products import ProductGraph, safety_subgraph
from spanlab.spans import edge_good_components, good_components
from spanlab.theorems import HOLDS, NOT_APPLICABLE, VIOLATED, Check


def nx_to_graph(gx) -> Graph:
    """Convert a networkx graph with arbitrary node names to a Graph."""
    nodes = sorted(gx.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    edges = [(index[u], index[v]) for u, v in gx.edges()]
    return Graph(len(nodes), edges)


def graph_to_nx(g: Graph) -> nx.Graph:
    """The same graph in networkx, nodes 0..n-1."""
    gx = nx.Graph()
    gx.add_nodes_from(range(g.n))
    gx.add_edges_from(g.edges())
    return gx


def connected_atlas(max_n: int) -> list[Graph]:
    """Every connected graph with 1 <= n <= max_n, one per isomorphism class."""
    out = []
    for gx in nx.graph_atlas_g():
        if 1 <= gx.number_of_nodes() <= max_n and nx.is_connected(gx):
            out.append(nx_to_graph(gx))
    return out


def all_trees(max_n: int) -> list[Graph]:
    out = [Graph(1), Graph(2, [(0, 1)])]
    for n in range(3, max_n + 1):
        out.extend(nx_to_graph(t) for t in nx.nonisomorphic_trees(n))
    return out


def caterpillar(k: int) -> Graph:
    """Two adjacent hubs with k leaves each."""
    return Graph(2 * k + 2, [(0, 1)] + [(0, 2 + i) for i in range(k)]
                 + [(1, 2 + k + i) for i in range(k)])


def spine_tree(spine: int, legs: int, length: int) -> Graph:
    """A path of ``spine`` vertices with a path of ``length`` edges hung at
    every other inner vertex, ``legs`` of them: a caterpillar for length 1,
    a lobster for length 2."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for at in range(2, 2 + 2 * legs, 2):
        prev = at
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return Graph(nxt, edges)


def random_graphs(count: int, min_n: int, max_n: int, seed: int) -> list[Graph]:
    """Seeded batch of random connected graphs with n drawn uniformly."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(min_n, max_n)
        out.append(random_connected_graph(n, p=rng.choice((0.3, 0.5, 0.7)),
                                          seed=seed * 100003 + i))
    return out


def floyd_warshall(g: Graph) -> list[list[float]]:
    """Independent all-pairs distances, for checking the ball-based matrix."""
    big = float("inf")
    d = [[0 if i == j else big for j in range(g.n)] for i in range(g.n)]
    for u in range(g.n):
        for v in g.adj[u]:
            d[u][v] = 1
    for k in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


def pair_moves(g: Graph, rule: str, dist, k: int, a: int, b: int) -> list[tuple[int, int]]:
    """Position pairs one step from (a, b) under the rule that keep distance
    >= k, built from the base graph alone, in ascending (a, b) order."""
    if rule == "traditional":
        outs = [(a2, b2) for a2 in (*g.adj[a], a) for b2 in (*g.adj[b], b)
                if (a2, b2) != (a, b)]
    elif rule == "active":
        outs = [(a2, b2) for a2 in g.adj[a] for b2 in g.adj[b]]
    else:
        outs = [(a2, b) for a2 in g.adj[a]] + [(a, b2) for b2 in g.adj[b]]
    return sorted((a2, b2) for a2, b2 in outs if dist[a2][b2] >= k)


def single_cover_moves(g: Graph) -> dict[tuple[int, int], int]:
    """Exact moves one player needs to visit every vertex of connected g, per
    state (position, visited bitmask): breadth-first search backwards from
    the fully visited states.  A state (p, S) steps to (q, S | {q}) for q
    adjacent to p."""
    full = (1 << g.n) - 1
    moves = {(v, full): 0 for v in range(g.n)}
    queue = deque(moves)
    while queue:
        pos, seen = queue.popleft()
        for prev in g.adj[pos]:
            for before in (seen, seen & ~(1 << pos)):
                state = (prev, before)
                if before >> prev & 1 and state not in moves:
                    moves[state] = moves[pos, seen] + 1
                    queue.append(state)
    return moves


def naive_min_moves(g: Graph, rule: str, k: int) -> int | None:
    """Independent minimum move count: plain BFS over (positions, coverage)
    states, seeded with every admissible start pair at once, no product
    machinery."""
    n = g.n
    dist = floyd_warshall(g)
    full = (1 << n) - 1
    moves_from = [[pair_moves(g, rule, dist, k, a, b) for b in range(n)] for a in range(n)]
    frontier = [(a, b, 1 << a, 1 << b) for a in range(n) for b in range(n)
                if dist[a][b] >= k]
    seen = set(frontier)
    moves = 0
    while frontier:
        if any(ma == full and mb == full for _, _, ma, mb in frontier):
            return moves
        nxt = []
        for a, b, ma, mb in frontier:
            for a2, b2 in moves_from[a][b]:
                state = (a2, b2, ma | (1 << a2), mb | (1 << b2))
                if state not in seen:
                    seen.add(state)
                    nxt.append(state)
        frontier = nxt
        moves += 1
    return None


def naive_edge_cover(g: Graph, rule: str, k: int) -> bool:
    """Independent edge-cover feasibility: can two players, starting at
    distance >= k and keeping it, each traverse every edge?  Plain
    reachability over (positions, A's traversed edges, B's traversed edges)
    states, seeded with every admissible start pair at once, with no
    component decomposition and no product machinery.  A player that moves
    along an edge adds its bit to its own mask; one that stays adds
    nothing.  The search is depth first, so a feasible threshold is
    usually settled long before every state is seen."""
    n = g.n
    dist = floyd_warshall(g)
    bit = {}
    for i, (u, v) in enumerate(g.edges()):
        bit[u, v] = bit[v, u] = 1 << i
    full = (1 << g.m) - 1
    moves_from = [[pair_moves(g, rule, dist, k, a, b) for b in range(n)] for a in range(n)]
    stack = [(a, b, 0, 0) for a in range(n) for b in range(n) if dist[a][b] >= k]
    seen = set(stack)
    while stack:
        a, b, ma, mb = stack.pop()
        if ma == full and mb == full:
            return True
        for a2, b2 in moves_from[a][b]:
            state = (a2, b2, ma | bit.get((a, a2), 0), mb | bit.get((b, b2), 0))
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return False


def least_covering_walk(g: Graph, rule: str, k: int, moves: int) -> tuple[int, ...] | None:
    """Independent lexicographically least covering walk, as pair codes
    ``a * n + b``, with exactly ``moves`` moves at distance >= k.

    Depth-first search that tries seeds and moves in ascending code order,
    so the first walk found is the least.  A memo keeps, per (code, maskA,
    maskB) state, the largest number of moves left known to fail: for
    n >= 2 a state that fails with L moves left fails with fewer, because
    a walk that covers in fewer moves can bounce along its last move until
    it has used L.  A branch is cut when a player has more vertices left to
    visit than moves remain (lazy: the two players together), since a move
    visits at most one new vertex per player that moves.
    """
    n = g.n
    dist = floyd_warshall(g)
    full = (1 << n) - 1
    moves_from = [[pair_moves(g, rule, dist, k, a, b) for b in range(n)] for a in range(n)]
    failed: dict[tuple[int, int, int], int] = {}

    def extend(a, b, ma, mb, left):
        ua, ub = (full ^ ma).bit_count(), (full ^ mb).bit_count()
        if (ua + ub if rule == "lazy" else max(ua, ub)) > left:
            return None
        if left == 0:
            return ()
        key = (a * n + b, ma, mb)
        if failed.get(key, -1) >= left:
            return None
        for a2, b2 in moves_from[a][b]:
            rest = extend(a2, b2, ma | (1 << a2), mb | (1 << b2), left - 1)
            if rest is not None:
                return (a2 * n + b2, *rest)
        failed[key] = left
        return None

    for code in range(n * n):
        a, b = divmod(code, n)
        if dist[a][b] >= k:
            rest = extend(a, b, 1 << a, 1 << b, moves)
            if rest is not None:
                return (code, *rest)
    return None


def descending_span(base: ProductGraph, kind: str) -> tuple[int, Certificate]:
    """Independent span of ``kind`` from the threshold-0 product ``base``:
    rebuild the safety subgraph at each threshold from the radius down and
    return the first good (or edge-good) component found, with its
    threshold, in the same form as ``spans.rule_spans``."""
    finder = good_components if kind == VERTEX else edge_good_components
    n = base.base.n
    rad = int(metrics(base.base).radius)
    for k in range(rad, -1, -1):
        comps = finder(safety_subgraph(base, k))
        if comps:
            rows = [0] * n
            for code in comps[0]:
                rows[code // n] |= 1 << code % n
            return k, Certificate(rule=base.rule, kind=kind, threshold=k, rows=tuple(rows))
    raise AssertionError("threshold 0 always admits a good component for a connected graph")


def naive_minimal_cut_sets(g: Graph, cap: int) -> tuple[CutSet, ...]:
    """Independent minimal cut sets of size <= cap, from the definition:
    S disconnects g and no proper non-empty subset of S does.  Tests
    connectivity and lists components with networkx for every subset
    tried; same order and fields as the cuts of size <= cap in
    ``minimal_cut_sets(g).sets``."""
    gx = graph_to_nx(g)

    def rest_of(vs):
        return gx.subgraph(v for v in range(g.n) if v not in vs)

    @lru_cache(maxsize=None)
    def disconnects(vs):
        rest = rest_of(vs)
        return len(rest) > 0 and not nx.is_connected(rest)

    found = []
    for size in range(1, min(cap, g.n - 2) + 1):
        for vs in combinations(range(g.n), size):
            if not disconnects(vs) or any(disconnects(sub) for r in range(1, size)
                                          for sub in combinations(vs, r)):
                continue
            comps = tuple(sorted(tuple(sorted(comp))
                                 for comp in nx.connected_components(rest_of(vs))))
            clique = all(g.has_edge(a, b) for a, b in combinations(vs, 2))
            found.append(CutSet(vertices=vs, components=comps, is_clique=clique))
    return tuple(found)


def naive_minimal_separator_count(g: Graph) -> int:
    """Independent count of g's minimal separators, from the definition:
    vertex sets S such that g - S has at least two full components, those
    C in which every vertex of S has a neighbour.  Tries every subset, with
    components found by a plain search over adjacency sets."""
    adj = [set(a) for a in g.adj]
    count = 0
    for size in range(g.n - 1):
        for s in map(set, combinations(range(g.n), size)):
            left = set(range(g.n)) - s
            full = 0
            while left:
                comp = set()
                stack = [left.pop()]
                while stack:
                    v = stack.pop()
                    comp.add(v)
                    stack.extend(adj[v] & left)
                    left -= adj[v]
                full += all(adj[x] & comp for x in s)
            count += full >= 2
    return count


def naive_asteroidal_triple(g: Graph) -> tuple[int, int, int] | None:
    """Independent least asteroidal triple, from the definition: three
    pairwise non-adjacent vertices, each two connected in networkx once the
    closed neighbourhood of the third is removed."""
    gx = graph_to_nx(g)
    for triple in combinations(range(g.n), 3):
        if any(gx.has_edge(a, b) for a, b in combinations(triple, 2)):
            continue
        if all(nx.has_path(gx.subgraph(set(gx) - set(gx[c]) - {c}),
                           *(v for v in triple if v != c))
               for c in triple):
            return triple
    return None


def least_clique_paths(cliques: list[tuple[int, ...]]) -> list[tuple[int, ...] | None]:
    """Independent clique paths, from the definition: per start index, the
    first ordering of the clique indices in ``permutations`` order, so the
    lexicographically least, that begins with it and in which each vertex's
    cliques sit next to each other; None where no ordering does."""
    vertices = set().union(*cliques)
    first: list[tuple[int, ...] | None] = [None] * len(cliques)
    for order in permutations(range(len(cliques))):
        if first[order[0]] is not None:
            continue
        spots = [[i for i, ci in enumerate(order) if v in cliques[ci]] for v in vertices]
        if all(s[-1] - s[0] == len(s) - 1 for s in spots):
            first[order[0]] = order
    return first


def clique_path_backtracking(cliques: list[tuple[int, ...]]):
    """A reference search for clique paths that places cliques by the
    open-vertex rule and backtracks, memoising the sets of cliques placed
    that cannot be completed.  It returns ``first(start)``: the
    lexicographically least clique path of clique indices that begins with
    ``start``, or None.

    A vertex is open while it lies in a placed and in an unplaced clique;
    the next clique must hold every open vertex, and every open vertex lies
    in the clique placed last, so the moves depend only on the set placed.
    Cliques are tried in ascending order and the memo cuts only sets that
    cannot be completed, so the first order found is the least.  The search
    may try every subset of the cliques that hang off one vertex from a
    clique that heads no path, so keep it to small graphs.
    """
    holds: dict[int, int] = {}
    for ci, c in enumerate(cliques):
        for v in c:
            holds[v] = holds.get(v, 0) | 1 << ci
    everything = (1 << len(cliques)) - 1
    dead: set[int] = set()

    def first(start: int) -> tuple[int, ...] | None:
        # an entry per clique placed: the clique, the set placed and the
        # cliques offered next; the root entry offers ``start`` alone
        stack = [(-1, 0, iter((start,)))]
        while stack:
            _, done, nexts = stack[-1]
            ci = next(nexts, None)
            if ci is None:
                dead.add(stack.pop()[1])
            elif done | 1 << ci == everything:
                return (*(frame[0] for frame in stack[1:]), ci)
            elif done | 1 << ci not in dead:
                done |= 1 << ci
                offer = everything & ~done
                for v in cliques[ci]:
                    if holds[v] & ~done:
                        offer &= holds[v]
                stack.append((ci, done, iter(members(offer))))
        return None

    return first


def naive_end_cliques(g: Graph) -> list[tuple[int, ...]]:
    """Independent end cliques: the maximal cliques (from networkx) that
    head some clique path of ``least_clique_paths``.  Sorted, like
    ``end_cliques``."""
    cliques = [tuple(sorted(c)) for c in nx.find_cliques(graph_to_nx(g))]
    return sorted(c for c, path in zip(cliques, least_clique_paths(cliques)) if path)


def naive_chordless_cycle(g: Graph) -> tuple[int, ...]:
    """The chordless cycle of the one-BFS-per-pair search: for each v and
    each non-adjacent pair u, w of its neighbours in ``combinations``
    order, a BFS for a u-w path that avoids the rest of N[v]; the first
    path found closes the cycle (v, u, ..., w)."""
    for v in range(g.n):
        nv = g.adj[v]
        for u, w in combinations(nv, 2):
            if g.has_edge(u, w):
                continue
            allowed = set(range(g.n)) - {v} - (set(nv) - {u, w})
            parent = {u: -1}
            queue = deque([u])
            while queue:
                x = queue.popleft()
                if x == w:
                    break
                for y in g.adj[x]:
                    if y in allowed and y not in parent:
                        parent[y] = x
                        queue.append(y)
            if w not in parent:
                continue
            path = [w]
            while path[-1] != u:
                path.append(parent[path[-1]])
            return tuple([v] + path[::-1])
    raise AssertionError("no chordless cycle found in a non-chordal graph")


def span1_conditions(h: Graph) -> tuple[tuple[bool, bool, bool], dict]:
    """The three conditions of the span-1 structure theorem on every minimal
    cut set, whatever h's span: every cut set is a clique, every proper
    non-empty union of S-lobes (2^c - 2 per cut, one traditional vertex span
    each) has span 1, and at most two lobes per cut are not full joins onto
    S.  Returns whether each holds, and the first witness of each that
    fails."""
    clique_ok = lobes_ok = join_ok = True
    witness: dict = {}
    for cut in minimal_cut_sets(h).sets:
        if not cut.is_clique:
            clique_ok = False
            witness.setdefault("non_clique_cut", list(cut.vertices))
        parts = cut.components
        for r in range(1, len(parts)):
            for chosen in combinations(range(len(parts)), r):
                vs = set(cut.vertices).union(*(parts[i] for i in chosen))
                if vertex_span(induced_subgraph(h, sorted(vs)), Rule.TRADITIONAL)[0] != 1:
                    lobes_ok = False
                    witness.setdefault("bad_lobe_union",
                                       {"cut": list(cut.vertices), "lobes": list(chosen)})
        bad = sum(any(not h.has_edge(s, v) for s in cut.vertices for v in comp)
                  for comp in parts)
        if bad > 2:
            join_ok = False
            witness.setdefault("non_join_lobes", {"cut": list(cut.vertices), "count": bad})
    return (clique_ok, lobes_ok, join_ok), witness


def naive_span1_structure(h: Graph) -> tuple[Check, ...]:
    """Independent span-1 structure checks: the same three checks as
    ``check_span1_structure``, gated the same way, from ``span1_conditions``
    (one traditional vertex span for every proper non-empty union of S-lobes
    instead of one per count vector of interchangeable lobes)."""
    names = ("cut-sets-are-cliques", "lobe-unions-span-1", "join-all-but-two")
    if (h.n < 2 or max(h.degree(v) for v in range(h.n)) == h.n - 1
            or vertex_span(h, Rule.TRADITIONAL)[0] != 1):
        return tuple(Check(c, NOT_APPLICABLE) for c in names)
    holds, witness = span1_conditions(h)
    return tuple(Check(c, HOLDS) if ok else Check(c, VIOLATED, {"graph6": to_graph6(h)} | witness)
                 for c, ok in zip(names, holds))


def violations(checks) -> list[Check]:
    """The violated checks among a checker's ``checks``."""
    return [c for c in checks if c.status == VIOLATED]
