"""Structure toolkit: chordality, asteroidal triples, interval certificates,
end-cliques, minimal cut sets, lobes, and clique-coupled augmentation.

Everything here is exact and desk-scale, and works on the neighbour bitmasks
of ``graphs``: maximum cardinality search plus the Tarjan-Yannakakis
follower test for chordality, component masks of G - N[z] for asteroidal
triples, a greedy clique path that tests each contested step for an
asteroidal triple grown from one vertex, for interval representations and
end cliques, and minimal cut sets picked by a full-component test out of
the minimal separators, which a closure (Berry, Bordat & Cogis 1999)
generates by component floods.

The one exponential search, the separator closure, has no size cap: it
lists the cut sets of every size, counts its work, and raises
``CapacityError`` past ``SEPARATOR_BUDGET`` separators.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import NamedTuple

from .errors import CapacityError
from .graphs import (Graph, flood, fresh_labels, induced_subgraph, is_connected, members,
                     vertex_set)

# size cap: most vertices of an interval representation or augmentation check
INTERVAL_CAP = 12


def maximal_cliques(g: Graph) -> list[tuple[int, ...]]:
    """All maximal cliques (Bron-Kerbosch with pivoting), sorted."""
    nbr = g.nbr
    out: list[tuple[int, ...]] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p | x:
            out.append(members(r))
            return
        pivot = max(members(p | x), key=lambda w: (p & nbr[w]).bit_count())
        for v in members(p & ~nbr[pivot]):
            expand(r | 1 << v, p & nbr[v], x & nbr[v])
            p ^= 1 << v
            x |= 1 << v

    if g.n:
        expand(0, (1 << g.n) - 1, 0)
    return sorted(out)


class ChordalityResult(NamedTuple):
    chordal: bool
    elimination_order: tuple[int, ...] | None
    chordless_cycle: tuple[int, ...] | None


def _find_chordless_cycle(g: Graph) -> tuple[int, ...]:
    """Some chordless cycle of length >= 4 in a non-chordal graph.

    If v has non-adjacent neighbours u, w, a shortest u-w path avoiding the
    rest of N[v] closes a chordless cycle through v; such a triple exists
    whenever any chordless cycle does.  The inner vertices of such a path
    lie in one component of G - N[v], so the path exists iff u and w both
    lie in that component's neighbourhood.  So one flood per v finds the
    least such pair u < w: the least u with a later non-neighbour w in a
    neighbourhood that holds u, and the least such w.  One BFS then finds
    the path.
    """
    nbr = g.nbr
    full = (1 << g.n) - 1
    for v in range(g.n):
        nv = g.adj[v]
        hoods = [hood for _, hood in flood(nbr, full & ~(nbr[v] | 1 << v))]
        for u in nv:
            # the w > u outside N[u] that share a neighbourhood with u
            later = 0
            for hood in hoods:
                if hood >> u & 1:
                    later |= hood
            later &= ~nbr[u] & -(2 << u)
            if not later:
                continue
            w = (later & -later).bit_length() - 1
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
            path = [w]
            while path[-1] != u:
                path.append(parent[path[-1]])
            return tuple([v] + path[::-1])
    raise AssertionError("no chordless cycle found in a non-chordal graph")


def is_chordal(g: Graph) -> ChordalityResult:
    """Chordality with a certificate either way.

    A chordal graph's maximum cardinality search order (ties to the least
    index) is the reverse of a perfect elimination ordering; an ordering is
    one iff each vertex's follower, the first of its later neighbours, is
    adjacent to all the others (Tarjan & Yannakakis 1984).  In visit order
    the follower is the neighbour visited last before the vertex.  On
    failure a chordless cycle is extracted.
    """
    nbr = g.nbr
    # visited neighbours per vertex; -n once visited, below every unvisited one
    weight = [0] * g.n
    follower = [-1] * g.n
    visited = 0
    order = []
    for _ in range(g.n):
        v = weight.index(max(weight))
        later, f = nbr[v] & visited, follower[v]
        if later and later & ~(nbr[f] | 1 << f):
            return ChordalityResult(False, None, _find_chordless_cycle(g))
        weight[v] = -g.n
        visited |= 1 << v
        order.append(v)
        for w in g.adj[v]:
            weight[w] += 1
            follower[w] = v
    return ChordalityResult(True, tuple(order[::-1]), None)


def find_asteroidal_triple(g: Graph) -> tuple[int, int, int] | None:
    """Least independent triple whose pairs connect outside the closed
    neighbourhood of the third vertex, or None.

    With ``reach[z][v]`` the component of g - N[z] holding v as a mask (0
    for v in N[z]), (a, b, c) is one iff c lies in reach[a][b] and
    reach[b][a], and b in reach[c][a]: these also make it independent.
    """
    n = g.n
    full = (1 << n) - 1
    reach = [[0] * n for _ in range(n)]
    for z, row in enumerate(reach):
        for comp, _ in flood(g.nbr, full & ~(g.nbr[z] | 1 << z)):
            for v in members(comp):
                row[v] = comp
    for a in range(n):
        for b in range(a + 1, n):
            for c in members((reach[a][b] & reach[b][a]) >> (b + 1) << (b + 1)):
                if reach[c][a] >> b & 1:
                    return (a, b, c)
    return None


def _component(nbr: list[int], left: int, s: int) -> int:
    """The component of s in G[left + s] as a mask, grown from s alone."""
    comp = frontier = 1 << s
    while frontier:
        left &= ~frontier
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= nbr[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & left
        comp |= frontier
    return comp


def _heads(nbr: list[int], c: tuple[int, ...], w: int) -> bool:
    """Whether the maximal clique C = ``c`` of interval G[w] heads a path.

    If it does, some s in C has N[s] & w = C (see ``end_cliques``).  Join
    x to C and y to x.  The cliques of a component fill one stretch of a
    clique path, consecutive ones meeting, and {x, y} meets only C + x, so
    C heads a path iff the new graph, which is chordal, has no asteroidal
    triple.  Each triple holds y (G[w] has none; put y for x, and a path
    through x can skip it), and (y, a, b) is one iff a, b lie outside C and
    the component of a in G[w] - N[b] meets C, and vice versa.  s is
    outside N[a] and adjacent to all of C, so that component meets C iff
    it holds s: one growth from s per vertex a.
    """
    clique = sum(1 << v for v in c)
    s = next((s for s in c if (nbr[s] | 1 << s) & w == clique), None)
    if s is None:
        return False
    reach = {a: _component(nbr, w & ~(nbr[a] | 1 << a), s) for a in members(w & ~clique)}
    return not any(reach[b] >> a & 1 for a, r in reach.items()
                   for b in members((r & ~clique) >> (a + 1) << (a + 1)))


def _clique_path(g: Graph, cliques: list[tuple[int, ...]], start: int) -> tuple[int, ...] | None:
    """The least order of the indices of ``cliques`` (the maximal cliques of
    interval g) from ``start`` with each vertex's cliques in a run, or None.

    A vertex is open while it lies in a placed and in an unplaced clique.
    The next clique must hold every open vertex, and every open vertex lies
    in the clique placed last (one open before that step lay in it, and one
    first placed at that step came from it), so the cliques offered are the
    unplaced ones that hold each open vertex of the last.  With w the union
    of the unplaced cliques, these are the maximal cliques of G[w], since a
    clique inside a placed one holds only open vertices and so lies in any
    offered one.  So an offered clique completes the prefix iff it heads a
    clique path of G[w] (``_heads``); a prefix that can be completed offers
    one, so the least that passes gives the least order, and the last one
    offered needs no test.
    """
    w = (1 << g.n) - 1
    if not _heads(g.nbr, cliques[start], w):
        return None
    holds = [0] * g.n
    for ci, c in enumerate(cliques):
        for v in c:
            holds[v] |= 1 << ci
    path = [start]
    unplaced = ((1 << len(cliques)) - 1) & ~(1 << start)
    while unplaced:
        offer = unplaced
        for v in cliques[path[-1]]:
            if holds[v] & unplaced:
                offer &= holds[v]
            else:
                w &= ~(1 << v)
        offer = members(offer)
        ci = next((ci for ci in offer[:-1] if _heads(g.nbr, cliques[ci], w)), offer[-1])
        path.append(ci)
        unplaced &= ~(1 << ci)
    return tuple(path)


class IntervalCertificate(NamedTuple):
    """Recognition flag plus a checkable witness.

    Positive: closed intervals with distinct integer endpoints, one per
    vertex, intersecting iff the vertices are adjacent.  Negative: either a
    chordless cycle of length >= 4 or an asteroidal triple.
    """

    is_interval: bool
    intervals: tuple[tuple[int, int], ...] | None
    chordless_cycle: tuple[int, ...] | None
    asteroidal_triple: tuple[int, int, int] | None


def is_interval(g: Graph) -> bool:
    """Interval recognition without building a representation (no cap)."""
    return is_chordal(g).chordal and find_asteroidal_triple(g) is None


def interval_certificate(g: Graph, cap: int | None = None) -> IntervalCertificate:
    """Whether g is an interval graph, with a witness either way.

    A graph is interval iff it is chordal and has no asteroidal triple
    (Lekkerkerker & Boland 1962), so the negative witness is a chordless
    cycle of length >= 4 from ``is_chordal`` or the least asteroidal
    triple.  The positive witness is the least clique path, which exists
    iff g is interval (Gilmore & Hoffman 1964): ``_clique_path`` from the
    least clique that heads one.  Vertex v gets the positions of its first
    and last clique, spread to distinct integer endpoints.  Recognition
    has no cap; the cap applies after it, so an interval graph with more
    than ``cap`` vertices (default ``INTERVAL_CAP``, read at call time)
    raises ``CapacityError`` rather than being built.
    """
    chord = is_chordal(g)
    if not chord.chordal:
        return IntervalCertificate(False, None, chord.chordless_cycle, None)
    at = find_asteroidal_triple(g)
    if at is not None:
        return IntervalCertificate(False, None, None, at)
    if cap is None:
        cap = INTERVAL_CAP
    if g.n > cap:
        raise CapacityError("INTERVAL_CAP", cap, g.n, is_interval=True)
    cliques = maximal_cliques(g)
    path = next(filter(None, (_clique_path(g, cliques, ci) for ci in range(len(cliques)))), ())
    if len(path) != len(cliques):
        raise AssertionError("chordal AT-free graph must admit a clique path")
    first = [len(path)] * g.n
    last = [0] * g.n
    for i, ci in enumerate(path):
        for v in cliques[ci]:
            first[v] = min(first[v], i)
            last[v] = i
    # distinct integer endpoints: block of width 2n+2 per clique position,
    # left ends in the low half, right ends in the high half
    block = 2 * g.n + 2
    lefts: Counter[int] = Counter()
    rights: Counter[int] = Counter()
    intervals = []
    for v in range(g.n):
        intervals.append((first[v] * block + 1 + lefts[first[v]],
                          last[v] * block + g.n + 1 + rights[last[v]]))
        lefts[first[v]] += 1
        rights[last[v]] += 1
    return IntervalCertificate(True, tuple(intervals), None, None)


def end_cliques(g: Graph) -> list[tuple[int, ...]]:
    """Maximal cliques that can head a clique path (see ``_clique_path``).

    Placeable first and placeable last coincide (reverse the path), so
    only one direction is tested.  Each such clique C owns a vertex v with
    N[v] = C, for ``_heads`` to grow from.  If C is the only clique, each v
    in C will do.  Otherwise let D follow C on the path and v lie in C but
    not in D: v's cliques run from C on and miss D, so C is v's only
    clique, and N[v] = C since each neighbour shares a clique with v.
    """
    if not is_interval(g):
        raise ValueError("end-cliques are defined for interval graphs only")
    return _end_cliques(g)


def _end_cliques(g: Graph) -> list[tuple[int, ...]]:
    """``end_cliques`` of g, which the caller has recognised as interval."""
    return [c for c in maximal_cliques(g) if _heads(g.nbr, c, (1 << g.n) - 1)]


class CutSet(NamedTuple):
    vertices: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    is_clique: bool


class CutSetCatalog(NamedTuple):
    sets: tuple[CutSet, ...]


# distinct minimal separators minimal_cut_sets may generate in one call: on
# a 2-vCPU Xeon VM (CPython 3.11) the closure on random:60:0.1:1 reaches it
# in about 0.15 s, at a traced peak of 7.6 MiB, and analyze exits 3 after
# about 0.32 s; on the 32-vertex theta graph (3^10 separators) analyze exits
# 3 after about 0.76 s at 31 MiB peak RSS
SEPARATOR_BUDGET = 20_000


def minimal_cut_sets(g: Graph) -> CutSetCatalog:
    """All inclusion-minimal cut sets, in the order of ``combinations`` by
    size, each with the components of g - S ordered by least vertex.

    The candidates are the minimal separators, generated by the closure of
    Berry, Bordat & Cogis (1999, "Generating all the minimal separators of
    a graph"): for each vertex v, each component C of g - N[v] gives the
    separator N(C); for each separator S found and each x in S, each
    component C of g - (S + N(x)) gives N(C).  Every minimal separator
    arises so, and only those do.

    A minimal separator S has at least two full components: components C of
    g - S with N(C) = S.  A set S that cuts g is an inclusion-minimal cut
    set iff every component of g - S is full: if some s in S misses a
    component C, then S - {s} still cuts C off; if every component is full,
    any vertex left in S - T joins all components, so no proper subset T
    disconnects g.  So every inclusion-minimal cut set is a minimal
    separator, and the filter (every component full) keeps exactly the
    inclusion-minimal cut sets.  Sorting by size, then by vertex tuple,
    gives the order of ``combinations``.

    The closure floods blocks, not the whole graph.  Each separator S is
    queued with the component C it was found as, and C is a full component
    of S: its neighbours outside it are exactly N(C).  When S is popped,
    one flood of g - S - C gives the other components D of g - S with
    their N(D), for the filter and the ordered components.  Generation
    expands only the full component with the least vertex, B(S): for each
    x in S, B(S) - N(x) is flooded, unless this call has flooded that mask
    already.  Its pieces P are components of g - (S + N(x)), so each N(P)
    is a minimal separator, and the pieces of a mask and their
    neighbourhoods depend on the mask alone, so the memo only drops
    repeats.

    Every minimal separator T is still reached.  Let B be its full
    component with the least vertex, A another full component, and a in A.
    The seed of a gives S0 = N(C0), C0 the component of g - N[a] that holds
    B.  Invariant: each S_i lies in A + T, its component C_i that holds B
    is full, and it has a second full component that meets A (a's for
    i = 0, x's from the step after that).
    (1) If S_i is inside T, then S_i = T.  Otherwise some t in T - S_i is
        adjacent to both A and B, so A lies in C_i, and the second full
        component is C_i itself, a contradiction.
    (2) If S_i != T, then C_i = B(S_i).  T - S_i is non-empty (else C_i = B
        and N(B) = T != S_i) and lies in C_i, as does every full component
        of T other than A.  So any other component of g - S_i avoids T: it
        lies in A, or it is a component E of g - T with N(E) inside S_i.
        Such an E is not full: N(E) = S_i would put S_i inside T, and then
        S_i = T by (1).  So every other full component lies in A, and
        min B < min A.
    (3) Step.  By (1) some x in S_i lies outside T, so in A.  The closure
        floods C_i - N(x), and B, which misses N(x), lies in one piece P,
        so S_{i+1} = N(P) is generated.  It lies in S_i + (N(x) & C_i), so
        in A + T; P is its component that holds B; x's component of
        g - S_{i+1} is full (the lemma of Berry, Bordat & Cogis).
        C_{i+1} = P is a proper subset of C_i, as x has a neighbour in C_i,
        so the chain ends, and as the step applies while S_i != T, it ends
        at T.
    So the separator set, and so the cuts, the count at which the budget
    trips and its message, are the same as with one flood of
    g - (S + N(x)) per pair (S, x); only the order in which the separators
    are generated differs.  The memo costs memory: on
    ``random:40:0.08:1`` it holds about 5.7 masks per separator (56,795
    for 10,046 separators), for a traced peak of 5.1 MiB in the call.

    Past ``SEPARATOR_BUDGET`` distinct separators the call raises
    ``CapacityError``.  The catalogue is kept on g, so later calls on the
    same graph object return it without a closure.
    """
    if g._cuts is not None:
        return g._cuts
    if not is_connected(g):
        raise ValueError("cut sets are catalogued for connected graphs only")
    n = g.n
    nbr = g.nbr
    everything = (1 << n) - 1

    seen: set[int] = set()
    todo: list[tuple[int, int]] = []    # (separator, a full component of it)
    flooded: set[int] = set()           # block-minus-neighbourhood masks

    def record(pieces: list[tuple[int, int]]) -> None:
        for comp, sep in pieces:
            if sep not in seen:
                seen.add(sep)
                if len(seen) > SEPARATOR_BUDGET:
                    raise CapacityError("SEPARATOR_BUDGET", SEPARATOR_BUDGET, len(seen))
                todo.append((sep, comp))

    for v in range(n):
        record(flood(nbr, everything & ~(nbr[v] | 1 << v)))
    found = []
    while todo:
        s_mask, block = todo.pop()
        comps = flood(nbr, everything & ~(s_mask | block))
        comps.append((block, s_mask))
        blocks = [d for d, sep in comps if sep == s_mask]
        blocks.sort(key=lambda d: d & -d)    # by least vertex
        least = blocks[0]
        for x in members(s_mask):
            mask = least & ~nbr[x]
            if mask not in flooded:
                flooded.add(mask)
                record(flood(nbr, mask))
        if len(blocks) == len(comps):
            vs = members(s_mask)
            clique = all((nbr[v] | 1 << v) & s_mask == s_mask for v in vs)
            found.append(CutSet(vertices=vs, components=tuple(map(members, blocks)),
                                is_clique=clique))
    found.sort(key=lambda cut: (len(cut.vertices), cut.vertices))
    g._cuts = CutSetCatalog(sets=tuple(found))
    return g._cuts


def s_lobes(g: Graph, s: list[int] | tuple[int, ...]) -> list[Graph]:
    """Induced subgraphs on S together with one component of g - S each.

    When S is not a cut set there is exactly one lobe: the graph itself.
    """
    s_mask = sum(1 << v for v in vertex_set(g, s))
    comps = flood(g.nbr, ((1 << g.n) - 1) & ~s_mask)
    if len(comps) <= 1:
        return [g]
    return [induced_subgraph(g, members(s_mask | comp)) for comp, _ in comps]


def augment(g: Graph, s: list[int] | tuple[int, ...], h: Graph) -> Graph:
    """Disjoint union of g and h plus all edges between S and V(h)."""
    if h.n == 0:
        raise ValueError("augmentation needs a non-empty graph")
    s_set = vertex_set(g, s)
    labels = list(g.labels) + fresh_labels(g.labels, h.labels)
    off = g.n
    edges = list(g.edges())
    edges.extend((u + off, v + off) for u, v in h.edges())
    edges.extend((u, w + off) for u in s_set for w in range(h.n))
    return Graph(g.n + h.n, edges, labels)
