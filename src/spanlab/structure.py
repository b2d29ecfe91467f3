"""Structure toolkit: chordality, asteroidal triples, interval certificates,
end-cliques, minimal cut sets, lobes, and clique-coupled augmentation.

Everything here is exact and desk-scale, and works on the neighbour bitmasks
of ``graphs``: maximum cardinality search plus the Tarjan-Yannakakis
follower test for chordality, component masks of G - N[z] for asteroidal
triples, one memoised search over maximal-clique orderings for interval
representations and end cliques, and minimal cut sets picked by a
full-component test out of the minimal separators, which a closure (Berry,
Bordat & Cogis 1999) generates by component floods.

The two exponential searches count their work and raise ``CapacityError``
past a fixed budget: the clique-path search past ``CLIQUE_PATH_BUDGET``
cliques scanned, the separator closure past ``SEPARATOR_BUDGET``
separators.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from .errors import CapacityError
from .graphs import Graph, flood, fresh_labels, induced_subgraph, is_connected, members

# size caps: vertices for interval representations and end-clique searches,
# and the largest cut set enumerated
INTERVAL_CAP = 12
CUT_CAP = 4

# cliques the clique-path search may scan in one call, over all its starts:
# a path on n vertices scans (n - 1)(n - 2) / 2 (603,351 at n = 1,100), and
# the caterpillar a'-a-h-b-b' with 15 leaves on h, searched from a leaf,
# passes it
CLIQUE_PATH_BUDGET = 1_000_000


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


@dataclass(frozen=True)
class ChordalityResult:
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


def _clique_paths(cliques: list[tuple[int, ...]]) -> Callable[[int], tuple[int, ...] | None]:
    """A search for clique paths: orders of the maximal cliques ``cliques``
    in which each vertex's cliques sit next to each other.  It returns
    ``first(start)``: the lexicographically least such order of clique
    indices that begins with ``start``, or None if there is none.

    A vertex is open while it lies in a placed and in an unplaced clique.
    The next clique must hold every open vertex, or that vertex's run of
    cliques would break; and an order built by that rule keeps every run
    unbroken.  In masks, with ``placed`` and ``rest`` the unions of the
    placed and the unplaced cliques, clique c may come next iff ``placed &
    rest & ~c`` is 0.  The moves thus depend only on the set of cliques
    placed, and so does whether that set can be completed: the sets that
    fail go in one memo that every start shares.  Cliques are tried in
    ascending order and the memo cuts only sets that cannot be completed,
    so the first order found is the least.  The search keeps its own
    stack, one entry per clique placed, so a path of any length fits.

    The memo does not keep the search polynomial: from a clique that
    cannot head a path, it may try every subset of the cliques that hang
    off one vertex.  Each entry scans the unplaced cliques, and past
    ``CLIQUE_PATH_BUDGET`` cliques scanned, summed over every start, the
    search raises ``CapacityError``.
    """
    masks = [sum(1 << v for v in c) for c in cliques]
    everything = (1 << len(masks)) - 1
    dead: set[int] = set()
    scanned = 0

    def entry(ci: int, done: int, placed: int) -> tuple[int, int, int, Iterator[int]]:
        """The stack entry once clique ``ci`` is placed: ``ci``, the set
        placed, its union, and the cliques that may come next, ascending."""
        nonlocal scanned
        todo = members(everything & ~done)
        scanned += len(todo)
        if scanned > CLIQUE_PATH_BUDGET:
            raise CapacityError(
                f"clique-path search on {len(masks)} maximal cliques scanned {scanned} "
                f"cliques, over the budget of {CLIQUE_PATH_BUDGET}")
        rest = 0
        for cj in todo:
            rest |= masks[cj]
        return ci, done, placed, (cj for cj in todo if not placed & rest & ~masks[cj])

    def first(start: int) -> tuple[int, ...] | None:
        # the root entry offers ``start`` alone; the empty set it leaves in
        # ``dead`` is never looked up
        stack = [(-1, 0, 0, iter((start,)))]
        while stack:
            _, done, placed, nexts = stack[-1]
            ci = next(nexts, None)
            if ci is None:
                dead.add(stack.pop()[1])
            elif done | 1 << ci == everything:
                return (*(frame[0] for frame in stack[1:]), ci)
            elif done | 1 << ci not in dead:
                stack.append(entry(ci, done | 1 << ci, placed | masks[ci]))
        return None

    return first


@dataclass(frozen=True)
class IntervalCertificate:
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


def interval_certificate(g: Graph, cap: int = INTERVAL_CAP) -> IntervalCertificate:
    """Whether g is an interval graph, with a witness either way.

    A graph is interval iff it is chordal and has no asteroidal triple
    (Lekkerkerker & Boland 1962), so the negative witness is a chordless
    cycle of length >= 4 from ``is_chordal`` or the least asteroidal
    triple.  The positive witness comes from the least clique path of
    ``_clique_paths``, which exists iff g is interval (Gilmore & Hoffman
    1964): vertex v gets the positions of its first and last clique,
    spread to distinct integer endpoints.  Recognition has no cap; the
    cap applies after it, so an interval graph with more than ``cap``
    vertices raises ``CapacityError`` rather than being built, as does a
    clique-path search past ``CLIQUE_PATH_BUDGET``.
    """
    chord = is_chordal(g)
    if not chord.chordal:
        return IntervalCertificate(False, None, chord.chordless_cycle, None)
    at = find_asteroidal_triple(g)
    if at is not None:
        return IntervalCertificate(False, None, None, at)
    if g.n > cap:
        raise CapacityError(
            f"graph is interval (is_interval=True) but a representation is "
            f"only built for n <= {cap}, got n={g.n}"
        )
    cliques = maximal_cliques(g)
    path = next(filter(None, map(_clique_paths(cliques), range(len(cliques)))), ())
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
    """Maximal cliques that can head a clique path (see ``_clique_paths``).

    Placeable first and placeable last coincide (reverse the path), so
    only one direction is searched.  Each such clique C owns a simplicial
    vertex lying in no other maximal clique, so no separate test asks for
    one: if C is the only clique, every v in C has N[v] = C.  Otherwise let
    D follow C on the path and v lie in C but not in D; v's cliques are
    consecutive from C on and miss D, so C is v's only clique, and since
    each neighbour of v shares a maximal clique with it, N[v] = C.
    """
    if not is_interval(g):
        raise ValueError("end-cliques are defined for interval graphs only")
    if g.n > INTERVAL_CAP:
        raise CapacityError(
            f"end-clique search is capped at n <= {INTERVAL_CAP}, got n={g.n}")
    cliques = maximal_cliques(g)
    first = _clique_paths(cliques)
    return [c for ci, c in enumerate(cliques) if first(ci) is not None]


@dataclass(frozen=True)
class CutSet:
    vertices: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    is_clique: bool


@dataclass(frozen=True)
class CutSetCatalog:
    sets: tuple[CutSet, ...]
    size_cap: int


# distinct minimal separators minimal_cut_sets may generate in one call:
# random:60:0.1:1 reaches it in about 0.3 s on a 2-vCPU Xeon VM
SEPARATOR_BUDGET = 20_000


def minimal_cut_sets(g: Graph, cap: int = CUT_CAP) -> CutSetCatalog:
    """All inclusion-minimal cut sets of size <= cap, in the order of
    ``combinations`` by size, each with the components of g - S ordered by
    least vertex.

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
    separator, and the filter (size <= cap, every component full) keeps
    exactly the inclusion-minimal cut sets.  Sorting by size, then by vertex
    tuple, gives the order of ``combinations``.

    The closure has to visit separators of every size, since large ones
    lead to small ones; past ``SEPARATOR_BUDGET`` distinct separators the
    call raises ``CapacityError``.
    """
    if not is_connected(g):
        raise ValueError("cut sets are catalogued for connected graphs only")
    n = g.n
    nbr = g.nbr
    everything = (1 << n) - 1

    seen: set[int] = set()
    todo: list[int] = []

    def separators_around(removed: int) -> None:
        for _, sep in flood(nbr, everything & ~removed):
            if sep not in seen:
                seen.add(sep)
                if len(seen) > SEPARATOR_BUDGET:
                    raise CapacityError(
                        f"minimal cut sets on n={n} generated {len(seen)} minimal "
                        f"separators, over the budget of {SEPARATOR_BUDGET}")
                todo.append(sep)

    for v in range(n):
        separators_around(nbr[v] | 1 << v)
    while todo:
        s_mask = todo.pop()
        rest = s_mask
        while rest:
            low = rest & -rest
            separators_around(s_mask | nbr[low.bit_length() - 1])
            rest ^= low

    size_cap = max(min(cap, n - 2), 0)
    found = []
    for s_mask in seen:
        if s_mask.bit_count() > size_cap:
            continue
        comps = flood(nbr, everything & ~s_mask)
        if all(sep == s_mask for _, sep in comps):
            vs = members(s_mask)
            clique = all((nbr[v] | 1 << v) & s_mask == s_mask for v in vs)
            found.append(CutSet(vertices=vs,
                                components=tuple(members(c) for c, _ in comps),
                                is_clique=clique))
    found.sort(key=lambda cut: (len(cut.vertices), cut.vertices))
    return CutSetCatalog(sets=tuple(found), size_cap=size_cap)


def s_lobes(g: Graph, s: list[int] | tuple[int, ...]) -> list[Graph]:
    """Induced subgraphs on S together with one component of g - S each.

    When S is not a cut set there is exactly one lobe: the graph itself.
    """
    s_mask = 0
    for v in set(s):
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
        s_mask |= 1 << v
    comps = flood(g.nbr, ((1 << g.n) - 1) & ~s_mask)
    if len(comps) <= 1:
        return [g]
    return [induced_subgraph(g, members(s_mask | comp)) for comp, _ in comps]


def augment(g: Graph, s: list[int] | tuple[int, ...], h: Graph) -> Graph:
    """Disjoint union of g and h plus all edges between S and V(h)."""
    if h.n == 0:
        raise ValueError("augmentation needs a non-empty graph")
    s_set = sorted(set(s))
    for v in s_set:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    labels = list(g.labels) + fresh_labels(g.labels, h.labels)
    off = g.n
    edges = list(g.edges())
    edges.extend((u + off, v + off) for u, v in h.edges())
    edges.extend((u, w + off) for u in s_set for w in range(h.n))
    return Graph(g.n + h.n, edges, labels)
