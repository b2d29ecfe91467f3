"""Span computation through good components of thresholded products.

The vertex span of a connected graph under a movement rule is the largest k
such that the self-product restricted to pairs at distance >= k has a
component whose two projections both cover every vertex.  Edge spans ask in
addition that, for every base edge and each coordinate, some component edge
moves that coordinate along it.  The radius bounds every variant.

``rule_spans`` checks that the graph is connected and not empty, then finds
the spans of one rule without building a product or a distance matrix.  At
level L the thresholded product is held as n row bitsets
(``graphs.far_rows``): row u is the set of v with dist(u, v) >= L, which is
every vertex at level 0 and otherwise the complement of the ball of radius
L - 1 around u.  Pair code u * n + v stands for player A at u and
player B at v.  The balls come from ``graphs.distance_balls``, grown once
per graph and cached on it; the radius, from ``graphs.metrics``, is read off
the same balls.
A component is flooded a frontier of rows at a time.  A pop dilates row u's
frontier F by the open neighbourhoods N(v) to D, the positions B can step
to, at one lookup per byte of the row in tables the scan holds (one if F is
one bit).  A solo step (``Rule.solo``) sends D into row u (B moves, A stays)
and F into the rows of N(u) (A moves, B stays); a joint step (``Rule.joint``)
sends D into the rows of N(u).  So a pop updates row u and then each row of
N(u) with one mask; a level's work follows these updates, not the product's
arcs: about (deg u + 1)(deg v + 1) per pair under the traditional rule.

Lowering the threshold only adds pairs, so a good component at level L lies
inside a good component at level L - 1, and an edge-good one inside an
edge-good one.  The levels with a good component are therefore 0 .. the
vertex span.  The search probes the top level first, whose rows are the
smallest, and binary-searches below it only if that fails.  The top level is
the radius, capped by the vertex span of any cached scan of the graph under
a rule with all of this rule's steps: its arcs include this rule's on the
same pairs, so each good or edge-good component here lies inside a good or
edge-good one there.  (Traditional has the steps of active and of lazy,
which are not nested.)  A good component covers vertex 0 in coordinate A, so
its least pair code lies in row 0: floods started from the least unvisited
code of row 0 meet the good components in ascending order of least code,
which is the order of ``good_components``, and the certificate is the first
one.  Edge-good components are good, and by the paper's theorem the edge
span is the vertex span or one less, so only those two levels are tested,
each on its good components in that order.  A component with rows R passes
when every base edge u u2 carries one of its arcs that moves A from u to
u2.  B's end of such an arc lies in R[u] if solo and in dilate(R[u]) if
joint, and it must meet R[u2].  The test runs on the rows, and again on
their transpose only if the component is not its own.
Swapping the players, (u, v) -> (v, u), is an automorphism of the
thresholded product under every rule: distance is symmetric, and solo and
joint steps are symmetric in the two players.  So the swap maps a component
C onto a component, which is C itself as soon as it meets C.  One bit
decides it: whether (v, 0) is in C, for the least v of row 0.  Then the
transpose has C's rows and the second test could only repeat the first.

The floods live in one ``LevelScan`` per graph and rule, cached on the
graph like its balls.  It floods a level whole on first use and keeps the
list of its good components, in that order: the span search, the span-1
checks and the covering-walk search's roots share it, so no level of a
graph is flooded twice.  A certificate keeps its component's rows and
builds the pair codes on first read.  ``LevelScan.good_in`` runs the same
floods on rows handed to it, of the subgraph induced on a vertex mask: the
span-1 checks probe level 2 of each lobe union on the graph's own scan, and
of each augmentation on one scan of neighbour masks per clique, with no
graph or distance balls built for either.

The component functions below rescan one built product; production code
does not call them, and the tests use them as the per-threshold reference.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator, Sequence
from functools import cached_property, reduce
from operator import or_
from typing import NamedTuple

from .graphs import Graph, distance_balls, far_rows, is_connected, metrics, pair_codes
from .products import EDGE, KINDS, VERTEX, ProductGraph, Rule, as_rule


class _CertificateFields(NamedTuple):
    rule: Rule
    kind: str
    threshold: int
    rows: tuple[int, ...]


class Certificate(_CertificateFields):
    """A witnessing component: re-running the component scan at ``threshold``
    must find ``component`` (pair codes, built from ``rows`` on first read)
    good, or edge-good for kind="edge".  On one graph the rows and the pair
    codes determine each other, so equality compares the rows."""

    @cached_property
    def component(self) -> tuple[int, ...]:
        return pair_codes(self.rows)


def product_components(p: ProductGraph) -> list[tuple[int, ...]]:
    """Connected components of the product, ordered by least pair code."""
    seen: set[int] = set()
    out = []
    for start in p.codes:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        queue = deque([start])
        while queue:
            a = queue.popleft()
            for b in p[a]:
                if b not in seen:
                    seen.add(b)
                    comp.append(b)
                    queue.append(b)
        out.append(tuple(sorted(comp)))
    return out


def good_components(p: ProductGraph) -> list[tuple[int, ...]]:
    """Components whose two projections each cover all base vertices."""
    n = p.base.n
    everything = set(range(n))
    out = []
    for comp in product_components(p):
        if {c // n for c in comp} == everything and {c % n for c in comp} == everything:
            out.append(comp)
    return out


def edge_good_components(p: ProductGraph) -> list[tuple[int, ...]]:
    """Good components whose edges also project onto every base edge.

    For each base edge uv and each coordinate there must be a component edge
    that moves that coordinate between u and v; a closed walk through the
    component then traverses uv in the matching projection.
    """
    n = p.base.n
    target = set(p.base.edges())
    out = []
    for comp in good_components(p):
        cov1: set[tuple[int, int]] = set()
        cov2: set[tuple[int, int]] = set()
        for a in comp:
            u, v = divmod(a, n)
            for b in p[a]:
                if b <= a:
                    continue
                u2, v2 = divmod(b, n)
                if u != u2:
                    cov1.add((u, u2) if u < u2 else (u2, u))
                if v != v2:
                    cov2.add((v, v2) if v < v2 else (v2, v))
        if cov1 == target and cov2 == target:
            out.append(comp)
    return out


def _dilation(masks: Sequence[int]) -> tuple[list[list[int]], tuple[int, ...]]:
    """Byte tables and single-bit images mapping a bitset to the union of
    ``masks[v]`` over its members v: table k holds the union for every subset
    of bits 8k .. 8k + 7, and ``one[v + 1]`` is the image of bit v alone."""
    tables = []
    for k in range(0, len(masks), 8):
        table = [0]
        for mask in masks[k:k + 8]:
            table += [t | mask for t in table]
        tables.append(table)
    return tables, (0, *masks)


class LevelScan:
    """The good components of one graph's thresholded products under one
    rule, each level flooded whole on first use and its list kept in
    ``levels`` (module docstring).  It is built from the graph's adjacency
    lists ``adj`` and holds no reference to the graph, which reference
    counting still frees.  ``tables`` and ``one`` (``_dilation``) give B's
    moves from a set of vertices, built from ``adj`` unless given.
    ``balls``, the graph's distance balls, serve ``good``; a scan without
    them floods only the rows handed to ``good_in``."""

    __slots__ = ("n", "adj", "balls", "edges", "rule", "tables", "one", "levels", "span")

    def __init__(self, adj: Sequence[Sequence[int]], rule: Rule,
                 dilation: tuple | None = None,
                 balls: Sequence[Sequence[int]] = ()):
        self.n, self.adj, self.rule, self.balls = len(adj), adj, rule, balls
        self.edges = [(u, w) for u, ws in enumerate(adj) for w in ws if u < w]
        self.tables, self.one = dilation or _dilation([sum(1 << w for w in ws) for ws in adj])
        self.levels: dict[int, list[list[int]]] = {}      # level -> good(level)
        self.span: int | None = None        # the vertex span, once found

    def good(self, level: int) -> list[list[int]]:
        """Rows of the good components at ``level`` in ascending order of
        least pair code (module docstring), the level flooded whole
        (``good_in``) on the first call and the list kept for later ones."""
        if level not in self.levels:
            self.levels[level] = list(self.good_in(far_rows(self.balls, level), (1 << self.n) - 1))
        return self.levels[level]

    def good_in(self, avail: list[int], vertices: int) -> Iterator[list[int]]:
        """Rows of the good components, taken out of ``avail``, of the
        product of the subgraph induced on the vertex mask ``vertices`` whose
        pairs are the rows ``avail`` (0 outside ``vertices``).  A good
        component covers the least vertex r of ``vertices`` in coordinate A,
        so floods start from the least unvisited code of row r, in ascending
        order of least pair code.  Each of the other rows is 0 in every
        component, and an empty vertex set has none."""
        n = self.n
        r = (vertices & -vertices).bit_length() - 1
        outside = n - vertices.bit_count()
        while vertices and avail[r]:
            comp = self._flood(avail, r * n + (avail[r] & -avail[r]).bit_length() - 1)
            if comp.count(0) == outside and reduce(or_, comp) == vertices:
                yield comp

    def _flood(self, avail: list[int], start: int) -> list[int]:
        """Rows of the component of pair code ``start``, taken out of ``avail``."""
        n, adj, tables, one, get = self.n, self.adj, self.tables, self.one, list.__getitem__
        solo, joint, nbytes = self.rule.solo, self.rule.joint, len(tables)
        comp = [0] * n
        pending = [0] * n
        u, v = divmod(start, n)
        comp[u] = pending[u] = 1 << v
        avail[u] ^= 1 << v
        stack = [u]
        while stack:
            u = stack.pop()
            front = pending[u]
            pending[u] = 0
            d = (reduce(or_, map(get, tables, front.to_bytes(nbytes, "little")))
                 if front & (front - 1) else one[front.bit_length()])
            new = d & avail[u] if solo else 0       # B moves alone into row u
            if new:
                avail[u] ^= new
                comp[u] |= new
                pending[u] = new
                stack.append(u)
            # A moves into the rows of N(u): alone, B's front staying put (solo),
            # or jointly, B moving too; every rule allows one of the two
            reach = (front | d if joint else front) if solo else d
            for w in adj[u]:
                new = reach & avail[w]
                if new:
                    avail[w] ^= new
                    comp[w] |= new
                    if not pending[w]:
                        stack.append(w)
                    pending[w] |= new
        return comp

    def covers_edges(self, comp: list[int]) -> bool:
        """Whether the good component with rows ``comp`` is edge-good: the
        A-test on its rows, and on the rows of its transpose unless it is
        its own.  The swap (u, v) -> (v, u) maps the product onto itself, so
        comp onto a component; if that meets comp at (v, 0), with v the
        least bit of row 0, it is comp, and the second test repeats the
        first."""
        solo, joint, tables = self.rule.solo, self.rule.joint, self.tables
        nbytes, get = len(tables), list.__getitem__
        passes = [comp]
        if not comp[(comp[0] & -comp[0]).bit_length() - 1] & 1:
            # cols[v]: the u with (u, v) in comp; zip transposes the bit matrix
            bits = (format(row, f"0{self.n}b")[::-1] for row in comp)     # bit 0 first
            passes.append([int("".join(col)[::-1], 2) for col in zip(*bits)])
        for rows in passes:
            # B's end of an arc on which A moves from the row: stays (solo) or moves (joint)
            moved = [reduce(or_, map(get, tables, r.to_bytes(nbytes, "little")), r if solo else 0)
                     if joint else r for r in rows]
            if not all(moved[u] & rows[w] for u, w in self.edges):
                return False
        return True


def level_scan(h: Graph, rule: Rule) -> LevelScan:
    """The level scan of h under ``rule``, built on first use and cached on
    h; an equal but distinct graph gets its own.  The dilation depends on h
    only, so the scans of all rules share one set of its tables."""
    scans = h._scans = h._scans or {}
    if rule not in scans:
        dilation = next(((s.tables, s.one) for s in scans.values()), None) or _dilation(h.nbr)
        scans[rule] = LevelScan(h.adj, rule, dilation, distance_balls(h))
    return scans[rule]


def rule_spans(h: Graph, rule: Rule | str,
               kinds: tuple[str, ...] = KINDS) -> dict[str, tuple[int, Certificate]]:
    """Spans of each of ``kinds`` of a connected graph with at least one
    vertex under one rule, each with its certificate, read off the graph's
    cached level scan; no product is built (module docstring).  For all
    six spans, call it once per rule in ``RULES``.

    The vertex span is the last level of 0 .. radius with a good component:
    the top level first, the radius capped by the span of a scan cached on
    h under a rule with all of this rule's steps, then a binary search
    below it.  Its certificate is the good component with the least pair
    code at that level.  The edge span is the vertex span or one less (the
    paper's theorem); its certificate is the first edge-good component, in
    the same order, at the first of those levels that has one, and
    ``AssertionError`` names the theorem if neither has.  Pair codes are
    built on the first read of ``component``.  A kind not in ``KINDS``
    raises ``ValueError`` before any flood.
    """
    for kind in kinds:
        if kind not in KINDS:
            raise ValueError(f"unknown span kind {kind!r}: expected one of {KINDS}")
    if not is_connected(h):
        raise ValueError("span is defined for connected graphs only")
    if h.n == 0:
        raise ValueError("span needs at least one vertex")
    rule = as_rule(rule)
    scan = level_scan(h, rule)
    # the span of a cached scan under a rule with all of this rule's steps;
    # a span never exceeds the radius, so the balls are read for it only
    # when no such scan caps the top level
    caps = [other.span for r, other in h._scans.items() if other.span is not None
            and r.solo >= rule.solo and r.joint >= rule.joint]
    lo = 0
    hi = min(caps) if caps else int(metrics(h).radius)
    mid = hi                            # the top level first
    while lo < hi:
        if not scan.good(mid):
            hi = mid - 1
        else:
            lo = mid
        mid = (lo + hi + 1) // 2
    scan.span = lo
    out = {}
    for kind in kinds:
        if kind == VERTEX:
            level, comp = lo, scan.good(lo)[0]
        else:
            # by the paper's theorem the edge span is the vertex span or one
            # less (level 0 has an edge-good component for a connected graph)
            level, comp = next(((level, comp) for level in range(lo, max(lo - 2, -1), -1)
                                for comp in scan.good(level) if scan.covers_edges(comp)),
                               (lo, None))
            if comp is None:
                raise AssertionError(
                    f"vertex and edge span differ by at most 1, but under the {rule} rule "
                    f"the vertex span is {lo} and neither level {lo} nor {lo - 1} has "
                    "an edge-good component")
        out[kind] = level, Certificate(rule=rule, kind=kind, threshold=level, rows=tuple(comp))
    return out


def vertex_span(h: Graph, rule: Rule | str) -> tuple[int, Certificate]:
    """Largest safety distance two vertex-covering players can keep."""
    return rule_spans(h, rule, (VERTEX,))[VERTEX]


def edge_span(h: Graph, rule: Rule | str) -> tuple[int, Certificate]:
    """Largest safety distance two edge-covering players can keep."""
    return rule_spans(h, rule, (EDGE,))[EDGE]
