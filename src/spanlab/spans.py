"""Span computation through good components of thresholded products.

The vertex span of a connected graph under a movement rule is the largest k
such that the self-product restricted to pairs at distance >= k has a
component whose two projections both cover every vertex.  Edge spans ask in
addition that, for every base edge and each coordinate, some component edge
moves that coordinate along it.  The radius bounds every variant.

``product_spans`` finds every span of one rule in a single sweep: it adds
pairs in order of decreasing distance to a union-find, so the components of
all thresholds come from one pass instead of one scan per threshold.  The
component functions below rescan one thresholded product; the covering-walk
search uses ``good_components``, and the tests use all three as the
per-threshold reference.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graphs import Graph, is_connected
from .products import EDGE, KINDS, RULES, VERTEX, ProductGraph, Rule, as_rule, build_product


@dataclass(frozen=True)
class Certificate:
    """A witnessing component: re-running the component scan at ``threshold``
    must find ``component`` (pair codes) good, or edge-good for kind="edge"."""

    rule: Rule
    kind: str
    threshold: int
    component: tuple[int, ...]


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
            for b in p.adj[a]:
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
            for b in p.adj[a]:
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


def product_spans(base: ProductGraph,
                  kinds: tuple[str, ...] = KINDS) -> dict[str, tuple[int, Certificate]]:
    """Spans of each of ``kinds`` read off the threshold-0 product ``base``
    of a connected graph, in one sweep over the thresholds.

    Lowering the threshold only adds pairs, so components only merge.  Pair
    codes are added in buckets of ``min(distance, radius)`` from the radius
    down and joined to their present neighbours in a union-find whose root
    is the least code of its component; each root ORs together the base
    vertices its component covers in each coordinate.  The vertex span is
    the first level at which some root covers both coordinates, and its
    certificate is the component of the least such root: the first entry of
    ``good_components`` at that threshold.  Edge-good components are good,
    so the edge span is at most the vertex span.  From there the sweep
    tests the good components in ascending order for edge cover, and adds
    the next bucket while none passes.
    """
    h = base.base
    n = h.n
    if n == 0:
        raise ValueError("span needs at least one vertex")
    dist, adj = base.dist, base.adj
    rad = int(min(max(row) for row in dist))
    buckets: list[list[int]] = [[] for _ in range(rad + 1)]
    for c in base.codes:
        d = dist[c // n][c % n]
        buckets[rad if d >= rad else int(d)].append(c)
    size = n * n
    full = (1 << n) - 1
    # bit_a[c], bit_b[c]: the base-vertex bits of pair code c's coordinates
    bit_b = [1 << v for v in range(n)]
    bit_a = [bit for bit in bit_b for _ in range(n)]
    bit_b *= n
    closed = [sum(1 << w for w in (u, *h.adj[u])) for u in range(n)]
    parent = list(range(size))
    present = bytearray(size)
    cover_a = [0] * size
    cover_b = [0] * size

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    def add(level: int) -> None:
        for c in buckets[level]:
            present[c] = 1
            root = c
            cover_a[c] = bit_a[c]
            cover_b[c] = bit_b[c]
            for b in adj[c]:
                if present[b]:
                    other = parent[b]
                    if other == root:
                        continue
                    other = find(other)
                    if other != root:
                        if other < root:
                            root, other = other, root
                        parent[other] = root
                        cover_a[root] |= cover_a[other]
                        cover_b[root] |= cover_b[other]

    def is_good(r: int) -> bool:
        return cover_a[r] == full and cover_b[r] == full

    def covers_edges(comp: list[int]) -> bool:
        # moved[u]: u's own bit plus every vertex some present arc of comp
        # moves that coordinate to from u; it must be u's closed neighbourhood
        moved_a = [1 << u for u in range(n)]
        moved_b = moved_a[:]
        for a in comp:
            to_a = to_b = 0
            for b in adj[a]:
                if present[b]:
                    to_a |= bit_a[b]
                    to_b |= bit_b[b]
            moved_a[a // n] |= to_a
            moved_b[a % n] |= to_b
        return moved_a == closed and moved_b == closed

    def first_edge_good() -> tuple[int, ...] | None:
        comps: dict[int, list[int]] = {}
        for c in range(size):
            if present[c]:
                r = find(c)
                if is_good(r):
                    comps.setdefault(r, []).append(c)
        for r in sorted(comps):
            if covers_edges(comps[r]):
                return tuple(comps[r])
        return None

    level = rad + 1
    good: list[int] = []
    while not good:
        if level == 0:
            raise AssertionError("threshold 0 always admits a good component "
                                 "for a connected graph")
        level -= 1
        add(level)
        good = [r for r in map(find, buckets[level]) if is_good(r)]
    out = {}
    if VERTEX in kinds:
        r = min(good)
        comp = tuple(c for c in range(r, size) if present[c] and find(c) == r)
        out[VERTEX] = level, Certificate(rule=base.rule, kind=VERTEX, threshold=level,
                                         component=comp)
    if EDGE in kinds:
        while (comp := first_edge_good()) is None:
            if level == 0:
                raise AssertionError("threshold 0 always admits an edge-good component "
                                     "for a connected graph")
            level -= 1
            add(level)
        out[EDGE] = level, Certificate(rule=base.rule, kind=EDGE, threshold=level,
                                       component=comp)
    return {kind: out[kind] for kind in kinds}


def rule_spans(h: Graph, rule: Rule | str,
               kinds: tuple[str, ...] = KINDS) -> dict[str, tuple[int, Certificate]]:
    """Spans of each of ``kinds`` under one rule, from one product build.

    The product is freed on return, so a loop over rules holds one at a time.
    """
    if not is_connected(h):
        raise ValueError("span is defined for connected graphs only")
    base = build_product(h, as_rule(rule))
    return product_spans(base, kinds)


def vertex_span(h: Graph, rule: Rule | str) -> tuple[int, Certificate]:
    """Largest safety distance two vertex-covering players can keep."""
    return rule_spans(h, rule, (VERTEX,))[VERTEX]


def edge_span(h: Graph, rule: Rule | str) -> tuple[int, Certificate]:
    """Largest safety distance two edge-covering players can keep."""
    return rule_spans(h, rule, (EDGE,))[EDGE]


@dataclass(frozen=True)
class SpanReport:
    """All six span values of one graph plus their certificates."""

    values: dict[Rule, dict[str, int]]
    certificates: dict[Rule, dict[str, Certificate]]

    def value(self, rule: Rule | str, kind: str) -> int:
        return self.values[as_rule(rule)][kind]


def span_report(h: Graph) -> SpanReport:
    values: dict[Rule, dict[str, int]] = {}
    certs: dict[Rule, dict[str, Certificate]] = {}
    for rule in RULES:
        spans = rule_spans(h, rule)
        values[rule] = {kind: k for kind, (k, _) in spans.items()}
        certs[rule] = {kind: cert for kind, (_, cert) in spans.items()}
    return SpanReport(values=values, certificates=certs)
