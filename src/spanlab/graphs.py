"""Graph core: immutable labelled graphs, text formats, and classical metrics.

Vertices are always addressed by index 0..n-1 in a fixed order; the string
labels only matter at the I/O boundary (walk listings, CLI output).  All
operations treat Graph values as immutable, so results may share tuples with
their inputs.
"""

from __future__ import annotations

import math
from binascii import b2a_base64
from bisect import bisect_left
from itertools import compress, repeat
from operator import or_, xor
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import GraphParseError

INFINITY = math.inf

_GRAPH6_HEADER = ">>graph6<<"


class Graph:
    """Undirected simple graph with ordered vertices and distinct labels."""

    __slots__ = ("n", "labels", "adj", "_label_index", "nbr", "_balls", "_scans", "_cuts")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        labels: Sequence[str] | None = None,
    ):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        else:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise ValueError(f"expected {n} labels, got {len(labels)}")
            if len(set(labels)) != n:
                raise ValueError("labels must be distinct")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            nbrs[u].add(v)
            nbrs[v].add(u)
        self.n = n
        self.labels = labels
        self.adj = tuple(tuple(sorted(s)) for s in nbrs)
        self._label_index = {lab: i for i, lab in enumerate(labels)}
        self.nbr = tuple(sum(1 << w for w in a) for a in self.adj)     # w in nbr[v] iff v ~ w
        self._balls: tuple[tuple[int, ...], ...] | None = None
        self._scans: dict | None = None     # rule -> spans.LevelScan
        self._cuts = None                   # structure.minimal_cut_sets

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Each edge once as (u, v) with u < v, in index order."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def index_of(self, label: str) -> int:
        try:
            return self._label_index[str(label)]
        except KeyError:
            raise ValueError(f"unknown vertex label {label!r}") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.labels == other.labels and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.labels, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class Metrics(NamedTuple):
    """Eccentricities, radius and diameter, read off the distance balls.

    Unreachable pairs carry the infinity sentinel, so every eccentricity of
    a disconnected graph is infinite.
    """
    ecc: tuple[float, ...]
    radius: float
    diameter: float


def distance_balls(g: Graph) -> tuple[tuple[int, ...], ...]:
    """``balls[d][u]``: the vertices within distance d of u as a bitmask,
    for d = 0 .. the largest finite eccentricity; cached on the graph.

    Grown a level at a time: balls[d + 1][u] is the union of balls[d][v]
    over v in N[u].  The growth stops at the first level that changes no
    ball, where every ball is its vertex's component, so a disconnected
    graph needs no special case.  The cache holds n (ecc + 1) bitmasks.

    A level is a few ``map(or_)`` passes, one per neighbour slot j, over
    the vertices in descending degree order: those with a j-th neighbour
    are a prefix of it, so a level costs about 2m + 3n big-integer
    operations, none of them in a Python-level loop.
    """
    if g._balls is None:
        adj = g.adj
        order = sorted(range(g.n), key=lambda u: -len(adj[u]))
        back = sorted(range(g.n), key=order.__getitem__)    # u's place in order
        # slots[j][i]: the j-th neighbour of order[i], for each i that has one
        slots = [[adj[u][j] for u in order if len(adj[u]) > j]
                 for j in range(max(map(len, adj), default=0))]
        ball = tuple(1 << u for u in range(g.n))
        balls = [ball]
        while True:
            grown = list(map(ball.__getitem__, order))
            for slot in slots:
                grown[:len(slot)] = map(or_, grown, map(ball.__getitem__, slot))
            ball = tuple(map(grown.__getitem__, back))
            if ball == balls[-1]:
                break
            balls.append(ball)
        g._balls = tuple(balls)
    return g._balls


def far_rows(balls: Sequence[Sequence[int]], k: int) -> list[int]:
    """Row u: the vertices at distance >= k from u as a bitmask, from
    ``balls = distance_balls(g)``.  At k = 0 that is every vertex; else it
    is the complement of ball k - 1, and past the last ball level (the
    component) it is the vertices of other components only."""
    full = (1 << len(balls[0])) - 1
    below = balls[min(k, len(balls)) - 1] if k else (0,) * len(balls[0])
    return [full ^ ball for ball in below]


def pair_codes(rows: Sequence[int]) -> tuple[int, ...]:
    """The pair codes u * n + v of the bitset rows (v in row u), ascending."""
    n = len(rows)
    bits = "".join(format(row, f"0{n}b")[::-1] for row in rows).encode().translate(_SELECT)
    return tuple(compress(range(n * n), bits))


def ball_distance(balls: Sequence[Sequence[int]], u: int, targets: int) -> int:
    """Hop distance from u to the nearest vertex of the bitmask ``targets``,
    which must meet u's component, off ``balls = distance_balls(g)``: the
    first level whose ball around u meets ``targets``."""
    d = 0
    while not balls[d][u] & targets:
        d += 1
    return d


def distance_rings(g: Graph) -> Iterator[list[int]]:
    """For each source s in order, ``rings[d]``: the vertices at distance
    exactly d from s as a bitmask, for d = 0 .. the largest finite
    eccentricity.  Ring d is ball d minus ball d - 1 (``distance_balls``),
    so it is 0 beyond the eccentricity of s."""
    for col in zip(*distance_balls(g)):
        yield [col[0], *map(xor, col[1:], col)]


def distance_matrix(g: Graph) -> tuple[tuple[float, ...], ...]:
    """All-pairs hop distances, built on each call: row s holds d at the
    members of ring d of s (``distance_rings``), and the infinity sentinel
    outside the component of s."""
    rows = []
    for rings in distance_rings(g):
        row: list[float] = [INFINITY] * g.n
        for d, ring in enumerate(rings):
            for v in members(ring):
                row[v] = d
        rows.append(tuple(row))
    return tuple(rows)


def metrics(g: Graph) -> Metrics:
    """Eccentricities, radius and diameter.

    The eccentricity of u is the first level at which u's distance ball
    (``distance_balls``) holds every vertex, and infinite if none does.
    """
    full = (1 << g.n) - 1
    # the balls are nested, so each column is non-decreasing as integers
    ecc = tuple(bisect_left(col, full) if col[-1] == full else INFINITY
                for col in zip(*distance_balls(g)))
    return Metrics(ecc=ecc, radius=min(ecc, default=0), diameter=max(ecc, default=0))


def girth(g: Graph) -> float:
    """Girth from distance rings (Itai & Rodeh 1978, "Finding a minimum
    circuit in a graph"), infinite for acyclic graphs: from a source s, an
    edge inside ring d, or a vertex of ring d with two neighbours in ring
    d - 1, closes a walk of length 2d + 1, or 2d, that holds a cycle.  A
    shortest cycle C is isometric (a shorter chord path would close a
    shorter cycle), so from any s on C the edge or vertex opposite s is
    such a witness of |C|.  A source stops at the first ring d with 2d at
    least the best so far.
    """
    nbr = g.nbr
    best: float = INFINITY
    # a forest (m = n - #components) has no cycle: skip its n^2 ring scan
    cyclic = g.m + len(flood(nbr, (1 << g.n) - 1)) > g.n
    for rings in distance_rings(g) if cyclic else ():
        for d in range(1, len(rings)):
            if 2 * d >= best or not rings[d]:
                break
            for v in members(rings[d]):
                if (nbr[v] & rings[d - 1]).bit_count() > 1:
                    best = 2 * d
                    break
                if nbr[v] & rings[d]:
                    best = min(best, 2 * d + 1)
    return best


def flood(nbr: Sequence[int], left: int) -> list[tuple[int, int]]:
    """Components of the vertex bitmask ``left`` under the neighbour
    bitmasks ``nbr``, by least vertex, each with its neighbourhood: pairs
    (C, N(C)) with N(C) the vertices outside ``left`` adjacent to C."""
    out = []
    while left:
        comp = frontier = left & -left
        left ^= frontier
        touched = 0
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= nbr[low.bit_length() - 1]
                frontier ^= low
            touched |= reach
            frontier = reach & left
            left ^= frontier
            comp |= frontier
        out.append((comp, touched & ~comp))
    return out


def grow(nbr: Sequence[int], left: int, s: int) -> int:
    """The component of s in G[left + s] as a mask, grown from s alone."""
    comp = frontier = 1 << s
    left &= ~frontier
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= nbr[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & left
        left ^= frontier
        comp |= frontier
    return comp


def induced_masks(g: Graph, vertices: int) -> tuple[int, ...]:
    """Neighbour masks of the subgraph of g induced on the vertex mask
    ``vertices``, relabelled 0 .. |vertices| - 1 in index order, as
    ``induced_subgraph`` numbers them: two vertex sets give equal masks
    exactly when their induced subgraphs have the same graph6."""
    n = g.n
    pos = list(compress(range(n), format(vertices, f"0{n}b")[::-1].encode().translate(_SELECT)))
    bit = dict(zip(pos, map((1).__lshift__, range(len(pos)))))    # v -> its new bit
    zeros = repeat(0)
    return tuple(sum(map(bit.get, g.adj[v], zeros)) for v in pos)


def members(mask: int) -> tuple[int, ...]:
    """The vertices of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def components(g: Graph) -> list[tuple[int, ...]]:
    """Connected components as sorted index tuples, ordered by least vertex."""
    return [members(comp) for comp, _ in flood(g.nbr, (1 << g.n) - 1)]


def is_connected(g: Graph) -> bool:
    """Whether g has at most one component: the growth from vertex 0
    reaches every vertex."""
    full = (1 << g.n) - 1
    return not g.n or grow(g.nbr, full, 0) == full


# --- text formats -----------------------------------------------------------

# bytes.translate table: ASCII "0"/"1" to the selector bytes 0/1
_SELECT = bytes.maketrans(b"01", b"\0\1")
# a graph6 body character's value as six "0"/"1" characters
_SIX_BITS = [format(v, "06b") for v in range(64)]
# bytes.translate table: the base64 digit of value v to the graph6 one, chr(v + 63)
_BASE64 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(63, 127)))


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_GRAPH6_HEADER):
        s = s[len(_GRAPH6_HEADER):]
    if not s:
        raise GraphParseError("empty graph6 input", line=1)
    if any(ch in "\r\n" for ch in s):
        raise GraphParseError("graph6 input must be a single line", line=2)
    data = []
    for i, ch in enumerate(s):
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise GraphParseError(f"invalid graph6 character {ch!r}", line=1, offset=i)
        data.append(val)
    if data[0] <= 62:
        n, idx = data[0], 1
    elif len(data) >= 4 and data[1] <= 62:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        idx = 4
    elif len(data) >= 8:
        n = 0
        for v in data[2:8]:
            n = (n << 6) | v
        idx = 8
    else:
        raise GraphParseError("truncated graph6 size field", line=1, offset=0)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - idx != need:
        raise GraphParseError(
            f"graph6 body for n={n} needs {need} characters, got {len(data) - idx}",
            line=1,
            offset=idx,
        )
    body = "".join(map(_SIX_BITS.__getitem__, data[idx:]))
    if "1" in body[nbits:]:
        raise GraphParseError("non-zero padding bits in graph6 body", line=1, offset=len(s) - 1)
    # upper triangle, column by column: (0,1), (0,2), (1,2), (0,3), ...
    # column j is the j bits from offset j(j - 1)/2, row 0 first
    selectors = body.encode().translate(_SELECT)
    edges = []
    for j in range(1, n):
        start = j * (j - 1) // 2
        edges.extend(zip(compress(range(j), selectors[start:start + j]), repeat(j)))
    return Graph(n, edges)


def to_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = [n]
    elif n <= 258047:
        head = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    else:
        head = [63, 63] + [(n >> (6 * k)) & 63 for k in range(5, -1, -1)]
    # column j: bits 0 .. j - 1 of nbr[j], row 0 first
    nbr = g.nbr
    body = "".join(format(nbr[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n))
    # base64 writes the same six-bit groups for whole 24-bit blocks
    chars = -(-len(body) // 6)
    body += "0" * (-len(body) % 24)
    data = b2a_base64(int(body or "0", 2).to_bytes(len(body) // 8, "big"), newline=False)
    return "".join(chr(v + 63) for v in head) + data[:chars].translate(_BASE64).decode()


def parse_edgelist(text: str) -> Graph:
    """One edge per line as two whitespace-separated vertex indices.  An
    edge list cannot name a vertex on no edge, so the indices named must be
    0 .. n - 1 with none skipped; a gap raises, naming the least one."""
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"expected two vertex indices, got {len(parts)} tokens", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"non-integer vertex in {line!r}", line=lineno) from None
        if u < 0 or v < 0:
            raise GraphParseError("vertex indices must be non-negative", line=lineno)
        if u == v:
            raise GraphParseError(f"loop at vertex {u} rejected", line=lineno)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphParseError(f"duplicate edge {key} rejected", line=lineno)
        seen.add(key)
        edges.append((u, v))
    named = sorted({v for key in seen for v in key})
    gap = next((i for i, v in enumerate(named) if v != i), None)
    if gap is not None:
        raise GraphParseError(f"vertex {gap} lies on no edge")
    return Graph(len(named), edges)


# --- constructions ----------------------------------------------------------


def fresh_labels(taken: Iterable[str], wanted: Sequence[str]) -> list[str]:
    """Labels for vertices entering an existing graph.

    Keeps each wanted label when free, otherwise substitutes the smallest
    unused decimal string, so unions stay deterministic.
    """
    used = set(taken)
    out = []
    counter = 0
    for lab in wanted:
        if lab not in used:
            out.append(lab)
            used.add(lab)
            continue
        while str(counter) in used:
            counter += 1
        out.append(str(counter))
        used.add(str(counter))
    return out


def vertex_set(g: Graph, vertices: Iterable[int]) -> list[int]:
    """The distinct vertices, ascending; ValueError names the least one
    outside g."""
    vs = sorted(set(vertices))
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    return vs


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced on the given indices, keeping g's order and labels."""
    vs = vertex_set(g, vertices)
    back = {v: i for i, v in enumerate(vs)}
    edges = [(back[u], back[v]) for u, v in g.edges() if u in back and v in back]
    return Graph(len(vs), edges, [g.labels[v] for v in vs])
