"""Shortest covering walks in thresholded products, plus walk-pair validation.

A cover state is (pair code, visited set of player A, visited set of
player B); the sets are vertex bitmasks.  The minimum number of moves comes
from iterative-deepening depth-first search (IDA*, Korf 1985): for depth
bounds D = D0, D0 + 1, ... it walks from every pair of every good
component, one product move at a time, and drops a branch once a lower
bound on the moves still needed exceeds the moves left.  The good
components come from the graph's cached level scan (``spans.level_scan``).

The bounds.  A player at ``pos`` who has visited the set ``visited`` needs
some number of moves to visit the rest when alone; the other player only
adds constraints, so that count is admissible for the pair (a pattern
database; Culberson & Schaeffer 1998).  The pair needs the max of the two
players' counts when a step may move both players (``Rule.joint``), else
their sum, since then each step moves one player.  Each count is read at
``pos << n | visited``.  When the n << n entries of ``cover_table`` fit in
``WALK_BUDGET`` (n <= 17 at its default), they come from that table of
the exact count of every state, filled once per search.  Otherwise they
come from ``PlayerBound``, which computes the per-player bound below on
first read and keeps it: at most n * 2^n entries per player.  Both are
admissible, so the choice changes how much the search prunes, never the
walk it returns.

The per-player bound.  A player at ``pos`` who has still to visit the set U
(pos not in U) needs at least

    |U| + dist(pos, U) - 1 + max(c(G[U]) - 1, P)

moves, and 0 when U is empty.  Count the player's landings: |U| of them
are first visits, and the rest are "extra".

- ``dist(pos, U) - 1`` extra landings come before the first first visit,
  on the inner vertices of a path to U.
- Components term: order U by first visit.  When two consecutive first
  visits lie in different components of G[U], every path between them
  leaves U, and so lands on a vertex visited earlier.  That happens at
  least c(G[U]) - 1 times, each in its own gap between first visits.
- Pendant term: the pendant path of a leaf l is the chain l = x0, x1, ...,
  xr in which x1 .. x(r-1) have degree 2 and xr has not.  Unless l is the
  last first visit, the walk comes back from l: if pos is not one of
  x1 .. x(r-1), it came down the whole chain, so all r landings x1 .. xr on
  the way back are extra; if pos is on the chain, at least the landing on
  x1 is.  Call that count r(l) (r, or 1).  These walks back lie in distinct
  gaps after the first visits, and at most one uncovered leaf comes last,
  so P = sum of r(l) - max r(l) over the uncovered leaves.

The two terms count landings in the same gaps, so only their max is sure.
Stays only lengthen a walk, so both counts hold for every rule.

Least walk.  A memo keeps, per cover state, the largest number of moves
left with which it is known to fail.  Both prunings drop only branches that
hold no covering walk within the moves left, and every bound below the
optimum fails completely, so the first bound that succeeds is the optimum.
Seeds and neighbours are tried in ascending pair code, so the search meets
walks in lexicographic order and the first covering walk it finds is the
lexicographically least optimal walk: a smaller one would differ first at
some move tried earlier, whose branch was not pruned and so would have
returned a walk first.  ``shortest_covering_walk`` returns it as pair
codes, and ``min_steps`` alone decodes them.

The search counts its work and raises ``CapacityError`` once that passes
``WALK_BUDGET``.  Entering a cover state (a root, or a push) charges its
arcs, since each is then tried against the bound and the memo whether or
not it is followed, and each ``PlayerBound`` entry charges n, since it
scans up to n vertices.  So the count bounds the time, and the memory of
the product, which generates a pair's moves when the search first enters
it.  The cover table is charged nothing: it is filled only when its
entries fit the budget.

A larger budget loses no answer.  On each side of n << n the search is
one computation the budget only stops.  Across it, an answer at
B < n << n (on ``PlayerBound``) implies one at every B' >= n << n: the
table search enters only states the other enters.  Call a state s with m
moves left shut when its bound exceeds m or the memo has s failing at m
or more; it is not entered and holds no covering walk within m moves.
The table's pair bound is at least ``PlayerBound``'s and consistent (each
player's exact count drops at most one per move, and one player moves
where counts add), so in the table search each successor of a shut
(s, m) is shut at m - 1, by consistency or as s failed only after trying
them all.  Both searches try moves in one order, so by induction what
the ``PlayerBound`` search shuts the table search shuts too (by closure
inside a subtree it skipped).

For n >= 3, ``min_steps`` refuses a graph with n(n - 1) >= ``WALK_BUDGET``
before the span, and loses no answer; the table's charge plays no part.
Since 2^n > n - 1, such a graph has n << n > ``WALK_BUDGET`` entries, so
the search would read ``PlayerBound``.  Each move adds at most one vertex
to a player's visited set, so an answer takes at least two moves, and by
the last push the search has read A's bound at n - 1 distinct visited
sets, each costing n units.  The root charged at least one arc, so that
push's check passes the budget: the search would raise.
"""

from __future__ import annotations

from operator import add
from typing import NamedTuple

from .errors import CapacityError
from .graphs import Graph, ball_distance, distance_balls, flood, is_connected, pair_codes
from .products import VERTEX, ProductGraph, Rule, as_rule, build_product
from .spans import level_scan, rule_spans

# Work limit of one covering-walk search: the arcs of each cover state
# entered, plus n per per-player bound memoised; graphs with n <= 1,732
# reach the search, and the cover table fits for n <= 17.  On a 2-vCPU Xeon
# VM its fill took 0.05-0.08 s at n = 17 (peak RSS 15 -> 30 MiB), and
# searches stopped at the budget took 1.1-3.5 s at 29-92 MiB for n = 14-300,
# 2.2-11.5 s at 95-1,110 MiB for n = 1,000-1,732; star:1700 took 50 s, 2.6 GiB.
WALK_BUDGET = 3_000_000


class WalkPair(NamedTuple):
    """Two equal-length walks given by vertex labels, one per player."""

    alice: tuple[str, ...]
    bob: tuple[str, ...]
    rule: Rule
    safety: int
    moves: int

    def as_dict(self) -> dict:
        return {
            "alice": list(self.alice),
            "bob": list(self.bob),
            "rule": as_rule(self.rule).value,
            "safety": self.safety,
            "moves": self.moves,
        }


class WalkValidation(NamedTuple):
    """Outcome of checking a walk pair against a graph and a threshold."""

    illegal_steps: tuple[int, ...]
    missing_alice: tuple[str, ...]
    missing_bob: tuple[str, ...]
    safety: int
    valid: bool             # no illegal step, nothing missing, and safety >= k


class MinWalkResult(NamedTuple):
    span: int
    pair: WalkPair
    product_walk: tuple[int, ...]
    distances: tuple[int, ...]      # the players' distance at each step

    @property
    def moves(self) -> int:
        """The pair's move count, ``pair.moves``."""
        return self.pair.moves


def cover_table(g: Graph) -> bytearray:
    """Exact moves one player needs to visit every vertex of connected
    ``g``: entry ``pos << n | visited``, for each state with pos in visited,
    holds the length of the shortest walk from pos that visits the rest.
    Every other entry is 255.

    Breadth-first search backwards from the fully visited states, one level
    over all visited sets at once.  Each big integer below holds one byte
    lane per visited set S (bits 8S .. 8S + 7); position q's front holds
    lane T for each state (q, T) first reached at the last level.  A move
    takes (p, S) to (q, S | {q}) for q adjacent to p, so the states one move
    before (q, T) are (p, T) and (p, T - {q}).  Every T in q's front holds
    q, so lane T - {q} is lane T - 2^q, and one shift by 8 << q moves the
    whole front there; an AND with p's lanes not yet reached keeps the new
    states.  A state first reached at level d gets d in its lane.  No lane
    carries: each lane is set once, and d <= 2(n - 1) < 256, since one
    player covers the graph along a spanning tree.
    """
    n, size = g.n, 1 << g.n
    done = 1 << 8 * (size - 1)      # the lane of the full set
    ones = int.from_bytes(b"\x01" * size, "little")
    # per position p: the lanes of the sets holding p; of those not reached
    has = [int.from_bytes((bytes(1 << p) + b"\x01" * (1 << p)) * (size >> (p + 1)), "little")
           for p in range(n)]
    unreached = [lanes ^ done for lanes in has]
    front, table = [done] * n, [0] * n
    moves = 0
    while any(front):
        moves += 1
        back = [lanes | lanes >> (8 << q) for q, lanes in enumerate(front)]
        for p, near in enumerate(g.adj):
            lanes = 0
            for q in near:
                lanes |= back[q]
            front[p] = lanes = lanes & unreached[p]
            if lanes:
                unreached[p] ^= lanes
                table[p] |= lanes * moves
    return bytearray().join((row | 255 * (ones ^ lanes | rest)).to_bytes(size, "little")
                            for row, lanes, rest in zip(table, has, unreached))


class PlayerBound(dict):
    """``pos << n | visited`` -> a lower bound on the moves one player at
    pos in connected ``g`` needs to visit every vertex outside ``visited``
    (pos in visited), computed on first read: the walk search's bounds when
    ``cover_table`` does not fit in ``WALK_BUDGET``, read like it.  The
    module docstring proves the bound."""

    def __init__(self, g: Graph):
        super().__init__()
        n = self.n = g.n
        adj = g.adj
        self.nbr, self.balls, self.full = g.nbr, distance_balls(g), (1 << n) - 1
        # per leaf: its bit, its chain's degree-2 vertices, the chain's edge count
        self.pendants = []
        for leaf in range(n):
            if len(adj[leaf]) != 1:
                continue
            prev, cur, inner = leaf, adj[leaf][0], 0
            while len(adj[cur]) == 2:
                inner |= 1 << cur
                prev, cur = cur, adj[cur][adj[cur][0] == prev]
            self.pendants.append((1 << leaf, inner, inner.bit_count() + 1))

    def __missing__(self, key: int) -> int:
        pos, left = key >> self.n, self.full ^ key & self.full
        value = 0
        if left:
            comps = len(flood(self.nbr, left))
            back = [1 if inner >> pos & 1 else r for bit, inner, r in self.pendants if left & bit]
            extra = max(comps - 1, sum(back) - max(back) if back else 0)
            value = left.bit_count() + ball_distance(self.balls, pos, left) - 1 + extra
        self[key] = value
        return value


def shortest_covering_walk(p: ProductGraph) -> tuple[int, ...] | None:
    """The lexicographically least optimal product walk, as pair codes, or
    None when no walk covers every base vertex in both projections.

    ``p`` is ``build_product(h, rule, k)``, as in ``min_steps`` at the span;
    the roots are the good components of h's level scan at level k.  Raises
    ``CapacityError`` once the work passes ``WALK_BUDGET`` (module docstring).
    """
    comps = list(level_scan(p.base, p.rule).good(p.threshold))
    if not comps:
        return None
    n = p.base.n
    if n == 1:      # only K1 has a pair that already covers both players
        return (0,)
    full = (1 << n) - 1
    shift = 2 * n
    # per pair code: each player's bit and its position shifted to index the
    # bounds (n shared ints per table), so no arc divides the code
    bits, at = [1 << v for v in range(n)], [v << n for v in range(n)]
    bit_a, at_a = ([x for x in row for _ in range(n)] for row in (bits, at))
    bit_b, at_b = bits * n, at * n
    codes = sorted(c for comp in comps for c in pair_codes(comp))
    # pos << n | visited -> one player's bound, and the work charged per entry
    bounds, cost = (cover_table(p.base), 0) if n << n <= WALK_BUDGET else (PlayerBound(p.base), n)
    combine = max if p.rule.joint else add
    # per root, in ascending code: its pair bound and its cover state
    roots = [(combine(bounds[at_a[c] | bit_a[c]], bounds[at_b[c] | bit_b[c]]),
              c, bit_a[c], bit_b[c]) for c in codes]
    failed: dict[int, int] = {}     # cover state -> largest failing moves left
    work = 0
    depth = min(root[0] for root in roots)
    while True:
        for bound, code, ma, mb in roots:
            if bound > depth:
                continue
            work += len(p[code])
            path = [(code, ma, mb, iter(p[code]))]
            while path:
                code, ma, mb, nbrs = path[-1]
                left = depth - len(path)        # moves left after the next one
                for b in nbrs:
                    na, nb = ma | bit_a[b], mb | bit_b[b]
                    if na & nb == full:
                        return (*(s[0] for s in path), b)
                    if (combine(bounds[at_a[b] | na], bounds[at_b[b] | nb]) > left
                            or failed.get(b << shift | na << n | nb, -1) >= left):
                        continue
                    work += len(p[b])
                    if (spent := work + cost * len(bounds)) > WALK_BUDGET:
                        raise CapacityError("WALK_BUDGET", WALK_BUDGET, spent, moves_at_least=depth)
                    path.append((b, na, nb, iter(p[b])))
                    break
                else:
                    path.pop()
                    failed[code << shift | ma << n | mb] = left + 1
        depth += 1


def min_steps(h: Graph, rule: Rule | str) -> MinWalkResult:
    """Span plus the shortest covering walk pair that attains it.

    The product is built once, at the span, and the walk's pair codes are
    decoded once: into the pair, the players' distance at each step
    (``distances``) and the safety.  Raises ``CapacityError`` at
    ``WALK_BUDGET``, before the span where the search must (module docstring).
    """
    rule = as_rule(rule)
    if not is_connected(h):
        raise ValueError("minimum-step search is defined for connected graphs only")
    n = h.n
    if n >= 3 and n * (n - 1) >= WALK_BUDGET:
        raise CapacityError("WALK_BUDGET", WALK_BUDGET, n * (n - 1))
    k, _ = rule_spans(h, rule, (VERTEX,))[VERTEX]
    codes = shortest_covering_walk(build_product(h, rule, k))
    if codes is None:
        raise AssertionError("the span threshold always admits a covering walk")
    steps = [divmod(c, n) for c in codes]
    balls = distance_balls(h)
    distances = tuple(ball_distance(balls, a, 1 << b) for a, b in steps)
    pair = WalkPair(alice=tuple(h.labels[a] for a, _ in steps),
                    bob=tuple(h.labels[b] for _, b in steps),
                    rule=rule, safety=min(distances), moves=len(codes) - 1)
    return MinWalkResult(span=k, pair=pair, product_walk=codes, distances=distances)


def validate_walk_pair(pair: WalkPair, h: Graph, k: int) -> WalkValidation:
    """Check step legality, coverage, and the safety threshold k.

    In a legal step each player stays or moves along an edge.  A step that
    moves exactly one player needs ``Rule.solo``; one that moves both, or
    neither (the walks pause together), needs ``Rule.joint``.  The pair's
    rule may be a ``Rule`` or its name.
    """
    if len(pair.alice) != len(pair.bob):
        raise ValueError("walks must have equal length")
    if not pair.alice:
        raise ValueError("walks must be non-empty")
    if not is_connected(h):
        raise ValueError("walk validation is defined for connected graphs only")
    ai = [h.index_of(x) for x in pair.alice]
    bi = [h.index_of(x) for x in pair.bob]
    balls = distance_balls(h)
    rule = as_rule(pair.rule)
    illegal = []
    for t in range(len(ai) - 1):
        a_stay, b_stay = ai[t] == ai[t + 1], bi[t] == bi[t + 1]
        if not ((a_stay or h.has_edge(ai[t], ai[t + 1]))
                and (b_stay or h.has_edge(bi[t], bi[t + 1]))
                and (rule.solo if a_stay != b_stay else rule.joint)):
            illegal.append(t)
    seen_a, seen_b = set(ai), set(bi)
    missing_a = tuple(h.labels[v] for v in range(h.n) if v not in seen_a)
    missing_b = tuple(h.labels[v] for v in range(h.n) if v not in seen_b)
    safety = min(ball_distance(balls, a, 1 << b) for a, b in zip(ai, bi))
    return WalkValidation(
        illegal_steps=tuple(illegal),
        missing_alice=missing_a,
        missing_bob=missing_b,
        safety=safety,
        valid=not illegal and not missing_a and not missing_b and safety >= k,
    )


def reroot_walk_pair(pair: WalkPair, i: int, j: int) -> WalkPair:
    """Optimal-walk re-rooting: start at time i, end at time j.

    The new pair is (prefix reversed up to time i) + (whole walk from time 1)
    + (suffix reversed back to time j).  Every original time step still
    occurs, so legality in either direction, coverage, and safety carry over.
    """
    length = len(pair.alice)
    if not (0 <= i < length and 0 <= j < length):
        raise ValueError(f"times must lie in [0, {length - 1}]")

    def rebuild(seq: tuple[str, ...]) -> tuple[str, ...]:
        prefix = [seq[t] for t in range(i, -1, -1)]
        middle = list(seq[1:])
        suffix = [seq[t] for t in range(length - 2, j - 1, -1)]
        return tuple(prefix + middle + suffix)

    alice = rebuild(pair.alice)
    bob = rebuild(pair.bob)
    return WalkPair(alice=alice, bob=bob, rule=pair.rule, safety=pair.safety,
                    moves=len(alice) - 1)
