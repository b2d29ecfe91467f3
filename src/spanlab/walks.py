"""Shortest covering walks in thresholded products, plus walk-pair validation.

A cover state packs (pair code, visited set of player A, visited set of
player B) into one integer: ``code << 2n | maskA << n | maskB``.  One
breadth-first search over these states, started from every vertex of every
good component, gives the minimum number of moves.  Seeds and neighbours
are taken in ascending pair code, so the first goal state reached ends the
lexicographically least optimal walk, which is read back through parent
links.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError
from .graphs import Graph, distance_matrix, is_connected
from .products import VERTEX, ProductGraph, Rule, as_rule, build_product, safety_subgraph
from .spans import good_components, product_spans


@dataclass(frozen=True)
class WalkPair:
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
            "rule": self.rule.value,
            "safety": self.safety,
            "moves": self.moves,
        }


@dataclass(frozen=True)
class WalkValidation:
    """Outcome of checking a walk pair against a graph and a threshold."""

    legal: bool
    illegal_steps: tuple[int, ...]
    alice_surjective: bool
    bob_surjective: bool
    missing_alice: tuple[str, ...]
    missing_bob: tuple[str, ...]
    safety: int
    meets_threshold: bool
    valid: bool


@dataclass(frozen=True)
class MinWalkResult:
    span: int
    moves: int
    pair: WalkPair
    product_walk: tuple[int, ...]


def shortest_covering_walk(p: ProductGraph) -> tuple[int, tuple[int, ...]] | None:
    """Minimum moves and the lexicographically least optimal product walk.

    Returns None when the product has no good component, i.e. no single
    walk can cover all base vertices in both projections.
    """
    comps = good_components(p)
    if not comps:
        return None
    n = p.base.n
    shift = 2 * n
    mask_all = (1 << shift) - 1
    adj = p.adj
    # arriving at pair code b: the code plus the bits both players now cover
    enter = {b: (b << shift) | (1 << (n + b // n)) | (1 << (b % n)) for b in p.codes}

    frontier = sorted(enter[code] for comp in comps for code in comp)
    for s in frontier:
        if s & mask_all == mask_all:
            return 0, (s >> shift,)
    parent: dict[int, int | None] = dict.fromkeys(frontier)
    # Each layer is ordered by the least walk reaching each state and p.adj
    # lists neighbours in ascending code, so every state is first reached
    # along its least walk and the first goal reached ends the least one.
    while frontier:
        nxt = []
        for s in frontier:
            rest = s & mask_all
            for b in adj[s >> shift]:
                t = enter[b] | rest
                if t in parent:
                    continue
                parent[t] = s
                if t & mask_all == mask_all:
                    walk = [b]
                    back: int | None = s
                    while back is not None:
                        walk.append(back >> shift)
                        back = parent[back]
                    return len(walk) - 1, tuple(reversed(walk))
                nxt.append(t)
        frontier = nxt
    raise AssertionError("a good component always admits a covering walk")


def walk_pair_from_codes(h: Graph, rule: Rule | str, codes: tuple[int, ...]) -> WalkPair:
    rule = as_rule(rule)
    n = h.n
    dist = distance_matrix(h)
    alice = tuple(h.labels[c // n] for c in codes)
    bob = tuple(h.labels[c % n] for c in codes)
    safety = int(min(dist[c // n][c % n] for c in codes))
    return WalkPair(alice=alice, bob=bob, rule=rule, safety=safety, moves=len(codes) - 1)


def min_steps(h: Graph, rule: Rule | str, cap: int = 10) -> MinWalkResult:
    """Span plus the shortest covering walk pair that attains it."""
    rule = as_rule(rule)
    if not is_connected(h):
        raise ValueError("minimum-step search is defined for connected graphs only")
    if h.n > cap:
        raise CapacityError(
            f"covering-walk search tracks {h.n * h.n} pair positions x 4**{h.n} "
            f"cover masks = {h.n * h.n * 4**h.n} states; n={h.n} exceeds cap {cap}"
        )
    base = build_product(h, rule)
    k, _ = product_spans(base, (VERTEX,))[VERTEX]
    p = safety_subgraph(base, k)
    found = shortest_covering_walk(p)
    if found is None:
        raise AssertionError("the span threshold always admits a covering walk")
    moves, codes = found
    return MinWalkResult(span=k, moves=moves, pair=walk_pair_from_codes(h, rule, codes),
                         product_walk=codes)


def validate_walk_pair(pair: WalkPair, h: Graph, k: int) -> WalkValidation:
    """Check step legality, coverage, and the safety threshold k.

    Simultaneous stays are legal under traditional rules (walks may repeat a
    vertex) and under active rules (both players pausing keeps them aligned),
    but not under lazy rules, where exactly one player moves per step.
    """
    if len(pair.alice) != len(pair.bob):
        raise ValueError("walks must have equal length")
    if not pair.alice:
        raise ValueError("walks must be non-empty")
    ai = [h.index_of(x) for x in pair.alice]
    bi = [h.index_of(x) for x in pair.bob]
    dist = distance_matrix(h)
    rule = pair.rule
    illegal = []
    for t in range(len(ai) - 1):
        a_stay, b_stay = ai[t] == ai[t + 1], bi[t] == bi[t + 1]
        a_move = h.has_edge(ai[t], ai[t + 1])
        b_move = h.has_edge(bi[t], bi[t + 1])
        if rule is Rule.TRADITIONAL:
            ok = (a_stay or a_move) and (b_stay or b_move)
        elif rule is Rule.ACTIVE:
            ok = (a_move and b_move) or (a_stay and b_stay)
        else:
            ok = (a_move and b_stay) or (a_stay and b_move)
        if not ok:
            illegal.append(t)
    missing_a = tuple(h.labels[v] for v in range(h.n) if v not in set(ai))
    missing_b = tuple(h.labels[v] for v in range(h.n) if v not in set(bi))
    safety = int(min(dist[a][b] for a, b in zip(ai, bi)))
    meets = safety >= k
    return WalkValidation(
        legal=not illegal,
        illegal_steps=tuple(illegal),
        alice_surjective=not missing_a,
        bob_surjective=not missing_b,
        missing_alice=missing_a,
        missing_bob=missing_b,
        safety=safety,
        meets_threshold=meets,
        valid=not illegal and not missing_a and not missing_b and meets,
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
