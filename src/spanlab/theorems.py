"""Theorem harness: span inequalities, span-1 structure, interval theorems.

Each checker takes a connected graph and returns its checks, one ``Check``
per named statement.  A violated check's witness carries the offending
values: spans and bounds, or for a span-1 check (no span value) the cut
and lobes with the graph's graph6, or the clique and added graph.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations, permutations, product
from math import prod
from typing import NamedTuple

from .errors import CapacityError
from .graphs import INFINITY, Graph, girth, is_connected, members, metrics, to_graph6
from .products import EDGE, RULES, VERTEX, Rule
from .spans import LevelScan, level_scan, rule_spans
from .structure import _end_cliques, is_interval, minimal_cut_sets

HOLDS = "holds"
VIOLATED = "violated"
NOT_APPLICABLE = "not-applicable"
# the hypothesis holds, but the graph is over a size cap of the check
SKIPPED_BY_CAP = "skipped-by-cap"

# most vertices of an interval graph the two augmentation checks run on.
# Nothing exponential needs it; it stays because the recorded verify counts
# of the benchmark's reference answers include the checks it skips
INTERVAL_CAP = 12

# lobe unions the span-1 structure check may probe, over all cuts.  On a
# 2-vCPU Xeon VM (CPython 3.11) the check takes about 0.03 s for the 528
# unions of a 47-vertex interval graph (cliques K1..K8 and a 10-vertex path
# hung at one vertex), and about 1.1-1.3 s for the 996 unions of path:500,
# of up to 499 vertices, 498 of them probed: one per length
LOBE_UNION_BUDGET = 1_000
# lobes of at most this many vertices get a key; it tries every ordering
_KEYED_LOBE_SIZE = 4


class Check(NamedTuple):
    name: str
    status: str
    witness: dict | None = None


def _check(name: str, holds: bool, witness: dict) -> Check:
    if holds:
        return Check(name, HOLDS)
    return Check(name, VIOLATED, witness)


def check_span_inequalities(h: Graph) -> tuple[Check, ...]:
    """Chain 0 <= edge <= vertex <= radius, gap <= 1, and girth bounds."""
    if not is_connected(h):
        raise ValueError("span inequalities apply to connected graphs only")
    rad = int(metrics(h).radius)
    checks = []
    spans = {}
    for rule in RULES:
        both = rule_spans(h, rule)
        v, e = both[VERTEX][0], both[EDGE][0]
        spans[rule] = (v, e)
        checks.append(_check(
            f"chain[{rule.value}]",
            0 <= e <= v <= rad,
            {"edge": e, "vertex": v, "radius": rad},
        ))
        checks.append(_check(
            f"vertex-edge-gap[{rule.value}]",
            v - e <= 1,
            {"edge": e, "vertex": v},
        ))
    shortest_cycle = girth(h)
    if shortest_cycle == INFINITY:
        for rule in RULES:
            checks.append(Check(f"girth-bound[{rule.value}]", NOT_APPLICABLE))
    else:
        half = int(shortest_cycle) // 2
        bounds = {Rule.TRADITIONAL: half, Rule.ACTIVE: half - 1, Rule.LAZY: half - 1}
        for rule in RULES:
            bound = max(bounds[rule], 0)
            checks.append(_check(
                f"girth-bound[{rule.value}]",
                spans[rule][0] >= bound,
                {"vertex": spans[rule][0], "bound": bound, "girth": int(shortest_cycle)},
            ))
    if h.n >= 2:
        checks.append(_check(
            "traditional-vertex-span-positive",
            spans[Rule.TRADITIONAL][0] >= 1,
            {"vertex": spans[Rule.TRADITIONAL][0]},
        ))
    return tuple(checks)


def _span_is_1(h: Graph) -> bool:
    """Whether connected h with n >= 2 has traditional vertex span 1: the
    span is >= 1 and the levels with a good component are 0 .. span, so it
    is 1 iff level 2 has none (past the radius a centre's row is empty)."""
    return not level_scan(h).good(2, Rule.TRADITIONAL)


def _induced_span_is_1(scan: LevelScan, vertices: int) -> bool:
    """``_span_is_1`` of the connected subgraph, with at least two vertices,
    induced on the vertex mask ``vertices`` of the graph whose neighbour
    masks ``scan`` was built from.  Two vertices of the subgraph are at
    distance >= 2 in it iff they are distinct and not adjacent, so row v
    of its level 2 is ``vertices`` minus N[v]."""
    rows = [vertices & ~(m | 1 << v) if vertices >> v & 1 else 0 for v, m in enumerate(scan.nbr)]
    return next(scan.good_in(rows, vertices, Rule.TRADITIONAL), None) is None


def _union_key(nbr: Sequence[int], vertices: int) -> tuple:
    """The mask ``vertices`` and its members' neighbour masks inside it,
    shifted down to put its least vertex at bit 0.  Masks with equal keys
    differ by a shift v -> v + d that maps each member's neighbours inside
    one onto its image's inside the other: an isomorphism of the induced
    subgraphs, so both have the same span."""
    d = (vertices & -vertices).bit_length() - 1
    return vertices >> d, tuple((nbr[v] & vertices) >> d for v in members(vertices))


_SPAN1_CHECKS = ("cut-sets-are-cliques", "lobe-unions-span-1", "join-all-but-two")


def _lobe_classes(h: Graph, cut: tuple[int, ...],
                  parts: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """Indices of ``parts``, the lobes of ``cut``, in classes of
    interchangeable lobes, keyed as ``check_span1_structure`` says: each
    class ascending, classes ordered by least index.  Equal keys hold
    exactly when an S-fixing isomorphism exists: it maps an ordering of L1
    to one of L2 with the same data, and equal data define one."""
    classes: dict = {}
    nbr, cut_mask = h.nbr, sum(1 << s for s in cut)
    for i, lobe in enumerate(parts):
        if len(lobe) > _KEYED_LOBE_SIZE:
            key = i
        else:
            key = min((tuple(nbr[v] & cut_mask for v in order),
                       tuple(nbr[a] >> b & 1 for a, b in combinations(order, 2)))
                      for order in permutations(lobe))
        classes.setdefault(key, []).append(i)
    return list(classes.values())


def check_span1_structure(h: Graph) -> tuple[Check, ...]:
    """Structure forced on graphs with traditional vertex span 1 and no
    universal vertex, on every minimal cut set S of any size: S is a
    clique, every union of S-lobes keeps span 1, and all but at most two
    lobes are full joins onto S.  The conditions are necessary, not
    sufficient: the net ``E@dW`` and ``EyuG`` have no universal vertex and
    traditional vertex span 2, yet meet all three on every minimal cut set.

    Lobes L1, L2 of S are interchangeable when an isomorphism of G[S + L1]
    onto G[S + L2] fixes S pointwise.  Lobes touch only S, so swapping them
    maps a union onto an isomorphic one, with the same span: one span-1 probe
    per vector of per-class counts serves, prod(c_i + 1) - 2 per cut instead
    of 2^c - 2 (no empty union, and not h itself), each union taking the first
    lobes of each class.  A lobe of at most ``_KEYED_LOBE_SIZE`` vertices is
    keyed by the least, over orderings of its vertices, of their neighbours
    in S and its inner edges by position; a larger lobe is its own class.
    A union is probed on h's level scan, built from h's neighbour masks
    (``_induced_span_is_1``), with no graph built.  Unions of different cuts
    that one shift of the indices maps onto each other are isomorphic and
    share one probe (``_union_key``): on a path or a band, such as a power
    of a path, every union is a run of consecutive indices.  Past
    ``LOBE_UNION_BUDGET`` unions over all cuts the check raises
    ``CapacityError`` before any probe.  h's own probe reads its cached level
    scan, with no flood when ``check_span_inequalities`` has already flooded
    level 2 of the same graph object."""
    if not is_connected(h):
        raise ValueError("span-1 structure applies to connected graphs only")
    applicable = (h.n >= 2 and max(h.degree(v) for v in range(h.n)) < h.n - 1
                  and _span_is_1(h))
    if not applicable:
        return tuple(Check(c, NOT_APPLICABLE) for c in _SPAN1_CHECKS)

    catalog = minimal_cut_sets(h)
    classes = [_lobe_classes(h, cut.vertices, cut.components) for cut in catalog.sets]
    unions = sum(prod(len(c) + 1 for c in cls) - 2 for cls in classes)
    if unions > LOBE_UNION_BUDGET:
        raise CapacityError("LOBE_UNION_BUDGET", LOBE_UNION_BUDGET, unions)
    scan, nbr = level_scan(h), h.nbr
    # a lobe union's shifted masks -> span 1?
    union_ok: dict[tuple, bool] = {}
    witness: dict = {}
    for cut, cls in zip(catalog.sets, classes):
        if not cut.is_clique:
            witness.setdefault("non_clique_cut", list(cut.vertices))
        cut_mask = sum(1 << v for v in cut.vertices)
        lobe_masks = [sum(1 << v for v in lobe) for lobe in cut.components]
        full = tuple(len(c) for c in cls)
        for counts in product(*(range(t + 1) for t in full)):
            # the union of all lobes is h itself, whose span is 1
            if not any(counts) or counts == full:
                continue
            chosen = sorted(i for c, t in zip(cls, counts) for i in c[:t])
            vs = cut_mask
            for i in chosen:
                vs |= lobe_masks[i]
            key = _union_key(nbr, vs)
            if key not in union_ok:
                union_ok[key] = _induced_span_is_1(scan, vs)
            if not union_ok[key]:
                witness.setdefault("bad_lobe_union",
                                   {"cut": list(cut.vertices), "lobes": chosen})
        bad = sum(any(nbr[v] & cut_mask != cut_mask for v in comp) for comp in cut.components)
        if bad > 2:
            witness.setdefault("non_join_lobes", {"cut": list(cut.vertices), "count": bad})
    # h's graph6 replays a witness; it is encoded only when one exists
    base = {"graph6": to_graph6(h)} if witness else {}
    return tuple(_check(check, key not in witness, base | witness) for check, key in
                 zip(_SPAN1_CHECKS, ("non_clique_cut", "bad_lobe_union", "non_join_lobes")))


# the graphs an augmentation adds, by name and neighbour masks: K1, K2, the
# path P3 and the triangle K3
_ADDED_GRAPHS = (("K1", (0b0,)), ("K2", (0b10, 0b01)), ("P3", (0b010, 0b101, 0b010)),
                 ("K3", (0b110, 0b101, 0b011)))


def _augmentation_check(name: str, h: Graph, cliques: list[tuple[int, ...]]) -> Check:
    """Augmenting h at each clique by each test graph keeps traditional
    vertex span 1; the witness is the first case that does not.

    Per clique K one set of neighbour masks holds h and, after h's vertices,
    the four test graphs side by side, every vertex of each joined to K.
    ``augment(h, K, X)`` is, up to the labels of X, its subgraph induced on
    h and X, which one scan of the masks probes (``_induced_span_is_1``)."""
    witness: dict = {}
    added = sum(len(masks) for _, masks in _ADDED_GRAPHS)
    for K in cliques:
        k = sum(1 << v for v in K)
        nbr = [m | ((1 << added) - 1) << h.n if k >> v & 1 else m for v, m in enumerate(h.nbr)]
        parts = []
        for hname, masks in _ADDED_GRAPHS:
            off = len(nbr)
            parts.append((hname, ((1 << len(masks)) - 1) << off))
            nbr += [m << off | k for m in masks]
        scan = LevelScan(nbr)
        for hname, part in parts:
            if not _induced_span_is_1(scan, (1 << h.n) - 1 | part):
                witness.setdefault("case", {"clique": list(K), "added": hname})
    return _check(name, not witness, witness)


def check_interval_theorems(h: Graph) -> tuple[Check, ...]:
    """Interval graphs have traditional vertex span 1; trees have span 1 iff
    interval; augmenting an interval graph at an end-clique or at a clique
    minimal cut set, of any size, keeps span 1.  The two augmentation
    checks run on interval graphs with at most ``INTERVAL_CAP`` vertices;
    on larger ones their status is ``SKIPPED_BY_CAP``."""
    if not is_connected(h):
        raise ValueError("interval theorems apply to connected graphs only")
    iv = is_interval(h)
    tree = h.m == h.n - 1
    # one span-1 probe serves both of the next two checks
    span_1 = _span_is_1(h) if h.n >= 2 and (iv or tree) else None
    checks = []
    if iv and h.n >= 2:
        checks.append(_check("interval-implies-span-1", span_1, {}))
    else:
        checks.append(Check("interval-implies-span-1", NOT_APPLICABLE))

    if h.n >= 2 and tree:
        checks.append(_check("tree-characterization", span_1 == iv, {"is_interval": iv}))
    else:
        checks.append(Check("tree-characterization", NOT_APPLICABLE))

    if iv and 2 <= h.n <= INTERVAL_CAP:
        checks.append(_augmentation_check("end-clique-augmentation", h, _end_cliques(h)))
        checks.append(_augmentation_check(
            "cut-clique-augmentation", h,
            [cut.vertices for cut in minimal_cut_sets(h).sets if cut.is_clique]))
    else:
        status = SKIPPED_BY_CAP if iv and h.n > INTERVAL_CAP else NOT_APPLICABLE
        checks.append(Check("end-clique-augmentation", status))
        checks.append(Check("cut-clique-augmentation", status))
    return tuple(checks)
