"""Deterministic graph families, seeded random generators, and fixtures.

A family spec is a string like ``cycle:5``, ``random:8``, ``random:8:0.4:7``
(n, edge probability, seed), ``random_interval:9:3``, or ``fixture:figure1``.
A seed embedded in the spec wins over the ``seed`` argument.  The grammar
lives in one place: ``FAMILIES`` gives each family's builder and form, and
``_FIELDS`` how each field of a form is read.
"""

from __future__ import annotations

import random
from itertools import combinations

from .errors import CapacityError
from .graphs import Graph, is_connected


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph(n, list(combinations(range(n), 2)))


def star_graph(n: int) -> Graph:
    """Centre 0 with n leaves."""
    if n < 0:
        raise ValueError("leaf count must be non-negative")
    return Graph(n + 1, [(0, i) for i in range(1, n + 1)])


def subdivided_star(n: int) -> Graph:
    """Star with n rays, every ray subdivided once: 2n+1 vertices."""
    if n < 0:
        raise ValueError("ray count must be non-negative")
    edges = []
    for i in range(n):
        mid, leaf = 1 + 2 * i, 2 + 2 * i
        edges.append((0, mid))
        edges.append((mid, leaf))
    return Graph(2 * n + 1, edges)


# Resampling until connected makes at most MAX_DRAWS samples and no more than
# fit in SAMPLE_BUDGET random numbers (rng.random() calls or sampled interval
# endpoints), then raises CapacityError.  The first sample is made whatever its
# size (random:2000:0.005 needs 2M numbers); the rest cost about a second at most.
SAMPLE_BUDGET = 1_000_000
MAX_DRAWS = 50_000


def _connected_sample(draw, per_draw: int) -> Graph:
    """The first connected graph ``draw()`` makes from ``per_draw`` random numbers."""
    draws = max(1, min(MAX_DRAWS, SAMPLE_BUDGET // max(per_draw, 1)))
    for _ in range(draws):
        g = draw()
        if is_connected(g):
            return g
    # the limit that set the draw count, and the draws' cost in its unit
    stop = (("SAMPLE_BUDGET", SAMPLE_BUDGET, draws * per_draw) if draws < MAX_DRAWS
            else ("MAX_DRAWS", MAX_DRAWS, draws))
    raise CapacityError(*stop, disconnected_draws=draws)


def random_connected_graph(n: int, p: float = 0.5, seed: int = 0) -> Graph:
    """G(n, p) resampled until connected (deterministic for a seed)."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if not 0 <= p <= 1:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    return _connected_sample(
        lambda: Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p]),
        n * (n - 1) // 2)


def random_interval_graph(n: int, seed: int = 0) -> Graph:
    """Intersection graph of n random closed intervals with distinct integer
    endpoints, resampled until connected."""
    if n < 1:
        raise ValueError("need at least one vertex")
    rng = random.Random(seed)

    def draw() -> Graph:
        points = rng.sample(range(8 * n), 2 * n)
        ivs = [tuple(sorted(points[2 * i:2 * i + 2])) for i in range(n)]
        return Graph(n, [(a, b) for a, b in combinations(range(n), 2)
                         if ivs[a][0] <= ivs[b][1] and ivs[b][0] <= ivs[a][1]])

    return _connected_sample(draw, 2 * n)


def _figure1() -> Graph:
    # path p0-p1-p2-p3; L sees the whole path; R sees only p1, p2
    edges = [(0, 1), (1, 2), (2, 3),
             (4, 0), (4, 1), (4, 2), (4, 3),
             (5, 1), (5, 2)]
    return Graph(6, edges, ["p0", "p1", "p2", "p3", "L", "R"])


def _figure2() -> Graph:
    # induced 4-cycle 0-1-2-3-0, hub 4 on all of it, triangle pair 5-6
    # hanging off the hub, tip 7 on the pair
    edges = [(0, 1), (1, 2), (2, 3), (0, 3),
             (0, 4), (1, 4), (2, 4), (3, 4),
             (4, 5), (4, 6), (5, 6),
             (5, 7), (6, 7)]
    return Graph(8, edges)


def _figure3() -> Graph:
    # labels 1..8; 8 is fully joined to the clique cut set {2, 4, 5}
    pairs = [(1, 2), (2, 3), (3, 6), (6, 5), (5, 4), (4, 1),
             (4, 2), (2, 5), (5, 3), (3, 4),
             (4, 7), (7, 2), (7, 3),
             (2, 8), (4, 8), (5, 8)]
    return Graph(8, [(a - 1, b - 1) for a, b in pairs],
                 [str(i) for i in range(1, 9)])


FIXTURES = {
    "figure1": _figure1,
    "figure2": _figure2,
    "figure3": _figure3,
}


def fixture(name: str) -> Graph:
    try:
        return FIXTURES[name]()
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}; have {sorted(FIXTURES)}") from None


# each family's builder, and its fields after its name, one per ":"; the
# bracketed ones may be left out, and a left-out SEED is the seed argument
FAMILIES = {
    "fixture": (fixture, "NAME"),
    "path": (path_graph, "N"),
    "cycle": (cycle_graph, "N"),
    "complete": (complete_graph, "N"),
    "star": (star_graph, "LEAVES"),
    "subdivided_star": (subdivided_star, "RAYS"),
    "random": (random_connected_graph, "N[:P[:SEED]]"),
    "random_connected": (random_connected_graph, "N[:P[:SEED]]"),
    "interval": (random_interval_graph, "N[:SEED]"),
    "random_interval": (random_interval_graph, "N[:SEED]"),
}
# how each field is read, and what an error calls it
_FIELDS = {"N": (int, "vertex count"), "LEAVES": (int, "leaf count"), "RAYS": (int, "ray count"),
           "P": (float, "probability"), "SEED": (int, "seed"), "NAME": (str, "name")}


def _split(spec: str) -> tuple[str, list[str]]:
    """A family spec's name and fields, checked against its form."""
    name, _, rest = spec.strip().partition(":")
    args = rest.split(":") if rest else []
    name = name.strip().lower().replace("-", "_")
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    form = FAMILIES[name][1]
    if not 1 <= len(args) <= form.count(":") + 1:
        raise ValueError(f"{name} spec is {name}:{form}, got {spec!r}")
    return name, args


def seed_ignored(spec: str) -> str | None:
    """Why a family spec names the same graph whatever the ``seed``
    argument of ``generate_family``, or None if the spec reads it."""
    name, args = _split(spec)
    form = FAMILIES[name][1]
    if "SEED" not in form:
        return f"{name} has no seed"
    if len(args) > form.count(":"):
        return f"{spec!r} embeds seed {args[-1]}"
    return None


def generate_family(spec: str, seed: int | None = None) -> Graph:
    """Build the graph named by a family spec string."""
    name, args = _split(spec)
    build, form = FAMILIES[name]
    fields = form.replace("[", "").replace("]", "").split(":")
    values = []
    for field, arg in zip(fields, args):
        read, what = _FIELDS[field]
        try:
            values.append(read(arg))
        except ValueError:
            raise ValueError(f"family {name!r}: bad {what} {arg!r}") from None
    if "SEED" in fields[len(args):]:
        return build(*values, seed=seed or 0)
    return build(*values)
