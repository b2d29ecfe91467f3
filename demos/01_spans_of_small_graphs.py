# Spans of small graphs
#
# Two players, Alice and Bob, walk on a connected graph.  Each must visit
# every vertex (vertex span) or traverse every edge (edge span), and at
# every point in time they keep some safety distance from each other.  The
# span is the largest safety distance they can maintain, and it depends on
# the movement rule:
#
#   traditional - at each step, each player independently moves or stays
#   active      - both players move at the same time
#   lazy        - exactly one player moves at a time
#
# This demo prints the six span values for a handful of named graphs.

from spanlab import (RULES, complete_graph, cycle_graph, fixture, metrics,
                     path_graph, rule_spans, star_graph, subdivided_star)

GRAPHS = [
    ("K2 (single edge)", complete_graph(2)),
    ("P5 (path)", path_graph(5)),
    ("C4 (4-cycle)", cycle_graph(4)),
    ("C7 (7-cycle)", cycle_graph(7)),
    ("K5 (complete)", complete_graph(5)),
    ("K_{1,4} (star)", star_graph(4)),
    ("S_{1,3} (3-leg spider)", subdivided_star(3)),
    ("figure1 fixture", fixture("figure1")),
    ("figure2 fixture", fixture("figure2")),
    ("figure3 fixture", fixture("figure3")),
]

header = f"{'graph':24} {'rad':>3}  " + "  ".join(
    f"{rule.value[:4]}:V/E" for rule in RULES)
print(header)
print("-" * len(header))

for name, g in GRAPHS:
    rad = int(metrics(g).radius)
    cells = "  ".join(
        f"{spans['vertex'][0]}/{spans['edge'][0]}   "
        for spans in (rule_spans(g, rule) for rule in RULES))
    print(f"{name:24} {rad:>3}  {cells}")

# A few things worth noticing in the table:
#
# * Vertex span never exceeds the radius: the players cannot stay farther
#   apart than the best-centred vertex allows.
# * Edge span is never more than one below vertex span.  Visiting an edge's
#   far endpoint costs at most one step of safety.
# * Even cycles lose a full unit of span under lazy rules: with players
#   alternating single steps, the parity of their mutual distance flips on
#   every move, so antipodal orbits are out of reach.
# * The spider S_{1,3} is the smallest tree whose span exceeds 1; the tips
#   of its legs let one player hide at distance 2 while the other sweeps.
print()
print("Try `spanlab span --family cycle:9` for more.")
