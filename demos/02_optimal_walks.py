# Shortest optimal walks
#
# Once the span of a graph is known, the next question is how quickly the
# two players can finish their tour while keeping that distance.  min_steps
# searches the self-product of the graph, restricted to position pairs at
# distance >= span, for the shortest walk whose two projections each cover
# every vertex.  The result is a pair of synchronized walks.

from spanlab import (cycle_graph, fixture, min_steps, path_graph,
                     reroot_walk_pair, validate_walk_pair)


def show(name, g, rule):
    r = min_steps(g, rule)
    print(f"{name}, {rule} rules: span {r.span}, {r.moves} moves")
    for player, walk in (("Alice", r.pair.alice), ("Bob", r.pair.bob)):
        print(f"  {player}: {' -> '.join(walk)}")
    v = validate_walk_pair(r.pair, g, r.span)
    print(f"  validated: legal={v.legal} covers_all={v.alice_surjective and v.bob_surjective} "
          f"safety={v.safety}")
    print()
    return r


# On an even cycle the optimal traditional walk is a synchronized rotation:
# both players circle in the same direction, staying antipodal throughout.
show("C4", cycle_graph(4), "traditional")

# Under lazy rules only one player may move per step, so the same tour
# needs twice the moves and the players give up one unit of distance.
show("C4", cycle_graph(4), "lazy")

# Paths force the players to swap ends through the middle.
show("P4", path_graph(4), "traditional")

# The figure3 fixture keeps safety distance 2 in a 9-move tour.  (The
# pair of walks drawn in the paper for it takes 12 moves.)
r = show("figure3", fixture("figure3"), "traditional")

# Optimal walks can be re-rooted: any position a player holds at some time
# can serve as the start, by walking the prefix backwards first.  Coverage
# and safety are untouched; only the length grows.
moved = reroot_walk_pair(r.pair, 4, 8)
v = validate_walk_pair(moved, fixture("figure3"), r.span)
print(f"re-rooted walk starts at Alice={moved.alice[0]}, Bob={moved.bob[0]}; "
      f"still valid={v.valid}, now {moved.moves} moves")
