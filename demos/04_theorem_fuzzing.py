# Fuzzing the structure theorems
#
# Every computed span is tied down by inequalities, and span-1 graphs have
# forced structure around their minimal cut sets.  The theorem harness
# re-checks all of it on any graph; this demo throws seeded random graphs
# at the three checkers and tallies the outcomes.  A violation would print
# a graph6 string that replays the offending case.

import random

from spanlab import (check_interval_theorems, check_span1_structure,
                     check_span_inequalities, random_connected_graph, to_graph6)

CHECKERS = (check_span_inequalities, check_span1_structure,
            check_interval_theorems)

rng = random.Random(20240817)
tallies = {"holds": 0, "violated": 0, "not-applicable": 0}
violations = []

ROUNDS = 150
for i in range(ROUNDS):
    n = rng.randint(2, 8)
    g = random_connected_graph(n, p=rng.choice((0.3, 0.5, 0.8)), seed=i)
    for checker in CHECKERS:
        for check in checker(g):
            tallies[check.status] += 1
            if check.status == "violated":
                violations.append((to_graph6(g), check))

print(f"checked {ROUNDS} random connected graphs (n up to 8)")
for status, count in tallies.items():
    print(f"  {status:>15}: {count}")

if violations:
    print("\nVIOLATIONS FOUND:")
    for g6, check in violations:
        print(f"  {check.name} on {g6}: {check.witness}")
else:
    print("\nno violations, as the theorems demand")

# The same loop is available from the command line:
#
#   spanlab verify --family random:8 --seeds 150
#
# which exits non-zero if any check is ever violated.
