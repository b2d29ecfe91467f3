"""Shortest covering walks, walk-pair validation, re-rooting."""

import pytest

import spanlab.walks
from helpers import (connected_atlas, floyd_warshall, least_covering_walk, naive_min_moves,
                     random_graphs, single_cover_moves)
from spanlab import (RULES, CapacityError, Graph, Rule, WalkPair, complete_graph, cycle_graph,
                     fixture, generate_family, min_steps, parse_graph6, path_graph,
                     random_connected_graph, reroot_walk_pair, star_graph, subdivided_star,
                     validate_walk_pair, vertex_span)
from spanlab.products import VERTEX, build_product, safety_subgraph
from spanlab.spans import rule_spans
from spanlab.walks import PlayerBound, cover_table, shortest_covering_walk

# the published example pair on the figure3 graph: swap walks that keep the
# players at distance exactly 2 the whole time
FIG3_ALICE = ("1", "2", "8", "4", "7", "3", "6", "5", "6", "6", "6", "5", "8")
FIG3_BOB = ("5", "6", "6", "6", "5", "8", "2", "1", "2", "8", "4", "7", "3")


def test_k2_traditional_swap():
    r = min_steps(complete_graph(2), "traditional")
    assert r.span == 1
    assert r.moves == 1
    assert r.pair.alice == ("0", "1")
    assert r.pair.bob == ("1", "0")


def test_c4_traditional_rotation():
    r = min_steps(cycle_graph(4), "traditional")
    assert r.span == 2
    assert r.moves == 3
    assert r.pair.alice == ("0", "1", "2", "3")
    assert r.pair.bob == ("2", "3", "0", "1")


def test_k2_lazy_needs_two_moves():
    r = min_steps(complete_graph(2), "lazy")
    assert r.span == 0
    assert r.moves == 2
    assert r.pair.alice == ("0", "0", "1")
    assert r.pair.bob == ("0", "1", "1")


def test_min_steps_is_deterministic():
    a = min_steps(cycle_graph(5), "traditional")
    b = min_steps(cycle_graph(5), "traditional")
    assert a.pair == b.pair
    assert a.product_walk == b.product_walk


def test_min_steps_result_validates():
    for g in random_graphs(10, 2, 5, seed=31):
        for rule in ("traditional", "active", "lazy"):
            r = min_steps(g, rule)
            assert r.span == vertex_span(g, rule)[0]
            assert r.moves == len(r.pair.alice) - 1
            v = validate_walk_pair(r.pair, g, r.span)
            assert v.valid, (g.adj, rule, r.pair)
            assert v.safety >= r.span


def test_walk_answer_decodes_one_product_walk_on_every_small_graph():
    # every connected graph with n <= 6 under each rule: the labels and the
    # distance at each step decode that step's pair code, and the safety is
    # the least of those distances
    for g in connected_atlas(6):
        dist = floyd_warshall(g)
        for rule in RULES:
            r = min_steps(g, rule)
            steps = r.moves + 1
            assert (len(r.product_walk), len(r.distances), len(r.pair.alice),
                    len(r.pair.bob)) == (steps,) * 4, (g.adj, rule)
            for i, code in enumerate(r.product_walk):
                a, b = divmod(code, g.n)
                assert (r.pair.alice[i], r.pair.bob[i]) == (g.labels[a], g.labels[b])
                assert r.distances[i] == dist[a][b], (g.adj, rule, i)
            assert r.pair.safety == min(r.distances) >= r.span, (g.adj, rule)


def test_min_steps_builds_the_product_once(monkeypatch):
    # one build, at the span, and no filtered copy of a larger product
    import spanlab.products
    assert not hasattr(spanlab.walks, "safety_subgraph")
    built = []

    def counting_build(h, rule, k=0):
        built.append(k)
        return build_product(h, rule, k)

    def no_filter(p, k):
        raise AssertionError("min_steps filters no product")

    monkeypatch.setattr(spanlab.walks, "build_product", counting_build)
    monkeypatch.setattr(spanlab.products, "safety_subgraph", no_filter)
    for g in (cycle_graph(5), path_graph(4), star_graph(3)):
        for rule in ("traditional", "active", "lazy"):
            built.clear()
            r = min_steps(g, rule)
            assert built == [r.span], (g.adj, rule)
            assert r.span == vertex_span(g, rule)[0]


def test_shortest_covering_walk_none_without_good_component():
    # K2 lazy at threshold 1 has no good component, and no rule has one at
    # a threshold past the diameter, where every pair is cut off; the empty
    # graph has no pair at all
    p = safety_subgraph(build_product(complete_graph(2), "lazy"), 1)
    assert shortest_covering_walk(p) is None
    p = safety_subgraph(build_product(path_graph(3), "traditional"), 5)
    assert shortest_covering_walk(p) is None
    assert shortest_covering_walk(build_product(Graph(0), "traditional")) is None


def test_work_budget_replaces_the_default_vertex_cap(monkeypatch):
    # more than 10 vertices, solved well inside the budget
    assert min_steps(star_graph(10), "traditional").moves == 19
    assert min_steps(generate_family("subdivided-star:5"), "lazy").moves == 32
    monkeypatch.setattr(spanlab.walks, "WALK_BUDGET", 50)
    with pytest.raises(CapacityError) as exc:
        min_steps(star_graph(10), "traditional")
    assert (exc.value.budget, exc.value.limit) == ("WALK_BUDGET", 50)
    # the arcs of each cover state entered plus one per cover-table entry
    # (11 << 11 = 22,528 of them): this search needs exactly 23,069 units
    monkeypatch.setattr(spanlab.walks, "WALK_BUDGET", 23069)
    assert min_steps(star_graph(10), "traditional").moves == 19
    monkeypatch.setattr(spanlab.walks, "WALK_BUDGET", 23068)
    with pytest.raises(CapacityError):
        min_steps(star_graph(10), "traditional")


def test_cover_table_search_stays_small_where_the_players_block_each_other(monkeypatch):
    # K(2,5) under the lazy rule: per-player bounds that ignore the other
    # player start at 12 against an optimum of 16, and that search needed
    # 553,194 units; the exact table needs 992 (896 entries, 96 arcs)
    monkeypatch.setattr(spanlab.walks, "WALK_BUDGET", 1000)
    r = min_steps(parse_graph6("F]rE?"), "lazy")
    assert (r.span, r.moves) == (1, 16)


def test_refusal_before_the_span_at_n_times_n_minus_1(monkeypatch):
    # K5: n(n - 1) = 20 units; refused at that budget without a span, and
    # one above it the span runs and the search passes the budget itself
    spans = []

    def counting_spans(h, rule, kinds):
        spans.append(rule)
        return rule_spans(h, rule, kinds)

    monkeypatch.setattr(spanlab.walks, "rule_spans", counting_spans)
    monkeypatch.setattr(spanlab.walks, "WALK_BUDGET", 20)
    with pytest.raises(CapacityError) as exc:
        min_steps(complete_graph(5), "traditional")
    assert (exc.value.budget, exc.value.limit, exc.value.spent) == ("WALK_BUDGET", 20, 20)
    assert not spans
    monkeypatch.setattr(spanlab.walks, "WALK_BUDGET", 21)
    with pytest.raises(CapacityError) as exc:
        min_steps(complete_graph(5), "traditional")
    # only the search itself proves a depth
    assert (exc.value.budget, exc.value.limit) == ("WALK_BUDGET", 21)
    assert "moves_at_least" in exc.value.proven
    assert spans == [Rule.TRADITIONAL]


def test_refusal_loses_no_answer(monkeypatch):
    # where the cover table does not fit in the default budget, the least
    # budget with which the search itself (no refusal in front of it)
    # answers lies above n(n - 1) = 306, as the module docstring proves:
    # 4,999 for star:17 and 1,567 for path:18
    default = spanlab.walks.WALK_BUDGET
    for g, least in ((star_graph(17), 4999), (path_graph(18), 1567)):
        n = g.n
        assert n << n > default
        p = build_product(g, "traditional", vertex_span(g, "traditional")[0])

        def answers(budget):
            monkeypatch.setattr(spanlab.walks, "WALK_BUDGET", budget)
            try:
                shortest_covering_walk(p)
            except CapacityError:
                return False
            return True

        lo, hi = 1, default
        assert answers(hi)
        while lo < hi:
            mid = (lo + hi) // 2
            if answers(mid):
                hi = mid
            else:
                lo = mid + 1
        assert lo == least > n * (n - 1), (g.adj, lo)


def test_search_generates_only_the_moves_it_enters(monkeypatch):
    # K80: 41M traditional arcs at its span of 1, of which the search
    # generates those of the pairs it enters
    built = []

    def capturing_build(h, rule, k=0):
        built.append(build_product(h, rule, k))
        return built[-1]

    monkeypatch.setattr(spanlab.walks, "build_product", capturing_build)
    r = min_steps(complete_graph(80), "traditional")
    assert (r.span, r.moves) == (1, 79)
    [p] = built
    assert 0 < len(p.adj) < len(p.codes) == 80 * 79


def test_player_bound_is_admissible():
    # the bound never exceeds the exact single-player covering-walk length
    for g in connected_atlas(6):
        bound = PlayerBound(g)
        for (pos, seen), moves in single_cover_moves(g).items():
            assert bound[pos << g.n | seen] <= moves, (g.adj, pos, seen)
    star = star_graph(7)
    exact = single_cover_moves(star)
    # from a leaf: 7 first visits plus a return to the centre after 5 leaves
    assert PlayerBound(star)[1 << 8 | 0b10] == exact[1, 0b10] == 12


def test_cover_table_is_exact():
    # every state with the position visited holds the exact single-player
    # covering-walk length, and no other state is filled; beyond the atlas,
    # path:1 has a position with no neighbour and star:13 the widest lanes
    specs = ("path:1", "path:2", "star:7", "subdivided-star:4", "path:8", "cycle:9",
             "complete:10", "random:10:0.4:2", "random:12:0.3:0", "star:13")
    for g in [*connected_atlas(7), *map(generate_family, specs)]:
        want = bytearray(b"\xff") * (g.n << g.n)
        for (pos, seen), moves in single_cover_moves(g).items():
            want[pos << g.n | seen] = moves
        table = cover_table(g)
        assert type(table) is bytearray and table == want, g.adj


def test_search_past_the_table_limit_memoises_player_bound(monkeypatch):
    # the search fills the cover table exactly when its n << n entries fit
    # in the work budget, read at call time: n <= 17 at the default
    calls = []

    class CountingBound(PlayerBound):
        def __init__(self, g):
            calls.append(g.n)
            super().__init__(g)

    def no_table(g):
        raise AssertionError(f"cover table filled for n={g.n}")

    monkeypatch.setattr(spanlab.walks, "PlayerBound", CountingBound)
    monkeypatch.setattr(spanlab.walks, "cover_table", no_table)
    budget = spanlab.walks.WALK_BUDGET
    g = star_graph(20)
    assert g.n << g.n > budget
    assert min_steps(g, "traditional").moves == 39
    assert min_steps(g, "lazy").moves == 76
    # n = 18, the least past the default budget
    g = star_graph(17)
    assert g.n << g.n > budget
    assert min_steps(g, "traditional").moves == 33
    assert calls == [21, 21, 18]
    # n = 17 fits, and the search reads the table: no PlayerBound is built
    filled = []

    def counting_table(g):
        filled.append(g.n)
        return cover_table(g)

    monkeypatch.setattr(spanlab.walks, "cover_table", counting_table)
    g = star_graph(16)
    assert g.n << g.n <= budget
    assert min_steps(g, "traditional").moves == 31
    assert (calls, filled) == ([21, 21, 18], [17])
    # a budget patched below the table's 17 << 17 entries builds a
    # PlayerBound for the same graph instead
    monkeypatch.setattr(spanlab.walks, "WALK_BUDGET", (17 << 17) - 1)
    assert min_steps(g, "traditional").moves == 31
    assert (calls, filled) == ([21, 21, 18, 17], [17])


def test_least_walk_does_not_depend_on_the_bound(monkeypatch):
    # the table and PlayerBound are both admissible and the failure memo
    # keeps only proven failures, so either bound finds the same least
    # optimal walk; these n = 15-16 inputs fit the table at the default
    # budget, and PlayerBound, swapped in at the table's one unit per
    # entry, answers them too
    specs = ("random:15:0.4:2", "random:16:0.3:0", "random:16:0.25:3", "random:16:0.25:5",
             "star:14", "path:15", "cycle:16")
    graphs = [generate_family(spec) for spec in specs]
    for g in graphs:
        assert g.n << g.n <= spanlab.walks.WALK_BUDGET
    want = [min_steps(g, rule) for g in graphs for rule in RULES]
    monkeypatch.setattr(spanlab.walks, "cover_table", PlayerBound)
    got = [min_steps(g, rule) for g in graphs for rule in RULES]
    for a, b in zip(want, got):
        assert (a.moves, a.pair) == (b.moves, b.pair), a.pair


def test_least_optimal_walks_beyond_five_vertices():
    graphs = [generate_family(spec)
              for spec in ("star:6", "star:7", "subdivided-star:4", "path:8")]
    graphs += [random_connected_graph(n, p=0.3, seed=s) for s in range(6) for n in (7, 8)]
    # two good components at its active span, and the least optimal active
    # walk lies in the second: the search needs the roots of both
    graphs.append(Graph(7, [(0, 1), (0, 4), (1, 2), (2, 3), (2, 5), (4, 5), (5, 6)]))
    span_one = 0
    for g in graphs:
        for rule in RULES:
            r = min_steps(g, rule)
            span_one += r.span == 1
            moves = naive_min_moves(g, rule.value, r.span)
            assert r.moves == moves, (g.adj, rule)
            assert r.product_walk == least_covering_walk(g, rule.value, r.span, moves), (
                g.adj, rule)
    assert span_one >= 10


# (family, graph on n vertices, the n tried, (span, moves) under the
# traditional and active rules, the same under the lazy rule); star:2 is P3,
# so the star starts at n = 4, and the subdivided star has n = 2 * rays + 1
CLOSED_FORMS = [
    ("path", path_graph, range(3, 41),
     lambda n: (1, 2 * ((n + 1) // 2) - 1), lambda n: (0, 2 * (n - 1))),
    ("cycle", cycle_graph, range(3, 41),
     lambda n: (n // 2, n - 1), lambda n: ((n - 1) // 2, 2 * (n - 1))),
    ("complete", complete_graph, range(3, 31),
     lambda n: (1, n - 1), lambda n: (1, 2 * (n - 1))),
    ("star", lambda n: star_graph(n - 1), range(4, 31),
     lambda n: (1, 2 * n - 3), lambda n: (1, 4 * (n - 2))),
    ("subdivided star", lambda n: subdivided_star(n // 2), range(7, 42, 2),
     lambda n: (2, 2 * n - 4), lambda n: (2, 4 * (n - 3))),
]


def test_spans_and_moves_match_the_closed_forms_of_five_families():
    # the vertex span and the optimal moves on five families, past the
    # n <= 7 reach of the brute-force references; from n = 18 the search
    # reads PlayerBound, not the cover table
    for family, make, sizes, joint, lazy in CLOSED_FORMS:
        for n in sizes:
            g = make(n)
            assert g.n == n
            for rule in RULES:
                want = (lazy if rule is Rule.LAZY else joint)(n)
                span, _ = rule_spans(g, rule, (VERTEX,))[VERTEX]
                assert (span, min_steps(g, rule).moves) == want, (family, n, rule)


def test_published_walks_on_figure3():
    g = fixture("figure3")
    pair = WalkPair(alice=FIG3_ALICE, bob=FIG3_BOB, rule=Rule.TRADITIONAL,
                    safety=2, moves=len(FIG3_ALICE) - 1)
    v = validate_walk_pair(pair, g, 2)
    assert not v.illegal_steps
    assert not v.missing_alice and not v.missing_bob
    assert v.safety == 2
    assert v.valid


def test_traditional_both_stay_is_legal():
    g = path_graph(3)
    pair = WalkPair(alice=("0", "0", "1", "2"), bob=("2", "2", "2", "0"),
                    rule=Rule.TRADITIONAL, safety=0, moves=3)
    v = validate_walk_pair(pair, g, 0)
    # step 3 teleports bob from 2 to 0; everything else is fine
    assert v.illegal_steps == (2,)
    assert not v.valid


def test_active_requires_joint_motion():
    g = path_graph(3)
    pair = WalkPair(alice=("0", "1"), bob=("2", "2"), rule=Rule.ACTIVE,
                    safety=0, moves=1)
    assert validate_walk_pair(pair, g, 0).illegal_steps == (0,)
    pair = WalkPair(alice=("0", "0"), bob=("2", "2"), rule=Rule.ACTIVE,
                    safety=0, moves=1)
    assert not validate_walk_pair(pair, g, 0).illegal_steps


def test_lazy_forbids_both_staying_and_both_moving():
    g = path_graph(3)
    both_stay = WalkPair(alice=("0", "0"), bob=("2", "2"), rule=Rule.LAZY,
                         safety=0, moves=1)
    assert validate_walk_pair(both_stay, g, 0).illegal_steps == (0,)
    both_move = WalkPair(alice=("0", "1"), bob=("2", "1"), rule=Rule.LAZY,
                         safety=0, moves=1)
    assert validate_walk_pair(both_move, g, 0).illegal_steps == (0,)
    one_moves = WalkPair(alice=("0", "1"), bob=("2", "2"), rule=Rule.LAZY,
                         safety=0, moves=1)
    assert not validate_walk_pair(one_moves, g, 0).illegal_steps


def test_validator_takes_a_rule_name():
    # as rule_spans, min_steps and build_product do: "traditional" is
    # Rule.TRADITIONAL
    g = cycle_graph(4)
    pair = min_steps(g, "traditional").pair
    named = validate_walk_pair(pair._replace(rule="traditional"), g, 2)
    assert named == validate_walk_pair(pair, g, 2)
    assert named.valid
    bad = pair._replace(rule="sideways")
    with pytest.raises(ValueError, match="unknown movement rule"):
        validate_walk_pair(bad, g, 2)


def test_validator_reports_missing_vertices():
    g = path_graph(3)
    pair = WalkPair(alice=("0", "1"), bob=("2", "1"), rule=Rule.TRADITIONAL,
                    safety=0, moves=1)
    v = validate_walk_pair(pair, g, 0)
    assert v.missing_alice == ("2",)
    assert v.missing_bob == ("0",)
    assert not v.valid


def test_validator_refuses_disconnected_graphs():
    pair = WalkPair(alice=("0",), bob=("1",), rule=Rule.TRADITIONAL, safety=0, moves=0)
    with pytest.raises(ValueError, match="connected"):
        validate_walk_pair(pair, Graph(2), 1)


def test_validator_threshold_check():
    g = cycle_graph(4)
    pair = min_steps(g, "traditional").pair
    at_two, at_three = validate_walk_pair(pair, g, 2), validate_walk_pair(pair, g, 3)
    assert at_two.safety == at_three.safety == 2
    assert at_two.valid and not at_three.valid


def test_validator_input_errors():
    g = path_graph(2)
    with pytest.raises(ValueError):
        validate_walk_pair(WalkPair(("0",), ("0", "1"), Rule.LAZY, 0, 1), g, 0)
    with pytest.raises(ValueError):
        validate_walk_pair(WalkPair((), (), Rule.LAZY, 0, 0), g, 0)
    with pytest.raises(ValueError):
        validate_walk_pair(WalkPair(("9",), ("0",), Rule.LAZY, 0, 0), g, 0)


def test_reroot_preserves_validity_and_endpoints():
    g = cycle_graph(6)
    r = min_steps(g, "traditional")
    length = len(r.pair.alice)
    for i in range(0, length, 2):
        for j in range(0, length, 3):
            moved = reroot_walk_pair(r.pair, i, j)
            assert moved.alice[0] == r.pair.alice[i]
            assert moved.alice[-1] == r.pair.alice[j]
            v = validate_walk_pair(moved, g, r.span)
            assert v.valid, (i, j)


def test_reroot_rejects_bad_times():
    pair = min_steps(complete_graph(2), "traditional").pair
    with pytest.raises(ValueError):
        reroot_walk_pair(pair, 0, 5)


def test_walk_as_dict_round_trip():
    pair = min_steps(cycle_graph(4), "traditional").pair
    d = pair.as_dict()
    assert d["alice"] == list(pair.alice)
    assert d["rule"] == "traditional"
    assert d["moves"] == pair.moves
    # a pair whose rule is a name, as validate_walk_pair accepts
    named = WalkPair(("0", "1"), ("1", "0"), "active", 1, 1).as_dict()
    assert named["rule"] == "active"
