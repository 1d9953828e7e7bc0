import math

import numpy as np
import pytest

from mapfuse.geometry import bearing_inclination
from mapfuse import path_search
from mapfuse.network import RoadNetwork
from mapfuse.path_search import (_TIE_OVERRUN, CandidateEdge, EllipseRegion, SubGraph,
                                 build_subgraph, candidate_path_budget, carried_candidate,
                                 ellipse_region, find_candidate_edges, k_shortest_paths,
                                 subgraph_geojson)

from conftest import build_network, net_xy
from oracles import assert_same_paths, enumerate_candidate_paths


class TestCandidateEdges:
    def test_filters_mirror_the_vicinity_rules(self):
        # four links near the probe; two survive: one fails bearing, one fails
        # the side-node vicinity check (long edges, far side nodes)
        nodes = [
            (0, -100.0, 50.0), (1, 100.0, 50.0),        # link 0: eastbound, 50 m north
            (2, 100.0, -100.0), (3, -100.0, -100.0),    # link 1: westbound... make eastbound
            (4, -100.0, 120.0), (5, 100.0, 120.0),      # link 2: eastbound but probe heads west
            (6, -250.0, -150.0), (7, 550.0, -150.0),    # link 3: long; side nodes far away
        ]
        links = [
            (0, 0, 1, None, None),       # candidate
            (1, 3, 2, None, None),       # eastbound along y=-100: candidate
            (2, 5, 4, None, None),       # westbound: inclination 180
            (3, 6, 7, None, None),       # side nodes beyond the radius
        ]
        net = build_network(nodes, links, split_length=400.0)
        x, y = net_xy(net, 0.0, 0.0)
        got = find_candidate_edges(x, y, 0.0, net, radius=170.0)
        assert [c.edge.link_id for c in got] == [0, 1]
        assert got[0].distance == pytest.approx(50.0, abs=1e-6)
        assert got[1].distance == pytest.approx(100.0, abs=1e-6)

    def test_far_probe_yields_nothing(self, chain_network):
        x, y = net_xy(chain_network, 0.0, 5000.0)
        got = find_candidate_edges(x, y, 0.0, chain_network, radius=170.0)
        assert got == []

    def test_opposite_bearing_excluded(self, chain_network):
        # probe 5 m off the chain heading west; chain links head east
        x, y = net_xy(chain_network, 100.0, 5.0)
        got = find_candidate_edges(x, y, 180.0, chain_network, radius=170.0)
        assert got == []

    def test_sorted_by_distance(self, chain_network):
        x, y = net_xy(chain_network, 100.0, 5.0)
        got = find_candidate_edges(x, y, 0.0, chain_network, radius=170.0)
        dists = [c.distance for c in got]
        assert dists == sorted(dists)

    def test_one_candidate_per_link(self, chain_network):
        x, y = net_xy(chain_network, 210.0, 10.0)
        got = find_candidate_edges(x, y, 0.0, chain_network, radius=170.0)
        assert len({c.edge.link_id for c in got}) == len(got)

    def test_same_as_the_rule_applied_to_every_edge(self):
        rng = np.random.default_rng(17)
        on_boundary = 0
        for _ in range(12):
            net = _random_candidate_network(rng)
            for x, y, at_boundary in _probes_around_subdivisions(net, rng):
                bearing = float(rng.uniform(0.0, 360.0))
                radius = float(rng.choice([30.0, 170.0, 600.0]))
                got = find_candidate_edges(x, y, bearing, net, radius)
                assert got == _candidates_every_edge(x, y, bearing, net, radius)
                on_boundary += at_boundary and any(c.offset == 0.0 and c.edge.index > 1
                                                   or c.offset == c.edge.length for c in got)
        assert on_boundary > 0

    def test_projects_at_most_twice_per_nearby_link(self, chain_network, monkeypatch):
        calls = []
        project = chain_network.project_point_to_edge
        monkeypatch.setattr(chain_network, "project_point_to_edge",
                            lambda x, y, edge: calls.append(edge) or project(x, y, edge))
        for px in (0.0, 50.0, 210.0, 400.0, 575.0):
            x, y = net_xy(chain_network, px, 10.0)
            calls.clear()
            find_candidate_edges(x, y, 0.0, chain_network, radius=170.0)
            near = {e.link_id for e in chain_network.edges_near(x, y, 170.0)}
            assert 0 < len(calls) <= 2 * len(near)


def _candidates_every_edge(x, y, bearing, net, radius):
    """The find_candidate_edges rule applied to every edge of the network.

    Each link keeps its nearest edge, the lower index on a tie, and keeps it
    when the link's foot is on the link and the radius, bearing and
    side-node checks pass.
    """
    best = {}
    for edge in (e for lid in net.link_ids for e in net.link(lid).edges):
        proj, offset = net.project_point_to_edge(x, y, edge)
        cand = CandidateEdge(edge, offset, proj.distance)
        cur = best.get(edge.link_id)
        if cur is None or (cand.distance, edge.index) < (cur.distance, cur.edge.index):
            best[edge.link_id] = cand
    out = []
    for cand in best.values():
        link, edge = net.link(cand.edge.link_id), cand.edge
        ldx, ldy = link.x1 - link.x0, link.y1 - link.y0
        norm2 = ldx * ldx + ldy * ldy
        t = ((x - link.x0) * ldx + (y - link.y0) * ldy) / norm2 if norm2 > 0.0 else 0.0
        if (cand.distance <= radius and 0.0 <= t <= 1.0
                and bearing_inclination(bearing, link.bearing) < 90.0
                and min(math.hypot(edge.x0 - x, edge.y0 - y),
                        math.hypot(edge.x1 - x, edge.y1 - y)) <= radius):
            out.append(cand)
    return sorted(out, key=lambda c: (c.distance, c.edge.link_id))


def _random_candidate_network(rng):
    """Random links whose nominal lengths differ from their geometry, plus a
    zero-length link (coincident end nodes) with an explicit length and bearing."""
    n_nodes = int(rng.integers(5, 9))
    coords = [(i, float(rng.uniform(0, 800)), float(rng.uniform(0, 800)))
              for i in range(n_nodes)]
    coords.append((n_nodes, coords[0][1], coords[0][2]))
    links = [(0, 0, n_nodes, float(rng.uniform(60.0, 400.0)), float(rng.uniform(0, 360)))]
    for a in range(n_nodes):
        for b in rng.permutation(n_nodes)[:int(rng.integers(1, 3))]:
            if int(b) != a:
                geo = math.dist(coords[a][1:], coords[int(b)][1:])
                links.append((len(links), a, int(b), geo * float(rng.uniform(0.5, 2.0)), None))
    return build_network(coords, links, split_length=float(rng.choice([40.0, 150.0])))


def _probes_around_subdivisions(net, rng):
    """Probes at, and 1e-9 m along the link either side of, two edge
    boundaries per link, on the link and off it; then random probes. Yields
    (x, y, at_boundary)."""
    for lid in net.link_ids:
        link = net.link(lid)
        length = math.hypot(link.x1 - link.x0, link.y1 - link.y0)
        if length == 0.0:
            continue
        ux, uy = (link.x1 - link.x0) / length, (link.y1 - link.y0) / length
        inner = link.edges[1:]
        for pos in rng.permutation(len(inner))[:2]:
            edge = inner[pos]
            for side in (0.0, float(rng.uniform(-40.0, 40.0))):
                for along in (0.0, -1e-9, 1e-9):
                    yield edge.x0 + along * ux - side * uy, edge.y0 + along * uy + side * ux, True
    for _ in range(60):
        yield float(rng.uniform(-100, 900)), float(rng.uniform(-100, 900)), False


class TestEllipse:
    def test_lower_bound_branch(self):
        region = ellipse_region((0.0, 0.0), (100.0, 0.0), 0.0, 0.0, 60.0)
        assert region.long_axis == 200.0

    def test_speed_branch_and_membership(self):
        region = ellipse_region((0.0, 0.0), (100.0, 0.0), 10.0, 7.0, 60.0)
        assert region.long_axis == 600.0
        # sum of focal distances at (150, 0): 150 + 50 = 200 <= 600
        assert region.contains(150.0, 0.0)
        assert not region.contains(400.0, 0.0)  # 400 + 300 = 700 > 600

    def test_boundary_is_inside(self):
        region = ellipse_region((0.0, 0.0), (0.0, 0.0), 2.0, 1.0, 50.0)
        assert region.long_axis == 100.0
        assert region.contains(50.0, 0.0)       # exactly on the boundary
        assert not region.contains(50.001, 0.0)

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(ValueError):
            ellipse_region((0.0, 0.0), (1.0, 0.0), 1.0, 1.0, 0.0)


class TestSubgraph:
    def test_covering_ellipse_keeps_everything(self, chain_network):
        region = ellipse_region(net_xy(chain_network, -500.0, 0.0),
                                net_xy(chain_network, 1100.0, 0.0), 50.0, 50.0, 600.0)
        sub = build_subgraph(chain_network, region, [], [])
        assert sub.usable_links == frozenset(chain_network.link_ids)
        assert _drawn(sub) == {k for lid in chain_network.link_ids
                               for k in chain_network.link(lid).edge_keys}

    def test_bent_chain_breaks_when_middle_is_outside(self):
        # U-shaped chain; a tight ellipse around the tips drops the whole bottom.
        # The legs' tops pass the edge rule, but the search cannot pass part
        # of a link that holds no candidate, so nothing is left
        nodes = [(0, 0.0, 400.0), (1, 0.0, 0.0), (2, 400.0, 0.0), (3, 400.0, 400.0)]
        links = [(0, 0, 1, None, None), (1, 1, 2, None, None), (2, 2, 3, None, None)]
        net = build_network(nodes, links)
        region = ellipse_region(net_xy(net, 0.0, 400.0), net_xy(net, 400.0, 400.0),
                                0.0, 0.0, 60.0)
        sub = build_subgraph(net, region, [], [])
        assert sub.usable_links == frozenset() and sub.kept == frozenset()

    def test_candidate_adjacent_edges_survive(self, chain_network):
        # the ellipse covers a single subdivision point at x=250; only edges
        # touching the candidate's own side node get pulled in
        cand = carried_candidate(chain_network, (1, 2), 25.0)
        region = ellipse_region(net_xy(chain_network, 250.0, 0.0),
                                net_xy(chain_network, 252.0, 0.0), 0.1, 0.1, 300.0)
        sub_with = build_subgraph(chain_network, region, [cand], [])
        sub_without = build_subgraph(chain_network, region, [], [])
        assert _drawn(sub_without) < _drawn(sub_with)
        assert {(1, 1), (1, 2)} <= sub_with.kept and sub_with.segment_usable(1, 1, 2)
        assert not sub_without.segment_usable(1, 1, 1)

    def test_reads_only_links_with_an_edge_in_the_bbox(self, monkeypatch):
        # a grid plus a far second component: the trim must not look at the
        # far links at all, however many there are
        nodes, links = _grid_rows(4)
        nodes += [(100 + i, 20_000.0 + 300.0 * i, 0.0) for i in range(4)]
        links += [(1000 + i, 100 + i, 101 + i, None, None) for i in range(3)]
        net = build_network(nodes, links, split_length=100.0)
        starts, ends = _single_candidates(net, _westmost_link(net), 30.0,
                                          _find_link(net, 1, 2), 60.0)
        region = ellipse_region(net_xy(net, 50.0, 0.0), net_xy(net, 500.0, 0.0),
                                4.0, 4.0, 150.0)
        in_bbox = {e.link_id for e in net.edges_in_bbox(*region.bbox())}
        assert not in_bbox & {1000, 1001, 1002}
        read = []
        link = net.link
        monkeypatch.setattr(net, "link", lambda lid: read.append(lid) or link(lid))
        sub = build_subgraph(net, region, starts, ends)
        assert sub.usable_links and set(read) <= in_bbox

    def test_same_as_the_rule_applied_to_every_edge(self):
        rng = np.random.default_rng(11)
        exceptions = 0
        for _ in range(40):
            net, _, starts, ends = _random_instance(rng)
            # foci at candidate projections, as in matching, so candidate
            # edges often cross the boundary
            foci = [_foot(c) for c in starts + ends]
            i, j = rng.integers(0, len(foci), size=2)
            region = ellipse_region(foci[i], foci[j], float(rng.uniform(1.0, 30.0)), 0.0, 60.0)
            starts = starts[:int(rng.integers(0, len(starts) + 1))]
            ends = ends[:int(rng.integers(0, len(ends) + 1))]
            sub = build_subgraph(net, region, starts, ends)
            keys, usable = _trim_every_edge(net, region, starts, ends)
            candidate_links = {c.edge.link_id for c in starts + ends}
            assert sub.kept == {key for key in keys if key[0] in candidate_links}
            assert sub.usable_links == usable
            edges = [net.edge(key) for key in sub.kept]
            exceptions += sum(1 for e in edges if not (region.contains(e.x0, e.y0)
                                                       and region.contains(e.x1, e.y1)))
        assert exceptions > 0

    def test_candidate_ranges_and_node_exception_follow_the_rule_on_every_edge(self):
        rng = np.random.default_rng(5)
        through_a_candidate_node = 0
        for _ in range(60):
            net, region, starts, ends = _random_trim_instance(rng)
            sub = build_subgraph(net, region, starts, ends)
            keys, usable = _trim_every_edge(net, region, starts, ends)
            assert sub.usable_links == usable
            for c in starts + ends:
                lid, n = c.edge.link_id, len(net.link(c.edge.link_id).edges)
                first, last = (c.edge.index, n) if c in starts else (1, c.edge.index)
                assert sub.segment_usable(lid, first, last) == \
                    all((lid, i) in keys for i in range(first, last + 1))
            # usable links that hold no candidate edge but have an end node outside
            candidate_links = {c.edge.link_id for c in starts + ends}
            exceptions = [net.link(lid) for lid in usable - candidate_links
                          if not all(region.contains(net.nodes[nid].x, net.nodes[nid].y)
                                     for nid in (net.link(lid).from_node, net.link(lid).to_node))]
            assert all(len(link.edges) == 1 for link in exceptions)
            through_a_candidate_node += bool(exceptions)
        assert through_a_candidate_node > 0

    def test_single_edge_link_usable_through_a_candidate_node(self):
        # node 1 alone is inside. The one-edge link 0 -> 1 is usable because
        # node 1 is the candidate's side point; the two-edge link 3 -> 1 is not,
        # though its last edge passes the edge rule, and the candidate link
        # keeps its first edge.
        nodes = [(0, 0.0, 0.0), (1, 100.0, 0.0), (2, 400.0, 0.0), (3, 100.0, 300.0)]
        links = [(0, 0, 1, None, None), (1, 1, 2, None, None), (2, 3, 1, None, None)]
        net = build_network(nodes, links, split_length=150.0)
        cand = carried_candidate(net, (1, 1), 10.0)
        region = ellipse_region(net_xy(net, 100.0, 0.0), net_xy(net, 110.0, 0.0),
                                0.5, 0.5, 60.0)
        sub = build_subgraph(net, region, [cand], [])
        assert sub.usable_links == {0}
        assert sub.segment_usable(1, 1, 1) and not sub.segment_usable(1, 1, 2)
        assert sub.kept == {(1, 1)} and _drawn(sub) == {(0, 1), (1, 1)}
        assert (2, 2) in _trim_every_edge(net, region, [cand], [])[0]
        assert build_subgraph(net, region, [], []).usable_links == frozenset()

    def test_one_bbox_query_and_one_containment_test_per_node(self, monkeypatch):
        net = build_network(*_grid_rows(5, np.random.default_rng(3)), split_length=100.0)
        starts, ends = _single_candidates(net, _find_link(net, 6, 7), 30.0,
                                          _find_link(net, 8, 13), 60.0)
        # covers the middle rows of the grid, not its corners or top rows
        region = ellipse_region(net_xy(net, 300.0, 300.0), net_xy(net, 900.0, 300.0),
                                10.0, 10.0, 60.0)
        edges_in_bbox, contains = RoadNetwork.edges_in_bbox, EllipseRegion.contains
        queries, tests = [], []
        monkeypatch.setattr(RoadNetwork, "edges_in_bbox",
                            lambda self, *box: queries.append(box) or edges_in_bbox(self, *box))
        monkeypatch.setattr(EllipseRegion, "contains",
                            lambda self, x, y: tests.append((x, y)) or contains(self, x, y))
        sub = build_subgraph(net, region, starts, ends)
        assert len(queries) == 1
        in_box = [net.link(lid) for lid in {e.link_id for e in edges_in_bbox(net, *region.bbox())}]
        candidate_edges = sum(len(net.link(c.edge.link_id).edges) for c in starts + ends)
        ceiling = len({nid for link in in_box for nid in (link.from_node, link.to_node)}) \
            + 2 * candidate_edges
        # 39 here, all used; testing both ends of every edge in the box made 474
        assert len(tests) <= ceiling
        assert sub.usable_links == _trim_every_edge(net, region, starts, ends)[1]

    def test_debug_dump_draws_the_rule_on_every_edge(self):
        # the dump draws the search graph: the rule's edges on the usable and
        # the candidate links, each once
        rng = np.random.default_rng(13)
        for _ in range(20):
            net, region, starts, ends = _random_trim_instance(rng)
            features = subgraph_geojson(build_subgraph(net, region, starts, ends))["features"]
            drawn = [(f["properties"]["link"], f["properties"]["edge"]) for f in features]
            assert len(drawn) == len(set(drawn))
            keys, usable = _trim_every_edge(net, region, starts, ends)
            links = usable | {c.edge.link_id for c in starts + ends}
            assert set(drawn) == {key for key in keys if key[0] in links}


def _drawn(sub):
    """The (link, edge) keys the subgraph's debug dump draws."""
    return {(f["properties"]["link"], f["properties"]["edge"])
            for f in subgraph_geojson(sub)["features"]}


def _random_trim_instance(rng):
    """A random network, candidates and an ellipse whose foci are candidate
    projections, as in matching, so candidate edges often cross its edge."""
    net, _, starts, ends = _random_instance(rng)
    foci = [_foot(c) for c in starts + ends]
    i, j = rng.integers(0, len(foci), size=2)
    region = ellipse_region(foci[i], foci[j], float(rng.uniform(1.0, 30.0)), 0.0, 60.0)
    starts = starts[:int(rng.integers(0, len(starts) + 1))]
    ends = ends[:int(rng.integers(0, len(ends) + 1))]
    return net, region, starts, ends


def _trim_every_edge(net, region, starts, ends):
    """The build_subgraph rule applied to every edge of the network."""
    points = {p for c in starts + ends for p in (c.edge.from_point, c.edge.to_point)}
    keys = set()
    for edge in (e for lid in net.link_ids for e in net.link(lid).edges):
        in_from = region.contains(edge.x0, edge.y0)
        in_to = region.contains(edge.x1, edge.y1)
        if (in_from and in_to) or (in_from and edge.from_point in points) \
                or (in_to and edge.to_point in points):
            keys.add(edge.key)
    usable = {lid for lid in net.link_ids
              if all(e.key in keys for e in net.link(lid).edges)}
    return keys, usable


def _single_candidates(net, start_key, start_off, end_key, end_off):
    return ([carried_candidate(net, start_key, start_off)],
            [carried_candidate(net, end_key, end_off)])


class TestKShortest:
    def test_straight_chain_single_path(self, chain_network):
        sub = SubGraph.whole(chain_network)
        starts, ends = _single_candidates(chain_network, (0, 1), 20.0, (2, 4), 30.0)
        paths = k_shortest_paths(sub, starts, ends, 6)
        assert len(paths) == 1
        # geodesic: (200 - 20) on link 0, 200 on link 1, 150+30 into link 2
        assert paths[0].length == pytest.approx((200 - 20) + 200 + (150 + 30))
        assert paths[0].link_ids == (0, 1, 2)
        assert paths[0].edges[0] == (0, 1)
        assert paths[0].edges[-1] == (2, 4)

    def test_same_edge_trivial_path(self, chain_network):
        sub = SubGraph.whole(chain_network)
        starts, ends = _single_candidates(chain_network, (1, 2), 10.0, (1, 2), 35.0)
        paths = k_shortest_paths(sub, starts, ends, 6)
        assert paths[0].length == pytest.approx(25.0)
        assert paths[0].edges == ((1, 2),)
        assert paths[0].link_ids == (1,)

    def test_stopped_vehicle_zero_length(self, chain_network):
        sub = SubGraph.whole(chain_network)
        starts, ends = _single_candidates(chain_network, (1, 2), 10.0, (1, 2), 10.0)
        paths = k_shortest_paths(sub, starts, ends, 6)
        assert paths[0].length == 0.0
        assert paths[0].edges == ((1, 2),)

    def test_disconnected_returns_empty(self):
        nodes = [(0, 0.0, 0.0), (1, 200.0, 0.0), (2, 600.0, 0.0), (3, 800.0, 0.0)]
        links = [(0, 0, 1, None, None), (1, 2, 3, None, None)]
        net = build_network(nodes, links)
        sub = SubGraph.whole(net)
        starts, ends = _single_candidates(net, (0, 1), 10.0, (1, 1), 10.0)
        assert k_shortest_paths(sub, starts, ends, 6) == []

    def test_budget_rule_values(self):
        assert candidate_path_budget(30.0) == 6
        assert candidate_path_budget(120.0) == 18
        assert candidate_path_budget(240.0) == 54
        assert candidate_path_budget(10_000.0) == 200   # cap
        assert candidate_path_budget(60.0) == 6

    def test_grid_matches_brute_force(self):
        # the uniform grid is full of exact ties, so across these budgets the
        # cut falls inside and at the edge of tie classes of every size
        net = _grid_4x4()
        sub = SubGraph.whole(net)
        starts, ends = _single_candidates(net, _westmost_link(net), 30.0,
                                          _eastmost_link(net), 60.0)
        full = enumerate_candidate_paths(sub, starts, ends)
        for budget in range(1, 13):
            assert_same_paths(k_shortest_paths(sub, starts, ends, budget), full[:budget])

    def test_sink_tree_ties_follow_push_order(self):
        # on the uniform grid most nodes have several cheapest ways to the two
        # end links. A cost drops only for a strictly cheaper way, equal heap
        # keys pop in push order, and the arcs into a node are walked source by
        # source, in the order the sources were first given arcs
        net = _grid_4x4()
        starts = [carried_candidate(net, _westmost_link(net), 30.0)]
        ends = [carried_candidate(net, _eastmost_link(net), 60.0),
                carried_candidate(net, _southeast_link(net), 60.0)]
        graph = path_search._SearchGraph(SubGraph.whole(net), starts, ends)
        cost, toward = graph.sink_tree()
        snk, src = path_search._SNK, path_search._SRC
        assert {node: graph.arc_dst[arc] for node, arc in toward.items()} == {
            11: snk, 14: snk, 7: 11, 10: 11, 15: 11, 13: 14, 3: 7, 6: 7, 9: 10, 12: 13,
            2: 3, 5: 6, 8: 9, 1: 2, 4: 5, 0: 1, src: 1}
        steps = {nid: min(abs(nid % 4 - 3) + abs(nid // 4 - 2),
                          abs(nid % 4 - 2) + abs(nid // 4 - 3)) for nid in range(16)}
        assert cost == {snk: 0.0, src: 1530.0,
                        **{nid: 60.0 + 300.0 * n for nid, n in steps.items()}}

    def test_random_graphs_match_brute_force(self):
        rng = np.random.default_rng(42)
        for trial in range(12):
            net, sub, starts, ends = _random_instance(rng)
            budget = int(rng.integers(1, 9))
            got = k_shortest_paths(sub, starts, ends, budget)
            expected = enumerate_candidate_paths(sub, starts, ends, budget=budget)
            assert_same_paths(got, expected)

    def test_random_graphs_match_brute_force_at_deeper_budgets(self):
        # at these budgets most spur entries are still deferred when the
        # search stops
        rng = np.random.default_rng(43)
        for trial in range(12):
            net, sub, starts, ends = _random_instance(rng)
            budget = int(rng.integers(9, 41))
            got = k_shortest_paths(sub, starts, ends, budget)
            assert_same_paths(got, enumerate_candidate_paths(sub, starts, ends, budget=budget))

    def test_spur_searches_are_lazy(self, monkeypatch):
        # jittered link lengths keep the ranking free of ties
        nodes, links = _grid_rows(5, np.random.default_rng(9))
        net = build_network(nodes, links, split_length=100.0)
        sub = SubGraph.whole(net)
        starts, ends = _single_candidates(net, _find_link(net, 0, 1), 30.0,
                                          _find_link(net, 23, 24), 60.0)
        calls = []
        dijkstra = path_search._SearchGraph.dijkstra
        monkeypatch.setattr(path_search._SearchGraph, "dijkstra",
                            lambda self, *args: calls.append(args) or dijkstra(self, *args))
        got = k_shortest_paths(sub, starts, ends, 30)
        assert_same_paths(got, enumerate_candidate_paths(sub, starts, ends, budget=30))
        # a search per deviation, run when the deviation is pooled, made 134
        # calls here; the lazy searches make 3
        assert len(calls) <= 3

    def test_tie_overrun_cap(self):
        # 70 equal monotone paths cross a uniform 5x5 grid corner to corner
        nodes, links = _grid_rows(5)
        nodes += [(25, -300.0, 0.0), (26, 1500.0, 1200.0)]
        links += [(len(links), 25, 0, 300.0, None), (len(links) + 1, 24, 26, 300.0, None)]
        net = build_network(nodes, links, split_length=100.0)
        sub = SubGraph.whole(net)
        starts, ends = _single_candidates(net, _find_link(net, 25, 0), 30.0,
                                          _find_link(net, 24, 26), 60.0)
        full = enumerate_candidate_paths(sub, starts, ends)
        ties = sum(p.length == full[0].length for p in full)
        assert ties == 70 > 1 + _TIE_OVERRUN
        for budget in range(1, ties - _TIE_OVERRUN):
            # the cap cuts the tie class short: any members may be kept
            got = k_shortest_paths(sub, starts, ends, budget)
            assert len(got) == budget == len({p.edges for p in got})
            assert all(p.length == full[0].length for p in got)
            for path in got:
                nodes_passed = [net.link(path.link_ids[0]).from_node]
                nodes_passed += [net.link(lid).to_node for lid in path.link_ids]
                assert len(set(nodes_passed)) == len(nodes_passed)
        for budget in (ties - _TIE_OVERRUN, ties - _TIE_OVERRUN + 1, 40, ties):
            assert_same_paths(k_shortest_paths(sub, starts, ends, budget), full[:budget])

    def test_output_is_prefix_of_full_ranking(self):
        rng = np.random.default_rng(7)
        net, sub, starts, ends = _random_instance(rng)
        full = enumerate_candidate_paths(sub, starts, ends)
        for budget in (1, 2, 3, 5, 8):
            got = k_shortest_paths(sub, starts, ends, budget)
            assert_same_paths(got, full[:budget])

    def test_paths_are_loopless_and_inside_subgraph(self):
        rng = np.random.default_rng(3)
        trimmed_paths = 0
        for _ in range(6):
            net, whole, starts, ends = _random_instance(rng)
            # foci at a start and an end projection, wide enough to keep some paths
            region = ellipse_region(_foot(starts[0]), _foot(ends[0]),
                                    float(rng.uniform(20.0, 60.0)), 0.0, 60.0)
            trimmed = build_subgraph(net, region, starts, ends)
            for sub in (whole, trimmed):
                for path in k_shortest_paths(sub, starts, ends, 10):
                    if path.n_links > 1:  # a same-link traversal needs no subgraph
                        trimmed_paths += sub is trimmed
                        for lid in path.link_ids:
                            passed = [i for link_id, i in path.edges if link_id == lid]
                            assert sub.segment_usable(lid, min(passed), max(passed))
                    nodes = [net.link(path.link_ids[0]).to_node]
                    for lid in path.link_ids[1:]:
                        nodes.append(net.link(lid).to_node)
                    interior_nodes = nodes[:-1]
                    assert len(set(interior_nodes)) == len(interior_nodes)
        assert trimmed_paths > 0

    def test_lengths_nondecreasing(self):
        rng = np.random.default_rng(5)
        net, sub, starts, ends = _random_instance(rng)
        paths = k_shortest_paths(sub, starts, ends, 12)
        lengths = [p.length for p in paths]
        assert lengths == sorted(lengths)

    def test_ellipse_only_restricts(self):
        net = _grid_4x4()
        starts, ends = _single_candidates(net, _westmost_link(net), 30.0,
                                          _eastmost_link(net), 60.0)
        region = ellipse_region(net_xy(net, 50.0, 0.0), net_xy(net, 850.0, 0.0),
                                4.0, 4.0, 240.0)
        trimmed = build_subgraph(net, region, starts, ends)
        inside = k_shortest_paths(trimmed, starts, ends, 8)
        unrestricted = {p.edges for p in k_shortest_paths(SubGraph.whole(net),
                                                          starts, ends, 50)}
        for path in inside:
            assert path.edges in unrestricted

    def test_rejects_zero_budget(self, chain_network):
        sub = SubGraph.whole(chain_network)
        starts, ends = _single_candidates(chain_network, (0, 1), 0.0, (0, 2), 0.0)
        with pytest.raises(ValueError):
            k_shortest_paths(sub, starts, ends, 0)

    def test_multiple_start_and_end_candidates(self):
        net = _grid_4x4()
        sub = SubGraph.whole(net)
        starts = [carried_candidate(net, _westmost_link(net), 30.0),
                  carried_candidate(net, _northwest_link(net), 10.0)]
        ends = [carried_candidate(net, _eastmost_link(net), 60.0),
                carried_candidate(net, _southeast_link(net), 90.0)]
        got = k_shortest_paths(sub, starts, ends, 10)
        expected = enumerate_candidate_paths(sub, starts, ends, budget=10)
        assert_same_paths(got, expected)

    def test_single_link_traversal_is_built_once(self, monkeypatch):
        # the same-link traversal comes out of the one search like any path:
        # at budget 1 it is the only path built, with no loop path beside it
        net = _grid_4x4()
        lid = _westmost_link(net)[0]
        starts, ends = _single_candidates(net, (lid, 1), 30.0, (lid, 2), 10.0)
        built = []
        candidate_path = path_search.CandidatePath
        monkeypatch.setattr(path_search, "CandidatePath",
                            lambda *args: built.append(args) or candidate_path(*args))
        got = k_shortest_paths(SubGraph.whole(net), starts, ends, 1)
        assert [(p.link_ids, p.edges, p.length) for p in got] == [
            ((lid,), ((lid, 1), (lid, 2)), 80.0)]
        assert len(built) == 1

    def test_random_graphs_with_a_shared_link_match_brute_force(self):
        # an end candidate forced onto a start candidate's link, ahead of it
        # or behind it, at one or two candidates a side
        rng = np.random.default_rng(44)
        one_link = 0
        for trial in range(20):
            net, sub, starts, ends = _random_instance(rng)
            link = net.link(starts[int(rng.integers(0, len(starts)))].edge.link_id)
            edge = link.edges[int(rng.integers(0, len(link.edges)))]
            forced = carried_candidate(net, edge.key, float(rng.uniform(0, edge.length)))
            # no two end candidates on one edge
            ends = [forced] + [c for c in ends[1:] if c.edge.key != edge.key]
            full = enumerate_candidate_paths(sub, starts, ends)
            for budget in range(1, 9):
                got = k_shortest_paths(sub, starts, ends, budget)
                assert_same_paths(got, full[:budget])
            one_link += any(p.n_links == 1 for p in k_shortest_paths(sub, starts, ends, 8))
        assert one_link > 0


def _grid_4x4():
    return build_network(*_grid_rows(4), split_length=100.0)


def _grid_rows(n, rng=None):
    """Two-way n x n grid with 300 m blocks. With ``rng``, each link's length
    is drawn from [240, 360] m instead, so that paths almost never tie."""
    nodes = [(r * n + c, c * 300.0, r * 300.0) for r in range(n) for c in range(n)]
    links = []
    for r in range(n):
        for c in range(n):
            nid = r * n + c
            for nb in ([nid + 1] if c + 1 < n else []) + ([nid + n] if r + 1 < n else []):
                for a, b in ((nid, nb), (nb, nid)):
                    length = 300.0 if rng is None else float(rng.uniform(240.0, 360.0))
                    links.append((len(links), a, b, length, None))
    return nodes, links


def _find_link(net, from_node, to_node):
    for lid in net.link_ids:
        link = net.link(lid)
        if (link.from_node, link.to_node) == (from_node, to_node):
            return (lid, 1)
    raise KeyError((from_node, to_node))


def _westmost_link(net):
    return _find_link(net, 0, 1)


def _eastmost_link(net):
    return _find_link(net, 14, 15)


def _northwest_link(net):
    return _find_link(net, 0, 4)


def _southeast_link(net):
    return _find_link(net, 11, 15)


def _foot(cand):
    """A candidate's projection point: ``offset`` along its edge."""
    edge, f = cand.edge, cand.offset / cand.edge.length
    return edge.x0 + f * (edge.x1 - edge.x0), edge.y0 + f * (edge.y1 - edge.y0)


def _random_instance(rng):
    """Sparse random digraph with continuous weights plus random candidates."""
    n_nodes = int(rng.integers(6, 13))
    coords = [(i, float(rng.uniform(0, 2000)), float(rng.uniform(0, 2000)))
              for i in range(n_nodes)]
    links = []
    lid = 0
    for a in range(n_nodes):
        out_degree = int(rng.integers(1, 4))
        targets = rng.permutation(n_nodes)[:out_degree]
        for b in targets:
            if int(b) == a:
                continue
            links.append((lid, a, int(b), float(rng.uniform(80.0, 900.0)), None))
            lid += 1
    net = build_network(coords, links, split_length=150.0)
    link_ids = list(net.link_ids)
    starts = []
    for pos in rng.choice(len(link_ids), size=int(rng.integers(1, 3)), replace=False):
        link = net.link(link_ids[pos])
        edge = link.edges[int(rng.integers(0, len(link.edges)))]
        starts.append(carried_candidate(net, edge.key,
                                        float(rng.uniform(0, edge.length))))
    ends = []
    for pos in rng.choice(len(link_ids), size=int(rng.integers(1, 3)), replace=False):
        link = net.link(link_ids[pos])
        edge = link.edges[int(rng.integers(0, len(link.edges)))]
        ends.append(carried_candidate(net, edge.key,
                                      float(rng.uniform(0, edge.length))))
    return net, SubGraph.whole(net), starts, ends
