import math

import numpy as np
import pytest

from mapfuse import network
from mapfuse.network import InputFormatError, load_network, load_network_csv, save_network_csv

from conftest import build_network, net_xy, random_digraph, two_grids


def test_split_lengths_follow_ceiling_rule():
    net = build_network([(0, 0.0, 0.0), (1, 130.0, 0.0)], [(0, 0, 1, 130.0, None)],
                        split_length=50.0)
    lengths = [e.length for e in net.link(0).edges]
    assert lengths == [50.0, 50.0, 30.0]


def test_single_edge_when_link_equals_split_length():
    net = build_network([(0, 0.0, 0.0), (1, 50.0, 0.0)], [(0, 0, 1, 50.0, None)],
                        split_length=50.0)
    assert [e.length for e in net.link(0).edges] == [50.0]


def test_degenerate_tail_is_merged():
    net = build_network([(0, 0.0, 0.0), (1, 100.0, 0.0)], [(0, 0, 1, 100.0000005, None)],
                        split_length=50.0)
    lengths = [e.length for e in net.link(0).edges]
    assert len(lengths) == 2
    assert lengths[0] == 50.0
    assert lengths[1] == pytest.approx(50.0000005)


def test_edge_limit_is_checked_before_a_link_is_split(monkeypatch):
    monkeypatch.setattr(network, "MAX_EDGES", 8)
    split = []
    split_link = network._split_link
    monkeypatch.setattr(network, "_split_link",
                        lambda length, step: split.append(length) or split_link(length, step))
    nodes = [(0, 0.0, 0.0), (1, 200.0, 0.0), (2, 400.0, 0.0)]
    links = [(0, 0, 1, 200.0, None), (1, 1, 2, 200.0, None)]
    assert len(_edges(build_network(nodes, links, split_length=50.0))) == 8
    split.clear()
    with pytest.raises(InputFormatError, match=r"link 1: split length 40.0 m .* 8 edges"):
        build_network(nodes, links, split_length=40.0)
    assert split == [200.0]   # link 1 was refused unsplit
    with pytest.raises(InputFormatError, match="link 0"):
        build_network(nodes, [(0, 0, 1, 1e300, None)], split_length=1e-9)


def test_edge_lengths_sum_exactly_to_link_length():
    for length in (130.0, 199.99, 50.0, 1234.567):
        net = build_network([(0, 0.0, 0.0), (1, length, 0.0)], [(0, 0, 1, length, None)])
        assert math.fsum(e.length for e in net.link(0).edges) == pytest.approx(length, abs=1e-9)
        for e in net.link(0).edges[:-1]:
            assert e.length == 50.0


def test_load_errors():
    nodes = [(0, 0.0, 0.0), (1, 100.0, 0.0)]
    with pytest.raises(InputFormatError):
        build_network(nodes, [(0, 0, 7, None, None)])  # dangling node
    with pytest.raises(InputFormatError):
        build_network(nodes, [(0, 0, 1, -5.0, None)])  # non-positive length
    with pytest.raises(InputFormatError):
        build_network(nodes, [(0, 0, 1, None, None), (0, 1, 0, None, None)])  # dup id
    with pytest.raises(InputFormatError):
        build_network(nodes, [(0, 0, 0, None, None)])  # self loop
    with pytest.raises(InputFormatError):
        build_network(nodes, [], split_length=50.0)  # no links


def test_explicit_length_and_bearing_win():
    net = build_network([(0, 0.0, 0.0), (1, 100.0, 0.0)], [(0, 0, 1, 150.0, 45.0)])
    assert net.link(0).length == 150.0
    assert net.link(0).bearing == 45.0


def test_bearing_from_geometry():
    net = build_network([(0, 0.0, 0.0), (1, 0.0, 250.0)], [(0, 0, 1, None, None)])
    assert net.link(0).bearing == pytest.approx(90.0, abs=1e-6)
    assert net.link(0).length == pytest.approx(250.0, abs=1e-6)


class TestSpectral:
    def test_two_connected_links(self):
        # two links sharing node 1: L = [[1,-1],[-1,1]], eigenvalues {0, 2} -> {0, 1}
        net = build_network([(0, 0.0, 0.0), (1, 100.0, 0.0), (2, 200.0, 0.0)],
                            [(0, 0, 1, None, None), (1, 1, 2, None, None)])
        assert net.laplacian_matrix().tolist() == [[1.0, -1.0], [-1.0, 1.0]]
        _, lam = net.laplacian_spectrum()
        assert sorted(lam.tolist()) == pytest.approx([0.0, 1.0])
        raw = np.linalg.eigvalsh(net.laplacian_matrix())
        assert sorted(raw.tolist()) == pytest.approx([0.0, 2.0])

    def test_disconnected_pair_has_double_zero(self):
        net = build_network(
            [(0, 0.0, 0.0), (1, 100.0, 0.0), (2, 0.0, 500.0), (3, 100.0, 500.0)],
            [(0, 0, 1, None, None), (1, 2, 3, None, None)])
        raw = np.linalg.eigvalsh(net.laplacian_matrix())
        assert np.sum(np.abs(raw) < 1e-9) == 2

    def test_adjacency_and_laplacian_invariants_random(self):
        net = _random_network(seed=7, n_nodes=14, n_links=30)
        lap = net.laplacian_matrix()
        assert np.array_equal(lap, lap.T)
        assert set(lap[~np.eye(len(lap), dtype=bool)].tolist()) <= {0.0, -1.0}  # -A
        assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-12)
        u, lam = net.laplacian_spectrum()
        assert np.max(np.abs(u.T @ u - np.eye(len(lam)))) < 1e-8
        assert lam.min() >= -1e-12 and lam.max() <= 1.0 + 1e-12

    def test_reconstruction_error(self):
        net = _random_network(seed=3, n_nodes=16, n_links=30)
        u, lam = net.laplacian_spectrum()
        raw = np.linalg.eigvalsh(net.laplacian_matrix())
        top = raw.max()
        lap_norm = net.laplacian_matrix() / top
        rebuilt = u @ np.diag(lam) @ u.T
        rel = np.linalg.norm(rebuilt - lap_norm) / np.linalg.norm(lap_norm)
        assert rel < 1e-6


    @pytest.mark.parametrize("seed", range(40))
    def test_laplacian_is_bitwise_the_dense_reference(self, seed):
        # random wiring plus two-way pairs and an isolated link, whose
        # diagonal entry must be +0.0 as np.diag(A.sum(1)) - A gives
        rng = np.random.default_rng(seed)
        n_nodes = int(rng.integers(2, 30))
        coords = [(i, float(rng.uniform(0, 3000)), float(rng.uniform(0, 3000)))
                  for i in range(n_nodes + 2)]
        links = []
        for _ in range(int(rng.integers(1, 60))):
            a, b = (int(v) for v in rng.choice(n_nodes, size=2, replace=False))
            links.append((len(links), a, b, None, None))
            if rng.random() < 0.3:
                links.append((len(links), b, a, None, None))
        links.append((len(links), n_nodes, n_nodes + 1, None, None))
        net = build_network(coords, links)
        n = net.n_links()
        adj = np.zeros((n, n))
        for i, li in enumerate(net.link_ids):
            for j, lj in enumerate(net.link_ids):
                ends_i = {net.link(li).from_node, net.link(li).to_node}
                if i != j and ends_i & {net.link(lj).from_node, net.link(lj).to_node}:
                    adj[i, j] = 1.0
        reference = np.diag(adj.sum(axis=1)) - adj
        assert net.laplacian_matrix().tobytes() == reference.tobytes()

    def test_size_limit_is_checked_before_the_eigendecomposition(self, monkeypatch):
        net = _random_network(seed=7, n_nodes=14, n_links=30)
        monkeypatch.setattr(network, "MAX_SPECTRAL_LINKS", 29)
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lambda *a: calls.append(a))
        with pytest.raises(InputFormatError, match="30 links .* limit of 29"):
            net.laplacian_spectrum()
        assert calls == []


def _random_network(seed, n_nodes, n_links, length_factor=None):
    """Random diagonal links; with ``length_factor`` each link's nominal
    length is that share of its chord, so its edges are drawn longer."""
    rng = np.random.default_rng(seed)
    coords = [(i, float(rng.uniform(0, 3000)), float(rng.uniform(0, 3000)))
              for i in range(n_nodes)]
    links = []
    lid = 0
    while lid < n_links:
        a, b = rng.integers(0, n_nodes, size=2)
        if a == b:
            continue
        length = None if length_factor is None else \
            length_factor * math.dist(coords[a][1:], coords[b][1:])
        links.append((lid, int(a), int(b), length, None))
        lid += 1
    return build_network(coords, links)


def _edges(net):
    """Every edge of the network, link by link: the linear scan."""
    return [e for lid in net.link_ids for e in net.link(lid).edges]


def test_spatial_index_returns_superset_of_true_hits():
    rng = np.random.default_rng(11)
    net = _random_network(seed=5, n_nodes=12, n_links=25)
    for _ in range(40):
        # the network's nodes were drawn from [0, 3000] before its frame was
        # centred on them
        x, y = net_xy(net, float(rng.uniform(-200, 3200)), float(rng.uniform(-200, 3200)))
        radius = float(rng.uniform(10, 600))
        got = {e.key for e in net.edges_near(x, y, radius)}
        for edge in _edges(net):  # linear scan oracle
            proj, _ = net.project_point_to_edge(x, y, edge)
            if proj.distance <= radius:
                assert edge.key in got


def _meets(edge, xmin, ymin, xmax, ymax):
    return (min(edge.x0, edge.x1) <= xmax and max(edge.x0, edge.x1) >= xmin
            and min(edge.y0, edge.y1) <= ymax and max(edge.y0, edge.y1) >= ymin)


@pytest.mark.parametrize("length_factor", [None, 0.1])
def test_grid_queries_return_each_linear_scan_hit_once(length_factor):
    # edges are filed at their midpoints only, so a query must widen its box
    # by their half-extent: check diagonal links, links drawn ten times their
    # nominal length, boxes on cell boundaries and boxes that only touch an end;
    # the network's frame is centred on its nodes, so it spans about ±1,500 m
    rng = np.random.default_rng(23)
    for seed in range(4):
        net = _random_network(seed, n_nodes=12, n_links=25, length_factor=length_factor)
        edges, c = _edges(net), net._grid.cell_size
        boxes = []
        for _ in range(30):
            i, j = (int(v) for v in rng.integers(-18, 18, size=2))
            w, h = (int(v) for v in rng.integers(0, 4, size=2))
            boxes.append((i * c, j * c, (i + w) * c, (j + h) * c))
            e = edges[int(rng.integers(len(edges)))]
            w, h = (float(v) for v in rng.uniform(0.0, 60.0, size=2))
            boxes += [(e.x1, e.y1, e.x1 + w, e.y1 + h), (e.x0 - w, e.y0 - h, e.x0, e.y0)]
        for box in boxes:
            got = net.edges_in_bbox(*box)
            assert len(set(map(id, got))) == len(got)
            assert {e.key for e in edges if _meets(e, *box)} <= {e.key for e in got}
        for _ in range(40):
            x, y = (float(v) for v in rng.uniform(-1800, 1800, size=2))
            radius = float(rng.uniform(1, 400))
            got = net.edges_near(x, y, radius)
            assert len(set(map(id, got))) == len(got)
            assert {e.key for e in edges
                    if net.project_point_to_edge(x, y, e)[0].distance <= radius} \
                <= {e.key for e in got}


def test_huge_query_costs_no_more_than_the_grid():
    # a query box far larger than the network walks only the occupied cells,
    # and returns what a box just covering the network returns
    net = _random_network(seed=5, n_nodes=12, n_links=25)
    xs = [v for e in _edges(net) for v in (e.x0, e.x1)]
    ys = [v for e in _edges(net) for v in (e.y0, e.y1)]
    cover = net.edges_in_bbox(min(xs), min(ys), max(xs), max(ys))
    assert {e.key for e in cover} == {e.key for e in _edges(net)}
    huge = net.edges_near(0.0, 0.0, 1e9)
    assert [e.key for e in huge] == [e.key for e in cover]
    assert net.edges_near(1e9, 1e9, 10.0) == []


def test_links_and_the_grid_share_edges_and_keys():
    # each query hands out the network's own Edge objects, each once, and
    # each link's keys name its own edges
    net = _random_network(seed=5, n_nodes=12, n_links=25)
    for lid in net.link_ids:
        link = net.link(lid)
        assert link.edge_keys == tuple(e.key for e in link.edges)
    everything = net.edges_in_bbox(-1e9, -1e9, 1e9, 1e9)
    assert sorted(map(id, everything)) == sorted(map(id, _edges(net)))
    some = net.edges_in_bbox(500.0, 800.0, 1900.0, 2100.0)
    assert 0 < len(some) < len(everything) and len(set(map(id, some))) == len(some)
    assert all(e is net.edge(e.key) for e in some)


def test_each_edge_is_filed_once_in_the_cell_of_its_midpoint():
    net = _random_network(seed=5, n_nodes=12, n_links=25, length_factor=0.5)
    c = net._grid.cell_size
    filed = []
    for (i, j), cell in net._grid._cells.items():
        for e in cell:
            assert (math.floor((e.x0 + e.x1) / 2 / c), math.floor((e.y0 + e.y1) / 2 / c)) == (i, j)
        filed += cell
    assert sorted(map(id, filed)) == sorted(map(id, _edges(net)))


def test_edges_are_immutable_and_equal_by_value(tmp_path):
    net = _random_network(seed=5, n_nodes=12, n_links=25)
    nodes_p, links_p = str(tmp_path / "nodes.csv"), str(tmp_path / "links.csv")
    save_network_csv(net, nodes_p, links_p)
    first, second = (load_network_csv(nodes_p, links_p, 50.0) for _ in range(2))
    edge = first.link(first.link_ids[0]).edges[0]
    with pytest.raises(AttributeError):
        edge.x0 = 0.0
    a, b = _edges(first), _edges(second)
    assert all(e is not f for e, f in zip(a, b))
    assert a == b
    assert [hash(e) for e in a] == [hash(e) for e in b]
    assert len(set(a) | set(b)) == len(a)


def test_csv_round_trip(tmp_path):
    net = build_network([(0, 0.0, 0.0), (1, 130.0, 0.0), (2, 130.0, 260.0)],
                        [(0, 0, 1, None, None), (1, 1, 2, None, None)])
    nodes_p = tmp_path / "nodes.csv"
    links_p = tmp_path / "links.csv"
    save_network_csv(net, str(nodes_p), str(links_p))
    again = load_network_csv(str(nodes_p), str(links_p), 50.0)
    assert again.link_ids == net.link_ids
    for lid in net.link_ids:
        assert again.link(lid).length == pytest.approx(net.link(lid).length, abs=1e-5)
        assert [e.length for e in again.link(lid).edges] == \
            pytest.approx([e.length for e in net.link(lid).edges], abs=1e-5)


def test_csv_header_required(tmp_path):
    bad = tmp_path / "nodes.csv"
    bad.write_text("")
    with pytest.raises(InputFormatError):
        load_network_csv(str(bad), str(bad), 50.0)


@pytest.mark.parametrize("header, tail", [("link_id,from_node,to_node", ""),
                                          ("link_id,from_node,to_node,length_m,bearing_deg",
                                           ",,")])
def test_links_without_length_or_bearing_take_them_from_geometry(tmp_path, header, tail):
    net = build_network([(0, 0.0, 0.0), (1, 130.0, 0.0), (2, 130.0, 260.0)],
                        [(0, 0, 1, None, None), (1, 1, 2, None, None), (2, 2, 0, None, None)])
    nodes_p, links_p, bare_p = (str(tmp_path / name) for name in ("n.csv", "l.csv", "b.csv"))
    save_network_csv(net, nodes_p, links_p)
    with open(bare_p, "w", encoding="utf-8") as fh:
        fh.write(header + "\n" + "".join(f"{lid},{link.from_node},{link.to_node}{tail}\n"
                                        for lid, link in net.links.items()))
    explicit = load_network_csv(nodes_p, links_p, 50.0)
    bare = load_network_csv(nodes_p, bare_p, 50.0)
    assert bare.link_ids == explicit.link_ids
    # the node file rounds coordinates to 1e-8 degrees, about a millimetre
    for lid in explicit.link_ids:
        assert bare.link(lid).length == pytest.approx(explicit.link(lid).length, abs=5e-3)
        assert bare.link(lid).bearing == pytest.approx(explicit.link(lid).bearing, abs=1e-3)
        assert len(bare.link(lid).edges) == len(explicit.link(lid).edges)


def _cheapest_by_enumeration(net, src, dst, cost):
    """The least cost of any loopless route from ``src`` to ``dst``, or None."""
    leaving = {}
    for link in net.links.values():
        leaving.setdefault(link.from_node, []).append(link)
    best = None

    def walk(node, seen, total):
        nonlocal best
        if node == dst:
            best = total if best is None else min(best, total)
            return
        for link in leaving.get(node, ()):
            if link.to_node not in seen:
                walk(link.to_node, seen | {link.to_node}, total + cost(link))

    walk(src, {src}, 0.0)
    return best


def test_route_is_a_cheapest_loopless_route():
    rng = np.random.default_rng(23)
    for _ in range(30):
        net = build_network(*random_digraph(rng))
        per_link = {lid: float(rng.choice([1.0, 2.0, 3.0])) for lid in net.link_ids}
        for cost in (lambda link: link.length, lambda link: per_link[link.id]):
            for src in net.nodes:
                for dst in net.nodes:
                    best = _cheapest_by_enumeration(net, src, dst, cost)
                    got = net.route(src, dst, cost)
                    if best is None:
                        assert got is None
                        continue
                    nodes = [src] + [net.link(lid).to_node for lid in got]
                    assert [net.link(lid).from_node for lid in got] == nodes[:-1]
                    assert nodes[-1] == dst and len(set(nodes)) == len(nodes)
                    assert sum(cost(net.link(lid)) for lid in got) == best


@pytest.mark.parametrize("first", [1, 2])
def test_route_ties_go_to_the_lower_link_id(first):
    # two 200 m routes from node 0 to node 3; the one through ``first`` leaves by link 0
    other = 3 - first
    nodes = [(0, 0.0, 0.0), (1, 100.0, 100.0), (2, 100.0, -100.0), (3, 200.0, 0.0)]
    links = [(0, 0, first, 100.0, None), (1, 0, other, 100.0, None),
             (2, other, 3, 100.0, None), (3, first, 3, 100.0, None)]
    net = build_network(nodes, links)
    assert "route_tables" not in vars(net)  # the tables are built on first use
    assert net.route(0, 3, lambda link: link.length) == [0, 3]


def test_route_asks_cost_only_of_the_links_it_scans():
    # a route across the near 5 x 5 grid; a cost asked of every link would
    # count the disconnected far side's links as well
    counts = []
    for far_side in (2, 30):
        net = two_grids(far_side)
        asked = []
        route = net.route(0, 19, lambda link: asked.append(link.id) or link.length)
        assert len(route) == 7  # three links north, four east
        assert (net.link(route[0]).from_node, net.link(route[-1]).to_node) == (0, 19)
        counts.append(len(asked))
    assert counts[0] == counts[1] > 0
