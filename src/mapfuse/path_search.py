"""Candidate projection edges, reachability ellipse, and top-K path search.

Between two probes the search runs on the intersection-node graph: links are
arcs, and partial traversals of the anchor links enter through virtual
source/sink connectors weighted by the projection offsets. Subdivision nodes
never branch, so this is exactly equivalent to searching edge by edge while
being several times smaller.

The top-K search is Yen's with lazy spur searches: one shortest-path tree
towards the sink bounds each deviation from below, a deviation is searched
only when that bound reaches the head of the pool, and the tree itself is
the answer whenever its path avoids the deviation's root. The result is the
eager search's, except where a tie class at the K-th length is larger than
the overrun cap: then both return paths of the same lengths, but may keep
different members of the class.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import repeat
from typing import Container, Iterable, Sequence

from .geometry import bearing_inclination
from .network import Edge, EdgeKey, RoadNetwork

_SRC = "SRC"
_SNK = "SNK"

# Paths whose lengths differ by less than this are treated as exact ties
# when deciding how far past K the enumeration must look.
_TIE_EPS = 1e-6
# How many paths beyond K may be enumerated to resolve a boundary tie class.
_TIE_OVERRUN = 64


@dataclass(frozen=True)
class CandidateEdge:
    """An edge a probe may project onto."""

    edge: Edge
    x: float            # projection point (planar)
    y: float
    offset: float       # nominal meters from the edge start
    distance: float     # perpendicular distance probe -> projection

    @property
    def link_offset(self) -> float:
        """Offset of the projection from the link start."""
        return self.edge.start_offset + self.offset


def carried_candidate(network: RoadNetwork, key: EdgeKey, offset: float) -> CandidateEdge:
    """Candidate for an already-inferred edge (cursor carried forward)."""
    edge = network.edge(key)
    offset = min(max(offset, 0.0), edge.length)
    f = offset / edge.length if edge.length > 0 else 0.0
    return CandidateEdge(edge, edge.x0 + f * (edge.x1 - edge.x0),
                         edge.y0 + f * (edge.y1 - edge.y0), offset, 0.0)


def find_candidate_edges(x: float, y: float, bearing: float,
                         network: RoadNetwork, radius: float) -> list[CandidateEdge]:
    """Edges the probe at (x, y) may legally project onto.

    Per link the probe projects a single point: the perpendicular foot on
    the link. Links whose foot falls beyond their extent have no projection
    point and are never candidates; without this, every probe approaching an
    intersection also "projects" onto the links leaving it, which are pure
    phantoms. The containing edge is the nearer of the edge holding the
    foot's nominal offset and its neighbour across the nearer boundary (the
    earlier edge on a tie). It is a candidate when the foot is within the
    vicinity radius, the probe bearing deviates from the link direction by
    less than 90 degrees, and at least one of the edge's side nodes is
    itself within the radius.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    out = []
    for link_id in {edge.link_id for edge in network.edges_near(x, y, radius)}:
        link = network.link(link_id)
        if bearing_inclination(bearing, link.bearing) >= 90.0:
            continue
        ldx = link.x1 - link.x0
        ldy = link.y1 - link.y0
        norm2 = ldx * ldx + ldy * ldy
        t = ((x - link.x0) * ldx + (y - link.y0) * ldy) / norm2 if norm2 > 0.0 else 0.0
        if t < 0.0 or t > 1.0:
            continue  # foot beyond the link: no projection point
        # at a boundary rounding may put the foot on either edge: try both
        foot = t * link.length
        i = bisect_right(link.edges, foot, key=lambda e: e.start_offset) - 1
        if 2.0 * (foot - link.edges[i].start_offset) < link.edges[i].length:
            i -= 1  # nearer the start: the neighbour is the edge before
        cand = None
        for edge in link.edges[max(i, 0):i + 2]:
            proj, offset = network.project_point_to_edge(x, y, edge)
            if cand is None or proj.distance < cand.distance:
                cand = CandidateEdge(edge, proj.x, proj.y, offset, proj.distance)
        edge = cand.edge
        if cand.distance <= radius and (math.hypot(edge.x0 - x, edge.y0 - y) <= radius
                                        or math.hypot(edge.x1 - x, edge.y1 - y) <= radius):
            out.append(cand)
    out.sort(key=lambda c: (c.distance, c.edge.link_id))
    return out


@dataclass(frozen=True)
class EllipseRegion:
    """Reachable region between two probes: foci plus long-axis length."""

    fx0: float
    fy0: float
    fx1: float
    fy1: float
    long_axis: float

    def contains(self, x: float, y: float) -> bool:
        return (math.hypot(x - self.fx0, y - self.fy0)
                + math.hypot(x - self.fx1, y - self.fy1)) <= self.long_axis

    def bbox(self) -> tuple[float, float, float, float]:
        half = self.long_axis / 2.0
        cx = (self.fx0 + self.fx1) / 2.0
        cy = (self.fy0 + self.fy1) / 2.0
        return cx - half, cy - half, cx + half, cy + half


def ellipse_region(p_prev: tuple[float, float], p_cur: tuple[float, float],
                   v_prev: float, v_cur: float, dt: float) -> EllipseRegion:
    """Reachability ellipse with the probes as foci.

    Long axis is the larger of the max-speed travel budget and twice the
    focal distance; the floor keeps the region non-degenerate when the
    probes are far apart relative to their speeds.
    """
    if dt <= 0:
        raise ValueError("probe gap must be positive")
    focal = math.hypot(p_cur[0] - p_prev[0], p_cur[1] - p_prev[1])
    axis = max(max(v_prev, v_cur) * dt, 2.0 * focal)
    return EllipseRegion(p_prev[0], p_prev[1], p_cur[0], p_cur[1], axis)


@dataclass(frozen=True)
class SubGraph:
    """Edges of the network usable between two probes."""

    network: RoadNetwork
    edge_keys: frozenset[EdgeKey]
    usable_links: frozenset[int]

    @classmethod
    def whole(cls, network: RoadNetwork) -> "SubGraph":
        keys = frozenset(e.key for e in network.iter_edges())
        return cls(network, keys, frozenset(network.link_ids))

    def segment_usable(self, link_id: int, first_index: int, last_index: int) -> bool:
        return all((link_id, i) in self.edge_keys for i in range(first_index, last_index + 1))


def build_subgraph(network: RoadNetwork, region: EllipseRegion,
                   start_candidates: Sequence[CandidateEdge],
                   end_candidates: Sequence[CandidateEdge]) -> SubGraph:
    """Trim the network to the reachability region.

    An edge stays when both side nodes are inside, or when one side node
    belongs to a candidate edge and that node is inside. A link is usable
    end to end only when all of its edges stay. Only the edges in the
    region's bbox and the links that own a kept edge are visited, so the
    cost follows the bbox, not the size of the network.
    """
    candidate_points = set()
    for cand in list(start_candidates) + list(end_candidates):
        candidate_points.add(cand.edge.from_point)
        candidate_points.add(cand.edge.to_point)
    kept: set[EdgeKey] = set()
    xmin, ymin, xmax, ymax = region.bbox()
    for edge in network.edges_in_bbox(xmin, ymin, xmax, ymax):
        in_from = region.contains(edge.x0, edge.y0)
        in_to = region.contains(edge.x1, edge.y1)
        if in_from and in_to:
            kept.add(edge.key)
        elif (in_from and edge.from_point in candidate_points) or \
             (in_to and edge.to_point in candidate_points):
            kept.add(edge.key)
    usable = set()
    for lid in {key[0] for key in kept}:
        if all((lid, i) in kept for i in range(1, len(network.link(lid).edges) + 1)):
            usable.add(lid)
    return SubGraph(network, frozenset(kept), frozenset(usable))


@dataclass(frozen=True)
class CandidatePath:
    """A loopless directed path between two projection points."""

    start: CandidateEdge
    end: CandidateEdge
    link_ids: tuple[int, ...]       # every link passed, in order
    edges: tuple[EdgeKey, ...]      # every edge passed, in order
    length: float                   # traveled meters, projection to projection

    @property
    def n_links(self) -> int:
        return len(self.link_ids)

    @property
    def sort_key(self) -> tuple[float, int, tuple[EdgeKey, ...]]:
        return (self.length, self.n_links, self.edges)

    @property
    def end_edge(self) -> EdgeKey:
        return self.end.edge.key


def candidate_path_budget(probe_interval: float, floor: int = 6, cap: int = 200) -> int:
    """How many candidate paths to search for a given probing interval."""
    k = int(round(max(0.3 * probe_interval - 18.0, float(floor))))
    return max(floor, min(k, cap))


# -- search graph ------------------------------------------------------------

class _SearchGraph:
    """Node-level graph with virtual per-candidate connectors."""

    def __init__(self, subgraph: SubGraph,
                 start_candidates: Sequence[CandidateEdge],
                 end_candidates: Sequence[CandidateEdge]):
        net = subgraph.network
        self.network = net
        self.subgraph = subgraph
        self.start_candidates = list(start_candidates)
        self.end_candidates = list(end_candidates)
        self.arc_dst: list[object] = []
        self.arc_weight: list[float] = []
        self.arc_kind: list[str] = []      # "link" | "start" | "end" | "hop"
        self.arc_payload: list[object] = []
        self.adj: dict[object, list[int]] = {}

        for lid in sorted(subgraph.usable_links):
            link = net.link(lid)
            self._add_arc(link.from_node, link.to_node, link.length, "link", lid)
        for i, cand in enumerate(self.start_candidates):
            link = net.link(cand.edge.link_id)
            if not subgraph.segment_usable(link.id, cand.edge.index, len(link.edges)):
                continue
            remaining = link.length - cand.link_offset
            node = ("s", i)
            self._add_arc(_SRC, node, remaining, "start", i)
            self._add_arc(node, link.to_node, 0.0, "hop", None)
        for j, cand in enumerate(self.end_candidates):
            link = net.link(cand.edge.link_id)
            if not subgraph.segment_usable(link.id, 1, cand.edge.index):
                continue
            node = ("e", j)
            self._add_arc(link.from_node, node, cand.link_offset, "end", j)
            self._add_arc(node, _SNK, 0.0, "hop", None)

    def _add_arc(self, src, dst, weight, kind, payload) -> None:
        arc = len(self.arc_dst)
        self.arc_dst.append(dst)
        self.arc_weight.append(weight)
        self.arc_kind.append(kind)
        self.arc_payload.append(payload)
        self.adj.setdefault(src, []).append(arc)

    def dijkstra(self, source, removed_arcs: Container[int], removed_nodes: set) -> tuple[float, list[int]] | None:
        """Cheapest arc path from ``source`` to the sink, or None."""
        heap: list[tuple[float, int, object]] = [(0.0, 0, source)]
        parent: dict[object, tuple[object, int]] = {}
        dist = {source: 0.0}
        done = set()
        counter = 1
        adj = self.adj
        arc_dst = self.arc_dst
        arc_weight = self.arc_weight
        while heap:
            d, _, node = heappop(heap)
            if node in done:
                continue
            if node == _SNK:
                arcs: list[int] = []
                cur = node
                while cur != source:
                    prev, arc = parent[cur]
                    arcs.append(arc)
                    cur = prev
                arcs.reverse()
                return d, arcs
            done.add(node)
            for arc in adj.get(node, ()):
                if arc in removed_arcs:
                    continue
                dst = arc_dst[arc]
                if dst in removed_nodes or dst in done:
                    continue
                nd = d + arc_weight[arc]
                if nd < dist.get(dst, math.inf):
                    dist[dst] = nd
                    parent[dst] = (node, arc)
                    heappush(heap, (nd, counter, dst))
                    counter += 1
        return None

    def sink_tree(self) -> tuple[dict[object, float], dict[object, int]]:
        """Per node that reaches the sink: its cost to the sink and the first
        arc of a cheapest way there (one Dijkstra over the reversed arcs)."""
        into: dict[object, list[tuple[object, int]]] = {}
        for src, arcs in self.adj.items():
            for arc in arcs:
                into.setdefault(self.arc_dst[arc], []).append((src, arc))
        heap: list[tuple[float, int, object]] = [(0.0, 0, _SNK)]
        cost: dict[object, float] = {_SNK: 0.0}
        toward: dict[object, int] = {}
        counter = 1
        arc_weight = self.arc_weight
        while heap:
            d, _, node = heappop(heap)
            if d > cost[node]:
                continue  # a stale entry: the node was settled cheaper
            for src, arc in into.get(node, ()):
                nd = d + arc_weight[arc]
                if nd < cost.get(src, math.inf):
                    cost[src] = nd
                    toward[src] = arc
                    heappush(heap, (nd, counter, src))
                    counter += 1
        return cost, toward

    def node_sequence(self, arcs: Sequence[int]) -> list[object]:
        nodes = [_SRC]
        for arc in arcs:
            nodes.append(self.arc_dst[arc])
        return nodes

    def to_candidate_path(self, arcs: Sequence[int]) -> CandidatePath:
        net = self.network
        start = end = None
        link_ids: list[int] = []
        edges: list[EdgeKey] = []
        for arc in arcs:
            kind = self.arc_kind[arc]
            if kind == "hop":
                continue
            if kind == "start":
                start = self.start_candidates[self.arc_payload[arc]]
                lid = start.edge.link_id
                first, last = start.edge.index, len(net.link(lid).edges)
            elif kind == "link":
                lid = self.arc_payload[arc]
                first, last = 1, len(net.link(lid).edges)
            else:  # end
                end = self.end_candidates[self.arc_payload[arc]]
                lid = end.edge.link_id
                first, last = 1, end.edge.index
            link_ids.append(lid)
            edges.extend(zip(repeat(lid), range(first, last + 1)))
        assert start is not None and end is not None
        length = math.fsum(self.arc_weight[a] for a in arcs)
        return CandidatePath(start, end, tuple(link_ids), tuple(edges), length)


def _trivial_paths(start_candidates: Sequence[CandidateEdge],
                   end_candidates: Sequence[CandidateEdge],
                   network: RoadNetwork) -> list[CandidatePath]:
    """Forward partial traversals of a single link (no intersection crossed).

    These cannot be expressed on the node graph and cover the common case of
    consecutive probes on the same link, including a stopped vehicle.
    """
    out = []
    for sc in start_candidates:
        for ec in end_candidates:
            if sc.edge.link_id != ec.edge.link_id:
                continue
            if ec.link_offset < sc.link_offset:
                continue
            link = network.link(sc.edge.link_id)
            edges = tuple(e.key for e in link.edges[sc.edge.index - 1:ec.edge.index])
            out.append(CandidatePath(sc, ec, (link.id,), edges,
                                     ec.link_offset - sc.link_offset))
    return out


def _yen(graph: _SearchGraph, budget: int) -> list[tuple[float, tuple[int, ...]]]:
    """Loopless shortest arc paths from source to sink, cheapest first.

    Enumerates up to ``budget`` paths plus whatever is needed to finish the
    tie class at the boundary, within a fixed overrun. Spur searches are
    lazy: one shortest-path tree towards the sink gives ``h(v)``, the cost
    from ``v`` to the sink, and a spur enters the pool keyed by its prefix
    cost plus the least ``w(a) + h(head of a)`` over its allowed arcs, less
    ``_TIE_EPS`` so that rounding never lifts a key above the spur's cost.
    Its search runs only when it reaches the head of the pool; when the tree
    path behind the best arc avoids the root and the spur node, that path is
    the spur and no search runs at all. A resolved spur keeps the place in
    line of its lazy entry, so equal-cost paths leave the pool in the order
    their deviations entered it. Only where the overrun cap cuts a tie class
    short may the members kept differ from an eager search's (one search per
    deviation as it is pooled), never their lengths.
    """
    h, toward_sink = graph.sink_tree()
    if _SRC not in h:
        return []
    adj, arc_dst, arc_weight = graph.adj, graph.arc_dst, graph.arc_weight

    def tree_path(arc: int, avoid: Container) -> tuple[float, list[int]] | None:
        """``arc``, then the tree's way to the sink, costed as dijkstra does;
        None when that way enters ``avoid``."""
        arcs, cost = [arc], arc_weight[arc]
        while arc_dst[arcs[-1]] != _SNK:
            if arc_dst[arcs[-1]] in avoid:
                return None
            arcs.append(toward_sink[arc_dst[arcs[-1]]])
            cost += arc_weight[arcs[-1]]
        return cost, arcs

    first = tree_path(toward_sink[_SRC], ())
    selected: list[tuple[float, tuple[int, ...]]] = []
    # (key, order, arcs, spur index, None when resolved or the lazy spur's
    # (removed arcs, best arc, prefix cost))
    pool: list[tuple[float, int, tuple[int, ...], int, tuple | None]] = [
        (first[0], 0, tuple(first[1]), 0, None)]
    seen = {tuple(first[1])}
    counter = 0
    tree: dict[int, dict] = {}  # prefix tree of the selected paths, one level per arc
    kth = math.inf

    while pool:
        if pool[0][0] > kth + _TIE_EPS or len(selected) >= budget + _TIE_OVERRUN:
            break
        key, order, arcs_p, index, lazy = heappop(pool)
        node_seq = graph.node_sequence(arcs_p)
        if lazy is not None:
            removed_arcs, best, prefix_cost = lazy
            root = set(node_seq[:index + 1])
            spur = tree_path(best, root) or graph.dijkstra(
                node_seq[index], removed_arcs, root - {node_seq[index]})
            if spur is not None and (total := arcs_p[:index] + tuple(spur[1])) not in seen:
                seen.add(total)
                heappush(pool, (prefix_cost + spur[0], order, total, index, None))
            continue
        selected.append((key, arcs_p))
        if len(selected) >= budget:
            kth = sorted(c for c, _ in selected)[budget - 1]
        branch = tree
        for arc in arcs_p:
            branch = branch.setdefault(arc, {})
        at = {node: i for i, node in enumerate(node_seq)}
        prefix_cost = 0.0
        branch = tree
        for i in range(len(arcs_p) - 1):
            if i > 0:
                prefix_cost += arc_weight[arcs_p[i - 1]]
                branch = branch[arcs_p[i - 1]]
            if i < index:
                continue  # Lawler: deviations before the parent's own spur are covered
            # the removed arcs are the next arcs of the selected paths sharing the root
            bound, best = math.inf, None
            for a in adj.get(node_seq[i], ()):
                if a not in branch and at.get(arc_dst[a], i) >= i:
                    b = arc_weight[a] + h.get(arc_dst[a], math.inf)
                    if b < bound:
                        bound, best = b, a
            if best is not None:
                counter += 1
                heappush(pool, (prefix_cost + bound - _TIE_EPS, counter, arcs_p, i,
                                (frozenset(branch), best, prefix_cost)))
    return selected


def k_shortest_paths(subgraph: SubGraph,
                     start_candidates: Sequence[CandidateEdge],
                     end_candidates: Sequence[CandidateEdge],
                     budget: int) -> list[CandidatePath]:
    """Up to ``budget`` loopless candidate paths, shortest first.

    Paths run from any start projection to any end projection. Ordering is
    by traveled length, then link count, then lexicographic edge ids; the
    result never contains two paths with the same edge sequence.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    paths = _trivial_paths(start_candidates, end_candidates, subgraph.network)
    graph = _SearchGraph(subgraph, start_candidates, end_candidates)
    for _, arcs in _yen(graph, budget):
        paths.append(graph.to_candidate_path(arcs))
    unique: dict[tuple[EdgeKey, ...], CandidatePath] = {}
    for path in paths:
        prev = unique.get(path.edges)
        if prev is None or path.sort_key < prev.sort_key:
            unique[path.edges] = path
    ranked = sorted(unique.values(), key=lambda p: p.sort_key)
    return ranked[:budget]


# -- debug dumps ---------------------------------------------------------------

def line_feature(network: RoadNetwork, keys: Sequence[EdgeKey], properties: dict) -> dict:
    """GeoJSON LineString feature through consecutive edges, in lon/lat."""
    proj = network.projector
    edges = [network.edge(key) for key in keys]
    coords = [list(proj.to_lonlat(edges[0].x0, edges[0].y0))]
    coords += [list(proj.to_lonlat(edge.x1, edge.y1)) for edge in edges]
    return {"type": "Feature", "geometry": {"type": "LineString", "coordinates": coords},
            "properties": properties}


def subgraph_geojson(subgraph: SubGraph) -> dict:
    features = [line_feature(subgraph.network, [key], {"link": key[0], "edge": key[1]})
                for key in sorted(subgraph.edge_keys)]
    return {"type": "FeatureCollection", "features": features}


def paths_geojson(network: RoadNetwork, paths: Iterable[CandidatePath]) -> dict:
    features = [line_feature(network, path.edges,
                             {"rank": rank, "length_m": round(path.length, 3),
                              "links": len(path.link_ids)})
                for rank, path in enumerate(paths)]
    return {"type": "FeatureCollection", "features": features}
