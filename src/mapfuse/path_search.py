"""Candidate projection edges, reachability ellipse, and top-K path search.

Between two probes the search runs on the intersection-node graph: links are
arcs, and the partial traversals of the anchor links are arcs out of a source
and into a sink, weighted by the projection offsets. Subdivision nodes never
branch, so this is exactly equivalent to searching edge by edge while being
several times smaller.

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
from typing import Container, Iterable, Sequence

from .geometry import bearing_inclination
from .network import Edge, EdgeKey, RoadNetwork, dijkstra

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
    offset: float       # nominal meters from the edge start
    distance: float     # perpendicular distance probe -> projection

    @property
    def link_offset(self) -> float:
        """Offset of the projection from the link start."""
        return self.edge.start_offset + self.offset


def carried_candidate(network: RoadNetwork, key: EdgeKey, offset: float) -> CandidateEdge:
    """Candidate for an already-inferred edge (cursor carried forward)."""
    edge = network.edge(key)
    return CandidateEdge(edge, min(max(offset, 0.0), edge.length), 0.0)


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
                cand = CandidateEdge(edge, offset, proj.distance)
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
    """What the path search may pass between two probes: the links usable
    end to end, and ``kept``, the kept edges of the candidate links, which
    ``segment_usable`` reads for the partial traversals at either end."""

    network: RoadNetwork
    usable_links: frozenset[int]
    kept: frozenset[EdgeKey] = frozenset()

    @classmethod
    def whole(cls, network: RoadNetwork) -> "SubGraph":
        return cls(network, frozenset(network.link_ids))

    def segment_usable(self, link_id: int, first_index: int, last_index: int) -> bool:
        """Whether edges ``first_index``..``last_index`` of a usable or a
        candidate link are all kept."""
        return link_id in self.usable_links or all(
            (link_id, i) in self.kept for i in range(first_index, last_index + 1))


def _edge_kept(region: EllipseRegion, points: Container, edge: Edge) -> bool:
    """The per-edge rule: both side points inside, or one side point inside
    that is a candidate edge's side point. ``build_subgraph`` applies it edge
    by edge to the candidate links only."""
    in_from = region.contains(edge.x0, edge.y0)
    in_to = region.contains(edge.x1, edge.y1)
    return (in_from and (in_to or edge.from_point in points)) or \
        (in_to and edge.to_point in points)


def build_subgraph(network: RoadNetwork, region: EllipseRegion,
                   start_candidates: Sequence[CandidateEdge],
                   end_candidates: Sequence[CandidateEdge]) -> SubGraph:
    """Trim the network to the reachability region, link by link.

    Edges follow one rule (``_edge_kept``), and a link is usable end to end
    when all of its edges are kept. Links are straight, their edges
    interpolate them and the ellipse is convex, so for a link that holds no
    candidate edge that comes down to its end nodes: it is usable when both
    are inside, or when it has one edge and an inside end node is a
    candidate's side point. Each end node is tested once per call. A
    candidate link applies the edge rule to its own edges, since the search
    may pass part of it; any other link is passed whole or not at all, so
    the kept edges of an unusable one are not recorded. Only the links that
    own an edge in the region's bbox are visited, so the cost follows the
    bbox, not the size of the network.
    """
    points, candidate_links = set(), set()
    for cand in (*start_candidates, *end_candidates):
        points.update((cand.edge.from_point, cand.edge.to_point))
        candidate_links.add(cand.edge.link_id)
    nodes = network.nodes
    inside: dict[int, bool] = {}
    kept: list[EdgeKey] = []
    usable = []
    for lid in {edge.link_id for edge in network.edges_in_bbox(*region.bbox())}:
        link = network.link(lid)
        if lid in candidate_links:
            keys = [k for k, e in zip(link.edge_keys, link.edges) if _edge_kept(region, points, e)]
            kept += keys
            if len(keys) == len(link.edges):
                usable.append(lid)
            continue
        a, b = link.from_node, link.to_node
        for nid in (a, b):
            if nid not in inside:
                inside[nid] = region.contains(nodes[nid].x, nodes[nid].y)
        in_a, in_b = inside[a], inside[b]
        if (in_a and in_b) or (len(link.edges) == 1 and ((in_a and a in points)
                                                         or (in_b and b in points))):
            usable.append(lid)
    return SubGraph(network, frozenset(usable), frozenset(kept))


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


def path_edges(network: RoadNetwork, link_ids: Sequence[int], first: int,
               last: int) -> tuple[EdgeKey, ...]:
    """The edge keys along ``link_ids``, from edge ``first`` (1-based) of the first
    link to edge ``last`` of the last, or within the one link when there is only one."""
    link = network.link
    if len(link_ids) == 1:
        return link(link_ids[0]).edge_keys[first - 1:last]
    keys = list(link(link_ids[0]).edge_keys[first - 1:])
    for lid in link_ids[1:-1]:
        keys += link(lid).edge_keys
    keys += link(link_ids[-1]).edge_keys[:last]
    return tuple(keys)


def candidate_path_budget(probe_interval: float, floor: int = 6, cap: int = 200) -> int:
    """How many candidate paths to search for a given probing interval."""
    k = int(round(max(0.3 * probe_interval - 18.0, float(floor))))
    return max(floor, min(k, cap))


# -- search graph ------------------------------------------------------------

class _SearchGraph:
    """Node-level graph: a usable link is an arc (payload: its id), a start
    candidate an arc from the source to its link's end node, an end candidate
    one from its link's start node to the sink (payload: the candidate), and
    a forward same-link pair one from the source to the sink (payload: the
    pair). Each weighs the part of its link that it covers.

    A start arc may weigh an ulp below zero, which ``dijkstra`` tolerates:
    no arc enters ``_SRC``, so forwards such an arc only leaves the source,
    and backwards it only reaches a node with no arc on."""

    def __init__(self, subgraph: SubGraph,
                 start_candidates: Sequence[CandidateEdge],
                 end_candidates: Sequence[CandidateEdge]):
        self.network = net = subgraph.network
        self.arc_src: list[object] = []
        self.arc_dst: list[object] = []
        self.arc_weight: list[float] = []
        self.arc_payload: list[object] = []
        self.adj: dict[object, list[int]] = {}

        for lid in sorted(subgraph.usable_links):
            link = net.link(lid)
            self._add_arc(link.from_node, link.to_node, link.length, lid)
        for cand in start_candidates:
            link = net.link(cand.edge.link_id)
            if subgraph.segment_usable(link.id, cand.edge.index, len(link.edges)):
                self._add_arc(_SRC, link.to_node, link.length - cand.link_offset, cand)
        for cand in end_candidates:
            link = net.link(cand.edge.link_id)
            if subgraph.segment_usable(link.id, 1, cand.edge.index):
                self._add_arc(link.from_node, _SNK, cand.link_offset, cand)
        for sc in start_candidates:
            for ec in end_candidates:
                if sc.edge.link_id == ec.edge.link_id and ec.link_offset >= sc.link_offset:
                    self._add_arc(_SRC, _SNK, ec.link_offset - sc.link_offset, (sc, ec))

    def _add_arc(self, src, dst, weight, payload) -> None:
        arc = len(self.arc_dst)
        self.arc_src.append(src)
        self.arc_dst.append(dst)
        self.arc_weight.append(weight)
        self.arc_payload.append(payload)
        self.adj.setdefault(src, []).append(arc)

    def dijkstra(self, source, removed_arcs: Container[int], removed_nodes: set) -> tuple[float, list[int]] | None:
        """Cheapest arc path from ``source`` to the sink, or None."""
        cost, via = dijkstra(self.adj, self.arc_dst, self.arc_weight.__getitem__, source, _SNK,
                             removed_arcs, removed_nodes)
        if _SNK not in cost:
            return None
        arcs = [via[_SNK]]
        while self.arc_src[arcs[-1]] != source:
            arcs.append(via[self.arc_src[arcs[-1]]])
        return cost[_SNK], arcs[::-1]

    def sink_tree(self) -> tuple[dict[object, float], dict[object, int]]:
        """Per node that reaches the sink: its cost to the sink and the first
        arc of a cheapest way there (one Dijkstra over the reversed arcs)."""
        into: dict[object, list[int]] = {}
        for arcs in self.adj.values():
            for arc in arcs:
                into.setdefault(self.arc_dst[arc], []).append(arc)
        return dijkstra(into, self.arc_src, self.arc_weight.__getitem__, _SNK)

    def to_candidate_path(self, arcs: Sequence[int]) -> CandidatePath:
        """The first arc carries the start candidate and the last the end
        candidate; a one-arc path is a single-link traversal."""
        payload = self.arc_payload
        if len(arcs) == 1:
            start, end = payload[arcs[0]]
            link_ids = (start.edge.link_id,)
        else:
            start, end = payload[arcs[0]], payload[arcs[-1]]
            link_ids = (start.edge.link_id, *(payload[a] for a in arcs[1:-1]), end.edge.link_id)
        edges = path_edges(self.network, link_ids, start.edge.index, end.edge.index)
        length = math.fsum(self.arc_weight[a] for a in arcs)
        return CandidatePath(start, end, link_ids, edges, length)


def _yen(graph: _SearchGraph, budget: int) -> list[tuple[float, tuple[int, ...]]]:
    """Loopless shortest arc paths from source to sink, cheapest first.

    Enumerates up to ``budget`` paths plus whatever is needed to finish the
    tie class at the boundary, within a fixed overrun; the budget and the
    overrun count single-link traversals like any path. Spur searches are
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
        node_seq = [_SRC] + [arc_dst[a] for a in arcs_p]
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
        for i in range(len(arcs_p)):
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
    by traveled length, then link count, then lexicographic edge ids. No two
    paths share an edge sequence provided no two start (or two end)
    candidates lie on one edge, which holds for ``find_candidate_edges`` (one
    per link) and for a single carried candidate: the search never repeats
    an arc sequence, and distinct arc sequences then pass distinct edges.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    graph = _SearchGraph(subgraph, start_candidates, end_candidates)
    paths = [graph.to_candidate_path(arcs) for _, arcs in _yen(graph, budget)]
    paths.sort(key=lambda p: p.sort_key)
    return paths[:budget]


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
    """Every edge the search may pass, once: the usable links' and ``kept``."""
    net = subgraph.network
    keys = subgraph.kept.union(*(net.link(lid).edge_keys for lid in subgraph.usable_links))
    features = [line_feature(net, [key], {"link": key[0], "edge": key[1]})
                for key in sorted(keys)]
    return {"type": "FeatureCollection", "features": features}


def paths_geojson(network: RoadNetwork, paths: Iterable[CandidatePath]) -> dict:
    features = [line_feature(network, path.edges,
                             {"rank": rank, "length_m": round(path.length, 3),
                              "links": len(path.link_ids)})
                for rank, path in enumerate(paths)]
    return {"type": "FeatureCollection", "features": features}
