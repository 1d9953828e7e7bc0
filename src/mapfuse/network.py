"""Directed road network: loading, link subdivision, spatial index, routes, spectrum.

Links are straight directed segments between intersection nodes. Every link
is cut into fixed-length edges, which are the unit of probe projection and
of historical usage counting. Routes between nodes, under a caller's cost
per link, make the synthetic fleets and the calibration ground truth. The
link graph's Laplacian (two links are adjacent when they share a node) and
its eigendecomposition feed the traffic predictor.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from itertools import count
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .geometry import (PlanarProjector, SegmentProjection, _check_lonlat, project_to_segment,
                       segment_bearing)

# Edges are addressed by (link id, 1-based position within the link).
EdgeKey = tuple[int, int]

# Edges shorter than this after splitting are merged into the previous edge
# to avoid degenerate projections.
MIN_EDGE_LENGTH = 1e-3

# A network is refused before it is built when splitting its links would
# give it more edges than this: at about 520 B an edge, 2,000,000 edges take
# about 1 GB.
MAX_EDGES = 2_000_000

# The spectral predictor's Laplacian and eigenbasis are dense: at about 40 B a
# link squared of peak memory, 5,000 links take about 1 GB. A network with
# more links is refused before its Laplacian is built.
MAX_SPECTRAL_LINKS = 5_000

_Row = TypeVar("_Row")


class InputFormatError(ValueError):
    """Malformed input file or table."""


@dataclass(frozen=True)
class Node:
    id: int
    lon: float
    lat: float
    x: float
    y: float


@dataclass(frozen=True)
class Edge:
    """Fixed-length subdivision of a link.

    ``from_point``/``to_point`` identify the edge's side nodes: intersection
    node ids at link ends, synthetic ids at internal subdivision points.
    """

    link_id: int
    index: int          # 1-based position within the link
    length: float       # nominal meters
    start_offset: float  # cumulative nominal offset of the edge start within the link
    x0: float
    y0: float
    x1: float
    y1: float
    from_point: object
    to_point: object

    @property
    def key(self) -> EdgeKey:
        return (self.link_id, self.index)

    @property
    def bearing(self) -> float:
        return segment_bearing(self.x0, self.y0, self.x1, self.y1)


@dataclass(frozen=True)
class Link:
    id: int
    from_node: int
    to_node: int
    length: float    # nominal meters
    bearing: float   # degrees from east, [0, 360)
    x0: float
    y0: float
    x1: float
    y1: float
    edges: tuple[Edge, ...]
    edge_keys: tuple[EdgeKey, ...]  # built once; the spatial grid shares these tuples


class SpatialGrid:
    """Uniform grid over edge bounding boxes; each cell maps keys to edges.

    Queries merge the cells they cover and return the edges: a superset of
    the edges within the radius (no false negatives), each once, in first
    insertion order. Callers filter by true distance.
    """

    def __init__(self, cell_size: float):
        if cell_size <= 0:
            raise ValueError("cell size must be positive")
        self.cell_size = cell_size
        self._cells: dict[tuple[int, int], dict[EdgeKey, Edge]] = {}
        self._extent = (0, 0, -1, -1)  # cell range holding every occupied cell

    def _cell_range(self, xmin, ymin, xmax, ymax):
        c = self.cell_size
        return (math.floor(xmin / c), math.floor(ymin / c),
                math.floor(xmax / c), math.floor(ymax / c))

    def insert(self, key: EdgeKey, edge: Edge) -> None:
        i0, j0, i1, j1 = self._cell_range(min(edge.x0, edge.x1), min(edge.y0, edge.y1),
                                          max(edge.x0, edge.x1), max(edge.y0, edge.y1))
        a0, b0, a1, b1 = self._extent
        if i0 < a0 or j0 < b0 or i1 > a1 or j1 > b1:
            self._extent = (min(i0, a0), min(j0, b0), max(i1, a1), max(j1, b1))
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                self._cells.setdefault((i, j), {})[key] = edge

    def query_bbox(self, xmin: float, ymin: float, xmax: float, ymax: float) -> list[Edge]:
        # clip to the occupied cells, so a huge box costs no more than the grid
        i0, j0, i1, j1 = self._cell_range(xmin, ymin, xmax, ymax)
        a0, b0, a1, b1 = self._extent
        i0, j0, i1, j1 = max(i0, a0), max(j0, b0), min(i1, a1), min(j1, b1)
        seen: dict[EdgeKey, Edge] = {}
        cells = self._cells
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                seen.update(cells.get((i, j), ()))
        return list(seen.values())


class RoadNetwork:
    """Immutable directed road graph with subdivided links."""

    def __init__(self, nodes: Mapping[int, Node], links: Mapping[int, Link],
                 projector: PlanarProjector, split_length: float,
                 links_name: str = "the link table"):
        self.nodes = dict(nodes)
        self.links = dict(links)
        self.projector = projector
        self.links_name = links_name  # names the link source in errors about other files
        self.link_ids: tuple[int, ...] = tuple(sorted(self.links))
        self._link_row = {lid: i for i, lid in enumerate(self.link_ids)}
        grid_cell = max(2.0 * split_length, 100.0)
        self._grid = SpatialGrid(grid_cell)
        for link in self.links.values():
            for key, edge in zip(link.edge_keys, link.edges):
                self._grid.insert(key, edge)
        self._spectrum: tuple[np.ndarray, np.ndarray] | None = None

    # -- lookups ----------------------------------------------------------

    def link(self, link_id: int) -> Link:
        return self.links[link_id]

    def edge(self, key: EdgeKey) -> Edge:
        link_id, index = key
        return self.links[link_id].edges[index - 1]

    def link_row(self, link_id: int) -> int:
        """Row of a link in the Laplacian / state vectors."""
        return self._link_row[link_id]

    def n_links(self) -> int:
        return len(self.links)

    def iter_edges(self) -> Iterator[Edge]:
        for lid in self.link_ids:
            yield from self.links[lid].edges

    def edges_near(self, x: float, y: float, radius: float) -> list[Edge]:
        """Superset of the edges within ``radius`` of (x, y)."""
        return self._grid.query_bbox(x - radius, y - radius, x + radius, y + radius)

    def edges_in_bbox(self, xmin: float, ymin: float, xmax: float, ymax: float) -> list[Edge]:
        return self._grid.query_bbox(xmin, ymin, xmax, ymax)

    def project_point_to_edge(self, x: float, y: float, edge: Edge) -> tuple[SegmentProjection, float]:
        """Project a planar point onto an edge.

        Returns the geometric projection plus the offset from the edge start
        in nominal meters (fraction scaled by the nominal edge length).
        """
        proj = project_to_segment(x, y, edge.x0, edge.y0, edge.x1, edge.y1)
        return proj, proj.fraction * edge.length

    # -- routes -------------------------------------------------------------

    @cached_property
    def out_links(self) -> dict[int, list[Link]]:
        """The links leaving each node, by link id; built on first use."""
        out: dict[int, list[Link]] = {}
        for lid in self.link_ids:
            out.setdefault(self.links[lid].from_node, []).append(self.links[lid])
        return out

    def route(self, src: int, dst: int, cost: Callable[[Link], float]) -> list[int] | None:
        """Link ids of a cheapest route from node ``src`` to node ``dst``, or None.

        A forward Dijkstra under a non-negative ``cost`` per link that stops
        once ``dst`` is settled, so its work follows the route, not the
        network. Ties go to the route settled first: out-links are scanned
        by link id, a cost drops only for a strictly cheaper way, and equal
        heap keys pop in push order.
        """
        dist = {src: 0.0}
        parent: dict[int, Link] = {}
        heap = [(0.0, 0, src)]
        pushes = count(1)
        while heap:
            d, _, node = heappop(heap)
            if d > dist[node]:
                continue  # a stale entry: the node was settled cheaper
            if node == dst:
                links = []
                while node != src:
                    links.append(parent[node].id)
                    node = parent[node].from_node
                return links[::-1]
            for link in self.out_links.get(node, ()):
                nd = d + cost(link)
                if nd < dist.get(link.to_node, math.inf):
                    dist[link.to_node] = nd
                    parent[link.to_node] = link
                    heappush(heap, (nd, next(pushes), link.to_node))
        return None

    # -- spectral structures ----------------------------------------------

    def laplacian_matrix(self) -> np.ndarray:
        """``D - A`` of the link graph, where two links are adjacent iff they share a node."""
        n = len(self.link_ids)
        if n > MAX_SPECTRAL_LINKS:
            raise InputFormatError(f"{self.links_name}: {n} links exceed the spectral "
                                   f"predictor's limit of {MAX_SPECTRAL_LINKS}")
        rows_at: dict[int, list[int]] = {}
        for row, lid in enumerate(self.link_ids):
            link = self.links[lid]
            rows_at.setdefault(link.from_node, []).append(row)
            rows_at.setdefault(link.to_node, []).append(row)
        lap = np.zeros((n, n))
        for rows in rows_at.values():
            lap[np.ix_(rows, rows)] = -1.0
        np.fill_diagonal(lap, 0.0)
        np.fill_diagonal(lap, 0.0 - lap.sum(axis=1))  # 0.0 - keeps an isolated link's +0.0
        return lap

    def laplacian_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Orthonormal eigenbasis and eigenvalues rescaled to [0, 1].

        Raw Laplacian eigenvalues exceed 1 on any non-trivial graph, which
        makes matrix powers blow up; rescaling by the largest eigenvalue
        keeps the spectral filters bounded while preserving eigenvectors.
        """
        if self._spectrum is None:
            try:
                raw, u = np.linalg.eigh(self.laplacian_matrix())
            except np.linalg.LinAlgError as exc:
                raise ValueError(f"Laplacian eigendecomposition failed: {exc}") from exc
            raw = np.where(np.abs(raw) < 1e-12, 0.0, raw)
            top = raw.max() if raw.size else 0.0
            lam = raw / top if top > 0 else raw
            self._spectrum = (u, lam)
        return self._spectrum


# -- loading ---------------------------------------------------------------

def _split_link(length: float, split_length: float) -> list[float]:
    """Edge lengths per the ceiling rule, merging a degenerate tail."""
    m = math.ceil(length / split_length)
    lengths = [split_length] * (m - 1) + [length - (m - 1) * split_length]
    if len(lengths) > 1 and lengths[-1] < MIN_EDGE_LENGTH:
        tail = lengths.pop()
        lengths[-1] += tail
    return lengths


class _NetworkBuilder:
    """Checks and collects node rows, then link rows, one row at a time.

    Taking one row per call lets a file reader name the row that fails a
    check; ``nodes_name`` and ``links_name`` name the two sources in errors
    that point across rows.
    """

    def __init__(self, split_length: float, nodes_name: str = "the node table",
                 links_name: str = "the link table"):
        if not (math.isfinite(split_length) and split_length > 0):
            raise InputFormatError(f"split length must be finite and positive, got {split_length}")
        self.split_length = split_length
        self.nodes_name, self.links_name = nodes_name, links_name
        self.raw_nodes: dict[int, tuple[float, float]] = {}
        self.projector: PlanarProjector | None = None
        self.nodes: dict[int, Node] = {}
        self.links: dict[int, Link] = {}
        self.n_edges = 0

    def add_node(self, nid, lon, lat) -> None:
        nid, lon, lat = int(nid), float(lon), float(lat)
        if nid in self.raw_nodes:
            raise InputFormatError(f"duplicate node id {nid}")
        if not (math.isfinite(lon) and math.isfinite(lat)):
            raise InputFormatError(f"non-finite coordinates for node {nid}")
        _check_lonlat(lon, lat)  # here, so a reader blames the node's own row
        self.raw_nodes[nid] = (lon, lat)

    def _project_nodes(self) -> None:
        """Anchor the planar frame at the node centroid, once all nodes are in."""
        raw = self.raw_nodes
        if not raw:
            raise InputFormatError(f"no nodes in {self.nodes_name}")
        self.projector = PlanarProjector(sum(c[0] for c in raw.values()) / len(raw),
                                         sum(c[1] for c in raw.values()) / len(raw))
        for nid, (lon, lat) in raw.items():
            x, y = self.projector.to_plane(lon, lat)
            self.nodes[nid] = Node(nid, lon, lat, x, y)

    def add_link(self, lid, from_node, to_node, length_in=None, bearing_in=None) -> None:
        if not self.nodes:
            self._project_nodes()
        lid, from_node, to_node = int(lid), int(from_node), int(to_node)
        if lid in self.links:
            raise InputFormatError(f"duplicate link id {lid}")
        for nid in (from_node, to_node):
            if nid not in self.nodes:
                raise InputFormatError(f"link {lid} references node {nid}, "
                                       f"missing from {self.nodes_name}")
        if from_node == to_node:
            raise InputFormatError(f"link {lid} is a self loop")
        a, b = self.nodes[from_node], self.nodes[to_node]
        geo_length = math.hypot(b.x - a.x, b.y - a.y)
        length = float(length_in) if length_in not in (None, "") else geo_length
        if length <= 0 or not math.isfinite(length):
            raise InputFormatError(f"link {lid} has non-positive length")
        if bearing_in not in (None, ""):
            bearing = float(bearing_in) % 360.0  # NaN for a non-finite bearing
            if math.isnan(bearing):
                raise InputFormatError(f"link {lid} has a non-finite bearing")
        else:
            if geo_length == 0.0:
                raise InputFormatError(f"link {lid} has coincident endpoints and no bearing")
            bearing = segment_bearing(a.x, a.y, b.x, b.y)

        # the link gets ceil(length / split_length) edges at most, and
        # ceil(x) > k exactly when x > k: comparing x also copes with x = inf
        if length / self.split_length > MAX_EDGES - self.n_edges:
            raise InputFormatError(f"link {lid}: split length {self.split_length} m would give "
                                   f"the network more than {MAX_EDGES} edges")
        edge_lengths = _split_link(length, self.split_length)
        self.n_edges += len(edge_lengths)
        edges = []
        cum = 0.0
        m = len(edge_lengths)
        for idx, el in enumerate(edge_lengths, start=1):
            f0 = cum / length
            f1 = (cum + el) / length if idx < m else 1.0
            from_point = from_node if idx == 1 else ("sub", lid, idx - 1)
            to_point = to_node if idx == m else ("sub", lid, idx)
            edges.append(Edge(
                link_id=lid, index=idx, length=el, start_offset=cum,
                x0=a.x + f0 * (b.x - a.x), y0=a.y + f0 * (b.y - a.y),
                x1=a.x + f1 * (b.x - a.x), y1=a.y + f1 * (b.y - a.y),
                from_point=from_point, to_point=to_point,
            ))
            cum += el
        self.links[lid] = Link(lid, from_node, to_node, length, bearing,
                               a.x, a.y, b.x, b.y, tuple(edges), tuple(e.key for e in edges))

    def network(self) -> RoadNetwork:
        if not self.nodes:
            self._project_nodes()
        if not self.links:
            raise InputFormatError(f"no links in {self.links_name}")
        return RoadNetwork(self.nodes, self.links, self.projector, self.split_length,
                           self.links_name)


def load_network(nodes_table: Iterable[tuple], links_table: Iterable[tuple],
                 split_length: float) -> RoadNetwork:
    """Build a road network from raw rows.

    ``nodes_table`` rows: (node_id, lon, lat).
    ``links_table`` rows: (link_id, from_node, to_node[, length_m[, bearing_deg]])
    with None or "" for absent optionals. Explicit length and bearing win over
    geometry when provided.
    """
    build = _NetworkBuilder(split_length)
    for row in nodes_table:
        build.add_node(*row)
    for row in links_table:
        build.add_link(*row)
    return build.network()


def _read_csv(path: str, required: Sequence[str], convert: Callable[..., _Row],
              optional: Sequence[str] = ()) -> Iterator[_Row]:
    """``convert(*cells)`` of each non-blank row of a CSV file with a header row, with
    the cells under the ``required`` columns (two or more), then the ``optional`` ones;
    an absent optional column or a short row reads None. The one place that opens a
    CSV for reading: a missing, unreadable or non-UTF-8 file, a missing column, or a
    row that ``convert`` rejects with KeyError, TypeError or ValueError raises
    InputFormatError naming the file, and for a row its line.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if (header := next(reader, None)) is None:
                raise InputFormatError(f"{path}: empty file (header row required)")
            index = {name: i for i, name in enumerate(header)}  # a repeated name: its last
            if missing := [c for c in required if c not in index]:
                raise InputFormatError(f"{path}: missing columns {missing}")
            columns = [index[c] for c in required] + [index.get(c, len(header)) for c in optional]
            cells, width = itemgetter(*columns), max(columns) + 1
            for row in filter(None, reader):  # a blank line reads as no cells
                if len(row) < width:
                    row += [None] * (width - len(row))
                try:
                    yield convert(*cells(row))
                except (KeyError, TypeError, ValueError) as exc:
                    reason = f"unknown id {exc}" if isinstance(exc, KeyError) else exc
                    raise InputFormatError(f"{path}:{reader.line_num}: {reason}") from exc
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The one place that writes a CSV: a header row, then ``rows``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_network_csv(network: RoadNetwork, nodes_path: str, links_path: str) -> None:
    """Write the interchange CSVs; lengths and bearings are made explicit."""
    _write_csv(nodes_path, ("node_id", "lon", "lat"),
               ([nid, f"{node.lon:.8f}", f"{node.lat:.8f}"]
                for nid, node in sorted(network.nodes.items())))
    _write_csv(links_path, ("link_id", "from_node", "to_node", "length_m", "bearing_deg"),
               ([lid, link.from_node, link.to_node, f"{link.length:.6f}", f"{link.bearing:.6f}"]
                for lid, link in sorted(network.links.items())))


def load_network_csv(nodes_path: str, links_path: str, split_length: float) -> RoadNetwork:
    """Load from the CSV interchange files.

    nodes: ``node_id,lon,lat``; links: ``link_id,from_node,to_node`` with
    optional ``length_m`` and ``bearing_deg`` columns.
    """
    build = _NetworkBuilder(split_length, nodes_path, links_path)
    for _ in _read_csv(nodes_path, ("node_id", "lon", "lat"), build.add_node):
        pass
    for _ in _read_csv(links_path, ("link_id", "from_node", "to_node"), build.add_link,
                       optional=("length_m", "bearing_deg")):
        pass
    return build.network()
