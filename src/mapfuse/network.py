"""Directed road network: loading, link subdivision, spatial index, spectrum.

Links are straight directed segments between intersection nodes. Every link
is cut into fixed-length edges, which are the unit of probe projection and
of historical usage counting. The symmetric link adjacency matrix and its
Laplacian eigendecomposition feed the traffic predictor.
"""
from __future__ import annotations

import csv
import math
import threading
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .geometry import PlanarProjector, SegmentProjection, project_to_segment, segment_bearing

# Edges are addressed by (link id, 1-based position within the link).
EdgeKey = tuple[int, int]

# Edges shorter than this after splitting are merged into the previous edge
# to avoid degenerate projections.
MIN_EDGE_LENGTH = 1e-3


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


class SpatialGrid:
    """Uniform grid over edge bounding boxes.

    Queries return a superset of the edges within the radius (no false
    negatives); callers filter by true distance.
    """

    def __init__(self, cell_size: float):
        if cell_size <= 0:
            raise ValueError("cell size must be positive")
        self.cell_size = cell_size
        self._cells: dict[tuple[int, int], list[EdgeKey]] = {}
        self._extent = (0, 0, -1, -1)  # cell range holding every occupied cell

    def _cell_range(self, xmin, ymin, xmax, ymax):
        c = self.cell_size
        return (math.floor(xmin / c), math.floor(ymin / c),
                math.floor(xmax / c), math.floor(ymax / c))

    def insert(self, edge: Edge) -> None:
        i0, j0, i1, j1 = self._cell_range(min(edge.x0, edge.x1), min(edge.y0, edge.y1),
                                          max(edge.x0, edge.x1), max(edge.y0, edge.y1))
        a0, b0, a1, b1 = self._extent
        if i0 < a0 or j0 < b0 or i1 > a1 or j1 > b1:
            self._extent = (min(i0, a0), min(j0, b0), max(i1, a1), max(j1, b1))
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                self._cells.setdefault((i, j), []).append(edge.key)

    def query_bbox(self, xmin: float, ymin: float, xmax: float, ymax: float) -> list[EdgeKey]:
        # clip to the occupied cells, so a huge box costs no more than the grid
        i0, j0, i1, j1 = self._cell_range(xmin, ymin, xmax, ymax)
        a0, b0, a1, b1 = self._extent
        i0, j0, i1, j1 = max(i0, a0), max(j0, b0), min(i1, a1), min(j1, b1)
        seen: dict[EdgeKey, None] = {}
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                for key in self._cells.get((i, j), ()):
                    seen[key] = None
        return list(seen)

    def query_radius(self, x: float, y: float, radius: float) -> list[EdgeKey]:
        return self.query_bbox(x - radius, y - radius, x + radius, y + radius)


class RoadNetwork:
    """Immutable directed road graph with subdivided links.

    Safe for concurrent reads after construction; the eigendecomposition is
    computed once behind a lock.
    """

    def __init__(self, nodes: Mapping[int, Node], links: Mapping[int, Link],
                 projector: PlanarProjector, split_length: float):
        self.nodes = dict(nodes)
        self.links = dict(links)
        self.projector = projector
        self.split_length = split_length
        self.link_ids: tuple[int, ...] = tuple(sorted(self.links))
        self._link_row = {lid: i for i, lid in enumerate(self.link_ids)}
        grid_cell = max(2.0 * split_length, 100.0)
        self._grid = SpatialGrid(grid_cell)
        for link in self.links.values():
            for edge in link.edges:
                self._grid.insert(edge)
        self._spectrum_lock = threading.RLock()
        self._adjacency: np.ndarray | None = None
        self._spectrum: tuple[np.ndarray, np.ndarray] | None = None

    # -- lookups ----------------------------------------------------------

    def link(self, link_id: int) -> Link:
        return self.links[link_id]

    def edge(self, key: EdgeKey) -> Edge:
        link_id, index = key
        return self.links[link_id].edges[index - 1]

    def link_row(self, link_id: int) -> int:
        """Row of a link in the adjacency matrix / state vectors."""
        return self._link_row[link_id]

    def n_links(self) -> int:
        return len(self.links)

    def iter_edges(self) -> Iterator[Edge]:
        for lid in self.link_ids:
            yield from self.links[lid].edges

    def edges_near(self, x: float, y: float, radius: float) -> list[Edge]:
        """Superset of the edges within ``radius`` of (x, y)."""
        return [self.edge(k) for k in self._grid.query_radius(x, y, radius)]

    def edges_in_bbox(self, xmin: float, ymin: float, xmax: float, ymax: float) -> list[Edge]:
        return [self.edge(k) for k in self._grid.query_bbox(xmin, ymin, xmax, ymax)]

    def project_point_to_edge(self, x: float, y: float, edge: Edge) -> tuple[SegmentProjection, float]:
        """Project a planar point onto an edge.

        Returns the geometric projection plus the offset from the edge start
        in nominal meters (fraction scaled by the nominal edge length).
        """
        proj = project_to_segment(x, y, edge.x0, edge.y0, edge.x1, edge.y1)
        return proj, proj.fraction * edge.length

    # -- spectral structures ----------------------------------------------

    def adjacency_matrix(self) -> np.ndarray:
        """Symmetric 0/1 link adjacency: 1 iff two links share a node."""
        if self._adjacency is None:
            with self._spectrum_lock:
                if self._adjacency is None:
                    n = len(self.link_ids)
                    a = np.zeros((n, n))
                    by_node: dict[int, list[int]] = {}
                    for lid in self.link_ids:
                        link = self.links[lid]
                        row = self._link_row[lid]
                        by_node.setdefault(link.from_node, []).append(row)
                        by_node.setdefault(link.to_node, []).append(row)
                    for rows in by_node.values():
                        for i in rows:
                            for j in rows:
                                if i != j:
                                    a[i, j] = 1.0
                    self._adjacency = a
        return self._adjacency

    def laplacian_matrix(self) -> np.ndarray:
        a = self.adjacency_matrix()
        return np.diag(a.sum(axis=1)) - a

    def laplacian_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Orthonormal eigenbasis and eigenvalues rescaled to [0, 1].

        Raw Laplacian eigenvalues exceed 1 on any non-trivial graph, which
        makes matrix powers blow up; rescaling by the largest eigenvalue
        keeps the spectral filters bounded while preserving eigenvectors.
        """
        if self._spectrum is None:
            with self._spectrum_lock:
                if self._spectrum is None:
                    lap = self.laplacian_matrix()
                    try:
                        raw, u = np.linalg.eigh(lap)
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


def load_network(nodes_table: Sequence[tuple], links_table: Sequence[tuple],
                 split_length: float) -> RoadNetwork:
    """Build a road network from raw rows.

    ``nodes_table`` rows: (node_id, lon, lat).
    ``links_table`` rows: (link_id, from_node, to_node[, length_m[, bearing_deg]])
    with None for absent optionals. Explicit length and bearing win over
    geometry when provided.
    """
    if not (math.isfinite(split_length) and split_length > 0):
        raise InputFormatError(f"split length must be finite and positive, got {split_length}")
    raw_nodes: dict[int, tuple[float, float]] = {}
    for row in nodes_table:
        nid, lon, lat = int(row[0]), float(row[1]), float(row[2])
        if nid in raw_nodes:
            raise InputFormatError(f"duplicate node id {nid}")
        if not (math.isfinite(lon) and math.isfinite(lat)):
            raise InputFormatError(f"non-finite coordinates for node {nid}")
        raw_nodes[nid] = (lon, lat)
    if not raw_nodes:
        raise InputFormatError("no nodes")

    origin_lon = sum(c[0] for c in raw_nodes.values()) / len(raw_nodes)
    origin_lat = sum(c[1] for c in raw_nodes.values()) / len(raw_nodes)
    projector = PlanarProjector(origin_lon, origin_lat)
    nodes = {}
    for nid, (lon, lat) in raw_nodes.items():
        x, y = projector.to_plane(lon, lat)
        nodes[nid] = Node(nid, lon, lat, x, y)

    links: dict[int, Link] = {}
    for row in links_table:
        lid, from_node, to_node = int(row[0]), int(row[1]), int(row[2])
        length_in = float(row[3]) if len(row) > 3 and row[3] is not None else None
        bearing_in = float(row[4]) if len(row) > 4 and row[4] is not None else None
        if lid in links:
            raise InputFormatError(f"duplicate link id {lid}")
        if from_node not in nodes or to_node not in nodes:
            raise InputFormatError(f"link {lid} references a missing node")
        if from_node == to_node:
            raise InputFormatError(f"link {lid} is a self loop")
        a, b = nodes[from_node], nodes[to_node]
        geo_length = math.hypot(b.x - a.x, b.y - a.y)
        length = length_in if length_in is not None else geo_length
        if length is None or length <= 0 or not math.isfinite(length):
            raise InputFormatError(f"link {lid} has non-positive length")
        if bearing_in is not None:
            bearing = bearing_in % 360.0
        else:
            if geo_length == 0.0:
                raise InputFormatError(f"link {lid} has coincident endpoints and no bearing")
            bearing = segment_bearing(a.x, a.y, b.x, b.y)

        edge_lengths = _split_link(length, split_length)
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
        links[lid] = Link(lid, from_node, to_node, length, bearing,
                          a.x, a.y, b.x, b.y, tuple(edges))
    if not links:
        raise InputFormatError("no links")
    return RoadNetwork(nodes, links, projector, split_length)


def _read_csv(path: str, required: Sequence[str]) -> Iterator[dict]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise InputFormatError(f"{path}: empty file (header row required)")
            missing = [c for c in required if c not in reader.fieldnames]
            if missing:
                raise InputFormatError(f"{path}: missing columns {missing}")
            yield from reader
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def save_network_csv(network: RoadNetwork, nodes_path: str, links_path: str) -> None:
    """Write the interchange CSVs; lengths and bearings are made explicit."""
    with open(nodes_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "lon", "lat"])
        for nid in sorted(network.nodes):
            node = network.nodes[nid]
            writer.writerow([nid, f"{node.lon:.8f}", f"{node.lat:.8f}"])
    with open(links_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["link_id", "from_node", "to_node", "length_m", "bearing_deg"])
        for lid in network.link_ids:
            link = network.links[lid]
            writer.writerow([lid, link.from_node, link.to_node,
                             f"{link.length:.6f}", f"{link.bearing:.6f}"])


def load_network_csv(nodes_path: str, links_path: str, split_length: float) -> RoadNetwork:
    """Load from the CSV interchange files.

    nodes: ``node_id,lon,lat``; links: ``link_id,from_node,to_node`` with
    optional ``length_m`` and ``bearing_deg`` columns.
    """
    node_rows = []
    for rec in _read_csv(nodes_path, ("node_id", "lon", "lat")):
        try:
            node_rows.append((int(rec["node_id"]), float(rec["lon"]), float(rec["lat"])))
        except (TypeError, ValueError) as exc:
            raise InputFormatError(f"{nodes_path}: bad row {rec}") from exc
    link_rows = []
    for rec in _read_csv(links_path, ("link_id", "from_node", "to_node")):
        try:
            length = rec.get("length_m")
            bearing = rec.get("bearing_deg")
            link_rows.append((
                int(rec["link_id"]), int(rec["from_node"]), int(rec["to_node"]),
                float(length) if length not in (None, "") else None,
                float(bearing) if bearing not in (None, "") else None,
            ))
        except (TypeError, ValueError) as exc:
            raise InputFormatError(f"{links_path}: bad row {rec}") from exc
    return load_network(node_rows, link_rows, split_length)
