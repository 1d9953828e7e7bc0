import pytest

from mapfuse.geometry import PlanarProjector
from mapfuse.history import Probe
from mapfuse.network import RoadNetwork, load_network

# Anchor far from poles; projection scale factors stay sane.
ORIGIN = (119.30, 24.51)
# The frame of the planar test coordinates; its inverse places them on lon/lat.
_FRAME = PlanarProjector(*ORIGIN)


def planar_nodes_to_lonlat(coords):
    """Place planar meter coordinates on the lon/lat patch around ORIGIN."""
    return [(nid, *_FRAME.to_lonlat(x, y)) for nid, x, y in coords]


def build_network(node_coords, links, split_length=50.0):
    """Network from planar node coords and (id, from, to[, length[, bearing]]) rows."""
    return load_network(planar_nodes_to_lonlat(node_coords), links, split_length)


def net_xy(network: RoadNetwork, x: float, y: float) -> tuple[float, float]:
    """Map build_network's input coordinates into the network's planar frame.

    load_network anchors its projection at the node centroid, so raw test
    coordinates are translated; going through lon/lat removes the shift.
    """
    return network.projector.to_plane(*_FRAME.to_lonlat(x, y))


def two_grids(far_side):
    """A two-way 5 x 5 grid of 200 m links and, 50 km east, a disconnected
    ``far_side`` x ``far_side`` one."""
    nodes, pairs = [], []
    for first, n, x0 in ((0, 5, 0.0), (100, far_side, 50_000.0)):
        nodes += [(first + r * n + c, x0 + c * 200.0, r * 200.0)
                  for r in range(n) for c in range(n)]
        for a in (first + r * n + c for r in range(n) for c in range(n)):
            for b in ([a + 1] if (a - first) % n + 1 < n else []) + \
                     ([a + n] if (a - first) // n + 1 < n else []):
                pairs += [(a, b), (b, a)]
    return build_network(nodes, [(i, a, b, 200.0, None) for i, (a, b) in enumerate(pairs)])


def probe_at(network: RoadNetwork, x: float, y: float, t: float,
             speed: float = 5.0, bearing: float = 0.0) -> Probe:
    """Probe at build_network input coordinates."""
    lon, lat = _FRAME.to_lonlat(x, y)
    return Probe(t=t, speed=speed, bearing=bearing, lon=lon, lat=lat)


@pytest.fixture
def chain_network():
    """Three collinear eastbound links of 200 m each, split at 50 m."""
    nodes = [(0, 0.0, 0.0), (1, 200.0, 0.0), (2, 400.0, 0.0), (3, 600.0, 0.0)]
    links = [(0, 0, 1, 200.0, None), (1, 1, 2, 200.0, None), (2, 2, 3, 200.0, None)]
    return build_network(nodes, links)


def random_digraph(rng):
    """Node rows and link rows of a small random digraph. Link lengths are
    100, 200 or 300 m whatever the geometry, so equal-length routes are common."""
    n = int(rng.integers(4, 9))
    nodes = [(i, float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000))) for i in range(n)]
    links = [(0, 0, 1, 100.0, None)]
    for a in range(n):
        for b in rng.permutation(n)[:int(rng.integers(0, 4))]:
            if int(b) != a and (a, int(b)) != (0, 1):
                links.append((len(links), a, int(b), float(rng.choice([100.0, 200.0, 300.0])),
                              None))
    return nodes, links
