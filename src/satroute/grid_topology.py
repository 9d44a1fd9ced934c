"""N x M toroidal mesh: coordinates, node and link ids, distances, shortest paths.

Nodes carry centered coordinates: x in {floor(-M/2)+1, ..., floor(M/2)},
y in {floor(-N/2)+1, ..., floor(N/2)}, where N is the number of satellites
per orbital plane (y axis) and M the number of planes (x axis).  Every node
has exactly four neighbors (left, down, right, up) with wraparound, and the
link a->b is distinct from b->a.

Routes are hop lists ``[(tail node index, direction), ...]``; the directed
link leaving node ``nid`` in direction ``d`` has id ``nid * 4 + d``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache

# Direction indices, in the fixed expansion order used everywhere.
LEFT, DOWN, RIGHT, UP = 0, 1, 2, 3


NodeCoord = namedtuple("NodeCoord", "x y")
ORIGIN = NodeCoord(0, 0)


class GridSpec(namedtuple("GridSpec", "n_per_plane m_planes")):
    """Torus dimensions: N = n_per_plane (y axis), M = m_planes (x axis)."""

    __slots__ = ()

    def __new__(cls, n_per_plane: int, m_planes: int) -> GridSpec:
        if n_per_plane < 3 or m_planes < 3:
            raise ValueError("need N >= 3 and M >= 3 so the four neighbors are distinct")
        return super().__new__(cls, n_per_plane, m_planes)

    @property
    def n_nodes(self) -> int:
        return self.n_per_plane * self.m_planes

    def x_lo(self) -> int:
        return -((self.m_planes - 1) // 2)

    def y_lo(self) -> int:
        return -((self.n_per_plane - 1) // 2)

    def nodes(self) -> Iterator[NodeCoord]:
        xl, yl = self.x_lo(), self.y_lo()
        for xi in range(self.m_planes):
            for yi in range(self.n_per_plane):
                yield NodeCoord(xl + xi, yl + yi)


def normalize(spec: GridSpec, node: NodeCoord) -> NodeCoord:
    """Map arbitrary integer coordinates into the centered ranges."""
    xl, yl = spec.x_lo(), spec.y_lo()
    return NodeCoord(
        (node[0] - xl) % spec.m_planes + xl,
        (node[1] - yl) % spec.n_per_plane + yl,
    )


def node_index(spec: GridSpec, node: NodeCoord) -> int:
    return (node[0] - spec.x_lo()) * spec.n_per_plane + (node[1] - spec.y_lo())


def hop_distance(spec: GridSpec, a: NodeCoord, b: NodeCoord) -> int:
    """Minimum hop count between two nodes, wrap-aware per axis."""
    dx = abs(a[0] - b[0]) % spec.m_planes
    dy = abs(a[1] - b[1]) % spec.n_per_plane
    return min(dx, spec.m_planes - dx) + min(dy, spec.n_per_plane - dy)


@lru_cache(maxsize=None)
def coord_table(spec: GridSpec) -> tuple[NodeCoord, ...]:
    """Node coordinates indexed by node_index."""
    return tuple(spec.nodes())


@lru_cache(maxsize=None)
def neighbor_id_table(spec: GridSpec) -> list[tuple[int, int, int, int] | None]:
    """For each node index, its four neighbor indexes in (L, D, R, U) order,
    or None for a row not yet built.

    The table starts empty, one pointer per node: a search builds the rows
    of each plane it reaches (``_plane_rows``) and no others, so a run on a
    large grid pays for the planes its searches visit.
    """
    return [None] * spec.n_nodes


def _plane_rows(spec: GridSpec, nbr: list, nid: int) -> tuple[int, int, int, int]:
    """Build the rows of node ``nid``'s plane in ``nbr``; return ``nid``'s row."""
    n = spec.n_per_plane
    lo = nid - nid % n
    here = _plane_ids(nbr, n, lo)
    down, up = here[-1:] + here[:-1], here[1:] + here[:1]  # the plane rotated by one
    left, right = _plane_ids(nbr, n, (lo - n) % len(nbr)), _plane_ids(nbr, n, (lo + n) % len(nbr))
    nbr[lo:lo + n] = zip(left, down, right, up)
    return nbr[nid]


def _plane_ids(nbr: list, n: int, lo: int) -> list[int]:
    """The node ids lo, ..., lo + n - 1 of one plane, by yi.

    Where built rows hold them, the ids are those rows' int objects, so that
    the table keeps one int per node id, as a table built at once does: the
    plane's own rows hold them as up neighbors, the plane before's as right
    neighbors and the plane after's as left neighbors.
    """
    if nbr[lo] is not None:
        ups = [row[UP] for row in nbr[lo:lo + n]]
        return ups[-1:] + ups[:-1]
    before = (lo - n) % len(nbr)
    if nbr[before] is not None:
        return [row[RIGHT] for row in nbr[before:before + n]]
    after = (lo + n) % len(nbr)
    if nbr[after] is not None:
        return [row[LEFT] for row in nbr[after:after + n]]
    return list(range(lo, lo + n))


def shortest_connected_hops(
    spec: GridSpec,
    src_id: int,
    dst_id: int,
    p: float,
    random,
    snapshot: dict[int, bool],
    parent: list[int],
) -> list[tuple[int, int]] | None:
    """BFS over links that are ON in a lazily drawn t = 0 snapshot; None if unreachable.

    Returns the hop list [(tail node index, direction), ...], empty when
    src_id == dst_id.  Each link the search examines is drawn once, as
    ``random() < p``, when the search first needs it; one search never
    examines a link twice, so it neither reads nor needs earlier draws.
    Deterministic tie-break: neighbors are expanded in (L, D, R, U) order and
    the first-found parent is kept.

    ``snapshot`` (link id -> ON state) receives the draws a caller may still
    need.  Every hop of a found route was drawn ON, so on a found route it
    receives only the OFF draws.  On a None return it receives every draw:
    the OFF draws, and the search tree's links as ON.

    ``parent`` is the caller's search buffer, one entry per node index
    (length ``spec.n_nodes``), so that repeated searches allocate nothing.
    It must be all -1 on entry, and it is all -1 again on every return: the
    search records in it the id of the link that reached each node it
    visits, and resets each entry it set.  The search builds the
    ``neighbor_id_table`` rows of each plane it reaches that no earlier
    search reached.
    """
    if src_id == dst_id:
        return []
    nbr = neighbor_id_table(spec)
    parent[src_id] = -2  # visited, reached by no link
    queue = [src_id]
    append = queue.append
    for nid in queue:  # the list grows while it is read: a FIFO without pops
        lid = nid * 4
        try:
            left, down, right, up = nbr[nid]
        except TypeError:  # None: the first visit to this node's plane
            left, down, right, up = _plane_rows(spec, nbr, nid)
        if parent[left] == -1:
            if random() < p:
                parent[left] = lid
                if left == dst_id:
                    return _tree_hops(parent, left, queue)
                append(left)
            else:
                snapshot[lid] = False
        if parent[down] == -1:
            if random() < p:
                parent[down] = lid + 1
                if down == dst_id:
                    return _tree_hops(parent, down, queue)
                append(down)
            else:
                snapshot[lid + 1] = False
        if parent[right] == -1:
            if random() < p:
                parent[right] = lid + 2
                if right == dst_id:
                    return _tree_hops(parent, right, queue)
                append(right)
            else:
                snapshot[lid + 2] = False
        if parent[up] == -1:
            if random() < p:
                parent[up] = lid + 3
                if up == dst_id:
                    return _tree_hops(parent, up, queue)
                append(up)
            else:
                snapshot[lid + 3] = False
    parent[src_id] = -1
    for nid in queue[1:]:
        snapshot[parent[nid]] = True  # the tree's links were drawn ON
        parent[nid] = -1
    return None


def _tree_hops(parent: list[int], dst_id: int, queue: list[int]) -> list[tuple[int, int]]:
    """The hop list from the search's source, ``queue[0]``, to dst_id along
    the search tree's parent links; then resets every entry the search set."""
    src_id = queue[0]
    hops = []
    nid = dst_id
    while nid != src_id:
        lid = parent[nid]
        nid = lid >> 2
        hops.append((nid, lid & 3))
    hops.reverse()
    parent[dst_id] = -1
    for nid in queue:
        parent[nid] = -1
    return hops


def random_shortest_path(spec: GridSpec, src: NodeCoord, rng) -> list[tuple[int, int]]:
    """A uniformly random minimum-length monotone path from src to the origin.

    Per axis the shorter wrap direction is taken (fair coin on an exact tie),
    then the horizontal/vertical moves are interleaved uniformly at random
    among the C(a+b, a) shortest staircases.  Returns the hop list
    [(tail node index, direction), ...], like shortest_connected_hops.
    """
    src = normalize(spec, src)
    xdir, a = _axis_moves(src[0], spec.m_planes, LEFT, RIGHT, rng)
    ydir, b = _axis_moves(src[1], spec.n_per_plane, DOWN, UP, rng)
    nbr = neighbor_id_table(spec)
    nid = node_index(spec, src)
    hops = []
    while a + b > 0:
        # choosing x with prob a/(a+b) yields a uniform interleaving
        if rng.random() * (a + b) < a:
            d = xdir
            a -= 1
        else:
            d = ydir
            b -= 1
        hops.append((nid, d))
        nid = (nbr[nid] or _plane_rows(spec, nbr, nid))[d]
    return hops


def _axis_moves(c_src: int, span: int, neg_dir: int, pos_dir: int, rng) -> tuple[int, int]:
    """(direction, step count) toward coordinate 0 along one axis of length span."""
    fwd = -c_src % span  # steps in the positive direction
    bwd = span - fwd
    if fwd == 0:
        return pos_dir, 0
    if fwd < bwd:
        return pos_dir, fwd
    if bwd < fwd:
        return neg_dir, bwd
    return (pos_dir, fwd) if rng.random() < 0.5 else (neg_dir, bwd)
