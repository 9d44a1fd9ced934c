import random
from collections import deque

import pytest

from oracles import neighbors, oracle_connected_hops, step, validate_hops
from satroute import grid_topology as grid
from satroute.grid_topology import GridSpec, NodeCoord


# The lowest coordinate of an axis of each size, as the two-branch formula
# -(size//2) + 1 (even) / -(size//2) (odd) gives it.
LOWEST = {3: -1, 4: -1, 5: -2, 6: -2, 7: -3, 8: -3, 9: -4, 10: -4, 11: -5, 12: -5}


@pytest.mark.parametrize("size", sorted(LOWEST))
def test_lowest_coordinate_of_each_axis(size):
    """Coordinates run from floor(-size/2)+1 up to floor(size/2)."""
    lo = LOWEST[size]
    assert GridSpec(size, 7).y_lo() == GridSpec(7, size).x_lo() == lo
    assert lo + size - 1 == size // 2


def all_on(nid, d):
    return True


def all_off(nid, d):
    return False


def ids(spec, *nodes):
    return [grid.node_index(spec, grid.normalize(spec, n)) for n in nodes]


def connected_hops(spec, link_on, src, dst):
    """The BFS on the snapshot of ``link_on(node index, direction)``.

    The oracle BFS asks ``link_on`` once per link it examines.  Its answers,
    in that order, are replayed to the production BFS as its draws (0.0 for
    ON, 1.0 for OFF, at p = 0.5), which must use them all and route the same
    way.
    """
    src_id, dst_id = ids(spec, src, dst)
    states = []

    def recording(nid, d):
        states.append(bool(link_on(nid, d)))
        return states[-1]

    ref = oracle_connected_hops(spec, recording, src_id, dst_id)
    draws = iter([0.0 if on else 1.0 for on in states])

    def replay():
        u = next(draws, None)
        assert u is not None, "the search drew a link the oracle did not examine"
        return u

    parent = [-1] * spec.n_nodes
    hops = grid.shortest_connected_hops(spec, src_id, dst_id, 0.5, replay, {}, parent)
    assert parent == [-1] * spec.n_nodes
    assert next(draws, None) is None, "the search drew fewer links than the oracle examined"
    assert hops == ref
    return hops


def coord_hops(spec, hops):
    """Hop list with node coordinates in place of node indexes."""
    coords = grid.coord_table(spec)
    return [(coords[tail], d) for tail, d in hops]


def test_spec_rejects_tiny_grids():
    with pytest.raises(ValueError):
        GridSpec(2, 5)
    with pytest.raises(ValueError):
        GridSpec(5, 2)
    with pytest.raises(ValueError):
        GridSpec(n_per_plane=5, m_planes=2)


def test_spec_is_immutable():
    spec = GridSpec(5, 4)
    with pytest.raises(AttributeError):
        spec.m_planes = 5


def test_equal_specs_share_one_table():
    before = grid.neighbor_id_table.cache_info()
    table = grid.neighbor_id_table(GridSpec(100, 100))
    assert grid.neighbor_id_table(GridSpec(100, 100)) is table
    after = grid.neighbor_id_table.cache_info()
    assert after.currsize - before.currsize <= 1 and after.hits > before.hits


def test_coordinate_ranges():
    spec = GridSpec(5, 4)  # N=5 satellites per plane (y), M=4 planes (x)
    xs = sorted({n.x for n in spec.nodes()})
    ys = sorted({n.y for n in spec.nodes()})
    assert xs == [-1, 0, 1, 2]
    assert ys == [-2, -1, 0, 1, 2]


def test_neighbors_origin():
    spec = GridSpec(5, 4)
    assert set(neighbors(spec, NodeCoord(0, 0))) == {
        NodeCoord(-1, 0), NodeCoord(0, -1), NodeCoord(1, 0), NodeCoord(0, 1)
    }


def test_neighbors_wrap():
    spec = GridSpec(5, 4)
    nb = neighbors(spec, NodeCoord(2, 2))
    assert nb[grid.RIGHT] == NodeCoord(-1, 2)  # x wraps 2 -> -1 on a width-4 axis
    assert nb[grid.UP] == NodeCoord(2, -2)  # y wraps 2 -> -2 on a width-5 axis


@pytest.mark.parametrize("n,m", [(3, 3), (4, 7), (7, 4), (5, 6), (100, 100), (99, 101)])
def test_id_tables_match_coordinate_functions(n, m):
    spec = GridSpec(n, m)
    coords = grid.coord_table(spec)
    nbr = grid.neighbor_id_table(spec)
    assert len(coords) == len(nbr) == spec.n_nodes == len(set(coords))
    for nid, node in enumerate(coords):
        assert type(node) is NodeCoord
        assert grid.normalize(spec, node) == node
        assert grid.node_index(spec, node) == nid
        assert nbr[nid] == tuple(grid.node_index(spec, nb) for nb in neighbors(spec, node))


def test_neighbors_distinct_on_minimum_grid():
    spec = GridSpec(3, 3)
    for node in spec.nodes():
        nb = neighbors(spec, node)
        assert len(set(nb)) == 4 and node not in nb


def test_normalize_idempotent_and_commutes_with_neighbors():
    spec = GridSpec(6, 7)
    rng = random.Random(3)
    for _ in range(200):
        raw = NodeCoord(rng.randint(-30, 30), rng.randint(-30, 30))
        norm = grid.normalize(spec, raw)
        assert grid.normalize(spec, norm) == norm
        assert neighbors(spec, raw) == neighbors(spec, norm)


def test_hop_distance_basics():
    spec = GridSpec(100, 100)
    assert grid.hop_distance(spec, NodeCoord(3, -4), NodeCoord(3, -4)) == 0
    assert grid.hop_distance(spec, NodeCoord(5, 5), NodeCoord(0, 0)) == 10


def bfs_distance(spec, src, dst):
    """Plain adjacency BFS, independent of the closed-form distance."""
    if src == dst:
        return 0
    dist = {src: 0}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        for nb in neighbors(spec, node):
            if nb not in dist:
                dist[nb] = dist[node] + 1
                if nb == dst:
                    return dist[nb]
                queue.append(nb)
    raise AssertionError("torus is connected")


def test_hop_distance_matches_bfs_oracle():
    spec = GridSpec(5, 4)
    nodes = list(spec.nodes())
    for a in nodes:
        for b in nodes:
            assert grid.hop_distance(spec, a, b) == bfs_distance(spec, a, b)
    assert grid.hop_distance(spec, NodeCoord(2, 2), NodeCoord(0, 0)) == 4


def test_connected_path_all_on_is_geodesic():
    spec = GridSpec(7, 6)
    rng = random.Random(11)
    for _ in range(50):
        src = NodeCoord(rng.randint(-2, 3), rng.randint(-3, 3))
        dst = NodeCoord(rng.randint(-2, 3), rng.randint(-3, 3))
        hops = connected_hops(spec, all_on, src, dst)
        assert hops is not None
        validate_hops(spec, hops, *ids(spec, src, dst))
        assert len(hops) == grid.hop_distance(spec, src, dst)


def test_connected_path_all_off_is_absent():
    spec = GridSpec(5, 5)
    assert connected_hops(spec, all_off, NodeCoord(1, 1), NodeCoord(0, 0)) is None
    empty = connected_hops(spec, all_off, NodeCoord(1, 1), NodeCoord(1, 1))
    assert empty == []


def enumerate_connected_simple_paths(spec, link_on, src, dst, max_len):
    """DFS enumeration of all simple ON-paths up to max_len hops."""
    found = []

    def extend(node, seen, hops):
        if len(hops) > max_len:
            return
        if node == dst:
            found.append(list(hops))
            return
        for d in range(4):
            nxt = step(spec, node, d)
            if nxt in seen or not link_on(node, d):
                continue
            hops.append((node, d))
            extend(nxt, seen | {nxt}, hops)
            hops.pop()

    extend(src, {src}, [])
    return found


def test_connected_path_takes_forced_detour():
    spec = GridSpec(6, 6)
    src, dst = NodeCoord(2, 0), NodeCoord(0, 0)
    blocked = {(NodeCoord(1, 0), grid.LEFT)}  # the only 2-hop route uses this link

    def link_on(node, d):
        return (node, d) not in blocked

    coords = grid.coord_table(spec)
    hops = connected_hops(spec, lambda nid, d: link_on(coords[nid], d), src, dst)
    assert hops is not None
    assert len(hops) == 4  # +2 hops over the blocked geodesic
    valid = enumerate_connected_simple_paths(spec, link_on, src, dst, 4)
    assert min(len(h) for h in valid) == 4
    assert coord_hops(spec, hops) in valid


def test_connected_path_deterministic_tie_break():
    spec = GridSpec(8, 8)
    rng = random.Random(5)
    states = {
        (nid, d): rng.random() < 0.8
        for nid in range(spec.n_nodes)
        for d in range(4)
    }
    first = connected_hops(spec, lambda n, d: states[n, d], NodeCoord(3, 2), NodeCoord(0, 0))
    second = connected_hops(spec, lambda n, d: states[n, d], NodeCoord(3, 2), NodeCoord(0, 0))
    assert first is not None and first == second


def test_connected_path_draws_each_examined_link_once():
    """The search draws each link it examines exactly once, in the oracle's
    order, and keeps only draws it drew: none twice, none it did not need."""
    spec = GridSpec(9, 8)
    src_id, dst_id = ids(spec, NodeCoord(3, -2), NodeCoord(0, 0))
    outcomes = set()
    for seed in range(20):
        draws = []
        rng = random.Random(seed)

        def counted():
            draws.append(rng.random())
            return draws[-1]

        snapshot = {}
        hops = grid.shortest_connected_hops(spec, src_id, dst_id, 0.6, counted, snapshot, [-1] * spec.n_nodes)
        outcomes.add(hops is None)
        replay = iter(draws)
        examined = []

        def predicate(nid, d):
            examined.append(nid * 4 + d)
            return next(replay) < 0.6

        assert oracle_connected_hops(spec, predicate, src_id, dst_id) == hops
        assert next(replay, None) is None  # one draw per examined link
        assert len(set(examined)) == len(examined)
        drawn = dict(zip(examined, (u < 0.6 for u in draws)))
        assert snapshot.items() <= drawn.items()
    assert outcomes == {False, True}  # the seeds cover found routes and failures


def test_bfs_snapshot_matches_oracle_draws():
    """The snapshot holds what the fallback route may read: on a failure the
    oracle's whole lazily drawn snapshot, on a found route only its OFF draws,
    and never a hop of the route.  One search buffer serves every search and
    is all -1 after each, src == dst included."""
    for n, m in ((5, 4), (7, 6), (20, 20)):
        spec = GridSpec(n, m)
        unvisited = [-1] * spec.n_nodes
        parent = list(unvisited)
        # given past the seam: (M//2 + 1, 1) wraps to the far side of the x axis
        dst = grid.normalize(spec, NodeCoord(m // 2 + 1, 1))
        (dst_id,) = ids(spec, dst)
        for p in (0.3, 0.6, 0.9):
            found = failed = 0
            for src_id in range(spec.n_nodes):
                seed = (n * 1000 + src_id) * 10 + int(p * 10)
                ref_rng = random.Random(seed)
                recorded = {}

                def lazily_drawn(nid, d):
                    recorded[nid * 4 + d] = ref_rng.random() < p
                    return recorded[nid * 4 + d]

                ref = oracle_connected_hops(spec, lazily_drawn, src_id, dst_id)
                rng = random.Random(seed)
                snapshot = {}
                hops = grid.shortest_connected_hops(spec, src_id, dst_id, p, rng.random, snapshot, parent)
                assert hops == ref
                assert parent == unvisited
                assert rng.getstate() == ref_rng.getstate()
                if hops is None:
                    failed += 1
                    assert snapshot == recorded
                    continue
                found += 1
                assert snapshot == {lid: on for lid, on in recorded.items() if not on}
                assert not any(nid * 4 + d in snapshot for nid, d in hops)
            assert found and (failed or p == 0.9)  # below p = 0.9 some searches fail too


def enumerate_geodesics(spec, src, dst):
    """All minimum-length monotone paths, considering both wrap directions."""
    target = grid.hop_distance(spec, src, dst)
    geodesics = []

    def extend(node, hops):
        if len(hops) == target:
            if node == dst:
                geodesics.append(list(hops))
            return
        if grid.hop_distance(spec, node, dst) != target - len(hops):
            return
        for d in range(4):
            nxt = step(spec, node, d)
            hops.append((node, d))
            extend(nxt, hops)
            hops.pop()

    extend(src, [])
    return geodesics


def test_connected_length_equals_distance_iff_on_geodesic_exists():
    spec = GridSpec(4, 4)
    rng = random.Random(17)
    src, dst = NodeCoord(2, 1), NodeCoord(0, 0)
    geodesics = enumerate_geodesics(spec, src, dst)
    coords = grid.coord_table(spec)
    for _ in range(200):
        states = {(n, d): rng.random() < 0.55 for n in spec.nodes() for d in range(4)}
        hops = connected_hops(spec, lambda nid, d: states[coords[nid], d], src, dst)
        some_geodesic_on = any(all(states[hop] for hop in g) for g in geodesics)
        if hops is not None:
            assert len(hops) >= grid.hop_distance(spec, src, dst)
            assert (len(hops) == grid.hop_distance(spec, src, dst)) == some_geodesic_on
        else:
            assert not some_geodesic_on


def test_random_shortest_path_trivial_and_length():
    spec = GridSpec(9, 9)
    rng = random.Random(1)
    empty = grid.random_shortest_path(spec, NodeCoord(0, 0), rng)
    assert empty == []
    for _ in range(100):
        src = NodeCoord(rng.randint(-4, 4), rng.randint(-4, 4))
        hops = grid.random_shortest_path(spec, src, rng)
        validate_hops(spec, hops, *ids(spec, src, NodeCoord(0, 0)))
        assert len(hops) == grid.hop_distance(spec, src, NodeCoord(0, 0))


def test_random_shortest_path_wrap_tie_still_shortest():
    spec = GridSpec(6, 6)  # even axis: |dx| == 3 ties between wrap directions
    rng = random.Random(2)
    for _ in range(200):
        hops = grid.random_shortest_path(spec, NodeCoord(3, 1), rng)
        validate_hops(spec, hops, *ids(spec, NodeCoord(3, 1), NodeCoord(0, 0)))
        assert len(hops) == 4


def test_random_shortest_path_uniform_over_staircases():
    spec = GridSpec(20, 20)
    rng = random.Random(42)
    counts = {}
    n = 10**5
    for _ in range(n):
        hops = grid.random_shortest_path(spec, NodeCoord(2, 1), rng)
        key = tuple(d for _, d in hops)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 3  # C(3, 1) interleavings
    sigma = (1 / 3 * 2 / 3 / n) ** 0.5
    for c in counts.values():
        assert abs(c / n - 1 / 3) < 3 * sigma


def test_path_validation_catches_breaks():
    spec = GridSpec(5, 5)
    a, b, c, origin = ids(spec, NodeCoord(2, 0), NodeCoord(2, 1), NodeCoord(1, 0), NodeCoord(0, 0))
    validate_hops(spec, [(a, grid.LEFT), (c, grid.LEFT)], a, origin)
    broken = [(a, grid.LEFT), (b, grid.LEFT)]
    with pytest.raises(ValueError):
        validate_hops(spec, broken, a, origin)
    no_such_direction = [(a, 4)]
    with pytest.raises(ValueError):
        validate_hops(spec, no_such_direction, a, origin)
    short = [(a, grid.LEFT)]
    with pytest.raises(ValueError):
        validate_hops(spec, short, a, origin)
    not_simple = [(a, grid.LEFT), (c, grid.RIGHT)]
    with pytest.raises(ValueError):
        validate_hops(spec, not_simple, a, a)
