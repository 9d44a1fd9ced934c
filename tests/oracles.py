"""Reference implementations that tests compare the production code against.

* ``sample_next`` / ``sample_k_steps``: one-slot and one-draw k-slot link
  sampling, straight from the Markov chain's definition and its kernel.
* ``SlotwiseNetworkState``: a NetworkState that evolves every re-observed
  link slot by slot, which the one-draw k-step jump must match in law.
* ``validate_hops``: a validity check for hop lists
  ``[(tail node index, direction), ...]``.
"""

from __future__ import annotations

from satroute.grid_topology import GridSpec, neighbor_id_table
from satroute.link_dynamics import LinkParams, transition_prob
from satroute.simulator import NetworkState


def sample_next(params: LinkParams, on: bool, rng) -> bool:
    """Advance the link one slot.  ``rng`` needs only a ``random()`` method."""
    if on:
        return rng.random() >= params.epsilon1
    return rng.random() < params.epsilon2


def sample_k_steps(params: LinkParams, on: bool, k: int, rng) -> bool:
    """Advance the link k slots with a single draw from the k-step kernel.

    Distributionally identical to k applications of sample_next, but consumes
    one uniform regardless of k.
    """
    if k == 0:
        return on
    return rng.random() < transition_prob(params, on, True, k)


class SlotwiseNetworkState(NetworkState):
    """NetworkState whose re-observed links take one sample_next per slot."""

    __slots__ = ()

    def link_on_id(self, lid: int, t: int) -> bool:
        cached = self._cache.get(lid)
        if cached is None:
            on = self.rng.random() < self.params.p
        else:
            on, last_t = cached
            if t < last_t:
                raise ValueError(f"link {lid} queried backwards in time ({last_t} -> {t})")
            for _ in range(t - last_t):
                on = sample_next(self.params, on, self.rng)
        self._cache[lid] = (on, t)
        return on


def validate_hops(spec: GridSpec, hops, src_id: int, dst_id: int) -> None:
    """Raise ValueError unless ``hops`` is a simple chain from src_id to dst_id."""
    nbr = neighbor_id_table(spec)
    node = src_id
    seen = {src_id}
    for i, (tail, direction) in enumerate(hops):
        if tail != node:
            raise ValueError(f"hop {i} does not chain")
        if direction not in range(4):
            raise ValueError(f"hop {i} has no direction {direction!r}")
        node = nbr[tail][direction]
        if node in seen:
            raise ValueError(f"node {node} repeated")
        seen.add(node)
    if node != dst_id:
        raise ValueError(f"path ends at node {node}, not {dst_id}")
