"""Consistent-hash request routing for the scaled serving tier.

Replica-local LRU caches only pay off if the same request keeps landing
on the same replica.  Random or round-robin dispatch spreads a hot row's
repeats over all N replicas, multiplying its cache footprint by N and
dividing every replica's hit rate; consistent hashing instead gives each
replica a stable shard of the key space, so aggregate cache capacity
*grows* with the replica count instead of being wasted on duplicates.

Keys are the serving tier's natural cache identity: the service's
composite ``pipeline:engine:strategy:density:causal:ensemble``
fingerprint plus the encoded row bytes and the desired class — exactly
the triple the replica-local :class:`~repro.serve.cache.LRUResultCache`
keys on.  Hashing the fingerprint into the key means two pools serving
different configurations shard independently.

The ring is the classic construction: every replica owns ``points``
pseudo-random positions on a 64-bit circle (its virtual nodes), and a
key routes to the first replica position at or after the key's own hash.
Scaling from N to N+1 replicas therefore moves only ~1/(N+1) of the keys
— warm caches survive a resize — which :mod:`tests.serve` pins.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["ConsistentHashRing", "request_hashes", "request_key"]


def _hash64(data):
    """Stable 64-bit hash of ``bytes`` (blake2b, seed-free)."""
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big")


def request_key(fingerprint, row, desired=None):
    """Routing key bytes for one request against one serving config.

    ``desired=None`` (flip the prediction) hashes differently from an
    explicit class, mirroring the cache key — the two can resolve to
    different explanations, so they may legitimately live on different
    replicas.
    """
    row = np.ascontiguousarray(row, dtype=np.float64)
    target = b"flip" if desired is None else str(int(desired)).encode()
    return fingerprint.encode() + b":" + target + b":" + row.tobytes()


def request_hashes(fingerprint, rows, desired):
    """uint64 hash of each row's :func:`request_key` (one class or None per row).

    The shared ``fingerprint:`` prefix is hashed once and its blake2b
    state copied per row, so the result equals hashing each key alone.
    """
    prefix = hashlib.blake2b(fingerprint.encode() + b":", digest_size=8)
    digests = []
    for row, target in zip(np.asarray(rows, dtype=np.float64), desired):
        state = prefix.copy()
        state.update((b"flip:" if target is None else b"%d:" % target) + row.tobytes())
        digests.append(state.digest())
    return np.frombuffer(b"".join(digests), dtype=">u8").astype(np.uint64)


class ConsistentHashRing:
    """Hash ring mapping request keys onto a fixed set of nodes.

    Parameters
    ----------
    nodes:
        Hashable node identities (the pool uses replica indices).
    points:
        Virtual nodes per physical node; more points smooth the shard
        sizes at the cost of a larger (still tiny) ring.
    """

    def __init__(self, nodes, points=64):
        nodes = list(nodes)
        if not nodes:
            raise ValueError("ring needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"duplicate nodes in {nodes!r}")
        points = int(points)
        if points < 1:
            raise ValueError(f"points must be >= 1, got {points}")
        self.nodes = nodes
        self.points = points
        ring = []
        for node in nodes:
            for index in range(points):
                ring.append((_hash64(f"{node!r}#{index}".encode()), node))
        ring.sort()
        self._positions = np.array([position for position, _node in ring], dtype=np.uint64)
        # object dtype: node identities are any hashable, not only ints
        self._owners = np.fromiter(
            (node for _position, node in ring), dtype=object, count=len(ring))

    def __len__(self):
        return len(self.nodes)

    def node_for(self, key):
        """Node owning ``key`` (bytes): first ring position clockwise."""
        return self.nodes_for_hashes([_hash64(key)])[0]

    def nodes_for_hashes(self, hashes):
        """Owning node of every 64-bit key hash (:func:`request_hashes`), as an array."""
        index = np.searchsorted(
            self._positions, np.asarray(hashes, dtype=np.uint64), side="right")
        return self._owners[index % len(self._positions)]  # wrap past the top

    def distribution(self, keys):
        """``{node: count}`` of how ``keys`` shard across the ring."""
        counts = {node: 0 for node in self.nodes}
        for key in keys:
            counts[self.node_for(key)] += 1
        return counts
