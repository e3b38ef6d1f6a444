"""Union-find with deterministic min-labeling.

Local DSU (path halving) used inside per-partition stages and by the
single-process oracle; the distributed pipeline runs iterative min-label
propagation over hash-partitioned edges (stages/cluster.py) and must
produce the same components, labeled by the minimum member id.
"""

from __future__ import annotations

import numpy as np


class UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        p = self.parent
        while x in p and p[x] != x:
            gp = p.get(p[x], p[x])
            p[x] = gp
            x = gp
        if x not in p:
            p[x] = x
        return x

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        # deterministic: smaller id becomes root
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra

    def components(self) -> dict:
        """node -> min-member label for every node ever seen."""
        return {x: self.find(x) for x in list(self.parent)}


def connected_components_numpy(u: np.ndarray, v: np.ndarray,
                               k: int) -> np.ndarray:
    """Vectorized connected components over integer-coded edges.

    Returns labels[0..k): the minimum member code of each node's
    component. Classic hook + pointer-jumping: every iteration hooks the
    larger endpoint root to the smaller (np.minimum.at) then compresses
    parents to roots; converges in O(log k) fully-vectorized rounds.
    Codes must be order-preserving for min-label == min-id semantics."""
    parent = np.arange(k, dtype=np.int64)
    if len(u) == 0:
        return parent
    while True:
        pu, pv = parent[u], parent[v]
        hi = np.maximum(pu, pv)
        lo = np.minimum(pu, pv)
        before = parent.copy()
        np.minimum.at(parent, hi, lo)
        # full path compression
        while True:
            gp = parent[parent]
            if (gp == parent).all():
                break
            parent = gp
        if (parent == before).all():
            return parent
