"""Distributed union-find: iterative keyed-fold edge exchange.

Connected components over the verified edge set via alternating
large-star / small-star rounds (Kiveris et al., "Connected Components in
MapReduce and Beyond" — public algorithm), which converges in O(log^2 n)
rounds even on long chains (the skew-cap pair chains from stages/lsh.py
can be long). Built ONLY from the engine's keyed fold
(``stages/keyed.keyed_fold``: each node's neighborhood co-located in one
block, sorted by neighbor) and fully vectorized per-block scans over its
key runs — no driver-side row loops, no Dataset.join.

  large-star(u): for neighbors v > u, rewire v to m = min(N(u) ∪ {u})
  small-star(u): for neighbors v <= u, rewire v and u to
                 m = min({v in N(u): v <= u} ∪ {u})

Per-block vectorization: ids are coded once per block with
``stages/ids.local_codes`` (block-local integer codes that preserve id
order, so min-by-code == min-by-id, for string, bridge-rank and integer
ids alike), and every star operation is mask arithmetic over the codes.
Edges are deduped in-block (the only place duplicates can meet is the
block that owns their source key), so no separate dedup exchange is
needed — one fold per star, two per round, one materialization per
round.

The edge set monotonically contracts toward stars rooted at each
component's minimum id; at the fixed point every edge is (component_min,
member), giving deterministic min-id cluster labels identical to the
single-process oracle's DSU labeling. Fixed point is detected by an
(edge-count, order-independent checksum) pair going stable.

Partition count is auto-sized to the edge volume (tiny edge sets don't
pay for wide shuffles; huge ones still spread) and each round's edge set
can be checkpointed through ``checkpoint_cb``.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import ray.data

from .arrow_util import as_array
from ..functions.murmur3 import fmix64, hash_strings
from .ids import id_keys, ids_at, local_codes, map_decode, map_encode
from .keyed import keyed_fold, run_heads

# target edges per shuffle partition when auto-sizing
_EDGES_PER_PART = 50_000


def _dedup_codes(u: np.ndarray, v: np.ndarray, k: int):
    """Unique (u, v) pairs via a packed int64 key; returns sorted by u,v."""
    key = np.unique(u * k + v)
    return key // k, key % k


def _explode_bidirectional(batch: pa.Table) -> pa.Table:
    a = as_array(batch.column("a"))
    b = as_array(batch.column("b"))
    return pa.table({
        "u": pa.concat_arrays([a, b]),
        "v": pa.concat_arrays([b, a]),
    })


def _distinct_nbrs(batch: pa.Table, starts: np.ndarray):
    """Block sorted by (u, v) -> (u, v) codes of its distinct edges, the
    start and size of each node's neighbor run, and the id dictionary."""
    u, v, uniq = local_codes(batch.column("u"), batch.column("v"))
    heads = run_heads(starts, v)
    starts = (np.cumsum(heads) - 1)[starts]
    return u[heads], v[heads], starts, np.diff(
        np.append(starts, int(heads.sum()))), uniq


def _star_block(batch: pa.Table, starts: np.ndarray,
                large: bool) -> pa.Table:
    """One star operation over all nodes whose neighborhoods live in this
    block (sorted by (u, v), ``starts`` the node runs). Fully vectorized
    on block-local codes."""
    u, v, starts, counts, uniq = _distinct_nbrs(batch, starts)
    k = len(uniq)
    nodes = u[starts]
    min_nbr = v[starts]                      # v sorted within group
    if large:
        # m = min(node, min neighbor); emit (m, t) for t > node, t != m
        m = np.minimum(nodes, min_nbr)
        grp_m = np.repeat(m, counts)
        mask = (v > u) & (v != grp_m)
        a_c, b_c = grp_m[mask], v[mask]
    else:
        # m = min(node, min small neighbor); emit (m, t) for small t != m
        # and (m, node) when node != m
        first_small = np.where(min_nbr <= nodes, min_nbr, nodes)
        m = np.minimum(nodes, first_small)
        grp_m = np.repeat(m, counts)
        mask = (v <= u) & (v != grp_m)
        keep_node = nodes != m
        a_c = np.concatenate([grp_m[mask], m[keep_node]])
        b_c = np.concatenate([v[mask], nodes[keep_node]])
    a_c, b_c = _dedup_codes(a_c, b_c, k)
    return pa.table({"a": ids_at(uniq, a_c), "b": ids_at(uniq, b_c)})


def _checksum_block(batch: pa.Table) -> pa.Table:
    """Order-independent (count, sum-of-hash) fingerprint of an edge set."""
    n = len(batch)
    if n == 0:
        return pa.table({"n": pa.array([0], type=pa.int64()),
                         "h": pa.array([0], type=pa.uint64())})
    h = fmix64(id_keys(batch.column("a")) * np.uint64(3)
               ^ id_keys(batch.column("b")))
    with np.errstate(over="ignore"):
        total = np.uint64(np.sum(h, dtype=np.uint64))
    return pa.table({"n": pa.array([n], type=pa.int64()),
                     "h": pa.array([int(total)], type=pa.uint64())})


def _fingerprint(edges) -> tuple[int, int]:
    parts = edges.map_batches(_checksum_block, batch_format="pyarrow",
                              zero_copy_batch=True).take_all()
    n = sum(p["n"] for p in parts)
    h = 0
    for p in parts:
        h = (h + int(p["h"])) & 0xFFFFFFFFFFFFFFFF
    return n, h


def _by_node(edges, fn, P: int):
    """Fold ``fn`` over each node's neighborhood (both edge directions)."""
    return keyed_fold(
        edges.map_batches(_explode_bidirectional, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["u"], fn, P, order_by=["v"])


def _star(edges, P: int, large: bool):
    return _by_node(edges, functools.partial(_star_block, large=large), P)


# edge sets at or below this size finish on the driver (vectorized
# hook + pointer-jump CC): the same bounded-small-side gate as the
# broadcast join. 2M edges ~= 90 MB of id strings — trivial next to a
# worker heap; above it, the iterative star rounds take over.
_LOCAL_EDGE_THRESHOLD = 2_000_000


def _cluster_local(edges) -> pa.Table:
    """Driver-side finish: gather the (pre-shrunk, non-empty) edge set,
    code the ids order-preservingly, run vectorized CC, emit min-member
    labels — identical output to the distributed fixed point."""
    from ..state.unionfind import connected_components_numpy

    from .context import gather_table

    tbl = gather_table(edges)
    inv_a, inv_b, uniq = local_codes(tbl.column("a"), tbl.column("b"))
    labels = connected_components_numpy(inv_a, inv_b, len(uniq))
    return pa.table({"conv_id": uniq, "cluster_id": ids_at(uniq, labels)})


def _labels_block(batch: pa.Table, starts: np.ndarray) -> pa.Table:
    """Fixed point: every edge is (component_min, member). Labels:
    member -> min neighbor; centers label themselves."""
    u, v, starts, _counts, uniq = _distinct_nbrs(batch, starts)
    nodes = u[starts]
    return pa.table({"conv_id": ids_at(uniq, nodes),
                     "cluster_id": ids_at(uniq, np.minimum(nodes, v[starts]))})


def cluster_edges(edges_ds, num_partitions: int, max_rounds: int = 40,
                  checkpoint_cb=None,
                  local_threshold: int = _LOCAL_EDGE_THRESHOLD,
                  bridge_ref=None):
    """edge table (a, b) -> cluster assignment (conv_id, cluster_id).

    Ids may be strings or integers; labels come back in the edges' id
    type (string for an empty edge set). Only nodes appearing in edges
    are returned (singleton convs are implicit clusters of themselves).
    Small edge sets (<= local threshold) finish with one driver-side
    vectorized CC pass instead of paying per-round shuffle latency;
    round checkpoints apply to the distributed path only (the local
    path is a single atomic step under the pipeline's stage checkpoint).

    ``bridge_ref`` codes string edges once for every star-round exchange
    and decodes the labels (stages/ids.py); labels are the same either
    way because rank order is string order."""
    edges = map_encode(edges_ds.select_columns(["a", "b"]), ["a", "b"],
                       bridge_ref).materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return ray.data.from_arrow(pa.table({
            "conv_id": pa.array([], type=pa.string()),
            "cluster_id": pa.array([], type=pa.string())}))
    if n_edges <= local_threshold:
        labels = ray.data.from_arrow(_cluster_local(edges))
    else:
        P = int(np.clip(-(-n_edges // _EDGES_PER_PART), 1, num_partitions))
        fp = _fingerprint(edges)
        for rnd in range(max_rounds):
            # large-star then small-star, one materialization per round
            edges = _star(_star(edges, P, large=True), P,
                          large=False).materialize()
            if checkpoint_cb is not None:
                checkpoint_cb(rnd, edges)
            new_fp = _fingerprint(edges)
            if new_fp == fp:
                break
            fp = new_fp
        labels = _by_node(edges, _labels_block, P)
    return map_decode(labels, ["conv_id", "cluster_id"], bridge_ref)


def cluster_representatives(clusters_ds, turns_ds,
                            conv_col: str = "conv_id", *,
                            num_partitions: int = 16):
    """Pick one representative conversation per near-dup cluster —
    keep-best curation: the member with the most turns, conv_id as the
    deterministic tie-break — plus cluster size and the winner's turn
    count. Plan: per-block partial turn counts -> conv-keyed fold ->
    broadcast-or-copartition join with the (small) cluster labels ->
    per-cluster argmax fold. Only (conv, count) rows and labels move;
    turn text never enters the shuffle."""
    from .context import auto_partitions
    from .join import hash_join

    def count_partial(b: pa.Table) -> pa.Table:
        g = b.select([conv_col]).group_by(conv_col).aggregate([([], "count_all")])
        return pa.table({conv_col: g.column(conv_col),
                         "n_turns": g.column("count_all").cast(pa.int64())})

    def count_fold(b: pa.Table, _starts) -> pa.Table:
        g = b.group_by(conv_col).aggregate([("n_turns", "sum")])
        return pa.table({conv_col: g.column(conv_col),
                         "n_turns": g.column("n_turns_sum").cast(pa.int64())})

    P = auto_partitions(turns_ds.count(), 1_000_000, num_partitions)
    counts = keyed_fold(
        turns_ds.select_columns([conv_col]).map_batches(
            count_partial, batch_format="pyarrow", zero_copy_batch=True),
        [conv_col], count_fold, P, order_by=None)
    joined = hash_join(counts, clusters_ds, on=(conv_col, conv_col),
                       num_partitions=num_partitions)

    def _fold(cl, cv, nt, sz) -> pa.Table:
        # best-first order inside each cluster: n_turns desc, conv asc
        order = np.lexsort((cv, -nt, cl))
        scl, scv, snt = cl[order], cv[order], nt[order]
        first = np.empty(len(scl), dtype=bool)
        first[0] = True
        np.not_equal(scl[1:], scl[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        grp = np.cumsum(first) - 1
        sizes = np.zeros(len(starts), dtype=np.int64)
        np.add.at(sizes, grp, sz[order])
        return pa.table({
            "cluster_id": pa.array(scl[starts]),
            "rep_conv_id": pa.array(scv[starts]),
            "n_convs": pa.array(sizes),
            "rep_n_turns": pa.array(snt[starts].astype(np.int64)),
        })

    def argmax_partial(b: pa.Table) -> pa.Table:
        return _fold(
            b.column("cluster_id").to_numpy(zero_copy_only=False),
            b.column(conv_col).to_numpy(zero_copy_only=False),
            b.column("n_turns").to_numpy(zero_copy_only=False),
            np.ones(len(b), dtype=np.int64))

    def argmax_final(b: pa.Table, _starts) -> pa.Table:
        return _fold(
            b.column("cluster_id").to_numpy(zero_copy_only=False),
            b.column("rep_conv_id").to_numpy(zero_copy_only=False),
            b.column("rep_n_turns").to_numpy(zero_copy_only=False),
            b.column("n_convs").to_numpy(zero_copy_only=False))

    # partial argmax per block, then one cluster-keyed exchange: at most
    # one row per (block, cluster) enters the shuffle
    CP = auto_partitions(clusters_ds.count(), 500_000, num_partitions)
    return keyed_fold(
        joined.map_batches(argmax_partial, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["cluster_id"], argmax_final, CP, order_by=None)


def leakage_safe_split(clusters_ds, convs_ds,
                       conv_col: str = "conv_id", *,
                       eval_permille: int = 100, seed: int = 9001,
                       num_partitions: int = 16):
    """Train/eval split that cannot leak near-duplicates across the
    boundary: every member of a near-dup cluster inherits its
    CLUSTER's deterministic hash bucket, so a cluster lands wholly in
    train or wholly in eval; unclustered conversations split by their
    own id hash. The correctness property train_eval_split alone
    cannot give — eval contamination via near-dups — falls out by
    construction. Plan: broadcast-or-copartition join of the (small)
    cluster labels onto the conv universe, then one vectorized murmur
    bucket per row; no extra shuffle beyond the join."""
    import pyarrow.compute as pc

    from .join import hash_join

    from .context import auto_partitions

    def distinct_convs(b: pa.Table, _starts=None) -> pa.Table:
        return pa.table({
            conv_col: b.column(conv_col).cast(pa.string()),
        }).group_by(conv_col).aggregate([])

    # per-block distinct -> keyed shuffle -> per-block distinct gives a
    # globally unique conv universe (same combiner discipline as the
    # exact-dedup stage)
    P = auto_partitions(convs_ds.count(), 2_000_000, num_partitions)
    universe = keyed_fold(
        convs_ds.select_columns([conv_col]).map_batches(
            distinct_convs, batch_format="pyarrow", zero_copy_batch=True),
        [conv_col], distinct_convs, P, order_by=None)
    joined = hash_join(universe, clusters_ds,
                       on=(conv_col, conv_col),
                       num_partitions=num_partitions,
                       join_type="left outer")

    def assign(b: pa.Table) -> pa.Table:
        conv = b.column(conv_col)
        cl = b.column("cluster_id")
        keys = pc.coalesce(cl.cast(pa.string()),
                           conv.cast(pa.string()))
        h1, _ = hash_strings(as_array(keys), seed=seed)
        bucket = (h1 % np.uint64(1000)).astype(np.int64)
        is_eval = bucket < eval_permille
        return pa.table({
            conv_col: conv,
            "split": pa.array(np.where(is_eval, "eval", "train"),
                              type=pa.string()),
        })

    return joined.map_batches(assign, batch_format="pyarrow",
                              zero_copy_batch=True)
