"""Generic graph analytics over edge tables.

The flagship dedup pipeline's distributed union-find
(stages/cluster.py:cluster_edges, the large/small-star rounds) is exposed
here as a general-purpose connected-components operator over ANY edge
table, plus an exact distributed triangle counter (compact-forward with
degree-ordered orientation, the standard two-shuffle MapReduce scheme).

Scale notes (100 TB posture):
- connected_components inherits cluster_edges' properties: O(log^2 n)
  star rounds of keyed shuffles, driver state bounded (edge fingerprint
  only), small edge sets finish with one vectorized local pass.
- triangle_counts orients every edge from its lower-(degree, id) endpoint
  to the higher one, so wedge generation per node is bounded by its
  *effective* (oriented, out-) degree squared — the hub that breaks the
  naive algorithm has out-degree ~0 after orientation. Wedge closure is a
  keyed co-partition against the canonical edge set: no broadcast of the
  edge set, no all-pairs.

Parity lineage: the mergeability discipline mirrors the reference's
union contract (hll/union.go:151-158) — every stage is a partial
per-block computation folded through a keyed shuffle.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .arrow_util import as_array
from .cluster import cluster_edges
from .context import auto_partitions

def connected_components(edges_ds, src: str = "a", dst: str = "b", *,
                         num_partitions: int = 8):
    """Undirected connected components over an (src, dst) edge table of
    non-negative int64 node ids.

    Returns a Dataset (node: int64, component: int64) where component is
    the MINIMUM node id in the node's component. Only nodes that appear
    in at least one edge are returned (isolated nodes are implicit
    singleton components), matching the SQL min-label-propagation
    fixpoint oracle. The int64 ids go through cluster_edges as they are.
    """

    def enc(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.schema([("a", pa.int64()), ("b", pa.int64())]
                             ).empty_table()
        a = as_array(b.column(src)).cast(pa.int64())
        c = as_array(b.column(dst)).cast(pa.int64())
        # self-loops add nothing (a singleton is its own component)
        return pa.table({"a": a, "b": c}).filter(
            pc.invert(pc.equal(a, c)))

    labs = cluster_edges(
        edges_ds.map_batches(enc, batch_format="pyarrow",
                             zero_copy_batch=True),
        num_partitions=num_partitions)

    def dec(b: pa.Table) -> pa.Table:
        return pa.table({
            "node": b.column("conv_id").cast(pa.int64()),
            "component": b.column("cluster_id").cast(pa.int64()),
        })

    return labs.map_batches(dec, batch_format="pyarrow",
                            zero_copy_batch=True)


_EDGE_EMPTY = pa.table({"u": pa.array([], type=pa.int64()),
                        "v": pa.array([], type=pa.int64())})
_TRI_EMPTY = pa.table({"node": pa.array([], type=pa.int64()),
                       "n_triangles": pa.array([], type=pa.int64())})


def _canon_block(b: pa.Table, src: str, dst: str) -> pa.Table:
    """(src, dst) -> distinct canonical (u=min, v=max), self-loops dropped."""
    if len(b) == 0:
        return _EDGE_EMPTY
    a = as_array(b.column(src)).cast(pa.int64()).to_numpy(
        zero_copy_only=False)
    c = as_array(b.column(dst)).cast(pa.int64()).to_numpy(
        zero_copy_only=False)
    u = np.minimum(a, c)
    v = np.maximum(a, c)
    keep = u != v
    u, v = u[keep], v[keep]
    if not len(u):
        return _EDGE_EMPTY
    return pa.table({"u": pa.array(u), "v": pa.array(v)}).group_by(
        ["u", "v"]).aggregate([])


def _dedup_uv(b: pa.Table) -> pa.Table:
    if len(b) == 0:
        return _EDGE_EMPTY
    return b.group_by(["u", "v"]).aggregate([])


def _canonical_edges(edges_ds, src: str, dst: str, P: int):
    """Distinct canonical (u < v) edge table: in-block canon + dedup,
    (u, v)-keyed shuffle, in-block global dedup. Materialized."""
    return (edges_ds
            .map_batches(lambda b: _canon_block(b, src, dst),
                         batch_format="pyarrow", zero_copy_batch=True)
            .repartition(P, keys=["u", "v"])
            .map_batches(_dedup_uv, batch_format="pyarrow",
                         batch_size=None, zero_copy_batch=True)
            .materialize())


def _bidirectional(canon_ds):
    """canonical (u, v) -> both directions as (s, t)."""

    def flip(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table({"s": pa.array([], type=pa.int64()),
                             "t": pa.array([], type=pa.int64())})
        u, v = as_array(b.column("u")), as_array(b.column("v"))
        return pa.table({"s": pa.concat_arrays([u, v]),
                         "t": pa.concat_arrays([v, u])})

    return canon_ds.map_batches(flip, batch_format="pyarrow",
                                zero_copy_batch=True)


def _degrees(canon_ds, P: int):
    """canonical edges -> (node, deg) via endpoint emission + keyed fold."""

    def endpoints(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table({"node": pa.array([], type=pa.int64())})
        return pa.table({"node": pa.concat_arrays(
            [as_array(b.column("u")), as_array(b.column("v"))])})

    def deg_fold(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table({"node": pa.array([], type=pa.int64()),
                             "deg": pa.array([], type=pa.int64())})
        g = b.group_by("node").aggregate([([], "count_all")])
        return pa.table({"node": g.column("node"),
                         "deg": g.column("count_all").cast(pa.int64())})

    return (canon_ds.map_batches(endpoints, batch_format="pyarrow",
                                 zero_copy_batch=True)
            .repartition(P, keys=["node"])
            .map_batches(deg_fold, batch_format="pyarrow",
                         batch_size=None, zero_copy_batch=True))


_RANK_EMPTY = pa.table({"node": pa.array([], type=pa.int64()),
                        "rank_ppb": pa.array([], type=pa.int64())})


def pagerank_ppb(edges_ds, src: str = "a", dst: str = "b", *,
                 iterations: int = 3, damping_num: int = 17,
                 damping_den: int = 20, num_partitions: int = 8):
    """Deterministic integer PageRank over the undirected simple graph.

    Every quantity is int64 parts-per-billion: rank_0 = 10^9; each
    iteration sends ``rank // deg`` along every edge and folds
    ``rank' = base + (damping_num * sum_in) // damping_den`` with
    ``base = ((damping_den - damping_num) * 10^9) // damping_den``
    (damping 17/20 = 0.85). Floor division everywhere makes the result
    partition-independent and bit-reproducible (integer addition is
    exactly commutative — the same determinism discipline as the
    engine's other iterative trainers), and lets a plain chained-CTE
    SQL oracle reproduce it value-exact.

    Scale note: a node's incoming sum is bounded by the total rank mass
    ~ N * 10^9, so the ppb scale is safe to N ~ 5e8 nodes; beyond that
    drop the scale to ppm. Per iteration: one keyed join (ranks onto the
    pre-partitioned edge list) + one keyed sum fold — no broadcast of
    node-sized state.
    """
    import ray
    import ray.data

    n_in = edges_ds.count()
    P = auto_partitions(max(n_in, 1), 500_000, num_partitions)
    canon = _canonical_edges(edges_ds, src, dst, P)
    if canon.count() == 0:
        return ray.data.from_arrow(_RANK_EMPTY)

    from .join import hash_join

    bidir = _bidirectional(canon)
    degrees = _degrees(canon, P)
    # attach the sender's degree once; re-used every iteration
    edges_deg = hash_join(
        bidir, degrees.rename_columns(["node", "deg"]),
        on=("s", "node"), num_partitions=P).materialize()

    base = ((damping_den - damping_num) * 1_000_000_000) // damping_den

    def init_ranks(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return _RANK_EMPTY
        return pa.table({
            "node": b.column("node"),
            "rank_ppb": pa.array(
                np.full(len(b), 1_000_000_000, dtype=np.int64)),
        })

    ranks = degrees.map_batches(init_ranks, batch_format="pyarrow",
                                zero_copy_batch=True).materialize()

    def contrib(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table({"t": pa.array([], type=pa.int64()),
                             "c": pa.array([], type=pa.int64())})
        r = as_array(b.column("rank_ppb")).to_numpy(zero_copy_only=False)
        d = as_array(b.column("deg")).to_numpy(zero_copy_only=False)
        return pa.table({"t": as_array(b.column("t")),
                         "c": pa.array(r // d)})

    def rank_fold(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return _RANK_EMPTY
        g = b.group_by("t").aggregate([("c", "sum")])
        s = g.column("c_sum").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        return pa.table({
            "node": g.column("t"),
            "rank_ppb": pa.array(base + (damping_num * s) // damping_den),
        })

    for _ in range(iterations):
        with_rank = hash_join(edges_deg, ranks, on=("s", "node"),
                              num_partitions=P)
        ranks = (with_rank
                 .map_batches(contrib, batch_format="pyarrow",
                              zero_copy_batch=True)
                 .repartition(P, keys=["t"])
                 .map_batches(rank_fold, batch_format="pyarrow",
                              batch_size=None, zero_copy_batch=True)
                 .materialize())
    return ranks


_HOPS_EMPTY = pa.table({"node": pa.array([], type=pa.int64()),
                        "hops": pa.array([], type=pa.int64())})


def bfs_hops(edges_ds, src: str = "a", dst: str = "b", *,
             source: int | None = None, max_hops: int = 8,
             num_partitions: int = 8):
    """Minimum hop distance from ``source`` (default: the smallest node
    id in the edge set) to every node reachable within ``max_hops``
    undirected hops. Exact frontier-expansion BFS: per hop, the frontier
    joins the pre-partitioned adjacency list, and newly reached nodes
    are found with a tagged-union keyed co-partition against the settled
    set (no broadcast of node-sized state). Terminates early on an empty
    frontier. Returns (node, hops) including the source at 0.
    """
    import ray
    import ray.data

    n_in = edges_ds.count()
    P = auto_partitions(max(n_in, 1), 500_000, num_partitions)
    canon = _canonical_edges(edges_ds, src, dst, P)
    if canon.count() == 0:
        return ray.data.from_arrow(_HOPS_EMPTY)

    from .join import hash_join

    bidir = _bidirectional(canon).materialize()
    if source is None:
        source = int(min(canon.min("u"), canon.min("v")))

    start = pa.table({"node": pa.array([source], type=pa.int64()),
                      "hops": pa.array([0], type=pa.int64())})
    settled = ray.data.from_arrow(start).materialize()
    frontier = settled

    def neighbor_block(h: int):
        def fn(b: pa.Table) -> pa.Table:
            if len(b) == 0:
                return _HOPS_EMPTY
            # distinct neighbors in-block; the settled co-partition
            # dedups across blocks
            t = as_array(b.column("t"))
            return pa.table({
                "node": t,
                "hops": pa.array(np.full(len(t), h, dtype=np.int64)),
            }).group_by(["node", "hops"]).aggregate([])
        return fn

    def improved_block(b: pa.Table) -> pa.Table:
        """tagged union of settled (hops >= 0 real) and candidates
        (hops = current h): emit candidate nodes with NO settled row."""
        if len(b) == 0:
            return _HOPS_EMPTY
        nodes = as_array(b.column("node")).to_numpy(zero_copy_only=False)
        hops = as_array(b.column("hops")).to_numpy(zero_copy_only=False)
        tag = as_array(b.column("is_settled")).to_numpy(
            zero_copy_only=False)
        cand_mask = ~tag
        if not cand_mask.any():
            return _HOPS_EMPTY
        settled_nodes = np.unique(nodes[tag])
        cn = nodes[cand_mask]
        ch = hops[cand_mask]
        keep = ~np.isin(cn, settled_nodes)
        cn, ch = cn[keep], ch[keep]
        if not len(cn):
            return _HOPS_EMPTY
        uniq, first = np.unique(cn, return_index=True)
        return pa.table({"node": pa.array(uniq),
                         "hops": pa.array(ch[first])})

    def tag(is_settled: bool):
        def fn(b: pa.Table) -> pa.Table:
            out = pa.table({
                "node": as_array(b.column("node")) if len(b) else
                pa.array([], type=pa.int64()),
                "hops": as_array(b.column("hops")) if len(b) else
                pa.array([], type=pa.int64()),
            })
            return out.append_column("is_settled", pa.array(
                np.full(len(out), is_settled, dtype=bool)))
        return fn

    for h in range(1, max_hops + 1):
        cands = (hash_join(bidir, frontier.select_columns(["node"]),
                           on=("s", "node"), num_partitions=P)
                 .map_batches(neighbor_block(h), batch_format="pyarrow",
                              zero_copy_batch=True))
        tagged = (settled.map_batches(tag(True), batch_format="pyarrow",
                                      zero_copy_batch=True)
                  .union(cands.map_batches(tag(False),
                                           batch_format="pyarrow",
                                           zero_copy_batch=True)))
        frontier = (tagged.repartition(P, keys=["node"])
                    .map_batches(improved_block, batch_format="pyarrow",
                                 batch_size=None, zero_copy_batch=True)
                    .materialize())
        if frontier.count() == 0:
            break
        settled = settled.union(frontier).materialize()
    return settled


def triangle_counts(edges_ds, src: str = "a", dst: str = "b", *,
                    num_partitions: int = 8):
    """Exact per-node triangle participation counts over an undirected
    simple graph given as an (src, dst) int64 edge table (duplicates and
    self-loops tolerated; orientation of the input rows irrelevant).

    Returns (node: int64, n_triangles: int64) for nodes in >= 1 triangle.

    Shape: canonical-edge dedup shuffle -> degree fold -> degree-ordered
    orientation (map-side, degrees attached via keyed joins) -> per-source
    wedge expansion -> (u, v)-keyed co-partition closure against the
    canonical edges -> per-corner count fold. Every intermediate is
    bounded: wedges by sum of oriented-degree^2, closure groups by the
    wedge multiplicity of a single edge key.
    """
    import ray
    import ray.data  # noqa: F401

    n_in = edges_ds.count()
    P = auto_partitions(max(n_in, 1), 500_000, num_partitions)

    canon = _canonical_edges(edges_ds, src, dst, P)
    if canon.count() == 0:
        return ray.data.from_arrow(_TRI_EMPTY)

    # Degrees are node-sized; re-joined to the edges by key, never
    # broadcast.
    degrees = _degrees(canon, P)

    from .join import hash_join

    with_du = hash_join(canon, degrees.rename_columns(["node", "deg_u"]),
                        on=("u", "node"), num_partitions=P)
    with_both = hash_join(with_du,
                          degrees.rename_columns(["node", "deg_v"]),
                          on=("v", "node"), num_partitions=P)

    # Orient each edge from its lower-(deg, id) endpoint to the higher.
    def orient(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table({"s": pa.array([], type=pa.int64()),
                             "t": pa.array([], type=pa.int64())})
        u = as_array(b.column("u")).to_numpy(zero_copy_only=False)
        v = as_array(b.column("v")).to_numpy(zero_copy_only=False)
        du = as_array(b.column("deg_u")).to_numpy(zero_copy_only=False)
        dv = as_array(b.column("deg_v")).to_numpy(zero_copy_only=False)
        u_first = (du < dv) | ((du == dv) & (u < v))
        s = np.where(u_first, u, v)
        t = np.where(u_first, v, u)
        return pa.table({"s": pa.array(s), "t": pa.array(t)})

    oriented = with_both.map_batches(orient, batch_format="pyarrow",
                                     zero_copy_batch=True)

    _WEDGE_EMPTY = pa.table({"u": pa.array([], type=pa.int64()),
                             "v": pa.array([], type=pa.int64()),
                             "center": pa.array([], type=pa.int64())})

    # Wedges: for each source s, all unordered out-neighbor pairs. The
    # closure key is the canonical (min, max) of the pair so it meets the
    # canonical edge table on the same partitioning.
    def wedges(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return _WEDGE_EMPTY
        s = as_array(b.column("s")).to_numpy(zero_copy_only=False)
        t = as_array(b.column("t")).to_numpy(zero_copy_only=False)
        order = np.lexsort((t, s))
        ss, ts = s[order], t[order]
        first = np.empty(len(ss), dtype=bool)
        first[0] = True
        np.not_equal(ss[1:], ss[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        lens = np.diff(np.append(starts, len(ss)))
        a_parts, b_parts, c_parts = [], [], []
        for g in np.unique(lens):
            if g < 2:
                continue
            offs = starts[lens == g]
            idx = offs[:, None] + np.arange(g)
            ii, jj = np.triu_indices(g, k=1)
            ta = ts[idx][:, ii].ravel()
            tb = ts[idx][:, jj].ravel()
            a_parts.append(np.minimum(ta, tb))
            b_parts.append(np.maximum(ta, tb))
            c_parts.append(np.repeat(ss[offs], len(ii)))
        if not a_parts:
            return _WEDGE_EMPTY
        return pa.table({"u": pa.array(np.concatenate(a_parts)),
                         "v": pa.array(np.concatenate(b_parts)),
                         "center": pa.array(np.concatenate(c_parts))})

    wedge_ds = (oriented.repartition(P, keys=["s"])
                .map_batches(wedges, batch_format="pyarrow",
                             batch_size=None, zero_copy_batch=True))

    # Tag-union closure: edges carry center = -1 (node ids are
    # non-negative); wedges carry their center. After the (u, v) keyed
    # shuffle a wedge is a triangle iff its (u, v) key also appears as an
    # edge row in the same block.
    def tag_edge(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return _WEDGE_EMPTY
        return b.append_column(
            "center", pa.array(np.full(len(b), -1, dtype=np.int64)))

    tagged = wedge_ds.union(canon.map_batches(
        tag_edge, batch_format="pyarrow", zero_copy_batch=True))

    def close_block(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return _TRI_EMPTY
        u = as_array(b.column("u")).to_numpy(zero_copy_only=False)
        v = as_array(b.column("v")).to_numpy(zero_copy_only=False)
        c = as_array(b.column("center")).to_numpy(zero_copy_only=False)
        is_edge = c == -1
        if not is_edge.any() or is_edge.all():
            return _TRI_EMPTY
        # composite lexicographic membership via sorted structured arrays
        edge_rec = np.empty(int(is_edge.sum()), dtype=[("u", np.int64),
                                                       ("v", np.int64)])
        edge_rec["u"], edge_rec["v"] = u[is_edge], v[is_edge]
        edge_rec.sort(order=("u", "v"))
        wu, wv, wc = u[~is_edge], v[~is_edge], c[~is_edge]
        wedge_rec = np.empty(len(wu), dtype=[("u", np.int64),
                                             ("v", np.int64)])
        wedge_rec["u"], wedge_rec["v"] = wu, wv
        idx = np.searchsorted(edge_rec, wedge_rec, side="left")
        hit = np.zeros(len(wu), dtype=bool)
        idx_ok = idx < len(edge_rec)
        hit[idx_ok] = edge_rec[idx[idx_ok]] == wedge_rec[idx_ok]
        if not hit.any():
            return _TRI_EMPTY
        corners = np.concatenate([wu[hit], wv[hit], wc[hit]])
        nodes, cnt = np.unique(corners, return_counts=True)
        return pa.table({"node": pa.array(nodes),
                         "n_triangles": pa.array(cnt.astype(np.int64))})

    def count_fold(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return _TRI_EMPTY
        g = b.group_by("node").aggregate([("n_triangles", "sum")])
        return pa.table({
            "node": g.column("node"),
            "n_triangles": g.column("n_triangles_sum").cast(pa.int64()),
        })

    return (tagged.repartition(P, keys=["u", "v"])
            .map_batches(close_block, batch_format="pyarrow",
                         batch_size=None, zero_copy_batch=True)
            .repartition(max(P // 2, 1), keys=["node"])
            .map_batches(count_fold, batch_format="pyarrow",
                         batch_size=None, zero_copy_batch=True))


_CORE_EMPTY = pa.table({"node": pa.array([], type=pa.int64()),
                        "core_deg": pa.array([], type=pa.int64())})


def kcore(edges_ds, src: str = "a", dst: str = "b", *, k: int = 2,
          num_partitions: int = 8, max_rounds: int = 64):
    """Nodes of the k-core (maximal subgraph with minimum degree >= k)
    plus each survivor's within-core degree. Iterative peeling: per
    round, degree fold -> the round's sub-k nodes re-enter as a tagged
    union on each endpoint's key (co-partition filter, no node-sized
    broadcast) -> incident edges drop. Terminates when a round removes
    nothing (peeling strictly shrinks the edge set, so rounds are
    bounded by the degeneracy ordering depth; ``max_rounds`` is a
    backstop).
    """
    import ray
    import ray.data

    if k < 1:
        raise ValueError("k must be >= 1")
    n_in = edges_ds.count()
    P = auto_partitions(max(n_in, 1), 500_000, num_partitions)
    edges = _canonical_edges(edges_ds, src, dst, P)

    def _filter_endpoint(edges_ds_, bad_nodes_ds, col):
        """drop edge rows whose ``col`` endpoint appears in bad_nodes:
        tagged union keyed on the endpoint, in-block membership test."""
        def tag_edge(b: pa.Table) -> pa.Table:
            if len(b) == 0:
                return pa.table({"u": pa.array([], type=pa.int64()),
                                 "v": pa.array([], type=pa.int64()),
                                 "key": pa.array([], type=pa.int64()),
                                 "bad": pa.array([], type=pa.bool_())})
            return pa.table({
                "u": b.column("u"), "v": b.column("v"),
                "key": b.column(col),
                "bad": pa.array(np.zeros(len(b), dtype=bool)),
            })

        def tag_bad(b: pa.Table) -> pa.Table:
            if len(b) == 0:
                return pa.table({"u": pa.array([], type=pa.int64()),
                                 "v": pa.array([], type=pa.int64()),
                                 "key": pa.array([], type=pa.int64()),
                                 "bad": pa.array([], type=pa.bool_())})
            n = len(b)
            z = pa.array(np.zeros(n, dtype=np.int64))
            return pa.table({"u": z, "v": z, "key": b.column("node"),
                             "bad": pa.array(np.ones(n, dtype=bool))})

        def drop(b: pa.Table) -> pa.Table:
            if len(b) == 0:
                return _EDGE_EMPTY
            bad = b.column("bad").to_numpy(zero_copy_only=False)
            keys = b.column("key").to_numpy(zero_copy_only=False)
            bad_keys = np.unique(keys[bad])
            keep = ~bad
            if len(bad_keys):
                keep &= ~np.isin(keys, bad_keys)
            t = b.filter(pa.array(keep))
            return pa.table({"u": t.column("u"), "v": t.column("v")})

        tagged = (edges_ds_.map_batches(tag_edge, batch_format="pyarrow",
                                        zero_copy_batch=True)
                  .union(bad_nodes_ds.map_batches(
                      tag_bad, batch_format="pyarrow",
                      zero_copy_batch=True)))
        return (tagged.repartition(P, keys=["key"])
                .map_batches(drop, batch_format="pyarrow",
                             batch_size=None, zero_copy_batch=True))

    for _ in range(max_rounds):
        if edges.count() == 0:
            return ray.data.from_arrow(_CORE_EMPTY)
        degrees = _degrees(edges, P).materialize()
        bad = degrees.filter(expr=f"deg < {k}").select_columns(
            ["node"]).materialize()
        if bad.count() == 0:
            def finish(b: pa.Table) -> pa.Table:
                if len(b) == 0:
                    return _CORE_EMPTY
                return pa.table({"node": b.column("node"),
                                 "core_deg": b.column("deg")})
            return degrees.map_batches(finish, batch_format="pyarrow",
                                       zero_copy_batch=True)
        edges = _filter_endpoint(
            _filter_endpoint(edges, bad, "u"), bad, "v").materialize()
    raise RuntimeError("kcore failed to converge within max_rounds")


def bridge_edges(edges_ds, src: str = "a", dst: str = "b", *,
                 num_partitions: int = 8,
                 max_component_edges: int = 2_000_000):
    """Bridge edges (edges whose removal disconnects their component) —
    the over-merge risk detector for near-dup clusters: a cluster held
    together by one bridge pair is one false positive away from being
    two clusters, so bridges rank the pairs worth human review.

    Distributed shape: label every node via :func:`connected_components`
    (keyed min-label exchange), attach labels to edges, co-partition by
    component, then run the classical iterative-DFS low-link bridge
    scan PER COMPONENT inside the block — exact, and bounded because
    real dup-cluster components are small (the flagship's verify stage
    already caps cluster growth). Components above
    ``max_component_edges`` are skipped and reported with
    bridge = -1 sentinel rows (never silently dropped).

    Semantics are on the SIMPLE graph: edges are canonicalized and
    deduplicated first (parallel input rows collapse to one edge), the
    standard definition for dup-cluster edge tables.

    Returns (component, u, v, is_bridge: 1 / skipped: -1)."""
    labels = connected_components(edges_ds, src, dst,
                                  num_partitions=num_partitions) \
        .materialize()

    from .join import hash_join

    canon = edges_ds.map_batches(
        lambda b: _canon_block(b, src, dst), batch_format="pyarrow",
        zero_copy_batch=True)
    lab = labels.map_batches(
        lambda b: pa.table({"u": b.column("node"),
                            "component": b.column("component")}),
        batch_format="pyarrow", zero_copy_batch=True)
    tagged = hash_join(canon, lab, on=("u", "u"))

    def per_component(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table({
                "component": pa.array([], type=pa.int64()),
                "u": pa.array([], type=pa.int64()),
                "v": pa.array([], type=pa.int64()),
                "is_bridge": pa.array([], type=pa.int64()),
            })
        comp = b.column("component").to_numpy(zero_copy_only=False)
        uu = b.column("u").to_numpy(zero_copy_only=False)
        vv = b.column("v").to_numpy(zero_copy_only=False)
        out_c, out_u, out_v, out_f = [], [], [], []
        order = np.argsort(comp, kind="stable")
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and comp[order[j + 1]] == \
                    comp[order[i]]:
                j += 1
            idx = order[i:j + 1]
            c0 = int(comp[idx[0]])
            # _canon_block dedups per input block only; duplicates from
            # different blocks meet here — collapse to the simple graph
            es = sorted({(int(uu[x]), int(vv[x])) for x in idx})
            if len(es) > max_component_edges:
                for (eu, ev) in es:
                    out_c.append(c0)
                    out_u.append(eu)
                    out_v.append(ev)
                    out_f.append(-1)
                i = j + 1
                continue
            bridges = _bridges_local(es)
            for (eu, ev) in es:
                out_c.append(c0)
                out_u.append(eu)
                out_v.append(ev)
                out_f.append(1 if (eu, ev) in bridges else 0)
            i = j + 1
        return pa.table({
            "component": pa.array(out_c, type=pa.int64()),
            "u": pa.array(out_u, type=pa.int64()),
            "v": pa.array(out_v, type=pa.int64()),
            "is_bridge": pa.array(out_f, type=pa.int64()),
        })

    return (tagged.repartition(num_partitions, keys=["component"])
            .map_batches(per_component, batch_format="pyarrow",
                         batch_size=None, zero_copy_batch=True))


def _bridges_local(edges: list) -> set:
    """Iterative Tarjan low-link bridge finding on one component's
    distinct canonical (u < v) edge list (simple graph; self-loops
    ignored)."""
    from collections import defaultdict

    adj = defaultdict(list)
    for (u, v) in set(edges):
        if u == v:
            continue
        adj[u].append(v)
        adj[v].append(u)
    disc, low = {}, {}
    bridges = set()
    timer = [0]
    for root in adj:
        if root in disc:
            continue
        # iterative DFS: stack of (node, parent, neighbor-iterator)
        stack = [(root, None, iter(adj[root]))]
        disc[root] = low[root] = timer[0]
        timer[0] += 1
        while stack:
            node, parent, it = stack[-1]
            advanced = False
            for nb in it:
                if nb not in disc:
                    disc[nb] = low[nb] = timer[0]
                    timer[0] += 1
                    stack.append((nb, node, iter(adj[nb])))
                    advanced = True
                    break
                elif nb != parent:
                    low[node] = min(low[node], disc[nb])
            if not advanced:
                stack.pop()
                if stack:
                    pnode = stack[-1][0]
                    low[pnode] = min(low[pnode], low[node])
                    if low[node] > disc[pnode]:
                        bridges.add((min(pnode, node), max(pnode, node)))
    return bridges
