"""Relational building blocks beyond the equi-join: scalable top-k,
exact grouped distinct counts, and broadcast semi/anti joins.

Each follows the partial-combine-final discipline the reference's
mergeable sketches impose (SURVEY.md §3.4): per-block combiners shrink
data before any shuffle, and the "final" step only ever sees k rows per
block (top_k) or pre-distinct keys (distinct counts).
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .context import auto_partitions
from .keyed import (keyed_fold, np_col, rank_in_segment, segment_ends,
                    segment_ids, sort_segments)


def _topk_block(b: pa.Table, sort_keys: list[tuple[str, str]],
                k: int) -> pa.Table:
    if len(b) <= k:
        return b
    idx = pc.sort_indices(b, sort_keys=sort_keys)[:k]
    return b.take(idx)


def top_k(ds, sort_keys: list[tuple[str, str]], k: int):
    """Global top-k rows under a (col, 'ascending'|'descending') order.

    Per-block partial top-k (the combiner — each block forwards at most
    k rows) -> single final block -> exact top-k. No global sort: the
    all-to-all a `ds.sort().limit(k)` would pay is replaced by a
    gather of num_blocks*k rows."""
    partial = ds.map_batches(
        functools.partial(_topk_block, sort_keys=sort_keys, k=k),
        batch_format="pyarrow", zero_copy_batch=True)
    return partial.repartition(1).map_batches(
        functools.partial(_topk_block, sort_keys=sort_keys, k=k),
        batch_format="pyarrow", batch_size=None, zero_copy_batch=True)


def distinct_count_by(ds, group_col: str, distinct_col: str, *,
                      num_partitions: int = 32):
    """Exact count(DISTINCT distinct_col) per group_col.

    Per-block pre-distinct (combiner) -> hash shuffle on BOTH columns
    (global distinct without ever co-locating a whole group) ->
    per-block distinct + per-group partial counts -> tiny shuffle on
    group -> sum. Two shuffles, both over pre-shrunk data."""

    def pre(b: pa.Table) -> pa.Table:
        return b.select([group_col, distinct_col]) \
            .group_by([group_col, distinct_col]).aggregate([])

    def count_partial(b: pa.Table, _) -> pa.Table:
        d = b.group_by([group_col, distinct_col]).aggregate([])
        g = d.group_by(group_col).aggregate([(distinct_col, "count")])
        return pa.table({
            group_col: g.column(group_col),
            "n_distinct": g.column(f"{distinct_col}_count")
                .cast(pa.int64()),
        })

    def fold(b: pa.Table, _) -> pa.Table:
        g = b.group_by(group_col).aggregate([("n_distinct", "sum")])
        return pa.table({
            group_col: g.column(group_col),
            "n_distinct": g.column("n_distinct_sum").cast(pa.int64()),
        })

    P = auto_partitions(ds.count(), 500_000, num_partitions)
    pre_ds = ds.map_batches(pre, batch_format="pyarrow", zero_copy_batch=True)
    counts = keyed_fold(pre_ds, [group_col, distinct_col], count_partial,
                        P, None)
    return keyed_fold(counts, [group_col], fold, min(8, P), None)


def _distinct_keys_table(ds, col: str) -> pa.Table:
    """Driver-side distinct key column of a dataset (combiner first, so
    only pre-distinct per-block keys cross the wire)."""

    def pre(b: pa.Table) -> pa.Table:
        return pa.table({col: pc.unique(b.column(col).combine_chunks())})

    # materialize before to_arrow_refs: on a lazy dataset that call runs
    # the pipeline twice (once more for a limit-1 schema pass)
    parts = ray.get(ds.map_batches(
        pre, batch_format="pyarrow", zero_copy_batch=True)
        .materialize().to_arrow_refs())
    allk = pa.concat_tables([p for p in parts if len(p)]) if parts \
        else pa.table({col: pa.array([])})
    return pa.table({col: pc.unique(allk.column(col).combine_chunks())})


def _semi_anti_batch(b: pa.Table, keys_ref, lk: str, rk: str,
                     join_type: str) -> pa.Table:
    from .join import _RIGHT_CACHE

    key = keys_ref.hex() if hasattr(keys_ref, "hex") else id(keys_ref)
    right = _RIGHT_CACHE.get(key)
    if right is None:
        right = ray.get(keys_ref)
        _RIGHT_CACHE[key] = right
    return b.join(right, keys=[lk], right_keys=[rk], join_type=join_type)


def semi_join(left_ds, right_ds, on: tuple[str, str]):
    """left rows whose key appears in right (broadcast the distinct right
    keys once via ray.put; map-only, zero shuffles)."""
    return _semi_anti(left_ds, right_ds, on, "left semi")


def anti_join(left_ds, right_ds, on: tuple[str, str]):
    """left rows whose key does NOT appear in right."""
    return _semi_anti(left_ds, right_ds, on, "left anti")


def _semi_anti(left_ds, right_ds, on: tuple[str, str], join_type: str):
    lk, rk = on
    keys_ref = ray.put(_distinct_keys_table(right_ds, rk))
    return left_ds.map_batches(
        functools.partial(_semi_anti_batch, keys_ref=keys_ref, lk=lk,
                          rk=rk, join_type=join_type),
        batch_format="pyarrow", zero_copy_batch=True)


def range_sort(ds, col: str, *, num_partitions: int = 16,
               descending: bool = False, kll_k: int = 400):
    """Globally-ordered output via KLL range partitioning — the
    reference's GetPartitionBoundaries
    (kll/items_sketch_partition_boundaries.go:35-59) applied to its
    stated purpose: sizing a range shuffle.

    One sampling pass builds a merged KLL sketch of the sort column
    (KB-sized partials, driver merge); evenly-spaced-rank boundaries
    assign each row a partition id; a hash shuffle on the id co-locates
    each range; blocks sort locally. Ordering holds across blocks when
    read in partition order (__part is ascending in the output and
    dropped after verification). Unlike ds.sort() this exposes the
    boundary state (checkpointable, reusable across runs)."""
    from ..state.kll import KllSketch

    def sample(b: pa.Table) -> pa.Table:
        sk = KllSketch(kll_k)
        vals = b.column(col).to_numpy(zero_copy_only=False)
        sk.update_many(vals.astype(np.float64))
        return pa.table({"sk": pa.array([sk.to_bytes()],
                                        type=pa.large_binary())})

    merged = KllSketch(kll_k)
    for r in ds.select_columns([col]).map_batches(
            sample, batch_format="pyarrow",
            zero_copy_batch=True).take_all():
        merged.merge(KllSketch.from_bytes(r["sk"]))
    inner = merged.get_partition_boundaries(num_partitions)[1:-1]
    bounds = np.unique(inner)

    def assign(b: pa.Table) -> pa.Table:
        vals = b.column(col).to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        part = np.searchsorted(bounds, vals, side="right")
        if descending:
            part = len(bounds) - part
        return b.append_column("__part",
                               pa.array(part.astype(np.int64)))

    def sort_block(b: pa.Table, _) -> pa.Table:
        order = "descending" if descending else "ascending"
        idx = pc.sort_indices(b, sort_keys=[(col, order)])
        return b.take(idx)

    return keyed_fold(
        ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True),
        ["__part"], sort_block, len(bounds) + 1, None)


def _first_n(b: pa.Table, starts, n: int):
    """The first ``n`` rows of each key run of a sorted block, and their
    1-based ranks in the run."""
    pos = rank_in_segment(starts, len(b))
    keep = pos < n
    return b.filter(pa.array(keep)), pos[keep] + 1


def top_n_per_group(ds, key: str, order_col: str, id_col: str, n: int,
                    *, descending: bool = True, num_partitions: int = 16,
                    nrows: int | None = None):
    """Top-n rows per group under (order_col [desc], id) — the
    ``row_number() OVER (PARTITION BY key ORDER BY ...) <= n`` QUALIFY
    pattern. Per-block partial keeps at most n rows per (block, key)
    before the shuffle (the combiner), so the exchange carries
    O(n * keys) rows; the post-shuffle final re-applies the same kernel
    and emits the 1-based rank."""
    order = (("-" if descending else "") + order_col, id_col)

    def partial(b: pa.Table) -> pa.Table:
        return _first_n(*sort_segments(b, [key], order), n)[0]

    def final(b: pa.Table, starts) -> pa.Table:
        out, rank = _first_n(b, starts, n)
        return out.append_column("rnk", pa.array(rank, type=pa.int64()))

    # nrows lets callers whose ds already has transforms avoid an extra
    # execution just to size the shuffle (count() re-runs the pipeline)
    P = auto_partitions(ds.count() if nrows is None else nrows,
                        500_000, num_partitions)
    return keyed_fold(
        ds.select_columns([key, order_col, id_col]).map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True),
        [key], final, P, order)


def grouped_quantile_disc(ds, key: str, value_col: str,
                          qs: tuple[float, ...] = (0.25, 0.5, 0.75),
                          *, num_partitions: int = 8):
    """Exact discrete quantiles per group (ANSI percentile_disc /
    DuckDB quantile_disc: the element at 1-based index ceil(q*n) of the
    sorted group). One hash shuffle on the key co-locates each group,
    then one lexsort per block serves every requested q via direct
    indexing — no second pass per quantile. Exact counterpart of the
    approximate grouped-KLL aggregate in stages/sketch_aggs.py."""

    def fold(b: pa.Table, starts) -> pa.Table:
        sv = np_col(b, value_col)
        lens = segment_ends(starts, len(sv)) - starts
        out = {key: pa.array(np_col(b, key)[starts])}
        for q in qs:
            pos = starts + np.maximum(
                np.ceil(q * lens).astype(np.int64), 1) - 1
            out[f"q{int(q * 100)}"] = pa.array(sv[pos])
        return pa.table(out)

    P = auto_partitions(ds.count(), 500_000, num_partitions)
    return keyed_fold(ds.select_columns([key, value_col]), [key], fold,
                      P, (value_col,))


def global_ntile(ds, order_col: str, id_col: str, k: int, *,
                 num_partitions: int = 16, kll_k: int = 4096):
    """Exact global ntile(k) under total order (order_col, id_col) —
    distributed exact ranking. Three passes over a slim 2-column
    projection (never the full table): (1) KLL sample -> range
    boundaries on order_col (same template as range_sort /
    GetPartitionBoundaries, SURVEY.md §2.3); (2) per-range counts ->
    driver-side prefix offsets (tiny: num_partitions rows); (3) range
    shuffle -> per-block sort -> global rank = range offset + local
    position -> SQL ntile bucketing (first N % k buckets get one extra
    row). Ties on a boundary value share a range by construction, so
    ranks are exact."""
    from ..state.kll import KllSketch

    proj = ds.select_columns([order_col, id_col])

    def sample(b: pa.Table) -> pa.Table:
        sk = KllSketch(kll_k)
        sk.update_many(b.column(order_col)
                       .to_numpy(zero_copy_only=False).astype(np.float64))
        return pa.table({"sk": pa.array([sk.to_bytes()],
                                        type=pa.large_binary())})

    merged = KllSketch(kll_k)
    for r in proj.map_batches(sample, batch_format="pyarrow",
                              zero_copy_batch=True).take_all():
        merged.merge(KllSketch.from_bytes(r["sk"]))
    bounds = np.unique(merged.get_partition_boundaries(
        num_partitions)[1:-1])

    def assign(b: pa.Table) -> pa.Table:
        vals = b.column(order_col).to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        part = np.searchsorted(bounds, vals, side="right")
        return b.append_column(
            "__part", pa.array(part.astype(np.int64)))

    def part_counts(b: pa.Table) -> pa.Table:
        g = b.select(["__part"]).group_by("__part").aggregate(
            [("__part", "count")])
        return pa.table({"__part": g.column("__part"),
                         "n": g.column("__part_count").cast(pa.int64())})

    assigned = proj.map_batches(assign, batch_format="pyarrow",
                                zero_copy_batch=True)
    counts = np.zeros(len(bounds) + 1, dtype=np.int64)
    for r in assigned.map_batches(part_counts, batch_format="pyarrow",
                                  zero_copy_batch=True).take_all():
        counts[r["__part"]] += r["n"]
    offsets = np.concatenate([[0], np.cumsum(counts)])
    total = int(offsets[-1])
    q, rem = divmod(total, k) if total else (0, 0)
    pivot = rem * (q + 1)  # ranks 1..pivot live in the wide buckets

    def rank_block(b: pa.Table, starts) -> pa.Table:
        sp = np_col(b, "__part")
        rank = offsets[sp] + rank_in_segment(starts, len(sp)) + 1
        bucket = np.where(
            rank <= pivot,
            (rank - 1) // (q + 1) if q + 1 else 0,
            rem + (np.maximum(rank - pivot, 1) - 1) // max(q, 1),
        ) + 1
        return pa.table({
            id_col: b.column(id_col).cast(pa.int64()),
            order_col: pa.array(np_col(b, order_col)),
            "bucket": pa.array(bucket.astype(np.int64)),
        })

    return keyed_fold(assigned, ["__part"], rank_block, len(bounds) + 1,
                      (order_col, id_col))


def set_op_keys(left_ds, right_ds, on: tuple[str, str], op: str, *,
                num_partitions: int = 16, out_col: str | None = None):
    """Distinct-set INTERSECT / EXCEPT over one key column per side —
    the SQL set operators as a tagged-union shuffle: each side is
    pre-distincted per block and tagged 0/1, the union is hash-
    partitioned on the key, and one in-block fold computes per-key
    presence bits (a key lives in exactly one block, so presence is
    global). op is 'intersect' (both sides) or 'except' (left only)."""
    lk, rk = on
    out = out_col or lk
    if op not in ("intersect", "except"):
        raise ValueError(f"unknown set op: {op}")

    def tag(side: int, col: str):
        def fn(b: pa.Table) -> pa.Table:
            u = pc.unique(b.column(col).combine_chunks())
            return pa.table({
                out: u,
                "__side": pa.array(
                    np.full(len(u), side, dtype=np.int8)),
            })
        return fn

    def fold(b: pa.Table, _) -> pa.Table:
        g = b.group_by(out).aggregate([("__side", "min"),
                                       ("__side", "max")])
        lo, hi = g.column("__side_min"), g.column("__side_max")
        if op == "intersect":
            keep = pc.and_(pc.equal(lo, 0), pc.equal(hi, 1))
        else:  # except: left (0) only
            keep = pc.equal(hi, 0)
        return g.filter(keep).select([out])

    tagged = (
        left_ds.select_columns([lk])
        .map_batches(tag(0, lk), batch_format="pyarrow",
                     zero_copy_batch=True)
        .union(right_ds.select_columns([rk])
               .map_batches(tag(1, rk), batch_format="pyarrow",
                            zero_copy_batch=True))
    )
    return keyed_fold(tagged, [out], fold, num_partitions, None)


def grouped_quantile_cont(ds, key: str, value_col: str,
                          qs: tuple[float, ...] = (0.5,),
                          *, num_partitions: int = 8):
    """Exact interpolated quantiles per group (ANSI percentile_cont:
    linear interpolation at position q*(n-1) of the sorted group).
    Same one-shuffle + one-lexsort shape as grouped_quantile_disc."""

    names = [f"q{int(q * 100)}" for q in qs]

    def fold(b: pa.Table, starts) -> pa.Table:
        sv = np_col(b, value_col).astype(np.float64)
        lens = segment_ends(starts, len(sv)) - starts
        out = {key: pa.array(np_col(b, key)[starts])}
        for q, name in zip(qs, names):
            pos = q * (lens - 1)
            lo = np.floor(pos).astype(np.int64)
            frac = pos - lo
            vlo = sv[starts + lo]
            vhi = sv[starts + np.minimum(lo + 1, lens - 1)]
            out[name] = pa.array(vlo + frac * (vhi - vlo),
                                 type=pa.float64())
        return pa.table(out)

    P = auto_partitions(ds.count(), 500_000, num_partitions)
    return keyed_fold(ds.select_columns([key, value_col]), [key], fold,
                      P, (value_col,))


def mode_per_group(ds, key: str, value_col: str, *,
                   num_partitions: int = 16):
    """Most frequent value per group with deterministic tie-break
    (count desc, value asc) — grouped mode. Per-block (key, value)
    counts are the combiner; one hash shuffle on the key, then a count
    fold + argmax kernel per block. Only (key, value, partial_count)
    rows cross the wire."""

    def partial(b: pa.Table) -> pa.Table:
        g = b.select([key, value_col]).group_by([key, value_col]) \
            .aggregate([([], "count_all")])
        return pa.table({
            key: g.column(key),
            value_col: g.column(value_col),
            "cnt": g.column("count_all").cast(pa.int64()),
        })

    def fold(b: pa.Table, _) -> pa.Table:
        g = b.group_by([key, value_col]).aggregate([("cnt", "sum")])
        # sort (key, cnt desc, value asc), keep first per key
        idx = pc.sort_indices(g, sort_keys=[
            (key, "ascending"), ("cnt_sum", "descending"),
            (value_col, "ascending")])
        g = g.take(idx)
        k = g.column(key).to_numpy(zero_copy_only=False)
        first = np.empty(len(k), dtype=bool)
        first[0] = True
        np.not_equal(k[1:], k[:-1], out=first[1:])
        keep = np.flatnonzero(first)
        out = g.take(pa.array(keep, type=pa.int64()))
        return pa.table({
            key: out.column(key),
            "top_value": out.column(value_col),
            "cnt": out.column("cnt_sum").cast(pa.int64()),
        })

    P = auto_partitions(ds.count(), 500_000, num_partitions)
    return keyed_fold(
        ds.select_columns([key, value_col]).map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True),
        [key], fold, P, None)


_BLOOM_BITS_PER_KEY = 10
_BLOOM_HASHES = 7


def _bloom_build(keys: np.ndarray, m_bits: int) -> np.ndarray:
    """Deterministic split-hash bloom bitset over int64 keys (two
    fmix64-style mixes combined k times — the standard double-hash
    construction)."""
    from ..functions.murmur3 import fmix64

    h1 = fmix64(keys.astype(np.uint64))
    h2 = fmix64(keys.astype(np.uint64) ^ np.uint64(0x9E3779B97F4A7C15))
    h2 = h2 | np.uint64(1)
    bits = np.zeros(m_bits // 8 + 1, dtype=np.uint8)
    for i in range(_BLOOM_HASHES):
        pos = (h1 + np.uint64(i) * h2) % np.uint64(m_bits)
        np.bitwise_or.at(bits, (pos >> np.uint64(3)).astype(np.int64),
                         np.uint8(1) << (pos & np.uint64(7)).astype(np.uint8))
    return bits


def _bloom_contains(bits: np.ndarray, m_bits: int,
                    keys: np.ndarray) -> np.ndarray:
    from ..functions.murmur3 import fmix64

    h1 = fmix64(keys.astype(np.uint64))
    h2 = fmix64(keys.astype(np.uint64) ^ np.uint64(0x9E3779B97F4A7C15))
    h2 = h2 | np.uint64(1)
    ok = np.ones(len(keys), dtype=bool)
    for i in range(_BLOOM_HASHES):
        pos = (h1 + np.uint64(i) * h2) % np.uint64(m_bits)
        byte = bits[(pos >> np.uint64(3)).astype(np.int64)]
        ok &= (byte >> (pos & np.uint64(7)).astype(np.uint8)) & 1 == 1
    return ok


def bloom_semi_join(left_ds, right_ds, on: tuple[str, str], *,
                    bits_per_key: int = _BLOOM_BITS_PER_KEY):
    """Semi-join with a broadcast bloom prefilter — the 100-TB shape for
    'left rows whose key appears in right' when right is too big to
    broadcast exactly but its *bitset* is not: a ~1.25 bytes/key bloom
    ships once via ray.put, each left block drops non-members map-side
    (no shuffle), and the surviving ~(sel + fpr) fraction is verified
    with the exact broadcast semi-join. Result is exact; the bloom only
    cuts shuffle/verify volume. Integer keys hash directly; string keys
    go through the parity murmur3-128 substrate first."""
    from ..functions.murmur3 import hash_strings

    def _key_u64(arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
        arr = arr.combine_chunks() if isinstance(
            arr, pa.ChunkedArray) else arr
        if pa.types.is_string(arr.type) or pa.types.is_large_string(
                arr.type):
            h1, _ = hash_strings(arr)
            return h1.astype(np.int64)
        return arr.to_numpy(zero_copy_only=False).astype(np.int64)

    lk, rk = on
    rkeys = _key_u64(_distinct_keys_table(right_ds, rk).column(rk))
    m_bits = max(64, bits_per_key * max(1, len(rkeys)))
    bits_ref = ray.put(_bloom_build(rkeys, m_bits))

    def prefilter(b: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)
        keys = _key_u64(b.column(lk))
        return b.filter(pa.array(_bloom_contains(bits, m_bits, keys)))

    pre = left_ds.map_batches(prefilter, batch_format="pyarrow",
                              zero_copy_batch=True)
    return semi_join(pre, right_ds, on)


def estimate_join_size(left_ds, right_ds, on: tuple[str, str], *,
                       lg_k: int = 12):
    """Planner statistic: estimated row count of ``left ⋈ right`` on an
    equi-key, WITHOUT running the join — the engine-side use of the
    reference's mergeable-sketch substrate (SURVEY.md §3.1 template).

    One streaming pass per side builds (a) an HLL sketch of the keys and
    (b) exact per-block (key,count) partials folded into total rows, so
    the estimate is |A∩B|_HLL × (rowsL/|L|) × (rowsR/|R|): the
    inclusion-exclusion distinct intersection scaled by each side's mean
    multiplicity. Exact for uniform multiplicities; a bounded-error
    statistic otherwise — returned with the HLL relative-error bars.
    Returns a dict (driver-side scalars, KB-sized state)."""
    from ..state.hll import HllSketch, coupons_from_u64s

    def side_stats(ds, key):
        def partial(b: pa.Table) -> pa.Table:
            keys = b.column(key).to_numpy(zero_copy_only=False) \
                .astype(np.uint64)
            sk = HllSketch(lg_k)
            sk.update_coupons_bulk(coupons_from_u64s(keys))
            return pa.table({
                "sk": pa.array([sk.to_bytes()], type=pa.large_binary()),
                "rows": pa.array([len(b)], type=pa.int64()),
            })

        merged, rows = HllSketch(lg_k), 0
        for r in ds.select_columns([key]).map_batches(
                partial, batch_format="pyarrow",
                zero_copy_batch=True).take_all():
            merged.merge(HllSketch.from_bytes(r["sk"]))
            rows += r["rows"]
        return merged, rows

    lk, rk = on
    skl, rows_l = side_stats(left_ds, lk)
    skr, rows_r = side_stats(right_ds, rk)
    nl, nr = skl.get_estimate(), skr.get_estimate()
    union = HllSketch.from_bytes(skl.to_bytes())
    union.merge(skr)
    nu = union.get_estimate()
    inter = max(nl + nr - nu, 0.0)
    est = inter * (rows_l / max(nl, 1.0)) * (rows_r / max(nr, 1.0))
    return {
        "est_join_rows": est,
        "est_distinct_left": nl,
        "est_distinct_right": nr,
        "est_distinct_intersection": inter,
        "rows_left": rows_l,
        "rows_right": rows_r,
        "rel_err_2sd": skl.get_upper_bound(2) / max(nl, 1.0) - 1.0,
    }


def winsorize_mean_by(ds, key: str, value_col: str, *,
                      lo_q: float = 0.05, hi_q: float = 0.95,
                      num_partitions: int = 8):
    """Grouped winsorized mean: clamp each group's values to its exact
    [lo_q, hi_q] discrete quantiles (ANSI percentile_disc order
    statistics — integer-exact, no interpolation) and average the
    clamped values. One hash shuffle on the key, one in-block lexsort
    per group, bounds + clamped sum in the same pass (extends the
    grouped_quantile_disc fold). Emits the mean as an integer
    1e4-scaled floor ratio so a SQL oracle matches bit-for-bit on
    integer value columns."""

    def fold(b: pa.Table, starts) -> pa.Table:
        sv = np_col(b, value_col).astype(np.int64)
        lens = segment_ends(starts, len(sv)) - starts
        lo_pos = starts + np.maximum(
            np.ceil(lo_q * lens).astype(np.int64), 1) - 1
        hi_pos = starts + np.maximum(
            np.ceil(hi_q * lens).astype(np.int64), 1) - 1
        lo, hi = sv[lo_pos], sv[hi_pos]
        clamped = np.clip(sv, np.repeat(lo, lens), np.repeat(hi, lens))
        csum = np.add.reduceat(clamped, starts)
        return pa.table({
            key: pa.array(np_col(b, key)[starts]),
            "n": pa.array(lens.astype(np.int64)),
            "lo": pa.array(lo),
            "hi": pa.array(hi),
            "winsorized_sum": pa.array(csum.astype(np.int64)),
            "winsorized_mean_e4": pa.array(
                csum.astype(np.int64) * 10_000 // lens),
        })

    P = auto_partitions(ds.count(), 500_000, num_partitions)
    return keyed_fold(ds.select_columns([key, value_col]), [key], fold,
                      P, (value_col,))


def merge_upsert(base_ds, changes_ds, key: str, *, op_col: str = "op",
                 num_partitions: int = 8):
    """CDC MERGE: apply a change batch (op in {'upsert','delete'}) to a
    base table — the Delta/Iceberg MERGE INTO shape as a Ray Data
    operator. Tagged union + one co-partitioning hash shuffle on the
    key, then a vectorized per-block resolve: a key's change row wins
    over its base row ('upsert' replaces or inserts, 'delete' removes).
    At most one change per key is assumed (CDC-compacted input — run
    latest-wins compaction first otherwise); violations raise.

    Both inputs must share the payload schema (all non-key, non-op
    columns); the output carries exactly the base schema."""
    import pyarrow as pa

    base_cols = [c for c in base_ds.schema().names]
    payload = [c for c in base_cols if c != key]

    def tag(is_change: int):
        def fn(b: pa.Table) -> pa.Table:
            ops = b.column(op_col) if is_change else pa.nulls(
                len(b), type=pa.string())
            cols = {key: b.column(key),
                    "__op": ops,
                    "__chg": pa.array(
                        np.full(len(b), is_change, dtype=np.int8))}
            for c in payload:
                cols[c] = b.column(c)
            return pa.table(cols)
        return fn

    def resolve(b: pa.Table, starts) -> pa.Table:
        # change rows sort first within a key, so the first row per key
        # is the change when one exists, else the base row
        schg = np_col(b, "__chg")
        if int(np.add.reduceat(schg.astype(np.int64), starts).max()) > 1:
            raise ValueError("merge_upsert: multiple change rows for a "
                             "key — compact changes first")
        winners = starts
        ops = np_col(b, "__op")
        is_delete = np.zeros(len(winners), dtype=bool)
        wchg = schg[winners] == 1
        is_delete[wchg] = ops[winners[wchg]] == "delete"
        keep = winners[~is_delete]
        return b.take(pa.array(keep.astype(np.int64))) \
            .select([key] + payload)

    n = base_ds.count() + changes_ds.count()
    P = auto_partitions(n, 500_000, num_partitions)
    tagged = base_ds.select_columns(base_cols) \
        .map_batches(tag(0), batch_format="pyarrow",
                     zero_copy_batch=True) \
        .union(changes_ds.map_batches(tag(1), batch_format="pyarrow",
                                      zero_copy_batch=True))
    return keyed_fold(tagged, [key], resolve, P, ("-__chg",))


def diff_snapshots(a_ds, b_ds, key: str, *, num_partitions: int = 8):
    """Dataset diff (snapshot versioning): classify every key as
    'added' (only in B), 'removed' (only in A) or 'changed' (in both
    with any payload column differing); unchanged keys emit nothing.
    One tagged union + keyed co-partitioning shuffle, vectorized
    per-block compare — the audit step before promoting a new corpus
    snapshot. Keys must be unique within each snapshot."""
    cols = list(a_ds.schema().names)
    if list(b_ds.schema().names) != cols:
        raise ValueError("diff_snapshots: snapshots must share a schema")
    payload = [c for c in cols if c != key]

    def tag(side: int):
        def fn(b: pa.Table) -> pa.Table:
            return b.append_column(
                "__side", pa.array(np.full(len(b), side, dtype=np.int8)))
        return fn

    def resolve(b: pa.Table, starts) -> pa.Table:
        ss = np_col(b, "__side")
        lens = segment_ends(starts, len(ss)) - starts
        if lens.max() > 2 or (lens == 2).any() and \
                (ss[starts[lens == 2]] + ss[starts[lens == 2] + 1] != 1).any():
            raise ValueError("diff_snapshots: duplicate key within a "
                             "snapshot")
        only = lens == 1
        added = starts[only & (ss[starts] == 1)]
        removed = starts[only & (ss[starts] == 0)]
        both = starts[~only]  # A row at i (side 0), B row at i+1
        if len(both):
            ia = pa.array(both.astype(np.int64))
            ib = pa.array((both + 1).astype(np.int64))
            diff = np.zeros(len(both), dtype=bool)
            for c in payload:
                col = b.column(c)
                eq = pc.equal(col.take(ia), col.take(ib))
                neq = pc.fill_null(pc.invert(eq), True) \
                    .to_numpy(zero_copy_only=False)
                diff |= neq
            changed = both[diff]
        else:
            changed = both
        pos = np.concatenate([added, removed, changed])
        status = np.concatenate([
            np.full(len(added), "added", dtype=object),
            np.full(len(removed), "removed", dtype=object),
            np.full(len(changed), "changed", dtype=object)])
        return pa.table({key: pa.array(np_col(b, key)[pos]),
                         "status": pa.array(status, type=pa.string())})

    P = auto_partitions(a_ds.count() + b_ds.count(), 500_000,
                        num_partitions)
    tagged = a_ds.map_batches(tag(0), batch_format="pyarrow",
                              zero_copy_batch=True) \
        .union(b_ds.map_batches(tag(1), batch_format="pyarrow",
                                zero_copy_batch=True))
    return keyed_fold(tagged, [key], resolve, P, ("__side",))


def weighted_median_by(ds, key: str, value_col: str, weight_col: str, *,
                       num_partitions: int = 8):
    """Exact lower weighted median per group: the smallest value v with
    cumulative weight(<=v) * 2 >= total weight. One keyed shuffle, one
    in-block lexsort + weight cumsum per group — the weighted
    generalization of grouped_quantile_disc (integer-exact, ANSI
    window-function reproducible)."""

    def fold(b: pa.Table, starts) -> pa.Table:
        sv = np_col(b, value_col).astype(np.int64)
        sw = np_col(b, weight_col).astype(np.int64)
        lens = segment_ends(starts, len(sv)) - starts
        cw = np.cumsum(sw)
        base = np.repeat(cw[starts] - sw[starts], lens)
        cw_local = cw - base
        tot = np.repeat(np.add.reduceat(sw, starts), lens)
        ok = 2 * cw_local >= tot
        # first qualifying row per group = lower weighted median (the
        # last row of every group always qualifies, so each group has one)
        idx = np.flatnonzero(ok)
        first_ok = np.full(len(starts), len(sv), dtype=np.int64)
        np.minimum.at(first_ok, segment_ids(starts, len(sv))[idx], idx)
        return pa.table({
            key: pa.array(np_col(b, key)[starts]),
            "weighted_median": pa.array(sv[first_ok]),
            "total_weight": pa.array(np.add.reduceat(sw, starts)
                                     .astype(np.int64)),
        })

    P = auto_partitions(ds.count(), 500_000, num_partitions)
    return keyed_fold(ds.select_columns([key, value_col, weight_col]),
                      [key], fold, P, (value_col,))


def partition_checksums(ds, id_col: str, val_col: str, *,
                        bucket_size: int = 64):
    """Data-integrity audit: per id-range bucket, row count plus an
    order-independent additive and xor checksum over a Knuth-hash mix
    of (id, value) — the cross-engine migration check (compare against
    a warehouse running the identical SQL). Map-only partials + one
    tiny bucket fold; commutative aggregates make it partition- and
    order-independent by construction."""

    def partial(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table({
                "bucket": pa.array([], type=pa.int64()),
                "n_rows": pa.array([], type=pa.int64()),
                "sum_mix": pa.array([], type=pa.int64()),
                "xor_mix": pa.array([], type=pa.int64()),
            })
        ids = b.column(id_col).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        vals = b.column(val_col).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        h = (ids * 2654435761) % 4294967296
        mix = h * 31 + vals
        bk = ids // bucket_size
        ub, inv = np.unique(bk, return_inverse=True)
        n = np.bincount(inv)
        s = np.zeros(len(ub), dtype=np.int64)
        np.add.at(s, inv, mix)
        x = np.zeros(len(ub), dtype=np.int64)
        np.bitwise_xor.at(x, inv, mix)
        return pa.table({
            "bucket": pa.array(ub),
            "n_rows": pa.array(n.astype(np.int64)),
            "sum_mix": pa.array(s),
            "xor_mix": pa.array(x),
        })

    def fold(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return b
        t = b.group_by("bucket").aggregate(
            [("n_rows", "sum"), ("sum_mix", "sum")])
        # xor has no built-in aggregate: fold it vectorized per bucket
        bk = b.column("bucket").to_numpy(zero_copy_only=False)
        xr = b.column("xor_mix").to_numpy(zero_copy_only=False)
        ub, inv = np.unique(bk, return_inverse=True)
        x = np.zeros(len(ub), dtype=np.int64)
        np.bitwise_xor.at(x, inv, xr)
        xmap = dict(zip(ub.tolist(), x.tolist()))
        tb = t.column("bucket").to_numpy(zero_copy_only=False)
        return pa.table({
            "bucket": t.column("bucket").cast(pa.int64()),
            "n_rows": t.column("n_rows_sum").cast(pa.int64()),
            "sum_mix": t.column("sum_mix_sum").cast(pa.int64()),
            "xor_mix": pa.array([xmap[int(k)] for k in tb],
                                type=pa.int64()),
        })

    return (ds.select_columns([id_col, val_col])
            .map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True)
            .repartition(1)
            .map_batches(fold, batch_format="pyarrow", batch_size=None,
                         zero_copy_batch=True))


def filter_above_group_quantile(ds, key: str, val_col: str,
                                q: float = 0.75,
                                carry_cols: list[str] | None = None, *,
                                num_partitions: int = 8):
    """Per-group quality gate: keep rows whose value >= the group's
    exact discrete quantile (sorted[ceil(q*n) - 1], the DuckDB
    quantile_disc / ANSI percentile_disc convention — verified against
    DuckDB empirically; floor(q*(n-1)) coincides only at sizes where
    q*(n-1) is integral, which masked the difference at sf0.01's
    25-doc sources until the sf0.1 sweep caught it) — 'top 25% of docs
    per domain' style curation filtering. One keyed shuffle; threshold
    and filter happen in the same in-block fold, so nothing is
    materialized and no second pass over the data is needed."""
    carry = carry_cols or []
    cols = [key, val_col] + [c for c in carry
                             if c not in (key, val_col)]

    def fold(b: pa.Table, starts) -> pa.Table:
        sv = np_col(b, val_col)
        lens = segment_ends(starts, len(sv)) - starts
        # q=0 keeps the whole group: clamp the rank to its first row
        thr_idx = starts + np.maximum(
            np.ceil(q * lens).astype(np.int64), 1) - 1
        return b.filter(pa.array(sv >= np.repeat(sv[thr_idx], lens)))

    P = auto_partitions(ds.count(), 500_000, num_partitions)
    return keyed_fold(ds.select_columns(cols), [key], fold, P, (val_col,))


def grouped_linear_trend(ds, key: str, x_col: str, y_col: str, *,
                         num_partitions: int = 8):
    """Exact per-group least-squares slope as an integer rational:
    slope = slope_num / slope_den with slope_num = n*Sxy - Sx*Sy,
    slope_den = n*Sxx - Sx^2 over int64 x/y — metric drift per key
    with no float in the pipeline (cross-engine exact). Classic
    distributive-moment fold: per-block partial sums, one keyed
    exchange of the 5-tuple, final algebra. Caller is responsible for
    keeping |x|,|y| small enough that the products fit int64 (e.g. x =
    hours since a fixed epoch)."""

    def partial(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table({
                key: pa.array([], type=pa.int64()),
                "n": pa.array([], type=pa.int64()),
                "sx": pa.array([], type=pa.int64()),
                "sy": pa.array([], type=pa.int64()),
                "sxy": pa.array([], type=pa.int64()),
                "sxx": pa.array([], type=pa.int64()),
            })
        k = b.column(key).cast(pa.int64()).to_numpy(zero_copy_only=False)
        x = b.column(x_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        y = b.column(y_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        uk, inv = np.unique(k, return_inverse=True)
        out = {"n": np.bincount(inv).astype(np.int64)}
        for name, vals in (("sx", x), ("sy", y), ("sxy", x * y),
                           ("sxx", x * x)):
            acc = np.zeros(len(uk), dtype=np.int64)
            np.add.at(acc, inv, vals)
            out[name] = acc
        return pa.table({key: pa.array(uk),
                         **{c: pa.array(v) for c, v in out.items()}})

    def final(b: pa.Table, _) -> pa.Table:
        g = b.group_by(key).aggregate(
            [("n", "sum"), ("sx", "sum"), ("sy", "sum"),
             ("sxy", "sum"), ("sxx", "sum")])
        n = g.column("n_sum").to_numpy(zero_copy_only=False)
        sx = g.column("sx_sum").to_numpy(zero_copy_only=False)
        sy = g.column("sy_sum").to_numpy(zero_copy_only=False)
        sxy = g.column("sxy_sum").to_numpy(zero_copy_only=False)
        sxx = g.column("sxx_sum").to_numpy(zero_copy_only=False)
        return pa.table({
            key: g.column(key).cast(pa.int64()),
            "n": pa.array(n.astype(np.int64)),
            "slope_num": pa.array((n * sxy - sx * sy).astype(np.int64)),
            "slope_den": pa.array((n * sxx - sx * sx).astype(np.int64)),
        })

    P = auto_partitions(ds.count(), 2_000_000, num_partitions)
    return keyed_fold(
        ds.select_columns([key, x_col, y_col]).map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True),
        [key], final, P, None)


def cooccurrence_counts(ds, key: str, item_col: str, *,
                        num_partitions: int = 8):
    """Market-basket co-occurrence: for every unordered pair of items
    (a < b), the number of keys that have BOTH — event-type affinity /
    co-engagement analysis. Per-block distinct (key, item) -> key-keyed
    shuffle -> per-key pair expansion (bounded by the per-key distinct
    item count, small by domain) -> tiny pair fold."""

    def distinct(b: pa.Table) -> pa.Table:
        # the key never reaches the output, so a string image is a
        # safe universal grouping key (int64 and string keys both work)
        if len(b) == 0:
            return pa.table({key: pa.array([], type=pa.string()),
                             item_col: pa.array([], type=pa.string())})
        return pa.table({
            key: b.column(key).cast(pa.string()),
            item_col: b.column(item_col).cast(pa.string()),
        }).group_by([key, item_col]).aggregate([])

    _pairs_empty = pa.table({
        "item_a": pa.array([], type=pa.string()),
        "item_b": pa.array([], type=pa.string()),
        "n_keys": pa.array([], type=pa.int64()),
    })

    def expand(b: pa.Table, starts) -> pa.Table:
        its = np_col(b, item_col)
        first = np.zeros(len(its), dtype=bool)
        first[starts] = True
        keep = first.copy()  # cross-block dedup of (key, item)
        keep[1:] |= its[1:] != its[:-1]
        its = its[keep]
        starts = np.flatnonzero(first[keep])
        lens = segment_ends(starts, len(its)) - starts
        a_parts, b_parts = [], []
        for g in np.unique(lens):
            if g < 2:
                continue
            offs = starts[lens == g]
            idx = offs[:, None] + np.arange(g)
            ii, jj = np.triu_indices(g, k=1)
            a_parts.append(its[idx][:, ii].ravel())
            b_parts.append(its[idx][:, jj].ravel())
        if not a_parts:
            return _pairs_empty
        t = pa.table({
            "item_a": pa.array(np.concatenate(a_parts), type=pa.string()),
            "item_b": pa.array(np.concatenate(b_parts), type=pa.string()),
        })
        g2 = t.group_by(["item_a", "item_b"]).aggregate([([], "count_all")])
        return pa.table({
            "item_a": g2.column("item_a"),
            "item_b": g2.column("item_b"),
            "n_keys": g2.column("count_all").cast(pa.int64()),
        })

    def fold(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return _pairs_empty
        g = b.group_by(["item_a", "item_b"]).aggregate([("n_keys", "sum")])
        return pa.table({
            "item_a": g.column("item_a").cast(pa.string()),
            "item_b": g.column("item_b").cast(pa.string()),
            "n_keys": g.column("n_keys_sum").cast(pa.int64()),
        })

    P = auto_partitions(ds.count(), 1_000_000, num_partitions)
    return (keyed_fold(ds.select_columns([key, item_col]).map_batches(
                distinct, batch_format="pyarrow", zero_copy_batch=True),
                [key], expand, P, (item_col,))
            .repartition(1)
            .map_batches(fold, batch_format="pyarrow", batch_size=None,
                         zero_copy_batch=True))


def grouped_count_distribution(ds, key: str, *,
                               total_keys: int | None = None,
                               num_partitions: int = 8):
    """Histogram of per-key row counts (the TPC-H Q13 shape): one row
    per distinct count ``cnt`` with ``n_keys`` = how many keys have
    exactly that many rows. ``total_keys`` (the size of the key
    universe, e.g. the customer table's row count) adds the zero-count
    bucket for keys with no rows at all — left-outer-join semantics
    without the join. Per-block count combiner -> key-keyed fold ->
    per-block histogram partial -> tiny final fold."""

    def partial(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table({key: pa.array([], type=pa.int64()),
                             "c": pa.array([], type=pa.int64())})
        g = pa.table({key: b.column(key).cast(pa.int64())}) \
            .group_by(key).aggregate([([], "count_all")])
        return pa.table({key: g.column(key),
                         "c": g.column("count_all").cast(pa.int64())})

    _empty = pa.table({"cnt": pa.array([], type=pa.int64()),
                       "n_keys": pa.array([], type=pa.int64())})

    def per_key_hist(b: pa.Table, _) -> pa.Table:
        g = b.group_by(key).aggregate([("c", "sum")])
        h = pa.table({"cnt": g.column("c_sum").cast(pa.int64())}) \
            .group_by("cnt").aggregate([([], "count_all")])
        return pa.table({"cnt": h.column("cnt"),
                         "n_keys": h.column("count_all")
                        .cast(pa.int64())})

    def fold(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            b = _empty
        g = b.group_by("cnt").aggregate([("n_keys", "sum")])
        cnt = g.column("cnt").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        nk = g.column("n_keys_sum").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        if total_keys is not None:
            zero = int(total_keys) - int(nk.sum())
            if zero > 0:
                cnt = np.append(cnt, 0)
                nk = np.append(nk, zero)
        return pa.table({"cnt": pa.array(cnt.astype(np.int64)),
                         "n_keys": pa.array(nk.astype(np.int64))})

    P = auto_partitions(ds.count(), 2_000_000, num_partitions)
    return (keyed_fold(ds.select_columns([key]).map_batches(
                partial, batch_format="pyarrow", zero_copy_batch=True),
                [key], per_key_hist, P, None)
            .repartition(1)
            .map_batches(fold, batch_format="pyarrow", batch_size=None,
                         zero_copy_batch=True))


def grouped_bottom_k(ds, key: str, sort_keys: list[tuple[str, str]],
                     k: int, *, num_partitions: int = 8):
    """k rows per group under a deterministic per-group order — the
    'inspect k docs per source' / per-stratum fixed-size sample
    primitive. Per-block combiner keeps at most k rows per (block,
    group), so the keyed shuffle moves <= k x groups x blocks rows; the
    per-key fold then takes the true per-group k. Pair with a hash
    sort column for a uniform-without-replacement sample per group
    (the grouped form of sample_docs_bottomk's KMV idea)."""
    order = [("-" if d == "descending" else "") + c for c, d in sort_keys]

    def partial(b: pa.Table) -> pa.Table:
        return _first_n(*sort_segments(b, [key], order), k)[0]

    P = auto_partitions(ds.count(), 2_000_000, num_partitions)
    return keyed_fold(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        [key], lambda b, starts: _first_n(b, starts, k)[0],
        P, order)


def flag_group_outliers(ds, key: str, val_col: str, *, z: int = 3,
                        carry_cols: list[str] | None = None,
                        num_partitions: int = 8):
    """Rows whose value is more than ``z`` group standard deviations
    from their group mean, decided in EXACT integer arithmetic:
    (n*x - Sx)^2 > z^2 * (n*Sxx - Sx^2) — no float, no sqrt, so the
    flag is identical across engines and partitionings. One keyed
    shuffle; the same in-block fold computes the group moments and
    filters the rows (the filter_above_group_quantile discipline).
    Caller keeps |x| small enough that n^2*x^2 fits int64 (cents-scale
    values and per-key counts in the millions are fine)."""
    carry = carry_cols or []
    schema = ds.schema()
    carry_types = {c: schema.types[schema.names.index(c)]
                   for c in carry}

    def fold(b: pa.Table, starts) -> pa.Table:
        x = b.column(val_col).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        seg = segment_ids(starts, len(x))
        n = (segment_ends(starts, len(x)) - starts)[seg]
        sx = np.add.reduceat(x, starts)[seg]
        sxx = np.add.reduceat(x * x, starts)[seg]
        lhs = (n * x - sx).astype(np.int64)
        rhs = z * z * (n * sxx - sx * sx)
        mask = pa.array((n >= 2) & (lhs * lhs > rhs))
        out = {key: b.column(key).cast(pa.int64()).filter(mask),
               val_col: pa.array(x).filter(mask)}
        for c in carry:
            out[c] = b.column(c).cast(carry_types[c]).filter(mask)
        return pa.table(out)

    P = auto_partitions(ds.count(), 2_000_000, num_partitions)
    return keyed_fold(ds.select_columns([key, val_col] + carry), [key],
                      fold, P, ())


def pareto_skyline_2d(ds, max_col: str, min_col: str, *,
                      carry: list[str] | None = None):
    """Exact 2-D Pareto skyline: rows not dominated under (maximize
    ``max_col``, minimize ``min_col``), both int64. A row is dominated
    if some other row is >= on ``max_col`` and <= on ``min_col`` with
    at least one strict; ties on BOTH axes are mutually non-dominating,
    so duplicates of a skyline point all survive.

    Distributed shape: the skyline operator admits a perfect combiner
    (skyline(A ∪ B) = skyline(skyline(A) ∪ skyline(B))), so each block
    folds to its local skyline — typically a few rows — and one tiny
    final fold finishes. No shuffle, no sort of the full data; this is
    the same partial/final contract the reference's sketch unions
    promise (hll/union.go:151-158), applied to dominance instead of
    distinct counting.
    """
    carry = carry or []

    def _skyline_mask(mx: np.ndarray, mn: np.ndarray) -> np.ndarray:
        # unique (max,min) pairs sorted by max desc, min asc; within an
        # equal-max run only the min survives, and it must be strictly
        # below every higher-max run's best min
        order = np.lexsort((mn, -mx))
        smx, smn = mx[order], mn[order]
        keep_pair = np.zeros(len(order), dtype=bool)
        run_start = np.concatenate(
            [[True], smx[1:] != smx[:-1]]) if len(smx) else \
            np.zeros(0, dtype=bool)
        best = np.int64(np.iinfo(np.int64).max)
        i = 0
        starts = np.flatnonzero(run_start)
        ends = np.append(starts[1:], len(smx))
        for s, e in zip(starts, ends):
            cand = smn[s]  # min of this price run (sorted asc)
            if cand < best:
                # every duplicate of the surviving pair survives
                j = s
                while j < e and smn[j] == cand:
                    keep_pair[j] = True
                    j += 1
                best = cand
        mask = np.zeros(len(order), dtype=bool)
        mask[order] = keep_pair
        return mask

    def fold(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return b
        mx = b.column(max_col).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        mn = b.column(min_col).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return b.filter(pa.array(_skyline_mask(mx, mn)))

    return (ds.select_columns([max_col, min_col] + carry)
            .map_batches(fold, batch_format="pyarrow",
                         zero_copy_batch=True)
            .repartition(1)
            .map_batches(fold, batch_format="pyarrow", batch_size=None,
                         zero_copy_batch=True))


def exact_global_kth(ds, col: str, k: int, *,
                     num_buckets: int = 1 << 16,
                     gather_threshold: int = 1 << 20) -> dict:
    """Exact k-th smallest (1-based) of an int64 column WITHOUT a
    global sort: iterative bucketed selection. Each round is one
    streaming pass that histograms the current [lo, hi] candidate range
    into ``num_buckets`` uniform integer buckets (per-block partials,
    elementwise-add merge); the bucket containing rank k becomes the
    next range. The range shrinks ~num_buckets× per round, so even a
    2^63 domain needs 4 passes; when the candidate count drops under
    ``gather_threshold`` the survivors are gathered and selected
    exactly with np.partition.

    This is the scale path for exact global quantiles at 10^12 rows —
    rank-error-free where KLL gives bounded error, at the cost of a few
    extra passes. Returns {"value": kth, "n": total_rows, "rounds": r}.
    """
    import pyarrow.compute as pc

    base = ds.select_columns([col]).materialize()
    n = base.count()
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")

    def histogram(lo: int, hi: int):
        span = hi - lo + 1
        nb = int(min(num_buckets, span))
        # ceil width so idx < nb and (v-lo)//w never overflows (division,
        # not multiplication, so a full-int64 span is safe)
        w = -(-span // nb)

        def partial(b):
            v = b.column(col).cast(pa.int64()) \
                .to_numpy(zero_copy_only=False)
            v = v[(v >= lo) & (v <= hi)]
            idx = (v - lo) // np.int64(w)
            counts = np.bincount(idx, minlength=nb).astype(np.int64)
            return pa.table({"counts": pa.array([counts.tobytes()],
                                                type=pa.large_binary())})

        parts = base.map_batches(partial, batch_format="pyarrow",
                                 zero_copy_batch=True).take_all()
        total = np.zeros(nb, dtype=np.int64)
        for row in parts:
            total += np.frombuffer(row["counts"], dtype=np.int64)[:nb]
        return total, nb, w

    # round 0 range from global min/max (one aggregate pass)
    lo = base.min(col)
    hi = base.max(col)
    rank = k  # rank within the current candidate range
    rounds = 0
    while True:
        span = hi - lo + 1
        if span <= gather_threshold:
            break
        counts, nb, w = histogram(lo, hi)
        rounds += 1
        csum = np.cumsum(counts)
        bi = int(np.searchsorted(csum, rank))
        rank -= int(csum[bi - 1]) if bi else 0
        lo_new = lo + bi * w
        hi_new = lo + (bi + 1) * w - 1
        lo, hi = int(lo_new), int(min(hi_new, hi))
        # count within range can be below gather_threshold even when
        # the SPAN is wide; check actual survivors
        in_range = int(csum[bi] - (csum[bi - 1] if bi else 0))
        if in_range <= gather_threshold:
            break
    flo = pa.scalar(lo, type=pa.int64())
    fhi = pa.scalar(hi, type=pa.int64())
    vals = base.map_batches(
        lambda b: pa.table({col: b.column(col).cast(pa.int64()).filter(
            pc.and_(pc.greater_equal(b.column(col).cast(pa.int64()), flo),
                    pc.less_equal(b.column(col).cast(pa.int64()), fhi)))}),
        batch_format="pyarrow", zero_copy_batch=True).take_all()
    arr = np.array([r[col] for r in vals], dtype=np.int64)
    kth = int(np.partition(arr, rank - 1)[rank - 1])
    return {"value": kth, "n": n, "rounds": rounds}
