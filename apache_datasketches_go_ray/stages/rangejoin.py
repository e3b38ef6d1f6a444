"""Distributed interval (range) join with aggregation: for each left
row, count / sum over right rows sharing the join key whose timestamp
falls in ``[left_ts, left_ts + window)``.

Ray Data has no range-join operator; the semantics decompose per the
SURVEY.md custom-operator rule (a): tag both sides, one hash shuffle
co-locates each key's rows in one block, then the per-block kernel is a
fully vectorized *boundary merge*: window starts/ends are interleaved
with the right-side events in one ``np.lexsort`` pass (key, ts, with
boundaries ordered before events at equal ts) and each window's
aggregate is a difference of prefix sums at its two boundary positions.
This is O((L+R) log(L+R)) per block with no per-row Python loop — the
same prefix-sum discipline the reference uses for KLL cumulative
weights (kll/items_sketch_sorted_view.go:35-73).

Left-outer semantics: every left row is returned; rows with no match
get count 0 / sum 0. Partitioning assumption: all rows of one join key
fit in one block (the standard hash equi-join reduce-side assumption;
skewed keys would take the salting path of stages/lsh.py).

Only 64-bit-castable keys/timestamps are supported (covers the
testdata's int64 keys and timestamp[us] columns).
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .context import auto_partitions
from .keyed import keyed_fold


def _project_left(b: pa.Table, key: str, ts: str,
                  keep: list[str]) -> pa.Table:
    cols = {
        "__k": b.column(key).cast(pa.int64()),
        "__ts": b.column(ts).cast(pa.int64()),
    }
    for name in keep:
        cols[name] = b.column(name)
    cols["__val"] = pa.nulls(len(b), pa.int64())
    cols["__tag"] = pa.array(np.zeros(len(b), dtype=np.int8))
    return pa.table(cols)


def _project_right(b: pa.Table, key: str, ts: str, val: str | None,
                   keep_types: list[tuple[str, pa.DataType]]) -> pa.Table:
    if val is not None:
        cents = pc.round(pc.multiply(b.column(val), 100)).cast(pa.int64())
    else:
        cents = pa.array(np.zeros(len(b), dtype=np.int64))
    cols = {
        "__k": b.column(key).cast(pa.int64()),
        "__ts": b.column(ts).cast(pa.int64()),
    }
    for name, typ in keep_types:
        cols[name] = pa.nulls(len(b), typ)
    cols["__val"] = cents
    cols["__tag"] = pa.array(np.ones(len(b), dtype=np.int8))
    return pa.table(cols)


def _window_agg(b: pa.Table, keep: list[str], window: int,
                key_name: str, count_name: str,
                sum_name: str | None) -> pa.Table:
    if len(b) == 0:
        cols = {key_name: pa.array([], type=pa.int64())}
        for n in keep:
            cols[n] = pa.array([], type=b.schema.field(n).type)
        cols[count_name] = pa.array([], type=pa.int64())
        if sum_name:
            cols[sum_name] = pa.array([], type=pa.int64())
        return pa.table(cols)
    tag = b.column("__tag").to_numpy(zero_copy_only=False)
    k = b.column("__k").to_numpy(zero_copy_only=False)
    ts = b.column("__ts").to_numpy(zero_copy_only=False)
    val = b.column("__val").to_numpy(zero_copy_only=False)
    lmask = tag == 0
    lk, lts = k[lmask], ts[lmask]
    rk, rts, rval = k[~lmask], ts[~lmask], val[~lmask]
    n_l, n_r = len(lk), len(rk)

    # boundary merge: events then (start, end) boundaries per left row
    all_k = np.concatenate([rk, lk, lk])
    all_ts = np.concatenate([rts, lts, lts + window])
    # kind 0 = boundary, 1 = event: at equal ts a boundary sorts first,
    # so F(t) = #events with ts < t is inclusive of the start (>= t
    # counts the event at t) and exclusive of the end
    kind = np.concatenate([
        np.ones(n_r, dtype=np.int8), np.zeros(2 * n_l, dtype=np.int8)])
    order = np.lexsort((kind, all_ts, all_k))
    inv = np.empty(len(order), dtype=np.int64)
    inv[order] = np.arange(len(order))
    is_event = kind[order] == 1
    cnt_prefix = np.concatenate([[0], np.cumsum(is_event)])
    pos_s = inv[n_r:n_r + n_l]
    pos_e = inv[n_r + n_l:]
    counts = cnt_prefix[pos_e] - cnt_prefix[pos_s]
    cols = {key_name: pa.array(lk, type=pa.int64())}
    lt = b.filter(pc.equal(b.column("__tag"), 0))
    for n in keep:
        cols[n] = lt.column(n)
    cols[count_name] = pa.array(counts, type=pa.int64())
    if sum_name:
        ev_vals = np.where(is_event, np.concatenate(
            [rval, np.zeros(2 * n_l, dtype=np.int64)])[order], 0)
        sum_prefix = np.concatenate([[0], np.cumsum(ev_vals)])
        cols[sum_name] = pa.array(sum_prefix[pos_e] - sum_prefix[pos_s],
                                  type=pa.int64())
    return pa.table(cols)


def interval_join_agg(left_ds, right_ds, *, on: tuple[str, str],
                      ts: tuple[str, str], window_us: int,
                      left_cols: list[str],
                      right_val: str | None = None,
                      count_name: str = "n_matched",
                      sum_name: str | None = None,
                      num_partitions: int = 32):
    """For each left row: key + ``left_cols`` + count (and optional
    cents-sum of ``right_val``) of right rows with the same key and
    ``right.ts in [left.ts, left.ts + window_us)``."""
    lk, rk = on
    lts, rts = ts
    lschema = left_ds.schema()
    l_types = [(n, lschema.types[lschema.names.index(n)])
               for n in left_cols]

    lt = left_ds.map_batches(
        functools.partial(_project_left, key=lk, ts=lts, keep=left_cols),
        batch_format="pyarrow", zero_copy_batch=True)
    rt = right_ds.map_batches(
        functools.partial(_project_right, key=rk, ts=rts, val=right_val,
                          keep_types=l_types),
        batch_format="pyarrow", zero_copy_batch=True)

    names = ["__k", "__ts"] + left_cols + ["__val", "__tag"]

    def _order(t: pa.Table) -> pa.Table:
        return t.select(names)

    P = auto_partitions(left_ds.count(), 200_000, num_partitions)
    return keyed_fold(
        lt.map_batches(_order, batch_format="pyarrow", zero_copy_batch=True)
        .union(rt.map_batches(_order, batch_format="pyarrow",
                              zero_copy_batch=True)),
        ["__k"],
        lambda b, _starts: _window_agg(b, keep=left_cols, window=window_us,
                                       key_name=lk, count_name=count_name,
                                       sum_name=sum_name),
        P, order_by=None)
