"""Distributed as-of join (backward): for each left row, the single
right row with the greatest right-timestamp <= left-timestamp for the
same key, deterministic tie-break by a right ordering column.

Ray Data has no as-of join operator; semantics allow the standard
composition (SURVEY.md custom-operator rule (a)): tag both sides, one
hash shuffle co-locates each key's rows in one block, then the per-block
match is a pure Arrow/numpy backward-search kernel (rank-compressed
composite key + one searchsorted; no pandas round-trip). Partitioning assumption: all rows of a join
key fit in one block — the same assumption as any hash equi-join
reduce side; skewed keys would need the salting path of stages/lsh.py.

Only 64-bit-castable keys/timestamps are supported (covers the
testdata's int64 keys and timestamp[us] columns).
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .context import auto_partitions
from .ids import local_codes


def _project(b: pa.Table, key: str, ts: str, keep: list[str],
             tag: int, other_keep: list[tuple[str, pa.DataType]]) -> pa.Table:
    cols = {
        "__k": b.column(key).cast(pa.int64()),
        "__ts": b.column(ts).cast(pa.int64()),
    }
    for name in keep:
        cols[name] = b.column(name)
    for name, typ in other_keep:
        cols[name] = pa.nulls(len(b), typ)
    cols["__tag"] = pa.array(np.full(len(b), tag, dtype=np.int8))
    return pa.table(cols)


def _match(b: pa.Table, left_keep: list[str], right_keep: list[str],
           tie_col: str | None, left_ts_name: str,
           ts_type: pa.DataType, key_name: str = "__k") -> pa.Table:
    """Pure Arrow/numpy backward as-of kernel (no pandas round-trip):
    both sides' (key, ts) are rank-compressed into one composite int64,
    the right side is sorted once by (composite, tie asc), and every
    left row finds the LAST right row with composite <= its own via a
    single ``np.searchsorted`` — ties on equal ts therefore resolve to
    the greatest tie value, exactly the previous ``pandas.merge_asof``
    semantics. Output rows are built with Arrow ``take`` so right-side
    payload types survive untouched."""
    tag = b.column("__tag")
    lt = b.filter(pc.equal(tag, 0)).select(["__k", "__ts"] + left_keep)
    rt = b.filter(pc.equal(tag, 1)).select(["__k", "__ts"] + right_keep)
    if len(lt) == 0 or len(rt) == 0:
        empty = {key_name: pa.array([], type=pa.int64())}
        for n in left_keep:
            empty[n] = pa.array([], type=lt.schema.field(n).type)
        empty[left_ts_name] = pa.array([], type=ts_type)
        for n in right_keep:
            empty[n] = pa.array([], type=rt.schema.field(n).type)
        return pa.table(empty)
    lk = lt.column("__k").to_numpy(zero_copy_only=False)
    lts = lt.column("__ts").to_numpy(zero_copy_only=False)
    rk = rt.column("__k").to_numpy(zero_copy_only=False)
    rts = rt.column("__ts").to_numpy(zero_copy_only=False)
    # dense codes for keys and timestamps over BOTH sides: the composite
    # code * M + ts_rank is collision-free and fits int64 (block-local
    # cardinalities)
    uk, codes = np.unique(np.concatenate([rk, lk]), return_inverse=True)
    rcode, lcode = codes[: len(rk)], codes[len(rk):]
    uts = np.unique(np.concatenate([rts, lts]))
    M = np.int64(len(uts) + 1)
    rc = rcode.astype(np.int64) * M + np.searchsorted(uts, rts)
    lc = lcode.astype(np.int64) * M + np.searchsorted(uts, lts)
    if tie_col:
        # order-preserving codes of the tie column (strings included)
        order = np.lexsort((local_codes(rt.column(tie_col))[0], rc))
    else:
        # stable: equal (key, ts) ties keep right input order, matching
        # merge_asof's "last row wins" on the stably pre-sorted frame
        order = np.argsort(rc, kind="stable")
    rc_s = rc[order]
    pos = np.searchsorted(rc_s, lc, side="right") - 1
    ok = pos >= 0
    r_idx = order[np.where(ok, pos, 0)]
    ok &= rcode[r_idx] == lcode  # backward match must stay within key
    l_sel = np.flatnonzero(ok)
    r_sel = r_idx[ok]
    l_take = pa.array(l_sel)
    r_take = pa.array(r_sel)
    cols = {key_name: lt.column("__k").take(l_take).cast(pa.int64())}
    for n in left_keep:
        cols[n] = lt.column(n).take(l_take)
    cols[left_ts_name] = lt.column("__ts").take(l_take).cast(ts_type)
    for n in right_keep:
        cols[n] = rt.column(n).take(r_take)
    return pa.table(cols)


def asof_join(left_ds, right_ds, *, on: tuple[str, str],
              ts: tuple[str, str], tie_break: str | None = None,
              left_cols: list[str] | None = None,
              right_cols: list[str] | None = None,
              num_partitions: int = 32):
    """Backward as-of join; returns left keep-columns + key + left ts +
    right keep-columns of the matched row (unmatched left rows dropped)."""
    lk, rk = on
    lts, rts = ts
    lschema, rschema = left_ds.schema(), right_ds.schema()
    ts_type = lschema.types[lschema.names.index(lts)]
    left_keep = left_cols if left_cols is not None else \
        [n for n in lschema.names if n not in (lk, lts)]
    right_keep = right_cols if right_cols is not None else \
        [n for n in rschema.names if n not in (rk, rts)]
    if tie_break is not None and tie_break not in right_keep:
        right_keep = right_keep + [tie_break]
    overlap = set(left_keep) & set(right_keep)
    if overlap:
        raise ValueError(f"column collision in asof join: {overlap}")
    l_types = [(n, lschema.types[lschema.names.index(n)])
               for n in left_keep]
    r_types = [(n, rschema.types[rschema.names.index(n)])
               for n in right_keep]

    lt = left_ds.map_batches(
        functools.partial(_project, key=lk, ts=lts, keep=left_keep,
                          tag=0, other_keep=r_types),
        batch_format="pyarrow", zero_copy_batch=True)
    rt = right_ds.map_batches(
        functools.partial(_project, key=rk, ts=rts, keep=right_keep,
                          tag=1, other_keep=l_types),
        batch_format="pyarrow", zero_copy_batch=True)

    names = ["__k", "__ts"] + left_keep + right_keep + ["__tag"]

    def _order(b: pa.Table) -> pa.Table:
        return b.select(names)

    P = auto_partitions(left_ds.count(), 200_000, num_partitions)
    return (
        lt.map_batches(_order, batch_format="pyarrow", zero_copy_batch=True)
        .union(rt.map_batches(_order, batch_format="pyarrow",
                              zero_copy_batch=True))
        .repartition(P, keys=["__k"])
        .map_batches(
            functools.partial(_match, left_keep=left_keep,
                              right_keep=right_keep, tie_col=tie_break,
                              left_ts_name=lts, ts_type=ts_type,
                              key_name=lk),
            batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
    )
