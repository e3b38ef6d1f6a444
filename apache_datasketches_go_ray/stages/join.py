"""General equi-join built from the engine's two join primitives.

``hash_join(left, right, on=(lk, rk))`` picks the strategy by the right
side's materialized size:

* **broadcast** (small right side): the right table is ``ray.put`` once
  and every left block does a local vectorized ``pyarrow.Table.join``
  (Acero) against it — map-only, zero shuffles. On a cluster this is the
  classic broadcast hash join (one copy per node via the object store).
* **co-partition** (large right side): both sides are tagged, unioned,
  co-located on the key by the engine's one keyed exchange
  (``stages/keyed.keyed_fold``) and joined per block with Acero — the
  standard reduce-side join, no special join operator actors.

Inner join on a single key; column names of the two sides must be
disjoint apart from the keys. Used by the relational queries and as the
template the verification stage's payload attach follows
(stages/verify.py).
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .keyed import keyed_fold

# per-process cache of broadcast right sides keyed by object-ref hex
_RIGHT_CACHE: dict = {}


def _bcast_join_batch(batch: pa.Table, right_ref, lk: str, rk: str,
                      join_type: str) -> pa.Table:
    key = right_ref.hex() if hasattr(right_ref, "hex") else id(right_ref)
    right = _RIGHT_CACHE.get(key)
    if right is None:
        right = ray.get(right_ref)
        _RIGHT_CACHE[key] = right
    return batch.join(right, keys=[lk], right_keys=[rk],
                      join_type=join_type)


def _tag_side(batch: pa.Table, key_col: str, own_cols, other_cols,
              tag: int) -> pa.Table:
    n = len(batch)
    cols = {"__key": batch.column(key_col)}
    for name, _typ in own_cols:
        cols[name] = batch.column(name)
    for name, typ in other_cols:
        cols[name] = pa.nulls(n, typ)
    cols["__tag"] = pa.array(np.full(n, tag, dtype=np.int8))
    return pa.table(cols)


def _copart_join_batch(batch: pa.Table, left_cols, right_cols,
                       join_type: str, lk: str) -> pa.Table:
    tag = batch.column("__tag")
    lt = batch.filter(pc.equal(tag, 0))
    rt = batch.filter(pc.equal(tag, 1))
    left = lt.select(["__key"] + [n for n, _ in left_cols])
    right = rt.select(["__key"] + [n for n, _ in right_cols])
    out = left.join(right, keys=["__key"], join_type=join_type)
    return out.rename_columns(
        [lk if c == "__key" else c for c in out.column_names])


def hash_join(left_ds, right_ds, on: tuple[str, str], *,
              num_partitions: int = 32,
              broadcast_threshold: int = 1 << 30,
              join_type: str = "inner"):
    """left ⋈ right on (left_key, right_key); returns a Dataset with the
    left key column plus both sides' payload columns."""
    lk, rk = on
    right_ds = right_ds.materialize()

    if right_ds.size_bytes() <= broadcast_threshold:
        from .context import gather_table

        right_tbl = gather_table(right_ds)
        right_ref = ray.put(right_tbl)
        return left_ds.map_batches(
            functools.partial(_bcast_join_batch, right_ref=right_ref,
                              lk=lk, rk=rk, join_type=join_type),
            batch_format="pyarrow", zero_copy_batch=True,
        )

    from .context import auto_partitions

    lschema = left_ds.schema()
    rschema = right_ds.schema()
    left_cols = [(n, t) for n, t in zip(lschema.names, lschema.types)
                 if n != lk]
    right_cols = [(n, t) for n, t in zip(rschema.names, rschema.types)
                  if n != rk]
    overlap = {n for n, _ in left_cols} & {n for n, _ in right_cols}
    if overlap:
        raise ValueError(f"column collision in co-partition join: {overlap}")
    P = auto_partitions(left_ds.count(), 100_000, num_partitions)
    lt = left_ds.map_batches(
        functools.partial(_tag_side, key_col=lk, own_cols=left_cols,
                          other_cols=right_cols, tag=0),
        batch_format="pyarrow", zero_copy_batch=True)
    rt = right_ds.map_batches(
        functools.partial(_tag_side, key_col=rk, own_cols=right_cols,
                          other_cols=left_cols, tag=1),
        batch_format="pyarrow", zero_copy_batch=True)

    def _fix_order(batch: pa.Table) -> pa.Table:
        # union requires identical column order on both branches
        names = (["__key"] + [n for n, _ in left_cols]
                 + [n for n, _ in right_cols] + ["__tag"])
        return batch.select(names)

    return keyed_fold(
        lt.map_batches(_fix_order, batch_format="pyarrow",
                       zero_copy_batch=True)
        .union(rt.map_batches(_fix_order, batch_format="pyarrow",
                              zero_copy_batch=True)),
        ["__key"],
        lambda b, _starts: _copart_join_batch(b, left_cols, right_cols,
                                              join_type, lk),
        P, order_by=None)


def _freq_partial(batch: pa.Table, key: str, lg_max_map_size: int) -> pa.Table:
    """Per-block frequent-items partial over the join key (any hashable
    key type — int or string): the block's Misra-Gries summary
    flattened to (item, lower_bound) rows plus the block's purge offset
    and row count (one summary row, null item)."""
    from ..state.frequencies import FrequentItemsSketch

    sk = FrequentItemsSketch(lg_max_map_size)
    col = batch.column(key)
    # Nulls never match an equi-join, so they can't be hot keys — and
    # they corrupt the numpy path (int64→float64 NaN via to_numpy;
    # None breaks np.unique's sort for strings). Drop them up front.
    col = pc.drop_null(col)
    if len(col) > 0:
        vals = col.to_numpy(zero_copy_only=False)
        uk, cnt = np.unique(vals, return_counts=True)
        sk.update_many(uk.tolist(), cnt.tolist())
    items, counts = sk.to_items()
    ktype = col.type
    return pa.table({
        "item": pa.array(list(items) + [None], type=ktype),
        "lb": pa.array(list(counts) + [0], type=pa.int64()),
        "offset": pa.array([0] * len(items) + [sk.get_maximum_error()],
                           type=pa.int64()),
        "rows": pa.array([0] * len(items) + [len(batch)],
                         type=pa.int64()),
    })


def detect_hot_keys(ds, key: str, *, lg_max_map_size: int = 12,
                    min_frac: float = 0.01, top_k: int = 64) -> list:
    """Heavy-hitter join keys via a distributed frequent-items pass
    (the reference's Misra-Gries discipline: per-block sketches, merged
    bounds). Returns keys whose UPPER-bound frequency exceeds
    ``min_frac`` of the total rows — conservative in the safe
    direction: a false positive merely broadcasts one more key, a miss
    just stays on the shuffle path, so the join result is identical
    either way."""
    import functools as _ft

    parts = ds.map_batches(
        _ft.partial(_freq_partial, key=key,
                    lg_max_map_size=lg_max_map_size),
        batch_format="pyarrow", zero_copy_batch=True)
    from .context import gather_table

    t = gather_table(parts)
    total_rows = int(pc.sum(t.column("rows")).as_py() or 0)
    total_offset = int(pc.sum(t.column("offset")).as_py() or 0)
    if total_rows == 0:
        return []
    items = t.filter(pc.is_valid(t.column("item")))
    g = items.group_by(["item"]).aggregate([("lb", "sum")])
    lb = g.column("lb_sum").to_numpy(zero_copy_only=False).astype(np.int64)
    ub = lb + total_offset
    keys = g.column("item").to_pylist()
    thresh = max(1, int(min_frac * total_rows))
    ranked = sorted(((int(u), k) for u, k in zip(ub, keys)
                     if u >= thresh), key=lambda t: (-t[0], t[1]))
    return [k for _, k in ranked[:top_k]]


def skew_join(left_ds, right_ds, on: tuple[str, str], *,
              num_partitions: int = 32, min_hot_frac: float = 0.01,
              top_k: int = 64, lg_max_map_size: int = 12,
              broadcast_cap_bytes: int = 256 * 1024 * 1024):
    """Skew-aware inner equi-join: heavy-hitter keys detected by the
    frequent-items pass bypass the all-to-all shuffle entirely — the
    right side's hot-key rows ship once via ``ray.put`` and the left
    side's hot rows join map-side — while the cold remainder runs the
    standard co-partition join. On a 100 TB join a single mega-key (a
    bot user, a default id) would otherwise pin one shuffle partition;
    here it costs one broadcast of the (small) matching right rows.
    Result set is identical to ``hash_join`` by construction (hot/cold
    is a partition of the key space)."""
    lk, rk = on
    # pin both sides once: the detection passes and the hot/cold splits
    # below all re-read them, so without this the upstream executes 3x
    left_ds = left_ds.materialize()
    right_ds = right_ds.materialize()
    # Detect heavy hitters on BOTH key distributions: a key that is cold
    # on the left but extremely hot on the right would otherwise pin one
    # shuffle partition in the cold path just the same. Union the sets.
    hot_l = detect_hot_keys(left_ds, lk, lg_max_map_size=lg_max_map_size,
                            min_frac=min_hot_frac, top_k=top_k)
    hot_r = detect_hot_keys(right_ds, rk, lg_max_map_size=lg_max_map_size,
                            min_frac=min_hot_frac, top_k=top_k)
    hot = sorted(set(hot_l) | set(hot_r))[: 2 * top_k]

    lschema = left_ds.schema()
    rschema = right_ds.schema()
    left_cols = [n for n in lschema.names if n != lk]
    right_cols = [n for n in rschema.names if n != rk]
    out_names = [lk] + left_cols + right_cols

    if not hot:
        return hash_join(left_ds, right_ds, on=on,
                         num_partitions=num_partitions,
                         broadcast_threshold=0)

    hot_arr = pa.array(sorted(hot),
                       type=lschema.types[lschema.names.index(lk)])

    def _split(batch: pa.Table, key: str, keep_hot: bool) -> pa.Table:
        m = pc.is_in(batch.column(key), value_set=hot_arr)
        return batch.filter(m if keep_hot else pc.invert(m))

    import functools as _ft

    from .context import gather_table

    right_mat = right_ds  # already pinned above
    right_hot_tbl = gather_table(right_mat.map_batches(
        _ft.partial(_split, key=rk, keep_hot=True),
        batch_format="pyarrow", zero_copy_batch=True))
    if right_hot_tbl.nbytes > broadcast_cap_bytes:
        # The hot slice of the right side is too big to ship as one
        # broadcast object (a key hot on BOTH sides is a near
        # cross-product — no broadcast saves that). Fall back to the
        # plain co-partition shuffle, which is always correct.
        return hash_join(left_ds, right_ds, on=on,
                         num_partitions=num_partitions,
                         broadcast_threshold=0)
    right_hot_ref = ray.put(right_hot_tbl)
    right_cold = right_mat.map_batches(
        _ft.partial(_split, key=rk, keep_hot=False),
        batch_format="pyarrow", zero_copy_batch=True)

    left_mat = left_ds  # already pinned above
    hot_part = left_mat.map_batches(
        _ft.partial(_split, key=lk, keep_hot=True),
        batch_format="pyarrow", zero_copy_batch=True,
    ).map_batches(
        _ft.partial(_bcast_join_batch, right_ref=right_hot_ref, lk=lk,
                    rk=rk, join_type="inner"),
        batch_format="pyarrow", zero_copy_batch=True)
    cold_part = hash_join(
        left_mat.map_batches(_ft.partial(_split, key=lk, keep_hot=False),
                             batch_format="pyarrow", zero_copy_batch=True),
        right_cold, on=on, num_partitions=num_partitions,
        broadcast_threshold=0)

    def _fix(batch: pa.Table) -> pa.Table:
        return batch.select(out_names)

    return (hot_part.map_batches(_fix, batch_format="pyarrow",
                                 zero_copy_batch=True)
            .union(cold_part.map_batches(_fix, batch_format="pyarrow",
                                         zero_copy_batch=True)))
