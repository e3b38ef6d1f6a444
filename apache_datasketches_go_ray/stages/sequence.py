"""Per-key ordered-sequence operators: event paths (ordered string
concatenation per key — the same groupby(key) + stable in-block sort +
binary_join shape as conversation assembly, stages/assemble.py) and
funnel-stage depth (ordered pattern matching).

The reference library is order-free (SURVEY.md §2.6); these are net-new
training-data-pipeline operators. Both use the engine's co-location
primitive — one hash shuffle on the key puts every row of a key in one
block — then a fully vectorized numpy/Arrow kernel over the sorted
block. Nothing here materializes per-key Python objects; the path
strings are built with pyarrow's native ``binary_join`` over a
ListArray view of the sorted column.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .arrow_util import as_array
from .context import auto_partitions
from .keyed import keyed_fold, np_col, segment_ids

_I64MAX = np.iinfo(np.int64).max


def event_paths(ds, key_col: str = "user_id", ts_col: str = "ts",
                id_col: str = "event_id", label_col: str = "event_type",
                sep: str = ">", num_partitions: int = 64):
    """Per-key ordered label path: ``string_agg(label, sep ORDER BY ts,
    id)`` plus the event count. The concatenation is zero-loop: the
    sorted label column is wrapped in a ListArray whose offsets are the
    key-segment boundaries, then joined natively with
    ``pc.binary_join``."""

    def project(b: pa.Table) -> pa.Table:
        return pa.table({
            "k": b.column(key_col).cast(pa.int64()),
            "ts": b.column(ts_col).cast(pa.int64()),
            "id": b.column(id_col).cast(pa.int64()),
            "lbl": b.column(label_col).cast(pa.string()),
        })

    def fold(b: pa.Table, starts) -> pa.Table:
        offsets = np.append(starts, len(b)).astype(np.int32)
        lists = pa.ListArray.from_arrays(pa.array(offsets),
                                         as_array(b.column("lbl")))
        return pa.table({
            key_col: pa.array(np_col(b, "k")[starts], type=pa.int64()),
            "n_events": pa.array(np.diff(offsets), type=pa.int64()),
            "path": pc.binary_join(lists, sep),
        })

    P = auto_partitions(ds.count(), 200_000, num_partitions)
    return keyed_fold(
        ds.select_columns([key_col, ts_col, id_col, label_col])
        .map_batches(project, batch_format="pyarrow", zero_copy_batch=True),
        ["k"], fold, P, order_by=["ts", "id"])


def funnel_depth(ds, stages: list[str], key_col: str = "user_id",
                 ts_col: str = "ts", id_col: str = "event_id",
                 label_col: str = "event_type",
                 num_partitions: int = 64):
    """Ordered funnel: per key, the depth of the stage sequence
    completed in timestamp order. Stage i+1 counts only if it happens at
    or after the *earliest qualifying* stage-i event (the standard
    min-chained funnel: t1 = min ts of stage0; t_{i+1} = min ts of
    stage_{i+1} with ts >= t_i). Returns (key, depth, t_first, t_last)
    where t_first/t_last are the stage-entry timestamps of the first and
    deepest completed stage (null when depth==0).

    Kernel: one hash shuffle, then per block a masked
    ``np.minimum.reduceat`` per stage — no per-row or per-key Python
    loop; the chain is length ``len(stages)``, each link one
    vectorized pass."""

    def project(b: pa.Table) -> pa.Table:
        return pa.table({
            "k": b.column(key_col).cast(pa.int64()),
            "ts": b.column(ts_col).cast(pa.int64()),
            "lbl": b.column(label_col).cast(pa.string()),
        })

    def fold(b: pa.Table, starts) -> pa.Table:
        ts_type = pa.timestamp("us")
        sts = np_col(b, "ts")
        lbl = as_array(b.column("lbl"))
        seg_id = segment_ids(starts, len(b))
        n_seg = len(starts)
        masks = [pc.equal(lbl, s).to_numpy(zero_copy_only=False)
                 for s in stages]
        # chained mins: t[i] per segment, broadcast back to rows
        t_prev_rows = np.zeros(len(b), dtype=np.int64)  # -inf chain
        stage_t = np.empty((len(stages), n_seg), dtype=np.int64)
        for i, m in enumerate(masks):
            x = np.where(m & (sts >= t_prev_rows), sts, _I64MAX)
            t_i = np.minimum.reduceat(x, starts) if len(x) else x
            stage_t[i] = t_i
            t_prev_rows = t_i[seg_id]
        reached = stage_t < _I64MAX
        depth = reached.sum(axis=0).astype(np.int64)
        # reached is prefix-monotone by construction (chain condition)
        t_first = stage_t[0]
        deep_idx = np.maximum(depth - 1, 0)
        t_deepest = stage_t[deep_idx, np.arange(n_seg)]
        none_mask = depth == 0
        return pa.table({
            key_col: pa.array(np_col(b, "k")[starts], type=pa.int64()),
            "depth": pa.array(depth, type=pa.int64()),
            "t_first": pa.array(t_first, type=pa.int64(),
                                mask=none_mask).cast(ts_type),
            "t_deepest": pa.array(t_deepest, type=pa.int64(),
                                  mask=none_mask).cast(ts_type),
        })

    P = auto_partitions(ds.count(), 200_000, num_partitions)
    return keyed_fold(
        ds.select_columns([key_col, ts_col, id_col, label_col])
        .map_batches(project, batch_format="pyarrow", zero_copy_batch=True),
        ["k"], fold, P, order_by=["ts"])
