"""Sequence packing: greedy fill of documents into fixed token-budget
packs — the batch-construction step of LLM training (concatenate short
docs up to the context length so no compute is wasted on padding).

Distributed shape: packing is inherently order-sequential, so the
scalable form packs PER PARTITION — each partition key packs its own
docs independently in a deterministic (id) order, and pack ids are
namespaced by partition (``part * 2^32 + local``). One keyed shuffle,
then a pure in-block kernel; partitions never coordinate, so the
operator streams at any scale and its output is partition-count
independent (the partition KEY, not the block layout, defines the
packing units).

In-block kernel: greedy boundaries are found by jumping along the
token-count prefix sum with ``np.searchsorted`` — the loop advances one
PACK per iteration (not one row), so cost is O(packs * log n) with all
per-row work vectorized. Semantics match the sequential recurrence
"if filled + n > budget then open a new pack" exactly (an oversized doc
gets its own pack), which is what the DuckDB recursive-CTE oracle runs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .arrow_util import as_array
from .keyed import keyed_fold


def _pack_group(tokens: np.ndarray, budget: int) -> np.ndarray:
    """Token counts in pack order -> local pack index per doc."""
    n = len(tokens)
    packs = np.empty(n, dtype=np.int64)
    csum = np.cumsum(tokens, dtype=np.int64)
    b = 0
    pack = 0
    start = 0
    while b < n:
        # last doc index whose cumulative load fits within budget
        e = int(np.searchsorted(csum, start + budget, side="right"))
        if e <= b:          # single doc exceeds budget: its own pack
            e = b + 1
        packs[b:e] = pack
        start = int(csum[e - 1])
        pack += 1
        b = e
    return packs


def pack_sequences_block(b: pa.Table, budget: int, part_col: str,
                         tok_col: str, id_col: str) -> pa.Table:
    if len(b) == 0:   # hash collisions can leave a keyed partition empty
        return pa.table({
            id_col: pa.array([], type=pa.int64()),
            tok_col: pa.array([], type=pa.int64()),
            "pack_id": pa.array([], type=pa.int64()),
            "pack_pos": pa.array([], type=pa.int64()),
        })
    part = as_array(b.column(part_col)).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    ids = as_array(b.column(id_col)).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    toks = as_array(b.column(tok_col)).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    order = np.lexsort((ids, part))
    part_s, ids_s, toks_s = part[order], ids[order], toks[order]
    pack_id = np.empty(len(b), dtype=np.int64)
    pack_pos = np.empty(len(b), dtype=np.int64)
    # few distinct partition keys per block after the keyed shuffle
    bounds = np.flatnonzero(np.diff(part_s)) + 1
    for lo, hi in zip(np.concatenate([[0], bounds]),
                      np.concatenate([bounds, [len(b)]])):
        local = _pack_group(toks_s[lo:hi], budget)
        pack_id[lo:hi] = part_s[lo] * 4294967296 + local
        first = np.concatenate([[0], np.flatnonzero(np.diff(local)) + 1])
        starts = np.zeros(hi - lo, dtype=np.int64)
        starts[first] = 1
        seg_start = np.arange(hi - lo)[first][np.cumsum(starts) - 1]
        pack_pos[lo:hi] = np.arange(hi - lo) - seg_start
    return pa.table({
        id_col: pa.array(ids_s, type=pa.int64()),
        tok_col: pa.array(toks_s, type=pa.int64()),
        "pack_id": pa.array(pack_id, type=pa.int64()),
        "pack_pos": pa.array(pack_pos, type=pa.int64()),
    })


def pack_sequences(ds, budget: int, n_parts: int, tok_col: str,
                   id_col: str, num_partitions: int = 8):
    """(id, token_count) rows -> (id, token_count, pack_id, pack_pos).
    Partition key = id % n_parts (deterministic, SQL-reproducible);
    each key packs independently in ascending id order."""
    def keyed(b):
        ids = as_array(b.column(id_col)).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return b.append_column(
            "__part", pa.array(ids % n_parts, type=pa.int64()))

    return keyed_fold(
        ds.map_batches(keyed, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["__part"],
        lambda b, _starts: pack_sequences_block(b, budget, "__part",
                                                tok_col, id_col),
        min(num_partitions, n_parts), order_by=None)
