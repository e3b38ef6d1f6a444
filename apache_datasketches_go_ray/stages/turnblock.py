"""Exact turn-collision candidate blocking.

MinHash LSH over whole-conversation shingle sets cannot reach
containment duplicates whose kept turn range is a small token fraction
of the base: the full-text Jaccard sits far below the banding
threshold even though exact containment is ~1.0 (a contiguous-turn
copy of a 2-turn conversation that keeps the 10-token turn of a
10+190-token base has shingle-J ~ 0.05 — invisible to any banding at
the configured thresholds, yet squarely in-spec via the containment
gate). Measured on the planted fixture, these pairs were ~90% of all
in-spec recall misses.

Every containment / exact / reorder copy shares whole turns VERBATIM
with its base, so an exact turn-text hash collision is a cheap,
high-precision candidate signal that is independent of full-text
Jaccard: hash each qualifying turn text to u64, key-shuffle the
distinct (conv_id, hash) rows by hash, and emit conversation pairs per
hash bucket with the standard hot-key cap (a turn text shared by more
than ``turn_block_max_convs`` conversations is boilerplate, not dup
evidence — dropping it bounds the pair yield exactly like the band
group cap in stages/lsh.py). Pairs union with the LSH candidates and
flow through the same exact verification, so precision is unchanged —
this stage only adds candidates.

Scale shape: the shuffle payload is distinct (conv_id, u64) — ~20
bytes per turn, far lighter than the signature shuffle — and pair
emission is bucket-local with bucket sizes capped, so no all-pairs
blowup exists at any scale. The reference's substrate contribution is
the same hashing discipline its sketches use for identity
(hll/hll_sketch.go:338-343); the blocking rule itself is the classic
exact-fragment candidate pass of large-scale dedup systems.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import DedupConfig
from ..functions.murmur3 import hash_strings
from .arrow_util import as_array
from .ids import decode_columns, ids_at, local_codes, map_encode

_ROWS_SCHEMA = pa.schema([("conv_id", pa.string()), ("h", pa.uint64())])
_PAIRS_SCHEMA = pa.schema([("a", pa.string()), ("b", pa.string())])
# (conv, h) rows are ~16-20 bytes: the same grain as lsh's band rows
_ROWS_PER_PARTITION = 200_000


def turn_hash_rows(batch: pa.Table, min_chars: int) -> pa.Table:
    """Raw turn rows -> block-local distinct (conv_id, turn-text hash),
    keeping only turns with >= ``min_chars`` codepoints (trivial short
    turns — "ok", "thanks" — carry no dup evidence and would only feed
    the hot cap)."""
    if len(batch) == 0:
        return _ROWS_SCHEMA.empty_table()
    texts = as_array(batch.column("text"))
    keep = pc.greater_equal(pc.utf8_length(texts), min_chars)
    t = pa.table({"conv_id": as_array(batch.column("conv_id")),
                  "text": texts}).filter(keep)
    if len(t) == 0:
        return _ROWS_SCHEMA.empty_table()
    h1, _ = hash_strings(as_array(t.column("text")))
    return pa.table({"conv_id": t.column("conv_id"),
                     "h": pa.array(h1, type=pa.uint64())}).group_by(
        ["conv_id", "h"]).aggregate([])


def pairs_block(batch: pa.Table, max_convs: int,
                bridge_ref=None) -> pa.Table:
    """hash-co-located (conv_id, h) rows -> candidate pairs (a < b).

    Global distinct per (h, conv) happens here (the keyed shuffle
    co-locates every copy), then every bucket with 2..max_convs member
    conversations emits its full pair set — vectorized per distinct
    bucket size, the same expansion pattern as lsh._vector_pairs.
    Pairs come out as conv_id strings whatever the id coding."""
    if len(batch) == 0:
        return _PAIRS_SCHEMA.empty_table()
    d = batch.group_by(["h", "conv_id"]).aggregate([])
    rank, uniq = local_codes(d.column("conv_id"))
    h = d.column("h").to_numpy(zero_copy_only=False)
    order = np.lexsort((rank, h))
    h_s, r_s = h[order], rank[order]
    n = len(h_s)
    newgrp = np.ones(n, dtype=bool)
    newgrp[1:] = h_s[1:] != h_s[:-1]
    starts = np.flatnonzero(newgrp)
    sizes = np.diff(np.concatenate([starts, [n]]))
    a_out: list = []
    b_out: list = []
    for g in np.unique(sizes):
        if g < 2 or g > max_convs:
            continue
        bsel = np.flatnonzero(sizes == g)
        idx = starts[bsel][:, None] + np.arange(g)     # (nb, g)
        mem = r_s[idx]
        ia, ib = np.triu_indices(int(g), k=1)
        a_out.append(mem[:, ia].reshape(-1))
        b_out.append(mem[:, ib].reshape(-1))
    if not a_out:
        return _PAIRS_SCHEMA.empty_table()
    return decode_columns(
        pa.table({"a": ids_at(uniq, np.concatenate(a_out)),
                  "b": ids_at(uniq, np.concatenate(b_out))}),
        ["a", "b"], bridge_ref)


def turn_hash_dataset(transcripts_ds, config: DedupConfig):
    """Raw transcript turns -> distinct (conv_id, h) rows (pre-shuffle,
    block-local distinct only; the keyed shuffle in pairs_from_hashes
    finishes it). Checkpointed by the pipeline so an incremental run
    can band a new batch against the old corpus without re-reading it."""
    return transcripts_ds.map_batches(
        functools.partial(turn_hash_rows,
                          min_chars=config.turn_block_min_chars),
        batch_format="pyarrow", zero_copy_batch=True)


def hashes_from_assembled(assembled_ds, config: DedupConfig):
    """Fallback for checkpoints written before the turn_hashes surface:
    re-derive turn hashes by splitting assembled text on TURN_SEP.
    Identical to raw-turn hashing whenever turn texts contain no
    TURN_SEP themselves (the per-turn-text-equality invariant the
    assembled surface preserves); checkpoints written by this version
    carry the exact raw-turn hashes instead."""
    from .assemble import TURN_SEP

    def split_rows(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return _ROWS_SCHEMA.empty_table()
        texts = as_array(b.column("text"))
        parts = pc.split_pattern(texts, TURN_SEP)
        counts = pc.list_value_length(parts).to_numpy(
            zero_copy_only=False).astype(np.int64)
        rep = np.repeat(np.arange(len(b), dtype=np.int64), counts)
        t = pa.table({
            "conv_id": as_array(b.column("conv_id")).take(pa.array(rep)),
            "text": pc.list_flatten(parts),
        })
        return turn_hash_rows(t, config.turn_block_min_chars)

    return assembled_ds.map_batches(split_rows, batch_format="pyarrow",
                                    zero_copy_batch=True)


def _filter_hashes(batch: pa.Table, hash_filter_ref) -> pa.Table:
    """Keep only rows whose turn hash is in the broadcast sorted set
    (the increment's hashes): buckets without a new conv can only
    yield old-old pairs, which an incremental run drops anyway."""
    import ray as _ray

    if len(batch) == 0:
        return batch
    hs = batch.column("h").to_numpy(zero_copy_only=False)
    allowed = _ray.get(hash_filter_ref)
    if len(allowed) == 0:
        return batch.slice(0, 0)
    idx = np.searchsorted(allowed, hs)
    idx[idx >= len(allowed)] = 0
    return batch.filter(pa.array(allowed[idx] == hs))


def pairs_from_hashes(hash_ds, config: DedupConfig, bridge_ref=None,
                      hash_filter_ref=None):
    """(conv_id, h) rows -> candidate pair dataset (a < b, not deduped —
    verify's first co-partition join dedups for free). ``bridge_ref``
    codes the conv column before the keyed shuffle (stages/ids.py; the
    checkpointable hash surface keeps strings); ``hash_filter_ref``
    restricts rows to an increment's turn-hash set
    before the shuffle (exact — see _filter_hashes).

    The shuffle is sized to the rows it moves (context.auto_partitions,
    capped at ``num_partitions``): they are materialized once, so the
    count reads block metadata instead of a second pass over lazy rows."""
    from .context import auto_partitions

    if hash_filter_ref is not None:
        hash_ds = hash_ds.map_batches(
            functools.partial(_filter_hashes,
                              hash_filter_ref=hash_filter_ref),
            batch_format="pyarrow", zero_copy_batch=True)
    hash_ds = map_encode(hash_ds, ["conv_id"], bridge_ref).materialize()
    P = auto_partitions(hash_ds.count(), _ROWS_PER_PARTITION,
                        config.num_partitions)
    return (hash_ds.repartition(P, keys=["h"])
            .map_batches(
                functools.partial(pairs_block,
                                  max_convs=config.turn_block_max_convs,
                                  bridge_ref=bridge_ref),
                batch_format="pyarrow", batch_size=None,
                zero_copy_batch=True))


def turn_block_pairs(transcripts_ds, config: DedupConfig):
    """Full blocking pass: raw turns -> candidate pairs."""
    return pairs_from_hashes(turn_hash_dataset(transcripts_ds, config),
                             config)
