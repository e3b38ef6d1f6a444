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
distinct (conv_id, hash) rows by hash — in the same keyed fold as the
LSH band rows (stages/candidates.py) — and emit conversation pairs per
hash bucket with the standard hot-key cap (a turn text shared by more
than ``turn_block_max_convs`` conversations is boilerplate, not dup
evidence — dropping it bounds the pair yield exactly like the band
group cap in stages/lsh.py). Pairs flow with the LSH candidates through
the same exact verification, so precision is unchanged — this stage
only adds candidates.

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
from .lsh import _pair_table, _vector_pairs, bucket_members

_ROWS_SCHEMA = pa.schema([("conv_id", pa.string()), ("h", pa.uint64())])


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


def pairs_block(batch: pa.Table, starts: np.ndarray, max_convs: int,
                bridge_ref=None) -> pa.Table:
    """(conv_id, h) rows sorted by (h, conv_id), ``starts`` the hash
    buckets' first rows -> candidate pairs (a < b).

    Global distinct per (h, conv) happens here (the keyed fold
    co-locates every copy), then every bucket with 2..max_convs member
    conversations emits its full pair set through lsh._vector_pairs
    with a zero-width digest (no prefilter). Pairs come out as conv_id
    strings whatever the id coding."""
    uniq, _mrows, m_rank, sizes, boffs = bucket_members(batch, starts)
    keep = sizes <= max_convs
    a, b = _vector_pairs(m_rank, np.empty((len(m_rank), 0), dtype=np.uint8),
                         sizes[keep], boffs[keep], max_convs, 0)
    return _pair_table(uniq, a, b, bridge_ref)


def turn_hash_dataset(transcripts_ds, config: DedupConfig):
    """Raw transcript turns -> distinct (conv_id, h) rows (pre-shuffle,
    block-local distinct only; the candidate exchange finishes it).
    Checkpointed by the pipeline so an incremental run can band a new
    batch against the old corpus without re-reading it."""
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


def pairs_from_hashes(hash_ds, config: DedupConfig, bridge_ref=None,
                      hash_filter_ref=None):
    """(conv_id, h) rows -> candidate pair dataset (a < b, not deduped —
    verify's pair fold dedups): the candidate exchange
    (stages/candidates.py) over turn rows only. ``bridge_ref`` codes the
    conv column before the keyed shuffle (stages/ids.py; the
    checkpointable hash surface keeps strings); ``hash_filter_ref``
    restricts rows to an increment's turn-hash set (candidates.turn_rows)."""
    from .candidates import candidate_exchange

    return candidate_exchange(config, hash_ds=hash_ds, bridge_ref=bridge_ref,
                              hash_filter_ref=hash_filter_ref)


def turn_block_pairs(transcripts_ds, config: DedupConfig):
    """Full blocking pass: raw turns -> candidate pairs."""
    return pairs_from_hashes(turn_hash_dataset(transcripts_ds, config),
                             config)
