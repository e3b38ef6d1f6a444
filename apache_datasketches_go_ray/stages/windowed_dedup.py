"""Time-windowed near-duplicate detection over conversations.

For append-only corpora (daily crawls, streaming ingests) the dedup
question is often bounded in TIME: "is this conversation a near-dup of
anything ingested within the last W days?" Restricting candidates to a
trailing window turns the corpus-wide O(n_banded_pairs) candidate space
into one proportional to the window's own collision volume — the same
reason production crawl dedup shards by crawl date.

Mechanism: conversations are MinHash-signed exactly like the flagship
(stages/signature.py), but each band row is emitted TWICE — into its
own time bucket (bucket = conv_start // W) and the next one — and the
band shuffle keys on (band_hash, bucket). Any pair whose start times
lie within W therefore shares at least one (band, bucket) cell
(buckets differ by at most 1), so window recall equals flagship band
recall; pairs farther apart than one bucket never meet, which is the
point. The bucket key doubles as natural salting: a boilerplate band
bucket is split by time, so hot-band skew is bounded by the window's
own volume. Verification reuses the flagship's exact Jaccard +
containment pass; the final filter keeps is_dup pairs with
|start_a - start_b| <= W exactly.

The two-bucket emission is the classic trailing-window join trick (the
same expansion trailing_distinct_by_day uses, stages/windows.py); the
merge discipline is the reference's (hll/union.go:151-158) — every
stage a partial + keyed fold.
"""
from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

from ..config import DedupConfig
from .arrow_util import as_array
from .assemble import assemble
from .context import auto_partitions
from .keyed import keyed_fold
from .lsh import pairs_in_block
from .signature import sign
from .verify import verify_pairs


def conv_start_times(transcripts_ds, num_partitions: int = 16):
    """(conv_id, ts0 = min turn ts, epoch us): per-block partial min +
    conv-keyed fold."""

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({
            "conv_id": as_array(b.column("conv_id")).cast(pa.string()),
            "ts0": b.column("ts").cast(pa.int64()),
        }).group_by("conv_id").aggregate([("ts0", "min")])
        return pa.table({"conv_id": t.column("conv_id"),
                         "ts0": t.column("ts0_min")})

    return keyed_fold(
        transcripts_ds.select_columns(["conv_id", "ts"])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["conv_id"], _ts_fold, num_partitions, order_by=None)


def _ts_fold(b: pa.Table, _starts) -> pa.Table:
    t = b.group_by("conv_id").aggregate([("ts0", "min")])
    return pa.table({"conv_id": t.column("conv_id"),
                     "ts0": t.column("ts0_min")})


def _bucket_duplicate(batch: pa.Table, w: int) -> pa.Table:
    """exploded band rows (+ ts0) -> 2x rows with bucket = ts0 // w and
    bucket + 1 (the trailing-window two-bucket emission)."""
    buckets = batch.column("ts0").to_numpy(zero_copy_only=False) // w
    one = pa.table({
        "band_hash": batch.column("band_hash"),
        "conv_id": batch.column("conv_id").cast(pa.string()),
        "sig_digest": batch.column("sig_digest"),
        "bucket": pa.array(buckets),
    })
    two = one.set_column(3, "bucket", pa.array(buckets + 1))
    return pa.concat_tables([one, two])


def windowed_near_dups(transcripts_ds, config: DedupConfig | None = None,
                       *, window_us: int, assembled_ds=None,
                       signatures_ds=None):
    """Verified near-dup conversation pairs whose start times differ by
    <= ``window_us``. Returns (a, b, jaccard, containment, gap_us).

    ``assembled_ds`` / ``signatures_ds`` reuse flagship checkpoints when
    available (the windowed pass then adds NO signing cost)."""
    cfg = config or DedupConfig()
    if assembled_ds is None:
        from ..pipelines.dedup import resolve_input_layout

        assembled_ds = assemble(
            transcripts_ds, cfg.num_partitions,
            input_layout=resolve_input_layout(cfg.input_layout,
                                              transcripts_ds),
        ).materialize()
    if signatures_ds is None:
        signatures_ds = sign(assembled_ds, cfg, keep_text=False)
    signatures_ds = signatures_ds.materialize()

    starts = conv_start_times(transcripts_ds,
                              cfg.num_partitions).materialize()

    from .join import hash_join

    w = int(window_us)
    if w <= 0:
        raise ValueError("window_us must be > 0")

    # explode bands BEFORE the ts0 attach: Acero joins reject list
    # payloads, and the exploded rows are all scalars
    from .lsh import explode_bands

    exploded = signatures_ds.map_batches(
        explode_bands, batch_format="pyarrow", zero_copy_batch=True)
    sig_b = hash_join(exploded, starts, on=("conv_id", "conv_id"),
                      num_partitions=cfg.num_partitions)

    P = auto_partitions(signatures_ds.count() * cfg.num_bands, 200_000,
                        cfg.num_partitions)
    pairs = keyed_fold(
        sig_b.map_batches(functools.partial(_bucket_duplicate, w=w),
                          batch_format="pyarrow", zero_copy_batch=True),
        ["band_hash", "bucket"],
        functools.partial(pairs_in_block, max_group=cfg.max_band_group,
                          min_matches=cfg.prefilter_min_matches),
        P, order_by=["conv_id"])

    verified = verify_pairs(pairs, signatures_ds, cfg, texts_ds=assembled_ds)
    dup = verified.filter(expr="is_dup == True")

    j1 = hash_join(dup, starts.rename_columns(["conv_id", "ts_a"]),
                   on=("a", "conv_id"), num_partitions=cfg.num_partitions)
    j2 = hash_join(j1, starts.rename_columns(["conv_id", "ts_b"]),
                   on=("b", "conv_id"), num_partitions=cfg.num_partitions)

    def finish(b: pa.Table) -> pa.Table:
        ta = b.column("ts_a").to_numpy(zero_copy_only=False)
        tb = b.column("ts_b").to_numpy(zero_copy_only=False)
        gap = np.abs(ta - tb)
        t = b.append_column("gap_us", pa.array(gap))
        t = t.filter(pa.array(gap <= w))
        return pa.table({
            "a": t.column("a").cast(pa.string()),
            "b": t.column("b").cast(pa.string()),
            "jaccard": t.column("jaccard").cast(pa.float64()),
            "containment": t.column("containment").cast(pa.float64()),
            "gap_us": t.column("gap_us"),
        })

    return j2.map_batches(finish, batch_format="pyarrow",
                          zero_copy_batch=True)
