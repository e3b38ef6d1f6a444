"""The candidate exchange: band rows and turn-hash rows in one keyed fold.

Both blocking signals of the flagship are "conversations that share a
u64 bucket hash": LSH band buckets (stages/lsh.py) and exact turn-text
hash buckets (stages/turnblock.py). So they share one hash shuffle
(stages/keyed.keyed_fold) over rows of one schema,

    (band_hash u64, conv_id, sig_digest large_binary, salt int32, kind int8)

Band rows (kind 0) come from ``lsh.explode_bands``. Turn rows (kind 1)
carry the turn hash in ``band_hash``, salt 0 and a null ``sig_digest``.
The fold key is (kind, band_hash, salt): a band bucket and a turn bucket
with the same u64 never merge, and every sorted block is two contiguous
slices, band rows then turn rows. The band slice runs
``lsh.pairs_in_block`` (digest prefilter, chain above
``max_band_group``, hot-shard representatives), the turn slice
``turnblock.pairs_block`` (buckets above ``turn_block_max_convs``
dropped). Any partition count gives the same pair set, because both
kernels group by the fold's key runs.

Output pairs are (a, b) conv_id strings, a < b, not deduped: a pair
several buckets emit comes out once per bucket, and verify's pair fold
removes the copies. When hot band buckets exist, their shards'
representatives chain in a second, band-only fold that restores
cross-shard connectivity; with no hot bucket that pass does not run.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import ray

from ..config import DedupConfig
from .context import auto_partitions
from .ids import encode_columns
from .keyed import keyed_fold, np_col
from .lsh import _in_sorted, detect_hot_bands, explode_bands, pairs_in_block
from .turnblock import pairs_block

# band and turn rows are both ~20-40 bytes
_ROWS_PER_PARTITION = 200_000
BAND, TURN = 0, 1


def _kind(n: int, kind: int) -> pa.Array:
    return pa.array(np.full(n, kind, dtype=np.int8))


def band_rows(batch: pa.Table, hot_ref=None, bridge_ref=None,
              band_filter_ref=None) -> pa.Table:
    """Signature rows -> band rows of the exchange (see explode_bands)."""
    rows = explode_bands(batch, hot_ref, bridge_ref, band_filter_ref)
    return rows.append_column("kind", _kind(len(rows), BAND))


def turn_rows(batch: pa.Table, bridge_ref=None,
              hash_filter_ref=None) -> pa.Table:
    """(conv_id, h) rows -> turn rows of the exchange, conv_id coded by
    ``ids.encode_columns``. With ``hash_filter_ref`` (sorted u64 set,
    an increment's own turn hashes) only rows whose hash is in the set
    are kept: a bucket without a new conv can only yield old-old pairs,
    which an increment drops anyway."""
    h = np_col(batch, "h")
    if hash_filter_ref is not None:
        keep = _in_sorted(h, ray.get(hash_filter_ref))
        batch, h = batch.filter(pa.array(keep)), h[keep]
    n = len(batch)
    conv = encode_columns(batch.select(["conv_id"]), ["conv_id"], bridge_ref)
    return pa.table({"band_hash": pa.array(h, type=pa.uint64()),
                     "conv_id": conv.column("conv_id"),
                     "sig_digest": pa.nulls(n, pa.large_binary()),
                     "salt": pa.array(np.zeros(n, dtype=np.int32)),
                     "kind": _kind(n, TURN)})


def bucket_pairs(block: pa.Table, starts: np.ndarray, config: DedupConfig,
                 hot_ref=None, bridge_ref=None) -> pa.Table:
    """One block of the exchange, sorted by (kind, band_hash, salt,
    conv_id) with ``starts`` its bucket starts -> the band slice's
    pairs (and hot representatives) plus the turn slice's pairs."""
    nb = int(np.searchsorted(np_col(block, "kind"), TURN))
    cut = int(np.searchsorted(starts, nb))
    band = pairs_in_block(block.slice(0, nb), starts[:cut],
                          config.max_band_group,
                          config.prefilter_min_matches, hot_ref=hot_ref,
                          bridge_ref=bridge_ref)
    turn = pairs_block(block.slice(nb), starts[cut:] - nb,
                       config.turn_block_max_convs, bridge_ref=bridge_ref)
    if hot_ref is not None:
        turn = turn.append_column("is_rep", pa.array(np.zeros(len(turn),
                                                              bool)))
    return pa.concat_tables([band, turn], promote_options="default")


def candidate_exchange(config: DedupConfig, sig_ds=None, hash_ds=None, *,
                       bridge_ref=None, band_filter_ref=None,
                       hash_filter_ref=None):
    """Band rows of ``sig_ds`` and turn rows of ``hash_ds`` (either may
    be None) -> candidate pair dataset, through one keyed fold.

    ``bridge_ref`` codes the shuffled conv ids (stages/ids.py);
    ``band_filter_ref`` / ``hash_filter_ref`` keep only the buckets an
    increment touches. The shuffle is sized to the rows it moves: band
    rows as signatures x bands, turn rows counted once materialized."""
    parts, n_rows, hot_ref = [], 0, None
    if sig_ds is not None:
        hot = detect_hot_bands(sig_ds, config)
        hot_ref = ray.put((hot, config.hot_key_salt)) if len(hot) else None
        parts.append(sig_ds.map_batches(
            functools.partial(band_rows, hot_ref=hot_ref,
                              bridge_ref=bridge_ref,
                              band_filter_ref=band_filter_ref),
            batch_format="pyarrow", zero_copy_batch=True))
        n_rows += sig_ds.count() * config.num_bands
    if hash_ds is not None:
        turns = hash_ds.map_batches(
            functools.partial(turn_rows, bridge_ref=bridge_ref,
                              hash_filter_ref=hash_filter_ref),
            batch_format="pyarrow", zero_copy_batch=True).materialize()
        parts.append(turns)
        n_rows += turns.count()
    rows = parts[0] if len(parts) == 1 else parts[0].union(parts[1])
    P = auto_partitions(n_rows, _ROWS_PER_PARTITION, config.num_partitions)
    pairs = keyed_fold(rows, ["kind", "band_hash", "salt"],
                       functools.partial(bucket_pairs, config=config,
                                         hot_ref=hot_ref,
                                         bridge_ref=bridge_ref),
                       P, order_by=["conv_id"])
    if hot_ref is None:
        return pairs
    mixed = pairs.materialize()
    shard_pairs = mixed.filter(expr="is_rep == False") \
        .select_columns(["a", "b"])
    reps = mixed.filter(expr="is_rep == True") \
        .select_columns(["band_hash", "conv_id", "sig_digest"])
    return shard_pairs.union(keyed_fold(
        reps, ["band_hash"],
        functools.partial(pairs_in_block, max_group=config.max_band_group,
                          min_matches=config.prefilter_min_matches,
                          bridge_ref=bridge_ref),
        min(P, 8), order_by=["conv_id"]))
