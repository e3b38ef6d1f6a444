"""LSH banding -> candidate pairs, with salted repartitioning for hot keys.

Band rows are exploded as (band_hash, conv_id, sig_digest, salt) —
band index is already folded into the hash (functions/minhash.band_keys)
so a single uint64 key carries both — and folded together with the
turn-hash rows in the one candidate exchange (stages/candidates.py),
which co-locates each (band_hash, salt) bucket in one block, sorted by
conv_id; pair emission here is then a vectorized scan over the fold's
key runs, not per-group Python. Duplicate pairs from several colliding
bands are removed later, in verify's pair fold.

Skew handling (SURVEY §7.8, north_rule "band-key skew handled via salted
repartitioning"):

* **Chain cap** — buckets larger than ``max_band_group`` emit a sorted
  consecutive chain (g-1 pairs) instead of the quadratic set:
  connectivity within the bucket (what union-find needs) is preserved
  while the pair count stays linear.
* **Salted repartitioning** — a single mega-bucket (identical boilerplate
  across millions of convs) would otherwise land wholly in ONE shuffle
  partition. A deterministic conv-id sample (murmur % hot_sample_rate)
  is counted per bucket BEFORE the shuffle; buckets over the sampled
  threshold are "hot" and their rows get ``salt = murmur(conv_id) %
  hot_key_salt``, spreading the bucket across shards. Each shard chains
  its members, and one representative (min member) per shard flows into
  a tiny second pass that chains representatives per bucket, restoring
  cross-shard connectivity. All decisions are pure functions of the data
  (never of the partitioning), so the single-process oracle reproduces
  the exact pair set and clusters stay identical.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from ..config import DedupConfig
from ..functions.murmur3 import hash_strings
from .arrow_util import as_array
from .ids import decode_columns, encode_columns, ids_at, local_codes
from .keyed import keyed_fold, run_heads, segment_ids


def explode_bands(batch: pa.Table, hot_ref=None, bridge_ref=None,
                  band_filter_ref=None) -> pa.Table:
    """signature rows -> (band_hash, conv_id, sig_digest, salt) rows,
    conv_id coded by ``stages/ids.encode_columns``.

    ``salt`` is 0 unless the row's bucket is in the hot set of
    ``hot_ref`` (``(sorted hot band hashes, n_salt)``, ray.put once);
    a hot bucket's rows are spread by murmur(conv_id) % n_salt. The
    salt hash is murmur of the conv_id STRING, taken before the id is
    coded, so the shard decomposition (and therefore the pair set) does
    not depend on the coding and matches the oracle.

    ``band_filter_ref`` (sorted u64 band-hash set, ray.put once): only
    rows whose band hash is in the set are emitted — the incremental
    pipeline passes the NEW batch's band hashes so the corpus-side
    explode ships only buckets an increment actually touches (buckets
    without a new conv could only yield old-old pairs, which the
    increment drops anyway — so the filter is exact)."""
    bands = as_array(batch.column("bands"))
    flat = bands.flatten().to_numpy(zero_copy_only=False)
    rep = np.repeat(np.arange(len(batch)), len(flat) // max(len(batch), 1))
    if band_filter_ref is not None:
        keep = _in_sorted(flat, ray.get(band_filter_ref))
        flat = flat[keep]
        rep = rep[keep]
    salt = np.zeros(len(flat), dtype=np.int32)
    if hot_ref is not None:
        hot, n_salt = ray.get(hot_ref)
        is_hot = _in_sorted(flat, hot)
        h, _ = hash_strings(as_array(batch.column("conv_id")))
        salt[is_hot] = (h[rep[is_hot]] % np.uint64(n_salt)).astype(np.int32)
    rep_pa = pa.array(rep)
    conv = encode_columns(batch.select(["conv_id"]), ["conv_id"], bridge_ref)
    return pa.table({"band_hash": pa.array(flat, type=pa.uint64()),
                     "conv_id": conv.column("conv_id").take(rep_pa),
                     "sig_digest": batch.column("sig_digest").take(rep_pa),
                     "salt": pa.array(salt, type=pa.int32())})


def detect_hot_bands(sig_ds, config: DedupConfig) -> np.ndarray:
    """Sorted uint64 array of hot band hashes (sampled-count rule).

    Partition-independent: membership in the sample is decided by
    murmur(conv_id) % hot_sample_rate, so the result is a pure function
    of the data. The sampled band rows are ~1/rate of the full explode,
    value-counted per block (combiner), exactly folded under one keyed
    shuffle, and thresholded BEFORE anything reaches the driver — so
    driver memory is O(hot bands), not O(sampled distinct bands), and
    no per-row Python loop runs anywhere. Exact counting (not a freq
    sketch) keeps the decision deterministic: a Misra-Gries merge is
    order-dependent, and the hot set must reproduce bit-for-bit for
    cluster parity with the single-process oracle."""
    rate = np.uint64(config.hot_sample_rate)
    threshold = int(config.hot_sampled_count)

    def partial(batch: pa.Table) -> pa.Table:
        conv = as_array(batch.column("conv_id"))
        h, _ = hash_strings(conv)
        mask = h % rate == 0
        if not mask.any():
            return pa.table({"h": pa.array([], type=pa.uint64()),
                             "cnt": pa.array([], type=pa.int64())})
        bands = as_array(batch.column("bands"))
        flat = bands.flatten().to_numpy(zero_copy_only=False)
        n_bands = len(flat) // max(len(batch), 1)
        sel = flat.reshape(len(batch), n_bands)[mask].reshape(-1)
        uniq, cnt = np.unique(sel, return_counts=True)
        return pa.table({"h": pa.array(uniq, type=pa.uint64()),
                         "cnt": pa.array(cnt, type=pa.int64())})

    def fold(batch: pa.Table, _starts) -> pa.Table:
        g = batch.group_by("h").aggregate([("cnt", "sum")])
        hs = g.column("h").to_numpy(zero_copy_only=False)
        cs = g.column("cnt_sum").to_numpy(zero_copy_only=False)
        return pa.table({"h": pa.array(hs[cs >= threshold],
                                       type=pa.uint64())})

    P = max(2, min(int(config.num_partitions), 16))
    hot_ds = keyed_fold(
        sig_ds.select_columns(["conv_id", "bands"])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["h"], fold, P, order_by=None)
    parts = [blk.column("h").to_numpy(zero_copy_only=False)
             for blk in hot_ds.iter_batches(batch_size=None,
                                            batch_format="pyarrow")
             if len(blk)]
    if not parts:
        return np.array([], dtype=np.uint64)
    hot = np.concatenate(parts).astype(np.uint64)
    hot.sort()
    return hot


def _in_sorted(values: np.ndarray, sorted_arr: np.ndarray) -> np.ndarray:
    """Vectorized membership of uint64 values in a sorted uint64 array."""
    if len(sorted_arr) == 0 or len(values) == 0:
        return np.zeros(len(values), dtype=bool)
    idx = np.searchsorted(sorted_arr, values)
    idx[idx >= len(sorted_arr)] = 0
    return sorted_arr[idx] == values


def _digest_matrix(col, n: int) -> np.ndarray:
    """Fixed-width large_binary digest column -> (n, slots) uint8."""
    arr = as_array(col)
    if n == 0:
        return np.empty((0, 0), dtype=np.uint8)
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int64)[
        arr.offset : arr.offset + n + 1]
    width = int(offs[1] - offs[0])
    vals = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    base = int(offs[0])
    return vals[base : base + n * width].reshape(n, width)


def _vector_pairs(m_rank, m_dig, sizes, boffs, max_group, min_matches):
    """Vectorized pair emission across ALL buckets at once, grouped by
    bucket size (one numpy pass per distinct size instead of a Python
    iteration per bucket). Semantics identical to the per-bucket rule:
    full g*(g-1)/2 set for g <= max_group, sorted consecutive chain
    above (skew cap), digest prefilter on every pair."""
    a_out: list = []
    b_out: list = []
    for g in np.unique(sizes):
        if g < 2:
            continue
        bsel = np.flatnonzero(sizes == g)
        idx = boffs[bsel][:, None] + np.arange(g)      # (nb, g)
        mem = m_rank[idx]
        md = m_dig[idx]                                # (nb, g, slots)
        if g <= max_group:
            ia, ib = np.triu_indices(int(g), k=1)
        else:
            ia = np.arange(int(g) - 1)
            ib = ia + 1
        keep = (md[:, ia, :] == md[:, ib, :]).sum(axis=2) >= min_matches
        if keep.any():
            a_out.append(mem[:, ia][keep])
            b_out.append(mem[:, ib][keep])
    if not a_out:
        e = np.empty(0, dtype=np.int64)
        return e, e
    return np.concatenate(a_out), np.concatenate(b_out)


def bucket_members(batch: pa.Table, starts: np.ndarray):
    """One row per (bucket, member) of a block sorted by (bucket key,
    conv_id), ``starts`` the bucket starts: drops a conv's repeated
    hits. Returns (uniq, member rows, member codes, bucket sizes,
    bucket offsets into the member rows); ``uniq`` maps codes back to
    ids (ids.ids_at)."""
    rank, uniq = local_codes(batch.column("conv_id"))
    mrows = np.flatnonzero(run_heads(starts, rank))
    sizes = np.bincount(segment_ids(starts, len(batch))[mrows],
                        minlength=len(starts))
    boffs = np.concatenate([[0], np.cumsum(sizes)])[:-1]
    return uniq, mrows, rank[mrows], sizes, boffs


def _pair_table(uniq, a, b, bridge_ref) -> pa.Table:
    """Pair codes -> (a, b) conv_id strings, whatever the id coding."""
    return decode_columns(pa.table({"a": ids_at(uniq, a),
                                    "b": ids_at(uniq, b)}),
                          ["a", "b"], bridge_ref)


def pairs_in_block(batch: pa.Table, starts: np.ndarray, max_group: int,
                   min_matches: int, hot_ref=None,
                   bridge_ref=None) -> pa.Table:
    """Emit digest-prefiltered candidate pairs for every band bucket in
    a block sorted by (bucket key, conv_id); ``starts`` are the bucket
    starts. A pair survives only if >= min_matches of its sampled
    signature slots agree - rejecting the mass of low-Jaccard band
    collisions here, before any payload ever ships. Output pairs are
    decoded conv_id strings, so the pairs surface schema does not
    depend on the id coding.

    With ``hot_ref`` (``(sorted hot band hashes, n_salt)``) the buckets
    are (band_hash, salt) shards, and each hot one also emits one
    representative row (its min member + digest) for the cross-shard
    chaining pass. Output union schema: pair rows (is_rep=false, a/b
    set) and rep rows (is_rep=true, band_hash/conv_id/sig_digest set;
    conv_id stays coded, the representative pass re-enters this
    kernel)."""
    uniq, mrows, m_rank, sizes, boffs = bucket_members(batch, starts)
    m_dig = _digest_matrix(batch.column("sig_digest"), len(batch))[mrows]
    a, b = _vector_pairs(m_rank, m_dig, sizes, boffs, max_group,
                         min_matches)
    pairs = _pair_table(uniq, a, b, bridge_ref)
    if hot_ref is None:
        return pairs
    bucket_bh = batch.column("band_hash").to_numpy(
        zero_copy_only=False)[starts]
    hot_sel = np.flatnonzero(_in_sorted(bucket_bh, ray.get(hot_ref)[0]))
    reps = pa.table({
        "band_hash": pa.array(bucket_bh[hot_sel], type=pa.uint64()),
        "conv_id": ids_at(uniq, m_rank[boffs[hot_sel]]),
        "sig_digest": pa.array([m_dig[o].tobytes() for o in boffs[hot_sel]],
                               type=pa.large_binary()),
    })
    return pa.concat_tables([
        pairs.append_column("is_rep", pa.array(np.zeros(len(pairs), bool))),
        reps.append_column("is_rep", pa.array(np.ones(len(reps), bool))),
    ], promote_options="default")


def candidate_pairs(sig_ds, config: DedupConfig, *, dedup: bool = False,
                    bridge_ref=None, band_filter_ref=None):
    """signature table -> candidate pair table (a < b), not deduped:
    a pair several colliding bands emit comes out once per band, and
    ``verify_pairs`` removes the copies in a fold it runs anyway, so
    ``dedup=True`` raises.

    The candidate exchange (stages/candidates.py) over band rows only;
    ``bridge_ref`` codes the shuffled conv ids (stages/ids.py), output
    pairs are strings either way."""
    from .candidates import candidate_exchange

    if dedup:
        raise ValueError("candidate_pairs(dedup=True) is gone: dedup the "
                         "pairs with verify_pairs(dedup_pairs=True)")
    return candidate_exchange(config, sig_ds, bridge_ref=bridge_ref,
                              band_filter_ref=band_filter_ref)


def plan_lsh(threshold: float, num_perms: int = 128,
             fn_weight: float = 1.0):
    """Choose the (num_bands, rows_per_band) banding plan for a target
    Jaccard ``threshold`` under a signature budget of ``num_perms``
    slots — the standard S-curve optimization: candidate probability at
    similarity s is P(s) = 1 - (1 - s^r)^b, and the plan minimizes
    integral_0^t P(s) ds  +  fn_weight * integral_t^1 (1 - P(s)) ds
    (expected false-positive area below the threshold plus weighted
    false-negative area above it; Riemann sum at ds=0.001). Returns
    {num_bands, rows_per_band, fp_area, fn_area, threshold_50} where
    threshold_50 = (1/b)^(1/r) is the curve's midpoint.

    Deterministic planner-side utility (no data pass) complementing the
    measured lsh_sensitivity_curve query. At fn_weight=1 the balanced
    optimum for t=0.5 / 128 perms is (25 bands x 5 rows); the engine's
    default (42 x 3, curve midpoint 0.29) corresponds to a strongly
    recall-weighted objective (fn_weight >= ~24) — the flagship
    deliberately over-recalls and lets exact verification restore
    precision. Both facts pinned by pytest."""
    s = np.arange(0.0005, 1.0, 0.001)
    best = None
    for r in range(1, num_perms + 1):
        b = num_perms // r
        if b < 1:
            break
        p = 1.0 - (1.0 - s ** r) ** b
        fp = float(p[s < threshold].sum() * 0.001)
        fn = float((1.0 - p[s >= threshold]).sum() * 0.001)
        cost = fp + fn_weight * fn
        if best is None or cost < best[0]:
            best = (cost, b, r, fp, fn)
    _cost, b, r, fp, fn = best
    return {"num_bands": b, "rows_per_band": r,
            "fp_area": round(fp, 6), "fn_area": round(fn, 6),
            "threshold_50": round((1.0 / b) ** (1.0 / r), 6)}
