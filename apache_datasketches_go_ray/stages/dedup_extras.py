"""Document-table dedup + analysis operators (training-data pipeline ops).

All operators follow the engine's two shapes: vectorized stateless
``map_batches`` or hash-shuffle (``repartition(keys=...)``) + per-block
vectorized group fold. They run on any table with (id, text) columns —
the driver's ``documents`` table and the transcript pipeline's assembled
conversations alike.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .arrow_util import as_array
from ..config import DedupConfig
from ..functions.murmur3 import hash_strings
from ..functions.shingle import tokenize_column
from .keyed import (keyed_fold, np_col, rank_in_segment, run_heads,
                    segment_ends, segment_ids, sort_key)


def exact_dedup(ds, id_col: str = "doc_id", text_col: str = "text",
                num_partitions: int = 32):
    """Exact duplicate groups by full text equality: one row per distinct
    text with (keeper id = min id, n_copies). Hash-partitions on a 64-bit
    text hash so each group folds in one block; the fold groups by the
    full text (hash collisions can't merge distinct texts)."""

    def add_hash(batch: pa.Table) -> pa.Table:
        texts = as_array(batch.column(text_col))
        h1, _ = hash_strings(texts)
        return pa.table({
            id_col: batch.column(id_col),
            text_col: texts,
            "text_hash": pa.array(h1, type=pa.uint64()),
        })

    def fold(batch: pa.Table, _starts) -> pa.Table:
        t = batch.group_by(text_col).aggregate(
            [(id_col, "min"), (id_col, "count")])
        return pa.table({
            "keeper_id": t.column(f"{id_col}_min").cast(pa.int64()),
            "n_copies": t.column(f"{id_col}_count").cast(pa.int64()),
        })

    return keyed_fold(
        ds.select_columns([id_col, text_col])
        .map_batches(add_hash, batch_format="pyarrow", zero_copy_batch=True),
        ["text_hash"], fold,
        num_partitions, order_by=None)


def minhash_dedup_documents(ds, cfg: DedupConfig | None = None,
                            id_col: str = "doc_id", text_col: str = "text"):
    """Near-duplicate clusters over a flat document table: the transcript
    pipeline's sign -> band -> verify -> cluster stages without the
    assembly shuffle. Returns (conv_id=str(id), cluster_id)."""
    from .signature import sign
    from .lsh import candidate_pairs
    from .verify import verify_pairs
    from .cluster import cluster_edges

    cfg = cfg or DedupConfig()

    def adapt(batch: pa.Table) -> pa.Table:
        return pa.table({
            "conv_id": as_array(batch.column(id_col)).cast(pa.string()),
            "text": as_array(batch.column(text_col)).cast(pa.string()),
            "n_turns": pa.array(np.ones(len(batch), dtype=np.int32)),
        })

    docs = ds.select_columns([id_col, text_col]).map_batches(
        adapt, batch_format="pyarrow", zero_copy_batch=True)
    # materialize between stages: sigs and pairs are each consumed by two
    # downstream ops (pairs + verify; candidate-id scan + joins) — without
    # pinning them the lazy chains re-execute the signer several times
    docs = docs.materialize()
    sigs = sign(docs, cfg, keep_text=False).materialize()
    pairs = candidate_pairs(sigs, cfg, dedup=False).materialize()
    verified = verify_pairs(pairs, sigs, cfg, texts_ds=docs)
    edges = verified.filter(expr="is_dup == True").select_columns(["a", "b"])
    return cluster_edges(edges, cfg.num_partitions)


def simhash_dedup(ds, id_col: str = "doc_id", text_col: str = "text",
                  num_partitions: int = 32):
    """SimHash near-exact dedup: docs sharing an identical 64-bit SimHash
    form a group. Returns (simhash, keeper_id, n_docs) for groups with
    n_docs >= 2."""
    from .textops import simhash_batch

    def prep(batch: pa.Table) -> pa.Table:
        b = pa.table({
            id_col: batch.column(id_col),
            "text": as_array(batch.column(text_col)).cast(pa.string()),
        })
        return simhash_batch(b)

    def fold(batch: pa.Table, _starts) -> pa.Table:
        t = batch.group_by("simhash").aggregate(
            [(id_col, "min"), (id_col, "count")])
        t = t.filter(pc.greater_equal(t.column(f"{id_col}_count"), 2))
        return pa.table({
            "simhash": t.column("simhash"),
            "keeper_id": t.column(f"{id_col}_min").cast(pa.int64()),
            "n_docs": t.column(f"{id_col}_count").cast(pa.int64()),
        })

    return keyed_fold(
        ds.select_columns([id_col, text_col])
        .map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        ["simhash"], fold, num_partitions, order_by=None)


def _ngram_hashes(tok: np.ndarray, n: int) -> np.ndarray:
    """Fold consecutive token hashes into n-gram hashes (n=1: identity).
    Same role as the reference's item->bytes->hash canonicalization
    (hll/hll_sketch.go:274-295): a fixed injective-in-practice encoding
    so set comparisons match string-level n-gram distinctness."""
    from ..functions.murmur3 import fmix64

    if n == 1:
        return tok
    if len(tok) < n:
        return tok[:0]
    m = len(tok) - n + 1
    g = tok[:m].copy()
    gold = np.uint64(0x9E3779B97F4A7C15)
    for j in range(1, n):
        g = fmix64(g * gold ^ tok[j:m + j])
    return g


def consecutive_token_jaccard(ds, id_col: str = "doc_id",
                              text_col: str = "text",
                              num_partitions: int = 32, ngram: int = 1):
    """Exact (token- or token-n-gram-)set Jaccard between each doc and
    the next id (doc i vs i+1) — an oracle-checkable exact-similarity
    operator. Returns (doc_a, doc_b, jacc) with jacc rounded to 6
    decimals; docs whose gram sets are both empty score 1.0.

    Distributed shape: each doc emits its gram set keyed to both pair
    slots (i pairs with i-1 and i+1); a hash shuffle on the pair key
    co-locates both members; the fold computes exact Jaccard."""

    def emit(batch: pa.Table) -> pa.Table:
        ids = as_array(batch.column(id_col)).to_numpy(zero_copy_only=False)
        texts = as_array(batch.column(text_col))
        tok, off = tokenize_column(texts)
        pair_key, member, payload = [], [], []
        for i, d in enumerate(ids):
            toks = np.unique(_ngram_hashes(tok[off[i]:off[i + 1]], ngram))
            blob = toks.tobytes()
            pair_key.append(int(d))      # pair (d, d+1)
            member.append(0)
            payload.append(blob)
            if d > 0:
                pair_key.append(int(d) - 1)  # pair (d-1, d)
                member.append(1)
                payload.append(blob)
        return pa.table({
            "pair_key": pa.array(pair_key, type=pa.int64()),
            "member": pa.array(member, type=pa.int8()),
            "toks": pa.array(payload, type=pa.large_binary()),
        })

    def fold(batch: pa.Table, starts) -> pa.Table:
        keys = np_col(batch, "pair_key")
        blobs = as_array(batch.column("toks")).to_pylist()
        out_a, out_b, out_j = [], [], []
        for i, e in zip(starts, segment_ends(starts, len(batch))):
            if e - i == 2:  # both members present
                A = np.frombuffer(blobs[i], dtype=np.uint64)
                B = np.frombuffer(blobs[i + 1], dtype=np.uint64)
                inter = len(np.intersect1d(A, B, assume_unique=True))
                union = len(A) + len(B) - inter
                out_a.append(int(keys[i]))
                out_b.append(int(keys[i]) + 1)
                # half-up rounding (SQL round semantics, not banker's)
                out_j.append(
                    np.floor(inter / union * 1e6 + 0.5) / 1e6
                    if union else 1.0)
        return pa.table({
            "doc_a": pa.array(out_a, type=pa.int64()),
            "doc_b": pa.array(out_b, type=pa.int64()),
            "jacc": pa.array(out_j, type=pa.float64()),
        })

    return keyed_fold(
        ds.select_columns([id_col, text_col])
        .map_batches(emit, batch_format="pyarrow", zero_copy_batch=True),
        ["pair_key"], fold, num_partitions, order_by=["member"])


def exact_top_tokens(ds, text_col: str = "text", k: int = 20,
                     num_partitions: int = 32) -> pa.Table:
    """Exact global top-k whitespace tokens: per-block value_counts
    (combiner) -> hash shuffle on token -> per-block sum -> driver-side
    top-k of the (small) per-partition winners. Deterministic tie-break
    (count desc, token asc)."""

    def partial(batch: pa.Table) -> pa.Table:
        col = as_array(batch.column(text_col)).cast(pa.string())
        toks = pc.list_flatten(pc.split_pattern_regex(
            pc.utf8_trim_whitespace(col), r"\s+"))
        vc = toks.value_counts()
        if len(vc) == 0:
            return pa.table({"token": pa.array([], type=pa.string()),
                             "cnt": pa.array([], type=pa.int64())})
        t = pa.table({"token": vc.field("values"),
                      "cnt": vc.field("counts").cast(pa.int64())})
        return t.filter(pc.not_equal(t.column("token"), ""))

    def fold(batch: pa.Table, _starts) -> pa.Table:
        t = batch.group_by("token").aggregate([("cnt", "sum")])
        return pa.table({"token": t.column("token"),
                         "cnt": t.column("cnt_sum").cast(pa.int64())})

    folded = keyed_fold(
        ds.select_columns([text_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["token"], fold, num_partitions, order_by=None)
    # per-partition winners only (k rows per block) travel to the driver
    def topk_block(batch: pa.Table) -> pa.Table:
        idx = pc.select_k_unstable(batch, k=min(k, len(batch)),
                                   sort_keys=[("cnt", "descending"),
                                              ("token", "ascending")])
        return batch.take(idx)

    winners = folded.map_batches(topk_block, batch_format="pyarrow",
                                 batch_size=None, zero_copy_batch=True)
    # one execution: materialize the tiny winner set (k rows per block),
    # then gather the blocks — to_arrow_refs on the materialized dataset
    # reuses the blocks instead of re-running the pipeline
    import ray as _ray
    parts = [p for p in _ray.get(winners.materialize().to_arrow_refs())
             if len(p)]
    allw = pa.concat_tables(parts) if parts else None
    if allw is None or allw.num_rows == 0:
        return pa.table({"token": pa.array([], type=pa.string()),
                         "cnt": pa.array([], type=pa.int64())})
    idx = pc.select_k_unstable(allw, k=min(k, allw.num_rows),
                               sort_keys=[("cnt", "descending"),
                                          ("token", "ascending")])
    return allw.take(idx).sort_by([("cnt", "descending"),
                                   ("token", "ascending")])


def hamming_near_dup_pairs(ds, id_col: str = "doc_id",
                           hash_col: str = "simhash",
                           max_hamming: int = 3,
                           num_partitions: int = 32,
                           max_bucket: int = 256):
    """Near-duplicate pairs within a Hamming radius over ANY 64-bit
    fingerprint column (SimHash, image dHash/pHash, audio fingerprint).

    The 64-bit hash is split into 4 x 16-bit bands; a pair differing
    in <= 3 bits leaves at least one band untouched (pigeonhole), so
    banding has exact recall for max_hamming <= 3. Buckets co-locate via
    the band-key hash shuffle; in-block popcount of XORed fingerprints
    keeps pairs within the radius; a final (a, b) shuffle dedups pairs
    found by several bands. Returns (doc_a, doc_b, hamming)."""

    def emit_bands(batch: pa.Table) -> pa.Table:
        sh = as_array(batch.column(hash_col)).cast(pa.uint64()) \
            .to_numpy(zero_copy_only=False)
        ids = as_array(batch.column(id_col)).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        n = len(sh)
        keys, did, shs = [], [], []
        for band in range(4):
            bits = (sh >> np.uint64(band * 16)) & np.uint64(0xFFFF)
            key = (np.uint64(band) << np.uint64(16)) | bits
            keys.append(key)
            did.append(ids)
            shs.append(sh)
        return pa.table({
            "band_key": pa.array(np.concatenate(keys), type=pa.uint64()),
            "doc_id": pa.array(np.concatenate(did), type=pa.int64()),
            "simhash": pa.array(np.concatenate(shs), type=pa.uint64()),
        })

    def pairs_block(batch: pa.Table, starts) -> pa.Table:
        empty = pa.table({"doc_a": pa.array([], type=pa.int64()),
                          "doc_b": pa.array([], type=pa.int64()),
                          "hamming": pa.array([], type=pa.int64())})
        ids, sh = np_col(batch, "doc_id"), np_col(batch, "simhash")
        a_o, b_o, h_o = [], [], []
        for s, e in zip(starts, segment_ends(starts, len(batch))):
            mem_ids, first = np.unique(ids[s:e], return_index=True)
            g = len(mem_ids)
            if g < 2:
                continue
            mem_sh = sh[s:e][first]
            if g > max_bucket:
                ia = np.arange(g - 1)
                ib = ia + 1
            else:
                ia, ib = np.triu_indices(g, k=1)
            x = np.bitwise_xor(mem_sh[ia], mem_sh[ib])
            ham = np.unpackbits(x.view(np.uint8).reshape(len(x), 8),
                                axis=1).sum(axis=1)
            keep = ham <= max_hamming
            a_o.append(mem_ids[ia[keep]])
            b_o.append(mem_ids[ib[keep]])
            h_o.append(ham[keep])
        if not a_o:
            return empty
        return pa.table({
            "doc_a": pa.array(np.concatenate(a_o), type=pa.int64()),
            "doc_b": pa.array(np.concatenate(b_o), type=pa.int64()),
            "hamming": pa.array(np.concatenate(h_o).astype(np.int64)),
        })

    def dedup(batch: pa.Table, _starts) -> pa.Table:
        return batch.group_by(["doc_a", "doc_b"]).aggregate(
            [("hamming", "min")]).rename_columns(
            ["doc_a", "doc_b", "hamming"])

    pairs = keyed_fold(
        ds.select_columns([id_col, hash_col])
        .map_batches(emit_bands, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["band_key"], pairs_block, num_partitions, order_by=["doc_id"])
    return keyed_fold(pairs, ["doc_a", "doc_b"],
                      dedup, num_partitions,
                      order_by=None)


def simhash_near_dup_pairs(ds, id_col: str = "doc_id",
                           text_col: str = "text", max_hamming: int = 3,
                           num_partitions: int = 32,
                           max_bucket: int = 256):
    """SimHash near-duplicate pairs within a Hamming radius — the text
    instantiation of hamming_near_dup_pairs (one vectorized SimHash
    pass, then generic 4x16-bit banding)."""
    from .textops import simhash_batch

    def prep(batch: pa.Table) -> pa.Table:
        b = pa.table({
            id_col: batch.column(id_col),
            "text": as_array(batch.column(text_col)).cast(pa.string()),
        })
        return simhash_batch(b)

    fp = ds.select_columns([id_col, text_col]).map_batches(
        prep, batch_format="pyarrow", zero_copy_batch=True)
    return hamming_near_dup_pairs(fp, id_col=id_col, hash_col="simhash",
                                  max_hamming=max_hamming,
                                  num_partitions=num_partitions,
                                  max_bucket=max_bucket)


# ---------------------------------------------------------------------------
# Exact set-similarity self-join via prefix filtering (AllPairs/PPJoin family)
# ---------------------------------------------------------------------------

# per-worker-process cache for the broadcast set table (keyed by ref hex)
_BCAST_SETS_CACHE: dict = {}


def _pairwise_jaccard(blobs_a, blobs_b, tau: float,
                      chunk_tokens: int = 1 << 22):
    """Exact Jaccard for aligned lists of sorted-unique uint64 token
    blobs, vectorized: one lexsort + first-occurrence count per chunk
    computes every pair's union size at C speed (a Python loop of
    per-pair ``intersect1d`` is ~50us/pair — the verify stage's cost at
    near-dup-clique densities).  Returns (kept_indices, rounded_jaccs)
    for pairs with jacc >= tau."""
    n = len(blobs_a)
    keep_parts, jacc_parts = [], []
    i = 0
    while i < n:
        parts, counts = [], []
        tok = 0
        j = i
        while j < n:
            c = (len(blobs_a[j]) + len(blobs_b[j])) >> 3
            if counts and tok + c > chunk_tokens:
                break
            parts.append(blobs_a[j])
            parts.append(blobs_b[j])
            counts.append(c)
            tok += c
            j += 1
        m = j - i
        counts_np = np.asarray(counts, dtype=np.int64)
        flat = np.frombuffer(b"".join(parts), dtype=np.uint64)
        pid = np.repeat(np.arange(m, dtype=np.int64), counts_np)
        order = np.lexsort((flat, pid))
        f, p = flat[order], pid[order]
        first = np.empty(len(f), dtype=bool)
        if len(f):
            first[0] = True
            first[1:] = (p[1:] != p[:-1]) | (f[1:] != f[:-1])
        union = np.bincount(p[first], minlength=m) if len(f) else \
            np.zeros(m, dtype=np.int64)
        inter = counts_np - union
        jac = np.where(union > 0,
                       inter / np.maximum(union, 1), 1.0)
        ok = np.flatnonzero(jac >= tau)
        keep_parts.append(ok + i)
        jacc_parts.append(np.floor(jac[ok] * 1e6 + 0.5) / 1e6)
        i = j
    if not keep_parts:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
    return np.concatenate(keep_parts), np.concatenate(jacc_parts)

def _token_sets(ds, id_col: str, text_col: str, ngram: int = 1):
    """Per-doc sorted-unique token-hash (or n-gram-hash) sets:
    (doc_id, toks blob, sz).  Docs with zero grams are dropped (they
    cannot reach any tau > 0)."""

    def make(batch: pa.Table) -> pa.Table:
        ids = as_array(batch.column(id_col)).to_numpy(zero_copy_only=False)
        tok, off = tokenize_column(as_array(batch.column(text_col)))
        out_id, out_blob, out_sz = [], [], []
        for i, d in enumerate(ids):
            u = np.unique(_ngram_hashes(tok[off[i]:off[i + 1]], ngram))
            if len(u):
                out_id.append(int(d))
                out_blob.append(u.tobytes())
                out_sz.append(len(u))
        return pa.table({
            "doc_id": pa.array(out_id, type=pa.int64()),
            "toks": pa.array(out_blob, type=pa.large_binary()),
            "sz": pa.array(out_sz, type=pa.int32()),
        })

    return ds.select_columns([id_col, text_col]).map_batches(
        make, batch_format="pyarrow", zero_copy_batch=True)


def _hot_token_df(sets_ds, hot_k: int, num_partitions: int):
    """Exact document frequencies of the globally hottest hot_k token
    hashes (partial value_counts -> token shuffle -> fold -> driver
    top-k). Plays the role the reference assigns its frequent-items
    sketch — detect heavy keys before the wide shuffle
    (frequencies/longs_sketch.go:345-360, SURVEY.md §2.4) — but exact,
    since the count table after per-block combining is tiny."""

    def partial(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table({"tok": pa.array([], type=pa.uint64()),
                             "df": pa.array([], type=pa.int64())})
        blobs = as_array(batch.column("toks")).to_pylist()
        flat = np.frombuffer(b"".join(blobs), dtype=np.uint64)
        toks, counts = np.unique(flat, return_counts=True)
        return pa.table({"tok": pa.array(toks, type=pa.uint64()),
                         "df": pa.array(counts.astype(np.int64))})

    def fold(batch: pa.Table, _starts) -> pa.Table:
        t = batch.group_by("tok").aggregate([("df", "sum")])
        t = t.rename_columns(["tok", "df"])
        if len(t) > hot_k:
            idx = pc.select_k_unstable(
                t, k=hot_k, sort_keys=[("df", "descending"),
                                       ("tok", "ascending")])
            t = t.take(idx)
        return t

    winners = keyed_fold(
        sets_ds.select_columns(["toks"])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["tok"], fold, num_partitions,
        order_by=None).take_all()
    if not winners:
        return np.array([], dtype=np.uint64), np.array([], dtype=np.int64)
    toks = np.array([r["tok"] for r in winners], dtype=np.uint64)
    dfs = np.array([r["df"] for r in winners], dtype=np.int64)
    if len(toks) > hot_k:
        keep = np.argsort(-dfs, kind="stable")[:hot_k]
        toks, dfs = toks[keep], dfs[keep]
    order = np.argsort(toks)
    return toks[order], dfs[order]


def jaccard_similarity_join(ds, tau: float = 0.6, id_col: str = "doc_id",
                            text_col: str = "text",
                            num_partitions: int = 32, hot_k: int = 4096,
                            broadcast_gate_bytes: int = 1 << 30,
                            ngram: int = 1):
    """Exact token-set Jaccard self-join: all pairs (doc_a < doc_b) with
    Jaccard >= tau, with guaranteed recall 1.0 (no LSH miss).

    Prefix filtering (AllPairs/PPJoin family): under ANY globally
    consistent token order, two sets with overlap >= t must share a
    token within their (s - t + 1)-prefixes; with t = ceil(tau * s)
    (valid since J >= tau implies overlap >= tau * union >= tau * s for
    each side), only prefix tokens need to be shuffled. We order tokens
    by (global df if hot else 0, hash) — exact df for the top hot_k
    tokens via a combined count pass — so boilerplate tokens sort last
    and almost never enter a prefix: the same hot-key-aware shuffle
    discipline as the LSH band stage, with recall untouched (ordering
    is a performance heuristic only; any consistent order is correct).

    Verification attaches full token sets to candidate pairs: broadcast
    (ray.put once, read per task) when the set table fits the gate,
    else a two-step hash-shuffle attach (pairs x sets on a, then on b).

    Returns (doc_a, doc_b, jacc) with jacc half-up-rounded to 6 dp.
    """
    sets_ds = _token_sets(ds, id_col, text_col, ngram).materialize()
    return _jaccard_join_core(sets_ds, tau, num_partitions, hot_k,
                              broadcast_gate_bytes)


def jaccard_cross_join(a_ds, b_ds, tau: float = 0.6,
                       id_col: str = "doc_id", text_col: str = "text",
                       num_partitions: int = 32, hot_k: int = 4096,
                       broadcast_gate_bytes: int = 1 << 30,
                       ngram: int = 1):
    """Exact R-S token-set Jaccard join BETWEEN two datasets: all pairs
    (doc_a in A, doc_b in B) with Jaccard >= tau, recall 1.0 — the
    cross-dataset near-dup audit (e.g. new crawl vs existing corpus, or
    train vs eval at the whole-document level). Same AllPairs/PPJoin
    prefix-filter plan as the self-join (the prefix bound J >= tau =>
    overlap >= ceil(tau*s) holds per set regardless of which dataset
    the partner comes from); the dataset side rides in the low bit of
    an encoded id (doc_id*2+side) so the candidate fold can pair only
    opposite sides. Ids must be non-negative int64s below 2^62."""

    def encode(side: int):
        def f(batch: pa.Table) -> pa.Table:
            enc = pc.add(pc.multiply(batch.column("doc_id"),
                                     pa.scalar(2, type=pa.int64())),
                         pa.scalar(side, type=pa.int64()))
            return batch.set_column(0, "doc_id", enc.cast(pa.int64()))
        return f

    sets_ds = (
        _token_sets(a_ds, id_col, text_col, ngram)
        .map_batches(encode(0), batch_format="pyarrow",
                     zero_copy_batch=True)
        .union(_token_sets(b_ds, id_col, text_col, ngram)
               .map_batches(encode(1), batch_format="pyarrow",
                            zero_copy_batch=True))
    ).materialize()
    pairs = _jaccard_join_core(sets_ds, tau, num_partitions, hot_k,
                               broadcast_gate_bytes, cross=True)

    def decode(batch: pa.Table) -> pa.Table:
        a = batch.column("doc_a").to_numpy(zero_copy_only=False) >> 1
        b = batch.column("doc_b").to_numpy(zero_copy_only=False) >> 1
        return pa.table({
            "doc_a": pa.array(a, type=pa.int64()),
            "doc_b": pa.array(b, type=pa.int64()),
            "jacc": batch.column("jacc"),
        })

    return pairs.map_batches(decode, batch_format="pyarrow",
                             zero_copy_batch=True)


def _jaccard_join_core(sets_ds, tau: float, num_partitions: int,
                       hot_k: int, broadcast_gate_bytes: int,
                       cross: bool = False):
    """Shared prefix-filter -> candidate -> verify plan over a
    (doc_id, toks, sz) set table. ``cross=True`` pairs only rows whose
    encoded-id low bits differ (side A = even, side B = odd) and
    orients output as (A-side id, B-side id) instead of (min, max)."""
    import ray

    hot_toks, hot_dfs = _hot_token_df(sets_ds, hot_k, num_partitions)

    def emit_prefix(batch: pa.Table) -> pa.Table:
        empty = pa.table({"tok": pa.array([], type=pa.uint64()),
                          "doc": pa.array([], type=pa.int64()),
                          "sz": pa.array([], type=pa.int32())})
        if len(batch) == 0:
            return empty
        ids = as_array(batch.column("doc_id")).to_numpy(zero_copy_only=False)
        szs = as_array(batch.column("sz")).to_numpy(zero_copy_only=False)
        blobs = as_array(batch.column("toks")).to_pylist()
        flat = np.frombuffer(b"".join(blobs), dtype=np.uint64)
        off = np.concatenate([[0], np.cumsum(szs)]).astype(np.int64)
        doc_idx = np.repeat(np.arange(len(ids)), szs)
        # global order value: df for hot tokens, 0 (sorts first) otherwise
        pos = np.searchsorted(hot_toks, flat)
        pos_c = np.minimum(pos, max(len(hot_toks) - 1, 0))
        orderval = np.zeros(len(flat), dtype=np.int64)
        if len(hot_toks):
            ishot = hot_toks[pos_c] == flat
            orderval[ishot] = hot_dfs[pos_c[ishot]]
        srt = np.lexsort((flat, orderval, doc_idx))
        # prefix length per doc: s - ceil(tau*s) + 1 (epsilon guards the
        # unsafe direction: too-large ceil would shrink the prefix)
        plen = szs - np.ceil(tau * szs - 1e-9).astype(np.int64) + 1
        within = np.arange(len(flat)) - np.repeat(off[:-1], szs)
        keep = within < np.repeat(plen, szs)
        return pa.table({
            "tok": pa.array(flat[srt][keep], type=pa.uint64()),
            "doc": pa.array(ids[doc_idx[srt]][keep], type=pa.int64()),
            "sz": pa.array(szs[doc_idx[srt]][keep], type=pa.int32()),
        })

    def candidate_fold(batch: pa.Table, starts) -> pa.Table:
        empty = pa.table({"a": pa.array([], type=pa.int64()),
                          "b": pa.array([], type=pa.int64())})
        doc, sz = np_col(batch, "doc"), np_col(batch, "sz")
        glens = np.diff(np.append(starts, len(batch)))
        a_o, b_o = [], []
        for g in np.unique(glens):
            if g < 2:
                continue
            boffs = starts[glens == g]
            idx = boffs[:, None] + np.arange(g)           # (nb, g)
            ii, jj = np.triu_indices(g, k=1)
            da, db = doc[idx][:, ii], doc[idx][:, jj]     # (nb, npair)
            sa, sb = sz[idx][:, ii], sz[idx][:, jj]
            lo = np.minimum(sa, sb).astype(np.float64)
            hi = np.maximum(sa, sb).astype(np.float64)
            ok = lo >= tau * hi - 1e-9                    # size filter
            if cross:
                # pair only across datasets; orient A-side (even
                # encoded id) first
                ok &= (da & 1) != (db & 1)
                a_is_da = (da & 1) == 0
                a_o.append(np.where(a_is_da, da, db)[ok])
                b_o.append(np.where(a_is_da, db, da)[ok])
            else:
                a_o.append(np.minimum(da, db)[ok])
                b_o.append(np.maximum(da, db)[ok])
        if not a_o:
            return empty
        return pa.table({
            "a": pa.array(np.concatenate(a_o), type=pa.int64()),
            "b": pa.array(np.concatenate(b_o), type=pa.int64()),
        })

    def dedup(batch: pa.Table, _starts) -> pa.Table:
        return batch.group_by(["a", "b"]).aggregate([])

    cands = keyed_fold(
        sets_ds.map_batches(emit_prefix, batch_format="pyarrow",
                            zero_copy_batch=True),
        ["tok"], candidate_fold, num_partitions, order_by=["doc"])
    pairs = keyed_fold(cands, ["a", "b"], dedup,
                       num_partitions, order_by=None)

    out_schema = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()),
                            ("jacc", pa.float64())])

    if sets_ds.size_bytes() <= broadcast_gate_bytes:
        # broadcast verify: the whole set table rides the object store
        # once; each pair batch resolves both endpoints locally.
        tbl = pa.concat_tables(
            [b for b in sets_ds.iter_batches(batch_format="pyarrow",
                                             batch_size=65536)
             ] or [pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "toks": pa.array([], type=pa.large_binary()),
                             "sz": pa.array([], type=pa.int32())})])
        ids_np = tbl.column("doc_id").to_numpy(zero_copy_only=False)
        srt = np.argsort(ids_np)
        sets_ref = ray.put((ids_np[srt],
                            [tbl.column("toks")[int(i)].as_py()
                             for i in srt]))

        def verify(batch: pa.Table, ref=sets_ref) -> pa.Table:
            if len(batch) == 0:
                return pa.table({"doc_a": pa.array([], type=pa.int64()),
                                 "doc_b": pa.array([], type=pa.int64()),
                                 "jacc": pa.array([], type=pa.float64())})
            # per-process cache: deserialize the broadcast once per worker
            key = ref.hex() if hasattr(ref, "hex") else id(ref)
            cached = _BCAST_SETS_CACHE.get(key)
            if cached is None:
                cached = ray.get(ref) if hasattr(ref, "hex") else ref
                _BCAST_SETS_CACHE.clear()
                _BCAST_SETS_CACHE[key] = cached
            ids_sorted, blobs = cached
            a = as_array(batch.column("a")).to_numpy(zero_copy_only=False)
            b = as_array(batch.column("b")).to_numpy(zero_copy_only=False)
            ia = np.searchsorted(ids_sorted, a)
            ib = np.searchsorted(ids_sorted, b)
            keep, jac = _pairwise_jaccard([blobs[x] for x in ia],
                                          [blobs[x] for x in ib], tau)
            return pa.table({
                "doc_a": pa.array(a[keep], type=pa.int64()),
                "doc_b": pa.array(b[keep], type=pa.int64()),
                "jacc": pa.array(jac, type=pa.float64()),
            })

        return pairs.map_batches(verify, batch_format="pyarrow",
                                 zero_copy_batch=True)

    # shuffle verify: attach toks_a by co-partitioning on a, then toks_b
    # on b — two keyed exchanges, no full-table broadcast.
    def tag_pairs(batch: pa.Table) -> pa.Table:
        return pa.table({
            "key": batch.column("a"),
            "other": batch.column("b"),
            "side": pa.array(np.zeros(len(batch), dtype=np.int8)),
            "toks": pa.array([None] * len(batch), type=pa.large_binary()),
        })

    def tag_sets(batch: pa.Table) -> pa.Table:
        return pa.table({
            "key": batch.column("doc_id"),
            "other": pa.array(np.full(len(batch), -1, dtype=np.int64)),
            "side": pa.array(np.ones(len(batch), dtype=np.int8)),
            "toks": batch.column("toks"),
        })

    def attach(batch: pa.Table, out_cols) -> pa.Table:
        empty = pa.table({c: pa.array([], type=t) for c, t in out_cols})
        if len(batch) == 0:
            return empty
        key = as_array(batch.column("key")).to_numpy(zero_copy_only=False)
        side = as_array(batch.column("side")).to_numpy(zero_copy_only=False)
        blob_i = np.flatnonzero(side == 1)
        lut_keys = key[blob_i]
        srt = np.argsort(lut_keys)
        lut_keys = lut_keys[srt]
        toks_col = batch.column("toks")
        lut_blobs = [toks_col[int(blob_i[int(i)])].as_py() for i in srt]
        rows = np.flatnonzero(side == 0)
        pos = np.searchsorted(lut_keys, key[rows])
        cols = {name: [] for name, _ in out_cols}
        other = as_array(batch.column("other")).to_numpy(
            zero_copy_only=False)
        prev = batch.column("prev_toks") if "prev_toks" in \
            batch.column_names else None
        for r, p in zip(rows, pos):
            if p >= len(lut_keys) or lut_keys[p] != key[r]:
                continue  # endpoint had no tokens: cannot reach tau
            vals = {"a": int(key[r]), "b": int(other[r]),
                    "toks_a": lut_blobs[p]}
            if prev is not None:
                vals = {"a": int(other[r]), "b": int(key[r]),
                        "toks_a": prev[int(r)].as_py(),
                        "toks_b": lut_blobs[p]}
            for name, _ in out_cols:
                cols[name].append(vals[name])
        return pa.table({name: pa.array(cols[name], type=t)
                         for name, t in out_cols})

    step1_cols = [("a", pa.int64()), ("b", pa.int64()),
                  ("toks_a", pa.large_binary())]
    # materialize between shuffle rounds: chaining two union+keyed
    # repartition exchanges in one fused DAG deadlocks small sessions
    # (same fused-chain pathology the flagship verify stage pins against,
    # stages/verify.py:336-346)
    step1 = keyed_fold(
        pairs.materialize().map_batches(tag_pairs, batch_format="pyarrow",
                                        zero_copy_batch=True)
        .union(sets_ds.map_batches(tag_sets, batch_format="pyarrow",
                                   zero_copy_batch=True)),
        ["key"], lambda b, _starts: attach(b, step1_cols),
        num_partitions, order_by=None).materialize()

    def tag_step1(batch: pa.Table) -> pa.Table:
        return pa.table({
            "key": batch.column("b"),
            "other": batch.column("a"),
            "side": pa.array(np.zeros(len(batch), dtype=np.int8)),
            "toks": pa.array([None] * len(batch), type=pa.large_binary()),
            "prev_toks": batch.column("toks_a"),
        })

    def tag_sets2(batch: pa.Table) -> pa.Table:
        t = tag_sets(batch)
        return t.append_column(
            "prev_toks", pa.array([None] * len(batch),
                                  type=pa.large_binary()))

    step2_cols = [("a", pa.int64()), ("b", pa.int64()),
                  ("toks_a", pa.large_binary()),
                  ("toks_b", pa.large_binary())]
    step2 = keyed_fold(
        step1.map_batches(tag_step1, batch_format="pyarrow",
                          zero_copy_batch=True)
        .union(sets_ds.map_batches(tag_sets2, batch_format="pyarrow",
                                   zero_copy_batch=True)),
        ["key"], lambda b, _starts: attach(b, step2_cols),
        num_partitions, order_by=None)

    def finish(batch: pa.Table) -> pa.Table:
        a = as_array(batch.column("a")).to_numpy(zero_copy_only=False)
        b = as_array(batch.column("b")).to_numpy(zero_copy_only=False)
        keep, jac = _pairwise_jaccard(
            as_array(batch.column("toks_a")).to_pylist(),
            as_array(batch.column("toks_b")).to_pylist(), tau)
        return pa.table({
            "doc_a": pa.array(a[keep], type=pa.int64()),
            "doc_b": pa.array(b[keep], type=pa.int64()),
            "jacc": pa.array(jac, type=pa.float64()),
        })

    return step2.map_batches(finish, batch_format="pyarrow",
                             zero_copy_batch=True)


def consecutive_edit_distance(ds, id_col: str = "doc_id",
                              text_col: str = "text",
                              prefix_chars: int = 32,
                              num_partitions: int = 32):
    """Exact Levenshtein distance between each doc and the next id on
    the first ``prefix_chars`` codepoints (UTF-8 byte unit costs, DuckDB
    levenshtein semantics) — the fuzzy near-exact-dup signal that
    catches small edits token sets miss. Same pair-key shuffle shape as
    consecutive_token_jaccard; only the short prefixes move. The fold
    batches every pair in the block through one vectorized DP
    (stages/textops.levenshtein_pairs)."""
    from .textops import levenshtein_pairs

    def emit(batch: pa.Table) -> pa.Table:
        ids = as_array(batch.column(id_col)).to_numpy(zero_copy_only=False)
        pref = pc.utf8_slice_codeunits(
            as_array(batch.column(text_col)).cast(pa.string()),
            0, prefix_chars)
        texts = pref.to_pylist()
        pair_key, member, payload = [], [], []
        for i, d in enumerate(ids):
            pair_key.append(int(d))
            member.append(0)
            payload.append(texts[i])
            if d > 0:
                pair_key.append(int(d) - 1)
                member.append(1)
                payload.append(texts[i])
        return pa.table({
            "pair_key": pa.array(pair_key, type=pa.int64()),
            "member": pa.array(member, type=pa.int8()),
            "pref": pa.array(payload, type=pa.string()),
        })

    def fold(batch: pa.Table, starts) -> pa.Table:
        keys = np_col(batch, "pair_key")
        prefs = as_array(batch.column("pref")).to_pylist()
        lens = segment_ends(starts, len(batch)) - starts
        full = starts[lens == 2]  # pairs with both members present
        a_strs = [prefs[s] for s in full]
        b_strs = [prefs[s + 1] for s in full]
        dist = levenshtein_pairs(a_strs, b_strs, prefix_chars)
        return pa.table({
            "doc_a": pa.array(keys[full], type=pa.int64()),
            "doc_b": pa.array(keys[full] + 1, type=pa.int64()),
            "dist": pa.array(dist, type=pa.int64()),
        })

    return keyed_fold(
        ds.select_columns([id_col, text_col])
        .map_batches(emit, batch_format="pyarrow", zero_copy_batch=True),
        ["pair_key"], fold, num_partitions, order_by=["member"])


def line_dedup_rewrite(ds, key_col: str = "conv_id", idx_col: str = "turn_idx",
                       text_col: str = "text", sep: str = "\n",
                       num_partitions: int = 32):
    """C4-style corpus-level exact-unit dedup with document rewrite.

    Treats each row as one unit (a line / a transcript turn) of the
    document identified by ``key_col``, ordered by ``idx_col``. A unit
    whose exact text occurs elsewhere in the corpus survives only at its
    first occurrence (minimal ``(key, idx)`` in lexicographic order);
    every later copy is dropped. Documents are then rewritten from their
    surviving units in ``idx_col`` order, joined with ``sep``.

    Returns one row per input document: ``(key, n_kept, n_dropped,
    text)`` — documents whose every unit was dropped appear with
    ``text = ''``.

    Scale shape: two keyed shuffles (unit-text hash, then document key),
    each followed by a fully vectorized in-block fold; dropped units
    ship an empty string through the second shuffle, so the payload is
    bounded by the surviving corpus. Reference parallel: the keep-first
    discipline is the KMV "min hash wins" rule (datasketches-go
    hll/coupons, theta ordering) applied to whole-unit text equality.
    """

    def add_hash(batch: pa.Table) -> pa.Table:
        texts = as_array(batch.column(text_col))
        if texts.type != pa.string():
            texts = texts.cast(pa.string())
        h1, _ = hash_strings(texts)
        return pa.table({
            key_col: as_array(batch.column(key_col)).cast(pa.string()),
            idx_col: as_array(batch.column(idx_col)).cast(pa.int64()),
            text_col: texts,
            "unit_hash": pa.array(h1, type=pa.uint64()),
        })

    def keep_fold(batch: pa.Table, starts) -> pa.Table:
        # identical texts are co-located by unit_hash, sorted by
        # (text, key, idx): keep each text group's first row
        keep = pa.array(run_heads(starts, sort_key(batch.column(text_col))))
        return pa.table({
            key_col: batch.column(key_col),
            idx_col: batch.column(idx_col),
            # dropped units ship '' — the rewrite only needs their count
            text_col: pc.if_else(keep, batch.column(text_col), ""),
            "keep": keep,
        })

    def rewrite_fold(batch: pa.Table, starts) -> pa.Table:
        """Block sorted by (key, idx): joined text from the surviving
        units in idx order; keys with zero survivors get an empty list
        -> binary_join yields ''."""
        keep = np_col(batch, "keep")
        n_all = np.diff(np.append(starts, len(batch)))
        n_kept = np.bincount(segment_ids(starts, len(batch))[keep],
                             minlength=len(starts))
        kept_texts = as_array(batch.column(text_col)).filter(
            pa.array(keep))
        lists = pa.ListArray.from_arrays(
            pa.array(np.concatenate([[0], np.cumsum(n_kept)]),
                     type=pa.int32()),
            kept_texts.cast(pa.string())
            if kept_texts.type != pa.string() else kept_texts)
        return pa.table({
            key_col: as_array(batch.column(key_col)).take(
                pa.array(starts)).cast(pa.string()),
            "n_kept": pa.array(n_kept.astype(np.int64)),
            "n_dropped": pa.array((n_all - n_kept).astype(np.int64)),
            text_col: pc.binary_join(lists, sep),
        })

    kept = keyed_fold(
        ds.select_columns([key_col, idx_col, text_col])
        .map_batches(add_hash, batch_format="pyarrow", zero_copy_batch=True),
        ["unit_hash"], keep_fold, num_partitions,
        order_by=[text_col, key_col, idx_col])
    return keyed_fold(kept, [key_col], rewrite_fold, num_partitions,
                      order_by=[idx_col])


def exact_dedup_keep_best(ds, id_col: str = "doc_id",
                          text_col: str = "text",
                          score_col: str = "n_chars",
                          num_partitions: int = 32):
    """Exact dedup with winner-by-quality selection: one row per
    distinct text keeping the copy with the highest ``score_col``
    (ties: lowest id) — the keep-best policy a curation funnel applies
    after duplicate grouping, instead of keep-first.

    Returns ``(keeper_id, n_copies, keeper_score)``. Same shape as
    :func:`exact_dedup` (one text-hash keyed shuffle + in-block fold);
    the fold sorts each text-hash run by (text, -score, id) and takes
    each text group's first row.
    """

    def add_hash(batch: pa.Table) -> pa.Table:
        texts = as_array(batch.column(text_col))
        h1, _ = hash_strings(texts)
        return pa.table({
            id_col: batch.column(id_col),
            text_col: texts,
            score_col: batch.column(score_col),
            "text_hash": pa.array(h1, type=pa.uint64()),
        })

    def fold(batch: pa.Table, starts) -> pa.Table:
        firsts = np.flatnonzero(
            run_heads(starts, sort_key(batch.column(text_col))))
        sizes = np.diff(np.append(firsts, len(batch)))
        win = pa.array(firsts)
        return pa.table({
            "keeper_id": as_array(batch.column(id_col)).take(win)
                .cast(pa.int64()),
            "n_copies": pa.array(sizes.astype(np.int64)),
            "keeper_score": as_array(batch.column(score_col)).take(win)
                .cast(pa.int64()),
        })

    return keyed_fold(
        ds.select_columns([id_col, text_col, score_col])
        .map_batches(add_hash, batch_format="pyarrow", zero_copy_batch=True),
        ["text_hash"], fold, num_partitions,
        order_by=[text_col, "-" + score_col, id_col])


# ---------------------------------------------------------------------------
# edit-distance similarity join (FastSS deletion neighborhoods)
# ---------------------------------------------------------------------------

_ED_R = np.uint64(0x100000001B3)          # odd -> invertible mod 2^64
_ED_RINV = np.uint64(pow(0x100000001B3, -1, 1 << 64))
_ED_LENMIX = np.uint64(0x9E3779B97F4A7C15)


def _ed_byte_matrix(col):
    """(n, Lmax) zero-padded uint8 matrix + byte lengths of a string
    column, scattered straight off the Arrow value buffer."""
    arr = as_array(col)
    if arr.type != pa.large_string():
        arr = arr.cast(pa.large_string())
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    off = np.frombuffer(arr.buffers()[1], dtype=np.int64,
                        count=n + 1 + arr.offset)[arr.offset:]
    buf = arr.buffers()[2]
    data = np.frombuffer(buf, dtype=np.uint8) if buf is not None \
        else np.empty(0, dtype=np.uint8)
    lens = np.diff(off).astype(np.int64)
    L = int(lens.max(initial=0))
    M = np.zeros((n, max(L, 1)), dtype=np.uint8)
    if lens.sum():
        rows = np.repeat(np.arange(n), lens)
        cols = np.arange(int(lens.sum())) - np.repeat(
            np.cumsum(lens) - lens, lens)
        M[rows, cols] = data[np.repeat(off[:-1], lens) + cols]
    return M, lens


def _ed_variant_keys(M: np.ndarray, lens: np.ndarray):
    """FastSS ED<=1 blocking keys per row: polynomial hash of the string
    itself plus of every single-byte-deletion variant, each mixed with
    the variant length (Bocek et al. 2007, public algorithm).

    Polynomial hashes over uint64 wraparound arithmetic: deleting
    position i shifts the suffix one power down, so
    H(variant_i) = P[i] + (total - P[i+1]) * r^-1 — every variant in
    O(1) off two cumsums, no string materialization. Equal strings hash
    equal (no false negatives); hash collisions only add candidates,
    which the exact verify removes."""
    n, L = M.shape
    rp = np.empty(L, dtype=np.uint64)
    rp[0] = np.uint64(1)
    np.multiply.accumulate(np.full(L, _ED_R, dtype=np.uint64), out=rp[:],
                           dtype=np.uint64)
    rp = np.concatenate([[np.uint64(1)], rp[:-1]])
    terms = M.astype(np.uint64) * rp[None, :]
    csum = np.cumsum(terms, axis=1, dtype=np.uint64)
    total = csum[:, -1]
    # P_excl[i] = hash of prefix [0, i) ; P_incl[i] = [0, i]
    p_incl = csum
    p_excl = np.concatenate(
        [np.zeros((n, 1), dtype=np.uint64), csum[:, :-1]], axis=1)
    suffix = (total[:, None] - p_incl) * _ED_RINV
    var_hash = p_excl + suffix  # (n, L): delete position i
    valid = np.arange(L)[None, :] < lens[:, None]
    self_keys = total ^ (lens.astype(np.uint64) * _ED_LENMIX)
    var_keys = var_hash ^ ((lens - 1).astype(np.uint64)[:, None]
                           * _ED_LENMIX)
    rows = np.repeat(np.arange(n), lens)
    flat_var = var_keys[valid]
    all_keys = np.concatenate([self_keys, flat_var])
    all_rows = np.concatenate([np.arange(n), rows])
    return all_keys.view(np.int64), all_rows


def edit_distance_join(ds, id_col: str, str_col: str, *, max_ed: int = 1,
                       num_partitions: int = 16):
    """Self-join on byte edit distance <= ``max_ed`` (currently 1): all
    pairs (id_a < id_b, ed). FastSS blocking — each string emits its
    own key plus len(s) single-deletion keys, so two strings within one
    edit ALWAYS share a key (complete) — then one keyed shuffle, all
    intra-bucket pairs, a pair-keyed dedup shuffle and an exact
    vectorized Levenshtein verify (textops.levenshtein_pairs — DuckDB
    byte semantics). Designed for short join keys (names, codes,
    normalized titles): the blocking emits O(len) keys per row, so
    shuffle volume is O(corpus bytes), and bucket sizes stay small
    because only near-identical strings collide."""
    from .context import auto_partitions
    from .textops import levenshtein_pairs

    if max_ed != 1:
        raise NotImplementedError("edit_distance_join currently "
                                  "implements the ED<=1 neighborhood")

    def emit_keys(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table({
                "key": pa.array([], type=pa.int64()),
                "id": pa.array([], type=pa.int64()),
                "s": pa.array([], type=pa.string()),
            })
        M, lens = _ed_byte_matrix(b.column(str_col))
        keys, rows = _ed_variant_keys(M, lens)
        ids = as_array(b.column(id_col)).cast(pa.int64())
        strs = as_array(b.column(str_col)).cast(pa.string())
        take = pa.array(rows.astype(np.int64))
        return pa.table({"key": pa.array(keys),
                         "id": ids.take(take),
                         "s": strs.take(take)})

    def pairs_in_bucket(b: pa.Table, starts) -> pa.Table:
        """Block sorted by (key, id)."""
        id_s = np_col(b, "id")
        lens = np.diff(np.append(starts, len(b)))
        # within-bucket pair expansion, fully vectorized: the element at
        # in-bucket position p pairs with its p predecessors
        pos = rank_in_segment(starts, len(b))
        n_pairs = int(pos.sum())
        if n_pairs == 0:
            return pa.table({
                "a": pa.array([], type=pa.int64()),
                "b": pa.array([], type=pa.int64()),
                "sa": pa.array([], type=pa.string()),
                "sb": pa.array([], type=pa.string()),
            })
        j_idx = np.repeat(np.arange(len(b)), pos)
        cum0 = np.cumsum(pos) - pos
        i_idx = (np.arange(n_pairs) - np.repeat(cum0, pos)
                 + np.repeat(np.repeat(starts, lens), pos))
        a = np.minimum(id_s[i_idx], id_s[j_idx])
        bb = np.maximum(id_s[i_idx], id_s[j_idx])
        keep = a != bb  # same id via two shared keys
        a, bb, i_idx, j_idx = a[keep], bb[keep], i_idx[keep], j_idx[keep]
        swap = id_s[i_idx] > id_s[j_idx]
        ii = np.where(swap, j_idx, i_idx)
        jj = np.where(swap, i_idx, j_idx)
        strs = as_array(b.column("s"))
        return pa.table({
            "a": pa.array(a), "b": pa.array(bb),
            "sa": strs.take(pa.array(ii.astype(np.int64))),
            "sb": strs.take(pa.array(jj.astype(np.int64))),
        })

    def verify(b: pa.Table, starts) -> pa.Table:
        d = b.take(pa.array(starts))  # one row per (a, b)
        sa = as_array(d.column("sa")).to_pylist()
        sb = as_array(d.column("sb")).to_pylist()
        maxlen = max((len(x) for x in sa + sb), default=1)
        ed = levenshtein_pairs(sa, sb, prefix_chars=max(32, maxlen))
        ok = ed <= max_ed
        return pa.table({
            "id_a": pa.array(np_col(d, "a")[ok]),
            "id_b": pa.array(np_col(d, "b")[ok]),
            "ed": pa.array(ed[ok].astype(np.int64)),
        })

    P = auto_partitions(ds.count(), 250_000, num_partitions)
    pairs = keyed_fold(
        ds.select_columns([id_col, str_col])
        .map_batches(emit_keys, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["key"], pairs_in_bucket, P, order_by=["id"])
    return keyed_fold(pairs, ["a", "b"], verify, max(2, P // 2))


def cluster_survivors(clusters_ds, assembled_ds, *,
                      conv_col: str = "conv_id",
                      cluster_col: str = "cluster_id",
                      text_col: str = "text",
                      num_partitions: int = 8):
    """Keep-best survivor per near-dup cluster: the longest member wins
    (ties: lexicographically smallest conv id) — the retention policy
    curation applies after clustering when copies differ in
    completeness (truncated mirrors lose to the full conversation).

    Plan: a slim (conv, n_chars) projection of the assembled surface —
    text never leaves its block — co-partition-joined to the cluster
    labels, then one cluster-keyed shuffle with an in-block
    sort-and-first fold. Output: (cluster_id, survivor_conv_id,
    n_members, survivor_chars), deterministic at any parallelism.
    """
    from .context import auto_partitions
    from .join import hash_join

    def lengths(b: pa.Table) -> pa.Table:
        return pa.table({
            conv_col: b.column(conv_col).cast(pa.string()),
            "n_chars": pc.utf8_length(
                as_array(b.column(text_col)).cast(pa.large_string())
            ).cast(pa.int64()),
        })

    lens = assembled_ds.map_batches(lengths, batch_format="pyarrow",
                                    zero_copy_batch=True)
    joined = hash_join(clusters_ds, lens, on=(conv_col, conv_col))

    def best_fold(b: pa.Table, starts) -> pa.Table:
        """Block sorted by (cluster asc, n_chars desc, conv asc): the
        first row per cluster is the survivor."""
        first = b.take(pa.array(starts))
        return pa.table({
            "cluster_id": first.column(cluster_col).cast(pa.string()),
            "survivor_conv_id": first.column(conv_col).cast(pa.string()),
            "n_members": pa.array(np.diff(np.append(starts, len(b)))),
            "survivor_chars": first.column("n_chars").cast(pa.int64()),
        })

    P = auto_partitions(clusters_ds.count(), 250_000, num_partitions)
    return keyed_fold(joined, [cluster_col], best_fold, P,
                      order_by=["-n_chars", conv_col])


def pair_jaccard_histogram(verified_ds, *, bins: int = 20):
    """Duplicate-severity profile: histogram of the exact Jaccard of
    verified duplicate pairs in ``bins`` equal-width buckets — the
    one-screen answer to 'are our dups verbatim mirrors or paraphrase-
    grade?'. KB-sized per-block count partials; one tiny fold.
    Containment-path dups (jaccard below threshold but substring-
    verified) land in their true low-Jaccard bucket, so the histogram
    shows both dup regimes.
    """
    nb = pa.scalar(bins, pa.int64())

    _H = pa.schema([("bin", pa.int64()), ("n", pa.int64())])

    def partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b.column("is_dup"), pa.scalar(True)))
        if len(t) == 0:
            return _H.empty_table()
        j = t.column("jaccard").to_numpy(zero_copy_only=False)
        bi = np.clip((j * bins).astype(np.int64), 0, bins - 1)
        g = pa.table({"bin": pa.array(bi, type=pa.int64())}) \
            .group_by("bin").aggregate([([], "count_all")])
        return pa.table({"bin": g.column("bin"),
                         "n": g.column("count_all").cast(pa.int64())})

    def fold(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table({"bin_lo_pct": pa.array([], type=pa.int64()),
                             "n_pairs": pa.array([], type=pa.int64())})
        g = b.group_by("bin").aggregate([("n", "sum")])
        lo = pc.divide(pc.multiply(g.column("bin"), pa.scalar(100,
                                                              pa.int64())),
                       nb)
        return pa.table({"bin_lo_pct": lo,
                         "n_pairs": g.column("n_sum").cast(pa.int64())})

    return (verified_ds.map_batches(partial, batch_format="pyarrow",
                                    zero_copy_batch=True)
            .repartition(1)
            .map_batches(fold, batch_format="pyarrow", batch_size=None,
                         zero_copy_batch=True))
