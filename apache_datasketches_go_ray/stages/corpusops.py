"""Corpus-level statistics operators for training-data curation.

* ``tfidf_top_terms`` — exact TF-IDF with global document frequencies
  (the classic quality/topic signal over a crawl corpus).
* ``dup_span_stats`` — per-document duplicated k-token-gram spans: the
  detection half of span-level dedup (Lee et al. 2022, "Deduplicating
  Training Data Makes Language Models Better"), hash-grouped on the
  engine's fmix64 shingle substrate instead of a suffix array (the
  suffix-array containment pass lives in stages/verify.py).
* ``dsir_importance`` — unigram log-likelihood-ratio importance weights
  (Xie et al. 2023, "Data Selection for Language Models via Importance
  Resampling"), vocabulary-exact variant: the feature buckets are the
  tokens themselves so the score is SQL-reproducible; swap the token
  dictionary for ``hash % n_buckets`` to get the hashed-DSIR form.

All three follow the engine's shapes: vectorized block-local
``map_batches`` partials, one keyed ``repartition`` per wide step, and
broadcast-or-co-partition for the small-side lookup (never an unkeyed
shuffle, never all-pairs). Token canonicalization matches the rest of
the engine (whitespace split after trim — the same token stream the
reference hashes item-by-item, hll/hll_sketch.go:274-295).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .arrow_util import as_array
from ..functions.murmur3 import fmix64, hash_strings
from .keyed import (keyed_fold, np_col, rank_in_segment, run_heads,
                    segment_ids)

# second-lane seed for the 128-bit gram key (golden-ratio constant —
# any odd constant works; this keeps the two lanes decorrelated)
_LANE2 = np.uint64(0x9E3779B97F4A7C15)


def _round4(x: np.ndarray) -> np.ndarray:
    """Round-half-up to 4 decimals — the engine's float-parity rule
    (identical expression on the DuckDB side)."""
    return np.floor(x * 10000.0 + 0.5) / 10000.0


def _tokens_of(col) -> tuple[pa.Array, np.ndarray]:
    """Whitespace-tokenize a string column.

    Returns (flat_tokens, doc_offsets): doc i's tokens are
    flat[offsets[i]:offsets[i+1]], empty tokens dropped.
    """
    col = as_array(col)
    if col.type != pa.string():
        col = col.cast(pa.string())
    toks = pc.utf8_split_whitespace(pc.utf8_trim_whitespace(col))
    toks = pc.if_else(pc.is_valid(toks), toks, pa.scalar([], type=toks.type))
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    offsets = offsets - offsets[0]
    flat = toks.values
    if len(flat):
        lens = pc.binary_length(flat).to_numpy(zero_copy_only=False)
        keep = lens > 0
        if not keep.all():
            doc_of = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
            counts = np.bincount(doc_of[keep], minlength=len(offsets) - 1)
            offsets = np.concatenate(
                [[0], np.cumsum(counts)]).astype(np.int64)
            flat = flat.filter(pa.array(keep))
    return flat, offsets


def _doc_token_pairs(flat: pa.Array, offsets: np.ndarray):
    """Distinct (doc, token) pairs with occurrence counts, block-local.

    Returns (doc_idx, token_codes, tf, dictionary) where dictionary is
    the block-local distinct token array and codes index into it.
    """
    n_docs = len(offsets) - 1
    if len(flat) == 0:
        z = np.empty(0, dtype=np.int64)
        return z, z, z, pa.array([], type=pa.string())
    d = pc.dictionary_encode(flat)
    if isinstance(d, pa.ChunkedArray):
        d = d.combine_chunks()
    codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    dictionary = d.dictionary
    doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), np.diff(offsets))
    vocab = len(dictionary)
    key = doc_of * vocab + codes
    uk, tf = np.unique(key, return_counts=True)
    return uk // vocab, uk % vocab, tf.astype(np.int64), dictionary


_EMPTY_DF = pa.table({"token": pa.array([], type=pa.string()),
                      "df": pa.array([], type=pa.int64())})
_EMPTY_TF = pa.table({"doc_id": pa.array([], type=pa.int64()),
                      "token": pa.array([], type=pa.string()),
                      "tf": pa.array([], type=pa.int64())})


# ---------------------------------------------------------------------------
# TF-IDF
# ---------------------------------------------------------------------------

def tfidf_top_terms(ds, id_col: str = "doc_id", text_col: str = "text",
                    top_n: int = 3, num_partitions: int = 32,
                    broadcast_threshold: int = 1 << 30):
    """Top-``top_n`` TF-IDF terms per document, exact global df.

    score = tf * (ln((N+1)/(df+1)) + 1), round-half-up to 4 decimals;
    ties break token-ascending. Documents with no tokens emit no rows.

    Plan: one block-local pass emits distinct (doc, token, tf) rows
    (materialized once — consumed by both the df reduction and the
    scoring pass, the dedup pipeline's checkpoint trade); df is a keyed
    token shuffle + fold; the df lookup is broadcast when it fits
    (vocabulary-sized — the common case) else a co-partition join, and
    the broadcast path keeps doc rows block-local so the per-doc top-n
    needs no further shuffle.
    """
    import ray

    n_total = ds.count()

    def tf_partial(batch: pa.Table) -> pa.Table:
        flat, offsets = _tokens_of(batch.column(text_col))
        doc_idx, codes, tf, dictionary = _doc_token_pairs(flat, offsets)
        if len(doc_idx) == 0:
            return _EMPTY_TF
        ids = as_array(batch.column(id_col)).take(pa.array(doc_idx))
        return pa.table({
            "doc_id": ids,
            "token": dictionary.take(pa.array(codes)).cast(pa.string()),
            "tf": pa.array(tf, type=pa.int64()),
        })

    pairs = ds.select_columns([id_col, text_col]).map_batches(
        tf_partial, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    def df_fold(batch: pa.Table, _starts) -> pa.Table:
        g = batch.group_by("token").aggregate([("tf", "count")])
        return pa.table({"token": g.column("token"),
                         "df": g.column("tf_count").cast(pa.int64())})

    df_ds = keyed_fold(
        pairs.select_columns(["token", "tf"]),
        ["token"], df_fold, num_partitions, order_by=None)

    def topn_block(batch: pa.Table) -> pa.Table:
        """Per-doc top-n inside a doc-complete block."""
        if len(batch) == 0:
            return pa.table({
                "doc_id": pa.array([], type=pa.int64()),
                "rank": pa.array([], type=pa.int64()),
                "token": pa.array([], type=pa.string()),
                "score": pa.array([], type=pa.float64())})
        idx = pc.sort_indices(batch, sort_keys=[
            ("doc_id", "ascending"), ("score", "descending"),
            ("token", "ascending")])
        t = batch.take(idx)
        d = t.column("doc_id").to_numpy(zero_copy_only=False)
        pos = np.arange(len(d), dtype=np.int64)
        new = np.concatenate([[True], d[1:] != d[:-1]])
        start = np.maximum.accumulate(np.where(new, pos, 0))
        rank = pos - start + 1
        keep = rank <= top_n
        t = t.append_column("rank", pa.array(rank, type=pa.int64()))
        return t.filter(pa.array(keep)).select(
            ["doc_id", "rank", "token", "score"])

    if df_ds.size_bytes() <= broadcast_threshold:
        # broadcast df: one plasma copy per node, map-side lookup;
        # pairs blocks stay doc-complete so top-n folds in place
        from .context import gather_table

        df_tbl = gather_table(df_ds, schema=_EMPTY_DF.schema)
        df_ref = ray.put((df_tbl.column("token").combine_chunks(),
                          df_tbl.column("df").to_numpy(
                              zero_copy_only=False).astype(np.float64)))

        def score_block(batch: pa.Table) -> pa.Table:
            if len(batch) == 0:
                return topn_block(batch)
            tok_arr, df_np = ray.get(df_ref)
            pos = pc.index_in(batch.column("token"),
                              value_set=tok_arr).to_numpy(
                zero_copy_only=False)
            df = df_np[pos]
            tf = batch.column("tf").to_numpy(zero_copy_only=False)
            score = _round4(tf * (np.log((n_total + 1.0) / (df + 1.0))
                                  + 1.0))
            return topn_block(pa.table({
                "doc_id": batch.column("doc_id"),
                "token": batch.column("token"),
                "score": pa.array(score, type=pa.float64())}))

        return pairs.map_batches(score_block, batch_format="pyarrow",
                                 zero_copy_batch=True)

    # co-partition path: join pairs↔df on token, then re-key by doc for
    # the top-n fold (two keyed shuffles; no broadcast memory)
    from .join import hash_join

    joined = hash_join(pairs, df_ds, on=("token", "token"),
                       num_partitions=num_partitions,
                       broadcast_threshold=0)

    def score_row_block(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "token": pa.array([], type=pa.string()),
                             "score": pa.array([], type=pa.float64())})
        tf = batch.column("tf").to_numpy(zero_copy_only=False)
        df = batch.column("df").to_numpy(
            zero_copy_only=False).astype(np.float64)
        score = _round4(tf * (np.log((n_total + 1.0) / (df + 1.0)) + 1.0))
        return pa.table({"doc_id": batch.column("doc_id"),
                         "token": batch.column("token"),
                         "score": pa.array(score, type=pa.float64())})

    return keyed_fold(
        joined.map_batches(score_row_block, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["doc_id"], lambda b, _starts: topn_block(b),
        num_partitions, order_by=None)


# ---------------------------------------------------------------------------
# duplicated k-gram spans
# ---------------------------------------------------------------------------

def _gram_occurrences(flat: pa.Array, offsets: np.ndarray, k: int):
    """Every strict k-token window per doc → 128-bit (h1, h2) gram key
    plus its position. Docs with fewer than k tokens contribute no
    grams. Returns (h1, h2, doc_of_gram, pos) where pos is the 1-based
    token index of the gram start within its doc (the SQL-side
    `generate_series(1, len(toks)-k+1)` convention).
    """
    lens = np.diff(offsets)
    n_docs = len(offsets) - 1
    n_g = np.maximum(lens - k + 1, 0)
    total = int(n_g.sum())
    if total == 0:
        z = np.empty(0, dtype=np.uint64)
        zi = np.empty(0, dtype=np.int64)
        return z, z, zi, zi
    d = pc.dictionary_encode(flat)
    if isinstance(d, pa.ChunkedArray):
        d = d.combine_chunks()
    h_dict, _ = hash_strings(d.dictionary)
    tok_h = h_dict[d.indices.to_numpy(zero_copy_only=False)]
    windows = np.lib.stride_tricks.sliding_window_view(
        np.ascontiguousarray(tok_h), k)
    ends = np.cumsum(n_g)
    starts_rep = np.repeat(offsets[:-1], n_g)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - n_g, n_g)
    sel = windows[starts_rep + within]  # (total, k) uint64
    doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), n_g)
    kk = np.uint64(k)
    h1 = fmix64(np.full(total, kk, dtype=np.uint64))
    h2 = fmix64(np.full(total, kk, dtype=np.uint64) ^ _LANE2)
    for j in range(k):
        h1 = fmix64(h1 ^ sel[:, j])
        h2 = fmix64(h2 ^ sel[:, j])
    return h1, h2, doc_of, within + 1


def _gram_keys(flat: pa.Array, offsets: np.ndarray, k: int):
    """Strict k-token windows per doc → 128-bit (h1, h2) gram keys.

    Docs with fewer than k tokens contribute no grams (unlike the
    MinHash shingler's zero-padded short-doc window — span dedup wants
    exact spans only). Returns (h1, h2, doc_of_gram), per-doc distinct.
    """
    h1, h2, doc_of, _pos = _gram_occurrences(flat, offsets, k)
    total = len(h1)
    if total == 0:
        z = np.empty(0, dtype=np.uint64)
        return z, z, np.empty(0, dtype=np.int64)
    # per-doc distinct on the 128-bit key
    order = np.lexsort((h2, h1, doc_of))
    d_s, h1_s, h2_s = doc_of[order], h1[order], h2[order]
    keep = np.ones(total, dtype=bool)
    keep[1:] = ((h1_s[1:] != h1_s[:-1]) | (h2_s[1:] != h2_s[:-1])
                | (d_s[1:] != d_s[:-1]))
    return h1_s[keep], h2_s[keep], d_s[keep]


def dup_span_stats(ds, id_col: str = "doc_id", text_col: str = "text",
                   k: int = 13, num_partitions: int = 32):
    """Per-doc duplicated-span stats: of a doc's distinct k-token grams,
    how many also occur in at least one OTHER doc.

    Output (doc_id, n_grams, n_dup_grams, dup_ratio) for every input
    doc (docs with < k tokens report 0/0/0.0); ratio round-half-up 4dp.

    Plan: gram pass emits per-doc-distinct (h1,h2,doc) rows → keyed
    shuffle on h1 → in-block 128-bit group fold keeps only grams with
    ≥2 docs and emits per-doc partial dup counts → the per-doc merge is
    a tagged UNION + one doc-keyed shuffle (a join with no join: both
    sides carry the other's column as 0 and the fold sums) — so no
    broadcast is ever needed and skew lives only on the gram key, which
    is a hash. 64-bit lanes ×2 give a 128-bit gram identity: collisions
    are negligible even at 10^12 grams (birthday bound ~2^-64 · n²).
    """
    z64 = pa.array([], type=pa.int64())

    def gram_pairs(batch: pa.Table) -> pa.Table:
        flat, offsets = _tokens_of(batch.column(text_col))
        h1, h2, doc_of = _gram_keys(flat, offsets, k)
        if len(h1) == 0:
            return pa.table({"h1": pa.array([], type=pa.uint64()),
                             "h2": pa.array([], type=pa.uint64()),
                             "doc_id": z64})
        ids = as_array(batch.column(id_col)).take(pa.array(doc_of))
        return pa.table({"h1": pa.array(h1, type=pa.uint64()),
                         "h2": pa.array(h2, type=pa.uint64()),
                         "doc_id": ids})

    def dup_partial(batch: pa.Table, starts) -> pa.Table:
        """Block holds complete gram groups, sorted by (h1, h2)."""
        gid = np.cumsum(run_heads(starts, np_col(batch, "h2"))) - 1
        dup_rows = np.bincount(gid)[gid] >= 2  # gram in ≥2 docs
        ids = as_array(batch.column("doc_id")).filter(pa.array(dup_rows))
        if len(ids) == 0:
            return pa.table({"doc_id": z64, "n_dup": z64})
        t = pa.table({"doc_id": ids}).group_by("doc_id").aggregate(
            [("doc_id", "count")])
        return pa.table({"doc_id": t.column("doc_id"),
                         "n_dup": t.column("doc_id_count").cast(pa.int64())})

    def gram_count(batch: pa.Table) -> pa.Table:
        """(doc_id, n_grams, n_dup=0) for EVERY doc — tagged-union left
        side; re-tokenizes instead of materializing the gram pass."""
        flat, offsets = _tokens_of(batch.column(text_col))
        n_docs = len(offsets) - 1
        lens = np.diff(offsets)
        n_g = np.maximum(lens - k + 1, 0)
        if n_docs and n_g.sum():
            _, _, doc_of = _gram_keys(flat, offsets, k)
            n_distinct = np.bincount(doc_of, minlength=n_docs)
        else:
            n_distinct = np.zeros(n_docs, dtype=np.int64)
        return pa.table({
            id_col: batch.column(id_col),
            "n_grams": pa.array(n_distinct, type=pa.int64()),
            "n_dup": pa.array(np.zeros(n_docs, dtype=np.int64)),
        })

    dups = keyed_fold(
        ds.select_columns([id_col, text_col])
        .map_batches(gram_pairs, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["h1"], dup_partial, num_partitions, order_by=["h2"],
    ).map_batches(lambda b: pa.table({
        id_col: b.column("doc_id"),
        "n_grams": pa.array(np.zeros(len(b), dtype=np.int64)),
        "n_dup": b.column("n_dup")}),
        batch_format="pyarrow", zero_copy_batch=True)

    base = ds.select_columns([id_col, text_col]).map_batches(
        gram_count, batch_format="pyarrow", zero_copy_batch=True)

    def merge_fold(batch: pa.Table, _starts) -> pa.Table:
        g = batch.group_by(id_col).aggregate(
            [("n_grams", "sum"), ("n_dup", "sum")])
        n_grams = g.column("n_grams_sum").to_numpy(zero_copy_only=False)
        n_dup = g.column("n_dup_sum").to_numpy(zero_copy_only=False)
        ratio = _round4(n_dup / np.maximum(n_grams, 1))
        return pa.table({
            id_col: g.column(id_col),
            "n_grams": pa.array(n_grams.astype(np.int64)),
            "n_dup_grams": pa.array(n_dup.astype(np.int64)),
            "dup_ratio": pa.array(ratio, type=pa.float64()),
        })

    return keyed_fold(
        base.union(dups),
        [id_col], merge_fold, num_partitions, order_by=None)


def dup_span_rewrite(ds, id_col: str = "doc_id", text_col: str = "text",
                     k: int = 5, num_partitions: int = 32):
    """Exact substring dedup with document rewrite (Lee et al. 2022):
    every k-token gram occurrence except the corpus-wide FIRST one
    (lexicographic min (doc_id, pos)) marks its k tokens for removal;
    each document is rewritten keeping only unmarked tokens.

    Output: (doc_id, new_text, n_tokens, n_removed) for every doc with
    at least one token. A gram repeated within one doc keeps only its
    first occurrence too, so intra-doc repetition is also removed.

    Plan (three keyed shuffles, nothing all-to-all, no broadcast):
    gram pass emits every occurrence (h1, h2, doc, pos) → shuffle on
    the gram hash → per-group fold keeps the (doc, pos)-min occurrence
    and emits the rest as removable (doc, pos) rows → removable rows
    are tagged-unioned with the raw docs and shuffled on doc_id → the
    rewrite fold builds a per-doc coverage mask with a diff-array
    (+1 at span start, −1 past span end, covered = running sum > 0)
    and reassembles kept tokens with zero-loop ListArray binary_join.
    128-bit gram identity as in dup_span_stats (collision odds
    ~2^-64·n² — negligible at 10^12 grams).
    """
    z64 = pa.array([], type=pa.int64())
    _OUT = pa.schema([("doc_id", pa.int64()), ("new_text", pa.string()),
                      ("n_tokens", pa.int64()), ("n_removed", pa.int64())])

    def gram_pass(batch: pa.Table) -> pa.Table:
        flat, offsets = _tokens_of(batch.column(text_col))
        h1, h2, doc_of, pos = _gram_occurrences(flat, offsets, k)
        if len(h1) == 0:
            return pa.table({"h1": pa.array([], type=pa.uint64()),
                             "h2": pa.array([], type=pa.uint64()),
                             "doc_id": z64, "pos": z64})
        ids = as_array(batch.column(id_col)).take(pa.array(doc_of))
        return pa.table({"h1": pa.array(h1, type=pa.uint64()),
                         "h2": pa.array(h2, type=pa.uint64()),
                         "doc_id": ids.cast(pa.int64()),
                         "pos": pa.array(pos, type=pa.int64())})

    def removable_fold(batch: pa.Table, starts) -> pa.Table:
        """Block holds complete gram groups, sorted by (h1, h2, doc_id,
        pos). Keep the lexicographic-min (doc_id, pos) occurrence per
        128-bit gram; every other occurrence is removable."""
        first = run_heads(starts, np_col(batch, "h2"))
        return batch.filter(pa.array(~first)).select(["doc_id", "pos"])

    removable = keyed_fold(
        ds.select_columns([id_col, text_col])
        .map_batches(gram_pass, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["h1"], removable_fold, num_partitions,
        order_by=["h2", "doc_id", "pos"],
    ).map_batches(lambda b: pa.table({
        "doc_id": b.column("doc_id"),
        "txt": pa.nulls(len(b), pa.string()),
        "pos": b.column("pos")}),
        batch_format="pyarrow", zero_copy_batch=True)

    docs = ds.select_columns([id_col, text_col]).map_batches(
        lambda b: pa.table({
            "doc_id": as_array(b.column(id_col)).cast(pa.int64()),
            "txt": as_array(b.column(text_col)).cast(pa.string()),
            "pos": pa.array(np.full(len(b), -1, dtype=np.int64))}),
        batch_format="pyarrow", zero_copy_batch=True)

    def rewrite_fold(batch: pa.Table, _starts) -> pa.Table:
        """Block holds every row (doc + removable) of its doc_ids."""
        pos = batch.column("pos").to_numpy(zero_copy_only=False)
        is_doc = pos == -1
        doc_rows = batch.filter(pa.array(is_doc))
        if len(doc_rows) == 0:
            return _OUT.empty_table()
        flat, offsets = _tokens_of(doc_rows.column("txt"))
        n_docs = len(doc_rows)
        n_tok = np.diff(offsets)
        # map removable rows to doc-row index
        doc_ids = doc_rows.column("doc_id").to_numpy(zero_copy_only=False)
        rm = batch.filter(pa.array(~is_doc))
        delta = np.zeros(int(offsets[-1]) + 1, dtype=np.int64)
        if len(rm):
            rm_doc = rm.column("doc_id").to_numpy(zero_copy_only=False)
            rm_pos = rm.column("pos").to_numpy(zero_copy_only=False)
            sorter = np.argsort(doc_ids, kind="stable")
            idx = sorter[np.searchsorted(doc_ids, rm_doc, sorter=sorter)]
            starts = offsets[idx] + (rm_pos - 1)
            stops = offsets[idx] + np.minimum(rm_pos - 1 + k, n_tok[idx])
            np.add.at(delta, starts, 1)
            np.add.at(delta, stops, -1)
        covered = np.cumsum(delta)[:-1] > 0
        kept = ~covered
        n_removed = np.zeros(n_docs, dtype=np.int64)
        n_kept = np.zeros(n_docs, dtype=np.int64)
        if int(offsets[-1]):
            doc_of_tok = np.repeat(np.arange(n_docs), n_tok)
            n_removed = np.bincount(doc_of_tok[covered], minlength=n_docs)
            n_kept = np.bincount(doc_of_tok[kept], minlength=n_docs)
        kept_flat = flat.filter(pa.array(kept))
        kept_off = np.concatenate(
            [[0], np.cumsum(n_kept)]).astype(np.int64)
        lists = pa.ListArray.from_arrays(
            pa.array(kept_off, type=pa.int32()), kept_flat)
        new_text = pc.binary_join(lists, " ")
        return pa.table({
            "doc_id": pa.array(doc_ids, type=pa.int64()),
            "new_text": new_text,
            "n_tokens": pa.array(n_tok.astype(np.int64)),
            "n_removed": pa.array(n_removed.astype(np.int64))})

    return keyed_fold(
        docs.union(removable),
        ["doc_id"], rewrite_fold, num_partitions, order_by=None)


# ---------------------------------------------------------------------------
# OOV rate vs corpus top-N vocabulary
# ---------------------------------------------------------------------------

def oov_rate(ds, id_col: str = "doc_id", text_col: str = "text",
             vocab_size: int = 1000, num_partitions: int = 32):
    """Per-doc out-of-vocabulary rate against the corpus's own top-N
    vocabulary (count desc, token asc at the cut — deterministic).

    The tokenizer-fit signal: docs whose tokens mostly fall outside the
    corpus head vocabulary are boilerplate, foreign-language, or junk.

    Plan: block-local token-count partials → token-keyed fold →
    per-block partial top-N → driver merge of ≤N×blocks rows → vocab
    broadcast via ``ray.put`` → one vectorized membership pass
    (``pc.is_in`` + bincount) over the docs. Output (doc_id, n_tokens,
    n_oov, oov_rate) for every doc, zero-token docs as (0, 0, 0.0).
    """
    import ray

    from .context import gather_table

    _CNT = pa.schema([("token", pa.string()), ("c", pa.int64())])

    def count_partial(batch: pa.Table) -> pa.Table:
        flat, offsets = _tokens_of(batch.column(text_col))
        if len(flat) == 0:
            return _CNT.empty_table()
        d = pc.dictionary_encode(flat)
        if isinstance(d, pa.ChunkedArray):
            d = d.combine_chunks()
        codes = d.indices.to_numpy(zero_copy_only=False)
        c = np.bincount(codes, minlength=len(d.dictionary))
        return pa.table({"token": d.dictionary.cast(pa.string()),
                         "c": pa.array(c, type=pa.int64())})

    def count_fold(batch: pa.Table, _starts) -> pa.Table:
        g = batch.group_by("token").aggregate([("c", "sum")])
        return pa.table({"token": g.column("token"),
                         "c": g.column("c_sum").cast(pa.int64())})

    def top_partial(batch: pa.Table) -> pa.Table:
        if len(batch) <= vocab_size:
            return batch
        idx = pc.sort_indices(batch, sort_keys=[
            ("c", "descending"), ("token", "ascending")])
        return batch.take(idx.slice(0, vocab_size))

    tops = gather_table(
        keyed_fold(
            ds.select_columns([text_col])
            .map_batches(count_partial, batch_format="pyarrow",
                         zero_copy_batch=True),
            ["token"], count_fold,
            num_partitions, order_by=None)
        .map_batches(top_partial, batch_format="pyarrow", batch_size=None,
                     zero_copy_batch=True),
        schema=_CNT)
    idx = pc.sort_indices(tops, sort_keys=[
        ("c", "descending"), ("token", "ascending")])
    vocab = tops.take(idx.slice(0, vocab_size)).column(
        "token").combine_chunks()
    vocab_ref = ray.put(vocab)

    def annotate(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "n_tokens": pa.array([], type=pa.int64()),
                             "n_oov": pa.array([], type=pa.int64()),
                             "oov_rate": pa.array([], type=pa.float64())})
        flat, offsets = _tokens_of(batch.column(text_col))
        n_tok = np.diff(offsets)
        n_oov = np.zeros(len(batch), dtype=np.int64)
        if len(flat):
            v = ray.get(vocab_ref)
            oov = pc.invert(pc.is_in(flat, value_set=v)).to_numpy(
                zero_copy_only=False)
            doc_of = np.repeat(np.arange(len(batch)), n_tok)
            n_oov = np.bincount(doc_of[oov], minlength=len(batch))
        rate = _round4(n_oov / np.maximum(n_tok, 1))
        return pa.table({
            "doc_id": as_array(batch.column(id_col)).cast(pa.int64()),
            "n_tokens": pa.array(n_tok.astype(np.int64)),
            "n_oov": pa.array(n_oov.astype(np.int64)),
            "oov_rate": pa.array(rate, type=pa.float64())})

    return ds.select_columns([id_col, text_col]).map_batches(
        annotate, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# per-source Zipf (rank-frequency) slope
# ---------------------------------------------------------------------------

def zipf_slope(ds, text_col: str = "text", group_col: str = "source",
               top_r: int = 200, num_partitions: int = 32):
    """OLS slope of ln(count) on ln(rank) over each group's top-``top_r``
    tokens (count desc, token asc rank order) — the rank-frequency
    exponent; natural text sits near −1, templated/generated text drifts.

    Plan: block-local (group, token) count partials → token-keyed fold
    (same token+group always co-located) → group-keyed shuffle →
    in-block sort/top/regression. Output (group, n_terms, zipf_slope)
    for groups with ≥2 ranked terms; slope rounded half-up to 4
    decimals (population-covariance formula — regr_slope parity).
    """
    _CNT = pa.schema([(group_col, pa.string()), ("token", pa.string()),
                      ("c", pa.int64())])
    _OUT = pa.schema([(group_col, pa.string()), ("n_terms", pa.int64()),
                      ("zipf_slope", pa.float64())])

    def count_partial(batch: pa.Table) -> pa.Table:
        flat, offsets = _tokens_of(batch.column(text_col))
        if len(flat) == 0:
            return _CNT.empty_table()
        grp = as_array(batch.column(group_col)).cast(pa.string())
        doc_of = np.repeat(np.arange(len(batch)), np.diff(offsets))
        t = pa.table({group_col: grp.take(pa.array(doc_of)),
                      "token": flat})
        g = t.group_by([group_col, "token"]).aggregate([([], "count_all")])
        return pa.table({group_col: g.column(group_col),
                         "token": g.column("token"),
                         "c": g.column("count_all").cast(pa.int64())})

    def count_fold(batch: pa.Table, _starts) -> pa.Table:
        g = batch.group_by([group_col, "token"]).aggregate([("c", "sum")])
        return pa.table({group_col: g.column(group_col),
                         "token": g.column("token"),
                         "c": g.column("c_sum").cast(pa.int64())})

    def slope_block(t: pa.Table, starts) -> pa.Table:
        # sorted by (group, c desc, token): rank is the run position
        rank = rank_in_segment(starts, len(t)) + 1
        keep = rank <= top_r
        seg_k = segment_ids(starts, len(t))[keep]
        c_k = np_col(t, "c")[keep]
        n_grp = len(starts)
        n_terms = np.bincount(seg_k, minlength=n_grp)
        x, y = np.log(rank[keep].astype(np.float64)), np.log(
            c_k.astype(np.float64))
        sx = np.bincount(seg_k, weights=x, minlength=n_grp)
        sy = np.bincount(seg_k, weights=y, minlength=n_grp)
        sxx = np.bincount(seg_k, weights=x * x, minlength=n_grp)
        sxy = np.bincount(seg_k, weights=x * y, minlength=n_grp)
        nn = n_terms.astype(np.float64)
        ok = n_terms >= 2
        varx = sxx - sx * sx / np.maximum(nn, 1)
        cov = sxy - sx * sy / np.maximum(nn, 1)
        slope = _round4(cov[ok] / varx[ok])
        return pa.table({
            group_col: as_array(t.column(group_col)).take(
                pa.array(starts[ok])),
            "n_terms": pa.array(n_terms[ok].astype(np.int64)),
            "zipf_slope": pa.array(slope, type=pa.float64())})

    counts = keyed_fold(
        ds.select_columns([group_col, text_col])
        .map_batches(count_partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["token"], count_fold,
        num_partitions, order_by=None)
    return keyed_fold(counts, [group_col], slope_block,
                      max(num_partitions // 4, 1), order_by=["-c", "token"])


# ---------------------------------------------------------------------------
# DSIR importance weights
# ---------------------------------------------------------------------------

def dsir_importance(ds, id_col: str = "doc_id", text_col: str = "text",
                    target_col: str = "lang", target_value: str = "en",
                    num_partitions: int = 32,
                    broadcast_threshold: int = 1 << 30):
    """Per-doc importance weight for resampling toward a target slice.

    llr(doc) = mean over token OCCURRENCES of
        ln((c_target(tok)+1) / (T+V)) − ln((c_all(tok)+1) / (R+V))
    with T/R total target/raw token counts and V the global vocabulary
    size (add-one smoothing on both unigram LMs). Docs with no tokens
    emit no row. Output (doc_id, llr) round-half-up 4dp.

    Plan: one block-local pass emits (token, c_all, c_tgt) partials →
    keyed token shuffle + fold = the two unigram LMs; totals reduce via
    Dataset.sum (vocab-sized input); the weight lookup broadcasts when
    it fits, else co-partition joins token-occurrence rows and re-keys
    by doc for the mean fold — same gate as tfidf_top_terms.
    """
    import ray

    empty_cnt = pa.table({"token": pa.array([], type=pa.string()),
                          "c_all": pa.array([], type=pa.int64()),
                          "c_tgt": pa.array([], type=pa.int64())})

    def cnt_partial(batch: pa.Table) -> pa.Table:
        flat, offsets = _tokens_of(batch.column(text_col))
        if len(flat) == 0:
            return empty_cnt
        d = pc.dictionary_encode(flat)
        if isinstance(d, pa.ChunkedArray):
            d = d.combine_chunks()
        codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vocab = len(d.dictionary)
        c_all = np.bincount(codes, minlength=vocab)
        is_tgt = pc.fill_null(pc.equal(as_array(batch.column(target_col)),
                                       pa.scalar(target_value)), False)
        tgt_mask = is_tgt.to_numpy(zero_copy_only=False).astype(bool)
        doc_of = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
        tok_tgt = tgt_mask[doc_of]
        c_tgt = np.bincount(codes[tok_tgt], minlength=vocab)
        return pa.table({
            "token": d.dictionary.cast(pa.string()),
            "c_all": pa.array(c_all.astype(np.int64)),
            "c_tgt": pa.array(c_tgt.astype(np.int64)),
        })

    def cnt_fold(batch: pa.Table, _starts) -> pa.Table:
        g = batch.group_by("token").aggregate(
            [("c_all", "sum"), ("c_tgt", "sum")])
        return pa.table({"token": g.column("token"),
                         "c_all": g.column("c_all_sum").cast(pa.int64()),
                         "c_tgt": g.column("c_tgt_sum").cast(pa.int64())})

    counts = keyed_fold(
        ds.select_columns([id_col, text_col, target_col])
        .map_batches(cnt_partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["token"], cnt_fold, num_partitions, order_by=None).materialize()

    totals = counts.sum(["c_all", "c_tgt"])
    r_tot = float(totals["sum(c_all)"])
    t_tot = float(totals["sum(c_tgt)"])
    v_tot = float(counts.count())

    def _weights(c_all: np.ndarray, c_tgt: np.ndarray) -> np.ndarray:
        return (np.log((c_tgt + 1.0) / (t_tot + v_tot))
                - np.log((c_all + 1.0) / (r_tot + v_tot)))

    empty_out = pa.table({"doc_id": pa.array([], type=pa.int64()),
                          "llr": pa.array([], type=pa.float64())})

    if counts.size_bytes() <= broadcast_threshold:
        from .context import gather_table

        cnt_tbl = gather_table(counts, schema=empty_cnt.schema)
        w = _weights(
            cnt_tbl.column("c_all").to_numpy(
                zero_copy_only=False).astype(np.float64),
            cnt_tbl.column("c_tgt").to_numpy(
                zero_copy_only=False).astype(np.float64))
        w_ref = ray.put((cnt_tbl.column("token").combine_chunks(), w))

        def score_block(batch: pa.Table) -> pa.Table:
            tok_arr, w_np = ray.get(w_ref)
            flat, offsets = _tokens_of(batch.column(text_col))
            n_docs = len(offsets) - 1
            if len(flat) == 0 or n_docs == 0:
                return empty_out
            pos = pc.index_in(flat, value_set=tok_arr).to_numpy(
                zero_copy_only=False)
            tok_w = w_np[pos]
            doc_of = np.repeat(np.arange(n_docs), np.diff(offsets))
            sums = np.bincount(doc_of, weights=tok_w, minlength=n_docs)
            n_tok = np.diff(offsets)
            has = n_tok > 0
            ids = as_array(batch.column(id_col)).filter(pa.array(has))
            llr = _round4(sums[has] / n_tok[has])
            return pa.table({"doc_id": ids,
                             "llr": pa.array(llr, type=pa.float64())})

        return ds.select_columns([id_col, text_col]).map_batches(
            score_block, batch_format="pyarrow", zero_copy_batch=True)

    # co-partition path: explode (doc, token) occurrence rows, join the
    # weight table on token, re-key by doc and fold the mean
    from .join import hash_join

    def occ_rows(batch: pa.Table) -> pa.Table:
        flat, offsets = _tokens_of(batch.column(text_col))
        n_docs = len(offsets) - 1
        if len(flat) == 0 or n_docs == 0:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "token": pa.array([], type=pa.string())})
        doc_of = np.repeat(np.arange(n_docs), np.diff(offsets))
        ids = as_array(batch.column(id_col)).take(pa.array(doc_of))
        return pa.table({"doc_id": ids, "token": flat.cast(pa.string())})

    occ = ds.select_columns([id_col, text_col]).map_batches(
        occ_rows, batch_format="pyarrow", zero_copy_batch=True)
    joined = hash_join(occ, counts, on=("token", "token"),
                       num_partitions=num_partitions,
                       broadcast_threshold=0)

    def w_partial(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "w_sum": pa.array([], type=pa.float64()),
                             "n": pa.array([], type=pa.int64())})
        w = _weights(batch.column("c_all").to_numpy(
            zero_copy_only=False).astype(np.float64),
            batch.column("c_tgt").to_numpy(
                zero_copy_only=False).astype(np.float64))
        t = pa.table({"doc_id": batch.column("doc_id"),
                      "w_sum": pa.array(w, type=pa.float64()),
                      "n": pa.array(np.ones(len(w), dtype=np.int64))})
        g = t.group_by("doc_id").aggregate([("w_sum", "sum"), ("n", "sum")])
        return pa.table({"doc_id": g.column("doc_id"),
                         "w_sum": g.column("w_sum_sum"),
                         "n": g.column("n_sum").cast(pa.int64())})

    def mean_fold(batch: pa.Table, _starts) -> pa.Table:
        g = batch.group_by("doc_id").aggregate(
            [("w_sum", "sum"), ("n", "sum")])
        llr = _round4(g.column("w_sum_sum").to_numpy(zero_copy_only=False)
                      / g.column("n_sum").to_numpy(zero_copy_only=False))
        return pa.table({"doc_id": g.column("doc_id"),
                         "llr": pa.array(llr, type=pa.float64())})

    return keyed_fold(
        joined.map_batches(w_partial, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["doc_id"], mean_fold, num_partitions, order_by=None)


# ---------------------------------------------------------------------------
# adjacent-bigram collocations (PMI components)
# ---------------------------------------------------------------------------

_EMPTY_BG = pa.table({"x": pa.array([], type=pa.string()),
                      "y": pa.array([], type=pa.string()),
                      "n_xy": pa.array([], type=pa.int64())})


def collocation_stats(ds, text_col: str = "text", min_count: int = 5,
                      num_partitions: int = 32):
    """Adjacent-bigram collocation counts with exact global marginals.

    Over the corpus-wide stream of within-document adjacent token pairs
    (x = position i, y = position i+1): emits one row per bigram with
    ``n_xy >= min_count`` — ``(bigram, n_xy, n_x, n_y, n_total)`` where
    ``n_x`` / ``n_y`` are the marginal counts of x as a pair-left /
    y as a pair-right and ``n_total`` the corpus pair count. All columns
    integer-exact; PMI = ln(n_xy * n_total / (n_x * n_y)) is left to the
    consumer so the row hashes deterministically.

    Plan: block-local pair counting (dictionary-encode once, count
    code-pair keys with one np.unique) -> keyed (x, y) shuffle + fold
    for exact global bigram counts -> marginals reduced from the folded
    table (vocabulary-sized, so per-block partials finish on the driver
    and broadcast back via ray.put for the map-side annotate). The raw
    token stream is never shuffled. Sketch parallel: the marginal
    broadcast is the same small-side discipline as the frequent-items
    merge (datasketches-go frequencies/longs_sketch.go merge path).
    """
    import ray

    from .context import gather_table

    def pair_partial(batch: pa.Table) -> pa.Table:
        flat, offsets = _tokens_of(batch.column(text_col))
        if len(flat) < 2:
            return _EMPTY_BG
        d = pc.dictionary_encode(flat)
        if isinstance(d, pa.ChunkedArray):
            d = d.combine_chunks()
        codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vocab = len(d.dictionary)
        doc_of = np.repeat(np.arange(len(offsets) - 1, dtype=np.int64),
                           np.diff(offsets))
        mask = doc_of[1:] == doc_of[:-1]
        cx, cy = codes[:-1][mask], codes[1:][mask]
        if len(cx) == 0:
            return _EMPTY_BG
        key = cx * vocab + cy
        uk, cnt = np.unique(key, return_counts=True)
        return pa.table({
            "x": d.dictionary.take(pa.array(uk // vocab)).cast(pa.string()),
            "y": d.dictionary.take(pa.array(uk % vocab)).cast(pa.string()),
            "n_xy": pa.array(cnt.astype(np.int64)),
        })

    def bigram_fold(batch: pa.Table, _starts) -> pa.Table:
        g = batch.group_by(["x", "y"]).aggregate([("n_xy", "sum")])
        return pa.table({"x": g.column("x"), "y": g.column("y"),
                         "n_xy": g.column("n_xy_sum").cast(pa.int64())})

    # materialized: consumed 3x, two marginals + annotate
    bigrams = keyed_fold(
        ds.select_columns([text_col])
        .map_batches(pair_partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["x", "y"], bigram_fold, num_partitions, order_by=None).materialize()

    _empty_marg = pa.table({"t": pa.array([], type=pa.string()),
                            "n": pa.array([], type=pa.int64())})

    def marg_partial(col):
        def f(batch: pa.Table) -> pa.Table:
            if len(batch) == 0:
                return _empty_marg
            g = batch.group_by(col).aggregate([("n_xy", "sum")])
            return pa.table({"t": g.column(col).cast(pa.string()),
                             "n": g.column("n_xy_sum").cast(pa.int64())})
        return f

    def marginal(col):
        part = bigrams.map_batches(marg_partial(col),
                                   batch_format="pyarrow",
                                   zero_copy_batch=True)
        tbl = gather_table(part, schema=_empty_marg.schema)
        g = tbl.group_by("t").aggregate([("n", "sum")])
        toks = as_array(g.column("t"))
        return toks, g.column("n_sum").to_numpy(
            zero_copy_only=False).astype(np.int64)

    x_toks, x_n = marginal("x")
    y_toks, y_n = marginal("y")
    n_total = int(x_n.sum())
    marg_ref = ray.put((x_toks, x_n, y_toks, y_n))

    _empty_out = pa.table({
        "bigram": pa.array([], type=pa.string()),
        "n_xy": pa.array([], type=pa.int64()),
        "n_x": pa.array([], type=pa.int64()),
        "n_y": pa.array([], type=pa.int64()),
        "n_total": pa.array([], type=pa.int64()),
    })

    def annotate(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.greater_equal(batch.column("n_xy"),
                                              min_count))
        if len(batch) == 0:
            return _empty_out
        xa, xn, ya, yn = ray.get(marg_ref)
        px = pc.index_in(batch.column("x"), value_set=xa).to_numpy(
            zero_copy_only=False)
        py = pc.index_in(batch.column("y"), value_set=ya).to_numpy(
            zero_copy_only=False)
        n = len(batch)
        return pa.table({
            "bigram": pc.binary_join_element_wise(
                batch.column("x"), batch.column("y"), " "),
            "n_xy": batch.column("n_xy"),
            "n_x": pa.array(xn[px]),
            "n_y": pa.array(yn[py]),
            "n_total": pa.array(np.full(n, n_total, dtype=np.int64)),
        })

    return bigrams.map_batches(annotate, batch_format="pyarrow",
                               zero_copy_batch=True)


_EMPTY_SRCPAIR = pa.table({
    "source_a": pa.array([], type=pa.string()),
    "source_b": pa.array([], type=pa.string()),
    "n_common": pa.array([], type=pa.int64()),
})


def source_vocab_overlap(ds, group_col: str = "source",
                         text_col: str = "text",
                         num_partitions: int = 16) -> pa.Table:
    """Pairwise distinct-token vocabulary overlap between sources.

    The crawl-provenance signal: two sources whose vocabularies are
    near-identical are usually the same feed mirrored twice — worth
    checking BEFORE paying for document-level dedup between them.
    Output (driver-side, ``n_sources^2``-bounded): one row per unordered
    source pair with ``(n_a, n_b, n_common, jaccard)`` where the counts
    are exact distinct-token cardinalities (the exact version of the
    reference's HLL-union intersection estimate, hll/union.go:151-158 —
    swap in the HLL aggregate when vocabularies stop fitting a block).

    Plan: block-local distinct (source, token) -> keyed token shuffle
    (a token's rows meet in one block, so post-shuffle distinct is
    global and no block ever holds a whole source's vocabulary) ->
    per-block boolean incidence matrix (distinct tokens x sources)
    folded to an n_sources^2 co-occurrence matmul -> tiny driver fold.
    The token stream crosses the wire once, pre-shrunk to per-block
    distinct pairs; nothing all-pairs ever materializes.
    """
    from .context import gather_table

    _empty_st = pa.table({group_col: pa.array([], type=pa.string()),
                          "token": pa.array([], type=pa.string())})

    def pre(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return _empty_st
        flat, offsets = _tokens_of(b.column(text_col))
        if len(flat) == 0:
            return _empty_st
        doc_of = np.repeat(np.arange(len(offsets) - 1, dtype=np.int64),
                           np.diff(offsets))
        t = pa.table({
            group_col: as_array(b.column(group_col)).take(pa.array(doc_of)),
            "token": flat.cast(pa.string()),
        })
        return t.group_by([group_col, "token"]).aggregate([])

    def pair_counts(b: pa.Table, _starts) -> pa.Table:
        # token partition arrived: distinct here is globally distinct
        d = b.group_by([group_col, "token"]).aggregate([])
        src = pc.dictionary_encode(as_array(d.column(group_col)))
        tok = pc.dictionary_encode(as_array(d.column("token")))
        scodes = src.indices.to_numpy(zero_copy_only=False)
        tcodes = tok.indices.to_numpy(zero_copy_only=False)
        n_src = len(src.dictionary)
        n_tok = len(tok.dictionary)
        m = np.zeros((n_tok, n_src), dtype=np.float32)
        m[tcodes, scodes] = 1.0
        co = (m.T @ m).astype(np.int64)  # n_src^2 co-occurrence counts
        ai, bi = np.nonzero(co)
        return pa.table({
            "source_a": src.dictionary.take(pa.array(ai)).cast(pa.string()),
            "source_b": src.dictionary.take(pa.array(bi)).cast(pa.string()),
            "n_common": pa.array(co[ai, bi]),
        })

    parts = keyed_fold(
        ds.select_columns([group_col, text_col])
        .map_batches(pre, batch_format="pyarrow", zero_copy_batch=True),
        ["token"], pair_counts, num_partitions, order_by=None)
    folded = gather_table(parts, schema=_EMPTY_SRCPAIR.schema) \
        .group_by(["source_a", "source_b"]).aggregate([("n_common", "sum")])

    sa = as_array(folded.column("source_a"))
    sb = as_array(folded.column("source_b"))
    n = folded.column("n_common_sum").to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    # diagonal = exact per-source distinct-token counts
    diag_mask = pc.equal(sa, sb).to_numpy(zero_copy_only=False)
    sizes = {sa[i].as_py(): int(n[i]) for i in np.flatnonzero(diag_mask)}
    keep = np.flatnonzero(
        ~diag_mask
        & (pc.less(sa, sb).to_numpy(zero_copy_only=False))
        & (n > 0))
    na = np.array([sizes[sa[int(i)].as_py()] for i in keep], dtype=np.int64)
    nb = np.array([sizes[sb[int(i)].as_py()] for i in keep], dtype=np.int64)
    nc = n[keep]
    jac = np.floor(nc / (na + nb - nc) * 1e6 + 0.5) / 1e6
    return pa.table({
        "source_a": sa.take(pa.array(keep)),
        "source_b": sb.take(pa.array(keep)),
        "n_a": pa.array(na),
        "n_b": pa.array(nb),
        "n_common": pa.array(nc),
        "jaccard": pa.array(jac, type=pa.float64()),
    })


def _bigrams_of(col) -> pa.Array:
    """Adjacent-token bigram strings ('left right') of a text column,
    flattened across docs (cross-doc pairs masked out). Fully
    vectorized: one whitespace split, two aligned slices of the flat
    token array, one binary_join_element_wise."""
    flat, offsets = _tokens_of(col)
    n = len(flat)
    if n < 2:
        return pa.array([], type=pa.string())
    left = flat.slice(0, n - 1)
    right = flat.slice(1, n - 1)
    joined = pc.binary_join_element_wise(left, right, " ")
    mark = np.ones(n - 1, dtype=bool)
    # position offsets[k]-1 would pair doc k-1's last token with doc
    # k's first — mask it (guarding empty docs / 0 offsets)
    bad = offsets[1:-1] - 1
    bad = bad[(bad >= 0) & (bad < n - 1)]
    mark[bad] = False
    return as_array(joined).filter(pa.array(mark))


def ngram_diversity_by(ds, group_col: str = "source",
                       text_col: str = "text",
                       num_partitions: int = 32):
    """Per-group bigram type-token ratio: distinct adjacent token pairs
    / total pairs — the n-gram diversity score that flags templated or
    machine-generated feeds (low diversity at high volume).

    Plan: one block pass pre-aggregates (group, bigram) counts →
    (group, bigram)-keyed shuffle + sum fold makes counts exact →
    per-block per-group partials (Σc, #rows) → tiny group-keyed fold.
    Raw text never re-ships; the wide shuffle carries pre-shrunk
    (group, bigram, c) rows only. diversity = n_distinct * 1.0 /
    n_bigrams is a single division on exact int64s — value-exact vs
    the SQL ``count(DISTINCT)/count(*)``.
    """
    from .context import auto_partitions

    _CNT = pa.schema([(group_col, pa.string()),
                      ("bigram", pa.string()), ("c", pa.int64())])
    _PART = pa.schema([(group_col, pa.string()),
                       ("n_bigrams", pa.int64()),
                       ("n_distinct", pa.int64())])

    def count_partial(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return _CNT.empty_table()
        # bigrams per doc, then group rows repeated per doc's pairs
        flat, offsets = _tokens_of(b.column(text_col))
        n = len(flat)
        if n < 2:
            return _CNT.empty_table()
        npairs = np.maximum(np.diff(offsets) - 1, 0)
        grp = as_array(b.column(group_col)).take(
            pa.array(np.repeat(np.arange(len(npairs)), npairs)))
        bg = _bigrams_of(b.column(text_col))
        t = pa.table({group_col: grp, "bigram": bg})
        g = t.group_by([group_col, "bigram"]).aggregate(
            [("bigram", "count")])
        return pa.table({group_col: g.column(group_col),
                         "bigram": g.column("bigram"),
                         "c": g.column("bigram_count").cast(pa.int64())})

    def count_fold(b: pa.Table, _starts) -> pa.Table:
        g = b.group_by([group_col, "bigram"]).aggregate([("c", "sum")])
        return pa.table({group_col: g.column(group_col),
                         "bigram": g.column("bigram"),
                         "c": g.column("c_sum").cast(pa.int64())})

    def group_partial(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return _PART.empty_table()
        g = b.group_by(group_col).aggregate(
            [("c", "sum"), ("bigram", "count")])
        return pa.table({group_col: g.column(group_col),
                         "n_bigrams": g.column("c_sum").cast(pa.int64()),
                         "n_distinct": g.column("bigram_count")
                         .cast(pa.int64())})

    def fold(b: pa.Table, _starts) -> pa.Table:
        g = b.group_by(group_col).aggregate(
            [("n_bigrams", "sum"), ("n_distinct", "sum")])
        nb = g.column("n_bigrams_sum").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        nd = g.column("n_distinct_sum").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({
            group_col: g.column(group_col),
            "n_bigrams": pa.array(nb, type=pa.int64()),
            "n_distinct": pa.array(nd, type=pa.int64()),
            "diversity": pa.array(nd * 1.0 / nb, type=pa.float64()),
        })

    P = auto_partitions(ds.count(), 500_000, num_partitions)
    return keyed_fold(
        keyed_fold(
            ds.select_columns([group_col, text_col])
            .map_batches(count_partial, batch_format="pyarrow",
                         zero_copy_batch=True),
            [group_col, "bigram"], count_fold,
            P, order_by=None)
        .map_batches(group_partial, batch_format="pyarrow",
                     batch_size=None, zero_copy_batch=True),
        [group_col], fold, min(4, P), order_by=None)


def nb_token_likelihoods(ds, class_col: str = "lang",
                         text_col: str = "text", top_k: int = 10,
                         num_partitions: int = 32):
    """Distributed Naive-Bayes classifier training: exact (class,
    token) counts plus Laplace-smoothed likelihoods p(token|class) =
    (c+1)/(total_class+V) for the ``top_k`` tokens per class.

    Classifier *training as count aggregation* — the mergeable-partials
    discipline of the reference's sketches (hll/union.go:151-158)
    applied to supervised model fitting: every distributed intermediate
    is an exact int64 count; the single final division happens once on
    the driver, so the DuckDB oracle compares value-exact.

    Plan: block-local (class, token) count partials → token-keyed
    shuffle + sum fold (token-partitioned, so per-block distinct-token
    counts and per-class partial totals are exact) → three tiny
    driver folds (V, class totals, global top-k from per-block top-k
    partials — ≤ top_k × classes × blocks rows ever gathered).
    Output: (class, token, c, p), top_k rows per class, ties broken
    (c desc, token asc).
    """
    from .context import auto_partitions, gather_table

    _CNT = pa.schema([(class_col, pa.string()),
                      ("token", pa.string()), ("c", pa.int64())])

    def count_partial(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return _CNT.empty_table()
        flat, offsets = _tokens_of(b.column(text_col))
        if len(flat) == 0:
            return _CNT.empty_table()
        ntok = np.diff(offsets)
        cls = as_array(b.column(class_col)).take(
            pa.array(np.repeat(np.arange(len(ntok)), ntok)))
        t = pa.table({class_col: cls, "token": flat})
        g = t.group_by([class_col, "token"]).aggregate(
            [("token", "count")])
        return pa.table({class_col: g.column(class_col),
                         "token": g.column("token"),
                         "c": g.column("token_count").cast(pa.int64())})

    def count_fold(b: pa.Table, _starts) -> pa.Table:
        g = b.group_by([class_col, "token"]).aggregate([("c", "sum")])
        return pa.table({class_col: g.column(class_col),
                         "token": g.column("token"),
                         "c": g.column("c_sum").cast(pa.int64())})

    P = auto_partitions(ds.count(), 500_000, num_partitions)
    folded = (
        keyed_fold(
            ds.select_columns([class_col, text_col])
            .map_batches(count_partial, batch_format="pyarrow",
                         zero_copy_batch=True),
            ["token"], count_fold, P, order_by=None)
        .materialize())

    # blocks are token-partitioned: a token lives in exactly one block,
    # so per-block distinct-token counts sum to the global V exactly
    def stats_partial(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table({"kind": pa.array([], type=pa.string()),
                             "key": pa.array([], type=pa.string()),
                             "n": pa.array([], type=pa.int64())})
        nv = len(pc.unique(b.column("token")))
        g = b.group_by(class_col).aggregate([("c", "sum")])
        return pa.table({
            "kind": pa.array(["V"] + ["T"] * len(g), type=pa.string()),
            "key": pa.array(
                [""] + g.column(class_col).to_pylist(),
                type=pa.string()),
            "n": pa.array(
                [nv] + [int(x) for x in
                        g.column("c_sum").to_pylist()],
                type=pa.int64()),
        })

    stats = gather_table(
        folded.map_batches(stats_partial, batch_format="pyarrow",
                           batch_size=None, zero_copy_batch=True),
        schema=pa.schema([("kind", pa.string()), ("key", pa.string()),
                          ("n", pa.int64())]))
    kinds = stats.column("kind").to_numpy(zero_copy_only=False)
    keys = stats.column("key").to_numpy(zero_copy_only=False)
    ns = stats.column("n").to_numpy(zero_copy_only=False)
    V = int(ns[kinds == "V"].sum())
    totals: dict[str, int] = {}
    for k, n in zip(keys[kinds == "T"], ns[kinds == "T"]):
        totals[k] = totals.get(k, 0) + int(n)

    def top_partial(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return _CNT.empty_table()
        idx = pc.sort_indices(b, sort_keys=[
            (class_col, "ascending"), ("c", "descending"),
            ("token", "ascending")])
        s = b.take(idx)
        cls = s.column(class_col).to_numpy(zero_copy_only=False)
        first = np.empty(len(cls), dtype=bool)
        first[0] = True
        np.not_equal(cls[1:], cls[:-1], out=first[1:])
        pos = np.arange(len(cls)) - np.maximum.accumulate(
            np.where(first, np.arange(len(cls)), 0))
        return s.filter(pa.array(pos < top_k))

    tops = gather_table(
        folded.map_batches(top_partial, batch_format="pyarrow",
                           batch_size=None, zero_copy_batch=True),
        schema=_CNT)
    idx = pc.sort_indices(tops, sort_keys=[
        (class_col, "ascending"), ("c", "descending"),
        ("token", "ascending")])
    s = tops.take(idx)
    cls = s.column(class_col).to_numpy(zero_copy_only=False)
    if len(cls) == 0:
        return pa.table({class_col: pa.array([], type=pa.string()),
                         "token": pa.array([], type=pa.string()),
                         "c": pa.array([], type=pa.int64()),
                         "p": pa.array([], type=pa.float64())})
    first = np.empty(len(cls), dtype=bool)
    first[0] = True
    np.not_equal(cls[1:], cls[:-1], out=first[1:])
    pos = np.arange(len(cls)) - np.maximum.accumulate(
        np.where(first, np.arange(len(cls)), 0))
    s = s.filter(pa.array(pos < top_k))
    c = s.column("c").to_numpy(zero_copy_only=False).astype(np.int64)
    cls = s.column(class_col).to_numpy(zero_copy_only=False)
    denom = np.array([totals[k] + V for k in cls], dtype=np.int64)
    p = (c + 1) * 1.0 / denom
    return pa.table({class_col: s.column(class_col),
                     "token": s.column("token"),
                     "c": pa.array(c, type=pa.int64()),
                     "p": pa.array(p, type=pa.float64())})


def _bpe_merge_loop(words: list[str], freqs: np.ndarray, n_merges: int):
    """Deterministic BPE merge loop over a word-frequency table
    (Sennrich et al. 2016). Characters are the initial symbols; each
    round merges the pair with the highest corpus-weighted count
    (ties: lexicographically smallest (left, right) string pair),
    applying merges left-to-right non-overlapping within words.
    Vectorized over the flattened symbol stream; the only Python loops
    are over merge rounds and the (tiny) tie/overlap sets.

    Returns a list of (left, right, merged, count) tuples.
    """
    if not words:
        return []
    # deterministic initial symbol table: sorted unique characters
    chars = sorted({ch for w in words for ch in w})
    sym_of = {ch: i for i, ch in enumerate(chars)}
    symtab: list[str] = list(chars)
    lens = np.array([len(w) for w in words], dtype=np.int64)
    syms = np.fromiter((sym_of[ch] for w in words for ch in w),
                       dtype=np.int64, count=int(lens.sum()))
    freqs = np.asarray(freqs, dtype=np.int64)

    merges: list[tuple[str, str, str, int]] = []
    for _ in range(n_merges):
        n = len(syms)
        if n < 2:
            break
        # valid adjacent positions: pair (i, i+1) within one word
        ends = np.cumsum(lens)
        valid = np.ones(n - 1, dtype=bool)
        bad = ends[:-1] - 1
        bad = bad[(bad >= 0) & (bad < n - 1)]
        valid[bad] = False
        # skip words of length < 2 implicitly (their boundary masks out)
        if not valid.any():
            break
        wrep = np.repeat(np.arange(len(lens)), lens)
        w = freqs[wrep[:-1]][valid]
        packed = (syms[:-1][valid] << 21) | syms[1:][valid]
        uniq, inv = np.unique(packed, return_inverse=True)
        counts = np.bincount(inv, weights=w.astype(np.float64)) \
            .astype(np.int64)
        best_c = int(counts.max())
        if best_c < 2:
            break
        cand = uniq[counts == best_c]
        bl, br = min(((symtab[int(p >> 21)], symtab[int(p & 0x1FFFFF)])
                      for p in cand))
        bl_id, br_id = sym_of[bl], sym_of[br]
        merged = bl + br
        # symbols ARE strings in classic BPE: if an earlier merge
        # already produced this string (('a','bc') and ('ab','c') both
        # yield 'abc'), reuse its id so id-identity == string-identity
        # and pair counts keep matching a string-keyed trainer
        if merged in sym_of:
            new_id = sym_of[merged]
        else:
            new_id = len(symtab)
            symtab.append(merged)
            sym_of[merged] = new_id
        merges.append((bl, br, merged, best_c))
        # apply: greedy left-to-right non-overlapping replacement
        m = np.flatnonzero(valid
                           & (syms[:-1] == bl_id) & (syms[1:] == br_id))
        keep_m = []
        last = -2
        for i in m:
            if i > last + 1:
                keep_m.append(i)
                last = i
        m = np.asarray(keep_m, dtype=np.int64)
        syms[m] = new_id
        drop = np.zeros(n, dtype=bool)
        drop[m + 1] = True
        merged_per_word = np.bincount(wrep[m + 1], minlength=len(lens))
        lens = lens - merged_per_word
        syms = syms[~drop]
    return merges


def bpe_learn_merges(ds, text_col: str = "text", n_merges: int = 40,
                     vocab_size: int = 20000, num_partitions: int = 32):
    """Distributed BPE tokenizer training: learn the first ``n_merges``
    byte-pair merges of the corpus.

    The distributed step is the exact word-frequency fold (block-local
    token-count partials → token-keyed shuffle + sum → per-block top-V
    partials → driver merge of ≤ V×blocks rows) — the corpus is read
    once and only (token, count) rows ever ship. The merge loop then
    runs on the bounded top-``vocab_size`` word-frequency table, which
    is exactly how sentencepiece-style trainers operate (pair counts
    are weighted by word frequency, not re-scanned from text).

    Deterministic end-to-end: exact integer counts, ties broken
    (count desc, token asc) at the vocab cut and (count desc, pair
    lexicographic asc) at each merge. Output: one row per learned
    merge (rank, left, right, merged, count).
    """
    from .context import auto_partitions, gather_table

    _CNT = pa.schema([("token", pa.string()), ("c", pa.int64())])

    def count_partial(b: pa.Table) -> pa.Table:
        flat, _ = _tokens_of(b.column(text_col))
        if len(flat) == 0:
            return _CNT.empty_table()
        d = pc.dictionary_encode(flat)
        if isinstance(d, pa.ChunkedArray):
            d = d.combine_chunks()
        codes = d.indices.to_numpy(zero_copy_only=False)
        c = np.bincount(codes, minlength=len(d.dictionary))
        return pa.table({"token": d.dictionary.cast(pa.string()),
                         "c": pa.array(c, type=pa.int64())})

    def count_fold(b: pa.Table, _starts) -> pa.Table:
        g = b.group_by("token").aggregate([("c", "sum")])
        return pa.table({"token": g.column("token"),
                         "c": g.column("c_sum").cast(pa.int64())})

    def top_partial(b: pa.Table) -> pa.Table:
        if len(b) <= vocab_size:
            return b
        idx = pc.sort_indices(b, sort_keys=[
            ("c", "descending"), ("token", "ascending")])
        return b.take(idx.slice(0, vocab_size))

    P = auto_partitions(ds.count(), 500_000, num_partitions)
    tops = gather_table(
        keyed_fold(
            ds.select_columns([text_col])
            .map_batches(count_partial, batch_format="pyarrow",
                         zero_copy_batch=True),
            ["token"], count_fold, P, order_by=None)
        .map_batches(top_partial, batch_format="pyarrow",
                     batch_size=None, zero_copy_batch=True),
        schema=_CNT)
    idx = pc.sort_indices(tops, sort_keys=[
        ("c", "descending"), ("token", "ascending")])
    tops = tops.take(idx.slice(0, vocab_size))
    words = tops.column("token").to_pylist()
    freqs = tops.column("c").to_numpy(zero_copy_only=False)

    merges = _bpe_merge_loop(words, freqs, n_merges)
    return pa.table({
        "rank": pa.array(np.arange(1, len(merges) + 1), type=pa.int64()),
        "left": pa.array([m[0] for m in merges], type=pa.string()),
        "right": pa.array([m[1] for m in merges], type=pa.string()),
        "merged": pa.array([m[2] for m in merges], type=pa.string()),
        "count": pa.array([m[3] for m in merges], type=pa.int64()),
    })


def bm25_topk(ds, query_tokens: list[str], *, k: int = 20,
              id_col: str = "doc_id", text_col: str = "text",
              num_partitions: int = 16):
    """BM25 retrieval (Robertson/Sparck-Jones, public formula; k1=1.2,
    b=0.75): score every document against a token query, return the
    top-``k`` by (score desc, id asc).

    Plan: one vectorized pass shrinks each doc to a slim row
    (id, doc len, per-query-token tf) — materialized once, the corpus
    text is never read twice; global N / Σdl / per-token df fold from
    per-block partials on the driver (q+2 numbers); a second pass over
    the slim rows scores and per-block top-k's, then the standard
    top_k gather. Scores are emitted floor-rounded to 1e-4 with the
    exact operation order a SQL oracle can reproduce."""
    import ray

    from .arrow_util import as_array
    from .relational import top_k

    q = list(query_tokens)
    n_q = len(q)

    def slim(b: pa.Table) -> pa.Table:
        texts = as_array(b.column(text_col))
        n = len(texts)
        toks = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(texts), r"\s+")
        dl = pc.list_value_length(toks).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False).copy()
        emptym = pc.equal(pc.utf8_trim_whitespace(texts), "") \
            .to_numpy(zero_copy_only=False)
        dl[emptym] = 0
        flat = pc.list_flatten(toks)
        tf = np.zeros((n, n_q), dtype=np.int64)
        if len(flat):
            parent = pc.list_parent_indices(toks) \
                .to_numpy(zero_copy_only=False)
            for ti, t in enumerate(q):
                m = pc.equal(flat, pa.scalar(t)) \
                    .to_numpy(zero_copy_only=False)
                if m.any():
                    tf[:, ti] = np.bincount(parent[m], minlength=n)
        out = {id_col: b.column(id_col), "dl": pa.array(dl)}
        for ti in range(n_q):
            out[f"tf{ti}"] = pa.array(tf[:, ti])
        return pa.table(out)

    slim_ds = ds.select_columns([id_col, text_col]).map_batches(
        slim, batch_format="pyarrow", zero_copy_batch=True).materialize()

    def stats_partial(b: pa.Table) -> pa.Table:
        row = {"n": pa.array([len(b)], type=pa.int64()),
               "sdl": pa.array([int(b.column("dl").to_numpy(
                   zero_copy_only=False).sum())] if len(b) else [0],
                   type=pa.int64())}
        for ti in range(n_q):
            tfv = b.column(f"tf{ti}").to_numpy(zero_copy_only=False) \
                if len(b) else np.zeros(0, dtype=np.int64)
            row[f"df{ti}"] = pa.array([int((tfv > 0).sum())],
                                      type=pa.int64())
        return pa.table(row)

    from .context import gather_table
    st = gather_table(
        slim_ds.map_batches(stats_partial, batch_format="pyarrow",
                            zero_copy_batch=True),
        schema=pa.schema([("n", pa.int64()), ("sdl", pa.int64())]
                         + [(f"df{t}", pa.int64()) for t in range(n_q)]))
    N = int(pc.sum(st.column("n")).as_py() or 0)
    S = int(pc.sum(st.column("sdl")).as_py() or 0)
    df = [int(pc.sum(st.column(f"df{t}")).as_py() or 0)
          for t in range(n_q)]
    consts = ray.put((N, S, df))

    def score(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table({id_col: pa.array([], type=pa.int64()),
                             "bm25": pa.array([], type=pa.float64())})
        N_, S_, df_ = ray.get(consts)
        dl = b.column("dl").to_numpy(zero_copy_only=False)
        s = np.zeros(len(b), dtype=np.float64)
        any_hit = np.zeros(len(b), dtype=bool)
        # fixed token order + identical op sequence to the SQL oracle:
        # idf * tf * 2.2 / (tf + 1.2*(0.25 + 0.75*((dl*N)/S)))
        for ti in range(n_q):
            tf = b.column(f"tf{ti}").to_numpy(zero_copy_only=False) \
                .astype(np.float64)
            hit = tf > 0
            if not hit.any() or df_[ti] == 0:
                continue
            idf = np.log(1.0 + (N_ - df_[ti] + 0.5) / (df_[ti] + 0.5))
            denom = tf + 1.2 * (0.25 + 0.75 * ((dl * N_) / S_))
            s = np.where(hit, s + idf * tf * 2.2 / denom, s)
            any_hit |= hit
        r = np.floor(s * 10_000 + 0.5) / 10_000
        t = pa.table({id_col: b.column(id_col),
                      "bm25": pa.array(r, type=pa.float64())})
        return t.filter(pa.array(any_hit))

    scored = slim_ds.map_batches(score, batch_format="pyarrow",
                                 zero_copy_batch=True)
    return top_k(scored, [("bm25", "descending"),
                          (id_col, "ascending")], k=k)


def vocab_drift_weekly(ds, ts_col: str = "ts", text_col: str = "text",
                       *, epoch_day: str = "2023-11-13",
                       week_days: int = 7, num_partitions: int = 16):
    """Corpus drift monitor: token-vocabulary Jaccard between adjacent
    calendar weeks — the data-quality alarm for a continuously
    ingested corpus. Plan: block-local distinct (week, token) pairs ->
    one token-keyed shuffle -> per-token fold emits its per-week
    presence and adjacent-week co-presence counts -> tiny driver
    combine (weeks x weeks is small by construction). Outputs integer
    1e4-scaled floor Jaccard (SQL-exact)."""
    from .arrow_util import as_array
    from .context import auto_partitions, gather_table

    ep = np.datetime64(epoch_day).astype("datetime64[us]").astype(
        np.int64)
    day_us = 86_400_000_000

    def pairs(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table({"week": pa.array([], type=pa.int64()),
                             "token": pa.array([], type=pa.string())})
        ts = b.column(ts_col).cast(pa.timestamp("us")).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        week = (ts - ep) // day_us // week_days
        texts = as_array(b.column(text_col))
        toks = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(texts.cast(pa.string())), r"\s+")
        flat = pc.list_flatten(toks)
        if len(flat) == 0:
            return pa.table({"week": pa.array([], type=pa.int64()),
                             "token": pa.array([], type=pa.string())})
        parent = pc.list_parent_indices(toks) \
            .to_numpy(zero_copy_only=False)
        t = pa.table({"week": pa.array(week[parent]), "token": flat})
        t = t.filter(pc.not_equal(t.column("token"), ""))
        return t.group_by(["week", "token"]).aggregate([])

    def per_token(b: pa.Table, starts) -> pa.Table:
        # block-local rows are (week, token) distinct per input block but
        # may repeat across blocks: dedup after the shuffle
        wk = np_col(b, "week")
        head = run_heads(starts, wk)
        new_tok = np.zeros(len(b), dtype=bool)
        new_tok[starts] = True
        wks = wk[head]
        adj = ~new_tok[head] & (np.diff(wks, prepend=wks[:1]) == 1)
        # sizes: every distinct (week, token) contributes 1 to its week
        uw, wc = np.unique(wks, return_counts=True)
        aw, ac = (np.unique(wks[adj] - 1, return_counts=True)
                  if adj.any() else (np.empty(0, np.int64),
                                     np.empty(0, np.int64)))
        return pa.table({
            "week_a": pa.array(np.concatenate([uw, aw])),
            "n_a": pa.array(np.concatenate(
                [wc, np.zeros(len(aw), dtype=np.int64)]).astype(np.int64)),
            "n_common": pa.array(np.concatenate(
                [np.zeros(len(uw), dtype=np.int64), ac]).astype(np.int64)),
        })

    P = auto_partitions(ds.count(), 500_000, num_partitions)
    part = keyed_fold(
        ds.select_columns([ts_col, text_col])
        .map_batches(pairs, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["token"], per_token, P, order_by=["week"])
    t = gather_table(part, schema=pa.schema(
        [("week_a", pa.int64()), ("n_a", pa.int64()),
         ("n_common", pa.int64())]))
    wk = t.column("week_a").to_numpy(zero_copy_only=False)
    na = t.column("n_a").to_numpy(zero_copy_only=False)
    nc = t.column("n_common").to_numpy(zero_copy_only=False)
    uw, inv = np.unique(wk, return_inverse=True)
    sizes = np.zeros(len(uw), dtype=np.int64)
    np.add.at(sizes, inv, na)
    inters = np.zeros(len(uw), dtype=np.int64)
    np.add.at(inters, inv, nc)
    size_of = dict(zip(uw.tolist(), sizes.tolist()))
    inter_of = dict(zip(uw.tolist(), inters.tolist()))
    rows = []
    for w in sorted(size_of):
        if size_of.get(w, 0) > 0 and size_of.get(w + 1, 0) > 0:
            i = inter_of.get(w, 0)
            u = size_of[w] + size_of[w + 1] - i
            rows.append((w, w + 1, size_of[w], size_of[w + 1], i,
                         i * 10_000 // u))
    return pa.table({
        "week_a": pa.array([r[0] for r in rows], type=pa.int64()),
        "week_b": pa.array([r[1] for r in rows], type=pa.int64()),
        "n_a": pa.array([r[2] for r in rows], type=pa.int64()),
        "n_b": pa.array([r[3] for r in rows], type=pa.int64()),
        "n_common": pa.array([r[4] for r in rows], type=pa.int64()),
        "jaccard_e4": pa.array([r[5] for r in rows], type=pa.int64()),
    })


def _gram_strings(col, n: int) -> pa.Array:
    """All order-n token windows of every text as ' '-joined strings —
    one vectorized binary_join_element_wise over n shifted takes."""
    flat, offsets = _tokens_of(col)
    lens = np.diff(offsets)
    n_g = np.maximum(lens - n + 1, 0)
    total = int(n_g.sum())
    if total == 0:
        return pa.array([], type=pa.string())
    ends = np.cumsum(n_g)
    starts = np.repeat(offsets[:-1], n_g) \
        + (np.arange(total, dtype=np.int64)
           - np.repeat(ends - n_g, n_g))
    parts = [flat.take(pa.array(starts + j)) for j in range(n)]
    return pc.binary_join_element_wise(*parts, " ").cast(pa.string())


def top_ngrams(ds, text_col: str = "text", *, n: int = 5, k: int = 50,
               num_partitions: int = 8):
    """Most frequent order-n token windows across the corpus, exact
    occurrence counts — the memorized-boilerplate / template-span
    report. Per-block count combiner -> gram-keyed fold -> mergeable
    global top-k by (count desc, gram asc); the shuffle carries one
    row per (block, distinct gram), never positions."""
    from .context import auto_partitions
    from .relational import top_k

    _empty = pa.table({"ngram": pa.array([], type=pa.string()),
                       "n_occurrences": pa.array([], type=pa.int64())})

    def partial(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return _empty
        grams = _gram_strings(b.column(text_col), n)
        if len(grams) == 0:
            return _empty
        g = pa.table({"ngram": grams}).group_by("ngram") \
            .aggregate([([], "count_all")])
        return pa.table({"ngram": g.column("ngram"),
                         "n_occurrences": g.column("count_all")
                        .cast(pa.int64())})

    def fold(b: pa.Table, _starts) -> pa.Table:
        g = b.group_by("ngram").aggregate([("n_occurrences", "sum")])
        return pa.table({"ngram": g.column("ngram").cast(pa.string()),
                         "n_occurrences": g.column("n_occurrences_sum")
                        .cast(pa.int64())})

    P = auto_partitions(ds.count(), 500_000, num_partitions)
    counts = keyed_fold(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["ngram"], fold, P, order_by=None)
    return top_k(counts, [("n_occurrences", "descending"),
                          ("ngram", "ascending")], k=k)


def novelty_scores(ds, id_col: str = "doc_id", text_col: str = "text",
                   *, n: int = 3, num_partitions: int = 8):
    """Per-document novelty: of the doc's DISTINCT order-n token
    windows, how many are corpus-FIRST (the minimum doc id holding the
    gram is this doc) — the contribution score selection-based curation
    ranks by (a doc whose grams all appeared earlier adds nothing).
    Returns (doc_id, n_total, n_new, novelty_ppm) with novelty_ppm =
    n_new * 1e6 // n_total (int64, IEEE-free).

    Shape: per-block doc-distinct (gram-hash, doc) rows -> gram-keyed
    shuffle with keep-min-doc fold (emits one (first_doc, 1) partial
    per gram) -> doc-keyed sum; totals fold from the same distinct rows
    on the doc key; one keyed join + single integer division. Gram
    identity is the 64-bit murmur of the ' '-joined window (the same
    collision-negligible discipline as dup_span_rewrite).
    """
    from .context import auto_partitions
    from .join import hash_join

    _ROWS = pa.schema([("gh", pa.uint64()), ("doc", pa.int64())])

    def gram_rows(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return _ROWS.empty_table()
        flat, offsets = _tokens_of(b.column(text_col))
        lens = np.diff(offsets)
        n_g = np.maximum(lens - n + 1, 0)
        total = int(n_g.sum())
        if total == 0:
            return _ROWS.empty_table()
        ends = np.cumsum(n_g)
        starts = np.repeat(offsets[:-1], n_g) \
            + (np.arange(total, dtype=np.int64)
               - np.repeat(ends - n_g, n_g))
        parts = [flat.take(pa.array(starts + j)) for j in range(n)]
        grams = pc.binary_join_element_wise(*parts, " ").cast(pa.string())
        doc_of = np.repeat(
            b.column(id_col).to_numpy(zero_copy_only=False), n_g)
        h1, _ = hash_strings(grams)
        t = pa.table({"gh": pa.array(h1, type=pa.uint64()),
                      "doc": pa.array(doc_of)})
        return t.group_by(["gh", "doc"]).aggregate([])

    P = auto_partitions(ds.count(), 500_000, num_partitions)
    rows = (ds.map_batches(gram_rows, batch_format="pyarrow",
                           zero_copy_batch=True)
            .materialize())

    _TOT = pa.schema([("doc_id", pa.int64()), ("n_total", pa.int64())])

    def tot_fold(b: pa.Table, _starts) -> pa.Table:
        # global doc-distinct grams arrive co-located on the doc key;
        # in-block (gh, doc) dedup finishes the cross-block distinct
        d = b.group_by(["gh", "doc"]).aggregate([])
        g = d.group_by("doc").aggregate([([], "count_all")])
        return pa.table({"doc_id": g.column("doc"),
                         "n_total": g.column("count_all").cast(pa.int64())})

    totals = keyed_fold(rows, ["doc"], tot_fold, P, order_by=None)

    _NEW = pa.schema([("doc", pa.int64()), ("k", pa.int64())])

    def first_fold(b: pa.Table, _starts) -> pa.Table:
        g = b.group_by("gh").aggregate([("doc", "min")])
        f = g.column("doc_min")
        t = pa.table({"doc": f}).group_by("doc").aggregate(
            [([], "count_all")])
        return pa.table({"doc": t.column("doc"),
                         "k": t.column("count_all").cast(pa.int64())})

    def new_fold(b: pa.Table, _starts) -> pa.Table:
        g = b.group_by("doc").aggregate([("k", "sum")])
        return pa.table({"doc_id": g.column("doc"),
                         "n_new": g.column("k_sum").cast(pa.int64())})

    news = keyed_fold(
        keyed_fold(rows, ["gh"], first_fold, P, order_by=None),
        ["doc"], new_fold, max(P // 2, 1), order_by=None)

    joined = hash_join(totals, news, on=("doc_id", "doc_id"),
                       num_partitions=P, join_type="left outer")

    _OUT = pa.schema([("doc_id", pa.int64()), ("n_total", pa.int64()),
                      ("n_new", pa.int64()), ("novelty_ppm", pa.int64())])

    def finish(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return _OUT.empty_table()
        tot = b.column("n_total").to_numpy(zero_copy_only=False)
        nn = pc.fill_null(b.column("n_new"), 0).cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": b.column("doc_id"),
            "n_total": pa.array(tot),
            "n_new": pa.array(nn),
            "novelty_ppm": pa.array(nn * 1_000_000 // tot),
        })

    return joined.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


def bpe_apply_word(word: str, merges) -> int:
    """Number of BPE symbols the learned merge list leaves in ``word``
    — merges applied in rank order, left-to-right non-overlapping,
    exactly mirroring the trainer's ``_bpe_merge_loop`` semantics."""
    syms = list(word)
    for left, right in merges:
        if len(syms) < 2:
            break
        out = []
        i = 0
        n = len(syms)
        while i < n:
            if i + 1 < n and syms[i] == left and syms[i + 1] == right:
                out.append(left + right)
                i += 2
            else:
                out.append(syms[i])
                i += 1
        syms = out
    return len(syms)


class BpeEncodeStage:
    """Actor-pool tokenizer application: count the BPE tokens each doc
    encodes to under a learned merge table (the fertility /
    sequence-length planning pass every tokenizer change re-runs over
    the corpus).

    The merge list ships once via ``ray.put`` and is fetched in
    ``__init__`` (once per actor, never per batch). Each batch
    dictionary-encodes its token stream, so the (Python, but
    merge-bounded) encoder runs once per DISTINCT word and the per-doc
    counts come from one vectorized bincount over the code stream —
    the distinct-word cache persists across batches for the actor's
    lifetime, so a Zipf-shaped corpus pays the encode cost roughly
    once per vocabulary word per actor.
    """

    def __init__(self, merges_ref, id_col: str = "doc_id",
                 text_col: str = "text"):
        import ray

        self.merges = [tuple(m) for m in ray.get(merges_ref)]
        self.id_col = id_col
        self.text_col = text_col
        self.cache: dict[str, int] = {}
        self._out = pa.schema([
            (id_col, pa.int64()), ("n_words", pa.int64()),
            ("n_bpe_tokens", pa.int64())])

    def __call__(self, b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return self._out.empty_table()
        flat, offsets = _tokens_of(b.column(self.text_col))
        n_docs = len(offsets) - 1
        n_words = np.diff(offsets)
        if len(flat) == 0:
            zero = np.zeros(n_docs, dtype=np.int64)
            return pa.table({
                self.id_col: b.column(self.id_col).cast(pa.int64()),
                "n_words": pa.array(zero),
                "n_bpe_tokens": pa.array(zero)})
        d = pc.dictionary_encode(flat)
        if isinstance(d, pa.ChunkedArray):
            d = d.combine_chunks()
        vocab = d.dictionary.to_pylist()
        cache = self.cache
        merges = self.merges
        n_sub = np.fromiter(
            (cache.get(w) or cache.setdefault(w, bpe_apply_word(w, merges))
             for w in vocab),
            dtype=np.int64, count=len(vocab))
        codes = d.indices.to_numpy(zero_copy_only=False)
        doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), n_words)
        totals = np.bincount(doc_of, weights=n_sub[codes].astype(np.float64),
                             minlength=n_docs).astype(np.int64)
        return pa.table({
            self.id_col: b.column(self.id_col).cast(pa.int64()),
            "n_words": pa.array(n_words.astype(np.int64)),
            "n_bpe_tokens": pa.array(totals)})


def bpe_encode_stats(ds, merges_tbl: pa.Table, *, id_col: str = "doc_id",
                     text_col: str = "text", concurrency=None,
                     batch_size: int = 2048):
    """Apply a learned BPE merge table to the corpus and return
    (id, n_words, n_bpe_tokens) per document. ``merges_tbl`` is the
    output of ``bpe_learn_merges`` (rank-ordered)."""
    import ray

    merges = list(zip(merges_tbl.column("left").to_pylist(),
                      merges_tbl.column("right").to_pylist()))
    ref = ray.put(merges)
    if concurrency is None:
        n_cpu = int(ray.cluster_resources().get("CPU", 4))
        concurrency = (1, max(2, n_cpu))
    return ds.select_columns([id_col, text_col]).map_batches(
        BpeEncodeStage, fn_constructor_args=(ref, id_col, text_col),
        batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size, concurrency=concurrency)
