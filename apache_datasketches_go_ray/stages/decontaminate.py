"""Eval-set decontamination: flag training docs that share any token
n-gram with an eval corpus.

Every production training-data pipeline runs this before training: a
train document that contains a verbatim 13-gram from an evaluation set
leaks the benchmark. Semantics here are the standard n-gram overlap
rule (as popularized by the GPT-3 / PaLM decontamination appendices):

  contaminated(d) <=> exists a length-n token window of d that appears
                      as a length-n token window of ANY eval document.

Distribution shape: the eval corpus is orders of magnitude smaller than
the training corpus (benchmarks are thousands of docs; training sets
are billions), so its distinct n-gram hash set is computed once,
sorted, ``ray.put`` once, and probed per training batch with
``np.searchsorted`` — a pure map over the training side, NO shuffle of
the 100 TB corpus. The hash substrate is the flagship's parity-pinned
one: murmur3-128(seed 9001) token hashes + fmix64-fold window hashes
(functions/shingle.py; reference hashing discipline
hll/hll_sketch.go:338-343), so a gram collides across docs iff the
token sequence is identical (modulo a 2^-64 hash collision).

Docs with fewer than n tokens cannot contain an n-gram and are never
flagged (mirrors the SQL oracle's ``len(toks) >= n`` guard).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from .arrow_util import as_array
from ..functions.shingle import shingle_hashes, tokenize_column
from .keyed import keyed_fold, np_col, segment_ends


def _doc_ngram_hashes(texts, n: int):
    """Texts -> (flat sorted-unique gram hashes, per-doc offsets, kept
    doc mask). Only docs with >= n tokens contribute (strict-length
    n-grams; no short-doc padding)."""
    tok, offs = tokenize_column(texts)
    lens = np.diff(offs)
    keep = lens >= n
    if not keep.any():
        return (np.empty(0, dtype=np.uint64),
                np.zeros(1, dtype=np.int64), keep)
    doc_of_tok = np.repeat(np.arange(len(lens)), lens)
    flat = tok[keep[doc_of_tok]]
    offs_k = np.concatenate(([0], np.cumsum(lens[keep]))).astype(np.int64)
    hashes, d_offs = shingle_hashes(flat, offs_k, n)
    return hashes, d_offs, keep


def eval_ngram_hashes(eval_ds, n: int = 13, text_col: str = "text",
                      max_hashes: int = 200_000_000) -> np.ndarray:
    """Distinct n-gram hash set of the eval corpus, sorted uint64.

    Streams the eval side once; each block emits its sorted-unique gram
    hashes and the driver unions them (bounded by the eval corpus's
    distinct-gram count — eval sets are small by definition; the
    ``max_hashes`` guard turns a mis-pointed "eval" table into a loud
    error instead of a driver OOM)."""

    def block_hashes(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table({"h": pa.array([], type=pa.uint64())})
        hashes, _offs, _keep = _doc_ngram_hashes(
            as_array(batch.column(text_col)), n)
        return pa.table({"h": pa.array(np.unique(hashes),
                                       type=pa.uint64())})

    from .context import gather_table

    tbl = gather_table(
        eval_ds.select_columns([text_col])
        .map_batches(block_hashes, batch_format="pyarrow",
                     zero_copy_batch=True),
        schema=pa.schema([("h", pa.uint64())]))
    out = np.unique(tbl.column("h").to_numpy(zero_copy_only=False))
    if len(out) > max_hashes:
        raise ValueError(
            f"eval corpus has {len(out)} distinct {n}-grams — too large "
            "to broadcast; is the eval side really the small side?")
    return out


def flag_contaminated(train_ds, eval_hashes: np.ndarray, n: int = 13,
                      id_col: str = "doc_id", text_col: str = "text",
                      keep_clean: bool = False):
    """Train docs -> (id, n_grams, n_hits, contaminated).

    ``n_hits`` counts the doc's DISTINCT n-grams found in the eval set.
    With ``keep_clean=False`` (default) only contaminated docs are
    emitted — the common report shape; ``keep_clean=True`` returns every
    doc with its flag, the shape a filter stage consumes."""
    ev_ref = ray.put(np.ascontiguousarray(eval_hashes, dtype=np.uint64))

    def flag(batch: pa.Table) -> pa.Table:
        empty = pa.table({
            id_col: pa.array([], type=batch.schema.field(id_col).type
                             if batch.num_columns else pa.int64()),
            "n_grams": pa.array([], type=pa.int64()),
            "n_hits": pa.array([], type=pa.int64()),
            "contaminated": pa.array([], type=pa.bool_()),
        })
        if len(batch) == 0:
            return empty
        ev = ray.get(ev_ref)
        hashes, d_offs, keep = _doc_ngram_hashes(
            as_array(batch.column(text_col)), n)
        n_grams_kept = np.diff(d_offs)
        if len(ev) and len(hashes):
            idx = np.searchsorted(ev, hashes)
            idx[idx >= len(ev)] = 0
            hit = ev[idx] == hashes
        else:
            hit = np.zeros(len(hashes), dtype=bool)
        doc_of_gram = np.repeat(np.arange(len(n_grams_kept)), n_grams_kept)
        hits_kept = np.bincount(doc_of_gram[hit],
                                minlength=len(n_grams_kept)) \
            if len(hashes) else np.zeros(len(n_grams_kept), dtype=np.int64)
        # scatter kept-doc stats back to the full batch
        n_docs = len(batch)
        n_grams = np.zeros(n_docs, dtype=np.int64)
        n_hits = np.zeros(n_docs, dtype=np.int64)
        kept_pos = np.flatnonzero(keep)
        n_grams[kept_pos] = n_grams_kept
        n_hits[kept_pos] = hits_kept
        out = pa.table({
            id_col: batch.column(id_col),
            "n_grams": pa.array(n_grams, type=pa.int64()),
            "n_hits": pa.array(n_hits, type=pa.int64()),
            "contaminated": pa.array(n_hits > 0),
        })
        if not keep_clean:
            out = out.filter(pa.array(n_hits > 0))
        return out

    return train_ds.select_columns([id_col, text_col]).map_batches(
        flag, batch_format="pyarrow", zero_copy_batch=True)


def decontaminate(train_ds, eval_ds, n: int = 13, id_col: str = "doc_id",
                  text_col: str = "text", keep_clean: bool = False):
    """One-call composition: eval hash set -> flagged train docs."""
    ev = eval_ngram_hashes(eval_ds, n=n, text_col=text_col)
    return flag_contaminated(train_ds, ev, n=n, id_col=id_col,
                             text_col=text_col, keep_clean=keep_clean)


def contamination_pairs(docs_ds, *, n: int = 13, id_col: str = "doc_id",
                        text_col: str = "text", eval_pct: int = 10,
                        num_partitions: int = 16,
                        max_df: int | None = None):
    """Contamination PROVENANCE: (train_doc, eval_doc, n_shared) for
    every train/eval pair sharing >= 1 distinct token n-gram — not
    just the flag, but which eval doc leaked into which train doc and
    how hard. Train/eval split is the deterministic Knuth doc-id rule
    (train_eval_split). Gram-keyed shuffle of (gram-hash, doc, side)
    rows -> in-block train x eval pair expansion (bounded per gram by
    its document frequency; pass ``max_df`` to skip stop-gram blowups
    at corpus scale — the oracle-matched default expands fully) ->
    pair-keyed count fold. Same 64-bit murmur gram substrate as
    flag_contaminated."""
    from .context import auto_partitions

    _empty_rows = pa.table({
        "h": pa.array([], type=pa.uint64()),
        "doc": pa.array([], type=pa.int64()),
        "is_eval": pa.array([], type=pa.bool_()),
    })
    _empty_pairs = pa.table({
        "train_doc": pa.array([], type=pa.int64()),
        "eval_doc": pa.array([], type=pa.int64()),
        "n_shared": pa.array([], type=pa.int64()),
    })

    def emit(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return _empty_rows
        ids = b.column(id_col).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        hashes, d_offs, keep = _doc_ngram_hashes(b.column(text_col), n)
        if len(hashes) == 0:
            return _empty_rows
        kept_ids = ids[keep]
        doc_of = np.repeat(kept_ids, np.diff(d_offs))
        # per-doc distinct grams (mirrors the oracle's list_distinct)
        order = np.lexsort((hashes, doc_of))
        d_s, h_s = doc_of[order], hashes[order]
        first = np.empty(len(d_s), dtype=bool)
        first[0] = True
        first[1:] = (d_s[1:] != d_s[:-1]) | (h_s[1:] != h_s[:-1])
        d_u, h_u = d_s[first], h_s[first]
        is_eval = ((d_u * 2654435761) % 4294967296) % 100 < eval_pct
        return pa.table({
            "h": pa.array(h_u, type=pa.uint64()),
            "doc": pa.array(d_u, type=pa.int64()),
            "is_eval": pa.array(is_eval),
        })

    def pairs_block(b: pa.Table, starts) -> pa.Table:
        doc, ev = np_col(b, "doc"), np_col(b, "is_eval")
        t_parts, e_parts = [], []
        for s, e in zip(starts, segment_ends(starts, len(b))):
            evm = ev[s:e]
            n_e = int(evm.sum())
            n_t = (e - s) - n_e
            if n_e == 0 or n_t == 0:
                continue
            if max_df is not None and (e - s) > max_df:
                continue
            tr = doc[s:e][~evm]
            ed = doc[s:e][evm]
            t_parts.append(np.repeat(tr, n_e))
            e_parts.append(np.tile(ed, n_t))
        if not t_parts:
            return _empty_pairs
        t = pa.table({
            "train_doc": pa.array(np.concatenate(t_parts),
                                  type=pa.int64()),
            "eval_doc": pa.array(np.concatenate(e_parts),
                                 type=pa.int64()),
        })
        g = t.group_by(["train_doc", "eval_doc"]).aggregate(
            [([], "count_all")])
        return pa.table({
            "train_doc": g.column("train_doc"),
            "eval_doc": g.column("eval_doc"),
            "n_shared": g.column("count_all").cast(pa.int64()),
        })

    def fold(b: pa.Table, _starts) -> pa.Table:
        g = b.group_by(["train_doc", "eval_doc"]).aggregate(
            [("n_shared", "sum")])
        return pa.table({
            "train_doc": g.column("train_doc").cast(pa.int64()),
            "eval_doc": g.column("eval_doc").cast(pa.int64()),
            "n_shared": g.column("n_shared_sum").cast(pa.int64()),
        })

    P = auto_partitions(docs_ds.count(), 500_000, num_partitions)
    pairs = keyed_fold(
        docs_ds.select_columns([id_col, text_col])
        .map_batches(emit, batch_format="pyarrow", zero_copy_batch=True),
        ["h"], pairs_block, P, order_by=["doc"])
    return keyed_fold(pairs, ["train_doc", "eval_doc"],
                      fold, P, order_by=None)


def semantic_decontaminate(train_ds, eval_ds, *, threshold: float = 0.4,
                           id_col: str = "vec_id",
                           emb_col: str = "embedding"):
    """Embedding-space eval-set decontamination (the semantic sibling of
    the 13-gram pass above): flag every training vector whose cosine
    similarity to ANY eval vector reaches ``threshold``. The eval
    matrix is L2-normalized once on the driver and broadcast via
    ``ray.put`` (read zero-copy per task); each training block is one
    vectorized matmul — no shuffle at all, so the op streams at read
    bandwidth at any corpus size (eval sets are small by definition).
    Returns (id, n_contaminating) for flagged rows only, counts exact
    int64."""
    from .ann import _embeddings_matrix
    from .arrow_util import as_array
    from .context import gather_table

    ev = gather_table(eval_ds)
    if len(ev) == 0 or emb_col not in ev.column_names:
        # empty eval corpora lose their schema through empty blocks;
        # either way the answer is "no contamination"
        em = np.zeros((0, 0))
    else:
        em = _embeddings_matrix(ev, emb_col).astype(np.float64)
    empty_eval = em.size == 0
    if not empty_eval:
        norms = np.linalg.norm(em, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        em = np.ascontiguousarray((em / norms).T)
    eval_ref = ray.put(em)

    def flag(batch: pa.Table) -> pa.Table:
        if len(batch) == 0 or empty_eval:
            return pa.table({
                id_col: pa.array([], type=pa.int64()),
                "n_contaminating": pa.array([], type=pa.int64()),
            })
        ids = as_array(batch.column(id_col)).to_numpy(
            zero_copy_only=False).astype(np.int64)
        m = _embeddings_matrix(batch, emb_col).astype(np.float64)
        n = np.linalg.norm(m, axis=1, keepdims=True)
        n[n == 0] = 1.0
        sims = (m / n) @ ray.get(eval_ref)
        cnt = (sims >= threshold).sum(axis=1).astype(np.int64)
        keep = cnt > 0
        return pa.table({
            id_col: pa.array(ids[keep]),
            "n_contaminating": pa.array(cnt[keep]),
        })

    return train_ds.map_batches(flag, batch_format="pyarrow",
                                zero_copy_batch=True)
