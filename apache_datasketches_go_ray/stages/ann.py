"""Approximate-nearest-neighbor search over an embedding column.

Baseline: brute-force cosine top-k — the query matrix is broadcast once
(``ray.put``), every block computes a vectorized partial top-k (numpy
matmul over the zero-copy Arrow batch), and only k rows per (query,
block) travel to the driver for the final fold. Scale path: LSH-bucketed
variant (random-hyperplane signs partition the corpus; only same-bucket
blocks are scanned).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from .arrow_util import as_array
from ..functions.murmur3 import fmix64
from .keyed import keyed_fold, np_col, segment_ends


def _embeddings_matrix(batch: pa.Table, col: str) -> np.ndarray:
    emb = as_array(batch.column(col))
    flat = emb.flatten().to_numpy(zero_copy_only=False).astype(np.float32)
    dim = len(flat) // max(len(batch), 1) if len(batch) else 0
    return flat.reshape(len(batch), dim) if len(batch) else np.zeros((0, 0))


class _BruteForcePartial:
    """Actor-pool stage: holds the broadcast query matrix; emits per-block
    partial top-k rows (query_id, vec_id, score)."""

    def __init__(self, queries_ref, k: int, id_col: str, emb_col: str):
        q = ray.get(queries_ref)
        self.q_ids = q["ids"]
        qm = q["matrix"].astype(np.float64)
        self.qn = qm / np.linalg.norm(qm, axis=1, keepdims=True)
        self.k = k
        self.id_col = id_col
        self.emb_col = emb_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = as_array(batch.column(self.id_col)).to_numpy(zero_copy_only=False)
        m = _embeddings_matrix(batch, self.emb_col).astype(np.float64)
        if m.size == 0:
            return pa.table({"query_id": pa.array([], type=pa.int64()),
                             "vec_id": pa.array([], type=pa.int64()),
                             "score": pa.array([], type=pa.float64())})
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        mn = m / norms
        scores = self.qn @ mn.T  # (nq, nblock)
        k = min(self.k, scores.shape[1])
        # partial top-k per query within this block — same np.repeat emit
        # as _KnnChunkScan, no Python row loop
        part = np.argpartition(-scores, k - 1, axis=1)[:, :k]
        rows = np.repeat(np.asarray(self.q_ids, dtype=np.int64), k)
        cols = part.reshape(-1)
        svals = scores[np.repeat(np.arange(scores.shape[0]), k), cols]
        return pa.table({"query_id": pa.array(rows, type=pa.int64()),
                         "vec_id": pa.array(ids[cols].astype(np.int64),
                                            type=pa.int64()),
                         "score": pa.array(svals, type=pa.float64())})


def brute_force_topk(ds, query_ids, query_matrix: np.ndarray, k: int = 10,
                     id_col: str = "vec_id", emb_col: str = "embedding",
                     round_to: int = 6) -> pa.Table:
    """Exact cosine top-k for each query vector. Deterministic tie-break
    (score desc, vec_id asc); scores rounded to ``round_to``."""
    ref = ray.put({"ids": np.asarray(query_ids),
                   "matrix": np.asarray(query_matrix)})
    n_cpu = int(ray.cluster_resources().get("CPU", 4))
    parts = ds.map_batches(
        _BruteForcePartial, fn_constructor_args=(ref, k, id_col, emb_col),
        batch_format="pyarrow", zero_copy_batch=True,
        concurrency=(1, max(2, n_cpu)),
    ).take_all()
    rows: dict[int, list] = {}
    for r in parts:
        rows.setdefault(r["query_id"], []).append((r["score"], r["vec_id"]))
    q_out, v_out, s_out, rank_out = [], [], [], []
    for qid in sorted(rows):
        cand = sorted(rows[qid], key=lambda t: (-t[0], t[1]))[:k]
        for rank, (s, v) in enumerate(cand):
            q_out.append(qid)
            v_out.append(v)
            s_out.append(round(s, round_to))
            rank_out.append(rank + 1)
    return pa.table({"query_id": pa.array(q_out, type=pa.int64()),
                     "vec_id": pa.array(v_out, type=pa.int64()),
                     "score": pa.array(s_out, type=pa.float64()),
                     "rank": pa.array(rank_out, type=pa.int64())})


def _hyperplanes(dim: int, n_planes: int, seed: int = 9001) -> np.ndarray:
    """Deterministic pseudo-random hyperplanes from the hash substrate."""
    raw = fmix64(np.arange(dim * n_planes, dtype=np.uint64)
                 + np.uint64(seed * 1000003))
    # map uint64 -> (-1, 1) floats
    vals = (raw.astype(np.float64) / 2**63) - 1.0
    return vals.reshape(n_planes, dim)


def lsh_bucket_embeddings(ds, n_planes: int = 12,
                          id_col: str = "vec_id", emb_col: str = "embedding",
                          seed: int = 9001):
    """Append an LSH bucket id (random-hyperplane sign bits) — the scale
    path for ANN / embedding near-dup: co-locate buckets with
    repartition(keys=['bucket']) and scan only within buckets."""
    state = {"planes": None}

    def add_bucket(batch: pa.Table) -> pa.Table:
        m = _embeddings_matrix(batch, emb_col)
        if m.size == 0:
            return batch.append_column(
                "bucket", pa.array([], type=pa.uint64()))
        if state["planes"] is None or state["planes"].shape[1] != m.shape[1]:
            state["planes"] = _hyperplanes(m.shape[1], n_planes, seed)
        signs = (m.astype(np.float64) @ state["planes"].T) > 0
        powers = (np.uint64(1) << np.arange(n_planes, dtype=np.uint64))
        bucket = (signs.astype(np.uint64) * powers).sum(axis=1,
                                                        dtype=np.uint64)
        return batch.append_column("bucket", pa.array(bucket,
                                                      type=pa.uint64()))

    return ds.map_batches(add_bucket, batch_format="pyarrow",
                          zero_copy_batch=True)


def embedding_near_dup_pairs(ds, threshold: float = 0.95, n_planes: int = 8,
                             id_col: str = "vec_id",
                             emb_col: str = "embedding",
                             num_partitions: int = 32,
                             round_to: int = 6):
    """Embedding-cosine near-duplicate pairs via LSH bucketing: vectors in
    the same hyperplane-sign bucket are compared exactly (vectorized
    matmul per bucket); pairs with cosine >= threshold are emitted.
    Recall is bucket-limited (the documented LSH tradeoff)."""
    bucketed = lsh_bucket_embeddings(ds, n_planes, id_col, emb_col)

    def fold(batch: pa.Table, starts) -> pa.Table:
        out_a, out_b, out_s = [], [], []
        ids = np_col(batch, id_col)
        m = _embeddings_matrix(batch, emb_col).astype(np.float64)
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        mn = m / norms
        for s, e in zip(starts, segment_ends(starts, len(batch))):
            if e - s < 2:
                continue
            sub = mn[s:e]
            sc = sub @ sub.T
            ii, jj = np.triu_indices(e - s, k=1)
            hits = sc[ii, jj] >= threshold
            for x, y, v in zip(ii[hits], jj[hits], sc[ii, jj][hits]):
                a, b = int(ids[s + x]), int(ids[s + y])
                if a > b:
                    a, b = b, a
                out_a.append(a)
                out_b.append(b)
                out_s.append(round(float(v), round_to))
        return pa.table({"id_a": pa.array(out_a, type=pa.int64()),
                         "id_b": pa.array(out_b, type=pa.int64()),
                         "cosine": pa.array(out_s, type=pa.float64())})

    return keyed_fold(bucketed, ["bucket"], fold, num_partitions)


def semantic_dedup(ds, threshold: float = 0.95, n_clusters: int = 16,
                   sample_size: int = 4096, id_col: str = "vec_id",
                   emb_col: str = "embedding", seed: int = 9001,
                   num_partitions: int = 16, chunk: int = 2048):
    """SemDeDup-style semantic deduplication (Abbas et al. 2023,
    arXiv:2303.09540 — public paper): cluster embeddings with a
    spherical k-means coarse quantizer trained on a bounded driver
    sample, shuffle rows by cluster id, then inside each cluster drop
    every member whose cosine similarity to a LOWER-ID member is
    >= threshold.

    Keep-min-id is order- and partition-independent (no greedy scan
    order to disagree about), mirroring the exact-dedup keep-first
    contract; the trade is that a chain a~b, b~c (a!~c) drops both b
    and c where sequential SemDeDup may keep c.

    Scale shape: the corpus streams through one assign pass (broadcast
    centroid matmul per batch) and one cluster-keyed shuffle; all
    pairwise work is cluster-local and the in-block similarity matmul
    is chunked (``chunk`` columns at a time), so per-task memory is
    O(cluster x chunk) not O(cluster^2). Cross-cluster near-dups are
    missed by construction — the documented SemDeDup recall trade.

    Returns (vec_id, cluster, keep): decisions for every row.
    """
    sample_tbl = ds.limit(sample_size).materialize().to_arrow_refs()
    sample = np.concatenate(
        [_embeddings_matrix(t, emb_col)
         for t in (ray.get(r) for r in sample_tbl) if len(t)])
    C = _spherical_kmeans(sample, n_clusters, seed=seed)

    def assign(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table({id_col: pa.array([], type=pa.int64()),
                             emb_col: batch.column(emb_col),
                             "cluster": pa.array([], type=pa.int64())})
        m = _embeddings_matrix(batch, emb_col).astype(np.float64)
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        cl = np.argmax((m / norms) @ C.T, axis=1).astype(np.int64)
        return pa.table({
            id_col: as_array(batch.column(id_col)).cast(pa.int64()),
            emb_col: as_array(batch.column(emb_col)),
            "cluster": pa.array(cl, type=pa.int64()),
        })

    def prune(batch: pa.Table, starts) -> pa.Table:
        ids = np_col(batch, id_col).astype(np.int64)
        cl = np_col(batch, "cluster").astype(np.int64)
        m = _embeddings_matrix(batch, emb_col).astype(np.float64)
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        mn = m / norms
        keep = np.ones(len(batch), dtype=bool)
        for s, e in zip(starts, segment_ends(starts, len(batch))):
            if e - s < 2:
                continue
            sub = mn[s:e]              # ascending id within cluster
            for c0 in range(1, e - s, chunk):
                c1 = min(c0 + chunk, e - s)
                # cols c0:c1 vs all strictly-lower rows
                sims = sub[:c1] @ sub[c0:c1].T
                rows = np.arange(c1)[:, None]
                cols = np.arange(c0, c1)[None, :]
                dup = ((sims >= threshold) & (rows < cols)).any(axis=0)
                keep[s + c0:s + c1][dup] = False
        return pa.table({
            id_col: pa.array(ids, type=pa.int64()),
            "cluster": pa.array(cl, type=pa.int64()),
            "keep": pa.array(keep),
        })

    return keyed_fold(
        ds.map_batches(assign, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["cluster"], prune, num_partitions, order_by=[id_col])


class _LshTopkPartial:
    """Partial top-k against only the corpus rows whose LSH bucket is in
    the query's multi-probe set (own bucket + all hamming-1 flips)."""

    def __init__(self, queries_ref, k: int, id_col: str, emb_col: str,
                 n_planes: int, seed: int):
        q = ray.get(queries_ref)
        self.q_ids = q["ids"]
        qm = q["matrix"].astype(np.float64)
        self.qn = qm / np.linalg.norm(qm, axis=1, keepdims=True)
        self.k = k
        self.id_col = id_col
        self.emb_col = emb_col
        planes = _hyperplanes(qm.shape[1], n_planes, seed)
        signs = (self.qn @ planes.T) > 0
        powers = (np.uint64(1) << np.arange(n_planes, dtype=np.uint64))
        own = (signs.astype(np.uint64) * powers).sum(axis=1, dtype=np.uint64)
        # probe set per query: own bucket + flip each plane bit
        probe = [own]
        for p in range(n_planes):
            probe.append(own ^ (np.uint64(1) << np.uint64(p)))
        self.probes = np.stack(probe, axis=1)  # (nq, n_planes+1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .arrow_util import as_array

        empty = pa.table({"query_id": pa.array([], type=pa.int64()),
                          "vec_id": pa.array([], type=pa.int64()),
                          "score": pa.array([], type=pa.float64())})
        if len(batch) == 0:
            return empty
        ids = as_array(batch.column(self.id_col)).to_numpy(
            zero_copy_only=False)
        bucket = as_array(batch.column("bucket")).to_numpy(
            zero_copy_only=False)
        m = _embeddings_matrix(batch, self.emb_col).astype(np.float64)
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        mn = m / norms
        q_parts, v_parts, s_parts = [], [], []
        for qi in range(len(self.q_ids)):
            mask = np.isin(bucket, self.probes[qi])
            if not mask.any():
                continue
            sub = mn[mask]
            sub_ids = ids[mask]
            sc = self.qn[qi] @ sub.T
            k = min(self.k, len(sc))
            part = np.argpartition(-sc, k - 1)[:k]
            q_parts.append(np.full(k, self.q_ids[qi], dtype=np.int64))
            v_parts.append(sub_ids[part].astype(np.int64))
            s_parts.append(sc[part])
        if not q_parts:
            return empty
        return pa.table({
            "query_id": pa.array(np.concatenate(q_parts)),
            "vec_id": pa.array(np.concatenate(v_parts)),
            "score": pa.array(np.concatenate(s_parts).astype(np.float64)),
        })


def lsh_topk(ds, query_ids, query_matrix: np.ndarray, k: int = 10,
             n_planes: int = 8, id_col: str = "vec_id",
             emb_col: str = "embedding", seed: int = 9001,
             round_to: int = 6) -> pa.Table:
    """Approximate cosine top-k: the scale path. The corpus is bucketed by
    hyperplane signs once; each query scans only its multi-probe buckets
    (own + hamming-1), ~ (n_planes+1)/2^n_planes of the corpus instead of
    all of it. Deterministic tie-break like brute_force_topk."""
    bucketed = lsh_bucket_embeddings(ds, n_planes, id_col, emb_col, seed)
    ref = ray.put({"ids": np.asarray(query_ids),
                   "matrix": np.asarray(query_matrix)})
    n_cpu = int(ray.cluster_resources().get("CPU", 4))
    parts = bucketed.map_batches(
        _LshTopkPartial,
        fn_constructor_args=(ref, k, id_col, emb_col, n_planes, seed),
        batch_format="pyarrow", zero_copy_batch=True,
        concurrency=(1, max(2, n_cpu)),
    ).take_all()
    return _fold_topk(parts, k, round_to)


# ---------------------------------------------------------------------------
# IVF (inverted-file) variant: spherical k-means coarse quantizer
# ---------------------------------------------------------------------------

def _spherical_kmeans(sample: np.ndarray, n_clusters: int,
                      n_iter: int = 10, seed: int = 9001) -> np.ndarray:
    """Deterministic spherical k-means over a driver-side sample: unit
    centroids maximizing cosine similarity (fixed seed + fixed iteration
    count, so the index is a pure function of the data)."""
    X = sample.astype(np.float64)
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    X = X / norms
    rng = np.random.default_rng(seed)
    n_clusters = min(n_clusters, len(X))
    idx = rng.choice(len(X), size=n_clusters, replace=False)
    C = X[np.sort(idx)].copy()
    for _ in range(n_iter):
        assign = np.argmax(X @ C.T, axis=1)
        for j in range(n_clusters):
            m = assign == j
            if m.any():
                v = X[m].sum(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    C[j] = v / n
    return C


class _IvfTopkPartial:
    """Partial top-k against only the corpus rows assigned to one of the
    query's n_probe nearest centroids. Centroids + query probe lists are
    broadcast once; per batch the assignment is one matmul."""

    def __init__(self, index_ref, k: int, id_col: str, emb_col: str):
        q = ray.get(index_ref)
        self.q_ids = q["ids"]
        self.qn = q["qn"]
        self.C = q["centroids"]
        self.probes = q["probes"]  # (nq, n_probe) centroid ids
        self.k = k
        self.id_col = id_col
        self.emb_col = emb_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .arrow_util import as_array

        empty = pa.table({"query_id": pa.array([], type=pa.int64()),
                          "vec_id": pa.array([], type=pa.int64()),
                          "score": pa.array([], type=pa.float64())})
        if len(batch) == 0:
            return empty
        ids = as_array(batch.column(self.id_col)).to_numpy(
            zero_copy_only=False)
        m = _embeddings_matrix(batch, self.emb_col).astype(np.float64)
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        mn = m / norms
        assign = np.argmax(mn @ self.C.T, axis=1)
        q_parts, v_parts, s_parts = [], [], []
        for qi in range(len(self.q_ids)):
            mask = np.isin(assign, self.probes[qi])
            if not mask.any():
                continue
            sub = mn[mask]
            sub_ids = ids[mask]
            sc = self.qn[qi] @ sub.T
            k = min(self.k, len(sc))
            part = np.argpartition(-sc, k - 1)[:k]
            q_parts.append(np.full(k, self.q_ids[qi], dtype=np.int64))
            v_parts.append(sub_ids[part].astype(np.int64))
            s_parts.append(sc[part])
        if not q_parts:
            return empty
        return pa.table({
            "query_id": pa.array(np.concatenate(q_parts)),
            "vec_id": pa.array(np.concatenate(v_parts)),
            "score": pa.array(np.concatenate(s_parts).astype(np.float64)),
        })


def _fold_topk(parts, k: int, round_to: int) -> pa.Table:
    """Driver-side final fold of per-block partial top-k rows (at most
    k rows per (query, block) arrive)."""
    rows: dict[int, list] = {}
    for r in parts:
        rows.setdefault(r["query_id"], []).append((r["score"], r["vec_id"]))
    q_out, v_out, s_out, rank_out = [], [], [], []
    for qid in sorted(rows):
        cand = sorted(rows[qid], key=lambda t: (-t[0], t[1]))[:k]
        for rank, (s, v) in enumerate(cand):
            q_out.append(qid)
            v_out.append(v)
            s_out.append(round(s, round_to))
            rank_out.append(rank + 1)
    return pa.table({"query_id": pa.array(q_out, type=pa.int64()),
                     "vec_id": pa.array(v_out, type=pa.int64()),
                     "score": pa.array(s_out, type=pa.float64()),
                     "rank": pa.array(rank_out, type=pa.int64())})


def ivf_topk(ds, query_ids, query_matrix: np.ndarray, k: int = 10,
             n_clusters: int = 16, n_probe: int = 4,
             sample_size: int = 4096, id_col: str = "vec_id",
             emb_col: str = "embedding", seed: int = 9001,
             round_to: int = 6,
             centroids: np.ndarray | None = None) -> pa.Table:
    """IVF approximate cosine top-k: the second ANN scale path.

    A deterministic driver-side sample trains a spherical k-means coarse
    quantizer; each query scans only its n_probe nearest cells
    (~n_probe/n_clusters of the corpus). Corpus cell assignment happens
    inside the scan batch (one matmul) — the corpus is never reshuffled,
    so building + querying the index is one streaming pass. Pass
    ``centroids`` (k x dim, e.g. from embops.kmeans_fit's exact
    distributed Lloyd) to skip the sample training — the full-corpus
    quantizer for skewed corpora a bounded sample can't represent."""
    if centroids is not None:
        C = np.asarray(centroids, dtype=np.float64)
        norms = np.linalg.norm(C, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        C = C / norms
    else:
        sample_tbl = ds.limit(sample_size).materialize().to_arrow_refs()
        sample_parts = [_embeddings_matrix(t, emb_col)
                        for t in (ray.get(r) for r in sample_tbl)
                        if len(t)]
        if not sample_parts:
            return _fold_topk([], k, round_to)  # empty corpus
        sample = np.concatenate(sample_parts)
        C = _spherical_kmeans(sample, n_clusters, seed=seed)
    qm = np.asarray(query_matrix, dtype=np.float64)
    qn = qm / np.linalg.norm(qm, axis=1, keepdims=True)
    order = np.argsort(-(qn @ C.T), axis=1, kind="stable")
    probes = order[:, :min(n_probe, C.shape[0])]
    ref = ray.put({"ids": np.asarray(query_ids), "qn": qn,
                   "centroids": C, "probes": probes})
    n_cpu = int(ray.cluster_resources().get("CPU", 4))
    parts = ds.map_batches(
        _IvfTopkPartial, fn_constructor_args=(ref, k, id_col, emb_col),
        batch_format="pyarrow", zero_copy_batch=True,
        concurrency=(1, max(2, n_cpu)),
    ).take_all()
    return _fold_topk(parts, k, round_to)


class _KnnChunkScan:
    """Actor-pool stage for knn_join: holds the staged query chunks
    (plasma zero-copy — one physical copy per node, shared across the
    pool) and emits k rows per (query, corpus block)."""

    def __init__(self, chunk_refs, k: int, id_col: str, emb_col: str):
        # Keep only the refs: chunks are ray.get-ed one at a time inside
        # __call__ (zero-copy plasma view while scanning, released after),
        # so per-task residency really is O(chunk + block) — pinning all
        # chunks here would reintroduce the full per-node query footprint
        # the chunking exists to avoid.
        self.chunk_refs = list(chunk_refs)
        self.k = k
        self.id_col = id_col
        self.emb_col = emb_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = as_array(batch.column(self.id_col)) \
            .to_numpy(zero_copy_only=False)
        m = _embeddings_matrix(batch, self.emb_col).astype(np.float64)
        if m.size == 0:
            return pa.table({"query_id": pa.array([], type=pa.int64()),
                             "vec_id": pa.array([], type=pa.int64()),
                             "score": pa.array([], type=pa.float64())})
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        mn = m / norms
        q_out, v_out, s_out = [], [], []
        for ref in self.chunk_refs:
            q_ids, qn = ray.get(ref)
            scores = qn @ mn.T  # (chunk, block)
            k = min(self.k, scores.shape[1])
            part = np.argpartition(-scores, k - 1, axis=1)[:, :k]
            rows = np.repeat(q_ids, k)
            cols = part.reshape(-1)
            q_out.append(rows)
            v_out.append(ids[cols])
            s_out.append(scores[np.repeat(np.arange(len(q_ids)), k), cols])
        return pa.table({
            "query_id": pa.array(np.concatenate(q_out), type=pa.int64()),
            "vec_id": pa.array(np.concatenate(v_out), type=pa.int64()),
            "score": pa.array(np.concatenate(s_out), type=pa.float64()),
        })


def _knn_fold(batch: pa.Table, k: int, dedup_pairs: bool = False) -> pa.Table:
    """Per-query global top-k from co-located block partials:
    (score desc, vec_id asc) rank, scores dropped (rank is exact,
    raw floats are cross-engine-parity risk). ``dedup_pairs`` drops
    duplicate (query, vec) rows first (multi-table LSH emits the same
    pair once per shared table — identical score, so duplicates are
    adjacent after the sort)."""
    if len(batch) == 0:
        return pa.table({"query_id": pa.array([], type=pa.int64()),
                         "vec_id": pa.array([], type=pa.int64()),
                         "rank": pa.array([], type=pa.int64())})
    q = batch.column("query_id").to_numpy(zero_copy_only=False)
    v = batch.column("vec_id").to_numpy(zero_copy_only=False)
    s = batch.column("score").to_numpy(zero_copy_only=False)
    order = np.lexsort((v, -s, q))  # by query, score desc, vec_id asc
    q, v = q[order], v[order]
    if dedup_pairs and len(q) > 1:
        keep_pair = np.ones(len(q), dtype=bool)
        keep_pair[1:] = (q[1:] != q[:-1]) | (v[1:] != v[:-1])
        q, v = q[keep_pair], v[keep_pair]
    first = np.ones(len(q), dtype=bool)
    first[1:] = q[1:] != q[:-1]
    # rank within query = position - segment start
    seg_start = np.maximum.accumulate(np.where(first, np.arange(len(q)), 0))
    rank = np.arange(len(q)) - seg_start + 1
    keep = rank <= k
    return pa.table({"query_id": pa.array(q[keep], type=pa.int64()),
                     "vec_id": pa.array(v[keep], type=pa.int64()),
                     "rank": pa.array(rank[keep], type=pa.int64())})


def knn_join(corpus_ds, query_ds, k: int = 10,
             id_col: str = "vec_id", emb_col: str = "embedding",
             chunk_rows: int = 4096, num_partitions: int = 16):
    """Exact cosine top-k with BOTH sides as Datasets — the
    large-query-side path ``brute_force_topk`` (one broadcast matrix)
    cannot take. The query side is staged into bounded chunks in the
    object store (``ray.put`` per chunk); every corpus block scans the
    chunks sequentially — plasma keeps ONE physical copy per node —
    emitting k rows per (query, block); a query-keyed shuffle folds the
    block partials into the global top-k with a deterministic
    (score desc, vec_id asc) tie-break. Compute is inherently O(Q*N*d);
    memory is O(chunk + block) per task, driver state is O(#chunks)
    refs. Returns (query_id, vec_id, rank)."""
    refs = []
    for blk in query_ds.select_columns([id_col, emb_col]).iter_batches(
            batch_size=chunk_rows, batch_format="pyarrow"):
        if len(blk) == 0:
            continue
        ids = as_array(blk.column(id_col)).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        qm = _embeddings_matrix(blk, emb_col).astype(np.float64)
        qn = qm / np.maximum(np.linalg.norm(qm, axis=1, keepdims=True),
                             1e-30)
        refs.append(ray.put((ids, qn)))
    if not refs:
        return corpus_ds.map_batches(
            lambda b: pa.table({"query_id": pa.array([], type=pa.int64()),
                                "vec_id": pa.array([], type=pa.int64()),
                                "rank": pa.array([], type=pa.int64())}),
            batch_format="pyarrow", zero_copy_batch=True)
    n_cpu = int(ray.cluster_resources().get("CPU", 4))
    return keyed_fold(
        corpus_ds.map_batches(
            _KnnChunkScan, fn_constructor_args=(refs, k, id_col, emb_col),
            batch_format="pyarrow", zero_copy_batch=True,
            concurrency=(1, max(2, n_cpu))),
        ["query_id"], lambda b, _starts: _knn_fold(b, k=k),
        num_partitions, order_by=None)


def _bucket_exploded(batch: pa.Table, tables_planes, id_col: str,
                     emb_col: str, tag: int) -> pa.Table:
    """Explode each row into one (key, id, embedding-bytes) row per hash
    table; key folds (table_id, sign-bucket) into one uint64."""
    ids = as_array(batch.column(id_col)).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    m = _embeddings_matrix(batch, emb_col).astype(np.float64)
    n = len(ids)
    if n == 0:
        return pa.table({"key": pa.array([], type=pa.uint64()),
                         "rid": pa.array([], type=pa.int64()),
                         "emb": pa.array([], type=pa.large_binary()),
                         "tag": pa.array([], type=pa.int8())})
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    mn = np.ascontiguousarray(m / norms)
    n_tables = len(tables_planes)
    keys = []
    for t, planes in enumerate(tables_planes):
        signs = (mn @ planes.T) > 0
        powers = (np.uint64(1) << np.arange(planes.shape[0],
                                            dtype=np.uint64))
        bucket = (signs.astype(np.uint64) * powers).sum(axis=1,
                                                        dtype=np.uint64)
        salt = np.uint64(((t + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
        keys.append(fmix64(bucket ^ salt))
    # One C-level byte image of the normalized matrix, wrapped as a
    # fixed-width large_binary via arithmetic offsets (the
    # signature.py:59-63 pattern — no per-row tobytes()). The
    # n_tables-fold replication is a single vectorized take() gather
    # (Arrow offsets must be monotone, so tiling offsets into the same
    # buffer isn't representable) — the documented space-for-recall
    # LSH trade.
    width = mn.shape[1] * 8
    data_buf = pa.py_buffer(mn.tobytes())
    base = pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), n,
        [None,
         pa.py_buffer((np.arange(n + 1, dtype=np.int64)
                       * width).tobytes()),
         data_buf],
    )
    emb_col_arr = (base if n_tables == 1 else
                   base.take(pa.array(np.tile(np.arange(n, dtype=np.int64),
                                              n_tables))))
    return pa.table({
        "key": pa.array(np.concatenate(keys), type=pa.uint64()),
        "rid": pa.array(np.tile(ids, n_tables), type=pa.int64()),
        "emb": emb_col_arr,
        "tag": pa.array(np.full(n * n_tables, tag, dtype=np.int8)),
    })


def _bucket_knn_block(batch: pa.Table, k: int) -> pa.Table:
    """Co-located (table, bucket) groups: exact cosine top-k of the
    bucket's queries against the bucket's corpus vectors."""
    empty = pa.table({"query_id": pa.array([], type=pa.int64()),
                      "vec_id": pa.array([], type=pa.int64()),
                      "score": pa.array([], type=pa.float64())})
    if len(batch) == 0:
        return empty
    key = batch.column("key").to_numpy(zero_copy_only=False)
    tag = batch.column("tag").to_numpy(zero_copy_only=False)
    rid = batch.column("rid").to_numpy(zero_copy_only=False)
    emb = as_array(batch.column("emb"))
    # fixed-width large_binary -> one float64 matrix view over the value
    # buffer (offsets math only; no per-row .as_py()/frombuffer)
    n_rows = len(emb)
    offs = np.frombuffer(emb.buffers()[1], dtype=np.int64)[
        emb.offset: emb.offset + n_rows + 1]
    width = int(offs[1] - offs[0]) // 8
    if np.any(np.diff(offs) != width * 8):
        raise ValueError("emb column is not fixed-width — layout changed")
    vals = np.frombuffer(emb.buffers()[2], dtype=np.float64)
    allm = vals[offs[0] // 8: offs[0] // 8 + n_rows * width] \
        .reshape(n_rows, width)
    order = np.argsort(key, kind="stable")
    key_s = key[order]
    first = np.ones(len(key_s), dtype=bool)
    first[1:] = key_s[1:] != key_s[:-1]
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], len(key_s))
    q_out, v_out, s_out = [], [], []
    for s0, e0 in zip(starts, ends):
        seg = order[s0:e0]
        qsel = seg[tag[seg] == 0]
        csel = seg[tag[seg] == 1]
        if len(qsel) == 0 or len(csel) == 0:
            continue
        qm = allm[qsel]
        cm = allm[csel]
        scores = qm @ cm.T
        kk = min(k, scores.shape[1])
        part = np.argpartition(-scores, kk - 1, axis=1)[:, :kk]
        rows = np.repeat(rid[qsel], kk)
        cols = part.reshape(-1)
        q_out.append(rows)
        v_out.append(rid[csel][cols])
        s_out.append(scores[np.repeat(np.arange(len(qsel)), kk), cols])
    if not q_out:
        return empty
    return pa.table({
        "query_id": pa.array(np.concatenate(q_out), type=pa.int64()),
        "vec_id": pa.array(np.concatenate(v_out), type=pa.int64()),
        "score": pa.array(np.concatenate(s_out), type=pa.float64()),
    })


def lsh_knn_join(corpus_ds, query_ds, k: int = 10, n_planes: int = 6,
                 n_tables: int = 4,
                 id_col: str = "vec_id", emb_col: str = "embedding",
                 num_partitions: int = 16, seed: int = 9001):
    """Approximate dataset-to-dataset kNN — the scale path when Q*N
    exact (knn_join) is infeasible. Both sides are hashed into
    ``n_tables`` independent random-hyperplane sign buckets and
    co-partitioned on the (table, bucket) key; each bucket runs an
    exact cosine top-k of its queries against its corpus vectors; a
    query-keyed fold dedups multi-table pair hits and takes the global
    top-k. Recall is bucket-limited and grows with ``n_tables`` /
    shrinks with ``n_planes`` (documented LSH tradeoff; the recall
    pytest measures it against knn_join ground truth). Embeddings
    replicate n_tables times through the single shuffle — the classic
    space-for-recall LSH trade."""
    import functools

    # probe the dimension once (tiny take) to build the plane tables
    probe = corpus_ds.take(1)
    dim = len(probe[0][emb_col]) if probe else 0
    if dim == 0:
        return corpus_ds.map_batches(
            lambda b: pa.table({"query_id": pa.array([], type=pa.int64()),
                                "vec_id": pa.array([], type=pa.int64()),
                                "rank": pa.array([], type=pa.int64())}),
            batch_format="pyarrow", zero_copy_batch=True)
    tables = [_hyperplanes(dim, n_planes, seed + 7919 * t)
              for t in range(n_tables)]
    qb = query_ds.map_batches(
        functools.partial(_bucket_exploded, tables_planes=tables,
                          id_col=id_col, emb_col=emb_col, tag=0),
        batch_format="pyarrow", zero_copy_batch=True)
    cb = corpus_ds.map_batches(
        functools.partial(_bucket_exploded, tables_planes=tables,
                          id_col=id_col, emb_col=emb_col, tag=1),
        batch_format="pyarrow", zero_copy_batch=True)
    near = keyed_fold(qb.union(cb), ["key"],
                      lambda b, _starts: _bucket_knn_block(b, k=k),
                      num_partitions, order_by=None)
    return keyed_fold(near, ["query_id"],
                      lambda b, _starts: _knn_fold(b, k=k, dedup_pairs=True),
                      num_partitions, order_by=None)


def _pq_lloyd(X: np.ndarray, n_centroids: int, n_iter: int = 12,
              seed: int = 9001) -> np.ndarray:
    """Deterministic plain-L2 Lloyd k-means for one PQ subspace (fixed
    seed + iteration count; empty cells keep their previous centroid)."""
    rng = np.random.default_rng(seed)
    n_centroids = min(n_centroids, len(X))
    idx = rng.choice(len(X), size=n_centroids, replace=False)
    C = X[np.sort(idx)].astype(np.float64).copy()
    for _ in range(n_iter):
        d = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d, axis=1)
        for j in range(n_centroids):
            m = assign == j
            if m.any():
                C[j] = X[m].mean(axis=0)
    return C


def pq_train(sample: np.ndarray, n_subq: int = 8, n_centroids: int = 32,
             n_iter: int = 12, seed: int = 9001) -> np.ndarray:
    """Train product-quantization codebooks on a (normalized) sample:
    one independent k-means per contiguous subspace. Returns
    (n_subq, n_centroids, sub_dim) float64."""
    X = sample.astype(np.float64)
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    X = X / norms
    dim = X.shape[1]
    if dim % n_subq:
        raise ValueError(f"dim {dim} not divisible by n_subq {n_subq}")
    sd = dim // n_subq
    return np.stack([
        _pq_lloyd(X[:, s * sd:(s + 1) * sd], n_centroids, n_iter,
                  seed + s)
        for s in range(n_subq)
    ])


class _PqScanPartial:
    """Actor-pool stage for PQ top-k: holds codebooks + query LUTs.

    Per corpus block: encode each vector to n_subq uint8 codes (the
    16-32x memory compression that makes 100 TB embedding search fit in
    RAM — at scale the codes would be precomputed once and stored as a
    column), score ALL queries against the block via asymmetric-distance
    lookup-table sums, take an ADC shortlist of ``rerank`` candidates
    per query, and rerank the shortlist with EXACT cosine (the vectors
    are right there in the block) — so emitted partials carry exact
    scores and the driver fold is the same as brute force."""

    def __init__(self, ref, k: int, rerank: int, id_col: str,
                 emb_col: str):
        q = ray.get(ref)
        self.qn = q["qn"]                   # (nq, dim) unit queries
        self.q_ids = q["ids"]
        self.books = q["books"]             # (n_subq, C, sd)
        # LUT[q, s, c] = dot(query_sub, centroid)
        nq, dim = self.qn.shape
        n_subq, C, sd = self.books.shape
        self.lut = np.einsum(
            "qsd,scd->qsc",
            self.qn.reshape(nq, n_subq, sd), self.books)
        self._c2 = (self.books ** 2).sum(axis=2) / 2.0  # (n_subq, C)
        self.k = k
        self.rerank = rerank
        self.id_col = id_col
        self.emb_col = emb_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = as_array(batch.column(self.id_col)).to_numpy(
            zero_copy_only=False).astype(np.int64)
        m = _embeddings_matrix(batch, self.emb_col).astype(np.float64)
        if m.size == 0:
            return pa.table({
                "query_id": pa.array([], type=pa.int64()),
                "vec_id": pa.array([], type=pa.int64()),
                "score": pa.array([], type=pa.float64()),
            })
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        mn = m / norms
        n_subq, C, sd = self.books.shape
        nb = mn.shape[0]
        sub = mn.reshape(nb, n_subq, sd)
        # encode: per subspace argmin ||x - c||^2 = argmax(dot - ||c||^2/2)
        # as one (nb x sd)@(sd x C) matmul per subspace — no O(nb*C*sd)
        # pairwise-difference temporaries
        codes = np.empty((nb, n_subq), dtype=np.int64)
        for s in range(n_subq):
            codes[:, s] = np.argmax(
                sub[:, s, :] @ self.books[s].T - self._c2[s], axis=1)
        # ADC scores: (nq, nb)
        scores = np.zeros((self.lut.shape[0], nb))
        for s in range(n_subq):
            scores += self.lut[:, s, codes[:, s]]
        take = min(self.rerank, nb)
        short = np.argpartition(-scores, take - 1, axis=1)[:, :take]
        # exact rerank of the shortlist
        exact = np.einsum("qd,qtd->qt", self.qn, mn[short])
        kk = min(self.k, take)
        top = np.argpartition(-exact, kk - 1, axis=1)[:, :kk]
        rows_q = np.repeat(self.q_ids, kk)
        rows_v = ids[np.take_along_axis(short, top, axis=1)].ravel()
        rows_s = np.take_along_axis(exact, top, axis=1).ravel()
        return pa.table({
            "query_id": pa.array(rows_q),
            "vec_id": pa.array(rows_v),
            "score": pa.array(rows_s),
        })


def pq_topk(ds, query_ids, query_matrix: np.ndarray, k: int = 10,
            n_subq: int = 8, n_centroids: int = 64, rerank: int = 256,
            sample_size: int = 4096, id_col: str = "vec_id",
            emb_col: str = "embedding", seed: int = 9001,
            round_to: int = 6) -> pa.Table:
    """Product-quantization cosine top-k — the memory-compression ANN
    scale path (Jégou et al., PQ for nearest neighbor search): a
    bounded driver sample trains per-subspace codebooks; every corpus
    block is scanned as n_subq uint8 codes via LUT sums (16-32x less
    memory traffic than raw floats at corpus scale), with the ADC
    shortlist reranked by exact cosine in-block, so the emitted scores
    are exact and only the CANDIDATE SET is approximate. Deterministic:
    fixed seed/iterations, ties by vec_id in the fold."""
    sample_tbl = ds.limit(sample_size).materialize().to_arrow_refs()
    sample_parts = [_embeddings_matrix(t, emb_col)
                    for t in (ray.get(r) for r in sample_tbl) if len(t)]
    if not sample_parts:
        return _fold_topk([], k, round_to)  # empty corpus -> empty result
    sample = np.concatenate(sample_parts)
    books = pq_train(sample, n_subq=n_subq, n_centroids=n_centroids,
                     seed=seed)
    qm = np.asarray(query_matrix, dtype=np.float64)
    qnorm = np.linalg.norm(qm, axis=1, keepdims=True)
    qnorm[qnorm == 0] = 1.0
    qn = qm / qnorm
    ref = ray.put({"ids": np.asarray(query_ids, dtype=np.int64),
                   "qn": qn, "books": books})
    n_cpu = int(ray.cluster_resources().get("CPU", 4))
    parts = ds.map_batches(
        _PqScanPartial, fn_constructor_args=(ref, k, rerank, id_col,
                                             emb_col),
        batch_format="pyarrow", zero_copy_batch=True,
        concurrency=(1, max(2, n_cpu)),
    ).take_all()
    return _fold_topk(parts, k, round_to)
