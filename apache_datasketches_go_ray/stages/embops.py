"""Embedding-column analytics for curation QA.

* ``label_centroids`` — exact per-label mean vector (the cluster-
  quality / drift signal over a labelled or model-bucketed corpus).
* ``centroid_confusion`` — nearest-centroid assignment by cosine and
  the label×assigned confusion counts (how separable the labels are in
  embedding space — the standard sanity check before using embeddings
  for semantic dedup or mixing decisions).
* ``norm_stats_by_label`` — per-label L2-norm n/mean/min/max (catches
  un-normalized or degenerate embedding batches per source).

Engine shapes: block-local vectorized partials (one matmul / bincount
per block), one keyed ``repartition`` fold per wide step, and the tiny
centroid table (n_labels × dim) finished on the driver and broadcast
back via ``ray.put`` — the same partial→fold→broadcast discipline as
stages/corpusops (never an unkeyed shuffle, never per-row Python).
Float parity with the SQL oracle follows the engine's round-half-up
1e-4 rule on DOUBLE-cast inputs (see stages/corpusops._round4).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from .arrow_util import as_array
from .ann import _embeddings_matrix
from .context import gather_table
from .keyed import keyed_fold


def _round4(x: np.ndarray) -> np.ndarray:
    return np.floor(x * 10000.0 + 0.5) / 10000.0


def _centroid_partial(batch: pa.Table, emb_col: str,
                      label_col: str) -> pa.Table:
    """Per-block (label, n, sum-vector) partial."""
    empty = pa.table({"label": pa.array([], type=pa.int64()),
                      "n": pa.array([], type=pa.int64()),
                      "sums": pa.array([], type=pa.list_(pa.float64()))})
    if len(batch) == 0:
        return empty
    m = _embeddings_matrix(batch, emb_col).astype(np.float64)
    lab = as_array(batch.column(label_col)).to_numpy(
        zero_copy_only=False).astype(np.int64)
    uniq, codes = np.unique(lab, return_inverse=True)
    sums = np.zeros((len(uniq), m.shape[1]), dtype=np.float64)
    np.add.at(sums, codes, m)
    counts = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
    flat = pa.array(sums.reshape(-1), type=pa.float64())
    offs = pa.array(np.arange(len(uniq) + 1, dtype=np.int32)
                    * m.shape[1], type=pa.int32())
    return pa.table({"label": pa.array(uniq, type=pa.int64()),
                     "n": pa.array(counts, type=pa.int64()),
                     "sums": pa.ListArray.from_arrays(offs, flat)})


def _fold_partials(batch: pa.Table, _starts) -> pa.Table:
    """Fold co-located per-label partials (block holds whole labels)."""
    lab = batch.column("label").to_numpy(zero_copy_only=False)
    n = batch.column("n").to_numpy(zero_copy_only=False)
    sums_col = as_array(batch.column("sums"))
    flat = sums_col.flatten().to_numpy(zero_copy_only=False)
    dim = len(flat) // len(batch)
    m = flat.reshape(len(batch), dim)
    uniq, codes = np.unique(lab, return_inverse=True)
    out_s = np.zeros((len(uniq), dim), dtype=np.float64)
    np.add.at(out_s, codes, m)
    out_n = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(out_n, codes, n)
    offs = pa.array(np.arange(len(uniq) + 1, dtype=np.int32) * dim,
                    type=pa.int32())
    return pa.table({"label": pa.array(uniq, type=pa.int64()),
                     "n": pa.array(out_n, type=pa.int64()),
                     "sums": pa.ListArray.from_arrays(
                         offs, pa.array(out_s.reshape(-1),
                                        type=pa.float64()))})


def _centroid_partials_ds(ds, emb_col: str, label_col: str,
                          num_partitions: int):
    return keyed_fold(
        ds.map_batches(
            lambda b: _centroid_partial(b, emb_col, label_col),
            batch_format="pyarrow", zero_copy_batch=True),
        ["label"], _fold_partials, num_partitions, order_by=None)


def label_centroids(ds, emb_col: str = "embedding",
                    label_col: str = "label",
                    num_partitions: int = 8):
    """Exact per-label centroid, long format (label, dim, centroid);
    dim is 1-based, centroid rounded half-up to 4 decimals."""

    def explode(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table({"label": pa.array([], type=pa.int64()),
                             "dim": pa.array([], type=pa.int64()),
                             "centroid": pa.array([], type=pa.float64())})
        lab = batch.column("label").to_numpy(zero_copy_only=False)
        n = batch.column("n").to_numpy(zero_copy_only=False)
        flat = as_array(batch.column("sums")).flatten().to_numpy(
            zero_copy_only=False)
        dim = len(flat) // len(batch)
        cent = _round4(flat / np.repeat(n.astype(np.float64), dim))
        return pa.table({
            "label": pa.array(np.repeat(lab, dim), type=pa.int64()),
            "dim": pa.array(np.tile(np.arange(1, dim + 1, dtype=np.int64),
                                    len(batch)), type=pa.int64()),
            "centroid": pa.array(cent, type=pa.float64())})

    return _centroid_partials_ds(ds, emb_col, label_col,
                                 num_partitions).map_batches(
        explode, batch_format="pyarrow", zero_copy_batch=True)


def _centroid_matrix(ds, emb_col: str, label_col: str,
                     num_partitions: int):
    """Driver-finish the tiny folded centroid table → (labels asc,
    row-normalized centroid matrix)."""
    tbl = gather_table(_centroid_partials_ds(ds, emb_col, label_col,
                                             num_partitions))
    lab = tbl.column("label").to_numpy(zero_copy_only=False)
    n = tbl.column("n").to_numpy(zero_copy_only=False)
    flat = as_array(tbl.column("sums")).flatten().to_numpy(
        zero_copy_only=False)
    dim = len(flat) // max(len(tbl), 1)
    order = np.argsort(lab)
    cent = (flat.reshape(len(tbl), dim)
            / n.astype(np.float64)[:, None])[order]
    norms = np.linalg.norm(cent, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return lab[order].astype(np.int64), cent / norms


def centroid_confusion(ds, emb_col: str = "embedding",
                       label_col: str = "label",
                       num_partitions: int = 8):
    """Assign every vector to its nearest label centroid by cosine
    (ties → smallest label) and count (label, assigned_label) cells.

    Two passes over the embeddings; the n_labels×dim centroid matrix is
    driver-folded once and shipped to every scan task via ``ray.put``.
    """
    labels, cn = _centroid_matrix(ds, emb_col, label_col, num_partitions)
    ref = ray.put({"labels": labels, "cn": cn})

    def assign_partial(batch: pa.Table) -> pa.Table:
        empty = pa.table({"label": pa.array([], type=pa.int64()),
                          "assigned": pa.array([], type=pa.int64()),
                          "n": pa.array([], type=pa.int64())})
        if len(batch) == 0:
            return empty
        c = ray.get(ref)
        lbs, cmat = c["labels"], c["cn"]
        m = _embeddings_matrix(batch, emb_col).astype(np.float64)
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        # argmax over labels asc → ties break to the smallest label
        a = np.argmax((m / norms) @ cmat.T, axis=1)
        lab = as_array(batch.column(label_col)).to_numpy(
            zero_copy_only=False).astype(np.int64)
        li = np.searchsorted(lbs, lab)
        cell = li * len(lbs) + a
        cnt = np.bincount(cell, minlength=len(lbs) * len(lbs))
        nz = np.flatnonzero(cnt)
        return pa.table({
            "label": pa.array(lbs[nz // len(lbs)], type=pa.int64()),
            "assigned": pa.array(lbs[nz % len(lbs)], type=pa.int64()),
            "n": pa.array(cnt[nz], type=pa.int64())})

    def fold(batch: pa.Table, _starts) -> pa.Table:
        lab = batch.column("label").to_numpy(zero_copy_only=False)
        asg = batch.column("assigned").to_numpy(zero_copy_only=False)
        n = batch.column("n").to_numpy(zero_copy_only=False)
        key = np.stack([lab, asg], axis=1)
        uniq, codes = np.unique(key, axis=0, return_inverse=True)
        out = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(out, codes, n)
        return pa.table({"label": pa.array(uniq[:, 0], type=pa.int64()),
                         "assigned": pa.array(uniq[:, 1], type=pa.int64()),
                         "n": pa.array(out, type=pa.int64())})

    return keyed_fold(
        ds.map_batches(assign_partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["label"], fold, num_partitions, order_by=None)


def norm_stats_by_label(ds, emb_col: str = "embedding",
                        label_col: str = "label",
                        num_partitions: int = 8):
    """Per-label L2-norm stats: (label, n, mean_norm, min_norm,
    max_norm), each norm stat rounded half-up to 4 decimals."""

    def partial(batch: pa.Table) -> pa.Table:
        empty = pa.table({"label": pa.array([], type=pa.int64()),
                          "n": pa.array([], type=pa.int64()),
                          "s": pa.array([], type=pa.float64()),
                          "mn": pa.array([], type=pa.float64()),
                          "mx": pa.array([], type=pa.float64())})
        if len(batch) == 0:
            return empty
        m = _embeddings_matrix(batch, emb_col).astype(np.float64)
        nr = np.sqrt(np.einsum("ij,ij->i", m, m))
        lab = as_array(batch.column(label_col)).to_numpy(
            zero_copy_only=False).astype(np.int64)
        uniq, codes = np.unique(lab, return_inverse=True)
        s = np.zeros(len(uniq))
        np.add.at(s, codes, nr)
        cnt = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        mn = np.full(len(uniq), np.inf)
        np.minimum.at(mn, codes, nr)
        mx = np.full(len(uniq), -np.inf)
        np.maximum.at(mx, codes, nr)
        return pa.table({"label": pa.array(uniq, type=pa.int64()),
                         "n": pa.array(cnt, type=pa.int64()),
                         "s": pa.array(s, type=pa.float64()),
                         "mn": pa.array(mn, type=pa.float64()),
                         "mx": pa.array(mx, type=pa.float64())})

    def fold(batch: pa.Table, _starts) -> pa.Table:
        lab = batch.column("label").to_numpy(zero_copy_only=False)
        uniq, codes = np.unique(lab, return_inverse=True)
        cnt = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(cnt, codes,
                  batch.column("n").to_numpy(zero_copy_only=False))
        s = np.zeros(len(uniq))
        np.add.at(s, codes,
                  batch.column("s").to_numpy(zero_copy_only=False))
        mn = np.full(len(uniq), np.inf)
        np.minimum.at(mn, codes,
                      batch.column("mn").to_numpy(zero_copy_only=False))
        mx = np.full(len(uniq), -np.inf)
        np.maximum.at(mx, codes,
                      batch.column("mx").to_numpy(zero_copy_only=False))
        return pa.table({
            "label": pa.array(uniq, type=pa.int64()),
            "n": pa.array(cnt, type=pa.int64()),
            "mean_norm": pa.array(_round4(s / cnt), type=pa.float64()),
            "min_norm": pa.array(_round4(mn), type=pa.float64()),
            "max_norm": pa.array(_round4(mx), type=pa.float64())})

    return keyed_fold(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["label"], fold, num_partitions, order_by=None)


# ---------------------------------------------------------------------------
# distributed k-means (Lloyd) with exact integer accumulation
# ---------------------------------------------------------------------------

def _kmeans_quantize(batch: pa.Table, emb_col: str, id_col: str,
                     scale: int) -> pa.Table:
    """Quantize embeddings to int64 micro-units once up front: every
    later per-cluster sum is exact integer arithmetic, so centroids —
    and therefore assignments — are bit-identical across block orders
    and partitionings (the same order-independence discipline as the
    engine's exact-cents folds)."""
    if len(batch) == 0:
        return pa.table({
            "vec_id": pa.array([], type=pa.int64()),
            "q": pa.array([], type=pa.list_(pa.int64())),
        })
    m = _embeddings_matrix(batch, emb_col).astype(np.float64)
    q = np.floor(m * scale + 0.5).astype(np.int64)
    flat = pa.array(q.reshape(-1), type=pa.int64())
    offs = pa.array(np.arange(len(batch) + 1, dtype=np.int32)
                    * m.shape[1], type=pa.int32())
    return pa.table({
        "vec_id": as_array(batch.column(id_col)).cast(pa.int64()),
        "q": pa.ListArray.from_arrays(offs, flat),
    })


def _q_matrix(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
    flat = as_array(batch.column("q")).flatten().to_numpy(
        zero_copy_only=False)
    dim = len(flat) // max(len(batch), 1)
    return ids, flat.reshape(len(batch), dim).astype(np.float64)


class _KmeansPartial:
    """Actor-pool stage: holds this iteration's broadcast centroid
    matrix; emits per-block (cluster, n, int64 sum-vector) partials."""

    def __init__(self, cent_ref):
        self.C = ray.get(cent_ref)  # (k, dim) float64, deterministic

    def __call__(self, batch: pa.Table) -> pa.Table:
        k, dim = self.C.shape
        if len(batch) == 0:
            return pa.table({
                "cluster": pa.array([], type=pa.int64()),
                "n": pa.array([], type=pa.int64()),
                "sums": pa.array([], type=pa.list_(pa.int64())),
            })
        _ids, m = _q_matrix(batch)
        # argmin over squared L2: ||x||^2 is constant per row, so rank
        # by -2 x.C^T + ||c||^2 (one matmul per block)
        d = m @ self.C.T * -2.0 + (self.C * self.C).sum(axis=1)
        assign = np.argmin(d, axis=1)
        sums = np.zeros((k, dim), dtype=np.int64)
        np.add.at(sums, assign, m.astype(np.int64))
        counts = np.bincount(assign, minlength=k).astype(np.int64)
        flat = pa.array(sums.reshape(-1), type=pa.int64())
        offs = pa.array(np.arange(k + 1, dtype=np.int32) * dim,
                        type=pa.int32())
        return pa.table({
            "cluster": pa.array(np.arange(k, dtype=np.int64)),
            "n": pa.array(counts),
            "sums": pa.ListArray.from_arrays(offs, flat),
        })


class _KmeansAssign:
    def __init__(self, cent_ref):
        self.C = ray.get(cent_ref)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table({
                "vec_id": pa.array([], type=pa.int64()),
                "cluster": pa.array([], type=pa.int64()),
            })
        ids, m = _q_matrix(batch)
        d = m @ self.C.T * -2.0 + (self.C * self.C).sum(axis=1)
        return pa.table({
            "vec_id": pa.array(ids.astype(np.int64)),
            "cluster": pa.array(np.argmin(d, axis=1).astype(np.int64)),
        })


def kmeans_fit(ds, k: int = 8, n_iter: int = 10, *,
               emb_col: str = "embedding", id_col: str = "vec_id",
               scale: int = 1 << 20, num_partitions: int = 8):
    """Distributed Lloyd's k-means over an embedding column.

    Engine shape per iteration: broadcast the (k × dim) centroid matrix
    via ``ray.put`` into an actor-pool ``map_batches`` (one matmul +
    one scatter-add per block), gather the tiny per-block partial
    table, fold on the driver. The corpus is quantized to int64
    micro-units ONCE and materialized, so (a) every per-cluster sum is
    exact integer arithmetic — centroids and assignments are
    partition-independent — and (b) the T passes stream from the
    object store instead of re-reading parquet. Deterministic init:
    the k rows with the smallest Knuth hash of ``id_col`` (the same
    bottom-k/KMV idea as the reference's k-minimum-values machinery,
    hll/hll_sketch.go:338-343). Empty clusters keep their previous
    centroid. Returns (assignments Dataset (vec_id, cluster),
    centroids float64 (k, dim) in original embedding units)."""
    import functools

    from .relational import top_k

    prep = ds.map_batches(
        functools.partial(_kmeans_quantize, emb_col=emb_col,
                          id_col=id_col, scale=scale),
        batch_format="pyarrow", zero_copy_batch=True).materialize()

    def seed_hash(b: pa.Table) -> pa.Table:
        ids = b.column("vec_id").to_numpy(zero_copy_only=False)
        h = (ids * 2654435761) % 4294967296
        return b.append_column("h", pa.array(h.astype(np.int64)))

    seeds = gather_table(top_k(
        prep.map_batches(seed_hash, batch_format="pyarrow",
                         zero_copy_batch=True),
        [("h", "ascending"), ("vec_id", "ascending")], k=k))
    sid, C = _q_matrix(seeds.select(["vec_id", "q"]))
    order = np.lexsort(
        (sid, seeds.column("h").to_numpy(zero_copy_only=False)))
    C = C[order]

    n_cpus = int(ray.cluster_resources().get("CPU", 8))
    for _ in range(n_iter):
        ref = ray.put(C)
        parts = gather_table(prep.map_batches(
            _KmeansPartial, fn_constructor_args=(ref,),
            batch_format="pyarrow", zero_copy_batch=True,
            concurrency=(1, max(2, n_cpus // 2))))
        cl = parts.column("cluster").to_numpy(zero_copy_only=False)
        n = parts.column("n").to_numpy(zero_copy_only=False)
        flat = as_array(parts.column("sums")).flatten().to_numpy(
            zero_copy_only=False)
        dim = C.shape[1]
        sums = np.zeros((k, dim), dtype=np.int64)
        np.add.at(sums, cl, flat.reshape(len(parts), dim))
        counts = np.zeros(k, dtype=np.int64)
        np.add.at(counts, cl, n)
        newC = C.copy()
        nz = counts > 0
        newC[nz] = sums[nz] / counts[nz, None]
        if np.array_equal(newC, C):
            break
        C = newC

    ref = ray.put(C)
    assign = prep.map_batches(
        _KmeansAssign, fn_constructor_args=(ref,),
        batch_format="pyarrow", zero_copy_batch=True,
        concurrency=(1, max(2, n_cpus // 2)))
    return assign, C / float(scale)


def hard_negative_topk(ds, query_ids, query_matrix, query_labels,
                       k: int = 3, id_col: str = "vec_id",
                       emb_col: str = "embedding",
                       label_col: str = "label",
                       round_to: int = 6) -> "pa.Table":
    """Hard-negative mining for contrastive/embedding training: for each
    query vector, the top-k most cosine-similar corpus vectors with a
    DIFFERENT label (the negatives hardest to separate). Query matrix +
    labels broadcast once via ``ray.put``; every corpus block is one
    masked matmul emitting per-block partial top-k rows; the driver
    folds the (bounded, q x k per block) partials — the same
    scale shape as ann.brute_force_topk, no shuffle."""
    from .ann import _embeddings_matrix, _fold_topk
    from .arrow_util import as_array

    qm = np.asarray(query_matrix, dtype=np.float64)
    qnorm = np.linalg.norm(qm, axis=1, keepdims=True)
    qnorm[qnorm == 0] = 1.0  # all-zero query: score 0, not NaN-dropped
    qn = qm / qnorm
    ref = ray.put({"ids": np.asarray(query_ids, dtype=np.int64),
                   "qn": qn,
                   "labels": np.asarray(query_labels, dtype=np.int64)})

    def partial(batch: pa.Table) -> pa.Table:
        q = ray.get(ref)
        ids = as_array(batch.column(id_col)).to_numpy(
            zero_copy_only=False).astype(np.int64)
        labels = as_array(batch.column(label_col)).to_numpy(
            zero_copy_only=False).astype(np.int64)
        m = _embeddings_matrix(batch, emb_col).astype(np.float64)
        if m.size == 0:
            return pa.table({
                "query_id": pa.array([], type=pa.int64()),
                "vec_id": pa.array([], type=pa.int64()),
                "score": pa.array([], type=pa.float64()),
            })
        n = np.linalg.norm(m, axis=1, keepdims=True)
        n[n == 0] = 1.0
        sims = q["qn"] @ (m / n).T                     # (nq, nb)
        same = q["labels"][:, None] == labels[None, :]
        sims[same] = -np.inf
        kk = min(k, sims.shape[1])
        top = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
        rows_q = np.repeat(q["ids"], kk)
        rows_v = ids[top].ravel()
        rows_s = np.take_along_axis(sims, top, axis=1).ravel()
        ok = np.isfinite(rows_s)
        return pa.table({
            "query_id": pa.array(rows_q[ok]),
            "vec_id": pa.array(rows_v[ok]),
            "score": pa.array(rows_s[ok]),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).take_all()
    return _fold_topk(parts, k, round_to)
