"""Domain-mixture reweighting: deterministic resampling to target
source proportions — the "data mixing" step of an LLM training-data
pipeline (adjust web/books/code shares before training).

Scale shape: one tiny per-block partial count pass (output rows =
blocks x distinct sources, folded on the driver — source cardinality is
small by definition), then a pure streaming filter: a row survives iff
``knuth_hash(id) < threshold[source]``, an integer compare against a
broadcast dict. No shuffle, no sort, no per-group top-n selection — the
sampler never moves data, so it runs at read bandwidth on any input
size. Counts are binomial around the target mixture (exact-n selection
would need a per-group distributed selection; the rate-based form is
the 100-TB design).

The acceptance threshold is pure int/float arithmetic on the Knuth
multiplicative hash (same substrate as train_eval_split), so a DuckDB
oracle running the identical op sequence reproduces the sample
value-exact — determinism across engines, runs and partitionings.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .arrow_util import as_array
from .keyed import keyed_fold, np_col


def reweight_sample(ds, group_col: str, weights: dict[str, float],
                    id_col: str):
    """Downsample ``ds`` so group ``s`` contributes ~``weights[s]`` of
    the output. ``weights`` are target shares (sum ~1). The output size
    is the maximum feasible: M = min_s(count_s / weights_s); group s
    keeps rows with hash < floor(weights_s * M / count_s * 2^32).
    Groups absent from ``weights`` are dropped (share 0)."""

    def counts_block(b: pa.Table) -> pa.Table:
        d = pc.dictionary_encode(as_array(b.column(group_col)))
        idx = d.indices.to_numpy(zero_copy_only=False)
        c = np.bincount(idx, minlength=len(d.dictionary))
        return pa.table({
            group_col: d.dictionary.cast(pa.string()),
            "cnt": pa.array(c, type=pa.int64()),
        })

    partials = (ds.select_columns([group_col])
                .map_batches(counts_block, batch_format="pyarrow",
                             batch_size=None, zero_copy_batch=True)
                .take_all())     # tiny: n_blocks x n_sources rows
    counts: dict[str, int] = {}
    for r in partials:
        counts[r[group_col]] = counts.get(r[group_col], 0) + r["cnt"]

    present = [s for s in counts if s in weights and weights[s] > 0]
    if not present:
        raise ValueError("no weighted group present in the data")
    M = min(counts[s] / weights[s] for s in present)
    thr = {s: math.floor(weights[s] * M / counts[s] * 4294967296.0)
           for s in present}

    def filt(b: pa.Table) -> pa.Table:
        ids = as_array(b.column(id_col)).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        h = (ids.astype(np.int64) * 2654435761) % 4294967296
        d = pc.dictionary_encode(as_array(b.column(group_col)))
        idx = d.indices.to_numpy(zero_copy_only=False)
        t = np.array([thr.get(x, 0)
                      for x in d.dictionary.to_pylist()], dtype=np.int64)
        return b.filter(pa.array(h < t[idx]))

    return ds.map_batches(filt, batch_format="pyarrow",
                          zero_copy_batch=True)


def shard_manifest(ds, id_col: str, size_col: str, *, budget: int,
                   bucket_size: int = 1024, num_partitions: int = 16):
    """Assign rows (in global ``id_col`` order) to fixed-budget training
    shards: shard_id = floor(preceding cumulative size / budget) — the
    manifest a shard writer uses to emit ~budget-sized output files.

    Distributed exact global cumsum without a global sort: bucket rows
    by id range (``id // bucket_size`` — value buckets preserve global
    order across buckets), (1) one tiny aggregate pass for per-bucket
    size sums, folded into exclusive prefix offsets on the driver
    (n_buckets rows — thousands at petabyte scale) and broadcast via
    ray.put, (2) one bucket-keyed fold sorted by id, with a per-bucket
    local cumsum + offset. Emits id, size, inclusive
    cum_size and shard_id; integer math end-to-end (SQL-exact)."""
    import ray

    from .context import auto_partitions, gather_table

    def partial(b: pa.Table) -> pa.Table:
        ids = as_array(b.column(id_col)).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        sz = as_array(b.column(size_col)).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        bk = ids // bucket_size
        ub, inv = np.unique(bk, return_inverse=True)
        sums = np.zeros(len(ub), dtype=np.int64)
        np.add.at(sums, inv, sz)
        return pa.table({"bucket": pa.array(ub),
                         "bsum": pa.array(sums)})

    slim = ds.select_columns([id_col, size_col])
    parts = slim.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True)
    t = gather_table(parts, schema=pa.schema(
        [("bucket", pa.int64()), ("bsum", pa.int64())]))
    bk = t.column("bucket").to_numpy(zero_copy_only=False)
    bs = t.column("bsum").to_numpy(zero_copy_only=False)
    ub, inv = np.unique(bk, return_inverse=True)
    tot = np.zeros(len(ub), dtype=np.int64)
    np.add.at(tot, inv, bs)
    offsets = np.concatenate([[0], np.cumsum(tot)[:-1]]) \
        if len(ub) else np.empty(0, dtype=np.int64)
    off_ref = ray.put({int(b): int(o) for b, o in zip(ub, offsets)})

    def assign(b: pa.Table, starts) -> pa.Table:
        offs = ray.get(off_ref)
        ids = as_array(b.column(id_col)).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        sz = as_array(b.column(size_col)).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        lens = np.diff(np.append(starts, len(b)))
        cum = np.cumsum(sz)
        # restart the running sum at each bucket, then add its offset
        seg_base = np.repeat(cum[starts] - sz[starts], lens)
        base = np.repeat(
            np.array([offs[int(x)] for x in np_col(b, "__bucket")[starts]],
                     dtype=np.int64), lens)
        cum_local = cum - seg_base + base
        shard = (cum_local - sz) // budget
        return pa.table({
            id_col: pa.array(ids),
            size_col: pa.array(sz),
            "cum_size": pa.array(cum_local),
            "shard_id": pa.array(shard),
        })

    def key_bucket(b: pa.Table) -> pa.Table:
        ids = as_array(b.column(id_col)).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return b.append_column("__bucket", pa.array(ids // bucket_size))

    P = auto_partitions(ds.count(), 500_000, num_partitions)
    return keyed_fold(
        slim.map_batches(key_bucket, batch_format="pyarrow",
                         zero_copy_batch=True),
        ["__bucket"], assign, P, order_by=[id_col])
