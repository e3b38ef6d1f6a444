"""MinHash signer stage: a task-form map_batches with per-worker state.

``MinHashSigner`` holds the permutation key table, built once per worker
process in ``__init__`` (the reference's analogue: ``ItemSketchOp`` handed
to a sketch at construction, kll/items_sketch.go:71-84), and each
``__call__`` processes one zero-copy Arrow batch fully vectorized.

Output schema per conversation row:
  conv_id: string, n_turns: int32, n_shingles: int32,
  shingles: large_list<uint64> (sorted unique),
  sig: list<uint64, num_perms>, bands: list<uint64, num_bands>,
  text: string (carried for the suffix-array containment pass; drop with
  keep_text=False when containment verification is disabled).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..config import DedupConfig
from ..functions.shingle import tokenize_column, shingle_hashes
from ..functions.minhash import perm_keys, signatures, band_keys


class MinHashSigner:
    def __init__(self, config: DedupConfig, keep_text: bool = True,
                 keep_sig: bool = False):
        self.cfg = config
        self.keys = perm_keys(config.num_perms, config.perm_seed)
        self.keep_text = keep_text
        # the raw 128-slot signature is 1 KB/conv and nothing downstream
        # reads it (bands + digest carry the LSH information, shingles
        # carry the verify payload) — emit it only on request
        self.keep_sig = keep_sig

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        texts = batch.column("text")
        tok, tok_off = tokenize_column(texts)
        flat, off = shingle_hashes(tok, tok_off, cfg.shingle_k)
        sigs = signatures(flat, off, self.keys)
        bands = band_keys(sigs, cfg.num_bands, cfg.rows_per_band)
        n = len(batch)
        # candidate-prefilter digest: low byte of each sampled signature
        # slot (1/256 false slot-match adds ~0.1 expected matches — noise
        # next to the >=9-of-32 threshold) so each band row carries 32
        # bytes, not 256, through the band shuffle
        dig = np.ascontiguousarray(
            sigs[:, :: cfg.prefilter_stride].astype(np.uint8))
        dig_bytes = dig.shape[1]
        cols = {
            "conv_id": batch.column("conv_id"),
            "n_turns": batch.column("n_turns"),
            "n_shingles": pa.array(np.diff(off).astype(np.int32)),
            # large_binary (LE uint64 words): joins can carry binary
            # payloads but not list payloads (Arrow acero limitation)
            "shingles": pa.LargeBinaryArray.from_buffers(
                pa.large_binary(), n,
                [None, pa.py_buffer((off * 8).astype(np.int64).tobytes()),
                 pa.py_buffer(np.ascontiguousarray(flat).tobytes())],
            ),
            "bands": _fixed_list(bands, n),
            "sig_digest": pa.LargeBinaryArray.from_buffers(
                pa.large_binary(), n,
                [None,
                 pa.py_buffer((np.arange(n + 1, dtype=np.int64)
                               * dig_bytes).tobytes()),
                 pa.py_buffer(dig.tobytes())],
            ),
        }
        if self.keep_sig:
            cols["sig"] = _fixed_list(sigs, n)
        if self.keep_text:
            cols["text"] = texts
        return pa.table(cols)


def _fixed_list(mat: np.ndarray, n_rows: int) -> pa.ListArray:
    width = mat.shape[1] if n_rows else 0
    offsets = np.arange(0, (n_rows + 1) * width, width, dtype=np.int32)
    return pa.ListArray.from_arrays(
        pa.array(offsets), pa.array(mat.reshape(-1), type=pa.uint64())
    )


_SIGNER_CACHE: dict = {}


def _sign_batch(batch: pa.Table, config: DedupConfig,
                keep_text: bool) -> pa.Table:
    """Task-form signer: the permutation table is built once per worker
    process and cached (same setup-once discipline as the actor pool,
    without the pool's scale-up latency — Ray task workers are prestarted
    and reused, so the cache stays warm)."""
    key = (config.num_perms, config.perm_seed, config.shingle_k,
           config.num_bands, config.rows_per_band, config.prefilter_stride,
           keep_text)
    signer = _SIGNER_CACHE.get(key)
    if signer is None:
        signer = MinHashSigner(config, keep_text)
        _SIGNER_CACHE[key] = signer
    return signer(batch)


def sign(ds, config: DedupConfig, *, batch_size: int = 512,
         keep_text: bool = True):
    """assembled conversations -> signature table.

    Task form with per-worker cached state: autoscaling actor pools
    were observed to ramp nondeterministically (2.5-8 effective cores
    out of 32 for minutes).

    Parallelism guard: map_batches task count is bound by the INPUT
    block count, and the conv-keyed assembly emits only num_partitions
    blocks — fewer than the cores on a wide node (measured 2.1x signer
    wall-time loss at 16 blocks / 32 cpus). When the input is already
    materialized (the pipeline checkpoints it) and under-partitioned,
    split it with a keyless repartition (block split, no hash
    exchange) to ~2 blocks per core before signing. Per-conv rows stay
    intact (signing is row-local), so nothing downstream changes."""
    import functools

    import ray as _ray
    from ray.data.dataset import MaterializedDataset

    if isinstance(ds, MaterializedDataset):
        n_cpu = int(_ray.cluster_resources().get("CPU", 8))
        target = min(2 * n_cpu, max(1, ds.count() // max(batch_size, 1)))
        if ds.num_blocks() < target:
            # materialized split: a fused (lazy) repartition runs as
            # a buffering all-to-all INSIDE the sign execution and
            # re-serializes it; the split itself is cheap block
            # surgery and signing from 2x-cpu blocks wins it back
            ds = ds.repartition(target).materialize()
    return ds.map_batches(
        functools.partial(_sign_batch, config=config, keep_text=keep_text),
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
    )
