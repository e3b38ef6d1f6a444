"""The conv-id codec: the one module that knows how conversation ids are
coded. Every flagship kernel (lsh, turnblock, verify, cluster, graph,
asof) keeps one body that works the same on string ids, bridge-encoded
u64 ranks and plain integer ids; the choice between the codings is
made here.

Block-local codes (``local_codes`` / ``ids_at``): a kernel maps the id
columns of its block to int64 codes ``0..k-1`` whose order equals id
order, does all its work on the codes, and maps the codes it emits back
to ids of the input's type. Strings are dictionary-encoded and the
(small) dictionary is sorted: UTF-8 byte order equals codepoint order,
so code order is the lexicographic order the single-process oracle
(pipelines/oracle.py) labels by. Integers go through ``np.unique`` in
their own dtype.

Dense-id bridge (``build_bridge``, ``encode_columns`` /
``decode_columns``, ``map_encode`` / ``map_decode``): every hot shuffle
of the flagship dedup pipeline (band rows, turn-hash rows, pair dedup,
verify joins, union-find edge exchange) is keyed by conv_id. Those keys
are strings at the API/checkpoint surfaces, but the shuffles only need
identity and ORDER — so each heavy stage encodes conv_ids once on entry
into dense u64 *lexicographic ranks* and decodes on exit. Rank order is
string order, so every ordering decision downstream — pair
canonicalization a < b, capped-bucket chain order, min-id cluster
labels — is bit-identical to the string form. With no bridge
(``bridge_ref is None``) the column helpers are the identity and the
stages run on strings.

The bridge is built once per run from the conv ids of the assembled
surfaces (an increment's prior chain plus its new batch), broadcast via
``ray.put`` and probed zero-copy per task; encoding an id it was not
built from raises. Lookup is hash-based: idh = murmur3_64(conv_id)
(the reference's identity hashing discipline,
hll/hll_sketch.go:338-343) into a sorted array. Injectivity is
verified at build time — a 64-bit idh collision
(probability ~n^2/2^65) disables the bridge for the run and the stages
fall back to the proven string path, so a collision can never alias two
conversations. Both decisions (bridge on/off, rank values) are pure
functions of the data, never of the partitioning.

Scale regime: the bridge is a per-run broadcast of (3 x 8B + avg id
len) per conversation — ~50 MB at 1M convs, ~5 GB at 100M. Above
``max_bytes`` the build declines (string mode), which is the honest
single-object ceiling; on a real multi-node cluster the next regime is
sharding the bridge or attaching ranks with one tagged-union
co-partition join on the slim id column (documented, not needed below
~10^8 convs per run).
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions.murmur3 import fmix64, hash_strings
from .arrow_util import as_array


def _is_string(typ) -> bool:
    return pa.types.is_string(typ) or pa.types.is_large_string(typ)


# ---------------------------------------------------------------------------
# block-local codes
# ---------------------------------------------------------------------------

def local_codes(*cols):
    """id columns -> (codes..., uniq): one int64 code array per column,
    over a shared code space ``0..k-1`` whose order equals id order,
    and ``uniq``, the k distinct ids in code order (see ``ids_at``)."""
    arrs = [as_array(c) for c in cols]
    if _is_string(arrs[0].type):
        d = pc.dictionary_encode(pa.concat_arrays(
            [a.cast(arrs[0].type) for a in arrs]))
        sort_idx = pc.sort_indices(d.dictionary)
        rank_of = np.empty(len(d.dictionary), dtype=np.int64)
        rank_of[sort_idx.to_numpy(zero_copy_only=False)] = \
            np.arange(len(d.dictionary))
        codes = rank_of[d.indices.to_numpy(zero_copy_only=False)]
        uniq = d.dictionary.take(sort_idx).cast(pa.string())
    else:
        vals = np.concatenate([a.to_numpy(zero_copy_only=False)
                               for a in arrs])
        uniq_np, codes = np.unique(vals, return_inverse=True)
        codes = codes.astype(np.int64)
        uniq = pa.array(uniq_np, type=arrs[0].type)
    bounds = np.cumsum([0] + [len(a) for a in arrs])
    return (*(codes[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])),
            uniq)


def ids_at(uniq: pa.Array, codes: np.ndarray) -> pa.Array:
    """codes -> ids in the input's type (strings come back as
    ``pa.string()``)."""
    return uniq.take(pa.array(codes, type=pa.int64()))


def id_type(batch: pa.Table, col: str):
    """Type of id column ``col``; string when the block carries no
    schema (empty union/repartition blocks can arrive without
    columns)."""
    return batch.schema.field(col).type if col in batch.column_names \
        else pa.string()


def id_keys(col) -> np.ndarray:
    """id column -> u64 key per row, a pure function of the id: murmur3
    of a string id, fmix64 of an integer id (a bijection, so exact)."""
    arr = as_array(col)
    if _is_string(arr.type):
        return hash_strings(arr)[0]
    return fmix64(arr.to_numpy(zero_copy_only=False).astype(np.uint64))


# ---------------------------------------------------------------------------
# dense-id bridge
# ---------------------------------------------------------------------------

def build_bridge(assembled_ds, *, max_bytes: int = 2 << 30,
                 id_col: str = "conv_id"):
    """conv ids -> broadcast bridge ref, or None.

    ``assembled_ds`` holds the ids of every conversation the run can
    meet (an id may repeat: an increment's batch may re-ingest one).
    Returns ``ray.put((idh_sorted, rank_of_idh, strings_by_rank))`` —
    or ``None`` when the id column exceeds ``max_bytes`` (string-mode
    fallback regime), a 64-bit idh collision exists (never alias), or
    there is no id at all. Any other failure, e.g. a missing id column,
    raises. The slim id column is materialized once: its size comes
    from block metadata and the gather reads the same blocks.
    """
    from .context import gather_table

    ids_ds = assembled_ds.select_columns([id_col]).materialize()
    if ids_ds.size_bytes() > max_bytes:
        return None
    tbl = gather_table(ids_ds, schema=pa.schema([(id_col, pa.string())]))
    arr = pc.unique(as_array(tbl.column(id_col)).cast(pa.large_string()))
    n = len(arr)
    if n == 0:
        return None
    # rank table: UTF-8 byte order == codepoint order, so Arrow's sort
    # gives exactly the order the oracle labels by
    strings_by_rank = arr.take(pc.sort_indices(arr))
    idh, _ = hash_strings(strings_by_rank)
    order = np.argsort(idh, kind="stable")
    idh_sorted = np.ascontiguousarray(idh[order])
    if n > 1 and (idh_sorted[1:] == idh_sorted[:-1]).any():
        return None  # 64-bit collision: decline, stages use strings
    rank_of_idh = np.ascontiguousarray(order.astype(np.uint64))
    return ray.put((idh_sorted, rank_of_idh, strings_by_rank))


# per-process cache of fetched bridge payloads, keyed by object ref
_BRIDGE_CACHE: dict = {}


def _bridge(bridge_ref):
    key = bridge_ref.hex() if hasattr(bridge_ref, "hex") else id(bridge_ref)
    entry = _BRIDGE_CACHE.get(key)
    if entry is None:
        if len(_BRIDGE_CACHE) > 4:       # runs are sequential; keep tiny
            _BRIDGE_CACHE.clear()
        entry = ray.get(bridge_ref)
        _BRIDGE_CACHE[key] = entry
    return entry


def encode_ids(col, bridge_ref) -> np.ndarray:
    """string column/array -> uint64 ranks; an id the bridge was not
    built from raises ``ValueError`` (no sentinel rank could be told
    apart from a real one downstream)."""
    idh_sorted, rank_of_idh, _ = _bridge(bridge_ref)
    arr = as_array(col)
    h, _h2 = hash_strings(arr)
    if len(h) == 0:
        return np.empty(0, dtype=np.uint64)
    idx = np.searchsorted(idh_sorted, h)
    idx[idx >= len(idh_sorted)] = 0
    found = idh_sorted[idx] == h
    if not found.all():
        unknown = arr[int(np.flatnonzero(~found)[0])].as_py()
        raise ValueError(
            f"encode_ids: conv id {unknown!r} is not in the dense-id bridge")
    return rank_of_idh[idx]


def decode_ids(ranks, bridge_ref) -> pa.Array:
    """uint64 ranks -> string array (round-trip of encode_ids)."""
    _idh, _rank, strings_by_rank = _bridge(bridge_ref)
    if isinstance(ranks, (pa.Array, pa.ChunkedArray)):
        ranks = as_array(ranks).to_numpy(zero_copy_only=False)
    ranks = np.asarray(ranks, dtype=np.uint64)
    if len(ranks) == 0:
        return pa.array([], type=pa.string())
    return strings_by_rank.take(
        pa.array(ranks.astype(np.int64))).cast(pa.string())


def _map_columns(batch: pa.Table, cols, fn) -> pa.Table:
    for c in cols:
        if c in batch.column_names:   # schema-less empty blocks skip
            batch = batch.set_column(batch.column_names.index(c), c,
                                     fn(batch.column(c)))
    return batch


def encode_columns(batch: pa.Table, cols, bridge_ref) -> pa.Table:
    """String id columns -> u64 ranks (other columns carried); the
    identity when ``bridge_ref is None``."""
    if bridge_ref is None:
        return batch
    return _map_columns(batch, cols, lambda c: pa.array(
        encode_ids(c, bridge_ref), type=pa.uint64()))


def decode_columns(batch: pa.Table, cols, bridge_ref) -> pa.Table:
    """u64 rank columns -> string ids (round-trip of encode_columns);
    the identity when ``bridge_ref is None``."""
    if bridge_ref is None:
        return batch
    return _map_columns(batch, cols,
                        lambda c: decode_ids(c, bridge_ref))


def _map_dataset(fn, ds, cols, bridge_ref):
    if bridge_ref is None:
        return ds
    return ds.map_batches(
        functools.partial(fn, cols=cols, bridge_ref=bridge_ref),
        batch_format="pyarrow", zero_copy_batch=True)


def map_encode(ds, cols, bridge_ref):
    """Dataset form of ``encode_columns`` (no operator without a
    bridge)."""
    return _map_dataset(encode_columns, ds, cols, bridge_ref)


def map_decode(ds, cols, bridge_ref):
    """Dataset form of ``decode_columns`` (no operator without a
    bridge)."""
    return _map_dataset(decode_columns, ds, cols, bridge_ref)
