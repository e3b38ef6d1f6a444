"""Dense conversation-id bridge: string conv_ids -> order-preserving u64.

Every hot shuffle of the flagship dedup pipeline (band rows, turn-hash
rows, pair dedup, verify joins, union-find edge exchange) is keyed by
conv_id. Those keys are strings at the API/checkpoint surfaces, but the
shuffles themselves only need identity and ORDER — so each heavy stage
encodes conv_ids once on entry into dense u64 *lexicographic ranks* and
decodes on exit. Ranks are order-preserving (rank order == UTF-8 byte
order == Python codepoint order), so every ordering decision downstream
— pair canonicalization a < b, capped-bucket chain order, min-id cluster
labels — is bit-identical to the string form, and the single-process
oracle (pipelines/oracle.py) needs no change.

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

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions.murmur3 import hash_strings
from .arrow_util import as_array

def build_bridge(assembled_ds, *, max_bytes: int = 2 << 30,
                 id_col: str = "conv_id"):
    """conv ids -> broadcast bridge ref, or None.

    ``assembled_ds`` holds the ids of every conversation the run can
    meet (an id may repeat: an increment's batch may re-ingest one).
    Returns ``ray.put((idh_sorted, rank_of_idh, strings_by_rank))`` —
    or ``None`` when the id column exceeds ``max_bytes`` (string-mode
    fallback regime), a 64-bit idh collision exists (never alias), or
    there is no id at all. Any other failure, e.g. a missing id column,
    raises.
    """
    from .context import gather_table

    ids_ds = assembled_ds.select_columns([id_col])
    if ids_ds.size_bytes() > max_bytes:
        return None
    tbl = gather_table(ids_ds, schema=pa.schema([(id_col, pa.string())]))
    arr = pc.unique(as_array(tbl.column(id_col)).cast(pa.large_string()))
    n = len(arr)
    if n == 0:
        return None
    # rank table: UTF-8 byte order == codepoint order, so Arrow's sort
    # gives exactly the order the oracle labels by
    sort_idx = pc.sort_indices(arr)
    strings_by_rank = arr.take(sort_idx)
    if isinstance(strings_by_rank, pa.ChunkedArray):
        strings_by_rank = strings_by_rank.combine_chunks()
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
    arr = as_array(col) if not isinstance(col, pa.Array) else col
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
    if isinstance(ranks, pa.Array):
        ranks = ranks.to_numpy(zero_copy_only=False)
    ranks = np.asarray(ranks, dtype=np.uint64)
    if len(ranks) == 0:
        return pa.array([], type=pa.string())
    return strings_by_rank.take(
        pa.array(ranks.astype(np.int64))).cast(pa.string())


def decode_to_dict(ranks, bridge_ref) -> dict:
    """uint64 ranks -> {rank: conv_id string} (small sets only)."""
    strs = decode_ids(np.asarray(sorted(set(int(r) for r in ranks)),
                                 dtype=np.uint64), bridge_ref)
    keys = sorted(set(int(r) for r in ranks))
    return dict(zip(keys, strs.to_pylist()))
