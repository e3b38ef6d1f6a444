"""Candidate-pair verification: exact Jaccard + suffix-array containment.

Join strategy (no ``Dataset.join``): the candidate pair set is orders of
magnitude smaller than the corpus (bounded by the band caps), so we

  1. stream-filter the signature table down to candidate conv_ids with a
     **broadcast semi-join** — the candidate-id *hash* set is ``ray.put``
     once as a sorted uint64 array and probed per task with
     ``np.searchsorted`` (zero-copy from plasma; a 64-bit collision only
     keeps a harmless extra row that the in-block join drops);
  2. attach each endpoint's shingle set either by **broadcasting** the
     filtered candidate table (``ray.put`` once, looked up inside the
     (a, b) fold that dedups the pairs — taken when it fits the
     object-store gate; the classic broadcast join) or
     by **tagged-union co-partition joins** (pair and signature rows
     unioned, co-located on the endpoint key by one keyed fold
     (stages/keyed.py), joined per block with vectorized
     ``pyarrow.Table.join``).

Texts are NOT carried through signatures or joins: the suffix-array
containment check runs as a lazy second phase over only the pairs that
need it (shingle containment >= threshold but Jaccard < threshold —
a small fraction), with just those conversations' texts broadcast from
``texts_ds``. Text cost is proportional to containment candidates, not
to the corpus.

A pair becomes an edge when
  * exact Jaccard(shingles_a, shingles_b) >= jaccard_threshold, or
  * shingle containment >= containment_threshold AND the suffix-array
    longest-common-substring covers >= substring_frac of the shorter
    text (containment duplicates: FIXTURES.md F2).
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..config import DedupConfig
from ..functions.suffixarray import longest_common_substring
from .arrow_util import as_array
from .ids import encode_columns, id_keys, id_type, map_decode, map_encode
from .keyed import keyed_fold
from .lsh import _in_sorted

_VERIFY_SCHEMA = pa.schema([
    ("a", pa.string()), ("b", pa.string()), ("jaccard", pa.float64()),
    ("containment", pa.float64()), ("method", pa.string()),
    ("is_dup", pa.bool_()),
])


# ---------------------------------------------------------------------------
# broadcast semi-join: signatures -> candidate signatures
# ---------------------------------------------------------------------------

def _filter_to_candidates(batch: pa.Table, ids_ref,
                          bridge_ref=None) -> pa.Table:
    """Code conv_id (stages/ids.encode_columns), then keep rows whose id
    key (ids.id_keys) is in the broadcast sorted array. A 64-bit key
    collision only keeps a harmless extra row."""
    batch = encode_columns(batch, ["conv_id"], bridge_ref)
    return batch.filter(pa.array(_in_sorted(id_keys(batch.column("conv_id")),
                                            ray.get(ids_ref))))


# ---------------------------------------------------------------------------
# tagged-union co-partition join (large-candidate fallback)
# ---------------------------------------------------------------------------

def _tag_left(batch: pa.Table, key_col: str, sig_col: str) -> pa.Table:
    """Pair-side rows: key = endpoint id, null signature payload."""
    n = len(batch)
    cols = {"key": batch.column(key_col)}
    for c in batch.column_names:
        cols[c] = batch.column(c)
    cols[sig_col] = pa.nulls(n, pa.large_binary())
    cols["tag"] = pa.array(np.zeros(n, dtype=np.int8))
    return pa.table(cols)


def _tag_right(batch: pa.Table, pair_cols, sig_col: str) -> pa.Table:
    """Signature-side rows: key = conv_id, null pair payload."""
    n = len(batch)
    cols = {"key": batch.column("conv_id")}
    for c, typ in pair_cols:
        cols[c] = pa.nulls(n, typ)
    cols[sig_col] = batch.column("shingles")
    cols["tag"] = pa.array(np.ones(n, dtype=np.int8))
    return pa.table(cols)


def _block_join(batch: pa.Table, sig_col: str) -> pa.Table:
    """In-block hash join of co-partitioned pair and signature rows.
    Every copy of a pair row shares its key, so the in-block group_by
    is a global dedup of multi-bucket emissions (a no-op on the second
    endpoint's join, whose rows are already distinct)."""
    tag = batch.column("tag")
    pairs = batch.filter(pc.equal(tag, 0))
    sigs = batch.filter(pc.equal(tag, 1))
    left_cols = [c for c in batch.column_names if c not in ("tag", sig_col)]
    left = pairs.select(left_cols).group_by(left_cols).aggregate([]) \
        .select(left_cols)
    right = pa.table({"key": sigs.column("key"),
                      sig_col: sigs.column(sig_col)})
    joined = left.join(right, keys=["key"], join_type="left outer")
    return joined.drop_columns(["key"])


def _attach_endpoint(ds, cand_sigs, key_col: str, suffix: str, P: int):
    """ds (pair rows) + cand_sigs -> ds with shingles_<suffix>."""
    sig_col = f"shingles_{suffix}"
    schema = ds.schema()
    pair_cols = list(zip(schema.names, schema.types))

    left = ds.map_batches(
        functools.partial(_tag_left, key_col=key_col, sig_col=sig_col),
        batch_format="pyarrow", zero_copy_batch=True)
    right = cand_sigs.map_batches(
        functools.partial(_tag_right, pair_cols=pair_cols, sig_col=sig_col),
        batch_format="pyarrow", zero_copy_batch=True)
    return keyed_fold(
        left.union(right), ["key"],
        lambda b, _starts: _block_join(b, sig_col), P,
        order_by=None)


# ---------------------------------------------------------------------------
# phase 1: exact Jaccard on shingle sets (no texts anywhere)
# ---------------------------------------------------------------------------

def _binary_views(col, n: int):
    """large_binary column -> (uint64 view of the data buffer, element
    start offsets in uint64 units, per-row null mask). Rows are
    contiguous in the data buffer, so slices/flattening are pure
    offsets math — no per-row Python materialization."""
    arr = as_array(col)
    if arr.type == pa.binary():
        # 32-bit offsets would be silently misread as int64 below.
        arr = arr.cast(pa.large_binary())
    elif arr.type != pa.large_binary():
        raise TypeError(f"expected (large_)binary shingles, got {arr.type}")
    nulls = np.zeros(n, dtype=bool)
    if arr.null_count:
        nulls = np.asarray(arr.is_null())
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int64)[
        arr.offset: arr.offset + n + 1]
    buf = arr.buffers()[2]
    u64 = (np.frombuffer(buf, dtype=np.uint64) if buf is not None
           else np.empty(0, dtype=np.uint64))
    return u64, offs // 8, nulls


def _verify_batch(batch: pa.Table, cfg: DedupConfig) -> pa.Table:
    n = len(batch)
    if n == 0:
        # endpoints keep their id type, so schemas agree across blocks
        t = id_type(batch, "a")
        return pa.schema([("a", t), ("b", t)] + list(_VERIFY_SCHEMA)[2:]
                         ).empty_table()
    from ..functions.jaccard import intersect_sizes_pairs

    u64a, st_a, null_a = _binary_views(batch.column("shingles_a"), n)
    u64b, st_b, null_b = _binary_views(batch.column("shingles_b"), n)
    len_a = np.diff(st_a)
    len_b = np.diff(st_b)
    inter = intersect_sizes_pairs(
        u64a[st_a[0]: st_a[-1]], len_a, u64b[st_b[0]: st_b[-1]], len_b)
    union = len_a + len_b - inter
    m = np.minimum(len_a, len_b)
    jac = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
    con = np.where(m > 0, inter / np.maximum(m, 1),
                   (len_a == len_b).astype(np.float64))
    bad = null_a | null_b
    jac[bad] = 0.0
    con[bad] = 0.0
    ok = ~bad & (jac >= cfg.jaccard_threshold)
    needs = ~bad & ~ok & (con >= cfg.containment_threshold)
    method = np.where(ok, "jaccard",
                      np.where(needs, "needs_text", "rejected"))
    return pa.table(
        {
            "a": batch.column("a"),
            "b": batch.column("b"),
            "jaccard": pa.array(jac),
            "containment": pa.array(con),
            "method": pa.array(method, type=pa.string()),
            "is_dup": pa.array(ok),
        }
    )


# ---------------------------------------------------------------------------
# phase 2: suffix-array containment, only where needed
# ---------------------------------------------------------------------------

def _resolve_containment(batch: pa.Table, texts_ref,
                         cfg: DedupConfig) -> pa.Table:
    texts = ray.get(texts_ref)  # dict conv_id -> text
    a = batch.column("a").to_pylist()
    b = batch.column("b").to_pylist()
    # slice the broadcast dict into two aligned lists up front — one
    # dict probe per endpoint, none inside the per-pair LCS loop
    ta_all = [texts.get(x) for x in a]
    tb_all = [texts.get(x) for x in b]
    ok = np.zeros(len(batch), dtype=bool)
    method = np.empty(len(batch), dtype=object)
    for i, (ta, tb) in enumerate(zip(ta_all, tb_all)):
        method[i] = "rejected"
        if ta is not None and tb is not None:
            lcs = longest_common_substring(ta, tb)
            shorter = min(len(ta.encode()), len(tb.encode()))
            if shorter and lcs >= cfg.substring_frac * shorter:
                ok[i] = True
                method[i] = "containment"
    return pa.table({
        "a": batch.column("a"),
        "b": batch.column("b"),
        "jaccard": batch.column("jaccard"),
        "containment": batch.column("containment"),
        "method": pa.array(method, type=pa.string()),
        "is_dup": pa.array(ok),
    })


def _collect_texts(texts_ds, ids: set) -> dict:
    """Filter texts_ds to the (tiny) conv_id string set and collect a
    lookup dict.

    Driver-memory bound: O(containment-candidate texts). Candidates are
    pairs with shingle containment >= containment_threshold but Jaccard
    below threshold — a small slice of the already-band-capped pair set,
    so the dict is bounded by the corpus's containment-dup rate, not its
    size. An adversarial corpus that is mostly containment dups would
    grow this dict with the corpus; the escape hatch at that scale is
    chunking need_ids and running the phase-2 resolve per chunk (the
    stage is stateless across chunks), trading passes for memory."""
    if not ids:
        return {}
    ids_ref = ray.put(np.unique(id_keys(pa.array(sorted(ids),
                                                 type=pa.string()))))
    out: dict = {}
    filt = texts_ds.select_columns(["conv_id", "text"]).map_batches(
        functools.partial(_filter_to_candidates, ids_ref=ids_ref),
        batch_format="pyarrow", zero_copy_batch=True)
    for blk in filt.iter_batches(batch_size=None, batch_format="pyarrow"):
        for cid, txt in zip(blk.column("conv_id").to_pylist(),
                            blk.column("text").to_pylist()):
            if cid in ids:
                out[cid] = txt
    return out


# ---------------------------------------------------------------------------
# broadcast verify (small-candidate fast path)
# ---------------------------------------------------------------------------

# per-process cache of broadcast candidate indexes, keyed by object ref
_BCAST_CACHE: dict = {}


def _broadcast_verify_batch(batch: pa.Table, cand_ref,
                            cfg: DedupConfig) -> pa.Table:
    """Phase-1 verification of a block of (a, b)-co-located pairs
    against the broadcast candidates; copies of a pair are dropped."""
    key = cand_ref.hex() if hasattr(cand_ref, "hex") else id(cand_ref)
    entry = _BCAST_CACHE.get(key)
    if entry is None:
        tbl = ray.get(cand_ref)
        # contiguous arrays once per actor; lookups below are Arrow
        # C++ kernels (index_in + take), never per-row Python
        entry = (as_array(tbl.column("conv_id")),
                 as_array(tbl.column("shingles")))
        _BCAST_CACHE[key] = entry
    conv_arr, sh_arr = entry
    batch = batch.group_by(["a", "b"]).aggregate([]).select(["a", "b"])
    a_arr = as_array(batch.column("a"))
    b_arr = as_array(batch.column("b"))
    return _verify_batch(pa.table({
        "a": a_arr,
        "b": b_arr,
        # null index -> null payload
        "shingles_a": sh_arr.take(pc.index_in(a_arr, value_set=conv_arr)),
        "shingles_b": sh_arr.take(pc.index_in(b_arr, value_set=conv_arr)),
    }), cfg)


def verify_pairs(pairs_ds, sig_ds, config: DedupConfig,
                 dedup_pairs: bool = True,
                 broadcast_threshold: int = 4 << 30,
                 texts_ds=None,
                 containment_chunk_pairs: int = 250_000,
                 bridge_ref=None):
    """pairs (a,b) + signature table -> verified edge table.

    Returns the full verification table (is_dup marks edges) so metrics
    can report rejection rates; filter on is_dup for clustering.
    Duplicate (a, b) rows (a pair several buckets emit) are always
    removed, in a fold verification runs anyway; ``dedup_pairs=False``
    raises.

    ``texts_ds`` (required) supplies (conv_id, text) rows for the
    containment pass.

    ``bridge_ref`` codes the pair endpoints and candidate conv ids for
    the pair-dedup fold and both join forms (stages/ids.py); phase-1
    output is decoded before the containment phase, so the result is
    string-typed either way.
    """
    from .context import auto_partitions

    if not dedup_pairs:
        raise ValueError("verify_pairs(dedup_pairs=False) is gone: "
                         "verification always dedups its pairs")
    if texts_ds is None:
        raise TypeError("verify_pairs: texts_ds is required")
    # pin pairs: consumed by the id scan, the sizing count and the joins
    pairs_ds = pairs_ds.materialize()
    # size the join shuffles to the candidate volume, not the corpus
    P = auto_partitions(pairs_ds.count(), 25_000, config.num_partitions)

    # cheap vectorized map over the pinned pairs; every downstream
    # shuffle/join then moves coded endpoints
    pairs_ds = map_encode(pairs_ds, ["a", "b"], bridge_ref)

    # ---- broadcast semi-join: shrink signatures to candidate ids ----
    def ids_block(b):
        both = np.concatenate([id_keys(b.column("a")), id_keys(b.column("b"))])
        return pa.table({"h": pa.array(np.unique(both), type=pa.uint64())})

    def uniq_fold(b: pa.Table, _starts) -> pa.Table:
        return pa.table({"h": pa.array(
            np.unique(b.column("h").to_numpy(zero_copy_only=False)),
            type=pa.uint64())})

    # cross-block dedup under a keyed fold BEFORE the gather, so the
    # driver receives each candidate hash exactly once — driver memory
    # is O(unique candidate ids), the same array the broadcast semi-join
    # must hold anyway, not O(sum of per-block id lists)
    hash_parts = [
        blk.column("h").to_numpy(zero_copy_only=False)
        for blk in keyed_fold(
            pairs_ds.map_batches(ids_block, batch_format="pyarrow",
                                 zero_copy_batch=True),
            ["h"], uniq_fold, P, order_by=None,
        ).iter_batches(batch_size=None, batch_format="pyarrow")
        if len(blk)
    ]
    cand_hashes = (np.sort(np.concatenate(hash_parts))
                   if hash_parts else np.empty(0, dtype=np.uint64))
    ids_ref = ray.put(cand_hashes)

    # materialized: both join rounds consume it — without pinning, the
    # semi-join filter scan over the signature table runs twice
    cand_sigs = sig_ds.select_columns(["conv_id", "shingles"]).map_batches(
        functools.partial(_filter_to_candidates, ids_ref=ids_ref,
                          bridge_ref=bridge_ref),
        batch_format="pyarrow", zero_copy_batch=True,
    ).materialize()

    pairs = pairs_ds.select_columns(["a", "b"])

    if cand_sigs.size_bytes() <= broadcast_threshold:
        # ---- broadcast path: candidate payload fits the object store ----
        from .context import gather_table

        cand_tbl = gather_table(cand_sigs)
        cand_ref = ray.put(cand_tbl)
        verify = functools.partial(_broadcast_verify_batch,
                                   cand_ref=cand_ref, cfg=config)
        # co-locate duplicate (a, b) rows so the in-block dedup is
        # globally correct (slim pairs — a cheap exchange)
        phase1 = keyed_fold(pairs, ["a", "b"],
                            lambda b, _starts: verify(b), P,
                            order_by=None)
    else:
        # ---- shuffle path: two co-partition joins (endpoint a, b) ----
        # materialized between rounds (fused-chain pathology)
        withe_a = _attach_endpoint(pairs, cand_sigs, "a", "a",
                                   P).materialize()
        withe_ab = _attach_endpoint(withe_a, cand_sigs, "b", "b", P)
        phase1 = withe_ab.map_batches(
            functools.partial(_verify_batch, cfg=config),
            batch_format="pyarrow", zero_copy_batch=True, batch_size=1024,
        )
    # decoded once here: the verified surface is string-typed, and the
    # containment phase below only ever sees conv_id strings
    phase1 = map_decode(phase1, ["a", "b"], bridge_ref).materialize()

    # ---- phase 2: containment texts only for pairs that need them ----
    needs = phase1.filter(expr="method == 'needs_text'").materialize()
    done = phase1.filter(expr="method != 'needs_text'")
    if needs.count() == 0:
        return done

    def _ids_of(part) -> set:
        out: set = set()
        for blk in part.select_columns(["a", "b"]).iter_batches(
                batch_size=None, batch_format="pyarrow"):
            out.update(blk.column("a").to_pylist())
            out.update(blk.column("b").to_pylist())
        return out

    def _resolve_part(part):
        texts_ref = ray.put(_collect_texts(texts_ds, _ids_of(part)))
        return part.map_batches(
            functools.partial(_resolve_containment, texts_ref=texts_ref,
                              cfg=config),
            batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
        )

    # bound driver/broadcast memory on containment-heavy corpora: above
    # the cap the (materialized) needs set resolves in pair chunks, each
    # broadcasting only its own texts — extra texts_ds passes traded for
    # an O(chunk) text dict instead of O(all containment candidates)
    n_needs = needs.count()
    n_chunks = max(1, -(-n_needs // containment_chunk_pairs))
    if n_chunks == 1:
        return done.union(_resolve_part(needs))
    out = done
    for part in needs.split(n_chunks):
        out = out.union(_resolve_part(part))
    return out
