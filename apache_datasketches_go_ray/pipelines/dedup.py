"""End-to-end transcript dedup pipeline with checkpoints, lineage and
resume — one body for a full run and for an increment.

Stages (each checkpointed as partitioned Parquet + a manifest entry):
  read -> assemble (shuffle on conv_id) -> sign (actor pool) ->
  band pairs (shuffle on band key) || turn pairs (shuffle on turn-text
  hash) -> verify (broadcast semi-join + 2 hash joins) ->
  cluster (iterative hash-partitioned min-label exchange).

A run dedups a batch of transcripts against a prior checkpoint chain:
the checkpoint dirs of earlier runs (a full run plus each later
increment), EMPTY for a full run. An empty chain is a full run; with a
non-empty chain only these steps are added, nothing else changes:
  * read the chain's ``signatures`` / ``assembled`` / ``turn_hashes``
    surfaces (unioned across the chain) and the last entry's
    ``clusters``;
  * prefilter the corpus-side band rows and turn-hash rows to buckets
    the batch touches, and keep only pairs touching a new conv
    (old-old pairs were explored by the prior runs);
  * re-enter the old cluster labels as (member, label) edges.

Dense ids: one broadcast bridge per run (stages/ids.py), built from the
conv ids of the prior and the new ``assembled`` surfaces together, maps
conv_id strings to order-preserving u64 lexicographic ranks; every hot
shuffle below (band rows, turn-hash rows, pair dedup, verify joins,
union-find exchange) keys on the ranks while all checkpoints and
returned surfaces keep string schemas — output is bit-identical either
way (pinned by tests/test_dense_ids.py), and the bridge declines
deterministically on oversized id columns or 64-bit hash collisions
(string-path fallback).

Branch scheduling: the two pair branches are independent; one
executor runs them, with 2 threads on sessions of >= 8 CPUs (their
shuffles overlap; measured 11.7 s sequential -> ~7 s at sf0.1 / 32
CPUs) and 1 thread below that, where two concurrent hash shuffles
starve each other's aggregators. The band branch is always submitted
first, so stage names and fingerprints do not depend on the thread
count: checkpoints written at one parallelism resume at any other.

Resume: each stage's manifest entry records an input fingerprint
(config + upstream fingerprint; the pair branches also fold in the
chain's paths); a re-run with an intact checkpoint directory skips
every stage whose entry is complete and fingerprint-matching,
re-reading its Parquet output instead. Union-find rounds checkpoint
individually, and the final clusters table is deterministic (min-conv_id
labels), so resumed and fresh runs are byte-identical after canonical
sorting.
"""

from __future__ import annotations

import concurrent.futures
import functools
import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..config import DedupConfig
from ..functions.murmur3 import hash_strings
from ..stages.arrow_util import as_array
from ..stages.assemble import assemble
from ..stages.cluster import cluster_edges
from ..stages.context import apply_block_cap, ensure_hash_shuffle, gather_table
from ..stages.ids import build_bridge
from ..stages.lsh import _in_sorted, candidate_pairs
from ..stages.signature import sign
from ..stages.turnblock import (hashes_from_assembled, pairs_from_hashes,
                                turn_hash_dataset)
from ..stages.verify import verify_pairs
from .base import CheckpointedPipeline

# candidate_pairs consumes (conv_id, bands, sig_digest), verify
# (conv_id, shingles); n_turns/n_shingles of the prior corpus are never read
_SIG_COLS = ["conv_id", "shingles", "bands", "sig_digest"]


def resolve_input_layout(layout: str, transcripts_ds,
                         input_paths=None) -> str:
    """``"auto"`` → run the exact distributed layout probe
    (sources.readers.detect_input_layout — reads only
    (conv_id, turn_idx)) and take the conv_grouped assembly fast path
    only when the probe PROVES it safe. ``input_paths`` (a dir or file
    list) takes precedence over ``transcripts_ds.input_files()`` —
    readers that normalize through map_batches (sources.readers.
    read_transcripts) erase input-file metadata, so callers that know
    the source path must pass it. Only Parquet is probed: a file list
    with any other file, and a dataset with no input files, take the
    always-correct shuffled path. A probe that fails raises."""
    if layout != "auto":
        return layout
    files = input_paths
    if files is None:
        files = transcripts_ds.input_files()
    if isinstance(files, str) and not os.path.isdir(files):
        files = [files]
    # a directory is probed over its .parquet files (detect_input_layout)
    if not files or not (isinstance(files, str) or all(
            str(f).endswith(".parquet") for f in files)):
        return "shuffled"
    from ..sources.readers import detect_input_layout

    return detect_input_layout(files)


class DedupPipeline(CheckpointedPipeline):
    """Dedup a batch of transcripts against ``self.chain``, the prior
    checkpoint chain, which is empty here: a full run."""

    def __init__(self, config: DedupConfig, checkpoint_dir: str | None = None):
        super().__init__(config.to_dict(), checkpoint_dir)
        self.cfg = config
        self.chain: list = []
        ensure_hash_shuffle()

    def _resolve_layout(self, transcripts_ds, input_paths=None) -> str:
        resolved = resolve_input_layout(self.cfg.input_layout,
                                        transcripts_ds,
                                        input_paths=input_paths)
        if self.cfg.input_layout == "auto":
            self.metrics["input_layout_resolved"] = resolved
        return resolved

    # ---- pipeline ---------------------------------------------------------
    def run(self, transcripts_ds, *, input_fingerprint: str = "",
            signer_concurrency=None, input_paths=None):
        cfg, chain = self.cfg, self.chain
        t_start = time.time()
        # regime-gated block cap: small blocks raise map parallelism in
        # the in-memory regime but inflate spill object counts at scale
        # (stages/context.apply_block_cap)
        self.metrics["block_cap_applied"] = apply_block_cap(
            cfg.target_block_bytes, transcripts_ds.count())
        layout = self._resolve_layout(transcripts_ds, input_paths)

        # assembled IS materialized: fusing read -> repartition -> assemble
        # -> sign into one streaming chain measured ~2x slower than
        # stage-wise execution (same pathology as fusing the verify joins)
        assembled, fp = self._stage(
            "assembled", input_fingerprint,
            lambda: assemble(transcripts_ds, cfg.num_partitions,
                             input_layout=layout),
        )
        # the corpus seen so far: the prior chain's surfaces plus this
        # batch. Reads prune at the read: Ray 2.49 does not push a later
        # select_columns into read_parquet
        texts, ids = assembled, assembled
        if chain:
            texts = _union_surface(chain, "assembled", ["conv_id", "text"]) \
                .union(assembled.select_columns(["conv_id", "text"]))
            ids = _union_surface(chain, "assembled", ["conv_id"]) \
                .union(assembled.select_columns(["conv_id"]))
        # dense-id bridge: built once per run from every conv id the run
        # can meet (deterministic, so resumed runs rebuild it
        # identically); every stage below keys its shuffles on u64
        # ranks when it is present
        bridge = (build_bridge(ids, max_bytes=cfg.bridge_max_bytes)
                  if cfg.dense_ids else None)
        self.metrics["dense_ids"] = bridge is not None
        # keep_text=False: texts stay in the assembled table only; the
        # containment pass pulls just the texts it needs from there
        signatures, fp = self._stage(
            "signatures", fp,
            lambda: sign(assembled, cfg, concurrency=signer_concurrency,
                         keep_text=False),
        )
        sigs, band_filter, new_ids_ref = signatures, None, None
        if chain:
            # the pair branches are the first stages to read the chain
            fp += json.dumps([os.path.abspath(d) for d in chain])
            sigs = _union_surface(chain, "signatures", _SIG_COLS) \
                .union(signatures.select_columns(_SIG_COLS))
            # corpus-side band rows are emitted ONLY for buckets the
            # batch touches: a bucket with no new conv can only produce
            # old-old pairs, which new_only drops anyway — so the
            # prefilter is exact and the band shuffle volume tracks the
            # batch's collisions, not the corpus
            band_filter = _sorted_set_ref(signatures, "bands")
            # the batch is the small side by construction (a daily
            # batch vs the corpus): broadcast its conv-id hashes
            new_ids = gather_table(
                signatures.select_columns(["conv_id"]),
                schema=pa.schema([("conv_id", pa.string())]))
            h_new, _ = hash_strings(as_array(new_ids.column("conv_id")))
            new_ids_ref = ray.put(np.unique(h_new))

        def new_only(pairs_ds):
            if new_ids_ref is None:
                return pairs_ds
            return pairs_ds.map_batches(
                functools.partial(_touches_new, new_ids_ref=new_ids_ref),
                batch_format="pyarrow", zero_copy_batch=True)

        # pairs stay band-deduped only; the (a, b) dedup happens for free
        # inside verify's first co-partition join (saves one all-to-all)
        def band_branch():
            return self._stage(
                "pairs", fp,
                lambda: new_only(candidate_pairs(
                    sigs, cfg, dedup=False, bridge_ref=bridge,
                    band_filter_ref=band_filter)))

        def turn_branch():
            # turn_hashes is its own checkpoint surface so later
            # increments block a new batch against the old corpus
            # without re-reading it. single consumer -> lazy in
            # no-checkpoint mode; checkpoint mode still writes it
            hashes, fp_th = self._stage(
                "turn_hashes", fp,
                lambda: turn_hash_dataset(transcripts_ds, cfg),
                materialize=False,
            )
            hash_filter = None
            if chain:
                # same prefilter as the band branch: only turn hashes
                # present in the batch can form a new pair
                hash_filter = _sorted_set_ref(hashes, "h")
                hashes = _prior_turn_hashes(chain, cfg).union(hashes)
            return self._stage(
                "turn_pairs", fp_th,
                lambda: new_only(pairs_from_hashes(
                    hashes, cfg, bridge_ref=bridge,
                    hash_filter_ref=hash_filter)))

        # two driver threads overlap the branches' shuffles on sessions
        # of >= 8 CPUs; on smaller ones two concurrent hash shuffles
        # starve each other's aggregators (the 4-CPU scaling leg crawled
        # at load 0.85), so one thread runs them in submission order.
        # The manifest lock serializes bookkeeping.
        workers = 2 if ray.cluster_resources().get("CPU", 0) >= 8 else 1
        with concurrent.futures.ThreadPoolExecutor(workers) as ex:
            branches = [ex.submit(band_branch)]
            if cfg.turn_block:
                branches.append(ex.submit(turn_branch))
            results = [f.result() for f in branches]
        pairs = results[0][0]
        for ds, _fp in results[1:]:
            pairs = pairs.union(ds)
        fp = "".join(f for _ds, f in results)  # downstream reads both

        # verified IS materialized: fusing its two co-partition joins into
        # the clustering chain makes the streaming executor schedule both
        # repartitions + union branches concurrently, ~6x slower than
        # stage-wise execution (measured at 200k convs)
        verified, fp = self._stage(
            "verified", fp,
            lambda: verify_pairs(pairs, sigs, cfg, dedup_pairs=True,
                                 texts_ds=texts, bridge_ref=bridge),
        )
        edges = verified.filter(expr="is_dup == True").select_columns(["a", "b"])
        if chain:
            # old connectivity re-enters as (member, label) edges
            # (connectivity-equivalent to the old edge set, O(nodes)
            # instead of O(edges)); labels are cumulative, so the last
            # checkpoint of the chain holds them all
            edges = _union_surface(chain[-1:], "clusters").map_batches(
                _label_edges, batch_format="pyarrow",
                zero_copy_batch=True).union(edges)

        def ckpt_round(rnd, labels_ds):
            if self.ckpt:
                labels_ds.write_parquet(
                    os.path.join(self.ckpt, f"unionfind_round_{rnd}"))

        clusters, fp = self._stage(
            "clusters", fp,
            lambda: cluster_edges(edges, cfg.num_partitions,
                                  checkpoint_cb=ckpt_round,
                                  bridge_ref=bridge),
        )
        self.metrics["total_sec"] = round(time.time() - t_start, 3)
        self._write_metrics()
        return {
            "assembled": assembled,
            "signatures": signatures,
            "pairs": pairs,
            "verified": verified,
            "clusters": clusters,
            "metrics": self.metrics,
        }


def _union_surface(chain, name: str, columns=None):
    """One checkpoint surface unioned across a checkpoint chain (each
    entry holds only its own batch). ``columns`` prunes at the read."""
    out = None
    for d in chain:
        part = ray.data.read_parquet(os.path.join(d, name), columns=columns)
        out = part if out is None else out.union(part)
    return out


def _prior_turn_hashes(chain, config: DedupConfig):
    """The chain's (conv_id, h) turn-hash rows; checkpoints written
    before the turn_hashes surface re-derive them from assembled text."""
    if all(os.path.isdir(os.path.join(d, "turn_hashes")) for d in chain):
        return _union_surface(chain, "turn_hashes")
    return hashes_from_assembled(
        _union_surface(chain, "assembled", ["conv_id", "text"]), config)


def _sorted_set_ref(ds, col: str):
    """``ray.put`` of the sorted distinct u64 values of ``col`` (a u64
    column, or a list of u64 that is flattened) over ``ds``."""
    def uniq(b: pa.Table) -> pa.Table:
        arr = as_array(b.column(col))
        if not pa.types.is_integer(arr.type):
            arr = arr.flatten()
        return pa.table({"h": pa.array(
            np.unique(arr.to_numpy(zero_copy_only=False)),
            type=pa.uint64())})

    parts = [blk.column("h").to_numpy(zero_copy_only=False)
             for blk in ds.select_columns([col]).map_batches(
                 uniq, batch_format="pyarrow", zero_copy_batch=True)
             .iter_batches(batch_size=None, batch_format="pyarrow")
             if len(blk)]
    return ray.put(np.unique(np.concatenate(parts)) if parts
                   else np.empty(0, dtype=np.uint64))


def _touches_new(batch: pa.Table, new_ids_ref) -> pa.Table:
    """Keep the pairs with at least one conv in the new batch."""
    if len(batch) == 0:
        return batch
    ids = ray.get(new_ids_ref)

    def isin(col):
        h, _ = hash_strings(as_array(batch.column(col)))
        return _in_sorted(h, ids)

    return batch.filter(pa.array(isin("a") | isin("b")))


def _label_edges(b: pa.Table) -> pa.Table:
    """(conv_id, cluster_id) rows -> (member, label) edges; the cluster
    centers' self-loops are harmless to union-find but dropped."""
    a = b.column("conv_id").cast(pa.string())
    lab = b.column("cluster_id").cast(pa.string())
    return pa.table({"a": a, "b": lab}).filter(pc.not_equal(a, lab))


def run_dedup(
    transcripts_ds,
    config: DedupConfig | None = None,
    checkpoint_dir: str | None = None,
    **kwargs,
):
    cfg = config or DedupConfig()
    return DedupPipeline(cfg, checkpoint_dir).run(transcripts_ds, **kwargs)


# ---------------------------------------------------------------------------
# incremental dedup against an existing checkpoint
# ---------------------------------------------------------------------------

class IncrementalDedupPipeline(DedupPipeline):
    """Dedup a NEW batch of transcripts against a prior run's checkpoint
    without re-signing the existing corpus — the mergeability contract
    the reference's sketches promise (hll/union.go:151-158: a union
    gadget folds previously-serialized state with fresh updates) applied
    to the whole pipeline.

    ``against`` is one checkpoint dir or a CHAIN of them (the original
    full run plus each prior increment's checkpoint, in order). It runs
    the one ``DedupPipeline.run`` body with that chain; the full run is
    the same body with an empty chain. What only a non-empty chain adds:
      * the chain's ``signatures`` (old convs are never re-assembled or
        re-signed), ``assembled`` texts (containment pass, and the
        dense-id bridge next to the batch's ids) and ``turn_hashes``;
      * band-hash and turn-hash prefilters on the corpus-side rows, and
        dropping every pair that touches no new conv — the work per
        increment is proportional to the increment + its collisions,
        not to the corpus;
      * the last entry's ``clusters`` re-entering union-find as
        (member, label) edges;
      * the chain's paths in the pair branches' fingerprints, so a run
        against another chain never resumes stale pairs.

    Equivalence: dedup(A), then incremental(B) ==
    dedup(A ∪ B) cluster-for-cluster (pinned by pytest) — min-id labels
    are order-independent and union-find is associative, exactly like
    the reference's sketch merges.
    """

    def __init__(self, config: DedupConfig, against,
                 checkpoint_dir: str | None = None):
        super().__init__(config, checkpoint_dir)
        self.chain = [against] if isinstance(against, str) else list(against)


def run_dedup_incremental(
    new_transcripts_ds,
    against: str,
    config: DedupConfig | None = None,
    checkpoint_dir: str | None = None,
    **kwargs,
):
    """Dedup ``new_transcripts_ds`` against the checkpoint at ``against``
    (a prior ``run_dedup(..., checkpoint_dir=...)`` output)."""
    cfg = config or DedupConfig()
    return IncrementalDedupPipeline(cfg, against, checkpoint_dir) \
        .run(new_transcripts_ds, **kwargs)


def delete_convs(
    against,
    removed_conv_ids,
    config: DedupConfig | None = None,
    checkpoint_dir: str | None = None,
):
    """Right-to-be-forgotten deletion from a dedup checkpoint (or chain):
    drop a set of conversations and re-derive cluster labels WITHOUT
    re-assembling, re-signing or re-verifying the surviving corpus.

    Deletion cannot reuse the checkpointed cluster labels the way an
    increment can: labels are connectivity-equivalent to the edge set
    only while every member stays — removing a bridge conversation must
    SPLIT its cluster, and (member, label) edges would keep the remnant
    connected through the label node. So deletion re-clusters from the
    checkpointed VERIFIED edge set (union across the chain: the full
    run verified every candidate pair; each increment verified every
    pair touching its batch — together the complete true dup graph over
    the current corpus), filtered to edges with both endpoints
    surviving.

    Exactness: equal to a from-scratch dedup of the surviving corpus
    whenever the band-group / turn-bucket hot caps did not bind in the
    original runs (pinned by pytest); when caps did bind, candidate
    pairs suppressed by the removed convs' bucket load are not
    rediscovered — a conservative under-merge, never a false merge.

    The removal set is the small side by construction (deletion
    requests vs the corpus): it broadcasts once via ``ray.put`` as an
    exact Arrow string array (``pc.is_in`` membership — no hashing, so
    no collision can delete an innocent conversation).

    With ``checkpoint_dir``, writes a CONSOLIDATED checkpoint (filtered
    assembled / signatures / turn_hashes / verified + new clusters), so
    future incrementals chain off this single dir instead of the whole
    prior chain.
    """
    cfg = config or DedupConfig()
    ensure_hash_shuffle()
    t_start = time.time()
    chain = [against] if isinstance(against, str) else list(against)

    ids = sorted({str(c) for c in removed_conv_ids})
    removed_ref = ray.put(pa.array(ids, type=pa.string()))

    def _drop(cols):
        def fn(b: pa.Table) -> pa.Table:
            if len(b) == 0:
                return b
            rem = ray.get(removed_ref)
            keep = None
            for col in cols:
                m = pc.invert(pc.is_in(
                    b.column(col).cast(pa.string()), value_set=rem))
                keep = m if keep is None else pc.and_(keep, m)
            return b.filter(keep)
        return fn

    metrics = {"stages": {}, "removed": len(ids), "chain": len(chain)}
    out = {}
    for name, cols in (
        ("assembled", ["conv_id"]),
        ("signatures", ["conv_id"]),
        ("turn_hashes", ["conv_id"]),
        ("verified", ["a", "b"]),
    ):
        # turn_hashes is the one optional surface (older checkpoints)
        dirs = [d for d in chain if name != "turn_hashes"
                or os.path.isdir(os.path.join(d, name))]
        if not dirs:
            continue
        src = _union_surface(dirs, name)
        t0 = time.time()
        ds = src.map_batches(_drop(cols), batch_format="pyarrow",
                             zero_copy_batch=True)
        if checkpoint_dir:
            d = os.path.join(checkpoint_dir, name)
            ds.write_parquet(d)
            # an empty dataset writes no files; keep the in-memory result
            ds = (ray.data.read_parquet(d) if os.path.isdir(d)
                  else ds.materialize())
        else:
            ds = ds.materialize()
        metrics["stages"][name] = {"rows": ds.count(),
                                   "sec": round(time.time() - t0, 3)}
        out[name] = ds

    t0 = time.time()
    edges = out["verified"].filter(expr="is_dup == True") \
        .select_columns(["a", "b"])
    clusters = cluster_edges(edges, cfg.num_partitions)
    if checkpoint_dir:
        d = os.path.join(checkpoint_dir, "clusters")
        clusters.write_parquet(d)
        clusters = (ray.data.read_parquet(d) if os.path.isdir(d)
                    else clusters.materialize())
    else:
        clusters = clusters.materialize()
    metrics["stages"]["clusters"] = {"rows": clusters.count(),
                                     "sec": round(time.time() - t0, 3)}
    metrics["total_sec"] = round(time.time() - t_start, 3)
    if checkpoint_dir:
        with open(os.path.join(checkpoint_dir, "metrics.json"), "w") as f:
            json.dump(metrics, f, indent=2)
    out["clusters"] = clusters
    out["metrics"] = metrics
    return out
