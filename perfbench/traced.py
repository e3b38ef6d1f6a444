"""Traced run: per-layer numbers for the dedup benchmark (``--trace 1``).

Three sources, all measured from the benchmark's own files:

* the untraced round the run already made: Ray worker processes started
  during it, the incremental run's own ``metrics["stages"]`` seconds, and
  the bytes of each checkpoint surface (run.py adds the round's peak
  object-store use);
* a stage-by-stage dedup of the same corpus that calls the engine's stage
  functions in pipeline order, materializes each output, and wraps each
  call in a span (name, start, end, parent);
* a kernel pass on one core with no Ray, over the workload's own texts in
  512-conversation batches.

Spans are kept in memory and written to ``.pbw/spans-<workload>-<seed>.json``
when the run ends.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

import numpy as np
import pyarrow as pa

# the engine's stage names: incremental-run stage seconds and checkpoint
# surface directories are reported for each
STAGES = ("assembled", "signatures", "pairs", "turn_hashes", "turn_pairs",
          "verified", "clusters")
PER_LAYER = [
    ("ray.worker_processes", "count"), ("peak_store_mb", "MB"),
    ("sources.read_s", "s"), ("sources.turns", "count"),
    ("sources.bytes", "bytes"),
    ("assemble.s", "s"), ("assemble.rows_out", "count"),
    ("assemble.bytes_out", "bytes"),
    ("ids.s", "s"), ("ids.bridge_on", "bool"),
    ("signature.s", "s"), ("signature.convs_per_s", "convs/s"),
    ("signature.bytes_out", "bytes"),
    ("lsh.hot_detect_s", "s"), ("lsh.hot_bands", "count"), ("lsh.s", "s"),
    ("lsh.band_rows", "count"), ("lsh.pairs_out", "count"),
    ("turnblock.hash_s", "s"), ("turnblock.hash_rows", "count"),
    ("turnblock.s", "s"), ("turnblock.pairs_out", "count"),
    ("verify.s", "s"), ("verify.pairs_in", "count"),
    ("verify.dup_edges", "count"), ("verify.containment_edges", "count"),
    ("verify.yield", "ratio"),
    ("cluster.s", "s"), ("cluster.edges_in", "count"),
    ("cluster.rounds", "count"), ("cluster.clustered_convs", "count"),
    *((f"incremental.{st}.s", "s") for st in STAGES),
    *((f"checkpoint.{st}.mb", "MB") for st in STAGES),
    ("trace.dedup_s", "s"), ("trace.span_cover", "ratio"),
    ("trace.overhead_s", "s"),
    ("kernel.tokenize.convs_per_s", "convs/s"),
    ("kernel.shingle.convs_per_s", "convs/s"),
    ("kernel.minhash.convs_per_s", "convs/s"),
    ("kernel.bands.convs_per_s", "convs/s"),
    ("kernel.turn_hash.mb_per_s", "MB/s"),
    ("kernel.jaccard.pairs_per_s", "pairs/s"),
    ("kernel.lcs.pairs_per_s", "pairs/s"),
    ("kernel.unionfind.edges_per_s", "edges/s"),
]
KERNEL_BATCH = 512
PAIR_BATCH = 1024
LCS_PAIRS = 64
MIN_KERNEL_S = 0.25          # repeat a small kernel pass until this long


class Tracer:
    def __init__(self):
        self.spans: list = []

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": parent,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        try:
            yield sid
        finally:
            rec["end"] = time.perf_counter()

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def cover(self, root: int) -> float:
        """Share of the root span covered by its direct children."""
        r = self.spans[root]
        kids = sum(s["end"] - s["start"] for s in self.spans
                   if s["parent"] == root)
        return kids / (r["end"] - r["start"])

    def write(self, path: str) -> None:
        t0 = min(s["start"] for s in self.spans)
        with open(path, "w") as f:
            json.dump([dict(s, start=s["start"] - t0, end=s["end"] - t0)
                       for s in self.spans], f, indent=1)


def traced_dedup(paths: dict, cfg, tracer: Tracer) -> dict:
    """The pipeline's stages in its own order (sequential branch form),
    each materialized inside its span. Returns counts per layer."""
    import ray.data
    from apache_datasketches_go_ray.stages.assemble import assemble
    from apache_datasketches_go_ray.stages.cluster import cluster_edges
    from apache_datasketches_go_ray.stages.context import (
        apply_block_cap, ensure_hash_shuffle)
    from apache_datasketches_go_ray.stages.ids import build_bridge
    from apache_datasketches_go_ray.stages.lsh import (
        candidate_pairs, detect_hot_bands)
    from apache_datasketches_go_ray.stages.signature import sign
    from apache_datasketches_go_ray.stages.turnblock import (
        pairs_from_hashes, turn_hash_dataset)
    from apache_datasketches_go_ray.stages.verify import verify_pairs

    from gen import READ_COLUMNS

    ensure_hash_shuffle()
    rounds = []
    m: dict = {}
    with tracer.span("dedup") as root:
        with tracer.span("sources.read", root):
            src = ray.data.read_parquet(paths["corpus"],
                                        columns=READ_COLUMNS).materialize()
        m["sources.turns"] = src.count()
        m["sources.bytes"] = src.size_bytes()
        apply_block_cap(cfg.target_block_bytes, m["sources.turns"])
        with tracer.span("assemble", root):
            assembled = assemble(src, cfg.num_partitions).materialize()
        with tracer.span("ids", root):
            bridge = (build_bridge(assembled, max_bytes=cfg.bridge_max_bytes)
                      if cfg.dense_ids else None)
        with tracer.span("signature", root):
            sigs = sign(assembled, cfg, keep_text=False).materialize()
        with tracer.span("lsh", root):
            pairs = candidate_pairs(sigs, cfg, dedup=False,
                                    bridge_ref=bridge).materialize()
        with tracer.span("turnblock.hash", root):
            hashes = turn_hash_dataset(src, cfg).materialize()
        with tracer.span("turnblock", root):
            tpairs = pairs_from_hashes(hashes, cfg,
                                       bridge_ref=bridge).materialize()
        with tracer.span("verify", root):
            verified = verify_pairs(pairs.union(tpairs), sigs, cfg,
                                    dedup_pairs=True, texts_ds=assembled,
                                    bridge_ref=bridge).materialize()
        with tracer.span("cluster", root):
            edges = verified.filter(expr="is_dup == True") \
                .select_columns(["a", "b"])
            clusters = cluster_edges(
                edges, cfg.num_partitions, bridge_ref=bridge,
                checkpoint_cb=lambda rnd, _ds: rounds.append(rnd),
            ).materialize()
    span = tracer.spans[root]
    m["trace.dedup_s"] = span["end"] - span["start"]
    m["trace.span_cover"] = tracer.cover(root)
    # probe outside the dedup span: candidate_pairs runs the same hot-band
    # detection inside lsh.s; this repeat isolates its cost and result
    with tracer.span("lsh.hot_detect"):
        hot = detect_hot_bands(sigs, cfg)

    n_sig = sigs.count()
    pairs_out, tpairs_out = pairs.count(), tpairs.count()
    dup = verified.filter(expr="is_dup == True").count()
    n_verified = verified.count()
    m.update({
        "sources.read_s": tracer.seconds("sources.read"),
        "assemble.s": tracer.seconds("assemble"),
        "assemble.rows_out": assembled.count(),
        "assemble.bytes_out": assembled.size_bytes(),
        "ids.s": tracer.seconds("ids"),
        "ids.bridge_on": int(bridge is not None),
        "signature.s": tracer.seconds("signature"),
        "signature.convs_per_s": n_sig / tracer.seconds("signature"),
        "signature.bytes_out": sigs.size_bytes(),
        "lsh.hot_detect_s": tracer.seconds("lsh.hot_detect"),
        "lsh.hot_bands": len(hot),
        "lsh.s": tracer.seconds("lsh"),
        "lsh.band_rows": n_sig * cfg.num_bands,
        "lsh.pairs_out": pairs_out,
        "turnblock.hash_s": tracer.seconds("turnblock.hash"),
        "turnblock.hash_rows": hashes.count(),
        "turnblock.s": tracer.seconds("turnblock"),
        "turnblock.pairs_out": tpairs_out,
        "verify.s": tracer.seconds("verify"),
        "verify.pairs_in": pairs_out + tpairs_out,
        "verify.dup_edges": dup,
        "verify.containment_edges": verified.filter(
            expr="method == 'containment'").count(),
        "verify.yield": dup / n_verified if n_verified else 0.0,
        "cluster.s": tracer.seconds("cluster"),
        "cluster.edges_in": dup,
        "cluster.rounds": len(rounds),
        "cluster.clustered_convs": clusters.count(),
    })
    tbl = verified.select_columns(
        ["a", "b", "jaccard", "containment", "is_dup"]).to_arrow_refs()
    import ray

    blocks = [b for b in ray.get(tbl) if b.num_rows]
    m["_verified"] = pa.concat_tables(blocks) if blocks else None
    return m


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _rate(work: float, fn) -> float:
    """work / seconds of ``fn()``, repeating it until MIN_KERNEL_S."""
    reps, spent = 0, 0.0
    while spent < MIN_KERNEL_S:
        spent += _timed(fn)[1]
        reps += 1
    return work * reps / spent


def kernels(inp, cfg, verified) -> dict:
    """Single-core kernel throughput, no Ray, on the workload's texts."""
    from apache_datasketches_go_ray.functions.jaccard import (
        intersect_sizes_pairs)
    from apache_datasketches_go_ray.functions.minhash import (
        band_keys, perm_keys, signatures)
    from apache_datasketches_go_ray.functions.murmur3 import hash_strings
    from apache_datasketches_go_ray.functions.shingle import (
        shingle_hashes, tokenize_column)
    from apache_datasketches_go_ray.functions.suffixarray import (
        longest_common_substring)
    from apache_datasketches_go_ray.state.unionfind import (
        connected_components_numpy)

    from checks import TURN_SEP

    ids = sorted(c for c in inp.convs if c not in inp.increment)
    keys = perm_keys(cfg.num_perms, cfg.perm_seed)
    sec = dict.fromkeys(("tokenize", "shingle", "minhash", "bands",
                         "turn_hash"), 0.0)
    turn_bytes = 0
    sh_of: dict = {}
    for i in range(0, len(ids), KERNEL_BATCH):
        batch = ids[i:i + KERNEL_BATCH]
        texts = pa.array([TURN_SEP.join(inp.convs[c]) for c in batch],
                         type=pa.string())
        (tok, off), s = _timed(tokenize_column, texts)
        sec["tokenize"] += s
        (flat, soff), s = _timed(shingle_hashes, tok, off, cfg.shingle_k)
        sec["shingle"] += s
        sigs, s = _timed(signatures, flat, soff, keys)
        sec["minhash"] += s
        sec["bands"] += _timed(band_keys, sigs, cfg.num_bands,
                               cfg.rows_per_band)[1]
        turns = pa.array([t for c in batch for t in inp.convs[c]],
                         type=pa.string())
        turn_bytes += turns.nbytes
        sec["turn_hash"] += _timed(hash_strings, turns)[1]
        for j, c in enumerate(batch):
            sh_of[c] = flat[soff[j]:soff[j + 1]]
    out = {f"kernel.{k}.convs_per_s": len(ids) / sec[k]
           for k in ("tokenize", "shingle", "minhash", "bands")}
    out["kernel.turn_hash.mb_per_s"] = turn_bytes / 1e6 / sec["turn_hash"]

    a = verified.column("a").to_pylist()
    b = verified.column("b").to_pylist()
    pairs = [(x, y) for x, y in zip(a, b) if x in sh_of and y in sh_of]

    def jaccard_pass():
        for i in range(0, len(pairs), PAIR_BATCH):
            chunk = pairs[i:i + PAIR_BATCH]
            fa = [sh_of[x] for x, _ in chunk]
            fb = [sh_of[y] for _, y in chunk]
            intersect_sizes_pairs(
                np.concatenate(fa), np.array([len(x) for x in fa]),
                np.concatenate(fb), np.array([len(y) for y in fb]))

    out["kernel.jaccard.pairs_per_s"] = _rate(len(pairs), jaccard_pass)

    # containment candidates: the pairs verify sends to the text pass
    jac = verified.column("jaccard").to_numpy()
    con = verified.column("containment").to_numpy()
    need = np.flatnonzero((jac < cfg.jaccard_threshold)
                          & (con >= cfg.containment_threshold))
    lcs_pairs = [(a[i], b[i]) for i in need[:LCS_PAIRS]]
    texts = {c: TURN_SEP.join(t) for c, t in inp.convs.items()}

    def lcs_pass():
        for x, y in lcs_pairs:
            longest_common_substring(texts[x], texts[y])

    out["kernel.lcs.pairs_per_s"] = (_rate(len(lcs_pairs), lcs_pass)
                                     if lcs_pairs else 0.0)

    is_dup = verified.column("is_dup").to_numpy(zero_copy_only=False)
    ea = np.asarray(a, dtype=object)[is_dup]
    eb = np.asarray(b, dtype=object)[is_dup]
    uniq, inv = np.unique(np.concatenate([ea, eb]), return_inverse=True)
    u, v = inv[:len(ea)], inv[len(ea):]
    out["kernel.unionfind.edges_per_s"] = _rate(
        len(ea), lambda: connected_components_numpy(u, v, len(uniq)))
    return out


def per_layer(rnd: dict, inp, paths: dict, cfg, work: str,
              spans_path: str) -> dict:
    """Every PER_LAYER metric by name, from the untraced round ``rnd``
    (whose checkpoint is still under ``work``), a traced stage-by-stage
    dedup and the kernel pass."""
    from gen import dir_bytes

    m = {"ray.worker_processes": rnd["worker_processes"]}
    stages = rnd["inc"]["metrics"]["stages"]
    for st in STAGES:
        # a stage the engine no longer runs reads 0 s / 0 MB
        m[f"incremental.{st}.s"] = float(stages.get(st, {}).get("sec", 0.0))
        d = os.path.join(work, "ckpt", st)
        m[f"checkpoint.{st}.mb"] = (dir_bytes(d) / 1e6 if os.path.isdir(d)
                                    else 0.0)
    tracer = Tracer()
    m.update(traced_dedup(paths, cfg, tracer))
    verified = m.pop("_verified")
    m["trace.overhead_s"] = m["trace.dedup_s"] - rnd["full_s"]
    with tracer.span("kernels"):
        m.update(kernels(inp, cfg, verified))
    tracer.write(spans_path)
    return m
