"""Training-data curation pipeline over a documents table.

The composition a 100-TB pretraining-corpus pass runs, end-to-end on
the engine's stages, checkpointed per stage like the transcript dedup
pipeline:

  ingest (doc_id, text, ...) ->
  annotate  - vectorized quality stats + language ID (one map pass) ->
  filter    - lang allowlist + quality threshold + length bounds ->
  exact     - exact dedup (hash-partition by text hash, keep min id) ->
  near      - MinHash/LSH near-dedup, keep cluster representative ->
  curated   - surviving docs + per-stage lineage/metrics

Every stage is a stateless vectorized ``map_batches`` or a
hash-shuffle + in-block fold; the only all-to-alls are the exact-dedup
text-hash shuffle and the near-dedup band shuffle (both keyed, both
pre-shrunk by in-block combiners). Metrics record rows in/out per
stage so a corpus run reports its retention funnel.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..config import DedupConfig
from ..stages.context import auto_partitions, ensure_hash_shuffle
from ..stages.keyed import keyed_fold
from ..stages.textops import langid_batch, quality_stats_batch
from .base import CheckpointedPipeline


class CurateConfig:
    def __init__(self, *, min_quality: float = 0.35,
                 allowed_langs: tuple = ("en",),
                 min_chars: int = 20, max_chars: int = 1_000_000,
                 max_dup_line_frac: float | None = None,
                 max_top_bigram_char_frac: float | None = None,
                 redact_pii: bool = False,
                 num_partitions: int = 32,
                 dedup: DedupConfig | None = None):
        self.min_quality = min_quality
        self.allowed_langs = tuple(allowed_langs)
        self.min_chars = min_chars
        self.max_chars = max_chars
        # Gopher-style repetition gates (None = off): docs whose
        # duplicate-line / top-bigram character fractions exceed the
        # threshold are dropped in the filter stage
        self.max_dup_line_frac = max_dup_line_frac
        self.max_top_bigram_char_frac = max_top_bigram_char_frac
        # scrub emails/phones BEFORE anything hashes the text, so
        # dedup/fingerprints operate on the redacted corpus
        self.redact_pii = redact_pii
        self.num_partitions = num_partitions
        self.dedup = dedup or DedupConfig(num_partitions=num_partitions)

    def to_dict(self) -> dict:
        return {
            "min_quality": self.min_quality,
            "allowed_langs": list(self.allowed_langs),
            "min_chars": self.min_chars,
            "max_chars": self.max_chars,
            "max_dup_line_frac": self.max_dup_line_frac,
            "max_top_bigram_char_frac": self.max_top_bigram_char_frac,
            "redact_pii": self.redact_pii,
            "num_partitions": self.num_partitions,
            "dedup": self.dedup.to_dict(),
        }


def _annotate(batch: pa.Table, id_col: str, text_col: str,
              cfg: CurateConfig | None = None) -> pa.Table:
    sub = batch.select([id_col, text_col])
    if cfg is not None and cfg.redact_pii:
        from ..stages.textops import redact_pii_batch

        red = redact_pii_batch(sub, text_col=text_col)
        sub = pa.table({id_col: red.column(id_col),
                        text_col: red.column("redacted_text")})
    out = quality_stats_batch(sub, text_col=text_col, round_to=None)
    out = langid_batch(out, text_col=text_col)
    if cfg is not None and (cfg.max_dup_line_frac is not None
                            or cfg.max_top_bigram_char_frac is not None):
        from ..stages.textops import repetition_stats_batch

        out = repetition_stats_batch(out, text_col=text_col)
    return out


def _filter(batch: pa.Table, cfg: CurateConfig) -> pa.Table:
    keep = pc.and_(
        pc.and_(
            pc.greater_equal(batch.column("quality_score"),
                             cfg.min_quality),
            pc.is_in(batch.column("lang_pred"),
                     value_set=pa.array(list(cfg.allowed_langs))),
        ),
        pc.and_(
            pc.greater_equal(batch.column("n_chars"), cfg.min_chars),
            pc.less_equal(batch.column("n_chars"), cfg.max_chars),
        ),
    )
    if cfg.max_dup_line_frac is not None:
        keep = pc.and_(keep, pc.less_equal(
            batch.column("dup_line_frac"), cfg.max_dup_line_frac))
    if cfg.max_top_bigram_char_frac is not None:
        keep = pc.and_(keep, pc.less_equal(
            batch.column("top_bigram_char_frac"),
            cfg.max_top_bigram_char_frac))
    return batch.filter(keep)


def _exact_key(batch: pa.Table, id_col: str, text_col: str) -> pa.Table:
    from ..functions.murmur3 import hash_strings

    texts = batch.column(text_col)
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    h, _ = hash_strings(texts)
    return batch.append_column("__th", pa.array(h, type=pa.uint64()))


def _exact_keep_first(batch: pa.Table, id_col: str,
                      text_col: str) -> pa.Table:
    """Within a text-hash-partitioned block: keep the min-id row of each
    identical text (hash groups verified by the actual text)."""
    if len(batch) == 0:
        return batch.drop_columns(["__th"])
    th = batch.column("__th").to_numpy(zero_copy_only=False)
    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    texts = batch.column(text_col)
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    order = np.lexsort((ids, th))
    keep = np.zeros(len(th), dtype=bool)
    seen: dict = {}
    t_sorted = texts.take(pa.array(order))
    for pos, row in enumerate(order):
        key = (int(th[row]), t_sorted[pos].as_py())
        if key not in seen:
            seen[key] = True
            keep[row] = True
    return batch.filter(pa.array(keep)).drop_columns(["__th"])


class CuratePipeline(CheckpointedPipeline):
    def __init__(self, config: CurateConfig | None = None,
                 checkpoint_dir: str | None = None):
        cfg = config or CurateConfig()
        super().__init__(cfg.to_dict(), checkpoint_dir)
        self.cfg = cfg
        ensure_hash_shuffle()

    def run(self, docs_ds, *, id_col: str = "doc_id",
            text_col: str = "text", input_fingerprint: str = ""):
        cfg = self.cfg
        n_in = docs_ds.count()
        P = auto_partitions(n_in, 50_000, cfg.num_partitions)

        filtered, fp = self._stage(
            "filtered", input_fingerprint,
            lambda: docs_ds.map_batches(
                functools.partial(_annotate, id_col=id_col,
                                  text_col=text_col, cfg=cfg),
                batch_format="pyarrow", zero_copy_batch=True,
            ).map_batches(
                functools.partial(_filter, cfg=cfg),
                batch_format="pyarrow", zero_copy_batch=True,
            ))

        exact, fp = self._stage(
            "exact_dedup", fp,
            lambda: keyed_fold(
                filtered.map_batches(
                    functools.partial(_exact_key, id_col=id_col,
                                      text_col=text_col),
                    batch_format="pyarrow", zero_copy_batch=True),
                ["__th"],
                lambda b, _starts: _exact_keep_first(b, id_col, text_col),
                P, order_by=None))

        # near-dedup over the exact-deduped survivors: reuse the
        # transcript dedup machinery on (id, text) rows
        from ..stages.dedup_extras import minhash_dedup_documents

        def near_build():
            clusters = minhash_dedup_documents(
                exact.select_columns([id_col, text_col]), cfg.dedup,
                id_col=id_col, text_col=text_col)
            # representative = numeric min cluster_id == its own id
            def reps(b: pa.Table) -> pa.Table:
                cid = b.column("conv_id")
                cl = b.column("cluster_id")
                drop = pc.equal(cid, cl)
                return pa.table({"__drop_id": pc.cast(
                    b.filter(pc.invert(drop)).column("conv_id"),
                    pa.large_string())})
            return clusters.map_batches(reps, batch_format="pyarrow",
                                        zero_copy_batch=True)

        dropped, fp = self._stage("near_dup_drops", fp, near_build)

        blocks = [t for t in ray.get(dropped.materialize().to_arrow_refs())
                  if len(t) and "__drop_id" in t.column_names]
        if blocks:
            drop_tbl = pa.concat_tables(blocks).combine_chunks()
            drop_ids = drop_tbl.column("__drop_id").cast(pa.large_string())
        else:  # no near-duplicates found anywhere
            drop_ids = pa.array([], type=pa.large_string())
        drop_set_ref = ray.put(pa.table({"__drop_id": drop_ids}))

        def remove_drops(batch: pa.Table, ref) -> pa.Table:
            import ray as _ray
            from ..stages.join import _RIGHT_CACHE

            key = ref.hex() if hasattr(ref, "hex") else id(ref)
            drops = _RIGHT_CACHE.get(key)
            if drops is None:
                drops = _ray.get(ref)
                _RIGHT_CACHE[key] = drops
            ids = pc.cast(batch.column(id_col), pa.large_string())
            mask = pc.invert(pc.is_in(
                ids, value_set=drops.column("__drop_id").combine_chunks()))
            return batch.filter(mask)

        curated, fp = self._stage(
            "curated", fp,
            lambda: exact.map_batches(
                functools.partial(remove_drops, ref=drop_set_ref),
                batch_format="pyarrow", zero_copy_batch=True))

        self.metrics["rows_in"] = n_in
        self.metrics["rows_out"] = self.metrics["stages"]["curated"].get(
            "rows")
        self._write_metrics()
        return {"curated": curated, "dropped_near": dropped,
                "metrics": self.metrics}


def run_curate(docs_ds, config: CurateConfig | None = None,
               checkpoint_dir: str | None = None, **kwargs):
    return CuratePipeline(config, checkpoint_dir).run(docs_ds, **kwargs)
