"""Ray Data execution-context knobs for the engine.

The engine's wide stages (band grouping, pair dedup, verification joins,
union-find exchange) are built on key-colocating hash shuffles
(``Dataset.repartition(num_blocks, keys=[...])``), which require the
HASH_SHUFFLE strategy in Ray 2.49. ``ensure_hash_shuffle`` flips it once
per process. Never calls ``ray.init``.
"""

from __future__ import annotations


def ensure_hash_shuffle() -> None:
    from ray.data.context import DataContext, ShuffleStrategy

    ctx = DataContext.get_current()
    if ctx.shuffle_strategy != ShuffleStrategy.HASH_SHUFFLE:
        ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE


def auto_partitions(n_rows: int, rows_per_part: int, cap: int) -> int:
    """Shuffle-partition count sized to the data: tiny inputs don't pay
    for `cap` micro-blocks (per-task scheduling overhead dominates small
    shuffles), huge inputs still spread to `cap`. Deterministic in the
    row count, so resumed/re-run pipelines shuffle identically."""
    if n_rows <= 0:
        return 1
    return int(min(cap, max(1, -(-n_rows // rows_per_part))))


def gather_table(ds, schema=None):
    """Materialize a (small) Dataset into one local pyarrow.Table.

    Zero-row blocks out of a union/repartition can carry an EMPTY schema
    when the read splits into many blocks (observed with SplitBlocks at
    num_cpus=32) and ``pa.concat_tables`` rejects the mixed schemas —
    so empty blocks are dropped first, and when *every* block is empty
    the dataset's own schema (or the ``schema`` fallback) supplies an
    empty table. Only call this on bounded small sides (broadcast
    tables, winner sets, shrunken edge lists)."""
    import pyarrow as pa
    import ray

    # materialize first: to_arrow_refs() on a lazy dataset executes the
    # pipeline a second time for a limit-1 schema pass (which still runs
    # upstream shuffles) — see BASELINE.md "Single-execution gather fix"
    all_blocks = ray.get(ds.materialize().to_arrow_refs())
    blocks = [t for t in all_blocks if t.num_rows > 0]
    if blocks:
        return pa.concat_tables(blocks).combine_chunks()
    if schema is None:
        ds_schema = ds.schema(fetch_if_missing=False)
        if ds_schema is not None:
            schema = ds_schema.base_schema
        else:
            # all-empty dataset with unknown schema: recover from any
            # zero-row block that still carries real column metadata
            schema = next((t.schema for t in all_blocks
                           if t.schema.names), pa.schema([]))
    return schema.empty_table()


def apply_block_cap(cap_bytes: int | None, n_rows: int, *,
                    bytes_per_row: int = 1000) -> bool:
    """Apply the dynamic block-split cap ONLY in the in-memory regime.

    Smaller blocks raise map-task parallelism (the flagship's
    CPU-heavy signer measured 60.7 -> 45.5 s at sf0.1 with a 16 MiB
    cap) but inflate plasma object COUNT ~8x; at spill scale that
    drives the raylet's spill-worker pool into its known recursion
    crash (measured at 12M turns on a 37 GiB store), while default
    128 MiB blocks spill fine. Rule: cap when the estimated
    materialized working set (n_rows x bytes_per_row, calibrated on
    the flagship's ~1 KB/turn signature+assembled state) stays under a
    quarter of the object store — comfortably inside the no-spill
    regime. Returns True if the cap was applied."""
    if not cap_bytes:
        return False
    try:
        import ray as _ray
        import ray.data as _rd

        store = float(_ray.cluster_resources()
                      .get("object_store_memory", 0.0))
        if store and n_rows * bytes_per_row < 0.25 * store:
            _rd.DataContext.get_current().target_max_block_size = \
                int(cap_bytes)
            return True
    except Exception:
        pass
    return False
