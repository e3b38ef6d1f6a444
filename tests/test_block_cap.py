"""The engine's whole-key-per-batch invariant must survive the
dynamic-block-split cap: hash-shuffle output partitions arrive as ONE
map_batches(batch_size=None) batch even when they exceed
target_max_block_size (every keyed fold in the engine relies on
this)."""

import numpy as np
import pyarrow as pa


def test_keyed_partition_survives_small_block_cap(ray_session):
    import ray.data

    ctx = ray.data.DataContext.get_current()
    old = ctx.target_max_block_size
    try:
        ctx.target_max_block_size = 1 << 20  # 1 MiB
        n_hot = 60_000
        t = pa.table({
            "k": pa.array(np.concatenate(
                [np.zeros(n_hot, dtype=np.int64),
                 np.arange(1, 500, dtype=np.int64)])),
            "v": pa.array(["x" * 200] * n_hot + ["y"] * 499,
                          type=pa.string()),
        })
        ds = ray.data.from_arrow(t).repartition(6) \
            .repartition(4, keys=["k"])

        def check(b):
            ks = b.column("k").to_numpy(zero_copy_only=False)
            return pa.table({
                "n_hot": pa.array([int((ks == 0).sum())],
                                  type=pa.int64()),
            })

        out = ds.map_batches(check, batch_format="pyarrow",
                             batch_size=None,
                             zero_copy_batch=True).to_pandas()
        # the ~12 MB hot partition (>> 1 MiB cap) lands whole in ONE
        # batch — never split across map invocations
        assert out["n_hot"].max() == n_hot
        assert out["n_hot"].sum() == n_hot
    finally:
        ctx.target_max_block_size = old


def _fail(*_a, **_k):
    raise RuntimeError("cluster_resources unavailable")


def test_apply_block_cap_raises_on_failed_resource_probe(monkeypatch):
    """A failing object-store probe is an error, not a silent no-cap."""
    import pytest
    import ray

    from apache_datasketches_go_ray.stages.context import apply_block_cap

    monkeypatch.setattr(ray, "cluster_resources", _fail)
    with pytest.raises(RuntimeError, match="cluster_resources"):
        apply_block_cap(16 << 20, 1000)


def test_sign_raises_on_failed_block_split_probe(ray_session, monkeypatch):
    """sign's block-split sizing fails loudly instead of signing from
    unsplit blocks."""
    import pytest
    import ray
    import ray.data

    from apache_datasketches_go_ray.config import DedupConfig
    from apache_datasketches_go_ray.stages.signature import sign

    ds = ray.data.from_arrow(pa.table({
        "conv_id": ["c0", "c1"], "text": ["a b c d", "e f g h"],
        "n_turns": pa.array([1, 1], type=pa.int32())})).materialize()
    monkeypatch.setattr(ray, "cluster_resources", _fail)
    with pytest.raises(RuntimeError, match="cluster_resources"):
        sign(ds, DedupConfig())
