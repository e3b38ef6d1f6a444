"""Incremental dedup vs checkpoint: dedup(A) + incremental(B) must equal
dedup(A ∪ B) cluster-for-cluster (the pipeline-level analogue of the
reference's sketch-merge contract, hll/union.go:151-158)."""

import shutil

import numpy as np
import pyarrow.parquet as pq
import pytest

from apache_datasketches_go_ray.config import DedupConfig
from apache_datasketches_go_ray.sources.transcripts import write_transcripts

FIXTURE_DIR = "/tmp/adgr_incr_fixture"


def _conv_num(conv_id: str) -> int:
    return int(conv_id.rsplit("-", 1)[1])


@pytest.fixture(scope="module")
def split_fixture(ray_session):
    info = write_transcripts(FIXTURE_DIR, 90, seed=17, shards=4)
    return info


def _labels(res):
    return {r["conv_id"]: r["cluster_id"]
            for r in res["clusters"].take_all()}


@pytest.fixture(scope="module")
def full_labels(split_fixture):
    """Cluster labels of a full-corpus dedup, shared by every test in
    this module that compares an incremental result against "dedup of
    everything" (the expensive side of each equivalence)."""
    import ray.data
    from apache_datasketches_go_ray.pipelines.dedup import run_dedup

    cfg = DedupConfig(num_partitions=4)
    return _labels(run_dedup(
        ray.data.read_parquet(split_fixture["dir"]), cfg))


def test_incremental_equals_full(split_fixture, full_labels, tmp_path):
    import pyarrow as pa
    import ray.data
    from apache_datasketches_go_ray.pipelines.dedup import (
        run_dedup, run_dedup_incremental)

    cfg = DedupConfig(num_partitions=4)
    full = full_labels

    # split by conv number parity so dup groups span A and B: the
    # incremental run must discover new-new AND new-old edges, and
    # merging must extend old clusters
    def _part(b, want_even):
        nums = np.array([int(c.rsplit("-", 1)[1]) for c in
                         b.column("conv_id").to_pylist()])
        m = nums % 2 == 0
        return b.filter(pa.array(m if want_even else ~m))

    ds_a = ray.data.read_parquet(split_fixture["dir"]).map_batches(
        lambda b: _part(b, True), batch_format="pyarrow")
    ds_b = ray.data.read_parquet(split_fixture["dir"]).map_batches(
        lambda b: _part(b, False), batch_format="pyarrow")

    ck = str(tmp_path / "ckpt_a")
    run_dedup(ds_a, cfg, checkpoint_dir=ck)
    res = run_dedup_incremental(ds_b, against=ck, config=cfg)
    inc = _labels(res)

    assert inc == full
    # the increment's stages key their shuffles on dense ids, as a full
    # run's do: the bridge covers the prior corpus and the new batch
    assert res["metrics"]["dense_ids"] is True
    # sanity: the fixture actually exercises cross-increment merges
    cross = {
        cid for cid, lab in full.items()
        if any(_conv_num(o) % 2 != _conv_num(cid) % 2
               for o, l2 in full.items() if l2 == lab and o != cid)
    }
    assert cross, "fixture has no dup group spanning the A/B split"


def test_incremental_with_own_checkpoint_resumes(split_fixture, tmp_path):
    import pyarrow as pa
    import ray.data
    from apache_datasketches_go_ray.pipelines.dedup import (
        IncrementalDedupPipeline, run_dedup)

    cfg = DedupConfig(num_partitions=4)

    def _part(b, want_even):
        nums = np.array([int(c.rsplit("-", 1)[1]) for c in
                         b.column("conv_id").to_pylist()])
        m = nums % 2 == 0
        return b.filter(pa.array(m if want_even else ~m))

    ds_a = ray.data.read_parquet(split_fixture["dir"]).map_batches(
        lambda b: _part(b, True), batch_format="pyarrow")
    ck_a = str(tmp_path / "ckpt_a")
    run_dedup(ds_a, cfg, checkpoint_dir=ck_a)

    ck_b = str(tmp_path / "ckpt_b")
    ds_b = ray.data.read_parquet(split_fixture["dir"]).map_batches(
        lambda b: _part(b, False), batch_format="pyarrow")
    r1 = IncrementalDedupPipeline(cfg, ck_a, ck_b).run(ds_b)
    cl1 = _labels(r1)

    ds_b2 = ray.data.read_parquet(split_fixture["dir"]).map_batches(
        lambda b: _part(b, False), batch_format="pyarrow")
    p2 = IncrementalDedupPipeline(cfg, ck_a, ck_b)
    r2 = p2.run(ds_b2)
    assert _labels(r2) == cl1
    for name, ent in p2.metrics["stages"].items():
        assert ent["resumed"], f"stage {name} should have resumed"

    # the same batch and checkpoint dir against ANOTHER chain (a copy
    # of the first at a new path): the batch's own assembled/signatures
    # may resume, but nothing that read the chain (pairs onward) may
    ck_copy = str(tmp_path / "ckpt_a_copy")
    shutil.copytree(ck_a, ck_copy)
    p3 = IncrementalDedupPipeline(cfg, ck_copy, ck_b)
    r3 = p3.run(ray.data.read_parquet(split_fixture["dir"]).map_batches(
        lambda b: _part(b, False), batch_format="pyarrow"))
    assert _labels(r3) == cl1
    stages = p3.metrics["stages"]
    assert stages["assembled"]["resumed"]
    assert stages["signatures"]["resumed"]
    for name in ("pairs", "turn_hashes", "turn_pairs", "verified",
                 "clusters"):
        assert not stages[name]["resumed"], \
            f"stage {name} resumed against a different chain"


def test_chained_increments_equal_full(split_fixture, full_labels,
                                       tmp_path):
    """Three-batch chained ingestion: dedup(A) + inc(B) + inc(C) ==
    dedup(A ∪ B ∪ C), with `against` a CHAIN of checkpoints (the full
    run plus each prior increment's) — the daily-ingest loop."""
    import pyarrow as pa
    import ray.data
    from apache_datasketches_go_ray.pipelines.dedup import (
        run_dedup, run_dedup_incremental)

    cfg = DedupConfig(num_partitions=4)
    full = full_labels

    def _part(b, r):
        nums = np.array([int(c.rsplit("-", 1)[1]) for c in
                         b.column("conv_id").to_pylist()])
        return b.filter(pa.array(nums % 3 == r))

    def part_ds(r):
        return ray.data.read_parquet(split_fixture["dir"]).map_batches(
            lambda b, r=r: _part(b, r), batch_format="pyarrow")

    ck_a = str(tmp_path / "chain_a")
    ck_b = str(tmp_path / "chain_b")
    run_dedup(part_ds(0), cfg, checkpoint_dir=ck_a)
    run_dedup_incremental(part_ds(1), against=ck_a, config=cfg,
                          checkpoint_dir=ck_b)
    inc2 = _labels(run_dedup_incremental(
        part_ds(2), against=[ck_a, ck_b], config=cfg))
    assert inc2 == full
