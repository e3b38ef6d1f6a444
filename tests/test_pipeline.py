"""Distributed pipeline tests: assembly invariant, oracle parity, planted
recall, determinism across parallelism, resume."""

import os
from collections import defaultdict

import numpy as np
import pyarrow.parquet as pq
import pytest

from apache_datasketches_go_ray.config import DedupConfig
from apache_datasketches_go_ray.sources.transcripts import write_transcripts

FIXTURE_DIR = "/tmp/adgr_test_fixture"
N_CONVS = 120


@pytest.fixture(scope="session")
def fixture_dir(ray_session):
    info = write_transcripts(FIXTURE_DIR, N_CONVS, seed=42, shards=4)
    return info


@pytest.fixture(scope="session")
def pipeline_result(fixture_dir):
    import ray.data
    from apache_datasketches_go_ray.pipelines.dedup import run_dedup

    ds = ray.data.read_parquet(fixture_dir["dir"])
    return run_dedup(ds, DedupConfig(num_partitions=4))


@pytest.fixture(scope="session")
def oracle_result(fixture_dir):
    from apache_datasketches_go_ray.pipelines.oracle import oracle_dedup

    tbl = pq.read_table(fixture_dir["dir"])
    return oracle_dedup(tbl, DedupConfig(num_partitions=4))


def test_assembly_preserves_turn_order(fixture_dir, pipeline_result):
    """Per-turn text equality under stable turn ordering (the input_hint
    row invariant)."""
    from apache_datasketches_go_ray.stages.assemble import TURN_SEP

    tbl = pq.read_table(fixture_dir["dir"]).to_pandas()
    expected = (
        tbl.sort_values(["conv_id", "turn_idx"], kind="stable")
        .groupby("conv_id")["text"]
        .apply(lambda ts: TURN_SEP.join(ts))
        .to_dict()
    )
    got = {
        r["conv_id"]: r["text"]
        for r in pipeline_result["assembled"].take_all()
    }
    assert got == expected


def test_pipeline_matches_oracle_pairs(pipeline_result, oracle_result):
    # the pipeline's pairs stage is band-deduped only (the (a,b) dedup
    # happens inside verify's first co-partition join) -> compare as sets
    pipe = {(r["a"], r["b"]) for r in pipeline_result["pairs"].take_all()}
    assert pipe == set(oracle_result["pairs"])


def test_pipeline_matches_oracle_edges(pipeline_result, oracle_result):
    pipe = sorted(
        (r["a"], r["b"]) for r in pipeline_result["verified"].take_all()
        if r["is_dup"]
    )
    assert pipe == sorted(oracle_result["edges"])


def test_pipeline_matches_oracle_clusters(pipeline_result, oracle_result):
    """THE parity gate: dup-pair recall vs the oracle must be >= 0.99; with
    identical hashes and deterministic rules it is exactly 1.0."""
    pipe = {r["conv_id"]: r["cluster_id"]
            for r in pipeline_result["clusters"].take_all()}
    assert pipe == oracle_result["clusters"]


def test_planted_dup_recall(fixture_dir, pipeline_result):
    """Recall >= 0.99 on the planted duplicate groups (FIXTURES.md F2)."""
    gt = pq.read_table(os.path.join(FIXTURE_DIR, "dup_groups.parquet")).to_pandas()
    cl = {r["conv_id"]: r["cluster_id"]
          for r in pipeline_result["clusters"].take_all()}
    groups = defaultdict(list)
    for _, r in gt.iterrows():
        groups[r.group_id].append(r.conv_id)
    tp = fn = 0
    for members in groups.values():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                a, b = members[i], members[j]
                if cl.get(a) is not None and cl.get(a) == cl.get(b):
                    tp += 1
                else:
                    fn += 1
    assert tp + fn > 0
    assert tp / (tp + fn) >= 0.99


def test_no_false_merges_of_negatives(fixture_dir, pipeline_result, oracle_result):
    """Distinct base conversations must not be merged: every cluster's
    members either share a dup group or were verified duplicates."""
    gt = pq.read_table(os.path.join(FIXTURE_DIR, "dup_groups.parquet")).to_pandas()
    group_of = dict(zip(gt.conv_id, gt.group_id))
    clusters = defaultdict(list)
    for r in pipeline_result["clusters"].take_all():
        clusters[r["cluster_id"]].append(r["conv_id"])
    for members in clusters.values():
        gs = {group_of.get(m) for m in members}
        assert len(gs) == 1 and None not in gs, members


def test_determinism_across_partitioning(fixture_dir, oracle_result):
    """Same clusters at a different partition count (partitioning
    independence — the merge-discipline analogue of the reference's
    isomorphism tests)."""
    import ray.data
    from apache_datasketches_go_ray.pipelines.dedup import run_dedup

    ds = ray.data.read_parquet(fixture_dir["dir"])
    res = run_dedup(ds, DedupConfig(num_partitions=3))
    pipe = {r["conv_id"]: r["cluster_id"] for r in res["clusters"].take_all()}
    assert pipe == oracle_result["clusters"]


def test_checkpoint_resume(fixture_dir, oracle_result, tmp_path,
                           monkeypatch):
    """Run with checkpointing, then re-run: all stages resume, clusters
    identical (FIXTURES.md F5) — also when the re-run sees 8 CPUs and
    overlaps the pair branches on two threads (checkpoints written at
    one parallelism resume at any other)."""
    import ray
    import ray.data
    from apache_datasketches_go_ray.pipelines.dedup import DedupPipeline

    cfg = DedupConfig(num_partitions=4)
    ck = str(tmp_path / "ckpt")
    ds = ray.data.read_parquet(fixture_dir["dir"])
    r1 = DedupPipeline(cfg, ck).run(ds)
    cl1 = {r["conv_id"]: r["cluster_id"] for r in r1["clusters"].take_all()}

    ds2 = ray.data.read_parquet(fixture_dir["dir"])
    p2 = DedupPipeline(cfg, ck)
    r2 = p2.run(ds2)
    cl2 = {r["conv_id"]: r["cluster_id"] for r in r2["clusters"].take_all()}
    assert cl1 == cl2 == oracle_result["clusters"]
    for name, ent in p2.metrics["stages"].items():
        assert ent["resumed"], f"stage {name} should have resumed"

    # every stage resumes from Parquet, so no two shuffles overlap on
    # the small test session
    real = ray.cluster_resources
    monkeypatch.setattr(ray, "cluster_resources",
                        lambda: {**real(), "CPU": 8.0})
    p3 = DedupPipeline(cfg, ck)
    r3 = p3.run(ray.data.read_parquet(fixture_dir["dir"]))
    cl3 = {r["conv_id"]: r["cluster_id"] for r in r3["clusters"].take_all()}
    assert cl3 == cl1
    assert set(p3.metrics["stages"]) == set(p2.metrics["stages"])
    for name, ent in p3.metrics["stages"].items():
        assert ent["resumed"], f"stage {name} should have resumed at 8 CPUs"


@pytest.mark.parametrize("kind", ["string", "bridge", "int64"])
def test_cluster_chain_convergence(ray_session, kind):
    """Long chains (the skew-cap path) must converge quickly via
    large-star/small-star, not O(n) rounds — on string ids, on
    bridge-encoded u64 ranks and on int64 ids alike."""
    import numpy as np
    import ray.data
    import pyarrow as pa
    from apache_datasketches_go_ray.stages.cluster import cluster_edges
    from apache_datasketches_go_ray.stages.ids import build_bridge

    n = 150
    # chain order is not id order, so the min label is not the chain head
    perm = np.random.default_rng(3).permutation(n)
    if kind == "int64":
        ids = [int(i) * 7 - 300 for i in perm]
        col = pa.array(ids, type=pa.int64())
    else:
        ids = [f"n{i:05d}" for i in perm]
        col = pa.array(ids, type=pa.string())
    edges = pa.table({"a": col.slice(0, n - 1), "b": col.slice(1)})
    bridge = build_bridge(ray.data.from_arrow(pa.table({"conv_id": col}))) \
        if kind == "bridge" else None
    # local_threshold=0 forces the distributed star rounds (the default
    # gate would finish this tiny chain on the driver)
    out = cluster_edges(ray.data.from_arrow(edges), 4, max_rounds=15,
                        local_threshold=0, bridge_ref=bridge)
    sch = out.schema()
    assert dict(zip(sch.names, sch.types))["conv_id"] == col.type
    labels = {r["conv_id"]: r["cluster_id"] for r in out.take_all()}
    assert len(labels) == n
    assert set(labels.values()) == {min(ids)}
    # and the driver-side vectorized path must agree exactly
    out2 = cluster_edges(ray.data.from_arrow(edges), 4, bridge_ref=bridge)
    labels2 = {r["conv_id"]: r["cluster_id"] for r in out2.take_all()}
    assert labels2 == labels


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "string"])
def test_skew_salted_repartitioning(ray_session, dense):
    """FIXTURES.md F4: hot band keys (a template repeated with 1-2 token
    edits) are detected by the deterministic sample, salted across
    shards, and the shard+representative chains reproduce the oracle's
    clusters exactly, with and without the dense-id bridge."""
    import ray.data
    import pyarrow.parquet as pq
    from apache_datasketches_go_ray.config import DedupConfig
    from apache_datasketches_go_ray.pipelines.dedup import run_dedup
    from apache_datasketches_go_ray.pipelines.oracle import oracle_dedup
    from apache_datasketches_go_ray.sources.transcripts import (
        write_skewed_transcripts,
    )
    from apache_datasketches_go_ray.stages.assemble import assemble
    from apache_datasketches_go_ray.stages.signature import sign
    from apache_datasketches_go_ray.stages.lsh import detect_hot_bands

    info = write_skewed_transcripts("/tmp/adgr_skew_fixture", 150, seed=42,
                                    shards=4, hot_copies=120)
    cfg = DedupConfig(num_partitions=4, hot_sample_rate=2,
                      hot_sampled_count=4, max_band_group=16,
                      hot_key_salt=4, dense_ids=dense)
    ds = ray.data.read_parquet(info["dir"])

    # the hot template's band buckets must actually trip detection
    sigs = sign(assemble(ds, cfg.num_partitions), cfg).materialize()
    hot = detect_hot_bands(sigs, cfg)
    assert len(hot) > 0

    res = run_dedup(ray.data.read_parquet(info["dir"]), cfg)
    assert res["metrics"]["dense_ids"] is dense
    pipe = {r["conv_id"]: r["cluster_id"]
            for r in res["clusters"].take_all()}
    orc = oracle_dedup(pq.read_table(info["dir"]), cfg)
    assert pipe == orc["clusters"]
    # the 120 hot copies + base all land in one cluster
    hot_ids = {f"conv-{i:08d}" for i in range(150, 270)} | {"conv-00000000"}
    labels = {pipe.get(c) for c in hot_ids}
    assert len(labels) == 1 and None not in labels


def test_hash_join_both_strategies(ray_session):
    """hash_join: broadcast and co-partition paths return identical
    results (same rows regardless of strategy)."""
    import pyarrow as pa
    import ray.data
    from apache_datasketches_go_ray.stages.join import hash_join

    left = pa.table({"k": [1, 2, 2, 3, 5], "lv": ["a", "b", "c", "d", "e"]})
    right = pa.table({"rk": [1, 2, 3, 4], "rv": [10, 20, 30, 40]})

    def rows(ds):
        return sorted((r["k"], r["lv"], r["rv"]) for r in ds.take_all())

    bc = hash_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                   on=("k", "rk"))
    cp = hash_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                   on=("k", "rk"), broadcast_threshold=0, num_partitions=3)
    expected = [(1, "a", 10), (2, "b", 20), (2, "c", 20), (3, "d", 30)]
    assert rows(bc) == expected
    assert rows(cp) == expected


def test_cluster_survivors_keep_best(pipeline_result):
    """Survivor per cluster = longest member (ties: min conv_id),
    verified against a pandas recomputation of the same surfaces."""
    import pandas as pd

    from apache_datasketches_go_ray.stages.dedup_extras import (
        cluster_survivors,
    )

    got = cluster_survivors(pipeline_result["clusters"],
                            pipeline_result["assembled"],
                            num_partitions=3).to_pandas()
    cl = pipeline_result["clusters"].to_pandas()
    txt = pipeline_result["assembled"].to_pandas()[["conv_id", "text"]]
    df = cl.merge(txt, on="conv_id")
    df["n_chars"] = df.text.str.len()
    want = (df.sort_values(["cluster_id", "n_chars", "conv_id"],
                           ascending=[True, False, True])
            .groupby("cluster_id")
            .agg(survivor_conv_id=("conv_id", "first"),
                 n_members=("conv_id", "size"),
                 survivor_chars=("n_chars", "first"))
            .reset_index())
    got = got.sort_values("cluster_id", ignore_index=True)
    want = want.sort_values("cluster_id", ignore_index=True)
    pd.testing.assert_frame_equal(
        got[["cluster_id", "survivor_conv_id", "n_members",
             "survivor_chars"]],
        want.astype({"n_members": "int64", "survivor_chars": "int64"}))
    # every survivor is at least as long as any member of its cluster
    mx = df.groupby("cluster_id").n_chars.max()
    assert (got.set_index("cluster_id").survivor_chars == mx).all()


def test_pair_jaccard_histogram_counts(pipeline_result):
    """Histogram == brute binning of the verified dup pairs."""
    from apache_datasketches_go_ray.stages.dedup_extras import (
        pair_jaccard_histogram,
    )

    got = pair_jaccard_histogram(pipeline_result["verified"]).to_pandas()
    v = pipeline_result["verified"].to_pandas()
    v = v[v.is_dup]
    bins = np.clip((v.jaccard.to_numpy() * 20).astype(np.int64), 0, 19)
    want = {int(b) * 5: int(n)
            for b, n in zip(*np.unique(bins, return_counts=True))}
    assert {int(r.bin_lo_pct): int(r.n_pairs)
            for r in got.itertuples()} == want
    assert int(got.n_pairs.sum()) == len(v)
