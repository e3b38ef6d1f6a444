"""Dense-id bridge (stages/ids.py): order preservation, round-trip, and
bit-parity of the flagship pipeline between dense-id and string modes."""

import numpy as np
import pyarrow as pa
import pytest

from apache_datasketches_go_ray.config import DedupConfig
from apache_datasketches_go_ray.sources.transcripts import write_transcripts

FIXTURE_DIR = "/tmp/adgr_dense_ids_fixture"


@pytest.fixture(scope="module")
def fixture_dir(ray_session):
    return write_transcripts(FIXTURE_DIR, 90, seed=77, shards=3)


def _bridge_for(strings):
    import ray
    import ray.data

    from apache_datasketches_go_ray.stages.ids import build_bridge

    ds = ray.data.from_arrow(
        pa.table({"conv_id": pa.array(strings, type=pa.string())}))
    return build_bridge(ds)


def test_bridge_ranks_preserve_lexicographic_order(ray_session):
    from apache_datasketches_go_ray.stages.ids import decode_ids, encode_ids

    ids = ["c9", "a", "ab", "b", "z~", "a0", "éx", "0", ""]
    ref = _bridge_for(ids)
    assert ref is not None
    ranks = encode_ids(pa.array(ids, type=pa.string()), ref)
    # rank order == python string sort order (== UTF-8 byte order)
    by_rank = [ids[i] for i in np.argsort(ranks)]
    assert by_rank == sorted(ids)
    # round-trip
    assert decode_ids(ranks, ref).to_pylist() == ids


def test_bridge_unknown_id_raises(ray_session):
    from apache_datasketches_go_ray.stages.ids import encode_ids

    ref = _bridge_for(["a", "b", "c"])
    with pytest.raises(ValueError, match="'nope'"):
        encode_ids(pa.array(["b", "nope", "c"]), ref)


def test_bridge_repeated_ids_are_not_a_collision(ray_session):
    from apache_datasketches_go_ray.stages.ids import decode_ids, encode_ids

    ref = _bridge_for(["b", "a", "b", "c", "a"])
    assert ref is not None
    ranks = encode_ids(pa.array(["a", "b", "c"]), ref)
    assert ranks.tolist() == [0, 1, 2]
    assert decode_ids(ranks, ref).to_pylist() == ["a", "b", "c"]


def test_bridge_without_id_column_raises(ray_session):
    import ray.data

    from apache_datasketches_go_ray.stages.ids import build_bridge

    ds = ray.data.from_arrow(pa.table({"other": pa.array(["a", "b"])}))
    with pytest.raises(Exception, match="conv_id"):
        build_bridge(ds)


def test_bridge_declines_over_budget(ray_session):
    import ray.data

    from apache_datasketches_go_ray.stages.ids import build_bridge

    ds = ray.data.from_arrow(
        pa.table({"conv_id": pa.array([f"conv-{i}" for i in range(1000)])}))
    assert build_bridge(ds, max_bytes=64) is None


def test_flagship_dense_vs_string_bit_parity(fixture_dir):
    """THE gate for the dense-id refactor: identical pairs, verified
    edges and cluster labels with dense_ids on vs off."""
    import ray.data

    from apache_datasketches_go_ray.pipelines.dedup import run_dedup

    ds = ray.data.read_parquet(fixture_dir["dir"])
    dense = run_dedup(ds, DedupConfig(num_partitions=4, dense_ids=True))
    assert dense["metrics"]["dense_ids"] is True
    ds2 = ray.data.read_parquet(fixture_dir["dir"])
    plain = run_dedup(ds2, DedupConfig(num_partitions=4, dense_ids=False))
    assert plain["metrics"]["dense_ids"] is False

    def pairset(res):
        return {(r["a"], r["b"]) for r in res["pairs"].take_all()}

    def edgeset(res):
        return sorted((r["a"], r["b"], round(r["jaccard"], 12),
                       round(r["containment"], 12), r["method"],
                       r["is_dup"])
                      for r in res["verified"].take_all())

    def clusters(res):
        return {r["conv_id"]: r["cluster_id"]
                for r in res["clusters"].take_all()}

    assert pairset(dense) == pairset(plain)
    assert edgeset(dense) == edgeset(plain)
    assert clusters(dense) == clusters(plain)
    # surfaces stay string-typed in both modes (checkpoint contract)
    for key in ("pairs", "verified", "clusters"):
        sch = dense[key].schema()
        for name, typ in zip(sch.names, sch.types):
            if name in ("a", "b", "conv_id", "cluster_id"):
                assert pa.types.is_string(typ) or \
                    pa.types.is_large_string(typ), (key, name, typ)
