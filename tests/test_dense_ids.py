"""The id codec (stages/ids.py): block-local code order, id keys, the
dense-id bridge's order preservation and round-trip, and bit-parity of
the flagship pipeline between dense-id and string modes."""

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


# ---------------------------------------------------------------------------
# the id codec: block-local codes, id keys, column encode/decode
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("arr", [
    pa.array(["c9", "a", "ab", "b", "z~", "a0", "éx", "0", "", "ab"],
             type=pa.string()),
    pa.array(["ü", "u", "", "zz", "é", "e", ""], type=pa.large_string()),
    pa.array([2**63 + 5, 3, 2**64 - 1, 2**63, 3, 0], type=pa.uint64()),
    pa.array([-5, 7, -2**63, 0, 7, 2**63 - 1, -1], type=pa.int64()),
], ids=["string", "large_string", "uint64", "int64"])
def test_local_codes_order_equals_id_order(arr):
    from apache_datasketches_go_ray.stages.ids import ids_at, local_codes

    vals = arr.to_pylist()
    head, tail = arr.slice(0, 3), arr.slice(3)
    c_head, c_tail, uniq = local_codes(head, tail)
    codes = np.concatenate([c_head, c_tail])
    assert codes.dtype == np.int64
    # one shared code space 0..k-1, ordered like the ids themselves
    assert uniq.to_pylist() == sorted(set(vals))
    assert sorted(set(codes.tolist())) == list(range(len(uniq)))
    for i in range(len(vals)):
        for j in range(len(vals)):
            assert (codes[i] < codes[j]) == (vals[i] < vals[j])
    # ids_at round-trips, strings as pa.string(), integers in their type
    back = ids_at(uniq, codes)
    assert back.to_pylist() == vals
    want = pa.string() if pa.types.is_large_string(arr.type) else arr.type
    assert back.type == want


def test_id_keys_are_functions_of_the_id():
    from apache_datasketches_go_ray.stages.ids import id_keys

    s = id_keys(pa.array(["a", "b", "a"]))
    assert s.dtype == np.uint64 and s[0] == s[2] and s[0] != s[1]
    assert (id_keys(pa.array(["a", "b"], type=pa.large_string()))
            == s[:2]).all()
    r = id_keys(pa.array([5, 2**64 - 1, 5], type=pa.uint64()))
    assert r[0] == r[2] and len(set(r.tolist())) == 2


def test_encode_decode_columns(ray_session):
    import ray.data

    from apache_datasketches_go_ray.stages.ids import (
        decode_columns, encode_columns, map_decode, map_encode)

    tbl = pa.table({"a": pa.array(["b", "é", "a"]),
                    "b": pa.array(["c", "a", ""]),
                    "w": pa.array([1.0, 2.0, 3.0])})
    # identity without a bridge, at table and dataset level
    assert encode_columns(tbl, ["a", "b"], None) is tbl
    assert decode_columns(tbl, ["a", "b"], None) is tbl
    ds = ray.data.from_arrow(tbl)
    assert map_encode(ds, ["a", "b"], None) is ds
    assert map_decode(ds, ["a", "b"], None) is ds
    # with a bridge: u64 ranks in id order, other columns carried, and a
    # lossless round trip
    ref = _bridge_for(["", "a", "b", "c", "é"])
    enc = encode_columns(tbl, ["a", "b"], ref)
    assert enc.schema.field("a").type == pa.uint64()
    assert enc.column("a").to_pylist() == [2, 4, 1]
    assert enc.column("b").to_pylist() == [3, 1, 0]
    assert enc.column("w").equals(tbl.column("w"))
    assert decode_columns(enc, ["a", "b"], ref).equals(tbl)
    got = map_decode(map_encode(ds, ["a", "b"], ref), ["a", "b"], ref)
    assert got.take_all() == ds.take_all()


def test_build_bridge_runs_id_plan_once(ray_session, tmp_path):
    """The lazy id plan executes once: one upstream UDF call per block,
    not one per block for the size probe and again for the gather."""
    import ray.data

    from apache_datasketches_go_ray.stages.ids import build_bridge

    log = str(tmp_path / "calls.log")

    def tap(b: pa.Table) -> pa.Table:
        with open(log, "a") as f:
            f.write("call\n")
        return b

    blocks = [pa.table({"conv_id": [f"c{i}-{j}" for j in range(5)]})
              for i in range(3)]
    ds = ray.data.from_arrow(blocks).map_batches(
        tap, batch_format="pyarrow", batch_size=None)
    assert build_bridge(ds) is not None
    with open(log) as f:
        assert len(f.read().splitlines()) == len(blocks)


@pytest.mark.parametrize("dense", [False, True], ids=["string", "bridge"])
def test_verify_join_path_equals_broadcast(fixture_dir, dense):
    """verify_pairs' co-partition join path (broadcast_threshold=0)
    gives the broadcast path's verified table, with and without a
    bridge."""
    import ray.data

    from apache_datasketches_go_ray.stages.assemble import assemble
    from apache_datasketches_go_ray.stages.ids import build_bridge
    from apache_datasketches_go_ray.stages.lsh import candidate_pairs
    from apache_datasketches_go_ray.stages.signature import sign
    from apache_datasketches_go_ray.stages.verify import verify_pairs

    cfg = DedupConfig(num_partitions=4)
    assembled = assemble(ray.data.read_parquet(fixture_dir["dir"]),
                         cfg.num_partitions).materialize()
    sigs = sign(assembled, cfg, keep_text=False).materialize()
    bridge = build_bridge(assembled) if dense else None
    pairs = candidate_pairs(sigs, cfg, dedup=False,
                            bridge_ref=bridge).materialize()

    def rows(threshold):
        out = verify_pairs(pairs, sigs, cfg, dedup_pairs=True,
                           broadcast_threshold=threshold,
                           texts_ds=assembled, bridge_ref=bridge)
        sch = out.schema()
        assert pa.types.is_string(dict(zip(sch.names, sch.types))["a"])
        return sorted((r["a"], r["b"], r["jaccard"], r["containment"],
                       r["method"], r["is_dup"]) for r in out.take_all())

    broadcast = rows(4 << 30)
    assert any(r[5] for r in broadcast)
    assert rows(0) == broadcast
