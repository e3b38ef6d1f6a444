"""The candidate exchange (stages/candidates.py): band rows and turn-hash
rows fold together under one key (kind, band_hash, salt). Pins the
per-block split into the two kernels, and that a flagship run makes one
keyed fold for both kinds of row."""

import sys
from collections import Counter

import numpy as np
import pyarrow as pa
import pytest

from apache_datasketches_go_ray.config import DedupConfig
from apache_datasketches_go_ray.stages.candidates import (
    band_rows, bucket_pairs, turn_rows)
from apache_datasketches_go_ray.stages.keyed import sort_segments
from apache_datasketches_go_ray.stages.lsh import pairs_in_block
from apache_datasketches_go_ray.stages.turnblock import pairs_block

KEY = 0xFEEDFACE
CANDIDATE_KEYS = ["kind", "band_hash", "salt"]


def _pairs(tbl: pa.Table) -> Counter:
    return Counter(zip(tbl.column("a").to_pylist(),
                       tbl.column("b").to_pylist()))


def _ds_pairs(ds) -> Counter:
    return Counter((r["a"], r["b"]) for r in ds.take_all())


def test_band_and_turn_buckets_with_one_key_stay_apart():
    """One block holds a band bucket and a turn bucket with the same u64
    key, plus one more bucket of each kind. Band pairs follow the digest
    prefilter and the chain above max_band_group; turn pairs follow the
    drop above turn_block_max_convs; no pair joins a band conv to a turn
    conv."""
    cfg = DedupConfig(max_band_group=3, prefilter_min_matches=3,
                      turn_block_max_convs=3)
    digests = [b"AAAA", b"AAAA", b"AAAB", b"ZZZZ", b"CCCC", b"CCCC"]
    sigs = pa.table({
        "conv_id": ["b0", "b1", "b2", "b3", "c0", "c1"],
        "bands": pa.array([[KEY]] * 4 + [[KEY + 1]] * 2,
                          type=pa.list_(pa.uint64())),
        "sig_digest": pa.array(digests, type=pa.large_binary()),
    })
    hashes = pa.table({
        "conv_id": ["t0", "t1", "t2", "t3", "t4", "t5", "t6"],
        "h": pa.array([KEY] * 4 + [KEY + 2] * 3, type=pa.uint64()),
    })
    band, turn = band_rows(sigs), turn_rows(hashes)
    assert band.schema == turn.schema
    block, starts = sort_segments(pa.concat_tables([turn, band]),
                                  CANDIDATE_KEYS, ["conv_id"])
    got = _pairs(bucket_pairs(block, starts, cfg))

    # band bucket KEY: 4 members > 3 -> chain b0-b1-b2-b3, and b2-b3
    # agree in no digest slot; bucket KEY+1: its one pair. Turn bucket
    # KEY: 4 members > 3 -> dropped; bucket KEY+2: all 3 pairs.
    assert got == Counter({("b0", "b1"): 1, ("b1", "b2"): 1,
                           ("c0", "c1"): 1, ("t4", "t5"): 1,
                           ("t4", "t6"): 1, ("t5", "t6"): 1})
    assert all((a[0] == "t") == (b[0] == "t") for a, b in got)
    # the same as each kernel on its own kind of row
    alone = _pairs(pairs_in_block(*sort_segments(
        band.drop_columns(["kind"]), ["band_hash", "salt"], ["conv_id"]),
        cfg.max_band_group, cfg.prefilter_min_matches))
    alone += _pairs(pairs_block(*sort_segments(
        hashes, ["h"], ["conv_id"]), cfg.turn_block_max_convs))
    assert got == alone


def test_block_of_one_kind():
    """A block may hold rows of one kind only."""
    cfg = DedupConfig()
    hashes = pa.table({"conv_id": ["x", "y"],
                       "h": pa.array([KEY, KEY], type=pa.uint64())})
    out = bucket_pairs(*sort_segments(turn_rows(hashes), CANDIDATE_KEYS,
                                      ["conv_id"]), cfg)
    assert _pairs(out) == Counter({("x", "y"): 1})


@pytest.fixture
def skew_split(ray_session, tmp_path):
    """The F4 skew fixture (hot band buckets) split into a corpus and an
    increment of every third conversation."""
    import ray.data
    from apache_datasketches_go_ray.sources.transcripts import (
        write_skewed_transcripts)

    info = write_skewed_transcripts(str(tmp_path / "skew"), 150, seed=42,
                                    shards=4, hot_copies=120)

    def part(increment: bool):
        def keep(b):
            nums = np.array([int(c.rsplit("-", 1)[1])
                             for c in b.column("conv_id").to_pylist()])
            return b.filter(pa.array((nums % 3 == 0) == increment))
        return ray.data.read_parquet(info["dir"]).map_batches(
            keep, batch_format="pyarrow")
    return part


def test_one_fold_for_band_and_turn_rows(skew_split, tmp_path, monkeypatch):
    """Every full run and every increment folds band and turn rows in one
    keyed fold, runs the hot representative pass once (the fixture has
    hot bands) and has no turn_pairs stage; the pairs surface is the
    multiset union of the band-only and turn-only entry points."""
    from apache_datasketches_go_ray.pipelines.dedup import (
        run_dedup, run_dedup_incremental)
    from apache_datasketches_go_ray.stages import keyed
    from apache_datasketches_go_ray.stages.lsh import candidate_pairs
    from apache_datasketches_go_ray.stages.turnblock import (
        pairs_from_hashes, turn_hash_dataset)

    calls = []
    real = keyed.keyed_fold

    def counting(ds, keys, *args, **kwargs):
        calls.append(list(keys))
        return real(ds, keys, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("apache_datasketches_go_ray") and \
                getattr(mod, "keyed_fold", None) is real:
            monkeypatch.setattr(mod, "keyed_fold", counting)

    cfg = DedupConfig(num_partitions=4, hot_sample_rate=2,
                      hot_sampled_count=4, max_band_group=16,
                      hot_key_salt=4)
    ck = str(tmp_path / "ckpt")
    runs = [run_dedup(skew_split(False), cfg, checkpoint_dir=ck)]
    n_full = len(calls)
    runs.append(run_dedup_incremental(skew_split(True), ck, cfg))
    for run_calls in (calls[:n_full], calls[n_full:]):
        # assemble, hot-band detection, the candidate fold, the hot
        # representative pass, verify's candidate ids and pair folds
        assert run_calls == [["conv_id"], ["h"], CANDIDATE_KEYS,
                             ["band_hash"], ["h"], ["a", "b"]]
    for res in runs:
        assert "pairs" in res["metrics"]["stages"]
        assert "turn_pairs" not in res["metrics"]["stages"]

    full = runs[0]
    want = _ds_pairs(candidate_pairs(full["signatures"], cfg))
    want += _ds_pairs(pairs_from_hashes(
        turn_hash_dataset(skew_split(False), cfg), cfg))
    assert _ds_pairs(full["pairs"]) == want
