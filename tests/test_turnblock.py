"""Exact turn-collision blocking (stages/turnblock.py): pair semantics,
min-chars gate, hot cap, partition independence, and the assembled-text
fallback used by pre-turnblock checkpoints."""

import numpy as np
import pyarrow as pa
import pytest

from apache_datasketches_go_ray.config import DedupConfig
from apache_datasketches_go_ray.stages.keyed import sort_segments
from apache_datasketches_go_ray.stages.turnblock import (
    hashes_from_assembled,
    pairs_block,
    turn_block_pairs,
    turn_hash_rows,
)

LONG_A = "the quick brown fox jumps over the lazy dog"
LONG_B = "pack my box with five dozen liquor jugs today"


def _pairs_set(tbl: pa.Table) -> set:
    return set(zip(tbl.column("a").to_pylist(), tbl.column("b").to_pylist()))


def _turns(rows) -> pa.Table:
    return pa.table({
        "conv_id": pa.array([r[0] for r in rows], type=pa.string()),
        "text": pa.array([r[1] for r in rows], type=pa.string()),
    })


def _local_pairs(rows, cfg: DedupConfig) -> set:
    hashes = turn_hash_rows(_turns(rows), cfg.turn_block_min_chars)
    return _pairs_set(pairs_block(*sort_segments(hashes, ["h"], ["conv_id"]),
                                  cfg.turn_block_max_convs))


def test_shared_long_turn_emits_pair():
    cfg = DedupConfig()
    got = _local_pairs([("c1", LONG_A), ("c2", LONG_A), ("c3", LONG_B)], cfg)
    assert got == {("c1", "c2")}


def test_short_turns_carry_no_evidence():
    cfg = DedupConfig()  # min_chars 16
    got = _local_pairs([("c1", "ok thanks"), ("c2", "ok thanks")], cfg)
    assert got == set()


def test_repeated_turn_within_one_conv_is_not_a_pair():
    cfg = DedupConfig()
    got = _local_pairs([("c1", LONG_A), ("c1", LONG_A)], cfg)
    assert got == set()


def test_hot_cap_drops_boilerplate_bucket():
    cfg = DedupConfig(turn_block_max_convs=3)
    rows = [(f"c{i}", LONG_A) for i in range(4)]  # 4 convs > cap 3
    assert _local_pairs(rows, cfg) == set()
    rows3 = rows[:3]  # exactly at cap -> all 3 pairs
    assert _local_pairs(rows3, cfg) == {
        ("c0", "c1"), ("c0", "c2"), ("c1", "c2")}


def test_pair_order_is_lexicographic():
    cfg = DedupConfig()
    got = _local_pairs([("zz", LONG_A), ("aa", LONG_A)], cfg)
    assert got == {("aa", "zz")}


def test_dataset_pairs_partition_independent(ray_session, monkeypatch):
    """Same pair set regardless of input block layout or partition
    count (global distinct per (h, conv) happens post-shuffle)."""
    import ray.data

    from apache_datasketches_go_ray.stages import candidates

    # one row per partition: the shuffle then takes each cap below
    # (num_partitions) instead of sizing this tiny input to 1 partition
    monkeypatch.setattr(candidates, "_ROWS_PER_PARTITION", 1)

    rng = np.random.default_rng(7)
    rows = []
    # 30 convs, each with 3 unique turns; plant shared turns across
    # five pairs plus one hot turn shared by many convs
    for i in range(30):
        for j in range(3):
            rows.append((f"c{i:02d}", f"conv {i} unique turn {j} "
                         + "x" * int(rng.integers(0, 20))))
    planted = {("c00", "c17"), ("c03", "c29"), ("c05", "c11"),
               ("c08", "c09"), ("c20", "c21")}
    for a, b in planted:
        rows.append((a, f"shared turn between {a} and {b} padded long"))
        rows.append((b, f"shared turn between {a} and {b} padded long"))
    for i in range(25):  # hot boilerplate: dropped by cap
        rows.append((f"c{i:02d}", "please see the documentation for details"))

    got = {}
    for blocks, parts in ((1, 4), (7, 2), (30, 16)):
        cfg = DedupConfig(num_partitions=parts)
        ds = ray.data.from_arrow(_turns(rows)).repartition(blocks)
        tbl = turn_block_pairs(ds, cfg).materialize().to_pandas()
        got[(blocks, parts)] = set(
            map(tuple, tbl[["a", "b"]].drop_duplicates().values))
    vals = list(got.values())
    assert vals[0] == vals[1] == vals[2]
    assert planted <= vals[0]
    assert not any(p[0] == p[1] for p in vals[0])


def test_tiny_input_shuffles_into_one_partition(ray_session, monkeypatch):
    """The turn-hash shuffle is sized to its rows, not to the default
    num_partitions (64 aggregators for a handful of rows stalled a
    2-CPU session for minutes)."""
    import ray.data

    seen = []
    real = ray.data.Dataset.repartition

    def spy(self, num_blocks, *args, **kwargs):
        seen.append(num_blocks)
        return real(self, num_blocks, *args, **kwargs)

    monkeypatch.setattr(ray.data.Dataset, "repartition", spy)
    rows = [("c1", LONG_A), ("c2", LONG_A), ("c3", LONG_B)]
    ds = ray.data.from_arrow(_turns(rows))
    got = turn_block_pairs(ds, DedupConfig()).materialize().to_pandas()
    assert seen == [1]
    assert set(zip(got["a"], got["b"])) == {("c1", "c2")}


def test_hashes_from_assembled_matches_raw(ray_session):
    """The checkpoint-fallback path (split assembled text on TURN_SEP)
    yields the same (conv_id, h) set as hashing raw turns."""
    import ray.data
    from apache_datasketches_go_ray.stages.assemble import assemble

    rows = [("c1", LONG_A), ("c1", LONG_B), ("c2", LONG_A),
            ("c2", "tiny"), ("c3", LONG_B)]
    turns = _turns(rows).append_column(
        "turn_idx", pa.array(list(range(len(rows))), type=pa.int64()))
    cfg = DedupConfig(num_partitions=2)

    raw = turn_hash_rows(_turns(rows), cfg.turn_block_min_chars)
    raw_set = set(zip(raw.column("conv_id").to_pylist(),
                      raw.column("h").to_pylist()))

    assembled = assemble(ray.data.from_arrow(turns), cfg.num_partitions)
    fb = hashes_from_assembled(assembled, cfg).materialize().to_pandas()
    fb_set = set(map(tuple, fb[["conv_id", "h"]].drop_duplicates().values))
    assert fb_set == raw_set


def test_empty_input(ray_session):
    import ray.data

    cfg = DedupConfig(num_partitions=2)
    empty = _turns([])
    assert len(turn_hash_rows(empty, cfg.turn_block_min_chars)) == 0
    assert len(pairs_block(
        *sort_segments(pa.schema([("conv_id", pa.string()),
                                  ("h", pa.uint64())]).empty_table(),
                       ["h"], ["conv_id"]),
        cfg.turn_block_max_convs)) == 0
    ds = ray.data.from_arrow(empty)
    assert turn_block_pairs(ds, cfg).count() == 0


def _toggle_fixture() -> pa.Table:
    base_turns = [f"base conversation turn {i} with plenty of padding "
                  f"tokens {i * 17}" for i in range(20)]
    rows = [("orig", t) for t in base_turns]
    # containment copy keeps only 2 of 20 turns -> full-text J ~ 0.1
    rows += [("copy", base_turns[3]), ("copy", base_turns[4])]
    # unrelated filler convs so LSH has something to chew on
    for i in range(10):
        rows += [(f"f{i}", f"filler {i} turn {j} lorem ipsum dolor sit "
                  f"amet {j * i}") for j in range(4)]
    return _turns(rows).append_column(
        "turn_idx", pa.array(list(range(len(rows))), type=pa.int64()))


def _clustered_together(cl) -> bool:
    by_conv = dict(zip(cl["conv_id"], cl["cluster_id"])) if len(cl) else {}
    return ("orig" in by_conv and "copy" in by_conv
            and by_conv["orig"] == by_conv["copy"])


def test_flagship_recall_toggle(ray_session):
    """With blocking on, the planted containment dup (tiny kept-turn
    fraction, shingle-J far below LSH reach) is clustered by the Ray
    pipeline; with it off, the single-process oracle (pipeline-exact by
    the parity tests) misses it — pinning the recall gap the stage
    closes. The off-leg uses the oracle to avoid paying full pipeline
    overhead twice."""
    import ray.data
    from apache_datasketches_go_ray.pipelines.dedup import run_dedup
    from apache_datasketches_go_ray.pipelines.oracle import oracle_dedup

    turns = _toggle_fixture()

    cfg_on = DedupConfig(num_partitions=4, turn_block=True)
    res = run_dedup(ray.data.from_arrow(turns), cfg_on)
    assert _clustered_together(res["clusters"].materialize().to_pandas())

    # oracle consumes per-turn rows exactly like the pipeline input;
    # its clusters surface is a {conv_id: label} dict
    cfg_off = DedupConfig(num_partitions=4, turn_block=False)
    by_conv = oracle_dedup(turns, cfg_off)["clusters"]
    assert not ("orig" in by_conv and "copy" in by_conv
                and by_conv["orig"] == by_conv["copy"])
