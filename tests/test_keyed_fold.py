"""keyed_fold: the one hash-shuffle + sorted whole-block fold primitive
(stages/keyed.py). Pins zero-row blocks, key types, ordering and
partition independence against pandas on small tables."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data

from apache_datasketches_go_ray.stages.keyed import (
    keyed_fold, segment_ends, sort_segments)

SCHEMA = pa.schema({"k": pa.string(), "n": pa.int64(), "first_v": pa.int64()})


def _summary_fn():
    """Per key run: size and the first row's v (order-sensitive). Built
    in a function so Ray workers get it by value, not by module."""

    def summary(b, starts):
        assert len(b) > 0
        return pa.table({
            "k": b.column("k").take(starts),
            "n": pa.array(segment_ends(starts, len(b)) - starts),
            "first_v": b.column("v").take(starts),
        })
    return summary


def _table(n=200, seed=3):
    rng = np.random.default_rng(seed)
    return pa.table({
        "k": pa.array([f"key-{i}" for i in rng.integers(0, 9, n)]),
        "i": pa.array(rng.integers(-5, 5, n), type=pa.int64()),
        "j": pa.array(rng.integers(0, 3, n), type=pa.int64()),
        "v": pa.array(rng.permutation(n), type=pa.int64()),
    })


def _canon(ds) -> pd.DataFrame:
    df = ds.to_pandas()
    return df.sort_values(list(df.columns), ignore_index=True)


def test_sort_segments_orders_keys_then_order_by():
    t = pa.table({"k": ["b", "a", "b", "a", "c"],
                  "x": [2, 1, 1, 1, 0], "y": [0, 9, 5, 3, 0]})
    out, starts = sort_segments(t, ["k"], ("x", "-y"))
    assert out.column("k").to_pylist() == ["a", "a", "b", "b", "c"]
    # tie on x broken by y descending
    assert out.column("y").to_pylist() == [9, 3, 5, 0, 0]
    assert starts.tolist() == [0, 2, 4]
    empty, starts = sort_segments(t.slice(0, 0), ["k"], ("x",))
    assert len(empty) == 0 and len(starts) == 0


def test_more_partitions_than_keys_never_folds_zero_rows(ray_session):
    t = pa.table({"k": ["a", "b", "a", "c"], "v": [4, 3, 2, 1]})
    ds = keyed_fold(ray.data.from_arrow(t), ["k"], _summary_fn(), 7, ("v",))
    blocks = ray.get(ds.materialize().to_arrow_refs())
    empty = [b for b in blocks if len(b) == 0]
    assert empty and len(empty) < len(blocks)
    # the fold asserts it never sees zero rows; a zero-row block comes
    # out of the shuffle without columns, so no type can disagree
    assert all(b.schema == SCHEMA for b in blocks if len(b))
    assert all(len(b.schema) == 0 for b in empty)
    assert ds.schema().base_schema == SCHEMA
    got = pd.concat([b.to_pandas() for b in blocks if len(b)])
    assert got.sort_values("k").values.tolist() == [
        ["a", 2, 2], ["b", 1, 3], ["c", 1, 1]]


@pytest.mark.parametrize("keys", [["k"], ["i"], ["k", "j"]],
                         ids=["string", "int64", "two_columns"])
def test_key_types(ray_session, keys):
    t = _table()

    def fold(b, starts):
        return b.select(keys).take(starts).append_column(
            "n", pa.array(segment_ends(starts, len(b)) - starts))

    got = _canon(keyed_fold(ray.data.from_arrow(t), keys, fold, 5))
    want = t.to_pandas().groupby(keys).size().reset_index(name="n")
    want = want.sort_values(list(want.columns), ignore_index=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_order_by_ties_broken_by_second_column(ray_session):
    t = _table()

    def fold(b, starts):
        pos = np.arange(len(b)) - np.repeat(
            starts, segment_ends(starts, len(b)) - starts)
        return b.select(["k", "v"]).append_column("pos", pa.array(pos))

    got = _canon(keyed_fold(ray.data.from_arrow(t), ["k"], fold, 4,
                            ("i", "-v")))
    want = t.to_pandas().sort_values(["k", "i", "v"],
                                     ascending=[True, True, False])
    want["pos"] = want.groupby("k").cumcount()
    want = want[["k", "v", "pos"]].sort_values(["k", "v", "pos"],
                                              ignore_index=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_order_by_none_passes_the_block_unsorted(ray_session):
    t = pa.table({"k": [3, 1, 2, 1, 3], "v": [0, 1, 2, 3, 4]})

    def fold(b, starts):
        assert starts is None
        return b

    unsorted = keyed_fold(ray.data.from_arrow(t), ["k"], fold, 1,
                          None).to_pandas()
    assert unsorted["v"].tolist() == [0, 1, 2, 3, 4]
    srt = keyed_fold(ray.data.from_arrow(t), ["k"], lambda b, s: b,
                     1).to_pandas()
    assert srt["k"].tolist() == [1, 1, 2, 3, 3]


def test_same_output_at_one_and_seven_partitions(ray_session):
    t = _table(n=500, seed=9)
    ds = ray.data.from_arrow(t).repartition(3)
    one = _canon(keyed_fold(ds, ["k"], _summary_fn(), 1, ("j", "v")))
    seven = _canon(keyed_fold(ds, ["k"], _summary_fn(), 7, ("j", "v")))
    pd.testing.assert_frame_equal(one, seven)
    want = t.to_pandas().sort_values(["k", "j", "v"]).groupby("k").agg(
        n=("v", "size"), first_v=("v", "first")).reset_index()
    pd.testing.assert_frame_equal(one, want, check_dtype=False)
