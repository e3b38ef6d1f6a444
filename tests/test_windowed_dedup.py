"""Time-windowed near-dup detection: window semantics (inside kept,
outside excluded), bucket-boundary recall (the two-bucket emission),
and partition independence."""

import numpy as np
import pyarrow as pa
import pytest

from apache_datasketches_go_ray.config import DedupConfig

DAY_US = 24 * 3600 * 1_000_000
BASE_TS = 1_700_000_000_000_000


def _body(rng, n=120):
    vocab = [f"w{i}" for i in range(400)]
    return " ".join(rng.choice(vocab, n))


def _near_copy(text, rng):
    toks = text.split()
    i = int(rng.integers(0, len(toks)))
    toks[i] = "changedtoken"
    return " ".join(toks)


def _rows(conv, text, ts0):
    half = len(text) // 2
    return [
        {"conv_id": conv, "turn_idx": 0, "role": "user",
         "text": text[:half], "tool": "", "ts": ts0},
        {"conv_id": conv, "turn_idx": 1, "role": "assistant",
         "text": text[half:], "tool": "", "ts": ts0 + 60_000_000},
    ]


def _fixture_table(seed=11):
    rng = np.random.default_rng(seed)
    rows, want_in, want_out = [], set(), set()
    # 6 dup pairs inside the 2-day window (one straddling a bucket
    # boundary on purpose), 4 dup pairs far outside it, plus noise
    for g in range(6):
        t = _body(rng)
        ts0 = BASE_TS + g * 5 * DAY_US
        # straddle: second copy 1.5 days later crosses the 2-day bucket
        # boundary whenever ts0 % (2 days) > 0.5 days
        gap = int(1.5 * DAY_US) if g % 2 == 0 else int(0.5 * DAY_US)
        rows += _rows(f"in-{g}-a", t, ts0)
        rows += _rows(f"in-{g}-b", _near_copy(t, rng), ts0 + gap)
        want_in.add((f"in-{g}-a", f"in-{g}-b"))
    for g in range(4):
        t = _body(rng)
        ts0 = BASE_TS + g * 11 * DAY_US
        rows += _rows(f"out-{g}-a", t, ts0)
        rows += _rows(f"out-{g}-b", _near_copy(t, rng),
                      ts0 + 6 * DAY_US)
        want_out.add((f"out-{g}-a", f"out-{g}-b"))
    for g in range(20):
        rows += _rows(f"noise-{g}", _body(rng),
                      BASE_TS + int(rng.integers(0, 60)) * DAY_US)
    return pa.Table.from_pylist(rows), want_in, want_out


@pytest.mark.parametrize("blocks", [2, 5])
def test_windowed_near_dups(ray_session, blocks):
    import ray.data

    from apache_datasketches_go_ray.stages.windowed_dedup import (
        windowed_near_dups,
    )

    tbl, want_in, want_out = _fixture_table()
    ds = ray.data.from_arrow(tbl).repartition(blocks)
    out = windowed_near_dups(ds, DedupConfig(num_partitions=4),
                             window_us=2 * DAY_US).to_pandas()
    got = {tuple(sorted((a, b))) for a, b in zip(out["a"], out["b"])}
    got_canon = {(min(p), max(p)) for p in got}
    for p in want_in:
        assert p in got_canon, f"missed in-window pair {p}"
    for p in want_out:
        assert p not in got_canon, f"kept out-of-window pair {p}"
    assert (out["gap_us"] <= 2 * DAY_US).all()
    assert (out["jaccard"] >= 0.5).all()


def test_windowed_matches_flagship_within_window(ray_session):
    """Within the window, the windowed pass finds exactly the pairs the
    flagship's band+verify finds (same config, high-Jaccard dups)."""
    import ray.data

    from apache_datasketches_go_ray.pipelines.dedup import run_dedup
    from apache_datasketches_go_ray.stages.windowed_dedup import (
        conv_start_times, windowed_near_dups,
    )

    tbl, want_in, _ = _fixture_table(seed=13)
    ds = ray.data.from_arrow(tbl).repartition(3)
    cfg = DedupConfig(num_partitions=4)

    res = run_dedup(ds, cfg)
    starts = {r["conv_id"]: r["ts0"]
              for r in conv_start_times(ds).take_all()}
    flag_pairs = {
        (min(r["a"], r["b"]), max(r["a"], r["b"]))
        for r in res["verified"].filter(expr="is_dup == True").take_all()
        if abs(starts[r["a"]] - starts[r["b"]]) <= 2 * DAY_US
    }
    out = windowed_near_dups(ds, cfg, window_us=2 * DAY_US).to_pandas()
    got = {(min(a, b), max(a, b)) for a, b in zip(out["a"], out["b"])}
    # windowed may legitimately lack turn-collision-only pairs (it has
    # no turnblock stage); these planted dups are all band-reachable,
    # so the sets must be equal here
    assert got == flag_pairs
    # and both saw every planted in-window pair
    for p in want_in:
        assert p in got


def test_pair_kernel_groups_by_band_and_bucket():
    """No Ray: 70 convs share one band hash, one day apart, window one
    day, each emitted into its bucket and the next. Whether the cells
    of that band land in one block or one block each, the pair kernel
    yields exactly the 69 in-window neighbours: it groups by the fold's
    (band_hash, bucket) runs, never by band_hash alone."""
    from apache_datasketches_go_ray.stages.keyed import sort_segments
    from apache_datasketches_go_ray.stages.lsh import pairs_in_block
    from apache_datasketches_go_ray.stages.windowed_dedup import (
        _bucket_duplicate)

    n = 70
    rng = np.random.default_rng(3)
    names = [f"c{int(i):03d}" for i in rng.permutation(n)]  # id != time
    rows = _bucket_duplicate(pa.table({
        "band_hash": pa.array(np.full(n, 7), type=pa.uint64()),
        "conv_id": pa.array(names),
        "sig_digest": pa.array([bytes(32)] * n, type=pa.large_binary()),
        "ts0": pa.array(np.arange(n, dtype=np.int64) * DAY_US),
    }), DAY_US)
    cfg = DedupConfig()

    def pairs(block):
        out = pairs_in_block(
            *sort_segments(block, ["band_hash", "bucket"], ["conv_id"]),
            max_group=cfg.max_band_group,
            min_matches=cfg.prefilter_min_matches)
        return set(zip(out.column("a").to_pylist(),
                       out.column("b").to_pylist()))

    want = {tuple(sorted((names[i], names[i + 1]))) for i in range(n - 1)}
    assert pairs(rows) == want
    buckets = rows.column("bucket").to_numpy()
    per_cell = set()
    for bk in np.unique(buckets):
        per_cell |= pairs(rows.filter(pa.array(buckets == bk)))
    assert per_cell == want
