"""jaccard_cross_join, filter_above_group_quantile, rolling_quantile
and cluster_representatives vs brute single-process oracles, across
>=2 partitionings and (for the cross join) both verify paths."""

import numpy as np
import pyarrow as pa
import pytest


def _ds(tbl, blocks):
    import ray.data

    return ray.data.from_arrow(tbl).repartition(blocks)


def _corpus(seed, n, vocab=30, lo=4, hi=12):
    rng = np.random.default_rng(seed)
    words = np.array([f"w{i}" for i in range(vocab)], dtype=object)
    texts = [" ".join(rng.choice(words, rng.integers(lo, hi)))
             for _ in range(n)]
    return texts


def _brute_cross(a_texts, b_texts, tau):
    out = set()
    for i, ta in enumerate(a_texts):
        sa = set(ta.split())
        if not sa:
            continue
        for j, tb in enumerate(b_texts):
            sb = set(tb.split())
            if not sb:
                continue
            jac = len(sa & sb) / len(sa | sb)
            if jac >= tau:
                out.add((i, j))
    return out


@pytest.mark.parametrize("blocks,gate", [(1, 1 << 30), (4, 1 << 30),
                                         (3, 0)])
def test_jaccard_cross_join_matches_brute(ray_session, blocks, gate):
    from apache_datasketches_go_ray.stages.dedup_extras import (
        jaccard_cross_join,
    )

    a_texts = _corpus(1, 60)
    b_texts = _corpus(2, 50)
    # plant exact and near dups across the datasets
    b_texts[7] = a_texts[3]
    b_texts[11] = a_texts[20] + " extra"
    ta = pa.table({"doc_id": pa.array(np.arange(60, dtype=np.int64)),
                   "text": pa.array(a_texts, type=pa.string())})
    tb = pa.table({"doc_id": pa.array(np.arange(50, dtype=np.int64)),
                   "text": pa.array(b_texts, type=pa.string())})
    got = jaccard_cross_join(_ds(ta, blocks), _ds(tb, blocks), tau=0.5,
                             num_partitions=4,
                             broadcast_gate_bytes=gate).to_pandas()
    got_pairs = {(int(r.doc_a), int(r.doc_b)) for r in got.itertuples()}
    want = _brute_cross(a_texts, b_texts, 0.5)
    assert got_pairs == want
    assert (3, 7) in got_pairs  # planted exact dup survives
    # jacc values are exact
    for r in got.itertuples():
        sa = set(a_texts[int(r.doc_a)].split())
        sb = set(b_texts[int(r.doc_b)].split())
        jac = len(sa & sb) / len(sa | sb)
        assert abs(r.jacc - round(jac, 6)) < 1e-9


@pytest.mark.parametrize("blocks", [1, 5])
def test_filter_above_group_quantile(ray_session, blocks):
    from apache_datasketches_go_ray.stages.relational import (
        filter_above_group_quantile,
    )

    rng = np.random.default_rng(9)
    n = 400
    g = rng.integers(0, 5, n).astype(np.int64)
    v = rng.integers(0, 1000, n).astype(np.int64)
    ids = np.arange(n, dtype=np.int64)
    tbl = pa.table({"g": pa.array(g), "v": pa.array(v),
                    "id": pa.array(ids)})
    got = filter_above_group_quantile(_ds(tbl, blocks), "g", "v", 0.75,
                                      carry_cols=["id"]).to_pandas()
    got_ids = set(got["id"].astype(int))
    want = set()
    for gg in np.unique(g):
        m = g == gg
        sv = np.sort(v[m])
        # DuckDB quantile_disc / ANSI percentile_disc: ceil(q*n) - 1
        thr = sv[int(np.ceil(0.75 * m.sum())) - 1]
        want |= set(ids[m][v[m] >= thr].tolist())
    assert got_ids == want
    # q=0: the threshold is each group's minimum, so every row stays
    got0 = filter_above_group_quantile(_ds(tbl, blocks), "g", "v", 0.0,
                                       carry_cols=["id"]).to_pandas()
    assert sorted(got0["id"].astype(int)) == ids.tolist()


@pytest.mark.parametrize("blocks", [1, 4])
def test_rolling_quantile_matches_brute(ray_session, blocks):
    from apache_datasketches_go_ray.stages.windows import (
        rolling_quantile,
    )

    rng = np.random.default_rng(17)
    n = 500
    k = rng.integers(0, 6, n).astype(np.int64)
    base = np.datetime64("2024-01-01T00:00:00", "us").astype(np.int64)
    ts = base + rng.integers(0, 10**9, n)
    ts[5] = ts[6]  # exercise the tie-break
    k[5] = k[6]
    v = rng.integers(-100, 100, n).astype(np.int64)
    eid = np.arange(n, dtype=np.int64)
    tbl = pa.table({"k": pa.array(k),
                    "ts": pa.array(ts).cast(pa.timestamp("us")),
                    "eid": pa.array(eid), "v": pa.array(v)})
    got = rolling_quantile(_ds(tbl, blocks), "k", "ts", "v", window=5,
                           q=0.5, tie_col="eid").to_pandas()
    got_map = {int(r.eid): int(r.rolling_q) for r in got.itertuples()}
    for kk in np.unique(k):
        m = k == kk
        order = np.lexsort((eid[m], ts[m]))
        vs, es = v[m][order], eid[m][order]
        for i in range(len(vs)):
            win = np.sort(vs[max(0, i - 4): i + 1])
            want = int(win[int(np.floor(0.5 * (len(win) - 1)))])
            assert got_map[int(es[i])] == want
    assert len(got) == n


@pytest.mark.parametrize("blocks", [1, 4])
def test_cluster_representatives(ray_session, blocks):
    from apache_datasketches_go_ray.stages.cluster import (
        cluster_representatives,
    )

    rng = np.random.default_rng(23)
    convs = [f"c{i:03d}" for i in range(30)]
    cluster_of = {c: f"cl{int(i // 5)}" for i, c in enumerate(convs)}
    n_turns = {c: int(rng.integers(1, 20)) for c in convs}
    n_turns["c002"] = n_turns["c001"] = 20  # tie inside cl0 -> c001 wins
    clusters = pa.table({
        "conv_id": pa.array(convs, type=pa.string()),
        "cluster_id": pa.array([cluster_of[c] for c in convs],
                               type=pa.string()),
    })
    rows = [(c, t) for c in convs for t in range(n_turns[c])]
    turns = pa.table({
        "conv_id": pa.array([r[0] for r in rows], type=pa.string()),
        "turn_idx": pa.array([r[1] for r in rows], type=pa.int32()),
    })
    got = cluster_representatives(_ds(clusters, blocks),
                                  _ds(turns, blocks)).to_pandas() \
        .set_index("cluster_id").sort_index()
    for cl in sorted(set(cluster_of.values())):
        members = [c for c in convs if cluster_of[c] == cl]
        best = sorted(members, key=lambda c: (-n_turns[c], c))[0]
        assert got.loc[cl, "rep_conv_id"] == best
        assert int(got.loc[cl, "n_convs"]) == len(members)
        assert int(got.loc[cl, "rep_n_turns"]) == n_turns[best]
