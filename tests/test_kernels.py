"""Unit tests for the dedup kernels (no Ray needed)."""

import numpy as np
import pytest

from apache_datasketches_go_ray.functions.shingle import shingles_of_texts
from apache_datasketches_go_ray.functions.minhash import (
    perm_keys, signatures, band_keys, merge_signatures, EMPTY_SLOT,
    estimate_jaccard_from_sigs,
)
from apache_datasketches_go_ray.functions.jaccard import jaccard, containment
from apache_datasketches_go_ray.functions.suffixarray import (
    suffix_array, lcp_array, longest_common_substring, is_containment_dup,
)
from apache_datasketches_go_ray.state.unionfind import UnionFind


def test_shingles_deterministic_and_set_semantics():
    texts = ["a b c d e", "a b c d e", "e d c b a", "", "a"]
    f1, o1 = shingles_of_texts(texts, 3)
    f2, o2 = shingles_of_texts(texts, 3)
    assert np.array_equal(f1, f2) and np.array_equal(o1, o2)
    assert np.array_equal(f1[o1[0]:o1[1]], f1[o1[1]:o1[2]])  # identical docs
    assert o1[4] - o1[3] == 0  # empty doc -> no shingles
    assert o1[5] - o1[4] == 1  # short doc -> one shingle
    # shingle sets are sorted unique
    s0 = f1[o1[0]:o1[1]]
    assert np.array_equal(s0, np.unique(s0))


def test_shingle_order_sensitivity():
    f, o = shingles_of_texts(["a b c d e", "e d c b a"], 3)
    assert jaccard(f[o[0]:o[1]], f[o[1]:o[2]]) < 1.0


def test_minhash_identical_docs_identical_sigs():
    keys = perm_keys(128)
    f, o = shingles_of_texts(["x y z w q r s", "x y z w q r s"], 3)
    sigs = signatures(f, o, keys)
    assert np.array_equal(sigs[0], sigs[1])


def test_minhash_estimates_jaccard():
    rng = np.random.default_rng(7)
    vocab = [f"t{i}" for i in range(300)]
    base = list(rng.choice(vocab, 120, replace=False))
    # ~85% overlapping variant
    variant = base.copy()
    idx = rng.choice(len(variant), 18, replace=False)
    for i in idx:
        variant[i] = f"sub{i}"
    keys = perm_keys(128)
    f, o = shingles_of_texts([" ".join(base), " ".join(variant)], 3)
    exact = jaccard(f[o[0]:o[1]], f[o[1]:o[2]])
    est = estimate_jaccard_from_sigs(*signatures(f, o, keys))
    assert est == pytest.approx(exact, abs=0.15)


def test_signature_merge_is_min():
    keys = perm_keys(64)
    f, o = shingles_of_texts(["a b c d e f g", "f g h i j k l",
                              "a b c d e f g f g h i j k l"], 3)
    s = signatures(f, o, keys)
    # merged sig of union-of-docs dominates elementwise-min of parts:
    # the union text introduces bridging shingles, so compare only that
    # min-merge is the elementwise minimum and is idempotent/commutative
    m = merge_signatures(s[0], s[1])
    assert np.array_equal(m, np.minimum(s[0], s[1]))
    assert np.array_equal(merge_signatures(m, s[0]), m)


def test_empty_doc_signature_is_empty_slots():
    keys = perm_keys(16)
    f, o = shingles_of_texts([""], 3)
    s = signatures(f, o, keys)
    assert (s == EMPTY_SLOT).all()


def test_band_keys_detect_shared_bands():
    keys = perm_keys(128)
    f, o = shingles_of_texts(["p q r s t u v w x y z"] * 2, 3)
    s = signatures(f, o, keys)
    bk = band_keys(s, 42, 3)
    assert np.array_equal(bk[0], bk[1])


def test_jaccard_containment():
    a = np.array([1, 2, 3, 4], dtype=np.uint64)
    b = np.array([3, 4, 5, 6, 7, 8], dtype=np.uint64)
    assert jaccard(a, b) == pytest.approx(2 / 8)
    assert containment(a, b) == pytest.approx(2 / 4)
    assert containment(a[:2], np.array([1, 2, 9, 10, 11], dtype=np.uint64)) == 1.0


def test_suffix_array_banana():
    data = np.frombuffer(b"banana", dtype=np.uint8).astype(np.int64)
    sa = suffix_array(data)
    assert list(sa) == [5, 3, 1, 0, 4, 2]
    lcp = lcp_array(data, sa)
    assert list(lcp) == [0, 1, 3, 0, 0, 2]


def test_lcs_vs_bruteforce():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = "".join(rng.choice(list("abcd"), rng.integers(1, 30)))
        b = "".join(rng.choice(list("abcd"), rng.integers(1, 30)))
        got = longest_common_substring(a, b)
        best = 0
        for i in range(len(a)):
            for j in range(i + 1, len(a) + 1):
                if a[i:j] in b:
                    best = max(best, j - i)
        assert got == best, (a, b)


def test_containment_dup_detection():
    big = " ".join(f"w{i}" for i in range(200))
    small = " ".join(f"w{i}" for i in range(60, 160))  # contiguous 50%
    assert is_containment_dup(small, big, 0.5)
    assert not is_containment_dup("completely different thing", big, 0.5)


def test_union_find_min_labels():
    uf = UnionFind()
    for a, b in [("c", "b"), ("d", "c"), ("x", "y"), ("q", "q")]:
        uf.union(a, b)
    comp = uf.components()
    assert comp["b"] == comp["c"] == comp["d"] == "b"
    assert comp["x"] == comp["y"] == "x"


def test_simhash_near_dup_banding_recall(ray_session):
    """4x16-bit banding has exact recall for hamming <= 3: every planted
    exact/near copy pair is recovered, no false pairs beyond the radius."""
    import pyarrow as pa
    import ray.data
    from apache_datasketches_go_ray.stages.dedup_extras import (
        simhash_near_dup_pairs,
    )

    rng = np.random.default_rng(7)
    vocab = [f"t{i:03d}" for i in range(400)]
    texts, ids = [], []
    for i in range(30):
        words = [vocab[j] for j in rng.integers(0, 400, size=60)]
        texts.append(" ".join(words))
        ids.append(i)
    # exact copies of the first 10 docs
    for i in range(10):
        texts.append(texts[i])
        ids.append(100 + i)
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    }))
    rows = simhash_near_dup_pairs(ds, max_hamming=3,
                                  num_partitions=4).take_all()
    got = {(r["doc_a"], r["doc_b"]) for r in rows}
    for i in range(10):
        assert (i, 100 + i) in got, f"missing exact pair {i}"
    for r in rows:
        assert r["hamming"] <= 3


def test_lsh_topk_overlap_with_brute_force(ray_session):
    """The LSH-bucketed top-k (scale path) must recover the true nearest
    neighbor for planted near-duplicate queries and overlap substantially
    with brute force on its probed candidates."""
    import pyarrow as pa
    import ray.data
    from apache_datasketches_go_ray.stages.ann import (
        brute_force_topk, lsh_topk,
    )

    rng = np.random.default_rng(11)
    m = rng.standard_normal((400, 32)).astype(np.float32)
    # plant: vectors 100..104 are tiny perturbations of queries 0..4
    for i in range(5):
        m[100 + i] = m[i] + 0.01 * rng.standard_normal(32).astype(np.float32)
    ids = np.arange(400, dtype=np.int64)
    tbl = pa.table({"vec_id": pa.array(ids),
                    "embedding": pa.array(list(m), type=pa.list_(pa.float32()))})
    q_ids = ids[:5]
    qm = m[:5]
    bf = brute_force_topk(ray.data.from_arrow(tbl), q_ids, qm, k=5)
    ap = lsh_topk(ray.data.from_arrow(tbl), q_ids, qm, k=5, n_planes=6)
    # rank-1 (self) and rank-2 (planted near-dup) must match brute force
    bf_top = {(r["query_id"], r["rank"]): r["vec_id"]
              for r in bf.to_pylist() if r["rank"] <= 2}
    ap_top = {(r["query_id"], r["rank"]): r["vec_id"]
              for r in ap.to_pylist() if r["rank"] <= 2}
    assert ap_top == bf_top


def test_ivf_topk_overlap_with_brute_force(ray_session):
    """The IVF-bucketed top-k (second ANN scale path) must recover the
    planted nearest neighbors, and the whole index must be deterministic
    (fixed-seed spherical k-means)."""
    import pyarrow as pa
    import ray.data
    from apache_datasketches_go_ray.stages.ann import (
        brute_force_topk, ivf_topk,
    )

    rng = np.random.default_rng(13)
    m = rng.standard_normal((400, 32)).astype(np.float32)
    for i in range(5):
        m[100 + i] = m[i] + 0.01 * rng.standard_normal(32).astype(np.float32)
    ids = np.arange(400, dtype=np.int64)
    tbl = pa.table({"vec_id": pa.array(ids),
                    "embedding": pa.array(list(m),
                                          type=pa.list_(pa.float32()))})
    q_ids = ids[:5]
    qm = m[:5]
    bf = brute_force_topk(ray.data.from_arrow(tbl), q_ids, qm, k=5)
    ap = ivf_topk(ray.data.from_arrow(tbl), q_ids, qm, k=5,
                  n_clusters=8, n_probe=3)
    bf_top = {(r["query_id"], r["rank"]): r["vec_id"]
              for r in bf.to_pylist() if r["rank"] <= 2}
    ap_top = {(r["query_id"], r["rank"]): r["vec_id"]
              for r in ap.to_pylist() if r["rank"] <= 2}
    assert ap_top == bf_top
    ap2 = ivf_topk(ray.data.from_arrow(tbl), q_ids, qm, k=5,
                   n_clusters=8, n_probe=3)
    assert ap.to_pylist() == ap2.to_pylist()


def test_verify_batch_null_and_empty_shingles():
    """Vectorized _verify_batch edge cases: a null endpoint rejects the
    pair (missing candidate payload from the left-outer join), empty
    valid buffers follow the jaccard=1.0-when-both-empty rule, and
    results match the scalar kernel row by row."""
    import numpy as np
    import pyarrow as pa

    from apache_datasketches_go_ray.config import DedupConfig
    from apache_datasketches_go_ray.stages.verify import _verify_batch

    def buf(vals):
        return np.asarray(sorted(set(vals)), dtype=np.uint64).tobytes()

    sh_a = [buf([1, 2, 3, 4]), None, b"", buf([5, 6]), b""]
    sh_b = [buf([1, 2, 3, 99]), buf([1]), buf([7]), None, b""]
    batch = pa.table({
        "a": pa.array([f"A{i}" for i in range(5)]),
        "b": pa.array([f"B{i}" for i in range(5)]),
        "shingles_a": pa.array(sh_a, type=pa.large_binary()),
        "shingles_b": pa.array(sh_b, type=pa.large_binary()),
    })
    cfg = DedupConfig(jaccard_threshold=0.5, containment_threshold=0.9)
    out = _verify_batch(batch, cfg).to_pandas()
    # row 0: |∩|=3, |∪|=5 -> 0.6 >= 0.5 -> jaccard dup
    assert out.loc[0, "method"] == "jaccard" and bool(out.loc[0, "is_dup"])
    assert abs(out.loc[0, "jaccard"] - 0.6) < 1e-12
    # rows 1, 3: null endpoint -> rejected, scores zeroed
    for i in (1, 3):
        assert out.loc[i, "method"] == "rejected"
        assert out.loc[i, "jaccard"] == 0.0
        assert not bool(out.loc[i, "is_dup"])
    # row 2: empty valid vs {7} -> jac 0, con 0 -> rejected
    assert out.loc[2, "method"] == "rejected"
    # row 4: both empty valid -> union 0 -> jaccard 1.0 -> dup
    assert out.loc[4, "jaccard"] == 1.0 and bool(out.loc[4, "is_dup"])


def test_verify_batch_zero_rows():
    import pyarrow as pa

    from apache_datasketches_go_ray.config import DedupConfig
    from apache_datasketches_go_ray.stages.verify import (
        _VERIFY_SCHEMA,
        _verify_batch,
    )

    empty = pa.table({
        "a": pa.array([], type=pa.string()),
        "b": pa.array([], type=pa.string()),
        "shingles_a": pa.array([], type=pa.large_binary()),
        "shingles_b": pa.array([], type=pa.large_binary()),
    })
    out = _verify_batch(empty, DedupConfig())
    assert out.num_rows == 0 and out.schema.equals(_VERIFY_SCHEMA)


def test_knn_join_matches_numpy_bruteforce(ray_session):
    """Dataset-to-dataset exact kNN: result equals the in-process
    numpy brute force under the (score desc, vec_id asc) tie-break."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from apache_datasketches_go_ray.stages.ann import knn_join

    rng = np.random.default_rng(11)
    n, d, k = 400, 16, 4
    vecs = rng.normal(size=(n, d)).astype(np.float32)
    corpus = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array(list(vecs), type=pa.list_(pa.float32())),
    }))
    qmask = np.arange(n) % 11 == 0
    queries = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)[qmask]),
        "embedding": pa.array(list(vecs[qmask]), type=pa.list_(pa.float32())),
    }))
    out = knn_join(corpus, queries, k=k, chunk_rows=13,
                   num_partitions=4).to_pandas() \
        .sort_values(["query_id", "rank"], ignore_index=True)

    m = vecs.astype(np.float64)
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    exp_rows = []
    for qid in np.flatnonzero(qmask):
        scores = mn[qid] @ mn.T
        order = np.lexsort((np.arange(n), -scores))[:k]
        for r, v in enumerate(order):
            exp_rows.append((qid, int(v), r + 1))
    got = list(zip(out["query_id"], out["vec_id"], out["rank"]))
    assert got == exp_rows


def test_lsh_knn_join_recall(ray_session):
    """Approximate dataset-to-dataset kNN: on clustered vectors the
    bucketed join recovers most of the exact top-k (recall measured
    against knn_join ground truth); output schema/rank contract matches
    the exact operator."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from apache_datasketches_go_ray.stages.ann import knn_join, lsh_knn_join

    rng = np.random.default_rng(21)
    n_clusters, per, d, k = 20, 30, 16, 5
    centers = rng.normal(size=(n_clusters, d))
    pts = np.repeat(centers, per, axis=0) + \
        0.08 * rng.normal(size=(n_clusters * per, d))
    n = len(pts)
    corpus = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array(list(pts.astype(np.float32)),
                              type=pa.list_(pa.float32())),
    }))
    qmask = np.arange(n) % 17 == 0
    queries = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)[qmask]),
        "embedding": pa.array(list(pts[qmask].astype(np.float32)),
                              type=pa.list_(pa.float32())),
    }))
    exact = knn_join(corpus, queries, k=k, chunk_rows=64,
                     num_partitions=4).to_pandas()
    approx = lsh_knn_join(corpus, queries, k=k, n_planes=6, n_tables=6,
                          num_partitions=4).to_pandas()
    truth = exact.groupby("query_id")["vec_id"].apply(set)
    got = approx.groupby("query_id")["vec_id"].apply(set)
    hits = sum(len(truth[q] & got.get(q, set())) for q in truth.index)
    recall = hits / (len(truth) * k)
    assert recall >= 0.8, recall
    assert (approx["rank"] >= 1).all() and (approx["rank"] <= k).all()


def test_ivf_topk_with_injected_kmeans_centroids(ray_session):
    """ivf_topk(centroids=...) — the exact distributed-Lloyd quantizer
    path — recovers the planted neighbors like the sampled trainer."""
    import pyarrow as pa
    import ray.data

    from apache_datasketches_go_ray.stages.ann import (
        brute_force_topk, ivf_topk,
    )
    from apache_datasketches_go_ray.stages.embops import kmeans_fit

    rng = np.random.default_rng(29)
    m = rng.standard_normal((400, 32)).astype(np.float32)
    for i in range(5):
        m[100 + i] = m[i] + 0.01 * rng.standard_normal(32) \
            .astype(np.float32)
    ids = np.arange(400, dtype=np.int64)
    tbl = pa.table({"vec_id": pa.array(ids),
                    "embedding": pa.array(list(m),
                                          type=pa.list_(pa.float32()))})
    ds = ray.data.from_arrow(tbl).repartition(3)
    _assign, C = kmeans_fit(ds, k=8, n_iter=5, num_partitions=3)
    q_ids = ids[:5]
    qm = m[:5]
    bf = brute_force_topk(ray.data.from_arrow(tbl), q_ids, qm, k=5)
    ap = ivf_topk(ray.data.from_arrow(tbl), q_ids, qm, k=5,
                  n_probe=3, centroids=C)
    bf_top = {(r["query_id"], r["rank"]): r["vec_id"]
              for r in bf.to_pylist() if r["rank"] <= 2}
    ap_top = {(r["query_id"], r["rank"]): r["vec_id"]
              for r in ap.to_pylist() if r["rank"] <= 2}
    assert ap_top == bf_top


@pytest.mark.parametrize("dense", [False, True])
def test_salted_band_filter_equals_explode_then_filter(ray_session, dense):
    """explode_bands with hot buckets and an increment's band filter == the
    unfiltered salted explode with the filter applied afterwards, row
    for row (salt included), with and without the dense-id bridge."""
    import pyarrow as pa
    import ray
    import ray.data

    from apache_datasketches_go_ray.stages.ids import build_bridge
    from apache_datasketches_go_ray.stages.lsh import (
        _in_sorted, explode_bands)

    rng = np.random.default_rng(5)
    n, n_bands = 40, 6
    # a 12-value band alphabet: buckets are shared, some hot
    bands = rng.integers(0, 12, size=(n, n_bands)).astype(np.uint64)
    batch = pa.table({
        "conv_id": pa.array([f"conv-{i:03d}" for i in rng.permutation(n)]),
        "bands": pa.array(list(bands), type=pa.list_(pa.uint64())),
        "sig_digest": pa.array([bytes([i % 7] * 4) for i in range(n)],
                               type=pa.large_binary()),
    })
    hot_ref = ray.put((np.array([1, 4, 9], dtype=np.uint64), 4))
    allowed = np.array([0, 1, 4, 7], dtype=np.uint64)
    bridge = (build_bridge(ray.data.from_arrow(batch.select(["conv_id"])))
              if dense else None)

    got = explode_bands(batch, hot_ref, bridge_ref=bridge,
                        band_filter_ref=ray.put(allowed))
    full = explode_bands(batch, hot_ref, bridge_ref=bridge)
    want = full.filter(pa.array(_in_sorted(
        full.column("band_hash").to_numpy(), allowed)))
    assert got.equals(want)
    assert 0 < len(got) < len(full)
    assert len(set(got.column("salt").to_pylist())) > 1


def test_removed_flagship_fallbacks_raise():
    """candidate_pairs no longer dedups pairs itself, verify_pairs always
    does, and verify_pairs has no text source but ``texts_ds``: each
    says so before any work."""
    from apache_datasketches_go_ray.config import DedupConfig
    from apache_datasketches_go_ray.stages.lsh import candidate_pairs
    from apache_datasketches_go_ray.stages.verify import verify_pairs

    with pytest.raises(ValueError, match="dedup_pairs=True"):
        candidate_pairs(None, DedupConfig(), dedup=True)
    with pytest.raises(TypeError, match="texts_ds"):
        verify_pairs(None, None, DedupConfig())
    with pytest.raises(ValueError, match="dedup_pairs=False"):
        verify_pairs(None, None, DedupConfig(), dedup_pairs=False)
