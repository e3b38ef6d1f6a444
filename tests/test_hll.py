"""HLL sketch parity + invariant tests.

Parity targets:
* full register/HIP/KxQ state vs the Java golden files (byte-authoritative
  through the reference's TestGoCompat byte-equality assertion).
* the reference's pinned doctest outputs (hll/example_test.go:84-96).
"""

import json
import os
import struct

import numpy as np
import pytest

from apache_datasketches_go_ray.state.hll import (
    HllSketch,
    coupons_from_u64s,
)

JAVA = "/root/reference/serialization_test_data/java_generated_files"
PINNED = json.load(open(os.path.join(os.path.dirname(__file__), "data",
                                     "hll_murmur_pinned.json")))


def _parse_hll8(path):
    b = open(path, "rb").read()
    assert (b[7] & 3) == 2, "expected HLL mode"
    hip, kxq0, kxq1 = struct.unpack_from("<ddd", b, 8)
    regs = np.frombuffer(b, dtype=np.uint8, offset=40)
    return hip, kxq0, kxq1, regs


def _lgk12_sketch(n):
    sk = HllSketch(12)
    for i in range(n):
        sk.update_u64(i)
    return sk


@pytest.mark.parametrize("n", [1000, 10000, 100000])
def test_full_state_parity_vs_java(n):
    path = f"{JAVA}/hll8_n{n}_java.sk"
    if not os.path.exists(path):
        pytest.skip(f"Java golden file missing: {path}")
    hip, kxq0, kxq1, regs = _parse_hll8(path)
    sk = _lgk12_sketch(n)
    assert np.array_equal(sk.registers, regs)
    assert sk.hip_accum == pytest.approx(hip, abs=1e-9)
    assert sk.kxq0 == pytest.approx(kxq0, abs=1e-9)
    assert sk.kxq1 == pytest.approx(kxq1, abs=1e-9)


@pytest.mark.parametrize("n", [1000, 10000, 100000])
def test_full_state_pinned(n):
    """Registers and HIP/KxQ accumulators, bit for bit, against values
    pinned in tests/data from this HllSketch. They were taken while
    state/hll.py was unchanged since the code that matched the Java
    goldens above, so this regression check runs on every host."""
    want = PINNED["hll8_lgk12"][str(n)]
    sk = _lgk12_sketch(n)
    assert np.asarray(sk.registers, dtype=np.uint8).tobytes().hex() \
        == want["registers_hex"]
    assert float(sk.hip_accum).hex() == want["hip_accum"]
    assert float(sk.kxq0).hex() == want["kxq0"]
    assert float(sk.kxq1).hex() == want["kxq1"]


def test_pinned_example_outputs():
    """hll/example_test.go:84-96 pinned doctest outputs."""
    sk = HllSketch(10)
    for i in range(100):
        sk.update_i64(i)
    assert int(sk.get_estimate()) == 100
    for i in range(100000):
        sk.update_i64(i)
    assert int(sk.get_estimate()) == 104403
    assert int(sk.get_upper_bound(2)) == 109997
    assert int(sk.get_lower_bound(2)) == 99134

    sk2 = HllSketch(10)
    for i in range(50000, 150000):
        sk2.update_i64(i)
    assert int(sk2.get_estimate()) == 96390

    u = HllSketch(10)
    u.merge(sk)
    u.merge(sk2)
    assert int(u.get_estimate()) == 151359
    assert int(u.get_upper_bound(2)) == 161518
    assert int(u.get_lower_bound(2)) == 141853


def test_serde_roundtrip_preserves_estimate():
    for n in (5, 50, 5000):
        sk = HllSketch(12)
        for i in range(n):
            sk.update_u64(i)
        rt = HllSketch.from_bytes(sk.to_bytes())
        assert rt.get_estimate() == pytest.approx(sk.get_estimate(), rel=1e-12)


def test_bulk_path_within_composite_tolerance():
    """The vectorized bulk/partial path is out-of-order so it uses the
    composite (non-HIP) estimator; its RSE is ~1.039/sqrt(K) = 1.62% at
    lgK=12 (hll/utils.go:52), so allow 3 standard deviations. Small-n cases
    stay in coupon mode and are near-exact."""
    for n in (10, 100, 1000):
        sk = HllSketch(12)
        cs = coupons_from_u64s(np.arange(n, dtype=np.uint64))
        sk.update_coupons_bulk(cs)
        assert sk.get_estimate() == pytest.approx(n, rel=0.02)
    for n in (10000, 100000):
        sk = HllSketch(12)
        cs = coupons_from_u64s(np.arange(n, dtype=np.uint64))
        sk.update_coupons_bulk(cs)
        assert sk.get_estimate() == pytest.approx(n, rel=0.05)


def test_merge_matches_distributed_partials():
    """Partial-per-block + merge == single sketch registers (mergeability
    contract, hll/union.go:376-385)."""
    vals = np.arange(50000, dtype=np.uint64)
    whole = HllSketch(12)
    whole.update_coupons_bulk(coupons_from_u64s(vals))

    merged = HllSketch(12)
    for chunk in np.array_split(vals, 7):
        part = HllSketch(12)
        part.update_coupons_bulk(coupons_from_u64s(chunk))
        merged.merge(part)

    assert np.array_equal(merged.registers, whole.registers)
    assert merged.get_estimate() == pytest.approx(whole.get_estimate(), rel=1e-9)


def test_merge_commutative_associative():
    a = np.arange(0, 30000, dtype=np.uint64)
    b = np.arange(20000, 60000, dtype=np.uint64)
    c = np.arange(50000, 90000, dtype=np.uint64)

    def sk_of(arr):
        s = HllSketch(12)
        s.update_coupons_bulk(coupons_from_u64s(arr))
        return s

    m1 = HllSketch(12)
    for x in (a, b, c):
        m1.merge(sk_of(x))
    m2 = HllSketch(12)
    for x in (c, a, b):
        m2.merge(sk_of(x))
    assert np.array_equal(m1.registers, m2.registers)
    assert m1.get_estimate() == pytest.approx(90000, rel=0.05)


def test_bounds_bracket_truth():
    sk = HllSketch(12)
    for i in range(20000):
        sk.update_u64(i)
    assert sk.get_lower_bound(2) <= 20000 <= sk.get_upper_bound(2)


def test_hll_union_mixed_lgk():
    """Heterogeneous-lgK union, to the reference's supported extent:
    coupon-mode sides replay into any gadget lgK; HLL x HLL at
    different lgK raises (union.go:269-303 not-implemented parity)."""
    import numpy as np
    import pytest

    from apache_datasketches_go_ray.state.hll import HllSketch

    # coupon-mode source (small n) into a bigger-lgK HLL-mode gadget
    from apache_datasketches_go_ray.state.hll import coupons_from_u64s

    big = HllSketch(lg_k=14)
    big.update_coupons_bulk(coupons_from_u64s(
        np.arange(50_000, dtype=np.uint64)))
    small = HllSketch(lg_k=10)
    small.update_coupons_bulk(coupons_from_u64s(
        np.arange(49_990, 50_020, dtype=np.uint64)))
    assert small.mode != 2  # still LIST/SET
    big.merge(small)
    est = big.get_estimate()
    assert abs(est - 50_020) / 50_020 < 0.05

    # coupon-mode gadget adopts an HLL-mode source of different lgK
    g = HllSketch(lg_k=10)
    g.update_coupons_bulk(coupons_from_u64s(np.arange(20, dtype=np.uint64)))
    src = HllSketch(lg_k=12)
    src.update_coupons_bulk(coupons_from_u64s(
        np.arange(10, 40_000, dtype=np.uint64)))
    g.merge(src)
    assert g.lg_k == 12
    assert abs(g.get_estimate() - 40_000) / 40_000 < 0.05

    # HLL x HLL at different lgK: reference not-implemented
    a = HllSketch(lg_k=10)
    a.update_coupons_bulk(coupons_from_u64s(
        np.arange(100_000, dtype=np.uint64)))
    b = HllSketch(lg_k=12)
    b.update_coupons_bulk(coupons_from_u64s(
        np.arange(100_000, dtype=np.uint64)))
    with pytest.raises(ValueError):
        a.merge(b)


def test_hll_copy_as_storage_types():
    """CopyAs 4/6/8: an HLL_4 copy carries exactly what an HLL_4 wire
    image carries (curMin-rebased nibbles + aux exceptions), estimates
    agree within the nibble-saturation information loss, and
    to_reference_bytes round-trips in the declared type."""
    import numpy as np

    from apache_datasketches_go_ray.state.hll import HllSketch, coupons_from_u64s
    from apache_datasketches_go_ray.state.serde_compat import read_hll

    sk = HllSketch(lg_k=11)
    sk.update_coupons_bulk(coupons_from_u64s(
        np.arange(200_000, dtype=np.uint64)))
    base = sk.get_estimate()
    for tgt in (8, 6, 4):
        cp = sk.copy_as(tgt)
        assert cp.tgt_type == tgt
        # 8/6 are lossless at these register values; 4 may clamp via
        # curMin rebase but the estimate must stay within the bound band
        rel = abs(cp.get_estimate() - base) / base
        assert rel < (1e-12 if tgt in (8, 6) else 0.01), (tgt, rel)
        rt = read_hll(cp.to_reference_bytes())
        assert abs(rt.get_estimate() - cp.get_estimate()) < 1e-9
    # coupon-mode copies convert trivially
    small = HllSketch(lg_k=11)
    small.update_coupons_bulk(coupons_from_u64s(
        np.arange(20, dtype=np.uint64)))
    c4 = small.copy_as(4)
    assert c4.tgt_type == 4
    assert c4.get_estimate() == small.get_estimate()
