"""Bit-parity tests for the murmur3-128 (seed 9001) hash substrate.

The authoritative vectors are the reference's cross-language golden files
(serialization_test_data/java_generated_files/*.sk): the reference's
TestGoCompat (hll/hll_sketch_serialization_test.go:176-252) asserts its Go
sketches serialize byte-identical to these, so coupon sets extracted from
them pin murmur3-128/seed-9001 + coupon extraction exactly.
"""

import json
import os
import struct

import numpy as np
import pytest

from apache_datasketches_go_ray.functions.murmur3 import (
    murmur3_128,
    murmur3_128_u64,
    hash_strings,
    fmix64,
)
from apache_datasketches_go_ray.state.hll import coupon, coupons_from_u64s

JAVA = "/root/reference/serialization_test_data/java_generated_files"


def _java_coupons(path):
    b = open(path, "rb").read()
    mode = b[7] & 3
    if mode == 0:  # LIST
        count = b[6]
        return set(struct.unpack_from(f"<{count}I", b, 8))
    if mode == 1:  # SET
        count = struct.unpack_from("<I", b, 8)[0]
        return set(struct.unpack_from(f"<{count}I", b, 12))
    raise AssertionError("not a coupon-mode sketch")


def _coupons(n):
    return {
        coupon(*murmur3_128(struct.pack("<Q", i), 9001)) for i in range(n)
    }


@pytest.mark.parametrize("n", [1, 10, 100])
def test_coupon_parity_vs_java_goldens(n):
    path = f"{JAVA}/hll8_n{n}_java.sk"
    if not os.path.exists(path):
        pytest.skip(f"Java golden file missing: {path}")
    assert _coupons(n) == _java_coupons(path)


@pytest.mark.parametrize("n", [1, 10, 100])
def test_coupons_pinned(n):
    """Coupon sets pinned in tests/data from this murmur3/coupon code,
    taken while functions/murmur3.py was unchanged since it matched the
    Java goldens above: a regression check that runs on every host."""
    pinned = json.load(open(os.path.join(
        os.path.dirname(__file__), "data", "hll_murmur_pinned.json")))
    assert _coupons(n) == set(pinned["coupons_seed9001"][str(n)])


def test_empty_input_is_seed_mix():
    h1, h2 = murmur3_128(b"", 0)
    assert (h1, h2) == (0, 0)


def test_vectorized_u64_matches_scalar():
    vals = np.array([0, 1, 2, 12345, 2**63 + 17, 2**64 - 1], dtype=np.uint64)
    h1, h2 = murmur3_128_u64(vals)
    for v, a, b in zip(vals, h1, h2):
        sa, sb = murmur3_128(struct.pack("<Q", int(v)), 9001)
        assert (sa, sb) == (int(a), int(b))


def test_vectorized_strings_match_scalar():
    strs = ["", "a", "hello", "x" * 15, "y" * 16, "z" * 17,
            "The quick brown fox jumps over the lazy dog", "ab" * 50,
            "unicode: déjà vu ✓", "tail" * 7]
    h1, h2 = hash_strings(strs, 9001)
    for s, a, b in zip(strs, h1, h2):
        sa, sb = murmur3_128(s.encode("utf-8"), 9001)
        assert (sa, sb) == (int(a), int(b)), s


def test_vectorized_coupons_match_scalar():
    vals = np.arange(1000, dtype=np.uint64)
    cs = coupons_from_u64s(vals)
    for v, c in zip(vals[:50], cs[:50]):
        assert int(c) == coupon(*murmur3_128(struct.pack("<Q", int(v)), 9001))


def test_fmix64_avalanche():
    ks = np.arange(1, 10000, dtype=np.uint64)
    out = fmix64(ks)
    assert len(np.unique(out)) == len(ks)
    # top bit should be set about half the time
    frac = float(np.mean(out >> np.uint64(63)))
    assert 0.45 < frac < 0.55
