"""Exact Jaccard / containment over sorted-unique uint64 shingle sets."""

from __future__ import annotations

import numpy as np


def intersect_size(a: np.ndarray, b: np.ndarray) -> int:
    """|A ∩ B| for sorted unique uint64 arrays."""
    if len(a) == 0 or len(b) == 0:
        return 0
    return len(np.intersect1d(a, b, assume_unique=True))


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    inter = intersect_size(a, b)
    union = len(a) + len(b) - inter
    return inter / union if union else 1.0


def containment(a: np.ndarray, b: np.ndarray) -> float:
    """|A ∩ B| / min(|A|, |B|) — 1.0 when the smaller set is contained."""
    m = min(len(a), len(b))
    if m == 0:
        return 1.0 if len(a) == len(b) else 0.0
    return intersect_size(a, b) / m


def intersect_sizes_pairs(
    flat_a: np.ndarray,
    len_a: np.ndarray,
    flat_b: np.ndarray,
    len_b: np.ndarray,
) -> np.ndarray:
    """|A_i ∩ B_i| for n pairs of sorted-unique uint64 sets given as
    flattened value arrays + per-pair lengths. Each pair intersects via
    a primitive-dtype sorted merge over ZERO-COPY slices of the Arrow
    data buffer — no Python object materialization anywhere. (A single
    global merge keyed by (pair, value) was measured 200x slower:
    numpy's structured-dtype sort falls back to generic compares.)"""
    n = len(len_a)
    out = np.zeros(n, dtype=np.int64)
    if n == 0 or len(flat_a) == 0 or len(flat_b) == 0:
        return out
    oa = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(len_a, out=oa[1:])
    ob = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(len_b, out=ob[1:])
    for i in range(n):
        a = flat_a[oa[i]: oa[i + 1]]
        b = flat_b[ob[i]: ob[i + 1]]
        if len(a) and len(b):
            out[i] = len(np.intersect1d(a, b, assume_unique=True))
    return out
