"""Single-process oracle: the trusted implementation of the identical
dedup config, used as the cluster-parity target (dup-pair recall >= 0.99
is measured pipeline-vs-oracle; with identical hashes and deterministic
pair rules the two should match exactly).

Mirrors every pipeline rule:
  assembly = stable (conv_id, turn_idx) sort, '\\n' join;
  shingle/signature/band hashing = same kernels;
  candidate pairs = per-band buckets, full pairs when bucket <= cap else
  sorted consecutive chain;
  verification = exact Jaccard, then suffix-array containment;
  clusters = union-find labeled by min conv_id.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pyarrow as pa

from ..config import DedupConfig
from ..functions.shingle import tokenize_column, shingle_hashes
from ..functions.minhash import perm_keys, signatures, band_keys
from ..functions.jaccard import intersect_size
from ..functions.suffixarray import longest_common_substring
from ..state.unionfind import UnionFind
from ..stages.assemble import TURN_SEP


def assemble_oracle(table: pa.Table) -> tuple[list[str], list[str]]:
    """(conv_ids, assembled_texts), stable-sorted by (conv_id, turn_idx)."""
    conv = np.asarray(table.column("conv_id").to_pylist(), dtype=object)
    turn = table.column("turn_idx").to_numpy(zero_copy_only=False)
    text = np.asarray(table.column("text").to_pylist(), dtype=object)
    order = np.lexsort((turn, conv))
    conv_s, text_s = conv[order], text[order]
    ids, texts = [], []
    i = 0
    n = len(conv_s)
    while i < n:
        j = i
        while j < n and conv_s[j] == conv_s[i]:
            j += 1
        ids.append(conv_s[i])
        texts.append(TURN_SEP.join(text_s[i:j]))
        i = j
    return ids, texts


def oracle_dedup(table: pa.Table, cfg: DedupConfig) -> dict:
    """Full oracle run. Returns dict with conv_ids, signatures, pairs,
    edges, clusters (conv_id -> cluster label for clustered convs)."""
    ids, texts = assemble_oracle(table)
    tok, tok_off = tokenize_column(pa.array(texts, type=pa.string()))
    flat, off = shingle_hashes(tok, tok_off, cfg.shingle_k)
    keys = perm_keys(cfg.num_perms, cfg.perm_seed)
    sigs = signatures(flat, off, keys)
    bands = band_keys(sigs, cfg.num_bands, cfg.rows_per_band)

    # band buckets (global, independent of any partitioning)
    buckets: dict[int, list[int]] = defaultdict(list)
    n = len(ids)
    for i in range(n):
        for bh in bands[i]:
            buckets[int(bh)].append(i)

    # digest prefilter — identical rule to stages/lsh.pairs_in_block
    # (low byte of each sampled slot)
    dig = np.ascontiguousarray(sigs[:, :: cfg.prefilter_stride].astype(np.uint8))
    idx_by_id = {c: i for i, c in enumerate(ids)}

    # hot-band detection + salted sharding — identical rules to
    # stages/lsh.detect_hot_bands / pairs_in_block
    from ..functions.murmur3 import hash_strings

    h_ids, _ = hash_strings(list(ids))
    sampled = h_ids % np.uint64(cfg.hot_sample_rate) == 0
    hot = {
        bh for bh, mem in buckets.items()
        if sum(1 for i in mem if sampled[i]) >= cfg.hot_sampled_count
    }

    def digest_ok(a: str, b: str) -> bool:
        return int((dig[idx_by_id[a]] == dig[idx_by_id[b]]).sum()) \
            >= cfg.prefilter_min_matches

    def cap_rule_pairs(members: list[str]) -> None:
        g = len(members)
        if g < 2:
            return
        if g <= cfg.max_band_group:
            cand = [(x, y) for x in range(g) for y in range(x + 1, g)]
        else:
            cand = [(x, x + 1) for x in range(g - 1)]
        for x, y in cand:
            if digest_ok(members[x], members[y]):
                pair_set.add((members[x], members[y]))

    pair_set: set[tuple[str, str]] = set()
    for bh, members_idx in buckets.items():
        members = sorted({ids[i] for i in members_idx})
        if bh in hot:
            shards: dict[int, list[str]] = {}
            for m in members:
                s = int(h_ids[idx_by_id[m]] % np.uint64(cfg.hot_key_salt))
                shards.setdefault(s, []).append(m)
            reps = []
            for sh in shards.values():
                reps.append(sh[0])  # members already sorted
                cap_rule_pairs(sh)
            cap_rule_pairs(sorted(set(reps)))
        else:
            cap_rule_pairs(members)

    if cfg.turn_block:
        # exact turn-collision blocking — identical rule to
        # stages/turnblock.py (min-chars gate, hot cap, full pair set
        # per bucket, no digest prefilter: these pairs carry exact
        # evidence already)
        tconv = table.column("conv_id").to_pylist()
        ttext = table.column("text").to_pylist()
        th, _ = hash_strings(ttext)
        tbuckets: dict[int, set] = defaultdict(set)
        for c, t, h in zip(tconv, ttext, th):
            if len(t) >= cfg.turn_block_min_chars:
                tbuckets[int(h)].add(c)
        for mem in tbuckets.values():
            if 2 <= len(mem) <= cfg.turn_block_max_convs:
                ms = sorted(mem)
                for x in range(len(ms)):
                    for y in range(x + 1, len(ms)):
                        pair_set.add((ms[x], ms[y]))

    idx_of = {c: i for i, c in enumerate(ids)}
    edges = []
    verify_rows = []
    for a, b in sorted(pair_set):
        ia, ib = idx_of[a], idx_of[b]
        A = flat[off[ia] : off[ia + 1]]
        B = flat[off[ib] : off[ib + 1]]
        inter = intersect_size(A, B)
        union = len(A) + len(B) - inter
        m = min(len(A), len(B))
        jac = inter / union if union else 1.0
        con = inter / m if m else (1.0 if len(A) == len(B) else 0.0)
        ok = False
        method = "rejected"
        if jac >= cfg.jaccard_threshold:
            ok, method = True, "jaccard"
        elif con >= cfg.containment_threshold:
            lcs = longest_common_substring(texts[ia], texts[ib])
            shorter = min(len(texts[ia].encode()), len(texts[ib].encode()))
            if shorter and lcs >= cfg.substring_frac * shorter:
                ok, method = True, "containment"
        verify_rows.append((a, b, jac, con, method, ok))
        if ok:
            edges.append((a, b))

    uf = UnionFind()
    for a, b in edges:
        uf.union(a, b)
    clusters = uf.components()
    return {
        "conv_ids": ids,
        "texts": texts,
        "signatures": sigs,
        "pairs": sorted(pair_set),
        "verify": verify_rows,
        "edges": edges,
        "clusters": clusters,
    }


def verify_pairs_exact(table: pa.Table, pairs: list[tuple[str, str]],
                       cfg: DedupConfig) -> dict[tuple[str, str], bool]:
    """Exact spec-eligibility for given conv_id pairs: does the pair
    meet the configured verify rule (shingle Jaccard >= threshold, or
    containment + shared-substring) on its exact shingle sets?

    Independent of LSH/banding — used to classify recall misses into
    below-threshold planted pairs (out of the algorithm's spec at this
    config) vs true algorithmic misses. ``table`` should be pre-filtered
    to the conversations involved.
    """
    ids, texts = assemble_oracle(table)
    idx = {c: i for i, c in enumerate(ids)}
    tok, tok_off = tokenize_column(pa.array(texts, type=pa.string()))
    flat, off = shingle_hashes(tok, tok_off, cfg.shingle_k)
    out: dict[tuple[str, str], bool] = {}
    for a, b in pairs:
        ia, ib = idx.get(a), idx.get(b)
        if ia is None or ib is None:
            out[(a, b)] = False
            continue
        A = flat[off[ia]: off[ia + 1]]
        B = flat[off[ib]: off[ib + 1]]
        inter = intersect_size(A, B)
        union = len(A) + len(B) - inter
        m = min(len(A), len(B))
        jac = inter / union if union else 1.0
        con = inter / m if m else (1.0 if len(A) == len(B) else 0.0)
        ok = jac >= cfg.jaccard_threshold
        if not ok and con >= cfg.containment_threshold:
            lcs = longest_common_substring(texts[ia], texts[ib])
            shorter = min(len(texts[ia].encode()),
                          len(texts[ib].encode()))
            ok = bool(shorter) and lcs >= cfg.substring_frac * shorter
        out[(a, b)] = ok
    return out
