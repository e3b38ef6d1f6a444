"""Correctness checks the benchmark computes itself, in plain Python.

Nothing here calls the engine's kernels: shingles are token 3-gram tuples,
Jaccard and containment are set arithmetic, the longest common substring
comes from a suffix automaton, and connected components from a small
union-find. Each check returns a list of failure messages (empty = pass).
"""

from __future__ import annotations

import random
from itertools import combinations

TURN_SEP = "\n"


class Rule:
    """The engine config's edge rule, evaluated on exact token k-gram
    sets: Jaccard >= jaccard_threshold, or containment >=
    containment_threshold and a common substring covering at least
    substring_frac of the shorter text's bytes."""

    def __init__(self, cfg, texts: dict):
        self.k = cfg.shingle_k
        self.jt = cfg.jaccard_threshold
        self.ct = cfg.containment_threshold
        self.sf = cfg.substring_frac
        self.texts = texts          # conv_id -> assembled text
        self._sh: dict = {}

    def shingles(self, cid: str) -> set:
        s = self._sh.get(cid)
        if s is None:
            toks = self.texts[cid].split()
            if not toks:
                s = set()
            elif len(toks) < self.k:
                s = {tuple(toks)}
            else:
                s = set(zip(*(toks[i:] for i in range(self.k))))
            self._sh[cid] = s
        return s

    def holds(self, a: str, b: str) -> bool:
        sa, sb = self.shingles(a), self.shingles(b)
        inter = len(sa & sb)
        union = len(sa) + len(sb) - inter
        if (inter / union if union else 1.0) >= self.jt:
            return True
        m = min(len(sa), len(sb))
        con = inter / m if m else float(len(sa) == len(sb))
        if con < self.ct:
            return False
        ta, tb = self.texts[a].encode(), self.texts[b].encode()
        short = min(len(ta), len(tb))
        return bool(short) and lcs_len(ta, tb) >= self.sf * short


def lcs_len(a: bytes, b: bytes) -> int:
    """Longest common substring length (suffix automaton over ``a``)."""
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return 0
    if a in b:
        return len(a)
    link, length, nxt = [-1], [0], [{}]
    last = 0
    for ch in a:
        cur = len(length)
        length.append(length[last] + 1)
        link.append(-1)
        nxt.append({})
        p = last
        while p != -1 and ch not in nxt[p]:
            nxt[p][ch] = cur
            p = link[p]
        if p == -1:
            link[cur] = 0
        else:
            q = nxt[p][ch]
            if length[p] + 1 == length[q]:
                link[cur] = q
            else:
                clone = len(length)
                length.append(length[p] + 1)
                link.append(link[q])
                nxt.append(dict(nxt[q]))
                while p != -1 and nxt[p].get(ch) == q:
                    nxt[p][ch] = clone
                    p = link[p]
                link[q] = link[cur] = clone
        last = cur
    best = cur_len = state = 0
    for ch in b:
        while state and ch not in nxt[state]:
            state = link[state]
            cur_len = length[state]
        if ch in nxt[state]:
            state = nxt[state][ch]
            cur_len += 1
        best = max(best, cur_len)
    return best


def components(edges) -> dict:
    """conv_id -> min conv_id of its connected component (nodes that
    appear in ``edges`` only)."""
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra
    return {x: find(x) for x in parent}


def check_assembly(assembled: dict, convs: dict, ids, sample: int,
                   seed: int) -> list:
    """Per-turn text equality under the stable turn_idx order, on a
    seeded sample of conversations; plus the row count."""
    out = []
    ids = sorted(ids)
    if len(assembled) != len(ids):
        out.append(f"assembled rows {len(assembled)} != convs {len(ids)}")
    for cid in random.Random(seed).sample(ids, min(sample, len(ids))):
        got = assembled.get(cid)
        if got is None or got.split(TURN_SEP) != convs[cid]:
            out.append(f"assembled text of {cid} differs from its turns")
    return out


def check_clusters(clusters: dict, edges, label: str) -> list:
    """Clusters == connected components of the verified edges, each
    labelled by its minimum conv_id."""
    want = components(edges)
    if clusters == want:
        return []
    bad = sorted(set(want) ^ set(clusters)) or sorted(
        c for c in want if want[c] != clusters[c])
    return [f"{label}: clusters differ from the components of the "
            f"verified edges at {len(bad)} convs (e.g. {bad[:3]})"]


def check_edges(edges, rule: Rule, sample: int, seed: int) -> list:
    """No false edge in a seeded sample of is_dup pairs."""
    edges = sorted(edges)
    pick = random.Random(seed).sample(edges, min(sample, len(edges)))
    return [f"false edge {a} ~ {b}" for a, b in pick
            if not rule.holds(a, b)]


def planted_pairs(groups) -> list:
    by_group: dict = {}
    for cid, gid, _kind in groups:
        by_group.setdefault(gid, []).append(cid)
    return [tuple(sorted(p)) for m in by_group.values()
            for p in combinations(sorted(m), 2)]


def same_cluster(clusters: dict, a: str, b: str) -> bool:
    ca = clusters.get(a)
    return ca is not None and ca == clusters.get(b)


def recall(clusters: dict, pairs, rule: Rule) -> dict:
    """Raw recall over planted pairs, and recall over the eligible ones
    (pairs that meet the config's rule in plain Python)."""
    hit = [same_cluster(clusters, a, b) for a, b in pairs]
    elig = [rule.holds(a, b) for a, b in pairs]
    n_elig = sum(elig)
    return {
        "pairs": len(pairs),
        "raw": sum(hit) / len(pairs),
        "eligible_pairs": n_elig,
        "eligible": (sum(h for h, e in zip(hit, elig) if e) / n_elig
                     if n_elig else 1.0),
        "eligible_missed": [p for p, h, e in zip(pairs, hit, elig)
                            if e and not h],
    }


def check_skew(clusters: dict, inp, family_of: dict) -> list:
    """The hot template and every copy share one cluster; the shared
    boilerplate opening turn alone merges nothing: no cluster holds
    boilerplate-carrying conversations of two different families."""
    out = []
    labels = {clusters.get(c) for c in inp.hot_family}
    if len(labels) != 1 or None in labels:
        out.append(f"hot template family split over {len(labels)} "
                   "clusters")
    fams: dict = {}
    for cid, turns in inp.convs.items():
        if turns[0] == inp.boilerplate and cid in clusters:
            fams.setdefault(clusters[cid], set()).add(family_of[cid])
    mixed = [lab for lab, f in fams.items() if len(f) > 1]
    if mixed:
        out.append(f"{len(mixed)} clusters merge unrelated "
                   f"boilerplate conversations (e.g. {mixed[:3]})")
    return out
