"""Seeded transcript inputs for the dedup benchmark.

Everything here is a pure function of (workload, seed): every random draw
comes from ``numpy.random.default_rng`` (PCG64), so the same seed writes
the same Parquet bytes. The generator is the benchmark's own code; it
imports nothing from the engine, so a change to the engine's fixture
generator cannot silently change the benchmark's inputs.

Output layout under ``out_dir``:

  corpus/part-*.parquet      turn rows of the full run (input_hint schema:
                             conv_id, turn_idx, role, text, tool, ts),
                             rows shuffled across conversations and turns
  increment/part-*.parquet   held-out batch for the incremental run
  dup_groups.parquet         planted ground truth (conv_id, group_id, kind)

Conversation ids are ``conv-%08d`` over a seeded permutation, so a group's
base is not always its smallest id and min-id labelling is exercised.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB_SIZE = 5000
ZIPF_A = 1.3
EPOCH_US = 1_700_000_000_000_000
NEAR_P = {"near1": 0.01, "near5": 0.05, "near10": 0.10}
KINDS = ("exact", "near1", "near5", "near10", "containment", "reorder")
BOILERPLATE_TOKENS = 40
# the input columns the dedup reads
READ_COLUMNS = ["conv_id", "turn_idx", "text"]
HOT_TEMPLATE_TURNS = 4
HOT_TEMPLATE_TOKENS = 150


@dataclass(frozen=True)
class Shape:
    n_convs: int               # base conversations before planted copies
    turns: tuple[int, int]     # turns per conversation, inclusive
    tokens: tuple[int, int]    # tokens per turn, inclusive
    dup_frac: float            # share of base convs that seed a dup group
    holdout_turns: int         # turns held out as the increment
    boilerplate_frac: float = 0.0
    hot_copies: int = 0        # copies of one hot template (1-2 token edits)
    shards: int = 4


SHAPES = {
    # every workload holds ~10% of its turns out for the incremental
    # run; a fixed count, because the increment's wall time hardly
    # depends on its size and increment turns/s would follow the count
    # FIXTURES F2: 2-24 turns of 5-200 Zipf tokens, ~20% in dup groups
    "planted": Shape(n_convs=1000, turns=(2, 24), tokens=(5, 200),
                     dup_frac=0.2, holdout_turns=1800),
    # row/pair-heavy (FIXTURES F4): many short conversations, a shared
    # boilerplate opening turn on ~30%, one hot template copied many
    # times, dense planted groups
    # times, dense planted groups. The engine samples 1/64 of conv ids to
    # find hot band buckets and needs 4 sampled members: ~1000 copies
    # make the template's buckets hot on every seed (P[miss] ~ 1e-4)
    "skewed": Shape(n_convs=1100, turns=(3, 8), tokens=(20, 80),
                    dup_frac=0.4, holdout_turns=1500, boilerplate_frac=0.3,
                    hot_copies=1000),
}


class Vocab:
    """Token strings and the truncated Zipf(1.3) inverse CDF."""

    def __init__(self):
        self.words = np.array([f"w{i:04d}" for i in range(VOCAB_SIZE)],
                              dtype=object)
        w = np.arange(1, VOCAB_SIZE + 1, dtype=np.float64) ** -ZIPF_A
        self.cdf = np.cumsum(w / w.sum())

    def zipf(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.searchsorted(self.cdf, rng.random(n), side="left")

    def text(self, ids: np.ndarray) -> str:
        return " ".join(self.words[ids])


@dataclass
class Inputs:
    """Generated conversations plus the ground truth the checks use."""
    workload: str
    convs: dict            # conv_id -> list of turn texts (turn_idx order)
    groups: list           # (conv_id, group_id, kind)
    increment: set         # conv_ids held out for the incremental run
    boilerplate: str       # the shared opening turn ('' if none)
    hot_family: list       # hot template conv_id first, then its copies


def _edit(rng, vocab: Vocab, turns: list, p: float) -> list:
    """Substitute each token with probability ``p`` (near-dup copy)."""
    out = []
    for t in turns:
        words = t.split(" ")
        n_sub = rng.binomial(len(words), p)
        if n_sub:
            pos = rng.choice(len(words), size=n_sub, replace=False)
            for pp, rr in zip(pos, rng.integers(0, VOCAB_SIZE, size=n_sub)):
                words[int(pp)] = vocab.words[int(rr)]
        out.append(" ".join(words))
    return out


def make_inputs(workload: str, seed: int) -> Inputs:
    shape = SHAPES[workload]
    rng = np.random.default_rng([seed, sorted(SHAPES).index(workload)])
    vocab = Vocab()
    n = shape.n_convs
    n_turns = rng.integers(shape.turns[0], shape.turns[1] + 1, size=n)
    lens = rng.integers(shape.tokens[0], shape.tokens[1] + 1,
                        size=int(n_turns.sum()))
    toks = vocab.zipf(rng, int(lens.sum()))
    bounds = np.concatenate([[0], np.cumsum(lens)])
    turn_texts = [vocab.text(toks[bounds[i]:bounds[i + 1]])
                  for i in range(len(lens))]
    base = []
    k = 0
    for c in range(n):
        base.append(turn_texts[k:k + int(n_turns[c])])
        k += int(n_turns[c])

    boilerplate = ""
    if shape.boilerplate_frac:
        boilerplate = vocab.text(np.arange(BOILERPLATE_TOKENS))
        for c in np.flatnonzero(rng.random(n) < shape.boilerplate_frac):
            base[c][0] = boilerplate

    # planted copies, appended after the base conversations
    convs = list(base)
    members = []   # (conv index, group index, kind)
    n_groups = max(1, int(n * shape.dup_frac))
    for g, b in enumerate(rng.choice(n, size=n_groups, replace=False)):
        b = int(b)
        members.append((b, g, "base"))
        for _ in range(int(rng.integers(1, 5))):      # group size 2-5
            kind = KINDS[int(rng.integers(len(KINDS)))]
            turns = list(base[b])
            if kind in NEAR_P:
                turns = _edit(rng, vocab, turns, NEAR_P[kind])
            elif kind == "containment":
                keep = max(1, int(len(turns) * rng.uniform(0.5, 0.8)))
                head = rng.random() < 0.5
                if turns[:keep] == [boilerplate] * keep:
                    # a copy of the boilerplate alone is contained in
                    # every conversation that opens with it
                    head = False
                turns = turns[:keep] if head else turns[-keep:]
            # exact / reorder: same turns; the row shuffle reorders them
            members.append((len(convs), g, kind))
            convs.append(turns)

    hot = []
    if shape.hot_copies:
        # the template is the ungrouped base conversation nearest
        # HOT_TEMPLATE_TURNS turns and HOT_TEMPLATE_TOKENS tokens: long
        # enough that 1-2 token edits keep every copy well inside the
        # rule, and the same size on every seed, since its copies are a
        # large share of the workload
        grouped = {m[0] for m in members}
        t = min((c for c in range(n) if c not in grouped),
                key=lambda c: (abs(len(base[c]) - HOT_TEMPLATE_TURNS),
                               abs(sum(x.count(" ") + 1 for x in base[c])
                                   - HOT_TEMPLATE_TOKENS)))
        hot.append(t)
        for _ in range(shape.hot_copies):
            turns = list(base[t])
            for _e in range(int(rng.integers(1, 3))):
                ti = int(rng.integers(len(turns)))
                words = turns[ti].split(" ")
                words[int(rng.integers(len(words)))] = \
                    vocab.words[int(rng.integers(VOCAB_SIZE))]
                turns[ti] = " ".join(words)
            hot.append(len(convs))
            convs.append(turns)

    ids = [f"conv-{i:08d}" for i in rng.permutation(len(convs))]
    held, n_held = set(), 0
    for i in rng.permutation(len(convs)):
        if n_held >= shape.holdout_turns:
            break
        held.add(ids[int(i)])
        n_held += len(convs[int(i)])
    return Inputs(
        workload=workload,
        convs={ids[i]: t for i, t in enumerate(convs)},
        groups=[(ids[c], f"g{g:06d}", kind) for c, g, kind in members],
        increment=held,
        boilerplate=boilerplate,
        hot_family=[ids[c] for c in hot],
    )


def turn_table(convs: dict, ids: list, rng) -> pa.Table:
    conv_col, turn_col, text_col = [], [], []
    for cid in ids:
        for i, t in enumerate(convs[cid]):
            conv_col.append(cid)
            turn_col.append(i)
            text_col.append(t)
    n = len(conv_col)
    turn_idx = np.asarray(turn_col, dtype=np.int32)
    roles = np.where(turn_idx % 2 == 0, "user", "assistant")
    conv_no = np.asarray([int(c[5:]) for c in conv_col], dtype=np.int64)
    ts = EPOCH_US + conv_no * 3_600_000_000 + turn_idx * 30_000_000
    perm = pa.array(rng.permutation(n))
    return pa.table({
        "conv_id": pa.array(conv_col, type=pa.string()),
        "turn_idx": pa.array(turn_idx),
        "role": pa.array(roles.tolist(), type=pa.string()),
        "text": pa.array(text_col, type=pa.large_string()),
        "tool": pa.array([""] * n, type=pa.string()),
        "ts": pa.array(ts, type=pa.timestamp("us")),
    }).take(perm)


def write_inputs(inp: Inputs, out_dir: str, seed: int) -> str:
    """Write the Parquet inputs; return a sha256 of their content."""
    shape = SHAPES[inp.workload]
    rng = np.random.default_rng([seed, 99])
    digest = hashlib.sha256()
    ids = sorted(inp.convs)
    parts = {"corpus": [c for c in ids if c not in inp.increment],
             "increment": sorted(inp.increment)}
    for name, part_ids in parts.items():
        tbl = turn_table(inp.convs, part_ids, rng)
        d = os.path.join(out_dir, name)
        os.makedirs(d, exist_ok=True)
        edges = np.linspace(0, tbl.num_rows, shape.shards + 1).astype(int)
        for s in range(shape.shards):
            pq.write_table(tbl.slice(edges[s], edges[s + 1] - edges[s]),
                           os.path.join(d, f"part-{s:05d}.parquet"))
        for col in ("conv_id", "turn_idx", "text"):
            digest.update(repr(tbl.column(col).to_pylist()).encode())
    pq.write_table(pa.table({
        "conv_id": [g[0] for g in inp.groups],
        "group_id": [g[1] for g in inp.groups],
        "kind": [g[2] for g in inp.groups],
    }), os.path.join(out_dir, "dup_groups.parquet"))
    digest.update(repr(inp.groups).encode())
    return digest.hexdigest()[:16]


def dir_bytes(path: str) -> int:
    """Bytes on disk of the regular files under ``path``."""
    total = 0
    for d, _dirs, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(d, f))
    return total


def corpus_turns(inp: Inputs) -> int:
    return sum(len(t) for c, t in inp.convs.items()
               if c not in inp.increment)


def increment_turns(inp: Inputs) -> int:
    return sum(len(inp.convs[c]) for c in inp.increment)
