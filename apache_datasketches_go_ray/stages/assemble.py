"""Conversation assembly: a conv_id-keyed fold with a stable turn_idx sort.

Rows arrive shuffled across convs/turns; ``stages/keyed.keyed_fold``
co-locates every conv's rows in exactly one block, sorted by
(conv_id, turn_idx), and each conversation is assembled from the fold's
key runs with vectorized Arrow kernels instead of per-group
``map_groups`` calls (which pay a Python call per conv).

Per-row invariant (BASELINE.json input_hint): per-turn text equality under
stable turn ordering — turns are ordered by turn_idx with a stable sort,
and the assembled text is the '\\n'-joined turn sequence. Ties on
(conv_id, turn_idx) keep input order (stable sort), and the original
turn texts are recoverable by splitting, which tests assert.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .arrow_util import as_array
from .keyed import keyed_fold, rank_in_segment, sort_segments

TURN_SEP = "\n"


def _join_runs(batch: pa.Table, starts: np.ndarray):
    """Each key run's ``text`` rows joined with TURN_SEP, in row order —
    native list-wrap + binary_join, no Python-string materialization."""
    texts = as_array(batch.column("text"))
    turns = pa.ListArray.from_arrays(
        pa.array(np.append(starts, len(batch)), type=pa.int32()),
        texts.cast(pa.string()) if texts.type != pa.string() else texts)
    return pc.binary_join(turns, TURN_SEP)


def _run_keys(batch: pa.Table, starts: np.ndarray):
    return as_array(batch.column("conv_id")).take(
        pa.array(starts)).cast(pa.string())


def assemble_block(batch: pa.Table, starts: np.ndarray) -> pa.Table:
    """Assemble every conversation of a block sorted by (conv_id,
    turn_idx); ``starts`` are the conversations' first rows."""
    counts = np.diff(np.append(starts, len(batch)))
    return pa.table({
        "conv_id": _run_keys(batch, starts),
        "text": _join_runs(batch, starts),
        "n_turns": pa.array(counts.astype(np.int32)),
    })


def _fragment_block(batch: pa.Table) -> pa.Table:
    """conv_grouped combiner: per-block partial assembly into one
    fragment row per (conv, block) — ``(conv_id, text, n_turns,
    first_turn, boundary)``. Correct whenever each block holds a
    CONTIGUOUS turn range per conversation (any row-range split of a
    file sorted by (conv_id, turn_idx) satisfies this).

    In that sorted layout only the conversations at a block's first and
    last row can possibly continue in a neighboring block, so only
    those are marked ``boundary`` — every other row is already the
    final assembled conversation and skips the shuffle entirely."""
    srt, starts = sort_segments(batch, ["conv_id"], ["turn_idx"])
    part = assemble_block(srt, starts)
    ends = as_array(batch.column("conv_id")).take(
        pa.array([0, len(batch) - 1])).cast(pa.string())
    first = as_array(srt.column("turn_idx")).to_numpy(
        zero_copy_only=False)[starts]
    return part.append_column(
        "first_turn", pa.array(first.astype(np.int64))).append_column(
        "boundary", pc.is_in(part.column("conv_id"), value_set=ends))


def _merge_fragments(batch: pa.Table, starts: np.ndarray) -> pa.Table:
    """Fold co-located fragments of each conv, sorted by first_turn."""
    nt = as_array(batch.column("n_turns")).to_numpy(
        zero_copy_only=False).astype(np.int64)
    return pa.table({
        "conv_id": _run_keys(batch, starts),
        "text": _join_runs(batch, starts),
        "n_turns": pa.array(np.add.reduceat(nt, starts).astype(np.int32)),
    })


def assemble(ds, num_partitions: int, input_layout: str = "shuffled"):
    """transcript rows -> one row per conversation (conv_id, text, n_turns).

    ``input_layout``:

    * ``"shuffled"`` (default, always correct): one conv_id-keyed fold
      over the raw turn rows, sorted by turn_idx — the full all-to-all.
    * ``"conv_grouped"``: the data-at-rest fast path for transcripts
      written conversation-contiguously (files sorted by
      (conv_id, turn_idx), however the reader splits them). Each block
      assembles its contiguous turn runs locally; in that layout only
      the conversations touching a block's first or last row can span
      blocks, so ONLY those (<= 2 per block) shuffle as fragments —
      the corpus-wide turn shuffle disappears. INCORRECT for
      interleaved inputs (fragments would concatenate out of order);
      callers assert the layout, tests pin equivalence including
      mid-conversation file splits.
    """
    from .context import auto_partitions

    if input_layout not in ("shuffled", "conv_grouped"):
        # "auto" must be resolved by the caller
        # (pipelines.dedup.resolve_input_layout) — a silent fall-through
        # here would quietly skip the fast path forever
        raise ValueError(f"assemble: unknown input_layout {input_layout!r}")
    # ~25k turns/partition: downstream signer tasks are per-block, so this
    # also sets the signing parallelism grain (~2k convs / ~3s per task)
    P = auto_partitions(ds.count(), 25_000, num_partitions)
    if input_layout == "conv_grouped":
        frags = ds.select_columns(["conv_id", "turn_idx", "text"]) \
            .map_batches(_fragment_block, batch_format="pyarrow",
                         batch_size=None, zero_copy_batch=True) \
            .materialize()  # two consumers below
        done = frags.filter(expr="boundary == False") \
            .select_columns(["conv_id", "text", "n_turns"])
        bnd = keyed_fold(
            frags.filter(expr="boundary == True").select_columns(
                ["conv_id", "text", "n_turns", "first_turn"]),
            ["conv_id"], _merge_fragments, max(2, min(P, 8)),
            order_by=["first_turn"])
        return done.union(bnd)
    return keyed_fold(ds.select_columns(["conv_id", "turn_idx", "text"]),
                      ["conv_id"], assemble_block, P, order_by=["turn_idx"])


def split_conversations(ds, gap_us: int = 1_800_000_000, *,
                        key_col: str = "conv_id",
                        order_col: str = "turn_idx",
                        ts_col: str = "ts",
                        num_partitions: int = 16):
    """Split each conversation into sub-conversations at turn gaps
    longer than ``gap_us`` (``order_col`` order) — long agent sessions
    broken at real pauses before packing/training. Output one row per
    (key, sub_id): turn count, first/last timestamp. Generic over
    column names so the same operator sessionizes any keyed event
    stream (pass the epoch-us of the timestamp as ``order_col`` to
    order by time). One keyed fold sorted by ``order_col``, segment
    boundaries from one vectorized diff — same discipline as
    assemble_block."""
    from .context import auto_partitions

    def fold(b: pa.Table, starts: np.ndarray) -> pa.Table:
        n = len(b)
        ts = b.column(ts_col).cast(pa.timestamp("us")).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        new_seg = np.zeros(n, dtype=bool)
        new_seg[starts] = True
        first_of_key = new_seg.copy()
        new_seg[1:] |= ts[1:] - ts[:-1] > gap_us
        seg_starts = np.flatnonzero(new_seg)
        # 0-based sub index within each key: segment rank in its key run
        sub_id = rank_in_segment(np.flatnonzero(first_of_key[seg_starts]),
                                 len(seg_starts))
        return pa.table({
            key_col: as_array(b.column(key_col)).cast(pa.string()).take(
                pa.array(seg_starts)),
            "sub_id": pa.array(sub_id),
            "n_turns": pa.array(np.diff(np.append(seg_starts, n))),
            "start_ts": pa.array(np.minimum.reduceat(ts, seg_starts))
            .cast(pa.timestamp("us")),
            "end_ts": pa.array(np.maximum.reduceat(ts, seg_starts))
            .cast(pa.timestamp("us")),
        })

    P = auto_partitions(ds.count(), 1_000_000, num_partitions)
    return keyed_fold(ds.select_columns([key_col, order_col, ts_col]),
                      [key_col], fold, P, order_by=[order_col])
