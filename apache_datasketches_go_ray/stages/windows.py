"""Windowed / ordered per-key operators over Arrow batches.

The reference library has no notion of ordering or time (SURVEY.md §2.6)
— these are the net-new windowed aggregates a training-data pipeline
needs, expressed with the engine's one co-locating primitive,
``keyed.keyed_fold``: a hash shuffle on the key puts every row of a key
in exactly one block, the block arrives sorted by (key, order columns)
with its segment starts, and the window itself is a vectorized numpy
kernel over that block, never a Python loop per row.

Scale notes: state per block is O(block rows); no global sort is ever
taken — ordering only needs to hold *within* a key, so a hash shuffle
on the key (1 all-to-all) replaces a full range sort. Skewed keys
(one user with millions of events) are bounded by the same group-size
discipline as the LSH band stage; at transcript scale user keys are
~uniform.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .arrow_util import as_array
from .context import auto_partitions
from .keyed import (keyed_fold, np_col, rank_in_segment, run_heads,
                    segment_ends, segment_ids, sort_key)


def _cents(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    return pc.round(pc.multiply(col, 100)).cast(pa.int64())


def _project_fold(ds, cols, project, fold, num_partitions, order_by,
                  keys=("k",)):
    """select ``cols`` -> ``project`` -> keyed fold on ``keys``, with the
    partition count sized to the input."""
    P = auto_partitions(ds.count(), 200_000, num_partitions)
    return keyed_fold(
        ds.select_columns(cols).map_batches(
            project, batch_format="pyarrow", zero_copy_batch=True),
        keys, fold, P, order_by)


def sessionize(ds, key_col: str = "user_id", ts_col: str = "ts",
               id_col: str = "event_id", value_col: str = "value",
               gap_minutes: int = 30, num_partitions: int = 64):
    """Gap-based sessionization: a new session starts when the time since
    the key's previous event (ordered by ts, then id for determinism)
    exceeds ``gap_minutes``. Returns one row per (key, session_no) with
    n_events, start_ts, end_ts, sum_cents — all exact.

    Shape: project -> hash shuffle on key -> per-block vectorized
    window + per-session aggregate (no second shuffle: a session is a
    sub-run of one key, and a key lives in one block)."""
    gap_us = np.int64(gap_minutes) * 60_000_000

    def project(b: pa.Table) -> pa.Table:
        return pa.table({
            "k": b.column(key_col).cast(pa.int64()),
            "ts": b.column(ts_col),
            "id": b.column(id_col).cast(pa.int64()),
            "cents": _cents(b.column(value_col)),
        })

    def fold(b: pa.Table, starts) -> pa.Table:
        ts_type = b.schema.field("ts").type
        sts = as_array(b.column("ts")).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        first = np.zeros(len(sts), dtype=bool)
        first[starts] = True
        new_s = first.copy()
        new_s[1:] |= (sts[1:] - sts[:-1]) > gap_us
        # session_no restarts at 1 per key: global cumsum minus the
        # cumsum value at each key's first row
        sess = np.cumsum(new_s)
        key_base = np.maximum.accumulate(np.where(first, sess - 1, 0))
        sess_in_key = sess - key_base
        # aggregate per session run (sessions are contiguous in order)
        s_starts = np.flatnonzero(new_s)
        ends = segment_ends(s_starts, len(sts))
        csum = np.concatenate([[0], np.cumsum(np_col(b, "cents"))])
        return pa.table({
            "user_id": pa.array(np_col(b, "k")[s_starts], type=pa.int64()),
            "session_no": pa.array(sess_in_key[s_starts], type=pa.int64()),
            "n_events": pa.array(ends - s_starts, type=pa.int64()),
            "start_ts": pa.array(sts[s_starts], type=pa.int64())
                .cast(ts_type),
            "end_ts": pa.array(sts[ends - 1], type=pa.int64()).cast(ts_type),
            "sum_cents": pa.array(csum[ends] - csum[s_starts],
                                  type=pa.int64()),
        })

    return _project_fold(ds, [key_col, ts_col, id_col, value_col], project,
                         fold, num_partitions, ("ts", "id"))


def running_sum(ds, key_col: str = "user_id", ts_col: str = "ts",
                id_col: str = "event_id", value_col: str = "value",
                num_partitions: int = 64):
    """Per-key running total (exact cents) and row number, ordered by
    (ts, id) within the key — the lag/lead-style ordered window. Returns
    (event_id, user_id, row_no, run_cents)."""

    def project(b: pa.Table) -> pa.Table:
        return pa.table({
            "k": b.column(key_col).cast(pa.int64()),
            "ts": b.column(ts_col).cast(pa.int64()),
            "id": b.column(id_col).cast(pa.int64()),
            "cents": _cents(b.column(value_col)),
        })

    def fold(b: pa.Table, starts) -> pa.Table:
        run = np.cumsum(np_col(b, "cents"))
        rowno = np.arange(1, len(b) + 1, dtype=np.int64)
        # subtract each key's prefix so run/rowno restart per key
        seg = segment_ids(starts, len(b))
        base_run = np.concatenate([[0], run])[starts][seg]
        return pa.table({
            "event_id": b.column("id"),
            "user_id": b.column("k"),
            "row_no": pa.array(rowno - starts[seg], type=pa.int64()),
            "run_cents": pa.array(run - base_run, type=pa.int64()),
        })

    return _project_fold(ds, [key_col, ts_col, id_col, value_col], project,
                         fold, num_partitions, ("ts", "id"))


def lag_delta(ds, key_col: str = "user_id", ts_col: str = "ts",
              id_col: str = "event_id", value_col: str = "value",
              num_partitions: int = 64):
    """Per-key lag(): each event's previous value (exact cents) and the
    delta to it, ordered by (ts, id) within the key. First row of a key
    lags to 0 — ``lag(x, 1, 0) OVER (PARTITION BY k ORDER BY ts, id)``
    (the explicit default keeps the output null-free and exactly
    SQL-comparable). Same one-shuffle shape as running_sum; the lag
    itself is a shifted view of the sorted block, zeroed at segment
    starts."""

    def project(b: pa.Table) -> pa.Table:
        return pa.table({
            "k": b.column(key_col).cast(pa.int64()),
            "ts": b.column(ts_col).cast(pa.int64()),
            "id": b.column(id_col).cast(pa.int64()),
            "cents": _cents(b.column(value_col)),
        })

    def fold(b: pa.Table, starts) -> pa.Table:
        sc = np_col(b, "cents")
        prev = np.empty_like(sc)
        prev[1:] = sc[:-1]
        prev[starts] = 0
        return pa.table({
            "event_id": b.column("id"),
            "user_id": b.column("k"),
            "prev_cents": pa.array(prev, type=pa.int64()),
            "delta_cents": pa.array(sc - prev, type=pa.int64()),
        })

    return _project_fold(ds, [key_col, ts_col, id_col, value_col], project,
                         fold, num_partitions, ("ts", "id"))


def time_window_sum(ds, key_col: str = "user_id", ts_col: str = "ts",
                    id_col: str = "event_id", value_col: str = "value",
                    preceding_seconds: int = 3600,
                    num_partitions: int = 64):
    """Time-range sliding window (``RANGE BETWEEN INTERVAL t PRECEDING
    AND CURRENT ROW``): per-key trailing sum/count of everything within
    ``preceding_seconds`` of the current timestamp. SQL RANGE frames are
    peer-inclusive — rows sharing the current ts are in the frame even
    if they sort later — so the frame is [searchsorted(ts-t, left),
    searchsorted(ts, right)) per key segment. One hash shuffle; the
    edges come from two searchsorted calls per key segment (bounded by
    distinct keys per block, not rows)."""
    gap_us = np.int64(preceding_seconds) * 1_000_000

    def project(b: pa.Table) -> pa.Table:
        return pa.table({
            "k": b.column(key_col).cast(pa.int64()),
            "ts": b.column(ts_col).cast(pa.int64()),
            "id": b.column(id_col).cast(pa.int64()),
            "cents": _cents(b.column(value_col)),
        })

    def fold(b: pa.Table, starts) -> pa.Table:
        sts = np_col(b, "ts")
        n = len(sts)
        lo = np.empty(n, dtype=np.int64)
        hi = np.empty(n, dtype=np.int64)
        for s, e in zip(starts, segment_ends(starts, n)):
            seg = sts[s:e]
            lo[s:e] = s + np.searchsorted(seg, seg - gap_us, side="left")
            hi[s:e] = s + np.searchsorted(seg, seg, side="right")
        prefix = np.concatenate([[0], np.cumsum(np_col(b, "cents"))])
        return pa.table({
            "event_id": b.column("id"),
            "user_id": b.column("k"),
            "win_n": pa.array(hi - lo, type=pa.int64()),
            "win_cents": pa.array(prefix[hi] - prefix[lo],
                                  type=pa.int64()),
        })

    return _project_fold(ds, [key_col, ts_col, id_col, value_col], project,
                         fold, num_partitions, ("ts", "id"))


def dense_rank_in_group(ds, key_col: str, order_col: str, id_col: str,
                        descending: bool = True,
                        num_partitions: int = 16):
    """Per-group dense_rank() over an exact-comparable order column
    (ties share a rank, no gaps). One hash shuffle on the group key,
    then a vectorized rank kernel per block: cumsum of value-change
    flags, rebased at each key segment. Returns (id, key, order, rnk)
    under the original column names."""

    def project(b: pa.Table) -> pa.Table:
        return pa.table({
            "k": b.column(key_col).cast(pa.int64()),
            "v": b.column(order_col),
            "id": b.column(id_col).cast(pa.int64()),
        })

    def fold(b: pa.Table, starts) -> pa.Table:
        sv = np_col(b, "v")
        dr = np.cumsum(run_heads(starts, sv))
        base = dr[starts][segment_ids(starts, len(sv))] - 1
        return pa.table({
            id_col: b.column("id"),
            key_col: b.column("k"),
            order_col: b.column("v"),
            "rnk": pa.array(dr - base, type=pa.int64()),
        })

    return _project_fold(ds, [key_col, order_col, id_col], project, fold,
                         num_partitions,
                         ("-v" if descending else "v", "id"))


def sliding_window_sum(ds, key_col: str = "user_id", ts_col: str = "ts",
                       id_col: str = "event_id", value_col: str = "value",
                       preceding: int = 2, num_partitions: int = 64):
    """Row-based sliding window (``ROWS BETWEEN preceding PRECEDING AND
    CURRENT ROW``): per-key ordered by (ts, id), exact cents sum and
    row count of the trailing window. Same one-shuffle shape as
    running_sum; the window is a prefix-sum difference with the lower
    edge clamped to the key's first row — no per-row loop."""

    def project(b: pa.Table) -> pa.Table:
        return pa.table({
            "k": b.column(key_col).cast(pa.int64()),
            "ts": b.column(ts_col).cast(pa.int64()),
            "id": b.column(id_col).cast(pa.int64()),
            "cents": _cents(b.column(value_col)),
        })

    def fold(b: pa.Table, starts) -> pa.Table:
        n = len(b)
        idx = np.arange(n, dtype=np.int64)
        lo = np.maximum(idx - preceding, starts[segment_ids(starts, n)])
        prefix = np.concatenate([[0], np.cumsum(np_col(b, "cents"))])
        return pa.table({
            "event_id": b.column("id"),
            "user_id": b.column("k"),
            "win_n": pa.array(idx - lo + 1, type=pa.int64()),
            "win_cents": pa.array(prefix[idx + 1] - prefix[lo],
                                  type=pa.int64()),
        })

    return _project_fold(ds, [key_col, ts_col, id_col, value_col], project,
                         fold, num_partitions, ("ts", "id"))


def share_of_group(ds, key_col: str = "user_id", id_col: str = "event_id",
                   value_col: str = "value", num_partitions: int = 64):
    """Each row's exact integer share (parts-per-million, floor) of its
    group's total — ``(cents * 1e6) // sum(cents) OVER (PARTITION BY
    key)`` in pure int64 so the result is bit-identical to SQL integer
    division. One hash shuffle; the group total is a segment sum
    broadcast back to rows by segment id."""

    def project(b: pa.Table) -> pa.Table:
        return pa.table({
            "k": b.column(key_col).cast(pa.int64()),
            "id": b.column(id_col).cast(pa.int64()),
            "cents": _cents(b.column(value_col)),
        })

    def fold(b: pa.Table, starts) -> pa.Table:
        sc = np_col(b, "cents")
        gt = np.add.reduceat(sc, starts)[segment_ids(starts, len(sc))]
        share = np.where(gt != 0, (sc * 1_000_000) // np.where(
            gt == 0, 1, gt), 0)
        return pa.table({
            id_col: b.column("id"),
            key_col: b.column("k"),
            "cents": b.column("cents"),
            "group_cents": pa.array(gt, type=pa.int64()),
            "share_ppm": pa.array(share, type=pa.int64()),
        })

    return _project_fold(ds, [key_col, id_col, value_col], project, fold,
                         num_partitions, ("id",))


def cume_dist_in_group(ds, key_col: str, value_col: str, id_col: str,
                       num_partitions: int = 16):
    """Per-group cume_dist(): fraction of the key's rows with value <=
    the current row's value (peer-inclusive, SQL semantics). One hash
    shuffle on the key, then a tie-run kernel over the sorted block:
    each row's numerator is the last index of its value run within the
    key segment. Division is double-over-int like SQL, so results are
    bit-identical."""

    def project(b: pa.Table) -> pa.Table:
        return pa.table({
            "k": b.column(key_col).cast(pa.int64()),
            "v": b.column(value_col),
            "id": b.column(id_col).cast(pa.int64()),
        })

    def fold(b: pa.Table, starts) -> pa.Table:
        sv = np_col(b, "v")
        n = len(sv)
        run_starts = np.flatnonzero(run_heads(starts, sv))
        last_idx = (segment_ends(run_starts, n) - 1)[
            segment_ids(run_starts, n)]
        seg = segment_ids(starts, n)
        seg_len = np.diff(np.append(starts, n))
        cume = (last_idx - starts[seg] + 1).astype(np.float64) \
            / seg_len[seg].astype(np.float64)
        return pa.table({
            id_col: b.column("id"),
            key_col: b.column("k"),
            value_col: b.column("v"),
            "cume": pa.array(cume, type=pa.float64()),
        })

    return _project_fold(ds, [key_col, value_col, id_col], project, fold,
                         num_partitions, ("v", "id"))


def debounce(ds, key_cols: list[str], ts_col: str = "ts",
             id_col: str = "event_id", min_gap_seconds: int = 300,
             num_partitions: int = 64):
    """Windowed deduplication (throttle/debounce): within each composite
    key, keep a row only if the previous kept row is at least
    ``min_gap_seconds`` older. The first row of a key is always kept.

    NOTE the cascade: a suppressed row does NOT reset the window (gap is
    measured against the last *kept* row), which is the semantics event
    pipelines want — a burst collapses to one row per window, not one
    row per quiet moment. That cascade makes a plain lag() oracle wrong;
    the per-segment kernel is an O(runs) cumulative scan, still no
    Python loop per row."""
    gap_us = np.int64(min_gap_seconds) * 1_000_000

    def project(b: pa.Table) -> pa.Table:
        cols = {f"k{i}": b.column(c) for i, c in enumerate(key_cols)}
        cols["ts"] = b.column(ts_col).cast(pa.int64())
        cols["id"] = b.column(id_col).cast(pa.int64())
        return pa.table(cols)

    def fold(b: pa.Table, starts) -> pa.Table:
        sts = np_col(b, "ts")
        n = len(sts)
        first = np.zeros(n, dtype=bool)
        first[starts] = True
        for i in range(1, len(key_cols)):
            kc = sort_key(b.column(f"k{i}"))
            first[1:] |= kc[1:] != kc[:-1]
        keep = np.zeros(n, dtype=bool)
        # per segment: greedy scan — kept rows are >= gap apart. Runs
        # python-loop per *kept row*, bounded by n/„gap density", and
        # vectorized between kept rows via searchsorted jumps.
        starts = np.flatnonzero(first)
        for s, e in zip(starts, segment_ends(starts, n)):
            i = s
            while i < e:
                keep[i] = True
                # next candidate: first index with ts >= ts[i] + gap
                i = s + np.searchsorted(sts[s:e], sts[i] + gap_us,
                                        side="left")
        kept = b.filter(pa.array(keep))
        out = {c: kept.column(f"k{i}") for i, c in enumerate(key_cols)}
        out[id_col] = kept.column("id")
        out[ts_col] = kept.column("ts").cast(pa.timestamp("us"))
        return pa.table(out)

    # shuffled on k0 alone and sorted by every key column; a segment
    # starts when ANY key column changes
    return _project_fold(ds, [*key_cols, ts_col, id_col], project, fold,
                         num_partitions,
                         (*[f"k{i}" for i in range(1, len(key_cols))],
                          "ts", "id"), keys=["k0"])


def lead_delta(ds, key_col: str = "user_id", ts_col: str = "ts",
               id_col: str = "event_id", value_col: str = "value",
               num_partitions: int = 64):
    """Per-key lead(): each event's NEXT value (exact cents) and the
    delta to it — ``lead(x, 1, 0) OVER (PARTITION BY k ORDER BY ts,
    id)``. The mirror of :func:`lag_delta`: same one-shuffle shape,
    the lead is a forward-shifted view zeroed at segment ends."""

    def project(b):
        return pa.table({
            "k": b.column(key_col).cast(pa.int64()),
            "ts": b.column(ts_col).cast(pa.int64()),
            "id": b.column(id_col).cast(pa.int64()),
            "cents": _cents(b.column(value_col)),
        })

    def fold(b, starts):
        sc = np_col(b, "cents")
        nxt = np.empty_like(sc)
        nxt[:-1] = sc[1:]
        nxt[-1] = 0
        # a segment's last row is the row BEFORE the next segment start
        nxt[starts[1:] - 1] = 0
        return pa.table({
            "event_id": b.column("id"),
            "user_id": b.column("k"),
            "next_cents": pa.array(nxt, type=pa.int64()),
            "delta_cents": pa.array(nxt - sc, type=pa.int64()),
        })

    return _project_fold(ds, [key_col, ts_col, id_col, value_col], project,
                         fold, num_partitions, ("ts", "id"))


def trailing_distinct_by_day(ds, ts_col: str = "ts",
                             id_col: str = "user_id", days: int = 7,
                             num_partitions: int = 16):
    """Trailing-``days`` sliding distinct count per day (e.g. "7-day
    active users"): for every calendar day present in the stream, the
    exact number of distinct ids seen in the window ``(day - days, day]``.

    The sliding-distinct shape no single groupby expresses: a distinct
    id must be counted once per *window* it falls in, not once per day.
    Plan: in-block pre-distinct ``(day, id)`` → each surviving pair is
    expanded to the ≤ ``days`` target days it covers (vectorized
    ``np.repeat`` on int64 epoch math, filtered against the tiny
    closure-carried set of days actually present) → hash shuffle on
    ``(day, id)`` makes the expansion globally distinct → per-block
    count partials → tiny day-keyed fold. Data shipped is bounded by
    ``days × distinct(day,id)`` — never raw events — and the only
    driver state is the day set (one int64 per calendar day).

    Output: ``(day: timestamp[us], n_users: int64)``, one row per
    day present in the input. Mirrors the reference's mergeability
    discipline (partial distinct → merge; hll/union.go:151-158) with
    exact counts.
    """
    from .context import gather_table

    US_PER_DAY = 86_400_000_000

    _PRE = pa.schema([("day_us", pa.int64()), ("id", pa.int64())])

    def pre(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return _PRE.empty_table()
        day = pc.floor_temporal(b.column(ts_col), unit="day") \
            .cast(pa.timestamp("us")).cast(pa.int64())
        t = pa.table({"day_us": day, "id": b.column(id_col)
                      .cast(pa.int64())})
        return t.group_by(["day_us", "id"]).aggregate([])

    pre_ds = (ds.select_columns([ts_col, id_col])
              .map_batches(pre, batch_format="pyarrow",
                           zero_copy_batch=True)
              .materialize())

    # day domain: tiny (one row per calendar day) — block partials,
    # driver unique, broadcast back for the expansion filter
    def day_partial(b: pa.Table) -> pa.Table:
        return pa.table({"day_us": pc.unique(b.column("day_us"))})

    days_tbl = gather_table(
        pre_ds.map_batches(day_partial, batch_format="pyarrow",
                           zero_copy_batch=True),
        schema=pa.schema([("day_us", pa.int64())]))
    day_set = np.unique(
        days_tbl.column("day_us").to_numpy(zero_copy_only=False))

    # the day set is O(#calendar days) int64s — small enough to ride in
    # the task closure (no broadcast machinery needed)
    def expand(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return _PRE.empty_table()
        d = as_array(b.column("day_us")).to_numpy(zero_copy_only=False)
        ids = as_array(b.column("id")).to_numpy(zero_copy_only=False)
        tgt = (np.repeat(d, days)
               + np.tile(np.arange(days, dtype=np.int64)
                         * US_PER_DAY, len(d)))
        rid = np.repeat(ids, days)
        keep = np.isin(tgt, day_set)
        return pa.table({"day_us": pa.array(tgt[keep], type=pa.int64()),
                         "id": pa.array(rid[keep], type=pa.int64())})

    def count_partial(b: pa.Table, _) -> pa.Table:
        d = b.group_by(["day_us", "id"]).aggregate([])
        g = d.group_by("day_us").aggregate([("id", "count")])
        return pa.table({"day_us": g.column("day_us"),
                         "n": g.column("id_count").cast(pa.int64())})

    def fold(b: pa.Table, _) -> pa.Table:
        g = b.group_by("day_us").aggregate([("n", "sum")])
        return pa.table({"day": g.column("day_us").cast(pa.timestamp("us")),
                         "n_users": g.column("n_sum").cast(pa.int64())})

    P = auto_partitions(pre_ds.count(), 500_000, num_partitions)
    counts = keyed_fold(
        pre_ds.map_batches(expand, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["day_us", "id"], count_partial,
        P, None)
    return keyed_fold(counts, ["day_us"], fold, min(4, P), None)


def resample_ffill(ds, key_col: str = "user_id", ts_col: str = "ts",
                   val_col: str = "cents", *, tie_col: str | None = None,
                   freq_us: int = 3_600_000_000,
                   num_partitions: int = 16):
    """Per-key regular time grid with forward-fill (time-series
    resampling): one output row per (key, grid point) from
    trunc(min ts) to trunc(max ts) every ``freq_us``, carrying the
    value of the latest event at-or-before the grid point (equal
    timestamps resolve to the last row in (ts, original order) — pin a
    tie-break column upstream). Grid points before a key's first event
    emit nothing (inner as-of semantics, matching SQL ASOF JOIN).

    One keyed shuffle; inside a block everything is vectorized — the
    ragged per-key grid comes from one repeat/cumsum, and the as-of
    lookup is a single np.searchsorted over a composite
    (key_code << 45 | ts - key_min) int64 key, so no per-key Python.
    """

    def project(b: pa.Table) -> pa.Table:
        cols = {
            key_col: b.column(key_col).cast(pa.int64()),
            "__ts": b.column(ts_col).cast(pa.timestamp("us"))
                .cast(pa.int64()),
            val_col: b.column(val_col).cast(pa.int64()),
        }
        if tie_col is not None:
            cols["__tie"] = b.column(tie_col).cast(pa.int64())
        return pa.table(cols)

    def fold(b: pa.Table, starts) -> pa.Table:
        ks, tss = np_col(b, key_col), np_col(b, "__ts")
        lens = np.diff(np.append(starts, len(ks)))
        ucode = segment_ids(starts, len(ks))  # block-local dense key codes
        n_keys = len(starts)
        base = tss[starts]  # per-key min ts
        rel = tss - base[ucode]
        if n_keys >= (1 << 18) or int(rel.max(initial=0)) >= (1 << 45):
            raise ValueError("resample_ffill: composite-key range "
                             "exceeded (shrink blocks or widen dtype)")
        comp = (ucode.astype(np.int64) << np.int64(45)) + rel
        # per-key grid: trunc(min) .. trunc(max) step freq
        g0 = (base // freq_us) * freq_us
        g1 = (tss[starts + lens - 1] // freq_us) * freq_us
        n_pts = ((g1 - g0) // freq_us + 1).astype(np.int64)
        total = int(n_pts.sum())
        gk = np.repeat(np.arange(n_keys), n_pts)
        c0 = np.cumsum(n_pts) - n_pts
        step = np.arange(total) - np.repeat(c0, n_pts)
        g_ts = g0[gk] + step * freq_us
        g_comp = (gk.astype(np.int64) << np.int64(45)) \
            + (g_ts - base[gk])
        idx = np.searchsorted(comp, g_comp, side="right") - 1
        valid = (g_ts - base[gk]) >= 0  # grid points before first event
        # searchsorted floor stays within the key's own run because
        # composites are namespaced by the key code
        keep = valid & (idx >= 0)
        return pa.table({
            key_col: pa.array(ks[starts][gk[keep]]),
            "hour": pa.array(g_ts[keep]).cast(pa.timestamp("us")),
            f"last_{val_col}": pa.array(np_col(b, val_col)[idx[keep]]),
        })

    P = auto_partitions(ds.count(), 500_000, num_partitions)
    return keyed_fold(
        ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True),
        [key_col], fold, P,
        ("__ts", "__tie") if tie_col is not None else ("__ts",))


def retention_cohorts(ds, key_col: str = "user_id", ts_col: str = "ts",
                      *, epoch_day: str = "2024-01-01",
                      week_days: int = 7, num_partitions: int = 16):
    """Cohort retention matrix: cohort = key's first-activity week
    (days since ``epoch_day`` // 7), one row per (cohort_week,
    active_week) with the distinct-key count — the standard
    week-over-week retention triangle. One keyed shuffle: per block,
    each key folds to its first week + distinct active weeks
    (vectorized dedup), then a tiny (cohort, week) count aggregate."""
    ep = np.datetime64(epoch_day).astype("datetime64[us]").astype(
        np.int64)
    day_us = 86_400_000_000

    def project(b: pa.Table) -> pa.Table:
        return pa.table({
            key_col: b.column(key_col).cast(pa.int64()),
            "__ts": b.column(ts_col).cast(pa.timestamp("us"))
                .cast(pa.int64()),
        })

    def fold(b: pa.Table, starts) -> pa.Table:
        ws = (np_col(b, "__ts") - ep) // day_us // week_days
        dk = run_heads(starts, ws)  # distinct (key, week) rows
        cohort = ws[starts]  # first week per key
        pairs_c = cohort[segment_ids(starts, len(ws))[dk]]
        pairs_w = ws[dk]
        key2 = pairs_c * (1 << 20) + pairs_w
        uk, cnt = np.unique(key2, return_counts=True)
        return pa.table({
            "cohort_week": pa.array(uk >> np.int64(20)),
            "week": pa.array(uk & np.int64((1 << 20) - 1)),
            "n_users": pa.array(cnt.astype(np.int64)),
        })

    def final(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return b
        t = b.group_by(["cohort_week", "week"]).aggregate(
            [("n_users", "sum")])
        return pa.table({
            "cohort_week": t.column("cohort_week"),
            "week": t.column("week"),
            "n_users": t.column("n_users_sum").cast(pa.int64()),
        })

    P = auto_partitions(ds.count(), 500_000, num_partitions)
    # the week is a pure function of ts, so a ts order is a week order
    return (keyed_fold(ds.map_batches(project, batch_format="pyarrow",
                                      zero_copy_batch=True),
                       [key_col], fold, P, ("__ts",))
            .repartition(1)
            .map_batches(final, batch_format="pyarrow", batch_size=None,
                         zero_copy_batch=True))


def churn_by_week(ds, key_col: str = "user_id", ts_col: str = "ts", *,
                  epoch_day: str = "2024-01-01", week_days: int = 7,
                  num_partitions: int = 16):
    """Weekly lifecycle states: for each key-week, 'new' (first-ever
    week), 'retained' (also active the previous week) or 'resurrected'
    (returns after a gap); additionally one 'churned' row at week g+1
    for every internal activity gap (active at g, inactive at g+1,
    active again later). Output: (week, status, n_users). One keyed
    shuffle; per block each key folds to its sorted distinct weeks and
    the states fall out of one diff — no per-key Python."""
    ep = np.datetime64(epoch_day).astype("datetime64[us]").astype(
        np.int64)
    day_us = 86_400_000_000

    def project(b: pa.Table) -> pa.Table:
        return pa.table({
            key_col: b.column(key_col).cast(pa.int64()),
            "__ts": b.column(ts_col).cast(pa.timestamp("us"))
                .cast(pa.int64()),
        })

    _empty = pa.table({
        "week": pa.array([], type=pa.int64()),
        "status": pa.array([], type=pa.string()),
        "n_users": pa.array([], type=pa.int64()),
    })

    def fold(b: pa.Table, starts) -> pa.Table:
        ks = np_col(b, key_col)
        ws = (np_col(b, "__ts") - ep) // day_us // week_days
        keep = run_heads(starts, ws)  # distinct (key, week)
        ks, ws = ks[keep], ws[keep]
        firstk = np.empty(len(ks), dtype=bool)
        firstk[0] = True
        np.not_equal(ks[1:], ks[:-1], out=firstk[1:])
        prev_gap = np.zeros(len(ks), dtype=np.int64)
        if len(ks) > 1:
            prev_gap[1:] = ws[1:] - ws[:-1]
        scode = np.where(firstk, 0,
                         np.where(prev_gap == 1, 1, 2)).astype(np.int64)
        # churn rows: one per internal gap, at (previous week + 1)
        gap = (~firstk) & (prev_gap > 1)
        churn_w = (ws - prev_gap + 1)[gap]
        out_w = np.concatenate([ws, churn_w])
        out_c = np.concatenate([scode, np.full(len(churn_w), 3,
                                               dtype=np.int64)])
        key2, cnt = np.unique(out_w * 4 + out_c, return_counts=True)
        labels = np.array(["new", "retained", "resurrected", "churned"],
                          dtype=object)
        return pa.table({
            "week": pa.array(key2 >> np.int64(2)),
            "status": pa.array(labels[key2 & 3], type=pa.string()),
            "n_users": pa.array(cnt.astype(np.int64)),
        })

    def final(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return _empty
        t = b.group_by(["week", "status"]).aggregate([("n_users", "sum")])
        return pa.table({
            "week": t.column("week"),
            "status": t.column("status").cast(pa.string()),
            "n_users": t.column("n_users_sum").cast(pa.int64()),
        })

    P = auto_partitions(ds.count(), 500_000, num_partitions)
    # the week is a pure function of ts, so a ts order is a week order
    return (keyed_fold(ds.map_batches(project, batch_format="pyarrow",
                                      zero_copy_batch=True),
                       [key_col], fold, P, ("__ts",))
            .repartition(1)
            .map_batches(final, batch_format="pyarrow", batch_size=None,
                         zero_copy_batch=True))


def rolling_quantile(ds, key_col: str, ts_col: str, val_col: str, *,
                     window: int = 7, q: float = 0.5,
                     tie_col: str | None = None,
                     num_partitions: int = 16):
    """Exact rolling discrete quantile per key over the last ``window``
    rows ordered by (ts, tie): output sorted_window[floor(q*(n-1))]
    (DuckDB quantile_disc convention), n = rows so far capped at the
    window — the robust rolling-median smoother for metric streams.
    One keyed shuffle; the fold builds an (n, window) staircase matrix
    padded with a sentinel above each row's window start, sorts it
    once along axis 1 and gathers per-row indices — O(n * w log w)
    fully vectorized, no per-row Python."""

    def fold(b: pa.Table, starts) -> pa.Table:
        sv = np_col(b, val_col).astype(np.int64)
        n = len(sv)
        pos = rank_in_segment(starts, n)
        n_in = np.minimum(pos + 1, window)
        # staircase: column j of row i holds sv[i - j] for j < n_in[i]
        j = np.arange(window)
        src = np.arange(n)[:, None] - j[None, :]
        pad = src < (np.arange(n) - n_in + 1)[:, None]
        mat = sv[np.maximum(src, 0)]
        big = np.int64(np.iinfo(np.int64).max)
        mat[pad] = big                                 # sorts last
        mat.sort(axis=1)
        qi = np.floor(q * (n_in - 1)).astype(np.int64)
        out = mat[np.arange(n), qi]
        cols = {key_col: b.column(key_col),
                ts_col: b.column(ts_col).cast(pa.timestamp("us"))}
        if tie_col:
            cols[tie_col] = b.column(tie_col).cast(pa.int64())
        cols["rolling_q"] = pa.array(out, type=pa.int64())
        return pa.table(cols)

    P = auto_partitions(ds.count(), 500_000, num_partitions)
    cols = [key_col, ts_col, val_col] + ([tie_col] if tie_col else [])
    return keyed_fold(ds.select_columns(cols), [key_col], fold, P,
                      (ts_col, tie_col) if tie_col else (ts_col,))
