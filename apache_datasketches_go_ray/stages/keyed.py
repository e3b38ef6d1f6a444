"""The keyed fold: the engine's one co-locating primitive.

A keyed fold hash-shuffles rows on ``keys`` so that every row of a key
lands in exactly one block, then runs one vectorized kernel per block.
``keyed_fold`` owns the whole shape, so a query only writes its kernel:

- the hash shuffle ``repartition(num_partitions, keys=keys)`` and the
  whole-block ``map_batches(batch_size=None)`` after it;
- a stable in-block sort by ``keys`` then ``order_by`` (key and string
  columns are coded order-preservingly with ``ids.local_codes``; an
  ``order_by`` name with a leading ``-`` sorts that column descending);
- the segment starts: the first row of each key run in the sorted
  block, handed to the kernel as ``fn(block, starts)``.

``fn`` never sees a zero-row block: Ray Data (2.49) forwards a zero-row
block without calling a ``map_batches`` function. A hash shuffle emits
its empty partitions as blocks without columns, so they carry no type
that could disagree with the typed blocks.

``order_by=None`` skips the sort and passes ``starts=None``: folds that
group with Arrow ``group_by`` must not gain a sort, since a float sum in
another row order can differ in its last bits.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .arrow_util import as_array
from .ids import local_codes


def sort_key(col) -> np.ndarray:
    """Column -> numpy array whose order is the column's value order:
    string columns as ``local_codes``, others as values."""
    arr = as_array(col)
    if pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type):
        return local_codes(arr)[0]
    return arr.to_numpy(zero_copy_only=False)


def sort_segments(block: pa.Table, keys, order_by=()):
    """Stable sort of ``block`` by ``keys`` then ``order_by``; returns the
    sorted block and the int64 start index of each key run in it."""
    cols = [sort_key(block.column(c)) for c in keys]
    cols += [-sort_key(block.column(c[1:])) if c.startswith("-")
             else sort_key(block.column(c)) for c in order_by]
    order = np.lexsort(cols[::-1])
    first = np.zeros(len(order), dtype=bool)
    first[:1] = True
    for c in cols[:len(keys)]:
        c = c[order]
        first[1:] |= c[1:] != c[:-1]
    return block.take(order), np.flatnonzero(first)


def segment_ids(starts: np.ndarray, n: int) -> np.ndarray:
    """Segment number of each of ``n`` rows, given the segment starts."""
    marks = np.zeros(n, dtype=np.int64)
    marks[starts[1:]] = 1
    return np.cumsum(marks)


def rank_in_segment(starts: np.ndarray, n: int) -> np.ndarray:
    """0-based position of each of ``n`` rows within its segment."""
    return np.arange(n, dtype=np.int64) - starts[segment_ids(starts, n)]


def run_heads(starts: np.ndarray, *values: np.ndarray) -> np.ndarray:
    """Mask of the rows that start a run: segment starts, and rows whose
    ``values`` differ from the previous row's. In a block sorted by
    (key, *values) the heads are its distinct (key, *values) rows."""
    head = np.zeros(len(values[0]), dtype=bool)
    head[starts] = True
    for v in values:
        head[1:] |= v[1:] != v[:-1]
    return head


def next_in_segment(starts: np.ndarray, n: int) -> np.ndarray:
    """For rows ``0..n-2``: whether the next row is in the same segment."""
    same = np.ones(max(n - 1, 0), dtype=bool)
    same[starts[1:] - 1] = False
    return same


def segment_ends(starts: np.ndarray, n: int) -> np.ndarray:
    """One-past-the-end row index of each segment."""
    return np.append(starts[1:], n)


def np_col(block: pa.Table, name: str) -> np.ndarray:
    """One column of ``block`` as a numpy array."""
    return as_array(block.column(name)).to_numpy(zero_copy_only=False)


def keyed_fold(ds, keys, fn, num_partitions: int, order_by=()):
    """Hash-shuffle ``ds`` on ``keys`` into ``num_partitions`` blocks and
    fold each block with ``fn(block, starts)``.

    ``block`` holds whole keys, stably sorted by ``keys`` + ``order_by``;
    ``starts`` are its key-run start rows. With ``order_by=None`` the
    block is passed unsorted and ``starts`` is None."""
    keys = list(keys)

    def fold(block: pa.Table) -> pa.Table:
        if order_by is None:
            return fn(block, None)
        return fn(*sort_segments(block, keys, order_by))

    return ds.repartition(num_partitions, keys=keys).map_batches(
        fold, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
