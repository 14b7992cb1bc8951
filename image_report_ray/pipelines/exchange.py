"""Generic keyed exchange: the engine's raw-task hash-partitioned
map/reduce shuffle for query pipelines.

``exchange_reduce`` hash-partitions any number of input sides (lists of
Arrow block refs or Datasets) by a key column and runs one vectorized
reduce kernel per partition with the co-partitioned slices of every
side. This is the same two-stage object-store exchange as the CDC core
(`pipelines/cdc.py`) and the pair exchange (`pipelines/dedup.py`),
generalized to N sides — used where ``Dataset.join`` /
``groupby().map_groups`` would be the textbook call but measured slow or
deadlock-prone at low CPU counts on ray 2.49 (see the cdc module
docstring for the measurements).

Partitioning contract: every row of every side with the same key value
lands in the same partition (64-bit stable hash mod P), so a reduce
kernel sees ALL rows for its keys and nothing else. Results come back as
one small table ref per partition — the driver folds O(P) outputs, never
the data.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ._util import arrow_refs

_EX_REMOTES = None
_DEFAULT_PARTS = 16


def _mix_int_keys(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — raw ``key % P`` would hotspot strided key
    patterns (every P-th id on one partition); mixing makes routing
    uniform for any integer distribution."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def hash_key(col: "pa.ChunkedArray | pa.Array") -> np.ndarray:
    """Stable 64-bit key hash (strings via pandas' stable utf8 hash,
    integers via splitmix64) — the routing function of the exchange."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    knp = col.to_numpy(zero_copy_only=False)
    if knp.dtype.kind in ("O", "U"):
        return pd.util.hash_array(knp.astype(object)).astype(np.uint64)
    return _mix_int_keys(knp.astype(np.uint64))


def _remotes():
    global _EX_REMOTES
    if _EX_REMOTES is None:
        import ray

        @ray.remote
        def split_by_key(block: pa.Table, key_col: str, P: int):
            if block.num_rows == 0:
                # Ray Data may emit empty schema-less blocks; they carry
                # no rows for any partition
                return tuple(block for _ in range(P))
            h = hash_key(block.column(key_col))
            part = (h % np.uint64(P)).astype(np.int64)
            order = np.argsort(part, kind="stable")
            t = block.take(pa.array(order))
            bounds = np.searchsorted(part[order], np.arange(P + 1))
            return tuple(
                t.slice(bounds[i], bounds[i + 1] - bounds[i]) for i in range(P)
            )

        @ray.remote
        def reduce_pid(fn, pid: int, side_counts: tuple, *slices):
            sides = []
            i = 0
            for c in side_counts:
                tabs = [s for s in slices[i : i + c] if s.num_rows]
                if tabs:
                    sides.append(
                        pa.concat_tables(tabs, promote_options="default")
                    )
                elif c:  # keep the schema of the first (empty) slice
                    sides.append(slices[i])
                else:  # side had no blocks at all
                    sides.append(pa.table({}))
                i += c
            return fn(pid, *sides)

        _EX_REMOTES = (split_by_key, reduce_pid)
    return _EX_REMOTES


def exchange_reduce(
    sides: list,
    key_cols: list[str],
    fn,
    P: int = _DEFAULT_PARTS,
) -> list:
    """Run ``fn(pid, side0_table, side1_table, ...)`` once per hash
    partition, with every side co-partitioned on its key column.

    ``sides``: Datasets or lists of Arrow block refs. Returns the P
    result object refs (``ray.get`` them, or feed to further tasks)."""
    import ray

    split, reduce_pid = _remotes()
    if P < 2:
        P = 2  # num_returns=1 would return a bare ref, not a list
    mats_by_side: list[list] = []
    for side, key in zip(sides, key_cols):
        refs = side if isinstance(side, list) else arrow_refs(side)
        mats_by_side.append(
            [split.options(num_returns=P).remote(r, key, P) for r in refs]
        )
    side_counts = tuple(len(m) for m in mats_by_side)
    out = []
    for pid in range(P):
        slices = [m[pid] for mats in mats_by_side for m in mats]
        out.append(reduce_pid.remote(fn, pid, side_counts, *slices))
    return out


def gather_concat(refs: list) -> pa.Table:
    """ray.get the per-partition results and concat the non-empty ones
    (driver receives O(P) small tables — the reduce outputs, not data)."""
    import ray

    tabs = [t for t in ray.get(refs) if t is not None and t.num_rows]
    if not tabs:
        empty = ray.get(refs[0]) if refs else pa.table({})
        return empty if empty is not None else pa.table({})
    return pa.concat_tables(tabs, promote_options="default").combine_chunks()
