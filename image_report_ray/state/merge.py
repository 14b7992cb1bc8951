"""Last-writer-wins merge kernels — the engine's core operator.

Semantic ancestry: the reference's non-max suppression keeps the single
authoritative detection among overlapping candidates by processing them in
a deterministic sort order and suppressing the rest
(/root/reference/utils.py:270-319). Here "overlapping detections" become
conflicting versions of a key ``(conv_id, turn_idx)``: events are ordered
by ``lsn``, the max-lsn version wins, tombstones (``op == "D"``) suppress,
and duplicate ``lsn`` deliveries are dropped and *counted* (exactly-once
accounting, the analogue of the reference's input dedup at
/root/reference/ir:549-557).

Everything in this module is a pure ``pyarrow.Table -> pyarrow.Table``
function importable and testable without Ray (the reference's
library-surface discipline, SURVEY.md §3 entry point 3). Kernels are
vectorized: Arrow sort + numpy boundary/reduceat group ops; no Python
row loops.

One kernel, :func:`_lww`, resolves last-writer-wins for every caller,
in two steps. :func:`_lww_sort` stacks its inputs and sorts their key,
``_lsn`` and source projection once, cutting it into key runs whose
last row is the key's winner; :func:`_lww` then takes the winners from
the stacked table, so the payload moves once and lands in key order.
The epoch merge and :func:`fold_state_tables` (merge-on-read, under
``read_composition``) run both steps. :func:`fold_canonical` (snapshot
and as-of reads, one call over every partition's composition) drops
the tombstoned winners before its one take of the payload columns, and
the change feed (``pipelines/cdc.py`` ``_feed``, one call over every
partition's compositions for a gathered feed) runs only the sort: each
side's winner is the last row of a run from that side's files. A
compaction merge hands the prior composition (base + deltas) to the
same sort as the epoch's events, unfolded, so every prior row is
sorted once per compaction. The merge derives its whole ledger and
its hot keys from that one sorted projection, so every count is exact
however the epoch's events were grouped into map tasks — the map side
only validates and routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schema import (
    DELETED_COL,
    KEY_COLUMNS,
    LSN_COL,
    conform,
    unify_additive,
)

# compact_changes' per-row counters (folded events per op, dropped dups).
SEEN_I, SEEN_U, SEEN_D, DUPS = "_seen_i", "_seen_u", "_seen_d", "_dups"
ACCT_COLS = (SEEN_I, SEEN_U, SEEN_D, DUPS)
SRC_COL = "_src"  # _lww input index: a later table wins lsn ties

# The canonical key order: state files, exports and feeds are all sorted
# by it, and the LWW sorts below extend it with (lsn, source).
KEY_ORDER = [(c, "ascending") for c in KEY_COLUMNS]


def sort_canonical(t: pa.Table) -> pa.Table:
    """``t`` sorted by the canonical ``(conv_id, turn_idx)`` key order."""
    return t.take(pc.sort_indices(t, sort_keys=KEY_ORDER))


def _np(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.to_numpy(zero_copy_only=False)


def _key_codes(table: pa.Table) -> tuple[np.ndarray, np.ndarray, pa.Array]:
    """Dense integer codes for conv_id, turn_idx values, and the codes'
    dictionary (conv_ids in first-appearance order)."""
    conv = table.column("conv_id")
    if isinstance(conv, pa.ChunkedArray):
        conv = conv.combine_chunks()
    enc = pc.dictionary_encode(conv)
    turns = _np(table.column("turn_idx"))
    return enc.indices.to_numpy(zero_copy_only=False), turns, enc.dictionary


def _ensure_accounting(changes: pa.Table) -> pa.Table:
    """Attach per-op received counters to a raw (uncompacted) changelog."""
    if SEEN_I in changes.column_names:
        return changes
    op = changes.column("op")
    for name, code in ((SEEN_I, "I"), (SEEN_U, "U"), (SEEN_D, "D")):
        flag = pc.cast(pc.equal(op, code), pa.int64())
        changes = changes.append_column(name, flag)
    return changes.append_column(
        DUPS, pa.nulls(changes.num_rows, pa.int64()).fill_null(0)
    )


def compact_changes(changes: pa.Table) -> pa.Table:
    """Combiner: one surviving event per key, with its folded counters.

    Keeps, per ``(conv_id, turn_idx)``, the event with the greatest ``lsn``;
    drops duplicate-lsn deliveries (counted into ``_dups``); folds the
    superseded events' op counts into the survivor's ``_seen_*`` columns.
    Idempotent: re-compacting compacted output is a no-op. The engine
    does not run it (a batch-local fold cannot tell a re-delivery in
    another batch from a stale event); :func:`merge_state_with_changes`
    accepts its output and sums the carried counters.
    """
    if changes.num_rows == 0:
        return _ensure_accounting(changes)
    changes = _ensure_accounting(changes)
    # Grouping via numpy lexsort over dictionary CODES (first-appearance
    # order, not lexicographic — compaction only needs keys contiguous,
    # and the final state sort in merge_state_with_changes restores the
    # lexicographic contract). ~40% cheaper than an Arrow multi-key string
    # sort + full-table take: only the winner rows are materialized.
    codes, turns, _ = _key_codes(changes)
    lsn = _np(changes.column("lsn"))
    order = np.lexsort((lsn, turns, codes))
    c, t_, l = codes[order], turns[order], lsn[order]
    n = len(c)
    new_key = np.empty(n, dtype=bool)
    new_key[0] = True
    np.not_equal(c[1:], c[:-1], out=new_key[1:])
    np.logical_or(new_key[1:], t_[1:] != t_[:-1], out=new_key[1:])
    starts = np.flatnonzero(new_key)
    winners = np.concatenate([starts[1:] - 1, [n - 1]])
    # Duplicate lsn within a key: consecutive rows with equal (key, lsn).
    dup_mask = np.zeros(n, dtype=bool)
    dup_mask[1:] = (~new_key[1:]) & (l[1:] == l[:-1])

    out_cols: dict[str, pa.Array] = {}
    for name in ACCT_COLS:
        vals = _np(changes.column(name)).astype(np.int64, copy=False)[order]
        if name == DUPS:
            # a duplicate delivery IS received (counted under its op);
            # _dups additionally records how many of those were dups
            vals = vals + dup_mask
        out_cols[name] = pa.array(np.add.reduceat(vals, starts), type=pa.int64())

    winner_tbl = changes.take(pa.array(order[winners]))
    for name in ACCT_COLS:
        i = winner_tbl.column_names.index(name)
        winner_tbl = winner_tbl.set_column(i, name, out_cols[name])
    return winner_tbl


@dataclass
class MergeStats:
    """Conservation ledger for one partition-epoch merge.

    Invariants (asserted by lineage validators, the graft of the v2
    conservation ledger /root/reference/docs/report-schema-v2.md:121-137):

    * ``received == applied + stale_skipped + dup_skipped``
    * ``rows_live + tombstoned == keys_total``
    """

    received: int = 0
    received_i: int = 0
    received_u: int = 0
    received_d: int = 0
    applied: int = 0
    stale_skipped: int = 0
    dup_skipped: int = 0
    rows_live: int = 0
    tombstoned: int = 0
    keys_total: int = 0
    last_lsn: int = -1
    hot_keys: list[tuple[str, int]] = field(default_factory=list)

    def check(self) -> None:
        assert self.received == self.applied + self.stale_skipped + self.dup_skipped, self
        assert self.rows_live + self.tombstoned == self.keys_total, self


def changes_to_state_rows(changes: pa.Table) -> pa.Table:
    """Project changelog rows to state layout: payload + _lsn + _deleted."""
    drop = [c for c in ("lsn", "op") if c in changes.column_names]
    payload = changes.drop_columns(drop)
    payload = payload.append_column(LSN_COL, changes.column("lsn").cast(pa.int64()))
    payload = payload.append_column(DELETED_COL, pc.equal(changes.column("op"), "D"))
    return payload


class _Sorted(NamedTuple):
    """One :func:`_lww_sort`: the stacked inputs and the sorted key
    projection of the rows it sorted, cut into key runs."""

    stacked: pa.Table  # the conformed inputs, stacked in list order
    keys: pa.Table  # key, _lsn and _src columns, in sorted order
    idx: np.ndarray  # each sorted row's position in ``stacked``
    codes: np.ndarray  # conv_id codes, which ascend with conv_id
    convs: pa.Array  # the codes' dictionary: conv_ids in ascending order
    new_key: np.ndarray  # True where a key's run starts
    starts: np.ndarray  # positions of each key run's first row
    last: np.ndarray  # positions of each key run's last row: its winner


def _lww_sort(
    tables: "list[pa.Table]",
    schema: pa.Schema | None = None,
    keep: "list[np.ndarray | None] | None" = None,
) -> _Sorted:
    """The sort half of :func:`_lww`.

    Conforms the state-layout ``tables`` to ``schema`` (default: their
    additive union in list order) and stacks them. One stable sort of the
    key, ``_lsn`` and ``_src`` (list index) projection orders the rows;
    a key's run ends with its winner: the greatest ``_lsn``, a tie going
    to the later table and, within one table, to the later row.
    ``keep`` (one boolean mask or ``None`` per table) sorts only those
    rows of each table; ``stacked`` keeps every row, unfiltered."""
    target = schema or unify_additive(*[t.schema for t in tables])
    sizes = [t.num_rows for t in tables]
    src = np.repeat(np.arange(len(tables), dtype=np.int32), sizes)
    stacked = pa.concat_tables([conform(t, target) for t in tables])
    keys = stacked.select([*KEY_COLUMNS, LSN_COL]).append_column(
        SRC_COL, pa.array(src)
    )
    rows = None
    if keep is not None:
        offs = np.cumsum([0, *sizes[:-1]])
        rows = np.concatenate([
            np.arange(o, o + n) if m is None else o + np.flatnonzero(m)
            for o, n, m in zip(offs, sizes, keep)
        ]).astype(np.int64)
        keys = keys.take(rows)
    idx = _np(pc.sort_indices(
        keys,
        sort_keys=[*KEY_ORDER, (LSN_COL, "ascending"), (SRC_COL, "ascending")],
    ))
    keys = keys.take(idx)
    if rows is not None:
        idx = rows[idx]
    # conv_id is sorted, so first appearance is ascending order and the
    # dictionary lists conv_ids ascending
    codes, turns, convs = _key_codes(keys)
    n = keys.num_rows
    new_key = np.ones(n, dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=new_key[1:])
    np.logical_or(new_key[1:], turns[1:] != turns[:-1], out=new_key[1:])
    starts = np.flatnonzero(new_key)
    last = np.flatnonzero(np.append(new_key[1:], n > 0))
    return _Sorted(stacked, keys, idx, codes, convs, new_key, starts, last)


def _lww(
    tables: "list[pa.Table]", schema: pa.Schema | None = None
) -> tuple[pa.Table, _Sorted]:
    """The last-writer-wins kernel under every merge and fold: one
    :func:`_lww_sort`, then one take of the winners from the stacked
    table, in key order. Returns the winners (no ``_src``) and the
    sort."""
    order = _lww_sort(tables, schema)
    return order.stacked.take(order.idx[order.last]), order


def _hot_keys(
    order: _Sorted, epoch: np.ndarray, weights: np.ndarray | None, k: int
) -> list[tuple[str, int]]:
    """Top-``k`` conversations by epoch event count (``weights`` per
    epoch input row, else one each), ties broken by conv_id descending
    (heapq.nlargest order) — the lineage analogue of the reference's
    top-3 ranked candidates. ``epoch`` masks the sorted rows that came
    from the epoch's events."""
    codes = order.codes[epoch]
    m = len(order.convs)
    n = np.bincount(codes, minlength=m)
    cand = np.flatnonzero(n)
    if weights is not None:
        rows = order.idx[epoch]
        n = np.bincount(codes, weights=weights[rows], minlength=m).round()
    # ascending (count, code), reversed: count and then conv_id descending
    top = cand[np.lexsort((cand, n[cand]))[::-1][:k]]
    return list(zip(order.convs.take(pa.array(top)).to_pylist(),
                    (int(x) for x in n[top])))


def merge_state_with_changes(
    state: "pa.Table | list[pa.Table] | None",
    changes: pa.Table,
    *,
    prior_last_lsn: int = -1,
    track_hot_keys: int = 0,
) -> tuple[pa.Table, MergeStats]:
    """Apply a raw (or :func:`compact_changes`) change batch to a
    partition's state.

    ``state`` is one state table or a partition's composition (base
    first, then deltas), unfolded: state layout, payload columns +
    ``_lsn`` + ``_deleted`` (tombstones retained — late or duplicate
    deliveries for a deleted key must not resurrect it). One
    :func:`_lww` sort of ``[incoming, *state]`` decides the state, the
    ledger and the hot keys: an event whose key and ``lsn`` repeat an
    earlier event of the batch is a duplicate; a tie on ``lsn`` with
    existing state resolves to state (the event is stale), and among
    state tables to the later one, as :func:`fold_state_tables` does;
    among equal duplicates the last copy wins. Zero-row state tables are
    dropped first, as the fold drops them. Schemas may differ
    additively (evolution: null-fill via unify, state's columns first).
    Hot keys count the batch's events per conversation over the same
    sorted conv_id codes (:func:`_hot_keys`)."""
    stats = MergeStats(last_lsn=prior_last_lsn)
    if SEEN_I in changes.column_names:  # compact_changes output
        counts = [_np(changes.column(c)) for c in (SEEN_I, SEEN_U, SEEN_D)]
        dups = int(pc.sum(changes.column(DUPS)).as_py() or 0)
        changes = changes.drop_columns(list(ACCT_COLS))
        received = [int(c.sum()) for c in counts]
        weights = sum(counts)
    else:
        vc = pc.value_counts(changes.column("op"))
        ops = dict(zip(vc.field("values").to_pylist(), vc.field("counts").to_pylist()))
        received = [ops.get(code, 0) for code in "IUD"]
        dups = 0
        weights = None
    stats.received_i, stats.received_u, stats.received_d = received
    stats.received = sum(received)
    if weights is None and stats.received != changes.num_rows:
        # rows whose op is none of I/U/D are received as nothing
        is_op = pc.is_in(changes.column("op"), value_set=pa.array(list("IUD")))
        weights = _np(pc.fill_null(is_op, False)).astype(np.int64)

    incoming = changes_to_state_rows(changes)
    if changes.num_rows:
        stats.last_lsn = max(prior_last_lsn, int(pc.max(changes.column("lsn")).as_py()))

    tables = state if isinstance(state, list) else [state]
    tables = [t for t in tables if t is not None and t.num_rows]
    if not tables:
        if incoming.num_rows == 0:
            stats.check()
            return incoming, stats
        schema = incoming.schema
    else:
        schema = unify_additive(*[t.schema for t in tables], incoming.schema)
    new_state, order = _lww([incoming, *tables], schema)

    src = _np(order.keys.column(SRC_COL))
    lsn = _np(order.keys.column(LSN_COL))
    epoch = src == 0
    incoming_dup = (~order.new_key[1:]) & (lsn[1:] == lsn[:-1]) & epoch[1:]
    stats.dup_skipped = dups + int(incoming_dup.sum())
    stats.applied = int(epoch[order.last].sum())
    stats.stale_skipped = stats.received - stats.dup_skipped - stats.applied
    if track_hot_keys and changes.num_rows:
        stats.hot_keys = _hot_keys(order, epoch, weights, track_hot_keys)

    stats.keys_total = new_state.num_rows
    stats.tombstoned = int(_np(new_state.column(DELETED_COL)).sum())
    stats.rows_live = stats.keys_total - stats.tombstoned
    stats.check()
    return new_state, stats


def fold_state_tables(tables: "list[pa.Table | None]") -> pa.Table | None:
    """LWW-fold state-layout tables (base + deltas, oldest first) into one.

    The read-side half of merge-on-read: each table already holds at most
    one row per key with its ``_lsn``/``_deleted`` metadata; the fold
    keeps, per key, the row with the greatest ``_lsn`` (ties — identical
    re-delivered content — resolve to the latest table). Schemas may
    differ additively."""
    tables = [t for t in tables if t is not None and t.num_rows]
    if not tables:
        return None
    if len(tables) == 1:
        return tables[0]
    return _lww(tables)[0]


def payload_names(schema: pa.Schema) -> list[str]:
    """A state-layout schema's payload columns (keys included), in
    order: everything but the ``_lsn``/``_deleted`` metadata and
    merge-internal columns."""
    return [c for c in schema.names
            if c not in (LSN_COL, DELETED_COL, SRC_COL, *ACCT_COLS)]


def _live_payload(state: pa.Table) -> pa.Table:
    """Live rows, payload columns only, in ``state``'s own row order.
    Applied to a fold or a committed state file, whose rows are already
    unique keys in ``KEY_ORDER``, this is the canonical table without a
    second sort."""
    return state.select(payload_names(state.schema)).filter(
        pc.invert(state.column(DELETED_COL)))


def fold_canonical(tables: "list[pa.Table | None]") -> pa.Table | None:
    """The canonical snapshot of state-layout tables (base + deltas,
    oldest first; or several such compositions whose keys are disjoint):
    live winners, payload columns only, in key order; ``None`` when they
    hold no rows. Equal to :func:`_live_payload` of
    :func:`fold_state_tables`, but the winner positions of the one
    :func:`_lww_sort` drop their tombstones first, so the payload
    columns are taken once, live rows only."""
    tables = [t for t in tables if t is not None and t.num_rows]
    if not tables:
        return None
    if len(tables) == 1:
        return _live_payload(tables[0])
    order = _lww_sort(tables)
    win = order.idx[order.last]
    dead = _np(order.stacked.column(DELETED_COL).take(win))
    return order.stacked.select(payload_names(order.stacked.schema)).take(
        win[~dead])


def export_canonical(state: pa.Table) -> pa.Table:
    """Canonical materialized table: live rows, payload columns only,
    sorted by ``(conv_id, turn_idx)`` — the stable-turn-ordering half of
    the north-rule invariant (deterministic reading order, the graft of
    /root/reference/analysis.py:68-70 and docs/report-schema-v2.md:93-96).
    Sorts any input; a fold's output needs only :func:`_live_payload`.
    """
    return sort_canonical(_live_payload(state))


# ---- version-stable content digest ------------------------------------
#
# The digest is checkpointed in commit manifests and re-verified by
# `cli validate`, so it must be reproducible across library versions and
# environments forever. Library hash functions (polars ``hash_rows``,
# pandas ``hash_pandas_object``) explicitly do NOT promise cross-version
# stability, so the row hash here is the engine's own: a 64-bit
# polynomial hash over each value's canonical bytes, implemented with
# plain numpy uint64 wraparound arithmetic (C semantics — stable). The
# per-byte power weights use the modular inverse of the base so the
# whole column hashes in O(bytes) vectorized work: with prefix sums
# S_i = Σ b_j·B^(-j), a row's hash Σ b_j·B^(e-1-j) is
# (S_e − S_s)·B^(e-1) — two gathers and a multiply per row.

DIGEST_ALGO = "irr-sha256-v1"

_POLY_B = np.uint64(0x100000001B3)  # FNV-1a prime (odd => invertible mod 2^64)
_POLY_BINV = np.uint64(pow(0x100000001B3, -1, 1 << 64))
_LEN_MIX = np.uint64(0xD6E8FEB86659FD93)
_NULL_SENTINEL = np.uint64(0x9E3779B97F4A7C15)
_ROW_SEED = np.uint64(0x243F6A8885A308D3)
_COL_MULT = np.uint64(0x9E3779B97F4A7C15)
_BYTE_BUDGET = 1 << 21  # per-slab value bytes (bounds temp arrays ~32x)


def _mix64(x: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    """splitmix64 finalizer, vectorized (wrapping uint64 arithmetic)."""
    x = np.uint64(x) if np.isscalar(x) or isinstance(x, int) else x
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


_POW_CACHE: dict[int, np.ndarray] = {}


def _powers(base: int, m: int) -> np.ndarray:
    """[base^0 .. base^(m-1)] mod 2^64, cached (index-only, data-free)."""
    cur = _POW_CACHE.get(base)
    if cur is None or len(cur) < m:
        size = max(m, _BYTE_BUDGET + 1)
        cur = np.empty(size, np.uint64)
        cur[0] = 1
        np.cumprod(np.full(size - 1, np.uint64(base), np.uint64), out=cur[1:])
        _POW_CACHE[base] = cur
    return cur


def _poly_rowhash(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Per-row polynomial hash of byte ranges [start, end) of ``data``."""
    n = len(starts)
    out = np.zeros(n, dtype=np.uint64)
    lens = (ends - starts).astype(np.uint64)
    if n:
        lo, hi = int(starts.min()), int(ends.max())
        m = hi - lo
        if m:
            seg = data[lo:hi].astype(np.uint64) + np.uint64(1)  # count zero bytes
            pow_b = _powers(int(_POLY_B), m)
            pow_binv = _powers(int(_POLY_BINV), m)
            prefix = np.zeros(m + 1, np.uint64)
            np.cumsum(seg * pow_binv[:m], out=prefix[1:])
            s = (starts - lo).astype(np.int64)
            e = (ends - lo).astype(np.int64)
            nz = e > s
            out[nz] = (prefix[e[nz]] - prefix[s[nz]]) * pow_b[e[nz] - 1]
    return _mix64(out ^ (lens * _LEN_MIX))


def _offsets(col: pa.Array) -> np.ndarray:
    """A string/binary array's value offsets (``len + 1`` of them)."""
    t = col.type
    large = pa.types.is_large_string(t) or pa.types.is_large_binary(t)
    return np.frombuffer(col.buffers()[1], np.int64 if large else np.int32)[
        col.offset : col.offset + len(col) + 1
    ]


def _bytes_column_hash(arr: pa.Array) -> np.ndarray:
    """Row hashes for a string/binary array (slabbed to bound memory)."""
    n = len(arr)
    offsets = _offsets(arr).astype(np.int64)
    buf = arr.buffers()[2]
    data = np.frombuffer(buf, np.uint8) if buf is not None else np.empty(0, np.uint8)
    out = np.empty(n, np.uint64)
    i = 0
    while i < n:
        j = int(np.searchsorted(offsets, offsets[i] + _BYTE_BUDGET, side="left"))
        j = min(max(j, i + 1), n)
        out[i:j] = _poly_rowhash(data, offsets[i:j], offsets[i + 1 : j + 1])
        i = j
    return out


def _column_rowhash(col: "pa.ChunkedArray | pa.Array") -> np.ndarray:
    """Canonical per-row 64-bit hash of one column. Value semantics, not
    physical encoding: ints/timestamps/dates hash via int64, bools via
    0/1, floats via their IEEE bits, strings/binary via utf-8/raw bytes;
    nulls hash to a fixed sentinel."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if pa.types.is_dictionary(t):
        col = col.cast(t.value_type)
        t = col.type
    null_mask = pc.is_null(col).to_numpy(zero_copy_only=False)
    if pa.types.is_string(t) or pa.types.is_binary(t) or pa.types.is_large_string(
        t
    ) or pa.types.is_large_binary(t):
        h = _bytes_column_hash(col)
    else:
        if pa.types.is_boolean(t):
            vals_arr = col.cast(pa.uint8())
        elif (
            pa.types.is_temporal(t)
            or pa.types.is_integer(t)
        ):
            vals_arr = col.cast(pa.int64(), safe=False)
        elif pa.types.is_floating(t):
            vals_arr = col.cast(pa.float64())
        elif pa.types.is_decimal(t):
            vals_arr = col.cast(pa.string())
            return np.where(null_mask, _NULL_SENTINEL, _bytes_column_hash(vals_arr))
        else:  # unknown logical type: canonical string rendering
            vals_arr = col.cast(pa.string())
            return np.where(null_mask, _NULL_SENTINEL, _bytes_column_hash(vals_arr))
        vals = vals_arr.fill_null(0).to_numpy(zero_copy_only=False)
        if vals.dtype == np.float64:
            vals = vals.view(np.uint64)
        else:
            vals = vals.astype(np.int64).view(np.uint64)
        h = _mix64(vals)
    return np.where(null_mask, _NULL_SENTINEL, h)


def _name_hash(name: str) -> np.uint64:
    b = np.frombuffer(name.encode("utf-8"), np.uint8)
    return _poly_rowhash(b, np.array([0]), np.array([len(b)]))[0]


def table_rowhash(table: pa.Table) -> np.ndarray:
    """Per-row 64-bit content hashes (column name + value, all columns)."""
    row = np.full(table.num_rows, _ROW_SEED, dtype=np.uint64)
    for name in table.column_names:
        ch = _column_rowhash(table.column(name)) ^ _name_hash(name)
        row = _mix64(row * _COL_MULT ^ ch)
    return row


def table_sketch(table: pa.Table, columns: list[str] | None = None) -> str:
    """Order-INDEPENDENT content sketch: per-row 64-bit hashes
    (``table_rowhash``) combined by (sum mod 2^64, xor, count) —
    commutative, so two partitions' sketches compare without a sort and
    incremental maintenance (sketch(A ∪ B) from components) works. Use
    this when row order is not canonical; the checkpoint digest below is
    the cheaper order-sensitive form."""
    if columns is not None:
        table = table.select(columns)
    if table.num_rows == 0:
        return "0:0:0"
    h = table_rowhash(table)
    s = int(np.sum(h, dtype=np.uint64))
    x = int(np.bitwise_xor.reduce(h))
    return f"{s:016x}:{x:016x}:{len(h)}"


def _digest_column(h, col: "pa.ChunkedArray | pa.Array") -> None:
    """Feed one column's canonical value bytes into a hash object:
    validity mask, then value-semantic bytes with nulls as zero values
    (ints/temporals as int64, bools as 0/1, floats as IEEE doubles,
    strings/binary as lengths + concatenated data, a null as empty) —
    independent of chunking, slicing, offsets and physical encoding."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if pa.types.is_dictionary(t):
        col = col.cast(t.value_type)
        t = col.type
    # a null-free column's mask is all zero bytes, and it has nothing to fill
    nulls = pc.is_null(col).to_numpy(zero_copy_only=False) if col.null_count else None
    h.update(bytes(len(col)) if nulls is None else nulls.tobytes())
    if (pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_binary(t) or pa.types.is_large_binary(t)):
        offs = _offsets(col)
        lens = np.diff(offs)
        if nulls is not None and lens[nulls].any():
            # a null slot with bytes behind it: hash the values filled empty
            text = pa.types.is_string(t) or pa.types.is_large_string(t)
            col = col.fill_null("" if text else b"")
            offs = _offsets(col)
            lens = np.diff(offs)
        h.update(lens.astype(np.int64).tobytes())
        if offs[-1] > offs[0]:
            h.update(memoryview(col.buffers()[2])[int(offs[0]) : int(offs[-1])])
    elif pa.types.is_boolean(t):
        col = col.fill_null(False) if nulls is not None else col
        h.update(col.cast(pa.uint8()).to_numpy(zero_copy_only=False).tobytes())
    elif pa.types.is_floating(t):
        col = col.fill_null(0) if nulls is not None else col
        h.update(col.cast(pa.float64()).to_numpy(zero_copy_only=False).tobytes())
    elif pa.types.is_temporal(t) or pa.types.is_integer(t):
        col = col.fill_null(0) if nulls is not None else col
        h.update(
            col.cast(pa.int64(), safe=False).to_numpy(zero_copy_only=False).tobytes()
        )
    else:  # unknown logical type: canonical string rendering
        _digest_column(h, col.cast(pa.string()))


def table_digest(table: pa.Table, columns: list[str] | None = None) -> str:
    """Checkpoint content digest: sha256 over the table's canonical
    serialization in its GIVEN row order.

    State tables are canonically sorted by ``(conv_id, turn_idx)`` by
    construction (every merge/fold/GC path ends in the same sort — the
    repo's replay-determinism invariant), so equal content implies equal
    order and the digest needs no per-row combining; sha256 is
    version-stable forever and runs at C speed. Chunk layout, array
    slicing and physical encoding do not affect the value. For
    non-canonical inputs use :func:`table_sketch` (order-independent).
    The algorithm id (:data:`DIGEST_ALGO`) is recorded in every commit
    manifest so ``cli validate`` can distinguish corruption from an
    algorithm change."""
    import hashlib
    import struct

    if columns is not None:
        table = table.select(columns)
    if table.num_rows == 0:
        return "0:0:0"
    h = hashlib.sha256(struct.pack("<Q", table.num_rows))
    for name in table.column_names:
        h.update(name.encode("utf-8"))
        _digest_column(h, table.column(name))
    return f"{h.hexdigest()[:32]}:{table.num_rows}"
