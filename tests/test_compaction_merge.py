"""The compaction merge sorts a partition's composition once (no Ray).

``merge_state_with_changes`` takes a prior composition (base + deltas)
unfolded and resolves it in the same LWW sort as the epoch's events;
its state and ledger must equal folding the composition first. Hot keys
come from the same sort and must equal a plain ``Counter`` reference.
The digest's value is pinned by golden values, with and without nulls.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa
import pytest

from image_report_ray.schema import CHANGE_SCHEMA, concat_evolving
from image_report_ray.sources.synth import gen_epoch
from image_report_ray.state.merge import (
    compact_changes,
    export_canonical,
    fold_state_tables,
    merge_state_with_changes,
    table_digest,
)
from image_report_ray.state.oracle import apply_naive


def events(rows, **extra) -> pa.Table:
    """rows: (lsn, op, conv, turn, text); ``extra`` adds evolved columns."""
    t = pa.Table.from_pydict(
        {
            "lsn": [r[0] for r in rows],
            "op": [r[1] for r in rows],
            "conv_id": [r[2] for r in rows],
            "turn_idx": [r[3] for r in rows],
            "role": ["user"] * len(rows),
            "text": [r[4] for r in rows],
            "tool": [None] * len(rows),
            "ts": [1_704_067_200_000_000 + r[0] for r in rows],
        },
        schema=CHANGE_SCHEMA,
    )
    for name, col in extra.items():
        t = t.append_column(name, pa.array(col, pa.string()))
    return t


def state_of(rows, **extra) -> pa.Table:
    return merge_state_with_changes(None, events(rows, **extra))[0]


def hot_reference(changes: pa.Table, k: int = 3) -> list[tuple[str, int]]:
    """Events per conversation, top k by count then conv_id, descending."""
    counts = Counter(changes.column("conv_id").to_pylist())
    return sorted(counts.items(), key=lambda kv: (kv[1], kv[0]), reverse=True)[:k]


BASE = [(100 + i, "I", f"c{i % 4}", i // 4, f"b{i}") for i in range(12)]
COMPOSITIONS = {
    # late events below the base lsn: stale for a base key, applied for
    # a key nobody has written
    "late_below_base": (
        [state_of(BASE), state_of([(200, "U", "c0", 0, "d0")])],
        events([(50, "U", "c1", 0, "late"), (60, "I", "c9", 0, "new"),
                (70, "D", "c2", 1, "gone")]),
    ),
    # equal-lsn ties: against the base (state wins), against a delta
    # (state wins), and a key whose base and delta share an lsn (the
    # later table wins, as the fold decides)
    "equal_lsn_ties": (
        [state_of(BASE),
         state_of([(205, "U", "c1", 1, "d1"), (104, "U", "c0", 1, "again")])],
        events([(101, "U", "c1", 0, "tie-base"), (205, "U", "c1", 1, "tie-delta"),
                (104, "U", "c0", 1, "tie-both"), (300, "U", "c3", 0, "wins")]),
    ),
    # duplicate deliveries and tombstones: repeated (key, lsn) rows, a
    # delete, a late insert under a tombstone, delete-then-reinsert
    "dups_and_tombstones": (
        [state_of(BASE),
         state_of([(210, "D", "c2", 0, None), (211, "D", "c3", 2, None)])],
        events([(300, "U", "c0", 0, "x"), (300, "U", "c0", 0, "x"),
                (300, "U", "c0", 0, "x"), (150, "I", "c2", 0, "resurrect?"),
                (301, "D", "c1", 0, None), (301, "D", "c1", 0, None),
                (302, "I", "c3", 2, "reinsert"), (211, "D", "c3", 2, None)]),
    ),
    # a zero-row delta whose schema has an evolved column (an emptied GC
    # file) must not add it; a non-empty evolved delta does
    "zero_row_evolved_delta": (
        [state_of(BASE), state_of([], lang=[]),
         state_of([(220, "U", "c1", 2, "d")], lang=["en"])],
        events([(310, "I", "c5", 0, "e"), (120, "U", "c1", 2, "late")]),
    ),
    "only_zero_row_state": (
        [state_of([], lang=[])],
        events([(1, "I", "a", 0, "x"), (1, "I", "a", 0, "x")]),
    ),
}


@pytest.mark.parametrize("case", sorted(COMPOSITIONS))
def test_compaction_merge_equals_fold_then_merge(case):
    comp, changes = COMPOSITIONS[case]
    want, want_stats = merge_state_with_changes(
        fold_state_tables(comp), changes, prior_last_lsn=220, track_hot_keys=3
    )
    got, stats = merge_state_with_changes(
        comp, changes, prior_last_lsn=220, track_hot_keys=3
    )
    assert got.equals(want)
    assert got.schema.equals(want.schema)
    assert stats == want_stats
    assert stats.hot_keys == hot_reference(changes)


def test_compaction_merge_pins_the_tie_rules():
    comp, changes = COMPOSITIONS["equal_lsn_ties"]
    got, stats = merge_state_with_changes(comp, changes)
    text = {(r["conv_id"], r["turn_idx"]): r["text"] for r in got.to_pylist()}
    assert text[("c1", 0)] == "b1"  # base beats the epoch on a tie
    assert text[("c1", 1)] == "d1"  # a delta beats the epoch on a tie
    assert text[("c0", 1)] == "again"  # the later state table wins
    assert text[("c3", 0)] == "wins"
    assert (stats.applied, stats.stale_skipped, stats.dup_skipped) == (1, 3, 0)

    comp, changes = COMPOSITIONS["dups_and_tombstones"]
    _, stats = merge_state_with_changes(comp, changes)
    # dups: two extra copies at lsn 300, one at 301; the (c3, 2, 211)
    # event ties the delta's tombstone, which is state, so it is stale
    assert stats.dup_skipped == 3
    assert stats.received == stats.applied + stats.stale_skipped + stats.dup_skipped

    comp, _ = COMPOSITIONS["zero_row_evolved_delta"]
    assert "lang" not in merge_state_with_changes(comp[:2], events([]))[0].column_names


@pytest.mark.parametrize("seed", range(6))
def test_compaction_merge_randomized(seed):
    """Base + deltas from random epochs, the epoch re-delivering slices
    of earlier ones (late events, lsn ties, duplicates): equal to
    fold-then-merge, and the canonical state equals the naive replay."""
    kw = dict(seed=seed, n_convs=30, max_turns=6, dup_rate=0.05,
              hot_frac=0.3, n_hot=3, evolve_from_epoch=3)
    eps = [gen_epoch(e, 300, **kw) for e in range(5)]
    base = merge_state_with_changes(None, eps[0])[0]
    deltas = [merge_state_with_changes(None, e)[0] for e in eps[1:4]]
    comp = [base, *deltas]
    changes = concat_evolving(
        [eps[4], eps[1].slice(seed * 7, 40), eps[3].slice(20, 30),
         eps[4].slice(0, 25)]
    )
    want, want_stats = merge_state_with_changes(
        fold_state_tables(comp), changes, track_hot_keys=3
    )
    got, stats = merge_state_with_changes(comp, changes, track_hot_keys=3)
    assert got.equals(want) and stats == want_stats
    assert stats.hot_keys == hot_reference(changes)
    assert export_canonical(got).equals(apply_naive(concat_evolving(eps)))


def test_hot_keys_ties_break_by_conv_id_descending():
    # b, c, d tie at 3 events; a has 4; e has 1
    rows = [(i, "I", conv, i, "t") for i, conv in enumerate(
        "a a a a b b b c c c d d d e".split())]
    changes = events(rows)
    # state-only conversations are not counted
    state = state_of([(900, "I", "zz", 0, "s"), (901, "I", "zz", 1, "s")])
    for k in (1, 3, 10):
        _, stats = merge_state_with_changes(state, changes, track_hot_keys=k)
        assert stats.hot_keys == hot_reference(changes, k)
    assert stats.hot_keys[:4] == [("a", 4), ("d", 3), ("c", 3), ("b", 3)]
    _, stats = merge_state_with_changes(state, changes)
    assert stats.hot_keys == []


@pytest.mark.parametrize("seed", range(3))
def test_hot_keys_of_compacted_input_weigh_folded_events(seed):
    log = gen_epoch(0, 600, seed=seed, n_convs=25, max_turns=4, dup_rate=0.1,
                    hot_frac=0.4, n_hot=4)
    _, raw = merge_state_with_changes(None, log, track_hot_keys=3)
    _, cmp = merge_state_with_changes(None, compact_changes(log), track_hot_keys=3)
    assert raw.hot_keys == cmp.hot_keys == hot_reference(log)


# table_digest values of null-free columns, computed before the digest
# skipped the validity mask and fill for such columns: the value must
# not move (it is checkpointed in every commit manifest)
DIGEST_COLUMNS = {
    "string": pa.array(["a", "", "héllo", "conv-0001"], pa.string()),
    "large_string": pa.array(["x", "yy", "", "zzz"], pa.large_string()),
    "binary": pa.array([b"\x00\x01", b"", b"abc", b"\xff"], pa.binary()),
    "int32": pa.array([0, -1, 7, 2**31 - 1], pa.int32()),
    "timestamp": pa.array([0, 1_700_000_000_000_000, -5, 42], pa.timestamp("us")),
    "bool": pa.array([True, False, False, True], pa.bool_()),
    "float64": pa.array([0.0, -1.5, 3.25, 1e300], pa.float64()),
}
DIGEST_GOLDEN = {
    "string": ("358384b7715869d0176b9d83c38f0630:4", "9aeb9d2e51e79c03571ce0713e4b9805:2"),
    "large_string": ("77cbc41a6b387f7bd7262d03420cf8e4:4", "365497b9daa06dc3cef9f333fdc7cbfe:2"),
    "binary": ("d3bde642c2caff968d93c508f51a59aa:4", "da62bc639d9f265a41ca87492d91f604:2"),
    "int32": ("6be0f7e3f41bc2e6f2bc62135dd88709:4", "a0e83796fc0abaf5585ea9a37f5a0271:2"),
    "timestamp": ("a9293edc9ee24bc1973b4a4c428f5291:4", "fae808dbb96be90548712ecaf1bcf2a4:2"),
    "bool": ("0684ed4aee490c93f6d7fa0b29669cd0:4", "bb856da5204d6809470a568485354511:2"),
    "float64": ("7c3b216e055b81f23263956663c805bb:4", "cf93589074d3eab982626183b49851c1:2"),
}


@pytest.mark.parametrize("name", sorted(DIGEST_COLUMNS))
def test_digest_of_null_free_columns_is_pinned(name):
    arr = DIGEST_COLUMNS[name]
    whole, sliced = DIGEST_GOLDEN[name]
    assert table_digest(pa.table({name: arr})) == whole
    assert table_digest(pa.table({name: arr.slice(1, 2)})) == sliced


def test_digest_of_null_free_table_is_pinned():
    assert table_digest(pa.table(DIGEST_COLUMNS)) == "d0ee6515055e75303029c2ed9f72e180:4"


def _dirty_null_slot() -> pa.Array:
    """["a", None, "", "xyz"] whose null slot still holds the bytes "zz"."""
    offsets = pa.py_buffer(np.array([0, 1, 3, 3, 6], np.int32).tobytes())
    return pa.Array.from_buffers(
        pa.string(), 4,
        [pa.py_buffer(bytes([0b1101])), offsets, pa.py_buffer(b"azzxyz")],
    )


# the same, for columns with nulls (hashed as zero values, a string's
# null slot as empty whatever bytes it holds)
NULL_COLUMNS = {
    "string": lambda: pa.array(["a", None, "", "héllo"], pa.string()),
    "large_string": lambda: pa.array([None, "yy", None, "zzz"], pa.large_string()),
    "binary": lambda: pa.array([b"\x00", None, b"abc", b""], pa.binary()),
    "all_null": lambda: pa.array([None] * 4, pa.string()),
    "dirty_null_slot": _dirty_null_slot,
    "int32": lambda: pa.array([None, -1, 7, None], pa.int32()),
    "timestamp": lambda: pa.array([0, None, -5, 42], pa.timestamp("us")),
    "bool": lambda: pa.array([True, None, False, True], pa.bool_()),
    "float64": lambda: pa.array([None, -1.5, 3.25, 1e300], pa.float64()),
    "decimal": lambda: pa.array([None, 1, 2, 3], pa.decimal128(5, 2)),
}
NULL_GOLDEN = {
    "string": ("5261b18ea73d0f37f750482e22ccdae7:4", "2ef71b058e5259379b577043aef05162:3"),
    "large_string": ("cc97345be4f55cef8cba0c645437513f:4", "304124dade878f62dac19dad7404d3e4:3"),
    "binary": ("b3101a3ef757ded9f9d14cb9115e4cb4:4", "aee068e7b1c16057a0d5aa3f0a96cad1:3"),
    "all_null": ("50eb0ec7c45a5acf79c4e80a45ec75b4:4", "6132a54346d11bfaaa9d0123a12cf924:3"),
    "dirty_null_slot": ("799bb354ea5742590ce4d3b71fe2edf1:4", "985987b4caadf499b8afd6869d6662dd:3"),
    "int32": ("9c7caa1aab129bee22e35007ea24c382:4", "1d6746d296f9e75294a03fcc150cdccb:3"),
    "timestamp": ("c1f62df112852a12a280a52a50b86d67:4", "4e6668d602a7fb59b2c2d412a331adbf:3"),
    "bool": ("3cc8fa3d0b1422bc87398f6e308013bf:4", "c6acc98c5277569214e37b9f0358631d:3"),
    "float64": ("f4d6b0b5b4ece7308d2e78e882f70baf:4", "54d263dac903fa923aea746fed6670ee:3"),
    "decimal": ("44b305ad1ec24010313dba5d2527a9d4:4", "4348831697ea37261899e4fef1d8bb68:3"),
}


@pytest.mark.parametrize("name", sorted(NULL_COLUMNS))
def test_digest_of_columns_with_nulls_is_pinned(name):
    arr = NULL_COLUMNS[name]()
    whole, sliced = NULL_GOLDEN[name]
    assert table_digest(pa.table({name: arr})) == whole
    assert table_digest(pa.table({name: arr.slice(1, 3)})) == sliced


def test_hot_keys_count_only_received_ops():
    """A row whose op is none of I/U/D is not received, so it adds
    nothing to its conversation's count."""
    changes = events([(1, "I", "a", 0, "x"), (2, "U", "a", 0, "y"),
                      (3, "I", "b", 0, "x"), (4, "I", "b", 1, "x")])
    ops = changes.column("op").to_pylist()
    ops[3] = "X"
    changes = changes.set_column(1, "op", pa.array(ops))
    _, stats = merge_state_with_changes(None, changes, track_hot_keys=3)
    assert stats.received == 3
    assert stats.hot_keys == [("a", 2), ("b", 1)]
