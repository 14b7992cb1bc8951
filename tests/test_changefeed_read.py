"""The change feed's read side.

Without Ray: the ``diff_snapshots`` output contract pinned case by case
against a dict diff, the per-partition feed reading each file once and
folding only the conversations its new delta files touch, and a read
path that runs without pandas.

With Ray: for every committed pair ``f < t`` (``f = -1`` included) of a
lake's lifecycle, the range feed equals a dict diff of the two
time-travel snapshots, through schema evolution, duplicate
re-delivery, identical rewrites, delete-then-reinsert, compactions,
tombstone GC and TTL expiry inside the range, a resharded lake and a
bootstrapped lake; plus the late event that rules out an ``_lsn`` cut
at the ``from`` epoch's high-water mark."""

from __future__ import annotations

import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from image_report_ray.config import EngineConfig
from image_report_ray.pipelines import cdc
from image_report_ray.pipelines.cdc import (
    apply_epoch,
    bootstrap_lake,
    canonical_state_table,
    changefeed,
    changefeed_range,
    diff_snapshots,
    expire_turns,
    gc_tombstones,
    reshard_lake,
)
from image_report_ray.schema import CHANGE_SCHEMA
from image_report_ray.sources.synth import write_wal
from image_report_ray.state.manifest import Lake, read_canonical
from image_report_ray.state.merge import merge_state_with_changes

KEYS = ("conv_id", "turn_idx")
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def dict_diff(a: "pa.Table | None", b: "pa.Table | None") -> dict:
    """key -> (op, side-1 payload or None): I/U/D by comparing every
    side-1 payload column (a column side 0 lacks compares as null)."""

    def rows(t):
        if t is None:
            return {}
        return {(r["conv_id"], r["turn_idx"]): r for r in t.to_pylist()}

    da, db = rows(a), rows(b)
    payload = [] if b is None or not b.num_rows else [
        c for c in b.column_names if c not in KEYS
    ]
    out = {}
    for k, r in db.items():
        p = {c: r[c] for c in payload}
        if k not in da:
            out[k] = ("I", p)
        elif any(da[k].get(c) != r[c] for c in payload):
            out[k] = ("U", p)
    for k in da.keys() - db.keys():
        out[k] = ("D", None)
    return out


def feed_dict(feed: pa.Table) -> dict:
    payload = [c for c in feed.column_names if c not in ("op", *KEYS)]
    out = {}
    for r in feed.to_pylist():
        p = {c: r[c] for c in payload}
        if r["op"] == "D":
            assert all(v is None for v in p.values()), r  # no after-image
            p = None
        out[(r["conv_id"], r["turn_idx"])] = (r["op"], p)
    return out


def snap(rows: list[dict], **types) -> pa.Table:
    """A canonical snapshot from row dicts (payload typed by ``types``,
    string by default)."""
    cols = list(rows[0]) if rows else list(KEYS)
    fields = [pa.field("conv_id", pa.string()), pa.field("turn_idx", pa.int32())]
    fields += [pa.field(c, types.get(c, pa.string())) for c in cols if c not in KEYS]
    return pa.Table.from_pylist(rows, schema=pa.schema(fields))


def check(a, b) -> pa.Table:
    feed = diff_snapshots(a, b)
    assert feed.column_names[:3] == ["op", *KEYS]
    assert feed_dict(feed) == dict_diff(a, b)
    keys = list(zip(feed.column("conv_id").to_pylist(),
                    feed.column("turn_idx").to_pylist()))
    assert keys == sorted(keys)
    return feed


def test_null_equals_null_and_null_vs_value_updates():
    a = snap([
        {"conv_id": "c", "turn_idx": 0, "text": None},
        {"conv_id": "c", "turn_idx": 1, "text": None},
        {"conv_id": "c", "turn_idx": 2, "text": "x"},
    ])
    b = snap([
        {"conv_id": "c", "turn_idx": 0, "text": None},
        {"conv_id": "c", "turn_idx": 1, "text": "y"},
        {"conv_id": "c", "turn_idx": 2, "text": None},
    ])
    feed = check(a, b)
    assert feed_dict(feed) == {("c", 1): ("U", {"text": "y"}),
                               ("c", 2): ("U", {"text": None})}


def test_column_only_on_side0_is_not_fed():
    a = snap([{"conv_id": "c", "turn_idx": 0, "text": "x", "old": "p"},
              {"conv_id": "c", "turn_idx": 1, "text": "x", "old": "q"}])
    b = snap([{"conv_id": "c", "turn_idx": 0, "text": "x"},
              {"conv_id": "c", "turn_idx": 1, "text": "z"}])
    feed = check(a, b)
    assert "old" not in feed.column_names
    assert feed_dict(feed) == {("c", 1): ("U", {"text": "z"})}


def test_column_only_on_side1_feeds_only_non_null():
    a = snap([{"conv_id": "c", "turn_idx": 0, "text": "x"},
              {"conv_id": "c", "turn_idx": 1, "text": "x"}])
    b = snap([{"conv_id": "c", "turn_idx": 0, "text": "x", "meta": None},
              {"conv_id": "c", "turn_idx": 1, "text": "x", "meta": "m"}])
    feed = check(a, b)
    assert feed_dict(feed) == {("c", 1): ("U", {"text": "x", "meta": "m"})}


def test_empty_side1_feeds_bare_deletes_and_none_none_is_empty():
    a = snap([{"conv_id": "c", "turn_idx": t, "text": "x"} for t in range(3)])
    for b in (None, a.slice(0, 0)):
        feed = check(a, b)
        assert feed.column_names == ["op", *KEYS]
        assert feed.column("op").to_pylist() == ["D"] * 3
    for a0, b0 in ((None, None), (a.slice(0, 0), None), (None, a.slice(0, 0))):
        feed = check(a0, b0)
        assert feed.num_rows == 0
        assert feed.schema == pa.schema(
            [("op", pa.string()), ("conv_id", pa.string()),
             ("turn_idx", pa.int32())])


def test_identical_rewrite_does_not_feed_and_inserts_carry_payload():
    a = snap([{"conv_id": "c", "turn_idx": 0, "text": "x"}])
    b = snap([{"conv_id": "c", "turn_idx": 0, "text": "x"},
              {"conv_id": "d", "turn_idx": 0, "text": "n"}])
    assert check(a, a).num_rows == 0
    assert feed_dict(check(a, b)) == {("d", 0): ("I", {"text": "n"})}


def test_evolved_int64_column_keeps_its_type():
    a = snap([{"conv_id": "c", "turn_idx": 0, "text": "x", "score": 1},
              {"conv_id": "c", "turn_idx": 1, "text": "x", "score": 2}],
             score=pa.int64())
    b = snap([{"conv_id": "c", "turn_idx": 0, "text": "x", "score": 1},
              {"conv_id": "c", "turn_idx": 1, "text": "x", "score": 7},
              {"conv_id": "c", "turn_idx": 2, "text": "x", "score": 3}],
             score=pa.int64())
    feed = check(a, b)
    assert feed.schema.field("score").type == pa.int64()
    assert feed_dict(feed) == {
        ("c", 1): ("U", {"text": "x", "score": 7}),
        ("c", 2): ("I", {"text": "x", "score": 3}),
    }
    assert check(b, None).num_rows == 3


# ---- the per-partition feed over a merge-on-read composition ----------


def _events(rows: list[tuple]) -> pa.Table:
    """(lsn, op, conv, turn, text) tuples as a changelog."""
    return pa.Table.from_pylist(
        [{"lsn": lsn, "op": op, "conv_id": conv, "turn_idx": turn,
          "role": None if op == "D" else "user",
          "text": None if op == "D" else text, "tool": None, "ts": None}
         for lsn, op, conv, turn, text in rows],
        schema=CHANGE_SCHEMA,
    )


def _mor_partition(root: str) -> tuple[str, str]:
    """A base state file of 40 conversations x 5 turns and one delta
    file touching three of them (an update, an identical rewrite, a
    delete, a new turn), written as the merge task writes them."""
    base_ev = _events([
        (c * 5 + t, "I", f"conv-{c:03d}", t, f"t{c}-{t}")
        for c in range(40) for t in range(5)
    ])
    delta_ev = _events([
        (500, "U", "conv-003", 1, "changed"),
        (501, "U", "conv-017", 2, "t17-2"),   # identical rewrite
        (502, "D", "conv-017", 4, None),
        (503, "I", "conv-029", 7, "new turn"),
    ])
    paths = []
    for name, ev in (("base", base_ev), ("delta", delta_ev)):
        state, _ = merge_state_with_changes(None, ev)
        p = os.path.join(root, f"{name}.parquet")
        pq.write_table(state, p)
        paths.append(p)
    return paths[0], paths[1]


def test_part_feed_reads_each_file_once_and_folds_only_touched(
        tmp_path, monkeypatch):
    base, delta = _mor_partition(str(tmp_path))
    state_rows = pq.read_metadata(base).num_rows
    delta_rows = pq.read_metadata(delta).num_rows
    touched = set(pq.read_table(delta).column("conv_id").to_pylist())
    base_t = pq.read_table(base)
    prefix_touched = pc.sum(pc.is_in(
        base_t.column("conv_id"), value_set=pa.array(sorted(touched)))).as_py()
    expect = diff_snapshots(read_canonical([base]),
                            read_canonical([base, delta]))

    reads: list[str] = []
    folded: list[int] = []
    read_table, fold = cdc.pq.read_table, cdc.fold_state_tables
    parquet_file = cdc.pq.ParquetFile

    def counting_read(path, *a, **k):
        reads.append(path)
        return read_table(path, *a, **k)

    def counting_open(path, *a, **k):
        reads.append(path)
        return parquet_file(path, *a, **k)

    def counting_fold(tables):
        folded.append(sum(t.num_rows for t in tables if t is not None))
        return fold(tables)

    monkeypatch.setattr(cdc.pq, "read_table", counting_read)
    monkeypatch.setattr(cdc.pq, "ParquetFile", counting_open)
    monkeypatch.setattr(cdc, "fold_state_tables", counting_fold)
    feed = cdc._part_feed([base], [base, delta])

    assert sorted(reads) == sorted([base, delta])
    assert folded and max(folded) <= prefix_touched + delta_rows < state_rows
    assert feed.equals(expect)
    assert feed_dict(feed) == {
        ("conv-003", 1): ("U", {"role": "user", "text": "changed",
                                "tool": None, "ts": None}),
        ("conv-017", 4): ("D", None),
        ("conv-029", 7): ("I", {"role": "user", "text": "new turn",
                                "tool": None, "ts": None}),
    }


def test_part_feed_untouched_and_full_paths_match_full_diff(tmp_path):
    base, delta = _mor_partition(str(tmp_path))
    for p0, p1 in (([base], [base]), ([base, delta], [base, delta]),
                   ([], [base, delta]), ([delta], [base]),
                   ([base, delta], [delta])):
        want = diff_snapshots(read_canonical(p0) if p0 else None,
                              read_canonical(p1))
        assert cdc._part_feed(p0, p1).equals(want), (p0, p1)


@pytest.mark.parametrize("deletes_all", [False, True])
def test_part_feed_delete_only_delta_keeps_snapshot_columns(
        tmp_path, deletes_all):
    """A delta that only deletes: the feed still carries the payload
    columns of the whole ``to`` snapshot unless that snapshot is empty."""
    convs = ["a", "b"] if not deletes_all else ["a"]
    base_ev = _events([(i, "I", c, 0, c) for i, c in enumerate(convs)])
    delta_ev = _events([(10, "D", "a", 0, None)])
    paths = []
    for name, ev in (("base", base_ev), ("delta", delta_ev)):
        state, _ = merge_state_with_changes(None, ev)
        paths.append(str(tmp_path / f"{name}.parquet"))
        pq.write_table(state, paths[-1])
    feed = cdc._part_feed(paths[:1], paths)
    assert feed.equals(diff_snapshots(read_canonical(paths[:1]),
                                      read_canonical(paths)))
    assert feed.column("op").to_pylist() == ["D"]
    assert ("text" in feed.column_names) is not deletes_all


def test_feed_read_path_does_not_import_pandas(tmp_path):
    """The feed kernel and the per-partition feed run with pandas
    unimportable and leave it unloaded. (pyarrow's dataset module,
    behind ``pq.read_table``, loads pandas whenever it can, so the
    subprocess makes it unimportable first.)"""
    base, delta = _mor_partition(str(tmp_path))
    code = (
        "import importlib.abc, sys\n"
        "class NoPandas(importlib.abc.MetaPathFinder):\n"
        "    def find_spec(self, name, path, target=None):\n"
        "        if name.split('.')[0] == 'pandas':\n"
        "            raise ImportError(name)\n"
        "sys.meta_path.insert(0, NoPandas())\n"
        "from image_report_ray.pipelines import cdc\n"
        "from image_report_ray.state.manifest import read_canonical\n"
        f"paths = [{base!r}, {delta!r}]\n"
        "feed = cdc._part_feed(paths[:1], paths)\n"
        "d = cdc.diff_snapshots(read_canonical(paths[:1]), "
        "read_canonical(paths))\n"
        "assert feed.equals(d) and feed.num_rows == 3\n"
        "print('pandas' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.strip() == "False"


# ---- range feeds over lake lifecycles (Ray) ---------------------------


EVOLVED = CHANGE_SCHEMA.append(pa.field("meta", pa.string()))


def _write_epoch(wal: str, epoch: int, rows: list[dict]) -> list[str]:
    d = os.path.join(wal, f"epoch={epoch:05d}")
    os.makedirs(d, exist_ok=True)
    p = os.path.join(d, "part-000.parquet")
    pq.write_table(pa.Table.from_pylist(rows, schema=EVOLVED), p)
    return [p]


def _event(lsn: int, op: str, row: dict) -> dict:
    out = {c: row.get(c) for c in EVOLVED.names}
    out.update(lsn=lsn, op=op)
    if op == "D":
        out.update(role=None, text=None, tool=None, ts=None, meta=None)
    return out


def _churn_epochs(state: pa.Table, wal: str, first: int, lsn0: int,
                  redeliver: str) -> list[list[str]]:
    """Two hand-made epochs over a committed state: the first re-delivers
    an earlier epoch's events (same lsns), rewrites some live rows with
    identical payload, updates others and deletes one whole
    conversation; the second re-inserts that conversation, half of its
    turns with their old payload, and inserts a new one."""
    rows = state.to_pylist()
    gone = rows[0]["conv_id"]
    lsn = lsn0
    ev = pq.read_table(redeliver).to_pylist()[:25]
    for i, r in enumerate(rows[1:60]):
        lsn += 1
        if i % 3 == 0:
            ev.append(_event(lsn, "U", r))  # identical rewrite
        else:
            ev.append(_event(lsn, "U", {**r, "text": f"u{lsn}", "meta": None}))
    for r in rows:
        if r["conv_id"] == gone:
            lsn += 1
            ev.append(_event(lsn, "D", r))
    e1 = _write_epoch(wal, first, ev)
    ev = []
    for i, r in enumerate(x for x in rows if x["conv_id"] == gone):
        lsn += 1
        ev.append(_event(lsn, "I", r if i % 2 else {**r, "text": "back"}))
    for t in range(3):
        lsn += 1
        ev.append(_event(lsn, "I", {"conv_id": "conv-new", "turn_idx": t,
                                    "role": "user", "text": f"n{t}",
                                    "meta": "fresh"}))
    return [e1, _write_epoch(wal, first + 1, ev)]


def _assert_all_range_feeds(lake: Lake, kinds: dict) -> int:
    """Every committed pair f < t (f = -1 included): the gathered range
    feed equals the dict diff of the as-of snapshots, and each
    partition's feed equals the full-snapshot diff, schema included.
    ``kinds`` counts the partition pairs by ``_part_feed`` branch: the
    prefix rule with new delta files, an unchanged composition, or the
    full fold."""
    epochs = lake.committed_epochs()
    snaps = {e: canonical_state_table(lake, as_of=e) for e in epochs}
    snaps[-1] = None
    n = 0
    for t in epochs:
        for f in [-1, *epochs]:
            if f >= t:
                continue
            feed = changefeed_range(lake, f, t)
            a = snaps[f] if snaps[f] is not None and snaps[f].num_rows else None
            assert feed_dict(feed) == dict_diff(a, snaps[t]), (lake.root, f, t)
            sets0 = lake.current_file_sets(as_of=f) if f >= 0 else {}
            sets1 = lake.current_file_sets(as_of=t)
            for pid, p1 in sets1.items():
                p0 = sets0.get(pid, [])
                if not p0 or p1[:len(p0)] != p0:
                    kinds["full"] += 1
                else:
                    kinds["delta" if len(p1) > len(p0) else "same"] += 1
                want = diff_snapshots(read_canonical(p0), read_canonical(p1))
                assert cdc._part_feed(p0, p1).equals(want), (f, t, pid)
            n += 1
    return n


@pytest.mark.parametrize("seed,compact_every", [(1, 3), (2, 4), (3, 3)])
def test_range_feeds_equal_snapshot_dict_diff_over_lifecycles(
        ray_session, tmp_path, seed, compact_every):
    wal = str(tmp_path / "wal")
    paths = write_wal(wal, n_epochs=4, epoch_size=240, seed=seed, n_convs=24,
                      max_turns=5, dup_rate=0.05, evolve_from_epoch=2)
    epochs = [[p] for p in paths]
    cfg = EngineConfig(num_partitions=3, merge_mode="mor",
                       compact_every=compact_every)
    a = Lake(str(tmp_path / "a"), num_partitions=3)
    for e in range(3):
        apply_epoch(a, e, epochs[e], cfg)
    gc_tombstones(a, before_lsn=480)
    apply_epoch(a, 3, epochs[3], cfg)
    head = canonical_state_table(a)
    epochs += _churn_epochs(head, wal, 4, 10_000, paths[3])
    apply_epoch(a, 4, epochs[4], cfg)
    cutoff = int(pc.approximate_median(
        canonical_state_table(a).column("ts").cast(pa.int64())).as_py())
    assert expire_turns(a, cutoff)["expired"] > 0
    apply_epoch(a, 5, epochs[5], cfg)

    # a resharded lake (cut over at epoch 5) and a lake bootstrapped from
    # the epoch-3 snapshot; both then take epoch 6 and, for the
    # bootstrapped one, epochs 4-5 first
    tail = _write_epoch(wal, 6, [
        _event(20_000 + i, "U", {**r, "text": f"tail{i}"})
        for i, r in enumerate(canonical_state_table(a).to_pylist()[::7])
    ])
    reshard_lake(a, str(tmp_path / "b"), 2)
    b = Lake(str(tmp_path / "b"))
    apply_epoch(b, 6, tail, EngineConfig(num_partitions=2, merge_mode="mor",
                                         compact_every=compact_every))
    apply_epoch(a, 6, tail, cfg)
    src = str(tmp_path / "corpus.parquet")
    pq.write_table(canonical_state_table(a, as_of=3).drop_columns(["meta"]), src)
    bootstrap_lake(src, str(tmp_path / "c"), 4, epoch=3)
    c = Lake(str(tmp_path / "c"))
    cfg_c = EngineConfig(num_partitions=4, merge_mode="mor",
                         compact_every=compact_every)
    for e in (4, 5, 6):
        apply_epoch(c, e, epochs[e] if e < 6 else tail, cfg_c)

    kinds = {"delta": 0, "same": 0, "full": 0}
    assert _assert_all_range_feeds(Lake(a.root), kinds) == 28
    assert _assert_all_range_feeds(Lake(b.root), kinds) == 3
    assert _assert_all_range_feeds(Lake(c.root), kinds) == 10
    assert kinds["delta"] and kinds["full"], kinds


def test_late_event_below_previous_high_water_still_feeds(
        ray_session, tmp_path):
    """Epoch 2 carries an event for key k whose lsn is below epoch 1's
    max lsn but above k's current ``_lsn``: it wins LWW, so epoch 2's
    feed has k's U row. A feed that kept only rows with ``_lsn`` above
    the ``from`` epoch's high-water mark would drop it."""
    wal = str(tmp_path / "wal")
    k = {"conv_id": "conv-k", "turn_idx": 0, "role": "user", "text": "v1"}
    other = [{"conv_id": f"conv-{i}", "turn_idx": 0, "role": "user",
              "text": f"o{i}"} for i in range(8)]
    e0 = _write_epoch(wal, 0, [_event(5, "I", k)] + [
        _event(10 + i, "I", r) for i, r in enumerate(other)])
    # epoch 1 raises every partition's high-water mark past 50, k's
    # partition included (another turn of k's conversation)
    e1 = _write_epoch(wal, 1, [
        _event(100 + i, "U", {**r, "text": f"p{i}"})
        for i, r in enumerate(other)] + [
        _event(120, "I", {**k, "turn_idx": 1, "text": "t1"})])
    e2 = _write_epoch(wal, 2, [_event(50, "U", {**k, "text": "late"}),
                               _event(200, "U", {**other[0], "text": "q"})])
    cfg = EngineConfig(num_partitions=2, merge_mode="mor", compact_every=4)
    lake = Lake(str(tmp_path / "lake"), num_partitions=2)
    for e, files in enumerate((e0, e1, e2)):
        apply_epoch(lake, e, files, cfg)
    sets1, sets2 = lake.current_file_sets(as_of=1), lake.current_file_sets(as_of=2)
    pid = next(p for p, paths in sets2.items()
               if "conv-k" in pq.read_table(paths[-1]).column("conv_id").to_pylist())
    assert sets2[pid][:-1] == sets1[pid]  # the prefix rule applies
    assert max(pc.max(pq.read_table(f).column("_lsn")).as_py()
               for f in sets1[pid]) > 50

    feed = changefeed(lake, 2)
    want = dict_diff(canonical_state_table(lake, as_of=1),
                     canonical_state_table(lake, as_of=2))
    assert feed_dict(feed) == want
    assert want[("conv-k", 0)][0] == "U"
    assert want[("conv-k", 0)][1]["text"] == "late"
