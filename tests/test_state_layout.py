"""The state files' Parquet layout (``STATE_PARQUET_OPTS``).

Every file a lake writer stages — delta merges, compactions, views, GC
and expiry rewrites, reshard and bootstrap — carries one layout fitted
to the transcript schema: a dictionary only on ``role`` and ``tool``,
``DELTA_BINARY_PACKED`` for ``turn_idx``, ``ts`` and ``_lsn``, and
statistics only on ``_lsn``. Lakes written in the plain ``PARQUET_OPTS``
layout keep working: their files read and fold together with new ones,
and every commit digest is the same as in a lake written all in the old
layout."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from image_report_ray.cli import main
from image_report_ray.config import EngineConfig
from image_report_ray.pipelines import cdc
from image_report_ray.sources.synth import full_changelog, write_wal
from image_report_ray.state import manifest
from image_report_ray.state.manifest import PARQUET_OPTS, Lake
from image_report_ray.state.oracle import apply_naive

GEN = dict(seed=11, n_convs=40, max_turns=8, dup_rate=0.03, evolve_from_epoch=2)
DICT_COLS = {"role", "tool"}
DELTA_COLS = {"turn_idx", "ts", "_lsn"}
STATS_COLS = {"_lsn"}


def _columns(path: str):
    """(name, column chunk metadata) of every chunk in the file."""
    md = pq.ParquetFile(path).metadata
    for rg in range(md.num_row_groups):
        for i in range(md.num_columns):
            c = md.row_group(rg).column(i)
            yield c.path_in_schema, c


def _assert_state_layout(path: str) -> set[str]:
    names = set()
    for name, c in _columns(path):
        names.add(name)
        assert c.has_dictionary_page == (name in DICT_COLS), (path, name)
        assert ("DELTA_BINARY_PACKED" in c.encodings) == (name in DELTA_COLS), (
            path, name, c.encodings)
        assert c.is_stats_set == (name in STATS_COLS), (path, name)
        assert c.compression == "ZSTD", (path, name)
    return names


def test_every_file_a_mor_lifecycle_writes_has_the_state_layout(
    ray_session, tmp_path
):
    """Deltas, compactions, both views, a GC rewrite, an expiry rewrite,
    a reshard and a bootstrap: every staged file has the layout, and a
    column added by schema evolution (``meta``) is plain."""
    wal_dir = str(tmp_path / "wal")
    write_wal(wal_dir, n_epochs=5, epoch_size=1200, n_parts=2, **GEN)
    cfg = EngineConfig(num_partitions=4, merge_mode="mor", compact_every=3,
                       map_task_rows=800)
    cdc.run_job(str(tmp_path / "a"), wal_dir, cfg,
                views=("conv_summary", "role_counts"))
    a = Lake(str(tmp_path / "a"))
    assert any(len(p) > 1 for p in a.current_file_sets(as_of=1).values())
    assert cdc.gc_tombstones(a, before_lsn=3000)["gc_seq"] is not None
    state = cdc.canonical_state_table(a)
    cutoff = int(pc.approximate_median(state.column("ts").cast(pa.int64())).as_py())
    assert cdc.expire_turns(a, cutoff)["expired"] > 0
    cdc.reshard_lake(a, str(tmp_path / "b"), 3)
    src = str(tmp_path / "corpus.parquet")
    pq.write_table(cdc.canonical_state_table(Lake(str(tmp_path / "b"))), src)
    cdc.bootstrap_lake(src, str(tmp_path / "c"), 2)

    kinds, names = set(), set()
    for lake in "abc":
        for sub in ("data", "views"):
            for path in sorted((tmp_path / lake / sub).rglob("*.parquet")):
                kinds.add((lake, sub, path.parent.name.split("=")[0]))
                names |= _assert_state_layout(str(path))
    assert {("a", "data", "epoch"), ("a", "data", "gc"), ("a", "views", "epoch"),
            ("b", "data", "epoch"), ("c", "data", "epoch")} <= kinds
    assert len(a.gc_seqs()) == 2  # the GC and the expiry rewrite
    assert {"conv_id", "text", "meta", "n_turns", "last_ts"} <= names
    assert DICT_COLS | DELTA_COLS <= names


def _to_old_layout(lake: Lake, epoch: int, monkeypatch) -> None:
    """Re-stage the files epoch ``epoch``'s commit lists through the lake
    writer with its options patched back to the plain ``PARQUET_OPTS``:
    the files an engine with that layout would have written."""
    rec = lake.read_commit(epoch)
    rels = set()
    for e in rec["partitions"].values():
        rels.add(e["file"])
        rels.update((e.get("views") or {}).values())
    with monkeypatch.context() as m:
        m.setattr(manifest, "STATE_PARQUET_OPTS", PARQUET_OPTS)
        for rel in sorted(rels):
            path = os.path.join(lake.root, rel)
            Lake.write_state_file(pq.ParquetFile(path).read(), path)


def _commit_counters(lake: Lake) -> list:
    out = []
    for e in lake.committed_epochs():
        parts = lake.read_commit(e)["partitions"]
        out.append({pid: (p["digest"], p["rows_live"], p["keys_total"])
                    for pid, p in parts.items()})
    return out


def _feed_rows(t: pa.Table) -> dict:
    return {(r.pop("conv_id"), r.pop("turn_idx")): r for r in t.to_pylist()}


def test_old_layout_lakes_keep_working(ray_session, tmp_path, monkeypatch):
    """Epochs 0-1 in the old layout, 2-5 in the new one (compact_every=4,
    so epoch 3's compaction folds an old base and delta with a new delta):
    snapshot, as-of and change-feed reads across the boundary equal the
    oracle, ``cli validate`` passes, and every commit's digest and row
    counts equal those of a lake written all in the old layout."""
    n_epochs, size = 6, 900
    wal_dir = str(tmp_path / "wal")
    write_wal(wal_dir, n_epochs=n_epochs, epoch_size=size, **GEN)
    epochs = cdc.discover_epochs(wal_dir)
    cfg = EngineConfig(num_partitions=4, merge_mode="mor", compact_every=4)
    old = Lake(str(tmp_path / "old"), num_partitions=4, views=("conv_summary",))
    mixed = Lake(str(tmp_path / "mixed"), num_partitions=4,
                 views=("conv_summary",))
    for e, files in epochs.items():
        for lake in (old, mixed):
            cdc.apply_epoch(lake, e, files, cfg)
        _to_old_layout(old, e, monkeypatch)
        if e < 2:
            _to_old_layout(mixed, e, monkeypatch)

    comps = mixed.current_file_sets(as_of=2).values()
    assert all(len(c) == 3 for c in comps)
    for c in comps:  # base and first delta old, the last delta new
        layouts = [dict(_columns(p))["text"].has_dictionary_page for p in c]
        assert layouts == [True, True, False], c
    assert all(len(c) == 1 for c in mixed.current_file_sets(as_of=3).values())

    snaps = {-1: None}
    for e in range(n_epochs):
        snaps[e] = apply_naive(full_changelog(e + 1, size, **GEN))
        assert cdc.canonical_state_table(mixed, as_of=e).equals(snaps[e]), e
    assert cdc.canonical_state_table(mixed).equals(snaps[n_epochs - 1])
    for f in range(-1, n_epochs - 1):
        for t in range(f + 1, n_epochs):
            feed = _feed_rows(cdc.changefeed_range(mixed, f, t))
            want = _feed_rows(cdc.diff_snapshots(snaps[f], snaps[t]))
            assert feed == want, (f, t)
    assert main(["validate", mixed.root]) == 0
    assert main(["validate", old.root]) == 0
    assert _commit_counters(mixed) == _commit_counters(old)
