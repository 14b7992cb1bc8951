"""Tombstone-GC tests: watermark semantics, manifest fold order (GC
supersedes the epochs it saw; later WAL epochs supersede the GC), audit
and canonical-state invariance."""

from __future__ import annotations

import pyarrow.parquet as pq
import pytest

from image_report_ray.config import EngineConfig
from image_report_ray.pipelines.cdc import (
    apply_epoch,
    canonical_state_table,
    gc_tombstones,
    run_job,
)
from image_report_ray.sources.synth import gen_epoch, write_wal
from image_report_ray.state.manifest import Lake

CFG = dict(seed=21, n_convs=30, max_turns=6, op_mix=(0.4, 0.3, 0.3))


@pytest.fixture()
def lake_with_tombstones(ray_session, tmp_path):
    wal = str(tmp_path / "wal")
    write_wal(wal, n_epochs=3, epoch_size=400, **CFG)
    lake_dir = str(tmp_path / "lake")
    run_job(lake_dir, wal, EngineConfig(num_partitions=4))
    return Lake(lake_dir), wal


def _tombstones(lake: Lake) -> dict[int, list[int]]:
    out = {}
    for pid, path in lake.current_files().items():
        t = pq.read_table(path)
        out[pid] = t.filter(t.column("_deleted")).column("_lsn").to_pylist()
    return out


def test_gc_drops_only_old_tombstones(lake_with_tombstones):
    lake, _ = lake_with_tombstones
    before = _tombstones(lake)
    n_old = sum(sum(1 for l in ls if l < 800) for ls in before.values())
    assert n_old > 0, "fixture must produce tombstones below the watermark"
    canon_before = canonical_state_table(lake)

    res = gc_tombstones(lake, before_lsn=800)
    assert res["tombstones_dropped"] == n_old

    after = _tombstones(lake)
    assert all(l >= 800 for ls in after.values() for l in ls)
    # live rows untouched: the canonical table is identical
    assert canonical_state_table(lake).equals(canon_before)


def test_gc_manifest_fold_and_later_epoch_supersedes(lake_with_tombstones):
    lake, _ = lake_with_tombstones
    gc_tombstones(lake, before_lsn=10_000)  # drop ALL tombstones
    assert all(len(ls) == 0 for ls in _tombstones(lake).values())
    # apply a NEW epoch after the GC: its merges read the GC'd files and
    # its commit supersedes the GC record for the touched partitions
    extra = gen_epoch(3, 400, **CFG)
    import pyarrow.parquet as pqw
    import os
    d = lake.root + "-extra"
    os.makedirs(d, exist_ok=True)
    p = os.path.join(d, "e3.parquet")
    pqw.write_table(extra, p)
    stats = apply_epoch(lake, 3, [p], EngineConfig(num_partitions=4))
    assert stats and sum(s.received for s in stats.values()) == 400
    # oracle equality over the full (GC-invariant) live state
    from image_report_ray.schema import concat_evolving
    from image_report_ray.sources.synth import gen_epoch as ge
    from image_report_ray.state.oracle import apply_naive

    full = concat_evolving([ge(e, 400, **CFG) for e in range(4)])
    assert canonical_state_table(lake).equals(apply_naive(full))


def test_gc_validate_clean_and_resume_noop(lake_with_tombstones, tmp_path):
    lake, wal = lake_with_tombstones
    gc_tombstones(lake, before_lsn=500)
    from image_report_ray.cli import main

    assert main(["validate", lake.root]) == 0
    # resume over the same WAL after GC: everything already committed
    summary = run_job(lake.root, wal, EngineConfig(num_partitions=4))
    assert summary["epochs_applied"] == 0 and summary["epochs_skipped"] == 3


def test_gc_idempotent_sequence(lake_with_tombstones):
    lake, _ = lake_with_tombstones
    r1 = gc_tombstones(lake, before_lsn=800)
    r2 = gc_tombstones(lake, before_lsn=800)
    assert r2["tombstones_dropped"] == 0
    assert r2["gc_seq"] == r1["gc_seq"] + 1


def test_vacuum_removes_only_unretained_files(ray_session, tmp_path):
    """vacuum deletes exactly the data files outside the retention
    horizon: head and retained snapshots still resolve bit-identically,
    older as-of reads stop resolving, validate stays clean, and after an
    expiry GC the expired bytes are really gone from disk."""
    import os

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from image_report_ray.config import EngineConfig
    from image_report_ray.pipelines.cdc import (
        apply_epoch,
        canonical_state_table,
        expire_turns,
        vacuum_lake,
    )
    from image_report_ray.sources.synth import write_wal
    from image_report_ray.state.manifest import Lake

    d = str(tmp_path / "wal")
    paths = write_wal(d, n_epochs=3, epoch_size=400, seed=13, n_convs=40,
                      max_turns=8, dup_rate=0.0)
    lake = Lake(str(tmp_path / "lake"), num_partitions=4)
    cfg = EngineConfig(num_partitions=4)
    for i, p in enumerate(paths):
        apply_epoch(lake, i, rd.read_parquet(p), cfg)

    head = canonical_state_table(lake)
    snap1 = canonical_state_table(lake, as_of=1)
    # expire some rows so superseded files contain rows the current
    # state no longer has
    cutoff = int(
        pc.approximate_median(head.column("ts").cast(pa.int64())).as_py()
    )
    expire_turns(lake, cutoff, cfg)
    after_expire = canonical_state_table(Lake(lake.root))

    res = vacuum_lake(Lake(lake.root), keep_epochs=1)
    assert res["files_deleted"] > 0

    relake = Lake(lake.root)
    assert canonical_state_table(relake).equals(after_expire)
    # the retained as-of=1 snapshot still resolves bit-identically
    assert canonical_state_table(relake, as_of=1).equals(snap1)
    # the epoch-0 snapshot is below the horizon: its files are gone
    gone = [
        p for paths_ in relake.current_file_sets(as_of=0).values()
        for p in paths_
    ]
    assert gone and any(not os.path.exists(p) for p in gone)
    # second vacuum is a no-op
    assert vacuum_lake(Lake(lake.root), keep_epochs=1)["files_deleted"] == 0


def test_expire_plus_vacuum_destroys_bytes(ray_session, tmp_path):
    """The PII lifecycle end-to-end: after expire (state rewrite) +
    vacuum (file retention with keep_epochs=0), an expired turn's text
    no longer appears in ANY byte of the lake directory."""
    import os

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from image_report_ray.config import EngineConfig
    from image_report_ray.pipelines.cdc import (
        apply_epoch,
        canonical_state_table,
        expire_turns,
        vacuum_lake,
    )
    from image_report_ray.state.manifest import Lake

    lake = Lake(str(tmp_path / "lake"), num_partitions=2)
    cfg = EngineConfig(num_partitions=2)
    secret = "PII-SECRET-TOKEN-314159"
    ch = pa.table(
        {"lsn": pa.array([0, 1], pa.int64()),
         "op": pa.array(["I", "I"]),
         "conv_id": pa.array(["c-old", "c-new"]),
         "turn_idx": pa.array([0, 0], pa.int32()),
         "role": pa.array(["user", "user"]),
         "text": pa.array([secret, "fresh data"]),
         "tool": pa.array([None, None], pa.string()),
         "ts": pa.array([1_000, 2_000_000], pa.timestamp("us"))}
    )
    apply_epoch(lake, 0, rd.from_arrow(ch), cfg)

    assert expire_turns(Lake(lake.root), 1_000_000, cfg)["expired"] == 1
    vacuum_lake(Lake(lake.root), keep_epochs=0)

    blob = b""
    for root, _, files in os.walk(lake.root):
        for f in files:
            with open(os.path.join(root, f), "rb") as fh:
                blob += fh.read()
    assert secret.encode() not in blob
    left = canonical_state_table(Lake(lake.root))
    assert left.column("text").to_pylist() == ["fresh data"]


def test_vacuum_deletes_superseded_view_files(ray_session, tmp_path):
    """Views under merge-on-read, then expiry, then vacuum to the head:
    every view file left on disk is one the head references (or an
    in-flight epoch's staging), so no view byte still names a
    conversation the expiry removed, and the head's views still resolve
    and equal their recompute from the state."""
    import glob
    import os
    import shutil

    import pyarrow.compute as pc
    import ray.data as rd

    from image_report_ray.pipelines.cdc import expire_turns, vacuum_lake
    from image_report_ray.state.manifest import read_composition
    from image_report_ray.state.views import VIEW_REGISTRY, sort_view

    wal = str(tmp_path / "wal")
    gen = dict(seed=9, max_turns=6)
    write_wal(wal, n_epochs=3, epoch_size=600, n_convs=60, **gen)
    lake = Lake(str(tmp_path / "lake"), num_partitions=4,
                views=("conv_summary",))
    cfg = EngineConfig(num_partitions=4, merge_mode="mor", compact_every=2)
    for e in range(3):
        apply_epoch(lake, e, sorted(glob.glob(f"{wal}/epoch={e:05d}/*")), cfg)
    # expire every turn before epoch 3, which touches only half of the
    # conversations and compacts, recomputing the views
    last = gen_epoch(3, 600, n_convs=30, **gen)
    assert expire_turns(lake, pc.min(last.column("ts")).value)["expired"] > 0
    apply_epoch(lake, 3, rd.from_arrow(last), cfg)
    view_glob = os.path.join(lake.root, "views", "*", "*", "*.parquet")
    written = sorted(glob.glob(view_glob))
    ever = set()
    for p in written:
        ever.update(pq.read_table(p).column("conv_id").to_pylist())
    staged = os.path.join(lake.root, "views", "conv_summary", "epoch=00004",
                          "pid=00000.parquet")
    os.makedirs(os.path.dirname(staged))
    shutil.copyfile(written[0], staged)

    vacuum_lake(Lake(lake.root), keep_epochs=0)

    head = Lake(lake.root).current_view_files("conv_summary")
    assert head
    assert sorted(glob.glob(view_glob)) == sorted([*head.values(), staged])
    live = set(canonical_state_table(lake).column("conv_id").to_pylist())
    assert ever - live, "no conversation vanished entirely"
    for p in head.values():
        assert set(pq.read_table(p).column("conv_id").to_pylist()) <= live
    for pid, paths in Lake(lake.root).current_file_sets().items():
        want = VIEW_REGISTRY["conv_summary"](read_composition(paths))
        got = pq.read_table(head[pid])
        assert sort_view("conv_summary", got).equals(
            sort_view("conv_summary", want))


def test_lifecycle_on_evolved_lake(ray_session, tmp_path):
    """expire -> tombstone-GC -> vacuum over a lake whose schema evolved
    mid-log (additive ``meta`` column from epoch 1): every maintenance
    rewrite must carry the evolved column with exact values — apply and
    changefeed were evolution-tested since round 3, the GC rewrites were
    not (VERDICT r4 #6)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from image_report_ray.pipelines.cdc import expire_turns, vacuum_lake
    from image_report_ray.sources.synth import full_changelog
    from image_report_ray.state.oracle import apply_naive

    ev = dict(CFG, evolve_from_epoch=1)
    wal = str(tmp_path / "wal")
    write_wal(wal, n_epochs=3, epoch_size=400, **ev)
    lake_dir = str(tmp_path / "lake")
    cfg = EngineConfig(num_partitions=4)
    run_job(lake_dir, wal, cfg)

    golden = apply_naive(full_changelog(3, 400, **ev))
    head = canonical_state_table(Lake(lake_dir))
    assert "meta" in head.column_names
    assert head.equals(golden)

    # TTL expiry: the GC rewrite folds evolved + pre-evolution files
    cutoff = int(
        pc.approximate_median(head.column("ts").cast(pa.int64())).as_py()
    )
    assert expire_turns(Lake(lake_dir), cutoff, cfg)["expired"] > 0
    want = golden.filter(
        pc.greater_equal(golden.column("ts").cast(pa.int64()), cutoff)
    )
    assert canonical_state_table(Lake(lake_dir)).equals(want)

    # tombstone GC on the evolved lake: live state invariant
    gc_tombstones(Lake(lake_dir), before_lsn=10_000)
    assert canonical_state_table(Lake(lake_dir)).equals(want)

    # vacuum to the head: state still bit-identical, lake validates
    vacuum_lake(Lake(lake_dir), keep_epochs=0)
    assert canonical_state_table(Lake(lake_dir)).equals(want)
    from image_report_ray.cli import main

    assert main(["validate", lake_dir]) == 0


def test_bootstrap_evolved_corpus_then_reshard(ray_session, tmp_path):
    """Bootstrapping from a corpus that already carries an extra payload
    column keeps that column as first-class state, and a subsequent
    reshard migrates it intact."""
    import pyarrow.parquet as pq

    from image_report_ray.pipelines.cdc import bootstrap_lake, reshard_lake
    from image_report_ray.sources.synth import full_changelog
    from image_report_ray.state.oracle import apply_naive

    ev = dict(CFG, evolve_from_epoch=0)
    plain = apply_naive(full_changelog(1, 400, **ev))
    assert "meta" in plain.column_names
    src = str(tmp_path / "corpus.parquet")
    pq.write_table(plain, src)

    lake_dir = str(tmp_path / "lake")
    res = bootstrap_lake(src, lake_dir, 4, epoch=0)
    assert res["rows_loaded"] == plain.num_rows
    got = canonical_state_table(Lake(lake_dir))
    assert got.equals(plain)

    dst = str(tmp_path / "lake2")
    reshard_lake(Lake(lake_dir), dst, 2)
    assert canonical_state_table(Lake(dst)).equals(plain)


def test_vacuum_spares_staged_uncommitted_files(ray_session, tmp_path):
    """vacuum must not delete staged files of an in-flight epoch or GC
    rewrite (state files land BEFORE the commit record — two-phase
    write order). A vacuum racing `run --follow` would otherwise delete
    the epoch's data out from under its imminent commit."""
    import os
    import shutil

    import ray.data as rd

    from image_report_ray.config import EngineConfig
    from image_report_ray.pipelines.cdc import apply_epoch, vacuum_lake
    from image_report_ray.sources.synth import write_wal
    from image_report_ray.state.manifest import Lake

    d = str(tmp_path / "wal")
    paths = write_wal(d, n_epochs=2, epoch_size=300, seed=17, n_convs=30,
                      max_turns=8)
    lake = Lake(str(tmp_path / "lake"), num_partitions=2)
    cfg = EngineConfig(num_partitions=2)
    for i, p in enumerate(paths):
        apply_epoch(lake, i, rd.read_parquet(p), cfg)

    donor = os.path.join(lake.root, lake.current_entries()[0]["file"])
    staged_epoch = os.path.join(
        lake.root, "data", "epoch=00002", "pid=00000.parquet"
    )
    staged_gc = os.path.join(lake.root, "data", "gc=00000", "pid=00000.parquet")
    for staged in (staged_epoch, staged_gc):
        os.makedirs(os.path.dirname(staged), exist_ok=True)
        shutil.copyfile(donor, staged)

    res = vacuum_lake(Lake(lake.root), keep_epochs=0)
    # epoch 0's superseded files ARE reclaimed ...
    assert res["files_deleted"] > 0
    # ... but the in-flight staging areas survive for their commit
    assert os.path.exists(staged_epoch)
    assert os.path.exists(staged_gc)
