"""Merge-on-read mode tests: oracle equality across delta/compaction
boundaries, composition bookkeeping, resume, GC-under-MOR, and the
fold kernel itself."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from image_report_ray.config import EngineConfig
from image_report_ray.pipelines.cdc import canonical_state_table, gc_tombstones, run_job
from image_report_ray.sources.synth import full_changelog, write_wal
from image_report_ray.state.manifest import Lake
from image_report_ray.state.merge import (
    export_canonical,
    fold_state_tables,
    merge_state_with_changes,
)
from image_report_ray.state.oracle import apply_naive

GEN = dict(seed=33, n_convs=40, max_turns=8, dup_rate=0.05, op_mix=(0.5, 0.3, 0.2))
N_EPOCHS, EPOCH_SIZE = 6, 300


def _oracle():
    return apply_naive(full_changelog(N_EPOCHS, EPOCH_SIZE, **GEN))


@pytest.fixture()
def wal(tmp_path):
    d = str(tmp_path / "wal")
    write_wal(d, n_epochs=N_EPOCHS, epoch_size=EPOCH_SIZE, **GEN)
    return d


def test_fold_state_tables_lww():
    a, _ = merge_state_with_changes(
        None,
        pa.Table.from_pylist(
            [
                {"lsn": 1, "op": "I", "conv_id": "c", "turn_idx": 0, "role": "user",
                 "text": "old", "tool": None, "ts": None},
                {"lsn": 2, "op": "I", "conv_id": "d", "turn_idx": 0, "role": "user",
                 "text": "keep", "tool": None, "ts": None},
            ]
        ),
    )
    b, _ = merge_state_with_changes(
        None,
        pa.Table.from_pylist(
            [{"lsn": 5, "op": "U", "conv_id": "c", "turn_idx": 0, "role": "user",
              "text": "new", "tool": None, "ts": None}]
        ),
    )
    folded = fold_state_tables([a, b])
    canon = export_canonical(folded)
    assert dict(zip(canon.column("conv_id").to_pylist(), canon.column("text").to_pylist())) == {
        "c": "new", "d": "keep"
    }


def test_mor_oracle_equality_mid_chain(ray_session, tmp_path, wal):
    """compact_every larger than the epoch count: final state is a base?
    No — never compacts, pure delta chain. Must still equal the oracle."""
    cfg = EngineConfig(num_partitions=4, merge_mode="mor", compact_every=100)
    lake_dir = str(tmp_path / "lake")
    run_job(lake_dir, wal, cfg)
    lake = Lake(lake_dir)
    assert canonical_state_table(lake).equals(_oracle())
    # composition grew: some partition holds >1 file, all deltas
    assert any(len(fs) > 1 for fs in lake.current_file_sets().values())


def test_mor_oracle_equality_with_compactions(ray_session, tmp_path, wal):
    cfg = EngineConfig(num_partitions=4, merge_mode="mor", compact_every=3)
    lake_dir = str(tmp_path / "lake")
    run_job(lake_dir, wal, cfg)
    lake = Lake(lake_dir)
    assert canonical_state_table(lake).equals(_oracle())
    # 6 epochs, compact every 3 deltas: no composition exceeds 3 files
    assert all(len(fs) <= 3 for fs in lake.current_file_sets().values())


def test_mor_equals_cow_bit_for_bit(ray_session, tmp_path, wal):
    cow = str(tmp_path / "cow")
    mor = str(tmp_path / "mor")
    run_job(cow, wal, EngineConfig(num_partitions=4, merge_mode="cow"))
    run_job(mor, wal, EngineConfig(num_partitions=4, merge_mode="mor", compact_every=2))
    assert canonical_state_table(Lake(cow)).equals(canonical_state_table(Lake(mor)))


def test_mor_resume_skips_and_preserves(ray_session, tmp_path, wal):
    cfg = EngineConfig(num_partitions=4, merge_mode="mor", compact_every=3)
    lake_dir = str(tmp_path / "lake")
    run_job(lake_dir, wal, cfg)
    before = canonical_state_table(Lake(lake_dir))
    summary = run_job(lake_dir, wal, cfg)
    assert summary["epochs_applied"] == 0 and summary["epochs_skipped"] == N_EPOCHS
    assert canonical_state_table(Lake(lake_dir)).equals(before)


def test_mor_crash_at_compaction_boundary_resumes_clean(ray_session, tmp_path, wal):
    """Crash after a COMPACTION epoch's staged base is written but before
    its commit: the orphan base must stay invisible (the delta chain is
    still the truth) and the resumed run re-runs the compaction."""
    import os

    from image_report_ray.pipelines.cdc import apply_epoch, discover_epochs

    cfg = EngineConfig(num_partitions=4, merge_mode="mor", compact_every=3)
    lake_dir = str(tmp_path / "lake")
    lake = Lake(lake_dir, num_partitions=4)
    epochs = discover_epochs(wal)
    # epochs 0,1 write deltas; epoch 2 is the compaction (chain reaches 3)
    apply_epoch(lake, 0, epochs[0], cfg)
    apply_epoch(lake, 1, epochs[1], cfg)
    apply_epoch(lake, 2, epochs[2], cfg)
    assert all(len(fs) == 1 for fs in lake.current_file_sets().values())
    os.remove(lake.commit_path(2))  # crash before the compaction commit

    crashed = Lake(lake_dir)
    # the delta chain (epochs 0-1) is still the visible truth
    assert any(len(fs) == 2 for fs in crashed.current_file_sets().values())
    golden_01 = apply_naive(full_changelog(2, EPOCH_SIZE, **GEN))
    assert canonical_state_table(crashed).equals(golden_01)

    summary = run_job(lake_dir, wal, cfg)
    assert summary["epochs_applied"] == N_EPOCHS - 2
    assert canonical_state_table(Lake(lake_dir)).equals(_oracle())


def test_mode_switch_mid_lake(ray_session, tmp_path, wal):
    """A lake written by COW epochs can continue under MOR and vice versa
    — the manifest composition is the contract, not the mode."""
    from image_report_ray.pipelines.cdc import apply_epoch, discover_epochs

    lake_dir = str(tmp_path / "lake")
    lake = Lake(lake_dir, num_partitions=4)
    epochs = discover_epochs(wal)
    cow = EngineConfig(num_partitions=4, merge_mode="cow")
    mor = EngineConfig(num_partitions=4, merge_mode="mor", compact_every=100)
    for e, files in epochs.items():
        apply_epoch(lake, e, files, cow if e < 3 else mor)
    assert canonical_state_table(lake).equals(_oracle())


def test_mor_gc_folds_chain_then_drops(ray_session, tmp_path, wal):
    cfg = EngineConfig(num_partitions=4, merge_mode="mor", compact_every=100)
    lake_dir = str(tmp_path / "lake")
    run_job(lake_dir, wal, cfg)
    lake = Lake(lake_dir)
    before = canonical_state_table(lake)
    res = gc_tombstones(lake, before_lsn=10**9)
    assert res["tombstones_dropped"] > 0
    # GC compacted: every composition is now a single base file
    assert all(len(fs) == 1 for fs in lake.current_file_sets().values())
    assert canonical_state_table(lake).equals(before)
    for paths in lake.current_file_sets().values():
        t = pq.read_table(paths[0])
        assert not t.column("_deleted").to_pylist().count(True)
