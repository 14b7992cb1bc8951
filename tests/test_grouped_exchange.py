"""The grouped epoch exchange: each map task returns G = min(P, cluster
CPUs) objects plus its skip count, and one merge task runs per group.
The group count changes only how many Ray objects and tasks an epoch
uses — never the ledger, the state or a byte of the lake — and every
state file any writer commits is in key order with unique keys (the
invariant that lets reads skip a second sort)."""

import hashlib
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from image_report_ray.config import EngineConfig
from image_report_ray.pipelines import cdc
from image_report_ray.sources.synth import full_changelog, write_wal
from image_report_ray.state.manifest import Lake, read_canonical, read_composition
from image_report_ray.state.merge import export_canonical
from image_report_ray.state.oracle import apply_naive

GEN = dict(seed=5, n_convs=40, max_turns=8, dup_rate=0.05)
LEDGER = ("received", "applied", "stale_skipped", "dup_skipped")


def _sha_tree(root: str) -> dict[str, str]:
    out = {}
    for dp, _, names in os.walk(root):
        for n in names:
            p = os.path.join(dp, n)
            with open(p, "rb") as f:
                out[os.path.relpath(p, root)] = hashlib.sha256(f.read()).hexdigest()
    return out


def test_results_do_not_depend_on_group_count(ray_session, tmp_path, monkeypatch):
    """One epoch of 8 partitions, then a compacting epoch with a view,
    through apply_epoch at G = 1, 2, 4 and 8: equal ledgers, canonical
    state and data/ + views/ bytes; dup_skipped is exactly the WAL's
    repeated (conv_id, turn_idx, lsn) rows."""
    wal_dir = str(tmp_path / "wal")
    write_wal(wal_dir, n_epochs=2, epoch_size=4000, n_parts=4, **GEN)
    epochs = cdc.discover_epochs(wal_dir)
    first = pa.concat_tables([pq.read_table(f) for f in epochs[0]])
    repeats = first.num_rows - first.group_by(
        ["conv_id", "turn_idx", "lsn"]).aggregate([]).num_rows
    assert repeats > 0
    cfg = EngineConfig(num_partitions=8, merge_mode="mor", compact_every=2,
                       map_task_rows=1000, views=("conv_summary",))
    expect = apply_naive(full_changelog(2, 4000, **GEN))
    results = {}
    for G in (1, 2, 4, 8):
        monkeypatch.setattr(cdc, "_group_count", lambda P, G=G: G)
        lake = Lake(str(tmp_path / f"lake{G}"), num_partitions=8)
        ledgers = []
        for e, files in epochs.items():
            refs = cdc.submit_map_stage(lake, files, cfg)
            assert {len(m) for m in refs} == {G + 1}
            stats = cdc.apply_epoch(lake, e, files, cfg, map_refs=refs)
            ledgers.append(tuple(sum(getattr(s, f) for s in stats.values())
                                 for f in LEDGER))
        assert cdc.canonical_state_table(lake).equals(expect), G
        results[G] = (ledgers, {
            sub: _sha_tree(os.path.join(lake.root, sub))
            for sub in ("data", "views")
        })
    assert results[1][1]["views"], "the compacting epoch wrote no view"
    assert all(r == results[1] for r in results.values())
    received, _, _, dups = results[1][0][0]
    assert received == first.num_rows
    assert dups == repeats


def test_map_stage_returns_one_object_per_cpu_slot(ray_session, tmp_path):
    """A P=16 lake in the 4-CPU session: G = 4, so every map task returns
    4 group objects plus its skip count."""
    import ray

    files = write_wal(str(tmp_path / "wal"), n_epochs=1, epoch_size=2000,
                      n_parts=3, **GEN)
    lake = Lake(str(tmp_path / "lake"), num_partitions=16)
    cfg = EngineConfig(num_partitions=16, map_task_rows=500)
    refs = cdc.submit_map_stage(lake, files, cfg)
    assert len(refs) == 3 and all(len(m) == 5 for m in refs)
    assert sum(ray.get([m[-1] for m in refs])) == 0
    groups = ray.get(refs[0][:-1])
    assert [len(g) for g in groups] == [4, 4, 4, 4]
    stats = cdc.apply_epoch(lake, 0, files, cfg, map_refs=refs)
    assert sorted(stats) == list(range(16))


def test_small_lakes_and_dataset_replay_to_oracle(ray_session, tmp_path):
    """G = P = 1 (num_returns=2) and G = P = 2 lakes replay through
    run_job to the oracle state, and so does a two-block Dataset."""
    import ray

    wal_dir = str(tmp_path / "wal")
    write_wal(wal_dir, n_epochs=3, epoch_size=600, n_parts=2, **GEN)
    expect = apply_naive(full_changelog(3, 600, **GEN))
    for P in (1, 2):
        lake = Lake(str(tmp_path / f"lake{P}"), num_partitions=P)
        refs = cdc.submit_map_stage(
            lake, cdc.discover_epochs(wal_dir)[0], EngineConfig(num_partitions=P))
        assert {len(m) for m in refs} == {P + 1}
        ray.get([r for m in refs for r in m])
        summary = cdc.run_job(lake.root, wal_dir, EngineConfig(num_partitions=P))
        assert summary["epochs_applied"] == 3 and summary["files_skipped"] == 0
        assert cdc.canonical_state_table(lake).equals(expect), P
    lake = Lake(str(tmp_path / "lake_ds"), num_partitions=8)
    for e, files in cdc.discover_epochs(wal_dir).items():
        ds = ray.data.read_parquet(files, partitioning=None).repartition(
            2).materialize()
        assert ds.num_blocks() == 2
        cdc.apply_epoch(lake, e, ds, EngineConfig(num_partitions=8))
    assert cdc.canonical_state_table(lake).equals(expect)


def _assert_key_order(path: str) -> None:
    t = pq.read_table(path, columns=["conv_id", "turn_idx"])
    keys = list(zip(t.column("conv_id").to_pylist(),
                    t.column("turn_idx").to_pylist()))
    assert all(a < b for a, b in zip(keys, keys[1:])), path


def test_every_state_file_is_in_key_order_with_unique_keys(ray_session, tmp_path):
    """Delta merges, compactions, GC, expiry, reshard and bootstrap all
    write state files sorted by (conv_id, turn_idx) with unique keys, so
    a fold or a one-file read is canonical without another sort."""
    from image_report_ray.pipelines.cdc import (
        bootstrap_lake, expire_turns, gc_tombstones, reshard_lake)

    wal_dir = str(tmp_path / "wal")
    write_wal(wal_dir, n_epochs=5, epoch_size=1500, n_parts=2, **GEN)
    cfg = EngineConfig(num_partitions=4, merge_mode="mor", compact_every=3,
                       map_task_rows=800)
    cdc.run_job(str(tmp_path / "a"), wal_dir, cfg)
    a = Lake(str(tmp_path / "a"))
    assert any(len(p) > 1 for p in a.current_file_sets(as_of=1).values())
    gc_tombstones(a, before_lsn=4000)
    state = cdc.canonical_state_table(a)
    cutoff = int(pc.approximate_median(state.column("ts").cast(pa.int64())).as_py())
    assert expire_turns(a, cutoff)["expired"] > 0
    reshard_lake(a, str(tmp_path / "b"), 3)
    src = str(tmp_path / "corpus.parquet")
    pq.write_table(cdc.canonical_state_table(Lake(str(tmp_path / "b"))), src)
    bootstrap_lake(src, str(tmp_path / "c"), 2)
    kinds = set()
    for name in "abc":
        data = tmp_path / name / "data"
        for path in sorted(data.glob("*/*.parquet")):
            kinds.add(path.parent.name.split("=")[0])
            _assert_key_order(str(path))
    assert kinds == {"epoch", "gc"}
    for name in "abc":  # and the unsorted read equals a sorted export
        lake = Lake(str(tmp_path / name))
        for paths in lake.current_file_sets().values():
            assert read_canonical(paths).equals(
                export_canonical(read_composition(paths)))
