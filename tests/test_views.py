"""Materialized-view maintenance tests: a lake declares its views when
it is made; every whole-state write computes them over the state it
writes and publishes them atomically with the commit — exact every
epoch under COW, exact at each partition's first file and compaction
under MOR (a delta carries its entry's view), on every partition,
intact under idempotent redelivery, restaged by GC rewrites, kept by a
run that names no views, changed only by a reshard, rejected on a
salted lake, and served by one reader (``read_view``)."""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from image_report_ray.config import EngineConfig
from image_report_ray.pipelines.cdc import (
    apply_epoch, canonical_state_table, run_job)
from image_report_ray.sources.synth import write_wal
from image_report_ray.state.manifest import Lake
from image_report_ray.state.views import VIEW_REGISTRY, read_view, sort_view

GEN = dict(seed=23, n_convs=40, max_turns=8, dup_rate=0.05)


def _read_view(lake: Lake, name: str = "conv_summary") -> pa.Table:
    return sort_view(name, read_view(lake, name))


def _expected_from_state(lake: Lake) -> pa.Table:
    state = canonical_state_table(lake)
    g = state.group_by(["conv_id"]).aggregate([([], "count_all"), ("ts", "max")])
    t = pa.table(
        {
            "conv_id": g.column("conv_id"),
            "n_turns": g.column("count_all").cast(pa.int64()),
            "last_ts": g.column("ts_max").cast(pa.timestamp("us")),
        }
    )
    return t.take(pc.sort_indices(t, sort_keys=[("conv_id", "ascending")]))


def test_cow_view_exact_after_every_epoch(ray_session, tmp_path):
    wal = str(tmp_path / "wal")
    paths = write_wal(wal, n_epochs=3, epoch_size=400, n_parts=1, **GEN)
    lake = Lake(str(tmp_path / "lake"), num_partitions=4,
                views=("conv_summary",))
    cfg = EngineConfig(num_partitions=4)
    for epoch, p in enumerate(paths):
        apply_epoch(lake, epoch, [p], cfg)
        assert _read_view(lake).equals(_expected_from_state(lake)), epoch


def test_mor_view_lags_to_compaction_then_exact(ray_session, tmp_path):
    wal = str(tmp_path / "wal")
    paths = write_wal(wal, n_epochs=4, epoch_size=400, n_parts=1, **GEN)
    lake = Lake(str(tmp_path / "lake"), num_partitions=4,
                views=("conv_summary",))
    cfg = EngineConfig(num_partitions=4, merge_mode="mor", compact_every=3)
    # chain cadence: epoch 0 writes each partition's first file (its
    # whole state: view exact), epoch 1 a delta (view carried), epoch 2
    # compacts (view exact), epoch 3 is a delta again (view carried)
    apply_epoch(lake, 0, [paths[0]], cfg)
    first = _read_view(lake)
    assert first.equals(_expected_from_state(lake))
    apply_epoch(lake, 1, [paths[1]], cfg)
    assert _read_view(lake).equals(first)
    assert not first.equals(_expected_from_state(lake))
    apply_epoch(lake, 2, [paths[2]], cfg)
    at_compaction = _read_view(lake)
    assert at_compaction.equals(_expected_from_state(lake))
    apply_epoch(lake, 3, [paths[3]], cfg)
    # delta epoch: manifest carries the compaction-point view forward
    assert _read_view(lake).equals(at_compaction)
    assert not _read_view(lake).equals(_expected_from_state(lake))


def test_view_idempotent_redelivery(ray_session, tmp_path):
    wal = str(tmp_path / "wal")
    paths = write_wal(wal, n_epochs=2, epoch_size=300, n_parts=1, **GEN)
    lake = Lake(str(tmp_path / "lake"), num_partitions=4,
                views=("conv_summary",))
    cfg = EngineConfig(num_partitions=4)
    for epoch, p in enumerate(paths):
        apply_epoch(lake, epoch, [p], cfg)
    before = _read_view(lake)
    assert apply_epoch(lake, 1, [paths[1]], cfg) is None  # already committed
    assert _read_view(lake).equals(before)


def test_view_registry_is_pure_and_validated(tmp_path):
    # unknown view names fail loudly when the lake is made, before it
    # saves its config
    with pytest.raises(ValueError, match="unknown view"):
        Lake(str(tmp_path / "lake"), num_partitions=2, views=("not_a_view",))
    assert not (tmp_path / "lake" / "_lake.json").exists()
    # the registered kernel is pure: same state -> same table
    from image_report_ray.sources.synth import gen_epoch
    from image_report_ray.state.merge import merge_state_with_changes

    t = gen_epoch(0, 500, seed=5, n_convs=20, max_turns=6)
    state, _ = merge_state_with_changes(None, t)
    v1 = VIEW_REGISTRY["conv_summary"](state)
    v2 = VIEW_REGISTRY["conv_summary"](state)
    assert v1.equals(v2)
    assert v1.column_names == ["conv_id", "n_turns", "last_ts"]


def test_gc_keeps_views_equal_to_recompute(ray_session, tmp_path,
                                          views_match_state):
    """A GC rewrite restages every view with the state it writes: each
    partition still resolves its view, equal to a recompute from its
    committed state, and the next epoch maintains it from there."""
    from image_report_ray.pipelines.cdc import gc_tombstones

    wal = str(tmp_path / "wal")
    paths = write_wal(wal, n_epochs=2, epoch_size=300, n_parts=1, **GEN)
    lake = Lake(str(tmp_path / "lake"), num_partitions=4,
                views=("conv_summary",))
    cfg = EngineConfig(num_partitions=4)
    apply_epoch(lake, 0, [paths[0]], cfg)
    assert gc_tombstones(lake, before_lsn=10)["gc_seq"] == 0
    assert all("gc=00000" in path for path in
               lake.current_view_files("conv_summary").values())
    views_match_state(lake.root, ["conv_summary"])
    assert _read_view(lake).equals(_expected_from_state(lake))
    apply_epoch(lake, 1, [paths[1]], cfg)
    assert _read_view(lake).equals(_expected_from_state(lake))


def test_cli_run_with_views_and_export_view(ray_session, tmp_path, capsys):
    """End-to-end user surface: `run --views ...` maintains the views,
    `export --view NAME` writes exactly the committed view, and an
    unknown view name exits 1."""
    import json
    import os

    from image_report_ray.cli import main
    from image_report_ray.sources.synth import write_wal

    wal = str(tmp_path / "wal")
    lake_dir = str(tmp_path / "lake")
    out = str(tmp_path / "out")
    write_wal(wal, n_epochs=2, epoch_size=300, n_parts=1, **GEN)
    assert main(["run", lake_dir, wal, "--partitions", "4",
                 "--views", "conv_summary,role_counts"]) == 0
    capsys.readouterr()
    assert main(["export", lake_dir, out, "--view", "conv_summary"]) == 0
    rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    exported = pq.read_table(rec["out_dir"])
    lake = Lake(lake_dir)
    expect = _read_view(lake)
    got = exported.take(
        pc.sort_indices(exported, sort_keys=[("conv_id", "ascending")])
    )
    assert got.equals(expect)
    assert expect.equals(_expected_from_state(lake))
    # the second view was maintained too
    assert lake.current_view_files("role_counts")
    # unknown view exits 1
    assert main(["export", lake_dir, out, "--view", "nope"]) == 1


def test_validate_audits_views(ray_session, tmp_path, capsys):
    """`cli validate` recomputes fresh views from committed state; a
    tampered view file is reported, an intact lake is clean."""
    import json
    import os

    from image_report_ray.cli import main
    from image_report_ray.sources.synth import write_wal

    wal = str(tmp_path / "wal")
    lake_dir = str(tmp_path / "lake")
    write_wal(wal, n_epochs=1, epoch_size=300, n_parts=1, **GEN)
    assert main(["run", lake_dir, wal, "--partitions", "4",
                 "--views", "conv_summary"]) == 0
    capsys.readouterr()
    assert main(["validate", lake_dir]) == 0  # intact incl. views

    # tamper with one committed view file
    lake = Lake(lake_dir)
    path = next(iter(lake.current_view_files("conv_summary").values()))
    t = pq.read_table(path)
    bad = t.set_column(
        t.column_names.index("n_turns"), "n_turns",
        pa.array([x + 1 for x in t.column("n_turns").to_pylist()], pa.int64()),
    )
    pq.write_table(bad, path)
    capsys.readouterr()
    assert main(["validate", lake_dir]) == 1
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert any("view 'conv_summary' != recompute" in p for p in out["problems"])


def test_incremental_view_equals_full_recompute_bitwise(ray_session, tmp_path):
    """Every committed view file holds the SAME bytes a full recompute
    over the state as of its own epoch gives — for both registered
    views, across COW epochs and an MOR compaction with folded deltas."""
    from image_report_ray.state.views import VIEW_REGISTRY, sort_view

    wal = str(tmp_path / "wal")
    paths = write_wal(wal, n_epochs=4, epoch_size=400, n_parts=1, **GEN)

    for mode, compact_every in (("cow", 1), ("mor", 3)):
        lake = Lake(str(tmp_path / f"lake_{mode}"), num_partitions=4,
                    views=("conv_summary", "role_counts"))
        cfg = EngineConfig(num_partitions=4, merge_mode=mode,
                           compact_every=compact_every)
        for epoch, p in enumerate(paths):
            apply_epoch(lake, epoch, [p], cfg)
        for vname in ("conv_summary", "role_counts"):
            for pid, vpath in Lake(lake.root).current_view_files(vname).items():
                got = pq.read_table(vpath)
                from image_report_ray.state.merge import fold_state_tables

                # compare against the state AS OF the view's own epoch
                # (MOR views lag to the compaction point by contract)
                import re

                vepoch = int(re.search(r"epoch=(\d+)", vpath).group(1))
                files = Lake(lake.root).current_file_sets(as_of=vepoch)[pid]
                folded = fold_state_tables([pq.read_table(f) for f in files])
                full = sort_view(vname, VIEW_REGISTRY[vname](folded))
                assert got.equals(full), (mode, vname, pid)


def _events(rows: list[tuple]) -> pa.Table:
    """(lsn, op, conv, turn) tuples as a changelog."""
    from image_report_ray.schema import CHANGE_SCHEMA

    return pa.Table.from_pylist(
        [{"lsn": lsn, "op": op, "conv_id": conv, "turn_idx": turn,
          "role": "user", "text": f"t{lsn}", "tool": None, "ts": lsn}
         for lsn, op, conv, turn in rows], schema=CHANGE_SCHEMA)


def _wal_epoch(wal: str, epoch: int, rows: list[tuple]) -> str:
    """Write one epoch of (lsn, op, conv, turn) rows under ``wal``."""
    path = os.path.join(wal, f"epoch={epoch:05d}", "e.parquet")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(_events(rows), path)
    return path


def _view_dict(lake: Lake) -> dict:
    return {r["conv_id"]: r["n_turns"] for r in _read_view(lake).to_pylist()}


def test_view_after_an_epoch_without_views_is_a_full_recompute(
        ray_session, tmp_path, views_match_state):
    """Views are lake config: a P=1 COW lake declares ``conv_summary``
    and a later ``run_job`` that names no views still stages it, so the
    view after that epoch equals a recompute from state (it used to
    carry epoch 0's view, ``a: 1``), and the lake validates."""
    from image_report_ray.cli import main

    wal, lake_dir = str(tmp_path / "wal"), str(tmp_path / "lake")
    cfg = EngineConfig(num_partitions=1)
    _wal_epoch(wal, 0, [(1, "I", "a", 0), (2, "I", "b", 0)])
    run_job(lake_dir, wal, cfg, views=("conv_summary",))
    _wal_epoch(wal, 1, [(3, "I", "a", 1), (4, "I", "a", 2)])
    assert run_job(lake_dir, wal, cfg)["epochs_applied"] == 1
    assert Lake(lake_dir).views == ("conv_summary",)
    views_match_state(lake_dir, ["conv_summary"])
    assert _view_dict(Lake(lake_dir)) == {"a": 3, "b": 1}
    assert main(["validate", lake_dir]) == 0


def test_mor_views_cover_every_partition_after_every_commit(
        ray_session, tmp_path, views_match_state):
    """A P=4 MOR lake (compact_every=3) with uneven traffic: ``c0``
    (pid 3) gets a turn every epoch, ``c1`` (pid 1) two turns in epoch 0
    only. After every commit each partition with state carries the view,
    equal to a recompute from the base file it was staged with (its
    state as of that stage), and ``read_view`` has
    every conversation (``c1`` used to vanish once pid 3 compacted,
    its only file a first delta with no view)."""
    lake = Lake(str(tmp_path / "lake"), num_partitions=4,
                views=("conv_summary",))
    cfg = EngineConfig(num_partitions=4, merge_mode="mor", compact_every=3)
    epochs = [[(1, "I", "c0", 0), (2, "I", "c1", 0), (3, "I", "c1", 1)],
              [(4, "I", "c0", 1)], [(5, "I", "c0", 2)], [(6, "I", "c0", 3)]]
    want = [{"c0": 1, "c1": 2}, {"c0": 1, "c1": 2}, {"c0": 3, "c1": 2},
            {"c0": 3, "c1": 2}]
    for epoch, rows in enumerate(epochs):
        apply_epoch(lake, epoch, [_wal_epoch(str(tmp_path / "wal"), epoch,
                                             rows)], cfg)
        assert sorted(lake.current_file_sets()) == [1, 3]
        views_match_state(lake.root, ["conv_summary"])
        assert _view_dict(lake) == want[epoch], epoch


def test_cli_views_are_declared_at_creation_and_changed_by_reshard(
        ray_session, tmp_path, capsys, views_match_state):
    """``run --views`` on a lake that declares none exits 1 with one
    JSON ``error`` line naming ``reshard``; ``reshard --views`` gives a
    lake whose every partition serves the view, exact for its state,
    which later runs keep without ``--views``, and which no later
    reshard may overwrite; ``reshard --views ''`` declares none."""
    from image_report_ray.cli import main

    wal = str(tmp_path / "wal")
    src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
    mor = ["--partitions", "4", "--merge-mode", "mor", "--compact-every", "3"]
    for epoch, rows in enumerate(
            [[(1, "I", "c0", 0), (2, "I", "c1", 0), (3, "I", "c1", 1)],
             [(4, "I", "c0", 1)]]):
        _wal_epoch(wal, epoch, rows)
    assert main(["run", src, wal, *mor]) == 0
    _wal_epoch(wal, 2, [(5, "I", "c0", 2)])
    capsys.readouterr()
    assert main(["run", src, wal, *mor, "--views", "conv_summary"]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 and "reshard" in json.loads(lines[0])["error"]
    assert Lake(src).committed_epochs() == [0, 1]
    assert main(["run", src, wal, *mor]) == 0
    with pytest.raises(KeyError, match="declares no view"):
        read_view(Lake(src), "conv_summary")

    assert main(["reshard", src, dst, "--partitions", "4",
                 "--views", "conv_summary"]) == 0
    views_match_state(dst, ["conv_summary"])
    assert _view_dict(Lake(dst)) == {"c0": 3, "c1": 2}
    capsys.readouterr()  # a lake with commits is never a reshard target
    assert main(["reshard", src, dst, "--partitions", "4",
                 "--views", "conv_summary"]) == 1
    assert "already has commits" in json.loads(capsys.readouterr().out)["error"]
    _wal_epoch(wal, 3, [(6, "I", "c0", 3), (7, "I", "c1", 2)])
    assert main(["run", dst, wal, *mor]) == 0
    views_match_state(dst, ["conv_summary"])
    capsys.readouterr()
    assert main(["validate", dst]) == 0
    assert main(["reshard", dst, str(tmp_path / "none"), "--partitions", "2",
                 "--views", ""]) == 0
    assert Lake(str(tmp_path / "none")).views == ()
    assert not os.path.exists(tmp_path / "none" / "views")


def test_validate_requires_every_declared_view(ray_session, tmp_path, capsys):
    """`cli validate` passes a lake whose every current entry carries
    every declared view (a MOR delta carries its base's view, which is
    not listed) and fails, exit 1, once an entry of a commit record
    lacks one."""
    from image_report_ray.cli import main

    for mode, every in (("cow", 1), ("mor", 3)):
        lake = Lake(str(tmp_path / mode), num_partitions=1,
                    views=("conv_summary",))
        for epoch, rows in enumerate(
                [[(1, "I", "a", 0), (2, "I", "b", 0)], [(3, "I", "a", 1)]]):
            apply_epoch(lake, epoch, [_wal_epoch(str(tmp_path / f"w{mode}"),
                                                 epoch, rows)],
                        EngineConfig(num_partitions=1, merge_mode=mode,
                                     compact_every=every))
        capsys.readouterr()
        assert main(["validate", lake.root]) == 0, mode
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out == {"partitions_checked": 1, "problems": []}, out

        rec = lake.read_commit(1)
        del rec["partitions"]["0"]["views"]["conv_summary"]
        with open(lake.commit_path(1), "w") as f:
            json.dump(rec, f)
        assert main(["validate", lake.root]) == 1, mode
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["problems"] == [
            "pid 0: declared view 'conv_summary' missing from entry"], out


def test_views_on_a_salted_lake_are_rejected(ray_session, tmp_path, capsys):
    """A salted conversation spans partitions, so per-partition view
    rows would be partials: ``Lake`` refuses to declare views on a
    salted lake before it saves its config, and `cli run --views` with
    ``--salt-key`` fails with one JSON error line and exit code 1."""
    from image_report_ray.cli import main

    (tmp_path / "wal" / "epoch=0").mkdir(parents=True)
    wal = str(tmp_path / "wal" / "epoch=0" / "e0.parquet")
    pq.write_table(_events([(i, "I", "hot", i) for i in range(8)]
                           + [(8, "I", "cold", 0)]), wal)
    with pytest.raises(ValueError, match="unsalted"):
        Lake(str(tmp_path / "lake"), num_partitions=4,
             salt_keys=frozenset({"hot"}), views=("conv_summary",))
    assert not (tmp_path / "lake" / "_lake.json").exists()
    # without views the salted lake ingests as before
    lake = Lake(str(tmp_path / "lake"), num_partitions=4,
                salt_keys=frozenset({"hot"}))
    apply_epoch(lake, 0, [wal], EngineConfig(num_partitions=4))
    assert lake.is_committed(0)
    capsys.readouterr()
    assert main(["run", str(tmp_path / "lake2"), str(tmp_path / "wal"),
                 "--partitions", "4", "--salt-key", "hot",
                 "--views", "conv_summary"]) == 1
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "unsalted" in err["error"], err
    # rejected before the new lake saves its salt keys, so the same
    # run without --salt-key is not held to them
    assert not (tmp_path / "lake2" / "_lake.json").exists()


def test_read_view_serves_export_and_empty_partitions(ray_session, tmp_path,
                                                      capsys):
    """`read_view` concatenates the partitions' view files in pid order
    (what `cli export --view` writes); when every partition's view is
    empty it returns a zero-row table with the view's schema; a view no
    partition carries raises KeyError."""
    import json

    from image_report_ray.cli import main
    from image_report_ray.pipelines.cdc import gc_tombstones
    from image_report_ray.state.views import read_view, sort_view

    wal = str(tmp_path / "wal")
    write_wal(wal, n_epochs=2, epoch_size=300, n_parts=1, **GEN)
    lake_dir = str(tmp_path / "lake")
    assert main(["run", lake_dir, wal, "--partitions", "4",
                 "--views", "conv_summary,role_counts"]) == 0
    lake = Lake(lake_dir)
    for name in ("conv_summary", "role_counts"):
        got = read_view(lake, name)
        files = lake.current_view_files(name)
        want = pa.concat_tables(
            [pq.read_table(files[pid]) for pid in sorted(files)])
        assert got.equals(want), name
        capsys.readouterr()
        assert main(["export", lake_dir, str(tmp_path / "out"),
                     "--view", name]) == 0
        rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert pq.read_table(rec["out_dir"]).equals(got), name
    assert sort_view("conv_summary", read_view(lake, "conv_summary")).equals(
        _expected_from_state(lake))
    with pytest.raises(KeyError):
        read_view(Lake(lake_dir), "no_such_view")

    # delete every live row, then GC: every partition's view is empty
    empty = str(tmp_path / "empty")
    pq.write_table(_events([(1, "I", f"c{i}", 0) for i in range(6)]),
                   str(tmp_path / "i.parquet"))
    pq.write_table(_events([(2, "D", f"c{i}", 0) for i in range(6)]),
                   str(tmp_path / "d.parquet"))
    lake = Lake(empty, num_partitions=3, views=("conv_summary", "role_counts"))
    cfg = EngineConfig(num_partitions=3)
    apply_epoch(lake, 0, [str(tmp_path / "i.parquet")], cfg)
    apply_epoch(lake, 1, [str(tmp_path / "d.parquet")], cfg)
    gc_tombstones(lake, before_lsn=10)
    lake = Lake(empty)
    for name in ("conv_summary", "role_counts"):
        assert len(lake.current_view_files(name)) == 3
        got = read_view(lake, name)
        assert got.num_rows == 0
        assert got.schema.equals(
            pq.read_schema(lake.current_view_files(name)[0]))
        assert got.schema.names == read_view(Lake(lake_dir), name).schema.names
        capsys.readouterr()
        assert main(["export", empty, str(tmp_path / "out2"),
                     "--view", name]) == 0
        rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert rec["rows"] == 0
        assert pq.read_table(rec["out_dir"]).equals(got), name
