"""Materialized-view maintenance tests: views are computed by the merge
over the post-merge state and published atomically with the commit —
exact every epoch under COW, exact at compaction points under MOR
(manifest carries the last view forward between compactions), intact
under idempotent redelivery, restaged by GC rewrites, recomputed in
full after an epoch without views, rejected on a salted lake, and
served by one reader (``read_view``)."""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from image_report_ray.config import EngineConfig
from image_report_ray.pipelines.cdc import apply_epoch, canonical_state_table
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
    lake = Lake(str(tmp_path / "lake"), num_partitions=4)
    cfg = EngineConfig(num_partitions=4, views=("conv_summary",))
    for epoch, p in enumerate(paths):
        apply_epoch(lake, epoch, [p], cfg)
        assert _read_view(lake).equals(_expected_from_state(lake)), epoch


def test_mor_view_lags_to_compaction_then_exact(ray_session, tmp_path):
    wal = str(tmp_path / "wal")
    paths = write_wal(wal, n_epochs=4, epoch_size=400, n_parts=1, **GEN)
    lake = Lake(str(tmp_path / "lake"), num_partitions=4)
    cfg = EngineConfig(
        num_partitions=4, views=("conv_summary",),
        merge_mode="mor", compact_every=3,
    )
    # chain cadence: epochs 0,1 write deltas (no view yet), epoch 2
    # compacts (view exact), epoch 3 is a delta again (view carried)
    apply_epoch(lake, 0, [paths[0]], cfg)
    assert not lake.current_view_files("conv_summary")
    apply_epoch(lake, 1, [paths[1]], cfg)
    assert not lake.current_view_files("conv_summary")
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
    lake = Lake(str(tmp_path / "lake"), num_partitions=4)
    cfg = EngineConfig(num_partitions=4, views=("conv_summary",))
    for epoch, p in enumerate(paths):
        apply_epoch(lake, epoch, [p], cfg)
    before = _read_view(lake)
    assert apply_epoch(lake, 1, [paths[1]], cfg) is None  # already committed
    assert _read_view(lake).equals(before)


def test_view_registry_is_pure_and_validated():
    # unknown view names fail loudly at config time
    with pytest.raises(ValueError, match="unknown view"):
        EngineConfig(num_partitions=2, views=("not_a_view",))
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
    lake = Lake(str(tmp_path / "lake"), num_partitions=4)
    cfg = EngineConfig(num_partitions=4, views=("conv_summary",))
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
        lake = Lake(str(tmp_path / f"lake_{mode}"), num_partitions=4)
        cfg = EngineConfig(
            num_partitions=4, views=("conv_summary", "role_counts"),
            merge_mode=mode, compact_every=compact_every,
        )
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


def test_view_after_an_epoch_without_views_is_a_full_recompute(
        ray_session, tmp_path, views_match_state):
    """Views on, off, on: the middle compaction writes no view and the
    manifest carries the first one forward; the third compaction must
    not patch that stale view with only the conversations it touches,
    so its view equals a recompute from state and the lake validates."""
    from image_report_ray.cli import main

    lake = Lake(str(tmp_path / "lake"), num_partitions=1)
    on = EngineConfig(num_partitions=1, views=("conv_summary",))
    off = EngineConfig(num_partitions=1)
    for epoch, cfg, rows in (
            (0, on, [(1, "I", "a", 0), (2, "I", "b", 0)]),
            (1, off, [(3, "I", "a", 1), (4, "I", "a", 2)]),
            (2, on, [(5, "I", "b", 1)])):
        wal = str(tmp_path / f"e{epoch}.parquet")
        pq.write_table(_events(rows), wal)
        apply_epoch(lake, epoch, [wal], cfg)
    views_match_state(lake.root, ["conv_summary"])
    view = {r["conv_id"]: r["n_turns"] for r in _read_view(lake).to_pylist()}
    assert view == {"a": 3, "b": 2}
    assert main(["validate", lake.root]) == 0


def test_validate_lists_a_view_older_than_the_state_base(
        ray_session, tmp_path, capsys):
    """A compaction run without views carries the older view forward:
    `cli validate` lists it under `unverified` and still exits 0. A
    delta epoch carries the view staged with its base file (the MOR
    lag), which is not listed."""
    from image_report_ray.cli import main

    stale = ["pid 0: view 'conv_summary' staged at epoch=00000, before "
             "the state base epoch=00001; not checked"]
    for mode, every, want in (("cow", 1, stale), ("mor", 3, None)):
        lake = Lake(str(tmp_path / mode), num_partitions=1)
        for epoch, views, rows in (
                (0, ("conv_summary",), [(1, "I", "a", 0), (2, "I", "b", 0)]),
                (1, (), [(3, "I", "a", 1)])):
            wal = str(tmp_path / f"{mode}{epoch}.parquet")
            pq.write_table(_events(rows), wal)
            apply_epoch(lake, epoch, [wal], EngineConfig(
                num_partitions=1, views=views, merge_mode=mode,
                compact_every=every))
        capsys.readouterr()
        assert main(["validate", lake.root]) == 0, mode
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["problems"] == [] and out.get("unverified") == want, out


def test_views_on_a_salted_lake_are_rejected(ray_session, tmp_path, capsys):
    """A salted conversation spans partitions, so per-partition view
    rows would be partials: apply_epoch raises before staging anything,
    and `cli run --views` on a salted lake fails with one JSON error
    line and exit code 1."""
    from image_report_ray.cli import main

    (tmp_path / "wal" / "epoch=0").mkdir(parents=True)
    wal = str(tmp_path / "wal" / "epoch=0" / "e0.parquet")
    pq.write_table(_events([(i, "I", "hot", i) for i in range(8)]
                           + [(8, "I", "cold", 0)]), wal)
    lake = Lake(str(tmp_path / "lake"), num_partitions=4,
                salt_keys=frozenset({"hot"}))
    cfg = EngineConfig(num_partitions=4, views=("conv_summary",))
    with pytest.raises(ValueError, match="unsalted"):
        apply_epoch(lake, 0, [wal], cfg)
    assert not lake.committed_epochs()
    assert not os.listdir(tmp_path / "lake" / "data")
    assert not (tmp_path / "lake" / "views").exists()
    # without views the salted lake ingests as before
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
    lake = Lake(empty, num_partitions=3)
    cfg = EngineConfig(num_partitions=3, views=("conv_summary", "role_counts"))
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
