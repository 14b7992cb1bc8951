"""Materialized-view maintenance tests: views are computed by the merge
over the post-merge state and published atomically with the commit —
exact every epoch under COW, exact at compaction points under MOR
(manifest carries the last view forward between compactions), intact
under idempotent redelivery, restaged by GC rewrites."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from image_report_ray.config import EngineConfig
from image_report_ray.pipelines.cdc import apply_epoch, canonical_state_table
from image_report_ray.sources.synth import write_wal
from image_report_ray.state.manifest import Lake
from image_report_ray.state.views import VIEW_REGISTRY

GEN = dict(seed=23, n_convs=40, max_turns=8, dup_rate=0.05)


def _read_view(lake: Lake, name: str = "conv_summary") -> pa.Table:
    files = lake.current_view_files(name)
    tabs = [pq.read_table(p) for _, p in sorted(files.items())]
    tabs = [t for t in tabs if t.num_rows]
    t = pa.concat_tables(tabs, promote_options="default")
    return t.take(pc.sort_indices(t, sort_keys=[("conv_id", "ascending")]))


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


def test_gc_keeps_views_equal_to_recompute(ray_session, tmp_path):
    """A GC rewrite restages every view with the state it writes: each
    partition still resolves its view, equal to a recompute from its
    committed state, and the next epoch maintains it from there."""
    from image_report_ray.pipelines.cdc import gc_tombstones
    from image_report_ray.state.manifest import read_composition
    from image_report_ray.state.views import maintain_view

    wal = str(tmp_path / "wal")
    paths = write_wal(wal, n_epochs=2, epoch_size=300, n_parts=1, **GEN)
    lake = Lake(str(tmp_path / "lake"), num_partitions=4)
    cfg = EngineConfig(num_partitions=4, views=("conv_summary",))
    apply_epoch(lake, 0, [paths[0]], cfg)
    assert gc_tombstones(lake, before_lsn=10)["gc_seq"] == 0
    views = lake.current_view_files("conv_summary")
    sets = lake.current_file_sets()
    assert sorted(views) == sorted(sets)
    for pid, path in views.items():
        assert "gc=00000" in path
        want = maintain_view("conv_summary", read_composition(sets[pid]))
        assert pq.read_table(path).equals(want), pid
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
    """The incremental maintenance path (prior view + affected convs)
    writes the SAME bytes a full recompute would — for both registered
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
