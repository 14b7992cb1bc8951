"""Rewrites publish what a merge publishes: GC/expiry rewrites and
migrations stage every partition through the one partition writer and
commit through the one publish, so after each of them every partition
resolves each view (equal to its recompute from the committed state),
every GC/expiry partition has a lineage report recording the rows it
dropped, and ``cli validate`` audits both."""

from __future__ import annotations

import json
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from image_report_ray.cli import main
from image_report_ray.config import EngineConfig
from image_report_ray.pipelines import cdc
from image_report_ray.sources.synth import write_wal
from image_report_ray.state.manifest import Lake
from image_report_ray.xmlreport import read_report

VIEWS = ("conv_summary", "role_counts")
GEN = dict(seed=31, n_convs=40, max_turns=8, dup_rate=0.02,
           op_mix=(0.4, 0.3, 0.3))


def _rows_dropped(lake: Lake, seq: int) -> int:
    """Sum of the rows dropped in GC ``seq``'s lineage reports, one per
    partition of its commit record."""
    with open(lake.gc_path(seq)) as f:
        pids = json.load(f)["partitions"]
    total = 0
    for pid in pids:
        root = read_report(lake.lineage_path(seq, int(pid), kind="gc"))
        assert root.find("state").get("digest") == pids[pid]["digest"]
        total += int(root.find("params").get("rows_dropped"))
    return total


def test_views_and_lineage_survive_every_rewrite(ray_session, tmp_path,
                                                 views_match_state):
    """A P=4 merge-on-read lake with two views through expiry, tombstone
    GC, a reshard to P=3 and to P=1, and a vacuum to the head."""

    def _check(*roots: str) -> None:
        """Every partition of each lake resolves each view, equal to a
        full recompute from its committed state, and the lake validates."""
        for root in roots:
            views_match_state(root, VIEWS)
            assert main(["validate", root]) == 0, root

    wal = str(tmp_path / "wal")
    write_wal(wal, n_epochs=4, epoch_size=800, n_parts=1, **GEN)
    src = str(tmp_path / "lake")
    cdc.run_job(src, wal, EngineConfig(num_partitions=4, merge_mode="mor",
                                       compact_every=3), views=VIEWS)
    lake = Lake(src)
    # the head is a delta epoch: its views lag at the compaction point
    assert any(len(p) > 1 for p in lake.current_file_sets().values())

    ts = cdc.canonical_state_table(lake).column("ts").cast(pa.int64())
    res = cdc.expire_turns(lake, int(pc.approximate_median(ts).as_py()))
    assert res["expired"] > 0
    assert _rows_dropped(lake, res["gc_seq"]) == res["expired"]
    _check(src)

    res = cdc.gc_tombstones(lake, before_lsn=10**9)
    assert res["tombstones_dropped"] > 0
    assert _rows_dropped(lake, res["gc_seq"]) == res["tombstones_dropped"]
    _check(src)

    resharded = [str(tmp_path / f"re{P}") for P in (3, 1)]
    for P, dst in zip((3, 1), resharded):
        cdc.reshard_lake(lake, dst, P)
        assert cdc.canonical_state_table(Lake(dst)).equals(
            cdc.canonical_state_table(lake))
        _check(dst)

    for root in (src, *resharded):
        cdc.vacuum_lake(Lake(root), keep_epochs=0)
    _check(src, *resharded)
    for seq in (0, 1):  # vacuum keeps the audit trail
        assert os.path.isdir(os.path.join(src, "_lineage", f"gc={seq:05d}"))


def test_validate_audits_gc_views_and_lineage(ray_session, tmp_path, capsys):
    """A tampered GC-staged view and a deleted GC lineage report each
    fail ``cli validate``."""
    wal = str(tmp_path / "wal")
    paths = write_wal(wal, n_epochs=1, epoch_size=400, n_parts=1, **GEN)
    lake = Lake(str(tmp_path / "lake"), num_partitions=4,
                views=("conv_summary",))
    cdc.apply_epoch(lake, 0, paths, EngineConfig(num_partitions=4))
    assert cdc.gc_tombstones(lake, before_lsn=10**9)["gc_seq"] == 0
    assert main(["validate", lake.root]) == 0

    def problems() -> list[str]:
        capsys.readouterr()
        assert main(["validate", lake.root]) == 1
        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])["problems"]

    path = lake.current_view_files("conv_summary")[0]
    assert os.path.basename(os.path.dirname(path)) == "gc=00000"
    shutil.copyfile(path, str(tmp_path / "view.bak"))
    t = pq.read_table(path)
    n = t.column("n_turns")
    pq.write_table(t.set_column(t.column_names.index("n_turns"), "n_turns",
                                pc.add(n, pa.scalar(1, n.type))), path)
    assert any("view 'conv_summary' != recompute" in p for p in problems())
    shutil.copyfile(str(tmp_path / "view.bak"), path)
    assert main(["validate", lake.root]) == 0

    os.remove(lake.lineage_path(0, 0, kind="gc"))
    assert any("missing lineage report" in p for p in problems())


def test_rewrites_of_an_emptied_partition(ray_session, tmp_path):
    """A GC that drops a partition's last row leaves a zero-row state
    file; the next GC and expiry rewrite it again (an empty view, a
    report with no rows dropped) and the lake still validates."""
    import ray.data as rd

    lake = Lake(str(tmp_path / "lake"), num_partitions=1,
                views=("conv_summary",))
    ch = pa.table({
        "lsn": pa.array([0, 1], pa.int64()), "op": ["I", "D"],
        "conv_id": ["a", "a"], "turn_idx": pa.array([0, 0], pa.int32()),
        "role": ["user", "user"], "text": ["x", None],
        "tool": pa.array([None, None], pa.string()),
        "ts": pa.array([1, 2], pa.timestamp("us")),
    })
    cdc.apply_epoch(lake, 0, rd.from_arrow(ch), EngineConfig(num_partitions=1))
    assert cdc.gc_tombstones(lake, before_lsn=10)["tombstones_dropped"] == 1
    assert cdc.gc_tombstones(lake, before_lsn=10)["gc_seq"] == 1
    assert _rows_dropped(lake, 1) == 0
    cdc.expire_turns(lake, 10**15)
    view = pq.read_table(lake.current_view_files("conv_summary")[0])
    assert "gc=00001" in lake.current_view_files("conv_summary")[0]
    assert view.num_rows == 0
    assert main(["validate", lake.root]) == 0


def test_validate_lists_pre_lineage_gc_entries_as_unverified(
        ray_session, tmp_path, capsys):
    """GC entries written before GC rewrites wrote lineage reports have
    no ``views`` key and no reports: ``cli validate`` lists their
    partitions under ``unverified`` and still exits 0."""
    wal = str(tmp_path / "wal")
    paths = write_wal(wal, n_epochs=1, epoch_size=400, n_parts=1, **GEN)
    lake = Lake(str(tmp_path / "lake"), num_partitions=4)
    cdc.apply_epoch(lake, 0, paths, EngineConfig(num_partitions=4))
    seq = cdc.gc_tombstones(lake, before_lsn=10**9)["gc_seq"]
    with open(lake.gc_path(seq)) as f:
        rec = json.load(f)
    assert rec["partitions"]
    for pid, entry in rec["partitions"].items():
        del entry["views"]
        os.remove(lake.lineage_path(seq, int(pid), kind="gc"))
    with open(lake.gc_path(seq), "w") as f:
        json.dump(rec, f)

    capsys.readouterr()
    assert main(["validate", lake.root]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["problems"] == []
    listed = sorted(int(u.split(":")[0].split()[1]) for u in out["unverified"])
    assert listed == sorted(int(p) for p in rec["partitions"])
    assert all(f"gc={seq:05d}" in u for u in out["unverified"])
