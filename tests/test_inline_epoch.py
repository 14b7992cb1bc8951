"""The inline epoch: a lone delta epoch of at most ``INLINE_EPOCH_ROWS``
Parquet rows, handed no map refs, is mapped and merged in the driver
with the fan-out's own kernels. It must write the same bytes as the
fan-out, submit no Ray task, resume from a crash like any epoch, and
count the WAL files it skips. Everything else keeps the fan-out."""

from __future__ import annotations

import hashlib
import json
import os
import re

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from image_report_ray.config import EngineConfig
from image_report_ray.pipelines import cdc
from image_report_ray.schema import concat_evolving
from image_report_ray.sources.synth import gen_epoch, write_wal
from image_report_ray.state.manifest import Lake
from image_report_ray.state.oracle import apply_naive

GEN = dict(seed=21, n_convs=60, max_turns=8, dup_rate=0.05,
           op_mix=(0.5, 0.3, 0.2), evolve_from_epoch=3)
VIEWS = ("conv_summary", "role_counts")
MOR = EngineConfig(num_partitions=8, merge_mode="mor", compact_every=3)


def _spy_remotes(monkeypatch) -> list:
    """Record every function the engine wraps as a Ray task."""
    calls = []
    real = cdc._remote
    monkeypatch.setattr(cdc, "_remote",
                        lambda fn: calls.append(fn.__name__) or real(fn))
    return calls


def _write_epoch(wal: str, e: int, table: pa.Table, parts: int = 2) -> list[str]:
    d = os.path.join(wal, f"epoch={e:05d}")
    os.makedirs(d)
    step = -(-table.num_rows // parts)
    paths = []
    for j in range(parts):
        paths.append(os.path.join(d, f"part-{j:04d}.parquet"))
        pq.write_table(table.slice(j * step, step), paths[-1])
    return paths


def _lifecycle_epochs(n: int, size: int) -> list[pa.Table]:
    """``n`` epochs of ``size`` events (dups, an evolved column from
    epoch 3); epoch ``n - 2`` ends with a late event, an update of its
    first key at an lsn below the previous epoch's high-water mark."""
    epochs = [gen_epoch(e, size, **GEN) for e in range(n)]
    e = n - 2
    late = epochs[e].slice(0, 1)
    late = late.set_column(0, "lsn", pa.array([e * size - size // 2]))
    late = late.set_column(1, "op", pa.array(["U"]))
    late = late.set_column(late.schema.get_field_index("text"), "text",
                           pa.array(["late"]))
    epochs[e] = pa.concat_tables([epochs[e], late])
    return epochs


def _tree(root: str) -> dict[str, str]:
    """sha256 of every file under data/, views/ and _commits/; lineage
    reports with their durations stripped."""
    out = {}
    for dp, _, names in os.walk(root):
        for name in names:
            p = os.path.join(dp, name)
            rel = os.path.relpath(p, root)
            with open(p, "rb") as f:
                body = f.read()
            if rel.startswith("_lineage"):
                out[rel] = re.sub(rb'\w*duration_sec="[^"]*"', b"", body)
            elif rel.split(os.sep)[0] in ("data", "views", "_commits"):
                out[rel] = hashlib.sha256(body).hexdigest()
    return out


def _follow(root: str, epochs: list[pa.Table]) -> dict:
    """Land the epochs one at a time, each applied by its own ``run_job``
    pass (a follower), with a GC and an expiry rewrite before the last;
    returns the lake's tree."""
    wal, lake_dir = os.path.join(root, "wal"), os.path.join(root, "lake")
    for e, t in enumerate(epochs):
        if e == len(epochs) - 1:
            lake = Lake(lake_dir)
            assert cdc.gc_tombstones(lake, before_lsn=e * 400)["gc_seq"] is not None
            ts = cdc.canonical_state_table(lake).column("ts").cast(pa.int64())
            assert cdc.expire_turns(lake, int(pc.min(ts).as_py()) + 1)["expired"]
        _write_epoch(wal, e, t)
        summary = cdc.run_job(lake_dir, wal, MOR, views=VIEWS)
        assert summary["epochs_applied"] == 1 and summary["files_skipped"] == 0
        if e == len(epochs) - 2:  # the follower's state is the replay's
            assert cdc.canonical_state_table(Lake(lake_dir)).equals(
                apply_naive(concat_evolving(epochs[:-1])))
    return _tree(lake_dir)


def test_follower_lifecycle_writes_the_same_bytes_inline(
        ray_session, tmp_path, monkeypatch):
    """A MOR follower (P=8, compact_every=3, both views, dups, a late
    event, an evolved column, then GC and expiry), one epoch per
    ``run_job`` pass: with the inline branch at its default and switched
    off, ``data/``, ``views/`` and ``_commits/`` are sha256-equal and the
    lineage reports equal but for their durations."""
    fanned = []
    real = cdc.submit_map_stage
    monkeypatch.setattr(cdc, "submit_map_stage",
                        lambda *a: fanned.append(1) or real(*a))
    epochs = _lifecycle_epochs(8, 400)
    inline = _follow(str(tmp_path / "inline"), epochs)
    # epochs 2, 4 and 6 compact; 0, 1, 3, 5 and the post-GC 7 are deltas
    assert len(fanned) == 3
    monkeypatch.setattr(cdc, "INLINE_EPOCH_ROWS", 0)
    fanout = _follow(str(tmp_path / "fanout"), epochs)
    assert len(fanned) == 3 + 8
    assert inline == fanout
    assert any(k.startswith("views") for k in inline)
    assert any(k.startswith(os.path.join("_lineage", "gc=")) for k in inline)
    assert "meta" in cdc.canonical_state_table(
        Lake(str(tmp_path / "inline" / "lake"))).column_names


def test_lone_small_delta_epoch_submits_no_ray_task(
        ray_session, tmp_path, monkeypatch):
    """A lone small delta epoch runs in the driver, through ``run_job``
    or ``apply_epoch``; a compaction, an epoch over ``INLINE_EPOCH_ROWS``,
    two pending small epochs, a JSONL source and a Dataset source each
    fan out (a split task and a group task)."""
    import ray

    calls = _spy_remotes(monkeypatch)
    fan_out = {"_split", "_each"}
    cfg = EngineConfig(num_partitions=8, merge_mode="mor", compact_every=3)

    def follow(name, tables):
        wal = str(tmp_path / name / "wal")
        for e, t in enumerate(tables):
            _write_epoch(wal, e, t)
        calls.clear()
        return cdc.run_job(str(tmp_path / name / "lake"), wal, cfg), wal

    small = [gen_epoch(e, 1000, **GEN) for e in range(3)]
    s, wal = follow("lone", small[:1])
    assert calls == [] and s["epochs_applied"] == 1
    lake = Lake(str(tmp_path / "lone" / "lake"))
    _write_epoch(wal, 1, small[1])
    assert cdc.apply_epoch(lake, 1, cdc.discover_epochs(wal)[1], cfg)
    assert calls == []
    _write_epoch(wal, 2, small[2])  # the chain reaches compact_every
    assert cdc.apply_epoch(lake, 2, cdc.discover_epochs(wal)[2], cfg)
    assert set(calls) == fan_out
    want = apply_naive(concat_evolving(small))
    assert cdc.canonical_state_table(lake).equals(want)

    big = gen_epoch(0, cdc.INLINE_EPOCH_ROWS + 1, **GEN)
    s, _ = follow("big", [big])
    assert set(calls) == fan_out and s["epochs_applied"] == 1

    s, _ = follow("two", small[:2])
    assert calls.count("_split") == 2 and s["epochs_applied"] == 2

    calls.clear()
    js = Lake(str(tmp_path / "js"), num_partitions=8)
    path = str(tmp_path / "e0.jsonl")
    with open(path, "w") as f:
        for r in small[0].to_pylist():
            r["ts"] = r["ts"] and r["ts"].isoformat()
            f.write(json.dumps(r) + "\n")
    assert cdc.apply_epoch(js, 0, [path], cfg)
    assert set(calls) == fan_out

    calls.clear()
    ds_lake = Lake(str(tmp_path / "ds"), num_partitions=8)
    assert cdc.apply_epoch(ds_lake, 0, ray.data.from_arrow(small[0]), cfg)
    assert set(calls) == fan_out
    for other in (js, ds_lake):
        assert cdc.canonical_state_table(other).equals(
            cdc.canonical_state_table(lake, as_of=0))


@pytest.mark.parametrize("mode", ["drop_commit", "inprogress"])
def test_inline_epoch_resumes_after_a_crash(ray_session, tmp_path,
                                            monkeypatch, mode):
    """A lone MOR delta epoch whose commit record is lost (and, in one
    case, whose partition write was left half done) is invisible, and
    the next ``run_job`` pass re-runs it inline to the same digests as
    an uninterrupted follower."""
    epochs = [gen_epoch(e, 800, **GEN) for e in range(2)]
    ref = str(tmp_path / "ref")
    for e, t in enumerate(epochs):
        _write_epoch(os.path.join(ref, "wal"), e, t)
        cdc.run_job(os.path.join(ref, "lake"), os.path.join(ref, "wal"), MOR,
                    views=VIEWS)
    want = {p: e["digest"] for p, e in
            Lake(os.path.join(ref, "lake")).current_entries().items()}

    wal, lake_dir = str(tmp_path / "wal"), str(tmp_path / "lake")
    for e, t in enumerate(epochs):
        _write_epoch(wal, e, t)
        cdc.run_job(lake_dir, wal, MOR, views=VIEWS)
    lake = Lake(lake_dir)
    os.remove(lake.commit_path(1))
    if mode == "inprogress":
        with open(lake.data_path(1, 3) + ".inprogress", "wb") as f:
            f.write(b"partial write, not parquet")
    assert Lake(lake_dir).committed_epochs() == [0]
    calls = _spy_remotes(monkeypatch)
    summary = cdc.run_job(lake_dir, wal, MOR)
    assert summary["epochs_applied"] == 1 and calls == []
    got = {p: e["digest"] for p, e in Lake(lake_dir).current_entries().items()}
    assert got == want
    assert cdc.canonical_state_table(Lake(lake_dir)).equals(
        apply_naive(concat_evolving(epochs)))


def test_inline_epoch_counts_a_file_with_a_corrupt_data_page(
        ray_session, tmp_path, monkeypatch):
    """A WAL file whose footer reads but whose first data page does not
    keeps the epoch inline; keep-going skips the file and the run
    reports it, and fail-fast raises before anything commits."""
    from image_report_ray.pipelines.cdc import read_wal_file

    wal = str(tmp_path / "wal")
    paths = write_wal(wal, n_epochs=1, epoch_size=300, n_parts=2, seed=3,
                      n_convs=10)
    with open(paths[0], "r+b") as f:  # the first page header, after "PAR1"
        f.seek(4)
        f.write(b"\xff" * 32)
    assert pq.read_metadata(paths[0]).num_rows == 150
    with pytest.raises(OSError, match="page header"):
        read_wal_file(paths[0])
    calls = _spy_remotes(monkeypatch)
    mor = dict(num_partitions=2, merge_mode="mor", compact_every=2)
    with pytest.raises(OSError, match="page header"):
        cdc.run_job(str(tmp_path / "strict"), wal, EngineConfig(**mor))
    assert Lake(str(tmp_path / "strict")).committed_epochs() == []
    summary = cdc.run_job(str(tmp_path / "lake"), wal,
                          EngineConfig(**mor, continue_on_error=True))
    assert calls == []
    assert summary["files_skipped"] == 1 and summary["epochs_applied"] == 1
    assert summary["events_received"] == pq.read_metadata(paths[1]).num_rows


def test_jsonl_files_each_get_a_map_task(tmp_path):
    """A WAL file with no Parquet footer has no row count to group by:
    it gets a map task of its own, so three 1,000-row JSONL files make
    three tasks at ``map_task_rows=1000``, as the same rows in Parquet
    do, and a JSONL file between Parquet files keeps the WAL order."""
    t = gen_epoch(0, 3000, seed=4, n_convs=30, max_turns=6)
    jsonl, parquet = [], []
    for j in range(3):
        part = t.slice(j * 1000, 1000)
        parquet.append(str(tmp_path / f"part-{j}.parquet"))
        pq.write_table(part, parquet[-1])
        jsonl.append(str(tmp_path / f"part-{j}.jsonl"))
        with open(jsonl[-1], "w") as f:
            for r in part.to_pylist():
                r["ts"] = r["ts"] and r["ts"].isoformat()
                f.write(json.dumps(r) + "\n")
    assert cdc._group_files(parquet, 1000) == [[p] for p in parquet]
    assert cdc._group_files(jsonl, 1000) == [[p] for p in jsonl]
    assert cdc._group_files(parquet, 3000) == [parquet]
    mixed = [parquet[0], jsonl[1], parquet[2]]
    assert cdc._group_files(mixed, 3000) == [[p] for p in mixed]
    assert cdc._inline_files(jsonl[:1]) is None
    assert cdc._inline_files(parquet[:2]) == parquet[:2]
    assert cdc._inline_files(parquet + parquet[:2]) is None
