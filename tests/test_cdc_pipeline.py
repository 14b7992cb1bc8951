"""End-to-end CDC pipeline tests (Ray): oracle equality, exactly-once,
crash/resume, skew salting, lineage invariants.

The centerpiece is the north-rule invariant: replaying the full changelog
through the distributed engine reproduces the naive oracle's table
bit-for-bit (per-turn text equality under stable (conv_id, turn_idx)
ordering).
"""

import json
import os

import pyarrow as pa
import pytest

from image_report_ray.config import EngineConfig
from image_report_ray.pipelines.cdc import (
    apply_epoch,
    canonical_state_table,
    discover_epochs,
    run_job,
)
from image_report_ray.sources.synth import full_changelog, write_wal
from image_report_ray.state.manifest import Lake
from image_report_ray.state.oracle import apply_naive
from image_report_ray.xmlreport import read_report

GEN = dict(seed=11, n_convs=60, max_turns=10, dup_rate=0.04)


@pytest.fixture()
def wal(tmp_path):
    d = str(tmp_path / "wal")
    write_wal(d, n_epochs=3, epoch_size=400, **GEN)
    return d


def golden(n_epochs=3, epoch_size=400, **kw):
    return apply_naive(full_changelog(n_epochs, epoch_size, **{**GEN, **kw}))


def test_end_to_end_oracle_equality(ray_session, tmp_path, wal):
    cfg = EngineConfig(num_partitions=8)
    summary = run_job(str(tmp_path / "lake"), wal, cfg)
    assert summary["epochs_applied"] == 3
    got = canonical_state_table(Lake(str(tmp_path / "lake")))
    assert got.equals(golden()), "engine final state != naive oracle"


def test_resume_skips_committed_epochs(ray_session, tmp_path, wal):
    cfg = EngineConfig(num_partitions=8)
    lake_dir = str(tmp_path / "lake")
    run_job(lake_dir, wal, cfg)
    # Re-run the whole job: every epoch must be skipped, state unchanged.
    summary2 = run_job(lake_dir, wal, cfg)
    assert summary2["epochs_applied"] == 0
    assert summary2["epochs_skipped"] == 3
    assert canonical_state_table(Lake(lake_dir)).equals(golden())


def test_crash_mid_epoch_before_commit_resumes_clean(ray_session, tmp_path, wal):
    """Simulate a crash after epoch 1's data files are written but before
    the manifest promotion: orphan data files must be invisible, and the
    resumed run must produce the uninterrupted result."""
    cfg = EngineConfig(num_partitions=8)
    lake_dir = str(tmp_path / "lake")
    lake = Lake(lake_dir, num_partitions=8)
    epochs = discover_epochs(wal)
    apply_epoch(lake, 0, epochs[0], cfg)

    # "Crash": run epoch 1's merge work, then delete its commit record.
    apply_epoch(lake, 1, epochs[1], cfg)
    os.remove(lake.commit_path(1))
    assert 1 not in lake.committed_epochs()
    # Orphan data files exist but are not visible.
    assert os.path.isdir(os.path.join(lake_dir, "data", "epoch=00001"))
    state_after_crash = canonical_state_table(Lake(lake_dir))
    golden_e0 = apply_naive(full_changelog(1, 400, **GEN))
    assert state_after_crash.equals(golden_e0)

    # Resume: epochs 1 and 2 re-apply; final state == oracle.
    summary = run_job(lake_dir, wal, cfg)
    assert summary["epochs_applied"] == 2
    assert summary["epochs_skipped"] == 1
    assert canonical_state_table(Lake(lake_dir)).equals(golden())


def test_determinism_two_runs_byte_identical(ray_session, tmp_path, wal):
    cfg = EngineConfig(num_partitions=8)
    run_job(str(tmp_path / "lake_a"), wal, cfg)
    run_job(str(tmp_path / "lake_b"), wal, cfg)
    ea = Lake(str(tmp_path / "lake_a")).current_entries()
    eb = Lake(str(tmp_path / "lake_b")).current_entries()
    assert ea.keys() == eb.keys()
    for pid in ea:
        assert ea[pid]["digest"] == eb[pid]["digest"]
        fa = os.path.join(str(tmp_path / "lake_a"), ea[pid]["file"])
        fb = os.path.join(str(tmp_path / "lake_b"), eb[pid]["file"])
        with open(fa, "rb") as a, open(fb, "rb") as b:
            assert a.read() == b.read(), f"pid {pid} state file not byte-identical"


def test_ledger_is_exact_for_any_task_grouping(ray_session, tmp_path):
    """The merge ledger does not depend on how the epoch's events are
    grouped into map tasks: three map_task_rows values and a Dataset at
    two block counts sum to the same counts, and dup_skipped is exactly
    the WAL's repeated (conv_id, turn_idx, lsn) rows."""
    import pyarrow.parquet as pq
    import ray

    files = write_wal(str(tmp_path / "wal"), n_epochs=1, epoch_size=4000,
                      n_parts=8, seed=5, n_convs=40, max_turns=8, dup_rate=0.05)
    wal = pa.concat_tables([pq.read_table(f) for f in files])
    repeats = wal.num_rows - wal.group_by(["conv_id", "turn_idx", "lsn"]).aggregate(
        []).num_rows
    assert repeats > 0
    expect = apply_naive(wal)
    fields = ("received", "applied", "stale_skipped", "dup_skipped")
    inputs = {f"map_task_rows={n}": (files, n) for n in (1 << 20, 1000, 500)}
    for blocks in (2, 8):
        ds = ray.data.read_parquet(files, partitioning=None).repartition(
            blocks).materialize()
        assert ds.num_blocks() == blocks
        inputs[f"dataset blocks={blocks}"] = (ds, 1 << 20)
    ledgers = {}
    for i, (name, (source, rows)) in enumerate(inputs.items()):
        lake = Lake(str(tmp_path / f"lake{i}"), num_partitions=8)
        stats = apply_epoch(lake, 0, source,
                            EngineConfig(num_partitions=8, map_task_rows=rows))
        ledgers[name] = tuple(sum(getattr(s, f) for s in stats.values())
                              for f in fields)
        assert canonical_state_table(lake).equals(expect), name
    assert len(set(ledgers.values())) == 1, ledgers
    received, applied, stale, dups = ledgers["map_task_rows=500"]
    assert received == wal.num_rows
    assert dups == repeats


def test_schema_evolution_through_pipeline(ray_session, tmp_path):
    d = str(tmp_path / "wal")
    write_wal(d, n_epochs=4, epoch_size=300, seed=5, n_convs=40, max_turns=8,
              evolve_from_epoch=2)
    cfg = EngineConfig(num_partitions=8)
    run_job(str(tmp_path / "lake"), d, cfg)
    got = canonical_state_table(Lake(str(tmp_path / "lake")))
    want = apply_naive(
        full_changelog(4, 300, seed=5, n_convs=40, max_turns=8, evolve_from_epoch=2)
    )
    assert "meta" in got.column_names
    assert got.equals(want)


def test_skew_salting_spreads_hot_conversation(ray_session, tmp_path):
    d = str(tmp_path / "wal")
    write_wal(d, n_epochs=2, epoch_size=800, seed=8, n_convs=50, max_turns=16,
              hot_frac=0.5, n_hot=1)
    hot = frozenset({"conv-00000000"})
    cfg = EngineConfig(num_partitions=8, salt_factor=4)
    run_job(str(tmp_path / "lake"), d, cfg, salt_keys=hot)
    lake = Lake(str(tmp_path / "lake"))
    # Correctness under salting:
    want = apply_naive(
        full_changelog(2, 800, seed=8, n_convs=50, max_turns=16, hot_frac=0.5, n_hot=1)
    )
    assert canonical_state_table(lake).equals(want)
    # The hot conversation's rows actually landed in >1 partition.
    import pyarrow.parquet as pq

    pids_with_hot = set()
    for pid, f in lake.current_files().items():
        t = pq.read_table(f, columns=["conv_id"])
        if "conv-00000000" in set(t.column("conv_id").to_pylist()):
            pids_with_hot.add(pid)
    assert len(pids_with_hot) > 1, "salting did not spread the hot conversation"


def test_lineage_reports_written_and_conserve(ray_session, tmp_path, wal):
    cfg = EngineConfig(num_partitions=4)
    lake_dir = str(tmp_path / "lake")
    run_job(lake_dir, wal, cfg)
    lake = Lake(lake_dir)
    total_received = 0
    for epoch in lake.committed_epochs():
        rec = lake.read_commit(epoch)
        for pid_s in rec["partitions"]:
            root = read_report(lake.lineage_path(epoch, int(pid_s)))
            ledger = root.find("ledger")
            st = root.find("state")
            received = int(ledger.get("received"))
            assert received == (
                int(ledger.get("applied"))
                + int(ledger.get("stale_skipped"))
                + int(ledger.get("dup_skipped"))
            )
            assert int(st.get("rows_live")) + int(st.get("tombstoned")) == int(
                st.get("keys_total")
            )
            total_received += received
    # Every generated event (incl. injected duplicates) is accounted for.
    n_events = full_changelog(3, 400, **GEN).num_rows
    assert total_received == n_events
    # Lineage state counts match an actual scan of the live table.
    live_rows = canonical_state_table(lake).num_rows
    latest = lake.current_entries()
    assert sum(e["rows_live"] for e in latest.values()) == live_rows


def test_loop_detect_matches_naive_state_scan(ray_session):
    """cdc_loop_detect (per-partition engine fold) == a per-conversation
    seen-set scan over the naive-oracle final state."""
    import pyarrow.parquet as pq

    from image_report_ray.pipelines.cdcq import cdc_loop_detect
    from image_report_ray.sources.wal import events_to_changelog
    from image_report_ray.state.oracle import apply_naive

    sf = "/root/testdata/sf0.001"
    state = apply_naive(
        events_to_changelog(pq.read_table(f"{sf}/events.parquet"))
    )
    expect: dict = {}
    seen: dict = {}
    for r in state.to_pylist():  # state is (conv_id, turn_idx)-sorted
        c = r["conv_id"]
        n, k = expect.get(c, (0, 0))
        looped = r["text"] in seen.setdefault(c, set())
        seen[c].add(r["text"])
        expect[c] = (n + 1, k + looped)

    got = cdc_loop_detect(sf)
    assert got.num_rows == len(expect)
    for r in got.to_pylist():
        n, k = expect[r["conv_id"]]
        assert (r["n_turns"], r["n_looped"]) == (n, k)
        assert r["loop_bp"] == k * 10000 // n
        assert r["looped"] == (k > 0)
    assert sum(k for _, k in expect.values()) > 0  # signal is non-trivial


def test_role_stats_matches_naive_state_scan(ray_session):
    """cdc_role_stats == per-conv counters over the naive-oracle state."""
    import pyarrow.parquet as pq

    from image_report_ray.pipelines.cdcq import cdc_role_stats
    from image_report_ray.sources.wal import events_to_changelog
    from image_report_ray.state.oracle import apply_naive

    sf = "/root/testdata/sf0.001"
    state = apply_naive(
        events_to_changelog(pq.read_table(f"{sf}/events.parquet"))
    )
    expect: dict = {}
    for r in state.to_pylist():
        e = expect.setdefault(r["conv_id"], [0, 0, 0, 0, 0, 0])
        e[0] += 1
        e[1] += r["role"] == "user"
        e[2] += r["role"] == "assistant"
        e[3] += r["role"] == "tool"
        e[4] += r["tool"] is not None
        e[5] += len(r["text"])

    got = cdc_role_stats(sf)
    assert got.num_rows == len(expect)
    for r in got.to_pylist():
        n, u, a, tr, tc, ch = expect[r["conv_id"]]
        assert (r["n_turns"], r["n_user"], r["n_assistant"],
                r["n_tool_role"], r["n_tool_calls"],
                r["total_chars"]) == (n, u, a, tr, tc, ch)
        assert r["agentic"] == (tc > 0)
    assert any(e[4] for e in expect.values())  # agentic signal present


def test_incremental_dedup_paths_agree(ray_session):
    """Broadcast and exchange membership routes are identical, and the
    second-half events actually hit epoch-0 state texts (signal)."""
    import pyarrow.compute as pc

    from image_report_ray.pipelines.cdcq import cdc_incremental_dedup

    sf = "/root/testdata/sf0.001"
    a = cdc_incremental_dedup(sf)
    b = cdc_incremental_dedup(sf, max_broadcast_hashes=0)
    assert a.equals(b)
    assert a.num_rows > 0
    n_dup = pc.sum(pc.cast(a.column("dup_of_state"), "int64")).as_py()
    assert 0 < n_dup < a.num_rows


def test_time_travel_snapshot_stable_after_later_epochs(ray_session, tmp_path):
    """Manifest as-of reads: the epoch-0 snapshot read AFTER epoch 1
    committed is bit-identical to the state captured before epoch 1 —
    data files are immutable, so snapshots resolve forever."""
    import ray.data as rd

    from image_report_ray.config import EngineConfig
    from image_report_ray.pipelines.cdc import apply_epoch, canonical_state_table
    from image_report_ray.sources.synth import write_wal
    from image_report_ray.state.manifest import Lake

    wal_dir = str(tmp_path / "wal")
    paths = write_wal(wal_dir, n_epochs=2, epoch_size=400, seed=11,
                      n_convs=40, max_turns=8, dup_rate=0.0)
    lake = Lake(str(tmp_path / "lake"), num_partitions=4)
    cfg = EngineConfig(num_partitions=4)
    apply_epoch(lake, 0, rd.read_parquet(paths[0]), cfg)
    before = canonical_state_table(lake)
    apply_epoch(lake, 1, rd.read_parquet(paths[1]), cfg)
    assert canonical_state_table(lake, as_of=0).equals(before)
    assert not canonical_state_table(lake).equals(before)


def test_tool_transitions_matches_naive_state_scan(ray_session):
    """cdc_tool_transitions == per-conv adjacent-pair counting over the
    naive-oracle state's tool subsequences."""
    from collections import Counter

    import pyarrow.parquet as pq

    from image_report_ray.pipelines.cdcq import cdc_tool_transitions
    from image_report_ray.sources.wal import events_to_changelog
    from image_report_ray.state.oracle import apply_naive

    sf = "/root/testdata/sf0.001"
    state = apply_naive(
        events_to_changelog(pq.read_table(f"{sf}/events.parquet"))
    )
    seqs: dict = {}
    for r in state.to_pylist():  # sorted (conv_id, turn_idx)
        if r["tool"] is not None:
            seqs.setdefault(r["conv_id"], []).append(r["tool"])
    expect = Counter()
    for s in seqs.values():
        for a, b in zip(s, s[1:]):
            expect[(a, b)] += 1

    got = cdc_tool_transitions(sf)
    assert {
        (r["tool_a"], r["tool_b"]): r["n"] for r in got.to_pylist()
    } == dict(expect)
    assert sum(expect.values()) > 0


def test_shared_lake_cache_invalidates_on_regenerated_events(ray_session, tmp_path):
    """The cdcq shared-lake cache keys on events.parquet content
    (size+mtime): regenerating the table in place must rebuild, never
    serve the stale replay (the IVF-cache staleness rule)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from image_report_ray.pipelines.cdcq import cdc_apply

    sf = tmp_path / "sf"
    sf.mkdir()
    src = pq.read_table("/root/testdata/sf0.001/events.parquet")
    pq.write_table(src, sf / "events.parquet")
    first = cdc_apply(str(sf))

    # regenerate in place with half the events -> different state
    half = src.slice(0, src.num_rows // 2)
    pq.write_table(half, sf / "events.parquet")
    second = cdc_apply(str(sf))
    assert not second.equals(first)
    # and the rebuilt replay matches a from-scratch naive oracle
    from image_report_ray.sources.wal import events_to_changelog
    from image_report_ray.state.oracle import apply_naive

    expect = apply_naive(events_to_changelog(half))
    assert second.select(expect.column_names).equals(expect)


def test_expire_turns_matches_filtered_oracle(ray_session, tmp_path):
    """TTL expiry: the GC-style rewrite leaves exactly the oracle state
    with the expired rows dropped; re-running is a no-op; the lsn space
    is untouched so FUTURE events still win (a later insert re-creates
    an expired key) while old redeliveries still dedup; the lake
    validates clean."""
    import pyarrow.compute as pc
    import ray.data as rd

    from image_report_ray.pipelines.cdc import expire_turns

    cfg = EngineConfig(num_partitions=8)
    d = str(tmp_path / "wal")
    write_wal(d, n_epochs=3, epoch_size=400, **GEN)
    lake_dir = str(tmp_path / "lake")
    run_job(lake_dir, d, cfg)
    lake = Lake(lake_dir)

    before = canonical_state_table(lake)
    cutoff = int(
        pc.approximate_median(before.column("ts").cast(pa.int64())).as_py()
    )
    res = expire_turns(lake, cutoff, cfg)
    assert res["expired"] > 0 and res["gc_seq"] == 0

    want = golden().filter(
        pc.greater_equal(golden().column("ts").cast(pa.int64()), cutoff)
    )
    got = canonical_state_table(Lake(lake_dir))
    assert got.equals(want)

    # idempotent: nothing left to expire -> no commit
    res2 = expire_turns(Lake(lake_dir), cutoff, cfg)
    assert res2 == {"expired": 0, "gc_seq": None}

    # an expired key is re-creatable by a FUTURE event (fresh lsn): the
    # expiry consumed no lsns, so the insert must win
    expired_keys = set(
        map(tuple, zip(before.column("conv_id").to_pylist(),
                       before.column("turn_idx").to_pylist()))
    ) - set(
        map(tuple, zip(got.column("conv_id").to_pylist(),
                       got.column("turn_idx").to_pylist()))
    )
    conv, turn = sorted(expired_keys)[0]
    new_lsn = max(
        e["last_lsn"] for e in Lake(lake_dir).current_entries().values()
    ) + 1
    ins = pa.table(
        {"lsn": pa.array([new_lsn], pa.int64()),
         "op": pa.array(["I"]),
         "conv_id": pa.array([conv]),
         "turn_idx": pa.array([turn], pa.int32()),
         "role": pa.array(["user"]),
         "text": pa.array(["fresh after expiry"]),
         "tool": pa.array([None], pa.string()),
         "ts": pa.array([0], pa.timestamp("us"))}
    )
    apply_epoch(Lake(lake_dir), 3, rd.from_arrow(ins), cfg)
    after = canonical_state_table(Lake(lake_dir))
    mask = pc.and_(
        pc.equal(after.column("conv_id"), conv),
        pc.equal(after.column("turn_idx"), turn),
    )
    row = after.filter(mask)
    assert row.num_rows == 1
    assert row.column("text")[0].as_py() == "fresh after expiry"


def test_reshard_preserves_state_and_stream(ray_session, tmp_path):
    """Resharding mid-stream: migrate after 2 of 3 epochs to a different
    P, continue the WAL on the new lake — final state equals the
    uninterrupted oracle, the new lake validates, and tombstones/lsns
    survived the move (a late redelivery of an old event is a no-op)."""
    from image_report_ray.pipelines.cdc import discover_epochs, reshard_lake

    cfg = EngineConfig(num_partitions=8)
    d = str(tmp_path / "wal")
    write_wal(d, n_epochs=3, epoch_size=400, **GEN)
    src_dir = str(tmp_path / "lake8")
    epochs = discover_epochs(d)
    src = Lake(src_dir, num_partitions=8)
    apply_epoch(src, 0, epochs[0], cfg)
    apply_epoch(src, 1, epochs[1], cfg)

    dst_dir = str(tmp_path / "lake5")
    res = reshard_lake(Lake(src_dir), dst_dir, 5)
    assert res["partitions"] == 5 and res["epoch"] == 1
    # migrated state == source state, under the new partitioning
    assert canonical_state_table(Lake(dst_dir)).equals(
        canonical_state_table(Lake(src_dir))
    )

    # stream continues on the new lake; epochs 0/1 are already covered
    cfg5 = EngineConfig(num_partitions=5)
    summary = run_job(dst_dir, d, cfg5)
    assert summary["epochs_applied"] == 1 and summary["epochs_skipped"] == 2
    assert canonical_state_table(Lake(dst_dir)).equals(golden())

    # exactly-once across the migration: redelivering epoch 1 is a no-op
    assert apply_epoch(Lake(dst_dir), 1, epochs[1], cfg5) is None
    assert canonical_state_table(Lake(dst_dir)).equals(golden())

    # one destination partition: the split task's single return value
    one_dir = str(tmp_path / "lake1")
    res = reshard_lake(Lake(src_dir), one_dir, 1)
    assert res["partitions"] == 1 and res["epoch"] == 1
    assert canonical_state_table(Lake(one_dir)).equals(
        canonical_state_table(Lake(src_dir))
    )
    summary = run_job(one_dir, d, EngineConfig(num_partitions=1))
    assert summary["epochs_applied"] == 1
    assert canonical_state_table(Lake(one_dir)).equals(golden())


def test_reshard_desalts_hot_conversation(ray_session, tmp_path):
    """Resharding a SALTED lake re-co-locates each conversation under the
    plain crc32 routing (state equality preserved) — the cooled-hot-key
    migration path."""
    from image_report_ray.pipelines.cdc import reshard_lake

    d = str(tmp_path / "wal")
    write_wal(d, n_epochs=2, epoch_size=800, seed=8, n_convs=50, max_turns=16,
              hot_frac=0.5, n_hot=1)
    hot = frozenset({"conv-00000000"})
    cfg = EngineConfig(num_partitions=8, salt_factor=4)
    src_dir = str(tmp_path / "lake-salted")
    run_job(src_dir, d, cfg, salt_keys=hot)

    dst_dir = str(tmp_path / "lake-desalted")
    reshard_lake(Lake(src_dir), dst_dir, 6)
    want = apply_naive(
        full_changelog(2, 800, seed=8, n_convs=50, max_turns=16,
                       hot_frac=0.5, n_hot=1)
    )
    assert canonical_state_table(Lake(dst_dir)).equals(want)

    # the hot conversation now lives in exactly ONE partition
    import pyarrow.parquet as pq

    pids_with_hot = set()
    for pid, f in Lake(dst_dir).current_files().items():
        t = pq.read_table(f, columns=["conv_id"])
        if "conv-00000000" in set(t.column("conv_id").to_pylist()):
            pids_with_hot.add(pid)
    assert len(pids_with_hot) == 1


def test_bootstrap_then_wal_stream(ray_session, tmp_path):
    """Bootstrap from a plain transcripts parquet == epoch-0 state; the
    WAL stream applies on top with full LWW/delete semantics (bootstrap
    rows at lsn -1 always lose to real events); lake validates."""
    import pyarrow.parquet as pq

    from image_report_ray.pipelines.cdc import bootstrap_lake

    d = str(tmp_path / "wal")
    write_wal(d, n_epochs=2, epoch_size=400, **GEN)
    # the "existing corpus" = the epoch-0 replay state as a plain table
    plain = apply_naive(full_changelog(1, 400, **GEN))
    src = str(tmp_path / "corpus.parquet")
    pq.write_table(plain, src)

    lake_dir = str(tmp_path / "lake")
    res = bootstrap_lake(src, lake_dir, 8, epoch=0)
    assert res["rows_loaded"] == plain.num_rows
    assert canonical_state_table(Lake(lake_dir)).equals(plain)

    # WAL epoch 1 applies on top; final state == uninterrupted oracle
    from image_report_ray.pipelines.cdc import discover_epochs

    cfg = EngineConfig(num_partitions=8)
    epochs = discover_epochs(d)
    apply_epoch(Lake(lake_dir), 1, epochs[1], cfg)
    assert canonical_state_table(Lake(lake_dir)).equals(golden(n_epochs=2))

    # double bootstrap refused
    import pytest as _pytest

    with _pytest.raises(ValueError):
        bootstrap_lake(src, lake_dir, 8)


def test_bootstrap_one_partition_then_wal_stream(ray_session, tmp_path):
    """Bootstrap into a one-partition lake (the split task's single
    return value) equals the source; the WAL stream applies on top."""
    import pyarrow.parquet as pq

    from image_report_ray.pipelines.cdc import bootstrap_lake, discover_epochs

    d = str(tmp_path / "wal")
    write_wal(d, n_epochs=2, epoch_size=400, **GEN)
    plain = apply_naive(full_changelog(1, 400, **GEN))
    src = str(tmp_path / "corpus.parquet")
    pq.write_table(plain, src)

    lake_dir = str(tmp_path / "lake")
    res = bootstrap_lake(src, lake_dir, 1, epoch=0)
    assert res["rows_loaded"] == plain.num_rows
    assert canonical_state_table(Lake(lake_dir)).equals(plain)
    apply_epoch(Lake(lake_dir), 1, discover_epochs(d)[1],
                EngineConfig(num_partitions=1))
    assert canonical_state_table(Lake(lake_dir)).equals(golden(n_epochs=2))


def test_changefeed_matches_naive_snapshot_diff(ray_session, tmp_path):
    """changefeed(epoch) == the I/U/D diff of naive replays up to the
    adjacent epochs, with after-values on I/U rows and epoch 0 feeding
    every initial row as I."""
    cfg = EngineConfig(num_partitions=8)
    d = str(tmp_path / "wal")
    write_wal(d, n_epochs=3, epoch_size=400, **GEN)
    lake_dir = str(tmp_path / "lake")
    run_job(lake_dir, d, cfg)
    lake = Lake(lake_dir)

    from image_report_ray.pipelines.cdc import changefeed

    def naive_upto(k):
        if k < 0:
            return {}
        t = apply_naive(full_changelog(k + 1, 400, **GEN))
        return {
            (r["conv_id"], r["turn_idx"]): (r["role"], r["text"], r["tool"], r["ts"])
            for r in t.to_pylist()
        }

    for epoch in (0, 1, 2):
        s0, s1 = naive_upto(epoch - 1), naive_upto(epoch)
        expect = {}
        for k in s1:
            if k not in s0:
                expect[k] = ("I", s1[k])
            elif s1[k] != s0[k]:
                expect[k] = ("U", s1[k])
        for k in s0:
            if k not in s1:
                expect[k] = ("D", None)

        feed = changefeed(lake, epoch)
        got = {
            (r["conv_id"], r["turn_idx"]): (
                r["op"],
                None if r["op"] == "D"
                else (r["role"], r["text"], r["tool"], r["ts"]),
            )
            for r in feed.to_pylist()
        }
        assert got == expect, f"epoch {epoch}"
        assert feed.num_rows > 0


def test_bootstrap_rejects_bad_keys(ray_session, tmp_path):
    """Bootstrap refuses duplicate (conv_id, turn_idx) keys and null key
    columns instead of committing a corrupt initial state."""
    import pyarrow.parquet as pq
    import ray.exceptions

    from image_report_ray.pipelines.cdc import bootstrap_lake

    def table(conv, turn):
        n = len(conv)
        return pa.table(
            {"conv_id": pa.array(conv, pa.string()),
             "turn_idx": pa.array(turn, pa.int32()),
             "role": pa.array(["user"] * n),
             "text": pa.array(["x"] * n),
             "tool": pa.array([None] * n, pa.string()),
             "ts": pa.array([0] * n, pa.timestamp("us"))}
        )

    dup = tmp_path / "dup.parquet"
    pq.write_table(table(["c1", "c1"], [0, 0]), dup)
    with pytest.raises((ValueError, ray.exceptions.RayTaskError)):
        bootstrap_lake(str(dup), str(tmp_path / "lake_a"), 4)

    nulls = tmp_path / "nulls.parquet"
    pq.write_table(table(["c1", None], [0, 1]), nulls)
    with pytest.raises((ValueError, ray.exceptions.RayTaskError)):
        bootstrap_lake(str(nulls), str(tmp_path / "lake_b"), 4)


def test_changefeed_reconstruction_invariant(ray_session, tmp_path):
    """Applying every epoch's change feed, in order, to an empty dict
    reproduces the final state exactly — the CDC-out correctness anchor
    (a downstream consumer of the feed converges to the lake)."""
    cfg = EngineConfig(num_partitions=8)
    d = str(tmp_path / "wal")
    write_wal(d, n_epochs=3, epoch_size=500, **GEN)
    lake_dir = str(tmp_path / "lake")
    run_job(lake_dir, d, cfg)
    lake = Lake(lake_dir)

    from image_report_ray.pipelines.cdc import changefeed

    state: dict = {}
    for epoch in lake.committed_epochs():
        for r in changefeed(lake, epoch).to_pylist():
            k = (r["conv_id"], r["turn_idx"])
            if r["op"] == "D":
                state.pop(k, None)
            else:
                state[k] = (r["role"], r["text"], r["tool"], r["ts"])

    final = canonical_state_table(lake)
    got = {
        (r["conv_id"], r["turn_idx"]): (r["role"], r["text"], r["tool"], r["ts"])
        for r in final.to_pylist()
    }
    assert state == got


def test_flatten_transcripts_matches_naive_render(ray_session):
    """cdc_flatten_transcripts == a per-conversation 'role: text' join
    over the naive-oracle state."""
    import pyarrow.parquet as pq

    from image_report_ray.pipelines.cdcq import cdc_flatten_transcripts
    from image_report_ray.sources.wal import events_to_changelog
    from image_report_ray.state.oracle import apply_naive

    sf = "/root/testdata/sf0.001"
    state = apply_naive(
        events_to_changelog(pq.read_table(f"{sf}/events.parquet"))
    )
    expect: dict = {}
    for r in state.to_pylist():  # sorted (conv_id, turn_idx)
        expect.setdefault(r["conv_id"], []).append(f"{r['role']}: {r['text']}")

    got = cdc_flatten_transcripts(sf)
    assert got.num_rows == len(expect)
    for r in got.to_pylist():
        doc = "\n".join(expect[r["conv_id"]])
        assert r["doc_text"] == doc
        assert r["n_turns"] == len(expect[r["conv_id"]])
        assert r["n_chars"] == len(doc)


def test_export_conversations_gates_consistent(ray_session):
    """cdc_export_conversations' gates equal re-running the shared text
    kernels on the flattened documents plus the loop ratio — pins the
    composition wiring; verdict mix is non-trivial."""
    from image_report_ray.pipelines.cdcq import (
        _EXPORT_MAX_LOOP_BP,
        cdc_export_conversations,
        cdc_flatten_transcripts,
        cdc_loop_detect,
    )
    from image_report_ray.pipelines.text import (
        _quality_batch,
        _repetition_batch,
    )

    sf = "/root/testdata/sf0.001"
    out = cdc_export_conversations(sf).to_pandas().set_index("conv_id")
    flat = cdc_flatten_transcripts(sf)
    fake = pa.table(
        {"doc_id": flat.column("conv_id"), "text": flat.column("doc_text")}
    )
    q = _quality_batch(fake).to_pandas().set_index("doc_id")
    r = _repetition_batch(fake).to_pandas().set_index("doc_id")
    lo = cdc_loop_detect(sf).to_pandas().set_index("conv_id")

    # transcript quality gate = length + token-shape terms of the shared
    # kernel (the stopword prior is dropped for role-prefixed logs)
    expect_q = q.n_tokens.between(10, 1000) & (q.mean_tok_len_bp <= 120_000)
    assert (out.quality_ok == expect_q.loc[out.index]).all()
    assert (out.rep_ok == r.rep_ok.loc[out.index]).all()
    assert (out.loop_ok == (lo.loop_bp.loc[out.index]
                            <= _EXPORT_MAX_LOOP_BP)).all()
    assert (out.keep == (out.quality_ok & out.rep_ok & out.loop_ok)).all()
    assert 0 < out.keep.sum() < len(out)


def test_reshard_preserves_evolved_schema(ray_session, tmp_path):
    """Resharding a lake whose later epochs carry the additive ``meta``
    column keeps the evolved schema and the exact state."""
    from image_report_ray.pipelines.cdc import reshard_lake

    d = str(tmp_path / "wal")
    write_wal(d, n_epochs=4, epoch_size=300, seed=5, n_convs=40, max_turns=8,
              evolve_from_epoch=2)
    cfg = EngineConfig(num_partitions=8)
    src = str(tmp_path / "lake8")
    run_job(src, d, cfg)

    dst = str(tmp_path / "lake3")
    reshard_lake(Lake(src), dst, 3)
    a = canonical_state_table(Lake(src))
    b = canonical_state_table(Lake(dst))
    assert "meta" in b.column_names
    assert b.equals(a)


def test_changefeed_after_gc_and_expire(ray_session, tmp_path):
    """changefeed for pre-GC epochs still resolves after tombstone GC
    (immutable files), and the reconstruction invariant holds when an
    expiry GC interleaves (the expiry's row drops surface in the NEXT
    epoch's feed via the fold order)."""
    import pyarrow.compute as pc
    import ray.data as rd

    from image_report_ray.pipelines.cdc import (
        changefeed,
        expire_turns,
        gc_tombstones,
    )

    cfg = EngineConfig(num_partitions=4)
    d = str(tmp_path / "wal")
    paths = write_wal(d, n_epochs=3, epoch_size=400, **GEN)
    lake_dir = str(tmp_path / "lake")
    lake = Lake(lake_dir, num_partitions=4)
    for i, p in enumerate(paths[:2]):
        apply_epoch(lake, i, rd.read_parquet(p), cfg)
    feed0_before = changefeed(Lake(lake_dir), 0)

    # interleave maintenance: tombstone GC + TTL expiry between epochs
    gc_tombstones(Lake(lake_dir), before_lsn=400)
    state = canonical_state_table(Lake(lake_dir))
    cutoff = int(
        pc.approximate_median(state.column("ts").cast(pa.int64())).as_py()
    )
    expire_turns(Lake(lake_dir), cutoff, cfg)
    apply_epoch(Lake(lake_dir), 2, rd.read_parquet(paths[2]), cfg)

    # epochs strictly below the maintenance fold point (after_epoch=1)
    # keep their feeds bit-identical (immutable files); epoch 1's own
    # feed legitimately absorbs the GC/expiry folded at (1, gc)
    assert changefeed(Lake(lake_dir), 0).equals(feed0_before)

    # reconstruction across the maintenance boundary: replaying all
    # feeds converges to the final state
    state_map: dict = {}
    for epoch in Lake(lake_dir).committed_epochs():
        for r in changefeed(Lake(lake_dir), epoch).to_pylist():
            k = (r["conv_id"], r["turn_idx"])
            if r["op"] == "D":
                state_map.pop(k, None)
            else:
                state_map[k] = r["text"]
    final = canonical_state_table(Lake(lake_dir))
    got = {
        (r["conv_id"], r["turn_idx"]): r["text"] for r in final.to_pylist()
    }
    assert state_map == got


def test_tail_job_follows_arriving_epochs(ray_session, tmp_path):
    """Continuous tail: epochs published (atomically) WHILE the tailer
    runs are applied as they land; the final state equals the full
    oracle and the tailer exits after the idle timeout."""
    import os
    import shutil as _sh
    import threading
    import time as _time

    from image_report_ray.pipelines.cdc import tail_job

    cfg = EngineConfig(num_partitions=4)
    staging = str(tmp_path / "staging")
    write_wal(staging, n_epochs=3, epoch_size=300, **GEN)
    wal = str(tmp_path / "wal")
    os.makedirs(wal)
    # epoch 0 is present before the tailer starts
    _sh.move(os.path.join(staging, "epoch=00000"), wal)

    def producer():
        for k in (1, 2):
            _time.sleep(0.8)
            src = os.path.join(staging, f"epoch={k:05d}")
            tmp = os.path.join(wal, f".incoming-{k}")
            _sh.copytree(src, tmp)
            os.rename(tmp, os.path.join(wal, f"epoch={k:05d}"))

    th = threading.Thread(target=producer)
    th.start()
    summary = tail_job(
        str(tmp_path / "lake"), wal, cfg,
        poll_interval=0.2, idle_timeout=3.0,
    )
    th.join()
    assert summary["epochs_applied"] == 3
    assert summary["passes"] >= 2
    got = canonical_state_table(Lake(str(tmp_path / "lake")))
    assert got.equals(golden(n_epochs=3, epoch_size=300))


def test_changefeed_preserves_evolved_column_types(ray_session, tmp_path):
    """The change feed carries evolved payload columns with their native
    Arrow types (the JSONL WAL path delivers e.g. int64), derived from
    the snapshot schema — not force-cast to string."""
    import numpy as np
    import pyarrow.parquet as pq

    from image_report_ray.pipelines.cdc import canonical_state_table, changefeed

    d = tmp_path / "wal"
    for epoch in range(2):
        t = __import__("image_report_ray.sources.synth", fromlist=["gen_epoch"]).gen_epoch(
            epoch, 300, seed=23, n_convs=30, max_turns=8
        )
        if epoch == 1:  # evolved INT column appears mid-log
            lsn = t.column("lsn").to_numpy()
            is_d = pa.array(np.asarray(t.column("op")) == "D")
            t = t.append_column(
                pa.field("score", pa.int64()),
                pa.array(np.where(is_d, 0, lsn * 2), mask=np.asarray(is_d)),
            )
        ed = d / f"epoch={epoch:05d}"
        ed.mkdir(parents=True, exist_ok=True)
        pq.write_table(t, ed / "part-000.parquet")

    cfg = EngineConfig(num_partitions=4)
    run_job(str(tmp_path / "lake"), str(d), cfg)
    lake = Lake(str(tmp_path / "lake"))

    feed = changefeed(lake, 1)
    assert feed.schema.field("score").type == pa.int64()
    state = {
        (r["conv_id"], r["turn_idx"]): r["score"]
        for r in canonical_state_table(lake).to_pylist()
    }
    n_scored = 0
    for r in feed.to_pylist():
        if r["op"] != "D":
            assert r["score"] == state[(r["conv_id"], r["turn_idx"])]
            n_scored += r["score"] is not None
    assert n_scored > 0


def test_run_job_reports_below_watermark_epochs(ray_session, tmp_path, wal):
    """A WAL epoch numbered at/below the commit watermark that was never
    actually committed (mis-numbered / back-filled producer) is counted
    separately, not silently folded into epochs_skipped."""
    cfg = EngineConfig(num_partitions=4)
    lake_dir = str(tmp_path / "lake")
    s1 = run_job(lake_dir, wal, cfg)
    assert s1["epochs_below_watermark"] == 0
    # simulate the hole: epoch 1's commit record vanishes while the
    # watermark (epoch 2) stands
    os.remove(Lake(lake_dir).commit_path(1))
    s2 = run_job(lake_dir, wal, cfg)
    assert s2["epochs_applied"] == 0
    assert s2["epochs_below_watermark"] == 1


def test_changefeed_range_nets_intermediate_churn(ray_session, tmp_path):
    """changefeed_range(a, b) == replaying the per-epoch feeds of
    (a, b] into a dict and diffing — one compacted catch-up feed with
    intermediate churn netted out; from_epoch=-1 feeds the whole live
    state as inserts."""
    cfg = EngineConfig(num_partitions=8)
    d = str(tmp_path / "wal")
    write_wal(d, n_epochs=3, epoch_size=400, **GEN)
    lake_dir = str(tmp_path / "lake")
    run_job(lake_dir, d, cfg)
    lake = Lake(lake_dir)

    from image_report_ray.pipelines.cdc import changefeed, changefeed_range

    def snap(upto):
        if upto < 0:
            return {}
        s: dict = {}
        for e in range(upto + 1):
            for r in changefeed(lake, e).to_pylist():
                k = (r["conv_id"], r["turn_idx"])
                if r["op"] == "D":
                    s.pop(k, None)
                else:
                    s[k] = (r["role"], r["text"], r["tool"], r["ts"])
        return s

    for lo, hi in ((-1, 2), (0, 2), (1, 2), (-1, 1)):
        s0, s1 = snap(lo), snap(hi)
        expect = {}
        for k in s1:
            if k not in s0:
                expect[k] = ("I", s1[k])
            elif s1[k] != s0[k]:
                expect[k] = ("U", s1[k])
        for k in s0:
            if k not in s1:
                expect[k] = ("D", None)
        feed = changefeed_range(lake, lo, hi)
        got = {
            (r["conv_id"], r["turn_idx"]): (
                r["op"],
                None if r["op"] == "D"
                else (r["role"], r["text"], r["tool"], r["ts"]),
            )
            for r in feed.to_pylist()
        }
        assert got == expect, (lo, hi)

    import pytest as _pytest

    with _pytest.raises(ValueError, match="must be <"):
        changefeed_range(lake, 2, 2)


def test_zombie_merge_retry_is_byte_idempotent(ray_session, tmp_path, wal):
    """A Ray retry (or zombie task finishing AFTER the commit) re-runs
    merge_partition_kernel with the same inputs: it must overwrite the
    staged files with identical bytes — state, digest, views and
    validate all unchanged."""
    import hashlib

    import ray

    from image_report_ray.pipelines.cdc import (
        merge_partition_kernel,
        prepare_and_split,
        read_wal_file,
    )
    from image_report_ray.schema import concat_evolving

    cfg = EngineConfig(num_partitions=4)
    lake_dir = str(tmp_path / "lake")
    run_job(lake_dir, wal, cfg, views=("conv_summary",))
    lake = Lake(lake_dir)

    def sha(p):
        with open(p, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()

    # replay epoch 2's merge for pid 0 out-of-band (the zombie)
    epochs = discover_epochs(wal)
    parts = [
        prepare_and_split(read_wal_file(f), 4)[0] for f in epochs[2]
    ]
    # prior composition AS OF epoch 1 (what the original merge saw)
    prior_files = Lake(lake_dir).current_file_sets(as_of=1)[0]
    from image_report_ray.state.merge import fold_state_tables
    import pyarrow.parquet as pq

    prior = fold_state_tables([pq.read_table(p) for p in prior_files])
    entry = Lake(lake_dir).current_entries()[0]
    state_path = os.path.join(lake_dir, entry["file"])
    view_path = os.path.join(lake_dir, entry["views"]["conv_summary"])
    before_state, before_view = sha(state_path), sha(view_path)
    # the same watermark the original epoch-2 merge saw
    prior_lsn = int(Lake(lake_dir).read_commit(1)["partitions"]["0"]["last_lsn"])

    row = merge_partition_kernel(
        0, parts, prior, prior_lsn,
        lake_root=lake_dir, epoch=2, track_hot_keys=3,
        view_names=("conv_summary",),
    )
    assert row is not None and row["digest"] == entry["digest"]
    assert sha(state_path) == before_state
    assert sha(view_path) == before_view
    from image_report_ray.cli import main

    assert main(["validate", lake_dir]) == 0


def test_dedup_conversations_on_replayed_lake(ray_session, tmp_path, monkeypatch):
    """Two conversations replaying identical content under different ids
    collapse to the lexicographically-smallest conv_id; distinct
    conversations keep. Runs against a hand-built lake through the same
    partition-local flatten + hash exchange as the query."""
    import ray.data as rd

    from image_report_ray.pipelines import cdcq
    from image_report_ray.pipelines.cdcq import cdc_dedup_conversations

    lake = Lake(str(tmp_path / "lake"), num_partitions=4)
    cfg = EngineConfig(num_partitions=4)

    def conv(conv_id, texts, lsn0):
        n = len(texts)
        return pa.table(
            {"lsn": pa.array(range(lsn0, lsn0 + n), pa.int64()),
             "op": pa.array(["I"] * n),
             "conv_id": pa.array([conv_id] * n),
             "turn_idx": pa.array(range(n), pa.int32()),
             "role": pa.array(["user", "assistant"] * (n // 2 + 1))[:n],
             "text": pa.array(texts),
             "tool": pa.array([None] * n, pa.string()),
             "ts": pa.array([lsn0 + i for i in range(n)], pa.timestamp("us"))}
        )

    same = ["hello", "world hello", "bye"]
    ch = pa.concat_tables([
        conv("conv-x", same, 0),
        conv("conv-a", same, 10),        # identical content, smaller id
        conv("conv-m", same, 20),        # identical content, middle id
        conv("conv-z", ["different"], 30),
    ])
    apply_epoch(lake, 0, rd.from_arrow(ch), cfg)

    monkeypatch.setattr(cdcq, "_full_lake", lambda sf: Lake(lake.root))
    t = cdc_dedup_conversations("ignored")
    rows = {r["conv_id"]: r for r in t.to_pylist()}
    assert rows["conv-a"]["keep"] and rows["conv-a"]["canonical_conv_id"] == "conv-a"
    for dup in ("conv-m", "conv-x"):
        assert not rows[dup]["keep"]
        assert rows[dup]["canonical_conv_id"] == "conv-a"
    assert rows["conv-z"]["keep"]
    assert rows["conv-a"]["n_turns"] == 3 and rows["conv-z"]["n_turns"] == 1


def test_follow_with_concurrent_changefeed_consumer(ray_session, tmp_path):
    """The full deployment loop: a producer publishes epochs while
    `tail_job` follows, and a CDC consumer catches up via cursor-style
    range feeds BETWEEN publishes (reads against a lake that is being
    written — safe, snapshots are immutable). The consumer's replayed
    state must converge to the lake's canonical state."""
    import threading
    import time as _time

    from image_report_ray.pipelines.cdc import (
        changefeed_range,
        canonical_state_table,
        tail_job,
    )

    src = str(tmp_path / "src")
    live = str(tmp_path / "live")
    os.makedirs(live)
    write_wal(src, n_epochs=4, epoch_size=300, **GEN)
    cfg = EngineConfig(num_partitions=4)
    lake_dir = str(tmp_path / "lake")

    totals = {}

    def run_tail():
        totals.update(
            tail_job(lake_dir, live, cfg, poll_interval=0.1, idle_timeout=3.0)
        )

    th = threading.Thread(target=run_tail)
    th.start()

    consumer: dict = {}
    cursor = -1
    try:
        for e in range(4):
            os.symlink(f"{src}/epoch={e:05d}", f"{live}/epoch={e:05d}")
            # wait for the follower to commit it
            deadline = _time.monotonic() + 20
            while _time.monotonic() < deadline:
                if os.path.exists(
                    os.path.join(lake_dir, "_commits", f"epoch={e:05d}.json")
                ):
                    break
                _time.sleep(0.05)
            else:
                raise AssertionError(f"follower never committed epoch {e}")
            # consumer catch-up: net feed (cursor, e], then advance
            feed = changefeed_range(Lake(lake_dir), cursor, e)
            for r in feed.to_pylist():
                k = (r["conv_id"], r["turn_idx"])
                if r["op"] == "D":
                    consumer.pop(k, None)
                else:
                    consumer[k] = (r["role"], r["text"])
            cursor = e
    finally:
        th.join(timeout=30)
    assert not th.is_alive()
    assert totals["epochs_applied"] == 4

    want = {
        (r["conv_id"], r["turn_idx"]): (r["role"], r["text"])
        for r in canonical_state_table(Lake(lake_dir)).to_pylist()
    }
    assert consumer == want


def test_changefeed_range_across_schema_evolution(ray_session, tmp_path):
    """A range feed spanning the epoch where an evolved column first
    appears carries that column (nulls for rows untouched since) and
    still nets correctly."""
    d = str(tmp_path / "wal")
    write_wal(d, n_epochs=4, epoch_size=300, seed=5, n_convs=40, max_turns=8,
              evolve_from_epoch=2)
    cfg = EngineConfig(num_partitions=4)
    lake_dir = str(tmp_path / "lake")
    run_job(lake_dir, d, cfg)
    lake = Lake(lake_dir)

    from image_report_ray.pipelines.cdc import changefeed_range

    feed = changefeed_range(lake, 0, 3)  # crosses the evolution at epoch 2
    assert "meta" in feed.column_names
    # replaying (0,3] over the epoch-0 snapshot reaches the head
    from image_report_ray.pipelines.cdc import canonical_state_table

    base = {
        (r["conv_id"], r["turn_idx"]): r
        for r in canonical_state_table(lake, as_of=0).to_pylist()
    }
    state = {k: (v["role"], v["text"], v.get("meta")) for k, v in base.items()}
    for r in feed.to_pylist():
        k = (r["conv_id"], r["turn_idx"])
        if r["op"] == "D":
            state.pop(k, None)
        else:
            state[k] = (r["role"], r["text"], r.get("meta"))
    want = {
        (r["conv_id"], r["turn_idx"]): (r["role"], r["text"], r.get("meta"))
        for r in canonical_state_table(lake).to_pylist()
    }
    assert state == want


def test_single_partition_lake_lifecycle(ray_session, tmp_path):
    """Degenerate P=1 lake: replay, oracle equality, changefeed, expire
    and vacuum all work (exchange/migration code paths guard P<2)."""
    import pyarrow.compute as _pc

    d = str(tmp_path / "wal")
    write_wal(d, n_epochs=2, epoch_size=300, **GEN)
    cfg = EngineConfig(num_partitions=1)
    lake_dir = str(tmp_path / "lake")
    summary = run_job(lake_dir, d, cfg)
    assert summary["epochs_applied"] == 2
    lake = Lake(lake_dir)
    got = canonical_state_table(lake)
    assert got.equals(apply_naive(full_changelog(2, 300, **GEN)))

    from image_report_ray.pipelines.cdc import (
        changefeed,
        expire_turns,
        vacuum_lake,
    )

    assert changefeed(lake, 1).num_rows > 0
    cutoff = int(
        _pc.approximate_median(got.column("ts").cast(pa.int64())).as_py()
    )
    assert expire_turns(Lake(lake_dir), cutoff, cfg)["expired"] > 0
    vacuum_lake(Lake(lake_dir), keep_epochs=0)
    from image_report_ray.cli import main

    assert main(["validate", lake_dir]) == 0


def test_crash_fuzz_random_points_resume_byte_identical(
    ray_session, tmp_path, wal
):
    """Randomized exactly-once fuzz: inject a different crash artifact
    per seed — deleted commit record, stranded ``.inprogress`` partial
    write, stranded commit ``.tmp``, or a CORRUPT (truncated) orphan
    data file of an uncommitted epoch — then resume with ``run_job``.
    Every scenario must land on the oracle state AND byte-identical
    per-partition digests vs an uninterrupted reference run."""
    import numpy as np

    cfg = EngineConfig(num_partitions=8)
    ref_dir = str(tmp_path / "ref")
    run_job(ref_dir, wal, cfg)
    ref = {p: e["digest"] for p, e in Lake(ref_dir).current_entries().items()}
    gold = golden()

    epochs = discover_epochs(wal)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        lake_dir = str(tmp_path / f"fuzz{seed}")
        lake = Lake(lake_dir, num_partitions=8)
        crash_epoch = int(rng.integers(1, 3))
        for e in range(crash_epoch + 1):
            apply_epoch(lake, e, epochs[e], cfg)
        mode = ["drop_commit", "inprogress", "commit_tmp", "corrupt"][seed]
        if mode == "drop_commit":
            os.remove(lake.commit_path(crash_epoch))
        elif mode == "inprogress":
            os.remove(lake.commit_path(crash_epoch))
            pid = int(rng.integers(0, 8))
            strand = lake.data_path(crash_epoch, pid) + ".inprogress"
            with open(strand, "wb") as f:
                f.write(b"partial write, not parquet")
        elif mode == "commit_tmp":
            os.replace(lake.commit_path(crash_epoch),
                       lake.commit_path(crash_epoch) + ".tmp")
        elif mode == "corrupt":
            os.remove(lake.commit_path(crash_epoch))
            pid = int(rng.integers(0, 8))
            path = lake.data_path(crash_epoch, pid)
            if os.path.exists(path):
                with open(path, "r+b") as f:  # truncate the orphan
                    f.truncate(17)
        assert crash_epoch not in Lake(lake_dir).committed_epochs()

        summary = run_job(lake_dir, wal, cfg)
        assert summary["epochs_applied"] == 3 - crash_epoch
        assert canonical_state_table(Lake(lake_dir)).equals(gold), mode
        got = {p: e["digest"]
               for p, e in Lake(lake_dir).current_entries().items()}
        assert got == ref, f"digest drift after {mode} crash"
