"""CLI contract tests (the reference's parse_args/test discipline,
/root/reference/tests/test_parse_args.py): validation errors exit, the
lifecycle commands compose, validate audits honestly."""

from __future__ import annotations

import json
import os

import pytest

from image_report_ray.cli import build_parser, cmd_gen, cmd_validate, main


def test_parser_rejects_bad_values():
    p = build_parser()
    with pytest.raises(SystemExit):
        p.parse_args(["gen", "w", "--epoch-size", "0"])
    with pytest.raises(SystemExit):
        p.parse_args(["gen", "w", "--dup-rate", "1.5"])
    with pytest.raises(SystemExit):
        p.parse_args(["nonsense"])


def test_gen_run_validate_roundtrip(ray_session, tmp_path):
    wal = str(tmp_path / "wal")
    lake = str(tmp_path / "lake")
    assert main(["gen", wal, "--epochs", "2", "--epoch-size", "300",
                 "--conversations", "40", "--parts", "2"]) == 0
    assert main(["run", lake, wal, "--partitions", "4"]) == 0
    # resume is a no-op
    assert main(["run", lake, wal, "--partitions", "4"]) == 0
    assert main(["validate", lake]) == 0


def test_validate_detects_corruption(ray_session, tmp_path, capsys):
    wal = str(tmp_path / "wal")
    lake = str(tmp_path / "lake")
    main(["gen", wal, "--epochs", "1", "--epoch-size", "200",
          "--conversations", "20", "--parts", "1"])
    main(["run", lake, wal, "--partitions", "2"])
    capsys.readouterr()
    # corrupt one committed state file: drop a row
    import pyarrow.parquet as pq

    from image_report_ray.state.manifest import Lake

    lk = Lake(lake)
    pid, entry = next(iter(lk.current_entries().items()))
    path = os.path.join(lk.root, entry["file"])
    t = pq.read_table(path)
    pq.write_table(t.slice(1), path)
    assert main(["validate", lake]) == 1
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["problems"]


def test_logging_flags_parse_and_resolve(tmp_path):
    """Graft of /root/reference/tests/test_parse_args.py: quiet forces the
    console to WARNING, verbose to DEBUG, `run` infers <lake_dir>.ir.log,
    an explicit --log-file wins over inference."""
    import logging

    from image_report_ray.cli import apply_logging_args

    p = build_parser()
    a = apply_logging_args(p.parse_args(["run", "/tmp/lk", "/tmp/wal", "-q"]))
    assert a.log_level_console == "WARNING"
    assert a.log_level_console_int == logging.WARNING
    assert a.log_file == "/tmp/lk.ir.log"

    a = apply_logging_args(p.parse_args(["run", "/tmp/lk", "/tmp/wal", "-v"]))
    assert a.log_level_console_int == logging.DEBUG

    a = apply_logging_args(
        p.parse_args(["run", "/tmp/lk", "/tmp/wal", "--log-file", "x.log",
                      "--log-level-file", "warning"])
    )
    assert a.log_file == "x.log"
    assert a.log_level_file_int == logging.WARNING

    # non-run commands never infer a log file
    a = apply_logging_args(p.parse_args(["validate", "/tmp/lk"]))
    assert a.log_file is None

    with pytest.raises(SystemExit):
        p.parse_args(["run", "lk", "wal", "--log-level-console", "NOPE"])


def test_run_exit_1_on_skipped_files(ray_session, tmp_path, capsys):
    """Keep-going run that dropped unreadable WAL files exits 1 and
    reports the skip count (/root/reference/ir:606-619 policy)."""
    wal = str(tmp_path / "wal")
    lake = str(tmp_path / "lake")
    main(["gen", wal, "--epochs", "1", "--epoch-size", "200",
          "--conversations", "20", "--parts", "2"])
    # corrupt one WAL file at the data level (valid path, bad bytes)
    ep = os.path.join(wal, "epoch=00000")
    victim = sorted(os.listdir(ep))[0]
    with open(os.path.join(ep, victim), "wb") as f:
        f.write(b"not a parquet file")
    capsys.readouterr()
    rc = main(["run", lake, wal, "--partitions", "2", "--continue-on-error",
               "--log-file", str(tmp_path / "run.log")])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1
    assert out["files_skipped"] == 1
    assert out["epochs_applied"] == 1


def test_run_single_partition(ray_session, tmp_path):
    """num_partitions=1 must work, not crash on a bare ObjectRef."""
    wal = str(tmp_path / "wal")
    lake = str(tmp_path / "lake")
    assert main(["gen", wal, "--epochs", "1", "--epoch-size", "100",
                 "--conversations", "10", "--parts", "1"]) == 0
    assert main(["run", lake, wal, "--partitions", "1"]) == 0
    assert main(["validate", lake]) == 0


def test_run_partition_mismatch_is_one_json_error(ray_session, tmp_path,
                                                  capsys):
    """`run` with a partition count the existing lake was not made with
    prints one JSON `error` line and exits 1, leaving the lake as it was."""
    wal = str(tmp_path / "wal")
    lake = str(tmp_path / "lake")
    main(["gen", wal, "--epochs", "1", "--epoch-size", "100",
          "--conversations", "10", "--parts", "1"])
    assert main(["run", lake, wal, "--partitions", "2"]) == 0
    capsys.readouterr()
    assert main(["run", lake, wal, "--partitions", "3"]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert "P=2, asked for 3" in json.loads(lines[0])["error"]
    assert main(["validate", lake]) == 0


@pytest.mark.parametrize("argv", [
    ["run", "{lake}", "{wal}", "--partitions", "3"],
    ["run", "{new}", "{wal}", "--partitions", "2", "--salt-key", "hot",
     "--views", "conv_summary"],
    ["run", "{lake}", "{wal}", "--views", "conv_summary"],
    ["reshard", "{lake}", "{new}", "--partitions", "2"],
    ["export", "{lake}", "{out}", "--view", "conv_summary", "--as-of", "0"],
    ["export", "{lake}", "{out}", "--view", "conv_summary"],
    ["changefeed", "{lake}", "--cursor", "{out}", "--from-epoch", "0"],
    ["changefeed", "{lake}"],
])
def test_error_returns_stop_the_session_they_started(
        tmp_path, monkeypatch, capsys, argv):
    """Every error return of a command that started a Ray session tears
    it down (and prints one JSON `error` line, exit 1). No Ray runs: the
    session is reported as started and the teardown is recorded."""
    from image_report_ray import cli
    from image_report_ray.state.manifest import Lake

    lake = str(tmp_path / "lake")
    Lake(lake, num_partitions=2)
    shutdowns = []
    monkeypatch.setattr(cli, "_init_ray", lambda num_cpus: True)
    monkeypatch.setattr(cli, "_shutdown_if", shutdowns.append)
    paths = {"lake": lake, "new": str(tmp_path / "new"),
             "wal": str(tmp_path / "wal"), "out": str(tmp_path / "out")}
    assert main([a.format(**paths) for a in argv]) == 1
    assert shutdowns == [True]
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"]


@pytest.mark.parametrize("argv", [
    ["export", "{missing}", "{out}"],
    ["compact", "{missing}", "--before-lsn", "10"],
    ["expire", "{missing}", "--before-ts", "10"],
    ["reshard", "{missing}", "{out}", "--partitions", "2"],
    ["changefeed", "{missing}", "--epoch", "1"],
    ["vacuum", "{missing}"],
    ["stats", "{missing}"],
    ["validate", "{missing}"],
], ids=lambda argv: argv[0])
def test_missing_lake_is_one_json_error_without_ray(
        tmp_path, monkeypatch, capsys, argv):
    """A lake-reading command on a path with no lake prints one JSON
    `error` line naming it and exits 1. It creates nothing there, and no
    Ray session is left up: the command opens the lake before it would
    start one."""
    from image_report_ray import cli

    started, shutdowns = [], []
    monkeypatch.setattr(cli, "_init_ray",
                        lambda num_cpus: started.append(True) or True)
    monkeypatch.setattr(cli, "_shutdown_if", shutdowns.append)
    missing = str(tmp_path / "missing")
    paths = {"missing": missing, "out": str(tmp_path / "out")}
    assert main([a.format(**paths) for a in argv]) == 1
    assert shutdowns.count(True) == len(started)
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert f"no lake at {missing}" in json.loads(lines[0])["error"]
    assert not os.path.exists(missing)
    assert not os.path.exists(paths["out"])


def test_engine_config_rejects_negative_lookahead():
    from image_report_ray.config import EngineConfig

    with pytest.raises(ValueError, match="epoch_lookahead"):
        EngineConfig(epoch_lookahead=-1)


def test_missing_wal_file_skipped_in_keep_going(ray_session, tmp_path):
    """A file that disappears between discovery and read is an OSError,
    not ArrowInvalid — keep-going must still skip-and-count it."""
    from image_report_ray.config import EngineConfig
    from image_report_ray.pipelines.cdc import run_job
    from image_report_ray.sources.synth import write_wal

    wal = str(tmp_path / "wal")
    write_wal(wal, n_epochs=1, epoch_size=100, n_parts=2, seed=3, n_convs=10)
    ep = os.path.join(wal, "epoch=00000")
    victim = os.path.join(ep, sorted(os.listdir(ep))[0])
    # keep the file discoverable but gone at the OS level (dangling link)
    os.unlink(victim)
    os.symlink(victim + ".gone", victim)
    summary = run_job(
        str(tmp_path / "lake"), wal,
        EngineConfig(num_partitions=2, continue_on_error=True),
    )
    assert summary["files_skipped"] == 1
    assert summary["epochs_applied"] == 1


def test_run_all_metrics_validate_roundtrip(ray_session, tmp_path, capsys):
    """Full integration with the complete metric registry (including the
    textmetrics digests) computed inside merge tasks, then an offline
    validate of manifests + lineage + sha-canonical digests."""
    wal = str(tmp_path / "wal")
    lake = str(tmp_path / "lake")
    assert main(["gen", wal, "--epochs", "2", "--epoch-size", "400",
                 "--conversations", "30", "--parts", "2"]) == 0
    assert main(["run", lake, wal, "--partitions", "4", "--merge-mode", "mor",
                 "--compact-every", "2", "--metrics", "all"]) == 0
    assert main(["validate", lake]) == 0
    # lineage XML carries the text digests
    import glob
    import xml.etree.ElementTree as ET

    xmls = glob.glob(os.path.join(lake, "_lineage", "**", "*.xml"), recursive=True)
    assert xmls
    names = set()
    for x in xmls:
        for m in ET.parse(x).getroot().iter("metric"):
            names.add(m.get("name"))
    assert {"simhash_digest", "minhash_digest", "fingerprint_digest",
            "token_totals"} <= names


def test_export_and_compact_cli_roundtrip(ray_session, tmp_path, capsys):
    """cli export writes the canonical live state (streaming per-partition
    fold) equal to the in-process canonical table; cli compact GCs
    tombstones below the watermark and the lake still validates."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from image_report_ray.pipelines.cdc import canonical_state_table
    from image_report_ray.state.manifest import Lake

    wal = str(tmp_path / "wal")
    lake = str(tmp_path / "lake")
    out = str(tmp_path / "state")
    main(["gen", wal, "--epochs", "2", "--epoch-size", "400",
          "--conversations", "30", "--parts", "2"])
    assert main(["run", lake, wal, "--partitions", "4"]) == 0
    assert main(["export", lake, out]) == 0
    exported = pq.read_table(out)
    expected = canonical_state_table(Lake(lake))
    idx = pc.sort_indices(
        exported, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")]
    )
    assert exported.take(idx).select(expected.column_names).equals(expected)
    capsys.readouterr()
    assert main(["compact", lake, "--before-lsn", "800"]) == 0
    assert main(["validate", lake]) == 0
    # canonical view unchanged by GC (only tombstones dropped)
    assert canonical_state_table(Lake(lake)).equals(expected)


def test_cli_query_list_run_and_unknown(ray_session, tmp_path, capsys):
    """`cli query` surfaces the full registry, runs a pipeline end-to-end
    to parquet, and exits 1 with the name list on an unknown query."""
    import json
    import os

    import pyarrow.parquet as pq

    from image_report_ray.cli import main

    assert main(["query", "--list"]) == 0
    names = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["queries"]
    assert {"dedup_exact", "q1_pricing_summary", "media_resize"} <= set(names)

    out = os.path.join(str(tmp_path), "res.parquet")
    assert main(["query", "text_stats", "/root/testdata/sf0.001",
                 "--out", out]) == 0
    rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rec["rows"] == 500 and rec["out"] == out
    assert pq.read_metadata(out).num_rows == 500

    assert main(["query", "not_a_query", "/root/testdata/sf0.001"]) == 1


def test_export_as_of_snapshot(ray_session, tmp_path, capsys):
    """cli export --as-of writes the epoch-0 snapshot even after later
    epochs committed (manifest time travel)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from image_report_ray.pipelines.cdc import canonical_state_table
    from image_report_ray.state.manifest import Lake

    wal = str(tmp_path / "wal")
    lake = str(tmp_path / "lake")
    out = str(tmp_path / "snap")
    main(["gen", wal, "--epochs", "2", "--epoch-size", "400",
          "--conversations", "30", "--parts", "2"])
    assert main(["run", lake, wal, "--partitions", "4"]) == 0
    assert main(["export", lake, out, "--as-of", "0"]) == 0
    exported = pq.read_table(out)
    expected = canonical_state_table(Lake(lake), as_of=0)
    idx = pc.sort_indices(
        exported, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")]
    )
    assert exported.take(idx).select(expected.column_names).equals(expected)
    assert not canonical_state_table(Lake(lake)).equals(expected)


def test_export_view_with_as_of_rejected(ray_session, tmp_path, capsys):
    """--as-of with --view is refused (views have no snapshot read path)
    instead of silently serving the head view."""
    wal = str(tmp_path / "wal")
    lake = str(tmp_path / "lake")
    main(["gen", wal, "--epochs", "1", "--epoch-size", "200",
          "--conversations", "20", "--parts", "1"])
    assert main(["run", lake, wal, "--partitions", "2",
                 "--views", "conv_summary"]) == 0
    capsys.readouterr()
    rc = main(["export", lake, str(tmp_path / "out"),
               "--view", "conv_summary", "--as-of", "0"])
    assert rc == 1
    assert "not supported with --view" in capsys.readouterr().out


def test_cli_full_lifecycle(ray_session, tmp_path, capsys):
    """Capstone: every lifecycle verb in one flow — gen -> run(+views)
    -> changefeed -> expire -> vacuum -> validate -> reshard ->
    export -> bootstrap a fresh lake from the exported state — with
    state equality checks at each hand-off."""
    import json as _json

    import pyarrow as pa
    import pyarrow.compute as pc

    from image_report_ray.pipelines.cdc import canonical_state_table
    from image_report_ray.state.manifest import Lake

    def run_json(*a):
        assert main(list(a)) == 0
        return _json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    wal = str(tmp_path / "wal")
    lakeA = str(tmp_path / "lakeA")
    run_json("gen", wal, "--epochs", "2", "--epoch-size", "400",
             "--conversations", "30", "--parts", "2")
    run_json("run", lakeA, wal, "--partitions", "8",
             "--views", "conv_summary")

    feed = run_json("changefeed", lakeA, "--epoch", "1",
                    "--out", str(tmp_path / "feed.parquet"))
    assert feed["rows"] > 0 and feed["rows"] == (
        feed["inserts"] + feed["updates"] + feed["deletes"])

    state = canonical_state_table(Lake(lakeA))
    cutoff = int(pc.approximate_median(
        state.column("ts").cast(pa.int64())).as_py())
    exp = run_json("expire", lakeA, "--before-ts", str(cutoff))
    assert exp["expired"] > 0
    vac = run_json("vacuum", lakeA, "--keep-epochs", "0")
    assert vac["files_deleted"] > 0
    assert run_json("validate", lakeA) == {
        "partitions_checked": 8, "problems": []}

    lakeB = str(tmp_path / "lakeB")
    rs = run_json("reshard", lakeA, lakeB, "--partitions", "3")
    assert rs["partitions"] == 3
    assert canonical_state_table(Lake(lakeB)).equals(
        canonical_state_table(Lake(lakeA)))
    assert run_json("validate", lakeB) == {
        "partitions_checked": 3, "problems": []}

    out = str(tmp_path / "exported")
    run_json("export", lakeB, out)
    lakeC = str(tmp_path / "lakeC")
    boot = run_json("bootstrap", out, lakeC, "--partitions", "5")
    assert boot["rows_loaded"] == canonical_state_table(Lake(lakeB)).num_rows
    assert canonical_state_table(Lake(lakeC)).equals(
        canonical_state_table(Lake(lakeB)))
    assert run_json("validate", lakeC) == {
        "partitions_checked": 5, "problems": []}


def test_export_jsonl_roundtrip(ray_session, tmp_path, capsys):
    """export --format jsonl writes newline-delimited shards whose rows
    round-trip to the canonical state."""
    import json as _json
    import os

    from image_report_ray.pipelines.cdc import canonical_state_table
    from image_report_ray.state.manifest import Lake

    wal = str(tmp_path / "wal")
    lake = str(tmp_path / "lake")
    out = str(tmp_path / "jsonl")
    main(["gen", wal, "--epochs", "1", "--epoch-size", "300",
          "--conversations", "25", "--parts", "2"])
    assert main(["run", lake, wal, "--partitions", "4"]) == 0
    assert main(["export", lake, out, "--format", "jsonl"]) == 0
    rows = []
    for f in sorted(os.listdir(out)):
        with open(os.path.join(out, f)) as fh:
            rows += [_json.loads(ln) for ln in fh if ln.strip()]
    want = canonical_state_table(Lake(lake))
    assert len(rows) == want.num_rows
    got = {(r["conv_id"], r["turn_idx"]): r["text"] for r in rows}
    expect = {
        (r["conv_id"], r["turn_idx"]): r["text"] for r in want.to_pylist()
    }
    assert got == expect


def test_stats_reports_lake_health(ray_session, tmp_path, capsys):
    """cli stats reads only manifests and agrees with the lineage-backed
    checkpoint counters."""
    wal = str(tmp_path / "wal")
    lake = str(tmp_path / "lake")
    main(["gen", wal, "--epochs", "2", "--epoch-size", "300",
          "--conversations", "25", "--parts", "2"])
    # COW: every entry is the full partition state -> counters exact
    assert main(["run", lake, wal, "--partitions", "4"]) == 0
    capsys.readouterr()
    assert main(["stats", lake, "--per-partition"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["partitions"] == 4
    assert out["epochs"] == [0, 1]
    assert out["rows_live"] > 0 and out["data_bytes"] > 0
    assert out["max_chain_depth"] == 1 and out["counters_exact"]
    assert len(out["per_partition"]) == 4

    from image_report_ray.pipelines.cdc import canonical_state_table
    from image_report_ray.state.manifest import Lake

    assert out["rows_live"] == canonical_state_table(Lake(lake)).num_rows

    # MOR with an open delta chain: stats must say counters are not
    # authoritative (delta-local entries — the documented trade)
    lake2 = str(tmp_path / "lake2")
    assert main(["run", lake2, wal, "--partitions", "4",
                 "--merge-mode", "mor", "--compact-every", "8"]) == 0
    capsys.readouterr()
    assert main(["stats", lake2]) == 0
    out2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out2["max_chain_depth"] == 2
    assert not out2["counters_exact"]


def test_changefeed_cursor_consumer_loop(ray_session, tmp_path, capsys):
    """--cursor: first run feeds (-1, head] and advances the offset,
    an immediate rerun is a caught-up no-op, new epochs feed only the
    delta, and a crash before the cursor write (simulated by restoring
    the old cursor) re-emits the same range idempotently."""
    import json as _json

    import pyarrow.parquet as _pq

    from image_report_ray.cli import main
    from image_report_ray.sources.synth import write_wal

    wal = str(tmp_path / "wal")
    lake = str(tmp_path / "lake")
    cur = str(tmp_path / "cursor.json")
    paths = write_wal(wal, n_epochs=3, epoch_size=300, seed=19, n_convs=30,
                      max_turns=8)

    def run(*cmd):
        assert main(list(cmd)) == 0
        return _json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    def consume(out_dir, state):
        import glob as _glob

        for p in sorted(_glob.glob(f"{out_dir}/*.parquet")):
            for r in _pq.read_table(p).to_pylist():
                k = (r["conv_id"], r["turn_idx"])
                if r["op"] == "D":
                    state.pop(k, None)
                else:
                    state[k] = r["text"]
        return state

    # epochs 0-1 land; consumer catches up from scratch
    import os as _os
    import shutil as _shutil

    wal2 = str(tmp_path / "wal2")
    _os.makedirs(wal2)
    for e in range(2):
        _os.symlink(f"{wal}/epoch={e:05d}", f"{wal2}/epoch={e:05d}")
    run("run", lake, wal2, "--partitions", "4")
    r1 = run("changefeed", lake, "--cursor", cur, "--out",
             str(tmp_path / "f1"))
    assert r1["from_epoch"] == -1 and r1["epoch"] == 1 and r1["rows"] > 0
    # the emit lands in a range-named subdirectory (no stale-shard mixing
    # across re-emits); the JSON record points at it
    assert r1["out"].endswith("from=-0001-to=00001")
    state = consume(r1["out"], {})

    # caught up -> no-op
    r2 = run("changefeed", lake, "--cursor", cur)
    assert r2.get("caught_up") and r2["rows"] == 0

    # epoch 2 lands; only the delta feeds
    _os.symlink(f"{wal}/epoch={2:05d}", f"{wal2}/epoch={2:05d}")
    run("run", lake, wal2, "--partitions", "4")
    saved = open(cur).read()
    r3 = run("changefeed", lake, "--cursor", cur, "--out",
             str(tmp_path / "f2"))
    assert r3["from_epoch"] == 1 and r3["epoch"] == 2
    state = consume(r3["out"], state)

    # crash replay: old cursor restored -> same range re-emits; applying
    # it again converges to the same state (net-diff idempotence)
    open(cur, "w").write(saved)
    r4 = run("changefeed", lake, "--cursor", cur, "--out",
             str(tmp_path / "f3"))
    assert (r4["from_epoch"], r4["epoch"]) == (r3["from_epoch"], r3["epoch"])
    state2 = consume(r4["out"], dict(state))
    assert state2 == state

    # re-emitting the SAME range into the SAME --out with a different
    # format replaces the range dir's shards — no mixed-format leftovers
    open(cur, "w").write(saved)
    r5 = run("changefeed", lake, "--cursor", cur, "--out",
             str(tmp_path / "f3"), "--format", "jsonl")
    assert r5["out"] == r4["out"]
    import glob as _glob

    assert _glob.glob(f"{r5['out']}/part-*.parquet") == []
    assert len(_glob.glob(f"{r5['out']}/part-*.jsonl")) > 0

    # the converged consumer state == the lake's canonical state
    from image_report_ray.pipelines.cdc import canonical_state_table
    from image_report_ray.state.manifest import Lake

    want = {
        (r["conv_id"], r["turn_idx"]): r["text"]
        for r in canonical_state_table(Lake(lake)).to_pylist()
    }
    assert state == want

    # --cursor and --from-epoch together are refused
    assert main(["changefeed", lake, "--cursor", cur,
                 "--from-epoch", "0"]) == 1
    capsys.readouterr()


def test_changefeed_jsonl_shards(ray_session, tmp_path, capsys):
    """--format jsonl writes the feed as newline-delimited records with
    the same rows the parquet shards carry."""
    import glob as _glob
    import json as _json

    import pyarrow.parquet as _pq

    from image_report_ray.cli import main
    from image_report_ray.sources.synth import write_wal

    wal = str(tmp_path / "wal")
    lake = str(tmp_path / "lake")
    write_wal(wal, n_epochs=2, epoch_size=300, seed=29, n_convs=30,
              max_turns=8)
    assert main(["run", lake, wal, "--partitions", "4"]) == 0
    capsys.readouterr()
    assert main(["changefeed", lake, "--epoch", "1", "--out",
                 str(tmp_path / "fp")]) == 0
    rec_p = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert main(["changefeed", lake, "--epoch", "1", "--out",
                 str(tmp_path / "fj"), "--format", "jsonl"]) == 0
    rec_j = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rec_j["rows"] == rec_p["rows"] > 0

    pq_rows = set()
    for p in _glob.glob(str(tmp_path / "fp" / "*" / "*.parquet")):
        for r in _pq.read_table(p).to_pylist():
            pq_rows.add((r["op"], r["conv_id"], r["turn_idx"]))
    jl_rows = set()
    for p in _glob.glob(str(tmp_path / "fj" / "*" / "*.jsonl")):
        with open(p) as f:
            for line in f:
                r = _json.loads(line)
                jl_rows.add((r["op"], r["conv_id"], r["turn_idx"]))
    assert jl_rows == pq_rows


def test_cli_index_build_and_reuse(ray_session, tmp_path, capsys):
    """`cli index text` builds the content-fingerprinted inverted index
    once and a second invocation reuses it (same dir, near-zero wall);
    keyword_search then auto-routes and stays bit-equal."""
    import json
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from image_report_ray.cli import main
    from image_report_ray.pipelines.text import keyword_search

    d = str(tmp_path)
    rng = np.random.default_rng(9)
    vocab = [f"t{i}" for i in range(20)]
    texts = [" ".join(rng.choice(vocab, rng.integers(5, 15)))
             for _ in range(30)]
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(30), pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * 30),
        "source": pa.array(["s"] * 30),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), os.path.join(d, "documents.parquet"))

    fresh = keyword_search(d)  # no index yet: tokenize route
    assert main(["index", "text", d]) == 0
    rec1 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rec1["meta"]["n_docs"] == 30
    assert main(["index", "text", d]) == 0
    rec2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rec2["index_dir"] == rec1["index_dir"]
    assert rec2["meta"] == rec1["meta"]
    assert keyword_search(d).equals(fresh)  # auto-routed, bit-equal


def test_cli_index_pq_build_and_reuse(ray_session, tmp_path, capsys):
    """`cli index pq` publishes the at-rest PQ codes once, a second
    invocation reuses them, and knn_cosine_pq auto-routes bit-equal."""
    import json
    import os
    import shutil

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from image_report_ray.cli import main
    from image_report_ray.pipelines.similarity import knn_cosine_pq

    d = str(tmp_path)
    rng = np.random.default_rng(41)
    mat = rng.standard_normal((80, 32))
    pq.write_table(pa.table({
        "vec_id": pa.array(np.arange(len(mat)), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in mat],
                               pa.list_(pa.float32())),
    }), os.path.join(d, "embeddings.parquet"))

    fresh = knn_cosine_pq(d)  # no index yet: inline encode route
    assert main(["index", "pq", d]) == 0
    rec1 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rec1["meta"]["n_vectors"] == len(mat)
    assert main(["index", "pq", d]) == 0
    rec2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rec2["index_dir"] == rec1["index_dir"]
    assert rec2["meta"].get("reused") is True
    assert knn_cosine_pq(d).equals(fresh)  # auto-routed, bit-equal
    shutil.rmtree(rec1["index_dir"], ignore_errors=True)
