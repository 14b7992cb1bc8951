"""Single-process kernel pass: the engine's layer functions called in
engine order over the workload's own epochs and reads, one span per call.

Map side, per map task (files grouped to ``map_task_rows`` as the engine
groups them): ``read_wal_file`` per file, then ``validate_changes`` and
``compact_changes`` on the task's rows, then ``prepare_and_split`` on the
same rows. ``prepare_and_split`` validates and combines internally, so the
routing share (``split_s``) is its time minus the two standalone calls on
the same input, and the standalone calls are left out of the kernel's
engine-equivalent time.

Reduce side, per partition: a delta merge, or (every ``compact_every``-th
link of the chain) a fold of the prior chain plus merge, then
``table_digest``, ``Lake.write_state_file``, ``compute_metrics`` and the
lineage XML; per epoch ``Lake.current_entries`` before and ``Lake.commit``
after. Reads resolve the manifest, fold each partition's chain and export
it; a change feed diffs two such snapshots per partition.
"""

from __future__ import annotations

import os
import time

import numpy as np


def _group(files: list[str], target_rows: int) -> list[list[str]]:
    """Greedy footer-row grouping, the engine's map-task grouping rule."""
    import pyarrow.parquet as pq

    groups, cur, rows = [], [], 0
    for f in files:
        n = pq.read_metadata(f).num_rows
        if cur and rows + n > target_rows:
            groups.append(cur)
            cur, rows = [], 0
        cur.append(f)
        rows += n
    if cur:
        groups.append(cur)
    return groups


def kernel_pass(run, d: dict, tracer, epochs: list[int]) -> dict:
    """Ingest ``epochs`` (landed under ``d['wal']``) into ``d['lake']`` and
    run the workload's read plan once. Returns counts."""
    import pyarrow.parquet as pq

    from image_report_ray.functions.metrics import compute_metrics, select_metrics
    from image_report_ray.pipelines.cdc import (
        diff_snapshots, discover_epochs, prepare_and_split, read_wal_file)
    from image_report_ray.schema import concat_evolving
    from image_report_ray.stages.derive import validate_changes
    from image_report_ray.state.manifest import Lake
    from image_report_ray.state.merge import (
        compact_changes, export_canonical, fold_state_tables,
        merge_state_with_changes, table_digest)
    from image_report_ray.xmlreport import build_partition_report, write_report

    cfg = run.cfg
    P = cfg.num_partitions
    lake = Lake(d["lake"], num_partitions=P)
    mnames = select_metrics(cfg.metrics)
    c = dict.fromkeys((
        "wal_rows", "wal_bytes", "rejected", "compact_in", "compact_out",
        "shuffled_rows", "shuffled_bytes", "merge_rows_in", "fold_calls",
        "fold_tables", "files_written", "bytes_written", "resolves",
        "records_read", "xml_files", "xml_bytes"), 0)
    pid_rows = np.zeros(P, dtype=np.int64)
    wal = discover_epochs(d["wal"])

    def resolve(as_of=None) -> dict[int, dict]:
        with tracer.span("state.manifest.current_entries"):
            cur = lake.current_entries(as_of)
        c["resolves"] += 1
        c["records_read"] += len(
            [e for e in lake.committed_epochs() if as_of is None or e <= as_of])
        return cur

    def chain(entry: dict) -> list[str]:
        return [os.path.join(lake.root, r) for r in entry.get("files") or [entry["file"]]]

    def fold(paths: list[str]):
        with tracer.span("state.manifest.read_state"):
            tabs = [pq.read_table(p) for p in paths]
        c["fold_calls"] += 1
        c["fold_tables"] += len(tabs)
        with tracer.span("state.merge.fold_state_tables"):
            return fold_state_tables(tabs)

    for e in epochs:
        with tracer.span("bench.kernel.epoch", e):
            current = resolve()
            slices: list[list] = [[] for _ in range(P)]
            for group in _group(wal[e], cfg.map_task_rows):
                tabs = []
                for f in group:
                    with tracer.span("sources.wal.read_wal_file", e):
                        tabs.append(read_wal_file(f))
                    c["wal_bytes"] += os.path.getsize(f)
                with tracer.span("schema.concat_evolving", e):
                    t = concat_evolving(tabs)
                c["wal_rows"] += t.num_rows
                with tracer.span("stages.derive.validate_changes", e):
                    v = validate_changes(t)
                with tracer.span("state.merge.compact_changes", e):
                    comp = compact_changes(v)
                c["rejected"] += t.num_rows - v.num_rows
                c["compact_in"] += v.num_rows
                c["compact_out"] += comp.num_rows
                with tracer.span("pipelines.cdc.prepare_and_split", e):
                    parts = prepare_and_split(t, P, lake.salt_keys, lake.salt_factor)
                for pid, s in enumerate(parts):
                    slices[pid].append(s)
                    pid_rows[pid] += s.num_rows
                    c["shuffled_rows"] += s.num_rows
                    c["shuffled_bytes"] += s.nbytes
            entries = {}
            for pid in range(P):
                parts = [s for s in slices[pid] if s.num_rows]
                if not parts:
                    continue
                changes = concat_evolving(parts)
                prev = current.get(pid)
                prior_files = chain(prev) if prev else []
                compact = len(prior_files) + 1 >= cfg.compact_every
                prior = fold(prior_files) if compact and prior_files else None
                c["merge_rows_in"] += changes.num_rows
                with tracer.span("state.merge.merge_state_with_changes", e):
                    state, stats = merge_state_with_changes(
                        prior, changes,
                        prior_last_lsn=prev["last_lsn"] if prev else -1,
                        track_hot_keys=3)
                with tracer.span("state.merge.table_digest", e):
                    digest = table_digest(state)
                rel = os.path.join("data", f"epoch={e:05d}", f"pid={pid:05d}.parquet")
                path = os.path.join(lake.root, rel)
                with tracer.span("state.manifest.write_state_file", e):
                    Lake.write_state_file(state, path)
                c["files_written"] += 1
                c["bytes_written"] += os.path.getsize(path)
                m0 = time.perf_counter()
                with tracer.span("functions.metrics.compute_metrics", e):
                    results, computed, failed = compute_metrics(state, mnames)
                with tracer.span("xmlreport.build_partition_report", e):
                    report = build_partition_report(
                        pid=pid, epoch=e, stats=stats, digest=digest,
                        duration_sec=0.0,
                        metrics={n: (r.text, r.attrs) for n, r in results.items()},
                        metrics_computed=computed, metrics_failed=failed,
                        metrics_duration_sec=time.perf_counter() - m0,
                        params={"num_partitions": P})
                xml = lake.lineage_path(e, pid)
                with tracer.span("xmlreport.write_report", e):
                    write_report(report, xml)
                c["xml_files"] += 1
                c["xml_bytes"] += os.path.getsize(xml)
                entries[pid] = {
                    "file": rel,
                    "files": [rel] if compact else
                    [os.path.relpath(p, lake.root) for p in prior_files] + [rel],
                    "last_lsn": stats.last_lsn, "rows_live": stats.rows_live,
                    "tombstoned": stats.tombstoned, "keys_total": stats.keys_total,
                    "digest": digest, "received": stats.received,
                    "applied": stats.applied,
                }
            with tracer.span("state.manifest.commit", e):
                lake.commit(e, entries)

    def snapshot(as_of, tid) -> dict:
        out = {}
        for pid, entry in sorted(resolve(as_of).items()):
            folded = fold(chain(entry))
            if folded is not None:
                with tracer.span("state.merge.export_canonical", tid):
                    out[pid] = export_canonical(folded)
        return out

    for kind, e in run.read_plan():
        tid = f"read:{kind}:{e}"
        with tracer.span("bench.kernel.read", tid):
            if kind == "changefeed":
                a, b = snapshot(e - 1, tid) if e > 0 else {}, snapshot(e, tid)
                for pid in sorted(set(a) | set(b)):
                    with tracer.span("pipelines.cdc.diff_snapshots", tid):
                        diff_snapshots(a.get(pid), b.get(pid))
            else:
                snapshot(e if kind == "asof" else None, tid)

    c["partition_skew"] = float(pid_rows.max() / max(np.median(pid_rows), 1))
    return c
