"""Engine benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload replay-hot --seed 1 --seconds 15 --trace 0

``--trace 0`` is the timed run: three set-ups (each a fresh Ray session,
worker warm-up, warm-lake build and a verified warm-up read; the median is
``setup_s``), then the measured phase with tracing off. Ingest and reads
are reported as CPU time of the benchmark process and its Ray processes
(which time the hypervisor gives to other guests and time spent waiting
for a CPU do not inflate) in reference units: each divided by the CPU
time of the fixed reference ops run nearest to it (``calib.py``), and
the median (ingest) or interquartile mean (reads) taken. Their wall and
raw CPU times go to the details file. ``--trace 1`` is the per-layer
run: one set-up, the workload once untraced and once traced (every
public call in a span), then a single-process kernel pass over the same
epochs and reads. Both print, as the last line of stdout,
``{"correct", "attempted", "failed", "metrics"}``; details (tail
percentiles with their sample counts, failure reasons, span self times)
go to ``perfbench/out/``. See ``README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
# Each set-up starts a fresh Ray session and takes 5-8 s; three, with
# --seconds 15, keep a run of either workload under about 60 s even when
# the hypervisor takes a third of the host's CPU time.
SETUP_REPS = 3


def _code_hash() -> str:
    """Hash of the engine sources: work dirs of two commits never mix."""
    h = hashlib.sha256()
    pkg = os.path.join(REPO, "image_report_ray")
    for root, dirs, files in os.walk(pkg):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                p = os.path.join(root, f)
                h.update(os.path.relpath(p, pkg).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:12]


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile that still has
    10 samples above it; the median when there are too few samples."""
    v = sorted(values)
    n = len(v)
    if n >= 21:
        return v[n - 11], 100.0 * (n - 10) / n, n
    return statistics.median(v), 50.0, n


def tiny(spec: dict) -> dict:
    """A seconds-long version of a workload for the self-test."""
    small = dict(spec, partitions=4,
                 gen=dict(spec["gen"], n_convs=150, n_hot=5, max_turns=8))
    if spec["kind"] == "follow":
        return dict(small, n_epochs=8, epoch_size=200, warm_epochs=4,
                    asof=[3], feeds=[4])
    return dict(small, epoch_size=400)


def _samples(run) -> dict:
    return {"ingest": run.ingest, "written": run.written, "lags": run.lags}


def _ev_per_s(ingest: list) -> float:
    """Median over ingest samples of events ÷ wall."""
    return statistics.median(n / w for n, w, _, _ in ingest)


def _cpu_per_kevent(ingest: list, ref=None) -> float:
    """Median over ingest samples of CPU seconds per 1000 events, in
    seconds or, given the run's ``calib.Reference``, in reference units."""
    return statistics.median(1e3 * c / n / (ref.around(r) if ref else 1.0)
                             for n, _, c, r in ingest)


def _read_cpu(samples: list, ref=None) -> float:
    """Interquartile mean over reads (the mean of the middle half) of CPU
    seconds or, given the run's ``calib.Reference``, of CPU seconds in
    reference units, each read against the reference ops within 5 of it.
    Reads are short, so one read's ratio is noisy; the mean of the middle
    half uses more of the samples than the median and still drops the
    outliers."""
    v = sorted(c / (ref.around(r, reach=5) if ref else 1.0)
               for c, r in samples)
    k = len(v) // 4
    return statistics.mean(v[k:len(v) - k])


def timed(run, session, details: dict) -> dict:
    from spans import NullTracer

    from session import RssSampler, cpu_times, steal_frac

    null = NullTracer()
    setup_s = []
    for i in range(SETUP_REPS):
        if i:
            session.stop()
        t0 = time.perf_counter()
        session.start()
        d = run.setup(null, split=False)
        setup_s.append(time.perf_counter() - t0)
        run.reset_samples()
    cpu0 = cpu_times()
    with RssSampler() as rss:
        run.measure(d, null, split=False)
    details["host_steal_frac"] = steal_frac(cpu0, cpu_times())
    ingest, written, lags = run.ingest, run.written, run.lags
    lag_tail = tail(lags)
    epoch_tail = tail(run.epoch_cpu) if run.epoch_cpu else (None, None, 0)
    details.update(
        reference_cpu_s=run.ref.cpu_s,
        cpu_s={"ingest_per_kevent": _cpu_per_kevent(ingest),
               **{f"read_{k}": _read_cpu(v)
                  for k, v in run.read_cpu.items()}},
        read_cpu_s=run.read_cpu,
        setup_s=setup_s,
        reads_per_kind={k: len(v) for k, v in run.reads.items()},
        ingest_samples=ingest,
        # wall-clock figures, not gated: they follow the host's load
        wall={
            "ingest_events_per_s": _ev_per_s(ingest),
            "freshness_lag_s_p50": statistics.median(lags),
            "freshness_lag_s_tail": lag_tail[0],
            "lag_tail_percentile": lag_tail[1], "lag_samples": lag_tail[2],
            "lags_s": lags,
            **{f"read_{k}_s_p50": statistics.median(v)
               for k, v in run.reads.items()},
        },
        epoch_cpu_s={"p50": statistics.median(run.epoch_cpu)
                     if run.epoch_cpu else None,
                     "tail": epoch_tail[0], "tail_percentile": epoch_tail[1],
                     "samples": epoch_tail[2]},
    )
    ops, cpu, ref = run.ops, run.read_cpu, run.ref
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "ingest_cpu_per_kevent": (_cpu_per_kevent(ingest, ref), "ref"),
        "bytes_written_per_event": (
            sum(b for b, _ in written) / sum(n for _, n in written), "B/event"),
        "read_snapshot_cpu": (_read_cpu(cpu["snapshot"], ref), "ref"),
        "read_asof_cpu": (_read_cpu(cpu["asof"], ref), "ref"),
        "read_changefeed_cpu": (_read_cpu(cpu["changefeed"], ref), "ref"),
        "peak_rss_mb": (rss.peak / 2**20, "MiB"),
        "ok_ops_frac": ((ops.attempted - ops.failed) / ops.attempted, "ratio"),
    }


def traced(run, session, details: dict, out_prefix: str) -> dict:
    from spans import NullTracer, Tracer

    from image_report_ray.pipelines.cdc import canonical_state_table
    from image_report_ray.state.merge import table_digest
    from kernel import kernel_pass
    from session import TreeCpu, cpu_times, steal_frac

    null = NullTracer()
    t0 = time.perf_counter()
    session.start()
    d = run.setup(null, split=False)
    setup_s = time.perf_counter() - t0
    runjob_ingest = run.ingest
    # Both passes do the same fixed work, so their walls and CPU times
    # compare: one replay (which also keeps the counts exact), one
    # follower cycle.
    run.seconds = 0

    run.reset_samples()
    cpu0 = cpu_times()
    cpu = TreeCpu()
    cpu.start()
    t0 = time.perf_counter()
    d = run.setup(null, split=True)
    run.measure(d, null, split=True, min_reps=1)
    untraced_wall = time.perf_counter() - t0
    untraced_cpu = cpu.stop()
    untraced = _samples(run)

    run.reset_samples()
    tr = Tracer()
    cpu.start()
    t0 = time.perf_counter()
    with tr.span("bench.pass"):
        d = run.setup(tr, split=True)
        run.measure(d, tr, split=True, min_reps=1)
    traced_wall = time.perf_counter() - t0
    traced_cpu = cpu.stop()
    host_steal = steal_frac(cpu0, cpu_times())
    traced_ingest = run.ingest
    ledger, injected = dict(run.ledger), run.injected_dups
    compactions = run.count_compactions(d)

    if run.spec["kind"] == "replay":
        # run_job's own rate on the same epochs, beside the split drive
        run.reset_samples()
        run.measure(d, null, split=False, min_reps=1)
        runjob_ingest = run.ingest

    epochs = list(range(run.spec["n_epochs"]))
    d = run.fresh_dirs()
    run.land(d, epochs)
    kt = Tracer()
    with kt.span("bench.kernel"):
        c = kernel_pass(run, d, kt, epochs)
    final = run.oracle["snap_digest"][str(epochs[-1])]
    run.ops.record(table_digest(canonical_state_table(run.lake(d))) == final,
                   "kernel pass final state differs from oracle")

    st, ks, kt_tot = tr.self_times(), kt.self_times(), kt.totals()
    z = lambda m, k: m.get(k, 0.0)  # noqa: E731
    kernel_ingest_s = (z(kt_tot, "bench.kernel.epoch")
                       - z(kt_tot, "stages.derive.validate_changes")
                       - z(kt_tot, "state.merge.compact_changes"))
    kernel_evs = c["wal_rows"] / kernel_ingest_s
    engine_evs = _ev_per_s(untraced["ingest"])
    tr.write(out_prefix + "-spans.jsonl")
    kt.write(out_prefix + "-kernel-spans.jsonl")
    # the traced wall = engine-call self times + Ray map wait + benchmark
    # self times (landing, checks, idle) + the unattributed remainder
    details.update(
        traced_self_s=st, kernel_self_s=ks,
        pass_cpu_s={"untraced": untraced_cpu, "traced": traced_cpu},
        accounting={
            "traced_wall_s": traced_wall,
            "engine_calls_s": sum(v for k, v in st.items()
                                  if k.startswith("pipelines.")),
            "ray_map_wait_s": z(st, "ray.map_wait"),
            "bench_s": sum(v for k, v in st.items()
                           if k.startswith("bench.") and k != "bench.pass"),
            "unattributed_s": z(st, "bench.pass"),
        })
    return {
        "sources.wal.read_s": (z(ks, "sources.wal.read_wal_file"), "s"),
        "sources.wal.rows": (c["wal_rows"], "count"),
        "sources.wal.bytes": (c["wal_bytes"], "B"),
        "stages.derive.validate_s": (z(ks, "stages.derive.validate_changes"), "s"),
        "stages.derive.rows_rejected": (c["rejected"], "count"),
        "state.merge.compact_s": (z(ks, "state.merge.compact_changes"), "s"),
        "state.merge.compact_rows_in": (c["compact_in"], "count"),
        "state.merge.compact_rows_out": (c["compact_out"], "count"),
        "state.merge.compact_keep_ratio": (c["compact_out"] / c["compact_in"], "ratio"),
        "pipelines.cdc.split_s": (
            z(ks, "pipelines.cdc.prepare_and_split")
            - z(ks, "stages.derive.validate_changes")
            - z(ks, "state.merge.compact_changes"), "s"),
        "pipelines.cdc.rows_shuffled": (c["shuffled_rows"], "count"),
        "pipelines.cdc.bytes_shuffled": (c["shuffled_bytes"], "B"),
        "pipelines.cdc.partition_skew": (c["partition_skew"], "ratio"),
        "pipelines.cdc.map_wait_s": (z(st, "ray.map_wait"), "s"),
        "pipelines.cdc.submit_s": (z(st, "pipelines.cdc.submit_map_stage"), "s"),
        "pipelines.cdc.apply_epoch_s": (z(st, "pipelines.cdc.apply_epoch"), "s"),
        "pipelines.cdc.read_calls_s": (
            z(st, "pipelines.cdc.canonical_state_table")
            + z(st, "pipelines.cdc.changefeed"), "s"),
        "pipelines.cdc.compactions": (compactions, "count"),
        "pipelines.cdc.changefeed_diff_s": (z(ks, "pipelines.cdc.diff_snapshots"), "s"),
        "pipelines.cdc.split_drive_events_per_s": (_ev_per_s(traced_ingest), "events/s"),
        "pipelines.cdc.run_job_events_per_s": (_ev_per_s(runjob_ingest), "events/s"),
        "pipelines.cdc.engine_efficiency": (
            engine_evs / (session.num_cpus * kernel_evs), "ratio"),
        "state.merge.merge_s": (z(ks, "state.merge.merge_state_with_changes"), "s"),
        "state.merge.merge_rows_in": (c["merge_rows_in"], "count"),
        "state.merge.fold_s": (z(ks, "state.merge.fold_state_tables"), "s"),
        "state.merge.fold_tables_per_call": (
            c["fold_tables"] / max(c["fold_calls"], 1), "count"),
        "state.merge.digest_s": (z(ks, "state.merge.table_digest"), "s"),
        "state.merge.export_s": (z(ks, "state.merge.export_canonical"), "s"),
        "state.merge.applied": (ledger["applied"], "count"),
        "state.merge.stale_skipped": (ledger["stale_skipped"], "count"),
        "state.merge.dup_skipped": (ledger["dup_skipped"], "count"),
        "state.merge.dup_miscount": (injected - ledger["dup_skipped"], "count"),
        "state.manifest.write_s": (z(ks, "state.manifest.write_state_file"), "s"),
        "state.manifest.files_written": (c["files_written"], "count"),
        "state.manifest.bytes_written": (c["bytes_written"], "B"),
        "state.manifest.commit_s": (z(ks, "state.manifest.commit"), "s"),
        "state.manifest.resolve_s": (z(ks, "state.manifest.current_entries"), "s"),
        "state.manifest.records_read_per_resolve": (
            c["records_read"] / c["resolves"], "count"),
        "state.manifest.read_state_s": (z(ks, "state.manifest.read_state"), "s"),
        "functions.metrics.compute_s": (z(ks, "functions.metrics.compute_metrics"), "s"),
        "xmlreport.write_s": (z(ks, "xmlreport.build_partition_report")
                              + z(ks, "xmlreport.write_report"), "s"),
        "xmlreport.files": (c["xml_files"], "count"),
        "xmlreport.bytes": (c["xml_bytes"], "B"),
        "bench.kernel_events_per_s": (kernel_evs, "events/s"),
        "bench.kernel_unattributed_s": (z(ks, "bench.kernel"), "s"),
        "bench.freshness_lag_s_p50": (statistics.median(untraced["lags"]), "s"),
        "bench.freshness_lag_s_tail": (tail(untraced["lags"])[0], "s"),
        "bench.trace_overhead": (traced_cpu / untraced_cpu - 1, "ratio"),
        "bench.traced_wall_s": (traced_wall, "s"),
        "bench.untraced_wall_s": (untraced_wall, "s"),
        "bench.unattributed_s": (z(st, "bench.pass"), "s"),
        "bench.verify_s": (z(st, "bench.verify") + z(st, "bench.check"), "s"),
        "bench.setup_s": (setup_s, "s"),
        "bench.reference_cpu_s": (statistics.median(run.ref.cpu_s), "s"),
        "bench.host_steal_frac": (host_steal, "ratio"),
    }


def bench(spec: dict, seed: int, seconds: float, trace: bool,
          oracle_hook=None) -> dict:
    """Prepare inputs, run one workload, return the result object."""
    import prep
    from session import Session
    from workloads import Run

    t0 = time.perf_counter()
    cache_dir, oracle = prep.ensure(os.path.join(HERE, ".cache"), spec, seed)
    prep_s = time.perf_counter() - t0
    if oracle_hook:
        oracle_hook(oracle)
    key = prep.cache_key(spec, seed)
    work = os.path.join(HERE, ".work", f"{key}-{_code_hash()}")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    out_prefix = os.path.join(out_dir, f"{spec['name']}-s{seed}-t{int(trace)}")
    run = Run(spec, seed, seconds, work, cache_dir, oracle)
    session = Session(HERE, REPO)
    details: dict = {"prep_s": prep_s, "num_cpus": session.num_cpus}
    try:
        if trace:
            metrics = traced(run, session, details, out_prefix)
            metrics["bench.prep_s"] = (prep_s, "s")
        else:
            metrics = timed(run, session, details)
    finally:
        session.close()
        shutil.rmtree(work, ignore_errors=True)
    ops = run.ops
    details["failures"] = ops.reasons
    with open(out_prefix + ".json", "w") as f:
        json.dump({"metrics": metrics, "details": details}, f, indent=1,
                  default=float)
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    from workloads import SPECS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="seconds-long inputs, for the self-test")
    args = ap.parse_args(argv)
    sys.path.insert(1, REPO)
    # numpy's hugepage madvise stalls on THP compaction (see bench.py); it
    # is read when numpy is imported, and Ray workers inherit it
    os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
    # Ray gives each one-CPU worker a one-thread Arrow pool; the main process's
    # reads get the same, whatever the caller's environment, so their CPU
    # time does not depend on it. Read when pyarrow is first imported.
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    try:
        import image_report_ray.pipelines.cdc  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the engine from {REPO}: {exc}",
              file=sys.stderr)
        return 2
    spec = SPECS[args.workload]
    if args.tiny:
        spec = tiny(spec)
    result = bench(spec, args.seed, args.seconds, bool(args.trace))
    if result["failed"]:
        print(f"perfbench: {result['failed']} failed ops, see perfbench/out/",
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
