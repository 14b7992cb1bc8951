"""CLI entry point: ``python -m image_report_ray.cli <command>``.

The flag discipline mirrors the reference's argparse surface
(/root/reference/utils.py:91-207) re-targeted at CDC: validated numeric
ranges, a selection mini-DSL, ``--continue-on-error``, and exit code 1 on
any failure (/root/reference/ir:596-619).

Commands::

    gen       write a deterministic synthetic WAL (epoch-partitioned parquet)
    run       tail a WAL directory into a lake (resumable, exactly-once)
    export    write the lake's canonical live state as parquet
    query     run any named pipeline from the registry over a table dir
    validate  re-check every committed partition: ledger invariants,
              lineage/manifest agreement, state digest

Only this module (and bench.py / the test fixture) owns a Ray session —
the library never calls ``ray.init``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import cache
from .config import EngineConfig, float_0_1, positive_int
from .logging_setup import setup_logging

_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def _init_ray(num_cpus: int | None) -> bool:
    """Init Ray if nobody has; returns True iff THIS call created the
    session. Commands shut down only sessions they created — tearing
    down a caller's session (a pytest fixture's, a notebook's) both
    breaks the caller and destabilizes raylet under repeated
    init/shutdown cycles in one process."""
    import os

    import ray

    # see bench.py: numpy's hugepage madvise stalls on THP compaction
    # under memory fragmentation; workers inherit this from raylet
    os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
    created = False
    if not ray.is_initialized():
        kwargs = {"include_dashboard": False, "logging_level": "ERROR"}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(address="local", **kwargs)
        created = True
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return created


def _shutdown_if(owned: bool) -> None:
    """Tear down the Ray session ONLY if this command created it."""
    if owned:
        import ray

        ray.shutdown()


def cmd_gen(args: argparse.Namespace) -> int:
    from .sources.synth import write_wal

    paths = write_wal(
        args.wal_dir,
        n_epochs=args.epochs,
        epoch_size=args.epoch_size,
        n_parts=args.parts,
        seed=args.seed,
        n_convs=args.conversations,
        max_turns=args.max_turns,
        dup_rate=args.dup_rate,
        hot_frac=args.hot_frac,
    )
    print(json.dumps({"files": len(paths), "wal_dir": args.wal_dir}))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    cfg = EngineConfig(
        num_partitions=args.partitions,
        epoch_lookahead=args.lookahead,
        map_task_rows=args.map_task_rows,
        continue_on_error=args.continue_on_error,
        salt_factor=args.salt_factor,
        metrics=args.metrics,
        merge_mode=args.merge_mode,
        compact_every=args.compact_every,
        compact_rows_factor=getattr(args, "compact_rows_factor", None),
        views=tuple(v for v in (args.views or "").split(",") if v),
    )
    owns = _init_ray(args.num_cpus)
    from .pipelines.cdc import run_job

    if getattr(args, "follow", False):
        from .pipelines.cdc import tail_job

        summary = tail_job(
            args.lake_dir,
            args.wal_dir,
            cfg,
            salt_keys=frozenset(args.salt_key or []),
            poll_interval=args.poll_interval,
            idle_timeout=args.idle_timeout,
        )
    else:
        summary = run_job(
            args.lake_dir,
            args.wal_dir,
            cfg,
            salt_keys=frozenset(args.salt_key or []),
        )
    print(json.dumps(summary))
    _shutdown_if(owns)
    # Honest exit-code policy (/root/reference/ir:606-619): even under
    # keep-going, a run that skipped unreadable WAL files is a FAILED run
    # at the exit-code level — the summary carries the count, the code
    # carries the verdict.
    if summary.get("files_skipped", 0) > 0:
        logging.getLogger("image_report_ray").warning(
            "run skipped %d unreadable WAL file(s)", summary["files_skipped"]
        )
        return 1
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    owns = _init_ray(args.num_cpus)
    from .state.manifest import Lake

    lake = Lake(args.lake_dir)
    if getattr(args, "view", None):
        if getattr(args, "as_of", None) is not None:
            # views have no as-of read path; refuse rather than silently
            # serving the head view labeled as a snapshot
            print(json.dumps(
                {"error": "--as-of is not supported with --view "
                          "(views are maintained at the head commit only)"}
            ))
            return 1
        # export a committed materialized view (state/views.py): the
        # files are already the answer — no aggregation pass
        import pyarrow as pa
        import pyarrow.parquet as pq

        files = lake.current_view_files(args.view)
        if not files:
            print(json.dumps(
                {"error": f"no committed view {args.view!r} in this lake"}
            ))
            return 1
        tabs = [pq.read_table(p) for _, p in sorted(files.items())]
        nonempty = [x for x in tabs if x.num_rows]
        # every partition's view can legitimately be empty (e.g. computed
        # over fully-tombstoned state) — export an empty view, don't crash
        t = (
            pa.concat_tables(nonempty, promote_options="default")
            if nonempty
            else tabs[0].schema.empty_table()
        )
        import os as _os

        _os.makedirs(args.out_dir, exist_ok=True)
        out = _os.path.join(args.out_dir, f"view={args.view}.parquet")
        pq.write_table(t, out)
        print(json.dumps({"rows": t.num_rows, "out_dir": out, "view": args.view}))
        _shutdown_if(owns)
        return 0
    from .pipelines.cdc import canonical_state_dataset

    as_of = getattr(args, "as_of", None)
    ds = canonical_state_dataset(lake, as_of=as_of)
    fmt = getattr(args, "format", "parquet")
    if fmt == "jsonl":
        # JSONL shards for downstream tokenizer pipelines (streaming
        # write, one file per state block — same resumable layout)
        ds.write_json(args.out_dir)
    else:
        ds.write_parquet(args.out_dir)
    print(json.dumps(
        {"rows": ds.count(), "out_dir": args.out_dir, "as_of": as_of,
         "format": fmt}
    ))
    _shutdown_if(owns)
    return 0


def cmd_compact(args: argparse.Namespace) -> int:
    owns = _init_ray(args.num_cpus)
    from .pipelines.cdc import gc_tombstones
    from .state.manifest import Lake

    lake = Lake(args.lake_dir)
    res = gc_tombstones(lake, before_lsn=args.before_lsn)
    print(json.dumps(res))
    _shutdown_if(owns)
    return 0


def cmd_expire(args: argparse.Namespace) -> int:
    """TTL retention: physically drop turns older than --before-ts via a
    GC-style rewrite commit (consumes no lsns or WAL epochs, so future
    events still win; snapshots at or after the fold point no longer
    serve the expired rows)."""
    owns = _init_ray(args.num_cpus)
    from .pipelines.cdc import expire_turns
    from .state.manifest import Lake

    cutoff = args.before_ts
    if not cutoff.lstrip("-").isdigit():
        import pandas as pd

        cutoff = pd.Timestamp(cutoff).value // 1000  # ns -> us
    else:
        cutoff = int(cutoff)
    lake = Lake(args.lake_dir)
    res = expire_turns(lake, cutoff)
    print(json.dumps(res))
    _shutdown_if(owns)
    return 0


def cmd_reshard(args: argparse.Namespace) -> int:
    """Migrate the lake's current state to a new lake with a different
    partition count (P is immutable per lake); the WAL stream resumes on
    the new lake at the next epoch number."""
    owns = _init_ray(args.num_cpus)
    from .pipelines.cdc import reshard_lake
    from .state.manifest import Lake

    res = reshard_lake(Lake(args.src_lake), args.dst_lake, args.partitions)
    print(json.dumps(res))
    _shutdown_if(owns)
    return 0


def cmd_bootstrap(args: argparse.Namespace) -> int:
    """Bootstrap a lake from an existing plain transcripts Parquet table
    (migration INTO the engine); start the WAL at epoch+1."""
    owns = _init_ray(args.num_cpus)
    from .pipelines.cdc import bootstrap_lake

    res = bootstrap_lake(
        args.src_parquet, args.lake_dir, args.partitions, epoch=args.epoch
    )
    print(json.dumps(res))
    _shutdown_if(owns)
    return 0


def cmd_changefeed(args: argparse.Namespace) -> int:
    """Emit the row-level change feed of a committed epoch (the net diff
    of two time-travel snapshots, folding only the conversations the
    newer delta files touch when the range added nothing but deltas) as
    parquet or a JSON row count.

    Consumer-offset mode (``--cursor FILE``): the feed range resumes
    after the cursor's last consumed epoch and runs to the lake head
    (or ``--epoch``); the cursor file advances ATOMICALLY after the feed
    is fully written. A crash between emit and cursor write re-emits the
    same range on the next run — safe, because a range feed is the NET
    state diff and applying it twice is idempotent for any
    state-applying consumer. Already-caught-up runs are no-ops."""
    owns = _init_ray(args.num_cpus)
    import ray

    from .pipelines.cdc import changefeed_range_refs
    from .state.manifest import Lake

    lake = Lake(args.lake_dir)
    cursor_path = getattr(args, "cursor", None)
    if cursor_path:
        cursor_epoch = -1
        if os.path.exists(cursor_path):
            with open(cursor_path) as f:
                cursor_epoch = int(json.load(f)["last_epoch"])
        head = (
            args.epoch if getattr(args, "epoch", None) is not None
            else max(lake.committed_epochs(), default=-1)
        )
        if getattr(args, "from_epoch", None) is not None:
            print(json.dumps(
                {"error": "--cursor and --from-epoch are mutually "
                          "exclusive (the cursor IS the from-epoch)"}
            ))
            return 1
        if head <= cursor_epoch:
            print(json.dumps(
                {"epoch": head, "from_epoch": cursor_epoch, "rows": 0,
                 "caught_up": True, "cursor": cursor_path}
            ))
            _shutdown_if(owns)
            return 0
        from_epoch, to_epoch = cursor_epoch, head
    else:
        if getattr(args, "epoch", None) is None:
            print(json.dumps(
                {"error": "--epoch is required without --cursor"}
            ))
            return 1
        to_epoch = args.epoch
        from_epoch = (
            args.from_epoch if getattr(args, "from_epoch", None) is not None
            else args.epoch - 1
        )
    refs = changefeed_range_refs(lake, from_epoch, to_epoch)
    out_dir = args.out
    if out_dir:
        # each emit lands in a RANGE-NAMED subdirectory so repeated
        # --cursor runs (or a --format switch / post-reshard shrink in
        # shard count) never mix this range's shards with a previous
        # range's leftovers — a glob-reading consumer sees exactly one
        # coherent emit per directory
        out_dir = os.path.join(
            args.out, f"from={from_epoch:05d}-to={to_epoch:05d}"
        )
    if out_dir:
        # scale path: each partition's feed is written by a remote task
        # (sharded, resumable layout) — the whole epoch never gathers
        # on the driver; only per-shard op counts come back
        os.makedirs(out_dir, exist_ok=True)
        # idempotent re-emit into an existing range dir must REPLACE its
        # shards, not interleave with stale ones (e.g. a format switch)
        import glob as _glob

        for stale in _glob.glob(os.path.join(out_dir, "part-*")):
            os.remove(stale)
        fmt = getattr(args, "format", "parquet") or "parquet"

        @ray.remote
        def write_shard(t, path: str, fmt: str) -> dict:
            if fmt == "jsonl":
                # the log-shipping shape CDC consumers ingest directly
                import pandas as _pd  # noqa: F401  (to_pandas path)

                t.to_pandas().to_json(
                    path, orient="records", lines=True, date_format="iso"
                )
            else:
                import pyarrow.parquet as pq

                from image_report_ray.state.manifest import PARQUET_OPTS

                pq.write_table(t, path, **PARQUET_OPTS)
            ops = t.column("op").to_pylist()
            return {"rows": t.num_rows, "I": ops.count("I"),
                    "U": ops.count("U"), "D": ops.count("D")}

        ext = "jsonl" if fmt == "jsonl" else "parquet"
        counts = ray.get([
            write_shard.remote(
                r, os.path.join(out_dir, f"part-{i:05d}.{ext}"), fmt
            )
            for i, r in enumerate(refs)
        ])
    else:
        counts = []
        for t in ray.get(refs):
            ops = t.column("op").to_pylist()
            counts.append({"rows": t.num_rows, "I": ops.count("I"),
                           "U": ops.count("U"), "D": ops.count("D")})
    if cursor_path:
        # feed fully written -> advance the consumer offset atomically
        tmp = cursor_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump({"last_epoch": int(to_epoch)}, f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, cursor_path)
    print(json.dumps(
        {"epoch": to_epoch,
         "from_epoch": from_epoch,
         "rows": sum(c["rows"] for c in counts),
         "inserts": sum(c["I"] for c in counts),
         "updates": sum(c["U"] for c in counts),
         "deletes": sum(c["D"] for c in counts),
         "out": out_dir,
         "cursor": cursor_path}
    ))
    _shutdown_if(owns)
    return 0


def cmd_vacuum(args: argparse.Namespace) -> int:
    """Physically delete data files no retained snapshot references
    (completes PII destruction after expire; breaks time travel below
    the horizon — that is the point)."""
    from .pipelines.cdc import vacuum_lake
    from .state.manifest import Lake

    res = vacuum_lake(Lake(args.lake_dir), keep_epochs=args.keep_epochs)
    print(json.dumps(res))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Lake health at a glance, from manifests only (no data reads):
    per-partition live/tombstone/key counts, delta-chain depth, epochs,
    GC seqs, view coverage and on-disk bytes. Under an un-compacted MOR
    chain the newest entry's counters are DELTA-local (the documented
    MOR trade: exact totals need a fold) — ``counters_exact`` says
    whether the counts are authoritative."""
    import os

    from .state.manifest import Lake

    lake = Lake(args.lake_dir)
    entries = lake.current_entries()
    sets = lake.current_file_sets()
    parts = {}
    for pid, e in sorted(entries.items()):
        parts[str(pid)] = {
            "rows_live": e["rows_live"],
            "tombstoned": e["tombstoned"],
            "keys_total": e["keys_total"],
            "last_lsn": e["last_lsn"],
            "chain_depth": len(sets.get(pid, [])),
            "views": sorted((e.get("views") or {})),
        }
    data_bytes = 0
    for root, _, files in os.walk(os.path.join(lake.root, "data")):
        for f in files:
            try:
                data_bytes += os.path.getsize(os.path.join(root, f))
            except OSError:
                pass
    out = {
        "partitions": len(entries),
        "epochs": lake.committed_epochs(),
        "gc_seqs": lake.gc_seqs(),
        "rows_live": sum(e["rows_live"] for e in entries.values()),
        "tombstoned": sum(e["tombstoned"] for e in entries.values()),
        "keys_total": sum(e["keys_total"] for e in entries.values()),
        "max_chain_depth": max(
            (len(p) for p in sets.values()), default=0
        ),
        "counters_exact": all(len(p) == 1 for p in sets.values()),
        "data_bytes": data_bytes,
    }
    if args.per_partition:
        out["per_partition"] = parts
    print(json.dumps(out))
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """Run any named pipeline from the engine's query registry over a
    standard table directory — the user-facing surface of every operator
    the driver contract exposes. ``--list`` enumerates; ``--out`` writes
    the result parquet."""
    from .pipelines.registry import query_registry

    reg = query_registry()
    if args.list:
        print(json.dumps({"queries": sorted(reg)}))
        return 0
    if not args.name or not args.data_dir:
        print(json.dumps({"error": "query NAME DATA_DIR required (or --list)"}))
        return 1
    if args.name not in reg:
        print(json.dumps(
            {"error": f"unknown query {args.name!r}", "queries": sorted(reg)}
        ))
        return 1
    owns = _init_ray(args.num_cpus)
    import time

    t0 = time.perf_counter()
    table = reg[args.name](args.data_dir)
    wall = time.perf_counter() - t0
    out = {
        "query": args.name,
        "rows": table.num_rows,
        "columns": table.column_names,
        "wall_sec": round(wall, 3),
    }
    if args.out:
        import pyarrow.parquet as pq

        pq.write_table(table, args.out)
        out["out"] = args.out
    print(json.dumps(out))
    _shutdown_if(owns)
    return 0


def cmd_index(args: argparse.Namespace) -> int:
    """Build (or reuse) one of the engine's physical at-rest indexes.
    Each build is content-fingerprinted and idempotent: a second
    invocation over unchanged data returns the existing meta without
    touching the layout, and the matching queries (keyword/bm25 search,
    embedding near-dup, ANN top-k) auto-route through the index."""
    owns = _init_ray(args.num_cpus)
    import time

    t0 = time.perf_counter()
    if args.kind == "text":
        from .pipelines.text import _text_index_dir, build_text_index

        meta = build_text_index(args.data_dir)
        where = _text_index_dir(args.data_dir)
    elif args.kind == "lsh":
        from .pipelines.similarity import _lsh_index_dir, build_lsh_index

        meta = build_lsh_index(args.data_dir)
        where = _lsh_index_dir(args.data_dir)
    elif args.kind == "pq":
        import numpy as np

        from .pipelines.similarity import _pq_index_dir, build_pq_index

        def reused_pq(path: str) -> dict:
            st = np.load(os.path.join(path, "codebooks.npy"))
            return {"m": int(st.shape[0]), "k": int(st.shape[1]),
                    "subdim": int(st.shape[2]), "reused": True}

        where = _pq_index_dir(args.data_dir)
        meta = cache.get_or_build(
            where, lambda tmp: build_pq_index(args.data_dir, tmp), reused_pq)
    else:
        from .pipelines.similarity import (
            _ivf_index_dir,
            _load_centroids,
            build_ivf_index,
        )

        where = _ivf_index_dir(args.data_dir)
        reused = os.path.isdir(where)
        cents = cache.get_or_build(
            where, lambda tmp: build_ivf_index(args.data_dir, tmp),
            _load_centroids)
        meta = {"n_cells": int(cents.shape[0]), "reused": reused}
    print(json.dumps({
        "kind": args.kind, "index_dir": where, "meta": meta,
        "wall_sec": round(time.perf_counter() - t0, 3),
    }))
    _shutdown_if(owns)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    """Offline audit: for every committed partition, re-read state, re-check
    the digest and row counts against the manifest and the lineage XML —
    the v2 validation-checklist graft
    (/root/reference/docs/report-schema-v2.md:352-367)."""
    import os

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from .state.manifest import Lake
    from .state.merge import DIGEST_ALGO, table_digest
    from .xmlreport import read_report

    lake = Lake(args.lake_dir)
    problems: list[str] = []
    checked = 0
    entries = lake.current_entries()
    for pid, entry in sorted(entries.items()):
        t = pq.read_table(os.path.join(lake.root, entry["file"]))
        live = int(pc.sum(pc.cast(pc.invert(t.column("_deleted")), "int64")).as_py() or 0)
        if live != entry["rows_live"]:
            problems.append(f"pid {pid}: rows_live {live} != manifest {entry['rows_live']}")
        if t.num_rows != entry["keys_total"]:
            problems.append(f"pid {pid}: keys {t.num_rows} != manifest {entry['keys_total']}")
        algo = entry.get("digest_algo")
        if algo != DIGEST_ALGO:
            # an algorithm change is NOT corruption — report it as such
            # instead of a misleading per-partition digest mismatch; a
            # manifest with NO digest_algo predates versioned digests and
            # is equally unverifiable, not corrupt
            what = (
                "cannot verify (pre-versioned manifest, no digest_algo)"
                if algo is None
                else f"digest algorithm mismatch "
                f"(manifest {algo!r} vs engine {DIGEST_ALGO!r}); cannot verify"
            )
            problems.append(f"pid {pid}: {what}")
        elif table_digest(t) != entry["digest"]:
            problems.append(f"pid {pid}: state digest mismatch vs manifest")
        # materialized views: a view written AT this entry's epoch must
        # equal its recompute from the committed state (a carried-forward
        # MOR view is the documented lag, not corruption — skipped)
        for vname, vrel in (entry.get("views") or {}).items():
            if f"epoch={entry['epoch']:05d}" not in vrel:
                continue  # carried forward from an older compaction
            from .state.manifest import read_composition
            from .state.views import VIEW_REGISTRY, sort_view

            if vname not in VIEW_REGISTRY:
                problems.append(f"pid {pid}: unknown view {vname!r} in manifest")
                continue
            files = entry.get("files") or [entry["file"]]
            folded = read_composition(
                [os.path.join(lake.root, r) for r in files]
            )
            expect = sort_view(vname, VIEW_REGISTRY[vname](folded))
            got = pq.read_table(os.path.join(lake.root, vrel))
            if not expect.equals(sort_view(vname, got)):
                problems.append(
                    f"pid {pid}: view {vname!r} != recompute from state"
                )
        if "gc_seq" not in entry:  # GC rewrites carry no per-epoch lineage
            lx = lake.lineage_path(entry["epoch"], pid)
            if os.path.exists(lx):
                root = read_report(lx)
                st = root.find("state")
                if st is not None and st.get("digest") != entry["digest"]:
                    problems.append(f"pid {pid}: lineage digest != manifest digest")
            else:
                problems.append(f"pid {pid}: missing lineage report {lx}")
        checked += 1
    print(json.dumps({"partitions_checked": checked, "problems": problems}))
    return 1 if problems else 0


def _logging_parent() -> argparse.ArgumentParser:
    """Shared logging flags — the graft of the reference's Logging
    Options group (/root/reference/utils.py:149-178): console + file
    levels, ``--quiet`` raising the console threshold to WARNING, and an
    optional log file."""
    lp = argparse.ArgumentParser(add_help=False)
    g = lp.add_argument_group("Logging Options")
    g.add_argument(
        "--log-file", default=None,
        help="optional log file; `run` infers <lake_dir>.ir.log when unset",
    )
    g.add_argument(
        "--log-level-file", type=str.upper, default="DEBUG", choices=_LOG_LEVELS,
        help="logging level for the file",
    )
    g.add_argument(
        "--log-level-console", type=str.upper, default="INFO", choices=_LOG_LEVELS,
        help="logging level for the console",
    )
    g.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress console output (sets console level to WARNING)",
    )
    g.add_argument(
        "-v", "--verbose", action="store_true",
        help="debug console output (sets console level to DEBUG)",
    )
    return lp


def apply_logging_args(args: argparse.Namespace) -> argparse.Namespace:
    """Resolve the parsed logging flags exactly like the reference's
    post-parse fixup (/root/reference/utils.py:194-207): quiet wins over
    the explicit console level, the ``run`` command infers a log-file
    name from its primary input, and the int levels land on the
    namespace for ``setup_logging``."""
    if getattr(args, "command", None) == "run" and args.log_file is None:
        args.log_file = args.lake_dir.rstrip("/") + ".ir.log"
    if args.quiet:
        args.log_level_console = "WARNING"
    elif args.verbose:
        args.log_level_console = "DEBUG"
    args.log_level_file_int = getattr(logging, args.log_level_file, logging.DEBUG)
    args.log_level_console_int = getattr(
        logging, args.log_level_console, logging.INFO
    )
    return args


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="image_report_ray")
    sub = p.add_subparsers(dest="command", required=True)
    lp = _logging_parent()

    g = sub.add_parser("gen", help="write a deterministic synthetic WAL",
                       parents=[lp])
    g.add_argument("wal_dir")
    g.add_argument("--epochs", type=positive_int, default=4)
    g.add_argument("--epoch-size", type=positive_int, default=100_000)
    g.add_argument("--parts", type=positive_int, default=8)
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--conversations", type=positive_int, default=10_000)
    g.add_argument("--max-turns", type=positive_int, default=32)
    g.add_argument("--dup-rate", type=float_0_1, default=0.0)
    g.add_argument("--hot-frac", type=float_0_1, default=0.0)
    g.set_defaults(fn=cmd_gen)

    r = sub.add_parser("run", help="tail a WAL into a lake (exactly-once)",
                       parents=[lp])
    r.add_argument("lake_dir")
    r.add_argument("wal_dir")
    r.add_argument("--partitions", type=positive_int, default=16)
    r.add_argument("--lookahead", type=int, default=1)
    r.add_argument("--map-task-rows", type=positive_int, default=131_072)
    r.add_argument("--salt-factor", type=positive_int, default=4)
    r.add_argument("--salt-key", action="append",
                   help="conv_id to salt across sub-partitions (repeatable)")
    r.add_argument("--merge-mode", choices=("cow", "mor"), default="cow",
                   help="alias: cow (the default) means --compact-every 1, "
                        "a full state rewrite every epoch; mor keeps "
                        "--compact-every")
    r.add_argument("--compact-every", type=positive_int, default=None,
                   help="with --merge-mode mor: epochs per composition "
                        "(base + deltas) before a compaction (default 8)")
    r.add_argument("--compact-rows-factor", type=float, default=None,
                   dest="compact_rows_factor",
                   help="mor: also compact a partition once its delta "
                        "rows reach this fraction of its base file "
                        "(size-tiered policy; footer metadata only)")
    r.add_argument("--follow", action="store_true",
                   help="continuous tail: poll for new epochs until "
                        "idle for --idle-timeout seconds")
    r.add_argument("--poll-interval", type=float, default=0.5)
    r.add_argument("--idle-timeout", type=float, default=10.0)
    r.add_argument("--continue-on-error", action="store_true")
    r.add_argument(
        "--metrics", default="basic",
        help="lineage-metric selection spec, e.g. 'all,-digests' or "
             "'basic,text_len_hist' (same grammar as the reference's "
             "--hashes flag)",
    )
    r.add_argument(
        "--views", default="",
        help="comma-separated materialized views to maintain during the "
             "run (see state/views.py registry), committed atomically "
             "with the state",
    )
    r.add_argument("--num-cpus", type=int, default=None)
    r.set_defaults(fn=cmd_run)

    e = sub.add_parser("export", help="write canonical live state (or a view)",
                       parents=[lp])
    e.add_argument("lake_dir")
    e.add_argument("out_dir")
    e.add_argument(
        "--view", default=None,
        help="export this committed materialized view instead of the state",
    )
    e.add_argument(
        "--as-of", type=int, default=None, dest="as_of",
        help="time-travel: export the state snapshot as of this epoch",
    )
    e.add_argument(
        "--format", choices=("parquet", "jsonl"), default="parquet",
        help="output format (jsonl = newline-delimited shards for "
             "tokenizer pipelines)",
    )
    e.add_argument("--num-cpus", type=int, default=None)
    e.set_defaults(fn=cmd_export)

    qy = sub.add_parser(
        "query",
        parents=[lp],
        help="run a named pipeline over a table directory (see --list)",
    )
    qy.add_argument("name", nargs="?", help="query name (see --list)")
    qy.add_argument("data_dir", nargs="?", help="directory of parquet tables")
    qy.add_argument("--out", help="write the result parquet to this path")
    qy.add_argument("--list", action="store_true",
                    help="list available query names")
    qy.add_argument("--num-cpus", type=int, default=None)
    qy.set_defaults(fn=cmd_query)

    v = sub.add_parser("validate", help="audit committed state vs manifest+lineage",
                       parents=[lp])
    v.add_argument("lake_dir")
    v.set_defaults(fn=cmd_validate)

    ix = sub.add_parser(
        "index",
        parents=[lp],
        help="build (or reuse) a physical at-rest index over a table "
             "directory: text (inverted postings), lsh (banded "
             "signatures), ivf (cell-partitioned ANN), pq (at-rest "
             "product-quantization codes) — matching queries "
             "auto-route through it",
    )
    ix.add_argument("kind", choices=["text", "lsh", "ivf", "pq"])
    ix.add_argument("data_dir", help="directory of parquet tables")
    ix.add_argument("--num-cpus", type=int, default=None)
    ix.set_defaults(fn=cmd_index)

    c = sub.add_parser(
        "compact",
        parents=[lp],
        help="GC tombstones below a retention watermark (caller guarantees "
             "no event with lsn < watermark will ever be delivered again)",
    )
    c.add_argument("lake_dir")
    c.add_argument("--before-lsn", type=int, required=True)
    c.add_argument("--num-cpus", type=int, default=None)
    c.set_defaults(fn=cmd_compact)

    x = sub.add_parser(
        "expire",
        parents=[lp],
        help="TTL retention: drop turns with ts older than the cutoff "
             "(epoch microseconds or an ISO timestamp) via a GC-style "
             "rewrite commit",
    )
    x.add_argument("lake_dir")
    x.add_argument("--before-ts", required=True,
                   help="cutoff: integer epoch microseconds or ISO-8601")
    x.add_argument("--num-cpus", type=int, default=None)
    x.set_defaults(fn=cmd_expire)

    rs = sub.add_parser(
        "reshard",
        parents=[lp],
        help="migrate current state to a new lake with a different "
             "partition count (the WAL resumes on the new lake)",
    )
    rs.add_argument("src_lake")
    rs.add_argument("dst_lake")
    rs.add_argument("--partitions", type=positive_int, required=True)
    rs.add_argument("--num-cpus", type=int, default=None)
    rs.set_defaults(fn=cmd_reshard)

    b = sub.add_parser(
        "bootstrap",
        parents=[lp],
        help="load an existing plain transcripts parquet as committed "
             "initial state (start the WAL at epoch+1)",
    )
    b.add_argument("src_parquet")
    b.add_argument("lake_dir")
    b.add_argument("--partitions", type=positive_int, required=True)
    b.add_argument("--epoch", type=int, default=0)
    b.add_argument("--num-cpus", type=int, default=None)
    b.set_defaults(fn=cmd_bootstrap)

    cf = sub.add_parser(
        "changefeed",
        parents=[lp],
        help="emit the row-level change feed of a committed epoch "
             "(the net diff of two snapshots — CDC out)",
    )
    cf.add_argument("lake_dir")
    cf.add_argument("--epoch", type=int, default=None,
                    help="feed up to this epoch (required unless --cursor; "
                         "with --cursor, defaults to the lake head)")
    cf.add_argument("--cursor", default=None,
                    help="consumer-offset file: resume after its last "
                         "consumed epoch, feed to the head, then advance "
                         "it atomically (no-op when caught up; re-emit "
                         "after a crash is idempotent — net-diff feed)")
    cf.add_argument("--from-epoch", type=int, default=None, dest="from_epoch",
                    help="net feed of (FROM_EPOCH, EPOCH] instead of the "
                         "single epoch — catch-up consumers read one "
                         "compacted diff (-1 = vs the empty lake)")
    cf.add_argument("--out", default=None,
                    help="write the feed as sharded files to this path")
    cf.add_argument("--format", default="parquet",
                    choices=("parquet", "jsonl"),
                    help="shard format for --out (jsonl = the "
                         "log-shipping shape CDC consumers ingest)")
    cf.add_argument("--num-cpus", type=int, default=None)
    cf.set_defaults(fn=cmd_changefeed)

    st = sub.add_parser(
        "stats",
        parents=[lp],
        help="lake health from manifests only (counts, chain depth, "
             "epochs, bytes)",
    )
    st.add_argument("lake_dir")
    st.add_argument("--per-partition", action="store_true")
    st.set_defaults(fn=cmd_stats)

    vc = sub.add_parser(
        "vacuum",
        parents=[lp],
        help="physically delete data files outside the snapshot "
             "retention horizon (completes PII destruction; breaks "
             "time travel below the horizon)",
    )
    vc.add_argument("lake_dir")
    vc.add_argument("--keep-epochs", type=int, default=1,
                    help="retain as-of snapshots for this many epochs "
                         "below the head (default 1)")
    vc.set_defaults(fn=cmd_vacuum)

    return p


def main(argv: list[str] | None = None) -> int:
    args = apply_logging_args(build_parser().parse_args(argv))
    setup_logging(
        stream_level=args.log_level_console_int,
        file_level=args.log_level_file_int,
        log_file=args.log_file,
    )
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
