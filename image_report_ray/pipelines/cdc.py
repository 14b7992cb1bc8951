"""The CDC pipeline: WAL tail -> hash-partitioned LWW upsert -> lake.

Engine lifecycle (SURVEY.md §3), one epoch::

    WAL files / changelog Dataset                  # source (S1/S3: epoch order)
      -> map stage (Ray tasks, one per ~map_task_rows of input):
           validate -> route -> split into P sub-tables in WAL order,
           grouped G ways, G = min(P, cluster CPUs): group g holds the
           slices of pids g, g + G, ... (G+1 objects: G groups + a skip
           count)
      -> reduce stage (G Ray tasks, one per group): each merges its
           group's partitions in turn — per-partition LWW merge against
           the committed prior state (one sort per event, exact ledger),
           staged Parquet write, stats row
      -> per-partition lineage XML                 # the reference's report graft
      -> atomic commit manifest                    # exactly-once promotion

Why raw Ray tasks for the exchange instead of ``Dataset.groupby``: the
epoch is a *transaction* — every merge must see exactly the prior epoch's
committed state, so each epoch ends at a commit barrier.  Under Ray Data's
streaming executor that barrier turns the sort-based ``groupby`` shuffle
into a serial choke point (the executor also reserves CPU slots per
operator, so a 4-operator pipeline at small CPU counts runs each phase
~2-wide; measured: 2->8 CPUs gave only 1.26x).  The two-stage object-store
exchange here is the textbook map/reduce shuffle — map tasks return one
object per merge group (``num_returns=G+1``), merge task g consumes
column g of the ref matrix.  Its per-partition form measured 2.9x
from 2->8 CPUs on the same input.  At small epochs a Ray shuffle's cost
follows its object and task counts more than its bytes: with one object
and one task per partition, that cost exceeded the merge work at the
benchmark's epoch sizes.  One per CPU slot keeps the exchange as wide
as the cluster and no wider.  Partition is still the unit of state: each one
is merged, written, digested and reported on its own, so files and
commits do not depend on G.  The grouping is static (``pid % G``), so
per-partition tasks no longer balance load dynamically: a group holding
a hot partition finishes last, and salting a hot conversation
(``salt_keys``) stays the remedy for that skew.  Dataset remains
the API for sources and stateless stages; a changelog Dataset is
accepted directly (its blocks feed the same split tasks).

Scale notes (100 TB design): the exchange moves every valid event once,
uncombined, and the merge's one sort does all LWW work. A map-side
combiner would keep 75-95% of rows on the benchmark workloads, cost a
second sort per event, and could not tell a re-delivery in another map
task from a stale event, so the ledger would depend on task grouping.
Partition state lives in committed Parquet, not actor memory, so state
is bounded by disk, resume is free, and any worker can merge any
partition. One merge path, one knob
(``EngineConfig.compact_every``): a partition's committed state is a
composition — a base file plus the sorted deltas of later epochs, folded
LWW at read time. An epoch writes only its delta (cost O(delta) — the
10^10-event path; measured 1.7x faster than full rewrites on a 40M-event
/ 12.8M-key replay) until the composition would reach ``compact_every``
files; then the merge folds it with the epoch into one full state file.
``compact_every=1`` (the default, alias ``merge_mode="cow"``) rewrites the
full state every epoch. GC, expiry, reshard and bootstrap rewrite
partitions through the same read / stage / commit helpers
(``state/manifest.py``). ``run_job`` keeps a bounded lookahead of map
stages in flight so epoch K+1 reads/compacts while epoch K merges — the
WAL never materializes fully.
"""

from __future__ import annotations

import logging
import os
import re
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..config import EngineConfig
from ..schema import (
    DELETED_COL,
    KEY_COLUMNS,
    LSN_COL,
    PID_COL,
    concat_evolving,
    conform,
    unify_additive,
)
from ..stages.derive import make_add_pid, validate_changes
from ..state.manifest import Lake, read_canonical, read_composition, stage_partition
from ..state.merge import (
    MergeStats,
    _live_payload,
    fold_state_tables,
    merge_state_with_changes,
    sort_canonical,
)
from ..xmlreport import build_partition_report, write_report

_EPOCH_DIR_RE = re.compile(r"^epoch=(\d+)$")

_STATS_FIELDS = (
    "received", "received_i", "received_u", "received_d",
    "applied", "stale_skipped", "dup_skipped",
    "rows_live", "tombstoned", "keys_total", "last_lsn",
)

# commit-entry fields a merge row carries (besides files and views)
_ENTRY_FIELDS = (
    "file", "digest", "rows_live", "tombstoned", "keys_total",
    "last_lsn", "received", "applied",
)


def discover_epochs(wal_dir: str) -> dict[int, list[str]]:
    """WAL source discovery: ``wal_dir/epoch=K/*.parquet`` in ascending
    epoch order (the reference's sorted-deterministic input discipline,
    /root/reference/ir:549-557)."""
    out: dict[int, list[str]] = {}
    if not os.path.isdir(wal_dir):
        return out
    for name in sorted(os.listdir(wal_dir)):
        m = _EPOCH_DIR_RE.match(name)
        if not m:
            continue
        epoch = int(m.group(1))
        d = os.path.join(wal_dir, name)
        files = sorted(
            os.path.join(d, f)
            for f in os.listdir(d)
            if f.endswith((".parquet", ".jsonl", ".json"))
        )
        if files:
            out[epoch] = files
    return dict(sorted(out.items()))


# ---- pure kernels (importable & testable without Ray) -----------------


def _split_by_pid(
    t: pa.Table,
    num_partitions: int,
    salt_keys: frozenset[str] = frozenset(),
    salt_factor: int = 4,
) -> tuple[pa.Table, ...]:
    """Route rows by the conv hash and slice into P sub-tables — THE
    routing kernel, shared by the epoch map stage, reshard and
    bootstrap so migrated lakes route identically to live ingest."""
    t = make_add_pid(num_partitions, salt_keys, salt_factor)(t)
    pid = t.column(PID_COL)
    if isinstance(pid, pa.ChunkedArray):
        pid = pid.combine_chunks()
    pid_np = pid.to_numpy(zero_copy_only=False)
    order = np.argsort(pid_np, kind="stable")
    t = t.take(pa.array(order)).drop_columns([PID_COL])
    bounds = np.searchsorted(pid_np[order], np.arange(num_partitions + 1))
    return tuple(
        t.slice(bounds[i], bounds[i + 1] - bounds[i]) for i in range(num_partitions)
    )


def prepare_and_split(
    changes: pa.Table,
    num_partitions: int,
    salt_keys: frozenset[str] = frozenset(),
    salt_factor: int = 4,
    *,
    continue_on_error: bool = False,
) -> tuple[pa.Table, ...]:
    """validate -> route -> split into P sub-tables.

    The map side of the exchange. Output slice ``i`` holds partition i's
    valid events in their WAL order (no pid column — the reducer knows
    its pid positionally); the merge resolves them, duplicates included."""
    t = validate_changes(changes, continue_on_error=continue_on_error)
    return _split_by_pid(t, num_partitions, salt_keys, salt_factor)


def merge_partition_kernel(
    pid: int,
    parts: list[pa.Table],
    prior: pa.Table | None,
    prior_lsn: int,
    lake_root: str,
    epoch: int,
    track_hot_keys: int,
    metric_names: tuple[str, ...] = ("turn_profile", "lsn_span", "live_ratio"),
    view_names: tuple[str, ...] = (),
    prior_views: "dict[str, pa.Table] | None" = None,
    affected_extra: "np.ndarray | None" = None,
) -> dict | None:
    """The reduce side: apply one partition's change slices to its state.

    Writes the new state file under its deterministic staged name and
    returns a JSON-able row: its commit entry fields (``stage_partition``)
    plus the merge ledger. Idempotent: a Ray retry overwrites the same
    path via tmp+rename, and visibility waits for the commit record
    (two-phase, manifest.py). Selected lineage metrics (the extractor
    registry, functions/metrics.py) run here over the post-merge state."""
    from ..functions.metrics import compute_metrics

    t0 = time.perf_counter()
    parts = [p for p in parts if p.num_rows]
    if not parts:
        return None
    changes = concat_evolving(parts)
    new_state, stats = merge_state_with_changes(
        prior, changes, prior_last_lsn=prior_lsn, track_hot_keys=track_hot_keys
    )
    entry = stage_partition(new_state, lake_root, "epoch", epoch, pid)

    # materialized views: computed over the SAME post-merge state, staged
    # under deterministic names, published by the same commit — never
    # observable inconsistent with the state (state/views.py). With a
    # previous view file available, maintenance is INCREMENTAL: only the
    # conversations touched since that view's snapshot re-aggregate, the
    # rest carry forward — view cost scales with the delta, not the state.
    view_files: dict[str, str] = {}
    if view_names:
        from ..state.views import maintain_view

        affected = None
        if prior_views:
            conv = changes.column("conv_id")
            if isinstance(conv, pa.ChunkedArray):
                conv = conv.combine_chunks()
            aff = conv.to_numpy(zero_copy_only=False).astype(object)
            if affected_extra is not None and len(affected_extra):
                aff = np.concatenate([aff, affected_extra.astype(object)])
            affected = pa.array(np.unique(aff), pa.string())
        for vname in view_names:
            pv = (prior_views or {}).get(vname)
            vt = maintain_view(
                vname, new_state, pv, affected if pv is not None else None
            )
            vrel = os.path.join(
                "views", vname, f"epoch={epoch:05d}", f"pid={pid:05d}.parquet"
            )
            Lake.write_state_file(vt, os.path.join(lake_root, vrel))
            view_files[vname] = vrel

    m0 = time.perf_counter()
    results, computed, failed = compute_metrics(new_state, set(metric_names))
    metrics = {name: (r.text, r.attrs) for name, r in results.items()}

    return {
        "pid": pid,
        **entry,
        "views": view_files,
        "duration_sec": time.perf_counter() - t0,
        "metrics": metrics,
        "metrics_computed": computed,
        "metrics_failed": failed,
        "metrics_duration_sec": time.perf_counter() - m0,
        "hot_keys": stats.hot_keys,
        **{k: getattr(stats, k) for k in _STATS_FIELDS},
    }


def read_wal_file(path: str) -> pa.Table:
    """Read one WAL file in either supported source format: Parquet or
    JSONL (newline-delimited change events — the log-shipping format
    most CDC relays emit). JSONL columns are cast to the change schema
    (ints narrowed, ISO timestamps parsed); columns beyond the schema
    (additive evolution) pass through untouched."""
    if not path.endswith((".jsonl", ".json")):
        return pq.read_table(path)
    from pyarrow import json as pa_json

    from ..schema import CHANGE_SCHEMA

    t = pa_json.read_json(path)
    cols = {}
    for field in CHANGE_SCHEMA:
        if field.name in t.column_names:
            cols[field.name] = t.column(field.name).cast(field.type)
        else:
            cols[field.name] = pa.nulls(t.num_rows, field.type)
    out = pa.table(cols)
    for c in t.column_names:
        if c not in CHANGE_SCHEMA.names:
            out = out.append_column(c, t.column(c))
    return out


# ---- Ray tasks: plain functions, wrapped lazily (the library never inits Ray)

_REMOTES: dict = {}


def _remote(fn):
    """``fn`` as a Ray remote function, wrapped once per process."""
    if fn not in _REMOTES:
        import ray

        _REMOTES[fn] = ray.remote(fn)
    return _REMOTES[fn]


def _group_slices(slices: tuple, G: int) -> tuple:
    """The exchange's grouping: ``G`` tuples of partition slices, group
    ``g`` holding pids ``g, g + G, g + 2G, ...`` in pid order."""
    return tuple(slices[g::G] for g in range(G))


def _map_files(files: list[str], P: int, G: int, salt_keys, salt_factor,
               cont: bool):
    # Malformed-file policy mirrors the reference's unreadable-image
    # handling (reference ir:384-388 None-check + counted
    # failure): keep-going skips and logs the bad file; fail-fast
    # propagates and the epoch never commits. OSError covers files
    # that vanished or are unreadable at the filesystem level —
    # the skip policy is about *unreadable inputs*, not just
    # malformed Parquet. The final return slot carries the skip
    # count so the run summary (and exit code) can report it
    # honestly (reference ir:606-619 failed-count policy).
    tables = []
    skipped = 0
    for f in files:
        try:
            tables.append(read_wal_file(f))
        except (pa.ArrowInvalid, OSError) as exc:
            if not cont:
                raise
            skipped += 1
            logging.getLogger("image_report_ray").warning(
                "skipping unreadable WAL file %s: %s", f, exc
            )
    if not tables:
        return _group_slices((pa.table({}),) * P, G) + (skipped,)
    slices = prepare_and_split(
        concat_evolving(tables), P, salt_keys, salt_factor,
        continue_on_error=cont,
    )
    return _group_slices(slices, G) + (skipped,)


def _map_block(block: pa.Table, P: int, G: int, salt_keys, salt_factor,
               cont: bool):
    slices = prepare_and_split(
        block, P, salt_keys, salt_factor, continue_on_error=cont
    )
    return _group_slices(slices, G) + (0,)


def _merge_part(pid, prior_paths, prior_lsn, vnames, view_rels, parts,
                lake_root, epoch, mnames):
    """Merge one partition's slices, in map-task order; ``None`` when the
    epoch has no events for it (its committed entry stands, and its prior
    state is not read). With ``prior_paths`` it is a compaction: fold the
    prior composition (base + deltas) and apply the epoch on top,
    writing a full state file (+ any registered materialized views —
    only a compaction has the full state to compute them from). Empty
    ``prior_paths`` (a fresh partition, or a delta epoch, which gets no
    views either) writes the epoch's compacted winners alone: a delta
    epoch costs O(delta) and cross-epoch resolution happens at fold
    time (Hudi/Iceberg merge-on-read, public design). ``view_rels``
    maps view name -> the previous committed view file (relative) so
    maintenance can run incrementally; the conversations in the
    deltas (``prior_paths[1:]``, changes folded since that view's
    snapshot) join the affected set."""
    parts = [p for p in parts if p.num_rows]
    if not parts:
        return None
    prior = read_composition(prior_paths)
    prior_views: dict[str, pa.Table] = {}
    for vname, rel in view_rels.items():
        try:
            prior_views[vname] = pq.read_table(os.path.join(lake_root, rel))
        except (pa.ArrowInvalid, OSError):
            pass  # missing/corrupt previous view -> full recompute
    affected_extra = None
    if prior_views and len(prior_paths) > 1:
        affected_extra = np.unique(
            np.concatenate(
                [
                    pq.read_table(p, columns=["conv_id"])
                    .column("conv_id").to_numpy(zero_copy_only=False)
                    for p in prior_paths[1:]
                ]
            ).astype(object)
        )
    return merge_partition_kernel(
        pid, parts, prior, prior_lsn, lake_root, epoch, 3,
        metric_names=mnames, view_names=vnames,
        prior_views=prior_views, affected_extra=affected_extra,
    )


def _merge_group(lake_root, epoch, mnames, jobs, *objs):
    """The one merge task: one per exchange group. ``jobs`` are the
    group's partitions in pid order, ``objs`` the group's object from
    each map task, holding their slices in the same order. Runs
    :func:`_merge_part` for each partition in turn; returns their rows."""
    rows = []
    for k, job in enumerate(jobs):
        row = _merge_part(*job, [o[k] for o in objs], lake_root, epoch, mnames)
        if row is not None:
            rows.append(row)
    return rows


def _group_files(files: list[str], target_rows: int) -> list[list[str]]:
    """Greedy grouping of WAL files into ~target_rows map tasks using
    Parquet footer row counts (metadata only — no data read)."""
    groups: list[list[str]] = []
    cur: list[str] = []
    cur_rows = 0
    for f in files:
        try:
            n = pq.read_metadata(f).num_rows
        except (pa.ArrowInvalid, OSError):
            n = 0  # unreadable: still forwarded; the map task applies policy
        if cur and cur_rows + n > target_rows:
            groups.append(cur)
            cur, cur_rows = [], 0
        cur.append(f)
        cur_rows += n
    if cur:
        groups.append(cur)
    return groups


def _group_count(P: int) -> int:
    """G, the exchange's group count: one merge task per CPU slot of the
    cluster, never more than one per partition."""
    import ray

    ray.get_runtime_context()  # starts Ray if needed, as a first .remote() would
    return max(1, min(P, int(ray.cluster_resources().get("CPU", 1))))


def submit_map_stage(
    lake: Lake, wal: "str | list[str] | object", cfg: EngineConfig
) -> list:
    """Launch the epoch's map tasks; returns the list of per-task ref
    tuples. Each has G+1 object refs, ``G = min(P, cluster CPUs)``: one
    per merge group (the slices of pids ``g, g + G, ...``), plus the
    task's skipped-file count in the last slot. ``num_returns`` is
    always >= 2, so Ray returns a real list even when G is 1.

    ``wal`` is a file, a list of files or a ``ray.data.Dataset`` whose
    blocks each feed one map task. Read a WAL directory into a Dataset
    with ``partitioning=None``: Ray Data's default hive partitioning
    adds an ``epoch`` string column from the ``epoch=K/`` directory
    names, which validation passes as additive evolution into every
    state row."""
    P = lake.num_partitions
    G = _group_count(P)
    args = (P, G, lake.salt_keys, lake.salt_factor, cfg.continue_on_error)
    if isinstance(wal, str):
        wal = [wal]
    if isinstance(wal, list):
        task = _remote(_map_files).options(num_returns=G + 1)
        return [task.remote(g, *args) for g in _group_files(wal, cfg.map_task_rows)]
    # a ray.data.Dataset: execute its (lazy) plan; blocks feed split tasks.
    task = _remote(_map_block).options(num_returns=G + 1)
    return [task.remote(r, *args) for r in wal.to_arrow_refs()]


def apply_epoch(
    lake: Lake,
    epoch: int,
    wal: "str | list[str] | object",
    cfg: EngineConfig | None = None,
    *,
    map_refs: list | None = None,
) -> dict[int, MergeStats] | None:
    """Apply one epoch exactly-once. Returns per-pid stats, or ``None`` if
    the epoch was already committed (idempotent redelivery, D1/S2).

    ``map_refs`` lets ``run_job`` pre-submit the map stage (lookahead
    pipelining); correctness is unaffected because map tasks don't touch
    state — only merges read the prior commit. The group count G is
    read back from the map refs, so merges always match the map tasks
    that fed them; one :func:`_merge_group` task runs per group."""
    import ray

    cfg = cfg or EngineConfig(num_partitions=lake.num_partitions)
    if lake.is_committed(epoch):
        return None

    mats = map_refs if map_refs is not None else submit_map_stage(lake, wal, cfg)
    G = len(mats[0]) - 1 if mats else 0  # no map task: nothing to merge

    from ..functions.metrics import select_metrics

    mnames = tuple(sorted(select_metrics(cfg.metrics)))
    current = lake.current_entries()
    rel_sets = {
        pid: list(e.get("files") or [e["file"]]) for pid, e in current.items()
    }
    lsns = {pid: e["last_lsn"] for pid, e in current.items()}

    jobs = []
    compacted: dict[int, bool] = {}
    for pid in range(lake.num_partitions):
        prior = [os.path.join(lake.root, r) for r in rel_sets.get(pid, [])]
        # A delta unless the composition is due for compaction
        # (compact_every=1 folds-and-rewrites every epoch). The
        # row-based policy (size-tiered: hot partitions compact as soon
        # as their delta chain outgrows compact_rows_factor x base rows,
        # cold ones coast to the chain-length cap) reads only parquet
        # FOOTERS — metadata, never data.
        compact = len(prior) + 1 >= cfg.compact_every
        if (
            not compact
            and cfg.compact_rows_factor is not None
            and len(prior) > 1
        ):
            try:
                base_rows = pq.read_metadata(prior[0]).num_rows
                delta_rows = sum(
                    pq.read_metadata(p).num_rows for p in prior[1:]
                )
                compact = delta_rows >= cfg.compact_rows_factor * max(
                    base_rows, 1
                )
            except (pa.ArrowInvalid, OSError):
                pass  # unreadable footer: fall back to the length cap
        compacted[pid] = compact
        if compact:
            views = tuple(cfg.views)
            view_rels = {
                v: rel
                for v, rel in (current.get(pid, {}).get("views") or {}).items()
                if v in cfg.views
            }
        else:  # a delta: no prior read, no views
            prior, views, view_rels = [], (), {}
        jobs.append((pid, prior, lsns.get(pid, -1), views, view_rels))
    merge = _remote(_merge_group)
    groups = ray.get([
        merge.remote(lake.root, epoch, mnames, jobs[g::G], *[m[g] for m in mats])
        for g in range(G)
    ])
    rows = sorted((r for g in groups for r in g), key=lambda r: r["pid"])

    entries: dict[int, dict] = {}
    out_stats: dict[int, MergeStats] = {}
    for row in rows:
        pid = int(row["pid"])
        stats = MergeStats(
            **{k: int(row[k]) for k in _STATS_FIELDS},
            hot_keys=[tuple(x) for x in row["hot_keys"]],
        )
        out_stats[pid] = stats
        report = build_partition_report(
            pid=pid,
            epoch=epoch,
            stats=stats,
            digest=row["digest"],
            duration_sec=float(row["duration_sec"]),
            metrics=row["metrics"],
            metrics_computed=int(row["metrics_computed"]),
            metrics_failed=int(row["metrics_failed"]),
            metrics_duration_sec=float(row["metrics_duration_sec"]),
            params={
                "num_partitions": lake.num_partitions,
                "salt_factor": lake.salt_factor,
                "salted_keys": len(lake.salt_keys),
            },
        )
        write_report(report, lake.lineage_path(epoch, pid))
        entries[pid] = {
            **{k: row[k] for k in _ENTRY_FIELDS},
            # composition that folds to current state: a compacted entry
            # replaces everything; a delta entry appends to the chain
            "files": (
                row["files"] if compacted[pid]
                else rel_sets.get(pid, []) + row["files"]
            ),
            # view files written this epoch, else carried from the last
            # commit (delta epochs — the documented view lag)
            "views": (
                row["views"]
                or (current.get(pid, {}).get("views") or {})
            ),
        }

    lake.commit(epoch, entries)
    return out_stats


# below-watermark advisories already emitted, keyed by
# (lake root, watermark, epoch set) — a follower (tail_job polls run_job
# every poll_interval) must not re-log the same advisory forever
_BELOW_WATERMARK_WARNED: set = set()


def _should_warn_below_watermark(
    lake: Lake, committed: list[int], high: int, below: list[int]
) -> bool:
    """The below-watermark advisory is suppressed for the one LEGITIMATE
    shape — a migrated (resharded/bootstrapped) lake, whose single
    migration commit at the source's max epoch covers every earlier WAL
    epoch (received==applied==0 in every partition entry) — and is
    otherwise logged ONCE per distinct (lake, watermark, epoch set), not
    on every tail poll."""
    if len(committed) == 1 and committed[0] == high:
        try:
            parts = lake.read_commit(high).get("partitions", {})
        except Exception:
            parts = {}
        if parts and all(
            e.get("received", -1) == 0 and e.get("applied", -1) == 0
            for e in parts.values()
        ):
            return False  # migration commit — documented-legitimate
    key = (lake.root, high, tuple(below))
    if key in _BELOW_WATERMARK_WARNED:
        return False
    _BELOW_WATERMARK_WARNED.add(key)
    return True


def run_job(
    lake_dir: str,
    wal_dir: str,
    cfg: EngineConfig | None = None,
    *,
    salt_keys: frozenset[str] = frozenset(),
) -> dict:
    """Tail the whole WAL: apply every epoch in order, skipping committed
    ones (resume). Map stages for up to ``cfg.epoch_lookahead`` future
    epochs run while the current epoch merges/commits — the streaming
    overlap that keeps workers busy across the per-epoch commit barrier.
    Returns the run summary (events/s, counts) — the engine's version of
    the reference's end-of-run summary (/root/reference/ir:606-617)."""
    import ray

    cfg = cfg or EngineConfig()
    lake = Lake(
        lake_dir,
        num_partitions=cfg.num_partitions,
        salt_keys=salt_keys,
        salt_factor=cfg.salt_factor,
    )
    epochs = discover_epochs(wal_dir)
    # skip everything at or below the newest commit, not just exact
    # members: commits are sequential so the set is a prefix in normal
    # operation, but a resharded lake carries ONE migration commit at
    # the source's max epoch that covers everything before it
    committed = lake.committed_epochs()
    high = max(committed) if committed else -1
    pending = [
        e for e in epochs if e > high and not lake.is_committed(e)
    ]
    # Below-watermark epochs that were never actually committed are NOT
    # idempotent redeliveries — they are mis-numbered / back-filled
    # producer output (legitimate only for the single reshard
    # migration-commit case). Count them separately so silent data loss
    # is observable in the summary, not folded into epochs_skipped.
    below_watermark = sorted(
        e for e in epochs if e <= high and not lake.is_committed(e)
    )
    if below_watermark and _should_warn_below_watermark(
        lake, committed, high, below_watermark
    ):
        logging.getLogger("image_report_ray").warning(
            "%d WAL epoch(s) below commit watermark %d but never "
            "committed (mis-numbered producer?): %s",
            len(below_watermark), high, below_watermark[:10],
        )
    t0 = time.perf_counter()
    applied_epochs, skipped_epochs, events, files_skipped = 0, 0, 0, 0
    skipped_epochs = len(epochs) - len(pending)

    inflight: dict[int, list] = {}
    hot_totals: dict[str, int] = {}
    for e in pending[: cfg.epoch_lookahead + 1]:
        inflight[e] = submit_map_stage(lake, epochs[e], cfg)
    for i, e in enumerate(pending):
        nxt = i + cfg.epoch_lookahead + 1
        if nxt < len(pending) and pending[nxt] not in inflight:
            inflight[pending[nxt]] = submit_map_stage(lake, epochs[pending[nxt]], cfg)
        refs = inflight.pop(e)
        res = apply_epoch(lake, e, epochs[e], cfg, map_refs=refs)
        # last return slot of every map task = its unreadable-file skip
        # count (keep-going policy); surfaced in the summary + exit code
        files_skipped += sum(ray.get([m[-1] for m in refs]))
        if res is None:
            skipped_epochs += 1
        else:
            applied_epochs += 1
            events += sum(s.received for s in res.values())
            for s in res.values():
                for conv, n in s.hot_keys:
                    hot_totals[conv] = max(hot_totals.get(conv, 0), n)
    dt = time.perf_counter() - t0
    # Skew advisory: conversations whose single-epoch event count crossed
    # the salt threshold. The salt set is immutable per lake (routing must
    # stay stable), so these are surfaced for the NEXT lake / a re-shard —
    # the operational loop behind --salt-key.
    salt_candidates = sorted(
        c for c, n in hot_totals.items()
        if n > cfg.salt_threshold and c not in lake.salt_keys
    )
    return {
        "epochs_applied": applied_epochs,
        "epochs_skipped": skipped_epochs,
        "epochs_below_watermark": len(below_watermark),
        "events_received": events,
        "files_skipped": files_skipped,
        "duration_sec": dt,
        "events_per_sec": events / dt if dt > 0 else 0.0,
        "salt_candidates": salt_candidates,
    }


# ---- maintenance rewrites: tombstone GC and TTL expiry ----------------


def _old_tombstones(t: pa.Table, before_lsn: int) -> pa.ChunkedArray:
    """GC drop predicate: tombstones with ``_lsn < before_lsn``."""
    return pc.and_(t.column(DELETED_COL), pc.less(t.column(LSN_COL), before_lsn))


def _expired_turns(t: pa.Table, cutoff_us: int) -> pa.ChunkedArray:
    """Expiry drop predicate: live turns with ``ts`` before ``cutoff_us``."""
    return pc.and_(
        pc.invert(t.column(DELETED_COL)),
        pc.fill_null(
            pc.less(t.column("ts"), pa.scalar(cutoff_us, pa.timestamp("us"))),
            False,
        ),
    )


def _rewrite_part(pid, paths, lake_root, seq, drop, arg, old_entry):
    """The one maintenance task: fold the partition's composition (a
    rewrite implies compaction), drop the rows ``drop(t, arg)`` marks and
    stage the rest as ``gc=seq``. Returns (commit entry, rows dropped)."""
    t = read_composition(paths)
    kept = t.filter(pc.invert(drop(t, arg)))
    entry = stage_partition(kept, lake_root, "gc", seq, pid)
    entry.update({k: old_entry[k] for k in ("last_lsn", "received", "applied")})
    return entry, t.num_rows - kept.num_rows


def _maintenance_rewrite(
    lake: Lake, drop, arg, *, commit_noop: bool
) -> tuple[int | None, int, int]:
    """Rewrite every partition's current state, one ``_rewrite_part``
    task per partition, and publish the result as a ``gc=N`` commit
    record. It folds after the epochs it compacted and before any later
    WAL epoch (see ``Lake.current_entries``); a crash before the record
    lands leaves only invisible staging files. A rewrite that dropped
    nothing publishes only if ``commit_noop``. Returns ``(gc_seq,
    partitions, rows dropped)``, ``gc_seq`` None when nothing was
    committed. The rewritten entries carry no views (recomputed at the
    next compaction, never served stale)."""
    import ray

    current = lake.current_entries()
    if not current:
        return None, 0, 0
    after_epoch = max(e["epoch"] for e in current.values())
    seqs = lake.gc_seqs()
    seq = seqs[-1] + 1 if seqs else 0
    rewrite = _remote(_rewrite_part)
    pids = sorted(current)
    results = ray.get([
        rewrite.remote(
            pid,
            [os.path.join(lake.root, r)
             for r in (current[pid].get("files") or [current[pid]["file"]])],
            lake.root, seq, drop, arg, current[pid],
        )
        for pid in pids
    ])
    dropped = sum(n for _, n in results)
    if not dropped and not commit_noop:
        # the staged files of this no-op stay invisible, same as any
        # crash-before-commit orphan
        return None, 0, 0
    lake.commit_gc(
        seq, after_epoch, {pid: e for pid, (e, _) in zip(pids, results)}
    )
    return seq, len(pids), dropped


def gc_tombstones(lake: Lake, *, before_lsn: int) -> dict:
    """Drop tombstones with ``_lsn < before_lsn`` from every partition's
    current state (the Delta-VACUUM analogue for CDC deletes).

    CONTRACT: the caller guarantees no event with ``lsn < before_lsn``
    will ever be delivered again (the retention watermark). A late
    delivery below the watermark for a GC'd key would re-apply instead of
    being suppressed by its tombstone — that is the retention trade-off,
    the same one every CDC lake makes.

    A maintenance rewrite (:func:`_maintenance_rewrite`) that always
    commits, even when no tombstone qualified."""
    seq, parts, dropped = _maintenance_rewrite(
        lake, _old_tombstones, before_lsn, commit_noop=True
    )
    if seq is None:
        return {"partitions": 0, "tombstones_dropped": 0}
    return {
        "partitions": parts,
        "tombstones_dropped": dropped,
        "gc_seq": seq,
        "before_lsn": before_lsn,
    }


def expire_turns(
    lake: Lake, before_ts_us: int, cfg: EngineConfig | None = None
) -> dict:
    """TTL retention: physically drop every LIVE turn whose ``ts`` is
    older than ``before_ts_us`` (epoch microseconds) from the current
    state — the data-retention / PII-expiry maintenance pass a
    transcript lake runs on schedule.

    Shape: a maintenance rewrite (:func:`_maintenance_rewrite`, the
    tombstone-GC path) published as a ``gc=N`` commit — NOT a tombstone
    epoch. That keeps the lsn space untouched: expiry consumes no event
    lsns and no WAL epoch number, so a future change event can never
    lose LWW to an expiry artifact — a later insert legitimately
    re-creates the key, while redeliveries at or below the unchanged
    ``last_lsn`` watermark still dedup. Existing delete tombstones are
    kept (late-duplicate safety). Idempotent: nothing to expire -> no
    commit. Compliance note: the rewrite removes expired rows from the
    CURRENT state and from any snapshot at or after the gc fold point;
    older epoch FILES are immutable and still hold the bytes — physical
    destruction additionally needs a file vacuum.

    ``cfg`` is accepted for interface symmetry; the rewrite derives
    everything from the lake itself."""
    seq, _, expired = _maintenance_rewrite(
        lake, _expired_turns, before_ts_us, commit_noop=False
    )
    return {"expired": int(expired), "gc_seq": seq}


# ---- canonical state export ------------------------------------------


def _canonical_block(paths: list[str]) -> pa.Table:
    t = read_canonical(paths)
    return pa.table({}) if t is None else t


def canonical_state_dataset(lake: Lake, as_of: int | None = None):
    """Streaming canonical view: live rows, payload columns only.

    One fold task per partition (base + deltas LWW-folded there); the
    refs become Dataset blocks. No global sort — ordering is
    per-conversation within a partition (O3's stable reading-order
    contract). ``as_of`` reads the manifest's epoch snapshot (time
    travel) instead of the head."""
    import ray.data as rd

    sets = lake.current_file_sets(as_of)
    if not sets:
        raise ValueError("lake has no committed state")
    fold = _remote(_canonical_block)
    refs = [fold.remote(paths) for _, paths in sorted(sets.items())]
    return rd.from_arrow_refs(refs)


def canonical_state_table(lake: Lake, as_of: int | None = None) -> pa.Table:
    """Globally sorted canonical table — small-scale testing/export only
    (the oracle-equality comparison surface). ``as_of`` reads the
    manifest's epoch snapshot (time travel) instead of the head."""
    sets = lake.current_file_sets(as_of)
    tables = [
        t for t in (read_canonical(p) for _, p in sorted(sets.items()))
        if t is not None
    ]
    if not tables:
        return pa.table({})
    return sort_canonical(concat_evolving(tables))


# ---- state migrations: reshard and bootstrap -------------------------


def _task_slices(slices: tuple, P: int):
    """A split task's return value: under ``num_returns=1`` Ray stores
    the whole return value as the one object, so one partition returns
    its bare slice."""
    return slices[0] if P == 1 else slices


def _split_state(paths: list, P: int):
    """Reshard source task: fold one partition's composition and route
    it into ``P`` slices."""
    folded = read_composition(paths)
    if folded is None:
        return _task_slices(tuple(pa.table({}) for _ in range(P)), P)
    return _task_slices(_split_by_pid(folded, P), P)


def _split_boot(block: pa.Table, P: int):
    """Bootstrap source task: reject null keys, give every row ``_lsn =
    -1`` and no tombstone, and route the block into ``P`` slices."""
    for key_col in ("conv_id", "turn_idx"):
        col = block.column(key_col)
        if col.null_count:
            raise ValueError(
                f"bootstrap source has {col.null_count} null "
                f"{key_col} values — key columns must be non-null"
            )
    t = block.append_column(
        LSN_COL, pa.array(np.full(block.num_rows, -1, np.int64))
    ).append_column(
        DELETED_COL, pa.array(np.zeros(block.num_rows, bool))
    )
    return _task_slices(_split_by_pid(t, P), P)


def _write_migrated(pid: int, root: str, epoch: int, last_lsn: int,
                    unique_keys: bool, *slices):
    """The one migration writer: concat a destination partition's slices
    in source order, sort canonically, stage it and return ``(commit
    entry, seconds)``; ``None`` for an empty partition (absent from the
    manifest). ``unique_keys`` (bootstrap, whose source is foreign)
    rejects duplicate ``(conv_id, turn_idx)`` keys."""
    t0 = time.perf_counter()
    parts = [s for s in slices if s.num_rows]
    if not parts:
        return None
    t = sort_canonical(concat_evolving(parts))
    # sorted, so any duplicate is adjacent (keys are partition-local —
    # complete)
    if unique_keys and t.num_rows > 1:
        conv = t.column("conv_id").to_numpy(zero_copy_only=False)
        turn = t.column("turn_idx").to_numpy()
        dup = (conv[1:] == conv[:-1]) & (turn[1:] == turn[:-1])
        if dup.any():
            i = int(np.flatnonzero(dup)[0])
            raise ValueError(
                "bootstrap source has duplicate (conv_id, turn_idx) "
                f"keys, e.g. ({conv[i]!r}, {int(turn[i])})"
            )
    entry = stage_partition(t, root, "epoch", epoch, pid)
    entry.update(last_lsn=last_lsn, received=0, applied=0, views={})
    return entry, time.perf_counter() - t0


def _migrate(dst: Lake, epoch: int, cols: list, last_lsn: int,
             unique_keys: bool, params: dict) -> int:
    """Shared tail of the state migrations: one :func:`_write_migrated`
    task per destination partition consumes its column of the source
    tasks' slices; then write each partition's lineage report and
    publish the commit. Returns total keys written."""
    import ray

    P = dst.num_partitions
    if P == 1:  # num_returns=1 yields a bare ref
        cols = [[c] for c in cols]
    write = _remote(_write_migrated)
    results = ray.get([
        write.remote(pid, dst.root, epoch, last_lsn, unique_keys,
                     *[col[pid] for col in cols])
        for pid in range(P)
    ])
    entries: dict[int, dict] = {}
    for pid, res in enumerate(results):
        if res is None:
            continue
        entry, seconds = res
        stats = MergeStats(**{k: entry[k] for k in (
            "rows_live", "tombstoned", "keys_total", "last_lsn")})
        report = build_partition_report(
            pid=pid, epoch=epoch, stats=stats, digest=entry["digest"],
            duration_sec=seconds, params=params,
        )
        write_report(report, dst.lineage_path(epoch, pid))
        entries[pid] = entry
    dst.commit(epoch, entries)
    return sum(e["keys_total"] for e in entries.values())


def reshard_lake(src: Lake, dst_root: str, new_partitions: int) -> dict:
    """Migrate the lake's CURRENT state to a NEW lake with a different
    partition count. P is immutable for a lake's lifetime (manifest.py
    enforces it), so growing a deployment is a state MIGRATION — this is
    that migration, expressed as the engine's own exchange shape.

    One remote task per SOURCE partition folds its state chain and
    splits it into ``new_partitions`` slices under the same crc32
    routing (``num_returns`` object-store exchange); one task per DEST
    partition concats its column of slices in src-pid order, re-sorts to
    the canonical (conv_id, turn_idx) state order, writes its state file
    and computes its commit entry. Per-row lsns and tombstones migrate
    untouched and every dest checkpoint carries the GLOBAL max
    ``last_lsn``, so LWW, staleness and exactly-once semantics hold for
    anything delivered after the cutover. The migration commits at the
    source's max committed epoch, so the WAL stream resumes at the next
    epoch number with no renumbering."""
    src_entries = src.current_entries()
    if not src_entries:
        raise ValueError("source lake has no committed state")
    global_lsn = max(int(e["last_lsn"]) for e in src_entries.values())
    epoch = max(src.committed_epochs())
    dst = Lake(dst_root, num_partitions=new_partitions)
    split = _remote(_split_state).options(num_returns=new_partitions)
    cols = [
        split.remote(paths, new_partitions)
        for _, paths in sorted(src.current_file_sets().items())
    ]
    moved = _migrate(
        dst, epoch, cols, global_lsn, False,
        {"num_partitions": new_partitions,
         "resharded_from": src.num_partitions},
    )
    return {
        "epoch": int(epoch),
        "partitions": int(new_partitions),
        "keys_moved": int(moved),
    }


def bootstrap_lake(
    src_parquet: str, lake_root: str, num_partitions: int, epoch: int = 0
) -> dict:
    """Bootstrap a lake FROM an existing plain transcripts Parquet table
    (columns ``conv_id, turn_idx, role, text, tool, ts`` — the input
    shape) — the migration INTO the engine: load the current corpus once
    as committed initial state, then let the WAL stream apply on top.

    Rows get ``_lsn = -1`` (no originating event): every real change
    event (lsn >= 0) LWW-wins over the bootstrap row, and the -1
    checkpoint watermark means nothing is ever mistaken for a duplicate
    delivery. Commits at ``epoch`` (default 0); start the WAL at
    ``epoch + 1``. Same exchange shape and writer as
    :func:`reshard_lake`: split tasks route rows, one writer per
    destination partition."""
    import ray.data as rd

    lake = Lake(lake_root, num_partitions=num_partitions)
    if lake.committed_epochs():
        raise ValueError("bootstrap target lake already has commits")
    split = _remote(_split_boot).options(num_returns=num_partitions)
    cols = [
        split.remote(b, num_partitions)
        for b in rd.read_parquet(src_parquet).to_arrow_refs()
    ]
    loaded = _migrate(
        lake, epoch, cols, -1, True,
        {"num_partitions": num_partitions, "bootstrap": True},
    )
    return {"epoch": int(epoch), "rows_loaded": int(loaded)}


_FEED_KEYS = pa.schema([("conv_id", pa.string()), ("turn_idx", pa.int32())])


def _indexed_keys(t: "pa.Table | None", index: str) -> pa.Table:
    """The key projection of one diff side plus its row numbers."""
    keys = (_FEED_KEYS.empty_table() if t is None
            else t.select(KEY_COLUMNS).cast(_FEED_KEYS))
    return keys.append_column(
        index, pa.array(np.arange(keys.num_rows, dtype=np.int64)))


def _same(x0: pa.ChunkedArray, x1: pa.ChunkedArray) -> pa.ChunkedArray:
    """Row-wise payload equality in which null (and float NaN) equals
    null."""
    both_null = pc.and_(pc.is_null(x0, nan_is_null=True),
                        pc.is_null(x1, nan_is_null=True))
    return pc.or_(pc.fill_null(pc.equal(x0, x1), False), both_null)


def diff_snapshots(
    a: "pa.Table | None", b: "pa.Table | None"
) -> pa.Table:
    """PURE change-feed diff kernel: the row-level net effect between
    two canonical snapshot tables (live rows, payload columns, unique
    (conv_id, turn_idx) keys; ``None`` = no rows). ``I`` = key appeared,
    ``D`` = disappeared (null payload), ``U`` = any payload column
    changed, null equal to null; an identical rewrite does not feed.
    Columns: ``op``, ``conv_id``, ``turn_idx`` and side 1's payload
    columns in their native Arrow types (an empty side 1 feeds bare
    ``D`` rows); a column only side 0 has is not compared. Sorted by
    :func:`sort_canonical`.

    Arrow only: a hash join of the two sides' key + row-number
    projections, a ``take`` + ``equal`` per payload column over the
    matched rows, then one ``take`` of side 1's payload. Property-tested
    against a dict-based naive diff."""
    a = a if a is not None and a.num_rows else None
    b = b if b is not None and b.num_rows else None
    payload = [] if b is None else [
        c for c in b.column_names if c not in KEY_COLUMNS
    ]
    j = _indexed_keys(a, "_i0").join(
        _indexed_keys(b, "_i1"), list(KEY_COLUMNS), join_type="full outer"
    )
    matched = pc.and_(pc.is_valid(j.column("_i0")),
                      pc.is_valid(j.column("_i1")))
    both = j.filter(matched)
    changed = pa.array(np.zeros(both.num_rows, dtype=bool))
    for c in payload:
        x1 = b.column(c).take(both.column("_i1"))
        if a is not None and c in a.column_names:
            diff = pc.invert(_same(a.column(c).take(both.column("_i0")), x1))
        else:  # added by evolution: feeds only where side 1 has a value
            diff = pc.is_valid(x1)
        changed = pc.or_(changed, diff)
    j = sort_canonical(
        pa.concat_tables([j.filter(pc.invert(matched)), both.filter(changed)])
    )
    i0, i1 = j.column("_i0"), j.column("_i1")
    op = pc.if_else(pc.is_null(i1), "D", pc.if_else(pc.is_null(i0), "I", "U"))
    cols = {"op": op, "conv_id": j.column("conv_id"),
            "turn_idx": j.column("turn_idx")}
    if payload:  # D rows take a null index: null payload
        cols.update(zip(payload, b.select(payload).take(i1).columns))
    return pa.table(cols)


def _canonical(state: "pa.Table | None") -> "pa.Table | None":
    """A fold's canonical snapshot: it is already in key order."""
    return None if state is None else _live_payload(state)


def _part_feed(paths0: list, paths1: list) -> pa.Table:
    """One partition's feed between two compositions (base first, then
    deltas), reading each file once.

    When ``paths0`` is a prefix of ``paths1`` the chain only grew by
    delta files. Committed files are immutable and their names are never
    reused, so only conversations present in the new files can differ:
    the prefix is filtered to them before both folds, and the old state
    folds once and feeds the new one. Every other pair (a compaction,
    GC, expiry or migration rewrite in the range, or no ``from``
    snapshot) folds both compositions in full. An ``_lsn`` cut at the
    ``from`` epoch's high-water mark would not be exact: a late event
    below it still wins LWW for its key.

    The result equals :func:`diff_snapshots` of the two full canonical
    snapshots, schema included."""
    tables = {
        p: pq.ParquetFile(p).read() for p in dict.fromkeys([*paths0, *paths1])
    }
    t0 = [tables[p] for p in paths0]
    t1 = [tables[p] for p in paths1]
    n = len(t0)
    if not (n and paths1[:n] == paths0):
        return diff_snapshots(_canonical(fold_state_tables(t0)),
                              _canonical(fold_state_tables(t1)))
    touched = pa.chunked_array(
        [t.column("conv_id") for t in t1[n:]], pa.string()
    ).unique()
    hit = [pc.is_in(t.column("conv_id"), value_set=touched) for t in t0]
    pre = fold_state_tables([t.filter(h) for t, h in zip(t0, hit)])
    post = _canonical(fold_state_tables([pre, *t1[n:]]))
    feed = diff_snapshots(_canonical(pre), post)
    if post is None or not post.num_rows:
        # the untouched conversations decide whether the full `to`
        # snapshot is empty, which feeds bare D rows
        rest = _canonical(fold_state_tables(
            [t.filter(pc.invert(h)) for t, h in zip(t0, hit)]))
        if rest is None or not rest.num_rows:
            return feed
    # side 1's payload columns as the full `to` snapshot has them
    full = _live_payload(
        unify_additive(*[t.schema for t in t1 if t.num_rows]).empty_table())
    return conform(feed, pa.schema(
        [feed.schema.field(c) for c in ("op", *KEY_COLUMNS)]
        + [f for f in full.schema if f.name not in KEY_COLUMNS]))


def changefeed_range_refs(lake: Lake, from_epoch: int, to_epoch: int) -> list:
    """Per-partition change-feed refs for the NET effect of epochs
    ``(from_epoch, to_epoch]`` — the diff of the two time-travel
    snapshots (the Delta `table_changes(from, to)` analogue), computed
    by one :func:`_part_feed` task per partition: when the range only
    appended delta files to a partition's composition, it folds just the
    conversations those files touch; otherwise it folds both
    compositions in full. A consumer
    that catches up after missing several epochs reads ONE compacted
    feed instead of replaying each epoch's feed; intermediate churn
    (insert-then-delete, update-then-revert) nets out by construction.
    ``from_epoch = -1`` diffs against the empty lake (every live row
    feeds as ``I``). This is the scale surface: consumers write or
    forward each partition's feed without ever gathering the whole range
    on the driver; :func:`changefeed_range` / :func:`changefeed` are the
    small-result convenience wrappers that do gather."""
    import ray  # noqa: F401  (refs are ray ObjectRefs)

    if not lake.is_committed(to_epoch):
        raise ValueError(f"epoch {to_epoch} is not committed")
    if from_epoch >= to_epoch:
        raise ValueError(
            f"from_epoch {from_epoch} must be < to_epoch {to_epoch}"
        )
    has_base = from_epoch >= 0 and any(
        e <= from_epoch for e in lake.committed_epochs()
    )
    sets0 = lake.current_file_sets(as_of=from_epoch) if has_base else {}
    sets1 = lake.current_file_sets(as_of=to_epoch)
    feed = _remote(_part_feed)
    return [
        feed.remote(sets0.get(pid, []), sets1.get(pid, []))
        for pid in sorted(set(sets0) | set(sets1))
    ]


def changefeed_refs(lake: Lake, epoch: int) -> list:
    """Per-partition change-feed refs for one ``epoch`` (its net effect
    vs the previous snapshot) — the single-epoch form of
    :func:`changefeed_range_refs`."""
    return changefeed_range_refs(lake, epoch - 1, epoch)


def changefeed_range(lake: Lake, from_epoch: int, to_epoch: int) -> pa.Table:
    """Gather-to-driver convenience form of :func:`changefeed_range_refs`
    (sorted (conv_id, turn_idx))."""
    import ray

    tabs = [
        t
        for t in ray.get(changefeed_range_refs(lake, from_epoch, to_epoch))
        if t.num_rows
    ]
    if not tabs:
        return diff_snapshots(None, None)
    return sort_canonical(concat_evolving(tabs))


def changefeed(lake: Lake, epoch: int) -> pa.Table:
    """Change-data-feed OUT (the Delta-CDF analogue): the row-level net
    effect of ``epoch`` against the previous snapshot. Like Delta's
    change feed it starts from the files the epoch added: under
    merge-on-read an epoch appends one delta file per partition, and
    only the conversations in it are folded and diffed (a compaction
    epoch folds both snapshots in full). No extra bookkeeping at write
    time, and it works retroactively for any committed epoch because
    data files are immutable. Per key: ``I`` = appeared, ``D`` =
    disappeared, ``U`` = any payload column changed; an update that
    rewrote identical values does not feed (net-effect semantics, same
    rule as the compacted exchange). One task per partition (pid routing
    is stable across epochs), Arrow diff kernel
    (:func:`diff_snapshots`); sorted (conv_id, turn_idx) output.
    This is the gather-to-driver convenience form — scale consumers use
    :func:`changefeed_refs` and handle each partition's feed in place.
    Catching up over several epochs at once: :func:`changefeed_range`."""
    return changefeed_range(lake, epoch - 1, epoch)


def vacuum_lake(lake: Lake, keep_epochs: int = 1) -> dict:
    """Physically delete data files that no retained snapshot references
    (the Delta-VACUUM analogue, and the completion of ``expire_turns``'s
    compliance note: expired rows vanish from the lake's BYTES, not just
    its current state).

    Retained snapshots: every ``as_of`` from ``max_epoch - keep_epochs``
    up to the head (plus the head itself). Everything under ``data/``
    not referenced by one of those compositions is removed. Time travel
    below the horizon stops resolving — that is the point. Lineage XML
    and commit records are audit metadata and are kept. Safe under
    concurrent readers of retained snapshots (their files are never
    candidates); a crash mid-delete just leaves fewer bytes to delete
    next run."""
    import glob

    epochs = lake.committed_epochs()
    if not epochs:
        return {"files_deleted": 0, "bytes_deleted": 0}
    horizon = max(epochs) - max(keep_epochs, 0)
    keep: set[str] = set()
    for e in [x for x in epochs if x >= horizon] or [max(epochs)]:
        for paths in lake.current_file_sets(as_of=e).values():
            keep.update(os.path.abspath(p) for p in paths)
    # the head may fold GC rewrites newer than any epoch number
    for paths in lake.current_file_sets().values():
        keep.update(os.path.abspath(p) for p in paths)

    # Staged-but-uncommitted files of an IN-FLIGHT epoch or GC rewrite
    # (state files land before the commit record — the two-phase-commit
    # write order) must survive a concurrent vacuum, or the subsequent
    # commit references deleted data. Anything numbered above the
    # committed watermarks is a writer's staging area, not garbage;
    # crash orphans there are reclaimed once a higher number commits.
    max_epoch = max(epochs)
    gc_seqs = lake.gc_seqs()
    max_gc = max(gc_seqs) if gc_seqs else -1
    dir_re = re.compile(r"^(epoch|gc)=(\d+)$")

    n, freed = 0, 0
    for p in glob.glob(os.path.join(lake.root, "data", "*", "*.parquet")):
        ap = os.path.abspath(p)
        if ap in keep:
            continue
        m = dir_re.match(os.path.basename(os.path.dirname(ap)))
        if m:
            kind, num = m.group(1), int(m.group(2))
            if (kind == "epoch" and num > max_epoch) or (
                kind == "gc" and num > max_gc
            ):
                continue  # in-flight staging — the next commit needs it
        try:
            freed += os.path.getsize(ap)
            os.remove(ap)
            n += 1
        except OSError:
            pass  # already gone / concurrent vacuum — next run finishes
    return {"files_deleted": n, "bytes_deleted": int(freed),
            "horizon_epoch": int(horizon)}


def tail_job(
    lake_dir: str,
    wal_dir: str,
    cfg: EngineConfig | None = None,
    *,
    salt_keys: frozenset[str] = frozenset(),
    poll_interval: float = 0.5,
    idle_timeout: float = 10.0,
) -> dict:
    """CONTINUOUS tail — the north star's deployment shape: poll the WAL
    directory and apply new epochs as they appear (each through the
    normal exactly-once commit), returning once no new epoch has landed
    for ``idle_timeout`` seconds. Every pass is a plain :func:`run_job`
    (discovery + skip of committed epochs), so crash/restart at any
    point resumes identically. Producer contract: epoch directories
    must land in ascending order and be published atomically (write
    under a temp name, rename into place — the same discipline the
    engine's own commits use); a half-visible epoch would otherwise
    commit without its missing files."""
    t0 = time.perf_counter()
    totals = {"epochs_applied": 0, "events_received": 0, "files_skipped": 0,
              "passes": 0}
    last_new = time.monotonic()
    while True:
        summary = run_job(lake_dir, wal_dir, cfg, salt_keys=salt_keys)
        totals["passes"] += 1
        totals["epochs_applied"] += summary["epochs_applied"]
        totals["events_received"] += summary["events_received"]
        totals["files_skipped"] += summary["files_skipped"]
        if summary["epochs_applied"]:
            last_new = time.monotonic()
        if time.monotonic() - last_new >= idle_timeout:
            break
        time.sleep(poll_interval)
    totals["duration_sec"] = time.perf_counter() - t0
    totals["events_per_sec"] = (
        totals["events_received"] / totals["duration_sec"]
        if totals["duration_sec"] > 0 else 0.0
    )
    return totals
