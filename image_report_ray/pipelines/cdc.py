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

    inline branch: a lone delta epoch of <= INLINE_EPOCH_ROWS Parquet rows
      handed no map refs (a follower's steady state) runs the same map
      and merge kernels in the driver, one partition after another,
      then the same lineage and commit — no Ray task, same bytes

Why raw Ray tasks for the exchange instead of ``Dataset.groupby``: the
epoch is a *transaction* — every merge must see exactly the prior epoch's
committed state, so each epoch ends at a commit barrier.  Under Ray Data's
streaming executor that barrier turns the sort-based ``groupby`` shuffle
into a serial choke point (the executor also reserves CPU slots per
operator, so a 4-operator pipeline at small CPU counts runs each phase
~2-wide; measured: 2->8 CPUs gave only 1.26x).  The two-stage object-store
exchange here is the textbook map/reduce shuffle — split tasks return one
object per merge group (``num_returns=G+1``), merge task g consumes
column g of the ref matrix.  Its per-partition form measured 2.9x
from 2->8 CPUs on the same input.  At small epochs a Ray shuffle's cost
follows its object and task counts more than its bytes: with one object
and one task per partition, that cost exceeded the merge work at the
benchmark's epoch sizes.  One per CPU slot keeps the exchange as wide
as the cluster and no wider.  Every per-partition stage (merge, sharded
feed, GC/expiry, export, migrations, cdcq state queries) fans out the
same way through :func:`per_partition`, whose exchange mode consumes a
:func:`split_stage`; a gathered snapshot or feed is one driver sort.
The one exception is the inline branch above: an epoch whose work is
smaller than Ray's fixed cost per task and object (see
:data:`INLINE_EPOCH_ROWS`) and that reads no prior state is mapped
and merged in the driver, so its cost stays O(epoch).
Partition is still the unit of state: each one is merged, written,
digested and reported on its own, so files and commits do not depend
on G.  The grouping is static (``i % G``), so a group
holding a hot partition finishes last, and salting a hot conversation
(``salt_keys``) stays the remedy for that skew.  Dataset remains the API
for sources and stateless stages; a changelog Dataset is accepted
directly (its blocks feed the same split tasks).

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
full state every epoch. The merge, GC/expiry rewrites, reshard and
bootstrap stage partitions through one writer (``stage_partition``:
state, the lake's declared views, digest, metrics) and commit through
one publish (:func:`publish_commit`: lineage reports, then the record),
so views and lineage survive every rewrite. With more than one epoch
pending, ``run_job`` keeps a bounded lookahead of map stages in flight
so epoch K+1 reads/compacts while epoch K merges — the WAL never
materializes fully.
"""

from __future__ import annotations

import dataclasses
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
    unify_additive,
)
from ..stages.derive import make_add_pid, validate_changes
from ..state.manifest import (
    Lake, read_canonical, read_composition, read_state_file, stage_partition)
from ..state.merge import (
    SRC_COL,
    MergeStats,
    _Sorted,
    _lww_sort,
    _np,
    fold_canonical,
    merge_state_with_changes,
    payload_names,
    sort_canonical,
)
from ..xmlreport import build_partition_report, write_report
from ._util import arrow_refs

_EPOCH_DIR_RE = re.compile(r"^epoch=(\d+)$")

# the commit-entry and lineage-report fields of a partition writer row
# (``stage_partition``)
_ENTRY_FIELDS = (
    "file", "files", "views", "digest", "rows_live", "tombstoned",
    "keys_total", "last_lsn", "received", "applied",
)
_REPORT_FIELDS = (
    "digest", "duration_sec", "metrics", "metrics_computed",
    "metrics_failed", "metrics_duration_sec",
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
    prior: "pa.Table | list[pa.Table] | None",
    prior_lsn: int,
    lake_root: str,
    epoch: int,
    track_hot_keys: int,
    metric_names: tuple[str, ...] = ("turn_profile", "lsn_span", "live_ratio"),
    view_names: tuple[str, ...] = (),
) -> dict | None:
    """The reduce side: apply one partition's change slices to its state
    (``prior``: one state table, or a composition to fold in the same
    sort as the changes — see ``merge_state_with_changes``) and stage
    the result with the partition writer (``stage_partition``), which
    computes each of ``view_names`` in full over it; returns the
    writer's row. Idempotent: a Ray retry overwrites the same staged
    paths, and visibility waits for the commit record (two-phase,
    manifest.py)."""
    t0 = time.perf_counter()
    parts = [p for p in parts if p.num_rows]
    if not parts:
        return None
    changes = concat_evolving(parts)
    new_state, stats = merge_state_with_changes(
        prior, changes, prior_last_lsn=prior_lsn, track_hot_keys=track_hot_keys
    )
    return stage_partition(
        new_state, lake_root, "epoch", epoch, pid, stats,
        views=view_names, metric_names=metric_names, t0=t0,
    )


def read_wal_file(path: str) -> pa.Table:
    """Read one WAL file in either supported source format: Parquet or
    JSONL (newline-delimited change events — the log-shipping format
    most CDC relays emit). JSONL columns are cast to the change schema
    (ints narrowed, ISO timestamps parsed); columns beyond the schema
    (additive evolution) pass through untouched."""
    if not path.endswith((".jsonl", ".json")):
        return read_state_file(path)
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


def _group_count(n: int) -> int:
    """G, the fan-out's group count: one task per CPU slot of the
    cluster, never more than one per partition."""
    import ray

    ray.get_runtime_context()  # starts Ray if needed, as a first .remote() would
    return max(1, min(n, int(ray.cluster_resources().get("CPU", 1))))


def _group_slices(slices: tuple, G: int) -> tuple:
    """The exchange's grouping: ``G`` tuples of partition slices, group
    ``g`` holding pids ``g, g + G, g + 2G, ...`` in pid order."""
    return tuple(slices[g::G] for g in range(G))


def _each(fn, jobs, shared, *objs):
    """The one group task: yields ``fn(*job, *shared)`` for each of its
    jobs in turn, one return value per job (``num_returns=len(jobs)``, so
    each result is stored as soon as it is yielded). In exchange mode
    ``objs`` are the group's object from each split task, holding the
    group's slices in job order, and job ``k`` also gets
    ``[o[k] for o in objs]`` as its last argument."""
    for k, job in enumerate(jobs):
        if objs:
            yield fn(*job, *shared, [o[k] for o in objs])
        else:
            yield fn(*job, *shared)


def per_partition(fn, jobs: list, *shared, exchange: list | None = None) -> list:
    """THE partition fan-out under every per-partition Ray stage: runs
    ``fn(*job, *shared)`` for each job (one partition's arguments) in
    ``G = min(len(jobs), cluster CPUs)`` :func:`_each` tasks, job ``i``
    in group ``i % G`` (Ray's cost per task and object exceeds a small
    partition's work), and returns one ref per job, in job order. Ray
    resolves only top-level task arguments: jobs hold no ``ObjectRef``.

    ``exchange`` is the ref lists of a :func:`split_stage` (``G + 1``
    refs per split task: G groups of slices and a count). Job ``i`` is
    then partition ``i``, G is read back from the refs, and each job
    also gets its slices from every split task, in task order, as its
    last argument; no split task means no work."""
    if not jobs or exchange is not None and not exchange:
        return []  # no partition, or no split task: no work
    if exchange is None:
        G = _group_count(len(jobs))
        objs = [()] * G
    else:
        G = len(exchange[0]) - 1
        objs = [[m[g] for m in exchange] for g in range(G)]
    task = _remote(_each)
    groups = []
    for g in range(G):
        refs = task.options(num_returns=len(jobs[g::G])).remote(
            fn, jobs[g::G], shared, *objs[g])
        groups.append(refs if isinstance(refs, list) else [refs])  # one job: a bare ref
    return [groups[i % G][i // G] for i in range(len(jobs))]


def map_partitions(lake: Lake, fn, *shared, as_of: int | None = None) -> list:
    """:func:`per_partition` over the lake's committed partitions:
    ``fn(paths, *shared)`` per partition's composition (base first, then
    deltas; the ``as_of`` snapshot if given), refs in pid order."""
    sets = lake.current_file_sets(as_of)
    return per_partition(fn, [(paths,) for _, paths in sorted(sets.items())],
                         *shared)


def _split(fn, block, P: int, G: int, *args) -> tuple:
    """The one split task: ``fn(block, P, *args)`` returns the block's P
    partition slices and a count; they leave grouped ``G`` ways, plus
    the count in the last slot."""
    slices, count = fn(block, P, *args)
    return _group_slices(slices, G) + (count,)


def split_stage(fn, blocks, P: int, *args) -> list:
    """The split side of an exchange: one :func:`_split` task per input
    block, each returning G + 1 refs for :func:`per_partition`'s
    exchange mode, ``G = min(P, cluster CPUs)``. ``num_returns=G+1`` is
    always >= 2, so Ray returns a real list even when G is 1."""
    G = _group_count(P)
    task = _remote(_split).options(num_returns=G + 1)
    return [task.remote(fn, b, P, G, *args) for b in blocks]


def _map_files(files: list[str], P: int, salt_keys, salt_factor, cont: bool):
    # Malformed-file policy mirrors the reference's unreadable-image
    # handling (reference ir:384-388 None-check + counted
    # failure): keep-going skips and logs the bad file; fail-fast
    # propagates and the epoch never commits. OSError covers files
    # that vanished or are unreadable at the filesystem level —
    # the skip policy is about *unreadable inputs*, not just
    # malformed Parquet. The skip count rides in the split task's last
    # return slot so the run summary (and exit code) can report it
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
        return (pa.table({}),) * P, skipped
    slices = prepare_and_split(
        concat_evolving(tables), P, salt_keys, salt_factor,
        continue_on_error=cont,
    )
    return slices, skipped


def _map_block(block: pa.Table, P: int, salt_keys, salt_factor, cont: bool):
    return prepare_and_split(
        block, P, salt_keys, salt_factor, continue_on_error=cont
    ), 0


def _merge_part(pid, prior_paths, prior_lsn, vnames, lake_root, epoch,
                mnames, parts):
    """Merge one partition's slices, in map-task order; ``None`` when the
    epoch has no events for it (its committed entry stands, and its prior
    state is not read). With ``prior_paths`` it is a compaction: the
    prior composition (base + deltas) is read unfolded and sorted once
    with the epoch's events into a full state file. Empty
    ``prior_paths`` (a fresh partition, or a delta epoch) writes the
    epoch's winners alone: a delta epoch costs O(delta) and cross-epoch
    resolution happens at fold time (Hudi/Iceberg merge-on-read, public
    design). The views ``vnames`` (a whole-state write's: a
    compaction's, or a fresh partition's) are computed in full over the
    file written."""
    parts = [p for p in parts if p.num_rows]
    if not parts:
        return None
    prior = [read_state_file(p) for p in prior_paths]
    return merge_partition_kernel(
        pid, parts, prior, prior_lsn, lake_root, epoch, 3,
        metric_names=mnames, view_names=vnames,
    )


def _footer_rows(path: str) -> int | None:
    """A WAL file's row count from its Parquet footer (metadata only —
    no data read); ``None`` when it has none to read: a JSONL file, or
    one unreadable at the footer (the map task applies the skip
    policy)."""
    try:
        return pq.read_metadata(path).num_rows
    except (pa.ArrowInvalid, OSError):
        return None


def _group_files(files: list[str], target_rows: int) -> list[list[str]]:
    """Greedy grouping of WAL files into ~target_rows map tasks using
    Parquet footer row counts. A file with no footer to count gets a
    task of its own: its size is unknown, so grouping it could put a
    whole JSONL epoch in one task."""
    groups: list[list[str]] = []
    cur: list[str] = []
    cur_rows = 0
    for f in files:
        n = _footer_rows(f)
        if n is None:
            n = float("inf")  # closes the open task, and its own
        if cur and cur_rows + n > target_rows:
            groups.append(cur)
            cur, cur_rows = [], 0
        cur.append(f)
        cur_rows += n
    if cur:
        groups.append(cur)
    return groups


def submit_map_stage(
    lake: Lake, wal: "str | list[str] | object", cfg: EngineConfig
) -> list:
    """Launch the epoch's map tasks (a :func:`split_stage`); returns the
    list of per-task ref tuples. Each has G+1 object refs,
    ``G = min(P, cluster CPUs)``: one per merge group (the slices of
    pids ``g, g + G, ...``), plus the task's skipped-file count in the
    last slot.

    ``wal`` is a file, a list of files or a ``ray.data.Dataset`` whose
    blocks each feed one map task. Read a WAL directory into a Dataset
    with ``partitioning=None``: Ray Data's default hive partitioning
    adds an ``epoch`` string column from the ``epoch=K/`` directory
    names, which validation passes as additive evolution into every
    state row."""
    args = (lake.salt_keys, lake.salt_factor, cfg.continue_on_error)
    if isinstance(wal, str):
        wal = [wal]
    if isinstance(wal, list):
        blocks = _group_files(wal, cfg.map_task_rows)
        return split_stage(_map_files, blocks, lake.num_partitions, *args)
    # a ray.data.Dataset: execute its (lazy) plan; blocks feed split tasks.
    return split_stage(_map_block, arrow_refs(wal), lake.num_partitions, *args)


# The largest epoch the driver maps and merges itself (``apply_epoch``'s
# inline branch), in WAL rows counted from Parquet footers. Measured on
# a 4-CPU host (Ray num_cpus=4), delta epochs only (compact_every=8):
# tree CPU (driver + Ray workers + raylet + GCS) and wall per epoch,
# inline against the fan-out, median of 36 epochs:
#
#     events/epoch   P=8 CPU   P=8 wall   P=16 CPU   P=16 wall
#            1,000      -52%       -19%       -50%        -14%
#            2,000      -44%       -12%       -42%         +1%
#            4,000      -52%       -15%       -44%         +1%
#            8,000      -42%        +0%       -37%        +15%
#           16,000      -37%        +9%       -35%        +12%
#
# 4096 is the largest power of two at which inlining costs no wall time
# at either P: above it the fan-out's parallel merges win the wall back.
INLINE_EPOCH_ROWS = 4096


def _inline_files(wal) -> list[str] | None:
    """``wal`` as a list of files if the driver may map it itself:
    Parquet files whose footers sum to at most :data:`INLINE_EPOCH_ROWS`
    rows. ``None`` for a Dataset, for a file with no footer to count
    (JSONL, or unreadable) and for a larger epoch."""
    files = [wal] if isinstance(wal, str) else wal
    if not isinstance(files, list):
        return None
    total = 0
    for f in files:
        n = _footer_rows(f)
        if n is None or total + n > INLINE_EPOCH_ROWS:
            return None
        total += n
    return files


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
    that fed them; the merges are :func:`per_partition`'s exchange mode,
    one :func:`_merge_part` per partition, one task per group.

    Without ``map_refs``, an epoch of Parquet files with at most
    :data:`INLINE_EPOCH_ROWS` rows that compacts no partition runs in
    the driver: one :func:`_map_files` over its files, then each
    partition's :func:`_merge_part` in pid order. These are the fan-out's
    kernels, so the rows, files and commit are the same; a delta reads
    no prior state, so the driver's work is O(epoch). Anything else
    fans out.

    A partition's whole-state writes (a compaction, or its first file)
    stage the lake's declared views; a later delta carries its entry's
    views (the documented merge-on-read view lag)."""
    return _apply_epoch(lake, epoch, wal, cfg, map_refs)[0]


def _apply_epoch(
    lake: Lake, epoch: int, wal, cfg: EngineConfig | None, map_refs: list | None
) -> tuple[dict[int, MergeStats] | None, int]:
    """:func:`apply_epoch`, plus the number of unreadable WAL files the
    epoch's map stage skipped (keep-going policy), whichever way it ran;
    0 for an epoch already committed."""
    import ray

    cfg = cfg or EngineConfig(num_partitions=lake.num_partitions)
    if lake.is_committed(epoch):
        return None, 0

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
        # a delta unless the composition is due for compaction
        # (compact_every=1 folds-and-rewrites every epoch)
        compact = compacted[pid] = len(prior) + 1 >= cfg.compact_every
        # a delta reads no prior state; it stages views only as the
        # partition's first file, which is then its whole state
        jobs.append((pid, prior if compact else [], lsns.get(pid, -1),
                     lake.views if compact or not prior else ()))
    # a compaction reads whole prior compositions: it fans out
    files = None
    if map_refs is None and not any(compacted.values()):
        files = _inline_files(wal)
    if files is not None:  # the inline branch
        slices, skipped = _map_files(files, lake.num_partitions, lake.salt_keys,
                                     lake.salt_factor, cfg.continue_on_error)
        rows = [_merge_part(*job, lake.root, epoch, mnames, [slices[job[0]]])
                for job in jobs]
    else:
        mats = map_refs if map_refs is not None else submit_map_stage(lake, wal, cfg)
        rows = ray.get(per_partition(_merge_part, jobs, lake.root, epoch,
                                     mnames, exchange=mats))
        # last return slot of every map task = its skip count
        skipped = sum(ray.get([m[-1] for m in mats]))
    rows = [r for r in rows if r is not None]
    for row in rows:
        pid = row["pid"]
        # a compacted entry replaces the composition; a delta appends to
        # it and carries its entry's views (the documented view lag)
        if not compacted[pid] and pid in current:
            row["files"] = rel_sets[pid] + row["files"]
            row["views"] = current[pid].get("views") or {}
    return publish_commit(lake, "epoch", epoch, rows, {
        "num_partitions": lake.num_partitions,
        "salt_factor": lake.salt_factor,
        "salted_keys": len(lake.salt_keys),
    }), skipped


def publish_commit(
    lake: Lake, kind: str, num: int, rows: list[dict], params: dict, *,
    after_epoch: int | None = None, carry: dict[int, dict] | None = None,
) -> dict[int, MergeStats]:
    """THE publish of every partition commit — an epoch merge, a
    migration, or a GC/expiry rewrite (``kind="gc"``, folding after
    ``after_epoch``): one lineage report per partition writer row
    (``params`` plus the row's own ``params``), then the commit record
    of their entries. ``carry[pid]`` overrides entry fields (a rewrite
    keeps the superseded entry's event counters; its report counts no
    events). The record is the commit point, so every report it vouches
    for is on disk before it. Returns pid -> the reported ledger."""
    entries: dict[int, dict] = {}
    out: dict[int, MergeStats] = {}
    for row in rows:
        pid = int(row["pid"])
        stats = out[pid] = MergeStats(
            **{f.name: row[f.name] for f in dataclasses.fields(MergeStats)})
        report = build_partition_report(
            pid=pid, epoch=num if after_epoch is None else after_epoch,
            stats=stats, params={**params, **row.get("params", {})},
            **{k: row[k] for k in _REPORT_FIELDS})
        write_report(report, lake.lineage_path(num, pid, kind=kind))
        entries[pid] = {**{k: row[k] for k in _ENTRY_FIELDS},
                        **(carry or {}).get(pid, {})}
    if kind == "gc":
        lake.commit_gc(num, after_epoch, entries)
    else:
        lake.commit(num, entries)
    return out


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
    views: "tuple[str, ...] | None" = None,
) -> dict:
    """Tail the whole WAL: apply every epoch in order, skipping committed
    ones (resume). ``salt_keys`` and ``views`` are lake config, fixed
    when the lake is made (:class:`Lake`); ``views=None`` on an existing
    lake takes its declared set. With more than one epoch pending, map
    stages for up to ``cfg.epoch_lookahead`` future epochs run while the
    current epoch merges/commits — the streaming overlap that keeps
    workers busy across the per-epoch commit barrier. A lone pending epoch (a
    follower's steady state) has nothing to overlap with: it goes to
    :func:`apply_epoch` with no map refs, which runs a small delta
    epoch in the driver.
    Returns the run summary (events/s, counts) — the engine's version of
    the reference's end-of-run summary (/root/reference/ir:606-617)."""
    cfg = cfg or EngineConfig()
    lake = Lake(
        lake_dir,
        num_partitions=cfg.num_partitions,
        salt_keys=salt_keys,
        salt_factor=cfg.salt_factor,
        views=views,
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
    if len(pending) > 1:  # a later epoch to overlap with
        for e in pending[: cfg.epoch_lookahead + 1]:
            inflight[e] = submit_map_stage(lake, epochs[e], cfg)
    for i, e in enumerate(pending):
        nxt = i + cfg.epoch_lookahead + 1
        if nxt < len(pending) and pending[nxt] not in inflight:
            inflight[pending[nxt]] = submit_map_stage(lake, epochs[pending[nxt]], cfg)
        res, skipped = _apply_epoch(lake, e, epochs[e], cfg, inflight.pop(e, None))
        # unreadable WAL files the keep-going policy skipped: surfaced
        # in the summary + exit code
        files_skipped += skipped
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


def _rewrite_part(pid, paths, last_lsn, lake_root, seq, drop, arg, views):
    """The one maintenance task: fold the partition's composition (a
    rewrite implies compaction), drop the rows ``drop(t, arg)`` marks and
    stage the rest as ``gc=seq`` with the partition writer, recomputing
    ``views`` in full over it. Returns the writer's row, its report
    params holding the rows dropped."""
    t0 = time.perf_counter()
    t = read_composition(paths)
    if t is None:  # an earlier rewrite emptied it: its zero-row file
        t = read_state_file(paths[-1])
    kept = t.filter(pc.invert(drop(t, arg)))
    row = stage_partition(kept, lake_root, "gc", seq, pid,
                          views=views, t0=t0)
    row.update(last_lsn=last_lsn,
               params={"rows_dropped": t.num_rows - kept.num_rows})
    return row


def _maintenance_rewrite(
    lake: Lake, drop, arg, *, commit_noop: bool
) -> tuple[int | None, int, int]:
    """Rewrite every partition's current state, one ``_rewrite_part`` per
    partition (:func:`per_partition`), restaging the lake's declared
    views, and publish the result (:func:`publish_commit`) as a
    ``gc=N`` commit with a lineage report per partition. It folds after
    the epochs it compacted and before any later WAL epoch (see
    ``Lake.current_entries``); a crash before the record lands leaves
    only invisible staging files. A rewrite that dropped nothing
    publishes only if ``commit_noop``. Returns ``(gc_seq, partitions,
    rows dropped)``, ``gc_seq`` None when nothing was committed."""
    import ray

    current = lake.current_entries()
    if not current:
        return None, 0, 0
    after_epoch = max(e["epoch"] for e in current.values())
    seqs = lake.gc_seqs()
    seq = seqs[-1] + 1 if seqs else 0
    jobs = [
        (pid, [os.path.join(lake.root, r) for r in e.get("files") or [e["file"]]],
         e["last_lsn"])
        for pid, e in sorted(current.items())
    ]
    rows = ray.get(per_partition(_rewrite_part, jobs, lake.root, seq, drop,
                                 arg, lake.views))
    dropped = sum(r["params"]["rows_dropped"] for r in rows)
    if not dropped and not commit_noop:
        # the staged files of this no-op stay invisible, same as any
        # crash-before-commit orphan
        return None, 0, 0
    publish_commit(
        lake, "gc", seq, rows,
        {"num_partitions": lake.num_partitions, "gc_seq": seq,
         "predicate": drop.__name__.strip("_"), "predicate_arg": arg},
        after_epoch=after_epoch,
        carry={pid: {k: e[k] for k in ("received", "applied")}
               for pid, e in current.items()},
    )
    return seq, len(rows), dropped


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

    One fold per partition (base + deltas LWW-folded there,
    :func:`map_partitions`); the refs become Dataset blocks. No global
    sort — ordering is per-conversation within a partition (O3's stable
    reading-order contract). ``as_of`` reads the manifest's epoch
    snapshot (time travel) instead of the head."""
    import ray.data as rd

    refs = map_partitions(lake, _canonical_block, as_of=as_of)
    if not refs:
        raise ValueError("lake has no committed state")
    return rd.from_arrow_refs(refs)


def canonical_state_table(lake: Lake, as_of: int | None = None) -> pa.Table:
    """Globally sorted canonical table — small-scale testing/export only
    (the oracle-equality comparison surface). ``as_of`` reads the
    manifest's epoch snapshot (time travel) instead of the head. One
    :func:`read_canonical` of every partition's composition in pid
    order: one LWW sort, exact because routing sends each key to one
    partition (salted lakes too), its winners already in key order."""
    sets = lake.current_file_sets(as_of)
    t = read_canonical([p for _, paths in sorted(sets.items()) for p in paths])
    return pa.table({}) if t is None else t


# ---- state migrations: reshard and bootstrap -------------------------


def _split_state(paths: list, P: int):
    """Reshard split: fold one source partition's composition and route
    it into ``P`` slices; counts its rows."""
    folded = read_composition(paths)
    if folded is None:
        return (pa.table({}),) * P, 0
    return _split_by_pid(folded, P), folded.num_rows


def _split_boot(block: pa.Table, P: int):
    """Bootstrap split: reject null keys, give every row ``_lsn = -1``
    and no tombstone, and route the block into ``P`` slices; counts its
    rows."""
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
    return _split_by_pid(t, P), block.num_rows


def _write_migrated(pid: int, root: str, epoch: int, last_lsn: int,
                    unique_keys: bool, views: tuple, slices: list):
    """The one migration task: concat a destination partition's slices
    in source order, sort canonically and stage it with the partition
    writer, recomputing ``views`` in full over it; returns the writer's
    row, ``None`` for an empty partition (absent from the manifest).
    ``unique_keys`` (bootstrap, whose source is foreign) rejects
    duplicate ``(conv_id, turn_idx)`` keys."""
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
    row = stage_partition(t, root, "epoch", epoch, pid,
                          views=views, t0=t0)
    row["last_lsn"] = last_lsn
    return row


def _migrate(dst: Lake, epoch: int, splits: list, last_lsn: int,
             unique_keys: bool, params: dict) -> int:
    """Shared tail of the state migrations: one :func:`_write_migrated`
    per destination partition consumes its slices of the split tasks
    (:func:`per_partition`'s exchange mode), staging ``dst``'s declared
    views; then :func:`publish_commit`. Returns total keys written."""
    import ray

    jobs = [(pid,) for pid in range(dst.num_partitions)]
    rows = [r for r in ray.get(per_partition(
        _write_migrated, jobs, dst.root, epoch, last_lsn, unique_keys,
        dst.views, exchange=splits,
    )) if r is not None]
    publish_commit(dst, "epoch", epoch, rows, params)
    return sum(r["keys_total"] for r in rows)


def reshard_lake(src: Lake, dst_root: str, new_partitions: int, *,
                 views: "tuple[str, ...] | None" = None) -> dict:
    """Migrate the lake's CURRENT state to a NEW lake with a different
    partition count. P is immutable for a lake's lifetime (manifest.py
    enforces it), so growing a deployment is a state MIGRATION — this is
    that migration, expressed as the engine's own exchange shape.

    One split task per SOURCE partition folds its state chain and
    splits it into ``new_partitions`` slices under the same crc32
    routing (:func:`split_stage`, the epoch exchange's object-store
    shape); one writer per DEST partition (grouped, :func:`per_partition`)
    concats its slices in src-pid order, re-sorts to the canonical
    (conv_id, turn_idx) state order, writes its state file and computes
    its commit entry. Per-row lsns and tombstones migrate
    untouched and every dest checkpoint carries the GLOBAL max
    ``last_lsn``, so LWW, staleness and exactly-once semantics hold for
    anything delivered after the cutover. The migration commits at the
    source's max committed epoch, so the WAL stream resumes at the next
    epoch number with no renumbering.

    The destination declares ``views`` (``None`` keeps the source's
    set) and stages each in full: changing a lake's view set is this
    migration, to the same or another partition count."""
    src_entries = src.current_entries()
    if not src_entries:
        raise ValueError("source lake has no committed state")
    global_lsn = max(int(e["last_lsn"]) for e in src_entries.values())
    epoch = max(src.committed_epochs())
    dst = Lake(dst_root, num_partitions=new_partitions,
               views=src.views if views is None else views)
    if dst.committed_epochs():  # its commit would replace one of theirs
        raise ValueError("reshard target lake already has commits")
    splits = split_stage(
        _split_state,
        [paths for _, paths in sorted(src.current_file_sets().items())],
        new_partitions,
    )
    moved = _migrate(
        dst, epoch, splits, global_lsn, False,
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
    splits = split_stage(
        _split_boot, arrow_refs(rd.read_parquet(src_parquet)), num_partitions
    )
    loaded = _migrate(
        lake, epoch, splits, -1, True,
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
    """The reference change-feed kernel: the row-level net effect between
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
    against a dict-based naive diff. The engine's feed (:func:`_feed`)
    reaches the same result from one LWW sort of the two snapshots'
    compositions and is tested equal to this kernel over their
    canonical snapshots; this one stays the pure form, for two snapshot
    tables in hand."""
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


def _side_winners(order: _Sorted, side: np.ndarray) -> np.ndarray:
    """Per key run of ``order``, the sorted position of the last row
    from a file of one side (``side[_src]``), -1 where none has one."""
    src = _np(order.keys.column(SRC_COL))
    at = np.where(side[src], np.arange(len(src)), -1)
    return np.maximum.reduceat(at, order.starts) if len(src) else at


def _feed(pairs: list) -> pa.Table:
    """The feed between two snapshots, from one LWW sort that reads each
    file once. ``pairs`` holds one ``(paths0, paths1)`` pair of
    compositions (base first, then deltas) per partition, in pid order;
    routing sends each key to one partition (salted lakes too), so no
    key run mixes pairs and one sort serves them all.

    In each pair, files in the compositions' common prefix are shared;
    the others belong to one side. Committed files are immutable and
    their names are never reused, so only conversations present in a
    one-side file can differ, and of the shared files only the key rows
    of conversations that any one-side file touches are sorted (after a
    compaction, GC or migration in the range, or with no ``from``
    snapshot, a pair shares nothing and both sides sort in full). A
    conversation touched in one partition of a salted lake can pull
    another partition's shared rows into the sort: those keys have the
    same winner on both sides, so they never feed. An ``_lsn`` cut at
    the ``from`` epoch's high-water mark would not be exact: a late
    event below it still wins LWW for its key.

    ``_src`` orders each pair's files [shared, side 0's own, side 1's
    own], so each side keeps its composition order, and the last row of
    a key run from a side's files is that side's own fold winner. Live
    on one side only feeds ``I`` or ``D``; live on both from different
    rows is compared with :func:`_same` on those rows; side 1's payload
    is taken once, for the fed rows, already in key order.

    The result equals :func:`diff_snapshots` of the two full canonical
    snapshots, schema included: side 1's payload columns, or bare ``D``
    rows when the full ``to`` snapshot has no live row (decided by the
    shared files' untouched rows when no sorted key is live in ``to``)."""
    files, role = [], []  # role: 0 shared, 1 side 0's own, 2 side 1's own
    for paths0, paths1 in pairs:
        k = 0
        while k < min(len(paths0), len(paths1)) and paths0[k] == paths1[k]:
            k += 1
        files += [*paths0, *paths1[k:]]
        role += [0] * k + [1] * (len(paths0) - k) + [2] * (len(paths1) - k)
    role = np.array(role, dtype=np.int8)
    tables = {p: read_state_file(p) for p in dict.fromkeys(files)}
    stack = [tables[p] for p in files]
    keep = None
    if (role == 0).any():
        touched = pa.chunked_array(
            [c for t, r in zip(stack, role) if r
             for c in t.column("conv_id").chunks], pa.string()).unique()
        keep = [None if r else _np(pc.is_in(t.column("conv_id"), value_set=touched))
                for t, r in zip(stack, role)]
    order = _lww_sort(stack, keep=keep)
    pos, dead = order.idx, order.stacked.column(DELETED_COL)

    def live(w: np.ndarray) -> np.ndarray:
        out = w >= 0
        out[out] = ~_np(dead.take(pos[w[out]]))
        return out

    w0, w1 = _side_winners(order, role != 2), _side_winners(order, role != 1)
    live0, live1 = live(w0), live(w1)
    schemas1 = [t.schema for t, r in zip(stack, role) if r != 1 and t.num_rows]
    payload = [c for c in payload_names(unify_additive(*schemas1))
               if c not in KEY_COLUMNS] if schemas1 else []
    cand = np.flatnonzero(live0 & live1 & (w0 != w1))
    at0, at1 = pos[w0[cand]], pos[w1[cand]]
    changed = np.zeros(len(cand), dtype=bool)
    for c in payload:
        x = order.stacked.column(c)
        changed |= ~_np(_same(x.take(at0), x.take(at1)))
    fed = live0 != live1
    fed[cand[changed]] = True
    runs = np.flatnonzero(fed)
    keys = order.keys.select(KEY_COLUMNS).take(order.starts[runs])
    cols = {"op": pc.if_else(pa.array(~live1[runs]), "D",
                             pc.if_else(pa.array(~live0[runs]), "I", "U"))}
    cols.update(zip(KEY_COLUMNS, keys.cast(_FEED_KEYS).columns))
    if payload and not live1.any():
        # no sorted key is live in `to`: the untouched keys decide
        # whether the full snapshot is empty, which feeds bare D rows
        rest = fold_canonical([
            t.select([*KEY_COLUMNS, LSN_COL, DELETED_COL]).filter(pa.array(~m))
            for t, m in zip(stack, keep or []) if m is not None])
        payload = payload if rest is not None and rest.num_rows else []
    if payload:  # D rows take a null index: null payload
        i1 = pa.array(pos[w1[runs]], mask=~live1[runs])
        cols.update(zip(payload, order.stacked.select(payload).take(i1).columns))
    return pa.table(cols)


def _part_feed(paths0: list, paths1: list) -> pa.Table:
    """One partition's feed: :func:`_feed` of one pair."""
    return _feed([(paths0, paths1)])


def _feed_pairs(lake: Lake, from_epoch: int, to_epoch: int) -> list:
    """The validated range's ``(paths0, paths1)`` pairs, in pid order."""
    if not lake.is_committed(to_epoch):
        raise ValueError(f"epoch {to_epoch} is not committed")
    if from_epoch >= to_epoch:
        raise ValueError(f"from_epoch {from_epoch} must be < to_epoch {to_epoch}")
    has_base = from_epoch >= 0 and any(e <= from_epoch for e in lake.committed_epochs())
    sets0 = lake.current_file_sets(as_of=from_epoch) if has_base else {}
    sets1 = lake.current_file_sets(as_of=to_epoch)
    return [(sets0.get(pid, []), sets1.get(pid, []))
            for pid in sorted(set(sets0) | set(sets1))]


def changefeed_range_refs(lake: Lake, from_epoch: int, to_epoch: int) -> list:
    """Per-partition change-feed refs, in pid order, for the NET effect of
    epochs ``(from_epoch, to_epoch]`` — the diff of the two time-travel
    snapshots (the Delta `table_changes(from, to)` analogue). Each
    partition's feed is one :func:`_part_feed`, run grouped like every
    partition stage (:func:`per_partition`). A consumer that catches up after
    missing several epochs reads ONE compacted feed instead of replaying
    each epoch's feed; intermediate churn (insert-then-delete,
    update-then-revert) nets out by construction. ``from_epoch = -1``
    diffs against the empty lake (every live row feeds as ``I``). This
    is the scale surface: consumers write or forward each partition's
    feed without ever gathering the whole range on the driver;
    :func:`changefeed_range` / :func:`changefeed` are the small-result
    forms, read on the driver."""
    return per_partition(_part_feed, _feed_pairs(lake, from_epoch, to_epoch))


def changefeed_refs(lake: Lake, epoch: int) -> list:
    """Per-partition change-feed refs for one ``epoch`` (its net effect
    vs the previous snapshot) — the single-epoch form of
    :func:`changefeed_range_refs`."""
    return changefeed_range_refs(lake, epoch - 1, epoch)


def changefeed_range(lake: Lake, from_epoch: int, to_epoch: int) -> pa.Table:
    """The range's feed as one table, sorted (conv_id, turn_idx): one
    :func:`_feed` of every partition on the driver, with no Ray task,
    gather or re-sort; equal to :func:`diff_snapshots` of the two
    time-travel snapshots, schema included."""
    return _feed(_feed_pairs(lake, from_epoch, to_epoch))


def changefeed(lake: Lake, epoch: int) -> pa.Table:
    """Change-data-feed OUT (the Delta-CDF analogue): the row-level net
    effect of ``epoch`` against the previous snapshot. Like Delta's
    change feed it starts from the files the epoch added: under
    merge-on-read an epoch appends one delta file per partition, and
    only the conversations in them enter the feed's one LWW sort (a
    partition compacted in the epoch sorts both compositions in full).
    No extra bookkeeping at write time, and it works retroactively for
    any committed epoch because data files are immutable. Per key: ``I``
    = appeared, ``D`` = disappeared, ``U`` = any payload column changed;
    an update that rewrote identical values does not feed (net-effect
    semantics, same rule as the compacted exchange). Read on the driver
    in one sort over every partition (:func:`_feed`, equal to the
    reference kernel :func:`diff_snapshots`); sorted (conv_id, turn_idx)
    output. This is the small-result form — scale consumers use
    :func:`changefeed_refs` and handle each partition's feed in place.
    Catching up over several epochs at once: :func:`changefeed_range`."""
    return changefeed_range(lake, epoch - 1, epoch)


def vacuum_lake(lake: Lake, keep_epochs: int = 1) -> dict:
    """Physically delete state and view files that no retained snapshot
    references (the Delta-VACUUM analogue, and the completion of
    ``expire_turns``'s compliance note: expired rows vanish from the
    lake's BYTES, not just its current state — including the
    materialized views computed over them).

    Retained snapshots: every ``as_of`` from ``max_epoch - keep_epochs``
    up to the head (plus the head itself). Everything under ``data/``
    and ``views/`` not referenced by one of those snapshots' entries is
    removed. Time travel below the horizon stops resolving — that is the
    point. Commit records and lineage XML (of epochs, GC/expiry rewrites
    and migrations alike) are audit metadata and are kept. Safe under concurrent readers of retained snapshots (their
    files are never candidates); a crash mid-delete just leaves fewer
    bytes to delete next run."""
    import glob

    epochs = lake.committed_epochs()
    if not epochs:
        return {"files_deleted": 0, "bytes_deleted": 0}
    horizon = max(epochs) - max(keep_epochs, 0)
    keep: set[str] = set()
    # the head (None) may fold GC rewrites newer than any epoch number
    for as_of in [x for x in epochs if x >= horizon] + [None]:
        for e in lake.current_entries(as_of).values():
            rels = [*(e.get("files") or [e["file"]]),
                    *(e.get("views") or {}).values()]
            keep.update(os.path.abspath(os.path.join(lake.root, r)) for r in rels)

    # Staged-but-uncommitted files of an IN-FLIGHT epoch or GC rewrite
    # (state and view files land before the commit record — the
    # two-phase-commit write order) must survive a concurrent vacuum, or
    # the subsequent commit references deleted data. Anything numbered
    # above the committed watermarks is a writer's staging area, not
    # garbage; crash orphans there are reclaimed once a higher number
    # commits.
    max_epoch = max(epochs)
    gc_seqs = lake.gc_seqs()
    max_gc = max(gc_seqs) if gc_seqs else -1
    dir_re = re.compile(r"^(epoch|gc)=(\d+)$")

    n, freed = 0, 0
    files = (glob.glob(os.path.join(lake.root, "data", "*", "*.parquet"))
             + glob.glob(os.path.join(lake.root, "views", "*", "*", "*.parquet")))
    for p in files:
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
    views: "tuple[str, ...] | None" = None,
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
        summary = run_job(lake_dir, wal_dir, cfg, salt_keys=salt_keys,
                          views=views)
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
