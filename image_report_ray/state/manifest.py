"""Lake layout, two-phase commit manifest, checkpoint/resume.

Exactly-once is enforced the Delta-Lake way (PAPERS.md, Delta Lake VLDB
2020): data files are written first under deterministic names, then a
single atomically-renamed JSON commit record makes them visible. A crash
mid-epoch leaves only invisible data files (overwritten on retry); a crash
after commit makes the retry a no-op because the epoch is listed as
committed. The deterministic-output-name idea is the reference's
``<stem>.ir.xml`` idempotent overwrite discipline (/root/reference/ir:473,
402-411) promoted to a transactional protocol.

Layout::

    lake/
      _lake.json                         # immutable lake config (P, salt, views, versions)
      _commits/epoch=00004.json          # commit record (atomic rename = commit point)
      data/epoch=00004/pid=00003.parquet # pid 3's state (or MOR delta) as of epoch 4
      views/<view>/epoch=00004/pid=00003.parquet  # a view staged with it
      _lineage/epoch=00004/pid=00003.xml # per-partition lineage report
      ... and the same under gc=00000 for a GC/expiry rewrite

One writer (:func:`stage_partition`) stages every partition's files,
for epoch merges, GC/expiry rewrites and migrations alike.

The commit record doubles as the checkpoint: per partition it stores
``(file, last_lsn, rows_live, tombstoned, keys_total, digest)`` — exactly
the ``(last-applied LSN, row-count, merkle digest)`` triple the north rule
requires for resume.
"""

from __future__ import annotations

import json
import os
import re
import time

import pyarrow as pa
import pyarrow.parquet as pq

from .. import STATE_FORMAT_VERSION, VERSION
from ..functions.metrics import compute_metrics
from ..schema import DELETED_COL, LSN_COL
from .merge import (
    DIGEST_ALGO, MergeStats, _np, fold_canonical, fold_state_tables, table_digest)
from .views import VIEW_REGISTRY, maintain_view

_COMMIT_RE = re.compile(r"^epoch=(\d+)\.json$")
_GC_RE = re.compile(r"^gc=(\d+)\.json$")

# Fixed writer options so re-runs are byte-identical (north-rule replay
# determinism; the v2 doc's byte-identical re-run requirement,
# /root/reference/docs/report-schema-v2.md:93-96).
PARQUET_OPTS = dict(compression="zstd", data_page_version="1.0")

# The layout of every state and view file, fitted to the transcript
# schema: a dictionary only on the enumerated strings (`text`, `ts` and
# `_lsn` are nearly unique per row, so a dictionary page repeats the
# data; `conv_id` is sorted within a file, so zstd over plain values
# beats one), delta-packed integers, and statistics only on `_lsn`, the
# one column an lsn-ordered lake could skip on (no reader uses the
# rest). Columns added by schema evolution get plain values + zstd.
# Readers need nothing: Parquet is self-describing, so files of the
# plain PARQUET_OPTS layout read and fold together with these, and
# `table_digest` hashes values, not bytes.
STATE_PARQUET_OPTS = dict(
    PARQUET_OPTS,
    use_dictionary=["role", "tool"],
    write_statistics=[LSN_COL],
    column_encoding={c: "DELTA_BINARY_PACKED" for c in ("turn_idx", "ts", LSN_COL)},
)


class LakeNotFoundError(FileNotFoundError):
    """:meth:`Lake.open` of a path that holds no lake."""


class Lake:
    """A partitioned, transactionally-committed Parquet state lake.

    Its config is fixed when it is made: the partition count, the salt
    keys and the materialized views it declares (``views``, names in
    ``state/views.py``'s registry; none on a salted lake). Every writer
    of a whole partition state stages the declared views with it. On an
    existing lake ``views=None`` takes the declared set; a different set
    raises, as a different P does."""

    def __init__(
        self,
        root: str,
        *,
        num_partitions: int | None = None,
        salt_keys: frozenset[str] = frozenset(),
        salt_factor: int = 4,
        views: "tuple[str, ...] | None" = None,
    ) -> None:
        self.root = root
        cfg_path = os.path.join(root, "_lake.json")
        want = None if views is None else tuple(sorted(set(views)))
        if os.path.exists(cfg_path):
            with open(cfg_path) as f:
                cfg = json.load(f)
            if num_partitions is not None and num_partitions != cfg["num_partitions"]:
                raise ValueError(
                    f"lake has P={cfg['num_partitions']}, asked for {num_partitions}; "
                    "partition count is immutable for a lake's lifetime"
                )
            self.num_partitions = cfg["num_partitions"]
            self.salt_keys = frozenset(cfg["salt_keys"])
            self.salt_factor = cfg["salt_factor"]
            self.views = tuple(cfg.get("views", ()))
            if want is not None and want != self.views:
                raise ValueError(
                    f"lake declares views {list(self.views)}, asked for "
                    f"{list(want)}; the view set is fixed for a lake's "
                    "lifetime: reshard to change it"
                )
        else:
            if num_partitions is None:
                raise ValueError("new lake needs num_partitions")
            self.num_partitions = num_partitions
            self.salt_keys = frozenset(salt_keys)
            self.salt_factor = salt_factor
            self.views = want or ()
            unknown = [v for v in self.views if v not in VIEW_REGISTRY]
            if unknown:
                raise ValueError(f"unknown view(s) {unknown}; registered: "
                                 f"{sorted(VIEW_REGISTRY)}")
            if self.views and self.salt_keys:
                raise ValueError(
                    f"views {list(self.views)} need an unsalted lake: salt "
                    f"keys {sorted(self.salt_keys)} spread a conversation "
                    "over partitions"
                )
            os.makedirs(os.path.join(root, "_commits"), exist_ok=True)
            os.makedirs(os.path.join(root, "data"), exist_ok=True)
            cfg = {
                "num_partitions": self.num_partitions,
                "salt_keys": sorted(self.salt_keys),
                "salt_factor": self.salt_factor,
                "engine_version": VERSION,
                "state_format_version": STATE_FORMAT_VERSION,
            }
            if self.views:
                cfg["views"] = list(self.views)
            tmp = cfg_path + ".tmp"
            with open(tmp, "w") as f:
                json.dump(cfg, f, indent=2, sort_keys=True)
            os.replace(tmp, cfg_path)

    @classmethod
    def open(cls, root: str) -> "Lake":
        """The existing lake at ``root``; never creates one. Raises
        :class:`LakeNotFoundError` when ``root`` has no ``_lake.json``."""
        if not os.path.exists(os.path.join(root, "_lake.json")):
            raise LakeNotFoundError(f"no lake at {root} (no _lake.json)")
        return cls(root)

    # ---- paths -------------------------------------------------------
    def data_path(self, epoch: int, pid: int) -> str:
        return os.path.join(self.root, "data", f"epoch={epoch:05d}", f"pid={pid:05d}.parquet")

    def commit_path(self, epoch: int) -> str:
        return os.path.join(self.root, "_commits", f"epoch={epoch:05d}.json")

    def lineage_path(self, num: int, pid: int, *, kind: str = "epoch") -> str:
        """The lineage report of partition ``pid`` in commit ``kind=num``
        (an epoch, or ``kind="gc"`` for a GC/expiry rewrite)."""
        return os.path.join(self.root, "_lineage", f"{kind}={num:05d}", f"pid={pid:05d}.xml")

    # ---- commit log --------------------------------------------------
    def committed_epochs(self) -> list[int]:
        d = os.path.join(self.root, "_commits")
        if not os.path.isdir(d):
            return []
        out = []
        for name in os.listdir(d):
            m = _COMMIT_RE.match(name)
            if m:
                out.append(int(m.group(1)))
        return sorted(out)

    def read_commit(self, epoch: int) -> dict:
        with open(self.commit_path(epoch)) as f:
            return json.load(f)

    def _publish(self, path: str, record: dict) -> None:
        """THE commit point: write the record under a tmp name, fsync it
        and atomically rename it into place."""
        record = {
            **record,
            "engine_version": VERSION,
            "state_format_version": STATE_FORMAT_VERSION,
            "digest_algo": DIGEST_ALGO,
        }
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(record, f, indent=2, sort_keys=True)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)

    def commit(self, epoch: int, partitions: dict[int, dict]) -> None:
        """Atomically publish an epoch. ``partitions`` maps pid -> entry
        (file path relative to root + checkpoint counters)."""
        self._publish(self.commit_path(epoch), {
            "epoch": epoch,
            "partitions": {str(pid): e for pid, e in sorted(partitions.items())},
        })

    def is_committed(self, epoch: int) -> bool:
        return os.path.exists(self.commit_path(epoch))

    # ---- tombstone-GC commits ---------------------------------------
    def gc_path(self, seq: int) -> str:
        return os.path.join(self.root, "_commits", f"gc={seq:05d}.json")

    def gc_seqs(self) -> list[int]:
        d = os.path.join(self.root, "_commits")
        if not os.path.isdir(d):
            return []
        return sorted(
            int(m.group(1)) for m in (_GC_RE.match(n) for n in os.listdir(d)) if m
        )

    def commit_gc(self, seq: int, after_epoch: int, partitions: dict[int, dict]) -> None:
        """Publish a tombstone-GC rewrite. Folds AFTER ``after_epoch`` and
        BEFORE any later WAL epoch (see :meth:`current_entries`)."""
        self._publish(self.gc_path(seq), {
            "gc_seq": seq,
            "after_epoch": after_epoch,
            "partitions": {str(pid): e for pid, e in sorted(partitions.items())},
        })

    # ---- current state resolution -----------------------------------
    def current_entries(self, as_of: int | None = None) -> dict[int, dict]:
        """pid -> latest committed entry, optionally AS OF an epoch.

        Fold order: WAL-epoch commits and GC commits interleave by
        ``(epoch, kind)`` where a GC record sorts just after the epoch it
        compacted (``after_epoch``) — so a GC rewrite supersedes the
        epochs it saw, and any later WAL epoch supersedes the GC.

        ``as_of`` is the snapshot / time-travel read: fold only commits
        with epoch <= as_of (and GC rewrites that saw only those epochs
        — a GC's rewrite of data the snapshot covers is equivalent by
        construction, its files LWW-fold to the same state). Commit
        records are immutable once published, so an as-of read is
        reproducible forever regardless of later epochs."""
        records: list[tuple[tuple, dict, dict]] = []
        for epoch in self.committed_epochs():
            if as_of is not None and epoch > as_of:
                continue
            rec = self.read_commit(epoch)
            records.append(
                ((epoch, 0, 0), rec,
                 {"epoch": epoch, "digest_algo": rec.get("digest_algo")})
            )
        for seq in self.gc_seqs():
            with open(self.gc_path(seq)) as f:
                rec = json.load(f)
            if as_of is not None and rec["after_epoch"] > as_of:
                continue
            records.append(
                (
                    (rec["after_epoch"], 1, rec["gc_seq"]),
                    rec,
                    {"epoch": rec["after_epoch"], "gc_seq": rec["gc_seq"],
                     "digest_algo": rec.get("digest_algo")},
                )
            )
        out: dict[int, dict] = {}
        for _, rec, extra in sorted(records, key=lambda r: r[0]):
            for pid_s, entry in rec["partitions"].items():
                out[int(pid_s)] = {**entry, **extra}
        return out

    def current_files(self) -> dict[int, str]:
        """pid -> the latest entry's OWN file (the full state after a
        compaction; the newest delta otherwise)."""
        return {
            pid: os.path.join(self.root, e["file"]) for pid, e in self.current_entries().items()
        }

    def current_file_sets(self, as_of: int | None = None) -> dict[int, list[str]]:
        """pid -> ordered composition list (base first, then deltas) that
        LWW-folds to the partition's current state (or the ``as_of``
        snapshot). Compacted entries and GC rewrites have a single element."""
        out: dict[int, list[str]] = {}
        for pid, e in self.current_entries(as_of).items():
            rels = e.get("files") or [e["file"]]
            out[pid] = [os.path.join(self.root, r) for r in rels]
        return out

    def current_view_files(self, name: str) -> dict[int, str]:
        """pid -> absolute path of the partition's committed materialized
        view file (state/views.py). Every write of a whole partition
        state (a compaction, a partition's first file, a GC/expiry
        rewrite, a migration) stages the lake's declared views with it;
        a merge-on-read delta carries its entry's views. So every
        current partition carries every declared view."""
        out: dict[int, str] = {}
        for pid, e in self.current_entries().items():
            rel = (e.get("views") or {}).get(name)
            if rel:
                out[pid] = os.path.join(self.root, rel)
        return out

    # ---- state IO ----------------------------------------------------
    @staticmethod
    def write_state_file(table: pa.Table, path: str) -> None:
        """Deterministic, atomic state-file write (tmp + rename) in the
        one state layout, ``STATE_PARQUET_OPTS``."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".inprogress"
        pq.write_table(table, tmp, **STATE_PARQUET_OPTS)
        os.replace(tmp, path)


def read_state_file(path: str) -> pa.Table:
    """One whole state, view or WAL Parquet file, read without
    pre-buffering or reader threads: on files of a few thousand rows
    both cost more than they save."""
    return pq.ParquetFile(path, pre_buffer=False).read(use_threads=False)


def read_composition(paths: list[str]) -> pa.Table | None:
    """Read one partition's composition (base first, then deltas) and
    LWW-fold it to a single state table; ``None`` when it holds no rows."""
    return fold_state_tables([read_state_file(p) for p in paths])


def read_canonical(paths: list[str]) -> pa.Table | None:
    """The canonical snapshot (live rows, payload columns, sorted) of
    one composition, or of every partition's in pid order (no key spans
    partitions); ``None`` when they hold no rows. Every state file is in
    key order with unique keys, so a single file needs no sort, and more
    take one LWW sort that takes only the live winners' payload
    (:func:`fold_canonical`)."""
    return fold_canonical([read_state_file(p) for p in paths])


def stage_partition(
    table: pa.Table, root: str, kind: str, num: int, pid: int,
    stats: MergeStats | None = None, *,
    views: "tuple[str, ...]" = (),
    metric_names: "tuple[str, ...] | None" = None,
    t0: float | None = None,
) -> dict:
    """THE partition writer (epoch merge, GC/expiry rewrite, migration):
    stage ``table`` as ``data/<kind>=<num>/pid=<pid>.parquet`` and each
    view in ``views`` as ``views/<name>/<kind>=<num>/pid=<pid>.parquet``,
    invisible until a commit record lists them. Each view is computed in
    full over ``table`` (``maintain_view``, state/views.py), whatever
    the writer.
    Returns the partition's row: commit entry fields, the ledger
    ``stats`` (a merge's; else only ``table``'s counts), the lineage
    metrics when ``metric_names`` is given, and the seconds since ``t0``
    (default: now)."""
    t0 = time.perf_counter() if t0 is None else t0
    if stats is None:
        tomb = int(_np(table.column(DELETED_COL)).sum())
        stats = MergeStats(rows_live=table.num_rows - tomb, tombstoned=tomb,
                           keys_total=table.num_rows)
    stage = f"{kind}={num:05d}"
    name = f"pid={pid:05d}.parquet"
    rel = os.path.join("data", stage, name)
    Lake.write_state_file(table, os.path.join(root, rel))
    row = {"pid": pid, "file": rel, "files": [rel], "digest": table_digest(table),
           "views": {}, **vars(stats)}
    for vname in views:
        row["views"][vname] = os.path.join("views", vname, stage, name)
        Lake.write_state_file(maintain_view(vname, table),
                              os.path.join(root, row["views"][vname]))
    m0 = time.perf_counter()
    if metric_names is None:
        row.update(metrics=None, metrics_computed=0, metrics_failed=0)
    else:
        results, row["metrics_computed"], row["metrics_failed"] = compute_metrics(
            table, set(metric_names))
        row["metrics"] = {n: (r.text, r.attrs) for n, r in results.items()}
    now = time.perf_counter()
    row.update(metrics_duration_sec=now - m0, duration_sec=now - t0)
    return row
