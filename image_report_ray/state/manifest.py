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
      _lake.json                         # immutable lake config (P, salt, versions)
      _commits/epoch=00004.json          # commit record (atomic rename = commit point)
      data/epoch=00004/pid=00003.parquet # full compacted state of pid 3 as of epoch 4
      _lineage/epoch=00004/pid=00003.xml # per-partition lineage report

The commit record doubles as the checkpoint: per partition it stores
``(file, last_lsn, rows_live, tombstoned, keys_total, digest)`` — exactly
the ``(last-applied LSN, row-count, merkle digest)`` triple the north rule
requires for resume.
"""

from __future__ import annotations

import json
import os
import re

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .. import STATE_FORMAT_VERSION, VERSION
from ..schema import DELETED_COL
from .merge import DIGEST_ALGO, _live_payload, fold_state_tables, table_digest

_COMMIT_RE = re.compile(r"^epoch=(\d+)\.json$")
_GC_RE = re.compile(r"^gc=(\d+)\.json$")

# Fixed writer options so re-runs are byte-identical (north-rule replay
# determinism; the v2 doc's byte-identical re-run requirement,
# /root/reference/docs/report-schema-v2.md:93-96).
PARQUET_OPTS = dict(compression="zstd", data_page_version="1.0")


class Lake:
    """A partitioned, transactionally-committed Parquet state lake."""

    def __init__(
        self,
        root: str,
        *,
        num_partitions: int | None = None,
        salt_keys: frozenset[str] = frozenset(),
        salt_factor: int = 4,
    ) -> None:
        self.root = root
        cfg_path = os.path.join(root, "_lake.json")
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
        else:
            if num_partitions is None:
                raise ValueError("new lake needs num_partitions")
            self.num_partitions = num_partitions
            self.salt_keys = frozenset(salt_keys)
            self.salt_factor = salt_factor
            os.makedirs(os.path.join(root, "_commits"), exist_ok=True)
            os.makedirs(os.path.join(root, "data"), exist_ok=True)
            tmp = cfg_path + ".tmp"
            with open(tmp, "w") as f:
                json.dump(
                    {
                        "num_partitions": self.num_partitions,
                        "salt_keys": sorted(self.salt_keys),
                        "salt_factor": self.salt_factor,
                        "engine_version": VERSION,
                        "state_format_version": STATE_FORMAT_VERSION,
                    },
                    f,
                    indent=2,
                    sort_keys=True,
                )
            os.replace(tmp, cfg_path)

    # ---- paths -------------------------------------------------------
    def data_path(self, epoch: int, pid: int) -> str:
        return os.path.join(self.root, "data", f"epoch={epoch:05d}", f"pid={pid:05d}.parquet")

    def commit_path(self, epoch: int) -> str:
        return os.path.join(self.root, "_commits", f"epoch={epoch:05d}.json")

    def lineage_path(self, epoch: int, pid: int) -> str:
        return os.path.join(self.root, "_lineage", f"epoch={epoch:05d}", f"pid={pid:05d}.xml")

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
        view file (state/views.py). Partitions whose latest entry carries
        no view (never computed, or dropped by a GC rewrite) are absent —
        the view there is pending the next epoch commit."""
        out: dict[int, str] = {}
        for pid, e in self.current_entries().items():
            rel = (e.get("views") or {}).get(name)
            if rel:
                out[pid] = os.path.join(self.root, rel)
        return out

    # ---- state IO ----------------------------------------------------
    @staticmethod
    def write_state_file(table: pa.Table, path: str) -> None:
        """Deterministic, atomic state-file write (tmp + rename)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".inprogress"
        pq.write_table(table, tmp, **PARQUET_OPTS)
        os.replace(tmp, path)


def read_composition(paths: list[str]) -> pa.Table | None:
    """Read one partition's composition (base first, then deltas) and
    LWW-fold it to a single state table; ``None`` when it holds no rows."""
    return fold_state_tables([pq.ParquetFile(p).read() for p in paths])


def read_canonical(paths: list[str]) -> pa.Table | None:
    """The canonical snapshot (live rows, payload columns, sorted) of one
    composition; ``None`` when it holds no rows. Every state file and
    every fold is already in key order with unique keys, so no sort."""
    folded = read_composition(paths)
    return None if folded is None else _live_payload(folded)


def stage_partition(
    table: pa.Table, root: str, kind: str, num: int, pid: int
) -> dict:
    """Write a partition's rewritten state under its staged name
    ``data/<kind>=<num>/pid=<pid>.parquet`` and return its commit entry:
    the file (a one-file composition), row counts and digest. The file
    stays invisible until a commit record lists it."""
    rel = os.path.join("data", f"{kind}={num:05d}", f"pid={pid:05d}.parquet")
    Lake.write_state_file(table, os.path.join(root, rel))
    tomb = int(pc.sum(pc.cast(table.column(DELETED_COL), pa.int64())).as_py() or 0)
    return {
        "file": rel,
        "files": [rel],
        "rows_live": table.num_rows - tomb,
        "tombstoned": tomb,
        "keys_total": table.num_rows,
        "digest": table_digest(table),
    }
