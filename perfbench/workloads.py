"""The two workloads, their set-up and their measured phases.

Every workload drives the engine through its public entry points only
(``run_job``, ``submit_map_stage``/``apply_epoch``, ``canonical_state_table``,
``changefeed``) and checks every result against the cached oracle
(``prep.py``). An op is one epoch commit or one read; an exception or a
mismatch counts it as failed. Every ingest call and every read is
timed twice: wall time, and the CPU time of the benchmark process and its
Ray processes (``session.TreeCpu``). Reference ops (``calib.py``) run
right before each read, each replay and every third follower pass, and
their index range is kept beside the sample.

* ``replay-hot`` -- closed batch. The whole WAL lands at once and one
  ``run_job`` replays it into a fresh lake, repeated for the run's seconds.
  Hot keys (20% of events on 8 conversations, ~12 events per hot key per
  epoch) give the map-side combiner real work.
* ``follow-small`` -- a follower, closed loop. A warm lake holds the
  first epochs; the rest land one at a time (an atomic directory rename)
  and each is applied by its own ``run_job`` pass before the next lands.
  Small uniform-key epochs, so per-epoch fixed costs dominate, the
  combiner has nothing to fold, and one epoch in three compacts.

Both end each replay or follower cycle with rounds of reads: the head
snapshot, an as-of snapshot and the change feed of one epoch.
"""

from __future__ import annotations

import os
import shutil
import sys
import time

from calib import Reference
from session import TreeCpu

SPECS = {
    "replay-hot": dict(
        name="replay-hot", kind="replay", n_epochs=8, epoch_size=15_000,
        n_parts=4,
        gen=dict(n_convs=3_000, max_turns=32, dup_rate=0.02, hot_frac=0.2,
                 n_hot=8, evolve_from_epoch=4),
        # as-of 5 folds a chain: the base compacted at 3 plus deltas 4, 5
        partitions=16, compact_every=4, warm_epochs=0, asof=[5], feeds=[1],
        # reference ops before each ingest call, about a fifth of its CPU;
        # read rounds after each replay
        refs_per_ingest=4, read_rounds=3,
    ),
    # A partition compacts when its chain would reach compact_every files,
    # and the compacted file is the next chain's base, so after the first
    # cycle compact_every=4 compacts every 3rd epoch (3, 6, 9, ...). Of the
    # 12 tail epochs (12..23) four compact (12, 15, 18, 21). Each cycle
    # restores the warm lake and applies the same 12 epochs, one pass each.
    "follow-small": dict(
        name="follow-small", kind="follow", n_epochs=24, epoch_size=2_000,
        n_parts=1,
        gen=dict(n_convs=4_000, max_turns=8, dup_rate=0.02),
        partitions=8, compact_every=4, warm_epochs=12,
        # as-of 17 reads a tail epoch (base 15 plus deltas 16, 17); one
        # reference op before every third one-epoch pass
        asof=[17], feeds=[12], refs_per_ingest=1, ref_every=3, read_rounds=5,
    ),
}

READ_KINDS = ("snapshot", "asof", "changefeed")


def engine_config(spec: dict):
    from image_report_ray.config import EngineConfig

    # merge_mode="mor" everywhere; an every-epoch rewrite would be
    # compact_every=1, never the "cow" alias.
    return EngineConfig(num_partitions=spec["partitions"], merge_mode="mor",
                        compact_every=spec["compact_every"])


def _epoch_dir(e: int) -> str:
    return f"epoch={e:05d}"


def dir_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(root, f))
            except OSError:
                pass
    return total


class Ops:
    """Attempted / failed op counts with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)


class Run:
    """State of one benchmark process: inputs, work dirs and samples."""

    def __init__(self, spec, seed, seconds, work_root, cache_dir, oracle):
        import pyarrow.parquet as pq

        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.work_root = work_root
        self.cache_wal = os.path.join(cache_dir, "wal")
        self.oracle = oracle
        self.feeds = {e: pq.read_table(os.path.join(cache_dir, f"feed-{e}.parquet"))
                      for e in spec["feeds"]}
        self.cfg = engine_config(spec)
        self.ops = Ops()
        self.ref = Reference()
        self.reset_samples()

    def reset_samples(self) -> None:
        self.lags: list[float] = []
        # one sample per replay, run of follower passes or warm build:
        # (events, wall, CPU, span of the reference ops run before it)
        self.ingest: list[tuple[int, float, float, tuple[int, int]]] = []
        self.epoch_cpu: list[float] = []  # follower: CPU of each one-epoch pass
        self.written: list[tuple[int, int]] = []    # (data bytes, events)
        self.reads: dict[str, list[float]] = {k: [] for k in READ_KINDS}
        # (CPU, span of the reference op run just before it) per read
        self.read_cpu: dict[str, list[tuple[float, tuple[int, int]]]] = {
            k: [] for k in READ_KINDS}
        self.ledger = {"applied": 0, "stale_skipped": 0, "dup_skipped": 0}
        self.injected_dups = 0

    # ---- work dirs and landing ---------------------------------------
    def fresh_dirs(self) -> dict[str, str]:
        """A new work dir with every WAL epoch staged (hard links to the
        cache) and nothing landed."""
        shutil.rmtree(self.work_root, ignore_errors=True)
        d = {k: os.path.join(self.work_root, k) for k in ("stage", "wal", "lake")}
        os.makedirs(d["wal"])
        for e in range(self.spec["n_epochs"]):
            src = os.path.join(self.cache_wal, _epoch_dir(e))
            dst = os.path.join(d["stage"], _epoch_dir(e))
            os.makedirs(dst)
            for f in sorted(os.listdir(src)):
                try:
                    os.link(os.path.join(src, f), os.path.join(dst, f))
                except OSError:
                    shutil.copy(os.path.join(src, f), os.path.join(dst, f))
        return d

    @staticmethod
    def land(d: dict, epochs) -> dict[int, float]:
        """Land epochs now; returns epoch -> landing time."""
        due = time.time()
        for e in epochs:
            os.rename(os.path.join(d["stage"], _epoch_dir(e)),
                      os.path.join(d["wal"], _epoch_dir(e)))
        return {e: due for e in epochs}

    @staticmethod
    def unland(d: dict, epochs) -> None:
        for e in epochs:
            os.rename(os.path.join(d["wal"], _epoch_dir(e)),
                      os.path.join(d["stage"], _epoch_dir(e)))

    def lake(self, d: dict):
        from image_report_ray.state.manifest import Lake

        return Lake(d["lake"], num_partitions=self.cfg.num_partitions)

    # ---- ingest --------------------------------------------------------
    def apply_landed(self, d: dict, tracer, split: bool) -> dict:
        """Apply every landed, uncommitted epoch. ``split`` drives each
        epoch through submit_map_stage -> wait -> apply_epoch(map_refs=...)
        so the map wait is measured on its own; otherwise one run_job."""
        from image_report_ray.pipelines.cdc import (
            apply_epoch, discover_epochs, run_job, submit_map_stage)

        if not split:
            with tracer.span("pipelines.cdc.run_job"):
                s = run_job(d["lake"], d["wal"], self.cfg)
            return {"events": s["events_received"],
                    "applied": s["epochs_applied"]}
        import ray

        lake = self.lake(d)
        events = applied = 0
        for e, files in discover_epochs(d["wal"]).items():
            if lake.is_committed(e):
                continue
            with tracer.span("bench.epoch", e):
                with tracer.span("pipelines.cdc.submit_map_stage", e):
                    refs = submit_map_stage(lake, files, self.cfg)
                flat = [r for task in refs for r in task]
                with tracer.span("ray.map_wait", e):
                    ray.wait(flat, num_returns=len(flat), fetch_local=False)
                with tracer.span("pipelines.cdc.apply_epoch", e):
                    stats = apply_epoch(lake, e, files, self.cfg, map_refs=refs)
            if stats is not None:
                applied += 1
                events += sum(s.received for s in stats.values())
        return {"events": events, "applied": applied}

    def check_epochs(self, d: dict, landed: dict[int, float], applied: int,
                     first_seen: dict[int, int] | None = None) -> None:
        """Per landed epoch: committed exactly once and every lineage
        ledger conserves (received = applied + stale + dup). Records each
        epoch's lag: commit-record time minus scheduled landing time."""
        from image_report_ray.xmlreport import read_report

        lake = self.lake(d)
        committed = set(lake.committed_epochs())
        if applied != len(landed):
            self.ops.record(False, f"{applied} epochs applied, {len(landed)} landed")
        for e, due in sorted(landed.items()):
            if e not in committed:
                self.ops.record(False, f"epoch {e} not committed")
                continue
            ok, why = True, ""
            mtime = os.stat(lake.commit_path(e)).st_mtime_ns
            if first_seen is not None and first_seen.get(e, mtime) != mtime:
                ok, why = False, f"epoch {e} commit rewritten"
            self.lags.append(mtime / 1e9 - due)
            self.injected_dups += (self.oracle["rows"][e]
                                   - self.oracle["distinct_lsn"][e])
            ldir = os.path.dirname(lake.lineage_path(e, 0))
            for name in sorted(os.listdir(ldir)):
                led = read_report(os.path.join(ldir, name)).find("ledger").attrib
                n = {k: int(led[k]) for k in ("received", *self.ledger)}
                if n["received"] != sum(n[k] for k in self.ledger):
                    ok, why = False, f"epoch {e} {name} ledger {n}"
                for k in self.ledger:
                    self.ledger[k] += n[k]
            self.ops.record(ok, why)

    def count_compactions(self, d: dict) -> int:
        """Partition merges that rewrote a chain into one file."""
        lake = self.lake(d)
        seen: set[str] = set()
        n = 0
        for e in lake.committed_epochs():
            for pid, ent in lake.read_commit(e)["partitions"].items():
                n += pid in seen and len(ent.get("files") or [ent["file"]]) == 1
                seen.add(pid)
        return n

    # ---- reads -----------------------------------------------------------
    def read(self, d: dict, kind: str, epoch: int, tracer) -> None:
        """One timed read, verified against the oracle outside the timing.
        A snapshot reads the head, which must be at ``epoch``."""
        from image_report_ray.pipelines.cdc import canonical_state_table, changefeed
        from image_report_ray.state.merge import table_digest

        lake = self.lake(d)
        cpu = TreeCpu()
        with tracer.span("bench.reference"):
            ref = self.ref.run(1)
        try:
            cpu.start()
            t0 = time.perf_counter()
            if kind == "changefeed":
                with tracer.span("pipelines.cdc.changefeed", f"read:{kind}:{epoch}"):
                    out = changefeed(lake, epoch)
            else:
                with tracer.span("pipelines.cdc.canonical_state_table",
                                 f"read:{kind}:{epoch}"):
                    out = canonical_state_table(
                        lake, as_of=epoch if kind == "asof" else None)
            self.reads[kind].append(time.perf_counter() - t0)
            self.read_cpu[kind].append((cpu.stop(), ref))
            with tracer.span("bench.verify"):
                if kind == "changefeed":
                    ok = out.equals(self.feeds[epoch])
                else:
                    ok = table_digest(out) == self.oracle["snap_digest"][str(epoch)]
            self.ops.record(ok, f"{kind} read at {epoch} differs from oracle")
        except Exception as exc:  # an engine error is a failed op
            self.ops.record(False, f"{kind} read at {epoch}: {exc!r}")

    def read_plan(self) -> list[tuple[str, int]]:
        """One of each read the workload makes on its full lake."""
        head = self.spec["n_epochs"] - 1
        return ([("snapshot", head)] + [("asof", e) for e in self.spec["asof"]]
                + [("changefeed", e) for e in self.spec["feeds"]])

    # ---- set-up ------------------------------------------------------------
    def setup(self, tracer, split: bool) -> dict:
        """Fresh work dir and the warm-up op: epoch 0 ingested into a
        throw-away lake and read back, which also starts the workers. Then
        the warm lake is built from the warm epochs (none for a batch
        replay). Returns the work dirs; samples start after the warm-up."""
        d = self.fresh_dirs()
        self.ref.new_session()
        warmup = dict(d, lake=d["lake"] + "-warmup")
        with tracer.span("bench.land"):
            landed = self.land(warmup, [0])
        self._timed_ingest(warmup, landed, tracer, split)
        self.read(warmup, "snapshot", 0, tracer)
        with tracer.span("bench.land"):
            self.unland(warmup, [0])
            shutil.rmtree(warmup["lake"])
        self.reset_samples()
        warm = list(range(self.spec["warm_epochs"]))
        if warm:
            with tracer.span("bench.land"):
                landed = self.land(d, warm)
            self._timed_ingest(d, landed, tracer, split)
        if self.spec["kind"] == "follow":
            with tracer.span("bench.land"):
                shutil.copytree(d["lake"], d["lake"] + "-warm")
        return d

    def _apply_timed(self, d, tracer, split, refs: bool = True
                     ) -> tuple[dict, float, float, tuple[int, int] | None]:
        """apply_landed with its wall and CPU time and the span of the
        reference ops run just before (None if ``refs`` is false); an
        exception leaves the landed epochs uncommitted, which the checks
        count as failed."""
        ref = None
        if refs:
            with tracer.span("bench.reference"):
                ref = self.ref.run(self.spec["refs_per_ingest"])
        cpu = TreeCpu()
        cpu.start()
        t0 = time.perf_counter()
        try:
            s = self.apply_landed(d, tracer, split)
        except Exception as exc:
            self.ops.reasons.append(f"ingest: {exc!r}")
            print(f"perfbench: ingest failed: {exc!r}", file=sys.stderr)
            s = {"events": 0, "applied": 0}
        return s, time.perf_counter() - t0, cpu.stop(), ref

    def _timed_ingest(self, d, landed, tracer, split) -> None:
        before = dir_bytes(os.path.join(d["lake"], "data"))
        s, wall, cpu, ref = self._apply_timed(d, tracer, split)
        self._record(d, landed, tracer, s["applied"],
                     [(s["events"], wall, cpu, ref)], before)

    def _record(self, d, landed, tracer, applied, samples, before,
                first_seen=None) -> None:
        """Check the landed epochs, then keep the ingest samples
        (events, wall, CPU, reference span) that received events."""
        with tracer.span("bench.check"):
            self.check_epochs(d, landed, applied, first_seen)
            samples = [x for x in samples if x[0]]
            if samples:
                self.ingest += samples
                events = sum(x[0] for x in samples)
                self.written.append(
                    (dir_bytes(os.path.join(d["lake"], "data")) - before, events))

    # ---- measured phases -------------------------------------------------
    def measure(self, d: dict, tracer, split: bool, min_reps: int = 2) -> None:
        """The measured phase: replays or follower cycles, repeated until
        ``seconds`` have passed and at least ``min_reps`` times."""
        step = {"replay": self._replay, "follow": self._follow}[self.spec["kind"]]
        end = time.perf_counter() + self.seconds
        reps = 0
        while reps < min_reps or time.perf_counter() < end:
            with tracer.span("bench.rep", reps):
                step(d, tracer, split)
            reps += 1

    def _replay(self, d, tracer, split) -> None:
        """One replay of the whole WAL into a fresh lake, then the reads."""
        epochs = list(range(self.spec["n_epochs"]))
        with tracer.span("bench.land"):
            shutil.rmtree(d["lake"], ignore_errors=True)
            landed = self.land(d, epochs)
        self._timed_ingest(d, landed, tracer, split)
        self._read_cycle(d, tracer, self.spec["read_rounds"])
        with tracer.span("bench.land"):
            self.unland(d, epochs)

    def _follow(self, d, tracer, split) -> None:
        """One follower cycle: from the warm lake, land each tail epoch
        and apply it in its own pass before the next lands; then the
        reads. Each run of ``ref_every`` passes is one ingest sample,
        against the reference op run before its first pass; in
        follow-small that is a compaction and the two deltas after it."""
        tail = list(range(self.spec["warm_epochs"], self.spec["n_epochs"]))
        with tracer.span("bench.land"):
            shutil.rmtree(d["lake"], ignore_errors=True)
            shutil.copytree(d["lake"] + "-warm", d["lake"])
        lake = self.lake(d)
        before = dir_bytes(os.path.join(d["lake"], "data"))
        landed: dict[int, float] = {}
        first_seen: dict[int, int] = {}
        applied = 0
        samples = []
        for i, e in enumerate(tail):
            with tracer.span("bench.land"):
                landed.update(self.land(d, [e]))
            start = i % self.spec["ref_every"] == 0
            s, w, c, r = self._apply_timed(d, tracer, split, refs=start)
            if start:
                samples.append([0, 0.0, 0.0, r])
            samples[-1][:3] = [samples[-1][0] + s["events"],
                               samples[-1][1] + w, samples[-1][2] + c]
            applied += s["applied"]
            if s["applied"]:
                self.epoch_cpu.append(c)
            with tracer.span("bench.check"):
                if lake.is_committed(e):
                    first_seen[e] = os.stat(lake.commit_path(e)).st_mtime_ns
        self._record(d, landed, tracer, applied, [tuple(x) for x in samples],
                     before, first_seen)
        self._read_cycle(d, tracer, self.spec["read_rounds"])
        with tracer.span("bench.land"):
            self.unland(d, tail)

    def _read_cycle(self, d, tracer, rounds: int) -> None:
        for _ in range(rounds):
            for kind, e in self.read_plan():
                self.read(d, kind, e, tracer)
