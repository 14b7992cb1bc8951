"""The snapshot read: ``canonical_state_table`` runs one LWW sort over
every partition's composition.

For every committed epoch (and the head) of MOR lifecycle lakes — chains
of one to three files, tombstones, a column that only some partitions
carry, a partition emptied by tombstone GC, TTL expiry, a salted lake
and a resharded lake — the read equals the per-partition reference
(one fold per partition, concatenated and sorted again), schema
included, and the replay oracle; and it sorts once, or not at all when
a single file holds every row."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from image_report_ray.config import EngineConfig
from image_report_ray.pipelines.cdc import (
    apply_epoch,
    canonical_state_table,
    expire_turns,
    gc_tombstones,
    reshard_lake,
)
from image_report_ray.schema import CHANGE_SCHEMA, concat_evolving
from image_report_ray.sources.synth import _TS_BASE_US, gen_epoch
from image_report_ray.state import merge
from image_report_ray.state.manifest import Lake, read_canonical
from image_report_ray.state.merge import sort_canonical
from image_report_ray.state.oracle import apply_naive

SIZE = 200  # events per epoch: epoch e holds lsns [e * SIZE, (e + 1) * SIZE)
GEN = dict(n_convs=24, max_turns=6, dup_rate=0.05, op_mix=(0.5, 0.3, 0.2))
EVOLVED = CHANGE_SCHEMA.append(pa.field("meta", pa.string()))


def reference(lake: Lake, as_of: "int | None") -> pa.Table:
    """The per-partition construction: fold each partition, concatenate
    the folds in pid order, sort the whole again."""
    sets = lake.current_file_sets(as_of)
    tables = [t for t in (read_canonical(p) for _, p in sorted(sets.items()))
              if t is not None]
    return sort_canonical(concat_evolving(tables)) if tables else pa.table({})


def oracle(events: dict, upto: int, expiry: "tuple[int, int] | None") -> pa.Table:
    """The replay oracle as of epoch ``upto``: every event of the epochs
    up to it, replayed; ``expiry`` = (epoch, cutoff) drops the rows
    older than the cutoff from that epoch on. Later events carry newer
    lsns and timestamps, so no tombstone GC or expiry changes their
    outcome."""
    t = apply_naive(concat_evolving([v for e, v in events.items() if e <= upto]))
    if expiry and upto >= expiry[0]:
        t = t.filter(pc.greater_equal(t.column("ts").cast(pa.int64()), expiry[1]))
    return t


def assert_snapshots(lake: Lake, want, monkeypatch) -> dict:
    """At every committed epoch, the head and before the first commit:
    the read equals the reference and ``want(as_of)``, with one sort
    when more than one file holds rows and none otherwise. Returns what
    the compositions covered."""
    seen = {"max_chain": 0, "zero_row_file": False, "partial_columns": False,
            "sorted_reads": 0}
    for as_of in [-1, *lake.committed_epochs(), None]:
        sets = lake.current_file_sets(as_of)
        rows = [pq.read_metadata(p).num_rows for ps in sets.values() for p in ps]
        names = [set(pq.read_schema(p).names) for ps in sets.values()
                 for p in ps]
        seen["max_chain"] = max(seen["max_chain"], *map(len, sets.values()), 0)
        seen["zero_row_file"] |= 0 in rows
        seen["partial_columns"] |= len({frozenset(n) for n in names}) > 1
        sorts = []
        with monkeypatch.context() as m:
            lww_sort, sort_indices = merge._lww_sort, pc.sort_indices
            m.setattr(merge, "_lww_sort",
                      lambda *a, **k: sorts.append("lww") or lww_sort(*a, **k))
            m.setattr(pc, "sort_indices",
                      lambda *a, **k: sorts.append("idx") or sort_indices(*a, **k))
            got = canonical_state_table(lake, as_of=as_of)
        nonempty = sum(1 for n in rows if n)
        assert sorts == (["lww", "idx"] if nonempty > 1 else []), (as_of, sorts)
        seen["sorted_reads"] += nonempty > 1
        ref = reference(lake, as_of)
        assert got.schema == ref.schema and got.equals(ref), (lake.root, as_of)
        expect = want(as_of) if nonempty else pa.table({})
        assert got.equals(expect), (lake.root, as_of)
    return seen


def _write(wal: str, epoch: int, table: pa.Table) -> list[str]:
    path = os.path.join(wal, f"epoch={epoch:05d}", "part-000.parquet")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(table, path)
    return [path]


def _hand_epoch(epoch: int, rows: list[tuple]) -> pa.Table:
    """(op, conv_id, turn_idx, meta) events with the synthetic WAL's lsn
    and timestamp numbering for ``epoch``."""
    out = []
    for i, (op, conv, turn, meta) in enumerate(rows):
        lsn = epoch * SIZE + i
        live = op != "D"
        out.append({"lsn": lsn, "op": op, "conv_id": conv, "turn_idx": turn,
                    "role": "user" if live else None,
                    "text": f"h{lsn}" if live else None, "tool": None,
                    "ts": _TS_BASE_US + lsn * 1_000 if live else None,
                    "meta": meta})
    return pa.Table.from_pylist(out, schema=EVOLVED)


def _lake_epochs(lake: Lake, wal: str, events: dict, epochs, cfg,
                 seed: int, **gen) -> None:
    for e in epochs:
        events[e] = gen_epoch(e, SIZE, seed=seed, **{**GEN, **gen})
        apply_epoch(lake, e, _write(wal, e, events[e]), cfg)


def test_snapshot_reads_over_a_mor_lifecycle_and_its_reshard(
        ray_session, tmp_path, monkeypatch):
    wal = str(tmp_path / "wal")
    cfg = EngineConfig(num_partitions=3, merge_mode="mor", compact_every=3)
    a = Lake(str(tmp_path / "a"), num_partitions=3)
    events: dict = {}
    _lake_epochs(a, wal, events, range(3), cfg, seed=11)
    # epoch 3: a column only the partition of `conv-evolved` carries
    events[3] = _hand_epoch(3, [("I", "conv-evolved", t, f"m{t}")
                                for t in range(3)])
    apply_epoch(a, 3, _write(wal, 3, events[3]), cfg)
    sets = a.current_file_sets()
    evolved = {pid for pid, ps in sets.items()
               if "meta" in pq.read_schema(ps[-1]).names}
    assert len(evolved) == 1
    # epoch 4 deletes every live key of another partition; the GC after
    # it leaves that partition a zero-row state file
    empty = min(set(sets) - evolved)
    live = read_canonical(sets[empty])
    events[4] = _hand_epoch(4, [("D", c, t, None) for c, t in zip(
        live.column("conv_id").to_pylist(), live.column("turn_idx").to_pylist())])
    apply_epoch(a, 4, _write(wal, 4, events[4]), cfg)
    gc_tombstones(a, before_lsn=5 * SIZE)
    assert pq.read_metadata(a.current_file_sets()[empty][0]).num_rows == 0
    _lake_epochs(a, wal, events, (5, 6), cfg, seed=11)
    cutoff = int(pc.approximate_median(
        canonical_state_table(a).column("ts").cast(pa.int64())).as_py())
    assert expire_turns(a, cutoff)["expired"] > 0
    _lake_epochs(a, wal, events, (7,), cfg, seed=11)
    expiry = (6, cutoff)  # the expiry folds after epoch 6

    seen = assert_snapshots(Lake(a.root), lambda e: oracle(
        events, 7 if e is None else e, expiry), monkeypatch)
    assert seen["max_chain"] == 2 and seen["zero_row_file"], seen
    assert seen["partial_columns"] and seen["sorted_reads"] == 9, seen

    reshard_lake(a, str(tmp_path / "b"), 2)
    b = Lake(str(tmp_path / "b"))
    _lake_epochs(b, wal, events, (8, 9), EngineConfig(
        num_partitions=2, merge_mode="mor", compact_every=3), seed=11)
    assert b.committed_epochs() == [7, 8, 9]
    seen = assert_snapshots(Lake(b.root), lambda e: oracle(
        events, 9 if e is None else e, expiry), monkeypatch)
    assert seen["max_chain"] == 2 and seen["sorted_reads"] == 4, seen


def test_snapshot_reads_of_a_salted_lake(ray_session, tmp_path, monkeypatch):
    """A salted conversation's turns spread over partitions; each key
    still lives in one, so the one sort is exact. Chains reach three
    files (``compact_every=4``)."""
    hot = "conv-00000000"
    lake = Lake(str(tmp_path / "s"), num_partitions=3,
                salt_keys=frozenset({hot}))
    events: dict = {}
    _lake_epochs(lake, str(tmp_path / "wal"), events, range(5), EngineConfig(
        num_partitions=3, merge_mode="mor", compact_every=4), seed=5,
        hot_frac=0.3, n_hot=1)
    holders = [pid for pid, ps in lake.current_file_sets().items()
               if hot in read_canonical(ps).column("conv_id").to_pylist()]
    assert len(holders) > 1, holders
    seen = assert_snapshots(Lake(lake.root), lambda e: oracle(
        events, 4 if e is None else e, None), monkeypatch)
    assert seen["max_chain"] == 3 and seen["sorted_reads"] == 6, seen


@pytest.mark.parametrize("as_of", [None, 0])
def test_snapshot_of_an_empty_lake_is_an_empty_table(tmp_path, as_of):
    lake = Lake(str(tmp_path / "lake"), num_partitions=2)
    assert canonical_state_table(lake, as_of=as_of).equals(pa.table({}))
