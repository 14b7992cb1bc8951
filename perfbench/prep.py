"""Cached benchmark inputs: the WAL and its oracle answers.

Run as a child process (``python3 prep.py <cache_dir> <spec json> <seed>``)
so the oracle's memory never counts toward the main process's peak RSS. Inputs
are keyed by (workload parameters, seed) and published by renaming a
finished directory into place, so a killed prep leaves no half cache.

The oracle is ``state/oracle.apply_naive`` over the WAL files exactly as the
engine reads them, replayed once per needed epoch prefix. The expected
change feed of epoch ``e`` is a plain dict diff of the oracle snapshots
after ``e - 1`` and ``e``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def cache_key(spec: dict, seed: int) -> str:
    blob = json.dumps({"spec": spec, "seed": seed}, sort_keys=True)
    return f"{spec['name']}-s{seed}-{hashlib.sha256(blob.encode()).hexdigest()[:12]}"


def snapshot_epochs(spec: dict) -> list[int]:
    """Epoch prefixes whose oracle snapshot some check needs."""
    need = {0, spec["n_epochs"] - 1, *spec["asof"]}
    for e in spec["feeds"]:
        need |= {e - 1, e}
    return sorted(e for e in need if e >= 0)


def ensure(cache_root: str, spec: dict, seed: int) -> tuple[str, dict]:
    """Return (cache dir, oracle record), building them in a child process
    on a miss."""
    path = os.path.join(cache_root, cache_key(spec, seed))
    if not os.path.exists(os.path.join(path, "oracle.json")):
        os.makedirs(cache_root, exist_ok=True)
        subprocess.run(
            [sys.executable, os.path.join(HERE, "prep.py"), path,
             json.dumps(spec), str(seed)],
            check=True, stdout=subprocess.DEVNULL,
        )
    with open(os.path.join(path, "oracle.json")) as f:
        return path, json.load(f)


def naive_feed(a, b):
    """Dict diff of two canonical snapshots: I = key appeared, D = key
    gone (no payload), U = some payload value changed."""
    import pyarrow as pa

    payload = [c for c in b.column_names if c not in ("conv_id", "turn_idx")]

    def rows(t) -> dict:
        if t is None:
            return {}
        names = t.column_names
        k, i = names.index("conv_id"), names.index("turn_idx")
        cols = [t.column(c).to_pylist() for c in names]
        return {(r[k], r[i]): dict(zip(names, r)) for r in zip(*cols)}

    da, db = rows(a), rows(b)
    out = []
    for k in sorted(da.keys() | db.keys()):
        if k not in da:
            out.append(("I", k, db[k]))
        elif k not in db:
            out.append(("D", k, None))
        elif any(da[k].get(c) != db[k][c] for c in payload):
            out.append(("U", k, db[k]))
    cols = {
        "op": pa.array([r[0] for r in out], pa.string()),
        "conv_id": pa.array([r[1][0] for r in out], pa.string()),
        "turn_idx": pa.array([r[1][1] for r in out], pa.int32()),
    }
    for c in payload:
        cols[c] = pa.array([r[2][c] if r[2] else None for r in out],
                           b.schema.field(c).type)
    return pa.table(cols)


def build(path: str, spec: dict, seed: int) -> None:
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from image_report_ray.schema import concat_evolving
    from image_report_ray.sources.synth import write_wal
    from image_report_ray.state.merge import table_digest
    from image_report_ray.state.oracle import apply_naive

    t0 = time.perf_counter()
    tmp = f"{path}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    files = write_wal(
        os.path.join(tmp, "wal"), n_epochs=spec["n_epochs"],
        epoch_size=spec["epoch_size"], n_parts=spec["n_parts"],
        seed=seed, **spec["gen"],
    )
    by_epoch: dict[int, list[str]] = {}
    for f in files:
        e = int(os.path.basename(os.path.dirname(f)).split("=")[1])
        by_epoch.setdefault(e, []).append(f)
    epochs = [concat_evolving([pq.read_table(f) for f in by_epoch[e]])
              for e in sorted(by_epoch)]
    rec = {
        "rows": [t.num_rows for t in epochs],
        "distinct_lsn": [pc.count_distinct(t.column("lsn")).as_py() for t in epochs],
        "snap_digest": {},
    }
    snaps = {}
    feed_sides = {e - 1 for e in spec["feeds"]} | set(spec["feeds"])
    for e in snapshot_epochs(spec):
        snap = apply_naive(concat_evolving(epochs[: e + 1]))
        rec["snap_digest"][str(e)] = table_digest(snap)
        if e in feed_sides:
            snaps[e] = snap
    for e in spec["feeds"]:
        pq.write_table(naive_feed(snaps.get(e - 1), snaps[e]),
                       os.path.join(tmp, f"feed-{e}.parquet"))
    rec["prep_s"] = time.perf_counter() - t0
    with open(os.path.join(tmp, "oracle.json"), "w") as f:
        json.dump(rec, f)
    try:
        os.rename(tmp, path)
    except OSError:  # a concurrent prep published first
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(HERE))
    build(sys.argv[1], json.loads(sys.argv[2]), int(sys.argv[3]))
