"""Exchange map-kernel tests: prepare_and_split routing correctness,
row conservation and WAL order through the split, salt routing."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from image_report_ray.pipelines.cdc import prepare_and_split
from image_report_ray.sources.synth import gen_epoch
from image_report_ray.stages.derive import conv_hash, make_add_pid


def test_split_partitions_cover_input_exactly():
    t = gen_epoch(0, 2000, seed=3, n_convs=80, max_turns=8, dup_rate=0.05)
    P = 7
    parts = prepare_and_split(t, P)
    assert len(parts) == P
    # every event lands in exactly one slice, none folded away
    assert sum(p.num_rows for p in parts) == t.num_rows


def test_split_routes_each_key_to_one_partition():
    t = gen_epoch(1, 1500, seed=4, n_convs=40, max_turns=8)
    P = 5
    parts = prepare_and_split(t, P)
    seen: dict[str, int] = {}
    for i, p in enumerate(parts):
        for c in set(p.column("conv_id").to_pylist()):
            assert seen.setdefault(c, i) == i, f"conv {c} in two partitions"
    # routing must equal the pid stage's own assignment
    import zlib

    for c, i in seen.items():
        assert zlib.crc32(c.encode()) % P == i


def test_split_keeps_wal_order_within_partition():
    # the merge's tie rule (the last WAL copy of an equal-lsn duplicate
    # wins) needs each slice to be a subsequence of the input
    t = gen_epoch(0, 3000, seed=5, n_convs=20, max_turns=4, dup_rate=0.2)
    t = t.take(np.random.default_rng(5).permutation(t.num_rows))
    parts = prepare_and_split(t, 3)
    assert sum(p.num_rows for p in parts) == t.num_rows
    for p in parts:
        wal = iter(t.column("lsn").to_pylist())
        assert all(lsn in wal for lsn in p.column("lsn").to_pylist())


def test_salted_key_spreads_but_keeps_turn_affinity():
    rows = []
    for turn in range(16):
        for lsn in range(3):
            rows.append(
                {"lsn": turn * 10 + lsn, "op": "I", "conv_id": "hot", "turn_idx": turn,
                 "role": "user", "text": "x", "tool": None, "ts": None}
            )
    t = pa.Table.from_pylist(rows)
    P, factor = 8, 4
    parts = prepare_and_split(t, P, frozenset(["hot"]), factor)
    used = [i for i, p in enumerate(parts) if p.num_rows]
    assert len(used) > 1  # the hot key actually spreads
    # each turn_idx (the merge key) still lives in exactly one partition
    turn_home: dict[int, int] = {}
    for i, p in enumerate(parts):
        for ti in set(p.column("turn_idx").to_pylist()):
            assert turn_home.setdefault(ti, i) == i


def test_empty_and_tiny_batches():
    t = gen_epoch(0, 1, seed=6, n_convs=1, max_turns=1)
    parts = prepare_and_split(t, 4)
    assert sum(p.num_rows for p in parts) == 1
    empty = t.slice(0, 0)
    parts = prepare_and_split(empty, 4)
    assert all(p.num_rows == 0 for p in parts)


def test_exchange_reduce_matches_pandas_join(ray_session):
    """Property: cogrouped exchange join == pandas merge on random data,
    across partition counts (hypothesis-style randomized cases)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from image_report_ray.pipelines.exchange import exchange_reduce, gather_concat

    def join_fn(pid, left, right):
        if left.num_rows == 0 or right.num_rows == 0:
            return pa.table({"k": pa.array([], pa.int64()),
                             "v": pa.array([], pa.int64()),
                             "w": pa.array([], pa.int64())})
        m = left.to_pandas().merge(right.to_pandas(), on="k")
        return pa.Table.from_pandas(m[["k", "v", "w"]], preserve_index=False)

    rng = np.random.default_rng(5)
    for case in range(3):
        nl, nr = rng.integers(50, 400, 2)
        left = pd.DataFrame({"k": rng.integers(0, 40, nl), "v": rng.integers(0, 100, nl)})
        right = pd.DataFrame({"k": rng.integers(0, 40, nr), "w": rng.integers(0, 100, nr)})
        expected = left.merge(right, on="k").sort_values(["k", "v", "w"]).reset_index(drop=True)
        lrefs = [ray.put(pa.Table.from_pandas(left.iloc[i::3], preserve_index=False))
                 for i in range(3)]
        rrefs = [ray.put(pa.Table.from_pandas(right.iloc[i::2], preserve_index=False))
                 for i in range(2)]
        for P in (2, 5, 16):
            got = gather_concat(
                exchange_reduce([lrefs, rrefs], ["k", "k"], join_fn, P=P)
            ).to_pandas().sort_values(["k", "v", "w"]).reset_index(drop=True)
            pd.testing.assert_frame_equal(got, expected, check_dtype=False)


def test_exchange_string_keys_colocate(ray_session):
    """Every occurrence of a string key lands in exactly one partition."""
    import numpy as np
    import pyarrow as pa
    import ray

    from image_report_ray.pipelines.exchange import exchange_reduce

    keys = [f"conv-{i%37}" for i in range(500)]
    t = pa.table({"user_id": pa.array(keys), "x": pa.array(np.arange(500))})
    refs = [ray.put(t.slice(i, 100)) for i in range(0, 500, 100)]

    def keys_seen(pid, part):
        return pa.table({"pid": pa.array([pid] * part.num_rows, pa.int64()),
                         "user_id": part.column("user_id")})

    out = pa.concat_tables(ray.get(exchange_reduce([refs], ["user_id"], keys_seen, P=7)))
    df = out.to_pandas().drop_duplicates()
    assert df.groupby("user_id").pid.nunique().max() == 1
    assert len(df.user_id.unique()) == 37


def test_q3_reduce_kernel_edges():
    """Pure-kernel edges: empty sides, unmatched orders, exact int-cent
    revenue, top-10 tie-break by orderkey."""
    import numpy as np
    import pyarrow as pa

    from image_report_ray.pipelines.relational import _q3_reduce

    empty_li = pa.table({"l_orderkey": pa.array([], pa.int64()),
                         "rev_u": pa.array([], pa.int64())})
    orders = pa.table({
        "o_orderkey": pa.array([1, 2, 3], pa.int64()),
        "o_orderdate": pa.array([10, 20, 30], pa.timestamp("us")),
    })
    assert _q3_reduce(0, empty_li, orders).num_rows == 0
    li = pa.table({
        "l_orderkey": pa.array([1, 1, 2, 9], pa.int64()),   # 9 unmatched
        "rev_u": pa.array([10_000_000, 5_000_000, 15_000_000, 7], pa.int64()),
    })
    out = _q3_reduce(0, li, orders)
    got = {k: (r, d) for k, r, d in zip(out.column("l_orderkey").to_pylist(),
                                        out.column("revenue").to_pylist(),
                                        out.column("o_orderdate").to_pylist())}
    assert set(got) == {1, 2}
    assert got[1][0] == 1500.0 and got[2][0] == 1500.0
    # equal revenue -> ascending orderkey order
    assert out.column("l_orderkey").to_pylist() == [1, 2]


def test_q5_kernels_edges():
    import numpy as np
    import pyarrow as pa

    from image_report_ray.pipelines.relational import (
        _q5_li_join,
        _q5_orders_cust_join,
    )

    asia = np.array([7, 8], dtype=np.int32)
    orders = pa.table({"o_orderkey": pa.array([1, 2, 3], pa.int64()),
                       "o_custkey": pa.array([10, 11, 99], pa.int64())})
    cust = pa.table({"c_custkey": pa.array([10, 11], pa.int64()),
                     "c_nationkey": pa.array([7, 5], pa.int32())})
    s1 = _q5_orders_cust_join(asia, 0, orders, cust)
    # order 1 -> nation 7 (asia); order 2 -> nation 5 (not); order 3 -> no cust
    assert s1.column("o_orderkey").to_pylist() == [1]
    assert s1.column("cn").to_pylist() == [7]

    li = pa.table({"l_orderkey": pa.array([1, 1, 2], pa.int64()),
                   "sn": pa.array([7, 8, 7], pa.int32()),
                   "rev_u": pa.array([100, 200, 300], pa.int64())})
    s2 = _q5_li_join(0, li, s1)
    # only (order 1, sn=7) matches cn==sn; sn=8 row filtered; order 2 unmatched
    assert s2.column("nk").to_pylist() == [7]
    assert s2.column("rev_u").to_pylist() == [100]


def test_persona_kernel_matches_naive():
    import numpy as np
    import pyarrow as pa

    from image_report_ray.pipelines.relational import (
        EVENT_TYPES,
        PERSONAS,
        _persona_score_partition,
    )

    counts = pa.table({
        "user_id": pa.array([1, 1, 2], pa.int64()),
        "event_type": pa.array(["click", "weird_type", "error"]),
        "n": pa.array([9, 1, 5], pa.int64()),
    })
    out = _persona_score_partition(0, counts, top_k=3)
    df = out.to_pandas()
    # unknown event types count toward the total mix denominator
    u1 = df[df.user_id == 1].iloc[0]
    bp = {et: (9000 if et == "click" else 0) for et in EVENT_TYPES}
    exp = {p: sum(abs(bp[et] - v) for et, v in zip(EVENT_TYPES, PERSONAS[p]))
           for p in PERSONAS}
    best = min(sorted(exp), key=lambda p: (exp[p], p))
    assert u1.persona == best and u1.diff_bp == exp[best]
    assert set(df[df.user_id == 1].rnk) == {1, 2, 3}


def test_range_join_kernel_matches_naive():
    """Merge-rank interval-count kernel == brute-force per-purchase count
    on random data (ties at window bounds included)."""
    import numpy as np
    import pyarrow as pa

    from image_report_ray.pipelines.relational import (
        _US_PER_HOUR,
        _range_join_partition,
    )

    rng = np.random.default_rng(17)
    n = 800
    uid = rng.integers(0, 12, n)
    ts = np.sort(rng.integers(0, 5 * _US_PER_HOUR, n))
    et = np.where(rng.random(n) < 0.3, "purchase", "click").astype(object)
    t = pa.table({
        "event_id": pa.array(np.arange(n), pa.int64()),
        "user_id": pa.array(uid, pa.int64()),
        "event_type": pa.array(et, pa.string()),
        "ts": pa.array(ts, pa.timestamp("us")),
    })
    out = _range_join_partition(0, t)
    got = dict(zip(out.column("event_id").to_pylist(),
                   out.column("n_clicks_1h").to_pylist()))
    for i in range(n):
        if et[i] != "purchase":
            continue
        lo, hi = ts[i] - _US_PER_HOUR, ts[i]
        exp = int(np.sum((uid == uid[i]) & (et == "click") & (ts >= lo) & (ts < hi)))
        assert got[i] == exp, i
    # exact boundary: a click at exactly pt-1h counts, at pt doesn't
    tb = pa.table({
        "event_id": pa.array([0, 1, 2], pa.int64()),
        "user_id": pa.array([5, 5, 5], pa.int64()),
        "event_type": pa.array(["click", "click", "purchase"]),
        "ts": pa.array([0, _US_PER_HOUR, _US_PER_HOUR], pa.timestamp("us")),
    })
    ob = _range_join_partition(0, tb)
    assert ob.column("n_clicks_1h").to_pylist() == [1]  # t=0 in, t=1h out


def test_hll_sketch_accuracy_and_merge_invariance(ray_session):
    """HLL estimate within 5% at 200k ids; the register fold is
    max-merge, so block order / duplicate deliveries never change it."""
    import numpy as np

    from image_report_ray.pipelines.relational import (
        _HLL_M,
        _hll_registers,
        hll_estimate,
        hll_user_sketch,
    )

    rng = np.random.default_rng(23)
    ids = rng.integers(0, 10**12, 200_000)
    true = len(np.unique(ids))
    b, r = _hll_registers(ids)
    regs = np.zeros(_HLL_M, np.int64)
    np.maximum.at(regs, b, r)
    nz = np.flatnonzero(regs)
    est = hll_estimate(nz, regs[nz])
    assert abs(est - true) / true < 0.05
    # merge invariance: two halves merged == whole
    regs2 = np.zeros(_HLL_M, np.int64)
    for half in (ids[::2], ids[1::2], ids[:100]):  # incl. duplicates
        hb, hr = _hll_registers(half)
        np.maximum.at(regs2, hb, hr)
    assert (regs == regs2).all()
    # pipeline runs over the driver table
    t = hll_user_sketch("/root/testdata/sf0.001")
    assert t.num_rows > 0
