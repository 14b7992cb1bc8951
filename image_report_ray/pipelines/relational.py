"""Relational query pipelines over the TPC-H-ish testdata tables.

Each function takes ``sf_dir`` and returns a small, deterministically
sorted ``pyarrow.Table`` whose column names match the DuckDB oracle SQL in
``__ray_entry__`` exactly. The pipelines are written scale-first:

* reads are column-pruned (`columns=[...]`) and predicate-filtered inside
  vectorized ``map_batches`` — only needed bytes leave storage;
* small sides (dimension tables, key sets) are **broadcast** via
  ``ray.put`` and looked up per batch — the engine analogue of the
  reference's static paper-size dimension-table join
  (/root/reference/papersize.py:37-65, SURVEY.md J1): never a shuffle;
* large-large joins and grouped work whose key cardinality grows with
  the data (users, orders) ride the engine's keyed exchange
  (:mod:`.exchange`): per-batch combine, hash-partition by key, one
  vectorized kernel per partition;
* fixed tiny-cardinality aggregates (return flags, event types) use
  per-batch combine + a driver fold (``fold_partials``) — no shuffle at
  all.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ._util import arrow_refs, ds_to_table, finalize, fold_partials

_US_PER_HOUR = 3_600_000_000


def _rd():
    import ray.data as rd

    return rd


def _cents(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """2-decimal double -> exact integer hundredths (int64).

    Money math as int64 makes distributed sums ORDER-INDEPENDENT and
    bit-identical to the DuckDB oracle — a float sum's low bits depend on
    block arrival order, which flips rounded cents at boundaries.
    """
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return np.rint(col.to_numpy(zero_copy_only=False) * 100).astype(np.int64)


def q1_pricing_summary(sf_dir: str) -> pa.Table:
    """TPC-H Q1 shape: grouped pricing summary of shipped lineitems.

    Aggregation is exact integer arithmetic (cents / 1e-4 / 1e-6 dollar
    units); each block combines map-side to ~4 partial rows and the tiny
    fixed-cardinality fold happens on the driver (fold_partials) — no
    shuffle at all for a 4-group aggregate.
    """
    rd = _rd()
    cutoff = pa.scalar(np.datetime64("1998-09-02", "us"), type=pa.timestamp("us"))

    def prep(t: pa.Table) -> pa.Table:
        qty_c = _cents(t.column("l_quantity"))
        price_c = _cents(t.column("l_extendedprice"))
        disc_c = _cents(t.column("l_discount"))
        tax_c = _cents(t.column("l_tax"))
        disc_price_u = price_c * (100 - disc_c)          # 1e-4 dollars
        charge_u = disc_price_u * (100 + tax_c)          # 1e-6 dollars
        full = pa.table(
            {
                "l_returnflag": t.column("l_returnflag"),
                "l_linestatus": t.column("l_linestatus"),
                "qty_c": qty_c, "price_c": price_c, "disc_c": disc_c,
                "disc_price_u": disc_price_u, "charge_u": charge_u,
            }
        )
        # map-side combine: ~4 groups exist, so each batch folds to a
        # handful of partial rows and the exchange is O(groups x batches)
        g = full.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty_c", "sum"), ("price_c", "sum"), ("disc_price_u", "sum"),
             ("charge_u", "sum"), ("disc_c", "sum"), ([], "count_all")]
        )
        return g.rename_columns(
            ["l_returnflag", "l_linestatus", "qty_c", "price_c",
             "disc_price_u", "charge_u", "disc_c", "n_rows"]
        )

    # predicate pushdown: the scanner drops non-qualifying row groups
    # and rows before they ever reach a batch
    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
            "l_discount", "l_tax",
        ],
        filter=pc.field("l_shipdate") <= cutoff,
    )
    t = fold_partials(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        [("qty_c", "sum"), ("price_c", "sum"), ("disc_price_u", "sum"),
         ("charge_u", "sum"), ("disc_c", "sum"), ("n_rows", "sum")],
        ["l_returnflag", "l_linestatus", "s_qty_c", "s_price_c", "s_dp_u",
         "s_ch_u", "s_disc_c", "count_order"],
    )
    # All decimals derive from int64 by floor-division then ONE exact float
    # division — no float re-rounding, so the value is bit-identical to the
    # SQL oracle no matter the block order (tie-free by construction).
    n = t.column("count_order").to_numpy().astype(np.int64)
    qty_c = t.column("s_qty_c").to_numpy().astype(np.int64)
    price_c = t.column("s_price_c").to_numpy().astype(np.int64)
    disc_c = t.column("s_disc_c").to_numpy().astype(np.int64)
    dp_u = t.column("s_dp_u").to_numpy().astype(np.int64)
    ch_u = t.column("s_ch_u").to_numpy().astype(np.int64)
    cols = {
        "l_returnflag": t.column("l_returnflag"),
        "l_linestatus": t.column("l_linestatus"),
        "sum_qty": qty_c / 100.0,
        "sum_base_price": price_c / 100.0,
        "sum_disc_price": (dp_u // 100) / 100.0,
        "sum_charge": (ch_u // 10_000) / 100.0,
        "avg_qty": (qty_c * 100 // n) / 10_000.0,
        "avg_price": (price_c * 100 // n) / 10_000.0,
        "avg_disc": (disc_c * 100 // n) / 10_000.0,
        "count_order": pa.array(n),
    }
    return finalize(pa.table(cols),
                    [("l_returnflag", "ascending"), ("l_linestatus", "ascending")])


def _q3_reduce(pid: int, li: pa.Table, orders: pa.Table) -> pa.Table:
    """Per-partition Q3 kernel: complete per-order revenue (the exchange
    co-located every lineitem partial with its order row), inner-join to
    the qualifying orders, keep only this partition's top-10 — O(10)
    rows leave each partition."""
    empty = pa.table(
        {
            "l_orderkey": pa.array([], pa.int64()),
            "revenue": pa.array([], pa.float64()),
            "o_orderdate": pa.array([], pa.timestamp("us")),
        }
    )
    if li.num_rows == 0 or orders.num_rows == 0:
        return empty
    g = li.group_by(["l_orderkey"]).aggregate([("rev_u", "sum")])
    lk = g.column("l_orderkey").to_numpy()
    rev_u = g.column("rev_u_sum").to_numpy().astype(np.int64)
    ok = orders.column("o_orderkey").to_numpy()
    od = orders.column("o_orderdate")
    oorder = np.argsort(ok)
    ok_s = ok[oorder]
    pos = np.searchsorted(ok_s, lk)
    hit = (pos < len(ok_s)) & (ok_s[np.minimum(pos, len(ok_s) - 1)] == lk)
    lk, rev_u, pos = lk[hit], rev_u[hit], pos[hit]
    rev = (rev_u // 100) / 100.0
    top = np.lexsort((lk, -rev))[:10]
    dates = od.take(pa.array(oorder[pos[top]]))
    return pa.table(
        {
            "l_orderkey": pa.array(lk[top], pa.int64()),
            "revenue": pa.array(rev[top]),
            "o_orderdate": dates.cast(pa.timestamp("us")),
        }
    )


def _order_cust_semijoin(pid: int, orders: pa.Table, cust: pa.Table) -> pa.Table:
    """Exact co-partitioned confirm behind the Bloom prefilter: keep this
    partition's order rows whose custkey is among its customer keys (both
    sides hashed here on custkey — membership is complete, Bloom false
    positives die here)."""
    empty = pa.table(
        {"o_orderkey": pa.array([], pa.int64()),
         "o_orderdate": pa.array([], pa.timestamp("us"))}
    )
    if orders.num_rows == 0 or cust.num_rows == 0:
        return empty
    keys = cust.column("c_custkey")
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    m = pc.is_in(orders.column("o_custkey"), value_set=keys)
    return orders.filter(m).select(["o_orderkey", "o_orderdate"])


# Above this key count a broadcast exact key set stops being a sane
# `ray.put` side and the pipelines switch to Bloom + exact confirm.
_MAX_BROADCAST_KEYS = 5_000_000


def _meta_rows(sf_dir: str, table: str) -> int:
    """Parquet-footer row count for a table dir/file — a free upper
    bound for broadcast-gate decisions (no scan, no task wave)."""
    import glob as _glob

    import pyarrow.parquet as pq

    paths = sorted(_glob.glob(f"{sf_dir}/{table}.parquet")) or sorted(
        _glob.glob(f"{sf_dir}/{table}.parquet/*.parquet")
    )
    return sum(pq.read_metadata(p).num_rows for p in paths)


def q3_top_orders(
    sf_dir: str, max_broadcast_keys: int = _MAX_BROADCAST_KEYS
) -> pa.Table:
    """TPC-H Q3 shape: top-10 open-order revenue for one market segment.

    The filtered-customer key side GROWS with the data, so the membership
    filter is gated: while the key count fits ``max_broadcast_keys`` the
    exact sorted key set broadcasts (`ray.put`, is_in per batch); above
    the gate it becomes a distributed-built Bloom bitmap broadcast
    (`bloom.build_bloom_distributed` — O(bits) driver state) whose
    survivors are confirmed EXACTLY by a co-partitioned exchange on
    custkey (:func:`_order_cust_semijoin` — false positives cannot reach
    the result). The date-filtered orders side is NOT small (most of the
    table) — it streams into the keyed exchange co-partitioned with
    lineitem's per-batch revenue partials on orderkey; each partition
    joins, totals, and emits only its top-10. The driver folds P×10
    rows."""
    import ray

    from .bloom import bloom_contains, build_bloom_distributed
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    cutoff = pa.scalar(np.datetime64("1998-01-01", "us"), type=pa.timestamp("us"))

    # segment-filtered customer keys, read distributed (never a driver
    # full-table read); the filter pushes into the scan
    cust_refs = arrow_refs(rd.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey"],
        filter=pc.equal(pc.field("c_mktsegment"), "BUILDING"),
    ))

    # gate cheaply first: the UNFILTERED metadata row count bounds the
    # filtered key count, so small tables skip the extra count wave
    n_keys = _meta_rows(sf_dir, "customer")
    if n_keys > max_broadcast_keys:

        @ray.remote
        def nrows(t: pa.Table) -> int:
            return t.num_rows

        n_keys = sum(ray.get([nrows.remote(r) for r in cust_refs]))

    orders_read = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=pc.field("o_orderdate") < cutoff,  # pushdown at the scan
    )

    if n_keys <= max_broadcast_keys:
        key_tabs = [t for t in ray.get(list(cust_refs)) if t.num_rows]
        cust_keys = pa.array(
            np.sort(
                np.concatenate(
                    [t.column("c_custkey").to_numpy() for t in key_tabs]
                )
            )
            if key_tabs
            else [],
            pa.int64(),
        )
        keys_ref = ray.put(cust_keys)

        def ofilter(t: pa.Table) -> pa.Table:
            m = pc.is_in(t.column("o_custkey"), value_set=ray.get(keys_ref))
            return t.filter(m).select(["o_orderkey", "o_orderdate"])

        orders_side = orders_read.map_batches(ofilter, batch_format="pyarrow")
    else:
        words, n_bits, k = build_bloom_distributed(cust_refs, "c_custkey", n_keys)
        words_ref = ray.put(words)

        def oprefilter(t: pa.Table) -> pa.Table:
            m = bloom_contains(ray.get(words_ref), t.column("o_custkey"), n_bits, k)
            return t.filter(pa.array(m))

        orders_side = exchange_reduce(
            [orders_read.map_batches(oprefilter, batch_format="pyarrow"), cust_refs],
            ["o_custkey", "c_custkey"],
            _order_cust_semijoin,
        )

    def li_partial(t: pa.Table) -> pa.Table:
        rev_u = _cents(t.column("l_extendedprice")) * (100 - _cents(t.column("l_discount")))
        part = t.select(["l_orderkey"]).append_column("rev_u", pa.array(rev_u))
        # map-side combine per order before the exchange
        g = part.group_by(["l_orderkey"]).aggregate([("rev_u", "sum")])
        return g.rename_columns(["l_orderkey", "rev_u"])

    li_ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filter=pc.field("l_shipdate") > cutoff,  # pushdown at the scan
    ).map_batches(li_partial, batch_format="pyarrow")

    refs = exchange_reduce(
        [li_ds, orders_side], ["l_orderkey", "o_orderkey"], _q3_reduce, P=8
    )
    t = finalize(gather_concat(refs),
                 [("revenue", "descending"), ("l_orderkey", "ascending")])
    return t.slice(0, 10).select(["l_orderkey", "revenue", "o_orderdate"])


def _q5_orders_cust_join(asia_keys: np.ndarray, pid: int, orders: pa.Table,
                         cust: pa.Table) -> pa.Table:
    """Stage-1 kernel: windowed orders ⋈ customer on custkey (both sides
    co-partitioned), keeping only orders whose customer nation is in the
    target region. Output is the (o_orderkey, cn) changelog for stage 2."""
    empty = pa.table(
        {"o_orderkey": pa.array([], pa.int64()), "cn": pa.array([], pa.int32())}
    )
    if orders.num_rows == 0 or cust.num_rows == 0:
        return empty
    ck = cust.column("c_custkey").to_numpy()
    cn = cust.column("c_nationkey").to_numpy().astype(np.int32)
    corder = np.argsort(ck)
    ck_s, cn_s = ck[corder], cn[corder]
    ock = orders.column("o_custkey").to_numpy()
    pos = np.searchsorted(ck_s, ock)
    hit = (pos < len(ck_s)) & (ck_s[np.minimum(pos, len(ck_s) - 1)] == ock)
    onation = np.where(hit, cn_s[np.minimum(pos, len(cn_s) - 1)], -1)
    keep = np.isin(onation, asia_keys)
    return pa.table(
        {
            "o_orderkey": pa.array(
                orders.column("o_orderkey").to_numpy()[keep], pa.int64()
            ),
            "cn": pa.array(onation[keep].astype(np.int32)),
        }
    )


def _q5_li_join(pid: int, li: pa.Table, orders: pa.Table) -> pa.Table:
    """Stage-2 kernel: lineitem partials ⋈ qualifying orders on orderkey;
    keep supplier-nation == customer-nation rows, fold revenue per
    nation — each partition emits at most |nations| rows."""
    empty = pa.table(
        {"nk": pa.array([], pa.int32()), "rev_u": pa.array([], pa.int64())}
    )
    if li.num_rows == 0 or orders.num_rows == 0:
        return empty
    ok = orders.column("o_orderkey").to_numpy()
    cn = orders.column("cn").to_numpy()
    oorder = np.argsort(ok)
    ok_s, cn_s = ok[oorder], cn[oorder]
    lk = li.column("l_orderkey").to_numpy()
    pos = np.searchsorted(ok_s, lk)
    hit = (pos < len(ok_s)) & (ok_s[np.minimum(pos, len(ok_s) - 1)] == lk)
    c_nation = np.where(hit, cn_s[np.minimum(pos, len(cn_s) - 1)], -1)
    sn = li.column("sn").to_numpy()
    keep = (c_nation >= 0) & (c_nation == sn)
    rev = li.column("rev_u").to_numpy()[keep]
    nk = c_nation[keep]
    uniq, inv = np.unique(nk, return_inverse=True)
    sums = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(sums, inv, rev)
    return pa.table(
        {"nk": pa.array(uniq.astype(np.int32)), "rev_u": pa.array(sums)}
    )


def _q5_li_supp_join(
    asia_keys: np.ndarray, pid: int, li: pa.Table, supp: pa.Table
) -> pa.Table:
    """Gated-path kernel: lineitem revenue partials ⋈ supplier on
    suppkey (both sides co-partitioned); attach the supplier nation,
    prune to the target region, and re-combine per (order, nation)."""
    empty = pa.table(
        {"l_orderkey": pa.array([], pa.int64()),
         "sn": pa.array([], pa.int32()),
         "rev_u": pa.array([], pa.int64())}
    )
    if li.num_rows == 0 or supp.num_rows == 0 or "l_suppkey" not in li.column_names:
        return empty
    sk = supp.column("s_suppkey").to_numpy()
    sn = supp.column("s_nationkey").to_numpy().astype(np.int32)
    order = np.argsort(sk)
    sk_s, sn_s = sk[order], sn[order]
    lk = li.column("l_suppkey").to_numpy()
    pos = np.searchsorted(sk_s, lk)
    hit = (pos < len(sk_s)) & (sk_s[np.minimum(pos, len(sk_s) - 1)] == lk)
    nation = np.where(hit, sn_s[np.minimum(pos, len(sn_s) - 1)], -2)
    keep = np.isin(nation, asia_keys)
    part = pa.table(
        {
            "l_orderkey": li.column("l_orderkey").filter(pa.array(keep)),
            "sn": pa.array(nation[keep].astype(np.int32)),
            "rev_u": li.column("rev_u").filter(pa.array(keep)).cast(pa.int64()),
        }
    )
    g = part.group_by(["l_orderkey", "sn"]).aggregate([("rev_u", "sum")])
    return g.rename_columns(["l_orderkey", "sn", "rev_u"])


def q5_region_revenue(
    sf_dir: str, max_broadcast_keys: int = _MAX_BROADCAST_KEYS
) -> pa.Table:
    """TPC-H Q5 shape: revenue by nation inside one region.

    Two chained keyed exchanges, no driver-side fact materialization:
    stage 1 co-partitions the date-windowed orders with the customer
    table on custkey and emits (o_orderkey, customer_nation) for the
    target region; stage 2 co-partitions lineitem's per-batch
    (orderkey, supplier_nation, revenue) partials with stage 1's output
    on orderkey, joins, filters cn == sn, and folds revenue per nation.
    region/nation (constant-size) are the only unconditional ``ray.put``
    sides; customer and orders stream through the exchange. The supplier
    nation lookup GROWS with the data, so it is gated like q3's customer
    keys: a dense broadcast LUT while the table fits
    ``max_broadcast_keys``, and a third keyed exchange on suppkey
    (:func:`_q5_li_supp_join`, co-partitioned lineitem partials ⋈
    supplier) beyond it."""
    import ray
    import pyarrow.parquet as pq
    from functools import partial as fpartial

    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    lo = pa.scalar(np.datetime64("1996-01-01", "us"), type=pa.timestamp("us"))
    hi = pa.scalar(np.datetime64("1997-01-01", "us"), type=pa.timestamp("us"))

    region = pq.read_table(f"{sf_dir}/region.parquet")
    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    rkey = region.filter(pc.equal(region.column("r_name"), "ASIA")).column("r_regionkey")
    asia_nations = nation.filter(pc.is_in(nation.column("n_regionkey"), value_set=rkey))
    nk_to_name = dict(
        zip(
            asia_nations.column("n_nationkey").to_pylist(),
            asia_nations.column("n_name").to_pylist(),
        )
    )
    asia_keys = np.fromiter(nk_to_name, dtype=np.int32)
    import glob as _glob

    supp_paths = sorted(_glob.glob(f"{sf_dir}/supplier.parquet")) or sorted(
        _glob.glob(f"{sf_dir}/supplier.parquet/*.parquet")
    )
    n_supp = sum(pq.read_metadata(p).num_rows for p in supp_paths)
    broadcast_supp = n_supp <= max_broadcast_keys
    if broadcast_supp:
        supp = pq.read_table(
            f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
        )
        s_keys = supp.column("s_suppkey").to_numpy()
        s_nations = supp.column("s_nationkey").to_numpy()
        s_lut = np.full(int(s_keys.max()) + 2, -2, dtype=np.int32)
        s_lut[s_keys] = s_nations
        s_ref = ray.put(s_lut)

    orders_ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey"],
        # window pushdown: only qualifying rows leave the scan
        filter=(pc.field("o_orderdate") >= lo) & (pc.field("o_orderdate") < hi),
    )
    cust_ds = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    stage1 = exchange_reduce(
        [orders_ds, cust_ds],
        ["o_custkey", "c_custkey"],
        fpartial(_q5_orders_cust_join, asia_keys),
        P=8,
    )

    li_read = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )
    if broadcast_supp:

        def li_partial(t: pa.Table) -> pa.Table:
            slut = ray.get(s_ref)
            sk = t.column("l_suppkey").to_numpy()
            sn = np.where(sk < len(slut), slut[np.minimum(sk, len(slut) - 1)], -2)
            keep = np.isin(sn, asia_keys)  # supplier-side prune before shuffle
            t = t.filter(pa.array(keep))
            rev_u = _cents(t.column("l_extendedprice")) * (
                100 - _cents(t.column("l_discount"))
            )
            part = pa.table(
                {
                    "l_orderkey": t.column("l_orderkey"),
                    "sn": pa.array(sn[keep].astype(np.int32)),
                    "rev_u": pa.array(rev_u),
                }
            )
            # map-side combine per (order, supplier-nation) pre-exchange
            g = part.group_by(["l_orderkey", "sn"]).aggregate([("rev_u", "sum")])
            return g.rename_columns(["l_orderkey", "sn", "rev_u"])

        li_side = li_read.map_batches(li_partial, batch_format="pyarrow")
    else:
        # scale path: the supplier table grows with the data, so the
        # nation lookup rides a THIRD keyed exchange on suppkey instead
        # of a data-sized broadcast LUT
        def li_supp_partial(t: pa.Table) -> pa.Table:
            rev_u = _cents(t.column("l_extendedprice")) * (
                100 - _cents(t.column("l_discount"))
            )
            part = pa.table(
                {
                    "l_orderkey": t.column("l_orderkey"),
                    "l_suppkey": t.column("l_suppkey"),
                    "rev_u": pa.array(rev_u),
                }
            )
            g = part.group_by(["l_orderkey", "l_suppkey"]).aggregate(
                [("rev_u", "sum")]
            )
            return g.rename_columns(["l_orderkey", "l_suppkey", "rev_u"])

        supp_ds = rd.read_parquet(
            f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
        )
        li_side = exchange_reduce(
            [li_read.map_batches(li_supp_partial, batch_format="pyarrow"), supp_ds],
            ["l_suppkey", "s_suppkey"],
            fpartial(_q5_li_supp_join, asia_keys),
            P=8,
        )
    stage2 = exchange_reduce(
        [li_side, stage1], ["l_orderkey", "o_orderkey"], _q5_li_join, P=8
    )
    partials = gather_concat(stage2)
    nk = partials.column("nk").to_numpy()
    rev = partials.column("rev_u").to_numpy()
    uniq, inv = np.unique(nk, return_inverse=True)
    sums = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(sums, inv, rev)
    t = pa.table(
        {
            "n_name": pa.array([nk_to_name[int(k)] for k in uniq]),
            "revenue": pa.array((sums // 100) / 100.0),
        }
    )
    return finalize(t, [("n_name", "ascending")])


def _cust_anti_partition(pid: int, cust: pa.Table, orders: pa.Table) -> pa.Table:
    """Exact co-partitioned anti-join confirm: drop this partition's
    candidate customers whose custkey has any order row here (both sides
    hashed on custkey, so absence is definitive)."""
    if cust.num_rows == 0:
        return pa.table(
            {"c_custkey": pa.array([], pa.int64()),
             "c_name": pa.array([], pa.string())}
        )
    if orders.num_rows == 0 or "o_custkey" not in orders.column_names:
        return cust
    keys = orders.column("o_custkey")
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    return cust.filter(
        pc.invert(pc.is_in(cust.column("c_custkey"), value_set=keys))
    )


def customers_without_orders(
    sf_dir: str, max_broadcast_keys: int = _MAX_BROADCAST_KEYS
) -> pa.Table:
    """Anti-join: customers that never placed an order.

    The distinct order-custkey set GROWS with the data, so the path is
    gated on its cardinality (estimated by this repo's own HLL combiner
    over per-block registers — O(4 KB) per block, no distinct
    materialization). Small: collect the exact distinct key set once and
    broadcast (is_in per batch). Large: build a Bloom bitmap over
    o_custkey distributed and split each customer batch — Bloom MISSES
    are definitively orderless (no false negatives) and stream straight
    to the result; Bloom HITS are candidates confirmed by an exact
    co-partitioned exchange anti-join on custkey
    (:func:`_cust_anti_partition`), so false positives cannot drop or
    add rows. Neither path ever holds the key set on the driver in the
    gated regime."""
    import ray

    from .bloom import bloom_contains, build_bloom_distributed
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    # per-block distinct combiner: the exchange/bloom sides ship distinct
    # (block-local) keys, not raw order rows
    okey_refs = arrow_refs(
        rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey"])
        .map_batches(
            lambda t: t.group_by(["o_custkey"]).aggregate([]),
            batch_format="pyarrow",
        )
    )

    # gate cheaply first: the orders metadata row count bounds the
    # distinct key count; only a big table pays the HLL register wave
    est_keys: float = float(_meta_rows(sf_dir, "orders"))
    if est_keys > max_broadcast_keys:

        @ray.remote
        def block_registers(t: pa.Table) -> tuple:
            regs = np.zeros(_HLL_M, dtype=np.int64)
            if t.num_rows and "o_custkey" in t.column_names:
                b, r = _hll_registers(t.column("o_custkey").to_numpy())
                np.maximum.at(regs, b, r)
            return regs

        regs = np.maximum.reduce(
            ray.get([block_registers.remote(r) for r in okey_refs])
        )
        est_keys = hll_estimate(np.arange(_HLL_M), regs)

    cust_ds = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )

    if est_keys <= max_broadcast_keys:
        tabs = [t for t in ray.get(list(okey_refs)) if t.num_rows]
        keyset = pa.array(
            np.unique(
                np.concatenate([t.column("o_custkey").to_numpy() for t in tabs])
            )
            if tabs
            else [],
            pa.int64(),
        )
        keys_ref = ray.put(keyset)

        def anti(t: pa.Table) -> pa.Table:
            return t.filter(
                pc.invert(
                    pc.is_in(t.column("c_custkey"), value_set=ray.get(keys_ref))
                )
            )

        t = ds_to_table(cust_ds.map_batches(anti, batch_format="pyarrow"))
        return finalize(t, [("c_custkey", "ascending")])

    words, n_bits, k = build_bloom_distributed(
        okey_refs, "o_custkey", int(est_keys)
    )
    words_ref = ray.put(words)

    @ray.remote(num_returns=2)
    def bloom_split(block: pa.Table, words: np.ndarray):
        if block.num_rows == 0 or "c_custkey" not in block.column_names:
            empty = pa.table(
                {"c_custkey": pa.array([], pa.int64()),
                 "c_name": pa.array([], pa.string())}
            )
            return empty, empty
        m = bloom_contains(words, block.column("c_custkey"), n_bits, k)
        return block.filter(pa.array(~m)), block.filter(pa.array(m))

    pairs = [bloom_split.remote(r, words_ref) for r in arrow_refs(cust_ds)]
    miss_refs = [p[0] for p in pairs]  # definitively orderless
    hit_refs = [p[1] for p in pairs]  # candidates -> exact confirm
    anti_refs = exchange_reduce(
        [hit_refs, okey_refs], ["c_custkey", "o_custkey"], _cust_anti_partition
    )
    confirmed = gather_concat(anti_refs)
    misses = [t for t in ray.get(miss_refs) if t.num_rows]
    parts = ([confirmed] if confirmed.num_rows else []) + misses
    if not parts:
        return pa.table(
            {"c_custkey": pa.array([], pa.int64()),
             "c_name": pa.array([], pa.string())}
        )
    return finalize(
        pa.concat_tables(parts, promote_options="default"),
        [("c_custkey", "ascending")],
    )


def _hour_sum_partition(pid: int, t: pa.Table) -> pa.Table:
    """Final per-partition fold of the tumbling-window partials (all of a
    user's partials are co-partitioned, so the sums are complete)."""
    if t.num_rows == 0:
        return pa.table(
            {"user_id": pa.array([], pa.int64()),
             "hour_bucket": pa.array([], pa.int64()),
             "n_events": pa.array([], pa.int64()),
             "sum_value": pa.array([], pa.float64())}
        )
    g = t.group_by(["user_id", "hour_bucket"]).aggregate(
        [("n_part", "sum"), ("value_c", "sum")]
    )
    sum_value = g.column("value_c_sum").to_numpy().astype(np.int64) / 100.0
    return pa.table(
        {
            "user_id": g.column("user_id"),
            "hour_bucket": g.column("hour_bucket"),
            "n_events": g.column("n_part_sum").cast(pa.int64()),
            "sum_value": pa.array(sum_value),
        }
    )


def user_hour_activity(sf_dir: str) -> pa.Table:
    """Tumbling 1-hour window per user: event count + value sum.

    Per-batch combine (one partial row per (user, hour, batch)), then
    the keyed exchange co-partitions by user and each partition folds its
    windows — the same shuffle the sessionize/as-of family uses, without
    a Dataset-groupby barrier."""
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()

    def bucket(t: pa.Table) -> pa.Table:
        us = t.column("ts").cast(pa.int64())
        hb = pc.divide(us, _US_PER_HOUR)
        full = pa.table(
            {
                "user_id": t.column("user_id"),
                "hour_bucket": hb,
                "value_c": pa.array(_cents(t.column("value"))),
            }
        )
        # map-side combine per (user, hour) window before the exchange
        g = full.group_by(["user_id", "hour_bucket"]).aggregate(
            [([], "count_all"), ("value_c", "sum")]
        )
        return g.rename_columns(["user_id", "hour_bucket", "n_part", "value_c"])

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"])
    refs = exchange_reduce(
        [ds.map_batches(bucket, batch_format="pyarrow")],
        ["user_id"],
        _hour_sum_partition,
    )
    return finalize(gather_concat(refs),
                    [("user_id", "ascending"), ("hour_bucket", "ascending")])


# Static persona dimension table — the engine's STANDARD_SIZES_MM
# (/root/reference/papersize.py:37-65): expected event-type mix in basis
# points, broadcast to every scoring task, never shuffled.
EVENT_TYPES = ("click", "error", "purchase", "signup", "view")
PERSONAS: dict[str, tuple[int, ...]] = {
    # name -> expected bp per EVENT_TYPES entry (sums ~10000)
    "browser": (3000, 200, 300, 500, 6000),
    "buyer": (3500, 200, 2500, 800, 3000),
    "monitor": (1000, 4000, 0, 0, 5000),
    "newcomer": (2000, 500, 500, 4000, 3000),
}


def _persona_score_partition(pid: int, counts: pa.Table, top_k: int = 3) -> pa.Table:
    """Vectorized persona scoring for one user-hash partition's grouped
    (user_id, event_type, n) counts. Pure kernel: pivot, integer
    basis-point ratios, L1 vs the broadcast persona table, top-k by
    (diff, persona) — exactly the SQL twin's semantics."""
    if counts.num_rows == 0:
        return pa.table(
            {
                "user_id": pa.array([], pa.int64()),
                "rnk": pa.array([], pa.int64()),
                "persona": pa.array([], pa.string()),
                "diff_bp": pa.array([], pa.int64()),
                "confidence_bp": pa.array([], pa.int64()),
            }
        )
    df = counts.to_pandas().pivot_table(
        index="user_id", columns="event_type", values="n", aggfunc="sum", fill_value=0
    )
    # totals over ALL event types (unknown types count toward the mix);
    # bp columns only for the persona-profiled types
    totals = np.maximum(df.to_numpy(dtype=np.int64).sum(axis=1), 1)
    for et in EVENT_TYPES:
        if et not in df.columns:
            df[et] = 0
    mat = df[list(EVENT_TYPES)].to_numpy(dtype=np.int64)
    ratios_bp = mat * 10_000 // totals[:, None]
    personas = sorted(PERSONAS)
    exp = np.array([PERSONAS[p] for p in personas], dtype=np.int64)
    # L1 distance user x persona (min-reduce over candidates, A6)
    diff = np.abs(ratios_bp[:, None, :] - exp[None, :, :]).sum(axis=2)
    order = np.lexsort((np.tile(np.arange(len(personas)), (len(df), 1)), diff), axis=1)
    users = df.index.to_numpy()
    rows = {"user_id": [], "rnk": [], "persona": [], "diff_bp": [], "confidence_bp": []}
    k = min(top_k, len(personas))
    for r in range(k):
        sel = order[:, r]
        d = diff[np.arange(len(df)), sel]
        rows["user_id"].append(users)
        rows["rnk"].append(np.full(len(df), r + 1, dtype=np.int64))
        rows["persona"].append(np.array(personas, dtype=object)[sel])
        rows["diff_bp"].append(d)
        rows["confidence_bp"].append(np.maximum(10_000 - d, 0))
    return pa.table(
        {
            "user_id": pa.array(np.concatenate(rows["user_id"])),
            "rnk": pa.array(np.concatenate(rows["rnk"])),
            "persona": pa.array(np.concatenate(rows["persona"]).astype(str)),
            "diff_bp": pa.array(np.concatenate(rows["diff_bp"]).astype(np.int64)),
            "confidence_bp": pa.array(
                np.concatenate(rows["confidence_bp"]).astype(np.int64)
            ),
        }
    )


def user_persona_match(sf_dir: str, top_k: int = 3) -> pa.Table:
    """Score every user's event-type mix against the broadcast persona
    table; emit the top-3 candidates with rank and confidence — the graft
    of the reference's paper-size guess (min-L1 over candidates,
    /root/reference/papersize.py:70-126), ranked top-3 with rank attrs
    (/root/reference/ir:86-97) and the clamped linear confidence
    (/root/reference/papersize.py:129-149). All integer arithmetic, so
    the SQL twin is bit-identical.

    Scale shape: per-batch partial counts (the combiner — each batch
    folds to <= users x types rows), then the keyed exchange co-locates
    every user's partials and the partition kernel's pivot completes the
    sum and scores — NO separate hash-groupby shuffle, and only the
    top-3 rows per user ever reach the driver."""
    from functools import partial as fpartial

    from .exchange import exchange_reduce, gather_concat

    rd = _rd()

    def partial(t: pa.Table) -> pa.Table:
        full = pa.table(
            {
                "user_id": t.column("user_id"),
                "event_type": t.column("event_type"),
            }
        )
        g = full.group_by(["user_id", "event_type"]).aggregate([([], "count_all")])
        return g.rename_columns(["user_id", "event_type", "n"])

    counts = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    ).map_batches(partial, batch_format="pyarrow")
    refs = exchange_reduce(
        [counts], ["user_id"], fpartial(_persona_score_partition, top_k=top_k)
    )
    return finalize(gather_concat(refs),
                    [("user_id", "ascending"), ("rnk", "ascending")])


def _sliding_sum_partition(pid: int, t: pa.Table) -> pa.Table:
    """Final per-partition fold of the hop-exploded window partials."""
    if t.num_rows == 0:
        return pa.table(
            {"user_id": pa.array([], pa.int64()),
             "window_start_hour": pa.array([], pa.int64()),
             "n_events": pa.array([], pa.int64())}
        )
    g = t.group_by(["user_id", "window_start_hour"]).aggregate([("n_part", "sum")])
    return pa.table(
        {
            "user_id": g.column("user_id"),
            "window_start_hour": g.column("window_start_hour"),
            "n_events": g.column("n_part_sum").cast(pa.int64()),
        }
    )


def user_sliding_activity(sf_dir: str) -> pa.Table:
    """Sliding (hopping) window: 2-hour windows hopping 1 hour, per user.

    Each event explodes into the two windows that cover it (window id =
    start hour), per-batch combine, then the keyed exchange co-partitions
    by user and each partition folds its windows — the hop explode IS the
    sliding-window operator."""
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()

    def explode_hops(t: pa.Table) -> pa.Table:
        us = t.column("ts").cast(pa.int64())
        hb = pc.divide(us, _US_PER_HOUR)
        hbn = hb.combine_chunks().to_numpy(zero_copy_only=False) if isinstance(
            hb, pa.ChunkedArray
        ) else hb.to_numpy(zero_copy_only=False)
        uid = t.column("user_id").to_numpy()
        win = np.concatenate([hbn, hbn - 1])          # covering window starts
        users = np.concatenate([uid, uid])
        full = pa.table(
            {"user_id": pa.array(users), "window_start_hour": pa.array(win)}
        )
        g = full.group_by(["user_id", "window_start_hour"]).aggregate(
            [([], "count_all")]
        )
        return g.rename_columns(["user_id", "window_start_hour", "n_part"])

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    refs = exchange_reduce(
        [ds.map_batches(explode_hops, batch_format="pyarrow")],
        ["user_id"],
        _sliding_sum_partition,
    )
    return finalize(gather_concat(refs),
                    [("user_id", "ascending"), ("window_start_hour", "ascending")])


def distinct_event_types(sf_dir: str) -> pa.Table:
    """Distinct values of a column (the `unique` operator): per-batch
    dedup partials, then a tiny driver fold — duplicate values are never
    shipped and a fixed-cardinality key needs no shuffle."""
    rd = _rd()

    def uniq(t: pa.Table) -> pa.Table:
        col = t.column("event_type")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return pa.table({"event_type": col.unique()})

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type"])
    t = fold_partials(
        ds.map_batches(uniq, batch_format="pyarrow"),
        ["event_type"], [([], "count_all")], ["event_type", "_n"],
    )
    t = (t.select(["event_type"]) if t.num_columns
         else pa.table({"event_type": pa.array([], pa.string())}))
    return finalize(t, [("event_type", "ascending")])


def _sessions_partition(pid: int, t: pa.Table) -> pa.Table:
    """Vectorized session counting for one user-hash partition (sort by
    (user, ts), groupby-shift gap test) — one Python call per PARTITION,
    not per user."""
    if t.num_rows == 0:
        return pa.table({"user_id": pa.array([], pa.int64()),
                         "n_sessions": pa.array([], pa.int64())})
    g = t.to_pandas().sort_values(["user_id", "ts", "event_id"])
    prev = g.groupby("user_id")["ts"].shift()
    new_session = prev.isna() | ((g["ts"] - prev) > pd.Timedelta(minutes=30))
    out = new_session.groupby(g["user_id"]).sum().astype("int64")
    return pa.table({"user_id": pa.array(out.index.to_numpy(), pa.int64()),
                     "n_sessions": pa.array(out.to_numpy(), pa.int64())})


def sessionize_users(sf_dir: str) -> pa.Table:
    """Session windows (30-minute inactivity gap) per user.

    Ray Data has no event-time windows; the engine's contract is the
    keyed exchange (partition by user hash) + one vectorized pass per
    partition (sort by (user, ts), groupby-shift for the gap test)."""
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"])
    refs = exchange_reduce([ds], ["user_id"], _sessions_partition)
    return finalize(gather_concat(refs), [("user_id", "ascending")])


_FUNNEL = ("view", "click", "purchase")


def _funnel_partition(pid: int, t: pa.Table) -> pa.Table:
    """Vectorized funnel kernel for one user-hash partition: per user
    the earliest completion time of each stage — stage i's event must
    be STRICTLY after stage i-1's earliest completion (the standard
    ordered-funnel semantics). No Python loop: per-stage masked
    ``minimum.reduceat`` at the sorted user-group starts, chained."""
    empty = pa.table({"user_id": pa.array([], pa.int64()),
                      "funnel_stage": pa.array([], pa.int64())})
    if t.num_rows == 0 or "user_id" not in t.column_names:
        return empty
    u = t.column("user_id").to_numpy()
    ty = t.column("event_type").to_numpy(zero_copy_only=False)
    ts = t.column("ts").to_numpy().astype(np.int64)
    order = np.lexsort((ts, u))
    u, ty, ts = u[order], ty[order], ts[order]
    starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
    grp = np.cumsum(np.r_[True, u[1:] != u[:-1]]) - 1
    BIG = np.iinfo(np.int64).max
    prev = np.full(len(starts), -BIG)  # stage-0 sentinel: no constraint
    stage = np.zeros(len(starts), np.int64)
    for i, ev in enumerate(_FUNNEL):
        cand = np.where((ty == ev) & (ts > prev[grp]), ts, BIG)
        cur = np.minimum.reduceat(cand, starts)
        done = cur < BIG
        stage = np.where(done, i + 1, stage)
        prev = np.where(done, cur, BIG)  # unreachable next stage if not done
    return pa.table(
        {"user_id": pa.array(u[starts], pa.int64()),
         "funnel_stage": pa.array(stage, pa.int64())}
    )


def funnel_stages(sf_dir: str) -> pa.Table:
    """Ordered funnel (view -> click -> purchase) per user: the furthest
    stage whose event occurs strictly after the previous stage's
    earliest completion — the classic event-pipeline conversion
    operator. One keyed exchange on user_id (3-column pruned read), one
    vectorized kernel per partition. Exact twin: ``__ray_entry__``
    ``funnel_stages``."""
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "ts"]
    )
    refs = exchange_reduce([ds], ["user_id"], _funnel_partition)
    return finalize(gather_concat(refs), [("user_id", "ascending")])


def props_stats(sf_dir: str) -> pa.Table:
    """Semi-structured extraction at scale: parse the JSON ``props``
    payload column (vectorized regex over the Arrow buffers — no
    per-row json.loads) and aggregate the extracted ``k`` field per
    event_type with exact integers. The shape every log pipeline needs:
    extract-then-aggregate without a shuffle (fixed-cardinality fold).
    Exact twin: ``__ray_entry__`` ``props_stats``."""
    rd = _rd()

    def extract(t: pa.Table) -> pa.Table:
        s = t.column("props")
        if isinstance(s, pa.ChunkedArray):
            s = s.combine_chunks()
        m = pc.extract_regex(s, r'"k":\s*(?P<k>-?\d+)')
        k = pc.cast(pc.struct_field(m, "k"), pa.int64())
        full = pa.table(
            {"event_type": t.column("event_type"),
             "k": k,
             "has_k": pc.is_valid(k)}
        )
        g = full.group_by(["event_type"]).aggregate(
            [("k", "sum"), ("k", "min"), ("k", "max"),
             ("has_k", "sum"), ([], "count_all")]
        )
        return g.rename_columns(
            ["event_type", "k_sum", "k_min", "k_max", "n_with_k", "n_events"]
        )

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "props"]
    )
    t = fold_partials(
        ds.map_batches(extract, batch_format="pyarrow"),
        ["event_type"],
        [("k_sum", "sum"), ("k_min", "min"), ("k_max", "max"),
         ("n_with_k", "sum"), ("n_events", "sum")],
        ["event_type", "k_sum", "k_min", "k_max", "n_with_k", "n_events"],
    )
    t = pa.table(
        {
            "event_type": t.column("event_type"),
            "n_events": t.column("n_events").cast(pa.int64()),
            "n_with_k": t.column("n_with_k").cast(pa.int64()),
            "k_sum": t.column("k_sum").cast(pa.int64()),
            "k_min": t.column("k_min").cast(pa.int64()),
            "k_max": t.column("k_max").cast(pa.int64()),
        }
    )
    return finalize(t, [("event_type", "ascending")])


def _retention_partition(pid: int, t: pa.Table) -> pa.Table:
    """Per user-hash partition: each user's cohort week (Monday of the
    first event's week) and the DISTINCT week offsets they were active;
    users are partition-complete, so (cohort, offset) user counts from
    different partitions simply ADD at the driver fold."""
    empty = pa.table({"cohort_week": pa.array([], pa.timestamp("us")),
                      "week_offset": pa.array([], pa.int64()),
                      "n_users": pa.array([], pa.int64())})
    if t.num_rows == 0 or "user_id" not in t.column_names:
        return empty
    u = t.column("user_id").to_numpy()
    days = t.column("ts").to_numpy().astype(np.int64) // 86_400_000_000
    monday = days - ((days + 3) % 7)  # 1970-01-01 is a Thursday
    order = np.argsort(u, kind="stable")
    u, monday = u[order], monday[order]
    starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
    grp = np.cumsum(np.r_[True, u[1:] != u[:-1]]) - 1
    first = np.minimum.reduceat(monday, starts)
    off = (monday - first[grp]) // 7
    # distinct (user, offset) -> (cohort, offset) counts
    key = grp * (off.max() + 1) + off if len(off) else off
    _, ix = np.unique(key, return_index=True)
    cohort, offs = first[grp[ix]], off[ix]
    ck = cohort * 1024 + offs  # offsets < 1024 weeks on any sane corpus
    uniq, cnt = np.unique(ck, return_counts=True)
    return pa.table(
        {
            "cohort_week": pa.array(
                (uniq // 1024).astype("datetime64[D]").astype("datetime64[us]")
            ),
            "week_offset": pa.array((uniq % 1024).astype(np.int64), pa.int64()),
            "n_users": pa.array(cnt.astype(np.int64), pa.int64()),
        }
    )


def retention_cohorts(sf_dir: str) -> pa.Table:
    """Weekly retention cohorts: users grouped by the Monday week of
    their FIRST event; for each (cohort_week, week_offset) the count of
    cohort users active that week — the classic activation/retention
    triangle. One user-keyed exchange (2-column pruned read); the
    driver folds O(weeks^2) partial count rows per partition. Exact
    twin: ``__ray_entry__`` ``retention_cohorts``."""
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    t = gather_concat(
        exchange_reduce([ds], ["user_id"], _retention_partition)
    )
    if t.num_rows == 0:
        return t
    g = t.group_by(["cohort_week", "week_offset"]).aggregate([("n_users", "sum")])
    g = g.rename_columns(["cohort_week", "week_offset", "n_users"])
    return finalize(
        g, [("cohort_week", "ascending"), ("week_offset", "ascending")]
    )


def _asof_partition(pid: int, t: pa.Table) -> pa.Table:
    """Vectorized by-user as-of join for one user-hash partition: ONE
    ``merge_asof(by="user_id")`` over all this partition's users."""
    empty = pa.table({"event_id": pa.array([], pa.int64()),
                      "click_ts": pa.array([], pa.timestamp("us"))})
    if t.num_rows == 0:
        return empty
    g = t.to_pandas()
    p = g[g["event_type"] == "purchase"].sort_values(["ts", "event_id"])
    c = g[g["event_type"] == "click"].sort_values(["ts", "event_id"])
    if p.empty:
        return empty
    if c.empty:
        m = pd.DataFrame({"event_id": p["event_id"], "click_ts": pd.NaT})
    else:
        m = pd.merge_asof(
            p[["event_id", "user_id", "ts"]],
            c[["user_id", "ts"]].assign(click_ts=c["ts"]),
            on="ts",
            by="user_id",
            direction="backward",
            allow_exact_matches=False,
        )
    return pa.Table.from_pandas(
        m[["event_id", "click_ts"]], preserve_index=False
    ).cast(empty.schema)


def asof_click_before_purchase(sf_dir: str) -> pa.Table:
    """As-of join: for every purchase, the user's latest strictly-earlier
    click. The keyed exchange co-partitions by user hash; one vectorized
    ``merge_asof(by="user_id")`` per partition — ~#users/P users per
    call."""
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "event_type", "ts"]
    )
    refs = exchange_reduce([ds], ["user_id"], _asof_partition)
    return finalize(gather_concat(refs), [("event_id", "ascending")])


def _range_join_partition(pid: int, t: pa.Table) -> pa.Table:
    """Per-partition range-join kernel: for each purchase, count the SAME
    user's clicks with ts in [purchase_ts - 1h, purchase_ts). Vectorized:
    sort clicks by (user, ts) once, then two searchsorted probes per
    purchase give the interval's click count — O((C+P) log C) per
    partition, no per-row loops."""
    empty = pa.table({"event_id": pa.array([], pa.int64()),
                      "n_clicks_1h": pa.array([], pa.int64())})
    if t.num_rows == 0:
        return empty
    et = t.column("event_type")
    if isinstance(et, pa.ChunkedArray):
        et = et.combine_chunks()
    ts = t.column("ts").cast(pa.int64()).to_numpy()
    uid = t.column("user_id").to_numpy()
    eid = t.column("event_id").to_numpy()
    etn = et.to_numpy(zero_copy_only=False)
    is_p = etn == "purchase"
    is_c = etn == "click"
    if not is_p.any():
        return empty
    cu, ct = uid[is_c], ts[is_c]
    pu, pt, pe = uid[is_p], ts[is_p], eid[is_p]

    def rank_probes(bound_ts: np.ndarray) -> np.ndarray:
        """#clicks lexicographically before (pu, bound_ts), per probe —
        merge-rank: sort clicks and probes together (probes first on
        exact ties = searchsorted 'left'); a probe's click-count is its
        sorted position minus the probes ahead of it. Fully vectorized."""
        n_c, n_p = len(cu), len(pu)
        flag = np.r_[np.ones(n_c, np.int8), np.zeros(n_p, np.int8)]
        all_u = np.r_[cu, pu]
        all_t = np.r_[ct, bound_ts]
        order = np.lexsort((flag, all_t, all_u))
        probe_sorted_pos = np.flatnonzero(flag[order] == 0)
        clicks_before = probe_sorted_pos - np.arange(n_p)
        out = np.empty(n_p, np.int64)
        out[order[probe_sorted_pos] - n_c] = clicks_before
        return out

    # [pt - 1h, pt): cross-user prefixes cancel in the difference because
    # both probes carry the same user
    n = rank_probes(pt) - rank_probes(pt - _US_PER_HOUR)
    return pa.table(
        {"event_id": pa.array(pe, pa.int64()),
         "n_clicks_1h": pa.array(n)}
    )


def clicks_before_purchase_count(sf_dir: str) -> pa.Table:
    """RANGE join: for every purchase, the count of that user's clicks in
    the preceding hour — the interval-join operator (vs the single-match
    as-of join). Keyed exchange by user hash co-locates each user's
    events; the kernel answers every purchase with two binary searches
    over the partition's sorted clicks."""
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "event_type", "ts"]
    )
    refs = exchange_reduce([ds], ["user_id"], _range_join_partition)
    return finalize(gather_concat(refs), [("event_id", "ascending")])


# HyperLogLog sketch (Flajolet et al. 2007, public algorithm): p=12 ->
# 4096 registers, standard error ~1.04/sqrt(4096) = 1.6%. The sketch is
# DETERMINISTIC (seeded splitmix64 hash), and the register table is pure
# integer arithmetic — so unlike most "approximate" operators it has an
# exact SQL oracle; only the float cardinality ESTIMATE derived from the
# registers is approximate (pytest-gated against the true count).
_HLL_P = 12
_HLL_M = 1 << _HLL_P
_HLL_SEED = np.uint64(0x5EED)


def _hll_registers(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(bucket, rank) per input id — bucket = top p hash bits, rank =
    leading-zeros-plus-one of the remaining 52 bits. The bit length of
    the remainder comes from the float64 exponent field (ints < 2^53 are
    exact in a double), not log2 — bit-exact, no rounding hazard."""
    from .text import _splitmix64

    h = _splitmix64(ids.astype(np.uint64) + _HLL_SEED)
    bucket = (h >> np.uint64(64 - _HLL_P)).astype(np.int64)
    rem = h & np.uint64((1 << (64 - _HLL_P)) - 1)
    nz = rem > 0
    bitlen = np.zeros(len(rem), dtype=np.int64)
    f = rem[nz].astype(np.float64)
    bitlen[nz] = ((f.view(np.uint64) >> np.uint64(52)) - np.uint64(1023)).astype(
        np.int64
    ) + 1
    rank = np.where(nz, (64 - _HLL_P) - bitlen + 1, (64 - _HLL_P) + 1)
    return bucket, rank.astype(np.int64)


def hll_estimate(buckets: np.ndarray, ranks: np.ndarray) -> float:
    """Standard HLL estimator with the small-range (linear counting)
    correction, from the merged non-empty registers."""
    m = _HLL_M
    regs = np.zeros(m, dtype=np.int64)
    regs[buckets] = ranks
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = m - np.count_nonzero(regs)
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)
    return float(est)


def hll_user_sketch(sf_dir: str) -> pa.Table:
    """Distributed HyperLogLog over ``events.user_id``: per-batch partial
    registers (max rank per bucket — a 4 KB combiner regardless of batch
    size), folded by MAX (commutative/idempotent, so block order and
    retries never change the sketch). Returns the non-empty registers —
    integer-exact, full SQL oracle; :func:`hll_estimate` turns them into
    the cardinality estimate (pytest: within 5% of the true count)."""
    from ._util import fold_partials

    rd = _rd()

    def partial(t: pa.Table) -> pa.Table:
        uid = t.column("user_id").to_numpy()
        b, r = _hll_registers(uid)
        regs = np.zeros(_HLL_M, dtype=np.int64)
        np.maximum.at(regs, b, r)
        nz = np.flatnonzero(regs)
        return pa.table(
            {"bucket": pa.array(nz, pa.int64()),
             "max_rank": pa.array(regs[nz], pa.int64())}
        )

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    t = fold_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["bucket"], [("max_rank", "max")], ["bucket", "max_rank"],
    )
    if t.num_columns == 0:  # empty events table: zero registers
        t = pa.table({"bucket": pa.array([], pa.int64()),
                      "max_rank": pa.array([], pa.int64())})
    return finalize(t, [("bucket", "ascending")])


def _q14_part_join(pid: int, li: pa.Table, part: pa.Table) -> pa.Table:
    """Gated-path kernel: lineitem revenue partials ⋈ part on partkey
    (co-partitioned inner join); emits this partition's (promo_u,
    total_u) pair — O(1) rows leave each partition."""
    empty = pa.table(
        {"promo_u": pa.array([], pa.int64()), "total_u": pa.array([], pa.int64())}
    )
    if li.num_rows == 0 or part.num_rows == 0 or "l_partkey" not in li.column_names:
        return empty
    pk = part.column("p_partkey").to_numpy()
    promo = (
        part.column("p_type").to_numpy(zero_copy_only=False) == "PROMO"
    )
    order = np.argsort(pk)
    pk_s, promo_s = pk[order], promo[order]
    lk = li.column("l_partkey").to_numpy()
    pos = np.searchsorted(pk_s, lk)
    hit = (pos < len(pk_s)) & (pk_s[np.minimum(pos, len(pk_s) - 1)] == lk)
    rev = li.column("rev_u").to_numpy()
    total = int(rev[hit].sum())
    is_promo = promo_s[np.minimum(pos, len(promo_s) - 1)] & hit
    return pa.table(
        {
            "promo_u": pa.array([int(rev[is_promo].sum())], pa.int64()),
            "total_u": pa.array([total], pa.int64()),
        }
    )


def q14_promo_revenue(
    sf_dir: str, max_broadcast_keys: int = _MAX_BROADCAST_KEYS
) -> pa.Table:
    """TPC-H Q14 shape: share of revenue from promotional parts.

    Integer-exact money math end to end (cents x (100-disc) as int64;
    one final division), so the distributed sums are order-independent
    and bit-equal to the SQL twin. The part side GROWS with the data and
    is gated like q5's supplier: below ``max_broadcast_keys`` the
    (sorted partkey, is_promo) arrays broadcast and each lineitem batch
    folds to ONE (promo_u, total_u) row — no shuffle at all; above the
    gate, per-batch (partkey, rev_u) partials ride a keyed exchange
    co-partitioned with part (:func:`_q14_part_join`) and each partition
    emits one pair. Inner-join semantics both ways (rows whose partkey
    is absent from part count in neither sum)."""
    import ray

    from .exchange import exchange_reduce, gather_concat

    rd = _rd()

    def li_rev(t: pa.Table) -> pa.Table:
        rev_u = _cents(t.column("l_extendedprice")) * (
            100 - _cents(t.column("l_discount"))
        )
        return pa.table(
            {"l_partkey": t.column("l_partkey"), "rev_u": pa.array(rev_u)}
        )

    li_read = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount"],
    )

    if _meta_rows(sf_dir, "part") <= max_broadcast_keys:
        import pyarrow.parquet as pq

        part = pq.read_table(
            f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
        )
        pk = part.column("p_partkey").to_numpy()
        promo = part.column("p_type").to_numpy(zero_copy_only=False) == "PROMO"
        order = np.argsort(pk)
        side_ref = ray.put((pk[order], promo[order]))

        def partial(t: pa.Table) -> pa.Table:
            pk_s, promo_s = ray.get(side_ref)
            b = li_rev(t)
            lk = b.column("l_partkey").to_numpy()
            pos = np.searchsorted(pk_s, lk)
            hit = (pos < len(pk_s)) & (
                pk_s[np.minimum(pos, len(pk_s) - 1)] == lk
            )
            rev = b.column("rev_u").to_numpy()
            is_promo = promo_s[np.minimum(pos, len(promo_s) - 1)] & hit
            return pa.table(
                {
                    "promo_u": pa.array([int(rev[is_promo].sum())], pa.int64()),
                    "total_u": pa.array([int(rev[hit].sum())], pa.int64()),
                }
            )

        parts_t = ds_to_table(li_read.map_batches(partial, batch_format="pyarrow"))
    else:

        def li_partial(t: pa.Table) -> pa.Table:
            b = li_rev(t)
            g = b.group_by(["l_partkey"]).aggregate([("rev_u", "sum")])
            return g.rename_columns(["l_partkey", "rev_u"])

        part_ds = rd.read_parquet(
            f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
        )
        parts_t = gather_concat(
            exchange_reduce(
                [li_read.map_batches(li_partial, batch_format="pyarrow"), part_ds],
                ["l_partkey", "p_partkey"],
                _q14_part_join,
            )
        )

    if parts_t.num_columns == 0 or parts_t.num_rows == 0:
        promo_u, total_u = 0, 0
    else:
        promo_u = int(pc.sum(parts_t.column("promo_u")).as_py() or 0)
        total_u = int(pc.sum(parts_t.column("total_u")).as_py() or 0)
    return pa.table(
        {
            "promo_revenue": pa.array([(promo_u // 100) / 100.0]),
            "total_revenue": pa.array([(total_u // 100) / 100.0]),
            "promo_pct_bp": pa.array(
                [1_000_000 * promo_u // max(total_u, 1)], pa.int64()
            ),
        }
    )


def _burst_partition(pid: int, t: pa.Table, k: int) -> pa.Table:
    """Per-partition burst fold: a user's (user, hour) partials all meet
    here, so the per-user profile completes locally — one row per user
    leaves, with the flag decided by exact-integer cross-multiplication
    (max_hour_cnt · n_hours > k · n_events ⇔ max > k · mean)."""
    if t.num_rows == 0:
        return pa.table(
            {"user_id": pa.array([], pa.int64()),
             "n_events": pa.array([], pa.int64()),
             "n_hours": pa.array([], pa.int64()),
             "max_hour_cnt": pa.array([], pa.int64()),
             "burst": pa.array([], pa.int64())}
        )
    hw = t.group_by(["user_id", "hour_bucket"]).aggregate([("n_part", "sum")])
    u = hw.group_by(["user_id"]).aggregate(
        [("n_part_sum", "sum"), ([], "count_all"), ("n_part_sum", "max")]
    )
    ne = u.column("n_part_sum_sum").cast(pa.int64())
    nh = u.column("count_all").cast(pa.int64())
    mx = u.column("n_part_sum_max").cast(pa.int64())
    burst = pc.cast(
        pc.greater(pc.multiply(mx, nh), pc.multiply(ne, k)), pa.int64()
    )
    return pa.table(
        {"user_id": u.column("user_id").cast(pa.int64()), "n_events": ne,
         "n_hours": nh, "max_hour_cnt": mx, "burst": burst}
    )


def user_burst_anomaly(sf_dir: str, k: int = 2) -> pa.Table:
    """Traffic-burst anomaly profile: per user, total events, distinct
    active hours, the hottest hour's count, and a 0/1 burst flag — set
    when the hottest hour exceeds k× the user's mean hourly rate. The
    abuse / runaway-agent triage signal an event lake serves.

    Same shuffle discipline as :func:`user_hour_activity`: per-batch
    (user, hour) combine, ONE user-keyed exchange, per-partition
    completion (a user's hours are partition-complete), O(users) result
    rows. The flag is exact integer cross-multiplication — no float
    mean, so distributed fold order can never flip it."""
    from functools import partial as fpartial

    from .exchange import exchange_reduce, gather_concat

    rd = _rd()

    def bucket(t: pa.Table) -> pa.Table:
        hb = pc.divide(t.column("ts").cast(pa.int64()), _US_PER_HOUR)
        g = pa.table(
            {"user_id": t.column("user_id"), "hour_bucket": hb}
        ).group_by(["user_id", "hour_bucket"]).aggregate([([], "count_all")])
        return g.rename_columns(["user_id", "hour_bucket", "n_part"])

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    refs = exchange_reduce(
        [ds.map_batches(bucket, batch_format="pyarrow")],
        ["user_id"],
        fpartial(_burst_partition, k=k),
    )
    return finalize(gather_concat(refs), [("user_id", "ascending")])


def _encoded_event_refs(sf_dir: str):
    """Shared sequence-mining front end: ONE events read, a tiny
    distinct-type fold, then per-block dictionary-encoding of
    ``event_type`` to int16 so the user-keyed exchange ships only
    fixed-width columns. Returns (encoded block refs, sorted type
    list) — consumed by :func:`event_transitions` (pairs) and
    :func:`event_trigrams` (triples)."""
    import ray

    rd = _rd()
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )
    base_refs = arrow_refs(ds)

    @ray.remote
    def types_of(t: pa.Table) -> pa.Table:
        et = t.column("event_type")
        if isinstance(et, pa.ChunkedArray):
            et = et.combine_chunks()
        return pa.table({"t": pc.unique(et)})

    types = pa.concat_tables(ray.get([types_of.remote(r) for r in base_refs]))
    tlist = np.sort(
        np.unique(types.column("t").to_numpy(zero_copy_only=False))
    )

    @ray.remote
    def encode(t: pa.Table, tl: np.ndarray) -> pa.Table:
        et = t.column("event_type")
        if isinstance(et, pa.ChunkedArray):
            et = et.combine_chunks()
        code = np.searchsorted(tl, et.to_numpy(zero_copy_only=False))
        return pa.table(
            {"user_id": t.column("user_id"),
             "ts": t.column("ts").cast(pa.int64()),
             "event_id": t.column("event_id"),
             "code": pa.array(code.astype(np.int16), pa.int16())}
        )

    tl_ref = ray.put(tlist)
    return [encode.remote(r, tl_ref) for r in base_refs], tlist


def _transition_partition(n_types: int, pid: int, t: pa.Table) -> pa.Table:
    """Per-partition transition fold: a user's events are
    partition-complete, so one lexsort by (user, ts, event_id) makes
    every adjacent (from → to) pair visible locally; the pair count is
    one 2-D bincount over the shipped int16 type codes — only
    O(types²) partial rows leave."""
    empty = pa.table(
        {"from_code": pa.array([], pa.int64()),
         "to_code": pa.array([], pa.int64()),
         "n_part": pa.array([], pa.int64())}
    )
    if t.num_rows == 0:
        return empty
    u = t.column("user_id").to_numpy()
    ts = t.column("ts").to_numpy()
    eid = t.column("event_id").to_numpy()
    code = t.column("code").to_numpy()
    order = np.lexsort((eid, ts, u))
    u, code = u[order], code[order].astype(np.int64)
    same = u[1:] == u[:-1]
    if not same.any():
        return empty
    flat = code[:-1][same] * n_types + code[1:][same]
    cnt = np.bincount(flat, minlength=n_types * n_types)
    nz = np.flatnonzero(cnt)
    return pa.table(
        {"from_code": pa.array(nz // n_types, pa.int64()),
         "to_code": pa.array(nz % n_types, pa.int64()),
         "n_part": pa.array(cnt[nz], pa.int64())}
    )


def event_transitions(sf_dir: str) -> pa.Table:
    """First-order Markov transition counts over each user's event
    stream ordered by (ts, event_id) — the behavioral sequence-mining
    view (:func:`cdcq.cdc_tool_transitions`'s events-side sibling).

    Two waves over ONE read: a tiny distinct-type fold first, then the
    broadcast sorted type list dictionary-encodes ``event_type`` to
    int16 per batch so the user-keyed co-location exchange ships four
    FIXED-WIDTH columns (adjacency crosses batch boundaries, rows must
    co-locate — but never a string payload); the per-partition kernel
    is a lexsort + 2-D bincount, partials are O(event_types²) and fold
    on the driver (fixed tiny cardinality)."""
    from functools import partial as fpartial

    import ray

    from .exchange import exchange_reduce, gather_concat

    enc_refs, tlist = _encoded_event_refs(sf_dir)
    refs = exchange_reduce(
        [enc_refs], ["user_id"],
        fpartial(_transition_partition, len(tlist)),
    )
    coded = gather_concat(refs)
    if coded.num_rows == 0:
        allp = pa.table(
            {"from_type": pa.array([], pa.string()),
             "to_type": pa.array([], pa.string()),
             "n_part": pa.array([], pa.int64())}
        )
    else:
        allp = pa.table(
            {"from_type": pa.array(
                tlist[coded.column("from_code").to_numpy()], pa.string()),
             "to_type": pa.array(
                tlist[coded.column("to_code").to_numpy()], pa.string()),
             "n_part": coded.column("n_part")}
        )
    if allp.num_rows == 0:
        return pa.table(
            {"from_type": pa.array([], pa.string()),
             "to_type": pa.array([], pa.string()),
             "n": pa.array([], pa.int64())}
        )
    g = allp.group_by(["from_type", "to_type"]).aggregate([("n_part", "sum")])
    out = pa.table(
        {"from_type": g.column("from_type"), "to_type": g.column("to_type"),
         "n": g.column("n_part_sum").cast(pa.int64())}
    )
    return finalize(
        out,
        [("n", "descending"), ("from_type", "ascending"),
         ("to_type", "ascending")],
    )


def value_moments(sf_dir: str) -> pa.Table:
    """Exact distributed second moments per event type: count, sum and
    population variance of ``value`` — every partial an int64 triple
    (n, Σcents, Σcents²), so fold order can never move a bit; the
    variance closes driver-side in unbounded Python ints with the same
    floor the HUGEINT twin takes: var_micro = ⌊(n·Σv² − (Σv)²)·10⁶/n²⌋.

    The canonical moments-sketch shape (mean/std/z-score backbone):
    per-batch combine to one row per type, fixed tiny cardinality,
    :func:`_util.fold_partials` — no shuffle."""
    from ._util import fold_partials

    rd = _rd()

    def partial(t: pa.Table) -> pa.Table:
        v = _cents(t.column("value"))
        g = pa.table(
            {
                "event_type": t.column("event_type"),
                "v": pa.array(v, pa.int64()),
                "v2": pa.array(v * v, pa.int64()),
            }
        ).group_by(["event_type"]).aggregate(
            [([], "count_all"), ("v", "sum"), ("v2", "sum")]
        )
        return g.rename_columns(["event_type", "n_part", "s_part", "sq_part"])

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "value"])
    t = fold_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type"],
        [("n_part", "sum"), ("s_part", "sum"), ("sq_part", "sum")],
        ["event_type", "n", "sum_cents", "sq"],
    )
    n = t.column("n").to_pylist()
    s = t.column("sum_cents").to_pylist()
    sq = t.column("sq").to_pylist()
    var = [
        ((ni * qi - si * si) * 1_000_000) // (ni * ni) if ni else 0
        for ni, si, qi in zip(n, s, sq)
    ]
    out = pa.table(
        {
            "event_type": t.column("event_type"),
            "n": t.column("n").cast(pa.int64()),
            "sum_cents": t.column("sum_cents").cast(pa.int64()),
            "var_micro": pa.array(var, pa.int64()),
        }
    )
    return finalize(out, [("event_type", "ascending")])


_US_PER_DAY = 86_400_000_000


def _active_partition(pid: int, t: pa.Table) -> pa.Table:
    """Per-partition DAU/WAU partials: a user's (user, day) pairs are
    partition-complete, so the user's distinct-day set — and the union
    of its 7-day coverage intervals — close locally. Emits (day,
    dau_part, wau_part); anchor days that never saw an event are
    trimmed by the driver against the global day list."""
    empty = pa.table(
        {"day": pa.array([], pa.int64()),
         "dau_part": pa.array([], pa.int64()),
         "wau_part": pa.array([], pa.int64())}
    )
    if t.num_rows == 0:
        return empty
    u = t.column("user_id").to_numpy()
    d = t.column("day").to_numpy()
    order = np.lexsort((d, u))
    u, d = u[order], d[order]
    first = np.r_[True, (u[1:] != u[:-1]) | (d[1:] != d[:-1])]
    u, d = u[first], d[first]                      # distinct (user, day)
    # DAU partials: count users per day (distinct within partition=global)
    ud, dn = np.unique(d, return_counts=True)
    # WAU: per user, union of [day, day+6] intervals, expanded to anchors
    new_u = np.r_[True, u[1:] != u[:-1]]
    # interval merge per user over the sorted day list: a new interval
    # starts when the gap to the previous day exceeds 6 or user changes
    gap = np.r_[True, (d[1:] - d[:-1]) > 6]
    start = new_u | gap
    seg = np.cumsum(start) - 1
    seg_start = d[start]
    # segment end = last day in segment + 6
    seg_last = np.zeros(seg[-1] + 1, np.int64)
    seg_last[seg] = d                               # last write wins (sorted)
    lo = seg_start
    hi = seg_last + 6
    lens = hi - lo + 1
    anchors = np.repeat(lo, lens) + (
        np.arange(int(lens.sum())) - np.repeat(np.r_[0, np.cumsum(lens)[:-1]], lens)
    )
    wd, wn = np.unique(anchors, return_counts=True)
    days = np.union1d(ud, wd)
    out_dau = np.zeros(len(days), np.int64)
    out_dau[np.searchsorted(days, ud)] = dn
    out_wau = np.zeros(len(days), np.int64)
    out_wau[np.searchsorted(days, wd)] = wn
    return pa.table(
        {"day": pa.array(days, pa.int64()),
         "dau_part": pa.array(out_dau, pa.int64()),
         "wau_part": pa.array(out_wau, pa.int64())}
    )


def active_users(sf_dir: str) -> pa.Table:
    """Exact DAU / rolling-7-day WAU — the windowed-DISTINCT shape that
    defeats naive aggregation (a distinct user must count once per
    window, not once per event): ONE user-keyed exchange of (user, day)
    pairs; each partition closes its users' distinct-day sets and their
    merged 7-day coverage intervals locally, so WAU partials ADD across
    partitions (users are partition-complete — no distinct survives the
    fold boundary). Driver folds O(days) rows and trims anchor days
    that never saw an event."""
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()

    def to_days(t: pa.Table) -> pa.Table:
        day = pc.divide(t.column("ts").cast(pa.int64()), _US_PER_DAY)
        g = pa.table(
            {"user_id": t.column("user_id"), "day": day}
        ).group_by(["user_id", "day"]).aggregate([([], "count_all")])
        return g.drop_columns(["count_all"])

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    refs = exchange_reduce(
        [ds.map_batches(to_days, batch_format="pyarrow")],
        ["user_id"], _active_partition,
    )
    allp = gather_concat(refs)
    if allp.num_rows == 0:
        return pa.table(
            {"day": pa.array([], pa.int64()),
             "dau": pa.array([], pa.int64()),
             "wau": pa.array([], pa.int64())}
        )
    g = allp.group_by(["day"]).aggregate(
        [("dau_part", "sum"), ("wau_part", "sum")]
    )
    # trim anchors beyond the last REAL event day (interval expansion
    # reaches up to +6 past it; real days all carry dau > 0)
    real = g.filter(pc.greater(g.column("dau_part_sum"), 0))
    keep = pc.is_in(g.column("day"), value_set=real.column("day").combine_chunks())
    g = g.filter(keep)
    out = pa.table(
        {"day": g.column("day").cast(pa.int64()),
         "dau": g.column("dau_part_sum").cast(pa.int64()),
         "wau": g.column("wau_part_sum").cast(pa.int64())}
    )
    return finalize(out, [("day", "ascending")])


_QUANTS = ((50, 100, "p50_cents"), (90, 100, "p90_cents"),
           (99, 100, "p99_cents"))


def value_quantiles(sf_dir: str) -> pa.Table:
    """Exact per-type P50/P90/P99 of ``value`` — the bounded-domain
    histogram fold (the N33 ``lang_char_quantiles`` pattern on the
    events table): per-batch (event_type, cents) counts combine before
    the driver fold (observed-cents cardinality is bounded by the value
    domain, not the row count), cumulative counts close per type, and
    each quantile is the smallest v whose cumulative rank reaches
    ⌈q·n⌉ — computed as the pure integer (q_num·n + q_den − 1) // q_den
    on BOTH sides, so no float rank can ever disagree with the twin."""
    from ._util import fold_partials

    rd = _rd()

    def partial(t: pa.Table) -> pa.Table:
        v = _cents(t.column("value"))
        g = pa.table(
            {"event_type": t.column("event_type"),
             "v": pa.array(v, pa.int64())}
        ).group_by(["event_type", "v"]).aggregate([([], "count_all")])
        return g.rename_columns(["event_type", "v", "n_part"])

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "value"])
    hist = fold_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type", "v"], [("n_part", "sum")], ["event_type", "v", "n"],
    )
    if hist.num_rows == 0:
        return pa.table(
            {"event_type": pa.array([], pa.string()),
             **{name: pa.array([], pa.int64()) for _, _, name in _QUANTS}}
        )
    hist = hist.take(pc.sort_indices(
        hist, sort_keys=[("event_type", "ascending"), ("v", "ascending")]
    ))
    et = hist.column("event_type").to_numpy(zero_copy_only=False)
    v = hist.column("v").to_numpy()
    n = hist.column("n").to_numpy().astype(np.int64)
    starts = np.flatnonzero(np.r_[True, et[1:] != et[:-1]])
    ends = np.r_[starts[1:], len(et)]
    types, cols = [], {name: [] for _, _, name in _QUANTS}
    for s, e in zip(starts, ends):
        cum = np.cumsum(n[s:e])
        total = int(cum[-1])
        types.append(et[s])
        for q_num, q_den, name in _QUANTS:
            rank = (q_num * total + q_den - 1) // q_den
            cols[name].append(int(v[s:e][np.searchsorted(cum, rank)]))
    out = pa.table(
        {"event_type": pa.array(types, pa.string()),
         **{name: pa.array(vals, pa.int64()) for name, vals in cols.items()}}
    )
    return finalize(out, [("event_type", "ascending")])


def _q18_qty_partition(min_qty: int, pid: int, t: pa.Table) -> pa.Table:
    """An order's quantity partials all meet here: close the sum, keep
    only large orders — the HAVING filter runs inside the partition, so
    survivors (a tiny fraction) are all that moves downstream."""
    if t.num_rows == 0:
        return pa.table(
            {"o_orderkey": pa.array([], pa.int64()),
             "sum_qty": pa.array([], pa.int64())}
        )
    g = t.group_by(["l_orderkey"]).aggregate([("q_part", "sum")])
    out = pa.table(
        {"o_orderkey": g.column("l_orderkey").cast(pa.int64()),
         "sum_qty": g.column("q_part_sum").cast(pa.int64())}
    )
    return out.filter(pc.greater(out.column("sum_qty"), min_qty))


def _q18_order_attach(pid: int, winners: pa.Table, orders: pa.Table) -> pa.Table:
    """Winners co-partitioned with orders on the order key: attach
    custkey / totalprice / orderdate (inner join — every winner key
    exists exactly once in orders)."""
    if winners.num_rows == 0 or "o_orderkey" not in winners.column_names:
        return pa.table(
            {"o_orderkey": pa.array([], pa.int64()),
             "sum_qty": pa.array([], pa.int64()),
             "o_custkey": pa.array([], pa.int64()),
             "o_totalprice": pa.array([], pa.float64()),
             "o_orderdate": pa.array([], pa.timestamp("us"))}
        )
    ok = orders.column("o_orderkey").to_numpy()
    order = np.argsort(ok)
    w = winners.column("o_orderkey").to_numpy()
    pos = order[np.searchsorted(ok[order], w)]
    return pa.table(
        {"o_orderkey": winners.column("o_orderkey"),
         "sum_qty": winners.column("sum_qty"),
         "o_custkey": orders.column("o_custkey").take(pos).cast(pa.int64()),
         "o_totalprice": orders.column("o_totalprice").take(pos),
         "o_orderdate": orders.column("o_orderdate").take(pos)}
    )


def _q18_cust_attach(pid: int, rows: pa.Table, cust: pa.Table) -> pa.Table:
    if rows.num_rows == 0 or "o_custkey" not in rows.column_names:
        return pa.table(
            {"c_name": pa.array([], pa.string()),
             "o_custkey": pa.array([], pa.int64()),
             "o_orderkey": pa.array([], pa.int64()),
             "o_orderdate": pa.array([], pa.timestamp("us")),
             "o_totalprice": pa.array([], pa.float64()),
             "sum_qty": pa.array([], pa.int64())}
        )
    ck = cust.column("c_custkey").to_numpy()
    order = np.argsort(ck)
    r = rows.column("o_custkey").to_numpy()
    pos = order[np.searchsorted(ck[order], r)]
    return pa.table(
        {"c_name": cust.column("c_name").take(pos),
         "o_custkey": rows.column("o_custkey"),
         "o_orderkey": rows.column("o_orderkey"),
         "o_orderdate": rows.column("o_orderdate"),
         "o_totalprice": rows.column("o_totalprice"),
         "sum_qty": rows.column("sum_qty")}
    )


def q18_large_orders(sf_dir: str, min_qty: int = 250, k: int = 100) -> pa.Table:
    """TPC-H Q18 (large-volume customers) — the LARGE×LARGE×LARGE join
    exemplar: no side broadcasts; three chained keyed exchanges
    co-partition lineitem quantity partials with orders on the order
    key, then survivors with customers on custkey. The HAVING filter
    closes inside the first exchange, so only the tiny winner set rides
    the later stages; quantities sum as exact int64 (whole-number
    doubles in the data)."""
    from functools import partial as fpartial

    from .exchange import exchange_reduce, gather_concat

    rd = _rd()

    def qty_partial(t: pa.Table) -> pa.Table:
        q = np.rint(
            t.column("l_quantity").to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        g = pa.table(
            {"l_orderkey": t.column("l_orderkey"),
             "q": pa.array(q, pa.int64())}
        ).group_by(["l_orderkey"]).aggregate([("q", "sum")])
        return g.rename_columns(["l_orderkey", "q_part"])

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_quantity"])
    winners = exchange_reduce(
        [li.map_batches(qty_partial, batch_format="pyarrow")],
        ["l_orderkey"], fpartial(_q18_qty_partition, min_qty),
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"],
    )
    stage2 = exchange_reduce(
        [winners, orders.map_batches(lambda t: t, batch_format="pyarrow")],
        ["o_orderkey", "o_orderkey"], _q18_order_attach,
    )
    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_name"])
    stage3 = exchange_reduce(
        [stage2, cust.map_batches(lambda t: t, batch_format="pyarrow")],
        ["o_custkey", "c_custkey"], _q18_cust_attach,
    )
    t = gather_concat(stage3)
    t = finalize(
        t,
        [("o_totalprice", "descending"), ("o_orderdate", "ascending"),
         ("o_orderkey", "ascending")],
    )
    return t.slice(0, k).combine_chunks()


# Fixed pivot vocabulary: the five event types of the events table.
# The SQL twin hardcodes the same list; test_round5_ops pins the
# assumption so a data change fails loudly instead of silently
# misclassifying into n_other.
_PIVOT_TYPES = ("click", "error", "purchase", "signup", "view")


def user_type_pivot(sf_dir: str) -> pa.Table:
    """PIVOT / crosstab: one row per user, one count column per event
    type (plus ``n_other`` for anything outside the fixed vocabulary) —
    the wide feature-matrix shape model-feature pipelines export.

    Per-batch (user, type) combine, ONE user-keyed exchange, pivot to
    wide inside the partition (a user's counts are complete there);
    O(users) result rows, no string column survives the pivot."""
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    names = [f"n_{t}" for t in _PIVOT_TYPES] + ["n_other"]

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table(
            {"user_id": t.column("user_id"),
             "event_type": t.column("event_type")}
        ).group_by(["user_id", "event_type"]).aggregate([([], "count_all")])
        return g.rename_columns(["user_id", "event_type", "n_part"])

    def pivot_partition(pid: int, t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"user_id": pa.array([], pa.int64()),
                 **{n: pa.array([], pa.int64()) for n in names}}
            )
        g = t.group_by(["user_id", "event_type"]).aggregate([("n_part", "sum")])
        u = g.column("user_id").to_numpy()
        et = g.column("event_type").to_numpy(zero_copy_only=False)
        n = g.column("n_part_sum").to_numpy().astype(np.int64)
        uu, ui = np.unique(u, return_inverse=True)
        code = np.searchsorted(np.array(_PIVOT_TYPES), et)
        known = (code < len(_PIVOT_TYPES)) & (
            np.array(_PIVOT_TYPES + ("",))[
                np.minimum(code, len(_PIVOT_TYPES))] == et
        )
        col = np.where(known, code, len(_PIVOT_TYPES))
        mat = np.zeros((len(uu), len(names)), np.int64)
        np.add.at(mat, (ui, col), n)
        return pa.table(
            {"user_id": pa.array(uu, pa.int64()),
             **{nm: pa.array(mat[:, i], pa.int64())
                for i, nm in enumerate(names)}}
        )

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_type"])
    refs = exchange_reduce(
        [ds.map_batches(partial, batch_format="pyarrow")],
        ["user_id"], pivot_partition,
    )
    return finalize(gather_concat(refs), [("user_id", "ascending")])


def events_rollup(sf_dir: str) -> pa.Table:
    """ROLLUP: event counts at three grouping levels in one streamed
    pass — (event_type, hour_bucket), (event_type), and grand total —
    with NULLs marking rolled-up dimensions exactly like SQL ROLLUP.
    The leaf level is a fixed-tiny-cardinality fold (types × hours);
    the upper levels derive from it driver-side for free — no second
    pass, no shuffle."""
    from ._util import fold_partials

    rd = _rd()

    def partial(t: pa.Table) -> pa.Table:
        hb = pc.divide(t.column("ts").cast(pa.int64()), _US_PER_HOUR)
        g = pa.table(
            {"event_type": t.column("event_type"), "hour_bucket": hb}
        ).group_by(["event_type", "hour_bucket"]).aggregate([([], "count_all")])
        return g.rename_columns(["event_type", "hour_bucket", "n_part"])

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "ts"])
    leaf = fold_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type", "hour_bucket"], [("n_part", "sum")],
        ["event_type", "hour_bucket", "n"],
    )
    if leaf.num_rows == 0:
        return pa.table(
            {"event_type": pa.array([], pa.string()),
             "hour_bucket": pa.array([], pa.int64()),
             "n": pa.array([], pa.int64())}
        )
    leaf = pa.table(
        {"event_type": leaf.column("event_type"),
         "hour_bucket": leaf.column("hour_bucket").cast(pa.int64()),
         "n": leaf.column("n").cast(pa.int64())}
    )
    mid = leaf.group_by(["event_type"]).aggregate([("n", "sum")])
    mid = pa.table(
        {"event_type": mid.column("event_type"),
         "hour_bucket": pa.nulls(mid.num_rows, pa.int64()),
         "n": mid.column("n_sum").cast(pa.int64())}
    )
    total = pa.table(
        {"event_type": pa.nulls(1, pa.string()),
         "hour_bucket": pa.nulls(1, pa.int64()),
         "n": pa.array([int(pc.sum(leaf.column("n")).as_py())], pa.int64())}
    )
    out = pa.concat_tables([leaf, mid, total])
    return finalize(
        out,
        [("event_type", "ascending"), ("hour_bucket", "ascending"),
         ("n", "ascending")],
    )


def _running_partition(pid: int, t: pa.Table) -> pa.Table:
    """A user's events are partition-complete: one lexsort by
    (user, ts, event_id), then a per-user running sum = global cumsum
    minus each user's starting offset — two vector ops, no loop."""
    if t.num_rows == 0:
        return pa.table(
            {"event_id": pa.array([], pa.int64()),
             "user_id": pa.array([], pa.int64()),
             "running_cents": pa.array([], pa.int64())}
        )
    u = t.column("user_id").to_numpy()
    ts = t.column("ts").to_numpy()
    eid = t.column("event_id").to_numpy()
    v = t.column("v").to_numpy()
    order = np.lexsort((eid, ts, u))
    u, eid, v = u[order], eid[order], v[order]
    cum = np.cumsum(v)
    starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
    grp = np.cumsum(np.r_[True, u[1:] != u[:-1]]) - 1
    base = np.r_[0, cum[starts - 1][1:]] if len(starts) > 1 else np.zeros(
        1, np.int64)
    run = cum - base[grp]
    return pa.table(
        {"event_id": pa.array(eid, pa.int64()),
         "user_id": pa.array(u, pa.int64()),
         "running_cents": pa.array(run.astype(np.int64), pa.int64())}
    )


def user_running_value(sf_dir: str) -> pa.Table:
    """Ordered running aggregate — ``SUM(value) OVER (PARTITION BY user
    ORDER BY ts, event_id)`` — the per-entity prefix-scan shape
    (billing meters, budget burndown): one user-keyed exchange of
    narrow columns, per-partition lexsort + one global cumsum with
    per-user offsets subtracted. Exact integer cents throughout."""
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()

    def narrow(t: pa.Table) -> pa.Table:
        return pa.table(
            {"user_id": t.column("user_id"),
             "ts": t.column("ts").cast(pa.int64()),
             "event_id": t.column("event_id"),
             "v": pa.array(_cents(t.column("value")), pa.int64())}
        )

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "value"],
    )
    refs = exchange_reduce(
        [ds.map_batches(narrow, batch_format="pyarrow")],
        ["user_id"], _running_partition,
    )
    return finalize(gather_concat(refs), [("event_id", "ascending")])


def _streak_partition(pid: int, t: pa.Table) -> pa.Table:
    """Gaps-and-islands per user over distinct active days (the user's
    days are partition-complete): island starts where the day gap
    exceeds 1; count islands + longest run, all vectorized."""
    if t.num_rows == 0:
        return pa.table(
            {"user_id": pa.array([], pa.int64()),
             "n_active_days": pa.array([], pa.int64()),
             "n_streaks": pa.array([], pa.int64()),
             "longest_streak": pa.array([], pa.int64())}
        )
    u = t.column("user_id").to_numpy()
    d = t.column("day").to_numpy()
    order = np.lexsort((d, u))
    u, d = u[order], d[order]
    dup = np.r_[False, (u[1:] == u[:-1]) & (d[1:] == d[:-1])]
    u, d = u[~dup], d[~dup]                     # distinct (user, day)
    new_u = np.r_[True, u[1:] != u[:-1]]
    island = new_u | np.r_[True, (d[1:] - d[:-1]) > 1]
    isl = np.cumsum(island) - 1
    isl_len = np.bincount(isl)
    isl_user = u[island]
    uu, ui = np.unique(isl_user, return_inverse=True)
    n_streaks = np.bincount(ui)
    longest = np.zeros(len(uu), np.int64)
    np.maximum.at(longest, ui, isl_len)
    days_per_user = np.bincount(
        np.searchsorted(uu, u), minlength=len(uu))
    return pa.table(
        {"user_id": pa.array(uu, pa.int64()),
         "n_active_days": pa.array(days_per_user.astype(np.int64), pa.int64()),
         "n_streaks": pa.array(n_streaks.astype(np.int64), pa.int64()),
         "longest_streak": pa.array(longest, pa.int64())}
    )


def user_streaks(sf_dir: str) -> pa.Table:
    """Gaps-and-islands: per user, distinct active days, number of
    maximal consecutive-day runs, and the longest run — the retention
    streak profile. One user-keyed exchange of per-batch-distinct
    (user, day) pairs; islands close in-partition (a user's days are
    partition-complete), O(users) result rows."""
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()

    def to_days(t: pa.Table) -> pa.Table:
        day = pc.divide(t.column("ts").cast(pa.int64()), _US_PER_DAY)
        g = pa.table(
            {"user_id": t.column("user_id"), "day": day}
        ).group_by(["user_id", "day"]).aggregate([([], "count_all")])
        return g.drop_columns(["count_all"])

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    refs = exchange_reduce(
        [ds.map_batches(to_days, batch_format="pyarrow")],
        ["user_id"], _streak_partition,
    )
    return finalize(gather_concat(refs), [("user_id", "ascending")])


def value_rank_transform(sf_dir: str) -> pa.Table:
    """Rank-transform (CDF) normalization — the feature-engineering
    step that replaces a skewed raw value with its within-group
    percentile: per event, pct_rank_bp = ⌊(rank_min − 1)·10⁴ /
    (n_type − 1)⌋ with rank_min = count(values below) + 1 (SQL RANK
    tie semantics), exact integers end to end.

    NO per-row sort and NO hot-key exchange (a type-keyed shuffle would
    send 1/5th of the data to one partition): pass 1 folds the
    bounded-domain (type, cents) histogram (the N90 machinery); the
    driver prefix-sums O(types × domain) counts; pass 2 ships the tiny
    CDF in task closures and every event looks its rank up with one
    searchsorted — map-only over the same columns. Single-event types
    report 0."""
    from ._util import fold_partials

    rd = _rd()

    def hist_partial(t: pa.Table) -> pa.Table:
        v = _cents(t.column("value"))
        g = pa.table(
            {"event_type": t.column("event_type"),
             "v": pa.array(v, pa.int64())}
        ).group_by(["event_type", "v"]).aggregate([([], "count_all")])
        return g.rename_columns(["event_type", "v", "n_part"])

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "event_type", "value"])
    hist = fold_partials(
        ds.map_batches(
            lambda t: hist_partial(t.select(["event_type", "value"])),
            batch_format="pyarrow",
        ),
        ["event_type", "v"], [("n_part", "sum")], ["event_type", "v", "n"],
    )
    if hist.num_rows == 0:
        return pa.table(
            {"event_id": pa.array([], pa.int64()),
             "pct_rank_bp": pa.array([], pa.int64())}
        )
    hist = hist.take(pc.sort_indices(
        hist, sort_keys=[("event_type", "ascending"), ("v", "ascending")]
    ))
    et = hist.column("event_type").to_numpy(zero_copy_only=False)
    hv = hist.column("v").to_numpy()
    hn = hist.column("n").to_numpy().astype(np.int64)
    starts = np.flatnonzero(np.r_[True, et[1:] != et[:-1]])
    ends = np.r_[starts[1:], len(et)]
    cdf = {}
    for s, e in zip(starts, ends):
        below = np.r_[0, np.cumsum(hn[s:e])[:-1]]
        cdf[et[s]] = (hv[s:e], below, int(hn[s:e].sum()))

    def rank_batch(t: pa.Table) -> pa.Table:
        v = _cents(t.column("value"))
        ty = t.column("event_type").to_numpy(zero_copy_only=False)
        out = np.zeros(t.num_rows, np.int64)
        for name, (vals, below, n) in cdf.items():
            m = ty == name
            if not m.any() or n <= 1:
                continue
            less = below[np.searchsorted(vals, v[m])]
            out[m] = (less * 10_000) // (n - 1)
        return pa.table(
            {"event_id": t.column("event_id").cast(pa.int64()),
             "pct_rank_bp": pa.array(out, pa.int64())}
        )

    t = ds_to_table(
        rd.read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_id", "event_type", "value"])
        .map_batches(rank_batch, batch_format="pyarrow")
    )
    return finalize(t, [("event_id", "ascending")])


# ---- bloom-prefiltered semi-join ----------------------------------------

_BSJ_MIN_PURCHASES = 16


def bloom_semi_join(sf_dir: str, min_purchases: int = _BSJ_MIN_PURCHASES,
                    nbits: int | None = None, k: int = 7) -> pa.Table:
    """Total event count per repeat buyer (users with ≥ ``min_purchases``
    'purchase' events) — the bloom-prefiltered semi-join: when the
    qualifying key set is too large to broadcast exactly, broadcast a
    fixed-size bloom bitset (:mod:`.bloom` kernels) instead and let the
    exchange move only the survivors.

    Stage A: per-block partial purchase counts fold through the
    user-keyed exchange; each partition keeps its qualifying user ids
    (refs stay in the object store). Stage B: one tiny task per
    partition renders its ids into a bloom slice (union is bitwise OR);
    the driver holds only bitmaps, never ids. Stage C: the SAME block
    refs (one read, two task waves) fold per-user total counts, drop
    definite non-members vectorized against the broadcast bitset, and
    only the survivors — qualifying users plus the bloom's ~1% false-
    positive sliver — re-enter the exchange, where the co-partitioned
    exact id set kills the false positives. No false negatives by
    construction, so the result is exact; the bloom only bounds the
    shuffle volume (the saturated-bloom pytest forces nbits=64 and
    still matches bit-for-bit)."""
    import ray

    from .bloom import bloom_contains, bloom_insert, bloom_params
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_type"])
    base_refs = arrow_refs(ds)

    empty = pa.table({"user_id": pa.array([], pa.int64()),
                      "n_events": pa.array([], pa.int64())})
    uid_only = pa.table({"user_id": pa.array([], pa.int64())})

    @ray.remote
    def purchase_partials(t: pa.Table) -> pa.Table:
        if "user_id" not in t.column_names or t.num_rows == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "n_part": pa.array([], pa.int64())})
        f = t.filter(pc.equal(t.column("event_type"), "purchase"))
        g = f.group_by(["user_id"]).aggregate([([], "count_all")])
        return pa.table({"user_id": g.column("user_id").cast(pa.int64()),
                         "n_part": g.column("count_all").cast(pa.int64())})

    def qualify_partition(pid: int, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return uid_only
        g = t.group_by(["user_id"]).aggregate([("n_part", "sum")])
        q = g.filter(pc.greater_equal(g.column("n_part_sum"),
                                      min_purchases))
        return pa.table({"user_id": q.column("user_id").cast(pa.int64())})

    qual_refs = exchange_reduce(
        [[purchase_partials.remote(r) for r in base_refs]], ["user_id"],
        qualify_partition,
    )

    @ray.remote
    def _nrows(q: pa.Table) -> int:
        return q.num_rows

    n_keys = sum(ray.get([_nrows.remote(q) for q in qual_refs]))
    n_bits, kk = (nbits, k) if nbits is not None else bloom_params(n_keys)

    @ray.remote
    def bloom_slice(q: pa.Table) -> np.ndarray:
        words = np.zeros(n_bits >> 6, np.uint64)
        if q.num_rows:
            bloom_insert(words, q.column("user_id"), n_bits, kk)
        return words

    bloom = np.bitwise_or.reduce(
        ray.get([bloom_slice.remote(q) for q in qual_refs])
    )
    bloom_ref = ray.put(bloom)

    @ray.remote
    def survivor_partials(t: pa.Table, words: np.ndarray) -> pa.Table:
        if "user_id" not in t.column_names or t.num_rows == 0:
            return empty
        g = t.group_by(["user_id"]).aggregate([([], "count_all")])
        member = pa.array(
            bloom_contains(words, g.column("user_id"), n_bits, kk)
        )
        return pa.table(
            {"user_id": g.column("user_id").cast(pa.int64()).filter(member),
             "n_part": g.column("count_all").cast(pa.int64()).filter(member)}
        )

    def semi_partition(pid: int, surv: pa.Table, qual: pa.Table) -> pa.Table:
        if (surv.num_rows == 0 or qual.num_rows == 0
                or "user_id" not in surv.column_names):
            return empty
        g = surv.group_by(["user_id"]).aggregate([("n_part", "sum")])
        keep = pc.is_in(g.column("user_id"),
                        value_set=qual.column("user_id").combine_chunks())
        g = g.filter(keep)
        return pa.table({"user_id": g.column("user_id").cast(pa.int64()),
                         "n_events": g.column("n_part_sum").cast(pa.int64())})

    out = gather_concat(exchange_reduce(
        [[survivor_partials.remote(r, bloom_ref) for r in base_refs],
         qual_refs],
        ["user_id", "user_id"], semi_partition,
    ))
    if out.num_rows == 0:
        return empty
    return finalize(out, [("user_id", "ascending")])


# ---- TPC-H Q4 (adapted): late-shipment order priority census ------------

_Q4_LATE_US = 90 * 86_400_000_000  # 90 days in µs


def q4_order_priority(sf_dir: str) -> pa.Table:
    """TPC-H Q4 shape (adapted to this lake's columns): count orders per
    priority having at least one lineitem shipped ≥ 90 days after the
    order date — the EXISTS-subquery pattern.

    The existence test has a one-row sufficient statistic: max
    l_shipdate per orderkey, so lineitem folds map-side to one partial
    row per (block, orderkey) BEFORE the exchange; the orderkey
    exchange completes the max, joins orders co-partitioned, applies
    the 90-day test as exact µs-integer arithmetic, and each partition
    emits ≤ 5 priority-count rows — the driver folds P×5 (the
    fixed-cardinality rule), never the orders."""
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    empty = pa.table({"o_orderpriority": pa.array([], pa.string()),
                      "order_count": pa.array([], pa.int64())})

    def lmax(t: pa.Table) -> pa.Table:
        if "l_orderkey" not in t.column_names or t.num_rows == 0:
            return pa.table({"l_orderkey": pa.array([], pa.int64()),
                             "max_ship": pa.array([], pa.timestamp("us"))})
        g = t.group_by(["l_orderkey"]).aggregate([("l_shipdate", "max")])
        return pa.table({"l_orderkey": g.column("l_orderkey").cast(pa.int64()),
                         "max_ship": g.column("l_shipdate_max")})

    def kernel(pid: int, lt: pa.Table, ot: pa.Table) -> pa.Table:
        if (ot.num_rows == 0 or lt.num_rows == 0
                or "o_orderkey" not in ot.column_names):
            return empty
        g = lt.group_by(["l_orderkey"]).aggregate([("max_ship", "max")])
        j = ot.join(g, keys=["o_orderkey"], right_keys=["l_orderkey"],
                    join_type="inner")
        ship = j.column("max_ship_max").to_numpy().astype("datetime64[us]")
        odate = j.column("o_orderdate").to_numpy().astype("datetime64[us]")
        late = ship.view(np.int64) >= odate.view(np.int64) + _Q4_LATE_US
        c = j.filter(pa.array(late)).group_by(["o_orderpriority"]).aggregate(
            [([], "count_all")]
        )
        return pa.table({"o_orderpriority": c.column("o_orderpriority"),
                         "order_count": c.column("count_all").cast(pa.int64())})

    line = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                           columns=["l_orderkey", "l_shipdate"])
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    )
    parts = gather_concat(exchange_reduce(
        [line.map_batches(lmax, batch_format="pyarrow"), orders],
        ["l_orderkey", "o_orderkey"], kernel,
    ))
    if parts.num_rows == 0:
        return empty
    g = parts.group_by(["o_orderpriority"]).aggregate([("order_count", "sum")])
    out = pa.table({"o_orderpriority": g.column("o_orderpriority"),
                    "order_count": g.column("order_count_sum").cast(pa.int64())})
    return finalize(out, [("o_orderpriority", "ascending")])


# ---- TPC-H Q10: returned-item revenue per customer -----------------------


def q10_returned_items(sf_dir: str, topn: int = 20) -> pa.Table:
    """TPC-H Q10 shape: the ``topn`` customers by revenue of RETURNED
    lineitems (l_returnflag = 'R'), enriched with customer and nation
    names.

    Revenue is exact 1e-4-dollar integers (the q1/q3 money rule; one
    final division for display). lineitem folds revenue per orderkey
    map-side, the orderkey exchange joins orders co-partitioned and
    re-keys to custkey partials, a SECOND exchange on custkey completes
    per-customer revenue and cuts its partition's top-``topn`` (a
    provable superset under the total (rev_u desc, custkey asc) order);
    the driver folds P×topn rows and resolves names by a FILTERED
    customer read (predicate pushdown on the ≤ topn keys) + the tiny
    nation table — names never enter the exchange."""
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    empty = pa.table({"c_custkey": pa.array([], pa.int64()),
                      "c_name": pa.array([], pa.string()),
                      "n_name": pa.array([], pa.string()),
                      "revenue": pa.array([], pa.float64())})

    def lrev(t: pa.Table) -> pa.Table:
        if "l_orderkey" not in t.column_names or t.num_rows == 0:
            return pa.table({"l_orderkey": pa.array([], pa.int64()),
                             "rev_u": pa.array([], pa.int64())})
        f = t.filter(pc.equal(t.column("l_returnflag"), "R"))
        rev = _cents(f.column("l_extendedprice")) * (
            100 - _cents(f.column("l_discount"))
        )
        pt = pa.table({"l_orderkey": f.column("l_orderkey").cast(pa.int64()),
                       "rev_u": pa.array(rev, pa.int64())})
        g = pt.group_by(["l_orderkey"]).aggregate([("rev_u", "sum")])
        return pa.table({"l_orderkey": g.column("l_orderkey"),
                         "rev_u": g.column("rev_u_sum").cast(pa.int64())})

    def order_kernel(pid: int, lt: pa.Table, ot: pa.Table) -> pa.Table:
        if (ot.num_rows == 0 or lt.num_rows == 0
                or "o_orderkey" not in ot.column_names):
            return pa.table({"c_custkey": pa.array([], pa.int64()),
                             "rev_u": pa.array([], pa.int64())})
        g = lt.group_by(["l_orderkey"]).aggregate([("rev_u", "sum")])
        j = g.join(ot, keys=["l_orderkey"], right_keys=["o_orderkey"],
                   join_type="inner")
        c = j.group_by(["o_custkey"]).aggregate([("rev_u_sum", "sum")])
        return pa.table(
            {"c_custkey": c.column("o_custkey").cast(pa.int64()),
             "rev_u": c.column("rev_u_sum_sum").cast(pa.int64())}
        )

    def cust_kernel(pid: int, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "c_custkey" not in t.column_names:
            return pa.table({"c_custkey": pa.array([], pa.int64()),
                             "rev_u": pa.array([], pa.int64())})
        g = t.group_by(["c_custkey"]).aggregate([("rev_u", "sum")])
        out = pa.table({"c_custkey": g.column("c_custkey"),
                        "rev_u": g.column("rev_u_sum").cast(pa.int64())})
        idx = pc.sort_indices(
            out, sort_keys=[("rev_u", "descending"), ("c_custkey", "ascending")]
        )
        return out.take(idx.slice(0, topn))

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_extendedprice",
                 "l_discount"],
    )
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_custkey"])
    per_cust = exchange_reduce(
        [line.map_batches(lrev, batch_format="pyarrow"), orders],
        ["l_orderkey", "o_orderkey"], order_kernel,
    )
    cand = gather_concat(exchange_reduce([per_cust], ["c_custkey"],
                                         cust_kernel))
    if cand.num_rows == 0:
        return empty
    idx = pc.sort_indices(
        cand, sort_keys=[("rev_u", "descending"), ("c_custkey", "ascending")]
    )
    top = cand.take(idx.slice(0, topn))
    keys = top.column("c_custkey").to_pylist()
    cust = ds_to_table(rd.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_nationkey"],
        filter=pc.field("c_custkey").isin(keys),
    ))
    nation = ds_to_table(rd.read_parquet(f"{sf_dir}/nation.parquet",
                                         columns=["n_nationkey", "n_name"]))
    j = top.join(cust, keys=["c_custkey"]).join(
        nation, keys=["c_nationkey"], right_keys=["n_nationkey"]
    )
    rev_u = j.column("rev_u").to_numpy()
    out = pa.table(
        {"c_custkey": j.column("c_custkey").cast(pa.int64()),
         "c_name": j.column("c_name"),
         "n_name": j.column("n_name"),
         "rev_u": j.column("rev_u"),
         "revenue": pa.array((rev_u // 100) / 100.0, pa.float64())}
    )
    out = finalize(out, [("rev_u", "descending"), ("c_custkey", "ascending")])
    return out.drop_columns(["rev_u"])


# ---- TPC-H Q6: forecast revenue change ----------------------------------

_Q6_LO = np.datetime64("1996-01-01", "us")
_Q6_HI = np.datetime64("1997-01-01", "us")


def q6_forecast_revenue(sf_dir: str) -> pa.Table:
    """TPC-H Q6 shape: revenue increase from dropping small discounts —
    SUM(extendedprice * discount) over one shipdate year, a discount
    band and a quantity cap.

    The cheapest query in the suite and the exemplar for predicate
    pushdown + driver-scalar folds: the shipdate window and quantity cap
    are pushed into the Parquet scan (only qualifying row groups leave
    storage), the discount band is one vectorized cents comparison per
    batch, and every block emits ONE partial row (rev_u, n) — the driver
    folds P scalars, no shuffle of any kind. Revenue is exact
    1e-4-dollar integers (price_c × disc_c), one display division at the
    end (the q1 money rule)."""
    rd = _rd()
    lo = pa.scalar(_Q6_LO, type=pa.timestamp("us"))
    hi = pa.scalar(_Q6_HI, type=pa.timestamp("us"))

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "l_discount" not in t.column_names:
            return pa.table({"rev_u": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        disc_c = _cents(t.column("l_discount"))
        keep = (disc_c >= 5) & (disc_c <= 7)
        price_c = _cents(t.column("l_extendedprice"))[keep]
        rev_u = int((price_c * disc_c[keep]).sum())
        return pa.table({"rev_u": pa.array([rev_u], pa.int64()),
                         "n": pa.array([int(keep.sum())], pa.int64())})

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_extendedprice", "l_discount"],
        filter=(pc.field("l_shipdate") >= lo) & (pc.field("l_shipdate") < hi)
        & (pc.field("l_quantity") < pa.scalar(24.0)),
    ).map_batches(partial, batch_format="pyarrow")
    parts = ds_to_table(ds)
    rev_u = int(pc.sum(parts.column("rev_u")).as_py() or 0)
    n = int(pc.sum(parts.column("n")).as_py() or 0)
    return pa.table({"revenue": pa.array([(rev_u // 100) / 100.0], pa.float64()),
                     "n_items": pa.array([n], pa.int64())})


# ---- TPC-H Q7: volume shipping between two nations -----------------------


def q7_volume_shipping(
    sf_dir: str, nation_a: str = "NATION_1", nation_b: str = "NATION_2"
) -> pa.Table:
    """TPC-H Q7 shape: shipped revenue between two nations per year, in
    both directions (supplier nation → customer nation).

    Three chained keyed exchanges, zero data-sized broadcasts: lineitem
    partials co-partition with the (nation-filtered) supplier table on
    suppkey, the result with orders on orderkey, and that with the
    (nation-filtered) customer table on custkey — each hop re-keys and
    re-combines, so what moves shrinks at every stage and nothing grows
    with total data size on the driver. Only the constant 25-row nation
    table is read driver-side (to resolve the two names). The final
    (supp_nation, cust_nation, year) aggregate is fixed-cardinality →
    P×small driver fold. Exact cents revenue, one display division."""
    import pyarrow.parquet as pq

    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    lo = pa.scalar(np.datetime64("1996-01-01", "us"), type=pa.timestamp("us"))
    hi = pa.scalar(np.datetime64("1998-01-01", "us"), type=pa.timestamp("us"))
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    name_by_key = dict(zip(nation.column("n_nationkey").to_pylist(),
                           nation.column("n_name").to_pylist()))
    keys = [k for k, v in name_by_key.items() if v in (nation_a, nation_b)]
    empty = pa.table({"supp_nation": pa.array([], pa.string()),
                      "cust_nation": pa.array([], pa.string()),
                      "l_year": pa.array([], pa.int64()),
                      "revenue": pa.array([], pa.float64())})
    if len(keys) < 2:
        return empty

    def li_partial(t: pa.Table) -> pa.Table:
        out_schema = {"l_suppkey": pa.array([], pa.int64()),
                      "l_orderkey": pa.array([], pa.int64()),
                      "l_year": pa.array([], pa.int64()),
                      "rev_u": pa.array([], pa.int64())}
        if t.num_rows == 0 or "l_shipdate" not in t.column_names:
            return pa.table(out_schema)
        ship = t.column("l_shipdate").combine_chunks().to_numpy(
            zero_copy_only=False
        ).astype("datetime64[us]")
        yr = ship.astype("datetime64[Y]").astype(np.int64) + 1970
        rev_u = _cents(t.column("l_extendedprice")) * (
            100 - _cents(t.column("l_discount"))
        )
        part = pa.table({"l_suppkey": t.column("l_suppkey").cast(pa.int64()),
                         "l_orderkey": t.column("l_orderkey").cast(pa.int64()),
                         "l_year": pa.array(yr, pa.int64()),
                         "rev_u": pa.array(rev_u, pa.int64())})
        g = part.group_by(["l_suppkey", "l_orderkey", "l_year"]).aggregate(
            [("rev_u", "sum")]
        )
        return g.rename_columns(["l_suppkey", "l_orderkey", "l_year", "rev_u"])

    def supp_kernel(pid: int, lt: pa.Table, st: pa.Table) -> pa.Table:
        if (lt.num_rows == 0 or st.num_rows == 0
                or "l_suppkey" not in lt.column_names):
            return pa.table({"l_orderkey": pa.array([], pa.int64()),
                             "supp_nk": pa.array([], pa.int32()),
                             "l_year": pa.array([], pa.int64()),
                             "rev_u": pa.array([], pa.int64())})
        j = lt.join(st, keys=["l_suppkey"], right_keys=["s_suppkey"],
                    join_type="inner")
        g = j.group_by(["l_orderkey", "s_nationkey", "l_year"]).aggregate(
            [("rev_u", "sum")]
        )
        return pa.table({"l_orderkey": g.column("l_orderkey"),
                         "supp_nk": g.column("s_nationkey").cast(pa.int32()),
                         "l_year": g.column("l_year"),
                         "rev_u": g.column("rev_u_sum").cast(pa.int64())})

    def order_kernel(pid: int, lt: pa.Table, ot: pa.Table) -> pa.Table:
        if (lt.num_rows == 0 or ot.num_rows == 0
                or "l_orderkey" not in lt.column_names):
            return pa.table({"o_custkey": pa.array([], pa.int64()),
                             "supp_nk": pa.array([], pa.int32()),
                             "l_year": pa.array([], pa.int64()),
                             "rev_u": pa.array([], pa.int64())})
        j = lt.join(ot, keys=["l_orderkey"], right_keys=["o_orderkey"],
                    join_type="inner")
        g = j.group_by(["o_custkey", "supp_nk", "l_year"]).aggregate(
            [("rev_u", "sum")]
        )
        return pa.table({"o_custkey": g.column("o_custkey").cast(pa.int64()),
                         "supp_nk": g.column("supp_nk"),
                         "l_year": g.column("l_year"),
                         "rev_u": g.column("rev_u_sum").cast(pa.int64())})

    def cust_kernel(pid: int, lt: pa.Table, ct: pa.Table) -> pa.Table:
        if (lt.num_rows == 0 or ct.num_rows == 0
                or "o_custkey" not in lt.column_names):
            return pa.table({"supp_nk": pa.array([], pa.int32()),
                             "cust_nk": pa.array([], pa.int32()),
                             "l_year": pa.array([], pa.int64()),
                             "rev_u": pa.array([], pa.int64())})
        j = lt.join(ct, keys=["o_custkey"], right_keys=["c_custkey"],
                    join_type="inner")
        # both directions, never same-nation traffic
        keep = pc.not_equal(j.column("supp_nk").cast(pa.int32()),
                            j.column("c_nationkey").cast(pa.int32()))
        j = j.filter(keep)
        g = j.group_by(["supp_nk", "c_nationkey", "l_year"]).aggregate(
            [("rev_u", "sum")]
        )
        return pa.table({"supp_nk": g.column("supp_nk").cast(pa.int32()),
                         "cust_nk": g.column("c_nationkey").cast(pa.int32()),
                         "l_year": g.column("l_year"),
                         "rev_u": g.column("rev_u_sum").cast(pa.int64())})

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount",
                 "l_shipdate"],
        filter=(pc.field("l_shipdate") >= lo) & (pc.field("l_shipdate") < hi),
    ).map_batches(li_partial, batch_format="pyarrow")
    supp = rd.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"],
        filter=pc.field("s_nationkey").isin(keys),
    )
    stage1 = exchange_reduce([li, supp], ["l_suppkey", "s_suppkey"],
                             supp_kernel, P=8)
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_custkey"])
    stage2 = exchange_reduce([stage1, orders], ["l_orderkey", "o_orderkey"],
                             order_kernel, P=8)
    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"],
        filter=pc.field("c_nationkey").isin(keys),
    )
    parts = gather_concat(exchange_reduce(
        [stage2, cust], ["o_custkey", "c_custkey"], cust_kernel, P=8
    ))
    if parts.num_rows == 0:
        return empty
    g = parts.group_by(["supp_nk", "cust_nk", "l_year"]).aggregate(
        [("rev_u", "sum")]
    )
    rev_u = g.column("rev_u_sum").to_numpy()
    out = pa.table(
        {"supp_nation": pa.array(
            [name_by_key[k] for k in g.column("supp_nk").to_pylist()]),
         "cust_nation": pa.array(
            [name_by_key[k] for k in g.column("cust_nk").to_pylist()]),
         "l_year": g.column("l_year"),
         "revenue": pa.array((rev_u // 100) / 100.0, pa.float64())}
    )
    return finalize(out, [("supp_nation", "ascending"),
                          ("cust_nation", "ascending"),
                          ("l_year", "ascending")])


# ---- TPC-H Q19: disjunctive-predicate discounted revenue ------------------

_Q19_RULES = (  # (brand, size_lo, size_hi, qty_lo, qty_hi)
    ("Brand#12", 1, 5, 1.0, 11.0),
    ("Brand#23", 1, 10, 10.0, 20.0),
    ("Brand#14", 1, 15, 20.0, 30.0),
)


def q19_disjunctive_revenue(sf_dir: str) -> pa.Table:
    """TPC-H Q19 shape: discounted revenue of lineitems matching a
    DISJUNCTION of (brand, part-size window, quantity window) rules —
    the or-of-ands predicate that defeats naive pushdown.

    The UNION of the per-rule windows still prunes the scan: quantity
    ∈ [min_lo, max_hi] pushes into the lineitem read and size/brand
    into the part read, so only candidate rows enter the exchange. The
    partkey exchange co-partitions the surviving lineitem partials with
    the part table and evaluates the exact disjunction vectorized per
    partition (numpy boolean algebra over brand codes × size × qty) —
    each partition emits one (rev_u, n) row; the driver folds P scalars.
    Exact cents revenue (the q1 money rule)."""
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    qty_lo = min(r[3] for r in _Q19_RULES)
    qty_hi = max(r[4] for r in _Q19_RULES)
    size_lo = min(r[1] for r in _Q19_RULES)
    size_hi = max(r[2] for r in _Q19_RULES)
    brands = [r[0] for r in _Q19_RULES]

    def li_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "l_partkey" not in t.column_names:
            return pa.table({"l_partkey": pa.array([], pa.int64()),
                             "l_quantity": pa.array([], pa.float64()),
                             "rev_u": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        rev_u = _cents(t.column("l_extendedprice")) * (
            100 - _cents(t.column("l_discount"))
        )
        part = pa.table({"l_partkey": t.column("l_partkey").cast(pa.int64()),
                         "l_quantity": t.column("l_quantity"),
                         "rev_u": pa.array(rev_u, pa.int64())})
        # the combine folds multiple lineitems of one (part, qty) into a
        # single partial row — carry the source-row count alongside the
        # revenue sum so n_items survives the combine
        g = part.group_by(["l_partkey", "l_quantity"]).aggregate(
            [("rev_u", "sum"), ([], "count_all")]
        )
        return pa.table({"l_partkey": g.column("l_partkey"),
                         "l_quantity": g.column("l_quantity"),
                         "rev_u": g.column("rev_u_sum").cast(pa.int64()),
                         "n": g.column("count_all").cast(pa.int64())})

    def kernel(pid: int, lt: pa.Table, pt: pa.Table) -> pa.Table:
        if (lt.num_rows == 0 or pt.num_rows == 0
                or "l_partkey" not in lt.column_names):
            return pa.table({"rev_u": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        j = lt.join(pt, keys=["l_partkey"], right_keys=["p_partkey"],
                    join_type="inner")
        brand = j.column("p_brand").to_numpy(zero_copy_only=False)
        size = j.column("p_size").to_numpy(zero_copy_only=False)
        qty = j.column("l_quantity").to_numpy(zero_copy_only=False)
        keep = np.zeros(len(brand), dtype=bool)
        for b, slo, shi, qlo, qhi in _Q19_RULES:
            keep |= ((brand == b) & (size >= slo) & (size <= shi)
                     & (qty >= qlo) & (qty <= qhi))
        rev = j.column("rev_u").to_numpy()[keep]
        n = j.column("n").to_numpy()[keep]
        return pa.table({"rev_u": pa.array([int(rev.sum())], pa.int64()),
                         "n": pa.array([int(n.sum())], pa.int64())})

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
        filter=(pc.field("l_quantity") >= pa.scalar(qty_lo))
        & (pc.field("l_quantity") <= pa.scalar(qty_hi)),
    ).map_batches(li_partial, batch_format="pyarrow")
    part = rd.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand", "p_size"],
        filter=(pc.field("p_size") >= size_lo) & (pc.field("p_size") <= size_hi)
        & (pc.field("p_brand").isin(brands)),
    )
    parts = gather_concat(exchange_reduce(
        [li, part], ["l_partkey", "p_partkey"], kernel, P=8
    ))
    rev_u = int(pc.sum(parts.column("rev_u")).as_py() or 0) if parts.num_rows else 0
    n = int(pc.sum(parts.column("n")).as_py() or 0) if parts.num_rows else 0
    return pa.table({"revenue": pa.array([(rev_u // 100) / 100.0], pa.float64()),
                     "n_items": pa.array([n], pa.int64())})


# ---- TPC-H Q8: national market share --------------------------------------


def q8_market_share(
    sf_dir: str, region: str = "ASIA", ptype: str = "PROMO",
    nation: str = "NATION_1",
) -> pa.Table:
    """TPC-H Q8 shape: ``nation``'s share of ``region``'s revenue for
    parts of ``ptype``, per order year — the widest join in the suite
    (lineitem ⋈ part ⋈ supplier ⋈ orders ⋈ customer ⋈ nation ⋈ region).

    Four chained keyed exchanges (partkey → suppkey → custkey →
    orderkey), no data-sized broadcast: part and customer enter the
    exchange pre-FILTERED from the scan (type / region-nation pushdown),
    supplier streams through its own hop, and the final (year ×
    supplier-nation) census is fixed-cardinality → P×small driver fold,
    where the share is one exact integer division (basis points of 1e-2,
    i.e. share_bp = 1e6 · nation_rev // total_rev — no float ratio).
    Only the constant nation/region tables are read driver-side."""
    import pyarrow.parquet as pq

    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    lo = pa.scalar(np.datetime64("1996-01-01", "us"), type=pa.timestamp("us"))
    hi = pa.scalar(np.datetime64("1998-01-01", "us"), type=pa.timestamp("us"))
    nat = pq.read_table(f"{sf_dir}/nation.parquet")
    reg = pq.read_table(f"{sf_dir}/region.parquet")
    rkeys = reg.filter(pc.equal(reg.column("r_name"), region)).column("r_regionkey")
    region_nk = nat.filter(
        pc.is_in(nat.column("n_regionkey"), value_set=rkeys)
    ).column("n_nationkey").to_pylist()
    target_nk = nat.filter(pc.equal(nat.column("n_name"), nation))
    empty = pa.table({"l_year": pa.array([], pa.int64()),
                      "mkt_share_bp": pa.array([], pa.int64()),
                      "nation_revenue": pa.array([], pa.float64()),
                      "total_revenue": pa.array([], pa.float64())})
    if target_nk.num_rows == 0 or not region_nk:
        return empty
    target = target_nk.column("n_nationkey").to_pylist()[0]

    def li_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "l_partkey" not in t.column_names:
            return pa.table({"l_partkey": pa.array([], pa.int64()),
                             "l_orderkey": pa.array([], pa.int64()),
                             "l_suppkey": pa.array([], pa.int64()),
                             "rev_u": pa.array([], pa.int64())})
        rev_u = _cents(t.column("l_extendedprice")) * (
            100 - _cents(t.column("l_discount"))
        )
        part = pa.table({"l_partkey": t.column("l_partkey").cast(pa.int64()),
                         "l_orderkey": t.column("l_orderkey").cast(pa.int64()),
                         "l_suppkey": t.column("l_suppkey").cast(pa.int64()),
                         "rev_u": pa.array(rev_u, pa.int64())})
        g = part.group_by(["l_partkey", "l_orderkey", "l_suppkey"]).aggregate(
            [("rev_u", "sum")]
        )
        return g.rename_columns(
            ["l_partkey", "l_orderkey", "l_suppkey", "rev_u"])

    def part_kernel(pid: int, lt: pa.Table, pt: pa.Table) -> pa.Table:
        if (lt.num_rows == 0 or pt.num_rows == 0
                or "l_partkey" not in lt.column_names):
            return pa.table({"l_orderkey": pa.array([], pa.int64()),
                             "l_suppkey": pa.array([], pa.int64()),
                             "rev_u": pa.array([], pa.int64())})
        j = lt.join(pt, keys=["l_partkey"], right_keys=["p_partkey"],
                    join_type="inner")
        g = j.group_by(["l_orderkey", "l_suppkey"]).aggregate([("rev_u", "sum")])
        return pa.table({"l_orderkey": g.column("l_orderkey"),
                         "l_suppkey": g.column("l_suppkey"),
                         "rev_u": g.column("rev_u_sum").cast(pa.int64())})

    def supp_kernel(pid: int, lt: pa.Table, st: pa.Table) -> pa.Table:
        if (lt.num_rows == 0 or st.num_rows == 0
                or "l_suppkey" not in lt.column_names):
            return pa.table({"l_orderkey": pa.array([], pa.int64()),
                             "s_nk": pa.array([], pa.int32()),
                             "rev_u": pa.array([], pa.int64())})
        j = lt.join(st, keys=["l_suppkey"], right_keys=["s_suppkey"],
                    join_type="inner")
        g = j.group_by(["l_orderkey", "s_nationkey"]).aggregate(
            [("rev_u", "sum")])
        return pa.table({"l_orderkey": g.column("l_orderkey"),
                         "s_nk": g.column("s_nationkey").cast(pa.int32()),
                         "rev_u": g.column("rev_u_sum").cast(pa.int64())})

    def cust_kernel(pid: int, ot: pa.Table, ct: pa.Table) -> pa.Table:
        if (ot.num_rows == 0 or ct.num_rows == 0
                or "o_custkey" not in ot.column_names):
            return pa.table({"o_orderkey": pa.array([], pa.int64()),
                             "l_year": pa.array([], pa.int64())})
        j = ot.join(ct, keys=["o_custkey"], right_keys=["c_custkey"],
                    join_type="inner")
        odate = j.column("o_orderdate").combine_chunks().to_numpy(
            zero_copy_only=False).astype("datetime64[us]")
        yr = odate.astype("datetime64[Y]").astype(np.int64) + 1970
        return pa.table({"o_orderkey": j.column("o_orderkey").cast(pa.int64()),
                         "l_year": pa.array(yr, pa.int64())})

    def order_kernel(pid: int, lt: pa.Table, ot: pa.Table) -> pa.Table:
        if (lt.num_rows == 0 or ot.num_rows == 0
                or "l_orderkey" not in lt.column_names):
            return pa.table({"l_year": pa.array([], pa.int64()),
                             "s_nk": pa.array([], pa.int32()),
                             "rev_u": pa.array([], pa.int64())})
        j = lt.join(ot, keys=["l_orderkey"], right_keys=["o_orderkey"],
                    join_type="inner")
        g = j.group_by(["l_year", "s_nk"]).aggregate([("rev_u", "sum")])
        return pa.table({"l_year": g.column("l_year"),
                         "s_nk": g.column("s_nk"),
                         "rev_u": g.column("rev_u_sum").cast(pa.int64())})

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_orderkey", "l_suppkey", "l_extendedprice",
                 "l_discount"],
    ).map_batches(li_partial, batch_format="pyarrow")
    part = rd.read_parquet(f"{sf_dir}/part.parquet",
                           columns=["p_partkey"],
                           filter=pc.field("p_type") == ptype)
    stage1 = exchange_reduce([li, part], ["l_partkey", "p_partkey"],
                             part_kernel, P=8)
    supp = rd.read_parquet(f"{sf_dir}/supplier.parquet",
                           columns=["s_suppkey", "s_nationkey"])
    stage2 = exchange_reduce([stage1, supp], ["l_suppkey", "s_suppkey"],
                             supp_kernel, P=8)
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(pc.field("o_orderdate") >= lo) & (pc.field("o_orderdate") < hi),
    )
    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"],
        filter=pc.field("c_nationkey").isin(region_nk),
    )
    ostage = exchange_reduce([orders, cust], ["o_custkey", "c_custkey"],
                             cust_kernel, P=8)
    parts = gather_concat(exchange_reduce(
        [stage2, ostage], ["l_orderkey", "o_orderkey"], order_kernel, P=8
    ))
    if parts.num_rows == 0:
        return empty
    g = parts.group_by(["l_year", "s_nk"]).aggregate([("rev_u", "sum")])
    yr = g.column("l_year").to_numpy()
    nk = g.column("s_nk").to_numpy()
    rev = g.column("rev_u_sum").to_numpy()
    years = np.unique(yr)
    nat_u = np.array([rev[(yr == y) & (nk == target)].sum() for y in years],
                     dtype=np.int64)
    tot_u = np.array([rev[yr == y].sum() for y in years], dtype=np.int64)
    out = pa.table(
        {"l_year": pa.array(years.astype(np.int64)),
         "mkt_share_bp": pa.array(
             1_000_000 * nat_u // np.maximum(tot_u, 1), pa.int64()),
         "nation_revenue": pa.array((nat_u // 100) / 100.0, pa.float64()),
         "total_revenue": pa.array((tot_u // 100) / 100.0, pa.float64())}
    )
    return finalize(out, [("l_year", "ascending")])


# ---- exact distributed order statistics (two-pass histogram refine) -------

_GQ_SHIFT = 26  # coarse bucket = 2^26 µs ≈ 67 s; ~24k buckets per 19-day span
_GQ_PS = (50, 90, 99)


def gap_quantiles(
    sf_dir: str, ps: tuple = _GQ_PS, P: int = 16, shift: int = _GQ_SHIFT
) -> pa.Table:
    """Exact P50/P90/P99 of same-type inter-event gaps (µs between a
    user's consecutive events of one type) per event type — latency/
    cadence SLO numbers over an UNBOUNDED integer domain, where the
    bounded-domain histogram fold (value_quantiles) can't apply.

    Two-pass distributed selection, never a global sort:

    1. the user-keyed exchange computes each partition's gaps (every
       (user, type) subsequence lives whole in one partition, so diffs
       are partition-local) and KEEPS them as P partition refs; a task
       wave folds per-partition coarse histograms over ``gap >> shift``
       — the driver sees O(P × types × occupied buckets) counts only;
    2. cumulative counts locate, for each (type, quantile), the one
       coarse bucket holding the k-th order statistic (k = ceil(p·n/100),
       the classic 1-indexed rank) and its within-bucket rank; a second
       task wave returns each partition's (gap, count) pairs for JUST
       the target buckets — compressed, so even a hot bucket ships at
       most its distinct values — and one driver merge reads the exact
       value off the cumulative counts.

    Scale note: occupied buckets ≤ time-span / 2^shift; widen ``shift``
    for corpora spanning years. Everything is exact int64 µs — no
    interpolation, bit-equal to the SQL ROW_NUMBER twin."""
    import ray

    from .exchange import exchange_reduce

    rd = _rd()
    empty = pa.table(
        {"event_type": pa.array([], pa.string())}
        | {f"p{p}_us": pa.array([], pa.int64()) for p in ps}
    )

    def gap_kernel(pid: int, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return pa.table({"event_type": pa.array([], pa.string()),
                             "gap": pa.array([], pa.int64())})
        ts = t.column("ts").combine_chunks().to_numpy(
            zero_copy_only=False).astype("datetime64[us]").view(np.int64)
        uid = t.column("user_id").to_numpy()
        eid = t.column("event_id").to_numpy()
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        # stable key order: (user, type, ts, event_id) — the SQL window
        codes, uniq = pd.factorize(et, sort=True)
        order = np.lexsort((eid, ts, codes, uid))
        u, c, v = uid[order], codes[order], ts[order]
        same = np.r_[False, (u[1:] == u[:-1]) & (c[1:] == c[:-1])]
        gap = np.where(same, v - np.r_[np.int64(0), v[:-1]], -1)
        keep = same
        return pa.table({"event_type": pa.array(uniq.take(c[keep])),
                         "gap": pa.array(gap[keep], pa.int64())})

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "ts", "user_id", "event_type"])
    gap_refs = exchange_reduce([ds], ["user_id"], gap_kernel, P=P)

    @ray.remote
    def hist_task(t: pa.Table, sh: int) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"event_type": pa.array([], pa.string()),
                             "bucket": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        b = t.column("gap").to_numpy() >> np.int64(sh)
        g = (t.append_column("bucket", pa.array(b, pa.int64()))
             .group_by(["event_type", "bucket"])
             .aggregate([([], "count_all")]))
        return pa.table({"event_type": g.column("event_type"),
                         "bucket": g.column("bucket"),
                         "n": g.column("count_all").cast(pa.int64())})

    @ray.remote
    def bucket_vals(t: pa.Table, wanted: dict, sh: int) -> pa.Table:
        out_empty = pa.table({"event_type": pa.array([], pa.string()),
                              "gap": pa.array([], pa.int64()),
                              "n": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return out_empty
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        gap = t.column("gap").to_numpy()
        b = gap >> np.int64(sh)
        keep = np.zeros(len(gap), dtype=bool)
        for typ, buckets in wanted.items():
            keep |= (et == typ) & np.isin(b, list(buckets))
        if not keep.any():
            return out_empty
        g = (t.filter(pa.array(keep)).group_by(["event_type", "gap"])
             .aggregate([([], "count_all")]))
        return pa.table({"event_type": g.column("event_type"),
                         "gap": g.column("gap"),
                         "n": g.column("count_all").cast(pa.int64())})

    hist = pa.concat_tables(ray.get([hist_task.remote(r, shift)
                                     for r in gap_refs]))
    if hist.num_rows == 0:
        return empty
    hist = (hist.group_by(["event_type", "bucket"]).aggregate([("n", "sum")])
            .rename_columns(["event_type", "bucket", "n"]))
    hdf = hist.to_pandas().sort_values(["event_type", "bucket"])

    # locate each (type, p)'s coarse bucket and within-bucket rank
    targets: dict[str, dict[int, list]] = {}
    wanted: dict[str, set] = {}
    for typ, grp in hdf.groupby("event_type", sort=True):
        n = int(grp["n"].sum())
        cum = grp["n"].cumsum().to_numpy()
        buckets = grp["bucket"].to_numpy()
        for p in ps:
            k = (p * n + 99) // 100  # ceil rank, 1-indexed
            i = int(np.searchsorted(cum, k))
            before = int(cum[i - 1]) if i else 0
            targets.setdefault(typ, {}).setdefault(
                int(buckets[i]), []).append((p, k - before))
            wanted.setdefault(typ, set()).add(int(buckets[i]))

    vals = pa.concat_tables(ray.get(
        [bucket_vals.remote(r, wanted, shift) for r in gap_refs]))
    vt = (vals.group_by(["event_type", "gap"]).aggregate([("n", "sum")])
          .rename_columns(["event_type", "gap", "n"]))
    vdf = vt.to_pandas().sort_values(["event_type", "gap"])

    rows: dict[str, dict[int, int]] = {}
    for typ, grp in vdf.groupby("event_type", sort=True):
        gaps = grp["gap"].to_numpy()
        cnts = grp["n"].to_numpy()
        bks = gaps >> np.int64(shift)
        for bucket, asks in targets[typ].items():
            m = bks == bucket
            bg, bc = gaps[m], np.cumsum(cnts[m])
            for p, r in asks:
                rows.setdefault(typ, {})[p] = int(bg[np.searchsorted(bc, r)])

    types = sorted(rows)
    out = pa.table(
        {"event_type": pa.array(types)}
        | {f"p{p}_us": pa.array([rows[t][p] for t in types], pa.int64())
           for p in ps}
    )
    return finalize(out, [("event_type", "ascending")])


# ---- TPC-H Q15: top supplier(s) by quarter revenue ------------------------


def q15_top_supplier(sf_dir: str) -> pa.Table:
    """TPC-H Q15 shape: the supplier(s) with MAXIMUM shipped revenue in
    one quarter — the argmax-with-ties pattern (the original's view +
    MAX subquery).

    lineitem folds (suppkey, rev_u) partials map-side; the suppkey
    exchange completes each supplier's total and each partition emits
    ONLY its rows tied at the partition max — a provable superset of
    the global argmax set, O(P × ties) to the driver, never O(suppliers).
    Winner names resolve via a pushdown supplier read on the ≤ few
    winning keys. Exact cents; one display division."""
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    lo = pa.scalar(np.datetime64("1996-01-01", "us"), type=pa.timestamp("us"))
    hi = pa.scalar(np.datetime64("1996-04-01", "us"), type=pa.timestamp("us"))
    empty = pa.table({"s_suppkey": pa.array([], pa.int64()),
                      "s_name": pa.array([], pa.string()),
                      "total_revenue": pa.array([], pa.float64())})

    def li_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "l_suppkey" not in t.column_names:
            return pa.table({"l_suppkey": pa.array([], pa.int64()),
                             "rev_u": pa.array([], pa.int64())})
        rev_u = _cents(t.column("l_extendedprice")) * (
            100 - _cents(t.column("l_discount"))
        )
        part = pa.table({"l_suppkey": t.column("l_suppkey").cast(pa.int64()),
                         "rev_u": pa.array(rev_u, pa.int64())})
        g = part.group_by(["l_suppkey"]).aggregate([("rev_u", "sum")])
        return g.rename_columns(["l_suppkey", "rev_u"])

    def argmax_kernel(pid: int, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "l_suppkey" not in t.column_names:
            return pa.table({"l_suppkey": pa.array([], pa.int64()),
                             "rev_u": pa.array([], pa.int64())})
        g = t.group_by(["l_suppkey"]).aggregate([("rev_u", "sum")])
        rev = g.column("rev_u_sum").to_numpy()
        keep = rev == rev.max()
        return pa.table({"l_suppkey": g.column("l_suppkey").filter(pa.array(keep)),
                         "rev_u": pa.array(rev[keep], pa.int64())})

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_extendedprice", "l_discount"],
        filter=(pc.field("l_shipdate") >= lo) & (pc.field("l_shipdate") < hi),
    ).map_batches(li_partial, batch_format="pyarrow")
    cand = gather_concat(exchange_reduce([li], ["l_suppkey"], argmax_kernel,
                                         P=8))
    if cand.num_rows == 0:
        return empty
    rev = cand.column("rev_u").to_numpy()
    win = cand.filter(pa.array(rev == rev.max()))
    keys = win.column("l_suppkey").to_pylist()
    supp = ds_to_table(rd.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"],
        filter=pc.field("s_suppkey").isin(keys),
    ))
    j = win.join(supp, keys=["l_suppkey"], right_keys=["s_suppkey"])
    ru = j.column("rev_u").to_numpy()
    out = pa.table({"s_suppkey": j.column("l_suppkey").cast(pa.int64()),
                    "s_name": j.column("s_name"),
                    "total_revenue": pa.array((ru // 100) / 100.0,
                                              pa.float64())})
    return finalize(out, [("s_suppkey", "ascending")])


# ---- customer spend deciles (CDF segmentation) ----------------------------

_CVD_SHIFT = 8  # coarse bucket = 256 cents; widen for heavier spend tails


def customer_value_deciles(sf_dir: str, shift: int = _CVD_SHIFT) -> pa.Table:
    """Customer value segmentation: every ordering customer assigned to
    a spend decile (0 = bottom, 9 = top) and the per-decile census
    (customers, total spend) — the "M" of an RFM profile, built without
    a global sort and without any per-customer driver structure.

    Decile semantics are threshold-based and exact: the nine cut
    points t_p (p = 10..90) are the k = ⌈p·n/100⌉-th order statistics
    of the per-customer spend distribution, found by the gap_quantiles
    two-pass selection (coarse histogram locate + single-bucket refine
    — `relational.py::gap_quantiles`, N118) over the SAME per-customer
    partition refs the custkey exchange produced; a customer's decile
    is the number of cut points strictly below their spend. Ties
    therefore land in one decile deterministically on both sides. A
    third task wave folds the 10-row census per partition — the driver
    only ever sees O(P × 10) rows and 9 thresholds."""
    import ray

    from .exchange import exchange_reduce

    rd = _rd()
    empty = pa.table({"decile": pa.array([], pa.int64()),
                      "n_customers": pa.array([], pa.int64()),
                      "total_spend": pa.array([], pa.float64())})

    def spend_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "o_custkey" not in t.column_names:
            return pa.table({"o_custkey": pa.array([], pa.int64()),
                             "spend_c": pa.array([], pa.int64())})
        part = pa.table({"o_custkey": t.column("o_custkey").cast(pa.int64()),
                         "spend_c": pa.array(_cents(t.column("o_totalprice")),
                                             pa.int64())})
        g = part.group_by(["o_custkey"]).aggregate([("spend_c", "sum")])
        return g.rename_columns(["o_custkey", "spend_c"])

    def spend_kernel(pid: int, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "o_custkey" not in t.column_names:
            return pa.table({"o_custkey": pa.array([], pa.int64()),
                             "spend_c": pa.array([], pa.int64())})
        g = t.group_by(["o_custkey"]).aggregate([("spend_c", "sum")])
        return g.rename_columns(["o_custkey", "spend_c"])

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    ).map_batches(spend_partial, batch_format="pyarrow")
    spend_refs = exchange_reduce([orders], ["o_custkey"], spend_kernel, P=16)

    @ray.remote
    def hist_task(t: pa.Table, sh: int) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"bucket": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        b = t.column("spend_c").to_numpy() >> np.int64(sh)
        u, c = np.unique(b, return_counts=True)
        return pa.table({"bucket": pa.array(u.astype(np.int64)),
                         "n": pa.array(c.astype(np.int64))})

    @ray.remote
    def bucket_vals(t: pa.Table, buckets: list, sh: int) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"spend_c": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        v = t.column("spend_c").to_numpy()
        keep = np.isin(v >> np.int64(sh), buckets)
        u, c = np.unique(v[keep], return_counts=True)
        return pa.table({"spend_c": pa.array(u.astype(np.int64)),
                         "n": pa.array(c.astype(np.int64))})

    hist = pa.concat_tables(ray.get(
        [hist_task.remote(r, shift) for r in spend_refs]))
    if hist.num_rows == 0:
        return empty
    h = (hist.group_by(["bucket"]).aggregate([("n", "sum")])
         .rename_columns(["bucket", "n"]).to_pandas().sort_values("bucket"))
    n = int(h["n"].sum())
    cum = h["n"].cumsum().to_numpy()
    buckets = h["bucket"].to_numpy()
    ks = [(p * n + 99) // 100 for p in range(10, 100, 10)]
    tb = {int(buckets[np.searchsorted(cum, k)]) for k in ks}

    vals = pa.concat_tables(ray.get(
        [bucket_vals.remote(r, sorted(tb), shift) for r in spend_refs]))
    vt = (vals.group_by(["spend_c"]).aggregate([("n", "sum")])
          .rename_columns(["spend_c", "n"]).to_pandas().sort_values("spend_c"))
    vv = vt["spend_c"].to_numpy()
    vb = vv >> np.int64(shift)
    vn = vt["n"].to_numpy()
    thresholds = []
    for k in ks:
        i = int(np.searchsorted(cum, k))
        before = int(cum[i - 1]) if i else 0
        m = vb == buckets[i]
        bc = np.cumsum(vn[m])
        thresholds.append(int(vv[m][np.searchsorted(bc, k - before)]))
    thr = np.array(thresholds, dtype=np.int64)
    thr_ref = ray.put(thr)

    @ray.remote
    def decile_fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"decile": pa.array([], pa.int64()),
                             "n_customers": pa.array([], pa.int64()),
                             "spend_c": pa.array([], pa.int64())})
        v = t.column("spend_c").to_numpy()
        d = np.searchsorted(ray.get(thr_ref), v, side="left").astype(np.int64)
        g = (pa.table({"decile": pa.array(d), "spend_c": t.column("spend_c")})
             .group_by(["decile"])
             .aggregate([([], "count_all"), ("spend_c", "sum")]))
        return pa.table({"decile": g.column("decile"),
                         "n_customers": g.column("count_all").cast(pa.int64()),
                         "spend_c": g.column("spend_c_sum").cast(pa.int64())})

    parts = pa.concat_tables(ray.get(
        [decile_fold.remote(r) for r in spend_refs]))
    g = parts.group_by(["decile"]).aggregate(
        [("n_customers", "sum"), ("spend_c", "sum")])
    out = pa.table(
        {"decile": g.column("decile"),
         "n_customers": g.column("n_customers_sum").cast(pa.int64()),
         "total_spend": pa.array(
             g.column("spend_c_sum").to_numpy() / 100.0, pa.float64())}
    )
    return finalize(out, [("decile", "ascending")])


# ---- per-type daily volume shifts -----------------------------------------

_US_PER_DAY = 86_400_000_000


def event_rate_shifts(sf_dir: str) -> pa.Table:
    """Per-type day-over-day event-volume deltas — the pipeline-health
    monitor that flags an ingest source going quiet or bursting: every
    (event_type, day) with its count and the signed change vs the
    previous OBSERVED day (first day = null).

    (type × day) is a fixed tiny cardinality for any horizon a
    monitoring query covers, so per-batch partials fold driver-side
    (the fold_partials rule) and the LAG is one vectorized shift over
    the sorted census — the result itself is the O(types × days)
    table."""
    from ._util import fold_partials

    rd = _rd()

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "ts" not in t.column_names:
            return pa.table({"event_type": pa.array([], pa.string()),
                             "day": pa.array([], pa.int64()),
                             "n_part": pa.array([], pa.int64())})
        ts = t.column("ts").combine_chunks().to_numpy(
            zero_copy_only=False).astype("datetime64[us]").view(np.int64)
        g = pa.table({"event_type": t.column("event_type"),
                      "day": pa.array(ts // _US_PER_DAY, pa.int64())}
                     ).group_by(["event_type", "day"]).aggregate(
                         [([], "count_all")])
        return g.rename_columns(["event_type", "day", "n_part"])

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "ts"])
    t = fold_partials(ds.map_batches(partial, batch_format="pyarrow"),
                      ["event_type", "day"], [("n_part", "sum")],
                      ["event_type", "day", "n_events"])
    if t.num_columns == 0 or t.num_rows == 0:
        return pa.table({"event_type": pa.array([], pa.string()),
                         "day": pa.array([], pa.int64()),
                         "n_events": pa.array([], pa.int64()),
                         "delta": pa.array([], pa.int64())})
    t = t.take(pc.sort_indices(t, sort_keys=[("event_type", "ascending"),
                                             ("day", "ascending")]))
    et = t.column("event_type").to_numpy(zero_copy_only=False)
    n = t.column("n_events").to_numpy().astype(np.int64)
    same = np.r_[False, et[1:] == et[:-1]]
    delta = n - np.r_[np.int64(0), n[:-1]]
    return pa.table({"event_type": t.column("event_type"),
                     "day": t.column("day"),
                     "n_events": pa.array(n, pa.int64()),
                     "delta": pa.array(
                         [int(d) if s else None
                          for d, s in zip(delta, same)], pa.int64())})


# ---- TPC-H Q13: customer order-count distribution -------------------------


def q13_custdist(sf_dir: str) -> pa.Table:
    """TPC-H Q13 shape: how many customers placed exactly N orders,
    INCLUDING the zero-order customers the left join exists for.

    One custkey exchange co-partitions the full customer key column
    with per-batch (custkey, n_orders) partials; each partition
    completes its customers' counts (absent on the orders side = 0) and
    folds them to a (c_count, n) histogram — the driver sees
    P × distinct-counts rows, never a per-customer table."""
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    empty = pa.table({"c_count": pa.array([], pa.int64()),
                      "custdist": pa.array([], pa.int64())})

    def o_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "o_custkey" not in t.column_names:
            return pa.table({"o_custkey": pa.array([], pa.int64()),
                             "n_ord": pa.array([], pa.int64())})
        g = t.group_by(["o_custkey"]).aggregate([([], "count_all")])
        return pa.table({"o_custkey": g.column("o_custkey").cast(pa.int64()),
                         "n_ord": g.column("count_all").cast(pa.int64())})

    def hist_kernel(pid: int, ct: pa.Table, ot: pa.Table) -> pa.Table:
        if ct.num_rows == 0 or "c_custkey" not in ct.column_names:
            return empty
        if ot.num_rows and "o_custkey" in ot.column_names:
            og = ot.group_by(["o_custkey"]).aggregate([("n_ord", "sum")])
            j = ct.join(og, keys=["c_custkey"], right_keys=["o_custkey"],
                        join_type="left outer")
            n = j.column("n_ord_sum").fill_null(0).to_numpy()
        else:
            n = np.zeros(ct.num_rows, dtype=np.int64)
        u, c = np.unique(n, return_counts=True)
        return pa.table({"c_count": pa.array(u.astype(np.int64)),
                         "custdist": pa.array(c.astype(np.int64))})

    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey"])
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"]
    ).map_batches(o_partial, batch_format="pyarrow")
    parts = gather_concat(exchange_reduce(
        [cust, orders], ["c_custkey", "o_custkey"], hist_kernel, P=8
    ))
    if parts.num_rows == 0:
        return empty
    g = parts.group_by(["c_count"]).aggregate([("custdist", "sum")])
    out = pa.table({"c_count": g.column("c_count"),
                    "custdist": g.column("custdist_sum").cast(pa.int64())})
    return finalize(out, [("custdist", "descending"), ("c_count", "descending")])


# ---- TPC-H Q17: small-quantity order revenue ------------------------------


def q17_small_quantity(
    sf_dir: str, brand: str = "Brand#13", ptype: str = "SMALL"
) -> pa.Table:
    """TPC-H Q17 shape: yearly revenue lost if small-quantity orders
    (below 20% of a part's average order quantity) were not filled —
    the correlated-average subquery.

    The candidate part set (one brand × one type) is a tiny slice of
    the part table, so a BLOOM filter of its keys (the shared
    `pipelines/bloom.py` kernels — O(bits) on the driver, never the
    keys) prunes lineitem map-side before the exchange; the partkey
    exchange then joins the exact filtered part table co-partitioned
    (bloom false positives die here), and each partition evaluates the
    correlated test in exact integers — qty_c·5·n < Σqty_c per part —
    and emits one revenue scalar. avg_yearly = (Σ price_c ÷ 7) floored
    to cents, one display division."""
    import ray

    from .bloom import bloom_contains, build_bloom_distributed
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    part_ds = rd.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey"],
        filter=(pc.field("p_brand") == brand) & (pc.field("p_type") == ptype),
    )
    part_refs = arrow_refs(part_ds)
    n_cand = sum(ray.get([_nrows_remote().remote(r) for r in part_refs]))
    empty = pa.table({"avg_yearly": pa.array([], pa.float64()),
                      "n_items": pa.array([], pa.int64())})
    if n_cand == 0:
        return pa.table({"avg_yearly": pa.array([0.0], pa.float64()),
                         "n_items": pa.array([0], pa.int64())})
    words, n_bits, kk = build_bloom_distributed(part_refs, "p_partkey", n_cand)
    w_ref = ray.put(words)

    def li_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "l_partkey" not in t.column_names:
            return pa.table({"l_partkey": pa.array([], pa.int64()),
                             "qty_c": pa.array([], pa.int64()),
                             "price_c": pa.array([], pa.int64())})
        keep = bloom_contains(ray.get(w_ref), t.column("l_partkey"),
                              n_bits, kk)
        t = t.filter(pa.array(keep))
        return pa.table({"l_partkey": t.column("l_partkey").cast(pa.int64()),
                         "qty_c": pa.array(_cents(t.column("l_quantity")),
                                           pa.int64()),
                         "price_c": pa.array(
                             _cents(t.column("l_extendedprice")), pa.int64())})

    def kernel(pid: int, lt: pa.Table, pt: pa.Table) -> pa.Table:
        if (lt.num_rows == 0 or pt.num_rows == 0
                or "l_partkey" not in lt.column_names):
            return pa.table({"rev_c": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        j = lt.join(pt, keys=["l_partkey"], right_keys=["p_partkey"],
                    join_type="inner")
        pk = j.column("l_partkey").to_numpy()
        qty = j.column("qty_c").to_numpy()
        price = j.column("price_c").to_numpy()
        order = np.argsort(pk, kind="stable")
        pk, qty, price = pk[order], qty[order], price[order]
        starts = np.flatnonzero(np.r_[True, pk[1:] != pk[:-1]])
        counts = np.diff(np.r_[starts, len(pk)])
        sums = np.add.reduceat(qty, starts)
        n_rep = np.repeat(counts, counts)
        s_rep = np.repeat(sums, counts)
        small = qty * 5 * n_rep < s_rep
        return pa.table({"rev_c": pa.array([int(price[small].sum())],
                                           pa.int64()),
                         "n": pa.array([int(small.sum())], pa.int64())})

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice"],
    ).map_batches(li_partial, batch_format="pyarrow")
    parts = gather_concat(exchange_reduce(
        [li, part_ds], ["l_partkey", "p_partkey"], kernel, P=8
    ))
    rev_c = int(pc.sum(parts.column("rev_c")).as_py() or 0) if parts.num_rows else 0
    n = int(pc.sum(parts.column("n")).as_py() or 0) if parts.num_rows else 0
    return pa.table({"avg_yearly": pa.array([(rev_c // 7) / 100.0],
                                            pa.float64()),
                     "n_items": pa.array([n], pa.int64())})


_NROWS_REMOTE = None


def _nrows_remote():
    global _NROWS_REMOTE
    if _NROWS_REMOTE is None:
        import ray

        @ray.remote
        def nrows(t: pa.Table) -> int:
            return t.num_rows

        _NROWS_REMOTE = nrows
    return _NROWS_REMOTE


# ---- TPC-H Q22: wealthy inactive customers by nation ----------------------


def q22_wealthy_inactive(sf_dir: str) -> pa.Table:
    """TPC-H Q22 shape (nation standing in for the phone country code):
    customers with above-average positive account balance who never
    ordered, counted per nation with their total balance.

    Pass 1 folds the positive-balance (Σ, n) scalars per block (driver
    folds P rows); the above-average test is the exact integer cross
    product acctbal_c · n > Σ_c — no float average exists anywhere.
    Pass 2 co-partitions the pre-filtered wealthy customers with the
    orders key column on custkey; each partition anti-joins (customers
    with NO order rows) and folds a per-nation (count, Σ balance)
    census — P × 25 rows to the driver."""
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    empty = pa.table({"c_nationkey": pa.array([], pa.int32()),
                      "numcust": pa.array([], pa.int64()),
                      "totacctbal": pa.array([], pa.float64())})

    def bal_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "c_acctbal" not in t.column_names:
            return pa.table({"s": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        bal = _cents(t.column("c_acctbal"))
        pos = bal[bal > 0]
        return pa.table({"s": pa.array([int(pos.sum())], pa.int64()),
                         "n": pa.array([int(len(pos))], pa.int64())})

    cust_cols = ["c_custkey", "c_nationkey", "c_acctbal"]
    bal = ds_to_table(rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_acctbal"]
    ).map_batches(bal_partial, batch_format="pyarrow"))
    s_c = int(pc.sum(bal.column("s")).as_py() or 0) if bal.num_rows else 0
    n_c = int(pc.sum(bal.column("n")).as_py() or 0) if bal.num_rows else 0
    if n_c == 0:
        return empty

    def wealthy(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "c_acctbal" not in t.column_names:
            return pa.table({"c_custkey": pa.array([], pa.int64()),
                             "c_nationkey": pa.array([], pa.int32()),
                             "bal_c": pa.array([], pa.int64())})
        bal_c = _cents(t.column("c_acctbal"))
        keep = bal_c * n_c > s_c
        t = t.filter(pa.array(keep))
        return pa.table({"c_custkey": t.column("c_custkey").cast(pa.int64()),
                         "c_nationkey": t.column("c_nationkey").cast(pa.int32()),
                         "bal_c": pa.array(bal_c[keep], pa.int64())})

    def anti_kernel(pid: int, ct: pa.Table, ot: pa.Table) -> pa.Table:
        if ct.num_rows == 0 or "c_custkey" not in ct.column_names:
            return pa.table({"c_nationkey": pa.array([], pa.int32()),
                             "numcust": pa.array([], pa.int64()),
                             "bal_c": pa.array([], pa.int64())})
        if ot.num_rows and "o_custkey" in ot.column_names:
            ok = ot.column("o_custkey").to_numpy()
            keep = ~np.isin(ct.column("c_custkey").to_numpy(), ok)
            ct = ct.filter(pa.array(keep))
        g = ct.group_by(["c_nationkey"]).aggregate(
            [([], "count_all"), ("bal_c", "sum")])
        return pa.table({"c_nationkey": g.column("c_nationkey").cast(pa.int32()),
                         "numcust": g.column("count_all").cast(pa.int64()),
                         "bal_c": g.column("bal_c_sum").cast(pa.int64())})

    cust = rd.read_parquet(f"{sf_dir}/customer.parquet", columns=cust_cols
                           ).map_batches(wealthy, batch_format="pyarrow")
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey"])
    parts = gather_concat(exchange_reduce(
        [cust, orders], ["c_custkey", "o_custkey"], anti_kernel, P=8
    ))
    if parts.num_rows == 0:
        return empty
    g = parts.group_by(["c_nationkey"]).aggregate(
        [("numcust", "sum"), ("bal_c", "sum")])
    out = pa.table(
        {"c_nationkey": g.column("c_nationkey").cast(pa.int32()),
         "numcust": g.column("numcust_sum").cast(pa.int64()),
         "totacctbal": pa.array(g.column("bal_c_sum").to_numpy() / 100.0,
                                pa.float64())}
    )
    return finalize(out, [("c_nationkey", "ascending")])


# ---- order fill-latency histogram -----------------------------------------


def orders_fill_latency(sf_dir: str) -> pa.Table:
    """Order-to-first-shipment latency histogram (whole days) — the
    fulfilment SLO profile: how many orders shipped their first lineitem
    after exactly N days. Orders with no lineitems don't appear.

    The q4 sufficient-statistic shape with MIN instead of MAX: lineitem
    folds min(l_shipdate) per orderkey map-side, the orderkey exchange
    joins orders co-partitioned, the day difference is exact µs-integer
    floor division and each partition folds its own (latency_days, n)
    histogram — P × distinct-latencies rows to the driver."""
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    empty = pa.table({"latency_days": pa.array([], pa.int64()),
                      "n_orders": pa.array([], pa.int64())})

    def lmin(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "l_orderkey" not in t.column_names:
            return pa.table({"l_orderkey": pa.array([], pa.int64()),
                             "first_ship": pa.array([], pa.timestamp("us"))})
        g = t.group_by(["l_orderkey"]).aggregate([("l_shipdate", "min")])
        return pa.table({"l_orderkey": g.column("l_orderkey").cast(pa.int64()),
                         "first_ship": g.column("l_shipdate_min")})

    def kernel(pid: int, lt: pa.Table, ot: pa.Table) -> pa.Table:
        if (lt.num_rows == 0 or ot.num_rows == 0
                or "l_orderkey" not in lt.column_names):
            return empty
        g = lt.group_by(["l_orderkey"]).aggregate([("first_ship", "min")])
        j = g.join(ot, keys=["l_orderkey"], right_keys=["o_orderkey"],
                   join_type="inner")
        ship = j.column("first_ship_min").combine_chunks().to_numpy(
            zero_copy_only=False).astype("datetime64[us]").view(np.int64)
        odate = j.column("o_orderdate").combine_chunks().to_numpy(
            zero_copy_only=False).astype("datetime64[us]").view(np.int64)
        days = (ship - odate) // _US_PER_DAY
        u, c = np.unique(days, return_counts=True)
        return pa.table({"latency_days": pa.array(u.astype(np.int64)),
                         "n_orders": pa.array(c.astype(np.int64))})

    line = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                           columns=["l_orderkey", "l_shipdate"]
                           ).map_batches(lmin, batch_format="pyarrow")
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_orderdate"])
    parts = gather_concat(exchange_reduce(
        [line, orders], ["l_orderkey", "o_orderkey"], kernel, P=8
    ))
    if parts.num_rows == 0:
        return empty
    g = parts.group_by(["latency_days"]).aggregate([("n_orders", "sum")])
    out = pa.table({"latency_days": g.column("latency_days"),
                    "n_orders": g.column("n_orders_sum").cast(pa.int64())})
    return finalize(out, [("latency_days", "ascending")])


# ---- day-of-week × hour activity heatmap -----------------------------------


def events_hour_heatmap(sf_dir: str) -> pa.Table:
    """Corpus-wide (day-of-week × hour-of-day) activity matrix — the
    traffic-shape fingerprint (batch jobs vs human diurnal load) that
    sizes ingestion capacity windows. 168 output rows at any scale:
    per-batch combine + driver fold (the fold_partials rule); dow/hour
    derive from epoch µs in pure integer arithmetic (epoch day 0 =
    Thursday, so dow = (days + 4) % 7 with Sunday = 0 — mirrored
    exactly by the SQL twin)."""
    from ._util import fold_partials

    rd = _rd()

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "ts" not in t.column_names:
            return pa.table({"dow": pa.array([], pa.int64()),
                             "hour": pa.array([], pa.int64()),
                             "n_part": pa.array([], pa.int64())})
        ts = t.column("ts").combine_chunks().to_numpy(
            zero_copy_only=False).astype("datetime64[us]").view(np.int64)
        days = ts // _US_PER_DAY
        g = pa.table({
            "dow": pa.array((days + 4) % 7, pa.int64()),
            "hour": pa.array((ts // _US_PER_HOUR) % 24, pa.int64()),
        }).group_by(["dow", "hour"]).aggregate([([], "count_all")])
        return g.rename_columns(["dow", "hour", "n_part"])

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])
    t = fold_partials(ds.map_batches(partial, batch_format="pyarrow"),
                      ["dow", "hour"], [("n_part", "sum")],
                      ["dow", "hour", "n_events"])
    if t.num_columns == 0:
        return pa.table({"dow": pa.array([], pa.int64()),
                         "hour": pa.array([], pa.int64()),
                         "n_events": pa.array([], pa.int64())})
    t = t.set_column(t.column_names.index("n_events"), "n_events",
                     t.column("n_events").cast(pa.int64()))
    return finalize(t, [("dow", "ascending"), ("hour", "ascending")])


# ---- signup → purchase conversion latency ---------------------------------


def conversion_latency(sf_dir: str, shift: int = _GQ_SHIFT) -> pa.Table:
    """Funnel timing: of the users who ever signed up, how many later
    purchased, and the exact P50/P90 of their first-signup →
    first-subsequent-purchase latency (µs) — the conversion SLO the
    events stream exists to answer.

    One user-keyed exchange computes each partition's per-user outcome
    row (first signup, first purchase at-or-after it; every user's
    events co-locate so both MINs are partition-complete) and KEEPS the
    outcome tables as refs; the N118 two-pass selection (coarse
    histogram locate + single-bucket compressed refine) then reads the
    converted users' latencies off those refs — no global sort, no
    driver latency array. Unconverted signups ride the same rows with
    latency −1 so the funnel counts fold from the identical refs."""
    import ray

    from .exchange import exchange_reduce

    rd = _rd()

    def kernel(pid: int, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return pa.table({"lat": pa.array([], pa.int64())})
        ts = t.column("ts").combine_chunks().to_numpy(
            zero_copy_only=False).astype("datetime64[us]").view(np.int64)
        uid = t.column("user_id").to_numpy()
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        su = et == "signup"
        pu = et == "purchase"
        # first signup per user
        order = np.lexsort((ts[su], uid[su]))
        u_s, first_idx = np.unique(uid[su][order], return_index=True)
        if len(u_s) == 0:  # partition holds purchases but no signups
            return pa.table({"lat": pa.array([], pa.int64())})
        s_ts = ts[su][order][first_idx]
        # first purchase AT-OR-AFTER the user's first signup
        pu_uid, pu_ts = uid[pu], ts[pu]
        pos = np.searchsorted(u_s, pu_uid)
        valid = (pos < len(u_s)) & (u_s[np.minimum(pos, len(u_s) - 1)] == pu_uid)
        ok = valid & (pu_ts >= s_ts[np.minimum(pos, len(u_s) - 1)])
        lat = np.full(len(u_s), -1, np.int64)
        if ok.any():
            order_p = np.lexsort((pu_ts[ok], pu_uid[ok]))
            u_p, fp = np.unique(pu_uid[ok][order_p], return_index=True)
            p_ts = pu_ts[ok][order_p][fp]
            at = np.searchsorted(u_s, u_p)
            lat[at] = p_ts - s_ts[at]
        return pa.table({"lat": pa.array(lat, pa.int64())})

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type"],
        filter=pc.field("event_type").isin(["signup", "purchase"]),
    )
    refs = exchange_reduce([ds], ["user_id"], kernel, P=16)

    @ray.remote
    def hist_task(t: pa.Table, sh: int) -> pa.Table:
        """Bucket rows for converted users plus ONE bucket=-1 meta row
        carrying the partition's signup-user count."""
        lat = (t.column("lat").to_numpy()
               if t.num_rows and "lat" in t.column_names
               else np.array([], np.int64))
        conv = lat[lat >= 0]
        u, c = np.unique(conv >> np.int64(sh), return_counts=True)
        return pa.table({
            "bucket": pa.array(np.r_[u.astype(np.int64), np.int64(-1)]),
            "n": pa.array(np.r_[c.astype(np.int64), np.int64(len(lat))]),
        })

    @ray.remote
    def bucket_vals(t: pa.Table, buckets: list, sh: int) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"lat": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        lat = t.column("lat").to_numpy()
        conv = lat[lat >= 0]
        keep = np.isin(conv >> np.int64(sh), buckets)
        u, c = np.unique(conv[keep], return_counts=True)
        return pa.table({"lat": pa.array(u.astype(np.int64)),
                         "n": pa.array(c.astype(np.int64))})

    allh = pa.concat_tables(ray.get([hist_task.remote(r, shift)
                                     for r in refs]))
    meta = pc.equal(allh.column("bucket"), -1)
    n_signup = int(pc.sum(allh.filter(meta).column("n")).as_py() or 0)
    hist = allh.filter(pc.invert(meta))
    out_cols = {"n_signup_users": pa.array([n_signup], pa.int64())}
    if hist.num_rows == 0:
        return pa.table(out_cols | {
            "n_converted": pa.array([0], pa.int64()),
            "p50_us": pa.array([None], pa.int64()),
            "p90_us": pa.array([None], pa.int64())})
    h = (hist.group_by(["bucket"]).aggregate([("n", "sum")])
         .rename_columns(["bucket", "n"]).to_pandas().sort_values("bucket"))
    n_conv = int(h["n"].sum())
    cum = h["n"].cumsum().to_numpy()
    buckets = h["bucket"].to_numpy()
    ks = {p: (p * n_conv + 99) // 100 for p in (50, 90)}
    tb = sorted({int(buckets[np.searchsorted(cum, k)]) for k in ks.values()})
    vals = pa.concat_tables(ray.get(
        [bucket_vals.remote(r, tb, shift) for r in refs]))
    vt = (vals.group_by(["lat"]).aggregate([("n", "sum")])
          .rename_columns(["lat", "n"]).to_pandas().sort_values("lat"))
    vv = vt["lat"].to_numpy()
    vb = vv >> np.int64(shift)
    vn = vt["n"].to_numpy()
    q = {}
    for p, k in ks.items():
        i = int(np.searchsorted(cum, k))
        before = int(cum[i - 1]) if i else 0
        m = vb == buckets[i]
        bc = np.cumsum(vn[m])
        q[p] = int(vv[m][np.searchsorted(bc, k - before)])
    return pa.table(out_cols | {
        "n_converted": pa.array([n_conv], pa.int64()),
        "p50_us": pa.array([q[50]], pa.int64()),
        "p90_us": pa.array([q[90]], pa.int64())})


# ---- part order-volume concentration --------------------------------------


def part_concentration(sf_dir: str, p: int = 99) -> pa.Table:
    """Order-volume skew profile: how much of lineitem volume the
    hottest parts hold — the catalogue's hot-key fingerprint (the same
    shape that decides whether a partkey exchange needs salting).

    The partkey exchange completes each part's lineitem count and KEEPS
    the per-partition count tables as refs; the N118 selection finds the
    exact P``p`` per-part-count cut point over those refs (counts are
    small ints — shift 0, the histogram IS exact); a second wave folds
    each partition's (parts, volume) above/at/below the cut — strictly-
    above vs tied-at-cut reported separately so the census is
    tie-deterministic on both sides. All exact integers."""
    import ray

    from .exchange import exchange_reduce

    rd = _rd()
    empty = pa.table({"cut_count": pa.array([], pa.int64()),
                      "n_parts": pa.array([], pa.int64()),
                      "n_above": pa.array([], pa.int64()),
                      "n_at": pa.array([], pa.int64()),
                      "mass_above_bp": pa.array([], pa.int64()),
                      "mass_at_bp": pa.array([], pa.int64())})

    def count_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "l_partkey" not in t.column_names:
            return pa.table({"l_partkey": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        g = t.group_by(["l_partkey"]).aggregate([([], "count_all")])
        return pa.table({"l_partkey": g.column("l_partkey").cast(pa.int64()),
                         "n": g.column("count_all").cast(pa.int64())})

    def count_kernel(pid: int, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "l_partkey" not in t.column_names:
            return pa.table({"l_partkey": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        g = t.group_by(["l_partkey"]).aggregate([("n", "sum")])
        return g.rename_columns(["l_partkey", "n"])

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_partkey"]
                         ).map_batches(count_partial, batch_format="pyarrow")
    refs = exchange_reduce([li], ["l_partkey"], count_kernel, P=16)

    @ray.remote
    def hist_task(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"c": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        u, c = np.unique(t.column("n").to_numpy(), return_counts=True)
        return pa.table({"c": pa.array(u.astype(np.int64)),
                         "n": pa.array(c.astype(np.int64))})

    hist = pa.concat_tables(ray.get([hist_task.remote(r) for r in refs]))
    if hist.num_rows == 0:
        return empty
    h = (hist.group_by(["c"]).aggregate([("n", "sum")])
         .rename_columns(["c", "n"]).to_pandas().sort_values("c"))
    n_parts = int(h["n"].sum())
    total_mass = int((h["c"] * h["n"]).sum())
    cum = h["n"].cumsum().to_numpy()
    k = (p * n_parts + 99) // 100
    cut = int(h["c"].to_numpy()[np.searchsorted(cum, k)])
    above = h[h["c"] > cut]
    at = h[h["c"] == cut]
    n_above = int(above["n"].sum())
    n_at = int(at["n"].sum())
    m_above = int((above["c"] * above["n"]).sum())
    m_at = int((at["c"] * at["n"]).sum())
    return pa.table({
        "cut_count": pa.array([cut], pa.int64()),
        "n_parts": pa.array([n_parts], pa.int64()),
        "n_above": pa.array([n_above], pa.int64()),
        "n_at": pa.array([n_at], pa.int64()),
        "mass_above_bp": pa.array(
            [10_000 * m_above // max(total_mass, 1)], pa.int64()),
        "mass_at_bp": pa.array(
            [10_000 * m_at // max(total_mass, 1)], pa.int64()),
    })


_SESSION_GAP_US = 30 * 60 * 1_000_000
_US_PER_DAY_I = 86_400_000_000


def _session_points_partition(pid: int, t: pa.Table) -> pa.Table:
    """Per user-hash partition: sessionize (30-minute gap, the
    sessionize_users contract) and emit the sweep-line POINT table —
    per distinct timestamp, how many sessions start (ns) and end (ne)
    there. A user's events are partition-complete, so session bounds
    close locally; only O(sessions) boundary points leave the kernel."""
    empty = pa.table({"t": pa.array([], pa.int64()),
                      "ns": pa.array([], pa.int64()),
                      "ne": pa.array([], pa.int64())})
    if t.num_rows == 0 or "user_id" not in t.column_names:
        return empty
    u = t.column("user_id").to_numpy()
    ts = t.column("ts").to_numpy().astype(np.int64)
    order = np.lexsort((ts, u))
    u, ts = u[order], ts[order]
    new = np.r_[True, (u[1:] != u[:-1]) | ((ts[1:] - ts[:-1]) > _SESSION_GAP_US)]
    starts_idx = np.flatnonzero(new)
    st = ts[starts_idx]
    en = ts[np.r_[starts_idx[1:] - 1, len(ts) - 1]]
    pts = np.concatenate([st, en])
    is_start = np.concatenate(
        [np.ones(len(st), np.int64), np.zeros(len(en), np.int64)]
    )
    uq, inv = np.unique(pts, return_inverse=True)
    ns = np.bincount(inv, weights=is_start).astype(np.int64)
    ne = np.bincount(inv, weights=1 - is_start).astype(np.int64)
    return pa.table({"t": pa.array(uq, pa.int64()),
                     "ns": pa.array(ns, pa.int64()),
                     "ne": pa.array(ne, pa.int64())})


def peak_concurrency(sf_dir: str, P: int = 16) -> pa.Table:
    """Per-day peak number of concurrent user sessions — the
    distributed SWEEP-LINE / global-ordered-scan shape (max concurrent
    connections, room occupancy, live-stream viewers).

    concurrency(t) = #sessions with start <= t AND end >= t, evaluated
    at every boundary timestamp t; per day we report the max and the
    FIRST timestamp achieving it. Evaluating at distinct-ts granularity
    (starts counted <= t, ends counted < t) makes the scan independent
    of any within-timestamp event order — no tie ambiguity on either
    engine or oracle side.

    Shape: (1) user-keyed exchange -> per-partition session boundary
    points (O(sessions) rows, aggregated per ts); (2) the shared
    :func:`_sweep_day_peaks` scan (RANGE partition by ts, bucket-local
    cumsums, driver-side EXCLUSIVE PREFIX CARRY over P bucket totals —
    P ints, never rows). No stage ever materializes the scan."""
    from .exchange import exchange_reduce

    rd = _rd()
    empty = pa.table({"day": pa.array([], pa.int64()),
                      "peak_concurrency": pa.array([], pa.int64()),
                      "peak_ts_us": pa.array([], pa.int64())})
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    refs = exchange_reduce([ds], ["user_id"], _session_points_partition)
    out = _sweep_day_peaks(refs, P)
    if out is None:
        return empty
    return finalize(out.rename_columns(
        ["day", "peak_concurrency", "peak_ts_us"]), [("day", "ascending")])


def _sweep_day_peaks(refs: list, P: int) -> "pa.Table | None":
    """The distributed sweep-line core shared by every interval-
    concurrency operator (:func:`peak_concurrency`,
    :func:`order_backlog_peak`): ``refs`` are object refs of
    (t, ns, ne) point tables — per timestamp t, how many intervals
    start (ns) and end (ne) there, partials ADDING across refs.

    RANGE partition by sampled t bounds; each bucket aggregates+sorts
    locally and reports its (Σns, Σne); the driver's exclusive prefix
    over the P bucket totals is the carry that makes each bucket's
    local cumulative sums globally exact: conc(t) = carry_ns +
    cum_ns(≤t) − carry_ne − cum_ne(<t). Returns per-day (day, peak,
    first-ts-at-peak) or None for empty input."""
    import ray

    @ray.remote
    def sample_t(t: pa.Table, k: int = 64) -> np.ndarray:
        x = t.column("t").to_numpy()
        if len(x) <= k:
            return np.sort(x)
        return np.sort(x)[np.linspace(0, len(x) - 1, k).astype(np.int64)]

    @ray.remote
    def split_range(t: pa.Table, bounds: np.ndarray, nb: int):
        x = t.column("t").to_numpy()
        b = np.searchsorted(bounds, x, side="left")
        order = np.argsort(b, kind="stable")
        tt = t.take(pa.array(order))
        cuts = np.searchsorted(b[order], np.arange(nb + 1))
        return tuple(tt.slice(cuts[i], cuts[i + 1] - cuts[i]) for i in range(nb))

    @ray.remote(num_returns=3)
    def bucket_agg(*slices):
        live = [s for s in slices if s.num_rows]
        if not live:
            return slices[0], 0, 0
        t = pa.concat_tables(live, promote_options="default")
        g = (t.group_by(["t"]).aggregate([("ns", "sum"), ("ne", "sum")])
             .rename_columns(["t", "ns", "ne"]))
        g = g.take(pc.sort_indices(g, sort_keys=[("t", "ascending")]))
        return (g, int(pc.sum(g.column("ns")).as_py() or 0),
                int(pc.sum(g.column("ne")).as_py() or 0))

    @ray.remote
    def bucket_peaks(g: pa.Table, off_ns: int, off_ne: int) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({"day": pa.array([], pa.int64()),
                             "peak": pa.array([], pa.int64()),
                             "pts": pa.array([], pa.int64())})
        tt = g.column("t").to_numpy()
        ns = g.column("ns").to_numpy()
        ne = g.column("ne").to_numpy()
        conc = off_ns + np.cumsum(ns) - off_ne - (np.cumsum(ne) - ne)
        day = tt // _US_PER_DAY_I
        seg_start = np.flatnonzero(np.r_[True, day[1:] != day[:-1]])
        seg = np.cumsum(np.r_[True, day[1:] != day[:-1]]) - 1
        dmax = np.maximum.reduceat(conc, seg_start)
        is_max = conc == dmax[seg]
        big = np.iinfo(np.int64).max
        first = np.minimum.reduceat(np.where(is_max, tt, big), seg_start)
        return pa.table({"day": pa.array(day[seg_start], pa.int64()),
                         "peak": pa.array(dmax, pa.int64()),
                         "pts": pa.array(first, pa.int64())})

    samples = np.concatenate(ray.get([sample_t.remote(r) for r in refs]))
    if not len(samples):
        return None
    bounds = np.unique(
        np.quantile(samples, np.linspace(0, 1, P + 1)[1:-1]).astype(np.int64)
    )
    nb = len(bounds) + 1
    mats = [split_range.options(num_returns=nb).remote(r, bounds, nb)
            for r in refs]
    if nb == 1:
        mats = [[m] for m in mats]
    agg = [bucket_agg.remote(*[m[b] for m in mats]) for b in range(nb)]
    totals = ray.get([a[1] for a in agg] + [a[2] for a in agg])
    tns, tne = totals[:nb], totals[nb:]
    off_ns = np.r_[0, np.cumsum(tns)[:-1]]
    off_ne = np.r_[0, np.cumsum(tne)[:-1]]
    parts = ray.get([
        bucket_peaks.remote(agg[b][0], int(off_ns[b]), int(off_ne[b]))
        for b in range(nb)
    ])
    allp = pa.concat_tables([p for p in parts if p.num_rows])
    if allp.num_rows == 0:
        return None
    df = allp.to_pandas()
    mx = df.groupby("day")["peak"].transform("max")
    win = df[df["peak"] == mx]
    out = win.groupby("day").agg(
        peak=("peak", "max"), pts=("pts", "min")
    ).reset_index().sort_values("day")
    return pa.table({"day": pa.array(out["day"].to_numpy(), pa.int64()),
                     "peak": pa.array(out["peak"].to_numpy(), pa.int64()),
                     "pts": pa.array(out["pts"].to_numpy(), pa.int64())})


def value_mad(sf_dir: str) -> pa.Table:
    """Exact median and median-absolute-deviation of ``value`` (cents)
    per event type — the robust-statistics sibling of value_moments.

    value is a 2-decimal money column, so its cents domain is BOUNDED
    (distinct cents values, not rows): each block combines to a
    per-(type, cents) count table, the driver folds O(types x distinct
    cents) partial rows (fold_partials' bounded-cardinality contract),
    and BOTH order statistics close from that one folded histogram —
    the MAD's |v - median| histogram is derived arithmetically from the
    value histogram, no second data pass. Rank convention is
    value_quantiles': the value at rank ceil(n/2) = (50n+99)//100."""
    from ._util import fold_partials

    rd = _rd()
    empty = pa.table({"event_type": pa.array([], pa.string()),
                      "n": pa.array([], pa.int64()),
                      "median_cents": pa.array([], pa.int64()),
                      "mad_cents": pa.array([], pa.int64())})

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"event_type": pa.array([], pa.string()),
                             "v": pa.array([], pa.int64()),
                             "n_part": pa.array([], pa.int64())})
        v = _cents(t.column("value"))
        g = pa.table(
            {"event_type": t.column("event_type"),
             "v": pa.array(v, pa.int64())}
        ).group_by(["event_type", "v"]).aggregate([([], "count_all")])
        return g.rename_columns(["event_type", "v", "n_part"])

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "value"])
    hist = fold_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type", "v"], [("n_part", "sum")],
        ["event_type", "v", "n"],
    )
    if hist.num_columns == 0 or hist.num_rows == 0:
        return empty
    df = hist.to_pandas().sort_values(["event_type", "v"])
    rows = []
    for et, g in df.groupby("event_type", sort=True):
        v = g["v"].to_numpy()
        n = g["n"].to_numpy()
        total = int(n.sum())
        k = (50 * total + 99) // 100
        cum = np.cumsum(n)
        med = int(v[np.searchsorted(cum, k)])
        # |v - med| histogram: fold mirrored counts, re-sort, same rank
        d = np.abs(v - med)
        order = np.argsort(d, kind="stable")
        ds_, ns_ = d[order], n[order]
        uq = np.r_[True, ds_[1:] != ds_[:-1]]
        idx = np.flatnonzero(uq)
        dd = ds_[idx]
        nn = np.add.reduceat(ns_, idx)
        mad = int(dd[np.searchsorted(np.cumsum(nn), k)])
        rows.append((et, total, med, mad))
    t = pa.table(
        {"event_type": pa.array([r[0] for r in rows], pa.string()),
         "n": pa.array([r[1] for r in rows], pa.int64()),
         "median_cents": pa.array([r[2] for r in rows], pa.int64()),
         "mad_cents": pa.array([r[3] for r in rows], pa.int64())}
    )
    return finalize(t, [("event_type", "ascending")])


def value_hour_corr(sf_dir: str) -> pa.Table:
    """Pearson correlation between event value (cents) and hour-of-day,
    per event type — the exact-integer moment-sketch shape extended to
    CO-moments (n, Σx, Σy, Σx², Σy², Σxy per type; six int64s per block
    partial, folded in unbounded Python ints on the driver).

    Floats never enter the fold. The result is reported as r² in micro
    units plus the correlation's sign, both closed in pure integer
    arithmetic with the SAME two-step floor the HUGEINT twin takes:
    r2_micro = ((10⁶·cov² stepwise) // vx) · cov // vy with
    cov = n·Σxy − Σx·Σy, vx = n·Σx² − (Σx)², vy = n·Σy² − (Σy)².
    The stepwise floor keeps every intermediate below 128 bits at any
    scale (cov² alone would overflow HUGEINT near 10^10 rows); both
    sides floor identically so the twin is bit-equal."""
    from ._util import fold_partials

    rd = _rd()
    empty = pa.table({"event_type": pa.array([], pa.string()),
                      "n": pa.array([], pa.int64()),
                      "sign": pa.array([], pa.int64()),
                      "r2_micro": pa.array([], pa.int64())})

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"event_type": pa.array([], pa.string()),
                             "n_p": pa.array([], pa.int64()),
                             "sx": pa.array([], pa.int64()),
                             "sy": pa.array([], pa.int64()),
                             "sxx": pa.array([], pa.int64()),
                             "syy": pa.array([], pa.int64()),
                             "sxy": pa.array([], pa.int64())})
        x = _cents(t.column("value"))
        ts = t.column("ts").to_numpy().astype(np.int64)
        y = (ts // _US_PER_HOUR) % 24
        g = pa.table(
            {"event_type": t.column("event_type"),
             "x": pa.array(x, pa.int64()),
             "y": pa.array(y, pa.int64()),
             "xx": pa.array(x * x, pa.int64()),
             "yy": pa.array(y * y, pa.int64()),
             "xy": pa.array(x * y, pa.int64())}
        ).group_by(["event_type"]).aggregate(
            [([], "count_all"), ("x", "sum"), ("y", "sum"),
             ("xx", "sum"), ("yy", "sum"), ("xy", "sum")]
        )
        return g.rename_columns(
            ["event_type", "n_p", "sx", "sy", "sxx", "syy", "sxy"])

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "value", "ts"])
    t = fold_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type"],
        [("n_p", "sum"), ("sx", "sum"), ("sy", "sum"),
         ("sxx", "sum"), ("syy", "sum"), ("sxy", "sum")],
        ["event_type", "n", "sx", "sy", "sxx", "syy", "sxy"],
    )
    if t.num_columns == 0 or t.num_rows == 0:
        return empty
    rows = []
    for et, n, sx, sy, sxx, syy, sxy in zip(
        t.column("event_type").to_pylist(), t.column("n").to_pylist(),
        t.column("sx").to_pylist(), t.column("sy").to_pylist(),
        t.column("sxx").to_pylist(), t.column("syy").to_pylist(),
        t.column("sxy").to_pylist(),
    ):
        cov = n * sxy - sx * sy
        vx = n * sxx - sx * sx
        vy = n * syy - sy * sy
        acov = abs(cov)  # nonneg operands: floor == truncate on BOTH sides
        if vx > 0 and vy > 0:
            r2 = ((1_000_000 * acov // vx) * acov) // vy
        else:
            r2 = 0
        rows.append((et, n, (cov > 0) - (cov < 0), r2))
    out = pa.table(
        {"event_type": pa.array([r[0] for r in rows], pa.string()),
         "n": pa.array([r[1] for r in rows], pa.int64()),
         "sign": pa.array([r[2] for r in rows], pa.int64()),
         "r2_micro": pa.array([r[3] for r in rows], pa.int64())}
    )
    return finalize(out, [("event_type", "ascending")])


def _gini_totals_partition(pid: int, orders_t: pa.Table, cust_t: pa.Table) -> pa.Table:
    """Per custkey-hash partition: close each customer's order-spend
    total (cents) and tag it with the customer's market segment — both
    sides arrive co-partitioned, so the join is local."""
    empty = pa.table({"seg": pa.array([], pa.string()),
                      "custkey": pa.array([], pa.int64()),
                      "cents": pa.array([], pa.int64())})
    if orders_t.num_rows == 0 or "o_custkey" not in orders_t.column_names:
        return empty
    g = (orders_t.group_by(["o_custkey"]).aggregate([("cents", "sum")])
         .rename_columns(["o_custkey", "cents"]))
    if cust_t.num_rows == 0 or "c_custkey" not in cust_t.column_names:
        return empty
    j = g.join(cust_t, keys=["o_custkey"], right_keys=["c_custkey"],
               join_type="inner")
    return pa.table({"seg": j.column("c_mktsegment"),
                     "custkey": j.column("o_custkey").cast(pa.int64()),
                     "cents": j.column("cents").cast(pa.int64())})


def spend_gini(sf_dir: str, P: int = 8) -> pa.Table:
    """Exact Gini coefficient of per-customer order spend, per market
    segment — the inequality-measure shape (who holds the volume), and
    a second consumer of the distributed-rank machinery:

    1. custkey exchange closes per-customer totals and joins the
       segment locally (customer rows co-partitioned — no broadcast of
       a table that grows with the data);
    2. per segment, totals RANGE-partition by cents (sampled bounds);
       each bucket sorts locally and returns (n, Σx, Σ local_rank·x);
    3. the driver folds P smalls per segment: global Σ rank·x =
       Σ (S_local + rank_offset·Σx) with the exclusive bucket-count
       prefix as the carry — rows never leave the buckets.

    gini_micro = ⌊(2·Σrank·x − (n+1)·Σx)·10⁶ / (n·Σx)⌋, every term an
    unbounded Python int (the rank dot product falls back from the
    int64 fast path to exact object arithmetic if n·max_cents could
    wrap). Rank ties (equal cents) cannot move the sum — the tied
    block's rank total is order-free — so custkey tie-break is purely
    cosmetic and the HUGEINT twin is bit-equal."""
    import ray

    from .exchange import exchange_reduce

    rd = _rd()
    empty = pa.table({"c_mktsegment": pa.array([], pa.string()),
                      "n_customers": pa.array([], pa.int64()),
                      "total_cents": pa.array([], pa.int64()),
                      "gini_micro": pa.array([], pa.int64())})

    def order_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"o_custkey": pa.array([], pa.int64()),
                             "cents": pa.array([], pa.int64())})
        g = pa.table(
            {"o_custkey": t.column("o_custkey"),
             "cents": pa.array(_cents(t.column("o_totalprice")), pa.int64())}
        ).group_by(["o_custkey"]).aggregate([("cents", "sum")])
        return g.rename_columns(["o_custkey", "cents"])

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_totalprice"]
                             ).map_batches(order_partial, batch_format="pyarrow")
    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_mktsegment"])
    refs = exchange_reduce([orders, cust], ["o_custkey", "c_custkey"],
                           _gini_totals_partition)

    @ray.remote
    def sample_sc(t: pa.Table, k: int = 64):
        if t.num_rows == 0:
            return {}
        df = t.to_pandas()
        out = {}
        for seg, g in df.groupby("seg"):
            x = np.sort(g["cents"].to_numpy())
            out[seg] = x if len(x) <= k else x[
                np.linspace(0, len(x) - 1, k).astype(np.int64)]
        return out

    samples = ray.get([sample_sc.remote(r) for r in refs])
    segs: dict[str, list] = {}
    for s in samples:
        for seg, x in s.items():
            segs.setdefault(seg, []).append(x)
    if not segs:
        return empty
    seg_names = sorted(segs)
    seg_bounds = {}
    for seg in seg_names:
        x = np.concatenate(segs[seg])
        seg_bounds[seg] = np.unique(
            np.quantile(x, np.linspace(0, 1, P + 1)[1:-1]).astype(np.int64))
    seg_nb = {seg: len(b) + 1 for seg, b in seg_bounds.items()}
    # flat bucket layout: segment-major, buckets ascending within segment
    seg_off = {}
    acc = 0
    for seg in seg_names:
        seg_off[seg] = acc
        acc += seg_nb[seg]
    nflat = acc

    @ray.remote
    def split_sc(t: pa.Table, seg_names, seg_bounds, seg_off, nflat):
        if t.num_rows == 0:
            return tuple(t for _ in range(nflat))
        df = t.to_pandas()
        cents = df["cents"].to_numpy()
        seg = df["seg"].to_numpy()
        flat = np.zeros(len(df), np.int64)
        for sname in seg_names:
            m = seg == sname
            if not m.any():
                continue
            flat[m] = seg_off[sname] + np.searchsorted(
                seg_bounds[sname], cents[m], side="left")
        order = np.argsort(flat, kind="stable")
        tt = t.take(pa.array(order))
        cuts = np.searchsorted(flat[order], np.arange(nflat + 1))
        return tuple(tt.slice(cuts[i], cuts[i + 1] - cuts[i])
                     for i in range(nflat))

    @ray.remote
    def bucket_stats(*slices):
        live = [s for s in slices if s.num_rows]
        if not live:
            return (0, 0, 0)
        t = pa.concat_tables(live, promote_options="default")
        x = t.column("cents").to_numpy()
        ck = t.column("custkey").to_numpy()
        order = np.lexsort((ck, x))
        x = x[order]
        n = len(x)
        ranks = np.arange(1, n + 1, dtype=np.int64)
        if n and n * int(x.max()) < (1 << 62) // max(n, 1):
            s_local = int(np.dot(ranks, x))
        else:  # exact fallback: unbounded ints, no wraparound
            s_local = sum(int(r) * int(v) for r, v in zip(ranks, x))
        return (n, int(x.sum()), s_local)

    mats = [split_sc.options(num_returns=nflat).remote(
        r, seg_names, seg_bounds, seg_off, nflat) for r in refs]
    if nflat == 1:
        mats = [[m] for m in mats]
    stats = ray.get([bucket_stats.remote(*[m[b] for m in mats])
                     for b in range(nflat)])
    rows = []
    for seg in seg_names:
        o, nb = seg_off[seg], seg_nb[seg]
        n = T = S = 0
        for b in range(nb):
            bn, bt, bs = stats[o + b]
            S += bs + n * bt      # carry: earlier buckets' count offsets ranks
            n += bn
            T += bt
        if n == 0 or T == 0:
            continue
        gini = ((2 * S - (n + 1) * T) * 1_000_000) // (n * T)
        rows.append((seg, n, T, gini))
    if not rows:
        return empty
    t = pa.table(
        {"c_mktsegment": pa.array([r[0] for r in rows], pa.string()),
         "n_customers": pa.array([r[1] for r in rows], pa.int64()),
         "total_cents": pa.array([r[2] for r in rows], pa.int64()),
         "gini_micro": pa.array([r[3] for r in rows], pa.int64())}
    )
    return finalize(t, [("c_mktsegment", "ascending")])


def _bsc_part_kernel(pid: int, li_t: pa.Table, part_t: pa.Table) -> pa.Table:
    """partkey-partition kernel for brand_supplier_census: dedup the
    (partkey, suppkey) pairs (partition-complete), tag each with its
    brand, and emit kind-tagged rows — kind 0: one row per distinct
    (brand, suppkey) candidate for the second exchange; kind 1: the
    partition's per-brand (n_parts, n_pairs) partials, which CLOSE here
    because a partkey lives in exactly one partition."""
    empty = pa.table({"kind": pa.array([], pa.int64()),
                      "p_brand": pa.array([], pa.string()),
                      "suppkey": pa.array([], pa.int64()),
                      "a": pa.array([], pa.int64()),
                      "b": pa.array([], pa.int64())})
    if (li_t.num_rows == 0 or part_t.num_rows == 0
            or "l_partkey" not in li_t.column_names):
        return empty
    pairs = (li_t.group_by(["l_partkey", "l_suppkey"])
             .aggregate([]).rename_columns(["l_partkey", "l_suppkey"]))
    j = pairs.join(part_t, keys=["l_partkey"], right_keys=["p_partkey"],
                   join_type="inner")
    if j.num_rows == 0:
        return empty
    # kind-0: distinct (brand, supp) in this partition
    bs = (j.group_by(["p_brand", "l_suppkey"]).aggregate([])
          .rename_columns(["p_brand", "l_suppkey"]))
    # kind-1: per-brand partition-complete part/pair counts
    stats = j.group_by(["p_brand"]).aggregate(
        [("l_partkey", "count_distinct"), ([], "count_all")]
    ).rename_columns(["p_brand", "n_parts", "n_pairs"])
    k0 = pa.table({"kind": pa.array(np.zeros(bs.num_rows, np.int64)),
                   "p_brand": bs.column("p_brand"),
                   "suppkey": bs.column("l_suppkey").cast(pa.int64()),
                   "a": pa.array(np.zeros(bs.num_rows, np.int64)),
                   "b": pa.array(np.zeros(bs.num_rows, np.int64))})
    k1 = pa.table({"kind": pa.array(np.ones(stats.num_rows, np.int64)),
                   "p_brand": stats.column("p_brand"),
                   "suppkey": pa.array(
                       np.full(stats.num_rows, -1, np.int64)),
                   "a": stats.column("n_parts").cast(pa.int64()),
                   "b": stats.column("n_pairs").cast(pa.int64())})
    return pa.concat_tables([k0, k1])


def _bsc_supp_kernel(pid: int, t: pa.Table) -> pa.Table:
    """suppkey-partition kernel: a supplier's (brand, supp) candidates
    from every part partition land here — dedup and count per brand."""
    empty = pa.table({"p_brand": pa.array([], pa.string()),
                      "n_supp": pa.array([], pa.int64())})
    if t.num_rows == 0 or "p_brand" not in t.column_names:
        return empty
    d = t.group_by(["p_brand", "suppkey"]).aggregate([])
    g = d.group_by(["p_brand"]).aggregate([([], "count_all")])
    return g.rename_columns(["p_brand", "n_supp"])


def brand_supplier_census(sf_dir: str) -> pa.Table:
    """TPC-H Q16's shape over the available columns: per part brand,
    how many distinct parts were ever shipped, by how many distinct
    suppliers, over how many distinct (part, supplier) lanes.

    Distinct-count at two different keys without ever shipping
    duplicates: batches pre-dedup (partkey, suppkey); exchange 1
    co-partitions lineitem pairs with the part table on partkey (part/
    pair counts close there — a partkey lives in one partition);
    exchange 2 re-keys the surviving distinct (brand, supp) candidates
    by suppkey so the supplier census closes. The driver folds only
    per-brand partials (fixed small brand cardinality)."""
    import ray

    from .exchange import exchange_reduce

    rd = _rd()
    empty = pa.table({"p_brand": pa.array([], pa.string()),
                      "n_parts": pa.array([], pa.int64()),
                      "n_pairs": pa.array([], pa.int64()),
                      "n_suppliers": pa.array([], pa.int64())})

    def li_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"l_partkey": pa.array([], pa.int64()),
                             "l_suppkey": pa.array([], pa.int64())})
        return (t.group_by(["l_partkey", "l_suppkey"]).aggregate([])
                .rename_columns(["l_partkey", "l_suppkey"]))

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_partkey", "l_suppkey"]
                         ).map_batches(li_partial, batch_format="pyarrow")
    part = rd.read_parquet(f"{sf_dir}/part.parquet",
                           columns=["p_partkey", "p_brand"])
    refs1 = exchange_reduce([li, part], ["l_partkey", "p_partkey"],
                            _bsc_part_kernel)

    @ray.remote(num_returns=2)
    def split_kind(t: pa.Table):
        if t.num_rows == 0 or "kind" not in t.column_names:
            e = pa.table({"p_brand": pa.array([], pa.string()),
                          "suppkey": pa.array([], pa.int64()),
                          "a": pa.array([], pa.int64()),
                          "b": pa.array([], pa.int64())})
            return e, e
        k = t.column("kind").to_numpy()
        body = t.select(["p_brand", "suppkey", "a", "b"])
        return (body.filter(pa.array(k == 0)), body.filter(pa.array(k == 1)))

    halves = [split_kind.remote(r) for r in refs1]
    pair_refs = [h[0] for h in halves]
    stat_tabs = ray.get([h[1] for h in halves])

    supp_tabs = ray.get(
        exchange_reduce([pair_refs], ["suppkey"], _bsc_supp_kernel))
    supp = pa.concat_tables(
        [t for t in supp_tabs if t.num_rows], promote_options="default"
    ) if any(t.num_rows for t in supp_tabs) else None
    stats = pa.concat_tables(
        [t for t in stat_tabs if t.num_rows], promote_options="default"
    ) if any(t.num_rows for t in stat_tabs) else None
    if stats is None or supp is None:
        return empty
    s = (stats.group_by(["p_brand"]).aggregate([("a", "sum"), ("b", "sum")])
         .rename_columns(["p_brand", "n_parts", "n_pairs"]))
    u = (supp.group_by(["p_brand"]).aggregate([("n_supp", "sum")])
         .rename_columns(["p_brand", "n_suppliers"]))
    out = s.join(u, keys=["p_brand"], join_type="inner")
    out = pa.table({"p_brand": out.column("p_brand"),
                    "n_parts": out.column("n_parts").cast(pa.int64()),
                    "n_pairs": out.column("n_pairs").cast(pa.int64()),
                    "n_suppliers": out.column("n_suppliers").cast(pa.int64())})
    return finalize(out, [("p_brand", "ascending")])


def _autocorr_partition(pid: int, t: pa.Table) -> pa.Table:
    """Per user-hash partition: lag-1 (prev value, next value) pairs of
    each user's event sequence ordered by (ts, event_id) — sequences
    are partition-complete, so pairing closes locally; only six int64
    moment sums leave the kernel."""
    empty = pa.table({k: pa.array([], pa.int64())
                      for k in ("n", "sx", "sy", "sxx", "syy", "sxy")})
    if t.num_rows == 0 or "user_id" not in t.column_names:
        return empty
    u = t.column("user_id").to_numpy()
    ts = t.column("ts").to_numpy().astype(np.int64)
    ei = t.column("event_id").to_numpy()
    v = _cents(t.column("value"))
    order = np.lexsort((ei, ts, u))
    u, v = u[order], v[order]
    same = u[1:] == u[:-1]
    x, y = v[:-1][same], v[1:][same]
    return pa.table({
        "n": pa.array([len(x)], pa.int64()),
        "sx": pa.array([int(x.sum())], pa.int64()),
        "sy": pa.array([int(y.sum())], pa.int64()),
        "sxx": pa.array([int(np.dot(x, x))], pa.int64()),
        "syy": pa.array([int(np.dot(y, y))], pa.int64()),
        "sxy": pa.array([int(np.dot(x, y))], pa.int64()),
    })


def user_value_autocorr(sf_dir: str) -> pa.Table:
    """Lag-1 autocorrelation of event value across each user's event
    sequence — "does a big spend predict the next one": the sequence-
    pairing shape (order within key, then exact co-moments).

    One user-keyed exchange closes every user's ordered pair list; each
    partition emits six int64 sums; the driver folds P rows in
    unbounded Python ints and closes sign + r2_micro with the same
    stepwise |cov| floor as value_hour_corr."""
    from .exchange import exchange_reduce

    import ray

    rd = _rd()
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "event_id", "value"])
    parts = ray.get(exchange_reduce([ds], ["user_id"], _autocorr_partition))
    n = sx = sy = sxx = syy = sxy = 0
    for t in parts:
        if t.num_rows == 0:
            continue
        n += sum(t.column("n").to_pylist())
        sx += sum(t.column("sx").to_pylist())
        sy += sum(t.column("sy").to_pylist())
        sxx += sum(t.column("sxx").to_pylist())
        syy += sum(t.column("syy").to_pylist())
        sxy += sum(t.column("sxy").to_pylist())
    cov = n * sxy - sx * sy
    vx = n * sxx - sx * sx
    vy = n * syy - sy * sy
    acov = abs(cov)
    r2 = ((1_000_000 * acov // vx) * acov) // vy if vx > 0 and vy > 0 else 0
    return pa.table({
        "n_pairs": pa.array([n], pa.int64()),
        "sign": pa.array([(cov > 0) - (cov < 0)], pa.int64()),
        "r2_micro": pa.array([r2], pa.int64()),
    })


def _bts_partkey_kernel(pid: int, li_t: pa.Table, part_t: pa.Table) -> pa.Table:
    """partkey-partition kernel for brand_top_supplier: revenue partials
    per (brand, suppkey) — cents, discount applied in exact 1e-4 dollar
    basis like the TPC-H pipelines."""
    empty = pa.table({"p_brand": pa.array([], pa.string()),
                      "suppkey": pa.array([], pa.int64()),
                      "rev": pa.array([], pa.int64())})
    if (li_t.num_rows == 0 or part_t.num_rows == 0
            or "l_partkey" not in li_t.column_names):
        return empty
    j = li_t.join(part_t, keys=["l_partkey"], right_keys=["p_partkey"],
                  join_type="inner")
    if j.num_rows == 0:
        return empty
    g = (j.group_by(["p_brand", "l_suppkey"]).aggregate([("rev", "sum")])
         .rename_columns(["p_brand", "suppkey", "rev"]))
    return pa.table({"p_brand": g.column("p_brand"),
                     "suppkey": g.column("suppkey").cast(pa.int64()),
                     "rev": g.column("rev").cast(pa.int64())})


def _bts_supp_kernel(pid: int, t: pa.Table) -> pa.Table:
    """suppkey-partition kernel: every partial for (brand, supp) lands
    with supp, so per-supplier brand revenue CLOSES here; emit this
    partition's per-brand champion (max revenue, ties -> min suppkey)."""
    empty = pa.table({"p_brand": pa.array([], pa.string()),
                      "suppkey": pa.array([], pa.int64()),
                      "rev": pa.array([], pa.int64())})
    if t.num_rows == 0 or "p_brand" not in t.column_names:
        return empty
    g = (t.group_by(["p_brand", "suppkey"]).aggregate([("rev", "sum")])
         .rename_columns(["p_brand", "suppkey", "rev"]))
    df = g.to_pandas().sort_values(
        ["p_brand", "rev", "suppkey"], ascending=[True, False, True])
    w = df.groupby("p_brand", sort=False).head(1)
    return pa.table({"p_brand": pa.array(w["p_brand"], pa.string()),
                     "suppkey": pa.array(w["suppkey"].to_numpy(), pa.int64()),
                     "rev": pa.array(w["rev"].to_numpy(), pa.int64())})


def brand_top_supplier(sf_dir: str) -> pa.Table:
    """Per part brand, the supplier with the highest discounted revenue
    (exact 1e-4 dollar ints; ties broken to the smallest suppkey) — the
    per-group ARGMAX shape through two chained exchanges: partkey
    co-partition tags revenue partials with the brand; re-keying by
    suppkey closes each (brand, supplier) total; the driver folds only
    P per-partition champions per brand."""
    from .exchange import exchange_reduce

    import ray

    rd = _rd()
    empty = pa.table({"p_brand": pa.array([], pa.string()),
                      "s_suppkey": pa.array([], pa.int64()),
                      "revenue_e4": pa.array([], pa.int64())})

    def li_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"l_partkey": pa.array([], pa.int64()),
                             "l_suppkey": pa.array([], pa.int64()),
                             "rev": pa.array([], pa.int64())})
        price = _cents(t.column("l_extendedprice"))
        disc = _cents(t.column("l_discount"))  # 2-decimal fraction -> e2
        rev = price * (100 - disc)             # cents * e2 = 1e-4 dollars
        g = pa.table(
            {"l_partkey": t.column("l_partkey"),
             "l_suppkey": t.column("l_suppkey"),
             "rev": pa.array(rev, pa.int64())}
        ).group_by(["l_partkey", "l_suppkey"]).aggregate([("rev", "sum")])
        return g.rename_columns(["l_partkey", "l_suppkey", "rev"])

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice", "l_discount"]
    ).map_batches(li_partial, batch_format="pyarrow")
    part = rd.read_parquet(f"{sf_dir}/part.parquet",
                           columns=["p_partkey", "p_brand"])
    refs1 = exchange_reduce([li, part], ["l_partkey", "p_partkey"],
                            _bts_partkey_kernel)
    champs = ray.get(exchange_reduce([refs1], ["suppkey"], _bts_supp_kernel))
    live = [t for t in champs if t.num_rows]
    if not live:
        return empty
    df = pa.concat_tables(live, promote_options="default").to_pandas()
    df = df.sort_values(["p_brand", "rev", "suppkey"],
                        ascending=[True, False, True])
    w = df.groupby("p_brand", sort=True).head(1)
    t = pa.table({"p_brand": pa.array(w["p_brand"], pa.string()),
                  "s_suppkey": pa.array(w["suppkey"].to_numpy(), pa.int64()),
                  "revenue_e4": pa.array(w["rev"].to_numpy(), pa.int64())})
    return finalize(t, [("p_brand", "ascending")])


def nation_trade_balance(sf_dir: str) -> pa.Table:
    """Per-nation trade profile: revenue earned by its suppliers
    (discounted lineitem, exact 1e-4 dollars) vs spend of its customers
    (order totals, cents) — two INDEPENDENT keyed-exchange chains
    folded onto one fixed-small nation frame (every nation present,
    zeros for inactivity). The multi-subquery report shape: neither
    side ever sees the other's rows; the driver folds 2×P×25 partials."""
    import ray

    from .exchange import exchange_reduce

    rd = _rd()

    def li_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"l_suppkey": pa.array([], pa.int64()),
                             "rev": pa.array([], pa.int64())})
        price = _cents(t.column("l_extendedprice"))
        disc = _cents(t.column("l_discount"))
        g = pa.table(
            {"l_suppkey": t.column("l_suppkey"),
             "rev": pa.array(price * (100 - disc), pa.int64())}
        ).group_by(["l_suppkey"]).aggregate([("rev", "sum")])
        return g.rename_columns(["l_suppkey", "rev"])

    def supp_kernel(pid: int, li_t: pa.Table, s_t: pa.Table) -> pa.Table:
        empty = pa.table({"nk": pa.array([], pa.int64()),
                          "rev": pa.array([], pa.int64())})
        if li_t.num_rows == 0 or s_t.num_rows == 0:
            return empty
        j = li_t.join(s_t, keys=["l_suppkey"], right_keys=["s_suppkey"],
                      join_type="inner")
        g = j.group_by(["s_nationkey"]).aggregate([("rev", "sum")])
        return pa.table({"nk": g.column("s_nationkey").cast(pa.int64()),
                         "rev": g.column("rev_sum").cast(pa.int64())})

    def ord_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"o_custkey": pa.array([], pa.int64()),
                             "cents": pa.array([], pa.int64())})
        g = pa.table(
            {"o_custkey": t.column("o_custkey"),
             "cents": pa.array(_cents(t.column("o_totalprice")), pa.int64())}
        ).group_by(["o_custkey"]).aggregate([("cents", "sum")])
        return g.rename_columns(["o_custkey", "cents"])

    def cust_kernel(pid: int, o_t: pa.Table, c_t: pa.Table) -> pa.Table:
        empty = pa.table({"nk": pa.array([], pa.int64()),
                          "cents": pa.array([], pa.int64())})
        if o_t.num_rows == 0 or c_t.num_rows == 0:
            return empty
        j = o_t.join(c_t, keys=["o_custkey"], right_keys=["c_custkey"],
                     join_type="inner")
        g = j.group_by(["c_nationkey"]).aggregate([("cents", "sum")])
        return pa.table({"nk": g.column("c_nationkey").cast(pa.int64()),
                         "cents": g.column("cents_sum").cast(pa.int64())})

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_extendedprice", "l_discount"]
    ).map_batches(li_partial, batch_format="pyarrow")
    supp = rd.read_parquet(f"{sf_dir}/supplier.parquet",
                           columns=["s_suppkey", "s_nationkey"])
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_totalprice"]
                             ).map_batches(ord_partial, batch_format="pyarrow")
    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_nationkey"])
    supp_refs = exchange_reduce([li, supp], ["l_suppkey", "s_suppkey"],
                                supp_kernel)
    cust_refs = exchange_reduce([orders, cust], ["o_custkey", "c_custkey"],
                                cust_kernel)
    srows = [t for t in ray.get(supp_refs) if t.num_rows]
    crows = [t for t in ray.get(cust_refs) if t.num_rows]
    srev: dict[int, int] = {}
    for t in srows:
        for nk, rv in zip(t.column("nk").to_pylist(), t.column("rev").to_pylist()):
            srev[nk] = srev.get(nk, 0) + rv
    cspend: dict[int, int] = {}
    for t in crows:
        for nk, cs in zip(t.column("nk").to_pylist(), t.column("cents").to_pylist()):
            cspend[nk] = cspend.get(nk, 0) + cs
    import pyarrow.parquet as pq

    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"])
    nk = nat.column("n_nationkey").to_pylist()
    nm = nat.column("n_name").to_pylist()
    t = pa.table({
        "n_name": pa.array(nm, pa.string()),
        "supplier_rev_e4": pa.array([srev.get(k, 0) for k in nk], pa.int64()),
        "customer_spend_cents": pa.array(
            [cspend.get(k, 0) for k in nk], pa.int64()),
    })
    return finalize(t, [("n_name", "ascending")])


def first_touch_attribution(sf_dir: str) -> pa.Table:
    """Marketing first-touch attribution: per FIRST event type of each
    user's stream ((ts, event_id) order), how many users started there
    and how many ever purchased — conversion in exact basis points.
    One user-keyed exchange (streams are partition-complete), O(types)
    partials per partition, fixed-cardinality driver fold."""
    from .exchange import exchange_reduce

    import ray

    rd = _rd()
    empty = pa.table({"first_touch": pa.array([], pa.string()),
                      "n_users": pa.array([], pa.int64()),
                      "n_converted": pa.array([], pa.int64()),
                      "cvr_bp": pa.array([], pa.int64())})

    def kernel(pid: int, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return pa.table({"first_touch": pa.array([], pa.string()),
                             "n_users": pa.array([], pa.int64()),
                             "n_converted": pa.array([], pa.int64())})
        u = t.column("user_id").to_numpy()
        ts = t.column("ts").to_numpy().astype(np.int64)
        ei = t.column("event_id").to_numpy()
        ty = t.column("event_type").to_numpy(zero_copy_only=False)
        order = np.lexsort((ei, ts, u))
        u, ty = u[order], ty[order]
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        seg = np.cumsum(np.r_[True, u[1:] != u[:-1]]) - 1
        first = ty[starts]
        conv = np.zeros(len(starts), bool)
        np.logical_or.at(conv, seg, ty == "purchase")
        g = pa.table({"first_touch": pa.array(first, pa.string()),
                      "conv": pa.array(conv.astype(np.int64))}
                     ).group_by(["first_touch"]).aggregate(
            [([], "count_all"), ("conv", "sum")])
        return g.rename_columns(["first_touch", "n_users", "n_converted"])

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "event_id", "event_type"])
    parts = [t for t in ray.get(exchange_reduce([ds], ["user_id"], kernel))
             if t.num_rows]
    if not parts:
        return empty
    g = (pa.concat_tables(parts, promote_options="default")
         .group_by(["first_touch"])
         .aggregate([("n_users", "sum"), ("n_converted", "sum")])
         .rename_columns(["first_touch", "n_users", "n_converted"]))
    nu = g.column("n_users").to_numpy()
    nc = g.column("n_converted").to_numpy()
    out = pa.table({"first_touch": g.column("first_touch"),
                    "n_users": pa.array(nu.astype(np.int64)),
                    "n_converted": pa.array(nc.astype(np.int64)),
                    "cvr_bp": pa.array(10_000 * nc // np.maximum(nu, 1),
                                       pa.int64())})
    return finalize(out, [("first_touch", "ascending")])


def _order_interval_points(pid: int, o_t: pa.Table, li_t: pa.Table) -> pa.Table:
    """Per orderkey-hash partition: each order's open interval
    [orderdate, max lineitem shipdate] (clamped to start for unshipped /
    inverted rows) collapsed to sweep points — partials add across
    partitions."""
    empty = pa.table({"t": pa.array([], pa.int64()),
                      "ns": pa.array([], pa.int64()),
                      "ne": pa.array([], pa.int64())})
    if o_t.num_rows == 0 or "o_orderkey" not in o_t.column_names:
        return empty
    st_t = pa.table({
        "o_orderkey": o_t.column("o_orderkey"),
        "st": o_t.column("o_orderdate").cast(
            pa.timestamp("us")).cast(pa.int64()),
    })
    if li_t.num_rows and "l_orderkey" in li_t.column_names:
        le = (li_t.group_by(["l_orderkey"]).aggregate([("en", "max")])
              .rename_columns(["l_orderkey", "en"]))
        j = st_t.join(le, keys=["o_orderkey"], right_keys=["l_orderkey"],
                      join_type="left outer")
    else:
        j = st_t.append_column(
            "en", pa.array([None] * st_t.num_rows, pa.int64()))
    st = j.column("st").to_numpy()
    en = j.column("en").to_numpy(zero_copy_only=False)
    en = np.where(pd.isna(en), st, en).astype(np.int64)
    en = np.maximum(en, st)
    pts = np.concatenate([st, en])
    is_start = np.concatenate(
        [np.ones(len(st), np.int64), np.zeros(len(en), np.int64)])
    uq, inv = np.unique(pts, return_inverse=True)
    ns = np.bincount(inv, weights=is_start).astype(np.int64)
    ne = np.bincount(inv, weights=1 - is_start).astype(np.int64)
    return pa.table({"t": pa.array(uq, pa.int64()),
                     "ns": pa.array(ns, pa.int64()),
                     "ne": pa.array(ne, pa.int64())})


def order_backlog_peak(sf_dir: str, P: int = 16) -> pa.Table:
    """Per-day peak number of simultaneously OPEN orders (placed but
    not yet fully shipped) — the second consumer of the shared
    :func:`_sweep_day_peaks` sweep-line: one orderkey-keyed exchange
    closes each order's [orderdate, last-shipdate] interval (orders and
    their lineitems co-partition), the scan machinery is reused
    verbatim."""
    from .exchange import exchange_reduce

    rd = _rd()
    empty = pa.table({"day": pa.array([], pa.int64()),
                      "open_orders_peak": pa.array([], pa.int64()),
                      "peak_ts_us": pa.array([], pa.int64())})

    def li_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"l_orderkey": pa.array([], pa.int64()),
                             "en": pa.array([], pa.int64())})
        g = pa.table({
            "l_orderkey": t.column("l_orderkey"),
            "en": t.column("l_shipdate").cast(
                pa.timestamp("us")).cast(pa.int64()),
        }).group_by(["l_orderkey"]).aggregate([("en", "max")])
        return g.rename_columns(["l_orderkey", "en"])

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_orderdate"])
    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_shipdate"]
                         ).map_batches(li_partial, batch_format="pyarrow")
    refs = exchange_reduce([orders, li], ["o_orderkey", "l_orderkey"],
                           _order_interval_points)
    out = _sweep_day_peaks(refs, P)
    if out is None:
        return empty
    return finalize(out.rename_columns(
        ["day", "open_orders_peak", "peak_ts_us"]), [("day", "ascending")])


def user_type_affinity(sf_dir: str) -> pa.Table:
    """Event-type market-basket affinity: for each type pair, how many
    users touch BOTH, and the exact integer lift
    ⌊10⁶·n_both·n_users/(n_a·n_b)⌋ vs independence (>10⁶ = the types
    travel together) — association mining over the user dimension.

    The source_overlap_jaccard bitmask shape one table over: distinct
    (user, type) pairs combine per batch, the user-keyed exchange
    collapses each user to a ≤2^T bitmask (T = #types, fixed small),
    partitions fold mask histograms and the driver closes every pair
    from P×2^T ints — per-user rows never gather."""
    from .exchange import exchange_reduce
    from ._util import fold_partials

    import ray

    rd = _rd()
    empty = pa.table({"type_a": pa.array([], pa.string()),
                      "type_b": pa.array([], pa.string()),
                      "n_both": pa.array([], pa.int64()),
                      "lift_micro": pa.array([], pa.int64())})

    types_t = fold_partials(
        rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type"]
                        ).map_batches(
            lambda t: pa.table({"event_type":
                                t.column("event_type").combine_chunks().unique()}),
            batch_format="pyarrow"),
        ["event_type"], [([], "count_all")], ["event_type", "_n"])
    if types_t.num_columns == 0 or types_t.num_rows == 0:
        return empty
    types = sorted(types_t.column("event_type").to_pylist())
    tidx = {ty: i for i, ty in enumerate(types)}

    def pair_partial(t: pa.Table) -> pa.Table:
        return (t.group_by(["user_id", "event_type"]).aggregate([])
                .rename_columns(["user_id", "event_type"]))

    def mask_kernel(pid: int, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return pa.table({"mask": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        d = t.group_by(["user_id", "event_type"]).aggregate([])
        u = d.column("user_id").to_numpy()
        ty = d.column("event_type").to_numpy(zero_copy_only=False)
        bits = np.array([1 << tidx[s] for s in types])[
            np.searchsorted(types, ty)]
        order = np.argsort(u, kind="stable")
        u, bits = u[order], bits[order]
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        masks = np.bitwise_or.reduceat(bits, starts)
        uq, c = np.unique(masks, return_counts=True)
        return pa.table({"mask": pa.array(uq.astype(np.int64)),
                         "n": pa.array(c.astype(np.int64))})

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_type"]
                         ).map_batches(pair_partial, batch_format="pyarrow")
    tabs = [t for t in ray.get(exchange_reduce([ds], ["user_id"], mask_kernel))
            if t.num_rows]
    if not tabs:
        return empty
    h = (pa.concat_tables(tabs).group_by(["mask"]).aggregate([("n", "sum")])
         .rename_columns(["mask", "n"]))
    masks = h.column("mask").to_numpy()
    counts = h.column("n").to_numpy()
    n_users = int(counts.sum())
    rows = []
    for i in range(len(types)):
        for j in range(i + 1, len(types)):
            a, b = 1 << i, 1 << j
            both = int(counts[(masks & a > 0) & (masks & b > 0)].sum())
            na = int(counts[masks & a > 0].sum())
            nb = int(counts[masks & b > 0].sum())
            lift = (1_000_000 * both * n_users // (na * nb)
                    if na and nb else 0)
            rows.append((types[i], types[j], both, lift))
    t = pa.table({"type_a": pa.array([r[0] for r in rows], pa.string()),
                  "type_b": pa.array([r[1] for r in rows], pa.string()),
                  "n_both": pa.array([r[2] for r in rows], pa.int64()),
                  "lift_micro": pa.array([r[3] for r in rows], pa.int64())})
    return finalize(t, [("type_a", "ascending"), ("type_b", "ascending")])


def weighted_price_median(sf_dir: str) -> pa.Table:
    """WEIGHTED median of lineitem price (cents), weighted by shipped
    quantity — "the price of the median shipped unit", the
    inventory-weighted order statistic plain medians misstate.

    Two-pass distributed selection over an unbounded price domain (the
    gap_quantiles shape with weights): pass 1 folds coarse 4096-cent
    bucket weight sums (O(price-range/4096) rows); the driver locates
    the single bucket holding weighted rank ⌈W/2⌉; pass 2 folds that
    bucket's exact per-cents weights (≤4096 distinct values by
    construction). All integer; rank = (W+1)//2 on both sides."""
    from ._util import fold_partials

    rd = _rd()
    empty = pa.table({"total_weight": pa.array([], pa.int64()),
                      "median_cents": pa.array([], pa.int64())})
    cols = ["l_extendedprice", "l_quantity"]

    def coarse(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"b": pa.array([], pa.int64()),
                             "w": pa.array([], pa.int64())})
        v = _cents(t.column("l_extendedprice"))
        w = np.rint(t.column("l_quantity").to_numpy(
            zero_copy_only=False)).astype(np.int64)
        g = pa.table({"b": pa.array(v >> 12, pa.int64()),
                      "w": pa.array(w, pa.int64())}
                     ).group_by(["b"]).aggregate([("w", "sum")])
        return g.rename_columns(["b", "w"])

    ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=cols)
    h = fold_partials(ds.map_batches(coarse, batch_format="pyarrow"),
                      ["b"], [("w", "sum")], ["b", "w"])
    if h.num_columns == 0 or h.num_rows == 0:
        return empty
    hb = h.to_pandas().sort_values("b")
    W = int(hb["w"].sum())
    k = (W + 1) // 2
    cum = hb["w"].cumsum().to_numpy()
    i = int(np.searchsorted(cum, k))
    bucket = int(hb["b"].to_numpy()[i])
    k_in = k - (int(cum[i - 1]) if i else 0)

    def refine(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"v": pa.array([], pa.int64()),
                             "w": pa.array([], pa.int64())})
        v = _cents(t.column("l_extendedprice"))
        w = np.rint(t.column("l_quantity").to_numpy(
            zero_copy_only=False)).astype(np.int64)
        m = (v >> 12) == bucket
        g = pa.table({"v": pa.array(v[m], pa.int64()),
                      "w": pa.array(w[m], pa.int64())}
                     ).group_by(["v"]).aggregate([("w", "sum")])
        return g.rename_columns(["v", "w"])

    ds2 = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=cols)
    f = fold_partials(ds2.map_batches(refine, batch_format="pyarrow"),
                      ["v"], [("w", "sum")], ["v", "w"])
    fb = f.to_pandas().sort_values("v")
    cumv = fb["w"].cumsum().to_numpy()
    med = int(fb["v"].to_numpy()[np.searchsorted(cumv, k_in)])
    return pa.table({"total_weight": pa.array([W], pa.int64()),
                     "median_cents": pa.array([med], pa.int64())})


def dup_payment_candidates(sf_dir: str, window_min: int = 10) -> pa.Table:
    """Suspected double-charges: purchases by the SAME user for the
    SAME amount within ``window_min`` minutes of the previous identical
    amount — the fraud/idempotency-bug triage sequence. A user's
    purchase stream is partition-complete under the user-keyed
    exchange; the kernel sorts (user, cents, ts, event_id) and counts
    adjacent same-amount pairs inside the window, vectorized. Output:
    per-user suspicious-pair counts (only users with hits)."""
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    win_us = window_min * 60 * 1_000_000

    def kernel(pid: int, t: pa.Table) -> pa.Table:
        empty = pa.table({"user_id": pa.array([], pa.int64()),
                          "n_suspicious": pa.array([], pa.int64())})
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return empty
        ty = t.column("event_type").to_numpy(zero_copy_only=False)
        m = ty == "purchase"
        if not m.any():
            return empty
        u = t.column("user_id").to_numpy()[m]
        ts = t.column("ts").to_numpy().astype(np.int64)[m]
        ei = t.column("event_id").to_numpy()[m]
        v = _cents(t.column("value"))[m]
        order = np.lexsort((ei, ts, v, u))
        u, ts, v = u[order], ts[order], v[order]
        hit = ((u[1:] == u[:-1]) & (v[1:] == v[:-1])
               & ((ts[1:] - ts[:-1]) <= win_us))
        if not hit.any():
            return empty
        hu = u[1:][hit]
        uq, c = np.unique(hu, return_counts=True)
        return pa.table({"user_id": pa.array(uq, pa.int64()),
                         "n_suspicious": pa.array(c.astype(np.int64))})

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "event_id",
                                  "event_type", "value"])
    out = gather_concat(exchange_reduce([ds], ["user_id"], kernel))
    if out.num_rows == 0:
        return pa.table({"user_id": pa.array([], pa.int64()),
                         "n_suspicious": pa.array([], pa.int64())})
    return finalize(out, [("user_id", "ascending")])


def sales_cube(sf_dir: str) -> pa.Table:
    """CUBE(returnflag, linestatus) revenue rollup — the warehouse
    subtotal lattice (GROUPING SETS) from ONE base fold: the finest
    (rf, ls) cells fold distributed (fixed tiny cardinality, exact
    1e-4-dollar ints), and every coarser stratum — row subtotals,
    column subtotals, grand total — derives driver-side from those
    cells by pure addition ('ALL' marks the rolled-up axis; the data
    has no NULL flags, so the COALESCE twin is unambiguous)."""
    from ._util import fold_partials

    rd = _rd()
    empty = pa.table({"l_returnflag": pa.array([], pa.string()),
                      "l_linestatus": pa.array([], pa.string()),
                      "revenue_e4": pa.array([], pa.int64()),
                      "n_items": pa.array([], pa.int64())})

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"rf": pa.array([], pa.string()),
                             "ls": pa.array([], pa.string()),
                             "rev": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        price = _cents(t.column("l_extendedprice"))
        disc = _cents(t.column("l_discount"))
        g = pa.table({"rf": t.column("l_returnflag"),
                      "ls": t.column("l_linestatus"),
                      "rev": pa.array(price * (100 - disc), pa.int64()),
                      "n": pa.array(np.ones(t.num_rows, np.int64))}
                     ).group_by(["rf", "ls"]).aggregate(
            [("rev", "sum"), ("n", "sum")])
        return g.rename_columns(["rf", "ls", "rev", "n"])

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus",
                 "l_extendedprice", "l_discount"])
    t = fold_partials(ds.map_batches(partial, batch_format="pyarrow"),
                      ["rf", "ls"], [("rev", "sum"), ("n", "sum")],
                      ["rf", "ls", "rev", "n"])
    if t.num_columns == 0 or t.num_rows == 0:
        return empty
    df = t.to_pandas()
    cells = {(r, s): (int(rv), int(n))
             for r, s, rv, n in zip(df["rf"], df["ls"], df["rev"], df["n"])}
    rows = dict(cells)
    for (r, s), (rv, n) in cells.items():
        for key in ((r, "ALL"), ("ALL", s), ("ALL", "ALL")):
            prv, pn = rows.get(key, (0, 0))
            rows[key] = (prv + rv, pn + n)
    keys = sorted(rows)
    out = pa.table({
        "l_returnflag": pa.array([k[0] for k in keys], pa.string()),
        "l_linestatus": pa.array([k[1] for k in keys], pa.string()),
        "revenue_e4": pa.array([rows[k][0] for k in keys], pa.int64()),
        "n_items": pa.array([rows[k][1] for k in keys], pa.int64()),
    })
    return finalize(out, [("l_returnflag", "ascending"),
                          ("l_linestatus", "ascending")])


def value_benford(sf_dir: str) -> pa.Table:
    """First-significant-digit census of purchase amounts per event
    type (the Benford fraud screen's observed side) — exact integer
    shares; the digit extraction is a bounded divide-down loop (values
    are <= 7 digits of cents), fully vectorized per batch."""
    from ._util import fold_partials

    rd = _rd()
    empty = pa.table({"event_type": pa.array([], pa.string()),
                      "digit": pa.array([], pa.int64()),
                      "n": pa.array([], pa.int64()),
                      "share_bp": pa.array([], pa.int64())})

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"event_type": pa.array([], pa.string()),
                             "digit": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        v = _cents(t.column("value"))
        keep = v > 0
        v = v[keep]
        ty = t.column("event_type").filter(pa.array(keep))
        while (v >= 10).any():
            v = np.where(v >= 10, v // 10, v)
        g = pa.table({"event_type": ty,
                      "digit": pa.array(v, pa.int64())}
                     ).group_by(["event_type", "digit"]).aggregate(
            [([], "count_all")])
        return g.rename_columns(["event_type", "digit", "n"])

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "value"])
    t = fold_partials(ds.map_batches(partial, batch_format="pyarrow"),
                      ["event_type", "digit"], [("n", "sum")],
                      ["event_type", "digit", "n"])
    if t.num_columns == 0 or t.num_rows == 0:
        return empty
    df = t.to_pandas()
    tot = df.groupby("event_type")["n"].transform("sum").to_numpy()
    n = df["n"].to_numpy()
    out = pa.table({"event_type": pa.array(df["event_type"], pa.string()),
                    "digit": pa.array(df["digit"].to_numpy(), pa.int64()),
                    "n": pa.array(n.astype(np.int64)),
                    "share_bp": pa.array(
                        10_000 * n // np.maximum(tot, 1), pa.int64())})
    return finalize(out, [("event_type", "ascending"), ("digit", "ascending")])


def daily_revenue_rolling7(sf_dir: str) -> pa.Table:
    """Daily purchase revenue with a trailing 7-day rolling sum — the
    revenue dashboard series. Daily cents fold distributed (days =
    the result's own cardinality); the rolling frame closes on the
    driver with one vectorized pass over OBSERVED days (a gap day
    contributes nothing but still ages out of the window, exactly like
    the RANGE frame in the twin)."""
    from ._util import fold_partials

    rd = _rd()
    empty = pa.table({"day": pa.array([], pa.int64()),
                      "revenue_cents": pa.array([], pa.int64()),
                      "rolling7_cents": pa.array([], pa.int64())})

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"day": pa.array([], pa.int64()),
                             "r": pa.array([], pa.int64())})
        ty = t.column("event_type").to_numpy(zero_copy_only=False)
        m = ty == "purchase"
        ts = t.column("ts").to_numpy().astype(np.int64)[m]
        v = _cents(t.column("value"))[m]
        g = pa.table({"day": pa.array(ts // _US_PER_DAY_I, pa.int64()),
                      "r": pa.array(v, pa.int64())}
                     ).group_by(["day"]).aggregate([("r", "sum")])
        return g.rename_columns(["day", "r"])

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "ts", "value"])
    t = fold_partials(ds.map_batches(partial, batch_format="pyarrow"),
                      ["day"], [("r", "sum")], ["day", "r"])
    if t.num_columns == 0 or t.num_rows == 0:
        return empty
    df = t.to_pandas().sort_values("day")
    day = df["day"].to_numpy()
    r = df["r"].to_numpy()
    cum = np.cumsum(r)
    # rolling7(d) = sum of revenue on observed days in [d-6, d]
    lo = np.searchsorted(day, day - 6, side="left")
    roll = cum - np.where(lo > 0, cum[lo - 1], 0)
    return pa.table({"day": pa.array(day, pa.int64()),
                     "revenue_cents": pa.array(r.astype(np.int64)),
                     "rolling7_cents": pa.array(roll.astype(np.int64))})


def session_length_hist(sf_dir: str) -> pa.Table:
    """Histogram of session sizes (events per 30-minute-gap session) —
    the engagement-depth profile. User streams are partition-complete
    under the exchange; each partition sessionizes vectorized, folds
    its own (size, count) histogram, and the driver sums P × distinct-
    sizes rows — sessions themselves never gather."""
    from .exchange import exchange_reduce

    import ray

    rd = _rd()
    empty = pa.table({"session_len": pa.array([], pa.int64()),
                      "n_sessions": pa.array([], pa.int64())})

    def kernel(pid: int, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return empty
        u = t.column("user_id").to_numpy()
        ts = t.column("ts").to_numpy().astype(np.int64)
        ei = t.column("event_id").to_numpy()
        order = np.lexsort((ei, ts, u))
        u, ts = u[order], ts[order]
        new = np.r_[True, (u[1:] != u[:-1])
                    | ((ts[1:] - ts[:-1]) > _SESSION_GAP_US)]
        starts = np.flatnonzero(new)
        sizes = np.diff(np.r_[starts, len(u)])
        s, c = np.unique(sizes, return_counts=True)
        return pa.table({"session_len": pa.array(s.astype(np.int64)),
                         "n_sessions": pa.array(c.astype(np.int64))})

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "event_id"])
    parts = [t for t in ray.get(exchange_reduce([ds], ["user_id"], kernel))
             if t.num_rows]
    if not parts:
        return empty
    g = (pa.concat_tables(parts).group_by(["session_len"])
         .aggregate([("n_sessions", "sum")])
         .rename_columns(["session_len", "n_sessions"]))
    g = pa.table({"session_len": g.column("session_len").cast(pa.int64()),
                  "n_sessions": g.column("n_sessions").cast(pa.int64())})
    return finalize(g, [("session_len", "ascending")])


def region_monthly_revenue(sf_dir: str) -> pa.Table:
    """Monthly discounted revenue per REGION — the dimension×time
    rollup (q5's join chain crossed with a calendar axis): lineitem
    partials keyed by suppkey meet the supplier table in the exchange;
    (nationkey, month) partials fold on the driver and the tiny
    nation→region frame (fixed 25+5 rows) closes the rollup. Months
    derive as exact integer year*100+month from epoch µs."""
    import pyarrow.parquet as pqt
    import ray

    from .exchange import exchange_reduce

    rd = _rd()
    empty = pa.table({"r_name": pa.array([], pa.string()),
                      "month": pa.array([], pa.int64()),
                      "revenue_e4": pa.array([], pa.int64())})

    def li_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"l_suppkey": pa.array([], pa.int64()),
                             "month": pa.array([], pa.int64()),
                             "rev": pa.array([], pa.int64())})
        price = _cents(t.column("l_extendedprice"))
        disc = _cents(t.column("l_discount"))
        ship = t.column("l_shipdate").cast(pa.timestamp("us"))
        y = pc.year(ship).to_numpy(zero_copy_only=False).astype(np.int64)
        m = pc.month(ship).to_numpy(zero_copy_only=False).astype(np.int64)
        g = pa.table(
            {"l_suppkey": t.column("l_suppkey"),
             "month": pa.array(y * 100 + m, pa.int64()),
             "rev": pa.array(price * (100 - disc), pa.int64())}
        ).group_by(["l_suppkey", "month"]).aggregate([("rev", "sum")])
        return g.rename_columns(["l_suppkey", "month", "rev"])

    def kernel(pid: int, li_t: pa.Table, s_t: pa.Table) -> pa.Table:
        empty_k = pa.table({"nk": pa.array([], pa.int64()),
                            "month": pa.array([], pa.int64()),
                            "rev": pa.array([], pa.int64())})
        if li_t.num_rows == 0 or s_t.num_rows == 0:
            return empty_k
        j = li_t.join(s_t, keys=["l_suppkey"], right_keys=["s_suppkey"],
                      join_type="inner")
        g = j.group_by(["s_nationkey", "month"]).aggregate([("rev", "sum")])
        return pa.table({"nk": g.column("s_nationkey").cast(pa.int64()),
                         "month": g.column("month").cast(pa.int64()),
                         "rev": g.column("rev_sum").cast(pa.int64())})

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"]
    ).map_batches(li_partial, batch_format="pyarrow")
    supp = rd.read_parquet(f"{sf_dir}/supplier.parquet",
                           columns=["s_suppkey", "s_nationkey"])
    parts = [t for t in ray.get(
        exchange_reduce([li, supp], ["l_suppkey", "s_suppkey"], kernel))
        if t.num_rows]
    if not parts:
        return empty
    g = (pa.concat_tables(parts).group_by(["nk", "month"])
         .aggregate([("rev", "sum")]).rename_columns(["nk", "month", "rev"]))
    nat = pqt.read_table(f"{sf_dir}/nation.parquet",
                         columns=["n_nationkey", "n_regionkey"])
    reg = pqt.read_table(f"{sf_dir}/region.parquet",
                         columns=["r_regionkey", "r_name"])
    nk2r = dict(zip(nat.column("n_nationkey").to_pylist(),
                    nat.column("n_regionkey").to_pylist()))
    rk2n = dict(zip(reg.column("r_regionkey").to_pylist(),
                    reg.column("r_name").to_pylist()))
    df = g.to_pandas()
    df["r_name"] = [rk2n[nk2r[int(k)]] for k in df["nk"]]
    out = df.groupby(["r_name", "month"], as_index=False)["rev"].sum()
    t = pa.table({"r_name": pa.array(out["r_name"], pa.string()),
                  "month": pa.array(out["month"].to_numpy(), pa.int64()),
                  "revenue_e4": pa.array(out["rev"].to_numpy(), pa.int64())})
    return finalize(t, [("r_name", "ascending"), ("month", "ascending")])


def ship_delay_by_priority(sf_dir: str) -> pa.Table:
    """Fulfilment latency by order priority: exact integer mean of
    (shipdate − orderdate) per lineitem, reported in micro-days with
    the shared floor ⌊Σdelay_us·10⁶/(n·86400·10⁶)⌋ — the logistics SLO
    slice. One orderkey exchange co-partitions lineitems with their
    order header; per-priority (n, Σdelay) partials fold on the
    driver (priorities are a fixed tiny set)."""
    import ray

    from .exchange import exchange_reduce

    rd = _rd()
    empty = pa.table({"o_orderpriority": pa.array([], pa.string()),
                      "n_items": pa.array([], pa.int64()),
                      "avg_delay_microdays": pa.array([], pa.int64())})

    def kernel(pid: int, li_t: pa.Table, o_t: pa.Table) -> pa.Table:
        empty_k = pa.table({"p": pa.array([], pa.string()),
                            "n": pa.array([], pa.int64()),
                            "s": pa.array([], pa.int64())})
        if li_t.num_rows == 0 or o_t.num_rows == 0:
            return empty_k
        j = li_t.join(o_t, keys=["l_orderkey"], right_keys=["o_orderkey"],
                      join_type="inner")
        ship = j.column("ship_us").to_numpy()
        od = j.column("o_orderdate").cast(
            pa.timestamp("us")).cast(pa.int64()).to_numpy()
        g = pa.table({"p": j.column("o_orderpriority"),
                      "n": pa.array(np.ones(j.num_rows, np.int64)),
                      "s": pa.array(ship - od, pa.int64())}
                     ).group_by(["p"]).aggregate([("n", "sum"), ("s", "sum")])
        return g.rename_columns(["p", "n", "s"])

    def li_sel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"l_orderkey": pa.array([], pa.int64()),
                             "ship_us": pa.array([], pa.int64())})
        return pa.table({
            "l_orderkey": t.column("l_orderkey"),
            "ship_us": t.column("l_shipdate").cast(
                pa.timestamp("us")).cast(pa.int64()),
        })

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_shipdate"]
                         ).map_batches(li_sel, batch_format="pyarrow")
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_orderdate",
                                      "o_orderpriority"])
    parts = [t for t in ray.get(
        exchange_reduce([li, orders], ["l_orderkey", "o_orderkey"], kernel))
        if t.num_rows]
    if not parts:
        return empty
    g = (pa.concat_tables(parts).group_by(["p"])
         .aggregate([("n", "sum"), ("s", "sum")]).rename_columns(["p", "n", "s"]))
    rows = []
    for p, n, s in zip(g.column("p").to_pylist(), g.column("n").to_pylist(),
                       g.column("s").to_pylist()):
        rows.append((p, int(n), (int(s) * 1_000_000) // (int(n) * _US_PER_DAY_I)))
    t = pa.table({
        "o_orderpriority": pa.array([r[0] for r in rows], pa.string()),
        "n_items": pa.array([r[1] for r in rows], pa.int64()),
        "avg_delay_microdays": pa.array([r[2] for r in rows], pa.int64()),
    })
    return finalize(t, [("o_orderpriority", "ascending")])


def customer_rfm(sf_dir: str) -> pa.Table:
    """Classic RFM table: per customer, the last order day (recency
    anchor), order count (frequency) and exact total spend in cents
    (monetary) — one custkey exchange with per-batch combine; the
    per-customer result is the operator's own output cardinality."""
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"o_custkey": pa.array([], pa.int64()),
                             "last_day": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64()),
                             "cents": pa.array([], pa.int64())})
        od = t.column("o_orderdate").cast(
            pa.timestamp("us")).cast(pa.int64()).to_numpy()
        g = pa.table({"o_custkey": t.column("o_custkey"),
                      "last_day": pa.array(od // _US_PER_DAY_I, pa.int64()),
                      "n": pa.array(np.ones(t.num_rows, np.int64)),
                      "cents": pa.array(_cents(t.column("o_totalprice")),
                                        pa.int64())}
                     ).group_by(["o_custkey"]).aggregate(
            [("last_day", "max"), ("n", "sum"), ("cents", "sum")])
        return g.rename_columns(["o_custkey", "last_day", "n", "cents"])

    def kernel(pid: int, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "o_custkey" not in t.column_names:
            return pa.table({"o_custkey": pa.array([], pa.int64()),
                             "last_order_day": pa.array([], pa.int64()),
                             "n_orders": pa.array([], pa.int64()),
                             "total_cents": pa.array([], pa.int64())})
        g = t.group_by(["o_custkey"]).aggregate(
            [("last_day", "max"), ("n", "sum"), ("cents", "sum")])
        return g.rename_columns(
            ["o_custkey", "last_order_day", "n_orders", "total_cents"])

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_custkey", "o_orderdate", "o_totalprice"]
                         ).map_batches(partial, batch_format="pyarrow")
    out = gather_concat(exchange_reduce([ds], ["o_custkey"], kernel))
    if out.num_rows == 0:
        return pa.table({"o_custkey": pa.array([], pa.int64()),
                         "last_order_day": pa.array([], pa.int64()),
                         "n_orders": pa.array([], pa.int64()),
                         "total_cents": pa.array([], pa.int64())})
    out = pa.table({
        "o_custkey": out.column("o_custkey").cast(pa.int64()),
        "last_order_day": out.column("last_order_day").cast(pa.int64()),
        "n_orders": out.column("n_orders").cast(pa.int64()),
        "total_cents": out.column("total_cents").cast(pa.int64()),
    })
    return finalize(out, [("o_custkey", "ascending")])


def daily_volume_anomaly(sf_dir: str) -> pa.Table:
    """Robust daily-volume anomaly screen per event type: a day is
    anomalous when |count − median| · 2 > 3 · (2·MAD) in exact integer
    cross-multiplication (doubling both sides keeps half-steps exact,
    no floats) — the monitoring shape that ignores the outliers plain
    z-scores get dragged by. Per-(type, day) counts fold distributed
    (the result's own cardinality); median and MAD close from that one
    histogram driver-side, value_mad's convention (rank ⌈n/2⌉)."""
    from ._util import fold_partials

    rd = _rd()
    empty = pa.table({"event_type": pa.array([], pa.string()),
                      "day": pa.array([], pa.int64()),
                      "n_events": pa.array([], pa.int64()),
                      "anomaly": pa.array([], pa.int64())})

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"event_type": pa.array([], pa.string()),
                             "day": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        ts = t.column("ts").to_numpy().astype(np.int64)
        g = pa.table({"event_type": t.column("event_type"),
                      "day": pa.array(ts // _US_PER_DAY_I, pa.int64()),
                      "n": pa.array(np.ones(t.num_rows, np.int64))}
                     ).group_by(["event_type", "day"]).aggregate([("n", "sum")])
        return g.rename_columns(["event_type", "day", "n"])

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "ts"])
    t = fold_partials(ds.map_batches(partial, batch_format="pyarrow"),
                      ["event_type", "day"], [("n", "sum")],
                      ["event_type", "day", "n"])
    if t.num_columns == 0 or t.num_rows == 0:
        return empty
    df = t.to_pandas().sort_values(["event_type", "day"])
    rows = []
    for et, g in df.groupby("event_type", sort=True):
        n = np.sort(g["n"].to_numpy())
        k = (50 * len(n) + 99) // 100
        med = int(n[k - 1])
        d = np.sort(np.abs(n - med))
        mad = int(d[k - 1])
        for day, cnt in zip(g["day"], g["n"]):
            cnt = int(cnt)
            flag = int(2 * abs(cnt - med) > 3 * (2 * mad))
            rows.append((et, int(day), cnt, flag))
    out = pa.table({
        "event_type": pa.array([r[0] for r in rows], pa.string()),
        "day": pa.array([r[1] for r in rows], pa.int64()),
        "n_events": pa.array([r[2] for r in rows], pa.int64()),
        "anomaly": pa.array([r[3] for r in rows], pa.int64()),
    })
    return finalize(out, [("event_type", "ascending"), ("day", "ascending")])


# ---- TPC-H Q21: suppliers who kept orders waiting alone ------------------


def q21_late_sole_supplier(sf_dir: str, topn: int = 10) -> pa.Table:
    """TPC-H Q21 shape (adapted to this lake's columns): suppliers that
    were the SOLE late supplier of a finished multi-supplier order —
    the double-correlated EXISTS / NOT-EXISTS pattern. Lateness reuses
    q4's rule (max l_shipdate ≥ o_orderdate + 90 days, exact µs-integer
    arithmetic) since this lake carries no commit/receipt dates.

    Scale shape: the existence tests have a one-row sufficient
    statistic per (orderkey, suppkey) — max l_shipdate — so lineitem
    folds map-side BEFORE the one orderkey exchange; each partition
    joins its orders slice, evaluates both correlated predicates
    vectorized per order group (n_suppliers > 1, exactly one late),
    and emits (suppkey, numwait) partials. The driver folds P ×
    O(suppliers) dimension-sized rows (the q15 rule), cuts top-``topn``
    by (numwait desc, name asc), and resolves the ≤ topn names with a
    pushdown supplier read — names never enter the exchange."""
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    empty = pa.table({"s_name": pa.array([], pa.string()),
                      "numwait": pa.array([], pa.int64())})

    def lmax(t: pa.Table) -> pa.Table:
        if "l_orderkey" not in t.column_names or t.num_rows == 0:
            return pa.table({"l_orderkey": pa.array([], pa.int64()),
                             "l_suppkey": pa.array([], pa.int64()),
                             "max_ship": pa.array([], pa.timestamp("us"))})
        g = t.group_by(["l_orderkey", "l_suppkey"]).aggregate(
            [("l_shipdate", "max")]
        )
        return pa.table({"l_orderkey": g.column("l_orderkey").cast(pa.int64()),
                         "l_suppkey": g.column("l_suppkey").cast(pa.int64()),
                         "max_ship": g.column("l_shipdate_max")})

    def kernel(pid: int, lt: pa.Table, ot: pa.Table) -> pa.Table:
        out_empty = pa.table({"s_suppkey": pa.array([], pa.int64()),
                              "numwait": pa.array([], pa.int64())})
        if (ot.num_rows == 0 or lt.num_rows == 0
                or "o_orderkey" not in ot.column_names):
            return out_empty
        g = lt.group_by(["l_orderkey", "l_suppkey"]).aggregate(
            [("max_ship", "max")]
        )
        of = ot.filter(pc.equal(ot.column("o_orderstatus"), "F"))
        j = g.join(of.select(["o_orderkey", "o_orderdate"]),
                   keys=["l_orderkey"], right_keys=["o_orderkey"],
                   join_type="inner")
        if j.num_rows == 0:
            return out_empty
        okey = j.column("l_orderkey").to_numpy()
        skey = j.column("l_suppkey").to_numpy()
        ship = j.column("max_ship_max").to_numpy().astype("datetime64[us]")
        odate = j.column("o_orderdate").to_numpy().astype("datetime64[us]")
        late = (ship.view(np.int64)
                >= odate.view(np.int64) + _Q4_LATE_US).astype(np.int64)
        order = np.argsort(okey, kind="stable")
        okey, skey, late = okey[order], skey[order], late[order]
        starts = np.flatnonzero(np.r_[True, okey[1:] != okey[:-1]])
        n_supp = np.diff(np.r_[starts, len(okey)])
        cl = np.r_[0, np.cumsum(late)]
        ends = np.r_[starts[1:], len(okey)]
        n_late = cl[ends] - cl[starts]
        gid = np.repeat(np.arange(len(starts)), n_supp)
        win = (late == 1) & (n_supp[gid] > 1) & (n_late[gid] == 1)
        if not win.any():
            return out_empty
        wt = pa.table({"s_suppkey": pa.array(skey[win], pa.int64())})
        c = wt.group_by(["s_suppkey"]).aggregate([([], "count_all")])
        return pa.table({"s_suppkey": c.column("s_suppkey"),
                         "numwait": c.column("count_all").cast(pa.int64())})

    line = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                           columns=["l_orderkey", "l_suppkey", "l_shipdate"])
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderstatus"],
    )
    parts = gather_concat(exchange_reduce(
        [line.map_batches(lmax, batch_format="pyarrow"), orders],
        ["l_orderkey", "o_orderkey"], kernel,
    ))
    if parts.num_rows == 0:
        return empty
    g = parts.group_by(["s_suppkey"]).aggregate([("numwait", "sum")])
    keys = g.column("s_suppkey").to_numpy()
    waits = g.column("numwait_sum").to_numpy().astype(np.int64)
    names = _supplier_names(sf_dir, keys)
    order = np.lexsort((np.asarray(names, object), -waits))[:topn]
    out = pa.table({
        "s_name": pa.array([names[i] for i in order], pa.string()),
        "numwait": pa.array(waits[order], pa.int64()),
    })
    return finalize(out, [("numwait", "descending"), ("s_name", "ascending")])


def _supplier_names(sf_dir: str, keys: np.ndarray) -> list:
    """Resolve supplier names for ≤ dimension-sized key sets with a
    filtered (predicate-pushdown) read — names never shuffle."""
    import pyarrow.dataset as pads

    dset = pads.dataset(f"{sf_dir}/supplier.parquet")
    t = dset.to_table(columns=["s_suppkey", "s_name"],
                      filter=pads.field("s_suppkey").isin(keys.tolist()))
    m = dict(zip(t.column("s_suppkey").to_pylist(),
                 t.column("s_name").to_pylist()))
    return [m[int(k)] for k in keys]


_EWMA_LAG = 20  # dyadic half-life window cap: 2^-20 tail is dropped


def value_ewma(sf_dir: str) -> pa.Table:
    """Per-type daily value series with an exponentially-decayed trailing
    sum (half-life = 1 day) — the smoothed load/revenue monitor. Exact
    INTEGER arithmetic: the decay factor is dyadic (2^-gap_days) and the
    window caps at ``_EWMA_LAG`` calendar days, so the decayed sum is
    ``sum(cents[e] << (LAG - (d - e)))`` over observed days — an int64,
    order-independent, no float anywhere (``ewma_x`` carries the 2^LAG
    scale; consumers divide once at the edge).

    Scale shape: the (type, day) cents census folds distributed
    (fixed-cardinality partials, the rolling7 shape); the driver closes
    the capped dyadic window with one searchsorted pass per lag over
    O(types x days) rows."""
    from ._util import fold_partials

    rd = _rd()
    empty = pa.table({"event_type": pa.array([], pa.string()),
                      "day": pa.array([], pa.int64()),
                      "cents": pa.array([], pa.int64()),
                      "ewma_x": pa.array([], pa.int64())})

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"event_type": pa.array([], pa.string()),
                             "day": pa.array([], pa.int64()),
                             "cents": pa.array([], pa.int64())})
        ts = t.column("ts").to_numpy().astype(np.int64)
        g = pa.table({
            "event_type": t.column("event_type"),
            "day": pa.array(ts // _US_PER_DAY_I, pa.int64()),
            "cents": pa.array(_cents(t.column("value")), pa.int64()),
        }).group_by(["event_type", "day"]).aggregate([("cents", "sum")])
        return g.rename_columns(["event_type", "day", "cents"])

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "ts", "value"])
    t = fold_partials(ds.map_batches(partial, batch_format="pyarrow"),
                      ["event_type", "day"], [("cents", "sum")],
                      ["event_type", "day", "cents"])
    if t.num_columns == 0 or t.num_rows == 0:
        return empty
    df = t.to_pandas().sort_values(["event_type", "day"]).reset_index(drop=True)
    out_ew = np.zeros(len(df), dtype=np.int64)
    for ty, grp in df.groupby("event_type", sort=False):
        day = grp["day"].to_numpy()
        cents = grp["cents"].to_numpy()
        ew = np.zeros(len(day), dtype=np.int64)
        for lag in range(_EWMA_LAG + 1):
            idx = np.searchsorted(day, day - lag)
            hit = (idx < len(day)) & (day[np.minimum(idx, len(day) - 1)] == day - lag)
            ew[hit] += cents[idx[hit]] << (_EWMA_LAG - lag)
        out_ew[grp.index.to_numpy()] = ew
    return pa.table({
        "event_type": pa.array(df["event_type"], pa.string()),
        "day": pa.array(df["day"].to_numpy(), pa.int64()),
        "cents": pa.array(df["cents"].to_numpy(), pa.int64()),
        "ewma_x": pa.array(out_ew, pa.int64()),
    })


_ST_ITERS = 32
_ST_VEC_ROUND = 9
_ST_OUT_ROUND = 6


def event_stationary(sf_dir: str, iters: int = _ST_ITERS) -> pa.Table:
    """Stationary distribution of the first-order event-type Markov
    chain — where user behavior settles in the long run (the
    steady-state mix a capacity planner or recommender prior uses).
    Composition: :func:`event_transitions`' distributed count fold
    (user-co-located adjacency, O(types²) partials) closes the chain;
    the row-stochastic matrix, dangling-row self-loops and ``iters``
    pinned power-iteration rounds are O(types²) driver math.

    Pins (the embedding_pca discipline): transition probabilities are
    exact double divisions of identical ints on both sides, each
    iterate ROUNDs at ``_ST_VEC_ROUND`` so cross-engine summation drift
    never compounds, start = uniform 1/|types|. Twin:
    ``__ray_entry__._stationary_sql``."""
    tr = event_transitions(sf_dir)
    empty = pa.table({"event_type": pa.array([], pa.string()),
                      "pi": pa.array([], pa.float64())})
    if tr.num_rows == 0:
        return empty
    ft = tr.column("from_type").to_pylist()
    tt = tr.column("to_type").to_pylist()
    nn = tr.column("n").to_pylist()
    types = sorted(set(ft) | set(tt))
    k = len(types)
    idx = {t: i for i, t in enumerate(types)}
    cnt = np.zeros((k, k), np.int64)
    for f, t, c in zip(ft, tt, nn):
        cnt[idx[f], idx[t]] += c
    rs = cnt.sum(axis=1)
    P = np.zeros((k, k), np.float64)
    for i in range(k):
        if rs[i] == 0:
            P[i, i] = 1.0  # dangling type: absorbing self-loop
        else:
            P[i] = cnt[i] / rs[i]
    v = np.full(k, 1.0 / k)
    for _ in range(iters):
        v = np.round(P.T @ v, _ST_VEC_ROUND)
    return pa.table({
        "event_type": pa.array(types, pa.string()),
        "pi": pa.array(np.round(v, _ST_OUT_ROUND), pa.float64()),
    })


def _trigram_partition(n_types: int, pid: int, t: pa.Table) -> pa.Table:
    """Per-partition triple fold: same lexsort as
    :func:`_transition_partition`, adjacency extended one more step —
    only O(types³) partial rows leave (types is tiny and fixed)."""
    empty = pa.table({"abc": pa.array([], pa.int64()),
                      "n_part": pa.array([], pa.int64())})
    if t.num_rows == 0:
        return empty
    u = t.column("user_id").to_numpy()
    ts = t.column("ts").to_numpy()
    eid = t.column("event_id").to_numpy()
    code = t.column("code").to_numpy()
    order = np.lexsort((eid, ts, u))
    u, code = u[order], code[order].astype(np.int64)
    if len(u) < 3:
        return empty
    same = (u[2:] == u[:-2]) & (u[1:-1] == u[:-2])
    if not same.any():
        return empty
    flat = (code[:-2][same] * n_types + code[1:-1][same]) * n_types \
        + code[2:][same]
    cnt = np.bincount(flat, minlength=n_types ** 3)
    nz = np.flatnonzero(cnt)
    return pa.table({"abc": pa.array(nz, pa.int64()),
                     "n_part": pa.array(cnt[nz], pa.int64())})


_TRI_TOPK = 20


def event_trigrams(sf_dir: str, k: int = _TRI_TOPK) -> pa.Table:
    """Top-``k`` second-order behavior sequences — the (a → b → c)
    triple census that surfaces multi-step funnels and degenerate loops
    plain first-order transitions blur. Same shape as
    :func:`event_transitions` off the shared encoded front end: the
    user-keyed exchange co-locates each stream, partitions fold
    O(types³) packed-code partials, the driver unpacks and cuts the
    global top-``k`` under (n desc, a, b, c)."""
    from functools import partial as fpartial

    from .exchange import exchange_reduce, gather_concat

    enc_refs, tlist = _encoded_event_refs(sf_dir)
    empty = pa.table({"a": pa.array([], pa.string()),
                      "b": pa.array([], pa.string()),
                      "c": pa.array([], pa.string()),
                      "n": pa.array([], pa.int64())})
    refs = exchange_reduce(
        [enc_refs], ["user_id"],
        fpartial(_trigram_partition, len(tlist)),
    )
    coded = gather_concat(refs)
    if coded.num_rows == 0 or "abc" not in coded.column_names:
        return empty
    g = coded.group_by(["abc"]).aggregate([("n_part", "sum")])
    abc = g.column("abc").to_numpy()
    nt = len(tlist)
    out = pa.table({
        "a": pa.array(tlist[abc // (nt * nt)], pa.string()),
        "b": pa.array(tlist[(abc // nt) % nt], pa.string()),
        "c": pa.array(tlist[abc % nt], pa.string()),
        "n": g.column("n_part_sum").cast(pa.int64()),
    })
    out = finalize(out, [("n", "descending"), ("a", "ascending"),
                         ("b", "ascending"), ("c", "ascending")])
    return out.slice(0, k)


def discount_bands(sf_dir: str) -> pa.Table:
    """Discount-effectiveness census: per integer discount band (cents
    of discount percent, the q6 convention), line count, gross and
    discounted revenue in exact cents and mean quantity in exact
    micro-units — the pricing-policy dashboard. Fixed-cardinality fold
    (bands ≤ ~11), zero shuffle, all money math int64."""
    from ._util import fold_partials

    rd = _rd()
    empty = pa.table({"disc_pct": pa.array([], pa.int64()),
                      "n_lines": pa.array([], pa.int64()),
                      "gross_cents": pa.array([], pa.int64()),
                      "net_cents": pa.array([], pa.int64()),
                      "avg_qty_micro": pa.array([], pa.int64())})

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"disc_pct": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64()),
                             "g": pa.array([], pa.int64()),
                             "w": pa.array([], pa.int64()),
                             "q": pa.array([], pa.int64())})
        price = _cents(t.column("l_extendedprice"))
        disc = _cents(t.column("l_discount"))  # integer percent points
        qty = np.round(
            t.column("l_quantity").to_numpy()).astype(np.int64)
        g = pa.table({
            "disc_pct": pa.array(disc, pa.int64()),
            "n": pa.array(np.ones(len(disc), np.int64)),
            "g": pa.array(price, pa.int64()),
            "w": pa.array(price * (100 - disc), pa.int64()),
            "q": pa.array(qty, pa.int64()),
        }).group_by(["disc_pct"]).aggregate(
            [("n", "sum"), ("g", "sum"), ("w", "sum"), ("q", "sum")]
        )
        return g.rename_columns(["disc_pct", "n", "g", "w", "q"])

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_extendedprice", "l_discount", "l_quantity"],
    )
    t = fold_partials(ds.map_batches(partial, batch_format="pyarrow"),
                      ["disc_pct"],
                      [("n", "sum"), ("g", "sum"), ("w", "sum"), ("q", "sum")],
                      ["disc_pct", "n", "g", "w", "q"])
    if t.num_columns == 0 or t.num_rows == 0:
        return empty
    n = t.column("n").to_numpy()
    w = t.column("w").to_numpy()
    q = t.column("q").to_numpy()
    out = pa.table({
        "disc_pct": t.column("disc_pct"),
        "n_lines": pa.array(n.astype(np.int64)),
        "gross_cents": t.column("g"),
        "net_cents": pa.array(w // 100, pa.int64()),
        "avg_qty_micro": pa.array(1_000_000 * q // n, pa.int64()),
    })
    return finalize(out, [("disc_pct", "ascending")])


def ref_integrity_audit(sf_dir: str) -> pa.Table:
    """Referential-integrity monitor — the ingest-health check a lake
    operator schedules: orphan lineitems (orderkey missing from
    orders), empty orders (no lineitems), and orphan orders (custkey
    missing from customer), each an exact count. Two keyed exchanges
    (orderkey, custkey) co-locate both sides; every partition closes
    its own anti-join counts vectorized and the driver folds 3 fixed
    rows."""
    import ray

    from .exchange import exchange_reduce

    rd = _rd()
    lo = arrow_refs(rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey"]))
    oo = arrow_refs(rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_orderkey", "o_custkey"]))
    cc = arrow_refs(rd.read_parquet(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey"]))

    def order_kernel(pid: int, li: pa.Table, od: pa.Table) -> pa.Table:
        lk = (li.column("l_orderkey").to_numpy()
              if li.num_rows and "l_orderkey" in li.column_names
              else np.array([], np.int64))
        ok = (od.column("o_orderkey").to_numpy()
              if od.num_rows and "o_orderkey" in od.column_names
              else np.array([], np.int64))
        oset = np.unique(ok)
        orphan = int((~np.isin(lk, oset)).sum())
        empty_orders = int((~np.isin(oset, np.unique(lk))).sum())
        return pa.table({"check": pa.array(
            ["orphan_lineitems", "empty_orders"], pa.string()),
            "n": pa.array([orphan, empty_orders], pa.int64())})

    def cust_kernel(pid: int, od: pa.Table, cu: pa.Table) -> pa.Table:
        ok = (od.column("o_custkey").to_numpy()
              if od.num_rows and "o_custkey" in od.column_names
              else np.array([], np.int64))
        ck = (cu.column("c_custkey").to_numpy()
              if cu.num_rows and "c_custkey" in cu.column_names
              else np.array([], np.int64))
        orphan = int((~np.isin(ok, np.unique(ck))).sum())
        return pa.table({"check": pa.array(["orphan_orders"], pa.string()),
                         "n": pa.array([orphan], pa.int64())})

    import ray

    p1 = ray.get(exchange_reduce([lo, oo], ["l_orderkey", "o_orderkey"],
                                 order_kernel))
    p2 = ray.get(exchange_reduce([oo, cc], ["o_custkey", "c_custkey"],
                                 cust_kernel))
    allp = pa.concat_tables([t for t in p1 + p2 if t is not None])
    g = allp.group_by(["check"]).aggregate([("n", "sum")])
    out = pa.table({"check": g.column("check"),
                    "n": g.column("n_sum").cast(pa.int64())})
    return finalize(out, [("check", "ascending")])


def order_size_hist(sf_dir: str) -> pa.Table:
    """Lines-per-order histogram (zero-line orders included) — the
    order-shape profile that sizes fan-out joins and flags truncated
    ingests. The orderkey exchange co-locates each order with its
    lines; partitions fold their own (n_lines, n_orders) histogram,
    driver sums P × distinct-sizes rows."""
    import ray

    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    lo = arrow_refs(rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey"]))
    oo = arrow_refs(rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_orderkey"]))

    def size_kernel(pid: int, li: pa.Table, od: pa.Table) -> pa.Table:
        empty = pa.table({"n_lines": pa.array([], pa.int64()),
                          "n_orders": pa.array([], pa.int64())})
        if od.num_rows == 0 or "o_orderkey" not in od.column_names:
            return empty
        ok = np.unique(od.column("o_orderkey").to_numpy())
        lk = (li.column("l_orderkey").to_numpy()
              if li.num_rows and "l_orderkey" in li.column_names
              else np.array([], np.int64))
        pos = np.searchsorted(ok, lk)
        hit = (pos < len(ok)) & (ok[np.minimum(pos, len(ok) - 1)] == lk)
        counts = np.zeros(len(ok), np.int64)
        np.add.at(counts, pos[hit], 1)
        sz, n = np.unique(counts, return_counts=True)
        return pa.table({"n_lines": pa.array(sz.astype(np.int64)),
                         "n_orders": pa.array(n.astype(np.int64))})

    parts = gather_concat(
        exchange_reduce([lo, oo], ["l_orderkey", "o_orderkey"], size_kernel)
    )
    if parts.num_rows == 0:
        return pa.table({"n_lines": pa.array([], pa.int64()),
                         "n_orders": pa.array([], pa.int64())})
    g = (parts.group_by(["n_lines"]).aggregate([("n_orders", "sum")])
         .rename_columns(["n_lines", "n_orders"]))
    return finalize(g, [("n_lines", "ascending")])


def brand_return_rates(sf_dir: str) -> pa.Table:
    """Return-rate league table per part brand — the supplier-quality
    screen (which brands come back marked 'R'): lineitem partials
    (partkey, lines, returns) co-partition with the part dimension on
    partkey, each partition tags brands and folds a fixed-cardinality
    (brand, n, nret) census, the driver closes exact basis points."""
    import ray

    from .exchange import exchange_reduce

    rd = _rd()
    empty = pa.table({"p_brand": pa.array([], pa.string()),
                      "n_lines": pa.array([], pa.int64()),
                      "n_returned": pa.array([], pa.int64()),
                      "return_bp": pa.array([], pa.int64())})

    def li_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"l_partkey": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64()),
                             "nret": pa.array([], pa.int64())})
        ret = pc.equal(t.column("l_returnflag"), "R").cast(pa.int64())
        g = pa.table({
            "l_partkey": t.column("l_partkey"),
            "n": pa.array(np.ones(t.num_rows, np.int64)),
            "nret": ret,
        }).group_by(["l_partkey"]).aggregate([("n", "sum"), ("nret", "sum")])
        return g.rename_columns(["l_partkey", "n", "nret"])

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_returnflag"]
    ).map_batches(li_partial, batch_format="pyarrow")
    part = rd.read_parquet(f"{sf_dir}/part.parquet",
                           columns=["p_partkey", "p_brand"])

    def brand_kernel(pid: int, lt: pa.Table, pt: pa.Table) -> pa.Table:
        empty_k = pa.table({"p_brand": pa.array([], pa.string()),
                            "n": pa.array([], pa.int64()),
                            "nret": pa.array([], pa.int64())})
        if lt.num_rows == 0 or pt.num_rows == 0 \
                or "l_partkey" not in lt.column_names:
            return empty_k
        j = lt.join(pt.select(["p_partkey", "p_brand"]),
                    keys="l_partkey", right_keys="p_partkey",
                    join_type="inner")
        g = j.group_by(["p_brand"]).aggregate(
            [("n", "sum"), ("nret", "sum")])
        return g.rename_columns(["p_brand", "n", "nret"])

    parts = ray.get(exchange_reduce(
        [li, part], ["l_partkey", "p_partkey"], brand_kernel))
    live = [t for t in parts if t.num_rows]
    if not live:
        return empty
    g = (pa.concat_tables(live).group_by(["p_brand"])
         .aggregate([("n", "sum"), ("nret", "sum")])
         .rename_columns(["p_brand", "n", "nret"]))
    n = g.column("n").to_numpy()
    nr = g.column("nret").to_numpy()
    out = pa.table({
        "p_brand": g.column("p_brand"),
        "n_lines": pa.array(n.astype(np.int64)),
        "n_returned": pa.array(nr.astype(np.int64)),
        "return_bp": pa.array(10_000 * nr // n, pa.int64()),
    })
    return finalize(out, [("p_brand", "ascending")])


def user_lifetime_hist(sf_dir: str) -> pa.Table:
    """User-lifetime histogram: days between each user's first and last
    event, bucketed exactly — the engagement-longevity profile behind
    retention planning (distinct from retention_cohorts' week matrix).
    The user-keyed exchange completes each user's (min, max) in one
    partition; partitions fold (days, n_users) histograms, driver sums
    P × distinct-lifetimes rows."""
    import ray

    from .exchange import exchange_reduce, gather_concat

    rd = _rd()

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "lo": pa.array([], pa.int64()),
                             "hi": pa.array([], pa.int64())})
        ts = t.column("ts").to_numpy().astype(np.int64)
        g = pa.table({"user_id": t.column("user_id"),
                      "lo": pa.array(ts, pa.int64()),
                      "hi": pa.array(ts, pa.int64())}
                     ).group_by(["user_id"]).aggregate(
            [("lo", "min"), ("hi", "max")])
        return g.rename_columns(["user_id", "lo", "hi"])

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts"]
                         ).map_batches(partial, batch_format="pyarrow")

    def life_kernel(pid: int, t: pa.Table) -> pa.Table:
        empty_k = pa.table({"lifetime_days": pa.array([], pa.int64()),
                            "n_users": pa.array([], pa.int64())})
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return empty_k
        g = t.group_by(["user_id"]).aggregate(
            [("lo", "min"), ("hi", "max")])
        days = (g.column("hi_max").to_numpy()
                - g.column("lo_min").to_numpy()) // _US_PER_DAY_I
        d, c = np.unique(days, return_counts=True)
        return pa.table({"lifetime_days": pa.array(d.astype(np.int64)),
                         "n_users": pa.array(c.astype(np.int64))})

    parts = gather_concat(exchange_reduce([ds], ["user_id"], life_kernel))
    if parts.num_rows == 0:
        return pa.table({"lifetime_days": pa.array([], pa.int64()),
                         "n_users": pa.array([], pa.int64())})
    g = (parts.group_by(["lifetime_days"]).aggregate([("n_users", "sum")])
         .rename_columns(["lifetime_days", "n_users"]))
    return finalize(g, [("lifetime_days", "ascending")])


_VDT_SHIFT = 7  # fixed 128-cent buckets: data-independent, exact


def value_drift_tv(sf_dir: str) -> pa.Table:
    """Temporal drift monitor: per event type, the exact total-variation
    distance between the value distribution of the FIRST and SECOND
    half of the time range (split at the midpoint day, data-derived
    but deterministic), over fixed 128-cent buckets — the
    train/serve-skew check run before trusting a model trained on old
    events. Cross-multiplied integers end-to-end
    (``tv_micro = 10⁶·Σ_b |c1·N2 − c2·N1| // (2·N1·N2)``).

    Shape: one tiny (min, max) day fold fixes the split; batches emit
    (type, half, bucket, n) partials; the fixed-cardinality fold closes
    per-type sums on the driver — no shuffle of row data."""
    from ._util import fold_partials

    import ray

    rd = _rd()
    empty = pa.table({"event_type": pa.array([], pa.string()),
                      "n_first": pa.array([], pa.int64()),
                      "n_second": pa.array([], pa.int64()),
                      "tv_micro": pa.array([], pa.int64())})

    @ray.remote
    def day_range(t: pa.Table):
        if t.num_rows == 0 or "ts" not in t.column_names:
            return None
        d = t.column("ts").to_numpy().astype(np.int64) // _US_PER_DAY_I
        return (int(d.min()), int(d.max()))

    base = rd.read_parquet(f"{sf_dir}/events.parquet",
                           columns=["event_type", "ts", "value"])
    refs = arrow_refs(base)
    rngs = [r for r in ray.get([day_range.remote(r) for r in refs]) if r]
    if not rngs:
        return empty
    lo = min(r[0] for r in rngs)
    hi = max(r[1] for r in rngs)
    mid = (lo + hi) // 2  # first half: day <= mid

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"event_type": pa.array([], pa.string()),
                             "half": pa.array([], pa.int64()),
                             "bucket": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        day = t.column("ts").to_numpy().astype(np.int64) // _US_PER_DAY_I
        g = pa.table({
            "event_type": t.column("event_type"),
            "half": pa.array((day > mid).astype(np.int64), pa.int64()),
            "bucket": pa.array(
                _cents(t.column("value")) >> _VDT_SHIFT, pa.int64()),
            "n": pa.array(np.ones(t.num_rows, np.int64)),
        }).group_by(["event_type", "half", "bucket"]).aggregate([("n", "sum")])
        return g.rename_columns(["event_type", "half", "bucket", "n"])

    t = fold_partials(base.map_batches(partial, batch_format="pyarrow"),
                      ["event_type", "half", "bucket"], [("n", "sum")],
                      ["event_type", "half", "bucket", "n"])
    if t.num_columns == 0 or t.num_rows == 0:
        return empty
    df = t.to_pandas()
    rows = []
    for ty, g in df.groupby("event_type"):
        p = g.pivot_table(index="bucket", columns="half", values="n",
                          aggfunc="sum", fill_value=0)
        c1 = p[0].to_numpy().astype(object) if 0 in p else np.zeros(len(p), object)
        c2 = p[1].to_numpy().astype(object) if 1 in p else np.zeros(len(p), object)
        n1, n2 = int(sum(c1)), int(sum(c2))
        if n1 == 0 or n2 == 0:
            rows.append((ty, n1, n2, 1_000_000 if (n1 or n2) else 0))
            continue
        s = int(sum(abs(int(a) * n2 - int(b) * n1) for a, b in zip(c1, c2)))
        rows.append((ty, n1, n2, (1_000_000 * s) // (2 * n1 * n2)))
    rows.sort()
    return pa.table({
        "event_type": pa.array([r[0] for r in rows], pa.string()),
        "n_first": pa.array([r[1] for r in rows], pa.int64()),
        "n_second": pa.array([r[2] for r in rows], pa.int64()),
        "tv_micro": pa.array([r[3] for r in rows], pa.int64()),
    })


def exit_rates(sf_dir: str) -> pa.Table:
    """Session-exit census: for each event type, how often an
    occurrence is the LAST thing its user ever does (exact micro rate
    n_exits / n_events) — the churn-surface ranking a funnel owner
    reads next to event_transitions' dangling mass. The user-keyed
    exchange completes each stream; partitions elect the (ts,
    event_id)-max exit event and fold BOTH the per-type exit and
    occurrence censuses in one pass (fixed cardinality)."""
    import ray

    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "event_id", "event_type"])

    def kernel(pid: int, t: pa.Table) -> pa.Table:
        empty_k = pa.table({"event_type": pa.array([], pa.string()),
                            "n_events": pa.array([], pa.int64()),
                            "n_exits": pa.array([], pa.int64())})
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return empty_k
        u = t.column("user_id").to_numpy()
        ts = t.column("ts").to_numpy().astype(np.int64)
        eid = t.column("event_id").to_numpy()
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, u))
        u, et = u[order], et[order]
        last = np.r_[u[1:] != u[:-1], True]  # stream tails
        types, counts = np.unique(et, return_counts=True)
        e_types, e_counts = np.unique(et[last], return_counts=True)
        ex = dict(zip(e_types.tolist(), e_counts.tolist()))
        return pa.table({
            "event_type": pa.array(types, pa.string()),
            "n_events": pa.array(counts.astype(np.int64)),
            "n_exits": pa.array(
                [int(ex.get(x, 0)) for x in types.tolist()], pa.int64()),
        })

    parts = gather_concat(exchange_reduce([ds], ["user_id"], kernel))
    if parts.num_rows == 0:
        return pa.table({"event_type": pa.array([], pa.string()),
                         "n_events": pa.array([], pa.int64()),
                         "n_exits": pa.array([], pa.int64()),
                         "exit_micro": pa.array([], pa.int64())})
    g = (parts.group_by(["event_type"])
         .aggregate([("n_events", "sum"), ("n_exits", "sum")])
         .rename_columns(["event_type", "n_events", "n_exits"]))
    n = g.column("n_events").to_numpy()
    x = g.column("n_exits").to_numpy()
    out = pa.table({
        "event_type": g.column("event_type"),
        "n_events": pa.array(n.astype(np.int64)),
        "n_exits": pa.array(x.astype(np.int64)),
        "exit_micro": pa.array(1_000_000 * x // n, pa.int64()),
    })
    return finalize(out, [("event_type", "ascending")])


def repeat_share_monthly(sf_dir: str) -> pa.Table:
    """New-vs-repeat order mix per calendar month — the customer-base
    maturation curve (a falling repeat share means acquisition is
    outpacing retention). An order is REPEAT iff its customer placed an
    earlier order under the total (o_orderdate, o_orderkey) order (ties
    deterministic). The custkey exchange completes each customer's
    history; partitions mark first orders vectorized and fold a
    (month, n, n_repeat) census the driver sums."""
    import ray

    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    ds = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_custkey", "o_orderkey", "o_orderdate"])

    def kernel(pid: int, t: pa.Table) -> pa.Table:
        empty_k = pa.table({"month": pa.array([], pa.int64()),
                            "n_orders": pa.array([], pa.int64()),
                            "n_repeat": pa.array([], pa.int64())})
        if t.num_rows == 0 or "o_custkey" not in t.column_names:
            return empty_k
        ck = t.column("o_custkey").to_numpy()
        ok = t.column("o_orderkey").to_numpy()
        od = t.column("o_orderdate").to_numpy().astype(
            "datetime64[us]").view(np.int64)
        order = np.lexsort((ok, od, ck))
        ck, ok, od = ck[order], ok[order], od[order]
        repeat = np.r_[False, ck[1:] == ck[:-1]]
        dt = od.view("datetime64[us]").astype("datetime64[M]")
        month = (dt.astype(np.int64) + 1970 * 12)  # months since year 0
        g = pa.table({
            "month": pa.array(month, pa.int64()),
            "n_orders": pa.array(np.ones(len(month), np.int64)),
            "n_repeat": pa.array(repeat.astype(np.int64)),
        }).group_by(["month"]).aggregate(
            [("n_orders", "sum"), ("n_repeat", "sum")])
        return g.rename_columns(["month", "n_orders", "n_repeat"])

    parts = gather_concat(exchange_reduce([ds], ["o_custkey"], kernel))
    if parts.num_rows == 0:
        return pa.table({"month": pa.array([], pa.int64()),
                         "n_orders": pa.array([], pa.int64()),
                         "n_repeat": pa.array([], pa.int64()),
                         "repeat_bp": pa.array([], pa.int64())})
    g = (parts.group_by(["month"])
         .aggregate([("n_orders", "sum"), ("n_repeat", "sum")])
         .rename_columns(["month", "n_orders", "n_repeat"]))
    n = g.column("n_orders").to_numpy()
    r = g.column("n_repeat").to_numpy()
    out = pa.table({
        "month": g.column("month"),
        "n_orders": pa.array(n.astype(np.int64)),
        "n_repeat": pa.array(r.astype(np.int64)),
        "repeat_bp": pa.array(10_000 * r // n, pa.int64()),
    })
    return finalize(out, [("month", "ascending")])
