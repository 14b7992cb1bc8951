"""Materialized views over the CDC lake.

A registered view is a pure function ``state_partition -> summary table``
maintained BY THE MERGE ITSELF: when a partition writes a full
(compacted) state file, the same task computes the view over the
post-merge state and stages it under a deterministic name; the commit
record then publishes state and view files in ONE atomic rename — the
view can never be observed inconsistent with the state it summarizes
(and Ray task retries overwrite the same staged paths, so exactly-once
carries over unchanged).

Freshness contract: with ``compact_every=1`` every epoch compacts, so
views are exact after every commit. Delta epochs skip the view (a delta
alone cannot produce it); the manifest carries the last written view
files forward, so a view read between compactions reflects the last
compaction point — the standard materialized-view lag of merge-on-read
lakes. GC/expiry rewrites and migrations recompute every view the lake
carries over the state they write, in the same partition writer.
"""

from __future__ import annotations

import pyarrow as pa

from .merge import export_canonical


def conv_summary_view(state: pa.Table) -> pa.Table:
    """Per-conversation live turn count + last timestamp — the flagship
    derived view (pid routing keeps a conversation in one partition, so
    each partition's summary rows are globally final)."""
    t = export_canonical(state)
    if t.num_rows == 0:
        return pa.table(
            {"conv_id": pa.array([], pa.string()),
             "n_turns": pa.array([], pa.int64()),
             "last_ts": pa.array([], pa.timestamp("us"))}
        )
    g = t.group_by(["conv_id"]).aggregate([([], "count_all"), ("ts", "max")])
    return pa.table(
        {
            "conv_id": g.column("conv_id"),
            "n_turns": g.column("count_all").cast(pa.int64()),
            "last_ts": g.column("ts_max").cast(pa.timestamp("us")),
        }
    )


def role_counts_view(state: pa.Table) -> pa.Table:
    """Live turn count per (conversation, role) — the per-speaker
    activity view."""
    t = export_canonical(state)
    if t.num_rows == 0:
        return pa.table(
            {"conv_id": pa.array([], pa.string()),
             "role": pa.array([], pa.string()),
             "n_turns": pa.array([], pa.int64())}
        )
    g = t.group_by(["conv_id", "role"]).aggregate([([], "count_all")])
    return pa.table(
        {
            "conv_id": g.column("conv_id"),
            "role": g.column("role"),
            "n_turns": g.column("count_all").cast(pa.int64()),
        }
    )


VIEW_REGISTRY = {
    "conv_summary": conv_summary_view,
    "role_counts": role_counts_view,
}

# Per-view key columns: every registered view is a per-conversation
# aggregate whose rows are independent across conv_id — the property
# incremental maintenance relies on (recompute ONLY the touched
# conversations, carry every other row from the previous view file).
VIEW_KEYS = {
    "conv_summary": [("conv_id", "ascending")],
    "role_counts": [("conv_id", "ascending"), ("role", "ascending")],
}


def sort_view(name: str, vt: pa.Table) -> pa.Table:
    """Canonical row order for a view table — both the full and the
    incremental maintenance path emit this order, so view files stay
    byte-identical across re-runs regardless of which path produced
    them."""
    import pyarrow.compute as pc

    if vt.num_rows == 0:
        return vt
    return vt.take(pc.sort_indices(vt, sort_keys=VIEW_KEYS[name]))


def maintain_view(
    name: str,
    state: pa.Table,
    prior_view: "pa.Table | None" = None,
    affected: "pa.Array | None" = None,
) -> pa.Table:
    """Compute a view over post-merge ``state`` — incrementally when the
    previous view file and the set of conversations touched since it are
    known: recompute the view ONLY over the affected conversations'
    state rows and carry every untouched conversation's row forward from
    ``prior_view``. Cost scales with the delta (one vectorized
    membership scan over the state + an aggregate over the touched
    subset), matching the MOR O(delta) story; without a prior view the
    full aggregate runs. Both paths return the canonical sorted order,
    so their outputs are interchangeable bit-for-bit."""
    import pyarrow.compute as pc

    fn = VIEW_REGISTRY[name]
    if prior_view is None or affected is None:
        return sort_view(name, fn(state))
    touched = pc.is_in(state.column("conv_id"), value_set=affected)
    fresh = fn(state.filter(touched))
    keep = prior_view.filter(
        pc.invert(pc.is_in(prior_view.column("conv_id"), value_set=affected))
    )
    return sort_view(
        name, pa.concat_tables([keep, fresh], promote_options="default")
    )
