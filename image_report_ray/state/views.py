"""Materialized views over the CDC lake.

A registered view is a pure function ``state_partition -> summary table``
computed BY THE PARTITION WRITER (``manifest.stage_partition``): every
writer that stages a full state file (a compaction, a GC/expiry rewrite,
a migration) computes each view in full over that state and stages it
under a deterministic name; the commit record then publishes state and
view files in ONE atomic rename — the view can never be observed
inconsistent with the state it summarizes (and Ray task retries
overwrite the same staged paths, so exactly-once carries over
unchanged). There is one path: a view never patches an older view
file, so a view a writer stages is always exact for the state it
stages with it, even after epochs that ran without views.

Freshness contract: with ``compact_every=1`` every epoch compacts, so
views are exact after every commit. Delta epochs skip the view (a delta
alone cannot produce it); the manifest carries the last written view
files forward, so a view read between compactions reflects the last
compaction point — the standard materialized-view lag of merge-on-read
lakes. A compaction run without views carries the older view forward
the same way, so until the next writer with views it is served as of
its own epoch (``cli validate`` checks only views staged with their
entry).

Views need unsalted routing: pid routing then keeps a conversation in
one partition, so each partition's view rows are globally final and the
lake's view is the partitions' view files concatenated
(:func:`read_view`). A salted lake spreads a hot conversation over
partitions, which would commit partial rows; ``apply_epoch`` rejects
views on one.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .merge import _live_payload


def conv_summary_view(state: pa.Table) -> pa.Table:
    """Per-conversation live turn count + last timestamp — the flagship
    derived view."""
    g = _live_payload(state).group_by(["conv_id"]).aggregate(
        [([], "count_all"), ("ts", "max")])
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
    g = _live_payload(state).group_by(["conv_id", "role"]).aggregate(
        [([], "count_all")])
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

# Per-view key columns: the canonical row order of a view file. Every
# registered view is a per-conversation aggregate, unique on its keys,
# so this order is total and a view's bytes depend only on the state.
VIEW_KEYS = {
    "conv_summary": [("conv_id", "ascending")],
    "role_counts": [("conv_id", "ascending"), ("role", "ascending")],
}


def sort_view(name: str, vt: pa.Table) -> pa.Table:
    """Canonical row order for a view table (``VIEW_KEYS``), so view
    files stay byte-identical across re-runs and group-by orders."""
    if vt.num_rows == 0:
        return vt
    return vt.take(pc.sort_indices(vt, sort_keys=VIEW_KEYS[name]))


def maintain_view(name: str, state: pa.Table) -> pa.Table:
    """View ``name`` over a partition's full ``state``, in canonical row
    order: what every partition writer stages, and what ``cli
    validate`` recomputes. ``state`` needs no order and may hold
    tombstones (count and max ignore row order)."""
    return sort_view(name, VIEW_REGISTRY[name](state))


def read_view(lake, name: str) -> pa.Table:
    """The lake's committed view ``name``: its partitions' view files
    concatenated in pid order (each in its view's key order), or an
    empty table with the view's schema when every file is empty. Raises
    ``KeyError`` when no partition carries the view. A partition's file
    is as of its last writer with views: a delta epoch or a compaction
    run without views carries it forward (see the freshness contract)."""
    files = lake.current_view_files(name)
    if not files:
        raise KeyError(f"no committed view {name!r} in this lake")
    from .manifest import read_state_file  # manifest imports this module

    tabs = [read_state_file(p) for _, p in sorted(files.items())]
    nonempty = [t for t in tabs if t.num_rows]
    if not nonempty:
        return tabs[0].schema.empty_table()
    return pa.concat_tables(nonempty, promote_options="default")
