"""Materialized views over the CDC lake.

A registered view is a pure function ``state_partition -> summary table``
computed BY THE PARTITION WRITER (``manifest.stage_partition``). The
views are lake config: a lake declares its set when it is made
(``Lake(..., views=...)``, recorded in ``_lake.json`` like P and the
salt keys), and changing the set is a migration (``reshard_lake``).
Every writer that stages a whole partition state (a compaction, a
partition's first file, a GC/expiry rewrite, a migration) computes each
declared view in full over that state and stages it under a
deterministic name; the commit record then publishes state and view
files in ONE atomic rename — the view can never be observed
inconsistent with the state it summarizes (and Ray task retries
overwrite the same staged paths, so exactly-once carries over
unchanged). There is one path: a view never patches an older view
file, so a view a writer stages is always exact for the state it
stages with it.

Freshness contract: a view is exact at each whole-state write. With
``compact_every=1`` every epoch compacts, so views are exact after
every commit. A merge-on-read delta alone cannot produce the view, so
a delta entry carries its partition's last view (staged with the
composition's base file): a view read between compactions reflects the
partition's last whole-state write — the standard materialized-view
lag of merge-on-read lakes. Every current partition carries every
declared view, so :func:`read_view` is never partial.

Views need unsalted routing: pid routing then keeps a conversation in
one partition, so each partition's view rows are globally final and the
lake's view is the partitions' view files concatenated
(:func:`read_view`). A salted lake spreads a hot conversation over
partitions, which would commit partial rows; ``Lake`` rejects views on
one.
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
    ``KeyError`` for a name the lake does not declare, or before its
    first commit. A partition's file is as of its last whole-state
    write: a delta carries it forward (see the freshness contract)."""
    if name not in lake.views:
        raise KeyError(f"lake declares no view {name!r} "
                       f"(declared: {list(lake.views)})")
    files = lake.current_view_files(name)
    if not files:
        raise KeyError(f"no committed view {name!r} in this lake")
    from .manifest import read_state_file  # manifest imports this module

    tabs = [read_state_file(p) for _, p in sorted(files.items())]
    nonempty = [t for t in tabs if t.num_rows]
    if not nonempty:
        return tabs[0].schema.empty_table()
    return pa.concat_tables(nonempty, promote_options="default")
