"""Driver-facing CDC queries: changelog derived from the ``events`` table
(see ``sources/wal.py``) replayed through the REAL engine — lake, manifest,
lineage and all — with the final state returned for the DuckDB
window-function oracle to check.

State queries share ONE committed lake per replay variant (full / dups /
evolve / two-epoch split) through the content-fingerprinted cache
(:mod:`..cache`) — in production the lake persists and queries read it;
rebuilding the identical replay per query was bench-isolation overhead,
not engine work. Published lakes are immutable; regenerating the events
parquet in place rebuilds every variant.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .. import cache
from ..config import EngineConfig
from ..pipelines.cdc import (
    apply_epoch,
    canonical_state_table,
    map_partitions,
    per_partition,
    split_stage,
)
from ..sources.wal import changelog_dataset, events_to_changelog, max_event_id
from ..state.manifest import Lake
from ..state.views import read_view
from ._util import arrow_refs, finalize

_P = 8  # partitions for the query-scale lakes


def _shared_lake(sf_dir: str, variant: str, build, views: tuple = ()) -> Lake:
    """Return the committed lake for ``variant``, building it once.

    ``build(lake)`` runs the replay (choosing its own EngineConfig)
    into the cache's private build dir, a lake declaring ``views``;
    queries only fold the published lake. The entry's params name the
    view set, so a lake cached without it is never served."""
    params = f"P={_P}" + (f" views={','.join(views)}" if views else "")
    path = cache.entry(f"lake-{variant}", sf_dir, "events.parquet", params)
    cache.get_or_build(
        path, lambda tmp: build(Lake(tmp, num_partitions=_P, views=views)),
        lambda _: None,
    )
    return Lake(path, num_partitions=_P)


def _full_lake(sf_dir: str) -> Lake:
    """The whole changelog replayed as one committed epoch."""

    def build(lake: Lake) -> None:
        apply_epoch(lake, 0, changelog_dataset(sf_dir),
                    EngineConfig(num_partitions=_P))

    return _shared_lake(sf_dir, "full", build)


def _split_lake(sf_dir: str) -> Lake:
    """The changelog replayed as TWO epochs split at the halfway
    event_id — epoch 0 is readable via the ``as_of=0`` snapshot."""
    import ray.data as rd

    thr = (max_event_id(sf_dir) + 1) // 2

    def build(lake: Lake) -> None:
        cfg = EngineConfig(num_partitions=_P)
        src = lambda: rd.read_parquet(  # noqa: E731
            f"{sf_dir}/events.parquet",
            columns=["event_id", "ts", "user_id", "event_type", "props"],
        )
        apply_epoch(lake, 0, src().map_batches(
            lambda t: events_to_changelog(
                t.filter(pc.less(t.column("event_id"), thr))
            ),
            batch_format="pyarrow",
        ), cfg)
        apply_epoch(lake, 1, src().map_batches(
            lambda t: events_to_changelog(
                t.filter(pc.greater_equal(t.column("event_id"), thr))
            ),
            batch_format="pyarrow",
        ), cfg)

    return _shared_lake(sf_dir, "split2", build)


def cdc_apply(sf_dir: str) -> pa.Table:
    """LWW-apply the full derived changelog; return the materialized state."""
    return canonical_state_table(_full_lake(sf_dir))


def cdc_apply_dups(sf_dir: str) -> pa.Table:
    """Same, but ~1/7 of events are delivered twice (exactly-once check:
    the result must equal the duplicate-free replay)."""
    import ray.data as rd

    def go(lake, cfg):
        base = changelog_dataset(sf_dir)
        def every_seventh(t: pa.Table) -> pa.Table:
            eid = t.column("event_id")
            if isinstance(eid, pa.ChunkedArray):
                eid = eid.combine_chunks()
            mask = (eid.to_numpy(zero_copy_only=False) % 7) == 0
            return events_to_changelog(t.filter(pa.array(mask)))

        dup_events = rd.read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "ts", "user_id", "event_type", "props"],
        ).map_batches(every_seventh, batch_format="pyarrow")
        apply_epoch(lake, 0, base.union(dup_events), cfg)

    def build(lake: Lake) -> None:
        go(lake, EngineConfig(num_partitions=_P))

    return canonical_state_table(_shared_lake(sf_dir, "dups", build))


def cdc_apply_evolve(sf_dir: str) -> pa.Table:
    """Two-epoch replay with an additive ``meta`` column appearing in the
    second half of the log — exercises unify + null-fill through the real
    commit path."""
    import ray.data as rd

    thr = (max_event_id(sf_dir) + 1) // 2

    def go(lake, cfg):
        src = lambda: rd.read_parquet(  # noqa: E731
            f"{sf_dir}/events.parquet",
            columns=["event_id", "ts", "user_id", "event_type", "props"],
        )
        early = src().map_batches(
            lambda t: events_to_changelog(
                t.filter(pc.less(t.column("event_id"), thr))
            ),
            batch_format="pyarrow",
        )
        late = src().map_batches(
            lambda t: events_to_changelog(
                t.filter(pc.greater_equal(t.column("event_id"), thr)),
                evolve_from_lsn=thr,
            ),
            batch_format="pyarrow",
        )
        apply_epoch(lake, 0, early, cfg)
        apply_epoch(lake, 1, late, cfg)

    def build(lake: Lake) -> None:
        go(lake, EngineConfig(num_partitions=_P))

    return canonical_state_table(_shared_lake(sf_dir, "evolve", build))


def cdc_conv_summary(sf_dir: str) -> pa.Table:
    """Per-conversation summary of the REPLAYED state: live turn count,
    last timestamp — the derived-view query a transcript lake serves.

    Runs the real engine, then aggregates PER LAKE PARTITION: one remote
    task per partition LWW-folds its own base+delta files and computes
    its conversations' summaries locally (the pid routing guarantees a
    conversation never spans partitions, so each fold is complete). The
    driver concatenates only the per-partition summary rows — the
    canonical state itself is never materialized in one process."""
    import ray

    def summarize(lake):
        def part_summary(paths: list) -> pa.Table:
            from image_report_ray.state.manifest import read_canonical

            t = read_canonical(paths)
            if t is None:
                return pa.table({})
            g = t.group_by(["conv_id"]).aggregate(
                [([], "count_all"), ("ts", "max")]
            )
            return pa.table(
                {
                    "conv_id": g.column("conv_id"),
                    "n_turns": g.column("count_all").cast(pa.int64()),
                    "last_ts": g.column("ts_max"),
                }
            )

        tabs = [t for t in ray.get(map_partitions(lake, part_summary)) if t.num_rows]
        if not tabs:
            return pa.table(
                {"conv_id": pa.array([], pa.string()),
                 "n_turns": pa.array([], pa.int64()),
                 "last_ts": pa.array([], pa.timestamp("us"))}
            )
        return pa.concat_tables(tabs, promote_options="default")

    t = summarize(_full_lake(sf_dir))
    return finalize(t, [("conv_id", "ascending")])


def cdc_conv_summary_view(sf_dir: str) -> pa.Table:
    """Same answer as :func:`cdc_conv_summary`, but MATERIALIZED BY THE
    ENGINE: the replay's lake declares the ``conv_summary`` view
    (``Lake(views=...)``), so each partition's merge task computes
    its summary over the post-merge state and the commit publishes state
    + view atomically (state/views.py). The query then just reads the
    committed view files — no post-hoc aggregation pass at all. Shares
    the batch query's SQL oracle: the materialized view must equal the
    recomputed answer."""

    def build(lake: Lake) -> None:
        apply_epoch(lake, 0, changelog_dataset(sf_dir),
                    EngineConfig(num_partitions=_P))

    lake = _shared_lake(sf_dir, "full-views", build, ("conv_summary",))
    return finalize(read_view(lake, "conv_summary"), [("conv_id", "ascending")])


def cdc_counts(sf_dir: str, epoch_size: int = 2500) -> pa.Table:
    """Per-(epoch, op) event counts — the lineage op-profile aggregate.

    Per-batch Arrow hash-group-by folds each batch to one row per
    (epoch, op) (the combiner discipline); the fixed tiny cardinality
    (epochs x 3 ops) folds on the driver — no shuffle."""
    from ._util import fold_partials

    def partial(t: pa.Table) -> pa.Table:
        ep = pc.divide(t.column("lsn"), epoch_size)
        g = pa.table({"epoch": ep, "op": t.column("op")}).group_by(
            ["epoch", "op"]
        ).aggregate([([], "count_all")])
        return g.rename_columns(["epoch", "op", "n_part"])

    ds = changelog_dataset(sf_dir).map_batches(partial, batch_format="pyarrow")
    t = fold_partials(ds, ["epoch", "op"], [("n_part", "sum")],
                      ["epoch", "op", "n"])
    t = t.set_column(t.column_names.index("n"), "n", t.column("n").cast(pa.int64()))
    return finalize(t, [("epoch", "ascending"), ("op", "ascending")])


def cdc_loop_detect(sf_dir: str) -> pa.Table:
    """Agent-loop detection over the REPLAYED state: per conversation,
    how many live turns repeat the exact text of an EARLIER turn in the
    same conversation — the stuck-agent / retry-storm hygiene signal a
    transcript lake serves before training on tool-use traces.

    Same scale shape as :func:`cdc_conv_summary`: the real engine
    replays the changelog, then one remote task per lake partition
    LWW-folds its own files and detects loops locally (pid routing
    keeps a conversation inside one partition, so first-occurrence
    ranking per (conv_id, text) is complete per task). The kernel is
    one vectorized pandas ``duplicated`` over the canonical
    (conv_id, turn_idx)-sorted state — first occurrence = smallest
    turn_idx, exactly the SQL twin's ROW_NUMBER rule — plus a
    run-length fold on the already-sorted conv_id. Only per-conv
    summary rows reach the driver."""
    import ray

    def detect(lake):
        def part_loops(paths: list) -> pa.Table:
            import numpy as np
            import pandas as pd

            from image_report_ray.state.manifest import read_canonical

            t = read_canonical(paths)  # sorted by (conv_id, turn_idx)
            if t is None:
                return pa.table({})
            conv = t.column("conv_id").to_numpy(zero_copy_only=False)
            dup = pd.DataFrame(
                {"c": conv,
                 "t": t.column("text").to_numpy(zero_copy_only=False)}
            ).duplicated(subset=["c", "t"]).to_numpy()
            # conv_id is sorted: run-length boundaries give the groups
            bounds = np.flatnonzero(
                np.r_[True, conv[1:] != conv[:-1]]
            )
            n_turns = np.diff(np.r_[bounds, len(conv)]).astype(np.int64)
            n_looped = np.add.reduceat(dup.astype(np.int64), bounds)
            return pa.table(
                {
                    "conv_id": pa.array(conv[bounds]),
                    "n_turns": pa.array(n_turns, pa.int64()),
                    "n_looped": pa.array(n_looped, pa.int64()),
                }
            )

        tabs = [t for t in ray.get(map_partitions(lake, part_loops)) if t.num_rows]
        if not tabs:
            return pa.table(
                {"conv_id": pa.array([], pa.string()),
                 "n_turns": pa.array([], pa.int64()),
                 "n_looped": pa.array([], pa.int64())}
            )
        return pa.concat_tables(tabs, promote_options="default")

    t = detect(_full_lake(sf_dir))
    n_turns = t.column("n_turns").to_numpy()
    n_looped = t.column("n_looped").to_numpy()
    t = t.append_column(
        "loop_bp", pa.array((n_looped * 10000) // n_turns, pa.int64())
    ).append_column("looped", pa.array(n_looped > 0))
    return finalize(t, [("conv_id", "ascending")])


def cdc_role_stats(sf_dir: str) -> pa.Table:
    """Per-conversation role balance over the REPLAYED state: user /
    assistant / tool turn counts, tool-call count (``tool`` non-null),
    and total transcript characters — the turn-mix profile a training
    pipeline uses to weight agentic vs chat data. Same partition-local
    fold as :func:`cdc_conv_summary`: each lake partition LWW-folds its
    own files and computes its conversations' profiles with one Arrow
    group_by; only per-conv rows reach the driver."""
    import ray

    def profile(lake):
        def part_profile(paths: list) -> pa.Table:
            import pyarrow.compute as pc

            from image_report_ray.state.manifest import read_canonical

            t = read_canonical(paths)
            if t is None:
                return pa.table({})
            role = t.column("role")
            aug = pa.table(
                {
                    "conv_id": t.column("conv_id"),
                    "is_user": pc.equal(role, "user").cast(pa.int64()),
                    "is_assistant": pc.equal(role, "assistant").cast(pa.int64()),
                    "is_tool_role": pc.equal(role, "tool").cast(pa.int64()),
                    "has_tool": t.column("tool").is_valid().cast(pa.int64()),
                    "n_chars": pc.utf8_length(t.column("text")).cast(pa.int64()),
                }
            )
            g = aug.group_by(["conv_id"]).aggregate(
                [("is_user", "sum"), ("is_assistant", "sum"),
                 ("is_tool_role", "sum"), ("has_tool", "sum"),
                 ("n_chars", "sum"), ([], "count_all")]
            )
            return pa.table(
                {
                    "conv_id": g.column("conv_id"),
                    "n_turns": g.column("count_all").cast(pa.int64()),
                    "n_user": g.column("is_user_sum"),
                    "n_assistant": g.column("is_assistant_sum"),
                    "n_tool_role": g.column("is_tool_role_sum"),
                    "n_tool_calls": g.column("has_tool_sum"),
                    "total_chars": g.column("n_chars_sum"),
                }
            )

        tabs = [t for t in ray.get(map_partitions(lake, part_profile)) if t.num_rows]
        if not tabs:
            return pa.table(
                {"conv_id": pa.array([], pa.string()),
                 "n_turns": pa.array([], pa.int64()),
                 "n_user": pa.array([], pa.int64()),
                 "n_assistant": pa.array([], pa.int64()),
                 "n_tool_role": pa.array([], pa.int64()),
                 "n_tool_calls": pa.array([], pa.int64()),
                 "total_chars": pa.array([], pa.int64())}
            )
        return pa.concat_tables(tabs, promote_options="default")

    t = profile(_full_lake(sf_dir))
    agentic = pc.greater(t.column("n_tool_calls"), 0)
    t = t.append_column("agentic", agentic)
    return finalize(t, [("conv_id", "ascending")])


# Above this many distinct state text-hashes the broadcast side stops
# being sane and membership routes through the keyed exchange (state
# fingerprints co-partitioned with incoming postings on the hash).
_INCDEDUP_MAX_BROADCAST = 50_000_000


def cdc_incremental_dedup(
    sf_dir: str, max_broadcast_hashes: int = _INCDEDUP_MAX_BROADCAST
) -> pa.Table:
    """Incremental dedup against COMMITTED state: the first half of the
    changelog replays through the real engine, then every second-half
    insert/update is checked for exact-text membership in the epoch-0
    final state — the "have we already ingested this turn's text"
    hygiene gate a continuous-ingest pipeline runs before training-data
    export. Texts compare via the SQL-reproducible ``hash_utf8_64`` so
    the DuckDB twin is bit-exact.

    Scale shape: state fingerprints are extracted PER LAKE PARTITION
    (one remote fold per partition emits its distinct text hashes —
    never the state itself); while the fingerprint set fits
    ``max_broadcast_hashes`` it ships once via ``ray.put`` and each
    incoming batch does one sorted-membership pass (zero shuffle).
    Above the gate, incoming (hash, lsn) postings and fingerprint
    hashes co-partition on the hash through the keyed exchange and each
    partition emits its verdict rows — driver state is O(P) outputs."""
    import numpy as np
    import ray
    import ray.data as rd

    from ..pipelines.dedup import _member_sorted, hash_utf8_64
    from ..sources.wal import max_event_id

    thr = (max_event_id(sf_dir) + 1) // 2
    # epoch-0 state = the shared two-epoch lake's as_of=0 time-travel
    # snapshot (identical by construction to an epoch-0-only replay)
    lake = _split_lake(sf_dir)

    def part_fingerprints(paths: list) -> pa.Table:
        import numpy as np

        from image_report_ray.pipelines.dedup import hash_utf8_64
        from image_report_ray.state.manifest import read_canonical

        t = read_canonical(paths)
        if t is None:
            return pa.table({"h": pa.array([], pa.uint64())})
        txt = t.column("text")
        h = np.unique(hash_utf8_64(txt))
        return pa.table({"h": pa.array(h, pa.uint64())})

    fp_refs = map_partitions(lake, part_fingerprints, as_of=0)

    def incoming(t: pa.Table) -> pa.Table:
        ch = events_to_changelog(
            t.filter(pc.greater_equal(t.column("event_id"), thr))
        )
        ch = ch.filter(pc.not_equal(ch.column("op"), "D"))
        return pa.table(
            {
                "lsn": ch.column("lsn"),
                "conv_id": ch.column("conv_id"),
                "turn_idx": ch.column("turn_idx"),
                "h": pa.array(hash_utf8_64(ch.column("text")), pa.uint64()),
            }
        )

    inc = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type", "props"],
    ).map_batches(incoming, batch_format="pyarrow")

    # gate WITHOUT gathering the fingerprints: count remotely, fetch the
    # tables only on the broadcast branch (the exchange branch consumes
    # the refs in place — the driver never holds the fingerprint set)
    nrows = ray.remote(lambda t: t.num_rows)
    n_fp = sum(ray.get([nrows.remote(r) for r in fp_refs]))

    if n_fp > max_broadcast_hashes:
        # 100 TB route: membership co-partitioned on the text hash
        from .exchange import exchange_reduce, gather_concat

        def member(pid: int, postings: pa.Table, fps: pa.Table) -> pa.Table:
            if postings.num_rows == 0 or "lsn" not in postings.column_names:
                return pa.table(
                    {"lsn": pa.array([], pa.int64()),
                     "conv_id": pa.array([], pa.string()),
                     "turn_idx": pa.array([], pa.int32()),
                     "dup_of_state": pa.array([], pa.bool_())}
                )
            h = postings.column("h").to_numpy().astype(np.uint64)
            if fps.num_rows and "h" in fps.column_names:
                evh = np.unique(fps.column("h").to_numpy().astype(np.uint64))
            else:
                evh = np.zeros(0, np.uint64)
            return pa.table(
                {
                    "lsn": postings.column("lsn"),
                    "conv_id": postings.column("conv_id"),
                    "turn_idx": postings.column("turn_idx"),
                    "dup_of_state": pa.array(_member_sorted(h, evh)),
                }
            )

        t = gather_concat(
            exchange_reduce([inc, fp_refs], ["h", "h"], member)
        )
    else:
        fp_tables = ray.get(fp_refs)
        fp_sorted = (
            np.sort(
                np.concatenate(
                    [t.column("h").to_numpy().astype(np.uint64)
                     for t in fp_tables]
                )
            )
            if n_fp
            else np.zeros(0, np.uint64)
        )
        fp_ref = ray.put(fp_sorted)

        def verdict(t: pa.Table) -> pa.Table:
            fps = ray.get(fp_ref)
            h = t.column("h").to_numpy().astype(np.uint64)
            return pa.table(
                {
                    "lsn": t.column("lsn"),
                    "conv_id": t.column("conv_id"),
                    "turn_idx": t.column("turn_idx"),
                    "dup_of_state": pa.array(_member_sorted(h, fps)),
                }
            )

        from ._util import ds_to_table

        t = ds_to_table(inc.map_batches(verdict, batch_format="pyarrow"))
    return finalize(t, [("lsn", "ascending")])


def cdc_state_diff(sf_dir: str) -> pa.Table:
    """Snapshot diff via TIME-TRAVEL reads: replay the changelog as two
    committed epochs, then compare the epoch-0 snapshot (manifest
    ``as_of=0``) against the current state — per conversation, how many
    turns were added, removed, modified (text changed) or unchanged by
    the second half of the log. Data files are immutable (GC/compaction
    supersede via manifests, never delete), so the as-of file set always
    resolves.

    Partition-local like every state query here: pid routing is stable
    across epochs, so one remote task per partition folds BOTH of its
    snapshots and diffs them with a vectorized outer merge; only
    per-conversation count rows reach the driver."""
    import ray

    lake = _split_lake(sf_dir)

    def part_diff(paths0: list, paths1: list) -> pa.Table:
        import numpy as np
        import pandas as pd

        from image_report_ray.state.manifest import read_canonical

        def snap(paths: list) -> pd.DataFrame:
            t = read_canonical(paths)
            if t is None:
                return pd.DataFrame(
                    {"conv_id": pd.Series([], dtype="object"),
                     "turn_idx": pd.Series([], dtype="int64"),
                     "text": pd.Series([], dtype="object")}
                )
            return pd.DataFrame(
                {"conv_id": t.column("conv_id").to_numpy(zero_copy_only=False),
                 "turn_idx": t.column("turn_idx").to_numpy().astype("int64"),
                 "text": t.column("text").to_numpy(zero_copy_only=False)}
            )

        m = snap(paths0).merge(
            snap(paths1), on=["conv_id", "turn_idx"], how="outer",
            suffixes=("_0", "_1"), indicator=True,
        )
        # presence = key membership in the snapshot (merge indicator),
        # NOT text-nullness — a live row with NULL text must still count
        in0 = m["_merge"] != "right_only"
        in1 = m["_merge"] != "left_only"
        both = in0 & in1
        same = (m["text_0"] == m["text_1"]) | (
            m["text_0"].isna() & m["text_1"].isna()
        )
        m["added"] = (~in0 & in1).astype("int64")
        m["removed"] = (in0 & ~in1).astype("int64")
        m["modified"] = (both & ~same).astype("int64")
        m["unchanged"] = (both & same).astype("int64")
        g = m.groupby("conv_id", sort=False)[
            ["added", "removed", "modified", "unchanged"]
        ].sum().reset_index()
        return pa.table(
            {
                "conv_id": pa.array(g["conv_id"], pa.string()),
                "n_added": pa.array(g["added"], pa.int64()),
                "n_removed": pa.array(g["removed"], pa.int64()),
                "n_modified": pa.array(g["modified"], pa.int64()),
                "n_unchanged": pa.array(g["unchanged"], pa.int64()),
            }
        )

    sets0 = lake.current_file_sets(as_of=0)
    sets1 = lake.current_file_sets()
    refs = per_partition(part_diff, [
        (sets0.get(pid, []), sets1.get(pid, []))
        for pid in sorted(set(sets0) | set(sets1))
    ])
    tabs = [t for t in ray.get(refs) if t.num_rows]
    if not tabs:
        t = pa.table(
            {"conv_id": pa.array([], pa.string()),
             "n_added": pa.array([], pa.int64()),
             "n_removed": pa.array([], pa.int64()),
             "n_modified": pa.array([], pa.int64()),
             "n_unchanged": pa.array([], pa.int64())}
        )
    else:
        t = pa.concat_tables(tabs, promote_options="default")
    changed = pc.or_(
        pc.or_(pc.greater(t.column("n_added"), 0),
               pc.greater(t.column("n_removed"), 0)),
        pc.greater(t.column("n_modified"), 0),
    )
    t = t.append_column("changed", changed)
    return finalize(t, [("conv_id", "ascending")])


def cdc_tool_transitions(sf_dir: str) -> pa.Table:
    """Tool-use transition profile over the REPLAYED state: for every
    conversation, the tool-call subsequence (turns with non-null
    ``tool``, in turn order) contributes its adjacent (tool_a ->
    tool_b) pairs; output is the corpus-wide transition count table —
    the Markov profile used to spot degenerate tool loops in agent
    traces. Each partition computes its transition partials vectorized
    (boolean masks over the already-sorted canonical state); the tool
    vocabulary is fixed-cardinality, so the driver folds O(tools^2)
    rows with one Arrow group_by."""
    import ray

    def mine(lake):
        def part_trans(paths: list) -> pa.Table:
            import numpy as np

            from image_report_ray.state.manifest import read_canonical

            t = read_canonical(paths)  # sorted (conv_id, turn_idx)
            if t is None:
                return pa.table({})
            mask = t.column("tool").is_valid().to_numpy(zero_copy_only=False)
            conv = t.column("conv_id").to_numpy(zero_copy_only=False)[mask]
            tool = t.column("tool").to_numpy(zero_copy_only=False)[mask]
            if len(tool) < 2:
                return pa.table({})
            adj = conv[:-1] == conv[1:]
            pairs = pa.table(
                {"tool_a": pa.array(tool[:-1][adj]),
                 "tool_b": pa.array(tool[1:][adj])}
            )
            g = pairs.group_by(["tool_a", "tool_b"]).aggregate([([], "count_all")])
            return g.rename_columns(["tool_a", "tool_b", "n_part"])

        tabs = [t for t in ray.get(map_partitions(lake, part_trans)) if t.num_rows]
        if not tabs:
            return pa.table(
                {"tool_a": pa.array([], pa.string()),
                 "tool_b": pa.array([], pa.string()),
                 "n": pa.array([], pa.int64())}
            )
        allp = pa.concat_tables(tabs, promote_options="default")
        g = allp.group_by(["tool_a", "tool_b"]).aggregate([("n_part", "sum")])
        return pa.table(
            {"tool_a": g.column("tool_a"), "tool_b": g.column("tool_b"),
             "n": g.column("n_part_sum").cast(pa.int64())}
        )

    t = mine(_full_lake(sf_dir))
    return finalize(t, [("tool_a", "ascending"), ("tool_b", "ascending")])


def cdc_flatten_transcripts(sf_dir: str) -> pa.Table:
    """Render the REPLAYED state as training documents: one row per
    conversation with its turns concatenated in order as
    ``role: text`` lines — the export step between the transcript lake
    and the tokenizer. Partition-local like the other state queries
    (conversations never span partitions): each fold task builds its
    conversations' documents with one prefix-concat + reduceat join
    over the already-sorted canonical state; only the finished
    documents reach the driver."""
    import ray

    def flatten(lake):
        def part_flatten(paths: list) -> pa.Table:
            import numpy as np

            from image_report_ray.state.manifest import read_canonical

            t = read_canonical(paths)  # sorted (conv_id, turn_idx)
            if t is None:
                return pa.table({})
            conv = t.column("conv_id").to_numpy(zero_copy_only=False)
            role = t.column("role").to_numpy(zero_copy_only=False)
            text = t.column("text").to_numpy(zero_copy_only=False)
            lines = (role.astype(object) + ": ") + text.astype(object)
            bounds = np.flatnonzero(np.r_[True, conv[1:] != conv[:-1]])
            n_turns = np.diff(np.r_[bounds, len(conv)]).astype(np.int64)
            # join each conversation's lines with newlines: reduceat on
            # the object array (groups are turn-bounded, so the concat
            # stays linear in practice)
            with_nl = lines + "\n"
            docs = np.add.reduceat(with_nl, bounds)
            docs = np.array([d[:-1] for d in docs], dtype=object)
            return pa.table(
                {
                    "conv_id": pa.array(conv[bounds]),
                    "doc_text": pa.array(docs, pa.string()),
                    "n_turns": pa.array(n_turns, pa.int64()),
                }
            )

        tabs = [t for t in ray.get(map_partitions(lake, part_flatten)) if t.num_rows]
        if not tabs:
            return pa.table(
                {"conv_id": pa.array([], pa.string()),
                 "doc_text": pa.array([], pa.string()),
                 "n_turns": pa.array([], pa.int64())}
            )
        return pa.concat_tables(tabs, promote_options="default")

    t = flatten(_full_lake(sf_dir))
    t = t.append_column(
        "n_chars", pc.utf8_length(t.column("doc_text")).cast(pa.int64())
    )
    return finalize(t, [("conv_id", "ascending")])


# Conversation-level keep thresholds for the transcript export: a
# conversation whose repeated-turn ratio exceeds this is a stuck agent.
_EXPORT_MAX_LOOP_BP = 2000


def cdc_export_conversations(sf_dir: str) -> pa.Table:
    """The end-to-end transcript product: WAL -> replayed state ->
    flattened training documents -> conversation-level hygiene verdict.
    Each conversation renders as its ``role: text`` document and passes
    the SAME quality and repetition kernels the document pipelines use
    (shared module-level batch kernels) plus a stuck-agent gate (ratio
    of turns repeating an earlier turn's text). One partition-local
    pass: fold, flatten, gate — only (conv_id, flags) rows reach the
    driver, never the documents."""
    import ray

    def export(lake):
        def part_export(paths: list) -> pa.Table:
            import numpy as np
            import pandas as pd

            from image_report_ray.pipelines.text import (
                _quality_batch,
                _repetition_batch,
            )
            from image_report_ray.state.manifest import read_canonical

            t = read_canonical(paths)  # sorted (conv_id, turn_idx)
            if t is None:
                return pa.table({})
            conv = t.column("conv_id").to_numpy(zero_copy_only=False)
            role = t.column("role").to_numpy(zero_copy_only=False)
            text = t.column("text").to_numpy(zero_copy_only=False)
            bounds = np.flatnonzero(np.r_[True, conv[1:] != conv[:-1]])
            n_turns = np.diff(np.r_[bounds, len(conv)]).astype(np.int64)
            lines = (role.astype(object) + ": ") + text.astype(object) + "\n"
            docs = np.add.reduceat(lines, bounds)
            docs = np.array([d[:-1] for d in docs], dtype=object)
            dup = pd.DataFrame({"c": conv, "t": text}).duplicated(
                subset=["c", "t"]
            ).to_numpy()
            n_looped = np.add.reduceat(dup.astype(np.int64), bounds)

            fake = pa.table(
                {"doc_id": pa.array(conv[bounds]),
                 "text": pa.array(docs, pa.string())}
            )
            q = _quality_batch(fake)
            r = _repetition_batch(fake)
            # transcript quality = length + token-shape rules only: the
            # document pipelines' stopword prior does not transfer to
            # role-prefixed agent logs (they are not prose), so that
            # term is dropped from the conversation gate
            ntk = q.column("n_tokens").to_numpy()
            len_bp = q.column("mean_tok_len_bp").to_numpy()
            quality_ok = (ntk >= 10) & (ntk <= 1000) & (len_bp <= 120_000)
            loop_ok = (n_looped * 10000) // n_turns <= _EXPORT_MAX_LOOP_BP
            return pa.table(
                {
                    "conv_id": pa.array(conv[bounds]),
                    "n_turns": pa.array(n_turns, pa.int64()),
                    "quality_ok": pa.array(quality_ok),
                    "rep_ok": r.column("rep_ok"),
                    "loop_ok": pa.array(loop_ok),
                }
            )

        tabs = [t for t in ray.get(map_partitions(lake, part_export)) if t.num_rows]
        if not tabs:
            return pa.table(
                {"conv_id": pa.array([], pa.string()),
                 "n_turns": pa.array([], pa.int64()),
                 "quality_ok": pa.array([], pa.bool_()),
                 "rep_ok": pa.array([], pa.bool_()),
                 "loop_ok": pa.array([], pa.bool_())}
            )
        return pa.concat_tables(tabs, promote_options="default")

    t = export(_full_lake(sf_dir))
    keep = pc.and_(
        pc.and_(t.column("quality_ok"), t.column("rep_ok")),
        t.column("loop_ok"),
    )
    t = t.append_column("keep", keep)
    return finalize(t, [("conv_id", "ascending")])


def cdc_dedup_conversations(sf_dir: str) -> pa.Table:
    """Conversation-level exact dedup over the REPLAYED lake: flatten
    each conversation to its training document (the
    :func:`cdc_flatten_transcripts` rendering), then identical documents
    form a group whose minimum conv_id is canonical — the dedup step a
    transcript-lake export runs before tokenization (agent farms replay
    the same conversation under different ids all the time).

    Scale shape: document BODIES never leave the per-partition flatten
    task — only (128-bit content hash, conv_id, n_turns) rows enter the
    hash-keyed exchange, whose partitions hold every conversation with
    the same document and elect + assign the winner in ONE kernel (no
    broadcast, no second pass). Identity rides the same two-key
    pandas hash as :func:`..text.dedup_exact` (collision odds
    negligible, documented stance)."""
    import numpy as np
    import pandas as pd
    import ray

    from .exchange import exchange_reduce, gather_concat

    lake = _full_lake(sf_dir)

    def part_digest(paths: list) -> pa.Table:
        from image_report_ray.state.manifest import read_canonical

        empty = pa.table(
            {"h": pa.array([], pa.binary(16)),
             "conv_id": pa.array([], pa.string()),
             "n_turns": pa.array([], pa.int64())}
        )
        t = read_canonical(paths)  # sorted (conv_id, turn_idx)
        if t is None:
            return empty
        if t.num_rows == 0:
            return empty
        conv = t.column("conv_id").to_numpy(zero_copy_only=False)
        role = t.column("role").to_numpy(zero_copy_only=False)
        text = t.column("text").to_numpy(zero_copy_only=False)
        lines = (role.astype(object) + ": ") + text.astype(object) + "\n"
        bounds = np.flatnonzero(np.r_[True, conv[1:] != conv[:-1]])
        docs = np.add.reduceat(lines, bounds)
        docs = np.array([d[:-1] for d in docs], dtype=object)
        h1 = pd.util.hash_array(docs, hash_key="irrdedupexactkey")
        h2 = pd.util.hash_array(docs, hash_key="irrdedupexactTWO")
        dig = np.concatenate(
            [h1.astype(np.uint64).byteswap().view(np.uint8).reshape(-1, 8),
             h2.astype(np.uint64).byteswap().view(np.uint8).reshape(-1, 8)],
            axis=1,
        ).tobytes()
        return pa.table(
            {
                "h": pa.FixedSizeBinaryArray.from_buffers(
                    pa.binary(16), len(docs), [None, pa.py_buffer(dig)]
                ),
                "conv_id": pa.array(conv[bounds], pa.string()),
                "n_turns": pa.array(
                    np.diff(np.r_[bounds, len(conv)]).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    def winner_kernel(pid: int, t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"conv_id": pa.array([], pa.string()),
             "n_turns": pa.array([], pa.int64()),
             "canonical_conv_id": pa.array([], pa.string()),
             "keep": pa.array([], pa.bool_())}
        )
        if t.num_rows == 0 or "h" not in t.column_names:
            return empty
        df = t.to_pandas()
        winner = df.groupby("h")["conv_id"].transform("min")
        return pa.table(
            {
                "conv_id": pa.array(df["conv_id"], pa.string()),
                "n_turns": pa.array(
                    df["n_turns"].to_numpy().astype("int64"), pa.int64()
                ),
                "canonical_conv_id": pa.array(winner, pa.string()),
                "keep": pa.array((df["conv_id"] == winner).to_numpy()),
            }
        )

    refs = map_partitions(lake, part_digest)
    t = gather_concat(exchange_reduce([refs], ["h"], winner_kernel))
    if t.num_rows == 0 or "conv_id" not in t.column_names:
        return pa.table(
            {"conv_id": pa.array([], pa.string()),
             "n_turns": pa.array([], pa.int64()),
             "canonical_conv_id": pa.array([], pa.string()),
             "keep": pa.array([], pa.bool_())}
        )
    return finalize(t, [("conv_id", "ascending")])


def _version_hist_kernel(pid: int, t: pa.Table) -> pa.Table:
    """Per conv-hash partition: each change event's validity interval —
    valid until the key's NEXT event (null for the key's current
    version). A key's whole history co-locates here, so the shift is
    partition-complete."""
    empty = pa.table(
        {"lsn": pa.array([], pa.int64()),
         "conv_id": pa.array([], pa.string()),
         "turn_idx": pa.array([], pa.int32()),
         "op": pa.array([], pa.string()),
         "valid_to_lsn": pa.array([], pa.int64())}
    )
    if t.num_rows == 0 or "conv_id" not in t.column_names:
        return empty
    import numpy as np

    conv = t.column("conv_id").to_numpy(zero_copy_only=False)
    turn = t.column("turn_idx").to_numpy()
    lsn = t.column("lsn").to_numpy()
    order = np.lexsort((lsn, turn, conv))
    conv, turn, lsn = conv[order], turn[order], lsn[order]
    same_key = (conv[1:] == conv[:-1]) & (turn[1:] == turn[:-1])
    nxt = np.zeros(len(lsn), np.int64)
    closed = np.r_[same_key, False]
    nxt[:-1][same_key] = lsn[1:][same_key]
    return pa.table(
        {
            "lsn": pa.array(lsn, pa.int64()),
            "conv_id": pa.array(conv, pa.string()),
            "turn_idx": pa.array(turn.astype(np.int32), pa.int32()),
            "op": t.column("op").take(pa.array(order)),
            "valid_to_lsn": pa.array(nxt, pa.int64(), mask=~closed),
        }
    )


def cdc_version_history(sf_dir: str) -> pa.Table:
    """SCD2-style version history straight off the changelog: every
    change event with the lsn at which its key's NEXT event supersedes
    it (null = still the current version; D rows are the explicit
    closures). One conv-keyed exchange — a key's events co-locate, the
    next-lsn shift is one vectorized pass per partition. Exact twin:
    ``__ray_entry__`` ``cdc_version_history`` (LEAD over the changelog
    CTE)."""
    from .exchange import exchange_reduce, gather_concat

    ds = changelog_dataset(sf_dir).map_batches(
        lambda t: t.select(["lsn", "op", "conv_id", "turn_idx"]),
        batch_format="pyarrow",
    )
    refs = exchange_reduce([ds], ["conv_id"], _version_hist_kernel)
    return finalize(
        gather_concat(refs),
        [("conv_id", "ascending"), ("turn_idx", "ascending"),
         ("lsn", "ascending")],
    )


def cdc_conv_gaps(sf_dir: str) -> pa.Table:
    """Per-conversation inter-turn latency profile of the REPLAYED
    state: live turn count plus the sum and max of the microsecond gaps
    between consecutive turn_idx positions — the conversation-pacing
    signal (stuck agents, burst traffic) a transcript lake serves.

    Same scale shape as :func:`cdc_conv_summary`: one remote task per
    lake partition LWW-folds its own files and computes its
    conversations' gap stats locally (pid routing keeps a conversation
    in one partition; export_canonical's (conv_id, turn_idx) sort makes
    the shift partition-complete). Exact-integer output; single-turn
    conversations report 0/0. Twin: ``__ray_entry__``
    ``cdc_conv_gaps``."""
    import numpy as np
    import ray

    def part_gaps(paths: list) -> pa.Table:
        from image_report_ray.state.manifest import read_canonical

        t = read_canonical(paths)
        if t is None:
            return pa.table({})
        if t.num_rows == 0:
            return pa.table({})
        conv = t.column("conv_id").to_numpy(zero_copy_only=False)
        ts = t.column("ts").to_numpy().astype(np.int64)
        starts = np.flatnonzero(np.r_[True, conv[1:] != conv[:-1]])
        n_turns = np.diff(np.r_[starts, len(conv)]).astype(np.int64)
        same = conv[1:] == conv[:-1]
        gaps = np.where(same, ts[1:] - ts[:-1], 0)
        cg = np.r_[0, np.cumsum(gaps)]
        ends = np.r_[starts[1:], len(conv)]
        gap_sum = cg[ends - 1] - cg[starts]
        gmask = np.where(same, ts[1:] - ts[:-1], np.iinfo(np.int64).min)
        idx = np.minimum(starts, max(len(gmask) - 1, 0))
        gap_max = (
            np.maximum.reduceat(gmask, idx)
            if len(gmask)
            else np.zeros(len(starts), np.int64)
        )
        single = n_turns == 1
        gap_max = np.where(single, 0, gap_max)
        gap_sum = np.where(single, 0, gap_sum)
        return pa.table(
            {
                "conv_id": pa.array(conv[starts], pa.string()),
                "n_turns": pa.array(n_turns, pa.int64()),
                "gap_sum_us": pa.array(gap_sum, pa.int64()),
                "gap_max_us": pa.array(gap_max.astype(np.int64), pa.int64()),
            }
        )

    lake = _full_lake(sf_dir)
    tabs = [t for t in ray.get(map_partitions(lake, part_gaps)) if t.num_rows]
    if not tabs:
        return pa.table(
            {"conv_id": pa.array([], pa.string()),
             "n_turns": pa.array([], pa.int64()),
             "gap_sum_us": pa.array([], pa.int64()),
             "gap_max_us": pa.array([], pa.int64())}
        )
    return finalize(
        pa.concat_tables(tabs, promote_options="default"),
        [("conv_id", "ascending")],
    )


def cdc_tool_cooccurrence(sf_dir: str) -> pa.Table:
    """Unordered tool co-occurrence over the REPLAYED state: for every
    pair of tools (a < b), the number of conversations whose live turns
    invoke BOTH — the association-mining signal (which tools travel
    together) an agent-transcript lake serves.

    Scale shape: one remote task per lake partition LWW-folds its own
    files, takes the DISTINCT (conv_id, tool) set, and emits its
    conversations' pairs vectorized (conversations are
    partition-complete by pid routing, so a pair count is a clean
    partial). Per-partition partials are O(tools²) rows — tools is a
    fixed tiny vocabulary — and the driver finishes with one Arrow
    group_by fold, the :func:`_util.fold_partials` contract. Bodies
    never move; no exchange. Twin: ``__ray_entry__``
    ``cdc_tool_cooccurrence``."""
    import numpy as np
    import ray

    empty = pa.table(
        {"tool_a": pa.array([], pa.string()),
         "tool_b": pa.array([], pa.string()),
         "n_convs": pa.array([], pa.int64())}
    )

    def part_pairs(paths: list) -> pa.Table:
        from image_report_ray.state.manifest import read_canonical

        t = read_canonical(paths)
        if t is None:
            return pa.table({})
        t = t.filter(pc.is_valid(t.column("tool")))
        if t.num_rows == 0:
            return pa.table({})
        d = t.group_by(["conv_id", "tool"]).aggregate([([], "count_all")])
        d = d.take(
            pc.sort_indices(
                d,
                sort_keys=[("conv_id", "ascending"), ("tool", "ascending")],
            )
        )
        conv = d.column("conv_id").to_numpy(zero_copy_only=False)
        tool = d.column("tool").to_numpy(zero_copy_only=False)
        n = len(conv)
        starts = np.flatnonzero(np.r_[True, conv[1:] != conv[:-1]])
        ends = np.r_[starts[1:], n]
        grp = np.cumsum(np.r_[True, conv[1:] != conv[:-1]]) - 1
        # row p pairs (as the smaller tool) with the cf[p] rows after it
        # inside its conversation — tools are sorted within the group
        cf = ends[grp] - np.arange(n) - 1
        if int(cf.sum()) == 0:
            return pa.table({})
        a = np.repeat(np.arange(n), cf)
        off = np.arange(len(a)) - np.repeat(np.r_[0, np.cumsum(cf)[:-1]], cf) + 1
        b = a + off
        pairs = pa.table(
            {"tool_a": pa.array(tool[a], pa.string()),
             "tool_b": pa.array(tool[b], pa.string())}
        )
        g = pairs.group_by(["tool_a", "tool_b"]).aggregate([([], "count_all")])
        return pa.table(
            {"tool_a": g.column("tool_a"),
             "tool_b": g.column("tool_b"),
             "n_part": g.column("count_all").cast(pa.int64())}
        )

    lake = _full_lake(sf_dir)
    tabs = [t for t in ray.get(map_partitions(lake, part_pairs)) if t.num_rows]
    if not tabs:
        return empty
    allp = pa.concat_tables(tabs, promote_options="default")
    g = allp.group_by(["tool_a", "tool_b"]).aggregate([("n_part", "sum")])
    out = pa.table(
        {"tool_a": g.column("tool_a"),
         "tool_b": g.column("tool_b"),
         "n_convs": g.column("n_part_sum").cast(pa.int64())}
    )
    return finalize(
        out,
        [("n_convs", "descending"), ("tool_a", "ascending"),
         ("tool_b", "ascending")],
    )


def cdc_late_arrivals(sf_dir: str, epoch_size: int = 2500) -> pa.Table:
    """Watermark / late-data accounting over the changelog — the
    streaming-ingest health signal: per epoch, how many events carry a
    timestamp BELOW the watermark (the max event ts of all earlier
    epochs), plus the epoch's own closing max. Late shares tell an
    operator whether upstream producers reorder across epoch boundaries
    before the lake's LWW rule has to arbitrate.

    Two streamed passes, both per-batch combiners over a 2-column
    pruned read (:func:`cdc_counts`'s fold_partials contract — fixed
    tiny epoch cardinality, no shuffle): pass 1 folds per-epoch
    (count, max ts); the driver prefix-maxes O(epochs) ints into the
    exclusive watermark; pass 2 ships that tiny vector in the task
    closure and folds per-epoch late counts. Exact int64 microseconds
    everywhere. Twin: ``__ray_entry__`` ``cdc_late_arrivals``."""
    import numpy as np

    from ._util import fold_partials

    # tombstones (op = D) carry NO payload ts in the changelog — they
    # can neither set a watermark nor arrive late; counts include them
    def ep_stats(t: pa.Table) -> pa.Table:
        ep = pc.divide(t.column("lsn"), epoch_size)
        ts = t.column("ts").cast(pa.int64())
        g = pa.table({"epoch": ep, "ts_us": ts}).group_by(["epoch"]).aggregate(
            [([], "count_all"), ("ts_us", "max")]
        )
        return g.rename_columns(["epoch", "n_part", "max_part"])

    ds = changelog_dataset(sf_dir).map_batches(ep_stats, batch_format="pyarrow")
    stats = fold_partials(
        ds, ["epoch"], [("n_part", "sum"), ("max_part", "max")],
        ["epoch", "n_events", "ep_max"],
    )
    if stats.num_rows == 0:
        return pa.table(
            {"epoch": pa.array([], pa.int64()),
             "n_events": pa.array([], pa.int64()),
             "n_late": pa.array([], pa.int64()),
             "epoch_max_ts_us": pa.array([], pa.int64())}
        )
    stats = stats.take(pc.sort_indices(stats, sort_keys=[("epoch", "ascending")]))
    ep_arr = stats.column("epoch").to_numpy().astype(np.int64)
    lo = np.iinfo(np.int64).min
    # an epoch whose events are ALL tombstones has no max — surface -1
    ep_max = pc.fill_null(
        stats.column("ep_max").cast(pa.int64()), lo
    ).to_numpy().astype(np.int64)
    # exclusive prefix max: epoch 0 has no watermark yet — nothing is late
    wm_in = np.r_[lo, np.maximum.accumulate(ep_max)[:-1]]
    ep_max = np.where(ep_max == lo, -1, ep_max)

    def late_partial(t: pa.Table) -> pa.Table:
        ep = pc.divide(t.column("lsn"), epoch_size).to_numpy().astype(np.int64)
        ts = pc.fill_null(
            t.column("ts").cast(pa.int64()), np.iinfo(np.int64).max
        ).to_numpy().astype(np.int64)
        late = (ts < wm_in[np.searchsorted(ep_arr, ep)]).astype(np.int64)
        g = pa.table(
            {"epoch": pa.array(ep, pa.int64()),
             "late": pa.array(late, pa.int64())}
        ).group_by(["epoch"]).aggregate([("late", "sum")])
        return g.rename_columns(["epoch", "late_part"])

    ds2 = changelog_dataset(sf_dir).map_batches(
        late_partial, batch_format="pyarrow"
    )
    lates = fold_partials(ds2, ["epoch"], [("late_part", "sum")],
                          ["epoch", "n_late"])
    lates = lates.take(pc.sort_indices(lates, sort_keys=[("epoch", "ascending")]))
    assert lates.column("epoch").to_numpy().tolist() == ep_arr.tolist()
    out = pa.table(
        {"epoch": pa.array(ep_arr, pa.int64()),
         "n_events": stats.column("n_events").cast(pa.int64()),
         "n_late": lates.column("n_late").cast(pa.int64()),
         "epoch_max_ts_us": pa.array(ep_max, pa.int64())}
    )
    return finalize(out, [("epoch", "ascending")])


def _activity_split(t: pa.Table, P: int):
    """:func:`cdc_conv_activity`'s split: one batch's per-conv event
    partials (conv_id, n, max ts), routed by the lake's
    ``conv_hash % P``; counts the partials."""
    import numpy as np

    from ..stages.derive import conv_hash

    uid = t.column("user_id")
    if isinstance(uid, pa.ChunkedArray):
        uid = uid.combine_chunks()
    conv = np.char.add(
        "c", uid.to_numpy(zero_copy_only=False).astype("U20")
    )
    ts = t.column("ts").cast(pa.int64()).to_numpy()
    # per-batch combine before the split: one row per conv
    tb = pa.table(
        {"conv_id": pa.array(conv, pa.string()),
         "ts_us": pa.array(ts, pa.int64())}
    ).group_by(["conv_id"]).aggregate([([], "count_all"), ("ts_us", "max")])
    pid = conv_hash(tb.column("conv_id")) % P
    return tuple(tb.filter(pa.array(pid == p)) for p in range(P)), tb.num_rows


def cdc_conv_activity(sf_dir: str) -> pa.Table:
    """Enrich the REPLAYED lake with the raw event stream — the
    external-dimension join every lake serves (state ⋈ telemetry):
    per live conversation, its live turn count plus the owning user's
    total event count and last event timestamp.

    The join ships ZERO state: per-batch event partials
    (conv_id, n, max_ts) are split by the LAKE's own routing function
    (``derive.conv_hash % P``), so each partial lands exactly where its
    conversation's state already lives; one join per lake partition
    (:func:`per_partition`'s exchange mode) LWW-folds its files and
    attaches the aggregates locally. This is
    the alignment contract a production lake gives its consumers: reuse
    the state's partitioner and a state-side shuffle never happens."""
    import ray

    lake = _full_lake(sf_dir)
    sets = lake.current_file_sets()

    def part_join(paths: list, ev_parts: list) -> pa.Table:
        import numpy as np

        from image_report_ray.state.manifest import read_canonical

        empty = pa.table(
            {"conv_id": pa.array([], pa.string()),
             "n_turns": pa.array([], pa.int64()),
             "n_events": pa.array([], pa.int64()),
             "last_event_ts_us": pa.array([], pa.int64())}
        )
        st = read_canonical(paths)
        if st is None:
            return empty
        if st.num_rows == 0:
            return empty
        conv = pa.table({"conv_id": st.column("conv_id")}).group_by(
            ["conv_id"]
        ).aggregate([([], "count_all")])
        ev = pa.concat_tables(
            [e for e in ev_parts if e.num_rows], promote_options="default"
        ) if any(e.num_rows for e in ev_parts) else None
        if ev is None:
            return empty
        g = ev.group_by(["conv_id"]).aggregate(
            [("count_all", "sum"), ("ts_us_max", "max")]
        )
        ck = g.column("conv_id").to_numpy(zero_copy_only=False)
        order = np.argsort(ck)
        cv = conv.column("conv_id").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(ck[order], cv)
        if len(ck) == 0 or (ck[order][np.minimum(pos, len(ck) - 1)] != cv).any():
            raise ValueError(
                "live conversation without owner events — the changelog "
                "derives conv_id from event user_ids, this cannot happen"
            )
        take = order[pos]
        return pa.table(
            {"conv_id": conv.column("conv_id"),
             "n_turns": conv.column("count_all").cast(pa.int64()),
             "n_events": g.column("count_all_sum").take(take).cast(pa.int64()),
             "last_event_ts_us": g.column("ts_us_max_max").take(take).cast(
                 pa.int64())}
        )

    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    splits = split_stage(_activity_split, arrow_refs(ds), _P)
    refs = per_partition(part_join, [(sets.get(p, []),) for p in range(_P)],
                         exchange=splits)
    tabs = [t for t in ray.get(refs) if t.num_rows]
    if not tabs:
        return pa.table(
            {"conv_id": pa.array([], pa.string()),
             "n_turns": pa.array([], pa.int64()),
             "n_events": pa.array([], pa.int64()),
             "last_event_ts_us": pa.array([], pa.int64())}
        )
    return finalize(
        pa.concat_tables(tabs, promote_options="default"),
        [("conv_id", "ascending")],
    )


def cdc_conv_first_last(sf_dir: str) -> pa.Table:
    """FIRST_VALUE / LAST_VALUE over the REPLAYED state: per live
    conversation, the text of its first and last live turn (by
    turn_idx) — the opening-prompt / latest-reply projection a
    transcript UI serves.

    One remote task per lake partition: export_canonical's
    (conv_id, turn_idx) sort makes first = run start and last =
    run end — two gathers, no window machinery; conversations are
    partition-complete by pid routing."""
    import numpy as np
    import ray

    empty = pa.table(
        {"conv_id": pa.array([], pa.string()),
         "first_turn_idx": pa.array([], pa.int32()),
         "first_text": pa.array([], pa.string()),
         "last_turn_idx": pa.array([], pa.int32()),
         "last_text": pa.array([], pa.string())}
    )

    def part_fl(paths: list) -> pa.Table:
        from image_report_ray.state.manifest import read_canonical

        t = read_canonical(paths)
        if t is None:
            return pa.table({})
        if t.num_rows == 0:
            return pa.table({})
        conv = t.column("conv_id").to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.r_[True, conv[1:] != conv[:-1]])
        ends = np.r_[starts[1:], len(conv)] - 1
        return pa.table(
            {"conv_id": t.column("conv_id").take(pa.array(starts)),
             "first_turn_idx": t.column("turn_idx").take(pa.array(starts)),
             "first_text": t.column("text").take(pa.array(starts)),
             "last_turn_idx": t.column("turn_idx").take(pa.array(ends)),
             "last_text": t.column("text").take(pa.array(ends))}
        )

    lake = _full_lake(sf_dir)
    tabs = [t for t in ray.get(map_partitions(lake, part_fl)) if t.num_rows]
    if not tabs:
        return empty
    return finalize(
        pa.concat_tables(tabs, promote_options="default"),
        [("conv_id", "ascending")],
    )


def cdc_orphan_tombstones(sf_dir: str) -> pa.Table:
    """Changelog hygiene audit: per conversation, DELETE events whose
    key (conv_id, turn_idx) was never preceded by an INSERT/UPDATE —
    tombstones for rows that never existed (an upstream-CDC bug
    signature: dropped inserts, wrong key extraction, replay from a
    truncated log).

    One conv-keyed exchange of 4 narrow columns; a key's events are
    partition-complete so "no earlier I/U" closes locally via one
    lexsort + per-key first-op scan. O(convs-with-orphans) result
    rows. Twin: ``__ray_entry__`` ``cdc_orphan_tombstones``."""
    import numpy as np

    from .exchange import exchange_reduce, gather_concat

    empty = pa.table(
        {"conv_id": pa.array([], pa.string()),
         "n_orphan_deletes": pa.array([], pa.int64())}
    )

    def narrow(t: pa.Table) -> pa.Table:
        return t.select(["conv_id", "turn_idx", "lsn", "op"])

    def orphan_partition(pid: int, t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        conv = t.column("conv_id").to_numpy(zero_copy_only=False)
        turn = t.column("turn_idx").to_numpy()
        lsn = t.column("lsn").to_numpy()
        op = t.column("op").to_numpy(zero_copy_only=False)
        order = np.lexsort((lsn, turn, conv))
        conv, turn, op = conv[order], turn[order], op[order]
        new_key = np.r_[True, (conv[1:] != conv[:-1]) | (turn[1:] != turn[:-1])]
        key = np.cumsum(new_key) - 1
        # a D is orphan while its key has seen NO I/U yet (lsn order)
        upsert = (op == "I") | (op == "U")
        cum_up = np.cumsum(upsert)
        base = np.r_[0, cum_up[np.flatnonzero(new_key) - 1][1:]] if (
            new_key.sum() > 1) else np.zeros(1, np.int64)
        seen_before = (cum_up - upsert.astype(np.int64)) - base[key] > 0
        orphan = (op == "D") & ~seen_before
        if not orphan.any():
            return empty
        oc = conv[orphan]
        uu, cnt = np.unique(oc, return_counts=True)
        return pa.table(
            {"conv_id": pa.array(uu, pa.string()),
             "n_orphan_deletes": pa.array(cnt.astype(np.int64), pa.int64())}
        )

    ds = changelog_dataset(sf_dir).map_batches(narrow, batch_format="pyarrow")
    refs = exchange_reduce([ds], ["conv_id"], orphan_partition)
    t = gather_concat(refs)
    if t.num_rows == 0:
        return empty
    g = t.group_by(["conv_id"]).aggregate([("n_orphan_deletes", "sum")])
    out = pa.table(
        {"conv_id": g.column("conv_id"),
         "n_orphan_deletes": g.column("n_orphan_deletes_sum").cast(pa.int64())}
    )
    return finalize(out, [("conv_id", "ascending")])


# ---- overwrite-churn profiles off the changelog ---------------------------


def _select_key_cols(t):
    """Schema-less empty blocks (Ray may emit them through a map stage)
    carry no key rows — pass them through instead of crashing select."""
    import pyarrow as _pa

    if t.num_rows == 0 or "conv_id" not in t.column_names:
        return _pa.table({"conv_id": _pa.array([], _pa.string()),
                          "turn_idx": _pa.array([], _pa.int32())})
    return t.select(["conv_id", "turn_idx"])


def _key_version_counts_kernel(pid: int, t: pa.Table) -> pa.Table:
    """Per-partition (conv_id, turn_idx, versions) — a key's whole event
    history co-locates under the conv-keyed exchange, so the count is
    globally complete."""
    if t.num_rows == 0 or "conv_id" not in t.column_names:
        return pa.table({"conv_id": pa.array([], pa.string()),
                         "turn_idx": pa.array([], pa.int32()),
                         "v": pa.array([], pa.int64())})
    g = t.group_by(["conv_id", "turn_idx"]).aggregate([([], "count_all")])
    return pa.table({"conv_id": g.column("conv_id"),
                     "turn_idx": g.column("turn_idx"),
                     "v": g.column("count_all").cast(pa.int64())})


def cdc_edit_wars(sf_dir: str) -> pa.Table:
    """Per-conversation overwrite churn off the changelog: how many
    (conv, turn) keys exist, how many were written MORE than once
    (rewrites — upserts/deletes landing on an already-written turn), the
    deepest single-key version pile and total events. The edit-war
    profile that tells an agent-farm operator which conversations burn
    write amplification before they hit compaction.

    One conv-keyed exchange: a conversation's events co-locate, each
    partition folds its keys' version counts straight to per-conv rows
    — nothing but the final per-conversation profile leaves the
    partition. Exact twin: ``cdc_edit_wars`` (changelog CTE census)."""
    from .exchange import exchange_reduce, gather_concat

    ds = changelog_dataset(sf_dir).map_batches(
        _select_key_cols, batch_format="pyarrow",
    )

    def conv_kernel(pid: int, t: pa.Table) -> pa.Table:
        import numpy as np

        k = _key_version_counts_kernel(pid, t)
        if k.num_rows == 0:
            return pa.table({"conv_id": pa.array([], pa.string()),
                             "n_keys": pa.array([], pa.int64()),
                             "n_rewritten": pa.array([], pa.int64()),
                             "max_versions": pa.array([], pa.int64()),
                             "n_events": pa.array([], pa.int64())})
        v = k.column("v").to_numpy()
        k = k.append_column("rw", pa.array((v >= 2).astype(np.int64)))
        g = k.group_by(["conv_id"]).aggregate(
            [([], "count_all"), ("rw", "sum"), ("v", "max"), ("v", "sum")]
        )
        return pa.table({"conv_id": g.column("conv_id"),
                         "n_keys": g.column("count_all").cast(pa.int64()),
                         "n_rewritten": g.column("rw_sum").cast(pa.int64()),
                         "max_versions": g.column("v_max").cast(pa.int64()),
                         "n_events": g.column("v_sum").cast(pa.int64())})

    out = gather_concat(exchange_reduce([ds], ["conv_id"], conv_kernel))
    if out.num_rows == 0:
        return pa.table({"conv_id": pa.array([], pa.string()),
                         "n_keys": pa.array([], pa.int64()),
                         "n_rewritten": pa.array([], pa.int64()),
                         "max_versions": pa.array([], pa.int64()),
                         "n_events": pa.array([], pa.int64())})
    return finalize(out, [("conv_id", "ascending")])


def cdc_hot_keys(sf_dir: str, topn: int = 20) -> pa.Table:
    """The ``topn`` most-rewritten (conv, turn) keys in the changelog —
    the write-amplification hot list that feeds the salting advisory:
    these are exactly the keys whose partitions straggle at apply time.

    Same exchange as :func:`cdc_edit_wars`; each partition cuts its own
    top-``topn`` under the total (versions desc, conv asc, turn asc)
    order (a provable superset of the global cut) and the driver folds
    P×topn rows."""
    from .exchange import exchange_reduce, gather_concat

    ds = changelog_dataset(sf_dir).map_batches(
        _select_key_cols, batch_format="pyarrow",
    )

    def topk_kernel(pid: int, t: pa.Table) -> pa.Table:
        k = _key_version_counts_kernel(pid, t)
        if k.num_rows == 0:
            return k
        idx = pc.sort_indices(k, sort_keys=[
            ("v", "descending"), ("conv_id", "ascending"),
            ("turn_idx", "ascending")])
        return k.take(idx.slice(0, topn))

    cand = gather_concat(exchange_reduce([ds], ["conv_id"], topk_kernel))
    if cand.num_rows == 0:
        return pa.table({"conv_id": pa.array([], pa.string()),
                         "turn_idx": pa.array([], pa.int32()),
                         "versions": pa.array([], pa.int64())})
    idx = pc.sort_indices(cand, sort_keys=[
        ("v", "descending"), ("conv_id", "ascending"),
        ("turn_idx", "ascending")])
    top = cand.take(idx.slice(0, topn))
    return pa.table({"conv_id": top.column("conv_id"),
                     "turn_idx": top.column("turn_idx"),
                     "versions": top.column("v")})


def cdc_resurrections(sf_dir: str) -> pa.Table:
    """Delete→re-insert churn per conversation: how many times a turn
    that was tombstoned later came back (an I or U landing on a key
    whose LAST event was a D) — the lifecycle smell that tells a lake
    operator tombstone GC must respect the LWW order, and a sequence
    query the LWW merge itself never surfaces.

    One conv-keyed exchange: a key's whole history co-locates, the
    kernel sorts (conv, turn, lsn) and counts D→{I,U} adjacencies
    vectorized; only conversations with at least one resurrection leave
    the partition. Exact twin: ``cdc_resurrections`` (LAG over the
    changelog CTE)."""
    from .exchange import exchange_reduce, gather_concat

    def sel(t):
        if t.num_rows == 0 or "conv_id" not in t.column_names:
            return pa.table({"conv_id": pa.array([], pa.string()),
                             "turn_idx": pa.array([], pa.int32()),
                             "lsn": pa.array([], pa.int64()),
                             "op": pa.array([], pa.string())})
        return t.select(["conv_id", "turn_idx", "lsn", "op"])

    ds = changelog_dataset(sf_dir).map_batches(sel, batch_format="pyarrow")

    def kernel(pid: int, t: pa.Table) -> pa.Table:
        import numpy as np

        empty = pa.table({"conv_id": pa.array([], pa.string()),
                          "n_resurrections": pa.array([], pa.int64())})
        if t.num_rows == 0 or "conv_id" not in t.column_names:
            return empty
        conv = t.column("conv_id").to_numpy(zero_copy_only=False)
        turn = t.column("turn_idx").to_numpy()
        lsn = t.column("lsn").to_numpy()
        op = t.column("op").to_numpy(zero_copy_only=False)
        order = np.lexsort((lsn, turn, conv))
        conv, turn, op = conv[order], turn[order], op[order]
        same = (conv[1:] == conv[:-1]) & (turn[1:] == turn[:-1])
        res = same & (op[:-1] == "D") & ((op[1:] == "I") | (op[1:] == "U"))
        if not res.any():
            return empty
        rc = conv[1:][res]
        u, c = np.unique(rc, return_counts=True)
        return pa.table({"conv_id": pa.array(u, pa.string()),
                         "n_resurrections": pa.array(c.astype(np.int64))})

    out = gather_concat(exchange_reduce([ds], ["conv_id"], kernel))
    if out.num_rows == 0:
        return pa.table({"conv_id": pa.array([], pa.string()),
                         "n_resurrections": pa.array([], pa.int64())})
    return finalize(out, [("conv_id", "ascending")])


def cdc_epoch_text_growth(sf_dir: str, epoch_size: int = 2500) -> pa.Table:
    """Per-epoch ingest-volume series off the changelog: events, bytes
    of upsert payload text entering the lake, and the cumulative byte
    curve — the capacity dashboard (when does the lake cross X GB).
    Per-block combine folds to O(epochs-in-block) rows (blocks are
    contiguous lsn ranges, so a block spans few epochs); the driver
    folds O(epochs) rows — exactly the result's own cardinality — and
    closes the cumulative sum with one scan."""
    import numpy as np

    from ._util import ds_to_table

    empty = pa.table({"epoch": pa.array([], pa.int64()),
                      "n_events": pa.array([], pa.int64()),
                      "bytes_in": pa.array([], pa.int64()),
                      "bytes_cum": pa.array([], pa.int64())})

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "lsn" not in t.column_names:
            return pa.table({"epoch": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64())})
        lsn = t.column("lsn").to_numpy()
        op = t.column("op").to_numpy(zero_copy_only=False)
        txt = t.column("text")
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        nbytes = pc.binary_length(txt.cast(pa.binary())).to_numpy(
            zero_copy_only=False)
        nbytes = np.where(np.isin(op, ("I", "U")),
                          np.nan_to_num(nbytes.astype(np.float64)), 0.0
                          ).astype(np.int64)
        g = pa.table({"epoch": pa.array(lsn // epoch_size, pa.int64()),
                      "n": pa.array(np.ones(len(lsn), np.int64)),
                      "b": pa.array(nbytes, pa.int64())}
                     ).group_by(["epoch"]).aggregate(
            [("n", "sum"), ("b", "sum")])
        return g.rename_columns(["epoch", "n", "b"])

    ds = changelog_dataset(sf_dir).map_batches(partial, batch_format="pyarrow")
    t = ds_to_table(ds)
    if t.num_columns == 0 or t.num_rows == 0:
        return empty
    g = (t.group_by(["epoch"]).aggregate([("n", "sum"), ("b", "sum")])
         .rename_columns(["epoch", "n_events", "bytes_in"]))
    g = g.take(pc.sort_indices(g, sort_keys=[("epoch", "ascending")]))
    b = g.column("bytes_in").to_numpy()
    out = pa.table({"epoch": g.column("epoch").cast(pa.int64()),
                    "n_events": g.column("n_events").cast(pa.int64()),
                    "bytes_in": g.column("bytes_in").cast(pa.int64()),
                    "bytes_cum": pa.array(np.cumsum(b), pa.int64())})
    return finalize(out, [("epoch", "ascending")])


def cdc_dead_version_census(sf_dir: str) -> pa.Table:
    """Compaction-planning census off the changelog: how much of the
    event history is DEAD under LWW — superseded versions plus every
    version of finally-tombstoned keys — i.e. exactly the rows a full
    compaction would drop. One conv-keyed exchange; each partition
    reduces its keys to four int64 scalars (keys, events, dead
    versions, tombstoned keys); the driver sums P quadruples."""
    import numpy as np

    from .exchange import exchange_reduce

    import ray

    def sel(t):
        if t.num_rows == 0 or "conv_id" not in t.column_names:
            return pa.table({"conv_id": pa.array([], pa.string()),
                             "turn_idx": pa.array([], pa.int32()),
                             "lsn": pa.array([], pa.int64()),
                             "op": pa.array([], pa.string())})
        return t.select(["conv_id", "turn_idx", "lsn", "op"])

    ds = changelog_dataset(sf_dir).map_batches(sel, batch_format="pyarrow")

    def kernel(pid: int, t: pa.Table) -> pa.Table:
        empty = pa.table({k: pa.array([], pa.int64())
                          for k in ("n_keys", "n_events", "n_dead",
                                    "n_tombstoned")})
        if t.num_rows == 0 or "conv_id" not in t.column_names:
            return empty
        conv = t.column("conv_id").to_numpy(zero_copy_only=False)
        turn = t.column("turn_idx").to_numpy()
        lsn = t.column("lsn").to_numpy()
        op = t.column("op").to_numpy(zero_copy_only=False)
        order = np.lexsort((lsn, turn, conv))
        conv, turn, op = conv[order], turn[order], op[order]
        new_key = np.r_[True, (conv[1:] != conv[:-1]) | (turn[1:] != turn[:-1])]
        starts = np.flatnonzero(new_key)
        ends = np.r_[starts[1:], len(conv)] - 1
        v = ends - starts + 1
        dead_tomb = op[ends] == "D"
        n_dead = int((v - np.where(dead_tomb, 0, 1)).sum())
        return pa.table({
            "n_keys": pa.array([len(starts)], pa.int64()),
            "n_events": pa.array([len(conv)], pa.int64()),
            "n_dead": pa.array([n_dead], pa.int64()),
            "n_tombstoned": pa.array([int(dead_tomb.sum())], pa.int64()),
        })

    parts = [t for t in ray.get(exchange_reduce([ds], ["conv_id"], kernel))
             if t.num_rows]
    tot = [0, 0, 0, 0]
    for t in parts:
        for i, c in enumerate(("n_keys", "n_events", "n_dead", "n_tombstoned")):
            tot[i] += sum(t.column(c).to_pylist())
    return pa.table({"n_keys": pa.array([tot[0]], pa.int64()),
                     "n_events": pa.array([tot[1]], pa.int64()),
                     "n_dead_versions": pa.array([tot[2]], pa.int64()),
                     "n_tombstoned_keys": pa.array([tot[3]], pa.int64())})


def cdc_op_mix_by_role(sf_dir: str) -> pa.Table:
    """Changelog op mix per participant role (role × {I,U,D} counts) —
    which side of the conversation generates churn (tool-turn delete
    storms vs assistant edits). Fixed tiny cardinality: per-block
    combine + driver fold, no shuffle."""
    from ._util import ds_to_table

    empty = pa.table({"role": pa.array([], pa.string()),
                      "op": pa.array([], pa.string()),
                      "n": pa.array([], pa.int64())})

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "role" not in t.column_names:
            return pa.table({"role": pa.array([], pa.string()),
                             "op": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        # tombstones carry no payload: their null role folds under '-'
        role = pc.coalesce(t.column("role"), "-")
        g = pa.table({"role": role, "op": t.column("op")}
                     ).group_by(["role", "op"]).aggregate([([], "count_all")])
        return g.rename_columns(["role", "op", "n"])

    ds = changelog_dataset(sf_dir).map_batches(partial, batch_format="pyarrow")
    t = ds_to_table(ds)
    if t.num_columns == 0 or t.num_rows == 0:
        return empty
    g = (t.group_by(["role", "op"]).aggregate([("n", "sum")])
         .rename_columns(["role", "op", "n"]))
    g = pa.table({"role": g.column("role"), "op": g.column("op"),
                  "n": g.column("n").cast(pa.int64())})
    return finalize(g, [("role", "ascending"), ("op", "ascending")])


def cdc_conv_novelty(sf_dir: str, epoch_size: int = 2500) -> pa.Table:
    """Per-epoch conversation growth mix: how many ACTIVE conversations
    each epoch touches, split into NEW (first-ever event this epoch)
    vs RETURNING — the audience-growth curve of an agent-transcript
    stream. Conversations are partition-complete under the conv-keyed
    exchange, so each kernel closes its convs' (first epoch, active
    epoch set) and emits per-epoch partials; the driver folds O(epochs)
    rows."""
    import numpy as np

    from .exchange import exchange_reduce

    import ray

    empty = pa.table({"epoch": pa.array([], pa.int64()),
                      "n_active": pa.array([], pa.int64()),
                      "n_new": pa.array([], pa.int64()),
                      "n_returning": pa.array([], pa.int64())})

    def sel(t):
        if t.num_rows == 0 or "conv_id" not in t.column_names:
            return pa.table({"conv_id": pa.array([], pa.string()),
                             "lsn": pa.array([], pa.int64())})
        return t.select(["conv_id", "lsn"])

    ds = changelog_dataset(sf_dir).map_batches(sel, batch_format="pyarrow")

    def kernel(pid: int, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "conv_id" not in t.column_names:
            return pa.table({"epoch": pa.array([], pa.int64()),
                             "act": pa.array([], pa.int64()),
                             "new": pa.array([], pa.int64())})
        conv = t.column("conv_id").to_numpy(zero_copy_only=False)
        ep = t.column("lsn").to_numpy() // epoch_size
        order = np.lexsort((ep, conv))
        conv, ep = conv[order], ep[order]
        # distinct (conv, epoch), sorted by (conv, epoch)
        first_pair = np.r_[True, (conv[1:] != conv[:-1]) | (ep[1:] != ep[:-1])]
        conv, ep = conv[first_pair], ep[first_pair]
        conv_start = np.r_[True, conv[1:] != conv[:-1]]
        act_e, act_n = np.unique(ep, return_counts=True)
        new_e, new_n = np.unique(ep[conv_start], return_counts=True)
        new_map = dict(zip(new_e.tolist(), new_n.tolist()))
        return pa.table({
            "epoch": pa.array(act_e.astype(np.int64)),
            "act": pa.array(act_n.astype(np.int64)),
            "new": pa.array([new_map.get(e, 0) for e in act_e.tolist()],
                            pa.int64()),
        })

    parts = [t for t in ray.get(exchange_reduce([ds], ["conv_id"], kernel))
             if t.num_rows]
    if not parts:
        return empty
    g = (pa.concat_tables(parts).group_by(["epoch"])
         .aggregate([("act", "sum"), ("new", "sum")])
         .rename_columns(["epoch", "n_active", "n_new"]))
    act = g.column("n_active").to_numpy()
    new = g.column("n_new").to_numpy()
    out = pa.table({"epoch": g.column("epoch").cast(pa.int64()),
                    "n_active": pa.array(act.astype(np.int64)),
                    "n_new": pa.array(new.astype(np.int64)),
                    "n_returning": pa.array((act - new).astype(np.int64))})
    return finalize(out, [("epoch", "ascending")])


def cdc_role_bigrams(sf_dir: str) -> pa.Table:
    """Role-transition census over the REPLAYED live state — who follows
    whom inside conversations (the user→assistant→tool grammar check;
    a heavy assistant→assistant band means fragmented replies, missing
    user→assistant mass means orphaned prompts).

    One remote task per lake partition (conversations are
    partition-complete by pid routing): export_canonical's
    (conv_id, turn_idx) sort makes every adjacent pair visible
    locally; partials are O(roles²) fixed-cardinality rows the driver
    folds."""
    import numpy as np
    import ray

    empty = pa.table({"role_from": pa.array([], pa.string()),
                      "role_to": pa.array([], pa.string()),
                      "n": pa.array([], pa.int64())})

    def part_bigrams(paths: list) -> pa.Table:
        from image_report_ray.state.manifest import read_canonical

        t = read_canonical(paths)
        if t is None:
            return pa.table({})
        if t.num_rows < 2:
            return pa.table({})
        conv = t.column("conv_id").to_numpy(zero_copy_only=False)
        role = t.column("role").to_numpy(zero_copy_only=False)
        same = conv[1:] == conv[:-1]
        if not same.any():
            return pa.table({})
        g = pa.table({
            "role_from": pa.array(role[:-1][same], pa.string()),
            "role_to": pa.array(role[1:][same], pa.string()),
        }).group_by(["role_from", "role_to"]).aggregate([([], "count_all")])
        return pa.table({"role_from": g.column("role_from"),
                         "role_to": g.column("role_to"),
                         "n": g.column("count_all").cast(pa.int64())})

    lake = _full_lake(sf_dir)
    tabs = [t for t in ray.get(map_partitions(lake, part_bigrams)) if t.num_rows]
    if not tabs:
        return empty
    g = (pa.concat_tables(tabs).group_by(["role_from", "role_to"])
         .aggregate([("n", "sum")])
         .rename_columns(["role_from", "role_to", "n"]))
    return finalize(g, [("role_from", "ascending"), ("role_to", "ascending")])


_TLQ = ((1, 2, "p50_len"), (9, 10, "p90_len"))


def cdc_turn_len_quantiles(sf_dir: str) -> pa.Table:
    """Exact per-role P50/P90 of live-turn text length (bytes) over the
    replayed state — the context-budget profile (are tool outputs
    bloating? are user prompts shrinking?). The value_quantiles
    bounded-domain discipline on the lake: each partition folds a
    (role, len, n) histogram (distinct observed lengths, not rows),
    the driver closes cumulative ranks with the pure integer
    ``(q_num·n + q_den − 1) // q_den`` rule both sides share."""
    import numpy as np
    import ray

    empty = pa.table({"role": pa.array([], pa.string()),
                      "n_turns": pa.array([], pa.int64()),
                      **{nm: pa.array([], pa.int64()) for _, _, nm in _TLQ}})

    def part_hist(paths: list) -> pa.Table:
        import pyarrow.compute as pcc

        from image_report_ray.state.manifest import read_canonical

        t = read_canonical(paths)
        if t is None:
            return pa.table({})
        if t.num_rows == 0:
            return pa.table({})
        g = pa.table({
            "role": t.column("role"),
            "len": pcc.binary_length(t.column("text")).cast(pa.int64()),
        }).group_by(["role", "len"]).aggregate([([], "count_all")])
        return pa.table({"role": g.column("role"), "len": g.column("len"),
                         "n": g.column("count_all").cast(pa.int64())})

    lake = _full_lake(sf_dir)
    tabs = [t for t in ray.get(map_partitions(lake, part_hist)) if t.num_rows]
    if not tabs:
        return empty
    hist = (pa.concat_tables(tabs).group_by(["role", "len"])
            .aggregate([("n", "sum")]).rename_columns(["role", "len", "n"]))
    import pyarrow.compute as pcc

    hist = hist.take(pcc.sort_indices(
        hist, sort_keys=[("role", "ascending"), ("len", "ascending")]))
    role = hist.column("role").to_numpy(zero_copy_only=False)
    ln = hist.column("len").to_numpy()
    n = hist.column("n").to_numpy().astype(np.int64)
    starts = np.flatnonzero(np.r_[True, role[1:] != role[:-1]])
    ends = np.r_[starts[1:], len(role)]
    roles, totals = [], []
    cols = {nm: [] for _, _, nm in _TLQ}
    for s, e in zip(starts, ends):
        cum = np.cumsum(n[s:e])
        total = int(cum[-1])
        roles.append(role[s])
        totals.append(total)
        for qn, qd, nm in _TLQ:
            k = (qn * total + qd - 1) // qd
            cols[nm].append(int(ln[s:e][np.searchsorted(cum, k)]))
    return pa.table({"role": pa.array(roles, pa.string()),
                     "n_turns": pa.array(totals, pa.int64()),
                     **{nm: pa.array(v, pa.int64())
                        for nm, v in cols.items()}})


_RL_SHIFT = 26  # coarse bucket = 2^26 us ~= 67 s (the gap_quantiles dial)


def cdc_reply_latency(sf_dir: str, shift: int = _RL_SHIFT) -> pa.Table:
    """Assistant responsiveness over the REPLAYED state: exact P50/P90
    of the timestamp gap across adjacent user -> assistant turn pairs
    (the conversational SLO; negative gaps — a later writer rewrote the
    user turn after the reply — are excluded and counted separately).

    Scale shape: one task per lake partition emits its gap table and
    KEEPS it as a ref; the N118 two-pass selection (coarse 2^shift-us
    histogram locate + single-bucket refine, conversion_latency's close
    verbatim) finds the exact order statistics — no global sort, no
    driver gap array."""
    import numpy as np
    import ray

    def part_gaps(paths: list) -> pa.Table:
        from image_report_ray.state.manifest import read_canonical

        empty = pa.table({"gap": pa.array([], pa.int64())})
        t = read_canonical(paths)
        if t is None:
            return empty
        if t.num_rows < 2:
            return empty
        conv = t.column("conv_id").to_numpy(zero_copy_only=False)
        role = t.column("role").to_numpy(zero_copy_only=False)
        ts = t.column("ts").combine_chunks().to_numpy(
            zero_copy_only=False).astype("datetime64[us]").view(np.int64)
        m = (conv[1:] == conv[:-1]) & (role[:-1] == "user") \
            & (role[1:] == "assistant")
        return pa.table({"gap": pa.array(ts[1:][m] - ts[:-1][m], pa.int64())})

    lake = _full_lake(sf_dir)
    refs = map_partitions(lake, part_gaps)

    @ray.remote
    def hist_task(t: pa.Table, sh: int) -> pa.Table:
        gap = (t.column("gap").to_numpy()
               if t.num_rows and "gap" in t.column_names
               else np.array([], np.int64))
        ok = gap[gap >= 0]
        u, c = np.unique(ok >> np.int64(sh), return_counts=True)
        return pa.table({
            "bucket": pa.array(np.r_[u.astype(np.int64), np.int64(-1)]),
            "n": pa.array(np.r_[c.astype(np.int64),
                                np.int64((gap < 0).sum())]),
        })

    @ray.remote
    def bucket_vals(t: pa.Table, buckets: list, sh: int) -> pa.Table:
        if t.num_rows == 0 or "gap" not in t.column_names:
            return pa.table({"gap": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        gap = t.column("gap").to_numpy()
        ok = gap[gap >= 0]
        keep = np.isin(ok >> np.int64(sh), buckets)
        u, c = np.unique(ok[keep], return_counts=True)
        return pa.table({"gap": pa.array(u.astype(np.int64)),
                         "n": pa.array(c.astype(np.int64))})

    import pyarrow.compute as pcc

    allh = pa.concat_tables(ray.get([hist_task.remote(r, shift)
                                     for r in refs]))
    meta = pcc.equal(allh.column("bucket"), -1)
    n_neg = int(pcc.sum(allh.filter(meta).column("n")).as_py() or 0)
    hist = allh.filter(pcc.invert(meta))
    if hist.num_rows == 0:
        return pa.table({"n_pairs": pa.array([0], pa.int64()),
                         "n_negative": pa.array([n_neg], pa.int64()),
                         "p50_us": pa.array([None], pa.int64()),
                         "p90_us": pa.array([None], pa.int64())})
    h = (hist.group_by(["bucket"]).aggregate([("n", "sum")])
         .rename_columns(["bucket", "n"]).to_pandas().sort_values("bucket"))
    n_ok = int(h["n"].sum())
    cum = h["n"].cumsum().to_numpy()
    buckets = h["bucket"].to_numpy()
    ks = {p: (p * n_ok + 99) // 100 for p in (50, 90)}
    tb = sorted({int(buckets[np.searchsorted(cum, k)]) for k in ks.values()})
    vals = pa.concat_tables(ray.get(
        [bucket_vals.remote(r, tb, shift) for r in refs]))
    vt = (vals.group_by(["gap"]).aggregate([("n", "sum")])
          .rename_columns(["gap", "n"]).to_pandas().sort_values("gap"))
    vv = vt["gap"].to_numpy()
    vb = vv >> np.int64(shift)
    vn = vt["n"].to_numpy()
    q = {}
    for p, k in ks.items():
        i = int(np.searchsorted(cum, k))
        before = int(cum[i - 1]) if i else 0
        m = vb == buckets[i]
        bc = np.cumsum(vn[m])
        q[p] = int(vv[m][np.searchsorted(bc, k - before)])
    return pa.table({"n_pairs": pa.array([n_ok], pa.int64()),
                     "n_negative": pa.array([n_neg], pa.int64()),
                     "p50_us": pa.array([q[50]], pa.int64()),
                     "p90_us": pa.array([q[90]], pa.int64())})


def cdc_ingest_trend(sf_dir: str) -> pa.Table:
    """Exact least-squares trend of ingest volume across epochs — the
    capacity forecast (is the WAL growing and how fast?): slope and
    intercept of bytes_in over epoch index in micro-bytes, computed as
    EXACT integer rationals (slope = (nΣxy − ΣxΣy)/(nΣx² − (Σx)²))
    with sign-separated magnitude division so Python's floor and
    DuckDB's truncate agree. Rides :func:`cdc_epoch_text_growth`'s
    distributed per-epoch fold; the regression close is O(epochs)
    driver math."""
    t = cdc_epoch_text_growth(sf_dir)
    empty = pa.table({"n_epochs": pa.array([], pa.int64()),
                      "slope_micro": pa.array([], pa.int64()),
                      "intercept_micro": pa.array([], pa.int64())})
    if t.num_rows == 0:
        return empty
    x = [int(v) for v in t.column("epoch").to_pylist()]
    y = [int(v) for v in t.column("bytes_in").to_pylist()]
    n = len(x)
    sx, sy = sum(x), sum(y)
    sxx = sum(v * v for v in x)
    sxy = sum(a * b for a, b in zip(x, y))
    den = n * sxx - sx * sx
    if den == 0:  # single epoch: no trend, intercept = the one value
        return pa.table({"n_epochs": pa.array([n], pa.int64()),
                         "slope_micro": pa.array([0], pa.int64()),
                         "intercept_micro": pa.array(
                             [1_000_000 * sy // n], pa.int64())})

    def micro(num: int, d: int) -> int:
        s = -1 if (num < 0) != (d < 0) else 1
        return s * ((1_000_000 * abs(num)) // abs(d))

    num_s = n * sxy - sx * sy
    num_i = sy * sxx - sx * sxy
    return pa.table({
        "n_epochs": pa.array([n], pa.int64()),
        "slope_micro": pa.array([micro(num_s, den)], pa.int64()),
        "intercept_micro": pa.array([micro(num_i, den)], pa.int64()),
    })


def cdc_cohort_churn(sf_dir: str) -> pa.Table:
    """Edit churn by conversation age cohort: conversations grouped by
    the epoch they FIRST appeared in, with their lifetime change-event
    total and exact mean ops per conversation — do young or old
    conversations drive the write load? One conv-keyed exchange (a
    conversation's events co-locate) folds per-cohort
    (n_convs, n_ops) partials; the driver sums O(epochs) rows."""
    import numpy as np
    import ray  # noqa: F401

    from .exchange import exchange_reduce, gather_concat

    ds = changelog_dataset(sf_dir).map_batches(
        lambda t: t.select(["lsn", "conv_id"]), batch_format="pyarrow",
    )

    def cohort_kernel(pid: int, t: pa.Table) -> pa.Table:
        empty_k = pa.table({"first_epoch": pa.array([], pa.int64()),
                            "n_convs": pa.array([], pa.int64()),
                            "n_ops": pa.array([], pa.int64())})
        if t.num_rows == 0 or "conv_id" not in t.column_names:
            return empty_k
        g = (pa.table({"conv_id": t.column("conv_id"),
                       "lsn": t.column("lsn")})
             .group_by(["conv_id"])
             .aggregate([("lsn", "min"), ([], "count_all")]))
        fe = g.column("lsn_min").to_numpy() // 2500
        n = g.column("count_all").to_numpy().astype(np.int64)
        out = (pa.table({"first_epoch": pa.array(fe.astype(np.int64)),
                         "n_convs": pa.array(np.ones(len(fe), np.int64)),
                         "n_ops": pa.array(n)})
               .group_by(["first_epoch"])
               .aggregate([("n_convs", "sum"), ("n_ops", "sum")]))
        return out.rename_columns(["first_epoch", "n_convs", "n_ops"])

    parts = gather_concat(exchange_reduce([ds], ["conv_id"], cohort_kernel))
    if parts.num_rows == 0:
        return pa.table({"first_epoch": pa.array([], pa.int64()),
                         "n_convs": pa.array([], pa.int64()),
                         "n_ops": pa.array([], pa.int64()),
                         "ops_per_conv_micro": pa.array([], pa.int64())})
    g = (parts.group_by(["first_epoch"])
         .aggregate([("n_convs", "sum"), ("n_ops", "sum")])
         .rename_columns(["first_epoch", "n_convs", "n_ops"]))
    nc = g.column("n_convs").to_numpy()
    no = g.column("n_ops").to_numpy()
    out = pa.table({
        "first_epoch": g.column("first_epoch"),
        "n_convs": pa.array(nc.astype(np.int64)),
        "n_ops": pa.array(no.astype(np.int64)),
        "ops_per_conv_micro": pa.array(1_000_000 * no // nc, pa.int64()),
    })
    return finalize(out, [("first_epoch", "ascending")])
