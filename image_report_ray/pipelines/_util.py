"""Small helpers shared by the query pipelines (driver-contract surface)."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def arrow_refs(ds) -> list:
    """The Dataset's blocks as Arrow table refs from ONE execution: on a
    lazy plan ``to_arrow_refs()`` re-runs it under ``limit(1)`` for the
    schema, and that run's task cancels can abort this process (Ray 2.49)."""
    return ds.materialize().to_arrow_refs()


def ds_to_table(ds) -> pa.Table:
    """Materialize a small result Dataset to one Arrow table.

    Only for query *results* (aggregates, top-k) — never the main input.
    """
    import ray

    refs = arrow_refs(ds)
    tables = [t for t in ray.get(refs) if t.num_rows > 0]
    if not tables:
        empty = ray.get(refs[0]) if refs else pa.table({})
        return empty
    # results are small; schemas are identical across blocks
    return pa.concat_tables(tables, promote_options="default").combine_chunks()


def finalize(table: pa.Table, sort_keys: list[tuple[str, str]]) -> pa.Table:
    """Deterministic result surface: timestamps normalized to µs (DuckDB's
    unit, so the driver's value-hash sees identical values) and rows sorted.
    """
    for i, f in enumerate(table.schema):
        if pa.types.is_timestamp(f.type) and f.type.unit != "us":
            table = table.set_column(
                i, f.name, table.column(f.name).cast(pa.timestamp("us"))
            )
    # an entirely-empty pipeline can surface Ray's schema-less empty
    # block (zero columns); ONLY that case bypasses the sort — a table
    # that has a schema but lacks a sort key is a kernel bug and must
    # raise, not silently break the deterministic-output contract
    if sort_keys and table.num_columns > 0:
        table = table.take(pc.sort_indices(table, sort_keys=sort_keys))
    return table.combine_chunks()


def round_col(table: pa.Table, name: str, ndigits: int) -> pa.Table:
    i = table.column_names.index(name)
    return table.set_column(
        i, name, pc.round(table.column(name), ndigits=ndigits)
    )


def fold_partials(ds, keys: list[str], aggs: list, rename: list[str] | None = None):
    """Driver fold for FIXED tiny group cardinalities (return flags,
    ops, languages, ...): every block contributes O(groups) partial rows,
    so gathering them costs O(groups x blocks) — strictly less than any
    shuffle would move — and one Arrow C ``group_by`` finishes the fold.
    Never use for keys whose cardinality grows with the data (users,
    tokens, conversations): those go through the keyed exchange
    (:mod:`.exchange`)."""
    t = ds_to_table(ds)
    if t.num_columns == 0:  # fully-empty input: schema-less empty block
        return t
    g = t.group_by(keys).aggregate(aggs)
    return g.rename_columns(rename) if rename else g
