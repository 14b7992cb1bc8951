"""Canonical Arrow schemas and additive schema-evolution helpers.

The transcripts lake / changelog shapes come from BASELINE.json
``input_hint``. Evolution policy is additive-only: new nullable columns may
appear mid-log and older data is null-filled via ``pyarrow.unify_schemas`` —
the Arrow analogue of the reference's versioned-schema-with-headroom
discipline (/root/reference/docs/report-schema-v2.md:96-105,
/root/reference/utils.py:18).
"""

from __future__ import annotations

import pyarrow as pa

# Primary key of the materialized state.
KEY_COLUMNS = ("conv_id", "turn_idx")

# Payload columns every transcript row carries (input_hint shape).
TRANSCRIPT_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)

# Changelog = transcript payload + log metadata. `op` is I/U/D.
CHANGE_SCHEMA = pa.schema(
    [
        ("lsn", pa.int64()),
        ("op", pa.string()),
        *zip(TRANSCRIPT_SCHEMA.names, TRANSCRIPT_SCHEMA.types),
    ]
)

# Internal state metadata columns (never exported in the canonical table).
LSN_COL = "_lsn"          # last-applied lsn for the row
DELETED_COL = "_deleted"  # tombstone marker (kept for late/duplicate safety)
PID_COL = "_pid"          # routing partition id

VALID_OPS = ("I", "U", "D")


class SchemaEvolutionError(ValueError):
    """Non-additive (type-conflicting) schema change."""


def unify_additive(*schemas: pa.Schema) -> pa.Schema:
    """Unify schemas allowing only additive nullable columns.

    Column order: first schema's order, then new columns in first-seen
    order. A same-name column with a different type is an error (no
    implicit casts — the engine's evolution contract is additive-only).
    """
    out_fields: list[pa.Field] = []
    seen: dict[str, pa.DataType] = {}
    for schema in schemas:
        for f in schema:
            prev = seen.get(f.name)
            if prev is None:
                seen[f.name] = f.type
                out_fields.append(pa.field(f.name, f.type))
            elif prev != f.type:
                raise SchemaEvolutionError(
                    f"column {f.name!r} changes type {prev} -> {f.type}; "
                    "only additive nullable columns are supported"
                )
    return pa.schema(out_fields)


def conform(table: pa.Table, target: pa.Schema) -> pa.Table:
    """Project ``table`` to ``target``: null-fill missing columns, reorder."""
    n = table.num_rows
    cols = []
    for f in target:
        if f.name in table.column_names:
            col = table.column(f.name)
            if col.type != f.type:
                col = col.cast(f.type)
            cols.append(col)
        else:
            cols.append(pa.nulls(n, f.type))
    return pa.Table.from_arrays(cols, schema=target)


def concat_evolving(tables: list[pa.Table]) -> pa.Table:
    """Concatenate tables whose schemas may differ additively."""
    tables = [t for t in tables if t is not None]
    if not tables:
        raise ValueError("no tables to concatenate")
    target = unify_additive(*[t.schema for t in tables])
    return pa.concat_tables([conform(t, target) for t in tables])
