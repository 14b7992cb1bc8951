"""Multimodal pipelines: synthetic binary media derived deterministically
from the ``documents`` table, processed by the actor-pool stages in
``stages/media.py``.

No media libraries exist in this container, so payloads use the FMED fake
format (stages/media.py) — built from pure integer/string arithmetic over
``doc_id``/``text`` so the metadata queries have exact DuckDB oracles.
The decode/feature stages run as REAL actor pools: codec/model setup once
per actor, binary-in/typed-out per batch — swap the fake codec for
cv2/libav and the pipeline shape is production-ready. The pools are the
SESSION-SCOPED warm pools of ``stages/pool.py`` (created once, reused by
every media query) rather than per-execution ``map_batches(Cls)`` pools:
a suite of short queries then pays actor spin-up once, the same
economics a long job gets naturally.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..stages.media import (
    ByteHistogramFeatures,
    FrameSampler,
    MediaDecoder,
)
from ..stages.pool import gather_tables, pool_map
from ._util import arrow_refs, finalize

_DECODE_CONCURRENCY = 2
_MEDIA_BATCH = 256  # large binary payloads => small batches (memory-aware)
# Fractional CPU per media actor: a chained pipeline (resize -> decode)
# runs TWO pools at once, and at low cluster CPU counts (the 4-cpu test
# session) four 1-CPU actors would reserve EVERY core and starve the
# upstream read tasks — a timing-dependent Ray 2.49 deadlock (observed).
# 0.5 CPU x 4 actors leaves half the cores for the task pools; the
# stages are bandwidth-bound, not compute-bound, so throughput is
# unaffected at real cluster sizes.
_MEDIA_ACTOR_CPUS = 0.5


def _rd():
    import ray.data as rd

    return rd


def synth_media_batch(t: pa.Table) -> pa.Table:
    """documents batch -> media table (media_id, payload). All header
    fields are integer arithmetic on doc_id (SQL-twin-able); the body is
    the utf-8 text standing in for pixel/sample data. Fully vectorized:
    headers are one (n, 16) uint8 matrix, bodies gather straight from the
    Arrow string buffers, and the payload column is built from one
    packed buffer — no per-row ``pack_media`` calls."""
    from ..stages.media import HEADER_LEN, MAGIC

    did = t.column("doc_id").to_numpy().astype(np.int64)
    n = len(did)
    txt = t.column("text")
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    off_dtype = np.int64 if pa.types.is_large_string(txt.type) else np.int32
    toffs = np.frombuffer(txt.buffers()[1], off_dtype)[
        txt.offset : txt.offset + n + 1
    ].astype(np.int64)
    tbuf = txt.buffers()[2]
    tdata = np.frombuffer(tbuf, np.uint8) if tbuf is not None else np.empty(0, np.uint8)
    body_lens = toffs[1:] - toffs[:-1]

    kind = did % 3
    width = 16 + (did * 7919) % 240
    height = 16 + (did * 104729) % 240
    n_frames = np.where(kind == 2, 8 + (did * 31) % 25, 1)
    hdr = np.empty((n, HEADER_LEN), np.uint8)
    hdr[:, 0:4] = np.frombuffer(MAGIC, np.uint8)
    hdr[:, 4] = kind.astype(np.uint8)
    for k in range(4):
        hdr[:, 5 + k] = (width >> (8 * k)).astype(np.uint8)
        hdr[:, 9 + k] = (height >> (8 * k)).astype(np.uint8)
    for k in range(3):
        hdr[:, 13 + k] = (n_frames >> (8 * k)).astype(np.uint8)

    out_offs = np.zeros(n + 1, np.int64)
    np.cumsum(HEADER_LEN + body_lens, out=out_offs[1:])
    out = np.empty(int(out_offs[-1]), np.uint8)
    out[(out_offs[:-1][:, None] + np.arange(HEADER_LEN)).ravel()] = hdr.ravel()
    pos = np.arange(int(body_lens.sum())) - np.repeat(
        np.cumsum(body_lens) - body_lens, body_lens
    )
    out[np.repeat(out_offs[:-1] + HEADER_LEN, body_lens) + pos] = tdata[
        np.repeat(toffs[:-1], body_lens) + pos
    ]
    payload = pa.Array.from_buffers(
        pa.binary(),
        n,
        [None, pa.py_buffer(out_offs.astype(np.int32)), pa.py_buffer(out)],
    )
    return pa.table(
        {"media_id": pa.array(did, pa.int64()), "payload": payload}
    )


# The synth stage maps small text to payloads — batch it coarsely so
# parquet micro-blocks coalesce (64 tiny tasks measured 1.2 s of pure
# per-task overhead at sf0.1 vs 0.2 s coalesced). The FAT-binary stages
# downstream keep the memory-aware _MEDIA_BATCH.
_SYNTH_BATCH = 2048


def _media_dataset(sf_dir: str):
    rd = _rd()
    return rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(synth_media_batch, batch_format="pyarrow", batch_size=_SYNTH_BATCH)


def _pool(cls, refs, drop_cols=None, **ctor) -> list:
    """Media-stage defaults for the shared warm pool."""
    return pool_map(
        cls,
        refs,
        size=_DECODE_CONCURRENCY,
        num_cpus=_MEDIA_ACTOR_CPUS,
        batch_size=_MEDIA_BATCH,
        drop_cols=drop_cols,
        ctor_kwargs=ctor or None,
    )


def media_meta(sf_dir: str) -> pa.Table:
    """Decode every payload through the actor-pool decoder and return its
    typed metadata — oracle-checkable because the synthetic headers are
    integer arithmetic on doc_id."""
    refs = arrow_refs(_media_dataset(sf_dir))
    t = gather_tables(_pool(MediaDecoder, refs, drop_cols=["payload"]))
    return finalize(t, [("media_id", "ascending")])


def media_features(sf_dir: str) -> pa.Table:
    """Byte-histogram 'embedding' per media item (the model-inference
    stage shape), summarized to integer-exact signals so the query has a
    full DuckDB oracle: feature dimension, occupied-bin count, and the
    dominant bin (ties -> smallest bin index). The float feature vector
    itself is additionally pinned by pytest (determinism)."""
    import ray

    def summarize(t: pa.Table) -> pa.Table:
        col = t.column("feature")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n = len(col)
        dim = ByteHistogramFeatures.N_BINS
        mat = col.flatten().to_numpy(zero_copy_only=False).reshape(n, dim) if n else (
            np.empty((0, dim), np.float32)
        )
        nz = np.count_nonzero(mat, axis=1).astype(np.int64)
        top = mat.argmax(axis=1).astype(np.int64)  # first max = smallest bin
        return pa.table(
            {
                "media_id": t.column("media_id"),
                "feat_dim": pa.array(np.full(n, dim, np.int64)),
                "feat_nonzero": pa.array(nz),
                "top_bin": pa.array(top),
                "n_body_bytes": t.column("n_body_bytes"),
            }
        )

    @ray.remote
    def post(t):
        return summarize(t) if t is not None and t.num_rows else None

    refs = arrow_refs(_media_dataset(sf_dir))
    t = gather_tables(
        [post.remote(r) for r in _pool(ByteHistogramFeatures, refs)]
    )
    return finalize(t, [("media_id", "ascending")])


def media_frames(sf_dir: str, stride: int = 4) -> pa.Table:
    """Frame sampling: one row per sampled video frame (every
    ``stride``-th), one pseudo-frame for non-video — the 1->N explode
    stage, oracle-checkable via integer arithmetic."""
    refs = arrow_refs(_media_dataset(sf_dir))
    t = gather_tables(_pool(FrameSampler, refs, stride=stride))
    return finalize(t, [("media_id", "ascending"), ("frame_idx", "ascending")])


def media_resize(sf_dir: str, factor: int = 2) -> pa.Table:
    """Resize every payload (1/``factor`` thumbnail / downsample), then
    RE-DECODE the resized payloads through the decoder actor pool and
    return their typed metadata — two chained actor-pool stages, and the
    re-decode proves the resize stage emits well-formed payloads. The
    synthetic headers stay integer arithmetic on doc_id, so the resized
    metadata (floor-scaled dims, ceil-scaled body bytes) has an exact
    DuckDB oracle."""
    from ..stages.media import MediaResizer

    refs = arrow_refs(_media_dataset(sf_dir))
    resized = _pool(MediaResizer, refs, factor=factor)
    t = gather_tables(_pool(MediaDecoder, resized, drop_cols=["payload"]))
    return finalize(t, [("media_id", "ascending")])


def media_dedup(sf_dir: str) -> pa.Table:
    """Exact dedup over DECODED media content: one row per distinct
    decoded body with the smallest media_id (winner), its kind, and the
    copy count — the multimodal face of the exact-dedup operator.

    Payloads stream through the warm-pool
    :class:`~image_report_ray.stages.media.MediaContentHasher` (codec
    resolve once per actor; headers validated, bodies sliced zero-copy
    and digested 128-bit, min-combined in-batch), so only (digest,
    winner, kind, count) rows — never payload bytes — enter the
    digest-keyed exchange, where each partition applies the identical
    winner rule. The fake codec's body is the utf-8 text, so the DuckDB
    twin is GROUP BY text with the winner's doc_id-derived kind."""
    import ray

    from ..stages.media import MediaContentHasher, combine_media_digests
    from .exchange import exchange_reduce, gather_concat

    def winner_partition(pid: int, t: pa.Table) -> pa.Table:
        w = combine_media_digests(t)
        return pa.table({"media_id": w.column("media_id"),
                         "kind": w.column("kind"),
                         "n_copies": w.column("n_part")})

    @ray.remote
    def denone(t):  # the pool passes None through for empty blocks
        return t if t is not None else combine_media_digests(pa.table({}))

    refs = arrow_refs(_media_dataset(sf_dir))
    hashed = [denone.remote(r) for r in _pool(MediaContentHasher, refs)]
    out = gather_concat(exchange_reduce([hashed], ["h"], winner_partition))
    if out.num_rows == 0:
        return pa.table({"media_id": pa.array([], pa.int64()),
                         "kind": pa.array([], pa.string()),
                         "n_copies": pa.array([], pa.int64())})
    return finalize(out, [("media_id", "ascending")])


def media_size_stats(sf_dir: str) -> pa.Table:
    """Per-kind media storage census (items, total and max body bytes)
    off the decoded metadata — the capacity-planning fold of the media
    family; the actor-pool decode is the distributed stage, the census
    is a fixed-cardinality fold over its typed output."""
    t = media_meta(sf_dir)
    if t.num_rows == 0:
        return pa.table({"kind": pa.array([], pa.string()),
                         "n_items": pa.array([], pa.int64()),
                         "total_bytes": pa.array([], pa.int64()),
                         "max_bytes": pa.array([], pa.int64())})
    g = (t.group_by(["kind"]).aggregate(
        [([], "count_all"), ("n_body_bytes", "sum"), ("n_body_bytes", "max")])
        .rename_columns(["kind", "n_items", "total_bytes", "max_bytes"]))
    g = pa.table({"kind": g.column("kind"),
                  "n_items": g.column("n_items").cast(pa.int64()),
                  "total_bytes": g.column("total_bytes").cast(pa.int64()),
                  "max_bytes": g.column("max_bytes").cast(pa.int64())})
    return finalize(g, [("kind", "ascending")])
