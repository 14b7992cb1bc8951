"""Near-duplicate detection over the ``documents`` table.

Three members, one semantic family (the reference's hash-bucket near-dedup
precedent: descriptor-hash clustering of near-identical glyphs,
/root/reference/docs/report-schema-v2.md:207-236; the per-doc digest work
is the extractor-registry pattern, /root/reference/hashing_config.py):

* :func:`dedup_ngram_jaccard` — **exact** word-3-gram Jaccard via an
  inverted-index self-join (explode shingles -> join on shingle -> count
  per pair). SQL-oracle-checkable; the correctness anchor.
* :func:`dedup_minhash_lsh` — MinHash signatures + LSH banding generate
  candidate pairs, exact Jaccard verifies them. Same output contract as
  the exact query; the 100 TB scale path (touches O(candidates), not
  O(n^2)).
* :func:`dedup_simhash` — 64-bit SimHash + pigeonhole chunk bucketing for
  small-Hamming-distance pairs.

ALL THREE carry full SQL oracles: the token/shingle hash is
:func:`hash_utf8_64` (Horner poly + splitmix64, mod-2^64), which DuckDB
reproduces bit-exactly — the MinHash twin even rebuilds the banding
candidates with the inlined permutation coefficients, and the SimHash
pigeonhole is exact for hamming <= CHUNKS-1 so its twin is the plain
quadratic form.

Scale notes: shingle explosion is per-batch vectorized (numpy on Arrow
list offsets — no Python row loops); all three pipelines share the
:func:`pair_counts` exchange — hash-partition the (key, doc_id) inverted
index by 64-bit key hash with raw Ray tasks, then generate and count
(a<b) pairs per partition with one vectorized kernel (measured ~20x
faster than ``Dataset.join`` on the same input). A frequent-key cap
(``pair_counts(max_key_freq=F)`` — drop keys appearing in > F docs, like
stopword pruning) bounds the quadratic pair blow-up of hot keys at
100 TB, with the drop counts surfaced, never silent; it is left off at
test scale so the oracle matches exactly.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ._util import arrow_refs, finalize

_NGRAM = 3

# MinHash parameters: 128 permutations = 32 bands x 4 rows. For Jaccard
# s, P(candidate) = 1 - (1 - s^4)^32: ~0.99997 at s=0.5, ~0.38 at 0.35,
# ~0.04 at 0.2 — a sharp threshold around ~0.45.
_MH_PERMS = 128
_MH_BANDS = 32
_MH_ROWS = 4
_MH_PRIME = np.uint64((1 << 61) - 1)
_MH_SEED = 0x5EED
# Horner-mix constant for folding a band's signature rows into one key;
# referenced by the SQL twin in __ray_entry__ — keep in lockstep.
_BAND_MIX = np.uint64(0x9E3779B97F4A7C15)


def _rd():
    import ray.data as rd

    return rd


# ---- shingling kernels (pure, importable without Ray) -----------------


def _tokenize(text_col: pa.ChunkedArray | pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Lowercase whitespace tokens per doc -> (flat_tokens, list_offsets).

    Token semantics match the SQL twin's ``regexp_extract_all(lower(text),
    '\\S+')`` exactly: maximal non-space runs. Split-vs-extract produces
    empty-string artifacts at leading/trailing whitespace; they are
    removed by pure offsets arithmetic (mask + cumsum re-base, the same
    segment math as quality_score) — one vectorized code path, no
    re-tokenization cliff."""
    if isinstance(text_col, pa.ChunkedArray):
        text_col = text_col.combine_chunks()
    toks = pc.split_pattern_regex(pc.utf8_lower(text_col), r"\s+")
    flat = toks.flatten().to_numpy(zero_copy_only=False)
    if flat.dtype != object:
        flat = flat.astype(object)
    offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    offsets = offsets - offsets[0]
    valid = flat != ""
    if not valid.all():
        cum = np.r_[0, np.cumsum(valid)]
        offsets = cum[offsets]
        flat = flat[valid]
    return flat, offsets


def doc_shingles(batch: pa.Table) -> pd.DataFrame:
    """(doc_id, shingle) pairs, distinct within doc — vectorized explode.

    Word ``_NGRAM``-grams joined by single spaces; docs with fewer than
    ``_NGRAM`` tokens contribute nothing (matches the SQL ``len(ws) >= 3``
    guard)."""
    flat, offsets = _tokenize(batch.column("text"))
    n_docs = len(offsets) - 1
    if len(flat) == 0 or n_docs == 0:
        return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                             "shingle": pd.Series([], dtype="object")})
    # shingle i spans tokens [i, i+NGRAM); valid iff it stays in one doc
    n = len(flat)
    if n < _NGRAM:
        sh = np.array([], dtype=object)
        valid = np.array([], dtype=bool)
    else:
        sh = flat[: n - _NGRAM + 1].copy()
        for j in range(1, _NGRAM):
            sh = sh + " "
            sh = sh + flat[j : n - _NGRAM + 1 + j]
        doc_idx_full = np.repeat(np.arange(n_docs), np.diff(offsets))
        valid = doc_idx_full[: n - _NGRAM + 1] == doc_idx_full[_NGRAM - 1 :]
    doc_ids = batch.column("doc_id").to_numpy()
    doc_idx = np.repeat(np.arange(n_docs), np.diff(offsets))[: max(n - _NGRAM + 1, 0)]
    df = pd.DataFrame({"doc_id": doc_ids[doc_idx[valid]], "shingle": sh[valid]})
    return df.drop_duplicates(ignore_index=True)


_TH_BASE = np.uint64(1_000_003)


def hash_utf8_64(strs: "np.ndarray | pa.Array | pa.ChunkedArray") -> np.ndarray:
    """SQL-reproducible stable 64-bit string hash: Horner polynomial over
    the utf-8 bytes (base 1000003, mod 2^64 wraparound) finished with
    splitmix64 for bit diffusion. Vectorized column-wise over the Arrow
    string buffers — the Horner loop runs max-string-LENGTH times over
    whole arrays, never per string.

    The DuckDB twin is ``list_reduce`` over codepoints + the HUGEINT
    splitmix steps (codepoint == byte on this ASCII corpus — the same
    equivalence the fingerprint twin documents). This is what lets the
    SimHash and MinHash pipelines carry full SQL oracles."""
    from .text import _splitmix64

    if isinstance(strs, pa.ChunkedArray):
        arr = strs.combine_chunks()
    elif isinstance(strs, pa.Array):
        arr = strs
    else:
        arr = pa.array(strs, pa.string())
    n = len(arr)
    if n == 0:
        return np.zeros(0, np.uint64)
    off_dtype = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    off = np.frombuffer(arr.buffers()[1], off_dtype)[
        arr.offset : arr.offset + n + 1
    ].astype(np.int64)
    buf = arr.buffers()[2]
    data = np.frombuffer(buf, np.uint8) if buf is not None else np.empty(0, np.uint8)
    lens = np.diff(off)
    starts = off[:-1]
    maxlen = int(lens.max()) if n else 0
    if maxlen == 0:
        return _splitmix64(np.zeros(n, np.uint64))
    if maxlen <= 256:
        # ONE padded gather: right-align each string's bytes in a
        # (n, maxlen) matrix (leading zeros contribute 0 * B^k), then a
        # single powers dot — no per-position masked passes
        cols = np.arange(maxlen)
        pad = (maxlen - lens)[:, None]
        valid = cols[None, :] >= pad
        padded = np.zeros((n, maxlen), np.uint64)
        padded[valid] = data[
            (starts[:, None] + (cols[None, :] - pad))[valid]
        ]
        powers = _TH_BASE ** np.arange(maxlen - 1, -1, -1, dtype=np.uint64)
        h = (padded * powers[None, :]).sum(axis=1)
    else:  # pathological long strings: positional Horner fallback
        h = np.zeros(n, np.uint64)
        for p in range(maxlen):
            active = lens > p
            h[active] = h[active] * _TH_BASE + data[
                starts[active] + p
            ].astype(np.uint64)
    return _splitmix64(h)


def _hash_shingles(shingles: np.ndarray) -> np.ndarray:
    """Stable 64-bit shingle hashes — the SQL-reproducible kernel, so the
    MinHash twin can rebuild identical signatures in DuckDB."""
    return hash_utf8_64(shingles)


# ---- pair-counting exchange ------------------------------------------
#
# The shared primitive behind all three near-dup pipelines: an inverted
# index (key, doc_id) -> per-(a<b) pair co-occurrence counts. Implemented
# as the engine's own two-stage exchange (hash-partition by key, then
# vectorized within-group pair generation per partition) because
# ``Dataset.join`` measured ~20x slower on the same input (actor-pool
# spin-up + row-level join machinery for what is one reduceat-style
# kernel). Partitioning assumption: one key lives in exactly one
# partition, so a pair found in two partitions came from different keys —
# a tree of reduce tasks sums those partial counts (the fold input is
# O(candidate pairs), bounded at scale by the max_key_freq hot-key cap).

_PC_PARTS = 16
_PC_FAN = 8  # tree-reduce fan-in for the pair-partial fold


def _drop_hot_keys(
    k: np.ndarray, max_key_freq: int | None, *cols: np.ndarray
) -> tuple[tuple[np.ndarray, ...], int, int]:
    """Drop rows of keys whose group exceeds ``max_key_freq`` (``k`` is
    sorted). Returns ((k, *cols) filtered, n_dropped_keys,
    n_dropped_postings)."""
    if max_key_freq is None or len(k) == 0:
        return (k, *cols), 0, 0
    n = len(k)
    starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
    sizes = np.r_[starts[1:], n] - starts
    hot = sizes > max_key_freq
    if not hot.any():
        return (k, *cols), 0, 0
    keep = ~np.repeat(hot, sizes)
    return (
        (k[keep], *(c[keep] for c in cols)),
        int(hot.sum()),
        int(sizes[hot].sum()),
    )


def _pair_pos(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All within-group ordered (i<j) position pairs over SORTED keys
    ``k`` — pure index arithmetic, one allocation per output column."""
    n = len(k)
    empty = np.array([], dtype=np.int64)
    if n == 0:
        return empty, empty
    starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
    ends = np.r_[starts[1:], n]
    grp = np.repeat(np.arange(len(starts)), ends - starts)
    idx = np.arange(n)
    later = ends[grp] - 1 - idx          # elements after i in i's group
    tot = int(later.sum())
    if tot == 0:
        return empty, empty
    li = np.repeat(idx, later)
    run_start = np.cumsum(np.r_[0, later[:-1]])
    delta = np.arange(tot) - np.repeat(run_start, later)
    ri = li + 1 + delta
    return li, ri


def _pairs_in_partition(
    keys: np.ndarray,
    ids: np.ndarray,
    max_key_freq: int | None = None,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Vectorized (a<b) pair keys + counts for one partition's index rows.

    ``max_key_freq`` drops keys whose posting list exceeds the cap (the
    stopword-pruning guard that bounds the O(F^2) pair blow-up of a hot
    key at scale). Hash partitioning puts ALL of a key's postings in one
    partition, so the per-partition frequency IS the global frequency.
    Returns (pairs, counts, n_dropped_keys, n_dropped_postings) — drops
    are counted, never silent."""
    empty = np.array([], dtype=np.int64)
    if len(keys) == 0:
        return empty, empty, 0, 0
    order = np.lexsort((ids, keys))
    k, e = keys[order], ids[order].astype(np.int64)
    (k, e), dropped_keys, dropped_postings = _drop_hot_keys(k, max_key_freq, e)
    li, ri = _pair_pos(k)
    if len(li) == 0:
        return empty, empty, dropped_keys, dropped_postings
    pair = (e[li] << 32) | e[ri]         # ids ascending within group -> a<b
    uniq, cnt = np.unique(pair, return_counts=True)
    return uniq, cnt.astype(np.int64), dropped_keys, dropped_postings


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized population count of a uint64 array (numpy<2 has no
    ``bitwise_count``; byte-unpack is one C pass per byte lane)."""
    dist = np.zeros(len(x), dtype=np.int64)
    for shift in range(0, 64, 8):
        dist += np.unpackbits(
            ((x >> np.uint64(shift)) & np.uint64(0xFF)).astype(np.uint8)[:, None],
            axis=1,
        ).sum(axis=1).astype(np.int64)
    return dist


def _hamming_pairs_in_partition(
    keys: np.ndarray,
    ids: np.ndarray,
    vals: np.ndarray,
    max_hamming: int,
    max_key_freq: int | None = None,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Value-carrying variant of :func:`_pairs_in_partition`: each posting
    carries its doc's 64-bit hash, so candidate pairs are popcount-VERIFIED
    inside the partition — only (pair, hamming) survivors leave. The same
    pair found under several keys verifies identically, so the partition
    dedupes locally and the fold is a plain union."""
    empty = np.array([], dtype=np.int64)
    if len(keys) == 0:
        return empty, empty, 0, 0
    order = np.lexsort((ids, keys))
    k, e, v = keys[order], ids[order].astype(np.int64), vals[order]
    (k, e, v), dk, dp = _drop_hot_keys(k, max_key_freq, e, v)
    li, ri = _pair_pos(k)
    if len(li) == 0:
        return empty, empty, dk, dp
    dist = _popcount64(v[li].astype(np.uint64) ^ v[ri].astype(np.uint64))
    keep = dist <= max_hamming
    pair = ((e[li] << 32) | e[ri])[keep]
    dist = dist[keep]
    uniq, first = np.unique(pair, return_index=True)
    return uniq, dist[first], dk, dp


def _merge_pair_partials(outs):
    """Sum pair partial counts across partition outputs (pure kernel)."""
    allp = np.concatenate([o[0] for o in outs]) if outs else np.array([], np.int64)
    alln = np.concatenate([o[1] for o in outs]) if outs else np.array([], np.int64)
    dk = sum(o[2] for o in outs)
    dp = sum(o[3] for o in outs)
    uniq, inv = np.unique(allp, return_inverse=True)
    sums = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(sums, inv, alln)
    return uniq, sums, dk, dp


_PC_REMOTES = None


def _pc_remotes():
    global _PC_REMOTES
    if _PC_REMOTES is None:
        import ray

        @ray.remote
        def split(block: pa.Table, key_col: str, id_col: str, P: int):
            if block.num_rows == 0 or key_col not in block.column_names:
                # Ray may pass empty (or input-schema) blocks through a
                # map stage untouched; they carry no postings
                empty = (np.array([], np.uint64), np.array([], np.int64))
                return tuple(empty for _ in range(P))
            keys = block.column(key_col)
            if isinstance(keys, pa.ChunkedArray):
                keys = keys.combine_chunks()
            from .exchange import hash_key as _hk

            knp = _hk(keys)
            inp = block.column(id_col)
            if isinstance(inp, pa.ChunkedArray):
                inp = inp.combine_chunks()
            ids = inp.to_numpy(zero_copy_only=False).astype(np.int64)
            if len(ids) and (ids.min() < 0 or ids.max() >= (1 << 31)):
                # pair identity is bit-packed (a << 32 | b) on int64; an
                # id outside [0, 2^31) would silently merge unrelated
                # pairs — fail loudly at index-build time instead
                raise ValueError(
                    f"{id_col} out of bit-packable range [0, 2^31): "
                    f"[{ids.min()}, {ids.max()}]"
                )
            part = (knp % np.uint64(P)).astype(np.int64)
            order = np.argsort(part, kind="stable")
            ks, es, ps = knp[order], ids[order], part[order]
            bounds = np.searchsorted(ps, np.arange(P + 1))
            return tuple(
                (ks[bounds[i]: bounds[i + 1]], es[bounds[i]: bounds[i + 1]])
                for i in range(P)
            )

        @ray.remote
        def count(key_freq_cap, *slices):
            ks = np.concatenate([s[0] for s in slices])
            es = np.concatenate([s[1] for s in slices])
            return _pairs_in_partition(ks, es, max_key_freq=key_freq_cap)

        @ray.remote
        def merge_partials(*outs):
            return _merge_pair_partials(list(outs))

        _PC_REMOTES = (split, count, merge_partials)
    return _PC_REMOTES


def pair_counts(
    index,
    key_col: str,
    id_col: str,
    P: int = _PC_PARTS,
    *,
    max_key_freq: int | None = None,
) -> tuple[pa.Table, dict]:
    """Distributed co-occurrence pair counting over an inverted-index
    Dataset (or its block refs). Returns the (small) table
    ``pair:int64, n_common:int64`` with ``pair = a << 32 | b`` (a < b),
    plus a stats dict ``{"dropped_keys", "dropped_postings"}`` from the
    ``max_key_freq`` hot-key cap (0s when uncapped).

    The per-partition pair partials fold through a tree of reduce tasks
    (fan-in ``_PC_FAN``) — the driver only ever receives the final
    merged table, never P concatenated partials."""
    import ray

    split, count, merge_partials = _pc_remotes()
    refs = index if isinstance(index, list) else arrow_refs(index)
    if P < 2:
        # num_returns=1 makes Ray hand back a bare ObjectRef instead of a
        # list; a 2-way exchange is the degenerate-but-correct floor
        P = 2
    mats = [
        split.options(num_returns=P).remote(ref, key_col, id_col, P)
        for ref in refs
    ]
    outs = [count.remote(max_key_freq, *[m[pid] for m in mats]) for pid in range(P)]
    while len(outs) > 1:
        outs = [
            merge_partials.remote(*outs[i : i + _PC_FAN])
            for i in range(0, len(outs), _PC_FAN)
        ]
    uniq, sums, dk, dp = ray.get(outs[0])
    if dk:
        import logging

        logging.getLogger("image_report_ray").warning(
            "pair_counts: hot-key cap (max_key_freq=%s) dropped %d key(s) "
            "/ %d posting(s)", max_key_freq, dk, dp,
        )
    t = pa.table({"pair": pa.array(uniq, pa.int64()), "n_common": pa.array(sums)})
    return t, {"dropped_keys": dk, "dropped_postings": dp}


_PAIR_EMPTY_COLS = {
    "doc_id_a": pa.int64(),
    "doc_id_b": pa.int64(),
    "n_common": pa.int64(),
}


def _pair_empty(extra: dict | None = None) -> pa.Table:
    cols = {**_PAIR_EMPTY_COLS, **(extra or {})}
    return pa.table({k: pa.array([], t) for k, t in cols.items()})


def _pair_total_kernel(pid: int, t: pa.Table) -> pa.Table:
    """Exchange kernel: sum pair partial counts co-partitioned on the
    packed pair key and unpack into (doc_id_a, doc_id_b, n_common)."""
    if t.num_rows == 0 or "pair" not in t.column_names:
        return _pair_empty()
    pairk = t.column("pair").to_numpy()
    n = t.column("n").to_numpy()
    uniq, inv = np.unique(pairk, return_inverse=True)
    sums = np.zeros(len(uniq), np.int64)
    np.add.at(sums, inv, n)
    return pa.table(
        {
            "doc_id_a": pa.array((uniq >> 32).astype(np.int64), pa.int64()),
            "doc_id_b": pa.array((uniq & 0xFFFFFFFF).astype(np.int64), pa.int64()),
            "n_common": pa.array(sums, pa.int64()),
        }
    )


_PC_REF_REMOTES = None


def _pc_ref_remotes():
    global _PC_REF_REMOTES
    if _PC_REF_REMOTES is None:
        import ray

        @ray.remote(num_returns=2)
        def wrap_partial(out):
            """(uniq, sums, dk, dp) partial -> (pair table ref, stats)."""
            uniq, sums, dk, dp = out
            t = pa.table(
                {"pair": pa.array(uniq, pa.int64()),
                 "n": pa.array(sums, pa.int64())}
            )
            return t, (int(dk), int(dp))

        @ray.remote
        def doc_sizes(block: pa.Table) -> pa.Table:
            """Per-doc distinct-shingle counts of one index block (each
            doc's shingles live in exactly one block, so block-local
            value_counts are globally complete)."""
            if block.num_rows == 0 or "doc_id" not in block.column_names:
                return pa.table(
                    {"doc_id": pa.array([], pa.int64()),
                     "n_sh": pa.array([], pa.int64())}
                )
            col = block.column("doc_id")
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            vc = col.value_counts()
            return pa.table(
                {
                    "doc_id": vc.field("values").cast(pa.int64()),
                    "n_sh": vc.field("counts").cast(pa.int64()),
                }
            )

        _PC_REF_REMOTES = (wrap_partial, doc_sizes)
    return _PC_REF_REMOTES


def pair_count_refs(
    index,
    key_col: str,
    id_col: str,
    P: int = _PC_PARTS,
    *,
    max_key_freq: int | None = None,
) -> tuple[list, dict]:
    """Refs-native :func:`pair_counts`: the same capped co-occurrence
    exchange, but instead of tree-folding to one driver table, the pair
    partials re-exchange on the packed pair key and come back as P
    partition refs of ``(doc_id_a, doc_id_b, n_common)`` with globally
    summed counts (a pair appears in exactly ONE ref). The driver holds
    only the O(P) ref handles and the scalar drop stats — this is the
    pair source that feeds :func:`connected_components_refs` and the
    verify exchanges without any O(pairs) driver structure."""
    import ray

    from .exchange import exchange_reduce

    split, count, _ = _pc_remotes()
    wrap, _ = _pc_ref_remotes()
    refs = index if isinstance(index, list) else arrow_refs(index)
    if P < 2:
        P = 2
    mats = [
        split.options(num_returns=P).remote(ref, key_col, id_col, P)
        for ref in refs
    ]
    parts = [count.remote(max_key_freq, *[m[pid] for m in mats]) for pid in range(P)]
    wrapped = [wrap.remote(p) for p in parts]
    tab_refs = [w[0] for w in wrapped]
    stats = ray.get([w[1] for w in wrapped])
    dk, dp = sum(s[0] for s in stats), sum(s[1] for s in stats)
    if dk:
        import logging

        logging.getLogger("image_report_ray").warning(
            "pair_count_refs: hot-key cap (max_key_freq=%s) dropped %d "
            "key(s) / %d posting(s)", max_key_freq, dk, dp,
        )
    out = exchange_reduce([tab_refs], ["pair"], _pair_total_kernel, P=P)
    return out, {"dropped_keys": dk, "dropped_postings": dp}


def _lookup_sizes(sizes: pa.Table, ids: np.ndarray) -> np.ndarray:
    """Exact per-id lookup into a (doc_id, n_sh) partition slice; every
    id must be present (pair docs always have postings, and they hash to
    the same partition as their sizes) — a miss is a routing bug, not a
    neighbor to silently use."""
    sd = sizes.column("doc_id").to_numpy()
    sn = sizes.column("n_sh").to_numpy()
    o = np.argsort(sd)
    sd, sn = sd[o], sn[o]
    pos = np.searchsorted(sd, ids)
    ok = (pos < len(sd)) & (sd[np.minimum(pos, len(sd) - 1)] == ids)
    if not ok.all():
        raise ValueError(
            f"{int((~ok).sum())} pair doc id(s) missing from the "
            "co-partitioned size table — routing invariant broken"
        )
    return sn[pos]


def _jac_attach_na(pid: int, pairs: pa.Table, sizes: pa.Table) -> pa.Table:
    """Stage-1 Jaccard kernel: pairs co-partitioned with per-doc set
    sizes on doc_id_a — attach the a-side denominator."""
    if pairs.num_rows == 0 or "doc_id_a" not in pairs.column_names:
        return _pair_empty({"na": pa.int64()})
    if sizes.num_rows == 0:
        raise ValueError(
            "pair partition has no co-partitioned doc sizes — routing "
            "invariant broken (sizes must come from the same index)"
        )
    a = pairs.column("doc_id_a").to_numpy()
    return pairs.append_column(
        "na", pa.array(_lookup_sizes(sizes, a), pa.int64())
    )


def _jac_verify(tau: float, pid: int, pairs: pa.Table, sizes: pa.Table) -> pa.Table:
    """Stage-2 Jaccard kernel: attach the b-side denominator and keep
    only pairs with Jaccard >= tau — verified pairs never leave the
    partition unfiltered."""
    if pairs.num_rows == 0 or "doc_id_b" not in pairs.column_names:
        return _pair_empty({"jaccard": pa.float64()})
    if sizes.num_rows == 0:
        raise ValueError(
            "pair partition has no co-partitioned doc sizes — routing "
            "invariant broken (sizes must come from the same index)"
        )
    b = pairs.column("doc_id_b").to_numpy()
    nb = _lookup_sizes(sizes, b)
    na = pairs.column("na").to_numpy()
    i = pairs.column("n_common").to_numpy().astype(np.int64)
    jac = i / (na + nb - i)
    keep = jac >= tau
    return pa.table(
        {
            "doc_id_a": pairs.column("doc_id_a").filter(pa.array(keep)),
            "doc_id_b": pairs.column("doc_id_b").filter(pa.array(keep)),
            "n_common": pa.array(i[keep], pa.int64()),
            "jaccard": pa.array(np.round(jac[keep], 6)),
        }
    )


_HP_REMOTES = None


def _hp_remotes():
    """Remotes of the value-carrying Hamming-verify exchange (lazy, once)."""
    global _HP_REMOTES
    if _HP_REMOTES is None:
        import ray

        @ray.remote
        def split_v(block: pa.Table, key_col: str, id_col: str, val_col: str, P: int):
            from .exchange import hash_key as _hk

            keys = block.column(key_col)
            if isinstance(keys, pa.ChunkedArray):
                keys = keys.combine_chunks()
            knp = _hk(keys)
            ids = block.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
            vals = block.column(val_col).to_numpy(zero_copy_only=False).astype(
                np.uint64
            )
            if len(ids) and (ids.min() < 0 or ids.max() >= (1 << 31)):
                raise ValueError(
                    f"{id_col} out of bit-packable range [0, 2^31): "
                    f"[{ids.min()}, {ids.max()}]"
                )
            part = (knp % np.uint64(P)).astype(np.int64)
            order = np.argsort(part, kind="stable")
            ks, es, vs, ps = knp[order], ids[order], vals[order], part[order]
            bounds = np.searchsorted(ps, np.arange(P + 1))
            return tuple(
                (
                    ks[bounds[i]: bounds[i + 1]],
                    es[bounds[i]: bounds[i + 1]],
                    vs[bounds[i]: bounds[i + 1]],
                )
                for i in range(P)
            )

        @ray.remote
        def count_h(max_hamming, key_freq_cap, *slices):
            ks = np.concatenate([s[0] for s in slices])
            es = np.concatenate([s[1] for s in slices])
            vs = np.concatenate([s[2] for s in slices])
            return _hamming_pairs_in_partition(
                ks, es, vs, max_hamming, max_key_freq=key_freq_cap
            )

        @ray.remote
        def merge_h(*outs):
            allp = np.concatenate([o[0] for o in outs])
            alld = np.concatenate([o[1] for o in outs])
            uniq, first = np.unique(allp, return_index=True)
            return (
                uniq,
                alld[first],
                sum(o[2] for o in outs),
                sum(o[3] for o in outs),
            )

        _HP_REMOTES = (split_v, count_h, merge_h)
    return _HP_REMOTES


def hamming_pairs(
    index,
    key_col: str,
    id_col: str,
    val_col: str,
    max_hamming: int,
    P: int = _PC_PARTS,
    *,
    max_key_freq: int | None = None,
) -> tuple[pa.Table, dict]:
    """Distributed bucket-candidate generation + in-partition Hamming
    verify: hash-partition the (key, doc_id, hash64) inverted index by
    key, generate within-key (a<b) pairs per partition, popcount-verify
    them there, and tree-fold only the survivors. The driver receives the
    final matches — never a corpus-wide hash map (the scale fix for
    SimHash-family verifies)."""
    import ray

    split_v, count_h, merge_h = _hp_remotes()
    refs = index if isinstance(index, list) else arrow_refs(index)
    if P < 2:
        P = 2
    mats = [
        split_v.options(num_returns=P).remote(ref, key_col, id_col, val_col, P)
        for ref in refs
    ]
    outs = [
        count_h.remote(max_hamming, max_key_freq, *[m[pid] for m in mats])
        for pid in range(P)
    ]
    while len(outs) > 1:
        outs = [
            merge_h.remote(*outs[i : i + _PC_FAN])
            for i in range(0, len(outs), _PC_FAN)
        ]
    uniq, dists, dk, dp = ray.get(outs[0])
    if dk:
        import logging

        logging.getLogger("image_report_ray").warning(
            "hamming_pairs: hot-key cap (max_key_freq=%s) dropped %d key(s) "
            "/ %d posting(s)", max_key_freq, dk, dp,
        )
    t = pa.table(
        {"pair": pa.array(uniq, pa.int64()), "hamming": pa.array(dists, pa.int64())}
    )
    return t, {"dropped_keys": dk, "dropped_postings": dp}


# ---- exact n-gram Jaccard (oracle-checkable) --------------------------


def _ngram_jaccard_pair_refs_build(
    sf_dir: str, tau: float = 0.2, P: int = _PC_PARTS
) -> tuple[list, dict]:
    """Verified word-3-gram-Jaccard near-dup pairs as P partition refs —
    fully distributed, no O(pairs) driver structure anywhere:

    1. shingle inverted index (map_batches, executes once),
    2. :func:`pair_count_refs` — co-occurrence exchange, pair totals
       summed in a second exchange on the packed pair key,
    3. per-doc set sizes folded per index block (each doc's shingles
       live in one block),
    4. two chained exchanges attach the a- then b-side denominator and
       filter Jaccard >= tau INSIDE the partitions.

    The refs feed :func:`connected_components_refs` (clusters) or
    :func:`dedup_ngram_jaccard` (the gathered query result)."""
    from functools import partial as fpartial

    from .exchange import exchange_reduce

    rd = _rd()

    def explode(t: pa.Table) -> pa.Table:
        df = doc_shingles(t)
        return pa.Table.from_pandas(df, preserve_index=False)

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    refs = arrow_refs(ds.map_batches(explode, batch_format="pyarrow"))
    _, doc_sizes = _pc_ref_remotes()

    pair_refs, stats = pair_count_refs(refs, "shingle", "doc_id", P)
    size_refs = [doc_sizes.remote(r) for r in refs]
    stage1 = exchange_reduce(
        [pair_refs, size_refs], ["doc_id_a", "doc_id"], _jac_attach_na, P=P
    )
    verified = exchange_reduce(
        [stage1, size_refs], ["doc_id_b", "doc_id"],
        fpartial(_jac_verify, tau), P=P,
    )
    return verified, stats



def ngram_jaccard_pair_refs(
    sf_dir: str, tau: float = 0.2, P: int = _PC_PARTS
) -> tuple[list, dict]:
    """Cached form of :func:`_ngram_jaccard_pair_refs_build`: the
    verified pair shards (and the hot-key drop stats sidecar) persist as
    one cache entry keyed by corpus content + kernel params, so the nine
    graph/census consumers (degree/cluster hists, pagerank, triangles,
    span coverage, severity bands, quality matrix, clusters, gathered
    pairs) share ONE shingle-exchange execution per corpus. Cached and
    fresh routes are bit-identical downstream."""
    import json
    import os

    from .. import cache

    def build(tmp: str) -> tuple[list, dict]:
        refs, stats = _ngram_jaccard_pair_refs_build(sf_dir, tau, P)
        cache.write_refs(refs, tmp)
        with open(os.path.join(tmp, "stats.json"), "w") as fh:
            json.dump(stats, fh)
        return refs, stats

    def load(path: str) -> tuple[list, dict]:
        with open(os.path.join(path, "stats.json")) as fh:
            return cache.read_refs(path), json.load(fh)

    return cache.get_or_build(
        cache.entry("ngjac", sf_dir, "documents.parquet", f"tau={tau}:P={P}"),
        build, load,
    )


def dedup_ngram_jaccard(sf_dir: str, tau: float = 0.2) -> pa.Table:
    """All document pairs with word-3-gram Jaccard >= ``tau``.

    Gathered form of :func:`ngram_jaccard_pair_refs` — the verify runs
    distributed; the driver receives only the surviving pairs (the query
    result itself)."""
    from .exchange import gather_concat

    refs, _ = ngram_jaccard_pair_refs(sf_dir, tau)
    t = gather_concat(refs)
    if t.num_rows == 0:
        t = _pair_empty({"jaccard": pa.float64()})
    return finalize(t, [("doc_id_a", "ascending"), ("doc_id_b", "ascending")])


# ---- duplicated-span corpus profile ------------------------------------

# Window width for the exact shared-span profile (Lee et al.,
# "Deduplicating Training Data Makes Language Models Better": the
# duplication measure is tokens inside >=W-token spans that recur across
# documents). 8 words on this corpus (docs are 10-99 tokens).
_SPAN_W = 8


def _doc_windows(batch: pa.Table, W: int) -> tuple[pa.Table, pa.Table]:
    """Per block: (h, doc_id, pos) posting rows — every W-token window
    of every doc, hashed with :func:`hash_utf8_64` over the space-joined
    window (the minhash-shingle string equivalence) — plus the per-doc
    token counts (each doc lives in exactly one block, so block-local
    counts are globally complete)."""
    flat, offsets = _tokenize(batch.column("text"))
    n_docs = len(offsets) - 1
    doc_ids = batch.column("doc_id").to_numpy()
    counts = pa.table(
        {
            "doc_id": pa.array(doc_ids, pa.int64()),
            "n_tokens": pa.array(np.diff(offsets), pa.int64()),
        }
    )
    n = len(flat)
    empty = pa.table(
        {"h": pa.array([], pa.int64()),
         "doc_id": pa.array([], pa.int64()),
         "pos": pa.array([], pa.int64())}
    )
    if n < W or n_docs == 0:
        return empty, counts
    sh = flat[: n - W + 1].copy()
    for j in range(1, W):
        sh = sh + " "
        sh = sh + flat[j : n - W + 1 + j]
    doc_idx_full = np.repeat(np.arange(n_docs), np.diff(offsets))
    valid = doc_idx_full[: n - W + 1] == doc_idx_full[W - 1 :]
    if not valid.any():
        return empty, counts
    doc_idx = doc_idx_full[: n - W + 1]
    pos = (np.arange(n - W + 1) - offsets[doc_idx])[valid]
    h = hash_utf8_64(sh[valid]).view(np.int64)
    return (
        pa.table(
            {
                "h": pa.array(h, pa.int64()),
                "doc_id": pa.array(doc_ids[doc_idx[valid]], pa.int64()),
                "pos": pa.array(pos, pa.int64()),
            }
        ),
        counts,
    )


def _span_flag_kernel(pid: int, t: pa.Table) -> pa.Table:
    """Hash-partition kernel: window hashes held by >= 2 DISTINCT docs
    are duplicated; emit their (doc_id, pos) placements. All postings of
    a hash live in this partition, so the distinct-doc count is global."""
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()), "pos": pa.array([], pa.int64())}
    )
    if t.num_rows == 0 or "h" not in t.column_names:
        return empty
    h = t.column("h").to_numpy()
    d = t.column("doc_id").to_numpy()
    order = np.lexsort((d, h))
    hs, ds_ = h[order], d[order]
    new_hd = np.r_[True, (hs[1:] != hs[:-1]) | (ds_[1:] != ds_[:-1])]
    uniq, ndocs = np.unique(hs[new_hd], return_counts=True)
    dup_hashes = uniq[ndocs >= 2]
    if not len(dup_hashes):
        return empty
    keep = np.isin(h, dup_hashes, assume_unique=False)
    return pa.table(
        {
            "doc_id": t.column("doc_id").filter(pa.array(keep)),
            "pos": t.column("pos").filter(pa.array(keep)),
        }
    )


def _span_cov_kernel(W: int, pid: int, flags: pa.Table, counts: pa.Table) -> pa.Table:
    """Doc-partition kernel: interval-union coverage of each doc's
    duplicated windows (sorted starts; each start covers min(next-start,
    W) tokens, the last covers W) joined onto the per-doc token counts —
    docs with no duplicated span report 0."""
    if counts.num_rows == 0 or "doc_id" not in counts.column_names:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "n_tokens": pa.array([], pa.int64()),
             "dup_tokens": pa.array([], pa.int64())}
        )
    cd = counts.column("doc_id").to_numpy()
    cn = counts.column("n_tokens").to_numpy()
    dup = np.zeros(len(cd), np.int64)
    if flags.num_rows and "doc_id" in flags.column_names:
        d = flags.column("doc_id").to_numpy()
        p = flags.column("pos").to_numpy()
        order = np.lexsort((p, d))
        d, p = d[order], p[order]
        last = np.r_[d[1:] != d[:-1], True]
        nxt = np.empty_like(p)
        nxt[:-1] = p[1:]
        contrib = np.where(last, W, np.minimum(nxt - p, W))
        starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
        sums = np.add.reduceat(contrib, starts)
        corder = np.argsort(cd)
        ix = np.searchsorted(cd[corder], d[starts])
        dup[corder[ix]] = sums
    return pa.table(
        {
            "doc_id": pa.array(cd, pa.int64()),
            "n_tokens": pa.array(cn, pa.int64()),
            "dup_tokens": pa.array(dup, pa.int64()),
        }
    )


def dup_span_coverage(sf_dir: str, W: int = _SPAN_W, P: int = _PC_PARTS) -> pa.Table:
    """Corpus duplication profile: for every document, how many of its
    tokens sit inside an exact W-token span that also occurs in ANOTHER
    document (the Lee-et-al. duplicated-text measure; exact-integer
    output, ratios are the consumer's division).

    Scale shape: postings are (64-bit window hash, doc_id, pos) — bodies
    never shuffle; one exchange on the hash decides global duplication
    (all placements of a hash co-locate), one exchange on doc_id merges
    the flagged intervals per doc. Driver holds only the final per-doc
    table. Exact twin: ``__ray_entry__`` ``dup_span_coverage``."""
    import ray
    from functools import partial as fpartial

    from .exchange import exchange_reduce, gather_concat

    rd = _rd()

    @ray.remote(num_returns=2)
    def explode(block: pa.Table):
        return _doc_windows(block, W)

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    outs = [explode.remote(r) for r in arrow_refs(ds)]
    post_refs = [o[0] for o in outs]
    count_refs = [o[1] for o in outs]

    flag_refs = exchange_reduce([post_refs], ["h"], _span_flag_kernel, P=P)
    cov_refs = exchange_reduce(
        [flag_refs, count_refs], ["doc_id", "doc_id"],
        fpartial(_span_cov_kernel, W), P=P,
    )
    t = gather_concat(cov_refs)
    return finalize(t, [("doc_id", "ascending")])


def _span_top_kernel(topn: int, pid: int, t: pa.Table) -> pa.Table:
    """Hash-partition kernel for :func:`top_spans`: per window hash the
    (distinct-doc, total-occurrence) counts; only duplicated hashes
    (>= 2 docs) survive, truncated to the partition's top-``topn`` by
    (n_docs, n_occurrences) WITH boundary ties kept — a superset of any
    global top-``topn`` under a finer tiebreak."""
    empty = pa.table(
        {"h": pa.array([], pa.int64()),
         "n_docs": pa.array([], pa.int64()),
         "n_occurrences": pa.array([], pa.int64())}
    )
    if t.num_rows == 0 or "h" not in t.column_names:
        return empty
    h = t.column("h").to_numpy()
    d = t.column("doc_id").to_numpy()
    order = np.lexsort((d, h))
    hs, ds_ = h[order], d[order]
    new_h = np.r_[True, hs[1:] != hs[:-1]]
    new_hd = new_h | np.r_[True, ds_[1:] != ds_[:-1]]
    grp = np.cumsum(new_h) - 1
    n_grp = grp[-1] + 1
    ndocs = np.zeros(n_grp, np.int64)
    np.add.at(ndocs, grp, new_hd.astype(np.int64))
    nocc = np.bincount(grp, minlength=n_grp).astype(np.int64)
    uh = hs[new_h]
    keep = ndocs >= 2
    uh, ndocs, nocc = uh[keep], ndocs[keep], nocc[keep]
    if not len(uh):
        return empty
    if len(uh) > topn:
        # top-n by (n_docs, n_occ) + every row tied with the boundary
        rank = np.lexsort((-nocc, -ndocs))
        bd, bo = ndocs[rank[topn - 1]], nocc[rank[topn - 1]]
        sel = rank[
            np.r_[np.arange(topn),
                  topn + np.flatnonzero(
                      (ndocs[rank[topn:]] == bd) & (nocc[rank[topn:]] == bo))]
        ]
        uh, ndocs, nocc = uh[sel], ndocs[sel], nocc[sel]
    return pa.table(
        {"h": pa.array(uh, pa.int64()),
         "n_docs": pa.array(ndocs, pa.int64()),
         "n_occurrences": pa.array(nocc, pa.int64())}
    )


def top_spans(sf_dir: str, W: int = _SPAN_W, topn: int = 20) -> pa.Table:
    """The corpus's most-duplicated exact W-token spans: (span, n_docs,
    n_occurrences), n_docs >= 2, ordered by (n_docs desc, n_occurrences
    desc, span asc), top ``topn`` — the boilerplate/contamination lens
    over the same windows as :func:`dup_span_coverage`.

    Scale shape: counting happens on 64-bit window hashes (one keyed
    exchange; each partition returns at most topn + boundary ties);
    span TEXT is resolved only for the <= P*(topn+ties) candidate
    hashes by a second broadcast-membership pass over the doc blocks —
    strings never enter the exchange. Exact twin: ``__ray_entry__``
    ``top_spans``."""
    import ray
    from functools import partial as fpartial

    from .exchange import exchange_reduce, gather_concat

    rd = _rd()

    @ray.remote(num_returns=2)
    def explode(block: pa.Table):
        return _doc_windows(block, W)

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    doc_refs = arrow_refs(ds)
    post_refs = [explode.remote(r)[0] for r in doc_refs]
    cand = gather_concat(
        exchange_reduce([post_refs], ["h"], fpartial(_span_top_kernel, topn))
    )
    if cand.num_rows == 0:
        return pa.table(
            {"span": pa.array([], pa.string()),
             "n_docs": pa.array([], pa.int64()),
             "n_occurrences": pa.array([], pa.int64())}
        )
    @ray.remote
    def resolve(block: pa.Table, want) -> pa.Table:
        """Block-local winner-text lookup: build windows ONCE, hash,
        keep only candidate hashes — strings never leave except the
        <= |want| winners."""
        empty = pa.table(
            {"h": pa.array([], pa.int64()), "span": pa.array([], pa.string())}
        )
        flat, offsets = _tokenize(block.column("text"))
        n = len(flat)
        n_docs_blk = len(offsets) - 1
        if n < W or n_docs_blk == 0:
            return empty
        sh = flat[: n - W + 1].copy()
        for j in range(1, W):
            sh = sh + " "
            sh = sh + flat[j : n - W + 1 + j]
        doc_idx_full = np.repeat(np.arange(n_docs_blk), np.diff(offsets))
        valid = doc_idx_full[: n - W + 1] == doc_idx_full[W - 1 :]
        sh = sh[valid]
        if not len(sh):
            return empty
        h = hash_utf8_64(sh).view(np.int64)
        keep = np.isin(h, want)
        if not keep.any():
            return empty
        hh, first = np.unique(h[keep], return_index=True)
        return pa.table(
            {"h": pa.array(hh, pa.int64()),
             "span": pa.array(sh[keep][first].astype(object), pa.string())}
        )

    # driver fold on counts FIRST: only the strict top-topn plus the
    # rows tied at the topn-th (n_docs, n_occ) pair can appear in the
    # result, so only THOSE hashes (typically ~topn, not the P*(topn+
    # partition-tie) candidate pool) ever need their text resolved
    uh = cand.column("h").to_numpy()
    nd = cand.column("n_docs").to_numpy()
    no = cand.column("n_occurrences").to_numpy()
    if len(uh) > topn:
        rank = np.lexsort((-no, -nd))
        bd, bo = nd[rank[topn - 1]], no[rank[topn - 1]]
        keep = (nd > bd) | ((nd == bd) & (no >= bo))
        uh, nd, no = uh[keep], nd[keep], no[keep]
    # two-wave resolve: a small first wave catches the frequent winners
    # (top spans live in many docs); anything still unseen — rare
    # boundary-tied spans — resolves in ONE fully parallel wave over the
    # remaining blocks (serial small waves would straggle on them)
    hmap: dict = {}
    want = set(uh.tolist())
    for blocks in (doc_refs[:8], doc_refs[8:]):
        if not want or not blocks:
            break
        want_ref = ray.put(np.fromiter(want, np.int64, len(want)))
        tex = [resolve.remote(r, want_ref) for r in blocks]
        for t_ in ray.get(tex):
            for hh, sp in zip(t_.column("h").to_pylist(),
                              t_.column("span").to_pylist()):
                hmap.setdefault(hh, sp)
        want -= hmap.keys()
    spans = np.array([hmap[x] for x in uh], dtype=object)
    order = np.lexsort((spans, -no, -nd))[:topn]
    return pa.table(
        {"span": pa.array(spans[order].tolist(), pa.string()),
         "n_docs": pa.array(nd[order], pa.int64()),
         "n_occurrences": pa.array(no[order], pa.int64())}
    )


def _novelty_flag_kernel(pid: int, t: pa.Table) -> pa.Table:
    """Hash-partition kernel for :func:`ngram_novelty`: a shingle hash's
    OWNER is its minimum doc_id (partition-complete by routing); emit
    per-doc partial (n_shingles, n_novel) counts."""
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()),
         "n_shingles": pa.array([], pa.int64()),
         "n_novel": pa.array([], pa.int64())}
    )
    if t.num_rows == 0 or "h" not in t.column_names:
        return empty
    h = t.column("h").to_numpy()
    d = t.column("doc_id").to_numpy()
    order = np.lexsort((d, h))
    hs, ds_ = h[order], d[order]
    new_h = np.r_[True, hs[1:] != hs[:-1]]
    grp = np.cumsum(new_h) - 1
    novel = ds_ == ds_[np.flatnonzero(new_h)][grp]  # first d per h == min
    uniq_d, inv = np.unique(ds_, return_inverse=True)
    n_sh = np.bincount(inv).astype(np.int64)
    n_nov = np.zeros(len(uniq_d), np.int64)
    np.add.at(n_nov, inv, novel.astype(np.int64))
    return pa.table(
        {"doc_id": pa.array(uniq_d, pa.int64()),
         "n_shingles": pa.array(n_sh, pa.int64()),
         "n_novel": pa.array(n_nov, pa.int64())}
    )


def _novelty_sum_kernel(pid: int, t: pa.Table) -> pa.Table:
    """Doc-partition kernel: sum the per-hash-partition partials."""
    if t.num_rows == 0 or "doc_id" not in t.column_names:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "n_shingles": pa.array([], pa.int64()),
             "n_novel": pa.array([], pa.int64())}
        )
    g = t.group_by(["doc_id"]).aggregate(
        [("n_shingles", "sum"), ("n_novel", "sum")]
    )
    return g.rename_columns(["doc_id", "n_shingles", "n_novel"])


def ngram_novelty(sf_dir: str, P: int = _PC_PARTS) -> pa.Table:
    """Per-document n-gram novelty in doc_id order: of a doc's DISTINCT
    word-3-gram shingles, how many are FIRST seen in this doc (its
    doc_id is the corpus-wide minimum holding the shingle) — the
    redundancy-growth / memorization-pressure profile of a crawl
    (novelty falls as a corpus saturates).

    Scale shape: postings shuffle as (64-bit shingle hash, doc_id);
    exchange 1 on the hash decides ownership partition-locally, exchange
    2 on doc_id sums the per-doc partials. Exact-integer output. Twin:
    ``__ray_entry__`` ``ngram_novelty``."""
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()

    def explode(t: pa.Table) -> pa.Table:
        df = doc_shingles(t)
        return pa.table(
            {
                "h": pa.array(
                    hash_utf8_64(df["shingle"].to_numpy()).view(np.int64),
                    pa.int64(),
                ),
                "doc_id": pa.array(df["doc_id"].to_numpy(), pa.int64()),
            }
        )

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    post_refs = arrow_refs(ds.map_batches(explode, batch_format="pyarrow"))
    flag_refs = exchange_reduce([post_refs], ["h"], _novelty_flag_kernel, P=P)
    sum_refs = exchange_reduce(
        [flag_refs], ["doc_id"], _novelty_sum_kernel, P=P
    )
    return finalize(gather_concat(sum_refs), [("doc_id", "ascending")])


# Fixed-point PageRank scale: ranks live as int64 multiples of 1e-9.
# INTEGER arithmetic end-to-end (floor divisions) makes every sum
# order-independent — the same reason the money pipelines use cents —
# so the distributed fold is bit-identical to the SQL twin with no
# rounding pins.
_PR_SCALE = 10**9
_PR_ITERS = 8
# damping d = 0.85 expressed as the integer pair (85, 100)
_PR_D_NUM, _PR_D_DEN = 85, 100


def pair_pagerank(
    sf_dir: str, tau: float = 0.2, iters: int = _PR_ITERS
) -> pa.Table:
    """PageRank over the verified n-gram near-dup pair graph — the
    template-hub detector: documents whose near-dup neighborhood is
    large and well-connected rank highest (boilerplate families,
    spam templates). The iterative-algorithm exemplar next to
    :func:`connected_components_refs`: each iteration is one task wave
    over the PAIR PARTITION REFS with the current rank vector broadcast
    (the vector covers only nodes IN the dup graph — a small fraction
    of any real corpus; the per-node fold is O(graph nodes), never
    corpus rows).

    Fixed-point integer arithmetic (``_PR_SCALE``): contributions are
    ``rank // degree`` int64, sums are exact in any order, and the
    update is ``base + 85 * S // 100`` — bit-identical to the unrolled
    SQL twin (``__ray_entry__._pagerank_sql``). Output:
    (doc_id, degree, pagerank_e9)."""
    import ray

    from .exchange import gather_concat

    refs, _ = ngram_jaccard_pair_refs(sf_dir, tau)
    if not refs:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "degree": pa.array([], pa.int64()),
             "pagerank_e9": pa.array([], pa.int64())}
        )

    @ray.remote
    def edge_arrays(t: pa.Table):
        """Directed edge endpoints (both directions) of one pair shard."""
        if t.num_rows == 0 or "doc_id_a" not in t.column_names:
            e = np.array([], np.int64)
            return e, e
        a = t.column("doc_id_a").to_numpy().astype(np.int64)
        b = t.column("doc_id_b").to_numpy().astype(np.int64)
        return np.concatenate([a, b]), np.concatenate([b, a])

    @ray.remote
    def contrib(edges, nodes: np.ndarray, rank: np.ndarray, deg: np.ndarray):
        """Per-shard partial: sum of rank[src] // deg[src] into dst."""
        src, dst = edges
        if not len(src):
            return np.array([], np.int64), np.array([], np.int64)
        si = np.searchsorted(nodes, src)
        give = rank[si] // deg[si]
        uniq, inv = np.unique(dst, return_inverse=True)
        s = np.zeros(len(uniq), np.int64)
        np.add.at(s, inv, give)
        return uniq, s

    edge_refs = [edge_arrays.remote(r) for r in refs]
    # degrees: exact per-node edge counts folded from the shards
    parts = ray.get(edge_refs)
    deg_map: dict = {}
    for src, _dst in parts:
        u, c = np.unique(src, return_counts=True)
        for k, v in zip(u.tolist(), c.tolist()):
            deg_map[k] = deg_map.get(k, 0) + v
    if not deg_map:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "degree": pa.array([], pa.int64()),
             "pagerank_e9": pa.array([], pa.int64())}
        )
    nodes = np.array(sorted(deg_map), np.int64)
    deg = np.array([deg_map[n] for n in nodes.tolist()], np.int64)
    n = len(nodes)
    base = (_PR_DEN_COMPL * _PR_SCALE) // (_PR_D_DEN * n)
    rank = np.full(n, _PR_SCALE // n, np.int64)
    for _ in range(iters):
        outs = ray.get(
            [contrib.remote(e, nodes, rank, deg) for e in edge_refs]
        )
        s = np.zeros(n, np.int64)
        for u, c in outs:
            if len(u):
                s[np.searchsorted(nodes, u)] += c
        rank = base + (_PR_D_NUM * s) // _PR_D_DEN
    return pa.table(
        {"doc_id": pa.array(nodes, pa.int64()),
         "degree": pa.array(deg, pa.int64()),
         "pagerank_e9": pa.array(rank, pa.int64())}
    )


# (1 - d) numerator on the same integer denominator
_PR_DEN_COMPL = _PR_D_DEN - _PR_D_NUM


# ---- MinHash + LSH (scale path) ---------------------------------------


def _perm_coeffs() -> tuple[np.ndarray, np.ndarray]:
    """128 seeded ODD multipliers: x -> a*x mod 2^64 with odd ``a`` is a
    bijection on uint64, so min-over-shingles of the permuted hashes is a
    proper MinHash permutation WITHOUT a per-element modulo (the modulo
    was ~60% of signature cost). ``b`` is kept for signature-format
    compatibility but unused by the multiply permutation."""
    rng = np.random.default_rng(_MH_SEED)
    a = rng.integers(1, _MH_PRIME, size=_MH_PERMS, dtype=np.uint64) | np.uint64(1)
    b = rng.integers(0, _MH_PRIME, size=_MH_PERMS, dtype=np.uint64)
    return a, b


def _sig_kernel(
    df: pd.DataFrame,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shared MinHash math over a (doc-grouped) shingle frame.

    The permutation is multiply-shift (``a_j * h mod 2^64``, odd
    ``a_j`` -> a bijection), computed ONE PERM AT A TIME over 1-D
    arrays: no per-element modulo and no (shingles x 128) matrix
    materialization — the previous matrix form blew the cache and its
    ``% PRIME`` was the dominant cost (profiled 185 s + 150 s per 11M
    shingles; this shape is ~10x cheaper). Returns
    (doc_of, starts, h_per_row, sigs)."""
    h = _hash_shingles(df["shingle"].to_numpy())
    doc_of = df["doc_id"].to_numpy()
    starts = np.flatnonzero(np.r_[True, doc_of[1:] != doc_of[:-1]])
    a, _ = _perm_coeffs()
    sigs = np.empty((len(starts), _MH_PERMS), dtype=np.uint64)
    for j in range(_MH_PERMS):
        sigs[:, j] = np.minimum.reduceat(h * a[j], starts)
    return doc_of, starts, h, sigs


def minhash_signatures(batch: pa.Table) -> pa.Table:
    """Per-doc 128-slot MinHash signature over hashed word-3-grams.

    Vectorized: unique-shingle universal-hash matrix, gathered and
    min-reduced per doc segment (``np.minimum.reduceat``)."""
    df = doc_shingles(batch)
    if not len(df):
        return pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "sig": pa.array([], pa.list_(pa.uint64()))}
        )
    doc_of, starts, _, sigs = _sig_kernel(df)
    return pa.table(
        {
            "doc_id": pa.array(doc_of[starts], pa.int64()),
            "sig": pa.array(list(sigs), pa.list_(pa.uint64())),
        }
    )


_VERIFY_REMOTES = None


def _verify_remotes():
    global _VERIFY_REMOTES
    if _VERIFY_REMOTES is None:
        import ray

        @ray.remote(num_returns=2)
        def explode_cand_shingles(block: pa.Table, cand_docs: np.ndarray):
            """(doc_id, sig, hs) block -> restricted shingle inverted
            index for candidate docs only, plus their set sizes."""
            if block.num_rows == 0 or "doc_id" not in block.column_names:
                # Ray may emit schema-less empty blocks through a map
                # stage; they carry no candidate postings
                return (
                    pa.table({"sh": pa.array([], pa.int64()),
                              "doc_id": pa.array([], pa.int64())}),
                    pa.table({"doc_id": pa.array([], pa.int64()),
                              "n_sh": pa.array([], pa.int64())}),
                )
            doc = block.column("doc_id").to_numpy()
            keep = np.isin(doc, cand_docs)
            idx = np.flatnonzero(keep)
            hs = block.column("hs")
            if isinstance(hs, pa.ChunkedArray):
                hs = hs.combine_chunks()
            sub = hs.take(pa.array(idx))
            off = sub.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
            off = off - off[0]
            flat = sub.flatten().to_numpy(zero_copy_only=False).astype(np.uint64)
            lens = np.diff(off)
            index = pa.table(
                {
                    "sh": pa.array(flat.view(np.int64), pa.int64()),
                    "doc_id": pa.array(
                        np.repeat(doc[idx], lens), pa.int64()
                    ),
                }
            )
            sizes = pa.table(
                {"doc_id": pa.array(doc[idx], pa.int64()),
                 "n_sh": pa.array(lens, pa.int64())}
            )
            return index, sizes

        _VERIFY_REMOTES = explode_cand_shingles
    return _VERIFY_REMOTES


def _verify_candidates(
    base_refs: list, cands_t: pa.Table, tau: float
) -> pa.Table:
    """Distributed exact-Jaccard verify of LSH candidate pairs.

    Partition-local: the candidate doc-id set (small — O(candidates))
    broadcasts to per-block filter tasks that explode ONLY candidate
    docs' hashed shingle sets into a restricted inverted index; the
    intersection counts then ride the same :func:`pair_counts` exchange
    (each shingle's postings meet in exactly one partition). Driver-side
    state is O(candidate pairs) throughout — never a whole-corpus
    structure."""
    import ray

    empty = pa.table(
        {
            "doc_id_a": pa.array([], pa.int64()),
            "doc_id_b": pa.array([], pa.int64()),
            "n_common": pa.array([], pa.int64()),
            "jaccard": pa.array([], pa.float64()),
        }
    )
    if cands_t.num_rows == 0:
        return empty
    key = cands_t.column("pair").to_numpy()
    a = (key >> 32).astype(np.int64)
    b = (key & 0xFFFFFFFF).astype(np.int64)
    cand_docs = np.unique(np.concatenate([a, b]))
    docs_ref = ray.put(cand_docs)

    explode = _verify_remotes()
    outs = [explode.remote(r, docs_ref) for r in base_refs]
    index_refs = [o[0] for o in outs]
    inter_t, _ = pair_counts(index_refs, "sh", "doc_id")

    # sizes: each doc lives in exactly one block; the per-block size
    # tables are O(candidate docs) total
    sizes_t = pa.concat_tables(ray.get([o[1] for o in outs]))
    sdoc = sizes_t.column("doc_id").to_numpy()
    ssz = sizes_t.column("n_sh").to_numpy()
    order = np.argsort(sdoc)
    sdoc, ssz = sdoc[order], ssz[order]

    # intersection counts for the candidate pairs (a pair absent from the
    # restricted exchange shares no shingles -> jaccard 0)
    ikey = inter_t.column("pair").to_numpy()
    icnt = inter_t.column("n_common").to_numpy()
    iorder = np.argsort(ikey)
    ikey, icnt = ikey[iorder], icnt[iorder]
    pos = np.searchsorted(ikey, key)
    found = (pos < len(ikey)) & (ikey[np.minimum(pos, len(ikey) - 1)] == key)
    inter = np.where(found, icnt[np.minimum(pos, len(icnt) - 1)], 0).astype(np.int64)

    na = ssz[np.searchsorted(sdoc, a)]
    nb = ssz[np.searchsorted(sdoc, b)]
    union = na + nb - inter
    jac = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
    keep = jac >= tau
    return pa.table(
        {
            "doc_id_a": pa.array(a[keep]),
            "doc_id_b": pa.array(b[keep]),
            "n_common": pa.array(inter[keep]),
            "jaccard": pa.array(np.round(jac[keep], 6)),
        }
    )


def _minhash_sig_and_set(t: pa.Table) -> pa.Table:
    """One shingling pass feeds both the signatures (banding) and the
    hashed sets (exact verify) — the corpus is never re-read. Shared by
    :func:`dedup_minhash_lsh` and :func:`minhash_calibration`."""
    df = doc_shingles(t)
    if not len(df):
        return pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "sig": pa.array([], pa.list_(pa.uint64())),
             "hs": pa.array([], pa.list_(pa.uint64()))}
        )
    doc_of, starts, h, sigs = _sig_kernel(df)
    order = np.lexsort((h, doc_of))
    offsets = np.r_[starts, len(h)]
    hs = pa.ListArray.from_arrays(
        pa.array(offsets, pa.int32()),
        pa.array(h[order], pa.uint64()),
    )
    return pa.table(
        {
            "doc_id": pa.array(doc_of[starts], pa.int64()),
            "sig": pa.array(list(sigs), pa.list_(pa.uint64())),
            "hs": hs,
        }
    )


def _minhash_band_explode(t: pa.Table) -> pa.Table:
    """(band_key, doc_id) posting rows from per-doc signatures."""
    if t.num_rows == 0:
        return pa.table(
            {"band_key": pa.array([], pa.string()),
             "doc_id": pa.array([], pa.int64())}
        )
    sig = np.stack(t.column("sig").to_numpy(zero_copy_only=False))
    doc = t.column("doc_id").to_numpy()
    keys, docs = [], []
    mix = _BAND_MIX
    for bi in range(_MH_BANDS):
        rowslice = sig[:, bi * _MH_ROWS : (bi + 1) * _MH_ROWS]
        bh = rowslice[:, 0].copy()
        for j in range(1, _MH_ROWS):
            bh = bh * mix ^ rowslice[:, j]
        keys.append(np.char.add(f"{bi}:", bh.astype("U20")))
        docs.append(doc)
    return pa.table(
        {
            "band_key": pa.array(np.concatenate(keys)),
            "doc_id": pa.array(np.concatenate(docs), pa.int64()),
        }
    )


def _minhash_base_refs(sf_dir: str) -> list:
    """Per-block (doc_id, sig, hs) refs — the minhash front end."""
    rd = _rd()
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return arrow_refs(ds.map_batches(
        _minhash_sig_and_set, batch_format="pyarrow"))


def dedup_minhash_lsh(sf_dir: str, tau: float = 0.5) -> pa.Table:
    """Near-dup pairs via MinHash banding, verified with exact Jaccard.

    Output contract matches :func:`dedup_ngram_jaccard` (for pairs the
    banding recalls — essentially all at Jaccard >= ``tau`` = 0.5 with
    32x4 banding). Candidate generation touches O(colliding pairs); the
    exact verify is a second co-partitioned pass over candidate docs'
    hashed shingle sets (:func:`_verify_candidates`) — the corpus never
    materializes on the driver."""
    import ray

    base_refs = _minhash_base_refs(sf_dir)
    band_task = ray.remote(_minhash_band_explode)
    cands_t, _ = pair_counts(
        [band_task.remote(r) for r in base_refs], "band_key", "doc_id"
    )

    # exact verify: co-partitioned restricted pass, O(candidates) driver
    t = _verify_candidates(base_refs, cands_t, tau)
    return finalize(t, [("doc_id_a", "ascending"), ("doc_id_b", "ascending")])


# ---- SimHash ----------------------------------------------------------

_SH_CHUNKS = 4  # pigeonhole: hamming <= CHUNKS-1 guarantees a chunk match


def simhash64(batch: pa.Table) -> pa.Table:
    """Per-doc 64-bit SimHash over hashed whitespace tokens (vectorized:
    bit matrix segment-summed per doc, sign -> bits)."""
    flat, offsets = _tokenize(batch.column("text"))
    doc_ids = batch.column("doc_id").to_numpy()
    n_docs = len(offsets) - 1
    counts = np.diff(offsets)
    if len(flat) == 0:
        return pa.table(
            {"doc_id": pa.array(doc_ids, pa.int64()),
             "simhash": pa.array(np.zeros(n_docs, np.uint64))}
        )
    codes, uniq = pd.factorize(flat)
    h = hash_utf8_64(uniq)[codes]  # hash unique tokens, gather per row
    bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1).astype(
        np.int32
    ) * 2 - 1
    starts = offsets[:-1].copy()
    # reduceat needs strictly valid starts; empty docs handled after
    nonempty = counts > 0
    safe_starts = starts[nonempty]
    sums = np.zeros((n_docs, 64), dtype=np.int64)
    if len(safe_starts):
        sums[nonempty] = np.add.reduceat(bits, safe_starts, axis=0)[
            : int(nonempty.sum())
        ]
    sh = (sums > 0).astype(np.uint64) @ (
        np.uint64(1) << np.arange(64, dtype=np.uint64)
    )
    return pa.table(
        {"doc_id": pa.array(doc_ids, pa.int64()), "simhash": pa.array(sh)}
    )


def dedup_simhash(sf_dir: str, max_hamming: int = 3) -> pa.Table:
    """Document pairs whose 64-bit SimHashes differ by <= ``max_hamming``
    bits. Candidates via 16-bit-chunk pigeonhole bucketing (any pair
    within distance CHUNKS-1 shares >= 1 exact chunk); each chunk posting
    CARRIES its doc's simhash, so the XOR-popcount verify happens inside
    the exchange partitions (:func:`hamming_pairs`) — the driver holds
    only the final matching pairs, never a corpus-wide hash map."""
    rd = _rd()
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    hashes = ds.map_batches(simhash64, batch_format="pyarrow")

    def chunk_explode(t: pa.Table) -> pa.Table:
        doc = t.column("doc_id").to_numpy()
        sh = t.column("simhash").to_numpy().astype(np.uint64)
        keys, docs, vals = [], [], []
        for ci in range(_SH_CHUNKS):
            chunk = (sh >> np.uint64(16 * ci)) & np.uint64(0xFFFF)
            keys.append(chunk.astype(np.int64) * _SH_CHUNKS + ci)
            docs.append(doc)
            vals.append(sh)
        return pa.table(
            {
                "chunk_key": pa.array(np.concatenate(keys), pa.int64()),
                "doc_id": pa.array(np.concatenate(docs), pa.int64()),
                "simhash": pa.array(np.concatenate(vals), pa.uint64()),
            }
        )

    chunks = hashes.map_batches(chunk_explode, batch_format="pyarrow")
    pairs_t, _ = hamming_pairs(
        chunks, "chunk_key", "doc_id", "simhash", max_hamming
    )

    key = pairs_t.column("pair").to_numpy()
    t = pa.table(
        {
            "doc_id_a": pa.array((key >> 32).astype(np.int64)),
            "doc_id_b": pa.array((key & 0xFFFFFFFF).astype(np.int64)),
            "hamming": pairs_t.column("hamming"),
        }
    )
    return finalize(t, [("doc_id_a", "ascending"), ("doc_id_b", "ascending")])


# ---- near-dup clustering (transitive closure -> keep-list) -------------


def _cc_propagate(pid: int, edges: pa.Table, labels: pa.Table) -> pa.Table:
    """One label-propagation half-step: for this partition's edges
    (partitioned on src) joined to its labels (partitioned on node, same
    hash), emit the min source label per destination node."""
    empty = pa.table(
        {"dst": pa.array([], pa.int64()), "cand": pa.array([], pa.int64())}
    )
    if edges.num_rows == 0 or labels.num_rows == 0:
        return empty
    ln = labels.column("node").to_numpy()
    lv = labels.column("label").to_numpy()
    o = np.argsort(ln)
    ln, lv = ln[o], lv[o]
    src = edges.column("src").to_numpy()
    dst = edges.column("dst").to_numpy()
    cand = lv[np.searchsorted(ln, src)]  # every edge node is seeded
    o = np.argsort(dst, kind="stable")
    d, c = dst[o], cand[o]
    starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
    return pa.table(
        {"dst": pa.array(d[starts], pa.int64()),
         "cand": pa.array(np.minimum.reduceat(c, starts), pa.int64())}
    )


def _cc_update(pid: int, cands: pa.Table, labels: pa.Table) -> pa.Table:
    """Fold candidate labels into this partition's labels (min)."""
    if labels.num_rows == 0:
        return pa.table(
            {"node": pa.array([], pa.int64()), "label": pa.array([], pa.int64())}
        )
    ln = labels.column("node").to_numpy().copy()
    lv = labels.column("label").to_numpy().copy()
    if cands.num_rows and "dst" in cands.column_names:
        o = np.argsort(ln)
        ln, lv = ln[o], lv[o]
        pos = np.searchsorted(ln, cands.column("dst").to_numpy())
        np.minimum.at(lv, pos, cands.column("cand").to_numpy())
    return pa.table(
        {"node": pa.array(ln, pa.int64()), "label": pa.array(lv, pa.int64())}
    )


def _cluster_assign_partition(pid: int, docs: pa.Table, labels: pa.Table) -> pa.Table:
    """Per-doc cluster assignment: label if the doc is in a component,
    its own id otherwise. Used with the labels BROADCAST (small case) or
    co-partitioned with the docs on doc_id/node (gated case) — the math
    only needs the doc's own label either way."""
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()),
         "cluster_id": pa.array([], pa.int64()),
         "keep": pa.array([], pa.bool_())}
    )
    if docs.num_rows == 0 or "doc_id" not in docs.column_names:
        return empty
    did = docs.column("doc_id").to_numpy().astype(np.int64)
    cluster = did.copy()
    if labels.num_rows and "node" in labels.column_names:
        ln = labels.column("node").to_numpy()
        lv = labels.column("label").to_numpy()
        o = np.argsort(ln)
        ln, lv = ln[o], lv[o]
        pos = np.searchsorted(ln, did)
        hit = (pos < len(ln)) & (ln[np.minimum(pos, len(ln) - 1)] == did)
        cluster[hit] = lv[np.minimum(pos, len(lv) - 1)][hit]
    return pa.table(
        {
            "doc_id": pa.array(did, pa.int64()),
            "cluster_id": pa.array(cluster, pa.int64()),
            "keep": pa.array(cluster == did),
        }
    )


def _cc_seed(pid: int, nodes: pa.Table) -> pa.Table:
    """Exchange kernel: dedupe this partition's edge-node mentions into
    unique (node, label=node) seed rows (a node hashes to exactly one
    partition, so uniqueness is global)."""
    if nodes.num_rows == 0 or "node" not in nodes.column_names:
        return pa.table(
            {"node": pa.array([], pa.int64()), "label": pa.array([], pa.int64())}
        )
    u = np.unique(nodes.column("node").to_numpy())
    return pa.table(
        {"node": pa.array(u, pa.int64()), "label": pa.array(u, pa.int64())}
    )


_CC_REMOTES = None


def _cc_remotes():
    global _CC_REMOTES
    if _CC_REMOTES is None:
        import ray

        @ray.remote(num_returns=2)
        def double_edges(ca: str, cb: str, *tabs: pa.Table):
            """Pair tables -> (both directions of the undirected edges,
            unique node mentions). Takes a GROUP of pair refs so many
            tiny source blocks coalesce into one edge ref — the
            per-iteration exchange fan-out stays O(16), not O(blocks)."""
            live = [
                t for t in tabs if t.num_rows and ca in t.column_names
            ]
            if not live:
                return (
                    pa.table({"src": pa.array([], pa.int64()),
                              "dst": pa.array([], pa.int64())}),
                    pa.table({"node": pa.array([], pa.int64())}),
                )
            a = np.concatenate(
                [t.column(ca).to_numpy(zero_copy_only=False) for t in live]
            ).astype(np.int64)
            b = np.concatenate(
                [t.column(cb).to_numpy(zero_copy_only=False) for t in live]
            ).astype(np.int64)
            edges = pa.table(
                {"src": pa.array(np.concatenate([a, b]), pa.int64()),
                 "dst": pa.array(np.concatenate([b, a]), pa.int64())}
            )
            nodes = pa.table(
                {"node": pa.array(np.unique(np.concatenate([a, b])), pa.int64())}
            )
            return edges, nodes

        @ray.remote
        def label_sum(t: pa.Table) -> int:
            return int(pc.sum(t.column("label")).as_py() or 0)

        @ray.remote
        def row_count(t: pa.Table) -> int:
            return t.num_rows

        _CC_REMOTES = (double_edges, label_sum, row_count)
    return _CC_REMOTES


def connected_components_refs(
    pair_refs: list,
    cols: tuple[str, str] = ("doc_id_a", "doc_id_b"),
    max_iters: int = 64,
) -> list:
    """Distributed connected components over an undirected pair graph
    delivered AS PARTITION REFS (e.g. straight from
    :func:`ngram_jaccard_pair_refs` or the embedding verify exchange) —
    the edge list never transits the driver: edges double and seed their
    node labels in remote tasks, then min-label propagation runs two
    keyed exchanges per iteration (propagate the min label along edges
    partitioned on src; fold into labels partitioned on node). The
    driver folds only O(P) label sums per iteration, whose monotone
    decrease is the fixpoint test. Returns the (node, label) partition
    refs — label = the component's minimum node id."""
    import ray

    from .exchange import exchange_reduce

    double_edges, label_sum, _ = _cc_remotes()
    ca, cb = cols
    # coalesce: many tiny pair blocks -> at most 16 edge refs, so each
    # iteration's split fan-out stays O(16), not O(source blocks)
    n_groups = max(1, min(16, len(pair_refs)))
    groups = [pair_refs[g::n_groups] for g in range(n_groups)]
    doubled = [double_edges.remote(ca, cb, *g) for g in groups]
    edge_refs = [d[0] for d in doubled]
    node_refs = [d[1] for d in doubled]
    label_refs = exchange_reduce([node_refs], ["node"], _cc_seed)

    prev = None
    for _ in range(max_iters):
        cand_refs = exchange_reduce(
            [edge_refs, label_refs], ["src", "node"], _cc_propagate
        )
        label_refs = exchange_reduce(
            [cand_refs, label_refs], ["dst", "node"], _cc_update
        )
        total = sum(ray.get([label_sum.remote(r) for r in label_refs]))
        if total == prev:
            break
        prev = total
    else:
        raise RuntimeError(
            f"label propagation did not converge in {max_iters} iterations"
        )
    return label_refs


def connected_components(
    a: np.ndarray, b: np.ndarray, max_iters: int = 64
) -> pa.Table:
    """Driver-array convenience form of :func:`connected_components_refs`
    (small graphs / tests): chunks the edge list into refs and gathers
    the label table. Scale callers hold pair REFS already and skip both
    transits."""
    import ray

    from .exchange import gather_concat

    if len(a) == 0:
        return pa.table(
            {"node": pa.array([], pa.int64()), "label": pa.array([], pa.int64())}
        )
    pairs = pa.table(
        {"doc_id_a": pa.array(a.astype(np.int64), pa.int64()),
         "doc_id_b": pa.array(b.astype(np.int64), pa.int64())}
    )
    chunk = 262_144
    pair_refs = [
        ray.put(pairs.slice(i, chunk)) for i in range(0, pairs.num_rows, chunk)
    ]
    return gather_concat(connected_components_refs(pair_refs, max_iters=max_iters))


_CLUSTER_MAX_BROADCAST_IDS = 5_000_000


def dedup_clusters(
    sf_dir: str,
    tau: float = 0.2,
    max_iters: int = 64,
    max_broadcast_ids: int = _CLUSTER_MAX_BROADCAST_IDS,
) -> pa.Table:
    """Near-dup CLUSTERS and the canonical keep-list: connected
    components over the exact n-gram-Jaccard pair graph
    (:func:`dedup_ngram_jaccard` at the same ``tau``), each document
    labeled with its component's minimum doc_id (``cluster_id``) and
    ``keep`` = is-the-canonical-representative — the operator a training
    pipeline runs between "find near-dup pairs" and "drop the copies"
    (pairs alone under-delete: transitivity A~B~C must drop B AND C).

    The closure is DISTRIBUTED min-label propagation — per iteration,
    two keyed exchanges (propagate min label along edges partitioned on
    src; fold into labels partitioned on node); labels live as partition
    refs between iterations and the driver folds only O(P) label SUMS,
    whose strict monotone decrease is the fixpoint test (labels only
    ever shrink). Iterations = component diameter — near-dup clusters
    are shallow, so 2-3 in practice. REFS-NATIVE end to end: the pair
    graph flows from :func:`ngram_jaccard_pair_refs` straight into
    :func:`connected_components_refs` — no edge array ever lands on the
    driver. The final per-doc assignment broadcasts the O(pair-docs)
    label table while it fits ``max_broadcast_ids`` and keeps the label
    refs on an exact co-partitioned exchange on doc_id/node beyond it
    (the dedup_exact semi-join shape — a dup-heavy corpus never
    concentrates its labels in a broadcast object)."""
    import ray

    from ._util import ds_to_table
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    pair_refs, _ = ngram_jaccard_pair_refs(sf_dir, tau)
    label_refs = connected_components_refs(pair_refs, max_iters=max_iters)
    *_unused, row_count = _cc_remotes()
    n_labels = sum(ray.get([row_count.remote(r) for r in label_refs]))

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    if n_labels > max_broadcast_ids:
        # dup-heavy corpus: the label table itself outgrows a sane
        # broadcast — assign through an exact co-partitioned exchange on
        # doc_id/node, feeding the label REFS directly
        refs = exchange_reduce(
            [ds, label_refs], ["doc_id", "node"], _cluster_assign_partition
        )
        return finalize(gather_concat(refs), [("doc_id", "ascending")])

    lbl_ref = ray.put(gather_concat(label_refs))

    def assign(t: pa.Table) -> pa.Table:
        return _cluster_assign_partition(0, t, ray.get(lbl_ref))

    return finalize(ds_to_table(ds.map_batches(assign, batch_format="pyarrow")),
                    [("doc_id", "ascending")])


def simhash_clusters(
    sf_dir: str,
    max_hamming: int = 3,
    max_broadcast_ids: int = _CLUSTER_MAX_BROADCAST_IDS,
) -> pa.Table:
    """Near-dup clusters + keep-list over the SIMHASH pair graph — the
    third instantiation of the clustering contract (beside the n-gram
    and embedding routes): simhash pairs verify inside the pigeonhole
    exchange (:func:`dedup_simhash` — hashes shuffle, bodies don't),
    min-label propagation closes the components, and the per-doc
    assignment broadcasts the O(dup-docs) label table below
    ``max_broadcast_ids`` / routes through the doc_id-keyed exchange
    above it (the :func:`dedup_clusters` gate). Output:
    (doc_id, cluster_id, keep)."""
    import ray

    from ._util import ds_to_table
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    pairs = dedup_simhash(sf_dir, max_hamming)
    labels = connected_components(
        pairs.column("doc_id_a").to_numpy(),
        pairs.column("doc_id_b").to_numpy(),
    )
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    if labels.num_rows > max_broadcast_ids:
        chunk = 262_144
        label_refs = [
            ray.put(labels.slice(i, chunk))
            for i in range(0, labels.num_rows, chunk)
        ]
        refs = exchange_reduce(
            [ds, label_refs], ["doc_id", "node"], _cluster_assign_partition
        )
        return finalize(gather_concat(refs), [("doc_id", "ascending")])
    lbl_ref = ray.put(labels)

    def assign(t: pa.Table) -> pa.Table:
        return _cluster_assign_partition(0, t, ray.get(lbl_ref))

    return finalize(
        ds_to_table(ds.map_batches(assign, batch_format="pyarrow")),
        [("doc_id", "ascending")],
    )


# ---- benchmark decontamination ----------------------------------------
#
# Training-data hygiene: flag corpus documents that share word n-grams
# with a held-out benchmark/eval set, so eval answers never leak into
# training data. The eval membership rule is deterministic
# (doc_id % _DECON_MOD == _DECON_REM — the synthetic stand-in for "the
# benchmark suite"); contamination is measured over the same distinct
# word-3-gram shingles as the near-dup family, hashed with the
# SQL-reproducible hash_utf8_64 so the DuckDB twin matches bit-exactly
# (64-bit hash collisions are the only divergence source: ~n^2 / 2^65,
# negligible at any corpus size this engine targets).

_DECON_MOD = 50
_DECON_REM = 7
# Above this many distinct eval shingles the broadcast hash set stops
# being a sane `ray.put` side and the membership test routes through the
# keyed exchange (benchmark sets are small by nature, so the broadcast
# path is the common case — the gate is the 100 TB escape hatch).
_DECON_MAX_BROADCAST = 50_000_000


def _decon_result(doc_ids: np.ndarray, n_sh: np.ndarray, n_hit: np.ndarray) -> pa.Table:
    """Final per-doc contamination columns — integer basis points so the
    distributed result is bit-equal to the SQL oracle."""
    bp = (n_hit * 10000) // np.maximum(n_sh, 1)
    return pa.table(
        {
            "doc_id": pa.array(doc_ids.astype(np.int64), pa.int64()),
            "n_shingles": pa.array(n_sh.astype(np.int64), pa.int64()),
            "n_contaminated": pa.array(n_hit.astype(np.int64), pa.int64()),
            "contam_bp": pa.array(bp.astype(np.int64), pa.int64()),
            "contaminated": pa.array(n_hit > 0),
        }
    )


def _member_sorted(h: np.ndarray, sorted_set: np.ndarray) -> np.ndarray:
    """Vectorized membership of ``h`` in a SORTED unique uint64 array."""
    if len(sorted_set) == 0 or len(h) == 0:
        return np.zeros(len(h), dtype=bool)
    idx = np.minimum(np.searchsorted(sorted_set, h), len(sorted_set) - 1)
    return sorted_set[idx] == h


def _contam_partition(pid: int, postings: pa.Table, ev: pa.Table) -> pa.Table:
    """Per-partition membership + per-doc partial counts (exchange keyed
    by shingle hash: a shingle lives in exactly one partition, so the
    per-doc partials sum exactly across partitions)."""
    if postings.num_rows == 0 or "h" not in postings.column_names:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "n_sh": pa.array([], pa.int64()),
                "n_hit": pa.array([], pa.int64()),
            }
        )
    h = postings.column("h").to_numpy().astype(np.uint64)
    dids = postings.column("doc_id").to_numpy().astype(np.int64)
    if ev.num_rows and "h" in ev.column_names:
        evh = np.unique(ev.column("h").to_numpy().astype(np.uint64))
    else:
        evh = np.zeros(0, np.uint64)
    hit = _member_sorted(h, evh)
    uniq, inv = np.unique(dids, return_inverse=True)
    n_sh = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
    n_hit = np.bincount(inv, weights=hit, minlength=len(uniq)).astype(np.int64)
    return pa.table(
        {
            "doc_id": pa.array(uniq, pa.int64()),
            "n_sh": pa.array(n_sh, pa.int64()),
            "n_hit": pa.array(n_hit, pa.int64()),
        }
    )


def _contam_fold(pid: int, partials: pa.Table) -> pa.Table:
    """Sum the per-partition per-doc partials (exchange keyed by doc_id)."""
    if partials.num_rows == 0 or "doc_id" not in partials.column_names:
        return partials
    dids = partials.column("doc_id").to_numpy().astype(np.int64)
    uniq, inv = np.unique(dids, return_inverse=True)
    n_sh = np.zeros(len(uniq), np.int64)
    n_hit = np.zeros(len(uniq), np.int64)
    np.add.at(n_sh, inv, partials.column("n_sh").to_numpy().astype(np.int64))
    np.add.at(n_hit, inv, partials.column("n_hit").to_numpy().astype(np.int64))
    return pa.table(
        {
            "doc_id": pa.array(uniq, pa.int64()),
            "n_sh": pa.array(n_sh, pa.int64()),
            "n_hit": pa.array(n_hit, pa.int64()),
        }
    )


def decontaminate(
    sf_dir: str, max_broadcast_shingles: int = _DECON_MAX_BROADCAST
) -> pa.Table:
    """Benchmark decontamination: per CORPUS document (not in the eval
    set), the count of its distinct word-3-gram shingles that appear in
    ANY eval document, plus the contamination ratio in basis points and
    a boolean flag. Docs with < 3 tokens surface with n_shingles = 0.

    Two passes, neither shipping document bodies past the shingle map:

    1. eval pass — explode + hash the (small) eval docs' shingles and
       fold them to one distinct hash set. The set is materialized once
       (it is the benchmark suite — bounded by construction, not by the
       corpus) and counted before the route decision.
    2. corpus pass — while the eval set fits ``max_broadcast_shingles``
       it ships once via ``ray.put`` and every batch does one sorted
       searchsorted membership + bincount (zero shuffle). Beyond the
       gate, (hash, doc_id) postings and eval hashes co-partition by
       shingle hash through the keyed exchange, partitions emit per-doc
       partials, and a second exchange keyed on doc_id sums them —
       driver state is O(P) reduce outputs either way.
    """
    import ray

    rd = _rd()

    @ray.remote
    def eval_hashes(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return pa.table({"h": pa.array([], pa.uint64())})
        mask = (t.column("doc_id").to_numpy() % _DECON_MOD) == _DECON_REM
        sub = t.filter(pa.array(mask))
        df = doc_shingles(sub)
        h = (
            np.unique(_hash_shingles(df["shingle"].to_numpy()))
            if len(df)
            else np.zeros(0, np.uint64)
        )
        return pa.table({"h": pa.array(h, pa.uint64())})

    @ray.remote
    def nrows(t: pa.Table) -> int:
        return t.num_rows

    # ONE read: the block refs feed the eval fold, the gate count, and
    # whichever corpus pass the gate routes to (previously the Dataset
    # re-executed per pass)
    refs = arrow_refs(rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ))
    ev_refs = [eval_hashes.remote(r) for r in refs]
    n_eval = sum(ray.get([nrows.remote(r) for r in ev_refs]))

    if n_eval > max_broadcast_shingles:
        # 100 TB route: membership through the keyed exchange, then a
        # per-doc fold — no corpus- or eval-sized driver structure
        def corpus_postings(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or "doc_id" not in t.column_names:
                return pa.table(
                    {"h": pa.array([], pa.uint64()),
                     "doc_id": pa.array([], pa.int64())}
                )
            mask = (t.column("doc_id").to_numpy() % _DECON_MOD) != _DECON_REM
            df = doc_shingles(t.filter(pa.array(mask)))
            h = (
                _hash_shingles(df["shingle"].to_numpy())
                if len(df)
                else np.zeros(0, np.uint64)
            )
            return pa.table(
                {
                    "h": pa.array(h, pa.uint64()),
                    "doc_id": pa.array(
                        df["doc_id"].to_numpy().astype(np.int64)
                        if len(df)
                        else np.zeros(0, np.int64),
                        pa.int64(),
                    ),
                }
            )

        from .exchange import exchange_reduce, gather_concat

        postings_task = ray.remote(corpus_postings)
        partial_refs = exchange_reduce(
            [[postings_task.remote(r) for r in refs], ev_refs],
            ["h", "h"], _contam_partition,
        )
        totals = gather_concat(
            exchange_reduce([partial_refs], ["doc_id"], _contam_fold)
        )
        got = totals.column("doc_id").to_numpy() if totals.num_rows else np.zeros(0, np.int64)
        order = np.argsort(got)

        @ray.remote
        def block_ids(t: pa.Table) -> np.ndarray:
            if t.num_rows == 0 or "doc_id" not in t.column_names:
                return np.zeros(0, np.int64)
            return t.column("doc_id").to_numpy(zero_copy_only=False)

        all_ids = np.concatenate(ray.get([block_ids.remote(r) for r in refs]))
        all_ids = all_ids[(all_ids % _DECON_MOD) != _DECON_REM]
        n_sh = np.zeros(len(all_ids), np.int64)
        n_hit = np.zeros(len(all_ids), np.int64)
        if len(got):
            pos = np.minimum(np.searchsorted(got[order], all_ids), len(got) - 1)
            found = got[order][pos] == all_ids
            n_sh[found] = totals.column("n_sh").to_numpy()[order][pos[found]]
            n_hit[found] = totals.column("n_hit").to_numpy()[order][pos[found]]
        return finalize(_decon_result(all_ids, n_sh, n_hit),
                        [("doc_id", "ascending")])

    ev_sorted = np.unique(np.concatenate(
        [t.column("h").to_numpy().astype(np.uint64) for t in ray.get(ev_refs)]
    )) if n_eval else np.zeros(0, np.uint64)
    ev_ref = ray.put(ev_sorted)

    def contam_counts(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return _decon_result(
                np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.int64)
            )
        evs = ray.get(ev_ref)
        doc_ids = t.column("doc_id").to_numpy()
        keep = (doc_ids % _DECON_MOD) != _DECON_REM
        doc_ids = doc_ids[keep].astype(np.int64)
        n_sh = np.zeros(len(doc_ids), np.int64)
        n_hit = np.zeros(len(doc_ids), np.int64)
        df = doc_shingles(t.filter(pa.array(keep)))
        if len(df):
            h = _hash_shingles(df["shingle"].to_numpy())
            hit = _member_sorted(h, evs)
            order = np.argsort(doc_ids, kind="stable")
            pos = order[
                np.searchsorted(doc_ids[order], df["doc_id"].to_numpy())
            ]
            np.add.at(n_sh, pos, 1)
            np.add.at(n_hit, pos, hit.astype(np.int64))
        return _decon_result(doc_ids, n_sh, n_hit)

    contam_task = ray.remote(contam_counts)
    out = pa.concat_tables(
        [t for t in ray.get([contam_task.remote(r) for r in refs]) if t.num_rows],
        promote_options="default",
    )
    return finalize(out, [("doc_id", "ascending")])


# ---- edit-distance (fuzzy) near-dup pairs ------------------------------

# Character-level near-dup threshold: candidate pairs (>=1 shared word
# 3-gram — the same blocking the SQL twin mirrors) verified with EXACT
# banded Levenshtein. 16 edits separates "same doc, small patch" from
# rewrites on this corpus (10-99-token docs).
_EDIT_MAX_DIST = 16


def banded_levenshtein(a_mat, a_len, b_mat, b_len, D: int):
    """Exact Levenshtein per row pair wherever the true distance <= D;
    larger distances saturate at D+1 (never below — saturated cells can
    only propagate values >= D+1, and any cell on an optimal path of a
    <=D pair is itself <= D, hence never saturated).

    Vectorized across the PAIR axis: one (n_pairs, 2D+1) band state,
    max_len row iterations of pure numpy — the within-row insertion
    cascade r[k] = min(t[k], r[k-1]+1) closes in one
    ``minimum.accumulate`` via r = k + accmin(t - k). Inputs are padded
    code-point matrices (int64) + true lengths."""
    n = len(a_len)
    INF = D + 1
    W = 2 * D + 1
    kk = np.arange(W)
    if n == 0:
        return np.empty(0, np.int64)
    j0 = kk - D
    r = np.where(
        (j0 >= 0) & (j0[None, :] <= b_len[:, None]),
        np.broadcast_to(np.maximum(j0, 0), (n, W)), INF,
    ).astype(np.int64)
    r = np.minimum(r, INF)
    max_m = int(a_len.max())
    col_cap = b_mat.shape[1] - 1 if b_mat.shape[1] else 0
    arow = np.arange(n)
    for i in range(1, max_m + 1):
        j = i - D + kk                       # column index per band slot
        ai = a_mat[arow, np.minimum(i - 1, a_mat.shape[1] - 1)]
        bj = b_mat[:, np.clip(j - 1, 0, col_cap)]  # (n, W)
        valid = (j[None, :] >= 1) & (j[None, :] <= b_len[:, None])
        cost = np.where(valid, (bj != ai[:, None]).astype(np.int64), INF)
        # j == 0 cell (k = D - i): dist(i, 0) = i exactly
        prev_shift = np.concatenate(
            [r[:, 1:], np.full((n, 1), INF, np.int64)], axis=1
        )
        t = np.minimum(prev_shift + 1, r + cost)
        if 0 <= D - i < W:
            t[:, D - i] = min(i, INF)
        t = np.minimum(t, INF + 1)
        scan = kk + np.minimum.accumulate(t - kk, axis=1)
        new_r = np.minimum(np.minimum(t, scan), INF)
        # freeze rows past each a's true length; mask invalid columns
        new_r = np.where(
            (j[None, :] >= 0) & (j[None, :] <= b_len[:, None]), new_r, INF
        )
        r = np.where(i <= a_len[:, None], new_r, r)
    out_k = b_len - a_len + D
    return r[arow, out_k].astype(np.int64)


def _pad_codes(strs) -> tuple[np.ndarray, np.ndarray]:
    """Unicode code-point matrix (int64, zero-padded) + true lengths —
    code points, not bytes, to match SQL ``levenshtein`` / ``length``
    semantics (equal to bytes on this ASCII corpus)."""
    lens = np.empty(len(strs), np.int64)
    codes = []
    for i, s in enumerate(strs):
        c = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)
        lens[i] = len(c)
        codes.append(c)
    m = np.zeros((len(strs), max(int(lens.max()) if len(strs) else 0, 1)),
                 dtype=np.int64)
    for i, c in enumerate(codes):
        m[i, : len(c)] = c
    return m, lens


def _lookup_texts(texts: pa.Table, ids: np.ndarray) -> np.ndarray:
    td = texts.column("doc_id").to_numpy()
    tx = texts.column("text").to_numpy(zero_copy_only=False)
    order = np.argsort(td)
    td, tx = td[order], tx[order]
    pos = np.searchsorted(td, ids)
    if len(td) == 0 or (td[np.minimum(pos, len(td) - 1)] != ids).any():
        raise ValueError(
            "pair partition missing co-partitioned candidate texts — "
            "routing invariant broken"
        )
    return tx[pos]


def _edit_attach_a(pid: int, pairs: pa.Table, texts: pa.Table) -> pa.Table:
    """Stage-1 edit-distance kernel: attach the a-side text (pairs and
    candidate texts co-partitioned on doc_id_a)."""
    if pairs.num_rows == 0 or "doc_id_a" not in pairs.column_names:
        return _pair_empty({"text_a": pa.string()})
    a = pairs.column("doc_id_a").to_numpy()
    return pairs.append_column(
        "text_a", pa.array(_lookup_texts(texts, a), pa.string())
    )


def _char_hists(strs) -> np.ndarray:
    """Per-string code-point histograms over 256 buckets (codes >= 256
    share bucket 255 — merging bins only SHRINKS the L1 diff, so the
    bound below stays a valid lower bound)."""
    H = np.zeros((len(strs), 256), np.int32)
    for i, s in enumerate(strs):
        c = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)
        np.add.at(H[i], np.minimum(c, 255), 1)
    return H


def _edit_verify(D: int, pid: int, pairs: pa.Table, texts: pa.Table) -> pa.Table:
    """Stage-2 edit-distance kernel: attach the b-side text, then two
    result-preserving exact lower bounds prune before the DP — length
    delta (lev >= |len diff|) and character-histogram distance (one edit
    moves the histogram L1 by <= 2, so lev >= ceil(L1/2)); histograms
    are built once per DISTINCT doc, not per pair. Survivors run the
    banded DP; keep dist <= D."""
    empty = _pair_empty({"dist": pa.int64()}).drop_columns(["n_common"])
    if pairs.num_rows == 0 or "doc_id_b" not in pairs.column_names:
        return empty
    b = pairs.column("doc_id_b").to_numpy()
    ta = pairs.column("text_a").to_numpy(zero_copy_only=False)
    tb = _lookup_texts(texts, b)
    la = np.fromiter((len(s) for s in ta), np.int64, len(ta))
    lb = np.fromiter((len(s) for s in tb), np.int64, len(tb))
    cand = np.abs(la - lb) <= D
    if not cand.any():
        return empty
    a_all = pairs.column("doc_id_a").to_numpy()
    ua, ia_first, ia = np.unique(a_all[cand], return_index=True,
                                 return_inverse=True)
    ub, ib_first, ib = np.unique(b[cand], return_index=True,
                                 return_inverse=True)
    Ha = _char_hists(ta[cand][ia_first].tolist())
    Hb = _char_hists(tb[cand][ib_first].tolist())
    l1 = np.abs(Ha[ia] - Hb[ib]).sum(axis=1)
    hist_ok = (l1 + 1) // 2 <= D
    if not hist_ok.any():
        return empty
    sel = np.flatnonzero(cand)[hist_ok]
    a_ids = a_all[sel]
    b_ids = b[sel]
    am, al = _pad_codes(ta[sel].tolist())
    bm, bl = _pad_codes(tb[sel].tolist())
    dist = banded_levenshtein(am, al, bm, bl, D)
    keep = dist <= D
    return pa.table(
        {
            "doc_id_a": pa.array(a_ids[keep], pa.int64()),
            "doc_id_b": pa.array(b_ids[keep], pa.int64()),
            "dist": pa.array(dist[keep], pa.int64()),
        }
    )


def dedup_edit_distance(sf_dir: str, max_dist: int = _EDIT_MAX_DIST) -> pa.Table:
    """Character-level (Levenshtein) near-dup pairs — the fuzzy-dedup
    modality token-set measures miss (small in-place patches that keep
    almost every character but break shingle sets move edit distance
    only a little; unrelated docs sharing vocabulary look close in
    Jaccard but far in edits).

    Blocking + verify, all distributed: candidate pairs = docs sharing
    >= 1 word 3-gram (the :func:`pair_count_refs` exchange — same
    blocking rule the SQL twin mirrors); candidate doc TEXTS (only
    candidates — the id set broadcasts and filters the base blocks) ride
    two chained exchanges to meet their pairs, where the exact banded DP
    (:func:`banded_levenshtein`, vectorized across the pair axis)
    decides dist <= ``max_dist`` inside the partition. Driver holds ref
    handles and the final surviving pairs only. Recall contract: a pair
    with NO shared word 3-gram is out of scope on both sides of the
    oracle."""
    from functools import partial as fpartial

    import ray

    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    base_refs = arrow_refs(ds)

    @ray.remote
    def explode(t: pa.Table) -> pa.Table:
        df = doc_shingles(t)
        return pa.Table.from_pandas(df, preserve_index=False)

    @ray.remote
    def pair_ids(t: pa.Table) -> np.ndarray:
        if t.num_rows == 0 or "doc_id_a" not in t.column_names:
            return np.empty(0, np.int64)
        return np.unique(
            np.concatenate(
                [t.column("doc_id_a").to_numpy(), t.column("doc_id_b").to_numpy()]
            )
        )

    @ray.remote
    def cand_texts(t: pa.Table, ids: np.ndarray) -> pa.Table:
        keep = pc.is_in(t.column("doc_id"), value_set=pa.array(ids, pa.int64()))
        return t.filter(keep)

    shingle_refs = [explode.remote(r) for r in base_refs]
    pair_refs, _ = pair_count_refs(shingle_refs, "shingle", "doc_id")
    ids = np.unique(np.concatenate(ray.get([pair_ids.remote(r) for r in pair_refs])))
    ids_ref = ray.put(ids)
    text_refs = [cand_texts.remote(r, ids_ref) for r in base_refs]

    stage1 = exchange_reduce(
        [pair_refs, text_refs], ["doc_id_a", "doc_id"], _edit_attach_a
    )
    out = exchange_reduce(
        [stage1, text_refs], ["doc_id_b", "doc_id"],
        fpartial(_edit_verify, max_dist),
    )
    t = gather_concat(out)
    if t.num_rows == 0:
        t = _pair_empty({"dist": pa.int64()}).drop_columns(["n_common"])
    return finalize(t, [("doc_id_a", "ascending"), ("doc_id_b", "ascending")])


# ---- triangle counting over the near-dup graph -------------------------


def _tri_wedge_kernel(pid: int, t: pa.Table) -> pa.Table:
    """Edges co-partitioned on doc_id_a: each node's FORWARD adjacency
    (neighbors with larger id — exactly the stored a<b orientation) is
    complete here, so every wedge (a; b < c) it anchors can be emitted
    locally as the packed key of its closing edge (b, c)."""
    if t.num_rows == 0 or "doc_id_a" not in t.column_names:
        return pa.table({"wkey": pa.array([], pa.int64())})
    a = t.column("doc_id_a").to_numpy()
    b = t.column("doc_id_b").to_numpy()
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    starts = np.flatnonzero(np.r_[True, a[1:] != a[:-1]])
    ends = np.r_[starts[1:], len(a)]
    grp = np.cumsum(np.r_[True, a[1:] != a[:-1]]) - 1
    cf = ends[grp] - np.arange(len(a)) - 1
    if int(cf.sum()) == 0:
        return pa.table({"wkey": pa.array([], pa.int64())})
    li = np.repeat(np.arange(len(a)), cf)
    off = np.arange(len(li)) - np.repeat(np.r_[0, np.cumsum(cf)[:-1]], cf) + 1
    ri = li + off
    wkey = (b[li] << 32) | b[ri]          # b sorted within group -> b<c
    return pa.table({"wkey": pa.array(wkey, pa.int64())})


def _tri_close_kernel(pid: int, wedges: pa.Table, edges: pa.Table) -> pa.Table:
    """Wedges co-partitioned with the edge set on the packed (b, c) key:
    a wedge is a triangle iff its closing edge exists here. Emits one
    scalar partial row."""
    if wedges.num_rows == 0 or "wkey" not in wedges.column_names:
        return pa.table({"n_tri": pa.array([0], pa.int64())})
    if edges.num_rows == 0 or "ekey" not in edges.column_names:
        return pa.table({"n_tri": pa.array([0], pa.int64())})
    w = wedges.column("wkey").to_numpy()
    ek = np.sort(edges.column("ekey").to_numpy())
    pos = np.searchsorted(ek, w)
    hit = (pos < len(ek)) & (ek[np.minimum(pos, len(ek) - 1)] == w)
    return pa.table({"n_tri": pa.array([int(hit.sum())], pa.int64())})


def pair_triangles(sf_dir: str, tau: float = 0.2) -> pa.Table:
    """Triangle census of the verified n-gram-Jaccard near-dup graph —
    the third graph primitive beside refs-native connected components
    (N29) and PageRank (N73): edge count, wedge count (anchored
    forward-adjacency pairs) and closed-triangle count, the clustering-
    coefficient numerator duplication audits read (cliquey dup clusters
    vs chains of borderline pairs).

    Refs-native end-to-end: verified pair refs re-exchange on doc_id_a
    (forward adjacency completes per partition → wedges emitted as
    packed closing-edge keys), wedges meet the packed edge set in a
    second exchange, and only O(P) scalar partials + two O(P) count
    folds reach the driver. Hot-node wedge fan-out is bounded by the
    near-dup cluster size — the same skew the CC/PageRank operators
    carry, documented there."""
    import ray

    from .exchange import exchange_reduce

    pair_refs, _ = ngram_jaccard_pair_refs(sf_dir, tau)

    @ray.remote
    def edge_keys(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "doc_id_a" not in t.column_names:
            return pa.table({"ekey": pa.array([], pa.int64())})
        a = t.column("doc_id_a").to_numpy()
        b = t.column("doc_id_b").to_numpy()
        return pa.table({"ekey": pa.array((a << 32) | b, pa.int64())})

    @ray.remote
    def count_rows(t: pa.Table) -> int:
        return int(t.num_rows) if "doc_id_a" in t.column_names else 0

    @ray.remote
    def count_wedges(t: pa.Table) -> int:
        return int(t.num_rows) if "wkey" in t.column_names else 0

    n_edges = sum(ray.get([count_rows.remote(r) for r in pair_refs]))
    wedge_refs = exchange_reduce([pair_refs], ["doc_id_a"], _tri_wedge_kernel)
    n_wedges = sum(ray.get([count_wedges.remote(r) for r in wedge_refs]))
    ekey_refs = [edge_keys.remote(r) for r in pair_refs]
    tri_refs = exchange_reduce(
        [wedge_refs, ekey_refs], ["wkey", "ekey"], _tri_close_kernel
    )
    n_tri = sum(
        int(pc.sum(t.column("n_tri")).as_py() or 0)
        for t in ray.get(tri_refs) if t.num_rows
    )
    return pa.table(
        {
            "n_edges": pa.array([n_edges], pa.int64()),
            "n_wedges": pa.array([n_wedges], pa.int64()),
            "n_triangles": pa.array([n_tri], pa.int64()),
        }
    )


# ---- asymmetric containment near-dup -------------------------------------


def _cont_verify(tau: float, pid: int, pairs: pa.Table, sizes: pa.Table) -> pa.Table:
    """Stage-2 containment kernel (the :func:`_jac_verify` sibling):
    attach the b-side set size and keep pairs whose shingle CONTAINMENT
    ``|A∩B| / min(|A|, |B|)`` >= tau — the asymmetric criterion that
    catches a short document quoted inside a long one, which Jaccard
    misses (the union denominator drowns the small side)."""
    if pairs.num_rows == 0 or "doc_id_b" not in pairs.column_names:
        return _pair_empty({"containment": pa.float64()})
    if sizes.num_rows == 0:
        raise ValueError(
            "pair partition has no co-partitioned doc sizes — routing "
            "invariant broken (sizes must come from the same index)"
        )
    b = pairs.column("doc_id_b").to_numpy()
    nb = _lookup_sizes(sizes, b)
    na = pairs.column("na").to_numpy()
    i = pairs.column("n_common").to_numpy().astype(np.int64)
    cont = i / np.minimum(na, nb)
    keep = cont >= tau
    return pa.table(
        {
            "doc_id_a": pairs.column("doc_id_a").filter(pa.array(keep)),
            "doc_id_b": pairs.column("doc_id_b").filter(pa.array(keep)),
            "n_common": pa.array(i[keep], pa.int64()),
            "containment": pa.array(np.round(cont[keep], 6)),
        }
    )


def containment_pair_refs(
    sf_dir: str, tau: float = 0.8, P: int = _PC_PARTS
) -> tuple[list, dict]:
    """Verified containment near-dup pairs as P partition refs — the
    same fully-distributed shape as :func:`ngram_jaccard_pair_refs`
    (shingle inverted index → pair-count exchange → two chained
    size-attach exchanges), only the final criterion differs: the
    min-side denominator instead of the union."""
    from functools import partial as fpartial

    from .exchange import exchange_reduce

    rd = _rd()

    def explode(t: pa.Table) -> pa.Table:
        df = doc_shingles(t)
        return pa.Table.from_pandas(df, preserve_index=False)

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    refs = arrow_refs(ds.map_batches(explode, batch_format="pyarrow"))
    _, doc_sizes = _pc_ref_remotes()

    pair_refs, stats = pair_count_refs(refs, "shingle", "doc_id", P)
    size_refs = [doc_sizes.remote(r) for r in refs]
    stage1 = exchange_reduce(
        [pair_refs, size_refs], ["doc_id_a", "doc_id"], _jac_attach_na, P=P
    )
    verified = exchange_reduce(
        [stage1, size_refs], ["doc_id_b", "doc_id"],
        fpartial(_cont_verify, tau), P=P,
    )
    return verified, stats


def dedup_containment(sf_dir: str, tau: float = 0.8) -> pa.Table:
    """All document pairs whose word-3-gram containment
    ``|A∩B| / min(|A|, |B|)`` >= ``tau`` — the asymmetric near-dup
    family member: a tweet-sized doc fully quoted inside an article is
    containment 1.0 but Jaccard ≈ |small|/|large| ≈ 0. Gathered form of
    :func:`containment_pair_refs`; the driver receives only survivors."""
    from .exchange import gather_concat

    refs, _ = containment_pair_refs(sf_dir, tau)
    t = gather_concat(refs)
    if t.num_rows == 0:
        t = _pair_empty({"containment": pa.float64()})
    return finalize(t, [("doc_id_a", "ascending"), ("doc_id_b", "ascending")])


# ---- near-dup graph degree distribution -----------------------------------


def pair_degree_hist(sf_dir: str, tau: float = 0.2) -> pa.Table:
    """Degree distribution of the verified n-gram-Jaccard near-dup
    graph: how many documents have exactly ``degree`` near-duplicates —
    the graph-shape profile that distinguishes scattered pairwise noise
    (degree 1 mass) from template blobs (heavy high-degree tail) and
    sizes the blast radius of cluster-collapse dedup before running it.

    The verified pair refs never gather: each pair explodes to its two
    endpoint rows inside a task, the doc-keyed exchange completes every
    document's degree in exactly one partition, and each partition
    folds its degrees to a (degree, n_docs) histogram — the driver sees
    P × distinct-degrees rows, never the edge list."""
    import ray

    from .exchange import exchange_reduce, gather_concat

    refs, _ = ngram_jaccard_pair_refs(sf_dir, tau)

    @ray.remote
    def explode_endpoints(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "doc_id_a" not in t.column_names:
            return pa.table({"doc_id": pa.array([], pa.int64())})
        return pa.table({"doc_id": pa.concat_arrays([
            t.column("doc_id_a").combine_chunks(),
            t.column("doc_id_b").combine_chunks(),
        ])})

    def degree_kernel(pid: int, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return pa.table({"degree": pa.array([], pa.int64()),
                             "n_docs": pa.array([], pa.int64())})
        g = t.group_by(["doc_id"]).aggregate([([], "count_all")])
        deg = g.column("count_all").to_numpy()
        d, c = np.unique(deg, return_counts=True)
        return pa.table({"degree": pa.array(d.astype(np.int64)),
                         "n_docs": pa.array(c.astype(np.int64))})

    ends = [explode_endpoints.remote(r) for r in refs]
    parts = gather_concat(exchange_reduce([ends], ["doc_id"], degree_kernel))
    if parts.num_rows == 0:
        return pa.table({"degree": pa.array([], pa.int64()),
                         "n_docs": pa.array([], pa.int64())})
    g = parts.group_by(["degree"]).aggregate([("n_docs", "sum")])
    out = pa.table({"degree": g.column("degree"),
                    "n_docs": g.column("n_docs_sum").cast(pa.int64())})
    return finalize(out, [("degree", "ascending")])


# ---- prefix-filtering (AllPairs) near-dup ---------------------------------


def dedup_prefix_filter(
    sf_dir: str, tau_num: int = 4, tau_den: int = 5, P: int = _PC_PARTS
) -> pa.Table:
    """Exact near-dup pairs at Jaccard >= tau (= ``tau_num/tau_den``,
    default 0.8) via PREFIX FILTERING (Chaudhuri et al. SSJoin / Bayardo
    et al. AllPairs) -- the third candidate-generation family beside
    shared-shingle counting (N2) and MinHash banding (N3), and unlike
    banding it is LOSSLESS: under a global shingle order, two sets with
    J >= tau MUST share a token inside their length-(n - ceil(tau*n) + 1)
    prefixes, so the candidate set provably contains every true pair and
    the exact verify makes the output IDENTICAL to the all-pairs route.

    Fully distributed, no vocabulary broadcast, hashed shingles
    throughout (the minhash verify's set representation, so the standard
    distributed verify closes the pipeline): (1) one shingling pass
    builds per-doc sorted hash-set blocks; (2) the shingle-keyed
    exchange attaches each posting's global df (a shingle's postings
    co-locate, so df is partition-local); (3) the doc-keyed exchange
    regroups per doc, orders its shingles rarest-first (df asc, hash
    asc -- the canonical global order) and keeps only the integer-exact
    prefix (ceil in pure int math -- float tau*n would flip borderline
    prefix lengths); (4) :func:`pair_counts` generates candidates from
    prefix postings only -- prefixes are each doc's RAREST shingles, so
    hot tokens never drive the pair explosion; (5) the distributed
    exact verify (:func:`_verify_candidates`) filters to true
    Jaccard >= tau. At tau = 0.8 the prefix is ~20% of each doc's
    shingles -- candidate volume drops accordingly while recall stays
    1.0 by construction (asserted against N2 in pytest)."""
    import ray

    from .exchange import exchange_reduce

    rd = _rd()
    tau = tau_num / tau_den

    def hashed_sets(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "text" not in t.column_names:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "hs": pa.array([], pa.list_(pa.uint64()))})
        df = doc_shingles(t)
        if not len(df):
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "hs": pa.array([], pa.list_(pa.uint64()))})
        doc = df["doc_id"].to_numpy()
        h = hash_utf8_64(df["shingle"].to_numpy())
        order = np.lexsort((h, doc))
        doc_s, h_s = doc[order], h[order]
        starts = np.r_[0, np.flatnonzero(doc_s[1:] != doc_s[:-1]) + 1]
        offsets = np.r_[starts, len(h_s)]
        hs = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                      pa.array(h_s, pa.uint64()))
        return pa.table({"doc_id": pa.array(doc_s[starts], pa.int64()),
                         "hs": hs})

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    sets_refs = arrow_refs(ds.map_batches(hashed_sets,
                               batch_format="pyarrow"))

    @ray.remote
    def explode_postings(block: pa.Table) -> pa.Table:
        if block.num_rows == 0 or "hs" not in block.column_names:
            return pa.table({"sh": pa.array([], pa.int64()),
                             "doc_id": pa.array([], pa.int64())})
        hs = block.column("hs")
        if isinstance(hs, pa.ChunkedArray):
            hs = hs.combine_chunks()
        off = hs.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = hs.flatten().to_numpy(zero_copy_only=False).astype(np.uint64)
        lens = np.diff(off - off[0])
        doc = block.column("doc_id").to_numpy()
        return pa.table({"sh": pa.array(flat.view(np.int64), pa.int64()),
                         "doc_id": pa.array(np.repeat(doc, lens), pa.int64())})

    post_refs = [explode_postings.remote(r) for r in sets_refs]

    def df_attach(pid: int, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "sh" not in t.column_names:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "sh": pa.array([], pa.int64()),
                             "df": pa.array([], pa.int64())})
        sh = t.column("sh").to_numpy()
        uniq, inv, counts = np.unique(sh, return_inverse=True,
                                      return_counts=True)
        return pa.table({"doc_id": t.column("doc_id"),
                         "sh": t.column("sh"),
                         "df": pa.array(counts[inv], pa.int64())})

    st1 = exchange_reduce([post_refs], ["sh"], df_attach, P=P)

    def prefix_kernel(pid: int, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return pa.table({"sh": pa.array([], pa.int64()),
                             "doc_id": pa.array([], pa.int64())})
        did = t.column("doc_id").to_numpy()
        dfv = t.column("df").to_numpy()
        sh = t.column("sh").to_numpy()
        order = np.lexsort((sh, dfv, did))
        did, dfv, sh = did[order], dfv[order], sh[order]
        uniq, starts, counts = np.unique(did, return_index=True,
                                         return_counts=True)
        pos = np.arange(len(did)) - np.repeat(starts, counts)
        n = np.repeat(counts, counts)
        pfx = n - (tau_num * n + tau_den - 1) // tau_den + 1
        keep = pos < pfx
        return pa.table({"sh": pa.array(sh[keep], pa.int64()),
                         "doc_id": pa.array(did[keep], pa.int64())})

    prefix_refs = exchange_reduce([st1], ["doc_id"], prefix_kernel, P=P)
    cands, _ = pair_counts(prefix_refs, "sh", "doc_id", P)
    out = _verify_candidates(sets_refs, cands, tau)
    if out.num_rows == 0:
        out = _pair_empty({"jaccard": pa.float64()})
    return finalize(out, [("doc_id_a", "ascending"), ("doc_id_b", "ascending")])


# ---- near-dup cluster size histogram --------------------------------------


def cluster_size_hist(sf_dir: str, tau: float = 0.2) -> pa.Table:
    """Size distribution of the verified near-dup clusters: how many
    connected components of the Jaccard ≥ tau pair graph have exactly
    ``cluster_size`` members — the blast-radius summary of a
    cluster-collapse dedup (one row per size, so the answer is legible
    at ANY corpus size). Singleton documents (no near-dup) are not
    clusters and don't appear.

    Composition over the refs-native machinery: the verified pair refs
    feed :func:`connected_components_refs` (labels stay partition refs),
    a label-keyed exchange completes each component's size, and each
    partition folds sizes to a (size, n_clusters) histogram — the
    driver sees P × distinct-sizes rows, never a label table."""
    from .exchange import exchange_reduce, gather_concat

    refs, _ = ngram_jaccard_pair_refs(sf_dir, tau)
    label_refs = connected_components_refs(refs)

    def size_kernel(pid: int, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "label" not in t.column_names:
            return pa.table({"cluster_size": pa.array([], pa.int64()),
                             "n_clusters": pa.array([], pa.int64())})
        g = t.group_by(["label"]).aggregate([([], "count_all")])
        sz = g.column("count_all").to_numpy()
        u, c = np.unique(sz, return_counts=True)
        return pa.table({"cluster_size": pa.array(u.astype(np.int64)),
                         "n_clusters": pa.array(c.astype(np.int64))})

    parts = gather_concat(exchange_reduce([label_refs], ["label"],
                                          size_kernel))
    if parts.num_rows == 0:
        return pa.table({"cluster_size": pa.array([], pa.int64()),
                         "n_clusters": pa.array([], pa.int64())})
    g = parts.group_by(["cluster_size"]).aggregate([("n_clusters", "sum")])
    out = pa.table({"cluster_size": g.column("cluster_size"),
                    "n_clusters": g.column("n_clusters_sum").cast(pa.int64())})
    return finalize(out, [("cluster_size", "ascending")])


def pair_assortativity(sf_dir: str, tau: float = 0.2) -> pa.Table:
    """Degree assortativity of the verified near-dup graph — do highly
    duplicated documents pair with other hubs (template blobs) or with
    leaves (hub-and-spoke syndication)? Pearson correlation of endpoint
    degrees over the SYMMETRIZED edge list, closed in exact integers.

    Composition over partition refs, nothing gathers: the verified pair
    refs explode to endpoints -> doc-keyed exchange completes per-doc
    degrees (kept as refs); two more chained exchanges attach deg_a
    (keyed doc_id_a) then deg_b (keyed doc_id_b); each partition emits
    four int64 sums. Symmetry makes sx=sy and vx=vy, so
    r2_micro = ((10^6*|cov| // vx) * |cov|) // vx with
    cov = n*sxy - sx^2 — the same stepwise floor as the HUGEINT twin."""
    import ray

    from .exchange import exchange_reduce

    refs, _ = ngram_jaccard_pair_refs(sf_dir, tau)

    @ray.remote
    def explode_endpoints(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "doc_id_a" not in t.column_names:
            return pa.table({"doc_id": pa.array([], pa.int64())})
        return pa.table({"doc_id": pa.concat_arrays([
            t.column("doc_id_a").combine_chunks(),
            t.column("doc_id_b").combine_chunks(),
        ])})

    def degree_kernel(pid: int, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "deg": pa.array([], pa.int64())})
        g = t.group_by(["doc_id"]).aggregate([([], "count_all")])
        return pa.table({"doc_id": g.column("doc_id").cast(pa.int64()),
                         "deg": g.column("count_all").cast(pa.int64())})

    def attach_a(pid: int, pairs_t: pa.Table, deg_t: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id_b": pa.array([], pa.int64()),
                          "da": pa.array([], pa.int64())})
        if (pairs_t.num_rows == 0 or deg_t.num_rows == 0
                or "doc_id_a" not in pairs_t.column_names):
            return empty
        j = pairs_t.select(["doc_id_a", "doc_id_b"]).join(
            deg_t, keys=["doc_id_a"], right_keys=["doc_id"],
            join_type="inner")
        return pa.table({"doc_id_b": j.column("doc_id_b").cast(pa.int64()),
                         "da": j.column("deg").cast(pa.int64())})

    def attach_b(pid: int, half_t: pa.Table, deg_t: pa.Table) -> pa.Table:
        empty = pa.table({k: pa.array([], pa.int64())
                          for k in ("n", "s_sum", "s_sq", "s_xy")})
        if (half_t.num_rows == 0 or deg_t.num_rows == 0
                or "doc_id_b" not in half_t.column_names):
            return empty
        j = half_t.join(deg_t, keys=["doc_id_b"], right_keys=["doc_id"],
                        join_type="inner")
        da = j.column("da").to_numpy()
        db = j.column("deg").to_numpy()
        return pa.table({
            "n": pa.array([len(da)], pa.int64()),
            "s_sum": pa.array([int((da + db).sum())], pa.int64()),
            "s_sq": pa.array([int(np.dot(da, da) + np.dot(db, db))],
                             pa.int64()),
            "s_xy": pa.array([int(np.dot(da, db))], pa.int64()),
        })

    ends = [explode_endpoints.remote(r) for r in refs]
    deg_refs = exchange_reduce([ends], ["doc_id"], degree_kernel)
    half = exchange_reduce([refs, deg_refs], ["doc_id_a", "doc_id"], attach_a)
    parts = ray.get(
        exchange_reduce([half, deg_refs], ["doc_id_b", "doc_id"], attach_b))
    ne = ss = sq = sxy1 = 0
    for t in parts:
        if t.num_rows == 0:
            continue
        ne += sum(t.column("n").to_pylist())
        ss += sum(t.column("s_sum").to_pylist())
        sq += sum(t.column("s_sq").to_pylist())
        sxy1 += sum(t.column("s_xy").to_pylist())
    n, sx, sxx, sxy = 2 * ne, ss, sq, 2 * sxy1
    cov = n * sxy - sx * sx
    vx = n * sxx - sx * sx
    acov = abs(cov)
    r2 = ((1_000_000 * acov // vx) * acov) // vx if vx > 0 else 0
    return pa.table({
        "n_edges": pa.array([ne], pa.int64()),
        "sign": pa.array([(cov > 0) - (cov < 0)], pa.int64()),
        "r2_micro": pa.array([r2], pa.int64()),
    })


def shingle_df_hist(sf_dir: str) -> pa.Table:
    """Document-frequency histogram of 3-gram shingles — how template-y
    the corpus is (a heavy df>=2 tail predicts near-dup pair explosions
    and boilerplate mass; df=1 mass is unique content). Shingles move
    only as 64-bit hashes with per-batch distinct-per-doc combine; the
    hash-keyed exchange completes each shingle's df in one partition
    and folds it straight to a (df, n_shingles) histogram — P ×
    distinct-df rows to the driver, never the shingle vocabulary."""
    import ray

    from .exchange import exchange_reduce

    rd = _rd()
    empty = pa.table({"df": pa.array([], pa.int64()),
                      "n_shingles": pa.array([], pa.int64())})

    def post_partial(t: pa.Table) -> pa.Table:
        ept = pa.table({"h": pa.array([], pa.int64()),
                        "doc_id": pa.array([], pa.int64())})
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return ept
        df = doc_shingles(t)  # distinct per doc already
        if not len(df):
            return ept
        h = _hash_shingles(df["shingle"].to_numpy()).astype(np.int64)
        return pa.table({"h": pa.array(h, pa.int64()),
                         "doc_id": pa.array(df["doc_id"].to_numpy(),
                                            pa.int64())})

    def df_kernel(pid: int, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "h" not in t.column_names:
            return empty
        d = t.group_by(["h", "doc_id"]).aggregate([])
        g = d.group_by(["h"]).aggregate([([], "count_all")])
        df = g.column("count_all").to_numpy()
        u, c = np.unique(df, return_counts=True)
        return pa.table({"df": pa.array(u.astype(np.int64)),
                         "n_shingles": pa.array(c.astype(np.int64))})

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"]
                         ).map_batches(post_partial, batch_format="pyarrow")
    parts = [t for t in ray.get(exchange_reduce([ds], ["h"], df_kernel))
             if t.num_rows]
    if not parts:
        return empty
    g = (pa.concat_tables(parts).group_by(["df"])
         .aggregate([("n_shingles", "sum")])
         .rename_columns(["df", "n_shingles"]))
    g = pa.table({"df": g.column("df").cast(pa.int64()),
                  "n_shingles": g.column("n_shingles").cast(pa.int64())})
    return finalize(g, [("df", "ascending")])


def dup_pair_sim_hist(sf_dir: str, tau: float = 0.2) -> pa.Table:
    """Severity histogram of the verified near-dup pair graph: pairs per
    500-basis-point Jaccard band — the dial that tells a dedup operator
    whether the corpus's duplication is borderline (mass near tau) or
    hard template cloning (mass near 1.0) before choosing a collapse
    threshold.

    Refs-native like :func:`pair_degree_hist`: each verified-pair
    partition folds its own (band, count) histogram from the already-
    rounded jaccard column (floor(j*20), identical double arithmetic in
    the twin), driver sums P x <=20 rows — the edge list never
    gathers."""
    import ray

    refs, _ = ngram_jaccard_pair_refs(sf_dir, tau)

    @ray.remote
    def band_hist(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "jaccard" not in t.column_names:
            return pa.table({"band_bp": pa.array([], pa.int64()),
                             "n_pairs": pa.array([], pa.int64())})
        band = np.minimum(
            np.floor(t.column("jaccard").to_numpy() * 20.0), 19
        ).astype(np.int64)
        b, c = np.unique(band, return_counts=True)
        return pa.table({"band_bp": pa.array(b * 500, pa.int64()),
                         "n_pairs": pa.array(c.astype(np.int64))})

    tabs = [t for t in ray.get([band_hist.remote(r) for r in refs])
            if t.num_rows]
    if not tabs:
        return pa.table({"band_bp": pa.array([], pa.int64()),
                         "n_pairs": pa.array([], pa.int64())})
    g = pa.concat_tables(tabs).group_by(["band_bp"]).aggregate(
        [("n_pairs", "sum")]
    )
    out = pa.table({"band_bp": g.column("band_bp"),
                    "n_pairs": g.column("n_pairs_sum").cast(pa.int64())})
    return finalize(out, [("band_bp", "ascending")])


def dup_quality_matrix(sf_dir: str, tau: float = 0.2) -> pa.Table:
    """Does duplication correlate with low quality? The 2x2 census a
    corpus curator reads before deciding whether near-dup collapse and
    quality filtering are redundant: every document classified
    (near-dup involved x quality_ok), exact counts.

    Cross-pipeline composition, refs-native: the verified pair refs
    explode to endpoint ids (never gathered), per-batch quality flags
    ride the documents read (the quality_score kernel verbatim), the
    doc-keyed exchange co-locates both and each partition folds a 4-row
    census the driver sums."""
    import ray

    from .exchange import exchange_reduce, gather_concat
    from .text import _quality_batch

    rd = _rd()
    refs, _ = ngram_jaccard_pair_refs(sf_dir, tau)

    @ray.remote
    def endpoints(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "doc_id_a" not in t.column_names:
            return pa.table({"doc_id": pa.array([], pa.int64())})
        return pa.table({"doc_id": pa.concat_arrays([
            t.column("doc_id_a").combine_chunks(),
            t.column("doc_id_b").combine_chunks(),
        ])})

    def qflags(t: pa.Table) -> pa.Table:
        q = _quality_batch(t)
        return q.select(["doc_id", "quality_ok"])

    ends = [endpoints.remote(r) for r in refs]
    flags = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(qflags, batch_format="pyarrow")

    def census(pid: int, et: pa.Table, ft: pa.Table) -> pa.Table:
        empty_k = pa.table({"is_dup": pa.array([], pa.bool_()),
                            "quality_ok": pa.array([], pa.bool_()),
                            "n": pa.array([], pa.int64())})
        if ft.num_rows == 0 or "doc_id" not in ft.column_names:
            return empty_k
        did = ft.column("doc_id").to_numpy()
        dset = (np.unique(et.column("doc_id").to_numpy())
                if et.num_rows and "doc_id" in et.column_names
                else np.array([], np.int64))
        g = pa.table({
            "is_dup": pa.array(np.isin(did, dset)),
            "quality_ok": ft.column("quality_ok"),
            "n": pa.array(np.ones(len(did), np.int64)),
        }).group_by(["is_dup", "quality_ok"]).aggregate([("n", "sum")])
        return g.rename_columns(["is_dup", "quality_ok", "n"])

    parts = gather_concat(
        exchange_reduce([ends, flags], ["doc_id", "doc_id"], census)
    )
    if parts.num_rows == 0:
        return pa.table({"is_dup": pa.array([], pa.bool_()),
                         "quality_ok": pa.array([], pa.bool_()),
                         "n": pa.array([], pa.int64())})
    g = (parts.group_by(["is_dup", "quality_ok"]).aggregate([("n", "sum")])
         .rename_columns(["is_dup", "quality_ok", "n"]))
    return finalize(g, [("is_dup", "ascending"), ("quality_ok", "ascending")])


def minhash_calibration(sf_dir: str, tau: float = 0.5) -> pa.Table:
    """Sketch-quality report: how well the 128-permutation MinHash
    estimate tracks exact Jaccard on the pairs the banding actually
    verified — per 500-basis-point exact-Jaccard band, the pair count
    and the EXACT mean estimate (10⁴·Σmatching_components //
    (128·n_pairs)). The calibration a pipeline owner reads before
    trusting sketch-only thresholds at scale.

    Shape: the shared minhash front end streams once
    (:func:`_minhash_base_refs`); candidates band-collide and verify
    exactly as in :func:`dedup_minhash_lsh`; signatures for ONLY the
    verified pairs' endpoint docs (≤ 2·pairs rows) come back via a
    broadcast-membership fold, and the per-pair component matches close
    on the driver — bounded by the result's own pair count, never the
    corpus."""
    import ray

    base_refs = _minhash_base_refs(sf_dir)
    band_task = ray.remote(_minhash_band_explode)
    cands_t, _ = pair_counts(
        [band_task.remote(r) for r in base_refs], "band_key", "doc_id"
    )
    exact = _verify_candidates(base_refs, cands_t, tau)
    empty = pa.table({"band_bp": pa.array([], pa.int64()),
                      "n_pairs": pa.array([], pa.int64()),
                      "mean_est_bp": pa.array([], pa.int64())})
    if exact.num_rows == 0:
        return empty
    da = exact.column("doc_id_a").to_numpy()
    db = exact.column("doc_id_b").to_numpy()
    jac = exact.column("jaccard").to_numpy()
    want = np.unique(np.concatenate([da, db]))
    want_ref = ray.put(want)

    @ray.remote
    def pick_sigs(t: pa.Table):
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return None
        ids = t.column("doc_id").to_numpy()
        m = np.isin(ids, ray.get(want_ref))
        if not m.any():
            return None
        return (ids[m],
                np.stack(t.column("sig").filter(pa.array(m))
                         .to_numpy(zero_copy_only=False)))

    got = [g for g in ray.get([pick_sigs.remote(r) for r in base_refs]) if g]
    ids = np.concatenate([g[0] for g in got])
    sigs = np.vstack([g[1] for g in got])
    order = np.argsort(ids)
    ids, sigs = ids[order], sigs[order]
    ia = np.searchsorted(ids, da)
    ib = np.searchsorted(ids, db)
    matches = (sigs[ia] == sigs[ib]).sum(axis=1).astype(np.int64)
    band = np.minimum(np.floor(jac * 20.0), 19).astype(np.int64) * 500
    rows = []
    for b in np.unique(band):
        m = band == b
        n = int(m.sum())
        rows.append((int(b), n,
                     (10_000 * int(matches[m].sum())) // (128 * n)))
    return pa.table({
        "band_bp": pa.array([r[0] for r in rows], pa.int64()),
        "n_pairs": pa.array([r[1] for r in rows], pa.int64()),
        "mean_est_bp": pa.array([r[2] for r in rows], pa.int64()),
    })
