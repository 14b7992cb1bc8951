"""Text-analysis lineage metrics — the wider extractor registry.

The reference ships 22 image-hash extractors grouped into categories
(basic/perceptual/feature, /root/reference/hashing_config.py:446-528);
this module is the text-domain counterpart: per-partition content
digests built from the SAME kernels the query pipelines use (simhash,
minhash, winnowing fingerprints, token counting), registered into the
lineage metric registry (:mod:`.metrics`) under the ``textmetrics``
category and selectable with the reference's include/exclude DSL
(``--metrics all,-textmetrics`` / ``--metrics basic,simhash_digest``).

Each digest combines per-row 64-bit values with XOR — the same
order-independent combining law as the state merkle digest, so two
partitions' text digests are comparable without a sort, and a replayed
lake must reproduce them bit-for-bit (replay-determinism surface).

These are NOT in the default ``basic`` selection: they cost one pass
over the partition's live text at commit time and are opt-in knobs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .metrics import MetricResult, _live

_TM_MINHASH_PERMS = 8


def _live_text(state: pa.Table) -> "pa.Array | None":
    if state.num_rows == 0 or "text" not in state.column_names:
        return None
    txt = _live(state, "text").combine_chunks().drop_null()
    return txt if len(txt) else None


def simhash_digest(state: pa.Table) -> MetricResult:
    """XOR of per-row 64-bit SimHashes of live text (the near-dup
    pipeline's kernel, pipelines/dedup.py:simhash64)."""
    from ..pipelines.dedup import simhash64

    txt = _live_text(state)
    if txt is None:
        return MetricResult("simhash_digest_empty_input")
    fake = pa.table(
        {"doc_id": pa.array(np.arange(len(txt)), pa.int64()), "text": txt}
    )
    sh = simhash64(fake).column("simhash").to_numpy().astype(np.uint64)
    return MetricResult(f"{int(np.bitwise_xor.reduce(sh)):016x}", {"rows": len(sh)})


def minhash_digest(state: pa.Table) -> MetricResult:
    """XOR-fold of per-row truncated MinHash signatures (first
    ``_TM_MINHASH_PERMS`` permutations of the dedup pipeline's family)
    over live text — a cheap per-partition shingle-content sketch."""
    from ..pipelines.dedup import _MH_PRIME, _hash_shingles, _perm_coeffs, _tokenize

    txt = _live_text(state)
    if txt is None:
        return MetricResult("minhash_digest_empty_input")
    flat, off = _tokenize(txt)
    if len(flat) == 0:
        return MetricResult("minhash_digest_empty_input")
    h = _hash_shingles(flat)
    a, b = _perm_coeffs()
    a, b = a[:_TM_MINHASH_PERMS], b[:_TM_MINHASH_PERMS]
    hv = (h[:, None] * a[None, :] + b[None, :]) % _MH_PRIME
    # per-row min over each row's token segment, then XOR across rows
    lens = np.diff(off)
    starts = off[:-1][lens > 0]
    mins = np.minimum.reduceat(hv, starts, axis=0)
    dig = np.bitwise_xor.reduce(mins, axis=0)
    return MetricResult(
        ":".join(f"{int(x):016x}" for x in dig), {"perms": _TM_MINHASH_PERMS}
    )


def fingerprint_digest(state: pa.Table) -> MetricResult:
    """XOR of per-row winnowing-fingerprint-set XORs of live text
    (pipelines/text.py:winnow_fingerprints_kernel — Schleimer et al.)."""
    from ..pipelines.text import winnow_fingerprints_batch

    txt = _live_text(state)
    if txt is None:
        return MetricResult("fingerprint_digest_empty_input")
    n, _, xr = winnow_fingerprints_batch(txt)
    acc = np.bitwise_xor.reduce(xr) if len(xr) else np.uint64(0)
    return MetricResult(f"{int(acc):016x}", {"fingerprints": int(n.sum())})


def token_totals(state: pa.Table) -> MetricResult:
    """Total whitespace tokens / characters over live text — the
    token-budget accounting a training pipeline reads off lineage."""
    txt = _live_text(state)
    if txt is None:
        return MetricResult("token_totals_empty_input")
    n_tok = int(
        pc.sum(pc.count_substring_regex(txt, r"\S+")).as_py() or 0
    )
    n_chars = int(pc.sum(pc.utf8_length(txt)).as_py() or 0)
    return MetricResult(None, {"tokens": n_tok, "chars": n_chars})


TEXTMETRIC_REGISTRY = {
    "simhash_digest": simhash_digest,
    "minhash_digest": minhash_digest,
    "fingerprint_digest": fingerprint_digest,
    "token_totals": token_totals,
}


def register(registry: dict, categories: dict) -> None:
    """Install the text metrics into the main lineage registry."""
    registry.update(TEXTMETRIC_REGISTRY)
    categories["textmetrics"] = set(TEXTMETRIC_REGISTRY)
    categories.setdefault("digests", set()).update(
        {"simhash_digest", "minhash_digest", "fingerprint_digest"}
    )
