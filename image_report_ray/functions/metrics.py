"""Per-partition lineage metric registry — the engine's extractor library.

The direct graft of the reference's hash registry + dispatcher
(/root/reference/hashing_config.py:446-528 registries and categories;
/root/reference/ir:126-227 dispatch with per-item status, failure counts
and section timing). A metric is ``state_table -> MetricResult``; it is
computed inside the merge task over the partition's post-merge state and
emitted into the lineage XML's ``<metrics>`` section.

Error model (the reference's, §2.3 of SURVEY.md): expected failure modes
return string sentinels (``<name>_error``, ``<name>_empty_input``) which
the dispatcher records as ``status="failed: …"`` entries and COUNTS —
they never crash the merge.

Selection uses the same include/exclude mini-DSL as the reference's
``--hashes`` flag (``all,-profiles,text_digest_xor``), via
:func:`image_report_ray.config.get_selected`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..codec import rle_encode
from ..config import get_selected
from ..schema import DELETED_COL, LSN_COL


@dataclass
class MetricResult:
    """One computed metric: text payload + XML attributes."""

    text: str | None = None
    attrs: dict = field(default_factory=dict)


def _live(state: pa.Table, name: str) -> "pa.ChunkedArray | None":
    """Column ``name`` over the live rows only (``None`` if absent): one
    column is filtered, not the whole state."""
    if name not in state.column_names:
        return None
    return state.column(name).filter(pc.invert(state.column(DELETED_COL)))


# ---- profile metrics (RLE-encoded integer sequences, A1's graft) ------


def turn_profile(state: pa.Table) -> MetricResult:
    """Turn-index occupancy over live rows — the engine's projection
    profile (/root/reference/analysis.py:107-108), RLE-encoded."""
    live = _live(state, "turn_idx")
    if not len(live):
        return MetricResult("", {"encoding": "rle", "count": 0})
    t = live.combine_chunks().to_numpy(zero_copy_only=False)
    prof = np.bincount(t).tolist()
    return MetricResult(rle_encode(prof), {"encoding": "rle", "count": len(prof)})


def text_len_hist(state: pa.Table) -> MetricResult:
    """log2-bucketed live text lengths, RLE-encoded (16 buckets)."""
    live = _live(state, "text")
    if live is None or not len(live):
        return MetricResult("", {"encoding": "rle", "count": 0})
    ln = pc.utf8_length(live).combine_chunks()
    lnp = ln.to_numpy(zero_copy_only=False).astype(np.float64)
    lnp = lnp[~np.isnan(lnp)]
    if not len(lnp):
        return MetricResult("", {"encoding": "rle", "count": 0})
    buckets = np.minimum(np.log2(lnp + 1).astype(np.int64), 15)
    hist = np.bincount(buckets, minlength=16).tolist()
    return MetricResult(rle_encode(hist), {"encoding": "rle", "count": 16})


def role_counts(state: pa.Table) -> MetricResult:
    """Live rows per role, emitted ``role:count`` sorted by role."""
    live = _live(state, "role")
    if not len(live):
        return MetricResult("")
    vc = live.combine_chunks().drop_null().value_counts()
    pairs = sorted(
        zip(vc.field("values").to_pylist(), vc.field("counts").to_pylist())
    )
    return MetricResult(" ".join(f"{r}:{n}" for r, n in pairs))


def tool_counts(state: pa.Table) -> MetricResult:
    """Live rows per tool (nulls excluded), ``tool:count`` sorted."""
    live = _live(state, "tool")
    if live is None or not len(live):
        return MetricResult("")
    col = live.combine_chunks().drop_null()
    if len(col) == 0:
        return MetricResult("")
    vc = col.value_counts()
    pairs = sorted(
        zip(vc.field("values").to_pylist(), vc.field("counts").to_pylist())
    )
    return MetricResult(" ".join(f"{t}:{n}" for t, n in pairs))


# ---- scalar metrics ---------------------------------------------------


def lsn_span(state: pa.Table) -> MetricResult:
    """min/max applied lsn over all keys (incl. tombstones)."""
    if state.num_rows == 0:
        return MetricResult("lsn_span_empty_input")
    col = state.column(LSN_COL)
    return MetricResult(
        None, {"min": pc.min(col).as_py(), "max": pc.max(col).as_py()}
    )


def live_ratio(state: pa.Table) -> MetricResult:
    """live / total keys, in basis points (exact integer arithmetic)."""
    if state.num_rows == 0:
        return MetricResult("live_ratio_empty_input")
    tomb = int(pc.sum(pc.cast(state.column(DELETED_COL), pa.int64())).as_py() or 0)
    return MetricResult(
        None, {"bp": (state.num_rows - tomb) * 10_000 // state.num_rows}
    )


# ---- digest metrics ---------------------------------------------------


def text_digest_xor(state: pa.Table) -> MetricResult:
    """Order-independent XOR of per-row live-text hashes — a cheap
    cross-partition content sketch (same combining law as the state
    merkle digest)."""
    import pandas as pd

    live = _live(state, "text")
    if live is None or not len(live):
        return MetricResult("text_digest_xor_empty_input")
    txt = live.combine_chunks().drop_null()
    if len(txt) == 0:
        return MetricResult("text_digest_xor_empty_input")
    h = pd.util.hash_array(txt.to_numpy(zero_copy_only=False)).astype(np.uint64)
    return MetricResult(f"{int(np.bitwise_xor.reduce(h)):016x}")


METRIC_REGISTRY: dict[str, Callable[[pa.Table], MetricResult]] = {
    "turn_profile": turn_profile,
    "text_len_hist": text_len_hist,
    "role_counts": role_counts,
    "tool_counts": tool_counts,
    "lsn_span": lsn_span,
    "live_ratio": live_ratio,
    "text_digest_xor": text_digest_xor,
}

# Category table (the reference's category sets,
# /root/reference/hashing_config.py:491-528).
METRIC_CATEGORIES: dict[str, set[str]] = {
    "profiles": {"turn_profile", "text_len_hist", "role_counts", "tool_counts"},
    "scalars": {"lsn_span", "live_ratio"},
    "digests": {"text_digest_xor"},
    "basic": {"turn_profile", "lsn_span", "live_ratio"},
}


# The wider text-analysis extractor set (simhash/minhash/fingerprint
# digests, token totals) registers itself here — the reference's
# 22-extractor registry shape, /root/reference/hashing_config.py:446-528.
from .textmetrics import register as _register_textmetrics  # noqa: E402

_register_textmetrics(METRIC_REGISTRY, METRIC_CATEGORIES)


def select_metrics(spec: str) -> set[str]:
    """Parse a selection spec against the metric registry (M7 grammar)."""
    return get_selected(spec, set(METRIC_REGISTRY), METRIC_CATEGORIES)


def compute_metrics(
    state: pa.Table, selected: "set[str] | None" = None
) -> tuple[dict[str, MetricResult], int, int]:
    """Dispatch selected metrics over a partition state.

    Returns (results, computed_count, failed_count). Failures — sentinel
    returns or unexpected exceptions — get ``status`` attrs and are
    counted, never raised (/root/reference/ir:180-216)."""
    if selected is None:
        selected = set(METRIC_REGISTRY)
    out: dict[str, MetricResult] = {}
    computed = failed = 0
    for name in sorted(selected):
        fn = METRIC_REGISTRY[name]
        try:
            res = fn(state)
        except Exception as exc:  # unexpected: recorded, not raised
            res = MetricResult(None, {"status": f"failed: {type(exc).__name__}: {exc}"})
            failed += 1
            out[name] = res
            continue
        if res.text is not None and (
            res.text.endswith("_error") or res.text.endswith("_empty_input")
        ):
            res.attrs["status"] = f"failed: {res.text}"
            res.text = None
            failed += 1
        else:
            computed += 1
        out[name] = res
    return out, computed, failed
