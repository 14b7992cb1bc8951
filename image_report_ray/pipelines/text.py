"""Text-analysis pipelines over the ``documents`` table.

The per-row digest/metric work mirrors the reference's extractor-registry
stage (/root/reference/ir:126-227 dispatching hashing_config.py's 22
functions): vectorized kernels per batch, per-function failure accounting,
selection DSL. The SQL-checkable subset lives here; the wider metric
registry (simhash, minhash, fingerprints) is in ``functions/textmetrics``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .. import cache
from ._util import arrow_refs, ds_to_table, finalize

_TOKEN_SPLIT = r"\s+"
_PUNCT = r"[.,!?;:]"


def _rd():
    import ray.data as rd

    return rd


def text_stats(sf_dir: str) -> pa.Table:
    """Per-document token/char/punctuation counts — all pyarrow.compute
    kernels (count_substring_regex), zero Python row loops."""
    rd = _rd()

    def stats(t: pa.Table) -> pa.Table:
        text = t.column("text")
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_chars_calc": pc.utf8_length(text).cast(pa.int64()),
                "n_tokens": pc.count_substring_regex(text, r"\S+").cast(pa.int64()),
                "n_punct": pc.count_substring_regex(text, _PUNCT).cast(pa.int64()),
            }
        )

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return finalize(ds_to_table(ds.map_batches(stats, batch_format="pyarrow")),
                    [("doc_id", "ascending")])


def _token_topk_partition(pid: int, t: pa.Table, k: int = 20) -> pa.Table:
    """Per-partition token-count fold + top-k: a token's partials all
    meet in one partition, so its global count completes here and only
    k rows leave the partition."""
    if t.num_rows == 0:
        return pa.table({"token": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    g = t.group_by(["token"]).aggregate([("n_part", "sum")])
    out = pa.table(
        {"token": g.column("token"), "n": g.column("n_part_sum").cast(pa.int64())}
    )
    idx = pc.sort_indices(
        out, sort_keys=[("n", "descending"), ("token", "ascending")]
    )
    return out.take(idx.slice(0, k))


def top_tokens(sf_dir: str, k: int = 20) -> pa.Table:
    """Global token frequency top-k: per-batch partial counts (combiner),
    then the keyed exchange completes each token's count in exactly one
    partition and keeps only that partition's top-k — the driver folds
    P x k rows, never the vocabulary."""
    from functools import partial as fpartial

    from .exchange import exchange_reduce, gather_concat

    ti = _text_index_meta(sf_dir)
    if ti is not None:  # physical inverted index at rest for this content
        return _top_tokens_indexed(ti[0], ti[1], k)

    rd = _rd()

    def partial_counts(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(t.column("text"), _TOKEN_SPLIT)
        flat = pc.list_flatten(toks)
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = flat.value_counts()
        return pa.table({"token": vc.field("values"), "n_part": vc.field("counts")})

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    refs = exchange_reduce(
        [ds.map_batches(partial_counts, batch_format="pyarrow")],
        ["token"],
        fpartial(_token_topk_partition, k=k),
    )
    t = finalize(gather_concat(refs), [("n", "descending"), ("token", "ascending")])
    return t.slice(0, k).select(["token", "n"])


_LANG_TOPK_SCHEMA = pa.schema(
    [("lang", pa.string()), ("token", pa.string()), ("n", pa.int64())]
)


def _lang_topk_cut(t: pa.Table, k: int) -> pa.Table:
    """Keep the top-k rows PER lang under (n desc, token asc): one sort,
    then rank = position − group start, all vectorized. token is unique
    within a lang so the cut is deterministic — no boundary ties."""
    if t.num_rows == 0:
        return t
    idx = pc.sort_indices(
        t,
        sort_keys=[
            ("lang", "ascending"), ("n", "descending"), ("token", "ascending")
        ],
    )
    s = t.take(idx)
    lang = s.column("lang").to_numpy(zero_copy_only=False)
    change = np.r_[True, lang[1:] != lang[:-1]]
    grp = np.cumsum(change) - 1
    starts = np.flatnonzero(change)
    rank = np.arange(len(lang)) - starts[grp]
    return s.filter(pa.array(rank < k))


def _lang_token_topk_partition(pid: int, t: pa.Table, k: int = 10) -> pa.Table:
    """Per-partition fold + per-lang top-k: the exchange key is
    (lang, token), so a pair's global count completes here and at most
    langs × k rows leave the partition — a provable superset of each
    lang's global top-k."""
    if t.num_rows == 0:
        return _LANG_TOPK_SCHEMA.empty_table()
    g = t.group_by(["lang", "token"]).aggregate([("n_part", "sum")])
    out = pa.table(
        {
            "lang": g.column("lang"),
            "token": g.column("token"),
            "n": g.column("n_part_sum").cast(pa.int64()),
        }
    )
    return _lang_topk_cut(out, k)


def lang_top_tokens(sf_dir: str, k: int = 10) -> pa.Table:
    """Per-GROUP top-k — the grouped-rank window shape (`ROW_NUMBER()
    OVER (PARTITION BY lang ...)`) every curation dashboard needs: the
    k most frequent whitespace tokens per language.

    Same scale contract as :func:`top_tokens`: per-batch (lang, token)
    partial counts combine before the exchange, the keyed exchange
    completes each pair's count in exactly one partition, and only
    langs × k rows per partition reach the driver — the vocabulary
    never gathers. lang cardinality is fixed and tiny; token skew
    spreads because the exchange hashes the (lang, token) PAIR."""
    from functools import partial as fpartial

    from .exchange import exchange_reduce, gather_concat

    rd = _rd()

    def partial_counts(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            t.column("text").combine_chunks(), _TOKEN_SPLIT
        )
        flat = pc.list_flatten(toks)
        lang = t.column("lang").combine_chunks().take(
            pc.list_parent_indices(toks)
        )
        pairs = pa.table({"lang": lang, "token": flat}).filter(
            pc.not_equal(flat, "")
        )
        g = pairs.group_by(["lang", "token"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "lang": g.column("lang"),
                "token": g.column("token"),
                "n_part": g.column("count_all").cast(pa.int64()),
            }
        )

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "text"])
    refs = exchange_reduce(
        [ds.map_batches(partial_counts, batch_format="pyarrow")],
        ["lang", "token"],
        fpartial(_lang_token_topk_partition, k=k),
    )
    t = _lang_topk_cut(gather_concat(refs), k)
    return finalize(
        t,
        [("lang", "ascending"), ("n", "descending"), ("token", "ascending")],
    )


def _dedup_winner_partition(pid: int, t: pa.Table) -> pa.Table:
    """Per-partition winner election: all postings of a digest meet in
    one partition, so min(doc_id) per digest is final here."""
    if t.num_rows == 0:
        return pa.table({"doc_id": pa.array([], pa.int64())})
    g = t.group_by(["h"]).aggregate([("doc_id", "min")])
    return pa.table({"doc_id": g.column("doc_id_min").cast(pa.int64())})


def _winner_semijoin_partition(pid: int, docs: pa.Table, winners: pa.Table) -> pa.Table:
    """Exact co-partitioned semi-join: keep this partition's document
    rows whose doc_id is among its winner ids (both sides hashed here by
    doc_id, so membership is complete and exact — no Bloom false
    positives to launder)."""
    if docs.num_rows == 0 or winners.num_rows == 0:
        return docs.slice(0, 0)
    wid = winners.column("doc_id")
    if isinstance(wid, pa.ChunkedArray):
        wid = wid.combine_chunks()
    return docs.filter(pc.is_in(docs.column("doc_id"), value_set=wid))


# Above this winner count the broadcast id-set stops being a sane
# `ray.put` side and the keep pass routes through the keyed exchange.
_DEDUP_MAX_BROADCAST_IDS = 5_000_000


def _dedup_hash_batch(t: pa.Table) -> pa.Table:
    """(128-bit content hash, min doc_id) partials for one batch — the
    map side of exact dedup's winner election (module-level so the
    corpus-export composition reuses the exact same digest)."""
    txt = t.column("text")
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    arr = txt.to_numpy(zero_copy_only=False).astype(object)
    h1 = pd.util.hash_array(arr, hash_key="irrdedupexactkey")
    h2 = pd.util.hash_array(arr, hash_key="irrdedupexactTWO")
    h = (
        h1.astype(np.uint64).byteswap().view(np.uint8).reshape(-1, 8),
        h2.astype(np.uint64).byteswap().view(np.uint8).reshape(-1, 8),
    )
    digest = np.concatenate(h, axis=1).tobytes()
    part = pa.table(
        {
            "h": pa.FixedSizeBinaryArray.from_buffers(
                pa.binary(16), len(arr), [None, pa.py_buffer(digest)]
            ),
            "doc_id": t.column("doc_id"),
        }
    )
    g = part.group_by(["h"]).aggregate([("doc_id", "min")])
    return g.rename_columns(["h", "doc_id"])


def dedup_exact(
    sf_dir: str, max_broadcast_ids: int = _DEDUP_MAX_BROADCAST_IDS
) -> pa.Table:
    """Exact dedup: content-hash each text, keep the smallest doc_id per
    hash. Two passes, neither shipping document bodies: pass 1 shuffles
    only (hash, doc_id) pairs — with a per-batch min combiner — through
    the keyed exchange to elect the winner id per digest; pass 2
    re-reads and keeps winner rows, via a broadcast id set while it fits
    (O(winners) driver memory) and via an exact co-partitioned semi-join
    on doc_id (:func:`_winner_semijoin_partition`) beyond
    ``max_broadcast_ids`` — same output, no corpus-sized broadcast.
    The digest is two independently-keyed vectorized 64-bit text hashes
    (128 bits total — collision probability negligible at corpus scale),
    computed batch-at-a-time in C instead of a per-row crypto loop."""
    import ray

    rd = _rd()

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    from .exchange import exchange_reduce, gather_concat

    winners_t = gather_concat(
        exchange_reduce(
            [ds.map_batches(_dedup_hash_batch, batch_format="pyarrow")],
            ["h"],
            _dedup_winner_partition,
        )
    )
    if winners_t.num_rows > max_broadcast_ids:
        # scale path: exact semi-join through the exchange, keyed on
        # doc_id — winner ids never concentrate on the driver or in a
        # broadcast object
        refs = exchange_reduce(
            [ds, rd.from_arrow(winners_t)],
            ["doc_id", "doc_id"],
            _winner_semijoin_partition,
        )
        return finalize(gather_concat(refs), [("doc_id", "ascending")])

    winner_ids = pa.array(
        np.sort(winners_t.column("doc_id").to_numpy()), pa.int64()
    )
    ids_ref = ray.put(winner_ids)

    def keep_winners(t: pa.Table) -> pa.Table:
        ids = ray.get(ids_ref)
        return t.filter(pc.is_in(t.column("doc_id"), value_set=ids))

    out = ds.map_batches(keep_winners, batch_format="pyarrow")
    return finalize(ds_to_table(out), [("doc_id", "ascending")])


# Broadcast stopword table — engine config in the reference's
# dimension-table style (/root/reference/papersize.py:37-65); tokens are
# common in the synthetic corpus so ratios are non-trivial.
STOPWORDS = ("the", "a", "and", "of", "to", "table", "row", "value", "key", "fast")

# BPE-ish pre-tokenizer classes over lowercased text: letter runs, digit
# runs, single non-alphanumeric marks (the regex stand-in for a learned
# BPE vocab; the counts are what a token-budget pipeline needs).
_BPE_ALPHA = r"[a-z]+"
_BPE_NUM = r"[0-9]+"
_BPE_OTHER = r"[^a-z0-9\s]"


def quality_rank(sf_dir: str, P: int = 16) -> pa.Table:
    """Global total-order rank of every document by quality
    (stop_ratio_bp desc, doc_id asc) — the distributed-sort shape a
    corpus-curation pipeline uses for "keep the best N%":

    1. per-block score kernel (the exact :func:`_quality_batch` ints),
    2. a per-block sample picks P-1 RANGE bounds (sample quality only
       affects balance, never correctness),
    3. rows route by score range — equal scores always co-locate, so
       the doc_id tiebreak is bucket-local,
    4. each bucket sorts locally; global rank = local rank + the
       exclusive prefix of bucket counts (driver folds P ints, no rows).

    Exact twin: ``__ray_entry__`` ``quality_rank`` (ROW_NUMBER over the
    quality CTE)."""
    import ray

    rd = _rd()

    @ray.remote
    def score_block(block: pa.Table) -> pa.Table:
        return _quality_batch(block).select(["doc_id", "stop_ratio_bp"])

    @ray.remote
    def sample_block(t: pa.Table, k: int = 64) -> np.ndarray:
        s = t.column("stop_ratio_bp").to_numpy()
        if len(s) <= k:
            return np.sort(s)
        return np.sort(s)[np.linspace(0, len(s) - 1, k).astype(np.int64)]

    @ray.remote
    def split_range(t: pa.Table, bounds: np.ndarray, nb: int):
        s = t.column("stop_ratio_bp").to_numpy()
        b = np.searchsorted(bounds, s, side="left")
        order = np.argsort(b, kind="stable")
        tt = t.take(pa.array(order))
        cuts = np.searchsorted(b[order], np.arange(nb + 1))
        return tuple(tt.slice(cuts[i], cuts[i + 1] - cuts[i]) for i in range(nb))

    @ray.remote(num_returns=2)
    def sort_bucket(*slices):
        live = [s for s in slices if s.num_rows]
        if not live:
            return slices[0], 0
        t = pa.concat_tables(live, promote_options="default")
        sc = t.column("stop_ratio_bp").to_numpy()
        d = t.column("doc_id").to_numpy()
        order = np.lexsort((d, -sc))
        return t.take(pa.array(order)), t.num_rows

    @ray.remote
    def add_rank(t: pa.Table, offset: int) -> pa.Table:
        rnk = pa.array(np.arange(offset + 1, offset + 1 + t.num_rows), pa.int64())
        return pa.table(
            {"rnk": rnk, "doc_id": t.column("doc_id"),
             "stop_ratio_bp": t.column("stop_ratio_bp")}
        )

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    refs = [score_block.remote(r) for r in arrow_refs(ds)]
    sample = np.concatenate(ray.get([sample_block.remote(r) for r in refs]))
    if not len(sample):
        return pa.table(
            {"rnk": pa.array([], pa.int64()),
             "doc_id": pa.array([], pa.int64()),
             "stop_ratio_bp": pa.array([], pa.int64())}
        )
    bounds = np.unique(
        np.quantile(sample, np.linspace(0, 1, P + 1)[1:-1]).astype(np.int64)
    )
    nb = len(bounds) + 1
    mats = [split_range.options(num_returns=nb).remote(r, bounds, nb) for r in refs]
    if nb == 1:
        mats = [[m] for m in mats]
    sorted_counts = [
        sort_bucket.remote(*[m[b] for m in mats]) for b in range(nb)
    ]
    counts = ray.get([sc[1] for sc in sorted_counts])
    # bucket nb-1 holds the HIGHEST scores -> rank offset 0; descend
    offsets = np.r_[0, np.cumsum(counts[::-1])[:-1]][::-1]
    out = [
        add_rank.remote(sorted_counts[b][0], int(offsets[b]))
        for b in range(nb)
        if counts[b]
    ]
    t = pa.concat_tables(ray.get(out), promote_options="default")
    return finalize(t, [("rnk", "ascending")])


_MIX_BUDGET_DEN = 2  # sample budget = 1/2 of the corpus, exact rational


def mixture_sample(sf_dir: str, seed: int = 0x5EED) -> pa.Table:
    """Deterministic temperature-weighted corpus sample — the sampler
    that CONSUMES :func:`mixture_weights`: lang i keeps documents with
    probability ``min(1, budget * N * w_i / n_i)`` (expected kept mass
    follows the mixture weights; upweighted small sources saturate at
    keep-all). The keep decision is ``splitmix64(doc_id + seed) <
    thr_i`` with the threshold an EXACT integer (w_i's 6-decimal
    rounding lifted to micro units) — reproducible on any cluster
    shape, no RNG state.

    Scale shape: one fixed-cardinality count fold (the N63 weight
    table), a tiny threshold dict broadcast, then one streamed
    map_batches — no shuffle. Exact twin: ``__ray_entry__``
    ``mixture_sample``."""
    import ray

    rd = _rd()
    w = mixture_weights(sf_dir)
    langs = w.column("lang").to_pylist()
    n_docs = w.column("n_docs").to_numpy().astype(np.int64)
    w6 = np.round(w.column("mix_weight").to_numpy() * 1_000_000).astype(np.int64)
    total = int(n_docs.sum())
    thr = {
        lang: (int(w6[i]) * total * (1 << 64))
        // (_MIX_BUDGET_DEN * 1_000_000 * int(n_docs[i]))
        for i, lang in enumerate(langs)
    }
    thr_ref = ray.put(thr)

    def keep_batch(t: pa.Table) -> pa.Table:
        th = ray.get(thr_ref)
        did = t.column("doc_id").to_numpy().astype(np.uint64)
        h = _splitmix64(did + np.uint64(seed))
        lang = t.column("lang").to_numpy(zero_copy_only=False)
        keep = np.zeros(len(did), bool)
        for lg in np.unique(lang):
            m = lang == lg
            tl = th.get(lg, 0)
            if tl >= (1 << 64):
                keep[m] = True
            else:
                keep[m] = h[m] < np.uint64(tl)
        return pa.table(
            {
                "doc_id": t.column("doc_id").filter(pa.array(keep)),
                "lang": t.column("lang").filter(pa.array(keep)),
            }
        )

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])
    t = ds_to_table(ds.map_batches(keep_batch, batch_format="pyarrow"))
    return finalize(t, [("doc_id", "ascending")])


def quality_score(sf_dir: str) -> pa.Table:
    """Per-document quality signals: token count, stopword ratio, mean
    token length, punctuation count and a pass/fail flag — all integer
    arithmetic (basis points) so the distributed result is bit-equal to
    the SQL oracle. The heuristic family is standard training-data
    filtering (Gopher-style length/stopword rules)."""
    rd = _rd()

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return finalize(
        ds_to_table(ds.map_batches(_quality_batch, batch_format="pyarrow")),
        [("doc_id", "ascending")],
    )


_STOP_ARR = None


def _quality_batch(t: pa.Table) -> pa.Table:
    """Per-doc quality signals for one batch (module-level so the
    corpus-export composition reuses the exact same kernel)."""
    global _STOP_ARR
    if _STOP_ARR is None:
        _STOP_ARR = pa.array(STOPWORDS)
    stop = _STOP_ARR
    text = t.column("text")
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    low = pc.utf8_lower(text)
    toks = pc.split_pattern_regex(low, r"\s+")
    flat = toks.flatten()
    valid = pc.not_equal(flat, "")
    # per-doc token counts from list offsets (empty-string artifacts
    # of split-vs-extract removed by masking)
    off = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    vnp = valid.to_numpy(zero_copy_only=False)
    cum = np.r_[0, np.cumsum(vnp)]
    n_tok = cum[off[1:]] - cum[off[:-1]]
    is_stop = pc.and_(valid, pc.is_in(flat, value_set=stop)).to_numpy(
        zero_copy_only=False
    )
    cum_s = np.r_[0, np.cumsum(is_stop)]
    n_stop = cum_s[off[1:]] - cum_s[off[:-1]]
    tok_len = pc.utf8_length(flat).to_numpy(zero_copy_only=False) * vnp
    cum_l = np.r_[0, np.cumsum(tok_len)]
    sum_len = cum_l[off[1:]] - cum_l[off[:-1]]
    n_punct = pc.count_substring_regex(t.column("text"), _PUNCT).to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    nt = np.maximum(n_tok, 1)
    stop_bp = n_stop * 10_000 // nt
    len_bp = sum_len * 10_000 // nt
    ok = (n_tok >= 10) & (n_tok <= 1_000) & (stop_bp >= 100) & (len_bp <= 120_000)
    return pa.table(
        {
            "doc_id": t.column("doc_id"),
            "n_tokens": pa.array(n_tok, pa.int64()),
            "n_stop": pa.array(n_stop, pa.int64()),
            "stop_ratio_bp": pa.array(stop_bp, pa.int64()),
            "mean_tok_len_bp": pa.array(len_bp, pa.int64()),
            "n_punct": pa.array(n_punct, pa.int64()),
            "quality_ok": pa.array(ok),
        }
    )


def tokenize_bpe(sf_dir: str) -> pa.Table:
    """BPE-ish pre-tokenization counts per document (letter runs, digit
    runs, single marks) — pure ``pyarrow.compute`` regex kernels."""
    rd = _rd()

    def counts(t: pa.Table) -> pa.Table:
        low = pc.utf8_lower(t.column("text"))
        n_a = pc.count_substring_regex(low, _BPE_ALPHA).cast(pa.int64())
        n_n = pc.count_substring_regex(low, _BPE_NUM).cast(pa.int64())
        n_o = pc.count_substring_regex(low, _BPE_OTHER).cast(pa.int64())
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_alpha_runs": n_a,
                "n_num_runs": n_n,
                "n_marks": n_o,
                "n_bpe_tokens": pc.add(pc.add(n_a, n_n), n_o),
            }
        )

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return finalize(ds_to_table(ds.map_batches(counts, batch_format="pyarrow")),
                    [("doc_id", "ascending")])


def _topk_profiles(vocab: pd.DataFrame, top_k: int) -> dict[str, frozenset]:
    """(lang, token, n) counts -> per-language top-k token sets.
    Deterministic tie-break: count desc, then token asc."""
    vocab = vocab.sort_values(
        ["lang", "n", "token"], ascending=[True, False, True], kind="stable"
    )
    head = vocab.groupby("lang", sort=True).head(top_k)
    return {
        str(lang): frozenset(g.token)
        for lang, g in head.groupby("lang", sort=True)
    }


def fit_lang_profiles(
    texts: "list[str]", labels: "list[str]", top_k: int = 30
) -> dict[str, frozenset]:
    """Pure kernel: per-language top-k token profiles (the 'model').
    Token-count ties break deterministically (count desc, token asc) —
    the same rule the distributed fit uses, so both produce identical
    profiles on identical input."""
    df = pd.DataFrame({"text": texts, "lang": labels})
    toks = df.text.str.lower().str.split()
    flat = pd.DataFrame(
        {
            "lang": df.lang.repeat(toks.str.len()),
            "token": np.concatenate(toks.to_numpy()) if len(df) else [],
        }
    )
    vocab = (
        flat.groupby(["lang", "token"], sort=False).size().rename("n").reset_index()
    )
    return _topk_profiles(vocab, top_k)


def predict_langs(texts: "list[str]", profiles: dict[str, frozenset]) -> list[str]:
    """Reference kernel (per-text loop): best profile-overlap language per
    text, ties -> lexicographically smallest language. The pipeline uses
    the vectorized twin :func:`predict_langs_vectorized`; equality of the
    two is pinned in pytest."""
    langs = sorted(profiles)
    sets = [profiles[l] for l in langs]
    out = []
    for t in texts:
        s = set(t.lower().split())
        scores = [len(s & ls) for ls in sets]
        out.append(langs[int(np.argmax(scores))])
    return out


def predict_langs_vectorized(
    text_col: "pa.ChunkedArray | pa.Array", profiles: dict[str, frozenset]
) -> np.ndarray:
    """Vectorized profile-overlap prediction for a batch: tokenize via
    Arrow, factorize tokens, dedupe (doc, token) pairs (set semantics),
    score every language with a token->lang bitmask lookup, argmax (ties
    -> first = lexicographically smallest language)."""
    from .dedup import _tokenize

    langs = sorted(profiles)
    n_langs = len(langs)
    flat, off = _tokenize(text_col)
    n_docs = len(off) - 1
    if len(flat) == 0:
        return np.array([langs[0]] * n_docs, dtype=object)
    codes, uniq_tokens = pd.factorize(flat)
    doc_idx = np.repeat(np.arange(n_docs), np.diff(off))
    # set semantics: each (doc, token) counts once
    pair = doc_idx.astype(np.int64) * len(uniq_tokens) + codes
    upair = np.unique(pair)
    udoc = upair // len(uniq_tokens)
    utok = (upair % len(uniq_tokens)).astype(np.int64)
    # token -> language membership bitmask (profiles are tiny)
    mask = np.zeros(len(uniq_tokens), dtype=np.int64)
    tok_pos = pd.Index(uniq_tokens)
    for li, lang in enumerate(langs):
        hit = tok_pos.get_indexer(list(profiles[lang]))
        hit = hit[hit >= 0]
        mask[hit] |= 1 << li
    pmask = mask[utok]
    scores = np.zeros((n_docs, n_langs), dtype=np.int64)
    for li in range(n_langs):
        ind = (pmask >> li) & 1
        scores[:, li] = np.bincount(udoc, weights=ind, minlength=n_docs)
    return np.array(langs, dtype=object)[scores.argmax(axis=1)]


def _fit_lang_prof_ref(refs, top_k: int):
    """Distributed N8 profile fit over document block refs: sample
    filter in the first map stage, per-batch partial (lang, token)
    counts, token-keyed exchange fold, top-k profile cut on the
    (vocab-bounded) driver. Returns a ray.put ref of the profiles —
    shared by lang_id and lang_confusion."""
    import ray

    from .dedup import _tokenize
    from .exchange import exchange_reduce, gather_concat

    def sample_counts(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return pa.table(
                {"lang": pa.array([], pa.string()),
                 "token": pa.array([], pa.string()),
                 "n_part": pa.array([], pa.int64())}
            )
        did = t.column("doc_id").to_numpy()
        t = t.filter(pa.array(did % 10 == 0))
        if t.num_rows == 0:
            return pa.table(
                {"lang": pa.array([], pa.string()),
                 "token": pa.array([], pa.string()),
                 "n_part": pa.array([], pa.int64())}
            )
        flat, off = _tokenize(t.column("text"))
        lang = t.column("lang").to_numpy(zero_copy_only=False)
        part = pa.table(
            {
                "lang": pa.array(np.repeat(lang, np.diff(off)).astype(object)),
                "token": pa.array(flat.astype(object)),
            }
        )
        g = part.group_by(["lang", "token"]).aggregate([([], "count_all")])
        return g.rename_columns(["lang", "token", "n_part"])

    def vocab_fold(pid: int, t: pa.Table) -> pa.Table:
        """Per-partition (lang, token) count fold — partitioned on token,
        so every partial for a token lands here (the repo's own exchange
        instead of the fragile Dataset.groupby shuffle)."""
        if t.num_rows == 0 or "token" not in t.column_names:
            return pa.table(
                {"lang": pa.array([], pa.string()),
                 "token": pa.array([], pa.string()),
                 "n": pa.array([], pa.int64())}
            )
        g = t.group_by(["lang", "token"]).aggregate([("n_part", "sum")])
        return g.rename_columns(["lang", "token", "n"])

    sample_task = ray.remote(sample_counts)
    vocab_t = gather_concat(
        exchange_reduce(
            [[sample_task.remote(r) for r in refs]], ["token"], vocab_fold
        )
    )
    profiles = _topk_profiles(vocab_t.to_pandas(), top_k)
    return ray.put(profiles)


def lang_id(sf_dir: str, top_k: int = 30) -> pa.Table:
    """Heuristic language identification: fit per-language top-k token
    profiles on the deterministic 10% labeled sample (``doc_id % 10 ==
    0``), broadcast them (``ray.put`` — the reference's dimension-table
    join shape), predict every document by best profile overlap. Returns
    per-doc prediction plus agreement with the table's label.

    Scale shape: the fit is distributed — the sample filter applies in
    the FIRST map stage (only sample rows survive the read), per-batch
    partial (lang, token) counts combine before one small grouped sum,
    and the driver receives only the vocabulary counts (vocab-bounded,
    not corpus-bounded) to cut top-k profiles. Prediction is the
    vectorized bitmask kernel, no per-text Python loop.

    NOTE: the driver's synthetic corpus draws text from a shared
    vocabulary regardless of the ``lang`` label, so no classifier can
    beat chance *on this table*; the kernels are unit-tested on a corpus
    with real per-language vocabularies instead. The whole pipeline is
    relational (window-rank fit + distinct-overlap argmax predict), so
    it carries a full SQL twin in ``oracle_sql()`` — tie semantics
    (profile cut: count desc/token asc; predict: score desc/lang asc)
    are pinned identically on both sides."""
    import ray

    rd = _rd()

    # ONE read: the same block refs feed both the fit exchange
    # (_fit_lang_prof_ref) and the predict wave
    refs = arrow_refs(rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    ))
    prof_ref = _fit_lang_prof_ref(refs, top_k)

    @ray.remote
    def predict(prof, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "text" not in t.column_names:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "lang_pred": pa.array([], pa.string()),
                 "lang_true": pa.array([], pa.string()),
                 "correct": pa.array([], pa.bool_())}
            )
        preds = predict_langs_vectorized(t.column("text"), prof)
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "lang_pred": pa.array(preds.astype(str)),
                "lang_true": t.column("lang"),
                "correct": pc.equal(pa.array(preds.astype(str)), t.column("lang")),
            }
        )

    out = pa.concat_tables(
        [
            t
            for t in ray.get([predict.remote(prof_ref, r) for r in refs])
            if t.num_rows
        ],
        promote_options="default",
    )
    return finalize(out, [("doc_id", "ascending")])


def lang_confusion(sf_dir: str, top_k: int = 30) -> pa.Table:
    """Confusion matrix of the N8 classifier against the table's labels:
    (lang_true, lang_pred, n_docs) — the quality dashboard of a language
    router. Same distributed fit as :func:`lang_id` (shared
    ``_fit_lang_prof_ref``); each block aggregates its OWN predictions
    to langs^2 partial counts, so the driver folds O(langs^2 x blocks)
    rows — per-doc predictions never gather. Twin: ``__ray_entry__``
    ``lang_confusion``."""
    import ray

    rd = _rd()
    refs = arrow_refs(rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    ))
    prof_ref = _fit_lang_prof_ref(refs, top_k)

    @ray.remote
    def confuse(prof, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "text" not in t.column_names:
            return pa.table(
                {"lang_true": pa.array([], pa.string()),
                 "lang_pred": pa.array([], pa.string()),
                 "n_docs": pa.array([], pa.int64())}
            )
        preds = predict_langs_vectorized(t.column("text"), prof)
        part = pa.table(
            {"lang_true": t.column("lang"),
             "lang_pred": pa.array(preds.astype(str))}
        )
        g = part.group_by(["lang_true", "lang_pred"]).aggregate([([], "count_all")])
        return g.rename_columns(["lang_true", "lang_pred", "n_docs"])

    tabs = [t for t in ray.get([confuse.remote(prof_ref, r) for r in refs])
            if t.num_rows]
    if not tabs:
        return pa.table(
            {"lang_true": pa.array([], pa.string()),
             "lang_pred": pa.array([], pa.string()),
             "n_docs": pa.array([], pa.int64())}
        )
    t = pa.concat_tables(tabs, promote_options="default")
    g = t.group_by(["lang_true", "lang_pred"]).aggregate([("n_docs", "sum")])
    g = g.rename_columns(["lang_true", "lang_pred", "n_docs"])
    g = g.set_column(2, "n_docs", g.column("n_docs").cast(pa.int64()))
    return finalize(
        g, [("lang_true", "ascending"), ("lang_pred", "ascending")]
    )


# Winnowing fingerprint parameters (Schleimer et al., SIGMOD 2003 —
# public local-fingerprinting algorithm): k-char grams, window w.
_FP_K = 8
_FP_W = 4
_FP_BASE = np.uint64(1_000_003)


def winnow_fingerprints_kernel(texts: list[str]) -> list[np.ndarray]:
    """Pure kernel: per-text sorted unique winnowed fingerprint sets.

    Rolling polynomial hash over byte k-grams via a sliding-window matmul,
    then the winnowing minimum per w-window (rightmost min wins, the
    paper's robust variant) — all numpy, no per-char Python loops."""
    powers = _FP_BASE ** np.arange(_FP_K - 1, -1, -1, dtype=np.uint64)
    out = []
    for s in texts:
        b = np.frombuffer(s.encode("utf-8"), dtype=np.uint8)
        if len(b) < _FP_K:
            out.append(np.array([], dtype=np.uint64))
            continue
        grams = np.lib.stride_tricks.sliding_window_view(b, _FP_K).astype(np.uint64)
        h = (grams * powers[None, :]).sum(axis=1)  # uint64 wraparound hash
        if len(h) <= _FP_W:
            out.append(np.unique(h.min(keepdims=True)))
            continue
        wins = np.lib.stride_tricks.sliding_window_view(h, _FP_W)
        # rightmost minimum per window: reverse, argmin, map back
        rev = wins[:, ::-1]
        pick = (_FP_W - 1) - rev.argmin(axis=1)
        out.append(np.unique(wins[np.arange(len(wins)), pick]))
    return out


def winnow_fingerprints_batch(
    text_col: "pa.ChunkedArray | pa.Array",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch-wide winnowing over the Arrow string buffers: ONE sliding
    k-gram hash pass over the batch's concatenated utf-8 bytes, with
    grams and winnow windows that would cross a document boundary
    excluded by pure offsets arithmetic (the ``doc_shingles`` boundary
    trick) — no per-text Python loop. Returns per-doc
    (n_fingerprints, fp_min, fp_xor) over the distinct winnowed set,
    identical to :func:`winnow_fingerprints_kernel` (pinned in pytest).
    """
    if isinstance(text_col, pa.ChunkedArray):
        text_col = text_col.combine_chunks()
    n_docs = len(text_col)
    n_out = np.zeros(n_docs, dtype=np.int64)
    mn_out = np.zeros(n_docs, dtype=np.uint64)
    xr_out = np.zeros(n_docs, dtype=np.uint64)
    if n_docs == 0:
        return n_out, mn_out, xr_out
    off_dtype = np.int64 if pa.types.is_large_string(text_col.type) else np.int32
    off = np.frombuffer(text_col.buffers()[1], off_dtype)[
        text_col.offset : text_col.offset + n_docs + 1
    ].astype(np.int64)
    buf = text_col.buffers()[2]
    data = np.frombuffer(buf, np.uint8) if buf is not None else np.empty(0, np.uint8)

    g = np.diff(off) - _FP_K + 1  # grams per doc (<=0: too short)
    if len(data) < _FP_K or not (g > 0).any():
        return n_out, mn_out, xr_out
    powers = _FP_BASE ** np.arange(_FP_K - 1, -1, -1, dtype=np.uint64)
    grams = np.lib.stride_tricks.sliding_window_view(data, _FP_K).astype(np.uint64)
    h = (grams * powers[None, :]).sum(axis=1)  # uint64 wraparound hash

    doc_idx_parts, fp_parts = [], []
    # short docs (0 < g <= W): the single fingerprint is the gram min
    a = np.flatnonzero((g > 0) & (g <= _FP_W))
    if len(a):
        # pairwise reduceat over a sentinel-padded copy so end == len(h)
        # stays in bounds; odd slots (end_i..start_{i+1}) are discarded
        hp = np.r_[h, np.uint64(0)]
        pairs = np.c_[off[a], off[a] + g[a]].ravel()
        mins = np.minimum.reduceat(hp, pairs)[::2]
        doc_idx_parts.append(a)
        fp_parts.append(mins)
    # long docs (g > W): rightmost-min per w-window over the global hash
    b = np.flatnonzero(g > _FP_W)
    if len(b):
        wins = np.lib.stride_tricks.sliding_window_view(h, _FP_W)
        pick = (_FP_W - 1) - wins[:, ::-1].argmin(axis=1)
        fp_at = wins[np.arange(len(wins)), pick]
        m = g[b] - _FP_W + 1  # winnow windows per doc
        base = np.repeat(off[b], m)
        local = np.arange(int(m.sum())) - np.repeat(np.cumsum(m) - m, m)
        doc_idx_parts.append(np.repeat(b, m))
        fp_parts.append(fp_at[base + local])

    d = np.concatenate(doc_idx_parts)
    f = np.concatenate(fp_parts)
    order = np.lexsort((f, d))
    d, f = d[order], f[order]
    keep = np.r_[True, (d[1:] != d[:-1]) | (f[1:] != f[:-1])]  # distinct
    d, f = d[keep], f[keep]
    seg = np.r_[0, np.flatnonzero(d[1:] != d[:-1]) + 1]
    docs = d[seg]
    n_out[docs] = np.diff(np.r_[seg, len(d)])
    mn_out[docs] = f[seg]  # ascending within doc: first is min
    xr_out[docs] = np.bitwise_xor.reduceat(f, seg)
    return n_out, mn_out, xr_out


def fingerprint_docs(sf_dir: str) -> pa.Table:
    """Per-document winnowing fingerprint summary: count, min, and an
    order-independent XOR digest of the fingerprint set (the same
    combining scheme as the engine's state merkle digest)."""
    rd = _rd()

    def fp(t: pa.Table) -> pa.Table:
        n, mn, xr = winnow_fingerprints_batch(t.column("text"))
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_fingerprints": pa.array(n),
                "fp_min": pa.array(mn),
                "fp_xor": pa.array(xr),
            }
        )

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return finalize(ds_to_table(ds.map_batches(fp, batch_format="pyarrow")),
                    [("doc_id", "ascending")])


# Deterministic split: Knuth multiplicative hash on doc_id, thresholds in
# 2^32 space — pure integer arithmetic, so the SQL twin is bit-identical
# and a document's split NEVER changes as the corpus grows (the property
# a training pipeline needs; random_shuffle-based splits lose it).
_SPLIT_MULT = 2654435761  # 2^32 / golden ratio
_SPLIT_MOD = 1 << 32
_TRAIN_LT = int(0.8 * _SPLIT_MOD)
_VAL_LT = int(0.9 * _SPLIT_MOD)


def sample_split(sf_dir: str) -> pa.Table:
    """Assign every document to train/val/test (80/10/10) by a
    deterministic multiplicative hash of doc_id; returns per-doc
    assignments (the oracle checks every row, not just the counts)."""
    rd = _rd()

    def assign(t: pa.Table) -> pa.Table:
        did = t.column("doc_id").to_numpy().astype(np.int64)
        h = (did * _SPLIT_MULT) % _SPLIT_MOD
        split = np.where(h < _TRAIN_LT, "train", np.where(h < _VAL_LT, "val", "test"))
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "split": pa.array(split),
                "h": pa.array(h.astype(np.int64)),
            }
        )

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return finalize(ds_to_table(ds.map_batches(assign, batch_format="pyarrow")),
                    [("doc_id", "ascending")])


def lang_stats(sf_dir: str) -> pa.Table:
    """Documents per language with average length (floor at 1e-4 — integer
    derivation keeps the value bit-equal to the SQL oracle). Per-batch
    combine + driver fold: languages are a fixed tiny cardinality."""
    from ._util import fold_partials

    rd = _rd()

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(["lang"]).aggregate([([], "count_all"), ("n_chars", "sum")])
        return g.rename_columns(["lang", "n_part", "c_part"])

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"])
    t = fold_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["lang"], [("n_part", "sum"), ("c_part", "sum")],
        ["lang", "n_docs", "s_chars"],
    )
    if t.num_columns == 0:  # empty corpus
        return pa.table({"lang": pa.array([], pa.string()),
                         "n_docs": pa.array([], pa.int64()),
                         "avg_chars": pa.array([], pa.float64())})
    n = t.column("n_docs").to_numpy().astype(np.int64)
    s = t.column("s_chars").to_numpy().astype(np.int64)
    t = pa.table(
        {
            "lang": t.column("lang"),
            "n_docs": pa.array(n),
            "avg_chars": (s * 10_000 // n) / 10_000.0,
        }
    )
    return finalize(t, [("lang", "ascending")])


# Deterministic seeded shuffle: splitmix64 of (doc_id + seed) is a
# BIJECTION on 64-bit ints, so ranks are tie-free and a document's
# position is reproducible for any corpus snapshot — the training-data
# alternative to random_shuffle (whose order changes run to run).
_SM_C1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_C2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> np.uint64(30))) * _SM_C1
    x = (x ^ (x >> np.uint64(27))) * _SM_C2
    return x ^ (x >> np.uint64(31))


_SHUF_PARTS = 16  # 2^4 key-range buckets (keys are uniform on uint64)


def shuffle_docs(sf_dir: str, seed: int = 0x5EED, P: int = _SHUF_PARTS) -> pa.Table:
    """Deterministic seeded global shuffle: every document gets a
    pseudo-random but reproducible shuffle key (splitmix64 of
    doc_id + seed, bijective => tie-free) and its global rank under that
    key. The rank is a DISTRIBUTED sort on the 16-byte (key, doc_id)
    projection: splitmix64 output is uniform on uint64, so the top bits
    are an ordered, balanced range partitioning — each bucket sorts
    locally, the driver folds only the O(P) bucket counts into exclusive
    prefix offsets (the pack_docs scan shape), and per-bucket tasks add
    ``offset + local_rank``. No driver-side whole-table sort; document
    bodies never move. Changing the seed reshuffles; re-running never
    does."""
    import ray

    rd = _rd()
    sd = np.uint64(seed)
    if P < 1 or (P & (P - 1)) != 0:
        # user-facing contract check — must survive `python -O`
        raise ValueError(f"P must be a power of two, got {P}")
    shift = np.uint64(64 - int(np.log2(P)))

    def keyed(t: pa.Table) -> pa.Table:
        did = t.column("doc_id").to_numpy().astype(np.uint64)
        h = _splitmix64(did + sd)
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "shuffle_key": pa.array(h, pa.uint64()),
            }
        )

    @ray.remote
    def split_ranges(block: pa.Table, P: int):
        if block.num_rows == 0:  # Ray emits schema-less empty blocks
            empty = pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "shuffle_key": pa.array([], pa.uint64())}
            )
            return tuple(empty for _ in range(P))
        key = block.column("shuffle_key").to_numpy()
        bucket = (key >> shift).astype(np.int64)
        order = np.argsort(bucket, kind="stable")
        b = block.take(pa.array(order))
        bounds = np.searchsorted(bucket[order], np.arange(P + 1))
        return tuple(b.slice(bounds[i], bounds[i + 1] - bounds[i]) for i in range(P))

    @ray.remote(num_returns=2)
    def bucket_sort(*slices: pa.Table):
        live = [s for s in slices if s.num_rows]
        if not live:
            return 0, slices[0]
        t = pa.concat_tables(live)
        t = t.take(pc.sort_indices(t, sort_keys=[("shuffle_key", "ascending")]))
        return t.num_rows, t

    @ray.remote
    def add_rank(t: pa.Table, offset: int) -> pa.Table:
        return t.append_column(
            "shuffle_rank",
            pa.array(np.arange(offset + 1, offset + 1 + t.num_rows), pa.int64()),
        )

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    refs = arrow_refs(ds.map_batches(keyed, batch_format="pyarrow"))
    mats = [split_ranges.options(num_returns=P).remote(r, P) for r in refs]
    counts_sorted = [bucket_sort.remote(*[m[b] for m in mats]) for b in range(P)]
    counts = ray.get([c for c, _ in counts_sorted])
    offsets = np.r_[0, np.cumsum(counts)[:-1]]  # exclusive prefix, O(P)
    ranked = ray.get(
        [
            add_rank.remote(tref, int(off))
            for (n, (_, tref)), off in zip(zip(counts, counts_sorted), offsets)
            if n
        ]
    )
    if not ranked:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "shuffle_key": pa.array([], pa.uint64()),
             "shuffle_rank": pa.array([], pa.int64())}
        )
    return finalize(pa.concat_tables(ranked), [("doc_id", "ascending")])


def pack_docs(sf_dir: str, budget: int = 2048) -> pa.Table:
    """Sequence packing for training: concatenate documents in doc_id
    order and cut at ``budget``-token boundaries; each doc reports the
    pack its first token lands in. The engine primitive is a DISTRIBUTED
    PREFIX SUM (scan): pass 1 computes per-block token totals (one tiny
    row per block), the driver folds their exclusive prefix, pass 2
    finishes each block's per-doc cumulative locally with its offset —
    two streamed passes, driver state O(blocks)."""
    import ray

    rd = _rd()
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    refs = arrow_refs(ds)  # ordered blocks = doc_id order (file order)

    @ray.remote
    def block_tokens(block: pa.Table):
        if block.num_rows == 0:
            return 0
        n = pc.count_substring_regex(block.column("text"), r"\S+").cast(pa.int64())
        return int(pc.sum(n).as_py() or 0)

    @ray.remote
    def block_packs(block: pa.Table, offset: int, budget: int) -> pa.Table:
        if block.num_rows == 0:
            return block
        n = pc.count_substring_regex(block.column("text"), r"\S+").cast(
            pa.int64()
        ).to_numpy()
        cum = offset + np.cumsum(n)
        return pa.table(
            {
                "doc_id": block.column("doc_id"),
                "n_tokens": pa.array(n, pa.int64()),
                "cum_tokens": pa.array(cum, pa.int64()),
                "pack_id": pa.array((cum - n) // budget, pa.int64()),
            }
        )

    totals = ray.get([block_tokens.remote(r) for r in refs])
    offsets = np.r_[0, np.cumsum(totals)[:-1]]  # exclusive prefix, O(blocks)
    parts = [
        p
        for p in ray.get(
            [block_packs.remote(r, int(o), budget) for r, o in zip(refs, offsets)]
        )
        if p.num_rows
    ]
    if not parts:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "n_tokens": pa.array([], pa.int64()),
             "cum_tokens": pa.array([], pa.int64()),
             "pack_id": pa.array([], pa.int64())}
        )
    return finalize(pa.concat_tables(parts), [("doc_id", "ascending")])


# tf-idf scoring with INTEGER-EXACT arithmetic (idf_scaled = 1e6 * N // df,
# score = tf * idf_scaled) so the distributed result is bit-equal to the
# SQL twin — the same money-math discipline as q1 (floats would make
# DuckDB's ln() vs numpy's log() a cross-engine hazard).
_TFIDF_SCALE = 1_000_000


def tfidf_top_terms(sf_dir: str, k: int = 5) -> pa.Table:
    """Per-document top-``k`` tokens by (linear-idf) tf-idf.

    Scale shape: two chained keyed exchanges, no vocabulary broadcast.
    Stage 1 partitions per-batch (token, doc_id, tf) partials on TOKEN —
    each partition holds every posting for its tokens, so df is a local
    group size and scores are computed where the postings live. Stage 2
    re-partitions the scored postings on DOC and each partition emits
    only its docs' top-k (score desc, token asc — deterministic ties).
    The driver folds O(docs x k) result rows; N comes from parquet
    metadata (no scan)."""
    import glob as _glob

    import pyarrow.parquet as pq

    from .dedup import _tokenize
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    paths = sorted(_glob.glob(f"{sf_dir}/documents.parquet")) or sorted(
        _glob.glob(f"{sf_dir}/documents.parquet/*.parquet")
    )
    n_docs = sum(pq.read_metadata(p).num_rows for p in paths)

    def tf_partial(t: pa.Table) -> pa.Table:
        flat, off = _tokenize(t.column("text"))
        if len(flat) == 0:
            return pa.table(
                {"token": pa.array([], pa.string()),
                 "doc_id": pa.array([], pa.int64()),
                 "tf": pa.array([], pa.int64())}
            )
        did = t.column("doc_id").to_numpy()
        doc_of = np.repeat(did, np.diff(off))
        codes, uniq = pd.factorize(flat)
        pair = doc_of.astype(np.int64) * len(uniq) + codes
        upair, tf = np.unique(pair, return_counts=True)
        return pa.table(
            {
                "token": pa.array(uniq[(upair % len(uniq)).astype(np.int64)]),
                "doc_id": pa.array(upair // len(uniq), pa.int64()),
                "tf": pa.array(tf.astype(np.int64)),
            }
        )

    def score_partition(pid: int, t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "token": pa.array([], pa.string()),
             "tf": pa.array([], pa.int64()),
             "df": pa.array([], pa.int64()),
             "score": pa.array([], pa.int64())}
        )
        if t.num_rows == 0 or "token" not in t.column_names:
            return empty
        tok = t.column("token").to_numpy(zero_copy_only=False)
        order = np.argsort(tok, kind="stable")
        tok = tok[order]
        did = t.column("doc_id").to_numpy()[order]
        tf = t.column("tf").to_numpy()[order]
        starts = np.flatnonzero(np.r_[True, tok[1:] != tok[:-1]])
        sizes = np.diff(np.r_[starts, len(tok)])
        df = np.repeat(sizes, sizes)  # postings per token == df (all here)
        idf = _TFIDF_SCALE * np.int64(n_docs) // df
        return pa.table(
            {
                "doc_id": pa.array(did, pa.int64()),
                "token": pa.array(tok),
                "tf": pa.array(tf, pa.int64()),
                "df": pa.array(df, pa.int64()),
                "score": pa.array(tf * idf, pa.int64()),
            }
        )

    def topk_partition(pid: int, t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "token": pa.array([], pa.string()),
             "tf": pa.array([], pa.int64()),
             "df": pa.array([], pa.int64()),
             "score": pa.array([], pa.int64()),
             "rank": pa.array([], pa.int64())}
        )
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return empty
        did = t.column("doc_id").to_numpy()
        score = t.column("score").to_numpy()
        tok = t.column("token").to_numpy(zero_copy_only=False)
        order = np.lexsort((tok, -score, did))  # doc, score desc, token asc
        d = did[order]
        starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
        rank = np.arange(len(d)) - np.repeat(starts, np.diff(np.r_[starts, len(d)]))
        keep = rank < k
        sel = t.take(pa.array(order[keep]))
        return sel.append_column("rank", pa.array(rank[keep] + 1, pa.int64()))

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    scored = exchange_reduce(
        [ds.map_batches(tf_partial, batch_format="pyarrow")],
        ["token"],
        score_partition,
    )
    out = gather_concat(
        exchange_reduce([scored], ["doc_id"], topk_partition)
    )
    if out.num_columns == 0:
        return topk_partition(0, pa.table({}))
    return finalize(out, [("doc_id", "ascending"), ("rank", "ascending")])


# Stratified sampling: per-language keep rates for rebalancing a corpus
# (downsample the over-represented stratum). Thresholds live in 2^32
# space on the top 32 bits of the seeded splitmix64 — pure integer
# arithmetic, so membership is reproducible forever and SQL-exact.
_STRAT_RATES = {"en": 0.25}  # default: quarter the majority language
_STRAT_SEED = 0x57A7


def stratified_sample(
    sf_dir: str, rates: "dict[str, float] | None" = None, seed: int = _STRAT_SEED
) -> pa.Table:
    """Per-stratum deterministic sampling: every document keeps/drops by
    ``splitmix64(doc_id + seed) >> 32 < rate[lang] * 2^32`` — a
    reproducible coin per doc whose bias varies by language. Returns the
    full per-doc assignment (the oracle checks every row; a pipeline
    would filter on ``sampled``). The rate table is fixed-cardinality
    engine config (the reference's broadcast dimension-table shape) —
    never data-sized."""
    rd = _rd()
    rates = _STRAT_RATES if rates is None else rates
    thresholds = {k: min(int(v * (1 << 32)), 1 << 32) for k, v in rates.items()}
    sd = np.uint64(seed)

    def assign(t: pa.Table) -> pa.Table:
        did = t.column("doc_id").to_numpy().astype(np.uint64)
        lang = t.column("lang").to_numpy(zero_copy_only=False)
        bucket = (_splitmix64(did + sd) >> np.uint64(32)).astype(np.int64)
        thr = np.full(len(did), 1 << 32, dtype=np.int64)
        for lg, th in thresholds.items():
            thr[lang == lg] = th
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "lang": t.column("lang"),
                "h_bucket": pa.array(bucket),
                "sampled": pa.array(bucket < thr),
            }
        )

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])
    return finalize(ds_to_table(ds.map_batches(assign, batch_format="pyarrow")),
                    [("doc_id", "ascending")])


# Boilerplate-chunk detection (the RefinedWeb/C4-style shared-content
# filter, public design): fixed-width non-overlapping token chunks that
# recur across documents are boilerplate (headers, footers, templates,
# licence blocks); documents dominated by such chunks are dropped from
# a training mix. Chunk identity rides the SQL-reproducible
# hash_utf8_64, the same documented stance as decontamination (string
# equality in the twin; 64-bit-collision probability negligible).
_BP_CHUNK_TOKENS = 10
_BP_MIN_DOCS = 2
_BP_MAX_BP = 3000


def boilerplate_flags(
    sf_dir: str,
    chunk_tokens: int = _BP_CHUNK_TOKENS,
    min_docs: int = _BP_MIN_DOCS,
    max_bp: int = _BP_MAX_BP,
) -> pa.Table:
    """Per-document boilerplate profile: split each document into
    non-overlapping ``chunk_tokens``-token chunks; a chunk appearing in
    at least ``min_docs`` DISTINCT documents is boilerplate; a document
    keeps while its boilerplate share stays <= ``max_bp`` basis points.

    Scale shape: ONE read — wave 1 emits distinct (chunk-hash, doc)
    postings into a hash-keyed exchange whose partitions count distinct
    documents per chunk and emit ONLY the boilerplate hashes (bounded by
    shared content, not the corpus); those broadcast sorted via
    ``ray.put`` and wave 2 re-derives each block's chunk occurrences and
    counts hits per document (sorted-membership, no join). Integer
    basis points keep the twin exact."""
    import ray

    from .dedup import _tokenize, hash_utf8_64
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    if chunk_tokens < 1:
        raise ValueError(f"chunk_tokens must be >= 1, got {chunk_tokens}")
    refs = arrow_refs(rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ))

    def _chunks(t: pa.Table):
        """(chunk_hash, doc_row_index, n_chunks_per_doc) for one block."""
        flat, off = _tokenize(t.column("text"))
        n_tok = np.diff(off)
        n_ch = n_tok // chunk_tokens
        if int(n_ch.sum()) == 0:
            return np.zeros(0, np.uint64), np.zeros(0, np.int64), n_ch
        doc_row = np.repeat(np.arange(len(n_ch)), n_ch)
        within = np.arange(len(doc_row)) - np.repeat(
            np.cumsum(n_ch) - n_ch, n_ch
        )
        starts = off[:-1][doc_row] + within * chunk_tokens
        s = flat[starts].copy()
        for j in range(1, chunk_tokens):
            s = s + " "
            s = s + flat[starts + j]
        return hash_utf8_64(s.astype(object)), doc_row, n_ch

    @ray.remote
    def postings(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return pa.table(
                {"h": pa.array([], pa.uint64()),
                 "doc_id": pa.array([], pa.int64())}
            )
        h, doc_row, _ = _chunks(t)
        did = t.column("doc_id").to_numpy().astype(np.int64)
        pair = np.unique(
            np.stack([h, did[doc_row].astype(np.uint64)], axis=1), axis=0
        ) if len(h) else np.zeros((0, 2), np.uint64)
        return pa.table(
            {"h": pa.array(pair[:, 0], pa.uint64()),
             "doc_id": pa.array(pair[:, 1].astype(np.int64), pa.int64())}
        )

    def boiler_fold(pid: int, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "h" not in t.column_names:
            return pa.table({"h": pa.array([], pa.uint64())})
        h = t.column("h").to_numpy().astype(np.uint64)
        d = t.column("doc_id").to_numpy().astype(np.int64)
        # distinct (h, doc) then count docs per h — all of h's postings
        # land in this partition
        pair = np.unique(np.stack([h, d.astype(np.uint64)], axis=1), axis=0)
        hh = pair[:, 0]
        uniq, counts = np.unique(hh, return_counts=True)
        return pa.table({"h": pa.array(uniq[counts >= min_docs], pa.uint64())})

    boiler_t = gather_concat(
        exchange_reduce([[postings.remote(r) for r in refs]], ["h"], boiler_fold)
    )
    boiler_sorted = np.sort(
        boiler_t.column("h").to_numpy().astype(np.uint64)
    ) if boiler_t.num_rows else np.zeros(0, np.uint64)
    bo_ref = ray.put(boiler_sorted)

    @ray.remote
    def flags(bo, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "n_chunks": pa.array([], pa.int64()),
                 "n_boiler": pa.array([], pa.int64())}
            )
        from .dedup import _member_sorted

        h, doc_row, n_ch = _chunks(t)
        n_boil = np.zeros(len(n_ch), np.int64)
        if len(h):
            np.add.at(n_boil, doc_row, _member_sorted(h, bo).astype(np.int64))
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_chunks": pa.array(n_ch.astype(np.int64), pa.int64()),
                "n_boiler": pa.array(n_boil, pa.int64()),
            }
        )

    t = pa.concat_tables(
        [
            x
            for x in ray.get([flags.remote(bo_ref, r) for r in refs])
            if x.num_rows
        ],
        promote_options="default",
    )
    bp = (
        t.column("n_boiler").to_numpy() * 10000
        // np.maximum(t.column("n_chunks").to_numpy(), 1)
    )
    t = t.append_column("boiler_bp", pa.array(bp.astype(np.int64), pa.int64()))
    t = t.append_column("keep", pa.array(bp <= max_bp))
    return finalize(t, [("doc_id", "ascending")])


# Unigram-LM cross-entropy scoring (the CCNet-style LM quality filter,
# public design: Wenzek et al. 2020 score documents by LM perplexity and
# keep the low-perplexity tail). The "model" here is a corpus-trained
# unigram LM with Laplace smoothing over a capped vocabulary — exactly
# the shape a real deployment swaps for a KenLM binary (load once per
# actor, score per batch); every pin below exists so the score carries
# an exact DuckDB twin: log-probs ROUND to 9 decimals, the per-doc
# cross-entropy to 4, vocabulary cut ties break (count desc, token asc).
_PPL_VOCAB_K = 50_000
_PPL_LP_ROUND = 9
_PPL_CE_ROUND = 4

_CAP_SEED = 0xD0CA
_CAP_PER_GROUP = 500


def perplexity_score(sf_dir: str, vocab_k: int = _PPL_VOCAB_K) -> pa.Table:
    """Per-document unigram-LM cross-entropy (rounded; lower = more
    in-distribution) — the LM quality signal of a CCNet-style corpus
    filter.

    Model: token probabilities ``(count + 1) / (total + V + 1)`` over
    the top-``vocab_k`` corpus tokens (count desc, token asc ties); any
    other token scores as the single OOV bucket ``1 / (total + V + 1)``.
    ``ce`` = -mean over the doc's tokens of the 9-decimal-rounded
    log-probs, rounded to 4; empty docs score 0.

    Scale shape: ONE read — the block refs feed per-block (token, count)
    partials into the token-keyed exchange (vocab-bounded driver fold,
    the lang_id fit shape), the top-V log-prob table broadcasts via
    ``ray.put``, and scoring is a vectorized task wave over the same
    refs (factorize + searchsorted gather, no per-token Python loop)."""
    import ray

    from .dedup import _tokenize
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    refs = arrow_refs(rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ))

    @ray.remote
    def token_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "text" not in t.column_names:
            return pa.table(
                {"token": pa.array([], pa.string()),
                 "n_part": pa.array([], pa.int64())}
            )
        flat, _ = _tokenize(t.column("text"))
        u, c = np.unique(flat, return_counts=True)
        return pa.table(
            {"token": pa.array(u.astype(object), pa.string()),
             "n_part": pa.array(c.astype(np.int64), pa.int64())}
        )

    def token_fold(pid: int, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "token" not in t.column_names:
            return pa.table(
                {"token": pa.array([], pa.string()),
                 "n": pa.array([], pa.int64())}
            )
        g = t.group_by(["token"]).aggregate([("n_part", "sum")])
        return g.rename_columns(["token", "n"])

    vocab_t = gather_concat(
        exchange_reduce(
            [[token_partial.remote(r) for r in refs]], ["token"], token_fold
        )
    )
    tok = vocab_t.column("token").to_numpy(zero_copy_only=False).astype(object)
    cnt = vocab_t.column("n").to_numpy().astype(np.int64)
    total = int(cnt.sum())
    # top-V cut: count desc, token asc (lexsort's last key is primary)
    order = np.lexsort((tok, -cnt))[:vocab_k]
    vt, vc = tok[order], cnt[order]
    denom = float(total + min(vocab_k, len(tok)) + 1)
    lp = np.round(np.log((vc + 1.0) / denom), _PPL_LP_ROUND)
    oov_lp = round(float(np.log(1.0 / denom)), _PPL_LP_ROUND)
    vorder = np.argsort(vt.astype(str))
    model_ref = ray.put((vt[vorder].astype(str), lp[vorder], oov_lp))

    @ray.remote
    def score(model, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "text" not in t.column_names:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "n_tokens": pa.array([], pa.int64()),
                 "ce": pa.array([], pa.float64())}
            )
        vt_s, lp_s, oov = model
        flat, off = _tokenize(t.column("text"))
        codes, uniq = pd.factorize(flat)
        us = uniq.astype(str)
        pos = np.searchsorted(vt_s, us)
        hit = (pos < len(vt_s)) & (vt_s[np.minimum(pos, len(vt_s) - 1)] == us)
        ulp = np.where(hit, lp_s[np.minimum(pos, len(lp_s) - 1)], oov)
        tok_lp = ulp[codes]
        n = np.diff(off)
        # exact prefix-sum segment sums: robust to empty docs anywhere
        # (reduceat with clipped starts truncated the last non-empty
        # doc's segment when a block ended with zero-token docs)
        csum = np.r_[0.0, np.cumsum(tok_lp)]
        sums = csum[off[1:]] - csum[off[:-1]]
        ce = np.zeros(len(n), np.float64)
        nz = n > 0
        ce[nz] = np.round(-(sums[nz] / n[nz]), _PPL_CE_ROUND)
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_tokens": pa.array(n.astype(np.int64), pa.int64()),
                "ce": pa.array(ce),
            }
        )

    out = pa.concat_tables(
        [
            t
            for t in ray.get([score.remote(model_ref, r) for r in refs])
            if t.num_rows
        ],
        promote_options="default",
    )
    return finalize(out, [("doc_id", "ascending")])


def domain_cap(
    sf_dir: str, cap: int = _CAP_PER_GROUP, seed: int = _CAP_SEED
) -> pa.Table:
    """Cap documents per group (``lang`` = the domain stand-in): keep,
    per group, the ``cap`` documents with the smallest seeded
    splitmix64 sample key — the deterministic downsampler a training
    mix applies to over-represented sources/domains. Membership is
    stable as the corpus grows only within a group's unchanged members
    (a new low-key doc displaces the current rank-``cap`` one — that IS
    the cap semantics), and re-running never changes the answer.

    Scale shape: the per-group top-``cap`` min-reduce (the reference's
    A6 candidate min-reduce generalized per group) — each block emits at
    most ``cap`` rows per group it contains (one lexsort, no Python
    loop), partials TREE-fold with the same bounded kernel, and the
    driver receives exactly the final <= cap x |groups| winners. No
    shuffle; document bodies never move. splitmix64 is a bijection on
    uint64, so sample keys are tie-free; ranks are dense 1..cap."""
    import ray

    rd = _rd()
    sd = np.uint64(seed)
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")

    def topcap_kernel(t: pa.Table) -> pa.Table:
        """Per-group smallest-``cap`` (key, doc_id) rows — used for the
        block partials AND every fold level (idempotent)."""
        lang = t.column("lang").to_numpy(zero_copy_only=False).astype(object)
        did = t.column("doc_id").to_numpy().astype(np.int64)
        key = (
            t.column("skey").to_numpy().astype(np.uint64)
            if "skey" in t.column_names
            else _splitmix64(did.astype(np.uint64) + sd)
        )
        order = np.lexsort((did, key, lang))
        lg, kk, dd = lang[order], key[order], did[order]
        starts = np.flatnonzero(np.r_[True, lg[1:] != lg[:-1]])
        rank = np.arange(len(lg)) - np.repeat(
            starts, np.diff(np.r_[starts, len(lg)])
        )
        keep = rank < cap
        return pa.table(
            {
                "lang": pa.array(lg[keep], pa.string()),
                "doc_id": pa.array(dd[keep], pa.int64()),
                "skey": pa.array(kk[keep], pa.uint64()),
            }
        )

    @ray.remote
    def topcap(*tabs: pa.Table) -> pa.Table:
        live = [
            t for t in tabs if t.num_rows and "doc_id" in t.column_names
        ]
        if not live:
            return pa.table(
                {"lang": pa.array([], pa.string()),
                 "doc_id": pa.array([], pa.int64()),
                 "skey": pa.array([], pa.uint64())}
            )
        return topcap_kernel(pa.concat_tables(live, promote_options="default"))

    refs = arrow_refs(rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    ))
    outs = [topcap.remote(r) for r in refs]
    while len(outs) > 1:
        outs = [topcap.remote(*outs[i : i + 8]) for i in range(0, len(outs), 8)]
    t = ray.get(outs[0])
    # final winners arrive group-sorted by sample key: rank them
    lg = t.column("lang").to_numpy(zero_copy_only=False).astype(object)
    starts = np.flatnonzero(np.r_[True, lg[1:] != lg[:-1]])
    rank = (
        np.arange(len(lg)) - np.repeat(starts, np.diff(np.r_[starts, len(lg)]))
        + 1
        if len(lg)
        else np.zeros(0, np.int64)
    )
    out = pa.table(
        {
            "lang": t.column("lang"),
            "doc_id": t.column("doc_id"),
            "sample_rank": pa.array(rank.astype(np.int64), pa.int64()),
        }
    )
    return finalize(out, [("lang", "ascending"), ("sample_rank", "ascending")])


def lang_char_quantiles(
    sf_dir: str, qs: "tuple[float, ...]" = (0.25, 0.5, 0.9, 0.99)
) -> pa.Table:
    """Exact per-language quantiles of document length (``n_chars``) via
    a BOUNDED-DOMAIN HISTOGRAM FOLD — the scalable exact-quantile shape:
    each batch contributes one (lang, n_chars) count row per distinct
    value (O(domain), not O(rows)), the partials fold like any other
    fixed-cardinality aggregate, and the driver walks the tiny cumulative
    histogram. Discrete quantile = smallest value whose cumulative count
    reaches ``ceil(q*n)`` — DuckDB's ``quantile_disc`` rule, computed
    with the same double multiply so the twin is bit-exact. No sort, no
    sample, no approximation."""
    import math

    from ._util import fold_partials

    rd = _rd()

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(["lang", "n_chars"]).aggregate([([], "count_all")])
        return g.rename_columns(["lang", "n_chars", "n_part"])

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"])
    hist = fold_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["lang", "n_chars"], [("n_part", "sum")], ["lang", "n_chars", "n"],
    )
    empty = pa.table(
        {"lang": pa.array([], pa.string()),
         "q": pa.array([], pa.float64()),
         "n_chars_q": pa.array([], pa.int64())}
    )
    if hist.num_columns == 0 or hist.num_rows == 0:
        return empty
    lang = hist.column("lang").to_numpy(zero_copy_only=False)
    val = hist.column("n_chars").to_numpy().astype(np.int64)
    cnt = hist.column("n").to_numpy().astype(np.int64)
    order = np.lexsort((val, lang))
    lang, val, cnt = lang[order], val[order], cnt[order]
    starts = np.flatnonzero(np.r_[True, lang[1:] != lang[:-1]])
    ends = np.r_[starts[1:], len(lang)]
    out_l, out_q, out_v = [], [], []
    for s, e in zip(starts, ends):
        cum = np.cumsum(cnt[s:e])
        n = int(cum[-1])
        for q in qs:
            target = math.ceil(q * n)  # same double multiply as DuckDB
            idx = int(np.searchsorted(cum, max(target, 1)))
            out_l.append(lang[s])
            out_q.append(float(q))
            out_v.append(int(val[s + idx]))
    t = pa.table(
        {"lang": pa.array(out_l, pa.string()),
         "q": pa.array(out_q, pa.float64()),
         "n_chars_q": pa.array(out_v, pa.int64())}
    )
    return finalize(t, [("lang", "ascending"), ("q", "ascending")])


# Content-filter rule pack: the rule-based cleaning stage every
# training-data pipeline runs before tokenization. Patterns are engine
# config (fixed cardinality, broadcast by closure capture); each rule is
# one vectorized pyarrow count_substring_regex pass — no Python row
# loops. RE2-style syntax keeps the kernels and the DuckDB twin in
# lockstep.
_CONTENT_RULES = (
    ("n_urls", r"https?://[^\s]+"),
    ("n_emails", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"),
    ("n_long_numbers", r"[0-9]{7,}"),
)
_FLAG_MAX_URLS = 3  # docs above these thresholds get flagged out
_FLAG_MAX_EMAILS = 0


def content_flags(sf_dir: str) -> pa.Table:
    """Per-document content-filter signals: counts for each rule in the
    pack (URLs, emails, long digit runs) and the keep/flag verdict a
    cleaning pipeline acts on. One vectorized regex pass per rule per
    batch; the rule pack is fixed engine config, so the twin is exact."""
    rd = _rd()

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return finalize(
        ds_to_table(ds.map_batches(_content_batch, batch_format="pyarrow")),
        [("doc_id", "ascending")],
    )


def _content_batch(t: pa.Table) -> pa.Table:
    """Per-doc content-rule counts for one batch (module-level so the
    corpus-export composition reuses the exact same kernel)."""
    text = t.column("text")
    cols: dict = {"doc_id": t.column("doc_id")}
    for name, pat in _CONTENT_RULES:
        cols[name] = pc.count_substring_regex(text, pat).cast(pa.int64())
    ok = pc.and_(
        pc.less_equal(cols["n_urls"], _FLAG_MAX_URLS),
        pc.equal(cols["n_emails"], _FLAG_MAX_EMAILS),
    )
    cols["content_ok"] = ok
    return pa.table(cols)


# PII-redaction masks, applied in _CONTENT_RULES order — sequential, so
# later rules run over already-masked text; the SQL twin nests its
# regexp_replace calls in the same order. Both engines run RE2, so the
# rewrites (and the per-stage match counts) agree byte-for-byte.
_REDACT_MASKS = ("<URL>", "<EMAIL>", "<NUM>")


def redact_text(sf_dir: str) -> pa.Table:
    """PII redaction: the write-side sibling of :func:`content_flags` —
    every rule-pack match (URLs, emails, long digit runs) is replaced by
    its mask token, with the total replacement count and a changed flag.
    One vectorized RE2 count + replace pass per rule per batch; document
    bodies stream through, nothing but the result surface materializes."""
    rd = _rd()

    def redact(t: pa.Table) -> pa.Table:
        cur = t.column("text")
        if isinstance(cur, pa.ChunkedArray):
            cur = cur.combine_chunks()
        total = pa.array(np.zeros(len(cur), np.int64), pa.int64())
        for (_, pat), mask in zip(_CONTENT_RULES, _REDACT_MASKS):
            total = pc.add(
                total, pc.count_substring_regex(cur, pat).cast(pa.int64())
            )
            cur = pc.replace_substring_regex(cur, pat, mask)
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "text_redacted": cur,
                "n_redacted": total,
                "redacted": pc.greater(total, 0),
            }
        )

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return finalize(ds_to_table(ds.map_batches(redact, batch_format="pyarrow")),
                    [("doc_id", "ascending")])


# Gopher-style repetition thresholds, in integer basis points of n-gram
# INSTANCES that repeat an earlier identical n-gram within the doc
# (instance-ratio variant of the published character-fraction rules —
# exact in integer math, so the SQL twin is bit-equal).
_REP_MAX_DUP2_BP = 2000
_REP_MAX_DUP3_BP = 1800


def repetition_stats(sf_dir: str) -> pa.Table:
    """Per-document repetition signals: total vs distinct word 2-grams
    and 3-grams, the duplicate-instance ratio of each in basis points,
    and the keep verdict under the Gopher-style thresholds — the
    repetition filter every training-data pipeline runs to drop looping
    boilerplate. Pure per-doc segment math (one tokenize + two gram
    concatenations per batch, distinct counts via one drop_duplicates);
    embarrassingly parallel, zero shuffle."""
    rd = _rd()

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return finalize(
        ds_to_table(ds.map_batches(_repetition_batch, batch_format="pyarrow")),
        [("doc_id", "ascending")],
    )


def _repetition_batch(t: pa.Table) -> pa.Table:
    """Per-doc duplicate n-gram signals for one batch (module-level so
    the corpus-export composition reuses the exact same kernel)."""
    from .dedup import _tokenize

    flat, offsets = _tokenize(t.column("text"))
    n_docs = len(offsets) - 1
    n_toks = np.diff(offsets)
    doc_idx_full = np.repeat(np.arange(n_docs), n_toks)
    n = len(flat)
    cols: dict = {"doc_id": t.column("doc_id")}
    bps = {}
    for k in (2, 3):
        total = np.maximum(n_toks - (k - 1), 0).astype(np.int64)
        if n >= k:
            gram = flat[: n - k + 1].copy()
            for j in range(1, k):
                gram = gram + " "
                gram = gram + flat[j : n - k + 1 + j]
            valid = doc_idx_full[: n - k + 1] == doc_idx_full[k - 1 :]
            dd = pd.DataFrame(
                {"d": doc_idx_full[: n - k + 1][valid], "g": gram[valid]}
            ).drop_duplicates()
            distinct = np.bincount(
                dd["d"].to_numpy(), minlength=n_docs
            ).astype(np.int64)
        else:
            distinct = np.zeros(n_docs, np.int64)
        dup = total - distinct
        bp = (dup * 10000) // np.maximum(total, 1)
        cols[f"n_{k}grams"] = pa.array(total, pa.int64())
        cols[f"n_dup_{k}grams"] = pa.array(dup, pa.int64())
        cols[f"dup{k}_bp"] = pa.array(bp, pa.int64())
        bps[k] = bp
    cols["rep_ok"] = pa.array(
        (bps[2] <= _REP_MAX_DUP2_BP) & (bps[3] <= _REP_MAX_DUP3_BP)
    )
    return pa.table(cols)


# The corpus-export keep rule: a document survives every hygiene gate.
# Contamination tolerance is zero hits (the strictest decontamination
# posture — any eval-overlapping shingle drops the doc).


def corpus_export(
    sf_dir: str, max_broadcast_ids: int = _DEDUP_MAX_BROADCAST_IDS
) -> pa.Table:
    """The flagship composition: the final per-document keep verdict a
    training-data export makes, combining every hygiene signal this
    engine computes — quality (length/stopword rules), repetition
    (duplicate n-gram ratios), content rules (URL/email/digit-run
    caps), exact dedup (smallest doc_id per identical text wins) and
    benchmark decontamination (zero eval-shingle overlap; eval docs
    themselves are excluded from the export). Columns: one boolean per
    gate plus the final ``keep`` conjunction.

    Scale shape: ONE read — the block refs feed the winner-election
    exchange, the eval-shingle fold, and the signal wave (previously
    three full Dataset executions re-read the parquet). The signal pass
    computes the four local / broadcast gates per batch (the winner-id
    set and the eval shingle set ship once via ``ray.put``) — zero
    shuffle besides exact dedup's own winner election. Above
    ``max_broadcast_ids`` winners, the dedup flag instead rides a
    doc_id-keyed exchange join against the winner rows (same gate and
    shape as :func:`dedup_exact`)."""
    import ray

    rd = _rd()
    from .dedup import _DECON_MOD, _DECON_REM, _hash_shingles, _member_sorted
    from .dedup import doc_shingles
    from .exchange import exchange_reduce, gather_concat

    refs = arrow_refs(rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ))

    def _guard(t: pa.Table) -> bool:
        return t.num_rows == 0 or "doc_id" not in t.column_names

    # exact-dedup winner election (the one shuffle)
    @ray.remote
    def hash_batch(t: pa.Table) -> pa.Table:
        if _guard(t):
            return pa.table(
                {"h": pa.array([], pa.binary(16)),
                 "doc_id": pa.array([], pa.int64())}
            )
        return _dedup_hash_batch(t)

    winner_wave = [hash_batch.remote(r) for r in refs]

    # eval shingle set (bounded by the benchmark suite, not the corpus)
    @ray.remote
    def eval_hashes(t: pa.Table) -> np.ndarray:
        if _guard(t):
            return np.zeros(0, np.uint64)
        mask = (t.column("doc_id").to_numpy() % _DECON_MOD) == _DECON_REM
        df = doc_shingles(t.filter(pa.array(mask)))
        return (
            np.unique(_hash_shingles(df["shingle"].to_numpy()))
            if len(df)
            else np.zeros(0, np.uint64)
        )

    ev_wave = [eval_hashes.remote(r) for r in refs]
    winners_t = gather_concat(
        exchange_reduce([winner_wave], ["h"], _dedup_winner_partition)
    )
    ev_sorted = np.unique(
        np.concatenate(ray.get(ev_wave)).astype(np.uint64)
    ) if refs else np.zeros(0, np.uint64)
    ev_ref = ray.put(ev_sorted)

    broadcast_dedup = winners_t.num_rows <= max_broadcast_ids
    win_ref = (
        ray.put(np.sort(winners_t.column("doc_id").to_numpy().astype(np.int64)))
        if broadcast_dedup
        else None
    )

    @ray.remote
    def signals(t: pa.Table) -> pa.Table:
        if _guard(t):
            return pa.table({})
        did = t.column("doc_id").to_numpy().astype(np.int64)
        keep_rows = (did % _DECON_MOD) != _DECON_REM
        t = t.filter(pa.array(keep_rows))
        did = did[keep_rows]
        q = _quality_batch(t)
        r = _repetition_batch(t)
        c = _content_batch(t)
        # contamination: zero eval-shingle hits allowed
        evs = ray.get(ev_ref)
        n_hit = np.zeros(len(did), np.int64)
        df = doc_shingles(t)
        if len(df):
            h = _hash_shingles(df["shingle"].to_numpy())
            hit = _member_sorted(h, evs)
            order = np.argsort(did, kind="stable")
            pos = order[np.searchsorted(did[order], df["doc_id"].to_numpy())]
            np.add.at(n_hit, pos, hit.astype(np.int64))
        cols = {
            "doc_id": pa.array(did, pa.int64()),
            "quality_ok": q.column("quality_ok"),
            "rep_ok": r.column("rep_ok"),
            "content_ok": c.column("content_ok"),
            "decontam_ok": pa.array(n_hit == 0),
        }
        if win_ref is not None:
            wins = ray.get(win_ref)
            cols["dedup_keep"] = pa.array(_member_sorted(
                did.astype(np.uint64), wins.astype(np.uint64)
            ))
        return pa.table(cols)

    sig = [signals.remote(r) for r in refs]

    if broadcast_dedup:
        t = pa.concat_tables(
            [x for x in ray.get(sig) if x.num_rows], promote_options="default"
        )
    else:
        # scale path: winner membership via a doc_id-keyed exchange join
        def flag_join(pid: int, sigs: pa.Table, wins: pa.Table) -> pa.Table:
            if sigs.num_rows == 0 or "doc_id" not in sigs.column_names:
                return pa.table({})
            did = sigs.column("doc_id").to_numpy().astype(np.uint64)
            if wins.num_rows and "doc_id" in wins.column_names:
                w = np.unique(wins.column("doc_id").to_numpy().astype(np.uint64))
            else:
                w = np.zeros(0, np.uint64)
            return sigs.append_column(
                "dedup_keep", pa.array(_member_sorted(did, w))
            )

        t = gather_concat(
            exchange_reduce(
                [sig, [ray.put(winners_t.select(["doc_id"]))]],
                ["doc_id", "doc_id"],
                flag_join,
            )
        )

    keep = pc.and_(
        pc.and_(
            pc.and_(t.column("quality_ok"), t.column("rep_ok")),
            pc.and_(t.column("content_ok"), t.column("decontam_ok")),
        ),
        t.column("dedup_keep"),
    )
    t = t.append_column("keep", keep)
    cols = ["doc_id", "quality_ok", "rep_ok", "content_ok",
            "dedup_keep", "decontam_ok", "keep"]
    return finalize(t.select(cols), [("doc_id", "ascending")])


# Mixture weighting with temperature (the public GPT-3/PaLM-style
# multi-source sampling rule: weight_i ∝ n_i^alpha with alpha < 1
# up-weighting small sources). alpha is engine config, not data-sized.
_MIX_ALPHA = 0.5


def mixture_weights(sf_dir: str, alpha: float = _MIX_ALPHA) -> pa.Table:
    """Per-group (lang = the source stand-in) sampling weights for a
    training mixture: ``weight_i = n_i^alpha / sum_j n_j^alpha`` rounded
    to 6 decimals — the temperature rule that keeps small sources from
    vanishing. Counts fold as fixed-cardinality partials (O(groups) per
    block, the lang_stats shape); the driver computes the tiny weight
    table. Exact-int counts + one final double pow/normalize keep the
    DuckDB twin bit-equal."""
    from ._util import fold_partials

    rd = _rd()

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(["lang"]).aggregate([([], "count_all")])
        return g.rename_columns(["lang", "n_part"])

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang"])
    counts = fold_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["lang"], [("n_part", "sum")],
    ).rename_columns(["lang", "n_docs"])
    lang = counts.column("lang").to_numpy(zero_copy_only=False).astype(object)
    n = counts.column("n_docs").to_numpy().astype(np.int64)
    order = np.argsort(lang.astype(str))
    lang, n = lang[order], n[order]
    w = np.power(n.astype(np.float64), alpha)
    share = np.round(w / w.sum(), 6)
    return pa.table(
        {
            "lang": pa.array(lang, pa.string()),
            "n_docs": pa.array(n, pa.int64()),
            "mix_weight": pa.array(share, pa.float64()),
        }
    )


# ---- bigram collocation mining (PMI / lift) ---------------------------

_COLL_SCALE = 1_000_000


def _coll_count_fold(names: list[str], pid: int, t: pa.Table) -> pa.Table:
    """Generic exchange fold: sum ``n_part`` per key tuple (the key's
    partials all meet here)."""
    if t.num_rows == 0:
        return pa.table(
            {**{c: pa.array([], pa.string()) for c in names},
             "n": pa.array([], pa.int64())}
        )
    g = t.group_by(names).aggregate([("n_part", "sum")])
    return pa.table(
        {**{c: g.column(c) for c in names},
         "n": g.column("n_part_sum").cast(pa.int64())}
    )


def _coll_attach(col: str, out: str, pid: int, pairs: pa.Table,
                 uni: pa.Table) -> pa.Table:
    """Attach the unigram count of ``col`` (bigrams co-partitioned with
    the completed unigram counts on that word)."""
    if pairs.num_rows == 0 or col not in pairs.column_names:
        cols = {"w1": pa.string(), "w2": pa.string(), "n_ab": pa.int64(),
                "ca": pa.int64(), "cb": pa.int64()}
        return pa.table({c: pa.array([], typ) for c, typ in cols.items()
                         if c in ("w1", "w2", "n_ab") or c == out
                         or (out == "cb" and c == "ca")})
    uw = uni.column("w").to_numpy(zero_copy_only=False)
    un = uni.column("n").to_numpy()
    order = np.argsort(uw)
    uw, un = uw[order], un[order]
    w = pairs.column(col).to_numpy(zero_copy_only=False)
    pos = np.searchsorted(uw, w)
    if len(uw) == 0 or (uw[np.minimum(pos, len(uw) - 1)] != w).any():
        raise ValueError(
            "bigram partition missing co-partitioned unigram counts — "
            "routing invariant broken"
        )
    return pairs.append_column(out, pa.array(un[pos], pa.int64()))


def collocations(sf_dir: str, k: int = 20, min_count: int = 5) -> pa.Table:
    """Top-k bigram collocations by exact integer LIFT — the PMI-style
    phrase-mining signal (tokens that travel together far above chance),
    mined corpus-wide without any vocabulary ever gathering.

    lift_micro = ⌊n_ab · 10⁶ · U² / (B · c_a · c_b)⌋ with U = total
    tokens, B = total bigrams — the SQL twin computes the identical
    floor in HUGEINT, so both sides are bit-equal (no float, no log).

    Four chained keyed exchanges, the :func:`dedup.ngram_jaccard`
    composition discipline: (1) unigram counts complete per partition,
    (2) bigram counts complete + min_count floor, (3)/(4) the two
    unigram denominators ride to their bigrams, lift + per-partition
    top-k decided in-partition (counts are complete there — the
    partition cut is a provable superset of the global top-k). The
    driver folds P × k rows and two scalar totals."""
    from functools import partial as fpartial

    import ray

    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    base_refs = arrow_refs(ds)

    @ray.remote
    def uni_partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(t.column("text").combine_chunks(),
                                      _TOKEN_SPLIT)
        flat = pc.list_flatten(toks)
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = flat.value_counts()
        return pa.table({"w": vc.field("values"),
                         "n_part": vc.field("counts").cast(pa.int64())})

    @ray.remote
    def bi_partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(t.column("text").combine_chunks(),
                                      _TOKEN_SPLIT)
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks).to_numpy()
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        w = flat.to_numpy(zero_copy_only=False)[keep]
        par = parent[keep]
        if len(w) < 2:
            return pa.table({"w1": pa.array([], pa.string()),
                             "w2": pa.array([], pa.string()),
                             "n_part": pa.array([], pa.int64())})
        adj = par[:-1] == par[1:]
        g = pa.table(
            {"w1": pa.array(w[:-1][adj], pa.string()),
             "w2": pa.array(w[1:][adj], pa.string())}
        ).group_by(["w1", "w2"]).aggregate([([], "count_all")])
        return g.rename_columns(["w1", "w2", "n_part"])

    @ray.remote
    def total(t: pa.Table) -> int:
        return int(pc.sum(t.column("n")).as_py() or 0) if t.num_rows else 0

    uni_parts = [uni_partial.remote(r) for r in base_refs]
    bi_parts = [bi_partial.remote(r) for r in base_refs]
    uni_refs = exchange_reduce([uni_parts], ["w"],
                               fpartial(_coll_count_fold, ["w"]))
    bi_refs = exchange_reduce([bi_parts], ["w1", "w2"],
                              fpartial(_coll_count_fold, ["w1", "w2"]))
    u_total = sum(ray.get([total.remote(r) for r in uni_refs]))
    b_total = sum(ray.get([total.remote(r) for r in bi_refs]))
    if b_total == 0:
        return pa.table(
            {"w1": pa.array([], pa.string()), "w2": pa.array([], pa.string()),
             "n_ab": pa.array([], pa.int64()),
             "lift_micro": pa.array([], pa.int64())}
        )

    @ray.remote
    def floor_filter(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t.column("n"), min_count))
        return t.rename_columns(["w1", "w2", "n_ab"])

    bi_flt = [floor_filter.remote(r) for r in bi_refs]

    def lift_topk(pid: int, pairs: pa.Table, uni: pa.Table) -> pa.Table:
        t = _coll_attach("w2", "cb", pid, pairs, uni)
        if t.num_rows == 0:
            return pa.table(
                {"w1": pa.array([], pa.string()),
                 "w2": pa.array([], pa.string()),
                 "n_ab": pa.array([], pa.int64()),
                 "lift_micro": pa.array([], pa.int64())}
            )
        nab = t.column("n_ab").to_pylist()
        ca = t.column("ca").to_pylist()
        cb = t.column("cb").to_pylist()
        # exact integer floor — unbounded Python ints, the HUGEINT twin
        lift = [
            (a * _COLL_SCALE * u_total * u_total) // (b_total * x * y)
            for a, x, y in zip(nab, ca, cb)
        ]
        out = pa.table(
            {"w1": t.column("w1"), "w2": t.column("w2"),
             "n_ab": t.column("n_ab"),
             "lift_micro": pa.array(lift, pa.int64())}
        )
        idx = pc.sort_indices(
            out, sort_keys=[("lift_micro", "descending"),
                            ("w1", "ascending"), ("w2", "ascending")]
        )
        return out.take(idx.slice(0, k))

    stage_a = exchange_reduce(
        [bi_flt, uni_refs], ["w1", "w"], fpartial(_coll_attach, "w1", "ca")
    )
    out_refs = exchange_reduce([stage_a, uni_refs], ["w2", "w"], lift_topk)
    t = gather_concat(out_refs)
    idx = pc.sort_indices(
        t, sort_keys=[("lift_micro", "descending"), ("w1", "ascending"),
                      ("w2", "ascending")]
    )
    return t.take(idx.slice(0, k)).combine_chunks()


# ---- conjunctive keyword search (inverted-index shape) ----------------


def keyword_search(sf_dir: str, n_terms: int = 2) -> pa.Table:
    """Conjunctive keyword search — the inverted-index retrieval shape:
    find every document containing ALL query terms as whole tokens. The
    query is self-derived for determinism: the ``n_terms`` tokens with
    the highest DOCUMENT frequency (ties by token asc) — the worst-case
    hot postings, so the benchmark exercises the fattest lists.

    Two task waves over ONE read (the round-4 read-once pattern):
    (1) distinct (token, doc_id) postings fold DF through the token-keyed
    exchange, per-partition top-``n_terms`` cut (a provable superset of
    the global cut), driver folds P × n rows; (2) the tiny term set
    broadcasts back over the same blocks — each doc lives in exactly one
    block, so the per-doc distinct-term count is complete block-locally
    and hits need NO second exchange."""
    from functools import partial as fpartial

    import ray

    from .exchange import exchange_reduce, gather_concat

    idx = _text_index_meta(sf_dir)
    if idx is not None:  # physical inverted index at rest for this content
        return _keyword_search_indexed(idx[0], idx[1], n_terms)

    rd = _rd()
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    base_refs = arrow_refs(ds)

    @ray.remote
    def postings(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(t.column("text").combine_chunks(),
                                      _TOKEN_SPLIT)
        flat = pc.list_flatten(toks)
        did = t.column("doc_id").combine_chunks().take(
            pc.list_parent_indices(toks)
        )
        pt = pa.table({"token": flat, "doc_id": did}).filter(
            pc.not_equal(flat, "")
        )
        g = pt.group_by(["token", "doc_id"]).aggregate([([], "count_all")])
        # distinct postings: one row per (token, doc) regardless of tf
        return pa.table(
            {"token": g.column("token"),
             "doc_id": g.column("doc_id").cast(pa.int64()),
             "n_part": pa.array(np.ones(g.num_rows, np.int64), pa.int64())}
        )

    post_refs = [postings.remote(r) for r in base_refs]
    df_refs = exchange_reduce(
        [post_refs], ["token"], fpartial(_token_topk_partition, k=n_terms)
    )
    dfs = gather_concat(df_refs)
    idx = pc.sort_indices(
        dfs, sort_keys=[("n", "descending"), ("token", "ascending")]
    )
    terms = dfs.take(idx.slice(0, n_terms)).column("token").to_pylist()
    if not terms:
        return pa.table({"doc_id": pa.array([], pa.int64())})
    terms_set = pa.array(sorted(terms), pa.string())

    @ray.remote
    def hits(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(t.column("text").combine_chunks(),
                                      _TOKEN_SPLIT)
        flat = pc.list_flatten(toks)
        did = t.column("doc_id").combine_chunks().take(
            pc.list_parent_indices(toks)
        )
        keep = pc.is_in(flat, value_set=terms_set)
        pt = pa.table({"token": flat, "doc_id": did}).filter(keep)
        if pt.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64())})
        g = pt.group_by(["doc_id", "token"]).aggregate([([], "count_all")])
        m = g.group_by(["doc_id"]).aggregate([([], "count_all")])
        full = m.filter(pc.equal(m.column("count_all"), len(terms_set)))
        return pa.table({"doc_id": full.column("doc_id").cast(pa.int64())})

    tabs = [t for t in ray.get([hits.remote(r) for r in base_refs])
            if t.num_rows]
    if not tabs:
        return pa.table({"doc_id": pa.array([], pa.int64())})
    return finalize(pa.concat_tables(tabs), [("doc_id", "ascending")])


# ---- hashing-trick featurizer -----------------------------------------

_FH_DIM = 16


def feature_hashing(sf_dir: str, dim: int = _FH_DIM) -> pa.Table:
    """The hashing-trick featurizer (Weinberger et al. 2009): each doc
    becomes a fixed-``dim`` integer count vector — bucket j counts the
    tokens whose :func:`dedup.hash_utf8_64` lands in residue j. The
    fixed-width feature export a downstream model consumes, with NO
    vocabulary state anywhere (the whole point of the trick).

    Map-only: every doc lives in one block, so the per-doc scatter-add
    closes block-locally; the driver gathers the O(docs) × dim result
    (the query contract — production writes it partitioned). The SQL
    twin replays the identical Horner+splitmix hash in HUGEINT."""
    from .dedup import hash_utf8_64

    rd = _rd()
    names = [f"f{j}" for j in range(dim)]

    def featurize(t: pa.Table) -> pa.Table:
        did = t.column("doc_id").combine_chunks()
        toks = pc.split_pattern_regex(t.column("text").combine_chunks(),
                                      _TOKEN_SPLIT)
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks).to_numpy()
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        h = hash_utf8_64(flat.filter(pc.not_equal(flat, "")))
        bkt = (h % np.uint64(dim)).astype(np.int64)
        par = parent[keep]
        mat = np.zeros((t.num_rows, dim), np.int64)
        np.add.at(mat, (par, bkt), 1)
        return pa.table(
            {"doc_id": did.cast(pa.int64()),
             **{nm: pa.array(mat[:, j], pa.int64())
                for j, nm in enumerate(names)}}
        )

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    t = ds_to_table(ds.map_batches(featurize, batch_format="pyarrow"))
    return finalize(t, [("doc_id", "ascending")])


def doc_diversity(sf_dir: str) -> pa.Table:
    """Lexical diversity per document — Simpson's repeat index as an
    EXACT integer: simpson_micro = ⌊Σᵢ nᵢ(nᵢ−1)·10⁶ / (N(N−1))⌋, the
    probability two sampled tokens coincide (high = repetitive, the
    quality-filter complement of type-token ratio). Docs with N ≤ 1
    report 0.

    Map-only: each doc lives in one block, so the per-doc token-count
    fold closes block-locally — no shuffle, O(docs) result rows."""
    rd = _rd()

    def per_doc(t: pa.Table) -> pa.Table:
        did = t.column("doc_id").combine_chunks()
        toks = pc.split_pattern_regex(t.column("text").combine_chunks(),
                                      _TOKEN_SPLIT)
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        pt = pa.table({"d": parent, "w": flat}).filter(
            pc.not_equal(flat, "")
        )
        c = pt.group_by(["d", "w"]).aggregate([([], "count_all")])
        d = c.column("d").to_numpy()
        n = c.column("count_all").to_numpy().astype(np.int64)
        N = np.zeros(t.num_rows, np.int64)
        rep = np.zeros(t.num_rows, np.int64)
        np.add.at(N, d, n)
        np.add.at(rep, d, n * (n - 1))
        denom = N * (N - 1)
        simpson = np.where(denom > 0, (rep * 1_000_000) // np.maximum(denom, 1), 0)
        return pa.table(
            {"doc_id": did.cast(pa.int64()),
             "n_tokens": pa.array(N, pa.int64()),
             "simpson_micro": pa.array(simpson, pa.int64())}
        )

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return finalize(
        ds_to_table(ds.map_batches(per_doc, batch_format="pyarrow")),
        [("doc_id", "ascending")],
    )


# ---- BM25 ranked retrieval ---------------------------------------------

_BM25_K = 20


def bm25_search(sf_dir: str, n_terms: int = 2, k: int = _BM25_K) -> pa.Table:
    """BM25-ranked retrieval — the scored sibling of
    :func:`keyword_search`: rank every document against the corpus's
    ``n_terms`` highest-DF tokens (the self-derived worst-case-hot
    query) by Okapi BM25 with k1 = 6/5, b = 3/4 and the log-free
    rational idf ``(N - df + 1/2) / (df + 1/2)``, so each per-term
    contribution is an EXACT integer ratio:

        c(d, t) = ⌊(2N−2df_t+1) · 44·L·tf_td · 10⁶ /
                   ((2df_t+1) · (20·L·tf_td + 6·L + 18·dl_d·N))⌋

    and ``score_micro(d) = Σ_t c(d, t)`` (L = corpus token count,
    dl = doc token count). Flooring per term BEFORE the sum makes the
    fold order-independent, so the distributed result is bit-stable
    and the DuckDB twin replays the identical arithmetic in HUGEINT.

    Shape: the keyword_search two-task-wave pattern over ONE read —
    (1) distinct postings fold global DF through the token-keyed
    exchange (per-partition top-``n_terms`` cut is a provable superset
    of the global cut) while 1-row block size tables fold (N, L)
    driver-side; (2) the tiny (term, df) map plus (N, L) broadcast
    back over the same blocks — each doc lives in exactly one block,
    so scoring and the per-block top-``k`` cut (a superset of the
    global top-k under the total (score desc, doc_id asc) order)
    close block-locally and the driver folds only P×k rows. The
    per-candidate Python-int arithmetic is bounded by the block's doc
    count; a 100-TB run would reduce each ratio by gcd (or take a
    float scoring path) before the integers outgrow 128 bits."""
    from functools import partial as fpartial

    import ray

    from .exchange import exchange_reduce, gather_concat

    idx = _text_index_meta(sf_dir)
    if idx is not None:  # physical inverted index at rest for this content
        return _bm25_search_indexed(idx[0], idx[1], n_terms, k)

    rd = _rd()
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    base_refs = arrow_refs(ds)

    @ray.remote(num_returns=2)
    def postings_and_size(t: pa.Table):
        if "text" not in t.column_names:  # schema-less empty block
            return (
                pa.table({"token": pa.array([], pa.string()),
                          "doc_id": pa.array([], pa.int64()),
                          "n_part": pa.array([], pa.int64())}),
                pa.table({"n_docs": pa.array([0], pa.int64()),
                          "n_tokens": pa.array([0], pa.int64())}),
            )
        toks = pc.split_pattern_regex(t.column("text").combine_chunks(),
                                      _TOKEN_SPLIT)
        flat = pc.list_flatten(toks)
        did = t.column("doc_id").combine_chunks().take(
            pc.list_parent_indices(toks)
        )
        pt = pa.table({"token": flat, "doc_id": did}).filter(
            pc.not_equal(flat, "")
        )
        g = pt.group_by(["token", "doc_id"]).aggregate([([], "count_all")])
        post = pa.table(
            {"token": g.column("token"),
             "doc_id": g.column("doc_id").cast(pa.int64()),
             "n_part": pa.array(np.ones(g.num_rows, np.int64), pa.int64())}
        )
        size = pa.table({"n_docs": pa.array([t.num_rows], pa.int64()),
                         "n_tokens": pa.array([pt.num_rows], pa.int64())})
        return post, size

    outs = [postings_and_size.remote(r) for r in base_refs]
    post_refs = [o[0] for o in outs]
    size_refs = [o[1] for o in outs]
    df_refs = exchange_reduce(
        [post_refs], ["token"], fpartial(_token_topk_partition, k=n_terms)
    )
    dfs = gather_concat(df_refs)
    sizes = pa.concat_tables(ray.get(size_refs))
    N = int(pc.sum(sizes.column("n_docs")).as_py() or 0)
    L = int(pc.sum(sizes.column("n_tokens")).as_py() or 0)

    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "score_micro": pa.array([], pa.int64())})
    if dfs.num_rows == 0 or L == 0:
        return empty
    idx = pc.sort_indices(
        dfs, sort_keys=[("n", "descending"), ("token", "ascending")]
    )
    sel = dfs.take(idx.slice(0, n_terms))
    df_by_term = dict(
        zip(sel.column("token").to_pylist(), sel.column("n").to_pylist())
    )
    terms_set = pa.array(sorted(df_by_term), pa.string())

    @ray.remote
    def score_block(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(t.column("text").combine_chunks(),
                                      _TOKEN_SPLIT)
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        pt = pa.table({"d": parent, "w": flat}).filter(
            pc.not_equal(flat, "")
        )
        dl = np.zeros(t.num_rows, np.int64)
        np.add.at(dl, pt.column("d").to_numpy(), 1)
        cand = pt.filter(pc.is_in(pt.column("w"), value_set=terms_set))
        if cand.num_rows == 0:
            return empty
        g = cand.group_by(["d", "w"]).aggregate([([], "count_all")])
        did_np = t.column("doc_id").to_numpy()
        # exact Python-int per-(doc, term) floors; ≤ n_terms rows per doc
        scores: dict[int, int] = {}
        for dd, w, tf in zip(g.column("d").to_numpy().tolist(),
                             g.column("w").to_pylist(),
                             g.column("count_all").to_numpy().tolist()):
            dfq = df_by_term[w]
            a = (2 * N - 2 * dfq + 1) * 44 * L * tf * 1_000_000
            b = (2 * dfq + 1) * (20 * L * tf + 6 * L + 18 * int(dl[dd]) * N)
            doc = int(did_np[dd])
            scores[doc] = scores.get(doc, 0) + a // b
        out = pa.table(
            {"doc_id": pa.array(list(scores), pa.int64()),
             "score_micro": pa.array(list(scores.values()), pa.int64())}
        )
        s_idx = pc.sort_indices(
            out,
            sort_keys=[("score_micro", "descending"), ("doc_id", "ascending")],
        )
        return out.take(s_idx.slice(0, k))

    tabs = [x for x in ray.get([score_block.remote(r) for r in base_refs])
            if x.num_rows]
    if not tabs:
        return empty
    allt = pa.concat_tables(tabs)
    f_idx = pc.sort_indices(
        allt,
        sort_keys=[("score_micro", "descending"), ("doc_id", "ascending")],
    )
    return allt.take(f_idx.slice(0, k)).combine_chunks()


# ---- φ-heavy hitters (mergeable Misra–Gries) ----------------------------

_HH_PHI_INV = 200
_HH_M = 4096


def heavy_hitters(sf_dir: str, phi_inv: int = _HH_PHI_INV,
                  m: int = _HH_M) -> pa.Table:
    """Per-language φ-frequent tokens — every (lang, token) whose count
    satisfies ``n · phi_inv > N_lang`` — via mergeable Misra–Gries
    summaries plus an exact recount (the sketch-then-verify shape; the
    HLL pattern's deterministic cousin).

    Wave 1 per block: exact (lang, token) counts close block-locally,
    then compress to an m-entry MG summary (subtract the (m+1)-th
    largest count, drop non-positive) — the decrement is the block's
    additive error. ONE merge task folds the P summaries and compresses
    once more; every token whose true count exceeds
    ``E = Σ block decrements + merge decrement`` is provably in the
    merged keys (mergeable-summaries bound, Agarwal et al. 2012).
    Certification: if ``E ≤ min_lang ⌊N_lang/phi_inv⌋`` the candidate
    set provably covers all heavy hitters; wave 2 broadcasts it, blocks
    recount candidates EXACTLY (re-scan, nothing extra in the object
    store), one fold applies the threshold. If certification fails the
    operator falls back to the exact token-keyed exchange — same
    result, full vocabulary shuffle (forced-fallback pytest proves the
    routes bit-equal). Only the ≤ m-row summary + candidate recounts
    ever leave a block on the certified path."""
    from functools import partial as fpartial

    import ray

    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["lang", "text"])
    base_refs = arrow_refs(ds)

    empty = pa.table({"lang": pa.array([], pa.string()),
                      "token": pa.array([], pa.string()),
                      "n": pa.array([], pa.int64())})
    meta_empty = pa.table({"lang": pa.array([], pa.string()),
                           "nl": pa.array([], pa.int64())})

    def _lt_counts(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(t.column("text").combine_chunks(),
                                      _TOKEN_SPLIT)
        flat = pc.list_flatten(toks)
        lang = t.column("lang").combine_chunks().take(
            pc.list_parent_indices(toks)
        )
        pt = pa.table({"lang": lang, "token": flat}).filter(
            pc.not_equal(flat, "")
        )
        c = pt.group_by(["lang", "token"]).aggregate([([], "count_all")])
        return pa.table({"lang": c.column("lang"),
                         "token": c.column("token"),
                         "n": c.column("count_all").cast(pa.int64())})

    def _mg_compress(counts: pa.Table):
        n = counts.column("n").to_numpy()
        if len(n) <= m:
            return counts, 0
        dec = int(np.partition(n, len(n) - 1 - m)[len(n) - 1 - m])
        keep = pa.array(n > dec)
        kept = counts.filter(keep)
        return kept.set_column(
            kept.schema.get_field_index("n"), "n",
            pa.array(kept.column("n").to_numpy() - dec, pa.int64())
        ), dec

    @ray.remote(num_returns=3)
    def mg_block(t: pa.Table):
        if "text" not in t.column_names or t.num_rows == 0:
            return empty, meta_empty, 0
        c = _lt_counts(t)
        totals = c.group_by(["lang"]).aggregate([("n", "sum")])
        meta = pa.table({"lang": totals.column("lang"),
                         "nl": totals.column("n_sum").cast(pa.int64())})
        summ, dec = _mg_compress(c)
        return summ, meta, dec

    @ray.remote(num_returns=2)
    def mg_merge(*summs):
        tabs = [s for s in summs if s.num_rows]
        if not tabs:
            return empty, 0
        g = pa.concat_tables(tabs).group_by(["lang", "token"]).aggregate(
            [("n", "sum")]
        )
        merged = pa.table({"lang": g.column("lang"),
                           "token": g.column("token"),
                           "n": g.column("n_sum").cast(pa.int64())})
        return _mg_compress(merged)

    outs = [mg_block.remote(r) for r in base_refs]
    metas = pa.concat_tables(ray.get([o[1] for o in outs]))
    if metas.num_rows == 0:
        return empty
    tot = metas.group_by(["lang"]).aggregate([("nl", "sum")])
    lang_tot = dict(zip(tot.column("lang").to_pylist(),
                        tot.column("nl_sum").to_pylist()))
    cand_ref, mdec_ref = mg_merge.options(num_returns=2).remote(
        *[o[0] for o in outs]
    )
    E = sum(ray.get([o[2] for o in outs])) + ray.get(mdec_ref)
    min_thresh = min(nl // phi_inv for nl in lang_tot.values())
    lt_tab = pa.table({"lang": pa.array(list(lang_tot), pa.string()),
                       "nl": pa.array(list(lang_tot.values()), pa.int64())})

    def _apply_threshold(counts: pa.Table) -> pa.Table:
        j = counts.join(lt_tab, "lang")
        j = j.filter(pc.greater(pc.multiply(j.column("n"),
                                            pa.scalar(phi_inv, pa.int64())),
                                j.column("nl")))
        return pa.table({"lang": j.column("lang"), "token": j.column("token"),
                         "n": j.column("n")})

    if E <= min_thresh:
        cand = ray.get(cand_ref)
        cand_key = ray.put(pc.binary_join_element_wise(
            cand.column("lang").combine_chunks().cast(pa.string()),
            cand.column("token").combine_chunks(), "\x1f"))

        @ray.remote
        def recount(t: pa.Table, ck) -> pa.Table:
            if "text" not in t.column_names or t.num_rows == 0:
                return empty
            c = _lt_counts(t)
            key = pc.binary_join_element_wise(
                c.column("lang").combine_chunks(),
                c.column("token").combine_chunks(), "\x1f")
            return c.filter(pc.is_in(key, value_set=ck))

        @ray.remote
        def fold(*parts):
            tabs = [p for p in parts if p.num_rows]
            if not tabs:
                return empty
            g = pa.concat_tables(tabs).group_by(["lang", "token"]).aggregate(
                [("n", "sum")]
            )
            return _apply_threshold(
                pa.table({"lang": g.column("lang"), "token": g.column("token"),
                          "n": g.column("n_sum").cast(pa.int64())})
            )

        out = ray.get(fold.remote(
            *[recount.remote(r, cand_key) for r in base_refs]
        ))
    else:  # sketch cannot certify coverage — exact full exchange
        @ray.remote
        def partials(t: pa.Table) -> pa.Table:
            if "text" not in t.column_names or t.num_rows == 0:
                return empty
            return _lt_counts(t)

        def exact_partition(pid: int, t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or "token" not in t.column_names:
                return empty
            g = t.group_by(["lang", "token"]).aggregate([("n", "sum")])
            return _apply_threshold(
                pa.table({"lang": g.column("lang"),
                          "token": g.column("token"),
                          "n": g.column("n_sum").cast(pa.int64())})
            )

        out = gather_concat(exchange_reduce(
            [[partials.remote(r) for r in base_refs]], ["token"],
            exact_partition,
        ))
    if out.num_rows == 0:
        return empty
    return finalize(out, [("lang", "ascending"), ("n", "descending"),
                          ("token", "ascending")])


# ---- Pareto frontier (2-D skyline) --------------------------------------


def pareto_kernel(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Boolean frontier mask for maximize-x / minimize-y dominance:
    row i survives iff no row has (x ≥ xᵢ, y ≤ yᵢ) with one strict.
    Equal (x, y) pairs never dominate each other, so exact duplicates
    all survive together. O(n log n) sweep, pure numpy."""
    n = len(x)
    if n == 0:
        return np.zeros(0, bool)
    order = np.lexsort((y, -x))  # x desc, y asc within level
    xs, ys = x[order], y[order]
    new_level = np.r_[True, xs[1:] != xs[:-1]]
    # min y within each x-level = first y of the level (y asc)
    level_min = ys[new_level][np.cumsum(new_level) - 1]
    # strict prefix min of level minima over all STRICTLY higher x
    lm = ys[new_level]
    prev = np.r_[np.iinfo(np.int64).max, np.minimum.accumulate(lm)[:-1]]
    m_prev = prev[np.cumsum(new_level) - 1]
    keep_sorted = (ys == level_min) & (ys < m_prev)
    keep = np.zeros(n, bool)
    keep[order] = keep_sorted
    return keep


def pareto_docs(sf_dir: str) -> pa.Table:
    """The corpus's Pareto-optimal documents under (n_tokens maximized,
    simpson_micro minimized) — the skyline operator: long AND lexically
    diverse docs that no other doc beats on both axes (the
    quality-frontier lens a curation pipeline cuts against, rather than
    a single blended score).

    Distributed prune: every global frontier point is on its own
    block's local frontier, so blocks compute doc metrics (the
    :func:`doc_diversity` integers) and sweep locally — only the local
    frontier (expected O(log n_block) points for non-degenerate 2-D
    data) leaves each block; one final task sweeps the gathered
    candidates. Worst-case (fully sorted data) candidates degrade to
    O(n); a production run would add a second block-parallel prune
    against a broadcast sample of the candidate sweep before the
    gather. Kernel is pure numpy (:func:`pareto_kernel`) and
    pytest-checked against the O(n²) dominance definition."""
    import ray

    rd = _rd()

    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "n_tokens": pa.array([], pa.int64()),
                      "simpson_micro": pa.array([], pa.int64())})

    @ray.remote
    def local_frontier(t: pa.Table) -> pa.Table:
        if "text" not in t.column_names or t.num_rows == 0:
            return empty
        did = t.column("doc_id").combine_chunks()
        toks = pc.split_pattern_regex(t.column("text").combine_chunks(),
                                      _TOKEN_SPLIT)
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        pt = pa.table({"d": parent, "w": flat}).filter(
            pc.not_equal(flat, "")
        )
        c = pt.group_by(["d", "w"]).aggregate([([], "count_all")])
        d = c.column("d").to_numpy()
        n = c.column("count_all").to_numpy().astype(np.int64)
        N = np.zeros(t.num_rows, np.int64)
        rep = np.zeros(t.num_rows, np.int64)
        np.add.at(N, d, n)
        np.add.at(rep, d, n * (n - 1))
        denom = N * (N - 1)
        simpson = np.where(denom > 0,
                           (rep * 1_000_000) // np.maximum(denom, 1), 0)
        keep = pareto_kernel(N, simpson)
        return pa.table(
            {"doc_id": did.cast(pa.int64()).filter(pa.array(keep)),
             "n_tokens": pa.array(N[keep], pa.int64()),
             "simpson_micro": pa.array(simpson[keep], pa.int64())}
        )

    @ray.remote
    def global_frontier(*cands) -> pa.Table:
        tabs = [c for c in cands if c.num_rows]
        if not tabs:
            return empty
        t = pa.concat_tables(tabs).combine_chunks()
        keep = pareto_kernel(t.column("n_tokens").to_numpy(),
                             t.column("simpson_micro").to_numpy())
        return t.filter(pa.array(keep))

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    out = ray.get(global_frontier.remote(
        *[local_frontier.remote(r) for r in arrow_refs(ds)]
    ))
    if out.num_rows == 0:
        return empty
    return finalize(out, [("doc_id", "ascending")])


# ---- deterministic weighted sampling without replacement ------------------

_WS_SEED = 0x5EED
_WS_K = 100


def weighted_sample(sf_dir: str, k: int = _WS_K, seed: int = _WS_SEED) -> pa.Table:
    """Deterministic weighted sampling without replacement: the ``k``
    documents with the SMALLEST integer priority
    ``(splitmix64(doc_id + seed) >> 1) // max(weight, 1)`` win, weight =
    n_chars — the integer-exact analogue of the Efraimidis–Spirakis
    u^(1/w) reservoir key (a doc's win probability grows ∝ its weight;
    heavier docs divide their uniform key by more). Everything is int64
    (the >> 1 keeps the dividend inside int63), so the sample is
    reproducible bit-for-bit on any executor topology and in SQL.

    Distributed shape: priorities are one vectorized splitmix pass per
    block, each block cuts its local k-smallest (a provable superset of
    the global cut), the driver folds P×k candidate rows — no shuffle,
    same top-k shape as q10. Bodies never move: only (doc_id, weight,
    priority) rows leave the scan."""
    rd = _rd()
    empty = pa.table({"rnk": pa.array([], pa.int64()),
                      "doc_id": pa.array([], pa.int64()),
                      "n_chars": pa.array([], pa.int64()),
                      "priority": pa.array([], pa.int64())})

    def local_cut(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return empty
        did = t.column("doc_id").to_numpy().astype(np.int64)
        w = t.column("n_chars").to_numpy().astype(np.int64)
        h = _splitmix64((did + seed).astype(np.uint64))
        pr = (h >> np.uint64(1)).astype(np.int64) // np.maximum(w, 1)
        out = pa.table({"rnk": pa.array(np.zeros(len(did), np.int64)),
                        "doc_id": pa.array(did),
                        "n_chars": pa.array(w),
                        "priority": pa.array(pr)})
        idx = pc.sort_indices(out, sort_keys=[("priority", "ascending"),
                                              ("doc_id", "ascending")])
        return out.take(idx.slice(0, k))

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "n_chars"])
    cand = ds_to_table(ds.map_batches(local_cut, batch_format="pyarrow"))
    if cand.num_rows == 0 or cand.num_columns == 0:
        return empty
    idx = pc.sort_indices(cand, sort_keys=[("priority", "ascending"),
                                           ("doc_id", "ascending")])
    top = cand.take(idx.slice(0, k))
    return top.set_column(
        0, "rnk", pa.array(np.arange(1, top.num_rows + 1, dtype=np.int64))
    )


# ---- per-source character-class census ------------------------------------


def charclass_profile(sf_dir: str) -> pa.Table:
    """Per-source character-class census: total codepoints and how many
    are ASCII letters / digits / spaces / anything else — the cheap
    encoding-health signal that flags a source whose "text" is secretly
    markup, base64 or binary soup before it poisons tokenization.

    One vectorized pass per block (Arrow's RE2 ``count_substring_regex``
    counts class members per doc; space counts are an exact literal
    ``count_substring``), partials combine per source map-side, and the
    fixed-cardinality source census folds driver-side — no shuffle, no
    Python loop, bodies never leave the scan task. All counts are exact
    int64, so the fold is order-independent."""
    from ._util import fold_partials

    rd = _rd()
    empty = pa.table({"source": pa.array([], pa.string()),
                      "n_docs": pa.array([], pa.int64()),
                      "n_chars": pa.array([], pa.int64()),
                      "letters": pa.array([], pa.int64()),
                      "digits": pa.array([], pa.int64()),
                      "spaces": pa.array([], pa.int64()),
                      "other": pa.array([], pa.int64())})

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "text" not in t.column_names:
            # PARTIAL schema (not the final 7-column one): an all-empty
            # corpus must still fold through the nd/nc/... aggregate
            return pa.table({"source": pa.array([], pa.string()),
                             "nd": pa.array([], pa.int64()),
                             "nc": pa.array([], pa.int64()),
                             "le": pa.array([], pa.int64()),
                             "di": pa.array([], pa.int64()),
                             "sp": pa.array([], pa.int64())})
        txt = t.column("text")
        part = pa.table({
            "source": t.column("source"),
            "nc": pc.utf8_length(txt).cast(pa.int64()),
            "le": pc.count_substring_regex(txt, "[A-Za-z]").cast(pa.int64()),
            "di": pc.count_substring_regex(txt, "[0-9]").cast(pa.int64()),
            "sp": pc.count_substring(txt, " ").cast(pa.int64()),
        })
        g = part.group_by(["source"]).aggregate(
            [([], "count_all"), ("nc", "sum"), ("le", "sum"),
             ("di", "sum"), ("sp", "sum")]
        )
        return g.rename_columns(["source", "nd", "nc", "le", "di", "sp"])

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["source", "text"])
    t = fold_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["source"],
        [("nd", "sum"), ("nc", "sum"), ("le", "sum"),
         ("di", "sum"), ("sp", "sum")],
        ["source", "n_docs", "n_chars", "letters", "digits", "spaces"],
    )
    if t.num_columns == 0:
        return empty
    other = (t.column("n_chars").to_numpy() - t.column("letters").to_numpy()
             - t.column("digits").to_numpy() - t.column("spaces").to_numpy())
    out = pa.table({"source": t.column("source"),
                    "n_docs": t.column("n_docs").cast(pa.int64()),
                    "n_chars": t.column("n_chars").cast(pa.int64()),
                    "letters": t.column("letters").cast(pa.int64()),
                    "digits": t.column("digits").cast(pa.int64()),
                    "spaces": t.column("spaces").cast(pa.int64()),
                    "other": pa.array(other.astype(np.int64))})
    return finalize(out, [("source", "ascending")])


# ---- corpus vocabulary census ---------------------------------------------


def vocab_stats(sf_dir: str) -> pa.Table:
    """Corpus vocabulary census: total token occurrences, distinct
    types, hapax legomena (types occurring exactly once) and the exact
    integer type/token ratio (1e-6 basis) — the Zipf-health signal that
    catches both a template-collapsed corpus (TTR ≈ 0) and an id-soup
    one (TTR ≈ 1) before training.

    top_tokens' token semantics (non-empty ``\\S+`` runs): per-block
    value_counts partials, the token-keyed exchange completes each
    type's global count in exactly one partition, and each partition
    reduces to ONE (occurrences, types, hapax) row — the driver folds P
    scalar rows, never the vocabulary."""
    from .exchange import exchange_reduce, gather_concat

    ti = _text_index_meta(sf_dir)
    if ti is not None:  # physical inverted index at rest for this content
        return _vocab_stats_indexed(ti[0], ti[1])

    rd = _rd()

    def partial_counts(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "text" not in t.column_names:
            return pa.table({"token": pa.array([], pa.string()),
                             "n_part": pa.array([], pa.int64())})
        toks = pc.split_pattern_regex(t.column("text"), _TOKEN_SPLIT)
        flat = pc.list_flatten(toks)
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = flat.value_counts()
        return pa.table({"token": vc.field("values"),
                         "n_part": vc.field("counts").cast(pa.int64())})

    def census_kernel(pid: int, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "token" not in t.column_names:
            return pa.table({"occ": pa.array([], pa.int64()),
                             "types": pa.array([], pa.int64()),
                             "hapax": pa.array([], pa.int64())})
        g = t.group_by(["token"]).aggregate([("n_part", "sum")])
        n = g.column("n_part_sum").to_numpy()
        return pa.table({"occ": pa.array([int(n.sum())], pa.int64()),
                         "types": pa.array([len(n)], pa.int64()),
                         "hapax": pa.array([int((n == 1).sum())], pa.int64())})

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    parts = gather_concat(exchange_reduce(
        [ds.map_batches(partial_counts, batch_format="pyarrow")],
        ["token"], census_kernel,
    ))
    occ = int(pc.sum(parts.column("occ")).as_py() or 0) if parts.num_rows else 0
    ty = int(pc.sum(parts.column("types")).as_py() or 0) if parts.num_rows else 0
    hp = int(pc.sum(parts.column("hapax")).as_py() or 0) if parts.num_rows else 0
    return pa.table({"n_tokens": pa.array([occ], pa.int64()),
                     "n_types": pa.array([ty], pa.int64()),
                     "n_hapax": pa.array([hp], pa.int64()),
                     "ttr_micro": pa.array(
                         [1_000_000 * ty // max(occ, 1)], pa.int64())})


# ---- physical inverted text index at rest ---------------------------------
#
# The build_lsh_index sibling for TOKENS (similarity.py:698): the
# (token, doc_id, tf) posting table written once, hash-partitioned by
# hash_key(token) % P into ``pid=K/`` parquet dirs — the SAME routing as
# the token-keyed exchange, so each pid dir holds EVERY posting of its
# tokens and df/top-k folds become pid-local. A doclens/ sibling (one
# shard per hash_key(doc_id) % P) carries the per-doc token counts BM25
# needs. keyword_search and bm25_search auto-route through the index
# when one exists for the corpus content: retrieval then reads ONLY the
# query terms' pid dirs — no re-tokenization of a single document.

_TI_VERSION = 1
_TI_PARTS = 16


def _text_index_dir(sf_dir: str) -> str:
    """The per-corpus inverted-index entry, with every layout parameter
    in the fingerprint."""
    return cache.entry("textidx", sf_dir, "documents.parquet",
                       f"ti{_TI_VERSION}:{_TI_PARTS}")


def _text_index_meta(sf_dir: str) -> "tuple[str, dict] | None":
    import os

    from .similarity import _read_meta

    d = _text_index_dir(sf_dir)
    return (d, _read_meta(d)) if os.path.isdir(d) else None


def _ti_pid_paths(index_dir: str, meta: dict, sub: str = "postings") -> list:
    """Sorted parquet paths of every ``sub/pid=K/`` shard — the one
    glob shared by all indexed readers."""
    import glob
    import os

    return [
        sorted(glob.glob(os.path.join(index_dir, sub, f"pid={i}",
                                      "*.parquet")))
        for i in range(meta["P"])
    ]


def build_text_index(sf_dir: str) -> dict:
    """Build (or reuse) the physical inverted text index: one streamed
    tokenize pass writes ``postings/pid=K/`` (token-hash partitioned,
    one row per (token, doc) with its tf), a doc-keyed exchange folds
    ``doclens/pid=K/`` (one shard per doc-hash partition), and
    ``meta.json`` pins (N, L, P, version)."""
    from .similarity import _read_meta

    return cache.get_or_build(
        _text_index_dir(sf_dir),
        lambda tmp: _write_text_index(sf_dir, tmp),
        _read_meta,
    )


def _write_text_index(sf_dir: str, scratch: str) -> dict:
    import json
    import os

    import pyarrow.parquet as pqt
    import ray

    from .exchange import exchange_reduce, hash_key

    rd = _rd()
    P = _TI_PARTS
    import glob

    pat = f"{sf_dir}/documents.parquet"
    paths = sorted(glob.glob(pat)) or sorted(
        glob.glob(os.path.join(pat, "*.parquet"))
    )
    # metadata row count works for single-file AND directory corpora
    # (the layouts _text_index_dir fingerprints)
    n_docs = sum(pqt.read_metadata(p).num_rows for p in paths)

    def explode(t: pa.Table) -> pa.Table:
        empty = pa.table({"token": pa.array([], pa.string()),
                          "doc_id": pa.array([], pa.int64()),
                          "tf": pa.array([], pa.int64()),
                          "pid": pa.array([], pa.int32())})
        if t.num_rows == 0 or "text" not in t.column_names:
            return empty
        toks = pc.split_pattern_regex(t.column("text").combine_chunks(),
                                      _TOKEN_SPLIT)
        flat = pc.list_flatten(toks)
        did = t.column("doc_id").combine_chunks().take(
            pc.list_parent_indices(toks)
        )
        pt = pa.table({"token": flat, "doc_id": did}).filter(
            pc.not_equal(flat, "")
        )
        if pt.num_rows == 0:
            return empty
        g = pt.group_by(["token", "doc_id"]).aggregate([([], "count_all")])
        pid = (hash_key(g.column("token")) % np.uint64(P)).astype(np.int32)
        return pa.table({"token": g.column("token"),
                         "doc_id": g.column("doc_id").cast(pa.int64()),
                         "tf": g.column("count_all").cast(pa.int64()),
                         "pid": pa.array(pid)})

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    ds.map_batches(explode, batch_format="pyarrow").write_parquet(
        os.path.join(scratch, "postings"), partition_cols=["pid"]
    )

    # doclens: complete dl per doc via the doc-keyed exchange over the
    # freshly-written postings (dl = Σ tf — token-partitioned shards
    # each hold part of a doc, the exchange reunites them)
    post_ds = rd.read_parquet(os.path.join(scratch, "postings"),
                              columns=["doc_id", "tf"])

    def dl_kernel(pid_: int, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "dl": pa.array([], pa.int64())})
        g = t.group_by(["doc_id"]).aggregate([("tf", "sum")])
        return pa.table({"doc_id": g.column("doc_id"),
                         "dl": g.column("tf_sum").cast(pa.int64())})

    dl_refs = exchange_reduce([post_ds], ["doc_id"], dl_kernel, P=P)

    @ray.remote
    def write_dl(t: pa.Table, path: str) -> int:
        import os as _os

        import pyarrow.parquet as _pq

        _os.makedirs(_os.path.dirname(path), exist_ok=True)
        _pq.write_table(t, path)
        return int(t.column("dl").to_numpy().sum()) if t.num_rows else 0

    ls = ray.get([
        write_dl.remote(r, os.path.join(scratch, "doclens", f"pid={i}",
                                        "part-0.parquet"))
        for i, r in enumerate(dl_refs)
    ])
    meta = {"version": _TI_VERSION, "P": int(P),
            "n_docs": int(n_docs), "n_tokens": int(sum(ls))}
    with open(os.path.join(scratch, "meta.json"), "w") as f:
        json.dump(meta, f)
    return meta


def _ti_top_terms(index_dir: str, meta: dict, n_terms: int) -> pa.Table:
    """Global top-``n_terms`` document-frequency tokens off the index:
    each pid dir holds every posting of its tokens, so df and the
    top-n cut are pid-local (provable superset) — NO exchange."""
    import glob
    import os

    import ray

    @ray.remote
    def pid_top(paths: list, k: int) -> pa.Table:
        import pyarrow.parquet as _pq

        if not paths:
            return pa.table({"token": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        t = pa.concat_tables(
            [_pq.read_table(p, columns=["token"]) for p in paths]
        )
        vc = t.column("token").combine_chunks().value_counts()
        out = pa.table({"token": vc.field("values"),
                        "n": vc.field("counts").cast(pa.int64())})
        idx = pc.sort_indices(out, sort_keys=[("n", "descending"),
                                              ("token", "ascending")])
        return out.take(idx.slice(0, k))

    cands = pa.concat_tables(ray.get([
        pid_top.remote(paths, n_terms)
        for paths in _ti_pid_paths(index_dir, meta)
    ]))
    idx = pc.sort_indices(cands, sort_keys=[("n", "descending"),
                                            ("token", "ascending")])
    return cands.take(idx.slice(0, n_terms))


def _ti_term_posting_refs(index_dir: str, meta: dict, terms: list) -> list:
    """Posting refs for the query terms, reading ONLY the pid dirs the
    terms hash into — the pruning the physical layout buys."""
    import glob
    import os

    import ray

    from .exchange import hash_key

    pids = sorted(set(
        (hash_key(pa.array(terms, pa.string())) % np.uint64(meta["P"]))
        .astype(int).tolist()
    ))

    @ray.remote
    def read_pid(paths: list, terms_: list) -> pa.Table:
        import pyarrow.parquet as _pq

        empty = pa.table({"token": pa.array([], pa.string()),
                          "doc_id": pa.array([], pa.int64()),
                          "tf": pa.array([], pa.int64())})
        if not paths:
            return empty
        t = pa.concat_tables([
            _pq.read_table(p, columns=["token", "doc_id", "tf"])
            for p in paths
        ])
        return t.filter(pc.is_in(t.column("token"),
                                 value_set=pa.array(terms_, pa.string())))

    all_paths = _ti_pid_paths(index_dir, meta)
    return [read_pid.remote(all_paths[i], terms) for i in pids]


def _ti_doclen_refs(index_dir: str, meta: dict) -> list:
    import glob
    import os

    import ray

    @ray.remote
    def read_dl(paths: list) -> pa.Table:
        import pyarrow.parquet as _pq

        if not paths:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "dl": pa.array([], pa.int64())})
        return pa.concat_tables([_pq.read_table(p) for p in paths])

    return [read_dl.remote(paths)
            for paths in _ti_pid_paths(index_dir, meta, "doclens")]


def _keyword_search_indexed(
    index_dir: str, meta: dict, n_terms: int
) -> pa.Table:
    """keyword_search off the physical index: identical result to the
    exchange route (same df top-n tie order, same conjunctive test) —
    candidate generation touches only the query terms' pid dirs."""
    from .exchange import exchange_reduce, gather_concat

    sel = _ti_top_terms(index_dir, meta, n_terms)
    terms = sel.column("token").to_pylist()
    if not terms:
        return pa.table({"doc_id": pa.array([], pa.int64())})
    refs = _ti_term_posting_refs(index_dir, meta, terms)

    def conj_kernel(pid: int, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return pa.table({"doc_id": pa.array([], pa.int64())})
        m = t.group_by(["doc_id"]).aggregate([([], "count_all")])
        full = m.filter(pc.equal(m.column("count_all"), len(terms)))
        return pa.table({"doc_id": full.column("doc_id").cast(pa.int64())})

    hits = gather_concat(exchange_reduce([refs], ["doc_id"], conj_kernel))
    if hits.num_rows == 0:
        return pa.table({"doc_id": pa.array([], pa.int64())})
    return finalize(hits, [("doc_id", "ascending")])


def _bm25_search_indexed(
    index_dir: str, meta: dict, n_terms: int, k: int
) -> pa.Table:
    """bm25_search off the physical index: the identical exact-integer
    Okapi arithmetic (flooring per term before the sum), candidates from
    the query terms' pid dirs only, dl via the doc-keyed exchange with
    the doclens shards — bit-equal to the tokenize route."""
    from .exchange import exchange_reduce, gather_concat

    N, L = meta["n_docs"], meta["n_tokens"]
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "score_micro": pa.array([], pa.int64())})
    if L == 0:
        return empty
    sel = _ti_top_terms(index_dir, meta, n_terms)
    if sel.num_rows == 0:
        return empty
    df_by_term = dict(zip(sel.column("token").to_pylist(),
                          sel.column("n").to_pylist()))
    cand_refs = _ti_term_posting_refs(index_dir, meta, list(df_by_term))
    dl_refs = _ti_doclen_refs(index_dir, meta)

    def score_kernel(pid: int, ct: pa.Table, dt: pa.Table) -> pa.Table:
        if ct.num_rows == 0 or "doc_id" not in ct.column_names:
            return empty
        dld = dict(zip(dt.column("doc_id").to_numpy().tolist(),
                       dt.column("dl").to_numpy().tolist()))
        scores: dict[int, int] = {}
        for doc, w, tf in zip(ct.column("doc_id").to_numpy().tolist(),
                              ct.column("token").to_pylist(),
                              ct.column("tf").to_numpy().tolist()):
            dfq = df_by_term[w]
            a = (2 * N - 2 * dfq + 1) * 44 * L * tf * 1_000_000
            b = (2 * dfq + 1) * (20 * L * tf + 6 * L + 18 * dld[doc] * N)
            scores[doc] = scores.get(doc, 0) + a // b
        out = pa.table({
            "doc_id": pa.array(list(scores), pa.int64()),
            "score_micro": pa.array(list(scores.values()), pa.int64()),
        })
        idx = pc.sort_indices(out, sort_keys=[("score_micro", "descending"),
                                              ("doc_id", "ascending")])
        return out.take(idx.slice(0, k))

    cand = gather_concat(exchange_reduce(
        [cand_refs, dl_refs], ["doc_id", "doc_id"], score_kernel,
        P=meta["P"],
    ))
    if cand.num_rows == 0:
        return empty
    idx = pc.sort_indices(cand, sort_keys=[("score_micro", "descending"),
                                           ("doc_id", "ascending")])
    return cand.take(idx.slice(0, k)).combine_chunks()


def _top_tokens_indexed(index_dir: str, meta: dict, k: int) -> pa.Table:
    """top_tokens off the physical index: a token's postings are
    pid-complete, so the global occurrence count (Σ tf) and the top-k
    cut close per pid dir — no exchange, no tokenization."""
    import glob
    import os

    import ray

    @ray.remote
    def pid_top(paths: list, kk: int) -> pa.Table:
        import pyarrow.parquet as _pq

        if not paths:
            return pa.table({"token": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        t = pa.concat_tables(
            [_pq.read_table(p, columns=["token", "tf"]) for p in paths]
        )
        g = t.group_by(["token"]).aggregate([("tf", "sum")])
        out = pa.table({"token": g.column("token"),
                        "n": g.column("tf_sum").cast(pa.int64())})
        idx = pc.sort_indices(out, sort_keys=[("n", "descending"),
                                              ("token", "ascending")])
        return out.take(idx.slice(0, kk))

    cands = pa.concat_tables(ray.get([
        pid_top.remote(paths, k)
        for paths in _ti_pid_paths(index_dir, meta)
    ]))
    t = finalize(cands, [("n", "descending"), ("token", "ascending")])
    return t.slice(0, k).select(["token", "n"])


def _vocab_stats_indexed(index_dir: str, meta: dict) -> pa.Table:
    """vocab_stats off the physical index: each pid dir folds its own
    (occurrences, types, hapax) scalars — no exchange, no tokenization
    (hapax = total occurrences 1, identical to the tokenize route)."""
    import glob
    import os

    import ray

    @ray.remote
    def pid_census(paths: list) -> pa.Table:
        import pyarrow.parquet as _pq

        if not paths:
            return pa.table({"occ": pa.array([0], pa.int64()),
                             "types": pa.array([0], pa.int64()),
                             "hapax": pa.array([0], pa.int64())})
        t = pa.concat_tables(
            [_pq.read_table(p, columns=["token", "tf"]) for p in paths]
        )
        g = t.group_by(["token"]).aggregate([("tf", "sum")])
        n = g.column("tf_sum").to_numpy()
        return pa.table({"occ": pa.array([int(n.sum())], pa.int64()),
                         "types": pa.array([len(n)], pa.int64()),
                         "hapax": pa.array([int((n == 1).sum())], pa.int64())})

    parts = pa.concat_tables(ray.get([
        pid_census.remote(paths)
        for paths in _ti_pid_paths(index_dir, meta)
    ]))
    occ = int(pc.sum(parts.column("occ")).as_py() or 0)
    ty = int(pc.sum(parts.column("types")).as_py() or 0)
    hp = int(pc.sum(parts.column("hapax")).as_py() or 0)
    return pa.table({"n_tokens": pa.array([occ], pa.int64()),
                     "n_types": pa.array([ty], pa.int64()),
                     "n_hapax": pa.array([hp], pa.int64()),
                     "ttr_micro": pa.array(
                         [1_000_000 * ty // max(occ, 1)], pa.int64())})


# ---- token coverage curve (Zipf profile) ----------------------------------

_TC_KS = (10, 100, 1000)


def token_coverage(sf_dir: str, ks: tuple = _TC_KS) -> pa.Table:
    """What fraction of the corpus's token MASS the top-k types cover,
    for k in ``ks`` — the Zipf-curve health check that complements
    vocab_stats: natural text covers ~half its mass with a few hundred
    types; id-soup covers almost nothing, template spam covers
    everything with ten.

    value_counts partials → token-keyed exchange (each type's global
    count completes in one partition) → per-partition top-``max(ks)``
    cut (provable superset of every global top-k) plus ONE total-mass
    scalar per partition; the driver folds P×max(ks) candidate rows,
    never the vocabulary. Coverage is exact integer basis points."""
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    kmax = max(ks)

    def partial_counts(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "text" not in t.column_names:
            return pa.table({"token": pa.array([], pa.string()),
                             "n_part": pa.array([], pa.int64())})
        toks = pc.split_pattern_regex(t.column("text"), _TOKEN_SPLIT)
        flat = pc.list_flatten(toks)
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = flat.value_counts()
        return pa.table({"token": vc.field("values"),
                         "n_part": vc.field("counts").cast(pa.int64())})

    def cut_kernel(pid: int, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "token" not in t.column_names:
            return pa.table({"token": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64()),
                             "mass": pa.array([], pa.int64())})
        g = t.group_by(["token"]).aggregate([("n_part", "sum")])
        n = g.column("n_part_sum").to_numpy().astype(np.int64)
        out = pa.table({"token": g.column("token"), "n": pa.array(n),
                        "mass": pa.array(np.full(len(n), -1, np.int64))})
        idx = pc.sort_indices(out, sort_keys=[("n", "descending"),
                                              ("token", "ascending")])
        top = out.take(idx.slice(0, kmax))
        total = pa.table({"token": pa.array([""], pa.string()),
                          "n": pa.array([0], pa.int64()),
                          "mass": pa.array([int(n.sum())], pa.int64())})
        return pa.concat_tables([top, total])

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    parts = gather_concat(exchange_reduce(
        [ds.map_batches(partial_counts, batch_format="pyarrow")],
        ["token"], cut_kernel,
    ))
    empty = pa.table({"k": pa.array([], pa.int64()),
                      "mass_bp": pa.array([], pa.int64())})
    if parts.num_rows == 0:
        return empty
    mass = parts.column("mass").to_numpy()
    total = int(mass[mass >= 0].sum())
    if total == 0:
        return empty
    cand = parts.filter(pa.array(mass < 0))
    idx = pc.sort_indices(cand, sort_keys=[("n", "descending"),
                                           ("token", "ascending")])
    n_sorted = cand.take(idx).column("n").to_numpy()
    csum = np.cumsum(n_sorted)
    rows_k, rows_bp = [], []
    for k in sorted(ks):
        top_mass = int(csum[min(k, len(csum)) - 1]) if len(csum) else 0
        rows_k.append(k)
        rows_bp.append(10_000 * top_mass // total)
    return pa.table({"k": pa.array(rows_k, pa.int64()),
                     "mass_bp": pa.array(rows_bp, pa.int64())})


# ---- per-source duplicate pressure ----------------------------------------


def source_dup_rate(sf_dir: str) -> pa.Table:
    """Which source pumps duplicates: per source, total docs, docs that
    are exact duplicates of an earlier doc (the non-winners of
    dedup_exact's hash election, attributed to THEIR OWN source), and
    the dup rate in exact basis points — the curation dial that decides
    which feed gets throttled before dedup cost explodes.

    Reuses dedup_exact's 128-bit digest kernel verbatim; only (hash,
    doc_id, source) rows enter the hash-keyed exchange (bodies never
    shuffle), each partition elects winners per digest locally (a
    digest's rows co-locate) and folds its non-winners to per-source
    counts; the per-source totals are a fold_partials census over a
    source-only second read. Fixed source cardinality → O(P × sources)
    driver rows."""
    from ._util import fold_partials
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    empty = pa.table({"source": pa.array([], pa.string()),
                      "n_docs": pa.array([], pa.int64()),
                      "n_dups": pa.array([], pa.int64()),
                      "dup_bp": pa.array([], pa.int64())})

    def hash_with_source(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "text" not in t.column_names:
            return pa.table({"h": pa.array([], pa.binary(16)),
                             "doc_id": pa.array([], pa.int64()),
                             "source": pa.array([], pa.string())})
        part = _dedup_hash_batch(t)
        return part.append_column("source", t.column("source"))

    def dup_kernel(pid: int, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "h" not in t.column_names:
            return pa.table({"source": pa.array([], pa.string()),
                             "n_part": pa.array([], pa.int64())})
        h = t.column("h").to_numpy(zero_copy_only=False)
        did = t.column("doc_id").to_numpy()
        order = np.lexsort((did, h))
        h_s = h[order]
        first = np.r_[True, h_s[1:] != h_s[:-1]]
        dup_idx = np.asarray(order)[~first]
        if not len(dup_idx):
            return pa.table({"source": pa.array([], pa.string()),
                             "n_part": pa.array([], pa.int64())})
        g = (t.take(pa.array(dup_idx)).group_by(["source"])
             .aggregate([([], "count_all")]))
        return pa.table({"source": g.column("source"),
                         "n_part": g.column("count_all").cast(pa.int64())})

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "source"])
    dup_parts = gather_concat(exchange_reduce(
        [ds.map_batches(hash_with_source, batch_format="pyarrow")],
        ["h"], dup_kernel,
    ))

    def src_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "source" not in t.column_names:
            return pa.table({"source": pa.array([], pa.string()),
                             "n_part": pa.array([], pa.int64())})
        g = t.group_by(["source"]).aggregate([([], "count_all")])
        return pa.table({"source": g.column("source"),
                         "n_part": g.column("count_all").cast(pa.int64())})

    totals = fold_partials(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["source"]
                        ).map_batches(src_partial, batch_format="pyarrow"),
        ["source"], [("n_part", "sum")], ["source", "n_docs"],
    )
    if totals.num_columns == 0 or totals.num_rows == 0:
        return empty
    if dup_parts.num_rows:
        dg = (dup_parts.group_by(["source"]).aggregate([("n_part", "sum")])
              .rename_columns(["source", "n_dups"]))
        j = totals.join(dg, keys=["source"], join_type="left outer")
        nd = j.column("n_dups").fill_null(0).to_numpy().astype(np.int64)
    else:
        j = totals
        nd = np.zeros(totals.num_rows, dtype=np.int64)
    n = j.column("n_docs").to_numpy().astype(np.int64)
    out = pa.table({"source": j.column("source"),
                    "n_docs": pa.array(n),
                    "n_dups": pa.array(nd),
                    "dup_bp": pa.array(10_000 * nd // np.maximum(n, 1))})
    return finalize(out, [("source", "ascending")])


def dup_flow_matrix(sf_dir: str) -> pa.Table:
    """Provenance flow of exact duplicates: (winner's source → dup's
    source) counts — which feed COPIES FROM which (a syndication map;
    the off-diagonal mass is cross-feed plagiarism, the diagonal is
    within-feed re-posting). Same hash election as
    :func:`source_dup_rate`, but each partition emits the winner×dup
    source pair census — sources² is a fixed tiny cardinality, so the
    driver folds O(P × sources²) rows."""
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    empty = pa.table({"winner_source": pa.array([], pa.string()),
                      "dup_source": pa.array([], pa.string()),
                      "n_dups": pa.array([], pa.int64())})

    def hash_with_source(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "text" not in t.column_names:
            return pa.table({"h": pa.array([], pa.binary(16)),
                             "doc_id": pa.array([], pa.int64()),
                             "source": pa.array([], pa.string())})
        return _dedup_hash_batch(t).append_column("source",
                                                  t.column("source"))

    def flow_kernel(pid: int, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "h" not in t.column_names:
            return empty
        h = t.column("h").to_numpy(zero_copy_only=False)
        did = t.column("doc_id").to_numpy()
        src = t.column("source").to_numpy(zero_copy_only=False)
        order = np.lexsort((did, h))
        h_s, src_s = h[order], src[order]
        first = np.r_[True, h_s[1:] != h_s[:-1]]
        # winner source broadcast down each digest group
        grp = np.cumsum(first) - 1
        win_src = src_s[np.flatnonzero(first)][grp]
        dup = ~first
        if not dup.any():
            return empty
        g = pa.table({"winner_source": pa.array(win_src[dup]),
                      "dup_source": pa.array(src_s[dup])}
                     ).group_by(["winner_source", "dup_source"]).aggregate(
                         [([], "count_all")])
        return pa.table({"winner_source": g.column("winner_source"),
                         "dup_source": g.column("dup_source"),
                         "n_dups": g.column("count_all").cast(pa.int64())})

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "source"])
    parts = gather_concat(exchange_reduce(
        [ds.map_batches(hash_with_source, batch_format="pyarrow")],
        ["h"], flow_kernel,
    ))
    if parts.num_rows == 0:
        return empty
    g = parts.group_by(["winner_source", "dup_source"]).aggregate(
        [("n_dups", "sum")])
    out = pa.table({"winner_source": g.column("winner_source"),
                    "dup_source": g.column("dup_source"),
                    "n_dups": g.column("n_dups_sum").cast(pa.int64())})
    return finalize(out, [("winner_source", "ascending"),
                          ("dup_source", "ascending")])


def lang_source_chi2(sf_dir: str) -> pa.Table:
    """Chi-squared independence cells for the lang x source
    contingency table — the data-drift / composition-shift test in
    exact integer arithmetic.

    Cells are a fixed tiny cardinality (langs x sources), so per-batch
    combine + driver fold (no shuffle). Each cell closes expected count
    and chi2 contribution with a STEPWISE floor on unbounded ints:
    d = |O*total - row*col|;
    contrib_milli = ((1000*d // (row*col)) * d) // total — every
    intermediate stays well under 128 bits at any scale (d² alone would
    overflow HUGEINT near 10^10 docs), and the HUGEINT twin floors
    identically so the result is bit-equal."""
    from ._util import fold_partials

    rd = _rd()
    empty = pa.table({"lang": pa.array([], pa.string()),
                      "source": pa.array([], pa.string()),
                      "n": pa.array([], pa.int64()),
                      "expected_milli": pa.array([], pa.int64()),
                      "chi2_contrib_milli": pa.array([], pa.int64())})

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(["lang", "source"]).aggregate([([], "count_all")])
        return g.rename_columns(["lang", "source", "n_part"])

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["lang", "source"])
    t = fold_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["lang", "source"], [("n_part", "sum")], ["lang", "source", "n"],
    )
    if t.num_columns == 0 or t.num_rows == 0:
        return empty
    df = t.to_pandas()
    total = int(df["n"].sum())
    row = df.groupby("lang")["n"].sum().to_dict()
    col = df.groupby("source")["n"].sum().to_dict()
    exp, chi = [], []
    for lang, source, n in zip(df["lang"], df["source"], df["n"]):
        r, c = int(row[lang]), int(col[source])
        n = int(n)
        exp.append(1000 * r * c // total)
        d = abs(n * total - r * c)
        chi.append(((1000 * d // (r * c)) * d) // total)
    out = pa.table({"lang": pa.array(df["lang"], pa.string()),
                    "source": pa.array(df["source"], pa.string()),
                    "n": pa.array(df["n"].to_numpy(), pa.int64()),
                    "expected_milli": pa.array(exp, pa.int64()),
                    "chi2_contrib_milli": pa.array(chi, pa.int64())})
    return finalize(out, [("lang", "ascending"), ("source", "ascending")])


def source_overlap_jaccard(sf_dir: str) -> pa.Table:
    """Pairwise token-vocabulary Jaccard between sources — the
    distributed SET-ALGEBRA shape (corpus overlap / contamination
    census between feeds).

    No source's vocabulary is ever gathered: batches emit distinct
    (token, source) pairs; the token-keyed exchange completes each
    token's source SET in one partition, where it collapses to a ≤2^S
    bitmask histogram (S = #sources, fixed small); the driver folds
    P×2^S ints and closes every pairwise |A∩B| / |A∪B| exactly."""
    from .exchange import exchange_reduce
    from ._util import fold_partials

    import ray

    rd = _rd()
    empty = pa.table({"source_a": pa.array([], pa.string()),
                      "source_b": pa.array([], pa.string()),
                      "n_inter": pa.array([], pa.int64()),
                      "n_union": pa.array([], pa.int64()),
                      "jaccard_bp": pa.array([], pa.int64())})

    def pair_partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(t.column("text"), _TOKEN_SPLIT)
        n = pc.list_value_length(toks).to_numpy().astype(np.int64)
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        src = pa.array(np.repeat(
            t.column("source").to_numpy(zero_copy_only=False), n))
        keep = pc.not_equal(flat, "")
        p = pa.table({"token": flat.filter(keep), "source": src.filter(keep)})
        return p.group_by(["token", "source"]).aggregate([]).rename_columns(
            ["token", "source"])

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["text", "source"])
    pairs = ds.map_batches(pair_partial, batch_format="pyarrow")

    # fixed small source alphabet: discover it with a fold, then the
    # mask kernel closes per-token sets against the pinned order
    srcs_t = fold_partials(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["source"]
                        ).map_batches(
            lambda t: pa.table({"source": t.column("source").combine_chunks().unique()}),
            batch_format="pyarrow"),
        ["source"], [([], "count_all")], ["source", "_n"])
    if srcs_t.num_columns == 0 or srcs_t.num_rows == 0:
        return empty
    srcs = sorted(srcs_t.column("source").to_pylist())
    sidx = {s: i for i, s in enumerate(srcs)}

    def mask_kernel(pid: int, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "token" not in t.column_names:
            return pa.table({"mask": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        d = t.group_by(["token", "source"]).aggregate([])
        tok = d.column("token").to_numpy(zero_copy_only=False)
        src = d.column("source").to_numpy(zero_copy_only=False)
        bits = np.array([1 << sidx[s] for s in srcs])[
            np.searchsorted(srcs, src)]
        order = np.argsort(tok, kind="stable")
        tok, bits = tok[order], bits[order]
        starts = np.flatnonzero(np.r_[True, tok[1:] != tok[:-1]])
        masks = np.bitwise_or.reduceat(bits, starts)
        u, c = np.unique(masks, return_counts=True)
        return pa.table({"mask": pa.array(u.astype(np.int64)),
                         "n": pa.array(c.astype(np.int64))})

    hist_tabs = ray.get(exchange_reduce([pairs], ["token"], mask_kernel))
    live = [t for t in hist_tabs if t.num_rows]
    if not live:
        return empty
    h = (pa.concat_tables(live).group_by(["mask"]).aggregate([("n", "sum")])
         .rename_columns(["mask", "n"]))
    masks = h.column("mask").to_numpy()
    counts = h.column("n").to_numpy()
    rows = []
    for i in range(len(srcs)):
        for j in range(i + 1, len(srcs)):
            a, b = 1 << i, 1 << j
            inter = int(counts[(masks & a > 0) & (masks & b > 0)].sum())
            na = int(counts[masks & a > 0].sum())
            nb = int(counts[masks & b > 0].sum())
            union = na + nb - inter
            rows.append((srcs[i], srcs[j], inter, union,
                         10_000 * inter // max(union, 1)))
    t = pa.table({"source_a": pa.array([r[0] for r in rows], pa.string()),
                  "source_b": pa.array([r[1] for r in rows], pa.string()),
                  "n_inter": pa.array([r[2] for r in rows], pa.int64()),
                  "n_union": pa.array([r[3] for r in rows], pa.int64()),
                  "jaccard_bp": pa.array([r[4] for r in rows], pa.int64())})
    return finalize(t, [("source_a", "ascending"), ("source_b", "ascending")])


def normalized_dedup(sf_dir: str) -> pa.Table:
    """Exact dedup under TEXT NORMALIZATION (lowercase, whitespace runs
    collapsed, trimmed) — catches reformatting-only copies that byte
    dedup misses, the first normalization rung of a near-dup ladder.

    Same scale contract as dedup_exact: normalization + 128-bit digest
    happen per batch, only (digest, min doc_id, count) partials enter
    the keyed exchange — normalized bodies never shuffle. Output: one
    row per distinct normalized content (winner doc_id, copy count)."""
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()

    def norm_hash(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"h": pa.array([], pa.binary(16)),
                             "doc_id": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        txt = t.column("text")
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        norm = pc.utf8_trim(
            pc.replace_substring_regex(pc.utf8_lower(txt), r"\s+", " "), " ")
        ht = _dedup_hash_batch(
            pa.table({"text": norm, "doc_id": t.column("doc_id")}))
        g = ht.group_by(["h"]).aggregate([("doc_id", "min"), ([], "count_all")])
        return g.rename_columns(["h", "doc_id", "n"])

    def winner_kernel(pid: int, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "h" not in t.column_names:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_copies": pa.array([], pa.int64())})
        g = t.group_by(["h"]).aggregate([("doc_id", "min"), ("n", "sum")])
        return pa.table({"doc_id": g.column("doc_id_min").cast(pa.int64()),
                         "n_copies": g.column("n_sum").cast(pa.int64())})

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    out = gather_concat(exchange_reduce(
        [ds.map_batches(norm_hash, batch_format="pyarrow")],
        ["h"], winner_kernel))
    if out.num_rows == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "n_copies": pa.array([], pa.int64())})
    return finalize(out, [("doc_id", "ascending")])


def source_quality_matrix(sf_dir: str) -> pa.Table:
    """Quality pass-rate per source — the feed-health dashboard that
    decides which source gets throttled or re-crawled: the N9 quality
    kernel reused verbatim per batch, folded to (source, docs, passes)
    partials — fixed-cardinality, no shuffle, exact basis points."""
    from ._util import fold_partials

    rd = _rd()
    empty = pa.table({"source": pa.array([], pa.string()),
                      "n_docs": pa.array([], pa.int64()),
                      "n_pass": pa.array([], pa.int64()),
                      "pass_bp": pa.array([], pa.int64())})

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"source": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64()),
                             "ok": pa.array([], pa.int64())})
        q = _quality_batch(t)
        ok = q.column("quality_ok").to_numpy(zero_copy_only=False)
        g = pa.table({"source": t.column("source"),
                      "n": pa.array(np.ones(t.num_rows, np.int64)),
                      "ok": pa.array(ok.astype(np.int64))}
                     ).group_by(["source"]).aggregate(
            [("n", "sum"), ("ok", "sum")])
        return g.rename_columns(["source", "n", "ok"])

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "source"])
    t = fold_partials(ds.map_batches(partial, batch_format="pyarrow"),
                      ["source"], [("n", "sum"), ("ok", "sum")],
                      ["source", "n_docs", "n_pass"])
    if t.num_columns == 0 or t.num_rows == 0:
        return empty
    n = t.column("n_docs").to_numpy()
    ok = t.column("n_pass").to_numpy()
    out = pa.table({"source": t.column("source"),
                    "n_docs": pa.array(n.astype(np.int64)),
                    "n_pass": pa.array(ok.astype(np.int64)),
                    "pass_bp": pa.array(10_000 * ok // np.maximum(n, 1),
                                        pa.int64())})
    return finalize(out, [("source", "ascending")])


def cross_lang_dup_rate(sf_dir: str) -> pa.Table:
    """Exact duplicates CROSSING language labels — the lang-router
    mislabel detector (byte-identical text tagged with two different
    langs is a labeling bug, not translation): dup_flow_matrix's hash
    election with the lang column riding along; each partition emits
    the winner-lang × dup-lang census (langs² fixed tiny)."""
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    empty = pa.table({"winner_lang": pa.array([], pa.string()),
                      "dup_lang": pa.array([], pa.string()),
                      "n_dups": pa.array([], pa.int64())})

    def hash_with_lang(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "text" not in t.column_names:
            return pa.table({"h": pa.array([], pa.binary(16)),
                             "doc_id": pa.array([], pa.int64()),
                             "lang": pa.array([], pa.string())})
        return _dedup_hash_batch(t).append_column("lang", t.column("lang"))

    def flow_kernel(pid: int, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "h" not in t.column_names:
            return empty
        h = t.column("h").to_numpy(zero_copy_only=False)
        did = t.column("doc_id").to_numpy()
        lg = t.column("lang").to_numpy(zero_copy_only=False)
        order = np.lexsort((did, h))
        h_s, lg_s = h[order], lg[order]
        first = np.r_[True, h_s[1:] != h_s[:-1]]
        grp = np.cumsum(first) - 1
        win = lg_s[np.flatnonzero(first)][grp]
        dup = ~first
        if not dup.any():
            return empty
        g = pa.table({"winner_lang": pa.array(win[dup]),
                      "dup_lang": pa.array(lg_s[dup])}
                     ).group_by(["winner_lang", "dup_lang"]).aggregate(
                         [([], "count_all")])
        return pa.table({"winner_lang": g.column("winner_lang"),
                         "dup_lang": g.column("dup_lang"),
                         "n_dups": g.column("count_all").cast(pa.int64())})

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "lang"])
    parts = gather_concat(exchange_reduce(
        [ds.map_batches(hash_with_lang, batch_format="pyarrow")],
        ["h"], flow_kernel,
    ))
    if parts.num_rows == 0:
        return empty
    g = parts.group_by(["winner_lang", "dup_lang"]).aggregate(
        [("n_dups", "sum")])
    out = pa.table({"winner_lang": g.column("winner_lang"),
                    "dup_lang": g.column("dup_lang"),
                    "n_dups": g.column("n_dups_sum").cast(pa.int64())})
    return finalize(out, [("winner_lang", "ascending"),
                          ("dup_lang", "ascending")])


_RRF_K0 = 60  # the standard RRF damping constant
_RRF_TOPK = 10


def rrf_hybrid_search(sf_dir: str, k: int = _RRF_TOPK) -> pa.Table:
    """Reciprocal-rank-fusion hybrid retrieval — the standard way a
    RAG / search pipeline combines a lexical and a semantic ranker
    without score calibration: fuse :func:`bm25_search`'s top-20 (the
    corpus-derived hot-term query) with ``knn_cosine``'s top-20 (probe
    vec_id=0; doc_id == vec_id in this corpus) by EXACT integer
    reciprocal-rank weights ``10^9 // (RRF_K0 + rank)`` summed per doc,
    final order (rrf_micro desc, doc_id asc), top-``k``.

    Scale shape: both legs are already distributed top-k streams
    (bm25's two task waves, knn's broadcast matmul); the fusion is
    O(leg sizes) driver math over <= 40 rows. Twin: both leg twins
    compose as subqueries + the same integer weights."""
    from ..pipelines.similarity import knn_cosine

    b = bm25_search(sf_dir)  # already (score desc, doc_id asc) ordered
    v = knn_cosine(sf_dir, query_vec_id=0, k=20)
    scores: dict[int, int] = {}
    for r, d in enumerate(b.column("doc_id").to_pylist(), start=1):
        scores[d] = scores.get(d, 0) + 1_000_000_000 // (_RRF_K0 + r)
    for r, d in zip(v.column("rnk").to_pylist(),
                    v.column("vec_id").to_pylist()):
        scores[d] = scores.get(d, 0) + 1_000_000_000 // (_RRF_K0 + r)
    if not scores:
        return pa.table({"rnk": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64()),
                         "rrf_micro": pa.array([], pa.int64())})
    order = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    return pa.table({
        "rnk": pa.array(range(1, len(order) + 1), pa.int64()),
        "doc_id": pa.array([d for d, _ in order], pa.int64()),
        "rrf_micro": pa.array([s for _, s in order], pa.int64()),
    })


def pii_census(sf_dir: str) -> pa.Table:
    """Per-(source, rule) PII exposure census — the compliance dashboard
    behind :func:`redact_text`: for each feed and each rule in the fixed
    pack (URLs, emails, long digit runs), how many documents hit and how
    many total matches a redaction pass would rewrite. One vectorized
    RE2 count pass per rule per batch folding a fixed-cardinality
    (source x rule) partial — zero shuffle, bodies never leave the
    block."""
    from ._util import fold_partials

    rd = _rd()
    empty = pa.table({"source": pa.array([], pa.string()),
                      "rule": pa.array([], pa.string()),
                      "n_docs": pa.array([], pa.int64()),
                      "n_matches": pa.array([], pa.int64())})

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "text" not in t.column_names:
            return empty
        txt = t.column("text")
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        outs = []
        for rule, pat in _CONTENT_RULES:
            c = pc.count_substring_regex(txt, pat).cast(pa.int64())
            g = pa.table({
                "source": t.column("source"),
                "rule": pa.array([rule] * t.num_rows, pa.string()),
                "n_docs": pc.greater(c, 0).cast(pa.int64()),
                "n_matches": c,
            }).group_by(["source", "rule"]).aggregate(
                [("n_docs", "sum"), ("n_matches", "sum")]
            )
            outs.append(g.rename_columns(
                ["source", "rule", "n_docs", "n_matches"]))
        return pa.concat_tables(outs)

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["source", "text"])
    t = fold_partials(ds.map_batches(partial, batch_format="pyarrow"),
                      ["source", "rule"],
                      [("n_docs", "sum"), ("n_matches", "sum")],
                      ["source", "rule", "n_docs", "n_matches"])
    if t.num_columns == 0 or t.num_rows == 0:
        return empty
    return finalize(t, [("source", "ascending"), ("rule", "ascending")])


def source_tv_distance(sf_dir: str) -> pa.Table:
    """Pairwise total-variation distance between source unigram
    distributions — the drift/contamination monitor between feeds
    (TV = ½ Σ_w |p_a(w) − p_b(w)|), computed EXACTLY in integers by
    cross-multiplication: ``tv_micro = 10⁶·Σ_w |c_a(w)·N_b − c_b(w)·N_a|
    // (2·N_a·N_b)`` so the distributed fold is order-independent and
    the HUGEINT twin is bit-equal.

    Shape: batches emit (token, source, n) count partials; the
    token-keyed exchange completes each token's per-source counts in
    one partition, which folds the |cross-product| sum for every source
    pair (sources² fixed small); the driver sums P × pairs ints and
    closes the division once. Per-source totals N_s come from one tiny
    fixed-cardinality fold before the exchange. A 100-TB run would
    carry the partial sums as big ints (they are bounded by
    2·N_a·N_b) — at these corpus sizes int64 holds with headroom."""
    from functools import partial as fpartial

    from ._util import fold_partials
    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    empty = pa.table({"source_a": pa.array([], pa.string()),
                      "source_b": pa.array([], pa.string()),
                      "tv_micro": pa.array([], pa.int64())})

    def count_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "text" not in t.column_names:
            return pa.table({"token": pa.array([], pa.string()),
                             "source": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        toks = pc.split_pattern_regex(t.column("text"), _TOKEN_SPLIT)
        ln = pc.list_value_length(toks).to_numpy().astype(np.int64)
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        src = pa.array(np.repeat(
            t.column("source").to_numpy(zero_copy_only=False), ln))
        keep = pc.not_equal(flat, "")
        p = pa.table({"token": flat.filter(keep), "source": src.filter(keep)})
        g = p.group_by(["token", "source"]).aggregate([([], "count_all")])
        return pa.table({"token": g.column("token"),
                         "source": g.column("source"),
                         "n": g.column("count_all").cast(pa.int64())})

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["text", "source"])
    cnt_ds = ds.map_batches(count_partial, batch_format="pyarrow")
    cnt_refs = arrow_refs(cnt_ds)

    # per-source token totals: fixed-cardinality fold over the partials
    import ray

    @ray.remote
    def totals_of(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"source": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        g = t.group_by(["source"]).aggregate([("n", "sum")])
        return g.rename_columns(["source", "n"])

    tot_tabs = [t for t in ray.get([totals_of.remote(r) for r in cnt_refs])
                if t.num_rows]
    if not tot_tabs:
        return empty
    tot = (pa.concat_tables(tot_tabs).group_by(["source"])
           .aggregate([("n", "sum")]).rename_columns(["source", "n"]))
    srcs = sorted(tot.column("source").to_pylist())
    totals = dict(zip(tot.column("source").to_pylist(),
                      tot.column("n").to_pylist()))
    ns = np.array([totals[s] for s in srcs], np.int64)
    sidx = {s: i for i, s in enumerate(srcs)}

    def tv_kernel(pid: int, t: pa.Table) -> pa.Table:
        ecols = {"ai": pa.array([], pa.int64()),
                 "bi": pa.array([], pa.int64()),
                 "s": pa.array([], pa.int64())}
        if t.num_rows == 0 or "token" not in t.column_names:
            return pa.table(ecols)
        g = t.group_by(["token", "source"]).aggregate([("n", "sum")])
        tok = g.column("token").to_numpy(zero_copy_only=False)
        src = g.column("source").to_numpy(zero_copy_only=False)
        n = g.column("n_sum").to_numpy().astype(np.int64)
        order = np.argsort(tok, kind="stable")
        tok, src, n = tok[order], src[order], n[order]
        row = np.cumsum(np.r_[False, tok[1:] != tok[:-1]])
        col = np.array([sidx[s] for s in src])
        m = np.zeros((int(row[-1]) + 1 if len(row) else 0, len(srcs)),
                     np.int64)
        m[row, col] = n
        rows = []
        for a in range(len(srcs)):
            for b in range(a + 1, len(srcs)):
                s = int(np.abs(m[:, a] * ns[b] - m[:, b] * ns[a]).sum())
                rows.append((a, b, s))
        return pa.table({
            "ai": pa.array([r[0] for r in rows], pa.int64()),
            "bi": pa.array([r[1] for r in rows], pa.int64()),
            "s": pa.array([r[2] for r in rows], pa.int64()),
        })

    parts = gather_concat(
        exchange_reduce([cnt_refs], ["token"], tv_kernel)
    )
    if parts.num_rows == 0:
        return empty
    g = parts.group_by(["ai", "bi"]).aggregate([("s", "sum")])
    rows = []
    for a, b, s in zip(g.column("ai").to_pylist(), g.column("bi").to_pylist(),
                       g.column("s_sum").to_pylist()):
        na, nb = int(ns[a]), int(ns[b])
        rows.append((srcs[a], srcs[b],
                     (1_000_000 * int(s)) // (2 * na * nb)))
    rows.sort()
    return pa.table({
        "source_a": pa.array([r[0] for r in rows], pa.string()),
        "source_b": pa.array([r[1] for r in rows], pa.string()),
        "tv_micro": pa.array([r[2] for r in rows], pa.int64()),
    })


def token_fertility(sf_dir: str) -> pa.Table:
    """Tokenizer fertility per language — BPE-ish subword tokens per
    whitespace word in exact basis points (the cost model for context
    budgets: a lang with fertility 2.5 eats 2.5x the context per word).
    One vectorized regex pass per batch folding a fixed-cardinality
    (lang, bpe, words) partial; zero shuffle, exact integer close."""
    from ._util import fold_partials

    rd = _rd()
    empty = pa.table({"lang": pa.array([], pa.string()),
                      "n_bpe_tokens": pa.array([], pa.int64()),
                      "n_words": pa.array([], pa.int64()),
                      "fertility_bp": pa.array([], pa.int64())})

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "text" not in t.column_names:
            return pa.table({"lang": pa.array([], pa.string()),
                             "bpe": pa.array([], pa.int64()),
                             "w": pa.array([], pa.int64())})
        low = pc.utf8_lower(t.column("text"))
        bpe = pc.add(
            pc.add(pc.count_substring_regex(low, _BPE_ALPHA),
                   pc.count_substring_regex(low, _BPE_NUM)),
            pc.count_substring_regex(low, _BPE_OTHER),
        ).cast(pa.int64())
        words = pc.count_substring_regex(low, r"\S+").cast(pa.int64())
        g = pa.table({"lang": t.column("lang"), "bpe": bpe, "w": words}
                     ).group_by(["lang"]).aggregate(
            [("bpe", "sum"), ("w", "sum")])
        return g.rename_columns(["lang", "bpe", "w"])

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["lang", "text"])
    t = fold_partials(ds.map_batches(partial, batch_format="pyarrow"),
                      ["lang"], [("bpe", "sum"), ("w", "sum")],
                      ["lang", "bpe", "w"])
    if t.num_columns == 0 or t.num_rows == 0:
        return empty
    bpe = t.column("bpe").to_numpy()
    w = t.column("w").to_numpy()
    out = pa.table({
        "lang": t.column("lang"),
        "n_bpe_tokens": pa.array(bpe.astype(np.int64)),
        "n_words": pa.array(w.astype(np.int64)),
        "fertility_bp": pa.array(
            10_000 * bpe // np.maximum(w, 1), pa.int64()),
    })
    return finalize(out, [("lang", "ascending")])


_TREND_MIN_COUNT = 5
_TREND_TOPK = 20


def _burst_bp(cr: np.ndarray, ct: np.ndarray, nr: int, nt: int) -> np.ndarray:
    """``10^4 * cr * nt // (ct * nr)`` per token, in exact Python ints
    like the twin's HUGEINT: the int64 numerator wraps past 2^63 at
    ~10^9 corpus tokens. The quotient is at most ``10^4 * nt / nr``."""
    return np.array([(10_000 * r * nt) // (c * nr)
                     for r, c in zip(cr.tolist(), ct.tolist())], np.int64)


def trending_tokens(sf_dir: str) -> pa.Table:
    """Burst leaderboard: tokens over-represented in the RECENT corpus
    slice (top 20% of doc_ids, the data-derived ingest frontier) vs
    overall — the drift/trending monitor a feed operator reads. Burst
    is the exact cross-multiplied rate ratio
    ``burst_bp = 10⁴·c_recent·N_total // (c_total·N_recent)`` with a
    ``c_total >= 5`` noise floor.

    Shape: batches emit (token, c_recent, c_total) partials; the
    token-keyed exchange completes each token's pair in one partition,
    which scores and cuts a LOCAL top-20 (the score is per-token
    monotone, so the local cut is a provable superset of the global
    one); the driver folds P × 20 champions. Corpus totals (N_r, N_t)
    broadcast from one tiny fold."""
    import ray

    from .exchange import exchange_reduce, gather_concat

    rd = _rd()
    empty = pa.table({"token": pa.array([], pa.string()),
                      "n_total": pa.array([], pa.int64()),
                      "n_recent": pa.array([], pa.int64()),
                      "burst_bp": pa.array([], pa.int64())})

    # one tiny fold: max doc_id -> the deterministic recent cutoff
    @ray.remote
    def max_id(t: pa.Table):
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return None
        return int(t.column("doc_id").to_numpy().max())

    base = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    base_refs = arrow_refs(base)
    ids = [m for m in ray.get([max_id.remote(r) for r in base_refs])
           if m is not None]
    if not ids:
        return empty
    cutoff = (max(ids) + 1) * 4 // 5

    @ray.remote
    def count_partial(t: pa.Table) -> pa.Table:
        e = pa.table({"token": pa.array([], pa.string()),
                      "cr": pa.array([], pa.int64()),
                      "ct": pa.array([], pa.int64())})
        if t.num_rows == 0 or "text" not in t.column_names:
            return e
        low = pc.utf8_lower(t.column("text"))
        toks = pc.split_pattern_regex(low, _TOKEN_SPLIT)
        ln = pc.list_value_length(toks).to_numpy().astype(np.int64)
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        recent = pa.array(np.repeat(
            t.column("doc_id").to_numpy() >= cutoff, ln).astype(np.int64))
        keep = pc.not_equal(flat, "")
        p = pa.table({"token": flat.filter(keep),
                      "r": recent.filter(keep)})
        g = p.group_by(["token"]).aggregate(
            [("r", "sum"), ([], "count_all")])
        return pa.table({"token": g.column("token"),
                         "cr": g.column("r_sum").cast(pa.int64()),
                         "ct": g.column("count_all").cast(pa.int64())})

    cnt_refs = [count_partial.remote(r) for r in base_refs]

    @ray.remote
    def totals_of(t: pa.Table):
        if t.num_rows == 0:
            return (0, 0)
        return (int(pc.sum(t.column("cr")).as_py() or 0),
                int(pc.sum(t.column("ct")).as_py() or 0))

    tots = ray.get([totals_of.remote(r) for r in cnt_refs])
    nr = sum(a for a, _ in tots)
    nt = sum(b for _, b in tots)
    if nr == 0 or nt == 0:
        return empty

    def champion(pid: int, t: pa.Table) -> pa.Table:
        e = pa.table({"token": pa.array([], pa.string()),
                      "n_total": pa.array([], pa.int64()),
                      "n_recent": pa.array([], pa.int64()),
                      "burst_bp": pa.array([], pa.int64())})
        if t.num_rows == 0 or "token" not in t.column_names:
            return e
        g = t.group_by(["token"]).aggregate([("cr", "sum"), ("ct", "sum")])
        cr = g.column("cr_sum").to_numpy().astype(np.int64)
        ct = g.column("ct_sum").to_numpy().astype(np.int64)
        keep = ct >= _TREND_MIN_COUNT
        if not keep.any():
            return e
        tok = g.column("token").to_numpy(zero_copy_only=False)[keep]
        cr, ct = cr[keep], ct[keep]
        burst = _burst_bp(cr, ct, nr, nt)
        order = np.lexsort((tok, -burst))[:_TREND_TOPK]
        return pa.table({
            "token": pa.array(tok[order], pa.string()),
            "n_total": pa.array(ct[order], pa.int64()),
            "n_recent": pa.array(cr[order], pa.int64()),
            "burst_bp": pa.array(burst[order], pa.int64()),
        })

    allc = gather_concat(exchange_reduce([cnt_refs], ["token"], champion))
    if allc.num_rows == 0:
        return empty
    tok = allc.column("token").to_numpy(zero_copy_only=False)
    burst = allc.column("burst_bp").to_numpy()
    order = np.lexsort((tok, -burst))[:_TREND_TOPK]
    return allc.take(pa.array(order)).combine_chunks()
