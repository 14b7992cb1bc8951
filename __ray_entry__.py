"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in the library) calls ``ray.init()`` / ``ray.shutdown()``.

``queries()`` exposes one callable per implemented pipeline from
SURVEY.md §2; ``oracle_sql()`` gives the DuckDB-equivalent SQL over the
pre-registered views. Column names/types match between the two on purpose
(the driver value-hashes after sorting columns by name).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

# SQL twin of image_report_ray.sources.wal.events_to_changelog — every
# expression is integer/string arithmetic so Ray and DuckDB agree exactly.
CHANGELOG_CTE = """
WITH ch AS (
    SELECT
        event_id AS lsn,
        CASE WHEN (event_id * 7919) % 10 < 6 THEN 'I'
             WHEN (event_id * 7919) % 10 < 9 THEN 'U'
             ELSE 'D' END AS op,
        'c' || CAST(user_id AS VARCHAR) AS conv_id,
        CAST(event_id % 8 AS INTEGER) AS turn_idx,
        CASE CAST(event_id % 4 AS INTEGER)
             WHEN 0 THEN 'user' WHEN 1 THEN 'assistant'
             WHEN 2 THEN 'assistant' ELSE 'tool' END AS role,
        props AS text,
        CASE WHEN CAST(event_id % 4 AS INTEGER) = 3 THEN event_type END AS tool,
        ts
    FROM events
)
"""

# Winnowing twin (image_report_ray.pipelines.text:winnow_fingerprints_kernel):
# k=8 byte grams, base 1000003, window 4. The nested-Horner expression
# keeps every intermediate < 2^64 * base, inside HUGEINT range.
_FP_B = 1000003
_FP_M = 1 << 64
_FP_HASH = "CAST(ascii(text[i]) AS HUGEINT)"
for _j in range(1, 8):
    _FP_HASH = f"(({_FP_HASH} * {_FP_B} + ascii(text[i+{_j}])) % {_FP_M})"
_FP_SQL = f"""
WITH g AS (
  SELECT doc_id,
         CASE WHEN length(text) >= 8
              THEN list_transform(range(1, length(text) - 6), i -> {_FP_HASH})
              ELSE [] END AS h
  FROM documents
),
w AS (
  SELECT doc_id,
         CASE WHEN len(h) = 0 THEN []
              WHEN len(h) <= 4 THEN [list_min(h)]
              ELSE list_distinct(list_transform(range(1, len(h) - 2),
                   j -> least(h[j], h[j+1], h[j+2], h[j+3])))
         END AS fps
  FROM g
),
x AS (SELECT doc_id, CAST(unnest(fps) AS UBIGINT) AS fp FROM w),
agg AS (
  SELECT doc_id, COUNT(*) AS n_fp, MIN(fp) AS fp_min, bit_xor(fp) AS fp_xor
  FROM x GROUP BY doc_id
)
SELECT w.doc_id,
       CAST(COALESCE(agg.n_fp, 0) AS BIGINT) AS n_fingerprints,
       COALESCE(agg.fp_min, 0)::UBIGINT AS fp_min,
       COALESCE(agg.fp_xor, 0)::UBIGINT AS fp_xor
FROM w LEFT JOIN agg USING (doc_id) ORDER BY doc_id
"""

# Deterministic-shuffle twin (image_report_ray.pipelines.text:shuffle_docs):
# splitmix64 of (doc_id + seed) with mod-2^64 multiplication expressed via
# 32-bit-split HUGEINT arithmetic (a*c mod 2^64 without INT128 overflow).
_SM_C1 = 0xBF58476D1CE4E5B9
_SM_C2 = 0x94D049BB133111EB
_SM_M = 1 << 64
_SM_B32 = 1 << 32
_SM_SEED = 0x5EED


def _sm_mul64(a: str, c: int) -> str:
    return (
        f"((({a} % {_SM_B32}) * {c} + "
        f"((( ({a} // {_SM_B32}) * {c}) % {_SM_B32}) * {_SM_B32})) % {_SM_M})"
    )


def _sm_step(h: str, shift: int, c: int) -> str:
    x = f"CAST(xor({h}, {h} >> {shift}) AS HUGEINT)"
    return f"CAST({_sm_mul64(x, c)} AS UBIGINT)"


# Shared inverted-index CTE prefix of the exact n-gram Jaccard twins
# (dedup_ngram_jaccard and the cluster closure over the same pair graph).
_NGRAM_CTE = r"""arr AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS ws FROM documents
),
sh AS (
  SELECT doc_id, unnest(list_distinct(
    list_transform(range(1, len(ws) - 1), i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2])
  )) AS shingle
  FROM arr WHERE len(ws) >= 3
),
cnt AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS da, b.doc_id AS db, COUNT(*) AS i
  FROM sh a JOIN sh b USING (shingle)
  WHERE a.doc_id < b.doc_id GROUP BY 1, 2
)
"""


# SQL-reproducible string hash (image_report_ray.pipelines.dedup:
# hash_utf8_64): Horner polynomial over codepoints (== bytes on this
# ASCII corpus, the fingerprint twin's documented equivalence) base
# 1000003 mod 2^64, then the same splitmix64 steps as the shuffle twin.
# This is the token/shingle hash under SimHash and MinHash, which is
# what makes both near-dup pipelines fully SQL-oracled.
def _poly_hash_sql(col: str) -> str:
    return (
        f"list_reduce(list_transform(range(1, length({col}) + 1), "
        f"i -> CAST(ascii({col}[i]) AS HUGEINT)), "
        f"(a, c) -> (a * 1000003 + c) % {_SM_M})"
    )


# Hashing-trick featurizer twin (image_report_ray.pipelines.text:
# feature_hashing): per-token hash_utf8_64 % 16 -> per-doc bucket
# counts, the same Horner+splitmix chain as the dedup twins.
def _feathash_sql(dim: int = 16) -> str:
    cases = ",\n       ".join(
        f"CAST(SUM(CASE WHEN bkt = {j} THEN 1 ELSE 0 END) AS BIGINT) AS f{j}"
        for j in range(dim)
    )
    return f"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '\\S+')) AS w
  FROM documents
),
h0 AS (SELECT doc_id, CAST({_poly_hash_sql('w')} AS UBIGINT) AS h FROM tok),
h1 AS (SELECT doc_id, {_sm_step('h', 30, _SM_C1)} AS h FROM h0),
h2 AS (SELECT doc_id, {_sm_step('h', 27, _SM_C2)} AS h FROM h1),
h3 AS (SELECT doc_id, xor(h, h >> 31) AS h FROM h2),
b AS (SELECT doc_id, CAST(h % {dim} AS BIGINT) AS bkt FROM h3)
SELECT d.doc_id,
       {cases}
FROM documents d LEFT JOIN b USING (doc_id)
GROUP BY d.doc_id ORDER BY d.doc_id
"""


# Incremental-dedup twin (image_report_ray.pipelines.cdcq:
# cdc_incremental_dedup): epoch-0 final state (lsn below the halfway
# threshold) -> distinct hash_utf8_64(text) fingerprints; every
# second-half I/U event carries the same hash and the verdict is set
# membership. The CASE guard covers empty text (list_reduce rejects
# empty lists; the kernel's Horner over zero bytes is 0).
def _incdedup_sql() -> str:
    poly = (
        f"CASE WHEN length(text) = 0 THEN 0 "
        f"ELSE {_poly_hash_sql('text')} END"
    )
    thr = "(SELECT (MAX(event_id) + 1) // 2 FROM events)"
    return CHANGELOG_CTE + f"""
, st AS (
  SELECT text FROM (
    SELECT ch.*, ROW_NUMBER() OVER (
        PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
    FROM ch WHERE lsn < {thr}
  ) WHERE rn = 1 AND op <> 'D'
),
s0 AS (SELECT DISTINCT CAST({poly} AS UBIGINT) AS h FROM st),
s1 AS (SELECT {_sm_step('h', 30, _SM_C1)} AS h FROM s0),
s2 AS (SELECT {_sm_step('h', 27, _SM_C2)} AS h FROM s1),
s3 AS (SELECT xor(h, h >> 31) AS h FROM s2),
i0 AS (
  SELECT lsn, conv_id, turn_idx, CAST({poly} AS UBIGINT) AS h
  FROM ch WHERE lsn >= {thr} AND op <> 'D'
),
i1 AS (SELECT lsn, conv_id, turn_idx, {_sm_step('h', 30, _SM_C1)} AS h FROM i0),
i2 AS (SELECT lsn, conv_id, turn_idx, {_sm_step('h', 27, _SM_C2)} AS h FROM i1),
i3 AS (SELECT lsn, conv_id, turn_idx, xor(h, h >> 31) AS h FROM i2)
SELECT lsn, conv_id, turn_idx,
       h IN (SELECT h FROM s3) AS dup_of_state
FROM i3 ORDER BY lsn
"""


# SimHash twin (image_report_ray.pipelines.dedup:simhash64 /
# dedup_simhash): per-token hash -> signed bit sums -> sign bits ->
# 64-bit simhash; the engine's chunk-pigeonhole candidates + in-exchange
# popcount verify are EXACT for hamming <= 3 (any such pair shares a
# 16-bit chunk), so the twin is the plain quadratic form: every (a < b)
# pair with bit_count(xor) <= 3.
_SIMHASH_SQL = f"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '\\S+')) AS tok
  FROM documents
),
p0 AS (SELECT doc_id, CAST({{poly}} AS UBIGINT) AS h FROM tok),
p1 AS (SELECT doc_id, {_sm_step('h', 30, _SM_C1)} AS h FROM p0),
p2 AS (SELECT doc_id, {_sm_step('h', 27, _SM_C2)} AS h FROM p1),
p3 AS (SELECT doc_id, xor(h, h >> 31) AS h FROM p2),
bits AS (
  SELECT doc_id, bb,
         SUM(CASE WHEN (h >> bb) & 1 = 1 THEN 1 ELSE -1 END) AS s
  FROM p3 CROSS JOIN (SELECT unnest(range(64)) AS bb)
  GROUP BY doc_id, bb
),
shx AS (
  SELECT doc_id,
         CAST(SUM(CASE WHEN s > 0 THEN CAST(1 AS UBIGINT) << bb ELSE 0 END)
              AS UBIGINT) AS simhash
  FROM bits GROUP BY doc_id
),
alldocs AS (
  SELECT d.doc_id, COALESCE(shx.simhash, 0) AS simhash
  FROM documents d LEFT JOIN shx USING (doc_id)
)
SELECT a.doc_id AS doc_id_a, b.doc_id AS doc_id_b,
       CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT) AS hamming
FROM alldocs a JOIN alldocs b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.simhash, b.simhash)) <= 3
ORDER BY doc_id_a, doc_id_b
"""


def _simhash_sql() -> str:
    return _SIMHASH_SQL.format(poly=_poly_hash_sql("tok"))


# Temperature-sampling twin (image_report_ray.pipelines.text:
# mixture_sample): the N63 weight table lifted to exact integer micro
# units, per-lang threshold w6 * N * 2^64 // (den * 1e6 * n_i), keep =
# splitmix64(doc_id + seed) < thr (the shuffle twin's hash chain).
def _mixsample_sql() -> str:
    from image_report_ray.pipelines.text import _MIX_BUDGET_DEN as DEN

    return f"""
WITH c AS (
  SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs FROM documents GROUP BY lang
),
w AS (
  SELECT lang, n_docs,
         CAST(ROUND(ROUND(pow(n_docs, 0.5) / SUM(pow(n_docs, 0.5)) OVER (), 6)
                    * 1000000) AS BIGINT) AS w6
  FROM c
),
t AS (
  SELECT lang,
         CAST(w6 AS HUGEINT) * (SELECT SUM(n_docs) FROM c) * {1 << 64}
           // ({DEN} * 1000000 * n_docs) AS thr
  FROM w
),
s0 AS (
  SELECT doc_id, lang, CAST((doc_id + {_SM_SEED}) % {_SM_M} AS UBIGINT) AS h
  FROM documents
),
s1 AS (SELECT doc_id, lang, {_sm_step('h', 30, _SM_C1)} AS h FROM s0),
s2 AS (SELECT doc_id, lang, {_sm_step('h', 27, _SM_C2)} AS h FROM s1),
s3 AS (SELECT doc_id, lang, xor(h, h >> 31) AS h FROM s2)
SELECT s3.doc_id, s3.lang
FROM s3 JOIN t USING (lang)
WHERE t.thr >= {1 << 64} OR CAST(s3.h AS HUGEINT) < t.thr
ORDER BY s3.doc_id
"""


# Fixed-point PageRank twin (image_report_ray.pipelines.dedup:
# pair_pagerank): the verified n-gram pair graph, ranks as int64
# multiples of 1e-9, contributions rank // degree, update
# base + 85*S // 100 — ALL integer arithmetic, so the distributed fold
# is bit-identical with no rounding pins. Iterations unroll as CTEs.
def _pagerank_sql() -> str:
    from image_report_ray.pipelines.dedup import (
        _PR_D_DEN,
        _PR_D_NUM,
        _PR_ITERS,
        _PR_SCALE,
    )

    compl = _PR_D_DEN - _PR_D_NUM
    it = ""
    for t in range(1, _PR_ITERS + 1):
        it += f""",
s{t} AS (
  SELECT e.dst AS id, SUM(r{t - 1}.r // d.deg) AS s
  FROM ed e JOIN r{t - 1} ON r{t - 1}.id = e.src JOIN deg d ON d.id = e.src
  GROUP BY e.dst
),
r{t} AS (
  SELECT n.id,
         (SELECT CAST({compl} AS BIGINT) * {_PR_SCALE}
                 // ({_PR_D_DEN} * COUNT(*)) FROM nodes)
           + {_PR_D_NUM} * COALESCE(s{t}.s, 0) // {_PR_D_DEN} AS r
  FROM nodes n LEFT JOIN s{t} ON s{t}.id = n.id
)"""
    return "WITH " + _NGRAM_CTE + f""",
pairs AS (
  SELECT da, db
  FROM inter JOIN cnt ca ON inter.da = ca.doc_id JOIN cnt cb ON inter.db = cb.doc_id
  WHERE i * 1.0 / (ca.n + cb.n - i) >= 0.2
),
ed AS (SELECT da AS src, db AS dst FROM pairs UNION ALL SELECT db, da FROM pairs),
nodes AS (SELECT DISTINCT src AS id FROM ed),
deg AS (SELECT src AS id, COUNT(*) AS deg FROM ed GROUP BY src),
r0 AS (SELECT id, {_PR_SCALE} // (SELECT COUNT(*) FROM nodes) AS r FROM nodes){it}
SELECT n.id AS doc_id, CAST(d.deg AS BIGINT) AS degree,
       CAST(r{_PR_ITERS}.r AS BIGINT) AS pagerank_e9
FROM nodes n JOIN deg d ON d.id = n.id
     JOIN r{_PR_ITERS} ON r{_PR_ITERS}.id = n.id
ORDER BY doc_id
"""


# Duplicated-span coverage twin (image_report_ray.pipelines.dedup:
# dup_span_coverage): W-token windows as strings (the kernel hashes the
# SAME space-joined strings — the minhash shingle equivalence), a span
# is duplicated iff >= 2 distinct docs hold it, coverage is the interval
# union of a doc's duplicated window starts (LEAD == the kernel's
# next-start minimum).
def _dupspan_sql() -> str:
    from image_report_ray.pipelines.dedup import _SPAN_W as W

    span = "||' '||".join(f"a.ws[p.pos+{j}]" if j else "a.ws[p.pos]"
                          for j in range(W))
    return f"""
WITH arr AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\\S+') AS ws FROM documents
),
win AS (
  SELECT a.doc_id, p.pos, {span} AS span
  FROM arr a, UNNEST(range(1, len(a.ws) - {W - 2})) AS p(pos)
),
dup AS (SELECT span FROM win GROUP BY span HAVING COUNT(DISTINCT doc_id) >= 2),
dwin AS (SELECT w.doc_id, w.pos FROM win w JOIN dup USING (span)),
cov AS (
  SELECT doc_id,
         SUM(CASE WHEN nxt IS NULL THEN {W}
                  ELSE LEAST(nxt - pos, {W}) END) AS dup_tokens
  FROM (SELECT doc_id, pos,
               LEAD(pos) OVER (PARTITION BY doc_id ORDER BY pos) AS nxt
        FROM dwin)
  GROUP BY doc_id
)
SELECT a.doc_id, CAST(len(a.ws) AS BIGINT) AS n_tokens,
       CAST(COALESCE(c.dup_tokens, 0) AS BIGINT) AS dup_tokens
FROM arr a LEFT JOIN cov c USING (doc_id) ORDER BY a.doc_id
"""


# Top-duplicated-spans twin (image_report_ray.pipelines.dedup:top_spans):
# same W-token window strings, duplicated = >= 2 distinct docs, ordered
# by (n_docs, n_occurrences) desc with the span-string tiebreak.
def _topspans_sql() -> str:
    from image_report_ray.pipelines.dedup import _SPAN_W as W

    span = "||' '||".join(f"a.ws[p.pos+{j}]" if j else "a.ws[p.pos]"
                          for j in range(W))
    return f"""
WITH arr AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\\S+') AS ws FROM documents
),
win AS (
  SELECT a.doc_id, {span} AS span
  FROM arr a, UNNEST(range(1, len(a.ws) - {W - 2})) AS p(pos)
),
agg AS (
  SELECT span, COUNT(DISTINCT doc_id) AS n_docs, COUNT(*) AS n_occurrences
  FROM win GROUP BY span HAVING COUNT(DISTINCT doc_id) >= 2
)
SELECT span, CAST(n_docs AS BIGINT) AS n_docs,
       CAST(n_occurrences AS BIGINT) AS n_occurrences
FROM agg ORDER BY n_docs DESC, n_occurrences DESC, span ASC LIMIT 20
"""


def _minhash_sql() -> str:
    """MinHash+LSH twin (image_report_ray.pipelines.dedup:
    dedup_minhash_lsh), candidate generation INCLUDED: the 128 seeded
    permutation coefficients are inlined as a VALUES table, band keys
    fold signature rows with the same mul-mix/xor Horner
    (dedup._BAND_MIX), and candidates are pairs sharing any (band, key)
    — then the exact-Jaccard verify over distinct shingle hashes, all in
    lockstep with the kernel's mod-2^64 arithmetic."""
    from image_report_ray.pipelines.dedup import (
        _BAND_MIX,
        _MH_PRIME,
        _MH_ROWS,
        _perm_coeffs,
    )

    pa_, _pb = _perm_coeffs()
    perm_rows = ", ".join(f"({j}, {int(a)})" for j, a in enumerate(pa_))
    band_fold = (
        f"list_reduce(list(s ORDER BY j), (acc, x) -> "
        f"xor(CAST({_sm_mul64('CAST(acc AS HUGEINT)', int(_BAND_MIX))} "
        f"AS UBIGINT), x))"
    )
    return f"""
WITH arr AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\\S+') AS ws FROM documents
),
sh AS (
  SELECT doc_id, unnest(list_distinct(
    list_transform(range(1, len(ws) - 1), i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2])
  )) AS shingle
  FROM arr WHERE len(ws) >= 3
),
h0 AS (SELECT doc_id, CAST({_poly_hash_sql('shingle')} AS UBIGINT) AS h FROM sh),
h1 AS (SELECT doc_id, {_sm_step('h', 30, _SM_C1)} AS h FROM h0),
h2 AS (SELECT doc_id, {_sm_step('h', 27, _SM_C2)} AS h FROM h1),
hs AS (SELECT DISTINCT doc_id, xor(h, h >> 31) AS h FROM h2),
perms(j, a) AS (VALUES {perm_rows}),
hv AS (
  SELECT doc_id, j,
         CAST((CAST(h AS HUGEINT) * a) % {_SM_M} AS UBIGINT) AS hv
  FROM hs CROSS JOIN perms
),
sig AS (SELECT doc_id, j, MIN(hv) AS s FROM hv GROUP BY doc_id, j),
bands AS (
  SELECT doc_id, j // {_MH_ROWS} AS bi, {band_fold} AS bh
  FROM sig GROUP BY doc_id, j // {_MH_ROWS}
),
cand AS (
  SELECT DISTINCT x.doc_id AS da, y.doc_id AS db
  FROM bands x JOIN bands y ON x.bi = y.bi AND x.bh = y.bh AND x.doc_id < y.doc_id
),
sizes AS (SELECT doc_id, COUNT(*) AS n FROM hs GROUP BY doc_id),
inter AS (
  SELECT c.da, c.db, COUNT(*) AS i
  FROM cand c JOIN hs a ON a.doc_id = c.da JOIN hs b ON b.doc_id = c.db AND a.h = b.h
  GROUP BY c.da, c.db
),
scored AS (
  SELECT c.da, c.db, COALESCE(i.i, 0) AS i, sa.n AS na, sb.n AS nb
  FROM cand c
  LEFT JOIN inter i ON i.da = c.da AND i.db = c.db
  JOIN sizes sa ON sa.doc_id = c.da JOIN sizes sb ON sb.doc_id = c.db
)
SELECT da AS doc_id_a, db AS doc_id_b, CAST(i AS BIGINT) AS n_common,
       ROUND(i * 1.0 / (na + nb - i), 6) AS jaccard
FROM scored
WHERE i * 1.0 / (na + nb - i) >= 0.5
ORDER BY doc_id_a, doc_id_b
"""


def _minhash_calibration_sql() -> str:
    """minhash_calibration twin: the ENTIRE _minhash_sql chain verbatim
    (sig / cand / scored), retargeted — verified pairs keep their exact
    jaccard band, per-pair component matches come from a self-join of
    the sig CTE, mean estimate closes in the same exact integers."""
    base = _minhash_sql()
    cut = base.index("SELECT da AS doc_id_a")
    tail = """ver AS (
  SELECT da, db, ROUND(i * 1.0 / (na + nb - i), 6) AS jac
  FROM scored WHERE i * 1.0 / (na + nb - i) >= 0.5
),
est AS (
  SELECT v.da, v.db, SUM(CASE WHEN x.s = y.s THEN 1 ELSE 0 END) AS m
  FROM ver v
  JOIN sig x ON x.doc_id = v.da
  JOIN sig y ON y.doc_id = v.db AND y.j = x.j
  GROUP BY v.da, v.db
)
SELECT CAST(LEAST(FLOOR(v.jac * 20), 19) * 500 AS BIGINT) AS band_bp,
       CAST(COUNT(*) AS BIGINT) AS n_pairs,
       CAST((10000 * SUM(e.m)) // (128 * COUNT(*)) AS BIGINT)
           AS mean_est_bp
FROM ver v JOIN est e ON e.da = v.da AND e.db = v.db
GROUP BY 1 ORDER BY band_bp
"""
    head = base[:cut].rstrip()
    assert head.endswith(")"), "the scored CTE must close the chain"
    return head[:-1] + "),\n" + tail


_SHUFFLE_SQL = f"""
WITH s0 AS (
  SELECT doc_id, CAST((doc_id + {_SM_SEED}) % {_SM_M} AS UBIGINT) AS h
  FROM documents
),
s1 AS (SELECT doc_id, {_sm_step('h', 30, _SM_C1)} AS h FROM s0),
s2 AS (SELECT doc_id, {_sm_step('h', 27, _SM_C2)} AS h FROM s1),
s3 AS (SELECT doc_id, xor(h, h >> 31) AS h FROM s2)
SELECT doc_id,
       h AS shuffle_key,
       CAST(ROW_NUMBER() OVER (ORDER BY h) AS BIGINT) AS shuffle_rank
FROM s3 ORDER BY doc_id
"""

# HLL-register twin (image_report_ray.pipelines.relational:hll_user_sketch):
# same seeded splitmix64, bucket = top 12 hash bits, rank from the exact
# integer bit length (length(bin(x))) — the register table is pure
# integer arithmetic on both sides.
_HLL_SQL = f"""
WITH u AS (SELECT DISTINCT user_id FROM events),
h0 AS (
  SELECT CAST((user_id + {_SM_SEED}) % {_SM_M} AS UBIGINT) AS h FROM u
),
h1 AS (SELECT {_sm_step('h', 30, _SM_C1)} AS h FROM h0),
h2 AS (SELECT {_sm_step('h', 27, _SM_C2)} AS h FROM h1),
h3 AS (SELECT xor(h, h >> 31) AS h FROM h2),
r AS (
  SELECT h >> 52 AS bucket, h & 4503599627370495 AS rem FROM h3
)
SELECT CAST(bucket AS BIGINT) AS bucket,
       CAST(MAX(CASE WHEN rem = 0 THEN 53
                     ELSE 52 - length(bin(rem)) + 1 END) AS BIGINT) AS max_rank
FROM r GROUP BY bucket ORDER BY bucket
"""

_FINAL_STATE = """
SELECT conv_id, turn_idx, role, text, tool, ts{extra_cols}
FROM (
    SELECT ch.*, ROW_NUMBER() OVER (
        PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
    FROM ch
)
WHERE rn = 1 AND op <> 'D'
ORDER BY conv_id, turn_idx
"""


def entry() -> Any:
    """Flagship: replay the sf0.001 events-derived changelog through the
    full CDC engine (4 epochs, manifest, lineage) and return the
    materialized transcripts state."""
    import shutil
    import tempfile

    import pyarrow.compute as pc
    import ray.data as rd

    from image_report_ray.config import EngineConfig
    from image_report_ray.pipelines.cdc import apply_epoch, canonical_state_table
    from image_report_ray.sources.wal import events_to_changelog, max_event_id
    from image_report_ray.state.manifest import Lake

    sf_dir = "/root/testdata/sf0.001"
    n_epochs = 4
    span = (max_event_id(sf_dir) + n_epochs) // n_epochs
    d = tempfile.mkdtemp(prefix="irr-entry-")
    try:
        lake = Lake(d, num_partitions=8)
        cfg = EngineConfig(num_partitions=8)
        for epoch in range(n_epochs):
            lo, hi = epoch * span, (epoch + 1) * span
            ds = rd.read_parquet(
                f"{sf_dir}/events.parquet",
                columns=["event_id", "ts", "user_id", "event_type", "props"],
            ).map_batches(
                lambda t, lo=lo, hi=hi: events_to_changelog(
                    t.filter(
                        pc.and_(
                            pc.greater_equal(t.column("event_id"), lo),
                            pc.less(t.column("event_id"), hi),
                        )
                    )
                ),
                batch_format="pyarrow",
            )
            apply_epoch(lake, epoch, ds, cfg)
        return canonical_state_table(lake)
    finally:
        shutil.rmtree(d, ignore_errors=True)


def queries() -> dict[str, Callable[[str], Any]]:
    from image_report_ray.pipelines.registry import query_registry

    return query_registry()


# K-means twin (image_report_ray.pipelines.similarity:kmeans_embed):
# the fixed Lloyd iterations unroll as CTE rounds. Determinism pins match
# the kernel exactly — squared-L2 distances ROUND to 9 decimals before
# the argmin (ties -> smallest cid via ROW_NUMBER), centroid means ROUND
# to 6 decimals after every update, empty clusters keep their previous
# centroid (rounded) — so the ~1e-13 summation-order drift between numpy
# and DuckDB never survives a rounding boundary.
def _kmeans_sql() -> str:
    from image_report_ray.pipelines.similarity import (
        _KM_CENT_ROUND,
        _KM_DIST_ROUND,
        _KM_K,
    )

    def assign(tag: int, cents: str) -> str:
        return f"""
d{tag} AS (
  SELECT e.vec_id, {cents}.cid,
         ROUND(list_sum(list_transform(range(1, len(e.v) + 1),
               i -> (e.v[i] - {cents}.c[i]) * (e.v[i] - {cents}.c[i]))),
               {_KM_DIST_ROUND}) AS d2
  FROM e CROSS JOIN {cents}
),
a{tag} AS (
  SELECT vec_id, cid FROM (
    SELECT vec_id, cid,
           ROW_NUMBER() OVER (PARTITION BY vec_id ORDER BY d2, cid) AS rn
    FROM d{tag}
  ) WHERE rn = 1
)"""

    def update(tag: int, prev: str, a: str) -> str:
        return f"""
m{tag} AS (
  SELECT cid, i, ROUND(AVG(x), {_KM_CENT_ROUND}) AS mv FROM (
    SELECT {a}.cid, unnest(range(1, len(e.v) + 1)) AS i, unnest(e.v) AS x
    FROM {a} JOIN e USING (vec_id)
  ) GROUP BY cid, i
),
c{tag} AS (
  SELECT {prev}.cid,
         CASE WHEN COUNT(m{tag}.mv) = 0
              THEN list_transform({prev}.c, x -> ROUND(x, {_KM_CENT_ROUND}))
              ELSE list(m{tag}.mv ORDER BY m{tag}.i) END AS c
  FROM {prev} LEFT JOIN m{tag} USING (cid)
  GROUP BY {prev}.cid, {prev}.c
)"""

    _kmeans_sql.cte = f"""e AS (
  SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS v
  FROM embeddings
),
c0 AS (
  SELECT ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS cid, v AS c
  FROM e ORDER BY vec_id LIMIT {_KM_K}
),{assign(1, 'c0')},{update(1, 'c0', 'a1')},{assign(2, 'c1')},{update(2, 'c1', 'a2')},{assign(3, 'c2')}"""
    return f"""
WITH {_kmeans_sql.cte}
SELECT vec_id, CAST(cid AS BIGINT) AS cluster_id
FROM a3 ORDER BY vec_id
"""


def _cluster_balance_sql() -> str:
    """cluster_balance twin: the kmeans assignment chain folded to
    per-cluster counts + exact basis-point shares."""
    return f"""
WITH asn AS ({_kmeans_sql()})
SELECT cluster_id, CAST(COUNT(*) AS BIGINT) AS n_vectors,
       CAST(10000 * COUNT(*) // GREATEST((SELECT COUNT(*) FROM asn), 1)
            AS BIGINT) AS share_bp
FROM asn GROUP BY cluster_id ORDER BY cluster_id
"""


def _cluster_separation_sql() -> str:
    """Inter-centroid pairwise distances twin: the kmeans CTE chain's
    final (c2) centroids self-joined, same pinned distance rounding."""
    from image_report_ray.pipelines.similarity import _KM_DIST_ROUND

    _kmeans_sql()  # materialize the shared CTE chain
    return f"""
WITH {_kmeans_sql.cte}
SELECT CAST(x.cid AS BIGINT) AS cid_a, CAST(y.cid AS BIGINT) AS cid_b,
       ROUND(list_sum(list_transform(range(1, len(x.c) + 1),
             i -> (x.c[i] - y.c[i]) * (x.c[i] - y.c[i]))),
             {_KM_DIST_ROUND}) AS d2
FROM c2 x JOIN c2 y ON x.cid < y.cid
ORDER BY cid_a, cid_b
"""


def _embedding_outliers_sql() -> str:
    """Per-cluster distance outliers twin: reuses the kmeans CTE chain
    (same pinned rounding) — d3 carries the rounded squared L2 to every
    centroid, the a3 join keeps the assigned one, ROW_NUMBER cuts the
    top 3 per cluster under the engine's exact (d2 desc, vec_id) order."""
    from image_report_ray.pipelines.similarity import _OUT_TOPN

    _kmeans_sql()  # materialize the shared CTE chain
    return f"""
WITH {_kmeans_sql.cte},
ad AS (
  SELECT a3.vec_id, a3.cid, d3.d2
  FROM a3 JOIN d3 ON d3.vec_id = a3.vec_id AND d3.cid = a3.cid
)
SELECT CAST(cid AS BIGINT) AS cluster_id, vec_id, CAST(rn AS BIGINT) AS rank
FROM (
  SELECT vec_id, cid,
         ROW_NUMBER() OVER (PARTITION BY cid ORDER BY d2 DESC, vec_id) AS rn
  FROM ad
)
WHERE rn <= {_OUT_TOPN}
ORDER BY cluster_id, rank
"""


def _kcenter_sql() -> str:
    """k-center coreset twin (similarity.kcenter_sample): Gonzalez'
    farthest-first traversal unrolled as one CTE round per step — the
    incremental LEAST chain. ``m{{s}}`` carries each remaining vector's
    min squared-L2 to the selected set, with every PAIRWISE distance
    rounded at the kernel's ``_KM_DIST_ROUND`` BEFORE the min (the
    kmeans pin, so numpy/DuckDB drift never survives); ``s{{s}}`` picks
    the max-dmin row (ties -> smallest vec_id, the kernel's lexsort
    order) and the next round drops it. Seed = global min vec_id,
    d2 = 0.0."""
    from image_report_ray.pipelines.similarity import _KC_K, _KM_DIST_ROUND

    def d2(a: str, b: str) -> str:
        return (
            f"ROUND(list_sum(list_transform(range(1, len({a}.v) + 1), "
            f"i -> ({a}.v[i] - {b}.v[i]) * ({a}.v[i] - {b}.v[i]))), "
            f"{_KM_DIST_ROUND})"
        )

    parts = [
        """e AS (
  SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS v
  FROM embeddings
),
s1 AS (SELECT 1 AS step, vec_id, 0.0 AS d2, v FROM e ORDER BY vec_id LIMIT 1),
m1 AS (
  SELECT e.vec_id, e.v, """ + d2("e", "s1") + """ AS dmin
  FROM e CROSS JOIN s1 WHERE e.vec_id <> s1.vec_id
)"""
    ]
    for s in range(2, _KC_K + 1):
        parts.append(f"""s{s} AS (
  SELECT {s} AS step, vec_id, dmin AS d2, v
  FROM m{s - 1} ORDER BY dmin DESC, vec_id LIMIT 1
)""")
        if s < _KC_K:
            parts.append(f"""m{s} AS (
  SELECT m.vec_id, m.v, LEAST(m.dmin, {d2('m', f's{s}')}) AS dmin
  FROM m{s - 1} m CROSS JOIN s{s} WHERE m.vec_id <> s{s}.vec_id
)""")
    union = "\n  UNION ALL\n  ".join(
        f"SELECT step, vec_id, d2 FROM s{s}" for s in range(1, _KC_K + 1)
    )
    return f"""
WITH {','.join(parts)}
SELECT CAST(step AS BIGINT) AS step, vec_id, CAST(d2 AS DOUBLE) AS d2
FROM ({union}) ORDER BY step
"""



# Leg twins lifted to module constants so the RRF fusion twin composes
# them verbatim (lockstep by construction, no duplicated arithmetic).
_BM25_TWIN = r"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w FROM documents
),
dfr AS (SELECT w, CAST(COUNT(DISTINCT doc_id) AS HUGEINT) AS df
        FROM tok GROUP BY w),
terms AS (SELECT w, df FROM dfr ORDER BY df DESC, w ASC LIMIT 2),
dl AS (SELECT doc_id, CAST(COUNT(*) AS HUGEINT) AS dl FROM tok GROUP BY doc_id),
tot AS (SELECT CAST((SELECT COUNT(*) FROM documents) AS HUGEINT) AS n,
               CAST((SELECT SUM(dl) FROM dl) AS HUGEINT) AS l),
tf AS (SELECT t.doc_id, t.w, CAST(COUNT(*) AS HUGEINT) AS tf
       FROM tok t JOIN terms USING (w) GROUP BY 1, 2),
contrib AS (
  SELECT tf.doc_id,
         ((2 * tot.n - 2 * terms.df + 1) * 44 * tot.l * tf.tf * 1000000)
         // ((2 * terms.df + 1)
             * (20 * tot.l * tf.tf + 6 * tot.l + 18 * dl.dl * tot.n)) AS c
  FROM tf
  JOIN terms ON tf.w = terms.w
  JOIN dl ON tf.doc_id = dl.doc_id
  CROSS JOIN tot
)
SELECT doc_id, CAST(SUM(c) AS BIGINT) AS score_micro
FROM contrib GROUP BY doc_id
ORDER BY score_micro DESC, doc_id ASC LIMIT 20
"""

def _knn_cos_twin(k: int) -> str:
    """knn_cosine twin at depth ``k`` (probe vec_id=0)."""
    return f"""
WITH q AS (SELECT CAST(embedding AS DOUBLE[]) AS qe FROM embeddings WHERE vec_id = 0),
s AS (SELECT e.vec_id,
             list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qe) AS sim
      FROM embeddings e, q WHERE e.vec_id <> 0)
SELECT CAST(ROW_NUMBER() OVER (ORDER BY sim DESC, vec_id ASC) AS BIGINT) AS rnk,
       vec_id
FROM s ORDER BY rnk LIMIT {k}
"""


_KNN_COS_TWIN = _knn_cos_twin(10)


def _rrf_sql() -> str:
    """rrf_hybrid_search twin: both leg twins verbatim as subqueries
    (the cosine leg at the engine's depth 20), fused by the kernel's
    exact integer weights 10^9 // (60 + rank)."""
    return f"""
WITH b AS (
  SELECT doc_id,
         ROW_NUMBER() OVER (ORDER BY score_micro DESC, doc_id) AS r
  FROM ({_BM25_TWIN})
),
v AS (SELECT vec_id AS doc_id, rnk AS r FROM ({_knn_cos_twin(20)})),
u AS (
  SELECT doc_id, 1000000000 // (60 + r) AS c FROM b
  UNION ALL
  SELECT doc_id, 1000000000 // (60 + r) FROM v
),
f AS (SELECT doc_id, CAST(SUM(c) AS BIGINT) AS rrf_micro FROM u GROUP BY doc_id)
SELECT CAST(ROW_NUMBER() OVER (ORDER BY rrf_micro DESC, doc_id) AS BIGINT)
           AS rnk,
       doc_id, rrf_micro
FROM f QUALIFY rnk <= 10 ORDER BY rnk
"""


def _stationary_sql() -> str:
    """event_stationary twin: the event_transitions LEAD census as the
    chain, row-stochastic probabilities as the same exact int divisions,
    dangling rows become self-loops, then one MATERIALIZED CTE round per
    power iteration with the kernel's per-round ROUND pin."""
    from image_report_ray.pipelines.relational import (
        _ST_ITERS,
        _ST_OUT_ROUND,
        _ST_VEC_ROUND,
    )

    parts = ["""tr AS (
  SELECT event_type AS f, nxt AS t, CAST(COUNT(*) AS BIGINT) AS n
  FROM (
    SELECT event_type,
           LEAD(event_type) OVER (
               PARTITION BY user_id ORDER BY ts, event_id) AS nxt
    FROM events
  ) WHERE nxt IS NOT NULL GROUP BY 1, 2
),
ty AS (SELECT DISTINCT x AS t FROM (
  SELECT f AS x FROM tr UNION SELECT t FROM tr)),
tot AS (SELECT f, CAST(SUM(n) AS BIGINT) AS tn FROM tr GROUP BY f),
pm AS MATERIALIZED (
  SELECT a.t AS i, b.t AS j,
         CASE WHEN tot.tn IS NULL
              THEN CASE WHEN a.t = b.t THEN 1.0 ELSE 0.0 END
              ELSE COALESCE(e.n, 0) * 1.0 / tot.tn END AS p
  FROM ty a CROSS JOIN ty b
  LEFT JOIN tot ON tot.f = a.t
  LEFT JOIN tr e ON e.f = a.t AND e.t = b.t
),
v0 AS (SELECT t AS j, 1.0 / (SELECT COUNT(*) FROM ty) AS val FROM ty)"""]
    for t in range(1, _ST_ITERS + 1):
        parts.append(f"""v{t} AS MATERIALIZED (
  SELECT pm.j, ROUND(SUM(pm.p * p.val), {_ST_VEC_ROUND}) AS val
  FROM pm JOIN v{t - 1} p ON p.j = pm.i GROUP BY pm.j
)""")
    return f"""
WITH {','.join(parts)}
SELECT j AS event_type, ROUND(val, {_ST_OUT_ROUND}) AS pi
FROM v{_ST_ITERS} ORDER BY event_type
"""


def _label_purity_sql() -> str:
    """label_purity twin: the kmeans assignment chain joined back to
    ``embeddings`` for ground-truth labels, per-cluster majority label
    (ties -> smallest label) + exact basis-point purity."""
    _kmeans_sql()  # materialize the shared CTE chain
    return f"""
WITH {_kmeans_sql.cte},
ct AS (
  SELECT a3.cid AS cluster_id, CAST(emb.label AS BIGINT) AS label,
         COUNT(*) AS n
  FROM a3 JOIN embeddings emb ON emb.vec_id = a3.vec_id
  GROUP BY 1, 2
)
SELECT CAST(cluster_id AS BIGINT) AS cluster_id,
       CAST(n_vectors AS BIGINT) AS n_vectors,
       CAST(top_label AS BIGINT) AS top_label,
       CAST(10000 * n // GREATEST(n_vectors, 1) AS BIGINT) AS purity_bp
FROM (
  SELECT cluster_id, label AS top_label, n,
         SUM(n) OVER (PARTITION BY cluster_id) AS n_vectors,
         ROW_NUMBER() OVER (PARTITION BY cluster_id
                            ORDER BY n DESC, label) AS rn
  FROM ct
) WHERE rn = 1
ORDER BY cluster_id
"""


def _pca_sql() -> str:
    """embedding_pca twin: the covariance matrix from an unnest pair
    join (same mean-centering arithmetic, ROUND at ``_PCA_COV_ROUND``
    before any iteration), then one CTE round per power iteration —
    matrix-vector product + L2 normalize + ROUND at ``_PCA_VEC_ROUND``,
    the kernel's exact pins. Sign fixes on the largest-|loading|
    component (ties -> smallest index)."""
    from image_report_ray.pipelines.similarity import (
        _PCA_COV_ROUND,
        _PCA_ITERS,
        _PCA_OUT_ROUND,
        _PCA_VEC_ROUND,
    )

    parts = [
        f"""e AS (
  SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS v
  FROM embeddings
),
comp AS (
  SELECT vec_id, unnest(range(1, len(v) + 1)) AS i, unnest(v) AS xi FROM e
),
nn AS (SELECT COUNT(*) AS n FROM e),
mn AS (SELECT i, SUM(xi) / nn.n AS m FROM comp, nn GROUP BY i, nn.n),
cm AS MATERIALIZED (
  SELECT a.i, b.i AS j,
         ROUND(SUM(a.xi * b.xi) / ANY_VALUE(nn.n)
               - ANY_VALUE(ma.m) * ANY_VALUE(mb.m), {_PCA_COV_ROUND}) AS c
  FROM comp a JOIN comp b USING (vec_id)
  JOIN mn ma ON ma.i = a.i JOIN mn mb ON mb.i = b.i
  CROSS JOIN nn
  GROUP BY a.i, b.i
),
v0 AS (SELECT i, CASE WHEN i = 1 THEN 1.0 ELSE 0.0 END AS val FROM mn)"""
    ]
    for t in range(1, _PCA_ITERS + 1):
        parts.append(f"""w{t} AS MATERIALIZED (
  SELECT cm.i, SUM(cm.c * p.val) AS w
  FROM cm JOIN v{t - 1} p ON p.i = cm.j GROUP BY cm.i
),
v{t} AS MATERIALIZED (
  SELECT i, ROUND(w / (SELECT sqrt(SUM(w * w)) FROM w{t}),
                  {_PCA_VEC_ROUND}) AS val
  FROM w{t}
)""")
    last = f"v{_PCA_ITERS}"
    return f"""
WITH {','.join(parts)},
sgn AS (
  SELECT CASE WHEN (SELECT val FROM {last} ORDER BY abs(val) DESC, i LIMIT 1)
              < 0 THEN -1.0 ELSE 1.0 END AS s
)
SELECT CAST({last}.i AS BIGINT) AS i,
       ROUND({last}.val * sgn.s, {_PCA_OUT_ROUND}) AS loading
FROM {last}, sgn ORDER BY i
"""


def _mmr_sql() -> str:
    """MMR twin (similarity.mmr_diversified_search): candidate pool =
    top-``_MMR_POOL`` by rounded cosine relevance to the vec_id=0 query
    (ties -> smallest vec_id), pairwise pool cosines materialize once,
    then the greedy unrolls as the kcenter twin's incremental chain —
    ``m{{s}}`` carries each remaining candidate's max-sim-to-selected
    via GREATEST, ``s{{s}}`` picks max (rel - smax), ties to smallest
    vec_id. Cosines compute dot/(sqrt(da)*sqrt(db)) and ROUND at the
    kernel's ``_KM_DIST_ROUND`` before every compare; zero-norm vectors
    are excluded on both sides."""
    from image_report_ray.pipelines.similarity import (
        _KM_DIST_ROUND,
        _MMR_K,
        _MMR_POOL,
    )

    def cos(a: str, b: str) -> str:
        return (
            f"ROUND(list_sum(list_transform(range(1, len({a}.v) + 1), "
            f"i -> {a}.v[i] * {b}.v[i])) / "
            f"(sqrt(list_sum(list_transform({a}.v, x -> x * x))) * "
            f"sqrt(list_sum(list_transform({b}.v, x -> x * x)))), "
            f"{_KM_DIST_ROUND})"
        )

    parts = [
        f"""e AS (
  SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS v
  FROM embeddings
),
q AS (SELECT v FROM e WHERE vec_id = 0),
p AS (
  SELECT e.vec_id, e.v, {cos('e', 'q')} AS rel
  FROM e CROSS JOIN q
  WHERE e.vec_id <> 0
    AND list_sum(list_transform(e.v, x -> x * x)) > 0
  ORDER BY rel DESC, e.vec_id LIMIT {_MMR_POOL}
),
ps AS (
  SELECT a.vec_id AS ia, b.vec_id AS ib, {cos('a', 'b')} AS s
  FROM p a JOIN p b ON a.vec_id <> b.vec_id
),
s1 AS (SELECT 1 AS step, vec_id FROM p ORDER BY rel DESC, vec_id LIMIT 1),
m1 AS (
  SELECT p.vec_id, p.rel, ps.s AS smax
  FROM p JOIN s1 ON p.vec_id <> s1.vec_id
  JOIN ps ON ps.ia = p.vec_id AND ps.ib = s1.vec_id
)"""
    ]
    for s in range(2, _MMR_K + 1):
        parts.append(f"""s{s} AS (
  SELECT {s} AS step, vec_id
  FROM m{s - 1} ORDER BY rel - smax DESC, vec_id LIMIT 1
)""")
        if s < _MMR_K:
            parts.append(f"""m{s} AS (
  SELECT m.vec_id, m.rel, GREATEST(m.smax, ps.s) AS smax
  FROM m{s - 1} m JOIN s{s} ON m.vec_id <> s{s}.vec_id
  JOIN ps ON ps.ia = m.vec_id AND ps.ib = s{s}.vec_id
)"""
            )
    union = "\n  UNION ALL\n  ".join(
        f"SELECT step, vec_id FROM s{s}" for s in range(1, _MMR_K + 1)
    )
    return f"""
WITH {','.join(parts)}
SELECT CAST(step AS BIGINT) AS step, vec_id
FROM ({union}) ORDER BY step
"""


# SemDeDup twin (image_report_ray.pipelines.similarity:semdedup): the
# kmeans CTE chain (same pinned rounding) + cosine pairs RESTRICTED to
# same-cluster endpoints + the recursive min-label closure — each piece
# verbatim from an already-driver-green twin.
def _semdedup_sql() -> str:
    _kmeans_sql()  # materialize the shared CTE chain
    return f"""
WITH RECURSIVE {_kmeans_sql.cte},
pairs AS (
  SELECT x.vec_id AS va, y.vec_id AS vb
  FROM e x JOIN e y ON x.vec_id < y.vec_id
  JOIN a3 cx ON cx.vec_id = x.vec_id
  JOIN a3 cy ON cy.vec_id = y.vec_id
  WHERE cx.cid = cy.cid
    AND list_cosine_similarity(x.v, y.v) >= 0.4
),
edges AS (SELECT va AS a, vb AS b FROM pairs UNION ALL SELECT vb, va FROM pairs),
reach(node, label) AS (
  SELECT DISTINCT a, a FROM edges
  UNION
  SELECT g.b, r.label FROM reach r JOIN edges g ON g.a = r.node
),
labels AS (SELECT node, MIN(label) AS label FROM reach GROUP BY node)
SELECT a3.vec_id, CAST(a3.cid AS BIGINT) AS cluster_id,
       COALESCE(l.label, a3.vec_id) = a3.vec_id AS keep
FROM a3 LEFT JOIN labels l ON l.node = a3.vec_id
ORDER BY a3.vec_id
"""


# LSH ANN twin (image_report_ray.pipelines.similarity:knn_cosine_lsh):
# the 16 seeded hyperplanes INLINE as double literals (the minhash-twin
# technique — full-precision repr round-trips exactly), signatures are
# sign-of-projection bit sums, the prefilter is bit_count(xor) over the
# query's signature, and the surviving candidates rerank by exact cosine
# (the proven knn_cosine ordering). Sign flips need |projection| ~ 1e-15
# — measure-zero on this data, so the twin is exact, not approximate.
def _knn_lsh_sql() -> str:
    from image_report_ray.pipelines.similarity import (
        _LSH_BITS,
        _LSH_MAX_HAMMING,
        _hyperplanes,
    )

    pl = _hyperplanes(_embedding_dim())
    rows = ",\n    ".join(
        "(%d, [%s])" % (j, ", ".join(repr(float(x)) for x in pl[:, j]))
        for j in range(_LSH_BITS)
    )
    return f"""
WITH vv AS (
  SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS v
  FROM embeddings
),
pl(j, p) AS (VALUES {rows}),
sg AS (
  SELECT vv.vec_id,
         SUM(CASE WHEN list_sum(list_transform(range(1, len(vv.v) + 1),
                                               i -> vv.v[i] * pl.p[i])) > 0
                  THEN 1 << pl.j ELSE 0 END) AS sig
  FROM vv CROSS JOIN pl GROUP BY vv.vec_id
),
qs AS (SELECT sig FROM sg WHERE vec_id = 0),
qv AS (SELECT v FROM vv WHERE vec_id = 0),
cand AS (
  SELECT vv.vec_id, list_cosine_similarity(vv.v, qv.v) AS sim
  FROM vv JOIN sg USING (vec_id) CROSS JOIN qs CROSS JOIN qv
  WHERE vv.vec_id <> 0
    AND bit_count(xor(CAST(sg.sig AS BIGINT), CAST(qs.sig AS BIGINT)))
        <= {_LSH_MAX_HAMMING}
)
SELECT CAST(ROW_NUMBER() OVER (ORDER BY sim DESC, vec_id) AS BIGINT) AS rnk,
       vec_id
FROM cand ORDER BY sim DESC, vec_id LIMIT 10
"""


def _embedding_dim() -> int:
    """dim of the embeddings table the driver registers (the hyperplane
    matrix is dim-shaped). Probed from $GRAFT_SF_DIR first so a run
    against a non-default dataset generates hyperplanes of the RIGHT
    dim; raises if no embeddings table is readable rather than silently
    defaulting and producing a confusing twin mismatch."""
    import os

    import pyarrow.parquet as pqt

    candidates = [
        os.environ.get("GRAFT_SF_DIR"),
        "/root/testdata/sf0.01",
        "/root/testdata/sf0.001",
        "/root/testdata/sf0.1",
    ]
    dims = {}
    for sf in candidates:
        if not sf:
            continue
        try:
            f = pqt.ParquetFile(f"{sf}/embeddings.parquet")
            b = next(f.iter_batches(batch_size=1, columns=["embedding"]))
            dims[sf] = len(b.column(0)[0])
        except Exception:
            continue
    if not dims:
        raise FileNotFoundError(
            "no readable embeddings.parquet under $GRAFT_SF_DIR or "
            "/root/testdata/sf* — cannot size the LSH hyperplane matrix"
        )
    # first readable candidate wins ($GRAFT_SF_DIR when set); if the
    # candidates DISAGREE on dim, the twins for the non-chosen dirs would
    # mismatch — surface that loudly instead of guessing
    first = next(iter(dims.values()))
    if len(set(dims.values())) > 1:
        import logging

        logging.getLogger("image_report_ray").warning(
            "embedding dims differ across datasets %s — LSH/IVF oracle "
            "twins are generated for dim=%d (first readable candidate)",
            dims, first,
        )
    return first


# IVF ANN twin (image_report_ray.pipelines.similarity:knn_cosine_ivf):
# the coarse quantizer's pinned spherical Lloyd iterations unroll as CTE
# rounds (the kmeans_embed technique) — seeds = the 16 smallest-vec_id
# sample vectors rounded to 6 decimals, similarities ROUND to 6 before
# every argmax (ties -> smallest cell), re-normalized means ROUND to 6,
# empty cells keep their centroid. Then: every vector's cell, the probe
# set (top-6 rounded centroid sims), and an exact-cosine rerank within
# the probed cells — each step mirroring the engine's kernel bit-for-bit
# at the rounding boundaries.
def _knn_ivf_sql() -> str:
    from image_report_ray.pipelines.similarity import (
        _IVF_CELLS,
        _IVF_CENT_ROUND,
        _IVF_ITERS,
        _IVF_PROBE,
        _IVF_SIM_ROUND,
        _IVF_TRAIN_SAMPLE,
    )

    R, CR = _IVF_SIM_ROUND, _IVF_CENT_ROUND

    def dot(a: str, b: str) -> str:
        return (
            f"list_sum(list_transform(range(1, len({a}) + 1), "
            f"i -> {a}[i] * {b}[i]))"
        )

    def assign(tag: str, src: str, cents: str) -> str:
        return f"""
d{tag} AS (
  SELECT {src}.vec_id, {cents}.cid,
         ROUND({dot(f'{src}.v', f'{cents}.c')}, {R}) AS sim
  FROM {src} CROSS JOIN {cents}
),
a{tag} AS (
  SELECT vec_id, cid FROM (
    SELECT vec_id, cid,
           ROW_NUMBER() OVER (PARTITION BY vec_id ORDER BY sim DESC, cid) AS rn
    FROM d{tag}
  ) WHERE rn = 1
)"""

    def update(t: int) -> str:
        return f"""
m{t} AS (
  SELECT cid, i, AVG(x) AS mv FROM (
    SELECT a{t}.cid, unnest(range(1, len(smp.v) + 1)) AS i, unnest(smp.v) AS x
    FROM a{t} JOIN smp USING (vec_id)
  ) GROUP BY cid, i
),
u{t} AS (SELECT cid, list(mv ORDER BY i) AS m FROM m{t} GROUP BY cid),
c{t} AS (
  SELECT p.cid,
         CASE WHEN u.m IS NULL
                   OR sqrt(list_sum(list_transform(u.m, y -> y * y))) = 0
              THEN p.c
              ELSE list_transform(
                     u.m,
                     x -> ROUND(x / sqrt(list_sum(list_transform(u.m,
                                                  y -> y * y))), {CR}))
         END AS c
  FROM c{t - 1} p LEFT JOIN u{t} u USING (cid)
)"""

    rounds = "".join(
        f",{assign(str(t), 'smp', f'c{t - 1}')},{update(t)}"
        for t in range(1, _IVF_ITERS + 1)
    )
    cf = f"c{_IVF_ITERS}"
    return f"""
WITH vv AS (
  SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS raw
  FROM embeddings
),
nn AS (
  SELECT vec_id, raw,
         sqrt(list_sum(list_transform(raw, y -> y * y))) AS nrm
  FROM vv
),
vn AS (
  SELECT vec_id,
         list_transform(raw, x -> x / CASE WHEN nrm = 0 THEN 1 ELSE nrm END) AS v
  FROM nn
),
smp AS (
  SELECT vec_id, v FROM vn
  QUALIFY ROW_NUMBER() OVER (ORDER BY vec_id) <= {_IVF_TRAIN_SAMPLE}
),
c0 AS (
  SELECT ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS cid,
         list_transform(v, x -> ROUND(x, {CR})) AS c
  FROM smp ORDER BY vec_id LIMIT {_IVF_CELLS}
){rounds},{assign('F', 'vn', cf)},
qv AS (SELECT v FROM vn WHERE vec_id = 0),
qraw AS (SELECT raw FROM vv WHERE vec_id = 0),
probe AS (
  SELECT cid FROM (
    SELECT {cf}.cid,
           ROW_NUMBER() OVER (
             ORDER BY ROUND({dot(f'{cf}.c', 'qv.v')}, {R}) DESC, {cf}.cid
           ) AS rn
    FROM {cf} CROSS JOIN qv
  ) WHERE rn <= {_IVF_PROBE}
),
cand AS (
  SELECT vv.vec_id, list_cosine_similarity(vv.raw, qraw.raw) AS sim
  FROM vv JOIN aF USING (vec_id) CROSS JOIN qraw
  WHERE aF.cid IN (SELECT cid FROM probe) AND vv.vec_id <> 0
)
SELECT CAST(ROW_NUMBER() OVER (ORDER BY sim DESC, vec_id) AS BIGINT) AS rnk,
       vec_id
FROM cand ORDER BY sim DESC, vec_id LIMIT 10
"""


def _knn_pq_sql() -> str:
    """Product-quantization ANN twin (similarity.knn_cosine_pq): the
    SAME pinned per-subspace L2 Lloyd unrolled as CTE rounds, then
    asymmetric-distance scoring through the per-cid query dots."""
    from image_report_ray.pipelines.similarity import (
        _PQ_CENT_ROUND,
        _PQ_D_ROUND,
        _PQ_ITERS,
        _PQ_K,
        _PQ_M,
        _PQ_RERANK,
        _PQ_RERANK_DIV,
        _PQ_SCORE_ROUND,
        _PQ_TRAIN_SAMPLE,
    )

    dim = _embedding_dim()
    if dim % _PQ_M:
        raise ValueError(f"embedding dim {dim} not divisible by PQ M={_PQ_M}")
    S = dim // _PQ_M
    CR, DR, SR = _PQ_CENT_ROUND, _PQ_D_ROUND, _PQ_SCORE_ROUND

    def l2(src: str, cb: str, off: int) -> str:
        return (
            f"ROUND(list_sum(list_transform(range(1, {S} + 1), "
            f"i -> ({src}.v[{off} + i] - {cb}.c[i]) * "
            f"({src}.v[{off} + i] - {cb}.c[i]))), {DR})"
        )

    def assign(mi: int, tag: str, src: str, cents: str) -> str:
        off = mi * S
        return f"""
p{mi}d{tag} AS (
  SELECT {src}.vec_id, cb.cid, {l2(src, 'cb', off)} AS d
  FROM {src} CROSS JOIN {cents} cb
),
p{mi}a{tag} AS (
  SELECT vec_id, cid FROM (
    SELECT vec_id, cid,
           ROW_NUMBER() OVER (PARTITION BY vec_id ORDER BY d ASC, cid ASC)
               AS rn
    FROM p{mi}d{tag}
  ) WHERE rn = 1
)"""

    def update(mi: int, t: int) -> str:
        off = mi * S
        return f"""
p{mi}m{t} AS (
  SELECT cid, i, AVG(x) AS mv FROM (
    SELECT a.cid, unnest(range(1, {S} + 1)) AS i,
           unnest(list_transform(range(1, {S} + 1),
                                 j -> smp.v[{off} + j])) AS x
    FROM p{mi}a{t} a JOIN smp USING (vec_id)
  ) GROUP BY cid, i
),
p{mi}u{t} AS (
  SELECT cid, list(ROUND(mv, {CR}) ORDER BY i) AS m
  FROM p{mi}m{t} GROUP BY cid
),
p{mi}c{t} AS (
  SELECT p.cid, CASE WHEN u.m IS NULL THEN p.c ELSE u.m END AS c
  FROM p{mi}c{t - 1} p LEFT JOIN p{mi}u{t} u USING (cid)
)"""

    blocks = []
    for mi in range(_PQ_M):
        off = mi * S
        blocks.append(f"""
p{mi}c0 AS (
  SELECT ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS cid,
         list_transform(range(1, {S} + 1),
                        i -> ROUND(v[{off} + i], {CR})) AS c
  FROM smp ORDER BY vec_id LIMIT {_PQ_K}
)""")
        for t in range(1, _PQ_ITERS + 1):
            blocks.append(assign(mi, str(t), "smp", f"p{mi}c{t - 1}"))
            blocks.append(update(mi, t))
        blocks.append(assign(mi, "F", "vn", f"p{mi}c{_PQ_ITERS}"))
        blocks.append(f"""
qd{mi} AS (
  SELECT cb.cid,
         ROUND(list_sum(list_transform(range(1, {S} + 1),
               i -> qv.v[{off} + i] * cb.c[i])), {SR}) AS qd
  FROM p{mi}c{_PQ_ITERS} cb CROSS JOIN qv
)""")

    score_join = "\n".join(
        f"  JOIN p{mi}aF ON p{mi}aF.vec_id = vn.vec_id\n"
        f"  JOIN qd{mi} q{mi} ON q{mi}.cid = p{mi}aF.cid"
        for mi in range(_PQ_M)
    )
    score_sum = " + ".join(f"q{mi}.qd" for mi in range(_PQ_M))
    return f"""
WITH vv AS (
  SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS raw
  FROM embeddings
),
nn AS (
  SELECT vec_id, raw,
         sqrt(list_sum(list_transform(raw, y -> y * y))) AS nrm
  FROM vv
),
vn AS (
  SELECT vec_id,
         list_transform(raw, x -> x / CASE WHEN nrm = 0 THEN 1 ELSE nrm END)
             AS v
  FROM nn
),
smp AS (
  SELECT vec_id, v FROM vn
  QUALIFY ROW_NUMBER() OVER (ORDER BY vec_id) <= {_PQ_TRAIN_SAMPLE}
),
qv AS (SELECT v FROM vn WHERE vec_id = 0),{",".join(blocks)},
scored AS (
  SELECT vn.vec_id, ROUND({score_sum}, {SR}) AS score
  FROM vn
{score_join}
  WHERE vn.vec_id <> 0
),
short AS (
  SELECT vec_id FROM scored ORDER BY score DESC, vec_id
  LIMIT GREATEST({_PQ_RERANK},
                 (SELECT COUNT(*) FROM embeddings) // {_PQ_RERANK_DIV})
),
qraw AS (SELECT raw FROM vv WHERE vec_id = 0),
cand AS (
  SELECT vv.vec_id, list_cosine_similarity(vv.raw, qraw.raw) AS sim
  FROM vv JOIN short USING (vec_id) CROSS JOIN qraw
)
SELECT CAST(ROW_NUMBER() OVER (ORDER BY sim DESC, vec_id) AS BIGINT) AS rnk,
       vec_id
FROM cand ORDER BY sim DESC, vec_id LIMIT 10
"""


def oracle_sql() -> dict[str, str]:
    return {
        # synthetic FMED headers are pure integer arithmetic on doc_id
        # (see image_report_ray/pipelines/multimodal.py)
        "media_meta": """
SELECT doc_id AS media_id,
       ['image','audio','video'][(doc_id % 3) + 1] AS kind,
       CAST(16 + (doc_id * 7919)   % 240 AS INTEGER) AS width,
       CAST(16 + (doc_id * 104729) % 240 AS INTEGER) AS height,
       CAST(CASE WHEN doc_id % 3 = 2 THEN 8 + (doc_id * 31) % 25 ELSE 1 END
            AS INTEGER) AS n_frames,
       CAST(octet_length(encode(text)) AS BIGINT) AS n_body_bytes
FROM documents ORDER BY media_id
""",
        # media content dedup (multimodal.media_dedup): the fake codec's
        # decoded body IS the utf-8 text, so grouping by text replays the
        # engine's 128-bit body-digest winner election exactly
        "media_dedup": """
WITH g AS (
  SELECT MIN(doc_id) AS media_id, CAST(COUNT(*) AS BIGINT) AS n_copies
  FROM documents GROUP BY text
)
SELECT media_id, ['image','audio','video'][(media_id % 3) + 1] AS kind,
       n_copies
FROM g ORDER BY media_id
""",
        # resize (1/2 thumbnail): floor-scaled dims (audio keeps rate),
        # ceil-scaled body byte count — metadata of the re-decoded output
        "media_resize": """
SELECT doc_id AS media_id,
       ['image','audio','video'][(doc_id % 3) + 1] AS kind,
       CAST(CASE WHEN doc_id % 3 = 1 THEN 16 + (doc_id * 7919) % 240
                 ELSE GREATEST((16 + (doc_id * 7919) % 240) // 2, 1)
            END AS INTEGER) AS width,
       CAST(GREATEST((16 + (doc_id * 104729) % 240) // 2, 1) AS INTEGER) AS height,
       CAST(CASE WHEN doc_id % 3 = 2 THEN 8 + (doc_id * 31) % 25 ELSE 1 END
            AS INTEGER) AS n_frames,
       CAST((octet_length(encode(text)) + 1) // 2 AS BIGINT) AS n_body_bytes
FROM documents ORDER BY media_id
""",
        "media_frames": """
WITH m AS (
  SELECT doc_id,
         doc_id % 3 AS kc,
         CASE WHEN doc_id % 3 = 2 THEN 8 + (doc_id * 31) % 25 ELSE 1 END AS nf
  FROM documents
)
SELECT doc_id AS media_id,
       CAST(unnest(range(0, nf, CASE WHEN kc = 2 THEN 4 ELSE 1 END))
            AS INTEGER) AS frame_idx,
       ['image','audio','video'][kc + 1] AS kind
FROM m ORDER BY media_id, frame_idx
""",
        # byte-histogram feature summary: the FMED body is the utf-8 text
        # (pure ASCII in this corpus, so ascii(char) == byte); bins are
        # byte >> 3, dominant bin ties resolve to the smallest index —
        # integer-exact on both sides
        "media_features": r"""
WITH b AS (
  SELECT doc_id,
         unnest(list_transform(range(1, length(text) + 1),
                               i -> ascii(text[i]) // 8)) AS bin
  FROM documents
),
c AS (SELECT doc_id, bin, COUNT(*) AS cnt FROM b GROUP BY 1, 2),
r AS (
  SELECT doc_id, bin, cnt,
         COUNT(*) OVER (PARTITION BY doc_id) AS n_bins,
         ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY cnt DESC, bin ASC) AS rn
  FROM c
)
SELECT d.doc_id AS media_id,
       CAST(32 AS BIGINT) AS feat_dim,
       CAST(COALESCE(r.n_bins, 0) AS BIGINT) AS feat_nonzero,
       CAST(COALESCE(r.bin, 0) AS BIGINT) AS top_bin,
       CAST(octet_length(encode(d.text)) AS BIGINT) AS n_body_bytes
FROM documents d LEFT JOIN r ON r.doc_id = d.doc_id AND r.rn = 1
ORDER BY media_id
""",
        # winnowing fingerprints (Schleimer et al. 2003): 8-byte-gram
        # rolling hash mod 2^64 (nested Horner in HUGEINT — bit-identical
        # to the kernel's uint64 wraparound), sliding min over 4-gram
        # windows, distinct; char == byte on this ASCII corpus
        "fingerprint_docs": _FP_SQL,
        # deterministic seeded global shuffle (random_shuffle analogue)
        "shuffle_docs": _SHUFFLE_SQL,
        # sequence packing via running token totals (distributed scan)
        "pack_docs": r"""
WITH n AS (
  SELECT doc_id,
         CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tokens
  FROM documents
)
SELECT doc_id, n_tokens,
       CAST(SUM(n_tokens) OVER (ORDER BY doc_id) AS BIGINT) AS cum_tokens,
       CAST((SUM(n_tokens) OVER (ORDER BY doc_id) - n_tokens) // 2048
            AS BIGINT) AS pack_id
FROM n ORDER BY doc_id
""",
        # exact word-3-gram Jaccard near-dup pairs (tau = 0.2); the SQL
        # mirrors the engine's inverted-index join shape
        "dedup_ngram_jaccard": "WITH " + _NGRAM_CTE + r"""
SELECT da AS doc_id_a, db AS doc_id_b, CAST(i AS BIGINT) AS n_common,
       ROUND(i * 1.0 / (ca.n + cb.n - i), 6) AS jaccard
FROM inter JOIN cnt ca ON inter.da = ca.doc_id JOIN cnt cb ON inter.db = cb.doc_id
WHERE i * 1.0 / (ca.n + cb.n - i) >= 0.2
ORDER BY doc_id_a, doc_id_b
""",
        # prefix-filtering AllPairs near-dup (dedup.dedup_prefix_filter):
        # LOSSLESS candidates + exact verify == the all-pairs result at
        # tau 0.8, so the twin is the shared shingle CTE at 0.8
        "dedup_prefix_filter": "WITH " + _NGRAM_CTE + r"""
SELECT da AS doc_id_a, db AS doc_id_b, CAST(i AS BIGINT) AS n_common,
       ROUND(i * 1.0 / (ca.n + cb.n - i), 6) AS jaccard
FROM inter JOIN cnt ca ON inter.da = ca.doc_id JOIN cnt cb ON inter.db = cb.doc_id
WHERE i * 1.0 / (ca.n + cb.n - i) >= 0.8
ORDER BY doc_id_a, doc_id_b
""",
        # asymmetric containment near-dup (dedup.dedup_containment):
        # same shingle CTE, min-side denominator instead of the union
        "dedup_containment": "WITH " + _NGRAM_CTE + r"""
SELECT da AS doc_id_a, db AS doc_id_b, CAST(i AS BIGINT) AS n_common,
       ROUND(i * 1.0 / LEAST(ca.n, cb.n), 6) AS containment
FROM inter JOIN cnt ca ON inter.da = ca.doc_id JOIN cnt cb ON inter.db = cb.doc_id
WHERE i * 1.0 / LEAST(ca.n, cb.n) >= 0.8
ORDER BY doc_id_a, doc_id_b
""",
        # triangle census of the near-dup graph (dedup.pair_triangles)
        "pair_triangles": "WITH " + _NGRAM_CTE + r""",
pairs AS (
  SELECT da, db
  FROM inter JOIN cnt ca ON inter.da = ca.doc_id
             JOIN cnt cb ON inter.db = cb.doc_id
  WHERE i * 1.0 / (ca.n + cb.n - i) >= 0.2
),
fa AS (SELECT da, CAST(COUNT(*) AS BIGINT) AS d FROM pairs GROUP BY da)
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM pairs) AS n_edges,
       (SELECT CAST(COALESCE(SUM(d * (d - 1) // 2), 0) AS BIGINT)
        FROM fa) AS n_wedges,
       (SELECT CAST(COUNT(*) AS BIGINT)
        FROM pairs p1
        JOIN pairs p2 ON p2.da = p1.db
        JOIN pairs p3 ON p3.da = p1.da AND p3.db = p2.db) AS n_triangles
""",
        # fuzzy (Levenshtein) near-dup pairs (dedup.dedup_edit_distance):
        # same shared-shingle blocking as the Jaccard family, verified
        # with exact edit distance <= 16
        "dedup_edit_distance": "WITH " + _NGRAM_CTE + r"""
SELECT da AS doc_id_a, db AS doc_id_b,
       CAST(levenshtein(ta.text, tb.text) AS BIGINT) AS dist
FROM inter
JOIN documents ta ON ta.doc_id = da
JOIN documents tb ON tb.doc_id = db
WHERE levenshtein(ta.text, tb.text) <= 16
ORDER BY doc_id_a, doc_id_b
""",
        # near-dup clusters: connected components over the same exact
        # pair graph via a recursive label-reach CTE; min label per
        # component = cluster_id, keep = canonical representative
        # near-dup cluster size histogram (dedup.cluster_size_hist):
        # the dedup_clusters recursive-CC twin, folded to sizes
        "cluster_size_hist": "WITH RECURSIVE " + _NGRAM_CTE + r""",
pairs AS (
  SELECT da, db
  FROM inter JOIN cnt ca ON inter.da = ca.doc_id JOIN cnt cb ON inter.db = cb.doc_id
  WHERE i * 1.0 / (ca.n + cb.n - i) >= 0.2
),
edges AS (SELECT da AS a, db AS b FROM pairs UNION ALL SELECT db, da FROM pairs),
reach(node, label) AS (
  SELECT DISTINCT a, a FROM edges
  UNION
  SELECT e.b, r.label FROM reach r JOIN edges e ON e.a = r.node
),
labels AS (SELECT node, MIN(label) AS label FROM reach GROUP BY node),
sizes AS (SELECT label, CAST(COUNT(*) AS BIGINT) AS sz FROM labels GROUP BY label)
SELECT sz AS cluster_size, CAST(COUNT(*) AS BIGINT) AS n_clusters
FROM sizes GROUP BY sz ORDER BY sz
""",
        "dedup_clusters": "WITH RECURSIVE " + _NGRAM_CTE + r""",
pairs AS (
  SELECT da, db
  FROM inter JOIN cnt ca ON inter.da = ca.doc_id JOIN cnt cb ON inter.db = cb.doc_id
  WHERE i * 1.0 / (ca.n + cb.n - i) >= 0.2
),
edges AS (SELECT da AS a, db AS b FROM pairs UNION ALL SELECT db, da FROM pairs),
reach(node, label) AS (
  SELECT DISTINCT a, a FROM edges
  UNION
  SELECT e.b, r.label FROM reach r JOIN edges e ON e.a = r.node
),
labels AS (SELECT node, MIN(label) AS label FROM reach GROUP BY node)
SELECT d.doc_id,
       CAST(COALESCE(l.label, d.doc_id) AS BIGINT) AS cluster_id,
       COALESCE(l.label, d.doc_id) = d.doc_id AS keep
FROM documents d LEFT JOIN labels l ON l.node = d.doc_id
ORDER BY d.doc_id
""",
        # benchmark decontamination: distinct word-3-gram overlap between
        # each corpus doc and the (doc_id % 50 = 7) eval set; ratio in
        # integer basis points — bit-exact on both sides
        "decontaminate": r"""
WITH arr AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS ws FROM documents
),
sh AS (
  SELECT doc_id, unnest(list_distinct(
    list_transform(range(1, len(ws) - 1), i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2])
  )) AS shingle
  FROM arr WHERE len(ws) >= 3
),
ev AS (SELECT DISTINCT shingle FROM sh WHERE doc_id % 50 = 7),
c AS (
  SELECT s.doc_id, COUNT(*) AS n_sh, COUNT(e.shingle) AS n_hit
  FROM sh s LEFT JOIN ev e USING (shingle)
  WHERE s.doc_id % 50 <> 7 GROUP BY s.doc_id
)
SELECT d.doc_id,
       CAST(COALESCE(c.n_sh, 0) AS BIGINT) AS n_shingles,
       CAST(COALESCE(c.n_hit, 0) AS BIGINT) AS n_contaminated,
       CAST(COALESCE(c.n_hit, 0) * 10000 // GREATEST(COALESCE(c.n_sh, 0), 1)
            AS BIGINT) AS contam_bp,
       COALESCE(c.n_hit, 0) > 0 AS contaminated
FROM documents d LEFT JOIN c USING (doc_id)
WHERE d.doc_id % 50 <> 7
ORDER BY d.doc_id
""",
        # MinHash+LSH near-dup with banding candidates reproduced in SQL
        # (perm coefficients inlined; band keys folded with the same
        # mul-mix/xor Horner); exact-Jaccard verify over distinct
        # shingle hashes
        "dedup_minhash_lsh": _minhash_sql(),
        # sketch-vs-exact calibration (dedup.minhash_calibration)
        "minhash_calibration": _minhash_calibration_sql(),
        "dup_span_coverage": _dupspan_sql(),
        # n-gram novelty (dedup.ngram_novelty): shingle owner = MIN
        # doc_id; novelty = a doc's share of self-owned shingles
        "ngram_novelty": """
WITH arr AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\\S+') AS ws FROM documents
),
sh AS (
  SELECT doc_id, unnest(list_distinct(
    list_transform(range(1, len(ws) - 1), i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2])
  )) AS shingle
  FROM arr WHERE len(ws) >= 3
),
mn AS (SELECT shingle, MIN(doc_id) AS own FROM sh GROUP BY shingle)
SELECT s.doc_id, CAST(COUNT(*) AS BIGINT) AS n_shingles,
       CAST(SUM(CASE WHEN m.own = s.doc_id THEN 1 ELSE 0 END) AS BIGINT) AS n_novel
FROM sh s JOIN mn m USING (shingle)
GROUP BY s.doc_id ORDER BY s.doc_id
""",
        "top_spans": _topspans_sql(),
        "pair_pagerank": _pagerank_sql(),
        "mixture_sample": _mixsample_sql(),
        # simhash clustering: the dedup_clusters recursive closure over
        # the simhash pair graph (the _simhash_sql pair query inlined)
        "simhash_clusters": (
            "WITH RECURSIVE pairs AS (\n  SELECT doc_id_a AS da, doc_id_b AS db"
            "\n  FROM (" + _simhash_sql() + ") sp\n),\n" + r"""
edges AS (SELECT da AS a, db AS b FROM pairs UNION ALL SELECT db, da FROM pairs),
reach(node, label) AS (
  SELECT DISTINCT a, a FROM edges
  UNION
  SELECT e.b, r.label FROM reach r JOIN edges e ON e.a = r.node
),
labels AS (SELECT node, MIN(label) AS label FROM reach GROUP BY node)
SELECT d.doc_id,
       CAST(COALESCE(l.label, d.doc_id) AS BIGINT) AS cluster_id,
       COALESCE(l.label, d.doc_id) = d.doc_id AS keep
FROM documents d LEFT JOIN labels l ON l.node = d.doc_id
ORDER BY d.doc_id
"""
        ),
        # SimHash near-dup: the pigeonhole candidates + popcount verify
        # are exact for hamming <= 3, so the twin is the quadratic form
        "dedup_simhash": _simhash_sql(),
        # distributed total-order sort (text.quality_rank): global rank
        # by the exact quality ints, range-partitioned in the engine
        "quality_rank": r"""
WITH q AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS ws FROM documents
),
m AS (
  SELECT doc_id,
         len(list_filter(ws, w -> list_contains(
             ['the','a','and','of','to','table','row','value','key','fast'], w)))
           * 10000 // GREATEST(len(ws), 1) AS stop_ratio_bp
  FROM q
)
SELECT CAST(ROW_NUMBER() OVER (ORDER BY stop_ratio_bp DESC, doc_id) AS BIGINT)
           AS rnk,
       doc_id, CAST(stop_ratio_bp AS BIGINT) AS stop_ratio_bp
FROM m ORDER BY rnk
""",
        "quality_score": r"""
WITH q AS (
  SELECT doc_id, text, regexp_extract_all(lower(text), '\S+') AS ws
  FROM documents
),
m AS (
  SELECT doc_id,
         len(ws) AS n_tokens,
         len(list_filter(ws, w -> list_contains(
             ['the','a','and','of','to','table','row','value','key','fast'], w)))
             AS n_stop,
         COALESCE(list_sum(list_transform(ws, w -> length(w))), 0) AS sum_len,
         length(regexp_extract_all(text, '[.,!?;:]')) AS n_punct
  FROM q
)
SELECT doc_id,
       CAST(n_tokens AS BIGINT) AS n_tokens,
       CAST(n_stop AS BIGINT) AS n_stop,
       CAST(n_stop * 10000 // GREATEST(n_tokens, 1) AS BIGINT) AS stop_ratio_bp,
       CAST(sum_len * 10000 // GREATEST(n_tokens, 1) AS BIGINT) AS mean_tok_len_bp,
       CAST(n_punct AS BIGINT) AS n_punct,
       (n_tokens BETWEEN 10 AND 1000)
         AND (n_stop * 10000 // GREATEST(n_tokens, 1) >= 100)
         AND (sum_len * 10000 // GREATEST(n_tokens, 1) <= 120000) AS quality_ok
FROM m ORDER BY doc_id
""",
        # content-filter rule pack (both engines run RE2, so the counts
        # agree exactly); flag thresholds mirror text._CONTENT_RULES
        "content_flags": r"""
SELECT doc_id,
       CAST(length(regexp_extract_all(text, 'https?://[^\s]+')) AS BIGINT)
           AS n_urls,
       CAST(length(regexp_extract_all(text,
            '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS BIGINT)
           AS n_emails,
       CAST(length(regexp_extract_all(text, '[0-9]{7,}')) AS BIGINT)
           AS n_long_numbers,
       length(regexp_extract_all(text, 'https?://[^\s]+')) <= 3
         AND length(regexp_extract_all(text,
             '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) = 0
           AS content_ok
FROM documents ORDER BY doc_id
""",
        # PII redaction twin: the same rule pack applied SEQUENTIALLY
        # (each stage counts matches in the already-masked text of the
        # previous stage, exactly like the kernel's fold over
        # _CONTENT_RULES); both engines run RE2, so the rewrites agree
        # byte-for-byte
        # per-(source, rule) PII exposure census (text.pii_census):
        # the redact rule pack's counts folded per feed
        # Markov steady state (relational.event_stationary)
        "event_stationary": _stationary_sql(),
        # pairwise feed divergence (text.source_tv_distance): exact
        # cross-multiplied total variation over the shared vocabulary
        "source_tv_distance": r"""
WITH tok AS (
  SELECT source, unnest(regexp_extract_all(text, '\S+')) AS w FROM documents
),
c AS (SELECT source, w, CAST(COUNT(*) AS HUGEINT) AS n FROM tok GROUP BY 1, 2),
tot AS (SELECT source, CAST(SUM(n) AS HUGEINT) AS nt FROM c GROUP BY source),
x AS (SELECT a.source AS sa, b.source AS sb, a.nt AS na, b.nt AS nb
      FROM tot a JOIN tot b ON a.source < b.source),
v AS (SELECT DISTINCT w FROM c),
d AS (
  SELECT x.sa, x.sb, ANY_VALUE(x.na) AS na, ANY_VALUE(x.nb) AS nb,
         SUM(ABS(COALESCE(ca.n, 0) * x.nb - COALESCE(cb.n, 0) * x.na)) AS s
  FROM x CROSS JOIN v
  LEFT JOIN c ca ON ca.source = x.sa AND ca.w = v.w
  LEFT JOIN c cb ON cb.source = x.sb AND cb.w = v.w
  GROUP BY x.sa, x.sb
)
SELECT sa AS source_a, sb AS source_b,
       CAST((1000000 * s) // (2 * na * nb) AS BIGINT) AS tv_micro
FROM d ORDER BY source_a, source_b
""",
        "pii_census": r"""
WITH c AS (
  SELECT source,
         length(regexp_extract_all(text, 'https?://[^\s]+')) AS n_urls,
         length(regexp_extract_all(text,
             '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS n_emails,
         length(regexp_extract_all(text, '[0-9]{7,}')) AS n_long_numbers
  FROM documents
),
u AS (
  SELECT source, 'n_urls' AS rule, n_urls AS n FROM c
  UNION ALL SELECT source, 'n_emails', n_emails FROM c
  UNION ALL SELECT source, 'n_long_numbers', n_long_numbers FROM c
)
SELECT source, rule,
       CAST(SUM(CASE WHEN n > 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_docs,
       CAST(SUM(n) AS BIGINT) AS n_matches
FROM u GROUP BY source, rule ORDER BY source, rule
""",
        "redact_text": r"""
WITH s1 AS (
  SELECT doc_id,
         length(regexp_extract_all(text, 'https?://[^\s]+')) AS c1,
         regexp_replace(text, 'https?://[^\s]+', '<URL>', 'g') AS t
  FROM documents
), s2 AS (
  SELECT doc_id, c1,
         length(regexp_extract_all(t,
             '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS c2,
         regexp_replace(t,
             '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
             '<EMAIL>', 'g') AS t
  FROM s1
), s3 AS (
  SELECT doc_id, c1, c2,
         length(regexp_extract_all(t, '[0-9]{7,}')) AS c3,
         regexp_replace(t, '[0-9]{7,}', '<NUM>', 'g') AS t
  FROM s2
)
SELECT doc_id, t AS text_redacted,
       CAST(c1 + c2 + c3 AS BIGINT) AS n_redacted,
       (c1 + c2 + c3) > 0 AS redacted
FROM s3 ORDER BY doc_id
""",
        # the flagship export composition: every hygiene gate's boolean
        # + the final keep conjunction, over non-eval docs; each CTE is
        # the corresponding standalone twin's rule verbatim
        "corpus_export": r"""
WITH base AS (
  SELECT doc_id, text FROM documents
  WHERE doc_id % 50 <> 7
),
w AS (SELECT doc_id, text, regexp_extract_all(lower(text), '\S+') AS ws
      FROM base),
q AS (
  SELECT doc_id,
         len(ws) AS nt,
         len(list_filter(ws, w -> list_contains(
             ['the','a','and','of','to','table','row','value','key','fast'], w)))
             AS ns,
         COALESCE(list_sum(list_transform(ws, w -> length(w))), 0) AS sl,
         GREATEST(len(ws) - 1, 0) AS n2,
         GREATEST(len(ws) - 2, 0) AS n3,
         len(list_distinct(list_transform(range(1, len(ws)),
             i -> ws[i] || ' ' || ws[i+1]))) AS d2,
         len(list_distinct(list_transform(range(1, len(ws) - 1),
             i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2]))) AS d3,
         length(regexp_extract_all(text, 'https?://[^\s]+')) AS urls,
         length(regexp_extract_all(text,
             '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS emails
  FROM w
),
dd AS (
  SELECT doc_id,
         doc_id = MIN(doc_id) OVER (PARTITION BY text) AS dedup_keep
  FROM documents
),
sh AS (
  SELECT doc_id, unnest(list_distinct(
    list_transform(range(1, len(ws) - 1),
        i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2])
  )) AS shingle
  FROM (SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS ws
        FROM documents) WHERE len(ws) >= 3
),
ev AS (SELECT DISTINCT shingle FROM sh WHERE doc_id % 50 = 7),
hits AS (
  SELECT s.doc_id, COUNT(e.shingle) AS n_hit
  FROM sh s LEFT JOIN ev e USING (shingle)
  WHERE s.doc_id % 50 <> 7 GROUP BY s.doc_id
)
SELECT q.doc_id,
       (nt BETWEEN 10 AND 1000)
         AND (ns * 10000 // GREATEST(nt, 1) >= 100)
         AND (sl * 10000 // GREATEST(nt, 1) <= 120000) AS quality_ok,
       (n2 - d2) * 10000 // GREATEST(n2, 1) <= 2000
         AND (n3 - d3) * 10000 // GREATEST(n3, 1) <= 1800 AS rep_ok,
       urls <= 3 AND emails = 0 AS content_ok,
       dd.dedup_keep AS dedup_keep,
       COALESCE(hits.n_hit, 0) = 0 AS decontam_ok,
       (nt BETWEEN 10 AND 1000)
         AND (ns * 10000 // GREATEST(nt, 1) >= 100)
         AND (sl * 10000 // GREATEST(nt, 1) <= 120000)
         AND (n2 - d2) * 10000 // GREATEST(n2, 1) <= 2000
         AND (n3 - d3) * 10000 // GREATEST(n3, 1) <= 1800
         AND urls <= 3 AND emails = 0
         AND dd.dedup_keep
         AND COALESCE(hits.n_hit, 0) = 0 AS keep
FROM q
JOIN dd USING (doc_id)
LEFT JOIN hits USING (doc_id)
ORDER BY doc_id
""",
        # Gopher-style repetition filter: duplicate n-gram INSTANCE
        # ratios in integer basis points; token rule and gram joins
        # match the kernel's _tokenize exactly
        "repetition_stats": r"""
WITH arr AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS ws FROM documents
), m AS (
  SELECT doc_id,
         GREATEST(len(ws) - 1, 0) AS n2,
         GREATEST(len(ws) - 2, 0) AS n3,
         len(list_distinct(list_transform(range(1, len(ws)),
             i -> ws[i] || ' ' || ws[i+1]))) AS d2,
         len(list_distinct(list_transform(range(1, len(ws) - 1),
             i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2]))) AS d3
  FROM arr
)
SELECT doc_id,
       CAST(n2 AS BIGINT) AS n_2grams,
       CAST(n2 - d2 AS BIGINT) AS n_dup_2grams,
       CAST((n2 - d2) * 10000 // GREATEST(n2, 1) AS BIGINT) AS dup2_bp,
       CAST(n3 AS BIGINT) AS n_3grams,
       CAST(n3 - d3 AS BIGINT) AS n_dup_3grams,
       CAST((n3 - d3) * 10000 // GREATEST(n3, 1) AS BIGINT) AS dup3_bp,
       (n2 - d2) * 10000 // GREATEST(n2, 1) <= 2000
         AND (n3 - d3) * 10000 // GREATEST(n3, 1) <= 1800 AS rep_ok
FROM m ORDER BY doc_id
""",
        # exact per-language length quantiles (bounded-domain histogram
        # fold); discrete-quantile rule matches quantile_disc exactly
        "lang_char_quantiles": """
SELECT lang,
       CAST(unnest([0.25, 0.5, 0.9, 0.99]) AS DOUBLE) AS q,
       CAST(unnest(quantile_disc(n_chars, [0.25, 0.5, 0.9, 0.99])) AS BIGINT)
           AS n_chars_q
FROM documents GROUP BY lang ORDER BY lang, q
""",
        # language-ID is fully relational: fit = top-30 (lang, token)
        # window rank on the doc_id % 10 = 0 sample; predict = argmax of
        # distinct-token profile overlap, ties -> lexicographically
        # smallest language (the kernel's argmax-first semantics)
        "lang_id": r"""
WITH toks AS (
  SELECT doc_id, lang, unnest(regexp_extract_all(lower(text), '\S+')) AS token
  FROM documents
),
vocab AS (
  SELECT lang, token, COUNT(*) AS n
  FROM toks WHERE doc_id % 10 = 0 GROUP BY lang, token
),
prof AS (
  SELECT lang, token FROM (
    SELECT lang, token,
           ROW_NUMBER() OVER (PARTITION BY lang ORDER BY n DESC, token ASC) AS rn
    FROM vocab
  ) WHERE rn <= 30
),
langs AS (SELECT DISTINCT lang FROM vocab),
dt AS (SELECT DISTINCT doc_id, token FROM toks),
sc AS (
  SELECT dt.doc_id, prof.lang, COUNT(*) AS s
  FROM dt JOIN prof USING (token)
  GROUP BY 1, 2
),
allsc AS (
  SELECT d.doc_id, l.lang, COALESCE(sc.s, 0) AS s
  FROM documents d CROSS JOIN langs l
  LEFT JOIN sc ON sc.doc_id = d.doc_id AND sc.lang = l.lang
),
pred AS (
  SELECT doc_id, lang AS lang_pred FROM (
    SELECT doc_id, lang, s,
           ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY s DESC, lang ASC) AS rn
    FROM allsc
  ) WHERE rn = 1
)
SELECT d.doc_id, p.lang_pred, d.lang AS lang_true,
       p.lang_pred = d.lang AS correct
FROM documents d JOIN pred p USING (doc_id)
ORDER BY d.doc_id
""",
        # classifier confusion matrix (text.lang_confusion): the lang_id
        # CTE chain, aggregated to (true, pred) counts
        "lang_confusion": r"""
WITH toks AS (
  SELECT doc_id, lang, unnest(regexp_extract_all(lower(text), '\S+')) AS token
  FROM documents
),
vocab AS (
  SELECT lang, token, COUNT(*) AS n
  FROM toks WHERE doc_id % 10 = 0 GROUP BY lang, token
),
prof AS (
  SELECT lang, token FROM (
    SELECT lang, token,
           ROW_NUMBER() OVER (PARTITION BY lang ORDER BY n DESC, token ASC) AS rn
    FROM vocab
  ) WHERE rn <= 30
),
langs AS (SELECT DISTINCT lang FROM vocab),
dt AS (SELECT DISTINCT doc_id, token FROM toks),
sc AS (
  SELECT dt.doc_id, prof.lang, COUNT(*) AS s
  FROM dt JOIN prof USING (token)
  GROUP BY 1, 2
),
allsc AS (
  SELECT d.doc_id, l.lang, COALESCE(sc.s, 0) AS s
  FROM documents d CROSS JOIN langs l
  LEFT JOIN sc ON sc.doc_id = d.doc_id AND sc.lang = l.lang
),
pred AS (
  SELECT doc_id, lang AS lang_pred FROM (
    SELECT doc_id, lang, s,
           ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY s DESC, lang ASC) AS rn
    FROM allsc
  ) WHERE rn = 1
)
SELECT d.lang AS lang_true, p.lang_pred,
       CAST(COUNT(*) AS BIGINT) AS n_docs
FROM documents d JOIN pred p USING (doc_id)
GROUP BY 1, 2 ORDER BY 1, 2
""",
        # integer-exact tf-idf (idf_scaled = 1e6 * N // df) — floats would
        # make DuckDB ln() vs numpy log() a cross-engine hazard; linear
        # idf keeps the ranking and the values bit-equal
        "tfidf_top_terms": r"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '\S+')) AS token
  FROM documents
),
tf AS (SELECT doc_id, token, COUNT(*) AS tf FROM tok GROUP BY 1, 2),
df AS (
  SELECT token, COUNT(*) AS df
  FROM (SELECT DISTINCT doc_id, token FROM tok) GROUP BY 1
),
n AS (SELECT COUNT(*) AS n FROM documents),
s AS (
  SELECT doc_id, token, tf, df, tf * (1000000 * n.n // df) AS score
  FROM tf JOIN df USING (token) CROSS JOIN n
),
r AS (
  SELECT *, ROW_NUMBER() OVER (
    PARTITION BY doc_id ORDER BY score DESC, token ASC) AS rnk
  FROM s
)
SELECT doc_id, token, CAST(tf AS BIGINT) AS tf, CAST(df AS BIGINT) AS df,
       CAST(score AS BIGINT) AS score, CAST(rnk AS BIGINT) AS rank
FROM r WHERE rnk <= 5 ORDER BY doc_id, rank
""",
        # tokenizer cost model per lang (text.token_fertility)
        # ingest-frontier burst leaderboard (text.trending_tokens)
        "trending_tokens": r"""
WITH mx AS (SELECT ((MAX(doc_id) + 1) * 4) // 5 AS cutoff FROM documents),
tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '\S+')) AS w
  FROM documents
),
c AS (
  SELECT w,
         CAST(SUM(CASE WHEN doc_id >= mx.cutoff THEN 1 ELSE 0 END)
              AS HUGEINT) AS cr,
         CAST(COUNT(*) AS HUGEINT) AS ct
  FROM tok, mx GROUP BY w
),
tots AS (SELECT SUM(cr) AS nr, SUM(ct) AS nt FROM c)
SELECT w AS token, CAST(ct AS BIGINT) AS n_total,
       CAST(cr AS BIGINT) AS n_recent,
       CAST((10000 * cr * tots.nt) // (ct * tots.nr) AS BIGINT) AS burst_bp
FROM c, tots WHERE ct >= 5
ORDER BY burst_bp DESC, token LIMIT 20
""",
        "token_fertility": r"""
WITH c AS (
  SELECT lang,
         length(regexp_extract_all(lower(text), '[a-z]+'))
           + length(regexp_extract_all(lower(text), '[0-9]+'))
           + length(regexp_extract_all(lower(text), '[^a-z0-9\s]')) AS bpe,
         length(regexp_extract_all(lower(text), '\S+')) AS w
  FROM documents
)
SELECT lang, CAST(SUM(bpe) AS BIGINT) AS n_bpe_tokens,
       CAST(SUM(w) AS BIGINT) AS n_words,
       CAST(10000 * SUM(bpe) // GREATEST(SUM(w), 1) AS BIGINT)
           AS fertility_bp
FROM c GROUP BY lang ORDER BY lang
""",
        "tokenize_bpe": r"""
WITH c AS (
  SELECT doc_id,
         CAST(length(regexp_extract_all(lower(text), '[a-z]+')) AS BIGINT) AS n_alpha_runs,
         CAST(length(regexp_extract_all(lower(text), '[0-9]+')) AS BIGINT) AS n_num_runs,
         CAST(length(regexp_extract_all(lower(text), '[^a-z0-9\s]')) AS BIGINT) AS n_marks
  FROM documents
)
SELECT doc_id, n_alpha_runs, n_num_runs, n_marks,
       n_alpha_runs + n_num_runs + n_marks AS n_bpe_tokens
FROM c ORDER BY doc_id
""",
        "cdc_apply": CHANGELOG_CTE + _FINAL_STATE.format(extra_cols=""),
        # inter-turn latency profile (cdcq.cdc_conv_gaps): microsecond
        # gaps between consecutive live turn_idx positions per conv
        "cdc_conv_gaps": CHANGELOG_CTE + """
, final AS (
    SELECT conv_id, turn_idx, ts
    FROM (
        SELECT ch.*, ROW_NUMBER() OVER (
            PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
        FROM ch
    )
    WHERE rn = 1 AND op <> 'D'
),
g AS (
    SELECT conv_id,
           epoch_us(ts) - LAG(epoch_us(ts)) OVER (
               PARTITION BY conv_id ORDER BY turn_idx) AS gap
    FROM final
)
SELECT conv_id, CAST(COUNT(*) AS BIGINT) AS n_turns,
       CAST(COALESCE(SUM(gap), 0) AS BIGINT) AS gap_sum_us,
       CAST(COALESCE(MAX(gap), 0) AS BIGINT) AS gap_max_us
FROM g GROUP BY conv_id ORDER BY conv_id
""",
        # changelog hygiene audit (cdcq.cdc_orphan_tombstones):
        # deletes whose key never saw an earlier insert/update
        "cdc_orphan_tombstones": CHANGELOG_CTE + """
, f AS (
  SELECT conv_id, turn_idx, lsn, op,
         SUM(CASE WHEN op IN ('I', 'U') THEN 1 ELSE 0 END) OVER (
             PARTITION BY conv_id, turn_idx ORDER BY lsn
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS prior_up
  FROM ch
)
SELECT conv_id, CAST(COUNT(*) AS BIGINT) AS n_orphan_deletes
FROM f WHERE op = 'D' AND COALESCE(prior_up, 0) = 0
GROUP BY conv_id ORDER BY conv_id
""",
        # FIRST/LAST projection (cdcq.cdc_conv_first_last)
        # role-transition grammar over the replayed state
        # (cdcq.cdc_role_bigrams)
        # per-role live-turn length order statistics
        # (cdcq.cdc_turn_len_quantiles): the integer-rank rule both
        # sides share — smallest len whose cumulative count reaches
        # ceil(q*n)
        # assistant responsiveness SLO (cdcq.cdc_reply_latency): exact
        # P50/P90 of user->assistant gaps over the replayed state, the
        # ceil-rank rule; negative gaps excluded and counted
        # edit churn by first-seen cohort (cdcq.cdc_cohort_churn)
        "cdc_cohort_churn": CHANGELOG_CTE + """
, c AS (
  SELECT conv_id, MIN(lsn) // 2500 AS first_epoch,
         CAST(COUNT(*) AS BIGINT) AS n_ops
  FROM ch GROUP BY conv_id
)
SELECT CAST(first_epoch AS BIGINT) AS first_epoch,
       CAST(COUNT(*) AS BIGINT) AS n_convs,
       CAST(SUM(n_ops) AS BIGINT) AS n_ops,
       CAST(1000000 * SUM(n_ops) // COUNT(*) AS BIGINT)
           AS ops_per_conv_micro
FROM c GROUP BY first_epoch ORDER BY first_epoch
""",
        "cdc_reply_latency": CHANGELOG_CTE + """
, final AS (
    SELECT conv_id, turn_idx, role, ts
    FROM (
        SELECT ch.*, ROW_NUMBER() OVER (
            PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
        FROM ch
    )
    WHERE rn = 1 AND op <> 'D'
),
g AS (
    SELECT epoch_us(LEAD(ts) OVER w) - epoch_us(ts) AS gap,
           role AS r0, LEAD(role) OVER w AS r1
    FROM final WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx)
),
ua AS (SELECT gap FROM g WHERE r0 = 'user' AND r1 = 'assistant'),
ok AS (
    SELECT gap, ROW_NUMBER() OVER (ORDER BY gap) AS rk,
           COUNT(*) OVER () AS n
    FROM ua WHERE gap >= 0
)
SELECT CAST(COALESCE(ANY_VALUE(n), 0) AS BIGINT) AS n_pairs,
       CAST((SELECT COUNT(*) FROM ua WHERE gap < 0) AS BIGINT) AS n_negative,
       CAST(MIN(CASE WHEN rk >= (50 * n + 99) // 100 THEN gap END)
            AS BIGINT) AS p50_us,
       CAST(MIN(CASE WHEN rk >= (90 * n + 99) // 100 THEN gap END)
            AS BIGINT) AS p90_us
FROM ok
""",
        "cdc_turn_len_quantiles": CHANGELOG_CTE + """
, final AS (
    SELECT conv_id, turn_idx, role, text
    FROM (
        SELECT ch.*, ROW_NUMBER() OVER (
            PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
        FROM ch
    )
    WHERE rn = 1 AND op <> 'D'
),
l AS (SELECT role, CAST(octet_length(encode(text)) AS BIGINT) AS len
      FROM final),
r AS (
  SELECT role, len,
         ROW_NUMBER() OVER (PARTITION BY role ORDER BY len) AS rk,
         COUNT(*) OVER (PARTITION BY role) AS n
  FROM l
)
SELECT role, CAST(ANY_VALUE(n) AS BIGINT) AS n_turns,
       CAST(MIN(CASE WHEN rk >= (1 * n + 1) // 2 THEN len END)
            AS BIGINT) AS p50_len,
       CAST(MIN(CASE WHEN rk >= (9 * n + 9) // 10 THEN len END)
            AS BIGINT) AS p90_len
FROM r GROUP BY role ORDER BY role
""",
        "cdc_role_bigrams": CHANGELOG_CTE + """
, final AS (
    SELECT conv_id, turn_idx, role
    FROM (
        SELECT ch.*, ROW_NUMBER() OVER (
            PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
        FROM ch
    )
    WHERE rn = 1 AND op <> 'D'
),
s AS (
    SELECT role AS role_from,
           LEAD(role) OVER (PARTITION BY conv_id ORDER BY turn_idx)
               AS role_to
    FROM final
)
SELECT role_from, role_to, CAST(COUNT(*) AS BIGINT) AS n
FROM s WHERE role_to IS NOT NULL
GROUP BY 1, 2 ORDER BY role_from, role_to
""",
        "cdc_conv_first_last": CHANGELOG_CTE + """
, final AS (
    SELECT conv_id, turn_idx, text
    FROM (
        SELECT ch.*, ROW_NUMBER() OVER (
            PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
        FROM ch
    )
    WHERE rn = 1 AND op <> 'D'
),
w AS (
    SELECT conv_id, turn_idx, text,
           ROW_NUMBER() OVER (
               PARTITION BY conv_id ORDER BY turn_idx ASC) AS rf,
           ROW_NUMBER() OVER (
               PARTITION BY conv_id ORDER BY turn_idx DESC) AS rl
    FROM final
)
SELECT f.conv_id,
       f.turn_idx AS first_turn_idx, f.text AS first_text,
       l.turn_idx AS last_turn_idx, l.text AS last_text
FROM (SELECT * FROM w WHERE rf = 1) f
JOIN (SELECT * FROM w WHERE rl = 1) l USING (conv_id)
ORDER BY conv_id
""",
        # state ⋈ telemetry enrichment (cdcq.cdc_conv_activity): live
        # conversations joined with their owner's event aggregates
        "cdc_conv_activity": CHANGELOG_CTE + """
, final AS (
    SELECT conv_id, turn_idx
    FROM (
        SELECT ch.*, ROW_NUMBER() OVER (
            PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
        FROM ch
    )
    WHERE rn = 1 AND op <> 'D'
),
conv AS (
    SELECT conv_id, CAST(COUNT(*) AS BIGINT) AS n_turns
    FROM final GROUP BY conv_id
),
ev AS (
    SELECT 'c' || CAST(user_id AS VARCHAR) AS conv_id,
           CAST(COUNT(*) AS BIGINT) AS n_events,
           CAST(MAX(epoch_us(ts)) AS BIGINT) AS last_event_ts_us
    FROM events GROUP BY 1
)
SELECT conv.conv_id, conv.n_turns, ev.n_events, ev.last_event_ts_us
FROM conv JOIN ev USING (conv_id) ORDER BY conv_id
""",
        # tool co-occurrence (cdcq.cdc_tool_cooccurrence): unordered
        # tool pairs sharing a conversation in the live state
        "cdc_tool_cooccurrence": CHANGELOG_CTE + """
, final AS (
    SELECT conv_id, tool
    FROM (
        SELECT ch.*, ROW_NUMBER() OVER (
            PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
        FROM ch
    )
    WHERE rn = 1 AND op <> 'D' AND tool IS NOT NULL
),
tt AS (SELECT DISTINCT conv_id, tool FROM final)
SELECT a.tool AS tool_a, b.tool AS tool_b,
       CAST(COUNT(*) AS BIGINT) AS n_convs
FROM tt a JOIN tt b ON a.conv_id = b.conv_id AND a.tool < b.tool
GROUP BY 1, 2 ORDER BY n_convs DESC, tool_a ASC, tool_b ASC
""",
        # watermark / late-data accounting (cdcq.cdc_late_arrivals):
        # events whose ts undercuts the max ts of all EARLIER epochs
        "cdc_late_arrivals": CHANGELOG_CTE + """
, ep AS (
    SELECT lsn // 2500 AS epoch,
           CASE WHEN op <> 'D' THEN epoch_us(ts) END AS ts_us
    FROM ch
),
wm AS (
    SELECT epoch, CAST(COUNT(*) AS BIGINT) AS n_events,
           MAX(ts_us) AS ep_max,
           MAX(MAX(ts_us)) OVER (ORDER BY epoch
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS wm_in
    FROM ep GROUP BY epoch
)
SELECT w.epoch, w.n_events,
       CAST(COALESCE(SUM(CASE WHEN e.ts_us < w.wm_in THEN 1 END), 0)
            AS BIGINT) AS n_late,
       CAST(COALESCE(w.ep_max, -1) AS BIGINT) AS epoch_max_ts_us
FROM wm w JOIN ep e USING (epoch)
GROUP BY w.epoch, w.n_events, w.ep_max
ORDER BY epoch
""",
        # SCD2 version history (cdcq.cdc_version_history): each event's
        # validity closes at its key's next lsn (null = current)
        # overwrite-churn census (cdcq.cdc_edit_wars)
        # per-epoch new vs returning conversations (cdcq.cdc_conv_novelty)
        "cdc_conv_novelty": CHANGELOG_CTE + """
, ce AS (SELECT DISTINCT conv_id, lsn // 2500 AS epoch FROM ch),
fe AS (SELECT conv_id, MIN(epoch) AS first_epoch FROM ce GROUP BY conv_id)
SELECT ce.epoch, CAST(COUNT(*) AS BIGINT) AS n_active,
       CAST(SUM(CASE WHEN fe.first_epoch = ce.epoch THEN 1 ELSE 0 END)
            AS BIGINT) AS n_new,
       CAST(SUM(CASE WHEN fe.first_epoch = ce.epoch THEN 0 ELSE 1 END)
            AS BIGINT) AS n_returning
FROM ce JOIN fe USING (conv_id)
GROUP BY ce.epoch ORDER BY ce.epoch
""",
        # changelog op mix per role (cdcq.cdc_op_mix_by_role)
        # tombstones carry no payload -> their role reports as '-'
        "cdc_op_mix_by_role": CHANGELOG_CTE + """
SELECT CASE WHEN op = 'D' THEN '-' ELSE role END AS role, op,
       CAST(COUNT(*) AS BIGINT) AS n
FROM ch GROUP BY 1, 2 ORDER BY role, op
""",
        # LWW dead-row census (cdcq.cdc_dead_version_census): what a
        # full compaction would drop
        "cdc_dead_version_census": CHANGELOG_CTE + """
, k AS (SELECT conv_id, turn_idx, CAST(COUNT(*) AS BIGINT) AS v,
               arg_max(op, lsn) AS last_op
        FROM ch GROUP BY 1, 2)
SELECT CAST(COUNT(*) AS BIGINT) AS n_keys,
       CAST(SUM(v) AS BIGINT) AS n_events,
       CAST(SUM(v - CASE WHEN last_op = 'D' THEN 0 ELSE 1 END) AS BIGINT)
           AS n_dead_versions,
       CAST(SUM(CASE WHEN last_op = 'D' THEN 1 ELSE 0 END) AS BIGINT)
           AS n_tombstoned_keys
FROM k
""",
        # daily revenue + trailing 7-day frame
        # (relational.daily_revenue_rolling7)
        # per-type daily EWMA, exact dyadic-integer decay
        # (relational.value_ewma): 2^-gap_days factor, 20-day cap, the
        # decayed sum carries the 2^20 scale so both sides stay int64
        # temporal value-distribution drift (relational.value_drift_tv):
        # exact cross-multiplied TV over fixed 128-cent buckets between
        # the two halves of the day range
        "value_drift_tv": """
WITH r AS (
  SELECT MIN(epoch_us(ts) // 86400000000) AS lo,
         MAX(epoch_us(ts) // 86400000000) AS hi
  FROM events
),
e AS (
  SELECT event_type,
         CASE WHEN epoch_us(ts) // 86400000000 > (r.lo + r.hi) // 2
              THEN 1 ELSE 0 END AS half,
         CAST(round(value * 100) AS BIGINT) >> 7 AS bucket
  FROM events, r
),
c AS (SELECT event_type, half, bucket, CAST(COUNT(*) AS HUGEINT) AS n
      FROM e GROUP BY 1, 2, 3),
p AS (SELECT event_type, bucket,
             SUM(CASE WHEN half = 0 THEN n ELSE 0 END) AS c1,
             SUM(CASE WHEN half = 1 THEN n ELSE 0 END) AS c2
      FROM c GROUP BY 1, 2),
tot AS (SELECT event_type, SUM(c1) AS n1, SUM(c2) AS n2 FROM p GROUP BY 1)
SELECT p.event_type,
       CAST(tot.n1 AS BIGINT) AS n_first,
       CAST(tot.n2 AS BIGINT) AS n_second,
       CAST(CASE WHEN tot.n1 = 0 OR tot.n2 = 0
                 THEN CASE WHEN tot.n1 + tot.n2 > 0 THEN 1000000 ELSE 0 END
                 ELSE (1000000 * SUM(ABS(p.c1 * tot.n2 - p.c2 * tot.n1)))
                      // (2 * tot.n1 * tot.n2) END AS BIGINT) AS tv_micro
FROM p JOIN tot USING (event_type)
GROUP BY p.event_type, tot.n1, tot.n2
ORDER BY event_type
""",
        "value_ewma": """
WITH d AS (
  SELECT event_type, epoch_us(ts) // 86400000000 AS day,
         CAST(SUM(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS cents
  FROM events GROUP BY 1, 2
)
SELECT a.event_type, a.day, a.cents,
       CAST(SUM(b.cents * (CAST(1 AS BIGINT) << (20 - (a.day - b.day))))
            AS BIGINT) AS ewma_x
FROM d a JOIN d b
  ON b.event_type = a.event_type AND b.day BETWEEN a.day - 20 AND a.day
GROUP BY a.event_type, a.day, a.cents
ORDER BY a.event_type, a.day
""",
        "daily_revenue_rolling7": """
WITH d AS (
  SELECT epoch_us(ts) // 86400000000 AS day,
         CAST(SUM(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS r
  FROM events WHERE event_type = 'purchase' GROUP BY 1
)
SELECT day, r AS revenue_cents,
       CAST(SUM(r) OVER (ORDER BY day RANGE BETWEEN 6 PRECEDING
                         AND CURRENT ROW) AS BIGINT) AS rolling7_cents
FROM d ORDER BY day
""",
        # per-epoch ingest-volume series (cdcq.cdc_epoch_text_growth)
        # ingest capacity trend (cdcq.cdc_ingest_trend): exact integer
        # least squares over the per-epoch bytes series; sign-separated
        # magnitude division (DuckDB // truncates, Python // floors)
        "cdc_ingest_trend": CHANGELOG_CTE + """
, e AS (
  SELECT lsn // 2500 AS epoch,
         CAST(SUM(CASE WHEN op IN ('I', 'U')
                       THEN octet_length(encode(text)) ELSE 0 END)
              AS HUGEINT) AS bytes_in
  FROM ch GROUP BY 1),
m AS (
  SELECT CAST(COUNT(*) AS HUGEINT) AS n,
         SUM(CAST(epoch AS HUGEINT)) AS sx, SUM(bytes_in) AS sy,
         SUM(CAST(epoch AS HUGEINT) * CAST(epoch AS HUGEINT)) AS sxx,
         SUM(CAST(epoch AS HUGEINT) * bytes_in) AS sxy
  FROM e),
d AS (
  SELECT n, sy, n * sxy - sx * sy AS num_s, sy * sxx - sx * sxy AS num_i,
         n * sxx - sx * sx AS den
  FROM m)
SELECT CAST(n AS BIGINT) AS n_epochs,
       CAST(CASE WHEN den = 0 THEN 0
                 ELSE (CASE WHEN (num_s < 0) <> (den < 0) THEN -1 ELSE 1 END)
                      * ((1000000 * ABS(num_s)) // ABS(den)) END
            AS BIGINT) AS slope_micro,
       CAST(CASE WHEN den = 0 THEN (1000000 * sy) // n
                 ELSE (CASE WHEN (num_i < 0) <> (den < 0) THEN -1 ELSE 1 END)
                      * ((1000000 * ABS(num_i)) // ABS(den)) END
            AS BIGINT) AS intercept_micro
FROM d
""",
        "cdc_epoch_text_growth": CHANGELOG_CTE + """
, e AS (
  SELECT lsn // 2500 AS epoch,
         CAST(COUNT(*) AS BIGINT) AS n_events,
         CAST(SUM(CASE WHEN op IN ('I', 'U')
                       THEN octet_length(encode(text)) ELSE 0 END)
              AS BIGINT) AS bytes_in
  FROM ch GROUP BY 1)
SELECT epoch, n_events, bytes_in,
       CAST(SUM(bytes_in) OVER (ORDER BY epoch ROWS UNBOUNDED PRECEDING)
            AS BIGINT) AS bytes_cum
FROM e ORDER BY epoch
""",
        # delete->re-insert churn (cdcq.cdc_resurrections): D followed
        # by I/U on the same (conv, turn) in lsn order
        "cdc_resurrections": CHANGELOG_CTE + """
, s AS (
  SELECT conv_id, op,
         LAG(op) OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn)
             AS prev_op
  FROM ch
)
SELECT conv_id, CAST(COUNT(*) AS BIGINT) AS n_resurrections
FROM s WHERE prev_op = 'D' AND op IN ('I', 'U')
GROUP BY conv_id ORDER BY conv_id
""",
        "cdc_edit_wars": CHANGELOG_CTE + """
, k AS (
  SELECT conv_id, turn_idx, CAST(COUNT(*) AS BIGINT) AS v
  FROM ch GROUP BY conv_id, turn_idx
)
SELECT conv_id,
       CAST(COUNT(*) AS BIGINT) AS n_keys,
       CAST(SUM(CASE WHEN v >= 2 THEN 1 ELSE 0 END) AS BIGINT) AS n_rewritten,
       MAX(v) AS max_versions,
       CAST(SUM(v) AS BIGINT) AS n_events
FROM k GROUP BY conv_id ORDER BY conv_id
""",
        # most-rewritten keys (cdcq.cdc_hot_keys): the salting hot list
        "cdc_hot_keys": CHANGELOG_CTE + """
, k AS (
  SELECT conv_id, turn_idx, CAST(COUNT(*) AS BIGINT) AS versions
  FROM ch GROUP BY conv_id, turn_idx
)
SELECT conv_id, turn_idx, versions
FROM k ORDER BY versions DESC, conv_id, turn_idx LIMIT 20
""",
        "cdc_version_history": CHANGELOG_CTE + """
SELECT lsn, conv_id, turn_idx, op,
       LEAD(lsn) OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn)
           AS valid_to_lsn
FROM ch ORDER BY conv_id, turn_idx, lsn
""",
        # duplicates deliver identical rows: the oracle is the dup-free state
        "cdc_apply_dups": CHANGELOG_CTE + _FINAL_STATE.format(extra_cols=""),
        "cdc_apply_evolve": """
WITH ch AS (
    SELECT
        event_id AS lsn,
        CASE WHEN (event_id * 7919) % 10 < 6 THEN 'I'
             WHEN (event_id * 7919) % 10 < 9 THEN 'U'
             ELSE 'D' END AS op,
        'c' || CAST(user_id AS VARCHAR) AS conv_id,
        CAST(event_id % 8 AS INTEGER) AS turn_idx,
        CASE CAST(event_id % 4 AS INTEGER)
             WHEN 0 THEN 'user' WHEN 1 THEN 'assistant'
             WHEN 2 THEN 'assistant' ELSE 'tool' END AS role,
        props AS text,
        CASE WHEN CAST(event_id % 4 AS INTEGER) = 3 THEN event_type END AS tool,
        ts,
        CASE WHEN (event_id * 7919) % 10 < 9
              AND event_id >= (SELECT (MAX(event_id) + 1) // 2 FROM events)
             THEN 'm' || CAST(event_id AS VARCHAR) END AS meta
    FROM events
)
"""
        + _FINAL_STATE.format(extra_cols=", meta"),
        "cdc_counts": CHANGELOG_CTE
        + """
SELECT lsn // 2500 AS epoch, op, CAST(COUNT(*) AS BIGINT) AS n
FROM ch GROUP BY 1, 2 ORDER BY epoch, op
""",
        "cdc_conv_summary": CHANGELOG_CTE
        + """
, final AS (
    SELECT conv_id, turn_idx, ts
    FROM (
        SELECT ch.*, ROW_NUMBER() OVER (
            PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
        FROM ch
    )
    WHERE rn = 1 AND op <> 'D'
)
SELECT conv_id, CAST(COUNT(*) AS BIGINT) AS n_turns, MAX(ts) AS last_ts
FROM final GROUP BY conv_id ORDER BY conv_id
""",
        # agent-loop detection: a live turn is "looped" when an earlier
        # turn of the same conversation has identical text — first
        # occurrence = smallest turn_idx, matching the kernel's
        # duplicated() over the (conv_id, turn_idx)-sorted state
        "cdc_loop_detect": CHANGELOG_CTE
        + """
, final AS (
    SELECT conv_id, turn_idx, text
    FROM (
        SELECT ch.*, ROW_NUMBER() OVER (
            PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
        FROM ch
    )
    WHERE rn = 1 AND op <> 'D'
), occ AS (
    SELECT conv_id, ROW_NUMBER() OVER (
        PARTITION BY conv_id, text ORDER BY turn_idx) AS k
    FROM final
)
SELECT conv_id,
       CAST(COUNT(*) AS BIGINT) AS n_turns,
       CAST(SUM(CASE WHEN k > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_looped,
       CAST(SUM(CASE WHEN k > 1 THEN 1 ELSE 0 END) * 10000 // COUNT(*)
            AS BIGINT) AS loop_bp,
       SUM(CASE WHEN k > 1 THEN 1 ELSE 0 END) > 0 AS looped
FROM occ GROUP BY conv_id ORDER BY conv_id
""",
        "cdc_incremental_dedup": _incdedup_sql(),
        # snapshot diff: epoch-0 state (lsn below halfway) vs final
        # state, FULL-JOINed on (conv_id, turn_idx); modified = text
        # changed (an update rewriting identical text is unchanged —
        # same rule as the kernel's vectorized outer merge)
        "cdc_state_diff": CHANGELOG_CTE
        + """
, e0 AS (
  SELECT conv_id, turn_idx, text FROM (
    SELECT ch.*, ROW_NUMBER() OVER (
        PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
    FROM ch WHERE lsn < (SELECT (MAX(event_id) + 1) // 2 FROM events)
  ) WHERE rn = 1 AND op <> 'D'
), fin AS (
  SELECT conv_id, turn_idx, text FROM (
    SELECT ch.*, ROW_NUMBER() OVER (
        PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
    FROM ch
  ) WHERE rn = 1 AND op <> 'D'
), j AS (
  SELECT COALESCE(e0.conv_id, fin.conv_id) AS conv_id,
         e0.conv_id IS NOT NULL AS p0, fin.conv_id IS NOT NULL AS p1,
         e0.text AS t0, fin.text AS t1
  FROM e0 FULL JOIN fin
    ON e0.conv_id = fin.conv_id AND e0.turn_idx = fin.turn_idx
)
SELECT conv_id,
       CAST(SUM(CASE WHEN NOT p0 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_added,
       CAST(SUM(CASE WHEN NOT p1 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_removed,
       CAST(SUM(CASE WHEN p0 AND p1
                      AND t0 IS DISTINCT FROM t1 THEN 1 ELSE 0 END)
            AS BIGINT) AS n_modified,
       CAST(SUM(CASE WHEN p0 AND p1
                      AND t0 IS NOT DISTINCT FROM t1 THEN 1 ELSE 0 END)
            AS BIGINT) AS n_unchanged,
       SUM(CASE WHEN NOT p0 OR NOT p1
                 OR t0 IS DISTINCT FROM t1 THEN 1 ELSE 0 END) > 0
           AS changed
FROM j GROUP BY conv_id ORDER BY conv_id
""",
        # end-to-end transcript export: flattened per-conversation docs
        # gated by the SAME quality/repetition rules as the document
        # pipelines, plus the stuck-agent (repeated-turn ratio) gate
        "cdc_export_conversations": CHANGELOG_CTE
        + r"""
, final AS (
    SELECT conv_id, turn_idx, role, text
    FROM (
        SELECT ch.*, ROW_NUMBER() OVER (
            PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
        FROM ch
    )
    WHERE rn = 1 AND op <> 'D'
), agg AS (
    SELECT conv_id,
           string_agg(role || ': ' || text, chr(10)
                      ORDER BY turn_idx) AS doc_text,
           CAST(COUNT(*) AS BIGINT) AS n_turns
    FROM final GROUP BY conv_id
), occ AS (
    SELECT conv_id, ROW_NUMBER() OVER (
        PARTITION BY conv_id, text ORDER BY turn_idx) AS k
    FROM final
), lo AS (
    SELECT conv_id,
           SUM(CASE WHEN k > 1 THEN 1 ELSE 0 END) AS nl,
           COUNT(*) AS nt
    FROM occ GROUP BY conv_id
), m AS (
    SELECT conv_id, n_turns,
           regexp_extract_all(lower(doc_text), '\S+') AS ws
    FROM agg
), g AS (
    SELECT conv_id, n_turns,
           len(ws) AS ntk,
           COALESCE(list_sum(list_transform(ws, w -> length(w))), 0) AS sl,
           GREATEST(len(ws) - 1, 0) AS n2,
           GREATEST(len(ws) - 2, 0) AS n3,
           len(list_distinct(list_transform(range(1, len(ws)),
               i -> ws[i] || ' ' || ws[i+1]))) AS d2,
           len(list_distinct(list_transform(range(1, len(ws) - 1),
               i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2]))) AS d3
    FROM m
)
SELECT g.conv_id, g.n_turns,
       (ntk BETWEEN 10 AND 1000)
         AND (sl * 10000 // GREATEST(ntk, 1) <= 120000) AS quality_ok,
       (n2 - d2) * 10000 // GREATEST(n2, 1) <= 2000
         AND (n3 - d3) * 10000 // GREATEST(n3, 1) <= 1800 AS rep_ok,
       lo.nl * 10000 // lo.nt <= 2000 AS loop_ok,
       (ntk BETWEEN 10 AND 1000)
         AND (sl * 10000 // GREATEST(ntk, 1) <= 120000)
         AND (n2 - d2) * 10000 // GREATEST(n2, 1) <= 2000
         AND (n3 - d3) * 10000 // GREATEST(n3, 1) <= 1800
         AND lo.nl * 10000 // lo.nt <= 2000 AS keep
FROM g JOIN lo USING (conv_id) ORDER BY conv_id
""",
        # lake -> tokenizer export: one training document per
        # conversation, "role: text" lines joined by newlines in turn
        # order (string_agg with ORDER BY == the kernel's sorted
        # reduceat join)
        "cdc_flatten_transcripts": CHANGELOG_CTE
        + """
, final AS (
    SELECT conv_id, turn_idx, role, text
    FROM (
        SELECT ch.*, ROW_NUMBER() OVER (
            PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
        FROM ch
    )
    WHERE rn = 1 AND op <> 'D'
), agg AS (
    SELECT conv_id,
           string_agg(role || ': ' || text, chr(10)
                      ORDER BY turn_idx) AS doc_text,
           CAST(COUNT(*) AS BIGINT) AS n_turns
    FROM final GROUP BY conv_id
)
SELECT conv_id, doc_text, n_turns,
       CAST(length(doc_text) AS BIGINT) AS n_chars
FROM agg ORDER BY conv_id
""",
        # conversation-level exact dedup over the replayed state:
        # identical flattened documents group, min conv_id is canonical
        # (the engine matches on a 128-bit content hash — documented
        # collision stance)
        "cdc_dedup_conversations": CHANGELOG_CTE
        + """
, final AS (
    SELECT conv_id, turn_idx, role, text
    FROM (
        SELECT ch.*, ROW_NUMBER() OVER (
            PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
        FROM ch
    )
    WHERE rn = 1 AND op <> 'D'
), agg AS (
    SELECT conv_id,
           string_agg(role || ': ' || text, chr(10)
                      ORDER BY turn_idx) AS doc_text,
           CAST(COUNT(*) AS BIGINT) AS n_turns
    FROM final GROUP BY conv_id
)
SELECT conv_id, n_turns,
       MIN(conv_id) OVER (PARTITION BY doc_text) AS canonical_conv_id,
       conv_id = MIN(conv_id) OVER (PARTITION BY doc_text) AS keep
FROM agg ORDER BY conv_id
""",
        # tool-use Markov profile: adjacent pairs of the per-conversation
        # tool-call subsequence (non-null tool, turn order)
        "cdc_tool_transitions": CHANGELOG_CTE
        + """
, final AS (
    SELECT conv_id, turn_idx, tool
    FROM (
        SELECT ch.*, ROW_NUMBER() OVER (
            PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
        FROM ch
    )
    WHERE rn = 1 AND op <> 'D'
), seq AS (
    SELECT conv_id, tool,
           LEAD(tool) OVER (PARTITION BY conv_id ORDER BY turn_idx)
               AS next_tool
    FROM final WHERE tool IS NOT NULL
)
SELECT tool AS tool_a, next_tool AS tool_b,
       CAST(COUNT(*) AS BIGINT) AS n
FROM seq WHERE next_tool IS NOT NULL
GROUP BY tool, next_tool ORDER BY tool_a, tool_b
""",
        # role-balance profile of the replayed state; tool-call count is
        # non-null `tool`, total_chars is utf8 length (ASCII corpus:
        # length == strlen on both engines)
        "cdc_role_stats": CHANGELOG_CTE
        + """
, final AS (
    SELECT conv_id, turn_idx, role, text, tool
    FROM (
        SELECT ch.*, ROW_NUMBER() OVER (
            PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
        FROM ch
    )
    WHERE rn = 1 AND op <> 'D'
)
SELECT conv_id,
       CAST(COUNT(*) AS BIGINT) AS n_turns,
       CAST(SUM(CASE WHEN role = 'user' THEN 1 ELSE 0 END) AS BIGINT)
           AS n_user,
       CAST(SUM(CASE WHEN role = 'assistant' THEN 1 ELSE 0 END) AS BIGINT)
           AS n_assistant,
       CAST(SUM(CASE WHEN role = 'tool' THEN 1 ELSE 0 END) AS BIGINT)
           AS n_tool_role,
       CAST(SUM(CASE WHEN tool IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT)
           AS n_tool_calls,
       CAST(SUM(length(text)) AS BIGINT) AS total_chars,
       SUM(CASE WHEN tool IS NOT NULL THEN 1 ELSE 0 END) > 0 AS agentic
FROM final GROUP BY conv_id ORDER BY conv_id
""",
        # the ENGINE-MATERIALIZED view must equal the same recomputed
        # answer — identical twin by design
        "cdc_conv_summary_view": CHANGELOG_CTE
        + """
, final AS (
    SELECT conv_id, turn_idx, ts
    FROM (
        SELECT ch.*, ROW_NUMBER() OVER (
            PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
        FROM ch
    )
    WHERE rn = 1 AND op <> 'D'
)
SELECT conv_id, CAST(COUNT(*) AS BIGINT) AS n_turns, MAX(ts) AS last_ts
FROM final GROUP BY conv_id ORDER BY conv_id
""",
        # temperature mixture weights (the public GPT-3/PaLM sampling
        # rule): weight_i = n_i^0.5 / sum n_j^0.5, rounded to 6
        "mixture_weights": """
WITH c AS (SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs FROM documents GROUP BY lang)
SELECT lang, n_docs,
       ROUND(pow(n_docs, 0.5) / SUM(pow(n_docs, 0.5)) OVER (), 6) AS mix_weight
FROM c ORDER BY lang
""",
        # boilerplate chunks (RefinedWeb/C4-style shared-content filter):
        # non-overlapping 10-token chunks appearing in >= 2 distinct docs
        # are boilerplate; integer basis points; the engine matches on
        # hash_utf8_64 of the chunk (collision-negligible, documented)
        "boilerplate_flags": r"""
WITH arr AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS ws FROM documents
),
ch AS (
  SELECT doc_id,
         unnest(list_transform(range(1, len(ws) // 10 + 1),
                i -> array_to_string(list_slice(ws, (i-1)*10 + 1, i*10), ' ')))
         AS chunk
  FROM arr
),
bo AS (
  SELECT chunk FROM (
    SELECT chunk, COUNT(DISTINCT doc_id) AS nd FROM ch GROUP BY chunk
  ) WHERE nd >= 2
),
per AS (
  SELECT ch.doc_id, COUNT(*) AS n_chunks,
         SUM(CASE WHEN bo.chunk IS NOT NULL THEN 1 ELSE 0 END) AS n_boiler
  FROM ch LEFT JOIN bo USING (chunk) GROUP BY ch.doc_id
)
SELECT d.doc_id,
       CAST(COALESCE(p.n_chunks, 0) AS BIGINT) AS n_chunks,
       CAST(COALESCE(p.n_boiler, 0) AS BIGINT) AS n_boiler,
       CAST(COALESCE(p.n_boiler, 0) * 10000
            // GREATEST(COALESCE(p.n_chunks, 0), 1) AS BIGINT) AS boiler_bp,
       COALESCE(p.n_boiler, 0) * 10000
         // GREATEST(COALESCE(p.n_chunks, 0), 1) <= 3000 AS keep
FROM documents d LEFT JOIN per p USING (doc_id)
ORDER BY d.doc_id
""",
        # unigram-LM cross-entropy (the CCNet-style LM quality filter):
        # Laplace-smoothed top-V vocabulary (count desc / token asc cut),
        # OOV bucket, log-probs rounded to 9 and the per-doc mean to 4 —
        # the same pins as the engine kernel
        "perplexity_score": r"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '\S+')) AS tok
  FROM documents
),
cnts AS (SELECT tok, COUNT(*) AS n FROM toks GROUP BY tok),
tot AS (SELECT SUM(n) AS total, COUNT(*) AS vocab FROM cnts),
vocab AS (
  SELECT tok, n FROM (
    SELECT tok, n, ROW_NUMBER() OVER (ORDER BY n DESC, tok) AS rn FROM cnts
  ) WHERE rn <= 50000
),
model AS (
  SELECT v.tok,
         ROUND(ln((v.n + 1) / (tot.total + LEAST(50000, tot.vocab) + 1.0)), 9) AS lp
  FROM vocab v CROSS JOIN tot
),
oov AS (
  SELECT ROUND(ln(1.0 / (tot.total + LEAST(50000, tot.vocab) + 1.0)), 9) AS lp
  FROM tot
),
doc_lp AS (
  SELECT t.doc_id, COALESCE(m.lp, o.lp) AS lp
  FROM toks t LEFT JOIN model m ON m.tok = t.tok CROSS JOIN oov o
),
agg AS (
  SELECT doc_id, COUNT(*) AS n_tokens, ROUND(-AVG(lp), 4) AS ce
  FROM doc_lp GROUP BY doc_id
)
SELECT d.doc_id,
       CAST(COALESCE(a.n_tokens, 0) AS BIGINT) AS n_tokens,
       COALESCE(a.ce, 0.0) AS ce
FROM documents d LEFT JOIN agg a USING (doc_id)
ORDER BY d.doc_id
""",
        # per-group document cap: the cap smallest seeded splitmix64
        # sample keys win per language (tie-free — splitmix64 is a
        # bijection), dense ranks 1..cap
        "domain_cap": f"""
WITH s0 AS (
  SELECT doc_id, lang,
         CAST((doc_id + {0xD0CA}) % {_SM_M} AS UBIGINT) AS h
  FROM documents
),
s1 AS (SELECT doc_id, lang, {_sm_step('h', 30, _SM_C1)} AS h FROM s0),
s2 AS (SELECT doc_id, lang, {_sm_step('h', 27, _SM_C2)} AS h FROM s1),
s3 AS (SELECT doc_id, lang, xor(h, h >> 31) AS h FROM s2)
SELECT lang, doc_id, CAST(rn AS BIGINT) AS sample_rank FROM (
  SELECT lang, doc_id,
         ROW_NUMBER() OVER (PARTITION BY lang ORDER BY h, doc_id) AS rn
  FROM s3
) WHERE rn <= 500
ORDER BY lang, sample_rank
""",
        # stratified per-language sampling: seeded splitmix64 top-32-bit
        # bucket vs the stratum's integer threshold (en keeps 1/4)
        "stratified_sample": f"""
WITH s0 AS (
  SELECT doc_id, lang,
         CAST((doc_id + {0x57A7}) % {_SM_M} AS UBIGINT) AS h
  FROM documents
),
s1 AS (SELECT doc_id, lang, {_sm_step('h', 30, _SM_C1)} AS h FROM s0),
s2 AS (SELECT doc_id, lang, {_sm_step('h', 27, _SM_C2)} AS h FROM s1),
s3 AS (SELECT doc_id, lang, xor(h, h >> 31) AS h FROM s2)
SELECT doc_id, lang,
       CAST(h >> 32 AS BIGINT) AS h_bucket,
       (h >> 32) < (CASE WHEN lang = 'en' THEN {1 << 30}
                         ELSE {1 << 32} END) AS sampled
FROM s3 ORDER BY doc_id
""",
        "sample_split": """
WITH h AS (
  SELECT doc_id, (doc_id * 2654435761) % 4294967296 AS h FROM documents
)
SELECT doc_id,
       CASE WHEN h < 3435973836 THEN 'train'
            WHEN h < 3865470566 THEN 'val'
            ELSE 'test' END AS split,
       CAST(h AS BIGINT) AS h
FROM h ORDER BY doc_id
""",
        # money is summed as exact integer cents on both sides so the
        # distributed sum is order-independent and bit-equal to DuckDB's
        # Q14 shape: promo revenue share — integer-exact cents math, one
        # final division; pct in exact basis points (1e-6 scale // )
        "q14_promo_revenue": """
WITH j AS (
  SELECT CAST(round(l_extendedprice * 100) AS BIGINT)
         * (100 - CAST(round(l_discount * 100) AS BIGINT)) AS rev_u,
         p_type
  FROM lineitem JOIN part ON l_partkey = p_partkey
),
s AS (
  SELECT SUM(CASE WHEN p_type = 'PROMO' THEN rev_u ELSE 0 END) AS promo_u,
         SUM(rev_u) AS total_u
  FROM j
)
SELECT (promo_u // 100) / 100.0 AS promo_revenue,
       (total_u // 100) / 100.0 AS total_revenue,
       CAST(1000000 * promo_u // GREATEST(total_u, 1) AS BIGINT) AS promo_pct_bp
FROM s
""",
        "q1_pricing_summary": """
WITH c AS (
    SELECT l_returnflag, l_linestatus,
           CAST(round(l_quantity      * 100) AS BIGINT) AS qty_c,
           CAST(round(l_extendedprice * 100) AS BIGINT) AS price_c,
           CAST(round(l_discount      * 100) AS BIGINT) AS disc_c,
           CAST(round(l_tax           * 100) AS BIGINT) AS tax_c
    FROM lineitem WHERE l_shipdate <= TIMESTAMP '1998-09-02'
)
SELECT l_returnflag, l_linestatus,
       SUM(qty_c)   / 100.0                                             AS sum_qty,
       SUM(price_c) / 100.0                                             AS sum_base_price,
       (SUM(price_c * (100 - disc_c)) // 100) / 100.0                   AS sum_disc_price,
       (SUM(price_c * (100 - disc_c) * (100 + tax_c)) // 10000) / 100.0 AS sum_charge,
       (SUM(qty_c)   * 100 // COUNT(*)) / 10000.0                       AS avg_qty,
       (SUM(price_c) * 100 // COUNT(*)) / 10000.0                       AS avg_price,
       (SUM(disc_c)  * 100 // COUNT(*)) / 10000.0                       AS avg_disc,
       COUNT(*)                                                         AS count_order
FROM c
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
""",
        "q3_top_orders": """
SELECT l_orderkey,
       (SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
            * (100 - CAST(round(l_discount * 100) AS BIGINT))) // 100) / 100.0
           AS revenue,
       o_orderdate
FROM customer, orders, lineitem
WHERE c_mktsegment = 'BUILDING'
  AND c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate < TIMESTAMP '1998-01-01'
  AND l_shipdate  > TIMESTAMP '1998-01-01'
GROUP BY l_orderkey, o_orderdate
ORDER BY revenue DESC, l_orderkey
LIMIT 10
""",
        # deterministic weighted sampling (text.weighted_sample): the
        # shuffle twin's splitmix chain, priority = (h >> 1) // weight,
        # k smallest win — all int64, floor division on both sides
        "weighted_sample": f"""
WITH s0 AS (
  SELECT doc_id, n_chars,
         CAST((doc_id + {_SM_SEED}) % {_SM_M} AS UBIGINT) AS h
  FROM documents
),
s1 AS (SELECT doc_id, n_chars, {_sm_step('h', 30, _SM_C1)} AS h FROM s0),
s2 AS (SELECT doc_id, n_chars, {_sm_step('h', 27, _SM_C2)} AS h FROM s1),
s3 AS (SELECT doc_id, n_chars, xor(h, h >> 31) AS h FROM s2),
p AS (
  SELECT doc_id, CAST(n_chars AS BIGINT) AS n_chars,
         CAST(h >> 1 AS BIGINT) // GREATEST(CAST(n_chars AS BIGINT), 1)
             AS priority
  FROM s3
)
SELECT CAST(ROW_NUMBER() OVER (ORDER BY priority, doc_id) AS BIGINT) AS rnk,
       doc_id, n_chars, priority
FROM p ORDER BY priority, doc_id LIMIT 100
""",
        # per-source character-class census (text.charclass_profile):
        # RE2 classes on both sides, exact int64 counts
        "charclass_profile": """
WITH c AS (
  SELECT source,
         CAST(length(text) AS BIGINT) AS nc,
         CAST(length(regexp_replace(text, '[^A-Za-z]', '', 'g')) AS BIGINT)
             AS le,
         CAST(length(regexp_replace(text, '[^0-9]', '', 'g')) AS BIGINT)
             AS di,
         CAST(length(text) - length(replace(text, ' ', '')) AS BIGINT) AS sp
  FROM documents
)
SELECT source,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       SUM(nc) AS n_chars, SUM(le) AS letters, SUM(di) AS digits,
       SUM(sp) AS spaces, SUM(nc - le - di - sp) AS other
FROM c GROUP BY source ORDER BY source
""",
        # TPC-H Q6 (relational.q6_forecast_revenue): discount-band
        # revenue; exact 1e-4-dollar integers, cents band on BOTH sides
        "q6_forecast_revenue": """
WITH c AS (
  SELECT CAST(round(l_extendedprice * 100) AS BIGINT) AS price_c,
         CAST(round(l_discount * 100) AS BIGINT)      AS disc_c
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate <  TIMESTAMP '1997-01-01'
    AND l_quantity < 24
    AND CAST(round(l_discount * 100) AS BIGINT) BETWEEN 5 AND 7
)
SELECT (COALESCE(SUM(price_c * disc_c), 0) // 100) / 100.0 AS revenue,
       CAST(COUNT(*) AS BIGINT) AS n_items
FROM c
""",
        # TPC-H Q7 (relational.q7_volume_shipping): bi-directional
        # nation-pair shipped revenue per year; exact cents
        "q7_volume_shipping": """
WITH j AS (
  SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
         CAST(year(l_shipdate) AS BIGINT) AS l_year,
         CAST(round(l_extendedprice * 100) AS BIGINT)
         * (100 - CAST(round(l_discount * 100) AS BIGINT)) AS rev_u
  FROM lineitem
  JOIN orders   ON l_orderkey = o_orderkey
  JOIN customer ON o_custkey  = c_custkey
  JOIN supplier ON l_suppkey  = s_suppkey
  JOIN nation n1 ON s_nationkey = n1.n_nationkey
  JOIN nation n2 ON c_nationkey = n2.n_nationkey
  WHERE ((n1.n_name = 'NATION_1' AND n2.n_name = 'NATION_2')
      OR (n1.n_name = 'NATION_2' AND n2.n_name = 'NATION_1'))
    AND l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate <  TIMESTAMP '1998-01-01'
)
SELECT supp_nation, cust_nation, l_year,
       (SUM(rev_u) // 100) / 100.0 AS revenue
FROM j
GROUP BY supp_nation, cust_nation, l_year
ORDER BY supp_nation, cust_nation, l_year
""",
        # TPC-H Q19 (relational.q19_disjunctive_revenue): or-of-ands
        # (brand, size, quantity) rules; exact cents
        "q19_disjunctive_revenue": """
WITH j AS (
  SELECT CAST(round(l_extendedprice * 100) AS BIGINT)
         * (100 - CAST(round(l_discount * 100) AS BIGINT)) AS rev_u
  FROM lineitem JOIN part ON l_partkey = p_partkey
  WHERE (p_brand = 'Brand#12' AND p_size BETWEEN 1 AND 5
         AND l_quantity BETWEEN 1 AND 11)
     OR (p_brand = 'Brand#23' AND p_size BETWEEN 1 AND 10
         AND l_quantity BETWEEN 10 AND 20)
     OR (p_brand = 'Brand#14' AND p_size BETWEEN 1 AND 15
         AND l_quantity BETWEEN 20 AND 30)
)
SELECT (COALESCE(SUM(rev_u), 0) // 100) / 100.0 AS revenue,
       CAST(COUNT(*) AS BIGINT) AS n_items
FROM j
""",
        # TPC-H Q15 (relational.q15_top_supplier): argmax with ties via
        # the MAX subquery; exact cents
        "q15_top_supplier": """
WITH rev AS (
  SELECT l_suppkey AS s_suppkey,
         SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS rev_u
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate <  TIMESTAMP '1996-04-01'
  GROUP BY l_suppkey
)
SELECT s.s_suppkey, s.s_name, (rev.rev_u // 100) / 100.0 AS total_revenue
FROM rev JOIN supplier s USING (s_suppkey)
WHERE rev.rev_u = (SELECT MAX(rev_u) FROM rev)
ORDER BY s.s_suppkey
""",
        # duplicate provenance flow (text.dup_flow_matrix): winner's
        # source -> dup's source counts off the same election
        "dup_flow_matrix": """
WITH w AS (
  SELECT doc_id, source, text,
         MIN(doc_id) OVER (PARTITION BY text) AS winner
  FROM documents
),
ws AS (SELECT doc_id AS w_id, source AS winner_source FROM w
       WHERE doc_id = winner)
SELECT ws.winner_source, w.source AS dup_source,
       CAST(COUNT(*) AS BIGINT) AS n_dups
FROM w JOIN ws ON w.winner = ws.w_id
WHERE w.doc_id <> w.winner
GROUP BY ws.winner_source, w.source
ORDER BY winner_source, dup_source
""",
        # per-source duplicate pressure (text.source_dup_rate): the
        # non-winners of the exact-dedup election, by their own source
        "source_dup_rate": """
WITH w AS (
  SELECT doc_id, source, MIN(doc_id) OVER (PARTITION BY text) AS winner
  FROM documents
)
SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(CASE WHEN doc_id <> winner THEN 1 ELSE 0 END) AS BIGINT)
           AS n_dups,
       CAST(10000 * SUM(CASE WHEN doc_id <> winner THEN 1 ELSE 0 END)
            // GREATEST(COUNT(*), 1) AS BIGINT) AS dup_bp
FROM w GROUP BY source ORDER BY source
""",
        # Zipf coverage curve (text.token_coverage): top-k type mass in
        # exact integer basis points; ROW_NUMBER over (count desc, token)
        "token_coverage": r"""
WITH tok AS (
  SELECT unnest(regexp_extract_all(text, '\S+')) AS w FROM documents
),
c AS (SELECT w, CAST(COUNT(*) AS BIGINT) AS n FROM tok GROUP BY w),
r AS (SELECT n, ROW_NUMBER() OVER (ORDER BY n DESC, w ASC) AS rn FROM c),
t AS (SELECT SUM(n) AS total FROM c),
ks AS (SELECT unnest([10, 100, 1000]) AS k)
SELECT CAST(ks.k AS BIGINT) AS k,
       CAST(10000 * COALESCE(
            (SELECT SUM(n) FROM r WHERE rn <= ks.k), 0)
            // GREATEST(t.total, 1) AS BIGINT) AS mass_bp
FROM ks CROSS JOIN t ORDER BY k
""",
        # corpus vocabulary census (text.vocab_stats): top_tokens' token
        # semantics, exact integer type/token ratio
        "vocab_stats": r"""
WITH tok AS (
  SELECT unnest(regexp_extract_all(text, '\S+')) AS w FROM documents
),
c AS (SELECT w, CAST(COUNT(*) AS BIGINT) AS n FROM tok GROUP BY w)
SELECT CAST(COALESCE(SUM(n), 0) AS BIGINT) AS n_tokens,
       CAST(COUNT(*) AS BIGINT) AS n_types,
       CAST(COALESCE(SUM(CASE WHEN n = 1 THEN 1 ELSE 0 END), 0) AS BIGINT)
           AS n_hapax,
       CAST(1000000 * COUNT(*) // GREATEST(SUM(n), 1) AS BIGINT) AS ttr_micro
FROM c
""",
        # near-dup graph degree distribution (dedup.pair_degree_hist):
        # the shared shingle CTE's verified pair graph, endpoint degrees
        # degree assortativity of the near-dup graph
        # (dedup.pair_assortativity): symmetrized endpoint-degree
        # correlation; symmetry gives sx=sy, vx=vy, stepwise |cov| floor
        "pair_assortativity": "WITH " + _NGRAM_CTE + r""",
pairs AS (
  SELECT da, db
  FROM inter JOIN cnt ca ON inter.da = ca.doc_id
             JOIN cnt cb ON inter.db = cb.doc_id
  WHERE i * 1.0 / (ca.n + cb.n - i) >= 0.2
),
deg AS (
  SELECT doc_id, CAST(COUNT(*) AS HUGEINT) AS d
  FROM (SELECT da AS doc_id FROM pairs
        UNION ALL SELECT db AS doc_id FROM pairs)
  GROUP BY doc_id
),
e AS (SELECT xa.d AS da, xb.d AS db
      FROM pairs JOIN deg xa ON pairs.da = xa.doc_id
                 JOIN deg xb ON pairs.db = xb.doc_id),
a AS (SELECT CAST(2 * COUNT(*) AS HUGEINT) AS n,
             CAST(COALESCE(SUM(da + db), 0) AS HUGEINT) AS sx,
             CAST(COALESCE(SUM(da * da + db * db), 0) AS HUGEINT) AS sxx,
             CAST(2 * COALESCE(SUM(da * db), 0) AS HUGEINT) AS sxy,
             CAST(COUNT(*) AS BIGINT) AS ne
      FROM e),
m AS (SELECT ne, n * sxy - sx * sx AS cov, n * sxx - sx * sx AS vx FROM a)
SELECT ne AS n_edges,
       CAST(CASE WHEN cov > 0 THEN 1 WHEN cov < 0 THEN -1 ELSE 0 END
            AS BIGINT) AS sign,
       CAST(CASE WHEN vx > 0
                 THEN ((1000000 * ABS(cov) // vx) * ABS(cov)) // vx
                 ELSE 0 END AS BIGINT) AS r2_micro
FROM m
""",
        # near-dup severity bands (dedup.dup_pair_sim_hist): the shared
        # shingle CTE's verified pairs bucketed at 500bp off the SAME
        # rounded jaccard double (LEAST caps the j=1.0 band at 19)
        # dup-vs-quality 2x2 census (dedup.dup_quality_matrix): the
        # shared shingle CTE's verified endpoints x the quality_score
        # rule verbatim
        "dup_quality_matrix": "WITH " + _NGRAM_CTE + r"""
, pairs AS (
  SELECT da, db
  FROM inter JOIN cnt ca ON inter.da = ca.doc_id
             JOIN cnt cb ON inter.db = cb.doc_id
  WHERE i * 1.0 / (ca.n + cb.n - i) >= 0.2
),
dups AS (SELECT DISTINCT doc_id FROM (
  SELECT da AS doc_id FROM pairs UNION ALL SELECT db FROM pairs)),
m AS (
  SELECT doc_id,
         len(ws) AS n_tokens,
         len(list_filter(ws, w -> list_contains(
             ['the','a','and','of','to','table','row','value','key','fast'], w)))
             AS n_stop,
         COALESCE(list_sum(list_transform(ws, w -> length(w))), 0) AS sum_len
  FROM arr
),
f AS (
  SELECT d.doc_id,
         d.doc_id IN (SELECT doc_id FROM dups) AS is_dup,
         (m.n_tokens BETWEEN 10 AND 1000)
           AND (m.n_stop * 10000 // GREATEST(m.n_tokens, 1) >= 100)
           AND (m.sum_len * 10000 // GREATEST(m.n_tokens, 1) <= 120000)
             AS quality_ok
  FROM documents d JOIN m ON m.doc_id = d.doc_id
)
SELECT is_dup, quality_ok, CAST(COUNT(*) AS BIGINT) AS n
FROM f GROUP BY 1, 2 ORDER BY is_dup, quality_ok
""",
        "dup_pair_sim_hist": "WITH " + _NGRAM_CTE + r"""
, pairs AS (
  SELECT ROUND(i * 1.0 / (ca.n + cb.n - i), 6) AS j
  FROM inter JOIN cnt ca ON inter.da = ca.doc_id
             JOIN cnt cb ON inter.db = cb.doc_id
  WHERE i * 1.0 / (ca.n + cb.n - i) >= 0.2
)
SELECT CAST(LEAST(FLOOR(j * 20), 19) * 500 AS BIGINT) AS band_bp,
       CAST(COUNT(*) AS BIGINT) AS n_pairs
FROM pairs GROUP BY 1 ORDER BY band_bp
""",
        "pair_degree_hist": "WITH " + _NGRAM_CTE + r""",
pairs AS (
  SELECT da, db
  FROM inter JOIN cnt ca ON inter.da = ca.doc_id
             JOIN cnt cb ON inter.db = cb.doc_id
  WHERE i * 1.0 / (ca.n + cb.n - i) >= 0.2
),
deg AS (
  SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS degree
  FROM (SELECT da AS doc_id FROM pairs
        UNION ALL SELECT db AS doc_id FROM pairs)
  GROUP BY doc_id
)
SELECT degree, CAST(COUNT(*) AS BIGINT) AS n_docs
FROM deg GROUP BY degree ORDER BY degree
""",
        # per-type daily volume shifts (relational.event_rate_shifts)
        "event_rate_shifts": """
WITH d AS (
  SELECT event_type, epoch_us(ts) // 86400000000 AS day,
         CAST(COUNT(*) AS BIGINT) AS n_events
  FROM events GROUP BY event_type, day
)
SELECT event_type, day, n_events,
       n_events - LAG(n_events) OVER (
           PARTITION BY event_type ORDER BY day) AS delta
FROM d ORDER BY event_type, day
""",
        # customer spend deciles (relational.customer_value_deciles):
        # nine exact order-statistic cut points (k = ceil(p*n/100)),
        # decile = count of cut points strictly below the spend
        "customer_value_deciles": """
WITH s AS (
  SELECT o_custkey, SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS spend_c
  FROM orders GROUP BY o_custkey
),
r AS (SELECT spend_c, ROW_NUMBER() OVER (ORDER BY spend_c) AS rn,
             COUNT(*) OVER () AS n FROM s),
t AS (SELECT
""" + ",\n".join(
            f"  MAX(CASE WHEN rn = ({p}*n + 99) // 100 THEN spend_c END)"
            f" AS t{p // 10}" for p in range(10, 100, 10)
        ) + """
FROM r),
d AS (SELECT s.o_custkey, s.spend_c, CAST(
""" + " +\n".join(
            f"  (CASE WHEN s.spend_c > t.t{j} THEN 1 ELSE 0 END)"
            for j in range(1, 10)
        ) + """
  AS BIGINT) AS decile
FROM s CROSS JOIN t)
SELECT decile, CAST(COUNT(*) AS BIGINT) AS n_customers,
       SUM(spend_c) / 100.0 AS total_spend
FROM d GROUP BY decile ORDER BY decile
""",
        # exact two-pass order statistics (relational.gap_quantiles):
        # k = ceil(p*n/100), 1-indexed; the value at rank k among ties
        # is well-defined, so ROW_NUMBER's tie order doesn't matter
        "gap_quantiles": """
WITH g AS (
  SELECT event_type,
         epoch_us(ts) - lag(epoch_us(ts)) OVER (
             PARTITION BY user_id, event_type ORDER BY ts, event_id) AS gap
  FROM events
),
gg AS (SELECT event_type, CAST(gap AS BIGINT) AS gap
       FROM g WHERE gap IS NOT NULL),
r AS (
  SELECT event_type, gap,
         ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY gap) AS rn,
         COUNT(*) OVER (PARTITION BY event_type) AS n
  FROM gg
)
SELECT event_type,
       MAX(CASE WHEN rn = (50*n + 99) // 100 THEN gap END) AS p50_us,
       MAX(CASE WHEN rn = (90*n + 99) // 100 THEN gap END) AS p90_us,
       MAX(CASE WHEN rn = (99*n + 99) // 100 THEN gap END) AS p99_us
FROM r GROUP BY event_type ORDER BY event_type
""",
        # part order-volume concentration (relational.part_concentration):
        # cut = value at ceil-rank P99 of per-part counts; strictly-above
        # vs tied-at-cut reported separately (tie-deterministic)
        "part_concentration": """
WITH c AS (
  SELECT l_partkey, CAST(COUNT(*) AS BIGINT) AS n
  FROM lineitem GROUP BY l_partkey
),
r AS (SELECT n, ROW_NUMBER() OVER (ORDER BY n) AS rn,
             COUNT(*) OVER () AS np FROM c),
cut AS (SELECT MAX(CASE WHEN rn = (99*np + 99) // 100 THEN n END) AS cc
        FROM r),
t AS (SELECT SUM(n) AS total, CAST(COUNT(*) AS BIGINT) AS n_parts FROM c)
SELECT cut.cc AS cut_count,
       t.n_parts,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM c WHERE n > cut.cc) AS n_above,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM c WHERE n = cut.cc) AS n_at,
       CAST(10000 * COALESCE((SELECT SUM(n) FROM c WHERE n > cut.cc), 0)
            // GREATEST(t.total, 1) AS BIGINT) AS mass_above_bp,
       CAST(10000 * COALESCE((SELECT SUM(n) FROM c WHERE n = cut.cc), 0)
            // GREATEST(t.total, 1) AS BIGINT) AS mass_at_bp
FROM cut CROSS JOIN t
""",
        # signup->purchase funnel latency (relational.conversion_latency):
        # first purchase AT-OR-AFTER the first signup, exact ceil-rank
        # order statistics like gap_quantiles
        "conversion_latency": """
WITH s AS (
  SELECT user_id, MIN(epoch_us(ts)) AS s_ts
  FROM events WHERE event_type = 'signup' GROUP BY user_id
),
p AS (
  SELECT e.user_id, MIN(epoch_us(e.ts)) AS p_ts
  FROM events e JOIN s USING (user_id)
  WHERE e.event_type = 'purchase' AND epoch_us(e.ts) >= s.s_ts
  GROUP BY e.user_id
),
l AS (SELECT p.user_id, CAST(p.p_ts - s.s_ts AS BIGINT) AS lat
      FROM p JOIN s USING (user_id)),
r AS (SELECT lat, ROW_NUMBER() OVER (ORDER BY lat) AS rn,
             COUNT(*) OVER () AS n FROM l)
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM s) AS n_signup_users,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM l) AS n_converted,
       MAX(CASE WHEN rn = (50*n + 99) // 100 THEN lat END) AS p50_us,
       MAX(CASE WHEN rn = (90*n + 99) // 100 THEN lat END) AS p90_us
FROM r
""",
        # dow×hour heatmap (relational.events_hour_heatmap): epoch day 0
        # = Thursday, dow = (days+4) % 7 with Sunday = 0 on both sides
        "events_hour_heatmap": """
SELECT (epoch_us(ts) // 86400000000 + 4) % 7 AS dow,
       (epoch_us(ts) // 3600000000) % 24    AS hour,
       CAST(COUNT(*) AS BIGINT) AS n_events
FROM events GROUP BY dow, hour ORDER BY dow, hour
""",
        # order fill latency (relational.orders_fill_latency): exact
        # µs-integer day floor on both sides
        "orders_fill_latency": """
WITH f AS (
  SELECT l_orderkey, MIN(l_shipdate) AS first_ship
  FROM lineitem GROUP BY l_orderkey
)
SELECT CAST((epoch_us(first_ship) - epoch_us(o_orderdate)) // 86400000000
            AS BIGINT) AS latency_days,
       CAST(COUNT(*) AS BIGINT) AS n_orders
FROM orders JOIN f ON o_orderkey = l_orderkey
GROUP BY latency_days ORDER BY latency_days
""",
        # TPC-H Q13 (relational.q13_custdist): order-count histogram
        # INCLUDING zero-order customers (the left join's raison d'etre)
        "q13_custdist": """
WITH c AS (
  SELECT c_custkey, CAST(COUNT(o_orderkey) AS BIGINT) AS c_count
  FROM customer LEFT OUTER JOIN orders ON c_custkey = o_custkey
  GROUP BY c_custkey
)
SELECT c_count, CAST(COUNT(*) AS BIGINT) AS custdist
FROM c GROUP BY c_count ORDER BY custdist DESC, c_count DESC
""",
        # TPC-H Q17 (relational.q17_small_quantity): correlated-average
        # subquery in exact integers — qty_c*5*n < sum(qty_c) per part
        "q17_small_quantity": """
WITH cand AS (
  SELECT l_partkey,
         CAST(round(l_quantity * 100) AS BIGINT)      AS qty_c,
         CAST(round(l_extendedprice * 100) AS BIGINT) AS price_c
  FROM lineitem JOIN part ON l_partkey = p_partkey
  WHERE p_brand = 'Brand#13' AND p_type = 'SMALL'
),
agg AS (
  SELECT l_partkey, SUM(qty_c) AS sq, CAST(COUNT(*) AS BIGINT) AS n
  FROM cand GROUP BY l_partkey
),
small AS (
  SELECT c.price_c
  FROM cand c JOIN agg a USING (l_partkey)
  WHERE c.qty_c * 5 * a.n < a.sq
)
SELECT (COALESCE(SUM(price_c), 0) // 7) / 100.0 AS avg_yearly,
       CAST(COUNT(*) AS BIGINT) AS n_items
FROM small
""",
        # TPC-H Q22 (relational.q22_wealthy_inactive): above-average
        # positive balance as the exact integer test bal_c * n > sum_c
        "q22_wealthy_inactive": """
WITH pos AS (
  SELECT SUM(CAST(round(c_acctbal * 100) AS BIGINT)) AS s,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM customer WHERE CAST(round(c_acctbal * 100) AS BIGINT) > 0
),
w AS (
  SELECT c_custkey, c_nationkey,
         CAST(round(c_acctbal * 100) AS BIGINT) AS bal_c
  FROM customer CROSS JOIN pos
  WHERE CAST(round(c_acctbal * 100) AS BIGINT) * pos.n > pos.s
    AND NOT EXISTS (SELECT 1 FROM orders WHERE o_custkey = c_custkey)
)
SELECT c_nationkey, CAST(COUNT(*) AS BIGINT) AS numcust,
       SUM(bal_c) / 100.0 AS totacctbal
FROM w GROUP BY c_nationkey ORDER BY c_nationkey
""",
        # TPC-H Q8 (relational.q8_market_share): nation's share of a
        # region's PROMO revenue per order year; exact integer share
        "q8_market_share": """
WITH j AS (
  SELECT CAST(year(o_orderdate) AS BIGINT) AS l_year,
         CAST(round(l_extendedprice * 100) AS BIGINT)
         * (100 - CAST(round(l_discount * 100) AS BIGINT)) AS rev_u,
         s_nationkey
  FROM lineitem
  JOIN orders   ON l_orderkey = o_orderkey
  JOIN customer ON o_custkey  = c_custkey
  JOIN part     ON l_partkey  = p_partkey
  JOIN supplier ON l_suppkey  = s_suppkey
  JOIN nation n2 ON c_nationkey = n2.n_nationkey
  JOIN region   ON n2.n_regionkey = r_regionkey
  WHERE r_name = 'ASIA' AND p_type = 'PROMO'
    AND o_orderdate >= TIMESTAMP '1996-01-01'
    AND o_orderdate <  TIMESTAMP '1998-01-01'
),
y AS (
  SELECT l_year,
         SUM(CASE WHEN s_nationkey =
             (SELECT n_nationkey FROM nation WHERE n_name = 'NATION_1')
             THEN rev_u ELSE 0 END) AS nat_u,
         SUM(rev_u) AS tot_u
  FROM j GROUP BY l_year
)
SELECT l_year,
       CAST(1000000 * nat_u // GREATEST(tot_u, 1) AS BIGINT) AS mkt_share_bp,
       (nat_u // 100) / 100.0 AS nation_revenue,
       (tot_u // 100) / 100.0 AS total_revenue
FROM y ORDER BY l_year
""",
        # TPC-H Q4 adapted (relational.q4_order_priority): EXISTS via the
        # max-shipdate sufficient statistic; 90-day test in exact µs ints
        "q4_order_priority": """
SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS order_count
FROM orders o
WHERE EXISTS (
  SELECT 1 FROM lineitem l
  WHERE l.l_orderkey = o.o_orderkey
    AND l.l_shipdate >= o.o_orderdate + INTERVAL 90 DAY
)
GROUP BY o_orderpriority ORDER BY o_orderpriority
""",
        # TPC-H Q21 (relational.q21_late_sole_supplier): sole-late-
        # supplier census over finished multi-supplier orders; lateness
        # is q4's 90-day rule (no commit/receipt dates in this lake)
        "q21_late_sole_supplier": """
WITH ls AS (
  SELECT l_orderkey, l_suppkey, MAX(l_shipdate) AS max_ship
  FROM lineitem GROUP BY 1, 2
),
flag AS (
  SELECT ls.l_orderkey, ls.l_suppkey,
         CASE WHEN ls.max_ship >= o.o_orderdate + INTERVAL 90 DAY
              THEN 1 ELSE 0 END AS late
  FROM ls JOIN orders o ON ls.l_orderkey = o.o_orderkey
  WHERE o.o_orderstatus = 'F'
),
per_order AS (
  SELECT l_orderkey, COUNT(*) AS n_supp, SUM(late) AS n_late
  FROM flag GROUP BY 1
)
SELECT s.s_name, CAST(COUNT(*) AS BIGINT) AS numwait
FROM flag f
JOIN per_order p USING (l_orderkey)
JOIN supplier s ON f.l_suppkey = s.s_suppkey
WHERE f.late = 1 AND p.n_supp > 1 AND p.n_late = 1
GROUP BY s.s_name
ORDER BY numwait DESC, s_name LIMIT 10
""",
        # TPC-H Q10 (relational.q10_returned_items): returned-item
        # revenue per customer, exact 1e-4-dollar integers, ordered by
        # the INTEGER revenue before the one display division
        "q10_returned_items": """
WITH rev AS (
  SELECT o_custkey AS c_custkey,
         SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS rev_u
  FROM lineitem JOIN orders ON l_orderkey = o_orderkey
  WHERE l_returnflag = 'R'
  GROUP BY o_custkey
)
SELECT c.c_custkey, c.c_name, n.n_name,
       ((rev.rev_u // 100) / 100.0) AS revenue
FROM rev
JOIN customer c USING (c_custkey)
JOIN nation n ON c.c_nationkey = n.n_nationkey
ORDER BY rev.rev_u DESC, c.c_custkey LIMIT 20
""",
        "q5_region_revenue": """
SELECT n_name,
       (SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
            * (100 - CAST(round(l_discount * 100) AS BIGINT))) // 100) / 100.0
           AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey
  AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey
  AND n_regionkey = r_regionkey
  AND r_name = 'ASIA'
  AND o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate <  TIMESTAMP '1997-01-01'
GROUP BY n_name
ORDER BY n_name
""",
        "customers_without_orders": """
SELECT c_custkey, c_name FROM customer
WHERE c_custkey NOT IN (SELECT o_custkey FROM orders)
ORDER BY c_custkey
""",
        "user_hour_activity": """
SELECT user_id,
       epoch_us(ts) // 3600000000 AS hour_bucket,
       COUNT(*)                   AS n_events,
       SUM(CAST(round(value * 100) AS BIGINT)) / 100.0 AS sum_value
FROM events
GROUP BY user_id, hour_bucket
ORDER BY user_id, hour_bucket
""",
        # ordered running aggregate (relational.user_running_value)
        "user_running_value": """
SELECT event_id, user_id,
       CAST(SUM(CAST(round(value * 100) AS BIGINT)) OVER (
            PARTITION BY user_id ORDER BY ts, event_id)
            AS BIGINT) AS running_cents
FROM events ORDER BY event_id
""",
        # gaps-and-islands streaks (relational.user_streaks): the
        # classic d - ROW_NUMBER island trick
        "user_streaks": """
WITH days AS (
  SELECT DISTINCT user_id, epoch_us(ts) // 86400000000 AS d FROM events
),
isl AS (
  SELECT user_id, d,
         d - ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY d) AS grp
  FROM days
),
runs AS (
  SELECT user_id, grp, CAST(COUNT(*) AS BIGINT) AS len
  FROM isl GROUP BY 1, 2
)
SELECT user_id, CAST(SUM(len) AS BIGINT) AS n_active_days,
       CAST(COUNT(*) AS BIGINT) AS n_streaks,
       CAST(MAX(len) AS BIGINT) AS longest_streak
FROM runs GROUP BY user_id ORDER BY user_id
""",
        # PIVOT / crosstab (relational.user_type_pivot): one count
        # column per event type + n_other, the wide feature matrix
        "user_type_pivot": """
SELECT user_id,
       CAST(SUM(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END)
            AS BIGINT) AS n_click,
       CAST(SUM(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END)
            AS BIGINT) AS n_error,
       CAST(SUM(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END)
            AS BIGINT) AS n_purchase,
       CAST(SUM(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END)
            AS BIGINT) AS n_signup,
       CAST(SUM(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END)
            AS BIGINT) AS n_view,
       CAST(SUM(CASE WHEN event_type NOT IN
                ('click', 'error', 'purchase', 'signup', 'view')
                THEN 1 ELSE 0 END) AS BIGINT) AS n_other
FROM events GROUP BY user_id ORDER BY user_id
""",
        # ROLLUP (relational.events_rollup): three grouping levels in
        # one pass, NULLs mark rolled-up dimensions
        "events_rollup": """
SELECT event_type, CAST(hour_bucket AS BIGINT) AS hour_bucket,
       CAST(COUNT(*) AS BIGINT) AS n
FROM (SELECT event_type, epoch_us(ts) // 3600000000 AS hour_bucket
      FROM events)
GROUP BY ROLLUP (event_type, hour_bucket)
ORDER BY event_type ASC, hour_bucket ASC, n ASC
""",
        # TPC-H Q18 large-volume customers (relational.q18_large_orders):
        # the large×large×large co-partitioned join exemplar
        "q18_large_orders": """
WITH big AS (
  SELECT l_orderkey, CAST(SUM(CAST(round(l_quantity) AS BIGINT)) AS BIGINT)
         AS sum_qty
  FROM lineitem GROUP BY l_orderkey
  HAVING SUM(CAST(round(l_quantity) AS BIGINT)) > 250
)
SELECT c.c_name, o.o_custkey, o.o_orderkey, o.o_orderdate,
       o.o_totalprice, big.sum_qty
FROM big
JOIN orders o ON o.o_orderkey = big.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
ORDER BY o.o_totalprice DESC, o.o_orderdate ASC, o.o_orderkey ASC
LIMIT 100
""",
        # rank-transform / CDF normalization (relational.
        # value_rank_transform): RANK tie semantics in exact integers
        "value_rank_transform": """
WITH c AS (
  SELECT event_id, event_type,
         CAST(round(value * 100) AS BIGINT) AS v FROM events
),
r AS (
  SELECT event_id,
         RANK() OVER (PARTITION BY event_type ORDER BY v) AS rk,
         COUNT(*) OVER (PARTITION BY event_type) AS n
  FROM c
)
SELECT event_id,
       CAST(CASE WHEN n > 1 THEN ((rk - 1) * 10000) // (n - 1)
                 ELSE 0 END AS BIGINT) AS pct_rank_bp
FROM r ORDER BY event_id
""",
        # exact per-type value quantiles (relational.value_quantiles):
        # smallest v whose rank reaches the pure-integer ceil(q*n)
        "value_quantiles": """
WITH c AS (SELECT event_type,
                  CAST(round(value * 100) AS BIGINT) AS v FROM events),
r AS (SELECT event_type, v,
             ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY v) AS rn,
             COUNT(*) OVER (PARTITION BY event_type) AS n
      FROM c)
SELECT event_type,
       MIN(CASE WHEN rn >= (50 * n + 99) // 100 THEN v END) AS p50_cents,
       MIN(CASE WHEN rn >= (90 * n + 99) // 100 THEN v END) AS p90_cents,
       MIN(CASE WHEN rn >= (99 * n + 99) // 100 THEN v END) AS p99_cents
FROM r GROUP BY event_type ORDER BY event_type
""",
        # exact DAU / rolling 7-day WAU (relational.active_users):
        # the windowed-DISTINCT shape
        "active_users": """
WITH days AS (
  SELECT DISTINCT user_id,
         epoch_us(ts) // 86400000000 AS d FROM events
),
all_days AS (SELECT DISTINCT d FROM days),
dau AS (SELECT d, CAST(COUNT(*) AS BIGINT) AS dau FROM days GROUP BY d),
wau AS (
  SELECT a.d, CAST(COUNT(DISTINCT u.user_id) AS BIGINT) AS wau
  FROM all_days a JOIN days u ON u.d BETWEEN a.d - 6 AND a.d
  GROUP BY a.d
)
SELECT dau.d AS day, dau.dau, wau.wau
FROM dau JOIN wau ON dau.d = wau.d ORDER BY day
""",
        # exact second moments per type (relational.value_moments):
        # population variance closed in HUGEINT with one shared floor
        "value_moments": """
WITH c AS (SELECT event_type,
                  CAST(round(value * 100) AS BIGINT) AS v FROM events),
a AS (SELECT event_type, CAST(COUNT(*) AS HUGEINT) AS n,
             CAST(SUM(v) AS HUGEINT) AS s,
             CAST(SUM(CAST(v AS HUGEINT) * v) AS HUGEINT) AS sq
      FROM c GROUP BY 1)
SELECT event_type, CAST(n AS BIGINT) AS n, CAST(s AS BIGINT) AS sum_cents,
       CAST(((n * sq - s * s) * 1000000) // (n * n) AS BIGINT) AS var_micro
FROM a ORDER BY event_type
""",
        # per-user event-type Markov transitions (relational.
        # event_transitions): LEAD over (ts, event_id) order
        # second-order behavior sequences (relational.event_trigrams)
        # churn-surface ranking (relational.exit_rates)
        # customer-base maturation curve (relational.repeat_share_monthly):
        # month key = months since year 0 (year*12 + month-1)
        "repeat_share_monthly": """
WITH o AS (
  SELECT CAST(year(o_orderdate) * 12 + month(o_orderdate) - 1 AS BIGINT)
             AS month,
         ROW_NUMBER() OVER (PARTITION BY o_custkey
                            ORDER BY o_orderdate, o_orderkey) AS rn
  FROM orders
)
SELECT month, CAST(COUNT(*) AS BIGINT) AS n_orders,
       CAST(SUM(CASE WHEN rn > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_repeat,
       CAST(10000 * SUM(CASE WHEN rn > 1 THEN 1 ELSE 0 END) // COUNT(*)
            AS BIGINT) AS repeat_bp
FROM o GROUP BY month ORDER BY month
""",
        "exit_rates": """
WITH l AS (
  SELECT user_id, event_type FROM events
  QUALIFY ROW_NUMBER() OVER (
      PARTITION BY user_id ORDER BY ts DESC, event_id DESC) = 1
),
c AS (SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n
      FROM events GROUP BY 1),
e AS (SELECT event_type, CAST(COUNT(*) AS BIGINT) AS x FROM l GROUP BY 1)
SELECT c.event_type, c.n AS n_events,
       CAST(COALESCE(e.x, 0) AS BIGINT) AS n_exits,
       CAST(1000000 * COALESCE(e.x, 0) // c.n AS BIGINT) AS exit_micro
FROM c LEFT JOIN e USING (event_type)
ORDER BY event_type
""",
        "event_trigrams": """
WITH s AS (
  SELECT event_type AS a,
         LEAD(event_type, 1) OVER w AS b,
         LEAD(event_type, 2) OVER w AS c
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT a, b, c, CAST(COUNT(*) AS BIGINT) AS n
FROM s WHERE b IS NOT NULL AND c IS NOT NULL
GROUP BY 1, 2, 3 ORDER BY n DESC, a, b, c LIMIT 20
""",
        # pricing-policy census (relational.discount_bands)
        # order-shape profile (relational.order_size_hist)
        # engagement-longevity profile (relational.user_lifetime_hist)
        "user_lifetime_hist": """
WITH u AS (
  SELECT user_id,
         (MAX(epoch_us(ts)) - MIN(epoch_us(ts))) // 86400000000 AS days
  FROM events GROUP BY user_id
)
SELECT CAST(days AS BIGINT) AS lifetime_days,
       CAST(COUNT(*) AS BIGINT) AS n_users
FROM u GROUP BY days ORDER BY lifetime_days
""",
        "order_size_hist": """
WITH s AS (
  SELECT o.o_orderkey, COUNT(l.l_orderkey) AS n_lines
  FROM orders o LEFT JOIN lineitem l ON l.l_orderkey = o.o_orderkey
  GROUP BY 1
)
SELECT CAST(n_lines AS BIGINT) AS n_lines,
       CAST(COUNT(*) AS BIGINT) AS n_orders
FROM s GROUP BY n_lines ORDER BY n_lines
""",
        # supplier-quality screen (relational.brand_return_rates)
        "brand_return_rates": """
WITH j AS (
  SELECT p.p_brand,
         CASE WHEN l.l_returnflag = 'R' THEN 1 ELSE 0 END AS r
  FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
)
SELECT p_brand, CAST(COUNT(*) AS BIGINT) AS n_lines,
       CAST(SUM(r) AS BIGINT) AS n_returned,
       CAST(10000 * SUM(r) // COUNT(*) AS BIGINT) AS return_bp
FROM j GROUP BY p_brand ORDER BY p_brand
""",
        "discount_bands": """
WITH c AS (
  SELECT CAST(round(l_discount * 100) AS BIGINT) AS disc_pct,
         CAST(round(l_extendedprice * 100) AS BIGINT) AS price_c,
         CAST(round(l_quantity) AS BIGINT) AS qty
  FROM lineitem
)
SELECT disc_pct, CAST(COUNT(*) AS BIGINT) AS n_lines,
       CAST(SUM(price_c) AS BIGINT) AS gross_cents,
       CAST(SUM(price_c * (100 - disc_pct)) // 100 AS BIGINT) AS net_cents,
       CAST(1000000 * SUM(qty) // COUNT(*) AS BIGINT) AS avg_qty_micro
FROM c GROUP BY disc_pct ORDER BY disc_pct
""",
        # ingest-health referential audit (relational.ref_integrity_audit)
        "ref_integrity_audit": """
SELECT * FROM (
  SELECT 'empty_orders' AS "check", CAST(COUNT(*) AS BIGINT) AS n
  FROM orders o WHERE NOT EXISTS (
    SELECT 1 FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)
  UNION ALL
  SELECT 'orphan_lineitems', CAST(COUNT(*) AS BIGINT)
  FROM lineitem l WHERE NOT EXISTS (
    SELECT 1 FROM orders o WHERE o.o_orderkey = l.l_orderkey)
  UNION ALL
  SELECT 'orphan_orders', CAST(COUNT(*) AS BIGINT)
  FROM orders o WHERE NOT EXISTS (
    SELECT 1 FROM customer c WHERE c.c_custkey = o.o_custkey)
) ORDER BY "check"
""",
        "event_transitions": """
WITH s AS (
  SELECT user_id, event_type,
         LEAD(event_type) OVER (
             PARTITION BY user_id ORDER BY ts, event_id) AS nxt
  FROM events
)
SELECT event_type AS from_type, nxt AS to_type,
       CAST(COUNT(*) AS BIGINT) AS n
FROM s WHERE nxt IS NOT NULL
GROUP BY 1, 2 ORDER BY n DESC, from_type ASC, to_type ASC
""",
        # burst anomaly (relational.user_burst_anomaly): hottest hour vs
        # k×mean hourly rate, decided in exact integer cross-multiplication
        "user_burst_anomaly": """
WITH h AS (
  SELECT user_id, epoch_us(ts) // 3600000000 AS hb,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
)
SELECT user_id, CAST(SUM(n) AS BIGINT) AS n_events,
       CAST(COUNT(*) AS BIGINT) AS n_hours,
       CAST(MAX(n) AS BIGINT) AS max_hour_cnt,
       CAST(CASE WHEN MAX(n) * COUNT(*) > 2 * SUM(n)
                 THEN 1 ELSE 0 END AS BIGINT) AS burst
FROM h GROUP BY user_id ORDER BY user_id
""",
        "user_sliding_activity": """
WITH e AS (
  SELECT user_id, epoch_us(ts) // 3600000000 AS hb FROM events
),
x AS (
  SELECT user_id, unnest([hb, hb - 1]) AS window_start_hour FROM e
)
SELECT user_id, window_start_hour, CAST(COUNT(*) AS BIGINT) AS n_events
FROM x GROUP BY user_id, window_start_hour
ORDER BY user_id, window_start_hour
""",
        "distinct_event_types": """
SELECT DISTINCT event_type FROM events ORDER BY event_type
""",
        # scored lookup against the broadcast persona dimension table
        # (see relational.PERSONAS; the papersize-guess graft)
        "user_persona_match": """
WITH c AS (
  SELECT user_id,
    SUM(CASE WHEN event_type = 'click'    THEN 1 ELSE 0 END) AS n_click,
    SUM(CASE WHEN event_type = 'error'    THEN 1 ELSE 0 END) AS n_error,
    SUM(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS n_purchase,
    SUM(CASE WHEN event_type = 'signup'   THEN 1 ELSE 0 END) AS n_signup,
    SUM(CASE WHEN event_type = 'view'     THEN 1 ELSE 0 END) AS n_view,
    COUNT(*) AS total
  FROM events GROUP BY user_id
),
r AS (
  SELECT user_id,
    n_click    * 10000 // GREATEST(total, 1) AS bp_click,
    n_error    * 10000 // GREATEST(total, 1) AS bp_error,
    n_purchase * 10000 // GREATEST(total, 1) AS bp_purchase,
    n_signup   * 10000 // GREATEST(total, 1) AS bp_signup,
    n_view     * 10000 // GREATEST(total, 1) AS bp_view
  FROM c
),
p AS (SELECT * FROM (VALUES
  ('browser', 3000, 200, 300, 500, 6000),
  ('buyer',   3500, 200, 2500, 800, 3000),
  ('monitor', 1000, 4000, 0, 0, 5000),
  ('newcomer', 2000, 500, 500, 4000, 3000)
) AS t(persona, e_click, e_error, e_purchase, e_signup, e_view)),
s AS (
  SELECT r.user_id, p.persona,
    ABS(bp_click - e_click) + ABS(bp_error - e_error)
      + ABS(bp_purchase - e_purchase) + ABS(bp_signup - e_signup)
      + ABS(bp_view - e_view) AS diff_bp
  FROM r CROSS JOIN p
),
ranked AS (
  SELECT user_id, persona, diff_bp,
    CAST(ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY diff_bp, persona)
         AS BIGINT) AS rnk
  FROM s
)
SELECT user_id, rnk, persona, CAST(diff_bp AS BIGINT) AS diff_bp,
       CAST(GREATEST(10000 - diff_bp, 0) AS BIGINT) AS confidence_bp
FROM ranked WHERE rnk <= 3 ORDER BY user_id, rnk
""",
        "sessionize_users": """
WITH o AS (
    SELECT user_id, ts,
           LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev
    FROM events
)
SELECT user_id,
       CAST(SUM(CASE WHEN prev IS NULL OR ts - prev > INTERVAL 30 MINUTE
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_sessions
FROM o GROUP BY user_id ORDER BY user_id
""",
        # two independent exchange chains onto one nation frame
        # (relational.nation_trade_balance): supplier revenue vs
        # customer spend, zeros kept
        "nation_trade_balance": """
WITH s AS (
  SELECT sp.s_nationkey AS nk,
         CAST(SUM(CAST(round(l.l_extendedprice * 100) AS BIGINT) *
                  (100 - CAST(round(l.l_discount * 100) AS BIGINT)))
              AS BIGINT) AS rev
  FROM lineitem l JOIN supplier sp ON sp.s_suppkey = l.l_suppkey
  GROUP BY 1
),
c AS (
  SELECT cu.c_nationkey AS nk,
         CAST(SUM(CAST(round(o.o_totalprice * 100) AS BIGINT)) AS BIGINT)
             AS spend
  FROM orders o JOIN customer cu ON cu.c_custkey = o.o_custkey
  GROUP BY 1
)
SELECT n.n_name,
       CAST(COALESCE(s.rev, 0) AS BIGINT) AS supplier_rev_e4,
       CAST(COALESCE(c.spend, 0) AS BIGINT) AS customer_spend_cents
FROM nation n
LEFT JOIN s ON s.nk = n.n_nationkey
LEFT JOIN c ON c.nk = n.n_nationkey
ORDER BY n.n_name
""",
        # first-touch attribution (relational.first_touch_attribution):
        # first event type per user stream + ever-purchased conversion
        "first_touch_attribution": """
WITH u AS (
  SELECT user_id,
         FIRST_VALUE(event_type) OVER (
             PARTITION BY user_id ORDER BY ts, event_id) AS ft,
         MAX(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END)
             OVER (PARTITION BY user_id) AS conv
  FROM events
),
d AS (SELECT DISTINCT user_id, ft, conv FROM u)
SELECT ft AS first_touch, CAST(COUNT(*) AS BIGINT) AS n_users,
       CAST(SUM(conv) AS BIGINT) AS n_converted,
       CAST(10000 * SUM(conv) // GREATEST(COUNT(*), 1) AS BIGINT) AS cvr_bp
FROM d GROUP BY ft ORDER BY first_touch
""",
        # lag-1 sequence autocorrelation (relational.user_value_autocorr):
        # per-user ordered pairs, closed as exact integer co-moments
        "user_value_autocorr": """
WITH s AS (
  SELECT user_id, CAST(round(value * 100) AS BIGINT) AS v,
         LAG(CAST(round(value * 100) AS BIGINT)) OVER (
           PARTITION BY user_id ORDER BY ts, event_id) AS pv
  FROM events
),
p AS (SELECT pv AS x, v AS y FROM s WHERE pv IS NOT NULL),
a AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n,
             CAST(COALESCE(SUM(x), 0) AS HUGEINT) AS sx,
             CAST(COALESCE(SUM(y), 0) AS HUGEINT) AS sy,
             CAST(COALESCE(SUM(CAST(x AS HUGEINT) * x), 0) AS HUGEINT) AS sxx,
             CAST(COALESCE(SUM(CAST(y AS HUGEINT) * y), 0) AS HUGEINT) AS syy,
             CAST(COALESCE(SUM(CAST(x AS HUGEINT) * y), 0) AS HUGEINT) AS sxy
      FROM p),
m AS (SELECT n, n * sxy - sx * sy AS cov,
             n * sxx - sx * sx AS vx, n * syy - sy * sy AS vy
      FROM a)
SELECT CAST(n AS BIGINT) AS n_pairs,
       CAST(CASE WHEN cov > 0 THEN 1 WHEN cov < 0 THEN -1 ELSE 0 END
            AS BIGINT) AS sign,
       CAST(CASE WHEN vx > 0 AND vy > 0
                 THEN ((1000000 * ABS(cov) // vx) * ABS(cov)) // vy
                 ELSE 0 END AS BIGINT) AS r2_micro
FROM m
""",
        # per-group argmax (relational.brand_top_supplier): discounted
        # revenue in exact 1e-4 dollar ints, ties to the smallest suppkey
        "brand_top_supplier": """
WITH rev AS (
  SELECT l_partkey, l_suppkey,
         CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT) *
                  (100 - CAST(round(l_discount * 100) AS BIGINT)))
              AS BIGINT) AS r
  FROM lineitem GROUP BY 1, 2
),
b AS (
  SELECT p.p_brand, rev.l_suppkey AS s, SUM(r) AS r
  FROM rev JOIN part p ON p.p_partkey = rev.l_partkey
  GROUP BY 1, 2
),
w AS (SELECT p_brand, s, r,
             ROW_NUMBER() OVER (PARTITION BY p_brand
                                ORDER BY r DESC, s) AS rn
      FROM b)
SELECT p_brand, CAST(s AS BIGINT) AS s_suppkey,
       CAST(r AS BIGINT) AS revenue_e4
FROM w WHERE rn = 1 ORDER BY p_brand
""",
        # two-key distinct census (relational.brand_supplier_census):
        # Q16's shape — COUNT(*) over j is the distinct pair count
        # because ps is deduped and partkey is unique in part
        "brand_supplier_census": """
WITH ps AS (SELECT DISTINCT l_partkey, l_suppkey FROM lineitem),
j AS (SELECT p.p_brand, ps.l_partkey, ps.l_suppkey
      FROM ps JOIN part p ON p.p_partkey = ps.l_partkey)
SELECT p_brand,
       CAST(COUNT(DISTINCT l_partkey) AS BIGINT) AS n_parts,
       CAST(COUNT(*) AS BIGINT) AS n_pairs,
       CAST(COUNT(DISTINCT l_suppkey) AS BIGINT) AS n_suppliers
FROM j GROUP BY p_brand ORDER BY p_brand
""",
        # exact Gini per segment (relational.spend_gini): rank dot
        # product over the range-partitioned sort; tie order can't move
        # the sum, so ROW_NUMBER's arbitrary tie-break is safe
        "spend_gini": """
WITH t AS (SELECT o_custkey,
                  CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT))
                       AS BIGINT) AS cents
           FROM orders GROUP BY 1),
j AS (SELECT c.c_mktsegment AS seg, t.cents
      FROM t JOIN customer c ON c.c_custkey = t.o_custkey),
r AS (SELECT seg, cents,
             ROW_NUMBER() OVER (PARTITION BY seg ORDER BY cents) AS rn
      FROM j),
a AS (SELECT seg, CAST(COUNT(*) AS HUGEINT) AS n,
             CAST(SUM(CAST(cents AS HUGEINT)) AS HUGEINT) AS tot,
             CAST(SUM(CAST(rn AS HUGEINT) * cents) AS HUGEINT) AS s
      FROM r GROUP BY seg)
SELECT seg AS c_mktsegment, CAST(n AS BIGINT) AS n_customers,
       CAST(tot AS BIGINT) AS total_cents,
       CAST(((2 * s - (n + 1) * tot) * 1000000) // (n * tot) AS BIGINT)
           AS gini_micro
FROM a ORDER BY c_mktsegment
""",
        # exact integer co-moments (relational.value_hour_corr): Pearson
        # value-cents x hour-of-day as sign + r2_micro, stepwise-floored
        # on |cov| so every operand is nonnegative and fits HUGEINT
        "value_hour_corr": """
WITH c AS (
  SELECT event_type, CAST(round(value * 100) AS BIGINT) AS x,
         (epoch_us(ts) // 3600000000) % 24 AS y
  FROM events
),
a AS (SELECT event_type, CAST(COUNT(*) AS HUGEINT) AS n,
             CAST(SUM(x) AS HUGEINT) AS sx, CAST(SUM(y) AS HUGEINT) AS sy,
             CAST(SUM(CAST(x AS HUGEINT) * x) AS HUGEINT) AS sxx,
             CAST(SUM(CAST(y AS HUGEINT) * y) AS HUGEINT) AS syy,
             CAST(SUM(CAST(x AS HUGEINT) * y) AS HUGEINT) AS sxy
      FROM c GROUP BY 1),
m AS (SELECT event_type, n, n * sxy - sx * sy AS cov,
             n * sxx - sx * sx AS vx, n * syy - sy * sy AS vy
      FROM a)
SELECT event_type, CAST(n AS BIGINT) AS n,
       CAST(CASE WHEN cov > 0 THEN 1 WHEN cov < 0 THEN -1 ELSE 0 END
            AS BIGINT) AS sign,
       CAST(CASE WHEN vx > 0 AND vy > 0
                 THEN ((1000000 * ABS(cov) // vx) * ABS(cov)) // vy
                 ELSE 0 END AS BIGINT) AS r2_micro
FROM m ORDER BY event_type
""",
        # dimension x time rollup (relational.region_monthly_revenue)
        "region_monthly_revenue": """
SELECT r.r_name,
       CAST(year(l.l_shipdate) * 100 + month(l.l_shipdate) AS BIGINT)
           AS month,
       CAST(SUM(CAST(round(l.l_extendedprice * 100) AS BIGINT) *
                (100 - CAST(round(l.l_discount * 100) AS BIGINT)))
            AS BIGINT) AS revenue_e4
FROM lineitem l
JOIN supplier s ON s.s_suppkey = l.l_suppkey
JOIN nation n ON n.n_nationkey = s.s_nationkey
JOIN region r ON r.r_regionkey = n.n_regionkey
GROUP BY 1, 2 ORDER BY r_name, month
""",
        # fulfilment SLO slice (relational.ship_delay_by_priority):
        # exact integer mean delay in micro-days, shared floor
        "ship_delay_by_priority": """
WITH j AS (
  SELECT o.o_orderpriority AS p,
         epoch_us(l.l_shipdate) - epoch_us(o.o_orderdate) AS d
  FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
)
SELECT p AS o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n_items,
       CAST(CAST(SUM(CAST(d AS HUGEINT)) AS HUGEINT) * 1000000
            // (CAST(COUNT(*) AS HUGEINT) * 86400000000) AS BIGINT)
           AS avg_delay_microdays
FROM j GROUP BY p ORDER BY p
""",
        # RFM table (relational.customer_rfm)
        "customer_rfm": """
SELECT o_custkey,
       CAST(MAX(epoch_us(o_orderdate) // 86400000000) AS BIGINT)
           AS last_order_day,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS total_cents
FROM orders GROUP BY o_custkey ORDER BY o_custkey
""",
        # weighted order statistic (relational.weighted_price_median):
        # the price of the median shipped unit, rank (W+1)//2
        "weighted_price_median": """
WITH c AS (SELECT CAST(round(l_extendedprice * 100) AS BIGINT) AS v,
                  CAST(round(l_quantity) AS BIGINT) AS w FROM lineitem),
a AS (SELECT v, CAST(SUM(w) AS HUGEINT) AS w FROM c GROUP BY v),
t AS (SELECT CAST(SUM(w) AS HUGEINT) AS tw FROM a),
r AS (SELECT v, SUM(w) OVER (ORDER BY v ROWS UNBOUNDED PRECEDING) AS cw
      FROM a)
SELECT CAST(t.tw AS BIGINT) AS total_weight,
       CAST(MIN(CASE WHEN r.cw >= (t.tw + 1) // 2 THEN r.v END) AS BIGINT)
           AS median_cents
FROM r CROSS JOIN t GROUP BY t.tw
""",
        # same-amount repeat purchases inside the window
        # (relational.dup_payment_candidates)
        "dup_payment_candidates": """
WITH p AS (
  SELECT user_id, CAST(round(value * 100) AS BIGINT) AS v, ts, event_id
  FROM events WHERE event_type = 'purchase'
),
s AS (
  SELECT user_id,
         epoch_us(ts) - LAG(epoch_us(ts)) OVER (
           PARTITION BY user_id, v ORDER BY ts, event_id) AS gap
  FROM p
)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_suspicious
FROM s WHERE gap IS NOT NULL AND gap <= 600000000
GROUP BY user_id ORDER BY user_id
""",
        # user-dimension association lift (relational.user_type_affinity)
        "user_type_affinity": """
WITH ut AS (SELECT DISTINCT user_id, event_type FROM events),
n AS (SELECT event_type, CAST(COUNT(*) AS HUGEINT) AS n FROM ut GROUP BY 1),
tot AS (SELECT CAST(COUNT(DISTINCT user_id) AS HUGEINT) AS nu FROM events),
b AS (SELECT a.event_type AS ta, bb.event_type AS tb,
             CAST(COUNT(*) AS HUGEINT) AS n2
      FROM ut a JOIN ut bb ON a.user_id = bb.user_id
                           AND a.event_type < bb.event_type
      GROUP BY 1, 2),
p AS (SELECT na.event_type AS ta, nb.event_type AS tb,
             na.n AS na, nb.n AS nb
      FROM n na JOIN n nb ON na.event_type < nb.event_type)
SELECT p.ta AS type_a, p.tb AS type_b,
       CAST(COALESCE(b.n2, 0) AS BIGINT) AS n_both,
       CAST(1000000 * COALESCE(b.n2, 0) * tot.nu // (p.na * p.nb)
            AS BIGINT) AS lift_micro
FROM p LEFT JOIN b ON b.ta = p.ta AND b.tb = p.tb CROSS JOIN tot
ORDER BY type_a, type_b
""",
        # sweep-line consumer #2 (relational.order_backlog_peak): open
        # orders [orderdate, last shipdate], same distinct-ts scan
        "order_backlog_peak": """
WITH le AS (SELECT l_orderkey, MAX(epoch_us(l_shipdate)) AS en
            FROM lineitem GROUP BY 1),
iv AS (SELECT epoch_us(o.o_orderdate) AS st,
              GREATEST(COALESCE(le.en, epoch_us(o.o_orderdate)),
                       epoch_us(o.o_orderdate)) AS en
       FROM orders o LEFT JOIN le ON le.l_orderkey = o.o_orderkey),
pts AS (SELECT st AS t, 1 AS d_ns, 0 AS d_ne FROM iv
        UNION ALL SELECT en AS t, 0 AS d_ns, 1 AS d_ne FROM iv),
g AS (SELECT t, SUM(d_ns) AS ns, SUM(d_ne) AS ne FROM pts GROUP BY t),
sc AS (
  SELECT t,
         SUM(ns) OVER (ORDER BY t ROWS UNBOUNDED PRECEDING)
         - (SUM(ne) OVER (ORDER BY t ROWS UNBOUNDED PRECEDING) - ne) AS conc
  FROM g
),
d AS (SELECT t // 86400000000 AS day, t, conc FROM sc),
mx AS (SELECT day, MAX(conc) AS peak FROM d GROUP BY day)
SELECT d.day,
       CAST(mx.peak AS BIGINT) AS open_orders_peak,
       CAST(MIN(d.t) AS BIGINT) AS peak_ts_us
FROM d JOIN mx ON d.day = mx.day AND d.conc = mx.peak
GROUP BY d.day, mx.peak ORDER BY d.day
""",
        # robust stats (relational.value_mad): exact median + MAD in
        # cents, both at the value_quantiles rank convention ceil(n/2)
        "value_mad": """
WITH c AS (SELECT event_type,
                  CAST(round(value * 100) AS BIGINT) AS v FROM events),
m AS (SELECT event_type, v,
             ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY v) AS rn,
             COUNT(*) OVER (PARTITION BY event_type) AS n
      FROM c),
med AS (SELECT event_type,
               MIN(CASE WHEN rn >= (50 * n + 99) // 100 THEN v END) AS med,
               MAX(n) AS n_med
        FROM m GROUP BY event_type),
d AS (SELECT c.event_type, ABS(c.v - med.med) AS dv
      FROM c JOIN med USING (event_type)),
r AS (SELECT event_type, dv,
             ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY dv) AS rn,
             COUNT(*) OVER (PARTITION BY event_type) AS n
      FROM d)
SELECT event_type, CAST(n_med AS BIGINT) AS n,
       CAST(med AS BIGINT) AS median_cents,
       CAST(MIN(CASE WHEN r.rn >= (50 * r.n + 99) // 100 THEN r.dv END)
            AS BIGINT) AS mad_cents
FROM r JOIN med USING (event_type)
GROUP BY event_type, n_med, med ORDER BY event_type
""",
        # robust daily-volume anomaly screen
        # (relational.daily_volume_anomaly): median/MAD in exact ints,
        # flag decided by integer cross-multiplication
        "daily_volume_anomaly": """
WITH d AS (
  SELECT event_type, epoch_us(ts) // 86400000000 AS day,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
),
r AS (SELECT event_type, n,
             ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY n) AS rn,
             COUNT(*) OVER (PARTITION BY event_type) AS cnt
      FROM d),
med AS (SELECT event_type,
               MIN(CASE WHEN rn >= (50 * cnt + 99) // 100 THEN n END) AS med
        FROM r GROUP BY event_type),
dv AS (SELECT d.event_type, ABS(d.n - med.med) AS adev
       FROM d JOIN med USING (event_type)),
r2 AS (SELECT event_type, adev,
              ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY adev) AS rn,
              COUNT(*) OVER (PARTITION BY event_type) AS cnt
       FROM dv),
mad AS (SELECT event_type,
               MIN(CASE WHEN rn >= (50 * cnt + 99) // 100 THEN adev END)
                   AS mad
        FROM r2 GROUP BY event_type)
SELECT d.event_type, d.day, d.n AS n_events,
       CAST(CASE WHEN 2 * ABS(d.n - med.med) > 3 * (2 * mad.mad)
                 THEN 1 ELSE 0 END AS BIGINT) AS anomaly
FROM d JOIN med USING (event_type) JOIN mad USING (event_type)
ORDER BY d.event_type, d.day
""",
        # media storage census (multimodal.media_size_stats): the
        # synthetic header arithmetic folded per kind
        "media_size_stats": """
WITH m AS (
  SELECT ['image','audio','video'][(doc_id % 3) + 1] AS kind,
         CAST(octet_length(encode(text)) AS BIGINT) AS b
  FROM documents
)
SELECT kind, CAST(COUNT(*) AS BIGINT) AS n_items,
       CAST(SUM(b) AS BIGINT) AS total_bytes,
       CAST(MAX(b) AS BIGINT) AS max_bytes
FROM m GROUP BY kind ORDER BY kind
""",
        # engagement-depth histogram (relational.session_length_hist)
        "session_length_hist": """
WITH o AS (
  SELECT user_id, ts, event_id,
         LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev
  FROM events
),
m AS (SELECT user_id, ts, event_id,
             CASE WHEN prev IS NULL OR ts - prev > INTERVAL 30 MINUTE
                  THEN 1 ELSE 0 END AS is_new
      FROM o),
sid AS (SELECT user_id,
               SUM(is_new) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                 ROWS UNBOUNDED PRECEDING) AS s
        FROM m),
ses AS (SELECT user_id, s, CAST(COUNT(*) AS BIGINT) AS n
        FROM sid GROUP BY 1, 2)
SELECT n AS session_len, CAST(COUNT(*) AS BIGINT) AS n_sessions
FROM ses GROUP BY n ORDER BY session_len
""",
        # distributed sweep-line (relational.peak_concurrency): per-day
        # peak of concurrent 30-min-gap sessions, evaluated at distinct
        # boundary timestamps (starts <= t, ends < t) so no within-ts
        # order can move the scan
        "peak_concurrency": """
WITH o AS (
  SELECT user_id, ts,
         LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev
  FROM events
),
m AS (
  SELECT user_id, epoch_us(ts) AS tus,
         CASE WHEN prev IS NULL OR ts - prev > INTERVAL 30 MINUTE
              THEN 1 ELSE 0 END AS is_new
  FROM o
),
sid AS (
  SELECT user_id, tus,
         SUM(is_new) OVER (PARTITION BY user_id ORDER BY tus
                           ROWS UNBOUNDED PRECEDING) AS s
  FROM m
),
ses AS (SELECT MIN(tus) AS st, MAX(tus) AS en
        FROM sid GROUP BY user_id, s),
pts AS (SELECT st AS t, 1 AS d_ns, 0 AS d_ne FROM ses
        UNION ALL SELECT en AS t, 0 AS d_ns, 1 AS d_ne FROM ses),
g AS (SELECT t, SUM(d_ns) AS ns, SUM(d_ne) AS ne FROM pts GROUP BY t),
sc AS (
  SELECT t,
         SUM(ns) OVER (ORDER BY t ROWS UNBOUNDED PRECEDING)
         - (SUM(ne) OVER (ORDER BY t ROWS UNBOUNDED PRECEDING) - ne) AS conc
  FROM g
),
d AS (SELECT t // 86400000000 AS day, t, conc FROM sc),
mx AS (SELECT day, MAX(conc) AS peak FROM d GROUP BY day)
SELECT d.day,
       CAST(mx.peak AS BIGINT) AS peak_concurrency,
       CAST(MIN(d.t) AS BIGINT) AS peak_ts_us
FROM d JOIN mx ON d.day = mx.day AND d.conc = mx.peak
GROUP BY d.day, mx.peak ORDER BY d.day
""",
        # HyperLogLog register table (deterministic sketch, exact twin)
        "hll_user_sketch": _HLL_SQL,
        # RANGE join (interval, multi-match) vs the as-of single match
        "clicks_before_purchase_count": """
SELECT p.event_id,
       CAST(COUNT(c.event_id) AS BIGINT) AS n_clicks_1h
FROM (SELECT * FROM events WHERE event_type = 'purchase') p
LEFT JOIN (SELECT * FROM events WHERE event_type = 'click') c
  ON p.user_id = c.user_id
 AND c.ts >= p.ts - INTERVAL 1 HOUR AND c.ts < p.ts
GROUP BY p.event_id ORDER BY p.event_id
""",
        "asof_click_before_purchase": """
SELECT p.event_id, c.ts AS click_ts
FROM (SELECT * FROM events WHERE event_type = 'purchase') p
ASOF LEFT JOIN (SELECT * FROM events WHERE event_type = 'click') c
  ON p.user_id = c.user_id AND p.ts > c.ts
ORDER BY p.event_id
""",
        "text_stats": r"""
SELECT doc_id,
       CAST(length(text) AS BIGINT)                                  AS n_chars_calc,
       CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT)       AS n_tokens,
       CAST(length(regexp_extract_all(text, '[.,!?;:]')) AS BIGINT)  AS n_punct
FROM documents ORDER BY doc_id
""",
        "top_tokens": r"""
SELECT token, CAST(COUNT(*) AS BIGINT) AS n
FROM (SELECT unnest(regexp_extract_all(text, '\S+')) AS token FROM documents)
GROUP BY token ORDER BY n DESC, token ASC LIMIT 20
""",
        # Simpson repeat index (text.doc_diversity): exact integer
        # collision probability per doc
        "doc_diversity": r"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w
  FROM documents
),
c AS (SELECT doc_id, w, CAST(COUNT(*) AS BIGINT) AS n
      FROM tok GROUP BY 1, 2),
a AS (SELECT doc_id, CAST(SUM(n) AS BIGINT) AS nt,
             CAST(SUM(n * (n - 1)) AS BIGINT) AS rep
      FROM c GROUP BY doc_id)
SELECT d.doc_id, CAST(COALESCE(a.nt, 0) AS BIGINT) AS n_tokens,
       CAST(CASE WHEN COALESCE(a.nt, 0) > 1
                 THEN (a.rep * 1000000) // (a.nt * (a.nt - 1))
                 ELSE 0 END AS BIGINT) AS simpson_micro
FROM documents d LEFT JOIN a USING (doc_id) ORDER BY d.doc_id
""",
        # hashing-trick featurizer (text.feature_hashing): per-token
        # hash % 16 bucket counts, no vocabulary state anywhere
        "feature_hashing": _feathash_sql(),
        # conjunctive keyword search (text.keyword_search): docs holding
        # ALL of the top-2-DF tokens as whole tokens
        "keyword_search": r"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w FROM documents
),
dfr AS (SELECT w, COUNT(DISTINCT doc_id) AS df FROM tok GROUP BY w),
terms AS (SELECT w FROM dfr ORDER BY df DESC, w ASC LIMIT 2),
hit AS (
  SELECT t.doc_id, COUNT(DISTINCT t.w) AS m
  FROM tok t JOIN terms USING (w)
  GROUP BY t.doc_id
)
SELECT doc_id FROM hit
WHERE m = (SELECT COUNT(*) FROM terms) ORDER BY doc_id
""",
        # BM25 ranked retrieval (text.bm25_search): exact-integer Okapi
        # BM25 (k1=6/5, b=3/4, log-free rational idf) — per-term micro
        # contributions floored in HUGEINT before the sum, the identical
        # order-independent fold the engine takes in Python ints
        "bm25_search": _BM25_TWIN,
        # reciprocal-rank fusion of the two leg twins
        "rrf_hybrid_search": _rrf_sql(),
        # Pareto frontier / skyline (text.pareto_docs): docs no other
        # doc beats on BOTH (n_tokens max, simpson_micro min); equal
        # pairs never dominate each other — the O(n²) NOT EXISTS is the
        # oracle for the engine's O(n log n) local+global sweep
        "pareto_docs": r"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w
  FROM documents
),
c AS (SELECT doc_id, w, CAST(COUNT(*) AS BIGINT) AS n
      FROM tok GROUP BY 1, 2),
agg AS (SELECT doc_id, CAST(SUM(n) AS BIGINT) AS nt,
               CAST(SUM(n * (n - 1)) AS BIGINT) AS rep
        FROM c GROUP BY doc_id),
m AS (SELECT d.doc_id, CAST(COALESCE(agg.nt, 0) AS BIGINT) AS n_tokens,
             CAST(CASE WHEN COALESCE(agg.nt, 0) > 1
                       THEN (agg.rep * 1000000) // (agg.nt * (agg.nt - 1))
                       ELSE 0 END AS BIGINT) AS simpson_micro
      FROM documents d LEFT JOIN agg USING (doc_id))
SELECT doc_id, n_tokens, simpson_micro FROM m a
WHERE NOT EXISTS (
  SELECT 1 FROM m b
  WHERE b.n_tokens >= a.n_tokens AND b.simpson_micro <= a.simpson_micro
    AND (b.n_tokens > a.n_tokens OR b.simpson_micro < a.simpson_micro)
)
ORDER BY doc_id
""",
        # bloom-prefiltered semi-join (relational.bloom_semi_join):
        # total event count per user with >= 16 purchase events; the
        # engine's bloom bitset only bounds shuffle volume — the
        # co-partitioned exact id set kills false positives, so the
        # result is the plain semi-join
        "bloom_semi_join": """
WITH qual AS (
  SELECT user_id FROM events WHERE event_type = 'purchase'
  GROUP BY user_id HAVING COUNT(*) >= 16
)
SELECT e.user_id, CAST(COUNT(*) AS BIGINT) AS n_events
FROM events e JOIN qual USING (user_id)
GROUP BY e.user_id ORDER BY e.user_id
""",
        # φ-heavy hitters (text.heavy_hitters): per-language tokens with
        # n·200 > N_lang — the engine's Misra–Gries sketch + exact
        # recount resolves to these exact counts (or falls back to the
        # exact exchange when the sketch cannot certify coverage)
        "heavy_hitters": r"""
WITH tok AS (
  SELECT lang, unnest(regexp_extract_all(text, '\S+')) AS token
  FROM documents
),
tot AS (SELECT lang, CAST(COUNT(*) AS BIGINT) AS nl FROM tok GROUP BY lang),
cnt AS (SELECT lang, token, CAST(COUNT(*) AS BIGINT) AS n
        FROM tok GROUP BY 1, 2)
SELECT c.lang, c.token, c.n
FROM cnt c JOIN tot USING (lang)
WHERE c.n * 200 > tot.nl
ORDER BY c.lang ASC, c.n DESC, c.token ASC
""",
        # bigram collocations (text.collocations): exact integer lift in
        # HUGEINT — the same nested floor the engine takes in Python ints
        "collocations": r"""
WITH toks AS (SELECT regexp_extract_all(text, '\S+') AS ws FROM documents),
uni AS (SELECT unnest(ws) AS w FROM toks),
ucnt AS (SELECT w, CAST(COUNT(*) AS BIGINT) AS n FROM uni GROUP BY w),
ut AS (SELECT CAST(SUM(n) AS HUGEINT) AS u FROM ucnt),
bi AS (SELECT unnest(list_transform(range(1, len(ws)),
                                    i -> [ws[i], ws[i+1]])) AS pr
       FROM toks WHERE len(ws) >= 2),
bcnt AS (SELECT pr[1] AS w1, pr[2] AS w2,
                CAST(COUNT(*) AS BIGINT) AS n_ab
         FROM bi GROUP BY 1, 2),
bt AS (SELECT CAST(SUM(n_ab) AS HUGEINT) AS b FROM bcnt)
SELECT w1, w2, n_ab,
       CAST((CAST(n_ab AS HUGEINT) * 1000000 * ut.u * ut.u)
            // (bt.b * ca.n * cb.n) AS BIGINT) AS lift_micro
FROM bcnt
CROSS JOIN ut CROSS JOIN bt
JOIN ucnt ca ON ca.w = w1
JOIN ucnt cb ON cb.w = w2
WHERE n_ab >= 5
ORDER BY lift_micro DESC, w1 ASC, w2 ASC
LIMIT 20
""",
        # per-group top-k (text.lang_top_tokens): the grouped-rank
        # window shape; token is unique within a lang so the
        # ROW_NUMBER cut is deterministic
        "lang_top_tokens": r"""
SELECT lang, token, n FROM (
  SELECT lang, token, CAST(COUNT(*) AS BIGINT) AS n,
         ROW_NUMBER() OVER (
             PARTITION BY lang ORDER BY COUNT(*) DESC, token ASC) AS r
  FROM (SELECT lang, unnest(regexp_extract_all(text, '\S+')) AS token
        FROM documents)
  GROUP BY lang, token
) WHERE r <= 10 ORDER BY lang ASC, n DESC, token ASC
""",
        "dedup_exact": """
SELECT MIN(doc_id) AS doc_id, text FROM documents
GROUP BY text ORDER BY doc_id
""",
        "lang_stats": """
SELECT lang, COUNT(*) AS n_docs,
       (SUM(n_chars) * 10000 // COUNT(*)) / 10000.0 AS avg_chars
FROM documents GROUP BY lang ORDER BY lang
""",
        # bounded-iteration k-means with pinned rounding (see _kmeans_sql)
        "kmeans_embed": _kmeans_sql(),
        "cluster_balance": _cluster_balance_sql(),
        # inter-centroid separation (similarity.cluster_separation):
        # the kmeans CTE chain's FINAL centroids (c2), self-joined with
        # the assignment kernel's own distance rounding
        "cluster_separation": _cluster_separation_sql(),
        # per-cluster distance outliers (similarity.embedding_outliers):
        # the kmeans CTE chain's own d3 rounded distances, top-3 per
        # cluster by (d2 desc, vec_id asc) — no float in the output
        "embedding_outliers": _embedding_outliers_sql(),
        # farthest-first coreset selection (similarity.kcenter_sample):
        # the incremental LEAST-chain unroll, one CTE round per step
        "kcenter_sample": _kcenter_sql(),
        # MMR diversified retrieval (similarity.mmr_diversified_search):
        # top-pool by relevance, then the incremental GREATEST chain
        "mmr_diversified_search": _mmr_sql(),
        # clustering-vs-ground-truth eval (similarity.label_purity)
        "label_purity": _label_purity_sql(),
        # power-iteration top principal component (similarity.embedding_pca)
        "embedding_pca": _pca_sql(),
        # semantic dedup within kmeans clusters (see _semdedup_sql)
        "semdedup": _semdedup_sql(),
        # the two ANN searches, previously no_oracle: inlined-hyperplane
        # signature prefilter (see _knn_lsh_sql) and the unrolled pinned
        # coarse quantizer (see _knn_ivf_sql) make them exactly twinnable
        "knn_cosine_lsh": _knn_lsh_sql(),
        "knn_cosine_ivf": _knn_ivf_sql(),
        # product-quantization ANN (see _knn_pq_sql): the third index
        # family, pinned per-subspace Lloyd + asymmetric distance
        "knn_cosine_pq": _knn_pq_sql(),
        # batched multi-query retrieval join (similarity.knn_join): the
        # 8 smallest vec_ids each retrieve their exact top-10 — the
        # same cosine/tie pinning as knn_cosine, per query partition
        # semi-structured extraction (relational.props_stats): regex
        # parse of the JSON props payload + exact-int aggregate
        "props_stats": r"""
WITH x AS (
  SELECT event_type,
         CAST(regexp_extract(props, '"k":\s*(-?[0-9]+)', 1) AS BIGINT) AS k
  FROM events
)
SELECT event_type,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(COUNT(k) AS BIGINT) AS n_with_k,
       CAST(SUM(k) AS BIGINT) AS k_sum,
       CAST(MIN(k) AS BIGINT) AS k_min,
       CAST(MAX(k) AS BIGINT) AS k_max
FROM x GROUP BY event_type ORDER BY event_type
""",
        # weekly retention triangle (relational.retention_cohorts):
        # cohort = Monday week of each user's first event
        "retention_cohorts": """
WITH f AS (
  SELECT user_id, date_trunc('week', MIN(ts)) AS cw
  FROM events GROUP BY user_id
),
w AS (
  SELECT DISTINCT e.user_id, f.cw,
         date_diff('day', f.cw, date_trunc('week', e.ts)) // 7 AS off
  FROM events e JOIN f USING (user_id)
)
SELECT cw AS cohort_week, CAST(off AS BIGINT) AS week_offset,
       CAST(COUNT(*) AS BIGINT) AS n_users
FROM w GROUP BY 1, 2 ORDER BY 1, 2
""",
        # ordered funnel (relational.funnel_stages): greedy earliest
        # completion per stage, strictly-after chaining
        "funnel_stages": """
WITH s1 AS (
  SELECT user_id, MIN(ts) AS t1 FROM events
  WHERE event_type = 'view' GROUP BY user_id
),
s2 AS (
  SELECT e.user_id, MIN(e.ts) AS t2
  FROM events e JOIN s1 USING (user_id)
  WHERE e.event_type = 'click' AND e.ts > s1.t1 GROUP BY e.user_id
),
s3 AS (
  SELECT e.user_id, MIN(e.ts) AS t3
  FROM events e JOIN s2 USING (user_id)
  WHERE e.event_type = 'purchase' AND e.ts > s2.t2 GROUP BY e.user_id
),
u AS (SELECT DISTINCT user_id FROM events)
SELECT u.user_id,
       CAST(CASE WHEN t3 IS NOT NULL THEN 3
                 WHEN t2 IS NOT NULL THEN 2
                 WHEN t1 IS NOT NULL THEN 1
                 ELSE 0 END AS BIGINT) AS funnel_stage
FROM u LEFT JOIN s1 USING (user_id) LEFT JOIN s2 USING (user_id)
       LEFT JOIN s3 USING (user_id)
ORDER BY u.user_id
""",
        "knn_join": """
WITH q AS (
  SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qe
  FROM embeddings QUALIFY ROW_NUMBER() OVER (ORDER BY vec_id) <= 8
),
s AS (SELECT q.qid, e.vec_id,
             list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qe) AS sim
      FROM embeddings e CROSS JOIN q WHERE e.vec_id <> q.qid)
SELECT qid AS query_vec_id,
       CAST(ROW_NUMBER() OVER (
            PARTITION BY qid ORDER BY sim DESC, vec_id ASC) AS BIGINT) AS rnk,
       vec_id
FROM s QUALIFY rnk <= 10 ORDER BY query_vec_id, rnk
""",
        # leave-one-out 1-NN label agreement (similarity.knn_label_match):
        # the knn_join shape at k=1 over the 64 smallest-vec_id probes,
        # per-label exact basis-point accuracy
        "knn_label_match": """
WITH q AS (
  SELECT vec_id AS qid, label AS ql, CAST(embedding AS DOUBLE[]) AS qe
  FROM embeddings QUALIFY ROW_NUMBER() OVER (ORDER BY vec_id) <= 64
),
s AS (SELECT q.qid, q.ql, e.vec_id, e.label AS nl,
             list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qe) AS sim
      FROM embeddings e CROSS JOIN q WHERE e.vec_id <> q.qid),
nn AS (SELECT qid, ql, nl FROM s
       QUALIFY ROW_NUMBER() OVER (PARTITION BY qid
                                  ORDER BY sim DESC, vec_id ASC) = 1)
SELECT CAST(ql AS BIGINT) AS label,
       CAST(COUNT(*) AS BIGINT) AS n_probes,
       CAST(SUM(CASE WHEN nl = ql THEN 1 ELSE 0 END) AS BIGINT) AS n_matches,
       CAST(10000 * SUM(CASE WHEN nl = ql THEN 1 ELSE 0 END) // COUNT(*)
            AS BIGINT) AS acc_bp
FROM nn GROUP BY ql ORDER BY label
""",
        "knn_cosine": _KNN_COS_TWIN,
        # hybrid search (similarity.filtered_knn): knn_cosine restricted
        # to the query's own label class
        "filtered_knn": """
WITH q AS (SELECT CAST(embedding AS DOUBLE[]) AS qe, label AS ql
           FROM embeddings WHERE vec_id = 0),
s AS (SELECT e.vec_id,
             list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qe) AS sim
      FROM embeddings e, q
      WHERE e.vec_id <> 0 AND e.label = q.ql)
SELECT CAST(ROW_NUMBER() OVER (ORDER BY sim DESC, vec_id ASC) AS BIGINT) AS rnk,
       vec_id
FROM s ORDER BY rnk LIMIT 10
""",
        # feed-health pass rate (text.source_quality_matrix): the
        # quality_score rule pack folded per source
        "source_quality_matrix": r"""
WITH q AS (
  SELECT source, regexp_extract_all(lower(text), '\S+') AS ws
  FROM documents
),
m AS (
  SELECT source,
         len(ws) AS n_tokens,
         len(list_filter(ws, w -> list_contains(
             ['the','a','and','of','to','table','row','value','key','fast'], w)))
             AS n_stop,
         COALESCE(list_sum(list_transform(ws, w -> length(w))), 0) AS sum_len
  FROM q
),
f AS (
  SELECT source,
         CASE WHEN (n_tokens BETWEEN 10 AND 1000)
               AND (n_stop * 10000 // GREATEST(n_tokens, 1) >= 100)
               AND (sum_len * 10000 // GREATEST(n_tokens, 1) <= 120000)
              THEN 1 ELSE 0 END AS ok
  FROM m
)
SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(ok) AS BIGINT) AS n_pass,
       CAST(10000 * SUM(ok) // GREATEST(COUNT(*), 1) AS BIGINT) AS pass_bp
FROM f GROUP BY source ORDER BY source
""",
        # shingle document-frequency histogram (dedup.shingle_df_hist)
        "shingle_df_hist": "WITH " + _NGRAM_CTE + """
SELECT df, CAST(COUNT(*) AS BIGINT) AS n_shingles
FROM (SELECT shingle, CAST(COUNT(*) AS BIGINT) AS df
      FROM sh GROUP BY shingle)
GROUP BY df ORDER BY df
""",
        # lang-router mislabel detector (text.cross_lang_dup_rate)
        "cross_lang_dup_rate": """
WITH w AS (
  SELECT doc_id, lang, text,
         MIN(doc_id) OVER (PARTITION BY text) AS winner
  FROM documents
),
ws AS (SELECT doc_id AS w_id, lang AS winner_lang FROM w
       WHERE doc_id = winner)
SELECT ws.winner_lang, w.lang AS dup_lang,
       CAST(COUNT(*) AS BIGINT) AS n_dups
FROM w JOIN ws ON w.winner = ws.w_id
WHERE w.doc_id <> w.winner
GROUP BY ws.winner_lang, w.lang
ORDER BY winner_lang, dup_lang
""",
        # normalization-rung exact dedup (text.normalized_dedup)
        "normalized_dedup": r"""
WITH n AS (SELECT doc_id,
                  trim(regexp_replace(lower(text), '\s+', ' ', 'g')) AS nt
           FROM documents)
SELECT CAST(MIN(doc_id) AS BIGINT) AS doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_copies
FROM n GROUP BY nt ORDER BY doc_id
""",
        # CUBE subtotal lattice (relational.sales_cube): every stratum
        # derives from the finest cells; 'ALL' marks rolled-up axes
        "sales_cube": """
WITH base AS (
  SELECT l_returnflag AS rf, l_linestatus AS ls,
         CAST(round(l_extendedprice * 100) AS BIGINT) *
         (100 - CAST(round(l_discount * 100) AS BIGINT)) AS rev
  FROM lineitem
)
SELECT COALESCE(rf, 'ALL') AS l_returnflag,
       COALESCE(ls, 'ALL') AS l_linestatus,
       CAST(SUM(rev) AS BIGINT) AS revenue_e4,
       CAST(COUNT(*) AS BIGINT) AS n_items
FROM base GROUP BY CUBE (rf, ls)
ORDER BY l_returnflag, l_linestatus
""",
        # Benford observed-digit census (relational.value_benford)
        "value_benford": """
WITH c AS (SELECT event_type, CAST(round(value * 100) AS BIGINT) AS v
           FROM events),
d AS (SELECT event_type,
             CAST(left(CAST(v AS VARCHAR), 1) AS BIGINT) AS digit
      FROM c WHERE v > 0),
g AS (SELECT event_type, digit, CAST(COUNT(*) AS BIGINT) AS n
      FROM d GROUP BY 1, 2),
t AS (SELECT event_type, SUM(n) AS tot FROM g GROUP BY event_type)
SELECT g.event_type, g.digit, g.n,
       CAST(10000 * g.n // GREATEST(t.tot, 1) AS BIGINT) AS share_bp
FROM g JOIN t USING (event_type)
ORDER BY event_type, digit
""",
        # vocabulary set algebra (text.source_overlap_jaccard): exact
        # pairwise token-set overlap between sources, all pairs present
        "source_overlap_jaccard": r"""
WITH tok AS (SELECT source, unnest(regexp_extract_all(text, '\S+')) AS w
             FROM documents),
ts AS (SELECT DISTINCT source, w FROM tok),
n AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS n FROM ts GROUP BY source),
i AS (SELECT a.source AS sa, b.source AS sb, CAST(COUNT(*) AS BIGINT) AS inter
      FROM ts a JOIN ts b ON a.w = b.w AND a.source < b.source
      GROUP BY 1, 2),
p AS (SELECT na.source AS sa, nb.source AS sb, na.n AS na, nb.n AS nb
      FROM n na JOIN n nb ON na.source < nb.source)
SELECT p.sa AS source_a, p.sb AS source_b,
       CAST(COALESCE(i.inter, 0) AS BIGINT) AS n_inter,
       CAST(p.na + p.nb - COALESCE(i.inter, 0) AS BIGINT) AS n_union,
       CAST(10000 * COALESCE(i.inter, 0)
            // GREATEST(p.na + p.nb - COALESCE(i.inter, 0), 1) AS BIGINT)
           AS jaccard_bp
FROM p LEFT JOIN i ON i.sa = p.sa AND i.sb = p.sb
ORDER BY source_a, source_b
""",
        # contingency independence (text.lang_source_chi2): stepwise-
        # floored exact chi-squared cells over the lang x source table
        "lang_source_chi2": """
WITH c AS (SELECT lang, source, CAST(COUNT(*) AS HUGEINT) AS n
           FROM documents GROUP BY 1, 2),
r AS (SELECT lang, CAST(SUM(n) AS HUGEINT) AS rn FROM c GROUP BY lang),
s AS (SELECT source, CAST(SUM(n) AS HUGEINT) AS cn FROM c GROUP BY source),
t AS (SELECT CAST(SUM(n) AS HUGEINT) AS total FROM c),
m AS (SELECT c.lang, c.source, c.n, r.rn, s.cn, t.total,
             ABS(c.n * t.total - r.rn * s.cn) AS d
      FROM c JOIN r USING (lang) JOIN s USING (source) CROSS JOIN t)
SELECT lang, source, CAST(n AS BIGINT) AS n,
       CAST(1000 * rn * cn // total AS BIGINT) AS expected_milli,
       CAST(((1000 * d // (rn * cn)) * d) // total AS BIGINT)
           AS chi2_contrib_milli
FROM m ORDER BY lang, source
""",
        "embedding_near_dups": """
WITH n AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings)
SELECT a.vec_id AS vec_id_a, b.vec_id AS vec_id_b,
       ROUND(list_cosine_similarity(a.e, b.e), 4) AS sim
FROM n a JOIN n b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.e, b.e) >= 0.4
ORDER BY vec_id_a, vec_id_b
""",
        # embedding keep-list: recursive closure over the same exact
        # cosine pair graph (min vec_id per component)
        "embedding_dup_clusters": """
WITH RECURSIVE
n AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings),
pairs AS (
  SELECT a.vec_id AS va, b.vec_id AS vb
  FROM n a JOIN n b ON a.vec_id < b.vec_id
  WHERE list_cosine_similarity(a.e, b.e) >= 0.4
),
edges AS (SELECT va AS a, vb AS b FROM pairs UNION ALL SELECT vb, va FROM pairs),
reach(node, label) AS (
  SELECT DISTINCT a, a FROM edges
  UNION
  SELECT e.b, r.label FROM reach r JOIN edges e ON e.a = r.node
),
labels AS (SELECT node, MIN(label) AS label FROM reach GROUP BY node)
SELECT v.vec_id,
       CAST(COALESCE(l.label, v.vec_id) AS BIGINT) AS cluster_id,
       COALESCE(l.label, v.vec_id) = v.vec_id AS keep
FROM embeddings v LEFT JOIN labels l ON l.node = v.vec_id
ORDER BY v.vec_id
""",
    }
