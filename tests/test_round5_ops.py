"""Property tests for the round-5 operators: brute-force cross-checks
on constructed corpora (the SQL parity gate covers the real testdata;
these pin the kernel semantics on adversarial shapes)."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _write_docs(tmp_path, texts):
    t = pa.table(
        {"doc_id": pa.array(np.arange(len(texts)), pa.int64()),
         "text": pa.array(texts, pa.string())}
    )
    d = tmp_path / "docs"
    os.makedirs(d, exist_ok=True)
    pq.write_table(t, str(d / "documents.parquet"))
    return str(d)


WORDS = [f"w{i}" for i in range(50)]


def test_dup_span_coverage_identical_docs_fully_covered(ray_session, tmp_path):
    from image_report_ray.pipelines.dedup import _SPAN_W, dup_span_coverage

    dup = " ".join(WORDS[:20])          # 20 tokens, shared verbatim
    uniq = " ".join(f"u{i}" for i in range(20))
    sf = _write_docs(tmp_path, [dup, dup, uniq])
    out = dup_span_coverage(sf)
    got = {r["doc_id"]: (r["n_tokens"], r["dup_tokens"]) for r in out.to_pylist()}
    # identical docs: every token sits in a shared >=W-token span
    assert got[0] == (20, 20) and got[1] == (20, 20)
    assert got[2] == (20, 0)
    assert _SPAN_W <= 20  # the premise of full coverage


def test_dup_span_coverage_partial_overlap_interval_math(ray_session, tmp_path):
    from image_report_ray.pipelines.dedup import _SPAN_W as W
    from image_report_ray.pipelines.dedup import dup_span_coverage

    shared = WORDS[:W]                   # exactly one W-token shared span
    a = " ".join(shared + [f"a{i}" for i in range(10)])
    b = " ".join([f"b{i}" for i in range(10)] + shared)
    sf = _write_docs(tmp_path, [a, b])
    out = dup_span_coverage(sf)
    got = {r["doc_id"]: r["dup_tokens"] for r in out.to_pylist()}
    # one duplicated window start per doc -> exactly W covered tokens
    assert got == {0: W, 1: W}


def test_ngram_novelty_order_semantics(ray_session, tmp_path):
    from image_report_ray.pipelines.dedup import ngram_novelty

    a = " ".join(WORDS[:10])
    sf = _write_docs(tmp_path, [a, a, " ".join(WORDS[10:20])])
    out = ngram_novelty(sf)
    got = {r["doc_id"]: (r["n_shingles"], r["n_novel"]) for r in out.to_pylist()}
    assert got[0] == (8, 8)   # first holder owns all its shingles
    assert got[1] == (8, 0)   # verbatim repeat owns none
    assert got[2] == (8, 8)


def test_top_spans_ranks_most_shared_first(ray_session, tmp_path):
    from image_report_ray.pipelines.dedup import _SPAN_W as W
    from image_report_ray.pipelines.dedup import top_spans

    hot = " ".join(WORDS[:W])            # in 3 docs
    warm = " ".join(WORDS[W : 2 * W])    # in 2 docs
    docs = [hot, hot, hot + " xtra", warm, warm, " ".join(f"z{i}" for i in range(W))]
    sf = _write_docs(tmp_path, docs)
    out = top_spans(sf)
    spans = out.column("span").to_pylist()
    nd = out.column("n_docs").to_pylist()
    assert spans[0] == hot and nd[0] == 3
    assert warm in spans
    assert all(x >= 2 for x in nd)


def test_knn_join_matches_single_query_knn(ray_session, tmp_path):
    """knn_join's per-query result must equal knn_cosine for the same
    query id (same kernel pinning), and never contain the query itself."""
    from image_report_ray.pipelines.similarity import knn_cosine, knn_join

    rng = np.random.default_rng(5)
    mat = rng.standard_normal((60, 16))
    d = tmp_path / "emb"
    os.makedirs(d)
    pq.write_table(
        pa.table({
            "vec_id": pa.array(np.arange(60), pa.int64()),
            "embedding": pa.array([list(map(float, r)) for r in mat],
                                   pa.list_(pa.float32())),
        }),
        str(d / "embeddings.parquet"),
    )
    sf = str(d)
    joined = knn_join(sf, n_queries=4, k=7)
    assert joined.num_rows == 4 * 7
    for qid in range(4):
        sub = joined.filter(
            pa.compute.equal(joined.column("query_vec_id"), qid)
        )
        assert qid not in sub.column("vec_id").to_pylist()
        single = knn_cosine(sf, query_vec_id=qid, k=7)
        assert sub.column("vec_id").to_pylist() == single.column("vec_id").to_pylist()
        assert sub.column("rnk").to_pylist() == single.column("rnk").to_pylist()


def test_cdc_version_history_chain_invariants(ray_session):
    """Within every key: valid_to_lsn == the next event's lsn, exactly
    one open version, intervals strictly increase."""
    from image_report_ray.pipelines.cdcq import cdc_version_history

    t = cdc_version_history("/root/testdata/sf0.001").to_pylist()
    by_key: dict = {}
    for r in t:
        by_key.setdefault((r["conv_id"], r["turn_idx"]), []).append(r)
    assert by_key
    for rows in by_key.values():
        lsns = [r["lsn"] for r in rows]
        assert lsns == sorted(lsns)
        for a, b in zip(rows, rows[1:]):
            assert a["valid_to_lsn"] == b["lsn"]
        assert rows[-1]["valid_to_lsn"] is None
        assert all(r["valid_to_lsn"] is not None for r in rows[:-1])


def test_dup_span_coverage_matches_bruteforce_random(ray_session, tmp_path):
    """Randomized corpora vs a dict-based brute-force oracle: window
    hashing, cross-doc-only duplication, and interval-union coverage all
    agree on 30 docs x 3 seeds of skewed token soup."""
    from image_report_ray.pipelines.dedup import _SPAN_W as W
    from image_report_ray.pipelines.dedup import dup_span_coverage

    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        vocab = [f"t{i}" for i in range(12)]  # tiny vocab -> real collisions
        texts = [
            " ".join(rng.choice(vocab, rng.integers(3, 40)))
            for _ in range(30)
        ]
        sf = _write_docs(tmp_path / f"s{seed}", texts)
        out = dup_span_coverage(sf)
        got = {r["doc_id"]: (r["n_tokens"], r["dup_tokens"])
               for r in out.to_pylist()}

        # brute force
        toks = [t.split() for t in texts]
        owners: dict = {}
        for d, tk in enumerate(toks):
            for i in range(len(tk) - W + 1):
                owners.setdefault(" ".join(tk[i : i + W]), set()).add(d)
        want = {}
        for d, tk in enumerate(toks):
            starts = [
                i for i in range(len(tk) - W + 1)
                if len(owners[" ".join(tk[i : i + W])]) >= 2
            ]
            cov = 0
            for j, s in enumerate(starts):
                nxt = starts[j + 1] if j + 1 < len(starts) else None
                cov += W if nxt is None else min(nxt - s, W)
            want[d] = (len(tk), cov)
        assert got == want, f"seed {seed}"


def test_quality_rank_bijective_and_monotone(ray_session):
    """Ranks are a permutation of 1..n and scores are non-increasing."""
    from image_report_ray.pipelines.text import quality_rank

    t = quality_rank("/root/testdata/sf0.001")
    r = t.column("rnk").to_numpy()
    s = t.column("stop_ratio_bp").to_numpy()
    assert sorted(r.tolist()) == list(range(1, len(r) + 1))
    assert (np.diff(s[np.argsort(r)]) <= 0).all()


def test_pair_pagerank_hub_ranks_highest(ray_session, tmp_path):
    """A star of near-identical docs: the hub (connected to all leaves)
    outranks every leaf; exact integer ranks are deterministic."""
    from image_report_ray.pipelines.dedup import pair_pagerank

    base = " ".join(WORDS[:30])
    # hub = base; leaves = base with one token changed at DIFFERENT spots
    leaves = []
    for i in range(4):
        tk = base.split()
        tk[i * 7] = f"mut{i}"
        leaves.append(" ".join(tk))
    sf = _write_docs(tmp_path, [base] + leaves)
    out = pair_pagerank(sf, tau=0.2)
    got = dict(zip(out.column("doc_id").to_pylist(),
                   out.column("pagerank_e9").to_pylist()))
    deg = dict(zip(out.column("doc_id").to_pylist(),
                   out.column("degree").to_pylist()))
    assert deg[0] == max(deg.values())  # doc 0 is the hub
    assert all(got[0] >= got[k] for k in got)
    # fixed-point mass is conserved up to floor error per node
    assert abs(sum(got.values()) - 10**9) < 200 * len(got)
    # repeat run: bit-identical
    out2 = pair_pagerank(sf, tau=0.2)
    assert out2.equals(out)


def test_lang_top_tokens_per_group_cut(ray_session, tmp_path):
    """Grouped top-k: each lang ranks independently, count desc then
    token asc inside a lang, k bounds each group separately."""
    from image_report_ray.pipelines.text import lang_top_tokens

    texts = ["aa aa aa bb bb cc", "aa bb", "zz zz yy", "zz yy"]
    langs = ["en", "en", "fr", "fr"]
    t = pa.table(
        {"doc_id": pa.array(np.arange(4), pa.int64()),
         "text": pa.array(texts, pa.string()),
         "lang": pa.array(langs, pa.string())}
    )
    d = tmp_path / "docs_lang"
    os.makedirs(d, exist_ok=True)
    pq.write_table(t, str(d / "documents.parquet"))

    out = lang_top_tokens(str(d), k=2).to_pydict()
    assert list(zip(out["lang"], out["token"], out["n"])) == [
        ("en", "aa", 4), ("en", "bb", 3), ("fr", "zz", 3), ("fr", "yy", 2),
    ]


def test_lang_topk_cut_kernel_boundaries():
    """Pure kernel: k larger than a group keeps the whole group; empty
    table round-trips; single-lang input ranks like the global cut."""
    from image_report_ray.pipelines.text import _LANG_TOPK_SCHEMA, _lang_topk_cut

    empty = _lang_topk_cut(_LANG_TOPK_SCHEMA.empty_table(), 3)
    assert empty.num_rows == 0
    t = pa.table(
        {"lang": pa.array(["a", "a", "b"], pa.string()),
         "token": pa.array(["x", "y", "z"], pa.string()),
         "n": pa.array([1, 2, 5], pa.int64())}
    )
    cut = _lang_topk_cut(t, 10)
    assert cut.num_rows == 3  # k exceeds every group size
    assert cut.column("token").to_pylist() == ["y", "x", "z"]


def test_cdc_tool_cooccurrence_dense_corpus_parity(ray_session, tmp_path):
    """Adversarial shape for the pair kernel: FEW users (dense multi-tool
    conversations) and MANY event types, checked against the SQL twin on
    the same constructed events parquet — update/delete churn included
    via the shared changelog derivation."""
    import duckdb

    import __ray_entry__ as e
    from image_report_ray.pipelines.cdcq import cdc_tool_cooccurrence

    rng = np.random.default_rng(11)
    n = 4000
    t = pa.table(
        {
            "event_id": pa.array(np.arange(n), pa.int64()),
            "ts": pa.array(
                np.arange(n).astype("datetime64[us]"), pa.timestamp("us")
            ),
            "user_id": pa.array(rng.integers(0, 12, n), pa.int64()),
            "event_type": pa.array(
                [f"tool{v}" for v in rng.integers(0, 9, n)], pa.string()
            ),
            "value": pa.array(rng.random(n), pa.float64()),
            "props": pa.array([f"p{i}" for i in range(n)], pa.string()),
        }
    )
    d = tmp_path / "dense"
    os.makedirs(d, exist_ok=True)
    pq.write_table(t, str(d / "events.parquet"))

    got = cdc_tool_cooccurrence(str(d))
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * "
        f"FROM read_parquet('{d}/events.parquet')"
    )
    want = con.execute(
        e.oracle_sql()["cdc_tool_cooccurrence"]
    ).arrow().cast(got.schema)
    # the changelog derivation lands tool turns on turn_idx {3, 7} only,
    # so a conv contributes at most one pair — dense users still yield
    # several distinct pairs
    assert got.num_rows > 3
    assert got.equals(want)


def test_cdc_late_arrivals_reordered_ts_parity(ray_session, tmp_path):
    """Constructed WAL whose timestamps are shuffled across event ids —
    the late path actually fires — checked against the SQL twin, plus
    the epoch-0-has-no-watermark invariant."""
    import duckdb

    import __ray_entry__ as e
    from image_report_ray.pipelines.cdcq import cdc_late_arrivals

    rng = np.random.default_rng(3)
    n = 6000  # 3 epochs of 2500, last partial
    ts = np.arange(n)
    rng.shuffle(ts)  # heavy cross-epoch reordering
    t = pa.table(
        {
            "event_id": pa.array(np.arange(n), pa.int64()),
            "ts": pa.array(
                (ts * 1000).astype("datetime64[us]"), pa.timestamp("us")
            ),
            "user_id": pa.array(rng.integers(0, 40, n), pa.int64()),
            "event_type": pa.array(["t"] * n, pa.string()),
            "value": pa.array(rng.random(n), pa.float64()),
            "props": pa.array([f"p{i}" for i in range(n)], pa.string()),
        }
    )
    d = tmp_path / "late"
    os.makedirs(d, exist_ok=True)
    pq.write_table(t, str(d / "events.parquet"))

    got = cdc_late_arrivals(str(d))
    assert got.column("epoch").to_pylist() == [0, 1, 2]
    n_late = got.column("n_late").to_pylist()
    assert n_late[0] == 0          # no watermark before epoch 0
    assert sum(n_late[1:]) > 0     # shuffling makes real late arrivals

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * "
        f"FROM read_parquet('{d}/events.parquet')"
    )
    want = con.execute(
        e.oracle_sql()["cdc_late_arrivals"]
    ).arrow().cast(got.schema)
    assert got.equals(want)


def test_user_burst_anomaly_flag_semantics(ray_session, tmp_path):
    """Constructed traffic: a flat user (1 event/hour) never flags; a
    bursty user (one hot hour > 2x mean) does; a single-hour user can
    never flag (max == total)."""
    from image_report_ray.pipelines.relational import user_burst_anomaly

    rows = []
    hr = 3_600_000_000
    for h in range(10):                      # user 1: flat, 10 hours
        rows.append((1, h * hr))
    rows += [(2, 0)] * 20                    # user 2: hot hour 0
    for h in range(1, 5):
        rows.append((2, h * hr))             # + 4 quiet hours
    rows += [(3, 0)] * 50                    # user 3: one hour only
    t = pa.table(
        {
            "event_id": pa.array(np.arange(len(rows)), pa.int64()),
            "ts": pa.array(
                np.array([r[1] for r in rows], dtype="datetime64[us]"),
                pa.timestamp("us"),
            ),
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "event_type": pa.array(["t"] * len(rows), pa.string()),
            "value": pa.array([0.0] * len(rows), pa.float64()),
            "props": pa.array(["p"] * len(rows), pa.string()),
        }
    )
    d = tmp_path / "burst"
    os.makedirs(d, exist_ok=True)
    pq.write_table(t, str(d / "events.parquet"))

    out = {r["user_id"]: r for r in user_burst_anomaly(str(d)).to_pylist()}
    assert out[1]["burst"] == 0 and out[1]["n_hours"] == 10
    # user 2: max 20, hours 5, total 24 -> 100 > 48
    assert out[2]["burst"] == 1 and out[2]["max_hour_cnt"] == 20
    assert out[3]["burst"] == 0 and out[3]["n_hours"] == 1


def test_banded_levenshtein_matches_bruteforce_random():
    """Random string pairs (mutations + unrelated): the banded DP is
    exact wherever true dist <= D, and never reports <= D for a pair
    whose true distance exceeds D (saturation invariant)."""
    from image_report_ray.pipelines.dedup import _pad_codes, banded_levenshtein

    def lev(a, b):
        prev = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            cur = [i]
            for j, cb in enumerate(b, 1):
                cur.append(min(prev[j] + 1, cur[-1] + 1,
                               prev[j - 1] + (ca != cb)))
            prev = cur
        return prev[-1]

    rng = np.random.default_rng(17)
    alpha = "abcdef "
    pairs = []
    for _ in range(60):
        n = int(rng.integers(0, 40))
        a = "".join(rng.choice(list(alpha), n))
        roll = rng.random()
        if roll < 0.5:  # mutate a few positions / indels
            b = list(a)
            for _ in range(int(rng.integers(0, 6))):
                op = rng.integers(0, 3)
                if op == 0 and b:
                    b[rng.integers(0, len(b))] = rng.choice(list(alpha))
                elif op == 1:
                    b.insert(int(rng.integers(0, len(b) + 1)),
                             str(rng.choice(list(alpha))))
                elif b:
                    del b[rng.integers(0, len(b))]
            b = "".join(b)
        else:           # unrelated
            b = "".join(rng.choice(list(alpha), int(rng.integers(0, 40))))
        pairs.append((a, b))

    for D in (3, 8):
        sub = [(a, b) for a, b in pairs if abs(len(a) - len(b)) <= D]
        am, al = _pad_codes([p[0] for p in sub])
        bm, bl = _pad_codes([p[1] for p in sub])
        got = banded_levenshtein(am, al, bm, bl, D)
        for (a, b), g in zip(sub, got):
            true = lev(a, b)
            if true <= D:
                assert g == true, (a, b, D, g, true)
            else:
                assert g > D, (a, b, D, g, true)


def test_dedup_edit_distance_planted_patch(ray_session, tmp_path):
    """A doc with a tiny in-place patch is found with the exact edit
    count; a rewrite sharing vocabulary is not."""
    from image_report_ray.pipelines.dedup import dedup_edit_distance

    base = " ".join(WORDS[:30])
    patched = base.replace("w5", "w5x", 1)          # 1 insertion
    rewrite = " ".join(reversed(WORDS[:30]))        # same words, reordered
    sf = _write_docs(tmp_path, [base, patched, rewrite])
    out = dedup_edit_distance(sf)
    got = {(r["doc_id_a"], r["doc_id_b"]): r["dist"] for r in out.to_pylist()}
    assert got[(0, 1)] == 1
    assert (0, 2) not in got and (1, 2) not in got


def test_collocations_lift_bruteforce(ray_session, tmp_path):
    """Constructed corpus with one glued phrase: the phrase bigram tops
    the lift ranking and the exact integer lift matches a Python
    brute-force of the same floor expression."""
    from image_report_ray.pipelines.text import collocations

    filler = [f"f{i}" for i in range(30)]
    docs = []
    rng = np.random.default_rng(23)
    for i in range(40):
        toks = list(rng.choice(filler, 12))
        if i % 2 == 0:
            toks[3:3] = ["new", "york"]     # glued pair, never apart
        docs.append(" ".join(toks))
    sf = _write_docs(tmp_path, docs)
    out = collocations(sf, k=5, min_count=5)
    # random filler bigrams rarely clear min_count — but the glued pair
    # must exist, top the ranking, and carry the exact lift
    assert out.num_rows >= 1
    assert (out.column("w1")[0].as_py(), out.column("w2")[0].as_py()) == (
        "new", "york")

    toks_all = [d.split() for d in docs]
    uni: dict = {}
    bi: dict = {}
    for tk in toks_all:
        for w in tk:
            uni[w] = uni.get(w, 0) + 1
        for a, b in zip(tk, tk[1:]):
            bi[(a, b)] = bi.get((a, b), 0) + 1
    U = sum(uni.values())
    B = sum(bi.values())
    want = (bi[("new", "york")] * 1_000_000 * U * U) // (
        B * uni["new"] * uni["york"])
    assert out.column("lift_micro")[0].as_py() == want


def test_event_transitions_tie_and_order_semantics(ray_session, tmp_path):
    """Same-timestamp events order by event_id; transitions never cross
    users; counts are global over users."""
    from image_report_ray.pipelines.relational import event_transitions

    #          user, ts, type       (event_id = row index)
    rows = [(1, 0, "a"), (1, 0, "b"),      # tie -> a->b via event_id
            (1, 5, "c"),                   # b->c
            (2, 0, "a"), (2, 1, "b"),      # a->b again (other user)
            (3, 9, "z")]                   # singleton: no transition
    t = pa.table(
        {
            "event_id": pa.array(np.arange(len(rows)), pa.int64()),
            "ts": pa.array(
                np.array([r[1] for r in rows], dtype="datetime64[us]"),
                pa.timestamp("us"),
            ),
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "event_type": pa.array([r[2] for r in rows], pa.string()),
            "value": pa.array([0.0] * len(rows), pa.float64()),
            "props": pa.array(["p"] * len(rows), pa.string()),
        }
    )
    d = tmp_path / "trans"
    os.makedirs(d, exist_ok=True)
    pq.write_table(t, str(d / "events.parquet"))

    out = {(r["from_type"], r["to_type"]): r["n"]
           for r in event_transitions(str(d)).to_pylist()}
    assert out == {("a", "b"): 2, ("b", "c"): 1}


def test_value_moments_exact_variance(ray_session, tmp_path):
    """Constructed values with a known population variance: var_micro is
    the exact floor, and a constant series has variance 0."""
    from image_report_ray.pipelines.relational import value_moments

    vals = {"a": [1.00, 3.00], "b": [2.50, 2.50, 2.50]}
    rows = [(t, v) for t, vs in vals.items() for v in vs]
    t = pa.table(
        {
            "event_id": pa.array(np.arange(len(rows)), pa.int64()),
            "ts": pa.array(
                np.zeros(len(rows), dtype="datetime64[us]"), pa.timestamp("us")
            ),
            "user_id": pa.array([0] * len(rows), pa.int64()),
            "event_type": pa.array([r[0] for r in rows], pa.string()),
            "value": pa.array([r[1] for r in rows], pa.float64()),
            "props": pa.array(["p"] * len(rows), pa.string()),
        }
    )
    d = tmp_path / "mom"
    os.makedirs(d, exist_ok=True)
    pq.write_table(t, str(d / "events.parquet"))

    out = {r["event_type"]: r for r in value_moments(str(d)).to_pylist()}
    # a: cents 100, 300 -> n=2 s=400 sq=100000; var = (2*100000-160000)/4
    assert out["a"]["var_micro"] == (2 * 100_000 - 400 * 400) * 1_000_000 // 4
    assert out["b"]["var_micro"] == 0 and out["b"]["sum_cents"] == 750


def test_keyword_search_conjunctive_whole_token(ray_session, tmp_path):
    """Term derivation picks the two highest-DF tokens; hits require
    BOTH as whole tokens (substring containment does not count)."""
    from image_report_ray.pipelines.text import keyword_search

    docs = [
        "alpha beta x", "alpha beta y", "alpha beta z",   # both terms
        "alpha only here", "beta only here",              # one term
        "alphabet betamax",                               # substrings only
        "only filler words",
    ]
    sf = _write_docs(tmp_path, docs)
    out = keyword_search(sf)
    # DF: alpha 4, beta 4, only 3 ... -> terms {alpha, beta}
    assert out.column("doc_id").to_pylist() == [0, 1, 2]


def test_pair_triangles_clique_and_chain(ray_session, tmp_path):
    """A 3-clique of identical docs closes exactly one triangle; an
    attached chain node adds wedges but no triangle."""
    from image_report_ray.pipelines.dedup import pair_triangles

    tri = " ".join(WORDS[:25])
    # chain doc: high overlap with tri (shares a long prefix) but we
    # verify counts off the actual verified pair graph, whatever it is
    sf = _write_docs(tmp_path, [tri, tri, tri,
                                " ".join(f"q{i}" for i in range(25))])
    out = pair_triangles(sf).to_pylist()[0]
    # clique edges (0,1) (0,2) (1,2); isolated doc contributes nothing
    assert out == {"n_edges": 3, "n_wedges": 1, "n_triangles": 1}


def test_active_users_window_distinct_semantics(ray_session, tmp_path):
    """WAU counts a user ONCE per window however many active days they
    have inside it; gaps > 6 days split coverage; output days are only
    real event days."""
    from image_report_ray.pipelines.relational import active_users

    day = 86_400_000_000
    #        user, day
    rows = [(1, 0), (1, 3),       # two active days, one window coverage
            (2, 0),               # single day
            (3, 20)]              # far gap: own island
    t = pa.table(
        {
            "event_id": pa.array(np.arange(len(rows)), pa.int64()),
            "ts": pa.array(
                np.array([r[1] * day for r in rows], dtype="datetime64[us]"),
                pa.timestamp("us"),
            ),
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "event_type": pa.array(["t"] * len(rows), pa.string()),
            "value": pa.array([0.0] * len(rows), pa.float64()),
            "props": pa.array(["p"] * len(rows), pa.string()),
        }
    )
    d = tmp_path / "dau"
    os.makedirs(d, exist_ok=True)
    pq.write_table(t, str(d / "events.parquet"))

    out = {r["day"]: (r["dau"], r["wau"])
           for r in active_users(str(d)).to_pylist()}
    # real event days only: 0, 3, 20
    assert set(out) == {0, 3, 20}
    assert out[0] == (2, 2)       # users 1,2 active day 0; window [−6,0]
    # day 3 window [−3,3]: users 1 (days 0,3 -> once) and 2 (day 0)
    assert out[3] == (1, 2)
    assert out[20] == (1, 1)


def test_value_quantiles_rank_rule(ray_session, tmp_path):
    """10 known values: p50 = 5th smallest (ceil(0.5*10)), p90 = 9th,
    p99 = 10th — the exact integer rank rule, no interpolation."""
    from image_report_ray.pipelines.relational import value_quantiles

    vals = [float(i) for i in range(1, 11)]          # 1.00 .. 10.00
    t = pa.table(
        {
            "event_id": pa.array(np.arange(10), pa.int64()),
            "ts": pa.array(np.zeros(10, dtype="datetime64[us]"),
                           pa.timestamp("us")),
            "user_id": pa.array([0] * 10, pa.int64()),
            "event_type": pa.array(["a"] * 10, pa.string()),
            "value": pa.array(vals, pa.float64()),
            "props": pa.array(["p"] * 10, pa.string()),
        }
    )
    d = tmp_path / "vq"
    os.makedirs(d, exist_ok=True)
    pq.write_table(t, str(d / "events.parquet"))

    out = value_quantiles(str(d)).to_pylist()[0]
    assert (out["p50_cents"], out["p90_cents"], out["p99_cents"]) == (
        500, 900, 1000)


def test_q18_threshold_strict_and_join_integrity(ray_session, tmp_path):
    """sum == min_qty is excluded (strict >); each surviving row carries
    its own order's attrs and its customer's name."""
    from image_report_ray.pipelines.relational import q18_large_orders

    d = tmp_path / "q18"
    os.makedirs(d, exist_ok=True)
    pq.write_table(pa.table({
        "l_orderkey": pa.array([1, 1, 2, 3], pa.int64()),
        "l_quantity": pa.array([5.0, 5.0, 10.0, 11.0], pa.float64()),
    }), str(d / "lineitem.parquet"))
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2, 3], pa.int64()),
        "o_custkey": pa.array([7, 8, 7], pa.int64()),
        "o_totalprice": pa.array([100.0, 200.0, 300.0], pa.float64()),
        "o_orderdate": pa.array(
            np.arange(3).astype("datetime64[us]"), pa.timestamp("us")),
    }), str(d / "orders.parquet"))
    pq.write_table(pa.table({
        "c_custkey": pa.array([7, 8], pa.int64()),
        "c_name": pa.array(["ada", "bob"], pa.string()),
    }), str(d / "customer.parquet"))

    out = q18_large_orders(str(d), min_qty=10).to_pylist()
    # order 1 (sum 10) == threshold -> excluded; order 2 == 10 excluded;
    # order 3 (11) survives with customer ada
    assert [(r["o_orderkey"], r["c_name"], r["sum_qty"]) for r in out] == [
        (3, "ada", 11)]


def test_pivot_vocabulary_assumption(ray_session):
    """The fixed _PIVOT_TYPES vocabulary must match the data — if the
    generator grows a type, this fails loudly instead of silently
    counting it as n_other."""
    import duckdb

    from image_report_ray.pipelines.relational import _PIVOT_TYPES

    con = duckdb.connect()
    got = [r[0] for r in con.execute(
        "SELECT DISTINCT event_type FROM "
        "read_parquet('/root/testdata/sf0.001/events.parquet') ORDER BY 1"
    ).fetchall()]
    assert got == list(_PIVOT_TYPES)


def test_rollup_levels_consistent(ray_session):
    """Leaf counts sum to the mid level, mid sums to the grand total."""
    from image_report_ray.pipelines.relational import events_rollup

    t = events_rollup("/root/testdata/sf0.001").to_pylist()
    leaf = [r for r in t if r["event_type"] is not None
            and r["hour_bucket"] is not None]
    mid = {r["event_type"]: r["n"] for r in t
           if r["event_type"] is not None and r["hour_bucket"] is None}
    total = [r["n"] for r in t if r["event_type"] is None]
    assert len(total) == 1
    by_type: dict = {}
    for r in leaf:
        by_type[r["event_type"]] = by_type.get(r["event_type"], 0) + r["n"]
    assert by_type == mid
    assert sum(mid.values()) == total[0]


def test_user_streaks_islands(ray_session, tmp_path):
    """Constructed day patterns: consecutive runs merge, a 1-day gap
    splits, single-day users report streak 1."""
    from image_report_ray.pipelines.relational import user_streaks

    day = 86_400_000_000
    rows = [(1, 0), (1, 1), (1, 2), (1, 4), (1, 4),   # runs [0-2], [4]
            (2, 7)]                                    # single day
    t = pa.table(
        {
            "event_id": pa.array(np.arange(len(rows)), pa.int64()),
            "ts": pa.array(
                np.array([r[1] * day for r in rows], dtype="datetime64[us]"),
                pa.timestamp("us"),
            ),
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "event_type": pa.array(["t"] * len(rows), pa.string()),
            "value": pa.array([0.0] * len(rows), pa.float64()),
            "props": pa.array(["p"] * len(rows), pa.string()),
        }
    )
    d = tmp_path / "streak"
    os.makedirs(d, exist_ok=True)
    pq.write_table(t, str(d / "events.parquet"))

    out = {r["user_id"]: r for r in user_streaks(str(d)).to_pylist()}
    assert out[1]["n_active_days"] == 4
    assert out[1]["n_streaks"] == 2
    assert out[1]["longest_streak"] == 3
    assert out[2] == {"user_id": 2, "n_active_days": 1,
                      "n_streaks": 1, "longest_streak": 1}


def test_feature_hashing_counts_preserve_tokens(ray_session, tmp_path):
    """Bucket counts sum to the doc's token count (nothing dropped),
    identical docs featurize identically, empty docs are all-zero."""
    from image_report_ray.pipelines.text import feature_hashing

    sf = _write_docs(tmp_path, ["aa bb cc aa", "aa bb cc aa", ""])
    out = feature_hashing(sf)
    rows = out.to_pylist()
    fcols = [c for c in out.column_names if c.startswith("f")]
    assert sum(rows[0][c] for c in fcols) == 4
    assert [rows[0][c] for c in fcols] == [rows[1][c] for c in fcols]
    assert all(rows[2][c] == 0 for c in fcols)


def test_doc_diversity_known_values(ray_session, tmp_path):
    """Exact Simpson index: all-same doc -> 1.0 (1e6 micro); all-distinct
    -> 0; the [a,a,b] case -> 2/6."""
    from image_report_ray.pipelines.text import doc_diversity

    sf = _write_docs(tmp_path, ["x x x x", "a b c d", "a a b", ""])
    out = {r["doc_id"]: r for r in doc_diversity(sf).to_pylist()}
    assert out[0]["simpson_micro"] == 1_000_000
    assert out[1]["simpson_micro"] == 0
    assert out[2]["simpson_micro"] == 2_000_000 // 6
    assert out[3] == {"doc_id": 3, "n_tokens": 0, "simpson_micro": 0}


def test_knn_pq_recall_floor(ray_session):
    """PQ-ADC shortlist + exact rerank must recover >= 80% of the exact
    top-10 at both test scales (the IVF/LSH recall-gate convention)."""
    from image_report_ray.pipelines.similarity import knn_cosine, knn_cosine_pq

    for sf in ("/root/testdata/sf0.001", "/root/testdata/sf0.01"):
        exact = set(knn_cosine(sf).column("vec_id").to_pylist())
        got = set(knn_cosine_pq(sf).column("vec_id").to_pylist())
        assert len(exact & got) / 10 >= 0.8, sf


def test_orphan_tombstones_ordering_semantics(ray_session, tmp_path):
    """A D before any I/U on its key is orphan; a D after an I is not;
    a second D after the first I is ALSO not (the key existed once)."""
    import duckdb

    import __ray_entry__ as e
    from image_report_ray.pipelines.cdcq import cdc_orphan_tombstones

    # craft event ids by op class: (id*7919)%10 -> I<6, U<9, D else
    def op_of(i):
        h = (i * 7919) % 10
        return "I" if h < 6 else ("U" if h < 9 else "D")

    d_ids = [i for i in range(400) if op_of(i) == "D"]
    i_ids = [i for i in range(400) if op_of(i) == "I"]
    # one user -> conv c1; same turn slot: ids congruent mod 8
    d0 = d_ids[0]
    later_i = next(i for i in i_ids if i > d0 and i % 8 == d0 % 8)
    later_d = next(i for i in d_ids if i > later_i and i % 8 == d0 % 8)
    ids = [d0, later_i, later_d]
    t = pa.table(
        {
            "event_id": pa.array(ids, pa.int64()),
            "ts": pa.array(
                np.array([i * 1000 for i in ids], dtype="datetime64[us]"),
                pa.timestamp("us"),
            ),
            "user_id": pa.array([1] * 3, pa.int64()),
            "event_type": pa.array(["t"] * 3, pa.string()),
            "value": pa.array([0.0] * 3, pa.float64()),
            "props": pa.array(["p"] * 3, pa.string()),
        }
    )
    d = tmp_path / "orph"
    os.makedirs(d, exist_ok=True)
    pq.write_table(t, str(d / "events.parquet"))

    out = cdc_orphan_tombstones(str(d)).to_pylist()
    # only the FIRST delete (before the insert) is orphan
    assert out == [{"conv_id": "c1", "n_orphan_deletes": 1}]
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * "
        f"FROM read_parquet('{d}/events.parquet')"
    )
    want = con.execute(
        e.oracle_sql()["cdc_orphan_tombstones"]
    ).arrow()
    assert cdc_orphan_tombstones(str(d)).equals(want.cast(
        cdc_orphan_tombstones(str(d)).schema))


def test_value_rank_transform_tie_semantics(ray_session, tmp_path):
    """Ties share the MIN rank (SQL RANK): values [1,2,2,4] map to bp
    0, 3333, 3333, 10000; a singleton type maps to 0."""
    from image_report_ray.pipelines.relational import value_rank_transform

    rows = [("a", 1.0), ("a", 2.0), ("a", 2.0), ("a", 4.0), ("b", 9.0)]
    t = pa.table(
        {
            "event_id": pa.array(np.arange(len(rows)), pa.int64()),
            "ts": pa.array(np.zeros(len(rows), dtype="datetime64[us]"),
                           pa.timestamp("us")),
            "user_id": pa.array([0] * len(rows), pa.int64()),
            "event_type": pa.array([r[0] for r in rows], pa.string()),
            "value": pa.array([r[1] for r in rows], pa.float64()),
            "props": pa.array(["p"] * len(rows), pa.string()),
        }
    )
    d = tmp_path / "rank"
    os.makedirs(d, exist_ok=True)
    pq.write_table(t, str(d / "events.parquet"))

    out = {r["event_id"]: r["pct_rank_bp"]
           for r in value_rank_transform(str(d)).to_pylist()}
    assert out == {0: 0, 1: 3333, 2: 3333, 3: 10000, 4: 0}


def test_q4_exists_via_max_shipdate(ray_session, tmp_path):
    """Order 1 has a lineitem 90 days late (counts), order 2 ships a day
    early (doesn't), order 3 has no lineitems (doesn't)."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from image_report_ray.pipelines.relational import q4_order_priority

    d = str(tmp_path)
    day = np.timedelta64(1, "D")
    t0 = np.datetime64("1997-01-01", "us")
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2, 3], pa.int64()),
        "o_custkey": pa.array([1, 1, 1], pa.int64()),
        "o_orderstatus": pa.array(["O"] * 3),
        "o_totalprice": pa.array([1.0] * 3),
        "o_orderdate": pa.array([t0, t0, t0], pa.timestamp("us")),
        "o_orderpriority": pa.array(["1-URGENT", "1-URGENT", "2-HIGH"]),
    }), os.path.join(d, "orders.parquet"))
    pq.write_table(pa.table({
        "l_orderkey": pa.array([1, 1, 2], pa.int64()),
        "l_partkey": pa.array([1, 1, 1], pa.int64()),
        "l_suppkey": pa.array([1, 1, 1], pa.int64()),
        "l_linenumber": pa.array([1, 2, 1], pa.int32()),
        "l_quantity": pa.array([1.0] * 3),
        "l_extendedprice": pa.array([10.0] * 3),
        "l_discount": pa.array([0.0] * 3),
        "l_tax": pa.array([0.0] * 3),
        "l_returnflag": pa.array(["N"] * 3),
        "l_linestatus": pa.array(["O"] * 3),
        "l_shipdate": pa.array(
            [t0 + 5 * day, t0 + 90 * day, t0 + 89 * day], pa.timestamp("us")),
    }), os.path.join(d, "lineitem.parquet"))
    out = q4_order_priority(d)
    assert out.to_pylist() == [{"o_orderpriority": "1-URGENT",
                                "order_count": 1}]


def test_q10_exact_cents_and_cut(ray_session, tmp_path):
    """Returned-flag filter + exact 1e-4-dollar revenue + the top-n cut
    ordered by integer revenue with custkey ties."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from image_report_ray.pipelines.relational import q10_returned_items

    d = str(tmp_path)
    t0 = np.datetime64("1997-01-01", "us")
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2, 3], pa.int64()),
        "o_custkey": pa.array([10, 20, 30], pa.int64()),
        "o_orderstatus": pa.array(["O"] * 3),
        "o_totalprice": pa.array([1.0] * 3),
        "o_orderdate": pa.array([t0] * 3, pa.timestamp("us")),
        "o_orderpriority": pa.array(["1-URGENT"] * 3),
    }), os.path.join(d, "orders.parquet"))
    pq.write_table(pa.table({
        "l_orderkey": pa.array([1, 2, 2, 3], pa.int64()),
        "l_partkey": pa.array([1] * 4, pa.int64()),
        "l_suppkey": pa.array([1] * 4, pa.int64()),
        "l_linenumber": pa.array([1, 1, 2, 1], pa.int32()),
        "l_quantity": pa.array([1.0] * 4),
        "l_extendedprice": pa.array([100.00, 50.00, 49.99, 500.0]),
        "l_discount": pa.array([0.10, 0.0, 0.0, 0.0]),
        "l_tax": pa.array([0.0] * 4),
        "l_returnflag": pa.array(["R", "R", "R", "N"]),  # order 3 not returned
        "l_linestatus": pa.array(["O"] * 4),
        "l_shipdate": pa.array([t0] * 4, pa.timestamp("us")),
    }), os.path.join(d, "lineitem.parquet"))
    pq.write_table(pa.table({
        "c_custkey": pa.array([10, 20, 30], pa.int64()),
        "c_name": pa.array(["cA", "cB", "cC"]),
        "c_nationkey": pa.array([0, 1, 0], pa.int64()),
        "c_acctbal": pa.array([0.0] * 3),
        "c_mktsegment": pa.array(["BUILDING"] * 3),
    }), os.path.join(d, "customer.parquet"))
    pq.write_table(pa.table({
        "n_nationkey": pa.array([0, 1], pa.int64()),
        "n_name": pa.array(["ALPHA", "BETA"]),
        "n_regionkey": pa.array([0, 0], pa.int64()),
    }), os.path.join(d, "nation.parquet"))
    out = q10_returned_items(d)
    # cust 20: 50.00 + 49.99 = 99.99; cust 10: 100 * 0.90 = 90.00
    assert out.to_pylist() == [
        {"c_custkey": 20, "c_name": "cB", "n_name": "BETA", "revenue": 99.99},
        {"c_custkey": 10, "c_name": "cA", "n_name": "ALPHA", "revenue": 90.0},
    ]


def test_q6_discount_band_and_qty_cap(ray_session, tmp_path):
    """Only the in-window row with a 5-7% discount and qty < 24 counts;
    revenue is exact price*discount cents."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from image_report_ray.pipelines.relational import q6_forecast_revenue

    d = str(tmp_path)
    t_in = np.datetime64("1996-06-01", "us")
    t_out = np.datetime64("1995-06-01", "us")
    pq.write_table(pa.table({
        "l_orderkey": pa.array([1, 2, 3, 4], pa.int64()),
        "l_partkey": pa.array([1] * 4, pa.int64()),
        "l_suppkey": pa.array([1] * 4, pa.int64()),
        "l_linenumber": pa.array([1] * 4, pa.int32()),
        "l_quantity": pa.array([10.0, 10.0, 24.0, 10.0]),
        "l_extendedprice": pa.array([100.0, 100.0, 100.0, 100.0]),
        "l_discount": pa.array([0.06, 0.04, 0.06, 0.06]),
        "l_tax": pa.array([0.0] * 4),
        "l_returnflag": pa.array(["N"] * 4),
        "l_linestatus": pa.array(["O"] * 4),
        "l_shipdate": pa.array([t_in, t_in, t_in, t_out], pa.timestamp("us")),
    }), os.path.join(d, "lineitem.parquet"))
    out = q6_forecast_revenue(d)
    assert out.to_pylist() == [{"revenue": 6.0, "n_items": 1}]


def test_q7_nation_pair_directions_and_window(ray_session, tmp_path):
    """Both directions of the pair count, same-nation and third-nation
    traffic and out-of-window shipments don't."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from image_report_ray.pipelines.relational import q7_volume_shipping

    d = str(tmp_path)
    pq.write_table(pa.table({
        "n_nationkey": pa.array([1, 2, 3], pa.int32()),
        "n_name": pa.array(["NATION_1", "NATION_2", "NATION_3"]),
        "n_regionkey": pa.array([0, 0, 0], pa.int32()),
    }), os.path.join(d, "nation.parquet"))
    pq.write_table(pa.table({
        "s_suppkey": pa.array([1, 2, 3], pa.int64()),
        "s_name": pa.array(["s1", "s2", "s3"]),
        "s_nationkey": pa.array([1, 2, 3], pa.int32()),
        "s_acctbal": pa.array([0.0] * 3),
    }), os.path.join(d, "supplier.parquet"))
    pq.write_table(pa.table({
        "c_custkey": pa.array([10, 20, 30], pa.int64()),
        "c_name": pa.array(["cA", "cB", "cC"]),
        "c_nationkey": pa.array([2, 1, 3], pa.int32()),
        "c_acctbal": pa.array([0.0] * 3),
        "c_mktsegment": pa.array(["BUILDING"] * 3),
    }), os.path.join(d, "customer.parquet"))
    t0 = np.datetime64("1997-01-01", "us")
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2, 3], pa.int64()),
        "o_custkey": pa.array([10, 20, 30], pa.int64()),
        "o_orderstatus": pa.array(["O"] * 3),
        "o_totalprice": pa.array([1.0] * 3),
        "o_orderdate": pa.array([t0] * 3, pa.timestamp("us")),
        "o_orderpriority": pa.array(["1-URGENT"] * 3),
    }), os.path.join(d, "orders.parquet"))
    ship = [np.datetime64("1996-05-01", "us"),   # n1 -> n2, 1996: counts
            np.datetime64("1997-03-01", "us"),   # n2 -> n1, 1997: counts
            np.datetime64("1996-05-01", "us"),   # n2 -> n2: same nation
            np.datetime64("1996-05-01", "us"),   # n1 -> n3: not the pair
            np.datetime64("1995-05-01", "us")]   # out of window
    pq.write_table(pa.table({
        "l_orderkey": pa.array([1, 2, 1, 3, 1], pa.int64()),
        "l_partkey": pa.array([1] * 5, pa.int64()),
        "l_suppkey": pa.array([1, 2, 2, 1, 1], pa.int64()),
        "l_linenumber": pa.array([1, 1, 2, 1, 3], pa.int32()),
        "l_quantity": pa.array([1.0] * 5),
        "l_extendedprice": pa.array([100.0, 50.0, 70.0, 80.0, 90.0]),
        "l_discount": pa.array([0.0] * 5),
        "l_tax": pa.array([0.0] * 5),
        "l_returnflag": pa.array(["N"] * 5),
        "l_linestatus": pa.array(["O"] * 5),
        "l_shipdate": pa.array(ship, pa.timestamp("us")),
    }), os.path.join(d, "lineitem.parquet"))
    out = q7_volume_shipping(d)
    assert out.to_pylist() == [
        {"supp_nation": "NATION_1", "cust_nation": "NATION_2",
         "l_year": 1996, "revenue": 100.0},
        {"supp_nation": "NATION_2", "cust_nation": "NATION_1",
         "l_year": 1997, "revenue": 50.0},
    ]


def test_q19_disjunction_and_count_through_combine(ray_session, tmp_path):
    """Each rule is an AND of brand/size/qty; the combine must not lose
    the per-row count (two lineitems of one (part, qty) = 2 items)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from image_report_ray.pipelines.relational import q19_disjunctive_revenue

    d = str(tmp_path)
    pq.write_table(pa.table({
        "p_partkey": pa.array([1, 2, 3, 4], pa.int64()),
        "p_name": pa.array(["a", "b", "c", "d"]),
        "p_brand": pa.array(["Brand#12", "Brand#23", "Brand#12", "Brand#11"]),
        "p_type": pa.array(["STANDARD"] * 4),
        "p_size": pa.array([3, 8, 20, 3], pa.int32()),
        "p_retailprice": pa.array([1.0] * 4),
    }), os.path.join(d, "part.parquet"))
    pq.write_table(pa.table({
        "l_orderkey": pa.array([1, 1, 2, 3, 4, 5], pa.int64()),
        "l_partkey": pa.array([1, 1, 1, 2, 3, 4], pa.int64()),
        "l_suppkey": pa.array([1] * 6, pa.int64()),
        "l_linenumber": pa.array([1, 2, 1, 1, 1, 1], pa.int32()),
        # p1@qty5 twice (combine folds them), p1@qty12 (rule1 qty cap),
        # p2@qty15 (rule2), p3@qty5 (size out), p4@qty5 (brand out)
        "l_quantity": pa.array([5.0, 5.0, 12.0, 15.0, 5.0, 5.0]),
        "l_extendedprice": pa.array([100.0, 30.0, 40.0, 50.0, 60.0, 70.0]),
        "l_discount": pa.array([0.10, 0.0, 0.0, 0.0, 0.0, 0.0]),
        "l_tax": pa.array([0.0] * 6),
        "l_returnflag": pa.array(["N"] * 6),
        "l_linestatus": pa.array(["O"] * 6),
        "l_shipdate": pa.array(
            [pa.scalar(0, pa.timestamp("us")).as_py()] * 6,
            pa.timestamp("us")),
    }), os.path.join(d, "lineitem.parquet"))
    out = q19_disjunctive_revenue(d)
    # 100*0.90 + 30 + 50 = 170.0 over 3 qualifying lineitems
    assert out.to_pylist() == [{"revenue": 170.0, "n_items": 3}]


def test_weighted_sample_weight_bias_and_block_invariance(ray_session, tmp_path):
    """Heavier docs must win far more often than light ones, and the
    local-cut/driver-cut composition must equal a single global cut."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from image_report_ray.pipelines.text import _splitmix64, weighted_sample

    d = str(tmp_path)
    n = 4000
    did = np.arange(n, dtype=np.int64)
    w = np.where(did % 2 == 0, 1000, 1).astype(np.int64)  # heavy evens
    pq.write_table(pa.table({
        "doc_id": pa.array(did),
        "text": pa.array(["x"] * n),
        "lang": pa.array(["en"] * n),
        "source": pa.array(["s"] * n),
        "n_chars": pa.array(w),
    }), os.path.join(d, "documents.parquet"), row_group_size=257)
    out = weighted_sample(d, k=100)
    assert out.num_rows == 100
    assert out.column("rnk").to_pylist() == list(range(1, 101))
    picked = np.array(out.column("doc_id").to_pylist())
    # heavy docs are 1000x likelier per unit; expect near-total dominance
    assert (picked % 2 == 0).sum() >= 95
    # bit-equality with the single-pass reference cut
    h = _splitmix64((did + 0x5EED).astype(np.uint64))
    pr = (h >> np.uint64(1)).astype(np.int64) // np.maximum(w, 1)
    order = np.lexsort((did, pr))[:100]
    assert picked.tolist() == did[order].tolist()
    assert out.column("priority").to_pylist() == pr[order].tolist()


def test_charclass_profile_exact_counts(ray_session, tmp_path):
    """Known class mix per source; other = total - letters - digits -
    spaces, including non-ASCII codepoints counted once each."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from image_report_ray.pipelines.text import charclass_profile

    d = str(tmp_path)
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["ab 12!", "Zz9", "héllo"]),
        "lang": pa.array(["en"] * 3),
        "source": pa.array(["a", "a", "b"]),
        "n_chars": pa.array([6, 3, 5], pa.int64()),
    }), os.path.join(d, "documents.parquet"))
    out = charclass_profile(d)
    assert out.to_pylist() == [
        # "ab 12!" + "Zz9": 9 chars, 4 letters, 3 digits, 1 space, 1 other
        {"source": "a", "n_docs": 2, "n_chars": 9, "letters": 4,
         "digits": 3, "spaces": 1, "other": 1},
        # "héllo": 5 codepoints, 4 ASCII letters, é is other
        {"source": "b", "n_docs": 1, "n_chars": 5, "letters": 4,
         "digits": 0, "spaces": 0, "other": 1},
    ]


def test_dedup_containment_catches_quote_inclusion(ray_session, tmp_path):
    """A short doc fully quoted inside a long one is containment 1.0
    (flagged) even though its Jaccard vs the long doc is far below any
    usable tau; an overlapping-but-not-contained pair stays out."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from image_report_ray.pipelines.dedup import (
        dedup_containment,
        dedup_ngram_jaccard,
    )

    d = str(tmp_path)
    quote = "the quick brown fox jumps over the lazy dog"
    filler = " ".join(f"w{i}" for i in range(40))
    other = " ".join(f"v{i}" for i in range(40))
    docs = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        # doc 1 ⊂ doc 2; doc 3 shares only two shingles with docs 1/2
        "text": pa.array([quote, f"{filler} {quote}",
                          f"over the lazy dog {other}"]),
        "lang": pa.array(["en"] * 3),
        "source": pa.array(["s"] * 3),
        "n_chars": pa.array([1, 1, 1], pa.int64()),
    })
    pq.write_table(docs, os.path.join(d, "documents.parquet"))
    out = dedup_containment(d, tau=0.8)
    assert out.column("doc_id_a").to_pylist() == [1]
    assert out.column("doc_id_b").to_pylist() == [2]
    assert out.column("containment").to_pylist() == [1.0]
    # the symmetric family would miss it at the same strictness
    jac = dedup_ngram_jaccard(d, tau=0.8)
    assert jac.num_rows == 0


def test_q8_market_share_exact_integer_share(ray_session, tmp_path):
    """Two suppliers in different nations split one region-year's
    revenue; the share is the exact integer 1e6-basis division and
    out-of-region customers don't contribute to the denominator."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from image_report_ray.pipelines.relational import q8_market_share

    d = str(tmp_path)
    pq.write_table(pa.table({
        "r_regionkey": pa.array([0, 1], pa.int32()),
        "r_name": pa.array(["ASIA", "EUROPE"]),
    }), os.path.join(d, "region.parquet"))
    pq.write_table(pa.table({
        "n_nationkey": pa.array([1, 2, 3], pa.int32()),
        "n_name": pa.array(["NATION_1", "NATION_2", "NATION_3"]),
        "n_regionkey": pa.array([0, 0, 1], pa.int32()),
    }), os.path.join(d, "nation.parquet"))
    pq.write_table(pa.table({
        "s_suppkey": pa.array([1, 2], pa.int64()),
        "s_name": pa.array(["s1", "s2"]),
        "s_nationkey": pa.array([1, 2], pa.int32()),
        "s_acctbal": pa.array([0.0] * 2),
    }), os.path.join(d, "supplier.parquet"))
    pq.write_table(pa.table({
        "c_custkey": pa.array([10, 30], pa.int64()),
        "c_name": pa.array(["cA", "cC"]),
        "c_nationkey": pa.array([1, 3], pa.int32()),  # 30 is in EUROPE
        "c_acctbal": pa.array([0.0] * 2),
        "c_mktsegment": pa.array(["BUILDING"] * 2),
    }), os.path.join(d, "customer.parquet"))
    pq.write_table(pa.table({
        "p_partkey": pa.array([1, 2], pa.int64()),
        "p_name": pa.array(["a", "b"]),
        "p_brand": pa.array(["Brand#1"] * 2),
        "p_type": pa.array(["PROMO", "ECONOMY"]),
        "p_size": pa.array([1, 1], pa.int32()),
        "p_retailprice": pa.array([1.0] * 2),
    }), os.path.join(d, "part.parquet"))
    t96 = np.datetime64("1996-06-01", "us")
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2], pa.int64()),
        "o_custkey": pa.array([10, 30], pa.int64()),
        "o_orderstatus": pa.array(["O"] * 2),
        "o_totalprice": pa.array([1.0] * 2),
        "o_orderdate": pa.array([t96, t96], pa.timestamp("us")),
        "o_orderpriority": pa.array(["1-URGENT"] * 2),
    }), os.path.join(d, "orders.parquet"))
    pq.write_table(pa.table({
        # order 1 (ASIA cust): supp1/PROMO 30.00, supp2/PROMO 70.00,
        # supp1/ECONOMY 99.00 (type excluded); order 2: EUROPE cust
        "l_orderkey": pa.array([1, 1, 1, 2], pa.int64()),
        "l_partkey": pa.array([1, 1, 2, 1], pa.int64()),
        "l_suppkey": pa.array([1, 2, 1, 1], pa.int64()),
        "l_linenumber": pa.array([1, 2, 3, 1], pa.int32()),
        "l_quantity": pa.array([1.0] * 4),
        "l_extendedprice": pa.array([30.0, 70.0, 99.0, 55.0]),
        "l_discount": pa.array([0.0] * 4),
        "l_tax": pa.array([0.0] * 4),
        "l_returnflag": pa.array(["N"] * 4),
        "l_linestatus": pa.array(["O"] * 4),
        "l_shipdate": pa.array([t96] * 4, pa.timestamp("us")),
    }), os.path.join(d, "lineitem.parquet"))
    out = q8_market_share(d)
    assert out.to_pylist() == [{
        "l_year": 1996, "mkt_share_bp": 300_000,
        "nation_revenue": 30.0, "total_revenue": 100.0,
    }]


def test_gap_quantiles_matches_bruteforce_with_ties(ray_session, tmp_path):
    """Randomized events incl. heavy tie mass; a tiny shift forces real
    multi-bucket refinement. Exact k = ceil(p*n/100) order statistics."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from image_report_ray.pipelines.relational import gap_quantiles

    d = str(tmp_path)
    rng = np.random.default_rng(11)
    n = 5000
    uid = rng.integers(0, 40, n)
    typ = np.array(["a", "b", "c"])[rng.integers(0, 3, n)]
    # lots of equal timestamps and tiny deltas -> tied/zero gaps
    ts = np.sort(rng.choice(np.arange(0, 10_000_000, 250_000), n)).astype(
        "datetime64[us]")
    t = pa.table({
        "event_id": pa.array(np.arange(n), pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array(uid, pa.int64()),
        "event_type": pa.array(typ),
        "value": pa.array(np.zeros(n)),
        "props": pa.array(["{}"] * n),
    })
    pq.write_table(t, os.path.join(d, "events.parquet"), row_group_size=613)
    out = gap_quantiles(d, shift=18)  # ~0.26 s buckets
    got = {r["event_type"]: (r["p50_us"], r["p90_us"], r["p99_us"])
           for r in out.to_pylist()}

    # brute force
    tsv = ts.view(np.int64)
    want = {}
    for T in ("a", "b", "c"):
        gaps = []
        for u in np.unique(uid):
            m = (uid == u) & (typ == T)
            order = np.lexsort((np.arange(n)[m], tsv[m]))
            sub = tsv[m][order]
            gaps.extend(np.diff(sub).tolist())
        gaps = np.sort(np.array(gaps, dtype=np.int64))
        want[T] = tuple(int(gaps[(p * len(gaps) + 99) // 100 - 1])
                        for p in (50, 90, 99))
    assert got == want


def test_q15_argmax_keeps_all_ties(ray_session, tmp_path):
    """Two suppliers tied at the window max both win; out-of-window
    revenue doesn't count."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from image_report_ray.pipelines.relational import q15_top_supplier

    d = str(tmp_path)
    t_in = np.datetime64("1996-02-01", "us")
    t_out = np.datetime64("1996-06-01", "us")
    pq.write_table(pa.table({
        "s_suppkey": pa.array([1, 2, 3], pa.int64()),
        "s_name": pa.array(["s1", "s2", "s3"]),
        "s_nationkey": pa.array([0, 0, 0], pa.int32()),
        "s_acctbal": pa.array([0.0] * 3),
    }), os.path.join(d, "supplier.parquet"))
    pq.write_table(pa.table({
        "l_orderkey": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "l_partkey": pa.array([1] * 5, pa.int64()),
        "l_suppkey": pa.array([1, 2, 2, 3, 3], pa.int64()),
        "l_linenumber": pa.array([1] * 5, pa.int32()),
        "l_quantity": pa.array([1.0] * 5),
        # s1: 100; s2: 60+40=100 (tie); s3: 50 in-window + 999 out
        "l_extendedprice": pa.array([100.0, 60.0, 40.0, 50.0, 999.0]),
        "l_discount": pa.array([0.0] * 5),
        "l_tax": pa.array([0.0] * 5),
        "l_returnflag": pa.array(["N"] * 5),
        "l_linestatus": pa.array(["O"] * 5),
        "l_shipdate": pa.array([t_in, t_in, t_in, t_in, t_out],
                               pa.timestamp("us")),
    }), os.path.join(d, "lineitem.parquet"))
    out = q15_top_supplier(d)
    assert out.to_pylist() == [
        {"s_suppkey": 1, "s_name": "s1", "total_revenue": 100.0},
        {"s_suppkey": 2, "s_name": "s2", "total_revenue": 100.0},
    ]


def test_vocab_stats_exact_census(ray_session, tmp_path):
    """Occurrences / types / hapax / TTR on a corpus with known counts."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from image_report_ray.pipelines.text import vocab_stats

    d = str(tmp_path)
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["a b a c", "b d"]),
        "lang": pa.array(["en"] * 2),
        "source": pa.array(["s"] * 2),
        "n_chars": pa.array([7, 3], pa.int64()),
    }), os.path.join(d, "documents.parquet"))
    out = vocab_stats(d)
    # tokens: a a b b c d -> 6 occ, 4 types, hapax {c, d} = 2
    assert out.to_pylist() == [{
        "n_tokens": 6, "n_types": 4, "n_hapax": 2,
        "ttr_micro": 1_000_000 * 4 // 6,
    }]


def test_pair_degree_hist_triangle_plus_isolate(ray_session, tmp_path):
    """Three identical docs form a triangle (each degree 2); an
    unrelated doc contributes no degree row."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from image_report_ray.pipelines.dedup import pair_degree_hist

    d = str(tmp_path)
    same = " ".join(f"w{i}" for i in range(20))
    other = " ".join(f"z{i}" for i in range(20))
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array([same, same, same, other]),
        "lang": pa.array(["en"] * 4),
        "source": pa.array(["s"] * 4),
        "n_chars": pa.array([1] * 4, pa.int64()),
    }), os.path.join(d, "documents.parquet"))
    out = pair_degree_hist(d)
    assert out.to_pylist() == [{"degree": 2, "n_docs": 3}]


def test_cdc_edit_wars_and_hot_keys_consistency(ray_session):
    """edit_wars totals must re-derive from version_history, and
    hot_keys must be the global top-20 of the same per-key counts."""
    from collections import Counter

    from image_report_ray.pipelines.cdcq import (
        cdc_edit_wars,
        cdc_hot_keys,
        cdc_version_history,
    )

    sf = "/root/testdata/sf0.001"
    hist = cdc_version_history(sf).to_pylist()
    per_key = Counter((r["conv_id"], r["turn_idx"]) for r in hist)

    wars = {r["conv_id"]: r for r in cdc_edit_wars(sf).to_pylist()}
    per_conv: dict = {}
    for (c, t), v in per_key.items():
        d = per_conv.setdefault(c, {"n_keys": 0, "n_rewritten": 0,
                                    "max_versions": 0, "n_events": 0})
        d["n_keys"] += 1
        d["n_rewritten"] += int(v >= 2)
        d["max_versions"] = max(d["max_versions"], v)
        d["n_events"] += v
    assert set(wars) == set(per_conv)
    for c, d in per_conv.items():
        got = wars[c]
        assert {k: got[k] for k in d} == d, c

    hot = cdc_hot_keys(sf).to_pylist()
    want = sorted(per_key.items(), key=lambda kv: (-kv[1], kv[0]))[:20]
    assert [((r["conv_id"], r["turn_idx"]), r["versions"]) for r in hot] == want


def _ti_corpus(tmp_path, texts):
    d = str(tmp_path)
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(len(texts)), pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * len(texts)),
        "source": pa.array(["s"] * len(texts)),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), os.path.join(d, "documents.parquet"), row_group_size=7)
    return d


def test_text_index_route_equality_and_reuse(ray_session, tmp_path):
    """keyword_search and bm25_search must be bit-equal through the
    physical inverted index, the second build must reuse (no rewrite),
    and a content change must invalidate the fingerprint."""
    import shutil
    import time as _time

    from image_report_ray.pipelines.text import (
        _text_index_dir,
        bm25_search,
        build_text_index,
        keyword_search,
    )

    rng = np.random.default_rng(3)
    vocab = [f"t{i}" for i in range(30)]
    texts = [" ".join(rng.choice(vocab, rng.integers(5, 25)))
             for _ in range(40)]
    d = _ti_corpus(tmp_path, texts)

    fresh_kw = keyword_search(d)
    fresh_bm = bm25_search(d)
    idx_dir = _text_index_dir(d)
    shutil.rmtree(idx_dir, ignore_errors=True)
    meta1 = build_text_index(d)
    assert meta1["n_docs"] == 40
    assert keyword_search(d).equals(fresh_kw)
    assert bm25_search(d).equals(fresh_bm)

    # reuse: meta.json untouched by a second build
    mp = os.path.join(idx_dir, "meta.json")
    mt = os.stat(mp).st_mtime_ns
    meta2 = build_text_index(d)
    assert meta2 == meta1 and os.stat(mp).st_mtime_ns == mt

    # content change -> new fingerprint dir (stale index never served)
    _time.sleep(0.01)
    pq.write_table(pa.table({
        "doc_id": pa.array([0], pa.int64()),
        "text": pa.array(["only one doc now"]),
        "lang": pa.array(["en"]),
        "source": pa.array(["s"]),
        "n_chars": pa.array([16], pa.int64()),
    }), os.path.join(d, "documents.parquet"))
    assert _text_index_dir(d) != idx_dir


def test_prefix_filter_equals_allpairs_route(ray_session, tmp_path):
    """Prefix filtering is LOSSLESS: on a corpus with planted near-dups
    at several overlap levels the output is bit-equal to the exhaustive
    shared-shingle route at the same tau, and the planted >=0.8 pairs
    are all present."""
    from image_report_ray.pipelines.dedup import (
        dedup_ngram_jaccard,
        dedup_prefix_filter,
    )

    rng = np.random.default_rng(17)
    vocab = [f"w{i}" for i in range(200)]
    texts = []
    for i in range(30):
        texts.append(" ".join(rng.choice(vocab, 40)))
    # planted: 5 docs nearly identical to doc 0 (1 token changed),
    # 3 docs half-overlapping doc 1
    base0 = texts[0].split()
    for j in range(5):
        tk = list(base0)
        tk[7 + j] = f"mut{j}"
        texts.append(" ".join(tk))
    base1 = texts[1].split()
    for j in range(3):
        texts.append(" ".join(base1[:20] + list(rng.choice(vocab, 20))))
    sf = _write_docs(tmp_path, texts)
    a = dedup_prefix_filter(sf)            # tau 0.8
    b = dedup_ngram_jaccard(sf, tau=0.8)
    assert a.equals(b)
    # the 5 planted single-mutation dups of doc 0 all clear tau=0.8
    # (mutant-x-mutant pairs land just below it — two mutation sites)
    got = set(zip(a.column("doc_id_a").to_pylist(),
                  a.column("doc_id_b").to_pylist()))
    assert {(0, 30 + j) for j in range(5)} <= got


def test_customer_value_deciles_bruteforce(ray_session, tmp_path):
    """Randomized spends incl. heavy ties vs a numpy brute force of the
    same threshold semantics; a tiny shift forces real refinement and
    the census must cover every customer exactly once."""
    from image_report_ray.pipelines.relational import customer_value_deciles

    d = str(tmp_path)
    rng = np.random.default_rng(23)
    n = 3000
    cust = rng.integers(0, 700, n)
    price = np.round(rng.choice([5.0, 19.99, 19.99, 250.0, 999.99], n)
                     * rng.integers(1, 4, n), 2)
    t0 = np.datetime64("1996-01-01", "us")
    pq.write_table(pa.table({
        "o_orderkey": pa.array(np.arange(n), pa.int64()),
        "o_custkey": pa.array(cust, pa.int64()),
        "o_orderstatus": pa.array(["O"] * n),
        "o_totalprice": pa.array(price),
        "o_orderdate": pa.array([t0] * n, pa.timestamp("us")),
        "o_orderpriority": pa.array(["1-URGENT"] * n),
    }), os.path.join(d, "orders.parquet"), row_group_size=379)
    out = customer_value_deciles(d, shift=4)
    got = {r["decile"]: (r["n_customers"], r["total_spend"])
           for r in out.to_pylist()}

    spend = {}
    for c, p in zip(cust, np.rint(price * 100).astype(np.int64)):
        spend[c] = spend.get(c, 0) + int(p)
    v = np.sort(np.array(list(spend.values()), dtype=np.int64))
    N = len(v)
    thr = np.array([v[(p * N + 99) // 100 - 1] for p in range(10, 100, 10)],
                   dtype=np.int64)
    want = {}
    for s in spend.values():
        dd = int(np.searchsorted(thr, s, side="left"))
        nn, ss = want.get(dd, (0, 0))
        want[dd] = (nn + 1, ss + s)
    want = {k: (nc, sc / 100.0) for k, (nc, sc) in want.items()}
    assert got == want
    assert sum(nc for nc, _ in got.values()) == N


def test_cluster_size_hist_constructed_components(ray_session, tmp_path):
    """A 3-doc identical family, a 2-doc pair, and singletons: the
    histogram is {3: 1, 2: 1} with singletons absent."""
    from image_report_ray.pipelines.dedup import cluster_size_hist

    fam = " ".join(f"w{i}" for i in range(20))
    pair = " ".join(f"p{i}" for i in range(20))
    solo1 = " ".join(f"x{i}" for i in range(20))
    solo2 = " ".join(f"y{i}" for i in range(20))
    sf = _write_docs(tmp_path, [fam, fam, fam, pair, pair, solo1, solo2])
    out = cluster_size_hist(sf)
    assert out.to_pylist() == [
        {"cluster_size": 2, "n_clusters": 1},
        {"cluster_size": 3, "n_clusters": 1},
    ]


def test_event_rate_shifts_gap_days_and_first_null(ray_session, tmp_path):
    """Deltas compare vs the previous OBSERVED day (gap days don't
    reset to zero) and each type's first day reports null."""
    from image_report_ray.pipelines.relational import event_rate_shifts

    d = str(tmp_path)
    day = 86_400_000_000
    rows = [  # (day, type) counts: a d0=2 d1=3 d4=1; b d2=5
        (0, "a"), (0, "a"), (1, "a"), (1, "a"), (1, "a"),
        (4, "a"), (2, "b")] * 1
    ts = np.array([r[0] * day + 1 for r in rows], dtype="datetime64[us]")
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(len(rows)), pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array([1] * len(rows), pa.int64()),
        "event_type": pa.array([r[1] for r in rows]),
        "value": pa.array([0.0] * len(rows)),
        "props": pa.array(["{}"] * len(rows)),
    }), os.path.join(d, "events.parquet"))
    out = event_rate_shifts(d)
    assert out.to_pylist() == [
        {"event_type": "a", "day": 0, "n_events": 2, "delta": None},
        {"event_type": "a", "day": 1, "n_events": 3, "delta": 1},
        {"event_type": "a", "day": 4, "n_events": 1, "delta": -2},
        {"event_type": "b", "day": 2, "n_events": 1, "delta": None},
    ]


def test_cluster_separation_consistency(ray_session):
    """K*(K-1)/2 rows, symmetric-complete pair coverage, and distances
    re-derive from the shared cached centroids bit-for-bit."""
    from image_report_ray.pipelines.similarity import (
        _KM_DIST_ROUND,
        _KM_ITERS,
        _KM_K,
        _kmeans_centroids_cached,
        cluster_separation,
    )
    import ray as _ray
    import ray.data as rd

    sf = "/root/testdata/sf0.001"
    out = cluster_separation(sf)
    refs = rd.read_parquet(f"{sf}/embeddings.parquet",
                           columns=["vec_id", "embedding"]).to_arrow_refs()
    cents = _kmeans_centroids_cached(sf, refs, _KM_K, _KM_ITERS)
    k = cents.shape[0]
    assert out.num_rows == k * (k - 1) // 2
    for r in out.to_pylist()[:20]:
        want = float(np.round(
            ((cents[r["cid_a"]] - cents[r["cid_b"]]) ** 2).sum(),
            _KM_DIST_ROUND))
        assert r["d2"] == want


def test_text_index_routes_top_tokens_and_vocab_stats(ray_session, tmp_path):
    """top_tokens and vocab_stats auto-route through the physical
    inverted index bit-equal to their tokenize routes."""
    import shutil

    from image_report_ray.pipelines.text import (
        _text_index_dir,
        build_text_index,
        top_tokens,
        vocab_stats,
    )

    rng = np.random.default_rng(29)
    vocab = [f"t{i}" for i in range(25)]
    texts = [" ".join(rng.choice(vocab, rng.integers(5, 20)))
             for _ in range(35)]
    d = _ti_corpus(tmp_path, texts)
    fresh_tt = top_tokens(d)
    fresh_vs = vocab_stats(d)
    shutil.rmtree(_text_index_dir(d), ignore_errors=True)
    build_text_index(d)
    assert top_tokens(d).equals(fresh_tt)
    assert vocab_stats(d).equals(fresh_vs)


def test_q13_custdist_counts_zero_order_customers(ray_session, tmp_path):
    """Customers without orders land in the c_count=0 bucket; the
    histogram covers every customer exactly once."""
    from image_report_ray.pipelines.relational import q13_custdist

    d = str(tmp_path)
    t0 = np.datetime64("1996-01-01", "us")
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2, 3, 4], pa.int64()),
        "c_name": pa.array(["a", "b", "c", "d"]),
        "c_nationkey": pa.array([0] * 4, pa.int32()),
        "c_acctbal": pa.array([0.0] * 4),
        "c_mktsegment": pa.array(["BUILDING"] * 4),
    }), os.path.join(d, "customer.parquet"))
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2, 3], pa.int64()),
        "o_custkey": pa.array([1, 1, 2], pa.int64()),
        "o_orderstatus": pa.array(["O"] * 3),
        "o_totalprice": pa.array([1.0] * 3),
        "o_orderdate": pa.array([t0] * 3, pa.timestamp("us")),
        "o_orderpriority": pa.array(["1-URGENT"] * 3),
    }), os.path.join(d, "orders.parquet"))
    out = q13_custdist(d)
    # custs 3,4: 0 orders; cust 2: 1; cust 1: 2
    assert out.to_pylist() == [
        {"c_count": 0, "custdist": 2},
        {"c_count": 2, "custdist": 1},
        {"c_count": 1, "custdist": 1},
    ]


def test_q17_correlated_average_exact(ray_session, tmp_path):
    """qty < 0.2*avg(qty) per part in pure integers: for part 1 with
    quantities [1, 10, 10, 10] avg = 7.75, cutoff 1.55 — only the 1
    qualifies; a second part below brand filter contributes nothing."""
    from image_report_ray.pipelines.relational import q17_small_quantity

    d = str(tmp_path)
    pq.write_table(pa.table({
        "p_partkey": pa.array([1, 2], pa.int64()),
        "p_name": pa.array(["a", "b"]),
        "p_brand": pa.array(["Brand#13", "Brand#99"]),
        "p_type": pa.array(["SMALL", "SMALL"]),
        "p_size": pa.array([1, 1], pa.int32()),
        "p_retailprice": pa.array([1.0] * 2),
    }), os.path.join(d, "part.parquet"))
    pq.write_table(pa.table({
        "l_orderkey": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "l_partkey": pa.array([1, 1, 1, 1, 2], pa.int64()),
        "l_suppkey": pa.array([1] * 5, pa.int64()),
        "l_linenumber": pa.array([1] * 5, pa.int32()),
        "l_quantity": pa.array([1.0, 10.0, 10.0, 10.0, 1.0]),
        "l_extendedprice": pa.array([70.0, 5.0, 5.0, 5.0, 9.0]),
        "l_discount": pa.array([0.0] * 5),
        "l_tax": pa.array([0.0] * 5),
        "l_returnflag": pa.array(["N"] * 5),
        "l_linestatus": pa.array(["O"] * 5),
        "l_shipdate": pa.array(
            [np.datetime64("1996-01-01", "us")] * 5, pa.timestamp("us")),
    }), os.path.join(d, "lineitem.parquet"))
    out = q17_small_quantity(d)
    assert out.to_pylist() == [{"avg_yearly": 10.0, "n_items": 1}]


def test_q22_above_average_anti_join(ray_session, tmp_path):
    """Above-positive-average balance + no orders, censused per nation;
    the average test is the exact integer cross product."""
    from image_report_ray.pipelines.relational import q22_wealthy_inactive

    d = str(tmp_path)
    t0 = np.datetime64("1996-01-01", "us")
    pq.write_table(pa.table({
        # positive balances: 100, 200, 300 -> avg 200
        "c_custkey": pa.array([1, 2, 3, 4], pa.int64()),
        "c_name": pa.array(["a", "b", "c", "d"]),
        "c_nationkey": pa.array([0, 1, 1, 1], pa.int32()),
        "c_acctbal": pa.array([100.0, 300.0, 300.0, -50.0]),
    "c_mktsegment": pa.array(["BUILDING"] * 4),
    }), os.path.join(d, "customer.parquet"))
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1], pa.int64()),
        "o_custkey": pa.array([2], pa.int64()),  # cust 2 ordered
        "o_orderstatus": pa.array(["O"]),
        "o_totalprice": pa.array([1.0]),
        "o_orderdate": pa.array([t0], pa.timestamp("us")),
        "o_orderpriority": pa.array(["1-URGENT"]),
    }), os.path.join(d, "orders.parquet"))
    out = q22_wealthy_inactive(d)
    # avg positive = (100+300+300)/3 = 233.33; wealthy = custs 2,3;
    # cust 2 ordered -> only cust 3 (nation 1) remains
    assert out.to_pylist() == [
        {"c_nationkey": 1, "numcust": 1, "totacctbal": 300.0},
    ]


def test_orders_fill_latency_min_and_exclusion(ray_session, tmp_path):
    """First-ship MIN wins per order, day floor is exact, and orders
    with no lineitems don't appear."""
    from image_report_ray.pipelines.relational import orders_fill_latency

    d = str(tmp_path)
    day = np.timedelta64(1, "D")
    t0 = np.datetime64("1997-01-01", "us")
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2, 3], pa.int64()),
        "o_custkey": pa.array([1, 1, 1], pa.int64()),
        "o_orderstatus": pa.array(["O"] * 3),
        "o_totalprice": pa.array([1.0] * 3),
        "o_orderdate": pa.array([t0] * 3, pa.timestamp("us")),
        "o_orderpriority": pa.array(["1-URGENT"] * 3),
    }), os.path.join(d, "orders.parquet"))
    pq.write_table(pa.table({
        # order 1: ships day 5 then day 2 -> latency 2; order 2: day 2
        "l_orderkey": pa.array([1, 1, 2], pa.int64()),
        "l_partkey": pa.array([1] * 3, pa.int64()),
        "l_suppkey": pa.array([1] * 3, pa.int64()),
        "l_linenumber": pa.array([1, 2, 1], pa.int32()),
        "l_quantity": pa.array([1.0] * 3),
        "l_extendedprice": pa.array([1.0] * 3),
        "l_discount": pa.array([0.0] * 3),
        "l_tax": pa.array([0.0] * 3),
        "l_returnflag": pa.array(["N"] * 3),
        "l_linestatus": pa.array(["O"] * 3),
        "l_shipdate": pa.array([t0 + 5 * day, t0 + 2 * day, t0 + 2 * day],
                               pa.timestamp("us")),
    }), os.path.join(d, "lineitem.parquet"))
    out = orders_fill_latency(d)
    assert out.to_pylist() == [{"latency_days": 2, "n_orders": 2}]


def test_events_hour_heatmap_dow_anchor(ray_session, tmp_path):
    """Epoch day 0 (1970-01-01) was a Thursday: dow must be 4 under the
    Sunday=0 convention; hour extraction is pure integer µs math."""
    from image_report_ray.pipelines.relational import events_hour_heatmap

    d = str(tmp_path)
    ts = np.array(["1970-01-01T05:30:00", "1970-01-01T05:45:00",
                   "1970-01-04T23:59:59"], dtype="datetime64[us]")
    pq.write_table(pa.table({
        "event_id": pa.array([1, 2, 3], pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array([1] * 3, pa.int64()),
        "event_type": pa.array(["a"] * 3),
        "value": pa.array([0.0] * 3),
        "props": pa.array(["{}"] * 3),
    }), os.path.join(d, "events.parquet"))
    out = events_hour_heatmap(d)
    # Jan 1 1970 = Thursday (dow 4); Jan 4 = Sunday (dow 0)
    assert out.to_pylist() == [
        {"dow": 0, "hour": 23, "n_events": 1},
        {"dow": 4, "hour": 5, "n_events": 2},
    ]


def test_token_coverage_exact_mass(ray_session, tmp_path):
    """Known Zipf-ish corpus: top-k mass in exact basis points; ties in
    counts break by token asc identically to the SQL ROW_NUMBER."""
    from image_report_ray.pipelines.text import token_coverage

    # counts: a=6, b=3, c=1 -> total 10
    sf = _write_docs(tmp_path, ["a a a b", "a a a b b c"])
    out = token_coverage(sf, ks=(1, 2, 3))
    assert out.to_pylist() == [
        {"k": 1, "mass_bp": 6000},
        {"k": 2, "mass_bp": 9000},
        {"k": 3, "mass_bp": 10000},
    ]


def test_conversion_latency_bruteforce(ray_session, tmp_path):
    """Constructed funnel: pre-signup purchases don't count, the FIRST
    signup anchors, unconverted signups count in the denominator, and
    quantiles are the exact ceil-rank order statistics."""
    from image_report_ray.pipelines.relational import conversion_latency

    d = str(tmp_path)
    rows = [
        # user 1: purchase BEFORE signup (ignored), signup @10, purchase @25 -> lat 15
        (1, 5, "purchase"), (1, 10, "signup"), (1, 25, "purchase"),
        # user 2: two signups (first @20 anchors), purchase @120 -> lat 100
        (2, 20, "signup"), (2, 90, "signup"), (2, 120, "purchase"),
        # user 3: signup only -> unconverted
        (3, 7, "signup"),
        # user 4: purchase only -> not a signup user
        (4, 3, "purchase"),
        # user 5: signup and purchase at the SAME ts -> lat 0
        (5, 40, "signup"), (5, 40, "purchase"),
    ]
    ts = np.array([r[1] * 1_000_000 for r in rows], dtype="datetime64[us]")
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(len(rows)), pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "event_type": pa.array([r[2] for r in rows]),
        "value": pa.array([0.0] * len(rows)),
        "props": pa.array(["{}"] * len(rows)),
    }), os.path.join(d, "events.parquet"), row_group_size=3)
    out = conversion_latency(d, shift=18)
    # latencies sorted: [0, 15e6, 100e6]; k50 = ceil(1.5)=2 -> 15e6,
    # k90 = ceil(2.7)=3 -> 100e6
    assert out.to_pylist() == [{
        "n_signup_users": 4, "n_converted": 3,
        "p50_us": 15_000_000, "p90_us": 100_000_000,
    }]


def test_part_concentration_bruteforce(ray_session, tmp_path):
    """Skewed constructed catalogue vs a numpy brute force of the same
    ceil-rank cut and strictly-above/at-cut split."""
    from image_report_ray.pipelines.relational import part_concentration

    d = str(tmp_path)
    rng = np.random.default_rng(31)
    # 100 parts: one hot part with 500 lineitems, rest 1-20
    counts = np.r_[500, rng.integers(1, 21, 99)]
    pk = np.repeat(np.arange(1, 101), counts)
    n = len(pk)
    pq.write_table(pa.table({
        "l_orderkey": pa.array(np.arange(n), pa.int64()),
        "l_partkey": pa.array(pk, pa.int64()),
        "l_suppkey": pa.array(np.ones(n), pa.int64()),
        "l_linenumber": pa.array(np.ones(n, np.int32), pa.int32()),
        "l_quantity": pa.array(np.ones(n)),
        "l_extendedprice": pa.array(np.ones(n)),
        "l_discount": pa.array(np.zeros(n)),
        "l_tax": pa.array(np.zeros(n)),
        "l_returnflag": pa.array(["N"] * n),
        "l_linestatus": pa.array(["O"] * n),
        "l_shipdate": pa.array(
            np.repeat(np.datetime64("1996-01-01", "us"), n),
            pa.timestamp("us")),
    }), os.path.join(d, "lineitem.parquet"), row_group_size=211)
    out = part_concentration(d).to_pylist()[0]

    v = np.sort(counts)
    k = (99 * 100 + 99) // 100
    cut = int(v[k - 1])
    total = int(counts.sum())
    want = {
        "cut_count": cut,
        "n_parts": 100,
        "n_above": int((counts > cut).sum()),
        "n_at": int((counts == cut).sum()),
        "mass_above_bp": 10_000 * int(counts[counts > cut].sum()) // total,
        "mass_at_bp": 10_000 * int(counts[counts == cut].sum()) // total,
    }
    assert out == want


def test_source_dup_rate_attribution(ray_session, tmp_path):
    """Duplicates attribute to THEIR OWN source (not the winner's), the
    winner itself is not a dup, and clean sources report 0."""
    from image_report_ray.pipelines.text import source_dup_rate

    d = str(tmp_path)
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        # doc 1 (src a) is the winner; dups live in src b (x2) and a (x1)
        "text": pa.array(["same", "same", "same", "same", "unique"]),
        "lang": pa.array(["en"] * 5),
        "source": pa.array(["a", "b", "b", "a", "c"]),
        "n_chars": pa.array([4, 4, 4, 4, 6], pa.int64()),
    }), os.path.join(d, "documents.parquet"), row_group_size=2)
    out = source_dup_rate(d)
    assert out.to_pylist() == [
        {"source": "a", "n_docs": 2, "n_dups": 1, "dup_bp": 5000},
        {"source": "b", "n_docs": 2, "n_dups": 2, "dup_bp": 10000},
        {"source": "c", "n_docs": 1, "n_dups": 0, "dup_bp": 0},
    ]


def test_dup_flow_matrix_directionality(ray_session, tmp_path):
    """Flow points winner-source -> dup-source; the diagonal counts
    within-feed reposts and non-dup docs contribute nothing."""
    from image_report_ray.pipelines.text import dup_flow_matrix

    d = str(tmp_path)
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        # winner 1 (src a): dups in b, b, a; winner 5 (src c): dup in a
        "text": pa.array(["x", "x", "x", "x", "y", "y"]),
        "lang": pa.array(["en"] * 6),
        "source": pa.array(["a", "b", "b", "a", "c", "a"]),
        "n_chars": pa.array([1] * 6, pa.int64()),
    }), os.path.join(d, "documents.parquet"), row_group_size=2)
    out = dup_flow_matrix(d)
    assert out.to_pylist() == [
        {"winner_source": "a", "dup_source": "a", "n_dups": 1},
        {"winner_source": "a", "dup_source": "b", "n_dups": 2},
        {"winner_source": "c", "dup_source": "a", "n_dups": 1},
    ]


def test_peak_concurrency_bucket_invariance_and_bruteforce(ray_session):
    """The sweep-line's cross-bucket prefix carry must make the result
    independent of the range partition count, and match a naive driver
    sweep over the same session intervals."""
    import numpy as np
    import pandas as pd

    from image_report_ray.pipelines.relational import peak_concurrency

    sf = "/root/testdata/sf0.001"
    out2 = peak_concurrency(sf, P=2).to_pylist()
    out16 = peak_concurrency(sf, P=16).to_pylist()
    assert out2 == out16

    # naive oracle: sessionize in pandas, sweep at distinct boundary ts
    ev = pd.read_parquet(f"{sf}/events.parquet", columns=["user_id", "ts"])
    ev = ev.sort_values(["user_id", "ts"])
    gap = ev.groupby("user_id")["ts"].diff() > pd.Timedelta(minutes=30)
    sid = (gap | ev.groupby("user_id")["ts"].diff().isna()).cumsum()
    ses = ev.groupby(sid)["ts"].agg(["min", "max"])
    st = ses["min"].astype("int64").to_numpy()
    en = ses["max"].astype("int64").to_numpy()
    pts = np.unique(np.r_[st, en])
    conc = (np.searchsorted(np.sort(st), pts, side="right")
            - np.searchsorted(np.sort(en), pts, side="left"))
    day = pts // 86_400_000_000
    exp = {}
    for d in np.unique(day):
        m = day == d
        mx = conc[m].max()
        exp[int(d)] = (int(mx), int(pts[m][conc[m] == mx].min()))
    got = {r["day"]: (r["peak_concurrency"], r["peak_ts_us"]) for r in out16}
    assert got == exp


def test_spend_gini_bucket_invariance_and_bruteforce(ray_session):
    """Gini's rank-offset carry is partition-count-free and matches the
    naive single-array formula."""
    import numpy as np
    import pandas as pd

    from image_report_ray.pipelines.relational import spend_gini

    sf = "/root/testdata/sf0.001"
    out2 = spend_gini(sf, P=2).to_pylist()
    out8 = spend_gini(sf, P=8).to_pylist()
    assert out2 == out8

    o = pd.read_parquet(f"{sf}/orders.parquet", columns=["o_custkey", "o_totalprice"])
    c = pd.read_parquet(f"{sf}/customer.parquet", columns=["c_custkey", "c_mktsegment"])
    o["cents"] = (o["o_totalprice"] * 100).round().astype("int64")
    tot = o.groupby("o_custkey")["cents"].sum().reset_index()
    j = tot.merge(c, left_on="o_custkey", right_on="c_custkey")
    for row in out8:
        g = np.sort(j[j["c_mktsegment"] == row["c_mktsegment"]]["cents"].to_numpy())
        n, T = len(g), int(g.sum())
        S = int(np.dot(np.arange(1, n + 1), g))
        assert row["n_customers"] == n and row["total_cents"] == T
        assert row["gini_micro"] == ((2 * S - (n + 1) * T) * 1_000_000) // (n * T)


def test_value_mad_derived_distance_histogram(ray_session):
    """The MAD closed from the value histogram (no second pass) equals
    the naive two-pass |v - median| order statistic."""
    import numpy as np
    import pandas as pd

    from image_report_ray.pipelines.relational import value_mad

    sf = "/root/testdata/sf0.001"
    out = value_mad(sf).to_pylist()
    ev = pd.read_parquet(f"{sf}/events.parquet", columns=["event_type", "value"])
    ev["v"] = (ev["value"] * 100).round().astype("int64")
    for row in out:
        v = np.sort(ev[ev["event_type"] == row["event_type"]]["v"].to_numpy())
        n = len(v)
        k = (50 * n + 99) // 100
        med = int(v[k - 1])
        d = np.sort(np.abs(v - med))
        assert row["n"] == n and row["median_cents"] == med
        assert row["mad_cents"] == int(d[k - 1])


def test_kcenter_sample_bruteforce(ray_session):
    """Farthest-first selection matches a naive single-process Gonzalez
    traversal with the same rounding/tie rules, and the max-min radius
    is non-increasing after the first genuine selection."""
    import numpy as np
    import pandas as pd

    from image_report_ray.pipelines.similarity import (
        _KC_K,
        _KM_DIST_ROUND,
        kcenter_sample,
    )

    sf = "/root/testdata/sf0.001"
    out = kcenter_sample(sf).to_pylist()
    assert len(out) == _KC_K
    assert [r["step"] for r in out] == list(range(1, _KC_K + 1))
    assert len({r["vec_id"] for r in out}) == _KC_K

    emb = pd.read_parquet(f"{sf}/embeddings.parquet")
    emb = emb.sort_values("vec_id").reset_index(drop=True)
    ids = emb["vec_id"].to_numpy()
    m = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    chosen = [int(ids[0])]
    expect = [(1, chosen[0], 0.0)]
    dmin = np.full(len(ids), np.inf)
    for s in range(2, _KC_K + 1):
        last = m[np.where(ids == chosen[-1])[0][0]]
        d = np.round(((m - last) ** 2).sum(axis=1), _KM_DIST_ROUND)
        dmin = np.minimum(dmin, d)
        mask = ~np.isin(ids, chosen)
        best = np.lexsort((ids[mask], -dmin[mask]))[0]
        vid = int(ids[mask][best])
        expect.append((s, vid, float(dmin[mask][best])))
        chosen.append(vid)
    assert [(r["step"], r["vec_id"], r["d2"]) for r in out] == expect
    radii = [r["d2"] for r in out[1:]]
    assert all(a >= b for a, b in zip(radii, radii[1:]))


def test_mmr_matches_naive_greedy(ray_session):
    """MMR selection equals a naive single-process greedy with the same
    rounding/tie rules, and step 1 is the plain top-1 relevance hit."""
    import numpy as np
    import pandas as pd

    from image_report_ray.pipelines.similarity import (
        _KM_DIST_ROUND,
        _MMR_K,
        _MMR_POOL,
        mmr_diversified_search,
    )

    sf = "/root/testdata/sf0.001"
    out = mmr_diversified_search(sf).to_pylist()
    assert [r["step"] for r in out] == list(range(1, _MMR_K + 1))
    assert len({r["vec_id"] for r in out}) == _MMR_K

    emb = pd.read_parquet(f"{sf}/embeddings.parquet").sort_values("vec_id")
    ids = emb["vec_id"].to_numpy()
    m = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    q = m[ids == 0][0]
    da = (m * m).sum(axis=1)
    keep = (ids != 0) & (da > 0)
    ids, m, da = ids[keep], m[keep], da[keep]
    rel = np.round((m @ q) / (np.sqrt(da) * np.sqrt(q @ q)), _KM_DIST_ROUND)
    order = np.lexsort((ids, -rel))[:_MMR_POOL]
    ids, m, rel = ids[order], m[order], rel[order]
    nr = np.sqrt((m * m).sum(axis=1))
    sims = np.round((m @ m.T) / np.outer(nr, nr), _KM_DIST_ROUND)
    sel = [int(np.lexsort((ids, -rel))[0])]
    expect = [int(ids[sel[0]])]
    smax = sims[:, sel[0]].copy()
    for _ in range(2, _MMR_K + 1):
        score = rel - smax
        score[sel] = -np.inf
        b = int(np.lexsort((ids, -score))[0])
        expect.append(int(ids[b]))
        sel.append(b)
        smax = np.maximum(smax, sims[:, b])
    assert [r["vec_id"] for r in out] == expect


def test_label_purity_bruteforce(ray_session):
    """Purity rows equal a pandas contingency over the engine's own
    kmeans assignment (majority label, ties to smallest label)."""
    import pandas as pd

    from image_report_ray.pipelines.similarity import kmeans_embed, label_purity

    sf = "/root/testdata/sf0.001"
    out = label_purity(sf).to_pylist()
    asn = kmeans_embed(sf).to_pandas()
    lab = pd.read_parquet(f"{sf}/embeddings.parquet", columns=["vec_id", "label"])
    j = asn.merge(lab, on="vec_id")
    assert len(out) == j["cluster_id"].nunique()
    for row in out:
        g = j[j["cluster_id"] == row["cluster_id"]]
        counts = (
            g.groupby("label").size().reset_index(name="n")
            .sort_values(["n", "label"], ascending=[False, True])
        )
        assert row["n_vectors"] == len(g)
        assert row["top_label"] == int(counts.iloc[0]["label"])
        assert row["purity_bp"] == 10_000 * int(counts.iloc[0]["n"]) // len(g)


def test_value_ewma_bruteforce(ray_session):
    """The dyadic decayed sum equals a naive per-row window recompute,
    and a lone day's ewma is exactly cents << LAG."""
    import pandas as pd

    from image_report_ray.pipelines.relational import _EWMA_LAG, value_ewma

    sf = "/root/testdata/sf0.001"
    out = value_ewma(sf).to_pandas()
    ev = pd.read_parquet(f"{sf}/events.parquet", columns=["event_type", "ts", "value"])
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    ev["cents"] = (ev["value"] * 100).round().astype("int64")
    d = ev.groupby(["event_type", "day"])["cents"].sum().reset_index()
    assert len(out) == len(d)
    by_type = {t: g.set_index("day")["cents"] for t, g in d.groupby("event_type")}
    for row in out.itertuples():
        s = by_type[row.event_type]
        exp = sum(
            int(s.get(row.day - lag, 0)) << (_EWMA_LAG - lag)
            for lag in range(_EWMA_LAG + 1)
        )
        assert row.cents == int(s[row.day]) and row.ewma_x == exp


def test_knn_label_match_bruteforce(ray_session):
    """Per-label 1-NN agreement equals a naive full-matrix recompute
    with the same (sim desc, vec_id asc) neighbor rule."""
    import numpy as np
    import pandas as pd

    from image_report_ray.pipelines.similarity import knn_label_match

    sf = "/root/testdata/sf0.001"
    out = {r["label"]: r for r in knn_label_match(sf).to_pylist()}
    emb = pd.read_parquet(f"{sf}/embeddings.parquet").sort_values("vec_id")
    ids = emb["vec_id"].to_numpy()
    lab = emb["label"].to_numpy()
    m = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    nm = np.linalg.norm(m, axis=1)
    nm[nm == 0] = 1.0
    mn = m / nm[:, None]
    probes = np.argsort(ids, kind="stable")[:64]
    agree = {}
    for p in probes:
        sims = mn @ mn[p]
        sims[p] = -np.inf
        best = np.lexsort((ids, -sims))[0]
        k = int(lab[p])
        n_ok, n_all = agree.get(k, (0, 0))
        agree[k] = (n_ok + int(lab[best] == lab[p]), n_all + 1)
    assert set(out) == {int(k) for k in agree}
    for k, (ok, n) in agree.items():
        r = out[int(k)]
        assert (r["n_probes"], r["n_matches"], r["acc_bp"]) == (
            n, ok, 10_000 * ok // n)


def test_embedding_pca_matches_eigh(ray_session):
    """The pinned power-iteration component is (a) unit-norm within the
    output rounding and (b) aligned with numpy's exact top eigenvector
    (|cos| > 0.999), with the majority component non-negative."""
    import numpy as np
    import pandas as pd

    from image_report_ray.pipelines.similarity import embedding_pca

    sf = "/root/testdata/sf0.001"
    out = embedding_pca(sf).to_pandas()
    v = out["loading"].to_numpy()
    assert list(out["i"]) == list(range(1, len(v) + 1))
    assert abs(np.linalg.norm(v) - 1.0) < 1e-4
    emb = pd.read_parquet(f"{sf}/embeddings.parquet")
    m = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    c = np.cov(m, rowvar=False, bias=True)
    w, vecs = np.linalg.eigh(c)
    top = vecs[:, -1]
    assert abs(float(v @ top)) > 0.99
    assert v[int(np.argmax(np.abs(v)))] >= 0


def test_rrf_hybrid_search_fusion(ray_session):
    """Fusion equals a naive recombination of the two leg queries with
    the exact integer reciprocal-rank weights."""
    from image_report_ray.pipelines.similarity import knn_cosine
    from image_report_ray.pipelines.text import bm25_search, rrf_hybrid_search

    sf = "/root/testdata/sf0.001"
    out = rrf_hybrid_search(sf).to_pylist()
    scores = {}
    for r, d in enumerate(bm25_search(sf).column("doc_id").to_pylist(), 1):
        scores[d] = scores.get(d, 0) + 1_000_000_000 // (60 + r)
    v = knn_cosine(sf, query_vec_id=0, k=20)
    for r, d in zip(v.column("rnk").to_pylist(), v.column("vec_id").to_pylist()):
        scores[d] = scores.get(d, 0) + 1_000_000_000 // (60 + r)
    exp = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert [(r["rnk"], r["doc_id"], r["rrf_micro"]) for r in out] == [
        (i + 1, d, s) for i, (d, s) in enumerate(exp)
    ]
    # a doc present in both legs must outrank its single-leg twin at
    # equal single-leg rank — sanity that fusion actually fuses
    assert all(out[i]["rrf_micro"] >= out[i + 1]["rrf_micro"]
               for i in range(len(out) - 1))


def test_rrf_hybrid_search_twin_when_legs_overlap(ray_session, tmp_path):
    """On a 30-document corpus (doc_id == vec_id) both 20-deep legs
    must share documents, so the cosine leg's ranks 11-20 reach the
    fused scores: the engine equals its SQL twin through DuckDB."""
    import duckdb

    import __ray_entry__ as e
    from image_report_ray.pipelines.text import rrf_hybrid_search

    rng = np.random.default_rng(5)
    n = 30
    vocab = [f"t{i}" for i in range(12)]
    texts = [" ".join(rng.choice(vocab, rng.integers(4, 12)))
             for _ in range(n)]
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * n),
        "source": pa.array(["s"] * n),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), tmp_path / "documents.parquet")
    mat = rng.standard_normal((n, 16))
    pq.write_table(pa.table({
        "vec_id": pa.array(np.arange(n), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in mat],
                              pa.list_(pa.float32())),
    }), tmp_path / "embeddings.parquet")

    got = rrf_hybrid_search(str(tmp_path))
    con = duckdb.connect()
    for name in ("documents", "embeddings"):
        con.execute(f"CREATE VIEW {name} AS SELECT * FROM read_parquet("
                    f"'{tmp_path}/{name}.parquet')")
    want = con.execute(e.oracle_sql()["rrf_hybrid_search"]).arrow()
    assert got.num_rows == 10
    assert got.to_pylist() == want.to_pylist()


def test_pii_census_bruteforce(ray_session):
    """Census equals a per-doc regex recount (re2-compatible patterns
    behave identically under Python re for these rules)."""
    import re

    import pandas as pd

    from image_report_ray.pipelines.text import _CONTENT_RULES, pii_census

    sf = "/root/testdata/sf0.001"
    out = {(r["source"], r["rule"]): r for r in pii_census(sf).to_pylist()}
    docs = pd.read_parquet(f"{sf}/documents.parquet", columns=["source", "text"])
    for rule, pat in _CONTENT_RULES:
        rx = re.compile(pat)
        for src, g in docs.groupby("source"):
            hits = g["text"].map(lambda s: len(rx.findall(s)))
            key = (src, rule)
            if key not in out:
                assert int(hits.sum()) == 0
                continue
            assert out[key]["n_docs"] == int((hits > 0).sum())
            assert out[key]["n_matches"] == int(hits.sum())


def test_event_stationary_properties(ray_session):
    """The stationary vector sums to ~1, is non-negative, and is a
    fixed point of the chain built naively from event_transitions."""
    import numpy as np

    from image_report_ray.pipelines.relational import (
        event_stationary,
        event_transitions,
    )

    sf = "/root/testdata/sf0.001"
    out = event_stationary(sf).to_pandas()
    pi = out["pi"].to_numpy()
    assert (pi >= 0).all() and abs(pi.sum() - 1.0) < 1e-3
    tr = event_transitions(sf).to_pandas()
    types = list(out["event_type"])
    k = len(types)
    idx = {t: i for i, t in enumerate(types)}
    P = np.zeros((k, k))
    for row in tr.itertuples():
        P[idx[row.from_type], idx[row.to_type]] += row.n
    rs = P.sum(axis=1)
    for i in range(k):
        P[i] = P[i] / rs[i] if rs[i] else np.eye(k)[i]
    assert np.abs(P.T @ pi - pi).max() < 1e-4


def test_dup_pair_sim_hist_consistency(ray_session):
    """Band histogram totals equal the gathered verified-pair count and
    match a naive banding of dedup_ngram_jaccard's jaccard column."""
    import numpy as np

    from image_report_ray.pipelines.dedup import (
        dedup_ngram_jaccard,
        dup_pair_sim_hist,
    )

    sf = "/root/testdata/sf0.001"
    hist = dup_pair_sim_hist(sf).to_pylist()
    pairs = dedup_ngram_jaccard(sf)
    assert sum(r["n_pairs"] for r in hist) == pairs.num_rows
    j = pairs.column("jaccard").to_numpy()
    band = (np.minimum(np.floor(j * 20.0), 19) * 500).astype(np.int64)
    b, c = np.unique(band, return_counts=True)
    assert [(r["band_bp"], r["n_pairs"]) for r in hist] == list(
        zip(b.tolist(), c.tolist()))


def test_event_trigrams_bruteforce(ray_session):
    """Top-20 triples equal a pandas shift-based recount under the
    same (n desc, a, b, c) order."""
    import pandas as pd

    from image_report_ray.pipelines.relational import event_trigrams

    sf = "/root/testdata/sf0.001"
    out = event_trigrams(sf).to_pylist()
    ev = pd.read_parquet(
        f"{sf}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    ).sort_values(["user_id", "ts", "event_id"])
    ev["b"] = ev.groupby("user_id")["event_type"].shift(-1)
    ev["c"] = ev.groupby("user_id")["event_type"].shift(-2)
    tri = ev.dropna(subset=["b", "c"])
    g = (tri.groupby(["event_type", "b", "c"]).size().reset_index(name="n")
         .sort_values(["n", "event_type", "b", "c"],
                      ascending=[False, True, True, True]).head(20))
    assert [(r["a"], r["b"], r["c"], r["n"]) for r in out] == [
        (t.event_type, t.b, t.c, t.n) for t in g.itertuples()
    ]


def test_source_tv_distance_bruteforce(ray_session):
    """TV distances equal a pandas recount with the exact integer
    cross-multiplication, and sit in [0, 1e6]."""
    import pandas as pd

    from image_report_ray.pipelines.text import source_tv_distance

    sf = "/root/testdata/sf0.001"
    out = source_tv_distance(sf).to_pylist()
    docs = pd.read_parquet(f"{sf}/documents.parquet", columns=["source", "text"])
    cnt = {}
    tot = {}
    for src, txt in zip(docs["source"], docs["text"]):
        for w in txt.split():
            cnt[(src, w)] = cnt.get((src, w), 0) + 1
            tot[src] = tot.get(src, 0) + 1
    srcs = sorted(tot)
    exp = []
    vocab = {w for _, w in cnt}
    for i, a in enumerate(srcs):
        for b in srcs[i + 1:]:
            s = sum(abs(cnt.get((a, w), 0) * tot[b] - cnt.get((b, w), 0) * tot[a])
                    for w in vocab)
            exp.append((a, b, (1_000_000 * s) // (2 * tot[a] * tot[b])))
    assert [(r["source_a"], r["source_b"], r["tv_micro"]) for r in out] == exp
    assert all(0 <= r["tv_micro"] <= 1_000_000 for r in out)


def test_discount_bands_bruteforce(ray_session):
    import pandas as pd

    from image_report_ray.pipelines.relational import discount_bands

    sf = "/root/testdata/sf0.001"
    out = discount_bands(sf).to_pylist()
    li = pd.read_parquet(
        f"{sf}/lineitem.parquet",
        columns=["l_extendedprice", "l_discount", "l_quantity"])
    li["d"] = (li["l_discount"] * 100).round().astype("int64")
    li["p"] = (li["l_extendedprice"] * 100).round().astype("int64")
    li["q"] = li["l_quantity"].round().astype("int64")
    for row in out:
        g = li[li["d"] == row["disc_pct"]]
        assert row["n_lines"] == len(g)
        assert row["gross_cents"] == int(g["p"].sum())
        assert row["net_cents"] == int((g["p"] * (100 - g["d"])).sum()) // 100
        assert row["avg_qty_micro"] == 1_000_000 * int(g["q"].sum()) // len(g)
    assert sum(r["n_lines"] for r in out) == len(li)


def test_ref_integrity_audit_clean_and_dirty(ray_session, tmp_path):
    """The standard corpus is referentially clean; a constructed dirty
    corpus yields the exact planted violation counts."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import shutil

    from image_report_ray.pipelines.relational import ref_integrity_audit

    sf = "/root/testdata/sf0.001"
    out = {r["check"]: r["n"] for r in ref_integrity_audit(sf).to_pylist()}
    assert set(out) == {"orphan_lineitems", "empty_orders", "orphan_orders"}
    assert out["orphan_lineitems"] == 0 and out["orphan_orders"] == 0

    d = tmp_path / "dirty"
    d.mkdir()
    for f in ("lineitem", "orders", "customer"):
        shutil.copy(f"{sf}/{f}.parquet", d / f"{f}.parquet")
    li = pq.read_table(f"{sf}/lineitem.parquet")
    extra = li.slice(0, 3).set_column(
        li.schema.get_field_index("l_orderkey"), "l_orderkey",
        pa.array([10**9, 10**9 + 1, 10**9 + 2], pa.int64()))
    pq.write_table(pa.concat_tables([li, extra]), d / "lineitem.parquet")
    dirty = {r["check"]: r["n"]
             for r in ref_integrity_audit(str(d)).to_pylist()}
    assert dirty["orphan_lineitems"] == out["orphan_lineitems"] + 3
    assert dirty["empty_orders"] == out["empty_orders"]


def test_cdc_role_bigrams_bruteforce(ray_session):
    """Role bigrams over the replayed lake equal a pandas LEAD recount
    over the same live snapshot (via cdc_flatten's source state)."""
    import pandas as pd

    from image_report_ray.pipelines.cdcq import (
        cdc_role_bigrams,
        cdc_conv_summary,
    )

    sf = "/root/testdata/sf0.001"
    out = cdc_role_bigrams(sf).to_pylist()
    # rebuild the same snapshot naively through the shared lake helper
    from image_report_ray.pipelines.cdcq import _full_lake
    import pyarrow as pa
    import pyarrow.parquet as pq
    from image_report_ray.state.merge import export_canonical, fold_state_tables

    tabs = []
    for _, paths in sorted(_full_lake(sf).current_file_sets().items()):
        folded = fold_state_tables([pq.read_table(p) for p in paths])
        if folded is not None:
            tabs.append(export_canonical(folded))
    st = pa.concat_tables(tabs).to_pandas().sort_values(["conv_id", "turn_idx"])
    st["to"] = st.groupby("conv_id")["role"].shift(-1)
    g = (st.dropna(subset=["to"]).groupby(["role", "to"]).size()
         .reset_index(name="n").sort_values(["role", "to"]))
    assert [(r["role_from"], r["role_to"], r["n"]) for r in out] == [
        (t.role, t.to, t.n) for t in g.itertuples()
    ]
    assert cdc_conv_summary(sf).num_rows > 0  # lake cache still healthy


def test_order_size_hist_bruteforce(ray_session):
    import pandas as pd

    from image_report_ray.pipelines.relational import order_size_hist

    sf = "/root/testdata/sf0.001"
    out = order_size_hist(sf).to_pylist()
    li = pd.read_parquet(f"{sf}/lineitem.parquet", columns=["l_orderkey"])
    od = pd.read_parquet(f"{sf}/orders.parquet", columns=["o_orderkey"])
    cnt = li.groupby("l_orderkey").size()
    sizes = od["o_orderkey"].map(cnt).fillna(0).astype(int)
    exp = sizes.value_counts().sort_index()
    assert [(r["n_lines"], r["n_orders"]) for r in out] == list(
        zip(exp.index.tolist(), exp.tolist()))
    assert sum(r["n_orders"] for r in out) == len(od)


def test_cdc_turn_len_quantiles_bruteforce(ray_session):
    """Per-role P50/P90 equal naive order statistics over the same
    snapshot with the ceil-rank rule."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from image_report_ray.pipelines.cdcq import (
        _full_lake,
        cdc_turn_len_quantiles,
    )
    from image_report_ray.state.merge import export_canonical, fold_state_tables

    sf = "/root/testdata/sf0.001"
    out = cdc_turn_len_quantiles(sf).to_pylist()
    tabs = []
    for _, paths in sorted(_full_lake(sf).current_file_sets().items()):
        folded = fold_state_tables([pq.read_table(p) for p in paths])
        if folded is not None:
            tabs.append(export_canonical(folded))
    st = pa.concat_tables(tabs).to_pandas()
    st["len"] = st["text"].str.encode("utf-8").str.len()
    for row in out:
        v = np.sort(st[st["role"] == row["role"]]["len"].to_numpy())
        n = len(v)
        assert row["n_turns"] == n
        assert row["p50_len"] == int(v[(n + 1) // 2 - 1])
        assert row["p90_len"] == int(v[(9 * n + 9) // 10 - 1])


def test_brand_return_rates_bruteforce(ray_session):
    import pandas as pd

    from image_report_ray.pipelines.relational import brand_return_rates

    sf = "/root/testdata/sf0.001"
    out = brand_return_rates(sf).to_pylist()
    li = pd.read_parquet(f"{sf}/lineitem.parquet",
                         columns=["l_partkey", "l_returnflag"])
    pt = pd.read_parquet(f"{sf}/part.parquet",
                         columns=["p_partkey", "p_brand"])
    j = li.merge(pt, left_on="l_partkey", right_on="p_partkey")
    for row in out:
        g = j[j["p_brand"] == row["p_brand"]]
        nr = int((g["l_returnflag"] == "R").sum())
        assert (row["n_lines"], row["n_returned"], row["return_bp"]) == (
            len(g), nr, 10_000 * nr // len(g))
    assert sum(r["n_lines"] for r in out) == len(j)


def test_dup_quality_matrix_consistency(ray_session):
    """The 2x2 census totals the corpus, its dup margin equals the
    distinct endpoints of the verified pair graph, and its quality
    margin equals quality_score's verdict counts."""
    import pyarrow.parquet as pq

    from image_report_ray.pipelines.dedup import (
        dedup_ngram_jaccard,
        dup_quality_matrix,
    )
    from image_report_ray.pipelines.text import quality_score

    sf = "/root/testdata/sf0.001"
    out = dup_quality_matrix(sf).to_pylist()
    n_docs = pq.ParquetFile(f"{sf}/documents.parquet").metadata.num_rows
    assert sum(r["n"] for r in out) == n_docs
    pairs = dedup_ngram_jaccard(sf)
    dups = set(pairs.column("doc_id_a").to_pylist()) | set(
        pairs.column("doc_id_b").to_pylist())
    assert sum(r["n"] for r in out if r["is_dup"]) == len(dups)
    q = quality_score(sf)
    n_ok = sum(1 for v in q.column("quality_ok").to_pylist() if v)
    assert sum(r["n"] for r in out if r["quality_ok"]) == n_ok


def test_token_fertility_bruteforce(ray_session):
    import re

    import pandas as pd

    from image_report_ray.pipelines.text import token_fertility

    sf = "/root/testdata/sf0.001"
    out = token_fertility(sf).to_pylist()
    docs = pd.read_parquet(f"{sf}/documents.parquet", columns=["lang", "text"])
    for row in out:
        g = docs[docs["lang"] == row["lang"]]["text"].str.lower()
        bpe = int(g.map(lambda s: len(re.findall(r"[a-z]+", s))
                        + len(re.findall(r"[0-9]+", s))
                        + len(re.findall(r"[^a-z0-9\s]", s))).sum())
        w = int(g.map(lambda s: len(s.split())).sum())
        assert (row["n_bpe_tokens"], row["n_words"]) == (bpe, w)
        assert row["fertility_bp"] == 10_000 * bpe // max(w, 1)


def test_trending_tokens_bruteforce(ray_session):
    import pandas as pd

    from image_report_ray.pipelines.text import trending_tokens

    sf = "/root/testdata/sf0.001"
    out = trending_tokens(sf).to_pylist()
    docs = pd.read_parquet(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    cutoff = (int(docs["doc_id"].max()) + 1) * 4 // 5
    ct, cr = {}, {}
    for did, txt in zip(docs["doc_id"], docs["text"]):
        rec = did >= cutoff
        for w in txt.lower().split():
            ct[w] = ct.get(w, 0) + 1
            if rec:
                cr[w] = cr.get(w, 0) + 1
    nt = sum(ct.values())
    nr = sum(cr.values())
    scored = sorted(
        ((10_000 * cr.get(w, 0) * nt) // (c * nr), w, c, cr.get(w, 0))
        for w, c in ct.items() if c >= 5
    )
    exp = [(w, c, r, b) for b, w, c, r in
           sorted(scored, key=lambda x: (-x[0], x[1]))[:20]]
    assert [(r["token"], r["n_total"], r["n_recent"], r["burst_bp"])
            for r in out] == exp


def test_trending_burst_exact_past_int64():
    """burst_bp closes in exact integers: 10^4 * cr * nt overflows int64
    here, and the kernel still equals the Python-int result."""
    from image_report_ray.pipelines.text import _burst_bp

    cr = np.array([3 * 10**9, 7, 2**40], np.int64)
    ct = np.array([4 * 10**9, 11, 2**41], np.int64)
    nr, nt = 10**10, 4 * 10**10
    assert 10_000 * int(cr[0]) * nt > 2**63
    want = [(10_000 * int(r) * nt) // (int(c) * nr) for r, c in zip(cr, ct)]
    assert _burst_bp(cr, ct, nr, nt).tolist() == want


def test_user_lifetime_hist_bruteforce(ray_session):
    import pandas as pd

    from image_report_ray.pipelines.relational import user_lifetime_hist

    sf = "/root/testdata/sf0.001"
    out = user_lifetime_hist(sf).to_pylist()
    ev = pd.read_parquet(f"{sf}/events.parquet", columns=["user_id", "ts"])
    ev["us"] = ev["ts"].astype("int64")
    g = ev.groupby("user_id")["us"].agg(["min", "max"])
    days = ((g["max"] - g["min"]) // 86_400_000_000).value_counts().sort_index()
    assert [(r["lifetime_days"], r["n_users"]) for r in out] == list(
        zip(days.index.tolist(), days.tolist()))
    assert sum(r["n_users"] for r in out) == ev["user_id"].nunique()


def test_cdc_reply_latency_bruteforce(ray_session):
    """Two-pass P50/P90 equal a naive sort over the same snapshot's
    user->assistant gaps with the ceil-rank rule."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from image_report_ray.pipelines.cdcq import _full_lake, cdc_reply_latency
    from image_report_ray.state.merge import export_canonical, fold_state_tables

    sf = "/root/testdata/sf0.001"
    out = cdc_reply_latency(sf).to_pylist()[0]
    gaps = []
    for _, paths in sorted(_full_lake(sf).current_file_sets().items()):
        folded = fold_state_tables([pq.read_table(p) for p in paths])
        if folded is None:
            continue
        t = export_canonical(folded)
        conv = t.column("conv_id").to_numpy(zero_copy_only=False)
        role = t.column("role").to_numpy(zero_copy_only=False)
        ts = t.column("ts").combine_chunks().to_numpy(
            zero_copy_only=False).astype("datetime64[us]").view(np.int64)
        m = (conv[1:] == conv[:-1]) & (role[:-1] == "user") \
            & (role[1:] == "assistant")
        gaps.extend((ts[1:][m] - ts[:-1][m]).tolist())
    ok = np.sort(np.array([g for g in gaps if g >= 0], np.int64))
    assert out["n_pairs"] == len(ok)
    assert out["n_negative"] == sum(1 for g in gaps if g < 0)
    n = len(ok)
    assert out["p50_us"] == int(ok[(50 * n + 99) // 100 - 1])
    assert out["p90_us"] == int(ok[(90 * n + 99) // 100 - 1])


def test_cdc_ingest_trend_bruteforce(ray_session):
    """Exact integer least squares equals numpy polyfit within the
    micro resolution, and the rational arithmetic reproduces exactly."""
    import numpy as np

    from image_report_ray.pipelines.cdcq import (
        cdc_epoch_text_growth,
        cdc_ingest_trend,
    )

    sf = "/root/testdata/sf0.001"
    out = cdc_ingest_trend(sf).to_pylist()[0]
    g = cdc_epoch_text_growth(sf)
    x = [int(v) for v in g.column("epoch").to_pylist()]
    y = [int(v) for v in g.column("bytes_in").to_pylist()]
    n, sx, sy = len(x), sum(x), sum(y)
    sxx = sum(v * v for v in x)
    sxy = sum(a * b for a, b in zip(x, y))
    den = n * sxx - sx * sx

    def micro(num, d):
        s = -1 if (num < 0) != (d < 0) else 1
        return s * ((1_000_000 * abs(num)) // abs(d))

    assert out["n_epochs"] == n
    if den == 0:  # single epoch: no trend, intercept = mean
        assert out["slope_micro"] == 0
        assert out["intercept_micro"] == 1_000_000 * sy // n
    else:
        assert out["slope_micro"] == micro(n * sxy - sx * sy, den)
        assert out["intercept_micro"] == micro(sy * sxx - sx * sxy, den)
        sl, ic = np.polyfit(np.array(x, float), np.array(y, float), 1)
        assert abs(out["slope_micro"] / 1e6 - sl) < max(1e-3, abs(sl) * 1e-6)
        assert abs(out["intercept_micro"] / 1e6 - ic) < max(
            1e-3, abs(ic) * 1e-6)
    # multi-epoch synthetic check of the exact rational close
    xs, ys = [0, 1, 2, 3], [10, 13, 15, 20]
    nn, sx2, sy2 = 4, 6, 58
    sxx2 = 14
    sxy2 = sum(a * b for a, b in zip(xs, ys))
    dd = nn * sxx2 - sx2 * sx2
    assert micro(nn * sxy2 - sx2 * sy2, dd) == 3_200_000  # slope 3.2


def test_ngram_pair_refs_cache_roundtrip(ray_session, tmp_path):
    """Cached pair refs are bit-identical to a fresh build, stats
    round-trip through the sidecar, and rewriting the corpus
    invalidates the entry (new content fingerprint)."""
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from image_report_ray import cache
    from image_report_ray.pipelines.dedup import (
        _ngram_jaccard_pair_refs_build,
        ngram_jaccard_pair_refs,
    )

    sf = str(tmp_path / "corpus")
    (tmp_path / "corpus").mkdir()
    src = "/root/testdata/sf0.001/documents.parquet"
    shutil.copy(src, f"{sf}/documents.parquet")

    fresh_refs, fresh_stats = _ngram_jaccard_pair_refs_build(sf)
    fresh = pa.concat_tables(
        [t for t in ray.get(fresh_refs) if t.num_rows])
    r1, s1 = ngram_jaccard_pair_refs(sf)   # builds + publishes
    tag1 = cache.entry("ngjac", sf, "documents.parquet", "tau=0.2:P=16")
    r2, s2 = ngram_jaccard_pair_refs(sf)   # served from the cache
    c2 = pa.concat_tables([t for t in ray.get(r2) if t.num_rows])
    assert s1 == fresh_stats and s2 == fresh_stats
    assert c2.equals(fresh)

    # content change -> different fingerprint -> rebuild
    t = pq.read_table(src)
    pq.write_table(t.slice(0, 100), f"{sf}/documents.parquet")
    tag2 = cache.entry("ngjac", sf, "documents.parquet", "tau=0.2:P=16")
    assert tag1 != tag2
    r3, _ = ngram_jaccard_pair_refs(sf)
    c3 = pa.concat_tables([t for t in ray.get(r3) if t.num_rows] or
                          [fresh.slice(0, 0)])
    assert c3.num_rows <= fresh.num_rows


def test_value_drift_tv_bruteforce(ray_session):
    import pandas as pd

    from image_report_ray.pipelines.relational import value_drift_tv

    sf = "/root/testdata/sf0.001"
    out = value_drift_tv(sf).to_pylist()
    ev = pd.read_parquet(f"{sf}/events.parquet",
                         columns=["event_type", "ts", "value"])
    day = ev["ts"].astype("int64") // 86_400_000_000
    mid = (int(day.min()) + int(day.max())) // 2
    ev["half"] = (day > mid).astype(int)
    ev["bucket"] = ((ev["value"] * 100).round().astype("int64").to_numpy()) >> 7
    for row in out:
        g = ev[ev["event_type"] == row["event_type"]]
        c1 = g[g["half"] == 0]["bucket"].value_counts()
        c2 = g[g["half"] == 1]["bucket"].value_counts()
        n1, n2 = int(c1.sum()), int(c2.sum())
        assert (row["n_first"], row["n_second"]) == (n1, n2)
        buckets = set(c1.index) | set(c2.index)
        s = sum(abs(int(c1.get(b, 0)) * n2 - int(c2.get(b, 0)) * n1)
                for b in buckets)
        assert row["tv_micro"] == (1_000_000 * s) // (2 * n1 * n2)
        assert 0 <= row["tv_micro"] <= 1_000_000


def test_minhash_calibration_sane_and_consistent(ray_session):
    """Calibration pairs equal the verified minhash pair set, the mean
    estimate per band sits inside the band's plausible range, and a
    naive signature recount reproduces the exact mean estimate."""
    import numpy as np
    import ray

    from image_report_ray.pipelines.dedup import (
        _minhash_base_refs,
        dedup_minhash_lsh,
        minhash_calibration,
    )

    sf = "/root/testdata/sf0.001"
    out = minhash_calibration(sf).to_pylist()
    pairs = dedup_minhash_lsh(sf)
    assert sum(r["n_pairs"] for r in out) == pairs.num_rows
    sig_by_id = {}
    for t in ray.get(_minhash_base_refs(sf)):
        for did, sg in zip(t.column("doc_id").to_pylist(),
                           t.column("sig").to_numpy(zero_copy_only=False)):
            sig_by_id[did] = np.asarray(sg)
    jac = pairs.column("jaccard").to_numpy()
    band = (np.minimum(np.floor(jac * 20.0), 19) * 500).astype(np.int64)
    da = pairs.column("doc_id_a").to_pylist()
    db = pairs.column("doc_id_b").to_pylist()
    m = np.array([(sig_by_id[a] == sig_by_id[b]).sum()
                  for a, b in zip(da, db)], np.int64)
    for row in out:
        sel = band == row["band_bp"]
        n = int(sel.sum())
        assert row["n_pairs"] == n
        assert row["mean_est_bp"] == (10_000 * int(m[sel].sum())) // (128 * n)
        assert 0 <= row["mean_est_bp"] <= 10_000


def test_cdc_cohort_churn_bruteforce(ray_session):
    import pandas as pd

    from image_report_ray.pipelines.cdcq import (
        cdc_cohort_churn,
        changelog_dataset,
    )

    sf = "/root/testdata/sf0.001"
    out = cdc_cohort_churn(sf).to_pylist()
    ch = changelog_dataset(sf).to_pandas()[["lsn", "conv_id"]]
    c = ch.groupby("conv_id").agg(first_lsn=("lsn", "min"),
                                  n_ops=("lsn", "size"))
    c["fe"] = c["first_lsn"] // 2500
    g = c.groupby("fe").agg(n_convs=("n_ops", "size"), n_ops=("n_ops", "sum"))
    assert [(r["first_epoch"], r["n_convs"], r["n_ops"],
             r["ops_per_conv_micro"]) for r in out] == [
        (int(fe), int(row.n_convs), int(row.n_ops),
         1_000_000 * int(row.n_ops) // int(row.n_convs))
        for fe, row in g.sort_index().iterrows()
    ]


def test_exit_rates_bruteforce(ray_session):
    import pandas as pd

    from image_report_ray.pipelines.relational import exit_rates

    sf = "/root/testdata/sf0.001"
    out = exit_rates(sf).to_pylist()
    ev = pd.read_parquet(
        f"{sf}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"]
    ).sort_values(["user_id", "ts", "event_id"])
    last = ev.groupby("user_id").tail(1)["event_type"].value_counts()
    total = ev["event_type"].value_counts()
    assert len(out) == len(total)
    for row in out:
        n = int(total[row["event_type"]])
        x = int(last.get(row["event_type"], 0))
        assert (row["n_events"], row["n_exits"]) == (n, x)
        assert row["exit_micro"] == 1_000_000 * x // n
    assert sum(r["n_exits"] for r in out) == ev["user_id"].nunique()


def test_repeat_share_monthly_bruteforce(ray_session):
    import pandas as pd

    from image_report_ray.pipelines.relational import repeat_share_monthly

    sf = "/root/testdata/sf0.001"
    out = repeat_share_monthly(sf).to_pylist()
    od = pd.read_parquet(
        f"{sf}/orders.parquet",
        columns=["o_custkey", "o_orderkey", "o_orderdate"]
    ).sort_values(["o_custkey", "o_orderdate", "o_orderkey"])
    od["repeat"] = od.groupby("o_custkey").cumcount() > 0
    od["month"] = (od["o_orderdate"].dt.year * 12
                   + od["o_orderdate"].dt.month - 1)
    g = od.groupby("month").agg(n=("repeat", "size"), r=("repeat", "sum"))
    assert [(r["month"], r["n_orders"], r["n_repeat"], r["repeat_bp"])
            for r in out] == [
        (int(m), int(row.n), int(row.r), 10_000 * int(row.r) // int(row.n))
        for m, row in g.sort_index().iterrows()
    ]
