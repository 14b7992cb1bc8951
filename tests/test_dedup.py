"""Near-dup operator tests: kernel-vs-naive equivalence (the reference's
randomized-equivalence discipline, /root/reference/tests/test_hashing_config.py:12-39)
plus end-to-end agreement between the LSH scale path and the exact query."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from image_report_ray.pipelines.dedup import (
    _MH_PERMS,
    doc_shingles,
    minhash_signatures,
    simhash64,
)

SF = "/root/testdata/sf0.001"


def _naive_shingles(text: str, n: int = 3) -> set[str]:
    ws = [w for w in text.lower().split() if w]
    return {" ".join(ws[i : i + n]) for i in range(len(ws) - n + 1)}


def test_doc_shingles_matches_naive():
    texts = [
        "a b c d e",
        "one two",            # < 3 tokens -> no shingles
        "x x x x",            # repeated shingle -> distinct once
        "p q r",
    ]
    batch = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts)})
    df = doc_shingles(batch)
    got = df.groupby("doc_id")["shingle"].apply(set).to_dict()
    for i, t in enumerate(texts):
        assert got.get(i, set()) == _naive_shingles(t), i


def test_doc_shingles_no_cross_doc_bleed():
    batch = pa.table(
        {"doc_id": pa.array([0, 1], pa.int64()),
         "text": pa.array(["a b", "c d e"])}
    )
    df = doc_shingles(batch)
    # no shingle may mix doc 0's and doc 1's tokens ("a b c" / "b c d")
    assert set(df.shingle) == {"c d e"}


def test_minhash_estimates_jaccard():
    # two docs with known shingle overlap; signature agreement ~ Jaccard
    base = [f"w{i}" for i in range(60)]
    a = " ".join(base)
    b = " ".join(base[:40] + [f"z{i}" for i in range(20)])
    sa = _naive_shingles(a)
    sb = _naive_shingles(b)
    true_j = len(sa & sb) / len(sa | sb)
    batch = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                      "text": pa.array([a, b])})
    sig = minhash_signatures(batch)
    m = np.stack(sig.column("sig").to_numpy(zero_copy_only=False))
    est = float((m[0] == m[1]).sum()) / _MH_PERMS
    assert abs(est - true_j) < 0.12, (est, true_j)


def _naive_hash64(s: str) -> int:
    """Independent pure-Python reference of the SQL-reproducible string
    hash: byte Horner base 1000003 mod 2^64, then splitmix64."""
    h = 0
    for byte in s.encode("utf-8"):
        h = (h * 1_000_003 + byte) % 2**64
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) % 2**64
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) % 2**64
    return h ^ (h >> 31)


def test_hash_utf8_64_matches_naive():
    from image_report_ray.pipelines.dedup import hash_utf8_64

    strs = ["", "a", "hello world", "x" * 100, "héllo", "你好", "a b c"]
    got = hash_utf8_64(np.array(strs, dtype=object))
    for s, g in zip(strs, got):
        assert int(g) == _naive_hash64(s), s
    # sliced arrow input hits the non-zero-offset buffer path
    got2 = hash_utf8_64(pa.array(["pad"] + strs).slice(1))
    assert (got2 == got).all()


def _naive_simhash(text: str) -> int:
    toks = [w for w in text.lower().split() if w]
    if not toks:
        return 0
    hs = np.array([_naive_hash64(t) for t in toks], dtype=np.uint64)
    acc = [0] * 64
    for h in hs:
        for b in range(64):
            acc[b] += 1 if (int(h) >> b) & 1 else -1
    out = 0
    for b in range(64):
        if acc[b] > 0:
            out |= 1 << b
    return out


def test_simhash_matches_naive():
    texts = ["alpha beta gamma delta", "alpha beta gamma epsilon", "", "solo"]
    batch = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts)})
    got = simhash64(batch)
    for i, t in enumerate(texts):
        assert int(got.column("simhash")[i].as_py()) == _naive_simhash(t), i


def test_minhash_lsh_agrees_with_exact(ray_session):
    from image_report_ray.pipelines.dedup import dedup_minhash_lsh, dedup_ngram_jaccard

    exact = dedup_ngram_jaccard(SF).to_pandas()
    exact5 = exact[exact.jaccard >= 0.5]
    lsh = dedup_minhash_lsh(SF, tau=0.5).to_pandas()
    assert set(zip(exact5.doc_id_a, exact5.doc_id_b)) == set(
        zip(lsh.doc_id_a, lsh.doc_id_b)
    )
    # verified pairs carry the exact intersection size
    merged = exact5.merge(lsh, on=["doc_id_a", "doc_id_b"], suffixes=("_e", "_l"))
    assert (merged.n_common_e == merged.n_common_l).all()


def test_simhash_pipeline_finds_near_dups(ray_session):
    from image_report_ray.pipelines.dedup import dedup_ngram_jaccard, dedup_simhash

    exact = dedup_ngram_jaccard(SF).to_pandas()
    high = exact[exact.jaccard >= 0.9]
    sh = dedup_simhash(SF).to_pandas()
    found = set(zip(sh.doc_id_a, sh.doc_id_b))
    hit = sum((a, b) in found for a, b in zip(high.doc_id_a, high.doc_id_b))
    # simhash at hamming<=3 must recover most >=0.9-Jaccard pairs
    assert len(high) == 0 or hit / len(high) >= 0.6, (hit, len(high))
    assert (sh.hamming <= 3).all()


def test_tokenize_strips_split_artifacts_vectorized():
    """Leading/trailing/multiple whitespace produces empty split tokens;
    they must vanish via the offsets-arithmetic path (no re-tokenize)."""
    from image_report_ray.pipelines.dedup import _tokenize

    col = pa.array(["  a b  ", "c", "", "  ", "d  e"])
    flat, off = _tokenize(col)
    assert list(flat) == ["a", "b", "c", "d", "e"]
    assert list(off) == [0, 2, 3, 3, 3, 5]


def test_pair_counts_hot_key_cap_counts_drops(ray_session):
    """A key above max_key_freq contributes NO pairs, and the drop is
    counted (no-silent-caps rule)."""
    import ray

    from image_report_ray.pipelines.dedup import pair_counts

    # key 7 is hot (5 postings -> would contribute C(5,2)=10 pairs);
    # key 8 is cool (2 postings -> 1 pair)
    t = pa.table(
        {
            "k": pa.array([7] * 5 + [8] * 2, pa.int64()),
            "doc_id": pa.array([0, 1, 2, 3, 4, 1, 2], pa.int64()),
        }
    )
    ref = ray.put(t)
    full, st0 = pair_counts([ref], "k", "doc_id", P=4)
    # 10 distinct pairs from key 7, pair (1,2) shared with key 8 (count 2)
    assert full.num_rows == 10
    assert st0 == {"dropped_keys": 0, "dropped_postings": 0}
    capped, st = pair_counts([ref], "k", "doc_id", P=4, max_key_freq=3)
    assert capped.num_rows == 1
    assert capped.column("pair").to_pylist() == [(1 << 32) | 2]
    assert st == {"dropped_keys": 1, "dropped_postings": 5}


def test_pair_counts_tree_reduce_matches_naive(ray_session):
    """Random index: distributed tree-reduced counts == naive pandas."""
    import itertools

    import ray

    from image_report_ray.pipelines.dedup import pair_counts

    rng = np.random.default_rng(11)
    keys = rng.integers(0, 40, size=600)
    ids = rng.integers(0, 25, size=600)
    df = pd.DataFrame({"k": keys, "d": ids}).drop_duplicates()
    naive: dict[tuple[int, int], int] = {}
    for _, g in df.groupby("k"):
        for a, b in itertools.combinations(sorted(g.d), 2):
            naive[(a, b)] = naive.get((a, b), 0) + 1
    t = pa.table({"k": pa.array(df.k.to_numpy(), pa.int64()),
                  "doc_id": pa.array(df.d.to_numpy(), pa.int64())})
    # several blocks so the tree has real fan-in
    refs = [ray.put(t.slice(i, 100)) for i in range(0, 600, 100)]
    got, _ = pair_counts(refs, "k", "doc_id", P=5)
    gp = {
        (int(p) >> 32, int(p) & 0xFFFFFFFF): int(n)
        for p, n in zip(got.column("pair").to_pylist(),
                        got.column("n_common").to_pylist())
    }
    assert gp == naive


def test_pair_counts_rejects_unpackable_ids(ray_session):
    import ray

    from image_report_ray.pipelines.dedup import pair_counts

    t = pa.table({"k": pa.array([1, 1], pa.int64()),
                  "doc_id": pa.array([1, 1 << 31], pa.int64())})
    with pytest.raises(ray.exceptions.RayTaskError, match="bit-packable"):
        pair_counts([ray.put(t)], "k", "doc_id", P=2)


def test_pair_counts_single_partition_floor(ray_session):
    import ray

    from image_report_ray.pipelines.dedup import pair_counts

    t = pa.table({"k": pa.array([1, 1, 2], pa.int64()),
                  "doc_id": pa.array([3, 4, 3], pa.int64())})
    got, _ = pair_counts([ray.put(t)], "k", "doc_id", P=1)
    assert got.column("pair").to_pylist() == [(3 << 32) | 4]


def test_verify_candidates_partition_local(ray_session):
    """_verify_candidates computes exact Jaccard for exactly the given
    candidate pairs through the exchange — including a candidate pair
    with zero overlap — touching only candidate docs' sets."""
    import ray

    from image_report_ray.pipelines.dedup import (
        _hash_shingles,
        _verify_candidates,
        doc_shingles,
    )

    texts = {
        0: "a b c d e f",
        1: "a b c d x y",   # J(0,1) = 4 shingles? compute below
        2: "p q r s t u",   # no overlap with 0
        3: "m n o m n o",   # not a candidate: must not appear
    }
    rows = sorted(texts)
    batch = pa.table({"doc_id": pa.array(rows, pa.int64()),
                      "text": pa.array([texts[i] for i in rows])})
    df = doc_shingles(batch)
    h = _hash_shingles(df["shingle"].to_numpy())
    doc_of = df["doc_id"].to_numpy()
    starts = np.flatnonzero(np.r_[True, doc_of[1:] != doc_of[:-1]])
    ends = np.r_[starts[1:], len(doc_of)]
    base = pa.table(
        {
            "doc_id": pa.array(doc_of[starts], pa.int64()),
            "sig": pa.array([[0]] * len(starts), pa.list_(pa.uint64())),
            "hs": pa.array([np.sort(h[s:e]) for s, e in zip(starts, ends)],
                            pa.list_(pa.uint64())),
        }
    )
    refs = [ray.put(base.slice(0, 2)), ray.put(base.slice(2))]
    cands = pa.table({"pair": pa.array([(0 << 32) | 1, (0 << 32) | 2], pa.int64()),
                      "n_common": pa.array([1, 1], pa.int64())})
    out = _verify_candidates(refs, cands, tau=0.0)
    got = {
        (a, b): (n, j)
        for a, b, n, j in zip(
            out.column("doc_id_a").to_pylist(), out.column("doc_id_b").to_pylist(),
            out.column("n_common").to_pylist(), out.column("jaccard").to_pylist())
    }
    sh = {i: _naive_shingles(t) for i, t in texts.items()}
    exp01 = len(sh[0] & sh[1]) / len(sh[0] | sh[1])
    assert got[(0, 1)][0] == len(sh[0] & sh[1])
    assert abs(got[(0, 1)][1] - exp01) < 1e-6
    assert got[(0, 2)] == (0, 0.0)       # zero-overlap candidate surfaces
    assert set(got) == {(0, 1), (0, 2)}  # doc 3 untouched


def test_hamming_pairs_exchange_matches_naive(ray_session):
    """hamming_pairs verifies candidates INSIDE partitions (postings carry
    the 64-bit hash) and its union equals a naive all-pairs popcount over
    the bucketed candidates — no driver-side hash map anywhere."""
    import itertools

    import ray

    from image_report_ray.pipelines.dedup import _SH_CHUNKS, hamming_pairs

    rng = np.random.default_rng(5)
    n = 80
    hashes = rng.integers(0, 1 << 63, size=n, dtype=np.int64).astype(np.uint64)
    # plant near-dups: doc i+1 = doc i with 2 bits flipped, for a few i
    for i in (3, 17, 40):
        hashes[i + 1] = hashes[i] ^ np.uint64(0b101)
    ids = np.arange(n, dtype=np.int64)
    keys, docs, vals = [], [], []
    for ci in range(_SH_CHUNKS):
        chunk = (hashes >> np.uint64(16 * ci)) & np.uint64(0xFFFF)
        keys.append(chunk.astype(np.int64) * _SH_CHUNKS + ci)
        docs.append(ids)
        vals.append(hashes)
    t = pa.table({"k": pa.array(np.concatenate(keys), pa.int64()),
                  "doc_id": pa.array(np.concatenate(docs), pa.int64()),
                  "h": pa.array(np.concatenate(vals), pa.uint64())})
    refs = [ray.put(t.slice(i, 100)) for i in range(0, t.num_rows, 100)]
    got, st = hamming_pairs(refs, "k", "doc_id", "h", max_hamming=3, P=5)
    assert st == {"dropped_keys": 0, "dropped_postings": 0}

    # naive: candidates = pairs sharing >= 1 chunk; keep popcount <= 3
    naive = {}
    for a, b in itertools.combinations(range(n), 2):
        shares = any(
            ((hashes[a] >> np.uint64(16 * c)) & np.uint64(0xFFFF))
            == ((hashes[b] >> np.uint64(16 * c)) & np.uint64(0xFFFF))
            for c in range(_SH_CHUNKS)
        )
        d = bin(int(hashes[a] ^ hashes[b])).count("1")
        if shares and d <= 3:
            naive[(a, b)] = d
    gp = {
        (int(p) >> 32, int(p) & 0xFFFFFFFF): int(h)
        for p, h in zip(got.column("pair").to_pylist(),
                        got.column("hamming").to_pylist())
    }
    assert gp == naive
    assert {(3, 4), (17, 18), (40, 41)} <= set(gp)


def test_hamming_pairs_hot_key_cap(ray_session):
    import ray

    from image_report_ray.pipelines.dedup import hamming_pairs

    # one hot bucket with 5 identical hashes, one cool with 2
    t = pa.table({"k": pa.array([7] * 5 + [8] * 2, pa.int64()),
                  "doc_id": pa.array([0, 1, 2, 3, 4, 5, 6], pa.int64()),
                  "h": pa.array([np.uint64(9)] * 7, pa.uint64())})
    capped, st = hamming_pairs(
        [ray.put(t)], "k", "doc_id", "h", max_hamming=0, P=3, max_key_freq=3
    )
    assert capped.column("pair").to_pylist() == [(5 << 32) | 6]
    assert st == {"dropped_keys": 1, "dropped_postings": 5}


def test_dedup_clusters_transitive_closure(ray_session, tmp_path):
    """A~B and B~C (but A!~C) must land in ONE cluster labeled min-id —
    pairs alone under-delete; the closure is the point of the operator."""
    import os

    import pyarrow.parquet as pq

    from image_report_ray.pipelines.dedup import dedup_clusters, dedup_ngram_jaccard

    w = [f"w{i}" for i in range(40)]
    docs = [
        " ".join(w[0:20]),    # 0: pairs with 1 only
        " ".join(w[5:25]),    # 1: pairs with 0 and 2
        " ".join(w[15:35]),   # 2: pairs with 1 only
        " ".join(f"z{i}" for i in range(20)),  # 3: singleton
    ]
    t = pa.table({"doc_id": pa.array(range(4), pa.int64()),
                  "text": pa.array(docs)})
    pq.write_table(t, os.path.join(str(tmp_path), "documents.parquet"))

    pairs = dedup_ngram_jaccard(str(tmp_path))
    got_pairs = set(zip(pairs.column("doc_id_a").to_pylist(),
                        pairs.column("doc_id_b").to_pylist()))
    assert got_pairs == {(0, 1), (1, 2)}  # the transitive shape, no (0,2)

    c = dedup_clusters(str(tmp_path)).to_pandas()
    assert list(c.doc_id) == [0, 1, 2, 3]
    assert list(c.cluster_id) == [0, 0, 0, 3]
    assert list(c.keep) == [True, False, False, True]
    # gated path (labels through the exchange) must match exactly
    g = dedup_clusters(str(tmp_path), max_broadcast_ids=0).to_pandas()
    assert g.equals(c)


def test_embedding_dup_clusters_transitive(ray_session):
    """Embedding keep-list: labels are component minima of the exact
    near-dup pair graph — every pair's two vectors share a cluster, the
    cluster id is the component min, keeps are exactly the minima."""
    from image_report_ray.pipelines.similarity import (
        embedding_dup_clusters,
        embedding_near_dups,
    )

    pairs = embedding_near_dups(SF, 0.4).to_pandas()
    c = embedding_dup_clusters(SF).to_pandas().set_index("vec_id")
    for a, b in zip(pairs.vec_id_a, pairs.vec_id_b):
        assert c.cluster_id[a] == c.cluster_id[b], (a, b)
    assert (c.keep == (c.cluster_id == c.index)).all()
    # every cluster id is its own member's minimum
    grp = c.groupby("cluster_id").apply(lambda g: g.index.min())
    assert (grp.index == grp.values).all()


def test_connected_components_random_graphs_vs_union_find(ray_session):
    """Distributed min-label propagation == naive union-find on seeded
    random graphs (various densities, incl. singletons-only and one big
    component)."""
    from image_report_ray.pipelines.dedup import connected_components

    def naive(a, b, nodes):
        parent = {n: n for n in nodes}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for x, y in zip(a, b):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
        # fully compress, then label = component min (find goes to min
        # because unions always point larger roots at smaller ones)
        return {n: find(n) for n in nodes}

    rng = np.random.default_rng(29)
    for n_nodes, n_edges in [(30, 10), (50, 80), (200, 40), (8, 28)]:
        a = rng.integers(0, n_nodes, size=n_edges).astype(np.int64)
        b = rng.integers(0, n_nodes, size=n_edges).astype(np.int64)
        keep = a != b
        a, b = a[keep], b[keep]
        got = connected_components(a, b)
        gm = dict(zip(got.column("node").to_pylist(),
                      got.column("label").to_pylist()))
        nodes = sorted(set(a) | set(b))
        expect = naive(a, b, nodes)
        assert gm == {int(k): int(v) for k, v in expect.items()}, (n_nodes, n_edges)


def test_embedding_dup_clusters_gated_path(ray_session):
    from image_report_ray.pipelines.similarity import embedding_dup_clusters

    small = embedding_dup_clusters(SF)
    gated = embedding_dup_clusters(SF, max_broadcast_ids=0)
    assert small.equals(gated)


def test_decontaminate_naive_and_gated_path(ray_session, tmp_path):
    """Both routes (broadcast set / keyed-exchange membership) must equal
    a naive per-doc set-intersection replay on a hand-built corpus."""
    import pyarrow.parquet as pq

    from image_report_ray.pipelines.dedup import (
        _DECON_MOD,
        _DECON_REM,
        decontaminate,
    )

    texts = {
        _DECON_REM: "alpha beta gamma delta epsilon",          # eval doc
        _DECON_REM + _DECON_MOD: "zeta eta theta iota",        # eval doc
        0: "alpha beta gamma something else entirely",         # partial hit
        1: "zeta eta theta iota",                              # full hit
        2: "no overlap with anything here at all",             # clean
        3: "tiny doc",                                         # < 3 tokens
    }
    sf = tmp_path / "sf"
    sf.mkdir()
    ids = sorted(texts)
    pq.write_table(
        pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array([texts[i] for i in ids])}),
        sf / "documents.parquet",
    )

    eval_sh = set().union(
        *(_naive_shingles(texts[i]) for i in texts
          if i % _DECON_MOD == _DECON_REM)
    )
    expect = {}
    for i, t in texts.items():
        if i % _DECON_MOD == _DECON_REM:
            continue
        sh = _naive_shingles(t)
        expect[i] = (len(sh), len(sh & eval_sh))

    for gate in (None, 0):  # broadcast route, then forced exchange route
        kw = {} if gate is None else {"max_broadcast_shingles": gate}
        out = decontaminate(str(sf), **kw)
        got = {
            r["doc_id"]: (r["n_shingles"], r["n_contaminated"])
            for r in out.to_pylist()
        }
        assert got == expect, gate
        for r in out.to_pylist():
            n_sh, n_hit = expect[r["doc_id"]]
            assert r["contaminated"] == (n_hit > 0)
            assert r["contam_bp"] == n_hit * 10000 // max(n_sh, 1)


def test_decontaminate_paths_agree_on_corpus(ray_session):
    from image_report_ray.pipelines.dedup import decontaminate

    a = decontaminate(SF)
    b = decontaminate(SF, max_broadcast_shingles=0)
    assert a.equals(b)
    assert a.num_rows > 0

def test_connected_components_refs_matches_array_form(ray_session):
    """Feeding the pair graph as partition refs (the scale path — no
    driver edge array) produces the same labels as the array form."""
    import ray

    from image_report_ray.pipelines.dedup import (
        connected_components,
        connected_components_refs,
    )
    from image_report_ray.pipelines.exchange import gather_concat

    rng = np.random.default_rng(41)
    a = rng.integers(0, 100, size=60).astype(np.int64)
    b = rng.integers(0, 100, size=60).astype(np.int64)
    keep = a != b
    a, b = a[keep], b[keep]
    want = connected_components(a, b).to_pandas().sort_values("node")

    # pairs sharded into several refs, mimicking a verify exchange output
    refs = [
        ray.put(pa.table({"doc_id_a": pa.array(a[i::3], pa.int64()),
                          "doc_id_b": pa.array(b[i::3], pa.int64())}))
        for i in range(3)
    ]
    got = (
        gather_concat(connected_components_refs(refs))
        .to_pandas()
        .sort_values("node")
    )
    assert got.reset_index(drop=True).equals(want.reset_index(drop=True))


def test_connected_components_refs_empty_graph(ray_session):
    from image_report_ray.pipelines.dedup import connected_components_refs
    from image_report_ray.pipelines.exchange import gather_concat

    t = gather_concat(connected_components_refs([]))
    assert t.num_rows == 0


def test_pair_count_refs_matches_gathered_pair_counts(ray_session):
    """The refs-native pair exchange returns the same (pair, n_common)
    multiset as the tree-folded pair_counts, with every pair in exactly
    ONE partition ref (globally summed)."""
    import ray

    from image_report_ray.pipelines.dedup import pair_count_refs, pair_counts

    rng = np.random.default_rng(53)
    # inverted index: 400 postings over 40 keys / 30 ids, sharded 3 ways
    keys = rng.integers(0, 40, 400)
    ids = rng.integers(0, 30, 400)
    blocks = [
        ray.put(pa.table({"k": pa.array(keys[i::3], pa.int64()),
                          "d": pa.array(ids[i::3], pa.int64())}))
        for i in range(3)
    ]
    gathered, _ = pair_counts(blocks, "k", "d")
    refs, stats = pair_count_refs(blocks, "k", "d")
    parts = [t for t in ray.get(refs) if t.num_rows]
    per_ref = [
        set(zip(t.column("doc_id_a").to_pylist(),
                t.column("doc_id_b").to_pylist()))
        for t in parts
    ]
    # disjoint across refs
    seen = set()
    for s in per_ref:
        assert not (seen & s)
        seen |= s
    got = {}
    for t in parts:
        for a, b, n in zip(t.column("doc_id_a").to_pylist(),
                           t.column("doc_id_b").to_pylist(),
                           t.column("n_common").to_pylist()):
            got[(a, b)] = n
    want = {}
    for p, n in zip(gathered.column("pair").to_pylist(),
                    gathered.column("n_common").to_pylist()):
        want[(p >> 32, p & 0xFFFFFFFF)] = n
    assert got == want
    assert stats == {"dropped_keys": 0, "dropped_postings": 0}


def test_semdedup_semantics(ray_session):
    """SemDeDup = near-dup components RESTRICTED to same-kmeans-cluster
    pairs: every dropped vector has a same-cluster near-dup with a
    smaller label, and near-dup pairs that straddle clusters do NOT
    cause drops by themselves."""
    from image_report_ray.pipelines.similarity import (
        embedding_near_dups,
        kmeans_embed,
        semdedup,
    )

    t = semdedup(SF, tau=0.4)
    assign = dict(zip(
        *[kmeans_embed(SF).column(c).to_pylist() for c in ("vec_id", "cluster_id")]
    ))
    pairs = embedding_near_dups(SF, 0.4)
    same = [
        (a, b)
        for a, b in zip(pairs.column("vec_id_a").to_pylist(),
                        pairs.column("vec_id_b").to_pylist())
        if assign[a] == assign[b]
    ]
    import numpy as _np

    # union-find over same-cluster pairs = the expected keep-list
    parent = {v: v for v in assign}
    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x
    for a, b in same:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    expect_keep = {v: find(v) == v for v in assign}
    got = {r["vec_id"]: r["keep"] for r in t.to_pylist()}
    assert got == expect_keep
    # clusters reported match the kmeans assignment
    for r in t.to_pylist():
        assert r["cluster_id"] == assign[r["vec_id"]]
    # non-trivial on this corpus
    assert sum(1 for k in got.values() if not k) > 0


def test_similarity_subresult_cache_roundtrip(ray_session, tmp_path):
    """The /tmp sub-result cache (kmeans assignment + verified pairs)
    round-trips bit-exactly: a cold build, a warm cache read, and a
    content-invalidated rebuild all produce identical query results."""
    import shutil

    import pyarrow.parquet as pq

    from image_report_ray import cache
    from image_report_ray.pipelines import similarity as sim

    src = "/root/testdata/sf0.001/embeddings.parquet"
    sf = tmp_path / "sf"
    sf.mkdir()
    shutil.copy(src, sf / "embeddings.parquet")

    cold = sim.kmeans_embed(str(sf))
    tag1 = cache.entry("kmeans", str(sf), "embeddings.parquet", "probe")
    warm = sim.kmeans_embed(str(sf))
    assert cold.equals(warm)

    pairs_cold = sim.embedding_near_dups(str(sf), 0.4)
    pairs_warm = sim.embedding_near_dups(str(sf), 0.4)
    assert pairs_cold.equals(pairs_warm) and pairs_cold.num_rows > 0

    # touching the corpus changes the fingerprint -> rebuild, not reuse
    t = pq.read_table(sf / "embeddings.parquet")
    pq.write_table(t, sf / "embeddings.parquet")
    assert cache.entry("kmeans", str(sf), "embeddings.parquet", "probe") != tag1
    assert sim.kmeans_embed(str(sf)).equals(cold)  # same content, same answer


def test_semdedup_gated_route_equals_broadcast(ray_session):
    """Forcing the above-gate route (assignment refs co-partitioned with
    pair refs through three vec_id-keyed exchanges — the 100-TB path)
    must reproduce the broadcast route bit-for-bit."""
    from image_report_ray.pipelines.similarity import semdedup

    broadcast = semdedup(SF, tau=0.4)
    gated = semdedup(SF, tau=0.4, max_broadcast_ids=0)
    assert broadcast.equals(gated)
    assert broadcast.num_rows > 0
