"""Round-3 session-6 brute-force tests: delete_by_query, explain,
rescore, duplicate n-grams, mix weights, cosine range search,
embedding dim stats, and the Q6 / running-total / weighted-avg
relational operators."""
import os
import re
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from onestools_eventlog_ray.config import EngineConfig
from onestools_eventlog_ray.pipelines.build import build_index
from onestools_eventlog_ray.pipelines.query import (SearchEngine,
                                                    delete_by_query,
                                                    explain_score,
                                                    search_rescore)

SF_DIR = "/root/testdata/sf0.001"
CFG = EngineConfig(num_partitions=8)


def _tok(text):
    return [t for t in re.split(r"[^a-z0-9_]+", text.lower()) if t]


@pytest.fixture(scope="module")
def docs_tbl():
    return pq.read_table(os.path.join(SF_DIR, "documents.parquet"))


@pytest.fixture(scope="module")
def g_index(tmp_path_factory, small_corpus_dir):
    index_dir = str(tmp_path_factory.mktemp("g_index"))
    build_index(small_corpus_dir, index_dir, cfg=CFG)
    return index_dir


def test_delete_by_query(g_index, small_corpus):
    eng = SearchEngine(g_index)
    before = eng.search(["def", "import"], 1_000_000)
    assert before
    # docs containing 'class' (per the same engine's postings)
    victims = {d for d, _ in eng.search(["class"], 1_000_000)}
    assert victims
    n = delete_by_query(g_index, ["class"])
    assert n == len(victims)
    eng2 = SearchEngine(g_index)
    after = eng2.search(["def", "import"], 1_000_000)
    exp = [(d, s) for d, s in before if d not in victims]
    assert after == exp                      # scores unchanged, soft delete
    # idempotent: everything matching is already tombstoned
    assert delete_by_query(g_index, ["class"]) == 0


def test_explain_matches_search(g_index):
    eng = SearchEngine(g_index)
    terms = ["def", "import", "class"]
    hits = eng.search(terms, 5)
    for doc, score in hits:
        tbl = explain_score(eng, terms, doc)
        assert tbl.num_rows >= 1
        # exact contribution identity: per-term contribs sum to the score
        contribs = []
        for t in sorted(set(terms)):
            hit = eng.load_terms([t]).get(t)
            if hit is None:
                continue
            from onestools_eventlog_ray.functions import codec
            from onestools_eventlog_ray.functions.bm25 import idf
            post = codec.decode_posting(hit[1])
            i = int(np.searchsorted(post.doc_ids, doc))
            if i < post.doc_ids.size and post.doc_ids[i] == doc:
                contribs.append(idf(eng.N, hit[0]) * codec.bm25_impact(
                    post.tfs[i:i + 1], post.dls[i:i + 1], eng.avgdl,
                    eng.k1, eng.b)[0])
        assert score == pytest.approx(sum(contribs), rel=1e-12)
        got_e6 = tbl["contrib_e6"].to_pylist()
        exp_e6 = [int(np.floor(c * 1e6 + 0.5)) for c in contribs]
        assert got_e6 == exp_e6
        assert tbl["term"].to_pylist() == sorted(tbl["term"].to_pylist())


def test_rescore_bruteforce(g_index):
    eng = SearchEngine(g_index)
    terms, rterms, window = ["def", "import"], ["class"], 20
    got = search_rescore(eng, terms, rterms, window=window,
                         query_weight=1.0, rescore_weight=2.0, k=10)
    initial = eng.search(terms, k=window)
    second = dict(eng.search(rterms, k=1 << 62))
    comb = [(d, s + 2.0 * second.get(d, 0.0)) for d, s in initial]
    comb.sort(key=lambda x: (-x[1], x[0]))
    assert got == comb[:10]
    # docs outside the window never appear, even if the rescore term
    # alone would rank them
    win_ids = {d for d, _ in initial}
    assert all(d in win_ids for d, _ in got)


def test_duplicate_ngrams_bruteforce(docs_tbl):
    import ray.data
    from onestools_eventlog_ray.pipelines.dedup import duplicate_ngrams
    k = 8
    out = duplicate_ngrams(ray.data.from_arrow(docs_tbl), k=k, top=10)
    occ, docs = Counter(), Counter()
    for d, t in zip(docs_tbl["doc_id"].to_pylist(),
                    docs_tbl["text"].to_pylist()):
        toks = _tok(t)
        if not toks:
            continue
        grams = [" ".join(toks[i:i + k])
                 for i in range(len(toks) - k + 1)] \
            if len(toks) >= k else [" ".join(toks)]
        occ.update(grams)
        docs.update(set(grams))
    cand = [(g, docs[g], occ[g]) for g in occ if docs[g] >= 2]
    cand.sort(key=lambda x: (-x[1], -x[2], x[0]))
    exp = cand[:10]
    got = list(zip(out["gram"].to_pylist(), out["n_docs"].to_pylist(),
                   out["n_occ"].to_pylist()))
    assert got == exp
    assert out["rank"].to_pylist() == list(range(1, len(exp) + 1))


def test_mix_weights_bruteforce(docs_tbl):
    import ray.data
    from onestools_eventlog_ray.pipelines.mix import mix_weights
    out = mix_weights(ray.data.from_arrow(docs_tbl), by="source")
    nt, nd = Counter(), Counter()
    for s, t in zip(docs_tbl["source"].to_pylist(),
                    docs_tbl["text"].to_pylist()):
        nt[s] += len(_tok(t))
        nd[s] += 1
    total, ng = sum(nt.values()), len(nt)
    rows = {r["source"]: r for r in out.to_pylist()}
    assert set(rows) == set(nt)
    for s in nt:
        r = rows[s]
        assert (r["n_docs"], r["n_tokens"]) == (nd[s], nt[s])
        assert r["share_e6"] == nt[s] * 10**6 // total
        assert r["weight_e6"] == (total * 10**6 // (ng * nt[s])
                                  if nt[s] else 0)
    assert out["source"].to_pylist() == sorted(nt)


@pytest.fixture(scope="module")
def emb_tbl():
    return pq.read_table(os.path.join(SF_DIR, "embeddings.parquet"))


def test_cosine_range_bruteforce(emb_tbl):
    import ray.data
    from onestools_eventlog_ray.pipelines.similarity import (
        cosine_range_search)
    ids = emb_tbl["vec_id"].to_pylist()
    m = np.asarray(emb_tbl["embedding"].to_pylist(), dtype=np.float64)
    q = m[ids.index(0)]
    out = cosine_range_search(ray.data.from_arrow(emb_tbl), q, 150_000,
                              exclude_ids={0}).take_all()
    got = {(r["vec_id"], r["cos_e6"]) for r in out}
    qn = q / np.linalg.norm(q)
    norms = np.linalg.norm(m, axis=1)
    norms[norms == 0] = 1.0
    cos = (m / norms[:, None]) @ qn
    e6 = np.floor(cos * 1e6 + 0.5).astype(np.int64)
    exp = {(i, int(e)) for i, e in zip(ids, e6)
           if e >= 150_000 and i != 0}
    assert got == exp


def test_embedding_dim_stats_bruteforce(emb_tbl):
    import ray.data
    from onestools_eventlog_ray.pipelines.similarity import (
        embedding_dim_stats)
    out = embedding_dim_stats(ray.data.from_arrow(emb_tbl))
    m = np.asarray(emb_tbl["embedding"].to_pylist(), dtype=np.float64)
    q = np.floor(m * 1e6 + 0.5).astype(object)   # unbounded ints
    n = m.shape[0]
    assert out["dim"].to_pylist() == list(range(1, m.shape[1] + 1))
    assert out["n"].to_pylist() == [n] * m.shape[1]
    for j, (mean, var) in enumerate(zip(out["mean_e6"].to_pylist(),
                                        out["var_e12"].to_pylist())):
        s = int(sum(q[:, j]))
        s2 = int(sum(v * v for v in q[:, j]))
        exp_mean = abs(s) // n * (1 if s >= 0 else -1)
        assert mean == exp_mean
        assert var == (n * s2 - s * s) // (n * n)


def test_q6_and_wavg_and_running_bruteforce():
    import duckdb
    import pandas as pd
    import ray.data
    from onestools_eventlog_ray.pipelines.relational import (
        q6_revenue, running_revenue, weighted_avg_price)
    li_path = os.path.join(SF_DIR, "lineitem.parquet")
    ord_path = os.path.join(SF_DIR, "orders.parquet")
    con = duckdb.connect()

    lo = pd.Timestamp("1996-01-01").value // 1000
    hi = pd.Timestamp("1998-01-01").value // 1000
    got = q6_revenue(ray.data.read_parquet(li_path),
                     date_lo_us=lo, date_hi_us=hi)
    exp = con.execute(f"""
        SELECT CAST(coalesce(sum(CAST(floor(l_extendedprice*100+0.5) AS BIGINT)
                 * CAST(floor(l_discount*100+0.5) AS BIGINT)), 0) AS BIGINT),
               count(*) FROM '{li_path}'
        WHERE l_shipdate >= TIMESTAMP '1996-01-01'
          AND l_shipdate < TIMESTAMP '1998-01-01'
          AND CAST(floor(l_discount*100+0.5) AS BIGINT) BETWEEN 5 AND 7
          AND l_quantity < 24""").fetchone()
    assert (got["revenue_e4"][0].as_py(), got["n_rows"][0].as_py()) \
        == (exp[0], exp[1])

    got = weighted_avg_price(ray.data.read_parquet(li_path)).take_all()
    exp = con.execute(f"""
        WITH t AS (SELECT l_returnflag,
                     CAST(floor(l_extendedprice*100+0.5) AS BIGINT) pe2,
                     CAST(floor(l_quantity*100+0.5) AS BIGINT) qe2
                   FROM '{li_path}')
        SELECT l_returnflag, count(*),
               CAST((10000 * CAST(sum(pe2*qe2) AS HUGEINT))
                    // CAST(sum(qe2) AS HUGEINT) AS BIGINT)
        FROM t GROUP BY 1 ORDER BY 1""").fetchall()
    assert [(r["l_returnflag"], r["n"], r["wavg_e6"]) for r in got] \
        == [tuple(r) for r in exp]

    got = sorted(
        ((r["o_custkey"], r["o_orderkey"], r["cum_price_e2"])
         for r in running_revenue(
             ray.data.read_parquet(ord_path)).take_all()))
    exp = sorted(map(tuple, con.execute(f"""
        SELECT o_custkey, o_orderkey,
               CAST(sum(CAST(floor(o_totalprice*100+0.5) AS BIGINT)) OVER (
                 PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey)
                 AS BIGINT)
        FROM '{ord_path}'""").fetchall()))
    assert got == exp


def test_split_by_group_bruteforce(docs_tbl):
    import ray.data
    from onestools_eventlog_ray.functions.fasthash import md5_lower64_one
    from onestools_eventlog_ray.pipelines.mix import split_by_group
    out = split_by_group(ray.data.from_arrow(docs_tbl), by="source")
    per = {}
    for s, t in zip(docs_tbl["source"].to_pylist(),
                    docs_tbl["text"].to_pylist()):
        d = per.setdefault(s, [0, 0])
        d[0] += 1
        d[1] += len(_tok(t))
    exp = {}
    for s, (nd, nt) in per.items():
        h = (md5_lower64_one(s) >> 1) % 10
        sp = "train" if h < 8 else "val" if h == 8 else "test"
        e = exp.setdefault(sp, [0, 0, 0])
        e[0] += 1
        e[1] += nd
        e[2] += nt
    got = {r["split"]: (r["n_groups"], r["n_docs"], r["n_tokens"])
           for r in out.to_pylist()}
    assert got == {k: tuple(v) for k, v in exp.items()}
    # leakage check: a group never straddles splits (functional by
    # construction, assert the split count is sane)
    assert sum(v[0] for v in exp.values()) == len(per)


def test_outlier_events_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.relational import outlier_events
    tbl = pq.read_table(os.path.join(SF_DIR, "events.parquet"))
    got = {(r["event_id"], r["value_e3"]) for r in outlier_events(
        ray.data.from_arrow(tbl)).take_all()}
    by_t = {}
    for t, v in zip(tbl["event_type"].to_pylist(),
                    tbl["value"].to_pylist()):
        by_t.setdefault(t, []).append(int(np.floor(v * 1000 + 0.5)))
    exp = set()
    for eid, t, v in zip(tbl["event_id"].to_pylist(),
                         tbl["event_type"].to_pylist(),
                         tbl["value"].to_pylist()):
        vals = by_t[t]
        n, s, s2 = len(vals), sum(vals), sum(x * x for x in vals)
        ve3 = int(np.floor(v * 1000 + 0.5))
        a = float(n * ve3 - s)
        rhs = 9.0 * (float(n) * float(s2) - float(s) * float(s))
        if a * a > rhs:
            exp.add((eid, ve3))
    assert got == exp and got


def test_drift_histogram_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.relational import drift_histogram
    tbl = pq.read_table(os.path.join(SF_DIR, "events.parquet"))
    out = drift_histogram(ray.data.from_arrow(tbl), "click", "view")
    na, nb = Counter(), Counter()
    for t, v in zip(tbl["event_type"].to_pylist(),
                    tbl["value"].to_pylist()):
        b = min(int(np.floor(v * 1000 + 0.5)) // 40_000, 9)
        if t == "click":
            na[b] += 1
        elif t == "view":
            nb[b] += 1
    ta, tb = sum(na.values()), sum(nb.values())
    assert out["bin"].to_pylist() == list(range(10))
    for r in out.to_pylist():
        b = r["bin"]
        assert (r["n_a"], r["n_b"]) == (na[b], nb[b])
        assert r["pa_e6"] == na[b] * 10**6 // ta
        assert r["pb_e6"] == nb[b] * 10**6 // tb
        assert r["d_e6"] == abs(r["pa_e6"] - r["pb_e6"])


def test_q5_bruteforce():
    import duckdb
    import ray.data
    from onestools_eventlog_ray.pipelines.relational import q5_region_revenue
    got = q5_region_revenue(
        ray.data.read_parquet(os.path.join(SF_DIR, "customer.parquet")),
        ray.data.read_parquet(os.path.join(SF_DIR, "orders.parquet")),
        ray.data.read_parquet(os.path.join(SF_DIR, "lineitem.parquet")),
        pq.read_table(os.path.join(SF_DIR, "supplier.parquet")),
        pq.read_table(os.path.join(SF_DIR, "nation.parquet")),
        pq.read_table(os.path.join(SF_DIR, "region.parquet")),
        region_name="EUROPE")
    exp = duckdb.connect().execute(f"""
        WITH rev AS (
          SELECT n.n_name,
                 CAST(floor(l.l_extendedprice*100+0.5) AS BIGINT)
                 * CAST(floor((1-l.l_discount)*100+0.5) AS BIGINT) AS r
          FROM '{SF_DIR}/customer.parquet' c
          JOIN '{SF_DIR}/orders.parquet' o ON c_custkey = o_custkey
          JOIN '{SF_DIR}/lineitem.parquet' l ON o_orderkey = l_orderkey
          JOIN '{SF_DIR}/supplier.parquet' s ON l_suppkey = s_suppkey
          JOIN '{SF_DIR}/nation.parquet' n ON c_nationkey = n_nationkey
          JOIN '{SF_DIR}/region.parquet' rg ON n_regionkey = r_regionkey
          WHERE c_nationkey = s_nationkey AND rg.r_name = 'EUROPE')
        SELECT n_name, CAST(sum(r) AS BIGINT) FROM rev
        GROUP BY n_name ORDER BY 2 DESC, 1""").fetchall()
    assert [(r["n_name"], r["revenue_e4"]) for r in got.to_pylist()] \
        == [tuple(r) for r in exp]


def test_term_vectors_bruteforce(g_index, small_corpus):
    from onestools_eventlog_ray.functions.hashing import doc_id_from_keys
    from onestools_eventlog_ray.pipelines.query import term_vectors
    eng = SearchEngine(g_index)
    ids = doc_id_from_keys(small_corpus["repo"], small_corpus["path"],
                           small_corpus["commit"]).to_pylist()
    i = ids.index(min(ids))
    out = term_vectors(eng, ids[i], content_col="content")
    toks = _tok(small_corpus["content"][i].as_py())
    tf = Counter(toks)
    df = Counter()
    for c in small_corpus["content"].to_pylist():
        df.update(set(_tok(c)))
    assert out["term"].to_pylist() == sorted(tf)
    for r in out.to_pylist():
        assert (r["tf"], r["df"]) == (tf[r["term"]], df[r["term"]])


def test_contamination_matrix_bruteforce(docs_tbl):
    import ray.data
    from onestools_eventlog_ray.pipelines.dedup import contamination_matrix
    out = contamination_matrix(ray.data.from_arrow(docs_tbl),
                               by="source", k=3, top=15)
    sh_by_src = {}
    for s, t in zip(docs_tbl["source"].to_pylist(),
                    docs_tbl["text"].to_pylist()):
        toks = _tok(t)
        if not toks:
            continue
        grams = {"\x1f".join(toks[i:i + 3])
                 for i in range(len(toks) - 2)} \
            if len(toks) >= 3 else {"\x1f".join(toks)}
        sh_by_src.setdefault(s, set()).update(grams)
    srcs = sorted(sh_by_src)
    exp = []
    for i, a in enumerate(srcs):
        for b in srcs[i + 1:]:
            n = len(sh_by_src[a] & sh_by_src[b])
            if n:
                exp.append((a, b, n))
    exp.sort(key=lambda x: (-x[2], x[0], x[1]))
    got = list(zip(out["group_a"].to_pylist(), out["group_b"].to_pylist(),
                   out["n_shared"].to_pylist()))
    assert got == [(a, b, n) for a, b, n in exp[:15]]


def test_oov_stats_bruteforce(docs_tbl):
    import ray.data
    from onestools_eventlog_ray.pipelines.text import oov_stats
    out = oov_stats(ray.data.from_arrow(docs_tbl), vocab_size=10,
                    by="lang")
    cf = Counter()
    for t in docs_tbl["text"].to_pylist():
        cf.update(_tok(t))
    vocab = {t for t, _ in sorted(cf.items(),
                                  key=lambda x: (-x[1], x[0]))[:10]}
    nt, no = Counter(), Counter()
    for la, t in zip(docs_tbl["lang"].to_pylist(),
                     docs_tbl["text"].to_pylist()):
        toks = _tok(t)
        nt[la] += len(toks)
        no[la] += sum(1 for x in toks if x not in vocab)
    assert out["lang"].to_pylist() == sorted(nt)
    for r in out.to_pylist():
        la = r["lang"]
        assert (r["n_tokens"], r["n_oov"]) == (nt[la], no[la])
        assert r["oov_e6"] == no[la] * 10**6 // max(nt[la], 1)
    assert any(v > 0 for v in out["n_oov"].to_pylist())


def test_percentile_ranks_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.relational import percentile_ranks
    tbl = pq.read_table(os.path.join(SF_DIR, "events.parquet"))
    out = percentile_ranks(ray.data.from_arrow(tbl))
    by_t = {}
    for t, v in zip(tbl["event_type"].to_pylist(),
                    tbl["value"].to_pylist()):
        by_t.setdefault(t, []).append(int(np.floor(v * 1000 + 0.5)))
    exp = []
    for t in sorted(by_t):
        vals = by_t[t]
        for p in (50_000, 100_000, 200_000):
            c = sum(1 for x in vals if x <= p)
            exp.append((t, p, c * 10**6 // len(vals)))
    got = list(zip(out["event_type"].to_pylist(),
                   out["value_e3"].to_pylist(),
                   out["rank_e6"].to_pylist()))
    assert got == exp


def test_snapshot_restore(g_index, tmp_path):
    from onestools_eventlog_ray.state.snapshot import (restore_index,
                                                       snapshot_index)
    snap = str(tmp_path / "snap")
    dest = str(tmp_path / "restored")
    info = snapshot_index(g_index, snap)
    assert info["n_files"] > 0
    # idempotent: second call reads the manifest, copies nothing new
    assert snapshot_index(g_index, snap) == info
    info2 = restore_index(snap, dest)
    assert info2 == info
    a = SearchEngine(g_index)
    b = SearchEngine(dest)
    for q in (["def", "import"], ["class"], ["nosuchterm"]):
        assert a.search(q, 10) == b.search(q, 10)
    # tombstones travel with the snapshot (g_index had delete_by_query)
    assert (a.deleted == b.deleted).all()


def test_restore_refuses_incomplete(g_index, tmp_path):
    import shutil
    from onestools_eventlog_ray.state.snapshot import (restore_index,
                                                       snapshot_index)
    snap = str(tmp_path / "snap2")
    snapshot_index(g_index, snap)
    # the manifest is written last: without it the snapshot is incomplete
    os.unlink(os.path.join(snap, "snapshots", "snapshot.json"))
    with pytest.raises(FileNotFoundError):
        restore_index(snap, str(tmp_path / "r2"))


def test_matrix_stats_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.relational import matrix_stats
    tbl = pq.read_table(os.path.join(SF_DIR, "lineitem.parquet"),
                        columns=["l_quantity", "l_extendedprice",
                                 "l_discount"])
    out = matrix_stats(ray.data.from_arrow(tbl))
    fields = [("l_quantity", 1), ("l_extendedprice", 100),
              ("l_discount", 100)]
    vals = {c: [int(np.floor(float(x) * s + 0.5))
                for x in tbl[c].to_pylist()]
            for c, s in fields}
    n = tbl.num_rows

    def trunc(a, b):
        q = abs(a) // abs(b)
        return -q if (a < 0) != (b < 0) else q

    got = {(r["field_a"], r["field_b"]): r for r in out.to_pylist()}
    assert len(got) == 6
    for i, (ca, _) in enumerate(fields):
        for cb, _s in fields[i:]:
            a, b = vals[ca], vals[cb]
            sa, sb = sum(a), sum(b)
            dot = sum(x * y for x, y in zip(a, b))
            r = got[(ca, cb)]
            assert r["n"] == n
            assert r["mean_a_e6"] == trunc(sa * 10**6, n)
            assert r["cov_e6"] == trunc((n * dot - sa * sb) * 10**6,
                                        n * n)


def test_mad_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.relational import \
        mad_value_by_type
    tbl = pq.read_table(os.path.join(SF_DIR, "events.parquet"),
                        columns=["event_type", "value"])
    out = mad_value_by_type(ray.data.from_arrow(tbl)) \
        .sort("event_type").take_all()
    by_t = {}
    for t, v in zip(tbl["event_type"].to_pylist(),
                    tbl["value"].to_pylist()):
        by_t.setdefault(t, []).append(int(np.floor(v * 1000 + 0.5)))
    for r in out:
        vals = sorted(by_t[r["event_type"]])
        med = vals[(len(vals) - 1) // 2]
        devs = sorted(abs(v - med) for v in vals)
        assert (r["n"], r["median_e3"], r["mad_e3"]) == \
            (len(vals), med, devs[(len(devs) - 1) // 2])


def test_count_matches_bruteforce(g_index, small_corpus):
    from onestools_eventlog_ray.pipelines.query import count_matches
    from onestools_eventlog_ray.functions.hashing import doc_id_from_keys
    eng = SearchEngine(g_index)
    deleted = set(eng.deleted.tolist())
    ids = doc_id_from_keys(small_corpus["repo"], small_corpus["path"],
                           small_corpus["commit"]).to_pylist()
    terms = ["def", "import"]
    sets = []
    for t in terms:
        s = {d for d, txt in zip(ids, small_corpus["content"].to_pylist())
             if t in _tok(txt) and d not in deleted}
        sets.append(s)
    out = {r["mode"]: r["n_docs"]
           for r in count_matches(g_index, terms).to_pylist()}
    assert out == {"all": len(sets[0] & sets[1]),
                   "any": len(sets[0] | sets[1])}
    # absent term: AND empties, OR unaffected
    out2 = {r["mode"]: r["n_docs"]
            for r in count_matches(g_index,
                                   terms + ["zzznope"]).to_pylist()}
    assert out2["all"] == 0 and out2["any"] == len(sets[0] | sets[1])


def test_suggest_terms_bruteforce(g_index, small_corpus):
    from onestools_eventlog_ray.pipelines.query import suggest_corrections

    def lev1(a, b):
        if abs(len(a) - len(b)) > 1:
            return False
        if len(a) == len(b):
            return sum(x != y for x, y in zip(a, b)) == 1
        if len(a) > len(b):
            a, b = b, a
        for i in range(len(b)):
            if b[:i] + b[i + 1:] == a:
                return True
        return False

    dfc = Counter()
    for txt in small_corpus["content"].to_pylist():
        dfc.update(set(_tok(txt)))
    q = "impart"
    out = suggest_corrections(g_index, [q], k=3).to_pylist()
    exp = sorted(((t, c) for t, c in dfc.items() if lev1(q, t)),
                 key=lambda x: (-x[1], x[0]))[:3]
    assert [(r["term"], r["df"]) for r in out] == exp
    assert [r["rank"] for r in out] == list(range(1, len(exp) + 1))
