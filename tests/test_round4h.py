"""Round-4h brute-force tests: ES rank_feature (saturation) query and
the _rank_eval API (precision/recall/MRR/nDCG over a rated request set).
"""
import os
import re
from math import floor, log2

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF_DIR = "/root/testdata/sf0.001"


def _tok(text):
    return [t for t in re.split(r"[^a-z0-9_]+", text.lower()) if t]


@pytest.fixture(scope="module")
def docs_tbl():
    return pq.read_table(os.path.join(SF_DIR, "documents.parquet"))


@pytest.fixture(scope="module")
def index_dir():
    import __ray_entry__ as em
    return em._ensure_index(SF_DIR)


def _bm25_scores(docs_tbl, terms):
    from onestools_eventlog_ray.functions.bm25 import BruteForceBM25
    bf = BruteForceBM25(docs_tbl["doc_id"].to_pylist(),
                        docs_tbl["text"].to_pylist())
    return dict(bf.search(terms, k=10**9))


def test_rank_feature_saturation(index_dir, docs_tbl):
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    eng = SearchEngine(index_dir)
    base = _bm25_scores(docs_tbl, ["join", "merge"])
    nch = dict(zip(docs_tbl["doc_id"].to_pylist(),
                   docs_tbl["n_chars"].to_pylist()))
    want = {d: s + 1.5 * (nch[d] / (nch[d] + 500.0))
            for d, s in base.items()}
    got = dict(eng.search_rank_feature(["join", "merge"], field="n_chars",
                                       pivot=500.0, boost=1.5, k=10**9))
    assert got == pytest.approx(want)
    # saturation is bounded by boost: feature can never add more than 1.5
    assert all(got[d] - base[d] < 1.5 for d in got)
    # and is monotone in the feature value
    assert all(got[d] > base[d] for d in got)


def test_rank_feature_no_hits(index_dir):
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    eng = SearchEngine(index_dir)
    assert eng.search_rank_feature(["zz_no_such_term_zz"]) == []


def test_rank_eval_bruteforce(index_dir, docs_tbl):
    from onestools_eventlog_ray.pipelines.query import SearchEngine, \
        rank_eval
    eng = SearchEngine(index_dir)
    requests = [("join_merge", ["join", "merge"]),
                ("spark_window", ["spark", "window"])]
    out = {r["query"]: r for r in rank_eval(eng, requests, k=10).to_pylist()}
    assert list(out) == ["join_merge", "spark_window"]

    ids = docs_tbl["doc_id"].to_pylist()
    texts = docs_tbl["text"].to_pylist()
    for name, terms in requests:
        rel = {d for d, t in zip(ids, texts) if set(terms) <= set(_tok(t))}
        scores = _bm25_scores(docs_tbl, terms)
        e6 = {d: int(floor(s * 1e6 + 0.5)) for d, s in scores.items()}
        top = sorted(e6, key=lambda d: (-e6[d], d))[:10]
        hits = sum(1 for d in top if d in rel)
        d6 = [int(floor(1e6 / log2(r + 1) + 0.5))
              for r in range(1, len(top) + 1)]
        dcg = sum(w for w, d in zip(d6, top) if d in rel)
        idcg = sum(d6[:min(len(rel), 10)])
        first = next((i + 1 for i, d in enumerate(top) if d in rel), 0)
        r = out[name]
        assert r["n_relevant"] == len(rel)
        assert r["n_retrieved"] == len(top)
        assert r["hits_at_k"] == hits
        assert r["precision_e6"] == (hits * 10**6 // len(top) if top else 0)
        assert r["recall_e6"] == (hits * 10**6 // len(rel) if rel else 0)
        assert r["mrr_e6"] == (10**6 // first if first else 0)
        assert r["ndcg_e6"] == (dcg * 10**6 // idcg if idcg else 0)


def test_rank_eval_empty_request(index_dir):
    from onestools_eventlog_ray.pipelines.query import SearchEngine, \
        rank_eval
    eng = SearchEngine(index_dir)
    out = rank_eval(eng, [("none", ["zz_no_such_term_zz"])]).to_pylist()
    assert out == [{"query": "none", "n_relevant": 0, "n_retrieved": 0,
                    "hits_at_k": 0, "precision_e6": 0, "recall_e6": 0,
                    "mrr_e6": 0, "ndcg_e6": 0}]


def test_q15_top_supplier_bruteforce():
    import duckdb
    import ray.data
    from onestools_eventlog_ray.pipelines.relational import q15_top_supplier
    li = ray.data.read_parquet(os.path.join(SF_DIR, "lineitem.parquet"))
    sup = pq.read_table(os.path.join(SF_DIR, "supplier.parquet"))
    got = q15_top_supplier(li, sup).to_pylist()
    con = duckdb.connect()
    con.register("lineitem", pq.read_table(
        os.path.join(SF_DIR, "lineitem.parquet")))
    con.register("supplier", sup)
    want = con.sql("""
        WITH rev AS (
          SELECT l_suppkey AS sk,
                 sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
                     * CAST(floor((1.0 - l_discount) * 100 + 0.5)
                            AS BIGINT)) AS r
          FROM lineitem
          WHERE l_shipdate >= TIMESTAMP '1996-01-01'
            AND l_shipdate < TIMESTAMP '1996-04-01' GROUP BY sk)
        SELECT s.s_suppkey, s.s_name, r.r FROM rev r
        JOIN supplier s ON s.s_suppkey = r.sk
        WHERE r.r = (SELECT max(r) FROM rev) ORDER BY s.s_suppkey
    """).fetchall()
    assert [(r["s_suppkey"], r["s_name"], r["total_revenue_e4"])
            for r in got] == [(int(a), b, int(c)) for a, b, c in want]


def test_q12_priority_by_flag_bruteforce():
    import duckdb
    import ray.data
    from onestools_eventlog_ray.pipelines.relational import \
        q12_priority_by_flag
    li = ray.data.read_parquet(os.path.join(SF_DIR, "lineitem.parquet"))
    od = ray.data.read_parquet(os.path.join(SF_DIR, "orders.parquet"))
    got = q12_priority_by_flag(li, od).to_pylist()
    con = duckdb.connect()
    con.register("lineitem", pq.read_table(
        os.path.join(SF_DIR, "lineitem.parquet")))
    con.register("orders", pq.read_table(
        os.path.join(SF_DIR, "orders.parquet")))
    want = con.sql("""
        SELECT l.l_returnflag,
               sum(CASE WHEN o.o_orderpriority IN ('1-URGENT','2-HIGH')
                        THEN 1 ELSE 0 END) AS hi,
               sum(CASE WHEN o.o_orderpriority NOT IN ('1-URGENT','2-HIGH')
                        THEN 1 ELSE 0 END) AS lo
        FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
        WHERE year(l.l_shipdate) BETWEEN 1996 AND 1997
        GROUP BY 1 ORDER BY 1
    """).fetchall()
    assert [(r["l_returnflag"], r["high_line_count"], r["low_line_count"])
            for r in got] == [(f, int(h), int(l)) for f, h, l in want]


def test_distance_feature_decay(index_dir, docs_tbl):
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    eng = SearchEngine(index_dir)
    base = _bm25_scores(docs_tbl, ["join", "merge"])
    nch = dict(zip(docs_tbl["doc_id"].to_pylist(),
                   docs_tbl["n_chars"].to_pylist()))
    want = {d: s + 2.0 * (500.0 / (500.0 + abs(nch[d] - 1000.0)))
            for d, s in base.items()}
    got = dict(eng.search_distance_feature(
        ["join", "merge"], field="n_chars", origin=1000.0,
        pivot=500.0, boost=2.0, k=10**9))
    assert got == pytest.approx(want)
    # decay peaks at the origin: boost contribution bounded by `boost`
    assert all(0.0 < got[d] - base[d] <= 2.0 for d in got)


def test_categorize_text_bruteforce(docs_tbl):
    import ray.data
    from collections import Counter
    from onestools_eventlog_ray.pipelines.text import categorize_text
    out = categorize_text(ray.data.from_arrow(docs_tbl),
                          n_tokens=4, k=8).to_pylist()
    tpl_of = {}
    for d, t in zip(docs_tbl["doc_id"].to_pylist(),
                    docs_tbl["text"].to_pylist()):
        norm = re.sub(r"[0-9]+", "#", t.lower())
        toks = [x for x in re.split(r"[^a-z_#]+", norm) if x][:4]
        tpl_of[d] = " ".join(toks)
    cnt = Counter(tpl_of.values())
    examples = {}
    for d, tp in tpl_of.items():
        examples[tp] = min(examples.get(tp, d), d)
    want = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:8]
    assert [(r["template"], r["n_docs"], r["example_doc_id"])
            for r in out] == [(tp, n, examples[tp]) for tp, n in want]


def test_categorize_text_digit_collapse():
    import ray.data
    from onestools_eventlog_ray.pipelines.text import categorize_text
    docs = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["Error 404 at line 23", "Error 500 at line 7",
                          "all good here"]),
        "lang": pa.array(["en"] * 3), "source": pa.array(["s"] * 3),
        "n_chars": pa.array([20, 20, 13], pa.int64()),
    })
    out = categorize_text(ray.data.from_arrow(docs), n_tokens=6,
                          k=5).to_pylist()
    assert out[0] == {"template": "error # at line #", "n_docs": 2,
                      "example_doc_id": 1}


def test_value_ttest_bruteforce():
    import ray.data
    from math import floor, sqrt
    from onestools_eventlog_ray.pipelines.relational import value_ttest
    tbl = pq.read_table(os.path.join(SF_DIR, "events.parquet"),
                        columns=["event_type", "value"])
    out = value_ttest(ray.data.from_arrow(tbl)).to_pylist()[0]
    et = tbl["event_type"].to_pylist()
    v3 = [int(floor(v * 1000 + 0.5)) for v in tbl["value"].to_pylist()]
    sides = {}
    for name in ("purchase", "click"):
        xs = [x for e, x in zip(et, v3) if e == name]
        n, s, q = len(xs), sum(xs), sum(x * x for x in xs)
        sides[name] = (n, s, q)
    (na, sa, qa), (nb, sb, qb) = sides["purchase"], sides["click"]
    m1, m2 = sa / na, sb / nb
    se1 = float(na * qa - sa * sa) / float(na * (na - 1)) / na
    se2 = float(nb * qb - sb * sb) / float(nb * (nb - 1)) / nb
    t = (m1 - m2) / sqrt(se1 + se2)
    df = ((se1 + se2) * (se1 + se2)
          / (se1 * se1 / (na - 1) + se2 * se2 / (nb - 1)))
    assert out["n_a"] == na and out["n_b"] == nb
    assert out["mean_a_e6"] == sa * 1000 // na
    assert out["mean_b_e6"] == sb * 1000 // nb
    assert out["t_e6"] == int(floor(t * 1e6 + 0.5))
    assert out["df_e6"] == int(floor(df * 1e6 + 0.5))
    # sanity: Welch df between min(n)-1 and na+nb-2
    assert min(na, nb) - 1 <= out["df_e6"] / 1e6 <= na + nb - 2


def test_combined_fields_bruteforce(docs_tbl):
    from math import log
    import __ray_entry__ as em
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.pipelines.multifield import (
        MultiFieldEngine, build_multifield_index, search_combined_fields)
    root = em._index_dir_for(SF_DIR) + "_mf"
    build_multifield_index(os.path.join(SF_DIR, "documents.parquet"),
                           root, ["source", "text"],
                           cfg=EngineConfig(num_partitions=8))
    boosts = {"text": 1.0, "source": 2.0}
    eng = MultiFieldEngine(root, boosts)
    terms = ["spark", "src1"]
    got = dict(search_combined_fields(eng, terms, k=10**9))

    ids = docs_tbl["doc_id"].to_pylist()
    toks = {f: [_tok(t) for t in docs_tbl[f].to_pylist()]
            for f in ("source", "text")}
    N = len(ids)
    w = {"source": 2.0, "text": 1.0}
    avgdl = sum(w[f] * (sum(len(x) for x in toks[f]) / N)
                for f in ("source", "text"))
    want = {}
    for t in sorted(set(terms)):
        cand = [i for i in range(N)
                if t in toks["source"][i] or t in toks["text"][i]]
        df = len(cand)
        idf = log(1 + (N - df + 0.5) / (df + 0.5))
        for i in cand:
            tf = sum(w[f] * toks[f][i].count(t) for f in ("source", "text"))
            dl = sum(w[f] * len(toks[f][i]) for f in ("source", "text"))
            want[ids[i]] = want.get(ids[i], 0.0) + (
                idf * tf * 2.2 / (tf + 1.2 * (0.25 + 0.75 * dl / avgdl)))
    assert got == pytest.approx(want)


def test_shrink_rank_and_phrase_identity(index_dir, tmp_path):
    from onestools_eventlog_ray.pipelines.incremental import shrink_index
    from onestools_eventlog_ray.pipelines.phrase import PhraseEngine
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    out = str(tmp_path / "shrunk")
    rep = shrink_index(index_dir, out, factor=4)
    a, b = SearchEngine(index_dir), SearchEngine(out)
    assert b.P == a.P // 4 == rep["num_partitions"]
    assert (b.N, b.avgdl) == (a.N, a.avgdl)        # stats untouched
    for terms in (["spark", "window"], ["join", "merge", "vector"],
                  ["src1"], ["zz_missing"]):
        assert a.search(terms, 25) == b.search(terms, 25)
    if os.path.isdir(os.path.join(index_dir, "positions")):
        assert PhraseEngine(index_dir).search_phrase(["spark", "window"]) \
            == PhraseEngine(out).search_phrase(["spark", "window"])


def test_shrink_requires_divisible_factor(index_dir, tmp_path):
    from onestools_eventlog_ray.pipelines.incremental import shrink_index
    with pytest.raises(ValueError):
        shrink_index(index_dir, str(tmp_path / "bad"), factor=3)


@pytest.mark.parametrize("op,P2", [("shrink", 8), ("split", 32)])
def test_shrink_term_disjointness(index_dir, tmp_path, op, P2):
    """Every term appears exactly once in the shrunk (or split) shard
    set, in its routing-congruent shard, sorted (K4)."""
    import glob
    from onestools_eventlog_ray.functions.hashing import term_partition_one
    from onestools_eventlog_ray.pipelines import incremental
    out = str(tmp_path / "resharded")
    getattr(incremental, f"{op}_index")(index_dir, out, factor=2)
    seen = {}
    for f in glob.glob(os.path.join(out, "shards", "part-*.parquet")):
        pkey = int(os.path.basename(f)[5:10])
        terms = pq.read_table(f, columns=["term"])["term"].to_pylist()
        assert terms == sorted(terms)
        for t in terms:
            assert t not in seen
            seen[t] = pkey
            assert term_partition_one(t, P2) == pkey
    assert seen


def test_split_then_shrink_roundtrip(index_dir, tmp_path):
    """split x2 then shrink x2 reproduces the original ranking AND the
    original shard layout (same shard count, same term placement)."""
    import glob
    from onestools_eventlog_ray.pipelines.incremental import (shrink_index,
                                                              split_index)
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    up = str(tmp_path / "up")
    back = str(tmp_path / "back")
    split_index(index_dir, up, factor=2)
    shrink_index(up, back, factor=2)
    a, c = SearchEngine(index_dir), SearchEngine(back)
    assert c.P == a.P
    for terms in (["spark", "window"], ["join", "merge", "vector"]):
        assert a.search(terms, 25) == c.search(terms, 25)
    # same per-shard term sets as the original
    for f in glob.glob(os.path.join(index_dir, "shards", "part-*.parquet")):
        other = os.path.join(back, "shards", os.path.basename(f))
        t0 = pq.read_table(f, columns=["term"])["term"].to_pylist()
        t1 = pq.read_table(other, columns=["term"])["term"].to_pylist() \
            if os.path.exists(other) else []
        assert t0 == t1


def test_random_score_deterministic_and_matching_only(index_dir, docs_tbl):
    from onestools_eventlog_ray.functions.fasthash import md5_lower64_one
    from onestools_eventlog_ray.pipelines.query import (SearchEngine,
                                                        search_random_score)
    eng = SearchEngine(index_dir)
    out1 = search_random_score(eng, ["join", "merge"], seed="rs", k=10)
    out2 = search_random_score(eng, ["join", "merge"], seed="rs", k=10)
    assert out1.equals(out2)                      # reproducible
    match = {d for d, t in zip(docs_tbl["doc_id"].to_pylist(),
                               docs_tbl["text"].to_pylist())
             if {"join", "merge"} & set(_tok(t))}
    got = out1.to_pylist()
    assert all(r["doc_id"] in match for r in got)
    for r in got:
        assert r["h"] == md5_lower64_one(f"rs:{r['doc_id']}") >> 1
    # a different seed reshuffles
    out3 = search_random_score(eng, ["join", "merge"], seed="other", k=10)
    assert out3["doc_id"].to_pylist() != out1["doc_id"].to_pylist()
    # no-match query -> empty, schema'd
    assert search_random_score(eng, ["zz_missing"]).num_rows == 0


def test_span_not_bruteforce(index_dir, docs_tbl):
    import __ray_entry__ as em
    from onestools_eventlog_ray.pipelines.phrase import (PhraseEngine,
                                                         span_not)
    em.queries()["phrase_search"](SF_DIR)     # ensure positions sidecar
    got = dict(span_not(PhraseEngine(index_dir), ("table", "hash"),
                        "scan", pre=1, post=1))
    want = {}
    for d, t in zip(docs_tbl["doc_id"].to_pylist(),
                    docs_tbl["text"].to_pylist()):
        toks = _tok(t)
        n = 0
        for i in range(len(toks) - 1):
            if toks[i] == "table" and toks[i + 1] == "hash":
                win = toks[max(i - 1, 0):i + 3]
                if "scan" not in win:
                    n += 1
        if n:
            want[d] = n
    assert got == want
    # the exclusion is strictly narrower than the raw phrase when the
    # planted corpus has 'scan' near at least one match
    full = dict(PhraseEngine(index_dir).search_phrase(["table", "hash"]))
    assert sum(got.values()) <= sum(full.values())


def test_auto_date_histogram_picks_interval():
    import ray.data
    from onestools_eventlog_ray.pipelines.streaming import (
        AUTO_HIST_LADDER_US, auto_date_histogram)
    ev = pq.read_table(os.path.join(SF_DIR, "events.parquet"),
                       columns=["ts"])
    out = auto_date_histogram(ray.data.from_arrow(ev), target_buckets=20)
    lo = min(ev["ts"].to_pylist()).timestamp() * 1e6
    hi = max(ev["ts"].to_pylist()).timestamp() * 1e6
    lo, hi = int(lo), int(hi)
    iv = out["interval_us"][0].as_py()
    assert iv in AUTO_HIST_LADDER_US
    assert hi // iv - lo // iv + 1 <= 20          # fits the target
    pos = AUTO_HIST_LADDER_US.index(iv)
    if pos:                                       # smallest fitting rung
        prev = AUTO_HIST_LADDER_US[pos - 1]
        assert hi // prev - lo // prev + 1 > 20
    assert sum(out["n_events"].to_pylist()) == ev.num_rows
    assert out["bucket"].to_pylist() == sorted(set(
        int(t.timestamp() * 1e6) // iv for t in ev["ts"].to_pylist()))


def test_serial_diff_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.streaming import (
        date_histogram_filled, date_histogram_serial_diff)
    ev = pq.read_table(os.path.join(SF_DIR, "events.parquet"),
                       columns=["ts"])
    base = date_histogram_filled(ray.data.from_arrow(ev))
    out = date_histogram_serial_diff(ray.data.from_arrow(ev), lag=7)
    n = base["n_events"].to_pylist()
    d = out["diff_events"].to_pylist()
    assert d[:7] == [None] * 7
    assert d[7:] == [n[i] - n[i - 7] for i in range(7, len(n))]


def test_snapshot_restore_verify_and_corruption(index_dir, tmp_path):
    import json
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    from onestools_eventlog_ray.state.snapshot import (
        SnapshotCorruptError, restore_index, snapshot_index)
    snap = str(tmp_path / "snap")
    dst = str(tmp_path / "restored")
    man = snapshot_index(index_dir, snap)
    assert man["n_files"] > 3
    # snapshot is idempotent (returns the recorded manifest)
    assert snapshot_index(index_dir, snap) == man
    assert restore_index(snap, dst) == man
    a, b = SearchEngine(index_dir), SearchEngine(dst)
    for terms in (["spark", "window"], ["join", "merge", "vector"]):
        assert a.search(terms, 25) == b.search(terms, 25)
    # corrupt the stats.json blob -> restore must refuse
    with open(os.path.join(snap, "snapshots", "snapshot.json")) as fh:
        sha = next(e["sha"] for e in json.load(fh)["files"]
                   if e["path"] == "stats.json")
    victim = os.path.join(snap, "blobs", sha[:2], sha)
    os.unlink(victim)                 # break the hardlink, then rewrite
    with open(victim, "w") as fh:
        fh.write("{}")
    with pytest.raises(SnapshotCorruptError):
        restore_index(snap, str(tmp_path / "r2"))


def test_entropy_scores_bruteforce(docs_tbl):
    import ray.data
    from collections import Counter
    from math import log
    from onestools_eventlog_ray.pipelines.text import entropy_scores
    out = {r["doc_id"]: r for r in
           entropy_scores(ray.data.from_arrow(docs_tbl)).take_all()}

    def h_e6(counts):
        n = sum(counts.values())
        if not n:
            return 0, 0
        h = log(n) - sum(c * log(c) for c in
                         sorted(counts.values())) / n
        return n, int(np.floor(h * 1e6 + 0.5))

    for d, t in list(zip(docs_tbl["doc_id"].to_pylist(),
                         docs_tbl["text"].to_pylist()))[:50]:
        nc, ce = h_e6(Counter(t.encode()))
        nt, te = h_e6(Counter(_tok(t)))
        r = out[d]
        assert r["n_chars_h"] == nc and r["n_tokens_h"] == nt
        assert abs(r["char_entropy_e6"] - ce) <= 1   # sum-order ulp
        assert abs(r["token_entropy_e6"] - te) <= 1
    # uniform text has lower token entropy than varied text
    uni = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                    "text": pa.array(["a a a a a a a a",
                                      "a b c d e f g h"]),
                    "lang": pa.array(["en"] * 2),
                    "source": pa.array(["s"] * 2),
                    "n_chars": pa.array([15, 15], pa.int64())})
    r = {x["doc_id"]: x for x in
         entropy_scores(ray.data.from_arrow(uni)).take_all()}
    assert r[1]["token_entropy_e6"] == 0           # single symbol
    assert r[2]["token_entropy_e6"] > r[1]["token_entropy_e6"]


def test_source_kl_bruteforce(docs_tbl):
    import ray.data
    from collections import Counter
    from math import log
    from onestools_eventlog_ray.pipelines.text import source_unigram_kl
    got = {r["source"]: r for r in
           source_unigram_kl(ray.data.from_arrow(docs_tbl)).to_pylist()}
    per_src: dict = {}
    tot = Counter()
    for s, t in zip(docs_tbl["source"].to_pylist(),
                    docs_tbl["text"].to_pylist()):
        c = Counter(_tok(t))
        per_src.setdefault(s, Counter()).update(c)
        tot.update(c)
    n_all = sum(tot.values())
    assert set(got) == set(per_src)
    for s, cnt in per_src.items():
        n_s = sum(cnt.values())
        kl = sum((c / n_s) * log((c / n_s) / (tot[t] / n_all))
                 for t, c in sorted(cnt.items()))
        assert got[s]["n_tok"] == n_s
        assert abs(got[s]["kl_e6"] - int(np.floor(kl * 1e6 + 0.5))) <= 1
        assert got[s]["kl_e6"] >= 0                 # Gibbs' inequality


def test_mtermvectors_matches_single(index_dir, docs_tbl):
    from onestools_eventlog_ray.pipelines.query import (SearchEngine,
                                                        mtermvectors,
                                                        term_vectors)
    eng = SearchEngine(index_dir)
    ids = docs_tbl["doc_id"].to_pylist()[:3]
    multi = mtermvectors(eng, ids).to_pylist()
    for d in ids:
        single = term_vectors(eng, d).to_pylist()
        got = [(r["term"], r["tf"], r["df"]) for r in multi
               if r["doc_id"] == d]
        assert got == [(r["term"], r["tf"], r["df"]) for r in single]
    assert mtermvectors(eng, []).num_rows == 0


def test_importance_sample_properties():
    import ray.data
    from onestools_eventlog_ray.functions.fasthash import md5_lower64_one
    from onestools_eventlog_ray.pipelines.sampling import importance_sample
    tbl = pq.read_table(os.path.join(SF_DIR, "documents.parquet"),
                        columns=["doc_id", "n_chars"])
    out = importance_sample(ray.data.from_arrow(tbl)).take_all()
    got = {r["doc_id"]: r for r in out}
    n_full = 0
    for d, nc in zip(tbl["doc_id"].to_pylist(),
                     tbl["n_chars"].to_pylist()):
        w = min(10**6, nc * 10**6 // 600)
        h = md5_lower64_one(f"is:{d}") % 10**6
        if h < w:
            assert got[d]["w_e6"] == w and got[d]["h_mod"] == h
        else:
            assert d not in got
        if w == 10**6:
            n_full += 1
            assert d in got                     # prob-1 rows always kept
    assert 0 < len(got) < tbl.num_rows
    # planted prob-1 row is always kept regardless of its hash
    import ray.data as rd
    big = pa.table({"doc_id": pa.array([999_999], pa.int64()),
                    "n_chars": pa.array([5000], pa.int64())})
    kept = importance_sample(rd.from_arrow(big)).take_all()
    assert [r["doc_id"] for r in kept] == [999_999]
    assert kept[0]["w_e6"] == 10**6
    # deterministic: a second run is identical
    out2 = importance_sample(ray.data.from_arrow(tbl)).take_all()
    assert sorted(r["doc_id"] for r in out) == \
        sorted(r["doc_id"] for r in out2)


def test_ewma_recursion_equivalence():
    import ray.data
    from onestools_eventlog_ray.pipelines.streaming import (
        date_histogram_filled, date_histogram_ewma)
    ev = pq.read_table(os.path.join(SF_DIR, "events.parquet"),
                       columns=["ts"])
    base = date_histogram_filled(ray.data.from_arrow(ev))
    out = date_histogram_ewma(ray.data.from_arrow(ev))
    n = base["n_events"].to_pylist()
    a = 0.3
    s = None
    want = []
    for x in n:                      # the textbook recursion
        s = x if s is None else a * x + (1 - a) * s
        want.append(s)
    got = [e / 1e6 for e in out["ewma_e6"].to_pylist()]
    assert got == pytest.approx(want, abs=2e-6)
    # smoothing: ewma deviates from the raw series less than raw varies
    assert len(got) == len(n)


def test_hdr_bucket_roundtrip_and_merge():
    import ray.data
    from onestools_eventlog_ray.pipelines.sketch import (_hdr_bucket,
                                                         _hdr_lower,
                                                         hdr_quantile_error,
                                                         hdr_value_sketch)
    v1 = np.concatenate([np.arange(1, 100), 2 ** np.arange(3, 30),
                         2 ** np.arange(3, 30) - 1,
                         np.asarray([560_211], np.int64)])
    bk = _hdr_bucket(v1)
    lb = _hdr_lower(bk)
    # lower bound <= value < lower bound * (1 + 1/8) (octave sub-bucket)
    assert np.all(lb <= v1)
    big = v1 >= 8
    assert np.all(v1[big] < lb[big] + (lb[big] >> 3) + 1)
    # buckets are monotone in value
    order = np.argsort(v1)
    assert np.all(np.diff(bk[order]) >= 0)

    # sketch of (A union B) == sketch(A) + sketch(B) merged by addition
    ev = pq.read_table(os.path.join(SF_DIR, "events.parquet"),
                       columns=["value"])
    half = ev.num_rows // 2
    a = hdr_value_sketch(ray.data.from_arrow(ev.slice(0, half)))
    b = hdr_value_sketch(ray.data.from_arrow(ev.slice(half)))
    merged = {}
    for t in (a, b):
        for r in t.to_pylist():
            merged[r["bucket"]] = merged.get(r["bucket"], 0) + r["n"]
    full = {r["bucket"]: r["n"] for r in
            hdr_value_sketch(ray.data.from_arrow(ev)).to_pylist()}
    assert merged == full

    # measured error within the 1/8 design bound
    err = hdr_quantile_error(ray.data.from_arrow(ev)).to_pylist()
    assert all(r["rel_err_e6"] <= 125_000 for r in err)


def test_context_packing_invariants(docs_tbl):
    import ray.data
    from onestools_eventlog_ray.pipelines.text import context_window_packing
    out = context_window_packing(ray.data.from_arrow(docs_tbl),
                                 capacity=100).to_pylist()
    assert [r["doc_id"] for r in out] == sorted(r["doc_id"] for r in out)
    want_nt = {d: len(_tok(t)) for d, t in
               zip(docs_tbl["doc_id"].to_pylist(),
                   docs_tbl["text"].to_pylist())}
    run = 0
    for r in out:
        assert r["n_tok"] == want_nt[r["doc_id"]]
        assert r["start_tok"] == run          # gapless concat stream
        run += r["n_tok"]
        assert r["first_bin"] == r["start_tok"] // 100
        assert r["offset_in_first"] == r["start_tok"] % 100
        assert r["last_bin"] == (r["start_tok"]
                                 + max(r["n_tok"], 1) - 1) // 100
        assert r["last_bin"] >= r["first_bin"]
    # every bin up to the last is covered by at least one doc span
    covered = set()
    for r in out:
        covered.update(range(r["first_bin"], r["last_bin"] + 1))
    assert covered == set(range(max(covered) + 1))


def test_delete_by_metadata(tmp_path, docs_tbl):
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.pipelines.build import build_index
    from onestools_eventlog_ray.pipelines.query import (SearchEngine,
                                                        delete_by_metadata)
    from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC
    idx = str(tmp_path / "ilm")
    build_index(os.path.join(SF_DIR, "documents.parquet"), idx,
                spec=DOCUMENTS_SPEC, cfg=EngineConfig(num_partitions=8))
    de = {d for d, la in zip(docs_tbl["doc_id"].to_pylist(),
                             docs_tbl["lang"].to_pylist()) if la == "de"}
    n = delete_by_metadata(idx, {"lang": "de"})
    assert n == len(de)
    eng = SearchEngine(idx)
    assert set(eng.deleted.tolist()) == de
    hits = {d for d, _ in eng.search(["spark", "window"], k=1 << 62)}
    assert not (hits & de)
    # idempotent: nothing newly tombstoned on repeat
    assert delete_by_metadata(idx, {"lang": "de"}) == 0
    # range predicate: (lo, hi) tuple convention
    n2 = delete_by_metadata(idx, {"n_chars": (0, 100)})
    short = {d for d, la, nc in zip(docs_tbl["doc_id"].to_pylist(),
                                    docs_tbl["lang"].to_pylist(),
                                    docs_tbl["n_chars"].to_pylist())
             if nc <= 100 and la != "de"}
    assert n2 == len(short)


def test_orc_datasource_stripes_and_pruning(tmp_path):
    import pyarrow.orc as po
    import ray.data
    from onestools_eventlog_ray.sources.corpus import (DOCUMENTS_SPEC,
                                                       read_corpus)
    tbl = pq.read_table(os.path.join(SF_DIR, "documents.parquet"))
    p = str(tmp_path / "docs.orc")
    w = po.ORCWriter(p, stripe_size=16 * 1024)
    for i in range(0, tbl.num_rows, 100):            # force several stripes
        w.write(tbl.slice(i, 100))
    w.close()
    assert po.ORCFile(p).nstripes > 1
    ds = read_corpus(p, DOCUMENTS_SPEC, fmt="orc")
    got = ds.take_all()
    assert len(got) == tbl.num_rows
    assert sorted(r["doc_id"] for r in got) == \
        sorted(tbl["doc_id"].to_pylist())
    # column pruning: only the spec's read columns come back
    assert set(got[0].keys()) == set(DOCUMENTS_SPEC.read_cols())


def test_csv_corpus_roundtrip(tmp_path):
    import pyarrow.csv as pacsv
    import ray.data
    from onestools_eventlog_ray.sources.corpus import (DOCUMENTS_SPEC,
                                                       read_corpus)
    tbl = pq.read_table(os.path.join(SF_DIR, "documents.parquet"))
    p = str(tmp_path / "docs.csv")
    pacsv.write_csv(tbl, p)
    ds = read_corpus(p, DOCUMENTS_SPEC, fmt="csv")
    assert ds.count() == tbl.num_rows


def test_export_training_shards_resumable(tmp_path, docs_tbl):
    import glob
    import ray.data
    from onestools_eventlog_ray.functions.fasthash import md5_lower64_one
    from onestools_eventlog_ray.pipelines.export import \
        export_training_shards
    out = str(tmp_path / "shards")
    man = export_training_shards(ray.data.from_arrow(docs_tbl), out,
                                 n_shards=4).to_pylist()
    assert len(man) <= 4
    total = 0
    for m in man:
        parts = sorted(glob.glob(os.path.join(
            out, f"shard-{m['shard']:05d}", "part-*.parquet")))
        assert parts                      # shard = directory of parts
        t = pa.concat_tables([pq.read_table(f) for f in parts])
        assert t.num_rows == m["n_docs"]
        ids = sorted(t["doc_id"].to_pylist())
        assert all(md5_lower64_one(f"shard:{d}") % 4 == m["shard"]
                   for d in ids)
        assert m["min_doc_id"] == ids[0] and m["max_doc_id"] == ids[-1]
        assert sum(t["n_tok"].to_pylist()) == m["n_tokens"]
        total += m["n_docs"]
    assert total == docs_tbl.num_rows
    # resumable: re-export leaves identical files (mtime unchanged)
    files = sorted(glob.glob(os.path.join(out, "shard-*", "*.parquet")))
    before = {f: os.path.getmtime(f) for f in files}
    man2 = export_training_shards(ray.data.from_arrow(docs_tbl), out,
                                  n_shards=4).to_pylist()
    assert man2 == man
    assert {f: os.path.getmtime(f) for f in files} == before


def test_rank_correlation_properties(index_dir, docs_tbl):
    from onestools_eventlog_ray.pipelines.query import (SearchEngine,
                                                        rank_correlation)
    eng = SearchEngine(index_dir)
    out = rank_correlation(eng, ["join", "merge"], field="n_chars",
                           k=30).to_pylist()[0]
    assert out["n_pairs"] == out["n"] * (out["n"] - 1) // 2
    assert out["concordant"] + out["discordant"] == out["n_pairs"]
    assert -10**6 <= out["tau_e6"] <= 10**6
    # brute-force tau on the same two orders
    base = _bm25_scores(docs_tbl, ["join", "merge"])
    e6 = {d: int(np.floor(s * 1e6 + 0.5)) for d, s in base.items()}
    top = sorted(e6, key=lambda d: (-e6[d], d))[:30]
    nch = dict(zip(docs_tbl["doc_id"].to_pylist(),
                   docs_tbl["n_chars"].to_pylist()))
    b_sorted = sorted(top, key=lambda d: (-nch[d], d))
    b_rank = {d: i for i, d in enumerate(b_sorted)}
    conc = sum(1 for i in range(len(top)) for j in range(i + 1, len(top))
               if b_rank[top[i]] < b_rank[top[j]])
    assert out["concordant"] == conc
    # a ranking correlates perfectly with itself
    self_out = rank_correlation(eng, ["zz_missing"], k=30).to_pylist()[0]
    assert self_out == {"n": 0, "n_pairs": 0, "concordant": 0,
                       "discordant": 0, "tau_e6": 0}


def test_terms_agg_bound_holds(docs_tbl):
    import ray.data
    from collections import Counter
    from onestools_eventlog_ray.functions.fasthash import md5_lower64_one
    from onestools_eventlog_ray.pipelines.text import terms_agg_approx
    out = terms_agg_approx(ray.data.from_arrow(docs_tbl), n_shards=4,
                           shard_size=5, k=8).to_pylist()
    # ES invariant: est <= true <= est + bound, always
    assert all(r["est_count"] <= r["true_count"]
               <= r["est_count"] + r["err_bound"] for r in out)
    assert all(r["within_bound"] == 1 for r in out)
    # brute-force the shard merge
    shards = {}
    tru = Counter()
    for d, t in zip(docs_tbl["doc_id"].to_pylist(),
                    docs_tbl["text"].to_pylist()):
        s = md5_lower64_one(f"ta:{d}") % 4
        c = Counter(_tok(t))
        shards.setdefault(s, Counter()).update(c)
        tru.update(c)
    est = Counter()
    last = {}
    ret = {}
    for s, cnt in shards.items():
        rows = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))
        top = rows[:5]
        ret[s] = {t for t, _ in top}
        last[s] = top[-1][1] if len(rows) >= 5 else 0
        for t, c in top:
            est[t] += c
    want = sorted(est.items(), key=lambda kv: (-kv[1], kv[0]))[:8]
    assert [(r["term"], r["est_count"]) for r in out] == want
    for r in out:
        b = sum(last[s] for s in shards if r["term"] not in ret[s])
        assert r["err_bound"] == b and r["true_count"] == tru[r["term"]]
    # with shard_size >= vocab, estimates are exact and bounds zero
    exact = terms_agg_approx(ray.data.from_arrow(docs_tbl), n_shards=4,
                             shard_size=10_000, k=8).to_pylist()
    assert all(r["err_bound"] == 0 and r["est_count"] == r["true_count"]
               for r in exact)


def test_cep_no_interruption_planted():
    import ray.data
    from onestools_eventlog_ray.pipelines.streaming import \
        cep_no_interruption
    # user 1: click -> purchase (match); user 2: click -> error ->
    # purchase (blocked); user 3: purchase with no click (no match);
    # user 4: click, error, click, purchase (match: latest click wins)
    rows = [(1, 10, "click"), (1, 20, "purchase"),
            (2, 10, "click"), (2, 15, "error"), (2, 20, "purchase"),
            (3, 10, "purchase"),
            (4, 10, "click"), (4, 15, "error"), (4, 18, "click"),
            (4, 20, "purchase"), (4, 25, "purchase")]
    tbl = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] * 10**6 for r in rows],
                       pa.timestamp("us")),
        "event_id": pa.array(list(range(len(rows))), pa.int64()),
        "event_type": pa.array([r[2] for r in rows], pa.string()),
    })
    out = cep_no_interruption(ray.data.from_arrow(tbl)).to_pylist()[0]
    assert out == {"n_second": 5, "n_matched": 3, "n_users_matched": 2,
                   "match_rate_e6": 3 * 10**6 // 5}


def test_mmr_rerank_properties():
    import ray.data
    from math import floor
    from onestools_eventlog_ray.pipelines.similarity import mmr_rerank
    emb = pq.read_table(os.path.join(SF_DIR, "embeddings.parquet"),
                        columns=["vec_id", "embedding"])
    ids = emb["vec_id"].to_pylist()
    vecs = {d: np.asarray(v, dtype=np.float64)
            for d, v in zip(ids, emb["embedding"].to_pylist())}
    q = vecs[0]

    def cos(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    out = mmr_rerank(ray.data.from_arrow(emb), q, pool_k=20, k=5,
                     lam_e6=700_000, exclude_ids={0}).to_pylist()
    assert [r["step"] for r in out] == [1, 2, 3, 4, 5]
    sel = [r["vec_id"] for r in out]
    assert len(set(sel)) == 5 and 0 not in sel
    # brute-force the greedy over the exact pool
    c6 = {d: int(floor(cos(q, v) * 1e6 + 0.5))
          for d, v in vecs.items() if d != 0}
    pool = sorted(c6, key=lambda d: (-c6[d], d))[:20]
    picked = []
    for r in out:
        best = None
        for d in pool:
            if d in picked:
                continue
            msel = max((int(floor(cos(vecs[d], vecs[p]) * 1e6 + 0.5))
                        for p in picked), default=0)
            score = 700_000 * c6[d] - 300_000 * msel
            key = (-score, d)
            if best is None or key < best[0]:
                best = (key, d, msel, score)
        _, d, msel, score = best
        picked.append(d)
        assert (r["vec_id"], r["q_sim_e6"], r["max_sel_sim_e6"],
                r["mmr_score_e12"]) == (d, c6[d], msel, score)
    # step 1 is the plain top-1; later steps trade relevance for novelty
    assert out[0]["vec_id"] == pool[0]
    assert any(r["max_sel_sim_e6"] != 0 for r in out[1:])


def test_cross_cluster_local_idf(tmp_path, docs_tbl):
    """Per-tenant indexes score with their OWN stats: the same doc gets
    a DIFFERENT score than under the global index (local-idf CCS)."""
    import __ray_entry__ as em
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    merged = em.queries()["bm25_cross_cluster"](SF_DIR).to_pylist()
    assert len(merged) == 10
    src = em._ensure_index(SF_DIR)
    glob_hits = dict(SearchEngine(src).search(em._BM25_TERMS, k=1 << 62))
    en = SearchEngine(src + "-reidx-en")
    en_hits = dict(en.search(em._BM25_TERMS, k=1 << 62))
    # en subset has fewer docs -> different N/avgdl/df -> different score
    assert en.N < SearchEngine(src).N
    common = set(glob_hits) & set(en_hits)
    assert common
    assert any(abs(glob_hits[d] - en_hits[d]) > 1e-9 for d in common)
    # every merged hit comes from one of the two tenant indexes
    de_hits = dict(SearchEngine(src + "-reidx-de")
                   .search(em._BM25_TERMS, k=1 << 62))
    for r in merged:
        assert r["doc_id"] in en_hits or r["doc_id"] in de_hits
