"""Round-3 session-5: cursor pagination (search_after), range filters,
highlighting, and the index-summary fold.

Brute-force parity checks only — oracle-SQL parity runs through
tools/check_oracle.py and the driver gate."""

import collections
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from onestools_eventlog_ray.pipelines import query as Q
from onestools_eventlog_ray.pipelines.query import SearchEngine

SF_DIR = "/root/testdata/sf0.001"
TERMS = ["spark", "vector", "window"]


def _tok(text):
    return [t for t in re.split(r"[^a-z0-9_]+", text.lower()) if t]


@pytest.fixture(scope="module")
def docs_tbl():
    return pq.read_table(os.path.join(SF_DIR, "documents.parquet"))


@pytest.fixture(scope="module")
def index_dir():
    import __ray_entry__ as em
    return em._ensure_index(SF_DIR)


@pytest.fixture(scope="module")
def full_ranking(index_dir):
    """Canonical (score_e6 desc, doc_id asc) full ranking for TERMS."""
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    eng = SearchEngine(index_dir)
    hits = eng.search(TERMS, k=1 << 62)
    ids = np.asarray([d for d, _ in hits], dtype=np.int64)
    e6 = np.floor(np.asarray([s for _, s in hits]) * 1e6 + 0.5).astype(np.int64)
    order = np.lexsort((ids, -e6))
    return ids[order], e6[order]


def test_search_page_first_page_is_topk(index_dir, full_ranking):
    from onestools_eventlog_ray.pipelines.query import SearchEngine, search_page
    eng = SearchEngine(index_dir)
    ids, e6 = full_ranking
    page = search_page(eng, TERMS, after=None, k=10)
    assert [(r, d, s) for r, d, s in page] == \
        [(i + 1, int(ids[i]), int(e6[i])) for i in range(10)]


def test_search_page_cursor_resumes_exactly(index_dir, full_ranking):
    """Pages chained by cursor reconstruct the full ranking with no
    overlap and no gaps, regardless of score ties at page boundaries."""
    from onestools_eventlog_ray.pipelines.query import SearchEngine, search_page
    eng = SearchEngine(index_dir)
    ids, e6 = full_ranking
    seen, cursor = [], None
    while True:
        page = search_page(eng, TERMS, after=cursor, k=7)
        if not page:
            break
        seen.extend(page)
        cursor = (page[-1][2], page[-1][1])
    assert [d for _, d, _ in seen] == ids.tolist()
    assert [r for r, _, _ in seen] == list(range(1, ids.size + 1))


def test_search_page_mid_tie_cursor(index_dir, full_ranking):
    """A cursor placed ON a tied (score, doc) resumes at the next doc of
    the same score (strictly-after semantics)."""
    from onestools_eventlog_ray.pipelines.query import SearchEngine, search_page
    eng = SearchEngine(index_dir)
    ids, e6 = full_ranking
    i = ids.size // 2
    page = search_page(eng, TERMS, after=(int(e6[i]), int(ids[i])), k=3)
    want = [(j + 1, int(ids[j]), int(e6[j]))
            for j in range(i + 1, min(i + 4, ids.size))]
    assert page == want


def test_range_filter_bruteforce(index_dir, docs_tbl, full_ranking):
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    eng = SearchEngine(index_dir)
    lo, hi = 100, 350
    nchars = dict(zip(docs_tbl["doc_id"].to_pylist(),
                      docs_tbl["n_chars"].to_pylist()))
    hits = eng.search_filtered(TERMS, {"n_chars": (lo, hi)}, k=10)
    ids, e6 = full_ranking
    want = [int(d) for d in ids if lo <= nchars[int(d)] <= hi][:10]
    assert [d for d, _ in hits] == want
    assert all(lo <= nchars[d] <= hi for d, _ in hits)


def test_range_filter_composes_with_equality(index_dir, docs_tbl, full_ranking):
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    eng = SearchEngine(index_dir)
    meta = {int(d): (l, n) for d, l, n in
            zip(docs_tbl["doc_id"].to_pylist(), docs_tbl["lang"].to_pylist(),
                docs_tbl["n_chars"].to_pylist())}
    hits = eng.search_filtered(TERMS, {"lang": "en", "n_chars": (100, 350)}, k=5)
    ids, _ = full_ranking
    want = [int(d) for d in ids
            if meta[int(d)][0] == "en" and 100 <= meta[int(d)][1] <= 350][:5]
    assert [d for d, _ in hits] == want


def test_highlight_snippets_bruteforce(index_dir, docs_tbl, full_ranking):
    from onestools_eventlog_ray.pipelines.query import (SearchEngine,
                                                       highlight_snippets)
    eng = SearchEngine(index_dir)
    out = highlight_snippets(eng, TERMS, k=5, window=2)
    ids, _ = full_ranking
    texts = dict(zip(docs_tbl["doc_id"].to_pylist(),
                     docs_tbl["text"].to_pylist()))
    assert out["doc_id"].to_pylist() == ids[:5].tolist()
    tset = set(TERMS)
    for d, snip in zip(out["doc_id"].to_pylist(), out["snippet"].to_pylist()):
        toks = _tok(texts[d])
        first = next(i for i, t in enumerate(toks) if t in tset)
        assert snip == " ".join(toks[max(0, first - 2):first + 3])
        assert tset & set(snip.split())


def test_index_summary_bruteforce(index_dir, docs_tbl):
    from onestools_eventlog_ray.pipelines.query import index_summary
    out = index_summary(index_dir).to_pylist()[0]
    postings = collections.Counter()
    total_cf = 0
    terms = set()
    for text in docs_tbl["text"].to_pylist():
        toks = _tok(text)
        total_cf += len(toks)
        terms.update(toks)
        for t in set(toks):
            postings[t] += 1
    assert out == {"n_docs": docs_tbl.num_rows, "n_terms": len(terms),
                   "n_postings": sum(postings.values()), "total_cf": total_cf}


# ---- left/anti join + lag family ----------------------------------------

@pytest.fixture(scope="module")
def tpc_tables():
    cust = pq.read_table(os.path.join(SF_DIR, "customer.parquet"),
                         columns=["c_custkey", "c_mktsegment"])
    ev = pq.read_table(os.path.join(SF_DIR, "events.parquet"),
                       columns=["user_id", "ts"])
    return cust, ev


def test_customer_activity_left_join_bruteforce(tpc_tables):
    import ray.data
    from onestools_eventlog_ray.pipelines import relational
    cust, ev = tpc_tables
    out = relational.customer_activity(
        ray.data.from_arrow(cust), ray.data.from_arrow(ev)).take_all()
    counts = collections.Counter(ev["user_id"].to_pylist())
    want = sorted((int(k), s, counts.get(int(k), 0))
                  for k, s in zip(cust["c_custkey"].to_pylist(),
                                  cust["c_mktsegment"].to_pylist()))
    assert [(r["c_custkey"], r["c_mktsegment"], r["n_events"])
            for r in out] == want
    # left semantics: zero-event customers ARE present
    assert any(r["n_events"] == 0 for r in out)


def test_customer_activity_drops_orphan_events(tpc_tables):
    """Event user_ids with no customer row must not surface (left join,
    not full outer)."""
    import pyarrow as pa
    import ray.data
    from onestools_eventlog_ray.pipelines import relational
    cust, _ = tpc_tables
    ev = pa.table({"user_id": pa.array([10**9, 10**9 + 1], pa.int64()),
                   "ts": pa.array([0, 1], pa.timestamp("us"))})
    out = relational.customer_activity(
        ray.data.from_arrow(cust), ray.data.from_arrow(ev)).take_all()
    assert len(out) == cust.num_rows
    assert all(r["n_events"] == 0 for r in out)


def test_segment_activity_antijoin_bruteforce(tpc_tables):
    import ray.data
    from onestools_eventlog_ray.pipelines import relational
    cust, ev = tpc_tables
    out = relational.segment_activity(
        ray.data.from_arrow(cust), ray.data.from_arrow(ev)).to_pylist()
    active = set(ev["user_id"].to_pylist())
    per_seg = collections.Counter(cust["c_mktsegment"].to_pylist())
    act_seg = collections.Counter(
        s for k, s in zip(cust["c_custkey"].to_pylist(),
                          cust["c_mktsegment"].to_pylist()) if int(k) in active)
    assert out == [{"c_mktsegment": s, "n_customers": per_seg[s],
                    "n_active": act_seg.get(s, 0),
                    "n_inactive": per_seg[s] - act_seg.get(s, 0)}
                   for s in sorted(per_seg)]
    assert sum(r["n_inactive"] for r in out) > 0


def test_interarrival_bruteforce(tpc_tables):
    import ray.data
    from onestools_eventlog_ray.pipelines import streaming
    _, ev = tpc_tables
    out = {r["user_id"]: r for r in streaming.interarrival_stats(
        ray.data.from_arrow(ev)).take_all()}
    per_user = collections.defaultdict(list)
    for u, t in zip(ev["user_id"].to_pylist(), ev["ts"].to_pylist()):
        per_user[int(u)].append(t)
    for u, tss in per_user.items():
        gaps = np.diff(np.sort(np.asarray(
            [int(t.timestamp() * 1e6) for t in tss], dtype=np.int64)))
        if gaps.size < 1:
            assert u not in out
            continue
        r = out[u]
        assert (r["n_gaps"], r["sum_gap_us"], r["avg_gap_us"]) == \
            (gaps.size, int(gaps.sum()), int(gaps.sum()) // gaps.size)


# ---- query-DSL scoring refinements --------------------------------------

def _bm25_bruteforce(docs_tbl, terms, boosts=None):
    """Per-doc {term: w} weight map via the scoring formula."""
    import math
    tok_docs = [(int(d), _tok(t)) for d, t in
                zip(docs_tbl["doc_id"].to_pylist(),
                    docs_tbl["text"].to_pylist())]
    N = len(tok_docs)
    avgdl = sum(len(t) for _, t in tok_docs) / N
    df = {t: sum(1 for _, toks in tok_docs if t in toks) for t in terms}
    out = {}
    for d, toks in tok_docs:
        ws = {}
        for t in sorted(set(terms)):
            tf = toks.count(t)
            if tf == 0 or df[t] == 0:
                continue
            idf = math.log(1 + (N - df[t] + 0.5) / (df[t] + 0.5))
            w = idf * tf * 2.2 / (tf + 1.2 * (0.25 + 0.75 * len(toks) / avgdl))
            ws[t] = w * (boosts.get(t, 1.0) if boosts else 1.0)
        if ws:
            out[d] = ws
    return out


def test_search_dsl_min_should_match(index_dir, docs_tbl):
    from onestools_eventlog_ray.pipelines.query import SearchEngine, search_dsl
    eng = SearchEngine(index_dir)
    w = _bm25_bruteforce(docs_tbl, TERMS)
    for m in (1, 2, 3):
        hits = search_dsl(eng, TERMS, k=1 << 62, minimum_should_match=m)
        want = sorted(((d, sum(ws.values())) for d, ws in w.items()
                       if len(ws) >= m), key=lambda x: (-x[1], x[0]))
        assert [d for d, _ in hits] == [d for d, _ in want]
        assert np.allclose([s for _, s in hits], [s for _, s in want])


def test_search_dsl_boosts(index_dir, docs_tbl):
    from onestools_eventlog_ray.pipelines.query import SearchEngine, search_dsl
    eng = SearchEngine(index_dir)
    boosts = {"spark": 2.0, "vector": 1.0, "window": 0.5}
    w = _bm25_bruteforce(docs_tbl, TERMS, boosts)
    hits = search_dsl(eng, TERMS, k=5, boosts=boosts)
    want = sorted(((d, sum(ws.values())) for d, ws in w.items()),
                  key=lambda x: (-x[1], x[0]))[:5]
    assert [d for d, _ in hits] == [d for d, _ in want]
    assert np.allclose([s for _, s in hits], [s for _, s in want])


def test_search_dsl_dismax(index_dir, docs_tbl):
    from onestools_eventlog_ray.pipelines.query import SearchEngine, search_dsl
    eng = SearchEngine(index_dir)
    w = _bm25_bruteforce(docs_tbl, TERMS)
    hits = search_dsl(eng, TERMS, k=5, mode="max", tie_breaker=0.3)
    scored = [(d, max(ws.values()) + 0.3 * (sum(ws.values()) - max(ws.values())))
              for d, ws in w.items()]
    want = sorted(scored, key=lambda x: (-x[1], x[0]))[:5]
    assert [d for d, _ in hits] == [d for d, _ in want]
    assert np.allclose([s for _, s in hits], [s for _, s in want])


@pytest.mark.parametrize("kw", [
    dict(minimum_should_match=2),
    dict(boosts={"spark": 2.0, "vector": 1.0, "window": 0.5}),
    dict(mode="max", tie_breaker=0.3),
])
def test_search_dsl_tombstoned(index_dir, kw):
    """Tombstoned docs leave the ranking and nothing else moves: scores
    keep the built index's stats (ES soft-delete semantics)."""
    from onestools_eventlog_ray.pipelines.query import SearchEngine, search_dsl
    eng = SearchEngine(index_dir)
    full = search_dsl(eng, TERMS, k=1 << 62, **kw)
    dead = {d for d, _ in full[::3]}
    eng.deleted = np.asarray(sorted(dead), dtype=np.int64)
    want = [h for h in full if h[0] not in dead]
    assert search_dsl(eng, TERMS, k=1 << 62, **kw) == want
    assert search_dsl(eng, TERMS, k=5, **kw) == want[:5]


def test_search_dsl_plain_sum_equals_search(index_dir):
    from onestools_eventlog_ray.pipelines.query import SearchEngine, search_dsl
    eng = SearchEngine(index_dir)
    assert search_dsl(eng, TERMS, k=20) == eng.search(TERMS, k=20)


def test_search_collapse_bruteforce(index_dir, docs_tbl, full_ranking):
    from onestools_eventlog_ray.pipelines.query import (SearchEngine,
                                                       search_collapse)
    eng = SearchEngine(index_dir)
    out = search_collapse(eng, TERMS, "lang", per_group=2)
    ids, e6 = full_ranking
    langs = dict(zip(docs_tbl["doc_id"].to_pylist(),
                     docs_tbl["lang"].to_pylist()))
    want = []
    seen = collections.Counter()
    for d, s in zip(ids.tolist(), e6.tolist()):
        g = langs[d]
        seen[g] += 1
        if seen[g] <= 2:
            want.append((g, seen[g], d, s))
    want.sort()
    got = list(zip(out["lang"].to_pylist(), out["rank_in_group"].to_pylist(),
                   out["doc_id"].to_pylist(), out["score_e6"].to_pylist()))
    assert got == want
    assert len({g for g, _, _, _ in got}) == len(set(langs.values()) &
                                                 {g for g, _, _, _ in want})


# ---- training-data ops: balancing, histogram, batched kNN ----------------

def test_balanced_sample_bruteforce(docs_tbl):
    import hashlib
    import ray.data
    from onestools_eventlog_ray.pipelines import sampling
    ds = ray.data.from_arrow(docs_tbl.select(["doc_id", "source"]))
    out = sampling.balanced_sample(ds, "source", "doc_id", target=8) \
        .take_all()
    n_by_src = collections.Counter(docs_tbl["source"].to_pylist())

    def h(doc_id):
        dig = hashlib.md5(str(doc_id).encode()).digest()
        return int.from_bytes(dig[8:16], "little")

    want = sorted(int(d) for d, s in zip(docs_tbl["doc_id"].to_pylist(),
                                         docs_tbl["source"].to_pylist())
                  if h(int(d)) % n_by_src[s] < 8)
    assert sorted(r["doc_id"] for r in out) == want
    # balancing really trims: fewer rows than input, >0 kept
    assert 0 < len(out) < docs_tbl.num_rows


def test_balanced_sample_small_group_keeps_all():
    """A group already at/under target keeps every row (h mod n < n)."""
    import pyarrow as pa
    import ray.data
    from onestools_eventlog_ray.pipelines import sampling
    t = pa.table({"doc_id": pa.array(range(5), pa.int64()),
                  "source": pa.array(["tiny"] * 5)})
    out = sampling.balanced_sample(ray.data.from_arrow(t), "source",
                                   "doc_id", target=8).take_all()
    assert sorted(r["doc_id"] for r in out) == [0, 1, 2, 3, 4]


def test_doclen_histogram_bruteforce(docs_tbl):
    import ray.data
    from onestools_eventlog_ray.pipelines import text
    from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC
    out = text.doclen_histogram(ray.data.from_arrow(docs_tbl),
                                DOCUMENTS_SPEC, bin_width=32).take_all()
    hist = collections.Counter(
        (len(_tok(t)) // 32) * 32 for t in docs_tbl["text"].to_pylist())
    assert [(r["bin_lo"], r["n_docs"]) for r in out] == \
        sorted(hist.items())


def test_knn_batch_matches_per_query(docs_tbl):
    """Multi-query kNN in one pass == three single-query runs."""
    import ray.data
    from onestools_eventlog_ray.pipelines import similarity
    emb = pq.read_table(os.path.join(SF_DIR, "embeddings.parquet"),
                        columns=["vec_id", "embedding"])
    vid = emb["vec_id"].to_pylist()
    qs = np.asarray([emb["embedding"][vid.index(i)].as_py()
                     for i in (0, 1, 2)], dtype=np.float64)
    batch = similarity.knn_cosine(ray.data.from_arrow(emb), qs, k=7,
                                  exclude_ids={0, 1, 2})
    for q in (0, 1, 2):
        single = similarity.knn_cosine(ray.data.from_arrow(emb), qs[q], k=7,
                                       exclude_ids={0, 1, 2})
        got = batch.filter(
            __import__("pyarrow.compute", fromlist=["pc"]).equal(
                batch["query_idx"], q))
        assert got["vec_id"].to_pylist() == single["vec_id"].to_pylist()
        assert np.allclose(got["cosine"].to_numpy(zero_copy_only=False),
                           single["cosine"].to_numpy(zero_copy_only=False))


# ---- regexp dictionary scan, date histogram, percentiles -----------------

def test_regexp_term_stats_bruteforce(index_dir, docs_tbl):
    from onestools_eventlog_ray.pipelines.query import regexp_term_stats
    out = {r["term"]: (r["df"], r["cf"]) for r in
           regexp_term_stats(index_dir, r"^s.*[wk]$").take_all()}
    df = collections.Counter()
    cf = collections.Counter()
    for text in docs_tbl["text"].to_pylist():
        toks = _tok(text)
        m = [t for t in toks if re.match(r"^s.*[wk]$", t)]
        cf.update(m)
        df.update(set(m))
    assert out == {t: (df[t], cf[t]) for t in df}
    assert out  # pattern actually matches something


def test_date_histogram_zero_fill():
    import pyarrow as pa
    import ray.data
    from onestools_eventlog_ray.pipelines import streaming
    day = 86_400 * 1_000_000
    # days 10, 10, 13 -> buckets 10..13 with zeros at 11, 12
    ts = pa.array([10 * day, 10 * day + 5, 13 * day], pa.timestamp("us"))
    out = streaming.date_histogram_filled(
        ray.data.from_arrow(pa.table({"ts": ts})))
    assert out["epoch_day"].to_pylist() == [10, 11, 12, 13]
    assert out["n_events"].to_pylist() == [2, 0, 0, 1]


def test_date_histogram_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines import streaming
    ev = pq.read_table(os.path.join(SF_DIR, "events.parquet"),
                       columns=["ts"])
    out = streaming.date_histogram_filled(ray.data.from_arrow(ev))
    days = [int(t.timestamp() * 1e6) // (86_400 * 1_000_000)
            for t in ev["ts"].to_pylist()]
    hist = collections.Counter(days)
    lo, hi = min(days), max(days)
    assert out["epoch_day"].to_pylist() == list(range(lo, hi + 1))
    assert out["n_events"].to_pylist() == [hist.get(d, 0)
                                           for d in range(lo, hi + 1)]
    assert sum(out["n_events"].to_pylist()) == ev.num_rows


def test_price_percentiles_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines import relational
    li = pq.read_table(os.path.join(SF_DIR, "lineitem.parquet"),
                       columns=["l_returnflag", "l_extendedprice"])
    out = {r["l_returnflag"]: r for r in relational.price_percentiles(
        ray.data.from_arrow(li)).take_all()}
    per_flag = collections.defaultdict(list)
    for f, p in zip(li["l_returnflag"].to_pylist(),
                    li["l_extendedprice"].to_pylist()):
        per_flag[f].append(p)
    for f, vals in per_flag.items():
        v = sorted(vals)
        n = len(v)
        r = out[f]
        assert r["n"] == n
        for p in (25, 50, 75, 90):
            idx = (p * n + 99) // 100 - 1
            assert r[f"p{p}_e6"] == int(np.floor(v[idx] * 1e6 + 0.5))


# ---- Q3 join composition, phrase prefix, facet sub-agg -------------------

def test_q3_top_revenue_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines import relational
    cutoff = 896_659_200_000_000
    cust = pq.read_table(os.path.join(SF_DIR, "customer.parquet"))
    orders = pq.read_table(os.path.join(SF_DIR, "orders.parquet"))
    li = pq.read_table(os.path.join(SF_DIR, "lineitem.parquet"))
    out = relational.q3_top_revenue(
        ray.data.from_arrow(cust), ray.data.from_arrow(orders),
        ray.data.from_arrow(li), segment="BUILDING",
        cutoff_us=cutoff, k=10)
    bkeys = {int(k) for k, s in zip(cust["c_custkey"].to_pylist(),
                                    cust["c_mktsegment"].to_pylist())
             if s == "BUILDING"}
    odate = {}
    for ok, ck, od in zip(orders["o_orderkey"].to_pylist(),
                          orders["o_custkey"].to_pylist(),
                          orders["o_orderdate"].to_pylist()):
        us = int(od.timestamp() * 1e6)
        if int(ck) in bkeys and us < cutoff:
            odate[int(ok)] = us
    rev = collections.Counter()
    for ok, sd, p, d in zip(li["l_orderkey"].to_pylist(),
                            li["l_shipdate"].to_pylist(),
                            li["l_extendedprice"].to_pylist(),
                            li["l_discount"].to_pylist()):
        if int(ok) in odate and int(sd.timestamp() * 1e6) > cutoff:
            rev[int(ok)] += (int(np.floor(p * 100 + 0.5))
                             * int(np.floor((1 - d) * 100 + 0.5)))
    want = sorted(((k, v, odate[k]) for k, v in rev.items() if v > 0),
                  key=lambda x: (-x[1], x[0]))[:10]
    got = list(zip(out["o_orderkey"].to_pylist(),
                   out["revenue_e4"].to_pylist(),
                   out["o_orderdate_us"].to_pylist()))
    assert got == want
    assert len(got) == 10


def test_phrase_prefix_bruteforce(index_dir, docs_tbl):
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.pipelines.phrase import (
        PhraseEngine, build_position_index, search_phrase_prefix)
    from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC
    if not os.path.isdir(os.path.join(index_dir, "positions")):
        build_position_index(os.path.join(SF_DIR, "documents.parquet"),
                             index_dir, spec=DOCUMENTS_SPEC,
                             cfg=EngineConfig(num_partitions=16))
    eng = PhraseEngine(index_dir)
    got = search_phrase_prefix(eng, ["batch"], "s")
    want = collections.Counter()
    for d, text in zip(docs_tbl["doc_id"].to_pylist(),
                       docs_tbl["text"].to_pylist()):
        toks = _tok(text)
        n = sum(1 for i in range(len(toks) - 1)
                if toks[i] == "batch" and toks[i + 1].startswith("s"))
        if n:
            want[int(d)] = n
    assert got == sorted(((d, n) for d, n in want.items()),
                         key=lambda x: (-x[1], x[0]))
    assert got


def test_phrase_prefix_expansion_reads_the_sidecar(index_dir, tmp_path):
    """The positions sidecar's prefix expansion is its sorted distinct
    terms with that prefix, capped in sorted order.  On multi-group
    ``write_shard`` files the range read equals a full read for prefixes
    of one and more characters cut at every row-group boundary."""
    import glob
    from types import SimpleNamespace
    from onestools_eventlog_ray.pipelines.phrase import PhraseEngine
    from onestools_eventlog_ray.pipelines.query import expand_prefix_terms
    from onestools_eventlog_ray.stages.postings import (SHARD_ROW_GROUP,
                                                        TermShards,
                                                        write_shard)
    files = sorted(glob.glob(os.path.join(index_dir, "positions",
                                          "pos-*.parquet")))
    assert files
    terms = sorted(set(pq.read_table(files, columns=["term"])["term"]
                       .to_pylist()))
    want = [t for t in terms if t.startswith("s")]
    assert len(want) > 3
    eng = PhraseEngine(index_dir)
    assert expand_prefix_terms(eng, "s", 50) == want[:50]
    assert expand_prefix_terms(eng, "s", 3) == want[:3]
    assert expand_prefix_terms(eng, "zzz", 50) == []

    # seeded words over 3 files of several row groups each
    rng = np.random.default_rng(4)
    alpha = np.array(list("aeiprst"))
    words = sorted({"".join(rng.choice(alpha, size=int(n)))
                    for n in rng.integers(1, 7, size=4000)})
    assert len(words) > 3 * 4 * SHARD_ROW_GROUP
    path = str(tmp_path / "f-{:05d}.parquet")
    for p in range(3):
        write_shard(pa.table({"term": words[p::3]}), path.format(p))
        assert pq.read_metadata(path.format(p)).num_row_groups >= 4
    multi = SimpleNamespace(P=3, _shards=TermShards(path))
    probes = {"", "0", "zzzz", "s", "sp", "spa"}
    for p in range(3):
        ts = words[p::3]
        for i in range(0, len(ts), SHARD_ROW_GROUP):
            for t in ts[max(0, i - 1):i + 1]:        # a group's edges
                probes.update(t[:n] for n in range(1, len(t) + 2))
    for pre in sorted(probes):
        got = expand_prefix_terms(multi, pre, 10_000)
        assert got == ([t for t in words if t.startswith(pre)]
                       if pre else []), pre


def test_phrase_prefix_no_expansion_is_empty(index_dir):
    from onestools_eventlog_ray.pipelines.phrase import (PhraseEngine,
                                                        search_phrase_prefix)
    eng = PhraseEngine(index_dir)
    assert search_phrase_prefix(eng, ["batch"], "zzz") == []


def test_facet_stats_bruteforce(index_dir, docs_tbl):
    from onestools_eventlog_ray.pipelines.query import facet_stats
    out = facet_stats(index_dir, "spark", by="lang",
                      metric_col="n_chars").take_all()
    n = collections.Counter()
    s = collections.Counter()
    for d, text, lang, nc in zip(docs_tbl["doc_id"].to_pylist(),
                                 docs_tbl["text"].to_pylist(),
                                 docs_tbl["lang"].to_pylist(),
                                 docs_tbl["n_chars"].to_pylist()):
        if "spark" in _tok(text):
            n[lang] += 1
            s[lang] += int(nc)
    assert [(r["lang"], r["n_docs"], r["avg_n_chars_e6"]) for r in out] == \
        [(lang, n[lang], (s[lang] * 1_000_000) // n[lang])
         for lang in sorted(n)]


# ---- reindex (ES _reindex with query) ------------------------------------

def test_reindex_subset_stats_and_ranking(index_dir, docs_tbl, tmp_path):
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.pipelines.incremental import reindex
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    dst = str(tmp_path / "reidx")
    rep = reindex(index_dir, dst, where={"lang": "en"},
                  cfg=EngineConfig(num_partitions=4))
    en_docs = [(int(d), _tok(t)) for d, t, lang in
               zip(docs_tbl["doc_id"].to_pylist(),
                   docs_tbl["text"].to_pylist(),
                   docs_tbl["lang"].to_pylist()) if lang == "en"]
    eng = SearchEngine(dst)
    assert rep["n_docs"] == eng.N == len(en_docs)
    # subset stats: avgdl is the EN-subset average, not the corpus's
    assert abs(eng.avgdl - sum(len(t) for _, t in en_docs)
               / len(en_docs)) < 1e-9
    # ranking matches brute force over the subset (subset df/avgdl/N)
    import math
    N = len(en_docs)
    avgdl = sum(len(t) for _, t in en_docs) / N
    df = {t: sum(1 for _, toks in en_docs if t in toks) for t in TERMS}
    scored = []
    for d, toks in en_docs:
        s = 0.0
        for t in sorted(set(TERMS)):
            tf = toks.count(t)
            if tf and df[t]:
                idf = math.log(1 + (N - df[t] + 0.5) / (df[t] + 0.5))
                s += idf * tf * 2.2 / (tf + 1.2 * (0.25
                                                   + 0.75 * len(toks) / avgdl))
        if s > 0:
            scored.append((d, s))
    want = sorted(scored, key=lambda x: (-x[1], x[0]))[:10]
    hits = eng.search(TERMS, k=10)
    assert [d for d, _ in hits] == [d for d, _ in want]
    assert np.allclose([s for _, s in hits], [s for _, s in want])
    # every hit is an EN doc
    en_ids = {d for d, _ in en_docs}
    assert all(d in en_ids for d, _ in hits)


def test_reindex_range_predicate(index_dir, docs_tbl, tmp_path):
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.pipelines.incremental import reindex
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    dst = str(tmp_path / "reidx_rng")
    reindex(index_dir, dst, where={"n_chars": (100, 350)},
            cfg=EngineConfig(num_partitions=4))
    want = sum(1 for n in docs_tbl["n_chars"].to_pylist()
               if 100 <= n <= 350)
    assert SearchEngine(dst).N == want


def test_reindex_rejects_unknown_predicate_column(index_dir, tmp_path):
    from onestools_eventlog_ray.pipelines.incremental import reindex
    with pytest.raises(KeyError):
        reindex(index_dir, str(tmp_path / "x"), where={"nope": 1})


# ---- frame sampling, packing scan, quality cut, bigram LM ----------------

def test_media_frames_bruteforce():
    import hashlib
    import ray.data
    from onestools_eventlog_ray.stages.multimodal import (
        sample_media_frames, synthesize_media_table)
    tbl = synthesize_media_table(12, seed=7)
    out = sample_media_frames(ray.data.from_arrow(tbl), frame_bytes=256,
                              stride=4).take_all()
    want = []
    for mid, kind, payload in zip(tbl["media_id"].to_pylist(),
                                  tbl["kind"].to_pylist(),
                                  tbl["payload"].to_pylist()):
        if kind != "video":
            continue
        for k in range(0, len(payload) // 256, 4):
            dig = hashlib.md5(payload[k * 256:(k + 1) * 256].hex()
                              .encode()).digest()
            want.append((mid, k, int.from_bytes(dig[8:16], "little") >> 1))
    assert sorted((r["media_id"], r["frame_idx"], r["frame_sig"])
                  for r in out) == sorted(want)
    assert want  # videos exist


def test_chunk_assignments_bruteforce(docs_tbl):
    import ray.data
    from onestools_eventlog_ray.pipelines import text
    from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC
    budget = 100      # small budget -> many chunks
    out = {r["doc_id"]: r["chunk_id"] for r in text.chunk_assignments(
        ray.data.from_arrow(docs_tbl), DOCUMENTS_SPEC,
        budget=budget).take_all()}
    docs = sorted((int(d), len(_tok(t))) for d, t in
                  zip(docs_tbl["doc_id"].to_pylist(),
                      docs_tbl["text"].to_pylist()))
    cum = 0
    want = {}
    for d, n in docs:
        want[d] = cum // budget
        cum += n
    assert out == want
    assert max(out.values()) > 1  # the scan actually crossed chunks


def test_chunk_assignments_crosses_ranges(docs_tbl):
    """With 2 ranges the offsets must chain: chunk ids are globally
    monotone in doc_id order."""
    import ray.data
    from onestools_eventlog_ray.pipelines import text
    from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC
    out = text.chunk_assignments(ray.data.from_arrow(docs_tbl),
                                 DOCUMENTS_SPEC, budget=50,
                                 range_bits=1).take_all()
    rows = sorted((r["doc_id"], r["chunk_id"]) for r in out)
    chunks = [c for _, c in rows]
    assert chunks == sorted(chunks)


def test_quality_filter_counts_bruteforce(docs_tbl):
    import math
    import ray.data
    from onestools_eventlog_ray.pipelines import text
    from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC
    out = text.quality_filter_counts(ray.data.from_arrow(docs_tbl),
                                     DOCUMENTS_SPEC, by="lang",
                                     pct=75).take_all()
    tok_docs = [(int(d), _tok(t), lang) for d, t, lang in
                zip(docs_tbl["doc_id"].to_pylist(),
                    docs_tbl["text"].to_pylist(),
                    docs_tbl["lang"].to_pylist())]
    cf = collections.Counter(t for _, toks, _ in tok_docs for t in toks)
    tot = sum(cf.values())

    def trunc_div(a, b):
        return a // b if a >= 0 else -((-a) // b)

    qs = []
    for d, toks, lang in tok_docs:
        if not toks:
            continue
        s = sum(int(np.floor(math.log(cf[t] / tot) * 1e6 + 0.5))
                for t in toks)
        qs.append((trunc_div(s, len(toks)), lang))
    vals = sorted(q for q, _ in qs)
    thr = vals[(75 * len(vals) + 99) // 100 - 1]
    want = collections.Counter(lang for q, lang in qs if q >= thr)
    assert {r["lang"]: r["n_kept"] for r in out} == dict(want)
    assert sum(want.values()) < len(qs)   # the cut removed something


def test_bigram_coherence_bruteforce(docs_tbl):
    import ray.data
    from onestools_eventlog_ray.pipelines import text
    from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC
    out = {r["doc_id"]: r for r in text.bigram_coherence(
        ray.data.from_arrow(docs_tbl), DOCUMENTS_SPEC).take_all()}
    tok_docs = [(int(d), _tok(t)) for d, t in
                zip(docs_tbl["doc_id"].to_pylist(),
                    docs_tbl["text"].to_pylist())]
    uni = collections.Counter(t for _, toks in tok_docs for t in toks)
    big = collections.Counter((toks[i], toks[i + 1]) for _, toks in tok_docs
                              for i in range(len(toks) - 1))
    V = len(uni)
    for d, toks in tok_docs:
        if len(toks) < 2:
            assert d not in out
            continue
        ps = [((big[(toks[i], toks[i + 1])] + 1) * 1_000_000)
              // (uni[toks[i]] + V) for i in range(len(toks) - 1)]
        r = out[d]
        assert (r["n_bigrams"], r["coherence_e6"]) == \
            (len(ps), sum(ps) // len(ps))


# ---- sort clause, pipeline aggs, winnowing -------------------------------

def test_search_sorted_by_bruteforce(index_dir, docs_tbl):
    from onestools_eventlog_ray.pipelines.query import (SearchEngine,
                                                       search_sorted_by)
    eng = SearchEngine(index_dir)
    out = search_sorted_by(eng, TERMS, "n_chars", k=10)
    meta = {int(d): int(n) for d, n in zip(docs_tbl["doc_id"].to_pylist(),
                                           docs_tbl["n_chars"].to_pylist())}
    match = [int(d) for d, t in zip(docs_tbl["doc_id"].to_pylist(),
                                    docs_tbl["text"].to_pylist())
             if set(_tok(t)) & set(TERMS)]
    want = sorted(match, key=lambda d: (-meta[d], d))[:10]
    assert out["doc_id"].to_pylist() == want
    assert out["n_chars"].to_pylist() == [meta[d] for d in want]


def test_date_histogram_pipeline_aggs():
    import pyarrow as pa
    import ray.data
    from onestools_eventlog_ray.pipelines import streaming
    day = 86_400 * 1_000_000
    ts = pa.array([10 * day, 10 * day + 1, 12 * day, 12 * day + 2,
                   12 * day + 3], pa.timestamp("us"))
    out = streaming.date_histogram_cumulative(
        ray.data.from_arrow(pa.table({"ts": ts})))
    assert out["epoch_day"].to_pylist() == [10, 11, 12]
    assert out["n_events"].to_pylist() == [2, 0, 3]
    assert out["cum_events"].to_pylist() == [2, 2, 5]
    assert out["delta_events"].to_pylist() == [None, -2, 3]


def test_winnowing_bruteforce(docs_tbl):
    import hashlib
    import ray.data
    from onestools_eventlog_ray.functions.fasthash import MERSENNE61
    from onestools_eventlog_ray.pipelines import text
    from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC
    P, B, k, w = int(MERSENNE61), 1_000_003, 4, 5
    out = {r["doc_id"]: r for r in text.winnowed_fingerprints(
        ray.data.from_arrow(docs_tbl), DOCUMENTS_SPEC, k=k, w=w).take_all()}

    def th(t):
        return int.from_bytes(hashlib.md5(t.encode()).digest()[8:16],
                              "little") % P

    n_checked = 0
    for d, txt in zip(docs_tbl["doc_id"].to_pylist(),
                      docs_tbl["text"].to_pylist()):
        hs = [th(t) for t in _tok(txt)]
        ng = len(hs) - k + 1
        if ng < 1:
            assert d not in out
            continue
        grams = []
        for g in range(ng):
            acc = 0
            for j in range(k):
                acc = (acc * B + hs[g + j]) % P
            grams.append(acc)
        sel = {min(grams)} if ng < w else \
            {min(grams[s:s + w]) for s in range(ng - w + 1)}
        r = out[int(d)]
        assert (r["n_grams"], r["n_selected"], r["sel_sum"]) == \
            (ng, len(sel), sum(sel) % P)
        n_checked += 1
    assert n_checked > 100


def test_winnowing_shared_substring_guarantee():
    """Two docs sharing a >= w+k-1 token run MUST share a fingerprint."""
    import pyarrow as pa
    import ray.data
    from onestools_eventlog_ray.pipelines import text
    from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC
    shared = "alpha beta gamma delta epsilon zeta eta theta"   # 8 tokens
    t = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array([f"one two {shared} three",
                          f"nine {shared} ten eleven twelve"]),
        "lang": pa.array(["en", "en"]),
        "source": pa.array(["s", "s"]),
        "n_chars": pa.array([1, 1], pa.int64()),
    })
    # engine summary can't expose the sets, so recompute via brute force
    # with the same params to assert intersection is non-empty
    import hashlib
    from onestools_eventlog_ray.functions.fasthash import MERSENNE61
    P, B, k, w = int(MERSENNE61), 1_000_003, 4, 5

    def sel_set(txt):
        hs = [int.from_bytes(hashlib.md5(x.encode()).digest()[8:16],
                             "little") % P for x in _tok(txt)]
        ng = len(hs) - k + 1
        grams = []
        for g in range(ng):
            acc = 0
            for j in range(k):
                acc = (acc * B + hs[g + j]) % P
            grams.append(acc)
        return {min(grams)} if ng < w else \
            {min(grams[s:s + w]) for s in range(ng - w + 1)}

    s1, s2 = sel_set(t["text"][0].as_py()), sel_set(t["text"][1].as_py())
    assert s1 & s2
    out = {r["doc_id"]: r for r in text.winnowed_fingerprints(
        ray.data.from_arrow(t), DOCUMENTS_SPEC, k=k, w=w).take_all()}
    assert out[1]["n_selected"] == len(s1)
    assert out[2]["n_selected"] == len(s2)
    assert out[1]["sel_sum"] == sum(s1) % P
    assert out[2]["sel_sum"] == sum(s2) % P


# ---- grep scan, lift, funnel, retention ----------------------------------

def test_substring_scan_bruteforce(docs_tbl):
    import ray.data
    from onestools_eventlog_ray.pipelines import text
    from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC
    out = {r["doc_id"]: r["n_occurrences"] for r in text.substring_scan(
        ray.data.from_arrow(docs_tbl), "table sc",
        DOCUMENTS_SPEC).take_all()}
    want = {}
    for d, t in zip(docs_tbl["doc_id"].to_pylist(),
                    docs_tbl["text"].to_pylist()):
        n = t.count("table sc")
        if n:
            want[int(d)] = n
    assert out == want and out


def test_bigram_lift_bruteforce(docs_tbl):
    import ray.data
    from onestools_eventlog_ray.pipelines import text
    from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC
    out = text.bigram_lift_topk(ray.data.from_arrow(docs_tbl),
                                DOCUMENTS_SPEC, min_count=5, k=20)
    uni = collections.Counter()
    big = collections.Counter()
    for t in docs_tbl["text"].to_pylist():
        toks = _tok(t)
        uni.update(toks)
        big.update(f"{toks[i]} {toks[i+1]}" for i in range(len(toks) - 1))
    tot = sum(uni.values())
    rows = [(bg, n, (n * tot * 1_000_000)
             // (uni[bg.split(" ")[0]] * uni[bg.split(" ")[1]]))
            for bg, n in big.items() if n >= 5]
    rows.sort(key=lambda r: (-r[2], -r[1], r[0]))
    assert list(zip(out["bigram"].to_pylist(), out["n"].to_pylist(),
                    out["lift_e6"].to_pylist())) == rows[:20]


def test_funnel_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines import streaming
    ev = pq.read_table(os.path.join(SF_DIR, "events.parquet"),
                       columns=["user_id", "ts", "event_type"])
    out = streaming.funnel_counts(
        ray.data.from_arrow(ev), "click", "purchase",
        within_s=3600).to_pylist()[0]
    per_user = collections.defaultdict(list)
    for u, t, e in zip(ev["user_id"].to_pylist(), ev["ts"].to_pylist(),
                       ev["event_type"].to_pylist()):
        per_user[int(u)].append((int(t.timestamp() * 1e6), e))
    n_first = n_conv = 0
    for evs in per_user.values():
        clicks = [t for t, e in evs if e == "click"]
        if not clicks:
            continue
        n_first += 1
        t0 = min(clicks)
        if any(e == "purchase" and t0 < t <= t0 + 3600_000_000
               for t, e in evs):
            n_conv += 1
    assert out == {"n_users": len(per_user), "n_first": n_first,
                   "n_converted": n_conv}


def test_retention_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines import streaming
    ev = pq.read_table(os.path.join(SF_DIR, "events.parquet"),
                       columns=["user_id", "ts"])
    out = [(r["cohort_day"], r["n_users"], r["n_retained"]) for r in
           streaming.retention_cohorts(ray.data.from_arrow(ev),
                                       horizon_days=7).take_all()]
    per_user = collections.defaultdict(set)
    for u, t in zip(ev["user_id"].to_pylist(), ev["ts"].to_pylist()):
        per_user[int(u)].add(int(t.timestamp() * 1e6) // 86_400_000_000)
    agg = collections.defaultdict(lambda: [0, 0])
    for days in per_user.values():
        cohort = min(days)
        agg[cohort][0] += 1
        agg[cohort][1] += int(cohort + 7 in days)
    assert out == [(c, n, r) for c, (n, r) in sorted(agg.items())]


# ---- span_near, rare_terms, adjacency ------------------------------------

def test_span_near_bruteforce(index_dir, docs_tbl):
    from onestools_eventlog_ray.pipelines.phrase import PhraseEngine, span_near
    got = span_near(PhraseEngine(index_dir), "spark", "vector", slop=3)
    want = {}
    for d, t in zip(docs_tbl["doc_id"].to_pylist(),
                    docs_tbl["text"].to_pylist()):
        toks = _tok(t)
        pa_ = [i for i, x in enumerate(toks) if x == "spark"]
        pb = [i for i, x in enumerate(toks) if x == "vector"]
        if pa_ and pb:
            m = min(abs(i - j) for i in pa_ for j in pb)
            if m <= 3:
                want[int(d)] = m
    assert got == sorted(((d, m) for d, m in want.items()),
                         key=lambda x: (x[1], x[0]))
    assert got


def test_span_near_slop_zero_empty(index_dir):
    """Distance 0 is impossible for two distinct terms."""
    from onestools_eventlog_ray.pipelines.phrase import PhraseEngine, span_near
    assert span_near(PhraseEngine(index_dir), "spark", "vector",
                     slop=0) == []


def test_adjacency_matrix_bruteforce(index_dir, docs_tbl):
    from onestools_eventlog_ray.pipelines.query import (SearchEngine,
                                                       adjacency_matrix)
    out = adjacency_matrix(SearchEngine(index_dir), TERMS)
    sets = {t: set() for t in TERMS}
    for d, txt in zip(docs_tbl["doc_id"].to_pylist(),
                      docs_tbl["text"].to_pylist()):
        toks = set(_tok(txt))
        for t in TERMS:
            if t in toks:
                sets[t].add(int(d))
    got = {(a, b): n for a, b, n in zip(out["key_a"].to_pylist(),
                                        out["key_b"].to_pylist(),
                                        out["n_docs"].to_pylist())}
    u = sorted(set(TERMS))
    assert got == {(a, b): len(sets[a] & sets[b])
                   for i, a in enumerate(u) for b in u[i:]}


def test_rare_terms_threshold(index_dir, docs_tbl):
    from onestools_eventlog_ray.pipelines.query import rare_terms
    out = {r["term"]: r["df"] for r in
           rare_terms(index_dir, max_df=100).take_all()}
    df = collections.Counter()
    for t in docs_tbl["text"].to_pylist():
        df.update(set(_tok(t)))
    assert out == {t: n for t, n in df.items() if n <= 100}
    assert out


# ---- distributed DSL serving + reindex/tombstone integration -------------

def test_score_queries_dsl_columns(index_dir):
    """The distributed scorer routes per-query DSL knobs through
    search_dsl — results equal the driver-side calls."""
    import json
    from onestools_eventlog_ray.pipelines.query import (SearchEngine,
                                                       score_queries,
                                                       search_dsl)
    eng = SearchEngine(index_dir)
    queries = [
        {"query_id": 0, "terms": TERMS, "k": 5, "msm": 2,
         "mode": None, "tie_breaker": None, "boosts": None},
        {"query_id": 1, "terms": TERMS, "k": 5, "msm": None,
         "mode": "max", "tie_breaker": 0.3, "boosts": None},
        {"query_id": 2, "terms": TERMS, "k": 5, "msm": None,
         "mode": None, "tie_breaker": None,
         "boosts": json.dumps({"spark": 2.0})},
    ]
    rows = score_queries(index_dir, queries).take_all()
    by_q = collections.defaultdict(list)
    for r in rows:
        by_q[r["query_id"]].append((r["rank"], r["doc_id"], r["score"]))
    want = {
        0: search_dsl(eng, TERMS, 5, minimum_should_match=2),
        1: search_dsl(eng, TERMS, 5, mode="max", tie_breaker=0.3),
        2: search_dsl(eng, TERMS, 5, boosts={"spark": 2.0}),
    }
    for q, hits in want.items():
        assert [(d, s) for _, d, s in sorted(by_q[q])] == hits


def test_reindex_excludes_tombstones(index_dir, docs_tbl, tmp_path):
    """Reindex honors the source's soft deletes: tombstoned docs are
    physically absent from the new index."""
    import shutil
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.pipelines.incremental import reindex
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    from onestools_eventlog_ray.state.tombstones import delete_docs
    src = str(tmp_path / "src")
    shutil.copytree(index_dir, src)
    victims = docs_tbl["doc_id"].to_pylist()[:3]
    delete_docs(src, [int(v) for v in victims])
    dst = str(tmp_path / "dst")
    reindex(src, dst, cfg=EngineConfig(num_partitions=4))
    eng = SearchEngine(dst)
    assert eng.N == docs_tbl.num_rows - 3
    assert eng.fetch_docs([int(victims[0])]).num_rows == 0


# ---- best_fields, composite paging, percolator ---------------------------

def test_best_fields_bruteforce(docs_tbl):
    """best_fields == max + tb*(sum-max) over the per-field engines'
    own scores (checked against MultiFieldEngine.search components)."""
    import __ray_entry__ as em
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.pipelines.multifield import (
        MultiFieldEngine, build_multifield_index, search_best_fields)
    root = em._index_dir_for(SF_DIR) + "_mf"
    build_multifield_index(os.path.join(SF_DIR, "documents.parquet"),
                           root, list(em._MF_BOOSTS),
                           cfg=EngineConfig(num_partitions=8))
    eng = MultiFieldEngine(root, em._MF_BOOSTS)
    per_field = {}
    for f, e in eng.engines.items():
        per_field[f] = {d: em._MF_BOOSTS[f] * s
                        for d, s in e.search(em._MF_TERMS, k=1 << 62)}
    docs = set().union(*[set(v) for v in per_field.values()])
    want = []
    for d in docs:
        vals = [per_field[f][d] for f in per_field if d in per_field[f]]
        want.append((d, max(vals) + 0.2 * (sum(vals) - max(vals))))
    want.sort(key=lambda x: (-x[1], x[0]))
    got = search_best_fields(eng, em._MF_TERMS, k=20, tie_breaker=0.2)
    assert [d for d, _ in got] == [d for d, _ in want[:20]]
    assert np.allclose([s for _, s in got], [s for _, s in want[:20]])


def test_composite_agg_cursor_pages_cover_all(docs_tbl):
    import ray.data
    from onestools_eventlog_ray.pipelines import relational
    ds = ray.data.from_arrow(docs_tbl.select(["source", "lang"]))
    pages, after = [], None
    while True:
        page = relational.composite_agg(ds, ["source", "lang"],
                                        after=after, size=7)
        if page.num_rows == 0:
            break
        rows = list(zip(page["source"].to_pylist(),
                        page["lang"].to_pylist(),
                        page["n_rows"].to_pylist()))
        pages.extend(rows)
        after = (rows[-1][0], rows[-1][1])
    want = sorted(collections.Counter(
        zip(docs_tbl["source"].to_pylist(),
            docs_tbl["lang"].to_pylist())).items())
    assert pages == [(s, l, n) for (s, l), n in want]
    assert len({(s, l) for s, l, _ in pages}) == len(pages)  # no overlap


def test_percolate_bruteforce(docs_tbl):
    import ray.data
    from onestools_eventlog_ray.pipelines import text
    from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC
    rules = {"a": ["spark", "vector"], "b": ["dup"]}
    out = {(r["doc_id"], r["query_name"]) for r in text.percolate(
        ray.data.from_arrow(docs_tbl), rules, DOCUMENTS_SPEC).take_all()}
    want = set()
    for d, t in zip(docs_tbl["doc_id"].to_pylist(),
                    docs_tbl["text"].to_pylist()):
        toks = set(_tok(t))
        for name, terms in rules.items():
            if all(x in toks for x in terms):
                want.add((int(d), name))
    assert out == want and out


# ---- cube, ordered string_agg, transitions -------------------------------

def test_cube_grouping_sets(docs_tbl):
    import ray.data
    from onestools_eventlog_ray.pipelines import relational
    out = relational.source_lang_cube(
        ray.data.from_arrow(docs_tbl)).take_all()
    rows = {(r["source"], r["lang"]): (r["n_docs"], r["sum_chars"])
            for r in out}
    fine = collections.defaultdict(lambda: [0, 0])
    for s, l, n in zip(docs_tbl["source"].to_pylist(),
                       docs_tbl["lang"].to_pylist(),
                       docs_tbl["n_chars"].to_pylist()):
        for key in ((s, l), (s, "ALL"), ("ALL", l), ("ALL", "ALL")):
            fine[key][0] += 1
            fine[key][1] += int(n)
    assert rows == {k: tuple(v) for k, v in fine.items()}
    # all four grouping sets present
    assert ("ALL", "ALL") in rows and any(k[0] == "ALL" and k[1] != "ALL"
                                          for k in rows)


def test_user_paths_ordered(tpc_tables):
    import ray.data
    from onestools_eventlog_ray.pipelines import streaming
    ev = pq.read_table(os.path.join(SF_DIR, "events.parquet"),
                       columns=["user_id", "ts", "event_id", "event_type"])
    out = {r["user_id"]: r for r in streaming.user_event_paths(
        ray.data.from_arrow(ev)).take_all()}
    per_user = collections.defaultdict(list)
    for u, t, i, e in zip(ev["user_id"].to_pylist(), ev["ts"].to_pylist(),
                          ev["event_id"].to_pylist(),
                          ev["event_type"].to_pylist()):
        per_user[int(u)].append((int(t.timestamp() * 1e6), int(i), e))
    for u, evs in per_user.items():
        evs.sort()
        assert out[u]["path"] == ">".join(e for _, _, e in evs)
        assert out[u]["n_events"] == len(evs)


def test_event_transitions_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines import streaming
    ev = pq.read_table(os.path.join(SF_DIR, "events.parquet"),
                       columns=["user_id", "ts", "event_id", "event_type"])
    out = {(r["prev_type"], r["next_type"]): r["n"] for r in
           streaming.event_transitions(ray.data.from_arrow(ev)).take_all()}
    per_user = collections.defaultdict(list)
    for u, t, i, e in zip(ev["user_id"].to_pylist(), ev["ts"].to_pylist(),
                          ev["event_id"].to_pylist(),
                          ev["event_type"].to_pylist()):
        per_user[int(u)].append((int(t.timestamp() * 1e6), int(i), e))
    want = collections.Counter()
    for evs in per_user.values():
        evs.sort()
        seq = [e for _, _, e in evs]
        want.update(zip(seq[:-1], seq[1:]))
    assert out == dict(want)


# ---- source-format independence ------------------------------------------

def test_jsonl_build_matches_parquet_build(index_dir, docs_tbl, tmp_path):
    """The SAME docs from JSONL build to an index with identical stats
    and identical BM25 ranking (source-format independence)."""
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.pipelines.build import build_index
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC
    jpath = str(tmp_path / "docs.jsonl")
    docs_tbl.to_pandas().to_json(jpath, orient="records", lines=True)
    jidx = str(tmp_path / "jidx")
    build_index(jpath, jidx, spec=DOCUMENTS_SPEC,
                cfg=EngineConfig(num_partitions=4), corpus_fmt="jsonl")
    a, b = SearchEngine(index_dir), SearchEngine(jidx)
    assert (a.N, a.avgdl) == (b.N, b.avgdl)
    assert a.search(TERMS, 20) == b.search(TERMS, 20)


def test_jsonl_rejects_pushdown_filters(tmp_path):
    from onestools_eventlog_ray.pipelines.build import build_index
    from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC
    with pytest.raises(ValueError):
        build_index("x.jsonl", str(tmp_path / "i"), spec=DOCUMENTS_SPEC,
                    corpus_fmt="jsonl", exclude_doc_ids=[1])


# ---- resumable partitioned export ----------------------------------------

def test_export_partitioned_resume(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq2
    import ray.data
    import shutil
    from onestools_eventlog_ray.pipelines.export import export_partitioned
    ev = pq.read_table(os.path.join(SF_DIR, "events.parquet"),
                       columns=["event_id", "event_type", "value"])
    out = str(tmp_path / "exp")
    man1 = export_partitioned(ray.data.from_arrow(ev), out, "event_type")
    counts = collections.Counter(ev["event_type"].to_pylist())
    assert dict(zip(man1["partition"].to_pylist(),
                    man1["n_rows"].to_pylist())) == dict(counts)
    assert not any(man1["skipped"].to_pylist())
    # files actually contain the rows
    total = 0
    for p in sorted(os.listdir(out)):
        t = pq2.read_table(os.path.join(out, p, "part-0.parquet"))
        total += t.num_rows
        assert os.path.exists(os.path.join(out, p, "_SUCCESS"))
    assert total == ev.num_rows
    # delete ONE partition -> only it rebuilds
    victim = sorted(os.listdir(out))[0]
    shutil.rmtree(os.path.join(out, victim))
    man2 = export_partitioned(ray.data.from_arrow(ev), out, "event_type")
    skipped = dict(zip(man2["partition"].to_pylist(),
                       man2["skipped"].to_pylist()))
    assert sum(1 for v in skipped.values() if not v) == 1
    assert dict(zip(man2["partition"].to_pylist(),
                    man2["n_rows"].to_pylist())) == dict(counts)


# ---- pagerank step + grouped heavy hitters -------------------------------

def test_pagerank_step_bruteforce(docs_tbl):
    import ray.data
    from onestools_eventlog_ray.pipelines import dedup
    from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC
    out = {r["doc_id"]: r["rank_e12"] for r in dedup.pagerank_step(
        ray.data.from_arrow(docs_tbl), DOCUMENTS_SPEC,
        min_jaccard=0.2).take_all()}
    pairs = [(r["doc_a"], r["doc_b"]) for r in dedup.minhash_verified_pairs(
        ray.data.from_arrow(docs_tbl), DOCUMENTS_SPEC,
        min_jaccard=0.2).take_all()]
    adj = collections.defaultdict(set)
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    n = len(adj)
    base = 10**12 // n
    want = {}
    for v, nbrs in adj.items():
        want[v] = (15 * base) // 100 + sum(
            (85 * (base // len(adj[u]))) // 100 for u in nbrs)
    assert out == want and out
    # ranks sum to ~1 (floor losses only)
    assert 0 < sum(out.values()) <= 10**12


def test_top_terms_per_lang_bruteforce(docs_tbl):
    import ray.data
    from onestools_eventlog_ray.pipelines import text
    from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC
    out = [(r["lang"], r["rank"], r["term"], r["n"]) for r in
           text.top_terms_per_lang(ray.data.from_arrow(docs_tbl),
                                   DOCUMENTS_SPEC, k=5).take_all()]
    counts = collections.defaultdict(collections.Counter)
    for t, lang in zip(docs_tbl["text"].to_pylist(),
                       docs_tbl["lang"].to_pylist()):
        counts[lang].update(_tok(t))
    want = []
    for lang in sorted(counts):
        rows = sorted(counts[lang].items(), key=lambda x: (-x[1], x[0]))[:5]
        want += [(lang, i + 1, t, n) for i, (t, n) in enumerate(rows)]
    assert out == want


# ---- table profiling -----------------------------------------------------

def test_profile_table_bruteforce():
    import pyarrow as pa
    import ray.data
    from onestools_eventlog_ray.pipelines import relational
    t = pa.table({
        "s": pa.array(["a", "b", None, "a", "c"]),
        "x": pa.array([1.5, None, 2.5, 1.5, -3.0], pa.float64()),
    })
    out = {r["column"]: r for r in relational.profile_table(
        ray.data.from_arrow(t), ["s", "x"],
        numeric_cols=("x",)).to_pylist()}
    assert out["s"] == {"column": "s", "n": 5, "n_nulls": 1,
                        "n_distinct": 3, "min_e6": None, "max_e6": None}
    assert out["x"] == {"column": "x", "n": 5, "n_nulls": 1,
                        "n_distinct": 3, "min_e6": -3_000_000,
                        "max_e6": 2_500_000}


def test_profile_events_counts():
    import ray.data
    from onestools_eventlog_ray.pipelines import relational
    ev = pq.read_table(os.path.join(SF_DIR, "events.parquet"),
                       columns=["event_type", "user_id", "value"])
    out = {r["column"]: r for r in relational.profile_table(
        ray.data.from_arrow(ev), ["event_type", "user_id", "value"],
        numeric_cols=("user_id", "value")).to_pylist()}
    assert out["event_type"]["n_distinct"] == \
        len(set(ev["event_type"].to_pylist()))
    assert out["user_id"]["n_distinct"] == \
        len(set(ev["user_id"].to_pylist()))
    assert out["value"]["n_distinct"] == len(set(ev["value"].to_pylist()))
    assert all(r["n"] == ev.num_rows for r in out.values())


# ---- bounded BM25 requests and the hybrid kNN component ---------------

@pytest.fixture
def asks(monkeypatch):
    """Every ``k`` asked of ``SearchEngine.search`` and ``search_dsl``.
    ``es_search`` reached ``search_dsl`` through its own module's name,
    so that name is wrapped too."""
    from onestools_eventlog_ray.pipelines import dsl
    seen: list[int] = []
    search = SearchEngine.search
    search_dsl = Q.search_dsl

    def rec_search(self, terms, k=10, *a, **kw):
        seen.append(k)
        return search(self, terms, k, *a, **kw)

    def rec_dsl(eng, terms, k=10, **kw):
        seen.append(k)
        return search_dsl(eng, terms, k, **kw)

    monkeypatch.setattr(SearchEngine, "search", rec_search)
    monkeypatch.setattr(dsl, "search_dsl", rec_dsl, raising=False)
    return seen


def _es_filtered(eng, _idx):
    from onestools_eventlog_ray.pipelines.dsl import es_search
    return es_search(eng, {"bool": {
        "should": [{"match": {"text": " ".join(TERMS)}}],
        "filter": [{"term": {"lang": "en"}}]}}, k=10)


def _proximity(eng, idx):
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.pipelines.phrase import (
        PhraseEngine, build_position_index, proximity_rerank)
    from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC
    if not os.path.isdir(os.path.join(idx, "positions")):
        build_position_index(os.path.join(SF_DIR, "documents.parquet"),
                             idx, spec=DOCUMENTS_SPEC,
                             cfg=EngineConfig(num_partitions=16))
    return proximity_rerank(eng, PhraseEngine(idx), TERMS, window_k=30,
                            k=10)


def _hybrid(eng, _idx):
    import ray.data
    from onestools_eventlog_ray.pipelines.hybrid import hybrid_rrf
    emb = ray.data.read_parquet(os.path.join(SF_DIR, "embeddings.parquet"),
                                columns=["vec_id", "embedding"])
    return hybrid_rrf(eng, emb, TERMS, query_vec_id=0, k=10, window=30)


# caller -> (call, the most hits it may ask for: its own k, window,
# window_k or fb_docs; 0 for callers that keep every match as arrays)
BOUNDED = {
    "search_filtered": (lambda e, _: e.search_filtered(
        TERMS, {"lang": "en"}, k=5, tie="e6"), 5),
    "search_page": (lambda e, _: Q.search_page(e, TERMS, None, k=10), 10),
    "highlight_snippets": (lambda e, _: Q.highlight_snippets(
        e, TERMS, k=5), 5),
    "search_collapse": (lambda e, _: Q.search_collapse(
        e, TERMS, "lang"), 0),
    "rank_correlation": (lambda e, _: Q.rank_correlation(
        e, TERMS, k=20), 20),
    "prf_search": (lambda e, _: Q.prf_search(
        e, TERMS, fb_docs=5, k=10), 10),
    "search_rescore": (lambda e, _: Q.search_rescore(
        e, TERMS, ["data"], window=30, k=10), 30),
    "bm25_eval": (lambda e, _: Q.bm25_eval(e, TERMS, k=10), 10),
    "search_random_score": (lambda e, _: Q.search_random_score(
        e, TERMS, k=10), 10),
    "rank_eval": (lambda e, _: Q.rank_eval(
        e, [("a", TERMS), ("b", TERMS[:1])], k=10), 10),
    "score_histogram": (lambda e, _: Q.score_histogram(e, TERMS), 0),
    "es_search_filter": (_es_filtered, 10),
    "proximity_rerank": (_proximity, 30),
    "hybrid_rrf": (_hybrid, 30),
}


@pytest.mark.parametrize("caller", sorted(BOUNDED))
def test_caller_asks_a_bounded_top_k(caller, index_dir, asks):
    call, bound = BOUNDED[caller]
    call(SearchEngine(index_dir), index_dir)
    assert max(asks, default=0) <= bound, (caller, asks)


def test_knn_ranks_reads_any_id_column(index_dir):
    """``knn_cosine`` names its ids ``vec_id``; an embeddings table keyed
    by ``doc_id`` must rank the same as the ``vec_id`` one."""
    import ray.data
    from onestools_eventlog_ray.pipelines.hybrid import (hybrid_rrf,
                                                         knn_ranks)
    emb = pq.read_table(os.path.join(SF_DIR, "embeddings.parquet"),
                        columns=["vec_id", "embedding"]).slice(0, 120)
    by_doc = ray.data.from_arrow(pa.table({"doc_id": emb["vec_id"],
                                           "embedding": emb["embedding"]}))
    by_vec = ray.data.from_arrow(emb)
    got = knn_ranks(by_doc, 0, 8, id_col="doc_id")
    vecs = np.asarray(emb["embedding"].to_pylist(), dtype=np.float64)
    vid = np.asarray(emb["vec_id"].to_pylist(), dtype=np.int64)
    q = vecs[vid == 0][0]
    cos = vecs @ q / (np.linalg.norm(vecs, axis=1) * np.linalg.norm(q))
    keep = vid != 0
    order = np.lexsort((vid[keep], -cos[keep]))[:8]
    assert got == {int(vid[keep][i]): r for r, i in enumerate(order, 1)}
    eng = SearchEngine(index_dir)
    assert hybrid_rrf(eng, by_doc, TERMS, 0, window=20, id_col="doc_id") \
        .equals(hybrid_rrf(eng, by_vec, TERMS, 0, window=20))
