"""Round-3 session-7 brute-force tests: SemDeDup, product
quantization, and DSIR importance weights."""
import hashlib
import os
import re
from collections import Counter
from math import floor, log

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF_DIR = "/root/testdata/sf0.001"


def _tok(text):
    return [t for t in re.split(r"[^a-z0-9_]+", text.lower()) if t]


def _q(v, scale=10_000):
    return [int(floor(float(x) * scale + 0.5)) for x in v]


@pytest.fixture(scope="module")
def emb_small():
    """12 deterministic unit-ish vectors, dim 8, with planted near-dups:
    vec 10 = vec 2 exactly, vec 11 = slightly-perturbed vec 3."""
    rng = np.random.default_rng(7)
    m = rng.normal(size=(12, 8)).astype(np.float64)
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    m[10] = m[2]
    m[11] = m[3] + 0.001 * m[0]
    m[11] /= np.linalg.norm(m[11])
    return pa.table({
        "vec_id": pa.array(np.arange(12, dtype=np.int64)),
        "embedding": pa.array([list(r) for r in m.astype(np.float32)],
                              pa.list_(pa.float32())),
    })


def _brute_semdedup(tbl, k, tau_e4):
    ids = tbl["vec_id"].to_pylist()
    vecs = {i: _q(v) for i, v in zip(ids, tbl["embedding"].to_pylist())}
    cent_ids = sorted(ids)[:k]
    assign = {}
    for i in ids:
        best = None
        for ck in cent_ids:
            d2 = sum((a - b) ** 2 for a, b in zip(vecs[i], vecs[ck]))
            if best is None or (d2, ck) < best:
                best = (d2, ck)
        assign[i] = best[1]
    keep = {}
    for j in sorted(ids):
        dup = False
        nb = sum(x * x for x in vecs[j])
        for i in sorted(ids):
            if i >= j or assign[i] != assign[j]:
                continue
            dot = sum(a * b for a, b in zip(vecs[i], vecs[j]))
            na = sum(x * x for x in vecs[i])
            if dot > 0 and dot * dot * 10 ** 8 >= tau_e4 ** 2 * na * nb:
                dup = True
                break
        keep[j] = 0 if dup else 1
    return assign, keep


def test_semdedup_bruteforce(emb_small):
    import ray.data
    from onestools_eventlog_ray.pipelines.similarity import semdedup
    out = semdedup(ray.data.from_arrow(emb_small), k=3, tau_e4=9500) \
        .take_all()
    assign, keep = _brute_semdedup(emb_small, k=3, tau_e4=9500)
    assert len(out) == 12
    for r in out:
        assert r["cluster"] == assign[r["vec_id"]]
        assert r["keep"] == keep[r["vec_id"]]
    # the planted exact dup (10=2) and near-dup (11~3) must be dropped
    got = {r["vec_id"]: r["keep"] for r in out}
    assert got[10] == 0
    assert got[11] == 0
    assert got[2] == 1 and got[3] == 1


def test_semdedup_sf0001():
    import ray.data
    from onestools_eventlog_ray.pipelines.similarity import semdedup
    emb = ray.data.read_parquet(os.path.join(SF_DIR, "embeddings.parquet"),
                                columns=["vec_id", "embedding"])
    out = semdedup(emb).take_all()
    tbl = pq.read_table(os.path.join(SF_DIR, "embeddings.parquet"),
                        columns=["vec_id", "embedding"])
    assign, keep = _brute_semdedup(tbl, k=8, tau_e4=9500)
    assert len(out) == tbl.num_rows
    for r in out:
        assert (r["cluster"], r["keep"]) == \
            (assign[r["vec_id"]], keep[r["vec_id"]])


def test_pq_codes_bruteforce(emb_small):
    import ray.data
    from onestools_eventlog_ray.pipelines.similarity import pq_codes
    out = pq_codes(ray.data.from_arrow(emb_small), m=2, ksub=4).take_all()
    ids = emb_small["vec_id"].to_pylist()
    vecs = {i: _q(v) for i, v in
            zip(ids, emb_small["embedding"].to_pylist())}
    cent_ids = sorted(ids)[:4]
    got = {(r["vec_id"], r["sub"]): (r["code"], r["d2"]) for r in out}
    assert len(got) == 12 * 2
    for i in ids:
        for s in range(2):
            best = None
            for ck in cent_ids:
                d2 = sum((a - b) ** 2 for a, b in
                         zip(vecs[i][s * 4:(s + 1) * 4],
                             vecs[ck][s * 4:(s + 1) * 4]))
                if best is None or (d2, ck) < best:
                    best = (d2, ck)
            assert got[(i, s)] == (best[1], best[0])
    # a centroid's own subvector encodes to itself with zero error
    for ck in cent_ids:
        for s in range(2):
            assert got[(ck, s)] == (ck, 0)


def test_dsir_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.text import dsir_weights
    tbl = pq.read_table(os.path.join(SF_DIR, "documents.parquet"))
    out = dsir_weights(ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet"))).take_all()

    B = 1024

    def bucket(term):
        return int.from_bytes(hashlib.md5(term.encode()).digest()[8:16],
                              "little") % B

    raw = Counter()
    tgt = Counter()
    doc_toks = {}
    for d, txt, lang in zip(tbl["doc_id"].to_pylist(),
                            tbl["text"].to_pylist(),
                            tbl["lang"].to_pylist()):
        bks = [bucket(t) for t in _tok(txt)]
        doc_toks[d] = bks
        raw.update(bks)
        if lang == "en":
            tgt.update(bks)
    R, T = sum(raw.values()), sum(tgt.values())
    lr = {b: int(floor(log((tgt[b] + 1) * (R + B)
                           / ((T + B) * (raw[b] + 1))) * 1e6 + 0.5))
          for b in raw}
    got = {r["doc_id"]: (r["dl"], r["weight_e6"]) for r in out}
    want = {d: (len(bks), sum(lr[b] for b in bks))
            for d, bks in doc_toks.items() if bks}
    assert got == want
    # target-language docs should on average score higher
    langs = dict(zip(tbl["doc_id"].to_pylist(), tbl["lang"].to_pylist()))
    en = [w for d, (_, w) in got.items() if langs[d] == "en"]
    other = [w for d, (_, w) in got.items() if langs[d] != "en"]
    assert np.mean(en) > np.mean(other)


@pytest.fixture(scope="module")
def h_index(tmp_path_factory, small_corpus_dir):
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.pipelines.build import build_index
    index_dir = str(tmp_path_factory.mktemp("h_index"))
    build_index(small_corpus_dir, index_dir,
                cfg=EngineConfig(num_partitions=8))
    return index_dir


def test_bpe_pairs_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.text import bpe_pair_counts
    tbl = pq.read_table(os.path.join(SF_DIR, "documents.parquet"))
    want = Counter()
    for txt in tbl["text"].to_pylist():
        for t in _tok(txt):
            for i in range(len(t) - 1):
                want[t[i:i + 2]] += 1
    exp = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))[:20]
    out = bpe_pair_counts(ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet"))).take_all()
    assert [(r["pair"], r["n"]) for r in out] == exp


def test_scroll_all_complete(h_index):
    from onestools_eventlog_ray.pipelines.query import (SearchEngine,
                                                        scroll_all)
    eng = SearchEngine(h_index)
    full = eng.search(["def", "import"], k=1 << 62)
    ids = np.asarray([d for d, _ in full], dtype=np.int64)
    e6 = np.floor(np.asarray([s for _, s in full]) * 1e6 + 0.5) \
        .astype(np.int64)
    order = np.lexsort((ids, -e6))
    out = scroll_all(eng, ["def", "import"], k=7).to_pylist()
    # complete, absolute-ranked, disjoint, right page numbers
    assert len(out) == ids.size
    for i, r in enumerate(out):
        assert r["rank"] == i + 1
        assert r["page"] == i // 7 + 1
        assert r["doc_id"] == int(ids[order][i])
        assert r["score_e6"] == int(e6[order][i])
    # zero-hit query -> empty table with schema
    empty = scroll_all(eng, ["zzznope"], k=5)
    assert empty.num_rows == 0
    assert empty.column_names == ["page", "rank", "doc_id", "score_e6"]


def test_q10_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.relational import \
        q10_returned_revenue
    sf = lambda t: os.path.join(SF_DIR, f"{t}.parquet")
    li = pq.read_table(sf("lineitem"))
    orders = pq.read_table(sf("orders"))
    cust = pq.read_table(sf("customer"))
    nat = pq.read_table(sf("nation"))
    o2c = dict(zip(orders["o_orderkey"].to_pylist(),
                   orders["o_custkey"].to_pylist()))
    rev = Counter()
    for ok, rf, p, d in zip(li["l_orderkey"].to_pylist(),
                            li["l_returnflag"].to_pylist(),
                            li["l_extendedprice"].to_pylist(),
                            li["l_discount"].to_pylist()):
        if rf == "R":
            rev[o2c[ok]] += int(np.floor(p * 100 + 0.5)) \
                * int(np.floor((1 - d) * 100 + 0.5))
    top = sorted(rev.items(), key=lambda kv: (-kv[1], kv[0]))[:20]
    cmeta = {c: (n, nk) for c, n, nk in zip(cust["c_custkey"].to_pylist(),
                                            cust["c_name"].to_pylist(),
                                            cust["c_nationkey"].to_pylist())}
    nmap = dict(zip(nat["n_nationkey"].to_pylist(),
                    nat["n_name"].to_pylist()))
    out = q10_returned_revenue(
        ray.data.read_parquet(sf("customer")),
        ray.data.read_parquet(sf("orders")),
        ray.data.read_parquet(sf("lineitem")),
        ray.data.read_parquet(sf("nation"))).to_pylist()
    assert len(out) == 20
    for r, (ck, rv) in zip(out, top):
        assert r["c_custkey"] == ck
        assert r["revenue_e4"] == rv
        assert r["c_name"] == cmeta[ck][0]
        assert r["n_name"] == nmap[cmeta[ck][1]]


def test_proximity_rerank_bruteforce(h_index, small_corpus_dir):
    import ray  # noqa: F401
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.pipelines.phrase import (
        PhraseEngine, build_position_index, proximity_rerank)
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    build_position_index(small_corpus_dir, h_index,
                         cfg=EngineConfig(num_partitions=8))
    eng = SearchEngine(h_index)
    peng = PhraseEngine(h_index)
    terms = ["def", "import"]
    out = proximity_rerank(eng, peng, terms, window_k=30, k=10).to_pylist()
    # brute-force: same top-30 cut, min window per doc from raw text
    corpus = pq.read_table(os.path.join(small_corpus_dir))
    from onestools_eventlog_ray.functions.hashing import doc_id_from_keys
    ids = doc_id_from_keys(corpus["repo"], corpus["path"],
                           corpus["commit"]).to_pylist()
    toks = {d: _tok(t) for d, t in zip(ids, corpus["content"].to_pylist())}
    hits = eng.search(terms, k=1 << 62)
    hid = np.asarray([d for d, _ in hits], dtype=np.int64)
    he6 = np.floor(np.asarray([s for _, s in hits]) * 1e6 + 0.5) \
        .astype(np.int64)
    order = np.lexsort((hid, -he6))[:30]
    cand = hid[order]

    def brute_win(d):
        tk = toks[d]
        best = None
        for i, t in enumerate(tk):
            if t != terms[0]:
                continue
            for j, u in enumerate(tk):
                if u != terms[1]:
                    continue
                w = abs(i - j) + 1
                best = w if best is None else min(best, w)
        return best

    wins = {int(d): brute_win(int(d)) for d in cand}
    exp = sorted(
        ((int(d), int(s)) for d, s in zip(cand, he6[order])),
        key=lambda x: (wins[x[0]] is None,
                       wins[x[0]] if wins[x[0]] is not None else 0,
                       -x[1], x[0]))[:10]
    assert [(r["doc_id"], r["win_len"], r["score_e6"]) for r in out] == \
        [(d, wins[d], s) for d, s in exp]


def test_suggest_phrase_synthetic(tmp_path):
    import ray.data
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.pipelines.build import build_index
    from onestools_eventlog_ray.pipelines.query import suggest_phrase
    from onestools_eventlog_ray.sources.corpus import CorpusSpec
    docs = pa.table({
        "repo": pa.array(["r"] * 4), "path": pa.array(["a", "b", "c", "d"]),
        "commit": pa.array(["c"] * 4), "lang": pa.array(["py"] * 4),
        "content": pa.array([
            "cat hat mat cat hat",       # 'cat hat' x2
            "cat hat bat mat rat",       # 'cat hat' again
            "bat mat bat hat",           # 'bat mat', 'bat hat'
            "car hat car mat",           # 'car hat', 'car mat'
        ]),
    })
    src = str(tmp_path / "corpus.parquet")
    pq.write_table(docs, src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, cfg=EngineConfig(num_partitions=4))
    out = suggest_phrase(idx, ray.data.read_parquet(src), ("cet", "hat"),
                         k=5, content_col="content").to_pylist()
    # candidates for 'cet': cat, car(no: lev2? c-e-t vs c-a-r = 2) -> cat
    # actually: cat (1 sub), bat? b+at vs c+et = 2 subs -> no
    # candidates for 'hat': hat, bat, mat, rat, cat
    # observed bigrams: cat hat(3), bat hat(1), car hat(2)... but term1
    # must be lev<=1 of 'cet' -> only 'cat': pairs (cat,hat)=3,(cat,?)..
    want = [(1, "cat", "hat", 3)]
    assert [(r["rank"], r["term1"], r["term2"], r["n"]) for r in out] == want


def test_dedup_savings_consistent():
    import ray.data
    from onestools_eventlog_ray.pipelines.dedup import (dedup_clusters,
                                                        dedup_savings)
    ds = ray.data.read_parquet(os.path.join(SF_DIR, "documents.parquet"))
    from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC
    clusters = dedup_clusters(ds, DOCUMENTS_SPEC, min_jaccard=0.2)
    out = dedup_savings(ds, DOCUMENTS_SPEC, min_jaccard=0.2).to_pylist()
    tbl = pq.read_table(os.path.join(SF_DIR, "documents.parquet"))
    dl = {d: len(_tok(t)) for d, t in zip(tbl["doc_id"].to_pylist(),
                                          tbl["text"].to_pylist())}
    want = {}
    for d, rep in zip(clusters["doc_id"].to_pylist(),
                      clusters["rep_id"].to_pylist()):
        a = want.setdefault(rep, [0, 0])
        a[0] += 1
        a[1] += dl[d]
    assert len(out) == len(want)
    saved = None
    for r in out:
        n, tot = want[r["rep_id"]]
        assert (r["n_members"], r["tokens_total"]) == (n, tot)
        assert r["tokens_saved"] == tot - dl[r["rep_id"]]
        assert r["n_members"] >= 2            # clusters come from pairs
        if saved is not None:                  # output ordering contract
            assert (-r["tokens_saved"], r["rep_id"]) >= saved
        saved = (-r["tokens_saved"], r["rep_id"])


def test_ann_recall_bruteforce(tmp_path):
    import ray.data
    from onestools_eventlog_ray.pipelines.ann import (ann_recall_report,
                                                      build_ann_index,
                                                      probe_buckets)
    from onestools_eventlog_ray.pipelines.similarity import (lsh_planes,
                                                             quantize_e6)
    src = os.path.join(SF_DIR, "embeddings.parquet")
    idx = str(tmp_path / "ann_idx")
    ds = ray.data.read_parquet(src, columns=["vec_id", "embedding"])
    build_ann_index(ds, idx, dim=64, nbits=6, seed=42)
    out = ann_recall_report(idx, ds, [3, 1, 4], k=10).to_pylist()

    tbl = pq.read_table(src, columns=["vec_id", "embedding"])
    ids = np.asarray(tbl["vec_id"].to_pylist(), dtype=np.int64)
    m = np.asarray(tbl["embedding"].to_pylist(), dtype=np.float64)
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    planes = lsh_planes(64, 6, 42)
    signs = (quantize_e6(m) @ planes.T) > 0
    bucket = (signs * (1 << np.arange(6))).sum(axis=1)

    assert [r["query_id"] for r in out] == [1, 3, 4]
    for r in out:
        q = r["query_id"]
        qi = int(np.flatnonzero(ids == q)[0])
        cos = mn @ mn[qi]
        e6 = np.floor(cos * 1e6 + 0.5).astype(np.int64)
        mask = ids != q
        order = np.lexsort((ids[mask], -e6[mask]))[:10]
        exact = set(ids[mask][order].tolist())
        probes = set(probe_buckets(int(bucket[qi]), 6, 1))
        cmask = mask & np.isin(bucket, list(probes))
        corder = np.lexsort((ids[cmask], -e6[cmask]))[:10]
        ann = set(ids[cmask][corder].tolist())
        hits = len(exact & ann)
        assert r["n_hits"] == hits
        assert r["recall_e6"] == hits * 10 ** 6 // 10


def test_kmeans_train_bruteforce(emb_small):
    import ray.data
    from onestools_eventlog_ray.pipelines.similarity import kmeans_train
    out = kmeans_train(ray.data.from_arrow(emb_small), k=3, iters=2) \
        .to_pylist()
    ids = emb_small["vec_id"].to_pylist()
    x = np.asarray([[int(floor(float(v) * 1e6 + 0.5)) for v in row]
                    for row in emb_small["embedding"].to_pylist()],
                   dtype=np.int64)
    cents = x[np.argsort(ids)[:3]].copy()
    for _ in range(2):
        d2 = ((x[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        a = np.argmin(d2, axis=1)
        new = cents.copy()
        for c in range(3):
            pts = x[a == c]
            if len(pts):
                s = pts.sum(axis=0)
                q = np.abs(s) // len(pts)
                new[c] = np.where(s < 0, -q, q)
        cents = new
    got = {(r["ck"], r["dim"]): r["c_e6"] for r in out}
    assert len(got) == 3 * x.shape[1]
    for c in range(3):
        for d in range(x.shape[1]):
            assert got[(c, d)] == int(cents[c, d])


def test_hybrid_rrf_bruteforce(h_index, small_corpus):
    import ray.data
    from onestools_eventlog_ray.pipelines.hybrid import hybrid_rrf
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    # synthetic embedding table sharing the BM25 doc_id space
    from onestools_eventlog_ray.functions.hashing import doc_id_from_keys
    ids = doc_id_from_keys(small_corpus["repo"], small_corpus["path"],
                           small_corpus["commit"]).to_pylist()[:40]
    rng = np.random.default_rng(3)
    m = rng.normal(size=(40, 16))
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    emb = pa.table({"vec_id": pa.array(ids, pa.int64()),
                    "embedding": pa.array([list(r) for r in
                                           m.astype(np.float32)],
                                          pa.list_(pa.float32()))})
    eng = SearchEngine(h_index)
    out = hybrid_rrf(eng, ray.data.from_arrow(emb), ["def", "import"],
                     query_vec_id=ids[0], k=8, window=10).to_pylist()
    # brute force both components
    hits = eng.search(["def", "import"], k=1 << 62)
    hid = np.asarray([d for d, _ in hits], dtype=np.int64)
    he6 = np.floor(np.asarray([s for _, s in hits]) * 1e6 + 0.5) \
        .astype(np.int64)
    order = np.lexsort((hid, -he6))[:10]
    br = {int(hid[i]): r for r, i in enumerate(order, 1)}
    q = np.asarray(emb["embedding"][0].as_py(), dtype=np.float64)
    qn = q / np.linalg.norm(q)
    mm = np.asarray([list(map(float, v)) for v in
                     emb["embedding"].to_pylist()], dtype=np.float64)
    mm /= np.linalg.norm(mm, axis=1, keepdims=True)
    cos = mm @ qn
    vid = np.asarray(ids, dtype=np.int64)
    mask = vid != ids[0]
    o2 = np.lexsort((vid[mask], -cos[mask]))[:10]
    kr = {int(vid[mask][i]): r for r, i in enumerate(o2, 1)}
    fused = sorted((( (10**9 // (60 + br[d]) if d in br else 0)
                    + (10**9 // (60 + kr[d]) if d in kr else 0), -d)
                    for d in set(br) | set(kr)), reverse=True)[:8]
    assert [(r["rrf_e9"], -r["doc_id"]) for r in out] == fused
    # every fused row carries its component ranks
    for r in out:
        assert r["bm25_rank"] == br.get(r["doc_id"])
        assert r["knn_rank"] == kr.get(r["doc_id"])


def test_significant_terms_fg_ids():
    import ray.data
    from onestools_eventlog_ray.pipelines.text import significant_terms
    tbl = pq.read_table(os.path.join(SF_DIR, "documents.parquet"))
    fg_ids = [d for d, t in zip(tbl["doc_id"].to_pylist(),
                                tbl["text"].to_pylist())
              if "spark" in _tok(t)]
    out = significant_terms(
        ray.data.read_parquet(os.path.join(SF_DIR, "documents.parquet")),
        min_df_fg=5, k=10, fg_doc_ids=fg_ids).take_all()
    # brute force the lift ranking
    n_docs = tbl.num_rows
    n_fg = len(fg_ids)
    fg = set(fg_ids)
    df = Counter()
    dfg = Counter()
    for d, t in zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()):
        for term in set(_tok(t)):
            df[term] += 1
            if d in fg:
                dfg[term] += 1
    rows = [(t, dfg[t], df[t],
             (2 * dfg[t] * n_docs * 10**6 + n_fg * df[t])
             // (2 * n_fg * df[t]))
            for t in df if dfg[t] >= 5]
    rows.sort(key=lambda x: (-x[3], -x[1], x[0]))
    assert [(r["term"], r["df_fg"], r["df"], r["lift_e6"])
            for r in out] == rows[:10]


def test_rag_chunks_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.text import rag_chunks
    tbl = pq.read_table(os.path.join(SF_DIR, "documents.parquet"))
    out = rag_chunks(ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet")),
        size=32, stride=16).take_all()
    want = []
    for d, txt in zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()):
        tk = _tok(txt)
        c = 0
        while c * 16 < len(tk):
            chunk = tk[c * 16:c * 16 + 32]
            h = int.from_bytes(
                hashlib.md5(" ".join(chunk).encode()).digest()[8:16],
                "little") >> 1
            want.append((d, c, len(chunk), h))
            c += 1
    got = sorted((r["doc_id"], r["chunk_id"], r["n_tokens"], r["chunk_h"])
                 for r in out)
    assert got == sorted(want)
    # overlap invariant: consecutive chunks share stride..size tokens
    assert all(n <= 32 for _, _, n, _ in got)


def test_langid_trained_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.text import langid_trained
    tbl = pq.read_table(os.path.join(SF_DIR, "documents.parquet"))
    out = langid_trained(ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet"))).take_all()

    def tris(txt):
        for t in _tok(txt):
            for i in range(len(t) - 2):
                yield t[i:i + 3]

    train = Counter()
    for d, txt, lg in zip(tbl["doc_id"].to_pylist(),
                          tbl["text"].to_pylist(),
                          tbl["lang"].to_pylist()):
        if d % 5 != 0:
            for tr in tris(txt):
                train[(lg, tr)] += 1
    langs = sorted({lg for lg, _ in train})
    prof = {}
    for lg in langs:
        rows = sorted(((-n, tr) for (l2, tr), n in train.items()
                       if l2 == lg))[:20]
        prof[lg] = {tr for _, tr in rows}
    got = {r["doc_id"]: (r["pred_lang"], r["score"]) for r in out}
    n_checked = 0
    for d, txt in zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()):
        if d % 5 != 0:
            assert d not in got
            continue
        dt = set(tris(txt))
        scores = sorted(((-len(dt & prof[lg]), lg) for lg in langs))
        assert got[d] == (scores[0][1], -scores[0][0])
        n_checked += 1
    assert n_checked == len(got) > 0


def test_containment_vs_jaccard(tmp_path):
    import ray.data
    from onestools_eventlog_ray.pipelines.dedup import \
        minhash_verified_pairs
    # doc B is a strict prefix-subset of doc A: containment must be
    # ~1.0 while jaccard is well below it
    # jaccard = 46/56 ~ 0.82 (bands collide), containment exactly 1.0
    base = " ".join(f"tok{i}" for i in range(60))
    sub = " ".join(f"tok{i}" for i in range(50))
    docs = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array([base, sub]),
        "lang": pa.array(["en", "en"]),
        "source": pa.array(["s", "s"]),
        "n_chars": pa.array([len(base), len(sub)], pa.int64()),
    })
    ds = ray.data.from_arrow(docs)
    cont = minhash_verified_pairs(ds, min_jaccard=0.9,
                                  metric="containment").take_all()
    assert len(cont) == 1
    r = cont[0]
    assert (r["doc_a"], r["doc_b"]) == (1, 2)
    assert r["containment_e6"] == 1_000_000      # exact subset
    jac = minhash_verified_pairs(ds, min_jaccard=0.9,
                                 metric="jaccard").take_all()
    assert jac == []                              # jaccard ~ 46/56 < 0.9


def test_prf_search_expansion(h_index, small_corpus):
    from collections import Counter as C2
    from onestools_eventlog_ray.functions.bm25 import idf as idf_fn
    from onestools_eventlog_ray.pipelines.query import (SearchEngine,
                                                        prf_search)
    eng = SearchEngine(h_index)
    terms = ["def", "import"]
    out = prf_search(eng, terms, fb_docs=5, fb_terms=3, k=10).to_pylist()
    # brute-force the expansion selection, then verify the final
    # ranking equals a plain search on originals + expansion
    hits = eng.search(terms, k=1 << 62)
    ids = np.asarray([d for d, _ in hits], dtype=np.int64)
    e6 = np.floor(np.asarray([s for _, s in hits]) * 1e6 + 0.5) \
        .astype(np.int64)
    fb = ids[np.lexsort((ids, -e6))[:5]]
    docs = eng.fetch_docs(fb.tolist(), columns=["doc_id", "content"])
    tf = C2()
    for c in docs["content"].to_pylist():
        tf.update(_tok(c))
    for t in terms:
        tf.pop(t, None)
    loaded = eng.load_terms(sorted(tf))
    exp = [t for _, t in sorted(
        (-(tf[t] * idf_fn(eng.N, df)), t)
        for t, (df, _) in loaded.items())[:3]]
    hits2 = eng.search(terms + exp, k=1 << 62)
    ids2 = np.asarray([d for d, _ in hits2], dtype=np.int64)
    e62 = np.floor(np.asarray([s for _, s in hits2]) * 1e6 + 0.5) \
        .astype(np.int64)
    o2 = np.lexsort((ids2, -e62))[:10]
    assert [(r["doc_id"], r["score_e6"]) for r in out] == \
        [(int(d), int(s)) for d, s in zip(ids2[o2], e62[o2])]
    assert len(exp) == 3 and not set(exp) & set(terms)


def test_shared_chunk_pairs_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.text import shared_chunk_pairs
    tbl = pq.read_table(os.path.join(SF_DIR, "documents.parquet"))
    chunks = {}
    for d, txt in zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()):
        tk = _tok(txt)
        hs = set()
        c = 0
        while c * 16 < len(tk):
            hs.add(" ".join(tk[c * 16:c * 16 + 32]))
            c += 1
        chunks[d] = hs
    want = {}
    docs = sorted(chunks)
    inv = {}
    for d, hs in chunks.items():
        for h in hs:
            inv.setdefault(h, []).append(d)
    for h, ds_ in inv.items():
        ds_ = sorted(set(ds_))
        for i in range(len(ds_)):
            for j in range(i + 1, len(ds_)):
                want[(ds_[i], ds_[j])] = want.get((ds_[i], ds_[j]), 0) + 1
    out = shared_chunk_pairs(ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet"))).take_all()
    got = {(r["doc_a"], r["doc_b"]): r["n_shared"] for r in out}
    assert got == want


def test_frequent_term_pairs_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.text import frequent_term_pairs
    tbl = pq.read_table(os.path.join(SF_DIR, "documents.parquet"))
    cnt = Counter()
    for txt in tbl["text"].to_pylist():
        ts = sorted(set(_tok(txt)))
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                cnt[(ts[i], ts[j])] += 1
    want = {p: n for p, n in cnt.items() if n >= 50}
    out = frequent_term_pairs(ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet")),
        min_support=50).take_all()
    got = {(r["term_a"], r["term_b"]): r["n_docs"] for r in out}
    assert got == want and len(got) > 0


def test_weak_labels_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.text import weak_labels
    tbl = pq.read_table(os.path.join(SF_DIR, "documents.parquet"))
    out = {r["doc_id"]: (r["n_pos"], r["n_neg"], r["label"])
           for r in weak_labels(ray.data.read_parquet(
               os.path.join(SF_DIR, "documents.parquet"))).take_all()}
    assert len(out) == tbl.num_rows
    pos, neg = {"fast", "small"}, {"slow", "dup"}
    for d, txt in zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()):
        ts = set(_tok(txt))
        np_, nn_ = len(ts & pos), len(ts & neg)
        lab = "pos" if np_ > nn_ else ("neg" if nn_ > np_ else "abstain")
        assert out[d] == (np_, nn_, lab)


def test_curriculum_bruteforce():
    import ray.data
    from math import ceil
    from onestools_eventlog_ray.pipelines.text import curriculum_phases
    tbl = pq.read_table(os.path.join(SF_DIR, "documents.parquet"))
    n_docs = tbl.num_rows
    df = Counter()
    toks = {}
    for d, txt in zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()):
        toks[d] = _tok(txt)
        for t in set(toks[d]):
            df[t] += 1
    idf6 = {t: int(floor(log(1 + (n_docs - c + 0.5) / (c + 0.5)) * 1e6
                         + 0.5)) for t, c in df.items()}
    diff = {d: sum(idf6[t] for t in tk) // len(tk)
            for d, tk in toks.items() if tk}
    s = sorted(diff.values())
    n = len(s)
    t1 = s[ceil(n / 3) - 1]
    t2 = s[ceil(2 * n / 3) - 1]
    out = curriculum_phases(ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet"))).to_pylist()
    assert len(out) == n
    for r in out:
        d = r["doc_id"]
        assert r["difficulty_e6"] == diff[d]
        want = (1 if diff[d] > t1 else 0) + (1 if diff[d] > t2 else 0)
        assert r["phase"] == want
    # phases are balanced within 1 rounding step
    from collections import Counter as C3
    ph = C3(r["phase"] for r in out)
    assert set(ph) <= {0, 1, 2}
    assert max(ph.values()) - min(ph.values()) <= n // 3 + 2


def test_langid_agreement_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.text import (LANG_PROFILES,
                                                       langid_agreement)
    tbl = pq.read_table(os.path.join(SF_DIR, "documents.parquet"))
    profs = {k: v for k, v in LANG_PROFILES.items() if v}
    langs = sorted(profs)
    conf = Counter()
    for txt, true in zip(tbl["text"].to_pylist(),
                         tbl["lang"].to_pylist()):
        tk = _tok(txt)
        hits = [sum(1 for t in tk if t in profs[lg]) for lg in langs]
        best = max(range(len(langs)), key=lambda i: (hits[i], -i))
        pred = langs[best] if hits[best] > 0 else "und"
        conf[(pred, true)] += 1
    out = langid_agreement(ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet"))).to_pylist()
    got = {(r["pred_lang"], r["true_lang"]): r["n_docs"] for r in out}
    kappa = got.pop(("__kappa__", "__kappa__"))
    assert got == dict(conf)
    n = sum(conf.values())
    agree = sum(c for (p, t), c in conf.items() if p == t)
    labels = {p for p, _ in conf} | {t for _, t in conf}
    pe = sum(sum(c for (p, _), c in conf.items() if p == lb)
             * sum(c for (_, t), c in conf.items() if t == lb)
             for lb in labels)
    num = (n * agree - pe) * 10 ** 6
    den = n * n - pe
    q = abs(num) // den
    assert kappa == (-q if num < 0 else q)


def test_count_bool_bruteforce(h_index, small_corpus):
    from onestools_eventlog_ray.pipelines.query import count_bool
    from onestools_eventlog_ray.functions.hashing import doc_id_from_keys
    ids = doc_id_from_keys(small_corpus["repo"], small_corpus["path"],
                           small_corpus["commit"]).to_pylist()
    docs = {d: set(_tok(t)) for d, t in
            zip(ids, small_corpus["content"].to_pylist())}
    tree = {"or": [{"and": ["def", "class"]},
                   {"and": ["import", {"not": "return"}]}]}
    want = sum(1 for ts in docs.values()
               if ("def" in ts and "class" in ts)
               or ("import" in ts and "return" not in ts))
    out = count_bool(h_index, tree).to_pylist()
    assert out == [{"n_docs": want}]
    # nested depth-3 tree + missing term
    tree2 = {"and": ["def", {"or": ["zzznope",
                                    {"and": ["class", {"not": "def"}]}]}]}
    assert count_bool(h_index, tree2).to_pylist() == [{"n_docs": 0}]
    with pytest.raises(ValueError):
        count_bool(h_index, {"and": [{"not": "def"}]})


def test_ann_recall_sweep_monotone(tmp_path):
    import ray.data
    from onestools_eventlog_ray.pipelines.ann import (ann_recall_sweep,
                                                      build_ann_index)
    src = os.path.join(SF_DIR, "embeddings.parquet")
    idx = str(tmp_path / "sweep_idx")
    ds = ray.data.read_parquet(src, columns=["vec_id", "embedding"])
    build_ann_index(ds, idx, dim=64, nbits=6, seed=42)
    out = ann_recall_sweep(idx, ds, [2, 7], k=10,
                           hamming_levels=(0, 1, 2)).to_pylist()
    assert len(out) == 6
    by_q = {}
    for r in out:
        by_q.setdefault(r["query_id"], []).append((r["hamming"],
                                                   r["recall_e6"]))
    for q, rows in by_q.items():
        rows.sort()
        recalls = [r for _, r in rows]
        assert recalls == sorted(recalls)      # monotone in radius


def test_index_diff(tmp_path, small_corpus_dir):
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.pipelines.build import build_index
    from onestools_eventlog_ray.pipelines.incremental import (index_diff,
                                                              reindex)
    src = str(tmp_path / "src")
    build_index(small_corpus_dir, src, cfg=EngineConfig(num_partitions=8))
    dst = str(tmp_path / "dst")
    reindex(src, dst, where={"lang": "py"},
            cfg=EngineConfig(num_partitions=8))
    out = index_diff(src, dst).take_all()
    corpus = pq.read_table(small_corpus_dir)
    from onestools_eventlog_ray.functions.hashing import doc_id_from_keys
    ids = doc_id_from_keys(corpus["repo"], corpus["path"],
                           corpus["commit"]).to_pylist()
    langs = dict(zip(ids, corpus["lang"].to_pylist()))
    assert len(out) == len(set(ids))
    for r in out:
        want = "same" if langs[r["doc_id"]] == "py" else "removed"
        assert r["status"] == want


def test_reindex_empty_filter_refused(tmp_path, small_corpus_dir):
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.pipelines.build import build_index
    from onestools_eventlog_ray.pipelines.incremental import reindex
    src = str(tmp_path / "src2")
    build_index(small_corpus_dir, src, cfg=EngineConfig(num_partitions=8))
    with pytest.raises(ValueError, match="matches no documents"):
        reindex(src, str(tmp_path / "dst2"), where={"lang": "nosuchlang"},
                cfg=EngineConfig(num_partitions=8))


def test_event_trigrams_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.streaming import event_trigrams
    tbl = pq.read_table(os.path.join(SF_DIR, "events.parquet"),
                        columns=["user_id", "ts", "event_id",
                                 "event_type"])
    seqs = {}
    rows = sorted(zip(tbl["user_id"].to_pylist(),
                      [t.timestamp() for t in tbl["ts"].to_pylist()],
                      tbl["event_id"].to_pylist(),
                      tbl["event_type"].to_pylist()))
    for u, _, _, et in rows:
        seqs.setdefault(u, []).append(et)
    cnt = Counter()
    for seq in seqs.values():
        for i in range(len(seq) - 2):
            cnt[tuple(seq[i:i + 3])] += 1
    want = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:20]
    out = event_trigrams(ray.data.read_parquet(
        os.path.join(SF_DIR, "events.parquet"),
        columns=["user_id", "ts", "event_id", "event_type"])).to_pylist()
    assert [((r["t1"], r["t2"], r["t3"]), r["n"]) for r in out] == want


def test_bm25_eval_bruteforce(h_index, small_corpus):
    from onestools_eventlog_ray.pipelines.query import SearchEngine, \
        bm25_eval
    from onestools_eventlog_ray.functions.hashing import doc_id_from_keys
    eng = SearchEngine(h_index)
    terms = ["def", "import"]
    out = bm25_eval(eng, terms, k=10).to_pylist()[0]
    ids = doc_id_from_keys(small_corpus["repo"], small_corpus["path"],
                           small_corpus["commit"]).to_pylist()
    rel = {d for d, t in zip(ids, small_corpus["content"].to_pylist())
           if set(terms) <= set(_tok(t))}
    hits = eng.search(terms, k=1 << 62)
    hid = np.asarray([d for d, _ in hits], dtype=np.int64)
    he6 = np.floor(np.asarray([s for _, s in hits]) * 1e6 + 0.5) \
        .astype(np.int64)
    top = hid[np.lexsort((hid, -he6))[:10]]
    d6 = [int(floor(1e6 / np.log2(r + 1) + 0.5)) for r in range(1, 11)]
    dcg = sum(d for d, doc in zip(d6, top) if int(doc) in rel)
    idcg = sum(d6[:min(len(rel), 10)])
    first = next((i + 1 for i, doc in enumerate(top)
                  if int(doc) in rel), 0)
    assert out["n_relevant"] == len(rel)
    assert out["first_rel_rank"] == first
    assert out["mrr_e6"] == (10**6 // first if first else 0)
    assert out["ndcg_e6"] == (dcg * 10**6 // idcg if idcg else 0)


def test_dup_triangles_planted():
    import ray.data
    from onestools_eventlog_ray.pipelines.dedup import dup_graph_triangles
    # three near-identical docs (a triangle) + one unrelated
    base = " ".join(f"w{i}" for i in range(40))
    docs = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array([base, base + " x1", base + " x2",
                          " ".join(f"z{i}" for i in range(40))]),
        "lang": pa.array(["en"] * 4),
        "source": pa.array(["s"] * 4),
        "n_chars": pa.array([1, 1, 1, 1], pa.int64()),
    })
    out = dup_graph_triangles(ray.data.from_arrow(docs),
                              min_jaccard=0.5).to_pylist()[0]
    assert out == {"n_nodes": 3, "n_edges": 3, "n_triangles": 1,
                   "max_degree": 2}


def test_mix_temperature_bruteforce():
    import ray.data
    from math import sqrt
    from onestools_eventlog_ray.pipelines.mix import mix_weights_temperature
    tbl = pq.read_table(os.path.join(SF_DIR, "documents.parquet"))
    nt = Counter()
    for s, txt in zip(tbl["source"].to_pylist(), tbl["text"].to_pylist()):
        nt[s] += len(_tok(txt))
    total = sum(nt.values())
    s6 = {s: int(floor(sqrt(float(n)) * 1e6 + 0.5)) for s, n in nt.items()}
    ssum = sum(s6.values())
    out = mix_weights_temperature(ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet"))).to_pylist()
    assert len(out) == len(nt)
    for r in out:
        s = r["source"]
        assert r["n_tokens"] == nt[s]
        assert r["sqrt_e6"] == s6[s]
        assert r["target_share_e6"] == s6[s] * 10**6 // ssum
        assert r["weight_e6"] == s6[s] * total * 10**6 // (ssum * nt[s])
    # temperature flattens: small domains get weight < uniform weight
    tgt = sorted(r["target_share_e6"] for r in out)
    assert tgt[-1] - tgt[0] >= 0


def test_source_entropy_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.mix import source_entropy
    tbl = pq.read_table(os.path.join(SF_DIR, "documents.parquet"))
    per_src = {}
    for s, txt in zip(tbl["source"].to_pylist(), tbl["text"].to_pylist()):
        per_src.setdefault(s, Counter()).update(_tok(txt))
    out = source_entropy(ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet"))).take_all()
    assert len(out) == len(per_src)
    for r in out:
        cnt = per_src[r["source"]]
        total = sum(cnt.values())
        ent = 0
        for n in cnt.values():
            p = n / total
            ent += int(np.floor((-1e9 * p) * np.log2(p) + 0.5))
        assert (r["n_tokens"], r["n_terms"], r["entropy_e9"]) == \
            (total, len(cnt), ent)
        # sanity: entropy within [0, log2(n_terms)]
        assert 0 <= r["entropy_e9"] <= np.log2(len(cnt)) * 1e9 + 1e6


def test_vocab_coverage_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.text import vocab_coverage
    tbl = pq.read_table(os.path.join(SF_DIR, "documents.parquet"))
    cf = Counter()
    for txt in tbl["text"].to_pylist():
        cf.update(_tok(txt))
    total = sum(cf.values())
    ranked = sorted(cf.items(), key=lambda kv: (-kv[1], kv[0]))
    out = vocab_coverage(ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet")),
        ks=(1, 5, 10**6)).to_pylist()
    for r, k in zip(out, (1, 5, 10**6)):
        c = sum(n for _, n in ranked[:k])
        assert (r["k"], r["covered_cf"], r["coverage_e6"]) == \
            (k, c, c * 10**6 // total)
    assert out[-1]["coverage_e6"] == 10**6     # full vocab covers all


def test_binary_knn_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.similarity import binary_knn
    tbl = pq.read_table(os.path.join(SF_DIR, "embeddings.parquet"),
                        columns=["vec_id", "embedding"])
    ids = tbl["vec_id"].to_pylist()
    m = np.asarray(tbl["embedding"].to_pylist(), dtype=np.float64)
    qi = ids.index(3)
    sigs = [(row > 0) for row in m]
    want = sorted(((int((sigs[i] ^ sigs[qi]).sum()), ids[i])
                   for i in range(len(ids)) if ids[i] != 3))[:7]
    out = binary_knn(ray.data.read_parquet(
        os.path.join(SF_DIR, "embeddings.parquet"),
        columns=["vec_id", "embedding"]), query_id=3, k=7).to_pylist()
    assert [(r["hamming"], r["vec_id"]) for r in out] == want
    assert [r["rank"] for r in out] == list(range(1, 8))


def test_minhash_calibration_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.dedup import (
        minhash_calibration, minhash_verified_pairs, MinHasher,
        _signatures)
    from onestools_eventlog_ray.stages.normalize import add_doc_id
    from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC
    ds = ray.data.read_parquet(os.path.join(SF_DIR, "documents.parquet"))
    out = {r["threshold_e6"]: (r["tp"], r["fp"], r["fn"], r["tn"])
           for r in minhash_calibration(ds).to_pylist()}
    # recompute both estimator and exact per candidate pair in-process
    pairs = minhash_verified_pairs(ds, DOCUMENTS_SPEC,
                                   min_jaccard=0.0).take_all()
    tbl = pq.read_table(os.path.join(SF_DIR, "documents.parquet"))
    mh = MinHasher(DOCUMENTS_SPEC)
    doc_ids, shp, shh = mh._doc_shingles(tbl)
    present, sig = _signatures(shp, shh, doc_ids.size, mh.r, mh.m)
    sig_of = {int(doc_ids[p]): sig[i] for i, p in enumerate(present)}
    cm = {t: [0, 0, 0, 0] for t in (300000, 500000, 700000)}
    assert len(pairs) > 0
    for r in pairs:
        a, b, ex = int(r["doc_a"]), int(r["doc_b"]), int(r["jaccard_e6"])
        est = int((sig_of[a] == sig_of[b]).sum()) * 10**6 // 64
        for t in cm:
            cm[t][(0 if ex >= t else 1) + (0 if est >= t else 2)] += 1
    for t, counts in cm.items():
        assert out[t] == tuple(counts)
    # confusion totals are the candidate-pair count at every threshold
    for t in out:
        assert sum(out[t]) == len(pairs)


def test_part_cooccurrence_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.relational import \
        part_cooccurrence
    tbl = pq.read_table(os.path.join(SF_DIR, "lineitem.parquet"),
                        columns=["l_orderkey", "l_partkey"])
    per_order = {}
    for o, p in zip(tbl["l_orderkey"].to_pylist(),
                    tbl["l_partkey"].to_pylist()):
        per_order.setdefault(o, set()).add(p)
    cnt = Counter()
    for parts in per_order.values():
        ps = sorted(parts)
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                cnt[(ps[i], ps[j])] += 1
    want = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:20]
    out = part_cooccurrence(ray.data.read_parquet(
        os.path.join(SF_DIR, "lineitem.parquet"),
        columns=["l_orderkey", "l_partkey"])).to_pylist()
    assert [((r["part_a"], r["part_b"]), r["n"]) for r in out] == want


def test_supplier_share_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.relational import supplier_share
    sf = lambda t: os.path.join(SF_DIR, f"{t}.parquet")
    li = pq.read_table(sf("lineitem"))
    sup = pq.read_table(sf("supplier"))
    nat = pq.read_table(sf("nation"))
    rev = Counter()
    for s, p, d in zip(li["l_suppkey"].to_pylist(),
                       li["l_extendedprice"].to_pylist(),
                       li["l_discount"].to_pylist()):
        rev[s] += int(np.floor(p * 100 + 0.5)) \
            * int(np.floor((1 - d) * 100 + 0.5))
    s2n = dict(zip(sup["s_suppkey"].to_pylist(),
                   sup["s_nationkey"].to_pylist()))
    nname = dict(zip(nat["n_nationkey"].to_pylist(),
                     nat["n_name"].to_pylist()))
    by_n = {}
    for s, rv in rev.items():
        by_n.setdefault(nname[s2n[s]], []).append((s, rv))
    want = []
    for nm in sorted(by_n):
        rows = sorted(by_n[nm], key=lambda x: (-x[1], x[0]))
        tot = sum(rv for _, rv in by_n[nm])
        for rk, (s, rv) in enumerate(rows[:3], 1):
            want.append((nm, rk, s, rv, rv * 10**6 // tot))
    out = supplier_share(
        ray.data.read_parquet(sf("lineitem")),
        ray.data.read_parquet(sf("supplier")),
        ray.data.read_parquet(sf("nation"))).to_pylist()
    assert [(r["n_name"], r["rank"], r["s_suppkey"], r["revenue_e4"],
             r["share_e6"]) for r in out] == want
    # shares within a nation are <= 1e6 and the rank-1 share largest
    for r in out:
        assert 0 < r["share_e6"] <= 10**6


def test_sorted_head_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.relational import sorted_head
    tbl = pq.read_table(os.path.join(SF_DIR, "events.parquet"),
                        columns=["event_id", "value"])
    rows = sorted(zip([-int(np.floor(v * 1000 + 0.5))
                       for v in tbl["value"].to_pylist()],
                      tbl["event_id"].to_pylist()))[:20]
    out = sorted_head(ray.data.read_parquet(
        os.path.join(SF_DIR, "events.parquet"),
        columns=["event_id", "value"])).to_pylist()
    assert [(r["event_id"], r["value_e3"]) for r in out] == \
        [(e, -nv) for nv, e in rows]


def test_posting_size_histogram_bruteforce(h_index, small_corpus):
    from onestools_eventlog_ray.pipelines.query import \
        posting_size_histogram
    dfc = Counter()
    for txt in small_corpus["content"].to_pylist():
        for t in set(_tok(txt)):
            dfc[t] += 1
    want = Counter()
    sums = Counter()
    for df in dfc.values():
        b = df.bit_length() - 1
        want[b] += 1
        sums[b] += df
    out = posting_size_histogram(h_index).take_all()
    assert {(r["bucket"], r["n_terms"], r["sum_df"]) for r in out} == \
        {(b, want[b], sums[b]) for b in want}


def test_shuffle_skew_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.text import shuffle_skew_report
    tbl = pq.read_table(os.path.join(SF_DIR, "documents.parquet"))
    cf = Counter()
    for txt in tbl["text"].to_pylist():
        cf.update(_tok(txt))
    total = sum(cf.values())
    nt = len(cf)
    ranked = sorted(cf.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    out = shuffle_skew_report(ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet"))).to_pylist()
    for r, (t, c) in zip(out, ranked):
        assert (r["term"], r["cf"]) == (t, c)
        assert r["share_e6"] == c * 10**6 // total
        assert r["skew_e6"] == c * nt * 10**6 // total


def test_rp_distortion_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.similarity import rp_distortion
    tbl = pq.read_table(os.path.join(SF_DIR, "embeddings.parquet"),
                        columns=["vec_id", "embedding"])
    out = rp_distortion(ray.data.read_parquet(
        os.path.join(SF_DIR, "embeddings.parquet"),
        columns=["vec_id", "embedding"]), n_pairs=5).to_pylist()
    vec = {i: np.asarray(v, dtype=np.float64)
           for i, v in zip(tbl["vec_id"].to_pylist(),
                           tbl["embedding"].to_pylist())}
    ids = sorted(vec)[:6]
    rng = np.random.default_rng(7)
    w = rng.integers(-1000, 1001, size=(16, 64)).astype(np.int64)
    assert len(out) == 5
    for r, (a, b) in zip(out, zip(ids[:-1], ids[1:])):
        xa = np.floor(vec[a] * 1e4 + 0.5).astype(np.int64)
        xb = np.floor(vec[b] * 1e4 + 0.5).astype(np.int64)
        d = xa - xb
        pd = w @ d
        assert (r["vec_a"], r["vec_b"]) == (a, b)
        assert r["d2_orig"] == int((d * d).sum())
        assert r["d2_proj"] == int((pd * pd).sum())
        # JL: projected scale ~ E[w^2]*dim_out/dim_in of original; just
        # sanity-check it is positive when the originals differ
        if r["d2_orig"]:
            assert r["d2_proj"] > 0


def test_cm_error_report_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.sketch import cm_error_report
    tbl = pq.read_table(os.path.join(SF_DIR, "documents.parquet"))
    cf = Counter()
    for txt in tbl["text"].to_pylist():
        cf.update(_tok(txt))
    # recompute the sketch counters exactly
    reg = {}
    for t, n in cf.items():
        for i in range(4):
            c = int.from_bytes(
                hashlib.md5(f"cm{i}:{t}".encode()).digest()[8:16],
                "little") % 1024
            reg[(i, c)] = reg.get((i, c), 0) + n
    ranked = sorted(cf.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    out = cm_error_report(ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet"))).to_pylist()
    for r, (t, n) in zip(out, ranked):
        est = min(reg[(i, int.from_bytes(
            hashlib.md5(f"cm{i}:{t}".encode()).digest()[8:16],
            "little") % 1024)] for i in range(4))
        assert (r["term"], r["cf_exact"], r["cf_est"]) == (t, n, est)
        assert r["overcount"] == est - n >= 0


def test_knn_classify_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.similarity import knn_classify
    tbl = pq.read_table(os.path.join(SF_DIR, "embeddings.parquet"))
    ids = tbl["vec_id"].to_pylist()
    m = np.asarray(tbl["embedding"].to_pylist(), dtype=np.float64)
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    labels = dict(zip(ids, tbl["label"].to_pylist()))
    out = knn_classify(ray.data.read_parquet(
        os.path.join(SF_DIR, "embeddings.parquet"))).to_pylist()
    hold = [i for i in sorted(ids) if i % 5 == 0]
    assert [r["vec_id"] for r in out] == hold
    idx_of = {v: i for i, v in enumerate(ids)}
    train = np.asarray([i for i in ids if i % 5 != 0], dtype=np.int64)
    tmat = mn[[idx_of[int(i)] for i in train]]
    for r in out:
        q = mn[idx_of[r["vec_id"]]]
        cos = tmat @ q
        top = train[np.lexsort((train, -cos))[:3]]
        votes = Counter(labels[int(t)] for t in top)
        pred = sorted(((-n, lb) for lb, n in votes.items()))[0]
        assert (r["pred_label"], r["n_votes"]) == (pred[1], -pred[0])
        assert r["true_label"] == labels[r["vec_id"]]


def test_time_weighted_avg_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.relational import \
        time_weighted_avg
    tbl = pq.read_table(os.path.join(SF_DIR, "events.parquet"))
    per_t = {}
    for et, ts, eid, v in zip(tbl["event_type"].to_pylist(),
                              tbl["ts"].to_pylist(),
                              tbl["event_id"].to_pylist(),
                              tbl["value"].to_pylist()):
        us = int(ts.timestamp() * 1e6 + 0.5)
        per_t.setdefault(et, []).append((us, eid,
                                         int(np.floor(v * 1000 + 0.5))))
    out = time_weighted_avg(ray.data.read_parquet(
        os.path.join(SF_DIR, "events.parquet"),
        columns=["event_type", "ts", "event_id", "value"])).take_all()
    got = {r["event_type"]: (r["n_intervals"], r["twa_e3"]) for r in out}
    for et, rows in per_t.items():
        rows.sort()
        num = den = 0
        for (t0, _, v0), (t1, _, _) in zip(rows[:-1], rows[1:]):
            num += v0 * (t1 - t0)
            den += t1 - t0
        want = (len(rows) - 1, num // den if den else 0)
        assert got[et] == want


def test_trimmed_mean_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.relational import \
        trimmed_mean_by_type
    tbl = pq.read_table(os.path.join(SF_DIR, "events.parquet"),
                        columns=["event_type", "value"])
    per_t = {}
    for et, v in zip(tbl["event_type"].to_pylist(),
                     tbl["value"].to_pylist()):
        per_t.setdefault(et, []).append(int(np.floor(v * 1000 + 0.5)))
    out = trimmed_mean_by_type(ray.data.read_parquet(
        os.path.join(SF_DIR, "events.parquet"),
        columns=["event_type", "value"])).take_all()
    got = {r["event_type"]: (r["n"], r["n_trimmed_each"], r["tmean_e3"])
           for r in out}
    for et, vals in per_t.items():
        vals.sort()
        n = len(vals)
        t = n * 10 // 100
        kept = vals[t:n - t]
        assert got[et] == (n, t, sum(kept) // len(kept))


def test_q14_promo_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.relational import q14_promo_share
    sf = lambda t: os.path.join(SF_DIR, f"{t}.parquet")
    li = pq.read_table(sf("lineitem"))
    part = pq.read_table(sf("part"), columns=["p_partkey", "p_type"])
    promo = {k for k, t in zip(part["p_partkey"].to_pylist(),
                               part["p_type"].to_pylist())
             if t.startswith("PROMO")}
    pr = tot = 0
    for k, p, d in zip(li["l_partkey"].to_pylist(),
                       li["l_extendedprice"].to_pylist(),
                       li["l_discount"].to_pylist()):
        rev = int(np.floor(p * 100 + 0.5)) \
            * int(np.floor((1 - d) * 100 + 0.5))
        tot += rev
        if k in promo:
            pr += rev
    out = q14_promo_share(ray.data.read_parquet(sf("lineitem")),
                          ray.data.read_parquet(sf("part"))).to_pylist()
    assert out == [{"promo_rev_e4": pr, "total_rev_e4": tot,
                    "promo_share_e6": pr * 10**6 // tot}]


def test_q18_volume_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.relational import \
        q18_volume_customers
    sf = lambda t: os.path.join(SF_DIR, f"{t}.parquet")
    li = pq.read_table(sf("lineitem"))
    orders = pq.read_table(sf("orders"))
    qty = Counter()
    for o, q in zip(li["l_orderkey"].to_pylist(),
                    li["l_quantity"].to_pylist()):
        qty[o] += int(np.floor(q + 0.5))
    o2c = dict(zip(orders["o_orderkey"].to_pylist(),
                   orders["o_custkey"].to_pylist()))
    want = sorted(((-t, o, o2c[o]) for o, t in qty.items() if t > 150))[:20]
    out = q18_volume_customers(ray.data.read_parquet(sf("lineitem")),
                               ray.data.read_parquet(sf("orders"))) \
        .to_pylist()
    assert [(-r["total_qty"], r["o_orderkey"], r["o_custkey"])
            for r in out] == want
    assert all(r["total_qty"] > 150 for r in out)


def test_vocab_growth_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.text import vocab_growth
    tbl = pq.read_table(os.path.join(SF_DIR, "documents.parquet"))
    rows = sorted(zip(tbl["doc_id"].to_pylist(),
                      tbl["text"].to_pylist()))
    out = vocab_growth(ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet")),
        cutoffs=(10, 50, 400, 10**6)).to_pylist()
    seen = set()
    sizes = {}
    for i, (_, txt) in enumerate(rows, 1):
        seen.update(_tok(txt))
        sizes[i] = len(seen)
    want = [(n, sizes[n]) for n in (10, 50, 400) if n <= len(rows)]
    assert [(r["n_docs"], r["vocab_size"]) for r in out] == want
    # monotone non-decreasing
    vs = [r["vocab_size"] for r in out]
    assert vs == sorted(vs)


def test_q1_pricing_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.relational import \
        q1_pricing_summary
    li = pq.read_table(os.path.join(SF_DIR, "lineitem.parquet"))
    agg = {}
    for rf, ls, q, p, d, tx in zip(li["l_returnflag"].to_pylist(),
                                   li["l_linestatus"].to_pylist(),
                                   li["l_quantity"].to_pylist(),
                                   li["l_extendedprice"].to_pylist(),
                                   li["l_discount"].to_pylist(),
                                   li["l_tax"].to_pylist()):
        a = agg.setdefault((rf, ls), [0, 0, 0, 0, 0, 0])
        qi = int(np.floor(q + 0.5))
        p2 = int(np.floor(p * 100 + 0.5))
        d2 = int(np.floor(d * 100 + 0.5))
        t2 = int(np.floor(tx * 100 + 0.5))
        a[0] += qi
        a[1] += p2
        a[2] += p2 * (100 - d2)
        a[3] += p2 * (100 - d2) * (100 + t2)
        a[4] += d2
        a[5] += 1
    out = q1_pricing_summary(ray.data.read_parquet(
        os.path.join(SF_DIR, "lineitem.parquet"))).take_all()
    assert len(out) == len(agg)
    for r in out:
        a = agg[(r["l_returnflag"], r["l_linestatus"])]
        assert (r["sum_qty"], r["sum_base_e2"], r["sum_disc_e4"],
                r["sum_charge_e6"], r["n_rows"]) == \
            (a[0], a[1], a[2], a[3], a[5])
        assert r["avg_qty_e6"] == a[0] * 10**6 // a[5]
        assert r["avg_price_e6"] == a[1] * 10**4 // a[5]
        assert r["avg_disc_e6"] == a[4] * 10**4 // a[5]


def test_funnel_timed_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.streaming import funnel_timed
    tbl = pq.read_table(os.path.join(SF_DIR, "events.parquet"),
                        columns=["user_id", "ts", "event_type"])
    per_u = {}
    for u, ts, et in zip(tbl["user_id"].to_pylist(),
                         tbl["ts"].to_pylist(),
                         tbl["event_type"].to_pylist()):
        per_u.setdefault(u, []).append((int(ts.timestamp() * 1e6 + 0.5),
                                        et))
    nf = nc = 0
    W = 3_600_000_000
    for evs in per_u.values():
        firsts = [t for t, e in evs if e == "click"]
        if not firsts:
            continue
        nf += 1
        t0 = min(firsts)
        if any(e == "purchase" and t0 < t <= t0 + W for t, e in evs):
            nc += 1
    out = funnel_timed(ray.data.read_parquet(
        os.path.join(SF_DIR, "events.parquet"),
        columns=["user_id", "ts", "event_type"])).to_pylist()
    assert out == [{"n_users_first": nf, "n_converted": nc,
                    "conv_e6": nc * 10**6 // nf}]


def test_len_vocab_corr_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.text import len_vocab_corr
    tbl = pq.read_table(os.path.join(SF_DIR, "documents.parquet"))
    dls, dts = [], []
    for txt in tbl["text"].to_pylist():
        tk = _tok(txt)
        dls.append(len(tk))
        dts.append(len(set(tk)))
    n = len(dls)
    sx, sy = sum(dls), sum(dts)
    xy = sum(a * b for a, b in zip(dls, dts))
    xx = sum(a * a for a in dls)
    out = len_vocab_corr(ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet"))).to_pylist()[0]
    assert out["n_docs"] == n
    assert out["mean_dl_e6"] == sx * 10**6 // n
    assert out["cov_e6"] == (n * xy - sx * sy) * 10**6 // (n * n)
    assert out["var_dl_e6"] == (n * xx - sx * sx) * 10**6 // (n * n)


def test_stopword_share_bruteforce():
    import ray.data
    from onestools_eventlog_ray.functions.analyzer import STOPWORDS
    from onestools_eventlog_ray.pipelines.text import \
        stopword_share_by_lang
    tbl = pq.read_table(os.path.join(SF_DIR, "documents.parquet"))
    per_l = {}
    for lg, txt in zip(tbl["lang"].to_pylist(), tbl["text"].to_pylist()):
        a = per_l.setdefault(lg, [0, 0])
        for t in _tok(txt):
            a[1] += 1
            if t in STOPWORDS:
                a[0] += 1
    out = stopword_share_by_lang(ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet"))).to_pylist()
    assert [r["lang"] for r in out] == sorted(per_l)
    for r in out:
        s, n = per_l[r["lang"]]
        assert (r["n_stop"], r["n_tokens"]) == (s, n)
        assert r["stop_share_e6"] == s * 10**6 // n


def test_corpus_digest_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.text import corpus_digest
    tbl = pq.read_table(os.path.join(SF_DIR, "documents.parquet"))
    acc = 0
    for d, txt in zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()):
        hp = int(hashlib.sha256(txt.encode()).hexdigest()[:16], 16)
        acc ^= hp ^ (d & 0xFFFFFFFFFFFFFFFF)
    out = corpus_digest(ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet"))).to_pylist()[0]
    assert out["n_docs"] == tbl.num_rows
    assert out["digest_hi32"] == acc >> 32
    assert out["digest_lo32"] == acc & 0xFFFFFFFF
    # duplicate contents with different ids do NOT cancel
    dup = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["same text", "same text"]),
        "lang": pa.array(["en", "en"]),
        "source": pa.array(["s", "s"]),
        "n_chars": pa.array([9, 9], pa.int64()),
    })
    out2 = corpus_digest(ray.data.from_arrow(dup)).to_pylist()[0]
    assert (out2["digest_hi32"], out2["digest_lo32"]) != (0, 0)


def test_event_debounce_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.streaming import event_debounce
    tbl = pq.read_table(os.path.join(SF_DIR, "events.parquet"),
                        columns=["user_id", "event_type", "ts"])
    per_key = {}
    for u, et, ts in zip(tbl["user_id"].to_pylist(),
                         tbl["event_type"].to_pylist(),
                         tbl["ts"].to_pylist()):
        per_key.setdefault((u, et), []).append(
            int(ts.timestamp() * 1e6 + 0.5))
    want = {}
    G = 3_600_000_000
    for (u, et), ts in per_key.items():
        ts.sort()
        kept = 1 + sum(1 for a, b in zip(ts[:-1], ts[1:]) if b - a >= G)
        a = want.setdefault(et, [0, 0])
        a[0] += len(ts)
        a[1] += kept
    out = event_debounce(ray.data.read_parquet(
        os.path.join(SF_DIR, "events.parquet"),
        columns=["user_id", "event_type", "ts"])).take_all()
    for r in out:
        n, k = want[r["event_type"]]
        assert (r["n_events"], r["n_kept"], r["n_dropped"]) == \
            (n, k, n - k)


def test_value_trend_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.streaming import \
        value_trend_by_type
    tbl = pq.read_table(os.path.join(SF_DIR, "events.parquet"),
                        columns=["event_type", "ts", "value"])
    per_t = {}
    for et, ts, v in zip(tbl["event_type"].to_pylist(),
                         tbl["ts"].to_pylist(),
                         tbl["value"].to_pylist()):
        td = int(ts.timestamp() * 1e6 + 0.5) // 86_400_000_000
        per_t.setdefault(et, []).append((td, int(np.floor(v * 1000
                                                          + 0.5))))
    out = {r["event_type"]: (r["n"], r["slope_e6_per_day"])
           for r in value_trend_by_type(ray.data.read_parquet(
               os.path.join(SF_DIR, "events.parquet"),
               columns=["event_type", "ts", "value"])).take_all()}
    for et, rows in per_t.items():
        n = len(rows)
        st = sum(t for t, _ in rows)
        sy = sum(y for _, y in rows)
        sty = sum(t * y for t, y in rows)
        stt = sum(t * t for t, _ in rows)
        num = (n * sty - st * sy) * 10**6
        den = n * stt - st * st
        q = abs(num) // den if den else 0
        assert out[et] == (n, -q if (num < 0 and den) else q)


def test_label_affinity_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.similarity import label_affinity
    tbl = pq.read_table(os.path.join(SF_DIR, "embeddings.parquet"))
    sums = {}
    for lb, v in zip(tbl["label"].to_pylist(),
                     tbl["embedding"].to_pylist()):
        q = [int(floor(float(x) * 1e6 + 0.5)) for x in v]
        s = sums.setdefault(lb, [0] * len(q))
        for i, x in enumerate(q):
            s[i] += x
    out = label_affinity(ray.data.read_parquet(
        os.path.join(SF_DIR, "embeddings.parquet"))).to_pylist()
    labels = sorted(sums)
    want = []
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            dot = sum(x * y for x, y in zip(sums[a], sums[b]))
            na = sum(x * x for x in sums[a])
            nb = sum(x * x for x in sums[b])
            cos = float(dot) / (np.sqrt(float(na)) * np.sqrt(float(nb)))
            want.append((a, b, int(floor(cos * 1e6 + 0.5))))
    assert [(r["label_a"], r["label_b"], r["cos_e6"]) for r in out] == want
    assert len(out) == len(labels) * (len(labels) - 1) // 2


def test_user_growth_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.streaming import user_growth
    tbl = pq.read_table(os.path.join(SF_DIR, "events.parquet"),
                        columns=["user_id", "ts"])
    first = {}
    for u, ts in zip(tbl["user_id"].to_pylist(), tbl["ts"].to_pylist()):
        d = int(ts.timestamp() * 1e6 + 0.5) // 86_400_000_000
        first[u] = min(first.get(u, d), d)
    cnt = Counter(first.values())
    out = user_growth(ray.data.read_parquet(
        os.path.join(SF_DIR, "events.parquet"),
        columns=["user_id", "ts"])).to_pylist()
    cum = 0
    assert [r["epoch_day"] for r in out] == sorted(cnt)
    for r in out:
        cum += cnt[r["epoch_day"]]
        assert r["n_new_users"] == cnt[r["epoch_day"]]
        assert r["cum_users"] == cum
    assert out[-1]["cum_users"] == len(first)


def test_dup_rate_by_source_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.dedup import dup_rate_by_source
    tbl = pq.read_table(os.path.join(SF_DIR, "documents.parquet"))
    per_s = {}
    for s, txt in zip(tbl["source"].to_pylist(), tbl["text"].to_pylist()):
        a = per_s.setdefault(s, [0, set()])
        a[0] += 1
        a[1].add(hashlib.md5(txt.encode()).hexdigest())
    out = dup_rate_by_source(ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet"))).to_pylist()
    assert [r["source"] for r in out] == sorted(per_s)
    for r in out:
        n, uniq = per_s[r["source"]][0], len(per_s[r["source"]][1])
        assert (r["n_docs"], r["n_unique"]) == (n, uniq)
        assert r["dup_rate_e6"] == (n - uniq) * 10**6 // n


def test_score_histogram_bruteforce(h_index):
    from onestools_eventlog_ray.pipelines.query import (SearchEngine,
                                                        score_histogram)
    eng = SearchEngine(h_index)
    terms = ["def", "import"]
    hits = eng.search(terms, k=1 << 62)
    e6 = np.floor(np.asarray([s for _, s in hits]) * 1e6 + 0.5) \
        .astype(np.int64)
    want = Counter((int(x) // 500_000) * 500_000 for x in e6)
    out = score_histogram(eng, terms).to_pylist()
    assert {r["bin_lo_e6"]: r["n_docs"] for r in out} == dict(want)
    assert sum(r["n_docs"] for r in out) == len(hits)


def test_dow_pivot_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.streaming import dow_pivot
    tbl = pq.read_table(os.path.join(SF_DIR, "events.parquet"),
                        columns=["event_type", "ts"])
    grid = {}
    for et, ts in zip(tbl["event_type"].to_pylist(),
                      tbl["ts"].to_pylist()):
        d = (int(ts.timestamp() * 1e6 + 0.5) // 86_400_000_000 + 3) % 7
        grid.setdefault(et, [0] * 7)[d] += 1
    out = dow_pivot(ray.data.read_parquet(
        os.path.join(SF_DIR, "events.parquet"),
        columns=["event_type", "ts"])).to_pylist()
    assert [r["event_type"] for r in out] == sorted(grid)
    for r in out:
        assert [r[f"dow_{d}"] for d in range(7)] == grid[r["event_type"]]
        assert sum(r[f"dow_{d}"] for d in range(7)) == \
            sum(grid[r["event_type"]])


def test_peak_hour_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.streaming import \
        peak_hour_by_type
    tbl = pq.read_table(os.path.join(SF_DIR, "events.parquet"),
                        columns=["event_type", "ts"])
    cnt = {}
    for et, ts in zip(tbl["event_type"].to_pylist(),
                      tbl["ts"].to_pylist()):
        h = (int(ts.timestamp() * 1e6 + 0.5) // 3_600_000_000) % 24
        cnt.setdefault(et, Counter())[h] += 1
    out = peak_hour_by_type(ray.data.read_parquet(
        os.path.join(SF_DIR, "events.parquet"),
        columns=["event_type", "ts"])).to_pylist()
    for r in out:
        c = cnt[r["event_type"]]
        best = sorted(((-n, h) for h, n in c.items()))[0]
        assert (r["peak_hour"], r["n_events"]) == (best[1], -best[0])


def test_term_len_histogram_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.text import term_len_histogram
    tbl = pq.read_table(os.path.join(SF_DIR, "documents.parquet"))
    cf = Counter()
    for txt in tbl["text"].to_pylist():
        cf.update(_tok(txt))
    want = {}
    for t, n in cf.items():
        a = want.setdefault(len(t), [0, 0])
        a[0] += 1
        a[1] += n
    out = term_len_histogram(ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet"))).to_pylist()
    assert [r["term_len"] for r in out] == sorted(want)
    for r in out:
        assert [r["n_terms"], r["total_cf"]] == want[r["term_len"]]


def test_value_mode_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.relational import \
        value_mode_by_type
    tbl = pq.read_table(os.path.join(SF_DIR, "events.parquet"),
                        columns=["event_type", "value"])
    per_t = {}
    for et, v in zip(tbl["event_type"].to_pylist(),
                     tbl["value"].to_pylist()):
        per_t.setdefault(et, Counter())[int(np.floor(v * 1000
                                                     + 0.5))] += 1
    out = value_mode_by_type(ray.data.read_parquet(
        os.path.join(SF_DIR, "events.parquet"),
        columns=["event_type", "value"])).take_all()
    for r in out:
        c = per_t[r["event_type"]]
        best = sorted(((-n, v) for v, n in c.items()))[0]
        assert (r["mode_e3"], r["n_occurrences"]) == (best[1], -best[0])


def test_value_lag1_cov_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.relational import value_lag1_cov
    tbl = pq.read_table(os.path.join(SF_DIR, "events.parquet"))
    per_t = {}
    for et, ts, eid, v in zip(tbl["event_type"].to_pylist(),
                              tbl["ts"].to_pylist(),
                              tbl["event_id"].to_pylist(),
                              tbl["value"].to_pylist()):
        per_t.setdefault(et, []).append(
            (int(ts.timestamp() * 1e6 + 0.5), eid,
             int(np.floor(v * 1000 + 0.5))))
    out = {r["event_type"]: (r["n_pairs"], r["lag1_cov_e6"])
           for r in value_lag1_cov(ray.data.read_parquet(
               os.path.join(SF_DIR, "events.parquet"),
               columns=["event_type", "ts", "event_id",
                        "value"])).take_all()}
    for et, rows in per_t.items():
        rows.sort()
        v = [x for _, _, x in rows]
        a, b = v[:-1], v[1:]
        m = len(a)
        sa, sb = sum(a), sum(b)
        sab = sum(x * y for x, y in zip(a, b))
        num = (m * sab - sa * sb) * 10**6
        q = abs(num) // (m * m)
        assert out[et] == (m, -q if num < 0 else q)


def test_source_overlap_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.text import source_overlap
    tbl = pq.read_table(os.path.join(SF_DIR, "documents.parquet"))
    sets = {}
    for s, txt in zip(tbl["source"].to_pylist(), tbl["text"].to_pylist()):
        sets.setdefault(s, set()).update(_tok(txt))
    out = source_overlap(ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet")),
        min_jaccard_e6=1).to_pylist()
    keys = sorted(sets)
    want = []
    for i, a in enumerate(keys):
        for b in keys[i + 1:]:
            inter = len(sets[a] & sets[b])
            union = len(sets[a] | sets[b])
            j = inter * 10**6 // union
            if j >= 1:
                want.append((a, b, inter, j))
    assert [(r["src_a"], r["src_b"], r["n_common"], r["jaccard_e6"])
            for r in out] == want


def test_user_activity_percentiles_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.streaming import \
        user_activity_percentiles
    tbl = pq.read_table(os.path.join(SF_DIR, "events.parquet"),
                        columns=["user_id"])
    cnt = Counter(tbl["user_id"].to_pylist())
    vals = sorted(cnt.values())
    n = len(vals)
    out = user_activity_percentiles(ray.data.read_parquet(
        os.path.join(SF_DIR, "events.parquet"),
        columns=["user_id"]), pcts=(50, 90, 99, 100)).to_pylist()
    for r in out:
        rank = -(-r["pct"] * n // 100)
        assert r["events_per_user"] == vals[rank - 1]
    assert out[-1]["events_per_user"] == vals[-1]    # p100 = max
