"""Round-3 session-2 operators: repetition signals, TF-IDF top-k,
deterministic sampling, Bloom sketch, label centroids, dedup clusters.

Each test checks the distributed pipeline against an independent
brute-force (pure-Python/numpy) computation — the oracle-parity SQL
check runs separately through tools/check_oracle.py and the driver."""

import collections
import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs_tbl():
    return pq.read_table(os.path.join(SF_DIR, "documents.parquet"))


@pytest.fixture(scope="module")
def docs_ds():
    import ray.data
    return ray.data.read_parquet(os.path.join(SF_DIR, "documents.parquet"))


def test_repetition_scores_bruteforce(docs_ds, docs_tbl):
    from onestools_eventlog_ray.functions.analyzer import tokenize_py
    from onestools_eventlog_ray.pipelines.text import repetition_scores
    got = repetition_scores(docs_ds).to_pandas().set_index("doc_id")
    assert len(got) == docs_tbl.num_rows
    for doc_id, txt in list(zip(docs_tbl["doc_id"].to_pylist(),
                                docs_tbl["text"].to_pylist()))[:40]:
        toks = tokenize_py(txt)
        n = len(toks)
        dup = ((n - len(set(toks))) * 1_000_000) // n if n else 0
        bigs = collections.Counter(zip(toks, toks[1:]))
        top = (max(bigs.values()) * 1_000_000) // (n - 1) if n >= 2 else 0
        row = got.loc[doc_id]
        assert row["n_tokens"] == n
        assert row["dup_token_frac_e6"] == dup
        assert row["top_bigram_frac_e6"] == top


def test_tfidf_topk_bruteforce(docs_ds, docs_tbl):
    from onestools_eventlog_ray.functions.analyzer import tokenize_py
    from onestools_eventlog_ray.pipelines.text import tfidf_topk
    got = tfidf_topk(docs_ds, k=3).to_pandas()
    texts = dict(zip(docs_tbl["doc_id"].to_pylist(),
                     docs_tbl["text"].to_pylist()))
    n_docs = len(texts)
    df = collections.Counter()
    tfs = {}
    for d, txt in texts.items():
        tf = collections.Counter(tokenize_py(txt))
        tfs[d] = tf
        df.update(tf.keys())
    for d in list(texts)[:25]:
        exp = sorted(
            ((-(math.floor(tf * math.log((n_docs + 1.0) / (df[t] + 1.0))
                           * 1_000_000 + 0.5)), t)
             for t, tf in tfs[d].items()))[:3]
        sub = got[got.doc_id == d].sort_values(["tfidf_e6", "term"],
                                               ascending=[False, True])
        assert [(-e6, t) for e6, t in
                zip(sub.tfidf_e6, sub.term)] == exp, d


def test_sample_by_hash_deterministic(docs_ds, docs_tbl):
    from onestools_eventlog_ray.functions.fasthash import md5_lower64_one
    from onestools_eventlog_ray.pipelines.sampling import sample_by_hash
    got = sample_by_hash(docs_ds, "doc_id", pct=10, mod=100).to_pandas()
    exp_ids = {d for d in docs_tbl["doc_id"].to_pylist()
               if md5_lower64_one(str(d)) % 100 < 10}
    assert set(got.doc_id) == exp_ids
    assert (got.bucket < 10).all()
    # re-run picks the IDENTICAL sample (determinism is the contract)
    again = sample_by_hash(docs_ds, "doc_id", pct=10, mod=100).to_pandas()
    assert set(again.doc_id) == exp_ids


def test_stratified_sample_bruteforce(docs_ds, docs_tbl):
    from onestools_eventlog_ray.functions.fasthash import md5_lower64_one
    from onestools_eventlog_ray.pipelines.sampling import stratified_sample
    got = stratified_sample(docs_ds, "lang", "doc_id", n=5).to_pandas()
    by_lang = collections.defaultdict(list)
    for d, lang in zip(docs_tbl["doc_id"].to_pylist(),
                       docs_tbl["lang"].to_pylist()):
        by_lang[lang].append((md5_lower64_one(str(d)) >> 1, d))
    exp = {(lang, d) for lang, rows in by_lang.items()
           for _, d in sorted(rows)[:5]}
    assert set(zip(got.lang, got.doc_id)) == exp
    assert got.groupby("lang").size().max() <= 5


def test_bloom_membership(docs_ds, docs_tbl):
    from onestools_eventlog_ray.functions.analyzer import tokenize_py
    from onestools_eventlog_ray.pipelines.sketch import (bloom_might_contain,
                                                         bloom_term_bits)
    bits = bloom_term_bits(docs_ds).to_pandas()
    bits_np = bits["bit_idx"].to_numpy()
    assert (bits_np >= 0).all() and (bits_np < 16384).all()
    vocab = set()
    for txt in docs_tbl["text"].to_pylist():
        vocab.update(tokenize_py(txt))
    # no false negatives, ever
    for t in sorted(vocab)[:50]:
        assert bloom_might_contain(bits_np, t)
    # tiny load factor -> absent probes come back negative
    misses = sum(not bloom_might_contain(bits_np, f"zz_absent_{i}")
                 for i in range(50))
    assert misses >= 45


def test_label_centroids_exact():
    import ray.data
    from onestools_eventlog_ray.pipelines.similarity import label_centroids
    emb = pq.read_table(os.path.join(SF_DIR, "embeddings.parquet"),
                        columns=["label", "embedding"])
    ds = ray.data.read_parquet(os.path.join(SF_DIR, "embeddings.parquet"),
                               columns=["label", "embedding"])
    got = label_centroids(ds).to_pandas()
    labels = np.asarray(emb["label"].to_pylist(), dtype=np.int64)
    mat = np.asarray(emb["embedding"].to_pylist(), dtype=np.float64)
    e6 = np.floor(mat * 1_000_000 + 0.5).astype(np.int64)
    for lab in np.unique(labels):
        sub = e6[labels == lab]
        rows = got[got.label == lab].sort_values("dim")
        assert (rows["sum_e6"].to_numpy() == sub.sum(axis=0)).all()
        assert (rows["n"] == sub.shape[0]).all()
    assert len(got) == np.unique(labels).size * mat.shape[1]


def test_dedup_clusters_properties(docs_ds):
    from onestools_eventlog_ray.pipelines.dedup import (dedup_clusters,
                                                        minhash_verified_pairs)
    pairs = minhash_verified_pairs(docs_ds, min_jaccard=0.2).to_pandas()
    clusters = dedup_clusters(docs_ds, min_jaccard=0.2).to_pandas()
    rep = dict(zip(clusters.doc_id, clusters.rep_id))
    assert len(pairs) > 0 and len(clusters) > 0
    # representative is the component min and is its own representative
    for d, r in rep.items():
        assert r <= d and rep[r] == r
    # every verified pair collapses into one component
    for a, b in zip(pairs.doc_a, pairs.doc_b):
        assert rep[a] == rep[b]
    # nodes == exactly the docs that appear in some pair
    assert set(rep) == set(pairs.doc_a) | set(pairs.doc_b)


def test_dedup_clusters_transitive():
    """A -> B -> C chain (A~B and B~C similar, A vs C less so) must
    still land in ONE component via transitivity."""
    import ray.data
    from onestools_eventlog_ray.pipelines.dedup import dedup_clusters
    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lambda mu nu xi omicron pi rho sigma tau upsilon").split()
    doc_a = " ".join(base * 3)
    doc_b = " ".join((base * 3)[:-6] + ["extra1 extra2 extra3".split()[i % 3]
                                        for i in range(6)])
    doc_c = " ".join((base * 3)[6:] + ["other1 other2 other3".split()[i % 3]
                                       for i in range(6)])
    filler = [f"unique{i} filler{i*7} word{i*13} token{i*3} item{i*11} "
              f"thing{i} stuff{i*5} part{i*17} bit{i*19} bob{i*23}"
              for i in range(30)]
    tbl = pa.table({
        "doc_id": pa.array(range(33), pa.int64()),
        "text": pa.array([doc_a, doc_b, doc_c] + filler, pa.string()),
    })
    ds = ray.data.from_arrow(tbl)
    got = dedup_clusters(ds, min_jaccard=0.2).to_pandas()
    rep = dict(zip(got.doc_id, got.rep_id))
    assert rep.get(0) == 0 and rep.get(1) == 0 and rep.get(2) == 0


def test_simhash_near_pairs_complete_recall(docs_ds):
    """Banding guarantees recall for hamming <= bands-1: engine pairs
    must EQUAL brute-force all-pairs hamming over the signatures."""
    from onestools_eventlog_ray.pipelines.dedup import (simhash_near_pairs,
                                                        simhash_signatures)
    sigs = simhash_signatures(docs_ds).to_pandas()
    s = sigs["simhash"].to_numpy().view(np.uint64)
    ids = sigs["doc_id"].to_numpy()
    x = s[:, None] ^ s[None, :]
    ham = np.unpackbits(x.view(np.uint8).reshape(len(s), len(s), 8),
                        axis=2).sum(axis=2)
    ii, jj = np.nonzero(np.triu(ham <= 3, 1))
    lo = np.minimum(ids[ii], ids[jj])
    hi = np.maximum(ids[ii], ids[jj])
    expected = {(int(a), int(b), int(h))
                for a, b, h in zip(lo, hi, ham[ii, jj])}
    got = simhash_near_pairs(docs_ds, max_hamming=3).to_pandas()
    assert {(a, b, h) for a, b, h in
            zip(got.doc_a, got.doc_b, got.hamming)} == expected
    assert len(expected) > 0


def test_simhash_near_pairs_recall_guard(docs_ds):
    with pytest.raises(ValueError):
        from onestools_eventlog_ray.pipelines.dedup import simhash_near_pairs
        simhash_near_pairs(docs_ds, max_hamming=5, bands=4).to_pandas()


def test_hashed_doc_vectors_bruteforce(docs_ds, docs_tbl):
    from onestools_eventlog_ray.functions.analyzer import tokenize_py
    from onestools_eventlog_ray.functions.fasthash import md5_lower64_one
    from onestools_eventlog_ray.pipelines.text import hashed_doc_vectors
    got = hashed_doc_vectors(docs_ds, dim=64).to_pandas()
    for doc_id, txt in list(zip(docs_tbl["doc_id"].to_pylist(),
                                docs_tbl["text"].to_pylist()))[:15]:
        acc = np.zeros(64, dtype=np.int64)
        for t, tf in collections.Counter(tokenize_py(txt)).items():
            h = md5_lower64_one(f"hv:{t}")
            acc[h % 64] += tf if (h >> 6) % 2 == 1 else -tf
        sub = got[got.doc_id == doc_id]
        vec = np.zeros(64, dtype=np.int64)
        vec[sub["dim"].to_numpy()] = sub["v"].to_numpy()
        assert (vec == acc).all(), doc_id
        assert (sub["v"] != 0).all()


def test_value_histogram_and_quantile():
    import ray.data
    from onestools_eventlog_ray.pipelines.relational import (
        histogram_quantile, value_histogram)
    path = os.path.join(SF_DIR, "events.parquet")
    ds = ray.data.read_parquet(path, columns=["event_type", "value"])
    hist = value_histogram(ds, bin_width=5.0).to_pandas()
    ev = pq.read_table(path, columns=["event_type", "value"]).to_pandas()
    exp = ev.assign(bin=np.floor(ev.value / 5.0).astype(np.int64)) \
        .groupby(["event_type", "bin"]).size()
    for (et, b), n in exp.items():
        row = hist[(hist.event_type == et) & (hist.bin == b)]
        assert len(row) == 1 and row.n.iloc[0] == n
    assert len(hist) == len(exp)
    # histogram quantile is within one bin of the exact quantile
    htbl = pa.Table.from_pandas(hist[["event_type", "bin", "n"]])
    for et in ev.event_type.unique():
        vals = np.sort(ev[ev.event_type == et].value.to_numpy())
        exact = vals[int(0.95 * (vals.size - 1))]
        approx = histogram_quantile(htbl, et, 0.95, bin_width=5.0)
        assert abs(approx - exact) <= 5.0 + 1e-9


def test_json_field_stats_bruteforce():
    import json
    import ray.data
    from onestools_eventlog_ray.pipelines.relational import json_field_stats
    path = os.path.join(SF_DIR, "events.parquet")
    ds = ray.data.read_parquet(path, columns=["event_type", "props"])
    got = json_field_stats(ds, field="k").to_pandas().set_index("event_type")
    ev = pq.read_table(path, columns=["event_type", "props"]).to_pandas()
    ks = ev.props.map(lambda p: json.loads(p).get("k"))
    exp = ev.assign(k=ks).dropna(subset=["k"]).groupby("event_type").k \
        .agg(["count", "sum", "min", "max"])
    for et, row in exp.iterrows():
        g = got.loc[et]
        assert (g.n_with_field, g.sum_v, g.min_v, g.max_v) == \
            (row["count"], row["sum"], row["min"], row["max"]), et
    assert len(got) == len(exp)


def test_events_by_localdate_tz_shift():
    import ray.data
    from onestools_eventlog_ray.pipelines.relational import events_by_localdate
    path = os.path.join(SF_DIR, "events.parquet")
    ds = ray.data.read_parquet(path, columns=["event_type", "ts"])
    got = events_by_localdate(ds, tz_offset_s=3 * 3600).to_pandas()
    ev = pq.read_table(path, columns=["event_type", "ts"]).to_pandas()
    local = ev.ts + np.timedelta64(3, "h")
    exp = ev.assign(local_date=local.dt.strftime("%Y-%m-%d")) \
        .groupby(["event_type", "local_date"]).size()
    assert len(got) == len(exp)
    for (et, d), n in exp.items():
        row = got[(got.event_type == et) & (got.local_date == d)]
        assert len(row) == 1 and row.n.iloc[0] == n
    # the shift matters: pre-midnight UTC events land on the NEXT local day
    utc_dates = set(ev.ts.dt.strftime("%Y-%m-%d"))
    assert set(got.local_date) - utc_dates or len(set(got.local_date)) \
        >= len(utc_dates)


def test_dedup_then_delete_integration(tmp_path):
    """The corpus-refresh flow the operators exist FOR: mine near-dup
    clusters, tombstone every non-representative, and the search engine
    immediately stops serving them (soft delete, scores of survivors
    unchanged) — dedup decides, tombstones enforce."""
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.pipelines.build import build_index
    from onestools_eventlog_ray.pipelines.dedup import dedup_clusters
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC
    from onestools_eventlog_ray.state.tombstones import delete_docs
    import ray.data

    index_dir = str(tmp_path / "idx")
    build_index(os.path.join(SF_DIR, "documents.parquet"), index_dir,
                spec=DOCUMENTS_SPEC,
                cfg=EngineConfig(num_partitions=8))
    ds = ray.data.read_parquet(os.path.join(SF_DIR, "documents.parquet"))
    clusters = dedup_clusters(ds, DOCUMENTS_SPEC, min_jaccard=0.2) \
        .to_pandas()
    drop = [int(d) for d, r in zip(clusters.doc_id, clusters.rep_id)
            if d != r]
    assert drop, "corpus has near-dup clusters"

    eng0 = SearchEngine(index_dir)
    before = eng0.search(["spark", "vector", "window"], 500)
    assert delete_docs(index_dir, drop) == len(drop)
    eng1 = SearchEngine(index_dir)
    after = eng1.search(["spark", "vector", "window"], 500)
    got = dict(after)
    assert not set(drop) & set(got)
    for d, s in before:
        if d not in set(drop):
            assert got[d] == s          # survivors keep exact scores
    # a k=10 cut under the same tombstones is the ranking's prefix
    assert eng1.search(["spark", "vector", "window"], 10) == after[:10]


def test_kmeans_step_exact():
    import ray.data
    from onestools_eventlog_ray.pipelines.similarity import kmeans_step
    path = os.path.join(SF_DIR, "embeddings.parquet")
    emb = pq.read_table(path, columns=["vec_id", "embedding"])
    ids = np.asarray(emb["vec_id"].to_pylist(), dtype=np.int64)
    mat = np.asarray(emb["embedding"].to_pylist(), dtype=np.float64)
    x = np.floor(mat * 1_000_000 + 0.5).astype(np.int64)
    init = x[[int(np.flatnonzero(ids == j)[0]) for j in range(8)]]
    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    got = kmeans_step(ds, init).to_pandas()
    # brute-force assignment
    d2 = ((x[:, None, :] - init[None, :, :]) ** 2).sum(axis=2)
    assign = np.argmin(d2, axis=1)
    for k in np.unique(assign):
        sub = x[assign == k]
        rows = got[got.k == k].sort_values("dim")
        assert (rows.sum_e6.to_numpy() == sub.sum(axis=0)).all()
        assert (rows.n == sub.shape[0]).all()
    assert set(got.k) == set(np.unique(assign))
    # one step strictly reduces (or keeps) total inertia — sanity that
    # the new centroids are a real Lloyd update
    new_cent = init.astype(np.float64).copy()
    for k in np.unique(assign):
        new_cent[k] = x[assign == k].mean(axis=0)
    i0 = d2[np.arange(len(x)), assign].sum()
    d2b = ((x[:, None, :].astype(np.float64) - new_cent[None, :, :]) ** 2) \
        .sum(axis=2)
    assert d2b.min(axis=1).sum() <= i0 + 1e-6


def test_interval_join_counts_bruteforce():
    import ray.data
    from onestools_eventlog_ray.pipelines.relational import \
        interval_join_counts
    path = os.path.join(SF_DIR, "events.parquet")
    ds = ray.data.read_parquet(
        path, columns=["event_id", "user_id", "ts", "event_type"])
    got = interval_join_counts(ds, "purchase", "click", window_s=1800) \
        .to_pandas().set_index("event_id")
    ev = pq.read_table(path).to_pandas()
    ev["ts_us"] = ev.ts.astype("int64")
    p = ev[ev.event_type == "purchase"]
    c = ev[ev.event_type == "click"]
    assert len(got) == len(p)           # left semantics: every purchase kept
    w = 1800 * 1_000_000
    for _, row in p.head(200).iterrows():
        cc = c[(c.user_id == row.user_id)
               & (c.ts_us > row.ts_us - w) & (c.ts_us <= row.ts_us)]
        assert got.loc[row.event_id, "n_right"] == len(cc)
    assert (got.n_right > 0).any()


def test_bigram_stats_bruteforce(docs_ds, docs_tbl):
    from onestools_eventlog_ray.functions.analyzer import tokenize_py
    from onestools_eventlog_ray.pipelines.text import bigram_stats
    got = bigram_stats(docs_ds).to_pandas().set_index("bigram")["n"]
    exp = collections.Counter()
    for txt in docs_tbl["text"].to_pylist():
        toks = tokenize_py(txt)
        exp.update(f"{a} {b}" for a, b in zip(toks, toks[1:]))
    assert len(got) == len(exp)
    for bg, n in list(exp.items())[:100]:
        assert got[bg] == n, bg
    assert got.sum() == sum(exp.values())
