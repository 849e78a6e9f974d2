"""Round-4b additions: exact two-sample KS drift, distributed NTILE,
grouped (per-key) HyperLogLog."""

import numpy as np
import pyarrow as pa
import pytest

import ray
import ray.data

from onestools_eventlog_ray.functions.fasthash import md5_lower64_one
from onestools_eventlog_ray.pipelines import relational, sketch


def _events_table(seed: int = 3, n: int = 4000) -> pa.Table:
    rng = np.random.default_rng(seed)
    types = np.array(["click", "view", "purchase"])
    et = types[rng.integers(0, 3, size=n)]
    # click ~ N(50, 10), view ~ N(55, 12): a real (detectable) drift
    v = np.where(et == "click", rng.normal(50, 10, n),
                 rng.normal(55, 12, n))
    v = np.round(np.abs(v), 2)
    return pa.table({
        "event_id": pa.array(np.arange(n), pa.int64()),
        "event_type": pa.array(et),
        "user_id": pa.array(rng.integers(0, 97, size=n), pa.int64()),
        "value": pa.array(v, pa.float64()),
    })


# ---------------------------------------------------------------------------
# ks_drift
# ---------------------------------------------------------------------------

def _ks_brute(v_a: np.ndarray, v_b: np.ndarray) -> tuple[int, int, int]:
    qa = np.floor(v_a * 1_000_000 + 0.5).astype(np.int64)
    qb = np.floor(v_b * 1_000_000 + 0.5).astype(np.int64)
    xs = np.unique(np.concatenate([qa, qb]))
    cum_a = np.searchsorted(np.sort(qa), xs, side="right")
    cum_b = np.searchsorted(np.sort(qb), xs, side="right")
    d = int(np.max(np.abs(cum_a * qb.size - cum_b * qa.size)))
    return qa.size, qb.size, d


def test_ks_drift_exact_bruteforce(ray_session):
    t = _events_table()
    out = relational.ks_drift(
        ray.data.from_arrow(t), "click", "view").to_pydict()
    et = t["event_type"].to_numpy(zero_copy_only=False)
    v = t["value"].to_numpy(zero_copy_only=False)
    n_a, n_b, d_num = _ks_brute(v[et == "click"], v[et == "view"])
    assert out["n_a"] == [n_a] and out["n_b"] == [n_b]
    assert out["d_num"] == [d_num]
    assert out["d_e6"] == [d_num * 1_000_000 // (n_a * n_b)]
    assert d_num > 0          # the planted drift is detectable


def test_ks_weekend_drift_bruteforce(ray_session):
    rng = np.random.default_rng(61)
    n = 3000
    ts = rng.integers(0, 86_400_000_000 * 28, size=n)       # 4 weeks
    dow = (ts // 86_400_000_000 + 3) % 7
    v = np.where(dow >= 5, rng.normal(80, 5, n), rng.normal(60, 5, n))
    v = np.round(np.abs(v), 2)
    t = pa.table({
        "event_type": pa.array(["purchase"] * (n - 5) + ["click"] * 5),
        "ts": pa.array(ts.astype("datetime64[us]")),
        "value": pa.array(v, pa.float64()),
    })
    out = relational.ks_weekend_drift(
        ray.data.from_arrow(t), "purchase").to_pydict()
    m = np.arange(n) < n - 5                   # purchase rows only
    n_a, n_b, d_num = _ks_brute(v[m & (dow < 5)], v[m & (dow >= 5)])
    assert out["n_a"] == [n_a] and out["n_b"] == [n_b]
    assert out["d_num"] == [d_num]
    assert out["d_e6"][0] > 500_000            # the planted shift is huge


def test_ann_bucket_stats_bruteforce(ray_session):
    from onestools_eventlog_ray.pipelines.ann import (_bucket_of,
                                                      ann_bucket_stats)
    from onestools_eventlog_ray.pipelines.similarity import (lsh_planes,
                                                             quantize_e6)
    rng = np.random.default_rng(67)
    vecs = rng.normal(0, 1, size=(400, 16))
    t = _emb_table(range(400), vecs)
    out = ann_bucket_stats(ray.data.from_arrow(t), dim=16, nbits=4,
                           seed=13).to_pandas()
    planes = lsh_planes(16, 4, 13)
    e6 = quantize_e6(vecs.astype(np.float32).astype(np.float64))
    want = np.bincount(_bucket_of(e6, planes), minlength=16)
    got = dict(zip(out["bucket"], out["n_vectors"]))
    for b in range(16):
        assert got.get(b, 0) == want[b]
    assert int(out["n_vectors"].sum()) == 400
    assert (out["share_e6"] == out["n_vectors"] * 1_000_000 // 400).all()


def test_sync_with_alerts_on_ingest(ray_session, tmp_path):
    """ES-Watcher flow: drop a partition with a doc matching a saved
    search -> sync_with_alerts indexes it AND returns the alert rows for
    ONLY the new file; a noop round returns no alerts."""
    import pyarrow.parquet as pq
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.functions.hashing import doc_id_from_keys
    from onestools_eventlog_ray.pipelines.incremental import CorpusWatcher

    def corpus(rows):
        return pa.table({
            "repo": pa.array([r[0] for r in rows]),
            "path": pa.array([r[1] for r in rows]),
            "commit": pa.array(["c0"] * len(rows)),
            "lang": pa.array(["py"] * len(rows)),
            "content": pa.array([r[2] for r in rows]),
        })

    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    base = corpus([("r", f"a{i}.py", "import os\ndef f(): pass")
                   for i in range(20)])
    pq.write_table(base, str(corpus_dir / "p0.parquet"))
    w = CorpusWatcher(str(corpus_dir), str(tmp_path / "idx"),
                      cfg=EngineConfig(num_partitions=4))
    rules = {"sev0_leak": ["password", "secret"],
             "gpu_jobs": ["cuda"]}
    r1 = w.sync_with_alerts(rules)
    assert r1["indexed_files"] == ["p0.parquet"]
    assert r1["alerts"].num_rows == 0               # nothing matches

    hot = corpus([("r", "bad.py", "secret password = 'hunter2'"),
                  ("r", "gpu.py", "import cuda\ncuda.launch()"),
                  ("r", "ok.py", "plain file")])
    pq.write_table(hot, str(corpus_dir / "p1.parquet"))
    r2 = w.sync_with_alerts(rules)
    assert r2["indexed_files"] == ["p1.parquet"]
    got = {(r["query_name"], r["doc_id"])
           for r in r2["alerts"].to_pylist()}
    ids = doc_id_from_keys(hot["repo"], hot["path"],
                           hot["commit"]).to_pylist()
    assert got == {("sev0_leak", ids[0]), ("gpu_jobs", ids[1])}

    r3 = w.sync_with_alerts(rules)                  # noop round
    assert r3["indexed_files"] == [] and r3["alerts"].num_rows == 0


def test_hard_negatives_planted(ray_session):
    """A cross-label near-twin must be the mined hard negative; the
    whole table equals a brute-force argmax on e6 cosine."""
    from onestools_eventlog_ray.pipelines import similarity
    rng = np.random.default_rng(89)
    dim = 8
    vecs = rng.normal(0, 1, size=(40, dim))
    labels = (np.arange(40) % 2).astype(np.int64)
    vecs[1] = vecs[0] + rng.normal(0, 0.01, dim)      # labels 0 vs 1 twins
    t = pa.table({
        "vec_id": pa.array(np.arange(40), pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              pa.list_(pa.float32())),
        "label": pa.array(labels, pa.int32()),
    })
    out = similarity.hard_negatives(
        ray.data.from_arrow(t), np.arange(40),
        np.asarray(t["embedding"].to_pylist(), dtype=np.float64),
        labels).to_pandas().set_index("vec_id").sort_index()
    assert out.loc[0, "neg_id"] == 1 and out.loc[1, "neg_id"] == 0

    m = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    e6 = np.floor(mn @ mn.T * 1e6 + 0.5).astype(np.int64)
    for i in range(40):
        cand = np.flatnonzero(labels != labels[i])
        best = e6[i, cand].max()
        want = cand[e6[i, cand] == best].min()
        assert out.loc[i, "neg_id"] == want
        assert out.loc[i, "cos_e6"] == best
        assert out.loc[i, "neg_label"] == labels[want]


def test_cosine_lsh_recall_bounds(ray_session):
    """The calibration row is internally consistent: found <= exact,
    recall_e6 = found*1e6//exact, and the sf0.001 table yields a sane
    non-trivial reading."""
    import __ray_entry__ as entrymod
    out = entrymod.queries()["cosine_lsh_recall"](
        "/root/testdata/sf0.001").to_pydict()
    n_exact, n_found = out["n_exact"][0], out["n_found"][0]
    assert 0 <= n_found <= n_exact
    assert out["recall_e6"][0] == n_found * 1_000_000 // max(n_exact, 1)
    if n_exact:
        assert out["recall_e6"][0] > 0      # 8 tables find SOMETHING


def test_dedup_incremental_equivalence(ray_session, tmp_path):
    """Incremental (store + new batch) == full-corpus verified pairs
    restricted to new-touching pairs: the old-old dup pair is NOT
    re-reported, the old-new and new-new pairs are, similarities
    bit-identical."""
    from onestools_eventlog_ray.pipelines import dedup as dedup_mod
    a = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    b = "one two three four five six seven eight nine ten eleven"
    old_rows = [(0, a), (1, a),                     # old-old dup pair
                (2, b),
                (3, "plain old unique text with several filler words here")]
    new_rows = [(10, b),                            # old-new dup (with 2)
                (11, "fresh unique increment text nothing like the rest"),
                (12, b)]                            # new-new dup (with 10)

    def tbl(rows):
        return pa.table({
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows]),
            "lang": pa.array(["en"] * len(rows)),
            "source": pa.array(["s"] * len(rows)),
            "n_chars": pa.array([len(r[1]) for r in rows], pa.int64()),
        })

    old_ds = ray.data.from_arrow(tbl(old_rows))
    new_ds = ray.data.from_arrow(tbl(new_rows))
    store = str(tmp_path / "sigstore")
    dedup_mod.write_signature_store(old_ds, store)
    inc = dedup_mod.dedup_incremental(new_ds, old_ds, store,
                                      min_jaccard=0.5).to_pandas()
    got = {(r.doc_a, r.doc_b): r.jaccard_e6 for r in inc.itertuples()}

    full = dedup_mod.minhash_verified_pairs(
        ray.data.from_arrow(tbl(old_rows + new_rows)),
        min_jaccard=0.5).to_pandas()
    new_set = {10, 11, 12}
    want = {(r.doc_a, r.doc_b): r.jaccard_e6 for r in full.itertuples()
            if r.doc_a in new_set or r.doc_b in new_set}
    assert got == want
    assert (2, 10) in got and (10, 12) in got       # old-new and new-new
    assert (0, 1) not in got                        # old-old suppressed


def test_pq_search_recall_bruteforce(ray_session):
    """n_hit equals a numpy reproduction of the ADC vs exact-L2 top-k
    comparison with the same deterministic codebook."""
    from onestools_eventlog_ray.pipelines import similarity
    rng = np.random.default_rng(101)
    dim, n, ksub, m, k = 16, 80, 8, 4, 10
    vecs = rng.normal(0, 1, size=(n, dim))
    t = _emb_table(range(n), vecs)
    q = np.asarray(t["embedding"][5].as_py(), dtype=np.float64)
    out = similarity.pq_search_recall(
        ray.data.from_arrow(t), q, query_id=5, k=k, m=m, ksub=ksub
    ).to_pydict()

    e4 = np.floor(np.asarray([r for r in t["embedding"].to_pylist()],
                             dtype=np.float64) * 10_000 + 0.5) \
        .astype(np.int64)
    qe = np.floor(q * 10_000 + 0.5).astype(np.int64)
    cmat, dsub = e4[:ksub], dim // m
    adc = np.zeros(n, dtype=np.int64)
    for s in range(m):
        xs = e4[:, s * dsub:(s + 1) * dsub]
        cs = cmat[:, s * dsub:(s + 1) * dsub]
        d2 = ((xs[:, None, :] - cs[None, :, :]) ** 2).sum(2)
        code = np.argmin(d2, axis=1)          # ties -> lowest id = argmin
        qd = ((cs - qe[s * dsub:(s + 1) * dsub][None, :]) ** 2).sum(1)
        adc += qd[code]
    ids = np.arange(n)
    mask = ids != 5
    approx = set(ids[mask][np.lexsort((ids[mask], adc[mask]))[:k]])
    l2 = ((e4 - qe[None, :]) ** 2).sum(1)
    exact = set(ids[mask][np.lexsort((ids[mask], l2[mask]))[:k]])
    assert out["n_hit"] == [len(approx & exact)]
    assert out["recall_e6"] == [len(approx & exact) * 1_000_000 // k]


def test_simhash_calibration_guarantee(ray_session):
    """recall_e6 == 1e6 whenever max_hamming <= bands-1 (pigeonhole),
    and every count matches a numpy brute force."""
    from onestools_eventlog_ray.pipelines import dedup as dedup_mod
    rng = np.random.default_rng(97)
    words = [f"w{i}" for i in range(300)]
    texts = []
    for i in range(60):
        base = list(rng.choice(words, size=30))
        texts.append(" ".join(base))
        if i % 10 == 0:                      # a near-twin: 1 word swapped
            tw = list(base)
            tw[0] = "zzz%d" % i
            texts.append(" ".join(tw))
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * len(texts)),
        "source": pa.array(["s"] * len(texts)),
        "n_chars": pa.array([len(x) for x in texts], pa.int64()),
    })
    out = dedup_mod.simhash_calibration(
        ray.data.from_arrow(t), max_hamming=3, bands=4).to_pydict()
    n = len(texts)
    assert out["n_pairs"] == [n * (n - 1) // 2]
    assert out["recall_e6"] == [1_000_000]   # the pigeonhole guarantee
    assert out["n_found"][0] <= out["n_cand"][0]

    sigs = dedup_mod.simhash_signatures(
        ray.data.from_arrow(t)).to_pandas().sort_values("doc_id")
    u = sigs["simhash"].to_numpy().astype(np.int64).view(np.uint64)
    d = np.array([[bin(int(a ^ b)).count("1") for b in u] for a in u])
    iu = np.triu_indices(n, 1)
    assert out["n_exact"] == [int((d[iu] <= 3).sum())]
    cand = np.zeros((n, n), dtype=bool)
    for b in range(4):
        s = (u >> np.uint64(16 * b)) & np.uint64(0xFFFF)
        cand |= s[:, None] == s[None, :]
    assert out["n_cand"] == [int(cand[iu].sum())]


def test_dedup_incremental_two_increments(ray_session, tmp_path):
    """update_store=True: increment 2 catches its dup against a doc that
    arrived in increment 1 (which was never part of the base store)."""
    from onestools_eventlog_ray.pipelines import dedup as dedup_mod
    c = "lorem ipsum dolor sit amet consectetur adipiscing elit sed do"

    def tbl(rows):
        return pa.table({
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows]),
            "lang": pa.array(["en"] * len(rows)),
            "source": pa.array(["s"] * len(rows)),
            "n_chars": pa.array([len(r[1]) for r in rows], pa.int64()),
        })

    base = [(0, "base corpus document with totally ordinary words inside")]
    inc1 = [(10, c)]
    inc2 = [(20, c)]
    store = str(tmp_path / "store2")
    base_ds = ray.data.from_arrow(tbl(base))
    dedup_mod.write_signature_store(base_ds, store)

    p1 = dedup_mod.dedup_incremental(
        ray.data.from_arrow(tbl(inc1)), base_ds, store,
        min_jaccard=0.5, update_store=True).to_pandas()
    assert len(p1) == 0                       # nothing similar yet

    union01 = ray.data.from_arrow(tbl(base + inc1))
    p2 = dedup_mod.dedup_incremental(
        ray.data.from_arrow(tbl(inc2)), union01, store,
        min_jaccard=0.5).to_pandas()
    assert [(r.doc_a, r.doc_b, r.jaccard_e6) for r in p2.itertuples()] \
        == [(10, 20, 1_000_000)]              # caught across increments


def test_dedup_cluster_sizes_planted(ray_session):
    """3 copies of A + 2 copies of B + 2 singletons -> {3: 1, 2: 1}."""
    from onestools_eventlog_ray.pipelines import dedup as dedup_mod
    a = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    b = "one two three four five six seven eight nine ten eleven"
    texts = [a, a, a, b, b,
             "completely different words in this document here now",
             "another unrelated text about nothing similar at all ok"]
    t = pa.table({
        "doc_id": pa.array(range(7), pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * 7),
        "source": pa.array(["s"] * 7),
        "n_chars": pa.array([len(x) for x in texts], pa.int64()),
    })
    out = dedup_mod.dedup_cluster_sizes(
        ray.data.from_arrow(t), min_jaccard=0.5).to_pydict()
    assert dict(zip(out["cluster_size"], out["n_clusters"])) == {2: 1,
                                                                 3: 1}


def test_cli_watch_alerts(ray_session, tmp_path, capsys):
    """`watch --once --alerts rules.json` indexes the partition AND
    prints the triggered saved-search alerts."""
    import json
    import pyarrow.parquet as pq
    from onestools_eventlog_ray.cli import main
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    pq.write_table(pa.table({
        "repo": pa.array(["r"]), "path": pa.array(["z.py"]),
        "commit": pa.array(["c"]), "lang": pa.array(["py"]),
        "content": pa.array(["token secret password inline"]),
    }), str(corpus / "p0.parquet"))
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"leak": ["password", "secret"],
                                 "gpu": ["cuda"]}))
    assert main(["watch", "--corpus", str(corpus),
                 "--index-root", str(tmp_path / "idx"),
                 "--once", "--alerts", str(rules)]) == 0
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["indexed_files"] == ["p0.parquet"]
    assert [a["query_name"] for a in rep["alerts"]] == ["leak"]


def test_embedding_norm_histogram_planted(ray_session):
    """Zero vector, unit vector, exploded vector -> three distinct bins
    (bin 0, bin 2, capped last bin)."""
    from onestools_eventlog_ray.pipelines import similarity
    vecs = [[0.0, 0.0], [1.0, 0.0], [100.0, 0.0], [0.6, 0.8]]
    t = pa.table({
        "vec_id": pa.array(range(4), pa.int64()),
        "embedding": pa.array(vecs, pa.list_(pa.float32())),
    })
    out = similarity.embedding_norm_histogram(
        ray.data.from_arrow(t), bin_width_e3=500, n_bins=32).to_pandas()
    got = dict(zip(out["bin"], out["n"]))
    assert got == {0: 1, 2: 2, 31: 1}     # 0.0 | 1.0 x2 | 100 capped


def test_percolate_must_not_planted(ray_session):
    from onestools_eventlog_ray.pipelines import text as text_mod
    texts = ["spark job fast", "spark job slow", "nothing here"]
    t = pa.table({
        "doc_id": pa.array(range(3), pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * 3),
        "source": pa.array(["s"] * 3),
        "n_chars": pa.array([len(x) for x in texts], pa.int64()),
    })
    out = text_mod.percolate(
        ray.data.from_arrow(t),
        {"clean": {"must": ["spark"], "must_not": ["slow"]},
         "plain": ["spark", "job"]}).to_pandas()
    got = {(r.doc_id, r.query_name) for r in out.itertuples()}
    assert got == {(0, "clean"), (0, "plain"), (1, "plain")}


def test_cli_dedup_full_and_incremental(ray_session, tmp_path, capsys):
    import json
    import pyarrow.parquet as pq
    from onestools_eventlog_ray.cli import main
    c = "shared template text with quite a few common tokens here now"
    pq.write_table(pa.table({
        "repo": pa.array(["r"] * 3), "path": pa.array(["a", "b", "u"]),
        "commit": pa.array(["c"] * 3), "lang": pa.array(["py"] * 3),
        "content": pa.array([c, c, "totally different unique body"]),
    }), str(tmp_path / "corpus.parquet"))
    pq.write_table(pa.table({
        "repo": pa.array(["r"]), "path": pa.array(["n"]),
        "commit": pa.array(["c"]), "lang": pa.array(["py"]),
        "content": pa.array([c]),
    }), str(tmp_path / "new.parquet"))
    store = str(tmp_path / "store")
    assert main(["dedup", "--corpus", str(tmp_path / "corpus.parquet"),
                 "--store", store]) == 0
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep == {"mode": "full", "n_pairs": 1, "n_clustered_docs": 2,
                   "n_clusters": 1, "store": store}
    assert main(["dedup", "--corpus", str(tmp_path / "corpus.parquet"),
                 "--store", store, "--new",
                 str(tmp_path / "new.parquet")]) == 0
    rep2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep2["mode"] == "incremental" and rep2["n_pairs"] == 2


def test_ab_test_report_bruteforce(ray_session):
    t = _events_table(seed=79, n=5000)
    out = relational.ab_test_report(
        ray.data.from_arrow(t), "purchase").to_pandas() \
        .set_index("variant").sort_index()
    uid = t["user_id"].to_numpy(zero_copy_only=False)
    et = t["event_type"].to_numpy(zero_copy_only=False)
    for v in (0, 1):
        users = np.unique(uid[uid % 2 == v])
        conv = np.unique(uid[(uid % 2 == v) & (et == "purchase")])
        assert out.loc[v, "n_users"] == users.size
        assert out.loc[v, "n_converted"] == conv.size
        assert out.loc[v, "conv_e6"] == conv.size * 1_000_000 // users.size


def test_dedup_keep_policy_planted(ray_session):
    """The same content in three sources keeps the highest-priority
    copy, NOT the smallest doc_id; unlisted sources rank last."""
    from onestools_eventlog_ray.pipelines import dedup as dedup_mod
    texts = ["same content here"] * 3 + ["unique one"] + ["other dup"] * 2
    srcs = ["crawl", "mirror", "crawl", "crawl", "archive", "crawl"]
    t = pa.table({
        "doc_id": pa.array([10, 20, 5, 7, 30, 2], pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * 6),
        "source": pa.array(srcs),
        "n_chars": pa.array([len(x) for x in texts], pa.int64()),
    })
    out = dedup_mod.dedup_keep_policy(
        ray.data.from_arrow(t),
        priority={"mirror": 0, "crawl": 1}).to_pandas() \
        .set_index("keep_doc_id")
    # group A (3 copies): mirror wins despite doc_id 20 > 5,10
    assert out.loc[20, "n_dups"] == 3
    assert out.loc[20, "keep_source"] == "mirror"
    # group B (unique): itself
    assert out.loc[7, "n_dups"] == 1
    # group C: archive is UNLISTED -> crawl (pr 1) beats archive (pr 2)
    assert out.loc[2, "n_dups"] == 2
    assert out.loc[2, "keep_source"] == "crawl"


def test_rate_spikes_planted(ray_session):
    """Flat 10-events/hour background + one 200-event hour: exactly that
    hour flags, zero-filled gap hours appear with n=0."""
    from onestools_eventlog_ray.pipelines.streaming import rate_spikes
    hour = 3_600_000_000
    ts = []
    for h in range(48):
        if h == 20:
            ts += [h * hour + i * 1000 for i in range(200)]
        elif h == 30:
            continue                                  # a silent hour
        else:
            ts += [h * hour + i * 1000 for i in range(10)]
    t = pa.table({"ts": pa.array(np.array(ts, dtype="datetime64[us]"))})
    out = rate_spikes(ray.data.from_arrow(t), z=3).to_pandas()
    assert len(out) == 48                             # zero-filled grid
    assert out.loc[out["window_start_us"] == 30 * hour,
                   "n_events"].iloc[0] == 0
    spikes = out[out["is_spike"] == 1]
    assert list(spikes["window_start_us"]) == [20 * hour]
    # brute-force the integer test on the same grid
    n = out["n_events"].to_numpy().astype(object)
    H, S, Q = len(n), int(sum(n)), int(sum(int(c) * int(c) for c in n))
    for c, flag in zip(n, out["is_spike"]):
        want = 1 if (H * int(c) > S and
                     (H * int(c) - S) ** 2 > 9 * (H * Q - S * S)) else 0
        assert flag == want


def test_ks_drift_zero_on_identical_samples(ray_session):
    v = np.array([1.0, 2.5, 2.5, 7.25, 9.0] * 3)
    t = pa.table({
        "event_type": pa.array(["click"] * v.size + ["view"] * v.size),
        "value": pa.array(np.concatenate([v, v]), pa.float64()),
    })
    out = relational.ks_drift(
        ray.data.from_arrow(t), "click", "view").to_pydict()
    assert out["d_num"] == [0] and out["d_e6"] == [0]


# ---------------------------------------------------------------------------
# value_ntile_by_type
# ---------------------------------------------------------------------------

def _ntile_brute(v: np.ndarray, eid: np.ndarray, k: int) -> np.ndarray:
    """SQL NTILE: first n%k tiles get ceil(n/k) rows, ORDER BY (v, eid)."""
    n = v.size
    order = np.lexsort((eid, v))
    base, rem = divmod(n, k)
    sizes = [base + 1] * rem + [base] * (k - rem)
    tile_sorted = np.repeat(np.arange(1, k + 1), sizes)[:n]
    out = np.empty(n, dtype=np.int64)
    out[order] = tile_sorted
    return out


@pytest.mark.parametrize("k,n", [(4, 4000), (3, 10), (7, 5)])
def test_value_ntile_matches_sql_semantics(ray_session, k, n):
    t = _events_table(seed=k, n=n)
    got = relational.value_ntile_by_type(
        ray.data.from_arrow(t), n_tiles=k).to_pandas() \
        .sort_values("event_id").reset_index(drop=True)
    eid = t["event_id"].to_numpy(zero_copy_only=False)
    et = t["event_type"].to_numpy(zero_copy_only=False)
    v = t["value"].to_numpy(zero_copy_only=False)
    want = np.empty(eid.size, dtype=np.int64)
    for ty in np.unique(et):
        m = et == ty
        want[m] = _ntile_brute(v[m], eid[m], k)
    got_by_eid = got.set_index("event_id")["tile"]
    assert np.array_equal(got_by_eid.loc[eid].to_numpy(), want)


def test_revenue_pareto_planted(ray_session):
    """10 customers, one whale with half the revenue: top-10% share is
    exactly the whale's."""
    rev = [900.0] + [100.0] * 9                       # total 1800
    t = pa.table({
        "o_custkey": pa.array(range(10), pa.int64()),
        "o_totalprice": pa.array(rev, pa.float64()),
    })
    out = relational.revenue_pareto(
        ray.data.from_arrow(t), pcts=(10, 50)).to_pandas() \
        .set_index("pct")
    assert out.loc[10, "n_top"] == 1
    assert out.loc[10, "share_e6"] == 90_000 * 1_000_000 // 180_000
    assert out.loc[50, "n_top"] == 5
    assert out.loc[50, "share_e6"] == 130_000 * 1_000_000 // 180_000


def test_top_sessions_planted(ray_session):
    """Two sessions per user (30-min gap rule); the high-value one
    ranks first; sums and counts exact."""
    from onestools_eventlog_ray.pipelines.streaming import top_sessions
    h = 3_600_000_000
    rows = [  # (user, ts, value)
        (1, 0, 10.5), (1, 60_000_000, 20.25),            # session A: 30.75
        (1, 3 * h, 1.0),                                 # session B: 1.0
        (2, 0, 100.0), (2, 10 * h, 2.0),                 # C: 100, D: 2
    ]
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array(np.array([r[1] for r in rows],
                                dtype="datetime64[us]")),
        "value": pa.array([r[2] for r in rows], pa.float64()),
    })
    out = top_sessions(ray.data.from_arrow(t), gap_s=1800, k=3) \
        .to_pydict()
    assert out["rnk"] == [1, 2, 3]
    assert out["value_e6"] == [100_000_000, 30_750_000, 2_000_000]
    assert out["user_id"] == [2, 1, 2]
    assert out["n_events"] == [1, 2, 1]


def test_bm25_param_sensitivity_identity(ray_session, tmp_path_factory,
                                          small_corpus_dir):
    """The baseline (k1, b) as a 'variant' must read overlap == k and
    same_top1 == 1; extreme variants stay within bounds."""
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.pipelines.build import build_index
    from onestools_eventlog_ray.pipelines.query import \
        bm25_param_sensitivity
    d = str(tmp_path_factory.mktemp("sens_idx"))
    build_index(small_corpus_dir, d, cfg=EngineConfig(num_partitions=8))
    out = bm25_param_sensitivity(
        d, ["def", "import"],
        variants=((1.2, 0.75), (5.0, 0.99))).to_pandas() \
        .set_index(["k1_e2", "b_e2"])
    assert out.loc[(120, 75), "overlap"] == 10
    assert out.loc[(120, 75), "same_top1"] == 1
    assert 0 <= out.loc[(500, 99), "overlap"] <= 10


def test_source_dup_matrix_planted(ray_session):
    """Twins across feeds A/B plus an intra-A pair -> matrix cells
    (A,A):1 and (A,B):1."""
    from onestools_eventlog_ray.pipelines import dedup as dedup_mod
    c1 = "shared syndicated article text with many common words here"
    c2 = "another duplicated template reused within the same feed twice"
    texts = [c1, c1, c2, c2, "unique words completely different content"]
    srcs = ["A", "B", "A", "A", "B"]
    t = pa.table({
        "doc_id": pa.array(range(5), pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * 5),
        "source": pa.array(srcs),
        "n_chars": pa.array([len(x) for x in texts], pa.int64()),
    })
    out = dedup_mod.source_dup_matrix(
        ray.data.from_arrow(t), min_jaccard=0.5).to_pydict()
    got = {(a, b): n for a, b, n in zip(out["src_a"], out["src_b"],
                                        out["n_pairs"])}
    assert got == {("A", "A"): 1, ("A", "B"): 1}


def test_training_data_card_planted(ray_session):
    from onestools_eventlog_ray.pipelines import text as text_mod
    texts = ["a b c", "a b c", "d e", "f g h i"]
    t = pa.table({
        "doc_id": pa.array(range(4), pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en", "en", "de", "fr"]),
        "source": pa.array(["s0", "s1", "s0", "s0"]),
        "n_chars": pa.array([len(x) for x in texts], pa.int64()),
    })
    out = text_mod.training_data_card(
        ray.data.from_arrow(t)).to_pydict()
    assert out["n_docs"] == [4]
    assert out["total_tokens"] == [12]
    assert out["vocab"] == [9]               # a..i
    assert out["n_langs"] == [3] and out["n_sources"] == [2]
    assert out["dup_rate_e6"] == [250_000]   # 1 dup of 4
    assert out["mean_dl_e6"] == [3_000_000]


def test_term_burstiness_planted(ray_session):
    """A word repeated 10x inside each of 5 docs bursts at 10.0; a word
    appearing once per doc across all docs reads 1.0."""
    from onestools_eventlog_ray.pipelines import text as text_mod
    texts = [("bursty " * 10) + "common" for _ in range(5)] \
        + ["common plain words here"] * 5
    t = pa.table({
        "doc_id": pa.array(range(10), pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * 10),
        "source": pa.array(["s"] * 10),
        "n_chars": pa.array([len(x) for x in texts], pa.int64()),
    })
    out = text_mod.term_burstiness(
        ray.data.from_arrow(t), min_df=5, k=5).to_pandas() \
        .set_index("term")
    assert out.loc["bursty", "burst_e6"] == 10_000_000
    assert out.loc["bursty", "df"] == 5 and out.loc["bursty", "cf"] == 50
    assert out.loc["common", "burst_e6"] == 1_000_000
    assert out.index[0] == "bursty"            # top of the ranking


def test_conversion_lag_planted(ray_session):
    """click at t=0, purchases at +5min and +25min -> bins 0 and 2;
    purchase with no prior click dropped (inner as-of)."""
    m = 60_000_000
    rows = [(1, 0, "click"), (1, 5 * m, "purchase"),
            (1, 25 * m, "purchase"),
            (2, 10 * m, "purchase")]            # no prior click -> drop
    t = pa.table({
        "event_id": pa.array(range(4), pa.int64()),
        "ts": pa.array(np.array([r[1] for r in rows],
                                dtype="datetime64[us]")),
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "event_type": pa.array([r[2] for r in rows]),
    })
    out = relational.conversion_lag_histogram(
        ray.data.from_arrow(t)).to_pandas()
    assert dict(zip(out["bin"], out["n"])) == {0: 1, 2: 1}


def test_cohort_retention_planted(ray_session):
    """Hand-built two-cohort stream -> exact matrix."""
    week = 7 * 86_400_000_000
    rows = [  # (user, week)
        (1, 0), (1, 0), (1, 1), (1, 3),     # cohort 0: ages 0,1,3
        (2, 0), (2, 1),                     # cohort 0: ages 0,1
        (3, 1), (3, 3),                     # cohort 1: ages 0,2
    ]
    ts = np.array([w * week + 5_000_000 for _, w in rows],
                  dtype="datetime64[us]")
    t = pa.table({"user_id": pa.array([u for u, _ in rows], pa.int64()),
                  "ts": pa.array(ts)})
    out = relational.cohort_retention(ray.data.from_arrow(t)).to_pandas()
    got = {(r.cohort_week, r.age_weeks): r.n_users
           for r in out.itertuples()}
    assert got == {(0, 0): 2, (0, 1): 2, (0, 3): 1, (1, 0): 1, (1, 2): 1}


def test_props_schema_profile_planted(ray_session):
    """Nested docs -> generalized paths + types + distinct counts."""
    docs = ['{"a": 1, "b": [1, 2, {"c": "x"}], "n": null}',
            '{"a": 2, "b": [9], "f": true}',
            'not json at all',
            None]
    t = pa.table({"event_id": pa.array(range(4), pa.int64()),
                  "doc": pa.array(docs, pa.string())})
    out = relational.props_schema_profile(
        ray.data.from_arrow(t), col="doc").to_pandas()
    got = {(r.path, r.vtype): (r.n, r.n_distinct)
           for r in out.itertuples()}
    assert got == {
        ("$.a", "number"): (2, 2),
        ("$.b[*]", "number"): (3, 3),        # 1, 2, 9
        ("$.b[*].c", "string"): (1, 1),
        ("$.f", "bool"): (1, 1),
    }                                        # null leaf + bad rows dropped


def test_q19_revenue_bruteforce(ray_session):
    import duckdb
    import __ray_entry__ as entrymod
    sf = "/root/testdata/sf0.01"      # sf0.001 selects zero rows
    out = entrymod.queries()["q19_revenue"](sf).to_pydict()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW lineitem AS SELECT * FROM "
            f"read_parquet('{sf}/lineitem.parquet')")
    con.sql(f"CREATE VIEW part AS SELECT * FROM "
            f"read_parquet('{sf}/part.parquet')")
    want = con.sql(entrymod.oracle_sql()["q19_revenue"]).fetchone()
    assert (out["n_matched"][0], out["revenue_e4"][0]) == want
    assert out["n_matched"][0] > 0           # clauses actually select


def test_value_cume_dist_ties(ray_session):
    """Tied values share the same cume share (RANGE semantics), exact
    against a brute force."""
    v = np.array([1.0, 2.0, 2.0, 2.0, 5.0, 7.0])
    t = pa.table({
        "event_id": pa.array(range(6), pa.int64()),
        "event_type": pa.array(["x"] * 6),
        "value": pa.array(v, pa.float64()),
    })
    out = relational.value_cume_dist_by_type(
        ray.data.from_arrow(t)).to_pandas().sort_values("event_id")
    want = [np.sum(v <= x) * 1_000_000 // 6 for x in v]
    assert list(out["cume_e6"]) == want
    assert out["cume_e6"].iloc[1] == out["cume_e6"].iloc[2] \
        == out["cume_e6"].iloc[3]


# ---------------------------------------------------------------------------
# lang_source_chi2
# ---------------------------------------------------------------------------

def test_lang_source_chi2_bruteforce(ray_session):
    rng = np.random.default_rng(17)
    langs = np.array(["en", "de", "fr"])[rng.integers(0, 3, 900)]
    # plant dependence: source skews with lang
    srcs = np.where((langs == "en") & (rng.random(900) < 0.7), "s0",
                    np.array(["s0", "s1"])[rng.integers(0, 2, 900)])
    t = pa.table({"lang": pa.array(langs), "source": pa.array(srcs)})
    out = relational.lang_source_chi2(ray.data.from_arrow(t)).to_pandas()

    import collections
    o = collections.Counter(zip(langs, srcs))
    rt = collections.Counter(langs)
    ct = collections.Counter(srcs)
    T = 900
    for row in out.itertuples():
        obs = o[(row.lang, row.source)]
        assert row.o == obs
        num = (obs * T - rt[row.lang] * ct[row.source]) ** 2 * 1_000_000
        assert row.chi2_term_e6 == num // (rt[row.lang] * ct[row.source] * T)
    assert len(out) == len(o)
    # the planted dependence is detectable: chi2 >> cells
    chi2 = out["chi2_term_e6"].sum() / 1e6
    assert chi2 > 20, chi2


# ---------------------------------------------------------------------------
# k_anonymity_report
# ---------------------------------------------------------------------------

def test_k_anonymity_bruteforce(ray_session):
    rng = np.random.default_rng(23)
    langs = np.array(["en", "de", "fr", "zz"])[
        rng.choice(4, 500, p=[0.6, 0.3, 0.08, 0.02])]
    srcs = np.array(["s0", "s1", "s2"])[rng.integers(0, 3, 500)]
    t = pa.table({"lang": pa.array(langs), "source": pa.array(srcs)})
    out = relational.k_anonymity_report(
        ray.data.from_arrow(t), k=10).to_pydict()

    import collections
    cells = collections.Counter(zip(langs, srcs))
    small = [v for v in cells.values() if v < 10]
    assert out["n_cells"] == [len(cells)]
    assert out["n_small_cells"] == [len(small)]
    assert out["rows_at_risk"] == [sum(small)]
    assert len(small) > 0          # the planted 'zz' tail is at risk


# ---------------------------------------------------------------------------
# hardest_examples
# ---------------------------------------------------------------------------

def test_hardest_examples_bruteforce(ray_session):
    """Planted rare-token docs must surface as the hardest of their
    language; exact trunc-division mean check against a full recompute."""
    import re
    from onestools_eventlog_ray.pipelines import text as text_mod

    rng = np.random.default_rng(31)
    common = ["the", "a", "data", "table", "row", "scan"]
    texts, langs = [], []
    for i in range(120):
        words = list(rng.choice(common, size=20))
        if i % 40 == 0:
            words = [f"rareword{i}"] * 20       # all-rare doc: hardest
        texts.append(" ".join(words))
        langs.append("en" if i % 2 == 0 else "de")
    t = pa.table({
        "doc_id": pa.array(range(120), pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(langs),
        "source": pa.array(["s"] * 120),
        "n_chars": pa.array([len(x) for x in texts], pa.int64()),
    })
    out = text_mod.hardest_examples(
        ray.data.from_arrow(t), k=3).to_pandas()

    # brute force: global unigram LM, e6-rounded per-token lp, trunc mean
    toks = [re.findall(r"[a-z0-9_]+", s.lower()) for s in texts]
    import collections
    cf = collections.Counter(w for ws in toks for w in ws)
    total = sum(cf.values())
    lp = {w: int(np.floor(np.log(c / total) * 1e6 + 0.5))
          for w, c in cf.items()}
    rows = []
    for i, ws in enumerate(toks):
        s = sum(lp[w] for w in ws)
        rows.append((langs[i], i, len(ws), s, int(np.trunc(s / len(ws)))
                     if s >= 0 else -((-s) // len(ws))))
    want = {}
    for lang in ("en", "de"):
        lr = sorted([r for r in rows if r[0] == lang],
                    key=lambda r: (r[4], r[1]))[:3]
        want[lang] = [(rk + 1, r[1], r[2], r[3], r[4])
                      for rk, r in enumerate(lr)]
    got = {}
    for r in out.itertuples():
        got.setdefault(r.lang, []).append(
            (int(r.rnk), int(r.doc_id), int(r.dl), int(r.sum_lp_e6),
             int(r.mean_lp_e6)))
    for lang in want:
        assert sorted(got[lang]) == want[lang], lang
    # the planted all-rare docs are rank-1 of their language
    assert got["en"][0][1] in (0, 40, 80)


# ---------------------------------------------------------------------------
# ltr_features
# ---------------------------------------------------------------------------

def test_ltr_features_consistent_with_engine(ray_session, tmp_path_factory,
                                             small_corpus_dir):
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.pipelines.build import build_index
    from onestools_eventlog_ray.pipelines.query import (SearchEngine,
                                                        explain_score,
                                                        ltr_features)
    index_dir = str(tmp_path_factory.mktemp("ltr_index"))
    build_index(small_corpus_dir, index_dir,
                cfg=EngineConfig(num_partitions=8))
    eng = SearchEngine(index_dir)
    terms = ["def", "import", "class"]
    feats = ltr_features(eng, terms).to_pandas().set_index("doc_id")

    # identity 1: bm25_e6 == the scorer's full ranking, same doc set
    hits = dict(eng.search(terms, 1_000_000))
    assert set(feats.index) == set(hits)
    for d, s in hits.items():
        assert feats.loc[d, "bm25_e6"] == int(np.floor(s * 1e6 + 0.5))

    # identity 2: n_matched / sum_tf / dl == the _explain breakdown
    sample = sorted(hits)[:10]
    for d in sample:
        ex = explain_score(eng, terms, d)
        assert feats.loc[d, "n_matched"] == ex.num_rows
        assert feats.loc[d, "sum_tf"] == sum(ex["tf"].to_pylist())
        assert feats.loc[d, "dl"] == ex["dl"][0].as_py()

    # no-match terms -> empty table with the full schema
    empty = ltr_features(eng, ["zzzznope"])
    assert empty.num_rows == 0
    assert empty.column_names == ["doc_id", "n_matched", "sum_tf", "dl",
                                  "bm25_e6"]


# ---------------------------------------------------------------------------
# incremental ANN (add_ann_generation / compact_ann)
# ---------------------------------------------------------------------------

def _emb_table(ids, vecs):
    return pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              pa.list_(pa.float32())),
    })


def test_ann_incremental_parity_and_update(ray_session, tmp_path):
    """Incremental == full rebuild == compacted, bit-for-bit; re-added
    ids take the LAST generation's vector."""
    from onestools_eventlog_ray.pipelines.ann import (AnnIndex,
                                                      add_ann_generation,
                                                      build_ann_index,
                                                      compact_ann)
    rng = np.random.default_rng(47)
    dim = 16
    vecs = rng.normal(0, 1, size=(300, dim))
    base, gen1 = _emb_table(range(200), vecs[:200]), \
        _emb_table(range(200, 300), vecs[200:])

    full_dir = str(tmp_path / "full")
    build_ann_index(ray.data.from_arrow(_emb_table(range(300), vecs)),
                    full_dir, dim=dim, nbits=4, seed=7)
    inc_dir = str(tmp_path / "inc")
    build_ann_index(ray.data.from_arrow(base), inc_dir, dim=dim,
                    nbits=4, seed=7)
    rep = add_ann_generation(ray.data.from_arrow(gen1), inc_dir)
    assert rep["generation"] == 1 and rep["n_vectors_added"] == 100

    queries = rng.normal(0, 1, size=(8, dim))
    full, inc = AnnIndex(full_dir), AnnIndex(inc_dir)
    for q in queries:
        assert inc.query(q, k=10, hamming=1) == full.query(q, k=10,
                                                           hamming=1)

    # update semantics: re-add id 5 pointing at a brand-new direction
    # (it hashes to a DIFFERENT bucket — the stale row must be
    # suppressed cross-bucket via the generation id set)
    newv = rng.normal(0, 1, size=dim) * 3
    add_ann_generation(ray.data.from_arrow(_emb_table([5], [newv])),
                       inc_dir)
    inc2 = AnnIndex(inc_dir)
    hits = dict(inc2.query(newv, k=5, hamming=1))
    assert 5 in hits and hits[5] > 0.999          # now its own neighbor

    # gold parity: incremental-with-update == full rebuild over the
    # union with vec 5 REPLACED
    vecs2 = vecs.copy()
    vecs2[5] = newv
    full2_dir = str(tmp_path / "full2")
    build_ann_index(ray.data.from_arrow(_emb_table(range(300), vecs2)),
                    full2_dir, dim=dim, nbits=4, seed=7)
    full2 = AnnIndex(full2_dir)
    for q in list(queries) + [vecs[5], newv]:
        assert inc2.query(q, k=10, hamming=1) == full2.query(q, k=10,
                                                             hamming=1)

    # compaction: sidecars folded away, results identical
    before = [inc2.query(q, k=10, hamming=1) for q in queries]
    rep2 = compact_ann(inc_dir)
    assert rep2["n_vectors"] == 300               # 5 deduped last-wins
    import glob as _glob
    assert not _glob.glob(str(tmp_path / "inc" / "ann" / "*.g0*.parquet"))
    inc3 = AnnIndex(inc_dir)
    after = [inc3.query(q, k=10, hamming=1) for q in queries]
    assert after == before


def test_ann_generation_crash_resume_idempotent(ray_session, tmp_path):
    """A crash between the sidecar writes and the meta bump leaves
    n_generations unbumped; re-running add_ann_generation must rewrite
    generation 1 in place (deterministic content, unique ids after the
    id-set fold) and end bit-identical to the clean path."""
    import json
    from onestools_eventlog_ray.pipelines.ann import (AnnIndex,
                                                      add_ann_generation,
                                                      build_ann_index)
    rng = np.random.default_rng(83)
    vecs = rng.normal(0, 1, size=(160, 8))
    d = str(tmp_path / "annr")
    build_ann_index(ray.data.from_arrow(_emb_table(range(100), vecs[:100])),
                    d, dim=8, nbits=3, seed=3)
    gen = ray.data.from_arrow(_emb_table(range(100, 160), vecs[100:]))
    add_ann_generation(gen, d)

    meta_p = tmp_path / "annr" / "ann" / "_meta.json"
    m = json.loads(meta_p.read_text())
    m["n_generations"] = 0                       # simulate pre-bump crash
    m["n_vectors"] -= 60
    meta_p.write_text(json.dumps(m))

    rep = add_ann_generation(gen, d)             # resume: same gen slot
    assert rep["generation"] == 1
    full_dir = str(tmp_path / "full")
    build_ann_index(ray.data.from_arrow(_emb_table(range(160), vecs)),
                    full_dir, dim=8, nbits=3, seed=3)
    full, inc = AnnIndex(full_dir), AnnIndex(d)
    for q in rng.normal(0, 1, size=(6, 8)):
        assert inc.query(q, k=10, hamming=1) == full.query(q, k=10,
                                                           hamming=1)


_PHRASE = ["vbf1df2d054eb", "v34faba708a09"]


@pytest.mark.parametrize("stage", ["text", "phrase", "ann"])
def test_serving_cache_sees_deletes(ray_session, tmp_path, small_corpus_dir,
                                    stage):
    """Each batch query stage keeps one engine per worker process; a
    delete between two calls must drop the deleted id from the next
    batch, not answer from the stale snapshot, and keep the rest in
    order."""
    import time
    from onestools_eventlog_ray.config import EngineConfig
    d = str(tmp_path / "srv")
    if stage == "ann":
        from onestools_eventlog_ray.pipelines.ann import (build_ann_index,
                                                          delete_ann_vecs,
                                                          score_ann_queries)
        vecs = np.random.default_rng(103).normal(0, 1, size=(120, 8))
        build_ann_index(ray.data.from_arrow(_emb_table(range(120), vecs)),
                        d, dim=8, nbits=3, seed=5)
        q = [{"query_id": 0, "embedding": vecs[7].tolist(), "exclude_id": 7}]

        def run():
            return [int(r["vec_id"]) for r in
                    score_ann_queries(d, q, k=5, hamming=1).take_all()]

        def delete(i):
            delete_ann_vecs(d, {i})
            time.sleep(0.05)              # distinct mtime granularity
    else:
        from onestools_eventlog_ray.pipelines.build import build_index
        from onestools_eventlog_ray.state.tombstones import delete_docs
        cfg = EngineConfig(num_partitions=8)
        build_index(small_corpus_dir, d, cfg=cfg)

        def delete(i):
            delete_docs(d, [i])
        if stage == "text":
            from onestools_eventlog_ray.pipelines.query import score_queries
            q = [{"query_id": 0, "terms": ["def", "import"], "k": 5}]

            def run():
                return [int(r["doc_id"]) for r in
                        score_queries(d, q).take_all()]
        else:
            from onestools_eventlog_ray.pipelines.phrase import (
                build_position_index, score_phrase_queries)
            build_position_index(small_corpus_dir, d, cfg=cfg)
            q = [{"query_id": 0, "terms": _PHRASE}]

            def run():
                return [int(r["doc_id"]) for r in
                        score_phrase_queries(d, q).take_all()]
    r1 = run()
    delete(r1[0])
    r2 = run()
    assert r1[0] not in r2
    assert r2[:len(r1) - 1] == r1[1:]


def test_worker_engine_reopens_on_index_changes(ray_session, tmp_path,
                                                small_corpus,
                                                small_corpus_dir,
                                                monkeypatch):
    """The stages' one per-worker cache, driven in-process through the
    three batch bodies: the same engine while the watched paths are
    unchanged, a new one after a tombstone append (text, phrase), a
    sidecar rebuild (phrase, also in place into the same shard names)
    and an ANN delete (ANN), and only for the engines that watch the
    changed path."""
    import os

    import pyarrow.parquet as pq
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.functions import runtime
    from onestools_eventlog_ray.pipelines import ann, phrase, query
    from onestools_eventlog_ray.pipelines.build import build_index
    from onestools_eventlog_ray.state.tombstones import delete_docs
    # keep the test process's Arrow thread pools as they are
    monkeypatch.setattr(runtime, "pin_worker_threads", lambda n=1: None)
    other = tmp_path / "other"
    other.mkdir()
    pq.write_table(small_corpus.slice(0, 100), str(other / "p.parquet"))
    d = str(tmp_path / "idx")
    build_index(small_corpus_dir, d, cfg=EngineConfig(num_partitions=8))
    phrase.build_position_index(small_corpus_dir, d,
                                cfg=EngineConfig(num_partitions=8))
    vecs = np.random.default_rng(7).normal(0, 1, size=(60, 8))
    ann.build_ann_index(ray.data.from_arrow(_emb_table(range(60), vecs)),
                        d, dim=8, nbits=3, seed=5)
    terms = pa.table({"query_id": [0], "terms": [_PHRASE]})
    opens = (query.SearchEngine, phrase.PhraseEngine, ann.AnnIndex)

    def engines():
        query._score_batch(terms, index_dir=d, k=3, tie="float")
        phrase._phrase_batch(terms, index_dir=d)
        ann._ann_batch(pa.table({"query_id": [0],
                                 "embedding": [vecs[0].tolist()]}),
                       index_dir=d, k=3, hamming=1)
        return [runtime._ENGINES[(fn, d)][1] for fn in opens]

    def same(a, b):
        return [x is y for x, y in zip(a, b)]

    try:
        e0 = engines()
        assert same(engines(), e0) == [True, True, True]
        delete_docs(d, [int(query.SearchEngine(d).docs[0])])
        e1 = engines()
        assert same(e1, e0) == [False, False, True]
        assert same(engines(), e1) == [True, True, True]
        # a rebuild into more partitions adds shard files to the listing
        phrase.build_position_index(small_corpus_dir, d,
                                    cfg=EngineConfig(num_partitions=16))
        e2 = engines()
        assert same(e2, e1) == [True, False, True]
        # a rebuild back into 8 partitions over other docs rewrites the
        # same shard names: the listing stays, _meta.json is rewritten
        listing = sorted(os.listdir(os.path.join(d, "positions")))
        phrase.build_position_index(str(other), d,
                                    cfg=EngineConfig(num_partitions=8))
        assert sorted(os.listdir(os.path.join(d, "positions"))) == listing
        e3 = engines()
        assert same(e3, e2) == [True, False, True]
        ann.delete_ann_vecs(d, {3})
        assert same(engines(), e3) == [True, True, False]
    finally:
        for fn in opens:
            runtime._ENGINES.pop((fn, d), None)


def test_worker_engine_sees_a_new_generation(ray_session, tmp_path,
                                             small_corpus, monkeypatch):
    """The BM25 batch body over a root of generations: the same engine
    while the root is unchanged, and after ``add_generation`` a new one
    whose results hold the new generation's docs."""
    import pyarrow.parquet as pq
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.functions import runtime
    from onestools_eventlog_ray.pipelines import query
    from onestools_eventlog_ray.pipelines.incremental import add_generation
    monkeypatch.setattr(runtime, "pin_worker_threads", lambda n=1: None)
    cfg = EngineConfig(num_partitions=8)
    half = small_corpus.num_rows // 2
    srcs = []
    for i, tbl in enumerate([small_corpus.slice(0, half),
                             small_corpus.slice(half)]):
        srcs.append(str(tmp_path / f"half{i}.parquet"))
        pq.write_table(tbl, srcs[-1])
    root = str(tmp_path / "root")
    add_generation(srcs[0], root, cfg=cfg)
    batch = pa.table({"query_id": [0], "terms": [["def"]]})
    n = small_corpus.num_rows

    def engine():
        out = query._score_batch(batch, index_dir=root, k=n, tie="float")
        return runtime._ENGINES[(query.SearchEngine, root)][1], out

    try:
        e0, out0 = engine()
        assert engine()[0] is e0 and len(e0.engines) == 1
        add_generation(srcs[1], root, cfg=cfg)
        e1, out1 = engine()
        assert e1 is not e0 and len(e1.engines) == 2
        assert out1.num_rows > out0.num_rows
        assert list(zip(out1["doc_id"].to_pylist(),
                        out1["score"].to_pylist())) \
            == query.SearchEngine(root).search(["def"], n)
    finally:
        runtime._ENGINES.pop((query.SearchEngine, root), None)


def test_ann_delete_tombstones(ray_session, tmp_path):
    """Deleted ids vanish from results (others' scores untouched);
    compaction drops the rows physically and clears the tombstone set."""
    from onestools_eventlog_ray.pipelines.ann import (AnnIndex,
                                                      build_ann_index,
                                                      compact_ann,
                                                      delete_ann_vecs)
    rng = np.random.default_rng(53)
    vecs = rng.normal(0, 1, size=(150, 12))
    d = str(tmp_path / "annd")
    build_ann_index(ray.data.from_arrow(_emb_table(range(150), vecs)),
                    d, dim=12, nbits=4, seed=11)
    q = vecs[0]
    before = AnnIndex(d).query(q, k=20, hamming=1)
    victims = {before[0][0], before[3][0]}
    assert delete_ann_vecs(d, victims) == 2
    assert delete_ann_vecs(d, victims) == 0          # idempotent
    after = AnnIndex(d).query(q, k=20, hamming=1)
    assert [h for h in after if h[0] in victims] == []
    surviving = [h for h in before if h[0] not in victims]
    assert after[:len(surviving)] == surviving       # order/scores intact
    rep = compact_ann(d)
    assert rep["n_vectors"] == 148
    import os as _os
    assert not _os.path.exists(
        str(tmp_path / "annd" / "ann" / "_deleted.parquet"))
    assert AnnIndex(d).query(q, k=20, hamming=1) == after


# ---------------------------------------------------------------------------
# embedding_outliers
# ---------------------------------------------------------------------------

def test_embedding_cov_bruteforce(ray_session):
    """Exact integer identity per cell + closeness to numpy's float
    population covariance."""
    from onestools_eventlog_ray.pipelines import similarity
    rng = np.random.default_rng(71)
    vecs = rng.normal(0, 1, size=(250, 6))
    t = _emb_table(range(250), vecs)
    out = similarity.embedding_cov(ray.data.from_arrow(t)).to_pandas()
    assert len(out) == 6 * 7 // 2
    e6 = np.floor(vecs.astype(np.float32).astype(np.float64)
                  * 1e6 + 0.5).astype(np.int64)
    n = 250
    for r in out.itertuples():
        a, b = e6[:, r.i - 1], e6[:, r.j - 1]
        sxy, si, sj = int(a @ b), int(a.sum()), int(b.sum())
        assert r.sxy == sxy
        num = n * sxy - si * sj
        assert r.cov_e12 == abs(num) // n ** 2 * (1 if num >= 0 else -1)
        # sanity: matches float population covariance to quantization
        f = np.mean(a / 1e6 * (b / 1e6)) - np.mean(a / 1e6) * np.mean(b / 1e6)
        assert abs(r.cov_e12 / 1e12 - f) < 1e-5


def test_embedding_outliers_planted(ray_session):
    """A vector shoved far from its label's cluster must be rank-1, and
    d2 must equal the brute-force trunc-mean distance exactly."""
    from onestools_eventlog_ray.pipelines import similarity
    from onestools_eventlog_ray.pipelines.text import _trunc_div

    rng = np.random.default_rng(41)
    dim = 8
    vecs = rng.normal(0, 0.05, size=(60, dim))
    labels = np.arange(60) % 2
    vecs[labels == 0] += 1.0
    vecs[7] = 9.0                      # planted outlier in label 1
    t = pa.table({
        "vec_id": pa.array(np.arange(60), pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              pa.list_(pa.float32())),
        "label": pa.array(labels, pa.int32()),
    })
    out = similarity.embedding_outliers(
        ray.data.from_arrow(t), k=2).to_pandas()

    e6 = np.floor(vecs.astype(np.float32).astype(np.float64)
                  * 1e6 + 0.5).astype(np.int64)
    for lab in (0, 1):
        sel = np.flatnonzero(labels == lab)
        mu = _trunc_div(e6[sel].sum(axis=0), sel.size)
        d2 = ((e6[sel] - mu) ** 2).sum(axis=1)
        order = np.lexsort((sel, -d2))[:2]
        want = [(int(sel[i]), int(d2[i])) for i in order]
        got = out[out["label"] == lab].sort_values("rnk")
        assert list(zip(got["vec_id"], got["d2"])) == want, lab
    assert out[(out["label"] == 1) & (out["rnk"] == 1)]["vec_id"] \
        .iloc[0] == 7


# ---------------------------------------------------------------------------
# hll_users_by_type
# ---------------------------------------------------------------------------

def test_hll_users_by_type_registers_exact_and_estimate(ray_session):
    t = _events_table(seed=9, n=3000)
    b = 8
    out = sketch.hll_users_by_type(
        ray.data.from_arrow(t), b=b).to_pandas()

    # brute-force registers per (type, bucket)
    et = t["event_type"].to_numpy(zero_copy_only=False)
    uid = t["user_id"].to_numpy(zero_copy_only=False)
    want: dict[tuple[str, int], int] = {}
    exact: dict[str, int] = {}
    for ty in np.unique(et):
        users = np.unique(uid[et == ty])
        exact[ty] = users.size
        for u in users:
            h = md5_lower64_one(str(int(u)))
            bucket = h & ((1 << b) - 1)
            w = h >> b
            rho = 64 - b + 1 if w == 0 else 1 + (w & -w).bit_length() - 1
            key = (str(ty), int(bucket))
            want[key] = max(want.get(key, 0), rho)
    got = {(r.event_type, int(r.bucket)): int(r.max_rho)
           for r in out.itertuples()}
    assert got == want

    # the estimate from one type's registers lands near the exact count
    for ty, n_exact in exact.items():
        regs = out[out["event_type"] == ty][["bucket", "max_rho"]]
        est = sketch.hll_estimate(
            pa.Table.from_pandas(regs, preserve_index=False), b=b)
        assert abs(est - n_exact) / n_exact < 0.25, (ty, est, n_exact)
