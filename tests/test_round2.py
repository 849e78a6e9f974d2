"""Round-2 features: md5 fasthash kernels, exact-mod MinHash, bucketed
pair verification, LSH cosine pairs, filtered search, docstore pruning,
rebuild staleness, and stats-free codec-v3 block bounds."""

import os

import numpy as np
import pyarrow as pa
import pytest

from onestools_eventlog_ray.functions import codec
from onestools_eventlog_ray.functions.fasthash import (MERSENNE61,
                                                       md5_lower64,
                                                       md5_lower64_one,
                                                       mulmod_p61,
                                                       poly_hash_p61)

P61 = int(MERSENNE61)


# ---------------------------------------------------------------------------
# fasthash
# ---------------------------------------------------------------------------

def test_mulmod_exact():
    rng = np.random.default_rng(7)
    x = rng.integers(0, P61, 5000).astype(np.uint64)
    y = rng.integers(0, P61, 5000).astype(np.uint64)
    got = mulmod_p61(x, y)
    exp = np.array([(int(a) * int(b)) % P61 for a, b in zip(x, y)],
                   dtype=np.uint64)
    assert (got == exp).all()


def test_md5_lower64_matches_duckdb_semantics():
    import hashlib
    strs = ["", "abc", "tok\x1fen", "x" * 1000]
    got = md5_lower64(pa.array(strs))
    for s, v in zip(strs, got):
        d = hashlib.md5(s.encode()).digest()
        assert int(v) == int.from_bytes(d[8:16], "little")
        assert md5_lower64_one(s) == int(v)


def test_poly_hash_matches_fold():
    toks = [["a", "b", "c"], [], ["zz"] * 40, [f"t{i}" for i in range(17)]]
    flat = [t for ts in toks for t in ts]
    th = (md5_lower64(pa.array(flat)) % np.uint64(P61)
          if flat else np.empty(0, np.uint64))
    offs = np.cumsum([0] + [len(t) for t in toks]).astype(np.int64)
    got = poly_hash_p61(th, offs, 1_000_003)
    i = 0
    for d, ts in enumerate(toks):
        acc = 0
        for _ in ts:
            acc = (acc * 1_000_003 + int(th[i])) % P61
            i += 1
        assert acc == int(got[d])


# ---------------------------------------------------------------------------
# MinHash + bucketed verify
# ---------------------------------------------------------------------------

def _docs_table():
    base = ("the quick brown fox jumps over the lazy dog and then runs far "
            "away into the deep green forest tonight").split()
    texts = []
    for i in range(30):
        words = list(base)
        if i % 3 == 1:
            words[5] = f"w{i}"            # near-dup of the base doc
        elif i % 3 == 2:
            words = [f"u{i}_{j}" for j in range(20)]   # unrelated
        texts.append(" ".join(words))
    return pa.table({"doc_id": pa.array(range(30), pa.int64()),
                     "text": pa.array(texts)})


def _exact_jaccard(a: str, b: str, k: int = 5) -> float:
    from onestools_eventlog_ray.functions.analyzer import tokenize_py
    def sh(t):
        ts = tokenize_py(t)
        if not ts:
            return set()
        if len(ts) < k:
            return {"\x1f".join(ts)}
        return {"\x1f".join(ts[i:i + k]) for i in range(len(ts) - k + 1)}
    sa, sb = sh(a), sh(b)
    u = len(sa | sb)
    return len(sa & sb) / u if u else 0.0


def test_minhash_verified_pairs_distributed():
    import ray.data
    from onestools_eventlog_ray.pipelines import dedup
    from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC
    tbl = _docs_table()
    ds = ray.data.from_arrow(tbl)
    got = dedup.minhash_verified_pairs(ds, DOCUMENTS_SPEC,
                                       min_jaccard=0.3).to_pandas()
    texts = tbl["text"].to_pylist()
    assert len(got) > 0
    for _, r in got.iterrows():
        a, b = int(r.doc_a), int(r.doc_b)
        assert a < b
        # hashed-shingle jaccard equals string jaccard w.h.p.; verify the
        # e6 value against the exact string computation
        exact = _exact_jaccard(texts[a], texts[b])
        assert int(r.jaccard_e6) == int(np.floor(exact * 1e6 + 0.5))
        assert exact >= 0.3
    # pairs are unique
    assert not got.duplicated(["doc_a", "doc_b"]).any()


def test_minhash_identical_docs_share_all_bands():
    from onestools_eventlog_ray.pipelines.dedup import MinHasher
    from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC
    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": pa.array(["alpha beta gamma delta epsilon zeta "
                                    "eta theta"] * 2)})
    out = MinHasher(DOCUMENTS_SPEC)(t)
    df = out.to_pandas()
    by_doc = {d: set(map(tuple, g[["band_id", "band_hash"]].values))
              for d, g in df.groupby("doc_id")}
    assert by_doc[1] == by_doc[2]
    assert len(by_doc[1]) == 16


def test_minhash_empty_docs_emit_nothing():
    from onestools_eventlog_ray.pipelines.dedup import MinHasher
    from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC
    t = pa.table({"doc_id": pa.array([5], pa.int64()),
                  "text": pa.array(["!!! ??? ..."])})
    assert MinHasher(DOCUMENTS_SPEC)(t).num_rows == 0


# ---------------------------------------------------------------------------
# LSH cosine pairs
# ---------------------------------------------------------------------------

def test_knn_exclude_does_not_eat_candidate_slots():
    """Round-1 ADVICE: excluded ids must be filtered BEFORE the local
    top-k cut.  With k=1 and the best vector excluded, the runner-up
    must still surface."""
    import ray.data
    from onestools_eventlog_ray.pipelines import similarity
    q = np.array([1.0, 0.0, 0.0, 0.0])
    mat = np.stack([q,                        # vec 0: identical (excluded)
                    [0.9, 0.1, 0.0, 0.0],     # vec 1: runner-up
                    [0.0, 1.0, 0.0, 0.0]]).astype(np.float32)
    tbl = pa.table({"vec_id": pa.array([0, 1, 2], pa.int64()),
                    "embedding": pa.array(list(mat), pa.list_(pa.float32()))})
    res = similarity.knn_cosine(ray.data.from_arrow(tbl), q, k=1,
                                exclude_ids={0})
    assert res["vec_id"].to_pylist() == [1]


def test_cosine_pairs_lsh_subset_of_exact():
    import ray.data
    from onestools_eventlog_ray.pipelines import similarity
    rng = np.random.default_rng(11)
    base = rng.standard_normal((20, 16))
    # make 5 noisy near-dup rows of the first 5
    near = base[:5] + 0.05 * rng.standard_normal((5, 16))
    mat = np.vstack([base, near]).astype(np.float32)
    ids = np.arange(mat.shape[0], dtype=np.int64)
    tbl = pa.table({"vec_id": pa.array(ids, pa.int64()),
                    "embedding": pa.array(list(mat), pa.list_(pa.float32()))})
    ds = ray.data.from_arrow(tbl)
    got = similarity.cosine_pairs_lsh(ds, dim=16, threshold=0.9,
                                      nbits=4, tables=8, seed=3).to_pandas()
    m64 = mat.astype(np.float64)
    mn = m64 / np.linalg.norm(m64, axis=1, keepdims=True)
    sims = mn @ mn.T
    exact = {(i, j) for i in range(len(ids)) for j in range(i + 1, len(ids))
             if sims[i, j] >= 0.9}
    got_pairs = {(int(a), int(b)) for a, b in zip(got.vec_id_a, got.vec_id_b)}
    assert got_pairs <= exact                 # no false positives
    assert len(got_pairs) >= max(1, len(exact) // 2)   # decent recall
    assert not got.duplicated(["vec_id_a", "vec_id_b"]).any()


# ---------------------------------------------------------------------------
# filtered search + docstore pruning + rebuild staleness
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def doc_index(tmp_path_factory):
    import pyarrow.parquet as pq
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.pipelines.build import build_index
    from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC
    d = tmp_path_factory.mktemp("docidx")
    texts = [f"alpha beta doc{i} " + ("spark " * (i % 4)) for i in range(60)]
    langs = ["en" if i % 2 == 0 else "de" for i in range(60)]
    tbl = pa.table({"doc_id": pa.array(range(60), pa.int64()),
                    "text": pa.array(texts),
                    "lang": pa.array(langs),
                    "source": pa.array(["s"] * 60),
                    "n_chars": pa.array([len(t) for t in texts], pa.int64())})
    src = str(d / "documents.parquet")
    pq.write_table(tbl, src)
    idx = str(d / "index")
    build_index(src, idx, spec=DOCUMENTS_SPEC,
                cfg=EngineConfig(num_partitions=8))
    return idx, tbl


def test_search_filtered_subset_same_scores(doc_index):
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    idx, tbl = doc_index
    eng = SearchEngine(idx)
    full = dict(eng.search(["spark"], k=100))
    filt = eng.search_filtered(["spark"], {"lang": "en"}, k=100)
    langs = tbl["lang"].to_pylist()
    assert filt, "filtered search returned nothing"
    for doc_id, score in filt:
        assert langs[doc_id] == "en"
        assert score == full[doc_id]          # global stats: scores unchanged
    # every allowed full-hit appears in the filtered result
    allowed_full = {d for d in full if langs[d] == "en"}
    assert {d for d, _ in filt} == allowed_full


def test_fetch_docs_pruned_and_ordered(doc_index):
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    import glob
    idx, tbl = doc_index
    eng = SearchEngine(idx)
    got = eng.fetch_docs([7, 3, 11], columns=["doc_id", "lang"])
    assert got["doc_id"].to_pylist() == [7, 3, 11]
    # parts are named part-<nrows>-<min16x>-<max16x>-<acc16x>.parquet
    files = glob.glob(os.path.join(idx, "docstore", "*.parquet"))
    assert files
    for f in files:
        n, lo, hi, acc = os.path.basename(f)[:-len(".parquet")] \
            .split("-")[1:]
        assert int(lo, 16) <= int(hi, 16) and len(acc) == 16


def test_rebuild_drops_stale_shards(tmp_path):
    """ADVICE round-1 (medium): an in-place rebuild with a shrunk corpus
    must not leave stale shard files serving deleted doc_ids."""
    import pyarrow.parquet as pq
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.pipelines.build import build_index
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC

    def write(docs):
        tbl = pa.table({
            "doc_id": pa.array(range(len(docs)), pa.int64()),
            "text": pa.array(docs),
            "lang": pa.array(["en"] * len(docs)),
            "source": pa.array(["s"] * len(docs)),
            "n_chars": pa.array([len(t) for t in docs], pa.int64())})
        pq.write_table(tbl, str(tmp_path / "documents.parquet"))

    src = str(tmp_path / "documents.parquet")
    idx = str(tmp_path / "index")
    cfg = EngineConfig(num_partitions=8)
    write(["zebra yak", "apple pie"])
    build_index(src, idx, spec=DOCUMENTS_SPEC, cfg=cfg)
    assert SearchEngine(idx).search(["zebra"], 5)
    write(["apple pie"])                      # corpus shrinks, rebuild in place
    build_index(src, idx, spec=DOCUMENTS_SPEC, cfg=cfg)
    eng = SearchEngine(idx)
    assert eng.search(["zebra"], 5) == []     # stale shard must be gone
    assert eng.search(["apple"], 5)


# ---------------------------------------------------------------------------
# codec v3: stats-free bounds stay valid under avgdl drift
# ---------------------------------------------------------------------------

def test_block_bounds_valid_for_any_avgdl():
    rng = np.random.default_rng(5)
    ids = np.unique(rng.integers(0, 2**30, size=400))
    tfs = rng.integers(1, 50, size=ids.size)
    dls = rng.integers(1, 2000, size=ids.size)
    blob = codec.encode_posting(ids, tfs, dls, block_size=32)
    for avgdl in (20.0, 220.0, 1500.0):       # the incremental-drift case
        bounds = codec.block_max_scores(blob, 2.5, avgdl, 1.2, 0.75)
        headers, _, _ = codec.read_header(blob)
        for bi in range(headers.size):
            p = codec.decode_block(blob, bi)
            w = 2.5 * codec.bm25_impact(p.tfs, p.dls, avgdl, 1.2, 0.75)
            assert (w <= bounds[bi]).all()


def test_u32_overflow_guard():
    with pytest.raises(ValueError):
        codec._check_u32(1 << 33)


def test_ann_ivf_recall_and_pruning(tmp_path):
    """IVF bucket layout: pruned query candidates are consistent with a
    brute-force computation of the same probe rule, and top hits for a
    near-duplicate query are found despite pruning."""
    import glob
    import ray.data
    from onestools_eventlog_ray.pipelines.ann import (AnnIndex, _bucket_of,
                                                      build_ann_index,
                                                      probe_buckets)
    from onestools_eventlog_ray.pipelines.similarity import (lsh_planes,
                                                             quantize_e6)
    rng = np.random.default_rng(21)
    mat = rng.standard_normal((300, 16)).astype(np.float32)
    tbl = pa.table({"vec_id": pa.array(range(300), pa.int64()),
                    "embedding": pa.array(list(mat), pa.list_(pa.float32()))})
    idx = str(tmp_path / "annidx")
    meta = build_ann_index(ray.data.from_arrow(tbl), idx, dim=16, nbits=4,
                           seed=7)
    assert meta["n_vectors"] == 300
    assert len(glob.glob(os.path.join(idx, "ann", "bucket-*.parquet"))) \
        == meta["n_buckets"] <= 16
    ann = AnnIndex(idx)
    q = mat[5].astype(np.float64) + 0.01      # near-dup of vector 5
    hits = ann.query(q, k=5, hamming=1)
    assert hits and hits[0][0] == 5
    # candidate rule parity with brute force
    planes = lsh_planes(16, 4, 7)
    buckets = _bucket_of(quantize_e6(mat.astype(np.float64)), planes)
    qb = int(_bucket_of(quantize_e6(q[None, :]), planes)[0])
    probes = set(probe_buckets(qb, 4, 1))
    expected_cands = {i for i in range(300) if int(buckets[i]) in probes}
    assert {h[0] for h in hits} <= expected_cands


def test_phrase_search_counts(tmp_path):
    import pyarrow.parquet as pq
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.pipelines.phrase import (PhraseEngine,
                                                         build_position_index)
    from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC
    texts = [
        "big table hash join uses a table hash probe",    # 2x "table hash"
        "hash table is not table hash",                   # 1x
        "table of hash values",                           # 0x (not adjacent)
        "a b a b a b a",                                  # overlapping "a b a"
        "",
    ]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts),
                    "lang": pa.array(["en"] * len(texts)),
                    "source": pa.array(["s"] * len(texts)),
                    "n_chars": pa.array([len(t) for t in texts], pa.int64())})
    src = str(tmp_path / "documents.parquet")
    pq.write_table(tbl, src)
    idx = str(tmp_path / "idx")
    rep = build_position_index(src, idx, spec=DOCUMENTS_SPEC,
                               cfg=EngineConfig(num_partitions=8))
    assert rep["n_rows"] > 0
    eng = PhraseEngine(idx, num_partitions=8)
    assert eng.search_phrase(["table", "hash"]) == [(0, 2), (1, 1)]
    assert eng.search_phrase(["a", "b", "a"]) == [(3, 3)]   # overlapping hits
    assert eng.search_phrase(["hash", "probe"]) == [(0, 1)]
    assert eng.search_phrase(["nosuch", "phrase"]) == []


def test_manager_parallel_builds(tmp_path):
    """Two corpora built concurrently (max_parallel=2) produce the same
    indexes as serial sync, queryable independently."""
    import json
    import pyarrow.parquet as pq
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.pipelines.manager import sync_registry
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    from onestools_eventlog_ray import synth
    entries = []
    for i in range(2):
        cdir = str(tmp_path / f"corpus{i}")
        synth.write_corpus(cdir, n_docs=300, seed=100 + i)
        entries.append({"name": f"c{i}", "corpus": cdir,
                        "index_root": str(tmp_path / f"idx{i}")})
    reg = str(tmp_path / "reg.json")
    with open(reg, "w") as f:
        json.dump({"corpora": entries}, f)
    rep = sync_registry(reg, cfg=EngineConfig(num_partitions=8),
                        max_parallel=2)
    assert sorted(rep["built"]) == ["c0", "c1"]
    for i in range(2):
        hits = SearchEngine(str(tmp_path / f"idx{i}")).search(["def"], 5)
        assert hits, f"index {i} not queryable"


def test_hll_estimate_accuracy(small_corpus):
    """Registers merge correctly across batches and the estimate lands
    within the standard ~1.04/sqrt(m) error band of the exact count."""
    import ray.data
    from onestools_eventlog_ray.functions.analyzer import tokenize_py
    from onestools_eventlog_ray.pipelines import sketch
    from onestools_eventlog_ray.sources.corpus import CODE_CORPUS_SPEC
    ds = ray.data.from_arrow(small_corpus)
    regs = sketch.hll_term_registers(ds, CODE_CORPUS_SPEC, b=10)
    tbl = pa.table(regs.to_pandas())
    est = sketch.hll_estimate(tbl, b=10)
    exact = len({t for c in small_corpus["content"].to_pylist()
                 for t in tokenize_py(c)})
    assert exact > 1000                        # meaningful vocabulary
    assert abs(est - exact) / exact < 0.1      # ~3 sigma at m=1024
    # register table is deterministic: recompute locally and compare
    import numpy as np
    from onestools_eventlog_ray.functions.fasthash import md5_lower64_one
    local = {}
    for t in {t for c in small_corpus["content"].to_pylist()
              for t in tokenize_py(c)}:
        h = md5_lower64_one(t)
        bucket = h & 1023
        w = h >> 10
        rho = 55 if w == 0 else 1 + int(np.log2(np.float64(w & -w & ((1 << 64) - 1))))
        local[bucket] = max(local.get(bucket, 0), rho)
    got = {int(b): int(r) for b, r in zip(tbl["bucket"].to_pylist(),
                                          tbl["max_rho"].to_pylist())}
    assert got == local


def test_generational_compaction_under_avgdl_drift(tmp_path):
    """Generations with very different document lengths score under the
    GLOBAL avgdl: compacting them gives the same ranking."""
    import pyarrow.parquet as pq
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.pipelines.incremental import add_generation
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC

    def gen_table(start, texts):
        return pa.table({
            "doc_id": pa.array(range(start, start + len(texts)), pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(["en"] * len(texts)),
            "source": pa.array(["s"] * len(texts)),
            "n_chars": pa.array([len(t) for t in texts], pa.int64())})

    rng = np.random.default_rng(9)
    vocab = [f"w{i}" for i in range(50)] + ["spark", "vector"]
    short = [" ".join(rng.choice(vocab, 8)) for _ in range(40)]
    long_ = [" ".join(rng.choice(vocab, 300)) for _ in range(40)]
    root = str(tmp_path / "gens")
    cfg = EngineConfig(num_partitions=8)
    for gi, texts in enumerate([short, long_]):       # avgdl drifts 8 -> 154
        src = str(tmp_path / f"gen{gi}.parquet")
        pq.write_table(gen_table(gi * 1000, texts), src)
        add_generation(src, root, spec=DOCUMENTS_SPEC, cfg=cfg)
    eng = SearchEngine(root)

    # compaction (force-merge analog): one fresh index over the union of
    # the generations' docstores, rank-identical to the generational view
    from onestools_eventlog_ray.pipelines.incremental import \
        compact_generations
    out = str(tmp_path / "compacted")
    rep = compact_generations(root, out, cfg=cfg)
    assert rep["n_generations"] == 2 and rep["n_docs"] == 80
    ceng = SearchEngine(out)
    for terms in (["spark"], ["spark", "vector"], ["w1", "w2", "w3"]):
        assert ceng.search(terms, 10) == eng.search(terms, 10)
