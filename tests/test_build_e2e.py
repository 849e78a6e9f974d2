"""End-to-end golden run (SURVEY.md §5.2-5.3): synthetic corpus ->
build_index -> reference query set -> rank-identical to the brute-force
oracle; per-row content sha256 invariant; Ray batch-query stage ==
driver-side scorer.
"""

import glob

import numpy as np
import pyarrow.parquet as pq
import pytest

from onestools_eventlog_ray import synth
from onestools_eventlog_ray.config import EngineConfig
from onestools_eventlog_ray.functions.bm25 import BruteForceBM25
from onestools_eventlog_ray.functions.hashing import doc_id_from_keys
from onestools_eventlog_ray.pipelines.build import build_index, docstore_path
from onestools_eventlog_ray.pipelines.query import SearchEngine, score_queries

CFG = EngineConfig(num_partitions=8)


@pytest.fixture(scope="module")
def built(tmp_path_factory, small_corpus_dir):
    index_dir = str(tmp_path_factory.mktemp("index"))
    report = build_index(small_corpus_dir, index_dir, cfg=CFG)
    return index_dir, report


@pytest.fixture(scope="module")
def oracle(small_corpus):
    ids = doc_id_from_keys(small_corpus["repo"], small_corpus["path"],
                           small_corpus["commit"]).to_pylist()
    return BruteForceBM25(ids, small_corpus["content"].to_pylist())


def test_build_report(built, small_corpus):
    _, report = built
    assert report["n_docs"] == small_corpus.num_rows
    assert report["num_partitions"] == CFG.num_partitions
    assert report["files_per_sec"] > 0


def test_sha256_per_row_invariant(built, small_corpus):
    """input_hint invariant: docstore sha256 == recomputation on raw input."""
    import hashlib
    index_dir, _ = built
    files = glob.glob(docstore_path(index_dir) + "/*.parquet")
    store = pq.read_table(files, columns=["doc_id", "content", "content_sha256"])
    assert store.num_rows == small_corpus.num_rows
    expected = {}
    ids = doc_id_from_keys(small_corpus["repo"], small_corpus["path"],
                           small_corpus["commit"]).to_pylist()
    for i, text in zip(ids, small_corpus["content"].to_pylist()):
        expected[i] = hashlib.sha256(text.encode()).hexdigest()
    for doc_id, content, sha in zip(store["doc_id"].to_pylist(),
                                    store["content"].to_pylist(),
                                    store["content_sha256"].to_pylist()):
        assert sha == expected[doc_id]
        assert hashlib.sha256(content.encode()).hexdigest() == sha


def test_df_and_stats_match_oracle(built, oracle):
    index_dir, report = built
    assert report["n_docs"] == oracle.N
    assert abs(report["avgdl"] - oracle.avgdl) < 1e-9
    eng = SearchEngine(index_dir)
    for term in ["def", "the", "license", "v000000000000_nope"]:
        hit = eng.load_terms([term]).get(term)
        assert (hit[0] if hit else 0) == oracle.df(term)


def test_topk_rank_identical_to_oracle(built, small_corpus, oracle):
    index_dir, _ = built
    eng = SearchEngine(index_dir)
    queries = synth.reference_queries(small_corpus, n_queries=50)
    for q in queries:
        want = oracle.search(q["terms"], q["k"])
        got = eng.search(q["terms"], q["k"])
        assert [d for d, _ in got] == [d for d, _ in want], q
        for (_, gs), (_, ws) in zip(got, want):
            assert gs == pytest.approx(ws, rel=1e-9)


def test_ray_batch_query_stage(built, small_corpus, oracle):
    """The batch stage (tasks over a per-worker engine) == oracle ranks,
    and bit-identical (doc ids and scores) to the driver-side engine."""
    index_dir, _ = built
    queries = synth.reference_queries(small_corpus, n_queries=12)
    out = score_queries(index_dir, queries).take_all()
    by_q: dict[int, list] = {}
    for r in sorted(out, key=lambda r: (r["query_id"], r["rank"])):
        by_q.setdefault(r["query_id"], []).append((r["doc_id"], r["score"]))
    eng = SearchEngine(index_dir)
    for q in queries:
        want = oracle.search(q["terms"], q["k"])
        got = by_q.get(q["query_id"], [])
        assert [d for d, _ in got] == [d for d, _ in want]
        assert got == eng.search(q["terms"], q["k"])


def test_ray_batch_query_stage_k_default_for_dataset(built):
    """A Dataset row with no ``k`` is cut at the caller's ``k``."""
    import ray.data
    index_dir, _ = built
    terms = ["def", "import"]
    ds = ray.data.from_items([{"query_id": 0, "terms": terms}])
    rows = score_queries(index_dir, ds, k=3).take_all()
    assert [(r["doc_id"], r["score"]) for r in
            sorted(rows, key=lambda r: r["rank"])] \
        == SearchEngine(index_dir).search(terms, 3)


@pytest.mark.parametrize("columns", [None, ["doc_id", "lang"],
                                     ["doc_id", "content"]])
def test_empty_fetch_has_the_requested_schema(built, columns):
    """Nothing fetched gives the requested docstore columns, empty and
    typed, so a zero-hit ``search_with_docs`` has the schema of a hit."""
    index_dir, _ = built
    eng = SearchEngine(index_dir)
    one = eng.fetch_docs(eng.docs[:1], columns)
    none = eng.fetch_docs([], columns)
    assert (one.num_rows, none.num_rows) == (1, 0)
    assert none.schema == one.schema
    assert eng.search_with_docs(["zzz_nohit_0"], 5, columns).schema \
        == eng.search_with_docs(["def"], 5, columns).schema


def test_count_bool_edge_trees(built):
    """An empty OR matches nothing, also under AND and OR; NOT under OR,
    a pure-NOT AND and a bare NOT raise ValueError."""
    from onestools_eventlog_ray.pipelines.query import count_bool
    index_dir, _ = built

    def n(tree):
        return count_bool(index_dir, tree)["n_docs"][0].as_py()
    n_def = int((SearchEngine(index_dir)._hits(["def"]) > 0).sum())
    assert n_def > 0
    assert n({"or": []}) == 0
    assert n({"and": ["def", {"or": []}]}) == 0
    assert n({"or": ["def", {"or": []}]}) == n_def
    for bad in ({"or": ["def", {"not": "import"}]}, {"and": [{"not": "def"}]},
                {"not": "def"}, {"xor": ["def"]}, 7):
        with pytest.raises(ValueError):
            n(bad)


def test_zero_hit_query(built):
    index_dir, _ = built
    eng = SearchEngine(index_dir)
    assert eng.search(["zzz_nohit_0"], 10) == []
