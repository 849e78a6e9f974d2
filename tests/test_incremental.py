"""Generational indexing == single full build (rank- and score-identical
to the brute-force oracle over the union corpus)."""

import pyarrow.parquet as pq
import pytest

from onestools_eventlog_ray import synth
from onestools_eventlog_ray.config import EngineConfig
from onestools_eventlog_ray.functions.bm25 import BruteForceBM25
from onestools_eventlog_ray.functions.hashing import doc_id_from_keys
from onestools_eventlog_ray.pipelines.incremental import (
    add_generation, list_generations)
from onestools_eventlog_ray.pipelines.query import SearchEngine

CFG = EngineConfig(num_partitions=8)


@pytest.fixture(scope="module")
def gens(tmp_path_factory, small_corpus):
    root = str(tmp_path_factory.mktemp("genidx"))
    half = small_corpus.num_rows // 2
    d1 = tmp_path_factory.mktemp("c1")
    d2 = tmp_path_factory.mktemp("c2")
    pq.write_table(small_corpus.slice(0, half), str(d1 / "p.parquet"))
    pq.write_table(small_corpus.slice(half), str(d2 / "p.parquet"))
    r1 = add_generation(str(d1), root, cfg=CFG)
    r2 = add_generation(str(d2), root, cfg=CFG)
    return root, r1, r2


def test_two_generations_created(gens):
    root, r1, r2 = gens
    assert len(list_generations(root)) == 2
    assert r1["generation_dir"].endswith("gen-0000")
    assert r2["generation_dir"].endswith("gen-0001")


def test_generational_matches_oracle(gens, small_corpus):
    root, _, _ = gens
    eng = SearchEngine(root)
    ids = doc_id_from_keys(small_corpus["repo"], small_corpus["path"],
                           small_corpus["commit"]).to_pylist()
    oracle = BruteForceBM25(ids, small_corpus["content"].to_pylist())
    assert eng.N == oracle.N
    assert eng.avgdl == pytest.approx(oracle.avgdl, rel=1e-12)
    for q in synth.reference_queries(small_corpus, n_queries=30):
        want = oracle.search(q["terms"], q["k"])
        got = eng.search(q["terms"], q["k"])
        assert [d for d, _ in got] == [d for d, _ in want], q
        for (_, gs), (_, ws) in zip(got, want):
            assert gs == pytest.approx(ws, rel=1e-9)


def test_generational_df(gens, small_corpus):
    root, _, _ = gens
    eng = SearchEngine(root)
    ids = doc_id_from_keys(small_corpus["repo"], small_corpus["path"],
                           small_corpus["commit"]).to_pylist()
    oracle = BruteForceBM25(ids, small_corpus["content"].to_pylist())
    terms = ["def", "the", "license", "nosuchterm"]
    assert eng.df_of(terms) == {t: oracle.df(t) for t in terms
                                if oracle.df(t)}
