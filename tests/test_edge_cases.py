"""Edge inputs: empty/whitespace/unicode content, empty query paths."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from onestools_eventlog_ray.config import EngineConfig
from onestools_eventlog_ray.functions.bm25 import BruteForceBM25
from onestools_eventlog_ray.pipelines.build import build_index
from onestools_eventlog_ray.pipelines.query import SearchEngine

CFG = EngineConfig(num_partitions=4)


@pytest.fixture(scope="module")
def edge_index(tmp_path_factory):
    tbl = pa.table({
        "repo": pa.array([f"org0/repo{i}" for i in range(8)]),
        "path": pa.array([f"src/f{i}.py" for i in range(8)]),
        "commit": pa.array([f"c{i}" for i in range(8)]),
        "lang": pa.array(["py"] * 8),
        "content": pa.array([
            "",                                     # empty doc
            "   \n\t  ",                            # whitespace only
            "def foo(): return 1",
            "héllo wörld naïve café",               # unicode (accented)
            "日本語のテキスト def",                  # CJK + ascii keyword
            "x " * 5000,                            # long repetitive doc
            "UPPER lower MiXeD",
            "a",                                    # single token
        ], type=pa.large_string()),
    })
    d = tmp_path_factory.mktemp("edge")
    pq.write_table(tbl, str(d / "p.parquet"))
    idx = str(tmp_path_factory.mktemp("edge_idx"))
    report = build_index(str(d), idx, cfg=CFG)
    return idx, tbl, report


def test_empty_docs_counted_not_indexed(edge_index):
    idx, tbl, report = edge_index
    assert report["n_docs"] == 8           # empty docs ARE in the docstore
    eng = SearchEngine(idx)
    assert eng.search([""], 10) == []      # empty term never matches


def test_unicode_content_searchable(edge_index):
    idx, tbl, _ = edge_index
    eng = SearchEngine(idx)
    # ascii tokens inside unicode docs are findable
    hits = eng.search(["def"], 10)
    assert len(hits) == 2                  # "def foo..." + CJK doc
    # oracle agreement on this corpus too
    from onestools_eventlog_ray.functions.hashing import doc_id_from_keys
    ids = doc_id_from_keys(tbl["repo"], tbl["path"], tbl["commit"]).to_pylist()
    oracle = BruteForceBM25(ids, tbl["content"].to_pylist())
    for terms in (["def"], ["x"], ["hello"], ["a", "def"], ["naïve"]):
        got = eng.search(terms, 10)
        want = oracle.search(terms, 10)
        assert [d for d, _ in got] == [d for d, _ in want], terms


def test_weights_cache_consistent(edge_index):
    idx, _, _ = edge_index
    eng = SearchEngine(idx)
    first = eng.search(["x", "def"], 10)
    again = eng.search(["x", "def"], 10)   # served from the weights cache
    assert first == again


def test_search_text_analyzes_query(edge_index):
    idx, _, _ = edge_index
    eng = SearchEngine(idx)
    # "Def, FOO!" analyzes to [def, foo] — same results as raw terms
    assert eng.search_text("Def, FOO!", 10) == eng.search(["def", "foo"], 10)
    # accented query token splits just like content does
    assert eng.search_text("naïve", 10) == eng.search(["na", "ve"], 10)


def test_jsonl_corpus_source(tmp_path):
    """Corpus ingestion from JSONL (S1 source-format breadth)."""
    import json as _json
    import ray.data
    from onestools_eventlog_ray.sources.corpus import (CODE_CORPUS_SPEC,
                                                       read_corpus)
    rows = [{"repo": "o/r", "path": f"f{i}.py", "commit": f"c{i}",
             "lang": "py", "content": f"def f{i}(): return {i}"}
            for i in range(20)]
    p = tmp_path / "corpus.jsonl"
    with open(p, "w") as f:
        for r in rows:
            f.write(_json.dumps(r) + "\n")
    ds = read_corpus(str(p), CODE_CORPUS_SPEC, fmt="jsonl")
    got = ds.take_all()
    assert len(got) == 20
    assert set(got[0]) == {"repo", "path", "commit", "lang", "content"}
    # and it builds
    idx = str(tmp_path / "idx")
    from onestools_eventlog_ray.pipelines.build import build_index

    # jsonl isn't the build reader default; convert through the dataset
    import pyarrow.parquet as pq_
    import pyarrow as pa_
    pq_.write_table(pa_.Table.from_pylist(got), str(tmp_path / "c.parquet"))
    rep = build_index(str(tmp_path / "c.parquet"), idx, cfg=CFG)
    assert rep["n_docs"] == 20
