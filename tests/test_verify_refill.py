"""The filter-context verify refill (``search_filtered`` and ``es_search``
filters) over a query with >= 500 matches: one bounded chunk read when
that chunk fills the page, growing chunks past a selective predicate,
and results equal to the brute-force filtered ranking."""

import numpy as np
import pyarrow.parquet as pq
import pytest

from onestools_eventlog_ray.functions.bm25 import topk_order, topk_order_e6
from onestools_eventlog_ray.pipelines.query import SearchEngine


BIG_TERMS = ["license", "function", "fn"]


@pytest.fixture(scope="module")
def big_index(tmp_path_factory):
    from onestools_eventlog_ray import synth
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.pipelines.build import build_index
    corpus = tmp_path_factory.mktemp("refill_corpus")
    pq.write_table(synth.generate_corpus(1500, seed=5),
                   str(corpus / "part-00000.parquet"))
    index_dir = str(tmp_path_factory.mktemp("refill_index"))
    build_index(str(corpus), index_dir, cfg=EngineConfig(num_partitions=4))
    return index_dir


def _refill_case(eng, k, tie):
    """(lang, full ranking filtered to it) for the lang that most of the
    top max(4k, 64) hits carry: that first chunk holds >= k passing
    docs, so one verify read must fill the page."""
    ids, scores = eng._taat_arrays(BIG_TERMS)
    assert ids.size >= 500
    order = (topk_order_e6 if tie == "e6" else topk_order)(
        scores, ids, ids.size)
    lang = eng.fetch_docs(ids[order].tolist(),
                          ["doc_id", "lang"])["lang"].to_pylist()
    chunk = max(4 * k, 64)
    top = max(set(lang[:chunk]), key=lang[:chunk].count)
    assert lang[:chunk].count(top) >= k
    return top, [(int(ids[i]), float(scores[i]))
                 for i, g in zip(order, lang) if g == top]


@pytest.fixture
def fetches(monkeypatch):
    sizes: list[int] = []
    fetch = SearchEngine.fetch_docs

    def rec(self, doc_ids, columns=None):
        sizes.append(len(doc_ids))
        return fetch(self, doc_ids, columns)

    monkeypatch.setattr(SearchEngine, "fetch_docs", rec)
    return sizes


@pytest.mark.parametrize("tie", ["float", "e6"])
def test_search_filtered_reads_one_chunk(big_index, fetches, tie):
    eng = SearchEngine(big_index)
    k = 10
    lang, want = _refill_case(eng, k, tie)
    fetches.clear()
    assert eng.search_filtered(BIG_TERMS, {"lang": lang}, k=k,
                               tie=tie) == want[:k]
    assert len(fetches) == 1 and fetches[0] <= max(4 * k, 64)


def test_es_search_filter_reads_one_chunk(big_index, fetches):
    from onestools_eventlog_ray.pipelines.dsl import es_search
    eng = SearchEngine(big_index)
    k = 10
    lang, want = _refill_case(eng, k, "float")
    fetches.clear()
    t = es_search(eng, {"bool": {
        "should": [{"match": {"text": " ".join(BIG_TERMS)}}],
        "filter": [{"term": {"lang": lang}}]}}, k=k)
    assert len(fetches) == 1 and fetches[0] <= max(4 * k, 64)
    assert t["doc_id"].to_pylist() == [d for d, _ in want[:k]]
    assert t["score_e6"].to_pylist() == [
        int(np.floor(s * 1e6 + 0.5)) for _, s in want[:k]]


def test_search_filtered_refills_past_a_selective_chunk(big_index,
                                                       fetches):
    """A predicate that few of the top hits pass takes several growing
    chunks and still equals the brute-force filtered ranking."""
    eng = SearchEngine(big_index)
    ids, scores = eng._taat_arrays(BIG_TERMS)
    order = topk_order_e6(scores, ids, ids.size)
    lang = eng.fetch_docs(ids[order].tolist(),
                          ["doc_id", "lang"])["lang"].to_pylist()
    rare = min(set(lang), key=lang.count)
    want = [(int(ids[i]), float(scores[i]))
            for i, g in zip(order, lang) if g == rare][:10]
    fetches.clear()
    assert eng.search_filtered(BIG_TERMS, {"lang": rare}, k=10,
                               tie="e6") == want
    assert len(fetches) > 1 and fetches[:2] == [64, 256]
