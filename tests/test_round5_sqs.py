"""Round-5: simple_query_string mini-language + wildcard dictionary
query.  Tiny planted corpus where every expected hit set is computable
by hand; the DuckDB sweep covers the real tables."""

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def sqs_index(ray_session, tmp_path_factory):
    import pyarrow.parquet as pq

    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.pipelines.build import build_index
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC

    root = tmp_path_factory.mktemp("sqs")
    corpus = str(root / "docs.parquet")
    texts = [
        "spark wind turbine",        # 1: spark + win-prefix
        "spark legacy dup stuff",    # 2: spark but prohibited 'dup'
        "wind window spark value",   # 3: spark + two win-terms + value
        "wind window value",         # 4: no spark (must fails)
        "spark value value",         # 5: spark + value, no win-term
    ]
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * 5),
        "source": pa.array(["t"] * 5),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), corpus)
    idx = str(root / "idx")
    build_index(corpus, idx, spec=DOCUMENTS_SPEC,
                cfg=EngineConfig(num_partitions=4))
    return SearchEngine(idx)


def test_parse_clauses():
    from onestools_eventlog_ray.pipelines.dsl import (
        DslError, parse_simple_query_string)
    cl = parse_simple_query_string("+Spark win* value^2 -dup")
    assert cl == [
        {"op": "must", "text": "spark", "boost": 1.0, "prefix": False},
        {"op": "should", "text": "win", "boost": 1.0, "prefix": True},
        {"op": "should", "text": "value", "boost": 2.0, "prefix": False},
        {"op": "must_not", "text": "dup", "boost": 1.0, "prefix": False},
    ]
    # default_operator=and promotes bare clauses to must
    cl = parse_simple_query_string("a b", default_operator="and")
    assert [c["op"] for c in cl] == ["must", "must"]
    with pytest.raises(DslError):
        parse_simple_query_string('"a phrase"')


def test_expand_prefix_terms(sqs_index):
    from onestools_eventlog_ray.pipelines.query import expand_prefix_terms
    assert expand_prefix_terms(sqs_index, "win") == ["wind", "window"]
    assert expand_prefix_terms(sqs_index, "zz") == []
    # cap binds deterministically (sorted order)
    assert expand_prefix_terms(sqs_index, "win",
                               max_expansions=1) == ["wind"]


def test_sqs_gating(sqs_index):
    from onestools_eventlog_ray.pipelines.dsl import simple_query_string
    t = simple_query_string(sqs_index, "+spark win* value^2 -dup", k=10)
    ids = t["doc_id"].to_pylist()
    # doc 2 excluded by -dup, doc 4 by +spark; 1/3/5 survive
    assert sorted(ids) == [1, 3, 5]
    # scores strictly positive + rank is 1..n
    assert t["rank"].to_pylist() == [1, 2, 3]
    assert all(s > 0 for s in t["score_e6"].to_pylist())


def test_sqs_scoring_matches_primitives(sqs_index):
    """SQS with a should prefix must equal search_dsl over the expanded
    term set, gated on the must/must_not postings."""
    from onestools_eventlog_ray.functions import codec
    from onestools_eventlog_ray.pipelines.dsl import simple_query_string
    from onestools_eventlog_ray.pipelines.query import search_dsl
    t = simple_query_string(sqs_index, "+spark win* value^2 -dup", k=10)
    ranked = search_dsl(sqs_index, ["spark", "wind", "window", "value"],
                        k=100, boosts={"value": 2.0}, tie="e6")
    spark_ids = codec.decode_posting(
        sqs_index.load_terms(["spark"])["spark"][1]).doc_ids
    dup_ids = codec.decode_posting(
        sqs_index.load_terms(["dup"])["dup"][1]).doc_ids
    want = [(d, int(np.floor(s * 1e6 + 0.5))) for d, s in ranked
            if d in spark_ids and d not in dup_ids]
    got = list(zip(t["doc_id"].to_pylist(), t["score_e6"].to_pylist()))
    assert got == want


def test_sqs_must_prefix_is_disjunctive(sqs_index):
    """A REQUIRED prefix clause matches ANY expansion (terms_or group),
    not the intersection of all expansions."""
    from onestools_eventlog_ray.pipelines.dsl import simple_query_string
    t = simple_query_string(sqs_index, "+win* value", k=10)
    # docs with wind OR window: 1, 3, 4 (doc 1 has wind only — it would
    # vanish if expansions were conjunctive)
    assert sorted(t["doc_id"].to_pylist()) == [1, 3, 4]


def test_sqs_empty_required_prefix(sqs_index):
    from onestools_eventlog_ray.pipelines.dsl import simple_query_string
    t = simple_query_string(sqs_index, "+zz* spark", k=10)
    assert t.num_rows == 0
    # as an optional clause it just contributes nothing
    t = simple_query_string(sqs_index, "zz* spark", k=10)
    assert sorted(t["doc_id"].to_pylist()) == [1, 2, 3, 5]


def test_sqs_default_operator_and(sqs_index):
    from onestools_eventlog_ray.pipelines.dsl import simple_query_string
    t = simple_query_string(sqs_index, "spark value",
                            default_operator="and", k=10)
    assert sorted(t["doc_id"].to_pylist()) == [3, 5]


def test_wildcard_terms(sqs_index):
    from onestools_eventlog_ray.pipelines.query import wildcard_term_stats
    got = wildcard_term_stats(sqs_index.index_dir, "w*d").sort("term") \
        .to_pandas()
    assert got["term"].tolist() == ["wind"]
    assert got["df"].tolist() == [3]
    # ? is exactly one char, pattern is anchored (no substring match)
    got = wildcard_term_stats(sqs_index.index_dir, "windo?").sort("term") \
        .to_pandas()
    assert got["term"].tolist() == ["window"]
    got = wildcard_term_stats(sqs_index.index_dir, "par").to_pandas()
    assert len(got) == 0  # 'spark' must NOT match unanchored
