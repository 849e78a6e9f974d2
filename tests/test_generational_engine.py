"""One engine over one or more generations: ``SearchEngine(root)`` over
a two-generation root answers every query family exactly as
``SearchEngine`` over a monolithic build of the same docs with the same
tombstones, some recorded on the root and some on a generation."""

import glob

import numpy as np
import pyarrow.parquet as pq
import pytest

from onestools_eventlog_ray.config import EngineConfig

CFG = EngineConfig(num_partitions=8)

QUERIES = [
    ["def"],                            # hot
    ["def", "import"],
    ["license", "merge", "def"],        # hot + mid
    ["merge", "return", "self"],
    ["merge", "zzz_absent"],            # present + absent
    ["zzz_absent"],
]


@pytest.fixture(scope="module")
def pair(tmp_path_factory, small_corpus, small_corpus_dir):
    """(monolithic index, two-generation root) over the same 400 docs;
    six of the top docs are tombstoned on both sides: three on the root,
    three on the generation that holds them."""
    from onestools_eventlog_ray.pipelines.build import build_index
    from onestools_eventlog_ray.pipelines.incremental import add_generation
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    from onestools_eventlog_ray.state.tombstones import delete_docs
    tmp = tmp_path_factory.mktemp("gens_vs_mono")
    mono = str(tmp / "mono")
    build_index(small_corpus_dir, mono, cfg=CFG)
    root = str(tmp / "root")
    half = small_corpus.num_rows // 2
    for i, tbl in enumerate([small_corpus.slice(0, half),
                             small_corpus.slice(half)]):
        src = str(tmp / f"half{i}.parquet")
        pq.write_table(tbl, src)
        add_generation(src, root, cfg=CFG)
    victims = [d for d, _ in SearchEngine(mono).search(["def", "merge"], 6)]
    delete_docs(mono, victims)
    delete_docs(root, victims[:3])
    for leaf in SearchEngine(root).engines:
        held = [d for d in victims[3:] if d in set(leaf.docs.tolist())]
        if held:
            delete_docs(leaf.index_dir, held)
    return SearchEngine(mono), SearchEngine(root)


def test_root_opens_its_generations_as_leaves(pair):
    mono, root = pair
    assert len(root.engines) == 2 and mono.engines == [mono]
    assert root.N == mono.N == sum(e.N for e in root.engines)
    assert root.total_tokens == mono.total_tokens
    assert np.array_equal(root.docs, mono.docs)
    assert np.array_equal(root.deleted, mono.deleted)
    assert root.deleted.size == 6


@pytest.mark.parametrize("tie", ["float", "e6"])
def test_scoring_families_equal_the_monolith(pair, tie):
    from onestools_eventlog_ray.pipelines.query import search_dsl
    mono, root = pair
    dsl_knobs = [{"minimum_should_match": 2},
                 {"boosts": {"def": 2.0, "merge": 0.5, "self": 1.5}},
                 {"mode": "max", "tie_breaker": 0.3}]
    for q in QUERIES:
        assert root.search(q, 10, tie) == mono.search(q, 10, tie), q
        assert root.search_and(q, 10, tie) == mono.search_and(q, 10, tie)
        for kw in dsl_knobs:
            assert search_dsl(root, q, 10, tie=tie, **kw) \
                == search_dsl(mono, q, 10, tie=tie, **kw), (q, kw)
        for where in ({"lang": "py"}, {"lang": "md"}):
            assert root.search_filtered(q, where, 10, tie) \
                == mono.search_filtered(q, where, 10, tie), (q, where)


def test_es_bool_and_docstore_reads_equal_the_monolith(pair):
    from onestools_eventlog_ray.pipelines.dsl import es_search
    from onestools_eventlog_ray.pipelines.query import count_bool
    mono, root = pair
    query = {"bool": {"must": [{"match": {"text": "def"}}],
                      "should": [{"match": {"text": "merge license"}}],
                      "must_not": [{"match": {"text": "import"}}],
                      "filter": [{"term": {"lang": "py"}}]}}
    assert es_search(root, query, k=10).equals(es_search(mono, query, k=10))
    ids = [int(d) for d in mono.docs[::37]] + mono.deleted.tolist() \
        + [-1, int(mono.docs[0])]
    assert root.fetch_docs(ids).equals(mono.fetch_docs(ids))
    assert root.fetch_docs(ids, ["doc_id", "lang"]) \
        .equals(mono.fetch_docs(ids, ["doc_id", "lang"]))
    for where in ({"lang": "py"}, {"lang": "zz"}):
        assert np.array_equal(root.allowed_doc_ids(where),
                              mono.allowed_doc_ids(where))
    for tree in ({"and": ["def", {"or": ["merge", "license"]},
                          {"not": "import"}]},
                 {"or": ["def", "zzz_absent"]}):
        assert count_bool(root.index_dir, tree) \
            .equals(count_bool(mono.index_dir, tree))


def test_root_opens_each_docstore_part_once(tmp_path, monkeypatch):
    """A root's docstore reads through its leaves' open parts: opening a
    two-generation root of 8 + 8 docstore parts opens 16 handles."""
    from onestools_eventlog_ray import synth
    from onestools_eventlog_ray.pipelines.incremental import add_generation
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    root = str(tmp_path / "root")
    for g in range(2):
        corpus = synth.write_corpus(str(tmp_path / f"c{g}"), n_docs=160,
                                    seed=20 + g, rows_per_file=20)
        add_generation(corpus, root, cfg=CFG)
    parts = sorted(glob.glob(f"{root}/gen-*/docstore/*.parquet"))
    assert len(parts) == 16
    opened = []
    real = pq.ParquetFile

    class Counting(real):
        def __init__(self, source, *args, **kwargs):
            opened.append(str(source))
            super().__init__(source, *args, **kwargs)
    monkeypatch.setattr(pq, "ParquetFile", Counting)
    eng = SearchEngine(root)
    assert sorted(p for p in opened if "docstore" in p) == parts
    assert [leaf.docs.size for leaf in eng.engines] == [160, 160]
    assert np.array_equal(eng.docs, np.union1d(*[e.docs for e in
                                                 eng.engines]))
    ids = [int(eng.engines[0].docs[3]), int(eng.engines[1].docs[5])]
    assert eng.fetch_docs(ids, ["doc_id"])["doc_id"].to_pylist() == ids
    eng.close()
    with pytest.raises(ValueError):
        eng.fetch_docs(ids, ["doc_id"])
