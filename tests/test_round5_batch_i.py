"""Round-5 batch I: update_by_query (reindex-in-place with script) and
the PIT-search driver surface."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def ubq_root(ray_session, tmp_path_factory):
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.pipelines.build import build_index
    from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC
    root = tmp_path_factory.mktemp("ubq")
    corpus = str(root / "docs.parquet")
    texts = [
        "spark join table",      # 1: matches
        "merge window",          # 2: no
        "spark only",            # 3: matches
        "join merge",            # 4: no
        "spark spark spark",     # 5: matches (tf>1, still one doc)
    ]
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * 5),
        "source": pa.array(["orig"] * 5),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), corpus)
    src = str(root / "idx")
    build_index(corpus, src, spec=DOCUMENTS_SPEC,
                cfg=EngineConfig(num_partitions=4))
    return root, src


def test_update_by_query_postings_and_meta(ubq_root):
    import pyarrow.dataset as pads
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.pipelines.incremental import update_by_query
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    root, src = ubq_root
    out = str(root / "updated")
    rep = update_by_query(src, out, ["spark"],
                          set_meta={"source": "updated"},
                          cfg=EngineConfig(num_partitions=4))
    assert rep["n_updated"] == 3
    eng = SearchEngine(out)
    assert eng.N == 5
    # the marker is a REAL searchable term in the rebuilt postings
    hits = {d for d, _ in eng.search(["updatedmarker"], k=10)}
    assert hits == {1, 3, 5}
    # non-matching docs are untouched
    assert {d for d, _ in eng.search(["merge"], k=10)} == {2, 4}
    # stored fields moved too
    dset = pads.dataset(os.path.join(out, "docstore"))
    assert dset.count_rows(filter=pads.field("source") == "updated") == 3
    assert dset.count_rows(filter=pads.field("source") == "orig") == 2


def test_update_by_query_conjunctive_and_tombstones(ubq_root):
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.pipelines.incremental import update_by_query
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    from onestools_eventlog_ray.state.tombstones import delete_docs
    root, src = ubq_root
    # conjunctive match: spark AND join -> only doc 1
    out2 = str(root / "updated2")
    rep = update_by_query(src, out2, ["spark", "join"],
                          cfg=EngineConfig(num_partitions=4))
    assert rep["n_updated"] == 1
    assert {d for d, _ in SearchEngine(out2).search(["updatedmarker"],
                                                    k=10)} == {1}
    # tombstoned docs never reach the updated index
    delete_docs(src, [5])
    out3 = str(root / "updated3")
    rep = update_by_query(src, out3, ["spark"],
                          cfg=EngineConfig(num_partitions=4))
    assert rep["n_updated"] == 2        # doc 5 is gone
    assert SearchEngine(out3).N == 4


def test_exclusion_that_prunes_a_whole_file(ubq_root):
    """``exclude_doc_ids`` (the tombstone path of compaction, reindex and
    update_by_query) may drop every row of one input file: that file's
    empty read block is skipped, not mapped."""
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.pipelines.build import build_index
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC
    root, _ = ubq_root
    docs = pq.read_table(str(root / "docs.parquet"))
    paths = [str(root / "first3.parquet"), str(root / "last2.parquet")]
    pq.write_table(docs.slice(0, 3), paths[0])
    pq.write_table(docs.slice(3), paths[1])
    out = str(root / "excl")
    build_index(paths, out, spec=DOCUMENTS_SPEC,
                cfg=EngineConfig(num_partitions=4), exclude_doc_ids=[4, 5])
    eng = SearchEngine(out)
    assert eng.N == 3
    assert {d for d, _ in eng.search(["merge"], k=10)} == {2}


def test_update_by_query_rejects_bad_meta(ubq_root):
    from onestools_eventlog_ray.pipelines.incremental import update_by_query
    root, src = ubq_root
    with pytest.raises(KeyError):
        update_by_query(src, str(root / "bad"), ["spark"],
                        set_meta={"nosuchcol": "x"})
