"""Round-5: learned-sparse (impact) index + sparse_vector query — the
ES 8.x ``text_expansion`` serving surface.  The brute-force reference
inside each test recomputes w_e6 per (doc, term) with ``tokenize_py`` +
``collections.Counter`` and must agree posting-for-posting and
rank-for-rank with the Ray build, including static pruning and the
int64 dot-product tie-breaks."""

import collections
import json
import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from onestools_eventlog_ray.config import EngineConfig
from onestools_eventlog_ray.functions.analyzer import tokenize_py
from onestools_eventlog_ray.pipelines.sparse import (DEFAULT_MIN_W_E6,
                                                     SparseEngine,
                                                     build_impact_index,
                                                     impact_stats_table,
                                                     impact_w_e6,
                                                     sparse_topk_table)


def _brute_impacts(corpus, min_w_e6=DEFAULT_MIN_W_E6):
    """(doc_id, term) -> w_e6 for the whole corpus, pruned — pure
    Python reference, no Ray."""
    from onestools_eventlog_ray.stages.normalize import add_doc_id
    from onestools_eventlog_ray.sources.corpus import CODE_CORPUS_SPEC
    b = add_doc_id(corpus, CODE_CORPUS_SPEC)
    ids = b["doc_id"].to_pylist()
    texts = b["content"].to_pylist()
    tf = {}
    df = collections.Counter()
    for did, text in zip(ids, texts):
        c = collections.Counter(tokenize_py(text))
        tf[did] = c
        df.update(c.keys())
    n_docs = len(ids)
    out = {}
    for did, c in tf.items():
        for t, f in c.items():
            w = int(impact_w_e6(np.array([f]), np.array([df[t]]), n_docs)[0])
            if w >= min_w_e6:
                out[(did, t)] = w
    return out, n_docs


@pytest.fixture(scope="module")
def impact_dir(tmp_path_factory, small_corpus, small_corpus_dir):
    d = tmp_path_factory.mktemp("impidx")
    meta = build_impact_index(small_corpus_dir, str(d),
                              cfg=EngineConfig(num_partitions=8))
    return str(d), meta


def test_impact_postings_match_brute_force(impact_dir, small_corpus):
    d, meta = impact_dir
    want, n_docs = _brute_impacts(small_corpus)
    assert meta["n_docs"] == n_docs
    got = {}
    for f in os.listdir(os.path.join(d, "impacts")):
        if not f.endswith(".parquet"):
            continue
        t = pq.read_table(os.path.join(d, "impacts", f))
        for term, did, w in zip(t["term"].to_pylist(),
                                t["doc_id"].to_pylist(),
                                t["w_e6"].to_pylist()):
            got[(did, term)] = w
    assert got == want                       # posting-for-posting
    assert meta["n_kept_postings"] == len(want)
    assert meta["n_terms_kept"] == len({t for _, t in want})
    assert meta["n_raw_postings"] > meta["n_kept_postings"]  # pruning real


def test_pruning_threshold_enforced(impact_dir):
    d, _ = impact_dir
    for f in os.listdir(os.path.join(d, "impacts")):
        if f.endswith(".parquet"):
            t = pq.read_table(os.path.join(d, "impacts", f))
            if t.num_rows:
                assert min(t["w_e6"].to_pylist()) >= DEFAULT_MIN_W_E6


def test_shards_sorted_and_routed(impact_dir):
    from onestools_eventlog_ray.functions.hashing import term_partition_one
    d, meta = impact_dir
    for f in sorted(os.listdir(os.path.join(d, "impacts"))):
        if not f.endswith(".parquet"):
            continue
        pkey = int(f.split("-")[1].split(".")[0])
        t = pq.read_table(os.path.join(d, "impacts", f))
        pairs = list(zip(t["term"].to_pylist(), t["doc_id"].to_pylist()))
        assert pairs == sorted(pairs)        # (term, doc_id) sorted
        for term in set(t["term"].to_pylist()):
            assert term_partition_one(term, meta["num_partitions"]) == pkey


def test_search_matches_brute_force_dot_product(impact_dir, small_corpus):
    d, _ = impact_dir
    want, _ = _brute_impacts(small_corpus)
    # the three highest-df terms of the corpus, so the query matches
    n_post = collections.Counter(t for _, t in want)
    top3 = sorted(n_post, key=lambda t: (-n_post[t], t))[:3]
    qw = dict(zip(top3, (2_000_000, 1_000_000, 500_000)))
    scores = collections.Counter()
    for (did, t), w in want.items():
        if t in qw:
            scores[did] += qw[t] * w
    expect = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert expect
    got = SparseEngine(d).search(qw, k=10)
    assert got == [(int(a), int(b)) for a, b in expect]
    assert all(isinstance(s, int) for _, s in got)  # int64-exact scores


def test_search_unknown_term_and_empty(impact_dir):
    eng = SparseEngine(impact_dir[0])
    assert eng.search({"zzqqxxnotaterm": 1_000_000}, k=10) == []
    # unknown terms contribute nothing next to known ones
    base = eng.search({"spark": 1_000_000}, k=10)
    mixed = eng.search({"spark": 1_000_000, "zzqqxxnotaterm": 9}, k=10)
    assert base == mixed


def test_topk_table_shape_and_rank(impact_dir):
    t = sparse_topk_table(impact_dir[0], {"spark": 1_000_000}, k=5)
    assert t.column_names == ["rank", "doc_id", "score_e12"]
    assert t["rank"].to_pylist() == list(range(1, t.num_rows + 1))
    sc = t["score_e12"].to_pylist()
    assert sc == sorted(sc, reverse=True)


def test_stats_table_consistent(impact_dir):
    t = impact_stats_table(impact_dir[0]).to_pydict()
    assert t["n_postings"][0] == t["n_kept"][0] + t["n_pruned"][0]
    assert t["n_kept"][0] > 0 and t["n_pruned"][0] > 0


def test_rebuild_is_deterministic(small_corpus_dir, impact_dir, tmp_path):
    meta2 = build_impact_index(small_corpus_dir, str(tmp_path),
                               cfg=EngineConfig(num_partitions=8))
    assert meta2 == impact_dir[1]
    # shard bytes identical too (sorted content, atomic writes)
    a = os.path.join(impact_dir[0], "impacts")
    b = os.path.join(str(tmp_path), "impacts")
    for f in os.listdir(a):
        if f.endswith(".parquet"):
            ta = pq.read_table(os.path.join(a, f))
            tb = pq.read_table(os.path.join(b, f))
            assert ta.equals(tb)
    with open(os.path.join(b, "_meta.json")) as fh:
        assert json.load(fh) == meta2


def test_search_masks_tombstoned_docs(impact_dir, small_corpus, tmp_path):
    """A soft-deleted doc never surfaces through sparse_vector; the
    remaining hits keep their scores and order."""
    import shutil
    from onestools_eventlog_ray.state.tombstones import delete_docs
    d = str(tmp_path / "idx")
    shutil.copytree(impact_dir[0], d)        # keep the shared fixture clean
    want, _ = _brute_impacts(small_corpus)
    n_post = collections.Counter(t for _, t in want)
    top3 = sorted(n_post, key=lambda t: (-n_post[t], t))[:3]
    qw = dict(zip(top3, (2_000_000, 1_000_000, 500_000)))
    before = SparseEngine(d).search(qw, k=10)
    assert len(before) >= 2
    delete_docs(d, [before[0][0]])
    after = SparseEngine(d).search(qw, k=10)
    assert before[0][0] not in [doc for doc, _ in after]
    assert after[:len(before) - 1] == before[1:]
