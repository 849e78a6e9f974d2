"""The build's postings are correct and independent of the salt fan-out
(SURVEY.md §7.4 'Skew').

A default build is decoded shard by shard and compared with postings
built in plain Python (``re.split`` + ``Counter``) from the corpus; an
unsalted build (``salt_ranges=1``) and a widely salted one
(``salt_ranges=16``) must decode to EXACTLY the same postings — the
provable-equivalence requirement of the north_rule's skew handling.
"""

import glob
import re
from collections import Counter, defaultdict

import pyarrow.parquet as pq
import pytest

from onestools_eventlog_ray import synth
from onestools_eventlog_ray.config import EngineConfig
from onestools_eventlog_ray.functions import codec
from onestools_eventlog_ray.pipelines.build import build_index
from onestools_eventlog_ray.pipelines.query import SearchEngine
from onestools_eventlog_ray.sources.corpus import CODE_CORPUS_SPEC
from onestools_eventlog_ray.stages.normalize import add_doc_id

CFG = EngineConfig(num_partitions=8)


def _load_all_postings(index_dir):
    out = {}
    for f in sorted(glob.glob(index_dir + "/shards/*.parquet")):
        t = pq.read_table(f)
        for term, df, cf, blob in zip(t["term"].to_pylist(), t["df"].to_pylist(),
                                      t["cf"].to_pylist(), t["posting"].to_pylist()):
            p = codec.decode_posting(blob)
            out[term] = (df, cf, p.doc_ids.tolist(), p.tfs.tolist(), p.dls.tolist())
    return out


def _reference_postings(corpus, pattern):
    """term -> (df, cf, doc_ids, tfs, dls), one doc at a time in Python."""
    ids = add_doc_id(corpus, CODE_CORPUS_SPEC)["doc_id"].to_pylist()
    rows = defaultdict(list)
    for doc_id, text in zip(ids, corpus["content"].to_pylist()):
        toks = [t for t in re.split(pattern, text.lower()) if t]
        for term, tf in Counter(toks).items():
            rows[term].append((doc_id, tf, len(toks)))
    out = {}
    for term, r in rows.items():
        r.sort()
        out[term] = (len(r), sum(tf for _, tf, _ in r), [d for d, _, _ in r],
                     [tf for _, tf, _ in r], [dl for _, _, dl in r])
    return out


@pytest.fixture(scope="module")
def builds(tmp_path_factory, small_corpus_dir):
    dirs = {}
    for name, cfg in (("default", CFG),
                      ("unsalted", EngineConfig(num_partitions=8, salt_ranges=1)),
                      ("salted", EngineConfig(num_partitions=8, salt_ranges=16))):
        dirs[name] = str(tmp_path_factory.mktemp(f"idx_{name}"))
        rep = build_index(small_corpus_dir, dirs[name], cfg=cfg)
        assert rep["salt_ranges"] == cfg.salt_ranges
    return dirs


def test_postings_match_reference(builds, small_corpus):
    got = _load_all_postings(builds["default"])
    want = _reference_postings(small_corpus, CFG.token_split_pattern)
    assert got.keys() == want.keys()
    for term in want:
        assert got[term] == want[term], term


def test_salted_postings_identical(builds):
    pp = _load_all_postings(builds["unsalted"])
    sp = _load_all_postings(builds["salted"])
    assert pp.keys() == sp.keys()
    for term in pp:
        assert pp[term] == sp[term], term


def test_pick_salt_ranges_floor_scale_cap():
    from onestools_eventlog_ray.stages.exchange import pick_salt_ranges
    cfg = EngineConfig()   # salt_ranges=4 floor, salt_target_run=100k, max 64
    assert pick_salt_ranges(cfg, None) == cfg.salt_ranges
    assert pick_salt_ranges(cfg, 10_000) == cfg.salt_ranges       # floor
    assert pick_salt_ranges(cfg, 500_000) == 8                    # ceil(5)->8
    assert pick_salt_ranges(cfg, 3_000_000) == 32
    assert pick_salt_ranges(cfg, 100_000_000) == 64               # cap
    assert pick_salt_ranges(EngineConfig(salt_ranges=1), 10**9) == 1  # disabled


def test_auto_salt_ranges_equivalent(tmp_path, small_corpus_dir,
                                                 builds):
    """A widened auto fan-out (tiny salt_target_run forces S up to
    max_salts on the 400-doc corpus) must produce the unsalted postings."""
    auto_dir = str(tmp_path / "auto")
    cfg2 = EngineConfig(num_partitions=8, salt_target_run=20, max_salts=16)
    r = build_index(small_corpus_dir, auto_dir, cfg=cfg2)
    assert r["salt_ranges"] == 16
    assert _load_all_postings(builds["unsalted"]) == _load_all_postings(auto_dir)


def test_salted_query_results_identical(builds, small_corpus):
    ep, es = SearchEngine(builds["unsalted"]), SearchEngine(builds["salted"])
    for q in synth.reference_queries(small_corpus, n_queries=30):
        assert ep.search(q["terms"], q["k"]) == es.search(q["terms"], q["k"])
