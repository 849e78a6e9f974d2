"""The names the benchmark's layer tracer (``perfbench/layers.py``) and
workloads (``perfbench/run.py``) import or patch exist, and the query
path calls them through the patched attributes, so a traced run times
the code that ships.  A refactor that renames or bypasses one of them
fails here rather than leaving a traced layer at 0."""

import numpy as np
import pytest

from onestools_eventlog_ray.config import EngineConfig
from onestools_eventlog_ray.functions import codec
from onestools_eventlog_ray.pipelines import incremental, query


@pytest.fixture(scope="module")
def index(tmp_path_factory, small_corpus_dir):
    from onestools_eventlog_ray.pipelines.build import build_index
    path = str(tmp_path_factory.mktemp("bench_hooks") / "index")
    build_index(small_corpus_dir, path, cfg=EngineConfig(num_partitions=4))
    return path


def test_hooked_names_exist(index):
    for name in ("load_terms", "_taat_arrays", "search"):
        assert callable(getattr(query.SearchEngine, name)), name
    eng = query.SearchEngine(index)
    assert isinstance(eng._cache, dict) and eng.P == 4
    assert isinstance(query._TERM_CACHE_MAX, int)
    assert callable(query.pick_topk) and callable(incremental.pick_topk)
    assert callable(codec.decode_posting) and callable(codec.bm25_impact)
    assert incremental.GenerationalSearchEngine is query.SearchEngine


def test_search_reaches_the_patched_layers(index, monkeypatch):
    calls: dict[str, int] = {}

    def counted(fn, name):
        def call(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return call

    def pick(orig):
        return lambda tie: counted(orig(tie), "pick_topk")

    monkeypatch.setattr(query.SearchEngine, "load_terms",
                        counted(query.SearchEngine.load_terms, "load_terms"))
    monkeypatch.setattr(query.SearchEngine, "_taat_arrays",
                        counted(query.SearchEngine._taat_arrays,
                                "_taat_arrays"))
    monkeypatch.setattr(codec, "decode_posting",
                        counted(codec.decode_posting, "decode_posting"))
    monkeypatch.setattr(codec, "bm25_impact",
                        counted(codec.bm25_impact, "bm25_impact"))
    monkeypatch.setattr(query, "pick_topk", pick(query.pick_topk))
    eng = query.SearchEngine(index)
    hits = eng.search(["def", "import"], 10, tie="e6")
    assert hits and calls == {"load_terms": 1, "_taat_arrays": 1,
                              "decode_posting": 2, "bm25_impact": 2,
                              "pick_topk": 1}
    # a warm query skips the decode, not the other layers
    calls.clear()
    assert eng.search(["def", "import"], 10, tie="e6") == hits
    assert calls == {"load_terms": 1, "_taat_arrays": 1, "pick_topk": 1}
    ids, scores = eng._taat_arrays(["def", "import"])
    assert np.isin([d for d, _ in hits], ids).all()
