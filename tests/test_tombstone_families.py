"""Tombstones in every set-algebra query family: hypothesis draws a
tombstone set (assigned through the ``SearchEngine.deleted`` setter) and
query terms, and each family's match set must equal brute-force set
algebra over the docstore's analyzed ``content`` minus the tombstones.

One small index is built per module; the draws are derandomized so a
run is repeatable."""

import glob
import os
from unittest import mock

import numpy as np
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from onestools_eventlog_ray import synth
from onestools_eventlog_ray.config import EngineConfig
from onestools_eventlog_ray.functions.analyzer import tokenize_py
from onestools_eventlog_ray.pipelines import query
from onestools_eventlog_ray.pipelines.build import build_index
from onestools_eventlog_ray.pipelines.dsl import es_search, query_string_search
from onestools_eventlog_ray.pipelines.query import SearchEngine

_ABSENT = "zzqabsentterm"


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("tombstones")
    corpus, index = str(root / "corpus"), str(root / "index")
    synth.write_corpus(corpus, n_docs=160, seed=5)
    build_index(corpus, index, cfg=EngineConfig(num_partitions=4))
    eng = SearchEngine(index)
    store = pq.read_table(sorted(glob.glob(os.path.join(index, "docstore",
                                                        "*.parquet"))),
                          columns=["doc_id", "content"])
    holds: dict[str, set[int]] = {}
    for d, text in zip(store["doc_id"].to_pylist(),
                       store["content"].to_pylist()):
        for t in set(tokenize_py(text)):
            holds.setdefault(t, set()).add(d)
    # terms across the df range (every doc, most, some, few, one) and
    # one term no doc holds
    by_df = sorted(holds, key=lambda t: (-len(holds[t]), t))
    picks = np.linspace(0, len(by_df) - 1, 12).astype(int)
    vocab = sorted({by_df[i] for i in picks}) + [_ABSENT]
    holds[_ABSENT] = set()
    return eng, holds, vocab, sorted(eng.docs.tolist())


def _draws(world):
    _, _, vocab, ids = world
    terms = st.lists(st.sampled_from(vocab), min_size=1, max_size=4)
    dead = st.sets(st.sampled_from(ids), max_size=len(ids) // 2)
    return terms, terms, dead


def _any(holds, terms, live):
    return set().union(*(holds[t] for t in terms)) & live


def _every(holds, terms, live):
    return set.intersection(*(holds[t] for t in set(terms))) & live


def _kill(eng, dead) -> set[int]:
    eng.deleted = np.asarray(sorted(dead), dtype=np.int64)
    return set(eng.docs.tolist()) - set(dead)


_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.too_slow])


def test_engine_families_match_set_algebra(world):
    eng, holds, _, ids = world
    n = len(ids)

    @_SETTINGS
    @given(*_draws(world))
    def check(pos, neg, dead):
        live = _kill(eng, dead)
        hits = _any(holds, pos, live)
        banned = _any(holds, neg, live)
        assert {d for d, _ in eng.search_not(pos, neg, k=n)} == \
            hits - banned
        base = dict(eng.search(pos, k=n))
        boosted = dict(eng.search_boosting(pos, neg, 0.5, k=n))
        assert boosted == {d: s * 0.5 if d in banned else s
                           for d, s in base.items()}
        assert set(base) == hits
        counts = {d: sum(d in holds[t] for t in set(pos)) for d in hits}
        assert {(d, c, m) for d, c, m in
                eng.terms_set_matches(pos, k=n, msm_mod=3)} == \
            {(d, c, 1 + d % 3) for d, c in counts.items() if c >= 1 + d % 3}
        srt = query.search_sorted_by(eng, pos, "n_tokens", k=n)
        assert set(srt["doc_id"].to_pylist()) == hits
        uniq = sorted(set(pos + neg))
        adj = query.adjacency_matrix(eng, pos + neg)
        assert list(zip(adj["key_a"].to_pylist(), adj["key_b"].to_pylist(),
                        adj["n_docs"].to_pylist())) == [
            (a, b, len(holds[a] & holds[b] & live))
            for i, a in enumerate(uniq) for b in uniq[i:]]
        rel = len(_every(holds, pos, live))
        assert query.bm25_eval(eng, pos)["n_relevant"].to_pylist() == [rel]
        assert query.rank_eval(eng, [("q", pos)])["n_relevant"] \
            .to_pylist() == [rel]
        with mock.patch.object(query, "SearchEngine", lambda _: eng):
            cnt = query.count_matches(eng.index_dir, pos)
            assert dict(zip(cnt["mode"].to_pylist(),
                            cnt["n_docs"].to_pylist())) == {
                "any": len(hits), "all": len(_every(holds, pos, live))}
            tree = {"and": [pos[0], {"or": pos[1:] or [pos[0]]},
                            {"not": neg[0]}]}
            want = (holds[pos[0]] & _any(holds, pos[1:] or pos[:1], live)) \
                - holds[neg[0]]
            assert query.count_bool(eng.index_dir, tree)["n_docs"] \
                .to_pylist() == [len(want & live)]

    check()


def test_dsl_families_match_set_algebra(world):
    eng, holds, _, ids = world
    n = len(ids)

    @_SETTINGS
    @given(*_draws(world))
    def check(must, neg, dead):
        live = _kill(eng, dead)
        got = es_search(eng, {"bool": {
            "must": [{"match": {"content": " ".join(must)}},
                     {"terms_or": {"content": {"terms": neg}}}],
            "must_not": [{"match": {"content": _ABSENT}}]}}, k=n)
        assert set(got["doc_id"].to_pylist()) == \
            _every(holds, must, live) & _any(holds, neg, live)
        got = es_search(eng, {"bool": {
            "should": [{"match": {"content": " ".join(must)}}],
            "must_not": [{"match": {"content": " ".join(neg)}}]}}, k=n)
        assert set(got["doc_id"].to_pylist()) == \
            _any(holds, must, live) - _any(holds, neg, live)
        q = f"{must[0]} AND ({' OR '.join(must)}) AND NOT {neg[0]}"
        got = query_string_search(eng, q, k=n)
        assert set(got["doc_id"].to_pylist()) == \
            (holds[must[0]] & live) - holds[neg[0]]

    check()


def test_esql_match_drops_tombstones(world):
    import ray.data
    from onestools_eventlog_ray.pipelines.esql import run_esql
    eng, holds, _, ids = world
    docs = ray.data.from_arrow(pq.read_table(sorted(glob.glob(os.path.join(
        eng.index_dir, "docstore", "*.parquet"))),
        columns=["doc_id", "content"]))

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(*_draws(world)[1:])
    def check(terms, dead):
        live = _kill(eng, dead)
        got = run_esql(f'FROM t | WHERE MATCH(content, "{" ".join(terms)}") '
                       '| KEEP doc_id | LIMIT 10000', {"t": docs},
                       search_engine=eng, id_col="doc_id")
        assert set(got["doc_id"].to_pylist()) == _any(holds, terms, live)

    check()
