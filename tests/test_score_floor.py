"""The score floor of top-k BM25 (``bm25.top_weights``,
``bm25.score_floor``, ``accumulate(..., floor)``): ``SearchEngine.search``
must return exactly what the unpruned ``_taat_arrays`` + ``pick_topk``
returns, in both ``tie`` modes, under tombstones, ``allowed`` and
``excluded`` masks, ``use_stats``, and on a generational root where one
doc_id is in two generations.  The kernel is also driven directly with
weights that put sums on e6 rounding boundaries.  Draws are
derandomized, so a run is repeatable."""

import numpy as np
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from onestools_eventlog_ray import synth
from onestools_eventlog_ray.config import EngineConfig
from onestools_eventlog_ray.functions.bm25 import (TOP_WEIGHTS, accumulate,
                                                   pick_topk, score_floor,
                                                   top_weights)
from onestools_eventlog_ray.pipelines import query

_SETTINGS = settings(max_examples=120, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.too_slow])

# ---- the kernel on drawn weights -------------------------------------------

# weights a few e6 units apart, at and a few float steps either side of
# e6 rounding boundaries (x.5e-6), and inside one e6 unit: scores that
# tie on the e6 key with distinct float values, or straddle it
_BOUNDARY_W = st.builds(
    lambda m, frac, nudge: max((m + frac) * 1e-6 + nudge * 1e-21, 0.0),
    st.integers(0, 4), st.sampled_from([0.0, 0.25, 0.4999, 0.5, 0.5001]),
    st.integers(-3, 3))
_FLOAT_W = st.floats(0.0, 20.0, allow_nan=False)
# a negative weight (idf under a caller's df > N) leaves no floor
_SIGNED_W = st.floats(-20.0, 20.0, allow_nan=False)


@st.composite
def kernel_cases(draw):
    n = draw(st.integers(1, 40))
    weight = draw(st.sampled_from([_BOUNDARY_W, _FLOAT_W, _SIGNED_W]))
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        # ordinals ascending; a repeat is a doc held by two generations
        ords = np.sort(np.asarray(draw(st.lists(
            st.integers(0, n - 1), min_size=1, max_size=2 * n)), np.int64))
        w = np.asarray(draw(st.lists(weight, min_size=ords.size,
                                     max_size=ords.size)), np.float64)
        parts.append((ords, w))
    live = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    k = draw(st.integers(0, 2 * n))
    list_len = draw(st.integers(1, 16))
    return parts, live, k, list_len


@_SETTINGS
@given(kernel_cases(), st.sampled_from(["float", "e6"]))
def test_floored_kernel_keeps_the_top_k(case, tie):
    parts, live, k, list_len = case
    tops = [top_weights(o, w, list_len) for o, w in parts]
    floor = score_floor(tops, live, k)
    pick = pick_topk(tie)
    ords, scores = accumulate(parts, live)
    f_ords, f_scores = accumulate(parts, live, floor)
    assert set(f_ords.tolist()) <= set(ords.tolist())
    want = pick(scores, ords, k)
    got = pick(f_scores, f_ords, k)
    assert f_ords[got].tolist() == ords[want].tolist()
    assert f_scores[got].view(np.int64).tolist() \
        == scores[want].view(np.int64).tolist()


@pytest.mark.parametrize("low,high", [(7.0000001, 7.0000004),
                                      (3.2e-6, 3.4e-6),
                                      (7.0000005, 7.0000014)])
def test_e6_tie_under_the_floor_survives(low, high):
    """Two docs with one e6 key: the floor for k=1 is the higher float
    score, but ``tie="e6"`` ranks the lower-id, lower-score doc first,
    so it must reach the cut."""
    ords, w = np.asarray([0, 1], np.int64), np.asarray([low, high])
    live = np.ones(2, dtype=bool)
    assert pick_topk("e6")(w, ords, 2).tolist() == [0, 1]
    floor = score_floor([top_weights(ords, w, 1)], live, 1)
    assert floor == high
    f_ords, f_scores = accumulate([(ords, w)], live, floor)
    assert f_ords[pick_topk("e6")(f_scores, f_ords, 1)].tolist() == [0]
    assert f_ords[pick_topk("float")(f_scores, f_ords, 1)].tolist() == [1]


def test_top_weights_counts_each_ordinal_once():
    ords = np.asarray([0, 1, 1, 2, 3, 3], np.int64)
    w = np.asarray([1.0, 5.0, 4.0, 2.0, 3.0, 6.0])
    # the four largest weights are two ordinals' entries
    tw, to = top_weights(ords, w, 4)
    assert (to.tolist(), tw.tolist()) == ([3, 1], [6.0, 5.0])
    tw, to = top_weights(ords, w, 5)
    assert (to.tolist(), tw.tolist()) == ([3, 1, 2], [6.0, 5.0, 2.0])
    # a term with at most n weights keeps no list
    assert [a.size for a in top_weights(ords, w, 6)] == [0, 0]
    assert top_weights(ords, -w) is None


def test_negative_weight_leaves_no_floor():
    """Doc 0 holds the largest weight of the first term, but the second
    term's negative weight puts it under doc 1."""
    parts = [(np.asarray([0, 1, 2]), np.asarray([10.0, 9.0, 8.0])),
             (np.asarray([0]), np.asarray([-15.0]))]
    live = np.ones(3, dtype=bool)
    floor = score_floor([top_weights(o, w, 1) for o, w in parts], live, 1)
    assert floor == -np.inf
    ords, scores = accumulate(parts, live, floor)
    assert ords[pick_topk("float")(scores, ords, 1)].tolist() == [1]


def test_no_floor_without_a_bound():
    tops = [(np.asarray([3.0, 2.0, 1.0]), np.asarray([0, 1, 2]))]
    live = np.ones(3, dtype=bool)
    assert score_floor(tops, live, 3) == 1.0
    # fewer than k live entries, k over the list bound, k = 0, a list
    # with a negative weight
    assert score_floor(tops, live, 4) == -np.inf
    assert score_floor(tops, np.asarray([True, False, True]), 3) == -np.inf
    assert score_floor(tops, live, TOP_WEIGHTS + 1) == -np.inf
    assert score_floor(tops, live, 0) == -np.inf
    assert score_floor(tops + [None], live, 1) == -np.inf


# ---- the engine ------------------------------------------------------------

@pytest.fixture(scope="module")
def engines(tmp_path_factory):
    """(plain index, generational root) over tiny corpora; the root's two
    generations share 30 doc_ids."""
    from onestools_eventlog_ray.pipelines.build import build_index
    from onestools_eventlog_ray.pipelines.incremental import add_generation
    tmp = tmp_path_factory.mktemp("score_floor")
    cfg = EngineConfig(num_partitions=4)
    corpus = str(tmp / "corpus")
    synth.write_corpus(corpus, n_docs=240, seed=11)
    build_index(corpus, str(tmp / "index"), cfg=cfg)
    tbl = synth.generate_corpus(160, seed=12)
    for i, part in enumerate([tbl.slice(0, 100), tbl.slice(70)]):
        src = str(tmp / f"gen{i}.parquet")
        pq.write_table(part, src)
        add_generation(src, str(tmp / "root"), cfg=cfg)
    plain = query.SearchEngine(str(tmp / "index"))
    root = query.SearchEngine(str(tmp / "root"))
    assert root.docs.size == 160
    assert sum(e.docs.size for e in root.engines) == 190
    return {"plain": plain, "root": root}


def _vocab(eng):
    """Terms across the df range, most frequent first."""
    N, _, df = eng.stats()
    by_df = sorted(df, key=lambda t: (-df[t], t))
    picks = np.unique(np.geomspace(1, len(by_df), 24).astype(int) - 1)
    return [by_df[i] for i in picks], N


def _unpruned(eng, terms, k, tie, allowed=None, excluded=None):
    ids, scores = eng._taat_arrays(terms, allowed, excluded)
    idx = pick_topk(tie)(scores, ids, k)
    return list(zip(ids[idx].tolist(), scores[idx].tolist()))


@st.composite
def engine_cases(draw, vocab, ids):
    terms = draw(st.lists(st.sampled_from(vocab), min_size=1, max_size=4))
    k = draw(st.sampled_from([1, 2, 5, 10, 30, TOP_WEIGHTS,
                              TOP_WEIGHTS + 1, 500]))
    some = st.sets(st.sampled_from(ids), max_size=len(ids) // 2)
    dead = draw(some)
    allowed = draw(st.one_of(st.none(), st.sets(st.sampled_from(ids),
                                                min_size=1)))
    excluded = draw(st.one_of(st.none(), some))
    return terms, k, dead, allowed, excluded


@pytest.mark.parametrize("which", ["plain", "root"])
def test_search_equals_unpruned_search(engines, which):
    eng = engines[which]
    vocab, _ = _vocab(eng)
    ids = eng.docs.tolist()
    saved = eng.deleted

    @_SETTINGS
    @given(engine_cases(vocab, ids), st.sampled_from(["float", "e6"]))
    def check(case, tie):
        terms, k, dead, allowed, excluded = case
        eng.deleted = np.asarray(sorted(dead), dtype=np.int64)
        allowed = None if allowed is None \
            else np.asarray(sorted(allowed), np.int64)
        excluded = None if excluded is None \
            else np.asarray(sorted(excluded), np.int64)
        assert eng.search(terms, k, tie, allowed=allowed,
                          excluded=excluded) \
            == _unpruned(eng, terms, k, tie, allowed, excluded)
    try:
        check()
    finally:
        eng.deleted = saved


@pytest.mark.parametrize("scale", [1.0, 3.0, 0.0])
def test_search_under_use_stats(engines, scale):
    """Global stats from a caller; ``scale=0`` sets N below every df, so
    idf and every weight are negative and no floor may be taken."""
    eng = engines["plain"]
    vocab, N = _vocab(eng)
    _, sum_dl, df = eng.stats()
    own = (eng.N, eng.avgdl, dict(eng._df))
    try:
        eng.use_stats(max(int(N * scale), 1), 1.1 * sum_dl / N,
                      {t: 2 * n for t, n in df.items()})
        for tie in ("float", "e6"):
            for i, t in enumerate(vocab):
                q = [t, vocab[(i * 7) % len(vocab)]]
                for k in (1, 10, TOP_WEIGHTS):
                    assert eng.search(q, k, tie) \
                        == _unpruned(eng, q, k, tie), (q, k)
    finally:
        eng.use_stats(*own)


def test_hot_query_hands_topk_few_candidates(tmp_path, monkeypatch):
    """Hot queries (a boilerplate keyword and two of the most frequent
    vocabulary terms) reach ``pick_topk`` with a small fraction of their
    matches."""
    from onestools_eventlog_ray.pipelines.build import build_index
    corpus = synth.write_corpus(str(tmp_path / "corpus"), n_docs=2000,
                                seed=1)
    build_index(corpus, str(tmp_path / "index"),
                cfg=EngineConfig(num_partitions=4))
    eng = query.SearchEngine(str(tmp_path / "index"))
    kws = sorted({w for ws in synth.LANG_KEYWORDS.values() for w in ws}
                 | set(synth.LICENSE_LINE.split()))
    top = synth.make_vocab()[:8]
    queries = [[kw, top[i % 8], top[(3 * i + 1) % 8]]
               for i, kw in enumerate(kws)]
    matches = [eng._taat_arrays(q)[0].size for q in queries]
    seen = []
    pick = query.pick_topk

    def counting(tie):
        fn = pick(tie)

        def call(scores, ids, k):
            seen.append(scores.size)
            return fn(scores, ids, k)
        return call
    monkeypatch.setattr(query, "pick_topk", counting)
    for q in queries:
        eng.search(q, 10, "e6")
    assert len(seen) == len(queries)
    assert np.median(matches) >= 1000
    assert np.median(seen) * 10 <= np.median(matches), (seen, matches)
    assert sum(seen) * 4 <= sum(matches)
