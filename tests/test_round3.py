"""Round-3 regression tests: tombstoned deletes (single + generational +
compaction), verify-bucket caps, and layout-version gating."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from onestools_eventlog_ray import synth
from onestools_eventlog_ray.config import EngineConfig
from onestools_eventlog_ray.functions.bm25 import BruteForceBM25
from onestools_eventlog_ray.functions.hashing import doc_id_from_keys
from onestools_eventlog_ray.pipelines.build import build_index
from onestools_eventlog_ray.pipelines.query import SearchEngine
from onestools_eventlog_ray.state.tombstones import (delete_docs,
                                                     load_tombstones)

CFG = EngineConfig(num_partitions=8)


@pytest.fixture(scope="module")
def del_index(tmp_path_factory, small_corpus_dir):
    index_dir = str(tmp_path_factory.mktemp("del_index"))
    build_index(small_corpus_dir, index_dir, cfg=CFG)
    return index_dir


def _ids_of(small_corpus):
    return doc_id_from_keys(small_corpus["repo"], small_corpus["path"],
                            small_corpus["commit"]).to_pylist()


def test_delete_removes_from_results(del_index, small_corpus):
    eng = SearchEngine(del_index)
    before = eng.search(["def", "import"], 10)
    assert before
    victims = [before[0][0], before[2][0]]
    assert delete_docs(del_index, victims) == 2
    eng2 = SearchEngine(del_index)       # fresh engine picks up tombstones
    after = eng2.search(["def", "import"], 10)
    got_ids = [d for d, _ in after]
    assert not set(victims) & set(got_ids)
    # survivors keep their EXACT scores (stats unchanged — soft delete)
    before_scores = dict(before)
    for d, s in after:
        if d in before_scores:
            assert s == before_scores[d]


def test_delete_masks_fetch_and_filtered(del_index, small_corpus):
    eng = SearchEngine(del_index)
    deleted = load_tombstones(del_index)
    assert deleted.size == 2
    fetched = eng.fetch_docs(deleted.tolist() + [eng.search(["def"], 1)[0][0]])
    assert not set(fetched["doc_id"].to_pylist()) & set(deleted.tolist())
    allowed = eng.allowed_doc_ids({"lang": "py"})
    assert allowed.size > 0
    assert not set(allowed.tolist()) & set(deleted.tolist())
    # filtered search never returns a tombstoned doc either
    hits = eng.search_filtered(["def"], {"lang": "py"}, k=50)
    assert not {d for d, _ in hits} & set(deleted.tolist())


def test_delete_is_idempotent(del_index):
    before = load_tombstones(del_index)
    delete_docs(del_index, before.tolist())      # same set again
    assert np.array_equal(load_tombstones(del_index), before)


def test_generational_delete_and_compaction(tmp_path, small_corpus):
    """Root tombstones mask docs across generations; compaction drops
    them physically and matches the masked generational ranking."""
    from onestools_eventlog_ray.pipelines.incremental import (
        add_generation, compact_generations)
    half = small_corpus.num_rows // 2
    root = str(tmp_path / "gens")
    for i, tbl in enumerate([small_corpus.slice(0, half),
                             small_corpus.slice(half)]):
        src = str(tmp_path / f"half{i}.parquet")
        pq.write_table(tbl, src)
        add_generation(src, root, cfg=CFG)

    eng = SearchEngine(root)
    before = eng.search(["def", "the"], 10)
    victims = [before[0][0], before[1][0]]
    delete_docs(root, victims)

    eng2 = SearchEngine(root)
    after = eng2.search(["def", "the"], 10)
    assert not set(victims) & {d for d, _ in after}

    # compaction drops the deleted docs: N shrinks, tombstones not carried
    out = str(tmp_path / "compacted")
    report = compact_generations(root, out, cfg=CFG)
    assert report["n_deleted_dropped"] == 2
    ceng = SearchEngine(out)
    assert ceng.N == small_corpus.num_rows - 2
    assert ceng.deleted.size == 0
    # rank-identical to a brute-force oracle over the surviving docs
    ids = _ids_of(small_corpus)
    texts = small_corpus["content"].to_pylist()
    keep = [(i, t) for i, t in zip(ids, texts) if i not in victims]
    oracle = BruteForceBM25([i for i, _ in keep], [t for _, t in keep])
    got = ceng.search(["def", "the"], 10)
    want = oracle.search(["def", "the"], 10)
    assert [d for d, _ in got] == [d for d, _ in want]


def test_verify_bucket_cap_bounds_giant_bucket():
    """A degenerate corpus where hundreds of docs share every LSH bucket
    must complete with chunk-bounded work, not O(n^2) on one task."""
    import ray.data
    from onestools_eventlog_ray.pipelines import dedup
    from onestools_eventlog_ray.sources.corpus import CorpusSpec
    n = 60
    tbl = pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
        "text": pa.array(["alpha beta gamma delta epsilon zeta"] * n),
    })
    spec = CorpusSpec(content_col="text", id_col="doc_id",
                      key_cols=("doc_id",), meta_cols=())
    res = dedup.minhash_verified_pairs(
        ray.data.from_arrow(tbl), spec, min_jaccard=0.5,
        bucket_cap=16).take_all()           # force the split path
    # identical docs -> jaccard 1.0 pairs, but only within 16-doc chunks:
    # 60 docs -> chunks of 16/16/16/12 -> 3*120 + 66 = 426 pairs max
    assert 0 < len(res) <= 3 * 120 + 66
    assert all(r["jaccard_e6"] == 1_000_000 for r in res)


def test_multifield_bm25(tmp_path):
    """Per-field postings + boosts: combined score == boost-weighted sum
    of per-field brute-force BM25; field-only matches still rank."""
    import ray.data  # noqa: F401
    from onestools_eventlog_ray.pipelines.multifield import (
        MultiFieldEngine, build_multifield_index)
    n = 120
    rng = np.random.default_rng(3)
    texts = [" ".join(rng.choice(["alpha", "beta", "gamma", "delta"],
                                 size=rng.integers(3, 12)))
             for _ in range(n)]
    tags = [rng.choice(["red", "blue", "green"]) for _ in range(n)]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
        "body": pa.array(texts), "tag": pa.array(tags)}), src)
    root = str(tmp_path / "mf")
    build_multifield_index(src, root, ["body", "tag"],
                           cfg=EngineConfig(num_partitions=4))
    boosts = {"body": 1.0, "tag": 3.0}
    eng = MultiFieldEngine(root, boosts)
    got = eng.search(["alpha", "red"], k=n)
    # brute-force per-field oracle with the same weighted sum
    ids = list(range(n))
    ob = BruteForceBM25(ids, texts)
    ot = BruteForceBM25(ids, tags)
    comb = {}
    for d, s in ob.search(["alpha", "red"], n):
        comb[d] = comb.get(d, 0.0) + boosts["body"] * s
    for d, s in ot.search(["alpha", "red"], n):
        comb[d] = comb.get(d, 0.0) + boosts["tag"] * s
    want = sorted(comb.items(), key=lambda kv: (-kv[1], kv[0]))
    assert [d for d, _ in got] == [d for d, _ in want]
    for (_, gs), (_, ws) in zip(got, want):
        assert abs(gs - ws) < 1e-12


def test_asof_join_semantics():
    """As-of join: latest right at-or-before each left, per user; ties
    on right ts resolve to max event_id; lefts with no prior right drop."""
    import ray.data
    from onestools_eventlog_ray.pipelines.relational import asof_join_events
    rows = [
        # user 1: purchase at 10 (ids 100,101 tie), clicks at 5, 10, 20
        dict(event_id=1, ts=5, user_id=1, event_type="click"),
        dict(event_id=2, ts=10, user_id=1, event_type="click"),
        dict(event_id=3, ts=20, user_id=1, event_type="click"),
        dict(event_id=100, ts=10, user_id=1, event_type="purchase"),
        dict(event_id=101, ts=10, user_id=1, event_type="purchase"),
        # user 2: click only -> dropped
        dict(event_id=4, ts=7, user_id=2, event_type="click"),
        # user 3: two purchases, click between them
        dict(event_id=5, ts=15, user_id=3, event_type="click"),
        dict(event_id=102, ts=10, user_id=3, event_type="purchase"),
        dict(event_id=103, ts=20, user_id=3, event_type="purchase"),
    ]
    tbl = pa.table({
        "event_id": pa.array([r["event_id"] for r in rows], pa.int64()),
        "ts": pa.array([r["ts"] for r in rows], pa.int64()),
        "user_id": pa.array([r["user_id"] for r in rows], pa.int64()),
        "event_type": pa.array([r["event_type"] for r in rows]),
    })
    out = {r["event_id"]: (r["r_event_id"], r["r_ts_us"])
           for r in asof_join_events(ray.data.from_arrow(tbl)).take_all()}
    assert out == {2: (101, 10), 3: (101, 10), 5: (102, 10)}


def test_count_min_estimates_bound_true_counts(small_corpus):
    """CM point estimates are upper bounds and exact for hot terms at
    this width; registers merge across batches."""
    import collections
    import ray.data
    from onestools_eventlog_ray.functions.analyzer import tokenize_py
    from onestools_eventlog_ray.pipelines.sketch import (cm_estimate,
                                                         cm_term_registers)
    from onestools_eventlog_ray.sources.corpus import CODE_CORPUS_SPEC
    regs = cm_term_registers(
        ray.data.from_arrow(small_corpus).map_batches(
            lambda t: t, batch_size=64, batch_format="pyarrow"),
        CODE_CORPUS_SPEC).take_all()
    regs = pa.table({
        "row_id": pa.array([r["row_id"] for r in regs], pa.int64()),
        "col_id": pa.array([r["col_id"] for r in regs], pa.int64()),
        "n": pa.array([r["n"] for r in regs], pa.int64()),
    })
    true = collections.Counter()
    for text in small_corpus["content"].to_pylist():
        true.update(tokenize_py(text))
    for term, cnt in list(true.most_common(5)) + [("license", true["license"])]:
        est = cm_estimate(regs, term)
        assert est >= cnt
        assert est <= cnt + sum(true.values()) // 256   # width slack
    assert cm_estimate(regs, "zz_never_seen_zz") >= 0


def test_layout_mismatch_raises(tmp_path, small_corpus_dir):
    import json
    index_dir = str(tmp_path / "idx")
    build_index(small_corpus_dir, index_dir, cfg=CFG)
    st = json.load(open(os.path.join(index_dir, "stats.json")))
    st["layout_version"] = 999
    json.dump(st, open(os.path.join(index_dir, "stats.json"), "w"))
    with pytest.raises(RuntimeError, match="layout_version"):
        SearchEngine(index_dir)
