"""Sidecar × lifecycle matrix (round-4 verdict item #6).

One parametrized test asserting each sidecar — positions (phrase.py),
ANN buckets (ann.py), impacts (sparse.py), multi-field subindexes
(multifield.py) — survives every lifecycle operation defined for it
with IDENTICAL query results:

| sidecar    | delete | shrink | split | snapshot/restore | add_gen | compact |
|------------|--------|--------|-------|------------------|---------|---------|
| positions  |  yes   |  yes   |  yes  |       yes        |  (1)    |  (1)    |
| ann        |  yes   |  yes   |  yes  |       yes        |  yes    |  yes    |
| sparse     |  (3)   |  yes   |  yes  |       yes        |  (1)    |  (1)    |
| multifield |  yes   | (2)    | (2)   |       yes        |  (1)    |  (1)    |

(1) generational positions / multifield engines are not a defined
    surface: generations are queried through ``SearchEngine(root)``
    (the BM25 families) and compaction produces a fresh index whose
    sidecars are rebuilt from the compacted docstore — by design, not a gap.
(2) a multifield ROOT has no shard count of its own; shrink/split apply
    per FIELD index, which is exactly what the matrix rows test.
(3) SparseEngine masks tombstones through the same ``doc_mask`` as every
    BM25 path.

A generational root snapshots and restores as one tree: the restored
root serves through ``SearchEngine`` exactly like the original.

Product fixes this matrix forced: PhraseEngine masks tombstones
(deleted docs kept matching phrases), and shrink/split/snapshot link
every file but the term shards through ``state.snapshot.index_files``
(the ``ann/`` buckets and then the ``impacts/`` sidecar were dropped by
hand-kept subdirectory lists).
"""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from onestools_eventlog_ray.config import EngineConfig

CFG = EngineConfig(num_partitions=8)
MF_BOOSTS = {"text": 1.0, "source": 2.0}     # documents-table fields
MF_TERMS = ["spark", "window", "vector"]
ANN_DIM = 16
# synth corpus (seed=42) tokens: two common keywords and one mid-df
# identifier, so the top-k has distinct scores
SPARSE_QW = {"import": 2_000_000, "class": 1_000_000,
             "v15c15d69dcd4": 500_000}


# ---------------------------------------------------------------------------
# base artifacts (built once per module)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def base_index(ray_session, tmp_path_factory, small_corpus_dir,
               small_corpus):
    """Main index + positions and impacts sidecars + nested ann/
    buckets."""
    import ray.data
    from onestools_eventlog_ray.pipelines.ann import build_ann_index
    from onestools_eventlog_ray.pipelines.build import build_index
    from onestools_eventlog_ray.pipelines.phrase import build_position_index
    from onestools_eventlog_ray.pipelines.sparse import build_impact_index
    idx = str(tmp_path_factory.mktemp("life_idx"))
    build_index(small_corpus_dir, idx, cfg=CFG)
    build_position_index(small_corpus_dir, idx, cfg=CFG)
    build_impact_index(small_corpus_dir, idx, cfg=CFG)
    rng = np.random.default_rng(5)
    vecs = rng.normal(0, 1, size=(120, ANN_DIM))
    tbl = pa.table({
        "vec_id": pa.array(range(120), pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              pa.list_(pa.float32()))})
    build_ann_index(ray.data.from_arrow(tbl), idx,
                    dim=ANN_DIM, nbits=4, seed=7)   # writes <idx>/ann/
    return idx, vecs


@pytest.fixture(scope="module")
def base_mf(ray_session, tmp_path_factory):
    from onestools_eventlog_ray.pipelines.multifield import \
        build_multifield_index
    root = str(tmp_path_factory.mktemp("life_mf"))
    build_multifield_index("/root/testdata/sf0.001/documents.parquet",
                           root, list(MF_BOOSTS), cfg=CFG)
    return root


@pytest.fixture(scope="module")
def phrase_terms(small_corpus):
    from onestools_eventlog_ray.functions.analyzer import tokenize_py
    toks = tokenize_py(small_corpus["content"][0].as_py())
    return [toks[0], toks[1]]


# ---------------------------------------------------------------------------
# per-sidecar query + op harness
# ---------------------------------------------------------------------------

def q_positions(idx, phrase_terms, **_):
    from onestools_eventlog_ray.pipelines.phrase import PhraseEngine
    return PhraseEngine(idx).search_phrase(phrase_terms)


def q_ann(idx, vecs, **_):
    from onestools_eventlog_ray.pipelines.ann import AnnIndex
    a = AnnIndex(idx)
    return [a.query(v, k=10, hamming=1) for v in vecs[:4]]


def q_sparse(idx, **_):
    from onestools_eventlog_ray.pipelines.sparse import SparseEngine
    return SparseEngine(idx).search(SPARSE_QW, k=20)


def q_mf(root, **_):
    from onestools_eventlog_ray.pipelines.multifield import MultiFieldEngine
    return MultiFieldEngine(root, MF_BOOSTS).search(MF_TERMS, k=20)


def _copy(src, dst_parent, name):
    dst = os.path.join(str(dst_parent), name)
    shutil.copytree(src, dst)
    return dst


def op_shrink(src, tmp, fields=None):
    from onestools_eventlog_ray.pipelines.incremental import shrink_index
    from onestools_eventlog_ray.pipelines.multifield import field_dir
    out = os.path.join(str(tmp), "shrunk")
    if fields:                               # per-field shard op
        os.makedirs(out)
        for f in fields:
            shrink_index(field_dir(src, f), field_dir(out, f), factor=2)
    else:
        shrink_index(src, out, factor=2)
    return out


def op_split(src, tmp, fields=None):
    from onestools_eventlog_ray.pipelines.incremental import split_index
    from onestools_eventlog_ray.pipelines.multifield import field_dir
    out = os.path.join(str(tmp), "split")
    if fields:
        os.makedirs(out)
        for f in fields:
            split_index(field_dir(src, f), field_dir(out, f), factor=2)
    else:
        split_index(src, out, factor=2)
    return out


def op_snap_restore(src, tmp, fields=None):
    from onestools_eventlog_ray.state.snapshot import (restore_index,
                                                       snapshot_index)
    snap = os.path.join(str(tmp), "snap")
    dst = os.path.join(str(tmp), "restored")
    snapshot_index(src, snap)
    restore_index(snap, dst)
    return dst


LIFECYCLE_OPS = {"shrink": op_shrink, "split": op_split,
                 "snapshot_restore": op_snap_restore}


@pytest.mark.parametrize("sidecar,op", [
    (s, o) for s in ("positions", "ann", "sparse", "multifield")
    for o in ("shrink", "split", "snapshot_restore")
    if not (s == "multifield" and o in ())])
def test_lifecycle_matrix_identity(sidecar, op, base_index, base_mf,
                                   phrase_terms, tmp_path):
    """Every (sidecar, lifecycle op) cell: queries through the sidecar
    after the op are identical to the base index's."""
    idx, vecs = base_index
    if sidecar == "multifield":
        base_res = q_mf(base_mf)
        out = LIFECYCLE_OPS[op](base_mf, tmp_path,
                                fields=list(MF_BOOSTS)
                                if op != "snapshot_restore" else None)
        assert q_mf(out) == base_res
    elif sidecar == "positions":
        base_res = q_positions(idx, phrase_terms)
        assert base_res                       # phrase actually matches
        out = LIFECYCLE_OPS[op](idx, tmp_path)
        assert q_positions(out, phrase_terms) == base_res
    elif sidecar == "sparse":
        base_res = q_sparse(idx)
        assert base_res
        out = LIFECYCLE_OPS[op](idx, tmp_path)
        assert q_sparse(out) == base_res
    else:
        base_res = q_ann(idx, vecs)
        assert any(r for r in base_res)
        out = LIFECYCLE_OPS[op](idx, tmp_path)
        assert q_ann(out, vecs) == base_res


def test_generational_root_snapshot_restore(ray_session, small_corpus,
                                            tmp_path):
    """A generational root (two generations and a root tombstone)
    snapshots and restores as one tree and serves identically."""
    from onestools_eventlog_ray.pipelines.incremental import add_generation
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    from onestools_eventlog_ray.state.tombstones import delete_docs
    root = str(tmp_path / "gens")
    for i, part in enumerate((small_corpus.slice(0, 200),
                              small_corpus.slice(200))):
        path = str(tmp_path / f"half{i}.parquet")
        pq.write_table(part, path)
        add_generation(path, root, cfg=CFG)
    terms = ["def", "import", "class"]
    delete_docs(root, [SearchEngine(root).search(terms, 1)[0][0]])
    out = op_snap_restore(root, tmp_path)
    a, b = SearchEngine(root), SearchEngine(out)
    assert len(a.engines) == len(b.engines) == 2
    assert (a.deleted == b.deleted).all() and a.deleted.size
    for q in (terms, ["return"], ["nosuchterm"]):
        assert b.search(q, 20, tie="e6") == a.search(q, 20, tie="e6")


# ---------------------------------------------------------------------------
# delete cells (mutating -> run on copies)
# ---------------------------------------------------------------------------

def test_lifecycle_matrix_positions_delete(base_index, phrase_terms,
                                           tmp_path):
    """Tombstoned docs disappear from phrase results immediately — the
    round-5 PhraseEngine masking fix this matrix forced."""
    from onestools_eventlog_ray.pipelines.phrase import PhraseEngine
    from onestools_eventlog_ray.state.tombstones import delete_docs
    idx, _ = base_index
    base_res = q_positions(idx, phrase_terms)
    assert base_res
    victim = base_res[0][0]
    cp = _copy(idx, tmp_path, "del_pos")
    delete_docs(cp, [victim])
    got = PhraseEngine(cp).search_phrase(phrase_terms)
    assert got == [h for h in base_res if h[0] != victim]


def test_lifecycle_matrix_ann_delete_addgen_compact(ray_session, base_index,
                                                    tmp_path):
    import ray.data
    from onestools_eventlog_ray.pipelines.ann import (AnnIndex,
                                                      add_ann_generation,
                                                      compact_ann,
                                                      delete_ann_vecs)
    idx, vecs = base_index
    base_res = q_ann(idx, vecs)

    # delete: the top hit of query 0 vanishes, others unaffected
    cp = _copy(idx, tmp_path, "del_ann")
    victim = base_res[0][0][0]
    delete_ann_vecs(cp, [victim])
    got = AnnIndex(cp).query(vecs[0], k=10, hamming=1)
    assert victim not in [d for d, _ in got]
    assert got == [h for h in base_res[0] if h[0] != victim] \
        or len(got) == 10                     # refill from the bucket tail

    # add_generation parity: 2/3 + 1/3 == one-shot build (bit-identical)
    def tbl(ids, vv):
        return pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vv],
                                  pa.list_(pa.float32()))})
    inc = os.path.join(str(tmp_path), "inc_ann")
    from onestools_eventlog_ray.pipelines.ann import build_ann_index
    build_ann_index(ray.data.from_arrow(tbl(range(80), vecs[:80])), inc,
                    dim=ANN_DIM, nbits=4, seed=7)
    add_ann_generation(ray.data.from_arrow(tbl(range(80, 120), vecs[80:])),
                       inc)
    got_inc = [AnnIndex(inc).query(v, k=10, hamming=1) for v in vecs[:4]]
    assert got_inc == base_res

    # compact: physical fold preserves every ranking
    compact_ann(inc)
    assert [AnnIndex(inc).query(v, k=10, hamming=1)
            for v in vecs[:4]] == base_res


def test_lifecycle_matrix_multifield_delete(base_mf, tmp_path):
    from onestools_eventlog_ray.pipelines.multifield import (
        MultiFieldEngine, field_dir)
    from onestools_eventlog_ray.state.tombstones import delete_docs
    base_res = q_mf(base_mf)
    assert base_res
    victim = base_res[0][0]
    cp = _copy(base_mf, tmp_path, "del_mf")
    for f in MF_BOOSTS:                       # fields share doc_ids
        delete_docs(field_dir(cp, f), [victim])
    got = MultiFieldEngine(cp, MF_BOOSTS).search(MF_TERMS, k=20)
    assert victim not in [d for d, _ in got]
    assert got[:10] == [h for h in base_res if h[0] != victim][:10]
