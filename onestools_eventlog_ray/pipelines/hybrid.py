"""Hybrid retrieval: BM25 (lexical) + cosine-kNN (semantic) fused with
reciprocal-rank fusion — the ES 8.x ``rrf`` retriever re-expressed over
this engine's two native rankers.

Both component rankings are the engine's distributed paths (the
df-bounded BM25 scorer and the broadcast-matrix kNN stage); fusion is a
driver-side join of two rank-window-sized lists.  RRF contributions are
integer-floored (``1e9 // (c + rank)``) BEFORE summing, so the fused
ranking is order-free, bit-reproducible, and exactly mirrored by the
SQL oracle — same e6/e9-first design as the rest of the engine.

Reference parity: the reference ships rows to ElasticSearch and lets ES
rank (`ElasticSearchStorage.cs:200-236`); RRF is the ES-side feature
that merges its lexical and vector verticals.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa


def hybrid_rrf(eng, emb_ds, terms: list[str], query_vec_id: int,
               k: int = 10, window: int = 50, c: int = 60,
               id_col: str = "vec_id",
               vec_col: str = "embedding") -> pa.Table:
    """Fuse the BM25 top-``window`` for ``terms`` (:func:`bm25_ranks`,
    a bounded e6 top-k) with the cosine top-``window`` neighbours of
    ``query_vec_id``'s embedding (:func:`knn_ranks`, self excluded)
    through :func:`rrf_fuse`.  Score = ``(1e9 // (c + bm25_rank)) +
    (1e9 // (c + knn_rank))``; a doc absent from one list contributes 0
    from that component.  -> (rank, doc_id, rrf_e9, bm25_rank nullable,
    knn_rank nullable) top-k by (rrf_e9 desc, doc_id asc).

    Requires the corpus doc_id and embedding id to share an id space
    (true for the documents/embeddings tables; in general ES requires
    the same — one _id across retrievers)."""
    return rrf_fuse({
        "bm25": bm25_ranks(eng, terms, window),
        "knn": knn_ranks(emb_ds, query_vec_id, window,
                         id_col=id_col, vec_col=vec_col),
    }, k=k, c=c)


def bm25_ranks(eng, terms: list[str], window: int) -> dict[int, int]:
    """BM25 component ranking: doc_id -> rank (1-based, e6-quantized
    score desc, doc_id asc) over the top-``window`` — bounded engine
    top-k (``tie="e6"``), O(window) hits reach the driver."""
    hits = eng.search(terms, k=window, tie="e6")
    return {int(d): r for r, (d, _) in enumerate(hits, 1)}


def knn_ranks(emb_ds, query_vec_id: int, window: int,
              id_col: str = "vec_id",
              vec_col: str = "embedding") -> dict[int, int]:
    """Cosine-kNN component ranking (self excluded): doc_id -> rank.
    ``id_col`` names the embeddings' id column; ``knn_cosine`` returns
    those ids as ``vec_id`` whatever the input column is called."""
    from onestools_eventlog_ray.pipelines.similarity import knn_cosine
    qrow = emb_ds.filter(expr=f"{id_col} == {int(query_vec_id)}") \
        .select_columns([vec_col]).take_all()
    qvec = np.asarray(qrow[0][vec_col], dtype=np.float64)
    knn = knn_cosine(emb_ds, qvec, k=window, id_col=id_col,
                     vec_col=vec_col, exclude_ids={int(query_vec_id)})
    return {int(v): int(r) for v, r in
            zip(knn["vec_id"].to_pylist(), knn["rank"].to_pylist())}


def rrf_fuse(components: dict[str, dict[int, int]], k: int = 10,
             c: int = 60) -> pa.Table:
    """Generic reciprocal-rank fusion of named component rankings — the
    ES 8.14 ``retriever`` tree's ``rrf`` node over N children.

    Each child contributes ``1e9 // (c + rank)`` (integer-floored
    BEFORE the sum, so fusion is order-free and bit-reproducible); a
    doc absent from a child contributes 0.  Output columns: rank,
    doc_id, rrf_e9, then one nullable ``<name>_rank`` per component in
    the given order."""
    names = list(components)
    all_ids = sorted(set().union(*components.values())) if names else []
    fused = []
    for d in all_ids:
        ranks = [components[n].get(d) for n in names]
        s = sum(10 ** 9 // (c + r) for r in ranks if r is not None)
        fused.append((d, s, ranks))
    fused.sort(key=lambda x: (-x[1], x[0]))
    fused = fused[:k]
    cols = {
        "rank": pa.array(np.arange(1, len(fused) + 1), pa.int64()),
        "doc_id": pa.array([f[0] for f in fused], pa.int64()),
        "rrf_e9": pa.array([f[1] for f in fused], pa.int64()),
    }
    for j, n in enumerate(names):
        cols[f"{n}_rank"] = pa.array([f[2][j] for f in fused], pa.int64())
    return pa.table(cols)


def retriever_tree(eng, sparse_eng, emb_ds, terms: list[str],
                   sparse_weights: dict[str, int], query_vec_id: int,
                   k: int = 10, window: int = 50, c: int = 60,
                   id_col: str = "vec_id",
                   vec_col: str = "embedding") -> pa.Table:
    """The full ES 8.14+ retriever tree: rrf over THREE children —
    ``standard`` (BM25), ``knn`` (dense cosine) and ``sparse_vector``
    (impact dot-product) — each ranked over its own top-``window``.

    All three children run the engine's distributed paths; fusion
    itself is a driver-side fold over <= 3*window (doc, rank) pairs,
    exactly the rank-window contract ES imposes on rrf."""
    sp_hits = sparse_eng.search(sparse_weights, k=window)
    return rrf_fuse({
        "bm25": bm25_ranks(eng, terms, window),
        "knn": knn_ranks(emb_ds, query_vec_id, window,
                         id_col=id_col, vec_col=vec_col),
        "sparse": {int(d): r for r, (d, _) in enumerate(sp_hits, 1)},
    }, k=k, c=c)
