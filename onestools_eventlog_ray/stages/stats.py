"""Corpus-stats rollup — partial-aggregate pattern, no shuffle.

The analog of the stats ElasticSearch keeps internally for BM25 (df, N,
avgdl — delegated by the reference, SURVEY.md §2.6 A3).  Each batch is
reduced to ONE partial row inside ``map_batches`` (combiner), and the
driver folds the tiny partials — total rows moved across the cluster =
number of batches, never the corpus.  The xor-rollup fingerprint is
commutative, so the result is independent of batch order / parallelism.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data


def partial_stats(batch: pa.Table) -> pa.Table:
    """docstore batch -> one partial row (count, tokens, max id, sha xor).

    Uses the SAME vectorized doc_id-mixed rollup (``hashing.rollup_acc``)
    as the build's map task (``stages/exchange.py``)
    so a fingerprint recomputed from the docstore after a lost stats
    manifest matches the one the build recorded — resume stays valid.
    """
    from onestools_eventlog_ray.functions.hashing import rollup_acc

    n = batch.num_rows
    n_tokens = batch["n_tokens"].to_numpy(zero_copy_only=False)
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    acc = rollup_acc(batch["content_sha256"], doc_ids)
    return pa.table({
        "n_docs": pa.array([n], pa.int64()),
        "total_tokens": pa.array([int(n_tokens.sum())], pa.int64()),
        "max_doc_id": pa.array([int(doc_ids.max()) if n else -1], pa.int64()),
        "sha_xor": pa.array([np.int64(acc - (1 << 63))], pa.int64()),
    })


def fold_stats(partials: list[dict]) -> dict:
    n_docs = sum(p["n_docs"] for p in partials)
    total_tokens = sum(p["total_tokens"] for p in partials)
    max_doc = max((p["max_doc_id"] for p in partials), default=-1)
    acc = 0
    for p in partials:
        acc ^= int(p["sha_xor"]) + (1 << 63)
    return {
        "n_docs": int(n_docs),
        "total_tokens": int(total_tokens),
        "avgdl": (total_tokens / n_docs) if n_docs else 0.0,
        "max_doc_id": int(max_doc),
        "fingerprint": f"{n_docs}:{acc:016x}",
    }


def corpus_stats_from_docstore(docstore_path: str) -> dict:
    """Aggregate the docstore's 3 narrow columns (column-pruned read)."""
    ds = ray.data.read_parquet(
        docstore_path, columns=["doc_id", "n_tokens", "content_sha256"])
    partials = ds.map_batches(partial_stats, batch_format="pyarrow").take_all()
    return fold_stats(partials)
