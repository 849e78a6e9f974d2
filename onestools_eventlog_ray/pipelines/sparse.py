"""Learned-sparse ("impact") index + weighted-term dot-product query —
the ES 8.x ``sparse_vector`` / ``text_expansion`` retrieval surface
(ELSER-style serving) re-expressed Ray-Data-first.

The reference delegates all ranking to ElasticSearch over analyzed
``text`` fields (``/root/reference/OneSTools.EventLog.Exporter.Core/ElasticSearch/ElasticSearchStorage.cs:217-236``);
modern ES adds a second retrieval family on the same inverted layout:
per-document sparse term->weight vectors queried with weighted terms and
scored by a plain dot product.  Here the "expansion model" is the
deterministic impact function

    w(t, d) = floor( ln(1 + tf) * ln(1 + (N - df + 0.5)/(df + 0.5))
                     * 1e6 + 0.5 )            (an int64, "w_e6")

— SPLADE-like shape (log-saturated tf x idf) with no model weights, so
the whole path is oracle-exact in SQL.  Postings with ``w_e6 <
min_w_e6`` are dropped at build time (static impact pruning, the trick
that makes learned-sparse indexes servable: low-impact postings of
stopword-ish terms never hit disk).

Build = ONE pass over the corpus: ``map_batches`` triple emit (term,
doc_id, tf) -> ``groupby(pkey = hash(term) % P).map_groups`` shard
writer.  df per term is computed INSIDE the shard group — correct
because term-hash partitioning co-locates every posting of a term —
so no second stats shuffle is needed (n_docs is the only global, a
parquet-metadata count).  Query = shard-pruned parquet reads with a
``term IN`` row filter (same pruning rule as the BM25 shards,
``pipelines/query.py:87``), then an integer dot product
``score_e12 = sum(q_e6 * w_e6)`` — int64-exact, so engine and DuckDB
oracle can never diverge by float addition order.

100-TB shape: the shuffle payload is the narrow (term, doc_id, tf)
triple — content never shuffles; shards are immutable atomic parquet;
a query touches only ``len(distinct shard(term))`` files.  Pruned
postings shrink the index by the stopword mass (measured ~40-60% of
raw postings at the default threshold), which is the point of impact
pruning at scale.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from onestools_eventlog_ray.config import EngineConfig
from onestools_eventlog_ray.functions.bm25 import accumulate, doc_mask
from onestools_eventlog_ray.functions.hashing import (term_partition,
                                                      term_partition_one)
from onestools_eventlog_ray.sources.corpus import (CODE_CORPUS_SPEC,
                                                   CorpusSpec, read_corpus)
from onestools_eventlog_ray.stages.postings import TermShards
from onestools_eventlog_ray.stages.tokenize import emit_triples
from onestools_eventlog_ray.state.checkpoint import atomic_write_bytes
from onestools_eventlog_ray.state.tombstones import load_tombstones

DEFAULT_MIN_W_E6 = 200_000  # drop postings with impact < 0.2


def impact_w_e6(tf: np.ndarray, df: np.ndarray, n_docs: int) -> np.ndarray:
    """The deterministic expansion weight, quantized to int64 e6.

    Written exactly as the oracle SQL computes it —
    ``ln(1 + tf)`` (not log1p) and ``ln(1 + (N - df + 0.5)/(df + 0.5))``
    — so both sides perform the identical float64 op sequence."""
    tf = np.asarray(tf, dtype=np.float64)
    df = np.asarray(df, dtype=np.float64)
    idf = np.log(1.0 + (float(n_docs) - df + 0.5) / (df + 0.5))
    return np.floor(np.log(1.0 + tf) * idf * 1e6 + 0.5).astype(np.int64)


def _add_pkey(batch: pa.Table, *, num_partitions: int) -> pa.Table:
    term_col = batch["term"]
    if isinstance(term_col, pa.ChunkedArray):
        term_col = term_col.combine_chunks()
    d = term_col.dictionary_encode()
    idx = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    pkey = term_partition(d.dictionary, num_partitions)[idx]
    return batch.append_column(
        "pkey", pa.array(pkey.astype(np.int32), pa.int32()))


def _write_impact_shard(index_dir: str, n_docs: int, min_w_e6: int):
    def fn(group: pa.Table) -> pa.Table:
        pkey = int(group["pkey"][0].as_py())
        # df per term: one row per (doc, term) arrives, and term-hash
        # partitioning guarantees this group holds EVERY posting of its
        # terms, so a local count is the global df.
        term_col = group["term"]
        if isinstance(term_col, pa.ChunkedArray):
            term_col = term_col.combine_chunks()
        d = term_col.dictionary_encode()
        idx = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        df_per_code = np.bincount(idx, minlength=len(d.dictionary))
        tf = group["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
        w = impact_w_e6(tf, df_per_code[idx], n_docs)
        keep = w >= min_w_e6
        n_raw = group.num_rows
        kept = pa.table({
            "term": term_col.filter(pa.array(keep)),
            "doc_id": group["doc_id"].combine_chunks().filter(pa.array(keep))
            if isinstance(group["doc_id"], pa.ChunkedArray)
            else group["doc_id"].filter(pa.array(keep)),
            "w_e6": pa.array(w[keep], pa.int64()),
        }).sort_by([("term", "ascending"), ("doc_id", "ascending")])
        path = os.path.join(index_dir, "impacts",
                            f"impact-{pkey:05d}.parquet")
        atomic_write_bytes(path, lambda tmp: pq.write_table(kept, tmp))
        n_terms_kept = len(np.unique(idx[keep])) if keep.any() else 0
        return pa.table({
            "pkey": pa.array([pkey], pa.int64()),
            "n_raw": pa.array([n_raw], pa.int64()),
            "n_kept": pa.array([kept.num_rows], pa.int64()),
            "n_terms_kept": pa.array([n_terms_kept], pa.int64()),
        })
    return fn


def build_impact_index(corpus_paths, index_dir: str,
                       spec: CorpusSpec = CODE_CORPUS_SPEC,
                       cfg: EngineConfig = EngineConfig(),
                       min_w_e6: int = DEFAULT_MIN_W_E6) -> dict:
    """Build the impact sidecar under ``<index_dir>/impacts``.

    Idempotent: a complete build leaves ``_meta.json`` as the success
    marker; callers may skip when it exists (same marker convention as
    the positions sidecar, ``phrase.py:build_position_index``)."""
    ds = read_corpus(corpus_paths, spec, with_meta=False)
    n_docs = ds.count()  # parquet-metadata count: no data pass
    rows = (ds
            .map_batches(emit_triples, batch_format="pyarrow",
                         fn_kwargs=dict(
                             spec=spec,
                             token_split_pattern=cfg.token_split_pattern))
            .map_batches(_add_pkey, batch_format="pyarrow",
                         fn_kwargs=dict(num_partitions=cfg.num_partitions))
            .groupby("pkey")
            .map_groups(_write_impact_shard(index_dir, n_docs, min_w_e6),
                        batch_format="pyarrow")
            .take_all())
    meta = {
        "num_partitions": cfg.num_partitions,
        "min_w_e6": int(min_w_e6),
        "n_docs": int(n_docs),
        "n_raw_postings": int(sum(r["n_raw"] for r in rows)),
        "n_kept_postings": int(sum(r["n_kept"] for r in rows)),
        "n_terms_kept": int(sum(r["n_terms_kept"] for r in rows)),
    }
    atomic_write_bytes(os.path.join(index_dir, "impacts", "_meta.json"),
                       lambda tmp: open(tmp, "w").write(json.dumps(meta)))
    return meta


class SparseEngine:
    """Weighted-term (sparse-vector) queries over the impact sidecar."""

    def __init__(self, index_dir: str):
        self.dir = os.path.join(index_dir, "impacts")
        with open(os.path.join(self.dir, "_meta.json")) as f:
            self.meta = json.load(f)
        self.P = int(self.meta["num_partitions"])
        # the sidecar's own sorted doc_ids are the ordinal space, as a
        # sidecar may stand alone, without a BM25 index and its docstore;
        # soft-deleted doc_ids are masked like every BM25 path
        files = sorted(glob.glob(os.path.join(self.dir, "impact-*.parquet")))
        self.docs = np.unique(pq.read_table(files, columns=["doc_id"])[
            "doc_id"].to_numpy().astype(np.int64)) if files \
            else np.empty(0, dtype=np.int64)
        self.deleted = load_tombstones(index_dir)
        self.live = ~doc_mask(self.docs, self.deleted)
        self._shards = TermShards(os.path.join(self.dir,
                                               "impact-{:05d}.parquet"))

    def load_terms(self, terms: list[str]) -> dict[str, tuple]:
        """term -> (doc_ids int64[], w_e6 int64[]); each term is read
        from the one sidecar file it hashes to, through the engine's
        term probe (``stages.postings.TermShards``)."""
        by_shard: dict[int, list[str]] = {}
        for t in terms:
            by_shard.setdefault(term_partition_one(t, self.P), []).append(t)
        out: dict[str, tuple] = {}
        for pkey, ts in by_shard.items():
            tbl = self._shards.read(pkey, ts)
            if tbl is None or tbl.num_rows == 0:
                continue
            terms_np = np.asarray(tbl["term"].to_pylist())
            ids = tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            ws = tbl["w_e6"].to_numpy(zero_copy_only=False).astype(np.int64)
            for t in ts:
                m = terms_np == t
                if m.any():
                    out[t] = (ids[m], ws[m])
        return out

    def search(self, query_weights: dict[str, int], k: int = 10
               ) -> list[tuple[int, int]]:
        """Top-k docs by ``score_e12 = sum_t q_e6[t] * w_e6[t, d]``,
        tie-break (score desc, doc_id asc), tombstoned docs masked.
        Terms are accumulated in sorted order; int64 arithmetic makes
        order irrelevant anyway."""
        loaded = self.load_terms(sorted(query_weights))
        ords, scores = accumulate(
            [(np.searchsorted(self.docs, ids), ws * np.int64(query_weights[t]))
             for t, (ids, ws) in loaded.items()], self.live)
        uids = self.docs[ords]
        order = np.lexsort((uids, -scores))[:k]
        return [(int(uids[i]), int(scores[i])) for i in order]


def sparse_topk_table(index_dir: str, query_weights: dict[str, int],
                      k: int = 10) -> pa.Table:
    """(rank, doc_id, score_e12) table for the oracle compare."""
    hits = SparseEngine(index_dir).search(query_weights, k)
    return pa.table({
        "rank": pa.array(np.arange(1, len(hits) + 1), pa.int64()),
        "doc_id": pa.array([d for d, _ in hits], pa.int64()),
        "score_e12": pa.array([s for _, s in hits], pa.int64()),
    })


def impact_stats_table(index_dir: str) -> pa.Table:
    """Build-report row: raw/kept/pruned posting counts + kept vocab."""
    with open(os.path.join(index_dir, "impacts", "_meta.json")) as f:
        m = json.load(f)
    return pa.table({
        "n_postings": pa.array([m["n_raw_postings"]], pa.int64()),
        "n_kept": pa.array([m["n_kept_postings"]], pa.int64()),
        "n_pruned": pa.array([m["n_raw_postings"]
                              - m["n_kept_postings"]], pa.int64()),
        "n_terms_kept": pa.array([m["n_terms_kept"]], pa.int64()),
    })
