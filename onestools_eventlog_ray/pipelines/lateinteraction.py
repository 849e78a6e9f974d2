"""Late-interaction (ColBERT-style MaxSim) retrieval with a symbolic
token similarity — the "rank_vectors / multi-vector" ES retrieval
family re-expressed Ray-Data-first with no learned model.

ColBERT scores a query against a document as

    score(q, d) = sum_{t in q}  max_{s in d}  sim(t, s)

(per-query-token MAX over document tokens, then a SUM over query
tokens) instead of one dot product over pooled vectors.  Here the
"token embedding similarity" is a deterministic symbolic kernel —
e6-floored character-trigram Jaccard

    sim_e6(t, s) = (1_000_000 * |G(t) & G(s)|) // |G(t) | G(s)|,
    G(x) = set of length-3 substrings of x   (G(x) = {x} if |x| < 3)

— integer-exact, so the whole MaxSim path has a DuckDB oracle.  The
behavior it buys is the same one ColBERT buys: *soft* matching — the
query token ``vectors`` matches documents containing ``vector``
(sim 0.8) without any stemmer or fuzzy edit-distance pass.

Scale shape (the part that matters at 10^12 files):
- ONE streaming pass over the corpus, ZERO shuffles.  Documents are
  rows, so every token of a doc lives in the batch that holds the doc;
  the per-doc MAX and SUM complete inside ``map_batches``.
- The sim kernel is evaluated on the batch's distinct token TYPES
  (vocabulary-bounded, Heaps' law), never per token, and memoized in a
  per-worker type cache across batches (the reference's per-worker LGF
  dictionary-cache pattern, ``LgfReader.cs:18-25``) — query terms are
  broadcast once via the actor-pool constructor closure.
- The global top-k is a fold of per-batch top-k partials (docs are
  batch-disjoint, so partial top-ks are exact), O(num_batches * k)
  driver bytes.

Reference parity: the reference delegates ranking to ElasticSearch
(`/root/reference/OneSTools.EventLog.Exporter.Core/ElasticSearch/
ElasticSearchStorage.cs:217-236`); late interaction is the modern ES
``rank_vectors`` field type serving the same corpus.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from onestools_eventlog_ray.config import EngineConfig
from onestools_eventlog_ray.sources.corpus import (CODE_CORPUS_SPEC,
                                                   CorpusSpec, read_corpus)
from onestools_eventlog_ray.stages.tokenize import emit_triples


def trigrams(term: str) -> frozenset:
    """G(term): length-3 substring set; the term itself when shorter."""
    if len(term) < 3:
        return frozenset((term,))
    return frozenset(term[i:i + 3] for i in range(len(term) - 2))


def trigram_jaccard_e6(a: str, b: str) -> int:
    """e6-floored trigram Jaccard — pure-integer, oracle-identical:
    ``(1_000_000 * inter) // union``."""
    ga, gb = trigrams(a), trigrams(b)
    inter = len(ga & gb)
    if not inter:
        return 0
    return (1_000_000 * inter) // len(ga | gb)


class MaxSimScorer:
    """Actor-pool stage: documents batch -> (doc_id, maxsim_e6) rows.

    ``__init__`` (once per actor) stores the query-term gram sets;
    ``__call__`` tokenizes the batch, evaluates the sim kernel on the
    batch's distinct token types through a per-worker memo cache, and
    reduces MAX-per-(doc, query-term) then SUM-per-doc with
    ``np.maximum.at`` — no Python loop over tokens, only over types."""

    def __init__(self, query_terms: list[str], spec: CorpusSpec,
                 token_split_pattern: str):
        self.q = list(query_terms)
        self.spec = spec
        self.pattern = token_split_pattern
        self._sim_cache: dict[str, np.ndarray] = {}

    def _sims_for_types(self, types: list[str]) -> np.ndarray:
        """(n_types, n_qterms) int64 sim matrix, memoized per type."""
        out = np.empty((len(types), len(self.q)), dtype=np.int64)
        for i, t in enumerate(types):
            row = self._sim_cache.get(t)
            if row is None:
                row = np.asarray([trigram_jaccard_e6(qt, t)
                                  for qt in self.q], dtype=np.int64)
                self._sim_cache[t] = row
            out[i] = row
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        triples = emit_triples(batch, spec=self.spec,
                               token_split_pattern=self.pattern)
        if triples.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "maxsim_e6": pa.array([], pa.int64())})
        term_col = triples["term"]
        if isinstance(term_col, pa.ChunkedArray):
            term_col = term_col.combine_chunks()
        d = term_col.dictionary_encode()
        tidx = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        sims = self._sims_for_types(d.dictionary.to_pylist())  # types only
        doc_ids = triples["doc_id"].to_numpy(zero_copy_only=False)
        udocs, dinv = np.unique(doc_ids, return_inverse=True)
        # MAX per (doc, qterm): scatter-max the per-row sim vectors.
        mx = np.zeros((udocs.size, len(self.q)), dtype=np.int64)
        np.maximum.at(mx, dinv, sims[tidx])
        score = mx.sum(axis=1)
        keep = score > 0
        return pa.table({"doc_id": pa.array(udocs[keep], pa.int64()),
                         "maxsim_e6": pa.array(score[keep], pa.int64())})


def _topk_partial(k: int):
    def fn(batch: pa.Table) -> pa.Table:
        s = batch["maxsim_e6"].to_numpy(zero_copy_only=False)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -s))[:k]
        return pa.table({"doc_id": pa.array(ids[order], pa.int64()),
                         "maxsim_e6": pa.array(s[order], pa.int64())})
    return fn


def maxsim_topk(corpus_paths, query_terms: list[str], k: int = 10,
                spec: CorpusSpec = CODE_CORPUS_SPEC,
                cfg: EngineConfig = EngineConfig(),
                concurrency: int | None = None) -> pa.Table:
    """Top-k (rank, doc_id, maxsim_e6) by late-interaction MaxSim.

    Docs are batch-disjoint, so per-batch top-k partials are exact and
    the driver folds O(num_batches * k) rows."""
    ds = (read_corpus(corpus_paths, spec, with_meta=False)
          .map_batches(MaxSimScorer, batch_format="pyarrow",
                       concurrency=concurrency or (1, 8),
                       fn_constructor_kwargs=dict(
                           query_terms=query_terms, spec=spec,
                           token_split_pattern=cfg.token_split_pattern))
          .map_batches(_topk_partial(k), batch_format="pyarrow"))
    parts = ds.take_all()
    ids = np.asarray([r["doc_id"] for r in parts], dtype=np.int64)
    sc = np.asarray([r["maxsim_e6"] for r in parts], dtype=np.int64)
    order = np.lexsort((ids, -sc))[:k]
    return pa.table({
        "rank": pa.array(np.arange(1, order.size + 1), pa.int64()),
        "doc_id": pa.array(ids[order], pa.int64()),
        "maxsim_e6": pa.array(sc[order], pa.int64()),
    })


def query_term_expansions(corpus_paths, query_terms: list[str],
                          min_sim_e6: int = 1,
                          spec: CorpusSpec = CODE_CORPUS_SPEC,
                          cfg: EngineConfig = EngineConfig()) -> pa.Table:
    """The soft-match expansion table: (qterm, term, sim_e6) for every
    corpus vocabulary type with sim >= min_sim_e6 — what the MaxSim
    kernel "sees".  Vocabulary-bounded: distinct types are reduced
    per-batch, then a type-table groupby dedups across batches."""
    import ray.data

    def batch_types(batch: pa.Table) -> pa.Table:
        t = emit_triples(batch, spec=spec,
                         token_split_pattern=cfg.token_split_pattern)
        term_col = t["term"]
        if isinstance(term_col, pa.ChunkedArray):
            term_col = term_col.combine_chunks()
        u = term_col.unique()
        return pa.table({"term": u})

    vocab = (read_corpus(corpus_paths, spec, with_meta=False)
             .map_batches(batch_types, batch_format="pyarrow")
             .unique("term"))
    rows_q, rows_t, rows_s = [], [], []
    for t in sorted(vocab):
        for qt in query_terms:
            s = trigram_jaccard_e6(qt, t)
            if s >= min_sim_e6:
                rows_q.append(qt)
                rows_t.append(t)
                rows_s.append(s)
    return pa.table({"qterm": pa.array(rows_q, pa.string()),
                     "term": pa.array(rows_t, pa.string()),
                     "sim_e6": pa.array(rows_s, pa.int64())})


def rerank_by_maxsim(eng, terms: list[str], query_terms: list[str],
                     k: int = 10, window: int = 50,
                     token_split_pattern: str = r"[^a-z0-9_]+"
                     ) -> pa.Table:
    """ES 8.14 ``text_similarity_reranker`` retriever: first-stage BM25
    recalls a rank window, a second-stage model rescores it — here the
    "model" is the deterministic MaxSim trigram kernel, so the whole
    two-stage path stays oracle-exact.

    Stage 1 is the engine's bounded e6 top-``window`` (O(window) hits
    on the driver); stage 2 fetches ONLY those docs from the docstore
    (``fetch_docs``, the stored-fields lookup)
    and scores them with :func:`MaxSimScorer`'s kernel.  Final order:
    (maxsim_e6 desc, bm25 window rank asc as the deterministic tie —
    rerankers keep first-stage order among equals).
    -> (rank, doc_id, maxsim_e6, first_stage_rank)."""
    from onestools_eventlog_ray.functions.analyzer import tokenize_py
    hits = eng.search(terms, k=window, tie="e6")
    if not hits:
        return pa.table({"rank": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64()),
                         "maxsim_e6": pa.array([], pa.int64()),
                         "first_stage_rank": pa.array([], pa.int64())})
    ids = [int(d) for d, _ in hits]
    docs = eng.fetch_docs(ids, columns=["doc_id", "content"])
    sim_cache: dict[str, int] = {}

    def best(qt, types):
        m = 0
        for t in types:
            key = qt + "\x00" + t
            s = sim_cache.get(key)
            if s is None:
                s = trigram_jaccard_e6(qt, t)
                sim_cache[key] = s
            if s > m:
                m = s
        return m

    scored = []
    first_rank = {d: r for r, d in enumerate(ids, 1)}
    for did, text in zip(docs["doc_id"].to_pylist(),
                         docs["content"].to_pylist()):
        types = set(tokenize_py(text, token_split_pattern))
        s = sum(best(qt, types) for qt in query_terms)
        scored.append((did, s))
    scored.sort(key=lambda x: (-x[1], first_rank[x[0]]))
    scored = scored[:k]
    return pa.table({
        "rank": pa.array(np.arange(1, len(scored) + 1), pa.int64()),
        "doc_id": pa.array([d for d, _ in scored], pa.int64()),
        "maxsim_e6": pa.array([s for _, s in scored], pa.int64()),
        "first_stage_rank": pa.array([first_rank[d] for d, _ in scored],
                                     pa.int64()),
    })


def maxsim_topk_indexed(eng, query_terms: list[str], k: int = 10
                        ) -> pa.Table:
    """Index-accelerated MaxSim — rank-identical to :func:`maxsim_topk`
    but df-bounded instead of a full corpus scan.

    Late interaction with a symbolic kernel factorizes through the
    inverted index: score(q, d) depends only on WHICH vocabulary types
    d contains, and the index already knows that.  So:

    1. **Expand**: one distributed dictionary scan (``term`` column
       only, posting blobs pruned at the read) evaluates the trigram
       kernel per vocabulary TYPE and keeps terms with sim > 0 to any
       query term — a per-batch type loop, Heaps-bounded.
    2. **Gather**: the expansion terms' doc ordinals come from the
       engine's postings helper, through the same shard-pruned reads as
       every other query (df-bounded — content is never touched).
    3. **Score**: scatter-MAX each expansion term's sim into its
       posting's docs per query term, SUM across query terms, top-k
       with the engine's (score desc, doc_id asc) tie-break.

    Docs containing no expansion term score 0 and are absent — exactly
    :func:`maxsim_topk`'s ``score > 0`` contract, so both paths share
    one oracle.  This is the servable form: the streaming scan is the
    zero-index baseline, this is what a query node runs."""
    import ray.data

    def expand(batch: pa.Table) -> pa.Table:
        terms = batch["term"].to_pylist()
        rows_t, rows_q, rows_s = [], [], []
        for t in terms:                      # vocabulary-type loop
            for qi, qt in enumerate(query_terms):
                s = trigram_jaccard_e6(qt, t)
                if s > 0:
                    rows_t.append(t)
                    rows_q.append(qi)
                    rows_s.append(s)
        return pa.table({"term": pa.array(rows_t, pa.string()),
                         "qi": pa.array(rows_q, pa.int64()),
                         "sim_e6": pa.array(rows_s, pa.int64())})

    exp = (ray.data.read_parquet(os.path.join(eng.index_dir, "shards"),
                                 columns=["term"])
           .map_batches(expand, batch_format="pyarrow")
           .take_all())                      # kernel-hit types only
    by_term: dict[str, list[tuple[int, int]]] = {}
    for r in exp:
        by_term.setdefault(r["term"], []).append((int(r["qi"]),
                                                  int(r["sim_e6"])))
    z = np.empty(0, dtype=np.int64)
    all_ords, all_qi, all_sim = [z], [z], [z]
    # accumulate per-doc MAX per query term, df-bounded
    for t, (_, ords, _, _) in eng._term_postings(list(by_term)).items():
        for qi, s in by_term[t]:
            all_ords.append(ords)
            all_qi.append(np.full(ords.size, qi, np.int64))
            all_sim.append(np.full(ords.size, s, np.int64))
    uo, dinv = np.unique(np.concatenate(all_ords), return_inverse=True)
    mx = np.zeros((uo.size, len(query_terms)), dtype=np.int64)
    np.maximum.at(mx, (dinv, np.concatenate(all_qi)), np.concatenate(all_sim))
    score = mx.sum(axis=1)
    keep = (score > 0) & eng.live[uo]
    uids, score = eng.docs[uo[keep]], score[keep]
    order = np.lexsort((uids, -score))[:k]
    return pa.table({
        "rank": pa.array(np.arange(1, order.size + 1), pa.int64()),
        "doc_id": pa.array(uids[order], pa.int64()),
        "maxsim_e6": pa.array(score[order], pa.int64()),
    })
