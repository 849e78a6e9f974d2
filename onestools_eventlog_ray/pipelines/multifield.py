"""Multi-field BM25 — per-field postings with per-field boosts.

The reference's search surface is THREE analyzed text fields
(``comment``, ``data``, ``dataPresentation`` —
``/root/reference/OneSTools.EventLog.Exporter.Core/ElasticSearch/ElasticSearchStorage.cs:217,227,231``);
ES keeps one inverted index PER FIELD and combines per-field scores.
Same design here: each field is built as its own index under
``<root>/field-<name>`` (own postings, own df/avgdl — field statistics
are per-field in ES/Lucene too), and the query-time score is

    score(doc) = sum_f boost_f * BM25_f(doc)

Per-field accumulation order is deterministic (fields ascending, then
the engine's sorted-term TAAT), so results are exactly reproducible by
a SQL oracle computing the same per-field BM25 and weighted sum.

Scale shape: fields build independently (one corpus read each — they
could share a read, but field builds are embarrassingly parallel and
resume independently per field), and a query probes only the shards its
terms hash to in each field's index, exactly like the single-field path.
"""

from __future__ import annotations

import os

import numpy as np

from onestools_eventlog_ray.config import EngineConfig
from onestools_eventlog_ray.functions.bm25 import (accumulate, doc_mask,
                                                   pick_topk)
from onestools_eventlog_ray.pipelines.build import build_index
from onestools_eventlog_ray.pipelines.query import SearchEngine
from onestools_eventlog_ray.sources.corpus import CorpusSpec


def field_dir(root: str, field: str) -> str:
    return os.path.join(root, f"field-{field}")


def build_multifield_index(corpus_paths, root: str, fields: list[str],
                           id_col: str = "doc_id",
                           cfg: EngineConfig = EngineConfig()) -> dict:
    """One index per analyzed field.  Returns {field: build report}."""
    reports = {}
    for f in fields:
        spec = CorpusSpec(content_col=f, id_col=id_col, key_cols=(id_col,),
                          meta_cols=())
        reports[f] = build_index(corpus_paths, field_dir(root, f),
                                 spec=spec, cfg=cfg)
    return reports


class MultiFieldEngine:
    """BM25 over several analyzed fields with per-field boosts:
    ``boosts = {"text": 1.0, "source": 2.0}``.  Tombstones of each
    field index apply (they share doc_ids)."""

    def __init__(self, root: str, boosts: dict[str, float]):
        self.boosts = dict(boosts)
        self.engines = {f: SearchEngine(field_dir(root, f))
                        for f in sorted(boosts)}
        # the union of the fields' doc_ids is the ordinal space; each
        # field's scores arrive with its own tombstones already masked
        self.docs = np.unique(np.concatenate(
            [e.docs for e in self.engines.values()]))
        self.live = np.ones(self.docs.size, dtype=bool)

    def search(self, terms: list[str], k: int = 10,
               tie: str = "float") -> list[tuple[int, float]]:
        """-> [(doc_id, combined score)], (score desc, doc_id asc).
        A doc matching in ANY field is a candidate (ES multi_match /
        bool-should semantics)."""
        parts = []
        for f in sorted(self.engines):           # deterministic field order
            ids_f, sc_f = self.engines[f]._taat_arrays(terms)
            parts.append((np.searchsorted(self.docs, ids_f),
                          self.boosts[f] * sc_f))
        ords, scores = accumulate(parts, self.live)
        uids = self.docs[ords]
        idx = pick_topk(tie)(scores, uids, k)
        return [(int(uids[i]), float(scores[i])) for i in idx]


def search_best_fields(eng: MultiFieldEngine, terms: list[str],
                       k: int = 10, tie_breaker: float = 0.0,
                       tie: str = "float") -> list[tuple[int, float]]:
    """ES ``multi_match`` type=best_fields: per doc,

        score = max_f (boost_f * bm25_f)
              + tie_breaker * (sum_f boost_f * bm25_f - max_f ...)

    — dis_max ACROSS FIELDS (the cross-field sibling of
    :func:`onestools_eventlog_ray.pipelines.query.search_dsl`'s
    per-term dis_max).  Same per-field posting reads as
    :meth:`MultiFieldEngine.search`; the max/sum fold is one
    np.maximum.at / np.add.at pass.  Deterministic field order keeps
    float sums oracle-reproducible."""
    ids_parts, w_parts = [], []
    for f in sorted(eng.engines):
        ids_f, sc_f = eng.engines[f]._taat_arrays(terms)
        if ids_f.size:
            ids_parts.append(ids_f)
            w_parts.append(eng.boosts[f] * sc_f)
    if not ids_parts:
        return []
    all_ids = np.concatenate(ids_parts)
    all_w = np.concatenate(w_parts)
    uids, inverse = np.unique(all_ids, return_inverse=True)
    sums = np.zeros(uids.size, dtype=np.float64)
    np.add.at(sums, inverse, all_w)
    maxs = np.full(uids.size, -np.inf, dtype=np.float64)
    np.maximum.at(maxs, inverse, all_w)
    scores = maxs + tie_breaker * (sums - maxs)
    idx = pick_topk(tie)(scores, uids, k)
    return [(int(uids[i]), float(scores[i])) for i in idx]


def search_combined_fields(eng: MultiFieldEngine, terms: list[str],
                           k: int = 10, tie: str = "float"
                           ) -> list[tuple[int, float]]:
    """ES ``combined_fields`` query — TERM-centric multi-field BM25
    (Lucene CombinedFieldQuery / simplified BM25F), the third
    multi-field semantics next to :meth:`MultiFieldEngine.search`
    (sum of per-field scores) and :func:`search_best_fields`
    (dis_max): all fields are fused into one pseudo-field FIRST, then
    BM25 is scored once —

        tf_c(d,t)  = sum_f w_f * tf_f(d,t)
        dl_c(d)    = sum_f w_f * dl_f(d)
        avgdl_c    = sum_f w_f * avgdl_f
        df_c(t)    = |union_f docs_f(t)|   (distinct docs, any field)
        score(d)   = sum_t idf(N, df_c) * tf_c*(k1+1)
                       / (tf_c + k1*(1-b+b*dl_c/avgdl_c))

    Per-term postings come from the same df-bounded shard loads as
    every other query; the per-field doc LENGTH for candidate docs
    (needed even for fields where the term is absent) comes from each
    field's docstore fetch — O(candidates), never a corpus
    scan (Lucene stores combined norms at index time; recomputing from
    stored per-field norms is the equivalent read).  Field fold order
    is sorted-field, term fold order sorted-term — deterministic for
    the SQL oracle."""
    from onestools_eventlog_ray.functions.bm25 import idf as idf_fn

    fields = sorted(eng.engines)
    e0 = eng.engines[fields[0]]
    N, k1, b = e0.N, e0.k1, e0.b
    avgdl_c = 0.0
    for f in fields:
        avgdl_c += eng.boosts[f] * eng.engines[f].avgdl

    # each field's postings on the union ordinals; a doc tombstoned in
    # any field is not live (the fields share doc_ids)
    post: dict[tuple[str, str], tuple] = {}
    live = np.ones(eng.docs.size, dtype=bool)
    for f in fields:
        e = eng.engines[f]
        for t, (_, o, tfs, _) in e._term_postings(terms).items():
            post[(f, t)] = (np.searchsorted(eng.docs, e.docs[o]), tfs)
        live &= ~doc_mask(eng.docs, e.deleted)
    cand = np.zeros(eng.docs.size, dtype=bool)
    for o, _ in post.values():
        cand[o] = True
    all_ids = eng.docs[cand & live]
    if all_ids.size == 0:
        return []

    dl_c = np.zeros(eng.docs.size, dtype=np.float64)
    for f in fields:
        tbl = eng.engines[f].fetch_docs(all_ids.tolist(),
                                        ["doc_id", "n_tokens"])
        got = tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ntk = tbl["n_tokens"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        dl_c[np.searchsorted(eng.docs, got)] += eng.boosts[f] * ntk

    denom_dl = k1 * (1.0 - b + b * dl_c / avgdl_c)
    scores = np.zeros(eng.docs.size, dtype=np.float64)
    matched = np.zeros(eng.docs.size, dtype=bool)
    for t in sorted(set(terms)):
        tf_c = np.zeros(eng.docs.size, dtype=np.float64)
        seen = np.zeros(eng.docs.size, dtype=bool)
        for f in fields:
            if (f, t) not in post:
                continue
            o, tfs = post[(f, t)]
            ok = live[o]
            tf_c[o[ok]] += eng.boosts[f] * tfs[ok]
            seen[o[ok]] = True
        df_c = int(seen.sum())
        if df_c == 0:
            continue
        w = idf_fn(N, df_c)
        m = seen
        scores[m] += (w * tf_c[m] * (k1 + 1.0)
                      / (tf_c[m] + denom_dl[m]))
        matched |= m
    ids_m, sc_m = eng.docs[matched], scores[matched]
    idx = pick_topk(tie)(sc_m, ids_m, k)
    return [(int(ids_m[i]), float(sc_m[i])) for i in idx]
