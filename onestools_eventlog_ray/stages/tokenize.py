"""Tokenize stage — documents in, (term, doc_id, tf, dl) triples out.

The Dataset-API form of the index build's tokenize step (SURVEY.md §7.1
step 3), shared by the sparse and late-interaction builds.  The body is
Arrow kernels + Acero group_by only.
"""

from __future__ import annotations

import pyarrow as pa

from onestools_eventlog_ray.functions.analyzer import doc_term_table
from onestools_eventlog_ray.sources.corpus import CorpusSpec
from onestools_eventlog_ray.stages.normalize import add_doc_id


def emit_triples(batch: pa.Table, *, spec: CorpusSpec,
                 token_split_pattern: str) -> pa.Table:
    """``map_batches`` UDF: corpus batch -> (term, doc_id, tf, dl) triples.

    There is no heavy per-worker state here (the pattern is a string), so
    plain tasks beat an actor pool: they reuse Ray's prestarted worker
    processes across ALL stages instead of paying a pool spin-up per
    stage — measured ~5s of fixed wall per pool on this workload."""
    b = add_doc_id(batch, spec)
    triples, _ = doc_term_table(b["doc_id"], b["content"], token_split_pattern)
    return triples
