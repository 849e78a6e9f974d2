"""Seeded inputs of the benchmark: query streams and the delete set.

Every function here is a pure function of its seed (and, for the query
streams, of the corpus vocabulary), so one seed gives the same inputs on
every run.  The engine only ever receives what these functions return.
"""

from __future__ import annotations

import numpy as np
import pyarrow.compute as pc
import pyarrow.parquet as pq

from onestools_eventlog_ray import synth
from onestools_eventlog_ray.functions.analyzer import tokenize_array
from onestools_eventlog_ray.sources.corpus import CODE_CORPUS_SPEC
from onestools_eventlog_ray.stages.normalize import add_doc_id

#: The query_hot mix draws its Zipf terms from the synth vocabulary ranks
#: below this; with the keywords it stays under the engine's 256-entry
#: decoded-weight cache, so warm hot queries do no shard reads or decodes.
HOT_ZIPF_RANKS = 200
#: Ranks in [HOT_ZIPF_RANKS, COLD_MIN_RANK) warm the query_cold path
#: without touching the terms its stream draws from.
COLD_MIN_RANK = 500
DELETE_SHARE = 0.01


def read_corpus_table(path: str):
    """(doc_ids, contents, content bytes) of a written corpus, with the
    engine's own doc_id rule."""
    tbl = pq.read_table(path, columns=list(CODE_CORPUS_SPEC.read_cols()))
    ids = add_doc_id(tbl, CODE_CORPUS_SPEC)["doc_id"].to_numpy()
    content = tbl[CODE_CORPUS_SPEC.content_col]
    nbytes = int(pc.sum(pc.binary_length(content)).as_py())
    return ids, content, nbytes


def present_terms(content) -> set[str]:
    """Distinct analyzer tokens of the corpus content."""
    return set(pc.unique(tokenize_array(content).flatten()).to_pylist())


def hot_keywords() -> list[str]:
    """Per-language boilerplate and license words: df is a large share of N."""
    kws = {w for ws in synth.LANG_KEYWORDS.values() for w in ws}
    return sorted(kws | set(synth.LICENSE_LINE.split()))


def hot_queries(seed: int, n: int) -> list[list[str]]:
    """1-2 keywords plus 1-2 of the most frequent Zipf terms per query."""
    rng = np.random.default_rng([seed, 1])
    kws = hot_keywords()
    zipf = synth.make_vocab()[:HOT_ZIPF_RANKS]
    out = []
    for _ in range(n):
        a = rng.choice(len(kws), size=int(rng.integers(1, 3)), replace=False)
        b = rng.choice(len(zipf), size=int(rng.integers(1, 3)), replace=False)
        out.append([kws[i] for i in a] + [zipf[i] for i in b])
    return out


def cold_queries(seed: int, present: set[str]) -> list[list[str]]:
    """A seeded permutation of every mid/rare corpus term, cut into 1-3
    term queries: each term appears once, so a stream longer than the
    engine's term cache never re-reads a cached term."""
    rng = np.random.default_rng([seed, 2])
    vocab = synth.make_vocab()
    pool = [t for t in vocab[COLD_MIN_RANK:] if t in present]
    pool = [pool[i] for i in rng.permutation(len(pool))]
    out, i = [], 0
    while i < len(pool):
        k = int(rng.integers(1, 4))
        out.append(pool[i:i + k])
        i += k
    return out


def cold_warmup_queries(seed: int, present: set[str], n: int) -> list[list[str]]:
    """Queries over ranks the cold stream never draws from."""
    rng = np.random.default_rng([seed, 3])
    vocab = synth.make_vocab()
    mid = [t for t in vocab[HOT_ZIPF_RANKS:COLD_MIN_RANK] if t in present]
    return [[mid[j] for j in rng.choice(len(mid), size=2, replace=False)]
            for _ in range(n)]


def serve_queries(seed: int, present: set[str], n_hot: int) -> list[list[str]]:
    """query_hot and query_cold streams interleaved one for one."""
    hot, cold = hot_queries(seed, n_hot), cold_queries(seed, present)
    return [q for pair in zip(hot, cold) for q in pair]


def delete_ids(seed: int, doc_ids: np.ndarray) -> np.ndarray:
    """About DELETE_SHARE of the corpus, sorted."""
    rng = np.random.default_rng([seed, 4])
    n = max(1, round(DELETE_SHARE * len(doc_ids)))
    return np.sort(rng.choice(np.asarray(doc_ids), size=n, replace=False))


def distinct_terms(queries: list[list[str]]) -> int:
    return len({t for q in queries for t in q})
