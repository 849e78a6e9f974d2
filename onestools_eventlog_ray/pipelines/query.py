"""BM25 top-k query path: shard-pruned posting reads, the exact TAAT
scorer, and a Ray batch stage for query batches.

The reference delegates this entirely to ElasticSearch's query engine
over its ``text``-analyzed fields
(``/root/reference/OneSTools.EventLog.Exporter.Core/ElasticSearch/ElasticSearchStorage.cs:200-236``);
here it is built from the shards:

- a query touches ONLY the shards its terms hash to (partition pruning —
  the J4 lookup of SURVEY.md §2.5), and in each shard only the 128-term
  row group whose term range holds the term: shards stay open, with
  their row-group term ranges resident (``stages.postings.TermShards``);
- TAAT (term-at-a-time) scoring is the only scorer: float64, per-doc
  accumulation in sorted-unique-term order through the shared
  :func:`~onestools_eventlog_ray.functions.bm25.accumulate` kernel,
  tie-break ``(score desc, doc_id asc)`` — rank-identical to the
  brute-force oracle.

``score_queries`` runs query batches as ``map_batches`` tasks, each
scoring through the ``SearchEngine`` its worker process keeps open
(``functions.runtime.worker_engine``).
"""

from __future__ import annotations

import functools
import operator
import os
from collections import OrderedDict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from onestools_eventlog_ray.functions import codec
from onestools_eventlog_ray.functions.bm25 import (accumulate, doc_mask,
                                                   idf as idf_fn, pick_topk,
                                                   score_floor, term_weights,
                                                   top_weights, topk_order_e6)
from onestools_eventlog_ray.functions.hashing import term_partition_one
from onestools_eventlog_ray.stages.postings import TermShards
from onestools_eventlog_ray.state import checkpoint as ckpt

_TERM_CACHE_MAX = 4096


def where_expr(where: dict) -> pads.Expression:
    """The predicate of a ``where`` dict, the one builder of the
    metadata-filter convention: ``{column: scalar}`` is equality,
    ``{column: (lo, hi)}`` an inclusive range, and clauses are ANDed in
    column order (an empty dict is true)."""
    exprs = [(pads.field(c) >= v[0]) & (pads.field(c) <= v[1])
             if isinstance(v, tuple) else pads.field(c) == v
             for c, v in sorted(where.items())]
    return functools.reduce(operator.and_, exprs) if exprs \
        else pads.scalar(True)


def _verify_refill(eng, ids: np.ndarray, scores: np.ndarray, where: dict,
                   k: int, tie: str = "float") -> list[tuple[int, float]]:
    """The top ``k`` of the match arrays ``(ids, scores)`` whose
    docstore row satisfies ``where`` (:func:`where_expr`), in
    ``pick_topk(tie)`` order.

    Candidates are verified in descending order, one chunk at a time:
    each chunk is the ``pick_topk`` top of the candidates not yet
    verified, its size starts at max(4k, 64) and grows 4x per round (a
    selective predicate needs fewer rounds), and each verify is one
    ``fetch_docs`` of doc_id + the predicate columns."""
    pick = pick_topk(tie)
    expr = where_expr(where)
    out: list[tuple[int, float]] = []
    chunk = max(4 * k, 64)
    while ids.size and len(out) < k:
        idx = pick(scores, ids, chunk)
        part_ids, part_scores = ids[idx].tolist(), scores[idx].tolist()
        rest = np.ones(ids.size, dtype=bool)
        rest[idx] = False
        ids, scores = ids[rest], scores[rest]
        chunk *= 4
        tbl = eng.fetch_docs(part_ids, columns=["doc_id"] + list(where))
        ok = set(tbl.filter(expr)["doc_id"].to_pylist())
        out.extend(h for h in zip(part_ids, part_scores) if h[0] in ok)
    return out[:k]


class DocStore:
    """The docstore parts of one or more index dirs (a generational
    root's picked generations), each opened once as a
    ``pq.ParquetFile``: the stored-fields reader of
    :class:`SearchEngine`, like the ES node's open segments
    (``ElasticSearchStorage.cs:245-256``).

    At open each part's ``doc_id`` column is read through its handle.
    ``docs`` is their sorted distinct doc_ids (the engine's ordinals);
    each ordinal keeps its rows' positions in the parts concatenated in
    dir order, then name order, which the row-group row offsets map to
    (part, row group, row).  A doc_id held by two parts keeps both
    rows, in part order.

    The handles are a snapshot: a part deleted or replaced on disk after
    open is still read as it was opened.  After :meth:`close` a read
    raises (pyarrow's ``ArrowInvalid``, a ``ValueError``) rather than
    reopen parts that may have changed; open a new engine instead.

    :meth:`union` joins open stores (a root's leaves) into one that
    reads through their handles: no part is opened or read twice, and
    closing the joined stores closes it."""

    def __init__(self, index_dirs: list[str]):
        import glob
        files = [pq.ParquetFile(f) for d in index_dirs
                 for f in sorted(glob.glob(
                     os.path.join(d, "docstore", "*.parquet")))]
        self._build(files, [
            pf.read(columns=["doc_id"], use_threads=False)["doc_id"]
            .to_numpy().astype(np.int64) for pf in files])

    @classmethod
    def union(cls, stores: list[DocStore]) -> DocStore:
        """One store over the parts of ``stores``, in ``stores`` order,
        sharing their open handles and doc_id columns."""
        self = cls.__new__(cls)
        self._build([pf for s in stores for pf in s._files],
                    [s._row_doc_ids() for s in stores])
        return self

    def _row_doc_ids(self) -> np.ndarray:
        """The doc_id of every row, in row position order."""
        ids = np.empty(self._rows.size, dtype=np.int64)
        ids[self._rows] = np.repeat(self.docs, np.diff(self._start))
        return ids

    def _build(self, files: list, ids: list[np.ndarray]) -> None:
        """Map the rows of the open parts ``files``, whose doc_id
        columns are ``ids``, to ordinals."""
        self._files = files
        ids = np.concatenate([np.empty(0, np.int64)] + ids)
        # the parts' schema; an index with no docstore part has doc_id only
        self.schema = self._files[0].schema_arrow if self._files \
            else pa.schema([("doc_id", pa.int64())])
        self._groups = [(pf, g) for pf in self._files
                        for g in range(pf.metadata.num_row_groups)]
        # first row of each row group, and the total, in row positions
        self._group_start = np.cumsum([0] + [
            pf.metadata.row_group(g).num_rows for pf, g in self._groups])
        # row positions by (doc_id, position); ordinal o's rows are
        # _rows[_start[o]:_start[o + 1]]
        self._rows = np.argsort(ids, kind="stable")
        ids = ids[self._rows]
        first = np.ones(ids.size, dtype=bool)
        first[1:] = ids[1:] != ids[:-1]
        self._start = np.append(np.flatnonzero(first), ids.size)
        self.docs = ids[first]

    def take(self, ords: np.ndarray, columns: list[str] | None = None
             ) -> pa.Table:
        """The rows of the docs at the distinct ordinals ``ords``, in
        ``ords`` order: one ``read_row_group`` of ``columns`` (all when
        None) and one ``take`` per row group that holds any of them."""
        lo = self._start[ords]
        n = self._start[ords + 1] - lo
        # lo[i], lo[i] + 1, ..., lo[i] + n[i] - 1 for each i, in order
        rows = self._rows[np.arange(n.sum()) + np.repeat(lo - np.cumsum(n)
                                                         + n, n)]
        # read in row order, one group at a time; `back` restores ords order
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        g = np.searchsorted(self._group_start, rows, side="right") - 1
        cut = np.flatnonzero(np.diff(g, prepend=-1))
        tbls = []
        for s, e in zip(cut, np.append(cut[1:], rows.size)):
            pf, i = self._groups[g[s]]
            tbls.append(pf.read_row_group(i, columns=columns,
                                          use_threads=False)
                        .take(rows[s:e] - self._group_start[g[s]]))
        back = np.empty_like(order)
        back[order] = np.arange(order.size)
        return pa.concat_tables(tbls).take(back)

    def doc_ids_where(self, where: dict) -> np.ndarray:
        """doc_id of every row that satisfies ``where``
        (:func:`where_expr`), reading doc_id + the predicate columns of
        each part."""
        cols, expr = list(dict.fromkeys(["doc_id", *where])), where_expr(where)
        return np.concatenate([np.empty(0, np.int64)] + [
            pf.read(columns=cols, use_threads=False).filter(expr)["doc_id"]
            .to_numpy().astype(np.int64) for pf in self._files])

    def close(self) -> None:
        for pf in self._files:
            pf.close()


class SearchEngine:
    """BM25 over one index directory or a generational root, with open
    shards and posting caches — the stateful-scorer analog of the
    reference's sticky ES node state (``ElasticSearchStorage.cs:245-256``).

    A ``path`` with ``stats.json`` is one index, and ``engines`` is
    ``[self]``.  Any other ``path`` is a root of generations
    (``pipelines.incremental``): ``engines`` holds one leaf engine per
    generation of ``gen_dirs`` (default all), scored as one index over
    the union of their docs, as Lucene's composite reader scores its
    segment leaves.  N, ``total_tokens`` and df are sums over the
    leaves, ``avgdl`` their N-weighted mean, and ``k1``/``b`` the first
    leaf's; :meth:`use_stats` swaps in a caller's global stats.

    At open it opens the docstore of every picked dir
    (:class:`DocStore`; a root joins its leaves' stores, so each part is
    opened once), whose sorted distinct doc_ids are ``docs``, and
    builds the ``live`` mask from the tombstones of ``path`` and of each
    leaf.  A leaf's ``_cache`` holds raw ``(df, blob)`` per term, None
    for a term with no posting; ``_w_cache`` holds each hot term's
    ``(doc ordinals, BM25 weights)``, an ordinal being the doc's
    position in ``docs``, and its largest weights, so a warm query is
    one dense accumulate cut at a score floor and a top-k cut over the
    few docs above it.

    One lookup rule serves every query family:

    - a term's postings come from every leaf in generation order
      (:meth:`_posting`) as ONE part, so sums run terms-major as over
      a single index; its doc ordinals come from the weight cache
      (:meth:`_term_parts`), and set algebra over terms (must, should,
      must_not, every-term, minimum-should-match counts) is boolean or
      ``np.bincount`` masks over the ordinals (:meth:`_hits`);
    - a caller that needs tf or dl gets ``(df, ordinals, tfs, dls)``
      from :meth:`_term_postings`, the only decode besides the cache
      fill, and one that needs df alone gets :meth:`df_of`;
    - tombstones are the ``live`` mask; doc_ids from outside the
      postings (requested ids, docstore reads) pass through it too
      (:meth:`fetch_docs`, :meth:`allowed_doc_ids`).

    Results map back to doc_ids through ``docs[ordinals]`` at the edge.

    Snapshot rule: every read of the engine goes through a file it
    opened, and reads that file until :meth:`close`.  The docstore parts
    are opened at engine open (stored fields, metadata predicates), each
    term shard at its first probe (term loads, prefix expansion).  A file
    replaced or deleted on disk under an open engine (a rebuild's atomic
    rename or its wipe of ``docstore/``), or a generation added after
    open, is not seen; the engine answers from the files it opened, and
    cached terms from its caches.  Open a new engine to see a rewritten
    index."""

    def __init__(self, path: str, gen_dirs: list[str] | None = None):
        from onestools_eventlog_ray.state.tombstones import load_tombstones
        self.index_dir = path
        self._leaves: list[SearchEngine] = []
        if os.path.exists(ckpt.stats_path(path)):
            if gen_dirs is not None:
                raise ValueError(f"{path} is an index, not a root of "
                                 "generations")
            dirs = [path]
            stats = ckpt.read_stats(path)
            # a wrong-layout read probes the wrong shard and silently
            # returns partial results (round-2 ADVICE, medium)
            ckpt.check_layout(stats, path)
            self.N = stats["n_docs"]
            self.avgdl = stats["avgdl"]
            # exact corpus token count (Σ dl) — the collection-model
            # denominator for the LM/DFI similarity modules (search_lm)
            self.total_tokens = int(stats.get("total_tokens", 0))
            self.P = stats["num_partitions"]
            bm = stats["config"]["bm25"]
            self.k1, self.b = bm["k1"], bm["b"]
            self._shards = TermShards(os.path.join(path, "shards",
                                                   "part-{:05d}.parquet"))
            self._cache: OrderedDict[str, tuple[int, bytes] | None] = \
                OrderedDict()
        else:
            from onestools_eventlog_ray.pipelines.incremental import \
                list_generations
            dirs = list_generations(path)
            if gen_dirs is not None:
                unknown = set(gen_dirs) - set(dirs)
                if unknown:
                    raise ValueError(f"not generations of {path}: "
                                     f"{sorted(unknown)}")
                dirs = [d for d in dirs if d in gen_dirs]
            if not dirs:
                raise FileNotFoundError(f"no index or generations under "
                                        f"{path}")
            self._leaves = [SearchEngine(d) for d in dirs]
            self.N = sum(e.N for e in self._leaves)
            self.avgdl = sum(e.avgdl * e.N for e in self._leaves) / self.N \
                if self.N else 0.0
            self.total_tokens = sum(e.total_tokens for e in self._leaves)
            self.k1, self.b = self._leaves[0].k1, self._leaves[0].b
        # the docstores' sorted doc_ids: a posting's doc ordinal is its
        # position here
        self._docstore = DocStore.union([e._docstore for e in self._leaves]) \
            if self._leaves else DocStore(dirs)
        self.docs = self._docstore.docs
        # soft-deleted doc_ids (sorted): masked from every result path;
        # stats stay those of the built index (ES soft-delete semantics)
        self.deleted = np.unique(np.concatenate(
            [load_tombstones(path)] + [e.deleted for e in self._leaves]))
        # term -> df that replaces the leaves' summed df (use_stats)
        self._df: dict[str, int] = {}
        # decoded ((doc ordinals, weights), top_weights) per term: weights
        # depend only on the engine's fixed stats, so repeated queries on
        # hot terms skip the varint decode, the BM25 weight math and the
        # ordinal lookup entirely
        self._w_cache: OrderedDict[str, tuple] = OrderedDict()

    @property
    def engines(self) -> list[SearchEngine]:
        """The leaf engines that hold the postings, in generation order:
        ``[self]`` for one index dir (Lucene's ``leaves()``)."""
        return self._leaves or [self]

    @property
    def deleted(self) -> np.ndarray:
        """Sorted tombstoned doc_ids; assigning them rebuilds ``live``,
        the accumulator's mask of docs that may be returned."""
        return self._deleted

    @deleted.setter
    def deleted(self, ids: np.ndarray) -> None:
        self._deleted = ids
        self.live = ~doc_mask(self.docs, ids)

    def close(self) -> None:
        """Close the open shard files (a later probe reopens them) and
        the docstore parts (a later docstore read raises
        ``ValueError``), of this engine and of its leaves."""
        for e in self._leaves:
            e.close()       # a root's docstore reads through its leaves'
        if not self._leaves:
            self._shards.close()
            self._docstore.close()

    def stats(self) -> tuple[int, float, dict[str, int]]:
        """(N, Σ avgdl·N, {term: df}) over the leaves, the inputs of a
        caller's :meth:`use_stats`.  Reads the shards' ``term`` and
        ``df`` columns through the open shard handles that scoring
        reads, so df and postings come from one file snapshot."""
        df: dict[str, int] = {}
        for e in self.engines:
            for pkey in range(e.P):
                tbl = e._shards.read(pkey, None, ["term", "df"])
                if tbl is None:
                    continue
                for t, n in zip(tbl["term"].to_pylist(),
                                tbl["df"].to_pylist()):
                    df[t] = df.get(t, 0) + n
        return (sum(e.N for e in self.engines),
                sum(e.avgdl * e.N for e in self.engines), df)

    def use_stats(self, N: int, avgdl: float, df: dict[str, int]) -> None:
        """Score under a caller's global stats from now on, ES's DFS
        phase done once: ``N`` and ``avgdl`` replace the engine's, and
        ``df`` replaces the leaves' summed df of each term it holds.
        The weight cache is cleared."""
        self.N, self.avgdl, self._df = N, avgdl, df
        self._w_cache.clear()

    # ---- posting access -------------------------------------------------

    def load_terms(self, terms: list[str]) -> dict[str, tuple[int, bytes]]:
        """term -> (df, posting blob) of each term with a posting in
        this one index dir (a leaf's read; a root reads through
        :meth:`_posting`).  A term missing from ``_cache`` is read from
        the one shard it hashes to, and from that shard only the row
        group whose term range holds it (``stages.postings.TermShards``)."""
        out: dict[str, tuple[int, bytes]] = {}
        missing_by_shard: dict[int, list[str]] = {}
        for t in terms:
            if t in self._cache:
                self._cache.move_to_end(t)
                hit = self._cache[t]
                if hit is not None:
                    out[t] = hit
            else:
                missing_by_shard.setdefault(
                    term_partition_one(t, self.P), []).append(t)
        for pkey, ts in missing_by_shard.items():
            found: dict[str, tuple[int, bytes]] = {}
            tbl = self._shards.read(pkey, ts, ["term", "df", "posting"])
            if tbl is not None:
                for term, df, blob in zip(tbl["term"].to_pylist(),
                                          tbl["df"].to_pylist(),
                                          tbl["posting"].to_pylist()):
                    found[term] = (int(df), blob)
            for t in ts:
                self._cache[t] = found.get(t)
                if len(self._cache) > _TERM_CACHE_MAX:
                    self._cache.popitem(last=False)
                if t in found:
                    out[t] = found[t]
        return out

    def _posting(self, t: str, per_leaf: list[dict]
                 ) -> tuple[int, list[bytes]] | None:
        """``(df, posting blobs)`` of term ``t`` from each leaf's
        :meth:`load_terms` result in ``per_leaf``, None without a
        posting: the blobs in generation order, df summed over the
        leaves unless :meth:`use_stats` set it."""
        hits = [ld[t] for ld in per_leaf if t in ld]
        if hits:
            return (self._df.get(t) or sum(df for df, _ in hits),
                    [blob for _, blob in hits])
        return None

    def df_of(self, terms: list[str]) -> dict[str, int]:
        """term -> df of each of ``terms`` with a posting, under the
        engine's stats (the idf input of term selection and term
        vectors)."""
        per_leaf = [e.load_terms(terms) for e in self.engines]
        return {t: hit[0] for t in terms
                if (hit := self._posting(t, per_leaf)) is not None}

    def search_and(self, terms: list[str], k: int = 10,
                   tie: str = "float") -> list[tuple[int, float]]:
        """Conjunctive BM25: only documents containing ALL query terms
        (ES bool-must semantics); scores identical to :meth:`search` on
        the surviving documents.  A term with no posting -> no results."""
        uniq = sorted(set(terms))
        parts = self._term_parts(uniq)
        if len(parts) < len(uniq):
            return []
        ords, scores = accumulate(parts, self.live)
        every = np.bincount(np.concatenate([o for o, _ in parts]),
                            minlength=self.docs.size) == len(uniq)
        keep = every[ords]                  # present in every posting
        ids, scores = self.docs[ords[keep]], scores[keep]
        idx = pick_topk(tie)(scores, ids, k)
        return [(int(ids[i]), float(scores[i])) for i in idx]

    def search_synonyms(self, groups: list[list[str]], k: int = 10
                        ) -> list[tuple[int, int]]:
        """ES query-time synonym expansion (``synonym_graph`` token
        filter semantics, Lucene ``SynonymQuery``): each group of
        surface forms scores as ONE logical term — postings are merged
        (tf summed per doc), and a SINGLE BM25 contribution uses the
        union's df.  A group's absent surfaces simply contribute no
        postings.  Per-group contributions are e6-quantized BEFORE the
        per-doc sum (integer fixed-point, order-safe), so the DuckDB
        oracle — which canonicalizes tokens through the same synonym
        map — matches bit-for-bit.

        -> [(doc_id, score_e6)] by (score_e6 desc, doc_id asc), top k."""
        posts = self._term_postings([t for g in groups for t in g])
        parts = []
        for g in groups:
            got = [posts[t] for t in sorted(set(g)) if t in posts]
            if not got:
                continue
            uo, first, inv = np.unique(np.concatenate([p[1] for p in got]),
                                       return_index=True, return_inverse=True)
            tf = np.zeros(uo.size, dtype=np.int64)
            np.add.at(tf, inv, np.concatenate([p[2] for p in got]))
            dls = np.concatenate([p[3] for p in got])[first]
            w = idf_fn(self.N, uo.size) \
                * codec.bm25_impact(tf, dls, self.avgdl, self.k1, self.b)
            parts.append((uo, np.maximum(
                np.floor(w * 1_000_000 + 0.5).astype(np.int64), 0)))
        ords, score = accumulate(parts, self.live)
        uids = self.docs[ords]
        order = np.lexsort((uids, -score))[:k]
        return [(int(uids[i]), int(score[i])) for i in order]

    def terms_set_matches(self, terms: list[str], k: int = 20,
                          msm_mod: int = 3) -> list[tuple[int, int, int]]:
        """ES ``terms_set`` query with a per-document
        ``minimum_should_match_field``: a doc matches when it contains
        at least ``msm(doc)`` distinct query terms, where the required
        count is a stored per-doc field — derived here as
        ``1 + doc_id % msm_mod`` (this corpus has no such column; the
        derivation is the documented stand-in, reproduced by the SQL
        oracle).  Pure postings math: per-doc distinct-term counts from
        the unioned postings, a vectorized modular threshold, no text
        access.  -> [(doc_id, n_matched, msm_required)] ordered by
        (n_matched desc, doc_id asc), top k."""
        n = self._hits(terms)
        hit = np.flatnonzero(n)
        uids, counts = self.docs[hit], n[hit]
        msm = 1 + (uids % msm_mod)
        m = counts >= msm
        uids, counts, msm = uids[m], counts[m], msm[m]
        order = np.lexsort((uids, -counts))[:k]
        return [(int(uids[i]), int(counts[i]), int(msm[i]))
                for i in order]

    def search_text(self, query: str, k: int = 10) -> list[tuple[int, float]]:
        """Free-text query: run the SAME analyzer over the query string
        (ES analyzes queries with the field's analyzer), then score."""
        from onestools_eventlog_ray.functions.analyzer import tokenize_py
        return self.search(tokenize_py(query), k)

    # ---- docstore fetch -------------------------------------------------

    def fetch_docs(self, doc_ids, columns: list[str] | None = None
                   ) -> pa.Table:
        """Docstore rows of ``doc_ids`` in the order requested — the
        stored-fields lookup ES does for search hits.  Ids that are not
        live docs of the index are dropped, and a repeated id keeps its
        first place.  Reads ``columns`` (all when None) of only the row
        groups that hold a requested doc, through the engine's open
        :class:`DocStore`; nothing to return gives those columns,
        empty, with their docstore types."""
        req = np.fromiter(doc_ids, dtype=np.int64)
        ords = np.searchsorted(self.docs, req)
        ok = ords < self.docs.size
        ok[ok] = (self.docs[ords[ok]] == req[ok]) & self.live[ords[ok]]
        ords = ords[ok]
        ords = ords[np.sort(np.unique(ords, return_index=True)[1])]
        if not ords.size:
            schema = self._docstore.schema
            return schema.empty_table().select(columns or schema.names)
        return self._docstore.take(ords, columns)

    def allowed_doc_ids(self, where: dict) -> np.ndarray:
        """Live doc_ids, ascending, whose docstore row satisfies
        ``where`` (:func:`where_expr`: scalar = equality, ``(lo, hi)`` =
        inclusive range) — the metadata-filter side of a filtered search.
        Only doc_id and the predicate columns are read, from the
        engine's open docstore parts."""
        return self.docs[doc_mask(self.docs, self._docstore.doc_ids_where(
            where)) & self.live]

    def search_filtered(self, terms: list[str], where: dict,
                        k: int = 10, tie: str = "float"
                        ) -> list[tuple[int, float]]:
        """BM25 restricted to docs matching the metadata predicate —
        ES keyword-filter + text-query composition
        (``ElasticSearchStorage.cs:200-236``).  Filter context: scores
        use GLOBAL corpus stats; the predicate only gates which docs may
        appear (exactly like an ES ``bool.filter`` clause).

        Score-then-verify refill: the match arrays come from one TAAT
        pass (:meth:`_taat_arrays`), and :func:`_verify_refill` checks
        them against the predicate in descending ``tie`` order, one
        bounded top-chunk at a time.  The candidates stay numpy arrays;
        only a chunk's ids become Python ints or reach the docstore."""
        ids, scores = self._taat_arrays(terms)
        return _verify_refill(self, ids, scores, where, k, tie)

    def search_with_docs(self, terms: list[str], k: int = 10,
                         columns: list[str] | None = None) -> pa.Table:
        """search() + stored fields: one table (rank, score, doc columns)."""
        hits = self.search(terms, k)
        docs = self.fetch_docs([d for d, _ in hits], columns)
        return docs.add_column(0, "rank",
                               pa.array(range(1, docs.num_rows + 1), pa.int64())) \
                   .add_column(1, "score",
                               pa.array([s for _, s in hits][:docs.num_rows],
                                        pa.float64()))

    # ---- exact TAAT scorer ----------------------------------------------

    def _term_parts(self, uniq: list[str], tops: list | None = None
                    ) -> list[tuple]:
        """``(doc ordinals, weights)`` of each term of ``uniq`` that has
        a posting, in ``uniq`` order, through the decoded-weight cache:
        one part per term, its leaves' postings joined in generation
        order.  A cache entry also keeps the term's
        :func:`~onestools_eventlog_ray.functions.bm25.top_weights`,
        appended to ``tops`` in part order when it is given."""
        per_leaf = [e.load_terms(uniq) for e in self.engines]
        parts = []
        for t in uniq:
            cached = self._w_cache.get(t)
            if cached is not None:
                self._w_cache.move_to_end(t)
            elif (hit := self._posting(t, per_leaf)) is not None:
                idf_t = idf_fn(self.N, hit[0])
                ids, w = (np.concatenate(c) for c in zip(*(
                    term_weights(blob, idf_t, self.avgdl, self.k1, self.b)
                    for blob in hit[1])))
                ords = np.searchsorted(self.docs, ids)
                cached = self._w_cache[t] = ((ords, w), top_weights(ords, w))
                if len(self._w_cache) > 256:
                    self._w_cache.popitem(last=False)
            else:
                continue
            parts.append(cached[0])
            if tops is not None:
                tops.append(cached[1])
        return parts

    def _hits(self, terms: list[str]) -> np.ndarray:
        """How many of the distinct ``terms`` each doc ordinal holds, 0
        at docs that are not ``live``, from the weight cache's ordinals:
        ``> 0`` is the any-term set, ``== len(set(terms))`` the
        every-term set."""
        ords = [o for o, _ in self._term_parts(sorted(set(terms)))]
        return np.bincount(np.concatenate([np.empty(0, np.int64)] + ords),
                           minlength=self.docs.size) * self.live

    def _term_postings(self, terms: list[str]) -> dict[str, tuple]:
        """term -> ``(df, doc ordinals, tfs, dls)`` of each of ``terms``
        with a posting, in sorted term order: the one decode for callers
        that need tf or dl."""
        uniq = sorted(set(terms))
        per_leaf = [e.load_terms(uniq) for e in self.engines]
        out = {}
        for t in uniq:
            hit = self._posting(t, per_leaf)
            if hit is not None:
                posts = [codec.decode_posting(blob) for blob in hit[1]]
                out[t] = (hit[0], np.searchsorted(self.docs, np.concatenate(
                    [p.doc_ids for p in posts])),
                    np.concatenate([p.tfs for p in posts]),
                    np.concatenate([p.dls for p in posts]))
        return out

    def _taat_arrays(self, terms: list[str],
                     allowed: np.ndarray | None = None,
                     excluded: np.ndarray | None = None, k: int = 0
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Full df-bounded TAAT accumulation -> (doc_ids, scores) numpy
        arrays, doc_ids ascending.  The shared scoring core of every
        scorer variant: keeps the O(matches) intermediate as two flat
        arrays — never a Python list of tuples — so only the final O(k)
        cut ever becomes Python objects.  ``allowed`` and ``excluded``
        narrow the live mask; their ids that are not in the index are
        ignored.  With ``k`` the arrays hold the top k in either ``tie``
        mode and may miss the other matches: those under the query's
        :func:`~onestools_eventlog_ray.functions.bm25.score_floor` over
        the same live mask."""
        live = self.live
        if allowed is not None:
            live = live & doc_mask(self.docs, allowed)
        if excluded is not None and excluded.size:
            live = live & ~doc_mask(self.docs, excluded)
        tops: list = []
        # sorted term order == oracle order
        parts = self._term_parts(sorted(set(terms)), tops)
        ords, scores = accumulate(parts, live, score_floor(tops, live, k))
        return self.docs[ords], scores

    def search(self, terms: list[str], k: int = 10, tie: str = "float", *,
               allowed: np.ndarray | None = None,
               excluded: np.ndarray | None = None
               ) -> list[tuple[int, float]]:
        """-> [(doc_id, score)], (score desc, doc_id asc), len <= k.
        ``allowed``: optional sorted doc_id whitelist applied BEFORE the
        top-k cut (metadata filter context); ``excluded``: optional
        doc_id blacklist (bool-must_not / MLT self-exclusion).
        ``tie="e6"`` ranks on the quantized ``floor(score*1e6+0.5)``
        integer with (e6 desc, doc_id asc) tie-break — the exact key the
        SQL oracles sort on — so callers needing oracle-exact ranks ask
        for k=10 instead of pulling the full match list.

        The top-k cut sees only the matches at or above the query's
        score floor (:meth:`_taat_arrays` with ``k``), a lower bound of
        the k-th score from the terms' cached largest weights; for k up
        to ``bm25.TOP_WEIGHTS`` a hot query hands it tens of candidates,
        and without a bound it sees every match."""
        uids, scores = self._taat_arrays(terms, allowed, excluded, k)
        idx = pick_topk(tie)(scores, uids, k)
        return list(zip(uids[idx].tolist(), scores[idx].tolist()))

    def search_bool_prefix(self, terms: list[str], prefix: str,
                           k: int = 10, max_expansions: int = 50,
                           tie: str = "float") -> list[tuple[int, float]]:
        """ES ``match_bool_prefix`` — the search-as-you-type query: a
        bool SHOULD of term queries over the complete words plus a
        ``prefix`` query on the final, partially-typed word.  The term
        clauses keep BM25; the prefix clause uses Lucene's
        constant-score multi-term rewrite (+1.0 for any doc matching
        >= 1 of the first ``max_expansions`` dictionary expansions in
        term order) — multi-term queries never invent per-expansion
        IDF in ES either.

        Expansions come from the query-time dictionary read
        (:func:`expand_prefix_terms`, through the engine's open shards);
        expansion postings load via the same shard-pruned term reads
        as every query.  Either clause may be empty (prefix-only or
        no-expansion searches degrade gracefully)."""
        ords, base = accumulate(self._term_parts(sorted(set(terms))),
                                self.live)
        match = self._hits(expand_prefix_terms(self, prefix,
                                               max_expansions)) > 0
        scores = match.astype(np.float64)
        scores[ords] += base
        match[ords] = True
        sel = np.flatnonzero(match)
        uids, scores = self.docs[sel], scores[sel]
        idx = pick_topk(tie)(scores, uids, k)
        return [(int(uids[i]), float(scores[i])) for i in idx]

    def search_not(self, terms: list[str], exclude_terms: list[str],
                   k: int = 10, tie: str = "float") -> list[tuple[int, float]]:
        """Boolean must / must_not: BM25 over ``terms``, dropping every
        document that contains ANY of ``exclude_terms`` (ES bool-must_not
        semantics; scores are those of the positive terms only).  The
        exclusion set is the union of the negative terms' postings,
        masked out of ``live`` before the accumulate."""
        ords, scores = accumulate(self._term_parts(sorted(set(terms))),
                                  self.live & (self._hits(exclude_terms) == 0))
        ids = self.docs[ords]
        idx = pick_topk(tie)(scores, ids, k)
        return list(zip(ids[idx].tolist(), scores[idx].tolist()))

    def search_boosting(self, terms: list[str], negative_terms: list[str],
                        negative_boost: float = 0.5,
                        k: int = 10, tie: str = "float"
                        ) -> list[tuple[int, float]]:
        """ES ``boosting`` query: positive BM25, but documents matching
        ANY negative term are DEMOTED (score x ``negative_boost``), not
        excluded — the soft counterpart of :meth:`search_not`.  The
        demotion set is the union of the negative terms' postings, a
        mask over the doc ordinals; because demotion can reorder the
        tail, the cut happens after the multiply.  ``negative_boost``
        should be a dyadic rational (0.5, 0.25) so the float product is
        exact and the e6-ranked oracle matches bit-for-bit."""
        ords, scores = accumulate(self._term_parts(sorted(set(terms))),
                                  self.live)
        scores = np.where(self._hits(negative_terms)[ords] > 0,
                          scores * negative_boost, scores)
        ids = self.docs[ords]
        idx = pick_topk(tie)(scores, ids, k)
        return [(int(ids[i]), float(scores[i])) for i in idx]

    def _field_scored(self, terms: list[str], field: str, k: int,
                      tie: str, combine) -> list[tuple[int, float]]:
        """Top ``k`` of ``combine(bm25, v)`` over the docs matching
        ``terms``, ``v`` being each match's docstore ``field`` as
        float64: one :meth:`fetch_docs` of the MATCHING docs only, never
        a corpus scan."""
        ids, base = self._taat_arrays(terms)
        v = self.fetch_docs(ids, ["doc_id", field])[field] \
            .cast(pa.float64()).to_numpy(zero_copy_only=False)
        scores = combine(base, v)
        idx = pick_topk(tie)(scores, ids, k)
        return [(int(ids[i]), float(scores[i])) for i in idx]

    def search_function_score(self, terms: list[str],
                              field: str = "n_chars",
                              k: int = 10, tie: str = "float"
                              ) -> list[tuple[int, float]]:
        """ES ``function_score`` with ``field_value_factor`` (modifier
        ``none``): score = BM25 x doc[``field``], the factor read for
        the matching docs only (:meth:`_field_scored`).  int64 field x
        float64 score is one IEEE multiply, deterministic on both engine
        and oracle sides."""
        return self._field_scored(terms, field, k, tie,
                                  lambda s, v: s * v)

    def search_rank_feature(self, terms: list[str],
                            field: str = "n_chars",
                            pivot: float = 500.0, boost: float = 1.5,
                            k: int = 10, tie: str = "float"
                            ) -> list[tuple[int, float]]:
        """ES ``rank_feature`` query with the ``saturation`` function in
        a bool ``should`` next to the text query: score = BM25 +
        boost * v / (v + pivot) where v = doc[``field``].  Like
        :meth:`search_function_score`, the feature value is read only
        for MATCHING docs — the feature side is O(matches), never a
        corpus scan (ES reads it from the _feature pseudo-postings the
        same way).  saturation is one IEEE divide + add, deterministic
        for the oracle."""
        return self._field_scored(terms, field, k, tie,
                                  lambda s, v: s + boost * (v / (v + pivot)))

    def search_distance_feature(self, terms: list[str],
                                field: str = "n_chars",
                                origin: float = 1000.0,
                                pivot: float = 500.0, boost: float = 2.0,
                                k: int = 10, tie: str = "float"
                                ) -> list[tuple[int, float]]:
        """ES ``distance_feature`` query in a bool ``should`` next to
        the text query: score = BM25 + boost * pivot / (pivot +
        |v - origin|) where v = doc[``field``] — boosts docs whose
        numeric/date field sits NEAR an origin (recency boost is the
        canonical use).  Feature values are read only for MATCHING
        docs, O(matches) like :meth:`search_rank_feature`; the decay is
        one abs + divide, deterministic for the oracle."""
        return self._field_scored(
            terms, field, k, tie,
            lambda s, v: s + boost * (pivot / (pivot + np.abs(v - origin))))

    def search_gauss_decay(self, terms: list[str],
                           field: str = "n_chars",
                           origin: float = 500.0, scale: float = 200.0,
                           decay: float = 0.5, k: int = 10,
                           tie: str = "float") -> list[tuple[int, float]]:
        """ES ``function_score`` with a MULTIPLICATIVE ``gauss`` decay
        (the other composition mode next to the additive
        rank_feature/distance_feature family): score = BM25 ·
        exp(ln(decay) · (|v − origin| / scale)²) — at distance
        ``scale`` from ``origin`` the text score is multiplied by
        exactly ``decay`` (ES's gauss definition with offset 0).
        Feature values are read only for MATCHING docs, O(matches); the
        decay is composed as exp(ln(decay)·x·x) on BOTH sides so the SQL
        oracle evaluates the identical float expression."""
        def gauss(s, v):
            x = np.abs(v - origin) / scale
            return s * np.exp(np.log(decay) * x * x)
        return self._field_scored(terms, field, k, tie, gauss)

    def search_lm(self, terms: list[str], k: int = 10,
                  similarity: str = "lm_dirichlet",
                  mu: float = 2000.0, lam: float = 0.1
                  ) -> list[tuple[int, int]]:
        """ES ``similarity`` module swap: in ES the per-field similarity
        is an index setting (``BM25`` default, ``LMDirichlet``,
        ``LMJelinekMercer``, ``DFI``) and the SAME inverted index serves
        whichever model is configured.  This is that swap for this
        engine: alternate probabilistic relevance models ranked from the
        postings (tf, dl per entry) plus one extra corpus stat the
        manifest already carries (``total_tokens`` = Σ dl, the
        collection-model denominator) — no extra corpus pass, same
        shard-pruned term lookups as :meth:`search`.

        Models (Lucene analogs, per MATCHED (term, doc) entry; cf_t =
        Σ tf over the term's posting, p_t = cf_t / total_tokens):

        - ``lm_dirichlet``:  ln(1 + tf/(μ·p_t)) + ln(μ/(dl+μ))
          (LMDirichletSimilarity, Zhai & Lafferty smoothing)
        - ``lm_jm``:         ln(1 + ((1-λ)/λ)·(tf/dl)/p_t)
          (LMJelinekMercerSimilarity)
        - ``dfi``:           (tf − e)/sqrt(e),  e = dl·cf_t/total_tokens
          (DFISimilarity, standardized independence measure)
        - ``dfr_inl2``:      tfn/(tfn+1) · log2((N+1)/(df+0.5)),
          tfn = tf·log2(1 + avgdl/dl)  (DFRSimilarity, basic model
          I(n), after-effect L, normalization H2 with c=1)

        Every contribution is clamped at ≥ 0 (Lucene clamps negative
        term scores) and e6-quantized BEFORE the per-doc sum, so scores
        are int64, addition-order independent and bit-identical to the
        SQL oracle (same fixed-point design as ``text.lm_scores``).
        -> [(doc_id, score_e6)], (score_e6 desc, doc_id asc), len <= k.
        Cost is df-bounded like TAAT; soft-deleted docs are masked, stats
        stay global (ES soft-delete semantics)."""
        if not self.total_tokens:
            raise ValueError("index stats lack total_tokens; rebuild")
        T = self.total_tokens
        parts = []
        for _, ords, tf, dl in self._term_postings(terms).values():
            cf_t = int(tf.sum())
            p = cf_t / T                      # one double divide == oracle
            tfs = tf.astype(np.float64)
            dls = dl.astype(np.float64)
            if similarity == "lm_dirichlet":
                val = np.log(1.0 + tfs / (mu * p)) + np.log(mu / (dls + mu))
            elif similarity == "lm_jm":
                coef = (1.0 - lam) / lam
                val = np.log(1.0 + coef * (tfs / dls) / p)
            elif similarity == "dfi":
                e = (dl * cf_t).astype(np.float64) / T
                val = (tfs - e) / np.sqrt(e)
            elif similarity == "dfr_inl2":
                tfn = tfs * np.log2(1.0 + self.avgdl / dls)
                val = tfn / (tfn + 1.0) \
                    * np.log2((self.N + 1.0) / (ords.size + 0.5))
            elif similarity == "ib_ll":
                # IBSimilarity(DistributionLL, LambdaDF, H2 c=1):
                # lambda = (df+1)/(N+1), tfn = tf*log2(1+avgdl/dl),
                # score = ln((tfn + lambda)/lambda)
                lam_df = (ords.size + 1.0) / (self.N + 1.0)
                tfn = tfs * np.log2(1.0 + self.avgdl / dls)
                val = np.log((tfn + lam_df) / lam_df)
            else:
                raise ValueError(f"unknown similarity {similarity!r}")
            parts.append((ords, np.maximum(
                np.floor(val * 1_000_000 + 0.5).astype(np.int64), 0)))
        ords, scores = accumulate(parts, self.live)
        uids = self.docs[ords]
        order = np.lexsort((uids, -scores))[:k]
        return [(int(uids[i]), int(scores[i])) for i in order]

    def more_like_this(self, doc_id: int, n_terms: int = 5,
                       k: int = 10, tie: str = "float"
                       ) -> tuple[list[str],
                                  list[tuple[int, float]]]:
        """ES more_like_this: fetch the source doc's stored content,
        re-analyze it, pick its top ``n_terms`` terms by tf×idf (idf from
        the INDEX stats — one shard-pruned df lookup, no corpus pass),
        then run a BM25 search on those terms excluding the source doc.
        Tie-breaks (tfidf desc, term asc) are deterministic, so the
        DuckDB oracle reproduces the exact term selection and ranking.
        -> (selected_terms, hits)."""
        from collections import Counter
        from onestools_eventlog_ray.functions.analyzer import tokenize_py
        doc = self.fetch_docs([doc_id], columns=["doc_id", "content"])
        if doc.num_rows == 0:
            return [], []
        tf = Counter(tokenize_py(doc["content"][0].as_py()))
        scored = [(-(tf[t] * idf_fn(self.N, df)), t)
                  for t, df in self.df_of(sorted(tf)).items()]
        sel = [t for _, t in sorted(scored)[:n_terms]]
        return sel, self.search(sel, k, tie=tie,
                                excluded=np.asarray([doc_id], np.int64))


# --------------------------------------------------------------------------
# Ray batch query stage
# --------------------------------------------------------------------------

#: optional per-query DSL columns of a query batch (see _score_batch)
_DSL_OPTS = ("msm", "mode", "tie_breaker", "boosts")


def _score_batch(batch: pa.Table, *, index_dir: str, k: int,
                 tie: str) -> pa.Table:
    """map_batches body: a batch of (query_id, terms[, k, msm, mode,
    tie_breaker, boosts]) -> top-k (query_id, rank, doc_id, score) rows
    from this worker's cached :class:`SearchEngine`.

    Every row runs :func:`search_dsl` (with no DSL column it is
    :meth:`SearchEngine.search`, bit for bit); ``k`` is the cut of rows
    with no ``k`` value.  "msm" is minimum_should_match, "mode"
    "sum"/"max", "tie_breaker" the dis_max factor and "boosts" a JSON
    term -> boost map."""
    import json
    from onestools_eventlog_ray.functions.runtime import (pin_worker_threads,
                                                          worker_engine)
    from onestools_eventlog_ray.state.tombstones import tombstone_dir
    pin_worker_threads()
    # the listing of index_dir sees a generation added under a root
    eng = worker_engine(SearchEngine, index_dir,
                        (index_dir, ckpt.stats_path(index_dir),
                         tombstone_dir(index_dir)))
    n = batch.num_rows
    opts = [batch[c].to_pylist() if c in batch.column_names else [None] * n
            for c in ("k",) + _DSL_OPTS]
    qids, ranks, doc_ids, scores = [], [], [], []
    for qid, terms, row_k, msm, mode, tb, boosts in zip(
            batch["query_id"].to_pylist(), batch["terms"].to_pylist(),
            *opts):
        hits = search_dsl(
            eng, list(terms), int(k if row_k is None else row_k),
            boosts=json.loads(boosts) if boosts else None,
            minimum_should_match=int(msm) if msm is not None else 1,
            mode=mode or "sum",
            tie_breaker=float(tb) if tb is not None else 0.0, tie=tie)
        for rank, (doc_id, score) in enumerate(hits, 1):
            qids.append(qid)
            ranks.append(rank)
            doc_ids.append(doc_id)
            scores.append(score)
    return pa.table({
        "query_id": pa.array(qids, pa.int64()),
        "rank": pa.array(ranks, pa.int64()),
        "doc_id": pa.array(doc_ids, pa.int64()),
        "score": pa.array(scores, pa.float64()),
    })


def score_queries(index_dir: str, queries, k: int = 10,
                  batch_size: int = 8, tie: str = "float"):
    """Queries (list[dict] or Dataset with query_id/terms[/k]) -> Dataset
    of (query_id, rank, doc_id, score); ``k`` is the cut of queries that
    carry none.  Batches run as stateless tasks over one engine per
    worker process (``runtime.worker_engine``): no pool spin-up inside
    the serving window, and the engine's shard and weight caches stay
    warm from one call to the next.  A small ``batch_size`` spreads a
    small query batch across the workers."""
    import ray.data
    if not isinstance(queries, ray.data.Dataset):
        rows = []
        for q in queries:
            row = {"query_id": q["query_id"], "terms": list(q["terms"]),
                   "k": int(q.get("k", k))}
            # optional DSL knobs ride along (see _score_batch)
            for opt in _DSL_OPTS:
                if q.get(opt) is not None:
                    row[opt] = q[opt]
            rows.append(row)
        # uniform keys per block: if ANY query carries a DSL knob, give
        # every row the column (None elsewhere) so Arrow sees one schema
        opts_used = {o for r in rows for o in _DSL_OPTS if o in r}
        for r in rows:
            for o in opts_used:
                r.setdefault(o, None)
        queries = ray.data.from_items(rows)
    return queries.map_batches(_score_batch, batch_format="pyarrow",
                               batch_size=batch_size,
                               fn_kwargs=dict(index_dir=index_dir, k=k,
                                              tie=tie))


def prefix_term_stats(index_dir: str, prefix: str):
    """Wildcard/prefix query support (ES ``prefix``/``wildcard``): scan
    the index's term DICTIONARY for terms starting with ``prefix`` and
    return (term, df, cf) — a distributed ``read_parquet`` over the
    shard files with a range filter (``prefix <= term < prefix⁺``)
    pushed to parquet row groups, never touching posting blobs
    (``columns=["term","df","cf"]`` prunes them at the read).

    Terms hash across shards, so a prefix scan must visit every shard —
    the filter makes each visit a dictionary-page skim, and the scan is
    one streaming Dataset (at 10^5 shards this is a normal fan-out
    read, not a driver loop)."""
    import ray.data
    if not prefix:
        raise ValueError("prefix must be non-empty")
    upper = prefix[:-1] + chr(ord(prefix[-1]) + 1)
    expr = (pads.field("term") >= prefix) & (pads.field("term") < upper)
    return ray.data.read_parquet(os.path.join(index_dir, "shards"),
                                 columns=["term", "df", "cf"],
                                 filter=expr)


# ---- fuzzy (edit-distance-1) term expansion -----------------------------

def _lev_le1(a: str, b: str) -> bool:
    """Exact Levenshtein(a, b) <= 1 in one O(n) pass (no DP table)."""
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(1 for x, y in zip(a, b) if x != y) <= 1
    if la > lb:
        a, b, la = b, a, lb
    # len(b) == len(a) + 1: b minus one char must equal a
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1:]


def fuzzy_expand(index_dir: str, query_term: str):
    """ES ``fuzzy`` query expansion (fuzziness=1): every DICTIONARY term
    within Levenshtein distance 1 of ``query_term`` -> (term, df, cf).

    Distributed scan of the shard term dictionaries (posting blobs are
    pruned at the read) with a complete-recall vectorized band
    prefilter: a distance-<=1 match differs from the query by ONE edit,
    so by pigeonhole it must keep either the query's first half as a
    PREFIX or its second half as a SUFFIX intact (``starts_with`` /
    ``ends_with`` RE2-free kernels + a length band).  Only the handful
    of band survivors reach the exact O(n) verifier — the same
    band-then-verify shape as the MinHash/SimHash pair pipelines."""
    import ray.data
    if not query_term:
        raise ValueError("query_term must be non-empty")
    q = query_term
    h = len(q) // 2

    def fn(batch: pa.Table) -> pa.Table:
        term = batch["term"]
        if isinstance(term, pa.ChunkedArray):
            term = term.combine_chunks()
        tl = pc.utf8_length(term)
        band = pc.and_(
            pc.and_(pc.greater_equal(tl, len(q) - 1),
                    pc.less_equal(tl, len(q) + 1)),
            pc.or_(pc.starts_with(term, pattern=q[:h]),
                   pc.ends_with(term, pattern=q[h:])))
        cand = batch.filter(band)
        if not cand.num_rows:
            return cand
        keep = [_lev_le1(q, t) for t in cand["term"].to_pylist()]
        return cand.filter(pa.array(keep, pa.bool_()))

    return ray.data.read_parquet(os.path.join(index_dir, "shards"),
                                 columns=["term", "df", "cf"]) \
        .map_batches(fn, batch_format="pyarrow")


# ---- facet aggregation over ALL matching docs ---------------------------

def facet_counts(index_dir: str, term: str,
                 by: tuple[str, ...] = ("lang", "source")):
    """ES terms-aggregation inside a query: counts of ``by`` metadata
    values over EVERY document matching ``term`` (not just the top-k
    hits).  -> Dataset (by..., n_docs).

    The match set is the term's posting (one shard-pruned read),
    broadcast ONCE via ``ray.put``; the docstore streams through a
    ``map_batches`` semi-join (sorted-side ``np.isin``) followed by the
    partial-then-tiny-groupby fold — no all-to-all on the corpus, only
    O(|by-cardinality|) rows shuffle."""
    import ray
    import ray.data
    from ray.data.aggregate import Sum as RSum

    eng = SearchEngine(index_dir)
    ids_ref = ray.put(eng.docs[eng._hits([term]) > 0])
    cols = list(by)

    def fn(batch: pa.Table) -> pa.Table:
        allowed = ray.get(ids_ref)
        doc = batch["doc_id"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(allowed, doc)
        pos[pos == allowed.size] = 0
        mask = allowed.size > 0
        hit = (allowed[pos] == doc) if mask else np.zeros(doc.size, bool)
        sub = batch.filter(pa.array(hit, pa.bool_()))
        agg = sub.select(cols).group_by(cols).aggregate([([], "count_all")])
        return agg.rename_columns(cols + ["n_p"])

    return ray.data.read_parquet(
        os.path.join(index_dir, "docstore"),
        columns=["doc_id"] + cols) \
        .map_batches(fn, batch_format="pyarrow") \
        .groupby(cols).aggregate(RSum("n_p", alias_name="n_docs"))


# ---- cursor pagination / highlighting / index stats ---------------------

def search_page(eng: SearchEngine, terms: list[str],
                after: tuple[int, int] | None = None,
                k: int = 10) -> list[tuple[int, int, int]]:
    """ES ``search_after`` cursor pagination: the page of up to ``k``
    hits strictly AFTER cursor ``(score_e6, doc_id)`` in the canonical
    (score_e6 desc, doc_id asc) order.  -> [(rank, doc_id, score_e6)]
    with ABSOLUTE ranks (rank 11.. for page 2), deterministic across
    processes because the sort key is the e6-rounded integer score —
    two hits whose float scores differ below 1e-6 are deliberately
    tied and broken by doc_id, exactly like the SQL oracle.

    Reads the engine's match arrays (:meth:`SearchEngine._taat_arrays`):
    the hits after the cursor are a suffix of the canonical order, the
    size of its complement is the page's start rank, and the page is
    the suffix's bounded e6 top-``k``."""
    ids, scores = eng._taat_arrays(terms)
    start = 0
    if after is not None:
        a_e6, a_doc = after
        e6 = np.floor(scores * 1_000_000 + 0.5).astype(np.int64)
        rest = (e6 < a_e6) | ((e6 == a_e6) & (ids > a_doc))
        start = ids.size - int(rest.sum())
        ids, scores = ids[rest], scores[rest]
    idx = topk_order_e6(scores, ids, k)
    e6 = np.floor(scores[idx] * 1_000_000 + 0.5).astype(np.int64)
    return [(start + i + 1, int(d), int(s))
            for i, (d, s) in enumerate(zip(ids[idx], e6))]


def highlight_snippets(eng: SearchEngine, terms: list[str],
                       k: int = 10, window: int = 2) -> pa.Table:
    """ES highlighting: for each top-k hit, the snippet of ``window``
    tokens around the FIRST occurrence of any query term (analyzer
    tokens, joined by ' ').  Fetches only the k result docs (stored
    fields read) — highlighting is a cold post-processing step on k
    rows, never a corpus operation.  -> (rank, doc_id, snippet).
    The top-k cut ranks on the e6-rounded integer score (same tie rule
    as the SQL oracle) so boundary ties cannot admit different docs."""
    from onestools_eventlog_ray.functions.analyzer import tokenize_py
    ids = [d for d, _ in eng.search(terms, k, tie="e6")]
    docs = eng.fetch_docs(ids, columns=["doc_id", "content"])
    tset = set(terms)
    snips = []
    for content in docs["content"].to_pylist():
        toks = tokenize_py(content)
        first = next((i for i, t in enumerate(toks) if t in tset), None)
        snips.append("" if first is None else
                     " ".join(toks[max(0, first - window):first + window + 1]))
    return pa.table({
        "rank": pa.array(np.arange(1, len(ids) + 1), pa.int64()),
        "doc_id": pa.array(docs["doc_id"], pa.int64()),
        "snippet": pa.array(snips, pa.string()),
    })


def index_summary(index_dir: str) -> pa.Table:
    """_cat/indices-style index statistics: (n_docs, n_terms,
    n_postings, total_cf) — one distributed fold over the shard
    dictionaries (posting blobs pruned at the read) plus the stats
    manifest for n_docs.  Mergeable partials: each shard contributes
    (rows, Σdf, Σcf)."""
    import ray.data

    def partial(batch: pa.Table) -> pa.Table:
        return pa.table({
            "terms_p": pa.array([batch.num_rows], pa.int64()),
            "df_p": pa.array([pc.sum(batch["df"]).as_py() or 0], pa.int64()),
            "cf_p": pa.array([pc.sum(batch["cf"]).as_py() or 0], pa.int64()),
        })

    parts = ray.data.read_parquet(os.path.join(index_dir, "shards"),
                                  columns=["df", "cf"]) \
        .map_batches(partial, batch_format="pyarrow").take_all()
    stats = ckpt.read_stats(index_dir)
    return pa.table({
        "n_docs": pa.array([stats["n_docs"]], pa.int64()),
        "n_terms": pa.array([sum(p["terms_p"] for p in parts)], pa.int64()),
        "n_postings": pa.array([sum(p["df_p"] for p in parts)], pa.int64()),
        "total_cf": pa.array([sum(p["cf_p"] for p in parts)], pa.int64()),
    })


# ---- ES query-DSL scoring refinements -----------------------------------

def search_dsl(eng: SearchEngine, terms: list[str], k: int = 10,
               boosts: dict[str, float] | None = None,
               minimum_should_match: int = 1,
               mode: str = "sum", tie_breaker: float = 0.0,
               tie: str = "float") -> list[tuple[int, float]]:
    """Generalized bool-should scoring over one TAAT pass — the ES
    query-DSL knobs the plain :meth:`SearchEngine.search` lacks:

    * ``boosts``: query-time per-term boost (``{"spark": 2.0}``) — each
      term's impact is scaled BEFORE accumulation (ES ``term^2.0``).
    * ``minimum_should_match``: a doc must match at least m distinct
      query terms to rank.
    * ``mode="max"`` + ``tie_breaker``: dis_max —
      ``score = max_t w_t + tie_breaker * (sum_t w_t - max_t w_t)``.

    -> [(doc_id, score)], ``pick_topk(tie)`` order, len <= k: the
    bounded cut of :func:`_dsl_arrays`' match arrays."""
    ords, scores = _dsl_arrays(eng, terms, boosts, minimum_should_match,
                               mode, tie_breaker)
    ids = eng.docs[ords]
    idx = pick_topk(tie)(scores, ids, k)
    return list(zip(ids[idx].tolist(), scores[idx].tolist()))


def _dsl_arrays(eng: SearchEngine, terms: list[str],
                boosts: dict[str, float] | None = None,
                minimum_should_match: int = 1, mode: str = "sum",
                tie_breaker: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """:func:`search_dsl`'s scoring pass -> (doc ordinals ascending,
    scores) of every live match.  Term weights come from the engine's
    cached ``(ordinals, weights)`` parts (:meth:`SearchEngine._term_parts`),
    scaled by the term's boost, and accumulate over dense doc ordinals
    in sorted-unique-term order under the ``live`` mask, so float64
    sums equal :meth:`SearchEngine.search`'s and the e6-ranked SQL
    oracle matches exactly."""
    present = sorted(eng.df_of(sorted(set(terms))))
    parts = []
    for t, (o, w) in zip(present, eng._term_parts(present)):
        boost = float(boosts.get(t, 1.0)) if boosts else 1.0
        parts.append((o, w * boost if boost != 1.0 else w))
    ords, scores = accumulate(parts, eng.live)
    if not parts:
        return ords, scores
    all_o = np.concatenate([o for o, _ in parts])
    if mode == "max":
        maxs = np.full(eng.docs.size, -np.inf)
        np.maximum.at(maxs, all_o, np.concatenate([w for _, w in parts]))
        maxs = maxs[ords]
        scores = maxs + tie_breaker * (scores - maxs)
    if minimum_should_match > 1:
        nmatch = np.bincount(all_o, minlength=eng.docs.size)[ords]
        keep = nmatch >= minimum_should_match
        ords, scores = ords[keep], scores[keep]
    return ords, scores


def search_collapse(eng: SearchEngine, terms: list[str], group_col: str,
                    per_group: int = 2) -> pa.Table:
    """ES field collapsing: the top ``per_group`` hits for EVERY value
    of a doc-metadata field, ranked inside each group on the canonical
    (score_e6 desc, doc_id asc) order.  Group values come from one
    ``fetch_docs`` of (doc_id, group_col) for the matched docs only —
    the candidate set is df-bounded, never the corpus.
    -> (group, rank_in_group, doc_id, score_e6) by (group, rank)."""
    ids, scores = eng._taat_arrays(terms)
    e6 = np.floor(scores * 1_000_000 + 0.5).astype(np.int64)
    order = np.lexsort((ids, -e6))
    ids, e6 = ids[order], e6[order]
    groups = eng.fetch_docs(ids, columns=["doc_id", group_col])[
        group_col].to_numpy(zero_copy_only=False)
    # a stable sort by group keeps rank order inside each group; the
    # rank in group is the distance from the group's first hit
    by = np.argsort(groups, kind="stable")
    pos = np.arange(by.size)
    first = np.ones(by.size, dtype=bool)
    first[1:] = groups[by][1:] != groups[by][:-1]
    rank = pos - np.maximum.accumulate(np.where(first, pos, 0)) + 1
    keep = rank <= per_group
    by = by[keep]
    return pa.table({group_col: pa.array(groups[by], pa.string()),
                     "rank_in_group": pa.array(rank[keep], pa.int64()),
                     "doc_id": pa.array(ids[by], pa.int64()),
                     "score_e6": pa.array(e6[by], pa.int64())})


def regexp_term_stats(index_dir: str, pattern: str):
    """ES ``regexp`` query over the term dictionary: every indexed term
    matching ``pattern`` -> (term, df, cf).  Same distributed
    dictionary-scan shape as :func:`prefix_term_stats`, but a regex
    cannot become a parquet range filter, so the filter is a vectorized
    RE2 kernel per batch (posting blobs still pruned by the column
    projection — each shard visit reads dictionary pages only)."""
    import ray.data

    def fn(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.match_substring_regex(batch["term"],
                                                     pattern))

    return ray.data.read_parquet(os.path.join(index_dir, "shards"),
                                 columns=["term", "df", "cf"]) \
        .map_batches(fn, batch_format="pyarrow")


def wildcard_term_stats(index_dir: str, pattern: str):
    """ES ``wildcard`` query over the term dictionary: ``*`` matches any
    run of characters, ``?`` exactly one, every other character is
    literal, and the whole pattern is anchored at both ends (ES wildcard
    semantics — NOT a substring search).  Compiles the pattern to an
    anchored RE2 and reuses the distributed dictionary scan of
    :func:`regexp_term_stats` -> Dataset of (term, df, cf).

    Reference parity: the ES ``wildcard`` query the reference's users
    issue against the indexed event text (OneSTools.EventLog exports to
    ElasticSearch; wildcard is part of that query surface)."""
    import re as _re
    parts = []
    for ch in pattern:
        parts.append(".*" if ch == "*" else "." if ch == "?"
                     else _re.escape(ch))
    return regexp_term_stats(index_dir, "^" + "".join(parts) + "$")


def expand_prefix_terms(eng, prefix: str,
                        max_expansions: int = 50) -> list[str]:
    """Distinct terms starting with ``prefix`` (sorted, capped at
    ``max_expansions``) of an engine's term files — the main index's
    shards (:class:`SearchEngine`) or the positions sidecar
    (``PhraseEngine``): the multi-term rewrite of query-time prefix
    clauses.  Reads, through the engine's ``TermShards``, the ``term``
    column of the row groups whose resident term range overlaps
    ``[prefix, prefix⁺)``; :func:`prefix_term_stats` is the
    distributed scan of the same range."""
    if not prefix:
        return []
    upper = prefix[:-1] + chr(ord(prefix[-1]) + 1)
    found: set[str] = set()
    for e in getattr(eng, "engines", [eng]):      # a root's leaves
        for pkey in range(e.P):
            tbl = e._shards.read_range(pkey, prefix, upper, ["term"])
            if tbl is not None:
                found.update(tbl["term"].to_pylist())
    return sorted(found)[:max_expansions]


def facet_stats(index_dir: str, term: str, by: str = "lang",
                metric_col: str = "n_chars"):
    """ES terms-aggregation WITH a metric sub-aggregation: for every
    value of ``by`` over the documents matching ``term``, the doc count
    and the exact integer average of ``metric_col``
    (``avg_e6 = sum * 1e6 // n`` — both sides floor-divide, so the SQL
    oracle matches bit-for-bit).  Same broadcast posting semi-join +
    partial-fold shape as :func:`facet_counts`; partials carry
    (n_p, sum_p) so the average is computed ONCE from exact sums.
    -> (by, n_docs, avg_<metric>_e6)."""
    import ray
    import ray.data
    from ray.data.aggregate import Sum as RSum

    eng = SearchEngine(index_dir)
    ids_ref = ray.put(eng.docs[eng._hits([term]) > 0])

    def fn(batch: pa.Table) -> pa.Table:
        allowed = ray.get(ids_ref)
        doc = batch["doc_id"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(allowed, doc)
        pos[pos == allowed.size] = 0
        hit = (allowed[pos] == doc) if allowed.size \
            else np.zeros(doc.size, bool)
        sub = batch.filter(pa.array(hit, pa.bool_()))
        agg = sub.select([by, metric_col]).group_by(by) \
            .aggregate([([], "count_all"), (metric_col, "sum")])
        return agg.rename_columns([by, "n_p", "sum_p"])

    folded = ray.data.read_parquet(
        os.path.join(index_dir, "docstore"),
        columns=["doc_id", by, metric_col]) \
        .map_batches(fn, batch_format="pyarrow") \
        .groupby(by).aggregate(RSum("n_p", alias_name="n_docs"),
                               RSum("sum_p", alias_name="sum_m"))

    def finish(batch: pa.Table) -> pa.Table:
        n = batch["n_docs"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = batch["sum_m"].to_numpy(zero_copy_only=False).astype(np.int64)
        avg = np.zeros(n.size, dtype=np.int64)
        nz = n > 0
        avg[nz] = (s[nz] * 1_000_000) // n[nz]
        return pa.table({
            by: batch[by],
            "n_docs": pa.array(n, pa.int64()),
            f"avg_{metric_col}_e6": pa.array(avg, pa.int64()),
        })

    return folded.map_batches(finish, batch_format="pyarrow").sort(by)


def search_sorted_by(eng: SearchEngine, terms: list[str], sort_col: str,
                     k: int = 10, descending: bool = True) -> pa.Table:
    """ES ``sort`` clause: hits matching ANY query term, ordered by a
    stored FIELD instead of _score (ES leaves _score null when a sort
    clause is present).  The candidate set is the union of the terms'
    postings (df-bounded, shard-pruned reads); sort keys come from one
    ``fetch_docs`` of (doc_id, sort_col) only.
    -> (rank, doc_id, <sort_col>), ties broken by doc_id asc."""
    ids = eng.docs[eng._hits(terms) > 0]
    vals = eng.fetch_docs(ids, columns=["doc_id", sort_col])[sort_col] \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((ids, -vals if descending else vals))[:k]
    return pa.table({
        "rank": pa.array(np.arange(1, order.size + 1), pa.int64()),
        "doc_id": pa.array(ids[order], pa.int64()),
        sort_col: pa.array(vals[order], pa.int64()),
    })


def rare_terms(index_dir: str, max_df: int = 3):
    """ES ``rare_terms`` aggregation: dictionary terms with df <=
    ``max_df`` — the long-tail bucket terms agg deliberately excludes.
    Distributed shard-dictionary scan with the df predicate pushed to
    the parquet read (row-group stats prune); posting blobs never read.
    -> (term, df) Dataset."""
    import ray.data
    return ray.data.read_parquet(os.path.join(index_dir, "shards"),
                                 columns=["term", "df"],
                                 filter=pads.field("df") <= max_df)


def adjacency_matrix(eng: SearchEngine, terms: list[str]) -> pa.Table:
    """ES ``adjacency_matrix`` aggregation: for every pair of term
    filters, the count of documents matching BOTH (plus the diagonal).
    One live mask over the doc ordinals per term; a pair's count is the
    popcount of the two masks' AND.
    -> (key_a, key_b, n_docs), key_a <= key_b, sorted."""
    uniq = sorted(set(terms))
    masks = [eng._hits([t]) > 0 for t in uniq]
    rows = []
    for i, a in enumerate(uniq):
        for j in range(i, len(uniq)):
            rows.append((a, uniq[j],
                         int(np.count_nonzero(masks[i] & masks[j]))))
    return pa.table({
        "key_a": pa.array([r[0] for r in rows], pa.string()),
        "key_b": pa.array([r[1] for r in rows], pa.string()),
        "n_docs": pa.array([r[2] for r in rows], pa.int64()),
    })


def suggest_terms(index_dir: str, prefix: str, k: int = 8) -> pa.Table:
    """ES completion suggester: the top-``k`` dictionary terms with the
    given ``prefix``, ranked by popularity (df desc, term asc — ES
    breaks suggestion ties lexically).  Rides the same distributed
    range-filtered dictionary scan as :func:`prefix_term_stats`; each
    shard batch contributes a LOCAL top-k partial (a k-row table, never
    the full expansion), and the final cut runs over the tiny
    shard-count x k fold — at a 10^9-term dictionary the driver sees
    O(shards * k) rows, not the prefix expansion."""

    def local_topk(batch: pa.Table) -> pa.Table:
        if not batch.num_rows:
            return batch.select(["term", "df"])
        df = batch["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        terms = np.asarray(batch["term"].to_pylist(), dtype=object)
        order = np.lexsort((terms, -df))[:k]
        return pa.table({"term": pa.array(terms[order].tolist(),
                                          pa.string()),
                         "df": pa.array(df[order], pa.int64())})

    parts = prefix_term_stats(index_dir, prefix) \
        .map_batches(local_topk, batch_format="pyarrow").take_all()
    terms = np.asarray([r["term"] for r in parts], dtype=object)
    df = np.asarray([int(r["df"]) for r in parts], dtype=np.int64)
    order = np.lexsort((terms, -df))[:k] if terms.size else []
    return pa.table({
        "rank": pa.array(np.arange(1, len(order) + 1), pa.int64()),
        "term": pa.array(terms[order].tolist() if len(order) else [],
                         pa.string()),
        "df": pa.array(df[order] if len(order) else [], pa.int64()),
    })


def delete_by_query(index_dir: str, terms: list[str]) -> int:
    """ES ``_delete_by_query`` with a term-disjunction query: tombstone
    every LIVE document containing ANY of ``terms``.  The matching
    doc_ids come from the postings themselves (the same shard-pruned
    ``term IN`` lookup every query uses — never a corpus scan), so the
    cost is df-bounded; deletes are soft per-index tombstones exactly
    like delete-by-id (``state/tombstones.py``), honored by every
    result path and dropped physically at compaction.  The reference's
    analog is its deleted-input handling feeding ES deletes
    (``/root/reference/OneSTools.EventLog/LgpReader.cs:62-79``).
    Returns the number of docs newly tombstoned."""
    from onestools_eventlog_ray.state.tombstones import delete_docs
    eng = SearchEngine(index_dir)
    ids = eng.docs[eng._hits(terms) > 0]
    if not ids.size:
        return 0
    return delete_docs(index_dir, ids)


def rank_correlation(eng: SearchEngine, terms: list[str],
                     field: str = "n_chars", k: int = 50) -> pa.Table:
    """Ranker-agreement report: Kendall tau-a between the BM25 top-k
    and the same docs re-ranked by a stored field (the static quality
    prior a ranking team A/B-tests against relevance).  Exact integers:
    concordant/discordant pair counts over the k(k-1)/2 pairs,
    ``tau_e6 = (C - D) * 1e6 // npairs`` — no float anywhere.  Both
    orders are fully deterministic (BM25: score_e6 desc, doc asc;
    field: value desc, doc asc), so ties cannot exist and C + D =
    npairs.  Cost: one bounded e6 top-k search + one k-row
    stored-field fetch + an O(k^2) pair fold (k is small by
    definition).
    -> one row (n, n_pairs, concordant, discordant, tau_e6)."""
    top = np.asarray([d for d, _ in eng.search(terms, k, tie="e6")],
                     dtype=np.int64)       # A-order: BM25 rank
    n = int(top.size)
    if n < 2:
        return pa.table({c: pa.array([v], pa.int64())
                         for c, v in (("n", n), ("n_pairs", 0),
                                      ("concordant", 0),
                                      ("discordant", 0), ("tau_e6", 0))})
    v = eng.fetch_docs(top, ["doc_id", field])[field] \
        .to_numpy(zero_copy_only=False).astype(np.int64)   # in A-order
    # B-rank of each doc: order by (field desc, doc asc)
    b_order = np.lexsort((top, -v))
    b_rank = np.empty(n, dtype=np.int64)
    b_rank[b_order] = np.arange(n)
    # pair fold over the top-k only: concordant iff B agrees with A
    i, j = np.triu_indices(n, k=1)         # i before j in A-order
    conc = int((b_rank[i] < b_rank[j]).sum())
    npairs = n * (n - 1) // 2
    disc = npairs - conc
    tau = (conc - disc) * 1_000_000 // npairs
    return pa.table({c: pa.array([x], pa.int64())
                     for c, x in (("n", n), ("n_pairs", npairs),
                                  ("concordant", conc),
                                  ("discordant", disc),
                                  ("tau_e6", tau))})


def delete_by_metadata(index_dir: str, where: dict) -> int:
    """ES ILM delete phase / ``_delete_by_query`` with a METADATA
    predicate: tombstone every live doc whose docstore metadata matches
    ``where`` (:func:`where_expr`: scalar = equality, ``(lo, hi)`` tuple
    = inclusive range) — the retention sweep ("delete everything older
    than 90 days" / "drop language X") that index lifecycle management
    runs on a schedule.  The ids are :meth:`SearchEngine.allowed_doc_ids`
    of an engine opened on the index; an empty ``where`` deletes
    nothing.  Soft tombstones like every delete here; physical drop at
    compaction.  Returns the number newly tombstoned."""
    from onestools_eventlog_ray.state.tombstones import delete_docs
    if not where:
        return 0
    eng = SearchEngine(index_dir)
    ids = eng.allowed_doc_ids(where)
    eng.close()
    return delete_docs(index_dir, ids) if ids.size else 0


def explain_score(eng: SearchEngine, terms: list[str],
                  doc_id: int) -> pa.Table:
    """ES ``_explain``: the per-term BM25 score breakdown for ONE
    document — (term, tf, df, dl, idf_e6, contrib_e6), terms sorted,
    only terms present in the doc.  Reads exactly the query terms'
    postings (shard-pruned); the per-doc probe is a binary search for
    the doc's ordinal in each posting.  The contribution uses the SAME
    ``codec.bm25_impact`` kernel as the scorer, so
    ``sum(contrib) == search()``'s score bit-for-bit."""
    out_t, out_tf, out_df, out_dl, out_idf, out_c = [], [], [], [], [], []
    d = int(np.searchsorted(eng.docs, doc_id))
    if d == eng.docs.size or eng.docs[d] != doc_id:
        d = -1                      # not a doc of this index
    for t, (df, ords, tfs, dls) in eng._term_postings(terms).items():
        i = int(np.searchsorted(ords, d))
        if i >= ords.size or ords[i] != d:
            continue
        idf_t = idf_fn(eng.N, df)
        contrib = float(idf_t * codec.bm25_impact(
            tfs[i:i + 1], dls[i:i + 1], eng.avgdl, eng.k1, eng.b)[0])
        out_t.append(t)
        out_tf.append(int(tfs[i]))
        out_df.append(int(df))
        out_dl.append(int(dls[i]))
        out_idf.append(int(np.floor(idf_t * 1_000_000 + 0.5)))
        out_c.append(int(np.floor(contrib * 1_000_000 + 0.5)))
    return pa.table({
        "term": pa.array(out_t, pa.string()),
        "tf": pa.array(out_tf, pa.int64()),
        "df": pa.array(out_df, pa.int64()),
        "dl": pa.array(out_dl, pa.int64()),
        "idf_e6": pa.array(out_idf, pa.int64()),
        "contrib_e6": pa.array(out_c, pa.int64()),
    })


def ltr_features(eng: SearchEngine, terms: list[str]) -> pa.Table:
    """Learning-to-rank feature extraction: for every document matching
    at least one query term, the standard first-stage LTR feature
    vector — (doc_id, n_matched, sum_tf, dl, bm25_e6).  This is the
    training-data side of a ranking pipeline (the judged-pairs join
    happens downstream); df-bounded like every query path: ONE postings
    pass over the query terms' shard-pruned postings, no corpus scan.
    Scores use the SAME ``codec.bm25_impact`` kernel as ``search()``,
    so ``bm25_e6`` equals the scorer's output exactly."""
    N = eng.docs.size
    score = np.zeros(N, dtype=np.float64)
    n_matched = np.zeros(N, dtype=np.int64)
    sum_tf = np.zeros(N, dtype=np.int64)
    dl = np.zeros(N, dtype=np.int64)
    for df, ords, tfs, dls in eng._term_postings(terms).values():
        score[ords] += idf_fn(eng.N, df) * codec.bm25_impact(
            tfs, dls, eng.avgdl, eng.k1, eng.b)
        n_matched[ords] += 1
        sum_tf[ords] += tfs
        dl[ords] = dls                        # identical for one doc
    sel = np.flatnonzero((n_matched > 0) & eng.live)
    return pa.table({
        "doc_id": pa.array(eng.docs[sel], pa.int64()),
        "n_matched": pa.array(n_matched[sel], pa.int64()),
        "sum_tf": pa.array(sum_tf[sel], pa.int64()),
        "dl": pa.array(dl[sel], pa.int64()),
        "bm25_e6": pa.array(
            np.floor(score[sel] * 1_000_000 + 0.5).astype(np.int64),
            pa.int64()),
    })


def bm25_param_sensitivity(index_dir: str, terms: list[str],
                           variants: tuple = ((0.9, 0.4), (2.0, 0.75),
                                              (1.2, 0.25)),
                           k: int = 10) -> pa.Table:
    """Ranking STABILITY under BM25 parameter drift — the tuning report
    that says whether k1/b choice matters on this corpus before anyone
    sweeps them: top-k overlap and top-1 agreement of each (k1, b)
    variant against the index's configured baseline.  One fresh engine
    per variant (term-weight caches are per-engine, so parameters are
    immutable after first use).  -> (k1_e2, b_e2, overlap, same_top1)
    per variant."""
    base = SearchEngine(index_dir)
    base_top = [d for d, _ in base.search(terms, k)]
    rows = []
    for k1, b in variants:
        eng = SearchEngine(index_dir)
        eng.k1, eng.b = float(k1), float(b)
        top = [d for d, _ in eng.search(terms, k)]
        rows.append((int(round(k1 * 100)), int(round(b * 100)),
                     len(set(top) & set(base_top)),
                     1 if (top and base_top and top[0] == base_top[0])
                     else 0))
    rows.sort()
    return pa.table({
        "k1_e2": pa.array([r[0] for r in rows], pa.int64()),
        "b_e2": pa.array([r[1] for r in rows], pa.int64()),
        "overlap": pa.array([r[2] for r in rows], pa.int64()),
        "same_top1": pa.array([r[3] for r in rows], pa.int64()),
    })


def search_rescore(eng: SearchEngine, terms: list[str],
                   rescore_terms: list[str], window: int = 50,
                   query_weight: float = 1.0,
                   rescore_weight: float = 2.0,
                   k: int = 10, tie: str = "float"
                   ) -> list[tuple[int, float]]:
    """ES ``rescore``: rank the top ``window`` hits of the primary
    query again with ``query_weight * primary + rescore_weight *
    secondary`` where the secondary BM25 query is evaluated ONLY over
    the window (docs outside the window never pay the secondary cost —
    the two-phase retrieval every production engine runs).  The
    secondary pass reuses :meth:`SearchEngine.search` with the window
    as an ``allowed`` whitelist, so its posting reads stay df-bounded
    and the window cut is the canonical (score desc, doc_id asc)."""
    initial = eng.search(terms, k=window)
    if not initial:
        return []
    win = np.asarray(sorted(d for d, _ in initial), dtype=np.int64)
    second = dict(eng.search(rescore_terms, k=win.size, allowed=win))
    combined = [(d, query_weight * s + rescore_weight * second.get(d, 0.0))
                for d, s in initial]
    ids = np.asarray([d for d, _ in combined], dtype=np.int64)
    sc = np.asarray([s for _, s in combined], dtype=np.float64)
    idx = pick_topk(tie)(sc, ids, k)
    return [(int(ids[i]), float(sc[i])) for i in idx]


def term_vectors(eng: SearchEngine, doc_id: int,
                 content_col: str = "content") -> pa.Table:
    """ES ``_termvectors``: the per-term statistics of ONE stored
    document — (term, tf, df), term-sorted.  tf comes from re-analyzing
    the stored content (the same analyzer as indexing, exactly how ES
    computes term vectors on the fly); df from the shard-pruned term
    dictionary lookups.  Cost: one docstore fetch (only
    ``content_col``) + one posting-dictionary probe per distinct term."""
    from onestools_eventlog_ray.functions.analyzer import tokenize_py
    tbl = eng.fetch_docs([doc_id], columns=["doc_id", content_col])
    if not tbl.num_rows:
        return pa.table({"term": pa.array([], pa.string()),
                         "tf": pa.array([], pa.int64()),
                         "df": pa.array([], pa.int64())})
    toks = tokenize_py(tbl[content_col][0].as_py())
    terms, tf = np.unique(np.asarray(toks, dtype=object),
                          return_counts=True)
    df_of = eng.df_of([str(t) for t in terms])
    df = np.asarray([df_of.get(str(t), 0) for t in terms], dtype=np.int64)
    return pa.table({
        "term": pa.array(terms.tolist(), pa.string()),
        "tf": pa.array(tf.astype(np.int64), pa.int64()),
        "df": pa.array(df, pa.int64()),
    })


def mtermvectors(eng: SearchEngine, doc_ids: list[int],
                 content_col: str = "content") -> pa.Table:
    """ES ``_mtermvectors``: term vectors for MANY stored docs in one
    call — ONE docstore fetch for all ids and ONE batched
    dictionary probe for the union of their distinct terms (instead of
    per-doc round trips; exactly why the ES bulk API exists).  The
    re-analysis is the vectorized batch tokenizer, per-doc tf via a
    factorized (doc, term) composite-key fold.
    -> (doc_id, term, tf, df) ordered (doc_id, term)."""
    from onestools_eventlog_ray.functions.analyzer import tokenize_array
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "term": pa.array([], pa.string()),
                      "tf": pa.array([], pa.int64()),
                      "df": pa.array([], pa.int64())})
    tbl = eng.fetch_docs(list(doc_ids), columns=["doc_id", content_col])
    if not tbl.num_rows:
        return empty
    toks = tokenize_array(tbl[content_col])
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    lens = np.asarray(toks.value_lengths(), dtype=np.int64)
    docs = tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    parents = np.repeat(np.arange(docs.size, dtype=np.int64), lens)
    flat = toks.flatten().to_numpy(zero_copy_only=False)
    if not flat.size:
        return empty
    vocab, tid = np.unique(flat, return_inverse=True)
    keys, cnt = np.unique(parents * np.int64(vocab.size) + tid,
                          return_counts=True)
    kd = docs[(keys // vocab.size)]
    kt = vocab[(keys % vocab.size)]
    df_of = eng.df_of([str(t) for t in vocab])
    df = np.asarray([df_of.get(str(t), 0) for t in kt], dtype=np.int64)
    order = np.lexsort((kt, kd))
    return pa.table({
        "doc_id": pa.array(kd[order], pa.int64()),
        "term": pa.array(kt[order].tolist(), pa.string()),
        "tf": pa.array(cnt.astype(np.int64)[order], pa.int64()),
        "df": pa.array(df[order], pa.int64()),
    })


def count_matches(index_dir: str, terms: list[str]) -> pa.Table:
    """ES ``_count`` API: how many (live) documents match the query,
    under both OR semantics (any term) and AND semantics (all terms) —
    the hit-count a paging UI shows without fetching hits.

    Only the query terms' postings are read (shard-pruned); both counts
    come from one per-doc count of matched terms.  No scoring, no
    docstore access.  -> (mode, n_docs), modes 'all'/'any'."""
    uniq = set(terms)
    n = SearchEngine(index_dir)._hits(terms)
    n_any = int(np.count_nonzero(n))
    n_all = int(np.count_nonzero(n == len(uniq))) if uniq else 0
    return pa.table({"mode": pa.array(["all", "any"], pa.string()),
                     "n_docs": pa.array([n_all, n_any], pa.int64())})


def suggest_corrections(index_dir: str, inputs: list[str],
                  k: int = 3) -> pa.Table:
    """ES term suggester ("did you mean"): for each (assumed
    misspelled) input, dictionary terms at Levenshtein distance EXACTLY
    1, ranked by df desc then term asc, top ``k`` per input — the
    reference's ES sink exposes the same suggester over its analyzed
    fields.

    Candidate mining is :func:`fuzzy_expand`'s distributed banded shard
    -dictionary scan per input (posting blobs pruned at the read);
    only the handful of verified candidates reaches the driver.
    -> (input, rank, term, df) sorted by (input, rank)."""
    out = {"input": [], "rank": [], "term": [], "df": []}
    for q in inputs:
        cand = [r for r in fuzzy_expand(index_dir, q).take_all()
                if r["term"] != q]
        cand.sort(key=lambda r: (-int(r["df"]), r["term"]))
        for rk, r in enumerate(cand[:k], 1):
            out["input"].append(q)
            out["rank"].append(rk)
            out["term"].append(r["term"])
            out["df"].append(int(r["df"]))
    return pa.table({
        "input": pa.array(out["input"], pa.string()),
        "rank": pa.array(out["rank"], pa.int64()),
        "term": pa.array(out["term"], pa.string()),
        "df": pa.array(out["df"], pa.int64()),
    })


def scroll_all(eng: SearchEngine, terms: list[str], k: int = 10,
               max_pages: int = 10_000) -> pa.Table:
    """ES ``scroll`` / point-in-time export: walk the ENTIRE hit set in
    ``k``-sized pages by chaining :func:`search_page` cursors until a
    short page — the bulk-export path a reindex-to-elsewhere job uses.
    Our index is immutable between generations, so repeated cursor
    queries see a consistent snapshot for free (ES needs an explicit
    PIT for the same guarantee).

    The page chain is provably disjoint and complete: each cursor is
    the last (score_e6, doc_id) of the previous page and the order is
    a total order, so concatenated pages ARE the full ranked hit list
    (the oracle checks exactly that, page numbers included).
    -> (page, rank, doc_id, score_e6)."""
    out_p, out_r, out_d, out_s = [], [], [], []
    after = None
    for page in range(1, max_pages + 1):
        rows = search_page(eng, terms, after=after, k=k)
        if not rows:
            break
        for rank, doc_id, e6 in rows:
            out_p.append(page)
            out_r.append(rank)
            out_d.append(doc_id)
            out_s.append(e6)
        if len(rows) < k:
            break
        after = (rows[-1][2], rows[-1][1])
    return pa.table({
        "page": pa.array(out_p, pa.int64()),
        "rank": pa.array(out_r, pa.int64()),
        "doc_id": pa.array(out_d, pa.int64()),
        "score_e6": pa.array(out_s, pa.int64()),
    })


def suggest_phrase(index_dir: str, ds, phrase: tuple[str, str],
                   k: int = 3, content_col: str = "text") -> pa.Table:
    """ES phrase suggester ("did you mean" for a two-word query):
    candidate corrections are dictionary terms within Levenshtein
    distance 1 of each input word (distance 0 included — a correct
    word can stay), ranked by how often the corrected BIGRAM actually
    occurs in the corpus — the bigram-LM evidence ES's phrase
    suggester uses, exact instead of smoothed.

    Scale shape: candidate mining is two :func:`fuzzy_expand`
    distributed dictionary scans (a handful of terms); the candidate
    pair set broadcasts via ``ray.put`` and each batch counts ONLY
    matching bigrams (`is_in` prefilter before the Acero fold), so the
    shuffle carries at most |c1| x |c2| rows.  Pairs never observed in
    the corpus are not suggested (count 0 both sides).
    -> (rank, term1, term2, n) top-k by (n desc, term1, term2)."""
    import ray
    import ray.data
    from onestools_eventlog_ray.functions.analyzer import tokenize_array
    from ray.data.aggregate import Sum as RSum

    cand_sets = []
    for w in phrase:
        cand_sets.append(sorted({r["term"] for r in
                                 fuzzy_expand(index_dir, w).take_all()}))
    pairs = [f"{a} {b}" for a in cand_sets[0] for b in cand_sets[1]]
    empty = pa.table({"rank": pa.array([], pa.int64()),
                      "term1": pa.array([], pa.string()),
                      "term2": pa.array([], pa.string()),
                      "n": pa.array([], pa.int64())})
    if not pairs:
        return empty
    pair_ref = ray.put(pa.array(pairs, pa.string()))

    def partial(batch: pa.Table) -> pa.Table:
        from onestools_eventlog_ray.functions.runtime import \
            pin_worker_threads
        pin_worker_threads()
        toks = tokenize_array(batch[content_col])
        flat = toks.flatten()
        n_flat = len(flat)
        out_schema = pa.schema([("bigram", pa.string()),
                                ("n_p", pa.int64())])
        if n_flat < 2:
            return out_schema.empty_table()
        dl = pc.list_value_length(toks).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        parent = np.repeat(np.arange(dl.size, dtype=np.int64), dl)
        same = pa.array(parent[:-1] == parent[1:])
        w = n_flat - 1
        joined = pc.binary_join_element_wise(
            flat.slice(0, w), flat.slice(1, w),
            pa.scalar(" ", flat.type))   # sep type must match (large_)string
        joined = joined.filter(same)
        keep = pc.is_in(joined, value_set=ray.get(pair_ref))
        t = pa.table({"bigram": joined.filter(keep)})
        if not t.num_rows:
            return out_schema.empty_table()
        return t.group_by("bigram").aggregate([("bigram", "count")]) \
            .rename_columns(["bigram", "n_p"])

    folded = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("bigram").aggregate(RSum("n_p", alias_name="n")) \
        .take_all()
    rows = sorted(((int(r["n"]), str(r["bigram"])) for r in folded),
                  key=lambda x: (-x[0], x[1]))[:k]
    if not rows:
        return empty
    t1, t2 = zip(*(b.split(" ", 1) for _, b in rows))
    return pa.table({
        "rank": pa.array(np.arange(1, len(rows) + 1), pa.int64()),
        "term1": pa.array(list(t1), pa.string()),
        "term2": pa.array(list(t2), pa.string()),
        "n": pa.array([n for n, _ in rows], pa.int64()),
    })


def prf_search(eng: SearchEngine, terms: list[str], fb_docs: int = 10,
               fb_terms: int = 5, k: int = 10) -> pa.Table:
    """Pseudo-relevance feedback (RM3-style query expansion): run the
    original BM25 query, treat its top ``fb_docs`` hits as relevant,
    mine their highest tf×idf terms (originals excluded, idf from the
    index stats — one shard-pruned df lookup), append the top
    ``fb_terms`` to the query and rescore.  The classic recall-boosting
    second pass ES exposes via significant-terms-driven expansion.

    Cost shape: two df-bounded scorer passes + one ``fetch_docs`` of
    fb_docs stored rows — never a corpus pass.  Term selection ties
    break (tfidf desc, term asc), so the expansion set and the final
    ranking are deterministic and oracle-exact.
    -> (rank, doc_id, score_e6) top-k."""
    from collections import Counter

    from onestools_eventlog_ray.functions.analyzer import tokenize_py

    fb = [d for d, _ in eng.search(terms, fb_docs, tie="e6")]
    tf: Counter = Counter()
    if fb:
        docs = eng.fetch_docs(fb, columns=["doc_id", "content"])
        for c in docs["content"].to_pylist():
            tf.update(tokenize_py(c))
    for t in terms:
        tf.pop(t, None)
    scored = [(-(tf[t] * idf_fn(eng.N, df)), t)
              for t, df in eng.df_of(sorted(tf)).items()]
    expansion = [t for _, t in sorted(scored)[:fb_terms]]

    hits = eng.search(list(terms) + expansion, k, tie="e6")
    return pa.table({
        "rank": pa.array(np.arange(1, len(hits) + 1), pa.int64()),
        "doc_id": pa.array([d for d, _ in hits], pa.int64()),
        "score_e6": pa.array(np.floor(
            np.asarray([s for _, s in hits], dtype=np.float64)
            * 1_000_000 + 0.5).astype(np.int64), pa.int64()),
    })


def _bool_tree_ast(node) -> tuple:
    """:func:`count_bool`'s dict tree as a ``query_string`` AST."""
    if isinstance(node, str):
        return ("term", "text", node, 1.0)
    if not isinstance(node, dict) or len(node) != 1:
        raise ValueError(f"bad node {node!r}")
    (op, val), = node.items()
    if op == "not":
        return ("not", _bool_tree_ast(val))
    if op not in ("and", "or"):
        raise ValueError(f"bad operator {op!r}")
    return (op, [_bool_tree_ast(ch) for ch in val])


def count_bool(index_dir: str, tree) -> pa.Table:
    """Arbitrary nested boolean query tree over the postings — the ES
    ``bool`` query in filter context (AND = ``must``/``filter``, OR =
    ``should``, NOT = ``must_not``).  Grammar: a node is a term string,
    ``{"and": [...]}``, ``{"or": [...]}``, or ``{"not": node}`` (allowed
    only inside an ``and``, ES's filter-context rule — a bare NOT would
    need the full live universe; ``ValueError`` otherwise).

    The tree is evaluated as a ``query_string`` AST by the one boolean
    mask evaluator, ``dsl._qs_match_mask``: a leaf is the ``live`` mask
    of its term's doc ordinals and every operator a boolean AND / OR /
    AND-NOT of masks.  -> one row (n_docs)."""
    from onestools_eventlog_ray.pipelines.dsl import _qs_match_mask
    match = _qs_match_mask(_bool_tree_ast(tree), SearchEngine(index_dir),
                           None, {})
    return pa.table({"n_docs": pa.array([int(np.count_nonzero(match))],
                                        pa.int64())})


def bm25_eval(eng: SearchEngine, terms: list[str], k: int = 10) -> pa.Table:
    """Retrieval-quality evaluation of the BM25 ranking against the
    deterministic relevance rule "a doc is relevant iff it contains ALL
    query terms" (the conjunctive upper bound): MRR and binary nDCG at
    ``k`` — the numbers an IR regression suite tracks per release.

    Exact integers: per-rank discount ``floor(1e6 / log2(r + 1))`` is
    rounded FIRST, so DCG/IDCG are order-free int sums;
    ``ndcg_e6 = dcg * 1e6 // idcg``, ``mrr_e6 = 1e6 // first_rel_rank``.
    The relevant set is the every-term mask of the query's postings.
    -> one row (n_relevant, first_rel_rank, mrr_e6, ndcg_e6)."""
    j = _judge(eng, terms, k)
    return pa.table({c: pa.array([j[c]], pa.int64()) for c in
                     ("n_relevant", "first_rel_rank", "mrr_e6", "ndcg_e6")})


def _judge(eng: SearchEngine, terms: list[str], k: int) -> dict[str, int]:
    """One request of :func:`rank_eval` / :func:`bm25_eval`: the e6
    BM25 top ``k`` judged against the live docs that hold every distinct
    query term, with the rank discount rounded first."""
    n = eng._hits(terms)
    rel = (n == len(set(terms))) & (n > 0)
    top = np.asarray([d for d, _ in eng.search(terms, k, tie="e6")],
                     dtype=np.int64)
    is_rel = rel[np.searchsorted(eng.docs, top)]
    n_rel = int(np.count_nonzero(rel))
    disc_e6 = np.floor(10 ** 6 / np.log2(np.arange(1, top.size + 1) + 1)
                       + 0.5).astype(np.int64)
    dcg = int(disc_e6[is_rel].sum())
    idcg = int(disc_e6[:min(n_rel, k)].sum())
    first = int(np.flatnonzero(is_rel)[0]) + 1 if is_rel.any() else 0
    return {"n_relevant": n_rel, "n_retrieved": int(top.size),
            "hits_at_k": int(is_rel.sum()), "first_rel_rank": first,
            "mrr_e6": 10 ** 6 // first if first else 0,
            "ndcg_e6": dcg * 10 ** 6 // idcg if idcg else 0}


def search_random_score(eng: SearchEngine, terms: list[str],
                        seed: str = "rs", k: int = 10) -> pa.Table:
    """ES ``function_score`` with ``random_score`` (seed + field,
    boost_mode=replace): rank the MATCHING docs by a deterministic
    per-doc pseudo-random value — the reproducible random sample of a
    result set (ES hashes seed+field the same way; same value on every
    replica and every re-query).  h = md5_lower64(f"{seed}:{doc_id}")
    >> 1, all-integer so the oracle is bit-exact with DuckDB's
    ``md5_number_lower``.  Candidates come from the df-bounded postings
    union — no corpus scan.  -> (rank, doc_id, h) top-k by h desc."""
    from onestools_eventlog_ray.functions import fasthash
    ids, _ = eng._taat_arrays(terms)
    if not ids.size:
        return pa.table({"rank": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64()),
                         "h": pa.array([], pa.int64())})
    keyed = pc.binary_join_element_wise(
        pa.array([f"{seed}:"] * ids.size, pa.string()),
        pc.cast(pa.array(ids, pa.int64()), pa.string()), "")
    h = (fasthash.md5_lower64(keyed) >> np.uint64(1)).astype(np.int64)
    order = np.lexsort((ids, -h))[:k]
    return pa.table({
        "rank": pa.array(np.arange(1, order.size + 1), pa.int64()),
        "doc_id": pa.array(ids[order], pa.int64()),
        "h": pa.array(h[order], pa.int64()),
    })


def rank_eval(eng: SearchEngine, requests: list[tuple[str, list[str]]],
              k: int = 10) -> pa.Table:
    """ES ``_rank_eval`` API: evaluate a whole SET of rated requests in
    one call — per request precision@k, recall@k, MRR and binary
    nDCG@k.  The rating rule is deterministic: a doc is relevant iff it
    contains ALL the request's terms (the conjunctive upper bound, the
    every-term mask of the request's postings — no corpus scan), while
    the ranking under test is the disjunctive BM25 top-k.  ES runs the
    same template: the `requests` array each carry `ratings`,
    the engine replays the query and folds the chosen metric.

    Exact integers everywhere: the rank discount ``floor(1e6 /
    log2(r+1) + 0.5)`` is rounded FIRST so DCG/IDCG are order-free int
    sums; every metric is ``num * 1e6 // den``.  One row per request,
    sorted by request name.  Each request costs O(sum df) — the whole
    evaluation is a handful of term lookups, never a corpus pass."""
    names = [n for n, _ in requests]
    out = {c: [] for c in ("query", "n_relevant", "n_retrieved",
                           "hits_at_k", "precision_e6", "recall_e6",
                           "mrr_e6", "ndcg_e6")}
    for name, terms in sorted(requests, key=lambda r: r[0]):
        j = _judge(eng, terms, k)
        hits = j["hits_at_k"] * 10 ** 6
        j["precision_e6"] = hits // j["n_retrieved"] if j["n_retrieved"] else 0
        j["recall_e6"] = hits // j["n_relevant"] if j["n_relevant"] else 0
        out["query"].append(name)
        for c in list(out)[1:]:
            out[c].append(j[c])
    assert len(set(names)) == len(names), "request names must be unique"
    return pa.table({
        "query": pa.array(out["query"], pa.string()),
        **{c: pa.array(out[c], pa.int64()) for c in list(out)[1:]},
    })


def posting_size_histogram(index_dir: str) -> pa.Table:
    """Index analytics: the df distribution of the term dictionary in
    log2 buckets — (bucket = floor(log2(df)), n_terms, sum_df).  The
    segment-statistics view that sizes posting caches and picks the
    block-max block length; ES exposes the same via _disk_usage.

    One distributed column-pruned scan of the shard dictionaries
    (posting blobs never read); 64-bucket partials fold in one tiny
    groupby.  log2 buckets are exact int math (bit_length - 1)."""
    import ray.data
    from ray.data.aggregate import Sum as RSum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        # floor(log2(df)) == bit_length(df) - 1: exact integer math,
        # no float-log edge cases at powers of two
        b = (np.frompyfunc(int.bit_length, 1, 1)(df).astype(np.int64)
             - 1)
        t = pa.table({"bucket": pa.array(b, pa.int64()),
                      "df": pa.array(df, pa.int64())})
        g = t.group_by("bucket").aggregate([("df", "sum"),
                                            ([], "count_all")])
        return pa.table({"bucket": g["bucket"],
                         "n_terms_p": g["count_all"].cast(pa.int64()),
                         "sum_df_p": g["df_sum"].cast(pa.int64())})

    return ray.data.read_parquet(os.path.join(index_dir, "shards"),
                                 columns=["df"]) \
        .map_batches(partial, batch_format="pyarrow") \
        .groupby("bucket") \
        .aggregate(RSum("n_terms_p", alias_name="n_terms"),
                   RSum("sum_df_p", alias_name="sum_df")) \
        .sort("bucket")


def score_histogram(eng: SearchEngine, terms: list[str],
                    bin_e6: int = 500_000) -> pa.Table:
    """Ranking-shape analytics: the distribution of BM25 scores over
    ALL docs matching the query, in fixed e6-score bins — flat
    histograms mean the query barely discriminates (add terms or
    boosts); long tails mean a crisp head.  The relevance-tuning view
    ES exposes via a histogram agg on ``_score``.

    One df-bounded TAAT pass; the histogram is bin-count-sized.
    -> (bin_lo_e6, n_docs) ascending."""
    _, scores = eng._taat_arrays(terms)
    e6 = np.floor(scores * 1_000_000 + 0.5).astype(np.int64)
    bins = (e6 // bin_e6) * bin_e6
    uq, counts = np.unique(bins, return_counts=True)
    return pa.table({
        "bin_lo_e6": pa.array(uq, pa.int64()),
        "n_docs": pa.array(counts.astype(np.int64), pa.int64()),
    })


def score_docs(eng: SearchEngine, terms: list[str],
               doc_ids: list[int]) -> dict[int, float]:
    """Exact BM25 scores for SPECIFIC documents (zero if no query term
    matches): the query terms' cached ``(ordinals, weights)`` summed in
    the SAME sorted-unique-term order as :meth:`SearchEngine.search` —
    bit-identical to the score the doc would carry in the ranked list,
    tombstoned or not."""
    score = np.zeros(eng.docs.size, dtype=np.float64)
    for o, w in eng._term_parts(sorted(set(terms))):
        score[o] += w
    out = {}
    for d in doc_ids:
        i = int(np.searchsorted(eng.docs, d))
        out[int(d)] = float(score[i]) \
            if i < eng.docs.size and eng.docs[i] == d else 0.0
    return out


def search_pinned(eng: SearchEngine, terms: list[str],
                  pinned_ids: list[int], k: int = 10) -> pa.Table:
    """ES ``pinned`` query: the given documents rank first IN THE GIVEN
    ORDER (each showing its organic BM25 score, 0 if it matches no
    query term), followed by the organic ranking with the pinned ids
    excluded, to ``k`` rows total.  Pinned ids are assumed live
    (tombstoned ids should be dropped by the caller).
    -> (rank, doc_id, score_e6, pinned)."""
    pins = [int(d) for d in pinned_ids][:k]
    sc = score_docs(eng, terms, pins)
    exc = np.array(sorted(set(pins)), dtype=np.int64)
    organic = eng.search(terms, k - len(pins), excluded=exc)
    ids = pins + [d for d, _ in organic]
    scores = [sc[d] for d in pins] + [s for _, s in organic]
    e6 = [int(np.floor(s * 1_000_000 + 0.5)) for s in scores]
    return pa.table({
        "rank": pa.array(range(1, len(ids) + 1), pa.int64()),
        "doc_id": pa.array(ids, pa.int64()),
        "score_e6": pa.array(e6, pa.int64()),
        "pinned": pa.array([1] * len(pins) + [0] * len(organic),
                           pa.int64()),
    })


def adjacency_matrix_named(index_dir: str,
                           filters: dict[str, str]) -> pa.Table:
    """ES ``adjacency_matrix`` aggregation in its RESPONSE shape: named
    term filters -> one keyed bucket per filter (``name``) and per
    pairwise intersection (``nameA&nameB``, names in sorted order),
    empty buckets omitted — exactly what the ES API returns.

    Thin reshaping layer over :func:`adjacency_matrix` (the pairwise
    posting-intersection kernel: shard-pruned reads, sorted-array
    merges, nothing corpus-sized).  -> (key, n_docs) sorted by key."""
    names = sorted(filters)
    term_name = {}
    for n in names:                     # distinct names may share a term
        term_name.setdefault(filters[n], []).append(n)
    mat = adjacency_matrix(SearchEngine(index_dir),
                           [filters[n] for n in names])
    keys, counts = [], []
    for a, b, n_docs in zip(mat["key_a"].to_pylist(),
                            mat["key_b"].to_pylist(),
                            mat["n_docs"].to_pylist()):
        if not n_docs:
            continue
        for na in term_name[a]:
            for nb in term_name[b]:
                if a == b and na >= nb:          # diagonal: single key
                    if na == nb:
                        keys.append(na)
                        counts.append(int(n_docs))
                    continue
                lo, hi = sorted((na, nb))
                keys.append(f"{lo}&{hi}")
                counts.append(int(n_docs))
    order = np.argsort(np.asarray(keys, dtype=object))
    return pa.table({
        "key": pa.array([keys[i] for i in order], pa.string()),
        "n_docs": pa.array([counts[i] for i in order], pa.int64()),
    })


def search_pit(index_dir: str, pit: dict, terms: list[str],
               k: int = 10, tie: str = "float") -> list[tuple[int, float]]:
    """ES point-in-time search: rank against the delete state pinned by
    ``pit`` (from ``state.tombstones.open_pit``) — deletes applied
    after the PIT opened are invisible, exactly ES PIT semantics over
    immutable segments.  Works because shards/docstore are append-only
    and the engine's corpus statistics are those of the BUILT index
    either way; only the result-membership mask time-travels.  A fresh
    engine instance is used so per-instance posting caches never mix
    delete states."""
    from onestools_eventlog_ray.state.tombstones import load_tombstones_at
    eng = SearchEngine(index_dir)
    eng.deleted = load_tombstones_at(index_dir, pit)
    return eng.search(terms, k, tie=tie)


def msearch(eng: SearchEngine, queries: list[list[str]],
            k: int = 10) -> pa.Table:
    """ES ``_msearch``: execute N independent term queries in ONE
    request against one engine, sharing a single posting-load pass —
    every leaf's ``load_terms`` on the UNION of all query terms (through
    ``df_of``) opens each shard file once with a combined ``term IN``
    filter, then every query scores from the warm caches (no more I/O).

    The reference ships query batches to ElasticSearch's ``_msearch``
    bulk endpoint; here the batching win is explicit: Q queries over T
    distinct terms cost max(1, shards-touched) parquet reads instead of
    Q x per-query reads.  The distributed batch stage
    (``score_queries``) does not union-load: each task scores its rows
    one by one through its worker's cached engine, whose term and
    weight caches carry shard reads over from earlier rows and calls.

    -> (query_id, rank, doc_id, score_e6); per query ranked on the
    quantized integer score with (e6 desc, doc_id asc) tie-break, len
    <= k per query — oracle-exact and O(Q*k) on the driver."""
    eng.df_of(sorted({t for q in queries for t in q}))
    qid, rank, did, e6 = [], [], [], []
    for qi, terms in enumerate(queries):
        hits = eng.search(terms, k=k, tie="e6")
        for r, (doc, sc) in enumerate(hits, start=1):
            qid.append(qi)
            rank.append(r)
            did.append(doc)
            e6.append(int(np.floor(sc * 1e6 + 0.5)))
    return pa.table({
        "query_id": pa.array(qid, pa.int64()),
        "rank": pa.array(rank, pa.int64()),
        "doc_id": pa.array(did, pa.int64()),
        "score_e6": pa.array(e6, pa.int64()),
    })
