"""Incremental (generational) indexing — the batch analog of the
reference's live tailing.

The reference follows a growing log: a FileSystemWatcher wakes the
reader when new LGP files appear (SURVEY.md §2.10 W1,
``/root/reference/OneSTools.EventLog/EventLogReader.cs:156-173``) and the
stored position makes restarts incremental.  Our batch equivalent:
**new documents arrive as a new GENERATION** — a self-contained index
(own docstore, shards, manifest, stats) built by the normal pipeline
under ``<root>/gen-NNNN``.  No existing shard is rewritten (append-only,
like the reference's sinks), and a crashed generation build resumes via
its own partition manifest.

Query-time the generations compose EXACTLY: BM25 needs global N, avgdl
and df, all of which are sums over generations; postings store raw
(tf, dl) so per-doc weights are recomputed under the global stats —
the merged engine is therefore rank-identical to a single full build
(tests/test_incremental.py proves it against the brute-force oracle).
``query.SearchEngine(root)`` opens a root as one engine over its
generations' leaves (every query family, the weight cache included),
and the doc-sharded tier (``pipelines/serving.py``) runs one such
engine per shard under the tier's global stats.

The rest of the index lifecycle lives here too: compaction, reindex and
update_by_query rebuild from a docstore read back as a corpus
(``_docstore_corpus``), and ``shrink_index`` / ``split_index`` change
the shard count through one writer (``_reshard``) that links every
other file through ``state.snapshot``, the module that also owns
snapshot and restore.
"""

from __future__ import annotations

import os
import re

import numpy as np

from onestools_eventlog_ray.config import EngineConfig
# unused here: perfbench/layers.py patches this module's pick_topk
from onestools_eventlog_ray.functions.bm25 import pick_topk  # noqa: F401
from onestools_eventlog_ray.pipelines.build import build_index
from onestools_eventlog_ray.pipelines.query import SearchEngine
from onestools_eventlog_ray.sources.corpus import CorpusSpec, CODE_CORPUS_SPEC
from onestools_eventlog_ray.stages.postings import write_shard

_GEN_RE = re.compile(r"^gen-(\d{4})$")


def list_generations(index_root: str) -> list[str]:
    if not os.path.isdir(index_root):
        return []
    gens = [d for d in os.listdir(index_root) if _GEN_RE.match(d)]
    return [os.path.join(index_root, d) for d in sorted(gens)]


def add_generation(corpus_paths, index_root: str,
                   spec: CorpusSpec = CODE_CORPUS_SPEC,
                   cfg: EngineConfig = EngineConfig()) -> dict:
    """Index a new batch of documents as the next generation.  Returns the
    build report (with ``generation_dir``).  Re-running after a crash
    resumes the LAST generation via its partition manifest (same lineage
    rules as a full build)."""
    gens = list_generations(index_root)
    if gens:
        last = gens[-1]
        # an incomplete last generation (missing stats or partitions) is
        # resumed in place rather than leaving a hole
        try:
            from onestools_eventlog_ray.state import checkpoint as ckpt
            st = ckpt.read_stats(last)
            complete = len(ckpt.done_partitions(last, st["fingerprint"])) \
                >= st.get("num_partitions", cfg.num_partitions)
        except Exception:
            complete = False
        next_id = len(gens) if complete else len(gens) - 1
    else:
        next_id = 0
    gen_dir = os.path.join(index_root, f"gen-{next_id:04d}")
    report = build_index(corpus_paths, gen_dir, spec=spec, cfg=cfg)
    report["generation_dir"] = gen_dir
    return report


class CorpusWatcher:
    """Event-driven continuous ingestion — closes the reference's live
    tailing surface (SURVEY.md §2.10 W1,
    ``/root/reference/OneSTools.EventLog/EventLogReader.cs:156-173``: a
    FileSystemWatcher wakes the reader when new LGP files appear).  The
    engine's analog watches a corpus DIRECTORY and indexes every new
    parquet partition file as the next generation automatically:

        w = CorpusWatcher(corpus_dir, index_root)
        w.sync()              # one round: new files -> add_generation
        w.watch(interval_s=5) # poll loop (the wakeup signal)

    Exactly-once per file: the per-file signature set (name, size,
    mtime) is persisted ATOMICALLY to ``<index_root>/watch_state.json``
    only AFTER a generation build succeeds, so a crash mid-build leaves
    the files pending and the next sync resumes the same (incomplete)
    generation via its partition manifest (:func:`add_generation`'s
    resume rule).  Partition files are append-only by contract — a file
    whose size/mtime CHANGES after being indexed would silently
    duplicate its old documents, so it raises by default
    (``on_modified='error'``); ``'ignore'`` skips it with a report note.
    """

    def __init__(self, corpus_dir: str, index_root: str,
                 spec: CorpusSpec = CODE_CORPUS_SPEC,
                 cfg: EngineConfig = EngineConfig(),
                 on_modified: str = "error"):
        if on_modified not in ("error", "ignore"):
            raise ValueError(f"unknown on_modified {on_modified!r}")
        self.corpus_dir = corpus_dir
        self.index_root = index_root
        self.spec = spec
        self.cfg = cfg
        self.on_modified = on_modified
        self._state_path = os.path.join(index_root, "watch_state.json")

    # -- state ------------------------------------------------------------
    def _read_state(self) -> dict:
        import json
        try:
            with open(self._state_path) as f:
                return json.load(f)
        except FileNotFoundError:
            return {"files": {}}

    def _file_sig(self, path: str) -> str:
        st = os.stat(path)
        return f"{st.st_size}:{st.st_mtime_ns}"

    def pending(self) -> tuple[list[str], list[str]]:
        """-> (new files to index, already-indexed files that changed)."""
        state = self._read_state()["files"]
        new, modified = [], []
        for name in sorted(os.listdir(self.corpus_dir)):
            if not name.endswith((".parquet", ".pq")):
                continue
            p = os.path.join(self.corpus_dir, name)
            sig = self._file_sig(p)
            if name not in state:
                new.append(p)
            elif state[name] != sig:
                modified.append(p)
        return new, modified

    # -- rounds -----------------------------------------------------------
    def sync(self) -> dict:
        """One reconciliation round; builds at most one new generation."""
        import json
        from onestools_eventlog_ray.state.checkpoint import atomic_write_text
        new, modified = self.pending()
        if modified and self.on_modified == "error":
            raise ValueError(
                f"already-indexed corpus files changed in place: "
                f"{[os.path.basename(p) for p in modified]} — partition "
                "files are append-only; write new files instead")
        if not new:
            return {"generation_dir": None, "indexed_files": [],
                    "modified_ignored": [os.path.basename(p)
                                         for p in modified]}
        rep = add_generation(new, self.index_root,
                             spec=self.spec, cfg=self.cfg)
        state = self._read_state()
        for p in new:
            state["files"][os.path.basename(p)] = self._file_sig(p)
        atomic_write_text(self._state_path, json.dumps(state, indent=1))
        return {**rep,
                "indexed_files": [os.path.basename(p) for p in new],
                "modified_ignored": [os.path.basename(p)
                                     for p in modified]}

    def sync_with_alerts(self, rules: dict[str, list[str]]) -> dict:
        """ES WATCHER analog — one reconciliation round PLUS saved-search
        alerting over ONLY the newly ingested partition files: which
        alert rules (bool-must term sets, the ``text.percolate``
        contract) did the new documents trigger?  The percolation
        streams just the new files once with the rules broadcast — cost
        is independent of index size, the shape an alerting hook needs
        at any scale.  Returns the ``sync()`` report plus ``alerts``
        (a (doc_id, query_name) pyarrow table, sorted)."""
        import pyarrow as pa
        from onestools_eventlog_ray.pipelines.text import percolate
        from onestools_eventlog_ray.sources.corpus import \
            read_parquet_clean
        rep = self.sync()
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "query_name": pa.array([], pa.string())})
        if not rep.get("indexed_files") or not rules:
            return {**rep, "alerts": empty}
        paths = [os.path.join(self.corpus_dir, n)
                 for n in rep["indexed_files"]]
        ds = read_parquet_clean(paths)
        alerts = percolate(ds, rules, self.spec).to_pandas()
        if len(alerts) == 0:
            return {**rep, "alerts": empty}
        alerts = alerts.sort_values(["query_name", "doc_id"]) \
            .reset_index(drop=True)
        return {**rep, "alerts": pa.Table.from_pandas(
            alerts, preserve_index=False)}

    def watch(self, interval_s: float = 5.0,
              max_rounds: int | None = None,
              backend: str = "auto") -> list[dict]:
        """Wakeup loop around :meth:`sync`; returns the non-noop reports.

        ``backend="inotify"`` (or ``"auto"`` on Linux) is EVENT-driven —
        the reference's ``FileSystemWatcher`` + ``ManualResetEvent``
        shape (``EventLogReader.cs:156-173``): the loop blocks on the
        directory's inotify fd and a completed corpus file triggers the
        next reconciliation within milliseconds, with ``interval_s`` as
        the fallback heartbeat (changes that bypass inotify — network
        mounts — still reconcile once per interval, exactly why the
        reference keeps its timer too).  ``backend="poll"`` is the plain
        sleep loop for platforms without inotify."""
        import time
        from onestools_eventlog_ray.functions.inotify import (
            Inotify, inotify_available)
        if backend not in ("auto", "inotify", "poll"):
            raise ValueError(f"unknown watch backend {backend!r}")
        use_events = backend == "inotify" or (
            backend == "auto" and inotify_available(self.corpus_dir))
        ino = Inotify(self.corpus_dir) if use_events else None
        try:
            out = []
            n = 0
            while max_rounds is None or n < max_rounds:
                rep = self.sync()
                if rep.get("indexed_files"):
                    out.append(rep)
                n += 1
                if max_rounds is None or n < max_rounds:
                    if ino is not None:
                        ino.wait(interval_s)     # event OR heartbeat
                    else:
                        time.sleep(interval_s)
            return out
        finally:
            if ino is not None:
                ino.close()


def _docstore_corpus(index_dirs: list[str]
                     ) -> tuple[CorpusSpec, list[str]]:
    """Read indexes' docstores back as a corpus: -> (the spec of their
    ``doc_id``, ``content`` and meta columns, the sorted part files).
    The docstores carry the full content, so compaction, reindex and
    update_by_query are ``build_index`` over them.  A docstore built
    with ``store_content=False`` has no content column and fails EARLY
    instead of crashing mid-build (round-2 ADVICE, low)."""
    import glob
    from onestools_eventlog_ray.state import checkpoint as ckpt
    stats = ckpt.read_stats(index_dirs[0])
    if not stats.get("config", {}).get("store_content", True):
        raise ValueError(f"{index_dirs[0]} was built with "
                         "store_content=False: its docstore carries no "
                         "content column to re-index")
    part_files = sorted(f for d in index_dirs for f in
                        glob.glob(os.path.join(d, "docstore", "*.parquet")))
    if not part_files:
        raise FileNotFoundError(f"no docstore under {index_dirs}")
    return CorpusSpec(content_col="content", id_col="doc_id",
                      key_cols=("doc_id",),
                      meta_cols=tuple(stats.get("spec", {})
                                      .get("meta_cols", ()))), part_files


def compact_generations(index_root: str, out_dir: str,
                        cfg: EngineConfig = EngineConfig()) -> dict:
    """Merge all generations into ONE fresh index (the ES force-merge
    analog): the generations' docstores — which carry the full content —
    ARE a valid corpus (``doc_id`` + ``content`` columns), so compaction
    is simply ``build_index`` over their union.  The compacted index is
    rank-identical to the generational engine (both equal a single full
    build over the union of documents — proved in tests), with
    single-index query cost (one shard probe per term instead of one
    per generation)."""
    gens = list_generations(index_root)
    if not gens:
        raise FileNotFoundError(f"no generations under {index_root}")
    # carry the generations' OWN spec through compaction: meta columns
    # survive (search_filtered / fetch_docs keep working on the compacted
    # index)
    spec, part_files = _docstore_corpus(gens)
    # compaction PHYSICALLY drops tombstoned docs (the segment-merge
    # analog of ES soft-deletes): the docs the root's engine masks (root
    # + per-generation tombstones) are excluded at the read, and the
    # compacted index carries none
    deleted = SearchEngine(index_root).deleted
    report = build_index(part_files, out_dir, spec=spec, cfg=cfg,
                         exclude_doc_ids=deleted if deleted.size else None)
    report["n_generations"] = len(gens)
    report["n_deleted_dropped"] = int(deleted.size)
    return report


# a name, not a class: perfbench/run.py's traced serving op imports it
GenerationalSearchEngine = SearchEngine


def reindex(src_index: str, out_dir: str, where: dict | None = None,
            cfg: EngineConfig = EngineConfig()) -> dict:
    """ES ``_reindex`` (optionally with a query): build a NEW index from
    a source index's docstore, keeping only documents that match the
    metadata predicate.  ``where`` uses the ``search_filtered``
    convention — scalar = equality, ``(lo, hi)`` tuple = inclusive range
    — and its :func:`~onestools_eventlog_ray.pipelines.query.where_expr`
    predicate is pushed down to the parquet read (nothing non-matching
    leaves storage); source tombstones are honored via the same
    pushdown.
    The new index carries its OWN stats (N/avgdl/df of the subset),
    exactly like a real ES reindex-into-smaller-index."""
    from onestools_eventlog_ray.pipelines.query import where_expr
    from onestools_eventlog_ray.state.tombstones import load_tombstones
    spec, part_files = _docstore_corpus([src_index])
    where = where or {}
    for c in sorted(where):
        if c != "doc_id" and c not in spec.meta_cols:
            raise KeyError(f"predicate column {c!r} not in docstore "
                           f"meta columns {spec.meta_cols}")
    # the resume fingerprint's text of the predicate (Expressions have
    # no canonical form): "<c>=<v>" or "<c>in[<lo>,<hi>]", in column order
    sig = ";".join(f"{c}in[{v[0]},{v[1]}]" if isinstance(v, tuple)
                   else f"{c}={v}" for c, v in sorted(where.items()))
    deleted = load_tombstones(src_index)
    report = build_index(part_files, out_dir, spec=spec, cfg=cfg,
                         exclude_doc_ids=deleted if deleted.size else None,
                         row_filter=where_expr(where) if where else None,
                         row_filter_sig=sig or "all")
    report["src_index"] = src_index
    return report


def index_diff(index_a: str, index_b: str) -> ray.data.Dataset:
    """Docstore reconciliation between two indexes (ES snapshot-diff /
    reindex audit): for every doc_id in either index, whether it was
    ``removed`` (A only), ``added`` (B only), ``changed`` (both,
    content sha differs) or ``same``.  The audit a reindex-with-query
    or compaction run publishes.

    Distributed tagged-union co-group over the two docstores — only
    (doc_id, sha) rows shuffle, content stays columnar in the scans.
    -> (doc_id, status)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data
    from ray.data.aggregate import Max

    def tag(side: str):
        def fn(batch: pa.Table) -> pa.Table:
            sha = batch["content_sha256"]
            null = pa.nulls(batch.num_rows, pa.string())
            return pa.table({
                "doc_id": batch["doc_id"],
                "sha_a": sha if side == "a" else null,
                "sha_b": sha if side == "b" else null,
            })
        return fn

    a = ray.data.read_parquet(os.path.join(index_a, "docstore"),
                              columns=["doc_id", "content_sha256"]) \
        .map_batches(tag("a"), batch_format="pyarrow")
    b = ray.data.read_parquet(os.path.join(index_b, "docstore"),
                              columns=["doc_id", "content_sha256"]) \
        .map_batches(tag("b"), batch_format="pyarrow")
    folded = a.union(b).groupby("doc_id").aggregate(
        Max("sha_a", alias_name="sha_a"), Max("sha_b", alias_name="sha_b"))

    def status(batch: pa.Table) -> pa.Table:
        ha = batch["sha_a"].to_numpy(zero_copy_only=False)
        hb = batch["sha_b"].to_numpy(zero_copy_only=False)
        st = np.where(pc.is_null(batch["sha_b"]).to_numpy(
                          zero_copy_only=False), "removed",
             np.where(pc.is_null(batch["sha_a"]).to_numpy(
                          zero_copy_only=False), "added",
             np.where(ha == hb, "same", "changed")))
        return pa.table({"doc_id": batch["doc_id"],
                         "status": pa.array(st.astype(object),
                                            pa.string())})

    return folded.map_batches(status, batch_format="pyarrow")


def _reshard(src_index: str, out_dir: str, P2: int, origin: dict) -> dict:
    """Write ``src_index`` with ``P2`` term shards into ``out_dir``: the
    one writer behind :func:`shrink_index` and :func:`split_index`.

    Routing is ``md5(term) % P``, so with ``g = gcd(P, P2)`` a term of
    target shard ``j`` sits in a source shard ``r`` with
    ``r % g == j % g``.  One Ray task per target reads those sources,
    keeps the rows with ``term_partition(term, P2) == j`` and writes
    them term-sorted (K4) through ``write_shard``; a target with no rows
    gets no file.  The manifest gets one partition record per target
    shard, naming the shard inside ``out_dir`` (``""`` for an empty
    one).  Every other file is linked through
    ``state.snapshot.link_or_copy`` (the docstore, tombstones and the
    sidecars, which record their own ``num_partitions``), and
    ``stats.json`` is rewritten with ``num_partitions=P2`` plus
    ``origin``.  Corpus stats (N, avgdl, df) are unchanged, so every
    BM25 score is bit-identical to the source's."""
    import math
    import ray
    from onestools_eventlog_ray.state import checkpoint as ckpt
    from onestools_eventlog_ray.state.snapshot import (index_files,
                                                       link_or_copy)

    stats = ckpt.read_stats(src_index)
    P = int(stats["num_partitions"])
    g = math.gcd(P, P2)

    def shard_path(j: int) -> str:
        return os.path.join(out_dir, "shards", f"part-{j:05d}.parquet")

    @ray.remote
    def write_target(j: int) -> tuple[int, int]:
        import pyarrow as pa_
        import pyarrow.parquet as pq_
        from onestools_eventlog_ray.functions.hashing import term_partition
        srcs = [os.path.join(src_index, "shards", f"part-{r:05d}.parquet")
                for r in range(j % g, P, g)]
        tbls = [pq_.read_table(s) for s in srcs if os.path.exists(s)]
        if not tbls:
            return 0, 0
        t = pa_.concat_tables(tbls)
        t = t.filter(pa_.array(
            term_partition(t["term"].combine_chunks(), P2) == j))
        if not t.num_rows:
            return 0, 0
        write_shard(t.sort_by("term"), shard_path(j))
        return t.num_rows, int(t["df"].to_numpy().sum())

    jobs = [write_target.remote(j) for j in range(P2)]
    for rel, path in index_files(src_index):
        if rel != "stats.json" and not rel.startswith(
                ("shards" + os.sep, "manifest" + os.sep)):
            link_or_copy(path, os.path.join(out_dir, rel))
    n_rows = 0
    for j, (n_terms, n_post) in enumerate(ray.get(jobs)):
        n_rows += n_terms
        ckpt.write_record(out_dir, ckpt.PartitionRecord(
            partition_id=j, input_fingerprint=stats.get("fingerprint", ""),
            output_path=shard_path(j) if n_terms else "", n_terms=n_terms,
            n_postings=n_post, status="done"))
    ckpt.write_stats(out_dir, {
        **stats, "num_partitions": P2,
        "config": dict(stats.get("config", {}), num_partitions=P2),
        **origin})
    return {"num_partitions": P2, "n_postings_rows": n_rows}


def shrink_index(src_index: str, out_dir: str, factor: int = 2) -> dict:
    """ES ``_shrink``: reduce the shard count of an index WITHOUT
    rebuilding — the target shard count must divide the source count
    (the same constraint ES imposes), because the term routing
    ``md5(term) % P`` is compatible: ``h % P == r`` implies
    ``h % (P/f) == r % (P/f)``, so new shard ``j`` is exactly the
    merge of old shards ``{r : r % P' == j}`` and every query keeps
    probing the right (now bigger) shard.

    One Ray task per new shard merges its ``factor`` source part files
    (:func:`_reshard`) — O(index size / P') per task, embarrassingly
    parallel, no shuffle.  Every other file is HARDLINKED (copy
    fallback), like ES shrink hardlinks Lucene segments; the
    ``positions/`` and ``impacts/`` sidecars keep their own partition
    count.  BM25 scores are bit-identical to the source index (rank
    identity proven in tests/test_round4h.py).

    Reference parity: the original's index-lifecycle management keeps
    ES storage bounded (ElasticSearchStorage.cs index templates /
    rollover); shrink is the missing-shard-count half of that story."""
    from onestools_eventlog_ray.state import checkpoint as ckpt
    P = int(ckpt.read_stats(src_index)["num_partitions"])
    if factor < 1 or P % factor:
        raise ValueError(f"factor {factor} must divide num_partitions {P}")
    rep = _reshard(src_index, out_dir, P // factor, {"shrunk_from": {
        "src_index": src_index, "num_partitions": P, "factor": factor}})
    return {**rep, "factor": factor}


def split_index(src_index: str, out_dir: str, factor: int = 2) -> dict:
    """ES ``_split``: MULTIPLY the shard count of an index without
    rebuilding — the exact inverse of :func:`shrink_index`.  Every term
    in old shard ``r`` satisfies ``md5(term) % P == r``, so under the
    new count ``f*P`` it can only land in one of the ``f`` shards
    ``{r, r+P, ..., r+(f-1)P}``; one Ray task per NEW shard ``j`` reads
    old shard ``j % P`` and keeps the rows the vectorized term hash
    routes to ``j`` (:func:`_reshard`; terms stay disjoint and sorted,
    K4).  No shuffle; every other file hardlinked, sidecars keep their
    own partition count; stats unchanged -> BM25 bit-identity, like
    shrink.  ES uses the same trick (routing-space subdivision) to
    split without reindexing."""
    from onestools_eventlog_ray.state import checkpoint as ckpt
    P = int(ckpt.read_stats(src_index)["num_partitions"])
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    rep = _reshard(src_index, out_dir, P * factor, {"split_from": {
        "src_index": src_index, "num_partitions": P, "factor": factor}})
    return {**rep, "factor": factor}


def update_by_query(src_index: str, out_dir: str,
                    match_terms: list[str],
                    append_token: str = "updatedmarker",
                    set_meta: dict[str, str] | None = None,
                    cfg: EngineConfig = EngineConfig()) -> dict:
    """ES ``_update_by_query`` (batch analog — ES itself documents the
    API as "reindex in place"): every live document whose text contains
    ALL ``match_terms`` is rewritten by the script (append
    ``append_token`` to the text, set the ``set_meta`` fields) and the
    index is rebuilt so the POSTINGS reflect the update — the marker
    token becomes searchable, exactly like ES reindexing the matched
    docs with a new ``_version``.

    Streaming shape: one column-pruned pass over the source docstore
    (tombstones honored via the same pushdown as :func:`reindex`), the
    match evaluated per batch with the vectorized tokenizer (no
    postings round-trip, no driver materialization), the rewritten
    corpus written as partitioned parquet, then the normal distributed
    build.  -> build report + ``n_updated``."""
    import glob

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from onestools_eventlog_ray.functions.analyzer import tokenize_array
    from onestools_eventlog_ray.state.tombstones import load_tombstones

    spec, part_files = _docstore_corpus([src_index])
    meta_cols = spec.meta_cols
    deleted = load_tombstones(src_index)
    terms = sorted(set(match_terms))
    metas = dict(set_meta or {})
    for c in metas:
        if c not in meta_cols:
            raise KeyError(f"set_meta column {c!r} not in docstore "
                           f"meta columns {meta_cols}")

    def script(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("n_upd_p",
                                       pa.array([], pa.int64()))
        toks = tokenize_array(batch["content"])
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        offs = toks.offsets.to_numpy(zero_copy_only=False)
        flat = toks.flatten()
        mask = np.ones(batch.num_rows, dtype=bool)
        counts = np.diff(offs)
        for t in terms:
            eq = pc.equal(flat, t).to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            hits = np.add.reduceat(eq, offs[:-1]) if eq.size else \
                np.zeros(batch.num_rows, dtype=np.int64)
            hits[counts == 0] = 0       # reduceat artifact on empty rows
            mask &= hits > 0
        amask = pa.array(mask)
        content = batch["content"]
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        sep = pa.array([" " + append_token] * batch.num_rows,
                       content.type)
        updated = pc.binary_join_element_wise(content, sep, "")
        cols = {"doc_id": batch["doc_id"],
                "content": pc.if_else(amask, updated, content)}
        for c in meta_cols:
            col = batch[c]
            if c in metas:
                col = pc.if_else(amask, pa.scalar(metas[c]), col)
            cols[c] = col
        return pa.table(cols)

    corpus_dir = out_dir.rstrip("/") + "_corpus"
    if os.path.isdir(corpus_dir):      # half-written corpus from a crash
        import shutil                  # would duplicate rows on append
        shutil.rmtree(corpus_dir)
    os.makedirs(corpus_dir, exist_ok=True)
    ray.data.read_parquet(part_files) \
        .map_batches(script, batch_format="pyarrow") \
        .write_parquet(corpus_dir)
    files = sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))
    report = build_index(files, out_dir, spec=spec, cfg=cfg,
                         exclude_doc_ids=deleted if deleted.size else None)
    # n_updated read back from the built postings: the marker's df IS
    # the number of rewritten docs (pick a token absent from the
    # corpus; one shard-pruned term lookup, no extra corpus pass)
    hit = SearchEngine(out_dir).load_terms([append_token]) \
        .get(append_token)
    report["n_updated"] = int(hit[0]) if hit else 0
    report["src_index"] = src_index
    return report
