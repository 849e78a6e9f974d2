"""Index build pipeline — the engine's equivalent of the reference's
export lifecycle (``/root/reference/OneSTools.EventLog.Exporter.Core/EventLogExporter.cs:96-156``):

    read_parquet(corpus)                       ONE read, streamed as block refs
      -> _map_combined            [docstore part files + stats partial +
                                   (term, doc_id, tf, dl) triples split by
                                   gkey = hash(term, doc-range salt) % G]
      -> _encode_partition_ranged [per gkey: lexsort + encode salted runs,
                                   split by pkey = hash(term) % P]
    fold stats partials -> N, avgdl, fingerprint
      -> commit stats.json + _DOCSTORE_DONE marker
      -> _merge_partition         [per pkey: splice runs -> shard parquet
                                   + checkpoint record]

(stages/exchange.py).  Resume, like the reference's stored-position
restart (``EventLogExporter.cs:203-232``): a rerun that finds a valid
marker reads the corpus through the same chain with no docstore writes,
drops rows of partitions recorded ``done`` at the map, and merges only
the missing partitions — after checking that the corpus still folds to
the recorded fingerprint.  With every partition ``done`` it reads
nothing.
"""

from __future__ import annotations

import os
import shutil
import time

from onestools_eventlog_ray.config import EngineConfig
from onestools_eventlog_ray.sources.corpus import CorpusSpec, CODE_CORPUS_SPEC, read_corpus
from onestools_eventlog_ray.stages.exchange import (build_combined_exchange,
                                                    pick_salt_ranges)
from onestools_eventlog_ray.stages import stats as stats_mod
from onestools_eventlog_ray.state import checkpoint as ckpt


#: canonical definition lives in state/checkpoint.py (stamped into every
#: stats manifest and validated by every reader); re-exported here for
#: the docstore marker and external callers.
LAYOUT_VERSION = ckpt.LAYOUT_VERSION


def docstore_path(index_dir: str) -> str:
    return os.path.join(index_dir, "docstore")


def _input_signature(corpus_paths) -> str:
    """Cheap corpus identity (paths + sizes + mtimes) guarding docstore reuse."""
    import hashlib
    paths = [corpus_paths] if isinstance(corpus_paths, str) else list(corpus_paths)
    h = hashlib.blake2b(digest_size=8)
    for p in sorted(paths):
        if os.path.isdir(p):
            for name in sorted(os.listdir(p)):
                fp = os.path.join(p, name)
                st = os.stat(fp)
                h.update(f"{fp}:{st.st_size}:{st.st_mtime_ns}".encode())
        elif os.path.exists(p):
            st = os.stat(p)
            h.update(f"{p}:{st.st_size}:{st.st_mtime_ns}".encode())
    return h.hexdigest()


def _estimate_corpus_rows(corpus_paths, max_footers: int = 256) -> int | None:
    """Metadata-only row estimate for salt-fan-out sizing: sample up to
    ``max_footers`` parquet footers evenly and extrapolate by file count.
    Never reads data pages; returns None when the corpus isn't local
    parquet files (jsonl, globs we can't enumerate).  Only used to pick
    the salt fan-out, where a 2x error is harmless (any fan-out is
    correct — tests/test_salt_equivalence)."""
    import pyarrow.parquet as pq
    paths = [corpus_paths] if isinstance(corpus_paths, str) else list(corpus_paths)
    files: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            for name in sorted(os.listdir(p)):
                if name.endswith((".parquet", ".pq")):
                    files.append(os.path.join(p, name))
        elif os.path.isfile(p) and p.endswith((".parquet", ".pq")):
            files.append(p)
        else:
            return None
    if not files:
        return None
    step = max(1, len(files) // max_footers)
    sample = files[::step][:max_footers]
    try:
        rows = sum(pq.ParquetFile(f).metadata.num_rows for f in sample)
    except Exception:
        return None
    return int(rows * (len(files) / len(sample)))


def build_index(corpus_paths, index_dir: str,
                spec: CorpusSpec = CODE_CORPUS_SPEC,
                cfg: EngineConfig = EngineConfig(),
                exclude_doc_ids=None,
                row_filter=None, row_filter_sig: str = "",
                corpus_fmt: str = "parquet") -> dict:
    """Build (or resume) the full-text index. Returns a build report dict.

    ``exclude_doc_ids``: optional id array dropped AT THE READ (parquet
    filter pushdown) — the physical-delete path compaction uses to drop
    tombstoned documents.  Requires ``spec.id_col`` (a pre-existing id
    column the reader can filter on).

    ``row_filter``: optional ``pyarrow.dataset`` Expression pushed to the
    corpus read (the ES ``_reindex``-with-query path); callers MUST pass
    a stable ``row_filter_sig`` describing it, since Expressions have no
    canonical serialization — the signature keys the resume marker so a
    rebuilt filter invalidates stale docstores."""
    t_start = time.monotonic()
    os.makedirs(index_dir, exist_ok=True)

    read_kwargs: dict = {}
    excl_sig = ""
    if corpus_fmt != "parquet":
        # jsonl etc. have no pushdown layer; filters require parquet
        if row_filter is not None or exclude_doc_ids is not None:
            raise ValueError("row_filter/exclude_doc_ids require a "
                             "parquet corpus (pushdown)")
        read_kwargs["fmt"] = corpus_fmt
        excl_sig = f" fmt={corpus_fmt}"
    if row_filter is not None:
        if not row_filter_sig:
            raise ValueError("row_filter requires row_filter_sig")
        read_kwargs["filter"] = row_filter
        excl_sig = f" flt={row_filter_sig}"
        # fail loudly on an all-filtered corpus: an empty index is
        # semantically broken (avgdl/idf undefined)
        import ray.data as _rd
        probe = _rd.read_parquet(corpus_paths,
                                 columns=spec.read_cols(with_content=False),
                                 filter=row_filter).limit(1).take_all()
        if not probe:
            raise ValueError(
                f"row_filter {row_filter_sig!r} matches no documents; "
                "refusing to build an empty index")
    if exclude_doc_ids is not None:
        import numpy as np
        excl = np.unique(np.asarray(list(exclude_doc_ids), dtype=np.int64))
        if excl.size:
            if not spec.id_col:
                raise ValueError("exclude_doc_ids requires a CorpusSpec "
                                 "with a pre-existing id column")
            import pyarrow.dataset as pads
            not_deleted = ~pads.field(spec.id_col).isin(excl.tolist())
            read_kwargs["filter"] = (read_kwargs["filter"] & not_deleted
                                     if "filter" in read_kwargs
                                     else not_deleted)
            import hashlib
            excl_sig += " excl=" + hashlib.blake2b(
                excl.tobytes(), digest_size=8).hexdigest()

    dstore = docstore_path(index_dir)
    # the marker makes a completed docstore (and its stats manifest)
    # reusable on resume, like the reference skipping already-exported
    # positions
    done_marker = os.path.join(dstore, "_DOCSTORE_DONE")
    marker_text = (f"layout={LAYOUT_VERSION} "
                   f"pattern={cfg.token_split_pattern} "
                   f"store_content={cfg.store_content} "
                   f"input={_input_signature(corpus_paths)}{excl_sig}")
    P = cfg.num_partitions

    def salt_fanout() -> int:
        return pick_salt_ranges(cfg, _estimate_corpus_rows(corpus_paths)
                                if corpus_fmt == "parquet" else None)

    def manifest(stats: dict, S: int) -> dict:
        return {**stats, "salt_ranges_used": S, "num_partitions": P,
                "config": cfg.to_dict(), "salting": f"fixed-range:{S}",
                "spec": {"content_col": spec.content_col,
                         "id_col": spec.id_col,
                         "key_cols": list(spec.key_cols),
                         "meta_cols": list(spec.meta_cols)}}

    resume = False
    if os.path.exists(done_marker):
        with open(done_marker) as f:
            resume = f.read() == marker_text
    if resume:
        # ---- resume: docstore + stats committed by an earlier run -------
        try:
            prior = ckpt.read_stats(index_dir)
            stats = {k: prior[k] for k in
                     ("n_docs", "total_tokens", "avgdl", "max_doc_id",
                      "fingerprint")}
        except (FileNotFoundError, KeyError):
            # docstore exists but stats manifest lost: recompute the
            # rollup from the docstore's narrow columns (same doc_id-mixed
            # rollup as the map task, so the fingerprint — and therefore
            # partition-record resume — survives the manifest loss); the
            # write below re-persists it so the next run reads instead of
            # recomputing.
            stats = stats_mod.corpus_stats_from_docstore(dstore)
            prior = {}
        # the fan-out the full build used, so rebuilt shards match it
        S = int(prior.get("salt_ranges_used") or salt_fanout())
        ckpt.write_stats(index_dir, manifest(stats, S))
        fingerprint = stats["fingerprint"]
        done = {p for p in ckpt.done_partitions(index_dir, fingerprint)
                if p < P}
        t_build, phases = 0.0, {}
        if len(done) < P:
            t0 = time.monotonic()

            def check(folded: dict) -> None:
                if folded["fingerprint"] != fingerprint:
                    raise RuntimeError(
                        f"corpus fingerprint {folded['fingerprint']} != "
                        f"recorded {fingerprint}: refusing to splice new "
                        f"shards next to old ones; remove {done_marker} "
                        "to force a full rebuild")

            ds = read_corpus(corpus_paths, spec, with_meta=False,
                             **read_kwargs)
            part_rows, folded = build_combined_exchange(
                ds, spec, cfg, index_dir, S, check,
                done_pkeys=frozenset(done))
            _record_empty_partitions(index_dir, P, part_rows, done,
                                     fingerprint)
            t_build = time.monotonic() - t0
            phases = folded["phase_wall_s"]
        return _report(stats, P, len(done), t_start, t_build, phases, S)

    # ---- full build ------------------------------------------------------
    # No (valid) docstore marker means this is a FULL (re)build of a
    # new/changed corpus, or a rerun of one that crashed before its map
    # stage finished.  Any surviving docstore part files, shards/ and
    # manifest/ belong to the previous corpus or the interrupted run:
    # wipe them, or the docstore would hold duplicate/stale docs and
    # partitions that are empty in the new build would leave stale shard
    # files that SearchEngine.load_terms still reads (round-1 ADVICE,
    # medium: queries returned doc_ids of deleted documents after an
    # in-place rebuild).  positions/ and ann/ sidecars hold doc_ids of
    # the SAME previous corpus — wipe them too, or PhraseEngine/AnnIndex
    # serve stale docs after an in-place rebuild (round-2 ADVICE, medium).
    for p in (os.path.join(index_dir, "shards"),
              os.path.join(index_dir, "positions"),
              os.path.join(index_dir, "ann"),
              ckpt.manifest_dir(index_dir), dstore):
        if os.path.isdir(p):
            shutil.rmtree(p)
    os.makedirs(dstore, exist_ok=True)
    S = salt_fanout()

    def commit(stats: dict) -> None:
        # every map task has finished, so every docstore part is on disk:
        # from here a crash during the merges resumes per partition
        ckpt.write_stats(index_dir, manifest(stats, S))
        ckpt.atomic_write_text(done_marker, marker_text)

    ds = read_corpus(corpus_paths, spec, **read_kwargs)
    part_rows, stats = build_combined_exchange(
        ds, spec, cfg, index_dir, S, commit, docstore_dir=dstore)
    _record_empty_partitions(index_dir, P, part_rows, set(),
                             stats["fingerprint"])
    return _report(stats, P, 0, t_start, time.monotonic() - t_start,
                   stats["phase_wall_s"], S)


def _record_empty_partitions(index_dir: str, P: int, part_rows: list[dict],
                             done: set[int], fingerprint: str) -> None:
    """Empty partitions (no term hashes there) still get a checkpoint
    record, so a rerun sees them ``done``."""
    built = {int(r["partition_id"]) for r in part_rows} | done
    for pid in range(P):
        if pid not in built:
            ckpt.write_record(index_dir, ckpt.PartitionRecord(
                partition_id=pid, input_fingerprint=fingerprint,
                output_path="", n_terms=0, n_postings=0, status="done"))


def _report(stats: dict, P: int, resumed: int, t_start: float,
            postings_s: float, phases: dict, S: int) -> dict:
    wall = time.monotonic() - t_start
    n_docs = stats["n_docs"]
    return {
        "n_docs": n_docs, "total_tokens": stats["total_tokens"],
        "avgdl": stats["avgdl"], "fingerprint": stats["fingerprint"],
        "num_partitions": P, "resumed_partitions": resumed,
        "wall_s": wall, "postings_s": postings_s, "phases": phases,
        "salt_ranges": S,
        "files_per_sec": n_docs / wall if wall > 0 else 0.0,
    }
