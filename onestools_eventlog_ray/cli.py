"""Command-line entry points — the analog of the reference's service
executables (``EventLogExporter.exe`` / ``EventLogExportersManager.exe``,
``/root/reference/OneSTools.EventLog.Exporter/Program.cs:15-55``) with an
appsettings-style JSON config file (SURVEY.md §2.11 X3).

    python -m onestools_eventlog_ray build  --corpus DIR --index DIR
    python -m onestools_eventlog_ray search --index DIR --terms "def import" -k 10
    python -m onestools_eventlog_ray add-generation --corpus DIR --index-root DIR
    python -m onestools_eventlog_ray manager --registry reg.json --once
    python -m onestools_eventlog_ray stats  --index DIR

The CLI owns the Ray session (guarded init — library code never calls
ray.init, per the embedding contract).
"""

from __future__ import annotations

import argparse
import json
import sys

from onestools_eventlog_ray.config import EngineConfig
from onestools_eventlog_ray.sources.corpus import (CODE_CORPUS_SPEC,
                                                   DOCUMENTS_SPEC, CorpusSpec)

SPECS = {"code": CODE_CORPUS_SPEC, "documents": DOCUMENTS_SPEC}


def _load_cfg(path: str | None) -> EngineConfig:
    if not path:
        return EngineConfig()
    with open(path) as f:
        return EngineConfig.from_dict(json.load(f))


def _ray_up(num_cpus: int | None):
    import ray
    if not ray.is_initialized():
        kw = dict(address="local", include_dashboard=False,
                  ignore_reinit_error=True, logging_level="ERROR")
        if num_cpus:
            kw["num_cpus"] = num_cpus
        ray.init(**kw)


def _coerce(v: str):
    """CLI predicate value: int if it parses, else the raw string."""
    try:
        return int(v)
    except ValueError:
        return v


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="onestools_eventlog_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build (or resume) an index")
    b.add_argument("--corpus", required=True)
    b.add_argument("--index", required=True)
    b.add_argument("--config", default=None, help="EngineConfig JSON file")
    b.add_argument("--spec", choices=sorted(SPECS), default="code")

    s = sub.add_parser("search", help="BM25 top-k query")
    s.add_argument("--index", required=True,
                   help="an index dir or a root of generations")
    s.add_argument("--terms", required=True, help="space-separated terms")
    s.add_argument("-k", type=int, default=10)

    sb = sub.add_parser("shard-build",
                        help="build a doc-sharded deployment (one index "
                             "per hash shard; serving.py tier layout)")
    sb.add_argument("--corpus", required=True)
    sb.add_argument("--index-root", required=True)
    sb.add_argument("--shards", type=int, default=8)
    sb.add_argument("--config", default=None)
    sb.add_argument("--spec", choices=sorted(SPECS), default="code")

    ss = sub.add_parser("shard-search",
                        help="exact BM25 over a doc-sharded "
                             "deployment (scatter-gather tier)")
    ss.add_argument("--index-root", required=True)
    ss.add_argument("--terms", required=True, help="space-separated terms")
    ss.add_argument("-k", type=int, default=10)
    ss.add_argument("--replicas", type=int, default=1,
                    help="shard actor replicas per shard (failover)")
    ss.add_argument("--worker-cpus", type=float, default=1.0,
                    help="CPU reservation per shard worker (fractional "
                         "when shards x replicas oversubscribe one box)")

    g = sub.add_parser("add-generation", help="incrementally index new docs")
    g.add_argument("--corpus", required=True)
    g.add_argument("--index-root", required=True)
    g.add_argument("--config", default=None)
    g.add_argument("--spec", choices=sorted(SPECS), default="code")

    m = sub.add_parser("manager", help="multi-corpus registry sync")
    m.add_argument("--registry", required=True)
    m.add_argument("--once", action="store_true")
    m.add_argument("--interval", type=float, default=30.0)
    m.add_argument("--config", default=None)
    m.add_argument("--spec", choices=sorted(SPECS), default="code")
    m.add_argument("--max-parallel", type=int, default=1,
                   help="concurrent corpus builds per sync round")

    wt = sub.add_parser("watch", help="watch a corpus dir, auto-index new "
                                      "parquet files as generations")
    wt.add_argument("--corpus", required=True, help="corpus directory")
    wt.add_argument("--index-root", required=True)
    wt.add_argument("--once", action="store_true")
    wt.add_argument("--interval", type=float, default=5.0)
    wt.add_argument("--rounds", type=int, default=None)
    wt.add_argument("--config", default=None)
    wt.add_argument("--spec", choices=sorted(SPECS), default="code")
    wt.add_argument("--alerts", default=None,
                    help="JSON file of saved-search alert rules "
                         '({"name": ["term", ...], ...}); each sync '
                         "round also percolates the NEW files and "
                         "prints the triggered (doc_id, query_name) "
                         "alerts")

    st = sub.add_parser("stats", help="print an index's stats manifest")
    st.add_argument("--index", required=True)

    cp = sub.add_parser("compact",
                        help="merge all generations into one fresh index")
    cp.add_argument("--index-root", required=True)
    cp.add_argument("--out", required=True)
    cp.add_argument("--config", default=None)

    pb = sub.add_parser("build-positions",
                        help="build the positional (phrase) sidecar")
    pb.add_argument("--corpus", required=True)
    pb.add_argument("--index", required=True)
    pb.add_argument("--config", default=None)
    pb.add_argument("--spec", choices=sorted(SPECS), default="code")

    ps = sub.add_parser("phrase", help="exact phrase query")
    ps.add_argument("--index", required=True)
    ps.add_argument("--phrase", required=True, help="the phrase text")

    ri = sub.add_parser("reindex",
                        help="rebuild an index from a source index's "
                             "docstore, optionally filtered (ES _reindex)")
    ri.add_argument("--src", required=True, help="source index dir")
    ri.add_argument("--out", required=True, help="output index dir")
    ri.add_argument("--where", default="",
                    help="comma-separated predicates: col=value or "
                         "col=lo..hi (inclusive range)")
    ri.add_argument("--config", default=None)

    dl = sub.add_parser("delete",
                        help="tombstone documents by id (soft delete; "
                             "compaction drops them physically)")
    dl.add_argument("--index", required=True,
                    help="index dir (or generation root)")
    dl.add_argument("--doc-ids", required=True,
                    help="comma-separated doc_ids")

    sn = sub.add_parser("snapshot",
                        help="snapshot a complete index or root (ES "
                             "_snapshot): content-addressed blobs, "
                             "hardlinked when same-fs, sha256 manifest "
                             "written last")
    sn.add_argument("--index", required=True)
    sn.add_argument("--out", required=True, help="snapshot dir")

    rs = sub.add_parser("restore",
                        help="restore a snapshot: checks every file's "
                             "sha256, then the layout of every index")
    rs.add_argument("--snapshot", required=True)
    rs.add_argument("--out", required=True, help="restored index dir")

    dd = sub.add_parser("dedup",
                        help="near-dup detection: verified pairs + "
                             "clusters over a parquet corpus; with "
                             "--store, incremental against a signature "
                             "store (new files only re-sign)")
    dd.add_argument("--corpus", required=True,
                    help="parquet corpus file or directory")
    dd.add_argument("--min-jaccard", type=float, default=0.5)
    dd.add_argument("--spec", choices=sorted(SPECS), default="code")
    dd.add_argument("--store", default=None,
                    help="signature-store dir; created from --corpus if "
                         "absent, else --new is deduped against it")
    dd.add_argument("--new", default=None,
                    help="parquet file/dir of NEW docs (requires "
                         "--store)")
    dd.add_argument("--pairs-out", default=None,
                    help="write the verified pairs parquet here")

    args = p.parse_args(argv)

    if args.cmd == "stats":
        from onestools_eventlog_ray.state.checkpoint import read_records, read_stats
        stats = read_stats(args.index)
        recs = read_records(args.index)
        stats["partitions_done"] = sum(r.status == "done" for r in recs.values())
        print(json.dumps(stats, indent=1, default=str))
        return 0

    if args.cmd == "search":
        from onestools_eventlog_ray.pipelines.query import SearchEngine
        from onestools_eventlog_ray.functions.analyzer import tokenize_py
        terms = tokenize_py(args.terms)     # analyze the query like the corpus
        hits = SearchEngine(args.index).search(terms, args.k)
        for rank, (doc_id, score) in enumerate(hits, 1):
            print(json.dumps({"rank": rank, "doc_id": doc_id, "score": score}))
        return 0

    if args.cmd == "snapshot":
        from onestools_eventlog_ray.state.snapshot import snapshot_index
        print(json.dumps(snapshot_index(args.index, args.out)))
        return 0

    if args.cmd == "restore":
        from onestools_eventlog_ray.state.snapshot import restore_index
        print(json.dumps(restore_index(args.snapshot, args.out)))
        return 0

    if args.cmd == "delete":
        from onestools_eventlog_ray.state.tombstones import delete_docs
        n = delete_docs(args.index,
                        [int(x) for x in args.doc_ids.split(",") if x])
        print(json.dumps({"deleted": n}))
        return 0

    if args.cmd == "phrase":
        from onestools_eventlog_ray.functions.analyzer import tokenize_py
        from onestools_eventlog_ray.pipelines.phrase import PhraseEngine
        hits = PhraseEngine(args.index).search_phrase(tokenize_py(args.phrase))
        for doc_id, n in hits:
            print(json.dumps({"doc_id": doc_id, "n_matches": n}))
        return 0

    import ray
    owns_session = not ray.is_initialized()   # embedded callers keep theirs
    _ray_up(args.num_cpus)
    try:
        if args.cmd == "build":
            from onestools_eventlog_ray.pipelines.build import build_index
            rep = build_index(args.corpus, args.index, spec=SPECS[args.spec],
                              cfg=_load_cfg(args.config))
            print(json.dumps(rep))
        elif args.cmd == "shard-build":
            from onestools_eventlog_ray.pipelines.serving import \
                build_sharded_index
            rep = build_sharded_index(args.corpus, args.index_root,
                                      n_shards=args.shards,
                                      spec=SPECS[args.spec],
                                      cfg=_load_cfg(args.config))
            print(json.dumps(rep))
        elif args.cmd == "shard-search":
            from onestools_eventlog_ray.functions.analyzer import tokenize_py
            from onestools_eventlog_ray.pipelines.serving import \
                ShardedSearchTier
            tier = ShardedSearchTier(args.index_root,
                                     replicas=args.replicas,
                                     worker_cpus=args.worker_cpus)
            try:
                hits = tier.search(tokenize_py(args.terms), args.k)
            finally:
                tier.shutdown()
            for rank, (doc_id, score) in enumerate(hits, 1):
                print(json.dumps({"rank": rank, "doc_id": doc_id,
                                  "score": score}))
        elif args.cmd == "add-generation":
            from onestools_eventlog_ray.pipelines.incremental import add_generation
            rep = add_generation(args.corpus, args.index_root,
                                 spec=SPECS[args.spec], cfg=_load_cfg(args.config))
            print(json.dumps(rep))
        elif args.cmd == "watch":
            from onestools_eventlog_ray.pipelines.incremental import \
                CorpusWatcher
            w = CorpusWatcher(args.corpus, args.index_root,
                              spec=SPECS[args.spec],
                              cfg=_load_cfg(args.config))
            rules = None
            if args.alerts:
                with open(args.alerts) as f:
                    rules = json.load(f)

            def _round():
                if rules is None:
                    return w.sync()
                rep = w.sync_with_alerts(rules)
                rep["alerts"] = rep["alerts"].to_pylist()
                return rep

            if args.once:
                print(json.dumps(_round()))
            else:
                import time as _time
                n = 0
                while args.rounds is None or n < args.rounds:
                    rep = _round()
                    if rep.get("indexed_files"):
                        print(json.dumps(rep), flush=True)
                    n += 1
                    if args.rounds is None or n < args.rounds:
                        _time.sleep(args.interval)
        elif args.cmd == "dedup":
            import os as _os
            from onestools_eventlog_ray.pipelines.dedup import (
                dedup_clusters, dedup_incremental, minhash_verified_pairs,
                write_signature_store)
            from onestools_eventlog_ray.sources.corpus import \
                read_parquet_clean
            spec = SPECS[args.spec]
            corpus = read_parquet_clean(args.corpus)
            if args.new:
                if not args.store:
                    raise SystemExit("--new requires --store")
                if not (_os.path.isdir(args.store)
                        and _os.listdir(args.store)):
                    write_signature_store(corpus, args.store, spec)
                pairs = dedup_incremental(
                    read_parquet_clean(args.new), corpus, args.store,
                    spec, min_jaccard=args.min_jaccard,
                    update_store=True)
                if args.pairs_out:
                    pairs.write_parquet(args.pairs_out)
                    n_pairs = "written"
                else:
                    n_pairs = pairs.count()
                print(json.dumps({"mode": "incremental",
                                  "n_pairs": n_pairs,
                                  "store": args.store}))
            else:
                pairs = minhash_verified_pairs(
                    corpus, spec, min_jaccard=args.min_jaccard)
                clusters = dedup_clusters(corpus, spec,
                                          min_jaccard=args.min_jaccard)
                if args.pairs_out:
                    pairs.write_parquet(args.pairs_out)
                if args.store:
                    write_signature_store(corpus, args.store, spec)
                reps = set(clusters["rep_id"].to_pylist())
                print(json.dumps({
                    "mode": "full", "n_pairs": pairs.count(),
                    "n_clustered_docs": clusters.num_rows,
                    "n_clusters": len(reps),
                    "store": args.store}))
        elif args.cmd == "compact":
            from onestools_eventlog_ray.pipelines.incremental import \
                compact_generations
            rep = compact_generations(args.index_root, args.out,
                                      cfg=_load_cfg(args.config))
            print(json.dumps(rep))
        elif args.cmd == "reindex":
            from onestools_eventlog_ray.pipelines.incremental import reindex
            where: dict = {}
            for part in filter(None, args.where.split(",")):
                c, v = part.split("=", 1)
                if ".." in v:
                    lo, hi = v.split("..", 1)
                    where[c] = (_coerce(lo), _coerce(hi))
                else:
                    where[c] = _coerce(v)
            rep = reindex(args.src, args.out, where=where or None,
                          cfg=_load_cfg(args.config))
            print(json.dumps(rep))
        elif args.cmd == "build-positions":
            from onestools_eventlog_ray.pipelines.phrase import \
                build_position_index
            rep = build_position_index(args.corpus, args.index,
                                       spec=SPECS[args.spec],
                                       cfg=_load_cfg(args.config))
            print(json.dumps(rep))
        elif args.cmd == "manager":
            from onestools_eventlog_ray.pipelines.manager import (sync_registry,
                                                                  watch_registry)
            if args.once:
                print(json.dumps(sync_registry(
                    args.registry, spec=SPECS[args.spec],
                    cfg=_load_cfg(args.config),
                    max_parallel=args.max_parallel)))
            else:
                watch_registry(args.registry, interval_s=args.interval,
                               spec=SPECS[args.spec],
                               cfg=_load_cfg(args.config),
                               max_parallel=args.max_parallel)
    finally:
        if owns_session and ray.is_initialized():
            ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
