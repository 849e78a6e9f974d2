"""One-command benchmark of the index build, BM25 query and sharded
serving paths, run against the package's public APIs.

    python3 perfbench/run.py --workload query_hot --seed 1 --seconds 8 --trace 0

Run it from the repository root.  One process drives one closed-loop
client (the next operation starts when the previous one returns) and
starts a local Ray session with ``RAY_CPUS`` logical CPUs: room for the
``TierRouter`` plus fractional shard workers, and a cap on build
parallelism whatever the host's core count.  Set-up runs on every CPU
the process may use; each measured loop pins the whole session to
``LOOP_CPUS`` of them (``BUILD_LOOP_CPUS`` on ``build``).  The query
workloads stop Ray after set-up, as their engine answers in-process.
The benchmark reaps every process the session starts, orphaned ones
too, before it prints its result.

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``build``: ``build_index`` of the seeded corpus into an empty directory
  per operation; throughput counts documents.
* ``query_hot``: ``SearchEngine.search(terms, 10, tie="e6")`` over hot
  keywords and top Zipf terms, with 1% of documents tombstoned.  At most
  256 distinct terms, so after warm-up every term sits in the engine's
  decoded-weight cache and time goes to accumulate and top-k.
* ``query_cold``: the same engine over mid/rare terms, a working set over
  four times the engine's term cache, so time goes to shard reads and
  posting decodes.
* ``serve_sharded``: ``TierRouter.search`` over a four-shard
  ``build_sharded_index`` deployment, hot and cold queries interleaved.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` measures untraced for half of ``--seconds`` and
traced for the other half, and reports the per-layer metrics (see
``layers.py``) and the tracing overhead: traced minus untraced mean time
per operation.  A per-layer metric of a layer the workload does not run
reads 0.

Every operation's exceptions are counted as failures, and a seeded sample
of results is compared with ``BruteForceBM25`` (query workloads and every
build) or the monolithic ``SearchEngine`` (``serve_sharded``); a wrong
result is a failure too.  The error rate is ``failed / attempted`` of the
result line.  Human-readable lines go first; the last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time

import procstat
from layers import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

T = time.perf_counter

WORKLOADS = ("build", "query_hot", "query_cold", "serve_sharded")
CORPUS_DOCS = 6_000
NUM_PARTITIONS = 16
N_SHARDS = 4
WORKER_CPUS = 0.25
RAY_CPUS = 4
# The measured loop runs the session's processes on this many CPUs of a
# shared host: on more, the hypervisor's steal and cross-CPU wake-ups,
# not the engine, set the spread of every multi-process workload.  A
# build gets two, so that a run holds more than one.
LOOP_CPUS = 1
BUILD_LOOP_CPUS = 2
K = 10
HOT_STREAM = 40_000
STORE_EVERY = 16           # keep every 16th result for the oracle sample
ORACLE_SAMPLE = {"query_hot": 8, "query_cold": 32, "serve_sharded": 64}
BUILD_ORACLE_QUERIES = 8   # checked on every fresh build


# ---------------------------------------------------------------------------
# metrics helpers
# ---------------------------------------------------------------------------

def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile, capped at p99, with
    at least 10 samples beyond it; the maximum below 11 samples."""
    s = sorted(samples)
    n = len(s)
    idx = n - 1 if n < 11 else min(math.ceil(0.99 * n) - 1, n - 11)
    return s[idx], 100.0 * (idx + 1) / n


def e6_topk(pairs, k: int = K) -> list[tuple[int, float]]:
    """(e6 desc, doc_id asc) order, the engine's ``tie="e6"`` rank key."""
    return sorted(pairs, key=lambda p: (-math.floor(p[1] * 1e6 + 0.5),
                                        p[0]))[:k]


def same_hits(got, want) -> bool:
    return (len(got) == len(want)
            and all(g[0] == w[0] and abs(g[1] - w[1]) <= 1e-9
                    for g, w in zip(got, want)))


class BruteForceOracle:
    """``BruteForceBM25`` over the whole corpus; tombstoned docs removed
    from the results only, as the engine keeps the built index's stats."""

    def __init__(self, doc_ids, content, deleted=()):
        from onestools_eventlog_ray.functions.bm25 import BruteForceBM25
        self.bf = BruteForceBM25(doc_ids.tolist(), content.to_pylist())
        self.deleted = {int(d) for d in deleted}

    def search(self, terms):
        hits = self.bf.search(terms, k=self.bf.N)
        return e6_topk([h for h in hits if h[0] not in self.deleted])


# ---------------------------------------------------------------------------
# run context
# ---------------------------------------------------------------------------

class Run:
    def __init__(self, args):
        self.args = args
        self.corpus_seed = args.seed if args.corpus_seed is None else args.corpus_seed
        self.query_seed = args.seed if args.query_seed is None else args.query_seed
        self.work = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, tuple[float, str]] = {}
        self.notes: list[str] = []
        self.tracer = None

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    def cfg(self):
        from onestools_eventlog_ray.config import EngineConfig
        return EngineConfig(num_partitions=NUM_PARTITIONS)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def write_corpus(self) -> tuple[str, float]:
        from onestools_eventlog_ray import synth
        t = T()
        corpus = synth.write_corpus(self.path("corpus"), n_docs=CORPUS_DOCS,
                                    seed=self.corpus_seed)
        return corpus, T() - t

    def setup(self, corpus_s: float, fn):
        """Time ``fn()``, the system set-up (build, deletes, open,
        warm-up); setup_s is the corpus write plus that."""
        t = T()
        result = fn()
        self.put("setup_s", corpus_s + T() - t, "s")
        return result

    def halves(self):
        """[(traced, seconds)] of the measurement phases."""
        R = float(self.args.seconds)
        return [(False, R / 2), (True, R / 2)] if self.args.trace \
            else [(False, R)]


def closed_loop(run: Run, seconds: float, op, *, store=None,
                cpus: int = LOOP_CPUS):
    """Call ``op(i)`` until ``seconds`` have passed, with the whole session
    on ``cpus`` CPUs.  Returns per-op latencies, loop wall, session CPU
    seconds and peak session RSS."""
    allowed = os.sched_getaffinity(0)
    procstat.pin_session(set(sorted(allowed)[-cpus:]))
    try:
        return _closed_loop(run, seconds, op, store)
    finally:
        procstat.pin_session(allowed)


def _closed_loop(run: Run, seconds: float, op, store):
    pids = procstat.session_pids()
    cpu0 = procstat.cpu_seconds(pids)
    host0 = procstat.host_cpu_ticks()
    rss = [procstat.rss_mb(pids)]
    lat = []
    t0 = T()
    next_rss = t0 + 1.0
    end = t0 + seconds
    i = 0
    while True:
        t = T()
        try:
            res = op(i)
        except Exception as e:       # counted, reported, and the loop goes on
            res = None
            run.failed += 1
            if run.failed <= 3:
                print(f"op {i} raised {type(e).__name__}: {e}", file=sys.stderr)
        now = T()
        lat.append(now - t)
        if store is not None and res is not None:
            store(i, res)
        i += 1
        if now >= next_rss:
            rss.append(procstat.rss_mb(procstat.session_pids()))
            next_rss = now + 1.0
        if now >= end:
            break
    wall = T() - t0
    pids = procstat.session_pids()
    cpu = procstat.cpu_seconds(pids) - cpu0
    rss.append(procstat.rss_mb(pids))
    run.attempted += i
    run.notes.append("host steal {:.1%} of CPU time during the loop".format(
        procstat.steal_share(host0, procstat.host_cpu_ticks())))
    return lat, wall, cpu, max(rss)


def report_loop(run: Run, lat, throughput, cpu, rss):
    n = len(lat)
    p99, pct = tail_percentile(lat)
    run.put("throughput_ops_s", throughput, "1/s")
    run.put("latency_p50_ms", 1e3 * statistics.median(lat), "ms")
    run.put("latency_p99_ms", 1e3 * p99, "ms")
    run.put("cpu_ms_per_op", 1e3 * cpu / n, "ms")
    run.put("peak_rss_mb", rss, "MB")
    run.notes.append(f"latency_p99_ms is p{pct:.2f} of {n} samples")


def shard_bytes(index_dirs) -> int:
    total = 0
    for d in index_dirs:
        sd = os.path.join(d, "shards")
        for name in os.listdir(sd):
            total += os.path.getsize(os.path.join(sd, name))
    return total


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def wl_build(run: Run) -> None:
    import gen
    from onestools_eventlog_ray.pipelines.build import build_index
    from onestools_eventlog_ray.pipelines.query import SearchEngine

    corpus, corpus_s = run.write_corpus()

    # one warm-up build: the first build of a session starts the workers
    run.setup(corpus_s, lambda: build_index(corpus, run.path("warm"),
                                            cfg=run.cfg()))

    reports: dict[int, dict] = {}
    phase_lat = {}
    for traced, secs in run.halves():
        if traced:
            run.tracer = _trace_build_inputs(run, corpus)
        base = len(reports)

        def op(i, base=base):
            rep_ = build_index(corpus, run.path(f"b{base + i}"), cfg=run.cfg())
            reports[base + i] = rep_
            return rep_
        lat, wall, cpu, rss = closed_loop(run, secs, op,
                                          cpus=BUILD_LOOP_CPUS)
        phase_lat[traced] = lat
        if not traced:
            ids, _, nbytes = gen.read_corpus_table(corpus)
            # docs/s of the median build
            report_loop(run, lat, len(ids) / statistics.median(lat), cpu, rss)
            run.put("shard_bytes_per_input_byte",
                    shard_bytes([run.path("b0")]) / nbytes, "ratio")

    # correctness: every build reports the corpus rows and answers the
    # oracle sample exactly
    ids, content, _ = gen.read_corpus_table(corpus)
    hot = gen.hot_queries(run.query_seed, BUILD_ORACLE_QUERIES // 2)
    cold = gen.cold_queries(run.query_seed, gen.present_terms(content))
    queries = hot + cold[:BUILD_ORACLE_QUERIES - len(hot)]
    oracle = BruteForceOracle(ids, content)
    want = [oracle.search(q) for q in queries]
    for j, rep_ in sorted(reports.items()):
        d = run.path(f"b{j}")
        try:
            eng = SearchEngine(d)
            ok = rep_["n_docs"] == len(ids) and all(
                same_hits(eng.search(q, K, tie="e6"), w)
                for q, w in zip(queries, want))
        except Exception as e:
            print(f"build {j} check raised {e!r}", file=sys.stderr)
            ok = False
        run.failed += not ok

    if run.tracer is not None:
        from onestools_eventlog_ray.state import checkpoint as ckpt
        traced = [reports[j] for j in sorted(reports)[len(phase_lat[False]):]]
        ph = {k: statistics.fmean(r["phases"][k] for r in traced)
              for k in traced[0]["phases"]}
        wall = statistics.fmean(phase_lat[True])
        other = wall - sum(ph.values())
        run.put("stages.exchange.map_and_fold_s", ph["map_and_fold"], "s")
        run.put("stages.exchange.encode_s", ph["encode_after_fold"], "s")
        run.put("stages.exchange.merge_s", ph["merge_after_encode"], "s")
        run.put("pipelines.build.other_s", other, "s")
        last = run.path(f"b{max(reports)}")
        n_post = sum(r.n_postings for r in ckpt.read_records(last).values())
        run.put("functions.codec.postings", n_post, "count")
        run.put("functions.codec.bytes_per_posting",
                shard_bytes([last]) / n_post, "B")
        put_trace(run, statistics.fmean(phase_lat[False]), wall,
                  sum(ph.values()) + other)


def _trace_build_inputs(run: Run, corpus: str):
    """Time the read and tokenize layers once, standalone."""
    import pyarrow as pa
    import ray
    from onestools_eventlog_ray.functions.analyzer import tokenize_array
    from onestools_eventlog_ray.sources.corpus import read_corpus

    tr = Tracer()
    with tr.span("sources.corpus.read"):
        ds = read_corpus(corpus).materialize()
    content = pa.concat_tables(ray.get(ds.to_arrow_refs()))["content"]
    with tr.span("functions.analyzer.tokenize"):
        toks = tokenize_array(content)
    dur, _ = tr.totals()
    run.put("sources.corpus.read_s", dur["sources.corpus.read"], "s")
    run.put("functions.analyzer.tokenize_s",
            dur["functions.analyzer.tokenize"], "s")
    run.put("functions.analyzer.tokens", len(toks.flatten()), "count")
    return tr


def wl_query(run: Run, kind: str) -> None:
    import gen
    from onestools_eventlog_ray.pipelines.build import build_index
    from onestools_eventlog_ray.pipelines.query import SearchEngine, _TERM_CACHE_MAX
    from onestools_eventlog_ray.state.tombstones import delete_docs

    corpus, corpus_s = run.write_corpus()
    ids, content, nbytes = gen.read_corpus_table(corpus)
    deleted = gen.delete_ids(run.query_seed, ids)
    if kind == "query_hot":
        stream = gen.hot_queries(run.query_seed, HOT_STREAM)
        # one query per distinct term fills both caches
        warm = [[t] for t in sorted({t for q in stream for t in q})]
        if len(warm) > 256:
            raise SystemExit(f"query_hot has {len(warm)} distinct terms > 256")
    else:
        present = gen.present_terms(content)
        stream = gen.cold_queries(run.query_seed, present)
        warm = gen.cold_warmup_queries(run.query_seed, present, 64)
        if gen.distinct_terms(stream) < 4 * _TERM_CACHE_MAX:
            raise SystemExit("query_cold working set below 4x the term cache")

    index = run.path("index")

    def setup():
        build_index(corpus, index, cfg=run.cfg())
        delete_docs(index, deleted)
        eng = SearchEngine(index)
        for q in warm:
            eng.search(q, K, tie="e6")
        return eng
    eng = run.setup(corpus_s, setup)
    # the engine answers in this process; Ray only built the index, and
    # its idle daemons and workers would share the host with the loop
    stop_ray()

    results: dict[int, list] = {}
    keep = run.query_seed % STORE_EVERY
    lat_by = {}
    for traced, secs in run.halves():
        if traced:
            tr = run.tracer = Tracer()
            tr.install_query_layers()

            def op(i, off=len(lat_by.get(False, ()))):
                tr.request = off + i
                with tr.span("query"):
                    return eng.search(stream[(off + i) % len(stream)], K,
                                      tie="e6")
        else:
            def op(i):
                return eng.search(stream[i % len(stream)], K, tie="e6")

        def store(i, res, off=len(lat_by.get(False, ()))):
            if (off + i) % STORE_EVERY == keep:
                results[off + i] = res
        try:
            lat, wall, cpu, rss = closed_loop(run, secs, op, store=store)
        finally:
            if traced:
                tr.restore()
        lat_by[traced] = lat
        if not traced:
            report_loop(run, lat, len(lat) / wall, cpu, rss)
            run.put("shard_bytes_per_input_byte", shard_bytes([index]) / nbytes,
                    "ratio")

    check_sample(run, kind, results, stream,
                 BruteForceOracle(ids, content, deleted).search)
    if run.tracer is not None:
        put_query_layers(run, len(lat_by[True]))
        dur, own = run.tracer.totals()
        put_trace(run, statistics.fmean(lat_by[False]),
                  dur["query"] / len(lat_by[True]),
                  sum(v for k, v in own.items() if k != "query")
                  / len(lat_by[True]))


def put_query_layers(run: Run, n: int, accumulate_span: str =
                     "pipelines.query.accumulate") -> None:
    tr = run.tracer
    dur, own = tr.totals()
    c = tr.counts
    ms = lambda name, d=dur: 1e3 * d.get(name, 0.0) / n  # noqa: E731
    run.put("pipelines.query.load_ms", ms("pipelines.query.load"), "ms")
    run.put("pipelines.query.load_hit_ratio",
            c.get("load.hits", 0.0) / max(c.get("load.terms", 0.0), 1.0), "ratio")
    run.put("pipelines.query.shard_reads", c.get("load.shard_reads", 0.0) / n,
            "count")
    run.put("functions.codec.decode_ms", ms("functions.codec.decode"), "ms")
    run.put("functions.codec.impact_ms", ms("functions.codec.impact"), "ms")
    run.put("pipelines.query.postings_scored", c.get("postings_scored", 0.0) / n,
            "count")
    run.put("pipelines.query.accumulate_ms", ms(accumulate_span, own), "ms")
    run.put("functions.bm25.topk_ms", ms("functions.bm25.topk"), "ms")


def check_sample(run: Run, kind: str, results: dict, stream, oracle) -> None:
    """Compare a seeded sample of the stored results with ``oracle``."""
    import numpy as np
    keys = sorted(results)
    rng = np.random.default_rng([run.query_seed, 5])
    pick = rng.choice(len(keys), size=min(ORACLE_SAMPLE[kind], len(keys)),
                      replace=False)
    wrong = 0
    for j in sorted(pick):
        i = keys[j]
        if not same_hits(results[i], oracle(stream[i % len(stream)])):
            wrong += 1
    run.failed += wrong
    run.notes.append(f"oracle: {len(pick) - wrong}/{len(pick)} sampled "
                     "results exact")


def wl_serve(run: Run) -> None:
    import gen
    import ray
    from onestools_eventlog_ray.pipelines.build import build_index
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    from onestools_eventlog_ray.pipelines.serving import (TierRouter,
                                                          build_sharded_index)
    from onestools_eventlog_ray.state.tombstones import delete_docs

    corpus, corpus_s = run.write_corpus()
    ids, content, nbytes = gen.read_corpus_table(corpus)
    deleted = gen.delete_ids(run.query_seed, ids)
    present = gen.present_terms(content)
    stream = gen.serve_queries(run.query_seed, present, HOT_STREAM)
    # one query over every hot term fills the df cache for all of them, so
    # phase 1 runs for new (cold) terms only, in the router and in the
    # traced run's in-process tier alike
    hot_terms = sorted({t for q in gen.hot_queries(run.query_seed, HOT_STREAM)
                        for t in q})
    warm = ([hot_terms] + gen.hot_queries(run.query_seed + 1, 64)
            + gen.cold_warmup_queries(run.query_seed, present, 64))

    root = run.path("deploy")

    def setup():
        build_sharded_index(corpus, root, N_SHARDS, cfg=run.cfg())
        delete_docs(root, deleted)
        router = TierRouter.remote(root, worker_cpus=WORKER_CPUS)
        ray.get([router.search.remote(q, K, "e6") for q in warm])
        return router
    router = run.setup(corpus_s, setup)

    results: dict[int, list] = {}
    keep = run.query_seed % STORE_EVERY
    lat_by = {}
    for traced, secs in run.halves():
        off = len(lat_by.get(False, ()))
        if traced:
            op, finish = _traced_serve_op(run, root, router, stream, warm, off)
        else:
            def op(i):
                return ray.get(router.search.remote(stream[i % len(stream)],
                                                    K, "e6"))
            finish = None

        def store(i, res, off=off):
            if (off + i) % STORE_EVERY == keep:
                results[off + i] = [tuple(h) for h in res]
        try:
            lat, wall, cpu, rss = closed_loop(run, secs, op, store=store)
        finally:
            if finish is not None:
                finish()
        lat_by[traced] = lat
        if not traced:
            report_loop(run, lat, len(lat) / wall, cpu, rss)
            gens = [os.path.join(root, f"gen-{s:04d}") for s in range(N_SHARDS)]
            run.put("shard_bytes_per_input_byte", shard_bytes(gens) / nbytes,
                    "ratio")

    # correctness: the tier's e6 top-k equals the monolithic engine's
    mono = run.path("mono")
    build_index(corpus, mono, cfg=run.cfg())
    delete_docs(mono, deleted)
    eng = SearchEngine(mono)
    check_sample(run, "serve_sharded", results, stream,
                 lambda q: eng.search(q, K, tie="e6"))
    if run.tracer is not None:
        n = len(lat_by[True])
        dur, own = run.tracer.totals()
        put_query_layers(run, n, accumulate_span="pipelines.serving.inprocess")
        rtt = dur["pipelines.serving.rtt"] / n
        tier = dur["pipelines.serving.tier"] / n
        inproc = dur["pipelines.serving.inprocess"] / n
        run.put("pipelines.serving.rtt_ms", 1e3 * rtt, "ms")
        run.put("pipelines.serving.router_hop_ms", 1e3 * (rtt - tier), "ms")
        run.put("pipelines.serving.scatter_ms", 1e3 * (tier - inproc), "ms")
        c = run.tracer.counts
        run.put("pipelines.serving.shards_per_query", c["shards"] / n, "count")
        run.put("pipelines.serving.phase1_ratio", c["phase1"] / n, "ratio")
        put_trace(run, statistics.fmean(lat_by[False]), rtt,
                  (rtt - tier) + (tier - inproc) + inproc)


def _traced_serve_op(run: Run, root, router, stream, warm, off: int):
    """A traced op: the router round trip, then the same query through an
    in-process ``ShardedSearchTier`` and ``GenerationalSearchEngine`` on
    the same deployment, so RTT splits into router hop, scatter and the
    in-process compute (itself split by the query-layer spans)."""
    import ray
    from onestools_eventlog_ray.pipelines.incremental import \
        GenerationalSearchEngine
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    from onestools_eventlog_ray.pipelines.serving import ShardedSearchTier

    tier = ShardedSearchTier(root, worker_cpus=WORKER_CPUS)
    gen_eng = GenerationalSearchEngine(root)
    for q in warm:
        tier.search(q, K, tie="e6")
        gen_eng.search(q, K, tie="e6")
    load = SearchEngine.load_terms
    seen = {t for q in warm for t in q}
    tr = run.tracer = Tracer()
    tr.install_query_layers()

    def op(i):
        q = stream[(off + i) % len(stream)]
        tr.request = off + i
        with tr.span("pipelines.serving.rtt"):
            res = ray.get(router.search.remote(q, K, "e6"))
        with tr.span("pipelines.serving.tier"):
            tier.search(q, K, tie="e6")
        with tr.span("pipelines.serving.inprocess"):
            gen_eng.search(q, K, tie="e6")
        uniq = sorted(set(q))
        tr.count("shards", sum(1 for e in gen_eng.engines if load(e, uniq)))
        tr.count("phase1", any(t not in seen for t in uniq))
        seen.update(uniq)
        return res

    def finish():
        tr.restore()
        tier.shutdown()
    return op, finish


def put_trace(run: Run, untraced_s: float, traced_s: float,
              layer_sum_s: float) -> None:
    run.put("trace.untraced_ms", 1e3 * untraced_s, "ms")
    run.put("trace.e2e_ms", 1e3 * traced_s, "ms")
    run.put("trace.overhead_ms", 1e3 * (traced_s - untraced_s), "ms")
    run.put("trace.layer_sum_ms", 1e3 * layer_sum_s, "ms")


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def ray_tmp_dir() -> str:
    return os.path.join(ROOT, ".perfbench", f"ray{os.getpid()}")


def start_ray():
    import logging

    import ray
    from ray.data import DataContext

    # workers import the package from the checkout, not from this
    # process's sys.path
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    kw = dict(address="local", num_cpus=RAY_CPUS, include_dashboard=False,
              logging_level="ERROR", object_store_memory=512 << 20)
    # Ray's sockets live under its temp dir and a socket path is capped
    # at 107 bytes, so a deep checkout falls back to Ray's default
    tmp = ray_tmp_dir()
    if len(tmp) <= 45:
        kw["_temp_dir"] = tmp
    else:
        print("checkout path too long for Ray sockets: Ray session files "
              "go to its default temp dir", file=sys.stderr)
    ray.init(**kw)
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def stop_ray() -> None:
    """Shut the Ray session down and wait until its processes are gone."""
    import ray
    ray.shutdown()
    procstat.wait_for_descendants()


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corpus-seed", type=int, default=None,
                    help="corpus seed (default: --seed)")
    ap.add_argument("--query-seed", type=int, default=None,
                    help="query and delete-set seed (default: --seed)")
    args = ap.parse_args(argv)
    try:
        import onestools_eventlog_ray  # noqa: F401
    except ImportError as e:
        print(f"cannot import the engine from {ROOT}: {e}", file=sys.stderr)
        return 2
    spec = load_spec()

    # every Ray process, orphaned or not, stays a descendant until it
    # has ended, and SIGTERM unwinds through the shutdown below (set
    # again after ray.init, which installs a handler of its own)
    procstat.become_subreaper()
    on_term = lambda *_: sys.exit(143)  # noqa: E731
    signal.signal(signal.SIGTERM, on_term)
    run = Run(args)
    os.makedirs(run.work, exist_ok=True)
    try:
        start_ray()
        signal.signal(signal.SIGTERM, on_term)
        if args.workload == "build":
            wl_build(run)
        elif args.workload == "serve_sharded":
            wl_serve(run)
        else:
            wl_query(run, args.workload)
        if run.tracer is not None:
            os.makedirs(os.path.join(ROOT, ".perfbench", "traces"),
                        exist_ok=True)
            run.tracer.dump(os.path.join(
                ROOT, ".perfbench", "traces",
                f"{args.workload}-seed{args.seed}.json"))
    finally:
        stop_ray()
        shutil.rmtree(run.work, ignore_errors=True)
        shutil.rmtree(ray_tmp_dir(), ignore_errors=True)

    # every declared metric, in declared order; a per-layer metric of a
    # layer this workload does not run reads 0
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        if m["name"] in run.metrics:
            value, unit = run.metrics[m["name"]]
        elif args.trace:
            value, unit = 0.0, m["unit"]
        else:
            raise RuntimeError(f"{args.workload} measured no {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    attempted = max(run.attempted, 1)
    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:38s} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload:14s} {'error_rate':38s} "
          f"{run.failed / attempted:14.6g} ratio  ({run.failed}/{attempted})")
    for note in run.notes:
        print(f"{args.workload:14s} # {note}")
    print(json.dumps({"correct": run.failed == 0, "attempted": attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
