"""Doc-sharded scatter-gather serving — an index larger than one node.

The ES deployment the reference delegates to
(``/root/reference/OneSTools.EventLog.Exporter.Core/ElasticSearch/
ElasticSearchStorage.cs``) serves an index bigger than a node with
DOC-sharded data nodes: score every shard locally under GLOBAL term
statistics, merge per-shard top-k.  Shards hold disjoint documents, so
a document's full score is computed entirely on its own shard and the
union of per-shard top-k provably contains the global top-k — the
merge is EXACT, not approximate.

This module provides that deployment shape on Ray:

* :func:`route_corpus_shards` — ONE streaming hash-route pass corpus ->
  ``n_shards`` sub-corpus dirs (deterministic ``doc_id % n``; immutable
  content-named part files committed tmp->rename, a ``_MANIFEST.json``
  success marker gates re-routes — the ``export_training_shards``
  contract without the tokenize).
* :func:`build_sharded_index` — one independent index build per
  sub-corpus under ``root/gen-%04d``: deliberately the generational
  layout, so the single-process :class:`~.query.SearchEngine` over the
  SAME root is the in-process oracle for the tier.
* :class:`ShardedSearchTier` — one ``@ray.remote``
  :class:`~.query.SearchEngine` per shard, over that shard's one
  generation of the root.  The tier reads every shard's df table once
  at open and hands each shard its terms' global df with the global N
  and avgdl (:meth:`~.query.SearchEngine.use_stats`), so a query is ONE
  scatter of the shard engines' own ``search`` (ES ``query_then_fetch``
  with cached term statistics; no ``dfs_query_then_fetch`` round trip),
  which hits each shard's weight cache.  Float exactness: scoring is
  terms-major within the owning shard, the same accumulation order as
  ``SearchEngine.search`` over one index, so per-doc float64 scores are
  bit-identical to a single-index build over the union of the docs.

Scale shape: a query ships O(len(terms)) down and O(k) (id, score)
pairs up per live shard; the router merges O(shards * k) rows.
Nothing corpus-sized moves at query time, and each worker's resident
set is one shard — the deployment grows by adding shards, not by
growing a node.  The price of the single scatter is router memory:
the router holds each shard's {term: df} table, O(distinct terms) per
shard, read at open (no posting bytes), and each shard engine holds the
global df of its own terms.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from onestools_eventlog_ray.config import EngineConfig
from onestools_eventlog_ray.functions.bm25 import pick_topk
from onestools_eventlog_ray.pipelines.incremental import list_generations
from onestools_eventlog_ray.pipelines.query import SearchEngine
from onestools_eventlog_ray.sources.corpus import (CODE_CORPUS_SPEC,
                                                   CorpusSpec,
                                                   read_parquet_clean)
from onestools_eventlog_ray.stages.normalize import add_doc_id


def route_corpus_shards(corpus_paths, out_dir: str, n_shards: int,
                        spec: CorpusSpec = CODE_CORPUS_SPEC) -> dict:
    """Hash-route a corpus into ``n_shards`` sub-corpus directories
    (``out_dir/shard-%05d/``) in ONE streaming pass.

    Routing key is the deterministic content-keyed ``doc_id % n_shards``
    — stable across runs, retries and parallelism, so a re-route lands
    every document on the same shard.  Each routed slice of each input
    batch becomes its own immutable part file named by the md5 of its
    sorted doc_ids (idempotent under Ray task retries).  A completed
    route writes ``_MANIFEST.json`` and later calls return it verbatim
    (batch boundaries are not stable across runs, so re-routing a
    finished output could duplicate rows in differently-split parts).
    -> {"n_shards": n, "n_docs": total, "per_shard": [counts]}."""
    import hashlib

    marker = os.path.join(out_dir, "_MANIFEST.json")
    if os.path.exists(marker):
        with open(marker) as fh:
            return json.load(fh)
    for i in range(n_shards):
        os.makedirs(os.path.join(out_dir, f"shard-{i:05d}"), exist_ok=True)

    def route(batch: pa.Table) -> pa.Table:
        ids = add_doc_id(batch, spec)["doc_id"].to_numpy(
            zero_copy_only=False)
        shard = (ids % n_shards).astype(np.int64)
        counts = np.zeros(n_shards, dtype=np.int64)
        for s in np.unique(shard):
            sub = batch.filter(pa.array(shard == s))
            sub_ids = np.sort(ids[shard == s])
            name = hashlib.md5(
                f"{sub.num_rows}:".encode()
                + ",".join(map(str, sub_ids)).encode()).hexdigest()
            dst = os.path.join(out_dir, f"shard-{int(s):05d}",
                               f"part-{name[:16]}.parquet")
            if not os.path.exists(dst):
                tmp = dst + ".tmp"
                pq.write_table(sub, tmp)
                os.replace(tmp, dst)
            counts[int(s)] = sub.num_rows
        return pa.table({"shard": pa.array(np.arange(n_shards)),
                         "n": pa.array(counts)})

    ds = corpus_paths if isinstance(corpus_paths, ray.data.Dataset) \
        else read_parquet_clean(corpus_paths)
    partials = ds.map_batches(route, batch_format="pyarrow").to_pandas()
    per_shard = partials.groupby("shard")["n"].sum()
    rec = {"n_shards": n_shards,
           "n_docs": int(per_shard.sum()),
           "per_shard": [int(per_shard.get(i, 0)) for i in range(n_shards)]}
    tmp = marker + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(rec, fh)
    os.replace(tmp, marker)
    return rec


def build_sharded_index(corpus_paths, index_root: str, n_shards: int,
                        spec: CorpusSpec = CODE_CORPUS_SPEC,
                        cfg: EngineConfig = EngineConfig()) -> dict:
    """Build a doc-sharded deployment: route the corpus, then run one
    independent index build per sub-corpus under ``index_root/gen-%04d``
    (the generational layout, so ``SearchEngine(index_root)`` is the
    in-process oracle for :class:`ShardedSearchTier` and the whole
    add/delete/compact lifecycle applies per shard unchanged).  Each
    build is itself resumable; re-running skips finished shards.
    -> {"n_shards", "n_docs", "shard_dirs"}."""
    from onestools_eventlog_ray.pipelines.build import build_index

    shards_dir = os.path.join(index_root, "_shard_corpus")
    rec = route_corpus_shards(corpus_paths, shards_dir, n_shards, spec)
    shard_dirs = []
    for i in range(n_shards):
        gen_dir = os.path.join(index_root, f"gen-{i:04d}")
        build_index(os.path.join(shards_dir, f"shard-{i:05d}"),
                    gen_dir, spec=spec, cfg=cfg)
        shard_dirs.append(gen_dir)
    return {"n_shards": n_shards, "n_docs": rec["n_docs"],
            "shard_dirs": shard_dirs}


_ShardEngine = ray.remote(num_cpus=1)(SearchEngine)


class ShardedSearchTier:
    """Scatter-gather search over a doc-sharded deployment.

    Query cost at the router: O(terms) down + O(shards * k) up — never
    O(matches).  Exact BM25 (scores AND ranks) vs a single index over
    the union of the shards; asserted against ``SearchEngine`` over the
    root and over a monolithic build in tests.

    Each shard actor is a :class:`~.query.SearchEngine` over the root
    with that shard's generation alone (the root's tombstones
    included).  At open the tier gathers every shard's ``stats()``
    once: N and Σ avgdl·N give the global avgdl, each shard's
    {term: df} prunes shards that hold no query term, and their sum is
    the global df.  Every replica then gets ``use_stats`` with the
    global N, avgdl and its shard's terms' global df, so a query sends
    each shard only its terms, and the shard's ``search`` scores them
    through its weight cache.  The stats are fixed for the tier's
    lifetime: shard engines read the files they opened at tier start,
    so rebuild the tier after index updates.

    ``replicas``: ES-style shard replicas — each shard gets that many
    interchangeable shard actors (same immutable shard files, so any
    replica answers exactly).  Queries pick a replica round-robin; a
    dead replica fails over to the next one, and a shard whose replicas
    ALL died is respawned from the index files — the serving analog of
    the reference sink's infinite retry with node rotation
    (``ElasticSearchStorage.cs:95-149``) and of ES reallocating a lost
    shard from disk.  Failover is exact, not degraded: shards are
    disjoint, so the retried call returns the same rows any replica
    would.

    ``worker_cpus``: CPU reservation per shard actor (1.0 on a real
    cluster — one data node core per shard; fractional when shards ×
    replicas oversubscribe a small machine, e.g. tests — serving
    workers are idle between queries, so actor creation must not
    deadlock waiting for whole cores that scoring never pins)."""

    def __init__(self, index_root: str, replicas: int = 1,
                 worker_cpus: float = 1.0):
        self.index_root = index_root
        self.gen_dirs = list_generations(index_root)
        if not self.gen_dirs:
            raise FileNotFoundError(f"no shards under {index_root}")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self._worker_cpus = worker_cpus
        self.replica_groups = [[self._spawn(si) for _ in range(replicas)]
                               for si in range(len(self.gen_dirs))]
        self._rr = 0
        st = self._scatter(range(len(self.gen_dirs)), "stats",
                           lambda si: ())
        self.N = sum(n for n, _, _ in st)
        total_tokens = sum(tt for _, tt, _ in st)
        self.avgdl = total_tokens / self.N if self.N else 0.0
        self.shard_df = [d for _, _, d in st]
        self.df: dict[str, int] = {}
        for d in self.shard_df:
            for t, n in d.items():
                self.df[t] = self.df.get(t, 0) + n
        ray.get([self._use_stats(w, si)
                 for si, grp in enumerate(self.replica_groups)
                 for w in grp])

    # ---- replica pick / failover -------------------------------------

    def _use_stats(self, w, si: int):
        """Give replica ``w`` of shard ``si`` the global N, avgdl and df."""
        return w.use_stats.remote(self.N, self.avgdl,
                                  {t: self.df[t] for t in self.shard_df[si]})

    def _spawn(self, si: int):
        return _ShardEngine.options(num_cpus=self._worker_cpus).remote(
            self.index_root, [self.gen_dirs[si]])

    def _pick(self, si: int):
        """Round-robin replica choice for shard ``si`` (one shared
        counter — per-shard counters buy nothing since shards are
        scattered together)."""
        grp = self.replica_groups[si]
        self._rr += 1
        return grp[self._rr % len(grp)]

    def _failover_call(self, si: int, picked, method: str, args: tuple):
        """Shard ``si``'s picked replica died mid-call: rotate through
        the remaining replicas; if every replica is gone, respawn one
        from the shard's immutable index files and retry on it."""
        grp = self.replica_groups[si]
        rest = [w for w in grp if w is not picked]
        last: Exception | None = None
        for w in rest:
            try:
                return ray.get(getattr(w, method).remote(*args))
            except ray.exceptions.RayActorError as e:
                last = e
        fresh = self._spawn(si)
        # Ray runs one caller's calls to an actor in submission order
        self._use_stats(fresh, si)
        self.replica_groups[si] = [fresh]
        try:
            return ray.get(getattr(fresh, method).remote(*args))
        except ray.exceptions.RayActorError:
            raise last if last is not None else RuntimeError(
                f"shard {si}: respawned worker died immediately")

    def _scatter(self, shard_idxs, method: str, args_fn) -> list:
        """Fan ``method`` out to one replica of each listed shard in
        parallel; gather per-future so one dead replica fails over
        without poisoning the whole gather."""
        futs = []
        for si in shard_idxs:
            w = self._pick(si)
            futs.append((si, w, getattr(w, method).remote(*args_fn(si))))
        out = []
        for si, w, f in futs:
            try:
                out.append(ray.get(f))
            except ray.exceptions.RayActorError:
                out.append(self._failover_call(si, w, method, args_fn(si)))
        return out

    # ---- query -------------------------------------------------------

    def search(self, terms: list[str], k: int = 10,
               tie: str = "float") -> list[tuple[int, float]]:
        uniq = sorted(set(terms))
        # shard pruning: a shard scores only the query terms it holds
        shard_terms = [[t for t in uniq if t in d] for d in self.shard_df]
        live = [si for si, ts in enumerate(shard_terms) if ts]
        if not live:
            return []
        hits = [h for part in self._scatter(
            live, "search", lambda si: (shard_terms[si], k, tie))
            for h in part]
        ids = np.fromiter((d for d, _ in hits), np.int64, len(hits))
        scores = np.fromiter((s for _, s in hits), np.float64, len(hits))
        return [hits[i] for i in pick_topk(tie)(scores, ids, k)]

    def shutdown(self) -> None:
        for grp in self.replica_groups:
            for w in grp:
                ray.kill(w)
        self.replica_groups = []


@ray.remote(num_cpus=1, max_concurrency=16)
class TierRouter:
    """Coordinating node (the ES role of the same name): owns one
    :class:`ShardedSearchTier` and serves whole queries as a SINGLE
    remote call, so the scatter-gather fan-out runs inside this actor's
    process, not on the client's.

    Measured motivation: with the driver doing the fan-out, 4 tier
    replicas at 32 clients served no more QPS than 1 tier at 8 clients
    (92 -> 97) — every scatter's submit/gather serialized on the one
    client process.  Routing through coordinator actors restores the
    scaling, exactly as ES scales by adding coordinating nodes.
    ``max_concurrency=16``: queries interleave on the router's thread
    pool while their shard RPCs are in flight (each thread blocks only
    itself on its ``ray.get``)."""

    def __init__(self, index_root: str, replicas: int = 1,
                 worker_cpus: float = 1.0):
        self.tier = ShardedSearchTier(index_root, replicas=replicas,
                                      worker_cpus=worker_cpus)

    def search(self, terms: list, k: int = 10,
               tie: str = "float") -> list:
        return self.tier.search(terms, k, tie)


def shard_balance_report(ds: "ray.data.Dataset", n_shards: int = 8
                         ) -> "pa.Table":
    """Shard-placement audit for the doc-sharded serving tier: per
    shard (the same content-keyed ``doc_id % n_shards`` route as
    :func:`route_corpus_shards`), doc and token counts, the shard's
    e6 fill ratio vs the uniform ideal, and the rebalance plan —
    ``moves`` = docs above the ceil(total/n_shards) ceiling that a
    rebalancer would relocate (ES disk-watermark shard balancing, made
    deterministic).  Narrow-row fold: (shard, n_docs, n_tokens)
    partials per batch, O(n_shards) rows after the groupby.
    -> (shard, n_docs, n_tokens, fill_e6, moves) by shard."""
    import numpy as _np
    import pyarrow as _pa
    from ray.data.aggregate import Sum as _Sum

    from onestools_eventlog_ray.pipelines.mix import _n_tokens

    def partial(batch: "pa.Table") -> "pa.Table":
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        nt = _n_tokens(batch["text"])
        shard = (ids % n_shards).astype(_np.int64)
        keys, inv = _np.unique(shard, return_inverse=True)
        nd = _np.bincount(inv, minlength=keys.size).astype(_np.int64)
        ts = _np.zeros(keys.size, dtype=_np.int64)
        _np.add.at(ts, inv, nt)
        return _pa.table({"shard": _pa.array(keys, _pa.int64()),
                          "nd_p": _pa.array(nd, _pa.int64()),
                          "nt_p": _pa.array(ts, _pa.int64())})

    rows = ds.select_columns(["doc_id", "text"]) \
        .map_batches(partial, batch_format="pyarrow") \
        .groupby("shard") \
        .aggregate(_Sum("nd_p", alias_name="n_docs"),
                   _Sum("nt_p", alias_name="n_tokens")).take_all()
    by = {int(r["shard"]): (int(r["n_docs"]), int(r["n_tokens"]))
          for r in rows}
    shards = list(range(n_shards))
    nd = _np.array([by.get(s, (0, 0))[0] for s in shards], dtype=_np.int64)
    nt = _np.array([by.get(s, (0, 0))[1] for s in shards], dtype=_np.int64)
    total = int(nd.sum())
    ceil_cap = -(-total // n_shards) if total else 0
    fill = nd * 1_000_000 * n_shards // max(total, 1)
    moves = _np.maximum(nd - ceil_cap, 0)
    return _pa.table({
        "shard": _pa.array(shards, _pa.int64()),
        "n_docs": _pa.array(nd, _pa.int64()),
        "n_tokens": _pa.array(nt, _pa.int64()),
        "fill_e6": _pa.array(fill, _pa.int64()),
        "moves": _pa.array(moves, _pa.int64()),
    })
