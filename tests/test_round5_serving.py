"""Doc-sharded scatter-gather serving tier (`pipelines/serving.py`).

The exactness contract under test: a ShardedSearchTier over N doc-hash
shards returns BIT-IDENTICAL (doc_id, score) rankings to (a) one
monolithic index over the same corpus and (b) the in-process
SearchEngine over the same sharded deployment's root — for hot, mid,
rare, multi-term and absent-term queries, in both float and e6 tie
modes.  Plus the router's completeness/idempotence contracts.
"""

import os

import numpy as np
import pytest

from onestools_eventlog_ray.config import EngineConfig

CFG = EngineConfig(num_partitions=8)
# CPU reservation per shard actor.  The test cluster has 4 CPUs; a tier
# of whole-core shard actors needs all of them, so one CPU still leased
# to an earlier test's actor (Ray can keep the lease of an actor pool
# worker killed while it starts) deadlocks the tier at open.
WORKER_CPUS = 0.25

QUERIES = [
    ["def"],                        # hot (df ~ N)
    ["def", "import"],              # two hot terms
    ["license", "merge", "def"],    # hot + mid
    ["merge"],                      # mid
    ["zzz_not_a_term"],             # absent
    ["merge", "zzz_not_a_term"],    # present + absent
]


@pytest.fixture(scope="module")
def deployment(ray_session, tmp_path_factory, small_corpus_dir):
    """Monolithic index + 4-shard deployment over the same 400 docs."""
    from onestools_eventlog_ray.pipelines.build import build_index
    from onestools_eventlog_ray.pipelines.serving import build_sharded_index

    mono = str(tmp_path_factory.mktemp("mono") / "idx")
    build_index(small_corpus_dir, mono, cfg=CFG)
    root = str(tmp_path_factory.mktemp("sharded") / "root")
    rep = build_sharded_index(small_corpus_dir, root, n_shards=4, cfg=CFG)
    assert rep["n_shards"] == 4 and len(rep["shard_dirs"]) == 4
    return mono, root


@pytest.mark.parametrize("tie", ["float", "e6"])
def test_tier_rank_identical_to_monolith_and_generational(deployment, tie):
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    from onestools_eventlog_ray.pipelines.serving import ShardedSearchTier

    mono, root = deployment
    eng = SearchEngine(mono)
    gen = SearchEngine(root)
    tier = ShardedSearchTier(root, worker_cpus=WORKER_CPUS)
    try:
        assert tier.N == eng.N
        assert tier.avgdl == pytest.approx(eng.avgdl, rel=1e-12)
        for terms in QUERIES:
            for k in (1, 5, 10):
                want = eng.search(terms, k, tie=tie)
                assert tier.search(terms, k, tie=tie) == want
                assert gen.search(terms, k, tie=tie) == want
    finally:
        tier.shutdown()


def test_route_is_complete_and_idempotent(ray_session, tmp_path,
                                          small_corpus_dir):
    import pyarrow.parquet as pq
    from onestools_eventlog_ray.pipelines.serving import route_corpus_shards

    out = str(tmp_path / "routed")
    rec = route_corpus_shards(small_corpus_dir, out, n_shards=4)
    assert rec["n_docs"] == 400
    assert sum(rec["per_shard"]) == 400
    assert all(n > 0 for n in rec["per_shard"])      # hash spreads
    # every routed row's doc_id % 4 matches its shard dir
    from onestools_eventlog_ray.sources.corpus import CODE_CORPUS_SPEC
    from onestools_eventlog_ray.stages.normalize import add_doc_id
    for i in range(4):
        sdir = os.path.join(out, f"shard-{i:05d}")
        for name in os.listdir(sdir):
            t = pq.read_table(os.path.join(sdir, name))
            ids = add_doc_id(t, CODE_CORPUS_SPEC)["doc_id"] \
                .to_numpy(zero_copy_only=False)
            assert (ids % 4 == i).all()
    # a completed route returns the manifest verbatim, no rewrites
    mtimes = {p: os.path.getmtime(os.path.join(out, p))
              for p in os.listdir(out)}
    rec2 = route_corpus_shards(small_corpus_dir, out, n_shards=4)
    assert rec2 == rec
    assert mtimes == {p: os.path.getmtime(os.path.join(out, p))
                      for p in os.listdir(out)}


def test_sharded_build_is_resumable(deployment, small_corpus_dir):
    from onestools_eventlog_ray.pipelines.serving import build_sharded_index
    _mono, root = deployment
    rep2 = build_sharded_index(small_corpus_dir, root, n_shards=4, cfg=CFG)
    assert rep2["n_shards"] == 4 and rep2["n_docs"] > 0


def test_tier_respects_root_tombstones(ray_session, tmp_path_factory,
                                       small_corpus_dir, deployment):
    """A deployment-level delete must drop the doc from tier results
    (the generational root-tombstone rule, applied per worker)."""
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    from onestools_eventlog_ray.pipelines.serving import (
        ShardedSearchTier, build_sharded_index)
    from onestools_eventlog_ray.state.tombstones import delete_docs

    mono, _root = deployment
    top = SearchEngine(mono).search(["def"], 1)
    assert top
    victim = top[0][0]
    root2 = str(tmp_path_factory.mktemp("sharded_del") / "root")
    build_sharded_index(small_corpus_dir, root2, n_shards=4, cfg=CFG)
    delete_docs(root2, [victim])
    tier = ShardedSearchTier(root2, worker_cpus=WORKER_CPUS)
    try:
        hits = tier.search(["def"], 10)
        assert victim not in [d for d, _ in hits]
        assert len(hits) == 10
    finally:
        tier.shutdown()


def test_tier_scores_in_one_scatter(deployment):
    """Every query is ONE scatter of the shard engines' ``search``,
    never-seen terms included (the global stats are set at open, so
    there is no df round trip); a query of absent terms scatters
    nothing; repeated queries return identical rankings."""
    from onestools_eventlog_ray.pipelines.serving import ShardedSearchTier
    _mono, root = deployment
    tier = ShardedSearchTier(root, worker_cpus=WORKER_CPUS)
    calls = []
    scatter = tier._scatter

    def recording(shard_idxs, method, args_fn):
        calls.append(method)
        return scatter(shard_idxs, method, args_fn)

    tier._scatter = recording
    try:
        first = tier.search(["def", "merge"], 10, tie="e6")
        assert first and calls == ["search"]
        assert tier.search(["def", "merge"], 10, tie="e6") == first
        assert calls == ["search"] * 2
        assert tier.search(["license", "zzz_not_a_term"], 10, tie="e6")
        assert calls == ["search"] * 3
        assert tier.search(["zzz_not_a_term", "zzz_also_not"], 10) == []
        assert calls == ["search"] * 3
    finally:
        tier.shutdown()


def test_tier_df_table_matches_shard_postings(deployment):
    """The df table read at open: per shard, it equals that shard
    engine's ``load_terms`` df over every term in the shard's files;
    summed, it equals the root engine's df."""
    import glob

    import pyarrow.parquet as pq
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    from onestools_eventlog_ray.pipelines.serving import ShardedSearchTier

    _mono, root = deployment
    gen = SearchEngine(root)
    tier = ShardedSearchTier(root, worker_cpus=WORKER_CPUS)
    try:
        assert len(tier.shard_df) == len(gen.engines) == 4
        all_terms = set()
        for d, gen_dir in zip(tier.shard_df,
                              [e.index_dir for e in gen.engines]):
            files = sorted(glob.glob(os.path.join(gen_dir, "shards",
                                                  "*.parquet")))
            terms = sorted(set(pq.read_table(files, columns=["term"])
                               ["term"].to_pylist()))
            assert terms
            loaded = SearchEngine(gen_dir).load_terms(terms)
            assert d == {t: df for t, (df, _) in loaded.items()}
            all_terms.update(terms)
        assert tier.df == gen.df_of(sorted(all_terms))
    finally:
        tier.shutdown()
    with pytest.raises(ValueError):
        SearchEngine(root, gen_dirs=[root + "/gen-9999"])


def test_tier_exact_at_odd_shard_count(ray_session, tmp_path_factory,
                                       small_corpus_dir, deployment):
    """3 shards (uneven hash split) must stay exact too — the shard
    count is a deployment knob, not a correctness parameter."""
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    from onestools_eventlog_ray.pipelines.serving import (
        ShardedSearchTier, build_sharded_index)
    mono, _root = deployment
    root3 = str(tmp_path_factory.mktemp("sharded3") / "root")
    rep = build_sharded_index(small_corpus_dir, root3, n_shards=3, cfg=CFG)
    assert rep["n_shards"] == 3
    eng = SearchEngine(mono)
    tier = ShardedSearchTier(root3, worker_cpus=WORKER_CPUS)
    try:
        for terms in QUERIES:
            assert tier.search(terms, 10, tie="e6") \
                == eng.search(terms, 10, tie="e6")
    finally:
        tier.shutdown()


def test_tier_replica_failover_exact(deployment):
    """ES replica semantics: with replicas=2 per shard, killing one
    replica of every shard mid-session must not change a single
    (doc_id, score) — the rotation retries on the surviving replica."""
    import ray
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    from onestools_eventlog_ray.pipelines.serving import ShardedSearchTier

    mono, root = deployment
    eng = SearchEngine(mono)
    tier = ShardedSearchTier(root, replicas=2, worker_cpus=0.25)
    try:
        want = {tuple(t): eng.search(list(t), 10, tie="e6") for t in QUERIES}
        for terms in QUERIES:
            assert tier.search(list(terms), 10, tie="e6") == want[tuple(terms)]
        for grp in tier.replica_groups:          # kill one replica/shard
            ray.kill(grp[0])
        for terms in QUERIES:
            assert tier.search(list(terms), 10, tie="e6") == want[tuple(terms)]
    finally:
        tier.shutdown()


def test_tier_respawns_fully_dead_shard(deployment):
    """All replicas of a shard gone -> the tier respawns the shard from
    its immutable index files and the query stays exact (the ES
    reallocate-from-disk path)."""
    import ray
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    from onestools_eventlog_ray.pipelines.serving import ShardedSearchTier

    mono, root = deployment
    eng = SearchEngine(mono)
    tier = ShardedSearchTier(root, worker_cpus=WORKER_CPUS)  # 1 replica
    try:
        for grp in tier.replica_groups:           # every shard fully dead
            for w in grp:
                ray.kill(w)
        for terms in QUERIES:
            assert tier.search(list(terms), 10, tie="e6") \
                == eng.search(list(terms), 10, tie="e6")
        # respawned handles must be live for the next round too
        assert tier.search(["def"], 3, tie="e6") \
            == eng.search(["def"], 3, tie="e6")
    finally:
        tier.shutdown()


def test_cli_shard_build_and_search(ray_session, tmp_path,
                                    small_corpus_dir, capsys):
    """CLI round-trip over the sharded deployment: shard-build then
    shard-search, single and replicated workers agree."""
    import json as _json
    from onestools_eventlog_ray.cli import main as cli_main
    root = str(tmp_path / "cliroot")
    assert cli_main(["shard-build", "--corpus", small_corpus_dir,
                     "--index-root", root, "--shards", "3"]) == 0
    rep = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["n_shards"] == 3 and rep["n_docs"] == 400

    def run(extra=()):
        assert cli_main(["shard-search", "--index-root", root,
                         "--terms", "def import", "-k", "5", *extra]) == 0
        return [_json.loads(x)
                for x in capsys.readouterr().out.strip().splitlines()]

    taat = run(("--worker-cpus", str(WORKER_CPUS)))
    assert len(taat) == 5 and taat[0]["rank"] == 1
    assert run(("--replicas", "2", "--worker-cpus", "0.25")) == taat
