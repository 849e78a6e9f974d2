"""Kill-and-resume semantics (SURVEY.md §5.4): partition-manifest resume is
the engine's analog of the reference's stored-position restart
(``/root/reference/OneSTools.EventLog.Exporter.Core/EventLogExporter.cs:203-232``).
Deleting some partitions' shards + records and re-running must rebuild
ONLY those partitions and converge to identical postings and identical
query results.
"""

import glob
import os
import shutil

import pytest

from onestools_eventlog_ray import synth
from onestools_eventlog_ray.config import EngineConfig
from onestools_eventlog_ray.pipelines.build import build_index
from onestools_eventlog_ray.pipelines.query import SearchEngine
from onestools_eventlog_ray.state import checkpoint as ckpt
from tests.test_salt_equivalence import _load_all_postings

CFG = EngineConfig(num_partitions=8)


def test_resume_rebuilds_only_missing(tmp_path, small_corpus_dir, small_corpus):
    index_dir = str(tmp_path / "idx")
    r1 = build_index(small_corpus_dir, index_dir, cfg=CFG)
    before = _load_all_postings(index_dir)
    queries = synth.reference_queries(small_corpus, n_queries=15)
    eng = SearchEngine(index_dir)
    results = [eng.search(q["terms"], q["k"]) for q in queries]
    recs = ckpt.read_records(index_dir)
    assert len(recs) == CFG.num_partitions
    assert all(r.status == "done" for r in recs.values())
    assert all(r.input_fingerprint == r1["fingerprint"] for r in recs.values())

    # simulate a crash after partitions {0,1,..} finished: kill 3 partitions
    killed = [0, 3, 5]
    for pid in killed:
        os.remove(ckpt.record_path(index_dir, pid))
        shard = os.path.join(index_dir, "shards", f"part-{pid:05d}.parquet")
        if os.path.exists(shard):
            os.remove(shard)

    r2 = build_index(small_corpus_dir, index_dir, cfg=CFG)
    assert r2["resumed_partitions"] == CFG.num_partitions - len(killed)
    assert r2["fingerprint"] == r1["fingerprint"]
    after = _load_all_postings(index_dir)
    assert before == after

    # identical query results after resume
    eng = SearchEngine(index_dir)
    assert [eng.search(q["terms"], q["k"]) for q in queries] == results


def test_resume_after_crash_during_merges(tmp_path, small_corpus_dir):
    """The docstore marker and stats manifest are committed before any
    merge writes a shard, so a crash during the merges leaves docstore +
    marker + stats.json and no shards/records.  The rerun must rebuild
    every partition from one read WITHOUT rewriting the docstore."""
    from onestools_eventlog_ray.pipelines.build import docstore_path
    index_dir = str(tmp_path / "idx")
    r1 = build_index(small_corpus_dir, index_dir, cfg=CFG)
    before = _load_all_postings(index_dir)
    dstore = docstore_path(index_dir)
    marker = os.path.join(dstore, "_DOCSTORE_DONE")
    shards = glob.glob(os.path.join(index_dir, "shards", "*.parquet"))
    assert os.stat(marker).st_mtime_ns <= min(
        os.stat(f).st_mtime_ns for f in shards)
    parts = {f: os.stat(f).st_mtime_ns
             for f in glob.glob(os.path.join(dstore, "*.parquet"))}

    shutil.rmtree(os.path.join(index_dir, "shards"))
    shutil.rmtree(ckpt.manifest_dir(index_dir))
    r2 = build_index(small_corpus_dir, index_dir, cfg=CFG)
    assert r2["resumed_partitions"] == 0
    assert r2["fingerprint"] == r1["fingerprint"]
    assert _load_all_postings(index_dir) == before
    assert len(ckpt.done_partitions(index_dir, r1["fingerprint"])) == \
        CFG.num_partitions
    assert {f: os.stat(f).st_mtime_ns
            for f in glob.glob(os.path.join(dstore, "*.parquet"))} == parts


def test_resume_refuses_fingerprint_mismatch(tmp_path, small_corpus_dir):
    """A resume whose read folds to a fingerprint other than the recorded
    one must raise instead of splicing new shards next to old ones."""
    index_dir = str(tmp_path / "idx")
    build_index(small_corpus_dir, index_dir, cfg=CFG)
    stats = ckpt.read_stats(index_dir)
    ckpt.write_stats(index_dir, {**stats, "fingerprint": "0:0000000000000000"})
    shards = {f: os.stat(f).st_mtime_ns for f in
              glob.glob(os.path.join(index_dir, "shards", "*.parquet"))}
    with pytest.raises(RuntimeError, match="fingerprint"):
        build_index(small_corpus_dir, index_dir, cfg=CFG)
    assert {f: os.stat(f).st_mtime_ns for f in
            glob.glob(os.path.join(index_dir, "shards", "*.parquet"))} == shards


def test_noop_resume_skips_everything(tmp_path, small_corpus_dir):
    index_dir = str(tmp_path / "idx")
    build_index(small_corpus_dir, index_dir, cfg=CFG)
    r2 = build_index(small_corpus_dir, index_dir, cfg=CFG)
    assert r2["resumed_partitions"] == CFG.num_partitions
    assert r2["postings_s"] == 0.0


def test_changed_corpus_invalidates(tmp_path):
    """Lineage check: a different corpus fingerprint must NOT reuse records."""
    import pyarrow.parquet as pq
    from onestools_eventlog_ray import synth as s
    d1 = tmp_path / "c1"
    d2 = tmp_path / "c2"
    d1.mkdir()
    d2.mkdir()
    pq.write_table(s.generate_corpus(60, seed=1), str(d1 / "p.parquet"))
    pq.write_table(s.generate_corpus(60, seed=2), str(d2 / "p.parquet"))
    index_dir = str(tmp_path / "idx")
    build_index(str(d1), index_dir, cfg=CFG)
    r2 = build_index(str(d2), index_dir, cfg=CFG)
    assert r2["resumed_partitions"] == 0


def test_lost_stats_manifest_recovers_same_fingerprint(tmp_path, small_corpus_dir):
    """Losing stats.json (but keeping the docstore) must recompute the SAME
    doc_id-mixed rollup fingerprint the build recorded — so the partition
    records stay valid and nothing is rebuilt — and re-persist the manifest."""
    index_dir = str(tmp_path / "idx")
    r1 = build_index(small_corpus_dir, index_dir, cfg=CFG)
    os.remove(ckpt.stats_path(index_dir))

    r2 = build_index(small_corpus_dir, index_dir, cfg=CFG)
    assert r2["fingerprint"] == r1["fingerprint"]
    assert r2["resumed_partitions"] == CFG.num_partitions
    # manifest was re-persisted by the recovery path
    assert ckpt.read_stats(index_dir)["fingerprint"] == r1["fingerprint"]


def test_interrupted_docstore_pass_leaves_no_duplicates(tmp_path, small_corpus_dir):
    """A crash mid-map leaves part files but no _DOCSTORE_DONE marker;
    the rerun must wipe them (else the docstore holds duplicate docs and
    the corpus stats/fingerprint are wrong)."""
    import pyarrow.parquet as pq
    from onestools_eventlog_ray.pipelines.build import docstore_path
    index_dir = str(tmp_path / "idx")
    r1 = build_index(small_corpus_dir, index_dir, cfg=CFG)
    dstore = docstore_path(index_dir)
    n_rows = pq.read_table(glob.glob(dstore + "/*.parquet")).num_rows

    # simulate the crash: marker gone, stale part files still on disk
    os.remove(os.path.join(dstore, "_DOCSTORE_DONE"))
    stale = os.path.join(dstore, "part-99999999-deadbeefdeadbeef.parquet")
    files = glob.glob(dstore + "/*.parquet")
    os.rename(files[0], stale)

    r2 = build_index(small_corpus_dir, index_dir, cfg=CFG)
    assert r2["fingerprint"] == r1["fingerprint"]
    assert not os.path.exists(stale)
    assert pq.read_table(glob.glob(dstore + "/*.parquet")).num_rows == n_rows
