"""Partition manifest records: a resharded index gets one record per
target shard, naming its own shard files; two builds of one corpus write
the same record bytes; records that still carry the dropped
``build_wall_s`` field read back."""

import glob
import json
import os
import shutil

import pyarrow.parquet as pq
import pytest

from onestools_eventlog_ray.config import EngineConfig
from onestools_eventlog_ray.pipelines.build import build_index
from onestools_eventlog_ray.state import checkpoint as ckpt

CFG = EngineConfig(num_partitions=8)


def _manifest_bytes(index: str) -> dict[str, bytes]:
    out = {}
    for f in sorted(glob.glob(os.path.join(index, "manifest", "part-*.json"))):
        with open(f, "rb") as fh:
            out[os.path.basename(f)] = fh.read()
    return out


@pytest.fixture(scope="module")
def index(tmp_path_factory, small_corpus_dir):
    path = str(tmp_path_factory.mktemp("manifest") / "index")
    build_index(small_corpus_dir, path, cfg=CFG)
    return path


@pytest.mark.parametrize("op,P2", [("split", 16), ("shrink", 4)])
def test_reshard_writes_one_record_per_target_shard(index, tmp_path, op, P2):
    from onestools_eventlog_ray.pipelines import incremental
    before = _manifest_bytes(index)
    out = str(tmp_path / op)
    getattr(incremental, f"{op}_index")(index, out, factor=2)
    recs = ckpt.read_records(out)
    assert sorted(recs) == list(range(P2))
    fp = ckpt.read_stats(out)["fingerprint"]
    assert ckpt.done_partitions(out, fp) == set(range(P2))
    n_files = 0
    for pid, rec in recs.items():
        shard = os.path.join(out, "shards", f"part-{pid:05d}.parquet")
        if rec.n_terms:
            n_files += 1
            assert rec.output_path == shard
            tbl = pq.read_table(shard, columns=["df"])
            assert rec.n_terms == tbl.num_rows
            assert rec.n_postings == sum(tbl["df"].to_pylist())
        else:
            assert rec.output_path == "" and not os.path.exists(shard)
    assert n_files == len(glob.glob(os.path.join(out, "shards", "*.parquet")))
    if op == "split":
        assert n_files == P2        # every record points into `out`
    # the source's records are not touched
    assert _manifest_bytes(index) == before


def test_two_builds_write_identical_records(tmp_path, small_corpus_dir):
    path = str(tmp_path / "index")
    build_index(small_corpus_dir, path, cfg=CFG)
    first = _manifest_bytes(path)
    shutil.rmtree(path)
    build_index(small_corpus_dir, path, cfg=CFG)
    assert len(first) == CFG.num_partitions
    assert _manifest_bytes(path) == first


def test_records_with_a_wall_time_still_read(tmp_path):
    path = str(tmp_path)
    rec = {"partition_id": 3, "input_fingerprint": "12:ab",
           "output_path": "", "n_terms": 0, "n_postings": 0,
           "build_wall_s": 0.01234567, "status": "done"}
    os.makedirs(ckpt.manifest_dir(path))
    with open(ckpt.record_path(path, 3), "w") as fh:
        json.dump(rec, fh)
    del rec["build_wall_s"]
    assert ckpt.read_records(path) == {3: ckpt.PartitionRecord(**rec)}
    assert ckpt.done_partitions(path, "12:ab") == {3}
