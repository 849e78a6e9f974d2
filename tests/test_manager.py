"""Multi-corpus manager: registry diff semantics (build / refresh /
retire / mask filter) — the reference's ExportersManager + ClstWatcher
behavior (SURVEY.md §3.2)."""

import json
import os
import time

import pyarrow.parquet as pq
import pytest

from onestools_eventlog_ray import synth
from onestools_eventlog_ray.config import EngineConfig
from onestools_eventlog_ray.pipelines.manager import read_state, sync_registry

CFG = EngineConfig(num_partitions=8)


@pytest.fixture()
def registry(tmp_path):
    corpora = {}
    for i, name in enumerate(("alpha", "beta", "internal-x")):
        d = tmp_path / f"corpus_{name}"
        d.mkdir()
        pq.write_table(synth.generate_corpus(40, seed=100 + i),
                       str(d / "p.parquet"))
        corpora[name] = str(d)
    reg_path = str(tmp_path / "registry.json")
    entries = [{"name": n, "corpus": c,
                "index_root": str(tmp_path / f"idx_{n}")}
               for n, c in corpora.items()]
    with open(reg_path, "w") as f:
        json.dump({"mask": "^(alpha|beta)", "corpora": entries}, f)
    return reg_path, corpora, entries


def test_initial_sync_builds_masked(registry):
    reg_path, corpora, entries = registry
    rep = sync_registry(reg_path, cfg=CFG)
    assert sorted(rep["built"]) == ["alpha", "beta"]
    assert rep["skipped_by_mask"] == ["internal-x"]
    st = read_state(reg_path)
    assert set(st["managed"]) == {"alpha", "beta"}
    for name in ("alpha", "beta"):
        assert os.path.isdir(os.path.join(st["managed"][name]["index_root"],
                                          "shards"))


def test_unchanged_then_refresh_then_retire(registry):
    reg_path, corpora, entries = registry
    sync_registry(reg_path, cfg=CFG)

    # round 2: nothing changed
    rep = sync_registry(reg_path, cfg=CFG)
    assert sorted(rep["unchanged"]) == ["alpha", "beta"]
    assert rep["built"] == [] and rep["refreshed"] == []

    # round 3: alpha's corpus changes -> refresh
    time.sleep(0.01)
    pq.write_table(synth.generate_corpus(45, seed=7),
                   os.path.join(corpora["alpha"], "p.parquet"))
    rep = sync_registry(reg_path, cfg=CFG)
    assert rep["refreshed"] == ["alpha"]
    assert rep["unchanged"] == ["beta"]

    # round 4: beta removed from the registry -> retired
    with open(reg_path) as f:
        reg = json.load(f)
    reg["corpora"] = [e for e in reg["corpora"] if e["name"] != "beta"]
    with open(reg_path, "w") as f:
        json.dump(reg, f)
    rep = sync_registry(reg_path, cfg=CFG)
    assert rep["retired"] == ["beta"]
    assert set(read_state(reg_path)["managed"]) == {"alpha"}


def test_cli_build_search_stats(tmp_path, small_corpus, small_corpus_dir,
                                capsys):
    from onestools_eventlog_ray.cli import main
    from onestools_eventlog_ray.pipelines.incremental import add_generation
    index = str(tmp_path / "idx")
    assert main(["build", "--corpus", small_corpus_dir, "--index", index]) == 0
    out = capsys.readouterr().out.strip().splitlines()[-1]
    rep = json.loads(out)
    assert rep["n_docs"] == 400

    def search(path):
        assert main(["search", "--index", path, "--terms", "def import",
                     "-k", "3"]) == 0
        return [json.loads(x)
                for x in capsys.readouterr().out.strip().splitlines()]

    hits = search(index)
    assert 1 <= len(hits) <= 3
    assert hits[0]["rank"] == 1
    # the same command opens a root of generations over the same docs
    root = str(tmp_path / "root")
    for i, tbl in enumerate([small_corpus.slice(0, 150),
                             small_corpus.slice(150)]):
        src = str(tmp_path / f"part{i}.parquet")
        pq.write_table(tbl, src)
        add_generation(src, root)
    capsys.readouterr()
    assert [h["doc_id"] for h in search(root)] \
        == [h["doc_id"] for h in hits]

    assert main(["stats", "--index", index]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["n_docs"] == 400 and stats["partitions_done"] == \
        stats["num_partitions"]
