"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run each workload's traced mode on a small corpus, so they take
about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import gen
import run as bench
from onestools_eventlog_ray import synth
from onestools_eventlog_ray.pipelines import query


@pytest.fixture(scope="module")
def small_present():
    tbl = synth.generate_corpus(300, seed=5)
    return gen.present_terms(tbl["content"])


def test_generators_are_deterministic_per_seed(small_present):
    ids = np.arange(1000, 2000, dtype=np.int64)
    assert gen.hot_queries(3, 50) == gen.hot_queries(3, 50)
    assert gen.hot_queries(3, 50) != gen.hot_queries(4, 50)
    assert gen.cold_queries(3, small_present) == gen.cold_queries(3, small_present)
    assert gen.cold_queries(3, small_present) != gen.cold_queries(4, small_present)
    assert gen.serve_queries(3, small_present, 20) == \
        gen.serve_queries(3, small_present, 20)
    assert np.array_equal(gen.delete_ids(3, ids), gen.delete_ids(3, ids))
    assert not np.array_equal(gen.delete_ids(3, ids), gen.delete_ids(4, ids))
    a = synth.generate_corpus(50, seed=9)
    assert a.equals(synth.generate_corpus(50, seed=9))


def test_working_sets_straddle_the_engine_caches(tmp_path):
    # at the benchmark's corpus size: query_hot fits the 256-entry
    # decoded-weight cache, query_cold overflows the term cache 4x
    corpus = synth.write_corpus(str(tmp_path / "c"), bench.CORPUS_DOCS, 1)
    _, content, _ = gen.read_corpus_table(corpus)
    assert gen.distinct_terms(gen.hot_queries(1, bench.HOT_STREAM)) <= 256
    cold = gen.cold_queries(1, gen.present_terms(content))
    assert gen.distinct_terms(cold) >= 4 * query._TERM_CACHE_MAX
    # every cold term appears once in the stream
    assert gen.distinct_terms(cold) == sum(len(q) for q in cold)


def test_tail_percentile_keeps_ten_samples_beyond():
    v, pct = bench.tail_percentile(list(range(1000)))
    assert (v, pct) == (989, 99.0)
    v, pct = bench.tail_percentile(list(range(200)))
    assert v == 189 and sum(x > v for x in range(200)) == 10
    assert bench.tail_percentile([3.0, 1.0])[0] == 3.0


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_layers_sum_to_traced_end_to_end(workload, monkeypatch, capsys):
    # large enough that per-query work dwarfs the fixed cost of a call
    monkeypatch.setattr(bench, "CORPUS_DOCS", 2000)
    if workload == "query_cold":
        # a small corpus has few distinct terms; shrink the term cache with
        # it so query_cold still overflows it fourfold
        monkeypatch.setattr(query, "_TERM_CACHE_MAX", 64)
    assert bench.main(["--workload", workload, "--seed", "3",
                       "--seconds", "1", "--trace", "1"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert m["trace.e2e_ms"] > 0
    assert abs(m["trace.layer_sum_ms"] - m["trace.e2e_ms"]) \
        <= 0.1 * m["trace.e2e_ms"]
    if workload == "query_hot":
        assert m["pipelines.query.load_hit_ratio"] == 1.0
    if workload == "query_cold":
        assert m["pipelines.query.load_hit_ratio"] < 0.5


def test_orphaned_descendants_are_stopped_and_reaped():
    # a grandchild whose parent exits first, as a Ray worker does when the
    # raylet goes, must be gone before the benchmark returns; run in a
    # child so this test process does not become a subreaper
    code = (
        "import os, subprocess, procstat\n"
        "procstat.become_subreaper()\n"
        "pid = int(subprocess.run(\n"
        "    ['sh', '-c', 'sleep 60 >/dev/null 2>&1 & echo $!'],\n"
        "    capture_output=True, text=True).stdout)\n"
        "assert pid in procstat.session_pids()\n"
        "procstat.wait_for_descendants(timeout_s=0.5)\n"
        "assert not os.path.exists(f'/proc/{pid}')\n")
    p = subprocess.run([sys.executable, "-c", code],
                       cwd=os.path.dirname(os.path.abspath(bench.__file__)),
                       capture_output=True, text=True, timeout=60)
    assert p.returncode == 0, p.stderr


def test_fails_without_the_engine(tmp_path):
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(os.path.abspath(bench.__file__)),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "build", "--seed", "1", "--seconds", "1", "--trace",
                        "0"], cwd=tmp_path, capture_output=True, text=True,
                       timeout=120, env=env)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
