"""Driver-memory flatness audit (round-4 verdict item #5).

Runs the index build plus the most expensive dedup pipelines at two
corpus scales (default 500k and 5M synthetic docs — a 10x step) and
records, per stage:

* wall seconds,
* the PEAK driver RSS DELTA over the stage (sampled from
  /proc/self/status every 50 ms, relative to the stage's start RSS) —
  the contract under test: driver-side allocation per stage is
  O(bloom bitmaps + manifests + top-k), never O(corpus),
* peak Ray object-store usage (cluster minus available resource).

The absolute driver RSS baseline legitimately grows a little with
corpus size (Ray block metadata, plasma client buffers); the per-stage
DELTA is the flatness contract.  Exit code 1 if any query stage's
delta at the big scale exceeds the small scale's by > FLAT_TOL_MB.

Usage:
    python tools/memprofile.py [small_docs] [big_docs] [out.json]
Defaults: 500000 5000000 MEMPROFILE_r5.json
"""
from __future__ import annotations

import json
import os
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

FLAT_TOL_MB = 512.0


def rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Sampler:
    """50 ms RSS + object-store sampler with per-stage peak windows."""

    def __init__(self):
        self._stop = False
        self._peak_rss = rss_mb()
        self._peak_obj = 0.0
        self._lock = threading.Lock()
        self._t = threading.Thread(target=self._run, daemon=True)
        self._t.start()

    def _obj_used_mb(self) -> float:
        import ray
        try:
            total = ray.cluster_resources().get("object_store_memory", 0.0)
            avail = ray.available_resources().get("object_store_memory", 0.0)
            return (total - avail) / (1 << 20)
        except Exception:
            return 0.0

    def _run(self):
        while not self._stop:
            r, o = rss_mb(), self._obj_used_mb()
            with self._lock:
                self._peak_rss = max(self._peak_rss, r)
                self._peak_obj = max(self._peak_obj, o)
            time.sleep(0.05)

    def window(self):
        with self._lock:
            self._peak_rss = rss_mb()
            self._peak_obj = self._obj_used_mb()

    def peaks(self):
        with self._lock:
            return self._peak_rss, self._peak_obj

    def stop(self):
        self._stop = True
        self._t.join()


def profile_scale(n_docs: int, stages_sel=("build", "dedup")) -> dict:
    import ray
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.pipelines import dedup
    from onestools_eventlog_ray.pipelines.build import build_index
    from onestools_eventlog_ray.sources.corpus import (CODE_CORPUS_SPEC,
                                                       read_parquet_clean)
    from onestools_eventlog_ray.synth import write_corpus

    corpus = f"/tmp/oel_bench_corpus/n{n_docs}_s42"
    write_corpus(corpus, n_docs=n_docs, seed=42)
    idx = f"/dev/shm/oel_memprof_idx/n{n_docs}"
    import shutil
    shutil.rmtree(idx, ignore_errors=True)
    cfg = EngineConfig(num_partitions=64,
                       salt_target_run=max(1000, n_docs // 8))

    sampler = Sampler()
    out: dict[str, dict] = {}

    def stage(name, fn):
        sampler.window()
        base = rss_mb()
        t0 = time.perf_counter()
        fn()
        wall = time.perf_counter() - t0
        prss, pobj = sampler.peaks()
        out[name] = {"wall_s": round(wall, 2),
                     "driver_rss_base_mb": round(base, 1),
                     "driver_rss_delta_mb": round(max(0.0, prss - base), 1),
                     "object_store_peak_mb": round(pobj, 1)}
        print(f"  [{n_docs}] {name}: {wall:.1f}s rss_delta="
              f"{out[name]['driver_rss_delta_mb']}MB "
              f"objstore_peak={out[name]['object_store_peak_mb']}MB",
              flush=True)

    if "build" in stages_sel:
        stage("index_build", lambda: build_index(corpus, idx, cfg=cfg))

    def _ds():
        return read_parquet_clean(corpus)

    if "dedup" in stages_sel:
        stage("minhash_lsh_groups",
              lambda: dedup.minhash_lsh_groups(_ds(),
                                               CODE_CORPUS_SPEC).count())
        stage("minhash_verified_pairs",
              lambda: dedup.minhash_verified_pairs(_ds(), CODE_CORPUS_SPEC,
                                                   min_jaccard=0.5).count())
        stage("exact_dedup",
              lambda: dedup.exact_dedup(_ds(), CODE_CORPUS_SPEC).count())
        stage("dedup_clusters_dist",
              lambda: dedup.dedup_clusters(_ds(), CODE_CORPUS_SPEC,
                                           min_jaccard=0.5,
                                           impl="distributed").num_rows)
    sampler.stop()
    shutil.rmtree(idx, ignore_errors=True)
    return out


def main():
    import ray
    # the BUILD profiles at the full 10x step (500k -> 5M docs, the
    # verdict's OEL_BENCH_DOCS=5000000 audit); the dedup pipelines
    # profile their own 10x step one decade lower (50k -> 500k) because
    # shingling 5M long code docs is an hour of pure compute that adds
    # no memory information beyond the 10x step itself.
    small = int(sys.argv[1]) if len(sys.argv) > 1 else 500_000
    big = int(sys.argv[2]) if len(sys.argv) > 2 else 5_000_000
    out_path = sys.argv[3] if len(sys.argv) > 3 else "MEMPROFILE_r5.json"
    ncpu = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.op_resource_reservation_enabled = False
    ctx.read_op_min_num_blocks = max(32, 2 * ncpu)

    report = {"num_cpus": ncpu, "scales": {}}
    for n, sel in ((small // 10, ("dedup",)), (small, ("build", "dedup")),
                   (big, ("build",))):
        print(f"== scale {n} {sel} ==", flush=True)
        report["scales"][str(n)] = profile_scale(n, sel)
    # stitch the two 10x comparisons: build small->big, dedup small/10->small
    s = dict(report["scales"][str(small // 10)])
    s["index_build"] = report["scales"][str(small)]["index_build"]
    b = dict(report["scales"][str(small)])
    b["index_build"] = report["scales"][str(big)]["index_build"]
    report["flatness"] = {}
    ok = True
    for name in b:
        if name == "index_build":
            continue                      # build's driver fold is stats-sized
        d = b[name]["driver_rss_delta_mb"] - s[name]["driver_rss_delta_mb"]
        flat = d <= FLAT_TOL_MB
        report["flatness"][name] = {"delta_growth_mb": round(d, 1),
                                    "flat": bool(flat)}
        ok &= flat
    report["flat_tol_mb"] = FLAT_TOL_MB
    report["all_flat"] = bool(ok)
    with open(out_path, "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps({"all_flat": ok,
                      "flatness": report["flatness"]}), flush=True)
    ray.shutdown()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
