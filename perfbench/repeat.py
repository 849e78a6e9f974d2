"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --seeds 1-10 --out .perfbench/set1.jsonl

Each run is ``BENCHMARK.json``'s command with ``--workload``, ``--seed``,
``--seconds run_seconds`` and ``--trace``; its result line is appended to
``--out`` as one JSON record.  The summary gives, per (workload, metric),
the median, the quartiles (``statistics.quantiles(n=4)``), the
quartile spread as a share of the median next to the metric's bound, and
the run wall times.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    t = time.monotonic()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=180)
    wall = time.monotonic() - t
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {p.returncode}:\n"
                           + p.stderr[-2000:])
    return {"workload": workload, "seed": seed, "trace": trace,
            "wall_s": wall, "result": json.loads(lines[-1])}


def summarize(records: list[dict], spec: dict) -> str:
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    out = ["| workload | metric | unit | n | median | q1 | q3 | spread | bound |",
           "|---|---|---|---|---|---|---|---|---|"]
    by: dict[tuple, list] = {}
    walls: dict[str, list] = {}
    for r in records:
        walls.setdefault(r["workload"], []).append(r["wall_s"])
        for name, m in r["result"]["metrics"].items():
            by.setdefault((r["workload"], name, m["unit"]), []).append(
                m["value"])
    for (wl, name, unit), vals in by.items():
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0],) * 3)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        b = bounds.get(name)
        flag = "" if b is None or name == "setup_s" or spread <= b / 3 \
            else (" (over bound/3)" if spread <= b else " (OVER BOUND)")
        out.append(f"| {wl} | {name} | {unit} | {len(vals)} | {med:.6g} | "
                   f"{q1:.6g} | {q3:.6g} | {spread:.4f}{flag} | "
                   f"{'' if b is None else b} |")
    bad = sum(r["result"]["failed"] for r in records)
    out.append("")
    out.append("runs: " + ", ".join(
        f"{wl} {len(w)} (wall median {statistics.median(w):.1f} s, "
        f"max {max(w):.1f} s)" for wl, w in walls.items())
        + f"; failed operations: {bad}")
    return "\n".join(out)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="*", default=None)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    records = []
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    for seed in seeds_of(args.seeds):
        for wl in workloads:
            rec = run_once(spec, wl, seed, args.trace)
            records.append(rec)
            print(f"{wl} seed {seed}: {rec['wall_s']:.1f} s, "
                  f"failed {rec['result']['failed']}", file=sys.stderr)
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps(rec) + "\n")
    print(summarize(records, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
