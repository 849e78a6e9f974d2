"""Per-partition checkpoint manifest — the resume/idempotence plane.

Replaces the reference's ``EventLogPosition`` recovered by a top-1 query
from the sink (``/root/reference/OneSTools.EventLog.Exporter.Core/EventLogPosition.cs:3-17``,
recovery ``ElasticSearch/ElasticSearchStorage.cs:56-93``): instead of one
serial byte-offset cursor, the index build writes one small JSON record
per posting partition with lineage (corpus fingerprint) + metrics, all
file writes atomic (tmp + ``os.replace``).  Resume = read the manifest,
skip partitions whose record is ``done`` with a matching fingerprint —
the analog of seeding the reader from the stored position
(``EventLogExporter.cs:203-232``), minus the serial-order dependence.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, asdict

#: bumped whenever the on-disk layout or any partitioning/codec rule
#: changes (posting codec version, term->shard hash, doc_id derivation,
#: part naming).  v4: doc_id = md5_number_lower(keys) >> 1 (was blake2b).
#: Stamped into every stats manifest by :func:`write_stats`; readers call
#: :func:`check_layout` so an index laid out under different rules fails
#: LOUDLY instead of probing the wrong shard and returning silent empties
#: (round-2 ADVICE, medium).
LAYOUT_VERSION = 4


def check_layout(stats: dict, where: str) -> None:
    """Raise when a stats manifest was written by a different layout
    version (or predates version stamping)."""
    got = stats.get("layout_version")
    if got != LAYOUT_VERSION:
        raise RuntimeError(
            f"index at {where} has layout_version={got!r}, engine expects "
            f"{LAYOUT_VERSION}: rebuild the index (term->shard hashing / "
            f"doc_id rules changed; serving it would silently mis-probe)")


@dataclass
class PartitionRecord:
    partition_id: int
    input_fingerprint: str   # "{rows}:{xor16hex}" corpus rollup
    output_path: str         # shard file, "" for empty partitions
    n_terms: int
    n_postings: int
    status: str              # "done" | "pending"


def atomic_write_text(path: str, text: str) -> None:
    tmp = path + ".tmp"
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def atomic_write_bytes(path: str, write_fn) -> None:
    """write_fn(tmp_path) then atomic rename — idempotent shard commit."""
    tmp = path + ".tmp"
    os.makedirs(os.path.dirname(path), exist_ok=True)
    write_fn(tmp)
    os.replace(tmp, path)


def manifest_dir(index_dir: str) -> str:
    return os.path.join(index_dir, "manifest")


def record_path(index_dir: str, pid: int) -> str:
    return os.path.join(manifest_dir(index_dir), f"part-{pid:05d}.json")


def write_record(index_dir: str, rec: PartitionRecord) -> None:
    atomic_write_text(record_path(index_dir, rec.partition_id),
                      json.dumps(asdict(rec)))


def read_records(index_dir: str) -> dict[int, PartitionRecord]:
    d = manifest_dir(index_dir)
    out: dict[int, PartitionRecord] = {}
    if not os.path.isdir(d):
        return out
    for name in os.listdir(d):
        if name.startswith("part-") and name.endswith(".json"):
            with open(os.path.join(d, name)) as f:
                raw = json.load(f)
            # records written before the build's wall time was dropped
            # (so two builds of one corpus write the same bytes) carry it
            raw.pop("build_wall_s", None)
            rec = PartitionRecord(**raw)
            out[rec.partition_id] = rec
    return out


def done_partitions(index_dir: str, fingerprint: str) -> set[int]:
    """Partitions already built for THIS corpus fingerprint (lineage check:
    a changed corpus invalidates every record, like the reference's
    missing-file fallback at ``EventLogExporter.cs:208-219``)."""
    return {pid for pid, r in read_records(index_dir).items()
            if r.status == "done" and r.input_fingerprint == fingerprint}


def stats_path(index_dir: str) -> str:
    return os.path.join(index_dir, "stats.json")


def write_stats(index_dir: str, stats: dict) -> None:
    atomic_write_text(stats_path(index_dir),
                      json.dumps({**stats, "layout_version": LAYOUT_VERSION},
                                 indent=1))


def read_stats(index_dir: str) -> dict:
    with open(stats_path(index_dir)) as f:
        return json.load(f)
