"""Document tombstones — deletes for an append-only index.

The reference handles deleted inputs and removed tenants live
(``/root/reference/OneSTools.EventLog/LgpReader.cs:62-79`` delete-watcher;
``Exporter.Manager/ExportersManager.cs:137-145`` stop-on-removal), and
its ElasticSearch sink supports delete-by-id.  Our shards and docstores
are immutable (append-only, like ES segments), so deletes are SOFT:
``delete_docs`` appends a small tombstone parquet under
``<index_dir>/tombstones/``; every query path (TAAT, conjunctive, sparse,
fetch, filtered) masks tombstoned doc_ids out of results, and
compaction drops them physically (the segment-merge analog).

Semantics follow ES soft-deletes before a merge: corpus statistics
(N, avgdl, df) remain those of the BUILT index — tombstones gate only
result membership — which keeps the operator exactly SQL-expressible
(oracle = full-corpus BM25 with ``doc_id NOT IN (deleted)``).

For a generational root, tombstones live at the ROOT directory and
apply across all generations.  Tombstone files are content-named
(idempotent rewrite under retry) and atomically committed, like every
other sink in the engine.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from onestools_eventlog_ray.state.checkpoint import atomic_write_bytes

GOLDEN64 = np.uint64(0x9E3779B97F4A7C15)


def tombstone_dir(index_dir: str) -> str:
    return os.path.join(index_dir, "tombstones")


def delete_docs(index_dir: str, doc_ids) -> int:
    """Soft-delete documents by id.  Appends one tombstone part file;
    idempotent (the file name is derived from the id set, and re-deleting
    already-deleted ids merely rewrites/unions).  Returns the number of
    ids recorded in this call."""
    ids = np.unique(np.asarray(list(doc_ids), dtype=np.int64))
    if ids.size == 0:
        return 0
    acc = int(np.bitwise_xor.reduce(ids.astype(np.uint64) * GOLDEN64))
    t = pa.table({"doc_id": pa.array(ids, pa.int64())})
    path = os.path.join(tombstone_dir(index_dir),
                        f"del-{ids.size:08d}-{acc:016x}.parquet")
    atomic_write_bytes(path, lambda tmp: pq.write_table(t, tmp))
    return int(ids.size)


def load_tombstones(index_dir: str) -> np.ndarray:
    """Sorted unique int64 array of all tombstoned doc_ids (empty if no
    tombstones directory)."""
    files = sorted(glob.glob(os.path.join(tombstone_dir(index_dir),
                                          "*.parquet")))
    if not files:
        return np.empty(0, dtype=np.int64)
    t = pq.read_table(files, columns=["doc_id"])
    return np.unique(t["doc_id"].to_numpy(zero_copy_only=False)
                     .astype(np.int64))


def clear_tombstones(index_dir: str) -> None:
    """Remove all tombstones (used after compaction physically drops the
    deleted documents)."""
    import shutil
    d = tombstone_dir(index_dir)
    if os.path.isdir(d):
        shutil.rmtree(d)


class PitInvalidError(RuntimeError):
    """A point-in-time snapshot references tombstone files that no
    longer exist — compaction ran since the PIT was opened (ES returns
    the same error for a PIT that outlives its segments)."""


def open_pit(index_dir: str) -> dict:
    """ES point-in-time API: snapshot the CURRENT delete state as a
    small token.  Tombstone files are immutable and content-named, so
    pinning the file listing pins the visible document set exactly —
    deletes appended after the PIT opened add new files the PIT never
    reads.  The token is a plain dict (JSON-serializable, shippable to
    any worker)."""
    files = sorted(os.path.basename(f) for f in glob.glob(
        os.path.join(tombstone_dir(index_dir), "*.parquet")))
    return {"tombstone_files": files}


def load_tombstones_at(index_dir: str, pit: dict) -> np.ndarray:
    """The tombstone set AS OF a PIT token (sorted unique int64).
    Raises :class:`PitInvalidError` if compaction has dropped any
    pinned file."""
    names = list(pit.get("tombstone_files", ()))
    if not names:
        return np.empty(0, dtype=np.int64)
    paths = [os.path.join(tombstone_dir(index_dir), n) for n in names]
    missing = [p for p in paths if not os.path.isfile(p)]
    if missing:
        raise PitInvalidError(
            f"PIT pins {len(missing)} tombstone file(s) removed by "
            f"compaction: {[os.path.basename(m) for m in missing]}")
    t = pq.read_table(paths, columns=["doc_id"])
    return np.unique(t["doc_id"].to_numpy(zero_copy_only=False)
                     .astype(np.int64))
