"""Index snapshot / restore — the ES ``_snapshot`` API analog — and the
one module that knows the files of an index tree.

Three helpers carry every file operation of the index lifecycle:

- :func:`index_files` walks every regular file under a tree (a plain
  index, a generational root, a multifield root, with whatever sidecars
  they hold), so no list of subdirectories is kept anywhere;
- :func:`link_or_copy` places one file atomically: tmp name, hardlink
  (``shutil.copy2`` when the link fails), then ``os.replace``;
- :func:`_sha256_file` hashes one file.

Snapshots live in a content-addressed REPOSITORY (the ES incremental
snapshot model): ``blobs/<aa>/<sha256>`` holds each distinct file
content once, and ``snapshots/<name>.json`` lists (path, sha, size).
The manifest is written LAST, so it is also the completion marker: a
crashed snapshot is never mistaken for a complete one (the reference's
atomic bulk-sink contract,
``/root/reference/OneSTools.EventLog.Exporter.Core/ElasticSearchStorage.cs:293-320``).
Blobs are hardlinked when repository and index share a filesystem, so a
snapshot of a multi-GB index is metadata-only, exactly how ES snapshots
reuse immutable segment files (our shard/docstore parts are immutable
once written, same invariant).

:func:`snapshot_index` / :func:`restore_index` store and restore one
snapshot under a fixed name; :func:`snapshot_to_repo` /
:func:`restore_from_repo` take the name.  Restore checks every file's
sha256 and then the layout version of every index in the restored tree
before it may serve, so a corrupt blob or a snapshot from an
incompatible engine refuses instead of silently mis-serving.  Shard
count changes (``incremental.shrink_index`` / ``split_index``) link
their unchanged files through the same two helpers.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

_REPO_SNAPDIR = "snapshots"
_REPO_BLOBDIR = "blobs"
#: the name :func:`snapshot_index` stores its one snapshot under
_SNAP_NAME = "snapshot"


class SnapshotCorruptError(OSError):
    """A snapshot blob is missing or no longer matches its sha256."""


def index_files(root: str) -> list[tuple[str, str]]:
    """Every regular file under ``root`` as sorted (relpath, abspath)."""
    out = []
    for d, _dirs, files in os.walk(root):
        for f in files:
            p = os.path.join(d, f)
            if os.path.isfile(p):
                out.append((os.path.relpath(p, root), p))
    return sorted(out)


def link_or_copy(src: str, dst: str) -> None:
    """Place ``src`` at ``dst`` atomically: a hardlink when both sit on
    one filesystem (metadata-only), else a copy, written under a tmp
    name and renamed, so ``dst`` is never half-written."""
    if os.path.exists(dst) and os.path.samefile(src, dst):
        return              # rename(2) of two links to one file is a no-op
    os.makedirs(os.path.dirname(dst), exist_ok=True)
    tmp = f"{dst}.tmp.{os.getpid()}"
    try:
        os.link(src, tmp)
    except OSError:
        shutil.copy2(src, tmp)
    os.replace(tmp, dst)


def _sha256_file(path: str, bufsize: int = 1 << 20) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(bufsize), b""):
            h.update(chunk)
    return h.hexdigest()


def _blob_path(repo_dir: str, sha: str) -> str:
    return os.path.join(repo_dir, _REPO_BLOBDIR, sha[:2], sha)


def snapshot_index(index_dir: str, snap_dir: str) -> dict:
    """Snapshot an index (or a generational / multifield root) into a
    repository at ``snap_dir`` under a fixed name.  Idempotent: an
    existing complete snapshot is left untouched and its summary
    returned."""
    return snapshot_to_repo(index_dir, snap_dir, _SNAP_NAME)


def restore_index(snap_dir: str, dest_dir: str) -> dict:
    """Restore the snapshot :func:`snapshot_index` stored at
    ``snap_dir`` into ``dest_dir`` (sha256- and layout-checked)."""
    return restore_from_repo(snap_dir, _SNAP_NAME, dest_dir)


def snapshot_to_repo(index_dir: str, repo_dir: str, snap_name: str) -> dict:
    """Snapshot a tree into a content-addressed REPOSITORY — the ES
    incremental-snapshot model: blobs are stored once per distinct file
    content (``blobs/<aa>/<sha256>``), a named manifest lists
    (relpath, sha, size), and a later snapshot of a mutated index
    re-uploads ONLY the blobs the mutation created (our shard/docstore
    parts are immutable once written, so generational adds / tombstone
    writes / compactions touch a small file set; everything else is
    manifest-only reuse).  Refuses a tree that holds no ``stats.json``
    (nothing to serve).

    100-TB story: each data node would hash+upload its own shard files
    (the walk is per-file and stateless — trivially a map_batches over
    the file list); the driver writes only the manifest.  Blob writes
    are tmp + atomic rename and content-keyed, hence idempotent under
    retries and concurrent snapshots.  Returns
    {snap_name, n_files, n_bytes, n_blobs_new, n_blobs_reused}."""
    walk = index_files(index_dir)
    if not any(os.path.basename(rel) == "stats.json" for rel, _ in walk):
        raise FileNotFoundError(f"no stats.json under {index_dir}: "
                                "not a complete index")
    snaps = os.path.join(repo_dir, _REPO_SNAPDIR)
    os.makedirs(snaps, exist_ok=True)
    man_path = os.path.join(snaps, snap_name + ".json")
    if os.path.exists(man_path):                # idempotent re-snapshot
        with open(man_path) as f:
            return json.load(f)["summary"]
    files, new, reused, total = [], 0, 0, 0
    for rel, path in walk:
        sha = _sha256_file(path)
        size = os.path.getsize(path)
        bpath = _blob_path(repo_dir, sha)
        if os.path.exists(bpath):
            reused += 1
        else:
            link_or_copy(path, bpath)
            new += 1
        files.append({"path": rel, "sha": sha, "size": size})
        total += size
    summary = {"snap_name": snap_name, "n_files": len(files),
               "n_bytes": total, "n_blobs_new": new,
               "n_blobs_reused": reused}
    tmp = man_path + f".tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump({"summary": summary, "files": files}, f)
    os.replace(tmp, man_path)                   # manifest commit = done
    return summary


def restore_from_repo(repo_dir: str, snap_name: str, dest_dir: str) -> dict:
    """Materialize a named repository snapshot into ``dest_dir``.  Every
    blob's sha256 is checked against the manifest before it is placed
    (:class:`SnapshotCorruptError` on a mismatch or a missing blob),
    then every index in the restored tree (each directory holding a
    ``stats.json``: a plain index, each ``gen-*``, each ``field-*``)
    must pass the layout gate before it may serve."""
    from onestools_eventlog_ray.state import checkpoint as ckpt
    man_path = os.path.join(repo_dir, _REPO_SNAPDIR, snap_name + ".json")
    if not os.path.exists(man_path):
        raise FileNotFoundError(f"no snapshot '{snap_name}' in {repo_dir}")
    with open(man_path) as f:
        man = json.load(f)
    for ent in man["files"]:
        bpath = _blob_path(repo_dir, ent["sha"])
        got = _sha256_file(bpath) if os.path.exists(bpath) else "missing"
        if got != ent["sha"]:
            raise SnapshotCorruptError(f"blob corrupt for {ent['path']}: "
                                       f"{got} != {ent['sha']}")
        link_or_copy(bpath, os.path.join(dest_dir, ent["path"]))
    for ent in man["files"]:
        if os.path.basename(ent["path"]) == "stats.json":
            d = os.path.join(dest_dir, os.path.dirname(ent["path"]))
            ckpt.check_layout(ckpt.read_stats(d), d)
    return man["summary"]


def delete_repo_snapshot(repo_dir: str, snap_name: str) -> dict:
    """Delete a named snapshot and garbage-collect blobs no OTHER
    snapshot references (the ES delete-with-safe-GC contract: blob
    liveness is the union of all remaining manifests)."""
    snaps = os.path.join(repo_dir, _REPO_SNAPDIR)
    man_path = os.path.join(snaps, snap_name + ".json")
    if not os.path.exists(man_path):
        raise FileNotFoundError(f"no snapshot '{snap_name}' in {repo_dir}")
    with open(man_path) as f:
        dead = {e["sha"] for e in json.load(f)["files"]}
    os.unlink(man_path)                          # snapshot gone FIRST
    live: set[str] = set()
    for entry in os.listdir(snaps):
        if entry.endswith(".json"):
            with open(os.path.join(snaps, entry)) as f:
                live.update(e["sha"] for e in json.load(f)["files"])
    removed = 0
    for sha in sorted(dead - live):
        bpath = _blob_path(repo_dir, sha)
        if os.path.exists(bpath):
            os.unlink(bpath)
            removed += 1
    return {"deleted": snap_name, "blobs_removed": removed,
            "blobs_kept": len(dead & live)}


def repo_report(repo_dir: str):
    """Per-snapshot repository accounting table: files, logical bytes,
    blobs newly uploaded vs reused at snapshot time — the dashboard
    behind ES ``GET _snapshot/<repo>/_all``.
    -> (snap_name, n_files, n_bytes, n_blobs_new, n_blobs_reused)."""
    import pyarrow as pa
    snaps = os.path.join(repo_dir, _REPO_SNAPDIR)
    rows = []
    if os.path.isdir(snaps):
        for entry in sorted(os.listdir(snaps)):
            if entry.endswith(".json"):
                with open(os.path.join(snaps, entry)) as f:
                    rows.append(json.load(f)["summary"])
    return pa.table({
        "snap_name": pa.array([r["snap_name"] for r in rows], pa.string()),
        "n_files": pa.array([r["n_files"] for r in rows], pa.int64()),
        "n_bytes": pa.array([r["n_bytes"] for r in rows], pa.int64()),
        "n_blobs_new": pa.array([r["n_blobs_new"] for r in rows],
                                pa.int64()),
        "n_blobs_reused": pa.array([r["n_blobs_reused"] for r in rows],
                                   pa.int64()),
    })
