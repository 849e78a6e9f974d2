"""Worker-side runtime pinning.

Ray budgets ONE logical CPU per task, but PyArrow's internal thread
pool defaults to every core on the host — so an 8-CPU ``ray.init``
actually burns ~13 effective cores through Acero/compute kernels
(measured: 165 s process-CPU over 13 s wall across 8 workers).  That
silently oversubscribes the machine, and it wrecks the N-vs-4N scaling
proxy: the low-CPU level borrows proportionally more hidden cores than
the high one, so measured efficiency understates the engine.

``pin_worker_threads()`` caps Arrow's compute/IO pools at 1 thread for
this process; every CPU-heavy stage calls it once (cheap, idempotent).
The driver process is intentionally NOT pinned.

``worker_engine(open_fn, index_dir, watch)`` is the per-worker engine
cache of the batch query stages: plain ``map_batches`` tasks reuse
prestarted workers, so an engine opened once per worker process serves
every later batch without an actor pool's spin-up.
"""

from __future__ import annotations

import os

_PINNED = False
_CORE_PINNED = False
#: (open_fn, index_dir) -> (stamp of the watched paths, engine)
_ENGINES: dict[tuple, tuple] = {}


def pin_worker_threads(n: int = 1) -> None:
    global _PINNED
    if not _PINNED:
        import pyarrow as pa
        pa.set_cpu_count(n)
        pa.set_io_thread_count(max(n, 1))
        _PINNED = True
    if os.environ.get("OEL_PIN_CORES") == "1":
        pin_worker_core()


def _stamp(path: str):
    """A file's ns mtime, a directory's sorted listing, None if missing."""
    if os.path.isdir(path):
        return tuple(sorted(os.listdir(path)))
    return os.stat(path).st_mtime_ns if os.path.exists(path) else None


def worker_engine(open_fn, index_dir: str, watch: tuple[str, ...]):
    """The engine ``open_fn(index_dir)`` this worker process opened,
    reopened when the stamp of any ``watch`` path has changed since: a
    long-lived worker sees deletes, rebuilds and compactions on its
    next batch instead of answering from a stale snapshot.  One stat or
    listdir per watched path per call; a replaced engine is dropped."""
    key = (open_fn, index_dir)
    stamp = tuple(_stamp(p) for p in watch)
    hit = _ENGINES.get(key)
    if hit is None or hit[0] != stamp:
        hit = _ENGINES[key] = (stamp, open_fn(index_dir))
    return hit[1]


def pin_worker_core() -> None:
    """EXPERIMENT knob (``OEL_PIN_CORES=1``): pin this worker process to
    ONE core, assigned round-robin through a lock-protected counter file
    in /dev/shm (collision-free, unlike a pid hash).  Motivation: the
    8->32 scaling gap on the bench host decomposes to a memory-system
    cap (identical per-doc map work costs 1.2-1.45x more CPU at 32
    co-located workers); the round-4 verdict asked for one concrete
    mitigation attempt — on this single-socket box the nearest analog
    of socket round-robin is per-core affinity, which removes scheduler
    migration and L1/L2 refill churn.  Result recorded in BASELINE.md
    either way."""
    global _CORE_PINNED
    if _CORE_PINNED:
        return
    _CORE_PINNED = True
    try:
        import fcntl
        cpus = sorted(os.sched_getaffinity(0))
        path = os.environ.get("OEL_PIN_COUNTER",
                              "/dev/shm/oel_core_counter")
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o666)
        try:
            fcntl.lockf(fd, fcntl.LOCK_EX)
            raw = os.pread(fd, 16, 0).strip()
            i = int(raw) if raw else 0
            os.pwrite(fd, str(i + 1).encode().ljust(16), 0)
        finally:
            fcntl.lockf(fd, fcntl.LOCK_UN)
            os.close(fd)
        os.sched_setaffinity(0, {cpus[i % len(cpus)]})
    except Exception:
        pass                                  # affinity is best-effort
