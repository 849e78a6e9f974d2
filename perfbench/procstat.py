"""CPU time and resident memory of this process and all its descendants.

``ray.init`` starts the GCS and the raylet as children of the calling
process, and the raylet starts the workers, so the descendants of the
benchmark process are the whole Ray session.  A daemon or worker whose
parent exits first would be re-parented out of that tree, so the
benchmark makes itself their reaper (``become_subreaper``).  Linux
``/proc`` only.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time

_TICK = os.sysconf("SC_CLK_TCK")
_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Have orphaned descendants re-parented to this process instead of
    init, so they stay in ``session_pids()`` until they have ended."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        err = ctypes.get_errno()
        raise OSError(err, os.strerror(err))


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            # fields after the parenthesised command name, from ``state``
            return fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def session_pids(root: int | None = None) -> list[int]:
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            f = _stat_fields(int(name))
            if f is not None:
                children.setdefault(int(f[1]), []).append(int(name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def cpu_seconds(pids: list[int]) -> float:
    """User + system CPU seconds of ``pids``, including reaped children.
    Compare totals, not per-pid readings: a child reaped between two
    readings moves its whole CPU time into its parent's children fields,
    which its own earlier reading then offsets."""
    total = 0
    for pid in pids:
        f = _stat_fields(pid)
        if f is not None:
            total += sum(int(x) for x in f[11:15])
    return total / _TICK


def host_cpu_ticks() -> list[int]:
    """The host-wide ``cpu`` line of ``/proc/stat`` (user .. steal)."""
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:9]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests."""
    d = [b - a for a, b in zip(before, after)]
    return d[7] / max(sum(d), 1)


def rss_mb(pids: list[int]) -> float:
    """Summed resident set of ``pids`` in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def pin_session(cpus: set[int]) -> None:
    """Restrict every thread of this process and its descendants to
    ``cpus``; threads and processes they start later inherit it."""
    for pid in session_pids():
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                os.sched_setaffinity(int(tid), cpus)
            except OSError:         # the thread has ended meanwhile
                pass


def _reap_children() -> None:
    """Collect the exit status of every child that has ended."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def wait_for_descendants(timeout_s: float = 10.0) -> None:
    """Wait until no descendant of this process is left, reaping each;
    SIGKILL those still alive after ``timeout_s``, and give up on those
    that outlive the kill by another ``timeout_s``.  Call it once the
    session is shut down: it reaps children other code may be waiting
    for."""
    end = time.monotonic() + timeout_s
    while True:
        _reap_children()
        rest = [p for p in session_pids() if p != os.getpid()]
        if not rest or time.monotonic() > end + timeout_s:
            return
        if time.monotonic() > end:
            for p in rest:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.1)
