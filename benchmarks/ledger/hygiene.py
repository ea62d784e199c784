"""Leave nothing running: teardown, leak assertions, signal handling.

A benchmark that leaves a worker, a thread or a shared-memory segment behind
is rejected however good its numbers are, so the driver tears everything
down in ``finally`` and then *checks*: no child process, no thread other
than main, no live export.
"""

from __future__ import annotations

import gc
import glob
import multiprocessing
import signal
import threading
import time
from multiprocessing import resource_tracker
from typing import List

from repro.engine.parallel.pool import shutdown_shared_pools
from repro.storage.shm import live_export_names, release_all_exports


class Interrupted(BaseException):
    """SIGTERM/SIGINT, raised on the main thread so every ``finally`` runs."""


def install_signal_handlers() -> None:
    def handler(signum, _frame):
        raise Interrupted(signal.Signals(signum).name)

    signal.signal(signal.SIGTERM, handler)
    signal.signal(signal.SIGINT, handler)


def other_threads() -> List[threading.Thread]:
    return [thread for thread in threading.enumerate() if thread is not threading.main_thread()]


def tear_down(timeout: float = 5.0) -> None:
    """Stop the shared pools, release exports, reap every child (idempotent)."""
    shutdown_shared_pools()
    release_all_exports()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=timeout)
    # Pool workers and queue feeders end asynchronously after shutdown.
    deadline = time.monotonic() + timeout
    for thread in other_threads():
        thread.join(max(0.0, deadline - time.monotonic()))
    # multiprocessing starts a tracker process with the first shared-memory
    # segment or queue and only stops it when this process exits; stop and
    # reap it here (it restarts on demand) so that nothing outlives the run.
    # The queues' semaphores must be finalized first — hence the thread
    # joins above, feeders hold them — or the stopping tracker unlinks them
    # as leaked.
    gc.collect()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def child_pids() -> List[int]:
    """Live children of this process, from ``/proc`` (empty where absent)."""
    pids: List[int] = []
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            with open(path) as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        except OSError:
            continue  # the task ended between glob and open
    return pids


def command_line(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode(errors="replace").strip()
    except OSError:
        return "gone"


def leaks() -> List[str]:
    """What is still alive after :func:`tear_down`; empty when clean."""
    found = [f"thread {thread.name}" for thread in other_threads()]
    found += [f"child process {pid} ({command_line(pid)})" for pid in child_pids()]
    found += [f"shared-memory export {name}" for name in live_export_names()]
    return found
