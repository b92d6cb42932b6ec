"""One fork pool for Monte-Carlo sweeps and the CSV reader: results come back
in task order, so no output depends on the number of processes.  One pinned
helper thread (:func:`beside`) for a long sampling pass; a sweep with only
one such pass runs without the pool, so no child takes the helper's CPU, and
a pool's calling process runs its share on one CPU, so it starts no helper."""

from __future__ import annotations

import contextlib
import functools
import os
import pickle
import threading
import traceback

#: Size asked for each result pipe: a child writes up to 1 MiB without waiting.
PIPE_BYTES = 1 << 20


def worker_count(tasks: int) -> int:
    """One process per available CPU and task; one without ``os.fork`` or while
    another thread runs, whose locks a forked child would inherit held."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, tasks))


def run_tasks(run_task, tasks: list) -> list:
    """``run_task(*task)`` for every task, in task order, on :func:`run_shares`."""
    return run_shares(lambda share: [run_task(*task) for task in share], tasks)


def run_shares(run_share, tasks: list) -> list:
    """The results of every task, in task order, where ``run_share(share)``
    returns those of the tasks of ``share`` in its order.  Worker ``w`` of
    :func:`worker_count` runs the share ``tasks[w::workers]``: worker 0 here,
    the others in children forked first; each is pinned to CPU ``w`` of the
    mask while they run, and this process gets its mask back at the end."""
    mask = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    workers = worker_count(len(tasks))
    shares = [range(w, len(tasks), workers) for w in range(workers)]
    children: dict[int, int] = {}  # pid -> read end of its pipe, until reaped
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            import fcntl  # POSIX, as os.fork is
            with contextlib.suppress(AttributeError, OSError):  # F_SETPIPE_SZ: Linux only
                fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
            if (pid := os.fork()) == 0:
                # Leave only by os._exit: flush no inherited buffer, run no exit handler.
                status = 1
                try:
                    os.close(read_fd)
                    try:
                        if mask:  # else the scheduler may leave a new child on this CPU
                            os.sched_setaffinity(0, {mask[w]})
                        payload, status = _results(run_share, tasks, shares[w]), 0
                    except BaseException:
                        payload = traceback.format_exc()
                    with os.fdopen(write_fd, "wb") as pipe:
                        pickle.dump(payload, pipe, pickle.HIGHEST_PROTOCOL)
                finally:
                    os._exit(status)
            os.close(write_fd)
            children[pid] = read_fd
        if workers > 1 and mask:  # so beside starts no helper on a child's CPU
            os.sched_setaffinity(0, {mask[0]})
        results = _results(run_share, tasks, shares[0])
        for w, (pid, fd) in enumerate(list(children.items()), start=1):
            data = b"".join(iter(lambda: os.read(fd, 1 << 16), b""))
            os.close(fd)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            try:
                payload = pickle.loads(data)
            except Exception:  # noqa: BLE001 - short or garbled data
                payload = f"{len(data)} bytes of incomplete output"
            if status != 0 or not isinstance(payload, dict):
                raise RuntimeError(f"pool worker {w} exited with status {status}: {payload}")
            results.update(payload)
    finally:
        if workers > 1 and mask:
            os.sched_setaffinity(0, set(mask))
        for pid, fd in children.items():  # only when raising: stop, then reap
            os.close(fd)
            os.kill(pid, 9)  # SIGKILL; the signal module is not loaded
            os.waitpid(pid, 0)
    return [results[i] for i in range(len(tasks))]


def _results(run_share, tasks: list, share: range) -> dict:
    return dict(zip(share, run_share([tasks[i] for i in share]), strict=True))


@contextlib.contextmanager
def beside(wanted: bool):
    """A runner for the block: ``run(fn, *args)`` returns a job, a function
    of no arguments that returns ``fn(*args)``.

    With ``wanted`` and two or more CPUs in the affinity mask, the caller is
    pinned to the mask's first CPU and the jobs run in order on one helper
    thread pinned to its second; a job not yet started when called runs on
    the caller, so a starved helper never holds it up.  Otherwise each job
    runs when called (``functools.partial``), where a one-thread pass would
    run it.  On exit, however the block ends, the helper is joined and the
    caller's mask restored, so :func:`worker_count` forks again.  Jobs call
    no public ``ctls`` function: perfbench's tracer is not thread-safe.
    """
    mask = sorted(os.sched_getaffinity(0)) if wanted and hasattr(os, "sched_getaffinity") else []
    if len(mask) < 2:
        yield functools.partial
        return
    from concurrent.futures import ThreadPoolExecutor  # not at import: ctls loads without it

    def run(fn, *args):
        future = pool.submit(fn, *args)
        return lambda: fn(*args) if future.cancel() else future.result()

    pool = ThreadPoolExecutor(1, initializer=os.sched_setaffinity, initargs=(0, {mask[1]}))
    os.sched_setaffinity(0, {mask[0]})
    try:
        yield run
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        os.sched_setaffinity(0, set(mask))
