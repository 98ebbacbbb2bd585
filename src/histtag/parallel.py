"""Independent jobs run on the CPUs this process may use: ``lm train``'s
directions, ``ner train``'s runs and the length groups of
``tagger.predict``, which ``ner predict`` calls.

``map_jobs(fn, items)`` returns ``[fn(item) for item in items]``.  It runs
on ``n = min(len(items), usable CPUs)`` processes: the caller and ``n - 1``
forked workers.  The caller runs jobs 0, n, 2n, ... itself (so a traced
run keeps its spans for that share) and worker k runs jobs k, k + n, ...
Workers are forked, so they inherit what the caller holds (read corpora,
frozen-block memos) and nothing is pickled on the way in; each job's
result, or its exception, comes back pickled over a pipe.  With one
usable CPU, or on a platform without ``os.sched_getaffinity``, every job
runs inline and nothing is forked: ``taskset -c 0`` gives the serial run.
A call made while jobs run, from a job in the caller or in a worker (which
inherits that state through the fork), runs its jobs inline in that
process: a ``ner train`` run calls ``tagger.predict`` for dev scoring and
its final predictions, and a worker, being daemonic, may not fork.

A failure reads as in the serial loop: the exception of the first failing
job in item order is raised, and a worker that dies before reporting a job
(say, killed by a signal) makes that job fail with a WorkerError.  No
worker outlives the call.

While the jobs run, inline or not, every OpenBLAS build loaded in the
caller runs on one thread, a count the workers inherit; the caller's
counts are restored afterwards.  Two processes each starting a BLAS thread
per CPU made ``lm train`` slower than the serial loop, and a job's floating
point sums can differ in the last bit between BLAS thread counts, so a job
computes the same bits however many CPUs or jobs there are.

Forking is safe here because the package starts no threads of its own,
and OpenBLAS stops its thread pool across a fork.
"""

import ctypes
import multiprocessing
import os
import signal
import sys
from contextlib import contextmanager

from .errors import WorkerError

# how OpenBLAS builds name their thread-count functions: numpy's and
# scipy's wheels prefix "scipy_" and numpy's uses 64-bit integers
_OPENBLAS_SYMBOLS = (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                     ("openblas", "64_"), ("openblas", ""))


# glibc's M_TRIM_THRESHOLD and M_MMAP_THRESHOLD, both set to its own
# ceiling for its dynamic mmap threshold on 64-bit
_MALLOPT_PARAMS = (-1, -3)
_RETAINED_BYTES = 32 * 1024 * 1024

# whether jobs run in this process: a job's own map_jobs call runs inline
_running = False


def map_jobs(fn, items) -> list:
    """``[fn(item) for item in items]``, with the jobs spread over the
    usable CPUs (see the module docstring)."""
    global _running
    items = list(items)
    if _running:
        return [fn(item) for item in items]
    # the platforms without the call (Windows, macOS) are those where
    # forking is unavailable or unsafe
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n = min(len(items), cpus)
    _running = True
    try:
        with _one_blas_thread():
            if n <= 1:
                return [fn(item) for item in items]
            return _spread(fn, items, n)
    finally:
        _running = False


def _spread(fn, items: list, n: int) -> list:
    """The jobs on the caller and ``n - 1`` forked workers."""
    # a forked worker must not flush output the caller buffered
    sys.stdout.flush()
    sys.stderr.flush()
    fork = multiprocessing.get_context("fork")
    outcomes = {}  # job index -> (succeeded, result or exception)
    workers = []
    failed = True  # until every job has been seen to succeed or fail
    try:
        for k in range(1, n):
            reader, writer = fork.Pipe(duplex=False)
            worker = fork.Process(target=_work, args=(fn, items[k::n], writer), daemon=True)
            worker.start()
            # the worker now holds the only write end: its death is EOF
            writer.close()
            workers.append((worker, reader))
        first = len(items)  # the first failing job seen so far
        for i in range(0, len(items), n):
            outcomes[i] = _outcome(fn, items[i])
            if not outcomes[i][0]:
                first = i
                break
        # only the jobs before it can change it
        for k, (worker, reader) in enumerate(workers, start=1):
            for i in range(k, first, n):
                try:
                    outcomes[i] = reader.recv()
                except EOFError:
                    worker.join()
                    outcomes[i] = (False, _died(i, worker.exitcode))
                if not outcomes[i][0]:
                    first = i
                    break
        failed = first < len(items)
    finally:
        for worker, reader in workers:
            if failed:
                worker.kill()
            worker.join()
            reader.close()
    if failed:
        raise outcomes[first][1]
    return [outcomes[i][1] for i in range(len(items))]


def _outcome(fn, item) -> tuple:
    try:
        return True, fn(item)
    except Exception as exc:
        return False, exc


def _work(fn, items, writer) -> None:
    """A worker's body: run ``items`` in order, send each outcome, stop
    after the first failure, and leave without the caller's exit handlers."""
    code = 1
    try:
        for item in items:
            succeeded, value = _outcome(fn, item)
            try:
                writer.send((succeeded, value))
            except Exception as exc:  # a result or exception pickle refuses
                succeeded = False
                writer.send((False, WorkerError(f"a job's outcome could not be "
                                                f"sent back: {exc!r}")))
            if not succeeded:
                break
        code = 0
    finally:
        os._exit(code)


def _died(index: int, exitcode: int) -> WorkerError:
    how = (f"was killed by {signal.Signals(-exitcode).name}" if exitcode < 0
           else f"exited with status {exitcode}")
    return WorkerError(f"job {index} has no result: its worker process {how}")


def _openblas_threads() -> list:
    """The (get, set) thread-count functions of every OpenBLAS build loaded
    in this process, found through ``/proc/self/maps``; none elsewhere."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return []
    controls = []
    for path in sorted(paths):
        if ".so" not in os.path.basename(path):
            continue
        lib = ctypes.CDLL(path)
        for prefix, suffix in _OPENBLAS_SYMBOLS:
            if hasattr(lib, f"{prefix}_set_num_threads{suffix}"):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                get.restype = ctypes.c_int
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}")
                put.argtypes = [ctypes.c_int]
                controls.append((get, put))
                break
    return controls


@contextmanager
def _one_blas_thread():
    controls = _openblas_threads()
    saved = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(controls, saved):
            put(count)


def retain_freed_heap() -> None:
    """Have glibc keep up to 32 MiB of freed heap in this process and serve
    blocks under 32 MiB from the heap, a setting forked workers inherit.
    By default glibc returns the heap's top to the system once a little of
    it is free, and each TBPTT window of ``lm train`` faults its temporaries
    in again.  Overrides ``MALLOC_TRIM_THRESHOLD_``/``MALLOC_MMAP_THRESHOLD_``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, TypeError):  # no mallopt; CDLL(None) fails on Windows
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    for param in _MALLOPT_PARAMS:
        mallopt(param, _RETAINED_BYTES)
