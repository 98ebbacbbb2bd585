import multiprocessing
import os
import signal
import time

import pytest

from histtag import parallel
from histtag.errors import ConfigError, WorkerError
from histtag.parallel import map_jobs


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` makes the process see ``n`` usable CPUs."""
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return set_cpus


def job(x):
    return x * x, os.getpid()


def fails_at(*indices, error=ConfigError):
    def fn(i):
        if i in indices:
            raise error(f"job {i} failed")
        return i
    return fn


@pytest.fixture(autouse=True)
def no_worker_left():
    yield
    assert multiprocessing.active_children() == []


def test_one_cpu_runs_inline(cpus):
    cpus(1)
    results = map_jobs(job, range(5))
    assert [r for r, _ in results] == [0, 1, 4, 9, 16]
    assert {pid for _, pid in results} == {os.getpid()}


def test_results_in_item_order(cpus):
    cpus(2)
    results = map_jobs(job, range(5))
    assert [r for r, _ in results] == [0, 1, 4, 9, 16]
    pids = [pid for _, pid in results]
    # the caller runs jobs 0, 2 and 4; one forked worker runs 1 and 3
    assert pids[0] == pids[2] == pids[4] == os.getpid()
    assert pids[1] == pids[3] != os.getpid()


def test_workers_never_exceed_the_jobs(cpus):
    cpus(8)
    results = map_jobs(job, range(3))
    assert len({pid for _, pid in results}) == 3
    assert map_jobs(job, []) == []


@pytest.mark.parametrize("failing", [(1,), (1, 2), (2, 3), (0, 1)])
def test_first_failure_in_item_order_is_raised(cpus, failing):
    """As the serial loop would: job min(failing), wherever it ran."""
    cpus(2)
    with pytest.raises(ConfigError, match=f"job {min(failing)} failed"):
        map_jobs(fails_at(*failing), range(4))


def test_caller_failure_ends_a_running_worker(cpus):
    cpus(2)

    def fn(i):
        if i == 0:
            raise ConfigError("job 0 failed")
        time.sleep(60)
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="job 0 failed"):
        map_jobs(fn, range(2))
    assert time.perf_counter() - start < 30


@pytest.mark.parametrize("end, message", [
    (lambda: os._exit(3), "exited with status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by SIGKILL"),
])
def test_worker_dying_is_a_worker_error(cpus, end, message):
    cpus(2)

    def fn(i):
        if i == 1:
            end()
        return i
    with pytest.raises(WorkerError, match=f"job 1 has no result: .*{message}"):
        map_jobs(fn, range(4))


def test_unpicklable_result_is_a_worker_error(cpus):
    cpus(2)
    with pytest.raises(WorkerError, match="could not be sent back"):
        map_jobs(lambda i: (lambda: i), range(2))


@pytest.mark.parametrize("n", [1, 2])
def test_blas_on_one_thread_during_jobs_and_restored(cpus, n):
    """Inline too, so a job's sums do not depend on the number of CPUs."""
    controls = parallel._openblas_threads()
    if not controls:
        pytest.skip("no OpenBLAS build is loaded")
    saved = [get() for get, _ in controls]
    try:
        for _, put in controls:
            put(2)
        cpus(n)
        counts = map_jobs(lambda i: [get() for get, _ in controls], range(2))
        assert counts == [[1] * len(controls)] * 2
        assert [get() for get, _ in controls] == [2] * len(controls)
    finally:
        for (_, put), count in zip(controls, saved):
            put(count)
