"""The shared work queue on its own; tests/test_suites.py covers it under the
suites: dead workers, interrupts, fork counts and process-count independence."""

import os
import signal
import tempfile
import time

import pytest

from grothcrystal import workqueue


def _died(index, why):
    pytest.fail(f"no worker should die: {index} {why}")


@pytest.mark.parametrize("procs", [1, 2])
def test_queue_longer_than_a_pipe_buffer(procs):
    """20 000 indices fill 80 KB of queue, more than a 64 KiB pipe buffer;
    every result still comes back in index order, and the run ends."""

    def too_long(signum, frame):
        raise TimeoutError("the run did not end")

    old = signal.signal(signal.SIGALRM, too_long)
    signal.alarm(120)
    try:
        results = workqueue.run(20_000, procs, lambda i: i * i, _died)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert [result for result, _ in results] == [i * i for i in range(20_000)]
    assert all(seconds >= 0 for _, seconds in results)


def test_records_larger_than_a_pipe_buffer_come_back_whole():
    # each worker's share is far more than one 64 KiB pipe buffer
    results = workqueue.run(3000, 3, lambda i: f"{i}:" + "x" * 1024, _died)
    assert [result for result, _ in results] == [f"{i}:" + "x" * 1024 for i in range(3000)]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _open_fds():
    """The number of descriptors this process has open, or None where
    /proc/self/fd is missing."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def _kill_workers_on_their_first_index(marks):
    """work for a 3-process run: each worker writes a marker and is killed on
    the first index it takes; this process waits (up to 30 s) for both
    markers before its first index, so both workers die whatever the timing."""
    test_process = os.getpid()

    def work(i):
        if os.getpid() != test_process:
            (marks / f"died-{os.getpid()}").touch()
            os.kill(os.getpid(), signal.SIGKILL)
        deadline = time.monotonic() + 30
        while len(list(marks.glob("died-*"))) < 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        return i

    return work


def _interrupt_in_this_process():
    test_process = os.getpid()

    def work(i):
        if os.getpid() == test_process:
            raise KeyboardInterrupt
        time.sleep(60)

    return work


@pytest.mark.parametrize("how", ["normal", "killed worker", "interrupted"])
def test_run_leaves_no_descriptor_and_no_temp_file(monkeypatch, tmp_path, how):
    """The queue and result files are unlinked temp files, closed however the
    run ends."""
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    before = _open_fds()
    if how == "normal":
        results = workqueue.run(50, 3, lambda i: i, _died)
        assert [result for result, _ in results] == list(range(50))
    elif how == "killed worker":
        work = _kill_workers_on_their_first_index(tmp_path)
        results = workqueue.run(50, 3, work, lambda i, why: why)
        died = [result for i, (result, _) in enumerate(results) if result != i]
        assert died == [f"worker killed by signal {int(signal.SIGKILL)}"] * 2
    else:
        with pytest.raises(KeyboardInterrupt):
            workqueue.run(50, 3, _interrupt_in_this_process(), _died)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert list(temp.iterdir()) == []
    if before is None:
        pytest.skip("no /proc/self/fd to count open descriptors")
    assert _open_fds() == before


def test_every_index_is_taken_once_by_more_processes_than_cores(tmp_path):
    """Six processes read the one shared queue offset; each index is worked on
    by exactly one of them, which a lost or repeated read would break."""
    log = os.open(tmp_path / "taken", os.O_CREAT | os.O_WRONLY | os.O_APPEND)

    def work(i):
        os.write(log, i.to_bytes(4, "little"))  # one O_APPEND write is atomic
        return i

    def too_long(signum, frame):
        raise TimeoutError("the run did not end")

    old = signal.signal(signal.SIGALRM, too_long)
    signal.alarm(120)
    try:
        results = workqueue.run(5000, 6, work, _died)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
        os.close(log)
    data = (tmp_path / "taken").read_bytes()
    taken = [int.from_bytes(data[k : k + 4], "little") for k in range(0, len(data), 4)]
    assert sorted(taken) == list(range(5000))
    assert [result for result, _ in results] == list(range(5000))
