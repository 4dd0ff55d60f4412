"""One work queue that a process and its forked workers pull from.

`run` computes `work(i)` for every index i below a count.  The indices wait
in a pipe; the calling process and procs - 1 forked workers each take the
next one whenever they are free, so no process idles while indices are left,
and the results come back in index order with the seconds each took.  A
worker announces each index it takes and sends (index, result, seconds) as
soon as the work ends, so a worker that dies costs only the index it was on.

Workers are forked, so `work` is never pickled; its results are.  A worker
never returns to its caller and leaves through `os._exit`, so it flushes no
stdio buffer it inherited.
"""

from __future__ import annotations

import io
import os
import signal
import time
from contextlib import suppress
from typing import Callable

_INDEX_BYTES = 4  # per queued index


def run(
    count: int, procs: int, work: Callable[[int], object], died: Callable[[int, str], object]
) -> list:
    """(work(i), seconds) for i in range(count), in order, over procs
    processes.  Where a worker died on index i, died(i, how it died) stands
    in for work(i).  Indices that do not fit the pipe yet are queued as
    others are taken; while the pipe is full, this process works on the next
    unqueued index itself, so it never waits on the queue it feeds."""
    results: list = [None] * count
    queue_r, queue_w = os.pipe()
    streams: dict[int, tuple[int, bytearray]] = {}  # worker result pipe -> (pid, bytes read)
    try:
        for _ in range(procs - 1):
            pid, fd = _fork(work, queue_r, queue_w)
            streams[fd] = (pid, bytearray())
        os.set_blocking(queue_w, False)
        queued = _enqueue(queue_w, 0, count)
        while queued < count:
            results[queued] = _timed(work, queued)
            _drain(streams, results, died, 0)
            queued = _enqueue(queue_w, queued + 1, count)
        os.close(queue_w)
        queue_w = -1
        while (index := _take(queue_r)) is not None:
            results[index] = _timed(work, index)
            _drain(streams, results, died, 0)
        while streams:
            _drain(streams, results, died, None)
    finally:
        for fd in (queue_r, queue_w):
            if fd >= 0:
                os.close(fd)
        for fd, (pid, _) in streams.items():  # left only when this process raised
            with suppress(OSError):
                os.kill(pid, signal.SIGKILL)
            os.close(fd)
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)
    # a worker killed between taking an index and announcing it sent nothing for it
    return [
        result or (died(i, "worker died before announcing its index"), 0.0)
        for i, result in enumerate(results)
    ]


def _timed(work: Callable[[int], object], index: int) -> tuple:
    start = time.perf_counter()
    result = work(index)
    return result, time.perf_counter() - start


def _enqueue(fd: int, first: int, stop: int) -> int:
    """Write indices first, first + 1, ... below stop into the queue until it
    is full; return the first index not written.  Each write is of at most
    PIPE_BUF bytes, which a pipe takes whole or not at all, so the queue
    always holds whole indices and every read of one index gets all of it."""
    import select

    while first < stop:
        last = min(stop, first + select.PIPE_BUF // _INDEX_BYTES)
        try:
            os.write(fd, b"".join(i.to_bytes(_INDEX_BYTES, "little") for i in range(first, last)))
        except BlockingIOError:
            break
        first = last
    return first


def _take(fd: int) -> int | None:
    """The next index off the queue; None once it is empty and every copy of
    its write end is closed."""
    data = os.read(fd, _INDEX_BYTES)
    return int.from_bytes(data, "little") if data else None


def _fork(work: Callable[[int], object], queue_r: int, queue_w: int) -> tuple[int, int]:
    """Fork a worker that takes indices off the queue and pickles, for each,
    the index and then (index, work(index), seconds) into a pipe; return its
    pid and the pipe's read end."""
    import pickle

    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(queue_w)
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                while (index := _take(queue_r)) is not None:
                    pickle.dump(index, pipe)
                    pipe.flush()
                    pickle.dump((index, *_timed(work, index)), pipe)
                    pipe.flush()
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def _drain(streams: dict, results: list, died: Callable, timeout: float | None) -> None:
    """Read what the workers have sent, waiting up to `timeout` seconds (None:
    until one sends) when none has; a worker whose stream has ended is reaped
    and its results are filled in."""
    import select

    ready, _, _ = select.select(list(streams), [], [], timeout)
    for fd in ready:
        pid, data = streams[fd]
        chunk = os.read(fd, 1 << 16)
        if chunk:
            data += chunk
            continue
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        del streams[fd]
        os.close(fd)
        _decode(data, code, results, died)


def _decode(data: bytes, code: int, results: list, died: Callable) -> None:
    """Fill in the results a finished worker sent.  For the index it
    announced last and sent no readable result for, died(index, how it died)
    stands in."""
    import pickle

    stream = io.BytesIO(data)
    running = None  # the index announced last, until its result is read
    try:
        while running is not None or stream.tell() < len(data):
            frame = pickle.load(stream)
            if isinstance(frame, int):
                running = frame
            else:
                index, result, seconds = frame
                results[index] = (result, seconds)
                running = None
    except Exception as exc:  # the stream ends before or inside that result
        if code < 0:
            why = f"worker killed by signal {-code}"
        elif code:
            why = f"worker exited with status {code}"
        else:
            why = f"undecodable worker result ({type(exc).__name__})"
        results[running] = (died(running, why), 0.0)
